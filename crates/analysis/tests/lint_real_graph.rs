//! The real MPDATA graphs must lint clean: zero conformance
//! diagnostics for every boundary condition and kernel path, zero
//! disjointness diagnostics for representative island schedules.

use islands_analysis::{check_disjointness, check_problem, islands_plan, KernelPath};
use islands_core::{Partition, Variant};
use mpdata::{Boundary, MpdataProblem};
use stencil_engine::{trace, Axis, Range1, Region3};

/// Mixed positive/negative bases shake out coordinate-system bugs.
fn domain() -> Region3 {
    Region3::new(Range1::new(2, 7), Range1::new(-1, 3), Range1::new(3, 6))
}

#[test]
fn all_17_stages_conform_under_every_config() {
    if !trace::is_enabled() {
        return; // conformance needs the debug-only recorder
    }
    for bc in [Boundary::Open, Boundary::Periodic] {
        let problem = MpdataProblem::standard().with_boundary(bc);
        for path in [KernelPath::Dispatch, KernelPath::Scalar] {
            let rep = check_problem(&problem, domain(), path).unwrap();
            assert_eq!(rep.stages, 17);
            assert_eq!(rep.cells, 17 * domain().cells());
            assert_eq!(
                rep.diagnostics,
                vec![],
                "bc={bc:?} path={path:?} must lint clean"
            );
        }
    }
}

#[test]
fn iord3_graph_conforms_too() {
    if !trace::is_enabled() {
        return;
    }
    for bc in [Boundary::Open, Boundary::Periodic] {
        let problem = MpdataProblem::with_iord(3).with_boundary(bc);
        for path in [KernelPath::Dispatch, KernelPath::Scalar] {
            let rep = check_problem(&problem, domain(), path).unwrap();
            assert!(rep.stages > 17, "iord=3 adds stages");
            assert_eq!(rep.diagnostics, vec![], "bc={bc:?} path={path:?}");
        }
    }
}

#[test]
fn real_island_schedules_are_disjoint() {
    let problem = MpdataProblem::standard();
    let d = Region3::of_extent(24, 12, 6);
    for partition in [
        Partition::one_d(d, Variant::A, 2).unwrap(),
        Partition::one_d(d, Variant::B, 3).unwrap(),
        Partition::grid2d(d, 2, 2).unwrap(),
        // More islands than i-slabs: surplus teams idle.
        Partition::one_d(d, Variant::A, 16).unwrap(),
    ] {
        for split_axis in [Axis::J, Axis::K] {
            let sizes: Vec<usize> = (0..partition.islands()).map(|n| 1 + n % 3).collect();
            let plan = islands_plan(
                &problem,
                d,
                partition.parts(),
                &sizes,
                split_axis,
                64 * 1024,
            )
            .unwrap();
            let found = check_disjointness(&plan);
            assert_eq!(
                found,
                vec![],
                "{} split={split_axis:?} must be race-free",
                partition.description()
            );
        }
    }
}

#[test]
fn prime_extent_schedule_is_disjoint() {
    let problem = MpdataProblem::standard();
    let d = Region3::new(Range1::new(-3, 10), Range1::new(2, 9), Range1::new(0, 5));
    let partition = Partition::one_d(d, Variant::A, 3).unwrap();
    let plan = islands_plan(
        &problem,
        d,
        partition.parts(),
        &[2, 2, 2],
        Axis::J,
        64 * 1024,
    )
    .unwrap();
    assert_eq!(check_disjointness(&plan), vec![]);
}
