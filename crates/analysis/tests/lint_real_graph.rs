//! The real MPDATA schedules must lint clean: zero disjointness
//! diagnostics for representative island schedules. (The conformance
//! proofs of the real graphs run in the root `tests/stencil_contract.rs`.)

use islands_analysis::{check_disjointness, islands_plan};
use islands_core::{Partition, Variant};
use mpdata::MpdataProblem;
use stencil_engine::{Axis, Range1, Region3};

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
