//! Periodic-boundary validation: properties that hold *exactly* on a
//! torus make for unusually sharp numerics tests.
//!
//! Hermetic build: the randomized sweep is deterministic and std-only
//! (see `numerics_properties.rs`); `--features proptest` widens it.

use mpdata::{
    gaussian_pulse, random_fields, Boundary, ExchangeExecutor, MpdataFields, MpdataProblem,
    OriginalExecutor, ReferenceExecutor,
};
use stencil_engine::rng::{Rng64, Xoshiro256pp};
use stencil_engine::{Array3, Axis, Region3};
use work_scheduler::{TeamSpec, WorkerPool};

fn periodic_reference() -> ReferenceExecutor {
    ReferenceExecutor::with_problem(MpdataProblem::standard().with_boundary(Boundary::Periodic))
}

/// Circular shift of a field along `i` by `s` cells.
fn shift_i(a: &Array3, s: i64) -> Array3 {
    let d = a.region();
    let n = d.i.len() as i64;
    Array3::from_fn(d, |i, j, k| {
        a.get(d.i.lo + (i - d.i.lo - s).rem_euclid(n), j, k)
    })
}

/// At Courant number exactly 1, donor-cell transport is exact and the
/// antidiffusive velocities vanish — each step is an exact one-cell
/// circular shift.
#[test]
fn cfl_one_is_exact_shift() {
    let d = Region3::of_extent(24, 4, 4);
    let mut f = gaussian_pulse(d, (0.0, 0.0, 0.0));
    f.u1.fill(1.0);
    let exec = periodic_reference();
    let x0 = f.x.clone();
    exec.run(&mut f, 5);
    let expect = shift_i(&x0, 5);
    assert_eq!(
        f.x.max_abs_diff(&expect),
        0.0,
        "CFL = 1 advection must be an exact circular shift"
    );
}

/// The discrete operator commutes with circular shifts for uniform flow
/// on a torus — bitwise, because every cell sees identical operands.
#[test]
fn step_commutes_with_shift() {
    let d = Region3::of_extent(16, 6, 4);
    let mut rng = Xoshiro256pp::seed_from_u64(21);
    let base = random_fields(&mut rng, d, 0.6);
    // Make the flow uniform (random_fields closes boundaries, which
    // would break shift symmetry).
    let f = MpdataFields {
        x: base.x.clone(),
        u1: Array3::filled(d, 0.23),
        u2: Array3::filled(d, -0.11),
        u3: Array3::filled(d, 0.07),
        h: Array3::filled(d, 1.0),
    };
    let exec = periodic_reference();
    // step(shift(x)) == shift(step(x))
    let stepped = exec.step(&f);
    let shifted_then_stepped = exec.step(&MpdataFields {
        x: shift_i(&f.x, 3),
        ..f.clone()
    });
    let stepped_then_shifted = shift_i(&stepped, 3);
    assert_eq!(
        shifted_then_stepped.max_abs_diff(&stepped_then_shifted),
        0.0
    );
}

/// On a torus, Σ x·h is conserved exactly for *any* velocity field —
/// the flux divergence telescopes all the way around.
#[test]
fn periodic_conservation_any_flow() {
    let sweeps = if cfg!(feature = "proptest") { 160 } else { 16 };
    let mut rng = Xoshiro256pp::seed_from_u64(0x7013_0001);
    for case in 0..sweeps {
        let d = Region3::of_extent(8, 6, 4);
        // Do NOT close boundaries: the torus needs no walls.
        let mut f = random_fields(&mut rng, d, 0.7);
        f.u1 = Array3::from_fn(d, |_, _, _| rng.range_f64(-0.09, 0.09));
        f.u2 = Array3::from_fn(d, |_, _, _| rng.range_f64(-0.09, 0.09));
        f.u3 = Array3::from_fn(d, |_, _, _| rng.range_f64(-0.09, 0.09));
        let m0 = f.mass();
        periodic_reference().run(&mut f, 3);
        assert!(
            (f.mass() - m0).abs() <= 1e-11 * m0.abs().max(1.0),
            "case {case}: torus mass drifted: {m0} → {}",
            f.mass()
        );
        assert!(f.x.min() >= -1e-12, "case {case}");
    }
}

/// The stage-synchronous executors — Original and Exchange, whose
/// wrapped reads land in shared full-domain arrays finished a global
/// barrier earlier — support periodic boundaries and stay
/// bitwise-equal to the reference, the wrap crossing island parts
/// along either cut included.
#[test]
fn original_executor_periodic_matches_reference() {
    let d = Region3::of_extent(12, 8, 4);
    let mut rng = Xoshiro256pp::seed_from_u64(4);
    let f = random_fields(&mut rng, d, 0.6);
    let problem = || MpdataProblem::standard().with_boundary(Boundary::Periodic);
    let expect = ReferenceExecutor::with_problem(problem()).step(&f);
    let pool = WorkerPool::new(4);
    let got = OriginalExecutor::with_problem(&pool, problem()).step(&f);
    assert_eq!(got.max_abs_diff(&expect), 0.0);
    for (teams, axis) in [(2, Axis::I), (4, Axis::I), (2, Axis::J), (4, Axis::J)] {
        let spec = TeamSpec::even(4, teams);
        let got = ExchangeExecutor::with_problem(&pool, spec, axis, problem()).step(&f);
        assert_eq!(
            got.max_abs_diff(&expect),
            0.0,
            "{teams} islands along {axis:?}"
        );
    }
}

/// The cache-blocked executors refuse periodic problems loudly instead
/// of computing garbage.
#[test]
#[should_panic(expected = "open boundaries")]
fn fused_rejects_periodic() {
    let d = Region3::of_extent(12, 8, 4);
    let f = gaussian_pulse(d, (0.2, 0.0, 0.0));
    let pool = WorkerPool::new(2);
    let _ = mpdata::IslandsExecutor::single_island(
        &pool,
        MpdataProblem::standard().with_boundary(Boundary::Periodic),
    )
    .step(&f);
}
