//! Property-based tests of the MPDATA numerics and the equivalence of
//! all execution strategies.
//!
//! Hermetic build: swept over deterministic, seeded random cases
//! (std-only) instead of the external `proptest` crate; `--features
//! proptest` widens the sweep roughly tenfold. Each case derives its
//! geometry and fields from a per-case seed, so a failure message's
//! case index reproduces exactly.

use mpdata::{
    random_fields, ExchangeExecutor, IslandsExecutor, MpdataProblem, OriginalExecutor,
    ReferenceExecutor,
};
use stencil_engine::rng::{Rng64, Xoshiro256pp};
use stencil_engine::{Axis, Region3};
use work_scheduler::{TeamSpec, WorkerPool};

fn cases(quick: usize) -> usize {
    if cfg!(feature = "proptest") {
        quick * 10
    } else {
        quick
    }
}

/// Positivity: MPDATA is positive definite under the CFL condition,
/// for arbitrary (closed-box) velocity and density fields.
#[test]
fn positive_definite() {
    let mut rng = Xoshiro256pp::seed_from_u64(0x3DA7_0001);
    for case in 0..cases(24) {
        let ni = 4 + rng.below(8);
        let nj = 4 + rng.below(6);
        let nk = 2 + rng.below(4);
        let d = Region3::of_extent(ni, nj, nk);
        let mut f = random_fields(&mut rng, d, 0.85);
        ReferenceExecutor::new().run(&mut f, 3);
        assert!(
            f.x.min() >= -1e-12,
            "case {case} ({ni}×{nj}×{nk}): min = {}",
            f.x.min()
        );
    }
}

/// Conservation: total mass Σ x·h is exactly preserved in a closed
/// box (up to rounding), for arbitrary fields.
#[test]
fn conservative() {
    let mut rng = Xoshiro256pp::seed_from_u64(0x3DA7_0002);
    for case in 0..cases(24) {
        let ni = 4 + rng.below(8);
        let nj = 4 + rng.below(6);
        let d = Region3::of_extent(ni, nj, 4);
        let mut f = random_fields(&mut rng, d, 0.8);
        let m0 = f.mass();
        ReferenceExecutor::new().run(&mut f, 3);
        let m1 = f.mass();
        assert!(
            (m1 - m0).abs() <= 1e-10 * m0.abs().max(1.0),
            "case {case} ({ni}×{nj}): mass {m0} → {m1}"
        );
    }
}

/// Strategy equivalence: original, (3+1)D and islands agree with the
/// serial reference bitwise on random fields and random geometry.
#[test]
fn all_strategies_bitwise_equal() {
    let mut rng = Xoshiro256pp::seed_from_u64(0x3DA7_0003);
    for case in 0..cases(24) {
        let ni = 6 + rng.below(10);
        let nj = 4 + rng.below(6);
        let workers = 1 << (1 + rng.below(3)); // 2, 4, 8
        let teams_n = [1, 2, workers][rng.below(3)].min(workers);
        let variant_b = rng.next_bool();
        let d = Region3::of_extent(ni, nj, 4);
        let f = random_fields(&mut rng, d, 0.8);
        let label = format!(
            "case {case}: {ni}×{nj}, workers={workers}, teams={teams_n}, variant_b={variant_b}"
        );
        let expect = ReferenceExecutor::new().step(&f);

        let pool = WorkerPool::new(workers);
        let orig = OriginalExecutor::new(&pool).step(&f);
        assert_eq!(
            orig.max_abs_diff(&expect),
            0.0,
            "original diverged: {label}"
        );

        let fused = IslandsExecutor::single_island(&pool, MpdataProblem::standard())
            .cache_bytes(96 * 1024)
            .step(&f)
            .unwrap();
        assert_eq!(fused.max_abs_diff(&expect), 0.0, "fused diverged: {label}");

        if workers.is_multiple_of(teams_n) {
            let spec = TeamSpec::even(workers, teams_n);
            let axis = if variant_b { Axis::J } else { Axis::I };
            let isl = IslandsExecutor::new(&pool, spec.clone(), axis)
                .cache_bytes(96 * 1024)
                .step(&f)
                .unwrap();
            assert_eq!(isl.max_abs_diff(&expect), 0.0, "islands diverged: {label}");
            let exc = ExchangeExecutor::new(&pool, spec, axis).step(&f);
            assert_eq!(exc.max_abs_diff(&expect), 0.0, "exchange diverged: {label}");
        }
    }
}

/// Accuracy ladder: each extra corrective iteration reduces the
/// numerical diffusion of an advected pulse (peak retention grows with
/// `iord`), while positivity and conservation hold at every order.
#[test]
fn higher_iord_is_less_diffusive() {
    let d = Region3::of_extent(40, 8, 8);
    let steps = 12;
    let mut peaks = Vec::new();
    for iord in 1..=3 {
        let mut f = mpdata::gaussian_pulse(d, (0.35, 0.0, 0.0));
        let m0 = f.mass();
        let exec = ReferenceExecutor::with_problem(MpdataProblem::with_iord(iord));
        exec.run(&mut f, steps);
        assert!(f.x.min() >= -1e-12, "iord {iord} broke positivity");
        // Open boundaries: mass is only conserved up to in/outflow, so
        // check boundedness rather than exact conservation here.
        assert!(f.mass() <= m0 * 1.001);
        peaks.push(f.x.max());
    }
    assert!(
        peaks[1] > peaks[0] + 1e-6,
        "iord 2 ({}) must beat upwind ({})",
        peaks[1],
        peaks[0]
    );
    assert!(
        peaks[2] >= peaks[1] - 1e-9,
        "iord 3 ({}) must not be more diffusive than iord 2 ({})",
        peaks[2],
        peaks[1]
    );
}

/// All parallel strategies remain bitwise-equal to the reference for
/// the third-order scheme (30 stages) — the stage-kind machinery is
/// order-independent.
#[test]
fn iord3_strategies_bitwise_equal() {
    let d = Region3::of_extent(20, 10, 5);
    let mut rng = Xoshiro256pp::seed_from_u64(99);
    let f = random_fields(&mut rng, d, 0.6);
    let problem = || MpdataProblem::with_iord(3);
    let expect = ReferenceExecutor::with_problem(problem()).step(&f);
    let pool = WorkerPool::new(4);
    let orig = OriginalExecutor::with_problem(&pool, problem()).step(&f);
    assert_eq!(orig.max_abs_diff(&expect), 0.0, "original/iord3 diverged");
    let fused = IslandsExecutor::single_island(&pool, problem())
        .cache_bytes(128 * 1024)
        .step(&f)
        .unwrap();
    assert_eq!(fused.max_abs_diff(&expect), 0.0, "fused/iord3 diverged");
    let isl = IslandsExecutor::with_problem(&pool, TeamSpec::even(4, 2), Axis::I, problem())
        .cache_bytes(128 * 1024)
        .step(&f)
        .unwrap();
    assert_eq!(isl.max_abs_diff(&expect), 0.0, "islands/iord3 diverged");
    let exc =
        ExchangeExecutor::with_problem(&pool, TeamSpec::even(4, 2), Axis::I, problem()).step(&f);
    assert_eq!(exc.max_abs_diff(&expect), 0.0, "exchange/iord3 diverged");
}

/// The classic rotating-cone benchmark: after a full revolution the
/// cone must return near its starting position with bounded shape
/// error — the standard MPDATA validation figure.
#[test]
fn rotating_cone_full_revolution() {
    use mpdata::error_norms;
    let d = Region3::of_extent(40, 40, 1);
    let f0 = mpdata::rotating_cone(d, 0.25);
    // The generator's rim Courant 0.25 sits at r1 = 0.48·40, so
    // ω = 0.25/r1 rad/step and a full revolution is 2π/ω steps.
    let r1 = 0.48 * 40.0;
    let steps = (2.0 * std::f64::consts::PI * r1 / 0.25).ceil() as usize;
    let mut f = f0.clone();
    ReferenceExecutor::new().run(&mut f, steps);
    let n = error_norms(&f.x, &f0.x);
    // The cone (peak 4 over background 1, radius ≈ 5 cells) diffuses
    // over ≈ 480 steps; second-order MPDATA retains ~25 % of the peak on
    // a grid this coarse — the published behaviour for small cones. The
    // bounds fail loudly for first-order-like diffusion (L∞ → 4) or any
    // dispersive ringing (background disturbance inflates L1/L2).
    assert!(n.linf < 3.6, "shape loss too large: {n:?}");
    assert!(n.l2 < 0.35, "L2 error too large: {n:?}");
    assert!(n.l1 < 0.12, "background disturbed: {n:?}");
    assert!(f.x.min() >= -1e-12);
    assert!(f.x.max() > 1.7, "peak must survive the revolution");
    assert!((f.mass() - f0.mass()).abs() < 1e-9 * f0.mass());
}

/// Long-run stability: 20 steps of a rotating cone keep the solution
/// bounded, positive and conservative.
#[test]
fn rotating_cone_long_run() {
    let d = Region3::of_extent(24, 24, 2);
    let mut f = mpdata::rotating_cone(d, 0.35);
    let m0 = f.mass();
    let hi0 = f.x.max();
    ReferenceExecutor::new().run(&mut f, 20);
    assert!((f.mass() - m0).abs() < 1e-9 * m0);
    assert!(f.x.min() >= -1e-12);
    // The closed box makes the flow compressive where it meets the
    // walls, so mass piles up there; assert boundedness, not
    // monotonicity (which only holds for divergence-free flow).
    assert!(
        f.x.max() <= hi0 * 2.0,
        "max grew from {hi0} to {}",
        f.x.max()
    );
}
