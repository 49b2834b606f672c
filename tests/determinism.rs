//! Determinism guarantees: identical inputs produce identical outputs —
//! for the simulator (bit-exact event schedules), for the real threaded
//! executors (independent of thread interleaving), and for the planners
//! (stable traces).

use islands_of_cores::islands::{
    estimate, plan_fused, plan_islands, plan_original, InitPolicy, Variant, Workload,
};
use islands_of_cores::mpdata::{
    gaussian_pulse, random_fields, rotating_cone, IslandsExecutor, OriginalExecutor,
};
use islands_of_cores::numa::{SimConfig, UvParams};
use islands_of_cores::scheduler::{TeamSpec, WorkerPool};
use islands_of_cores::stencil::rng::{hash_f64_slice, Xoshiro256pp};
use islands_of_cores::stencil::{Axis, Region3};

/// Field generators are a pure function of the seed: two generators
/// built from identical seeds produce bit-identical fields, and the
/// fingerprints are pinned so a silent change to the in-repo PRNG (or
/// to the generators) fails loudly here rather than shifting every
/// randomized test in the suite.
#[test]
fn field_generators_are_seed_deterministic() {
    let d = Region3::of_extent(16, 12, 8);

    // gaussian_pulse takes no RNG, but its output feeds the same
    // fingerprinting path — pin it alongside.
    let ga = gaussian_pulse(d, (0.2, 0.1, 0.0));
    let gb = gaussian_pulse(d, (0.2, 0.1, 0.0));
    assert_eq!(
        hash_f64_slice(ga.x.as_slice()),
        hash_f64_slice(gb.x.as_slice())
    );
    assert_eq!(hash_f64_slice(ga.x.as_slice()), 0x4420_7820_76A4_26FA);

    let mut rng_a = Xoshiro256pp::seed_from_u64(0xD2A7_2026);
    let mut rng_b = Xoshiro256pp::seed_from_u64(0xD2A7_2026);
    let fa = random_fields(&mut rng_a, d, 0.8);
    let fb = random_fields(&mut rng_b, d, 0.8);
    let pins: [(u64, &str); 5] = [
        (0xD86D_A5B5_D342_67A9, "x"),
        (0x0B08_FB3C_DF26_84BF, "u1"),
        (0x2693_AE8C_E202_78D6, "u2"),
        (0x6D59_B406_066E_92C6, "u3"),
        (0x9536_D1BC_CF8E_C717, "h"),
    ];
    let fields_a = [&fa.x, &fa.u1, &fa.u2, &fa.u3, &fa.h];
    let fields_b = [&fb.x, &fb.u1, &fb.u2, &fb.u3, &fb.h];
    for ((a, b), (pin, name)) in fields_a.iter().zip(fields_b).zip(pins) {
        let ha = hash_f64_slice(a.as_slice());
        assert_eq!(
            ha,
            hash_f64_slice(b.as_slice()),
            "field {name} must be a pure function of the seed"
        );
        assert_eq!(ha, pin, "field {name} drifted from its pinned fingerprint");
    }
}

#[test]
fn simulator_is_deterministic() {
    let machine = UvParams::uv2000(4).build();
    let w = Workload {
        domain: Region3::of_extent(128, 64, 16),
        steps: 1,
        cache_bytes: 1 << 20,
    };
    let cfg = SimConfig::default();
    for mk in [
        plan_original(&machine, &w, InitPolicy::SerialFirstTouch),
        plan_original(&machine, &w, InitPolicy::ParallelFirstTouch),
        plan_fused(&machine, &w, InitPolicy::ParallelFirstTouch).unwrap(),
        plan_islands(&machine, &w, Variant::A).unwrap(),
    ] {
        let a = estimate(&machine, &mk, &w, &cfg).unwrap();
        let b = estimate(&machine, &mk, &w, &cfg).unwrap();
        assert_eq!(
            a.total_seconds, b.total_seconds,
            "simulation must be bit-exact"
        );
        assert_eq!(a.report.mem_remote_bytes, b.report.mem_remote_bytes);
        assert_eq!(a.report.barrier_episodes, b.report.barrier_episodes);
    }
}

#[test]
fn planners_are_deterministic() {
    let machine = UvParams::uv2000(3).build();
    let w = Workload {
        domain: Region3::of_extent(96, 48, 8),
        steps: 1,
        cache_bytes: 512 * 1024,
    };
    let a = plan_islands(&machine, &w, Variant::B).unwrap();
    let b = plan_islands(&machine, &w, Variant::B).unwrap();
    assert_eq!(a.op_count(), b.op_count());
    for (sa, sb) in a.streams().iter().zip(&b.streams()) {
        assert_eq!(sa, sb, "trace streams must match op for op");
    }
}

#[test]
fn threaded_executors_are_schedule_independent() {
    // Ten repetitions under the OS scheduler's whims: every run must be
    // bitwise identical (disjoint writes + barriers leave no room for
    // interleaving effects).
    let d = Region3::of_extent(24, 16, 6);
    let fields = rotating_cone(d, 0.3);
    let pool = WorkerPool::new(8);
    let islands =
        IslandsExecutor::new(&pool, TeamSpec::even(8, 4), Axis::I).cache_bytes(128 * 1024);
    let original = OriginalExecutor::new(&pool);
    let first_i = islands.step(&fields).unwrap();
    let first_o = original.step(&fields);
    for run in 0..10 {
        assert_eq!(
            islands.step(&fields).unwrap().max_abs_diff(&first_i),
            0.0,
            "islands run {run} diverged"
        );
        assert_eq!(
            original.step(&fields).max_abs_diff(&first_o),
            0.0,
            "original run {run} diverged"
        );
    }
}
