//! Plan-cache invalidation: a cached execution plan must be rebuilt —
//! not reused stale, not panic — whenever any input it was keyed on
//! changes between `step`/`run` calls.

use mpdata::{gaussian_pulse, IslandsExecutor, MpdataProblem, ReferenceExecutor};
use stencil_engine::{Axis, Region3};
use work_scheduler::{TeamSpec, WorkerPool};

/// One reference step for `domain`, pulled fresh each time.
fn reference(domain: Region3, v: (f64, f64, f64)) -> stencil_engine::Array3 {
    ReferenceExecutor::new().step(&gaussian_pulse(domain, v))
}

#[test]
fn domain_change_replans() {
    let pool = WorkerPool::new(4);
    let exec = IslandsExecutor::new(&pool, TeamSpec::even(4, 2), Axis::I).cache_bytes(64 * 1024);
    let v = (0.2, 0.1, 0.0);
    // Three different extents through one executor: each must match the
    // reference for its own domain (a stale plan would index out of
    // bounds or write the wrong regions).
    for domain in [
        Region3::of_extent(20, 10, 4),
        Region3::of_extent(10, 20, 4),
        Region3::of_extent(20, 10, 4), // back to the first shape
    ] {
        let f = gaussian_pulse(domain, v);
        let got = exec.step(&f).unwrap();
        assert_eq!(
            got.max_abs_diff(&reference(domain, v)),
            0.0,
            "stale plan for {domain:?}"
        );
    }
}

#[test]
fn cache_budget_change_replans() {
    let pool = WorkerPool::new(4);
    let domain = Region3::of_extent(24, 10, 4);
    let v = (0.25, 0.0, 0.0);
    let f = gaussian_pulse(domain, v);
    let expect = reference(domain, v);
    let exec = IslandsExecutor::new(&pool, TeamSpec::even(4, 2), Axis::I).cache_bytes(48 * 1024);
    assert_eq!(exec.step(&f).unwrap().max_abs_diff(&expect), 0.0);
    // The builder moves the executor — and its populated cache — with a
    // different budget; the next step must replan (different blocking),
    // still bit-identical.
    let exec = exec.cache_bytes(192 * 1024);
    assert_eq!(exec.step(&f).unwrap().max_abs_diff(&expect), 0.0);
}

#[test]
fn split_axis_change_replans() {
    let pool = WorkerPool::new(4);
    let domain = Region3::of_extent(16, 12, 6);
    let v = (0.1, 0.2, 0.0);
    let f = gaussian_pulse(domain, v);
    let expect = reference(domain, v);
    let exec = IslandsExecutor::new(&pool, TeamSpec::even(4, 2), Axis::I).cache_bytes(64 * 1024);
    assert_eq!(exec.step(&f).unwrap().max_abs_diff(&expect), 0.0);
    let exec = exec.split_axis(Axis::K);
    assert_eq!(exec.step(&f).unwrap().max_abs_diff(&expect), 0.0);
}

#[test]
fn partition_change_replans() {
    let pool = WorkerPool::new(4);
    let domain = Region3::of_extent(16, 16, 4);
    let v = (0.2, 0.2, 0.0);
    let f = gaussian_pulse(domain, v);
    let expect = reference(domain, v);
    let exec = IslandsExecutor::new(&pool, TeamSpec::even(4, 4), Axis::I).cache_bytes(64 * 1024);
    assert_eq!(exec.step(&f).unwrap().max_abs_diff(&expect), 0.0);
    // Swap the 1-D axis split for an explicit 2×2 grid on the same
    // executor: the cached 4-slab plan must not be replayed.
    let mut parts = Vec::new();
    for half_i in domain.split(Axis::I, 2) {
        parts.extend(half_i.split(Axis::J, 2));
    }
    let exec = exec.with_partition(parts);
    assert_eq!(exec.step(&f).unwrap().max_abs_diff(&expect), 0.0);
}

#[test]
fn schedule_policy_change_replans() {
    // Toggling static ↔ self-scheduled on one executor must rebuild
    // the plan (the epoch tables change from one slice per rank to
    // chunked units); both must stay bit-identical to the reference.
    let pool = WorkerPool::new(4);
    let domain = Region3::of_extent(20, 12, 4);
    let v = (0.2, 0.1, 0.0);
    let f = gaussian_pulse(domain, v);
    let expect = reference(domain, v);
    let exec = IslandsExecutor::new(&pool, TeamSpec::even(4, 2), Axis::I).cache_bytes(64 * 1024);
    assert_eq!(exec.step(&f).unwrap().max_abs_diff(&expect), 0.0);
    let exec = exec.self_schedule(4);
    assert_eq!(exec.step(&f).unwrap().max_abs_diff(&expect), 0.0);
    let exec = exec.schedule(mpdata::SchedulePolicy::Static);
    assert_eq!(exec.step(&f).unwrap().max_abs_diff(&expect), 0.0);
}

#[test]
fn fuse_depth_change_replans() {
    // Changing the temporal-blocking depth rekeys the plan: the epoch
    // tables gain per-step sections with enlarged rank slices and
    // x-slot scratch, so replaying a k=1 table at k=3 (or vice versa)
    // would compute garbage. Every depth must stay bit-identical to
    // the reference, including back at k=1 on the same executor.
    let pool = WorkerPool::new(4);
    let domain = Region3::of_extent(20, 12, 4);
    let v = (0.2, 0.1, 0.0);
    let mut expect = gaussian_pulse(domain, v);
    ReferenceExecutor::new().run(&mut expect, 6);
    let mut exec =
        IslandsExecutor::new(&pool, TeamSpec::even(4, 2), Axis::I).cache_bytes(64 * 1024);
    for k in [1_usize, 3, 1] {
        exec = exec.fuse_steps(k);
        let mut f = gaussian_pulse(domain, v);
        exec.run(&mut f, 6).unwrap();
        assert_eq!(
            f.x.max_abs_diff(&expect.x),
            0.0,
            "stale plan at fuse depth {k}"
        );
    }
}

#[test]
fn empty_island_plan_is_not_reused_for_wider_domain() {
    // P > nx: on the narrow domain most islands own no slab (empty
    // parts, no scratch, no epochs). Widening the domain must rebuild
    // the plan so those islands get real work again.
    let pool = WorkerPool::new(8);
    let exec = IslandsExecutor::new(&pool, TeamSpec::even(8, 8), Axis::I).cache_bytes(64 * 1024);
    let v = (0.2, 0.1, 0.0);
    let narrow = Region3::of_extent(5, 6, 4);
    let wide = Region3::of_extent(24, 6, 4);
    for domain in [narrow, wide, narrow] {
        let f = gaussian_pulse(domain, v);
        let got = exec.step(&f).unwrap();
        assert_eq!(
            got.max_abs_diff(&reference(domain, v)),
            0.0,
            "stale plan for {domain:?}"
        );
    }
}

#[test]
fn step_and_run_interleave_on_one_cache() {
    // `step` is a one-step `run` on a copy of the fields; `run`
    // ping-pongs the same plan's cur/out pair. Interleaving them must
    // keep both paths bit-identical to the reference.
    let pool = WorkerPool::new(4);
    let domain = Region3::of_extent(20, 10, 4);
    let exec = IslandsExecutor::new(&pool, TeamSpec::even(4, 2), Axis::I).cache_bytes(48 * 1024);
    let mut f1 = gaussian_pulse(domain, (0.25, 0.0, 0.0));
    let mut f2 = f1.clone();
    let r = ReferenceExecutor::new();

    let one = exec.step(&f1).unwrap();
    assert_eq!(one.max_abs_diff(&r.step(&f1)), 0.0);

    exec.run(&mut f1, 2).unwrap();
    r.run(&mut f2, 2);
    assert_eq!(f1.x.max_abs_diff(&f2.x), 0.0);

    let again = exec.step(&f1).unwrap();
    assert_eq!(again.max_abs_diff(&r.step(&f2)), 0.0);

    exec.run(&mut f1, 3).unwrap();
    r.run(&mut f2, 3);
    assert_eq!(f1.x.max_abs_diff(&f2.x), 0.0);
}

#[test]
fn fused_cache_invalidation_matches_reference() {
    let pool = WorkerPool::new(3);
    let v = (0.15, 0.1, 0.0);
    let exec =
        IslandsExecutor::single_island(&pool, MpdataProblem::standard()).cache_bytes(64 * 1024);
    for domain in [Region3::of_extent(20, 8, 4), Region3::of_extent(8, 20, 4)] {
        let f = gaussian_pulse(domain, v);
        assert_eq!(
            exec.step(&f).unwrap().max_abs_diff(&reference(domain, v)),
            0.0,
            "stale fused plan for {domain:?}"
        );
    }
    let exec = exec.cache_bytes(256 * 1024);
    let domain = Region3::of_extent(20, 8, 4);
    let f = gaussian_pulse(domain, v);
    assert_eq!(
        exec.step(&f).unwrap().max_abs_diff(&reference(domain, v)),
        0.0
    );
    // Multi-step through the fused plan cache.
    let mut f1 = gaussian_pulse(domain, v);
    let mut f2 = f1.clone();
    exec.run(&mut f1, 3).unwrap();
    ReferenceExecutor::new().run(&mut f2, 3);
    assert_eq!(f1.x.max_abs_diff(&f2.x), 0.0);
}
