//! Zero-allocation steady state: after the first step has built the
//! execution plan, every further step of [`IslandsExecutor::run`] —
//! and of the [`OriginalExecutor`] / [`ExchangeExecutor`] baselines,
//! which replay the same kind of plan — must replay it without
//! touching the heap.
//!
//! The pin works by installing a counting [`GlobalAlloc`] wrapper for
//! this test binary and comparing the allocation counts of a warmed
//! `run(1)` against a warmed `run(STEPS)`: both perform exactly one
//! pool dispatch, so any difference is per-step allocation. The strict
//! comparison only runs in release builds — debug builds intentionally
//! allocate access-tracker claim labels on every stage apply.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use mpdata::{gaussian_pulse, ExchangeExecutor, IslandsExecutor, OriginalExecutor, TileMode};
use stencil_engine::{Axis, Region3};
use work_scheduler::{TeamSpec, WorkerPool};

/// Counts every allocating entry point; `dealloc` is free so the count
/// is monotone and race-free to sample.
struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> usize {
    ALLOCS.load(Ordering::SeqCst)
}

// Single test function: the libtest harness runs `#[test]`s on
// concurrent threads, so splitting the phases across tests would let
// their allocations pollute each other's counts.
#[test]
fn steady_state_steps_do_not_allocate() {
    // Seeded regression first: the counter must observe deliberate
    // allocations, or the zero pin below would pass vacuously.
    let before = allocs();
    for _ in 0..50 {
        std::hint::black_box(vec![0u8; 64]);
    }
    assert!(
        allocs() - before >= 50,
        "counting allocator missed seeded per-iteration allocations"
    );

    let mut pool = WorkerPool::new(4);
    let domain = Region3::of_extent(24, 12, 8);
    let exec = IslandsExecutor::new(&pool, TeamSpec::even(4, 2), Axis::I).cache_bytes(64 * 1024);
    let mut fields = gaussian_pulse(domain, (0.2, 0.1, 0.0));

    // Cold call: building the plan (blocking, scratch stores, ping-pong
    // buffers) must hit the heap.
    let before = allocs();
    exec.run(&mut fields, 1).unwrap();
    let cold = allocs() - before;
    assert!(cold > 0, "cold run should build its plan on the heap");
    // The untiled sections below replay through sliding-window scratch,
    // not hull-sized arrays: the pin covers the windows' slot lookup.
    let windows = exec.schedule_for(domain).unwrap().scratch_windows();
    assert!(
        windows.iter().any(|w| w.planes < w.hull.i.len()),
        "no scratch buffer is windowed: {windows:?}"
    );

    // One more warm-up so lazily initialized runtime paths (channel
    // blocks, thread locals) are settled before measuring.
    exec.run(&mut fields, 2).unwrap();

    let before = allocs();
    exec.run(&mut fields, 1).unwrap();
    let one = allocs() - before;

    const STEPS: usize = 51;
    let before = allocs();
    exec.run(&mut fields, STEPS).unwrap();
    let many = allocs() - before;

    // Both calls perform exactly one pool dispatch, so the extra
    // `STEPS - 1` steps of the second call must add nothing. A slack of
    // 4 absorbs channel block recycling in the dispatch itself; any
    // per-step allocation would add at least `STEPS - 1` ≫ 4.
    #[cfg(not(debug_assertions))]
    assert!(
        many <= one + 4,
        "steps 2..{STEPS} of a warmed run allocated: run({STEPS}) made {many} \
         allocations vs {one} for run(1)"
    );
    #[cfg(debug_assertions)]
    let _ = (one, many); // debug builds allocate claim labels per stage

    // Same pin for the self-scheduled replay: the chunk queues are
    // preallocated in the plan and the per-step reset is one relaxed
    // store per epoch, so dynamic claiming must add no allocations
    // either.
    let dyn_exec = IslandsExecutor::new(&pool, TeamSpec::even(4, 2), Axis::I)
        .cache_bytes(64 * 1024)
        .self_schedule(2);
    let before = allocs();
    dyn_exec.run(&mut fields, 1).unwrap();
    let dyn_cold = allocs() - before;
    assert!(dyn_cold > 0, "cold dynamic run should build its plan");
    dyn_exec.run(&mut fields, 2).unwrap();

    let before = allocs();
    dyn_exec.run(&mut fields, 1).unwrap();
    let dyn_one = allocs() - before;

    let before = allocs();
    dyn_exec.run(&mut fields, STEPS).unwrap();
    let dyn_many = allocs() - before;

    #[cfg(not(debug_assertions))]
    assert!(
        dyn_many <= dyn_one + 4,
        "self-scheduled steps 2..{STEPS} allocated: run({STEPS}) made {dyn_many} \
         allocations vs {dyn_one} for run(1)"
    );
    #[cfg(debug_assertions)]
    let _ = (dyn_one, dyn_many);

    // Same pin with temporal blocking: the k=3 fused replay swaps
    // through the plan's preallocated x-slot ping-pong buffers and
    // re-zeros per-step gap lists in place, so fused epochs must add no
    // per-step (or per-epoch) allocations either. STEPS = 51 is a
    // multiple of 3, so the long run is pure full epochs.
    let fused_exec = IslandsExecutor::new(&pool, TeamSpec::even(4, 2), Axis::I)
        .cache_bytes(64 * 1024)
        .fuse_steps(3);
    let before = allocs();
    fused_exec.run(&mut fields, 1).unwrap();
    let fused_cold = allocs() - before;
    assert!(fused_cold > 0, "cold fused run should build its plan");
    fused_exec.run(&mut fields, 2).unwrap();

    let before = allocs();
    fused_exec.run(&mut fields, 1).unwrap();
    let fused_one = allocs() - before;

    let before = allocs();
    fused_exec.run(&mut fields, STEPS).unwrap();
    let fused_many = allocs() - before;

    #[cfg(not(debug_assertions))]
    assert!(
        fused_many <= fused_one + 4,
        "fused (k=3) steps 2..{STEPS} allocated: run({STEPS}) made {fused_many} \
         allocations vs {fused_one} for run(1)"
    );
    #[cfg(debug_assertions)]
    let _ = (fused_one, fused_many);

    // Same pin for the tile-fused replay: the per-tile chain tables,
    // the rank-private scratch stores, and (for k>1) the x-slot
    // ping-pong buffers are all built into the plan, and the per-tile
    // rebase just re-aims the existing allocations — so replaying every
    // tile's whole chain must add no per-step allocations either.
    let tiled_exec = IslandsExecutor::new(&pool, TeamSpec::even(4, 2), Axis::I)
        .cache_bytes(64 * 1024)
        .tile(TileMode::Fixed { ti: 5, tj: 4 })
        .fuse_steps(3);
    let before = allocs();
    tiled_exec.run(&mut fields, 1).unwrap();
    let tiled_cold = allocs() - before;
    assert!(tiled_cold > 0, "cold tiled run should build its plan");
    tiled_exec.run(&mut fields, 2).unwrap();

    let before = allocs();
    tiled_exec.run(&mut fields, 1).unwrap();
    let tiled_one = allocs() - before;

    let before = allocs();
    tiled_exec.run(&mut fields, STEPS).unwrap();
    let tiled_many = allocs() - before;

    #[cfg(not(debug_assertions))]
    assert!(
        tiled_many <= tiled_one + 4,
        "tiled (5x4, k=3) steps 2..{STEPS} allocated: run({STEPS}) made {tiled_many} \
         allocations vs {tiled_one} for run(1)"
    );
    #[cfg(debug_assertions)]
    let _ = (tiled_one, tiled_many);

    // Same pin for the paper's Original: the stage-synchronous plan
    // holds every full-domain intermediate, so its per-stage global
    // barriers replace what used to be a fresh allocation of every
    // stage output on every step.
    let original = OriginalExecutor::new(&pool);
    let before = allocs();
    original.run(&mut fields, 1);
    let original_cold = allocs() - before;
    assert!(original_cold > 0, "cold original run should build its plan");
    original.run(&mut fields, 2);

    let before = allocs();
    original.run(&mut fields, 1);
    let original_one = allocs() - before;

    let before = allocs();
    original.run(&mut fields, STEPS);
    let original_many = allocs() - before;

    #[cfg(not(debug_assertions))]
    assert!(
        original_many <= original_one + 4,
        "original steps 2..{STEPS} allocated: run({STEPS}) made {original_many} \
         allocations vs {original_one} for run(1)"
    );
    #[cfg(debug_assertions)]
    let _ = (original_one, original_many);

    // Same pin for Exchange (scenario 1): halos are read in place from
    // the shared intermediates, so no copy buffer exists to allocate.
    let exchange = ExchangeExecutor::new(&pool, TeamSpec::even(4, 2), Axis::I);
    let before = allocs();
    exchange.run(&mut fields, 1);
    let exchange_cold = allocs() - before;
    assert!(exchange_cold > 0, "cold exchange run should build its plan");
    exchange.run(&mut fields, 2);

    let before = allocs();
    exchange.run(&mut fields, 1);
    let exchange_one = allocs() - before;

    let before = allocs();
    exchange.run(&mut fields, STEPS);
    let exchange_many = allocs() - before;

    #[cfg(not(debug_assertions))]
    assert!(
        exchange_many <= exchange_one + 4,
        "exchange steps 2..{STEPS} allocated: run({STEPS}) made {exchange_many} \
         allocations vs {exchange_one} for run(1)"
    );
    #[cfg(debug_assertions)]
    let _ = (exchange_one, exchange_many);

    // Same pin with the live telemetry plane running: a trace session
    // open AND the background collector attached. Ring slots are
    // preallocated at registration, spans fold into the registry's
    // fixed counters/histograms, and the collector's ring/cursor
    // mirrors grow only when a new worker ring registers — which the
    // warm-up (plus a short settle so a few collector passes observe
    // the rings) forces to happen before the measured window.
    islands_trace::set_ring_capacity(1 << 16);
    let registry = std::sync::Arc::new(islands_trace::registry::MetricsRegistry::new(2));
    pool.attach_telemetry(
        std::sync::Arc::clone(&registry),
        std::time::Duration::from_millis(1),
    );
    let session = islands_trace::Session::start();
    let live_exec =
        IslandsExecutor::new(&pool, TeamSpec::even(4, 2), Axis::I).cache_bytes(64 * 1024);
    let before = allocs();
    live_exec.run(&mut fields, 1).unwrap();
    let live_cold = allocs() - before;
    assert!(live_cold > 0, "cold traced run should build its plan");
    live_exec.run(&mut fields, 2).unwrap();
    std::thread::sleep(std::time::Duration::from_millis(25));

    let before = allocs();
    live_exec.run(&mut fields, 1).unwrap();
    let live_one = allocs() - before;

    let before = allocs();
    live_exec.run(&mut fields, STEPS).unwrap();
    let live_many = allocs() - before;

    pool.detach_telemetry();
    let snap = registry.snapshot();
    assert!(snap.events_folded > 0, "collector never folded a live span");
    assert!(
        !session.finish().events.is_empty(),
        "quiescent drain saw no events despite the live collector"
    );

    #[cfg(not(debug_assertions))]
    assert!(
        live_many <= live_one + 4,
        "live-telemetry steps 2..{STEPS} of a warmed run allocated: run({STEPS}) made \
         {live_many} allocations vs {live_one} for run(1) with the collector attached"
    );
    #[cfg(debug_assertions)]
    let _ = (live_one, live_many);
}
