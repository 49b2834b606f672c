//! Traces are programs: the block planners hand `numa-sim` team programs
//! that the engine expands one (3+1)D block at a time. Whatever the
//! planner, a program trace must simulate bit for bit like a pushed
//! replay of its materialised streams, count its ops exactly, and give
//! the same report however often — and from whichever clone — it is
//! simulated. Every planner configuration of
//! `crates/core/tests/plan_fingerprints.rs`, on its small grid.

#[allow(dead_code)]
#[path = "../crates/numa-sim/tests/support/fingerprint.rs"]
mod fingerprint;

use fingerprint::{report_fingerprint, trace_fingerprint};
use islands_of_cores::islands::{
    plan_fused, plan_islands, plan_islands_exchange, plan_islands_with_layout, plan_original,
    InitPolicy, IslandLayout, Variant, Workload,
};
use islands_of_cores::numa::{simulate, CoreId, Machine, SimConfig, TraceSet, UvParams};
use islands_of_cores::stencil::Region3;

type Planner = fn(&Machine, &Workload) -> TraceSet;

/// Every planner entry point on its distinct placements and variants.
const PLANNERS: [(&str, Planner); 11] = [
    ("original/serial", |m, w| {
        plan_original(m, w, InitPolicy::SerialFirstTouch)
    }),
    ("original/parallel", |m, w| {
        plan_original(m, w, InitPolicy::ParallelFirstTouch)
    }),
    ("original/interleaved", |m, w| {
        plan_original(m, w, InitPolicy::Interleaved)
    }),
    ("fused/parallel", |m, w| {
        plan_fused(m, w, InitPolicy::ParallelFirstTouch).unwrap()
    }),
    ("fused/serial", |m, w| {
        plan_fused(m, w, InitPolicy::SerialFirstTouch).unwrap()
    }),
    ("islands/A", |m, w| plan_islands(m, w, Variant::A).unwrap()),
    ("islands/B", |m, w| plan_islands(m, w, Variant::B).unwrap()),
    ("islands/sub-socket-A", |m, w| {
        plan_islands_with_layout(m, w, Variant::A, &IslandLayout::sub_socket(m, 4)).unwrap()
    }),
    ("islands/sub-socket-B", |m, w| {
        plan_islands_with_layout(m, w, Variant::B, &IslandLayout::sub_socket(m, 2)).unwrap()
    }),
    ("exchange/A", |m, w| {
        plan_islands_exchange(m, w, Variant::A).unwrap()
    }),
    ("exchange/B", |m, w| {
        plan_islands_exchange(m, w, Variant::B).unwrap()
    }),
];

/// The small grid of `plan_fingerprints.rs`: uneven rank slices, some
/// empty deep-stage slices.
fn small_workload() -> Workload {
    Workload {
        domain: Region3::of_extent(48, 20, 6),
        steps: 3,
        cache_bytes: 96 * 1024,
    }
}

/// The same streams and barrier table, every op pushed.
fn pushed_replay(traces: &TraceSet) -> TraceSet {
    let streams = traces.streams();
    let mut replay = TraceSet::for_cores(streams.len());
    for spec in &traces.barriers {
        replay.add_barrier(spec.participants.clone());
    }
    for (c, stream) in streams.into_iter().enumerate() {
        for op in stream {
            replay.push(CoreId(c), op);
        }
    }
    replay
}

fn check_every_planner(sockets: usize) {
    let machine = UvParams::uv2000(sockets).build();
    let w = small_workload();
    let run = |traces: &TraceSet| {
        report_fingerprint(&simulate(&machine, traces, &SimConfig::default()).unwrap())
    };
    for (label, plan) in PLANNERS {
        let traces = plan(&machine, &w);
        let replay = pushed_replay(&traces);
        let at = format!("{label} at P = {sockets}");
        assert_eq!(
            traces.op_count(),
            traces.streams().iter().map(Vec::len).sum::<usize>(),
            "{at}: op_count"
        );
        assert_eq!(traces.op_count(), replay.op_count(), "{at}: op_count");
        assert_eq!(
            trace_fingerprint(&traces),
            trace_fingerprint(&replay),
            "{at}: streams"
        );
        let report = run(&traces);
        assert_eq!(report, run(&replay), "{at}: program vs pushed replay");
        assert_eq!(report, run(&traces), "{at}: simulated twice");
        assert_eq!(report, run(&traces.clone()), "{at}: simulated clone");
    }
}

#[test]
fn program_traces_run_like_pushed_replays_p1() {
    check_every_planner(1);
}

#[test]
fn program_traces_run_like_pushed_replays_p3() {
    check_every_planner(3);
}

#[test]
fn program_traces_run_like_pushed_replays_p14() {
    check_every_planner(14);
}
