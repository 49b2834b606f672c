//! "Same trace, same statistics": the op streams every planner emits
//! and the `SimReport` the engine derives from them are pinned bit for
//! bit. The constants were computed on the commit *before* the
//! per-epoch emitter replaced `push_block_load`/`push_block_stage` and
//! the engine stopped round-tripping its heap per op, so a mismatch
//! means a planner or the engine changed what is simulated, not only
//! how fast. On a deliberate model change, re-pin from the table the
//! failing assertion prints.

#[allow(dead_code)]
#[path = "../../numa-sim/tests/support/fingerprint.rs"]
mod fingerprint;

use fingerprint::{report_fingerprint, trace_fingerprint};
use islands_core::{
    plan_fused, plan_islands, plan_islands_exchange, plan_islands_with_layout, plan_original,
    InitPolicy, IslandLayout, Variant, Workload,
};
use numa_sim::{simulate, Machine, SimConfig, TraceSet, UvParams};
use stencil_engine::Region3;

/// One pinned plan: label, trace fingerprint, report fingerprint.
type Pin = (&'static str, u64, u64);

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

fn pin_of(label: &'static str, machine: &Machine, traces: &TraceSet) -> Pin {
    let report = simulate(machine, traces, &SimConfig::default()).unwrap();
    (
        label,
        trace_fingerprint(traces),
        report_fingerprint(&report),
    )
}

fn assert_pins(what: &str, actual: &[Pin], pinned: &[Pin]) {
    let table: String = actual
        .iter()
        .map(|(label, t, r)| format!("    ({label:?}, {t:#018x}, {r:#018x}),\n"))
        .collect();
    assert!(
        actual == pinned,
        "{what}: fingerprints moved; the table now reads\n{table}"
    );
}

/// A grid small enough for debug builds whose J extent (20) does not
/// divide by the 8 ranks of a socket, so rank slices are uneven and some
/// deep-stage slices are empty.
fn small_workload() -> Workload {
    Workload {
        domain: Region3::of_extent(48, 20, 6),
        steps: 3,
        cache_bytes: 96 * 1024,
    }
}

fn small_pins(sockets: usize) -> Vec<Pin> {
    let machine = UvParams::uv2000(sockets).build();
    let w = small_workload();
    PLANNERS
        .iter()
        .map(|&(label, plan)| pin_of(label, &machine, &plan(&machine, &w)))
        .collect()
}

#[test]
fn small_workload_p1() {
    assert_pins("P = 1", &small_pins(1), SMALL_P1);
}

#[test]
fn small_workload_p2() {
    assert_pins("P = 2", &small_pins(2), SMALL_P2);
}

#[test]
fn small_workload_p3() {
    assert_pins("P = 3", &small_pins(3), SMALL_P3);
}

#[test]
fn small_workload_p7() {
    assert_pins("P = 7", &small_pins(7), SMALL_P7);
}

#[test]
fn small_workload_p14() {
    assert_pins("P = 14", &small_pins(14), SMALL_P14);
}

/// The three Table 3 strategies on the paper's grid at P = 14 — the
/// 1 055 103 ops the benchmark's `sim_table3` plans and simulates.
#[test]
fn paper_workload_p14() {
    let machine = UvParams::uv2000(14).build();
    let w = Workload::paper();
    let plans = [
        plan_original(&machine, &w, InitPolicy::ParallelFirstTouch),
        plan_fused(&machine, &w, InitPolicy::ParallelFirstTouch).unwrap(),
        plan_islands(&machine, &w, Variant::A).unwrap(),
    ];
    assert_eq!(
        plans.iter().map(TraceSet::op_count).sum::<usize>(),
        1_055_103
    );
    let actual: Vec<Pin> = ["original", "fused", "islands"]
        .into_iter()
        .zip(&plans)
        .map(|(label, traces)| pin_of(label, &machine, traces))
        .collect();
    assert_pins("paper grid, P = 14", &actual, PAPER_P14);
}

const SMALL_P1: &[Pin] = &[
    ("original/serial", 0x6df77075066b7676, 0xfd10a1a73ca798d6),
    ("original/parallel", 0x6df77075066b7676, 0xfd10a1a73ca798d6),
    (
        "original/interleaved",
        0x4979e8ff104193fb,
        0x0670deb37b495d64,
    ),
    ("fused/parallel", 0x3912abba0bf5e486, 0x908f90df36bee826),
    ("fused/serial", 0x3912abba0bf5e486, 0x908f90df36bee826),
    ("islands/A", 0xceac745354190ac3, 0x7c6285db76434213),
    ("islands/B", 0xceac745354190ac3, 0x7c6285db76434213),
    (
        "islands/sub-socket-A",
        0xa89ba75de6d934f7,
        0x27287ea4e0b62575,
    ),
    (
        "islands/sub-socket-B",
        0xb1b6661684bb15ae,
        0xd94b57cc8e45d1ad,
    ),
    ("exchange/A", 0x3912abba0bf5e486, 0x908f90df36bee826),
    ("exchange/B", 0x3912abba0bf5e486, 0x908f90df36bee826),
];
const SMALL_P2: &[Pin] = &[
    ("original/serial", 0xd649ba976b474d98, 0x3bc6cc30b20560e9),
    ("original/parallel", 0xaebfea34c3df1e14, 0xd650415b7d054d62),
    (
        "original/interleaved",
        0x35cfedb9fa3e0d1f,
        0xbfeea6a95ad44b88,
    ),
    ("fused/parallel", 0xc24a1611833d25bc, 0x506a20a765355ea6),
    ("fused/serial", 0x08440430c69b2ab4, 0x5b09680e04bd580a),
    ("islands/A", 0xaf0015be91f3b71b, 0xb86a804ec37e28d7),
    ("islands/B", 0x18b1bc16db3f07f0, 0xcb0cb3f2698b9c64),
    (
        "islands/sub-socket-A",
        0x463c11b292d1f136,
        0x9996eeac7f33edf4,
    ),
    (
        "islands/sub-socket-B",
        0x89abaaa5f89b9d0a,
        0xd0a9f432746759d0,
    ),
    ("exchange/A", 0x21b2042de729eed0, 0x04e01f55f060ceea),
    ("exchange/B", 0x258183336d73c820, 0x8419bb558df767b2),
];
const SMALL_P3: &[Pin] = &[
    ("original/serial", 0x79e973a67288ad1d, 0x08dd02dd9cf0f89d),
    ("original/parallel", 0x7c938958b77acbfc, 0x122baa909965f963),
    (
        "original/interleaved",
        0x2b0521703eb8e3fc,
        0xc4cc18992f636fd1,
    ),
    ("fused/parallel", 0x7c90cfc100e1d6b7, 0xdae73878fead6f94),
    ("fused/serial", 0xd14fd030a9e81a71, 0xed502df381b1a151),
    ("islands/A", 0x667b44d90c9c482f, 0x03b60d6c7f8f57f9),
    ("islands/B", 0xce0f0b6273d81e27, 0x93167b95ee7d93a8),
    (
        "islands/sub-socket-A",
        0x3502a05d0284d523,
        0xb176c112187cfcd6,
    ),
    (
        "islands/sub-socket-B",
        0xdb5dacf75da44e2f,
        0x08576de904b1707b,
    ),
    ("exchange/A", 0x37f525d2b21d5ab4, 0x83d40e6c6baa1e31),
    ("exchange/B", 0xbcdf583d4be30c95, 0xc126d7f96f8dd413),
];
const SMALL_P7: &[Pin] = &[
    ("original/serial", 0xccb2a5cc5e84c259, 0x5239d50a9361bb3d),
    ("original/parallel", 0xd14d2afb3a5d5855, 0xe562d69bab63de67),
    (
        "original/interleaved",
        0xaf4e7ab70a4c5dc5,
        0x2110e118065152d9,
    ),
    ("fused/parallel", 0xf4940413d91770a7, 0x2a094ffca9b65d5e),
    ("fused/serial", 0x4285328d0e00ec9a, 0x86c57f2efa84d373),
    ("islands/A", 0xc072be9239e81dc6, 0x62ff0fc659959b0a),
    ("islands/B", 0x570d372b6af9482e, 0x29bb29427bb538ef),
    (
        "islands/sub-socket-A",
        0x7a0c4dd8f040ee27,
        0xfa5fedbf8411a483,
    ),
    (
        "islands/sub-socket-B",
        0xafff6c2a24ec5b1d,
        0xd976fef4d53408ef,
    ),
    ("exchange/A", 0x68dce08c05700bc5, 0x360123104e86f5aa),
    ("exchange/B", 0xc3e02027ebd73f64, 0xb1c933090760ceee),
];
const SMALL_P14: &[Pin] = &[
    ("original/serial", 0x047864cd6f42630d, 0xa32d5c5d0d9cede2),
    ("original/parallel", 0x3c3202ce52452492, 0x857dda2ae628d429),
    (
        "original/interleaved",
        0x6bcdbfdbe8d91a8b,
        0x23de8a79b577d730,
    ),
    ("fused/parallel", 0xe25b9a8f1edf7d32, 0x0fe53a01da653d77),
    ("fused/serial", 0xf20795381fd65f1f, 0xbc5e5f8932b82533),
    ("islands/A", 0xd4432c8a6b0bab8d, 0x9014c8b56df94288),
    ("islands/B", 0x2f3e423d17d604d3, 0x8bf14f595ae31e2e),
    (
        "islands/sub-socket-A",
        0xaa064a6f118e9708,
        0x1749406cf4b71547,
    ),
    (
        "islands/sub-socket-B",
        0x471923a5102d6983,
        0x63e08fae88e93ba2,
    ),
    ("exchange/A", 0x7aae342c1d4b2d45, 0x02118858b5671f49),
    ("exchange/B", 0x718b84d06cd9d3de, 0x7ebddffee4db1d4c),
];
const PAPER_P14: &[Pin] = &[
    ("original", 0x01a78258ba2c5119, 0x2916b60aacd87666),
    ("fused", 0x0ef70a25d7605dae, 0xadfb8d6c0a5f0f51),
    ("islands", 0xec329134c13a9005, 0x6d197fc980e0d817),
];
