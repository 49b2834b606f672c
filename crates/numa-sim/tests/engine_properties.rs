//! Property tests for the discrete-event engine: time monotonicity,
//! conservation of bytes, and scaling sanity.
//!
//! Hermetic build: swept over deterministic, seeded random cases
//! (std-only) instead of the external `proptest` crate; `--features
//! proptest` widens the sweep roughly tenfold.

use numa_sim::{simulate, CoreId, NodeId, Op, SimConfig, TraceSet, UvParams};
use stencil_engine::rng::{Rng64, Xoshiro256pp};

fn cfg() -> SimConfig {
    SimConfig {
        quantum_bytes: 64.0 * 1024.0,
        ..SimConfig::default()
    }
}

fn cases(quick: usize) -> usize {
    if cfg!(feature = "proptest") {
        quick * 10
    } else {
        quick
    }
}

fn any_op(rng: &mut Xoshiro256pp, nodes: usize) -> Op {
    match rng.below(5) {
        0 => Op::Compute {
            flops: rng.range_f64(1e3, 1e9),
        },
        1 => Op::MemRead {
            node: NodeId(rng.below(nodes)),
            bytes: rng.range_f64(1e3, 1e7),
        },
        2 => Op::MemWrite {
            node: NodeId(rng.below(nodes)),
            bytes: rng.range_f64(1e3, 1e7),
        },
        3 => Op::CacheRead {
            node: NodeId(rng.below(nodes)),
            bytes: rng.range_f64(1e3, 1e6),
        },
        _ => Op::Stream {
            node: NodeId(rng.below(nodes)),
            bytes: rng.range_f64(1e3, 1e7),
            flops: rng.range_f64(1e3, 1e8),
            write: rng.next_bool(),
        },
    }
}

/// Makespan is at least every core's busy time and bytes are
/// conserved between the trace and the report.
#[test]
fn makespan_bounds_and_byte_conservation() {
    let machine = UvParams::uv2000(4).build();
    let mut rng = Xoshiro256pp::seed_from_u64(0x51D0_0001);
    for case in 0..cases(64) {
        let streams = 1 + rng.below(15);
        let mut traces = TraceSet::for_cores(machine.core_count());
        let mut total_bytes = 0.0;
        for c in 0..streams {
            let ops = rng.below(12);
            for _ in 0..ops {
                let op = any_op(&mut rng, 4);
                traces.push(CoreId(c), op);
                match op {
                    Op::MemRead { bytes, .. }
                    | Op::MemWrite { bytes, .. }
                    | Op::CacheRead { bytes, .. }
                    | Op::Stream { bytes, .. } => total_bytes += bytes,
                    Op::Compute { .. } | Op::Barrier { .. } => {}
                }
            }
        }
        let r = simulate(&machine, &traces, &cfg()).unwrap();
        assert!(r.makespan.is_finite(), "case {case}");
        assert!(r.makespan >= 0.0, "case {case}");
        for c in 0..machine.core_count() {
            let busy = r.core_compute[c] + r.core_transfer[c];
            assert!(
                busy <= r.makespan + 1e-9,
                "case {case}: core {c} busy {busy} > makespan {}",
                r.makespan
            );
        }
        let moved =
            r.mem_local_bytes + r.mem_remote_bytes + r.cache_local_bytes + r.cache_remote_bytes;
        assert!(
            (moved - total_bytes).abs() < 1.0,
            "case {case}: moved {moved} vs trace {total_bytes}"
        );
    }
}

/// Adding work to a core never reduces the makespan.
#[test]
fn monotone_in_work() {
    let machine = UvParams::uv2000(2).build();
    let mut rng = Xoshiro256pp::seed_from_u64(0x51D0_0002);
    for case in 0..cases(64) {
        let n = 1 + rng.below(7);
        let mut t1 = TraceSet::for_cores(machine.core_count());
        for _ in 0..n {
            t1.push(CoreId(0), any_op(&mut rng, 2));
        }
        let extra = any_op(&mut rng, 2);
        let mut t2 = t1.clone();
        t2.push(CoreId(0), extra);
        let r1 = simulate(&machine, &t1, &cfg()).unwrap();
        let r2 = simulate(&machine, &t2, &cfg()).unwrap();
        assert!(
            r2.makespan >= r1.makespan - 1e-12,
            "case {case}: {extra:?} shrank the makespan {} → {}",
            r1.makespan,
            r2.makespan
        );
    }
}

/// Splitting a read across two cores on the same socket never beats
/// the DRAM bandwidth limit.
#[test]
fn controller_bandwidth_is_respected() {
    let machine = UvParams::uv2000(1).build();
    let dram_bw = machine.nodes()[0].dram_bandwidth;
    let mut rng = Xoshiro256pp::seed_from_u64(0x51D0_0003);
    for case in 0..cases(32) {
        let bytes = rng.range_f64(1e8, 1e9);
        let mut t = TraceSet::for_cores(machine.core_count());
        for c in 0..8 {
            t.push(
                CoreId(c),
                Op::MemRead {
                    node: NodeId(0),
                    bytes,
                },
            );
        }
        let r = simulate(&machine, &t, &cfg()).unwrap();
        let lower_bound = 8.0 * bytes / dram_bw;
        assert!(
            r.makespan >= lower_bound * 0.99,
            "case {case}: makespan {} below controller bound {lower_bound}",
            r.makespan
        );
    }
}

/// Barrier cost grows with the interconnect span of the participants.
#[test]
fn barrier_cost_grows_with_spread() {
    let machine = UvParams::uv2000(8).build();
    let c = cfg();
    let time_for = |cores: Vec<CoreId>| {
        let mut t = TraceSet::for_cores(machine.core_count());
        let b = t.add_barrier(cores.clone());
        for core in cores {
            t.push(core, Op::Barrier { id: b });
        }
        simulate(&machine, &t, &c).unwrap().makespan
    };
    let same_socket = time_for(vec![CoreId(0), CoreId(7)]);
    let same_blade = time_for(vec![CoreId(0), CoreId(8)]);
    let cross_blade = time_for(vec![CoreId(0), CoreId(63)]);
    assert!(same_socket < same_blade);
    assert!(same_blade < cross_blade);
}

/// Barrier-coupled cores finish at the same simulated time.
#[test]
fn barrier_equalizes_finish_times() {
    let machine = UvParams::uv2000(2).build();
    let mut t = TraceSet::for_cores(machine.core_count());
    let participants: Vec<CoreId> = (0..16).map(CoreId).collect();
    let b = t.add_barrier(participants.clone());
    for (n, &c) in participants.iter().enumerate() {
        t.push(
            c,
            Op::Compute {
                flops: 1e6 * (n as f64 + 1.0),
            },
        );
        t.push(c, Op::Barrier { id: b });
    }
    let r = simulate(&machine, &t, &cfg()).unwrap();
    // Everyone ends at the barrier release; makespan equals slowest
    // compute plus the barrier cost, and every core's wait is
    // complementary to its compute time.
    let slowest = 16.0 * 1e6 / machine.nodes()[0].core.sustained_flops();
    assert!(r.makespan >= slowest);
    for (n, &c) in participants.iter().enumerate() {
        let compute = r.core_compute[c.index()];
        let wait = r.core_barrier_wait[c.index()];
        assert!(
            (compute + wait - r.makespan).abs() < 1e-9,
            "core {n}: compute {compute} + wait {wait} != makespan {}",
            r.makespan
        );
    }
}

#[allow(dead_code)]
#[path = "support/fingerprint.rs"]
mod fingerprint;

/// A random op for the pinned sweep: like [`any_op`], plus the
/// degenerate amounts (zero bytes, zero flops) and a coarse size grid so
/// that distinct cores draw *identical* ops and tie on time.
fn tie_prone_op(rng: &mut Xoshiro256pp, nodes: usize) -> Op {
    let node = NodeId(rng.below(nodes));
    let bytes = [0.0, 4096.0, 65536.0, 3e5][rng.below(4)];
    let flops = [0.0, 1e4, 1e6][rng.below(3)];
    match rng.below(5) {
        0 => Op::Compute { flops },
        1 => Op::MemRead { node, bytes },
        2 => Op::MemWrite { node, bytes },
        3 => Op::CacheRead { node, bytes },
        _ => Op::Stream {
            node,
            bytes,
            flops,
            write: rng.next_bool(),
        },
    }
}

/// A deadlock-free random trace: barriers over arbitrary, overlapping
/// core subsets (one per socket team, one global, a few random ones down
/// to a single participant) are hit in one global phase order, between
/// phases of random or deliberately identical work. The last socket's
/// upper half stays outside every barrier.
fn barrier_trace(rng: &mut Xoshiro256pp, sockets: usize) -> TraceSet {
    let cores = 8 * sockets;
    let synced = cores - 4;
    let mut t = TraceSet::for_cores(cores);
    let mut barriers = vec![t.add_barrier((0..synced).map(CoreId).collect())];
    for s in 0..sockets {
        let team = (8 * s..(8 * s + 8).min(synced)).map(CoreId).collect();
        barriers.push(t.add_barrier(team));
    }
    for _ in 0..3 {
        // Participants in shuffled order: the engine must not rely on
        // the table being sorted.
        let mut subset: Vec<CoreId> = (0..synced)
            .filter(|_| rng.below(3) == 0)
            .map(CoreId)
            .collect();
        if subset.is_empty() {
            subset.push(CoreId(rng.below(synced)));
        }
        for n in (1..subset.len()).rev() {
            subset.swap(n, rng.below(n + 1));
        }
        barriers.push(t.add_barrier(subset));
    }
    for _ in 0..(4 + rng.below(12)) {
        match rng.below(4) {
            // Everybody draws their own ops.
            0 => {
                for c in 0..cores {
                    for _ in 0..rng.below(3) {
                        t.push(CoreId(c), tie_prone_op(rng, sockets));
                    }
                }
            }
            // A run of cores executes the same op: equal-time ties.
            1 => {
                let op = tie_prone_op(rng, sockets);
                let lo = rng.below(cores);
                for c in lo..(lo + 1 + rng.below(10)).min(cores) {
                    t.push(CoreId(c), op);
                }
            }
            // One or two barriers back to back: the second fires while
            // the first one's released cores are still being resumed.
            _ => {
                for _ in 0..(1 + rng.below(2)) {
                    let id = barriers[rng.below(barriers.len())];
                    for p in t.barriers[id.index()].participants.clone() {
                        t.push(p, Op::Barrier { id });
                    }
                }
            }
        }
    }
    t
}

/// The engine's statistics on random barrier-heavy traces are pinned
/// bit for bit (constants from the commit before the release-batch /
/// commuting-op engine): the global event order `(time, core)` is part
/// of the simulator's contract, not an implementation detail. Zero-cost
/// barriers make released cores tie with the core that released them —
/// the one case where an arrival may *not* be run ahead of its turn.
#[test]
fn statistics_of_random_barrier_traces_are_pinned() {
    let configs = [
        ("default quantum", cfg()),
        (
            "zero-cost barriers",
            SimConfig {
                barrier_base: 0.0,
                barrier_per_hop: 0.0,
                ..cfg()
            },
        ),
        (
            "4 KiB quantum, free remote caches",
            SimConfig {
                quantum_bytes: 4096.0,
                remote_cache_latency: 0.0,
                ..SimConfig::default()
            },
        ),
    ];
    let actual: Vec<(&str, u64)> = configs
        .iter()
        .map(|(label, config)| {
            let mut rng = Xoshiro256pp::seed_from_u64(0x51D0_0017);
            let mut h = fingerprint::hasher();
            for case in 0..96 {
                let sockets = [1, 2, 4, 7][case % 4];
                let machine = UvParams::uv2000(sockets).build();
                let traces = barrier_trace(&mut rng, sockets);
                let report = simulate(&machine, &traces, config)
                    .unwrap_or_else(|e| panic!("{label}, case {case}: {e}"));
                assert!(report.makespan.is_finite(), "{label}, case {case}");
                h.absorb(fingerprint::trace_fingerprint(&traces))
                    .absorb(fingerprint::report_fingerprint(&report));
            }
            (*label, h.next_u64())
        })
        .collect();
    let pinned: [(&str, u64); 3] = [
        ("default quantum", 0x250e_6cbf_54c9_f4ff),
        ("zero-cost barriers", 0x7a88_c723_f020_b210),
        ("4 KiB quantum, free remote caches", 0x03db_af32_e115_7dd5),
    ];
    assert!(
        actual == pinned,
        "engine statistics moved; the sweep now reads {actual:#018x?}"
    );
}
