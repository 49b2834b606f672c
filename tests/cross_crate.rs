//! Integration tests spanning the whole stack: machine model → island
//! layout → real threaded execution, and planner traces → simulator →
//! metrics, cross-checked against each other.

use islands_of_cores::islands::{
    estimate, extra_elements, plan_fused, plan_islands, plan_original, InitPolicy, IslandLayout,
    Partition, Variant, Workload,
};
use islands_of_cores::mpdata::{
    self, gaussian_pulse, mpdata_graph, IslandsExecutor, ReferenceExecutor, TileMode,
};
use islands_of_cores::numa::{Op, SimConfig, UvParams};
use islands_of_cores::perf::{original_traffic, sustained_gflops, useful_flops};
use islands_of_cores::scheduler::{TeamSpec, WorkerPool};
use islands_of_cores::stencil::Region3;

/// The island layout derived from the *machine model* drives the
/// *real-thread* executor and still reproduces the reference bitwise —
/// the same partition/teams abstraction serves both worlds.
#[test]
fn machine_layout_drives_real_execution() {
    let machine = UvParams::uv2000(2).build(); // 16 cores, 2 islands
    let layout = IslandLayout::per_socket(&machine);
    let teams = layout.team_spec();
    let pool = WorkerPool::new(machine.core_count());

    let domain = Region3::of_extent(40, 12, 6);
    let fields = gaussian_pulse(domain, (0.25, 0.1, 0.0));
    let expect = ReferenceExecutor::new().step(&fields);
    let got = IslandsExecutor::new(&pool, teams, Variant::A.axis())
        .cache_bytes(256 * 1024)
        .step(&fields)
        .expect("island blocks fit the cache");
    assert_eq!(got.max_abs_diff(&expect), 0.0);
}

/// The planner's trace-level flop surplus equals the overlap analysis
/// (Table 2) — two independent code paths, one number.
#[test]
fn trace_extra_flops_match_overlap_analysis() {
    let machine = UvParams::uv2000(4).build();
    let w = Workload {
        domain: Region3::of_extent(128, 64, 8),
        steps: 1,
        cache_bytes: 1 << 20,
    };
    let flops = |ts: &islands_of_cores::numa::TraceSet| -> f64 {
        ts.streams()
            .iter()
            .flatten()
            .map(|op| match *op {
                Op::Compute { flops } | Op::Stream { flops, .. } => flops,
                _ => 0.0,
            })
            .sum()
    };
    let base = flops(&plan_fused(&machine, &w, InitPolicy::ParallelFirstTouch).unwrap());
    let isl = flops(&plan_islands(&machine, &w, Variant::A).unwrap());
    let trace_extra = (isl - base) / base;

    let (graph, _) = mpdata_graph();
    let analysis = extra_elements(&graph, &Partition::one_d(w.domain, Variant::A, 4).unwrap());
    // Cells-weighted vs flops-weighted redundancy differ only through
    // per-stage flop weights; they must agree closely.
    let cell_extra = analysis.percent() / 100.0;
    assert!(
        (trace_extra - cell_extra).abs() < 0.02,
        "trace {trace_extra} vs analysis {cell_extra}"
    );
}

/// Useful flops are strategy-independent; sustained Gflop/s follows the
/// simulated times in the right order.
#[test]
fn simulated_orderings_and_metrics() {
    let w = Workload {
        domain: Region3::of_extent(256, 128, 16),
        steps: 4,
        cache_bytes: 2 << 20,
    };
    let cfg = SimConfig::default();
    let machine = UvParams::uv2000(8).build();
    let orig_serial = estimate(
        &machine,
        &plan_original(&machine, &w, InitPolicy::SerialFirstTouch),
        &w,
        &cfg,
    )
    .unwrap()
    .total_seconds;
    let orig = estimate(
        &machine,
        &plan_original(&machine, &w, InitPolicy::ParallelFirstTouch),
        &w,
        &cfg,
    )
    .unwrap()
    .total_seconds;
    let fused = estimate(
        &machine,
        &plan_fused(&machine, &w, InitPolicy::ParallelFirstTouch).unwrap(),
        &w,
        &cfg,
    )
    .unwrap()
    .total_seconds;
    let islands = estimate(
        &machine,
        &plan_islands(&machine, &w, Variant::A).unwrap(),
        &w,
        &cfg,
    )
    .unwrap()
    .total_seconds;

    // The paper's ordering on 8 sockets.
    assert!(islands < orig, "islands {islands} vs original {orig}");
    assert!(orig < fused, "original {orig} vs fused {fused} at P=8");
    assert!(
        fused < orig_serial,
        "fused {fused} vs serial-init {orig_serial}"
    );

    // Metrics layer agrees with raw times.
    let g_islands = sustained_gflops(w.domain, w.steps, islands);
    let g_orig = sustained_gflops(w.domain, w.steps, orig);
    assert!(g_islands > g_orig);
    assert!(useful_flops(w.domain, w.steps) > 0.0);
}

/// The analytic traffic model and the simulator agree on the original
/// version's DRAM byte count (the simulator moves exactly the bytes the
/// planner emits, which implement the analytic formula).
#[test]
fn traffic_model_matches_simulated_bytes() {
    let machine = UvParams::uv2000(2).build();
    let w = Workload {
        domain: Region3::of_extent(64, 32, 8),
        steps: 1,
        cache_bytes: 1 << 20,
    };
    let ts = plan_original(&machine, &w, InitPolicy::ParallelFirstTouch);
    let cfg = SimConfig::default();
    let est = estimate(&machine, &ts, &w, &cfg).unwrap();
    let simulated = est.report.mem_local_bytes + est.report.mem_remote_bytes;
    let (graph, _) = mpdata_graph();
    let analytic = original_traffic(&graph, w.domain, 1).bytes_per_step;
    let rel = (simulated - analytic).abs() / analytic;
    assert!(
        rel < 0.01,
        "simulated {simulated} vs analytic {analytic} ({rel})"
    );
}

/// End-to-end paper smoke test at reduced scale: every strategy runs,
/// islands wins at P = 14, and S_pr exceeds S_ov, mirroring Table 3's
/// structure.
#[test]
fn paper_smoke_reduced_scale() {
    let w = Workload {
        domain: Region3::of_extent(256, 128, 16),
        steps: 2,
        cache_bytes: 2 << 20,
    };
    let cfg = SimConfig::default();
    let machine = UvParams::uv2000(14).build();
    let orig = estimate(
        &machine,
        &plan_original(&machine, &w, InitPolicy::ParallelFirstTouch),
        &w,
        &cfg,
    )
    .unwrap()
    .total_seconds;
    let fused = estimate(
        &machine,
        &plan_fused(&machine, &w, InitPolicy::ParallelFirstTouch).unwrap(),
        &w,
        &cfg,
    )
    .unwrap()
    .total_seconds;
    let islands = estimate(
        &machine,
        &plan_islands(&machine, &w, Variant::A).unwrap(),
        &w,
        &cfg,
    )
    .unwrap()
    .total_seconds;
    let s_pr = fused / islands;
    let s_ov = orig / islands;
    assert!(islands < orig && islands < fused);
    assert!(s_pr > s_ov, "S_pr {s_pr} must exceed S_ov {s_ov} at P=14");
}

/// The real-thread executors stay bitwise-equal over multi-step runs
/// with the machine-derived layout (regression net for the whole
/// pipeline).
#[test]
fn multi_step_full_stack_equivalence() {
    let machine = UvParams::uv2000(2).build();
    let pool = WorkerPool::new(machine.core_count());
    let layout = IslandLayout::per_socket(&machine);
    let domain = Region3::of_extent(32, 16, 8);
    let mut a = mpdata::rotating_cone(domain, 0.3);
    let mut b = a.clone();
    IslandsExecutor::new(&pool, layout.team_spec(), Variant::A.axis())
        .cache_bytes(256 * 1024)
        .run(&mut a, 5)
        .unwrap();
    ReferenceExecutor::new().run(&mut b, 5);
    assert_eq!(a.x.max_abs_diff(&b.x), 0.0);
    // On 2 islands × 2 ranks, k = 1 and k = 3 (a 3-step epoch, then a
    // 2-step tail), ranks taking units statically or claiming them:
    // untiled rows, whose units are rank slices; and tiles, whose stage
    // chain one rank runs whole — auto tiles, an uneven 5×3 grid, and
    // one tile per island, which leaves one rank of each team idle.
    let pool = WorkerPool::new(4);
    let tiles = [
        TileMode::Off,
        TileMode::Auto,
        TileMode::Fixed { ti: 5, tj: 3 },
        TileMode::Fixed { ti: 64, tj: 64 },
    ];
    for tile in tiles {
        for k in [1, 3] {
            for chunks in [0, 2] {
                let mut t = mpdata::rotating_cone(domain, 0.3);
                let mut exec = IslandsExecutor::new(&pool, TeamSpec::even(4, 2), Variant::A.axis())
                    .cache_bytes(64 * 1024)
                    .fuse_steps(k)
                    .tile(tile);
                if chunks > 0 {
                    exec = exec.self_schedule(chunks);
                }
                exec.run(&mut t, 5).unwrap();
                assert_eq!(
                    t.x.max_abs_diff(&b.x),
                    0.0,
                    "{tile:?}, fuse {k}, chunks_per_rank {chunks}"
                );
            }
        }
    }
}
