//! `sim_table3`: the paper's Table 3 sweep through the sim-side half of
//! the repository — `core` planners, `numa-sim`, `perf-model`.
//!
//! Host time shows simulator speed; simulated statistics repeat exactly
//! and show that a speed-up changed no result.

use crate::catalog::STRATEGIES;
use crate::host::peak_rss_mb;
use crate::outcome::Outcome;
use crate::probes::time_reps;
use crate::spans::Spans;
use crate::stats::median;
use crate::workloads::{SimSpec, Workload};
use crate::RunArgs;
use islands_bench::{CPU_COUNTS, PAPER_FUSED, PAPER_ISLANDS, PAPER_ORIGINAL};
use islands_core::{
    estimate, extra_elements, plan_fused, plan_islands, plan_original, InitPolicy, Partition,
    RunEstimate, Variant,
};
use islands_trace::json::Json;
use numa_sim::{simulate, CoreId, Machine, NodeId, Op, SimConfig, TraceSet, UvParams};
use std::hint::black_box;
use std::time::{Duration, Instant};
use stencil_engine::Region3;

/// What one (strategy, P) cell of a sweep simulated. Compared with `==`
/// across sweeps: a deterministic simulator repeats to the last bit.
#[derive(Clone, Debug, PartialEq)]
struct Cell {
    total_seconds: f64,
    ops: usize,
    remote_bytes: f64,
    barrier_episodes: usize,
}

/// One full sweep: host ns of every call in a fixed order (per socket
/// count: machine build, then plan and simulate per strategy), and the
/// simulated cells (socket-major, strategy-minor).
struct Sweep {
    unit_ns: Vec<f64>,
    cells: Vec<Cell>,
}

fn plan(
    machine: &Machine,
    w: &islands_core::Workload,
    strategy: usize,
) -> Result<TraceSet, String> {
    match strategy {
        0 => Ok(plan_original(machine, w, InitPolicy::ParallelFirstTouch)),
        1 => plan_fused(machine, w, InitPolicy::ParallelFirstTouch).map_err(|e| e.to_string()),
        _ => plan_islands(machine, w, Variant::A).map_err(|e| e.to_string()),
    }
}

fn sweep(spec: &SimSpec, w: &islands_core::Workload, spans: &mut Spans) -> Result<Sweep, String> {
    let cfg = SimConfig::default();
    let token = spans.open("sweep");
    let mut unit_ns = Vec::new();
    let mut cells = Vec::new();
    for &p in &spec.sockets {
        let (machine, ns) = spans.timed("machine_build", |_| UvParams::uv2000(p).build());
        unit_ns.push(ns as f64);
        for (s, name) in STRATEGIES.iter().enumerate() {
            let (traces, ns) = spans.timed(&format!("plan.{name}.{p}"), |_| plan(&machine, w, s));
            unit_ns.push(ns as f64);
            let traces = traces?;
            let (est, ns) = spans.timed(&format!("simulate.{name}.{p}"), |_| {
                estimate(&machine, &traces, w, &cfg)
            });
            unit_ns.push(ns as f64);
            let est: RunEstimate = est.map_err(|e| e.to_string())?;
            cells.push(Cell {
                total_seconds: est.total_seconds,
                ops: traces.op_count(),
                remote_bytes: est.report.mem_remote_bytes,
                barrier_episodes: est.report.barrier_episodes,
            });
        }
    }
    spans.close(token);
    Ok(Sweep { unit_ns, cells })
}

/// Runs the simulator workload; returns its outcome and recorded spans.
pub fn run(w: &Workload, spec: &SimSpec, args: &RunArgs) -> Result<(Outcome, Spans), String> {
    let mut out = Outcome::default();
    let mut spans = Spans::new(w.name, args.trace);
    let workload = spans.open("workload");
    let (ni, nj, nk) = spec.extent;
    let domain = Region3::of_extent(ni, nj, nk);

    // Set-up: every machine of the sweep plus the workload description.
    let token = spans.open("setup");
    let setup_ns = time_reps(spec.setups, Duration::from_secs(2), || {
        for &p in &spec.sockets {
            black_box(UvParams::uv2000(p).build());
        }
        black_box(islands_core::Workload::new(domain, spec.steps));
    });
    spans.close(token);
    let setup_s = median(&setup_ns) / 1e9;
    let sim_w = islands_core::Workload::new(domain, spec.steps);

    let token = spans.open("solve");
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut sweeps: Vec<Sweep> = Vec::new();
    while sweeps.len() < spec.min_sweeps || Instant::now() < deadline {
        sweeps.push(sweep(spec, &sim_w, &mut spans)?);
        out.ops_attempted += (2 * STRATEGIES.len() * spec.sockets.len()) as u64;
    }
    spans.close(token);
    let rss = peak_rss_mb();

    // Host time of one sweep: per call, the median over the sweeps.
    let units = sweeps[0].unit_ns.len();
    let unit_median: Vec<f64> = (0..units)
        .map(|u| median(&sweeps.iter().map(|s| s.unit_ns[u]).collect::<Vec<_>>()))
        .collect();
    let sim_host_s = unit_median.iter().sum::<f64>() / 1e9;
    let cells = &sweeps[0].cells;
    let configs = cells.len() as f64;
    let total_ops: usize = cells.iter().map(|c| c.ops).sum();
    let islands_at = |socket_index: usize| cells[socket_index * STRATEGIES.len() + 2].total_seconds;
    let last = spec.sockets.len() - 1;

    // Every `estimate` simulates one time step of its configuration, so
    // a sweep simulates `configs` steps of the grid.
    let flops = mpdata::flops_per_cell() * domain.cells() as f64;
    let v = &mut out.values;
    v.set("setup_s", setup_s);
    v.set("total_s", setup_s + spec.nominal_sweeps as f64 * sim_host_s);
    v.set("step_ms_p50", sim_host_s * 1e3 / configs);
    v.set("gflops", flops * configs / 1e9 / sim_host_s);
    v.set(
        "par_eff",
        islands_at(0) * spec.sockets[0] as f64 / (spec.sockets[last] as f64 * islands_at(last)),
    );
    v.set("peak_rss_mb", rss);

    let token = spans.open("verify");
    let identical = sweeps.iter().all(|s| s.cells == *cells);
    out.check(
        "sim_repeats_exactly",
        identical,
        format!(
            "{} sweeps, every simulated statistic compared with ==",
            sweeps.len()
        ),
    );
    let rows: Vec<&[Cell]> = cells.chunks(STRATEGIES.len()).collect();
    let fastest = rows.iter().all(|r| {
        r[2].total_seconds <= r[0].total_seconds * 1.001
            && r[2].total_seconds <= r[1].total_seconds * 1.001
    });
    out.check("islands_fastest", fastest, "at every socket count".into());
    let spr: Vec<f64> = rows
        .iter()
        .map(|r| r[1].total_seconds / r[2].total_seconds)
        .collect();
    out.check(
        "spr_monotone",
        spr.windows(2).all(|w| w[1] >= w[0] * 0.95),
        format!("S_pr = {spr:.2?}"),
    );
    spans.close(token);

    if args.trace {
        let token = spans.open("probes");
        layer_metrics(
            &mut out,
            spec,
            &sim_w,
            &unit_median,
            cells,
            sim_host_s,
            total_ops,
            &mut spans,
        )?;
        spans.close(token);
    }
    spans.close(workload);

    out.detail.push((
        "samples".into(),
        Json::Object(vec![
            ("sweeps".into(), Json::Num(sweeps.len() as f64)),
            ("setups".into(), Json::Num(setup_ns.len() as f64)),
            ("calls_per_sweep".into(), Json::Num(units as f64)),
        ]),
    ));
    Ok((out, spans))
}

/// The per-layer metrics of the sim side: the sweep's own P = max calls
/// plus three short probes (engine throughput, the analytic model, the
/// traffic formulas).
#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    out: &mut Outcome,
    spec: &SimSpec,
    w: &islands_core::Workload,
    unit_median: &[f64],
    cells: &[Cell],
    sim_host_s: f64,
    total_ops: usize,
    spans: &mut Spans,
) -> Result<(), String> {
    let v = &mut out.values;
    v.set("sim_host_s", sim_host_s);
    v.set("sim_ops_per_s", total_ops as f64 / sim_host_s);
    v.set(
        "bench.host_cores",
        std::thread::available_parallelism().map_or(1.0, |n| n.get() as f64),
    );

    // Published Table 3 cells exist for P = 1..14 only.
    let paper = [&PAPER_ORIGINAL, &PAPER_FUSED, &PAPER_ISLANDS];
    let mut err = Vec::new();
    for (row, &p) in cells.chunks(STRATEGIES.len()).zip(&spec.sockets) {
        if let Some(col) = CPU_COUNTS.iter().position(|&c| c == p) {
            for (cell, published) in row.iter().zip(paper) {
                err.push((cell.total_seconds - published[col]).abs() / published[col]);
            }
        }
    }
    if spec.extent == (1024, 512, 64) && !err.is_empty() {
        v.set(
            "sim_err_pct",
            100.0 * err.iter().sum::<f64>() / err.len() as f64,
        );
    }

    // The widest machine's calls, straight from the sweep.
    let per_socket = 1 + 2 * STRATEGIES.len();
    let base = (spec.sockets.len() - 1) * per_socket;
    let top = &cells[cells.len() - STRATEGIES.len()..];
    v.set("numa-sim.machine_build_us", unit_median[base] / 1e3);
    for (s, name) in STRATEGIES.iter().enumerate() {
        v.set(
            &format!("core.plan_{name}_ms"),
            unit_median[base + 1 + 2 * s] / 1e6,
        );
        v.set(
            &format!("numa-sim.simulate_ms.{name}"),
            unit_median[base + 2 + 2 * s] / 1e6,
        );
        v.set(&format!("numa-sim.sim_s.{name}_p14"), top[s].total_seconds);
    }
    v.set(
        "core.ops_p14",
        top.iter().map(|c| c.ops).sum::<usize>() as f64,
    );
    v.set("numa-sim.remote_gb.fused_p14", top[1].remote_bytes / 1e9);
    v.set(
        "numa-sim.barrier_episodes.islands_p14",
        top[2].barrier_episodes as f64,
    );
    let p_max = *spec.sockets.last().expect("at least one socket count");
    let (graph, _) = mpdata::mpdata_graph();
    let partition = Partition::one_d(w.domain, Variant::A, p_max).map_err(|e| e.to_string())?;
    v.set(
        "core.extra_pct_p14",
        extra_elements(&graph, &partition).percent(),
    );

    // Raw engine throughput: the synthetic 48 k-op trace of
    // `crates/bench/benches/simulator.rs`.
    let machine = UvParams::uv2000(4).build();
    let cfg = SimConfig::default();
    let mut raw = TraceSet::for_cores(machine.core_count());
    let barrier = raw.add_barrier((0..8).map(CoreId).collect());
    for core in 0..8 {
        for n in 0..2000 {
            raw.push(CoreId(core), Op::Compute { flops: 1e6 });
            raw.push(
                CoreId(core),
                Op::MemRead {
                    node: NodeId(0),
                    bytes: 64.0 * 1024.0,
                },
            );
            if n % 10 == 0 {
                raw.push(CoreId(core), Op::Barrier { id: barrier });
            }
        }
    }
    let engine_ns = spans.scope("numa-sim.engine", |_| {
        median(&time_reps(20, Duration::from_millis(500), || {
            black_box(simulate(&machine, &raw, &cfg)).ok();
        }))
    });
    v.set(
        "numa-sim.engine_ops_per_s",
        raw.op_count() as f64 / (engine_ns / 1e9),
    );

    // The analytic model beside the simulator, on the widest machine.
    let wide = UvParams::uv2000(p_max).build();
    let predict_ns = spans.scope("perf-model.predict", |_| {
        median(&time_reps(20, Duration::from_millis(500), || {
            black_box(perf_model::predict(&wide, w, &cfg));
        }))
    });
    v.set("perf-model.predict_ms", predict_ns / 1e6);
    let predicted = perf_model::predict(&wide, w, &cfg);
    let steps = w.steps as f64;
    let model_err = [
        (predicted.original, top[0].total_seconds / steps),
        (predicted.fused, top[1].total_seconds / steps),
        (predicted.islands, top[2].total_seconds / steps),
    ]
    .iter()
    .map(|&(p, m)| perf_model::relative_error(p, m))
    .sum::<f64>()
        / 3.0;
    v.set("perf-model.model_err_pct", 100.0 * model_err);
    // The paper's §3.2 traffic claim (133 GB → 30 GB): 256×256×64,
    // 50 steps, 25 MiB L3 — computed from sizes.
    let claim = Region3::of_extent(256, 256, 64);
    v.set(
        "perf-model.traffic_original_gb",
        perf_model::original_traffic(&graph, claim, 50).total_gb(),
    );
    v.set(
        "perf-model.traffic_fused_gb",
        perf_model::fused_traffic_blocked(&graph, claim, 50, 25 << 20)
            .map_err(|e| e.to_string())?
            .total_gb(),
    );
    Ok(())
}
