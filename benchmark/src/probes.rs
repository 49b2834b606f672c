//! Short layer probes of the traced run: each times calls into one
//! crate's existing public functions, from outside.

use crate::catalog::{Values, KIND_NAMES};
use crate::host::{meminfo_bytes, Host};
use crate::spans::Spans;
use crate::stats::median;
use crate::workloads::MpdataSpec;
use islands_trace::SpanKind;
use mpdata::{apply_kind, apply_kind_scalar, Boundary, MpdataProblem, StageKind, STANDARD_KINDS};
use std::hint::black_box;
use std::time::{Duration, Instant};
use stencil_engine::rng::{Rng64, Xoshiro256pp};
use stencil_engine::{
    choose_tile, staged_traffic_bytes, tile_grid, tiled_traffic_bytes, Array3, BlockPlanner,
    Region3,
};
use work_scheduler::{ChunkQueue, TeamSpec, WorkerPool};

/// Nanoseconds of each of up to `max_reps` calls of `f`, stopping early
/// once `budget` is spent (at least one call is always made).
pub fn time_reps(max_reps: usize, budget: Duration, mut f: impl FnMut()) -> Vec<f64> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < max_reps.max(1) {
        let t = Instant::now();
        f();
        out.push(t.elapsed().as_nanos() as f64);
        if start.elapsed() >= budget {
            break;
        }
    }
    out
}

/// Median nanoseconds per call of `f` (see [`time_reps`]).
fn median_ns(max_reps: usize, budget_ms: u64, f: impl FnMut()) -> f64 {
    median(&time_reps(max_reps, Duration::from_millis(budget_ms), f))
}

/// The two roofs of the roofline, measured in this run.
#[derive(Clone, Copy, Debug)]
pub struct Roofs {
    /// Register-resident multiply-add rate of one thread, Gflop/s.
    pub dp_gflops_1t: f64,
    /// Triad bandwidth of one thread, GB/s.
    pub triad_gbs_1t: f64,
}

/// `bench.*`: the host's own roofs and the timer's cost.
///
/// The bandwidth arrays are each four times the last-level cache sysfs
/// reports, capped (see [`triad_array_bytes`]); the array size is
/// returned so the record states it beside the LLC size. Traffic is
/// counted like the repository's traffic formulas count it: two reads,
/// one write, and the write-allocate read of the stored line.
pub fn host(values: &mut Values, host: &Host, smoke: bool, spans: &mut Spans) -> (Roofs, u64) {
    values.set("bench.host_cores", host.cores as f64);
    let n = 2_000_000;
    let timer = spans.timed("bench.timer", |_| {
        let t = Instant::now();
        for _ in 0..n {
            black_box(islands_trace::now_ns());
        }
        t.elapsed().as_nanos() as f64 / n as f64
    });
    values.set("bench.timer_overhead_ns", timer.0);

    let dp = spans.scope("bench.dp_flops", |_| dp_gflops());
    values.set("bench.host_dp_gflops_1t", dp);

    let array_bytes = triad_array_bytes(host, smoke);
    let len = (array_bytes / 8) as usize;
    let threads = host.cores.min(2);
    let (one, two) = spans.scope("bench.triad", |_| {
        let mut a = vec![0.0_f64; len];
        let mut b = vec![0.0_f64; len];
        let mut c = vec![0.0_f64; len];
        // First touch with the thread count of the wider run, so the
        // pages exist before any timed pass.
        triad_pass(&mut a, &mut b, &mut c, threads, true);
        let best = |a: &mut [f64], b: &mut [f64], c: &mut [f64], t: usize| {
            (0..2)
                .map(|_| triad_pass(a, b, c, t, false))
                .fold(0.0_f64, f64::max)
        };
        let one = best(&mut a, &mut b, &mut c, 1);
        let two = best(&mut a, &mut b, &mut c, threads);
        (one, two)
    });
    values.set("bench.host_triad_gbs_1t", one);
    values.set("bench.host_triad_gbs_2t", two);
    (
        Roofs {
            dp_gflops_1t: dp,
            triad_gbs_1t: one,
        },
        array_bytes,
    )
}

/// Largest triad array. First-touching fresh memory costs seconds per
/// GiB on a virtualised host, and every traced run pays it; the cap
/// bounds that. It satisfies the 4 × LLC rule up to a 64 MiB LLC; the
/// record states both sizes, so a host where it does not is visible.
const TRIAD_ARRAY_CAP: u64 = 256 << 20;

/// Bytes per triad array: 4 × LLC, capped at [`TRIAD_ARRAY_CAP`] and at
/// a twelfth of the available memory (three arrays in a quarter), never
/// below 8 MiB.
fn triad_array_bytes(host: &Host, smoke: bool) -> u64 {
    if smoke {
        return 8 << 20;
    }
    let mut available = meminfo_bytes("MemAvailable");
    // A cgroup limit below the host's free memory is the real ceiling.
    if let Some(limit) = std::fs::read_to_string("/sys/fs/cgroup/memory.max")
        .ok()
        .and_then(|s| s.trim().parse::<u64>().ok())
    {
        available = available.min(limit);
    }
    let want = 4 * host.llc_bytes().max(8 << 20);
    let cap = if available == 0 {
        256 << 20
    } else {
        available / 12
    };
    want.min(cap).clamp(8 << 20, TRIAD_ARRAY_CAP)
}

/// One `a = b + s·c` pass over the arrays on `threads` threads; returns
/// GB/s. `init` writes all three arrays instead (first touch).
fn triad_pass(a: &mut [f64], b: &mut [f64], c: &mut [f64], threads: usize, init: bool) -> f64 {
    let chunk = a.len().div_ceil(threads.max(1)).max(1);
    let t = Instant::now();
    std::thread::scope(|scope| {
        for ((a, b), c) in a
            .chunks_mut(chunk)
            .zip(b.chunks_mut(chunk))
            .zip(c.chunks_mut(chunk))
        {
            scope.spawn(move || {
                if init {
                    a.fill(0.0);
                    b.fill(1.0);
                    c.fill(2.0);
                } else {
                    let s = black_box(3.0);
                    for ((a, b), c) in a.iter_mut().zip(b.iter()).zip(c.iter()) {
                        *a = *b + s * *c;
                    }
                }
                black_box(&a[0]);
            });
        }
    });
    let bytes = 4.0 * 8.0 * a.len() as f64;
    bytes / t.elapsed().as_secs_f64() / 1e9
}

/// Multiply-add rate on register-resident data, one thread: the
/// compute roof *of this build* (the kernels are compiled with the same
/// flags, so an ISA the build cannot use is not part of their roof).
fn dp_gflops() -> f64 {
    const LANES: usize = 32;
    const ITERS: usize = 4_000_000;
    let mut acc = [1.0_f64; LANES];
    let m = black_box(0.999_999_9);
    let c = black_box(1.0e-7);
    let mut best = 0.0_f64;
    for _ in 0..3 {
        let t = Instant::now();
        for _ in 0..ITERS {
            for a in &mut acc {
                *a = *a * m + c;
            }
        }
        black_box(&mut acc);
        let flops = 2.0 * (LANES * ITERS) as f64;
        best = best.max(flops / t.elapsed().as_secs_f64() / 1e9);
    }
    best
}

/// `stencil.*` for the workload's schedule: requirement analysis, block
/// planning and tile cutting times, and the computed traffic per cell.
pub fn stencil(
    values: &mut Values,
    spec: &MpdataSpec,
    problem: &MpdataProblem,
    domain: Region3,
    parts: &[Region3],
    cache_bytes: usize,
    spans: &mut Spans,
) {
    let graph = problem.graph();
    let cells = domain.cells() as f64;
    let rr = spans.scope("stencil.required_regions", |_| {
        median_ns(200, 100, || {
            for &p in parts {
                black_box(graph.required_regions(black_box(p), domain));
            }
        })
    });
    values.set("stencil.required_regions_us", rr / 1e3);
    let planner = BlockPlanner::new(cache_bytes);
    let pw = spans.scope("stencil.plan_wavefront", |_| {
        median_ns(50, 200, || {
            for &p in parts {
                black_box(planner.plan_wavefront(graph, black_box(p), domain)).ok();
            }
        })
    });
    values.set("stencil.plan_wavefront_us", pw / 1e3);
    let blocks: usize = parts
        .iter()
        .filter_map(|&p| planner.plan_wavefront(graph, p, domain).ok())
        .map(|b| b.len())
        .sum();
    values.set("stencil.block_count", blocks as f64);
    let staged: usize = parts
        .iter()
        .map(|&p| staged_traffic_bytes(graph, &graph.required_regions(p, domain)))
        .sum();
    values.set("stencil.staged_bytes_per_cell", staged as f64 / cells);
    if spec.tile != mpdata::TileMode::Off {
        let tile = choose_tile(graph, domain, cache_bytes);
        let tg = spans.scope("stencil.tile_grid", |_| {
            median_ns(200, 100, || {
                for &p in parts {
                    black_box(tile_grid(black_box(p), tile));
                }
            })
        });
        values.set("stencil.tile_grid_us", tg / 1e3);
        let tiles: Vec<Region3> = parts.iter().flat_map(|&p| tile_grid(p, tile)).collect();
        values.set(
            "stencil.tiled_bytes_per_cell",
            tiled_traffic_bytes(graph, &tiles, domain) as f64 / cells,
        );
    }
}

/// `mpdata.stage_*`: every kernel kind on an L2-resident block, through
/// the fast path (`apply_kind` on a region whose stencil stays inside
/// the domain) and through the scalar shell kernels, with the achieved
/// fraction of the roofline where the roofs were measured.
pub fn kernels(values: &mut Values, roofs: Option<Roofs>, spans: &mut Spans) {
    let problem = MpdataProblem::standard();
    // 16×16×64 cells: 128 KiB per array, at most seven arrays in flight.
    let region = Region3::of_extent(16, 16, 64);
    let domain = region.expand_uniform(2);
    let cells = region.cells() as f64;
    let mut rng = Xoshiro256pp::seed_from_u64(0xBE7C);
    let mut per_kind = |scalar: bool| -> Vec<(StageKind, f64, usize, usize)> {
        KIND_NAMES
            .iter()
            .map(|&(kind, _)| {
                let stage = problem
                    .graph()
                    .stages()
                    .iter()
                    .find(|st| problem.kind(st.id) == kind)
                    .expect("every kind occurs in the 17-stage graph");
                let inputs: Vec<Array3> = (0..stage.inputs.len())
                    .map(|_| Array3::from_fn(domain, |_, _, _| rng.range_f64(0.1, 1.0)))
                    .collect();
                let mut outputs: Vec<Array3> = (0..stage.outputs.len())
                    .map(|_| Array3::zeros(domain))
                    .collect();
                let ins: Vec<&Array3> = inputs.iter().collect();
                let ns = median_ns(if scalar { 15 } else { 60 }, 40, || {
                    let mut outs: Vec<&mut Array3> = outputs.iter_mut().collect();
                    if scalar {
                        apply_kind_scalar(kind, domain, Boundary::Open, &ins, &mut outs, region);
                    } else {
                        apply_kind(kind, domain, Boundary::Open, &ins, &mut outs, region);
                    }
                    black_box(&mut outs);
                });
                (kind, ns / cells, stage.inputs.len(), stage.outputs.len())
            })
            .collect()
    };
    let fast = spans.scope("mpdata.apply_kind", |_| per_kind(false));
    let scalar = spans.scope("mpdata.apply_kind_scalar", |_| per_kind(true));
    let sum17 = |rows: &[(StageKind, f64, usize, usize)]| -> f64 {
        STANDARD_KINDS
            .iter()
            .map(|k| rows.iter().find(|r| r.0 == *k).expect("all kinds timed").1)
            .sum()
    };
    values.set("mpdata.kernel_sum_ns_per_cell", sum17(&fast));
    values.set("mpdata.scalar_sum_ns_per_cell", sum17(&scalar));
    for (&(kind, ns_per_cell, n_in, n_out), (_, name)) in fast.iter().zip(KIND_NAMES) {
        values.set(&format!("mpdata.stage_ns_per_cell.{name}"), ns_per_cell);
        if let Some(r) = roofs {
            // flop/ns = Gflop/s; bytes computed: inputs + 2 × outputs.
            let achieved = kind.flops_per_cell() / ns_per_cell;
            let bytes = ((n_in + 2 * n_out) * 8) as f64;
            let roof = r
                .dp_gflops_1t
                .min(r.triad_gbs_1t * kind.flops_per_cell() / bytes);
            values.set(&format!("mpdata.stage_roof_frac.{name}"), achieved / roof);
        }
    }
}

/// `scheduler.*`: pool spawn, dispatch, barrier crossings and chunk
/// claims, on two parties. `smoke` cuts the repetition counts tenfold.
pub fn scheduler(values: &mut Values, workers: usize, smoke: bool, spans: &mut Spans) {
    let scale = if smoke { 10 } else { 1 };
    let token = spans.open("scheduler.probes");
    let spawn = median_ns(20, 200, || {
        black_box(WorkerPool::new(workers));
    });
    // Spawn + join; the join is part of what a set-up/tear-down pays.
    values.set("scheduler.pool_spawn_us", spawn / 1e3);

    let pool = WorkerPool::new(2);
    let dispatch = median_ns(2000, 100, || pool.broadcast(|_| {}));
    values.set("scheduler.dispatch_us", dispatch / 1e3);
    let one_team = TeamSpec::even(2, 1);
    let two_teams = TeamSpec::even(2, 2);
    let run_teams = median_ns(2000, 100, || pool.run_teams(&one_team, |_| {}));
    values.set("scheduler.run_teams_us", run_teams / 1e3);

    let crossings = 100_000 / scale;
    let t = Instant::now();
    pool.run_teams(&one_team, |ctx| {
        for _ in 0..crossings {
            ctx.team_barrier();
        }
    });
    values.set(
        "scheduler.team_barrier_ns",
        t.elapsed().as_nanos() as f64 / crossings as f64,
    );
    let t = Instant::now();
    pool.run_teams(&two_teams, |ctx| {
        for _ in 0..crossings {
            ctx.global_barrier();
        }
    });
    values.set(
        "scheduler.global_barrier_ns",
        t.elapsed().as_nanos() as f64 / crossings as f64,
    );

    let claims = 1_000_000 / scale;
    let queue = ChunkQueue::new(claims);
    let t = Instant::now();
    while let Some(c) = queue.claim() {
        black_box(c);
    }
    values.set(
        "scheduler.chunk_claim_ns",
        t.elapsed().as_nanos() as f64 / claims as f64,
    );
    let shared = ChunkQueue::new(2 * claims);
    let t = Instant::now();
    pool.broadcast(|_| {
        while let Some(c) = shared.claim() {
            black_box(c);
        }
    });
    // Thread-time per claim: two threads share the wall clock.
    values.set(
        "scheduler.chunk_claim_contended_ns",
        2.0 * t.elapsed().as_nanos() as f64 / (2 * claims) as f64,
    );
    spans.close(token);
}

/// `trace.*` recorder probes (the traced pass itself supplies drain and
/// aggregate costs): one record with tracing off and on, a histogram
/// record, and one exposition render of `registry`.
pub fn trace_recorder(
    values: &mut Values,
    registry: &islands_trace::registry::MetricsRegistry,
    spans: &mut Spans,
) {
    let token = spans.open("trace.probes");
    const OFF: usize = 5_000_000;
    let t = Instant::now();
    for i in 0..OFF {
        islands_trace::record(SpanKind::Kernel, black_box(i as u64), 0, 0, 0, [0; 3]);
    }
    values.set(
        "trace.disabled_record_ns",
        t.elapsed().as_nanos() as f64 / OFF as f64,
    );

    const ON: usize = 100_000;
    islands_trace::set_ring_capacity(2 * ON);
    let session = islands_trace::Session::start();
    // The first record registers (allocates) this thread's ring.
    islands_trace::record(SpanKind::Kernel, 0, 1, 0, 0, [0; 3]);
    let t = Instant::now();
    for i in 0..ON {
        islands_trace::record(
            SpanKind::Kernel,
            black_box(i as u64),
            i as u64 + 1,
            0,
            0,
            [0; 3],
        );
    }
    values.set("trace.record_ns", t.elapsed().as_nanos() as f64 / ON as f64);
    drop(session.finish());
    islands_trace::set_ring_capacity(islands_trace::DEFAULT_RING_CAPACITY);

    let histogram = islands_trace::histogram::Histogram::new();
    const HIST: usize = 2_000_000;
    let t = Instant::now();
    for i in 0..HIST {
        histogram.record(black_box(i as u64 * 37));
    }
    values.set(
        "trace.histogram_record_ns",
        t.elapsed().as_nanos() as f64 / HIST as f64,
    );
    let render = median_ns(200, 100, || {
        black_box(islands_trace::export::prometheus(&registry.snapshot())).ok();
    });
    values.set("trace.prometheus_render_us", render / 1e3);
    spans.close(token);
}
