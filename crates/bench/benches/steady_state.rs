//! First-step versus steady-state step cost of the threaded executors.
//!
//! The persistent-plan layer makes `IslandsExecutor`
//! compute their execution plan (partition, per-island blocking, epoch
//! tables, scratch stores) once and replay it allocation-free on every
//! further step. This bench measures both sides of that trade through
//! the same `run` entry point:
//!
//! * `*_first/P` — a fresh executor per iteration running one step, so
//!   every measurement pays plan construction plus the step;
//! * `*_steady/P` — a warmed executor running a multi-step batch,
//!   reported per step: the marginal cost of steps 2..N, where the plan
//!   is replayed from cache with zero heap allocations;
//! * `islands_dyn_*/4` — the same islands schedule with two 2-worker
//!   teams and intra-island self-scheduling, exercising the dynamic
//!   chunk-claiming replay path (full mode only — on the quick smoke
//!   domain its plan-build amortization is inside scheduling noise);
//! * `fuse{2,4}_*/4` — the P = 4 islands schedule replayed as k-step
//!   fused epochs (temporal blocking), whose attached
//!   `global_barriers` per-step crossing count falls ~k× below the
//!   unfused `islands_steady/4` row;
//! * `tiled_*/4` — the P = 4 islands schedule in tile-fused mode
//!   (`TileMode::Auto`): each part is cut into cache-sized (i, j)
//!   column tiles and every tile's whole stage chain replays against
//!   rank-private scratch, so intermediates never stream through main
//!   memory. Its attached `bytes_moved` (from `tiled_traffic_bytes`)
//!   must undercut the untiled `islands_steady/4` row's (from
//!   `staged_traffic_bytes`) — `bench-check --min-traffic-reduction`
//!   gates the ratio.
//!
//! After the timed samples of each `*_steady/P` row, one extra
//! *untimed* batch runs under the `islands-trace` recorder to attach a
//! kernel / barrier / swap / imbalance phase breakdown to the row
//! (tracing never overlaps a timed sample, so the medians stay clean).
//! The imbalance field is derived from the deterministic per-island
//! cell counts at the measured kernel rate — see [`traced_phases`].
//! `bench-check --phases` validates those fields and gates on the
//! steady/first ratio; `--max-barrier-share` gates on the
//! imbalance-attributable share.
//!
//! `--quick` shrinks the domain and drops the oversubscribed P = 14
//! point for CI smoke runs; `--json <path>` writes the artifact that
//! `bench-check` validates (steady must beat first).
//!
//! `--balance=uniform|model|measured` picks how island cut positions
//! are chosen (single token — a bare word would be read as the bench
//! filter): `uniform` is the even axis split, `model` solves non-uniform
//! cuts from the static cost model (the default, and what the committed
//! artifact is generated with), `measured` first probes a few traced
//! steps under the uniform cuts and feeds the observed per-island
//! kernel rates back into the model before cutting.

use islands_bench::microbench::{Harness, Phases};
use islands_trace::metrics::RunMetrics;
use mpdata::{gaussian_pulse, IslandsExecutor, MpdataFields, MpdataProblem, TileMode};
use stencil_engine::{
    balanced_cuts, choose_tile, measured_plane_scale, staged_traffic_bytes, tile_grid,
    tiled_traffic_bytes, Axis, CostModel, Region3,
};
use work_scheduler::{TeamSpec, WorkerPool};

/// How the bench chooses island cut positions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Balance {
    Uniform,
    Model,
    Measured,
}

fn balance_from_env() -> Balance {
    for a in std::env::args().skip(1) {
        match a.as_str() {
            "--balance=uniform" => return Balance::Uniform,
            "--balance=model" => return Balance::Model,
            "--balance=measured" => return Balance::Measured,
            _ if a.starts_with("--balance") => {
                eprintln!("unknown balance mode `{a}`; use --balance=uniform|model|measured");
                std::process::exit(2);
            }
            _ => {}
        }
    }
    Balance::Model
}

/// Replays `steps` steps of `run` under the trace recorder and folds
/// the per-island totals into worker-summed nanoseconds per step, plus
/// the worker count and imbalance-attributable worker time.
///
/// The imbalance estimate is *work-based*, not span-based: per step,
/// each island's computed cells are normalized per worker, the excess
/// worker-cells below the slowest island are summed, and the total is
/// converted to nanoseconds at the run's mean kernel rate. Wall-time
/// spans would measure the same thing on dedicated cores, but on an
/// oversubscribed host (14 single-thread islands on a 2-core runner)
/// preemption noise in the spans swamps the partition signal; the cell
/// counts are exact and deterministic for a given partition.
fn traced_phases(steps: u64, run: impl FnOnce()) -> Phases {
    let session = islands_trace::Session::start();
    run();
    let drained = session.finish();
    let metrics = RunMetrics::aggregate(&drained);
    let totals = metrics.totals();
    let per_step = |ns: u64| ns as f64 / steps as f64;
    let workers: u32 = totals
        .iter()
        .filter(|m| m.island != islands_trace::NO_ISLAND)
        .map(|m| m.workers)
        .sum();
    let mut excess_cells = 0.0;
    for step in &metrics.steps {
        let pw: Vec<(f64, f64)> = step
            .islands
            .iter()
            .filter(|m| m.island != islands_trace::NO_ISLAND && m.workers > 0)
            .map(|m| {
                let w = f64::from(m.workers);
                (w, m.computed_cells as f64 / w)
            })
            .collect();
        let max = pw.iter().fold(0.0f64, |a, &(_, c)| a.max(c));
        excess_cells += pw.iter().map(|&(w, c)| w * (max - c)).sum::<f64>();
    }
    let total_cells: u64 = totals.iter().map(|m| m.computed_cells).sum();
    let total_kernel: u64 = totals.iter().map(|m| m.kernel_ns).sum();
    let rate = if total_cells > 0 {
        total_kernel as f64 / total_cells as f64
    } else {
        0.0
    };
    // Global barrier *crossings* per step per worker: every rank records
    // one span per crossing, so dividing the event count by workers and
    // steps gives the per-step count (2 for the unfused executors, 2/k
    // under `--fuse-steps=k` temporal blocking).
    let gb_events = drained
        .events
        .iter()
        .filter(|t| t.ev.kind == islands_trace::SpanKind::GlobalBarrier)
        .count() as f64;
    // Per-step latency quantiles through the same log2-bucketed
    // histogram the live telemetry plane uses, so the bench artifact's
    // jitter figures quantize identically to a `/metrics` scrape.
    let step_hist = islands_trace::histogram::Histogram::new();
    for step in &metrics.steps {
        step_hist.record(step.wall_ns);
    }
    let step_hist = step_hist.snapshot();
    Phases {
        workers: f64::from(workers),
        kernel_ns: per_step(totals.iter().map(|m| m.kernel_ns).sum()),
        barrier_ns: per_step(totals.iter().map(|m| m.barrier_wait_ns()).sum()),
        swap_ns: per_step(totals.iter().map(|m| m.swap_ns).sum()),
        imbalance_ns: excess_cells * rate / steps as f64,
        global_barriers: gb_events / f64::from(workers).max(1.0) / steps as f64,
        // Filled in by the caller where a traffic model / throughput
        // figure applies to the row.
        bytes_moved: 0.0,
        mlups: 0.0,
        p50_step_ns: step_hist.quantile(0.50) as f64,
        p99_step_ns: step_hist.quantile(0.99) as f64,
    }
}

/// Modeled per-step main-memory bytes of the *untiled* per-stage replay
/// over `parts`: each island streams every stage's inputs and outputs
/// over its halo-enlarged requirement regions, summed across islands
/// (so redundant halo traffic is priced in).
fn staged_bytes(parts: &[Region3], domain: Region3) -> f64 {
    let problem = MpdataProblem::standard();
    let graph = problem.graph();
    parts
        .iter()
        .filter(|p| !p.is_empty())
        .map(|&p| staged_traffic_bytes(graph, &graph.required_regions(p, domain)))
        .sum::<usize>() as f64
}

/// Modeled per-step main-memory bytes of the *tile-fused* replay over
/// `parts` with `TileMode::Auto` extents: per tile, only the external
/// input hulls are read and the owned output cells written —
/// intermediates stay resident in the rank-private scratch.
fn tiled_bytes(parts: &[Region3], domain: Region3) -> f64 {
    let problem = MpdataProblem::standard();
    let graph = problem.graph();
    let tile = choose_tile(graph, domain, TILE_CACHE_BYTES);
    let mut total = 0_usize;
    for &p in parts {
        total += tiled_traffic_bytes(graph, &tile_grid(p, tile), domain);
    }
    total as f64
}

/// Millions of lattice updates per second at `median_ns` per step.
fn mlups(median_ns: Option<f64>, domain: Region3) -> f64 {
    median_ns.map_or(0.0, |ns| domain.cells() as f64 * 1000.0 / ns)
}

/// Island cut positions along I for `islands` teams under `balance`.
///
/// `measured` probes `PROBE_STEPS` traced steps with the uniform cuts
/// and `workers_per_island` ranks per team, then re-cuts with the
/// observed per-island kernel rates scaling the cost model's planes.
fn island_parts(
    balance: Balance,
    pool: &WorkerPool,
    domain: Region3,
    islands: usize,
    workers_per_island: usize,
) -> Vec<Region3> {
    let problem = MpdataProblem::standard();
    let graph = problem.graph();
    let uniform = domain.split(Axis::I, islands);
    let model = CostModel::from_graph(graph);
    match balance {
        Balance::Uniform => uniform,
        Balance::Model => balanced_cuts(graph, domain, domain, Axis::I, islands, &model),
        Balance::Measured => {
            const PROBE_STEPS: usize = 3;
            let spec = TeamSpec::even(islands * workers_per_island, workers_per_island);
            let probe = IslandsExecutor::new(pool, spec, Axis::I)
                .cache_bytes(CACHE_BYTES)
                .with_partition(uniform.clone());
            let mut f = gaussian_pulse(domain, (0.2, 0.1, 0.05));
            probe.run(&mut f, 1).unwrap(); // plan build outside the probe
            let session = islands_trace::Session::start();
            probe.run(&mut f, PROBE_STEPS).unwrap();
            let totals = RunMetrics::aggregate(&session.finish()).totals();
            let mut stats = vec![(0_u64, 0_u64); islands];
            for m in &totals {
                if m.island != islands_trace::NO_ISLAND {
                    stats[m.island as usize] = (m.kernel_ns, m.computed_cells);
                }
            }
            let scale = measured_plane_scale(&uniform, Axis::I, domain.range(Axis::I), &stats);
            let model = model.with_plane_scale(scale);
            balanced_cuts(graph, domain, domain, Axis::I, islands, &model)
        }
    }
}

/// Small enough to split every island into several wavefront blocks on
/// both bench domains.
const CACHE_BYTES: usize = 1 << 20;

/// Scratch budget for the tile-fused rows. Larger than [`CACHE_BYTES`]
/// on purpose: the traffic the tiled rows model is *main-memory*
/// traffic, so tile scratch only has to stay resident in the last-level
/// cache (a per-core LLC slice is typically several MiB), while the
/// choose_tile footprint model conservatively charges every live buffer
/// at full enlarged extent. Budgeting tiles at the L2-sized
/// `CACHE_BYTES` shrinks them until the per-face halo recompute
/// dominates the step; at 4 MiB the balanced grid rounds the targets
/// down to even part divisors with single-digit recompute overhead.
const TILE_CACHE_BYTES: usize = 4 << 20;

/// Steps per steady-state batch (one pool dispatch, `STEADY_STEPS`
/// plan replays).
const STEADY_STEPS: u64 = 8;

fn main() {
    let balance = balance_from_env();
    let mut h = Harness::from_env();
    let quick = h.quick();
    let (domain, island_counts): (Region3, &[usize]) = if quick {
        (Region3::of_extent(60, 30, 16), &[1, 4])
    } else {
        (Region3::of_extent(120, 60, 32), &[1, 4, 14])
    };
    println!("balance mode: {balance:?}");
    let fields = gaussian_pulse(domain, (0.2, 0.1, 0.05));

    let mut g = h.group("steady_state");
    g.sample_size(7);
    for &p in island_counts {
        let pool = WorkerPool::new(p);
        let spec = TeamSpec::even(p, p); // one single-core island per P
        let parts = island_parts(balance, &pool, domain, p, 1);

        let mut f: MpdataFields = fields.clone();
        g.bench_param("islands_first", p, || {
            let fresh = IslandsExecutor::new(&pool, spec.clone(), Axis::I)
                .cache_bytes(CACHE_BYTES)
                .with_partition(parts.clone());
            fresh.run(&mut f, 1).unwrap();
        });
        let warmed = IslandsExecutor::new(&pool, spec.clone(), Axis::I)
            .cache_bytes(CACHE_BYTES)
            .with_partition(parts.clone());
        let mut f = fields.clone();
        warmed.run(&mut f, 1).unwrap(); // build the plan outside the timing
        let steady = format!("islands_steady/{p}");
        g.bench_per_unit(&steady, STEADY_STEPS, || {
            warmed.run(&mut f, STEADY_STEPS as usize).unwrap();
        });
        if g.benched(&steady) {
            let mut phases = traced_phases(STEADY_STEPS, || {
                warmed.run(&mut f, STEADY_STEPS as usize).unwrap();
            });
            phases.bytes_moved = staged_bytes(&parts, domain);
            phases.mlups = mlups(g.median_ns(&steady), domain);
            g.attach_phases(&steady, phases);
        }

        // Tile-fused point: the same islands schedule with the parts
        // cut into cache-sized column tiles (`TileMode::Auto`), each
        // tile's whole chain replayed against rank-private scratch —
        // bit-identical numerics, a fraction of the modeled traffic.
        // The tile budget is TILE_CACHE_BYTES, not CACHE_BYTES: tile
        // scratch only needs *last-level* residency to cut the modeled
        // main-memory traffic, and the tighter L2 budget would shrink
        // tiles until redundant halo recompute dominates the step.
        if p == 4 {
            let mut f = fields.clone();
            g.bench_param("tiled_first", p, || {
                let fresh = IslandsExecutor::new(&pool, spec.clone(), Axis::I)
                    .cache_bytes(TILE_CACHE_BYTES)
                    .with_partition(parts.clone())
                    .tile(TileMode::Auto);
                fresh.run(&mut f, 1).unwrap();
            });
            let warmed = IslandsExecutor::new(&pool, spec.clone(), Axis::I)
                .cache_bytes(TILE_CACHE_BYTES)
                .with_partition(parts.clone())
                .tile(TileMode::Auto);
            let mut f = fields.clone();
            warmed.run(&mut f, 1).unwrap();
            let steady = format!("tiled_steady/{p}");
            g.bench_per_unit(&steady, STEADY_STEPS, || {
                warmed.run(&mut f, STEADY_STEPS as usize).unwrap();
            });
            if g.benched(&steady) {
                let mut phases = traced_phases(STEADY_STEPS, || {
                    warmed.run(&mut f, STEADY_STEPS as usize).unwrap();
                });
                phases.bytes_moved = tiled_bytes(&parts, domain);
                phases.mlups = mlups(g.median_ns(&steady), domain);
                g.attach_phases(&steady, phases);
            }
        }

        // Dynamic self-scheduling point: two 2-worker islands, chunked
        // epoch work units claimed from the per-island queues. Full
        // mode only: on the quick smoke domain the plan-build
        // amortization that the steady/first ordering gate checks is
        // smaller than the dynamic path's claim-timing noise (the
        // dynamic replay is smoke-covered by CI's balance-smoke step
        // instead).
        if p == 4 && !quick {
            let dyn_spec = TeamSpec::even(4, 2);
            let dyn_parts = island_parts(balance, &pool, domain, 2, 2);
            let mut f = fields.clone();
            g.bench_param("islands_dyn_first", p, || {
                let fresh = IslandsExecutor::new(&pool, dyn_spec.clone(), Axis::I)
                    .cache_bytes(CACHE_BYTES)
                    .with_partition(dyn_parts.clone())
                    .self_schedule(2);
                fresh.run(&mut f, 1).unwrap();
            });
            let warmed = IslandsExecutor::new(&pool, dyn_spec.clone(), Axis::I)
                .cache_bytes(CACHE_BYTES)
                .with_partition(dyn_parts.clone())
                .self_schedule(2);
            let mut f = fields.clone();
            warmed.run(&mut f, 1).unwrap();
            let steady = format!("islands_dyn_steady/{p}");
            g.bench_per_unit(&steady, STEADY_STEPS, || {
                warmed.run(&mut f, STEADY_STEPS as usize).unwrap();
            });
            if g.benched(&steady) {
                let mut phases = traced_phases(STEADY_STEPS, || {
                    warmed.run(&mut f, STEADY_STEPS as usize).unwrap();
                });
                phases.bytes_moved = staged_bytes(&dyn_parts, domain);
                phases.mlups = mlups(g.median_ns(&steady), domain);
                g.attach_phases(&steady, phases);
            }
        }

        // Temporal-blocking points: the same islands schedule replayed
        // as k-step fused epochs (`IslandsExecutor::fuse_steps`), so the
        // global barrier pair is paid once per epoch instead of once per
        // step. The attached `global_barriers` phase field is the
        // per-step crossing count — it must fall ~k× from the unfused
        // `islands_steady` row while the verify-checked numerics stay
        // bit-identical. STEADY_STEPS is divisible by both depths, so no
        // partial tail epoch distorts the steady rows.
        if p == 4 {
            for k in [2_usize, 4] {
                let mut f = fields.clone();
                // The first row runs one *full* k-step epoch (not a
                // 1-step tail, which replays only the final unenlarged
                // section): its per-step cost is then the same fused
                // work the steady row replays, plus the amortized plan
                // build — the pair gates build amortization, not the
                // fused-vs-unfused step cost difference.
                g.bench_per_unit(&format!("fuse{k}_first/{p}"), k as u64, || {
                    let fresh = IslandsExecutor::new(&pool, spec.clone(), Axis::I)
                        .cache_bytes(CACHE_BYTES)
                        .with_partition(parts.clone())
                        .fuse_steps(k);
                    fresh.run(&mut f, k).unwrap();
                });
                let warmed = IslandsExecutor::new(&pool, spec.clone(), Axis::I)
                    .cache_bytes(CACHE_BYTES)
                    .with_partition(parts.clone())
                    .fuse_steps(k);
                let mut f = fields.clone();
                warmed.run(&mut f, 1).unwrap();
                let steady = format!("fuse{k}_steady/{p}");
                g.bench_per_unit(&steady, STEADY_STEPS, || {
                    warmed.run(&mut f, STEADY_STEPS as usize).unwrap();
                });
                if g.benched(&steady) {
                    let phases = traced_phases(STEADY_STEPS, || {
                        warmed.run(&mut f, STEADY_STEPS as usize).unwrap();
                    });
                    g.attach_phases(&steady, phases);
                }
            }
        }

        let mut f = fields.clone();
        g.bench_param("fused_first", p, || {
            let fresh = IslandsExecutor::single_island(&pool, MpdataProblem::standard())
                .cache_bytes(CACHE_BYTES);
            fresh.run(&mut f, 1).unwrap();
        });
        let warmed = IslandsExecutor::single_island(&pool, MpdataProblem::standard())
            .cache_bytes(CACHE_BYTES);
        let mut f = fields.clone();
        warmed.run(&mut f, 1).unwrap();
        let steady = format!("fused_steady/{p}");
        g.bench_per_unit(&steady, STEADY_STEPS, || {
            warmed.run(&mut f, STEADY_STEPS as usize).unwrap();
        });
        if g.benched(&steady) {
            let mut phases = traced_phases(STEADY_STEPS, || {
                warmed.run(&mut f, STEADY_STEPS as usize).unwrap();
            });
            phases.bytes_moved = staged_bytes(&[domain], domain);
            phases.mlups = mlups(g.median_ns(&steady), domain);
            g.attach_phases(&steady, phases);
        }
    }
    g.finish();
    h.finish();
}
