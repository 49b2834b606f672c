//! The four MPDATA workloads: set-up, the closed-loop batch solve, the
//! traced pass and output verification.

use crate::host::{peak_rss_mb, Host};
use crate::outcome::{fingerprint_json, Outcome};
use crate::probes;
use crate::spans::Spans;
use crate::stats::{median, median_sorted, quantile_sorted, samples_beyond, sorted};
use crate::workloads::{Input, MpdataSpec, Workload, BATCH_STEPS};
use crate::RunArgs;
use islands_analysis::{check_disjointness, islands_plan, islands_plan_tiled};
use islands_trace::json::Json;
use islands_trace::metrics::RunMetrics;
use islands_trace::{Drained, Session, SpanKind, NO_ISLAND};
use mpdata::{
    gaussian_pulse, random_fields, IslandsExecutor, MpdataFields, MpdataProblem, OriginalExecutor,
    ReferenceExecutor, TileMode, DEFAULT_CACHE_BYTES,
};
use std::time::Instant;
use stencil_engine::rng::{hash_f64_slice, Rng64, Xoshiro256pp};
use stencil_engine::{choose_tile, Array3, Axis, Region3};
use work_scheduler::{TeamSpec, WorkerPool};

/// Steps after which the advected field is restored from its initial
/// snapshot (between batches, untimed). Long random-velocity runs
/// deplete diverging cells geometrically; restoring keeps every sample
/// in the same numerical regime and far from denormal arithmetic.
const RESET_STEPS: usize = 64;
/// Untimed warm-up batches before timing, on top of the set-up's first
/// `run(…, 4)`: two untimed batches precede every timed one.
const WARMUP_BATCHES: usize = 1;
/// Fewest timed batches per configuration, however short `--seconds` is.
const MIN_BATCHES: usize = 3;
/// Length of a block of main batches, ns (a block runs at least one).
const BLOCK_NS: f64 = 0.3e9;
/// Time given to baseline batches, as a share of the main batches' time.
const BASELINE_SHARE: f64 = 0.5;
/// Batches of the traced pass at most: bounds ring memory and the
/// quadratic step lookup of `RunMetrics::aggregate`.
const MAX_TRACED_BATCHES: usize = 256;
/// Steps of the output-verification prefix.
const PREFIX_STEPS: usize = 2;

/// The inputs of a workload for `seed`. `paper_serial` and
/// `paper_islands` share grid and generator, so one seed gives both the
/// same fields.
fn make_fields(spec: &MpdataSpec, seed: u64) -> MpdataFields {
    let (ni, nj, nk) = spec.extent;
    let domain = Region3::of_extent(ni, nj, nk);
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    match spec.input {
        Input::Gaussian => {
            // |c| sums to at most 0.75: stable, and never stationary.
            let mut c = || {
                let magnitude = rng.range_f64(0.05, 0.25);
                if rng.next_bool() {
                    magnitude
                } else {
                    -magnitude
                }
            };
            gaussian_pulse(domain, (c(), c(), c()))
        }
        Input::Random => random_fields(&mut rng, domain, 0.8),
    }
}

fn build_exec<'p>(pool: &'p WorkerPool, spec: &MpdataSpec) -> IslandsExecutor<'p> {
    let teams = TeamSpec::even(spec.workers(), spec.islands);
    let exec = IslandsExecutor::new(pool, teams, Axis::I)
        .tile(spec.tile)
        .fuse_steps(spec.fuse_steps);
    if spec.self_schedule > 0 {
        exec.self_schedule(spec.self_schedule)
    } else {
        exec
    }
}

/// The same grid on one worker with every knob off.
fn serial_spec(spec: &MpdataSpec) -> MpdataSpec {
    MpdataSpec {
        islands: 1,
        team_size: 1,
        tile: TileMode::Off,
        fuse_steps: 1,
        self_schedule: 0,
        ..spec.clone()
    }
}

/// Phase times of one fresh set-up, ns.
#[derive(Clone, Copy, Debug, Default)]
struct SetupTimes {
    total: u64,
    first_run: u64,
    /// Fingerprint of the field after the first run's four steps.
    fingerprint: u64,
}

/// One fresh set-up — field generation, `WorkerPool::new`, executor
/// construction and the first `run(…, 4)` (which builds the plan) —
/// then `body` with the live executor and fields.
fn with_setup<R>(
    spec: &MpdataSpec,
    seed: u64,
    spans: &mut Spans,
    body: impl FnOnce(&mut Spans, SetupTimes, &IslandsExecutor<'_>, &mut MpdataFields) -> R,
) -> Result<R, String> {
    let setup = spans.open("setup");
    let t = spans.open("fields");
    let mut fields = make_fields(spec, seed);
    spans.close(t);
    let t = spans.open("pool_spawn");
    let pool = WorkerPool::new(spec.workers());
    spans.close(t);
    let t = spans.open("exec_build");
    let exec = build_exec(&pool, spec);
    spans.close(t);
    let t = spans.open("first_run");
    let ran = exec.run(&mut fields, BATCH_STEPS);
    let first_run = spans.close(t);
    let total = spans.close(setup);
    ran.map_err(|e| format!("first run failed: {e}"))?;
    let times = SetupTimes {
        total,
        first_run,
        fingerprint: hash_f64_slice(fields.x.as_slice()),
    };
    Ok(body(spans, times, &exec, &mut fields))
}

/// The closed loop's state: one caller, the next batch starts when the
/// previous `run` returns.
struct Solve<'a> {
    x_init: &'a Array3,
    steps_since_reset: usize,
    ops: u64,
    failed: u64,
}

impl Solve<'_> {
    /// One `run(…, 4)`; returns its start and elapsed ns.
    fn batch(
        &mut self,
        exec: &IslandsExecutor<'_>,
        fields: &mut MpdataFields,
        spans: &mut Spans,
        name: &str,
    ) -> (u64, u64) {
        if self.steps_since_reset >= RESET_STEPS {
            fields
                .x
                .as_mut_slice()
                .copy_from_slice(self.x_init.as_slice());
            self.steps_since_reset = 0;
        }
        let t = spans.open(name);
        let start = t.start_ns();
        let ran = exec.run(fields, BATCH_STEPS);
        let ns = spans.close(t);
        self.steps_since_reset += BATCH_STEPS;
        self.ops += 1;
        if let Err(e) = ran {
            eprintln!("batch failed: {e}");
            self.failed += 1;
        }
        (start, ns)
    }

    /// Main batches until they sum to `seconds` (and number at least
    /// [`MIN_BATCHES`]). With a `baseline`, blocks of main batches
    /// alternate with blocks of baseline batches that are given half the
    /// main time on top of the window: within a block the loop stays
    /// closed on one executor (its workers stay warm, as under a single
    /// caller), and machine drift still hits both sides alike. Returns
    /// the batch times (main, baseline) in ns.
    fn timed_loop(
        &mut self,
        exec: &IslandsExecutor<'_>,
        baseline: Option<&IslandsExecutor<'_>>,
        fields: &mut MpdataFields,
        spans: &mut Spans,
        seconds: f64,
    ) -> (Vec<f64>, Vec<f64>) {
        let (mut main, mut base): (Vec<f64>, Vec<f64>) = (Vec::new(), Vec::new());
        let (mut main_ns, mut base_ns) = (0.0, 0.0);
        while main.len() < MIN_BATCHES || main_ns < seconds * 1e9 {
            let block_end = main_ns + BLOCK_NS;
            while main_ns < block_end {
                main.push(self.batch(exec, fields, spans, "batch").1 as f64);
                main_ns += main[main.len() - 1];
            }
            if let Some(b) = baseline {
                while base_ns < BASELINE_SHARE * main_ns {
                    base.push(self.batch(b, fields, spans, "baseline_batch").1 as f64);
                    base_ns += base[base.len() - 1];
                }
            }
        }
        (main, base)
    }
}

fn step_ms(batch_ns: f64) -> f64 {
    batch_ns / BATCH_STEPS as f64 / 1e6
}

/// Count, minimum, quartiles and maximum of the step samples, for the
/// detail record.
fn step_summary(batch_ns: &[f64]) -> Json {
    let s = sorted(batch_ns.to_vec());
    let q = |q: f64| Json::Num(step_ms(quantile_sorted(&s, q)));
    Json::Object(vec![
        ("count".into(), Json::Num(s.len() as f64)),
        ("min_ms".into(), q(0.0)),
        ("p25_ms".into(), q(0.25)),
        ("p50_ms".into(), Json::Num(step_ms(median_sorted(&s)))),
        ("p75_ms".into(), q(0.75)),
        ("max_ms".into(), q(1.0)),
    ])
}

/// Runs one MPDATA workload; returns its outcome and recorded spans.
pub fn run(
    w: &Workload,
    spec: &MpdataSpec,
    args: &RunArgs,
    host: &Host,
) -> Result<(Outcome, Spans), String> {
    let mut out = Outcome::default();
    let mut spans = Spans::new(w.name, args.trace);
    let workload = spans.open("workload");

    // Throw-away set-ups first (untraced run only); the last stays live.
    let mut setups: Vec<SetupTimes> = Vec::new();
    let fresh = if args.trace { 1 } else { spec.setups.max(1) };
    for _ in 1..fresh {
        setups.push(with_setup(spec, args.seed, &mut spans, |_, t, _, _| t)?);
    }
    out.ops_attempted += fresh as u64;
    let ran = with_setup(spec, args.seed, &mut spans, |spans, t, exec, fields| {
        setups.push(t);
        if args.trace {
            traced_run(w, spec, args, host, &setups, exec, fields, spans, &mut out)
        } else {
            untraced_run(spec, args, &setups, exec, fields, spans, &mut out)
        }
    })?;
    ran?;
    spans.close(workload);

    Ok((out, spans))
}

/// The untraced run: every end-to-end metric.
fn untraced_run(
    spec: &MpdataSpec,
    args: &RunArgs,
    setups: &[SetupTimes],
    exec: &IslandsExecutor<'_>,
    fields: &mut MpdataFields,
    spans: &mut Spans,
    out: &mut Outcome,
) -> Result<(), String> {
    let init = make_fields(spec, args.seed);
    let mut solve = Solve {
        x_init: &init.x,
        steps_since_reset: BATCH_STEPS,
        ops: 0,
        failed: 0,
    };
    let token = spans.open("solve");
    for _ in 0..WARMUP_BATCHES {
        solve.batch(exec, fields, spans, "warmup_batch");
    }
    // Steady-state stepping allocates nothing (pinned by `mpdata`'s
    // zero-allocation test), so the workload's own peak is reached
    // here, before the serial baseline adds its plan to the process.
    let rss = peak_rss_mb();
    // The plain one-worker configuration of the same grid, measured in
    // the same loop so machine drift cancels in the efficiency ratio.
    let base_spec = serial_spec(spec);
    let base_pool = (!spec.is_serial_baseline()).then(|| WorkerPool::new(1));
    let baseline = base_pool.as_ref().map(|p| build_exec(p, &base_spec));
    if let Some(b) = &baseline {
        // Its first batch builds the plan and touches the scratch.
        solve.batch(b, fields, spans, "warmup_batch");
    }
    let (main, base) = solve.timed_loop(exec, baseline.as_ref(), fields, spans, args.seconds);
    spans.close(token);
    out.ops_attempted += solve.ops;
    out.ops_failed += solve.failed;

    let setup_s = median(
        &setups
            .iter()
            .map(|s| s.total as f64 / 1e9)
            .collect::<Vec<_>>(),
    );
    let timed_ns: f64 = main.iter().sum();
    let timed_steps = (main.len() * BATCH_STEPS) as f64;
    let p50 = step_ms(median(&main));
    let cells = fields.domain().cells() as f64;
    let flops = MpdataProblem::standard().flops_per_cell();
    out.values.set("setup_s", setup_s);
    out.values.set(
        "total_s",
        setup_s + spec.nominal_steps as f64 * timed_ns / timed_steps / 1e9,
    );
    out.values.set("step_ms_p50", p50);
    out.values
        .set("gflops", cells * flops * timed_steps / timed_ns);
    out.values.set(
        "par_eff",
        if base.is_empty() {
            1.0
        } else {
            step_ms(median(&base)) / (spec.workers() as f64 * p50)
        },
    );
    out.values.set("peak_rss_mb", rss);

    let same = setups
        .iter()
        .all(|s| s.fingerprint == setups[0].fingerprint);
    out.check(
        "setups_reproducible",
        same,
        format!(
            "{} set-ups, 4-step fingerprint {:016x}",
            setups.len(),
            setups[0].fingerprint
        ),
    );
    let prefix = verify(
        spec,
        init,
        exec,
        baseline.as_ref(),
        fields,
        false,
        spans,
        out,
    )?;
    out.detail.extend([
        (
            "samples".into(),
            Json::Object(vec![
                ("step".into(), step_summary(&main)),
                ("baseline_step".into(), step_summary(&base)),
                ("setups".into(), Json::Num(setups.len() as f64)),
            ]),
        ),
        (
            "fingerprints".into(),
            Json::Object(vec![
                ("setup4".into(), fingerprint_json(setups[0].fingerprint)),
                ("prefix2".into(), fingerprint_json(prefix)),
            ]),
        ),
    ]);
    Ok(())
}

/// The traced run: the per-layer metrics.
#[allow(clippy::too_many_arguments)]
fn traced_run(
    w: &Workload,
    spec: &MpdataSpec,
    args: &RunArgs,
    host: &Host,
    setups: &[SetupTimes],
    exec: &IslandsExecutor<'_>,
    fields: &mut MpdataFields,
    spans: &mut Spans,
    out: &mut Outcome,
) -> Result<(), String> {
    let init = make_fields(spec, args.seed);
    let mut solve = Solve {
        x_init: &init.x,
        steps_since_reset: BATCH_STEPS,
        ops: 0,
        failed: 0,
    };
    let token = spans.open("solve");
    for _ in 0..WARMUP_BATCHES {
        solve.batch(exec, fields, spans, "warmup_batch");
    }
    // Untraced three quarters first: the reference the traced pass is
    // set against, and enough samples for a 99th percentile on the
    // workload whose steps are short enough to have one.
    let (untraced, _) = solve.timed_loop(exec, None, fields, spans, 0.75 * args.seconds);
    let untraced_sorted = sorted(untraced.clone());
    let untraced_p50 = median_sorted(&untraced_sorted);

    // One traced batch sizes the rings for the pass.
    let session = Session::start();
    solve.batch(exec, fields, spans, "traced_warmup_batch");
    let probe = session.finish();
    let per_thread = (0..=probe.events.iter().map(|t| t.thread).max().unwrap_or(0))
        .map(|th| probe.events.iter().filter(|t| t.thread == th).count())
        .max()
        .unwrap_or(0);
    let planned = ((0.25 * args.seconds * 1e9 / untraced_p50).ceil() as usize)
        .clamp(MIN_BATCHES, MAX_TRACED_BATCHES);
    islands_trace::set_ring_capacity((per_thread * (planned + 2) * 5 / 4).next_power_of_two());
    let session = Session::start();
    let mut windows: Vec<(u64, u64)> = Vec::with_capacity(planned);
    for _ in 0..planned {
        let (start, ns) = solve.batch(exec, fields, spans, "traced_batch");
        windows.push((start, start + ns));
    }
    let t = spans.open("trace.drain");
    let mut drained = session.finish();
    let drain_ns = spans.close(t);
    islands_trace::set_ring_capacity(islands_trace::DEFAULT_RING_CAPACITY);
    spans.close(token);
    out.ops_attempted += solve.ops;
    out.ops_failed += solve.failed;

    // Step tags restart at 0 in every `run`; make them unique across
    // the pass so the aggregation sees one row per executed step.
    for t in &mut drained.events {
        let batch = windows
            .partition_point(|w| w.0 <= t.ev.start_ns)
            .saturating_sub(1);
        t.ev.step += (batch * BATCH_STEPS) as u32;
    }
    let first_batch = Drained {
        events: drained
            .events
            .iter()
            .filter(|t| t.ev.start_ns < windows[0].1)
            .copied()
            .collect(),
        dropped: 0,
    };
    let t = spans.open("trace.aggregate");
    let metrics = RunMetrics::aggregate(&drained);
    let aggregate_ns = spans.close(t);
    let registry = islands_trace::registry::MetricsRegistry::new(spec.islands);
    let t = spans.open("trace.registry_absorb");
    for ev in &drained.events {
        registry.absorb(ev);
    }
    let absorb_ns = spans.close(t);

    let traced: Vec<f64> = windows.iter().map(|w| (w.1 - w.0) as f64).collect();
    let events = drained.events.len().max(1) as f64;
    let steps = (planned * BATCH_STEPS) as f64;
    let v = &mut out.values;
    v.set("trace.overhead_ratio", median(&traced) / untraced_p50);
    v.set("trace.drain_ns_per_event", drain_ns as f64 / events);
    v.set("trace.aggregate_ns_per_event", aggregate_ns as f64 / events);
    v.set("trace.registry_absorb_ns", absorb_ns as f64 / events);
    v.set("trace.events_per_step", drained.events.len() as f64 / steps);
    v.set("trace.dropped_events", drained.dropped as f64);
    phase_metrics(v, &metrics, &drained, steps);

    // The first run is four steps plus whatever only happens once.
    let first_ms = setups[0].first_run as f64 / 1e6;
    let p50 = step_ms(untraced_p50);
    v.set("mpdata.first_step_ms", first_ms - 3.0 * p50);
    v.set("mpdata.plan_build_ms", first_ms - 4.0 * p50);
    v.set("step_ms_p99", {
        // Reported only with at least ten samples beyond it.
        if samples_beyond(untraced_sorted.len(), 0.99) >= 10 {
            step_ms(quantile_sorted(&untraced_sorted, 0.99))
        } else {
            0.0
        }
    });

    if spec.tile != TileMode::Off || spec.fuse_steps > 1 || spec.self_schedule > 0 {
        // Same grid, same workers, knobs off: do the knobs pay?
        let plain_spec = MpdataSpec {
            tile: TileMode::Off,
            fuse_steps: 1,
            self_schedule: 0,
            ..spec.clone()
        };
        let pool = WorkerPool::new(spec.workers());
        let plain = build_exec(&pool, &plain_spec);
        let token = spans.open("plain");
        solve.batch(&plain, fields, spans, "warmup_batch");
        let samples: Vec<f64> = (0..10)
            .map(|_| solve.batch(&plain, fields, spans, "plain_batch").1 as f64)
            .collect();
        spans.close(token);
        let plain_ms = step_ms(median(&samples));
        out.values.set("mpdata.plain_step_ms", plain_ms);
        out.values.set("mpdata.knob_gain", plain_ms / p50);
    }

    out.check(
        "no_dropped_events",
        drained.dropped == 0,
        format!(
            "{} events, {} dropped",
            drained.events.len(),
            drained.dropped
        ),
    );
    let accounted = out.values.get("mpdata.accounted_frac").unwrap_or(0.0);
    if !(0.9..=1.1).contains(&accounted) {
        eprintln!(
            "WARN {}: traced phases account for {accounted:.3} of the step wall (outside 0.9..1.1)",
            w.name
        );
    }
    let prefix = verify(spec, init, exec, None, fields, true, spans, out)?;

    let token = spans.open("probes");
    let problem = MpdataProblem::standard();
    let domain = fields.domain();
    probes::stencil(
        &mut out.values,
        spec,
        &problem,
        domain,
        &exec.partition(domain),
        DEFAULT_CACHE_BYTES,
        spans,
    );
    let (roofs, triad_bytes) = probes::host(&mut out.values, host, args.smoke, spans);
    probes::kernels(&mut out.values, Some(roofs), spans);
    probes::scheduler(&mut out.values, spec.workers(), args.smoke, spans);
    probes::trace_recorder(&mut out.values, &registry, spans);
    spans.close(token);

    let stage_names: Vec<String> = problem
        .graph()
        .stages()
        .iter()
        .map(|s| s.name.clone())
        .collect();
    out.detail.extend([
        (
            "samples".into(),
            Json::Object(vec![
                ("untraced_step".into(), step_summary(&untraced)),
                ("traced_step".into(), step_summary(&traced)),
                (
                    "traced_events".into(),
                    Json::Num(drained.events.len() as f64),
                ),
            ]),
        ),
        (
            "fingerprints".into(),
            Json::Object(vec![("prefix2".into(), fingerprint_json(prefix))]),
        ),
        (
            "bandwidth_probe".into(),
            Json::Object(vec![
                ("array_bytes".into(), Json::Num(triad_bytes as f64)),
                ("llc_bytes".into(), Json::Num(host.llc_bytes() as f64)),
                (
                    "array_is_4x_llc".into(),
                    Json::Bool(triad_bytes >= 4 * host.llc_bytes()),
                ),
            ]),
        ),
    ]);
    crate::stash_program_events(&first_batch, &stage_names, out);
    Ok(())
}

/// Phase attribution of the traced pass, through `RunMetrics`.
fn phase_metrics(
    v: &mut crate::catalog::Values,
    metrics: &RunMetrics,
    drained: &Drained,
    steps: f64,
) {
    let totals = metrics.totals();
    let islands: Vec<_> = totals.iter().filter(|m| m.island != NO_ISLAND).collect();
    let workers: f64 = islands
        .iter()
        .map(|m| f64::from(m.workers))
        .sum::<f64>()
        .max(1.0);
    let sum = |f: &dyn Fn(&islands_trace::metrics::IslandMetrics) -> u64| -> f64 {
        totals.iter().map(|m| f(m) as f64).sum()
    };
    let per_worker_step_ms = |ns: f64| ns / workers / steps / 1e6;
    let kernel = sum(&|m| m.kernel_ns);
    let barrier = sum(&|m| m.barrier_wait_ns());
    let accounted = sum(&|m| m.accounted_ns());
    v.set("mpdata.kernel_ms_per_step", per_worker_step_ms(kernel));
    v.set("mpdata.barrier_ms_per_step", per_worker_step_ms(barrier));
    v.set(
        "mpdata.swap_ms_per_step",
        per_worker_step_ms(sum(&|m| m.swap_ns)),
    );
    v.set("mpdata.kernel_share", kernel / accounted.max(1.0));
    v.set(
        "mpdata.accounted_frac",
        metrics.accounted().fraction.unwrap_or(0.0),
    );
    v.set(
        "mpdata.imbalance_ratio",
        metrics.imbalance_summary().map_or(0.0, |s| s.ratio),
    );
    v.set(
        "mpdata.redundant_cell_frac",
        sum(&|m| m.redundant_cells) / sum(&|m| m.computed_cells).max(1.0),
    );
    let global_crossings = drained
        .events
        .iter()
        .filter(|t| t.ev.kind == SpanKind::GlobalBarrier)
        .count() as f64;
    v.set(
        "mpdata.global_barriers_per_step",
        global_crossings / workers / steps,
    );
    v.set(
        "scheduler.barrier_park_frac",
        sum(&|m| m.park_ns) / barrier.max(1.0),
    );
}

/// Output verification. Returns the 2-step prefix fingerprint.
///
/// * 2 steps of the workload's executor from the initial fields equal
///   `ReferenceExecutor` bitwise (and, with a `baseline`, the plain
///   one-worker executor's prefix has the same fingerprint);
/// * the final field of the solve is finite and non-negative, with mass
///   inside the tolerance `mpdata`'s own tests assert (closed box:
///   1e-9 relative; open box: never above 1.001 × initial);
/// * `check_disjointness` of the workload's schedule is clean.
///
/// The traced run additionally steps `OriginalExecutor` (context rows)
/// and times the lint.
#[allow(clippy::too_many_arguments)]
fn verify(
    spec: &MpdataSpec,
    init: MpdataFields,
    exec: &IslandsExecutor<'_>,
    baseline: Option<&IslandsExecutor<'_>>,
    fields: &MpdataFields,
    traced: bool,
    spans: &mut Spans,
    out: &mut Outcome,
) -> Result<u64, String> {
    let token = spans.open("verify");
    let finite = fields.x.as_slice().iter().all(|x| x.is_finite());
    out.check(
        "final_finite",
        finite,
        "every cell of the final field".into(),
    );
    let min = fields.x.min();
    out.check("final_nonnegative", min >= -1e-12, format!("min = {min:e}"));
    let drift = fields.mass() / init.mass() - 1.0;
    let mass_ok = match spec.input {
        Input::Random => drift.abs() <= 1e-9,
        Input::Gaussian => drift <= 1e-3,
    };
    out.check("mass_drift", mass_ok, format!("relative drift {drift:+e}"));

    let t = spans.open("reference_prefix");
    let mut got = init.clone();
    out.ops_attempted += 1;
    exec.run(&mut got, PREFIX_STEPS)
        .map_err(|e| format!("prefix run failed: {e}"))?;
    let prefix = hash_f64_slice(got.x.as_slice());
    let mut reference = init.clone();
    let t_ref = Instant::now();
    ReferenceExecutor::new().run(&mut reference, PREFIX_STEPS);
    let reference_ms = t_ref.elapsed().as_secs_f64() * 1e3 / PREFIX_STEPS as f64;
    let diff = got.x.max_abs_diff(&reference.x);
    out.check(
        "prefix_bitwise",
        diff == 0.0,
        format!("max |Δ| vs reference after {PREFIX_STEPS} steps = {diff:e}"),
    );
    if let Some(b) = baseline {
        let mut serial = init.clone();
        out.ops_attempted += 1;
        b.run(&mut serial, PREFIX_STEPS)
            .map_err(|e| format!("baseline prefix run failed: {e}"))?;
        let fp = hash_f64_slice(serial.x.as_slice());
        out.check(
            "serial_prefix_equal",
            fp == prefix,
            format!("{fp:016x} (1 worker, knobs off) vs {prefix:016x}"),
        );
    }
    if traced {
        out.values.set("mpdata.reference_step_ms", reference_ms);
        let pool = WorkerPool::new(spec.workers());
        let mut original = init;
        let t_orig = Instant::now();
        OriginalExecutor::new(&pool).run(&mut original, PREFIX_STEPS);
        out.values.set(
            "mpdata.original_step_ms",
            t_orig.elapsed().as_secs_f64() * 1e3 / PREFIX_STEPS as f64,
        );
        let diff = original.x.max_abs_diff(&reference.x);
        out.check(
            "original_bitwise",
            diff == 0.0,
            format!("OriginalExecutor max |Δ| vs reference = {diff:e}"),
        );
    }
    spans.close(t);

    let t = spans.open("lint");
    let problem = MpdataProblem::standard();
    let domain = fields.domain();
    let parts = exec.partition(domain);
    let t_plan = Instant::now();
    let plan = if spec.tile == TileMode::Off {
        let sizes = TeamSpec::even(spec.workers(), spec.islands).team_sizes();
        islands_plan(
            &problem,
            domain,
            &parts,
            &sizes,
            Axis::J,
            DEFAULT_CACHE_BYTES,
        )
        .map_err(|e| format!("schedule does not plan: {e}"))?
    } else {
        // Tile-level disjointness covers any assignment of tiles to
        // ranks, so it proves the self-scheduled replay as well.
        let tile = choose_tile(problem.graph(), domain, DEFAULT_CACHE_BYTES);
        islands_plan_tiled(&problem, domain, &parts, tile, spec.fuse_steps)
    };
    let plan_ms = t_plan.elapsed().as_secs_f64() * 1e3;
    let t_check = Instant::now();
    let diagnostics = check_disjointness(&plan);
    let check_ms = t_check.elapsed().as_secs_f64() * 1e3;
    out.check(
        "lint_clean",
        diagnostics.is_empty(),
        format!("{} diagnostics from check_disjointness", diagnostics.len()),
    );
    if traced {
        out.values.set("analysis.plan_build_ms", plan_ms);
        out.values.set("analysis.check_ms", check_ms);
        out.values
            .set("analysis.diagnostics", diagnostics.len() as f64);
    }
    spans.close(t);
    spans.close(token);
    Ok(prefix)
}
