//! `mpdata-run` — command-line driver for the MPDATA executors.
//!
//! ```text
//! mpdata-run [--domain NI,NJ,NK] [--steps N] [--strategy reference|original|fused|islands|exchange]
//!            [--workers W] [--islands P] [--iord N] [--boundary open|periodic]
//!            [--problem gaussian|cone|random] [--cache BYTES] [--verify]
//!            [--self-schedule N] [--fuse-steps K] [--tile auto|TIxTJ]
//!            [--trace OUT.json] [--metrics] [--metrics-json OUT.json]
//!            [--serve-metrics ADDR] [--metrics-interval SECS]
//! ```
//!
//! Example: advect a rotating cone for 50 steps on 2 islands × 2 cores
//! and verify bitwise against the serial reference:
//!
//! ```text
//! cargo run --release -p mpdata --bin mpdata-run -- \
//!     --problem cone --steps 50 --strategy islands --workers 4 --islands 2 --verify
//! ```
//!
//! `--trace out.json` records the timed run with the `islands-trace`
//! recorder and writes a Chrome trace-event file (open in
//! `chrome://tracing` or Perfetto); `--metrics` prints the per-island
//! phase breakdown (kernel / barrier / swap time, redundant cells,
//! per-worker imbalance summary). Both only affect the timed run — the
//! `--verify` reference pass is never traced. `--metrics-json OUT.json`
//! writes the same per-step/per-island breakdown as a strict JSON
//! document (self-validated through the in-repo parser before the file
//! is written).
//!
//! The *live* telemetry plane: `--serve-metrics ADDR` attaches a
//! background collector that drains the trace rings mid-run into an
//! atomic metrics registry and serves it over plain HTTP —
//! `GET /metrics` (Prometheus text exposition) and `GET /metrics.json`
//! (strict JSON snapshot) — from a std-only thread-per-connection
//! listener. `--metrics-interval SECS` prints a one-line registry
//! snapshot to stderr on that cadence. Both imply tracing; neither
//! perturbs the workers beyond the wait-free ring writes they already
//! do.
//!
//! Islands are cut uniformly along `i` (`Region3::split`). Only
//! `islands` and `exchange` read `--islands`, and only they need it to
//! divide `--workers`: `fused` and `original` run one island of every
//! worker, `reference` runs serially.
//! `--self-schedule N` splits each barrier-fenced epoch into N chunks
//! per rank that the island's workers claim dynamically (islands and
//! fused strategies) — the remedy for whatever imbalance `--metrics`
//! reports; with `--tile` the workers claim whole tiles instead and N
//! is ignored. `--fuse-steps K` fuses K whole time steps into one replay
//! epoch (temporal blocking): islands widen their halos by K
//! cumulative stencil radii and pay the global-barrier pair once per K
//! steps — still bit-identical under `--verify` (islands and fused
//! strategies). `--tile auto|TIxTJ`
//! switches those strategies to tile-fused execution: each island's
//! part is cut into (i, j) column tiles and every tile's whole stage
//! chain replays back to back against rank-private scratch shrunk to
//! the tile's halo footprint, so intermediates stay L2-resident and
//! the per-stage team barriers collapse to one per fused step. `auto`
//! sizes tiles from `--cache`; an explicit `TIxTJ` (e.g. `8x16`)
//! forces the extents. Also bit-identical under `--verify`.
//!
//! `--cache BYTES` (default 2 MiB, a core's share) sizes the wavefront
//! blocks; a budget too small for one block plans depth-1 blocks, which
//! is what the default gives the paper grid (256×256×64).
//!
//! `original` and `exchange` replay the same kind of schedule in its
//! stage-synchronous shape — one team of every worker, or one per
//! island, each stage over the team's own part into full-domain shared
//! intermediates, a global barrier per stage — so they also run
//! `--boundary periodic`, which the cache-blocked `fused` and
//! `islands` refuse.
//!
//! For every strategy but `reference` the summary carries a `scratch`
//! line: the bytes the intermediates occupy under the schedule that
//! ran — sliding windows of a few i-planes per field beside what
//! hull-sized arrays would take, the rank-private tile scratch, or the
//! full-domain arrays the stage-synchronous teams share. Untiled, a
//! `rank cut` line names the axis the first island's cores split each
//! sweep along, with the sweep that decided it: `I (32 planes ≥ 32
//! rows)` when every sweep is at least as deep as it is wide, else `J
//! (6 planes < 256 rows)`.
//!
//! The `kernels` line names the vector body the stage kernels ran:
//! `avx2` when the CPU has it, else `baseline` (SSE2 on x86-64) — picked
//! at run time, bitwise equal either way, so a throughput read off the
//! summary names the code that produced it.

use mpdata::{
    gaussian_pulse, random_fields, rotating_cone, Boundary, ExchangeExecutor, IslandsExecutor,
    MpdataFields, MpdataProblem, ReferenceExecutor, StepSchedule, TileMode,
};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;
use stencil_engine::rng::Xoshiro256pp;
use stencil_engine::{Axis, Region3};
use work_scheduler::{TeamSpec, WorkerPool};

#[derive(Clone, Copy, Debug, PartialEq)]
enum Strategy {
    Reference,
    Original,
    Fused,
    Islands,
    Exchange,
}

const STRATEGIES: [(&str, Strategy); 5] = [
    ("reference", Strategy::Reference),
    ("original", Strategy::Original),
    ("fused", Strategy::Fused),
    ("islands", Strategy::Islands),
    ("exchange", Strategy::Exchange),
];

impl Strategy {
    /// Whether the strategy replays an `IslandsExecutor` schedule, i.e.
    /// takes `--self-schedule`, `--fuse-steps` and `--tile`.
    fn plans_islands(self) -> bool {
        matches!(self, Strategy::Islands | Strategy::Fused)
    }

    /// Whether the strategy runs `--islands` teams; the others run one
    /// island (`fused`, `original`) or none (`reference`).
    fn reads_islands(self) -> bool {
        matches!(self, Strategy::Islands | Strategy::Exchange)
    }
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Problem {
    Gaussian,
    Cone,
    Random,
}

const PROBLEMS: [(&str, Problem); 3] = [
    ("gaussian", Problem::Gaussian),
    ("cone", Problem::Cone),
    ("random", Problem::Random),
];

/// Parses the value of an enumerated `flag` against its `accepted`
/// names; the error lists them.
fn parse_choice<T: Copy>(flag: &str, value: &str, accepted: &[(&str, T)]) -> Result<T, String> {
    match accepted.iter().find(|(name, _)| *name == value) {
        Some(&(_, choice)) => Ok(choice),
        None => {
            let names: Vec<&str> = accepted.iter().map(|&(name, _)| name).collect();
            Err(format!("unknown {flag} {value:?}; use {}", names.join("|")))
        }
    }
}

/// The command-line spelling of `choice`.
fn choice_name<T: Copy + PartialEq>(choice: T, accepted: &[(&'static str, T)]) -> &'static str {
    let (name, _) = accepted
        .iter()
        .find(|&&(_, c)| c == choice)
        .expect("every variant is listed in its table");
    name
}

#[derive(Debug)]
struct Args {
    domain: (usize, usize, usize),
    steps: usize,
    strategy: Strategy,
    workers: usize,
    islands: usize,
    iord: usize,
    boundary: Boundary,
    problem: Problem,
    cache: usize,
    verify: bool,
    self_schedule: usize,
    fuse_steps: usize,
    tile: TileMode,
    trace: Option<String>,
    metrics: bool,
    metrics_json: Option<String>,
    serve_metrics: Option<String>,
    metrics_interval: Option<u64>,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            domain: (64, 32, 16),
            steps: 20,
            strategy: Strategy::Islands,
            workers: 4,
            islands: 2,
            iord: 2,
            boundary: Boundary::Open,
            problem: Problem::Gaussian,
            cache: mpdata::DEFAULT_CACHE_BYTES,
            verify: false,
            self_schedule: 0,
            fuse_steps: 1,
            tile: TileMode::Off,
            trace: None,
            metrics: false,
            metrics_json: None,
            serve_metrics: None,
            metrics_interval: None,
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || {
            it.next()
                .ok_or_else(|| format!("flag {flag} needs a value"))
        };
        match flag.as_str() {
            "--domain" => {
                let v = val()?;
                let parts: Vec<usize> = v
                    .split(',')
                    .map(|p| p.parse().map_err(|e| format!("bad --domain: {e}")))
                    .collect::<Result<_, _>>()?;
                if parts.len() != 3 || parts.contains(&0) {
                    return Err("--domain needs NI,NJ,NK (all positive)".into());
                }
                if Region3::checked_extent(parts[0], parts[1], parts[2]).is_none() {
                    return Err(format!("--domain {v} is too large for one array"));
                }
                a.domain = (parts[0], parts[1], parts[2]);
            }
            "--steps" => a.steps = val()?.parse().map_err(|e| format!("bad --steps: {e}"))?,
            "--strategy" => a.strategy = parse_choice("--strategy", &val()?, &STRATEGIES)?,
            "--workers" => a.workers = val()?.parse().map_err(|e| format!("bad --workers: {e}"))?,
            "--islands" => a.islands = val()?.parse().map_err(|e| format!("bad --islands: {e}"))?,
            "--iord" => a.iord = val()?.parse().map_err(|e| format!("bad --iord: {e}"))?,
            "--boundary" => {
                a.boundary = match val()?.as_str() {
                    "open" => Boundary::Open,
                    "periodic" => Boundary::Periodic,
                    other => return Err(format!("unknown boundary {other:?}")),
                }
            }
            "--problem" => a.problem = parse_choice("--problem", &val()?, &PROBLEMS)?,
            "--cache" => a.cache = val()?.parse().map_err(|e| format!("bad --cache: {e}"))?,
            "--verify" => a.verify = true,
            "--self-schedule" => {
                a.self_schedule = val()?
                    .parse()
                    .map_err(|e| format!("bad --self-schedule: {e}"))?;
                if a.self_schedule == 0 {
                    return Err("--self-schedule needs at least 1 chunk per rank".into());
                }
            }
            "--fuse-steps" => {
                a.fuse_steps = val()?
                    .parse()
                    .map_err(|e| format!("bad --fuse-steps: {e}"))?;
                if a.fuse_steps == 0 {
                    return Err("--fuse-steps needs at least 1".into());
                }
            }
            "--tile" => {
                let v = val()?;
                a.tile = if v == "auto" {
                    TileMode::Auto
                } else {
                    let (ti, tj) = v
                        .split_once('x')
                        .ok_or_else(|| format!("bad --tile {v:?}; use auto or TIxTJ"))?;
                    let ti: usize = ti.parse().map_err(|e| format!("bad --tile: {e}"))?;
                    let tj: usize = tj.parse().map_err(|e| format!("bad --tile: {e}"))?;
                    if ti == 0 || tj == 0 {
                        return Err("--tile extents must be positive".into());
                    }
                    TileMode::Fixed { ti, tj }
                };
            }
            "--trace" => a.trace = Some(val()?),
            "--metrics" => a.metrics = true,
            "--metrics-json" => a.metrics_json = Some(val()?),
            "--serve-metrics" => a.serve_metrics = Some(val()?),
            "--metrics-interval" => {
                let secs: u64 = val()?
                    .parse()
                    .map_err(|e| format!("bad --metrics-interval: {e}"))?;
                if secs == 0 {
                    return Err("--metrics-interval needs at least 1 second".into());
                }
                a.metrics_interval = Some(secs);
            }
            "--help" | "-h" => {
                println!(
                    "mpdata-run --domain NI,NJ,NK --steps N --strategy reference|original|fused|islands|exchange\n\
                     \x20          --workers W --islands P --iord N --boundary open|periodic\n\
                     \x20          --problem gaussian|cone|random --cache BYTES --verify\n\
                     \x20          --self-schedule N --fuse-steps K --tile auto|TIxTJ\n\
                     \x20          --trace OUT.json --metrics --metrics-json OUT.json\n\
                     \x20          --serve-metrics ADDR --metrics-interval SECS\n\
                     --cache is the per-core block budget (default {} B); a budget \
                     too small for one block plans depth-1 blocks\n\
                     --self-schedule N cuts each epoch into N chunks per rank; with \
                     --tile, ranks claim whole tiles and N is ignored",
                    mpdata::DEFAULT_CACHE_BYTES
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if a.workers == 0 || a.islands == 0 || a.iord == 0 {
        return Err("--workers, --islands and --iord must be positive".into());
    }
    if a.strategy.reads_islands() && a.workers % a.islands != 0 {
        return Err(format!(
            "--workers ({}) must be divisible by --islands ({})",
            a.workers, a.islands
        ));
    }
    if a.self_schedule > 0 && !a.strategy.plans_islands() {
        return Err("--self-schedule only applies to --strategy islands|fused".into());
    }
    if a.fuse_steps > 1 && !a.strategy.plans_islands() {
        return Err("--fuse-steps only applies to --strategy islands|fused".into());
    }
    if a.tile != TileMode::Off && !a.strategy.plans_islands() {
        return Err("--tile only applies to --strategy islands|fused".into());
    }
    Ok(a)
}

fn make_fields(a: &Args) -> MpdataFields {
    let d = Region3::of_extent(a.domain.0, a.domain.1, a.domain.2);
    match a.problem {
        Problem::Cone => rotating_cone(d, 0.35),
        Problem::Random => random_fields(&mut Xoshiro256pp::seed_from_u64(7), d, 0.8),
        Problem::Gaussian => {
            let mut f = gaussian_pulse(d, (0.3, 0.0, 0.0));
            if a.boundary == Boundary::Open {
                // keep the default open pulse
            } else {
                f.close_boundaries();
            }
            f
        }
    }
}

/// Rejects inputs outside MPDATA's stability preconditions — non-finite
/// values, negative scalar, non-positive density, outflow Courant sum
/// above 1 — before anything is planned or run, naming the cause.
fn check_inputs(a: &Args, fields: &MpdataFields) -> Result<(), String> {
    fields.validate().map_err(|e| {
        format!(
            "--problem {} violates MPDATA's stability preconditions: {e}",
            choice_name(a.problem, &PROBLEMS)
        )
    })
}

/// The summary's `rank cut` line: the axis the first working team's
/// ranks slice every sweep along, and why — the sweep closest to (or
/// furthest past) the longest-axis rule's tipping point, read off the
/// schedule's own write regions. `None` for tiled schedules, whose
/// ranks take whole tiles.
fn rank_cut_line(schedule: &StepSchedule) -> Option<String> {
    if schedule.knobs().tile != TileMode::Off {
        return None;
    }
    let accesses = schedule.accesses();
    let team = accesses.first()?.team;
    let axis = schedule.rank_axis(team);
    if schedule.knobs().split_axis.is_some() {
        return Some(format!("{axis:?} (explicit)"));
    }
    // Per epoch, the sweep its slots cut up; then the least deep for
    // its width.
    let mut sweeps: BTreeMap<usize, Region3> = BTreeMap::new();
    for a in accesses.iter().filter(|a| a.write && a.team == team) {
        let sweep = sweeps.entry(a.epoch).or_insert(a.region);
        *sweep = sweep.hull(a.region);
    }
    let tip = sweeps
        .values()
        .min_by_key(|r| r.i.len() as i64 - r.j.len() as i64)?;
    let (planes, rows) = (tip.i.len(), tip.j.len());
    let cmp = if planes >= rows { '≥' } else { '<' };
    Some(format!("{axis:?} ({planes} planes {cmp} {rows} rows)"))
}

/// The summary's `scratch` line: what the intermediates occupy under
/// the schedule that ran, beside what whole-hull arrays would.
fn scratch_line(schedule: &StepSchedule) -> String {
    let mb = |bytes: usize| bytes as f64 / 1e6;
    let windows = schedule.scratch_windows();
    if schedule.stage_synchronous() {
        let teams = schedule.team_count();
        return format!(
            "{:.1} MB in {} full-domain arrays shared by {teams} island{}",
            mb(schedule.scratch_bytes()),
            windows.len(),
            if teams == 1 { "" } else { "s" },
        );
    }
    if windows.is_empty() {
        return format!(
            "{:.1} MB of rank-private tile scratch",
            mb(schedule.scratch_bytes())
        );
    }
    format!(
        "{:.1} MB in {} windows of ≤ {} planes; hull would be {:.1} MB",
        mb(schedule.scratch_bytes()),
        windows.len(),
        windows.iter().map(|w| w.planes).max().unwrap_or(0),
        mb(windows
            .iter()
            .map(|w| w.hull.cells() * size_of::<f64>())
            .sum()),
    )
}

/// Room in every trace ring registered from now on for all spans a
/// rank records over `steps` steps of `schedule` (plus the dispatch's
/// own), capped at 2^21 events per thread.
fn size_trace_rings(schedule: &StepSchedule, steps: usize) {
    let events = steps * schedule.trace_spans_per_step() + 16;
    islands_trace::set_ring_capacity(events.clamp(1 << 16, 1 << 21));
}

fn main() -> ExitCode {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\nrun with --help for usage");
            return ExitCode::FAILURE;
        }
    };
    if a.boundary == Boundary::Periodic && a.strategy.plans_islands() {
        eprintln!(
            "error: --boundary periodic is not supported by --strategy fused|islands\n\
             (cache-blocked schedules cannot express wrap-around dependencies)"
        );
        return ExitCode::FAILURE;
    }
    let problem = || MpdataProblem::with_iord(a.iord).with_boundary(a.boundary);
    let mut fields = make_fields(&a);
    if let Err(e) = check_inputs(&a, &fields) {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    let mass0 = fields.mass();
    // `--verify` snapshots the initial fields here but runs the serial
    // reference pass only after the timed run: the live telemetry
    // endpoint comes up with the run, not after a full serial pass a
    // scraper would see as `connection refused`.
    let initial = a.verify.then(|| fields.clone());

    let mut pool = WorkerPool::new(a.workers);
    // Fused and Original are the one-island schedules of the islands and
    // exchange strategies.
    let islands = if a.strategy.reads_islands() {
        a.islands
    } else {
        1
    };
    let live = a.serve_metrics.is_some() || a.metrics_interval.is_some();
    let tracing = a.trace.is_some() || a.metrics || a.metrics_json.is_some() || live;
    // Rings register on a thread's first span, so sizing them once the
    // schedule is planned, before it runs, still covers every ring.
    let session = tracing.then(islands_trace::Session::start);
    // The live telemetry plane: a background collector drains the trace
    // rings into an atomic registry mid-run; the registry is served
    // over TCP (`--serve-metrics`) and/or printed on a fixed cadence
    // (`--metrics-interval`).
    let registry =
        live.then(|| std::sync::Arc::new(islands_trace::registry::MetricsRegistry::new(islands)));
    let mut server = None;
    let mut ticker: Option<(std::sync::mpsc::Sender<()>, std::thread::JoinHandle<()>)> = None;
    if let Some(registry) = &registry {
        pool.attach_telemetry(
            std::sync::Arc::clone(registry),
            std::time::Duration::from_millis(20),
        );
        if let Some(addr) = &a.serve_metrics {
            match islands_trace::serve::MetricsServer::bind(addr, std::sync::Arc::clone(registry)) {
                Ok(s) => {
                    println!("metrics      : http://{}/metrics", s.local_addr());
                    server = Some(s);
                }
                Err(e) => {
                    eprintln!("error: cannot bind --serve-metrics {addr}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        if let Some(secs) = a.metrics_interval {
            let reg = std::sync::Arc::clone(registry);
            let (tx, rx) = std::sync::mpsc::channel::<()>();
            let handle = std::thread::Builder::new()
                .name("islands-metrics-tick".into())
                .spawn(move || {
                    let period = std::time::Duration::from_secs(secs);
                    // Stops the moment the run sends the shutdown tick.
                    while rx.recv_timeout(period).is_err() {
                        let s = reg.snapshot();
                        eprintln!(
                            "telemetry    : step {} | {:.2} Mcells/s | {} events | {} dropped | p99 step {} ns",
                            s.current_step,
                            s.cells_per_second() / 1e6,
                            s.events_folded,
                            s.dropped_events,
                            s.step_ns.quantile(0.99),
                        );
                    }
                })
                .expect("spawn metrics ticker");
            ticker = Some((tx, handle));
        }
    }
    let domain = fields.domain();
    let teams = TeamSpec::even(a.workers, islands);
    let t0 = Instant::now();
    // Every strategy but the serial reference replays a schedule; the
    // one it ran (a plan-cache hit) feeds the summary.
    let schedule: Option<Arc<StepSchedule>> = match a.strategy {
        Strategy::Reference => {
            ReferenceExecutor::with_problem(problem()).run(&mut fields, a.steps);
            None
        }
        Strategy::Original | Strategy::Exchange => {
            let exec = ExchangeExecutor::with_problem(&pool, teams, Axis::I, problem());
            let schedule = exec.schedule_for(domain);
            size_trace_rings(&schedule, a.steps);
            exec.run(&mut fields, a.steps);
            Some(schedule)
        }
        Strategy::Fused | Strategy::Islands => {
            let mut exec = IslandsExecutor::with_problem(&pool, teams, Axis::I, problem())
                .cache_bytes(a.cache)
                .fuse_steps(a.fuse_steps)
                .tile(a.tile);
            if a.self_schedule > 0 {
                exec = exec.self_schedule(a.self_schedule);
            }
            // Block planning fails only on an empty domain, which
            // `--domain` refuses: any `--cache` plans.
            const PLANS: &str = "domain is non-empty";
            let schedule = exec.schedule_for(domain).expect(PLANS);
            size_trace_rings(&schedule, a.steps);
            exec.run(&mut fields, a.steps).expect(PLANS);
            Some(schedule)
        }
    };
    let elapsed = t0.elapsed();
    // Live-plane shutdown, in dependency order: stop the periodic
    // printer, then the collector (its final pass folds every span the
    // run recorded); the server stays up to serve the final registry
    // state until it drops at the end of `main`.
    if let Some((tx, handle)) = ticker.take() {
        let _ = tx.send(());
        let _ = handle.join();
    }
    pool.detach_telemetry();
    let drained = session.map(islands_trace::Session::finish);

    println!(
        "strategy={} domain={}x{}x{} steps={} workers={} islands={} iord={} boundary={:?}",
        choice_name(a.strategy, &STRATEGIES),
        a.domain.0,
        a.domain.1,
        a.domain.2,
        a.steps,
        a.workers,
        islands,
        a.iord,
        a.boundary,
    );
    println!("elapsed      : {elapsed:.2?}");
    println!(
        "throughput   : {:.2} Mcells/s",
        (fields.domain().cells() * a.steps) as f64 / elapsed.as_secs_f64() / 1e6
    );
    println!("kernels      : {}", mpdata::kernel_isa());
    if let Some(schedule) = &schedule {
        if let Some(line) = rank_cut_line(schedule) {
            println!("rank cut     : {line}");
        }
        println!("scratch      : {}", scratch_line(schedule));
    }
    println!("mass drift   : {:+.3e}", fields.mass() / mass0 - 1.0);
    println!(
        "min / max    : {:+.4e} / {:+.4e}",
        fields.x.min(),
        fields.x.max()
    );
    if let Some(mut r) = initial {
        // Post-run and post-finish, so the reference pass is untraced.
        ReferenceExecutor::with_problem(problem()).run(&mut r, a.steps);
        let diff = fields.x.max_abs_diff(&r.x);
        println!("verify       : max |Δ| vs reference = {diff:.3e}");
        if diff != 0.0 {
            eprintln!("error: strategy diverged from the reference");
            return ExitCode::FAILURE;
        }
    }
    if let Some(drained) = drained {
        if a.metrics || a.metrics_json.is_some() {
            let metrics = islands_trace::metrics::RunMetrics::aggregate(&drained);
            if a.metrics {
                print!("{}", metrics.render());
            }
            if let Some(path) = &a.metrics_json {
                let doc = metrics.to_json();
                // Self-validate through the strict renderer/parser pair
                // before writing: a non-finite number or a render/parse
                // mismatch fails loudly here, not in downstream tooling.
                let text = match doc.render() {
                    Ok(text) => text,
                    Err(e) => {
                        eprintln!("error: metrics JSON failed validation: {e}");
                        return ExitCode::FAILURE;
                    }
                };
                match islands_trace::json::parse(&text) {
                    Ok(back) if back == doc => {}
                    Ok(_) => {
                        eprintln!("error: metrics JSON did not round-trip");
                        return ExitCode::FAILURE;
                    }
                    Err(e) => {
                        eprintln!("error: metrics JSON failed self-parse: {e}");
                        return ExitCode::FAILURE;
                    }
                }
                if let Err(e) = std::fs::write(path, &text) {
                    eprintln!("error: cannot write {path}: {e}");
                    return ExitCode::FAILURE;
                }
                println!(
                    "metrics json : {} steps ({} dropped) -> {path}",
                    metrics.steps.len(),
                    metrics.dropped_events
                );
            }
        }
        if let Some(path) = &a.trace {
            let graph = problem().graph().clone();
            let names: Vec<&str> = graph.stages().iter().map(|st| st.name.as_str()).collect();
            let text = islands_trace::chrome::export(&drained, &names);
            // Self-check the artifact with the in-repo validator before
            // writing it, so a broken trace fails loudly here rather
            // than in a viewer.
            if let Err(e) = islands_trace::chrome::validate(&text) {
                eprintln!("error: generated trace failed validation: {e}");
                return ExitCode::FAILURE;
            }
            if let Err(e) = std::fs::write(path, &text) {
                eprintln!("error: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            println!(
                "trace        : {} events ({} dropped) -> {path}",
                drained.events.len(),
                drained.dropped
            );
        }
    }
    // The metrics server (if any) stayed up through the drain so late
    // scrapes see the final registry state; it shuts down here.
    drop(server);
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn violating_inputs_are_rejected_with_the_cause() {
        // No `--problem` generator produces such fields (the CLI test
        // in `tests/cli.rs` pins that all of them pass), so the gate
        // `main` calls is driven directly.
        let a = Args::default();
        let d = Region3::of_extent(8, 6, 4);
        let err = check_inputs(&a, &gaussian_pulse(d, (0.8, 0.6, 0.0))).unwrap_err();
        assert!(
            err.contains("--problem gaussian") && err.contains("positivity bound exceeded"),
            "{err}"
        );
        let mut f = gaussian_pulse(d, (0.3, 0.0, 0.0));
        f.u2.set(1, 1, 1, f64::NAN);
        let err = check_inputs(&a, &f).unwrap_err();
        assert!(err.contains("`u2`") && err.contains("non-finite"), "{err}");
        check_inputs(&a, &make_fields(&a)).unwrap();
    }

    #[test]
    fn a_named_rank_cut_is_reported_as_such() {
        // The CLI names no cut; a library caller's schedule may.
        let pool = WorkerPool::new(2);
        let d = Region3::of_extent(12, 6, 4);
        let cut = |exec: IslandsExecutor<'_>| rank_cut_line(&exec.schedule_for(d).unwrap());
        let exec = || IslandsExecutor::single_island(&pool, MpdataProblem::standard());
        assert_eq!(cut(exec()).as_deref(), Some("I (12 planes ≥ 6 rows)"));
        assert_eq!(
            cut(exec().split_axis(Axis::J)).as_deref(),
            Some("J (explicit)")
        );
    }
}
