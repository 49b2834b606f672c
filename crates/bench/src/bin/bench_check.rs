//! `bench-check` — validates benchmark and trace artifacts in CI.
//!
//! Usage: `bench-check [<bench.json>] [--phases] [--max-steady-ratio R]
//! [--max-barrier-share S] [--min-traffic-reduction F]
//! [--max-p99-ratio R] [--max-boundary-ratio R] [--chrome <trace.json>]
//! [--prom <scrape.txt> [<scrape2.txt>]] [--scrape <addr>]`.
//! Exits non-zero when
//!
//! * the bench file is not well-formed JSON or not an array of complete
//!   `{group, label, min_ns, median_ns, max_ns, iters}` records with
//!   `min ≤ median ≤ max` and positive `iters`, or
//! * any `steady_state` group pairs a `*_first/P` label with its
//!   `*_steady/P` partner where the steady median fails to beat the
//!   first-step median — the whole point of the persistent-plan layer
//!   is that replaying a cached plan is cheaper than building one, or
//! * `--phases` is given and a `*_steady/P` row lacks the phase
//!   breakdown (worker-summed `kernel_ns` / `barrier_ns` / `swap_ns`,
//!   the `workers` count, the per-worker `*_pw_ns` values and
//!   `imbalance_ns`), its kernel time is not positive, or a per-worker
//!   value disagrees with its summed value over `workers`, or
//! * the steady/first median ratio of any pair exceeds
//!   `--max-steady-ratio R` (`--phases` alone implies the default cap
//!   0.95 — committed artifacts sit at ≤ 0.83, so a cap breach flags a
//!   regression of the replay path, not noise), or
//! * `--max-barrier-share S` is given and any multi-worker islands
//!   steady row spends more than `S` of its compute time on
//!   inter-island imbalance: the gated quantity is
//!   `imbalance_ns / (kernel_ns + imbalance_ns)`, the fraction of
//!   kernel-plus-lost worker time attributable to unequal island
//!   finish times. Raw barrier time is deliberately *not* gated — on
//!   an oversubscribed host (more workers than cores) summed barrier
//!   wait is dominated by the scheduler, approaching `(P−1)/P` of the
//!   step regardless of how well the islands are balanced, or
//! * `--min-traffic-reduction F` is given and any `tiled_steady/P` row
//!   fails to cut the modeled main-memory traffic (`bytes_moved`, from
//!   the compulsory-stream models) by at least the fraction `F`
//!   relative to its untiled `islands_steady/P` baseline — or the
//!   tiled steady step is slower than the untiled one beyond a 5 %
//!   noise allowance: cache-resident scratch must save traffic without
//!   costing time. Phase rows must also carry finite, non-negative
//!   `bytes_moved` / `mlups` members (positive on the gated rows), or
//! * `--max-p99-ratio R` is given and any steady row's per-step
//!   latency tail exceeds it: the gated quantity is
//!   `p99_step_ns / p50_step_ns` from the phase breakdown's
//!   log2-histogram quantiles, so the ratio quantizes to powers of two
//!   and the cap bounds step-time *jitter*, not absolute speed, or
//! * `--max-boundary-ratio R` is given and the `kernel_blocks` group of
//!   `benches/kernels.rs` shows domain faces costing more than `R`×:
//!   the gated quantity is Σ17 `boundary/<kind>` ÷ Σ17
//!   `interior/<kind>` (each kind weighted by its count in the
//!   17-stage step) over the rows' `min_ns` — the two rows run the same
//!   block seconds apart, and the minimum is the least noise-sensitive
//!   estimate of a kernel's cost, or
//! * `--chrome <trace.json>` names a file the in-repo Chrome
//!   trace-event validator rejects.
//!
//! Telemetry exposition checks (the CI `telemetry-smoke` job):
//!
//! * `--prom <scrape.txt> [<scrape2.txt>]` validates Prometheus text
//!   exposition syntax through the in-repo
//!   `islands_trace::export::validate_exposition` parser. With two
//!   files (two scrapes of one live run, in order), every `_total`
//!   counter present in the first must be present and non-decreasing
//!   in the second, the summed `islands_kernel_ns_total` must strictly
//!   increase (the run was alive between scrapes), and the second
//!   scrape must show nonzero kernel time and computed cells for at
//!   least one island;
//! * `--scrape <addr>` performs the two `GET /metrics` scrapes itself
//!   against a live `mpdata-run --serve-metrics` endpoint (std-only
//!   HTTP/1.1 over `TcpStream`, ~400 ms apart) and applies the same
//!   two-scrape validation.

use islands_bench::json::{self, Json};
use islands_trace::export::{validate_exposition, Sample};
use std::collections::HashMap;

fn main() {
    std::process::exit(run());
}

struct Opts {
    bench_path: Option<String>,
    chrome_path: Option<String>,
    phases: bool,
    max_steady_ratio: Option<f64>,
    max_barrier_share: Option<f64>,
    min_traffic_reduction: Option<f64>,
    max_p99_ratio: Option<f64>,
    max_boundary_ratio: Option<f64>,
    prom_paths: Vec<String>,
    scrape_addr: Option<String>,
}

fn parse_opts() -> Result<Opts, String> {
    let mut o = Opts {
        bench_path: None,
        chrome_path: None,
        phases: false,
        max_steady_ratio: None,
        max_barrier_share: None,
        min_traffic_reduction: None,
        max_p99_ratio: None,
        max_boundary_ratio: None,
        prom_paths: Vec::new(),
        scrape_addr: None,
    };
    let mut args = std::env::args().skip(1).peekable();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--phases" => o.phases = true,
            "--max-steady-ratio" => {
                let v = args.next().ok_or("--max-steady-ratio needs a value")?;
                let r: f64 = v
                    .parse()
                    .map_err(|e| format!("bad --max-steady-ratio {v:?}: {e}"))?;
                if !(r.is_finite() && r > 0.0) {
                    return Err(format!("--max-steady-ratio must be positive, got {v}"));
                }
                o.max_steady_ratio = Some(r);
            }
            "--max-barrier-share" => {
                let v = args.next().ok_or("--max-barrier-share needs a value")?;
                let s: f64 = v
                    .parse()
                    .map_err(|e| format!("bad --max-barrier-share {v:?}: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 1.0) {
                    return Err(format!("--max-barrier-share must be in (0, 1], got {v}"));
                }
                o.max_barrier_share = Some(s);
            }
            "--min-traffic-reduction" => {
                let v = args.next().ok_or("--min-traffic-reduction needs a value")?;
                let f: f64 = v
                    .parse()
                    .map_err(|e| format!("bad --min-traffic-reduction {v:?}: {e}"))?;
                if !(f.is_finite() && f > 0.0 && f < 1.0) {
                    return Err(format!(
                        "--min-traffic-reduction must be in (0, 1), got {v}"
                    ));
                }
                o.min_traffic_reduction = Some(f);
            }
            "--max-p99-ratio" => {
                let v = args.next().ok_or("--max-p99-ratio needs a value")?;
                let r: f64 = v
                    .parse()
                    .map_err(|e| format!("bad --max-p99-ratio {v:?}: {e}"))?;
                if !(r.is_finite() && r >= 1.0) {
                    return Err(format!("--max-p99-ratio must be at least 1, got {v}"));
                }
                o.max_p99_ratio = Some(r);
            }
            "--max-boundary-ratio" => {
                let v = args.next().ok_or("--max-boundary-ratio needs a value")?;
                let r: f64 = v
                    .parse()
                    .map_err(|e| format!("bad --max-boundary-ratio {v:?}: {e}"))?;
                if !(r.is_finite() && r >= 1.0) {
                    return Err(format!("--max-boundary-ratio must be at least 1, got {v}"));
                }
                o.max_boundary_ratio = Some(r);
            }
            "--prom" => {
                o.prom_paths.push(args.next().ok_or("--prom needs a path")?);
                // A second positional path is the follow-up scrape.
                if args.peek().is_some_and(|n| !n.starts_with('-')) {
                    o.prom_paths.push(args.next().expect("peeked"));
                }
            }
            "--scrape" => o.scrape_addr = Some(args.next().ok_or("--scrape needs an address")?),
            "--chrome" => o.chrome_path = Some(args.next().ok_or("--chrome needs a path")?),
            other if !other.starts_with('-') && o.bench_path.is_none() => {
                o.bench_path = Some(other.to_string());
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if o.phases && o.max_steady_ratio.is_none() {
        o.max_steady_ratio = Some(0.95);
    }
    if o.prom_paths.len() > 2 {
        return Err("--prom takes at most two scrape files".into());
    }
    if o.bench_path.is_none()
        && o.chrome_path.is_none()
        && o.prom_paths.is_empty()
        && o.scrape_addr.is_none()
    {
        return Err("usage: bench-check [<bench.json>] [--phases] \
                    [--max-steady-ratio R] [--max-barrier-share S] \
                    [--min-traffic-reduction F] [--max-p99-ratio R] \
                    [--max-boundary-ratio R] [--chrome <trace.json>] \
                    [--prom <scrape.txt> [<scrape2.txt>]] \
                    [--scrape <addr>]"
            .into());
    }
    Ok(o)
}

fn run() -> i32 {
    let o = match parse_opts() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("bench-check: {e}");
            return 2;
        }
    };
    if let Some(path) = &o.bench_path {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("bench-check: cannot read {path}: {e}");
                return 1;
            }
        };
        let doc = match json::parse(&text) {
            Ok(d) => d,
            Err(e) => {
                eprintln!("bench-check: {path}: {e}");
                return 1;
            }
        };
        match check(&doc, &o) {
            Ok(summary) => println!("bench-check: {path}: {summary}"),
            Err(e) => {
                eprintln!("bench-check: {path}: {e}");
                return 1;
            }
        }
    }
    if let Some(path) = &o.chrome_path {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("bench-check: cannot read {path}: {e}");
                return 1;
            }
        };
        match islands_trace::chrome::validate(&text) {
            Ok(s) => println!(
                "bench-check: {path}: {} complete event(s) across {} process(es) valid",
                s.complete_events,
                s.pids.len()
            ),
            Err(e) => {
                eprintln!("bench-check: {path}: invalid Chrome trace: {e}");
                return 1;
            }
        }
    }
    if !o.prom_paths.is_empty() {
        let mut docs = Vec::new();
        for path in &o.prom_paths {
            match std::fs::read_to_string(path) {
                Ok(t) => docs.push(t),
                Err(e) => {
                    eprintln!("bench-check: cannot read {path}: {e}");
                    return 1;
                }
            }
        }
        match check_exposition(&docs) {
            Ok(summary) => println!("bench-check: {}: {summary}", o.prom_paths.join(", ")),
            Err(e) => {
                eprintln!("bench-check: {}: {e}", o.prom_paths.join(", "));
                return 1;
            }
        }
    }
    if let Some(addr) = &o.scrape_addr {
        let result = scrape(addr).and_then(|first| {
            std::thread::sleep(std::time::Duration::from_millis(400));
            let second = scrape(addr)?;
            check_exposition(&[first, second])
        });
        match result {
            Ok(summary) => println!("bench-check: {addr}: {summary}"),
            Err(e) => {
                eprintln!("bench-check: {addr}: {e}");
                return 1;
            }
        }
    }
    0
}

/// One `GET /metrics` over a std-only HTTP/1.1 client; returns the
/// response body.
fn scrape(addr: &str) -> Result<String, String> {
    use std::io::{Read, Write};
    let mut stream =
        std::net::TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let timeout = Some(std::time::Duration::from_secs(5));
    stream
        .set_read_timeout(timeout)
        .map_err(|e| e.to_string())?;
    stream
        .set_write_timeout(timeout)
        .map_err(|e| e.to_string())?;
    stream
        .write_all(
            format!("GET /metrics HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n")
                .as_bytes(),
        )
        .map_err(|e| format!("scrape request failed: {e}"))?;
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .map_err(|e| format!("scrape read failed: {e}"))?;
    let (head, body) = response
        .split_once("\r\n\r\n")
        .ok_or("malformed HTTP response: no header/body separator")?;
    let status = head.lines().next().unwrap_or("");
    if !status.starts_with("HTTP/1.1 200") {
        return Err(format!("scrape returned {status:?}, expected 200"));
    }
    Ok(body.to_string())
}

/// Indexes samples by `name{labels}` identity for cross-scrape
/// comparison.
fn index(samples: &[Sample]) -> HashMap<String, f64> {
    samples.iter().map(|s| (s.key(), s.value)).collect()
}

/// Sum of a per-island counter over all islands in one scrape.
fn island_total(samples: &[Sample], name: &str) -> f64 {
    samples
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.value)
        .sum()
}

/// Validates one or two Prometheus exposition documents: syntax via the
/// in-repo parser, and (with two) counter monotonicity plus liveness of
/// the kernel counters between the scrapes.
fn check_exposition(docs: &[String]) -> Result<String, String> {
    let mut parsed = Vec::new();
    for (n, doc) in docs.iter().enumerate() {
        let samples = validate_exposition(doc)
            .map_err(|e| format!("scrape {}: invalid exposition: {e}", n + 1))?;
        if samples.is_empty() {
            return Err(format!("scrape {}: no samples", n + 1));
        }
        parsed.push(samples);
    }
    let last = parsed.last().expect("at least one document");
    for name in ["islands_kernel_ns_total", "islands_computed_cells_total"] {
        if island_total(last, name) <= 0.0 {
            return Err(format!(
                "final scrape: `{name}` is zero across all islands — the \
                 collector never folded a kernel span"
            ));
        }
    }
    if !last
        .iter()
        .any(|s| s.name == "islands_kernel_ns_total" && s.value > 0.0)
    {
        return Err("final scrape: no island shows nonzero kernel time".into());
    }
    if let [first, second] = &parsed[..] {
        let after = index(second);
        let mut counters = 0;
        for s in first.iter().filter(|s| s.name.ends_with("_total")) {
            let Some(&later) = after.get(&s.key()) else {
                return Err(format!("counter `{}` vanished between scrapes", s.key()));
            };
            if later < s.value {
                return Err(format!(
                    "counter `{}` went backwards between scrapes: {} -> {later}",
                    s.key(),
                    s.value
                ));
            }
            counters += 1;
        }
        if counters == 0 {
            return Err("first scrape exposes no `_total` counters".into());
        }
        let (k1, k2) = (
            island_total(first, "islands_kernel_ns_total"),
            island_total(second, "islands_kernel_ns_total"),
        );
        if k2 <= k1 {
            return Err(format!(
                "summed `islands_kernel_ns_total` did not increase between \
                 scrapes ({k1} -> {k2}) — the run was not live"
            ));
        }
        Ok(format!(
            "2 scrape(s) valid, {counters} counter(s) monotone, kernel time \
             advanced {k1} -> {k2}"
        ))
    } else {
        Ok(format!(
            "1 scrape valid ({} sample(s), nonzero island kernel counters)",
            last.len()
        ))
    }
}

/// Phase breakdown of one record, as read back from the artifact.
struct PhaseRec {
    kernel: f64,
    barrier: f64,
    swap: f64,
    workers: f64,
    imbalance: f64,
    bytes_moved: f64,
    mlups: f64,
    p50_step: f64,
    p99_step: f64,
}

/// One validated record (only the fields the checks need).
struct Rec {
    group: String,
    label: String,
    min_ns: f64,
    median_ns: f64,
    phases: Option<PhaseRec>,
}

fn field_f64(obj: &Json, key: &str, n: usize) -> Result<f64, String> {
    obj.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("record {n}: missing numeric `{key}`"))
}

/// Checks `summed / workers == pw` up to rounding.
fn pw_consistent(summed: f64, workers: f64, pw: f64) -> bool {
    let expect = summed / workers.max(1.0);
    (expect - pw).abs() <= 1e-6 * expect.abs() + 1e-3
}

fn check(doc: &Json, o: &Opts) -> Result<String, String> {
    let arr = doc
        .as_array()
        .ok_or("top-level value must be an array of records")?;
    if arr.is_empty() {
        return Err("no benchmark records in artifact".into());
    }
    let mut recs = Vec::with_capacity(arr.len());
    for (n, item) in arr.iter().enumerate() {
        let group = item
            .get("group")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("record {n}: missing string `group`"))?;
        let label = item
            .get("label")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("record {n}: missing string `label`"))?;
        let min = field_f64(item, "min_ns", n)?;
        let median = field_f64(item, "median_ns", n)?;
        let max = field_f64(item, "max_ns", n)?;
        let iters = field_f64(item, "iters", n)?;
        if !(min > 0.0 && min <= median && median <= max) {
            return Err(format!(
                "record {n} ({group}/{label}): expected 0 < min ≤ median ≤ max, \
                 got {min}/{median}/{max}"
            ));
        }
        if iters < 1.0 || iters.fract() != 0.0 {
            return Err(format!(
                "record {n} ({group}/{label}): `iters` must be a positive integer, got {iters}"
            ));
        }
        let phases = match item.get("kernel_ns") {
            Some(_) => {
                let p = PhaseRec {
                    kernel: field_f64(item, "kernel_ns", n)?,
                    barrier: field_f64(item, "barrier_ns", n)?,
                    swap: field_f64(item, "swap_ns", n)?,
                    workers: field_f64(item, "workers", n)?,
                    imbalance: field_f64(item, "imbalance_ns", n)?,
                    bytes_moved: field_f64(item, "bytes_moved", n)?,
                    mlups: field_f64(item, "mlups", n)?,
                    p50_step: field_f64(item, "p50_step_ns", n)?,
                    p99_step: field_f64(item, "p99_step_ns", n)?,
                };
                if !(p.p50_step >= 0.0 && p.p99_step >= p.p50_step) {
                    return Err(format!(
                        "record {n} ({group}/{label}): expected 0 ≤ p50_step_ns ≤ \
                         p99_step_ns, got {}/{}",
                        p.p50_step, p.p99_step
                    ));
                }
                if !(p.bytes_moved >= 0.0 && p.mlups >= 0.0) {
                    return Err(format!(
                        "record {n} ({group}/{label}): `bytes_moved` ({}) and `mlups` \
                         ({}) must be non-negative",
                        p.bytes_moved, p.mlups
                    ));
                }
                // The per-worker values must be the summed values over
                // `workers` — they are derived at render time, so a
                // mismatch means a corrupted or hand-edited artifact.
                for (key, summed) in [
                    ("kernel_pw_ns", p.kernel),
                    ("barrier_pw_ns", p.barrier),
                    ("swap_pw_ns", p.swap),
                ] {
                    let pw = field_f64(item, key, n)?;
                    if !pw_consistent(summed, p.workers, pw) {
                        return Err(format!(
                            "record {n} ({group}/{label}): `{key}` = {pw} disagrees with \
                             its summed value {summed} over {} worker(s)",
                            p.workers
                        ));
                    }
                }
                Some(p)
            }
            None => None,
        };
        recs.push(Rec {
            group: group.to_string(),
            label: label.to_string(),
            min_ns: min,
            median_ns: median,
            phases,
        });
    }

    // Steady-state pairing: every `X_first/P` must have an `X_steady/P`
    // partner that is strictly faster (and under the ratio cap, when
    // one is set).
    let mut pairs = 0;
    for first in recs.iter().filter(|r| r.group == "steady_state") {
        let Some(pos) = first.label.find("_first/") else {
            continue;
        };
        let steady_label = format!(
            "{}_steady/{}",
            &first.label[..pos],
            &first.label[pos + "_first/".len()..]
        );
        pairs += check_pair(&recs, first, &steady_label, o)?;
    }
    if recs.iter().any(|r| r.group == "steady_state") && pairs == 0 {
        return Err("steady_state group present but no first/steady pairs found".into());
    }

    // Phase coverage: with --phases, every steady row must carry the
    // breakdown and must have spent time in kernels.
    let mut with_phases = 0;
    if o.phases {
        for r in recs
            .iter()
            .filter(|r| r.group == "steady_state" && r.label.contains("_steady/"))
        {
            let Some(p) = &r.phases else {
                return Err(format!(
                    "`{}`: --phases requires the phase breakdown on steady rows",
                    r.label
                ));
            };
            if !(p.kernel > 0.0
                && p.barrier >= 0.0
                && p.swap >= 0.0
                && p.workers >= 1.0
                && p.imbalance >= 0.0)
            {
                return Err(format!(
                    "`{}`: implausible phase breakdown kernel {} / barrier {} / \
                     swap {} / workers {} / imbalance {}",
                    r.label, p.kernel, p.barrier, p.swap, p.workers, p.imbalance
                ));
            }
            with_phases += 1;
        }
        if with_phases == 0 {
            return Err("--phases: no steady rows with a phase breakdown".into());
        }
    }

    // Imbalance gate: multi-worker islands steady rows must keep the
    // imbalance-attributable share of compute time under the cap.
    let mut gated = 0;
    if let Some(cap) = o.max_barrier_share {
        for r in recs.iter().filter(|r| {
            r.group == "steady_state"
                && r.label.starts_with("islands")
                && r.label.contains("_steady/")
        }) {
            let Some(p) = &r.phases else {
                return Err(format!(
                    "`{}`: --max-barrier-share requires the phase breakdown",
                    r.label
                ));
            };
            if p.workers < 2.0 {
                continue; // a single worker cannot be imbalanced
            }
            let share = p.imbalance / (p.kernel + p.imbalance).max(1.0);
            if share > cap {
                return Err(format!(
                    "imbalance share too high: `{}` loses {share:.3} of its compute \
                     time to unequal island finish times (cap {cap}) — the cost-model \
                     cuts are no longer balancing the islands",
                    r.label
                ));
            }
            gated += 1;
        }
        if gated == 0 {
            return Err("--max-barrier-share: no multi-worker islands steady rows to gate".into());
        }
    }

    // Latency-tail gate: every steady row with a per-step histogram
    // must keep its p99/p50 jitter under the cap. The quantiles are
    // log2 bucket ceilings, so the ratio quantizes to powers of two —
    // a cap of 4 tolerates one-bucket spread, 8 tolerates two.
    let mut tails = 0;
    if let Some(cap) = o.max_p99_ratio {
        for r in recs
            .iter()
            .filter(|r| r.group == "steady_state" && r.label.contains("_steady/"))
        {
            let Some(p) = &r.phases else {
                return Err(format!(
                    "`{}`: --max-p99-ratio requires the phase breakdown",
                    r.label
                ));
            };
            if p.p50_step <= 0.0 {
                return Err(format!(
                    "`{}`: --max-p99-ratio requires a per-step histogram \
                     (p50_step_ns is zero — the traced replay tracked no steps)",
                    r.label
                ));
            }
            let ratio = p.p99_step / p.p50_step;
            if ratio > cap {
                return Err(format!(
                    "per-step latency tail too heavy: `{}` p99 {} ns / p50 {} ns \
                     = {ratio:.1}, over the cap {cap} — steady-state step times \
                     are no longer tight",
                    r.label, p.p99_step, p.p50_step
                ));
            }
            tails += 1;
        }
        if tails == 0 {
            return Err("--max-p99-ratio: no steady rows to gate".into());
        }
    }

    // Traffic gate: every tiled steady row must cut the modeled
    // main-memory traffic against its untiled islands baseline by at
    // least the requested fraction, without giving the time back.
    let mut traffic_pairs = 0;
    if let Some(min_red) = o.min_traffic_reduction {
        for tiled in recs
            .iter()
            .filter(|r| r.group == "steady_state" && r.label.starts_with("tiled_steady/"))
        {
            let p = &tiled.label["tiled_steady/".len()..];
            let base_label = format!("islands_steady/{p}");
            let base = recs
                .iter()
                .find(|r| r.group == "steady_state" && r.label == base_label)
                .ok_or_else(|| {
                    format!(
                        "`{}` has no `{base_label}` baseline to gate against",
                        tiled.label
                    )
                })?;
            let (tp, bp) = match (&tiled.phases, &base.phases) {
                (Some(tp), Some(bp)) if tp.bytes_moved > 0.0 && bp.bytes_moved > 0.0 => (tp, bp),
                _ => {
                    return Err(format!(
                        "--min-traffic-reduction: `{}` and `{base_label}` must both \
                         carry positive `bytes_moved` traffic models",
                        tiled.label
                    ))
                }
            };
            if !(tp.mlups > 0.0 && bp.mlups > 0.0) {
                return Err(format!(
                    "--min-traffic-reduction: `{}` and `{base_label}` must both \
                     carry positive `mlups` throughput figures",
                    tiled.label
                ));
            }
            let reduction = 1.0 - tp.bytes_moved / bp.bytes_moved;
            if reduction < min_red {
                return Err(format!(
                    "modeled traffic reduction too small: `{}` moves {} bytes/step vs \
                     `{base_label}`'s {} — a {reduction:.3} cut, below the required \
                     {min_red} — tile fusion is no longer keeping intermediates \
                     cache-resident",
                    tiled.label, tp.bytes_moved, bp.bytes_moved
                ));
            }
            // "No worse" with a small allowance for timer noise between
            // the two rows of one artifact.
            if tiled.median_ns > base.median_ns * 1.05 {
                return Err(format!(
                    "tiled steady step is slower than untiled: `{}` median {} ns vs \
                     `{base_label}` median {} ns — the traffic cut is costing time",
                    tiled.label, tiled.median_ns, base.median_ns
                ));
            }
            traffic_pairs += 1;
        }
        if traffic_pairs == 0 {
            return Err("--min-traffic-reduction: no tiled_steady rows to gate".into());
        }
    }

    // Boundary gate: the 17-stage step over a whole-domain block must
    // cost at most `cap` times the same block inside a larger domain.
    let mut boundary_note = String::new();
    if let Some(cap) = o.max_boundary_ratio {
        let sum17 = |side: &str| -> Result<f64, String> {
            let mut sum = 0.0;
            for kind in mpdata::STANDARD_KINDS {
                let label = format!("{side}/{kind:?}");
                let row = recs
                    .iter()
                    .find(|r| r.group == "kernel_blocks" && r.label == label);
                sum += row
                    .ok_or_else(|| format!("--max-boundary-ratio: no `kernel_blocks/{label}` row"))?
                    .min_ns;
            }
            Ok(sum)
        };
        let ratio = sum17("boundary")? / sum17("interior")?;
        if ratio > cap {
            return Err(format!(
                "boundary rows too expensive: Σ17 boundary / interior = {ratio:.3} \
                 over the cap {cap} — domain faces are no longer served by the row kernels"
            ));
        }
        boundary_note = format!(", boundary/interior Σ17 = {ratio:.3} under the cap");
    }

    let phase_note = if o.phases {
        format!(", {with_phases} phase breakdown(s) present")
    } else {
        String::new()
    };
    let gate_note = if o.max_barrier_share.is_some() {
        format!(", {gated} imbalance share(s) under the cap")
    } else {
        String::new()
    };
    let traffic_note = if o.min_traffic_reduction.is_some() {
        format!(", {traffic_pairs} tiled traffic cut(s) over the floor")
    } else {
        String::new()
    };
    let tail_note = if o.max_p99_ratio.is_some() {
        format!(", {tails} latency tail(s) under the cap")
    } else {
        String::new()
    };
    Ok(format!(
        "{} record(s) well-formed, {pairs} steady/first pair(s) \
         ordered{phase_note}{gate_note}{traffic_note}{tail_note}{boundary_note}",
        recs.len()
    ))
}

fn check_pair(recs: &[Rec], first: &Rec, steady_label: &str, o: &Opts) -> Result<usize, String> {
    let steady = recs
        .iter()
        .find(|r| r.group == "steady_state" && r.label == steady_label)
        .ok_or_else(|| format!("`{}` has no `{steady_label}` partner", first.label))?;
    if steady.median_ns >= first.median_ns {
        return Err(format!(
            "steady step is not faster than the first step: `{}` median {} ns \
             vs `{}` median {} ns",
            steady_label, steady.median_ns, first.label, first.median_ns
        ));
    }
    if let Some(cap) = o.max_steady_ratio {
        let ratio = steady.median_ns / first.median_ns;
        if ratio > cap {
            return Err(format!(
                "steady/first ratio regressed: `{steady_label}` / `{}` = {ratio:.3} \
                 exceeds the cap {cap} — plan replay is no longer pulling its weight",
                first.label
            ));
        }
    }
    Ok(1)
}
