//! `bench-check` — validates benchmark and trace artifacts in CI.
//!
//! Usage: `bench-check [<bench.json>] [--max-boundary-ratio R]
//! [--chrome <trace.json>] [--prom <scrape.txt> [<scrape2.txt>]]
//! [--scrape <addr>]`. Performance is measured by `benchmark/` (see
//! `BENCHMARK.json`); this binary only checks artifacts nothing else
//! reads. Exits non-zero when
//!
//! * the bench file is not well-formed JSON or not an array of complete
//!   `{group, label, min_ns, median_ns, max_ns, iters}` records with
//!   `min ≤ median ≤ max` and positive `iters`, or
//! * `--max-boundary-ratio R` is given (it needs a bench file: without
//!   one it is a usage error) and the `kernel_blocks` group of
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
    max_boundary_ratio: Option<f64>,
    prom_paths: Vec<String>,
    scrape_addr: Option<String>,
}

fn parse_opts() -> Result<Opts, String> {
    let mut o = Opts {
        bench_path: None,
        chrome_path: None,
        max_boundary_ratio: None,
        prom_paths: Vec::new(),
        scrape_addr: None,
    };
    let mut args = std::env::args().skip(1).peekable();
    while let Some(a) = args.next() {
        match a.as_str() {
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
    if o.prom_paths.len() > 2 {
        return Err("--prom takes at most two scrape files".into());
    }
    if o.max_boundary_ratio.is_some() && o.bench_path.is_none() {
        return Err("--max-boundary-ratio gates a bench file; none was given".into());
    }
    if o.bench_path.is_none()
        && o.chrome_path.is_none()
        && o.prom_paths.is_empty()
        && o.scrape_addr.is_none()
    {
        return Err("usage: bench-check [<bench.json>] \
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
        match check(&doc, o.max_boundary_ratio) {
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

/// One validated record (only the fields the checks need).
struct Rec {
    group: String,
    label: String,
    min_ns: f64,
}

fn field_f64(obj: &Json, key: &str, n: usize) -> Result<f64, String> {
    obj.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("record {n}: missing numeric `{key}`"))
}

fn check(doc: &Json, max_boundary_ratio: Option<f64>) -> Result<String, String> {
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
        recs.push(Rec {
            group: group.to_string(),
            label: label.to_string(),
            min_ns: min,
        });
    }

    // Boundary gate: the 17-stage step over a whole-domain block must
    // cost at most `cap` times the same block inside a larger domain.
    let mut boundary_note = String::new();
    if let Some(cap) = max_boundary_ratio {
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

    Ok(format!(
        "{} record(s) well-formed{boundary_note}",
        recs.len()
    ))
}
