//! `bench-check` — scrapes a live `mpdata-run --serve-metrics` endpoint
//! twice and validates what it serves (CI's `telemetry-smoke` job).
//!
//! Usage: `bench-check --scrape <addr>`. Performance is measured by
//! `benchmark/` (see `BENCHMARK.json`); this binary only performs the
//! one check nothing else does. It takes two `GET /metrics` scrapes
//! (std-only HTTP/1.1 over `TcpStream`, ~400 ms apart) and exits 1
//! unless
//!
//! * both parse as Prometheus text exposition through the in-repo
//!   `islands_trace::export::validate_exposition` parser,
//! * every `_total` counter of the first scrape is present and
//!   non-decreasing in the second,
//! * the summed `islands_kernel_ns_total` strictly increases (the run
//!   was alive between the scrapes), and
//! * the second scrape shows nonzero kernel time and computed cells
//!   for at least one island.
//!
//! No argument, or any other one, is a usage error (exit 2).

use islands_trace::export::{validate_exposition, Sample};
use std::collections::HashMap;

fn main() {
    std::process::exit(run());
}

const USAGE: &str = "usage: bench-check --scrape <addr>";

fn run() -> i32 {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let addr = match &args[..] {
        [flag, addr] if flag == "--scrape" => addr,
        _ => {
            eprintln!("bench-check: {USAGE}");
            return 2;
        }
    };
    let result = scrape(addr).and_then(|first| {
        std::thread::sleep(std::time::Duration::from_millis(400));
        let second = scrape(addr)?;
        check_scrapes(&first, &second)
    });
    match result {
        Ok(summary) => {
            println!("bench-check: {addr}: {summary}");
            0
        }
        Err(e) => {
            eprintln!("bench-check: {addr}: {e}");
            1
        }
    }
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

/// Validates two Prometheus exposition documents, scraped in order
/// from one live run: syntax via the in-repo parser, nonzero kernel
/// counters in the second, counter monotonicity and liveness of the
/// kernel counters between the two.
fn check_scrapes(first: &str, second: &str) -> Result<String, String> {
    let parse = |n: usize, doc: &str| {
        let samples =
            validate_exposition(doc).map_err(|e| format!("scrape {n}: invalid exposition: {e}"))?;
        if samples.is_empty() {
            return Err(format!("scrape {n}: no samples"));
        }
        Ok(samples)
    };
    let (first, second) = (parse(1, first)?, parse(2, second)?);
    for name in ["islands_kernel_ns_total", "islands_computed_cells_total"] {
        if island_total(&second, name) <= 0.0 {
            return Err(format!(
                "final scrape: `{name}` is zero across all islands — the \
                 collector never folded a kernel span"
            ));
        }
    }
    let after = index(&second);
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
        island_total(&first, "islands_kernel_ns_total"),
        island_total(&second, "islands_kernel_ns_total"),
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
}
