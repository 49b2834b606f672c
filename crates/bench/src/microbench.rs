//! A minimal, std-only microbenchmark harness.
//!
//! The hermetic build rules out the external `criterion` crate, and the
//! microbenches under `benches/` only ever used a sliver of its API:
//! named groups, per-group sample counts, and a timed closure. This
//! module provides exactly that sliver. Each benchmark
//!
//! 1. calibrates a batch size so one sample runs for at least
//!    [`MIN_SAMPLE_NANOS`] (timer noise stays far below 1 %),
//! 2. takes `samples` timed batches after one warmup batch,
//! 3. prints min / median / max per-iteration times.
//!
//! A single positional command-line argument (as in
//! `cargo bench --bench kernels -- boundary`) filters benchmarks by
//! substring of `group/label`. `--json <path>` writes, besides the
//! human-readable report, every result as a JSON array of `{group,
//! label, min_ns, median_ns, max_ns, iters}` objects to `path` (the
//! `bench-check` binary validates such artifacts in CI).

use crate::json::Json;
use std::time::{Duration, Instant};

/// One finished measurement, as serialized by `--json`.
#[derive(Clone, Debug, PartialEq)]
pub struct Record {
    /// Group name (the [`Harness::group`] argument).
    pub group: String,
    /// Label within the group (including any `bench_param` parameter).
    pub label: String,
    /// Fastest per-iteration time over all samples, nanoseconds.
    pub min_ns: f64,
    /// Median per-iteration time, nanoseconds.
    pub median_ns: f64,
    /// Slowest per-iteration time, nanoseconds.
    pub max_ns: f64,
    /// Total timed iterations (samples × calibrated batch).
    pub iters: u64,
}

/// Minimum duration of one timed sample.
pub const MIN_SAMPLE_NANOS: u64 = 2_000_000;

/// Upper bound on the calibrated batch size. No real benchmark body
/// needs 2³⁴ iterations to fill [`MIN_SAMPLE_NANOS`]; hitting the cap
/// means the body was optimized away or the clock is broken, and
/// calibration reports that instead of saturating at `u64::MAX` and
/// spinning forever.
const MAX_BATCH: u64 = 1 << 34;

/// One calibration step: the next batch size after `batch` iterations
/// took `elapsed_ns` against a `min_ns` sample target, or `None` once
/// growth would exceed [`MAX_BATCH`]. Grows by at least 2× per round
/// and overshoots toward the target (clamped at 1024×) so calibration
/// converges in a few rounds even for nanosecond-scale bodies.
fn grow_batch(batch: u64, elapsed_ns: u64, min_ns: u64) -> Option<u64> {
    let scale = (min_ns / elapsed_ns.max(1)).clamp(2, 1024);
    let next = batch.saturating_mul(scale);
    (next <= MAX_BATCH).then_some(next)
}

/// Top-level harness: owns the filter and prints the report.
#[derive(Debug)]
pub struct Harness {
    filter: Option<String>,
    json_path: Option<String>,
    records: Vec<Record>,
    ran: usize,
    skipped: usize,
}

impl Harness {
    /// Builds a harness from `std::env::args`: `--json <path>` is
    /// consumed, the first remaining non-flag argument becomes the
    /// substring filter, and other flags cargo may pass are ignored.
    pub fn from_env() -> Self {
        let mut filter = None;
        let mut json_path = None;
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            if a == "--json" {
                json_path = Some(args.next().unwrap_or_else(|| {
                    eprintln!("--json requires a path argument");
                    std::process::exit(2);
                }));
            } else if !a.starts_with('-') && filter.is_none() {
                filter = Some(a);
            }
        }
        Harness {
            filter,
            json_path,
            records: Vec::new(),
            ran: 0,
            skipped: 0,
        }
    }

    /// Starts a named group of benchmarks.
    pub fn group(&mut self, name: &str) -> Group<'_> {
        Group {
            harness: self,
            name: name.to_string(),
            samples: 20,
        }
    }

    /// Prints the run summary and writes the `--json` artifact (if one
    /// was requested). Call once at the end of `main`.
    ///
    /// # Panics
    ///
    /// Panics when the JSON artifact cannot be written.
    pub fn finish(self) {
        println!(
            "\n{} benchmark(s) run, {} filtered out",
            self.ran, self.skipped
        );
        if let Some(path) = &self.json_path {
            std::fs::write(path, render_json(&self.records))
                .unwrap_or_else(|e| panic!("writing bench JSON to {path}: {e}"));
            println!("wrote {} record(s) to {path}", self.records.len());
        }
    }
}

/// Renders records as a JSON array (stable key order) — the exact
/// format `bench-check` parses back. Goes through [`crate::json`]'s
/// emitter, so a NaN or infinity in a record is an error here rather
/// than an invalid artifact downstream.
///
/// # Panics
///
/// Panics when any record holds a non-finite number.
pub fn render_json(records: &[Record]) -> String {
    let items: Vec<Json> = records
        .iter()
        .map(|r| {
            Json::Object(vec![
                ("group".to_string(), Json::Str(r.group.clone())),
                ("label".to_string(), Json::Str(r.label.clone())),
                ("min_ns".to_string(), Json::Num(r.min_ns)),
                ("median_ns".to_string(), Json::Num(r.median_ns)),
                ("max_ns".to_string(), Json::Num(r.max_ns)),
                ("iters".to_string(), Json::Num(r.iters as f64)),
            ])
        })
        .collect();
    let mut s = Json::Array(items)
        .render()
        .unwrap_or_else(|e| panic!("bench record holds a non-finite number: {e}"));
    s.push('\n');
    s
}

/// A named group of benchmarks sharing a sample count.
#[derive(Debug)]
pub struct Group<'a> {
    harness: &'a mut Harness,
    name: String,
    samples: usize,
}

impl Group<'_> {
    /// Sets the number of timed samples per benchmark in this group.
    pub fn sample_size(&mut self, samples: usize) -> &mut Self {
        self.samples = samples.max(3);
        self
    }

    /// Times `f`, reporting per-iteration statistics under
    /// `group/label`.
    pub fn bench<F: FnMut()>(&mut self, label: &str, mut f: F) {
        let full = format!("{}/{}", self.name, label);
        if let Some(flt) = &self.harness.filter {
            if !full.contains(flt.as_str()) {
                self.harness.skipped += 1;
                return;
            }
        }
        let min_sample = Duration::from_nanos(MIN_SAMPLE_NANOS);
        let samples = self.samples;

        // Calibrate: grow the batch until one batch clears min_sample.
        let mut batch = 1_u64;
        loop {
            let t = Instant::now();
            for _ in 0..batch {
                f();
            }
            let elapsed = t.elapsed();
            if elapsed >= min_sample {
                break;
            }
            batch = grow_batch(
                batch,
                elapsed.as_nanos() as u64,
                min_sample.as_nanos() as u64,
            )
            .unwrap_or_else(|| {
                panic!(
                    "calibrating {full}: {batch} iterations still finished in \
                     {elapsed:?} (target {min_sample:?}); the benchmark body \
                     appears to be optimized away or the clock is broken"
                )
            });
        }

        // Warmup batch, then timed samples.
        for _ in 0..batch {
            f();
        }
        let mut per_iter: Vec<f64> = Vec::with_capacity(samples);
        for _ in 0..samples {
            let t = Instant::now();
            for _ in 0..batch {
                f();
            }
            per_iter.push(t.elapsed().as_nanos() as f64 / batch as f64);
        }
        per_iter.sort_by(|a, b| a.total_cmp(b));
        let min = per_iter[0];
        let median = per_iter[per_iter.len() / 2];
        let max = per_iter[per_iter.len() - 1];
        println!(
            "{full:<44} {:>12}  (min {}, max {}, {samples}×{batch} iters)",
            fmt_ns(median),
            fmt_ns(min),
            fmt_ns(max),
        );
        self.harness.records.push(Record {
            group: self.name.clone(),
            label: label.to_string(),
            min_ns: min,
            median_ns: median,
            max_ns: max,
            iters: samples as u64 * batch,
        });
        self.harness.ran += 1;
    }

    /// Criterion-style alias: benchmark `f` with a parameter shown in
    /// the label, e.g. `bench_param("original", 4, || ...)`.
    pub fn bench_param<P: std::fmt::Display, F: FnMut()>(&mut self, label: &str, param: P, f: F) {
        let composite = format!("{label}/{param}");
        self.bench(&composite, f);
    }

    /// Ends the group (kept for call-site symmetry; no work needed).
    pub fn finish(self) {}
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.1} ns")
    } else if ns < 1e6 {
        format!("{:.2} µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.3} s", ns / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formats_time_scales() {
        assert_eq!(fmt_ns(12.34), "12.3 ns");
        assert_eq!(fmt_ns(12_340.0), "12.34 µs");
        assert_eq!(fmt_ns(12_340_000.0), "12.34 ms");
        assert_eq!(fmt_ns(2_500_000_000.0), "2.500 s");
    }

    fn test_harness(filter: Option<String>) -> Harness {
        Harness {
            filter,
            json_path: None,
            records: Vec::new(),
            ran: 0,
            skipped: 0,
        }
    }

    #[test]
    fn bench_runs_and_counts() {
        let mut h = test_harness(None);
        let mut g = h.group("t");
        g.sample_size(3);
        let mut hits = 0_u64;
        // Opaque to the optimizer: a bare `hits += 1` loop folds into
        // one add, and calibration rightly reports the body as gone.
        g.bench("noop", || hits = std::hint::black_box(hits) + 1);
        g.finish();
        assert_eq!(h.ran, 1);
        assert!(hits > 0);
        assert_eq!(h.records.len(), 1);
        let r = &h.records[0];
        assert_eq!((r.group.as_str(), r.label.as_str()), ("t", "noop"));
        assert!(r.min_ns <= r.median_ns && r.median_ns <= r.max_ns);
        assert!(r.iters > 0);
    }

    #[test]
    fn filter_skips_nonmatching() {
        let mut h = test_harness(Some("nomatch".into()));
        let mut g = h.group("t");
        g.bench("noop", || {});
        g.finish();
        assert_eq!(h.ran, 0);
        assert_eq!(h.skipped, 1);
        assert!(h.records.is_empty());
    }

    #[test]
    fn json_rendering_is_parseable_and_escaped() {
        let records = vec![
            Record {
                group: "g".into(),
                label: "plain/4".into(),
                min_ns: 1.5,
                median_ns: 2.5,
                max_ns: 3.5,
                iters: 60,
            },
            Record {
                group: "g".into(),
                label: "quo\"te\\back".into(),
                min_ns: 10.0,
                median_ns: 20.0,
                max_ns: 30.0,
                iters: 3,
            },
        ];
        let s = render_json(&records);
        let parsed = crate::json::parse(&s).expect("own output parses");
        let arr = parsed.as_array().expect("top-level array");
        assert_eq!(arr.len(), 2);
        assert_eq!(
            arr[0].get("label").and_then(|v| v.as_str()),
            Some("plain/4")
        );
        assert_eq!(arr[0].get("median_ns").and_then(|v| v.as_f64()), Some(2.5));
        assert_eq!(arr[0].get("iters").and_then(|v| v.as_f64()), Some(60.0));
        assert_eq!(
            arr[1].get("label").and_then(|v| v.as_str()),
            Some("quo\"te\\back")
        );
    }

    #[test]
    fn batch_growth_is_capped_instead_of_pinning_at_max() {
        // A zero-elapsed clock (body optimized away, broken timer) must
        // walk up to the cap and then report None — the old
        // `saturating_mul` pinned the batch at u64::MAX and the
        // calibration loop span forever trying to run it.
        let mut batch = 1_u64;
        let mut rounds = 0;
        while let Some(next) = grow_batch(batch, 0, MIN_SAMPLE_NANOS) {
            assert!(next > batch, "growth stalled at {batch}");
            assert!(next <= MAX_BATCH);
            batch = next;
            rounds += 1;
            assert!(rounds < 64, "growth never reached the cap");
        }
        assert!(batch <= MAX_BATCH);
        // Ordinary convergence is untouched: half the target doubles...
        assert_eq!(
            grow_batch(100, MIN_SAMPLE_NANOS / 2, MIN_SAMPLE_NANOS),
            Some(200)
        );
        // ...and a near-instant batch jumps by the clamped 1024× max.
        assert_eq!(grow_batch(1, 1, u64::MAX / 2), Some(1024));
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn render_rejects_non_finite_medians() {
        let records = vec![Record {
            group: "g".into(),
            label: "bad".into(),
            min_ns: 1.0,
            median_ns: f64::NAN,
            max_ns: 3.0,
            iters: 1,
        }];
        render_json(&records);
    }
}
