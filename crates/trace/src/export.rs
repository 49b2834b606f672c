//! Exposition formats for the live metrics registry: Prometheus text
//! format and a strict-JSON snapshot.
//!
//! The Prometheus renderer emits text exposition format 0.0.4
//! (`# HELP`/`# TYPE` headers, `name{labels} value` samples, cumulative
//! histogram buckets with a final `+Inf`). [`validate_exposition`] is
//! the matching parser — CI's `telemetry-smoke` job scrapes a live run
//! twice and validates syntax plus counter monotonicity through it, so
//! renderer and validator are kept in one file and round-trip tested.
//!
//! The per-island families (`islands_<key>_total`) and the JSON island
//! objects both come from the one table in [`crate::metrics`]
//! (`ISLAND_COUNTERS`, `IslandMetrics::to_json`), so `/metrics`,
//! `/metrics.json` and `--metrics-json` name island fields alike.
//!
//! The JSON snapshot goes through the strict [`crate::json`] renderer:
//! any NaN/infinity in a derived rate is a hard error, never a
//! silently-invalid document.

use crate::histogram::{bucket_ceil, HistogramSnapshot};
use crate::json::{self, Json, NonFiniteError};
use crate::metrics::{IslandMetrics, ISLAND_COUNTERS};
use crate::registry::RegistrySnapshot;
use std::fmt::Write as _;

/// One parsed sample line of an exposition document.
#[derive(Clone, Debug, PartialEq)]
pub struct Sample {
    /// Metric name (including any `_bucket`/`_sum`/`_count` suffix).
    pub name: String,
    /// Raw label block, braces stripped; empty when absent.
    pub labels: String,
    /// Sample value.
    pub value: f64,
}

impl Sample {
    /// Stable identity for cross-scrape comparison.
    pub fn key(&self) -> String {
        format!("{}{{{}}}", self.name, self.labels)
    }
}

// ---------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------

fn push_header(out: &mut String, name: &str, help: &str, kind: &str) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

fn push_f64(out: &mut String, name: &str, labels: &str, v: f64) -> Result<(), NonFiniteError> {
    // The strict renderer is the non-finite gate for float gauges.
    let text = json::render_f64(v)?;
    if labels.is_empty() {
        let _ = writeln!(out, "{name} {text}");
    } else {
        let _ = writeln!(out, "{name}{{{labels}}} {text}");
    }
    Ok(())
}

fn push_u64(out: &mut String, name: &str, labels: &str, v: u64) {
    if labels.is_empty() {
        let _ = writeln!(out, "{name} {v}");
    } else {
        let _ = writeln!(out, "{name}{{{labels}}} {v}");
    }
}

fn push_histogram(out: &mut String, name: &str, help: &str, h: &HistogramSnapshot) {
    push_header(out, name, help, "histogram");
    let mut cumulative = 0u64;
    let last_nonzero = h.buckets.iter().rposition(|&n| n > 0).unwrap_or(0);
    for (i, &n) in h.buckets.iter().enumerate().take(last_nonzero + 1) {
        cumulative += n;
        let le = bucket_ceil(i);
        let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cumulative}");
    }
    let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count);
    push_u64(out, &format!("{name}_sum"), "", h.sum);
    push_u64(out, &format!("{name}_count"), "", h.count);
}

fn push_quantiles(out: &mut String, base: &str, help: &str, h: &HistogramSnapshot) {
    for (p, q) in [("p50", 0.50), ("p90", 0.90), ("p99", 0.99)] {
        let name = format!("{base}_{p}_ns");
        push_header(out, &name, help, "gauge");
        push_u64(out, &name, "", h.quantile(q));
    }
}

/// Renders a registry snapshot as Prometheus text exposition format.
///
/// Returns [`NonFiniteError`] if a derived rate (cells/s, imbalance)
/// is non-finite — the same strictness contract as the JSON path.
pub fn prometheus(s: &RegistrySnapshot) -> Result<String, NonFiniteError> {
    let mut out = String::new();
    for c in &ISLAND_COUNTERS {
        let name = format!("islands_{}_total", c.key);
        push_header(&mut out, &name, c.help, "counter");
        for island in &s.islands {
            let labels = format!("island=\"{}\"", island.island);
            push_u64(&mut out, &name, &labels, (c.get)(island));
        }
    }
    push_header(
        &mut out,
        "islands_workers",
        "Workers observed per island",
        "gauge",
    );
    for island in &s.islands {
        push_u64(
            &mut out,
            "islands_workers",
            &format!("island=\"{}\"", island.island),
            u64::from(island.workers),
        );
    }
    for (name, help, kind, v) in [
        (
            "islands_current_step",
            "Newest time step observed",
            "gauge",
            s.current_step,
        ),
        (
            "islands_dropped_events_total",
            "Trace events lost to ring wrap",
            "counter",
            s.dropped_events,
        ),
        (
            "islands_drain_unpublished_total",
            "Concurrent-drain protocol violations (0 by proof)",
            "counter",
            s.unpublished,
        ),
        (
            "islands_dispatch_ns_total",
            "Pool dispatch time on caller threads, ns",
            "counter",
            s.dispatch_ns,
        ),
        (
            "islands_events_folded_total",
            "Trace spans folded by the collector",
            "counter",
            s.events_folded,
        ),
    ] {
        push_header(&mut out, name, help, kind);
        push_u64(&mut out, name, "", v);
    }
    push_header(
        &mut out,
        "islands_cells_per_second",
        "Computed-cell rate over the registry lifetime",
        "gauge",
    );
    push_f64(
        &mut out,
        "islands_cells_per_second",
        "",
        s.cells_per_second(),
    )?;
    if let Some(imb) = s.imbalance() {
        push_header(
            &mut out,
            "islands_imbalance_ratio",
            "Max/mean per-worker kernel time across islands",
            "gauge",
        );
        push_f64(&mut out, "islands_imbalance_ratio", "", imb)?;
    }
    push_histogram(
        &mut out,
        "islands_step_duration_ns",
        "Per-step wall time, ns",
        &s.step_ns,
    );
    push_quantiles(
        &mut out,
        "islands_step",
        "Step wall-time quantile, ns",
        &s.step_ns,
    );
    push_histogram(
        &mut out,
        "islands_kernel_span_ns",
        "Kernel span durations, ns",
        &s.kernel_span_ns,
    );
    push_histogram(
        &mut out,
        "islands_barrier_span_ns",
        "Barrier span durations, ns",
        &s.barrier_span_ns,
    );
    Ok(out)
}

// ---------------------------------------------------------------------
// JSON snapshot
// ---------------------------------------------------------------------

fn hist_json(h: &HistogramSnapshot) -> Json {
    Json::Object(vec![
        ("count".into(), Json::Num(h.count as f64)),
        ("sum".into(), Json::Num(h.sum as f64)),
        ("p50".into(), Json::Num(h.quantile(0.50) as f64)),
        ("p90".into(), Json::Num(h.quantile(0.90) as f64)),
        ("p99".into(), Json::Num(h.quantile(0.99) as f64)),
    ])
}

/// Builds the JSON snapshot document for a registry snapshot.
pub fn json_snapshot(s: &RegistrySnapshot) -> Json {
    let islands = s.islands.iter().map(IslandMetrics::to_json).collect();
    Json::Object(vec![
        ("current_step".into(), Json::Num(s.current_step as f64)),
        ("dropped_events".into(), Json::Num(s.dropped_events as f64)),
        ("unpublished".into(), Json::Num(s.unpublished as f64)),
        ("events_folded".into(), Json::Num(s.events_folded as f64)),
        ("dispatch_ns".into(), Json::Num(s.dispatch_ns as f64)),
        ("elapsed_ns".into(), Json::Num(s.elapsed_ns as f64)),
        ("cells_per_second".into(), Json::Num(s.cells_per_second())),
        (
            "imbalance".into(),
            s.imbalance().map(Json::Num).unwrap_or(Json::Null),
        ),
        ("islands".into(), Json::Array(islands)),
        ("step_ns".into(), hist_json(&s.step_ns)),
        ("kernel_span_ns".into(), hist_json(&s.kernel_span_ns)),
        ("barrier_span_ns".into(), hist_json(&s.barrier_span_ns)),
    ])
}

/// Renders the JSON snapshot through the strict renderer (non-finite
/// values are a hard error).
pub fn render_json_snapshot(s: &RegistrySnapshot) -> Result<String, NonFiniteError> {
    json_snapshot(s).render()
}

// ---------------------------------------------------------------------
// Exposition validation
// ---------------------------------------------------------------------

fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn parse_labels(block: &str, line_no: usize) -> Result<(), String> {
    // label_name="value" pairs, comma-separated; values may escape
    // \\ \" \n.
    let mut rest = block;
    loop {
        rest = rest.trim_start();
        if rest.is_empty() {
            return Ok(());
        }
        let eq = rest
            .find('=')
            .ok_or_else(|| format!("line {line_no}: label without '='"))?;
        let label = rest[..eq].trim();
        if !valid_metric_name(label) || label.contains(':') {
            return Err(format!("line {line_no}: bad label name {label:?}"));
        }
        rest = &rest[eq + 1..];
        if !rest.starts_with('"') {
            return Err(format!("line {line_no}: label value not quoted"));
        }
        let mut escaped = false;
        let mut end = None;
        for (i, c) in rest.char_indices().skip(1) {
            if escaped {
                if !matches!(c, '\\' | '"' | 'n') {
                    return Err(format!("line {line_no}: bad escape \\{c}"));
                }
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                end = Some(i);
                break;
            }
        }
        let end = end.ok_or_else(|| format!("line {line_no}: unterminated label value"))?;
        rest = rest[end + 1..].trim_start();
        if rest.starts_with(',') {
            rest = &rest[1..];
        } else if !rest.is_empty() {
            return Err(format!("line {line_no}: junk after label value"));
        }
    }
}

fn parse_value(text: &str) -> Option<f64> {
    match text {
        "+Inf" => Some(f64::INFINITY),
        "-Inf" => Some(f64::NEG_INFINITY),
        "NaN" => Some(f64::NAN),
        _ => text.parse::<f64>().ok(),
    }
}

/// Parses and validates a Prometheus text exposition document.
///
/// Checks: header syntax (`# HELP` / `# TYPE` with a known type),
/// metric/label name charsets, quoted-and-escaped label values,
/// parseable sample values, and that every sample belongs to a family
/// declared by a preceding `# TYPE` line. Returns the samples for
/// cross-scrape monotonicity checks.
pub fn validate_exposition(text: &str) -> Result<Vec<Sample>, String> {
    let mut samples = Vec::new();
    let mut families: Vec<String> = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            let rest = rest.trim_start();
            if let Some(decl) = rest.strip_prefix("TYPE ") {
                let mut parts = decl.split_whitespace();
                let name = parts
                    .next()
                    .ok_or_else(|| format!("line {line_no}: TYPE without name"))?;
                let kind = parts
                    .next()
                    .ok_or_else(|| format!("line {line_no}: TYPE without type"))?;
                if !valid_metric_name(name) {
                    return Err(format!("line {line_no}: bad metric name {name:?}"));
                }
                if !matches!(
                    kind,
                    "counter" | "gauge" | "histogram" | "summary" | "untyped"
                ) {
                    return Err(format!("line {line_no}: unknown type {kind:?}"));
                }
                families.push(name.to_string());
            } else if let Some(decl) = rest.strip_prefix("HELP ") {
                let name = decl
                    .split_whitespace()
                    .next()
                    .ok_or_else(|| format!("line {line_no}: HELP without name"))?;
                if !valid_metric_name(name) {
                    return Err(format!("line {line_no}: bad metric name {name:?}"));
                }
            }
            // Other comments are legal and ignored.
            continue;
        }
        // Sample line: name[{labels}] value [timestamp]
        let name_end = line
            .find(|c: char| c == '{' || c.is_whitespace())
            .ok_or_else(|| format!("line {line_no}: sample without value"))?;
        let name = &line[..name_end];
        if !valid_metric_name(name) {
            return Err(format!("line {line_no}: bad metric name {name:?}"));
        }
        let mut labels = "";
        let value_part;
        if line[name_end..].starts_with('{') {
            let close = line[name_end..]
                .find('}')
                .ok_or_else(|| format!("line {line_no}: unterminated label block"))?;
            labels = &line[name_end + 1..name_end + close];
            parse_labels(labels, line_no)?;
            value_part = line[name_end + close + 1..].trim();
        } else {
            value_part = line[name_end..].trim();
        }
        let mut fields = value_part.split_whitespace();
        let value_text = fields
            .next()
            .ok_or_else(|| format!("line {line_no}: sample without value"))?;
        let value = parse_value(value_text)
            .ok_or_else(|| format!("line {line_no}: bad value {value_text:?}"))?;
        if let Some(ts) = fields.next() {
            if ts.parse::<i64>().is_err() {
                return Err(format!("line {line_no}: bad timestamp {ts:?}"));
            }
        }
        if fields.next().is_some() {
            return Err(format!("line {line_no}: junk after sample"));
        }
        let in_family = families.iter().any(|f| {
            name == f
                || (name
                    .strip_prefix(f.as_str())
                    .is_some_and(|suffix| matches!(suffix, "_bucket" | "_sum" | "_count")))
        });
        if !in_family {
            return Err(format!(
                "line {line_no}: sample {name:?} has no preceding # TYPE declaration"
            ));
        }
        samples.push(Sample {
            name: name.to_string(),
            labels: labels.to_string(),
            value,
        });
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::MetricsRegistry;
    use crate::{Event, SpanKind, TaggedEvent};

    fn populated_registry() -> MetricsRegistry {
        let r = MetricsRegistry::new(2);
        for (island, dur) in [(0u32, 120u64), (1, 80)] {
            r.absorb(&TaggedEvent {
                thread: island,
                ev: Event {
                    kind: SpanKind::Kernel,
                    start_ns: 0,
                    dur_ns: dur,
                    aux: [100, 5, 0],
                    island,
                    rank: 0,
                    step: 3,
                    stage: 1,
                    block: 0,
                },
            });
        }
        r.step_ns.record(1000);
        r.step_ns.record(1200);
        r
    }

    #[test]
    fn prometheus_round_trips_through_the_validator() {
        let r = populated_registry();
        let text = prometheus(&r.snapshot()).unwrap();
        let samples = validate_exposition(&text).unwrap();
        let kernel: Vec<_> = samples
            .iter()
            .filter(|s| s.name == "islands_kernel_ns_total")
            .collect();
        assert_eq!(kernel.len(), 2);
        assert_eq!(kernel[0].labels, "island=\"0\"");
        assert_eq!(kernel[0].value, 120.0);
        assert!(samples
            .iter()
            .any(|s| s.name == "islands_current_step" && s.value == 3.0));
        // Histogram cumulative buckets end at the count.
        let inf = samples
            .iter()
            .find(|s| s.name == "islands_step_duration_ns_bucket" && s.labels.contains("+Inf"))
            .unwrap();
        assert_eq!(inf.value, 2.0);
    }

    /// Masks the two values that depend on the registry's age (the
    /// lifetime cell rate and `elapsed_ns`).
    fn mask(text: &str) -> String {
        let mut out = text.to_string();
        for key in [
            "\nislands_cells_per_second ",
            "\"elapsed_ns\":",
            "\"cells_per_second\":",
        ] {
            if let Some(at) = out.find(key) {
                let start = at + key.len();
                let end = out[start..]
                    .find([',', '\n'])
                    .map_or(out.len(), |n| start + n);
                out.replace_range(start..end, "<masked>");
            }
        }
        out
    }

    #[test]
    fn exposition_and_snapshot_names_do_not_move() {
        // Both documents for the fixture, byte for byte as the
        // renderers wrote them before the island fields moved into one
        // shared table.
        let s = populated_registry().snapshot();
        assert_eq!(
            mask(&prometheus(&s).unwrap()),
            include_str!("../tests/golden/prometheus.txt")
        );
        assert_eq!(
            mask(&render_json_snapshot(&s).unwrap()),
            include_str!("../tests/golden/json_snapshot.json").trim_end()
        );
    }

    #[test]
    fn json_snapshot_round_trips_through_strict_parser() {
        let r = populated_registry();
        let text = render_json_snapshot(&r.snapshot()).unwrap();
        let doc = json::parse(&text).unwrap();
        assert_eq!(
            doc.get("islands").and_then(|v| match v {
                Json::Array(a) => Some(a.len()),
                _ => None,
            }),
            Some(2)
        );
        assert!(doc.get("cells_per_second").is_some());
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        for (bad, why) in [
            ("islands_x_total 1", "no TYPE declaration"),
            ("# TYPE islands_x counter\nislands_x nope", "bad value"),
            (
                "# TYPE islands_x counter\nislands_x{island=0} 1",
                "unquoted label",
            ),
            ("# TYPE islands_x wat\nislands_x 1", "unknown type"),
            (
                "# TYPE islands_x counter\nislands_x{island=\"0\" 1",
                "unterminated",
            ),
        ] {
            assert!(validate_exposition(bad).is_err(), "accepted: {why}");
        }
    }
}
