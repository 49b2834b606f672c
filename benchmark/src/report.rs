//! Printing one run, running all workloads as child processes into one
//! result file, and comparing two result files.

use crate::catalog::{catalog, Better, Class, MetricDef};
use crate::host::{command_line, Host};
use crate::outcome::Outcome;
use crate::workloads::{self, Workload};
use crate::{out_dir, RunArgs, EXIT_HOST, EXIT_USAGE};
use islands_trace::json::{self, Json};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

/// Schema tag of the `--all` result file.
const SCHEMA: &str = "islands-benchmark/1";
/// Prefix of the detail line a workload run prints before its result.
const DETAIL_PREFIX: &str = "detail: ";

fn metrics_json(rows: &[(MetricDef, f64)]) -> Json {
    Json::Object(
        rows.iter()
            .map(|(d, v)| {
                (
                    d.name.clone(),
                    Json::Object(vec![
                        ("value".into(), Json::Num(*v)),
                        ("unit".into(), Json::Str(d.unit.into())),
                    ]),
                )
            })
            .collect(),
    )
}

/// The last line of a workload run: exactly the keys `correct`,
/// `attempted`, `failed` and `metrics`.
fn result_line(out: &Outcome, rows: &[(MetricDef, f64)]) -> Result<String, json::NonFiniteError> {
    Json::Object(vec![
        ("correct".into(), Json::Bool(out.failed() == 0)),
        ("attempted".into(), Json::Num(out.attempted() as f64)),
        ("failed".into(), Json::Num(out.failed() as f64)),
        ("metrics".into(), metrics_json(rows)),
    ])
    .render()
}

/// Prints one workload run: every metric by name with its unit, the
/// checks, the detail record, and last the result line.
pub fn print_run(w: &Workload, args: &RunArgs, host: &Host, out: &Outcome) {
    let rows = out.values.for_run(args.trace);
    println!(
        "workload {} | seed {} | {} s | {} | {} worker(s) on {} core(s)",
        w.name,
        args.seed,
        args.seconds,
        if args.trace { "traced" } else { "untraced" },
        w.workers(),
        host.cores
    );
    for (d, v) in &rows {
        println!("  {:<44} {:>16.6} {}", d.name, v, d.unit);
    }
    for c in &out.checks {
        println!(
            "  check {:<24} {} ({})",
            c.name,
            if c.ok { "ok" } else { "FAILED" },
            c.note
        );
    }
    let mut detail = vec![
        ("workload".into(), Json::Str(w.name.into())),
        ("trace".into(), Json::Num(f64::from(u8::from(args.trace)))),
        ("seed".into(), Json::Num(args.seed as f64)),
        ("seconds".into(), Json::Num(args.seconds)),
        ("smoke".into(), Json::Bool(args.smoke)),
        ("workers".into(), Json::Num(w.workers() as f64)),
        ("host".into(), host.to_json()),
        ("params".into(), w.params_json()),
        ("attempted".into(), Json::Num(out.attempted() as f64)),
        ("failed".into(), Json::Num(out.failed() as f64)),
        ("checks".into(), out.checks_json()),
    ];
    detail.extend(out.detail.iter().cloned());
    // A non-finite measurement is a failed run, not a result.
    match (Json::Object(detail).render(), result_line(out, &rows)) {
        (Ok(detail), Ok(line)) => {
            println!("{DETAIL_PREFIX}{detail}");
            println!("{line}");
        }
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

/// What a child run printed.
struct ChildRun {
    result: Json,
    detail: Json,
}

fn run_child(w: &Workload, args: &RunArgs, trace: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if args.smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child to end.
    let output = cmd
        .output()
        .map_err(|e| format!("cannot start child: {e}"))?;
    if output.status.code() == Some(i32::from(EXIT_HOST)) {
        return Err("host too small (see the child's message above)".into());
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines = stdout.lines().rev();
    let result = lines
        .next()
        .ok_or("child printed nothing")
        .and_then(|l| json::parse(l).map_err(|_| "child's last line is not JSON"))
        .map_err(|e| format!("{e} (exit status {})", output.status))?;
    let detail = lines
        .find_map(|l| l.strip_prefix(DETAIL_PREFIX))
        .ok_or("child printed no detail line".to_string())
        .and_then(|l| json::parse(l).map_err(|e| e.to_string()))?;
    Ok(ChildRun { result, detail })
}

/// Runs every workload, each run in its own child process, one after
/// another; prints every metric and writes one JSON result.
pub fn run_all(args: &RunArgs, out_path: Option<PathBuf>) -> ExitCode {
    let host = Host::detect();
    let all = workloads::all(args.smoke);
    if let Some(w) = all.iter().find(|w| w.workers().max(2) > host.cores) {
        eprintln!(
            "error: workload {} (and the traced run's two-party probes) need 2 worker threads \
             but this host offers {} (available_parallelism); refusing to measure oversubscription",
            w.name, host.cores
        );
        return ExitCode::from(EXIT_HOST);
    }
    let defs = catalog();
    let mut entries = Vec::new();
    let (mut attempted, mut failed) = (0.0, 0.0);
    let mut prefix_fingerprints: Vec<(String, String)> = Vec::new();
    for w in &all {
        eprintln!("== {} ==", w.name);
        let runs = run_child(w, args, false).and_then(|u| Ok((u, run_child(w, args, true)?)));
        let (untraced, traced) = match runs {
            Ok(r) => r,
            Err(e) => {
                eprintln!("error: {}: {e}", w.name);
                return ExitCode::FAILURE;
            }
        };
        println!("{} — {}", w.name, w.why);
        for (label, run) in [("end to end", &untraced), ("per layer", &traced)] {
            println!("  [{label}]");
            let metrics = run.result.get("metrics");
            for d in &defs {
                let value = metrics
                    .and_then(|m| m.get(&d.name))
                    .and_then(|m| m.get("value"))
                    .and_then(Json::as_f64);
                if let Some(v) = value {
                    // 0 marks a layer the workload does not exercise.
                    if v != 0.0 || d.is_end_to_end() || d.class == Class::Exact {
                        println!("    {:<44} {:>16.6} {}", d.name, v, d.unit);
                    }
                }
            }
            let count = |key| run.result.get(key).and_then(Json::as_f64).unwrap_or(0.0);
            attempted += count("attempted");
            failed += count("failed");
        }
        if let Some(fp) = untraced
            .detail
            .get("fingerprints")
            .and_then(|f| f.get("prefix2"))
            .and_then(Json::as_str)
        {
            prefix_fingerprints.push((w.name.to_string(), fp.to_string()));
        }
        let take = |run: &ChildRun, key: &str| run.result.get(key).cloned().unwrap_or(Json::Null);
        entries.push(Json::Object(vec![
            ("name".into(), Json::Str(w.name.into())),
            ("why".into(), Json::Str(w.why.into())),
            ("workers".into(), Json::Num(w.workers() as f64)),
            ("params".into(), w.params_json()),
            ("end_to_end".into(), take(&untraced, "metrics")),
            ("per_layer".into(), take(&traced, "metrics")),
            ("untraced".into(), untraced.detail),
            ("traced".into(), traced.detail),
        ]));
    }

    // Same seed, same grid, same generator: the serial and the islands
    // run of the paper grid must produce the same numbers.
    let fp = |name: &str| {
        prefix_fingerprints
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, f)| f.clone())
    };
    let cross_ok = fp("paper_serial").is_some() && fp("paper_serial") == fp("paper_islands");
    attempted += 1.0;
    if !cross_ok {
        failed += 1.0;
        eprintln!("CHECK FAILED paper_serial and paper_islands 2-step prefixes differ");
    }
    let verify_fail = failed / attempted.max(1.0);
    println!(
        "verify_fail {verify_fail:.6} share ({failed} failed of {attempted} operations and checks)"
    );

    let doc = Json::Object(vec![
        ("schema".into(), Json::Str(SCHEMA.into())),
        (
            "mode".into(),
            Json::Str(if args.smoke { "smoke" } else { "full" }.into()),
        ),
        ("seed".into(), Json::Num(args.seed as f64)),
        ("seconds".into(), Json::Num(args.seconds)),
        ("host".into(), host.to_json()),
        ("rustc".into(), Json::Str(command_line("rustc", &["-V"]))),
        (
            "git_commit".into(),
            Json::Str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("workloads".into(), Json::Array(entries)),
        (
            "cross_checks".into(),
            Json::Array(vec![Json::Object(vec![
                ("name".into(), Json::Str("paper_prefix_equal".into())),
                ("ok".into(), Json::Bool(cross_ok)),
            ])]),
        ),
        ("verify_fail".into(), Json::Num(verify_fail)),
    ]);
    let path = out_path.unwrap_or_else(|| {
        let mode = if args.smoke { "smoke" } else { "full" };
        out_dir().join(format!("result.{mode}.seed{}.json", args.seed))
    });
    let written = doc
        .render()
        .map_err(|e| e.to_string())
        .and_then(|text| match json::parse(&text) {
            // Self-check through the strict parser before writing.
            Ok(back) if back == doc => Ok(text),
            Ok(_) => Err("result JSON did not round-trip".to_string()),
            Err(e) => Err(e.to_string()),
        })
        .and_then(|text| {
            if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
                std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
            }
            std::fs::write(&path, text + "\n").map_err(|e| e.to_string())
        });
    match written {
        Ok(()) => println!("result -> {}", path.display()),
        Err(e) => {
            eprintln!("error: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    if failed == 0.0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Verdict on one compared metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound.
    Within,
    /// The two differ by more than the bound, in either direction: the
    /// pair does not resolve the metric as unchanged.
    Unresolved,
    /// An exact metric that repeated to the last bit.
    Identical,
    /// An exact metric that changed.
    Different,
}

/// One row of a comparison.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric (or fingerprint) name.
    pub metric: String,
    /// Value in A, as printed.
    pub a: String,
    /// Value in B, as printed.
    pub b: String,
    /// `(B − A) ÷ A`, signed so that positive is worse; `None` for
    /// exact rows.
    pub worse_by: Option<f64>,
    /// The metric's bound, if it has one.
    pub bound: Option<f64>,
    /// The verdict.
    pub verdict: Verdict,
}

/// Compares two `--all` results.
///
/// # Errors
///
/// Refuses (with the reason) results that are not comparable: another
/// schema, mode, seed, run length, host shape or workload parameters.
pub fn compare(a: &Json, b: &Json) -> Result<Vec<Row>, String> {
    for key in ["schema", "mode", "seed", "seconds", "host"] {
        let (va, vb) = (a.get(key), b.get(key));
        if va.is_none() || va != vb {
            return Err(format!(
                "results differ in `{key}` ({} vs {}): not comparable",
                va.map_or("missing".into(), |v| v.render().unwrap_or_default()),
                vb.map_or("missing".into(), |v| v.render().unwrap_or_default()),
            ));
        }
    }
    if a.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
        return Err(format!("not a {SCHEMA} result"));
    }
    let workloads = |doc: &Json| -> Result<Vec<Json>, String> {
        doc.get("workloads")
            .and_then(Json::as_array)
            .map(<[Json]>::to_vec)
            .ok_or_else(|| "missing `workloads`".to_string())
    };
    let (wa, wb) = (workloads(a)?, workloads(b)?);
    if wa.len() != wb.len() {
        return Err("results hold different workloads: not comparable".into());
    }
    let defs = catalog();
    let mut rows = Vec::new();
    for (ea, eb) in wa.iter().zip(&wb) {
        let name = ea.get("name").and_then(Json::as_str).unwrap_or("?");
        for key in ["name", "params", "workers"] {
            if ea.get(key) != eb.get(key) {
                return Err(format!(
                    "workload {name}: `{key}` differs between the results: not comparable"
                ));
            }
        }
        for d in &defs {
            let section = if d.is_end_to_end() {
                "end_to_end"
            } else {
                "per_layer"
            };
            let value = |e: &Json| {
                e.get(section)
                    .and_then(|m| m.get(&d.name))
                    .and_then(|m| m.get("value"))
                    .and_then(Json::as_f64)
            };
            let (Some(x), Some(y)) = (value(ea), value(eb)) else {
                return Err(format!("workload {name}: metric {} is missing", d.name));
            };
            let bound = match d.class {
                Class::EndToEnd { bound } | Class::Within { bound } => Some(bound),
                Class::Exact => None,
                Class::Info => continue,
            };
            // 0 marks a metric the workload does not carry (or a tail
            // percentile a run had too few samples for): nothing to compare.
            if matches!(d.class, Class::Within { .. }) && (x == 0.0 || y == 0.0) {
                continue;
            }
            let (worse_by, verdict) = match bound {
                None if x.to_bits() == y.to_bits() => (None, Verdict::Identical),
                None => (None, Verdict::Different),
                Some(bound) => {
                    let rel = if x == 0.0 {
                        f64::INFINITY
                    } else {
                        match d.better {
                            Better::Lower => (y - x) / x,
                            Better::Higher => (x - y) / x,
                        }
                    };
                    let verdict = if rel.abs() > bound {
                        Verdict::Unresolved
                    } else {
                        Verdict::Within
                    };
                    (Some(rel), verdict)
                }
            };
            rows.push(Row {
                workload: name.to_string(),
                metric: d.name.clone(),
                a: format!("{x:.6} {}", d.unit),
                b: format!("{y:.6} {}", d.unit),
                worse_by,
                bound,
                verdict,
            });
        }
        // Same seed, same commit: the numbers themselves must repeat.
        for (run, key) in [("untraced", "setup4"), ("untraced", "prefix2")] {
            let fp = |e: &Json| {
                e.get(run)
                    .and_then(|r| r.get("fingerprints"))
                    .and_then(|f| f.get(key))
                    .and_then(Json::as_str)
                    .map(str::to_string)
            };
            if let (Some(x), Some(y)) = (fp(ea), fp(eb)) {
                rows.push(Row {
                    workload: name.to_string(),
                    metric: format!("fingerprint.{key}"),
                    verdict: if x == y {
                        Verdict::Identical
                    } else {
                        Verdict::Different
                    },
                    a: x,
                    b: y,
                    worse_by: None,
                    bound: None,
                });
            }
        }
    }
    Ok(rows)
}

fn read_result(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// `--compare A.json B.json`: prints per workload × metric both values,
/// the relative difference and the bound; exits 0 when every bounded
/// metric is within its bound and every exact one identical, 1 when not,
/// 2 when the results are not comparable.
pub fn compare_files(a: &Path, b: &Path) -> ExitCode {
    let rows = match read_result(a)
        .and_then(|ja| Ok((ja, read_result(b)?)))
        .and_then(|(ja, jb)| compare(&ja, &jb))
    {
        Ok(rows) => rows,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(EXIT_USAGE);
        }
    };
    println!(
        "{:<14} {:<40} {:>22} {:>22} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "worse by", "bound"
    );
    let mut bad = 0;
    for r in &rows {
        let verdict = match r.verdict {
            Verdict::Within => "ok",
            Verdict::Unresolved => "unresolved",
            Verdict::Identical => "identical",
            Verdict::Different => "DIFFERENT",
        };
        if matches!(r.verdict, Verdict::Unresolved | Verdict::Different) {
            bad += 1;
        }
        println!(
            "{:<14} {:<40} {:>22} {:>22} {:>9} {:>7}  {verdict}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.worse_by
                .map_or("-".into(), |w| format!("{:+.2}%", 100.0 * w)),
            r.bound
                .map_or("exact".into(), |b| format!("{:.0}%", 100.0 * b)),
        );
    }
    println!("{} rows, {bad} unresolved or different", rows.len());
    if bad == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Values;

    fn result(seed: f64, step_ms: f64, sim_err: f64) -> Json {
        let mut values = Values::default();
        for d in catalog().iter().filter(|d| d.is_end_to_end()) {
            values.set(&d.name, 2.0);
        }
        values.set("step_ms_p50", step_ms);
        values.set("sim_err_pct", sim_err);
        values.set("trace.record_ns", 17.25);
        let w = &workloads::all(false)[0];
        let fingerprints = Json::Object(vec![(
            "fingerprints".into(),
            Json::Object(vec![("prefix2".into(), Json::Str("00ff".into()))]),
        )]);
        Json::Object(vec![
            ("schema".into(), Json::Str(SCHEMA.into())),
            ("mode".into(), Json::Str("full".into())),
            ("seed".into(), Json::Num(seed)),
            ("seconds".into(), Json::Num(10.0)),
            (
                "host".into(),
                Json::Object(vec![("cores".into(), Json::Num(2.0))]),
            ),
            (
                "workloads".into(),
                Json::Array(vec![Json::Object(vec![
                    ("name".into(), Json::Str(w.name.into())),
                    ("workers".into(), Json::Num(1.0)),
                    ("params".into(), w.params_json()),
                    ("end_to_end".into(), metrics_json(&values.for_run(false))),
                    ("per_layer".into(), metrics_json(&values.for_run(true))),
                    ("untraced".into(), fingerprints),
                ])]),
            ),
        ])
    }

    fn row<'a>(rows: &'a [Row], metric: &str) -> &'a Row {
        rows.iter()
            .find(|r| r.metric == metric)
            .unwrap_or_else(|| panic!("no row {metric}"))
    }

    #[test]
    fn a_result_compared_with_itself_is_clean() {
        let a = result(1.0, 90.0, 12.5);
        let rows = compare(&a, &a).expect("comparable");
        assert!(rows
            .iter()
            .all(|r| matches!(r.verdict, Verdict::Within | Verdict::Identical)));
        assert_eq!(row(&rows, "step_ms_p50").worse_by, Some(0.0));
        assert_eq!(row(&rows, "sim_err_pct").verdict, Verdict::Identical);
        assert_eq!(
            row(&rows, "fingerprint.prefix2").verdict,
            Verdict::Identical
        );
        // Host-time layer rows are reported by the runs, never gated.
        assert!(rows.iter().all(|r| r.metric != "trace.record_ns"));
    }

    #[test]
    fn differences_beyond_the_bound_are_unresolved_in_either_direction() {
        let a = result(1.0, 100.0, 12.5);
        let bound = catalog()
            .iter()
            .find_map(|d| match d.class {
                Class::EndToEnd { bound } if d.name == "step_ms_p50" => Some(bound),
                _ => None,
            })
            .expect("step_ms_p50 is end to end");
        for (worse, verdict) in [
            (bound - 0.01, Verdict::Within),
            (bound + 0.01, Verdict::Unresolved),
            (-bound - 0.02, Verdict::Unresolved),
        ] {
            let b_ms = 100.0 * (1.0 + worse);
            let rows = compare(&a, &result(1.0, b_ms, 12.5)).expect("comparable");
            let r = row(&rows, "step_ms_p50");
            assert!((r.worse_by.expect("bounded") - worse).abs() < 1e-12);
            assert_eq!(r.verdict, verdict, "{b_ms}");
        }
    }

    #[test]
    fn exact_metrics_must_repeat_to_the_last_bit() {
        let a = result(1.0, 100.0, 12.5);
        let b = result(1.0, 100.0, 12.500000000000002);
        let rows = compare(&a, &b).expect("comparable");
        assert_eq!(row(&rows, "sim_err_pct").verdict, Verdict::Different);
    }

    #[test]
    fn results_of_another_seed_host_or_shape_are_refused() {
        let a = result(1.0, 100.0, 12.5);
        let err = compare(&a, &result(2.0, 100.0, 12.5)).expect_err("seed differs");
        assert!(err.contains("seed"), "{err}");
        let mut smoke = result(1.0, 100.0, 12.5);
        if let Json::Object(members) = &mut smoke {
            members[1].1 = Json::Str("smoke".into());
        }
        assert!(compare(&a, &smoke)
            .expect_err("mode differs")
            .contains("mode"));
        let mut shape = result(1.0, 100.0, 12.5);
        let Json::Object(members) = &mut shape else {
            panic!("result is an object")
        };
        let Json::Array(entries) = &mut members[5].1 else {
            panic!("workloads is an array")
        };
        let Json::Object(entry) = &mut entries[0] else {
            panic!("workload entry is an object")
        };
        entry[2].1 = workloads::all(true)[0].params_json();
        assert!(compare(&a, &shape)
            .expect_err("params differ")
            .contains("params"));
    }

    #[test]
    fn results_round_trip_through_the_strict_parser() {
        let doc = result(1.0, 16.4, 12.5);
        let text = doc.render().expect("finite");
        assert_eq!(json::parse(&text).expect("parses"), doc);
        // Non-finite numbers never reach a file: rendering refuses.
        let bad = Json::Object(vec![("value".into(), Json::Num(f64::NAN))]);
        assert!(bad.render().is_err());
        assert!(json::parse(r#"{"value": NaN}"#).is_err());
    }

    #[test]
    fn the_result_line_has_exactly_the_contract_keys() {
        let mut out = Outcome::default();
        for d in catalog().iter().filter(|d| d.is_end_to_end()) {
            out.values.set(&d.name, 1.25);
        }
        out.ops_attempted = 9;
        out.check("c", true, String::new());
        let line = result_line(&out, &out.values.for_run(false)).expect("finite");
        let Json::Object(members) = json::parse(&line).expect("one JSON object") else {
            panic!("not an object");
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(members[1].1, Json::Num(10.0));
        assert_eq!(members[0].1, Json::Bool(true));
    }
}
