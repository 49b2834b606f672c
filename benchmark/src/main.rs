//! The repository's benchmark: five workloads, end-to-end and per-layer
//! metrics, a traced run. See `README.md` beside `Cargo.toml` and
//! `BENCHMARK.json` at the repository root.
//!
//! ```text
//! islands-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
//! islands-benchmark --all [--seed N] [--seconds S] [--smoke] [--out FILE]
//! islands-benchmark --compare A.json B.json
//! ```
//!
//! Every layer is measured from outside, by timing calls into the
//! crates' existing public functions; nothing outside this directory is
//! instrumented or changed.

mod catalog;
mod host;
mod mpdata_wl;
mod outcome;
mod probes;
mod report;
mod sim_wl;
mod spans;
mod stats;
mod workloads;

use host::Host;
use islands_trace::json::Json;
use outcome::Outcome;
use spans::Spans;
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::Kind;

/// Exit code of a usage error or a refused comparison.
const EXIT_USAGE: u8 = 2;
/// Exit code when the host is too small for the workload.
const EXIT_HOST: u8 = 3;

/// Arguments of one workload run.
#[derive(Clone, Debug)]
pub struct RunArgs {
    /// Seed the inputs are generated from.
    pub seed: u64,
    /// Length of the measured window, seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
    /// Shrunk workloads for quick iteration.
    pub smoke: bool,
}

enum Mode {
    Workload(String),
    All { out: Option<PathBuf> },
    Compare(PathBuf, PathBuf),
}

const USAGE: &str = "\
islands-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
islands-benchmark --all [--seed N] [--seconds S] [--smoke] [--out FILE]
islands-benchmark --compare A.json B.json
workloads: paper_serial paper_islands sync_small knobs_mid sim_table3";

fn parse_args(argv: impl Iterator<Item = String>) -> Result<(Mode, RunArgs), String> {
    let mut args = RunArgs {
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
    };
    let mut seconds_given = false;
    let mut mode = None;
    let mut out = None;
    let mut it = argv;
    while let Some(flag) = it.next() {
        let mut val = || {
            it.next()
                .ok_or_else(|| format!("flag {flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => mode = Some(Mode::Workload(val()?)),
            "--all" => mode = Some(Mode::All { out: None }),
            "--compare" => mode = Some(Mode::Compare(val()?.into(), val()?.into())),
            "--out" => out = Some(PathBuf::from(val()?)),
            "--seed" => args.seed = val()?.parse().map_err(|e| format!("bad --seed: {e}"))?,
            "--seconds" => {
                args.seconds = val()?.parse().map_err(|e| format!("bad --seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds_given = true;
            }
            "--trace" => {
                args.trace = match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("bad --trace {other:?}: use 0 or 1")),
                }
            }
            "--smoke" => args.smoke = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if args.smoke && !seconds_given {
        args.seconds = 0.3;
    }
    match mode {
        Some(Mode::All { .. }) => Ok((Mode::All { out }, args)),
        Some(_) if out.is_some() => Err("--out only applies to --all".into()),
        Some(mode) => Ok((mode, args)),
        None => Err("one of --workload, --all, --compare is required".into()),
    }
}

/// Where run-time files go: `benchmark/out/` of the checkout the
/// command is run from, else `out/` beside this crate's manifest.
pub fn out_dir() -> PathBuf {
    if std::path::Path::new("benchmark/Cargo.toml").exists() {
        PathBuf::from("benchmark/out")
    } else {
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
    }
}

/// Keeps the program's own events of one traced batch as Chrome events
/// (through the in-repo exporter) for the trace file.
pub fn stash_program_events(
    batch: &islands_trace::Drained,
    stage_names: &[String],
    out: &mut Outcome,
) {
    let names: Vec<&str> = stage_names.iter().map(String::as_str).collect();
    let text = islands_trace::chrome::export(batch, &names);
    if let Ok(doc) = islands_trace::json::parse(&text) {
        if let Some(events) = doc.get("traceEvents").and_then(Json::as_array) {
            out.program_events = events.to_vec();
        }
    }
}

/// Ends a traced run: records count, total and self time per span name
/// in the detail record, and writes the spans (with the stashed program
/// events) as a Chrome trace-event file, validated by the in-repo
/// validator first.
fn finish_trace(workload: &str, args: &RunArgs, spans: &Spans, out: &mut Outcome) {
    out.detail.push((
        "span_self_ms".into(),
        Json::Object(
            spans
                .totals_by_name()
                .iter()
                .map(|(name, t)| {
                    (
                        name.clone(),
                        Json::Object(vec![
                            ("count".into(), Json::Num(t.count as f64)),
                            ("total_ms".into(), Json::Num(t.total_ns as f64 / 1e6)),
                            ("self_ms".into(), Json::Num(t.self_ns as f64 / 1e6)),
                        ]),
                    )
                })
                .collect(),
        ),
    ));
    let mut events = spans.chrome_events();
    events.append(&mut out.program_events);
    let doc = Json::Object(vec![("traceEvents".into(), Json::Array(events))]);
    let path = out_dir().join(format!("{workload}.seed{}.trace.json", args.seed));
    let written = doc
        .render()
        .map_err(|e| e.to_string())
        .and_then(|text| islands_trace::chrome::validate(&text).map(|summary| (text, summary)))
        .and_then(|(text, summary)| {
            std::fs::create_dir_all(out_dir())
                .and_then(|()| std::fs::write(&path, text))
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            Ok(summary.complete_events)
        });
    match written {
        Ok(events) => {
            out.check(
                "chrome_trace_valid",
                true,
                format!("{events} complete events -> {}", path.display()),
            );
            out.detail
                .push(("trace_file".into(), Json::Str(path.display().to_string())));
        }
        Err(e) => out.check("chrome_trace_valid", false, e),
    }
}

fn run_workload(name: &str, args: &RunArgs) -> ExitCode {
    let Some(w) = workloads::find(name, args.smoke) else {
        eprintln!("error: unknown --workload {name:?}\n{USAGE}");
        return ExitCode::from(EXIT_USAGE);
    };
    let host = Host::detect();
    // The traced run's scheduler probes need two parties.
    let needed = if args.trace && matches!(w.kind, Kind::Mpdata(_)) {
        w.workers().max(2)
    } else {
        w.workers()
    };
    if host.cores < needed {
        eprintln!(
            "error: workload {name} needs {needed} worker threads but this host offers {} \
             (available_parallelism); refusing to measure oversubscription",
            host.cores
        );
        return ExitCode::from(EXIT_HOST);
    }
    let ran = match &w.kind {
        Kind::Mpdata(spec) => mpdata_wl::run(&w, spec, args, &host),
        Kind::Sim(spec) => sim_wl::run(&w, spec, args),
    };
    match ran {
        Ok((mut out, spans)) => {
            if args.trace {
                finish_trace(w.name, args, &spans, &mut out);
            }
            let share = out.verify_fail();
            out.values.set("verify_fail", share);
            report::print_run(&w, args, &host, &out);
            if out.failed() == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: workload {name} failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    match parse_args(std::env::args().skip(1)) {
        Ok((Mode::Workload(name), args)) => run_workload(&name, &args),
        Ok((Mode::All { out }, args)) => report::run_all(&args, out),
        Ok((Mode::Compare(a, b), _)) => report::compare_files(&a, &b),
        Err(e) if e.is_empty() => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            ExitCode::from(EXIT_USAGE)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<(Mode, RunArgs), String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let (mode, args) =
            parse("--workload sync_small --seed 7 --seconds 10 --trace 1").expect("parses");
        assert!(matches!(mode, Mode::Workload(n) if n == "sync_small"));
        assert_eq!(args.seed, 7);
        assert_eq!(args.seconds, 10.0);
        assert!(args.trace && !args.smoke);
    }

    #[test]
    fn errors_name_the_flag() {
        for (line, needle) in [
            ("--workload", "--workload"),
            ("--all --seed x", "--seed"),
            ("--all --seconds 0", "--seconds"),
            ("--all --trace 2", "--trace"),
            ("--bogus", "--bogus"),
            ("--workload a --out f", "--out"),
            ("--seed 3", "--workload"),
        ] {
            let err = parse(line).err().expect(line);
            assert!(err.contains(needle), "{line}: {err}");
        }
    }

    #[test]
    fn smoke_shortens_the_window_unless_told_otherwise() {
        assert_eq!(parse("--all --smoke").expect("parses").1.seconds, 0.3);
        assert_eq!(
            parse("--all --smoke --seconds 2")
                .expect("parses")
                .1
                .seconds,
            2.0
        );
    }
}
