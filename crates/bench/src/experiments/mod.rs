//! The paper's evidence as one table: every table, figure and ablation
//! of the reproduction is a row `(name, paper anchor, fn)` whose report
//! is committed as `results/<name>.txt`.
//!
//! A row writes its report into a [`Report`] and states each of its
//! claims through [`Report::check`], which prints the `check:` line and
//! records the verdict. [`drive`] is the one loop over the table: it
//! writes the reports (or, with `check`, compares them byte for byte
//! against the committed files) and fails on drift, on a committed file
//! no row produces, and on any false claim. The paper sweep (four
//! strategies × P = 1..=14) is simulated at most once per [`Ctx`], and
//! every row that needs it reads it from there.
//!
//! Run: `cargo run --release -p islands-bench --bin experiments --
//! [--check] [name …]`.

mod ablations;
mod analysis;
mod paper;

use ablations::{ablation2d, ablation_exchange, ablation_link, ablation_teams, scaleout};
use analysis::{cache_study, calibrate, halo_report, model_check};
use paper::{fig1, table1, table2, table3, table4, traffic, variants};

use crate::{measure_sweep, StrategyTimes, CPU_COUNTS};
use islands_core::Workload;
use std::cell::OnceCell;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

/// One experiment: a named report reproducing one anchor of the paper.
#[derive(Clone, Copy, Debug)]
pub struct Experiment {
    /// Row name; the report is committed as `results/<name>.txt`.
    pub name: &'static str,
    /// Where in the paper the row's claim stands (E/A numbers index
    /// `DESIGN.md` §5).
    pub anchor: &'static str,
    /// Writes the report.
    pub run: fn(&Ctx, &mut Report) -> fmt::Result,
}

/// Every experiment of the reproduction, in report order.
pub const EXPERIMENTS: [Experiment; 16] = [
    row("fig1", "Fig. 1", fig1),
    row("table1", "Table 1", table1),
    row("table2", "Table 2", table2),
    row("table3", "Table 3, Fig. 2", table3),
    row("table4", "Table 4", table4),
    row("traffic", "E5, §3.2", traffic),
    row("variants", "E6, §5", variants),
    row("ablation2d", "A1, §6", ablation2d),
    row("ablation_teams", "A2, §6", ablation_teams),
    row("ablation_link", "A3, §4.1", ablation_link),
    row("ablation_exchange", "E8, §4.1", ablation_exchange),
    row("scaleout", "E9, §6", scaleout),
    row("model_check", "E10, §6", model_check),
    row("cache_study", "E11, §3.2", cache_study),
    row("halo_report", "Table 2 by stage", halo_report),
    row("calibrate", "Tables 1, 3", calibrate),
];

const fn row(
    name: &'static str,
    anchor: &'static str,
    run: fn(&Ctx, &mut Report) -> fmt::Result,
) -> Experiment {
    Experiment { name, anchor, run }
}

/// What the rows share within one invocation: the paper sweep,
/// simulated on first use.
#[derive(Debug, Default)]
pub struct Ctx {
    sweep: OnceCell<Vec<StrategyTimes>>,
}

impl Ctx {
    /// [`measure_sweep`] over [`CPU_COUNTS`] on [`Workload::paper`],
    /// simulated once.
    pub fn sweep(&self) -> &[StrategyTimes] {
        self.sweep
            .get_or_init(|| measure_sweep(&CPU_COUNTS, &Workload::paper()))
    }

    /// The sweep's times at `p` sockets.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not one of [`CPU_COUNTS`].
    pub(crate) fn at(&self, p: usize) -> &StrategyTimes {
        self.sweep()
            .iter()
            .find(|t| t.p == p)
            .expect("P is one of the paper's processor counts")
    }
}

/// A row's report text and the claims it found false.
#[derive(Debug, Default)]
pub struct Report {
    text: String,
    false_claims: Vec<String>,
}

impl Report {
    /// Prints `check: <claim> <holds>[ <detail>]` and records the
    /// verdict; a false claim fails the run. `claim` carries its own dot
    /// leader, so the line reads as it always has.
    pub fn check(&mut self, claim: &str, holds: bool, detail: &str) -> fmt::Result {
        use fmt::Write;
        self.require(claim, holds);
        if detail.is_empty() {
            writeln!(self.text, "check: {claim} {holds}")
        } else {
            writeln!(self.text, "check: {claim} {holds} {detail}")
        }
    }

    /// Records a claim the report states in prose rather than as a
    /// `check:` line.
    pub(crate) fn require(&mut self, claim: &str, holds: bool) {
        if !holds {
            self.false_claims
                .push(claim.trim_end_matches(['.', ' ']).to_string());
        }
    }
}

impl fmt::Write for Report {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.text.push_str(s);
        Ok(())
    }
}

/// The committed reports: `results/` at the repository root.
pub fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/bench sits two levels below the repository root")
        .join("results")
}

/// Runs the rows of `table` named in `names` (every row when empty).
/// Without `check` each report is written to `<dir>/<name>.txt` and
/// echoed to `echo`; with `check` nothing is written and each report is
/// compared with the committed file. Returns one line per failure —
/// drift (with the first differing line), a file in `dir` that no row
/// of `table` produces, a false claim — or `Err` for a name not in
/// `table`.
pub fn drive(
    table: &[Experiment],
    names: &[String],
    dir: &Path,
    check: bool,
    echo: &mut dyn io::Write,
) -> Result<Vec<String>, String> {
    let rows: Vec<&Experiment> = if names.is_empty() {
        table.iter().collect()
    } else {
        names
            .iter()
            .map(|n| {
                table
                    .iter()
                    .find(|e| e.name == n.as_str())
                    .ok_or_else(|| format!("no experiment named {n:?}"))
            })
            .collect::<Result<_, _>>()?
    };
    let ctx = Ctx::default();
    let mut failures = Vec::new();
    for e in rows {
        let mut report = Report::default();
        (e.run)(&ctx, &mut report).expect("a report writes into a String");
        let path = dir.join(format!("{}.txt", e.name));
        if check {
            match std::fs::read_to_string(&path) {
                Ok(committed) => match first_difference(&committed, &report.text) {
                    None => {
                        let _ = writeln!(echo, "{}: matches {}", e.name, path.display());
                    }
                    Some((line, was, now)) => failures.push(format!(
                        "{}: {} differs at line {line}\n  committed: {was:?}\n  generated: {now:?}",
                        e.name,
                        path.display()
                    )),
                },
                Err(err) => {
                    failures.push(format!("{}: cannot read {}: {err}", e.name, path.display()))
                }
            }
        } else {
            let written =
                std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, &report.text));
            match written {
                Ok(()) => {
                    let _ = write!(echo, "{}", report.text);
                }
                Err(err) => failures.push(format!(
                    "{}: cannot write {}: {err}",
                    e.name,
                    path.display()
                )),
            }
        }
        failures.extend(
            report
                .false_claims
                .iter()
                .map(|c| format!("{} ({}): claim is false: {c}", e.name, e.anchor)),
        );
    }
    failures.extend(orphans(table, dir));
    Ok(failures)
}

/// The files in `dir` that no row of `table` produces.
fn orphans(table: &[Experiment], dir: &Path) -> Vec<String> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return vec![format!("cannot list {}", dir.display())];
    };
    let mut found: Vec<String> = entries
        .filter_map(|entry| entry.ok())
        .map(|entry| entry.file_name().to_string_lossy().into_owned())
        .filter(|file| !table.iter().any(|e| *file == format!("{}.txt", e.name)))
        .map(|file| format!("{} has no experiment row", dir.join(file).display()))
        .collect();
    found.sort();
    found
}

/// The 1-based number and text of the first line where `committed` and
/// `generated` differ (an absent line reads as empty), or `None` when
/// they are byte-identical.
fn first_difference<'a>(
    committed: &'a str,
    generated: &'a str,
) -> Option<(usize, &'a str, &'a str)> {
    if committed == generated {
        return None;
    }
    let (mut was, mut now) = (
        committed.split_inclusive('\n'),
        generated.split_inclusive('\n'),
    );
    let mut line = 0;
    loop {
        line += 1;
        let (a, b) = (was.next(), now.next());
        if a != b {
            return Some((line, a.unwrap_or(""), b.unwrap_or("")));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_difference_finds_the_line() {
        assert_eq!(first_difference("a\nb\n", "a\nb\n"), None);
        assert_eq!(
            first_difference("a\nb\n", "a\nc\n"),
            Some((2, "b\n", "c\n"))
        );
        assert_eq!(first_difference("a\nb\n", "a\nb"), Some((2, "b\n", "b")));
        assert_eq!(first_difference("a\n", "a\nb\n"), Some((2, "", "b\n")));
    }
}
