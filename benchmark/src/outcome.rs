//! What one workload run produces: metric values, the operations it
//! attempted and how many failed, and the detail record `--all` folds
//! into the result file.

use crate::catalog::Values;
use islands_trace::json::Json;

/// One output check of a run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Check {
    /// Stable check name, e.g. `prefix_bitwise`.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// What was compared, for the log.
    pub note: String,
}

/// The result of one workload run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Measured metrics.
    pub values: Values,
    /// Calls into the program that could fail (`run` batches, set-ups,
    /// plan + simulate calls).
    pub ops_attempted: u64,
    /// Of those, calls that returned an error.
    pub ops_failed: u64,
    /// Output checks, each counted as one attempted operation.
    pub checks: Vec<Check>,
    /// Members of the detail record (sample counts, fingerprints, span
    /// self times, notes).
    pub detail: Vec<(String, Json)>,
    /// The program's own trace events of one batch, as Chrome events,
    /// written into the trace file beside the benchmark's spans.
    pub program_events: Vec<Json>,
}

impl Outcome {
    /// Records a check.
    pub fn check(&mut self, name: &str, ok: bool, note: String) {
        if !ok {
            eprintln!("CHECK FAILED {name}: {note}");
        }
        self.checks.push(Check {
            name: name.to_string(),
            ok,
            note,
        });
    }

    /// Operations attempted: program calls plus output checks.
    pub fn attempted(&self) -> u64 {
        self.ops_attempted + self.checks.len() as u64
    }

    /// Operations failed: erroring calls plus failed checks.
    pub fn failed(&self) -> u64 {
        self.ops_failed + self.checks.iter().filter(|c| !c.ok).count() as u64
    }

    /// Failed ÷ attempted — the `verify_fail` share.
    pub fn verify_fail(&self) -> f64 {
        self.failed() as f64 / self.attempted().max(1) as f64
    }

    /// The checks as JSON, for the detail record.
    pub fn checks_json(&self) -> Json {
        Json::Array(
            self.checks
                .iter()
                .map(|c| {
                    Json::Object(vec![
                        ("name".into(), Json::Str(c.name.clone())),
                        ("ok".into(), Json::Bool(c.ok)),
                        ("note".into(), Json::Str(c.note.clone())),
                    ])
                })
                .collect(),
        )
    }
}

/// A 64-bit fingerprint as JSON (hex string: an `f64` cannot hold it).
pub fn fingerprint_json(fp: u64) -> Json {
    Json::Str(format!("{fp:016x}"))
}
