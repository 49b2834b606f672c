//! Replayable counterexample traces and their pretty-printer.
//!
//! Every applied operation appends one [`TraceStep`]; when an execution
//! fails the whole step log becomes the counterexample body, and
//! [`format_trace`] renders it as the fixed-width thread/op/location/
//! value table that model-check test failures print (and the golden
//! lost-wakeup trace pins).

use std::fmt::Write as _;
use std::sync::atomic::Ordering;

/// One applied operation in an execution.
#[derive(Clone, Debug)]
pub struct TraceStep {
    /// Executing thread (model thread index).
    pub thread: usize,
    /// Operation mnemonic (`load`, `store`, `fetch_add`, `mutex-lock`,
    /// `cv-wait (sleep)`, `spurious-wake`, ...).
    pub op: &'static str,
    /// Label of the touched location (from the shim constructor).
    pub loc: &'static str,
    /// Memory ordering, for atomic ops.
    pub ord: Option<Ordering>,
    /// Value stored / loaded / produced.
    pub value: Option<u64>,
    /// Free-form annotation (stale-read provenance, wakeup counts).
    pub note: String,
}

impl TraceStep {
    pub(crate) fn new(thread: usize, op: &'static str, loc: &'static str) -> TraceStep {
        TraceStep {
            thread,
            op,
            loc,
            ord: None,
            value: None,
            note: String::new(),
        }
    }

    pub(crate) fn ord(mut self, ord: Ordering) -> TraceStep {
        self.ord = Some(ord);
        self
    }

    pub(crate) fn value(mut self, v: u64) -> TraceStep {
        self.value = Some(v);
        self
    }

    pub(crate) fn note(mut self, note: String) -> TraceStep {
        self.note = note;
        self
    }

    pub(crate) fn stale(mut self, stale: bool, chosen: usize, total: usize) -> TraceStep {
        if stale {
            self.note = format!("STALE read-from store #{chosen} of {total}");
        }
        self
    }
}

fn ord_str(ord: Option<Ordering>) -> &'static str {
    match ord {
        Some(Ordering::Relaxed) => "Relaxed",
        Some(Ordering::Acquire) => "Acquire",
        Some(Ordering::Release) => "Release",
        Some(Ordering::AcqRel) => "AcqRel",
        Some(Ordering::SeqCst) => "SeqCst",
        _ => "-",
    }
}

/// Renders a schedule trace as a deterministic fixed-width table, one
/// row per applied operation.
pub fn format_trace(steps: &[TraceStep]) -> String {
    let mut loc_w = "location".len();
    let mut op_w = "op".len();
    for s in steps {
        loc_w = loc_w.max(s.loc.len());
        op_w = op_w.max(s.op.len());
    }
    let mut out = String::new();
    let mut line = String::new();
    let push = |out: &mut String, line: &mut String| {
        // No trailing whitespace: empty note cells would otherwise pad
        // every row, which golden-output tests cannot survive.
        out.push_str(line.trim_end());
        out.push('\n');
        line.clear();
    };
    let _ = write!(
        line,
        "{:>4}  {:>6}  {:<op_w$}  {:<loc_w$}  {:<7}  {:>8}  note",
        "step", "thread", "op", "location", "order", "value"
    );
    push(&mut out, &mut line);
    let _ = write!(
        line,
        "{:>4}  {:>6}  {:<op_w$}  {:<loc_w$}  {:<7}  {:>8}  ----",
        "----", "------", "--", "--------", "-----", "-----"
    );
    push(&mut out, &mut line);
    for (i, s) in steps.iter().enumerate() {
        let val = s.value.map_or("-".to_string(), |v| v.to_string());
        let _ = write!(
            line,
            "{:>4}  {:>6}  {:<op_w$}  {:<loc_w$}  {:<7}  {:>8}  {}",
            i,
            format!("T{}", s.thread),
            s.op,
            s.loc,
            ord_str(s.ord),
            val,
            s.note
        );
        push(&mut out, &mut line);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_deterministic_and_aligned() {
        let steps = vec![
            TraceStep::new(0, "store", "sense")
                .ord(Ordering::SeqCst)
                .value(1),
            TraceStep::new(1, "load", "sense")
                .ord(Ordering::Relaxed)
                .value(0)
                .stale(true, 0, 2),
        ];
        let a = format_trace(&steps);
        let b = format_trace(&steps);
        assert_eq!(a, b);
        assert!(a.contains("T0"));
        assert!(a.contains("STALE read-from store #0 of 2"));
        for line in a.lines() {
            assert!(line.len() < 120, "over-wide line: {line}");
        }
    }
}
