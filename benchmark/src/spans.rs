//! Benchmark-side spans around every call into a layer.
//!
//! The traced run records, in memory, one span per call the benchmark
//! makes into the workspace crates — name, start, end, parent, workload
//! — and writes them out as a Chrome trace-event file when the workload
//! ends. No crate is instrumented for this: the spans live entirely in
//! the benchmark's own files. They share the clock of the program's own
//! `islands_trace` events, so both line up in one viewer.
//!
//! With recording off (the untraced run that produces the end-to-end
//! numbers) [`Spans::timed`] still returns the elapsed time of the call
//! but stores nothing.

use islands_trace::json::Json;
use std::collections::BTreeMap;

/// Chrome `pid` of the benchmark's own span row (islands use 1.., the
/// program's driver row uses 0).
const BENCH_PID: f64 = 1000.0;

/// One closed span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// What was called, e.g. `first_run` or `simulate.islands.14`.
    pub name: String,
    /// Start on the `islands_trace` session clock, ns.
    pub start_ns: u64,
    /// End on the same clock, ns.
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
}

/// Per-name totals of a span set.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NameTotals {
    /// Spans with this name.
    pub count: usize,
    /// Summed durations, ns.
    pub total_ns: u64,
    /// Summed self times, ns: each span's duration minus the part of
    /// its interval that its child spans cover.
    pub self_ns: u64,
}

/// An open span, to be handed back to [`Spans::close`].
#[derive(Debug)]
#[must_use = "an opened span must be closed"]
pub struct Token {
    start_ns: u64,
    id: Option<usize>,
}

impl Token {
    /// When the span was opened, on the `islands_trace` clock.
    pub fn start_ns(&self) -> u64 {
        self.start_ns
    }
}

/// The in-memory span recorder of one workload run.
#[derive(Debug)]
pub struct Spans {
    workload: String,
    recording: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// A recorder for `workload`; stores spans only when `recording`.
    pub fn new(workload: &str, recording: bool) -> Spans {
        Spans {
            workload: workload.to_string(),
            recording,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span as a child of the currently open one.
    pub fn open(&mut self, name: &str) -> Token {
        let start_ns = islands_trace::now_ns();
        let id = self.recording.then(|| {
            self.spans.push(Span {
                name: name.to_string(),
                start_ns,
                end_ns: start_ns,
                parent: self.open.last().copied(),
            });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        Token { start_ns, id }
    }

    /// Closes the span `token` opened (spans close innermost first) and
    /// returns its elapsed nanoseconds.
    pub fn close(&mut self, token: Token) -> u64 {
        let end_ns = islands_trace::now_ns();
        if let Some(id) = token.id {
            debug_assert_eq!(self.open.last(), Some(&id), "spans close innermost first");
            self.spans[id].end_ns = end_ns;
            self.open.pop();
        }
        end_ns.saturating_sub(token.start_ns)
    }

    /// Runs `f` as a child of the currently open span and returns its
    /// result with its elapsed nanoseconds.
    pub fn timed<R>(&mut self, name: &str, f: impl FnOnce(&mut Spans) -> R) -> (R, u64) {
        let token = self.open(name);
        let out = f(self);
        (out, self.close(token))
    }

    /// [`Spans::timed`] without the elapsed time.
    pub fn scope<R>(&mut self, name: &str, f: impl FnOnce(&mut Spans) -> R) -> R {
        self.timed(name, f).0
    }

    /// Count, total and self time per span name.
    pub fn totals_by_name(&self) -> BTreeMap<String, NameTotals> {
        totals_by_name(&self.spans)
    }

    /// The spans as Chrome complete events (plus the process-name row).
    pub fn chrome_events(&self) -> Vec<Json> {
        let mut events = vec![Json::Object(vec![
            ("name".into(), Json::Str("process_name".into())),
            ("ph".into(), Json::Str("M".into())),
            ("pid".into(), Json::Num(BENCH_PID)),
            ("tid".into(), Json::Num(0.0)),
            (
                "args".into(),
                Json::Object(vec![(
                    "name".into(),
                    Json::Str(format!("benchmark {}", self.workload)),
                )]),
            ),
        ])];
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(Json::Null, |p| Json::Num(p as f64));
            events.push(Json::Object(vec![
                ("name".into(), Json::Str(s.name.clone())),
                ("cat".into(), Json::Str("benchmark".into())),
                ("ph".into(), Json::Str("X".into())),
                ("ts".into(), Json::Num(s.start_ns as f64 / 1000.0)),
                (
                    "dur".into(),
                    Json::Num(s.end_ns.saturating_sub(s.start_ns) as f64 / 1000.0),
                ),
                ("pid".into(), Json::Num(BENCH_PID)),
                ("tid".into(), Json::Num(0.0)),
                (
                    "args".into(),
                    Json::Object(vec![
                        ("workload".into(), Json::Str(self.workload.clone())),
                        ("id".into(), Json::Num(id as f64)),
                        ("parent".into(), parent),
                    ]),
                ),
            ]));
        }
        events
    }
}

/// Count, total and self time per span name. A span's self time is its
/// duration minus the part of its interval covered by the union of its
/// direct children.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<String, NameTotals> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<String, NameTotals> = BTreeMap::new();
    for (s, kids) in spans.iter().zip(&mut children) {
        kids.sort_unstable();
        let mut covered = 0;
        let mut cursor = s.start_ns;
        for &(lo, hi) in kids.iter() {
            let lo = lo.max(cursor);
            let hi = hi.min(s.end_ns);
            if hi > lo {
                covered += hi - lo;
                cursor = hi;
            }
        }
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let t = out.entry(s.name.clone()).or_default();
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur - covered;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_direct_children() {
        let spans = [
            span("workload", 0, 100, None),
            span("setup", 10, 40, Some(0)),
            span("first_run", 20, 35, Some(1)),
            span("solve", 40, 90, Some(0)),
            // Overlapping siblings count once; a child running past its
            // parent's end is clipped to the parent's interval.
            span("batch", 50, 70, Some(3)),
            span("batch", 60, 95, Some(3)),
        ];
        let t = totals_by_name(&spans);
        assert_eq!(t["workload"].self_ns, 100 - 30 - 50);
        assert_eq!(t["setup"].self_ns, 30 - 15);
        assert_eq!(t["first_run"].self_ns, 15);
        assert_eq!(t["solve"].self_ns, 50 - 40);
        assert_eq!(t["batch"].count, 2);
        assert_eq!(t["batch"].total_ns, 20 + 35);
        assert_eq!(t["batch"].self_ns, 20 + 35);
    }

    #[test]
    fn recorder_nests_spans_and_links_parents() {
        let mut s = Spans::new("w", true);
        let (v, ns) = s.timed("outer", |s| {
            s.scope("inner", |_| std::hint::black_box(7));
            41
        });
        assert_eq!(v, 41);
        let spans = &s.spans;
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].end_ns - spans[0].start_ns, ns);
        assert!(spans[1].start_ns >= spans[0].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }

    #[test]
    fn untraced_recorder_times_but_stores_nothing() {
        let mut s = Spans::new("w", false);
        let (_, ns) = s.timed("call", |_| {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        assert!(ns >= 2_000_000);
        assert!(s.spans.is_empty());
    }

    #[test]
    fn chrome_events_pass_the_in_repo_validator() {
        let mut s = Spans::new("w", true);
        s.scope("a", |s| s.scope("b", |_| ()));
        let doc = Json::Object(vec![("traceEvents".into(), Json::Array(s.chrome_events()))]);
        let summary =
            islands_trace::chrome::validate(&doc.render().expect("finite")).expect("valid");
        assert_eq!(summary.complete_events, 2);
        assert_eq!(summary.per_category["benchmark"].0, 2);
    }
}
