//! Depth-first exhaustive exploration with sleep-set pruning.
//!
//! The checker is *stateless* in the loom/CDSChecker sense: each
//! execution re-runs the scenario's closures from scratch, steering
//! every scheduling and read-from choice along a persistent DFS stack
//! of choice points. After an execution finishes, the deepest choice
//! point with an untried alternative is advanced and everything below
//! it is discarded; exploration ends when the stack empties.
//!
//! Pruning is DPOR-flavoured sleep sets: once alternative `c` has been
//! fully explored at a node, `c` is put to sleep in the sibling
//! subtrees and only woken by an executed operation *dependent* on it
//! (see [`OpDesc::dependent`]). An execution whose every enabled
//! candidate is asleep is provably equivalent to an already-explored
//! one and is cut off. Two ops on distinct locations are still treated
//! as dependent when both are `SeqCst`, so the store-buffering shapes
//! the sense-reversing barrier relies on are never pruned away.

use crate::exec::{
    current, set_current, Decision, FailureKind, ModelAbort, OpDesc, Shared, Status,
};
use crate::trace::TraceStep;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Exploration bounds.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// Per-execution applied-operation bound; exceeding it is reported
    /// as a [`FailureKind::DepthBound`] counterexample (an honest
    /// "the bound is too small", never silence).
    pub max_steps: usize,
    /// Total executions (completed + pruned) before giving up with
    /// [`Report::hit_exec_bound`] set.
    pub max_execs: u64,
    /// Spurious condvar wakeups injected per execution. `1` already
    /// exercises every single-spurious-wake interleaving.
    pub spurious_budget: u32,
    /// Optional preemption bound (context switches away from a thread
    /// that could continue). `None` = full exhaustiveness. Scenarios
    /// that use a bound must say so in their documented bounds.
    pub preemption_bound: Option<u32>,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            max_steps: 2_000,
            max_execs: 2_000_000,
            spurious_budget: 1,
            preemption_bound: None,
        }
    }
}

/// A scenario: 2–4 closures run as model threads plus an optional
/// post-quiescence property check.
pub struct Scenario {
    name: &'static str,
    threads: Vec<Box<dyn FnOnce() + Send + 'static>>,
    after: Option<Box<dyn FnOnce() + 'static>>,
}

impl Scenario {
    pub fn new(name: &'static str) -> Scenario {
        Scenario {
            name,
            threads: Vec::new(),
            after: None,
        }
    }

    /// Adds a model thread.
    pub fn thread(&mut self, f: impl FnOnce() + Send + 'static) {
        assert!(
            self.threads.len() < crate::clock::MAX_THREADS,
            "scenario exceeds MAX_THREADS"
        );
        self.threads.push(Box::new(f));
    }

    /// Property checked after every completed execution, on the
    /// checker's own thread (shim reads there see final real values).
    /// Panicking marks the execution as a counterexample.
    pub fn after(&mut self, f: impl FnOnce() + 'static) {
        self.after = Some(Box::new(f));
    }
}

/// A failing interleaving: what went wrong, the decision schedule that
/// reproduces it, and the full operation trace.
#[derive(Debug)]
pub struct Counterexample {
    pub kind: FailureKind,
    pub message: String,
    /// Every decision of the execution, forced ones included, in
    /// order; replay with [`Checker::replay`].
    pub schedule: Vec<Decision>,
    pub trace: Vec<TraceStep>,
}

/// Exploration outcome and statistics.
#[derive(Debug)]
pub struct Report {
    pub name: &'static str,
    /// Completed (non-pruned) executions explored.
    pub executions: u64,
    /// Sleep-set-blocked executions cut off.
    pub pruned: u64,
    /// Spurious wakeups injected across all executions.
    pub spurious_injected: u64,
    /// Deepest branching stack seen.
    pub max_depth: usize,
    /// Exploration stopped at `max_execs` without finishing.
    pub hit_exec_bound: bool,
    pub counterexample: Option<Counterexample>,
}

impl Report {
    /// `true` when the full bounded state space was explored clean.
    pub fn exhaustive_and_clean(&self) -> bool {
        self.counterexample.is_none() && !self.hit_exec_bound
    }

    /// One-line summary of the exploration, for test failure messages.
    pub fn summary(&self) -> String {
        match &self.counterexample {
            Some(ce) => format!(
                "{}: COUNTEREXAMPLE [{}] after {} executions ({} pruned): {}",
                self.name,
                ce.kind.name(),
                self.executions,
                self.pruned,
                ce.message
            ),
            None => format!(
                "{}: ok — {} interleavings explored ({} pruned, {} spurious wakes, depth {}){}",
                self.name,
                self.executions,
                self.pruned,
                self.spurious_injected,
                self.max_depth,
                if self.hit_exec_bound {
                    " [EXEC BOUND HIT — not exhaustive]"
                } else {
                    ""
                }
            ),
        }
    }
}

/// One branching point of the persistent DFS stack.
struct NodeRec {
    alts: Vec<Decision>,
    /// Dependence fingerprints parallel to `alts` (empty for read-from
    /// nodes, which have no sleep-set semantics).
    descs: Vec<OpDesc>,
    taken: usize,
    done: Vec<usize>,
}

struct Dfs<'a> {
    stack: &'a mut Vec<NodeRec>,
    depth: usize,
    cur_sleep: Vec<(Decision, OpDesc)>,
    taken_log: Vec<Decision>,
    replay: Option<&'a [Decision]>,
    replay_pos: usize,
}

impl Dfs<'_> {
    fn decide(&mut self, live: Vec<Decision>, descs: Vec<OpDesc>, sched: bool) -> Decision {
        // Forced decisions are logged too: a replay runs without the
        // sleep sets, so a point the exploration's sleep set narrowed to
        // one candidate may offer the replay several.
        if let Some(s) = self.replay {
            let pick = if self.replay_pos < s.len() {
                s[self.replay_pos]
            } else {
                live[0]
            };
            self.replay_pos += 1;
            assert!(
                live.contains(&pick),
                "schedule does not replay: {pick:?} not among {live:?}"
            );
            self.taken_log.push(pick);
            return pick;
        }
        if live.len() == 1 {
            self.taken_log.push(live[0]);
            return live[0];
        }
        let d = self.depth;
        self.depth += 1;
        if d >= self.stack.len() {
            self.stack.push(NodeRec {
                alts: live,
                descs,
                taken: 0,
                done: Vec::new(),
            });
        } else {
            debug_assert_eq!(
                self.stack[d].alts, live,
                "nondeterministic scenario: replayed prefix diverged"
            );
            if sched {
                // Fully-explored siblings of this node go to sleep in
                // the subtree we are about to descend into.
                for i in 0..self.stack[d].done.len() {
                    let idx = self.stack[d].done[i];
                    self.cur_sleep
                        .push((self.stack[d].alts[idx], self.stack[d].descs[idx]));
                }
            }
        }
        let pick = self.stack[d].alts[self.stack[d].taken];
        self.taken_log.push(pick);
        pick
    }

    /// Wakes sleeping candidates dependent on the op just executed.
    fn wake(&mut self, executed: &OpDesc) {
        self.cur_sleep.retain(|(_, d)| !d.dependent(executed));
    }
}

/// Advances the persistent stack to the next unexplored branch; `false`
/// when the space is exhausted.
fn advance(stack: &mut Vec<NodeRec>) -> bool {
    while let Some(top) = stack.last_mut() {
        let t = top.taken;
        if !top.done.contains(&t) {
            top.done.push(t);
        }
        if let Some(next) = (0..top.alts.len()).find(|i| !top.done.contains(i)) {
            top.taken = next;
            return true;
        }
        stack.pop();
    }
    false
}

enum Outcome {
    Completed,
    Pruned,
    Failed(Counterexample),
}

/// The bounded exhaustive-interleaving model checker.
pub struct Checker {
    cfg: Config,
}

/// Silences the default panic hook for [`ModelAbort`] unwinds (they are
/// the checker's normal control flow — every pruned or failed execution
/// aborts its still-running threads this way). All other panics go to
/// the previously-installed hook untouched.
fn install_quiet_abort_hook() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<ModelAbort>().is_none() {
                prev(info);
            }
        }));
    });
}

impl Checker {
    pub fn new(cfg: Config) -> Checker {
        install_quiet_abort_hook();
        Checker { cfg }
    }

    /// Explores every interleaving of the scenario `build` constructs
    /// (re-invoked once per execution) within the configured bounds.
    pub fn check(&self, mut build: impl FnMut() -> Scenario) -> Report {
        let mut stack: Vec<NodeRec> = Vec::new();
        let first = build();
        let name = first.name;
        let mut report = Report {
            name,
            executions: 0,
            pruned: 0,
            spurious_injected: 0,
            max_depth: 0,
            hit_exec_bound: false,
            counterexample: None,
        };
        let mut scen = Some(first);
        loop {
            let scenario = scen.take().unwrap_or_else(&mut build);
            match self.run_one(scenario, &mut stack, &mut report, None) {
                Outcome::Completed => report.executions += 1,
                Outcome::Pruned => report.pruned += 1,
                Outcome::Failed(ce) => {
                    report.counterexample = Some(ce);
                    return report;
                }
            }
            report.max_depth = report.max_depth.max(stack.len());
            if !advance(&mut stack) {
                return report;
            }
            if report.executions + report.pruned >= self.cfg.max_execs {
                report.hit_exec_bound = true;
                return report;
            }
        }
    }

    /// Replays one execution along `schedule` (as recorded in a
    /// [`Counterexample`]) and returns its report — used to demonstrate
    /// counterexamples are deterministic.
    pub fn replay(&self, scenario: Scenario, schedule: &[Decision]) -> Report {
        let name = scenario.name;
        let mut report = Report {
            name,
            executions: 0,
            pruned: 0,
            spurious_injected: 0,
            max_depth: 0,
            hit_exec_bound: false,
            counterexample: None,
        };
        let mut stack = Vec::new();
        match self.run_one(scenario, &mut stack, &mut report, Some(schedule)) {
            Outcome::Completed => report.executions = 1,
            Outcome::Pruned => report.pruned = 1,
            Outcome::Failed(ce) => report.counterexample = Some(ce),
        }
        report
    }

    fn run_one(
        &self,
        scenario: Scenario,
        stack: &mut Vec<NodeRec>,
        report: &mut Report,
        replay: Option<&[Decision]>,
    ) -> Outcome {
        let n = scenario.threads.len();
        assert!(n >= 1, "scenario has no threads");
        let shared = Arc::new(Shared::new(n, self.cfg.spurious_budget));
        let mut handles: Vec<_> = scenario
            .threads
            .into_iter()
            .enumerate()
            .map(|(tid, f)| {
                let sh = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("model-{tid}"))
                    .spawn(move || {
                        set_current(Some((Arc::clone(&sh), tid)));
                        let r = catch_unwind(AssertUnwindSafe(f));
                        set_current(None);
                        let mut g = sh.inner.lock().unwrap_or_else(|e| e.into_inner());
                        if let Err(p) = r {
                            if !p.is::<ModelAbort>() {
                                let msg = if let Some(s) = p.downcast_ref::<&str>() {
                                    (*s).to_string()
                                } else if let Some(s) = p.downcast_ref::<String>() {
                                    s.clone()
                                } else {
                                    "non-string panic payload".to_string()
                                };
                                g.threads[tid].panic_msg = Some(msg);
                            }
                        }
                        g.threads[tid].status = Status::Finished;
                        sh.cv.notify_all();
                    })
                    .expect("spawn model thread")
            })
            .collect();
        debug_assert!(
            current().is_none(),
            "checker re-entered from a model thread"
        );

        let mut dfs = Dfs {
            stack,
            depth: 0,
            cur_sleep: Vec::new(),
            taken_log: Vec::new(),
            replay,
            replay_pos: 0,
        };
        let mut last_run: Option<usize> = None;
        let mut preemptions: u32 = 0;

        let outcome = 'exec: loop {
            let mut g = shared.wait_quiescent();

            // A model thread panicked (protocol assertion failed).
            if let Some((tid, msg)) = g
                .threads
                .iter()
                .enumerate()
                .find_map(|(i, t)| t.panic_msg.clone().map(|m| (i, m)))
            {
                break 'exec Err((
                    FailureKind::Panic,
                    format!("thread {tid} panicked: {msg}"),
                    g,
                ));
            }
            if let Some(f) = g.failure.take() {
                break 'exec Err((f.kind, f.message, g));
            }
            if g.threads.iter().all(|t| t.status == Status::Finished) {
                drop(g);
                break 'exec Ok(());
            }
            if g.steps > self.cfg.max_steps {
                break 'exec Err((
                    FailureKind::DepthBound,
                    format!("execution exceeded {} steps", self.cfg.max_steps),
                    g,
                ));
            }

            // Enabled candidates, in deterministic thread order.
            let mut cands: Vec<Decision> = Vec::new();
            let mut descs: Vec<OpDesc> = Vec::new();
            for tid in 0..n {
                if g.op_enabled(tid) {
                    cands.push(Decision::Run(tid));
                    descs.push(g.desc_of(tid));
                }
            }
            if g.spurious_left > 0 {
                for tid in 0..n {
                    if g.threads[tid].status == Status::Sleeping {
                        cands.push(Decision::Spurious(tid));
                        descs.push(g.desc_of(tid));
                    }
                }
            }

            if cands.is_empty() {
                let sleeping: Vec<usize> = (0..n)
                    .filter(|&t| g.threads[t].status == Status::Sleeping)
                    .collect();
                let kind = if sleeping.is_empty() {
                    FailureKind::Deadlock
                } else {
                    FailureKind::LostWakeup
                };
                let msg = if sleeping.is_empty() {
                    "no thread can make progress (mutual mutex block)".to_string()
                } else {
                    format!(
                        "thread(s) {sleeping:?} sleep on a condvar with no notifier left — \
                         a wakeup was lost"
                    )
                };
                break 'exec Err((kind, msg, g));
            }
            if cands.iter().all(|c| matches!(c, Decision::Spurious(_))) {
                break 'exec Err((
                    FailureKind::LostWakeup,
                    "only spurious wakeups can make progress — the protocol relies on a \
                     wakeup that was never sent"
                        .to_string(),
                    g,
                ));
            }

            // Preemption bound: once exhausted, stick with the last
            // thread while it remains enabled.
            if let Some(bound) = self.cfg.preemption_bound {
                if preemptions >= bound {
                    if let Some(l) = last_run {
                        if let Some(i) = cands.iter().position(|c| *c == Decision::Run(l)) {
                            cands = vec![cands[i]];
                            descs = vec![descs[i]];
                        }
                    }
                }
            }

            // Sleep-set filter.
            let mut live = Vec::new();
            let mut live_descs = Vec::new();
            for (c, d) in cands.iter().zip(descs.iter()) {
                if !dfs.cur_sleep.iter().any(|(s, _)| s == c) {
                    live.push(*c);
                    live_descs.push(*d);
                }
            }
            if live.is_empty() {
                drop(g);
                shared.abort();
                for h in handles.drain(..) {
                    let _ = h.join();
                }
                return Outcome::Pruned;
            }

            let continuation_enabled = last_run.is_some_and(|l| cands.contains(&Decision::Run(l)));
            let pick = dfs.decide(live, live_descs, true);
            let tid = match pick {
                Decision::Run(t) | Decision::Spurious(t) => t,
                Decision::ReadFrom(_) => unreachable!("read-from at a scheduling point"),
            };
            if continuation_enabled && last_run != Some(tid) {
                preemptions += 1;
            }
            last_run = Some(tid);

            let exec_desc = g.desc_of(tid);
            match pick {
                Decision::Spurious(t) => {
                    g.apply_spurious(t);
                    report.spurious_injected += 1;
                }
                Decision::Run(t) => {
                    let read_from = match g.load_alternatives(t) {
                        Some(vis) if vis.len() > 1 => {
                            // Newest-first so the default DFS branch is
                            // the coherent "latest value" execution.
                            let alts: Vec<Decision> =
                                vis.iter().rev().map(|&i| Decision::ReadFrom(i)).collect();
                            match dfs.decide(alts, Vec::new(), false) {
                                Decision::ReadFrom(i) => Some(i),
                                other => unreachable!("scheduling decision {other:?} at a read"),
                            }
                        }
                        _ => None,
                    };
                    g.apply(t, read_from);
                }
                Decision::ReadFrom(_) => unreachable!(),
            }
            dfs.wake(&exec_desc);
            drop(g);
            shared.cv.notify_all();
        };

        match outcome {
            Ok(()) => {
                for h in handles.drain(..) {
                    let _ = h.join();
                }
                if let Some(after) = scenario.after {
                    if let Err(p) = catch_unwind(AssertUnwindSafe(after)) {
                        let msg = if let Some(s) = p.downcast_ref::<&str>() {
                            (*s).to_string()
                        } else if let Some(s) = p.downcast_ref::<String>() {
                            s.clone()
                        } else {
                            "non-string panic payload".to_string()
                        };
                        let g = shared.inner.lock().unwrap_or_else(|e| e.into_inner());
                        return Outcome::Failed(Counterexample {
                            kind: FailureKind::PropertyFailed,
                            message: msg,
                            schedule: dfs.taken_log,
                            trace: g.trace.clone(),
                        });
                    }
                }
                Outcome::Completed
            }
            Err((kind, message, g)) => {
                let trace = g.trace.clone();
                drop(g);
                shared.abort();
                for h in handles.drain(..) {
                    let _ = h.join();
                }
                Outcome::Failed(Counterexample {
                    kind,
                    message,
                    schedule: dfs.taken_log,
                    trace,
                })
            }
        }
    }
}
