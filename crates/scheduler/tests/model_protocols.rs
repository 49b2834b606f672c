//! The model-checked protocol suite as tests (`--features model`).
//!
//! Every scenario of `suite::protocols()` explores clean at counts
//! pinned here, every row of the ordering-minimality matrix gets its
//! expected verdict, and every caught counterexample replays from its
//! recorded schedule. Every test takes [`serial_guard`] — the
//! ordering-override map behind the minimality matrix is
//! process-global.
#![cfg(feature = "model")]

use islands_modelcheck::format_trace;
use work_scheduler::modelcheck_suite as suite;
use work_scheduler::modelcheck_suite::serial_guard;

/// Each scenario's exploration totals (EXPERIMENTS.md E16):
/// `(scenario, executions, pruned, spurious wakeups, max depth)`. The
/// DFS and its sleep-set pruning hold no randomized state, so a refactor
/// that collapses a scenario's interleaving space moves these. The
/// non-zero spurious counts of `barrier-handoff` and `latch-completion`
/// show the barrier's `cv.wait` recheck and the latch's
/// `remaining != 0` loop really are driven through injected wakeups.
const EXPLORED: [(&str, u64, u64, u64, usize); 7] = [
    ("barrier-handoff", 60, 108, 48, 20),
    ("barrier-reuse", 5_334, 3_419, 5_140, 35),
    ("chunkq-claims", 362, 38, 0, 11),
    ("chunkq-reuse", 9_999, 4_091, 11_601, 78),
    ("latch-completion", 28, 0, 22, 5),
    ("ring-publish", 6, 34, 0, 26),
    ("ring-drain", 41_426, 34_372, 0, 36),
];

#[test]
fn every_protocol_explores_clean_at_its_pinned_counts() {
    let _g = serial_guard();
    let protocols = suite::protocols();
    assert_eq!(protocols.len(), EXPLORED.len(), "a scenario lacks its pin");
    for proto in protocols {
        let &(_, executions, pruned, spurious, depth) = EXPLORED
            .iter()
            .find(|pin| pin.0 == proto.name)
            .unwrap_or_else(|| panic!("{}: no pinned counts", proto.name));
        let report = suite::run_protocol(proto.name);
        assert!(
            report.exhaustive_and_clean(),
            "{}\n{}",
            report.summary(),
            report
                .counterexample
                .as_ref()
                .map_or(String::new(), |ce| format_trace(&ce.trace))
        );
        assert_eq!(
            (
                report.executions,
                report.pruned,
                report.spurious_injected,
                report.max_depth
            ),
            (executions, pruned, spurious, depth),
            "{}: (executions, pruned, spurious, depth) moved",
            proto.name
        );
    }
}

/// The ordering-minimality matrix: weakening any load-bearing site one
/// step must be caught with a counterexample whose recorded schedule
/// replays to the same failure and trace; every other site must
/// already sit at the weakest ordering its class admits.
#[test]
fn minimality_matrix_expectations_hold() {
    let _g = serial_guard();
    let mut caught = 0u32;
    for spec in suite::matrix() {
        match suite::run_weakened(&spec) {
            None => assert_eq!(
                spec.expect,
                suite::Expect::Minimal,
                "{}: expected a weakened run, but the ordering is already minimal",
                spec.site
            ),
            Some(report) => match spec.expect {
                suite::Expect::Caught => {
                    let Some(ce) = &report.counterexample else {
                        panic!(
                            "{}: weakened mutant NOT caught — {}",
                            spec.site,
                            report.summary()
                        )
                    };
                    let replayed = suite::replay_weakened(&spec, &ce.schedule)
                        .counterexample
                        .unwrap_or_else(|| panic!("{}: schedule replays clean", spec.site));
                    assert_eq!(
                        replayed.kind.name(),
                        ce.kind.name(),
                        "{}: replay diverged from the recorded failure",
                        spec.site
                    );
                    assert_eq!(
                        format_trace(&replayed.trace),
                        format_trace(&ce.trace),
                        "{}: replayed trace diverged",
                        spec.site
                    );
                    caught += 1;
                }
                suite::Expect::Minimal => panic!(
                    "{}: marked Minimal but {:?} still weakens",
                    spec.site, spec.current
                ),
            },
        }
    }
    // E16's count: a matrix that quietly loses a load-bearing row
    // moves it.
    assert_eq!(caught, 11, "caught mutants");
}

/// The canonical lost-wakeup counterexample: weakening the releaser's
/// sleepers gate load to `Acquire` lets it miss the parked waiter's
/// increment (the classic store-buffering shape), so the notify is
/// skipped. Golden-pins the trace pretty-printer's output.
#[test]
fn gate_load_mutant_trace_matches_golden() {
    let _g = serial_guard();
    let spec = suite::find_site("barrier.sleepers-gate-load").expect("site in matrix");
    let report = suite::run_weakened(&spec).expect("site is weakenable");
    let ce = report.counterexample.expect("mutant must be caught");
    assert_eq!(ce.kind.name(), "lost-wakeup");
    let rendered = format_trace(&ce.trace);
    let golden = include_str!("golden/gate_load_trace.txt");
    assert_eq!(
        rendered, golden,
        "trace table diverged from golden/gate_load_trace.txt:\n{rendered}"
    );
}
