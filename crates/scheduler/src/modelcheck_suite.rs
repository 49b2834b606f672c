//! The model-checked protocol suite: the scenarios the bounded
//! exhaustive-interleaving checker explores, the ordering-minimality
//! matrix over the runtime's named `Ordering::` sites, and the
//! machinery that runs them; `tests/model_protocols.rs` drives all of
//! it as tests.
//!
//! Only compiled under `--features model` (see `sync.rs` for the seam).
//! Every scenario constructs the *production* protocol objects —
//! [`SenseBarrier`], [`ChunkQueue`], the pool's completion `Latch`, the
//! trace ring — and drives their real methods from 2–3 model threads;
//! the checker then enumerates every interleaving (and every legal
//! stale-read choice) within the documented bounds.
//!
//! # Bounds
//!
//! All scenarios run with [`Config::default`] bounds — full
//! exhaustiveness (no preemption bound), one injected spurious wakeup
//! per execution, 2 000 operations per execution — except
//! `chunkq-reuse`, whose composed claim loops and barrier episodes are
//! bounded at three preemptions (see [`protocols`]). Model builds
//! collapse the barrier's spin/yield budgets to one round each
//! (`barrier.rs`), so a "waiter parks" outcome is a short path, not 320
//! loop iterations.
//!
//! # The minimality matrix
//!
//! [`matrix`] lists every named site of the four checked protocols with
//! its source ordering and the expected verdict of running the suite
//! with that one site weakened one step ([`one_step_weaker`]):
//!
//! * [`Expect::Caught`] — the weakened run must produce a
//!   counterexample: the ordering is load-bearing, and the weakened
//!   variant doubles as a seeded mutant that the matrix test requires
//!   to be caught and to replay.
//! * [`Expect::Minimal`] — the site already uses the weakest ordering
//!   its operation class admits; there is nothing to weaken.
//!
//! Sites that were *demoted* to their current ordering with the
//! checker's blessing (the suite runs clean at the demoted strength,
//! plus an analytic argument in the site's `// ordering:` comment) are
//! listed by [`demoted_sites`]; a unit test holds each row to the
//! matrix's `current` ordering, so re-strengthening a site without
//! updating the table fails.

use crate::pool::Latch;
use crate::{ChunkQueue, SenseBarrier};
use islands_modelcheck::site::{self, one_step_weaker, OpClass};
use islands_modelcheck::{Checker, Config, Decision, ModelCell, Report, Scenario};
use islands_trace::model_support::ModelRing;
use islands_trace::{Event, SpanKind};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// One checked protocol scenario.
pub struct Proto {
    /// Scenario name (stable; the matrix rows name it).
    pub name: &'static str,
    /// Builds a fresh scenario (re-invoked once per execution).
    pub build: fn() -> Scenario,
    /// Exploration bounds for this scenario.
    pub cfg: Config,
}

/// Global lock serializing everything that touches the site-override
/// map (the matrix, weakened-site replays) against plain suite runs. The
/// override map is process-global, so concurrent tests must hold this.
pub fn serial_guard() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

// ---------------------------------------------------------------------
// Scenarios
// ---------------------------------------------------------------------

/// Two threads cross one barrier episode; thread 0 hands a plain
/// (non-atomic) payload across it. Checks: exactly one serial flag, the
/// payload read is data-race-free and sees the written value, no lost
/// wakeup on the park path, survival of spurious wakeups.
fn barrier_handoff() -> Scenario {
    let mut s = Scenario::new("barrier-handoff");
    let b = Arc::new(SenseBarrier::new(2));
    let cell = Arc::new(ModelCell::with_label(0usize, "test.payload"));
    let serials = Arc::new(AtomicUsize::new(0));
    {
        let (b, cell, serials) = (Arc::clone(&b), Arc::clone(&cell), Arc::clone(&serials));
        s.thread(move || {
            cell.set(42);
            if b.wait() {
                serials.fetch_add(1, Ordering::SeqCst);
            }
        });
    }
    {
        let (b, cell, serials) = (Arc::clone(&b), Arc::clone(&cell), Arc::clone(&serials));
        s.thread(move || {
            if b.wait() {
                serials.fetch_add(1, Ordering::SeqCst);
            }
            assert_eq!(cell.get(), 42, "barrier handoff: stale payload");
        });
    }
    s.after(move || {
        assert_eq!(
            serials.load(Ordering::SeqCst),
            1,
            "exactly one serial participant"
        );
    });
    s
}

/// Two threads cross the *same* barrier twice. Checks the
/// sense-reversal reuse protocol: the counter reset and sense prime
/// must keep episodes separate (exactly one serial per episode), which
/// is what blesses the `barrier.count-reset-store` demotion.
fn barrier_reuse() -> Scenario {
    let mut s = Scenario::new("barrier-reuse");
    let b = Arc::new(SenseBarrier::new(2));
    let serials = Arc::new([AtomicUsize::new(0), AtomicUsize::new(0)]);
    for _ in 0..2 {
        let (b, serials) = (Arc::clone(&b), Arc::clone(&serials));
        s.thread(move || {
            for episode in 0..2 {
                if b.wait() {
                    serials[episode].fetch_add(1, Ordering::SeqCst);
                }
            }
        });
    }
    s.after(move || {
        for (episode, count) in serials.iter().enumerate() {
            assert_eq!(
                count.load(Ordering::SeqCst),
                1,
                "episode {episode}: serial count"
            );
        }
    });
    s
}

/// Two threads drain a three-chunk queue through `claim`, the replay's
/// one claim path. Checks: every chunk claimed exactly once, none
/// skipped, claims past the end stay `None`.
fn chunkq_claims() -> Scenario {
    let mut s = Scenario::new("chunkq-claims");
    let q = Arc::new(ChunkQueue::new(3));
    let claimed: Arc<Vec<AtomicUsize>> = Arc::new((0..3).map(|_| AtomicUsize::new(0)).collect());
    for _ in 0..2 {
        let (q, claimed) = (Arc::clone(&q), Arc::clone(&claimed));
        s.thread(move || {
            while let Some(c) = q.claim() {
                claimed[c].fetch_add(1, Ordering::SeqCst);
            }
        });
    }
    s.after(move || {
        for (c, count) in claimed.iter().enumerate() {
            assert_eq!(count.load(Ordering::SeqCst), 1, "chunk {c}: claim count");
        }
    });
    s
}

/// The barrier-fenced reuse episode the executors run every epoch:
/// drain, barrier, serial resets, barrier, drain again. Checks that the
/// `Relaxed` reset is fully fenced by the barrier — no chunk of the
/// second epoch is claimed twice or skipped.
fn chunkq_reuse() -> Scenario {
    let mut s = Scenario::new("chunkq-reuse");
    let q = Arc::new(ChunkQueue::new(1));
    let b = Arc::new(SenseBarrier::new(2));
    let claimed: Arc<Vec<AtomicUsize>> = Arc::new((0..2).map(|_| AtomicUsize::new(0)).collect());
    for _ in 0..2 {
        let (q, b, claimed) = (Arc::clone(&q), Arc::clone(&b), Arc::clone(&claimed));
        s.thread(move || {
            for epoch in 0..2 {
                while let Some(c) = q.claim() {
                    claimed[epoch + c].fetch_add(1, Ordering::SeqCst);
                }
                if b.wait() {
                    q.reset();
                }
                b.wait();
            }
        });
    }
    s.after(move || {
        for (i, count) in claimed.iter().enumerate() {
            assert_eq!(count.load(Ordering::SeqCst), 1, "epoch {i}: claim count");
        }
    });
    s
}

/// The pool's completion latch: two workers arrive (one stashing a
/// panic payload), the caller waits. Checks: the caller always wakes
/// (no lost wakeup, spurious wakeups survived) and receives the first
/// stashed payload.
fn latch_completion() -> Scenario {
    let mut s = Scenario::new("latch-completion");
    let latch = Arc::new(Latch::new(2));
    let delivered = Arc::new(AtomicUsize::new(0));
    {
        let latch = Arc::clone(&latch);
        s.thread(move || latch.arrive(Some(Box::new("boom"))));
    }
    {
        let latch = Arc::clone(&latch);
        s.thread(move || latch.arrive(None));
    }
    {
        let (latch, delivered) = (Arc::clone(&latch), Arc::clone(&delivered));
        s.thread(move || {
            let payload = latch.wait();
            let got = payload.expect("a panic payload was stashed");
            assert_eq!(
                got.downcast_ref::<&str>(),
                Some(&"boom"),
                "latch payload mangled"
            );
            delivered.fetch_add(1, Ordering::SeqCst);
        });
    }
    s.after(move || {
        assert_eq!(delivered.load(Ordering::SeqCst), 1, "caller never woke");
    });
    s
}

/// A ring event whose every varying word is a distinct nonzero
/// function of `tag`: any torn mix of two pushes' words, any stale
/// word, and any never-written (zero) word changes the decoded event,
/// so exact-equality assertions detect every corruption the seqlock
/// protocol is supposed to exclude.
fn ring_ev(tag: u64) -> Event {
    Event {
        kind: SpanKind::Kernel,
        start_ns: tag * 1000 + 1,
        dur_ns: tag * 1000 + 2,
        aux: [tag * 1000 + 3, tag * 1000 + 4, tag * 1000 + 5],
        island: tag as u32,
        rank: 100 + tag as u32,
        step: tag as u32,
        stage: 10 + tag as u16,
        block: 20 + tag as u16,
    }
}

/// The trace ring's concurrent publish path, no wrap: a producer
/// pushes two events into a two-slot ring while a collector drains
/// from cursor 0. Checks: the collector never reports an unpublished
/// slot (the publish-store/window-load edge), never a torn or stale
/// event (the per-slot sequence validation), and the events it does
/// see are exactly the pushed prefix, in order.
fn ring_publish() -> Scenario {
    let mut s = Scenario::new("ring-publish");
    let ring = Arc::new(ModelRing::new(2, 7));
    {
        let ring = Arc::clone(&ring);
        s.thread(move || {
            ring.push(ring_ev(1));
            ring.push(ring_ev(2));
        });
    }
    {
        let ring = Arc::clone(&ring);
        s.thread(move || {
            let (events, stats) = ring.collect(0);
            assert_eq!(
                stats.unpublished, 0,
                "slot behind the published window not committed"
            );
            assert_eq!(
                stats.overwritten, 0,
                "no wrap in a 2-slot ring with 2 pushes"
            );
            assert_eq!(
                events.len() as u64,
                stats.next,
                "events are the full window"
            );
            for (n, t) in events.iter().enumerate() {
                assert_eq!(t.thread, 7, "ring tagged the wrong thread");
                assert_eq!(t.ev, ring_ev(n as u64 + 1), "torn or stale slot");
            }
        });
    }
    s
}

/// The trace ring's concurrent drain under wrap-around: two pushes
/// into a ONE-slot ring (the second recycles the first's slot) racing
/// a collector. Checks the overwrite accounting is exact and loss is
/// never silent (`events + overwritten == window`, `unpublished == 0`)
/// and that slot recycling never leaks a torn mix of the two pushes —
/// the sequence recheck must reject a slot rewritten mid-read.
fn ring_drain() -> Scenario {
    let mut s = Scenario::new("ring-drain");
    let ring = Arc::new(ModelRing::new(1, 3));
    {
        let ring = Arc::clone(&ring);
        s.thread(move || {
            ring.push(ring_ev(1));
            ring.push(ring_ev(2));
        });
    }
    {
        let ring = Arc::clone(&ring);
        s.thread(move || {
            let (events, stats) = ring.collect(0);
            assert_eq!(
                stats.unpublished, 0,
                "slot behind the published window not committed"
            );
            assert_eq!(
                events.len() as u64 + stats.overwritten,
                stats.next,
                "lost events must be counted, never silent"
            );
            // A 1-slot ring exposes only the newest push of the
            // window: if anything is readable it is exactly the last
            // published event, untorn.
            assert!(events.len() <= 1, "1-slot ring yielded {}", events.len());
            if let Some(t) = events.first() {
                assert_eq!(t.thread, 3, "ring tagged the wrong thread");
                assert_eq!(t.ev, ring_ev(stats.next), "torn or stale slot");
            }
        });
    }
    s
}

/// All checked protocols, in deterministic order.
pub fn protocols() -> Vec<Proto> {
    vec![
        Proto {
            name: "barrier-handoff",
            build: barrier_handoff,
            cfg: Config::default(),
        },
        Proto {
            name: "barrier-reuse",
            build: barrier_reuse,
            cfg: Config::default(),
        },
        Proto {
            name: "chunkq-claims",
            build: chunkq_claims,
            cfg: Config::default(),
        },
        Proto {
            name: "chunkq-reuse",
            build: chunkq_reuse,
            cfg: Config {
                // The composed scenario (claim loops + two full barrier
                // episodes per thread) is too deep for full DFS; bound
                // context switches CHESS-style instead. Known ordering
                // bugs of this shape need at most 2–3 preemptions.
                preemption_bound: Some(3),
                ..Config::default()
            },
        },
        Proto {
            name: "latch-completion",
            build: latch_completion,
            cfg: Config::default(),
        },
        Proto {
            name: "ring-publish",
            build: ring_publish,
            cfg: Config::default(),
        },
        Proto {
            name: "ring-drain",
            build: ring_drain,
            cfg: Config::default(),
        },
    ]
}

/// Runs one named protocol scenario and returns its report.
pub fn run_protocol(name: &str) -> Report {
    let proto = protocols()
        .into_iter()
        .find(|p| p.name == name)
        .unwrap_or_else(|| panic!("unknown protocol scenario {name:?}"));
    Checker::new(proto.cfg).check(proto.build)
}

// ---------------------------------------------------------------------
// Ordering-minimality matrix
// ---------------------------------------------------------------------

/// Expected verdict of weakening a site one step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Expect {
    /// Already at the weakest ordering its operation class admits.
    Minimal,
    /// One step weaker must produce a counterexample.
    Caught,
}

/// One row of the minimality matrix.
pub struct SiteSpec {
    /// The `ord(...)` site label in the protocol source.
    pub site: &'static str,
    /// The ordering the source currently uses at this site.
    pub current: Ordering,
    /// Operation class (decides the weakening ladder).
    pub class: OpClass,
    /// Scenario that exercises this site.
    pub scenario: &'static str,
    /// Expected verdict.
    pub expect: Expect,
}

/// Every named site of the four checked protocols.
#[rustfmt::skip]
pub fn matrix() -> Vec<SiteSpec> {
    use Expect::{Caught, Minimal};
    use OpClass::{Load, Rmw, Store};
    use Ordering::{AcqRel, Acquire, Relaxed, Release, SeqCst};
    vec![
        SiteSpec { site: "barrier.sense-prime-load",       current: Relaxed, class: Load,  scenario: "barrier-reuse",   expect: Minimal },
        SiteSpec { site: "barrier.count-arrive-rmw",       current: AcqRel,  class: Rmw,   scenario: "barrier-handoff", expect: Caught },
        SiteSpec { site: "barrier.sense-spin-load",        current: Acquire, class: Load,  scenario: "barrier-handoff", expect: Caught },
        SiteSpec { site: "barrier.sense-yield-load",       current: Acquire, class: Load,  scenario: "barrier-handoff", expect: Caught },
        SiteSpec { site: "barrier.count-reset-store",      current: Relaxed, class: Store, scenario: "barrier-reuse",   expect: Minimal },
        SiteSpec { site: "barrier.sense-flip-store",       current: SeqCst,  class: Store, scenario: "barrier-handoff", expect: Caught },
        SiteSpec { site: "barrier.sleepers-gate-load",     current: SeqCst,  class: Load,  scenario: "barrier-handoff", expect: Caught },
        SiteSpec { site: "barrier.park-sleepers-inc-rmw",  current: SeqCst,  class: Rmw,   scenario: "barrier-handoff", expect: Caught },
        SiteSpec { site: "barrier.park-sense-recheck-load", current: SeqCst, class: Load,  scenario: "barrier-handoff", expect: Caught },
        SiteSpec { site: "barrier.park-sleepers-dec-rmw",  current: Relaxed, class: Rmw,   scenario: "barrier-handoff", expect: Minimal },
        SiteSpec { site: "chunkq.fastpath-load",           current: Relaxed, class: Load,  scenario: "chunkq-claims",   expect: Minimal },
        SiteSpec { site: "chunkq.claim-rmw",               current: Relaxed, class: Rmw,   scenario: "chunkq-claims",   expect: Minimal },
        SiteSpec { site: "chunkq.remaining-load",          current: Relaxed, class: Load,  scenario: "chunkq-claims",   expect: Minimal },
        SiteSpec { site: "chunkq.reset-store",             current: Relaxed, class: Store, scenario: "chunkq-reuse",    expect: Minimal },
        SiteSpec { site: "ring.reserve-load",              current: Relaxed, class: Load,  scenario: "ring-publish",    expect: Minimal },
        SiteSpec { site: "ring.slot-begin-store",          current: Relaxed, class: Store, scenario: "ring-drain",      expect: Minimal },
        SiteSpec { site: "ring.slot-word-store",           current: Release, class: Store, scenario: "ring-drain",      expect: Caught },
        SiteSpec { site: "ring.slot-commit-store",         current: Relaxed, class: Store, scenario: "ring-publish",    expect: Minimal },
        SiteSpec { site: "ring.publish-store",             current: Release, class: Store, scenario: "ring-publish",    expect: Caught },
        SiteSpec { site: "ring.slot-validate-load",        current: Relaxed, class: Load,  scenario: "ring-publish",    expect: Minimal },
        SiteSpec { site: "ring.slot-word-load",            current: Acquire, class: Load,  scenario: "ring-drain",      expect: Caught },
        SiteSpec { site: "ring.slot-recheck-load",         current: Relaxed, class: Load,  scenario: "ring-drain",      expect: Minimal },
        SiteSpec { site: "ring.window-load",               current: Acquire, class: Load,  scenario: "ring-publish",    expect: Caught },
    ]
}

/// Sites demoted to their current ordering with the checker's blessing:
/// the suite explores clean at the demoted strength, and the site's
/// `// ordering:` comment carries the analytic argument. Each row is
/// `(site, from, to, why)`.
pub fn demoted_sites() -> Vec<(&'static str, Ordering, Ordering, &'static str)> {
    use Ordering::{Acquire, Relaxed, Release, SeqCst};
    vec![
        (
            "barrier.count-reset-store",
            Release,
            Relaxed,
            "the SeqCst sense flip is the release edge every next-episode arrival acquires",
        ),
        (
            "barrier.sense-prime-load",
            SeqCst,
            Relaxed,
            "coherence alone suffices: every participant observed the previous flip, so the prime read cannot go stale",
        ),
        (
            "barrier.sense-spin-load",
            SeqCst,
            Acquire,
            "the SeqCst park recheck is the lost-wakeup safety net; the spin load only needs the flip's release edge",
        ),
        (
            "barrier.sense-yield-load",
            SeqCst,
            Acquire,
            "same safety net as the spin load",
        ),
        (
            "barrier.park-sleepers-dec-rmw",
            SeqCst,
            Relaxed,
            "a stale-high sleeper count only causes a harmless extra notify; RMW atomicity keeps the count exact",
        ),
        (
            "ring.slot-commit-store",
            Release,
            Relaxed,
            "every reader reaches the slot through the Acquired publish window, which program-order-follows this commit and already orders the seq and the words",
        ),
        (
            "ring.slot-validate-load",
            Acquire,
            Relaxed,
            "the Acquired window floors this load at the committed seq; a concurrent recycler is caught by the word-load Acquire edge and the s2 re-check",
        ),
    ]
}

/// Runs the minimality-matrix row for `spec`: weakens the site one step
/// and explores its scenario. Returns `None` for [`Expect::Minimal`]
/// rows (nothing to weaken), otherwise the weakened-run report.
///
/// Callers must hold [`serial_guard`] — the override map is global.
pub fn run_weakened(spec: &SiteSpec) -> Option<Report> {
    let weaker = one_step_weaker(spec.current, spec.class)?;
    site::set_override(spec.site, weaker);
    let report = run_protocol(spec.scenario);
    site::clear_overrides();
    Some(report)
}

/// Replays a recorded counterexample schedule against `spec`'s
/// scenario with the site weakened one step — demonstrates that the
/// counterexample is deterministic, not a search artifact.
///
/// Callers must hold [`serial_guard`].
pub fn replay_weakened(spec: &SiteSpec, schedule: &[Decision]) -> Report {
    let weaker =
        one_step_weaker(spec.current, spec.class).expect("replay_weakened on a minimal site");
    let proto = protocols()
        .into_iter()
        .find(|p| p.name == spec.scenario)
        .expect("matrix scenario exists");
    site::set_override(spec.site, weaker);
    let report = Checker::new(proto.cfg).replay((proto.build)(), schedule);
    site::clear_overrides();
    report
}

/// Looks up a matrix row by site name.
pub fn find_site(name: &str) -> Option<SiteSpec> {
    matrix().into_iter().find(|s| s.site == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_rows_are_consistent() {
        let names: Vec<_> = protocols().iter().map(|p| p.name).collect();
        for spec in matrix() {
            assert!(
                names.contains(&spec.scenario),
                "{}: unknown scenario {}",
                spec.site,
                spec.scenario
            );
            let weaker = one_step_weaker(spec.current, spec.class);
            match spec.expect {
                Expect::Minimal => assert!(
                    weaker.is_none(),
                    "{}: marked Minimal but {:?} can still weaken",
                    spec.site,
                    spec.current
                ),
                Expect::Caught => assert!(
                    weaker.is_some(),
                    "{}: marked Caught but {:?} is already weakest",
                    spec.site,
                    spec.current
                ),
            }
        }
    }

    /// A demotion is a walk down its site's weakening ladder that ends
    /// at the ordering the matrix row carries now.
    #[test]
    fn demoted_sites_sit_at_their_demoted_ordering() {
        for (site, from, to, why) in demoted_sites() {
            assert!(!why.is_empty(), "{site}: demotion without a reason");
            let spec =
                find_site(site).unwrap_or_else(|| panic!("{site}: demoted but not in matrix"));
            assert_eq!(
                spec.current, to,
                "{site}: the matrix row reads {:?}, the demotion table {to:?}",
                spec.current
            );
            let below_from: Vec<Ordering> =
                std::iter::successors(one_step_weaker(from, spec.class), |&o| {
                    one_step_weaker(o, spec.class)
                })
                .collect();
            assert!(
                below_from.contains(&to),
                "{site}: {to:?} is not below {from:?} on the {:?} ladder",
                spec.class
            );
        }
    }
}
