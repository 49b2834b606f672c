//! Sense-reversing barriers.
//!
//! The islands executor needs many small, cheap, *reusable* barriers: one
//! per work team (used 17 times per block) plus one global barrier per
//! time step. A centralized sense-reversing barrier serves both; unlike
//! `std::sync::Barrier` it hands out a *serial* flag and is trivially
//! shareable through `Arc`.
//!
//! # Waiting protocol
//!
//! Team barriers fire `stages × blocks` times per time step, so arrival
//! skew is usually tiny and a short spin wins; but when the machine is
//! oversubscribed (more workers than cores) a spinning waiter steals the
//! very CPU the straggler needs. `wait` therefore escalates in three
//! bounded phases: busy-spin ([`SPIN_ROUNDS`]), `yield_now`
//! ([`YIELD_ROUNDS`]), then parking on a `Condvar`. The park path uses
//! a `sleepers` counter so episodes that never park pay no mutex
//! traffic: the releaser only touches the lock when someone is (or is
//! about to be) asleep.

use crate::sync::{ord, AtomicBool, AtomicUsize, Condvar, Mutex};
use islands_trace::SpanKind;
use std::sync::atomic::Ordering;

/// Default busy-spin iterations before a waiter starts yielding.
#[cfg(not(feature = "model"))]
const SPIN_ROUNDS: u32 = 256;

/// Default `yield_now` iterations before a waiter parks on the condvar.
#[cfg(not(feature = "model"))]
const YIELD_ROUNDS: u32 = 64;

/// Model builds collapse the spin and yield phases to a single round
/// each: the checker's stale-read branching makes every extra loop
/// iteration a fresh choice point, and one round already exercises the
/// protocol-relevant outcomes (saw the flip early / fell through to
/// park).
#[cfg(feature = "model")]
const SPIN_ROUNDS: u32 = 1;

/// See [`SPIN_ROUNDS`].
#[cfg(feature = "model")]
const YIELD_ROUNDS: u32 = 1;

/// What a barrier synchronizes — tags its wait-time trace events so
/// the metrics can separate intra-island from once-per-step waits.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BarrierScope {
    /// Synchronizes the ranks of one team (island) between stages.
    #[default]
    Team,
    /// Synchronizes all teams once per time step.
    Global,
}

impl BarrierScope {
    fn span_kind(self) -> SpanKind {
        match self {
            BarrierScope::Team => SpanKind::TeamBarrier,
            BarrierScope::Global => SpanKind::GlobalBarrier,
        }
    }
}

/// The spin and yield budgets appropriate for `workers` total runnable
/// workers on `cores` hardware threads.
///
/// At or below full subscription the default budgets apply: arrival
/// skew is tiny and a short spin beats a syscall. Oversubscribed, a
/// spinning waiter occupies the very CPU its straggler needs, so the
/// spin phase is dropped entirely and the yield phase shrinks with the
/// oversubscription ratio — the waiter gets out of the way and parks
/// almost immediately. Pure so the policy is unit-testable; the budgets
/// never exceed the defaults, which keeps model builds collapsed to one
/// round per phase.
pub fn spin_budget_for(workers: usize, cores: usize) -> (u32, u32) {
    let cores = cores.max(1);
    if workers <= cores {
        (SPIN_ROUNDS, YIELD_ROUNDS)
    } else {
        let ratio = workers.div_ceil(cores) as u32;
        (0, (YIELD_ROUNDS / ratio).clamp(1, YIELD_ROUNDS))
    }
}

/// Hardware threads available to this process (1 when undetectable).
pub fn available_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A reusable sense-reversing barrier for a fixed set of participants.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use work_scheduler::SenseBarrier;
/// let b = Arc::new(SenseBarrier::new(2));
/// let b2 = Arc::clone(&b);
/// let t = std::thread::spawn(move || { b2.wait(); });
/// let serial = b.wait();
/// t.join().unwrap();
/// // Exactly one participant of each episode observes `serial == true`
/// // (asserted across both threads in the crate's tests).
/// let _ = serial;
/// ```
#[derive(Debug)]
pub struct SenseBarrier {
    parties: usize,
    scope: BarrierScope,
    count: AtomicUsize,
    sense: AtomicBool,
    /// Waiters parked (or committed to parking) on `cv`. Nonzero tells
    /// the releaser it must take `lock` and notify.
    sleepers: AtomicUsize,
    lock: Mutex<()>,
    cv: Condvar,
    /// Busy-spin iterations before a waiter starts yielding (default
    /// [`SPIN_ROUNDS`]; see [`spin_budget_for`]). Plain data set at
    /// construction — the waiting protocol and its ordering audit are
    /// untouched by the budget.
    spin_rounds: u32,
    /// `yield_now` iterations before a waiter parks (default
    /// [`YIELD_ROUNDS`]).
    yield_rounds: u32,
}

impl SenseBarrier {
    /// Creates a team-scoped barrier for `parties` participants.
    ///
    /// # Panics
    ///
    /// Panics if `parties == 0`.
    pub fn new(parties: usize) -> Self {
        Self::scoped(parties, BarrierScope::Team)
    }

    /// Creates a barrier whose wait-time trace events carry `scope`.
    ///
    /// # Panics
    ///
    /// Panics if `parties == 0`.
    pub fn scoped(parties: usize, scope: BarrierScope) -> Self {
        Self::with_budget(parties, scope, (SPIN_ROUNDS, YIELD_ROUNDS))
    }

    /// Creates a barrier sized for a dispatch of `total_workers`
    /// runnable workers (of which this barrier synchronizes `parties`):
    /// the spin/yield budgets come from [`spin_budget_for`] against the
    /// machine's [`available_cores`], so oversubscribed runs park
    /// almost immediately instead of stealing the straggler's CPU.
    ///
    /// # Panics
    ///
    /// Panics if `parties == 0`.
    pub fn scoped_for_load(parties: usize, scope: BarrierScope, total_workers: usize) -> Self {
        Self::with_budget(
            parties,
            scope,
            spin_budget_for(total_workers, available_cores()),
        )
    }

    fn with_budget(parties: usize, scope: BarrierScope, budget: (u32, u32)) -> Self {
        assert!(parties > 0, "a barrier needs at least one participant");
        SenseBarrier {
            parties,
            scope,
            count: AtomicUsize::with_label(0, "barrier.count"),
            sense: AtomicBool::with_label(false, "barrier.sense"),
            sleepers: AtomicUsize::with_label(0, "barrier.sleepers"),
            lock: Mutex::with_label((), "barrier.lock"),
            cv: Condvar::with_label("barrier.cv"),
            spin_rounds: budget.0,
            yield_rounds: budget.1,
        }
    }

    /// Number of participants.
    pub fn parties(&self) -> usize {
        self.parties
    }

    /// The scope this barrier's trace events are tagged with.
    pub fn scope(&self) -> BarrierScope {
        self.scope
    }

    /// Blocks until all `parties` threads have called `wait` for the
    /// current episode. Returns `true` for exactly one participant (the
    /// last to arrive), mirroring `std::sync::Barrier`'s leader flag.
    ///
    /// Waiters spin briefly, then yield, then park (see the module
    /// docs); none of the phases allocates. When a trace session is
    /// recording, each wait emits one span whose `aux` splits the wait
    /// into exact spin/yield/park nanoseconds; with tracing off the
    /// only extra cost is one relaxed load and a branch.
    pub fn wait(&self) -> bool {
        if islands_trace::is_enabled() {
            self.wait_traced()
        } else {
            self.wait_plain()
        }
    }

    /// The untraced wait: this is the exact pre-instrumentation code
    /// path, kept clock-free so the disabled mode measures nothing.
    fn wait_plain(&self) -> bool {
        // ordering: Relaxed — demoted from SeqCst with the checker's
        // blessing (`demoted_sites` in the model suite): coherence
        // alone keeps the prime exact, because every participant
        // observed the previous episode's flip on its way out of the
        // last wait (or the initial value at construction), so a staler
        // value is no longer visible to it.
        let my_sense = !self
            .sense
            .load(ord("barrier.sense-prime-load", Ordering::Relaxed));
        // ordering: AcqRel — arrivals synchronize pairwise through the
        // counter so the last arriver happens-after every earlier
        // arrival (and the work preceding it); the release half makes
        // this thread's pre-barrier writes visible to the releaser.
        let arrived = self
            .count
            .fetch_add(1, ord("barrier.count-arrive-rmw", Ordering::AcqRel))
            + 1;
        if arrived == self.parties {
            self.release(my_sense);
            true
        } else {
            for _ in 0..self.spin_rounds {
                // ordering: Acquire — demoted from SeqCst with the
                // checker's blessing: returning here must acquire the
                // flip (it publishes every participant's pre-barrier
                // writes), but the fast path needs no SC slot — the
                // SeqCst park recheck below is the lost-wakeup safety
                // net when this load runs stale.
                if self
                    .sense
                    .load(ord("barrier.sense-spin-load", Ordering::Acquire))
                    == my_sense
                {
                    return false;
                }
                std::hint::spin_loop();
            }
            for _ in 0..self.yield_rounds {
                // ordering: Acquire — same contract (and same demotion)
                // as the spin load.
                if self
                    .sense
                    .load(ord("barrier.sense-yield-load", Ordering::Acquire))
                    == my_sense
                {
                    return false;
                }
                std::thread::yield_now();
            }
            self.park(my_sense);
            false
        }
    }

    /// The traced wait: identical protocol, with timestamps taken at
    /// the phase boundaries so `spin + yield + park` equals the span
    /// duration *exactly* (each phase ends where the next begins).
    fn wait_traced(&self) -> bool {
        let kind = self.scope.span_kind();
        let t0 = islands_trace::now_ns();
        // ordering: Relaxed — same site contract (and demotion) as the
        // untraced prime read in `wait_plain`.
        let my_sense = !self
            .sense
            .load(ord("barrier.sense-prime-load", Ordering::Relaxed));
        // ordering: AcqRel — same site contract as `wait_plain`.
        let arrived = self
            .count
            .fetch_add(1, ord("barrier.count-arrive-rmw", Ordering::AcqRel))
            + 1;
        if arrived == self.parties {
            self.release(my_sense);
            // The serial participant never waits: a zero-length marker
            // keeps the episode visible without skewing wait totals.
            islands_trace::record(kind, t0, t0, 0, 0, [0; 3]);
            true
        } else {
            let mut released = false;
            for _ in 0..self.spin_rounds {
                // ordering: Acquire — same site (and demotion) as the
                // untraced spin load.
                if self
                    .sense
                    .load(ord("barrier.sense-spin-load", Ordering::Acquire))
                    == my_sense
                {
                    released = true;
                    break;
                }
                std::hint::spin_loop();
            }
            let t1 = islands_trace::now_ns();
            let mut t2 = t1;
            if !released {
                for _ in 0..self.yield_rounds {
                    // ordering: Acquire — same site (and demotion) as
                    // the untraced yield load.
                    if self
                        .sense
                        .load(ord("barrier.sense-yield-load", Ordering::Acquire))
                        == my_sense
                    {
                        released = true;
                        break;
                    }
                    std::thread::yield_now();
                }
                t2 = islands_trace::now_ns();
            }
            let t3 = if released {
                t2
            } else {
                self.park(my_sense);
                islands_trace::now_ns()
            };
            islands_trace::record(kind, t0, t3, 0, 0, [t1 - t0, t2 - t1, t3 - t2]);
            false
        }
    }

    /// Last-arrival release: reset the counter and flip the sense,
    /// which releases everyone waiting.
    fn release(&self, my_sense: bool) {
        // ordering: Relaxed — demoted from Release with the checker's
        // blessing (see `demoted_sites` in the model suite): the next
        // episode's arrivals already happen-after this store through
        // the SC sense flip below, which every participant reads (SC
        // load) before touching the counter again; an explicit release
        // edge on the reset adds nothing the flip does not provide.
        let reset_ord = ord("barrier.count-reset-store", Ordering::Relaxed);
        self.count.store(0, reset_ord);
        // ordering: SeqCst — the flip must take a slot in the single
        // total order *before* the sleepers gate below: SC store, then
        // SC load. Weakening either side re-creates the classic
        // store-buffering lost wakeup (caught by the matrix).
        self.sense
            .store(my_sense, ord("barrier.sense-flip-store", Ordering::SeqCst));
        // SC total order makes the sleepers check sound: a waiter
        // increments `sleepers` *before* re-reading `sense`. If we
        // read 0 here, that increment is ordered after this load, so
        // the waiter's subsequent sense read is ordered after our
        // store above and it never parks. If we read nonzero, we
        // acquire the lock — serializing with the waiter, who either
        // sees the flipped sense under the lock or is already inside
        // `cv.wait` — and the notify cannot be lost.
        // ordering: SeqCst — the load half of the store-buffering
        // pattern described above.
        if self
            .sleepers
            .load(ord("barrier.sleepers-gate-load", Ordering::SeqCst))
            > 0
        {
            let _g = self.lock.lock().unwrap_or_else(|e| e.into_inner());
            self.cv.notify_all();
        }
    }

    /// Condvar park for a waiter that exhausted its spin and yield
    /// budgets.
    fn park(&self, my_sense: bool) {
        let mut g = self.lock.lock().unwrap_or_else(|e| e.into_inner());
        // ordering: SeqCst — the increment must be ordered before this
        // thread's sense re-read below (program order within the SC
        // total order), mirroring the releaser's flip-then-gate-load;
        // this is the other half of the no-lost-wakeup argument.
        self.sleepers
            .fetch_add(1, ord("barrier.park-sleepers-inc-rmw", Ordering::SeqCst));
        // ordering: SeqCst — if the releaser's gate load missed our
        // increment, this read is ordered after its SC flip and must
        // see the new sense, so we never park on a completed episode.
        while self
            .sense
            .load(ord("barrier.park-sense-recheck-load", Ordering::SeqCst))
            != my_sense
        {
            g = self.cv.wait(g).unwrap_or_else(|e| e.into_inner());
        }
        // ordering: Relaxed — demoted from SeqCst with the checker's
        // blessing: RMW atomicity keeps the count exact, and a releaser
        // whose gate load misses this decrement only reads a stale-high
        // value — an extra lock/notify round, never a lost wakeup.
        self.sleepers
            .fetch_sub(1, ord("barrier.park-sleepers-dec-rmw", Ordering::Relaxed));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    #[test]
    fn single_party_returns_serial_immediately() {
        let b = SenseBarrier::new(1);
        assert!(b.wait());
        assert!(b.wait());
        assert_eq!(b.parties(), 1);
    }

    #[test]
    fn reusable_across_many_episodes() {
        let n = 4;
        let episodes = 200;
        let b = Arc::new(SenseBarrier::new(n));
        let counter = Arc::new(AtomicUsize::new(0));
        let serials = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..n {
            let b = Arc::clone(&b);
            let counter = Arc::clone(&counter);
            let serials = Arc::clone(&serials);
            handles.push(std::thread::spawn(move || {
                for e in 0..episodes {
                    counter.fetch_add(1, Ordering::SeqCst);
                    if b.wait() {
                        serials.fetch_add(1, Ordering::SeqCst);
                    }
                    // After the barrier, every participant must observe all
                    // `n` increments of this episode.
                    let c = counter.load(Ordering::SeqCst);
                    assert!(c >= n * (e + 1), "episode {e}: saw {c}");
                    b.wait();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // Exactly one serial thread per first-wait episode.
        assert_eq!(serials.load(Ordering::SeqCst), episodes);
    }

    #[test]
    fn parked_waiters_survive_slow_release() {
        // Force the park path: one straggler arrives long after the
        // others have exhausted their spin and yield budgets. The
        // episode must still complete (no lost wakeup) and repeat.
        let n = 3;
        let b = Arc::new(SenseBarrier::new(n));
        let mut handles = Vec::new();
        for w in 0..n - 1 {
            let b = Arc::clone(&b);
            handles.push(std::thread::spawn(move || {
                for _ in 0..5 {
                    b.wait();
                }
                w
            }));
        }
        for _ in 0..5 {
            std::thread::sleep(std::time::Duration::from_millis(20));
            b.wait();
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn parked_waiter_burns_no_cpu() {
        // A waiter that outlives its spin/yield budget must sleep on the
        // condvar, not churn `yield_now`. Measure the waiter's thread
        // CPU time across a 150 ms straggler window.
        fn thread_cpu_ns() -> u64 {
            let mut ts = std::mem::MaybeUninit::<libc_timespec>::uninit();
            #[repr(C)]
            #[allow(non_camel_case_types)]
            struct libc_timespec {
                tv_sec: i64,
                tv_nsec: i64,
            }
            extern "C" {
                fn clock_gettime(clk_id: i32, tp: *mut libc_timespec) -> i32;
            }
            const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
            let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, ts.as_mut_ptr()) };
            assert_eq!(rc, 0);
            let ts = unsafe { ts.assume_init() };
            ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
        }
        let b = Arc::new(SenseBarrier::new(2));
        let b2 = Arc::clone(&b);
        let waiter = std::thread::spawn(move || {
            let before = thread_cpu_ns();
            b2.wait();
            thread_cpu_ns() - before
        });
        std::thread::sleep(std::time::Duration::from_millis(150));
        b.wait();
        let spent = waiter.join().unwrap();
        // Spinning/yielding for 150 ms would burn roughly that much CPU;
        // a parked thread costs microseconds. Generous slack for the
        // bounded spin phase and scheduler noise.
        assert!(
            spent < 50_000_000,
            "parked waiter burned {spent} ns of CPU while waiting"
        );
    }

    #[test]
    #[should_panic]
    fn zero_parties_panics() {
        let _ = SenseBarrier::new(0);
    }

    #[test]
    fn spin_budget_full_below_subscription() {
        // At or below full subscription the default budgets apply.
        assert_eq!(spin_budget_for(1, 8), (SPIN_ROUNDS, YIELD_ROUNDS));
        assert_eq!(spin_budget_for(8, 8), (SPIN_ROUNDS, YIELD_ROUNDS));
    }

    #[test]
    fn spin_budget_shrinks_toward_park_when_oversubscribed() {
        // Oversubscribed: no spinning at all, and the yield phase
        // shrinks with the oversubscription ratio (never to zero — a
        // single yield gives the straggler one scheduling chance before
        // the waiter takes the park path).
        let (spin2, yield2) = spin_budget_for(16, 8);
        assert_eq!(spin2, 0);
        assert!(yield2 <= YIELD_ROUNDS.div_ceil(2) && yield2 >= 1);
        let (spin_huge, yield_huge) = spin_budget_for(10_000, 8);
        assert_eq!(spin_huge, 0);
        assert_eq!(yield_huge, 1);
        // Degenerate core counts clamp to one core (no division by
        // zero): 4 workers on "no" cores is 4× oversubscription. Rounding
        // up mirrors the budget floor — under the model feature's
        // collapsed YIELD_ROUNDS the plain quotient would be 0.
        assert_eq!(spin_budget_for(4, 0), (0, YIELD_ROUNDS.div_ceil(4)));
    }

    #[test]
    fn oversubscribed_budget_barrier_still_correct() {
        // A barrier that parks almost immediately must keep the exact
        // same protocol guarantees.
        let n = 4;
        let b = Arc::new(SenseBarrier::scoped_for_load(
            n,
            BarrierScope::Team,
            10_000, // wildly oversubscribed → (0, 1) budget
        ));
        let serials = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..n {
            let b = Arc::clone(&b);
            let serials = Arc::clone(&serials);
            handles.push(std::thread::spawn(move || {
                for _ in 0..100 {
                    if b.wait() {
                        serials.fetch_add(1, Ordering::SeqCst);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(serials.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn traced_wait_phases_sum_exactly_and_park_dominates() {
        // One straggler forces the waiter through spin -> yield -> park;
        // the recorded span must split the wait into phases that sum to
        // the duration *exactly*, with park dominating a 40 ms wait.
        // Events are tagged island 77 so concurrent tests in this
        // binary (whose barriers also record while the session is
        // live) cannot pollute the assertions.
        let session = islands_trace::Session::start();
        let b = Arc::new(SenseBarrier::scoped(2, BarrierScope::Global));
        assert_eq!(b.scope(), BarrierScope::Global);
        let b2 = Arc::clone(&b);
        let waiter = std::thread::spawn(move || {
            islands_trace::set_island_rank(77, 0);
            b2.wait()
        });
        std::thread::sleep(std::time::Duration::from_millis(40));
        islands_trace::set_island_rank(77, 1);
        let serial = b.wait();
        let waiter_serial = waiter.join().unwrap();
        let drained = session.finish();
        assert!(serial ^ waiter_serial, "exactly one serial participant");
        let events: Vec<_> = drained
            .events
            .iter()
            .filter(|t| t.ev.island == 77)
            .collect();
        assert_eq!(events.len(), 2, "one span per participant");
        for t in &events {
            assert_eq!(t.ev.kind, islands_trace::SpanKind::GlobalBarrier);
            assert_eq!(
                t.ev.aux.iter().sum::<u64>(),
                t.ev.dur_ns,
                "spin+yield+park must sum to the wait"
            );
        }
        // The serial (last) arrival records a zero-length marker.
        assert!(events.iter().any(|t| t.ev.dur_ns == 0));
        // The early arrival waited ~40 ms, overwhelmingly parked.
        let w = events
            .iter()
            .find(|t| t.ev.dur_ns > 0)
            .expect("waiter span");
        assert!(w.ev.dur_ns >= 20_000_000, "waited {} ns", w.ev.dur_ns);
        assert!(
            w.ev.aux[2] > w.ev.aux[0] + w.ev.aux[1],
            "park {} must dominate spin {} + yield {}",
            w.ev.aux[2],
            w.ev.aux[0],
            w.ev.aux[1]
        );
    }
}
