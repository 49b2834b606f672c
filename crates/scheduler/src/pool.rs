//! A persistent pool of workers with scoped broadcasts.
//!
//! The paper replaces OpenMP's worksharing with a proprietary scheduler
//! that only uses OpenMP to create threads and pin them; all work
//! distribution is explicit. [`WorkerPool`] plays that role here: it
//! spawns long-lived worker threads (ordinary, unpinned host threads)
//! and executes *broadcasts* — a closure run once on every worker, with
//! the pool guaranteeing completion before the call returns, so the
//! closure may borrow from the caller's stack.
//!
//! # Completion latch protocol
//!
//! Each broadcast allocates one [`Latch`]: a `Mutex<LatchState>` holding
//! the count of outstanding workers (plus the first panic payload, if
//! any) and a `Condvar` the caller blocks on. The protocol has three
//! rules, in this order of importance:
//!
//! 1. **Every dispatched task arrives exactly once.** Arrival is
//!    performed by the destructor of an [`ArriveOnDrop`] guard created
//!    *before* the user closure runs, so the latch is decremented even
//!    if the closure's panic escapes `catch_unwind` (e.g. a panic
//!    raised while the payload itself is being handled) — the unwind
//!    still runs the guard's destructor on its way out.
//! 2. **The caller consumes no CPU while workers run.** It waits on the
//!    `Condvar` under the latch mutex; the last worker to arrive
//!    notifies it. There is no spin or yield loop anywhere in the path.
//! 3. **Poisoning is ignored on purpose.** A panicking worker poisons
//!    the latch mutex between its lock and unlock only if the panic
//!    happens *inside* `arrive`, which performs no user code; both
//!    sides therefore treat a poisoned lock as still-valid state
//!    (`PoisonError::into_inner`) so one propagated panic cannot brick
//!    subsequent broadcasts.

use crate::sync::{Condvar, Mutex};
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Context handed to a broadcast closure on each worker.
#[derive(Clone, Copy, Debug)]
pub struct WorkerCtx {
    /// Dense worker index in `0..pool.len()`.
    pub worker: usize,
}

type Task = Box<dyn FnOnce() + Send + 'static>;
type PanicPayload = Box<dyn Any + Send>;

/// Countdown latch a broadcast caller blocks on (see the module docs
/// for the full protocol). `pub(crate)` so the model-checking suite
/// can drive the exact production protocol through the shims.
#[derive(Debug)]
pub(crate) struct Latch {
    state: Mutex<LatchState>,
    all_done: Condvar,
}

#[derive(Debug)]
struct LatchState {
    remaining: usize,
    panic: Option<PanicPayload>,
}

impl Latch {
    pub(crate) fn new(parties: usize) -> Self {
        Latch {
            state: Mutex::with_label(
                LatchState {
                    remaining: parties,
                    panic: None,
                },
                "latch.state",
            ),
            all_done: Condvar::with_label("latch.all-done"),
        }
    }

    /// Records one task as finished (stashing the first panic payload)
    /// and wakes the caller when it was the last.
    pub(crate) fn arrive(&self, payload: Option<PanicPayload>) {
        let mut st = self
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        st.remaining -= 1;
        if st.panic.is_none() {
            st.panic = payload;
        }
        if st.remaining == 0 {
            self.all_done.notify_all();
        }
    }

    /// Blocks (on the condvar — no CPU burned) until every party has
    /// arrived; returns the first panic payload, if any was stashed.
    pub(crate) fn wait(&self) -> Option<PanicPayload> {
        let mut st = self
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        while st.remaining != 0 {
            st = self
                .all_done
                .wait(st)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        st.panic.take()
    }
}

/// Arrival guard: decrements the latch in its destructor so a task
/// arrives exactly once on every exit path — normal return, caught
/// panic, or an unwind that bypasses the task's own `catch_unwind`.
struct ArriveOnDrop {
    latch: Arc<Latch>,
    payload: Option<PanicPayload>,
}

impl Drop for ArriveOnDrop {
    fn drop(&mut self) {
        self.latch.arrive(self.payload.take());
    }
}

/// A fixed-size pool of persistent worker threads.
///
/// # Examples
///
/// ```
/// use work_scheduler::WorkerPool;
/// use std::sync::atomic::{AtomicUsize, Ordering};
/// let pool = WorkerPool::new(4);
/// let hits = AtomicUsize::new(0);
/// pool.broadcast(|ctx| {
///     hits.fetch_add(ctx.worker + 1, Ordering::SeqCst);
/// });
/// assert_eq!(hits.load(Ordering::SeqCst), 1 + 2 + 3 + 4);
/// ```
#[derive(Debug)]
pub struct WorkerPool {
    senders: Vec<Sender<Task>>,
    handles: Vec<JoinHandle<()>>,
    /// Live telemetry collector, if attached (see
    /// [`WorkerPool::attach_telemetry`]). Stopped before the workers
    /// are joined so its final pass folds every span they recorded.
    #[cfg(not(feature = "model"))]
    telemetry: Option<islands_trace::collector::Collector>,
}

impl WorkerPool {
    /// Spawns `workers` threads.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    pub fn new(workers: usize) -> Self {
        assert!(workers > 0, "a pool needs at least one worker");
        let mut senders = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for worker in 0..workers {
            let (tx, rx) = channel::<Task>();
            senders.push(tx);
            let handle = std::thread::Builder::new()
                .name(format!("worker-{worker}"))
                .spawn(move || {
                    while let Ok(task) = rx.recv() {
                        // The worker must outlive any single task: a
                        // panic that escapes the task (its own
                        // catch_unwind was bypassed) is swallowed here —
                        // the task's arrival guard has already delivered
                        // the payload to the caller.
                        let _ = catch_unwind(AssertUnwindSafe(task));
                    }
                })
                .expect("failed to spawn pool worker");
            handles.push(handle);
        }
        WorkerPool {
            senders,
            handles,
            #[cfg(not(feature = "model"))]
            telemetry: None,
        }
    }

    /// Attaches a live telemetry collector: a background thread that
    /// drains every trace ring (through the concurrent seqlock
    /// protocol) into `registry` once per `interval`, while the pool's
    /// workers keep recording. Replaces any previously attached
    /// collector (stopping it first). The collector lives until
    /// [`WorkerPool::detach_telemetry`] or the pool is dropped,
    /// whichever comes first; either way its final pass runs before
    /// the workers are joined, so no span is left unfolded.
    #[cfg(not(feature = "model"))]
    pub fn attach_telemetry(
        &mut self,
        registry: std::sync::Arc<islands_trace::registry::MetricsRegistry>,
        interval: std::time::Duration,
    ) {
        self.detach_telemetry();
        self.telemetry = Some(islands_trace::collector::Collector::start(
            registry, interval,
        ));
    }

    /// Stops and joins the attached collector (running its final
    /// drain pass). No-op when none is attached.
    #[cfg(not(feature = "model"))]
    pub fn detach_telemetry(&mut self) {
        if let Some(mut collector) = self.telemetry.take() {
            collector.stop();
        }
    }

    /// Number of workers.
    pub fn len(&self) -> usize {
        self.senders.len()
    }

    /// Whether the pool has no workers (never true once constructed).
    pub fn is_empty(&self) -> bool {
        self.senders.is_empty()
    }

    /// Runs `f` once on every worker and returns when all have finished.
    ///
    /// `f` may borrow from the caller because the call blocks until every
    /// worker is done with it. The caller sleeps on a condition variable
    /// while workers run; it consumes no CPU.
    ///
    /// # Panics
    ///
    /// If any worker's invocation panics, the first panic payload is
    /// re-raised on the caller after all workers have finished the
    /// broadcast; the pool remains usable afterwards.
    pub fn broadcast<F>(&self, f: F)
    where
        F: Fn(WorkerCtx) + Sync,
    {
        // Span over the whole dispatch, recorded on the caller thread
        // (island NO_ISLAND unless the caller tagged itself).
        let t0 = islands_trace::now();
        let latch = Arc::new(Latch::new(self.len()));
        let f_ref: &(dyn Fn(WorkerCtx) + Sync) = &f;
        // SAFETY: the tasks sent below are joined before this function
        // returns — `latch.wait()` blocks until every dispatched task's
        // arrival guard has run, and tasks that could not be dispatched
        // arrive synchronously right here — so the erased borrow of `f`
        // never outlives the call. This is the classic scoped-pool
        // pattern with a latch in place of thread joins.
        let f_static: &'static (dyn Fn(WorkerCtx) + Sync) = unsafe { std::mem::transmute(f_ref) };
        let mut dead_worker = false;
        for worker in 0..self.len() {
            if dead_worker {
                // A previous send failed; account for this never-sent
                // task so `wait` below still terminates.
                latch.arrive(None);
                continue;
            }
            let latch_task = Arc::clone(&latch);
            let ctx = WorkerCtx { worker };
            let task: Task = Box::new(move || {
                let mut guard = ArriveOnDrop {
                    latch: latch_task,
                    payload: None,
                };
                if let Err(payload) = catch_unwind(AssertUnwindSafe(|| f_static(ctx))) {
                    guard.payload = Some(payload);
                }
                // `guard` drops here (or during an unwind that bypassed
                // the catch above), performing the arrival.
            });
            if self.senders[worker].send(task).is_err() {
                // The worker thread is gone (it can only have exited via
                // a channel disconnect race during shutdown). The unsent
                // task was dropped without running; arrive on its
                // behalf, then keep draining the latch before failing so
                // tasks already dispatched release their borrow of `f`.
                latch.arrive(None);
                dead_worker = true;
            }
        }
        let payload = latch.wait();
        if let Some(t0) = t0 {
            islands_trace::record(
                islands_trace::SpanKind::Dispatch,
                t0,
                islands_trace::now_ns(),
                0,
                0,
                [self.len() as u64, 0, 0],
            );
        }
        assert!(!dead_worker, "pool worker exited prematurely");
        if let Some(payload) = payload {
            std::panic::resume_unwind(payload);
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Stop the collector first: its final pass folds the spans the
        // workers recorded before any of them is joined away.
        #[cfg(not(feature = "model"))]
        self.detach_telemetry();
        // Closing the channels terminates the worker loops.
        self.senders.clear();
        for h in self.handles.drain(..) {
            // Worker loops swallow task panics, so joins only fail if a
            // thread was killed externally; ignore the error to keep
            // Drop infallible.
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn broadcast_runs_on_every_worker_once() {
        let pool = WorkerPool::new(6);
        let mask = AtomicUsize::new(0);
        pool.broadcast(|ctx| {
            mask.fetch_or(1 << ctx.worker, Ordering::SeqCst);
        });
        assert_eq!(mask.load(Ordering::SeqCst), 0b111111);
    }

    #[test]
    fn broadcast_may_borrow_stack_data() {
        let pool = WorkerPool::new(3);
        let data = [1_usize, 2, 3];
        let sum = AtomicUsize::new(0);
        pool.broadcast(|ctx| {
            sum.fetch_add(data[ctx.worker], Ordering::SeqCst);
        });
        assert_eq!(sum.load(Ordering::SeqCst), 6);
    }

    #[test]
    fn broadcasts_are_sequentially_consistent() {
        let pool = WorkerPool::new(4);
        let mut total = 0_usize;
        for round in 0..50 {
            let c = AtomicUsize::new(0);
            pool.broadcast(|_| {
                c.fetch_add(1, Ordering::SeqCst);
            });
            assert_eq!(c.load(Ordering::SeqCst), 4, "round {round}");
            total += c.load(Ordering::SeqCst);
        }
        assert_eq!(total, 200);
    }

    #[test]
    fn panic_in_worker_propagates() {
        let pool = WorkerPool::new(2);
        let r = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.broadcast(|ctx| {
                if ctx.worker == 1 {
                    panic!("boom");
                }
            });
        }));
        assert!(r.is_err());
        // The pool must remain usable after a propagated panic.
        let c = AtomicUsize::new(0);
        pool.broadcast(|_| {
            c.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(c.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn panic_on_every_worker_propagates_one_payload() {
        // All workers panic in the same broadcast: exactly one payload
        // reaches the caller, and the latch still completes (no hang,
        // no double-arrival).
        let pool = WorkerPool::new(4);
        for round in 0..10 {
            let r = std::panic::catch_unwind(AssertUnwindSafe(|| {
                pool.broadcast(|ctx| panic!("round {round} worker {}", ctx.worker));
            }));
            let payload = r.expect_err("broadcast must propagate");
            let msg = payload
                .downcast_ref::<String>()
                .expect("panic carries its message");
            assert!(msg.starts_with(&format!("round {round} ")), "{msg}");
        }
        let c = AtomicUsize::new(0);
        pool.broadcast(|_| {
            c.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(c.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn panic_in_team_run_propagates_and_pool_survives() {
        use crate::team::TeamSpec;
        let pool = WorkerPool::new(4);
        let spec = TeamSpec::even(4, 2);
        // Every rank panics before its first barrier, so no rank is left
        // waiting on a peer that already unwound.
        let r = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run_teams(&spec, |ctx| {
                panic!("team {} rank {} failed", ctx.team, ctx.rank);
            });
        }));
        assert!(r.is_err());
        // Nested recovery: a full team run (with barriers) must work on
        // the same pool right after the propagated panic.
        let t = AtomicUsize::new(0);
        pool.run_teams(&spec, |ctx| {
            ctx.team_barrier();
            t.fetch_add(1, Ordering::SeqCst);
            ctx.team_barrier();
        });
        assert_eq!(t.load(Ordering::SeqCst), 4);
        // And a plain broadcast after the team recovery.
        let c = AtomicUsize::new(0);
        pool.broadcast(|_| {
            c.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(c.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn alternating_panicking_and_clean_broadcasts() {
        // Interleave failing and healthy broadcasts to check the latch
        // never carries state across calls.
        let pool = WorkerPool::new(3);
        for round in 0..8 {
            if round % 2 == 0 {
                let r = std::panic::catch_unwind(AssertUnwindSafe(|| {
                    pool.broadcast(|ctx| {
                        if ctx.worker == round % 3 {
                            panic!("scheduled failure");
                        }
                    });
                }));
                assert!(r.is_err(), "round {round}");
            } else {
                let c = AtomicUsize::new(0);
                pool.broadcast(|_| {
                    c.fetch_add(1, Ordering::SeqCst);
                });
                assert_eq!(c.load(Ordering::SeqCst), 3, "round {round}");
            }
        }
    }

    #[test]
    fn pool_churn_is_clean() {
        // Creating and dropping many pools must neither leak threads
        // visibly (joins in Drop) nor deadlock.
        for n in 1..=16 {
            let pool = WorkerPool::new(1 + n % 4);
            let c = AtomicUsize::new(0);
            pool.broadcast(|_| {
                c.fetch_add(1, Ordering::SeqCst);
            });
            assert_eq!(c.load(Ordering::SeqCst), pool.len());
            drop(pool);
        }
    }

    #[test]
    fn interleaved_broadcasts_and_team_runs() {
        use crate::team::TeamSpec;
        let pool = WorkerPool::new(6);
        for round in 0..20 {
            let c = AtomicUsize::new(0);
            pool.broadcast(|_| {
                c.fetch_add(1, Ordering::SeqCst);
            });
            assert_eq!(c.load(Ordering::SeqCst), 6, "round {round}");
            let spec = TeamSpec::even(6, if round % 2 == 0 { 2 } else { 3 });
            let t = AtomicUsize::new(0);
            pool.run_teams(&spec, |ctx| {
                ctx.team_barrier();
                t.fetch_add(1, Ordering::SeqCst);
                ctx.team_barrier();
            });
            assert_eq!(t.load(Ordering::SeqCst), 6, "round {round}");
        }
    }

    #[test]
    #[cfg(not(feature = "model"))]
    fn attached_collector_folds_live_spans() {
        use islands_trace::registry::MetricsRegistry;
        use std::sync::Arc;
        use std::time::Duration;

        let mut pool = WorkerPool::new(3);
        let registry = Arc::new(MetricsRegistry::new(4));
        pool.attach_telemetry(Arc::clone(&registry), Duration::from_millis(1));
        // Detach-before-attach and re-attach must both be clean.
        pool.attach_telemetry(Arc::clone(&registry), Duration::from_millis(1));

        let session = islands_trace::Session::start();
        pool.broadcast(|_| {
            islands_trace::set_island_rank(1, 0);
            islands_trace::set_step(5);
            let t0 = islands_trace::now().expect("session enabled");
            islands_trace::record(
                islands_trace::SpanKind::Kernel,
                t0,
                t0 + 1000,
                2,
                0,
                [64, 8, 0],
            );
        });
        // Detach runs the collector's final pass, so everything the
        // broadcast recorded (plus the caller's dispatch span) is
        // folded without any interval-timing assumptions.
        pool.detach_telemetry();
        let snap = registry.snapshot();
        assert!(snap.dispatch_ns > 0, "dispatch span not folded: {snap:?}");
        assert_eq!(snap.current_step, 5);
        let island = snap
            .islands
            .iter()
            .find(|i| i.island == 1)
            .expect("island 1 folded");
        assert_eq!(island.kernel_ns, 3 * 1000);
        assert_eq!(island.computed_cells, 3 * 64);
        assert_eq!(snap.dropped_events, 0);
        assert_eq!(snap.unpublished, 0);
        // The quiescent drain is undisturbed by the live collector: it
        // re-reads the full window through its own cursor.
        let drained = session.finish();
        assert_eq!(
            drained
                .events
                .iter()
                .filter(|t| t.ev.kind == islands_trace::SpanKind::Kernel)
                .count(),
            3
        );
        // Detach is idempotent; Drop with no collector attached is too.
        pool.detach_telemetry();
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn caller_blocks_without_burning_cpu() {
        // While workers sleep inside the closure, the calling thread
        // must be parked on the latch condvar, not spinning. Measure the
        // caller's thread CPU time across a broadcast that sleeps.
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
        let pool = WorkerPool::new(2);
        let before = thread_cpu_ns();
        pool.broadcast(|_| {
            std::thread::sleep(std::time::Duration::from_millis(150));
        });
        let spent = thread_cpu_ns() - before;
        // A spin loop would burn ~150 ms of CPU here; condvar parking
        // costs microseconds. Allow generous slack for dispatch cost.
        assert!(
            spent < 50_000_000,
            "caller burned {spent} ns of CPU during a sleeping broadcast"
        );
    }
}
