//! Dynamic self-scheduling: an atomic chunk queue for load-imbalanced
//! sweeps.
//!
//! The paper's scheduler distributes work statically (equal slices per
//! core), which is optimal for MPDATA's homogeneous stages. For
//! imbalanced workloads — variant B's thin parts, boundary-heavy stages
//! — a team can instead *self-schedule*: ranks repeatedly claim the next
//! chunk index from an atomic counter until the range is drained.

use crate::sync::{ord, AtomicUsize};
use std::sync::atomic::Ordering;

/// An atomic work queue over the chunk indices `0..chunks`.
///
/// # Examples
///
/// ```
/// use work_scheduler::{ChunkQueue, WorkerPool};
/// use std::sync::atomic::{AtomicUsize, Ordering};
///
/// let pool = WorkerPool::new(4);
/// let queue = ChunkQueue::new(100);
/// let done = AtomicUsize::new(0);
/// pool.broadcast(|_| {
///     while let Some(_chunk) = queue.claim() {
///         done.fetch_add(1, Ordering::Relaxed);
///     }
/// });
/// assert_eq!(done.load(Ordering::Relaxed), 100);
/// ```
#[derive(Debug)]
pub struct ChunkQueue {
    next: AtomicUsize,
    chunks: usize,
}

impl ChunkQueue {
    /// Creates a queue over `0..chunks`.
    pub fn new(chunks: usize) -> Self {
        ChunkQueue {
            next: AtomicUsize::with_label(0, "chunkq.next"),
            chunks,
        }
    }

    /// Claims the next chunk index, or `None` when drained.
    ///
    /// Saturating: once the queue is drained, further claims observe
    /// the drained state without bumping the counter, so the counter
    /// overshoots `chunks` by at most the number of concurrent
    /// claimants — repeated polling of a drained queue (the idle ranks
    /// of a self-scheduled epoch) can never wrap it.
    pub fn claim(&self) -> Option<usize> {
        // ordering: Relaxed — the saturation gate is a heuristic
        // (claims race past it by design, bounded by the claimant
        // count); correctness comes from the RMW below.
        if self
            .next
            .load(ord("chunkq.fastpath-load", Ordering::Relaxed))
            >= self.chunks
        {
            return None;
        }
        // ordering: Relaxed — uniqueness is carried by RMW atomicity
        // alone (two claims can never return the same index); the
        // caller orders chunk *data* via the epoch barriers, never via
        // this counter. Verified minimal by the model suite.
        let n = self
            .next
            .fetch_add(1, ord("chunkq.claim-rmw", Ordering::Relaxed));
        (n < self.chunks).then_some(n)
    }

    /// Chunks not yet claimed.
    ///
    /// # Ordering contract
    ///
    /// All counter traffic is `Relaxed`: claims, resets and this
    /// snapshot order only against the epoch barriers the caller
    /// provides, never against each other. Concretely:
    ///
    /// * **exact** when claimants are quiescent — at a barrier-fenced
    ///   point after a drain (`0`) or after a fenced [`ChunkQueue::reset`]
    ///   (`len()`);
    /// * **a racy snapshot** while claims are in flight: it may lag
    ///   behind claims already granted on other threads;
    /// * **bounded either way**: the claim counter can overshoot
    ///   `len()` (each drained-queue `claim` race bumps it once) and a
    ///   concurrent `reset` can expose that overshoot mid-write, so
    ///   the raw subtraction could briefly "exceed" the queue or wrap;
    ///   the explicit clamp below pins every snapshot into
    ///   `0..=len()`.
    pub fn remaining(&self) -> usize {
        // ordering: Relaxed — racy snapshot by contract (see above);
        // exactness is only promised at barrier-fenced quiescent points,
        // where the barrier provides the edge.
        let claimed = self
            .next
            .load(ord("chunkq.remaining-load", Ordering::Relaxed))
            .min(self.chunks);
        self.chunks - claimed
    }

    /// Total chunks.
    pub fn len(&self) -> usize {
        self.chunks
    }

    /// Whether the queue covers no chunks at all.
    pub fn is_empty(&self) -> bool {
        self.chunks == 0
    }

    /// Resets the queue for reuse (callers must ensure no concurrent
    /// claims, e.g. by a barrier).
    pub fn reset(&self) {
        // ordering: Relaxed — the caller's barrier orders the reset
        // against surrounding claims (quiescence is a documented
        // precondition); the model suite checks the barrier-fenced
        // claim/reset/claim episode end to end at this ordering.
        self.next
            .store(0, ord("chunkq.reset-store", Ordering::Relaxed));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::WorkerPool;
    use std::sync::Mutex;

    #[test]
    fn every_chunk_claimed_exactly_once() {
        let pool = WorkerPool::new(8);
        let queue = ChunkQueue::new(1000);
        let claimed = Mutex::new(vec![0u8; 1000]);
        pool.broadcast(|_| {
            while let Some(c) = queue.claim() {
                claimed.lock().unwrap()[c] += 1;
            }
        });
        assert!(claimed.lock().unwrap().iter().all(|&c| c == 1));
    }

    #[test]
    fn imbalanced_work_is_stolen_by_idle_ranks() {
        // One chunk is 100× heavier; dynamic scheduling keeps the
        // completion spread far below the heavy chunk count.
        let pool = WorkerPool::new(4);
        let queue = ChunkQueue::new(64);
        let per_worker = Mutex::new(vec![0usize; 4]);
        pool.broadcast(|ctx| {
            while let Some(c) = queue.claim() {
                // Emulate imbalance: chunk 0 is slow.
                let spins = if c == 0 { 200_000 } else { 2_000 };
                let mut acc = 0u64;
                for n in 0..spins {
                    acc = acc.wrapping_add(n);
                }
                std::hint::black_box(acc);
                per_worker.lock().unwrap()[ctx.worker] += 1;
            }
        });
        let v = per_worker.lock().unwrap().clone();
        assert_eq!(v.iter().sum::<usize>(), 64);
        // The worker stuck on chunk 0 must have claimed fewer chunks
        // than the sum of the others (work moved, not waited).
        let min = v.iter().min().unwrap();
        let rest: usize = v.iter().sum::<usize>() - min;
        assert!(rest > 3 * min, "no stealing happened: {v:?}");
    }

    #[test]
    fn reset_allows_reuse() {
        let q = ChunkQueue::new(3);
        assert_eq!(q.claim(), Some(0));
        q.reset();
        assert_eq!(q.claim(), Some(0));
        assert_eq!(q.claim(), Some(1));
        assert_eq!(q.claim(), Some(2));
        assert_eq!(q.claim(), None);
        assert_eq!(q.claim(), None, "drained queue stays drained");
    }

    #[test]
    fn empty_queue() {
        let q = ChunkQueue::new(0);
        assert!(q.is_empty());
        assert_eq!(q.claim(), None);
    }

    #[test]
    fn drained_counter_saturates() {
        // Polling a drained queue must not keep bumping the counter:
        // repeated idle-rank claims over many epochs would otherwise
        // creep the counter toward wraparound.
        let q = ChunkQueue::new(2);
        assert_eq!(q.claim(), Some(0));
        assert_eq!(q.claim(), Some(1));
        for _ in 0..1000 {
            assert_eq!(q.claim(), None);
        }
        assert_eq!(q.next.load(Ordering::Relaxed), 2, "counter kept growing");
        assert_eq!(q.remaining(), 0);
        q.reset();
        assert_eq!(q.remaining(), 2);
        assert_eq!(q.claim(), Some(0));
    }

    #[test]
    fn concurrent_reuse_across_epochs_is_exact() {
        // The plan replay resets every epoch queue between barriers and
        // drains it again; each epoch must see every chunk exactly once
        // with no reallocation in between.
        let pool = WorkerPool::new(4);
        let queue = ChunkQueue::new(37);
        for epoch in 0..50 {
            let claimed = Mutex::new(vec![0u8; 37]);
            pool.broadcast(|_| {
                while let Some(c) = queue.claim() {
                    claimed.lock().unwrap()[c] += 1;
                }
            });
            let counts = claimed.lock().unwrap();
            assert!(counts.iter().all(|&c| c == 1), "epoch {epoch}: {counts:?}");
            assert_eq!(queue.remaining(), 0);
            queue.reset();
        }
    }

    #[test]
    fn remaining_is_always_in_bounds_under_reset_claim_races() {
        // Loom-style stress: three claimant workers hammer `claim`
        // (overshooting the counter past `chunks` on every drained
        // poll) while a fourth interleaves `reset` — and an observer
        // samples `remaining` the whole time. Every sample must stay
        // within 0..=len() even though the counter itself transiently
        // exceeds `chunks` mid-reset.
        use std::sync::atomic::AtomicBool;
        let pool = WorkerPool::new(4);
        let queue = ChunkQueue::new(16);
        let stop = AtomicBool::new(false);
        let violations = Mutex::new(Vec::new());
        pool.broadcast(|ctx| match ctx.worker {
            // Claimants: drain and poll the drained queue (overshoot).
            0 | 1 => {
                while !stop.load(Ordering::Relaxed) {
                    let _ = queue.claim();
                }
            }
            // Resetter: rewind mid-flight, repeatedly.
            2 => {
                for _ in 0..20_000 {
                    queue.reset();
                }
                stop.store(true, Ordering::Relaxed);
            }
            // Observer: every snapshot must be in bounds.
            _ => {
                while !stop.load(Ordering::Relaxed) {
                    let r = queue.remaining();
                    if r > queue.len() {
                        violations.lock().unwrap().push(r);
                    }
                }
            }
        });
        let v = violations.lock().unwrap();
        assert!(v.is_empty(), "remaining() exceeded len(): {v:?}");
        // Quiescent exactness: fenced reset → len(), drain → 0.
        queue.reset();
        assert_eq!(queue.remaining(), 16);
        while queue.claim().is_some() {}
        assert_eq!(queue.remaining(), 0);
    }

    #[test]
    fn panic_in_claimant_propagates_through_broadcast() {
        // A kernel panic inside a self-scheduled chunk must surface
        // from `WorkerPool::broadcast`, not hang the team — and the
        // pool must stay usable for the next dispatch.
        let pool = WorkerPool::new(4);
        let queue = ChunkQueue::new(64);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.broadcast(|_| {
                while let Some(c) = queue.claim() {
                    assert!(c != 13, "chunk 13 is poisoned");
                }
            });
        }));
        assert!(result.is_err(), "claimant panic was swallowed");
        queue.reset();
        let drained = std::sync::atomic::AtomicUsize::new(0);
        pool.broadcast(|_| {
            while let Some(_c) = queue.claim() {
                drained.fetch_add(1, Ordering::Relaxed);
            }
        });
        assert_eq!(
            drained.load(Ordering::Relaxed),
            64,
            "pool unusable after panic"
        );
    }
}
