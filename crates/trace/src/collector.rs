//! The background telemetry collector: periodically drains every
//! registered trace ring through the concurrent seqlock protocol and
//! folds the spans into a [`MetricsRegistry`] — while the run is hot.
//!
//! The collector owns a private cursor per ring (the `next` value each
//! [`crate::CollectStats`] returns), so it consumes each span at most
//! once and never disturbs the final quiescent drain, which reads the
//! full ring window independently. A [`crate::clear`] (new session)
//! bumps the ring generation; the collector detects that under the
//! ring-registry lock and resets its cursors.
//!
//! The pass loop is **allocation-free in steady state**: the ring and
//! cursor mirrors grow only when a new ring registers (once per worker
//! thread, during warm-up), spans fold straight into preallocated
//! registry counters/histograms, and the per-step wall-time tracker is
//! a fixed array. This is what lets the release zero-allocation pin
//! run with the collector live.

use crate::metrics::bounds_step;
use crate::registry::MetricsRegistry;
use crate::{Event, Ring, GENERATION, REGISTRY};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// In-flight steps tracked before their wall time is closed into the
/// step histogram. 16 comfortably covers fused epochs (k steps in
/// flight) plus collector lag.
const STEP_TRACK: usize = 16;

/// Fixed-size tracker turning per-span (step, start, end) sightings
/// into per-step wall durations, by the same rule as
/// `RunMetrics::aggregate` (`bounds_step`). A step's duration is
/// closed — handed to `close(step, wall_ns)` — when the tracker evicts
/// it for a newer step, or at collector shutdown.
struct StepTracker {
    /// `(step + 1, lo_ns, hi_ns)`; key 0 = empty slot.
    slots: [(u64, u64, u64); STEP_TRACK],
}

impl StepTracker {
    fn new() -> StepTracker {
        StepTracker {
            slots: [(0, 0, 0); STEP_TRACK],
        }
    }

    fn note(&mut self, ev: &Event, mut close: impl FnMut(u32, u64)) {
        if !bounds_step(ev.kind) {
            return;
        }
        let (key, start_ns, end_ns) = (u64::from(ev.step) + 1, ev.start_ns, ev.end_ns());
        if let Some(slot) = self.slots.iter_mut().find(|s| s.0 == key) {
            slot.1 = slot.1.min(start_ns);
            slot.2 = slot.2.max(end_ns);
            return;
        }
        if let Some(slot) = self.slots.iter_mut().find(|s| s.0 == 0) {
            *slot = (key, start_ns, end_ns);
            return;
        }
        // Evict the oldest step: its wall time is as closed as it gets.
        let oldest = self
            .slots
            .iter_mut()
            .min_by_key(|s| s.0)
            .expect("tracker has slots");
        close((oldest.0 - 1) as u32, oldest.2.saturating_sub(oldest.1));
        *oldest = (key, start_ns, end_ns);
    }

    fn flush(&mut self, mut close: impl FnMut(u32, u64)) {
        for slot in self.slots.iter_mut().filter(|s| s.0 != 0) {
            close((slot.0 - 1) as u32, slot.2.saturating_sub(slot.1));
            *slot = (0, 0, 0);
        }
    }
}

struct CollectorState {
    generation: u64,
    rings: Vec<Arc<Ring>>,
    cursors: Vec<u64>,
    steps: StepTracker,
}

impl CollectorState {
    fn new() -> CollectorState {
        CollectorState {
            generation: 0,
            rings: Vec::new(),
            cursors: Vec::new(),
            steps: StepTracker::new(),
        }
    }

    /// One collect pass over every registered ring.
    fn pass(&mut self, reg: &MetricsRegistry) {
        {
            let registry = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
            // ordering: Relaxed — read under the ring-registry lock,
            // which `clear` also holds while bumping; the lock is the
            // synchronization edge, the load just carries the value.
            let generation = GENERATION.load(Ordering::Relaxed);
            if generation != self.generation {
                self.generation = generation;
                self.rings.clear();
                self.cursors.clear();
            }
            // Mirror newly registered rings (the registry only grows
            // within a generation). This is the only allocation the
            // pass loop can perform, and only when a new worker thread
            // appears.
            for ring in registry.iter().skip(self.rings.len()) {
                self.rings.push(Arc::clone(ring));
                self.cursors.push(0);
            }
        }
        // The live step gauge: replays tag a step (`set_step`) before
        // recording its first span, so this leads the event-derived
        // gauge by up to one collect interval.
        reg.note_step(crate::live_step().min(u64::from(u32::MAX)) as u32);
        let steps = &mut self.steps;
        for (ring, cursor) in self.rings.iter().zip(self.cursors.iter_mut()) {
            let stats = ring.collect(*cursor, &mut |t| {
                reg.absorb(&t);
                steps.note(&t.ev, |_, wall| reg.step_ns.record(wall));
            });
            *cursor = stats.next;
            reg.add_dropped(stats.overwritten);
            reg.add_unpublished(stats.unpublished);
        }
    }
}

/// Handle to the background collector thread. Stopping (explicitly or
/// on drop) performs one final pass and flushes the step tracker, so
/// every span recorded before the stop is folded.
#[derive(Debug)]
pub struct Collector {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl Collector {
    /// Spawns the collector, draining every ring into `registry` once
    /// per `interval`.
    pub fn start(registry: Arc<MetricsRegistry>, interval: Duration) -> Collector {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = thread::Builder::new()
            .name("islands-telemetry".into())
            .spawn(move || {
                let mut state = CollectorState::new();
                loop {
                    // ordering: Relaxed — advisory shutdown flag; the
                    // final pass below runs after observing it, and
                    // `stop`'s join is the real completion edge.
                    let done = flag.load(Ordering::Relaxed);
                    state.pass(&registry);
                    if done {
                        break;
                    }
                    thread::park_timeout(interval);
                }
                state.steps.flush(|_, wall| registry.step_ns.record(wall));
            })
            .expect("spawn telemetry collector thread");
        Collector {
            stop,
            handle: Some(handle),
        }
    }

    /// Signals the thread, waits for its final pass, and joins it.
    /// Idempotent.
    pub fn stop(&mut self) {
        if let Some(handle) = self.handle.take() {
            // ordering: Relaxed — advisory flag (see the loop); the
            // join below is the synchronization point.
            self.stop.store(true, Ordering::Relaxed);
            handle.thread().unpark();
            let _ = handle.join();
        }
    }
}

impl Drop for Collector {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::RunMetrics;
    use crate::{Drained, SpanKind, TaggedEvent, NO_ISLAND};

    fn span(kind: SpanKind, island: u32, step: u32, start_ns: u64, end_ns: u64) -> Event {
        Event {
            kind,
            start_ns,
            dur_ns: end_ns - start_ns,
            aux: [0; 3],
            island,
            rank: 0,
            step,
            stage: 0,
            block: 0,
        }
    }

    #[test]
    fn step_tracker_closes_evicted_and_flushed_steps() {
        // Twice the tracker's capacity in steps, so the first half close
        // by eviction and the rest at the flush — each with the wall
        // `RunMetrics::aggregate` gives it. Every step has a barrier span
        // outside any island (it bounds the step like any island's span)
        // and two dispatch spans wider than the step, one from a caller
        // tagged into island 1 (neither bounds anything).
        let mut events = Vec::new();
        for step in 0..2 * STEP_TRACK as u32 {
            let t = u64::from(step) * 10_000;
            events.extend([
                span(SpanKind::Dispatch, NO_ISLAND, step, t, t + 5000),
                span(SpanKind::Kernel, 0, step, t + 10, t + 300 + u64::from(step)),
                span(SpanKind::Kernel, 1, step, t + 20, t + 250),
                span(SpanKind::TeamBarrier, NO_ISLAND, step, t + 5, t + 400),
                span(SpanKind::Dispatch, 1, step, t, t + 900),
            ]);
        }
        let mut tracker = StepTracker::new();
        let mut live = Vec::new();
        for ev in &events {
            tracker.note(ev, |s, w| live.push((s, w)));
        }
        assert_eq!(live.len(), STEP_TRACK);
        tracker.flush(|s, w| live.push((s, w)));
        // Flush is idempotent.
        tracker.flush(|s, w| live.push((s, w)));
        live.sort_unstable();
        let drained = Drained {
            events: events
                .iter()
                .map(|&ev| TaggedEvent { thread: 0, ev })
                .collect(),
            dropped: 0,
        };
        let post: Vec<(u32, u64)> = RunMetrics::aggregate(&drained)
            .steps
            .iter()
            .map(|s| (s.step, s.wall_ns))
            .collect();
        assert_eq!(live, post);
        assert_eq!(post.len(), 2 * STEP_TRACK);
        assert_eq!(post[3], (3, 395));
    }
}
