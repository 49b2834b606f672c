//! The live metrics registry: padded atomic counters and gauges the
//! collector folds drained spans into, plus the latency histograms.
//!
//! Everything is preallocated at construction ([`MetricsRegistry::new`]
//! sizes the per-island slot table once); after that, folding a span
//! ([`MetricsRegistry::absorb`]) is a handful of relaxed `fetch_add`s
//! and a histogram record — **no allocation, no locks** — which is what
//! lets the collector run inside the release zero-allocation pin.
//! Scrape-side reads ([`MetricsRegistry::snapshot`]) copy plain values
//! and may allocate; they run on the serving thread, never on the
//! collector or a worker.
//!
//! Counters are monotone (Prometheus `_total` semantics); gauges are
//! last-or-max-wins. A scrape racing the collector sees a legal
//! historical state — per-counter atomicity is all the exposition
//! format promises.

use crate::histogram::{Histogram, HistogramSnapshot};
use crate::{now_ns, SpanKind, TaggedEvent, NO_ISLAND};
use std::sync::atomic::{AtomicU64, Ordering};

/// A cacheline-padded atomic counter/gauge. The padding keeps the
/// collector's hot adds from false-sharing with neighbouring counters
/// a scrape thread is reading.
#[derive(Debug)]
#[repr(align(64))]
pub struct PadCounter(AtomicU64);

impl PadCounter {
    /// Zeroed counter.
    pub const fn new() -> PadCounter {
        PadCounter(AtomicU64::new(0))
    }

    /// Monotone add.
    pub fn add(&self, v: u64) {
        if v > 0 {
            // ordering: Relaxed — advisory statistics: every counter is
            // an independent monotone value with no payload guarded by
            // it; scrapes read a legal historical state.
            self.0.fetch_add(v, Ordering::Relaxed);
        }
    }

    /// Max-wins gauge update (used for `current_step` / worker counts).
    pub fn max(&self, v: u64) {
        // ordering: Relaxed — advisory gauge, same contract as `add`.
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        // ordering: Relaxed — advisory read, same contract as `add`.
        self.0.load(Ordering::Relaxed)
    }
}

impl Default for PadCounter {
    fn default() -> PadCounter {
        PadCounter::new()
    }
}

/// Per-island counter block. One collector thread writes, scrapes
/// read; the block is cacheline-aligned as a unit.
#[derive(Debug, Default)]
#[repr(align(64))]
pub struct IslandSlot {
    /// Kernel (stencil sweep) time.
    pub kernel_ns: PadCounter,
    /// Team-barrier wait time.
    pub team_barrier_ns: PadCounter,
    /// Global-barrier wait time.
    pub global_barrier_ns: PadCounter,
    /// Barrier wait spent busy-spinning (barrier `aux[0]`).
    pub spin_ns: PadCounter,
    /// Barrier wait spent in `yield_now` (barrier `aux[1]`).
    pub yield_ns: PadCounter,
    /// Barrier wait spent parked (barrier `aux[2]`).
    pub park_ns: PadCounter,
    /// Serial swap time.
    pub swap_ns: PadCounter,
    /// Cells computed (kernel `aux[0]`).
    pub computed_cells: PadCounter,
    /// Redundant halo cells recomputed (kernel `aux[1]`).
    pub redundant_cells: PadCounter,
    /// Gauge: highest rank seen + 1.
    pub workers: PadCounter,
    /// Spans folded into this island.
    pub events: PadCounter,
}

/// Plain-value copy of one island's counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct IslandSnapshot {
    /// Island index.
    pub island: u32,
    /// See [`IslandSlot`] for field meanings.
    pub kernel_ns: u64,
    /// Team-barrier wait time.
    pub team_barrier_ns: u64,
    /// Global-barrier wait time.
    pub global_barrier_ns: u64,
    /// Barrier wait spent busy-spinning.
    pub spin_ns: u64,
    /// Barrier wait spent in `yield_now`.
    pub yield_ns: u64,
    /// Barrier wait spent parked.
    pub park_ns: u64,
    /// Serial swap time.
    pub swap_ns: u64,
    /// Cells computed.
    pub computed_cells: u64,
    /// Redundant halo cells recomputed.
    pub redundant_cells: u64,
    /// Gauge: highest rank seen + 1.
    pub workers: u64,
    /// Spans folded into this island.
    pub events: u64,
}

/// The registry: fixed per-island slots plus run-wide counters,
/// gauges and histograms.
#[derive(Debug)]
pub struct MetricsRegistry {
    islands: Box<[IslandSlot]>,
    /// Per-step wall-time distribution (closed by the collector's
    /// step tracker).
    pub step_ns: Histogram,
    /// Individual kernel-span durations.
    pub kernel_span_ns: Histogram,
    /// Individual barrier-span durations (team + global).
    pub barrier_span_ns: Histogram,
    current_step: PadCounter,
    dropped_events: PadCounter,
    unpublished: PadCounter,
    dispatch_ns: PadCounter,
    events_folded: PadCounter,
    start_ns: u64,
}

impl MetricsRegistry {
    /// A registry with `max_islands` preallocated island slots. Spans
    /// tagged with an island index beyond the table fold into the
    /// run-wide counters only (never dropped silently — they still
    /// count in `events_folded`).
    pub fn new(max_islands: usize) -> MetricsRegistry {
        MetricsRegistry {
            islands: (0..max_islands.max(1))
                .map(|_| IslandSlot::default())
                .collect(),
            step_ns: Histogram::new(),
            kernel_span_ns: Histogram::new(),
            barrier_span_ns: Histogram::new(),
            current_step: PadCounter::new(),
            dropped_events: PadCounter::new(),
            unpublished: PadCounter::new(),
            dispatch_ns: PadCounter::new(),
            events_folded: PadCounter::new(),
            start_ns: now_ns(),
        }
    }

    /// Number of preallocated island slots.
    pub fn island_capacity(&self) -> usize {
        self.islands.len()
    }

    /// Folds one drained span. Allocation-free and lock-free.
    pub fn absorb(&self, t: &TaggedEvent) {
        let ev = &t.ev;
        self.events_folded.add(1);
        if ev.kind == SpanKind::Dispatch || ev.island == NO_ISLAND {
            if ev.kind == SpanKind::Dispatch {
                self.dispatch_ns.add(ev.dur_ns);
            }
            return;
        }
        self.current_step.max(ev.step as u64);
        let Some(slot) = self.islands.get(ev.island as usize) else {
            return;
        };
        slot.events.add(1);
        slot.workers.max(ev.rank as u64 + 1);
        match ev.kind {
            SpanKind::Kernel => {
                slot.kernel_ns.add(ev.dur_ns);
                slot.computed_cells.add(ev.aux[0]);
                slot.redundant_cells.add(ev.aux[1]);
                self.kernel_span_ns.record(ev.dur_ns);
            }
            SpanKind::TeamBarrier | SpanKind::GlobalBarrier => {
                let wait = if ev.kind == SpanKind::TeamBarrier {
                    &slot.team_barrier_ns
                } else {
                    &slot.global_barrier_ns
                };
                wait.add(ev.dur_ns);
                slot.spin_ns.add(ev.aux[0]);
                slot.yield_ns.add(ev.aux[1]);
                slot.park_ns.add(ev.aux[2]);
                self.barrier_span_ns.record(ev.dur_ns);
            }
            SpanKind::Swap => slot.swap_ns.add(ev.dur_ns),
            SpanKind::Dispatch => unreachable!("handled above"),
        }
    }

    /// Gauge hook for the replay loop: advances the live `current_step`
    /// gauge ahead of the (batched) collector so a scrape mid-step sees
    /// where the run actually is.
    pub fn note_step(&self, step: u32) {
        self.current_step.max(step as u64);
    }

    /// Adds ring-wrap losses reported by a collect pass.
    pub fn add_dropped(&self, n: u64) {
        self.dropped_events.add(n);
    }

    /// Adds protocol-violation counts (always 0 under the shipped
    /// orderings; exposed so a nonzero value is loud, not silent).
    pub fn add_unpublished(&self, n: u64) {
        self.unpublished.add(n);
    }

    /// Plain-value copy of everything (scrape-side; allocates).
    pub fn snapshot(&self) -> RegistrySnapshot {
        let islands: Vec<IslandSnapshot> = self
            .islands
            .iter()
            .enumerate()
            .filter(|(_, s)| s.events.get() > 0)
            .map(|(i, s)| IslandSnapshot {
                island: i as u32,
                kernel_ns: s.kernel_ns.get(),
                team_barrier_ns: s.team_barrier_ns.get(),
                global_barrier_ns: s.global_barrier_ns.get(),
                spin_ns: s.spin_ns.get(),
                yield_ns: s.yield_ns.get(),
                park_ns: s.park_ns.get(),
                swap_ns: s.swap_ns.get(),
                computed_cells: s.computed_cells.get(),
                redundant_cells: s.redundant_cells.get(),
                workers: s.workers.get(),
                events: s.events.get(),
            })
            .collect();
        RegistrySnapshot {
            islands,
            step_ns: self.step_ns.snapshot(),
            kernel_span_ns: self.kernel_span_ns.snapshot(),
            barrier_span_ns: self.barrier_span_ns.snapshot(),
            current_step: self.current_step.get(),
            dropped_events: self.dropped_events.get(),
            unpublished: self.unpublished.get(),
            dispatch_ns: self.dispatch_ns.get(),
            events_folded: self.events_folded.get(),
            elapsed_ns: now_ns().saturating_sub(self.start_ns).max(1),
        }
    }
}

/// Plain-value copy of the whole registry at one scrape.
#[derive(Clone, Debug)]
pub struct RegistrySnapshot {
    /// Islands that have folded at least one span, by index.
    pub islands: Vec<IslandSnapshot>,
    /// Per-step wall-time distribution.
    pub step_ns: HistogramSnapshot,
    /// Kernel-span duration distribution.
    pub kernel_span_ns: HistogramSnapshot,
    /// Barrier-span duration distribution.
    pub barrier_span_ns: HistogramSnapshot,
    /// Gauge: newest time step seen.
    pub current_step: u64,
    /// Events lost to ring wrap (counted, never silent).
    pub dropped_events: u64,
    /// Drain-protocol violations (0 under the shipped orderings).
    pub unpublished: u64,
    /// Pool dispatch time (caller-thread spans).
    pub dispatch_ns: u64,
    /// Total spans folded.
    pub events_folded: u64,
    /// Nanoseconds since the registry was constructed (≥ 1).
    pub elapsed_ns: u64,
}

impl RegistrySnapshot {
    /// Computed cells per second across all islands, over the
    /// registry's lifetime.
    pub fn cells_per_second(&self) -> f64 {
        let cells: u64 = self.islands.iter().map(|i| i.computed_cells).sum();
        cells as f64 / (self.elapsed_ns as f64 / 1e9)
    }

    /// Max/mean per-worker kernel-time ratio across active islands
    /// (1.0 = perfectly balanced). `None` with no active islands.
    pub fn imbalance(&self) -> Option<f64> {
        let per_worker: Vec<f64> = self
            .islands
            .iter()
            .filter(|i| i.workers > 0)
            .map(|i| i.kernel_ns as f64 / i.workers as f64)
            .collect();
        if per_worker.is_empty() {
            return None;
        }
        let mean = per_worker.iter().sum::<f64>() / per_worker.len() as f64;
        if mean <= 0.0 {
            return None;
        }
        let max = per_worker.iter().cloned().fold(0.0f64, f64::max);
        Some(max / mean)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Event;

    fn tagged(
        kind: SpanKind,
        island: u32,
        rank: u32,
        step: u32,
        dur: u64,
        aux0: u64,
    ) -> TaggedEvent {
        TaggedEvent {
            thread: 0,
            ev: Event {
                kind,
                start_ns: 0,
                dur_ns: dur,
                aux: [aux0, 0, 0],
                island,
                rank,
                step,
                stage: 0,
                block: 0,
            },
        }
    }

    #[test]
    fn absorb_routes_spans_to_island_counters() {
        let r = MetricsRegistry::new(4);
        r.absorb(&tagged(SpanKind::Kernel, 1, 2, 5, 100, 640));
        r.absorb(&tagged(SpanKind::TeamBarrier, 1, 0, 5, 40, 0));
        r.absorb(&tagged(SpanKind::Swap, 0, 0, 6, 7, 0));
        r.absorb(&tagged(SpanKind::Dispatch, NO_ISLAND, 0, 0, 9, 0));
        let s = r.snapshot();
        assert_eq!(s.islands.len(), 2);
        let i1 = s.islands.iter().find(|i| i.island == 1).unwrap();
        assert_eq!(i1.kernel_ns, 100);
        assert_eq!(i1.computed_cells, 640);
        assert_eq!(i1.team_barrier_ns, 40);
        assert_eq!(i1.workers, 3);
        assert_eq!(s.current_step, 6);
        assert_eq!(s.dispatch_ns, 9);
        assert_eq!(s.events_folded, 4);
        assert_eq!(s.kernel_span_ns.count, 1);
        assert_eq!(s.barrier_span_ns.count, 1);
    }

    #[test]
    fn live_fold_matches_the_post_hoc_fold() {
        // One span set through both folds: every per-island field the
        // two share must agree — barrier spin/yield/park included.
        let with_aux = |mut t: TaggedEvent, aux| {
            t.ev.aux = aux;
            t
        };
        let events = vec![
            with_aux(tagged(SpanKind::Kernel, 0, 1, 0, 100, 0), [640, 40, 0]),
            tagged(SpanKind::Kernel, 1, 0, 0, 70, 500),
            with_aux(tagged(SpanKind::TeamBarrier, 0, 0, 0, 30, 0), [10, 15, 5]),
            with_aux(tagged(SpanKind::TeamBarrier, 0, 1, 1, 12, 0), [12, 0, 0]),
            with_aux(tagged(SpanKind::GlobalBarrier, 1, 0, 1, 50, 0), [5, 5, 40]),
            tagged(SpanKind::Swap, 0, 0, 1, 9, 0),
            tagged(SpanKind::Dispatch, NO_ISLAND, 0, 0, 200, 2),
        ];
        let r = MetricsRegistry::new(4);
        for t in &events {
            r.absorb(t);
        }
        let live: Vec<_> = r
            .snapshot()
            .islands
            .iter()
            .map(|i| {
                let phases = [i.kernel_ns, i.team_barrier_ns, i.global_barrier_ns];
                let waits = [i.spin_ns, i.yield_ns, i.park_ns, i.swap_ns];
                let cells = [i.computed_cells, i.redundant_cells];
                (i.island, i.workers, phases, waits, cells)
            })
            .collect();
        let drained = crate::Drained { events, dropped: 0 };
        let post: Vec<_> = crate::metrics::RunMetrics::aggregate(&drained)
            .totals()
            .iter()
            .map(|m| {
                let phases = [m.kernel_ns, m.team_barrier_ns, m.global_barrier_ns];
                let waits = [m.spin_ns, m.yield_ns, m.park_ns, m.swap_ns];
                let cells = [m.computed_cells, m.redundant_cells];
                (m.island, u64::from(m.workers), phases, waits, cells)
            })
            .collect();
        assert_eq!(live, post);
        assert_eq!(live[0].3, [22, 15, 5, 9]);
    }

    #[test]
    fn out_of_range_island_is_counted_not_dropped() {
        let r = MetricsRegistry::new(2);
        r.absorb(&tagged(SpanKind::Kernel, 40, 0, 0, 10, 1));
        let s = r.snapshot();
        assert!(s.islands.is_empty());
        assert_eq!(s.events_folded, 1);
    }

    #[test]
    fn imbalance_and_rate_derivations() {
        let r = MetricsRegistry::new(2);
        r.absorb(&tagged(SpanKind::Kernel, 0, 0, 0, 300, 30));
        r.absorb(&tagged(SpanKind::Kernel, 1, 0, 0, 100, 10));
        let s = r.snapshot();
        // Per-worker kernel: [300, 100]; mean 200; max/mean = 1.5.
        assert!((s.imbalance().unwrap() - 1.5).abs() < 1e-12);
        assert!(s.cells_per_second() > 0.0);
    }
}
