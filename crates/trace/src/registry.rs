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
//! This is the live half of one fold: a slot holds one counter per
//! `ISLAND_COUNTERS` entry, a span adds what `IslandMetrics::of_span`
//! routes it to — the routing `RunMetrics::aggregate` uses — and a
//! snapshot's islands are the same [`IslandMetrics`] records the
//! post-hoc totals are, with the same per-worker imbalance.
//!
//! Counters are monotone (Prometheus `_total` semantics); gauges are
//! last-or-max-wins. A scrape racing the collector sees a legal
//! historical state — per-counter atomicity is all the exposition
//! format promises.

use crate::histogram::{Histogram, HistogramSnapshot};
use crate::metrics::{ImbalanceSummary, IslandMetrics, ISLAND_COUNTERS};
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

/// Per-island counter block: one padded counter per
/// `ISLAND_COUNTERS` entry, in table order, plus the max-wins
/// `workers` gauge (highest rank seen + 1). One collector thread
/// writes, scrapes read.
#[derive(Debug, Default)]
struct IslandSlot {
    counters: [PadCounter; ISLAND_COUNTERS.len()],
    workers: PadCounter,
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

    /// Folds one drained span through the same routing as the
    /// post-hoc fold (`IslandMetrics::of_span`). Allocation-free and
    /// lock-free.
    pub fn absorb(&self, t: &TaggedEvent) {
        let ev = &t.ev;
        self.events_folded.add(1);
        if ev.kind == SpanKind::Dispatch {
            self.dispatch_ns.add(ev.dur_ns);
            return;
        }
        if ev.island == NO_ISLAND {
            return;
        }
        self.current_step.max(ev.step as u64);
        let Some(slot) = self.islands.get(ev.island as usize) else {
            return;
        };
        slot.workers.max(ev.rank as u64 + 1);
        let span = IslandMetrics::of_span(ev.kind, ev.dur_ns, ev.aux);
        for (counter, c) in slot.counters.iter().zip(&ISLAND_COUNTERS) {
            counter.add((c.get)(&span));
        }
        if ev.kind == SpanKind::Kernel {
            self.kernel_span_ns.record(ev.dur_ns);
        } else if matches!(ev.kind, SpanKind::TeamBarrier | SpanKind::GlobalBarrier) {
            self.barrier_span_ns.record(ev.dur_ns);
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
        let islands = self
            .islands
            .iter()
            .enumerate()
            .map(|(i, slot)| {
                let mut m = IslandMetrics {
                    island: i as u32,
                    workers: u32::try_from(slot.workers.get()).unwrap_or(u32::MAX),
                    ..IslandMetrics::default()
                };
                for (counter, c) in slot.counters.iter().zip(&ISLAND_COUNTERS) {
                    *(c.get_mut)(&mut m) = counter.get();
                }
                m
            })
            .filter(|m| m.events > 0)
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
    /// Islands that have folded at least one span, by index — the same
    /// record the post-hoc [`RunMetrics::totals`](crate::metrics::RunMetrics::totals)
    /// produces.
    pub islands: Vec<IslandMetrics>,
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
    /// Stage-cell updates (every stage's cells, redundant halo included)
    /// per second across all islands, over the registry's lifetime.
    pub fn cells_per_second(&self) -> f64 {
        let cells: u64 = self.islands.iter().map(|i| i.computed_cells).sum();
        cells as f64 / (self.elapsed_ns as f64 / 1e9)
    }

    /// Per-worker kernel imbalance across the islands so far, defined
    /// as for [`StepMetrics::imbalance`](crate::metrics::StepMetrics::imbalance).
    /// `None` before any kernel time.
    pub fn imbalance(&self) -> Option<f64> {
        ImbalanceSummary::of(&self.islands).map(|im| im.ratio)
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
        // One span set through both folds gives the same records: island
        // 0 has two workers and island 1 one, a barrier span outside any
        // island and a pool dispatch fold into no island, and island 5
        // is past this registry's capacity.
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
            with_aux(
                tagged(SpanKind::TeamBarrier, NO_ISLAND, 0, 1, 8, 0),
                [8, 0, 0],
            ),
            tagged(SpanKind::Kernel, 5, 3, 1, 25, 90),
            tagged(SpanKind::Dispatch, NO_ISLAND, 0, 0, 200, 2),
        ];
        let r = MetricsRegistry::new(4);
        for t in &events {
            r.absorb(t);
        }
        let drained = crate::Drained { events, dropped: 0 };
        let post: Vec<IslandMetrics> = crate::metrics::RunMetrics::aggregate(&drained)
            .totals()
            .into_iter()
            .filter(|m| (m.island as usize) < r.island_capacity())
            .collect();
        let live = r.snapshot();
        assert_eq!(live.islands, post);
        assert_eq!(live.events_folded, 9);
        assert_eq!((post[0].workers, post[1].workers), (2, 1));
        let i0 = &post[0];
        assert_eq!(
            [i0.spin_ns, i0.yield_ns, i0.park_ns, i0.swap_ns],
            [22, 15, 5, 9]
        );
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
