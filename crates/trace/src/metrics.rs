//! Aggregation of drained trace events into per-step, per-island
//! phase metrics.
//!
//! This is the report the paper's Table 1 / Figs. 4–6 style analysis
//! needs: for every time step and island, how much worker time went to
//! kernel sweeps, team vs. global barrier waiting (split into spin /
//! yield / park), the serial buffer swap, and halo traffic — plus the
//! computed and redundant cell counts that the static overlap analysis
//! in `islands-core` predicts and `islands-analysis` cross-checks.
//!
//! The per-island vocabulary is defined here once and shared with the
//! live [`registry`](crate::registry): `IslandMetrics::of_span` is the
//! one routing from a span to the counters it adds to,
//! `ISLAND_COUNTERS` the one table of counter keys (JSON members and
//! `islands_<key>_total` Prometheus families), `bounds_step` the one
//! rule for which spans bound a step's wall time, and
//! `ImbalanceSummary::of` the one imbalance: the slowest island's
//! per-worker kernel time over the worker-weighted mean.

use crate::json::Json;
use crate::{Drained, SpanKind, NO_ISLAND};
use std::collections::{BTreeMap, BTreeSet};

/// Phase totals for one island within one time step (or across a whole
/// run when produced by [`RunMetrics::totals`], or live in a
/// [`RegistrySnapshot`](crate::registry::RegistrySnapshot)). All `*_ns`
/// fields are *summed worker time*: an island of 4 ranks each waiting
/// 1 µs shows 4 µs of barrier time.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct IslandMetrics {
    /// Island (team) index.
    pub island: u32,
    /// Distinct ranks that recorded events for this island.
    pub workers: u32,
    /// Kernel sweep time.
    pub kernel_ns: u64,
    /// Team-barrier wait time.
    pub team_barrier_ns: u64,
    /// Global-barrier wait time.
    pub global_barrier_ns: u64,
    /// Barrier wait spent busy-spinning (subset of the barrier times).
    pub spin_ns: u64,
    /// Barrier wait spent in `yield_now` (subset of the barrier times).
    pub yield_ns: u64,
    /// Barrier wait spent parked on a condvar (subset).
    pub park_ns: u64,
    /// Serial buffer swap time.
    pub swap_ns: u64,
    /// Cells computed by kernel sweeps.
    pub computed_cells: u64,
    /// Of those, cells outside the island's own partition — the
    /// redundant halo recomputation the islands approach trades
    /// against communication.
    pub redundant_cells: u64,
    /// Spans folded into this island.
    pub events: u64,
}

/// One summed field of [`IslandMetrics`]: its key — the field name, the
/// member name in both JSON documents and the stem of the Prometheus
/// family `islands_<key>_total` — the family's help text, and accessors.
pub(crate) struct IslandCounter {
    /// Field name, JSON key and Prometheus family stem.
    pub key: &'static str,
    /// Prometheus `# HELP` text.
    pub help: &'static str,
    /// Reads the field.
    pub get: fn(&IslandMetrics) -> u64,
    /// The field, for writing.
    pub get_mut: fn(&mut IslandMetrics) -> &mut u64,
}

macro_rules! counter {
    ($field:ident, $help:literal) => {
        IslandCounter {
            key: stringify!($field),
            help: $help,
            get: |m| m.$field,
            get_mut: |m| &mut m.$field,
        }
    };
}

/// Every summed per-island field, in exposition order. `island` and the
/// max-wins `workers` gauge are the two fields outside it.
pub(crate) const ISLAND_COUNTERS: [IslandCounter; 10] = [
    counter!(kernel_ns, "Kernel (stencil sweep) time per island, ns"),
    counter!(team_barrier_ns, "Team-barrier wait time per island, ns"),
    counter!(global_barrier_ns, "Global-barrier wait time per island, ns"),
    counter!(spin_ns, "Barrier wait spent spinning per island, ns"),
    counter!(yield_ns, "Barrier wait spent yielding per island, ns"),
    counter!(park_ns, "Barrier wait spent parked per island, ns"),
    counter!(swap_ns, "Serial swap time per island, ns"),
    counter!(computed_cells, "Cells computed per island"),
    counter!(
        redundant_cells,
        "Redundant halo cells recomputed per island"
    ),
    counter!(events, "Trace spans folded per island"),
];

/// Whether a span bounds its step's wall time: every kind but
/// `Dispatch`, which covers a whole pool broadcast on the caller thread
/// and is no island's work. [`RunMetrics::aggregate`] and the live
/// collector's step tracker both decide by it.
pub(crate) fn bounds_step(kind: SpanKind) -> bool {
    kind != SpanKind::Dispatch
}

fn num(v: u64) -> Json {
    Json::Num(v as f64)
}

impl IslandMetrics {
    /// The counters one span adds to its island — the single routing
    /// behind both folds ([`RunMetrics::aggregate`] and the live
    /// `MetricsRegistry::absorb`). A kernel span adds its time and its
    /// `aux = [computed, redundant, _]` cells, a barrier span its wait
    /// and the `aux = [spin, yield, park]` split of it, a swap its time;
    /// each counts one event. A dispatch adds nothing.
    pub(crate) fn of_span(kind: SpanKind, dur_ns: u64, aux: [u64; 3]) -> IslandMetrics {
        let mut m = IslandMetrics {
            events: 1,
            ..IslandMetrics::default()
        };
        let [a0, a1, a2] = aux;
        match kind {
            SpanKind::Kernel => {
                (m.kernel_ns, m.computed_cells, m.redundant_cells) = (dur_ns, a0, a1)
            }
            SpanKind::TeamBarrier => {
                (m.team_barrier_ns, m.spin_ns, m.yield_ns, m.park_ns) = (dur_ns, a0, a1, a2)
            }
            SpanKind::GlobalBarrier => {
                (m.global_barrier_ns, m.spin_ns, m.yield_ns, m.park_ns) = (dur_ns, a0, a1, a2)
            }
            SpanKind::Swap => m.swap_ns = dur_ns,
            SpanKind::Dispatch => return IslandMetrics::default(),
        }
        m
    }

    /// Total barrier wait (team + global).
    pub fn barrier_wait_ns(&self) -> u64 {
        self.team_barrier_ns + self.global_barrier_ns
    }

    /// Worker time accounted to *any* phase.
    pub fn accounted_ns(&self) -> u64 {
        self.kernel_ns + self.barrier_wait_ns() + self.swap_ns
    }

    /// Adds `other`'s counters; `workers` is max-wins.
    fn merge(&mut self, other: &IslandMetrics) {
        self.workers = self.workers.max(other.workers);
        for c in &ISLAND_COUNTERS {
            *(c.get_mut)(self) += (c.get)(other);
        }
    }

    /// The island as one JSON object: `island` (`null` for
    /// [`NO_ISLAND`]), `workers`, then every [`ISLAND_COUNTERS`] key —
    /// the island shape of both `--metrics-json` and `/metrics.json`.
    pub(crate) fn to_json(&self) -> Json {
        let island = if self.island == NO_ISLAND {
            Json::Null
        } else {
            num(u64::from(self.island))
        };
        let mut members = vec![
            ("island".into(), island),
            ("workers".into(), num(u64::from(self.workers))),
        ];
        members.extend(
            ISLAND_COUNTERS
                .iter()
                .map(|c| (c.key.into(), num((c.get)(self)))),
        );
        Json::Object(members)
    }
}

/// Phase breakdown of one time step across all islands.
#[derive(Clone, Debug, Default)]
pub struct StepMetrics {
    /// Time step index.
    pub step: u32,
    /// Wall-clock span of the step: earliest start to latest end over
    /// all events tagged with this step except `Dispatch` spans.
    pub wall_ns: u64,
    /// Per-island totals, sorted by island index.
    pub islands: Vec<IslandMetrics>,
    /// Islands that recorded events elsewhere in the run but none at
    /// all in this step (the [`NO_ISLAND`] bucket excluded). A silent
    /// island usually means a trace-ring wrap or an executor skipping
    /// an island; either way its worker time is invisible here, so the
    /// step's ratio metrics would be silently deflated if they
    /// pretended the island did not exist — [`StepMetrics::imbalance`]
    /// and [`StepMetrics::accounted_fraction`] refuse (return `None`)
    /// instead.
    pub silent_islands: Vec<u32>,
}

impl StepMetrics {
    /// Per-worker kernel imbalance across the step's islands: the
    /// slowest island's per-worker kernel time over the worker-weighted
    /// mean; 1.0 is balanced, as a lone island is. `None` when no island
    /// recorded kernel time, or with any silent island (its kernel time
    /// is unknown, not zero).
    pub fn imbalance(&self) -> Option<f64> {
        if !self.silent_islands.is_empty() {
            return None;
        }
        ImbalanceSummary::of(&self.islands).map(|im| im.ratio)
    }

    /// Fraction of total worker wall time this step that the recorded
    /// phases account for: `Σ accounted / (wall × Σ workers)`. Close
    /// to 1.0 means the instrumentation explains the step. `None` when
    /// nothing was recorded — or when an island that exists elsewhere
    /// in the run recorded nothing this step, which would deflate the
    /// worker denominator and inflate the fraction.
    pub fn accounted_fraction(&self) -> Option<f64> {
        if !self.silent_islands.is_empty() {
            return None;
        }
        let (accounted, workers) = self.real_load();
        if self.wall_ns == 0 || workers == 0 {
            return None;
        }
        Some(accounted as f64 / (self.wall_ns as f64 * workers as f64))
    }

    /// `(Σ accounted ns, Σ workers)` over the real islands.
    fn real_load(&self) -> (u64, u64) {
        self.islands
            .iter()
            .filter(|m| m.island != NO_ISLAND)
            .fold((0, 0), |(ns, w), m| {
                (ns + m.accounted_ns(), w + u64::from(m.workers))
            })
    }
}

/// Per-worker-normalized kernel imbalance across islands, averaged over
/// the steps of a run.
///
/// `*_pw_ns` values are *per-worker* nanoseconds — an island's summed
/// kernel time divided by its worker count — so islands of different
/// team sizes compare on one scale. `excess_ns` is back in *summed
/// worker* nanoseconds: the worker time per step that faster islands
/// spend waiting at the step's barriers because the slowest island is
/// still computing. On dedicated cores it equals the barrier wait
/// attributable to imbalance (as opposed to oversubscription).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ImbalanceSummary {
    /// Steps that recorded kernel time on an island with workers.
    pub steps: usize,
    /// Mean over steps of the slowest island's per-worker kernel time.
    pub max_pw_ns: f64,
    /// Mean over steps of the worker-weighted mean per-worker kernel
    /// time across islands.
    pub mean_pw_ns: f64,
    /// `max_pw_ns / mean_pw_ns` — 1.0 is perfectly balanced.
    pub ratio: f64,
    /// Mean over steps of `Σ_i workers_i × (max_pw − pw_i)`: summed
    /// worker time lost to imbalance per step.
    pub excess_ns: f64,
}

impl ImbalanceSummary {
    /// The imbalance of one set of islands — a step's, or the live
    /// registry's running totals — as a one-step summary: each real
    /// island's kernel time per worker (the [`NO_ISLAND`] bucket and
    /// worker-less islands skipped), the slowest of those over their
    /// worker-weighted mean `Σ kernel / Σ workers`, and the excess.
    /// `None` when no real island recorded kernel time.
    pub(crate) fn of(islands: &[IslandMetrics]) -> Option<ImbalanceSummary> {
        let real = || {
            islands
                .iter()
                .filter(|m| m.island != NO_ISLAND && m.workers > 0)
        };
        let pw = |m: &IslandMetrics| m.kernel_ns as f64 / f64::from(m.workers);
        let workers: f64 = real().map(|m| f64::from(m.workers)).sum();
        let kernel: f64 = real().map(|m| m.kernel_ns as f64).sum();
        if kernel == 0.0 {
            return None;
        }
        let max_pw_ns = real().map(pw).fold(0.0, f64::max);
        let mean_pw_ns = kernel / workers;
        Some(ImbalanceSummary {
            steps: 1,
            max_pw_ns,
            mean_pw_ns,
            ratio: max_pw_ns / mean_pw_ns,
            excess_ns: real()
                .map(|m| f64::from(m.workers) * (max_pw_ns - pw(m)))
                .sum(),
        })
    }
}

/// Run-level accounted-fraction summary, with an explicit honesty
/// flag. The fraction is computed only over steps whose own
/// [`StepMetrics::accounted_fraction`] is defined; when rings wrapped
/// (`dropped_events > 0`) or any step had silent islands, the number
/// still describes what *was* recorded, but `degraded` is set so
/// consumers (and the `--metrics` report) never mistake a partial
/// trace for a complete one.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct AccountedSummary {
    /// Worker-time-weighted accounted fraction over the valid steps:
    /// `Σ accounted / Σ (wall × workers)`. `None` when no step had a
    /// defined fraction.
    pub fraction: Option<f64>,
    /// Steps whose per-step fraction was defined.
    pub valid_steps: usize,
    /// Steps suppressed by silent islands (or empty denominators).
    pub suppressed_steps: usize,
    /// Events lost to ring wrap (copied from the run).
    pub dropped_events: u64,
    /// True when the trace is known incomplete: events were dropped or
    /// at least one step was suppressed.
    pub degraded: bool,
}

/// A whole traced run, aggregated per step.
#[derive(Clone, Debug, Default)]
pub struct RunMetrics {
    /// Per-step breakdowns, sorted by step index.
    pub steps: Vec<StepMetrics>,
    /// Events lost to ring wrap-around (nonzero means the capacity was
    /// too small — see `set_ring_capacity`).
    pub dropped_events: u64,
}

impl RunMetrics {
    /// Aggregates a drained event list, in any order: every span but
    /// `Dispatch` widens its step's wall and folds through
    /// `IslandMetrics::of_span` into its `(step, island)` row.
    pub fn aggregate(drained: &Drained) -> RunMetrics {
        // Per step: its wall and one row per island, found by a short scan.
        type Step = ((u64, u64), Vec<IslandMetrics>);
        let mut steps: BTreeMap<u32, Step> = BTreeMap::new();
        // Spans arrive time-sorted, so consecutive spans mostly share a
        // step: `last` keeps its entry and skips the map lookup.
        let mut last: Option<(u32, &mut Step)> = None;
        for ev in drained.events.iter().map(|t| &t.ev) {
            if !bounds_step(ev.kind) {
                continue;
            }
            let entry = match last.take() {
                Some((step, entry)) if step == ev.step => entry,
                _ => steps.entry(ev.step).or_insert(((u64::MAX, 0), Vec::new())),
            };
            let ((lo, hi), islands) = &mut *entry;
            *lo = (*lo).min(ev.start_ns);
            *hi = (*hi).max(ev.end_ns());
            let at = islands.iter().position(|m| m.island == ev.island);
            let at = at.unwrap_or_else(|| {
                islands.push(IslandMetrics {
                    island: ev.island,
                    ..IslandMetrics::default()
                });
                islands.len() - 1
            });
            let row = &mut islands[at];
            row.workers = row.workers.max(ev.rank + 1);
            row.merge(&IslandMetrics::of_span(ev.kind, ev.dur_ns, ev.aux));
            last = Some((ev.step, entry));
        }
        // Every real island the run knows about: a step missing one of
        // these recorded *no* events for it — flagged explicitly so the
        // ratio metrics refuse instead of silently deflating.
        let run_islands: BTreeSet<u32> = steps
            .values()
            .flat_map(|(_, islands)| islands.iter().map(|m| m.island))
            .filter(|&i| i != NO_ISLAND)
            .collect();
        let steps = steps
            .into_iter()
            .map(|(step, ((lo, hi), mut islands))| {
                islands.sort_unstable_by_key(|m| m.island);
                let silent_islands = run_islands
                    .iter()
                    .copied()
                    .filter(|i| islands.binary_search_by_key(i, |m| m.island).is_err())
                    .collect();
                StepMetrics {
                    step,
                    wall_ns: hi - lo,
                    islands,
                    silent_islands,
                }
            })
            .collect();
        RunMetrics {
            steps,
            dropped_events: drained.dropped,
        }
    }

    /// Run-level accounted fraction with an honesty flag; see
    /// [`AccountedSummary`].
    pub fn accounted(&self) -> AccountedSummary {
        let mut accounted = 0.0;
        let mut capacity = 0.0;
        let mut valid_steps = 0usize;
        for s in &self.steps {
            if s.accounted_fraction().is_none() {
                continue;
            }
            valid_steps += 1;
            let (ns, workers) = s.real_load();
            accounted += ns as f64;
            capacity += s.wall_ns as f64 * workers as f64;
        }
        let suppressed_steps = self.steps.len() - valid_steps;
        AccountedSummary {
            fraction: (capacity > 0.0).then(|| accounted / capacity),
            valid_steps,
            suppressed_steps,
            dropped_events: self.dropped_events,
            degraded: self.dropped_events > 0 || suppressed_steps > 0,
        }
    }

    /// The whole report as strict JSON (the `--metrics-json` payload):
    /// per-step per-island phase totals, the accounted summary with its
    /// degradation flag, and the imbalance summary. Every number here
    /// is finite by construction, so `render()` on the result cannot
    /// fail.
    pub fn to_json(&self) -> Json {
        let islands =
            |ms: &[IslandMetrics]| Json::Array(ms.iter().map(IslandMetrics::to_json).collect());
        let steps = Json::Array(
            self.steps
                .iter()
                .map(|s| {
                    Json::Object(vec![
                        ("step".into(), num(u64::from(s.step))),
                        ("wall_ns".into(), num(s.wall_ns)),
                        ("islands".into(), islands(&s.islands)),
                        (
                            "silent_islands".into(),
                            Json::Array(
                                s.silent_islands
                                    .iter()
                                    .map(|&i| num(u64::from(i)))
                                    .collect(),
                            ),
                        ),
                        (
                            "accounted_fraction".into(),
                            s.accounted_fraction().map_or(Json::Null, Json::Num),
                        ),
                        (
                            "imbalance".into(),
                            s.imbalance().map_or(Json::Null, Json::Num),
                        ),
                    ])
                })
                .collect(),
        );
        let acc = self.accounted();
        let accounted = Json::Object(vec![
            (
                "fraction".into(),
                acc.fraction.map_or(Json::Null, Json::Num),
            ),
            ("valid_steps".into(), num(acc.valid_steps as u64)),
            ("suppressed_steps".into(), num(acc.suppressed_steps as u64)),
            ("dropped_events".into(), num(acc.dropped_events)),
            ("degraded".into(), Json::Bool(acc.degraded)),
        ]);
        let imbalance = self.imbalance_summary().map_or(Json::Null, |im| {
            Json::Object(vec![
                ("steps".into(), num(im.steps as u64)),
                ("max_pw_ns".into(), Json::Num(im.max_pw_ns)),
                ("mean_pw_ns".into(), Json::Num(im.mean_pw_ns)),
                ("ratio".into(), Json::Num(im.ratio)),
                ("excess_ns".into(), Json::Num(im.excess_ns)),
            ])
        });
        Json::Object(vec![
            ("steps".into(), steps),
            ("totals".into(), islands(&self.totals())),
            ("wall_ns".into(), num(self.wall_ns())),
            ("dropped_events".into(), num(self.dropped_events)),
            ("accounted".into(), accounted),
            ("imbalance_summary".into(), imbalance),
        ])
    }

    /// Per-island totals across every step, sorted by island index.
    pub fn totals(&self) -> Vec<IslandMetrics> {
        let mut out: BTreeMap<u32, IslandMetrics> = BTreeMap::new();
        for m in self.steps.iter().flat_map(|s| &s.islands) {
            out.entry(m.island)
                .or_insert(IslandMetrics {
                    island: m.island,
                    ..IslandMetrics::default()
                })
                .merge(m);
        }
        out.into_values().collect()
    }

    /// Sum of per-step wall spans.
    pub fn wall_ns(&self) -> u64 {
        self.steps.iter().map(|s| s.wall_ns).sum()
    }

    /// Each step's per-worker kernel imbalance, averaged over the steps
    /// that recorded kernel time; `None` when none did.
    pub fn imbalance_summary(&self) -> Option<ImbalanceSummary> {
        let per_step: Vec<ImbalanceSummary> = self
            .steps
            .iter()
            .filter_map(|s| ImbalanceSummary::of(&s.islands))
            .collect();
        if per_step.is_empty() {
            return None;
        }
        let mean = |f: fn(&ImbalanceSummary) -> f64| {
            per_step.iter().map(f).sum::<f64>() / per_step.len() as f64
        };
        let (max_pw_ns, mean_pw_ns) = (mean(|im| im.max_pw_ns), mean(|im| im.mean_pw_ns));
        Some(ImbalanceSummary {
            steps: per_step.len(),
            max_pw_ns,
            mean_pw_ns,
            ratio: max_pw_ns / mean_pw_ns,
            excess_ns: mean(|im| im.excess_ns),
        })
    }

    /// Renders a human-readable per-island phase table (the `--metrics`
    /// output of `mpdata-run`).
    pub fn render(&self) -> String {
        fn ms(ns: u64) -> f64 {
            ns as f64 / 1e6
        }
        let mut out = String::new();
        out.push_str(&format!(
            "steps: {}   wall: {:.3} ms   dropped events: {}\n",
            self.steps.len(),
            ms(self.wall_ns()),
            self.dropped_events
        ));
        out.push_str(
            "island workers kernel_ms team_bar_ms glob_bar_ms  spin_ms yield_ms  park_ms  \
             swap_ms      cells  redundant\n",
        );
        for m in self.totals() {
            let island = if m.island == NO_ISLAND {
                "  -".to_string()
            } else {
                format!("{:3}", m.island)
            };
            out.push_str(&format!(
                "{island:>6} {:>7} {:>9.3} {:>11.3} {:>11.3} {:>8.3} {:>8.3} {:>8.3} {:>8.3} \
                 {:>10} {:>10}\n",
                m.workers,
                ms(m.kernel_ns),
                ms(m.team_barrier_ns),
                ms(m.global_barrier_ns),
                ms(m.spin_ns),
                ms(m.yield_ns),
                ms(m.park_ns),
                ms(m.swap_ns),
                m.computed_cells,
                m.redundant_cells,
            ));
        }
        let fractions: Vec<String> = self
            .steps
            .iter()
            .filter_map(|s| s.accounted_fraction())
            .map(|f| format!("{f:.2}"))
            .collect();
        if !fractions.is_empty() {
            out.push_str(&format!(
                "per-step accounted fraction: [{}]\n",
                fractions.join(", ")
            ));
        }
        let acc = self.accounted();
        if let Some(f) = acc.fraction {
            let flag = if acc.degraded {
                " DEGRADED (incomplete trace: ring wrap or silent islands)"
            } else {
                ""
            };
            out.push_str(&format!(
                "run accounted fraction: {f:.2} over {}/{} steps{flag}\n",
                acc.valid_steps,
                self.steps.len(),
            ));
        }
        let silent = self
            .steps
            .iter()
            .filter(|s| !s.silent_islands.is_empty())
            .count();
        if silent > 0 {
            out.push_str(&format!(
                "steps with silent islands (ratio metrics suppressed): {silent}\n"
            ));
        }
        if let Some(im) = self
            .steps
            .iter()
            .filter_map(StepMetrics::imbalance)
            .next_back()
        {
            out.push_str(&format!("kernel imbalance (last step): {im:.3}\n"));
        }
        if let Some(im) = self.imbalance_summary() {
            out.push_str(&format!(
                "per-worker kernel per step: max {:.3} ms  mean {:.3} ms  ratio {:.3}  \
                 imbalance excess {:.3} ms/step\n",
                im.max_pw_ns / 1e6,
                im.mean_pw_ns / 1e6,
                im.ratio,
                im.excess_ns / 1e6,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Event, TaggedEvent};

    fn ev(
        kind: SpanKind,
        start: u64,
        dur: u64,
        island: u32,
        rank: u32,
        step: u32,
        aux: [u64; 3],
    ) -> TaggedEvent {
        TaggedEvent {
            thread: rank,
            ev: Event {
                kind,
                start_ns: start,
                dur_ns: dur,
                aux,
                island,
                rank,
                step,
                stage: 0,
                block: 0,
            },
        }
    }

    fn synthetic() -> Drained {
        Drained {
            events: vec![
                // step 0, island 0, two ranks
                ev(SpanKind::Kernel, 0, 100, 0, 0, 0, [1000, 50, 0]),
                ev(SpanKind::Kernel, 0, 80, 0, 1, 0, [900, 40, 0]),
                ev(SpanKind::TeamBarrier, 100, 20, 0, 0, 0, [20, 0, 0]),
                ev(SpanKind::TeamBarrier, 80, 40, 0, 1, 0, [10, 20, 10]),
                ev(SpanKind::GlobalBarrier, 120, 10, 0, 0, 0, [10, 0, 0]),
                ev(SpanKind::Swap, 130, 15, 0, 0, 0, [0; 3]),
                // step 0, island 1, one rank
                ev(SpanKind::Kernel, 0, 50, 1, 0, 0, [400, 10, 0]),
                // dispatch is excluded from walls and islands
                ev(SpanKind::Dispatch, 0, 1000, NO_ISLAND, 0, 0, [3, 0, 0]),
                // step 1, island 0
                ev(SpanKind::Kernel, 200, 60, 0, 0, 1, [1000, 50, 0]),
            ],
            dropped: 2,
        }
    }

    #[test]
    fn aggregates_per_step_and_island() {
        let m = RunMetrics::aggregate(&synthetic());
        assert_eq!(m.dropped_events, 2);
        assert_eq!(m.steps.len(), 2);
        let s0 = &m.steps[0];
        assert_eq!(s0.step, 0);
        // Wall: events span 0..145 (dispatch excluded).
        assert_eq!(s0.wall_ns, 145);
        assert_eq!(s0.islands.len(), 2);
        let i0 = &s0.islands[0];
        assert_eq!(i0.island, 0);
        assert_eq!(i0.workers, 2);
        assert_eq!(i0.kernel_ns, 180);
        assert_eq!(i0.team_barrier_ns, 60);
        assert_eq!(i0.global_barrier_ns, 10);
        assert_eq!((i0.spin_ns, i0.yield_ns, i0.park_ns), (40, 20, 10));
        assert_eq!(i0.swap_ns, 15);
        assert_eq!(i0.computed_cells, 1900);
        assert_eq!(i0.redundant_cells, 90);
        assert_eq!(i0.barrier_wait_ns(), 70);
        assert_eq!(i0.accounted_ns(), 180 + 70 + 15);
        assert_eq!(i0.events, 6);
        let i1 = &s0.islands[1];
        assert_eq!((i1.island, i1.workers, i1.kernel_ns), (1, 1, 50));
    }

    #[test]
    fn totals_merge_steps() {
        let m = RunMetrics::aggregate(&synthetic());
        let totals = m.totals();
        assert_eq!(totals.len(), 2);
        assert_eq!(totals[0].kernel_ns, 240);
        assert_eq!(totals[0].computed_cells, 2900);
        assert_eq!(m.wall_ns(), 145 + 60);
    }

    #[test]
    fn imbalance_and_accounted_fraction() {
        let m = RunMetrics::aggregate(&synthetic());
        let s0 = &m.steps[0];
        // Per worker: island 0 is 180 ns / 2, island 1 is 50 ns / 1;
        // the worker-weighted mean is 230 / 3.
        let im = s0.imbalance().unwrap();
        assert!((im - 90.0 / (230.0 / 3.0)).abs() < 1e-12, "{im}");
        // It is the one-step summary's ratio; nothing compares without
        // kernel time.
        let one = ImbalanceSummary::of(&s0.islands).unwrap();
        assert_eq!((one.steps, one.ratio), (1, im));
        assert_eq!(ImbalanceSummary::of(&[IslandMetrics::default()]), None);
        let f = s0.accounted_fraction().unwrap();
        // accounted = 265 (island 0) + 50 (island 1); workers = 3.
        assert!((f - 315.0 / (145.0 * 3.0)).abs() < 1e-12);
        // Step 1 ran island 0 alone, but island 1 is silent there.
        assert!(m.steps[1].imbalance().is_none());
        // A lone island is balanced by definition.
        let lone = Drained {
            events: vec![ev(SpanKind::Kernel, 0, 100, 0, 0, 0, [0; 3])],
            dropped: 0,
        };
        assert_eq!(RunMetrics::aggregate(&lone).steps[0].imbalance(), Some(1.0));
    }

    #[test]
    fn aggregation_is_order_independent() {
        let d = synthetic();
        let mut shuffled = d.clone();
        // A fixed permutation (stride 4 over 9 events) and a reversal.
        let n = shuffled.events.len();
        shuffled.events = (0..n).map(|i| d.events[(i * 4) % n]).rev().collect();
        assert_ne!(shuffled.events, d.events);
        let a = RunMetrics::aggregate(&d).to_json();
        let b = RunMetrics::aggregate(&shuffled).to_json();
        assert_eq!(a.render().unwrap(), b.render().unwrap());
    }

    #[test]
    fn json_report_keys_are_pinned() {
        fn keys(j: &Json) -> String {
            let Json::Object(members) = j else {
                panic!("not an object: {j:?}")
            };
            let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
            keys.join(" ")
        }
        let first = |j: Option<&Json>| j.and_then(Json::as_array).unwrap()[0].clone();
        let doc = RunMetrics::aggregate(&synthetic()).to_json();
        let step = first(doc.get("steps"));
        let shape = [
            keys(&doc),
            keys(&step),
            keys(&first(step.get("islands"))),
            keys(&first(doc.get("totals"))),
            keys(doc.get("accounted").unwrap()),
            keys(doc.get("imbalance_summary").unwrap()),
        ];
        // `events` is the one member the island objects gained when
        // they started sharing the live snapshot's table.
        let island = "island workers kernel_ns team_barrier_ns global_barrier_ns spin_ns \
                      yield_ns park_ns swap_ns computed_cells redundant_cells events";
        assert_eq!(
            shape,
            [
                "steps totals wall_ns dropped_events accounted imbalance_summary",
                "step wall_ns islands silent_islands accounted_fraction imbalance",
                island,
                island,
                "fraction valid_steps suppressed_steps dropped_events degraded",
                "steps max_pw_ns mean_pw_ns ratio excess_ns",
            ]
        );
    }

    #[test]
    fn render_mentions_every_island() {
        let m = RunMetrics::aggregate(&synthetic());
        let text = m.render();
        assert!(text.contains("dropped events: 2"), "{text}");
        assert!(text.contains("kernel imbalance"), "{text}");
        assert!(text.contains("imbalance excess"), "{text}");
    }

    #[test]
    fn silent_island_is_flagged_and_ratios_refuse() {
        // Island 1 records events in step 0 but *nothing* in step 1
        // (e.g. its worker's ring wrapped). The old sentinel path let
        // step 1 pretend island 1 never existed, deflating the worker
        // denominator of accounted_fraction and computing imbalance
        // over the wrong island set.
        let d = Drained {
            events: vec![
                ev(SpanKind::Kernel, 0, 100, 0, 0, 0, [100, 0, 0]),
                ev(SpanKind::Kernel, 0, 90, 1, 0, 0, [90, 0, 0]),
                ev(SpanKind::Kernel, 200, 80, 0, 0, 1, [100, 0, 0]),
            ],
            dropped: 0,
        };
        let m = RunMetrics::aggregate(&d);
        let s0 = &m.steps[0];
        assert!(s0.silent_islands.is_empty());
        assert!(s0.imbalance().is_some());
        assert!(s0.accounted_fraction().is_some());
        let s1 = &m.steps[1];
        assert_eq!(s1.silent_islands, vec![1]);
        // The wall is still real — the recorded events span 200..280.
        assert_eq!(s1.wall_ns, 80);
        // But both ratios refuse: island 1's time is unknown, not zero.
        assert!(s1.imbalance().is_none());
        assert!(s1.accounted_fraction().is_none());
        // And the rendered report calls the suppression out.
        assert!(m.render().contains("silent islands"), "{}", m.render());
    }

    #[test]
    fn single_worker_run_has_no_silent_islands() {
        // A worker that records no events at all never appears in any
        // step, so a clean single-island run must stay unflagged.
        let d = Drained {
            events: vec![ev(SpanKind::Kernel, 0, 100, 0, 0, 0, [0; 3])],
            dropped: 0,
        };
        let m = RunMetrics::aggregate(&d);
        assert_eq!(m.steps.len(), 1);
        assert!(m.steps[0].silent_islands.is_empty());
        assert_eq!(m.steps[0].wall_ns, 100);
        assert!(m.steps[0].accounted_fraction().is_some());
    }

    #[test]
    fn accounted_summary_degrades_on_drops_and_silence() {
        // synthetic() dropped 2 events, and island 1 is silent in
        // step 1 → degraded with one suppressed step.
        let m = RunMetrics::aggregate(&synthetic());
        let acc = m.accounted();
        assert_eq!(acc.valid_steps, 1);
        assert_eq!(acc.suppressed_steps, 1);
        assert_eq!(acc.dropped_events, 2);
        assert!(acc.degraded);
        // Only step 0 is valid: it accounts 315 ns of 145 ns × 3.
        let expect = 315.0 / (145.0 * 3.0);
        assert!((acc.fraction.unwrap() - expect).abs() < 1e-12, "{acc:?}");
        assert!(m.render().contains("DEGRADED"), "{}", m.render());

        // A clean run is not degraded and not flagged.
        let clean = Drained {
            events: vec![ev(SpanKind::Kernel, 0, 100, 0, 0, 0, [0; 3])],
            dropped: 0,
        };
        let m = RunMetrics::aggregate(&clean);
        let acc = m.accounted();
        assert!(!acc.degraded);
        assert_eq!(acc.fraction, Some(1.0));
        assert!(!m.render().contains("DEGRADED"), "{}", m.render());

        // Silent islands degrade too, with the step suppressed.
        let silent = Drained {
            events: vec![
                ev(SpanKind::Kernel, 0, 100, 0, 0, 0, [0; 3]),
                ev(SpanKind::Kernel, 0, 90, 1, 0, 0, [0; 3]),
                ev(SpanKind::Kernel, 200, 80, 0, 0, 1, [0; 3]),
            ],
            dropped: 0,
        };
        let acc = RunMetrics::aggregate(&silent).accounted();
        assert_eq!(acc.valid_steps, 1);
        assert_eq!(acc.suppressed_steps, 1);
        assert!(acc.degraded);
    }

    #[test]
    fn json_report_is_strict_and_round_trips() {
        let m = RunMetrics::aggregate(&synthetic());
        let doc = m.to_json();
        let text = doc.render().expect("all metrics numbers are finite");
        let back = crate::json::parse(&text).expect("self-parse");
        assert_eq!(back, doc);
        assert_eq!(back.get("dropped_events"), Some(&Json::Num(2.0)));
        let acc = back.get("accounted").expect("accounted object");
        assert_eq!(acc.get("degraded"), Some(&Json::Bool(true)));
        let steps = match back.get("steps") {
            Some(Json::Array(steps)) => steps,
            other => panic!("steps: {other:?}"),
        };
        assert_eq!(steps.len(), 2);
        assert_eq!(steps[0].get("wall_ns"), Some(&Json::Num(145.0)));
        let islands = match steps[0].get("islands") {
            Some(Json::Array(islands)) => islands,
            other => panic!("islands: {other:?}"),
        };
        assert_eq!(islands.len(), 2);
        assert_eq!(islands[0].get("kernel_ns"), Some(&Json::Num(180.0)));
    }

    #[test]
    fn imbalance_summary_normalizes_per_worker() {
        let m = RunMetrics::aggregate(&synthetic());
        let im = m.imbalance_summary().unwrap();
        assert_eq!(im.steps, 2);
        // Step 0: island 0 has 2 workers × 180 ns summed → 90 ns per
        // worker; island 1 has 1 worker × 50 ns → 50 ns. max = 90,
        // mean = 230 / 3, excess = 1 × (90 − 50) = 40.
        // Step 1: single island (60 ns, 1 worker): max = mean = 60,
        // excess = 0.
        let max0 = 90.0;
        let mean0 = 230.0 / 3.0;
        assert!((im.max_pw_ns - (max0 + 60.0) / 2.0).abs() < 1e-9, "{im:?}");
        assert!(
            (im.mean_pw_ns - (mean0 + 60.0) / 2.0).abs() < 1e-9,
            "{im:?}"
        );
        assert!((im.excess_ns - 20.0).abs() < 1e-9, "{im:?}");
        assert!(im.ratio > 1.0, "{im:?}");

        // A perfectly balanced run reports ratio 1.0, excess 0.
        let balanced = Drained {
            events: vec![
                ev(SpanKind::Kernel, 0, 100, 0, 0, 0, [0; 3]),
                ev(SpanKind::Kernel, 0, 100, 1, 0, 0, [0; 3]),
            ],
            dropped: 0,
        };
        let im = RunMetrics::aggregate(&balanced)
            .imbalance_summary()
            .unwrap();
        assert_eq!(im.ratio, 1.0);
        assert_eq!(im.excess_ns, 0.0);
    }
}
