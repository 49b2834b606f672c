//! Zero-overhead runtime tracing for the islands-of-cores executors.
//!
//! The paper's argument is entirely about *where time goes* — kernel
//! work vs. synchronization vs. redundant halo recomputation — so the
//! executors need a recorder that can answer that question without
//! perturbing the thing it measures. This crate provides one:
//!
//! * **Spans, not logs.** An [`Event`] is a closed interval on the
//!   process-wide monotonic clock, tagged with the island / rank / step
//!   / stage / block it belongs to and a [`SpanKind`] saying which phase
//!   of the execution it covers. Barrier events carry their spin /
//!   yield / park split in [`Event::aux`]; kernel events carry computed
//!   and redundant cell counts.
//! * **Per-thread ring buffers.** Each recording thread owns a
//!   preallocated single-producer ring ([`set_ring_capacity`] slots).
//!   Recording is a bump of a thread-local cursor plus one slot write —
//!   no locks, no allocation, no cross-thread traffic on the hot path.
//!   When a ring wraps, the oldest events are overwritten and counted
//!   in [`Drained::dropped`] rather than silently lost.
//! * **One-branch disabled path.** Everything is gated on a single
//!   relaxed [`AtomicBool`]; with tracing off, an instrumentation site
//!   costs one relaxed load and a predictable branch — no clock read,
//!   no thread-local access, and crucially **zero allocations**, which
//!   is what keeps the `mpdata` steady-state allocation pin green with
//!   tracing compiled in.
//!
//! Collection is two-phase: a [`Session`] enables recording for one
//! measured run, then [`Session::finish`] disables it and drains every
//! ring into a time-sorted [`Drained`] event list. Aggregation
//! ([`metrics`]) and Chrome trace-event export ([`chrome`]) are pure
//! functions of that list.
//!
//! # Concurrent drain protocol
//!
//! Rings are single-producer: only the owning thread writes. Reads,
//! however, are allowed **mid-run**: each slot carries a sequence
//! number (seqlock-style) that lets any reader — the final quiescent
//! drain or the live [`collector`] thread — take a torn-read-free
//! snapshot while the producer keeps pushing. Slot payloads are stored
//! as plain `u64` words through relaxed-or-stronger atomics, so a
//! racing read is *well-defined* (never UB) and merely **discarded**
//! when the sequence check says the producer recycled the slot
//! mid-read. Overwritten and in-flight slots are counted explicitly
//! ([`Drained::dropped`], [`CollectStats`]) instead of silently lost.
//!
//! The protocol, for push index `n` landing in slot `i = n % capacity`
//! (`seq` starts at 0; `2n+1` marks "push n in progress", `2n+2` marks
//! "push n committed"):
//!
//! ```text
//! producer (push n)                reader (window first!)
//! seq[i] = 2n+1      (Relaxed)     pushed                (Acquire)
//! words[i][..] = ev  (Release ×8)  then, for each n < pushed:
//! seq[i] = 2n+2      (Relaxed)     s1 = seq[i]           (Relaxed)
//! pushed = n+1       (Release)     if s1 != 2n+2: recycled/unpublished
//!                                  w = words[i][..]      (Acquire ×8)
//!                                  s2 = seq[i]           (Relaxed)
//!                                  if s2 != s1: recycled (discard w)
//! ```
//!
//! Why this is enough (the full argument is in DESIGN.md §6.8): every
//! reader first `Acquire`s the publish counter, pairing with the
//! producer's `Release` publish store — and push `n`'s commit and word
//! stores precede the publish of any count `> n` on the owning thread,
//! so for every slot the window names, coherence floors `s1` at `2n+2`
//! and floors the word reads at push `n`'s words (this is also what
//! keeps `CollectStats::unpublished` at 0, and why the commit store
//! and `s1` load are blessed `Relaxed` demotions). The remaining race
//! is the producer wrapping around and re-writing the slot as push
//! `m > n` mid-read: if some word read returns one of push `m`'s
//! values, that `Acquire` word load synchronizes with push `m`'s
//! `Release` word store, which makes push `m`'s in-progress marker
//! `2m+1` (sequenced before its word stores) visible — so the `s2`
//! re-check, even `Relaxed`, must observe `seq[i] >= 2m+1 != s1` by
//! coherence and the torn mix is discarded. The protocol is
//! model-checked exhaustively (`ring-publish`, `ring-drain` scenarios)
//! and every ordering is proven one-step-minimal or demoted with the
//! checker's blessing; the load-bearing ones are pinned as caught
//! mutants.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

// The ring's shared pieces — per-slot sequence numbers, slot payload
// words and the publish counter — go through the model-checking seam:
// plain `AtomicU64` in real builds, checker shims under `--features
// model` (see the `model_support` module and DESIGN.md §6.6).
#[cfg(not(feature = "model"))]
use std::sync::atomic::AtomicU64 as SeamAtomicU64;

#[cfg(feature = "model")]
use islands_modelcheck::ModelAtomicU64 as SeamAtomicU64;

/// Ordering resolution for the ring's named sites: identity in real
/// builds, the checker's weaken-override map under `model`.
#[cfg(not(feature = "model"))]
#[inline(always)]
fn seam_ord(_site: &'static str, default: Ordering) -> Ordering {
    default
}

#[cfg(feature = "model")]
fn seam_ord(site: &'static str, default: Ordering) -> Ordering {
    islands_modelcheck::site::resolve(site, default)
}

pub mod chrome;
#[cfg(not(feature = "model"))]
pub mod collector;
pub mod export;
pub mod histogram;
pub mod json;
pub mod metrics;
pub mod registry;
#[cfg(not(feature = "model"))]
pub mod serve;

/// Island tag for events recorded outside any island (e.g. pool
/// dispatch on the caller thread).
pub const NO_ISLAND: u32 = u32::MAX;

/// Default per-thread ring capacity, in events.
pub const DEFAULT_RING_CAPACITY: usize = 1 << 16;

/// Which phase of the execution a span covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// Stencil stage sweep over one (block, stage) epoch slice.
    /// `aux = [computed_cells, redundant_cells, 0]`.
    Kernel,
    /// Wait at a team-scoped barrier. `aux = [spin_ns, yield_ns,
    /// park_ns]`, which sum exactly to `dur_ns`.
    TeamBarrier,
    /// Wait at the once-per-step global barrier. Same `aux` contract
    /// as [`SpanKind::TeamBarrier`].
    GlobalBarrier,
    /// Serial buffer swap between time steps.
    Swap,
    /// A whole pool broadcast, recorded on the caller thread
    /// (island = [`NO_ISLAND`]). `aux = [workers, 0, 0]`.
    Dispatch,
}

impl SpanKind {
    /// Stable lowercase category name (used by the Chrome export).
    pub fn category(self) -> &'static str {
        match self {
            SpanKind::Kernel => "kernel",
            SpanKind::TeamBarrier => "team_barrier",
            SpanKind::GlobalBarrier => "global_barrier",
            SpanKind::Swap => "swap",
            SpanKind::Dispatch => "dispatch",
        }
    }
}

/// One recorded span. 64 bytes, `Copy`, preallocated in rings.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// Phase of execution this span covers.
    pub kind: SpanKind,
    /// Start, nanoseconds since the session clock epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Kind-specific payload (see [`SpanKind`] docs).
    pub aux: [u64; 3],
    /// Island (team) index, or [`NO_ISLAND`].
    pub island: u32,
    /// Rank within the island.
    pub rank: u32,
    /// Time step the span belongs to.
    pub step: u32,
    /// Stage id for kernel spans, 0 otherwise.
    pub stage: u16,
    /// Block index for kernel spans, 0 otherwise.
    pub block: u16,
}

/// Number of `u64` words in the ring-slot encoding of an [`Event`].
const EVENT_WORDS: usize = 8;

impl Event {
    /// End of the span, nanoseconds since the session clock epoch.
    pub fn end_ns(&self) -> u64 {
        self.start_ns + self.dur_ns
    }

    /// Packs the event into the fixed word layout the ring slots use.
    /// Word-wise atomic slot storage is what makes the concurrent
    /// drain well-defined: a torn read mixes *words*, never bytes, and
    /// the per-slot sequence check discards any mix.
    fn encode(&self) -> [u64; EVENT_WORDS] {
        [
            self.kind as u64,
            self.start_ns,
            self.dur_ns,
            self.aux[0],
            self.aux[1],
            self.aux[2],
            ((self.island as u64) << 32) | self.rank as u64,
            ((self.step as u64) << 32) | ((self.stage as u64) << 16) | self.block as u64,
        ]
    }

    /// Inverse of [`Event::encode`]. Total on any input (an
    /// out-of-range kind falls back to `Kernel`) so a decode can never
    /// panic — callers only decode words that passed the sequence
    /// validation, but mutated-ordering model runs exercise the
    /// fallback.
    fn decode(w: [u64; EVENT_WORDS]) -> Event {
        let kind = match w[0] {
            1 => SpanKind::TeamBarrier,
            2 => SpanKind::GlobalBarrier,
            3 => SpanKind::Swap,
            4 => SpanKind::Dispatch,
            _ => SpanKind::Kernel,
        };
        Event {
            kind,
            start_ns: w[1],
            dur_ns: w[2],
            aux: [w[3], w[4], w[5]],
            island: (w[6] >> 32) as u32,
            rank: w[6] as u32,
            step: (w[7] >> 32) as u32,
            stage: (w[7] >> 16) as u16,
            block: w[7] as u16,
        }
    }
}

/// An event together with the dense id of the thread that recorded it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TaggedEvent {
    /// Registration index of the recording thread (Chrome `tid`).
    pub thread: u32,
    /// The span.
    pub ev: Event,
}

/// Everything one session recorded, time-sorted.
#[derive(Clone, Debug, Default)]
pub struct Drained {
    /// All surviving events, sorted by `start_ns`.
    pub events: Vec<TaggedEvent>,
    /// Events overwritten by ring wrap-around before the drain.
    pub dropped: u64,
}

// ---------------------------------------------------------------------
// Recorder state
// ---------------------------------------------------------------------

/// The one global gate. Relaxed loads on the hot path; the `SeqCst`
/// stores in `Session` bracket the run.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Bumped by [`clear`]; threads whose local ring belongs to an older
/// generation re-register lazily on their next record.
static GENERATION: AtomicU64 = AtomicU64::new(1);

/// Ring capacity applied to rings registered after the last change.
static RING_CAPACITY: AtomicUsize = AtomicUsize::new(DEFAULT_RING_CAPACITY);

/// Process-wide clock epoch; all `*_ns` values are offsets from this.
static EPOCH: OnceLock<Instant> = OnceLock::new();

static REGISTRY: Mutex<Vec<Arc<Ring>>> = Mutex::new(Vec::new());

static SESSION_LOCK: Mutex<()> = Mutex::new(());

/// Live "newest step started" gauge fed by [`set_step`] (see
/// [`live_step`]).
static LIVE_STEP: AtomicU64 = AtomicU64::new(0);

/// One ring slot: a seqlock sequence number plus the event payload as
/// plain words. `seq == 2n+1` means push `n` is in progress, `2n+2`
/// means push `n` is committed; 0 means never written.
struct Slot {
    seq: SeamAtomicU64,
    words: [SeamAtomicU64; EVENT_WORDS],
}

impl Slot {
    fn new() -> Slot {
        Slot {
            seq: SeamAtomicU64::new(0),
            words: [(); EVENT_WORDS].map(|()| SeamAtomicU64::new(0)),
        }
    }
}

/// What a validated slot read produced.
enum SlotRead {
    /// The sequence check passed; the words are push `n`'s, untorn.
    Valid(Event),
    /// The producer recycled the slot for a later push (before or
    /// during the read); the event is lost to this reader.
    Recycled,
    /// The slot's commit is not visible even though the publish
    /// counter covers it — impossible under the protocol's orderings,
    /// counted (never silenced) so the model checker can pin the
    /// publish/window edge.
    Unpublished,
}

/// Accounting for one [`Ring::collect`] pass.
#[derive(Clone, Copy, Debug, Default)]
pub struct CollectStats {
    /// Cursor for the next pass: the publish count this pass observed.
    pub next: u64,
    /// Events lost to this reader: overwritten before the pass reached
    /// them, or recycled mid-read.
    pub overwritten: u64,
    /// Protocol-violation count (see [`SlotRead::Unpublished`]);
    /// always 0 under the shipped orderings.
    pub unpublished: u64,
}

/// A single-producer event ring with seqlock-validated concurrent
/// reads. Only the owning thread writes; any thread may `collect` or
/// `snapshot` at any time (see the module docs for the protocol).
struct Ring {
    slots: Box<[Slot]>,
    pushed: SeamAtomicU64,
    thread: u32,
}

impl Ring {
    fn new(capacity: usize, thread: u32) -> Ring {
        Ring {
            slots: (0..capacity.max(1))
                .map(|_| Slot::new())
                .collect::<Vec<_>>()
                .into_boxed_slice(),
            pushed: SeamAtomicU64::new(0),
            thread,
        }
    }

    /// Owner-thread push: mark the slot in-progress, write the payload
    /// words, commit the slot, then publish the new count.
    fn push(&self, ev: Event) {
        // ordering: Relaxed — only the owning thread writes `pushed`,
        // so the reserve read observes its own last store (coherence);
        // no other thread's writes are involved.
        let n = self
            .pushed
            .load(seam_ord("ring.reserve-load", Ordering::Relaxed));
        let slot = &self.slots[(n % self.slots.len() as u64) as usize];
        // ordering: Relaxed — the in-progress marker needs no edge of
        // its own: any reader that could observe this slot's new words
        // does so through an Acquire word load pairing with a Release
        // word store below, and that edge already makes this
        // (sequenced-earlier) marker visible to the reader's re-check.
        slot.seq.store(
            2 * n + 1,
            seam_ord("ring.slot-begin-store", Ordering::Relaxed),
        );
        for (w, v) in slot.words.iter().zip(ev.encode()) {
            // ordering: Release — two jobs: pairs with the reader's
            // Acquire word load so a wrapped-around rewrite drags the
            // in-progress marker into view (torn reads get discarded by
            // the s2 re-check), and keeps each word ordered before the
            // commit store below.
            w.store(v, seam_ord("ring.slot-word-store", Ordering::Release));
        }
        // ordering: Relaxed — demoted from Release with the checker's
        // blessing: every reader reaches this slot only through a
        // collect window it Acquired from `ring.publish-store`, which
        // program-order-follows this commit — that edge already orders
        // both the seq value and the words; the wrap race is covered
        // by the word-store/word-load edge plus the s2 re-check. The
        // word stores above stay ordered before this store on the
        // owning thread by program order alone.
        slot.seq.store(
            2 * n + 2,
            seam_ord("ring.slot-commit-store", Ordering::Relaxed),
        );
        // ordering: Release — publishes the count: a reader that
        // Acquires `pushed == n+1` inherits every commit store above,
        // so the collect window never names a slot whose commit is
        // invisible (`CollectStats::unpublished` stays 0).
        self.pushed
            .store(n + 1, seam_ord("ring.publish-store", Ordering::Release));
    }

    /// Seqlock-validated read of push index `n`'s slot.
    ///
    /// Sound only for `n` inside a window the caller obtained from an
    /// `Acquire` load of `pushed` (`ring.window-load`): the demoted
    /// `Relaxed` orderings below lean on that edge — see the module
    /// docs.
    fn read_slot(&self, n: u64) -> SlotRead {
        let slot = &self.slots[(n % self.slots.len() as u64) as usize];
        let committed = 2 * n + 2;
        // ordering: Relaxed — demoted from Acquire with the checker's
        // blessing: callers only pass `n` inside a window Acquired
        // from `ring.publish-store`, and push n's commit precedes that
        // publish on the owning thread, so coherence already floors
        // this load at `2n+2` and floors the word loads at push n's
        // words; a concurrent recycler is caught by the word-load
        // Acquire edge and the s2 re-check, not by this load.
        let s1 = slot
            .seq
            .load(seam_ord("ring.slot-validate-load", Ordering::Relaxed));
        if s1 < committed {
            return SlotRead::Unpublished;
        }
        if s1 > committed {
            return SlotRead::Recycled;
        }
        let mut words = [0u64; EVENT_WORDS];
        for (out, w) in words.iter_mut().zip(slot.words.iter()) {
            // ordering: Acquire — pairs with the producer's Release
            // word store: if this load observes a *newer* push's word,
            // the edge makes that push's in-progress seq marker visible,
            // which is what forces the s2 re-check below to fail and the
            // torn mix to be discarded.
            *out = w.load(seam_ord("ring.slot-word-load", Ordering::Acquire));
        }
        // ordering: Relaxed — the re-check needs no edge of its own:
        // if any word above came from a later push, the Acquire word
        // load already made that push's seq marker visible, and
        // coherence forbids this load from returning the older `s1`.
        let s2 = slot
            .seq
            .load(seam_ord("ring.slot-recheck-load", Ordering::Relaxed));
        if s2 != committed {
            return SlotRead::Recycled;
        }
        SlotRead::Valid(Event::decode(words))
    }

    /// Concurrent drain: feeds every event with push index in
    /// `[from, pushed)` that is still readable to `sink`, in push
    /// order, and accounts for the rest. Safe to call from any thread
    /// while the producer keeps pushing; each caller owns its cursor
    /// (pass the returned `next` back in), so independent readers do
    /// not disturb each other or the final drain.
    fn collect(&self, from: u64, sink: &mut dyn FnMut(TaggedEvent)) -> CollectStats {
        // ordering: Acquire — pairs with the publish store; every slot
        // the observed window covers is committed-and-visible, which
        // keeps `unpublished` at 0.
        let pushed = self
            .pushed
            .load(seam_ord("ring.window-load", Ordering::Acquire));
        let cap = self.slots.len() as u64;
        let start = from.max(pushed.saturating_sub(cap));
        let mut stats = CollectStats {
            next: pushed,
            overwritten: start - from,
            unpublished: 0,
        };
        for n in start..pushed {
            match self.read_slot(n) {
                SlotRead::Valid(ev) => sink(TaggedEvent {
                    thread: self.thread,
                    ev,
                }),
                SlotRead::Recycled => stats.overwritten += 1,
                SlotRead::Unpublished => stats.unpublished += 1,
            }
        }
        stats
    }

    /// Surviving events in push order, plus the lost-event count.
    /// (The full-window read the final quiescent drain uses; at
    /// quiescence every in-window slot validates.)
    fn snapshot(&self) -> (Vec<TaggedEvent>, u64) {
        let mut out = Vec::new();
        let stats = self.collect(0, &mut |t| out.push(t));
        (out, stats.overwritten + stats.unpublished)
    }
}

/// Model-checker access to the production ring code.
///
/// Only compiled under `--features model`. The protocol suite in
/// `work-scheduler` drives the *same* `Ring::push` / `Ring::snapshot`
/// bodies that production uses — the seam swaps the slot cells and the
/// publish counter for checker shims, nothing else.
#[cfg(feature = "model")]
pub mod model_support {
    use super::{CollectStats, Event, Ring, TaggedEvent};

    /// A checker-instrumented per-thread ring.
    pub struct ModelRing(Ring);

    impl ModelRing {
        /// Ring with `capacity` slots owned by dense thread id `thread`.
        pub fn new(capacity: usize, thread: u32) -> Self {
            ModelRing(Ring::new(capacity, thread))
        }

        /// Production publish path (`Ring::push`).
        pub fn push(&self, ev: Event) {
            self.0.push(ev);
        }

        /// Production drain path (`Ring::snapshot`): surviving events
        /// plus the lost-event count.
        pub fn snapshot(&self) -> (Vec<TaggedEvent>, u64) {
            self.0.snapshot()
        }

        /// Production concurrent-collect path (`Ring::collect`) from
        /// cursor `from`: readable events plus the pass accounting.
        pub fn collect(&self, from: u64) -> (Vec<TaggedEvent>, CollectStats) {
            let mut out = Vec::new();
            let stats = self.0.collect(from, &mut |t| out.push(t));
            (out, stats)
        }
    }
}

#[derive(Clone, Copy)]
struct ThreadCtx {
    island: u32,
    rank: u32,
    step: u32,
}

thread_local! {
    static CTX: Cell<ThreadCtx> = const {
        Cell::new(ThreadCtx { island: NO_ISLAND, rank: 0, step: 0 })
    };
    /// `(generation, ring)`; re-registered lazily when stale.
    static LOCAL_RING: RefCell<Option<(u64, Arc<Ring>)>> = const { RefCell::new(None) };
}

/// Whether a session is currently recording. One relaxed load — this
/// is the entire cost of an instrumentation site when tracing is off.
#[inline]
pub fn is_enabled() -> bool {
    // ordering: Relaxed — a pure on/off hint read on every hot path;
    // threads that observe the flag late merely record (or skip) a few
    // extra events, and `drain` is only called at quiescence anyway.
    ENABLED.load(Ordering::Relaxed)
}

/// Nanoseconds since the session clock epoch. Reads the monotonic
/// clock unconditionally — pair with [`now`] on hot paths.
pub fn now_ns() -> u64 {
    EPOCH
        .get_or_init(Instant::now)
        .elapsed()
        .as_nanos()
        .min(u64::MAX as u128) as u64
}

/// `Some(now_ns())` when recording, `None` otherwise. The idiomatic
/// span-open: when this returns `None` the caller skips both the
/// closing clock read and the record.
#[inline]
pub fn now() -> Option<u64> {
    if is_enabled() {
        Some(now_ns())
    } else {
        None
    }
}

/// Tags subsequent events on this thread with an island and rank.
/// No-op while disabled.
pub fn set_island_rank(island: u32, rank: u32) {
    if !is_enabled() {
        return;
    }
    CTX.with(|c| {
        let mut ctx = c.get();
        ctx.island = island;
        ctx.rank = rank;
        c.set(ctx);
    });
}

/// Tags subsequent events on this thread with a time step. No-op
/// while disabled. Also advances the process-wide [`live_step`] gauge,
/// so a live scrape sees step progress the moment a replay *starts* a
/// step, not only once its first spans are collected.
pub fn set_step(step: u32) {
    if !is_enabled() {
        return;
    }
    // ordering: Relaxed — advisory monotone gauge with no payload
    // behind it; the RMW keeps concurrent threads' maxima exact.
    LIVE_STEP.fetch_max(u64::from(step), Ordering::Relaxed);
    CTX.with(|c| {
        let mut ctx = c.get();
        ctx.step = step;
        c.set(ctx);
    });
}

/// Newest time step any thread has tagged via [`set_step`] this
/// session (0 before the first tag; reset by [`clear`]).
pub fn live_step() -> u64 {
    // ordering: Relaxed — advisory gauge read (see `set_step`).
    LIVE_STEP.load(Ordering::Relaxed)
}

/// Records a closed span `[start_ns, end_ns]` with this thread's
/// current island/rank/step tags. No-op while disabled (one relaxed
/// load); saturates to a zero-length span if `end_ns < start_ns`.
pub fn record(kind: SpanKind, start_ns: u64, end_ns: u64, stage: u16, block: u16, aux: [u64; 3]) {
    if !is_enabled() {
        return;
    }
    let ctx = CTX.with(Cell::get);
    let ev = Event {
        kind,
        start_ns,
        dur_ns: end_ns.saturating_sub(start_ns),
        aux,
        island: ctx.island,
        rank: ctx.rank,
        step: ctx.step,
        stage,
        block,
    };
    LOCAL_RING.with(|slot| {
        let mut slot = slot.borrow_mut();
        // ordering: Acquire — pairs with the AcqRel bump in `clear` so
        // a thread that observes the new generation also observes the
        // registry mutation that preceded it (then re-registers under
        // the registry lock, which carries the rest).
        let generation = GENERATION.load(Ordering::Acquire);
        let stale = match slot.as_ref() {
            Some((g, _)) => *g != generation,
            None => true,
        };
        if stale {
            let mut registry = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
            let ring = Arc::new(Ring::new(
                // ordering: Relaxed — a sizing knob, not a
                // synchronization edge; a racing `set_ring_capacity`
                // legitimately applies to rings registered "from now
                // on" (documented contract).
                RING_CAPACITY.load(Ordering::Relaxed),
                registry.len() as u32,
            ));
            registry.push(Arc::clone(&ring));
            *slot = Some((generation, ring));
        }
        slot.as_ref().expect("ring registered above").1.push(ev);
    });
}

/// Sets the per-thread ring capacity (events) for rings registered
/// from now on. Size for the run: a dropped-event count in the drain
/// means the capacity was too small for the traced window.
pub fn set_ring_capacity(capacity: usize) {
    // ordering: Relaxed — store half of the sizing knob (see the
    // registration-time load).
    RING_CAPACITY.store(capacity.max(1), Ordering::Relaxed);
}

/// Discards all recorded events and detaches every thread's ring.
pub fn clear() {
    let mut registry = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    registry.clear();
    // ordering: Relaxed — advisory gauge reset (see `set_step`); the
    // generation bump below is the real session boundary.
    LIVE_STEP.store(0, Ordering::Relaxed);
    // ordering: AcqRel — the release half publishes the registry clear
    // above to threads that acquire the new generation in `record`; the
    // acquire half orders consecutive clears against each other.
    GENERATION.fetch_add(1, Ordering::AcqRel);
}

/// Drains every registered ring into one time-sorted event list. Call
/// only at producer quiescence (see the module docs).
pub fn drain() -> Drained {
    let registry = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    let mut events = Vec::new();
    let mut dropped = 0;
    for ring in registry.iter() {
        let (mut evs, d) = ring.snapshot();
        events.append(&mut evs);
        dropped += d;
    }
    events.sort_by_key(|t| (t.ev.start_ns, t.thread));
    Drained { events, dropped }
}

/// RAII guard for one traced run.
///
/// `start` takes a process-wide session lock (serializing concurrent
/// traced tests in one binary), clears stale events and enables
/// recording; [`Session::finish`] disables recording and drains.
/// Dropping an unfinished session just disables recording.
pub struct Session {
    guard: Option<MutexGuard<'static, ()>>,
}

impl Session {
    /// Begins recording. Blocks while another session is active.
    pub fn start() -> Session {
        let guard = SESSION_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        // Initialize the epoch outside the measured window.
        let _ = now_ns();
        clear();
        // ordering: SeqCst — session flips are rare (one per traced
        // run, under the session lock) and must not reorder around the
        // epoch/clear setup above; strength is free here and keeps the
        // enable/disable pair trivially ordered.
        ENABLED.store(true, Ordering::SeqCst);
        Session { guard: Some(guard) }
    }

    /// Stops recording and returns everything captured.
    pub fn finish(mut self) -> Drained {
        // ordering: SeqCst — same contract as the enable store; the
        // drain below additionally serializes on the registry lock.
        ENABLED.store(false, Ordering::SeqCst);
        let drained = drain();
        self.guard.take();
        drained
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        // A finished session has already stopped recording and released
        // the session lock; storing here would switch off whichever
        // session another thread started since.
        if self.guard.is_some() {
            // ordering: SeqCst — same contract as `Session::finish`.
            ENABLED.store(false, Ordering::SeqCst);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(kind: SpanKind, start: u64, end: u64) {
        record(kind, start, end, 0, 0, [0; 3]);
    }

    #[test]
    fn decode_round_trips_and_falls_back_to_kernel() {
        let kinds = [
            SpanKind::Kernel,
            SpanKind::TeamBarrier,
            SpanKind::GlobalBarrier,
            SpanKind::Swap,
            SpanKind::Dispatch,
        ];
        for kind in kinds {
            let ev = Event {
                kind,
                start_ns: 5,
                dur_ns: 7,
                aux: [1, 2, 3],
                island: 4,
                rank: 2,
                step: 9,
                stage: 16,
                block: 3,
            };
            assert_eq!(Event::decode(ev.encode()), ev);
        }
        for word in [5, 6, u64::MAX] {
            let mut w = [0; EVENT_WORDS];
            w[0] = word;
            assert_eq!(Event::decode(w).kind, SpanKind::Kernel, "kind word {word}");
        }
    }

    #[test]
    fn disabled_recording_is_a_no_op() {
        // No session: record/set_* must not register rings or events.
        // (Runs under the session lock to avoid racing other tests.)
        let guard = SESSION_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        clear();
        assert!(!is_enabled());
        set_island_rank(3, 1);
        set_step(9);
        span(SpanKind::Kernel, 0, 10);
        assert!(drain().events.is_empty());
        drop(guard);
    }

    #[test]
    fn session_captures_tagged_events_in_time_order() {
        let s = Session::start();
        set_island_rank(2, 1);
        set_step(7);
        record(SpanKind::Kernel, 50, 90, 4, 3, [1000, 40, 0]);
        record(SpanKind::TeamBarrier, 10, 30, 0, 0, [20, 0, 0]);
        let d = s.finish();
        assert_eq!(d.events.len(), 2);
        assert_eq!(d.dropped, 0);
        // Sorted by start time, not record order.
        assert_eq!(d.events[0].ev.kind, SpanKind::TeamBarrier);
        let k = &d.events[1].ev;
        assert_eq!(
            (k.island, k.rank, k.step, k.stage, k.block),
            (2, 1, 7, 4, 3)
        );
        assert_eq!(k.aux, [1000, 40, 0]);
        assert_eq!(k.dur_ns, 40);
        assert_eq!(k.end_ns(), 90);
        // After finish, recording is off again (checked under the lock:
        // another test's session may have started since).
        let _idle = SESSION_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        assert!(!is_enabled());
    }

    #[test]
    fn ring_wrap_counts_dropped_events() {
        let s = Session::start();
        set_ring_capacity(8);
        // Force this thread onto a fresh (small) ring.
        clear();
        for i in 0..20 {
            span(SpanKind::Swap, i, i + 1);
        }
        set_ring_capacity(DEFAULT_RING_CAPACITY);
        let d = s.finish();
        assert_eq!(d.events.len(), 8);
        assert_eq!(d.dropped, 12);
        // The survivors are the newest pushes.
        assert_eq!(d.events.first().unwrap().ev.start_ns, 12);
        assert_eq!(d.events.last().unwrap().ev.start_ns, 19);
    }

    #[test]
    fn sessions_are_isolated() {
        let s1 = Session::start();
        span(SpanKind::Swap, 1, 2);
        assert_eq!(s1.finish().events.len(), 1);
        let s2 = Session::start();
        span(SpanKind::Swap, 3, 4);
        span(SpanKind::Swap, 5, 6);
        let d = s2.finish();
        // Events from session 1 were cleared.
        assert_eq!(d.events.len(), 2);
        assert_eq!(d.events[0].ev.start_ns, 3);
    }

    #[test]
    fn events_from_many_threads_merge() {
        let s = Session::start();
        let mut handles = Vec::new();
        for t in 0..4u64 {
            handles.push(std::thread::spawn(move || {
                set_island_rank(t as u32, 0);
                for i in 0..10 {
                    span(SpanKind::Kernel, t * 1000 + i, t * 1000 + i + 1);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let d = s.finish();
        assert_eq!(d.events.len(), 40);
        // Threads got distinct registration ids.
        let mut threads: Vec<u32> = d.events.iter().map(|t| t.thread).collect();
        threads.sort_unstable();
        threads.dedup();
        assert_eq!(threads.len(), 4);
        // Global ordering by start time holds across threads.
        for w in d.events.windows(2) {
            assert!(w[0].ev.start_ns <= w[1].ev.start_ns);
        }
    }

    #[test]
    fn clock_is_monotonic_and_shared() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
    }
}
