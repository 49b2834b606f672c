//! Persistent execution plans: plan once, replay every step.
//!
//! `IslandsExecutor::step` used to re-partition the domain, re-run the
//! wavefront block planner per island, re-create (and zero-fill) every
//! scratch store, and allocate a fresh full-domain output array on
//! *every* time step. Once blocking amortizes memory traffic, that
//! churn — plus per-stage dispatch — dominates the per-sweep cost. A
//! [`StepPlan`] hoists all of it out of the loop, in two layers:
//!
//! * [`StepSchedule`] — the pure tables: per island and fused step,
//!   the blocks the planner chose ([`StepSchedule::blocks`]; a tile is
//!   a block too, whose stage chain one rank runs whole), and the
//!   scratch footprints, built once from the problem, the partition
//!   and the [`ScheduleKnobs`] with no buffer allocated. A sweep's
//!   kernel, buffers and fence follow from its stage, and a work
//!   unit's slice of it is the closed-form `rank_slice`, taken when the
//!   unit runs. It is the **only** derivation of the island schedule in
//!   the workspace: the replay below walks these tables, and
//!   [`StepSchedule::accesses`] streams them to the `islands-analysis`
//!   prover, so what is proved is what runs;
//! * `StepPlan` — the schedule plus what it says to allocate: the
//!   island [`ParStore`]s (each intermediate a sliding window of a few
//!   i-planes, [`ScratchWindow`], persisting across steps and never
//!   re-zeroed — the prover's `uncovered-read` rule shows every
//!   scratch read is written earlier in the same fused step), the
//!   claim queues, the x slots and the two full-domain arrays
//!   (`cur`/`out`) `run` ping-pongs by pointer swap under the
//!   once-per-epoch global barrier. Cached and rebuilt whenever the
//!   domain or the executor's `PlanConfig` stops matching.
//!
//! The paper's baselines are the same tables in a second shape,
//! [`StepSchedule::stage_synchronous`].
//!
//! # Temporal blocking (`fuse_steps = k`)
//!
//! With `fuse_steps = k > 1` the plan fuses k whole time steps into one
//! replay epoch, so `run` pays the global-barrier pair once per k steps
//! instead of once per step. Each team's table then holds k
//! *fused-step* sections of blocks: the last section computes the
//! island's own part of the final step; every earlier section's target
//! is enlarged backwards by one cumulative stencil halo
//! (`StageGraph::external_read_regions` on the advected field), so a
//! team can compute step s+1 of its enlarged region entirely from its
//! *own* step-s values — no other island's output is ever read between
//! global barriers. Intermediate advected fields ping-pong through two
//! team-private x-slot buffers, sized to the first (widest) fused step;
//! the last fused step writes the shared output exactly as before. A
//! `run` whose step count is not a multiple of k replays a tail epoch
//! made of the *last* `steps mod k` sections, which keeps every
//! section's enlargement exactly right; a one-step `run` is the
//! one-section tail, identical to an unfused plan.
//!
//! Replay is bit-identical to the allocate-per-step path for every k:
//! the kernels are pointwise in their declared neighborhoods, so
//! computing a cell inside an enlarged region produces the same bits as
//! computing it as somebody's "own" cell, and every scratch read sees
//! the same in-step value. That the reads are covered, and that the
//! final stages cover the whole output, are the prover's
//! `uncovered-read` and `uncovered-output` rules over
//! [`StepSchedule::accesses`] — the replay keeps no copy of either.

use crate::exec::{rank_slice, ExtFields, ParStore};
use crate::fields::MpdataFields;
use crate::graph::MpdataProblem;
use crate::kernels::Boundary;
use std::fmt;
use std::sync::Arc;
use stencil_engine::{
    choose_tile, tile_grid, Array3, Axis, BlockPlan, BlockPlanner, FieldId, FieldRole,
    PlanBlocksError, Region3, StageGraph,
};
use work_scheduler::{AccessTracker, ChunkQueue, DisjointCell, TeamCtx, TeamSpec, WorkerPool};

/// Default cache budget per block: the per-core share a block's windows
/// are sized for — the 16 MiB L3 of the paper's 8-core Xeon E5-4627v2
/// split over its cores, and the reference host's private L2.
pub const DEFAULT_CACHE_BYTES: usize = 2 << 20;

/// How each epoch's work units are assigned to the ranks of a team.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum SchedulePolicy {
    /// One fixed slice per rank (the paper's schedule): zero scheduling
    /// overhead, optimal for homogeneous stages.
    #[default]
    Static,
    /// Intra-island self-scheduling: every epoch is cut into
    /// `ranks × chunks_per_rank` slices and ranks claim them from a
    /// per-epoch [`ChunkQueue`] until drained. Tiled plans
    /// ([`TileMode`] other than `Off`) ignore `chunks_per_rank`: ranks
    /// claim whole tiles from one queue per fused step. A chunk's slice is
    /// closed-form and the queue reset is one atomic store, so the
    /// steady-state replay stays allocation-free; epoch fencing is
    /// unchanged, so plan-time disjointness still proves the schedule
    /// for *any* claim order.
    Dynamic {
        /// Chunks per rank per epoch (clamped to at least 1). More
        /// chunks → finer-grained stealing, more claim traffic.
        chunks_per_rank: usize,
    },
}

impl SchedulePolicy {
    /// Work units per epoch for a team of `ranks`.
    fn units_for(self, ranks: usize) -> usize {
        match self {
            SchedulePolicy::Static => ranks,
            SchedulePolicy::Dynamic { chunks_per_rank } => ranks * chunks_per_rank.max(1),
        }
    }
}

/// Cache-tiled stage fusion: how (and whether) each fused-step target
/// is cut into `(i, j)` tiles whose whole stage chain runs back-to-back
/// on tile-local scratch.
///
/// Untiled replay sweeps each stage across one wavefront block of the
/// island's part — full extent in `J` and `K` — with the intermediates
/// in team-shared sliding windows ([`ScratchWindow`]) sized by the
/// block depth, and a team barrier after every stage. Tiled replay
/// instead partitions the target into tiles sized so one tile's scratch
/// (tile + cumulative halo, times the peak live buffer count) stays
/// resident in L2, and executes all 17 stages of one tile before moving
/// to the next: intermediates never leave cache, and the per-stage team
/// barriers collapse to one per fused step. Tile faces pay redundant
/// halo recomputation — the overlapped-tiling trade the wavefront
/// blocks avoid along `I`, here made in both `I` and `J`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum TileMode {
    /// Per-stage sweeps (the classic replay; the default).
    #[default]
    Off,
    /// Tile extents chosen from the plan's cache budget by
    /// [`stencil_engine::choose_tile`].
    Auto,
    /// Explicit tile extents along `I` and `J` (clamped to ≥ 1).
    Fixed {
        /// Tile extent along `I`.
        ti: usize,
        /// Tile extent along `J`.
        tj: usize,
    },
}

/// Everything besides the problem, the domain and the partition that
/// shapes a [`StepSchedule`] — the executor's builder knobs as one
/// value, so they travel as a unit from the builder to the plan key
/// and to [`StepSchedule::build`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScheduleKnobs {
    /// Per-block cache budget of each island (the wavefront block
    /// depth and the `Auto` tile extents follow from it).
    pub cache_bytes: usize,
    /// Axis along which a team splits each stage sweep among its cores.
    /// `None` (the default) leaves it to [`StepSchedule::build`], which
    /// cuts each team along its longest axis among `I` and `J`: `I` —
    /// whole contiguous planes per rank, one halo plane between two
    /// ranks — when every sweep of the team is at least as deep in `i`
    /// as it is wide in `j`, else `J` (thin wavefront blocks).
    /// [`StepSchedule::rank_axis`] reports the outcome.
    pub split_axis: Option<Axis>,
    /// How epoch work units are handed to ranks.
    pub schedule: SchedulePolicy,
    /// Fused time steps per replay epoch (values below 1 mean 1 =
    /// classic per-step synchronization).
    pub fuse_steps: usize,
    /// Tile-fused replay mode.
    pub tile: TileMode,
}

impl Default for ScheduleKnobs {
    fn default() -> Self {
        ScheduleKnobs {
            cache_bytes: DEFAULT_CACHE_BYTES,
            split_axis: None,
            schedule: SchedulePolicy::Static,
            fuse_steps: 1,
            tile: TileMode::Off,
        }
    }
}

/// How the domain is divided among islands.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum PartitionKind {
    /// 1-D split along an axis (variant A = `I`, variant B = `J`). With
    /// a single team this is the whole domain — the pure (3+1)D
    /// schedule.
    Axis(Axis),
    /// Explicit parts, one per team in order (e.g. 2-D island grids).
    Explicit(Vec<Region3>),
}

impl PartitionKind {
    /// The island partition of `domain`: one part per team.
    ///
    /// # Panics
    ///
    /// Panics if an explicit partition does not disjointly cover
    /// `domain` or disagrees with `team_count`.
    pub(crate) fn parts(&self, domain: Region3, team_count: usize) -> Vec<Region3> {
        match self {
            PartitionKind::Axis(axis) => domain.split(*axis, team_count),
            PartitionKind::Explicit(parts) => {
                assert_eq!(parts.len(), team_count, "one part per team required");
                let covered: usize = parts.iter().map(|p| p.cells()).sum();
                assert_eq!(covered, domain.cells(), "partition must cover the domain");
                for (n, a) in parts.iter().enumerate() {
                    assert!(domain.contains_region(*a), "part {n} outside domain");
                    for b in &parts[n + 1..] {
                        assert!(!a.overlaps(*b), "parts overlap");
                    }
                }
                parts.clone()
            }
        }
    }
}

/// The executor-side half of a cached [`StepPlan`]'s key (the other
/// half is the domain of the fields it is run on). A `run` call whose
/// domain or config no longer equal the cached plan's rebuilds
/// it; the comparison is the derived, allocation-free `==`, so cache
/// hits cost a few field compares.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct PlanConfig {
    pub(crate) partition: PartitionKind,
    pub(crate) knobs: ScheduleKnobs,
    /// The stage-synchronous shape ([`StepSchedule::stage_synchronous`])
    /// instead of the islands' (3+1)D one.
    pub(crate) stage_sync: bool,
}

/// One team's replay schedule. Untiled, each `(block, stage)` sweep is
/// barrier-fenced and cut into `n_units` work-unit slices along the
/// team's axis by `rank_slice` when they run: one per rank under
/// [`SchedulePolicy::Static`], `ranks × chunks_per_rank` claimed from
/// the sweep's [`ChunkQueue`] under [`SchedulePolicy::Dynamic`].
/// Tiled, a block is a tile whose stage chain a single rank runs whole
/// (`n_units = 1`), and only fused steps are fenced.
struct TeamSchedule {
    /// The axis every sweep's units slice its region along: the knob's
    /// when given, else the team's longest ([`rank_axis_of`]).
    axis: Axis,
    /// Work units per sweep (see [`SchedulePolicy::units_for`]; 1 when
    /// tiled: a rank runs a tile's whole chain).
    n_units: usize,
    /// Per fused step, its blocks in execution order (see
    /// [`StepSchedule::blocks`]; no blocks for idle islands).
    steps: Vec<Vec<BlockPlan>>,
    /// Per stage: `part ∩ region_s(domain)`, the cells a zero-overlap
    /// schedule would have this team compute. A unit's computed cells
    /// outside it are the redundant halo recomputation traced kernels
    /// report (fused steps before the last one recompute a whole
    /// widened halo band).
    needed: Vec<Region3>,
    /// Ranks in the team.
    ranks: usize,
    /// The team's own arrays, in allocation order (see
    /// [`StepSchedule::storage`]; empty for idle islands and
    /// stage-synchronous schedules).
    storage: Vec<Storage>,
}

impl TeamSchedule {
    /// Every `(block, stage)` sweep in program order, as `(fused step,
    /// block index, stage, region)`.
    fn sweeps(&self) -> impl Iterator<Item = (usize, usize, usize, Region3)> + '_ {
        self.steps.iter().enumerate().flat_map(|(ts, blocks)| {
            blocks.iter().enumerate().flat_map(move |(b, block)| {
                let regions = block.stage_regions.iter().enumerate();
                regions.map(move |(s, &r)| (ts, b, s, r))
            })
        })
    }
}

/// The storage one [`Access`] resolves to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Buffer {
    /// A full-domain array every team sees: an external input (for the
    /// advected field, `run`'s current-input buffer), the shared output
    /// or — in a stage-synchronous schedule — an intermediate.
    Shared(FieldId),
    /// One of the team-private ping-pong buffers (`0` or `1`) the
    /// advected field moves through between fused steps.
    XSlot(usize),
    /// The team's scratch buffer of an intermediate field (per-stage
    /// sweeps: shared by the team's ranks, fenced by team barriers).
    Scratch(FieldId),
    /// The executing rank's private scratch of an intermediate field,
    /// rebased to the footprint of the tile named by the access's
    /// `(team, step, slot)`.
    TileScratch(FieldId),
}

/// One region-granular read or write the replay performs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Access {
    /// The island (team) performing it.
    pub team: usize,
    /// Position in the team's program order. Per-stage sweeps: the
    /// barrier-fenced `(step, block, stage)` epoch. Tiled schedules:
    /// `step × stages + stage` — a tile's chain is serial on one rank,
    /// but only step boundaries are fenced *between* tiles.
    pub epoch: usize,
    /// The unit of concurrency within the epoch: the rank slice (static
    /// schedules), the claimable chunk (dynamic) or the tile (tiled) —
    /// any two slots of one epoch may run on different ranks.
    pub slot: usize,
    /// Fused-step index within the k-step table.
    pub step: usize,
    /// Index into `graph.stages()`.
    pub stage: usize,
    /// Block index within the island's wavefront blocking (0 for tiled
    /// schedules).
    pub block: usize,
    /// Where the access lands.
    pub buffer: Buffer,
    /// The cells touched.
    pub region: Region3,
    /// Write (`true`) or read (`false`).
    pub write: bool,
}

/// The storage behind one team's [`Buffer::Scratch`] of one field: a
/// sliding window of `planes` i-planes over the team's scratch hull,
/// plane `i` in slot `(i - hull.i.lo) mod planes`
/// ([`Array3::windowed`]). Planes `i` and `i + planes` alias, so the
/// schedule is only sound if no access reaches `planes` or more below
/// the field's write frontier — which is how `planes` is chosen, and
/// what the prover re-derives from [`StepSchedule::accesses`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScratchWindow {
    /// The island (team) owning the buffer — `0` for the full-domain
    /// arrays of a stage-synchronous schedule, which every team shares.
    pub team: usize,
    /// The intermediate field stored.
    pub field: FieldId,
    /// I-planes of storage (`hull.i.len()` = no aliasing at all).
    pub planes: usize,
    /// The logical region the buffer answers for.
    pub hull: Region3,
}

/// One array a plan allocates ([`StepSchedule::storage`]), laid out as
/// a [`ScratchWindow`]: plane `i` of `hull` in slot `(i - hull.i.lo)
/// mod planes`, `planes = hull.i.len()` for a plain array.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Storage {
    /// The owning team — `0` for the full-domain arrays all teams share.
    pub team: usize,
    /// The owning rank of a tile scratch store, `0` otherwise.
    pub rank: usize,
    /// What the array holds.
    pub buffer: Buffer,
    /// I-planes of storage.
    pub planes: usize,
    /// The logical region the array answers for.
    pub hull: Region3,
}

impl Storage {
    /// A plain array over `hull`, owned by `team`'s `rank`.
    fn plain(team: usize, rank: usize, buffer: Buffer, hull: Region3) -> Storage {
        let planes = hull.i.len();
        Storage {
            team,
            rank,
            buffer,
            planes,
            hull,
        }
    }

    /// Cells of storage.
    pub fn cells(&self) -> usize {
        self.planes * self.hull.j.len() * self.hull.k.len()
    }
}

/// The island schedule of one time step (or, with `fuse_steps = k`, one
/// k-step fused epoch) as pure tables: what every rank of every team
/// computes, in which order, over which regions, into which buffers.
/// It holds the blocks of every fused step, nothing the replay can
/// recompute (work-unit slices are closed-form, a sweep's kernel and
/// buffers follow from its stage) and none of the prover's coverage
/// rules. Owns no field data.
/// [`IslandsExecutor`](crate::IslandsExecutor) —
/// and through it [`OriginalExecutor`](crate::OriginalExecutor) and
/// [`ExchangeExecutor`](crate::ExchangeExecutor) — replays exactly
/// these tables; [`StepSchedule::accesses`] streams them to the
/// plan-time prover.
pub struct StepSchedule {
    problem: MpdataProblem,
    domain: Region3,
    /// Normalized: `fuse_steps ≥ 1`.
    knobs: ScheduleKnobs,
    teams: Vec<TeamSchedule>,
    /// Index of the final stage (the single writer of the advected
    /// output).
    final_stage: usize,
    /// See [`StepSchedule::stage_synchronous`].
    stage_sync: bool,
}

impl fmt::Debug for StepSchedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StepSchedule")
            .field("domain", &self.domain)
            .field("knobs", &self.knobs)
            .field("stage_synchronous", &self.stage_sync)
            .field("teams", &self.teams.len())
            .finish_non_exhaustive()
    }
}

/// What one team's [`TeamSchedule`] says to allocate.
struct TeamBuffers {
    /// The team's shared scratch store (per-stage sweeps).
    store: ParStore,
    /// Rank-private scratch stores of a tiled team, one per rank
    /// (empty when untiled or idle). Each holds every scratch field at
    /// its widest sweep ([`StepSchedule::storage`]), and the chain loop
    /// rebases a field to a sweep's region just before the sweep writes
    /// it, so the steady state allocates nothing.
    rank_stores: Vec<ParStore>,
    /// One preallocated claim queue per fence interval, indexed like the
    /// intervals: per `(block, stage)` sweep untiled, over its `n_units`
    /// chunks; per fused step tiled, over its tiles. Empty for static schedules, so
    /// [`StepPlan::units`] finds no queue and strides the units by rank
    /// instead. Reset between steps by one relaxed store per queue,
    /// inside the serial sections the barriers already fence — so
    /// self-scheduling adds no allocation to the steady state.
    queues: Vec<ChunkQueue>,
    /// The x slots: fused step `s < k-1` writes slot `s % 2`, fused
    /// step `s > 0` reads slot `(s-1) % 2` (see
    /// [`StepSchedule::x_dest`] / [`StepSchedule::x_source`]).
    xslots: [Option<DisjointCell<Array3>>; 2],
}

/// Heap room [`StepPlan::build`] reserves *below* a large plan's arrays
/// and frees once they are allocated. The worker pool allocates its
/// per-dispatch bookkeeping (barriers, latch, task boxes) on every
/// `run`; the allocator serves those from the lowest free chunk and,
/// finding none, carves them from the top of the heap — above the
/// arrays, where the freed remains would keep a dropped plan's arrays
/// from ever being returned to the OS. A process that rebuilds
/// executors (the benchmark's set-up loop) then re-touches every
/// recycled array in full, and on a 128×128×64 grid its peak RSS grows
/// by 25 MB. Plans with arrays under [`LARGE_ARRAY_BYTES`] skip the
/// reservation: re-faulting a few returned MB on the next build costs
/// more (a quarter of a 32×32×16 set-up) than holding on to them.
const DISPATCH_SLACK_BYTES: usize = 16 << 10;
const LARGE_ARRAY_BYTES: usize = 1 << 20;

/// A fully materialized, reusable execution plan: a [`StepSchedule`]
/// plus the per-island scratch stores and the two ping-pong domain
/// buffers it calls for, so steps 2..N of `run` allocate nothing at
/// all.
pub(crate) struct StepPlan {
    /// The executor config the plan was built for — with the
    /// schedule's domain, the plan's key.
    config: PlanConfig,
    schedule: Arc<StepSchedule>,
    teams: Vec<TeamBuffers>,
    /// `run`'s current-input buffer (`x` of the step being computed).
    cur: DisjointCell<Array3>,
    /// The shared output buffer all teams write disjoint parts of.
    out: DisjointCell<Array3>,
    /// The full-domain intermediates every team of a stage-synchronous
    /// plan reads and writes (`None` otherwise: the teams' stores hold
    /// their scratch).
    shared: Option<ParStore>,
}

impl fmt::Debug for StepPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StepPlan")
            .field("config", &self.config)
            .field("schedule", &self.schedule)
            .finish_non_exhaustive()
    }
}

/// The per-fused-step targets for one island: index `k-1` is the
/// island's own `part`; each earlier step's target is the hull of the
/// advected-field reads the next step's target requires (clipped to
/// `domain`), i.e. one cumulative stencil halo wider per fused step.
/// Monotone: `targets[s] ⊇ targets[s+1]`.
fn fused_step_targets(
    graph: &StageGraph,
    x: FieldId,
    part: Region3,
    domain: Region3,
    fuse_steps: usize,
) -> Vec<Region3> {
    let k = fuse_steps.max(1);
    let mut targets = vec![part; k];
    for ts in (0..k.saturating_sub(1)).rev() {
        targets[ts] = graph
            .external_read_regions(targets[ts + 1], domain)
            .get(&x)
            .copied()
            .unwrap_or_else(Region3::empty);
    }
    targets
}

/// The axis a team's ranks cut their sweeps along when the caller named
/// none: `I` iff every non-empty region is at least as deep in `i` as
/// it is wide in `j` (ties to `I`: a rank then owns whole planes, one
/// contiguous span per field, and meets its neighbour at one plane
/// instead of at two strided rows of every plane), else `J`.
fn rank_axis_of<'a>(mut regions: impl Iterator<Item = &'a Region3>) -> Axis {
    if regions.all(|r| r.is_empty() || r.i.len() >= r.j.len()) {
        Axis::I
    } else {
        Axis::J
    }
}

impl StepSchedule {
    /// Derives the schedule: per-island and per-fused-step blocks (or
    /// tiles) and the scratch footprints.
    /// `parts` holds one part per team (empty parts allowed — surplus
    /// islands idle) and is taken as given: the disjoint-cover check
    /// lives with the executor's partition, so the prover can be fed
    /// seeded-bad parts. `team_sizes` holds the rank count of each
    /// team.
    ///
    /// # Errors
    ///
    /// Propagates [`PlanBlocksError`] from the block planner, which
    /// refuses only empty targets; an empty part idles instead.
    ///
    /// # Panics
    ///
    /// Panics if `parts` and `team_sizes` disagree in length, or the
    /// problem is not open-boundary: periodic wrap dependencies cannot
    /// be expressed by box-shaped island regions.
    pub fn build(
        problem: &MpdataProblem,
        domain: Region3,
        parts: &[Region3],
        team_sizes: &[usize],
        knobs: ScheduleKnobs,
    ) -> Result<Self, PlanBlocksError> {
        Self::derive(problem, domain, parts, team_sizes, knobs, false)
    }

    /// [`StepSchedule::build`] in either shape. The stage-synchronous
    /// one (`stage_sync`) takes the rank cut and the schedule policy
    /// from `knobs`, is built for any boundary, and never fails: it
    /// plans no blocks. Its callers leave the other knobs at their
    /// defaults.
    pub(crate) fn derive(
        problem: &MpdataProblem,
        domain: Region3,
        parts: &[Region3],
        team_sizes: &[usize],
        knobs: ScheduleKnobs,
        stage_sync: bool,
    ) -> Result<Self, PlanBlocksError> {
        assert_eq!(parts.len(), team_sizes.len(), "one part per team");
        // A stage-synchronous read lands in a full-domain array finished
        // before the last global barrier, wherever the wrap sends it.
        assert!(
            stage_sync || problem.boundary() == Boundary::Open,
            "island schedules require open boundaries: periodic wrap \
             dependencies cannot be expressed by box-shaped island regions"
        );
        debug_assert!(!stage_sync || (knobs.fuse_steps <= 1 && knobs.tile == TileMode::Off));
        let knobs = ScheduleKnobs {
            fuse_steps: knobs.fuse_steps.max(1),
            ..knobs
        };
        let k = knobs.fuse_steps;
        let graph = problem.graph();
        let xout = problem.xout();
        let x = problem.ext().x;
        let final_stage = graph
            .stages()
            .iter()
            .position(|st| st.outputs == [xout])
            .expect("the graph ends in the advected-output stage");
        // Tile extents for tiled plans (`Fixed` is clamped to ≥ 1, so a
        // degenerate request still partitions the target).
        let tile_extents = match knobs.tile {
            TileMode::Off => None,
            TileMode::Auto => Some(choose_tile(graph, domain, knobs.cache_bytes)),
            TileMode::Fixed { ti, tj } => Some((ti.max(1), tj.max(1))),
        };
        // Per-stage regions a zero-overlap schedule would compute —
        // the baseline against which each epoch's redundant halo
        // recomputation is measured (indexed by `StageId::index`).
        // Fused steps before the last one are measured against the
        // same baseline: everything beyond `part ∩ region_s(domain)`
        // is recomputation some island performs anyway.
        let base_regions = graph.required_regions(domain, domain);
        let mut teams = Vec::with_capacity(parts.len());
        for (&part, &size) in parts.iter().zip(team_sizes) {
            let mut team = TeamSchedule {
                axis: knobs.split_axis.unwrap_or(Axis::J),
                n_units: knobs.schedule.units_for(size),
                steps: vec![Vec::new(); k],
                needed: graph
                    .stages()
                    .iter()
                    .map(|st| part.intersect(base_regions[st.id.index()]))
                    .collect(),
                ranks: size,
                storage: Vec::new(),
            };
            let owner = teams.len();
            if stage_sync {
                // One block sweeping every stage over the whole part. An
                // idle team (empty part) keeps its empty sweeps: its
                // ranks must cross every global barrier the working
                // teams do.
                if knobs.split_axis.is_none() {
                    team.axis = rank_axis_of(std::iter::once(&part));
                }
                team.steps[0].push(BlockPlan {
                    output_region: part,
                    stage_regions: vec![part; graph.stages().len()],
                });
                teams.push(team);
                continue;
            }
            if part.is_empty() {
                teams.push(team);
                continue;
            }
            let step_parts = fused_step_targets(graph, x, part, domain, k);
            if let Some((ti, tj)) = tile_extents {
                // Tiled: cut each fused-step target into the balanced
                // (i, j) tile grid; each tile is a block over its
                // backward requirement regions, whose chain one rank
                // runs whole on rank-private scratch. Every intra-chain
                // read resolves to a cell the chain computed earlier,
                // and tiles partition the target, so concurrent output
                // writes are disjoint.
                team.n_units = 1;
                for (blocks, &sp) in team.steps.iter_mut().zip(&step_parts) {
                    let tiles = tile_grid(sp, (ti, tj)).into_iter();
                    *blocks = tiles
                        .map(|tile| BlockPlan {
                            output_region: tile,
                            stage_regions: graph.required_regions(tile, domain),
                        })
                        .collect();
                }
                // A field's producing sweep contains every later read of
                // it in the chain: the widest one sizes every rank's
                // store, so rebasing it sweep by sweep never allocates.
                let mut widest: Vec<Option<(FieldId, Region3)>> = vec![None; graph.fields().len()];
                let producers = team
                    .sweeps()
                    .filter(|&(_, _, s, r)| s != final_stage && !r.is_empty());
                for (_, _, s, region) in producers {
                    for &f in &graph.stages()[s].outputs {
                        let slot = &mut widest[f.index()];
                        if slot.is_none_or(|(_, w)| w.cells() < region.cells()) {
                            *slot = Some((f, region));
                        }
                    }
                }
                for rank in 0..size {
                    let tile = |&(f, r)| Storage::plain(owner, rank, Buffer::TileScratch(f), r);
                    team.storage.extend(widest.iter().flatten().map(tile));
                }
            } else {
                // One wavefront blocking per fused step; the scratch
                // spans the union of their hulls.
                let (mut reach, mut scratch) = (vec![0; graph.fields().len()], Region3::empty());
                let planner = BlockPlanner::new(knobs.cache_bytes);
                let blockings = step_parts
                    .iter()
                    .map(|&sp| planner.plan_wavefront(graph, sp, domain))
                    .collect::<Result<Vec<_>, _>>()?;
                if knobs.split_axis.is_none() {
                    let blocks = blockings.iter().flat_map(|b| &b.blocks);
                    team.axis = rank_axis_of(blocks.flat_map(|b| &b.stage_regions));
                }
                for (blocks, blocking) in team.steps.iter_mut().zip(blockings) {
                    scratch = scratch.hull(blocking.hull());
                    for (most, now) in reach.iter_mut().zip(blocking.window_depths(graph, domain)) {
                        *most = now.max(*most);
                    }
                    *blocks = blocking.blocks;
                }
                // One window per scratch field, as deep as the deepest
                // reach-back of any fused step's blocking.
                let outputs = graph.stages().iter().flat_map(|st| &st.outputs);
                for &o in outputs.filter(|&&o| o != xout) {
                    team.storage.push(Storage {
                        planes: reach[o.index()].clamp(1, scratch.i.len()),
                        ..Storage::plain(owner, 0, Buffer::Scratch(o), scratch)
                    });
                }
            }
            // Two ping-pong x slots over the first (widest) fused step's
            // target, which contains every later step's writes and reads.
            if k > 1 {
                let slots =
                    [0, 1].map(|n| Storage::plain(owner, 0, Buffer::XSlot(n), step_parts[0]));
                team.storage.extend(slots);
            }
            teams.push(team);
        }
        Ok(StepSchedule {
            problem: problem.clone(),
            domain,
            knobs,
            teams,
            final_stage,
            stage_sync,
        })
    }

    /// The problem the schedule was derived for.
    pub fn problem(&self) -> &MpdataProblem {
        &self.problem
    }

    /// The global domain.
    pub fn domain(&self) -> Region3 {
        self.domain
    }

    /// The knobs the schedule was derived under (`fuse_steps ≥ 1`).
    pub fn knobs(&self) -> ScheduleKnobs {
        self.knobs
    }

    /// Number of teams (islands), idle ones included.
    pub fn team_count(&self) -> usize {
        self.teams.len()
    }

    /// The axis along which `team`'s ranks (or claimable chunks) slice
    /// every sweep: [`ScheduleKnobs::split_axis`] when the caller set
    /// it, else the longest-axis rule's choice for this team's regions.
    /// Tiled schedules hand out whole tiles and idle teams nothing, so
    /// the axis goes unused there.
    ///
    /// # Panics
    ///
    /// Panics if `team >= self.team_count()`.
    pub fn rank_axis(&self, team: usize) -> Axis {
        self.teams[team].axis
    }

    /// The schedule's shape. `false`: step-synchronous — each team
    /// replays its (3+1)D blocks on team-private scratch between team
    /// barriers; teams meet once per step. `true`: stage-synchronous —
    /// each team sweeps every stage once over its own part into
    /// full-domain intermediates all teams share ([`Buffer::Shared`]),
    /// and every stage ends at the global barrier. Only
    /// [`OriginalExecutor`](crate::OriginalExecutor) (one team) and
    /// [`ExchangeExecutor`](crate::ExchangeExecutor) plan this shape.
    pub fn stage_synchronous(&self) -> bool {
        self.stage_sync
    }

    /// The [`StepSchedule::storage`] of every intermediate a team's
    /// ranks share, in storage order — the companion of
    /// [`StepSchedule::accesses`]:
    /// accesses say which planes are touched when, this says which of
    /// them share storage. Empty for tiled schedules (tile scratch is
    /// plain and rank-private); one whole-domain window per field for
    /// stage-synchronous ones, whose arrays all teams share.
    pub fn scratch_windows(&self) -> Vec<ScratchWindow> {
        let fields = self.problem.graph().fields();
        let window = |s: Storage| match s.buffer {
            Buffer::Scratch(field) | Buffer::Shared(field)
                if fields.role(field) == FieldRole::Intermediate =>
            {
                let (team, planes, hull) = (s.team, s.planes, s.hull);
                Some(ScratchWindow {
                    team,
                    field,
                    planes,
                    hull,
                })
            }
            _ => None,
        };
        self.storage().into_iter().filter_map(window).collect()
    }

    /// Every array a plan of the schedule allocates: first the
    /// full-domain arrays every team shares — externals, output and,
    /// stage-synchronous, intermediates — in `FieldId` order, owned by
    /// team 0; then, team by team, its scratch windows, the stores of
    /// each rank of a tiled team (every field at the widest sweep that
    /// writes it, within which each sweep rebases it) and both x slots of
    /// a fused one. [`StepSchedule::owner`] says which of them an
    /// [`Access`] lands in.
    pub fn storage(&self) -> Vec<Storage> {
        let fields = self.problem.graph().fields().iter();
        let shared =
            fields.filter(|&(_, _, role)| self.stage_sync || role != FieldRole::Intermediate);
        let shared = shared.map(|(f, _, _)| Storage::plain(0, 0, Buffer::Shared(f), self.domain));
        let teams = self.teams.iter().flat_map(|t| t.storage.iter().copied());
        shared.chain(teams).collect()
    }

    /// The `(team, rank)` owning the [`StepSchedule::storage`] `a` lands
    /// in. Tile scratch is the store of the rank a static hand-out runs
    /// the tile on: tile `n` of a fused step on rank `n mod size`, the
    /// stride of `StepPlan::units` (a self-scheduled rank claims any).
    pub fn owner(&self, a: &Access) -> (usize, usize) {
        match a.buffer {
            Buffer::Shared(_) => (0, 0),
            Buffer::TileScratch(_) => (a.team, a.slot % self.teams[a.team].ranks),
            Buffer::Scratch(_) | Buffer::XSlot(_) => (a.team, 0),
        }
    }

    /// Bytes of intermediate-field storage the replay allocates: every
    /// [`StepSchedule::storage`] array but the externals, the output and
    /// the x slots.
    pub fn scratch_bytes(&self) -> usize {
        let fields = self.problem.graph().fields();
        let scratch = self.storage().into_iter().filter(|s| match s.buffer {
            Buffer::Shared(f) => fields.role(f) == FieldRole::Intermediate,
            Buffer::Scratch(_) | Buffer::TileScratch(_) => true,
            Buffer::XSlot(_) => false,
        });
        scratch.map(|s| s.cells()).sum::<usize>() * size_of::<f64>()
    }

    /// The blocks `team` runs in fused step `step`, in order, each
    /// sweeping every stage over its `stage_regions` (indexed like
    /// `graph.stages()`): the step's wavefront blocking; its tiles over
    /// their requirement regions; or, stage-synchronous, one block over
    /// the team's part (empty parts included). Idle islands have none.
    ///
    /// # Panics
    ///
    /// Panics if `team >= self.team_count()` or `step >=
    /// self.knobs().fuse_steps`.
    pub fn blocks(&self, team: usize, step: usize) -> &[BlockPlan] {
        &self.teams[team].steps[step]
    }

    /// The most trace spans one rank records per time step of a
    /// replay: per `(block, stage)` sweep of the longest fused step of
    /// any team, one kernel span and one barrier wait, plus the step's
    /// two global barrier waits and the leader's swap — what a traced
    /// run sizes its per-thread rings by.
    pub fn trace_spans_per_step(&self) -> usize {
        let stages = self.problem.graph().stages().len();
        let blocks = self.teams.iter().flat_map(|t| &t.steps).map(Vec::len);
        2 * stages * blocks.max().unwrap_or(0) + 3
    }

    /// Whether every island block is a tile whose chain one rank runs
    /// whole ([`TileMode`] other than `Off`).
    fn tiled(&self) -> bool {
        self.knobs.tile != TileMode::Off
    }

    /// The buffer fused step `ts`'s final stage writes: the shared
    /// output for the last fused step, the step's x slot otherwise.
    fn x_dest(&self, ts: usize) -> Buffer {
        if ts + 1 == self.knobs.fuse_steps {
            Buffer::Shared(self.problem.xout())
        } else {
            Buffer::XSlot(ts % 2)
        }
    }

    /// The buffer fused step `ts` reads the advected field from, in a
    /// replay that starts at fused step `first_ts`: the shared input
    /// for the epoch's first step, afterwards the x slot the previous
    /// fused step just produced.
    fn x_source(&self, ts: usize, first_ts: usize) -> Buffer {
        if ts == first_ts {
            Buffer::Shared(self.problem.ext().x)
        } else {
            Buffer::XSlot((ts - 1) % 2)
        }
    }

    /// Every read and write of one full k-step replay, in `(team,
    /// program order)`: each work unit's outputs over its region and
    /// its inputs over the halo-expanded region clipped to the domain
    /// (open-boundary reads clamp into that box; a periodic read, which
    /// only a stage-synchronous schedule performs, wraps to cells of the
    /// same full-domain array instead). The advected field is routed
    /// through [`StepSchedule::x_dest`] / `x_source` — the very
    /// functions the replay resolves its buffers with — so a consumer
    /// proves the routing that runs, not a model of it.
    ///
    /// Not streamed: the shorter tail replays, which perform a subset of
    /// these accesses except that their first section reads the
    /// read-only shared input where the full table reads an x slot.
    pub fn accesses(&self) -> Vec<Access> {
        let graph = self.problem.graph();
        let x = self.problem.ext().x;
        let tiled = self.tiled();
        // The kind of store the intermediates live in.
        let scratch: fn(FieldId) -> Buffer = if self.stage_sync {
            Buffer::Shared
        } else if tiled {
            Buffer::TileScratch
        } else {
            Buffer::Scratch
        };
        let stages = graph.stages().len();
        let mut out = Vec::new();
        for (team, t) in self.teams.iter().enumerate() {
            for (n, (step, b, stage, region)) in t.sweeps().enumerate() {
                let st = &graph.stages()[stage];
                // Untiled, every sweep is its own epoch. A tiled sweep is
                // one stage of one tile's chain: the tile is the unit of
                // concurrency, and only steps are fenced.
                let (epoch, tile, block) = if tiled {
                    (step * stages + stage, Some(b), 0)
                } else {
                    (n, None, b)
                };
                for u in 0..t.n_units {
                    // One work unit; `buffer`/`write` are filled in per
                    // access.
                    let at = Access {
                        team,
                        epoch,
                        slot: tile.unwrap_or(u),
                        step,
                        stage,
                        block,
                        buffer: Buffer::Shared(x),
                        region: rank_slice(region, t.axis, u, t.n_units),
                        write: false,
                    };
                    if at.region.is_empty() {
                        continue;
                    }
                    for &o in &st.outputs {
                        let buffer = if stage == self.final_stage {
                            self.x_dest(step)
                        } else {
                            scratch(o)
                        };
                        out.push(Access {
                            buffer,
                            write: true,
                            ..at
                        });
                    }
                    for (f, pat) in &st.inputs {
                        let buffer = if *f == x {
                            self.x_source(step, 0)
                        } else if graph.fields().role(*f) == FieldRole::Intermediate {
                            scratch(*f)
                        } else {
                            Buffer::Shared(*f)
                        };
                        out.push(Access {
                            buffer,
                            region: at.region.expand(pat.halo()).intersect(self.domain),
                            write: false,
                            ..at
                        });
                    }
                }
            }
        }
        out
    }
}

impl StepPlan {
    /// Builds the schedule for `(domain, config)`, then allocates what
    /// it says: stores, claim queues, x slots and the two domain
    /// buffers. This is the only allocating phase.
    fn build(
        problem: &MpdataProblem,
        spec: &TeamSpec,
        domain: Region3,
        config: PlanConfig,
    ) -> Result<Self, PlanBlocksError> {
        // `black_box`: the otherwise-unused allocation must not be elided.
        let slack = (domain.cells() * size_of::<f64>() >= LARGE_ARRAY_BYTES)
            .then(|| std::hint::black_box(Vec::<u8>::with_capacity(DISPATCH_SLACK_BYTES)));
        let parts = config.partition.parts(domain, spec.team_count());
        let schedule = StepSchedule::derive(
            problem,
            domain,
            &parts,
            &spec.team_sizes(),
            config.knobs,
            config.stage_sync,
        )?;
        let graph = problem.graph();
        let new_store = || ParStore::new(graph.fields().len(), problem.ext());
        let dynamic = matches!(config.knobs.schedule, SchedulePolicy::Dynamic { .. });
        let (tiled, stages) = (schedule.tiled(), graph.stages().len());
        // Bookkeeping first…
        let mut teams: Vec<TeamBuffers> = schedule
            .teams
            .iter()
            .map(|team| {
                // Claim queues, one per fence interval: a tiled fused
                // step's tiles, or an untiled sweep's chunks.
                let units: Vec<usize> = match (dynamic, tiled) {
                    (false, _) => Vec::new(),
                    (true, true) => team.steps.iter().map(Vec::len).collect(),
                    (true, false) => {
                        let blocks = team.steps.iter().map(Vec::len).sum::<usize>();
                        vec![team.n_units; blocks * stages]
                    }
                };
                // Empty islands and untiled plans get no rank stores.
                let ranks = if tiled && team.steps.iter().any(|b| !b.is_empty()) {
                    team.ranks
                } else {
                    0
                };
                TeamBuffers {
                    store: new_store(),
                    rank_stores: (0..ranks).map(|_| new_store()).collect(),
                    queues: units.into_iter().map(ChunkQueue::new).collect(),
                    xslots: [None, None],
                }
            })
            .collect();
        let mut shared = schedule.stage_sync.then(new_store);
        // …field data last: no small, plan-lifetime allocation sits among
        // or above the arrays, so when the plan is dropped they coalesce
        // with the top of the heap and go back to the OS in one piece
        // (a small chunk in between would pin everything below it). The
        // team arrays of `StepSchedule::storage` come straight off the
        // plan-lifetime tables, so no temporary lands among them either.
        for s in schedule.teams.iter().flat_map(|t| &t.storage) {
            let bufs = &mut teams[s.team];
            match s.buffer {
                Buffer::Scratch(f) => bufs.store.alloc_windowed(f, s.hull, s.planes),
                Buffer::TileScratch(f) => bufs.rank_stores[s.rank].alloc(f, s.hull),
                Buffer::XSlot(n) => bufs.xslots[n] = Some(DisjointCell::new(Array3::zeros(s.hull))),
                Buffer::Shared(_) => unreachable!("full-domain arrays belong to no team"),
            }
        }
        if let Some(store) = &mut shared {
            for w in schedule.scratch_windows() {
                store.alloc(w.field, w.hull);
            }
        }
        let cur = DisjointCell::new(Array3::zeros(domain));
        let out = DisjointCell::new(Array3::zeros(domain));
        drop(std::hint::black_box(slack));
        Ok(StepPlan {
            config,
            schedule: Arc::new(schedule),
            teams,
            cur,
            out,
            shared,
        })
    }

    /// Returns the cached plan when `(domain, config)` still equal its
    /// key, else rebuilds it (dropping the stale plan first). A
    /// planning failure leaves the slot empty.
    pub(crate) fn ensure<'s>(
        slot: &'s mut Option<StepPlan>,
        problem: &MpdataProblem,
        spec: &TeamSpec,
        domain: Region3,
        config: &PlanConfig,
    ) -> Result<&'s mut StepPlan, PlanBlocksError> {
        let hit = slot
            .as_ref()
            .is_some_and(|p| p.schedule.domain == domain && p.config == *config);
        if !hit {
            *slot = None;
            *slot = Some(StepPlan::build(problem, spec, domain, config.clone())?);
        }
        Ok(slot.as_mut().expect("just ensured"))
    }

    /// The schedule this plan replays.
    pub(crate) fn schedule(&self) -> &Arc<StepSchedule> {
        &self.schedule
    }

    /// The buffer fused step `ts`'s final stage writes (see
    /// [`StepSchedule::x_dest`]).
    fn final_dest<'a>(&'a self, bufs: &'a TeamBuffers, ts: usize) -> &'a DisjointCell<Array3> {
        match self.schedule.x_dest(ts) {
            Buffer::XSlot(n) => bufs.xslots[n]
                .as_ref()
                .expect("fused plans allocate x slots"),
            _ => &self.out,
        }
    }

    /// The external inputs of fused step `ts` in a replay starting at
    /// `first_ts` (see [`StepSchedule::x_source`]), with the read
    /// tracker of the x slot when the advected field comes from one.
    fn step_inputs<'a>(
        &self,
        bufs: &'a TeamBuffers,
        ext: ExtFields<'a>,
        ts: usize,
        first_ts: usize,
    ) -> (ExtFields<'a>, Option<AccessTracker<'a, Array3>>) {
        match self.schedule.x_source(ts, first_ts) {
            Buffer::XSlot(n) => {
                let slot = bufs.xslots[n]
                    .as_ref()
                    .expect("fused plans allocate x slots");
                let tracker = slot.track_read();
                // SAFETY: the team barrier ending fused step ts-1
                // fences its slot writes; within this step the slot
                // is only read (this step writes the *other* slot
                // or the shared output).
                let x = unsafe { slot.get_ref() };
                (ExtFields { x, ..ext }, Some(tracker))
            }
            _ => (ext, None),
        }
    }

    /// Replays one fused epoch of `epoch_len ∈ 1..=k` time steps for
    /// the calling worker's team — the *last* `epoch_len` fused-step
    /// sections of the table, so a tail epoch keeps each section's halo
    /// enlargement exact. Each fused step is a run of fence intervals
    /// whose work units [`StepPlan::units`] hands out. Untiled, an
    /// interval is one `(block, stage)` sweep, its units are the sweep's
    /// `rank_slice`s, and a barrier ends it. Tiled, it is the
    /// whole fused step, its units are tile chains, and one team barrier
    /// ends it — except after the last step, which the caller's global
    /// barrier fences. Either way the team barrier ending one fused step
    /// fences its x-slot writes from the next step's reads.
    /// `base_step` numbers the trace spans, so per-step attribution
    /// survives fusion. Allocation-free in release builds — including
    /// with tracing compiled in but disabled, where every
    /// instrumentation site below reduces to one relaxed load and a
    /// branch.
    fn replay(&self, ctx: &TeamCtx, ext: ExtFields<'_>, base_step: u32, epoch_len: usize) {
        islands_trace::set_island_rank(ctx.team as u32, ctx.rank as u32);
        let sched = &*self.schedule;
        let team = &sched.teams[ctx.team];
        if team.steps.iter().all(Vec::is_empty) {
            // An idle island (empty part): no work, no buffers, and no
            // team barrier any of its ranks would wait at. (Idle teams
            // of a stage-synchronous plan keep an empty block instead.)
            return;
        }
        let k = sched.knobs.fuse_steps;
        debug_assert!((1..=k).contains(&epoch_len));
        let first_ts = k - epoch_len;
        let bufs = &self.teams[ctx.team];
        let stages = sched.problem.graph().stages().len();
        // The untiled claim queues are numbered by sweep from the first
        // fused step of the full table.
        let mut sweep = stages * team.steps[..first_ts].iter().map(Vec::len).sum::<usize>();
        for ts in first_ts..k {
            islands_trace::set_step(base_step + (ts - first_ts) as u32);
            let (step_ext, _slot_read) = self.step_inputs(bufs, ext, ts, first_ts);
            let dest = self.final_dest(bufs, ts);
            let blocks = &team.steps[ts];
            if sched.tiled() {
                let store = &bufs.rank_stores[ctx.rank];
                Self::units(ctx, blocks.len(), bufs.queues.get(ts), |n| {
                    self.run_tile(team, n, &blocks[n], store, step_ext, dest);
                });
                if ts + 1 < k {
                    ctx.team_barrier();
                }
                continue;
            }
            let store = self.shared.as_ref().unwrap_or(&bufs.store);
            for (b, block) in blocks.iter().enumerate() {
                for stage in 0..stages {
                    Self::units(ctx, team.n_units, bufs.queues.get(sweep), |u| {
                        let at = (b, block, stage);
                        self.run_unit(team, at, store, u, step_ext, dest, sched.domain);
                    });
                    sweep += 1;
                    // The team barrier — intra-island synchronization
                    // only, the whole point of the approach — or the
                    // stage-synchronous global one, which the step's own
                    // global barrier replaces after the final stage.
                    if !sched.stage_sync {
                        ctx.team_barrier();
                    } else if stage != sched.final_stage {
                        ctx.global_barrier();
                    }
                }
            }
        }
    }

    /// Hands the calling rank its units of one fence interval of `n`
    /// work units: statically (no `queue`), every `size`-th unit from
    /// its own rank on ([`StepSchedule::owner`] places tile scratch by
    /// this stride); dynamically, every unit it claims from the
    /// interval's [`ChunkQueue`] until the queue drains. Any claim order
    /// is race-free: an interval's units are pairwise disjoint (a sweep's
    /// slices, or tiles on rank-private scratch) and the interval ends
    /// at the same fence.
    #[inline]
    fn units(ctx: &TeamCtx, n: usize, queue: Option<&ChunkQueue>, mut run: impl FnMut(usize)) {
        match queue {
            None => (ctx.rank..n).step_by(ctx.size).for_each(run),
            Some(q) => {
                while let Some(u) = q.claim() {
                    run(u);
                }
            }
        }
    }

    /// Runs tile `n`'s whole stage chain on `store`, the calling rank's
    /// private scratch: each non-empty sweep but the final one first
    /// rebases its outputs to its region — the producer's region
    /// contains every later read of the field in the chain — and every
    /// sweep runs as the single unit of its block, with redundant cells
    /// counted against the tile.
    #[inline]
    fn run_tile(
        &self,
        team: &TeamSchedule,
        n: usize,
        tile: &BlockPlan,
        store: &ParStore,
        ext: ExtFields<'_>,
        dest: &DisjointCell<Array3>,
    ) {
        let stages = self.schedule.problem.graph().stages();
        for (stage, st) in stages.iter().enumerate() {
            let region = tile.stage_regions[stage];
            if stage != self.schedule.final_stage && !region.is_empty() {
                for &f in &st.outputs {
                    store.rebase(f, region);
                }
            }
            let at = (n, tile, stage);
            self.run_unit(team, at, store, 0, ext, dest, tile.output_region);
        }
    }

    /// Executes one work unit of the `(block index, block, stage)`
    /// sweep of `team`: the stage's kernel over the unit's slice,
    /// routed to the scratch store or (for the final stage) `dest` —
    /// the step's x output buffer — with the kernel trace span
    /// attached. Its cells outside `within ∩ needed` (`within`: the
    /// tile of a chain, the domain for sweeps) are traced as redundant.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    fn run_unit(
        &self,
        team: &TeamSchedule,
        (b, block, stage): (usize, &BlockPlan, usize),
        store: &ParStore,
        unit: usize,
        ext: ExtFields<'_>,
        dest: &DisjointCell<Array3>,
        within: Region3,
    ) {
        let sched = &*self.schedule;
        let (domain, bc) = (sched.domain, sched.problem.boundary());
        let st = &sched.problem.graph().stages()[stage];
        let mine = rank_slice(block.stage_regions[stage], team.axis, unit, team.n_units);
        if mine.is_empty() {
            return;
        }
        let t0 = islands_trace::now();
        // A final stage writes straight into the step's x output. Blocks
        // of different islands are disjoint on the shared output, units
        // and tiles split disjointly, and x slots are team-private.
        let is_final = stage == sched.final_stage;
        let _wt = is_final.then(|| dest.track_write());
        // SAFETY: all concurrent writers cover mutually disjoint regions.
        let out = is_final.then(|| unsafe { dest.get_mut() });
        store.apply(st, sched.problem.kind(st.id), domain, bc, mine, out, ext);
        if let Some(t0) = t0 {
            let owned = mine.intersect(within).intersect(team.needed[stage]);
            let tag = |n: usize| n.min(usize::from(u16::MAX)) as u16;
            islands_trace::record(
                islands_trace::SpanKind::Kernel,
                t0,
                islands_trace::now_ns(),
                tag(stage),
                tag(b),
                [
                    mine.cells() as u64,
                    (mine.cells() - owned.cells()) as u64,
                    0,
                ],
            );
        }
    }

    /// Rewinds every dynamic claim queue to full (one relaxed store per
    /// queue; no-op for static plans). Callers must hold exclusive
    /// access or be in a barrier-fenced serial section.
    fn reset_queues(&self) {
        for q in self.teams.iter().flat_map(|t| &t.queues) {
            q.reset();
        }
    }

    /// Advances `fields.x` by `steps` steps inside a *single*
    /// `run_teams` dispatch: each fused epoch (k steps; the final epoch
    /// may be shorter) is one replay, one global barrier, one
    /// leader-side `cur`/`out` pointer swap, and one more global
    /// barrier — the paper's once-per-step global synchronization, now
    /// paid once per k steps, with zero heap allocations from the
    /// second step on (and none at all on a plan-cache hit, beyond the
    /// pool dispatch itself).
    pub(crate) fn run(
        &mut self,
        pool: &WorkerPool,
        spec: &TeamSpec,
        fields: &mut MpdataFields,
        steps: usize,
    ) {
        self.reset_queues();
        // Lend `fields.x` to the plan's current-input slot; the plan's old
        // buffer parks in `fields.x` until the swap back below.
        std::mem::swap(&mut fields.x, self.cur.get_mut_exclusive());
        let (u1, u2, u3, h) = (&fields.u1, &fields.u2, &fields.u3, &fields.h);
        let k = self.schedule.knobs.fuse_steps;
        let plan: &StepPlan = self;
        pool.run_teams(spec, |ctx| {
            let mut done = 0usize;
            while done < steps {
                // Every worker computes the same epoch lengths, so the
                // global-barrier counts agree without coordination.
                let epoch_len = k.min(steps - done);
                {
                    let _xr = plan.cur.track_read();
                    let ext = ExtFields {
                        // SAFETY: between the surrounding global barriers
                        // `cur` is only read; the leader's swap below is
                        // fenced off by both barriers.
                        x: unsafe { plan.cur.get_ref() },
                        u1,
                        u2,
                        u3,
                        h,
                    };
                    plan.replay(&ctx, ext, done as u32, epoch_len);
                }
                // All teams done writing `out` / reading `cur`.
                if ctx.global_barrier() {
                    let t0 = islands_trace::now();
                    let _wc = plan.cur.track_write();
                    let _wo = plan.out.track_write();
                    // SAFETY: every other worker is parked between the two
                    // global barriers; the serial worker has exclusive
                    // access to both buffers.
                    unsafe { std::mem::swap(plan.cur.get_mut(), plan.out.get_mut()) };
                    // Rewind the self-scheduling queues for the next epoch
                    // while every other worker is parked between the two
                    // global barriers (the release of the second barrier
                    // publishes the relaxed stores).
                    plan.reset_queues();
                    if let Some(t0) = t0 {
                        islands_trace::record(
                            islands_trace::SpanKind::Swap,
                            t0,
                            islands_trace::now_ns(),
                            0,
                            0,
                            [0; 3],
                        );
                    }
                }
                // Publish the swap before the next epoch reads `cur`.
                ctx.global_barrier();
                done += epoch_len;
            }
        });
        std::mem::swap(&mut fields.x, self.cur.get_mut_exclusive());
    }
}
