//! The islands-of-cores executor — the paper's contribution, as real
//! threaded code.
//!
//! The domain is partitioned into one part per work team (island). Each
//! island runs the (3+1)D decomposition on its part, computing every
//! stage on the *enlarged* regions from the backward requirement
//! analysis: the handful of boundary cells whose values would otherwise
//! have to be fetched from a neighbouring island are simply recomputed
//! (the paper's "extra elements", Table 2). Within a time step islands
//! synchronize only among their own cores (team barriers between
//! stages); all islands meet once per step when the team run joins.
//!
//! The paper's two baselines are the same executor in the
//! stage-synchronous shape (every stage over each team's own part,
//! full-domain shared intermediates, a global barrier per stage):
//! [`OriginalExecutor`] with one team of every worker, and
//! [`ExchangeExecutor`] with one team per island.

use crate::fields::MpdataFields;
use crate::graph::MpdataProblem;
use crate::plan::{
    PartitionKind, PlanConfig, ScheduleKnobs, SchedulePolicy, StepPlan, StepSchedule, TileMode,
};
use std::sync::{Arc, Mutex};
use stencil_engine::{Array3, Axis, PlanBlocksError, Region3, StageGraph};
use work_scheduler::{TeamSpec, WorkerPool};

/// Parallel islands-of-cores MPDATA executor.
///
/// # Examples
///
/// ```
/// use mpdata::{gaussian_pulse, IslandsExecutor, ReferenceExecutor};
/// use stencil_engine::{Axis, Region3};
/// use work_scheduler::{TeamSpec, WorkerPool};
///
/// let pool = WorkerPool::new(4);
/// let teams = TeamSpec::even(4, 2); // two islands of two cores
/// let domain = Region3::of_extent(24, 8, 4);
/// let fields = gaussian_pulse(domain, (0.3, 0.0, 0.0));
/// let islands = IslandsExecutor::new(&pool, teams, Axis::I)
///     .cache_bytes(64 * 1024)
///     .step(&fields)?;
/// let reference = ReferenceExecutor::new().step(&fields);
/// assert_eq!(islands.max_abs_diff(&reference), 0.0);
/// # Ok::<(), stencil_engine::PlanBlocksError>(())
/// ```
#[derive(Debug)]
pub struct IslandsExecutor<'p> {
    pool: &'p WorkerPool,
    teams: TeamSpec,
    problem: MpdataProblem,
    /// The partition and builder knobs — with the domain, the key of
    /// the cached plan.
    config: PlanConfig,
    /// Cached execution plan, rebuilt whenever the domain or `config`
    /// stops matching.
    plan: Mutex<Option<StepPlan>>,
}

impl<'p> IslandsExecutor<'p> {
    /// Creates the executor: one island per team of `teams`, partitioning
    /// the domain along `partition_axis`.
    pub fn new(pool: &'p WorkerPool, teams: TeamSpec, partition_axis: Axis) -> Self {
        Self::with_problem(pool, teams, partition_axis, MpdataProblem::standard())
    }

    /// Creates the executor for an arbitrary MPDATA problem.
    pub fn with_problem(
        pool: &'p WorkerPool,
        teams: TeamSpec,
        partition_axis: Axis,
        problem: MpdataProblem,
    ) -> Self {
        IslandsExecutor {
            pool,
            teams,
            problem,
            config: PlanConfig {
                partition: PartitionKind::Axis(partition_axis),
                knobs: ScheduleKnobs::default(),
                stage_sync: false,
            },
            plan: Mutex::new(None),
        }
    }

    /// The pure (3+1)D decomposition as the degenerate one-island
    /// schedule: every worker of `pool` in a single team whose part is
    /// the whole domain. The domain is cut into cache-sized blocks
    /// along the first dimension; within a block all stages run
    /// back-to-back on block-local scratch (the "+1" dimension), each
    /// stage split among *all* workers. This is the strategy that
    /// shines on one socket and collapses on many NUMA nodes — the
    /// per-stage halo reads between workers become remote-cache
    /// traffic, which the `islands-core` planner charges accordingly.
    /// Every builder knob applies unchanged; with one team the
    /// `fuse_steps` halo enlargement clips to the domain, so its win is
    /// purely the k× fewer global barrier pairs.
    ///
    /// ```
    /// use mpdata::{gaussian_pulse, IslandsExecutor, MpdataProblem, ReferenceExecutor};
    /// use stencil_engine::Region3;
    /// use work_scheduler::WorkerPool;
    ///
    /// let pool = WorkerPool::new(2);
    /// let fields = gaussian_pulse(Region3::of_extent(24, 8, 4), (0.3, 0.0, 0.0));
    /// let fused = IslandsExecutor::single_island(&pool, MpdataProblem::standard())
    ///     .cache_bytes(64 * 1024)
    ///     .step(&fields)?;
    /// assert_eq!(fused.max_abs_diff(&ReferenceExecutor::new().step(&fields)), 0.0);
    /// # Ok::<(), stencil_engine::PlanBlocksError>(())
    /// ```
    pub fn single_island(pool: &'p WorkerPool, problem: MpdataProblem) -> Self {
        Self::with_problem(pool, TeamSpec::even(pool.len(), 1), Axis::I, problem)
    }

    /// Switches to the stage-synchronous shape of the same partition
    /// ([`StepSchedule::stage_synchronous`]) — what
    /// [`OriginalExecutor`] and [`ExchangeExecutor`] are made of.
    /// Private, so that no public builder combines it with a knob it
    /// ignores.
    fn stage_synchronous(mut self) -> Self {
        self.config.stage_sync = true;
        self
    }

    /// Replaces the 1-D axis split with an explicit partition: one part
    /// per team, in team order (2-D island grids, uneven splits, …).
    /// Parts must disjointly cover every domain this executor is run on;
    /// [`IslandsExecutor::step`] asserts the cover per call.
    pub fn with_partition(mut self, parts: Vec<Region3>) -> Self {
        assert_eq!(
            parts.len(),
            self.teams.team_count(),
            "one part per team required"
        );
        self.config.partition = PartitionKind::Explicit(parts);
        self
    }

    /// Sets the per-block cache budget of each island (the block depth
    /// follows from it).
    pub fn cache_bytes(mut self, bytes: usize) -> Self {
        self.config.knobs.cache_bytes = bytes;
        self
    }

    /// Sets the axis along which a team splits stage sweeps internally.
    /// Left unset, each team cuts its longest axis among `I` and `J`
    /// (see [`ScheduleKnobs::split_axis`]).
    pub fn split_axis(mut self, axis: Axis) -> Self {
        self.config.knobs.split_axis = Some(axis);
        self
    }

    /// Sets the intra-island schedule policy (static rank slices by
    /// default).
    pub fn schedule(mut self, policy: SchedulePolicy) -> Self {
        self.config.knobs.schedule = policy;
        self
    }

    /// Shorthand for [`SchedulePolicy::Dynamic`]: every epoch is split
    /// into `chunks_per_rank` chunks per rank, claimed from a
    /// preallocated per-epoch queue. Bit-identical to the static
    /// schedule — chunk boundaries, not claim order, determine every
    /// written value. A tiled plan ([`IslandsExecutor::tile`]) ignores
    /// `chunks_per_rank`: its ranks claim whole tiles, one queue per
    /// fused step.
    pub fn self_schedule(self, chunks_per_rank: usize) -> Self {
        self.schedule(SchedulePolicy::Dynamic { chunks_per_rank })
    }

    /// Fuses `k` whole time steps into one replay epoch (temporal
    /// blocking): each island's per-step targets are enlarged backwards
    /// by one cumulative stencil halo per fused step, intermediate
    /// advected fields ping-pong through team-private buffers, and
    /// [`IslandsExecutor::run`] pays the global-barrier pair once per
    /// `k` steps instead of once per step. Bit-identical to `k = 1` for
    /// any step count (a trailing partial epoch replays only its last
    /// sections). Values below 1 are treated as 1.
    pub fn fuse_steps(mut self, k: usize) -> Self {
        self.config.knobs.fuse_steps = k.max(1);
        self
    }

    /// Enables cache-tiled stage fusion: each fused-step target is cut
    /// into `(i, j)` tiles sized so a tile's scratch (tile plus
    /// cumulative halo) stays cache-resident, and the whole 17-stage
    /// chain of one tile runs back-to-back on the executing rank's
    /// private scratch. Intermediates live in L2-sized rank-private
    /// buffers instead of the team's block-deep windows, and the
    /// per-stage team barriers collapse to one per fused step, at the
    /// price of redundant halo recomputation along tile faces. Bit-identical to the untiled replay for every tile size,
    /// schedule and fuse depth (the kernels are pointwise in their
    /// declared neighborhoods).
    pub fn tile(mut self, mode: TileMode) -> Self {
        self.config.knobs.tile = mode;
        self
    }

    /// The stage graph.
    pub fn graph(&self) -> &StageGraph {
        self.problem.graph()
    }

    /// The island partition of `domain`: one part per team.
    ///
    /// # Panics
    ///
    /// Panics if an explicit partition does not disjointly cover
    /// `domain`.
    pub fn partition(&self, domain: Region3) -> Vec<Region3> {
        self.config.partition.parts(domain, self.teams.team_count())
    }

    /// Runs `f` on the plan for `domain` under the current config —
    /// the cached one, or a rebuilt one when it no longer matches. Every
    /// update leaves the slot either empty or holding a complete plan,
    /// so a poisoned lock is recovered.
    fn with_plan<R>(
        &self,
        domain: Region3,
        f: impl FnOnce(&mut StepPlan) -> R,
    ) -> Result<R, PlanBlocksError> {
        let mut slot = self.plan.lock().unwrap_or_else(|e| e.into_inner());
        let plan = StepPlan::ensure(&mut slot, &self.problem, &self.teams, domain, &self.config)?;
        Ok(f(plan))
    }

    /// The schedule this executor replays on `domain` — the very
    /// object `run` (and so `step`) walks, planned and cached on first
    /// use — so a proof about it is a proof about the run.
    ///
    /// # Errors
    ///
    /// Propagates [`PlanBlocksError`] from the block planner, which
    /// refuses only empty targets; an empty part idles instead.
    ///
    /// # Panics
    ///
    /// Panics like [`IslandsExecutor::step`].
    pub fn schedule_for(&self, domain: Region3) -> Result<Arc<StepSchedule>, PlanBlocksError> {
        self.with_plan(domain, |plan| Arc::clone(plan.schedule()))
    }

    /// Performs one time step and returns the advected scalar: a
    /// one-step [`IslandsExecutor::run`] on a copy of `fields`, so it
    /// replays the same cached plan (on a fused plan, its one-section
    /// tail) and leaves `fields` untouched.
    ///
    /// # Errors
    ///
    /// Propagates [`PlanBlocksError`] from the block planner, which
    /// refuses only empty targets; an empty part idles instead.
    ///
    /// # Panics
    ///
    /// Panics if the problem is not open-boundary (periodic wrap
    /// dependencies cannot be expressed by box-shaped island regions)
    /// or an explicit partition does not disjointly cover the domain.
    pub fn step(&self, fields: &MpdataFields) -> Result<Array3, PlanBlocksError> {
        let mut next = fields.clone();
        self.run(&mut next, 1)?;
        Ok(next.x)
    }

    /// Advances `fields.x` by `steps` time steps.
    ///
    /// # Errors
    ///
    /// Propagates [`PlanBlocksError`] from the block planner, which
    /// refuses only empty targets; an empty part idles instead.
    ///
    /// # Panics
    ///
    /// Panics like [`IslandsExecutor::step`].
    pub fn run(&self, fields: &mut MpdataFields, steps: usize) -> Result<(), PlanBlocksError> {
        if steps == 0 {
            return Ok(());
        }
        self.with_plan(fields.domain(), |plan| {
            plan.run(self.pool, &self.teams, fields, steps)
        })
    }
}

/// Why a stage-synchronous plan cannot fail to build.
const NO_BLOCKS: &str = "a stage-synchronous schedule plans no cache-sized blocks";

/// The parallel "original version" of the paper's Table 1/3: all
/// workers of the pool sweep each stage over the full domain, with
/// full-size intermediates in main memory and a global barrier between
/// stages — the one-team [stage-synchronous
/// schedule](StepSchedule::stage_synchronous), planned once and
/// replayed allocation-free like the islands.
///
/// # Examples
///
/// ```
/// use mpdata::{gaussian_pulse, OriginalExecutor, ReferenceExecutor};
/// use stencil_engine::Region3;
/// use work_scheduler::WorkerPool;
///
/// let pool = WorkerPool::new(4);
/// let domain = Region3::of_extent(16, 8, 8);
/// let fields = gaussian_pulse(domain, (0.2, 0.1, 0.0));
/// let par = OriginalExecutor::new(&pool).step(&fields);
/// let ser = ReferenceExecutor::new().step(&fields);
/// assert_eq!(par.max_abs_diff(&ser), 0.0); // bitwise identical
/// ```
#[derive(Debug)]
pub struct OriginalExecutor<'p>(IslandsExecutor<'p>);

impl<'p> OriginalExecutor<'p> {
    /// Creates the executor on `pool` for the paper's problem.
    pub fn new(pool: &'p WorkerPool) -> Self {
        Self::with_problem(pool, MpdataProblem::standard())
    }

    /// Creates the executor for any MPDATA problem, periodic included.
    pub fn with_problem(pool: &'p WorkerPool, problem: MpdataProblem) -> Self {
        OriginalExecutor(IslandsExecutor::single_island(pool, problem).stage_synchronous())
    }

    /// See [`IslandsExecutor::schedule_for`].
    pub fn schedule_for(&self, domain: Region3) -> Arc<StepSchedule> {
        self.0.schedule_for(domain).expect(NO_BLOCKS)
    }

    /// Performs one time step and returns the advected scalar.
    pub fn step(&self, fields: &MpdataFields) -> Array3 {
        self.0.step(fields).expect(NO_BLOCKS)
    }

    /// Advances `fields.x` by `steps` time steps.
    pub fn run(&self, fields: &mut MpdataFields, steps: usize) {
        self.0.run(fields, steps).expect(NO_BLOCKS);
    }
}

/// Fig. 1's **scenario 1** as real code: islands that *communicate*
/// instead of recomputing. Each island computes every stage on exactly
/// its own part into full-domain intermediates all islands share, and
/// after the global barrier ending the stage the next one reads its
/// neighbours' halo cells in place — the [stage-synchronous
/// schedule](StepSchedule::stage_synchronous) with one team per part.
/// Pinned bitwise against the recomputing [`IslandsExecutor`].
///
/// # Examples
///
/// ```
/// use mpdata::{gaussian_pulse, ExchangeExecutor, ReferenceExecutor};
/// use stencil_engine::{Axis, Region3};
/// use work_scheduler::{TeamSpec, WorkerPool};
///
/// let pool = WorkerPool::new(4);
/// let domain = Region3::of_extent(24, 8, 4);
/// let fields = gaussian_pulse(domain, (0.3, 0.0, 0.0));
/// let got = ExchangeExecutor::new(&pool, TeamSpec::even(4, 2), Axis::I).step(&fields);
/// let expect = ReferenceExecutor::new().step(&fields);
/// assert_eq!(got.max_abs_diff(&expect), 0.0);
/// ```
#[derive(Debug)]
pub struct ExchangeExecutor<'p>(IslandsExecutor<'p>);

impl<'p> ExchangeExecutor<'p> {
    /// Creates the executor: one island per team, parts cut along
    /// `partition_axis`.
    pub fn new(pool: &'p WorkerPool, teams: TeamSpec, partition_axis: Axis) -> Self {
        Self::with_problem(pool, teams, partition_axis, MpdataProblem::standard())
    }

    /// Creates the executor for any MPDATA problem, periodic included.
    pub fn with_problem(
        pool: &'p WorkerPool,
        teams: TeamSpec,
        partition_axis: Axis,
        problem: MpdataProblem,
    ) -> Self {
        let islands = IslandsExecutor::with_problem(pool, teams, partition_axis, problem);
        ExchangeExecutor(islands.stage_synchronous())
    }

    /// See [`IslandsExecutor::schedule_for`].
    pub fn schedule_for(&self, domain: Region3) -> Arc<StepSchedule> {
        self.0.schedule_for(domain).expect(NO_BLOCKS)
    }

    /// Performs one time step and returns the advected scalar.
    pub fn step(&self, fields: &MpdataFields) -> Array3 {
        self.0.step(fields).expect(NO_BLOCKS)
    }

    /// Advances `fields.x` by `steps` time steps.
    pub fn run(&self, fields: &mut MpdataFields, steps: usize) {
        self.0.run(fields, steps).expect(NO_BLOCKS);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fields::{gaussian_pulse, random_fields, rotating_cone};
    use crate::plan::{Buffer, Storage};
    use crate::reference::ReferenceExecutor;
    use stencil_engine::rng::Xoshiro256pp;

    #[test]
    fn matches_reference_bitwise_variant_a() {
        let d = Region3::of_extent(24, 9, 5);
        let mut rng = Xoshiro256pp::seed_from_u64(5);
        let f = random_fields(&mut rng, d, 0.7);
        let expect = ReferenceExecutor::new().step(&f);
        for (workers, teams) in [(2, 2), (4, 2), (6, 3), (8, 4)] {
            let pool = WorkerPool::new(workers);
            let spec = TeamSpec::even(workers, teams);
            let got = IslandsExecutor::new(&pool, spec, Axis::I)
                .cache_bytes(64 * 1024)
                .step(&f)
                .unwrap();
            assert_eq!(
                got.max_abs_diff(&expect),
                0.0,
                "{workers} workers / {teams} islands diverged"
            );
        }
    }

    #[test]
    fn matches_reference_bitwise_variant_b() {
        let d = Region3::of_extent(12, 18, 4);
        let f = gaussian_pulse(d, (0.2, 0.2, 0.0));
        let expect = ReferenceExecutor::new().step(&f);
        let pool = WorkerPool::new(6);
        let got = IslandsExecutor::new(&pool, TeamSpec::even(6, 3), Axis::J)
            .cache_bytes(48 * 1024)
            .step(&f)
            .unwrap();
        assert_eq!(got.max_abs_diff(&expect), 0.0);
    }

    #[test]
    fn multi_step_matches_reference() {
        let d = Region3::of_extent(20, 10, 4);
        let mut f1 = rotating_cone(d, 0.25);
        let mut f2 = f1.clone();
        let pool = WorkerPool::new(4);
        IslandsExecutor::new(&pool, TeamSpec::even(4, 2), Axis::I)
            .cache_bytes(48 * 1024)
            .run(&mut f1, 3)
            .unwrap();
        ReferenceExecutor::new().run(&mut f2, 3);
        assert_eq!(f1.x.max_abs_diff(&f2.x), 0.0);
    }

    #[test]
    fn single_island_matches_reference_across_block_sizes() {
        // The pure (3+1)D schedule: one team of three ranks, from many
        // thin blocks up to the default budget's single block.
        let d = Region3::of_extent(20, 7, 5);
        let mut rng = Xoshiro256pp::seed_from_u64(3);
        let f = random_fields(&mut rng, d, 0.7);
        let expect = ReferenceExecutor::new().step(&f);
        let pool = WorkerPool::new(3);
        for cache in [64 * 1024, 256 * 1024, crate::DEFAULT_CACHE_BYTES] {
            let got = IslandsExecutor::single_island(&pool, MpdataProblem::standard())
                .cache_bytes(cache)
                .step(&f)
                .unwrap();
            assert_eq!(got.max_abs_diff(&expect), 0.0, "cache {cache} diverged");
        }
        let one_block = stencil_engine::BlockPlanner::new(crate::DEFAULT_CACHE_BYTES)
            .plan(MpdataProblem::standard().graph(), d, d)
            .unwrap();
        assert_eq!(one_block.len(), 1, "2 MiB ≫ 20×7×5 domain: a single block");
    }

    #[test]
    fn single_island_knobs_match_reference() {
        // Every knob on the one-island schedule: self-scheduling, k-step
        // epochs (with a partial tail), whole-domain tiling where every
        // rank chews tiles on private scratch, and tiling × fusion.
        let d = Region3::of_extent(16, 8, 4);
        let mut expect = rotating_cone(d, 0.25);
        ReferenceExecutor::new().run(&mut expect, 7);
        let pool = WorkerPool::new(4);
        let single = || {
            IslandsExecutor::single_island(&pool, MpdataProblem::standard()).cache_bytes(48 * 1024)
        };
        for (label, exec) in [
            ("plain", single()),
            ("dynamic", single().self_schedule(3)),
            ("fuse 2", single().fuse_steps(2)),
            ("fuse 3", single().fuse_steps(3)),
            ("tile 4x4", single().tile(TileMode::Fixed { ti: 4, tj: 4 })),
            ("tile 1x7", single().tile(TileMode::Fixed { ti: 1, tj: 7 })),
            ("tile auto", single().tile(TileMode::Auto)),
            (
                "tile auto × fuse 2",
                single().fuse_steps(2).tile(TileMode::Auto),
            ),
        ] {
            let mut f = rotating_cone(d, 0.25);
            exec.run(&mut f, 7).unwrap();
            assert_eq!(f.x.max_abs_diff(&expect.x), 0.0, "{label} diverged");
        }
    }

    #[test]
    fn tiny_cache_degrades_to_depth_one_blocks_and_unit_tiles() {
        // 1 KiB fits no block of the 12×6×4 domain: the wavefront
        // planner falls back to depth-1 blocks and the tile sizer to
        // 1×1 tiles. Both spill and the tiles recompute huge halos, but
        // both stay exact.
        let pool = WorkerPool::new(2);
        let single =
            || IslandsExecutor::single_island(&pool, MpdataProblem::standard()).cache_bytes(1024);
        let f = gaussian_pulse(Region3::of_extent(12, 6, 4), (0.1, 0.0, 0.0));
        let expect = ReferenceExecutor::new().step(&f);
        let untiled = single();
        let blocks = untiled.schedule_for(f.domain()).unwrap().blocks(0, 0).len();
        assert_eq!(blocks, 12, "depth-1 blocks");
        for (label, exec) in [
            ("untiled", untiled),
            ("tile auto", single().tile(TileMode::Auto)),
        ] {
            let got = exec.step(&f).unwrap();
            assert_eq!(got.max_abs_diff(&expect), 0.0, "{label} diverged");
        }
    }

    #[test]
    fn every_access_lands_in_an_array_the_plan_allocates() {
        // `StepSchedule::storage` lists what `StepPlan::build` allocates
        // and `owner` names where an access lands: every access of every
        // shape finds exactly one array, inside its hull — a tile row
        // within its rank's store, which each row rebases.
        let d = Region3::of_extent(16, 10, 4);
        let pool = WorkerPool::new(4);
        let islands = || IslandsExecutor::new(&pool, TeamSpec::even(4, 2), Axis::I);
        let schedules = [
            OriginalExecutor::new(&pool).schedule_for(d),
            ExchangeExecutor::new(&pool, TeamSpec::even(4, 2), Axis::I).schedule_for(d),
            islands().cache_bytes(32 << 10).schedule_for(d).unwrap(),
            islands()
                .fuse_steps(3)
                .self_schedule(2)
                .schedule_for(d)
                .unwrap(),
            islands()
                .fuse_steps(2)
                .tile(TileMode::Fixed { ti: 4, tj: 5 })
                .self_schedule(2)
                .schedule_for(d)
                .unwrap(),
        ];
        for schedule in schedules {
            let storage = schedule.storage();
            let key = |s: &Storage| (s.team, s.rank, s.buffer);
            for (n, s) in storage.iter().enumerate() {
                assert!(
                    !storage[..n].iter().any(|t| key(t) == key(s)),
                    "{s:?} twice"
                );
            }
            for a in schedule.accesses() {
                let (team, rank) = schedule.owner(&a);
                let s = storage.iter().find(|s| key(s) == (team, rank, a.buffer));
                let s = s.unwrap_or_else(|| panic!("{a:?} lands in no array"));
                match a.buffer {
                    Buffer::TileScratch(_) => assert!(a.region.cells() <= s.cells(), "{a:?}"),
                    _ => assert!(s.hull.contains_region(a.region), "{a:?} outside {s:?}"),
                }
            }
        }
    }

    #[test]
    fn explicit_2d_partition_matches_reference() {
        // A 2×2 island grid — the paper's future-work shape — executed
        // with real threads.
        let d = Region3::of_extent(16, 16, 4);
        let f = gaussian_pulse(d, (0.2, 0.2, 0.0));
        let expect = ReferenceExecutor::new().step(&f);
        let pool = WorkerPool::new(4);
        let mut parts = Vec::new();
        for half_i in d.split(Axis::I, 2) {
            parts.extend(half_i.split(Axis::J, 2));
        }
        let got = IslandsExecutor::new(&pool, TeamSpec::even(4, 4), Axis::I)
            .with_partition(parts)
            .cache_bytes(64 * 1024)
            .step(&f)
            .unwrap();
        assert_eq!(got.max_abs_diff(&expect), 0.0);
    }

    #[test]
    #[should_panic]
    fn explicit_partition_must_cover_domain() {
        let d = Region3::of_extent(8, 8, 4);
        let f = gaussian_pulse(d, (0.1, 0.0, 0.0));
        let pool = WorkerPool::new(2);
        let half = d.split(Axis::I, 2)[0];
        let _ = IslandsExecutor::new(&pool, TeamSpec::even(2, 2), Axis::I)
            .with_partition(vec![half, half]) // overlapping, not covering
            .step(&f);
    }

    #[test]
    fn self_schedule_matches_reference_bitwise() {
        // Dynamic claiming must not change a single bit: the chunk
        // regions, not the claim order, determine every written value.
        let d = Region3::of_extent(24, 9, 5);
        let mut rng = Xoshiro256pp::seed_from_u64(11);
        let f = random_fields(&mut rng, d, 0.7);
        let expect = ReferenceExecutor::new().step(&f);
        for chunks in [1, 2, 4] {
            let pool = WorkerPool::new(4);
            let got = IslandsExecutor::new(&pool, TeamSpec::even(4, 2), Axis::I)
                .cache_bytes(64 * 1024)
                .self_schedule(chunks)
                .step(&f)
                .unwrap();
            assert_eq!(
                got.max_abs_diff(&expect),
                0.0,
                "self_schedule({chunks}) diverged"
            );
        }
    }

    #[test]
    fn self_schedule_multi_step_matches_reference() {
        let d = Region3::of_extent(20, 10, 4);
        let mut f1 = rotating_cone(d, 0.25);
        let mut f2 = f1.clone();
        let pool = WorkerPool::new(4);
        IslandsExecutor::new(&pool, TeamSpec::even(4, 2), Axis::I)
            .cache_bytes(48 * 1024)
            .self_schedule(3)
            .run(&mut f1, 4)
            .unwrap();
        ReferenceExecutor::new().run(&mut f2, 4);
        assert_eq!(f1.x.max_abs_diff(&f2.x), 0.0);
    }

    #[test]
    fn nonuniform_partition_matches_reference() {
        // Unequal slab widths (8, 7, 7, 8): any disjoint cover must
        // stay bitwise exact, statically and dynamically.
        let d = Region3::of_extent(30, 10, 4);
        let f = gaussian_pulse(d, (0.2, 0.1, 0.0));
        let expect = ReferenceExecutor::new().step(&f);
        let pool = WorkerPool::new(4);
        let parts: Vec<Region3> = [0, 8, 15, 22, 30]
            .windows(2)
            .map(|c| d.with_range(Axis::I, stencil_engine::Range1::new(c[0], c[1])))
            .collect();
        for dynamic in [false, true] {
            let exec = IslandsExecutor::new(&pool, TeamSpec::even(4, 4), Axis::I)
                .with_partition(parts.clone())
                .cache_bytes(64 * 1024);
            let exec = if dynamic { exec.self_schedule(2) } else { exec };
            let got = exec.step(&f).unwrap();
            assert_eq!(got.max_abs_diff(&expect), 0.0, "dynamic={dynamic} diverged");
        }
    }

    #[test]
    fn one_cell_wide_island_matches_reference() {
        // Degenerate non-uniform partition: a single-plane island next
        // to a fat one.
        let d = Region3::of_extent(17, 8, 4);
        let f = gaussian_pulse(d, (0.2, 0.0, 0.0));
        let expect = ReferenceExecutor::new().step(&f);
        let pool = WorkerPool::new(2);
        let thin = d.with_range(Axis::I, stencil_engine::Range1::new(0, 1));
        let fat = d.with_range(Axis::I, stencil_engine::Range1::new(1, 17));
        let got = IslandsExecutor::new(&pool, TeamSpec::even(2, 2), Axis::I)
            .with_partition(vec![thin, fat])
            .cache_bytes(64 * 1024)
            .step(&f)
            .unwrap();
        assert_eq!(got.max_abs_diff(&expect), 0.0);
    }

    #[test]
    fn fused_epochs_match_reference_bitwise() {
        // Temporal blocking must not change a single bit: every fused
        // step computes the same kernels over (enlarged) regions, and
        // region shape never enters the arithmetic of a cell.
        let d = Region3::of_extent(20, 10, 4);
        let mut expect = rotating_cone(d, 0.25);
        ReferenceExecutor::new().run(&mut expect, 8);
        for k in [2, 3, 4] {
            let mut f = rotating_cone(d, 0.25);
            let pool = WorkerPool::new(4);
            IslandsExecutor::new(&pool, TeamSpec::even(4, 2), Axis::I)
                .cache_bytes(48 * 1024)
                .fuse_steps(k)
                .run(&mut f, 8)
                .unwrap();
            assert_eq!(f.x.max_abs_diff(&expect.x), 0.0, "fuse_steps({k}) diverged");
        }
    }

    #[test]
    fn fused_remainder_steps_match_reference() {
        // steps not divisible by k: the trailing partial epoch replays
        // only the last sections of the table.
        let d = Region3::of_extent(18, 9, 4);
        let mut expect = rotating_cone(d, 0.2);
        ReferenceExecutor::new().run(&mut expect, 7);
        let mut f = rotating_cone(d, 0.2);
        let pool = WorkerPool::new(4);
        IslandsExecutor::new(&pool, TeamSpec::even(4, 2), Axis::I)
            .cache_bytes(48 * 1024)
            .fuse_steps(3)
            .run(&mut f, 7)
            .unwrap();
        assert_eq!(f.x.max_abs_diff(&expect.x), 0.0);
    }

    #[test]
    fn fused_single_step_matches_reference() {
        // `step` on a fused plan replays the one-section tail — the
        // unenlarged last fused step — so it must equal k = 1 exactly.
        let d = Region3::of_extent(24, 9, 5);
        let mut rng = Xoshiro256pp::seed_from_u64(17);
        let f = random_fields(&mut rng, d, 0.7);
        let expect = ReferenceExecutor::new().step(&f);
        let pool = WorkerPool::new(4);
        let got = IslandsExecutor::new(&pool, TeamSpec::even(4, 2), Axis::I)
            .cache_bytes(64 * 1024)
            .fuse_steps(3)
            .step(&f)
            .unwrap();
        assert_eq!(got.max_abs_diff(&expect), 0.0);
    }

    #[test]
    fn fused_self_schedule_matches_reference() {
        // Fusion × self-scheduling: chunk claim order stays irrelevant
        // inside every fused step.
        let d = Region3::of_extent(20, 10, 4);
        let mut expect = rotating_cone(d, 0.25);
        ReferenceExecutor::new().run(&mut expect, 6);
        let mut f = rotating_cone(d, 0.25);
        let pool = WorkerPool::new(4);
        IslandsExecutor::new(&pool, TeamSpec::even(4, 2), Axis::I)
            .cache_bytes(48 * 1024)
            .self_schedule(3)
            .fuse_steps(2)
            .run(&mut f, 6)
            .unwrap();
        assert_eq!(f.x.max_abs_diff(&expect.x), 0.0);
    }

    #[test]
    fn fused_explicit_partition_matches_reference() {
        // Fusion over a 2×2 island grid: the backward halo enlargement
        // is per-part, not per-axis.
        let d = Region3::of_extent(16, 16, 4);
        let mut expect = gaussian_pulse(d, (0.2, 0.2, 0.0));
        ReferenceExecutor::new().run(&mut expect, 5);
        let mut f = gaussian_pulse(d, (0.2, 0.2, 0.0));
        let pool = WorkerPool::new(4);
        let mut parts = Vec::new();
        for half_i in d.split(Axis::I, 2) {
            parts.extend(half_i.split(Axis::J, 2));
        }
        IslandsExecutor::new(&pool, TeamSpec::even(4, 4), Axis::I)
            .with_partition(parts)
            .cache_bytes(64 * 1024)
            .fuse_steps(2)
            .run(&mut f, 5)
            .unwrap();
        assert_eq!(f.x.max_abs_diff(&expect.x), 0.0);
    }

    #[test]
    fn fused_interleaves_with_unfused_runs() {
        // Changing the fuse depth mid-flight must replan (the plan keys
        // on k) and stay exact.
        let d = Region3::of_extent(16, 8, 4);
        let mut expect = rotating_cone(d, 0.2);
        ReferenceExecutor::new().run(&mut expect, 6);
        let mut f = rotating_cone(d, 0.2);
        let pool = WorkerPool::new(4);
        let exec = IslandsExecutor::new(&pool, TeamSpec::even(4, 2), Axis::I)
            .cache_bytes(48 * 1024)
            .fuse_steps(3);
        exec.run(&mut f, 3).unwrap();
        exec.run(&mut f, 3).unwrap();
        assert_eq!(f.x.max_abs_diff(&expect.x), 0.0);
    }

    #[test]
    fn tiled_matches_reference_bitwise_across_tile_sizes() {
        // Tile fusion must not change a single bit: per-stage tile
        // regions come from the same backward requirement analysis as
        // blocks, and region shape never enters a cell's arithmetic.
        // Sweep 1-wide slivers, prime extents, tiles larger than the
        // whole part, and the cache-driven auto sizer.
        let d = Region3::of_extent(23, 11, 5);
        let mut rng = Xoshiro256pp::seed_from_u64(23);
        let f = random_fields(&mut rng, d, 0.7);
        let expect = ReferenceExecutor::new().step(&f);
        let pool = WorkerPool::new(4);
        let modes = [
            TileMode::Fixed { ti: 1, tj: 1 },
            TileMode::Fixed { ti: 1, tj: 64 },
            TileMode::Fixed { ti: 64, tj: 1 },
            TileMode::Fixed { ti: 3, tj: 5 },
            TileMode::Fixed { ti: 64, tj: 64 },
            TileMode::Auto,
        ];
        for mode in modes {
            let got = IslandsExecutor::new(&pool, TeamSpec::even(4, 2), Axis::I)
                .cache_bytes(64 * 1024)
                .tile(mode)
                .step(&f)
                .unwrap();
            assert_eq!(got.max_abs_diff(&expect), 0.0, "{mode:?} diverged");
        }
    }

    #[test]
    fn tiled_fused_epochs_match_reference_bitwise() {
        // Tiling × temporal blocking: tiles partition each enlarged
        // fused-step target and the x slots ping-pong exactly as in the
        // untiled replay.
        let d = Region3::of_extent(20, 10, 4);
        let mut expect = rotating_cone(d, 0.25);
        ReferenceExecutor::new().run(&mut expect, 7);
        for k in [2, 3] {
            for mode in [TileMode::Fixed { ti: 4, tj: 3 }, TileMode::Auto] {
                let mut f = rotating_cone(d, 0.25);
                let pool = WorkerPool::new(4);
                IslandsExecutor::new(&pool, TeamSpec::even(4, 2), Axis::I)
                    .cache_bytes(48 * 1024)
                    .fuse_steps(k)
                    .tile(mode)
                    .run(&mut f, 7)
                    .unwrap();
                assert_eq!(
                    f.x.max_abs_diff(&expect.x),
                    0.0,
                    "fuse_steps({k}) × {mode:?} diverged"
                );
            }
        }
    }

    #[test]
    fn tiled_self_schedule_matches_reference_bitwise() {
        // Dynamic tile claiming: the claim order is irrelevant — tiles
        // own disjoint output regions and all scratch is rank-private.
        let d = Region3::of_extent(24, 9, 5);
        let mut rng = Xoshiro256pp::seed_from_u64(31);
        let f = random_fields(&mut rng, d, 0.7);
        let expect = ReferenceExecutor::new().step(&f);
        for chunks in [1, 3] {
            let pool = WorkerPool::new(4);
            let got = IslandsExecutor::new(&pool, TeamSpec::even(4, 2), Axis::I)
                .cache_bytes(64 * 1024)
                .self_schedule(chunks)
                .tile(TileMode::Fixed { ti: 5, tj: 4 })
                .step(&f)
                .unwrap();
            assert_eq!(
                got.max_abs_diff(&expect),
                0.0,
                "self_schedule({chunks}) tiled diverged"
            );
        }
    }

    #[test]
    fn tiled_dynamic_fused_multi_step_matches_reference() {
        // The full composition: tiling × self-scheduling × temporal
        // blocking × a step count that leaves a partial tail epoch.
        let d = Region3::of_extent(20, 10, 4);
        let mut expect = rotating_cone(d, 0.25);
        ReferenceExecutor::new().run(&mut expect, 7);
        let mut f = rotating_cone(d, 0.25);
        let pool = WorkerPool::new(4);
        IslandsExecutor::new(&pool, TeamSpec::even(4, 2), Axis::I)
            .cache_bytes(48 * 1024)
            .self_schedule(2)
            .fuse_steps(3)
            .tile(TileMode::Fixed { ti: 3, tj: 4 })
            .run(&mut f, 7)
            .unwrap();
        assert_eq!(f.x.max_abs_diff(&expect.x), 0.0);
    }

    #[test]
    fn tiled_more_islands_than_slabs_still_correct() {
        // Empty parts get no tiles and still synchronize consistently.
        let d = Region3::of_extent(5, 6, 4);
        let f = gaussian_pulse(d, (0.2, 0.1, 0.0));
        let pool = WorkerPool::new(8);
        let got = IslandsExecutor::new(&pool, TeamSpec::even(8, 8), Axis::I)
            .cache_bytes(64 * 1024)
            .tile(TileMode::Fixed { ti: 2, tj: 2 })
            .step(&f)
            .unwrap();
        let expect = ReferenceExecutor::new().step(&f);
        assert_eq!(got.max_abs_diff(&expect), 0.0);
    }

    #[test]
    #[should_panic]
    fn tiled_periodic_boundaries_still_rejected() {
        // Tiling keeps the box-shaped requirement analysis, so the
        // periodic rejection contract is unchanged.
        let d = Region3::of_extent(12, 8, 4);
        let f = gaussian_pulse(d, (0.2, 0.0, 0.0));
        let pool = WorkerPool::new(2);
        let problem = MpdataProblem::standard().with_boundary(crate::kernels::Boundary::Periodic);
        let _ = IslandsExecutor::with_problem(&pool, TeamSpec::even(2, 2), Axis::I, problem)
            .tile(TileMode::Auto)
            .step(&f);
    }

    #[test]
    fn fused_more_islands_than_slabs_still_correct() {
        // Idle islands own no x slots: their ranks must sit out a
        // multi-step fused epoch instead of reaching for one.
        let d = Region3::of_extent(5, 6, 4);
        let mut expect = gaussian_pulse(d, (0.2, 0.1, 0.0));
        ReferenceExecutor::new().run(&mut expect, 3);
        let pool = WorkerPool::new(8);
        for mode in [TileMode::Off, TileMode::Fixed { ti: 2, tj: 2 }] {
            let mut f = gaussian_pulse(d, (0.2, 0.1, 0.0));
            IslandsExecutor::new(&pool, TeamSpec::even(8, 8), Axis::I)
                .cache_bytes(64 * 1024)
                .fuse_steps(2)
                .tile(mode)
                .run(&mut f, 3)
                .unwrap();
            assert_eq!(f.x.max_abs_diff(&expect.x), 0.0, "{mode:?} diverged");
        }
    }

    #[test]
    fn stage_synchronous_baselines_match_reference() {
        // Per row: inputs, `(workers, teams)` shapes — one team is
        // Original, more are Exchange over parts cut along `axis` — and
        // steps (a single one goes through `step`, more through `run`).
        type Row = (
            &'static str,
            MpdataFields,
            &'static [(usize, usize)],
            Axis,
            usize,
        );
        let ext = Region3::of_extent;
        let random = |d, seed| random_fields(&mut Xoshiro256pp::seed_from_u64(seed), d, 0.7);
        let rows: [Row; 8] = [
            (
                "pools 1-8",
                random(ext(12, 9, 5), 11),
                &[(1, 1), (2, 1), (3, 1), (5, 1), (8, 1)],
                Axis::I,
                1,
            ),
            (
                "derived J cut",
                gaussian_pulse(ext(8, 16, 4), (0.1, 0.2, 0.05)),
                &[(4, 1)],
                Axis::I,
                1,
            ),
            (
                "multi-step",
                rotating_cone(ext(10, 8, 6), 0.3),
                &[(3, 1)],
                Axis::I,
                4,
            ),
            (
                "P > nx",
                gaussian_pulse(ext(3, 4, 4), (0.2, 0.0, 0.0)),
                &[(8, 1)],
                Axis::I,
                1,
            ),
            (
                "variant A",
                random(ext(20, 9, 5), 17),
                &[(2, 2), (4, 2), (6, 3), (8, 4)],
                Axis::I,
                1,
            ),
            (
                "variant B",
                gaussian_pulse(ext(10, 18, 4), (0.15, 0.25, 0.0)),
                &[(6, 3)],
                Axis::J,
                1,
            ),
            (
                "multi-step",
                rotating_cone(ext(16, 12, 4), 0.3),
                &[(4, 2)],
                Axis::I,
                4,
            ),
            (
                "P > nx",
                gaussian_pulse(ext(3, 8, 4), (0.2, 0.1, 0.0)),
                &[(6, 6)],
                Axis::I,
                1,
            ),
        ];
        for (what, init, shapes, axis, steps) in rows {
            let mut expect = init.clone();
            ReferenceExecutor::new().run(&mut expect, steps);
            for &(workers, teams) in shapes {
                let label = format!("{what}: {workers} workers in {teams} teams");
                let pool = WorkerPool::new(workers);
                let spec = TeamSpec::even(workers, teams);
                let mut got = init.clone();
                if teams == 1 {
                    let exec = OriginalExecutor::new(&pool);
                    match steps {
                        1 => got.x = exec.step(&init),
                        _ => exec.run(&mut got, steps),
                    }
                } else {
                    let exec = ExchangeExecutor::new(&pool, spec.clone(), axis);
                    match steps {
                        1 => got.x = exec.step(&init),
                        _ => exec.run(&mut got, steps),
                    }
                    // Scenario 1 (exchange) and scenario 2 (recompute)
                    // agree exactly — the paper's two parallelizations
                    // of the same computation.
                    let mut recomputed = init.clone();
                    IslandsExecutor::new(&pool, spec, axis)
                        .cache_bytes(128 * 1024)
                        .run(&mut recomputed, steps)
                        .unwrap();
                    assert_eq!(got.x.max_abs_diff(&recomputed.x), 0.0, "{label}");
                }
                assert_eq!(got.x.max_abs_diff(&expect.x), 0.0, "{label}");
            }
        }
    }

    #[test]
    fn more_islands_than_slabs_still_correct() {
        let d = Region3::of_extent(5, 6, 4);
        let f = gaussian_pulse(d, (0.2, 0.1, 0.0));
        let pool = WorkerPool::new(8);
        let got = IslandsExecutor::new(&pool, TeamSpec::even(8, 8), Axis::I)
            .cache_bytes(64 * 1024)
            .step(&f)
            .unwrap();
        let expect = ReferenceExecutor::new().step(&f);
        assert_eq!(got.max_abs_diff(&expect), 0.0);
    }
}
