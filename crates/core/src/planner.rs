//! Execution planners: translate each MPDATA strategy into per-core
//! work traces for the NUMA machine simulator.
//!
//! All three planners share the MPDATA stage graph, the first-touch
//! placement model and the flop accounting, and differ exactly where the
//! strategies differ:
//!
//! * [`plan_original`] — 17 full-domain sweeps; every intermediate
//!   round-trips through DRAM; a global barrier after every stage.
//! * [`plan_fused`] — the pure (3+1)D decomposition: all cores of all
//!   sockets cooperate on one cache-sized block at a time. External
//!   slabs of a block live on *one* home node (first touch), so every
//!   block turns all remote sockets loose on a single NUMAlink port;
//!   per-stage halo reads between neighbouring cores become remote-cache
//!   pulls at socket boundaries; and every stage of every block ends in
//!   a machine-wide barrier. These three costs are the collapse of
//!   Table 1.
//! * [`plan_islands`] — islands-of-cores: each socket's team sweeps its
//!   own part with the (3+1)D schedule over *enlarged* stage regions
//!   (recomputing the paper's "extra elements"), reads almost only
//!   node-local memory, synchronizes per stage only within the socket,
//!   and meets the other islands once per time step.
//!
//! The block strategies — fused, islands and the exchange variant of
//! E8 — stamp their per-core ops through one `BlockEmitter` (tables in
//! `DESIGN.md` §2.2): what a (3+1)D block costs a rank is derived once,
//! and the planners keep only their teams, placement and barriers. They
//! do their fallible work (blockings) up front and return team programs,
//! not stored ops: `numa-sim` expands a program one block at a time as
//! the simulation reaches it.
//!
//! Traces describe **one time step**; [`estimate`] simulates it and
//! scales by the step count (the paper relies on the same homogeneity:
//! "such a relatively small number of time steps is sufficient ...
//! because of homogeneity of all time steps").

use crate::mapping::IslandLayout;
use crate::partition::{Partition, Variant};
use mpdata::mpdata_graph;
use numa_sim::{
    simulate, BarrierId, CoreId, Cursor, Machine, NodeId, Op, Placement, SimConfig, SimError,
    SimReport, TeamProgram, TraceSet,
};
use std::sync::Arc;
use stencil_engine::{
    Axis, BlockPlan, BlockPlanner, Blocking, FieldRole, PlanBlocksError, Range1, Region3,
    StageGraph, BYTES_PER_CELL,
};

/// The problem a planner schedules.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Workload {
    /// The MPDATA grid.
    pub domain: Region3,
    /// Number of homogeneous time steps.
    pub steps: usize,
    /// Per-socket cache budget for (3+1)D block sizing, bytes.
    pub cache_bytes: usize,
}

impl Workload {
    /// A workload over `domain` for `steps` steps with the UV 2000's
    /// 16 MiB L3 budget.
    pub fn new(domain: Region3, steps: usize) -> Self {
        Workload {
            domain,
            steps,
            cache_bytes: 16 << 20,
        }
    }

    /// The paper's benchmark: 1024×512×64 grid, 50 time steps.
    pub fn paper() -> Self {
        Self::new(Region3::of_extent(1024, 512, 64), 50)
    }
}

/// How the arrays were first-touched (Table 1's crucial distinction).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InitPolicy {
    /// The master thread initializes everything: every page lands on the
    /// first socket.
    SerialFirstTouch,
    /// Each thread initializes the part it will compute on: pages are
    /// distributed across sockets along the first dimension.
    ParallelFirstTouch,
    /// Pages are interleaved round-robin across all sockets
    /// (`numactl --interleave`): balanced controllers, mostly-remote
    /// accesses. Not evaluated by the paper; included as the standard
    /// third policy.
    Interleaved,
}

/// Builds the placement implied by `init` over the machine's sockets.
fn placement(init: InitPolicy, domain: Region3, machine: &Machine, axis: Axis) -> Placement {
    let nodes = machine.compute_nodes();
    match init {
        InitPolicy::SerialFirstTouch => Placement::serial(domain, nodes[0]),
        InitPolicy::ParallelFirstTouch => Placement::first_touch_split(domain, axis, &nodes),
        InitPolicy::Interleaved => Placement::interleaved(domain, axis, &nodes, 4),
    }
}

/// Emits read streams for `bytes_by_node`, distributing `flops`
/// proportionally to bytes (all-compute op when there is nothing to
/// read).
fn push_streams(stream: &mut Vec<Op>, bytes_by_node: &[(NodeId, f64)], flops: f64) {
    let total: f64 = bytes_by_node.iter().map(|(_, b)| b).sum();
    if total <= 0.0 {
        if flops > 0.0 {
            stream.push(Op::Compute { flops });
        }
        return;
    }
    for &(node, bytes) in bytes_by_node {
        stream.push(Op::Stream {
            node,
            bytes,
            flops: flops * bytes / total,
            write: false,
        });
    }
}

/// Plans one time step of the **original version**.
pub fn plan_original(machine: &Machine, w: &Workload, init: InitPolicy) -> TraceSet {
    let (graph, _) = mpdata_graph();
    let place = placement(init, w.domain, machine, Axis::I);
    let cores: Vec<CoreId> = (0..machine.core_count()).map(CoreId).collect();
    let mut ts = TraceSet::for_cores(machine.core_count());
    let global = ts.add_barrier(cores.clone());
    let slices = w.domain.split(Axis::I, cores.len());
    let mut reads: Vec<(NodeId, f64)> = Vec::new();
    let mut stream = Vec::new();
    for (&core, &slice) in cores.iter().zip(&slices) {
        // A core sweeps the same slice in every stage, and every array
        // is placed alike: one answer serves all inputs and outputs.
        let on = place.bytes_on(slice);
        for st in graph.stages() {
            let flops = slice.cells() as f64 * st.flops_per_cell;
            // Every input — external or intermediate — streams from DRAM
            // in this version.
            reads.clear();
            for _ in &st.inputs {
                reads.extend_from_slice(&on);
            }
            push_streams(&mut stream, &reads, flops);
            // Write-allocate makes a store miss cost a read *and* a
            // write of the line: the memory system sees twice the slab.
            for _ in &st.outputs {
                for &(node, bytes) in &on {
                    stream.push(Op::MemWrite {
                        node,
                        bytes: 2.0 * bytes,
                    });
                }
            }
            stream.push(Op::Barrier { id: global });
        }
        for op in stream.drain(..) {
            ts.push(core, op);
        }
    }
    ts
}

/// Axis along which the ranks of a team split every stage region of a
/// (3+1)D block.
const RANK_AXIS: Axis = Axis::J;

/// A region cut into near-equal slices along [`RANK_AXIS`], one per
/// rank: the rank-invariant half of `Region3::split_nth`, worked out
/// once per (block, stage) instead of once per (block, stage, rank).
#[derive(Clone, Copy)]
struct RankSlices {
    region: Region3,
    /// Cells of one index plane across [`RANK_AXIS`].
    plane: usize,
    /// Every rank gets `base` planes, the first `rem` ranks one more.
    base: usize,
    rem: usize,
}

impl RankSlices {
    fn new(region: Region3, ranks: usize) -> Self {
        let planes = region.range(RANK_AXIS).len();
        RankSlices {
            region,
            plane: if region.is_empty() {
                0
            } else {
                region.cells() / planes
            },
            base: planes / ranks,
            rem: planes % ranks,
        }
    }

    /// Cells in the slice of `rank` (zero for an empty region).
    fn cells(&self, rank: usize) -> usize {
        (self.base + usize::from(rank < self.rem)) * self.plane
    }

    /// The slice of `rank`; the canonical empty region when the region
    /// is empty or has run out of planes before this rank.
    fn slice(&self, rank: usize) -> Region3 {
        let planes = self.base + usize::from(rank < self.rem);
        if planes * self.plane == 0 {
            return Region3::empty();
        }
        let lo = self.region.range(RANK_AXIS).lo + (rank * self.base + rank.min(self.rem)) as i64;
        self.region
            .with_range(RANK_AXIS, Range1::new(lo, lo + planes as i64))
    }
}

/// Per stage, how far its *intermediate* inputs reach along `axis`, each
/// direction summed over those inputs: a stage pulls that many index
/// planes of freshly written values across a slice (or part) boundary.
/// Planes and bytes per plane are integers, so pulls folded through
/// these sums are exact whatever order they are added in.
fn pulled_planes(graph: &StageGraph, axis: Axis) -> Vec<(usize, usize)> {
    graph
        .stages()
        .iter()
        .map(|st| {
            st.inputs
                .iter()
                .filter(|(f, _)| graph.fields().role(*f) != FieldRole::External)
                .map(|(_, pattern)| pattern.halo().along(axis))
                .fold((0, 0), |sum, (neg, pos)| {
                    (sum.0 + neg.max(0) as usize, sum.1 + pos.max(0) as usize)
                })
        })
        .collect()
}

/// The node of each of `cores` (rank order).
fn nodes_of(machine: &Machine, cores: &[CoreId]) -> Vec<NodeId> {
    cores.iter().map(|&c| machine.node_of(c)).collect()
}

/// Stamps the per-core ops of (3+1)D blocks: everything the fused,
/// islands and exchange strategies have in common.
///
/// Built once per plan and owned by its team programs, it holds what the
/// stage graph says about every block — flops per cell, the planes each
/// stage pulls from neighbouring ranks, which stages read each external
/// field. Per block it works out the rank-invariant facts once (slice
/// arithmetic per stage, the load hull of every external field and the
/// placement slabs it touches) into a cursor's [`EmitScratch`] and then
/// stamps each rank's epochs, so a rank costs no heap allocation and no
/// walk of the graph.
#[derive(Debug)]
struct BlockEmitter {
    flops_per_cell: Vec<f64>,
    /// [`pulled_planes`] along [`RANK_AXIS`].
    pulled: Vec<(usize, usize)>,
    /// Per external field, the stages reading it.
    readers: Vec<Vec<usize>>,
}

/// The scratch [`BlockEmitter::emit`] reuses, owned by one cursor.
#[derive(Default)]
struct EmitScratch {
    // Per block.
    stages: Vec<RankSlices>,
    loads: Vec<RankSlices>,
    /// Placement slabs clipped to each load hull, then to the final
    /// stage's region; `clip_ends[n]` closes the `n`-th of these lists.
    clipped: Vec<(Region3, NodeId)>,
    clip_ends: Vec<usize>,
    // Per rank.
    reads: Vec<(NodeId, f64)>,
}

impl BlockEmitter {
    fn new(graph: &StageGraph) -> Self {
        let readers = graph
            .external_fields()
            .into_iter()
            .map(|f| {
                graph
                    .stages()
                    .iter()
                    .filter(|st| st.reads(f))
                    .map(|st| st.id.index())
                    .collect()
            })
            .collect();
        BlockEmitter {
            flops_per_cell: graph.stages().iter().map(|st| st.flops_per_cell).collect(),
            pulled: pulled_planes(graph, RANK_AXIS),
            readers,
        }
    }

    /// Appends one block's ops to `streams[rank]` for every rank of a
    /// team whose members sit on `nodes`: the load phase, then per stage
    /// the write-back (final stage only), the halo pulls from
    /// neighbouring ranks and whatever `tail` adds — the synchronization
    /// closing the epoch. `tail` sees the stream, the stage index, the
    /// block's region of that stage and the rank's slice of it.
    fn emit(
        &self,
        scratch: &mut EmitScratch,
        streams: &mut [Vec<Op>],
        place: &Placement,
        block: &BlockPlan,
        nodes: &[NodeId],
        mut tail: impl FnMut(&mut Vec<Op>, usize, Region3, Region3),
    ) {
        let ranks = nodes.len();
        let last = self.flops_per_cell.len() - 1;
        let EmitScratch {
            stages,
            loads,
            clipped,
            clip_ends,
            reads,
        } = scratch;
        stages.clear();
        stages.extend(
            block
                .stage_regions
                .iter()
                .map(|&region| RankSlices::new(region, ranks)),
        );
        // Each external field is loaded over the hull of the regions of
        // the stages that read it in this block (not the whole block
        // hull — the wavefront lookahead of deep stages does not touch
        // every input).
        loads.clear();
        clipped.clear();
        clip_ends.clear();
        for readers in &self.readers {
            let hull = readers.iter().fold(Region3::empty(), |hull, &s| {
                hull.hull(block.stage_regions[s])
            });
            loads.push(RankSlices::new(hull, ranks));
            place.for_each_in(hull, |part, node| clipped.push((part, node)));
            clip_ends.push(clipped.len());
        }
        place.for_each_in(block.stage_regions[last], |part, node| {
            clipped.push((part, node))
        });
        let final_slabs = clip_ends.last().copied().unwrap_or(0);

        for (rank, stream) in streams.iter_mut().enumerate() {
            // Load phase: stream the block's external slabs from their
            // home nodes while executing the block's arithmetic (stages
            // run out of cache once the slabs arrive, so the hardware
            // overlaps the two; the final stage's flops are excluded —
            // they overlap the output write-back instead).
            let flops = stages[..last]
                .iter()
                .zip(&self.flops_per_cell)
                .fold(0.0, |flops, (slices, per_cell)| {
                    flops + slices.cells(rank) as f64 * per_cell
                });
            reads.clear();
            let mut begin = 0;
            for (load, &end) in loads.iter().zip(&*clip_ends) {
                let slice = load.slice(rank);
                bytes_of(&clipped[begin..end], slice, reads);
                begin = end;
            }
            push_streams(stream, reads, flops);

            for (s, slices) in stages.iter().enumerate() {
                let slice = slices.slice(rank);
                if !slice.is_empty() {
                    if s == last {
                        // Write-back stream, overlapping the final
                        // stage's arithmetic; write-allocate doubles it.
                        let flops = slices.cells(rank) as f64 * self.flops_per_cell[s];
                        reads.clear();
                        bytes_of(&clipped[final_slabs..], slice, reads);
                        let total: f64 = reads.iter().map(|(_, b)| b).sum();
                        for &(node, bytes) in &*reads {
                            stream.push(Op::Stream {
                                node,
                                bytes: 2.0 * bytes,
                                flops: flops * bytes / total.max(1.0),
                                write: true,
                            });
                        }
                    }
                    // Halo pulls: intermediate inputs reach across the
                    // slice boundary into the neighbouring ranks' slices,
                    // whose caches hold those freshly written values.
                    let (neg, pos) = self.pulled[s];
                    let (mine, whole) = (slice.range(RANK_AXIS), slices.region.range(RANK_AXIS));
                    let plane_bytes = slices.plane * BYTES_PER_CELL;
                    let below = (neg > 0 && mine.lo > whole.lo && rank > 0)
                        .then(|| (nodes[rank - 1], (neg * plane_bytes) as f64));
                    let above = (pos > 0 && mine.hi < whole.hi && rank + 1 < ranks)
                        .then(|| (nodes[rank + 1], (pos * plane_bytes) as f64));
                    // One read per source node, lower node first.
                    let pulls = match (below, above) {
                        (Some((a, x)), Some((b, y))) if a == b => [Some((a, x + y)), None],
                        (Some(a), Some(b)) if b.0 < a.0 => [Some(b), Some(a)],
                        (below, above) => [below, above],
                    };
                    for (node, bytes) in pulls.into_iter().flatten() {
                        stream.push(Op::CacheRead { node, bytes });
                    }
                }
                tail(stream, s, slices.region, slice);
            }
        }
    }
}

/// Appends to `on` how many bytes of `slice` live in each of `slabs`
/// (slab order, empty intersections skipped): `Placement::bytes_on` for
/// slabs already clipped to a region containing `slice`.
fn bytes_of(slabs: &[(Region3, NodeId)], slice: Region3, on: &mut Vec<(NodeId, f64)>) {
    if slice.is_empty() {
        return;
    }
    for &(part, node) in slabs {
        let cells = part.intersect(slice).cells();
        if cells > 0 {
            on.push((node, (cells * BYTES_PER_CELL) as f64));
        }
    }
}

/// One team sweeping every block of `blocking`, meeting on `barrier`
/// after each stage: one chunk per block.
#[derive(Debug)]
struct Sweep {
    cores: Vec<CoreId>,
    /// The node of each rank.
    nodes: Vec<NodeId>,
    blocking: Blocking,
    barrier: BarrierId,
    place: Arc<Placement>,
    emitter: Arc<BlockEmitter>,
}

impl TeamProgram for Sweep {
    fn cores(&self) -> &[CoreId] {
        &self.cores
    }

    fn cursor(&self) -> Cursor<'_> {
        let mut scratch = EmitScratch::default();
        let mut blocks = self.blocking.blocks.iter();
        Box::new(move |streams| {
            let Some(block) = blocks.next() else {
                return false;
            };
            let barrier = Op::Barrier { id: self.barrier };
            self.emitter.emit(
                &mut scratch,
                streams,
                &self.place,
                block,
                &self.nodes,
                |stream, _, _, _| stream.push(barrier),
            );
            true
        })
    }
}

/// Plans one time step of the **pure (3+1)D decomposition**.
///
/// # Errors
///
/// Returns [`PlanBlocksError`] when the domain is empty.
pub fn plan_fused(
    machine: &Machine,
    w: &Workload,
    init: InitPolicy,
) -> Result<TraceSet, PlanBlocksError> {
    let (graph, _) = mpdata_graph();
    let place = placement(init, w.domain, machine, Axis::I);
    let blocking = BlockPlanner::new(w.cache_bytes).plan_wavefront(&graph, w.domain, w.domain)?;
    let cores: Vec<CoreId> = (0..machine.core_count()).map(CoreId).collect();
    let mut ts = TraceSet::for_cores(machine.core_count());
    let global = ts.add_barrier(cores.clone());
    // All cores of all sockets are one team; every stage of every block
    // ends in a machine-wide barrier.
    ts.add_program(Sweep {
        nodes: nodes_of(machine, &cores),
        cores,
        blocking,
        barrier: global,
        place: Arc::new(place),
        emitter: Arc::new(BlockEmitter::new(&graph)),
    });
    Ok(ts)
}

/// Plans one time step of the **islands-of-cores approach** over a
/// per-socket layout.
///
/// # Errors
///
/// None in practice: [`PlanBlocksError`] is the block planner's, which
/// rejects only an empty region, and an empty part (more islands than
/// planes) is skipped — its island idles.
pub fn plan_islands(
    machine: &Machine,
    w: &Workload,
    variant: Variant,
) -> Result<TraceSet, PlanBlocksError> {
    let layout = IslandLayout::per_socket(machine);
    plan_islands_with_layout(machine, w, variant, &layout)
}

/// Like [`plan_islands`] with an explicit island layout (sub-socket
/// islands for ablation A2, 2-D layouts, …).
///
/// # Errors
///
/// None in practice: [`PlanBlocksError`] is the block planner's, which
/// rejects only an empty region, and an empty part (more islands than
/// planes) is skipped — its island idles.
pub fn plan_islands_with_layout(
    machine: &Machine,
    w: &Workload,
    variant: Variant,
    layout: &IslandLayout,
) -> Result<TraceSet, PlanBlocksError> {
    let partition =
        Partition::one_d(w.domain, variant, layout.len()).expect("layout has at least one island");
    plan_islands_partitioned(machine, w, &partition, layout)
}

/// First touch by islands: every island initializes its own part, so
/// each slab of every array lives on its island's node.
fn island_placement(domain: Region3, partition: &Partition, layout: &IslandLayout) -> Placement {
    let slabs = partition
        .parts()
        .iter()
        .zip(layout.islands())
        .filter(|(r, _)| !r.is_empty())
        .map(|(&r, island)| (r, island.node))
        .collect();
    Placement::explicit(domain, slabs)
}

/// The most general islands planner: explicit partition and layout
/// (parts are assigned to islands in order; counts must match).
///
/// # Errors
///
/// None in practice: [`PlanBlocksError`] is the block planner's, which
/// rejects only an empty region, and an empty part (more islands than
/// planes) is skipped — its island idles.
///
/// # Panics
///
/// Panics if the partition and layout disagree on the island count.
pub fn plan_islands_partitioned(
    machine: &Machine,
    w: &Workload,
    partition: &Partition,
    layout: &IslandLayout,
) -> Result<TraceSet, PlanBlocksError> {
    assert_eq!(
        partition.islands(),
        layout.len(),
        "partition and layout island counts differ"
    );
    let (graph, _) = mpdata_graph();
    let place = Arc::new(island_placement(w.domain, partition, layout));
    let mut ts = TraceSet::for_cores(machine.core_count());
    let all_cores = layout.all_cores();
    let global = ts.add_barrier(all_cores.clone());
    let emitter = Arc::new(BlockEmitter::new(&graph));

    for (part, island) in partition.parts().iter().zip(layout.islands()) {
        if part.is_empty() {
            continue;
        }
        // Intra-island synchronization only.
        let team_barrier = ts.add_barrier(island.cores.clone());
        let blocking = BlockPlanner::new(w.cache_bytes).plan_wavefront(&graph, *part, w.domain)?;
        ts.add_program(Sweep {
            cores: island.cores.clone(),
            nodes: nodes_of(machine, &island.cores),
            blocking,
            barrier: team_barrier,
            place: Arc::clone(&place),
            emitter: Arc::clone(&emitter),
        });
    }
    // All islands synchronize once per time step, after their programs.
    for core in all_cores {
        ts.push(core, Op::Barrier { id: global });
    }
    Ok(ts)
}

/// Plans one time step of the **exchange variant** of island execution
/// (scenario 1 of Fig. 1 applied *between* islands): islands run the
/// (3+1)D schedule on exactly their own parts — no extra elements — and
/// instead *pull* the boundary values of every intermediate from the
/// neighbouring island's cache, which requires a machine-wide barrier
/// after every stage of every block so the neighbour's values exist.
///
/// This strategy is not in the paper's evaluation; it is the natural
/// strawman its §4.1 argues against, and simulating it quantifies the
/// trade-off at island granularity (experiment E8).
///
/// # Errors
///
/// None in practice: [`PlanBlocksError`] is the block planner's, which
/// rejects only an empty region, and an empty part (more islands than
/// planes) is skipped — its island idles.
pub fn plan_islands_exchange(
    machine: &Machine,
    w: &Workload,
    variant: Variant,
) -> Result<TraceSet, PlanBlocksError> {
    let layout = IslandLayout::per_socket(machine);
    let partition =
        Partition::one_d(w.domain, variant, layout.len()).expect("layout has at least one island");
    let (graph, _) = mpdata_graph();
    let place = island_placement(w.domain, &partition, &layout);
    let mut ts = TraceSet::for_cores(machine.core_count());
    let all_cores = layout.all_cores();
    let global = ts.add_barrier(all_cores.clone());

    // Exact-part wavefront plans: required regions are clipped to the
    // part itself, so no redundant updates exist anywhere.
    let plans: Vec<Option<Blocking>> = partition
        .parts()
        .iter()
        .map(|&part| {
            if part.is_empty() {
                Ok(None)
            } else {
                BlockPlanner::new(w.cache_bytes)
                    .plan_wavefront(&graph, part, part)
                    .map(Some)
            }
        })
        .collect::<Result<_, _>>()?;
    let n_blocks = plans
        .iter()
        .flatten()
        .map(|b| b.blocks.len())
        .max()
        .unwrap_or(0);
    let axis = variant.axis();
    let islands = layout
        .islands()
        .iter()
        .zip(plans)
        .zip(partition.parts())
        .map(|((island, blocking), part)| ExchangeIsland {
            node: island.node,
            nodes: nodes_of(machine, &island.cores),
            part: part.range(axis),
            blocking,
        })
        .collect();
    ts.add_program(Exchange {
        cores: all_cores,
        islands,
        blocks: n_blocks,
        axis,
        crossing: pulled_planes(&graph, axis),
        global,
        place,
        emitter: BlockEmitter::new(&graph),
    });
    Ok(ts)
}

/// One island of the exchange variant.
#[derive(Debug)]
struct ExchangeIsland {
    node: NodeId,
    /// The node of each rank.
    nodes: Vec<NodeId>,
    /// The island's part along the island axis.
    part: Range1,
    /// `None` for an empty part.
    blocking: Option<Blocking>,
}

/// The exchange variant as one program over every core, island after
/// island: chunk `b` is block `b` of every island, each stage closed by
/// the machine-wide barrier.
#[derive(Debug)]
struct Exchange {
    cores: Vec<CoreId>,
    islands: Vec<ExchangeIsland>,
    /// The most blocks any island has.
    blocks: usize,
    axis: Axis,
    /// [`pulled_planes`] along `axis`.
    crossing: Vec<(usize, usize)>,
    global: BarrierId,
    place: Placement,
    emitter: BlockEmitter,
}

impl TeamProgram for Exchange {
    fn cores(&self) -> &[CoreId] {
        &self.cores
    }

    fn cursor(&self) -> Cursor<'_> {
        let mut scratch = EmitScratch::default();
        let mut b = 0;
        let global = Op::Barrier { id: self.global };
        Box::new(move |streams| {
            if b == self.blocks {
                return false;
            }
            let mut first = 0;
            for (p, island) in self.islands.iter().enumerate() {
                let team = &mut streams[first..first + island.nodes.len()];
                first += island.nodes.len();
                let block = island
                    .blocking
                    .as_ref()
                    .and_then(|blocking| blocking.blocks.get(b));
                let Some(block) = block else {
                    // An island out of blocks still meets every barrier.
                    for stream in team {
                        for _ in &self.emitter.flops_per_cell {
                            stream.push(global);
                        }
                    }
                    continue;
                };
                let tail = |stream: &mut Vec<Op>, s: usize, region: Region3, slice: Region3| {
                    // Inter-island halo pulls: a rank of a stage region
                    // that touches the part boundary pulls the neighbour
                    // island's freshly computed boundary planes.
                    if !slice.is_empty() {
                        let (neg, pos) = self.crossing[s];
                        let across = region.range(self.axis);
                        let plane_bytes =
                            (slice.cells() / slice.range(self.axis).len() * BYTES_PER_CELL) as f64;
                        if neg > 0 && across.lo == island.part.lo && p > 0 {
                            stream.push(Op::CacheRead {
                                node: self.islands[p - 1].node,
                                bytes: neg as f64 * plane_bytes,
                            });
                        }
                        if pos > 0 && across.hi == island.part.hi && p + 1 < self.islands.len() {
                            stream.push(Op::CacheRead {
                                node: self.islands[p + 1].node,
                                bytes: pos as f64 * plane_bytes,
                            });
                        }
                    }
                    // Machine-wide synchronization after every stage: the
                    // neighbours' values must exist before the next stage
                    // reads them across the boundary.
                    stream.push(global);
                };
                self.emitter
                    .emit(&mut scratch, team, &self.place, block, &island.nodes, tail);
            }
            b += 1;
            true
        })
    }
}

/// Outcome of simulating one strategy.
#[derive(Clone, Debug)]
pub struct RunEstimate {
    /// Simulated seconds per time step.
    pub step_seconds: f64,
    /// Simulated seconds for the whole workload.
    pub total_seconds: f64,
    /// The underlying engine report for the single simulated step.
    pub report: SimReport,
}

/// Simulates one step of `traces` on `machine` and scales to the
/// workload's step count.
///
/// # Errors
///
/// Propagates [`SimError`] from the engine.
pub fn estimate(
    machine: &Machine,
    traces: &TraceSet,
    w: &Workload,
    config: &SimConfig,
) -> Result<RunEstimate, SimError> {
    let report = simulate(machine, traces, config)?;
    Ok(RunEstimate {
        step_seconds: report.makespan,
        total_seconds: report.makespan * w.steps as f64,
        report,
    })
}

/// The global barrier id every planner registers first (exposed for
/// tests).
pub const GLOBAL_BARRIER: BarrierId = BarrierId(0);

#[cfg(test)]
mod tests {
    use super::*;
    use numa_sim::UvParams;

    fn small_workload() -> Workload {
        Workload {
            domain: Region3::of_extent(64, 32, 8),
            steps: 5,
            cache_bytes: 256 * 1024,
        }
    }

    #[test]
    fn rank_slices_are_the_nth_parts_of_a_split() {
        // More ranks than planes, uneven and even splits, an empty region.
        let regions = [
            Region3::new(Range1::new(3, 9), Range1::new(-2, 11), Range1::new(0, 4)),
            Region3::new(Range1::new(0, 2), Range1::new(5, 8), Range1::new(1, 3)),
            Region3::of_extent(4, 16, 2),
            Region3::empty(),
        ];
        for region in regions {
            for ranks in [1, 3, 8] {
                let slices = RankSlices::new(region, ranks);
                for rank in 0..ranks {
                    let expect = if region.is_empty() {
                        region
                    } else {
                        region.split_nth(RANK_AXIS, ranks, rank)
                    };
                    assert_eq!(slices.cells(rank), expect.cells(), "{region:?} / {ranks}");
                    if expect.is_empty() {
                        assert_eq!(slices.slice(rank), Region3::empty());
                    } else {
                        assert_eq!(slices.slice(rank), expect);
                    }
                }
            }
        }
    }

    #[test]
    fn original_traces_validate_and_run() {
        let m = UvParams::uv2000(2).build();
        let w = small_workload();
        for init in [InitPolicy::SerialFirstTouch, InitPolicy::ParallelFirstTouch] {
            let ts = plan_original(&m, &w, init);
            let est = estimate(&m, &ts, &w, &SimConfig::default()).unwrap();
            assert!(est.step_seconds > 0.0);
            assert!((est.total_seconds - 5.0 * est.step_seconds).abs() < 1e-12);
        }
    }

    #[test]
    fn serial_init_is_slower_and_all_on_node0() {
        let m = UvParams::uv2000(4).build();
        let w = small_workload();
        let cfg = SimConfig::default();
        let ser = estimate(
            &m,
            &plan_original(&m, &w, InitPolicy::SerialFirstTouch),
            &w,
            &cfg,
        )
        .unwrap();
        let par = estimate(
            &m,
            &plan_original(&m, &w, InitPolicy::ParallelFirstTouch),
            &w,
            &cfg,
        )
        .unwrap();
        assert!(
            ser.step_seconds > 1.5 * par.step_seconds,
            "serial {} vs parallel {}",
            ser.step_seconds,
            par.step_seconds
        );
        // Serial init: only node 0's controller is busy.
        assert!(ser.report.memctrl_busy[0] > 0.0);
        assert_eq!(ser.report.memctrl_busy[1], 0.0);
        assert!(par.report.memctrl_busy[1] > 0.0);
    }

    #[test]
    fn fused_traces_validate_and_run() {
        let m = UvParams::uv2000(2).build();
        let w = small_workload();
        let ts = plan_fused(&m, &w, InitPolicy::ParallelFirstTouch).unwrap();
        let est = estimate(&m, &ts, &w, &SimConfig::default()).unwrap();
        assert!(est.step_seconds > 0.0);
        // Fused must move far fewer DRAM bytes than original.
        let orig = plan_original(&m, &w, InitPolicy::ParallelFirstTouch);
        let orig_est = estimate(&m, &orig, &w, &SimConfig::default()).unwrap();
        let fused_dram = est.report.mem_local_bytes + est.report.mem_remote_bytes;
        let orig_dram = orig_est.report.mem_local_bytes + orig_est.report.mem_remote_bytes;
        assert!(
            fused_dram < orig_dram / 5.0,
            "fused {fused_dram} vs original {orig_dram}"
        );
    }

    #[test]
    fn islands_traces_validate_and_run() {
        let m = UvParams::uv2000(4).build();
        let w = small_workload();
        let ts = plan_islands(&m, &w, Variant::A).unwrap();
        let est = estimate(&m, &ts, &w, &SimConfig::default()).unwrap();
        assert!(est.step_seconds > 0.0);
        // Islands use only intra-socket cache traffic — no remote pulls.
        assert_eq!(est.report.cache_remote_bytes, 0.0);
    }

    #[test]
    fn fused_has_remote_cache_traffic_on_many_sockets() {
        let m = UvParams::uv2000(4).build();
        let w = small_workload();
        let ts = plan_fused(&m, &w, InitPolicy::ParallelFirstTouch).unwrap();
        let est = estimate(&m, &ts, &w, &SimConfig::default()).unwrap();
        assert!(
            est.report.cache_remote_bytes > 0.0,
            "socket-boundary halo pulls must cross nodes"
        );
    }

    #[test]
    fn islands_beat_fused_on_many_sockets() {
        let m = UvParams::uv2000(8).build();
        let w = small_workload();
        let cfg = SimConfig::default();
        let fused = estimate(
            &m,
            &plan_fused(&m, &w, InitPolicy::ParallelFirstTouch).unwrap(),
            &w,
            &cfg,
        )
        .unwrap();
        let isl = estimate(&m, &plan_islands(&m, &w, Variant::A).unwrap(), &w, &cfg).unwrap();
        assert!(
            isl.step_seconds < fused.step_seconds,
            "islands {} vs fused {}",
            isl.step_seconds,
            fused.step_seconds
        );
    }

    /// Sums the flops carried by every op of a trace set.
    fn trace_flops(ts: &numa_sim::TraceSet) -> f64 {
        ts.streams()
            .iter()
            .flatten()
            .map(|op| match *op {
                Op::Compute { flops } | Op::Stream { flops, .. } => flops,
                _ => 0.0,
            })
            .sum()
    }

    #[test]
    fn flop_accounting_is_strategy_independent_up_to_extras() {
        // Planned flops: original = fused (wavefront has no redundancy);
        // islands = fused + the part-boundary extra elements (a few
        // percent, exactly the Table 2 quantity).
        let m = UvParams::uv2000(4).build();
        let w = small_workload();
        let f_orig = trace_flops(&plan_original(&m, &w, InitPolicy::ParallelFirstTouch));
        let f_fused = trace_flops(&plan_fused(&m, &w, InitPolicy::ParallelFirstTouch).unwrap());
        let f_isl = trace_flops(&plan_islands(&m, &w, Variant::A).unwrap());
        assert!(
            (f_orig - f_fused).abs() / f_orig < 1e-9,
            "original {f_orig} vs fused {f_fused}"
        );
        assert!(f_isl > f_fused, "islands must pay extra elements");
        let extra = (f_isl - f_fused) / f_fused;
        assert!(
            extra < 0.20,
            "extra fraction {extra} should be a few percent on this grid"
        );
        // And it matches the overlap analysis exactly (flops-weighted
        // regions vs cell-weighted differ, so compare loosely).
        let analysis = crate::overlap::extra_elements(
            &mpdata_graph().0,
            &Partition::one_d(w.domain, Variant::A, 4).unwrap(),
        );
        let cells_extra = analysis.percent() / 100.0;
        assert!(
            (extra - cells_extra).abs() < 0.05,
            "trace extra {extra} vs analysis {cells_extra}"
        );
    }

    #[test]
    fn exchange_variant_validates_and_costs_more_on_many_sockets() {
        let w = small_workload();
        let cfg = SimConfig::default();
        let m = UvParams::uv2000(8).build();
        let rec = estimate(&m, &plan_islands(&m, &w, Variant::A).unwrap(), &w, &cfg)
            .unwrap()
            .total_seconds;
        let exc = estimate(
            &m,
            &plan_islands_exchange(&m, &w, Variant::A).unwrap(),
            &w,
            &cfg,
        )
        .unwrap();
        assert!(
            exc.total_seconds > rec,
            "exchange {} vs recompute {rec}",
            exc.total_seconds
        );
        // Exchange really does pull across islands...
        assert!(exc.report.cache_remote_bytes > 0.0);
        // ...and performs no redundant flops: trace flops equal fused's.
        let f_exc = trace_flops(&plan_islands_exchange(&m, &w, Variant::A).unwrap());
        let f_fused = trace_flops(&plan_fused(&m, &w, InitPolicy::ParallelFirstTouch).unwrap());
        assert!(
            (f_exc - f_fused).abs() / f_fused < 1e-9,
            "exchange {f_exc} vs fused {f_fused}"
        );
    }

    #[test]
    fn sub_socket_layout_plans() {
        let m = UvParams::uv2000(2).build();
        let w = small_workload();
        let layout = IslandLayout::sub_socket(&m, 4);
        let ts = plan_islands_with_layout(&m, &w, Variant::A, &layout).unwrap();
        let est = estimate(&m, &ts, &w, &SimConfig::default()).unwrap();
        assert!(est.step_seconds > 0.0);
    }
}
