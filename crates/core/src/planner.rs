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
//! Traces describe **one time step**; [`estimate`] simulates it and
//! scales by the step count (the paper relies on the same homogeneity:
//! "such a relatively small number of time steps is sufficient ...
//! because of homogeneity of all time steps").

use crate::mapping::IslandLayout;
use crate::partition::{Partition, Variant};
use mpdata::mpdata_graph;
use numa_sim::{
    simulate, BarrierId, CoreId, Machine, NodeId, Op, Placement, SimConfig, SimError, SimReport,
    TraceSet,
};
use stencil_engine::{
    Axis, BlockPlanner, Blocking, FieldRole, PlanBlocksError, Region3, StageGraph, BYTES_PER_CELL,
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
fn push_streams(ts: &mut TraceSet, core: CoreId, bytes_by_node: &[(NodeId, f64)], flops: f64) {
    let total: f64 = bytes_by_node.iter().map(|(_, b)| b).sum();
    if total <= 0.0 {
        if flops > 0.0 {
            ts.push(core, Op::Compute { flops });
        }
        return;
    }
    for &(node, bytes) in bytes_by_node {
        ts.push(
            core,
            Op::Stream {
                node,
                bytes,
                flops: flops * bytes / total,
                write: false,
            },
        );
    }
}

/// Emits the write-back of one output slab: write-allocate makes a store
/// miss cost a read *and* a write of the line, so the memory system sees
/// twice the slab size.
fn push_writes(ts: &mut TraceSet, core: CoreId, bytes_by_node: &[(NodeId, f64)]) {
    for &(node, bytes) in bytes_by_node {
        if bytes > 0.0 {
            ts.push(
                core,
                Op::MemWrite {
                    node,
                    bytes: 2.0 * bytes,
                },
            );
        }
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
    for st in graph.stages() {
        for (&core, &slice) in cores.iter().zip(&slices) {
            let flops = slice.cells() as f64 * st.flops_per_cell;
            // Every input — external or intermediate — streams from DRAM
            // in this version.
            let mut reads: Vec<(NodeId, f64)> = Vec::new();
            for _ in &st.inputs {
                reads.extend(place.bytes_on(slice));
            }
            push_streams(&mut ts, core, &reads, flops);
            for _ in &st.outputs {
                push_writes(&mut ts, core, &place.bytes_on(slice));
            }
            ts.push(core, Op::Barrier { id: global });
        }
    }
    ts
}

/// Per-core load phase of one (3+1)D/islands block: stream the block's
/// external slabs from their home nodes while executing the block's
/// arithmetic (stages run out of cache once the slabs arrive, so the
/// hardware overlaps the two; the final stage's flops are excluded —
/// they overlap the output write-back instead).
fn push_block_load(
    ts: &mut TraceSet,
    graph: &StageGraph,
    place: &Placement,
    block: &stencil_engine::BlockPlan,
    team: &[CoreId],
    rank: usize,
    split_axis: Axis,
) {
    let core = team[rank];
    let mut flops = 0.0;
    for st in graph.stages().iter().take(graph.stage_count() - 1) {
        let slice = st_slice(
            block.stage_regions[st.id.index()],
            split_axis,
            team.len(),
            rank,
        );
        flops += slice.cells() as f64 * st.flops_per_cell;
    }
    // Each external field is loaded over the hull of the regions of the
    // stages that read it in this block (not the whole block hull — the
    // wavefront lookahead of deep stages does not touch every input).
    let mut reads: Vec<(NodeId, f64)> = Vec::new();
    for f in graph.external_fields() {
        let mut hull = Region3::empty();
        for st in graph.stages() {
            if st.reads(f) {
                hull = hull.hull(block.stage_regions[st.id.index()]);
            }
        }
        let slice = st_slice(hull, split_axis, team.len(), rank);
        if !slice.is_empty() {
            reads.extend(place.bytes_on(slice));
        }
    }
    push_streams(ts, core, &reads, flops);
}

/// The rank's slice of a stage region (empty regions slice to empty).
fn st_slice(region: Region3, split_axis: Axis, team: usize, rank: usize) -> Region3 {
    if region.is_empty() {
        Region3::empty()
    } else {
        region.split_nth(split_axis, team, rank)
    }
}

/// Per-core synchronization-path work of one stage: intra-step halo
/// pulls from neighbouring ranks' caches, and the final stage's
/// write-back stream (overlapping the final stage's arithmetic).
#[allow(clippy::too_many_arguments)]
fn push_block_stage(
    ts: &mut TraceSet,
    graph: &StageGraph,
    machine: &Machine,
    out_place: &Placement,
    stage_idx: usize,
    region: Region3,
    team: &[CoreId],
    rank: usize,
    split_axis: Axis,
) {
    let st = &graph.stages()[stage_idx];
    let core = team[rank];
    let slice = st_slice(region, split_axis, team.len(), rank);
    let is_final = stage_idx + 1 == graph.stage_count();

    if is_final && !slice.is_empty() {
        let flops = slice.cells() as f64 * st.flops_per_cell;
        let slabs = out_place.bytes_on(slice);
        let total: f64 = slabs.iter().map(|(_, b)| b).sum();
        for (node, bytes) in slabs {
            ts.push(
                core,
                Op::Stream {
                    node,
                    bytes: 2.0 * bytes,
                    flops: flops * bytes / total.max(1.0),
                    write: true,
                },
            );
        }
    }

    // Halo pulls: intermediate inputs reach `halo` cells across the
    // split axis into the slices of the neighbouring ranks, whose caches
    // hold those freshly written values.
    let mut pulls: Vec<(NodeId, f64)> = Vec::new();
    if !slice.is_empty() {
        for (f, pattern) in &st.inputs {
            if graph.fields().role(*f) == FieldRole::External {
                continue;
            }
            let h = pattern.halo();
            let (neg, pos) = h.along(split_axis);
            let plane_cells = match split_axis {
                Axis::I => slice.j.len() * slice.k.len(),
                Axis::J => slice.i.len() * slice.k.len(),
                Axis::K => slice.i.len() * slice.j.len(),
            };
            let r = slice.range(split_axis);
            let whole = region.range(split_axis);
            if neg > 0 && r.lo > whole.lo && rank > 0 {
                let owner = machine.node_of(team[rank - 1]);
                pulls.push((owner, (neg as usize * plane_cells * BYTES_PER_CELL) as f64));
            }
            if pos > 0 && r.hi < whole.hi && rank + 1 < team.len() {
                let owner = machine.node_of(team[rank + 1]);
                pulls.push((owner, (pos as usize * plane_cells * BYTES_PER_CELL) as f64));
            }
        }
    }
    // Aggregate per source node to keep traces small.
    pulls.sort_by_key(|(n, _)| n.index());
    let mut agg: Vec<(NodeId, f64)> = Vec::new();
    for (n, b) in pulls {
        match agg.last_mut() {
            Some((last, acc)) if *last == n => *acc += b,
            _ => agg.push((n, b)),
        }
    }
    for (node, bytes) in agg {
        ts.push(core, Op::CacheRead { node, bytes });
    }
}

/// Plans one time step of the **pure (3+1)D decomposition**.
///
/// # Errors
///
/// Returns [`PlanBlocksError`] when no block fits the cache budget.
pub fn plan_fused(
    machine: &Machine,
    w: &Workload,
    init: InitPolicy,
) -> Result<TraceSet, PlanBlocksError> {
    let (graph, _) = mpdata_graph();
    let place = placement(init, w.domain, machine, Axis::I);
    let blocking = BlockPlanner::new(w.cache_bytes)
        .min_depth(4)
        .plan_wavefront(&graph, w.domain, w.domain)?;
    let cores: Vec<CoreId> = (0..machine.core_count()).map(CoreId).collect();
    let mut ts = TraceSet::for_cores(machine.core_count());
    let global = ts.add_barrier(cores.clone());
    for block in &blocking.blocks {
        for rank in 0..cores.len() {
            push_block_load(&mut ts, &graph, &place, block, &cores, rank, Axis::J);
        }
        for stage_idx in 0..graph.stage_count() {
            let region = block.stage_regions[stage_idx];
            for rank in 0..cores.len() {
                push_block_stage(
                    &mut ts,
                    &graph,
                    machine,
                    &place,
                    stage_idx,
                    region,
                    &cores,
                    rank,
                    Axis::J,
                );
                ts.push(cores[rank], Op::Barrier { id: global });
            }
        }
    }
    Ok(ts)
}

/// Plans one time step of the **islands-of-cores approach** over a
/// per-socket layout.
///
/// # Errors
///
/// Returns [`PlanBlocksError`] when an island's block does not fit the
/// cache budget.
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
/// Returns [`PlanBlocksError`] when an island's block does not fit the
/// cache budget.
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

/// The most general islands planner: explicit partition and layout
/// (parts are assigned to islands in order; counts must match).
///
/// # Errors
///
/// Returns [`PlanBlocksError`] when an island's block does not fit the
/// cache budget.
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
    // First touch: every island initializes its own part, so each slab
    // of every array lives on its island's node.
    let slabs: Vec<(Region3, NodeId)> = partition
        .parts()
        .iter()
        .zip(layout.islands())
        .filter(|(r, _)| !r.is_empty())
        .map(|(&r, island)| (r, island.node))
        .collect();
    let place = Placement::explicit(w.domain, slabs);
    let mut ts = TraceSet::for_cores(machine.core_count());
    let all_cores = layout.all_cores();
    let global = ts.add_barrier(all_cores.clone());

    for (part, island) in partition.parts().iter().zip(layout.islands()) {
        if part.is_empty() {
            continue;
        }
        let team_barrier = ts.add_barrier(island.cores.clone());
        let blocking: Blocking = BlockPlanner::new(w.cache_bytes)
            .min_depth(4)
            .plan_wavefront(&graph, *part, w.domain)?;
        for block in &blocking.blocks {
            for rank in 0..island.cores.len() {
                push_block_load(&mut ts, &graph, &place, block, &island.cores, rank, Axis::J);
            }
            for stage_idx in 0..graph.stage_count() {
                let region = block.stage_regions[stage_idx];
                for rank in 0..island.cores.len() {
                    push_block_stage(
                        &mut ts,
                        &graph,
                        machine,
                        &place,
                        stage_idx,
                        region,
                        &island.cores,
                        rank,
                        Axis::J,
                    );
                    // Intra-island synchronization only.
                    ts.push(island.cores[rank], Op::Barrier { id: team_barrier });
                }
            }
        }
    }
    // All islands synchronize once per time step.
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
/// Returns [`PlanBlocksError`] when an island's block does not fit the
/// cache budget.
pub fn plan_islands_exchange(
    machine: &Machine,
    w: &Workload,
    variant: Variant,
) -> Result<TraceSet, PlanBlocksError> {
    let layout = IslandLayout::per_socket(machine);
    let partition =
        Partition::one_d(w.domain, variant, layout.len()).expect("layout has at least one island");
    let (graph, _) = mpdata_graph();
    let slabs: Vec<(Region3, NodeId)> = partition
        .parts()
        .iter()
        .zip(layout.islands())
        .filter(|(r, _)| !r.is_empty())
        .map(|(&r, island)| (r, island.node))
        .collect();
    let place = Placement::explicit(w.domain, slabs);
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
                    .min_depth(4)
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

    for b in 0..n_blocks {
        // Load + compute phase of this block round on every island.
        for (p, island) in layout.islands().iter().enumerate() {
            let Some(blocking) = &plans[p] else { continue };
            if let Some(block) = blocking.blocks.get(b) {
                for rank in 0..island.cores.len() {
                    push_block_load(&mut ts, &graph, &place, block, &island.cores, rank, Axis::J);
                }
            }
        }
        for stage_idx in 0..graph.stage_count() {
            let st = &graph.stages()[stage_idx];
            for (p, island) in layout.islands().iter().enumerate() {
                let region = plans[p]
                    .as_ref()
                    .and_then(|bl| bl.blocks.get(b))
                    .map(|blk| blk.stage_regions[stage_idx])
                    .unwrap_or(Region3::empty());
                for rank in 0..island.cores.len() {
                    push_block_stage(
                        &mut ts,
                        &graph,
                        machine,
                        &place,
                        stage_idx,
                        region,
                        &island.cores,
                        rank,
                        Axis::J,
                    );
                    // Inter-island halo pulls: the rank whose slice
                    // touches the part boundary pulls the neighbour
                    // island's freshly computed boundary planes.
                    if !region.is_empty() {
                        let slice = st_slice(region, Axis::J, island.cores.len(), rank);
                        if !slice.is_empty() {
                            let mut bytes_lo = 0.0;
                            let mut bytes_hi = 0.0;
                            for (f, pattern) in &st.inputs {
                                if graph.fields().role(*f) == FieldRole::External {
                                    continue;
                                }
                                let h = pattern.halo();
                                let (neg, pos) = h.along(axis);
                                let plane = match axis {
                                    Axis::I => slice.j.len() * slice.k.len(),
                                    Axis::J => slice.i.len() * slice.k.len(),
                                    Axis::K => slice.i.len() * slice.j.len(),
                                } as f64
                                    * BYTES_PER_CELL as f64;
                                if neg > 0
                                    && region.range(axis).lo == partition.parts()[p].range(axis).lo
                                {
                                    bytes_lo += neg as f64 * plane;
                                }
                                if pos > 0
                                    && region.range(axis).hi == partition.parts()[p].range(axis).hi
                                {
                                    bytes_hi += pos as f64 * plane;
                                }
                            }
                            if bytes_lo > 0.0 && p > 0 {
                                ts.push(
                                    island.cores[rank],
                                    Op::CacheRead {
                                        node: layout.islands()[p - 1].node,
                                        bytes: bytes_lo,
                                    },
                                );
                            }
                            if bytes_hi > 0.0 && p + 1 < layout.len() {
                                ts.push(
                                    island.cores[rank],
                                    Op::CacheRead {
                                        node: layout.islands()[p + 1].node,
                                        bytes: bytes_hi,
                                    },
                                );
                            }
                        }
                    }
                }
            }
            // Machine-wide synchronization after every stage: the
            // neighbours' values must exist before the next stage reads
            // them across the boundary.
            for core in &all_cores {
                ts.push(*core, Op::Barrier { id: global });
            }
        }
    }
    Ok(ts)
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
        ts.ops
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
