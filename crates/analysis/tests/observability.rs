//! Cross-checks runtime observability against the static analyzer.
//!
//! A traced islands run reports, per island, how many redundant halo
//! cells it recomputed (the `redundant` column of `--metrics`). Those
//! counts come from the plan's per-epoch bookkeeping, so they must
//! equal the overlap volumes `islands_core::per_island_extra` derives
//! purely from the stage graph and the partition — every step, every
//! island, exactly. A drift between the two would mean either the
//! planner schedules work the analyzer does not predict, or the
//! analyzer's Table-2 accounting is wrong.

use islands_core::{extra_elements, per_island_extra, Partition, Variant};
use mpdata::{gaussian_pulse, mpdata_graph, IslandsExecutor, MpdataProblem, TileMode};
use stencil_engine::{tile_grid, Axis, Region3};
use work_scheduler::{TeamSpec, WorkerPool};

/// The trace session is process-global, and the test harness runs
/// this file's tests on parallel threads: a traced run holds this lock
/// so another test's spans cannot land in its session.
static SESSION: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Runs `steps` traced islands steps and returns the aggregated
/// per-step metrics (island order = partition order).
fn traced_metrics(
    d: Region3,
    islands: usize,
    workers: usize,
    steps: usize,
) -> islands_trace::metrics::RunMetrics {
    let pool = WorkerPool::new(workers);
    let exec = IslandsExecutor::with_problem(
        &pool,
        TeamSpec::even(workers, islands),
        Axis::I,
        MpdataProblem::with_iord(2),
    );
    let mut fields = gaussian_pulse(d, (0.3, 0.0, 0.0));
    let _exclusive = SESSION.lock().unwrap_or_else(|e| e.into_inner());
    let session = islands_trace::Session::start();
    exec.run(&mut fields, steps).unwrap();
    let drained = session.finish();
    assert_eq!(drained.dropped, 0, "ring buffers wrapped; grow capacity");
    islands_trace::metrics::RunMetrics::aggregate(&drained)
}

/// `(cells, redundant)` kernel-span totals, one entry per index.
type CellTotals = Vec<(u64, u64)>;

/// Runs `steps` traced steps of `exec` and folds every kernel span's
/// `(cells, redundant)` tags twice: per stage (summed over islands) and
/// per island (summed over stages).
fn traced_kernel_cells(
    exec: &IslandsExecutor<'_>,
    d: Region3,
    steps: usize,
) -> (CellTotals, CellTotals) {
    let mut fields = gaussian_pulse(d, (0.3, 0.2, 0.1));
    let _exclusive = SESSION.lock().unwrap_or_else(|e| e.into_inner());
    let session = islands_trace::Session::start();
    exec.run(&mut fields, steps).unwrap();
    let drained = session.finish();
    assert_eq!(drained.dropped, 0, "ring buffers wrapped; grow capacity");
    let (mut stages, mut islands) = (Vec::new(), Vec::new());
    let kernels = drained.events.iter().map(|t| &t.ev);
    for ev in kernels.filter(|ev| ev.kind == islands_trace::SpanKind::Kernel) {
        for (rows, at) in [
            (&mut stages, ev.stage as usize),
            (&mut islands, ev.island as usize),
        ] {
            if rows.len() <= at {
                rows.resize(at + 1, (0, 0));
            }
            rows[at].0 += ev.aux[0];
            rows[at].1 += ev.aux[1];
        }
    }
    (stages, islands)
}

#[test]
fn tiled_runs_attribute_cells_to_tile_chains() {
    // A tile's chain computes every stage `s` over `r_s`, its share of
    // `required_regions(tile, domain)`; of those cells, the ones
    // outside `tile ∩ part ∩ base_s` (`base` = the zero-overlap
    // regions of the whole domain) are redundant. Derived here from
    // `tile_grid` and the graph alone, for k = 1 (each fused-step
    // target is the island's own part).
    let (graph, _) = mpdata_graph();
    let d = Region3::of_extent(30, 22, 8);
    let steps = 2;
    let base = graph.required_regions(d, d);
    let mut expected = vec![(0u64, 0u64); graph.stages().len()];
    for part in d.split(Axis::I, 2) {
        for tile in tile_grid(part, (7, 5)) {
            let regs = graph.required_regions(tile, d);
            for (s, st) in graph.stages().iter().enumerate() {
                let r = regs[st.id.index()];
                let owned = r
                    .intersect(tile)
                    .intersect(part)
                    .intersect(base[st.id.index()]);
                expected[s].0 += (steps * r.cells()) as u64;
                expected[s].1 += (steps * (r.cells() - owned.cells())) as u64;
            }
        }
    }
    assert!(expected.iter().any(|&(_, redundant)| redundant > 0));
    let pool = WorkerPool::new(4);
    for chunks in [0, 2] {
        let mut exec = IslandsExecutor::new(&pool, TeamSpec::even(4, 2), Axis::I)
            .tile(TileMode::Fixed { ti: 7, tj: 5 });
        if chunks > 0 {
            exec = exec.self_schedule(chunks);
        }
        let (per_stage, _) = traced_kernel_cells(&exec, d, steps);
        assert_eq!(per_stage, expected, "chunks_per_rank {chunks}");
    }
}

#[test]
fn fused_tiled_attribution_is_pinned() {
    // Per-island totals, pinned: the enlarged fused-step targets of
    // k > 1 have no closed form worth re-deriving here. An uneven 7×5
    // grid, dynamic tile claims, one team of two ranks, a 3 + 3 + 1
    // epoch split…
    let pool = WorkerPool::new(2);
    let d = Region3::of_extent(45, 21, 10);
    let exec = IslandsExecutor::single_island(&pool, MpdataProblem::standard())
        .fuse_steps(3)
        .tile(TileMode::Fixed { ti: 7, tj: 5 })
        .self_schedule(2);
    let (_, islands) = traced_kernel_cells(&exec, d, 7);
    assert_eq!(islands, [(2_133_390, 1_008_840)]);
    // …and auto tiles on two islands of one rank each, 4 steps: one
    // section per epoch (k = 1), then a 3 + 1 epoch split (k = 3).
    let d = Region3::of_extent(60, 40, 16);
    let pinned = [
        (1, [(1_359_360, 53_760), (1_349_120, 43_520)]),
        (3, [(1_457_280, 151_680), (1_447_040, 141_440)]),
    ];
    for (k, totals) in pinned {
        let exec = IslandsExecutor::new(&pool, TeamSpec::even(2, 2), Axis::I)
            .fuse_steps(k)
            .tile(TileMode::Auto);
        let (_, islands) = traced_kernel_cells(&exec, d, 4);
        assert_eq!(islands, totals, "fuse_steps {k}");
    }
}

#[test]
fn measured_redundant_cells_match_static_overlap_volumes() {
    let (graph, _) = mpdata_graph();
    let d = Region3::of_extent(48, 24, 8);
    let steps = 2;
    // One rank per island, and islands split across two ranks: the
    // rank slices of a block region partition it, so the measured sum
    // must be rank-count independent.
    for (islands, workers) in [(1, 1), (2, 2), (4, 4), (2, 4)] {
        // IslandsExecutor's Axis::I partition is Partition::one_d
        // variant A: both call Region3::split(Axis::I, islands).
        let p = Partition::one_d(d, Variant::A, islands).unwrap();
        let expected: Vec<u64> = per_island_extra(&graph, &p)
            .into_iter()
            .map(|c| c as u64)
            .collect();
        let metrics = traced_metrics(d, islands, workers, steps);
        assert_eq!(metrics.steps.len(), steps);
        for step in &metrics.steps {
            let measured: Vec<u64> = step
                .islands
                .iter()
                .filter(|m| m.island != islands_trace::NO_ISLAND)
                .map(|m| m.redundant_cells)
                .collect();
            assert_eq!(
                measured, expected,
                "P={islands} W={workers} step {}: traced redundant cells \
                 diverge from the analyzer's overlap volumes",
                step.step
            );
        }
    }
}

#[test]
fn measured_totals_match_extra_elements_accounting() {
    let (graph, _) = mpdata_graph();
    let d = Region3::of_extent(60, 24, 8);
    let islands = 3;
    let p = Partition::one_d(d, Variant::A, islands).unwrap();
    let e = extra_elements(&graph, &p);
    let metrics = traced_metrics(d, islands, islands, 1);
    let step = &metrics.steps[0];
    let computed: u64 = step.islands.iter().map(|m| m.computed_cells).sum();
    let redundant: u64 = step.islands.iter().map(|m| m.redundant_cells).sum();
    // Every kernel span tags the cells it swept, so the island sums
    // reproduce the enlarged-schedule totals of the Table-2 analysis.
    assert_eq!(computed, e.total_updates as u64);
    assert_eq!(redundant, e.extra_updates() as u64);
}
