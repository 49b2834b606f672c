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
use mpdata::{gaussian_pulse, mpdata_graph, IslandsExecutor, MpdataProblem};
use stencil_engine::{Axis, Region3};
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
