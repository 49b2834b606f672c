//! Closed-form performance model of the three MPDATA strategies.
//!
//! The paper's §6 names "performance models ... for modeling and
//! management of the correlation between computation and communication
//! costs" as the path to the planned MPI extension. This module provides
//! the first-order such model: a handful of algebraic expressions over
//! the machine parameters that predict per-step times without running
//! the discrete-event engine — and a test battery (below and in
//! `tests/`) that validates them against the engine across machine
//! sizes.
//!
//! The model deliberately ignores second-order effects the engine
//! captures (queueing order, latency accumulation, load imbalance), so
//! agreement within a few tens of percent is the design goal, not
//! equality.

use islands_core::{extra_elements, Partition, Variant, Workload};
use mpdata::mpdata_graph;
use numa_sim::{Machine, SimConfig};
use stencil_engine::{original_traffic_bytes, BlockPlanner, BYTES_PER_CELL};

/// Closed-form per-step time predictions, seconds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ModelPrediction {
    /// Original version, parallel first touch.
    pub original: f64,
    /// Original version, serial first touch (everything on socket 0).
    pub original_serial: f64,
    /// Pure (3+1)D decomposition.
    pub fused: f64,
    /// Islands-of-cores, variant A.
    pub islands: f64,
}

/// Evaluates the closed-form model for `machine` and `w`.
///
/// # Panics
///
/// Panics when the machine has no compute node or the domain is empty
/// (the same conditions under which the simulator planners panic for
/// this workload).
pub fn predict(machine: &Machine, w: &Workload, cfg: &SimConfig) -> ModelPrediction {
    let (graph, _) = mpdata_graph();
    let nodes = machine.compute_nodes();
    let p = nodes.len() as f64;
    let cores = machine.core_count() as f64;
    let node0 = machine.nodes()[nodes[0].index()].clone();
    let rate = node0.core.sustained_flops();
    let cells = w.domain.cells() as f64;
    let flops_step = mpdata::flops_per_cell() * cells;
    let t_compute = flops_step / (cores * rate);

    // --- Original: max(compute, memory) per step. -----------------------
    let traffic = original_traffic_bytes(&graph, w.domain) as f64;
    let t_mem_parallel = traffic / (p * node0.dram_bandwidth);
    let barrier = |span_hops: usize| cfg.barrier_base + cfg.barrier_per_hop * span_hops as f64;
    let max_hops = {
        let mut h = 0;
        for &a in &nodes {
            h = h.max(machine.hops(nodes[0], a));
        }
        h
    };
    let stages = graph.stage_count() as f64;
    let original = t_compute.max(t_mem_parallel) + stages * barrier(max_hops);

    // Serial first touch: everything streams from socket 0, bounded by
    // its DRAM for the local share and its uplink for the remote share.
    let remote_share = (cores - node0.cores as f64) / cores;
    let uplink = if nodes.len() > 1 {
        machine
            .route_bandwidth(nodes[1], nodes[0])
            .min(machine.route_bandwidth(*nodes.last().unwrap(), nodes[0]))
    } else {
        f64::INFINITY
    };
    let t_mem_serial = traffic * (1.0 - remote_share) / node0.dram_bandwidth
        + traffic * remote_share / uplink.min(node0.dram_bandwidth);
    let original_serial = t_compute.max(t_mem_serial) + stages * barrier(max_hops);

    // --- (3+1)D: compute + per-block remote input pulls + barriers. -----
    let blocking = BlockPlanner::new(w.cache_bytes)
        .plan_wavefront(&graph, w.domain, w.domain)
        .expect("paper workload plans");
    let n_blocks = blocking.len() as f64;
    // Each block's external slabs live on one home socket, and the
    // output slab is written back there too (2× for write-allocate);
    // the remote share of all of it crosses that socket's uplink.
    let cross_bytes = (graph.external_fields().len() as f64
        + 2.0 * graph.output_fields().len() as f64)
        * cells
        * BYTES_PER_CELL as f64;
    let t_cross = if nodes.len() > 1 {
        cross_bytes * remote_share / uplink
    } else {
        0.0
    };
    let fused = t_compute + t_cross + n_blocks * stages * barrier(max_hops);

    // --- Islands: compute × (1 + extra) + team barriers + step sync. ----
    let extra = extra_elements(
        &graph,
        &Partition::one_d(w.domain, Variant::A, nodes.len()).expect("nonzero islands"),
    )
    .percent()
        / 100.0;
    let island_blocks = (n_blocks / p).ceil();
    let islands =
        t_compute * (1.0 + extra) + island_blocks * stages * barrier(0) + barrier(max_hops);

    ModelPrediction {
        original,
        original_serial,
        fused,
        islands,
    }
}

/// Relative error of a prediction against a measurement.
pub fn relative_error(predicted: f64, measured: f64) -> f64 {
    (predicted - measured).abs() / measured
}

#[cfg(test)]
mod tests {
    use super::*;
    use islands_core::{estimate, plan_fused, plan_islands, plan_original, InitPolicy};
    use numa_sim::UvParams;

    /// The model must reproduce the *orderings* the paper reports, and
    /// track the engine within 40 % for each strategy.
    #[test]
    fn model_tracks_engine() {
        let w = Workload::paper();
        let cfg = SimConfig::default();
        for sockets in [1usize, 2, 4, 8, 14] {
            let machine = UvParams::uv2000(sockets).build();
            let m = predict(&machine, &w, &cfg);
            let steps = w.steps as f64;

            let sim_orig = estimate(
                &machine,
                &plan_original(&machine, &w, InitPolicy::ParallelFirstTouch),
                &w,
                &cfg,
            )
            .unwrap()
            .total_seconds
                / steps;
            let sim_fused = estimate(
                &machine,
                &plan_fused(&machine, &w, InitPolicy::ParallelFirstTouch).unwrap(),
                &w,
                &cfg,
            )
            .unwrap()
            .total_seconds
                / steps;
            let sim_isl = estimate(
                &machine,
                &plan_islands(&machine, &w, Variant::A).unwrap(),
                &w,
                &cfg,
            )
            .unwrap()
            .total_seconds
                / steps;

            assert!(
                relative_error(m.original, sim_orig) < 0.4,
                "P={sockets} original: model {} vs engine {sim_orig}",
                m.original
            );
            assert!(
                relative_error(m.fused, sim_fused) < 0.4,
                "P={sockets} fused: model {} vs engine {sim_fused}",
                m.fused
            );
            assert!(
                relative_error(m.islands, sim_isl) < 0.4,
                "P={sockets} islands: model {} vs engine {sim_isl}",
                m.islands
            );
            // Orderings: islands wins from 2 sockets on; the
            // original-vs-fused crossover needs contention terms the
            // first-order model omits, so only require it where the gap
            // is decisive (P ≥ 8).
            if sockets >= 2 {
                assert!(m.islands < m.fused, "P={sockets}: islands vs fused");
                assert!(m.islands < m.original, "P={sockets}: islands vs original");
            }
            if sockets >= 8 {
                assert!(m.original < m.fused, "P={sockets}: original vs fused");
                assert!(
                    m.fused < m.original_serial,
                    "P={sockets}: fused vs serial-init"
                );
            }
        }
    }

    #[test]
    fn relative_error_basics() {
        assert_eq!(relative_error(1.0, 1.0), 0.0);
        assert!((relative_error(1.2, 1.0) - 0.2).abs() < 1e-12);
    }
}
