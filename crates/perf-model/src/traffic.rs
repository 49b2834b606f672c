//! Main-memory traffic accounting (the paper's §3.2 likwid-perfctr
//! measurements, derived analytically here).

use stencil_engine::{
    fused_traffic_bytes, original_traffic_bytes, BlockPlanner, FieldRole, PlanBlocksError, Region3,
    StageGraph, BYTES_PER_CELL,
};

/// Traffic of one strategy over a whole run, bytes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TrafficReport {
    /// Bytes read from and written to main memory per time step.
    pub bytes_per_step: f64,
    /// Bytes over the whole run.
    pub total_bytes: f64,
}

impl TrafficReport {
    fn from_step(bytes_per_step: f64, steps: usize) -> Self {
        TrafficReport {
            bytes_per_step,
            total_bytes: bytes_per_step * steps as f64,
        }
    }

    /// Total traffic in GB (decimal, as likwid reports).
    pub fn total_gb(&self) -> f64 {
        self.total_bytes / 1e9
    }
}

/// Traffic of the original version: every stage streams every input
/// from and every output to DRAM (stores count twice for
/// write-allocate).
pub fn original_traffic(graph: &StageGraph, domain: Region3, steps: usize) -> TrafficReport {
    TrafficReport::from_step(original_traffic_bytes(graph, domain) as f64, steps)
}

/// Idealized (3+1)D traffic: externals in, output out, nothing else.
pub fn fused_traffic_ideal(graph: &StageGraph, domain: Region3, steps: usize) -> TrafficReport {
    TrafficReport::from_step(fused_traffic_bytes(graph, domain) as f64, steps)
}

/// Realistic (3+1)D traffic for a given cache budget: accounts for the
/// halo re-reads of overlapped tiling (each block re-reads the external
/// slabs its enlarged stage regions touch).
///
/// # Errors
///
/// Returns [`PlanBlocksError`] when the domain is empty.
pub fn fused_traffic_blocked(
    graph: &StageGraph,
    domain: Region3,
    steps: usize,
    cache_bytes: usize,
) -> Result<TrafficReport, PlanBlocksError> {
    let blocking = BlockPlanner::new(cache_bytes).plan(graph, domain, domain)?;
    let mut bytes = 0usize;
    for block in &blocking.blocks {
        // Each external field is loaded once per block over the hull of
        // the regions of the stages that read it.
        for (f, _, role) in graph.fields().iter() {
            match role {
                FieldRole::External => {
                    let mut hull = Region3::empty();
                    for st in graph.stages() {
                        if st.reads(f) {
                            hull = hull.hull(block.stage_regions[st.id.index()]);
                        }
                    }
                    bytes += hull.cells() * BYTES_PER_CELL;
                }
                FieldRole::Output => {
                    // Write-allocate: the output slab costs a read and a
                    // write.
                    bytes += 2 * block.output_region.cells() * BYTES_PER_CELL;
                }
                FieldRole::Intermediate => {}
            }
        }
    }
    Ok(TrafficReport::from_step(bytes as f64, steps))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpdata::mpdata_graph;

    #[test]
    fn traffic_ordering_original_blocked_ideal() {
        let (g, _) = mpdata_graph();
        let d = Region3::of_extent(256, 256, 64);
        let orig = original_traffic(&g, d, 50);
        let ideal = fused_traffic_ideal(&g, d, 50);
        let blocked = fused_traffic_blocked(&g, d, 50, 25 << 20).unwrap();
        assert!(ideal.total_bytes <= blocked.total_bytes);
        assert!(blocked.total_bytes < orig.total_bytes);
        // §3.2's measured ratio on this very configuration is
        // 133 GB / 30 GB ≈ 4.4×; our analytic model must show a
        // reduction of at least that order.
        let ratio = orig.total_bytes / blocked.total_bytes;
        assert!(ratio > 4.0, "reduction ratio {ratio}");
    }

    #[test]
    fn paper_order_of_magnitude() {
        let (g, _) = mpdata_graph();
        let d = Region3::of_extent(256, 256, 64);
        let orig = original_traffic(&g, d, 50);
        // Paper: 133 GB; our stage graph counts 94 sweeps/step ⇒ 158 GB.
        assert!(
            (100.0..220.0).contains(&orig.total_gb()),
            "{}",
            orig.total_gb()
        );
        let blocked = fused_traffic_blocked(&g, d, 50, 25 << 20).unwrap();
        // Paper: 30 GB measured; the analytic floor is lower because
        // the real code also spills some intermediates.
        assert!(
            (8.0..40.0).contains(&blocked.total_gb()),
            "{}",
            blocked.total_gb()
        );
    }

    #[test]
    fn smaller_cache_means_more_traffic() {
        let (g, _) = mpdata_graph();
        let d = Region3::of_extent(128, 64, 32);
        let big = fused_traffic_blocked(&g, d, 1, 16 << 20).unwrap();
        let small = fused_traffic_blocked(&g, d, 1, 1 << 20).unwrap();
        assert!(small.total_bytes > big.total_bytes);
    }
}
