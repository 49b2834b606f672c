//! Tile extents for cache-resident chain execution: [`choose_tile`]
//! picks an `(i, j)` tile whose working set fits a cache budget,
//! [`tile_grid`] cuts a part into the near-equal tiles every consumer
//! (plan builder, disjointness model, traffic model) must agree on.

use crate::graph::StageGraph;
use crate::region::{Axis, Region3};

/// Picks an `(i, j)` tile extent for cache-resident chain execution.
///
/// A tile-fused replay runs the whole stage chain of one `(i, j)` tile
/// back-to-back on tile-local scratch, so the working set per tile is
/// `max_live_buffers × (ti + halo_i) × (tj + halo_j) × nk` cells (the
/// `k` axis is kept whole: it is the contiguous storage axis, and
/// splitting it would break unit-stride kernel rows). The choice trades
/// two costs the budget couples:
///
/// * *redundant halo recompute* — every stage of a tile is computed on
///   the enlarged region of the backward requirement analysis, so each
///   tile face pays a halo band of recomputed cells; smaller tiles mean
///   proportionally more faces;
/// * *traffic saved* — any tile whose working set fits `cache_bytes`
///   keeps all intermediates cache-resident, so among fitting tiles the
///   one with the lowest recompute overhead moves the least memory.
///
/// The search therefore scans admissible `ti`, derives the largest
/// `tj` whose footprint fits, and keeps the pair minimizing the
/// enlarged-to-owned cell ratio `((ti+hi)·(tj+hj)) / (ti·tj)` (ties go
/// to the larger tile — fewer tiles, less scheduling overhead). When
/// even a 1×1 tile exceeds the budget the best-effort `(1, 1)` is
/// returned: an oversized tile only spills, it never computes wrong
/// values.
pub fn choose_tile(graph: &StageGraph, domain: Region3, cache_bytes: usize) -> (usize, usize) {
    let halos = graph.cumulative_halos();
    let fold_axis = |axis: Axis| -> usize {
        let (n, p) = halos.iter().fold((0_i64, 0_i64), |(n, p), h| {
            let (a, b) = h.along(axis);
            (n.max(a), p.max(b))
        });
        (n + p) as usize
    };
    let (hi, hj) = (fold_axis(Axis::I), fold_axis(Axis::J));
    let nk = domain.k.len().max(1);
    let buffers = graph.max_live_buffers();
    let per_cell = buffers * nk * crate::block::BYTES_PER_CELL;
    let (max_ti, max_tj) = (domain.i.len().max(1), domain.j.len().max(1));
    let footprint = |ti: usize, tj: usize| (ti + hi) * (tj + hj) * per_cell;
    let mut best = (1usize, 1usize);
    let mut best_ratio = f64::INFINITY;
    for ti in 1..=max_ti {
        // Largest j extent whose footprint fits the budget at this ti.
        let budget_j = cache_bytes / ((ti + hi) * per_cell);
        let tj = budget_j.saturating_sub(hj).min(max_tj);
        if tj == 0 || footprint(ti, tj) > cache_bytes {
            continue;
        }
        let ratio = (footprint(ti, tj) as f64 / per_cell as f64) / (ti * tj) as f64;
        let better =
            ratio < best_ratio - 1e-12 || (ratio < best_ratio + 1e-12 && ti * tj > best.0 * best.1);
        if better {
            best = (ti, tj);
            best_ratio = ratio;
        }
    }
    best
}

/// Cuts `part` into an `(i, j)` grid of near-equal tiles whose extents
/// never exceed the `(ti, tj)` targets, row-major (I-bands outer,
/// J-columns inner).
///
/// The targets are treated as *capacities*, not literal chunk sizes:
/// each axis is split into `ceil(len / target)` pieces whose lengths
/// differ by at most one. Fixed-size chunking would leave a remainder
/// sliver (a 60-cell axis at target 19 cuts 19+19+19+3), and a 3-wide
/// tile pays the same halo bands as a 19-wide one for a sixth of the
/// owned cells — the per-cell recompute overhead of slivers dominates
/// measured tile-fused step time. Balanced splitting keeps every tile
/// at `floor(len / n)` or above, so the worst tile's overhead stays
/// within one cell of the best's. The `k` axis is never cut (it is the
/// unit-stride storage axis). Empty tiles are dropped; an empty `part`
/// yields no tiles.
///
/// Every consumer of a tile decomposition — the plan builder, the
/// disjointness model, and the traffic model — must cut through this
/// one function, or the proof and the bytes would describe a different
/// grid than the one executed.
///
/// # Panics
///
/// Panics if either target extent is zero.
pub fn tile_grid(part: Region3, (ti, tj): (usize, usize)) -> Vec<Region3> {
    assert!(ti > 0 && tj > 0, "tile target extents must be positive");
    let mut tiles = Vec::new();
    if part.is_empty() {
        return tiles;
    }
    let n_i = part.i.len().div_ceil(ti).max(1);
    for band in part.split(Axis::I, n_i) {
        if band.is_empty() {
            continue;
        }
        let n_j = band.j.len().div_ceil(tj).max(1);
        for tile in band.split(Axis::J, n_j) {
            if !tile.is_empty() {
                tiles.push(tile);
            }
        }
    }
    tiles
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::{FieldRole, FieldTable};
    use crate::pattern::StencilPattern;
    use crate::stage::{StageDef, StageId};

    /// A two-stage chain with an i-halo: mid = f(x±1), out = f(mid±1).
    fn chain_graph() -> StageGraph {
        let mut fields = FieldTable::new();
        let x = fields.add("x", FieldRole::External);
        let mid = fields.add("mid", FieldRole::Intermediate);
        let out = fields.add("out", FieldRole::Output);
        let stages = vec![
            StageDef {
                id: StageId(0),
                name: "mid".into(),
                outputs: vec![mid],
                inputs: vec![(x, StencilPattern::from_offsets([(-1, 0, 0), (1, 0, 0)]))],
                flops_per_cell: 2.0,
            },
            StageDef {
                id: StageId(1),
                name: "out".into(),
                outputs: vec![out],
                inputs: vec![(mid, StencilPattern::from_offsets([(-1, 0, 0), (1, 0, 0)]))],
                flops_per_cell: 6.0,
            },
        ];
        StageGraph::build(fields, stages).unwrap()
    }

    #[test]
    fn choose_tile_huge_cache_takes_whole_domain() {
        let g = chain_graph();
        let d = Region3::of_extent(24, 16, 4);
        let (ti, tj) = choose_tile(&g, d, usize::MAX / 4);
        assert_eq!((ti, tj), (24, 16));
    }

    #[test]
    fn choose_tile_respects_budget_and_floors_at_unit() {
        let g = chain_graph();
        let d = Region3::of_extent(24, 16, 4);
        // chain_graph: 2 live buffers, cumulative i-halo span 2, no j halo.
        let buffers = g.max_live_buffers();
        let per_cell = buffers * d.k.len() * crate::block::BYTES_PER_CELL;
        let budget = 40 * per_cell; // a handful of columns
        let (ti, tj) = choose_tile(&g, d, budget);
        assert!(
            (ti + 2) * tj * per_cell <= budget,
            "tile ({ti},{tj}) overflows"
        );
        assert!(ti >= 1 && tj >= 1);
        // Absurdly small budget: best-effort 1×1, never zero.
        assert_eq!(choose_tile(&g, d, 1), (1, 1));
    }

    #[test]
    fn choose_tile_stretches_the_halo_axis() {
        let g = chain_graph();
        let d = Region3::of_extent(64, 64, 2);
        let buffers = g.max_live_buffers();
        let per_cell = buffers * d.k.len() * crate::block::BYTES_PER_CELL;
        // chain_graph's halo lies along i only, so the halo-waste share
        // of a tile's footprint is hi/ti — minimized by stretching the
        // *halo* axis (exactly the block planner's depth-maximization
        // logic), not the halo-free one.
        let (ti, tj) = choose_tile(&g, d, 96 * per_cell);
        assert!(
            ti > tj,
            "halo axis should get the longer extent: got ({ti},{tj})"
        );
        assert!((ti + 2) * tj * per_cell <= 96 * per_cell);
    }
}
