//! Trace-driven cache study: checks the (3+1)D premise with a real
//! cache model instead of assuming it.
//!
//! The §3.2 claim — fusing the 17 stages into cache-sized blocks removes
//! the intermediate arrays' main-memory round trips — rests on the
//! intermediates actually *surviving* in cache across stages. Here we
//! generate the exact byte-address stream of a schedule (every read of
//! every stencil offset, every write) and feed it through the
//! set-associative LRU model of `numa-sim`, so the miss traffic is
//! measured, not modelled.

use numa_sim::{CacheConfig, CacheSim, CacheStats};
use stencil_engine::{Blocking, Region3, StageGraph, BYTES_PER_CELL};

/// Byte addresses for the fields of a graph over one domain: fields are
/// laid out back to back, each padded to a line boundary plus a 4 KiB
/// stagger to avoid pathological set aliasing between fields.
///
/// A field stores `planes[f]` i-planes, plane `i` in slot `i mod
/// planes[f]` — every plane of the domain for [`FieldLayout::new`]; for
/// [`FieldLayout::windowed`] the intermediates keep only the sliding
/// windows the executors allocate under a wavefront blocking, so the
/// study replays the addresses the replay touches.
#[derive(Clone, Debug)]
pub struct FieldLayout {
    domain: Region3,
    nj: u64,
    nk: u64,
    planes: Vec<u64>,
    bases: Vec<u64>,
}

impl FieldLayout {
    /// Lays out every field of `graph` over the whole of `domain`.
    pub fn new(graph: &StageGraph, domain: Region3) -> Self {
        Self::with_planes(domain, vec![domain.i.len() as u64; graph.fields().len()])
    }

    /// Lays out externals and outputs over `domain` and each
    /// intermediate in the window [`Blocking::window_depths`] gives it
    /// — the storage rule of `stencil_engine::Array3::windowed`.
    pub fn windowed(graph: &StageGraph, domain: Region3, blocking: &Blocking) -> Self {
        let depth = domain.i.len();
        let planes = blocking
            .window_depths(graph, domain)
            .into_iter()
            .map(|w| if w == 0 { depth } else { w.min(depth) } as u64)
            .collect();
        Self::with_planes(domain, planes)
    }

    fn with_planes(domain: Region3, planes: Vec<u64>) -> Self {
        let (nj, nk) = (domain.j.len() as u64, domain.k.len() as u64);
        let mut next = 0;
        let bases = planes
            .iter()
            .map(|p| {
                let base = next;
                next += (p * nj * nk * BYTES_PER_CELL as u64).div_ceil(4096) * 4096 + 4096;
                base
            })
            .collect();
        FieldLayout {
            domain,
            nj,
            nk,
            planes,
            bases,
        }
    }

    /// Address of cell `(i, j, k)` of `field` (domain-clamped like the
    /// kernels' open-boundary reads).
    #[inline]
    fn addr(&self, field: usize, i: i64, j: i64, k: i64) -> u64 {
        let d = self.domain;
        let i = (i.clamp(d.i.lo, d.i.hi - 1) - d.i.lo) as u64 % self.planes[field];
        let j = (j.clamp(d.j.lo, d.j.hi - 1) - d.j.lo) as u64;
        let k = (k.clamp(d.k.lo, d.k.hi - 1) - d.k.lo) as u64;
        self.bases[field] + ((i * self.nj + j) * self.nk + k) * BYTES_PER_CELL as u64
    }

    /// Compulsory (cold) miss floor: every distinct line of every
    /// field's storage touched at least once.
    pub fn compulsory_miss_bytes(&self, line_bytes: usize) -> f64 {
        let plane_bytes = (self.nj * self.nk) as usize * BYTES_PER_CELL;
        let lines = |p: &u64| (*p as usize * plane_bytes).div_ceil(line_bytes);
        (self.planes.iter().map(lines).sum::<usize>() * line_bytes) as f64
    }
}

/// Runs the address stream of one stage applied to `region` through the
/// cache.
fn sweep_stage(
    cache: &mut CacheSim,
    layout: &FieldLayout,
    graph: &StageGraph,
    stage: usize,
    region: Region3,
) {
    let st = &graph.stages()[stage];
    for i in region.i.lo..region.i.hi {
        for j in region.j.lo..region.j.hi {
            for k in region.k.lo..region.k.hi {
                for (f, pattern) in &st.inputs {
                    for o in pattern.offsets() {
                        cache.access(layout.addr(f.index(), i + o.di, j + o.dj, k + o.dk));
                    }
                }
                for f in &st.outputs {
                    cache.access(layout.addr(f.index(), i, j, k));
                }
            }
        }
    }
}

/// Cache statistics of the **per-stage schedule** (original version):
/// every stage sweeps the whole domain before the next starts.
pub fn per_stage_schedule_stats(
    graph: &StageGraph,
    domain: Region3,
    cache_cfg: CacheConfig,
) -> CacheStats {
    let layout = FieldLayout::new(graph, domain);
    let mut cache = CacheSim::new(cache_cfg);
    for s in 0..graph.stage_count() {
        sweep_stage(&mut cache, &layout, graph, s, domain);
    }
    cache.stats()
}

/// Cache statistics of a **blocked schedule** (the (3+1)D wavefront):
/// blocks in order, all stages per block, intermediates in their
/// sliding windows ([`FieldLayout::windowed`]).
pub fn blocked_schedule_stats(
    graph: &StageGraph,
    domain: Region3,
    blocking: &Blocking,
    cache_cfg: CacheConfig,
) -> CacheStats {
    let layout = FieldLayout::windowed(graph, domain, blocking);
    let mut cache = CacheSim::new(cache_cfg);
    for block in &blocking.blocks {
        for s in 0..graph.stage_count() {
            let r = block.stage_regions[s];
            if !r.is_empty() {
                sweep_stage(&mut cache, &layout, graph, s, r);
            }
        }
    }
    cache.stats()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpdata::mpdata_graph;
    use stencil_engine::BlockPlanner;

    fn cfg(kb: usize) -> CacheConfig {
        CacheConfig {
            capacity_bytes: kb * 1024,
            ways: 16,
            line_bytes: 64,
        }
    }

    #[test]
    fn blocked_schedule_slashes_misses() {
        // Scaled-down domain and cache preserving the ratio
        // working-set : cache of the paper setup.
        let (g, _) = mpdata_graph();
        let domain = Region3::of_extent(48, 32, 8);
        let cache = cfg(256);
        let per_stage = per_stage_schedule_stats(&g, domain, cache);
        // Size blocks to half the cache — the usual safety margin, and
        // what keeps the block working set clear of conflict evictions.
        let blocking = BlockPlanner::new(cache.capacity_bytes / 2)
            .min_depth(2)
            .plan_wavefront(&g, domain, domain)
            .unwrap();
        assert!(blocking.len() > 2, "need several blocks for a fair test");
        let blocked = blocked_schedule_stats(&g, domain, &blocking, cache);
        let ratio = per_stage.miss_bytes(64) / blocked.miss_bytes(64);
        assert!(
            ratio > 2.5,
            "blocked schedule must cut miss traffic sharply (got {ratio:.2}: {} vs {} lines);\n             at paper scale (94 array sweeps vs ~7 compulsory) the ratio exceeds 10x",
            per_stage.misses,
            blocked.misses
        );
    }

    #[test]
    fn blocked_misses_approach_compulsory_floor() {
        let (g, _) = mpdata_graph();
        let domain = Region3::of_extent(48, 32, 8);
        let cache = cfg(512);
        let blocking = BlockPlanner::new(cache.capacity_bytes / 2)
            .min_depth(2)
            .plan_wavefront(&g, domain, domain)
            .unwrap();
        let blocked = blocked_schedule_stats(&g, domain, &blocking, cache);
        // Externals + output + windows: far below the 23 whole arrays
        // a full-hull layout would have to touch once.
        let floor = FieldLayout::windowed(&g, domain, &blocking).compulsory_miss_bytes(64);
        let whole = FieldLayout::new(&g, domain).compulsory_miss_bytes(64);
        assert!(
            floor < 0.6 * whole,
            "windows {floor} vs whole arrays {whole}"
        );
        let excess = blocked.miss_bytes(64) / floor;
        assert!(
            excess < 2.0,
            "blocked miss bytes must be within 2× of the compulsory floor (got {excess:.2})"
        );
    }

    #[test]
    fn tiny_cache_defeats_blocking() {
        // With a cache far below one block's working set, even the
        // blocked schedule thrashes — blocking is not magic.
        let (g, _) = mpdata_graph();
        let domain = Region3::of_extent(32, 32, 8);
        let big = cfg(512);
        let tiny = cfg(8);
        let blocking = BlockPlanner::new(big.capacity_bytes)
            .min_depth(2)
            .plan_wavefront(&g, domain, domain)
            .unwrap();
        let with_big = blocked_schedule_stats(&g, domain, &blocking, big);
        let with_tiny = blocked_schedule_stats(&g, domain, &blocking, tiny);
        assert!(
            with_tiny.misses > 2 * with_big.misses,
            "tiny {} vs big {}",
            with_tiny.misses,
            with_big.misses
        );
    }

    #[test]
    fn layout_staggers_fields() {
        let (g, _) = mpdata_graph();
        let domain = Region3::of_extent(8, 8, 8);
        let l = FieldLayout::new(&g, domain);
        let a0 = l.addr(0, 0, 0, 0);
        let a1 = l.addr(1, 0, 0, 0);
        assert!(a1 - a0 >= (domain.cells() * 8) as u64);
        // Clamping mirrors the kernels.
        assert_eq!(l.addr(0, -3, 0, 0), l.addr(0, 0, 0, 0));
        assert_eq!(l.addr(0, 9, 7, 7), l.addr(0, 7, 7, 7));
    }

    #[test]
    fn windowed_layout_wraps_intermediates_only() {
        let (g, _) = mpdata_graph();
        let domain = Region3::of_extent(32, 8, 8);
        let blocking = BlockPlanner::new(64 * 1024)
            .plan_wavefront(&g, domain, domain)
            .unwrap();
        let depths = blocking.window_depths(&g, domain);
        let l = FieldLayout::windowed(&g, domain, &blocking);
        for (f, _, role) in g.fields().iter() {
            let w = depths[f.index()] as i64;
            if role == stencil_engine::FieldRole::Intermediate {
                assert!(0 < w && w < 32, "field {f:?} window {w}");
                // The slot rule of `Array3::windowed`.
                assert_eq!(l.addr(f.index(), 3, 1, 2), l.addr(f.index(), 3 + w, 1, 2));
                assert_ne!(l.addr(f.index(), 3, 1, 2), l.addr(f.index(), 2 + w, 1, 2));
            } else {
                let all: std::collections::HashSet<u64> =
                    (0..32).map(|i| l.addr(f.index(), i, 0, 0)).collect();
                assert_eq!(all.len(), 32);
            }
        }
        // Storage never overlaps between fields.
        for f in 1..g.fields().len() {
            assert!(l.addr(f, 0, 0, 0) > l.addr(f - 1, 31, 7, 7));
        }
    }
}
