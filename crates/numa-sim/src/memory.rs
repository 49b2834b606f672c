//! NUMA memory placement: which node's DRAM holds which part of an array.
//!
//! The UV 2000 (like every ccNUMA Linux box) places a page on the node of
//! the core that *first touches* it. The paper's Table 1 shows the
//! consequences: with serial initialization every page of every array
//! lands on node 0 and all remote sockets hammer one controller; with
//! *parallel initialization* each thread first-touches the part it will
//! later compute on, so streaming is node-local.
//!
//! [`Placement`] captures the outcome of a first-touch policy at slab
//! granularity: a disjoint cover of an array's region by `(region, node)`
//! pairs. Trace generators query it to decide which controller a read
//! targets.

use crate::topology::NodeId;
use stencil_engine::{Axis, Region3, BYTES_PER_CELL};

/// Placement of one array's backing pages across NUMA nodes.
#[derive(Clone, Debug, PartialEq)]
pub struct Placement {
    region: Region3,
    slabs: Vec<(Region3, NodeId)>,
}

impl Placement {
    /// Serial first touch: the whole array lives on `node` (the paper's
    /// "Original" row of Table 1, initialized by the master thread).
    pub fn serial(region: Region3, node: NodeId) -> Self {
        Placement {
            region,
            slabs: vec![(region, node)],
        }
    }

    /// Parallel first touch: the array is split along `axis` into one
    /// near-equal slab per entry of `nodes`, in order — each worker
    /// initializes (and therefore homes) the part it will compute on.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is empty.
    pub fn first_touch_split(region: Region3, axis: Axis, nodes: &[NodeId]) -> Self {
        assert!(!nodes.is_empty(), "need at least one node");
        let slabs = region
            .split(axis, nodes.len())
            .into_iter()
            .zip(nodes.iter().copied())
            .filter(|(r, _)| !r.is_empty())
            .collect();
        Placement { region, slabs }
    }

    /// Interleaved placement (the `numactl --interleave` baseline):
    /// slabs of `chunk` indices along `axis` are dealt round-robin to
    /// `nodes`. Spreads bandwidth across all controllers at the cost of
    /// making ~`(n-1)/n` of every thread's accesses remote.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is empty or `chunk == 0`.
    pub fn interleaved(region: Region3, axis: Axis, nodes: &[NodeId], chunk: usize) -> Self {
        assert!(!nodes.is_empty(), "need at least one node");
        assert!(chunk > 0, "chunk must be positive");
        let slabs = region
            .chunks(axis, chunk)
            .into_iter()
            .enumerate()
            .map(|(n, r)| (r, nodes[n % nodes.len()]))
            .collect();
        Placement { region, slabs }
    }

    /// Explicit placement from a disjoint slab cover.
    ///
    /// # Panics
    ///
    /// Panics if the slabs overlap or do not exactly cover `region`
    /// (checked by cell counting).
    pub fn explicit(region: Region3, slabs: Vec<(Region3, NodeId)>) -> Self {
        let mut covered = 0usize;
        for (n, (a, _)) in slabs.iter().enumerate() {
            assert!(region.contains_region(*a), "slab outside region");
            covered += a.cells();
            for (b, _) in &slabs[n + 1..] {
                assert!(!a.overlaps(*b), "overlapping slabs");
            }
        }
        assert_eq!(covered, region.cells(), "slabs must cover the region");
        Placement { region, slabs }
    }

    /// The region this placement covers.
    pub fn region(&self) -> Region3 {
        self.region
    }

    /// The slab cover.
    pub fn slabs(&self) -> &[(Region3, NodeId)] {
        &self.slabs
    }

    /// The home node of the cell `(i, j, k)`, or `None` outside the
    /// region.
    pub fn node_of(&self, i: i64, j: i64, k: i64) -> Option<NodeId> {
        self.slabs
            .iter()
            .find(|(r, _)| r.contains(i, j, k))
            .map(|&(_, n)| n)
    }

    /// Visits the part of `sub` that lives in each slab, as
    /// `(slab ∩ sub, node)` in slab order, skipping slabs `sub` misses.
    /// Allocation-free: planners that ask once per (block, rank) clip a
    /// rank-invariant region through this and re-clip the few survivors.
    pub fn for_each_in(&self, sub: Region3, mut visit: impl FnMut(Region3, NodeId)) {
        for &(slab, node) in &self.slabs {
            let part = slab.intersect(sub);
            if !part.is_empty() {
                visit(part, node);
            }
        }
    }

    /// How many bytes of `sub` live on each node, as `(node, bytes)`
    /// pairs in slab order (nodes may repeat if they own several slabs).
    pub fn bytes_on(&self, sub: Region3) -> Vec<(NodeId, f64)> {
        let mut on = Vec::new();
        self.for_each_in(sub, |part, node| {
            on.push((node, (part.cells() * BYTES_PER_CELL) as f64));
        });
        on
    }

    /// Total bytes of the placed array.
    pub fn total_bytes(&self) -> f64 {
        (self.region.cells() * BYTES_PER_CELL) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stencil_engine::Range1;

    #[test]
    fn serial_places_everything_on_one_node() {
        let r = Region3::of_extent(8, 4, 4);
        let p = Placement::serial(r, NodeId(3));
        assert_eq!(p.node_of(0, 0, 0), Some(NodeId(3)));
        assert_eq!(p.node_of(7, 3, 3), Some(NodeId(3)));
        assert_eq!(p.node_of(8, 0, 0), None);
        assert_eq!(p.bytes_on(r), vec![(NodeId(3), (8 * 4 * 4 * 8) as f64)]);
    }

    #[test]
    fn first_touch_split_is_balanced() {
        let r = Region3::of_extent(10, 4, 4);
        let p = Placement::first_touch_split(r, Axis::I, &[NodeId(0), NodeId(1)]);
        assert_eq!(p.node_of(0, 0, 0), Some(NodeId(0)));
        assert_eq!(p.node_of(5, 0, 0), Some(NodeId(1)));
        let total: f64 = p.bytes_on(r).iter().map(|(_, b)| b).sum();
        assert_eq!(total, p.total_bytes());
    }

    #[test]
    fn bytes_on_subregion_splits_at_boundary() {
        let r = Region3::of_extent(10, 1, 1);
        let p = Placement::first_touch_split(r, Axis::I, &[NodeId(0), NodeId(1)]);
        // Read cells 3..8: 2 on node 0, 3 on node 1.
        let sub = Region3::new(Range1::new(3, 8), r.j, r.k);
        let b = p.bytes_on(sub);
        assert_eq!(b, vec![(NodeId(0), 16.0), (NodeId(1), 24.0)]);
    }

    #[test]
    fn visitor_clips_slabs_in_order_and_skips_misses() {
        let r = Region3::of_extent(12, 2, 1);
        let p = Placement::interleaved(r, Axis::I, &[NodeId(0), NodeId(1)], 4);
        // Cells 2..9 of slabs [0,4) [4,8) [8,12); the j = 1 row only.
        let sub = Region3::new(Range1::new(2, 9), Range1::new(1, 2), r.k);
        let mut seen = Vec::new();
        p.for_each_in(sub, |part, node| seen.push((part.i, part.cells(), node)));
        assert_eq!(
            seen,
            vec![
                (Range1::new(2, 4), 2, NodeId(0)),
                (Range1::new(4, 8), 4, NodeId(1)),
                (Range1::new(8, 9), 1, NodeId(0)),
            ]
        );
        let far = Region3::new(Range1::new(20, 30), r.j, r.k);
        p.for_each_in(far, |_, _| panic!("nothing of {far:?} is placed"));
        assert!(p.bytes_on(far).is_empty());
    }

    #[test]
    fn explicit_validates_cover() {
        let r = Region3::of_extent(4, 1, 1);
        let a = Region3::new(Range1::new(0, 2), r.j, r.k);
        let b = Region3::new(Range1::new(2, 4), r.j, r.k);
        let p = Placement::explicit(r, vec![(a, NodeId(0)), (b, NodeId(1))]);
        assert_eq!(p.slabs().len(), 2);
    }

    #[test]
    #[should_panic]
    fn explicit_rejects_gaps() {
        let r = Region3::of_extent(4, 1, 1);
        let a = Region3::new(Range1::new(0, 2), r.j, r.k);
        let _ = Placement::explicit(r, vec![(a, NodeId(0))]);
    }

    #[test]
    #[should_panic]
    fn explicit_rejects_overlap() {
        let r = Region3::of_extent(4, 1, 1);
        let a = Region3::new(Range1::new(0, 3), r.j, r.k);
        let b = Region3::new(Range1::new(2, 4), r.j, r.k);
        let _ = Placement::explicit(r, vec![(a, NodeId(0)), (b, NodeId(1))]);
    }

    #[test]
    fn interleaved_round_robins() {
        let r = Region3::of_extent(8, 2, 2);
        let p = Placement::interleaved(r, Axis::I, &[NodeId(0), NodeId(1)], 2);
        assert_eq!(p.node_of(0, 0, 0), Some(NodeId(0)));
        assert_eq!(p.node_of(2, 0, 0), Some(NodeId(1)));
        assert_eq!(p.node_of(4, 0, 0), Some(NodeId(0)));
        assert_eq!(p.node_of(6, 0, 0), Some(NodeId(1)));
        let total: f64 = p.bytes_on(r).iter().map(|(_, b)| b).sum();
        assert_eq!(total, p.total_bytes());
    }

    #[test]
    fn more_nodes_than_cells_leaves_empty_slabs_out() {
        let r = Region3::of_extent(2, 1, 1);
        let p = Placement::first_touch_split(r, Axis::I, &[NodeId(0), NodeId(1), NodeId(2)]);
        assert_eq!(p.slabs().len(), 2);
        let total: f64 = p.bytes_on(r).iter().map(|(_, b)| b).sum();
        assert_eq!(total, 16.0);
    }
}
