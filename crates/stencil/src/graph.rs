//! Stage dependency graphs and backward requirement analysis.
//!
//! A [`StageGraph`] is an ordered list of [`StageDef`]s forming one time
//! step of a heterogeneous stencil computation (17 stages for MPDATA).
//! Its central operation is [`StageGraph::required_regions`]: given the
//! region of the *final outputs* a worker is responsible for, walk the
//! stages backwards, expanding by each input's halo, to obtain the exact
//! region every stage must be computed on so that the worker never reads
//! an intermediate value produced by another worker.
//!
//! This single analysis drives:
//! * the islands-of-cores redundant ("extra") element counts (Table 2 of
//!   the paper),
//! * the enlarged per-stage loop bounds of the islands executor,
//! * the overlapped tiling of the (3+1)D block decomposition along the
//!   sequential block axis.

use crate::field::{FieldId, FieldRole, FieldTable};
use crate::region::{Halo3, Region3};
use crate::stage::{StageDef, StageId};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// Error produced when assembling an ill-formed [`StageGraph`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BuildGraphError {
    /// A stage reads a field that is neither external nor produced by an
    /// earlier stage.
    ReadBeforeWrite {
        /// Offending stage.
        stage: StageId,
        /// Field read too early.
        field: FieldId,
    },
    /// A stage writes a field marked [`FieldRole::External`].
    WriteToExternal {
        /// Offending stage.
        stage: StageId,
        /// External field written.
        field: FieldId,
    },
    /// Two stages write the same field.
    DuplicateWrite {
        /// Second writer.
        stage: StageId,
        /// Field written twice.
        field: FieldId,
    },
    /// A field marked [`FieldRole::Output`] is never written.
    UnwrittenOutput {
        /// The output field no stage writes.
        field: FieldId,
    },
    /// The graph has no stages.
    Empty,
}

impl fmt::Display for BuildGraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildGraphError::ReadBeforeWrite { stage, field } => {
                write!(f, "{stage} reads {field} before any stage writes it")
            }
            BuildGraphError::WriteToExternal { stage, field } => {
                write!(f, "{stage} writes external {field}")
            }
            BuildGraphError::DuplicateWrite { stage, field } => {
                write!(
                    f,
                    "{stage} writes {field}, which an earlier stage already wrote"
                )
            }
            BuildGraphError::UnwrittenOutput { field } => {
                write!(f, "output {field} is never written")
            }
            BuildGraphError::Empty => write!(f, "stage graph has no stages"),
        }
    }
}

impl Error for BuildGraphError {}

/// An immutable, validated stage dependency graph for one time step.
#[derive(Clone, Debug)]
pub struct StageGraph {
    fields: FieldTable,
    stages: Vec<StageDef>,
    /// `producer[f] = Some(s)` iff stage `s` writes field `f`.
    producer: Vec<Option<StageId>>,
}

impl StageGraph {
    /// Validates and builds a graph from a field table and stages in
    /// execution order.
    ///
    /// Rules enforced:
    /// * every read is of an external field or of a field written by a
    ///   strictly earlier stage (stages are straight-line SSA);
    /// * no stage writes an external field;
    /// * each field is written by at most one stage;
    /// * every declared output field is written.
    ///
    /// # Errors
    ///
    /// Returns a [`BuildGraphError`] describing the first violation.
    pub fn build(fields: FieldTable, stages: Vec<StageDef>) -> Result<Self, BuildGraphError> {
        if stages.is_empty() {
            return Err(BuildGraphError::Empty);
        }
        let mut producer: Vec<Option<StageId>> = vec![None; fields.len()];
        for (n, st) in stages.iter().enumerate() {
            debug_assert_eq!(st.id.index(), n, "stage ids must be dense and ordered");
            for (f, _) in &st.inputs {
                let ok = fields.role(*f) == FieldRole::External || producer[f.index()].is_some();
                if !ok {
                    return Err(BuildGraphError::ReadBeforeWrite {
                        stage: st.id,
                        field: *f,
                    });
                }
            }
            for f in &st.outputs {
                if fields.role(*f) == FieldRole::External {
                    return Err(BuildGraphError::WriteToExternal {
                        stage: st.id,
                        field: *f,
                    });
                }
                if producer[f.index()].is_some() {
                    return Err(BuildGraphError::DuplicateWrite {
                        stage: st.id,
                        field: *f,
                    });
                }
                producer[f.index()] = Some(st.id);
            }
        }
        for (f, _, role) in fields.iter() {
            if role == FieldRole::Output && producer[f.index()].is_none() {
                return Err(BuildGraphError::UnwrittenOutput { field: f });
            }
        }
        Ok(StageGraph {
            fields,
            stages,
            producer,
        })
    }

    /// The field table.
    pub fn fields(&self) -> &FieldTable {
        &self.fields
    }

    /// The stages in execution order.
    pub fn stages(&self) -> &[StageDef] {
        &self.stages
    }

    /// Number of stages.
    pub fn stage_count(&self) -> usize {
        self.stages.len()
    }

    /// The stage that writes `field`, if any.
    pub fn producer(&self, field: FieldId) -> Option<StageId> {
        self.producer[field.index()]
    }

    /// Ids of the graph's final output fields.
    pub fn output_fields(&self) -> Vec<FieldId> {
        self.fields.with_role(FieldRole::Output)
    }

    /// Ids of the graph's external input fields.
    pub fn external_fields(&self) -> Vec<FieldId> {
        self.fields.with_role(FieldRole::External)
    }

    /// Backward requirement analysis.
    ///
    /// Given the region `target` of the final outputs a worker owns and
    /// the global `domain` the computation is defined on, returns for
    /// every stage the region it must be computed on (clipped to
    /// `domain`), such that all intra-step reads of intermediates resolve
    /// to locally computed cells and only *external* fields are read from
    /// shared memory.
    ///
    /// The result is exact for box-shaped requirements: requirements are
    /// accumulated as hulls, which for MPDATA-style graphs (all patterns
    /// are boxes) introduces no over-approximation.
    pub fn required_regions(&self, target: Region3, domain: Region3) -> Vec<Region3> {
        self.requirements(target, domain).0
    }

    /// The per-external-field read regions implied by
    /// [`StageGraph::required_regions`] — i.e. which parts of the shared
    /// input arrays a worker owning `target` touches.
    pub fn external_read_regions(
        &self,
        target: Region3,
        domain: Region3,
    ) -> HashMap<FieldId, Region3> {
        let req = self.requirements(target, domain).1;
        let reads = self
            .external_fields()
            .into_iter()
            .map(|f| (f, req[f.index()]));
        reads.filter(|(_, r)| !r.is_empty()).collect()
    }

    /// Per stage, the region it is computed on; per field (by
    /// `FieldId::index`), the hull of what those stages read of it — for
    /// outputs, `target ∩ domain`.
    fn requirements(&self, target: Region3, domain: Region3) -> (Vec<Region3>, Vec<Region3>) {
        let mut req = vec![Region3::empty(); self.fields.len()];
        for f in self.output_fields() {
            req[f.index()] = target.intersect(domain);
        }
        let mut compute = vec![Region3::empty(); self.stages.len()];
        for st in self.stages.iter().rev() {
            // Region this stage must produce: union of requirements on its
            // outputs, clipped to the domain.
            let r = st
                .outputs
                .iter()
                .fold(Region3::empty(), |r, f| r.hull(req[f.index()]));
            let r = r.intersect(domain);
            compute[st.id.index()] = r;
            if r.is_empty() {
                continue;
            }
            for (f, p) in &st.inputs {
                let need = r.expand(p.halo()).intersect(domain);
                req[f.index()] = req[f.index()].hull(need);
            }
        }
        (compute, req)
    }

    /// Cumulative halo of each stage: how far the *final output* depends
    /// on that stage's values, i.e. by how much the stage's compute region
    /// exceeds the owned output region on an unbounded domain.
    ///
    /// `cumulative_halos()[s]` is the `Halo3` such that
    /// `required_regions(target, unbounded)[s] == target.expand(halo)`
    /// (when the stage is live).
    pub fn cumulative_halos(&self) -> Vec<Halo3> {
        // Work on a large synthetic domain so no clipping occurs. Any
        // realistic cumulative halo is far below this margin.
        let big = 4096;
        let domain = Region3::of_extent(3 * big, 3 * big, 3 * big);
        let target = Region3::new(
            crate::region::Range1::new(big as i64, 2 * big as i64),
            crate::region::Range1::new(big as i64, 2 * big as i64),
            crate::region::Range1::new(big as i64, 2 * big as i64),
        );
        let regions = self.required_regions(target, domain);
        regions
            .iter()
            .map(|r| {
                if r.is_empty() {
                    Halo3::ZERO
                } else {
                    Halo3 {
                        i_neg: target.i.lo - r.i.lo,
                        i_pos: r.i.hi - target.i.hi,
                        j_neg: target.j.lo - r.j.lo,
                        j_pos: r.j.hi - target.j.hi,
                        k_neg: target.k.lo - r.k.lo,
                        k_pos: r.k.hi - target.k.hi,
                    }
                }
            })
            .collect()
    }

    /// Maximum number of simultaneously *live* non-external buffers over
    /// the stage sequence — the number of block-local scratch arrays the
    /// (3+1)D decomposition must hold in cache at once. A field is live
    /// from the stage that produces it through its last consumer
    /// (outputs stay live to the end). External inputs are streamed
    /// through the cache and not counted.
    pub fn max_live_buffers(&self) -> usize {
        let n = self.stages.len();
        let mut live_at = vec![0usize; n];
        for (f, _, role) in self.fields.iter() {
            if role == FieldRole::External {
                continue;
            }
            let Some(prod) = self.producer(f) else {
                continue;
            };
            let last = if role == FieldRole::Output {
                n - 1
            } else {
                self.stages
                    .iter()
                    .rev()
                    .find(|s| s.reads(f))
                    .map(|s| s.id.index())
                    .unwrap_or(prod.index())
            };
            for slot in live_at
                .iter_mut()
                .take(last.max(prod.index()) + 1)
                .skip(prod.index())
            {
                *slot += 1;
            }
        }
        live_at.into_iter().max().unwrap_or(1).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::StencilPattern;
    use crate::region::Range1;

    /// The three-stage 1-D example from Fig. 1 of the paper:
    /// A = s1(x), B = s2(A), C = s3(B), each reading {-1, 0, +1}.
    fn fig1_graph() -> (StageGraph, FieldId) {
        let mut t = FieldTable::new();
        let x = t.add("x", FieldRole::External);
        let a = t.add("A", FieldRole::Intermediate);
        let b = t.add("B", FieldRole::Intermediate);
        let c = t.add("C", FieldRole::Output);
        let p = StencilPattern::from_offsets([(-1, 0, 0), (0, 0, 0), (1, 0, 0)]);
        let stages = vec![
            StageDef {
                id: StageId(0),
                name: "s1".into(),
                outputs: vec![a],
                inputs: vec![(x, p.clone())],
                flops_per_cell: 1.0,
            },
            StageDef {
                id: StageId(1),
                name: "s2".into(),
                outputs: vec![b],
                inputs: vec![(a, p.clone())],
                flops_per_cell: 1.0,
            },
            StageDef {
                id: StageId(2),
                name: "s3".into(),
                outputs: vec![c],
                inputs: vec![(b, p)],
                flops_per_cell: 1.0,
            },
        ];
        (StageGraph::build(t, stages).unwrap(), c)
    }

    #[test]
    fn build_validates_order() {
        let mut t = FieldTable::new();
        let x = t.add("x", FieldRole::External);
        let a = t.add("a", FieldRole::Output);
        let b = t.add("b", FieldRole::Intermediate);
        // Stage 0 reads b before stage 1 writes it.
        let stages = vec![
            StageDef {
                id: StageId(0),
                name: "s0".into(),
                outputs: vec![a],
                inputs: vec![(b, StencilPattern::point())],
                flops_per_cell: 1.0,
            },
            StageDef {
                id: StageId(1),
                name: "s1".into(),
                outputs: vec![b],
                inputs: vec![(x, StencilPattern::point())],
                flops_per_cell: 1.0,
            },
        ];
        let err = StageGraph::build(t, stages).unwrap_err();
        assert_eq!(
            err,
            BuildGraphError::ReadBeforeWrite {
                stage: StageId(0),
                field: b
            }
        );
    }

    #[test]
    fn build_rejects_external_write_and_duplicate() {
        let mut t = FieldTable::new();
        let x = t.add("x", FieldRole::External);
        let stages = vec![StageDef {
            id: StageId(0),
            name: "s0".into(),
            outputs: vec![x],
            inputs: vec![],
            flops_per_cell: 1.0,
        }];
        assert!(matches!(
            StageGraph::build(t, stages),
            Err(BuildGraphError::WriteToExternal { .. })
        ));

        let mut t = FieldTable::new();
        let y = t.add("y", FieldRole::Output);
        let stages = vec![
            StageDef {
                id: StageId(0),
                name: "s0".into(),
                outputs: vec![y],
                inputs: vec![],
                flops_per_cell: 1.0,
            },
            StageDef {
                id: StageId(1),
                name: "s1".into(),
                outputs: vec![y],
                inputs: vec![],
                flops_per_cell: 1.0,
            },
        ];
        assert!(matches!(
            StageGraph::build(t, stages),
            Err(BuildGraphError::DuplicateWrite { .. })
        ));
    }

    #[test]
    fn build_rejects_unwritten_output_and_empty() {
        let mut t = FieldTable::new();
        let _x = t.add("x", FieldRole::External);
        assert_eq!(
            StageGraph::build(t, vec![]).unwrap_err(),
            BuildGraphError::Empty
        );

        let mut t = FieldTable::new();
        let x = t.add("x", FieldRole::External);
        let o = t.add("o", FieldRole::Output);
        let i = t.add("i", FieldRole::Intermediate);
        let stages = vec![StageDef {
            id: StageId(0),
            name: "s0".into(),
            outputs: vec![i],
            inputs: vec![(x, StencilPattern::point())],
            flops_per_cell: 1.0,
        }];
        assert_eq!(
            StageGraph::build(t, stages).unwrap_err(),
            BuildGraphError::UnwrittenOutput { field: o }
        );
    }

    #[test]
    fn required_regions_grow_backward() {
        let (g, _) = fig1_graph();
        let domain = Region3::of_extent(100, 1, 1);
        let target = Region3::new(Range1::new(50, 60), Range1::new(0, 1), Range1::new(0, 1));
        let rr = g.required_regions(target, domain);
        // Stage 3 computes exactly the target; stage 2 one more on each
        // side; stage 1 two more.
        assert_eq!(rr[2].i, Range1::new(50, 60));
        assert_eq!(rr[1].i, Range1::new(49, 61));
        assert_eq!(rr[0].i, Range1::new(48, 62));
    }

    #[test]
    fn required_regions_clip_to_domain() {
        let (g, _) = fig1_graph();
        let domain = Region3::of_extent(100, 1, 1);
        let target = Region3::new(Range1::new(0, 10), Range1::new(0, 1), Range1::new(0, 1));
        let rr = g.required_regions(target, domain);
        assert_eq!(rr[0].i, Range1::new(0, 12));
        assert_eq!(rr[1].i, Range1::new(0, 11));
    }

    #[test]
    fn fig1_extra_elements_match_paper() {
        // Fig. 1(c): two processors, each owning half of the domain,
        // recompute a total of three extra elements... in the paper the
        // grid has 8 points (a..h) and CPU_B recomputes two elements while
        // CPU_A recomputes one. Our analysis counts element *updates*
        // beyond the no-redundancy schedule.
        let (g, _) = fig1_graph();
        let domain = Region3::of_extent(8, 1, 1);
        let whole: usize = g
            .required_regions(domain, domain)
            .iter()
            .map(|r| r.cells())
            .sum();
        assert_eq!(whole, 24); // 3 stages × 8 cells, no redundancy
        let halves = domain.split(crate::region::Axis::I, 2);
        let total: usize = halves
            .iter()
            .map(|h| {
                g.required_regions(*h, domain)
                    .iter()
                    .map(|r| r.cells())
                    .sum::<usize>()
            })
            .sum();
        // Each half: s3 = 4, s2 = 5, s1 = 6 → 15; two halves = 30; the
        // no-redundancy total is 24, so 6 extra element updates (3 per
        // boundary side), the paper's "three extra elements" per CPU
        // counted as updates of stages 1 and 2.
        assert_eq!(total - whole, 6);
    }

    #[test]
    fn cumulative_halos_fig1() {
        let (g, _) = fig1_graph();
        let h = g.cumulative_halos();
        assert_eq!((h[2].i_neg, h[2].i_pos), (0, 0));
        assert_eq!((h[1].i_neg, h[1].i_pos), (1, 1));
        assert_eq!((h[0].i_neg, h[0].i_pos), (2, 2));
        assert_eq!((h[0].j_neg, h[0].j_pos), (0, 0));
    }

    #[test]
    fn external_reads_cover_expanded_target() {
        let (g, _) = fig1_graph();
        let domain = Region3::of_extent(100, 1, 1);
        let target = Region3::new(Range1::new(50, 60), Range1::new(0, 1), Range1::new(0, 1));
        let ext = g.external_read_regions(target, domain);
        let x = g.fields().find("x").unwrap();
        assert_eq!(ext[&x].i, Range1::new(47, 63));
    }

    #[test]
    fn dead_stage_gets_empty_region() {
        // A stage whose output nobody needs is not required anywhere.
        let mut t = FieldTable::new();
        let x = t.add("x", FieldRole::External);
        let dead = t.add("dead", FieldRole::Intermediate);
        let out = t.add("out", FieldRole::Output);
        let stages = vec![
            StageDef {
                id: StageId(0),
                name: "dead".into(),
                outputs: vec![dead],
                inputs: vec![(x, StencilPattern::point())],
                flops_per_cell: 1.0,
            },
            StageDef {
                id: StageId(1),
                name: "live".into(),
                outputs: vec![out],
                inputs: vec![(x, StencilPattern::point())],
                flops_per_cell: 1.0,
            },
        ];
        let g = StageGraph::build(t, stages).unwrap();
        let d = Region3::of_extent(4, 4, 4);
        let rr = g.required_regions(d, d);
        assert!(rr[0].is_empty());
        assert_eq!(rr[1], d);
    }

    #[test]
    fn max_live_buffers_chain() {
        // Chain x → A → B → C: A dies when B is made, B when C is made;
        // C is the output and lives to the end. Peak: producer + consumer
        // alive together = 2.
        let (g, _) = fig1_graph();
        assert_eq!(g.max_live_buffers(), 2);
    }

    #[test]
    fn max_live_buffers_counts_long_lived_fields() {
        // A is produced first and consumed last ⇒ overlaps everything.
        let mut t = FieldTable::new();
        let x = t.add("x", FieldRole::External);
        let a = t.add("a", FieldRole::Intermediate);
        let b = t.add("b", FieldRole::Intermediate);
        let o = t.add("o", FieldRole::Output);
        let p = StencilPattern::point;
        let stages = vec![
            StageDef {
                id: StageId(0),
                name: "mk_a".into(),
                outputs: vec![a],
                inputs: vec![(x, p())],
                flops_per_cell: 1.0,
            },
            StageDef {
                id: StageId(1),
                name: "mk_b".into(),
                outputs: vec![b],
                inputs: vec![(x, p())],
                flops_per_cell: 1.0,
            },
            StageDef {
                id: StageId(2),
                name: "mk_o".into(),
                outputs: vec![o],
                inputs: vec![(a, p()), (b, p())],
                flops_per_cell: 1.0,
            },
        ];
        let g = StageGraph::build(t, stages).unwrap();
        assert_eq!(g.max_live_buffers(), 3); // a, b and o at stage 2
    }

    #[test]
    fn producer_lookup() {
        let (g, c) = fig1_graph();
        assert_eq!(g.producer(c), Some(StageId(2)));
        let x = g.fields().find("x").unwrap();
        assert_eq!(g.producer(x), None);
        assert_eq!(g.output_fields(), vec![c]);
        assert_eq!(g.external_fields(), vec![x]);
    }
}
