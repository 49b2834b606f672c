//! Stage definitions: one heterogeneous stencil kernel of a time step.
//!
//! A [`StageDef`] describes the *shape* of a kernel — which fields it
//! writes, which fields it reads with which [`StencilPattern`], and its
//! arithmetic intensity — without fixing the arithmetic itself. The actual
//! numerics are supplied at execution time through a [`Kernel`]
//! implementation looked up by [`StageId`]; this split is what lets one
//! dependency analysis serve the real executor, the extra-element counter
//! and the trace generator for the NUMA simulator.

use crate::field::{FieldId, FieldStore};
use crate::pattern::StencilPattern;
use crate::region::Region3;
use std::fmt;

/// Index of a stage within its [`crate::StageGraph`], in execution order.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct StageId(pub u32);

impl StageId {
    /// The index as `usize`.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for StageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "stage#{}", self.0)
    }
}

/// Declarative description of one stencil stage.
#[derive(Clone, Debug)]
pub struct StageDef {
    /// Stage index in execution order.
    pub id: StageId,
    /// Human-readable kernel name (e.g. `"flux_i"`).
    pub name: String,
    /// Fields written by the kernel, each over the stage's compute region.
    pub outputs: Vec<FieldId>,
    /// Fields read, with the offset pattern used for each.
    pub inputs: Vec<(FieldId, StencilPattern)>,
    /// Floating-point operations per updated cell, used by the performance
    /// model.
    pub flops_per_cell: f64,
}

impl StageDef {
    /// The pattern with which this stage reads `field`, if it reads it.
    /// If a field appears several times, the union pattern is returned.
    pub fn pattern_for(&self, field: FieldId) -> Option<StencilPattern> {
        let mut acc: Option<StencilPattern> = None;
        for (f, p) in &self.inputs {
            if *f == field {
                acc = Some(match acc {
                    Some(a) => a.union(p),
                    None => p.clone(),
                });
            }
        }
        acc
    }

    /// Whether this stage writes `field`.
    pub fn writes(&self, field: FieldId) -> bool {
        self.outputs.contains(&field)
    }

    /// Whether this stage reads `field`.
    pub fn reads(&self, field: FieldId) -> bool {
        self.inputs.iter().any(|(f, _)| *f == field)
    }
}

/// Executable numerics for one stage.
///
/// The kernel must write exactly the cells of `region` in every output
/// buffer and read inputs only at offsets declared by the matching
/// [`StageDef`] — the property tests in the `mpdata` crate enforce this by
/// comparing against declared patterns.
pub trait Kernel: Send + Sync {
    /// Applies the stage to `region`, reading and writing buffers in
    /// `store` at global coordinates.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `store` lacks a required buffer or a
    /// buffer does not cover the region implied by the stage's patterns.
    fn apply(&self, store: &mut FieldStore, region: Region3);
}

impl<F> Kernel for F
where
    F: Fn(&mut FieldStore, Region3) + Send + Sync,
{
    fn apply(&self, store: &mut FieldStore, region: Region3) {
        self(store, region)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::{FieldRole, FieldTable};
    use crate::region::Range1;

    fn two_field_stage() -> (FieldTable, StageDef) {
        let mut t = FieldTable::new();
        let x = t.add("x", FieldRole::External);
        let u = t.add("u", FieldRole::External);
        let f = t.add("f", FieldRole::Intermediate);
        let def = StageDef {
            id: StageId(0),
            name: "flux_i".into(),
            outputs: vec![f],
            inputs: vec![
                (x, StencilPattern::from_offsets([(0, 0, 0), (-1, 0, 0)])),
                (u, StencilPattern::point()),
            ],
            flops_per_cell: 5.0,
        };
        (t, def)
    }

    #[test]
    fn pattern_for_and_reads_writes() {
        let (t, def) = two_field_stage();
        let x = t.find("x").unwrap();
        let f = t.find("f").unwrap();
        assert!(def.reads(x));
        assert!(!def.reads(f));
        assert!(def.writes(f));
        assert!(!def.writes(x));
        let p = def.pattern_for(x).unwrap();
        assert_eq!(p.len(), 2);
        assert!(def.pattern_for(f).is_none());
    }

    #[test]
    fn pattern_for_unions_duplicates() {
        let mut t = FieldTable::new();
        let x = t.add("x", FieldRole::External);
        let y = t.add("y", FieldRole::Output);
        let def = StageDef {
            id: StageId(0),
            name: "s".into(),
            outputs: vec![y],
            inputs: vec![
                (x, StencilPattern::from_offsets([(-1, 0, 0)])),
                (x, StencilPattern::from_offsets([(1, 0, 0)])),
            ],
            flops_per_cell: 1.0,
        };
        let p = def.pattern_for(x).unwrap();
        assert_eq!(p.len(), 2);
        assert_eq!(p.halo().i_neg, 1);
        assert_eq!(p.halo().i_pos, 1);
    }

    #[test]
    fn closure_kernel_applies() {
        use crate::array3::Array3;
        let (t, _) = two_field_stage();
        let x = t.find("x").unwrap();
        let mut store = FieldStore::with_capacity(t.len());
        store.put(x, Array3::filled(Region3::of_extent(2, 2, 2), 1.0));
        let kernel = |s: &mut FieldStore, r: Region3| {
            let mut a = s.take(FieldId(0));
            for (i, j, k) in r.points() {
                a.set(i, j, k, 2.0);
            }
            s.put(FieldId(0), a);
        };
        let region = Region3::new(Range1::new(0, 1), Range1::new(0, 2), Range1::new(0, 2));
        Kernel::apply(&kernel, &mut store, region);
        assert_eq!(store.get(x).sum(), 4.0 * 2.0 + 4.0 * 1.0);
    }
}
