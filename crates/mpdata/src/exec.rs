//! Shared execution plumbing: field storage and region slicing.

use crate::fields::MpdataFields;
use crate::graph::{ExternalIds, StageKind};
use crate::kernels::{apply_kind, Boundary};
use stencil_engine::{Array3, Axis, FieldId, Region3, StageDef};
use work_scheduler::{AccessTracker, DisjointCell, InlineVec};

/// Upper bound on a stage's argument-list length (inputs plus outputs).
/// The executors' hot loops assemble input/output reference lists in
/// fixed-capacity [`InlineVec`]s of this size so the steady state never
/// allocates; `graph.rs` pins the bound against both the iord = 2 and
/// iord = 3 graphs.
pub(crate) const MAX_STAGE_ARGS: usize = 16;

/// The share of `region` that rank `rank` of `size` computes, cutting
/// along `axis` (empty when the region is thinner than the team).
pub(crate) fn rank_slice(region: Region3, axis: Axis, rank: usize, size: usize) -> Region3 {
    region.split_nth(axis, size, rank)
}

/// Borrowed views of the five external input arrays, resolved once per
/// call into the store instead of borrowing the whole field set for the
/// store's lifetime — that borrow is what kept `ParStore` from living
/// across steps (and across `run`'s buffer swaps).
#[derive(Clone, Copy)]
pub(crate) struct ExtFields<'a> {
    pub x: &'a Array3,
    pub u1: &'a Array3,
    pub u2: &'a Array3,
    pub u3: &'a Array3,
    pub h: &'a Array3,
}

impl<'a> ExtFields<'a> {
    pub(crate) fn new(fields: &'a MpdataFields) -> Self {
        ExtFields {
            x: &fields.x,
            u1: &fields.u1,
            u2: &fields.u2,
            u3: &fields.u3,
            h: &fields.h,
        }
    }

    /// The external array behind `f`, or `None` for store-held fields.
    fn get(&self, ids: &ExternalIds, f: FieldId) -> Option<&'a Array3> {
        if f == ids.x {
            Some(self.x)
        } else if f == ids.u1 {
            Some(self.u1)
        } else if f == ids.u2 {
            Some(self.u2)
        } else if f == ids.u3 {
            Some(self.u3)
        } else if f == ids.h {
            Some(self.h)
        } else {
            None
        }
    }
}

/// Serial storage: externals borrowed from the field set, intermediates
/// and the output owned.
pub(crate) struct SerialStore<'a> {
    fields: &'a MpdataFields,
    ids: ExternalIds,
    owned: Vec<Option<Array3>>,
}

impl<'a> SerialStore<'a> {
    pub(crate) fn new(field_count: usize, fields: &'a MpdataFields, ids: ExternalIds) -> Self {
        SerialStore {
            fields,
            ids,
            owned: (0..field_count).map(|_| None).collect(),
        }
    }

    pub(crate) fn alloc(&mut self, f: FieldId, region: Region3) {
        self.owned[f.index()] = Some(Array3::zeros(region));
    }

    pub(crate) fn take(&mut self, f: FieldId) -> Array3 {
        self.owned[f.index()].take().expect("buffer present")
    }

    fn external(&self, f: FieldId) -> Option<&'a Array3> {
        ExtFields::new(self.fields).get(&self.ids, f)
    }

    fn get(&self, f: FieldId) -> &Array3 {
        if let Some(e) = self.external(f) {
            e
        } else {
            self.owned[f.index()].as_ref().expect("buffer present")
        }
    }

    /// Applies `stage` (with kernel `kind`) over `region` (no-op when
    /// empty).
    pub(crate) fn apply(
        &mut self,
        stage: &StageDef,
        kind: StageKind,
        domain: Region3,
        bc: Boundary,
        region: Region3,
    ) {
        if region.is_empty() {
            return;
        }
        let mut outs: Vec<Array3> = stage.outputs.iter().map(|&f| self.take(f)).collect();
        {
            let ins: Vec<&Array3> = stage.inputs.iter().map(|(f, _)| self.get(*f)).collect();
            let mut out_refs: Vec<&mut Array3> = outs.iter_mut().collect();
            apply_kind(kind, domain, bc, &ins, &mut out_refs, region);
        }
        for (f, a) in stage.outputs.iter().zip(outs) {
            self.owned[f.index()] = Some(a);
        }
    }
}

/// One active region claim in the debug overlap guard.
#[cfg(debug_assertions)]
#[derive(Clone, Debug)]
struct Claim {
    token: u64,
    field: FieldId,
    region: Region3,
    write: bool,
    label: String,
}

/// The per-store collection of field buffers, each in a [`DisjointCell`]
/// so team ranks can write disjoint regions concurrently.
///
/// Debug builds additionally keep a *claim table*: every
/// [`ParStore::apply`] registers the regions it is about to write (its
/// outputs over the rank slice) and read (its non-external inputs over
/// the halo-expanded slice) before touching the buffers, and a write
/// claim that overlaps any concurrent claim of the same field panics
/// with both stage names. Claims are retired when their guard drops, so
/// a store reused across steps (the persistent-plan path) starts every
/// epoch with a clean table — reuse never looks like a leaked claim.
/// The table is compiled out of release builds.
pub(crate) struct FieldCells {
    cells: Vec<DisjointCell<Option<Array3>>>,
    #[cfg(debug_assertions)]
    claims: std::sync::Mutex<(u64, Vec<Claim>)>,
}

impl FieldCells {
    fn new(field_count: usize) -> Self {
        FieldCells {
            cells: (0..field_count).map(|_| DisjointCell::new(None)).collect(),
            #[cfg(debug_assertions)]
            claims: std::sync::Mutex::new((0, Vec::new())),
        }
    }

    fn cell(&self, f: FieldId) -> &DisjointCell<Option<Array3>> {
        &self.cells[f.index()]
    }

    fn cell_mut(&mut self, f: FieldId) -> &mut DisjointCell<Option<Array3>> {
        &mut self.cells[f.index()]
    }

    /// Registers the `(field, region, is_write)` triples and returns an
    /// RAII guard that retires them. Panics (debug builds only) when a
    /// write claim overlaps a concurrent read-or-write claim of the same
    /// field: two such accesses are only sound when a barrier or join
    /// separates them, and a live claim proves there was none.
    #[cfg(debug_assertions)]
    fn claim(&self, wanted: &[(FieldId, Region3, bool)], label: &str) -> ClaimGuard<'_> {
        // A panicking claimant poisons the mutex; recover the table so
        // sibling workers report the overlap instead of the poison.
        let mut table = self.claims.lock().unwrap_or_else(|e| e.into_inner());
        let (next, active) = &mut *table;
        for &(field, region, write) in wanted {
            for c in active.iter() {
                if c.field == field && (write || c.write) && c.region.overlaps(region) {
                    panic!(
                        "field access overlap: `{label}` {} field #{} over {:?} while \
                         `{}` holds a {} over {:?} — a barrier or join must separate them",
                        if write { "writes" } else { "reads" },
                        field.index(),
                        region,
                        c.label,
                        if c.write { "write" } else { "read" },
                        c.region,
                    );
                }
            }
        }
        let base = *next;
        for (n, &(field, region, write)) in wanted.iter().enumerate() {
            active.push(Claim {
                token: base + n as u64,
                field,
                region,
                write,
                label: label.to_string(),
            });
        }
        *next += wanted.len() as u64;
        ClaimGuard {
            cells: self,
            tokens: base..*next,
        }
    }
}

/// RAII token for one batch of claims (see [`FieldCells::claim`]).
#[cfg(debug_assertions)]
pub(crate) struct ClaimGuard<'a> {
    cells: &'a FieldCells,
    tokens: std::ops::Range<u64>,
}

#[cfg(debug_assertions)]
impl Drop for ClaimGuard<'_> {
    fn drop(&mut self) {
        let mut table = self.cells.claims.lock().unwrap_or_else(|e| e.into_inner());
        table.1.retain(|c| !self.tokens.contains(&c.token));
    }
}

/// Parallel storage: every non-external field buffer sits in a
/// [`DisjointCell`] (grouped in [`FieldCells`]) so team ranks can write
/// disjoint regions concurrently.
///
/// The store owns no borrow of the field set — externals arrive as an
/// [`ExtFields`] view per call — so one store can persist across time
/// steps while `run` swaps its input/output arrays underneath.
pub(crate) struct ParStore {
    ids: ExternalIds,
    cells: FieldCells,
}

impl ParStore {
    pub(crate) fn new(field_count: usize, ids: ExternalIds) -> Self {
        ParStore {
            ids,
            cells: FieldCells::new(field_count),
        }
    }

    /// Installs a zeroed buffer for `f` (single-threaded setup phase).
    pub(crate) fn alloc(&mut self, f: FieldId, region: Region3) {
        *self.cells.cell_mut(f).get_mut_exclusive() = Some(Array3::zeros(region));
    }

    /// Installs a zeroed buffer for `f` that answers for `region` but
    /// stores a sliding window of `planes` i-planes
    /// ([`Array3::windowed`]).
    pub(crate) fn alloc_windowed(&mut self, f: FieldId, region: Region3, planes: usize) {
        *self.cells.cell_mut(f).get_mut_exclusive() = Some(Array3::windowed(region, planes));
    }

    /// Re-targets `f`'s buffer at `region`, reusing its allocation
    /// ([`Array3::rebase`]): the tiled replay aims a field at the region
    /// of the chain row about to write it, which contains every later
    /// read of the field in that chain, and must stay allocation-free.
    ///
    /// The buffer's previous contents become meaningless at the new
    /// indexing; the row writes every cell the rest of the chain reads
    /// before it is read (the prover's `uncovered-read` rule over the
    /// tile's scratch).
    ///
    /// # Safety contract (internal)
    ///
    /// The store must be *rank-private*: no other thread may access it
    /// concurrently. The tiled executors allocate one store per team
    /// rank and never share them, so the claim below can never collide.
    pub(crate) fn rebase(&self, f: FieldId, region: Region3) {
        #[cfg(debug_assertions)]
        let _claim = self.cells.claim(&[(f, region, true)], "tile-rebase");
        let _tracker = self.cells.cell(f).track_write();
        // SAFETY: see the contract above — the store is rank-private.
        unsafe { self.cells.cell(f).get_mut() }
            .as_mut()
            .expect("buffer present")
            .rebase(region);
    }

    /// Applies `stage` over `region` from one worker, resolving external
    /// inputs through `ext`. The outputs go to their store slots, or —
    /// given `dest` — the stage's one output goes there instead (the
    /// replay's final stage writes the step's x output this way).
    ///
    /// # Safety contract (internal)
    ///
    /// Concurrent callers must pass mutually disjoint `region`s for the
    /// same stage, and stages must be separated by a barrier or join.
    /// Both are guaranteed by the executors: regions come from
    /// [`rank_slice`] and stages are fenced by team or global barriers.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn apply(
        &self,
        stage: &StageDef,
        kind: StageKind,
        domain: Region3,
        bc: Boundary,
        region: Region3,
        dest: Option<&mut Array3>,
        ext: ExtFields<'_>,
    ) {
        if region.is_empty() {
            return;
        }
        let ids = &self.ids;
        // The store slots written: none when `dest` takes the output.
        let slots: &[FieldId] = if dest.is_some() {
            assert_eq!(stage.outputs.len(), 1, "a destination takes one output");
            &[]
        } else {
            &stage.outputs
        };
        let held = || {
            stage
                .inputs
                .iter()
                .filter(|(f, _)| ext.get(ids, *f).is_none())
        };
        // Debug overlap guard: claim the regions this call touches
        // (slots written over `region`, store-held inputs read over the
        // halo-expanded slice — periodic wraps are under-claimed, which
        // only weakens, never falsifies, the check) and track the cells.
        #[cfg(debug_assertions)]
        let _claims = {
            let wanted: Vec<(FieldId, Region3, bool)> = slots
                .iter()
                .map(|&f| (f, region, true))
                .chain(
                    held().map(|(f, pat)| (*f, region.expand(pat.halo()).intersect(domain), false)),
                )
                .collect();
            self.cells.claim(&wanted, &stage.name)
        };
        let mut trackers: InlineVec<AccessTracker<'_, Option<Array3>>, MAX_STAGE_ARGS> =
            InlineVec::new();
        for (f, _) in held() {
            trackers.push(self.cells.cell(*f).track_read());
        }
        for &f in slots {
            trackers.push(self.cells.cell(f).track_write());
        }
        let mut ins: InlineVec<&Array3, MAX_STAGE_ARGS> = InlineVec::new();
        for (f, _) in &stage.inputs {
            ins.push(ext.get(ids, *f).unwrap_or_else(|| {
                // SAFETY: inputs of a stage are never written during
                // that stage (the graph is SSA and validated), and
                // prior writes are fenced by a barrier/join.
                unsafe { self.cells.cell(*f).get_ref() }
                    .as_ref()
                    .expect("buffer present")
            }));
        }
        let mut outs: InlineVec<&mut Array3, MAX_STAGE_ARGS> = InlineVec::new();
        if let Some(d) = dest {
            outs.push(d);
        }
        for &f in slots {
            // SAFETY: concurrent callers write disjoint regions (see
            // the contract above), and no caller reads an output of
            // the stage it is executing.
            outs.push(
                unsafe { self.cells.cell(f).get_mut() }
                    .as_mut()
                    .expect("buffer present"),
            );
        }
        apply_kind(kind, domain, bc, &ins, &mut outs, region);
        drop(trackers);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fields::gaussian_pulse;
    use crate::graph::MpdataProblem;
    use stencil_engine::Range1;

    /// Removes the buffer for `f` from a store no other thread touches.
    fn take(ps: &mut ParStore, f: FieldId) -> Array3 {
        ps.cells.cell_mut(f).get_mut_exclusive().take().unwrap()
    }

    #[test]
    fn rank_slice_partitions() {
        let r = Region3::of_extent(10, 7, 3);
        let total: usize = (0..4).map(|w| rank_slice(r, Axis::J, w, 4).cells()).sum();
        assert_eq!(total, r.cells());
        assert!(rank_slice(r, Axis::K, 3, 4).is_empty());
    }

    #[test]
    fn serial_store_roundtrip() {
        let p = MpdataProblem::standard();
        let g = p.graph();
        let d = Region3::of_extent(6, 6, 6);
        let f = gaussian_pulse(d, (0.1, 0.0, 0.0));
        let f1 = g.fields().find("f1").unwrap();
        let mut store = SerialStore::new(g.fields().len(), &f, p.ext());
        store.alloc(f1, d);
        store.apply(
            &g.stages()[0],
            p.kind(g.stages()[0].id),
            d,
            Boundary::Open,
            d,
        );
        let f1a = store.take(f1);
        // Positive velocity ⇒ flux equals 0.1 × upstream value > 0.
        assert!(f1a.get(3, 3, 3) > 0.0);
    }

    #[test]
    fn par_store_matches_serial_for_stage0() {
        let p = MpdataProblem::standard();
        let g = p.graph();
        let d = Region3::of_extent(6, 6, 6);
        let f = gaussian_pulse(d, (0.1, 0.0, 0.0));
        let f1 = g.fields().find("f1").unwrap();
        let kind = p.kind(g.stages()[0].id);
        let mut s = SerialStore::new(g.fields().len(), &f, p.ext());
        s.alloc(f1, d);
        s.apply(&g.stages()[0], kind, d, Boundary::Open, d);
        let serial = s.take(f1);

        let ext = ExtFields::new(&f);
        let mut ps = ParStore::new(g.fields().len(), p.ext());
        ps.alloc(f1, d);
        // Two "workers", disjoint halves, sequential here (the pool tests
        // exercise true concurrency).
        ps.apply(
            &g.stages()[0],
            kind,
            d,
            Boundary::Open,
            Region3::new(Range1::new(0, 3), d.j, d.k),
            None,
            ext,
        );
        ps.apply(
            &g.stages()[0],
            kind,
            d,
            Boundary::Open,
            Region3::new(Range1::new(3, 6), d.j, d.k),
            None,
            ext,
        );
        assert_eq!(take(&mut ps, f1).max_abs_diff(&serial), 0.0);
    }

    #[test]
    #[cfg(debug_assertions)]
    fn claims_allow_disjoint_writes_and_shared_reads() {
        let cells = FieldCells::new(2);
        let f = FieldId(0);
        let d = Region3::of_extent(6, 4, 4);
        let left = Region3::new(Range1::new(0, 3), d.j, d.k);
        let right = Region3::new(Range1::new(3, 6), d.j, d.k);
        let _a = cells.claim(&[(f, left, true)], "rank0");
        let _b = cells.claim(&[(f, right, true)], "rank1");
        let g = FieldId(1);
        let _c = cells.claim(&[(g, left, false)], "reader0");
        let _d = cells.claim(&[(g, left, false)], "reader1");
    }

    #[test]
    #[cfg(debug_assertions)]
    fn dropped_claims_are_retired() {
        let cells = FieldCells::new(1);
        let f = FieldId(0);
        let r = Region3::of_extent(4, 4, 4);
        {
            let _a = cells.claim(&[(f, r, true)], "stage-a");
        }
        let _b = cells.claim(&[(f, r, true)], "stage-b");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "field access overlap")]
    fn overlapping_write_and_read_claims_panic() {
        let cells = FieldCells::new(1);
        let f = FieldId(0);
        let r = Region3::of_extent(4, 4, 4);
        let _a = cells.claim(&[(f, r, false)], "reader");
        let _b = cells.claim(&[(f, r, true)], "writer");
    }

    #[test]
    fn empty_region_is_noop() {
        let p = MpdataProblem::standard();
        let g = p.graph();
        let d = Region3::of_extent(4, 4, 4);
        let f = gaussian_pulse(d, (0.1, 0.0, 0.0));
        let f1 = g.fields().find("f1").unwrap();
        let mut s = SerialStore::new(g.fields().len(), &f, p.ext());
        s.alloc(f1, d);
        s.apply(
            &g.stages()[0],
            p.kind(g.stages()[0].id),
            d,
            Boundary::Open,
            Region3::empty(),
        );
        assert_eq!(s.take(f1).sum(), 0.0);
    }
}
