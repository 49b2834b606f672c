//! Property sweep: the backward requirement analysis
//! (`StageGraph::required_regions`) must predict *exactly* what the
//! kernels read.
//!
//! For random sub-partitions of several domains, every stage is run
//! over its required region with access recording on; the hull of the
//! recorded reads of each field must equal the hull of the
//! declaration-derived requirement (`rr[s'].expand(halo) ∩ domain` over
//! consuming stages). MPDATA patterns are boxes, so hull equality is
//! exact, not an approximation — and the externals must agree with the
//! public `external_read_regions` too.

use mpdata::{apply_kind, MpdataProblem};
use std::collections::BTreeMap;
use stencil_engine::rng::{Rng64, Xoshiro256pp};
use stencil_engine::{trace, Array3, FieldId, Range1, Region3};

#[cfg(not(feature = "proptest"))]
const RANDOM_TARGETS: usize = 8;
#[cfg(feature = "proptest")]
const RANDOM_TARGETS: usize = 48;

/// Hull of a point set, tracked incrementally per field.
#[derive(Clone, Copy)]
struct Hull {
    lo: (i64, i64, i64),
    hi: (i64, i64, i64),
}

impl Hull {
    fn empty() -> Self {
        Hull {
            lo: (i64::MAX, i64::MAX, i64::MAX),
            hi: (i64::MIN, i64::MIN, i64::MIN),
        }
    }
    fn add(&mut self, p: (i64, i64, i64)) {
        self.lo = (self.lo.0.min(p.0), self.lo.1.min(p.1), self.lo.2.min(p.2));
        self.hi = (self.hi.0.max(p.0), self.hi.1.max(p.1), self.hi.2.max(p.2));
    }
    fn region(&self) -> Region3 {
        if self.lo.0 > self.hi.0 {
            return Region3::empty();
        }
        Region3::new(
            Range1::new(self.lo.0, self.hi.0 + 1),
            Range1::new(self.lo.1, self.hi.1 + 1),
            Range1::new(self.lo.2, self.hi.2 + 1),
        )
    }
}

/// Runs every live stage over its required region and asserts the
/// recorded per-field read hulls equal the declaration-derived ones.
fn assert_reads_match_requirements(problem: &MpdataProblem, domain: Region3, target: Region3) {
    let graph = problem.graph();
    let rr = graph.required_regions(target, domain);

    // Declaration-derived expectation.
    let mut expected: BTreeMap<usize, Region3> = BTreeMap::new();
    for st in graph.stages() {
        let r = rr[st.id.index()];
        if r.is_empty() {
            continue;
        }
        for (f, pat) in &st.inputs {
            let need = r.expand(pat.halo()).intersect(domain);
            let e = expected.entry(f.index()).or_insert(Region3::empty());
            *e = e.hull(need);
        }
    }

    // Observed reads.
    let mut arrays: Vec<Option<Array3>> = (0..graph.fields().len())
        .map(|n| {
            Some(Array3::from_fn(domain, |i, j, k| {
                1.0 + 0.0625 * (((n as i64 * 13 + i * 3 + j * 5 + k * 7).rem_euclid(11)) as f64)
            }))
        })
        .collect();
    let keys: Vec<trace::ArrayKey> = arrays
        .iter()
        .map(|a| trace::array_key(a.as_ref().unwrap()))
        .collect();
    let field_of: BTreeMap<trace::ArrayKey, usize> =
        keys.iter().enumerate().map(|(n, &k)| (k, n)).collect();
    let mut observed: BTreeMap<usize, Hull> = BTreeMap::new();
    for st in graph.stages() {
        let region = rr[st.id.index()];
        if region.is_empty() {
            continue;
        }
        let mut outs: Vec<Array3> = st
            .outputs
            .iter()
            .map(|f| arrays[f.index()].take().unwrap())
            .collect();
        let log = {
            let ins: Vec<&Array3> = st
                .inputs
                .iter()
                .map(|(f, _)| arrays[f.index()].as_ref().unwrap())
                .collect();
            let mut out_refs: Vec<&mut Array3> = outs.iter_mut().collect();
            let ((), log) = trace::record(|| {
                apply_kind(
                    problem.kind(st.id),
                    domain,
                    problem.boundary(),
                    &ins,
                    &mut out_refs,
                    region,
                )
            });
            log
        };
        for (f, a) in st.outputs.iter().zip(outs) {
            arrays[f.index()] = Some(a);
        }
        for &(key, i, j, k) in &log.reads {
            observed
                .entry(field_of[&key])
                .or_insert_with(Hull::empty)
                .add((i, j, k));
        }
    }

    for n in 0..graph.fields().len() {
        let want = expected.get(&n).copied().unwrap_or(Region3::empty());
        let got = observed.get(&n).map_or(Region3::empty(), Hull::region);
        assert_eq!(
            got,
            want,
            "field `{}`: recorded read hull diverges from required_regions \
             (domain {domain:?}, target {target:?})",
            graph.fields().name(FieldId(n as u32))
        );
    }

    // The public external accounting must agree with observation too.
    for (f, want) in graph.external_read_regions(target, domain) {
        let got = observed
            .get(&f.index())
            .map_or(Region3::empty(), Hull::region);
        assert_eq!(got, want, "external `{}`", graph.fields().name(f));
    }
}

fn sub_box(rng: &mut Xoshiro256pp, domain: Region3) -> Region3 {
    let pick = |rng: &mut Xoshiro256pp, r: Range1| {
        let len = r.len();
        let lo = r.lo + rng.below(len) as i64;
        let hi = lo + 1 + rng.below((r.hi - lo) as usize) as i64;
        Range1::new(lo, hi)
    };
    Region3::new(
        pick(rng, domain.i),
        pick(rng, domain.j),
        pick(rng, domain.k),
    )
}

#[test]
#[cfg_attr(not(debug_assertions), ignore = "needs the debug-only access recorder")]
fn required_regions_match_recorded_reads() {
    let problem = MpdataProblem::standard();
    let domains = [
        // Prime extents with mixed bases.
        Region3::new(Range1::new(-3, 10), Range1::new(2, 9), Range1::new(0, 5)),
        Region3::of_extent(8, 8, 4),
    ];
    let mut rng = Xoshiro256pp::seed_from_u64(0x1517);
    for domain in domains {
        // P = 1: the whole domain.
        assert_reads_match_requirements(&problem, domain, domain);
        // P > nx: some slabs empty — nothing read for them.
        for part in domain.split(stencil_engine::Axis::I, domain.i.len() + 3) {
            if part.is_empty() {
                assert!(problem
                    .graph()
                    .required_regions(part, domain)
                    .iter()
                    .all(|r| r.is_empty()));
            } else {
                assert_reads_match_requirements(&problem, domain, part);
            }
        }
        // Random sub-boxes.
        for _ in 0..RANDOM_TARGETS {
            let target = sub_box(&mut rng, domain);
            assert_reads_match_requirements(&problem, domain, target);
        }
    }
}
