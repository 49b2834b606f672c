//! Property-based tests for the stencil-engine substrate.
//!
//! Hermetic build: the properties are swept over deterministic, seeded
//! random cases (std-only) instead of the external `proptest` crate.
//! The default feature set runs a quick sweep; `--features proptest`
//! widens it roughly tenfold. Every assertion message carries the case
//! index, which reproduces exactly because the stream is a pure
//! function of the seed.

use stencil_engine::rng::{Rng64, Xoshiro256pp};
use stencil_engine::{
    Array3, Axis, BlockPlanner, FieldRole, FieldTable, Halo3, Range1, Region3, StageDef,
    StageGraph, StageId, StencilPattern,
};

fn cases(quick: usize) -> usize {
    if cfg!(feature = "proptest") {
        quick * 10
    } else {
        quick
    }
}

fn any_range(rng: &mut Xoshiro256pp) -> Range1 {
    let lo = -50 + rng.below(100) as i64;
    let len = rng.below(40) as i64;
    Range1::new(lo, lo + len)
}

fn any_region(rng: &mut Xoshiro256pp) -> Region3 {
    Region3::new(any_range(rng), any_range(rng), any_range(rng))
}

fn nonempty_range(rng: &mut Xoshiro256pp) -> Range1 {
    let lo = -20 + rng.below(40) as i64;
    let len = 1 + rng.below(15) as i64;
    Range1::new(lo, lo + len)
}

fn nonempty_region(rng: &mut Xoshiro256pp) -> Region3 {
    Region3::new(
        nonempty_range(rng),
        nonempty_range(rng),
        nonempty_range(rng),
    )
}

fn any_halo(rng: &mut Xoshiro256pp) -> Halo3 {
    Halo3 {
        i_neg: rng.below(4) as i64,
        i_pos: rng.below(4) as i64,
        j_neg: rng.below(4) as i64,
        j_pos: rng.below(4) as i64,
        k_neg: rng.below(4) as i64,
        k_pos: rng.below(4) as i64,
    }
}

fn any_pattern(rng: &mut Xoshiro256pp) -> StencilPattern {
    let n = 1 + rng.below(7);
    let offsets: Vec<(i64, i64, i64)> = (0..n)
        .map(|_| {
            (
                rng.below(5) as i64 - 2,
                rng.below(5) as i64 - 2,
                rng.below(5) as i64 - 2,
            )
        })
        .collect();
    StencilPattern::from_offsets(offsets)
}

#[test]
fn intersect_is_subset_of_both_and_commutes() {
    let mut rng = Xoshiro256pp::seed_from_u64(0x57E0_0001);
    for case in 0..cases(256) {
        let a = any_region(&mut rng);
        let b = any_region(&mut rng);
        let c = a.intersect(b);
        assert!(a.contains_region(c), "case {case}: {a:?} ∩ {b:?}");
        assert!(b.contains_region(c), "case {case}: {a:?} ∩ {b:?}");
        assert_eq!(c, b.intersect(a), "case {case}: intersection must commute");
    }
}

#[test]
fn hull_contains_both() {
    let mut rng = Xoshiro256pp::seed_from_u64(0x57E0_0002);
    for case in 0..cases(256) {
        let a = any_region(&mut rng);
        let b = any_region(&mut rng);
        let h = a.hull(b);
        assert!(h.contains_region(a), "case {case}");
        assert!(h.contains_region(b), "case {case}");
    }
}

#[test]
fn expand_then_intersect_recovers() {
    let mut rng = Xoshiro256pp::seed_from_u64(0x57E0_0003);
    for case in 0..cases(256) {
        let a = nonempty_region(&mut rng);
        let h = any_halo(&mut rng);
        // Expanding never loses the original region.
        let e = a.expand(h);
        assert!(e.contains_region(a), "case {case}");
        assert_eq!(e.intersect(a), a, "case {case}");
    }
}

#[test]
fn expand_composes_additively() {
    let mut rng = Xoshiro256pp::seed_from_u64(0x57E0_0004);
    for case in 0..cases(256) {
        let a = nonempty_region(&mut rng);
        let h1 = any_halo(&mut rng);
        let h2 = any_halo(&mut rng);
        assert_eq!(
            a.expand(h1).expand(h2),
            a.expand(h1.plus(h2)),
            "case {case}"
        );
    }
}

#[test]
fn split_partitions_cells() {
    let mut rng = Xoshiro256pp::seed_from_u64(0x57E0_0005);
    for case in 0..cases(256) {
        let r = nonempty_region(&mut rng);
        let parts = 1 + rng.below(8);
        let axis = Axis::ALL[rng.below(3)];
        let parts_v = r.split(axis, parts);
        assert_eq!(parts_v.len(), parts, "case {case}");
        let total: usize = parts_v.iter().map(|p| p.cells()).sum();
        assert_eq!(total, r.cells(), "case {case}");
        for a in 0..parts_v.len() {
            for b in (a + 1)..parts_v.len() {
                assert!(!parts_v[a].overlaps(parts_v[b]), "case {case}");
            }
        }
        // Part sizes differ by at most one along the axis.
        let lens: Vec<usize> = parts_v.iter().map(|p| p.range(axis).len()).collect();
        let mn = *lens.iter().min().unwrap();
        let mx = *lens.iter().max().unwrap();
        assert!(mx - mn <= 1, "case {case}: {lens:?}");
    }
}

#[test]
fn chunks_cover_in_order() {
    let mut rng = Xoshiro256pp::seed_from_u64(0x57E0_0006);
    for case in 0..cases(256) {
        let r = nonempty_region(&mut rng);
        let chunk = 1 + rng.below(9);
        let axis = Axis::ALL[rng.below(3)];
        let cs = r.chunks(axis, chunk);
        let total: usize = cs.iter().map(|c| c.cells()).sum();
        assert_eq!(total, r.cells(), "case {case}");
        for w in cs.windows(2) {
            assert_eq!(w[0].range(axis).hi, w[1].range(axis).lo, "case {case}");
        }
    }
}

#[test]
fn pattern_halo_bounds_offsets() {
    let mut rng = Xoshiro256pp::seed_from_u64(0x57E0_0007);
    for case in 0..cases(256) {
        let p = any_pattern(&mut rng);
        let h = p.halo();
        for o in p.offsets() {
            assert!(
                -o.di <= h.i_neg && o.di <= h.i_pos,
                "case {case}: {o:?} vs {h:?}"
            );
            assert!(
                -o.dj <= h.j_neg && o.dj <= h.j_pos,
                "case {case}: {o:?} vs {h:?}"
            );
            assert!(
                -o.dk <= h.k_neg && o.dk <= h.k_pos,
                "case {case}: {o:?} vs {h:?}"
            );
        }
    }
}

#[test]
fn pattern_union_halo_is_max() {
    let mut rng = Xoshiro256pp::seed_from_u64(0x57E0_0008);
    for case in 0..cases(256) {
        let a = any_pattern(&mut rng);
        let b = any_pattern(&mut rng);
        let u = a.union(&b);
        assert_eq!(u.halo(), a.halo().max(b.halo()), "case {case}");
    }
}

#[test]
fn subtract_partitions_difference() {
    let mut rng = Xoshiro256pp::seed_from_u64(0x57E0_0009);
    for case in 0..cases(256) {
        let a = any_region(&mut rng);
        let b = any_region(&mut rng);
        let parts = a.subtract(b);
        let cut = a.intersect(b);
        let total: usize = parts.iter().map(|p| p.cells()).sum();
        assert_eq!(total, a.cells() - cut.cells(), "case {case}: {a:?} − {b:?}");
        for (n, p) in parts.iter().enumerate() {
            assert!(a.contains_region(*p), "case {case}");
            assert!(!p.overlaps(b), "case {case}");
            for q in &parts[n + 1..] {
                assert!(!p.overlaps(*q), "case {case}");
            }
        }
    }
}

#[test]
fn array_from_fn_matches_get() {
    let mut rng = Xoshiro256pp::seed_from_u64(0x57E0_000A);
    for _case in 0..cases(64) {
        let r = nonempty_region(&mut rng);
        let a = Array3::from_fn(r, |i, j, k| (i * 10000 + j * 100 + k) as f64);
        for (i, j, k) in r.points() {
            assert_eq!(a.get(i, j, k), (i * 10000 + j * 100 + k) as f64);
        }
    }
}

// Builds a random chain graph and checks requirement monotonicity: a
// larger target never yields smaller per-stage regions.
#[test]
fn required_regions_monotone() {
    let mut rng = Xoshiro256pp::seed_from_u64(0x57E0_000C);
    for case in 0..cases(128) {
        let n = 2 + rng.below(4);
        let halos: Vec<i64> = (0..n).map(|_| rng.below(3) as i64).collect();
        let t1 = rng.below(10) as i64;
        let t2 = 10 + rng.below(14) as i64;

        let mut table = FieldTable::new();
        let x = table.add("x", FieldRole::External);
        let mut prev = x;
        let mut stages = Vec::new();
        for (s, h) in halos.iter().enumerate() {
            let role = if s + 1 == n {
                FieldRole::Output
            } else {
                FieldRole::Intermediate
            };
            let f = table.add(&format!("f{s}"), role);
            stages.push(StageDef {
                id: StageId(s as u32),
                name: format!("s{s}"),
                outputs: vec![f],
                inputs: vec![(
                    prev,
                    StencilPattern::from_offsets([(-h, 0, 0), (0, 0, 0), (*h, 0, 0)]),
                )],
                flops_per_cell: 1.0,
            });
            prev = f;
        }
        let g = StageGraph::build(table, stages).unwrap();
        let domain = Region3::of_extent(64, 2, 2);
        let small = Region3::new(Range1::new(t1, t2), domain.j, domain.k);
        let big = Region3::new(Range1::new(0, 40), domain.j, domain.k);
        let rs = g.required_regions(small, domain);
        let rb = g.required_regions(big, domain);
        for (a, b) in rs.iter().zip(&rb) {
            assert!(b.contains_region(*a), "case {case}: halos {halos:?}");
        }
        // Each stage's region contains the next stage's (chain property).
        for w in rs.windows(2) {
            assert!(w[0].contains_region(w[1]), "case {case}: halos {halos:?}");
        }
    }
}

#[test]
fn partition_extra_updates_nonnegative_and_cover() {
    for parts in 1..7usize {
        for halo in 0..3i64 {
            let mut table = FieldTable::new();
            let x = table.add("x", FieldRole::External);
            let a = table.add("a", FieldRole::Intermediate);
            let o = table.add("o", FieldRole::Output);
            let p = StencilPattern::from_offsets([(-halo, 0, 0), (0, 0, 0), (halo, 0, 0)]);
            let stages = vec![
                StageDef {
                    id: StageId(0),
                    name: "s0".into(),
                    outputs: vec![a],
                    inputs: vec![(x, p.clone())],
                    flops_per_cell: 1.0,
                },
                StageDef {
                    id: StageId(1),
                    name: "s1".into(),
                    outputs: vec![o],
                    inputs: vec![(a, p)],
                    flops_per_cell: 1.0,
                },
            ];
            let g = StageGraph::build(table, stages).unwrap();
            let domain = Region3::of_extent(40, 4, 4);
            let whole: usize = g
                .required_regions(domain, domain)
                .iter()
                .map(|r| r.cells())
                .sum();
            let split_total: usize = domain
                .split(Axis::I, parts)
                .into_iter()
                .map(|part| {
                    g.required_regions(part, domain)
                        .iter()
                        .map(|r| r.cells())
                        .sum::<usize>()
                })
                .sum();
            assert!(split_total >= whole, "parts {parts}, halo {halo}");
            if halo == 0 || parts == 1 {
                assert_eq!(split_total, whole, "parts {parts}, halo {halo}");
            } else {
                assert!(split_total > whole, "parts {parts}, halo {halo}");
            }
        }
    }
}

#[test]
fn block_plan_outputs_tile_any_domain() {
    let mut rng = Xoshiro256pp::seed_from_u64(0x57E0_000D);
    for case in 0..cases(128) {
        let ni = 1 + rng.below(39);
        let nj = 1 + rng.below(5);
        let nk = 1 + rng.below(5);
        let cache_kb = 1 + rng.below(63);

        let mut table = FieldTable::new();
        let x = table.add("x", FieldRole::External);
        let o = table.add("o", FieldRole::Output);
        let stages = vec![StageDef {
            id: StageId(0),
            name: "s".into(),
            outputs: vec![o],
            inputs: vec![(x, StencilPattern::seven_point())],
            flops_per_cell: 1.0,
        }];
        let g = StageGraph::build(table, stages).unwrap();
        let domain = Region3::of_extent(ni, nj, nk);
        // Every non-empty domain plans, whatever the budget: one that
        // fits no block gets depth-1 blocks.
        let label = format!("case {case}: {ni}×{nj}×{nk} @ {cache_kb} KiB");
        let b = BlockPlanner::new(cache_kb * 1024)
            .plan(&g, domain, domain)
            .expect(&label);
        let total: usize = b.blocks.iter().map(|p| p.output_region.cells()).sum();
        assert_eq!(total, domain.cells(), "{label}");
    }
}
