//! Tier-1 smoke of the kernel contract (the full matrix lives in
//! `mpdata::kernels`' unit tests): the run kernels behind `apply_kind`
//! agree bitwise with the per-cell oracle `apply_kind_scalar` on domain
//! faces, edges and corners under both boundaries — where interior rows
//! chain into one slice per plane, and where a sub-`k` region or a
//! `k`-halo on one array keeps every row a run of its own; the `k`-end
//! cells a run sweeps across are recomputed, not left as swept, with
//! plain arrays and with windowed ones (inputs or outputs) whose
//! planes sit in wrapped slots; the paper's 1 × 256 × 64 cross-section
//! agrees through the same windowed layouts; and the select-form
//! extrema treat NaN, ±∞ and ±0 like the `f64::max`/`f64::min` chains
//! they replaced.

use islands_of_cores::mpdata::{apply_kind, apply_kind_scalar, Boundary, MpdataProblem, StageKind};
use islands_of_cores::stencil::{Array3, Range1, Region3};

type Kernel = fn(StageKind, Region3, Boundary, &[&Array3], &mut [&mut Array3], Region3);

/// The `n_out` outputs, each starting as a copy of `blank`, after `f`
/// runs over `region`.
#[allow(clippy::too_many_arguments)]
fn sweep(
    f: Kernel,
    kind: StageKind,
    n_out: usize,
    domain: Region3,
    bc: Boundary,
    ins: &[&Array3],
    region: Region3,
    blank: &Array3,
) -> Vec<Array3> {
    let mut out = vec![blank.clone(); n_out];
    let mut refs: Vec<&mut Array3> = out.iter_mut().collect();
    f(kind, domain, bc, ins, &mut refs, region);
    out
}

/// Bit patterns of every output array (each covering `cover`) after
/// `f` runs over `region`.
#[allow(clippy::too_many_arguments)]
fn run(
    f: Kernel,
    kind: StageKind,
    n_out: usize,
    domain: Region3,
    bc: Boundary,
    ins: &[&Array3],
    region: Region3,
    cover: Region3,
) -> Vec<u64> {
    let blank = Array3::filled(cover, -9.0);
    bits(&sweep(f, kind, n_out, domain, bc, ins, region, &blank))
}

/// Bit patterns of every stored cell of `arrays`.
fn bits(arrays: &[Array3]) -> Vec<u64> {
    arrays
        .iter()
        .flat_map(|a| a.as_slice())
        .map(|v| v.to_bits())
        .collect()
}

/// `a`'s cells in an array answering for `hull` that stores only
/// `planes` i-planes ([`Array3::windowed`]).
fn windowed_copy(a: &Array3, hull: Region3, planes: usize) -> Array3 {
    let mut w = Array3::windowed(hull, planes);
    for (i, j, k) in a.region().points() {
        w.set(i, j, k, a.get(i, j, k));
    }
    w
}

/// The smooth test field of input slot `n`.
fn field(n: usize, cover: Region3) -> Array3 {
    Array3::from_fn(cover, |i, j, k| {
        0.6 + 0.01 * ((n as i64 * 29 + i * 13 + j * 7 + k * 3) % 31) as f64 - 0.75 * (n % 2) as f64
    })
}

#[test]
fn rows_equal_the_per_cell_oracle_on_every_boundary() {
    let p = MpdataProblem::standard();
    // The last four: three or more interior rows of 1, 2, 3, 16 cells.
    let extents = [
        (1, 1, 1),
        (2, 2, 2),
        (5, 3, 7),
        (6, 5, 9),
        (3, 6, 1),
        (3, 5, 2),
        (1, 7, 3),
        (2, 6, 16),
    ];
    for (ni, nj, nk) in extents {
        let domain = Region3::of_extent(ni, nj, nk);
        let hi_corner = Region3::new(
            Range1::new(ni as i64 - 1, ni as i64),
            Range1::new(nj as i64 - 1, nj as i64),
            Range1::new(nk as i64 - 1, nk as i64),
        );
        let sub_k = Region3::new(domain.i, domain.j, Range1::new(1, nk as i64));
        // Odd input slots (then the outputs) carry a k-halo: rows of
        // two pitches, which must not chain.
        let halo = Region3::new(domain.i, domain.j, Range1::new(-1, nk as i64 + 2));
        for st in p.graph().stages() {
            let kind = p.kind(st.id);
            let slots = 0..st.inputs.len();
            let haloed: Vec<Array3> = slots
                .map(|n| field(n, if n % 2 == 1 { halo } else { domain }))
                .collect();
            let haloed: Vec<&Array3> = haloed.iter().collect();
            let ins: Vec<Array3> = (0..st.inputs.len()).map(|n| field(n, domain)).collect();
            let ins: Vec<&Array3> = ins.iter().collect();
            for bc in [Boundary::Open, Boundary::Periodic] {
                let n_out = st.outputs.len();
                for region in [domain, Region3::of_extent(1, 1, 1), hi_corner, sub_k] {
                    if region.is_empty() {
                        continue;
                    }
                    assert_eq!(
                        run(apply_kind, kind, n_out, domain, bc, &ins, region, domain),
                        run(
                            apply_kind_scalar,
                            kind,
                            n_out,
                            domain,
                            bc,
                            &ins,
                            region,
                            domain
                        ),
                        "{kind:?} {bc:?} on {region:?} of {domain:?}"
                    );
                }
                for (ins, cover) in [(&haloed, domain), (&ins, halo)] {
                    assert_eq!(
                        run(apply_kind, kind, n_out, domain, bc, ins, domain, cover),
                        run(
                            apply_kind_scalar,
                            kind,
                            n_out,
                            domain,
                            bc,
                            ins,
                            domain,
                            cover
                        ),
                        "{kind:?} {bc:?} on {domain:?}, outputs over {cover:?}"
                    );
                }
            }
        }
    }
}

/// Between the `k`-windows of two rows of a run the vector body sweeps
/// their `k`-end cells with the *adjacent row's* cell where the boundary
/// names another. Every other row carries NaN / ±∞ / ±1e308 in exactly
/// those cells, so a swept value left in place would be non-finite (or
/// an overflow) where the resolved operands are clean: every cell still
/// equals the oracle's, and the clean rows of the pure-`k` flux stay
/// finite — the poison is where the sweep looks, not where the stage
/// does.
#[test]
fn k_end_cells_are_recomputed_over_what_the_run_swept() {
    let poison = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e308, -1e308];
    let p = MpdataProblem::standard();
    for nk in [3, 16] {
        let domain = Region3::of_extent(3, 7, nk);
        let (k_lo, k_hi) = (0, nk as i64 - 1);
        // The windowed layout: arrays answering for planes -4..3 in
        // three slots, so the domain's planes sit in wrapped slots.
        let hull = Region3::new(Range1::new(-4, 3), domain.j, domain.k);
        let plain_out = Array3::filled(domain, -9.0);
        let mut windowed_out = Array3::windowed(hull, 3);
        windowed_out.fill(-9.0);
        for st in p.graph().stages() {
            let kind = p.kind(st.id);
            let plain: Vec<Array3> = (0..st.inputs.len())
                .map(|n| {
                    Array3::from_fn(domain, |i, j, k| {
                        if j % 2 == 0 && (k == k_lo || k == k_hi) {
                            poison[((n as i64 + i + j + k) % 5) as usize]
                        } else {
                            0.6 + 0.01 * ((n as i64 * 29 + i * 13 + j * 7 + k * 3) % 31) as f64
                                - 0.75 * (n % 2) as f64
                        }
                    })
                })
                .collect();
            let windowed: Vec<Array3> = plain.iter().map(|a| windowed_copy(a, hull, 3)).collect();
            let layouts = [
                (&plain, &plain_out, "plain"),
                (&windowed, &plain_out, "windowed inputs"),
                (&plain, &windowed_out, "windowed outputs"),
            ];
            for ((ins, blank, layout), bc) in layouts
                .into_iter()
                .flat_map(|l| [(l, Boundary::Open), (l, Boundary::Periodic)])
            {
                let ins: Vec<&Array3> = ins.iter().collect();
                let n_out = st.outputs.len();
                let at = |f| sweep(f, kind, n_out, domain, bc, &ins, domain, blank);
                let (fast, oracle) = (at(apply_kind), at(apply_kind_scalar));
                for (got, want) in fast.iter().zip(&oracle) {
                    for (i, j, k) in domain.points() {
                        let (got, want) = (got.get(i, j, k), want.get(i, j, k));
                        // Two NaNs may differ in payload with operand order.
                        assert!(
                            got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
                            "{kind:?} {bc:?} {layout} nk={nk} at ({i},{j},{k}): {got:e} vs {want:e}"
                        );
                        if kind == StageKind::FluxK && j % 2 == 1 {
                            assert!(
                                got.is_finite(),
                                "{bc:?} {layout} nk={nk} at ({i},{j},{k}): {got:e}"
                            );
                        }
                    }
                }
            }
        }
    }
}

/// The paper's cross-section, 1 × 256 × 64, swept whole under both
/// boundaries: its 254 interior rows are one run. Windowed scratch
/// arrays (two slots for planes -3..1, so plane 0 sits in a wrapped
/// slot) serve once as the inputs and once as the outputs, whose
/// `k`-end cells the run stores through whole-row slices.
#[test]
fn paper_plane_equals_the_oracle_through_windowed_arrays() {
    let p = MpdataProblem::standard();
    let domain = Region3::of_extent(1, 256, 64);
    let hull = Region3::new(Range1::new(-3, 1), domain.j, domain.k);
    let plain_out = Array3::filled(domain, -9.0);
    let mut windowed_out = Array3::windowed(hull, 2);
    windowed_out.fill(-9.0);
    for st in p.graph().stages() {
        let kind = p.kind(st.id);
        let plain: Vec<Array3> = (0..st.inputs.len()).map(|n| field(n, domain)).collect();
        let windowed: Vec<Array3> = plain.iter().map(|a| windowed_copy(a, hull, 2)).collect();
        for (ins, blank) in [(&windowed, &plain_out), (&plain, &windowed_out)] {
            let ins: Vec<&Array3> = ins.iter().collect();
            for bc in [Boundary::Open, Boundary::Periodic] {
                let n_out = st.outputs.len();
                let at = |f| bits(&sweep(f, kind, n_out, domain, bc, &ins, domain, blank));
                assert!(
                    at(apply_kind) == at(apply_kind_scalar),
                    "{kind:?} {bc:?}, outputs over {:?}",
                    blank.region()
                );
            }
        }
    }
}

#[test]
fn extrema_ignore_nan_like_f64_max_and_min() {
    let domain = Region3::of_extent(4, 3, 6);
    let special = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.0, 2.5];
    let x = Array3::from_fn(domain, |i, j, k| {
        special[((i * 5 + j * 3 + k) % 6) as usize]
    });
    let xp = Array3::from_fn(domain, |i, j, k| {
        special[((i + j * 2 + k * 5) % 6) as usize]
    });
    let mut mx = Array3::zeros(domain);
    let mut mn = Array3::zeros(domain);
    apply_kind(
        StageKind::MinMax,
        domain,
        Boundary::Open,
        &[&x, &xp],
        &mut [&mut mx, &mut mn],
        domain,
    );
    let at =
        |a: &Array3, i: i64, j: i64, k: i64| a.get(i.clamp(0, 3), j.clamp(0, 2), k.clamp(0, 5));
    for (i, j, k) in domain.points() {
        let (mut hi, mut lo) = (f64::NEG_INFINITY, f64::INFINITY);
        for (di, dj, dk) in [
            (0, 0, 0),
            (-1, 0, 0),
            (1, 0, 0),
            (0, -1, 0),
            (0, 1, 0),
            (0, 0, -1),
            (0, 0, 1),
        ] {
            for a in [&x, &xp] {
                hi = hi.max(at(a, i + di, j + dj, k + dk));
                lo = lo.min(at(a, i + di, j + dj, k + dk));
            }
        }
        // `f64::max` may return either zero of an equal pair.
        let same = |a: f64, b: f64| a.to_bits() == b.to_bits() || (a == 0.0 && b == 0.0);
        assert!(same(mx.get(i, j, k), hi), "max at ({i},{j},{k})");
        assert!(same(mn.get(i, j, k), lo), "min at ({i},{j},{k})");
    }
}
