//! The numerics of the 17 MPDATA stages, and the one declaration of
//! their stencils.
//!
//! Each stage kind is written once, as a list of reads — its [`Tap`]s:
//! which input slot at which offset from the output cell, listed by
//! [`StageKind::taps`] — and one per-cell expression over the values
//! read. [`crate::kernels_fast::Sweep`] walks a region with the taps —
//! row slices on the `k`-interior, single cells at the `k`-ends — so
//! [`apply_kind`] (rows) and [`apply_kind_scalar`] (single cells
//! everywhere) cannot drift apart. The taps are also the stage graph's
//! stencil declaration: [`crate::MpdataProblem::with_iord`] builds each
//! input's [`stencil_engine::StencilPattern`] from the offsets tapped
//! at its slot, so no offset is written anywhere else. What remains to
//! prove is that the traversal reads exactly the taps: the
//! `islands-analysis` conformance pass records every access, and the
//! `kernel_patterns_are_sound` test below perturbs inputs outside the
//! pattern and asserts the output is unaffected.
//!
//! Boundary handling: reads resolve into the domain box through
//! [`Boundary::resolve`] — clamped (zero-gradient extension) or
//! wrapped. Combined with [`crate::fields::MpdataFields::close_boundaries`]
//! clamping makes the scheme exactly conservative in a closed box, and —
//! crucially for the reproduction — makes every execution strategy
//! (reference, original, (3+1)D, islands) produce **bitwise identical**
//! results, because a redundantly recomputed cell always sees exactly
//! the same operands.

use crate::fields::EPS;
use crate::graph::StageKind;
use crate::kernels_fast::{Sweep, Tap};
use stencil_engine::{Array3, Range1, Region3};

/// How reads beyond the domain box resolve.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum Boundary {
    /// Zero-gradient extension: out-of-domain indices are projected onto
    /// the nearest face (the paper's setting; all executors support it).
    #[default]
    Open,
    /// Periodic wrap-around. Supported by the reference and original
    /// executors; the cache-blocked executors reject it because the
    /// box-shaped requirement analysis cannot express wrap dependencies.
    Periodic,
}

impl Boundary {
    /// Index `i` along one axis resolved into the domain's range `r`:
    /// projected onto the nearest face ([`Boundary::Open`]) or wrapped
    /// ([`Boundary::Periodic`]). The one boundary rule: every kernel
    /// read, the cache study's address stream and the conformance
    /// checker's expected cells resolve through it.
    #[inline(always)]
    pub fn resolve(self, r: Range1, i: i64) -> i64 {
        match self {
            Boundary::Open => i.clamp(r.lo, r.hi - 1),
            Boundary::Periodic => r.lo + (i - r.lo).rem_euclid(r.len() as i64),
        }
    }
}

/// Applies a kernel of the given [`StageKind`] over `region`: row
/// slices wherever the stencil stays inside the domain along `k`, with
/// neighbour rows clamped ([`Boundary::Open`]) or wrapped
/// ([`Boundary::Periodic`]) in `i` and `j`.
///
/// `inputs` and `outputs` must follow the field order declared by the
/// corresponding [`crate::graph::MpdataProblem`] stage.
///
/// # Panics
///
/// Panics if the number of inputs/outputs does not match the kind, or
/// (in debug builds) if an array does not cover an accessed cell.
pub fn apply_kind(
    kind: StageKind,
    domain: Region3,
    bc: Boundary,
    inputs: &[&Array3],
    outputs: &mut [&mut Array3],
    region: Region3,
) {
    let rows = true;
    stage(
        kind,
        &Sweep {
            domain,
            bc,
            inputs,
            region,
            rows,
        },
        outputs,
    );
}

/// The per-cell oracle: the same stage expressions as [`apply_kind`],
/// every operand of every cell read with [`Array3::get`] at its
/// boundary-resolved index. Many times slower; [`apply_kind`] is pinned
/// against it (bitwise), and downstream conformance checks and
/// benchmarks compare the two.
///
/// # Panics
///
/// Same conditions as [`apply_kind`].
pub fn apply_kind_scalar(
    kind: StageKind,
    domain: Region3,
    bc: Boundary,
    inputs: &[&Array3],
    outputs: &mut [&mut Array3],
    region: Region3,
) {
    let rows = false;
    stage(
        kind,
        &Sweep {
            domain,
            bc,
            inputs,
            region,
            rows,
        },
        outputs,
    );
}

/// Applies stage `stage` (0-based) of the *17-stage* graph over
/// `region` — the index-based convenience wrapper around
/// [`apply_kind`].
///
/// # Panics
///
/// Panics if `stage >= 17`, if the number of inputs/outputs does not
/// match the stage, or (in debug builds) if an array does not cover an
/// accessed cell.
pub fn apply_stage(
    stage: usize,
    domain: Region3,
    inputs: &[&Array3],
    outputs: &mut [&mut Array3],
    region: Region3,
) {
    assert!(
        stage < crate::graph::STAGE_COUNT,
        "MPDATA has 17 stages; stage {stage} does not exist"
    );
    apply_kind(
        crate::graph::STANDARD_KINDS[stage],
        domain,
        Boundary::Open,
        inputs,
        outputs,
        region,
    );
}

type Off = (i64, i64, i64);
const O: Off = (0, 0, 0);
const I: Off = (1, 0, 0);
const J: Off = (0, 1, 0);
const K: Off = (0, 0, 1);

const fn add(a: Off, b: Off) -> Off {
    (a.0 + b.0, a.1 + b.1, a.2 + b.2)
}

const fn neg(a: Off) -> Off {
    (-a.0, -a.1, -a.2)
}

impl StageKind {
    /// The reads of this kind's kernel, in the order its expression
    /// takes them: `(input slot, (di, dj, dk))`. The only place a
    /// stage's offsets are written — the kernels sweep these taps, and
    /// the stage graph declares, per input slot, the offsets tapped at
    /// it.
    pub(crate) fn taps(self) -> &'static [Tap] {
        match self {
            StageKind::FluxI => &const { flux_taps(I) },
            StageKind::FluxJ => &const { flux_taps(J) },
            StageKind::FluxK => &const { flux_taps(K) },
            StageKind::Update => &UPDATE_TAPS,
            StageKind::AntidiffI => &const { antidiff_taps(I, J, K) },
            StageKind::AntidiffJ => &const { antidiff_taps(J, I, K) },
            StageKind::AntidiffK => &const { antidiff_taps(K, I, J) },
            StageKind::MinMax => &MINMAX_TAPS,
            StageKind::BetaUp | StageKind::BetaDn => &BETA_TAPS,
            StageKind::LimFluxI => &const { lim_flux_taps(I) },
            StageKind::LimFluxJ => &const { lim_flux_taps(J) },
            StageKind::LimFluxK => &const { lim_flux_taps(K) },
        }
    }
}

/// Every stage kind's expression over its [`StageKind::taps`].
fn stage(kind: StageKind, s: &Sweep, out: &mut [&mut Array3]) {
    let taps = kind.taps();
    match kind {
        StageKind::FluxI | StageKind::FluxJ | StageKind::FluxK => flux(s, taps, out),
        StageKind::Update => update(s, taps, out),
        StageKind::AntidiffI | StageKind::AntidiffJ | StageKind::AntidiffK => {
            antidiff(s, taps, out)
        }
        StageKind::MinMax => minmax(s, taps, out),
        StageKind::BetaUp => beta(s, taps, out, true),
        StageKind::BetaDn => beta(s, taps, out, false),
        StageKind::LimFluxI | StageKind::LimFluxJ | StageKind::LimFluxK => lim_flux(s, taps, out),
    }
}

/// `max(acc, v)` as a select: one `maxpd`, where `f64::max` costs a
/// NaN-aware sequence. A NaN `v` compares false and is never selected,
/// and `acc` starts non-NaN, so a chain of these returns what the
/// `acc.max(v)` chain returns for every input.
#[inline(always)]
fn sel_max(acc: f64, v: f64) -> f64 {
    if v > acc {
        v
    } else {
        acc
    }
}

/// `min(acc, v)` as a select; see [`sel_max`].
#[inline(always)]
fn sel_min(acc: f64, v: f64) -> f64 {
    if v < acc {
        v
    } else {
        acc
    }
}

/// Donor-cell (upwind) flux through a face with Courant number `u`,
/// upstream value `xl`, downstream value `xr`.
#[inline(always)]
fn donor(xl: f64, xr: f64, u: f64) -> f64 {
    u.max(0.0) * xl + u.min(0.0) * xr
}

/// Stages 1–3 and 9–11: donor-cell flux through the low face along
/// axis `m`. `inputs = [scalar, velocity]`, `outputs = [flux]`.
const fn flux_taps(m: Off) -> [Tap; 3] {
    [(0, neg(m)), (0, O), (1, O)]
}

/// [`flux_taps`]' expression. 5 flops.
fn flux(s: &Sweep, taps: &[Tap], out: &mut [&mut Array3]) {
    s.run(taps, out, |[xl, xr, u]| [donor(xl, xr, u)]);
}

/// Stage 4: first-order update ψ* = ψ − div(F)/h.
/// `inputs = [x, f1, f2, f3, h]`, `outputs = [xp]`.
#[rustfmt::skip]
const UPDATE_TAPS: [Tap; 8] = [(0, O), (1, O), (1, I), (2, O), (2, J), (3, O), (3, K), (4, O)];

/// [`UPDATE_TAPS`]' expression. 7 flops.
fn update(s: &Sweep, taps: &[Tap], out: &mut [&mut Array3]) {
    s.run(taps, out, |[x, f1a, f1b, f2a, f2b, f3a, f3b, h]| {
        let div = (f1b - f1a) + (f2b - f2a) + (f3b - f3a);
        [x - div / h]
    });
}

/// Stages 5–7: antidiffusive pseudo-velocity through the low face along
/// `m` (Smolarkiewicz's second-order correction with the two cross
/// terms along `p` and `q`). `inputs = [xp, u_m, u_p, u_q, h]`,
/// `outputs = [v_m]`.
#[rustfmt::skip]
const fn antidiff_taps(m: Off, p: Off, q: Off) -> [Tap; 21] {
    // `c` = this cell, `l` = the cell below the face.
    let l = neg(m);
    [
        (0, O), (0, l),
        (0, p), (0, add(l, p)), (0, neg(p)), (0, add(l, neg(p))),
        (0, q), (0, add(l, q)), (0, neg(q)), (0, add(l, neg(q))),
        (1, O),
        (2, O), (2, l), (2, p), (2, add(l, p)),
        (3, O), (3, l), (3, q), (3, add(l, q)),
        (4, O), (4, l),
    ]
}

/// [`antidiff_taps`]' expression. 36 flops.
fn antidiff(s: &Sweep, taps: &[Tap], out: &mut [&mut Array3]) {
    s.run(taps, out, |v: [f64; 21]| {
        let (xc, xl) = (v[0], v[1]);
        let a = (xc - xl) / (xc + xl + EPS);
        // Cross-derivative terms along p and q.
        let (xpp, xpm) = (v[2] + v[3], v[4] + v[5]);
        let b_p = 0.5 * (xpp - xpm) / (xpp + xpm + EPS);
        let (xqp, xqm) = (v[6] + v[7], v[8] + v[9]);
        let b_q = 0.5 * (xqp - xqm) / (xqp + xqm + EPS);
        let u = v[10];
        // Cross velocities and density averaged to this face.
        let up_bar = 0.25 * (v[11] + v[12] + v[13] + v[14]);
        let uq_bar = 0.25 * (v[15] + v[16] + v[17] + v[18]);
        let hbar = 0.5 * (v[19] + v[20]);
        [u.abs() * (1.0 - u.abs() / hbar) * a - u * (up_bar * b_p + uq_bar * b_q) / hbar]
    });
}

/// Stage 8: local extrema over ψ and ψ* (7-point neighbourhoods, the
/// two inputs interleaved). `inputs = [x, xp]`, `outputs = [mx, mn]`.
#[rustfmt::skip]
const MINMAX_TAPS: [Tap; 14] = [
    (0, O), (1, O), (0, neg(I)), (1, neg(I)), (0, I), (1, I),
    (0, neg(J)), (1, neg(J)), (0, J), (1, J), (0, neg(K)), (1, neg(K)), (0, K), (1, K),
];

/// [`MINMAX_TAPS`]' expression. 26 flops.
fn minmax(s: &Sweep, taps: &[Tap], out: &mut [&mut Array3]) {
    s.run(taps, out, |v: [f64; 14]| {
        let (mut hi, mut lo) = (f64::NEG_INFINITY, f64::INFINITY);
        for c in v {
            hi = sel_max(hi, c);
            lo = sel_min(lo, c);
        }
        [hi, lo]
    });
}

/// Stages 12–13: the non-oscillatory β limiters (`up` = β↑).
/// `inputs = [extreme(mx|mn), xp, g1, g2, g3, h]`, `outputs = [bu|bd]`.
#[rustfmt::skip]
const BETA_TAPS: [Tap; 9] = [(0, O), (1, O), (2, O), (2, I), (3, O), (3, J), (4, O), (4, K), (5, O)];

/// [`BETA_TAPS`]' expression. 15 flops.
fn beta(s: &Sweep, taps: &[Tap], out: &mut [&mut Array3], up: bool) {
    s.run(taps, out, |[ext, xp, g1a, g1b, g2a, g2b, g3a, g3b, h]| {
        let (num, den) = if up {
            // Inflow: positive parts of low-face fluxes minus negative
            // parts of high-face fluxes.
            let inflow = g1a.max(0.0) - g1b.min(0.0) + g2a.max(0.0) - g2b.min(0.0) + g3a.max(0.0)
                - g3b.min(0.0);
            (ext - xp, inflow)
        } else {
            let outflow = g1b.max(0.0) - g1a.min(0.0) + g2b.max(0.0) - g2a.min(0.0) + g3b.max(0.0)
                - g3a.min(0.0);
            (xp - ext, outflow)
        };
        [num * h / (den + EPS)]
    });
}

/// Stages 14–16: monotone limiting of the pseudo flux along `m`:
/// `min(1, bd[-m], bu) · g⁺ + min(1, bu[-m], bd) · g⁻`.
/// `inputs = [g, bu, bd]`, `outputs = [f_limited]`.
const fn lim_flux_taps(m: Off) -> [Tap; 5] {
    [(0, O), (2, neg(m)), (1, O), (1, neg(m)), (2, O)]
}

/// [`lim_flux_taps`]' expression. 9 flops.
fn lim_flux(s: &Sweep, taps: &[Tap], out: &mut [&mut Array3]) {
    s.run(taps, out, |[g, bd_l, bu, bu_l, bd]| {
        // A positive flux leaves the low cell and enters this one.
        let cp = sel_min(sel_min(1.0, bd_l), bu);
        let cn = sel_min(sel_min(1.0, bu_l), bd);
        [cp * g.max(0.0) + cn * g.min(0.0)]
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::mpdata_graph;
    use crate::kernels_fast::{each_body, row_body};
    use stencil_engine::FieldRole;

    /// How the arrays of one `fast_paths_bitwise_equal` case are laid
    /// out around the domain: what decides whether rows chain into runs.
    #[derive(Clone, Copy, Debug)]
    enum Layout {
        /// Every array covers exactly the domain: interior rows chain.
        Exact,
        /// Same `k`-range, a different `j` base and margin per slot:
        /// rows still chain (one pitch), from different row offsets.
        JMargins,
        /// Odd input slots carry a `k`-halo (the shape of an island's
        /// enlarged sub-domain): two pitches, so every row is a run of
        /// its own.
        KHalo,
        /// The same with the halo on the outputs alone.
        KHaloOut,
        /// A larger allocation rebased onto the domain (tile scratch).
        Rebased,
        /// Two-plane sliding windows (wavefront scratch): planes alias.
        Windowed,
    }

    impl Layout {
        /// The array of input (or output) slot `n`, holding `v(i, j, k)`
        /// wherever it answers.
        fn array(
            self,
            domain: Region3,
            n: usize,
            output: bool,
            v: impl Fn(i64, i64, i64) -> f64,
        ) -> Array3 {
            let n = n as i64;
            let (dj, dk) = (domain.j, domain.k);
            let mut a = match self {
                Layout::Exact => Array3::zeros(domain),
                Layout::JMargins => {
                    let j = Range1::new(dj.lo - n % 3, dj.hi + (n + 1) % 2);
                    Array3::zeros(Region3::new(domain.i, j, dk))
                }
                Layout::KHalo | Layout::KHaloOut => {
                    let halo = i64::from(
                        output == matches!(self, Layout::KHaloOut) && (output || n % 2 == 1),
                    );
                    let k = Range1::new(dk.lo - halo, dk.hi + 2 * halo);
                    Array3::zeros(Region3::new(domain.i, dj, k))
                }
                Layout::Rebased => {
                    let big = Range1::new(dj.lo - 1, dj.hi + 2);
                    let mut a = Array3::zeros(Region3::new(domain.i, big, dk));
                    a.rebase(domain);
                    a
                }
                Layout::Windowed => Array3::windowed(domain, 2),
            };
            for (i, j, k) in a.region().points() {
                a.set(i, j, k, v(i, j, k));
            }
            a
        }
    }

    /// `apply_kind` ≡ `apply_kind_scalar`, bitwise, for every kind under
    /// both boundaries and through every vector body the CPU can run:
    /// regions touching each face, edge and corner of the domain (incl.
    /// 1-long rows and sub-`k` windows), on an irregular (non-origin)
    /// domain, on 1-cell / prime extents, on a paper-shaped windowed
    /// plane swept whole (one 254-row run of 64-cell rows) and — under
    /// every array [`Layout`] — on domains with three or more interior
    /// rows of 1, 2, 3 and 16 cells, where runs form. Cells outside the
    /// region stay untouched.
    #[test]
    fn fast_paths_bitwise_equal() {
        use crate::graph::MpdataProblem;
        type Kernel = fn(StageKind, Region3, Boundary, &[&Array3], &mut [&mut Array3], Region3);
        let irregular = Region3::new(Range1::new(3, 14), Range1::new(-2, 7), Range1::new(5, 18));
        let shifted = |ni: i64, nj: i64, nk: i64| {
            Region3::new(
                Range1::new(-1, ni - 1),
                Range1::new(2, nj + 2),
                Range1::new(1, nk + 1),
            )
        };
        let exact = [(1, 1, 1), (1, 7, 3), (2, 2, 2), (5, 3, 7)]
            .map(|(ni, nj, nk)| (Region3::of_extent(ni, nj, nk), Layout::Exact))
            .into_iter()
            .chain([(irregular, Layout::Exact)]);
        let layouts = [
            Layout::Exact,
            Layout::JMargins,
            Layout::KHalo,
            Layout::KHaloOut,
            Layout::Rebased,
            Layout::Windowed,
        ];
        let chained = [(3, 5, 1), (3, 6, 2), (4, 5, 3), (3, 7, 16)]
            .into_iter()
            .flat_map(|(ni, nj, nk)| layouts.map(|l| (shifted(ni, nj, nk), l)));
        let paper = (Region3::of_extent(1, 256, 64), Layout::Windowed);
        let p = MpdataProblem::standard();
        for (domain, layout) in exact.chain(chained).chain([paper]) {
            // Per axis: everything, the low cell, the high cell, the interior.
            let cuts = |r: Range1| {
                let ends = [Range1::new(r.lo, r.lo + 1), Range1::new(r.hi - 1, r.hi)];
                [r, ends[0], ends[1], Range1::new(r.lo + 1, r.hi - 1)]
            };
            let mut regions = Vec::new();
            for ri in cuts(domain.i) {
                for rj in cuts(domain.j) {
                    regions.extend(cuts(domain.k).map(|rk| Region3::new(ri, rj, rk)));
                }
            }
            regions.retain(|r| !r.is_empty());
            if domain == paper.0 {
                // The plane whole, as a wavefront block sweeps it.
                regions = vec![domain];
            }
            for st in p.graph().stages() {
                let kind = p.kind(st.id);
                let ins: Vec<Array3> = (0..st.inputs.len())
                    .map(|n| {
                        layout.array(domain, n, false, |i, j, k| {
                            0.7 + 0.013 * n as f64 + 0.001 * ((i * 37 + j * 11 + k * 3) % 97) as f64
                                - 0.0005 * ((i + 2 * j + 3 * k) % 13) as f64
                                - 0.75 * (n % 2) as f64
                        })
                    })
                    .collect();
                let ins: Vec<&Array3> = ins.iter().collect();
                for bc in [Boundary::Open, Boundary::Periodic] {
                    for &region in &regions {
                        let run = |f: Kernel| {
                            let mut out: Vec<Array3> = (0..st.outputs.len())
                                .map(|n| layout.array(domain, n, true, |_, _, _| -9.0))
                                .collect();
                            let mut refs: Vec<&mut Array3> = out.iter_mut().collect();
                            f(kind, domain, bc, &ins, &mut refs, region);
                            let bits = out.iter().flat_map(|a| a.as_slice());
                            bits.map(|v| v.to_bits()).collect::<Vec<_>>()
                        };
                        let oracle = run(apply_kind_scalar);
                        each_body("fast_paths_bitwise_equal", |isa| {
                            assert!(
                                run(apply_kind) == oracle,
                                "{kind:?} ({}) {bc:?} diverged on {region:?} of {domain:?}, \
                                 {layout:?}, {isa} body",
                                st.name
                            );
                        });
                    }
                }
            }
        }
    }

    /// The select-form chains return what the `f64::max`/`f64::min`
    /// chains return for NaN, ±∞ and ±0 candidates in any position
    /// (`f64::max` may pick either zero of an equal pair, so zeros
    /// compare by value) — one cell at a time and as lanes of every
    /// vector body the CPU can run.
    #[test]
    fn select_chains_match_f64_min_max() {
        let c = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            0.25,
            1.0,
            -3.5,
            7.0,
        ];
        let same = |a: f64, b: f64| a.to_bits() == b.to_bits() || (a == 0.0 && b == 0.0);
        let cases: Vec<[f64; 3]> = c
            .iter()
            .flat_map(|&x| c.iter().flat_map(move |&y| c.map(|z| [x, y, z])))
            .collect();
        let chains = |v: [f64; 3]| {
            let hi = v.iter().fold(f64::NEG_INFINITY, |acc, &v| sel_max(acc, v));
            [hi, v.iter().fold(f64::INFINITY, |acc, &v| sel_min(acc, v))]
        };
        let lim = |v: [f64; 3]| [sel_min(sel_min(1.0, v[0]), v[1])];
        let check = |how: &str, v: [f64; 3], [hi, lo, l]: [f64; 3]| {
            let std = v.iter().fold(f64::NEG_INFINITY, |acc, &v| acc.max(v));
            assert!(same(hi, std), "{how}: max chain over {v:?}: {hi} vs {std}");
            let std = v.iter().fold(f64::INFINITY, |acc, &v| acc.min(v));
            assert!(same(lo, std), "{how}: min chain over {v:?}: {lo} vs {std}");
            let std = 1.0_f64.min(v[0]).min(v[1]);
            assert!(same(l, std), "{how}: min(1, ..) over {v:?}: {l} vs {std}");
        };
        for &v in &cases {
            let v = std::hint::black_box(v);
            let ([hi, lo], [l]) = (chains(v), lim(v));
            check("one cell", v, [hi, lo, l]);
        }
        let cols: [Vec<f64>; 3] = std::array::from_fn(|t| cases.iter().map(|v| v[t]).collect());
        let src = [&cols[0][..], &cols[1][..], &cols[2][..]];
        each_body("select_chains_match_f64_min_max", |isa| {
            let n = cases.len();
            let (mut hi, mut lo, mut l) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
            row_body(&src, &[0; 3], &mut hi, &mut lo, &chains);
            row_body(&src, &[0; 3], &mut l, &mut [], &lim);
            for (n, &v) in cases.iter().enumerate() {
                check(&format!("{isa} body"), v, [hi[n], lo[n], l[n]]);
            }
        });
    }

    #[test]
    fn donor_cell_upwinds() {
        assert_eq!(donor(2.0, 5.0, 0.5), 1.0);
        assert_eq!(donor(2.0, 5.0, -0.5), -2.5);
        assert_eq!(donor(2.0, 5.0, 0.0), 0.0);
    }

    #[test]
    fn open_reads_project_to_faces_and_periodic_reads_wrap() {
        let r = Range1::new(2, 5);
        assert_eq!(
            [-5, 2, 4, 9].map(|i| Boundary::Open.resolve(r, i)),
            [2, 2, 4, 4]
        );
        assert_eq!(
            [1, 5, -2, 3].map(|i| Boundary::Periodic.resolve(r, i)),
            [4, 2, 4, 3]
        );
    }

    #[test]
    fn flux_stage_writes_exact_region() {
        let d = Region3::of_extent(6, 4, 4);
        let x = Array3::filled(d, 3.0);
        let u = Array3::filled(d, 0.5);
        let mut f = Array3::filled(d, -1.0);
        let region = Region3::new(Range1::new(2, 4), d.j, d.k);
        apply_stage(0, d, &[&x, &u], &mut [&mut f], region);
        assert_eq!(f.get(2, 0, 0), 1.5);
        assert_eq!(f.get(3, 3, 3), 1.5);
        assert_eq!(f.get(1, 0, 0), -1.0, "outside region untouched");
        assert_eq!(f.get(4, 0, 0), -1.0);
    }

    #[test]
    fn constant_field_is_fixed_point_of_low_order() {
        // With uniform x and divergence-free u (uniform here), ψ* = ψ.
        let d = Region3::of_extent(5, 5, 5);
        let x = Array3::filled(d, 4.0);
        let u = Array3::filled(d, 0.3);
        let h = Array3::filled(d, 1.0);
        let mut f1 = Array3::zeros(d);
        let mut f2 = Array3::zeros(d);
        let mut f3 = Array3::zeros(d);
        apply_stage(0, d, &[&x, &u], &mut [&mut f1], d);
        apply_stage(1, d, &[&x, &u], &mut [&mut f2], d);
        apply_stage(2, d, &[&x, &u], &mut [&mut f3], d);
        let mut xp = Array3::zeros(d);
        apply_stage(3, d, &[&x, &f1, &f2, &f3, &h], &mut [&mut xp], d);
        // Interior cells: flux divergence of a constant field is zero.
        assert_eq!(xp.get(2, 2, 2), 4.0);
    }

    #[test]
    fn antidiff_vanishes_for_constant_field() {
        let d = Region3::of_extent(5, 5, 5);
        let xp = Array3::filled(d, 2.0);
        let u = Array3::filled(d, 0.4);
        let h = Array3::filled(d, 1.0);
        let mut v = Array3::filled(d, 9.0);
        apply_stage(4, d, &[&xp, &u, &u, &u, &h], &mut [&mut v], d);
        // A and B terms vanish ⇒ v = 0 everywhere.
        for (_, _, _, val) in v.iter_indexed() {
            assert!(val.abs() < 1e-12);
        }
    }

    #[test]
    fn minmax_brackets_the_field() {
        let d = Region3::of_extent(4, 4, 4);
        let x = Array3::from_fn(d, |i, j, k| (i + j + k) as f64);
        let xp = Array3::from_fn(d, |i, j, k| (i * j * k) as f64);
        let mut mx = Array3::zeros(d);
        let mut mn = Array3::zeros(d);
        apply_stage(7, d, &[&x, &xp], &mut [&mut mx, &mut mn], d);
        for (i, j, k) in d.points() {
            assert!(mx.get(i, j, k) >= x.get(i, j, k).max(xp.get(i, j, k)));
            assert!(mn.get(i, j, k) <= x.get(i, j, k).min(xp.get(i, j, k)));
        }
    }

    #[test]
    fn beta_is_nonnegative_for_bracketed_xp() {
        let d = Region3::of_extent(4, 4, 4);
        let xp = Array3::filled(d, 1.0);
        let mx = Array3::filled(d, 2.0);
        let g = Array3::filled(d, 0.1);
        let h = Array3::filled(d, 1.0);
        let mut bu = Array3::zeros(d);
        apply_stage(11, d, &[&mx, &xp, &g, &g, &g, &h], &mut [&mut bu], d);
        for (_, _, _, v) in bu.iter_indexed() {
            assert!(v >= 0.0);
        }
    }

    #[test]
    fn lim_flux_clamps_but_preserves_sign() {
        let d = Region3::of_extent(4, 1, 1);
        let g = Array3::from_fn(d, |i, _, _| if i % 2 == 0 { 0.5 } else { -0.5 });
        let big = Array3::filled(d, 5.0); // β ≥ 1 ⇒ no limiting
        let mut f = Array3::zeros(d);
        apply_stage(13, d, &[&g, &big, &big], &mut [&mut f], d);
        assert_eq!(f.max_abs_diff(&g), 0.0);
        let zero = Array3::filled(d, 0.0); // β = 0 ⇒ flux fully limited
        let mut f2 = Array3::zeros(d);
        apply_stage(13, d, &[&g, &zero, &zero], &mut [&mut f2], d);
        assert_eq!(f2.sum(), 0.0);
    }

    #[test]
    #[should_panic]
    fn out_of_range_stage_panics() {
        let d = Region3::of_extent(2, 2, 2);
        let a = Array3::zeros(d);
        let mut o = Array3::zeros(d);
        apply_stage(17, d, &[&a], &mut [&mut o], d);
    }

    /// The declared patterns in the graph are sound: perturbing an input
    /// cell *outside* the declared pattern of a stage never changes the
    /// kernel's output at the probe cell. (Completeness — that every
    /// declared offset is actually read — is deliberately not required:
    /// a pattern may over-approximate.)
    #[test]
    fn kernel_patterns_are_sound() {
        let (g, _) = mpdata_graph();
        let d = Region3::of_extent(7, 7, 7);
        let probe = (3, 3, 3);
        let probe_region = Region3::new(Range1::new(3, 4), Range1::new(3, 4), Range1::new(3, 4));
        for st in g.stages() {
            let n_in = st.inputs.len();
            // Baseline arrays: smooth positive values, all distinct.
            let base: Vec<Array3> = (0..n_in)
                .map(|n| {
                    Array3::from_fn(d, |i, j, k| {
                        1.5 + 0.01 * (n as f64) + 0.003 * (i * 49 + j * 7 + k) as f64
                    })
                })
                .collect();
            let run = |inputs: &[Array3]| -> Vec<f64> {
                let refs: Vec<&Array3> = inputs.iter().collect();
                let mut outs: Vec<Array3> = st.outputs.iter().map(|_| Array3::zeros(d)).collect();
                {
                    let mut out_refs: Vec<&mut Array3> = outs.iter_mut().collect();
                    apply_stage(st.id.index(), d, &refs, &mut out_refs, probe_region);
                }
                outs.iter()
                    .map(|o| o.get(probe.0, probe.1, probe.2))
                    .collect()
            };
            let baseline = run(&base);
            for (slot, (_, pattern)) in st.inputs.iter().enumerate() {
                // Perturb each offset in a ring around the probe that is
                // NOT in the declared pattern (and also not reachable by
                // another declared read of the same field in this stage —
                // pattern_for unions duplicates).
                let full = st
                    .inputs
                    .iter()
                    .filter(|(f2, _)| *f2 == st.inputs[slot].0)
                    .fold(pattern.clone(), |acc, (_, p)| acc.union(p));
                for di in -2..=2_i64 {
                    for dj in -2..=2_i64 {
                        for dk in -2..=2_i64 {
                            if full.contains(stencil_engine::Offset3::new(di, dj, dk)) {
                                continue;
                            }
                            let mut tweaked = base.clone();
                            // Perturb every slot bound to the same field.
                            for (s2, (f2, _)) in st.inputs.iter().enumerate() {
                                if *f2 == st.inputs[slot].0 {
                                    let old =
                                        tweaked[s2].get(probe.0 + di, probe.1 + dj, probe.2 + dk);
                                    tweaked[s2].set(
                                        probe.0 + di,
                                        probe.1 + dj,
                                        probe.2 + dk,
                                        old + 7.0,
                                    );
                                }
                            }
                            let out = run(&tweaked);
                            assert_eq!(
                                baseline, out,
                                "stage {} ({}) reads undeclared offset ({di},{dj},{dk}) of input {}",
                                st.id.index(),
                                st.name,
                                slot
                            );
                        }
                    }
                }
            }
        }
        // Sanity: the graph must know its externals.
        assert_eq!(g.fields().with_role(FieldRole::External).len(), 5);
    }
}
