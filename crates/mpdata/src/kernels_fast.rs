//! The one traversal every stage kernel runs through.
//!
//! A stage is a list of [`Tap`]s — which input is read at which offset
//! from the output cell — plus one per-cell expression over the tapped
//! values ([`crate::kernels`]). [`Sweep::run`] walks a region plane by
//! plane, and each plane *run* by run (`k` is the contiguous axis, `j`
//! the next):
//!
//! * every tap's neighbour row `(i + di, j + dj)` is resolved through
//!   [`Boundary::resolve`] — clamped for [`Boundary::Open`], wrapped
//!   for [`Boundary::Periodic`] — so domain faces in `i` and `j` cost
//!   nothing extra; the neighbour *plane* is borrowed once per `i`
//!   ([`Array3::plane`]), which is where a windowed scratch array pays
//!   for its slot lookup;
//! * a run is a maximal set of consecutive rows that are one slice in
//!   every array: no tap's neighbour row is clamped or wrapped there
//!   (it is exactly `j + dj`), and every tapped input and every output
//!   stores exactly the region's `k`-range, so consecutive rows follow
//!   each other at one common pitch. Any other row — at a `j`-face of
//!   the domain, of a `K`-cut or sub-`k` region, of an array with a
//!   `k`-halo — is a run of one row;
//! * every output is borrowed once per run as the run's whole rows
//!   ([`Array3::run_mut`]); on the `k`-window where no tap leaves the
//!   domain the expression runs once per run over shifted slices
//!   ([`Plane::run`]) into the window of those rows, a branch-free loop
//!   the auto-vectoriser handles. Between the windows of two rows of a
//!   run lie their `k`-end cells: there the loop reads a cell of the
//!   adjacent row where the boundary policy names another, and stores a
//!   value nobody uses —
//! * because the at most two `k`-end cells of every row are then
//!   evaluated by the *same* expression on operands read at the clamped
//!   or wrapped `k` index, and stored over it by index into the output
//!   rows. Each tap's operand of one end comes from one slice stepped
//!   by the row pitch: a sub-slice of the tap's own window run where
//!   the resolved `k` lies inside it, else — a Periodic wrap, a 1- or
//!   2-cell row — a run of its own from the resolved cell, which the
//!   debug access recorder logs as one cell per row, as it would the
//!   single reads it stands for.
//!
//! With `rows` off every cell evaluates the expression on operands
//! read through [`Array3::get`]: that is [`crate::apply_kind_scalar`],
//! the per-cell oracle. Both forms hand the expression exactly the
//! cells the boundary policy resolves for every value that survives,
//! and share the arithmetic, so they agree bitwise by construction.
//!
//! The loop over a run ([`row_body`]) is compiled twice: for the
//! target's baseline (SSE2 on x86-64, two `f64` lanes) and, on x86-64,
//! with AVX2 enabled (four lanes). Each call takes the AVX2 instance
//! when the CPU reports the feature; nothing else selects it — no
//! option, cargo feature or build flag — so one binary runs everywhere
//! and [`kernel_isa`] names the instance in use. The two stay bitwise
//! equal to each other and to the oracle: Rust never contracts
//! `a * b + c` into a fused multiply-add (`fma` is not enabled), so
//! every lane runs the same IEEE-754 add, mul, div, abs and max/min
//! select on the same operands. The loop's operand gathers are plain
//! index loops, because `array::from_fn` is not inlined into a
//! `#[target_feature]` function and would cost a call per cell.

use crate::kernels::Boundary;
use std::array::from_fn;
use stencil_engine::{Array3, Plane, Range1, Region3};

/// One read of a stage: `(input slot, (di, dj, dk))`, each offset in
/// `-1..=1` ([`crate::graph::StageKind::taps`]).
pub(crate) type Tap = (usize, (i64, i64, i64));

/// One kernel invocation: where to compute and how reads resolve.
pub(crate) struct Sweep<'a> {
    pub domain: Region3,
    pub bc: Boundary,
    pub inputs: &'a [&'a Array3],
    pub region: Region3,
    /// Row slices on the `k`-interior (production) or single cells
    /// everywhere (oracle).
    pub rows: bool,
}

impl Sweep<'_> {
    /// Writes `f(tapped values)` to the `M <= 2` outputs over the region.
    ///
    /// # Panics
    ///
    /// Panics if `f` does not take one operand per tap, or if the
    /// input/output counts do not match the taps and `M`.
    pub(crate) fn run<const N: usize, const M: usize>(
        &self,
        taps: &[Tap],
        outputs: &mut [&mut Array3],
        f: impl Fn([f64; N]) -> [f64; M],
    ) {
        let taps: [Tap; N] = taps.try_into().expect("one operand per tap");
        let slots = taps.iter().map(|t| t.0 + 1).max().unwrap_or(0);
        assert_eq!(self.inputs.len(), slots, "stage takes {slots} inputs");
        assert_eq!(outputs.len(), M, "stage writes {M} outputs");
        assert!(M == 1 || M == 2, "row_body carries two output rows");
        // Runs assume at most one k-end cell per side: the region must
        // not leave the domain along k (no executor's does).
        if self.rows && self.domain.k.contains_range(self.region.k) {
            self.by_runs(taps, outputs, f);
        } else {
            self.by_cells(taps, outputs, f);
        }
    }

    /// Every cell on its own, every operand through [`Array3::get`].
    fn by_cells<const N: usize, const M: usize>(
        &self,
        taps: [Tap; N],
        outputs: &mut [&mut Array3],
        f: impl Fn([f64; N]) -> [f64; M],
    ) {
        let (d, bc) = (self.domain, self.bc);
        for (i, j, k) in self.region.points() {
            let mut v = [0.0; N];
            for (v, &(s, (di, dj, dk))) in v.iter_mut().zip(&taps) {
                let (ii, jj) = (bc.resolve(d.i, i + di), bc.resolve(d.j, j + dj));
                *v = self.inputs[s].get(ii, jj, bc.resolve(d.k, k + dk));
            }
            for (o, v) in outputs.iter_mut().zip(f(v)) {
                o.set(i, j, k, v);
            }
        }
    }

    /// One slice per run on the k-window, then the k-end cells of its
    /// rows, all by plain index: neither [`Array3::get`] nor
    /// [`Array3::set`] runs here.
    ///
    /// * Each output is borrowed once per run as the run's whole rows;
    ///   the vector body writes the `k`-window of that slice and the
    ///   end loop stores the k-end cells into it.
    /// * Each tap's operand for one k-end comes from one slice stepped
    ///   by `pitch` per row: a sub-slice of the tap's window run when
    ///   the resolved `k` lies inside the window, else (a Periodic
    ///   wrap, a 1- or 2-cell row) a [`Plane::run`] of its own from the
    ///   resolved cell.
    ///
    /// The debug access recorder therefore logs what the per-cell
    /// reads and writes did: a whole-row output run logs every cell of
    /// its rows once, a sub-slice of a window run logs nothing more, and
    /// a run of its own logs one cell per row. (Plain loops throughout:
    /// `array::map` of a large closure is not inlined and would cost a
    /// call per run.)
    fn by_runs<const N: usize, const M: usize>(
        &self,
        taps: [Tap; N],
        outputs: &mut [&mut Array3],
        f: impl Fn([f64; N]) -> [f64; M],
    ) {
        let (d, bc, rj, rk) = (self.domain, self.bc, self.region.j, self.region.k);
        // Per axis, how far the taps reach below and above the cell.
        let reach = |axis: fn(&Tap) -> i64| {
            let below = taps.iter().map(|t| -axis(t)).max().unwrap_or(0).max(0);
            let above = taps.iter().map(axis).max().unwrap_or(0).max(0);
            (below, above)
        };
        // The k-window [klo, khi) on which no tap leaves the domain, and
        // the k-end cells left over below and above it.
        let (below, above) = reach(|t| t.1 .2);
        let klo = (d.k.lo + below).clamp(rk.lo, rk.hi);
        let khi = (d.k.hi - above).clamp(klo, rk.hi);
        let ends = [
            (rk.lo < klo).then_some(rk.lo),
            (khi < rk.hi).then_some(rk.hi - 1),
        ];
        // The rows `chain` on which every tap's neighbour row is `j + dj`
        // itself form one run — if rows are `pitch` cells apart in every
        // array, i.e. each stores exactly `rk` (and there is a k-window
        // to sweep); else no rows chain.
        let (below, above) = reach(|t| t.1 .1);
        let jlo = (d.j.lo + below).clamp(rj.lo, rj.hi);
        let jhi = (d.j.hi - above).clamp(jlo, rj.hi);
        let pitch = rk.len();
        let arr: [&Array3; N] = from_fn(|t| self.inputs[taps[t].0]);
        let one_pitch = klo < khi
            && arr.iter().all(|a| a.region().k == rk)
            && outputs.iter().all(|o| o.region().k == rk);
        let chain = if one_pitch { jlo..jhi } else { jlo..jlo };
        // Run-invariant per tap: the in-domain part `win` of its shifted
        // row, read as one slice per run from `win.lo` on; where the
        // k-window starts in that slice; each k-end cell's resolved `k`.
        let mut win = [Range1::empty(); N];
        let mut skip = [0; N];
        let mut end_k = [[0; N]; 2];
        for (t, &(_, (_, _, dk))) in taps.iter().enumerate() {
            win[t] = Range1::new(rk.lo + dk, rk.hi + dk).intersect(d.k);
            skip[t] = (klo + dk - win[t].lo) as usize;
            for (e, k) in ends.iter().enumerate() {
                end_k[e][t] = k.map_or(0, |k| bc.resolve(d.k, k + dk));
            }
        }
        // Offsets reach one cell at most, so each axis resolves once per
        // neighbour: `[c - 1, c, c + 1]`, indexed by offset + 1.
        let near = |r, c| [bc.resolve(r, c - 1), bc.resolve(r, c), bc.resolve(r, c + 1)];
        let at: [[usize; 2]; N] =
            from_fn(|t| [(taps[t].1 .0 + 1) as usize, (taps[t].1 .1 + 1) as usize]);
        for i in self.region.i.lo..self.region.i.hi {
            let ni = near(d.i, i);
            // Each tap's neighbour plane, found once per `i`: a windowed
            // scratch array resolves its storage slot here, not per row.
            let plane: [Plane<'_>; N] = from_fn(|t| arr[t].plane(ni[at[t][0]]));
            let mut j = rj.lo;
            while j < rj.hi {
                let rows = if chain.contains(&j) {
                    (chain.end - j) as usize
                } else {
                    1
                };
                // The neighbour rows of the run's first row; row `r` of
                // a longer run has its own at `+ r` by construction.
                let nj = near(d.j, j);
                let mut src: [&[f64]; N] = [&[]; N];
                for t in 0..N {
                    if !win[t].is_empty() {
                        let len = (rows - 1) * pitch + win[t].len();
                        src[t] = plane[t].run(nj[at[t][1]], win[t].lo, len);
                    }
                }
                // Per k-end and tap, the slice whose cell `r * pitch` is
                // row `r`'s operand: a sub-slice of the tap's run where
                // the resolved `k` lies in `win`, else (a wrap, a 1- or
                // 2-cell row) a run of its own from the resolved cell.
                let mut end_src: [[&[f64]; N]; 2] = [[&[]; N]; 2];
                for e in (0..2).filter(|&e| ends[e].is_some()) {
                    for t in 0..N {
                        let kk = end_k[e][t];
                        end_src[e][t] = if win[t].contains(kk) {
                            &src[t][(kk - win[t].lo) as usize..]
                        } else {
                            plane[t].run(nj[at[t][1]], kk, (rows - 1) * pitch + 1)
                        };
                    }
                }
                // Each output once, as the run's whole rows.
                let len = (rows - 1) * pitch + rk.len();
                let (o0, rest) = outputs.split_first_mut().expect("M >= 1");
                let d0 = o0.run_mut(i, j, rk.lo, len);
                let d1 = rest
                    .first_mut()
                    .map_or(&mut [][..], |o| o.run_mut(i, j, rk.lo, len));
                if klo < khi {
                    let w = (klo - rk.lo) as usize..len - (rk.hi - khi) as usize;
                    let w1 = if M > 1 { &mut d1[w.clone()] } else { &mut [] };
                    row_body(&src, &skip, &mut d0[w], w1, &f);
                }
                for r in 0..rows {
                    for (e, k) in ends.iter().enumerate() {
                        let Some(k) = *k else { continue };
                        let mut v = [0.0; N];
                        for t in 0..N {
                            v[t] = end_src[e][t][r * pitch];
                        }
                        let v = f(v);
                        let cell = r * pitch + (k - rk.lo) as usize;
                        d0[cell] = v[0];
                        if M > 1 {
                            d1[cell] = v[1];
                        }
                    }
                }
                j += rows as i64;
            }
        }
    }
}

/// The vector body: `f` over `N` operand slices, each from its `skip`
/// on, written to `d0` (and `d1` when `M == 2`).
///
/// One loop ([`row_loop`]) compiled twice: for the x86-64 baseline
/// (SSE2, two lanes) and, on x86-64, for AVX2 (four lanes), picked per
/// call by the CPU's own report ([`avx2`]; std caches it, so a call
/// costs a load and a branch). Both instances are functions of their
/// own so the output slices are `noalias` arguments and the loop
/// vectorises without run-time overlap checks.
///
/// The two agree bitwise: Rust never contracts `a * b + c` into a
/// fused multiply-add (and `fma` is not enabled), so every lane of
/// either instance runs the same IEEE-754 add, mul, div, abs and
/// max/min select on the same operands as the scalar oracle does —
/// only how many cells share an instruction differs.
///
/// The loop gathers its operands with plain index loops: inside a
/// `#[target_feature]` function `array::from_fn` is not inlined and
/// would cost a call per cell (the AVX2 instance ran about four times
/// slower than the baseline with it).
#[inline]
pub(crate) fn row_body<const N: usize, const M: usize>(
    src: &[&[f64]; N],
    skip: &[usize; N],
    d0: &mut [f64],
    d1: &mut [f64],
    f: &impl Fn([f64; N]) -> [f64; M],
) {
    #[cfg(target_arch = "x86_64")]
    if avx2() {
        // SAFETY: the CPU reports AVX2 (`avx2` asked it), the one
        // requirement of calling a function built with that feature.
        return unsafe { row_body_avx2(src, skip, d0, d1, f) };
    }
    row_body_baseline(src, skip, d0, d1, f);
}

/// [`row_loop`] for the target's baseline (SSE2 on x86-64).
#[inline(never)]
fn row_body_baseline<const N: usize, const M: usize>(
    src: &[&[f64]; N],
    skip: &[usize; N],
    d0: &mut [f64],
    d1: &mut [f64],
    f: &impl Fn([f64; N]) -> [f64; M],
) {
    row_loop(src, skip, d0, d1, f);
}

/// [`row_loop`] with AVX2 enabled: four `f64` lanes per instruction.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline(never)]
fn row_body_avx2<const N: usize, const M: usize>(
    src: &[&[f64]; N],
    skip: &[usize; N],
    d0: &mut [f64],
    d1: &mut [f64],
    f: &impl Fn([f64; N]) -> [f64; M],
) {
    row_loop(src, skip, d0, d1, f);
}

/// The loop both [`row_body`] instances inline (gathers by index, not
/// `array::from_fn`: see there).
#[inline(always)]
fn row_loop<const N: usize, const M: usize>(
    src: &[&[f64]; N],
    skip: &[usize; N],
    d0: &mut [f64],
    d1: &mut [f64],
    f: &impl Fn([f64; N]) -> [f64; M],
) {
    let len = d0.len();
    let mut rows: [&[f64]; N] = [&[]; N];
    for t in 0..N {
        rows[t] = &src[t][skip[t]..][..len];
    }
    let d1 = if M > 1 { &mut d1[..len] } else { d1 };
    for n in 0..len {
        let mut v = [0.0; N];
        for t in 0..N {
            v[t] = rows[t][n];
        }
        let v = f(v);
        d0[n] = v[0];
        if M > 1 {
            d1[n] = v[1];
        }
    }
}

/// Whether [`row_body`] runs its AVX2 instance: the CPU has AVX2 (and
/// no test forced the baseline on this thread).
#[cfg(target_arch = "x86_64")]
fn avx2() -> bool {
    #[cfg(test)]
    if FORCE_BASELINE.get() {
        return false;
    }
    std::is_x86_feature_detected!("avx2")
}

/// Which build of the stage kernels' vector loop this process runs:
/// `"avx2"` when the CPU has AVX2 (x86-64 only), else `"baseline"`
/// (SSE2 on x86-64). Both give bitwise the same results.
pub fn kernel_isa() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if avx2() {
        return "avx2";
    }
    "baseline"
}

#[cfg(test)]
thread_local! {
    /// Set by [`each_body`]: this thread's kernels run the baseline.
    static FORCE_BASELINE: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Runs `body` once per [`row_body`] instance this CPU can run — the
/// baseline (forced on this thread), then AVX2 if the CPU has it —
/// passing the [`kernel_isa`] in force; says so when AVX2 is skipped.
#[cfg(test)]
pub(crate) fn each_body(test: &str, mut body: impl FnMut(&'static str)) {
    FORCE_BASELINE.set(true);
    body(kernel_isa());
    FORCE_BASELINE.set(false);
    match kernel_isa() {
        "baseline" => eprintln!("{test}: no AVX2 on this CPU, the AVX2 body was skipped"),
        isa => body(isa),
    }
}
