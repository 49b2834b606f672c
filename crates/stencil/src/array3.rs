//! Dense 3-D arrays with MPDATA-style storage layout.
//!
//! The element at `(i, j, k)` lives at linear offset
//! `((i - base.i) * nj + (j - base.j)) * nk + (k - base.k)`, i.e. `k` is the
//! fastest-varying (contiguous) axis. An [`Array3`] may cover an arbitrary
//! [`Region3`] (not necessarily starting at the origin), which is how
//! block-local scratch arrays for the (3+1)D decomposition and enlarged
//! island sub-domains are represented without index translation at every
//! kernel site.
//!
//! An array may also be *windowed* along `i` ([`Array3::windowed`]): it
//! still answers for its whole region, but stores only `W` i-planes,
//! plane `i` living in slot `(i - base.i) mod W`. That is the (3+1)D
//! wavefront's scratch: a block's stages only ever reach a few planes
//! back, so the planes behind the reach are dead and their storage is
//! recycled — the intermediates occupy a cache-sized ring instead of a
//! main-memory-sized array.

use crate::region::{Range1, Region3};
use std::fmt;

/// A dense 3-D array of `f64` covering a [`Region3`] of the global index
/// space.
///
/// Indexing uses *global* coordinates; the array internally subtracts its
/// region origin. Out-of-region accesses panic in debug builds through the
/// slice bounds check (the linear offset is computed without per-axis
/// checks in release builds, so callers must respect [`Array3::region`]).
///
/// # Examples
///
/// ```
/// use stencil_engine::{Array3, Region3};
/// let mut a = Array3::zeros(Region3::of_extent(4, 4, 4));
/// a.set(1, 2, 3, 7.5);
/// assert_eq!(a.get(1, 2, 3), 7.5);
/// assert_eq!(a.get(0, 0, 0), 0.0);
/// ```
#[derive(Clone, PartialEq)]
pub struct Array3 {
    region: Region3,
    nj: i64,
    nk: i64,
    /// Stored i-planes: `region.i.len()` for a plain array, fewer for a
    /// windowed one.
    planes: i64,
    /// `ceil(2^64 / planes)` for windowed arrays (see [`Array3::slot`]);
    /// unused, and 0, for plain ones.
    magic: u64,
    data: Vec<f64>,
}

/// One i-plane of an [`Array3`], borrowed for reading: the plane's
/// storage slot is resolved once ([`Array3::plane`]) and every row — or
/// run of consecutive rows — of it then costs one multiply-add: what a
/// kernel sweeping `(j, k)` under a fixed `i` wants, and what keeps a
/// windowed array's slot lookup off the per-row path.
#[derive(Clone, Copy)]
pub struct Plane<'a> {
    cells: &'a [f64],
    j_lo: i64,
    k_lo: i64,
    nk: i64,
    #[cfg(debug_assertions)]
    key: crate::trace::ArrayKey,
    #[cfg(debug_assertions)]
    i: i64,
}

/// How many rows a run of `len` cells from column `k` touches in rows
/// of `nk` cells based at `k_lo`, and the `k`-window `[k, last cell's
/// column]` it has in each: what the access recorder logs for it.
#[cfg(debug_assertions)]
fn run_rows(k_lo: i64, nk: i64, k: i64, len: usize) -> (i64, Range1) {
    let last = k - k_lo + len as i64 - 1;
    (
        last.div_euclid(nk) + 1,
        Range1::new(k, k_lo + last.rem_euclid(nk) + 1),
    )
}

impl<'a> Plane<'a> {
    /// Borrows the contiguous `k`-row of cells `(j, kr)` of the plane
    /// (global coordinates): a [`Plane::run`] of one row.
    ///
    /// # Panics
    ///
    /// Panics if the row leaves the plane.
    #[inline]
    pub fn row(&self, j: i64, kr: Range1) -> &'a [f64] {
        self.run(j, kr.lo, kr.len())
    }

    /// Borrows the `len` cells that follow `(j, k)` in layout order: a
    /// *run* of consecutive rows seen as one slice. A run that ends at
    /// column `k + w - 1` of its last row stands for the window
    /// `[k, k + w)` of each of its rows; the cells of the slice between
    /// two windows (the tail of one row, the head of the next) are
    /// reachable but not part of the run — a caller may load them only
    /// into values it discards, and the debug access recorder logs the
    /// windows alone.
    ///
    /// # Panics
    ///
    /// Panics if the run leaves the plane.
    #[inline]
    pub fn run(&self, j: i64, k: i64, len: usize) -> &'a [f64] {
        #[cfg(debug_assertions)]
        {
            let (rows, window) = run_rows(self.k_lo, self.nk, k, len);
            for r in 0..rows {
                crate::trace::on_read_row(self.key, self.i, j + r, window);
            }
        }
        debug_assert!(j >= self.j_lo && k >= self.k_lo && k <= self.k_lo + self.nk);
        let o = ((j - self.j_lo) * self.nk + (k - self.k_lo)) as usize;
        &self.cells[o..o + len]
    }
}

impl Array3 {
    /// Creates an array covering `region`, filled with zeros.
    ///
    /// # Panics
    ///
    /// Panics if `region` is empty.
    pub fn zeros(region: Region3) -> Self {
        Self::filled(region, 0.0)
    }

    /// Creates an array covering `region`, filled with `value`.
    ///
    /// # Panics
    ///
    /// Panics if `region` is empty.
    pub fn filled(region: Region3, value: f64) -> Self {
        assert!(!region.is_empty(), "cannot allocate an empty Array3");
        Array3 {
            region,
            nj: region.j.len() as i64,
            nk: region.k.len() as i64,
            planes: region.i.len() as i64,
            magic: 0,
            data: vec![value; region.cells()],
        }
    }

    /// Creates a zero-filled array that answers for all of `region` but
    /// stores only `planes` i-planes: plane `i` lives in slot
    /// `(i - region.i.lo) mod planes`, so planes `i` and `i + planes`
    /// share storage and a write to one replaces the other. Sound for a
    /// producer/consumer pair that sweeps `i` upward and never reaches
    /// back `planes` or more behind the newest plane written — the
    /// caller's obligation, not checked here. `planes` is clamped to
    /// `1..=region.i.len()`; at the upper end this is [`Array3::zeros`].
    ///
    /// ```
    /// use stencil_engine::{Array3, Region3};
    /// let mut a = Array3::windowed(Region3::of_extent(10, 2, 2), 3);
    /// assert_eq!(a.len(), 3 * 2 * 2);
    /// a.set(1, 0, 0, 1.0);
    /// a.set(4, 0, 0, 4.0); // same slot as plane 1
    /// assert_eq!(a.get(1, 0, 0), 4.0);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `region` is empty or deeper than `u32::MAX` planes.
    pub fn windowed(region: Region3, planes: usize) -> Self {
        assert!(!region.is_empty(), "cannot allocate an empty Array3");
        let depth = region.i.len();
        // `slot`'s multiply-shift is exact for 32-bit operands.
        assert!(u32::try_from(depth).is_ok(), "windowed region too deep");
        let planes = planes.clamp(1, depth);
        let stored = Range1::new(region.i.lo, region.i.lo + planes as i64);
        let mut a = Self::zeros(Region3::new(stored, region.j, region.k));
        if planes < depth {
            a.region = region;
            a.magic = Self::magic(planes as i64);
        }
        a
    }

    /// `ceil(2^64 / planes)`, the multiplier [`Array3::slot`] reduces by.
    fn magic(planes: i64) -> u64 {
        (u64::MAX / planes as u64).wrapping_add(1)
    }

    /// Creates an array by evaluating `f(i, j, k)` at every point of
    /// `region` (global coordinates).
    ///
    /// # Panics
    ///
    /// Panics if `region` is empty.
    pub fn from_fn(region: Region3, mut f: impl FnMut(i64, i64, i64) -> f64) -> Self {
        let mut a = Self::zeros(region);
        for i in region.i.lo..region.i.hi {
            for j in region.j.lo..region.j.hi {
                for k in region.k.lo..region.k.hi {
                    let idx = a.offset(i, j, k);
                    a.data[idx] = f(i, j, k);
                }
            }
        }
        a
    }

    /// The region of global index space this array covers.
    #[inline]
    pub fn region(&self) -> Region3 {
        self.region
    }

    /// Re-targets the array at `region` as a plain (unwindowed) array,
    /// reusing the existing allocation — the per-tile scratch shrink of
    /// the tile-fused replay, which must not allocate on the
    /// steady-state path.
    ///
    /// The contents are *not* cleared: cells keep whatever bytes the
    /// previous region left at the same linear offsets, so callers must
    /// write (or explicitly zero) every cell they read. The debug trace
    /// key is the data pointer, which survives a rebase — access
    /// tracing follows the buffer, not the region.
    ///
    /// # Panics
    ///
    /// Panics if `region` is empty or holds more cells than the
    /// original allocation.
    pub fn rebase(&mut self, region: Region3) {
        assert!(!region.is_empty(), "cannot rebase to an empty region");
        assert!(
            region.cells() <= self.data.len(),
            "rebase target {:?} needs {} cells but the allocation holds {}",
            region,
            region.cells(),
            self.data.len()
        );
        self.region = region;
        self.nj = region.j.len() as i64;
        self.nk = region.k.len() as i64;
        self.planes = region.i.len() as i64;
        self.magic = 0;
    }

    /// Number of stored elements (for a windowed array, those of its
    /// window, not of its region).
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the array holds no elements (never true for a constructed
    /// array, but provided for API completeness).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Storage slot of the plane `di` planes above the region's base:
    /// `di mod planes`. Plain arrays never leave the first arm; windowed
    /// ones reduce by multiply-shift (Lemire's fastmod, exact for
    /// 32-bit operands — [`Array3::windowed`] bounds the depth), so the
    /// kernels' per-row address computation never issues a hardware
    /// division.
    #[inline(always)]
    fn slot(&self, di: i64) -> i64 {
        if di < self.planes {
            di
        } else {
            let low = self.magic.wrapping_mul(di as u64);
            ((u128::from(low) * self.planes as u128) >> 64) as i64
        }
    }

    /// Linear offset of global coordinates `(i, j, k)`.
    #[inline(always)]
    fn offset(&self, i: i64, j: i64, k: i64) -> usize {
        debug_assert!(
            self.region.contains(i, j, k),
            "index ({i},{j},{k}) outside array region {:?}",
            self.region
        );
        ((self.slot(i - self.region.i.lo) * self.nj + (j - self.region.j.lo)) * self.nk
            + (k - self.region.k.lo)) as usize
    }

    /// The key under which debug access tracing logs this array (see
    /// [`crate::trace`]).
    #[cfg(debug_assertions)]
    #[inline(always)]
    fn trace_key(&self) -> crate::trace::ArrayKey {
        self.data.as_ptr() as crate::trace::ArrayKey
    }

    /// Reads the element at global coordinates `(i, j, k)`.
    #[inline(always)]
    pub fn get(&self, i: i64, j: i64, k: i64) -> f64 {
        #[cfg(debug_assertions)]
        crate::trace::on_read(self.trace_key(), i, j, k);
        self.data[self.offset(i, j, k)]
    }

    /// Writes the element at global coordinates `(i, j, k)`.
    #[inline(always)]
    pub fn set(&mut self, i: i64, j: i64, k: i64, v: f64) {
        #[cfg(debug_assertions)]
        crate::trace::on_write(self.trace_key(), i, j, k);
        let o = self.offset(i, j, k);
        self.data[o] = v;
    }

    /// Borrow of the raw storage in layout order (slot order for a
    /// windowed array).
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable borrow of the raw storage in layout order.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Fills the whole array with `value`.
    pub fn fill(&mut self, value: f64) {
        self.data.fill(value);
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Minimum element (NaN-poisoned inputs yield unspecified results).
    pub fn min(&self) -> f64 {
        self.data.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Maximum element.
    pub fn max(&self) -> f64 {
        self.data.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }

    /// Largest absolute element-wise difference on the intersection of the
    /// two regions.
    pub fn max_abs_diff(&self, other: &Array3) -> f64 {
        let r = self.region.intersect(other.region);
        let mut m: f64 = 0.0;
        for i in r.i.lo..r.i.hi {
            for j in r.j.lo..r.j.hi {
                for k in r.k.lo..r.k.hi {
                    m = m.max((self.get(i, j, k) - other.get(i, j, k)).abs());
                }
            }
        }
        m
    }

    /// Borrows the contiguous `k`-row of cells `(i, j, kr)` (global
    /// coordinates).
    ///
    /// # Panics
    ///
    /// Panics (in debug builds, via the offset check) if the row is not
    /// fully inside the array's region; `kr` must be non-empty.
    #[inline]
    pub fn row(&self, i: i64, j: i64, kr: Range1) -> &[f64] {
        self.plane(i).row(j, kr)
    }

    /// Borrows the i-plane `i` (global coordinate), resolving its
    /// storage slot once for all the rows read from it.
    ///
    /// # Panics
    ///
    /// Panics if `i` is outside the array's region.
    #[inline]
    pub fn plane(&self, i: i64) -> Plane<'_> {
        debug_assert!(
            self.region.i.contains(i),
            "plane {i} outside {:?}",
            self.region
        );
        let n = (self.nj * self.nk) as usize;
        let o = self.slot(i - self.region.i.lo) as usize * n;
        Plane {
            cells: &self.data[o..o + n],
            j_lo: self.region.j.lo,
            k_lo: self.region.k.lo,
            nk: self.nk,
            #[cfg(debug_assertions)]
            key: self.trace_key(),
            #[cfg(debug_assertions)]
            i,
        }
    }

    /// Mutably borrows the `len` cells that follow `(i, j, k)` in layout
    /// order — the writing counterpart of [`Plane::run`], with the same
    /// reading of the slice: the run is the window `[k, k + w)` of each
    /// row it touches, and a caller that stores into the cells between
    /// two windows must store their real values over them afterwards.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds, via the offset check) if the run leaves
    /// the i-plane.
    #[inline]
    pub fn run_mut(&mut self, i: i64, j: i64, k: i64, len: usize) -> &mut [f64] {
        #[cfg(debug_assertions)]
        {
            let (rows, window) = run_rows(self.region.k.lo, self.nk, k, len);
            debug_assert!(
                j + rows <= self.region.j.hi,
                "run of {len} cells from ({i},{j},{k}) leaves its plane in {:?}",
                self.region
            );
            for r in 0..rows {
                crate::trace::on_write_row(self.trace_key(), i, j + r, window);
            }
        }
        let o = self.offset(i, j, k);
        &mut self.data[o..o + len]
    }

    /// Iterates over `(i, j, k, value)` in layout order.
    pub fn iter_indexed(&self) -> impl Iterator<Item = (i64, i64, i64, f64)> + '_ {
        self.region
            .points()
            .map(|(i, j, k)| (i, j, k, self.get(i, j, k)))
    }
}

impl fmt::Debug for Array3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Array3 {{ region: {:?}, len: {} }}",
            self.region,
            self.data.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::Range1;

    #[test]
    fn zeros_and_set_get() {
        let mut a = Array3::zeros(Region3::of_extent(3, 4, 5));
        assert_eq!(a.len(), 60);
        a.set(2, 3, 4, 1.5);
        assert_eq!(a.get(2, 3, 4), 1.5);
        assert_eq!(a.get(0, 0, 0), 0.0);
    }

    #[test]
    fn offset_base_region() {
        // Array covering a region that does not start at the origin.
        let r = Region3::new(Range1::new(10, 13), Range1::new(-2, 2), Range1::new(5, 7));
        let a = Array3::from_fn(r, |i, j, k| (i * 100 + j * 10 + k) as f64);
        assert_eq!(a.get(10, -2, 5), 1000.0 - 20.0 + 5.0);
        assert_eq!(a.get(12, 1, 6), 1216.0);
    }

    #[test]
    fn layout_k_fastest() {
        let a = Array3::from_fn(Region3::of_extent(2, 2, 3), |i, j, k| {
            (i * 6 + j * 3 + k) as f64
        });
        // Linear order must equal enumeration order with k fastest.
        let expect: Vec<f64> = (0..12).map(|v| v as f64).collect();
        assert_eq!(a.as_slice(), expect.as_slice());
    }

    #[test]
    fn sum_min_max() {
        let a = Array3::from_fn(Region3::of_extent(2, 2, 2), |i, j, k| (i + j + k) as f64);
        assert_eq!(a.sum(), 0.0 + 1.0 + 1.0 + 2.0 + 1.0 + 2.0 + 2.0 + 3.0);
        assert_eq!(a.min(), 0.0);
        assert_eq!(a.max(), 3.0);
    }

    #[test]
    fn max_abs_diff_on_intersection() {
        let a = Array3::filled(Region3::of_extent(3, 3, 3), 2.0);
        let mut b = Array3::filled(Region3::of_extent(3, 3, 3), 2.0);
        b.set(1, 1, 1, 2.5);
        assert_eq!(a.max_abs_diff(&b), 0.5);
        assert_eq!(a.max_abs_diff(&a.clone()), 0.0);
    }

    #[test]
    #[should_panic]
    fn empty_region_panics() {
        let _ = Array3::zeros(Region3::empty());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic]
    fn out_of_region_access_panics_in_debug() {
        let a = Array3::zeros(Region3::of_extent(2, 2, 2));
        let _ = a.get(2, 0, 0);
    }

    #[test]
    fn row_accessors_match_get() {
        let r = Region3::new(Range1::new(2, 5), Range1::new(1, 4), Range1::new(10, 16));
        let mut a = Array3::from_fn(r, |i, j, k| (i * 1000 + j * 100 + k) as f64);
        let row = a.row(3, 2, Range1::new(11, 15));
        assert_eq!(row.len(), 4);
        assert_eq!(row[0], a.get(3, 2, 11));
        assert_eq!(row[3], a.get(3, 2, 14));
        let row = a.run_mut(4, 1, 10, 6);
        row[5] = -7.0;
        assert_eq!(a.get(4, 1, 15), -7.0);
    }

    #[test]
    fn run_accessors_span_consecutive_rows() {
        let r = Region3::new(Range1::new(2, 5), Range1::new(1, 5), Range1::new(10, 14));
        let val = |i: i64, j: i64, k: i64| (i * 1000 + j * 100 + k) as f64;
        // A plain array and a two-plane window over the same region.
        for mut a in [Array3::zeros(r), Array3::windowed(r, 2)] {
            for i in r.i.lo..r.i.hi {
                // Rows 2..=4 from column 11 to column 12 of the last.
                for (n, v) in a.run_mut(i, 2, 11, 2 * 4 + 2).iter_mut().enumerate() {
                    let at = 1 + n as i64;
                    *v = val(i, 2 + at / 4, 10 + at % 4);
                }
                let run = a.plane(i).run(2, 11, 10);
                assert_eq!(run.len(), 10);
                assert_eq!(run[0], a.get(i, 2, 11));
                assert_eq!(run[3], a.get(i, 3, 10));
                assert_eq!(run[9], a.get(i, 4, 12));
                assert_eq!(a.get(i, 4, 12), val(i, 4, 12));
                assert_eq!(a.get(i, 4, 13), 0.0, "past the run");
                assert_eq!(a.get(i, 2, 10), 0.0, "before the run");
                // One row is a run of one row.
                assert_eq!(a.row(i, 3, Range1::new(10, 14)), a.plane(i).run(3, 10, 4));
            }
        }
    }

    #[test]
    #[should_panic]
    fn run_past_the_plane_panics() {
        let a = Array3::zeros(Region3::of_extent(2, 2, 3));
        let _ = a.plane(0).run(1, 1, 3);
    }

    #[test]
    fn rebase_reuses_allocation_and_reindexes() {
        let big = Region3::of_extent(4, 4, 4);
        let mut a = Array3::from_fn(big, |i, j, k| (i * 100 + j * 10 + k) as f64);
        let small = Region3::new(Range1::new(10, 12), Range1::new(-1, 2), Range1::new(0, 3));
        assert!(small.cells() <= big.cells());
        a.rebase(small);
        assert_eq!(a.region(), small);
        // Same allocation, new indexing: writing through the new region
        // and reading it back round-trips.
        for (i, j, k) in small.points() {
            a.set(i, j, k, (i - j + k) as f64);
        }
        for (i, j, k) in small.points() {
            assert_eq!(a.get(i, j, k), (i - j + k) as f64);
        }
        // Rebasing back to a same-cell-count region also works.
        a.rebase(big);
        assert_eq!(a.region(), big);
    }

    /// A shifted-base hull of 11 planes behind a 4-plane window.
    fn window_fixture() -> (Region3, Array3) {
        let r = Region3::new(Range1::new(-3, 8), Range1::new(2, 5), Range1::new(1, 6));
        (r, Array3::windowed(r, 4))
    }

    #[test]
    fn windowed_starts_zeroed_and_stores_only_the_window() {
        let (r, a) = window_fixture();
        assert_eq!(a.region(), r);
        assert_eq!(a.len(), 4 * 3 * 5);
        assert!(r.points().all(|(i, j, k)| a.get(i, j, k) == 0.0));
    }

    #[test]
    fn windowed_accessors_agree_across_the_wrap() {
        let (r, mut a) = window_fixture();
        let val = |i: i64, j: i64, k: i64| (i * 100 + j * 10 + k) as f64;
        // Sweep upward like a wavefront: once plane i is written, it and
        // the three planes below read back intact through every accessor
        // (the window wraps three times on the way).
        for i in r.i.lo..r.i.hi {
            for j in r.j.lo..r.j.hi {
                if (i + j) % 2 == 0 {
                    for (n, v) in a.run_mut(i, j, r.k.lo, r.k.len()).iter_mut().enumerate() {
                        *v = val(i, j, r.k.lo + n as i64);
                    }
                } else {
                    for k in r.k.lo..r.k.hi {
                        a.set(i, j, k, val(i, j, k));
                    }
                }
            }
            for p in (i - 3).max(r.i.lo)..=i {
                for j in r.j.lo..r.j.hi {
                    let row = a.row(p, j, Range1::new(2, 5));
                    for k in 2..5 {
                        assert_eq!(row[(k - 2) as usize], val(p, j, k));
                        assert_eq!(a.get(p, j, k), val(p, j, k));
                    }
                }
            }
        }
        // Plane i and plane i + 4 are one slot.
        assert_eq!(a.get(0, 2, 1), val(4, 2, 1));
    }

    #[test]
    fn window_as_deep_as_the_region_is_the_plain_array() {
        let r = Region3::new(Range1::new(5, 9), Range1::new(0, 2), Range1::new(0, 3));
        for planes in [4, 5, usize::MAX] {
            assert!(Array3::windowed(r, planes) == Array3::zeros(r));
        }
        // Zero planes clamp to one; rebasing makes any array plain again.
        let mut a = Array3::windowed(r, 0);
        assert_eq!(a.len(), 6);
        a.rebase(Region3::of_extent(1, 2, 3));
        assert!(a == Array3::zeros(Region3::of_extent(1, 2, 3)));
    }

    #[test]
    fn slot_is_the_remainder() {
        let r = Region3::of_extent(u32::MAX as usize, 1, 1);
        for planes in (1..200).chain([4096, 65_537, (1 << 31) - 1, (1 << 31) + 1]) {
            // Only the index arithmetic is under test: no storage.
            let a = Array3 {
                region: r,
                nj: 1,
                nk: 1,
                planes,
                magic: Array3::magic(planes),
                data: Vec::new(),
            };
            let probes = (0..3 * planes.min(5000))
                .chain([planes * 7 - 1, planes * 7, u32::MAX as i64 - 1])
                .filter(|&di| di < u32::MAX as i64);
            for di in probes {
                assert_eq!(a.slot(di), di % planes, "{di} mod {planes}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "rebase target")]
    fn rebase_larger_than_allocation_panics() {
        let mut a = Array3::zeros(Region3::of_extent(2, 2, 2));
        a.rebase(Region3::of_extent(3, 3, 3));
    }

    #[test]
    fn iter_indexed_matches_get() {
        let a = Array3::from_fn(Region3::of_extent(2, 3, 2), |i, j, k| {
            (i * 100 + j * 10 + k) as f64
        });
        for (i, j, k, v) in a.iter_indexed() {
            assert_eq!(v, a.get(i, j, k));
        }
        assert_eq!(a.iter_indexed().count(), 12);
    }
}
