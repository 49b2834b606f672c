//! Stencil access patterns: which neighbour offsets a stage reads.
//!
//! Every input of a stage (see [`crate::stage::StageDef`]) carries a
//! [`StencilPattern`] — the finite set of offsets `(di, dj, dk)` the kernel
//! reads relative to the cell it writes. The pattern's [`Halo3`] is the
//! quantity that drives all dependency analysis: to compute a region `R` of
//! the output, the input must be available on `R.expand(halo)`.

use crate::region::Halo3;
use std::fmt;

/// A single relative offset read by a stencil.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct Offset3 {
    /// Offset along the first axis.
    pub di: i64,
    /// Offset along the second axis.
    pub dj: i64,
    /// Offset along the third axis.
    pub dk: i64,
}

impl Offset3 {
    /// Creates an offset.
    #[inline]
    pub fn new(di: i64, dj: i64, dk: i64) -> Self {
        Offset3 { di, dj, dk }
    }

    /// The centre offset `(0, 0, 0)`.
    pub const CENTER: Offset3 = Offset3 {
        di: 0,
        dj: 0,
        dk: 0,
    };
}

impl fmt::Display for Offset3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({},{},{})", self.di, self.dj, self.dk)
    }
}

/// The set of offsets a kernel reads from one input field.
///
/// # Examples
///
/// ```
/// use stencil_engine::{StencilPattern, Offset3};
/// // Donor-cell flux along i reads the cell and its lower-i neighbour.
/// let p = StencilPattern::from_offsets([(0, 0, 0), (-1, 0, 0)]);
/// assert_eq!(p.halo().i_neg, 1);
/// assert_eq!(p.halo().i_pos, 0);
/// assert!(p.contains(Offset3::new(-1, 0, 0)));
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct StencilPattern {
    offsets: Vec<Offset3>,
}

impl StencilPattern {
    /// Pattern reading only the centre cell.
    pub fn point() -> Self {
        StencilPattern {
            offsets: vec![Offset3::CENTER],
        }
    }

    /// Builds a pattern from `(di, dj, dk)` tuples. Duplicates are removed
    /// and the offsets are kept sorted, so patterns compare structurally.
    pub fn from_offsets<I>(offsets: I) -> Self
    where
        I: IntoIterator<Item = (i64, i64, i64)>,
    {
        let mut v: Vec<Offset3> = offsets
            .into_iter()
            .map(|(di, dj, dk)| Offset3::new(di, dj, dk))
            .collect();
        v.sort_unstable();
        v.dedup();
        assert!(
            !v.is_empty(),
            "a stencil pattern must read at least one offset"
        );
        StencilPattern { offsets: v }
    }

    /// The 7-point pattern: centre plus the six face neighbours.
    pub fn seven_point() -> Self {
        Self::from_offsets([
            (0, 0, 0),
            (-1, 0, 0),
            (1, 0, 0),
            (0, -1, 0),
            (0, 1, 0),
            (0, 0, -1),
            (0, 0, 1),
        ])
    }

    /// The offsets, sorted.
    #[inline]
    pub fn offsets(&self) -> &[Offset3] {
        &self.offsets
    }

    /// Number of offsets read.
    #[inline]
    pub fn len(&self) -> usize {
        self.offsets.len()
    }

    /// Whether the pattern is empty (never true for constructed patterns).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.offsets.is_empty()
    }

    /// Whether `o` is read by this pattern.
    pub fn contains(&self, o: Offset3) -> bool {
        self.offsets.binary_search(&o).is_ok()
    }

    /// The halo (directional reach) of the pattern.
    pub fn halo(&self) -> Halo3 {
        let mut h = Halo3::ZERO;
        for o in &self.offsets {
            h.i_neg = h.i_neg.max(-o.di);
            h.i_pos = h.i_pos.max(o.di);
            h.j_neg = h.j_neg.max(-o.dj);
            h.j_pos = h.j_pos.max(o.dj);
            h.k_neg = h.k_neg.max(-o.dk);
            h.k_pos = h.k_pos.max(o.dk);
        }
        h
    }

    /// Union of two patterns (a kernel reading through both).
    pub fn union(&self, other: &StencilPattern) -> StencilPattern {
        let mut v = self.offsets.clone();
        v.extend_from_slice(&other.offsets);
        v.sort_unstable();
        v.dedup();
        StencilPattern { offsets: v }
    }
}

impl fmt::Debug for StencilPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "StencilPattern[")?;
        for (n, o) in self.offsets.iter().enumerate() {
            if n > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{o}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_pattern() {
        let p = StencilPattern::point();
        assert_eq!(p.offsets(), [Offset3::CENTER]);
        assert!(p.halo().is_zero());
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn from_offsets_dedups_and_sorts() {
        let p = StencilPattern::from_offsets([(1, 0, 0), (0, 0, 0), (1, 0, 0)]);
        assert_eq!(p.len(), 2);
        assert_eq!(p.offsets()[0], Offset3::CENTER);
    }

    #[test]
    fn halo_is_directional() {
        let p = StencilPattern::from_offsets([(0, 0, 0), (-2, 0, 0), (0, 1, 0)]);
        let h = p.halo();
        assert_eq!(h.i_neg, 2);
        assert_eq!(h.i_pos, 0);
        assert_eq!(h.j_neg, 0);
        assert_eq!(h.j_pos, 1);
        assert_eq!(h.k_neg, 0);
    }

    #[test]
    fn seven_point_halo_uniform() {
        let p = StencilPattern::seven_point();
        assert_eq!(p.len(), 7);
        assert_eq!(p.halo(), Halo3::uniform(1));
    }

    #[test]
    fn union_merges() {
        let a = StencilPattern::from_offsets([(0, 0, 0), (-1, 0, 0)]);
        let b = StencilPattern::from_offsets([(0, 0, 0), (0, -1, 0)]);
        let u = a.union(&b);
        assert_eq!(u.len(), 3);
        assert_eq!(u.halo().i_neg, 1);
        assert_eq!(u.halo().j_neg, 1);
    }

    #[test]
    fn contains_lookup() {
        let p = StencilPattern::seven_point();
        assert!(p.contains(Offset3::new(0, 0, 1)));
        assert!(!p.contains(Offset3::new(1, 1, 0)));
    }

    #[test]
    #[should_panic]
    fn empty_pattern_panics() {
        let _ = StencilPattern::from_offsets(std::iter::empty());
    }
}
