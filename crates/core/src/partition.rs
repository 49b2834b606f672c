//! Domain partitioning for islands-of-cores.
//!
//! The paper restricts partitioning to the first two dimensions (array
//! layout only allows contiguous transfers there) and evaluates the two
//! 1-D variants: **A** cuts the first dimension, **B** the second
//! (Table 2 shows A produces half the extra elements of B on the
//! 1024×512×64 grid). 2-D island grids — the paper's future work — are
//! provided as [`Partition::grid2d`] and exercised by ablation A1.

use std::error::Error;
use std::fmt;
use stencil_engine::{Axis, Region3};

/// The paper's 1-D partitioning variants.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Variant {
    /// Cut the first (`i`) dimension.
    A,
    /// Cut the second (`j`) dimension.
    B,
}

impl Variant {
    /// The axis this variant cuts.
    pub fn axis(self) -> Axis {
        match self {
            Variant::A => Axis::I,
            Variant::B => Axis::J,
        }
    }
}

impl fmt::Display for Variant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Variant::A => write!(f, "variant A (i-dimension)"),
            Variant::B => write!(f, "variant B (j-dimension)"),
        }
    }
}

/// Error building a partition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BuildPartitionError {
    /// Zero islands requested.
    NoIslands,
    /// A `K`-axis cut was requested (forbidden by the data layout).
    KAxisCut,
}

impl fmt::Display for BuildPartitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildPartitionError::NoIslands => write!(f, "a partition needs at least one island"),
            BuildPartitionError::KAxisCut => {
                write!(f, "partitioning the third dimension is forbidden: transfers would be non-contiguous")
            }
        }
    }
}

impl Error for BuildPartitionError {}

/// A partition of the domain into island parts (disjoint cover).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Partition {
    domain: Region3,
    parts: Vec<Region3>,
    description: String,
}

impl Partition {
    /// 1-D partition along the axis of `variant` into `islands` parts.
    ///
    /// # Errors
    ///
    /// Returns [`BuildPartitionError::NoIslands`] when `islands == 0`.
    pub fn one_d(
        domain: Region3,
        variant: Variant,
        islands: usize,
    ) -> Result<Self, BuildPartitionError> {
        if islands == 0 {
            return Err(BuildPartitionError::NoIslands);
        }
        Ok(Partition {
            domain,
            parts: domain.split(variant.axis(), islands),
            description: format!("1D {variant} × {islands}"),
        })
    }

    /// 2-D partition into a `pi × pj` grid of islands (the paper's
    /// future-work extension; `K` cuts remain forbidden).
    ///
    /// # Errors
    ///
    /// Returns [`BuildPartitionError::NoIslands`] when either factor is
    /// zero.
    pub fn grid2d(domain: Region3, pi: usize, pj: usize) -> Result<Self, BuildPartitionError> {
        if pi == 0 || pj == 0 {
            return Err(BuildPartitionError::NoIslands);
        }
        let mut parts = Vec::with_capacity(pi * pj);
        for slab in domain.split(Axis::I, pi) {
            parts.extend(slab.split(Axis::J, pj));
        }
        Ok(Partition {
            domain,
            parts,
            description: format!("2D {pi}×{pj} grid"),
        })
    }

    /// The partitioned domain.
    pub fn domain(&self) -> Region3 {
        self.domain
    }

    /// The island parts, in island order. Neighbouring parts are
    /// adjacent in this order for 1-D partitions, which the island
    /// mapping exploits to place them on NUMA-adjacent processors.
    pub fn parts(&self) -> &[Region3] {
        &self.parts
    }

    /// Number of islands.
    pub fn islands(&self) -> usize {
        self.parts.len()
    }

    /// Human-readable description.
    pub fn description(&self) -> &str {
        &self.description
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variant_axes() {
        assert_eq!(Variant::A.axis(), Axis::I);
        assert_eq!(Variant::B.axis(), Axis::J);
    }

    #[test]
    fn one_d_covers_domain() {
        let d = Region3::of_extent(16, 8, 4);
        let p = Partition::one_d(d, Variant::A, 3).unwrap();
        assert_eq!(p.islands(), 3);
        assert_eq!(
            p.parts().iter().map(|r| r.cells()).sum::<usize>(),
            d.cells()
        );
        // Adjacent in island order.
        for w in p.parts().windows(2) {
            assert_eq!(w[0].i.hi, w[1].i.lo);
        }
    }

    #[test]
    fn grid2d_covers_domain() {
        let d = Region3::of_extent(8, 8, 4);
        let p = Partition::grid2d(d, 2, 3).unwrap();
        assert_eq!(p.islands(), 6);
        assert_eq!(
            p.parts().iter().map(|r| r.cells()).sum::<usize>(),
            d.cells()
        );
        for a in 0..6 {
            for b in (a + 1)..6 {
                assert!(!p.parts()[a].overlaps(p.parts()[b]));
            }
        }
    }

    #[test]
    fn zero_islands_rejected() {
        let d = Region3::of_extent(4, 4, 4);
        assert_eq!(
            Partition::one_d(d, Variant::A, 0).unwrap_err(),
            BuildPartitionError::NoIslands
        );
        assert_eq!(
            Partition::grid2d(d, 0, 2).unwrap_err(),
            BuildPartitionError::NoIslands
        );
    }

    #[test]
    fn descriptions_mention_shape() {
        let d = Region3::of_extent(4, 4, 4);
        assert!(Partition::one_d(d, Variant::B, 2)
            .unwrap()
            .description()
            .contains("variant B"));
        assert!(Partition::grid2d(d, 2, 2)
            .unwrap()
            .description()
            .contains("2D"));
    }
}
