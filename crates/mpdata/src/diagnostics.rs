//! Solution diagnostics: error norms and CFL validation.

use crate::fields::MpdataFields;
use std::error::Error;
use std::fmt;
use stencil_engine::Array3;

/// L1/L2/L∞ error norms between two fields on the intersection of their
/// regions.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub struct ErrorNorms {
    /// Mean absolute error.
    pub l1: f64,
    /// Root-mean-square error.
    pub l2: f64,
    /// Largest absolute error.
    pub linf: f64,
}

/// Computes the error norms of `a` against `b`.
pub fn error_norms(a: &Array3, b: &Array3) -> ErrorNorms {
    let r = a.region().intersect(b.region());
    let n = r.cells();
    if n == 0 {
        return ErrorNorms::default();
    }
    let mut l1 = 0.0;
    let mut l2 = 0.0;
    let mut linf = 0.0_f64;
    for (i, j, k) in r.points() {
        let d = (a.get(i, j, k) - b.get(i, j, k)).abs();
        l1 += d;
        l2 += d * d;
        linf = linf.max(d);
    }
    ErrorNorms {
        l1: l1 / n as f64,
        l2: (l2 / n as f64).sqrt(),
        linf,
    }
}

/// A violation of MPDATA's stability preconditions.
#[derive(Clone, Debug, PartialEq)]
pub enum CflViolation {
    /// An input array holds a NaN or an infinity (every comparison
    /// below is false for NaN, so it must be ruled out first).
    NonFinite {
        /// The offending array: `x`, `u1`, `u2`, `u3` or `h`.
        field: &'static str,
    },
    /// The scalar field has a negative value (MPDATA is positive
    /// definite: inputs must be non-negative).
    NegativeScalar {
        /// The offending minimum.
        min: f64,
    },
    /// The density is not strictly positive somewhere.
    NonPositiveDensity {
        /// The offending minimum.
        min: f64,
    },
    /// The donor-cell positivity bound `Σ_faces outflow ≤ h` can be
    /// exceeded at some cell.
    CourantTooLarge {
        /// The largest observed `Σ outflow / h`.
        worst: f64,
    },
}

impl fmt::Display for CflViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CflViolation::NonFinite { field } => {
                write!(
                    f,
                    "input field `{field}` holds a non-finite value (NaN or ±inf)"
                )
            }
            CflViolation::NegativeScalar { min } => {
                write!(f, "scalar field has negative values (min {min})")
            }
            CflViolation::NonPositiveDensity { min } => {
                write!(f, "density must be strictly positive (min {min})")
            }
            CflViolation::CourantTooLarge { worst } => {
                write!(
                    f,
                    "donor-cell positivity bound exceeded (worst Σ|out|/h = {worst})"
                )
            }
        }
    }
}

impl Error for CflViolation {}

impl MpdataFields {
    /// The largest per-cell outflow Courant sum `Σ_faces outflow / h`
    /// over the domain — must stay ≤ 1 for the upwind pass to be
    /// positivity-preserving.
    pub fn max_outflow_courant(&self) -> f64 {
        let d = self.domain();
        let face = |a: &Array3, i: i64, j: i64, k: i64| {
            a.get(
                i.clamp(d.i.lo, d.i.hi - 1),
                j.clamp(d.j.lo, d.j.hi - 1),
                k.clamp(d.k.lo, d.k.hi - 1),
            )
        };
        let mut worst = 0.0_f64;
        for (i, j, k) in d.points() {
            let out = face(&self.u1, i + 1, j, k).max(0.0) - face(&self.u1, i, j, k).min(0.0)
                + face(&self.u2, i, j + 1, k).max(0.0)
                - face(&self.u2, i, j, k).min(0.0)
                + face(&self.u3, i, j, k + 1).max(0.0)
                - face(&self.u3, i, j, k).min(0.0);
            worst = worst.max(out / self.h.get(i, j, k));
        }
        worst
    }

    /// Validates the stability preconditions.
    ///
    /// # Errors
    ///
    /// Returns the first [`CflViolation`] found: a non-finite value in
    /// any input array, negative scalar input, non-positive density, or
    /// an outflow Courant sum above 1.
    pub fn validate(&self) -> Result<(), CflViolation> {
        for (field, array) in [
            ("x", &self.x),
            ("u1", &self.u1),
            ("u2", &self.u2),
            ("u3", &self.u3),
            ("h", &self.h),
        ] {
            if !array.as_slice().iter().all(|v| v.is_finite()) {
                return Err(CflViolation::NonFinite { field });
            }
        }
        let min_x = self.x.min();
        if min_x < 0.0 {
            return Err(CflViolation::NegativeScalar { min: min_x });
        }
        let min_h = self.h.min();
        if min_h <= 0.0 {
            return Err(CflViolation::NonPositiveDensity { min: min_h });
        }
        let worst = self.max_outflow_courant();
        if worst > 1.0 {
            return Err(CflViolation::CourantTooLarge { worst });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fields::{gaussian_pulse, random_fields};
    use stencil_engine::rng::Xoshiro256pp;
    use stencil_engine::Region3;

    #[test]
    fn norms_of_identical_fields_are_zero() {
        let d = Region3::of_extent(6, 5, 4);
        let a = Array3::from_fn(d, |i, j, k| (i + j + k) as f64);
        let n = error_norms(&a, &a.clone());
        assert_eq!(n, ErrorNorms::default());
    }

    #[test]
    fn norms_orderings() {
        let d = Region3::of_extent(4, 4, 4);
        let a = Array3::filled(d, 1.0);
        let mut b = Array3::filled(d, 1.0);
        b.set(0, 0, 0, 3.0); // one outlier of 2
        let n = error_norms(&a, &b);
        assert!(n.l1 < n.l2 && n.l2 < n.linf, "{n:?}");
        assert_eq!(n.linf, 2.0);
        assert!((n.l1 - 2.0 / 64.0).abs() < 1e-12);
    }

    #[test]
    fn validate_accepts_generators() {
        let d = Region3::of_extent(8, 6, 4);
        gaussian_pulse(d, (0.2, 0.1, 0.05)).validate().unwrap();
        let mut rng = Xoshiro256pp::seed_from_u64(3);
        random_fields(&mut rng, d, 0.9).validate().unwrap();
    }

    #[test]
    fn validate_rejects_bad_inputs() {
        let d = Region3::of_extent(4, 4, 4);
        let mut f = gaussian_pulse(d, (0.2, 0.0, 0.0));
        f.x.set(1, 1, 1, -0.5);
        assert!(matches!(
            f.validate(),
            Err(CflViolation::NegativeScalar { .. })
        ));

        let mut f = gaussian_pulse(d, (0.2, 0.0, 0.0));
        f.h.set(0, 0, 0, 0.0);
        assert!(matches!(
            f.validate(),
            Err(CflViolation::NonPositiveDensity { .. })
        ));

        let mut f = gaussian_pulse(d, (0.2, 0.0, 0.0));
        // Diverging flow at one cell: both i-faces flow outward hard.
        f.u1.set(2, 2, 2, -0.8);
        f.u1.set(3, 2, 2, 0.8);
        let err = f.validate().unwrap_err();
        assert!(matches!(err, CflViolation::CourantTooLarge { worst } if worst > 1.0));
    }

    #[test]
    fn validate_rejects_non_finite_inputs_by_name() {
        // NaN slips through every ordered comparison (`min() < 0.0` is
        // false), so each array is screened for it — and for ±inf —
        // before the range checks, and the error names the array.
        let d = Region3::of_extent(4, 4, 4);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for field in ["x", "u1", "u2", "u3", "h"] {
                let mut f = gaussian_pulse(d, (0.2, 0.0, 0.0));
                let array = match field {
                    "x" => &mut f.x,
                    "u1" => &mut f.u1,
                    "u2" => &mut f.u2,
                    "u3" => &mut f.u3,
                    _ => &mut f.h,
                };
                array.set(2, 1, 3, bad);
                let err = f.validate().unwrap_err();
                assert_eq!(err, CflViolation::NonFinite { field }, "{bad} in {field}");
                assert!(err.to_string().contains(&format!("`{field}`")));
            }
        }
    }

    #[test]
    fn max_outflow_matches_uniform_flow() {
        let d = Region3::of_extent(6, 6, 6);
        let f = gaussian_pulse(d, (0.3, 0.2, 0.1));
        // Uniform interior flow: outflow per cell = 0.3 + 0.2 + 0.1.
        assert!((f.max_outflow_courant() - 0.6).abs() < 1e-12);
    }
}
