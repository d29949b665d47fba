//! Spherical geometry and math substrate for the Yin-Yang geodynamo code.
//!
//! This crate holds everything that is "pure math": 3-vectors, spherical
//! coordinate transforms, the Yin↔Yang coordinate/vector-basis transform of
//! Kageyama et al. (eq. 1 of the SC2004 paper), 1-D grid construction,
//! trapezoidal quadrature on spherical shells, a generic classical
//! Runge–Kutta-4 integrator, and deterministic RNG helpers.
//!
//! Nothing in here knows about fields, meshes, or MPI-style communication;
//! the higher crates (`yy-field`, `yy-mesh`, `yy-mhd`, `yycore`) build on
//! these primitives.
//!
//! ```
//! use geomath::{SphericalPoint, YinYangMap, approx_eq};
//!
//! // The Yin↔Yang transform is an involution: applying it twice is the
//! // identity (paper eq. 1).
//! let map = YinYangMap::new();
//! let p = SphericalPoint::new(1.0, 1.1, -0.4);
//! let back = map.transform_point(map.transform_point(p));
//! assert!(approx_eq(back.theta, p.theta, 1e-10));
//! ```
#![warn(missing_docs)]

pub mod grid1d;
pub mod quadrature;
pub mod rk4;
pub mod rng;
pub mod spherical;
pub mod vec3;
pub mod yinyang;

pub use grid1d::Grid1D;
pub use spherical::{SphericalBasis, SphericalPoint};
pub use vec3::Vec3;
pub use yinyang::{yang_from_yin_point, yin_from_yang_point, YinYangMap};

/// Relative comparison helper used across the workspace's tests.
///
/// Returns `true` when `a` and `b` agree to within `tol` relative to the
/// larger magnitude (or absolutely, when both are tiny).
pub fn approx_eq(a: f64, b: f64, tol: f64) -> bool {
    let scale = a.abs().max(b.abs()).max(1.0);
    (a - b).abs() <= tol * scale
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_basic() {
        assert!(approx_eq(1.0, 1.0 + 1e-13, 1e-12));
        assert!(!approx_eq(1.0, 1.1, 1e-3));
        assert!(approx_eq(0.0, 1e-15, 1e-12));
        assert!(approx_eq(-2.0, -2.0, 0.0));
    }

    #[test]
    fn approx_eq_scales_with_magnitude() {
        assert!(approx_eq(1e9, 1e9 + 1.0, 1e-8));
        assert!(!approx_eq(1e-9, 2e-9, 1e-12));
    }
}
