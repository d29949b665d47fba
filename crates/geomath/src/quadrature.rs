//! Trapezoidal quadrature weights for volume integrals on spherical-shell
//! patches.
//!
//! Energy diagnostics in the solver are integrals
//! `∫ q(r, θ, φ) r² sin θ dr dθ dφ` over a patch. On a uniform node grid the
//! composite trapezoid rule gives weight `d` to interior nodes and `d / 2`
//! to end nodes in each dimension; the callers multiply the per-dimension
//! weights and the metric `r² sin θ` inside their own loops.

use crate::grid1d::Grid1D;

/// Per-node trapezoid weights for a 1-D grid: `d/2` at the ends, `d`
/// inside.
pub fn trapezoid_weights(g: &Grid1D) -> Vec<f64> {
    let n = g.len();
    let d = g.spacing();
    let mut w = vec![d; n];
    w[0] = 0.5 * d;
    w[n - 1] = 0.5 * d;
    w
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;
    use std::f64::consts::PI;

    /// The composite trapezoid rule over the nodes of `g`.
    fn integrate(g: &Grid1D, f: impl Fn(f64) -> f64) -> f64 {
        trapezoid_weights(g).iter().zip(g.coords()).map(|(w, x)| w * f(x)).sum()
    }

    #[test]
    fn integrate_polynomial_exactly_for_linear() {
        // Trapezoid is exact for linear functions.
        let g = Grid1D::new(9, 0.0, 2.0, 0);
        assert!(approx_eq(integrate(&g, |x| 3.0 * x + 1.0), 8.0, 1e-13)); // ∫(3x+1) over [0,2] = 6+2
    }

    #[test]
    fn integrate_converges_second_order() {
        // ∫ sin(x) dx over [0, π] = 2, with O(d²) error.
        let err = |n: usize| {
            let g = Grid1D::new(n, 0.0, PI, 0);
            (integrate(&g, f64::sin) - 2.0).abs()
        };
        let (e1, e2) = (err(17), err(33));
        let rate = (e1 / e2).log2();
        assert!(rate > 1.9 && rate < 2.1, "rate = {rate}");
    }
}
