//! Shallow-water equations on the Yin-Yang sphere.
//!
//! Reference [14] of the paper (Ohdaira, Takahashi & Watanabe,
//! "Validation for the solution of shallow water equations in spherical
//! geometry with overset grid system") validated the Yin-Yang grid on
//! exactly this system before it was trusted for ocean/atmosphere and
//! geodynamo work. We reproduce that validation: the rotating
//! shallow-water equations in vector-invariant form on the unit sphere,
//!
//! ```text
//! ∂h/∂t = −∇·(h v)
//! ∂v/∂t = −(ζ + f) k̂×v − ∇(g h + |v|²/2)
//! ζ = k̂·(∇×v),   f = 2 Ω·k̂   (k̂ = r̂)
//! ```
//!
//! discretized with the same central stencils, RK4 staging and overset
//! scalar/vector coupling as the geodynamo solver. Williamson et al.'s
//! test case 2 — steady geostrophic zonal flow, an *exact* solution for
//! any orientation of the rotation axis — measures the full pipeline:
//! with the axis tilted 90° the flow runs straight over the panels'
//! seams and the geographic poles.

use crate::fill_pair_scalar;
use geomath::spherical::SphericalBasis;
use geomath::{SphericalPoint, Vec3, YinYangMap};
use yy_field::Array3;
use yy_mesh::{
    apply_vector, build_overset_columns, Metric, OversetColumn, Panel, PatchGrid,
};
use yy_mhd::ops::{ColGeom, Cols, Spacings};
use yy_mhd::rhs::InteriorRange;

/// Per-panel shallow-water state: depth and tangential velocity.
#[derive(Debug, Clone)]
pub struct SwState {
    /// Fluid depth h.
    pub h: Array3,
    /// Colatitude velocity component.
    pub vt: Array3,
    /// Longitude velocity component.
    pub vp: Array3,
}

impl SwState {
    fn zeros(shape: yy_field::Shape) -> Self {
        SwState { h: Array3::zeros(shape), vt: Array3::zeros(shape), vp: Array3::zeros(shape) }
    }

    fn axpy(&mut self, c: f64, o: &SwState) {
        self.h.axpy(c, &o.h);
        self.vt.axpy(c, &o.vt);
        self.vp.axpy(c, &o.vp);
    }

    fn assign_axpy(&mut self, base: &SwState, c: f64, d: &SwState) {
        self.h.assign_axpy(&base.h, c, &d.h);
        self.vt.assign_axpy(&base.vt, c, &d.vt);
        self.vp.assign_axpy(&base.vp, c, &d.vp);
    }

    fn copy_from(&mut self, o: &SwState) {
        self.h.copy_from(&o.h);
        self.vt.copy_from(&o.vt);
        self.vp.copy_from(&o.vp);
    }
}

/// Rotating shallow-water solver on the Yin-Yang pair (surface problem:
/// the radial dimension of the arrays is a single layer).
pub struct ShallowSim {
    grid: PatchGrid,
    metric: Metric,
    cols: Vec<OversetColumn>,
    range: InteriorRange,
    /// Coriolis parameter `f = 2 Ω·r̂` per panel, padded columns,
    /// flattened as `(k + halo) * nth_pad + (j + halo)`.
    coriolis: [Vec<f64>; 2],
    /// Gravity.
    pub g: f64,
    /// States per panel.
    pub s: [SwState; 2],
    s0: [SwState; 2],
    k: [SwState; 2],
    stage: [SwState; 2],
    /// Simulated time.
    pub time: f64,
    zero_r: Array3,
    scratch_r: Array3,
}

impl ShallowSim {
    /// Build the solver: rotation rate `omega` about the global unit
    /// `axis`, gravity `g`. `grid` should be a thin surface patch (its
    /// radial extent is unused; use `nr = 2`).
    pub fn new(grid: PatchGrid, axis: Vec3, omega: f64, g: f64) -> Self {
        let axis = axis.normalized();
        let metric = Metric::full(&grid);
        let cols = build_overset_columns(&grid)
            .unwrap_or_else(|e| panic!("invalid Yin-Yang configuration: {e}"));
        let mut range = InteriorRange::full_panel(&grid);
        // Surface problem: evaluate only at the first radial node.
        range.i0 = 0;
        range.i1 = 1;
        let shape = grid.full_shape();
        let (gth, gph) = (shape.gth as isize, shape.gph as isize);
        let nth_pad = shape.nth_pad();
        let coriolis = [Panel::Yin, Panel::Yang].map(|panel| {
            let local_axis = match panel {
                Panel::Yin => axis,
                Panel::Yang => geomath::yinyang::yinyang_cartesian(axis),
            };
            let mut f = vec![0.0; nth_pad * shape.nph_pad()];
            for k in -gph..(shape.nph as isize + gph) {
                for j in -gth..(shape.nth as isize + gth) {
                    let theta = grid.theta().coord_signed(j);
                    let phi = grid.phi().coord_signed(k);
                    let rhat = SphericalPoint::new(1.0, theta, phi).to_cartesian();
                    let idx = ((k + gph) as usize) * nth_pad + (j + gth) as usize;
                    f[idx] = 2.0 * omega * local_axis.dot(rhat);
                }
            }
            f
        });
        ShallowSim {
            metric,
            cols,
            range,
            coriolis,
            g,
            s: [SwState::zeros(shape), SwState::zeros(shape)],
            s0: [SwState::zeros(shape), SwState::zeros(shape)],
            k: [SwState::zeros(shape), SwState::zeros(shape)],
            stage: [SwState::zeros(shape), SwState::zeros(shape)],
            time: 0.0,
            zero_r: Array3::zeros(shape),
            scratch_r: Array3::zeros(shape),
            grid,
        }
    }

    /// The grid in use.
    pub fn grid(&self) -> &PatchGrid {
        &self.grid
    }

    /// Set depth and velocity from functions of *global Cartesian*
    /// direction: `h(x)` and the global Cartesian velocity `v(x)`
    /// (projected onto each panel's tangent basis).
    pub fn set_state<FH, FV>(&mut self, fh: FH, fv: FV)
    where
        FH: Fn(Vec3) -> f64,
        FV: Fn(Vec3) -> Vec3,
    {
        let map = YinYangMap::new();
        let shape = self.grid.full_shape();
        let (gth, gph) = (shape.gth as isize, shape.gph as isize);
        for (pi, panel) in [Panel::Yin, Panel::Yang].into_iter().enumerate() {
            for k in -gph..(shape.nph as isize + gph) {
                for j in -gth..(shape.nth as isize + gth) {
                    let theta = self.grid.theta().coord_signed(j);
                    let phi = self.grid.phi().coord_signed(k);
                    let p_local = SphericalPoint::new(1.0, theta, phi);
                    let p_global = match panel {
                        Panel::Yin => p_local,
                        Panel::Yang => map.transform_point(p_local),
                    };
                    let x = p_global.to_cartesian();
                    let v_global = fv(x);
                    // Express the global vector in the panel's local frame.
                    let v_local = match panel {
                        Panel::Yin => v_global,
                        Panel::Yang => geomath::yinyang::yinyang_cartesian(v_global),
                    };
                    let basis = SphericalBasis::at(theta, phi);
                    let (_, vt, vp) = basis.from_cartesian(v_local);
                    for i in 0..shape.nr {
                        self.s[pi].h.set(i, j, k, fh(x));
                        self.s[pi].vt.set(i, j, k, vt);
                        self.s[pi].vp.set(i, j, k, vp);
                    }
                }
            }
        }
    }

    /// Vector-invariant RHS over the FD interior (surface layer only).
    fn rhs(
        metric: &Metric,
        range: &InteriorRange,
        coriolis: &[f64],
        nth_pad: usize,
        gth: usize,
        gph: usize,
        g: f64,
        s: &SwState,
        out: &mut SwState,
    ) {
        out.h.fill(0.0);
        out.vt.fill(0.0);
        out.vp.fill(0.0);
        let sp = Spacings::new(metric.dr, metric.dth, metric.dph);
        for k in range.k0..range.k1 {
            for j in range.j0..range.j1 {
                let geom = ColGeom::new(metric, j);
                let h = Cols::new(&s.h, j, k);
                let vt = Cols::new(&s.vt, j, k);
                let vp = Cols::new(&s.vp, j, k);
                let f_idx = ((k + gph as isize) as usize) * nth_pad + (j + gth as isize) as usize;
                let f_cor = coriolis[f_idx];
                for i in range.i0..range.i1 {
                    // ζ = (1/sinθ)(∂θ(sinθ vφ) − ∂φ vθ)   (unit sphere)
                    let zeta = geom.inv_sin
                        * ((geom.sin_s * vp.s[i] - geom.sin_n * vp.n[i]) * sp.inv_2dt
                            - (vt.e[i] - vt.w[i]) * sp.inv_2dp);
                    // ∇·(h v) = (1/sinθ)(∂θ(sinθ h vθ) + ∂φ(h vφ))
                    let div_hv = geom.inv_sin
                        * ((geom.sin_s * h.s[i] * vt.s[i] - geom.sin_n * h.n[i] * vt.n[i])
                            * sp.inv_2dt
                            + (h.e[i] * vp.e[i] - h.w[i] * vp.w[i]) * sp.inv_2dp);
                    // Bernoulli head E = g h + |v|²/2 and its gradient.
                    let e_c = |hc: f64, a: f64, b: f64| g * hc + 0.5 * (a * a + b * b);
                    let de_dt = (e_c(h.s[i], vt.s[i], vp.s[i]) - e_c(h.n[i], vt.n[i], vp.n[i]))
                        * sp.inv_2dt;
                    let de_dp = (e_c(h.e[i], vt.e[i], vp.e[i]) - e_c(h.w[i], vt.w[i], vp.w[i]))
                        * sp.inv_2dp;
                    let q = zeta + f_cor;
                    out.h.row_mut(j, k)[i] = -div_hv;
                    out.vt.row_mut(j, k)[i] = q * vp.c[i] - de_dt;
                    out.vp.row_mut(j, k)[i] = -q * vt.c[i] - geom.inv_sin * de_dp;
                }
            }
        }
    }

    fn fill(states: &mut [SwState; 2], cols: &[OversetColumn], zero_r: &Array3, scratch_r: &mut Array3) {
        // Depth: plain scalar interpolation.
        let [a, b] = states;
        fill_pair_scalar(&mut a.h, &mut b.h, cols);
        // Velocity: tangent-vector interpolation with rotation; the radial
        // component is identically zero (donor `zero_r`, result discarded
        // into `scratch_r`).
        for col in cols {
            apply_vector(col, zero_r, &b.vt, &b.vp, scratch_r, &mut a.vt, &mut a.vp);
        }
        for col in cols {
            apply_vector(col, zero_r, &a.vt, &a.vp, scratch_r, &mut b.vt, &mut b.vp);
        }
    }

    /// One RK4 step.
    pub fn advance(&mut self, dt: f64) {
        let (weights, nodes) = (geomath::rk4::RK4_WEIGHTS, geomath::rk4::RK4_NODES);
        let shape = self.grid.full_shape();
        let (nth_pad, gth, gph) = (shape.nth_pad(), shape.gth, shape.gph);
        for p in 0..2 {
            self.s0[p].copy_from(&self.s[p]);
            self.stage[p].copy_from(&self.s[p]);
        }
        for st in 0..4 {
            for p in 0..2 {
                Self::rhs(
                    &self.metric,
                    &self.range,
                    &self.coriolis[p],
                    nth_pad,
                    gth,
                    gph,
                    self.g,
                    &self.stage[p],
                    &mut self.k[p],
                );
                self.s[p].axpy(dt * weights[st], &self.k[p]);
            }
            if st < 3 {
                for p in 0..2 {
                    self.stage[p].assign_axpy(&self.s0[p], dt * nodes[st + 1], &self.k[p]);
                }
                Self::fill(&mut self.stage, &self.cols, &self.zero_r, &mut self.scratch_r);
            }
        }
        let mut states = std::mem::replace(
            &mut self.s,
            [SwState::zeros(shape), SwState::zeros(shape)],
        );
        Self::fill(&mut states, &self.cols, &self.zero_r, &mut self.scratch_r);
        self.s = states;
        self.time += dt;
    }

    /// `(l2, linf)` depth error of the Yin panel against
    /// `exact(global Cartesian direction)` over the FD interior.
    pub fn depth_error<F: Fn(Vec3) -> f64>(&self, exact: F) -> (f64, f64) {
        let r = &self.range;
        let mut sum2 = 0.0;
        let mut linf = 0.0_f64;
        let mut n = 0usize;
        for k in r.k0..r.k1 {
            for j in r.j0..r.j1 {
                let pos = SphericalPoint::new(1.0, self.metric.theta(j), self.metric.phi(k))
                    .to_cartesian();
                let e = self.s[0].h.at(0, j, k) - exact(pos);
                sum2 += e * e;
                linf = linf.max(e.abs());
                n += 1;
            }
        }
        ((sum2 / n as f64).sqrt(), linf)
    }

    /// Total fluid volume `∮ h dA` over the Yin panel interior (a
    /// conservation proxy; a dedup-weighted two-panel version would give
    /// the exact sphere total).
    pub fn yin_volume(&self) -> f64 {
        use geomath::quadrature::trapezoid_weights;
        let wt = trapezoid_weights(self.grid.theta());
        let wp = trapezoid_weights(self.grid.phi());
        let r = &self.range;
        let mut vol = 0.0;
        for k in r.k0..r.k1 {
            for j in r.j0..r.j1 {
                vol += self.s[0].h.at(0, j, k)
                    * wt[j as usize]
                    * self.metric.sin_t(j)
                    * wp[k as usize];
            }
        }
        vol
    }
}

/// Williamson test case 2: steady geostrophic flow about `axis`.
///
/// Returns `(h, v)` closures: `v = u0 (axis × x)` (solid-body flow) and
/// `g h = g h0 − (Ω u0 + u0²/2)(axis·x)²` — an exact steady solution of
/// the shallow-water equations on the unit sphere.
pub fn williamson_tc2(
    axis: Vec3,
    omega: f64,
    g: f64,
    h0: f64,
    u0: f64,
) -> (impl Fn(Vec3) -> f64, impl Fn(Vec3) -> Vec3) {
    let axis = axis.normalized();
    let h = move |x: Vec3| {
        let mu = axis.dot(x.normalized());
        h0 - (omega * u0 + 0.5 * u0 * u0) * mu * mu / g
    };
    let v = move |x: Vec3| axis.cross(x.normalized()) * u0;
    (h, v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use yy_mesh::PatchSpec;

    fn grid(nth: usize) -> PatchGrid {
        PatchGrid::new(PatchSpec::equal_spacing(2, nth, 0.9, 1.0))
    }

    fn tc2_error(nth: usize, axis: Vec3, t_end: f64) -> f64 {
        let (omega, g, h0, u0) = (1.0, 1.0, 1.0, 0.2);
        let mut sim = ShallowSim::new(grid(nth), axis, omega, g);
        let (h_exact, v_exact) = williamson_tc2(axis, omega, g, h0, u0);
        sim.set_state(&h_exact, &v_exact);
        // Gravity-wave CFL: c = √(g h0) = 1.
        let dth = sim.grid().theta().spacing();
        let dt = 0.25 * dth * 0.7;
        while sim.time < t_end {
            sim.advance(dt);
        }
        sim.depth_error(&h_exact).0
    }

    #[test]
    fn tc2_is_a_discrete_steady_state() {
        // The exact geostrophic balance should persist: depth error stays
        // at truncation level after a macroscopic integration time.
        let e = tc2_error(25, Vec3::new(0.0, 0.0, 1.0), 2.0);
        assert!(e < 2e-3, "TC2 drifted: l2 depth error {e}");
    }

    #[test]
    fn tc2_survives_a_tilted_axis_over_the_poles() {
        // Axis = x̂: the zonal jet flows through both panels' territory
        // including the geographic poles — the configuration lat-lon grids
        // struggle with (Williamson's α = π/2 case).
        let e = tc2_error(25, Vec3::new(1.0, 0.0, 0.0), 2.0);
        assert!(e < 2e-3, "tilted TC2 drifted: l2 depth error {e}");
    }

    #[test]
    fn tc2_error_converges() {
        let axis = Vec3::new(0.5, 0.0, 3.0_f64.sqrt() / 2.0);
        let e1 = tc2_error(13, axis, 1.0);
        let e2 = tc2_error(25, axis, 1.0);
        let rate = (e1 / e2).log2();
        assert!(rate > 1.5, "TC2 convergence rate {rate:.2} ({e1:.3e} → {e2:.3e})");
    }

    #[test]
    fn still_water_stays_still() {
        let mut sim = ShallowSim::new(grid(13), Vec3::new(0.0, 0.0, 1.0), 1.0, 1.0);
        sim.set_state(|_| 2.5, |_| Vec3::ZERO);
        for _ in 0..50 {
            sim.advance(0.01);
        }
        let (l2, linf) = sim.depth_error(|_| 2.5);
        assert!(linf < 1e-12, "flat state drifted: l2 {l2}, linf {linf}");
    }

    #[test]
    fn fluid_volume_is_conserved_at_truncation_level() {
        let axis = Vec3::new(0.0, 0.0, 1.0);
        let (omega, g, h0, u0) = (1.0, 1.0, 1.0, 0.2);
        let mut sim = ShallowSim::new(grid(25), axis, omega, g);
        let (h_exact, v_exact) = williamson_tc2(axis, omega, g, h0, u0);
        sim.set_state(&h_exact, &v_exact);
        let v0 = sim.yin_volume();
        let dt = 0.25 * sim.grid().theta().spacing() * 0.7;
        for _ in 0..200 {
            sim.advance(dt);
        }
        let v1 = sim.yin_volume();
        assert!(
            ((v1 - v0) / v0).abs() < 1e-4,
            "volume drift {:.3e}",
            (v1 - v0) / v0
        );
    }
}
