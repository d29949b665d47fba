//! Scalar transport on the Yin-Yang grid: the classical overset-grid
//! validation problem.
//!
//! The papers the SC2004 paper cites for Yin-Yang validation ([14]
//! Ohdaira et al.'s shallow-water tests, [21] Yoshida & Kageyama's mantle
//! convection benchmarks) all lean on *advection tests with known
//! solutions*: a feature is carried around the sphere by a prescribed
//! wind, across both component grids and their overset seams, and
//! compared against the exact rotated solution after a full revolution.
//! This module implements that test (Williamson et al. test case 1, the
//! cosine bell) on the same patches/interpolation/RK4 machinery the
//! geodynamo solver uses — an end-to-end accuracy measurement of the
//! overset coupling with an analytic answer.
//!
//! The wind is solid-body rotation `v = Ω a × x` about an arbitrary axis;
//! tilting the axis steers the bell straight through the polar caps that
//! only the Yang panel covers, which is exactly the regime the
//! latitude–longitude grid fails on and the Yin-Yang grid was built for.

use crate::fill_pair_scalar;
use geomath::spherical::SphericalBasis;
use geomath::{SphericalPoint, Vec3, YinYangMap};
use yy_field::{Array3, VectorField};
use yy_mesh::{build_overset_columns, Metric, OversetColumn, Panel, PatchGrid};
use yy_mhd::ops::{ColGeom, Cols, Spacings};
use yy_mhd::rhs::InteriorRange;

/// Radial length of an array (helper for row slicing).
#[inline]
fn sp_nr(a: &Array3) -> usize {
    a.shape().nr
}

/// Solid-body advection of a scalar on the Yin-Yang pair.
pub struct TransportSim {
    grid: PatchGrid,
    metric: Metric,
    cols: Vec<OversetColumn>,
    range: InteriorRange,
    /// Prescribed wind per panel, spherical components, padded.
    wind: [VectorField; 2],
    /// The advected scalar per panel.
    pub q: [Array3; 2],
    // RK4 work buffers.
    q0: [Array3; 2],
    k: [Array3; 2],
    stage: [Array3; 2],
    /// Simulated time.
    pub time: f64,
    /// Rotation rate about the wind axis.
    pub omega: f64,
    axis: Vec3,
}

impl TransportSim {
    /// Build the advection test: wind = solid rotation with rate `omega`
    /// about the *global* unit axis `axis`.
    pub fn new(grid: PatchGrid, axis: Vec3, omega: f64) -> Self {
        let axis = axis.normalized();
        let metric = Metric::full(&grid);
        let cols = build_overset_columns(&grid)
            .unwrap_or_else(|e| panic!("invalid Yin-Yang configuration: {e}"));
        let range = InteriorRange::full_panel(&grid);
        let shape = grid.full_shape();
        let wind = [Panel::Yin, Panel::Yang].map(|panel| {
            let local_axis = match panel {
                Panel::Yin => axis,
                Panel::Yang => geomath::yinyang::yinyang_cartesian(axis),
            };
            let mut v = VectorField::zeros(shape);
            let (gth, gph) = (shape.gth as isize, shape.gph as isize);
            for k in -gph..(shape.nph as isize + gph) {
                for j in -gth..(shape.nth as isize + gth) {
                    let theta = grid.theta().coord_signed(j);
                    let phi = grid.phi().coord_signed(k);
                    let basis = SphericalBasis::at(theta, phi);
                    for i in 0..shape.nr {
                        let pos =
                            SphericalPoint::new(grid.r().coord(i), theta, phi).to_cartesian();
                        let vel = (local_axis * omega).cross(pos);
                        let (vr, vt, vp) = basis.from_cartesian(vel);
                        v.r.set(i, j, k, vr);
                        v.t.set(i, j, k, vt);
                        v.p.set(i, j, k, vp);
                    }
                }
            }
            v
        });
        TransportSim {
            metric,
            cols,
            range,
            wind,
            q: [Array3::zeros(shape), Array3::zeros(shape)],
            q0: [Array3::zeros(shape), Array3::zeros(shape)],
            k: [Array3::zeros(shape), Array3::zeros(shape)],
            stage: [Array3::zeros(shape), Array3::zeros(shape)],
            time: 0.0,
            omega,
            axis,
            grid,
        }
    }

    /// The grid in use.
    pub fn grid(&self) -> &PatchGrid {
        &self.grid
    }

    /// Set the scalar from a function of *global Cartesian* position, on
    /// both panels (padded region included, so no initial fill is
    /// needed).
    pub fn set_scalar<F: Fn(Vec3) -> f64>(&mut self, f: F) {
        let map = YinYangMap::new();
        let shape = self.grid.full_shape();
        let (gth, gph) = (shape.gth as isize, shape.gph as isize);
        for (pi, panel) in [Panel::Yin, Panel::Yang].into_iter().enumerate() {
            for k in -gph..(shape.nph as isize + gph) {
                for j in -gth..(shape.nth as isize + gth) {
                    let theta = self.grid.theta().coord_signed(j);
                    let phi = self.grid.phi().coord_signed(k);
                    for i in 0..shape.nr {
                        let p = SphericalPoint::new(self.grid.r().coord(i), theta, phi);
                        let global = match panel {
                            Panel::Yin => p,
                            Panel::Yang => map.transform_point(p),
                        };
                        self.q[pi].set(i, j, k, f(global.to_cartesian()));
                    }
                }
            }
        }
    }

    /// Advective RHS `−v·∇q` over the FD interior (free function form so
    /// the stepping loop can borrow the scratch arrays independently).
    fn rhs(
        metric: &Metric,
        range: &InteriorRange,
        wind: &VectorField,
        q: &Array3,
        out: &mut Array3,
    ) {
        out.fill(0.0);
        let sp = Spacings::new(metric.dr, metric.dth, metric.dph);
        for k in range.k0..range.k1 {
            for j in range.j0..range.j1 {
                let g = ColGeom::new(metric, j);
                let qc = Cols::new(q, j, k);
                let vr = wind.r.row(j, k);
                let vt = wind.t.row(j, k);
                let vp = wind.p.row(j, k);
                let base_idx = q.shape().idx(0, j, k);
                let row = &mut out.data_mut()[base_idx..base_idx + sp_nr(q)];
                for i in range.i0..range.i1 {
                    let ir = metric.inv_r[i];
                    let adv = vr[i] * qc.ddr(i, &sp)
                        + vt[i] * ir * qc.ddt(i, &sp)
                        + vp[i] * ir * g.inv_sin * qc.ddp(i, &sp);
                    row[i] = -adv;
                }
            }
        }
    }

    fn fill(&mut self) {
        let [qy, qe] = &mut self.q;
        fill_pair_scalar(qy, qe, &self.cols);
    }

    fn fill_stage(&mut self) {
        let [sy, se] = &mut self.stage;
        fill_pair_scalar(sy, se, &self.cols);
    }

    /// One RK4 step of size `dt` (stage fills included).
    pub fn advance(&mut self, dt: f64) {
        let (weights, nodes) = (geomath::rk4::RK4_WEIGHTS, geomath::rk4::RK4_NODES);
        for p in 0..2 {
            self.q0[p].copy_from(&self.q[p]);
            self.stage[p].copy_from(&self.q[p]);
        }
        for s in 0..4 {
            for p in 0..2 {
                Self::rhs(&self.metric, &self.range, &self.wind[p], &self.stage[p], &mut self.k[p]);
                self.q[p].axpy(dt * weights[s], &self.k[p]);
            }
            if s < 3 {
                for p in 0..2 {
                    self.stage[p].assign_axpy(&self.q0[p], dt * nodes[s + 1], &self.k[p]);
                }
                self.fill_stage();
            }
        }
        self.fill();
        self.time += dt;
    }

    /// Advance through one full revolution (`T = 2π/Ω`) in `steps` steps.
    pub fn run_revolution(&mut self, steps: usize) {
        let dt = std::f64::consts::TAU / self.omega / steps as f64;
        for _ in 0..steps {
            self.advance(dt);
        }
    }

    /// `(l2, linf)` error of the Yin panel's owned FD-interior values
    /// against `exact(global Cartesian position)`.
    pub fn error_norms<F: Fn(Vec3) -> f64>(&self, exact: F) -> (f64, f64) {
        let r = &self.range;
        let mut sum2 = 0.0;
        let mut linf = 0.0_f64;
        let mut count = 0usize;
        for k in r.k0..r.k1 {
            for j in r.j0..r.j1 {
                let theta = self.metric.theta(j);
                let phi = self.metric.phi(k);
                for i in r.i0..r.i1 {
                    let pos = SphericalPoint::new(self.metric.r[i], theta, phi).to_cartesian();
                    let e = self.q[0].at(i, j, k) - exact(pos);
                    sum2 += e * e;
                    linf = linf.max(e.abs());
                    count += 1;
                }
            }
        }
        ((sum2 / count as f64).sqrt(), linf)
    }

    /// The prescribed rotation axis (global frame).
    pub fn axis(&self) -> Vec3 {
        self.axis
    }
}

/// A cosine bell of radius `width` (great-circle angle) centred on the
/// unit direction `center`, evaluated at global position `x` (radial
/// structure ignored — the bell is a function of direction only).
pub fn cosine_bell(center: Vec3, width: f64, x: Vec3) -> f64 {
    let d = center.normalized().dot(x.normalized()).clamp(-1.0, 1.0).acos();
    if d < width {
        0.5 * (1.0 + (std::f64::consts::PI * d / width).cos())
    } else {
        0.0
    }
}

/// Rotate `x` by angle `angle` about the unit `axis` (Rodrigues).
pub fn rotate_about(axis: Vec3, angle: f64, x: Vec3) -> Vec3 {
    let k = axis.normalized();
    let (s, c) = angle.sin_cos();
    x * c + k.cross(x) * s + k * (k.dot(x) * (1.0 - c))
}

#[cfg(test)]
mod tests {
    use super::*;
    use yy_mesh::PatchSpec;

    fn grid(nth: usize) -> PatchGrid {
        // Thin radial extent: the test is a spherical-surface problem.
        PatchGrid::new(PatchSpec::equal_spacing(4, nth, 0.9, 1.0))
    }

    #[test]
    fn bell_survives_a_revolution_across_the_poles() {
        // Axis x̂: the bell's trajectory passes through both polar caps —
        // pure Yang territory — and re-emerges. This is the path a
        // lat-lon grid cannot take without special pole treatment.
        let axis = Vec3::new(1.0, 0.0, 0.0);
        let center = Vec3::new(0.0, 1.0, 0.0);
        let mut sim = TransportSim::new(grid(25), axis, 1.0);
        sim.set_scalar(|x| cosine_bell(center, 0.8, x));
        sim.run_revolution(600);
        // 2nd-order central advection is dispersive; at this coarse
        // resolution the bell returns with l2 ≈ 0.037 (the convergence
        // test below checks that this shrinks at the expected rate).
        let (l2, linf) = sim.error_norms(|x| cosine_bell(center, 0.8, x));
        assert!(l2 < 0.06, "l2 error after a revolution: {l2}");
        assert!(linf < 0.25, "linf error after a revolution: {linf}");
    }

    #[test]
    fn advection_converges_with_resolution() {
        let axis = Vec3::new(0.5, 0.0, 3.0_f64.sqrt() / 2.0); // 30° tilt
        let center = Vec3::new(0.0, 1.0, 0.0);
        let err = |nth: usize, steps: usize| {
            let mut sim = TransportSim::new(grid(nth), axis, 1.0);
            sim.set_scalar(|x| cosine_bell(center, 0.9, x));
            sim.run_revolution(steps);
            sim.error_norms(|x| cosine_bell(center, 0.9, x)).0
        };
        let e1 = err(13, 300);
        let e2 = err(25, 600);
        let rate = (e1 / e2).log2();
        assert!(rate > 1.3, "spatial convergence rate {rate:.2} ({e1:.3e} → {e2:.3e})");
    }

    #[test]
    fn quarter_revolution_lands_at_the_rotated_position() {
        let axis = Vec3::new(0.0, 0.0, 1.0);
        let center = Vec3::new(1.0, 0.0, 0.0);
        let mut sim = TransportSim::new(grid(25), axis, 1.0);
        sim.set_scalar(|x| cosine_bell(center, 0.8, x));
        let quarter = std::f64::consts::FRAC_PI_2;
        let steps = 150;
        let dt = quarter / steps as f64;
        for _ in 0..steps {
            sim.advance(dt);
        }
        let moved = rotate_about(axis, quarter, center);
        let (l2, _) = sim.error_norms(|x| cosine_bell(moved, 0.8, x));
        assert!(l2 < 0.02, "l2 against the rotated bell: {l2}");
        // And it should NOT match the unmoved bell.
        let (l2_static, _) = sim.error_norms(|x| cosine_bell(center, 0.8, x));
        assert!(l2_static > 5.0 * l2, "bell did not move: {l2_static} vs {l2}");
    }

    #[test]
    fn constant_field_is_exactly_preserved() {
        // −v·∇q of a constant is identically zero; interpolation of a
        // constant is exact (partition of unity) — so a constant field is
        // a fixed point of the whole pipeline to machine precision.
        let mut sim = TransportSim::new(grid(13), Vec3::new(0.3, -0.5, 0.8), 2.0);
        sim.set_scalar(|_| 3.25);
        for _ in 0..20 {
            sim.advance(0.01);
        }
        let (l2, linf) = sim.error_norms(|_| 3.25);
        assert!(linf < 1e-12, "constant drifted: linf {linf}, l2 {l2}");
    }

    #[test]
    fn rodrigues_rotation_basics() {
        let z = Vec3::new(0.0, 0.0, 1.0);
        let x = Vec3::new(1.0, 0.0, 0.0);
        let y = rotate_about(z, std::f64::consts::FRAC_PI_2, x);
        assert!((y - Vec3::new(0.0, 1.0, 0.0)).norm() < 1e-12);
        // Rotation about the vector itself is the identity.
        let v = Vec3::new(0.2, -0.7, 0.4);
        assert!((rotate_about(v, 1.234, v) - v).norm() < 1e-12);
    }

    #[test]
    fn cosine_bell_shape() {
        let c = Vec3::new(0.0, 0.0, 1.0);
        assert!((cosine_bell(c, 0.5, c) - 1.0).abs() < 1e-12);
        assert_eq!(cosine_bell(c, 0.5, Vec3::new(1.0, 0.0, 0.0)), 0.0);
        let mid = Vec3::new(0.25_f64.sin(), 0.0, 0.25_f64.cos());
        assert!((cosine_bell(c, 0.5, mid) - 0.5).abs() < 1e-9);
    }
}
