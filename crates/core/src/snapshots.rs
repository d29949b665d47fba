//! Snapshot data products and visualization (the paper's §V / Fig. 2).
//!
//! The paper stores Cartesian components of B, v, vorticity ω and the
//! temperature T for visualization, and presents equatorial views of the
//! columnar convection cells, colored by the sign of the axial vorticity
//! (cyclonic vs anticyclonic columns).
//!
//! This module reproduces those products at laptop scale:
//!
//! * conversion of panel-local spherical components to *global* Cartesian
//!   components (for the Yang panel this includes the Yin↔Yang frame
//!   rotation, so the two panels' outputs agree in the overlap — the
//!   "double solution" the paper notes needs no blending);
//! * composition of full equatorial rings/disks by choosing, per
//!   longitude, whichever panel covers the direction in its nominal span;
//! * axial vorticity ω·ẑ (the quantity that makes convection columns
//!   visible) and a column counter based on its sign structure;
//! * a tiny PPM writer with a diverging colormap for the disk images.

use geomath::spherical::SphericalBasis;
use geomath::{SphericalPoint, YinYangMap};
use std::io::{self, Write};
use std::path::Path;
use yy_field::Array3;
use yy_mesh::{Metric, Panel, PatchGrid};
use yy_mhd::tables::rotation_axis;
use yy_mhd::State;

/// Temperature field `T = p/ρ` over the padded region.
pub fn temperature(state: &State) -> Array3 {
    let shape = state.shape();
    Array3::from_fn(shape, |i, j, k| state.press.at(i, j, k) / state.rho.at(i, j, k))
}

/// Velocity components in the *global* (Yin) Cartesian frame.
///
/// Returns `[vx, vy, vz]` arrays valid over the padded region.
pub fn velocity_global_cartesian(state: &State, grid: &PatchGrid, panel: Panel) -> [Array3; 3] {
    let shape = state.shape();
    let mut vx = Array3::zeros(shape);
    let mut vy = Array3::zeros(shape);
    let mut vz = Array3::zeros(shape);
    let (gth, gph) = (shape.gth as isize, shape.gph as isize);
    for k in -gph..(shape.nph as isize + gph) {
        for j in -gth..(shape.nth as isize + gth) {
            let basis =
                SphericalBasis::at(grid.theta().coord_signed(j), grid.phi().coord_signed(k));
            for i in 0..shape.nr {
                let rho = state.rho.at(i, j, k);
                let local = basis.to_cartesian(
                    state.f.r.at(i, j, k) / rho,
                    state.f.t.at(i, j, k) / rho,
                    state.f.p.at(i, j, k) / rho,
                );
                // Yang local Cartesian → global (Yin) Cartesian.
                let global = match panel {
                    Panel::Yin => local,
                    Panel::Yang => geomath::yinyang::yinyang_cartesian(local),
                };
                vx.set(i, j, k, global.x);
                vy.set(i, j, k, global.y);
                vz.set(i, j, k, global.z);
            }
        }
    }
    [vx, vy, vz]
}

/// Axial vorticity `ω·ẑ` (global polar axis) over the FD interior; frame,
/// wall and ghost nodes are zero.
pub fn axial_vorticity(state: &State, grid: &PatchGrid, metric: &Metric, panel: Panel) -> Array3 {
    use yy_mhd::ops::{ColGeom, Cols, Spacings};
    let shape = state.shape();
    let mut out = Array3::zeros(shape);
    // v over the padded region first.
    let mut v = yy_field::VectorField::zeros(shape);
    let (gth, gph) = (shape.gth as isize, shape.gph as isize);
    for k in -gph..(shape.nph as isize + gph) {
        for j in -gth..(shape.nth as isize + gth) {
            for i in 0..shape.nr {
                let rho = state.rho.at(i, j, k);
                v.r.set(i, j, k, state.f.r.at(i, j, k) / rho);
                v.t.set(i, j, k, state.f.t.at(i, j, k) / rho);
                v.p.set(i, j, k, state.f.p.at(i, j, k) / rho);
            }
        }
    }
    let sp = Spacings::new(metric.dr, metric.dth, metric.dph);
    let r = &metric.r;
    let axis = rotation_axis(panel); // unit ẑ expressed in the panel frame
    let range = yy_mhd::rhs::InteriorRange::full_panel(grid);
    for k in range.k0..range.k1 {
        for j in range.j0..range.j1 {
            let g = ColGeom::new(metric, j);
            let vr = Cols::new(&v.r, j, k);
            let vt = Cols::new(&v.t, j, k);
            let vp = Cols::new(&v.p, j, k);
            let basis = SphericalBasis::at(metric.theta(j), metric.phi(k));
            let (ax_r, ax_t, ax_p) = basis.from_cartesian(axis);
            for i in range.i0..range.i1 {
                let ir = metric.inv_r[i];
                let w_r = ir * g.inv_sin
                    * ((g.sin_s * vp.s[i] - g.sin_n * vp.n[i]) * sp.inv_2dt
                        - (vt.e[i] - vt.w[i]) * sp.inv_2dp);
                let w_t = ir
                    * (g.inv_sin * (vr.e[i] - vr.w[i]) * sp.inv_2dp
                        - (r[i + 1] * vp.c[i + 1] - r[i - 1] * vp.c[i - 1]) * sp.inv_2dr);
                let w_p = ir
                    * ((r[i + 1] * vt.c[i + 1] - r[i - 1] * vt.c[i - 1]) * sp.inv_2dr
                        - (vr.s[i] - vr.n[i]) * sp.inv_2dt);
                out.set(i, j, k, w_r * ax_r + w_t * ax_t + w_p * ax_p);
            }
        }
    }
    out
}

/// An equatorial slice sampled on `nr × nphi` points: per radial node, a
/// ring of uniformly spaced global longitudes.
#[derive(Debug, Clone)]
pub struct EquatorialField {
    /// Radial node positions.
    pub r: Vec<f64>,
    /// Global longitudes in `(−π, π]`, uniformly spaced.
    pub phi: Vec<f64>,
    /// `values[i][m]` at radius `r[i]`, longitude `phi[m]`.
    pub values: Vec<Vec<f64>>,
}

/// The bilinear stencil of the panel covering one direction: the donor
/// cell `(jd, kd)` and the fractional offsets `(fy, fx)` in θ and φ.
struct Bilinear<'a> {
    arr: &'a Array3,
    jd: isize,
    kd: isize,
    fy: f64,
    fx: f64,
}

impl<'a> Bilinear<'a> {
    /// Stencil at direction `p`, on Yin if its nominal span covers `p`
    /// and on Yang otherwise. `None` when the chosen panel's grid does
    /// not contain the point.
    fn covering(
        yin: &'a Array3,
        yang: &'a Array3,
        grid: &PatchGrid,
        map: &YinYangMap,
        p: SphericalPoint,
    ) -> Option<Self> {
        let (arr, theta, lon) = if PatchGrid::in_nominal_span(p.theta, p.phi) {
            (yin, p.theta, p.phi)
        } else {
            let q = map.transform_point(p);
            (yang, q.theta, q.phi)
        };
        let (jd, fy) = grid.theta().locate(theta, 1e-9)?;
        let (kd, fx) = grid.phi().locate(lon, 1e-9)?;
        Some(Bilinear { arr, jd: jd as isize, kd: kd as isize, fy, fx })
    }

    /// The blended value at radial index `i`.
    fn at(&self, i: usize) -> f64 {
        let Bilinear { arr, jd, kd, fy, fx } = *self;
        (1.0 - fy) * (1.0 - fx) * arr.at(i, jd, kd)
            + fy * (1.0 - fx) * arr.at(i, jd + 1, kd)
            + (1.0 - fy) * fx * arr.at(i, jd, kd + 1)
            + fy * fx * arr.at(i, jd + 1, kd + 1)
    }
}

/// Sample a scalar stored on both panels (e.g. temperature, a global
/// Cartesian velocity component, axial vorticity) on the equatorial
/// plane. Per direction, the panel whose *nominal* span covers it is
/// chosen — the paper's "pick one of the two solutions" rule.
pub fn sample_equatorial(
    yin: &Array3,
    yang: &Array3,
    grid: &PatchGrid,
    nphi: usize,
) -> EquatorialField {
    let map = YinYangMap::new();
    let nr = grid.spec().nr;
    let r: Vec<f64> = grid.r().coords().collect();
    let mut phi = Vec::with_capacity(nphi);
    let mut values = vec![Vec::with_capacity(nphi); nr];
    for m in 0..nphi {
        let phi_g = -std::f64::consts::PI + std::f64::consts::TAU * m as f64 / nphi as f64;
        phi.push(phi_g);
        let p = SphericalPoint::new(1.0, std::f64::consts::FRAC_PI_2, phi_g);
        // Yin's nominal span and Yang's image of its complement cover the
        // sphere, and the grid's owned span contains the nominal one.
        let cell = Bilinear::covering(yin, yang, grid, &map, p)
            .expect("equator must be covered by the chosen panel");
        for (i, col) in values.iter_mut().enumerate() {
            col.push(cell.at(i));
        }
    }
    EquatorialField { r, phi, values }
}

/// Sample a scalar on a meridional great circle (the plane containing
/// the polar axis and longitude `phi_g`): returns an [`EquatorialField`]
/// whose "phi" coordinate is the position angle around the circle
/// (0 = north pole, π/2 = equator at `phi_g`, π = south pole,
/// 3π/2 = equator at `phi_g + π`). The polar caps are outside the Yin
/// nominal span, so this slice necessarily exercises the Yang panel —
/// a meridional composite is the complementary test to the equatorial
/// one.
pub fn sample_meridional(
    yin: &Array3,
    yang: &Array3,
    grid: &PatchGrid,
    nsamples: usize,
    phi_g: f64,
) -> EquatorialField {
    let map = YinYangMap::new();
    let nr = grid.spec().nr;
    let r: Vec<f64> = grid.r().coords().collect();
    let mut angle = Vec::with_capacity(nsamples);
    let mut values = vec![Vec::with_capacity(nsamples); nr];
    for m in 0..nsamples {
        let alpha = std::f64::consts::TAU * m as f64 / nsamples as f64;
        angle.push(alpha);
        // Position angle → (θ, φ) on the great circle.
        let (theta, phi) = if alpha <= std::f64::consts::PI {
            (alpha, phi_g)
        } else {
            (
                std::f64::consts::TAU - alpha,
                geomath::spherical::wrap_longitude(phi_g + std::f64::consts::PI),
            )
        };
        let p = SphericalPoint::new(1.0, theta, phi);
        // Covered for the same reason as `sample_equatorial`'s points.
        let cell = Bilinear::covering(yin, yang, grid, &map, p)
            .expect("meridian must be covered by the chosen panel");
        for (i, col) in values.iter_mut().enumerate() {
            col.push(cell.at(i));
        }
    }
    EquatorialField { r, phi: angle, values }
}

impl EquatorialField {
    /// The ring at the radial node closest to mid-shell.
    pub fn mid_shell_ring(&self) -> &[f64] {
        &self.values[self.r.len() / 2]
    }

    /// Maximum |value| over the slice.
    pub fn max_abs(&self) -> f64 {
        self.values
            .iter()
            .flat_map(|ring| ring.iter())
            .fold(0.0_f64, |m, &v| m.max(v.abs()))
    }

    /// CSV rendering: `r,phi,value` rows.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("r,phi,value\n");
        for (i, ring) in self.values.iter().enumerate() {
            for (m, v) in ring.iter().enumerate() {
                out.push_str(&format!("{:.6},{:.6},{:.8e}\n", self.r[i], self.phi[m], v));
            }
        }
        out
    }
}

/// Count convection columns from the sign structure of an equatorial
/// vorticity ring: the number of contiguous same-sign segments whose
/// amplitude exceeds `threshold_frac · max|ω|`. Cyclone/anticyclone pairs
/// alternate, so this equals the paper's "number of convection columns".
pub fn count_convection_columns(ring: &[f64], threshold_frac: f64) -> usize {
    let max = ring.iter().fold(0.0_f64, |m, &v| m.max(v.abs()));
    if max == 0.0 {
        return 0;
    }
    let thr = threshold_frac * max;
    // Walk the ring, tracking the sign of the last significant sample.
    let mut segments = 0;
    let mut last_sign = 0i8;
    let mut first_sign = 0i8;
    for &v in ring {
        if v.abs() < thr {
            continue;
        }
        let s = if v > 0.0 { 1 } else { -1 };
        if s != last_sign {
            segments += 1;
            last_sign = s;
            if first_sign == 0 {
                first_sign = s;
            }
        }
    }
    // The ring wraps: if it ends in the same sign it started with, the
    // first and last segments are one.
    if segments > 1 && last_sign == first_sign {
        segments -= 1;
    }
    segments
}

/// Map `v ∈ [−1, 1]` onto a blue–white–red diverging colormap.
pub fn diverging_rgb(v: f64) -> (u8, u8, u8) {
    let v = v.clamp(-1.0, 1.0);
    let t = v.abs();
    let (full, faded) = (255.0, 255.0 * (1.0 - t));
    if v >= 0.0 {
        (full as u8, faded as u8, faded as u8)
    } else {
        (faded as u8, faded as u8, full as u8)
    }
}

/// Render the outer-shell surface of a scalar (sampled at radial index
/// `ri_index`) in orthographic projection from view direction
/// `(view_lat, view_lon)` (radians) — the style of the paper's Fig. 2(b)
/// "viewed from 45°N". Chooses the covering panel per pixel, so the image
/// spans both panels seamlessly.
#[allow(clippy::too_many_arguments)]
pub fn orthographic_shell_ppm(
    yin: &Array3,
    yang: &Array3,
    grid: &PatchGrid,
    ri_index: usize,
    view_lat: f64,
    view_lon: f64,
    path: &Path,
    size: usize,
) -> io::Result<()> {
    let map = YinYangMap::new();
    // View basis: `e3` towards the viewer, `e1`/`e2` span the image plane.
    let e3 = geomath::Vec3::new(
        view_lat.cos() * view_lon.cos(),
        view_lat.cos() * view_lon.sin(),
        view_lat.sin(),
    );
    let up = geomath::Vec3::new(0.0, 0.0, 1.0);
    let e1 = {
        let c = up.cross(e3);
        if c.norm() < 1e-9 {
            geomath::Vec3::new(1.0, 0.0, 0.0)
        } else {
            c.normalized()
        }
    };
    let e2 = e3.cross(e1);

    // First pass: sample values and find the scale.
    let mut vals = vec![None; size * size];
    let mut vmax = 0.0_f64;
    let half = size as f64 / 2.0;
    for py in 0..size {
        for px in 0..size {
            let u = (px as f64 + 0.5 - half) / half;
            let v = (half - py as f64 - 0.5) / half;
            let rho2 = u * u + v * v;
            if rho2 > 1.0 {
                continue;
            }
            let w = (1.0 - rho2).sqrt();
            let dir = e1 * u + e2 * v + e3 * w; // front hemisphere point
            let p = SphericalPoint::from_cartesian(dir);
            let Some(cell) = Bilinear::covering(yin, yang, grid, &map, p) else {
                continue;
            };
            let sample = cell.at(ri_index);
            vmax = vmax.max(sample.abs());
            vals[py * size + px] = Some(sample);
        }
    }
    let vmax = vmax.max(1e-300);
    let pixels: Vec<(u8, u8, u8)> = vals
        .into_iter()
        .map(|v| match v {
            Some(x) => diverging_rgb(x / vmax),
            None => (255, 255, 255),
        })
        .collect();
    write_ppm(path, size, size, &pixels)
}

/// Write a binary PPM (P6) image.
pub fn write_ppm(path: &Path, width: usize, height: usize, pixels: &[(u8, u8, u8)]) -> io::Result<()> {
    assert_eq!(pixels.len(), width * height);
    let mut w = io::BufWriter::new(std::fs::File::create(path)?);
    write!(w, "P6\n{width} {height}\n255\n")?;
    let mut bytes = Vec::with_capacity(pixels.len() * 3);
    for &(r, g, b) in pixels {
        bytes.extend_from_slice(&[r, g, b]);
    }
    w.write_all(&bytes)?;
    w.flush()
}

/// Render an equatorial slice as a disk image (view from the north, as in
/// Fig. 2a): white outside the shell, diverging colormap inside.
pub fn equatorial_disk_ppm(field: &EquatorialField, path: &Path, size: usize) -> io::Result<()> {
    let max = field.max_abs().max(1e-300);
    // Non-empty, as `r[0]` beside it needs: the samplers fill `r` from the grid's radial nodes.
    let (ri, ro) = (field.r[0], *field.r.last().expect("radial nodes"));
    let nphi = field.phi.len();
    let mut pixels = vec![(255u8, 255u8, 255u8); size * size];
    let half = size as f64 / 2.0;
    for py in 0..size {
        for px in 0..size {
            let x = (px as f64 + 0.5 - half) / half * ro;
            let y = (half - py as f64 - 0.5) / half * ro;
            let r = (x * x + y * y).sqrt();
            if r < ri || r > ro {
                continue;
            }
            let phi = y.atan2(x);
            // Nearest radial node and ring sample.
            let fi = (r - ri) / (ro - ri) * (field.r.len() - 1) as f64;
            let i = (fi.round() as usize).min(field.r.len() - 1);
            let fm = (phi + std::f64::consts::PI) / std::f64::consts::TAU * nphi as f64;
            let m = (fm.round() as usize) % nphi;
            pixels[py * size + px] = diverging_rgb(field.values[i][m] / max);
        }
    }
    write_ppm(path, size, size, &pixels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RunConfig;
    use crate::serial::SerialSim;
    use geomath::Vec3;

    #[test]
    fn temperature_is_p_over_rho() {
        let sim = SerialSim::new(RunConfig::small());
        let t = temperature(&sim.yin);
        let want = sim.yin.press.at(3, 2, 2) / sim.yin.rho.at(3, 2, 2);
        assert_eq!(t.at(3, 2, 2), want);
    }

    #[test]
    fn equatorial_sampling_is_continuous_across_panels() {
        // Sample a smooth global scalar (temperature of the conductive
        // state) around the full equator: values must be smooth through
        // the Yin↔Yang hand-off longitudes (±3π/4).
        let sim = SerialSim::new(RunConfig::small());
        let t_yin = temperature(&sim.yin);
        let t_yang = temperature(&sim.yang);
        let eq = sample_equatorial(&t_yin, &t_yang, &sim.grid, 256);
        let ring = eq.mid_shell_ring();
        // The conductive profile is angle-independent: the whole ring is
        // one value up to interpolation error.
        let mean: f64 = ring.iter().sum::<f64>() / ring.len() as f64;
        for &v in ring {
            assert!((v - mean).abs() < 1e-2 * mean.abs(), "ring value {v} vs mean {mean}");
        }
    }

    #[test]
    fn velocity_conversion_round_trips_a_known_flow() {
        // Solid-body rotation about the global z axis: v = Ω ẑ × r.
        // Build it on the *Yang* panel in local spherical components and
        // check the global Cartesian output matches Ω ẑ × r.
        let cfg = RunConfig::small();
        let sim = SerialSim::new(cfg);
        let grid = &sim.grid;
        let mut state = State::zeros(grid.full_shape());
        state.rho.fill(1.0);
        state.press.fill(1.0);
        let axis = rotation_axis(Panel::Yang); // global ẑ in Yang frame
        let shape = state.shape();
        for k in 0..shape.nph as isize {
            for j in 0..shape.nth as isize {
                let theta = grid.theta().coord_signed(j);
                let phi = grid.phi().coord_signed(k);
                let basis = SphericalBasis::at(theta, phi);
                for i in 0..shape.nr {
                    let pos = SphericalPoint::new(grid.r().coord(i), theta, phi).to_cartesian();
                    let v = axis.cross(pos); // Ω = 1
                    let (vr, vt, vp) = basis.from_cartesian(v);
                    state.f.r.set(i, j, k, vr);
                    state.f.t.set(i, j, k, vt);
                    state.f.p.set(i, j, k, vp);
                }
            }
        }
        let [vx, vy, vz] = velocity_global_cartesian(&state, grid, Panel::Yang);
        // Check a few nodes against the global formula v = ẑ × x_global.
        let map = YinYangMap::new();
        for &(i, j, k) in &[(2usize, 3isize, 4isize), (5, 8, 20), (10, 10, 40)] {
            let p_local =
                SphericalPoint::new(grid.r().coord(i), grid.theta().coord(j as usize), grid.phi().coord(k as usize));
            let x_global = map.transform_point(p_local).to_cartesian();
            let expect = Vec3::new(0.0, 0.0, 1.0).cross(x_global);
            assert!((vx.at(i, j, k) - expect.x).abs() < 1e-10);
            assert!((vy.at(i, j, k) - expect.y).abs() < 1e-10);
            assert!((vz.at(i, j, k) - expect.z).abs() < 1e-10);
        }
    }

    #[test]
    fn axial_vorticity_of_solid_rotation_is_two_omega() {
        // v = ẑ × r (global) has ω = ∇×v = 2ẑ, so ω·ẑ = 2 everywhere.
        for panel in [Panel::Yin, Panel::Yang] {
            let sim = SerialSim::new(RunConfig::small());
            let grid = &sim.grid;
            let metric = Metric::full(grid);
            let mut state = State::zeros(grid.full_shape());
            state.rho.fill(1.0);
            state.press.fill(1.0);
            let axis = rotation_axis(panel);
            let shape = state.shape();
            let (gth, gph) = (shape.gth as isize, shape.gph as isize);
            for k in -gph..(shape.nph as isize + gph) {
                for j in -gth..(shape.nth as isize + gth) {
                    let theta = grid.theta().coord_signed(j);
                    let phi = grid.phi().coord_signed(k);
                    let basis = SphericalBasis::at(theta, phi);
                    for i in 0..shape.nr {
                        let pos =
                            SphericalPoint::new(grid.r().coord(i), theta, phi).to_cartesian();
                        let v = axis.cross(pos);
                        let (vr, vt, vp) = basis.from_cartesian(v);
                        state.f.r.set(i, j, k, vr);
                        state.f.t.set(i, j, k, vt);
                        state.f.p.set(i, j, k, vp);
                    }
                }
            }
            let wz = axial_vorticity(&state, grid, &metric, panel);
            let range = yy_mhd::rhs::InteriorRange::full_panel(grid);
            for k in range.k0..range.k1 {
                for j in range.j0..range.j1 {
                    for i in range.i0..range.i1 {
                        assert!(
                            (wz.at(i, j, k) - 2.0).abs() < 2e-2,
                            "ω_z = {} at ({i},{j},{k}) on {panel:?}",
                            wz.at(i, j, k)
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn meridional_sampling_crosses_the_poles_smoothly() {
        // The conductive temperature is angle-independent: the meridional
        // ring must be constant through both polar caps (which only the
        // Yang panel covers) and through every panel hand-off.
        let sim = SerialSim::new(RunConfig::small());
        let t_yin = temperature(&sim.yin);
        let t_yang = temperature(&sim.yang);
        let mer = sample_meridional(&t_yin, &t_yang, &sim.grid, 256, 0.3);
        let ring = mer.mid_shell_ring();
        let mean: f64 = ring.iter().sum::<f64>() / ring.len() as f64;
        for (m, &v) in ring.iter().enumerate() {
            assert!(
                (v - mean).abs() < 1e-2 * mean.abs(),
                "meridional sample {m}: {v} vs mean {mean}"
            );
        }
        // Position angles cover the full circle.
        assert!(mer.phi.first().copied() == Some(0.0));
        assert!(*mer.phi.last().unwrap() < std::f64::consts::TAU);
    }

    #[test]
    fn column_counting_on_synthetic_rings() {
        // m-fold alternating pattern → m segments.
        let ring: Vec<f64> =
            (0..360).map(|d| (6.0 * (d as f64).to_radians()).sin()).collect();
        assert_eq!(count_convection_columns(&ring, 0.1), 12);
        // All positive → one segment.
        let ring: Vec<f64> = (0..360).map(|_| 1.0).collect();
        assert_eq!(count_convection_columns(&ring, 0.1), 1);
        // Zero field → none.
        assert_eq!(count_convection_columns(&vec![0.0; 100], 0.1), 0);
    }

    #[test]
    fn colormap_endpoints() {
        assert_eq!(diverging_rgb(1.0), (255, 0, 0));
        assert_eq!(diverging_rgb(-1.0), (0, 0, 255));
        assert_eq!(diverging_rgb(0.0), (255, 255, 255));
    }

    #[test]
    fn ppm_and_csv_outputs_work() {
        let sim = SerialSim::new(RunConfig::small());
        let t_yin = temperature(&sim.yin);
        let t_yang = temperature(&sim.yang);
        let eq = sample_equatorial(&t_yin, &t_yang, &sim.grid, 64);
        let csv = eq.to_csv();
        assert!(csv.lines().count() > 64);
        let dir = std::env::temp_dir().join("yycore_snap_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("eq.ppm");
        equatorial_disk_ppm(&eq, &path, 64).unwrap();
        let meta = std::fs::metadata(&path).unwrap();
        assert!(meta.len() > 64 * 64 * 3 as u64);
        std::fs::remove_file(&path).ok();
    }
}
