//! Energy and field diagnostics.
//!
//! §V of the paper follows the time development of the convection and
//! magnetic energies until both saturate. These integrals are the primary
//! scientific output of a run:
//!
//! * kinetic energy   `E_kin = ∫ |f|²/(2ρ) dV`
//! * magnetic energy  `E_mag = ∫ |B|²/2 dV`
//! * thermal energy   `E_th = ∫ p/(γ−1) dV`
//! * total mass       `M = ∫ ρ dV`
//!
//! Integrals run over the tile's owned nodes with trapezoid weights, so
//! parallel partial sums reproduce the serial sum exactly when reduced in
//! rank order. Note the Yin-Yang caveat: summing both panels counts the
//! overlap region (≈ 6 % of the sphere plus the extension) twice. For the
//! time-series *shape* this constant factor is irrelevant;
//! [`overlap_normalization`] corrects it on average, and
//! [`compute_diagnostics`] given `yy_mesh::dedup_column_weights` counts
//! every region once.

use crate::params::PhysParams;
use crate::state::State;
use geomath::quadrature::trapezoid_weights;
use yy_mesh::{Metric, PatchGrid, Tile};

/// Scalar diagnostics of one tile (or panel). Combine across tiles/panels
/// by summation of the energies and max of the maxima.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Diagnostics {
    /// Kinetic energy `∫ |f|²/(2ρ) dV`.
    pub kinetic: f64,
    /// Magnetic energy `∫ |B|²/2 dV` (FD-interior region).
    pub magnetic: f64,
    /// Thermal energy `∫ p/(γ−1) dV`.
    pub thermal: f64,
    /// Total mass `∫ ρ dV`.
    pub mass: f64,
    /// Maximum flow speed `max |v|`.
    pub max_speed: f64,
    /// Maximum field strength `max |B|`.
    pub max_b: f64,
}

impl Diagnostics {
    /// Combine with another tile's diagnostics.
    pub fn merged(self, o: Diagnostics) -> Diagnostics {
        Diagnostics {
            kinetic: self.kinetic + o.kinetic,
            magnetic: self.magnetic + o.magnetic,
            thermal: self.thermal + o.thermal,
            mass: self.mass + o.mass,
            max_speed: self.max_speed.max(o.max_speed),
            max_b: self.max_b.max(o.max_b),
        }
    }

    /// Pack into a flat vector for an allreduce (sums first, maxima last).
    pub fn to_vec(self) -> Vec<f64> {
        vec![self.kinetic, self.magnetic, self.thermal, self.mass, self.max_speed, self.max_b]
    }

    /// Unpack from [`Diagnostics::to_vec`] layout.
    pub fn from_slice(v: &[f64]) -> Diagnostics {
        Diagnostics {
            kinetic: v[0],
            magnetic: v[1],
            thermal: v[2],
            mass: v[3],
            max_speed: v[4],
            max_b: v[5],
        }
    }
}

/// Ratio `4π / (2 · patch solid angle)` — multiply two-panel energy sums
/// by this to renormalize the double-counted overlap on average.
pub fn overlap_normalization(grid: &PatchGrid) -> f64 {
    let phi_span = grid.phi().max() - grid.phi().min();
    let cap = grid.theta().min().cos() - grid.theta().max().cos();
    4.0 * std::f64::consts::PI / (2.0 * phi_span * cap)
}

/// Compute the diagnostics of one tile.
///
/// `tile = None` treats `state` as a full panel. B is evaluated with the
/// solver's stencils over the FD interior (frame and wall values excluded
/// from `max_b` and `magnetic`; their measure is O(h) of the total).
///
/// `weights`, when given, holds one factor per panel column (`j · nph +
/// k`, panel interior coordinates) on every integral: with
/// `yy_mesh::dedup_column_weights`, the sum over both panels counts every
/// region of the shell exactly once instead of the overlap twice. `None`
/// is the unit weight, bit for bit.
///
/// The two maxima fold the squares and take one square root at the end:
/// sqrt is monotone and correctly rounded, so `√max(x)` is `max(√x)`
/// bit for bit (NaN and negative nodes lose to the `+0.0` start either
/// way).
pub fn compute_diagnostics(
    state: &State,
    grid: &PatchGrid,
    metric: &Metric,
    tile: Option<&Tile>,
    params: &PhysParams,
    range: &crate::rhs::InteriorRange,
    weights: Option<&[f64]>,
) -> Diagnostics {
    use crate::ops::{ColGeom, Cols, Spacings};
    let shape = state.shape();
    let (_, nth, nph) = grid.dims();
    if let Some(w) = weights {
        assert_eq!(w.len(), nth * nph, "one weight per panel column");
    }
    let (j_off, k_off) = tile.map_or((0, 0), |t| (t.j0, t.k0));
    // Global trapezoid weights restricted to this tile.
    let wr_full = trapezoid_weights(grid.r());
    let wt_full = trapezoid_weights(grid.theta());
    let wp_full = trapezoid_weights(grid.phi());
    let sp = Spacings::new(metric.dr, metric.dth, metric.dph);
    let r = &metric.r;
    let gm1 = params.gamma - 1.0;

    let mut d = Diagnostics::default();
    let (mut max_v2, mut max_b2) = (0.0f64, 0.0f64);
    for k in 0..shape.nph as isize {
        let gk = (k + k_off as isize) as usize;
        let wk = wp_full[gk];
        for j in 0..shape.nth as isize {
            let gj = (j + j_off as isize) as usize;
            // x · 1.0 is x exactly, so the unweighted sum keeps its bits.
            let wcol = weights.map_or(1.0, |w| w[gj * nph + gk]);
            let wj = wt_full[gj] * metric.sin_t(j) * wcol;
            let g = ColGeom::new(metric, j);
            let rho = state.rho.row(j, k);
            let prs = state.press.row(j, k);
            let fr = state.f.r.row(j, k);
            let ft = state.f.t.row(j, k);
            let fp = state.f.p.row(j, k);
            let ar = Cols::new(&state.a.r, j, k);
            let at = Cols::new(&state.a.t, j, k);
            let ap = Cols::new(&state.a.p, j, k);
            let in_b_range =
                j >= range.j0 && j < range.j1 && k >= range.k0 && k < range.k1;
            for i in 0..shape.nr {
                let w = wr_full[i] * r[i] * r[i] * wj * wk;
                let f2 = fr[i] * fr[i] + ft[i] * ft[i] + fp[i] * fp[i];
                d.kinetic += w * 0.5 * f2 / rho[i];
                d.thermal += w * prs[i] / gm1;
                d.mass += w * rho[i];
                max_v2 = max_v2.max(f2 / (rho[i] * rho[i]));
                if in_b_range && i >= range.i0 && i < range.i1 {
                    let ir = metric.inv_r[i];
                    let b_r = ir * g.inv_sin
                        * ((g.sin_s * ap.s[i] - g.sin_n * ap.n[i]) * sp.inv_2dt
                            - (at.e[i] - at.w[i]) * sp.inv_2dp);
                    let b_t = ir
                        * (g.inv_sin * (ar.e[i] - ar.w[i]) * sp.inv_2dp
                            - (r[i + 1] * ap.c[i + 1] - r[i - 1] * ap.c[i - 1]) * sp.inv_2dr);
                    let b_p = ir
                        * ((r[i + 1] * at.c[i + 1] - r[i - 1] * at.c[i - 1]) * sp.inv_2dr
                            - (ar.s[i] - ar.n[i]) * sp.inv_2dt);
                    let b2 = b_r * b_r + b_t * b_t + b_p * b_p;
                    d.magnetic += w * 0.5 * b2;
                    max_b2 = max_b2.max(b2);
                }
            }
        }
    }
    d.max_speed = max_v2.sqrt();
    d.max_b = max_b2.sqrt();
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::{initialize, InitOptions};
    use crate::rhs::InteriorRange;
    use geomath::approx_eq;
    use yy_mesh::{Decomp2D, Panel, PatchSpec};

    fn setup() -> (PatchGrid, Metric, State, PhysParams) {
        let grid = PatchGrid::new(PatchSpec::equal_spacing(12, 13, 0.35, 1.0));
        let metric = Metric::full(&grid);
        let params = PhysParams::default_laptop();
        let mut state = State::zeros(grid.full_shape());
        initialize(&mut state, &grid, None, &params, &InitOptions::default(), Panel::Yin);
        (grid, metric, state, params)
    }

    #[test]
    fn static_state_has_no_kinetic_or_magnetic_energy_to_leading_order() {
        let (grid, metric, state, params) = setup();
        let range = InteriorRange::full_panel(&grid);
        let d = compute_diagnostics(&state, &grid, &metric, None, &params, &range, None);
        assert_eq!(d.kinetic, 0.0);
        assert!(d.magnetic < 1e-6, "seed magnetic energy should be tiny: {}", d.magnetic);
        assert!(d.thermal > 0.0);
        assert!(d.mass > 0.0);
        assert_eq!(d.max_speed, 0.0);
    }

    #[test]
    fn kinetic_energy_of_uniform_flow_matches_half_mv2() {
        let (grid, metric, mut state, params) = setup();
        state.f.p.fill(0.0);
        // Uniform vφ = 0.3 with ρ from the profile: f = ρ·0.3 ⇒
        // E_kin = ∫ ρ v²/2 = 0.045 ∫ρ = 0.045 · mass.
        let shape = state.shape();
        for k in 0..shape.nph as isize {
            for j in 0..shape.nth as isize {
                for i in 0..shape.nr {
                    let rho = state.rho.at(i, j, k);
                    state.f.p.set(i, j, k, rho * 0.3);
                }
            }
        }
        let range = InteriorRange::full_panel(&grid);
        let d = compute_diagnostics(&state, &grid, &metric, None, &params, &range, None);
        assert!(approx_eq(d.kinetic, 0.5 * 0.09 * d.mass, 1e-10));
        assert!(approx_eq(d.max_speed, 0.3, 1e-12));
    }

    #[test]
    fn uniform_b_magnetic_energy_density_is_half_b2() {
        let (grid, metric, mut state, params) = setup();
        // A = r sinθ φ̂ → B = 2ẑ, |B|² = 4, density 2.
        let shape = state.shape();
        for k in -1..(shape.nph as isize + 1) {
            for j in -1..(shape.nth as isize + 1) {
                let st = grid.theta().coord_signed(j).sin();
                for i in 0..shape.nr {
                    state.a.p.set(i, j, k, grid.r().coord(i) * st);
                }
            }
        }
        let range = InteriorRange::full_panel(&grid);
        let d = compute_diagnostics(&state, &grid, &metric, None, &params, &range, None);
        assert!(approx_eq(d.max_b, 2.0, 1e-3), "max_b {}", d.max_b);
        // Energy = 2 × (measure of the FD-interior region over which B is
        // accumulated); build that measure from the same weights.
        let wr = trapezoid_weights(grid.r());
        let wt = trapezoid_weights(grid.theta());
        let wp = trapezoid_weights(grid.phi());
        let mut vol = 0.0;
        for k in range.k0..range.k1 {
            for j in range.j0..range.j1 {
                let wjk = wt[j as usize] * metric.sin_t(j) * wp[k as usize];
                for i in range.i0..range.i1 {
                    vol += wr[i] * metric.r[i] * metric.r[i] * wjk;
                }
            }
        }
        assert!(
            (d.magnetic / (2.0 * vol) - 1.0).abs() < 1e-2,
            "magnetic {} vs 2·vol {}",
            d.magnetic,
            2.0 * vol
        );
    }

    #[test]
    fn tile_sums_reproduce_full_panel_sums() {
        let (grid, metric, state, params) = setup();
        let full_range = InteriorRange::full_panel(&grid);
        let full = compute_diagnostics(&state, &grid, &metric, None, &params, &full_range, None);
        let d = Decomp2D::new(2, 2, &grid);
        let mut merged = Diagnostics::default();
        for rank in 0..4 {
            let t = d.tile(rank);
            let mut local = State::zeros(t.shape(&grid));
            initialize(&mut local, &grid, Some(&t), &params, &InitOptions::default(), Panel::Yin);
            // Fill tile ghosts from the full state so B stencils match.
            let (gth, gph) = (1_isize, 1);
            for k in -gph..(t.nph as isize + gph) {
                for j in -gth..(t.nth as isize + gth) {
                    let gj = j + t.j0 as isize;
                    let gk = k + t.k0 as isize;
                    if gj < 0
                        || gj >= grid.dims().1 as isize
                        || gk < 0
                        || gk >= grid.dims().2 as isize
                    {
                        continue;
                    }
                    for i in 0..12 {
                        for (dst, src) in
                            local.arrays_mut().into_iter().zip(state.arrays().into_iter())
                        {
                            dst.set(i, j, k, src.at(i, gj, gk));
                        }
                    }
                }
            }
            let tm = Metric::new(&grid, &t);
            let range = InteriorRange::for_tile(&grid, &t);
            merged = merged.merged(compute_diagnostics(
                &local, &grid, &tm, Some(&t), &params, &range, None,
            ));
        }
        assert!(approx_eq(merged.kinetic, full.kinetic, 1e-12));
        assert!(approx_eq(merged.thermal, full.thermal, 1e-12));
        assert!(approx_eq(merged.mass, full.mass, 1e-12));
        assert!(approx_eq(merged.magnetic, full.magnetic, 1e-10));
        assert!(approx_eq(merged.max_b, full.max_b, 1e-12));
    }

    /// The per-node form the two maxima replaced: `max(√x)` over the
    /// nodes, B from the solver's curl stencils on `range`.
    fn per_node_maxima(state: &State, metric: &Metric, range: &InteriorRange) -> (f64, f64) {
        use crate::ops::{ColGeom, Cols, Spacings};
        let sp = Spacings::new(metric.dr, metric.dth, metric.dph);
        let (r, shape) = (&metric.r, state.shape());
        let (mut max_speed, mut max_b) = (0.0f64, 0.0f64);
        for k in 0..shape.nph as isize {
            for j in 0..shape.nth as isize {
                let g = ColGeom::new(metric, j);
                let [ar, at, ap] = [&state.a.r, &state.a.t, &state.a.p].map(|a| Cols::new(a, j, k));
                for i in 0..shape.nr {
                    let (rho, fr, ft, fp) = (
                        state.rho.at(i, j, k),
                        state.f.r.at(i, j, k),
                        state.f.t.at(i, j, k),
                        state.f.p.at(i, j, k),
                    );
                    let f2 = fr * fr + ft * ft + fp * fp;
                    max_speed = max_speed.max((f2 / (rho * rho)).sqrt());
                    let inside = (range.j0..range.j1).contains(&j)
                        && (range.k0..range.k1).contains(&k)
                        && (range.i0..range.i1).contains(&i);
                    if inside {
                        let ir = metric.inv_r[i];
                        let b_r = ir * g.inv_sin
                            * ((g.sin_s * ap.s[i] - g.sin_n * ap.n[i]) * sp.inv_2dt
                                - (at.e[i] - at.w[i]) * sp.inv_2dp);
                        let b_t = ir
                            * (g.inv_sin * (ar.e[i] - ar.w[i]) * sp.inv_2dp
                                - (r[i + 1] * ap.c[i + 1] - r[i - 1] * ap.c[i - 1]) * sp.inv_2dr);
                        let b_p = ir
                            * ((r[i + 1] * at.c[i + 1] - r[i - 1] * at.c[i - 1]) * sp.inv_2dr
                                - (ar.s[i] - ar.n[i]) * sp.inv_2dt);
                        max_b = max_b.max((b_r * b_r + b_t * b_t + b_p * b_p).sqrt());
                    }
                }
            }
        }
        (max_speed, max_b)
    }

    /// The setup state with seeded noise in f and A: flow and field
    /// everywhere, so no maximum is a tie of zeros.
    fn noisy() -> (PatchGrid, Metric, State, PhysParams) {
        let (grid, metric, mut state, params) = setup();
        let mut rng = geomath::rng::DetRng::seed_from_u64(0x5eed_0d1a);
        for a in [&mut state.f.r, &mut state.f.t, &mut state.f.p, &mut state.a.r, &mut state.a.t] {
            a.data_mut().iter_mut().for_each(|x| *x = rng.range_f64(-0.3, 0.3));
        }
        (grid, metric, state, params)
    }

    /// One root per maximum equals the per-node roots bit for bit: on a
    /// noisy state, and on an all-zero state, where every speed is
    /// 0/0 = NaN and every |B| is 0 — both maxima must stay `+0.0`.
    #[test]
    fn root_of_the_maxima_matches_the_per_node_roots() {
        let (grid, metric, state, params) = noisy();
        let range = InteriorRange::full_panel(&grid);
        let zero = State::zeros(state.shape());
        for (what, state) in [("noisy", &state), ("zero", &zero)] {
            let d = compute_diagnostics(state, &grid, &metric, None, &params, &range, None);
            let (max_speed, max_b) = per_node_maxima(state, &metric, &range);
            assert_eq!(d.max_speed.to_bits(), max_speed.to_bits(), "{what}: max_speed");
            assert_eq!(d.max_b.to_bits(), max_b.to_bits(), "{what}: max_b");
            if what == "zero" {
                assert_eq!((d.max_speed.to_bits(), d.max_b.to_bits()), (0, 0), "+0.0 both");
            } else {
                assert!(d.max_speed > 0.0 && d.max_b > 0.0, "{what}: {d:?}");
            }
        }
    }

    /// Column weights scale the integrals, B's included, and never the
    /// maxima: unit weights give the unweighted bits, and a weight of ½
    /// halves every sum exactly (a power-of-two scale rounds nothing).
    #[test]
    fn column_weights_scale_the_integrals_not_the_maxima() {
        let (grid, metric, state, params) = noisy();
        let range = InteriorRange::full_panel(&grid);
        let diag = |w: Option<&[f64]>| {
            compute_diagnostics(&state, &grid, &metric, None, &params, &range, w).to_vec()
        };
        let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        let d = diag(None);
        let columns = grid.dims().1 * grid.dims().2;
        assert_eq!(bits(diag(Some(&vec![1.0; columns]))), bits(d.clone()), "unit weights");
        let half = diag(Some(&vec![0.5; columns]));
        // `to_vec` order: the four sums, then the two maxima.
        let want: Vec<f64> =
            d.iter().enumerate().map(|(i, x)| if i < 4 { 0.5 * x } else { *x }).collect();
        assert_eq!(bits(half), bits(want), "kinetic, magnetic, thermal, mass halve; maxima stay");
        assert!(d[1] > 0.0 && d[5] > 0.0, "the noisy state has a field: {d:?}");
    }

    #[test]
    fn vec_round_trip() {
        let d = Diagnostics {
            kinetic: 1.0,
            magnetic: 2.0,
            thermal: 3.0,
            mass: 4.0,
            max_speed: 5.0,
            max_b: 6.0,
        };
        assert_eq!(Diagnostics::from_slice(&d.to_vec()), d);
    }

    #[test]
    fn overlap_normalization_is_slightly_below_one() {
        let (grid, ..) = setup();
        let f = overlap_normalization(&grid);
        // Two panels over-cover the sphere, so the factor is < 1; at this
        // coarse resolution the extension inflates coverage to ≈ 1.44×.
        assert!(f < 1.0 && f > 0.5, "normalization {f}");
    }
}
