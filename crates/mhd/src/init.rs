//! Initial conditions.
//!
//! The paper starts from a motionless conductive state, imposes a random
//! temperature perturbation, and plants an "infinitesimally small, random
//! seed of the magnetic field". We do the same:
//!
//! * temperature profile: the conductive solution `T(r) = a + b/r` of
//!   `∇²T = 0` with `T(ri) = t_inner`, `T(ro) = 1`;
//! * density/pressure: the hydrostatic balance `dp/dr = −ρ g0/r²` with
//!   `p = ρT`, integrated radially by RK4 from `ρ(ro) = 1` — so the
//!   unperturbed state is a *discrete near-equilibrium* and the simulation
//!   does not ring with spurious acoustics at start-up;
//! * pressure perturbation: node-keyed deterministic noise (identical for
//!   every domain decomposition);
//! * magnetic seed: node-keyed noise in A, zeroed at the walls.

use crate::params::PhysParams;
use crate::state::State;
use geomath::rk4::{rk4_step, Rk4Work};
use geomath::rng::{node_key, node_noise};
use geomath::Grid1D;
use yy_mesh::{Panel, PatchGrid, Tile};

/// The conductive temperature profile `T(r) = a + b/r`.
pub fn conductive_temperature(params: &PhysParams, r: f64) -> f64 {
    let b = (params.t_inner - 1.0) / (1.0 / params.ri - 1.0);
    let a = 1.0 - b;
    a + b / r
}

/// Hydrostatic `(ρ(r), p(r))` on the radial grid, integrating
/// `d(ln p)/dr = −g0 / (T(r) r²)` inward from `p(ro) = T(ro) = 1` with
/// one RK4 step per grid interval (the profile is smooth; RK4 over ~10²
/// nodes is far below the PDE discretization error).
pub fn hydrostatic_profile(params: &PhysParams, r_grid: &Grid1D) -> (Vec<f64>, Vec<f64>) {
    let nr = r_grid.len();
    let mut p: Vec<f64> = vec![0.0; nr];
    let mut rho = vec![0.0; nr];
    p[nr - 1] = 1.0; // ρ(ro) = 1, T(ro) = 1
    let mut work = Rk4Work::new(1);
    let mut y = [p[nr - 1].ln()];
    for i in (0..nr - 1).rev() {
        let r_hi = r_grid.coord(i + 1);
        let r_lo = r_grid.coord(i);
        rk4_step(r_hi, r_lo - r_hi, &mut y, &mut work, |r, _, dy| {
            dy[0] = -params.g0 / (conductive_temperature(params, r) * r * r);
        });
        p[i] = y[0].exp();
    }
    for i in 0..nr {
        rho[i] = p[i] / conductive_temperature(params, r_grid.coord(i));
    }
    (rho, p)
}

/// Perturbation controls.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InitOptions {
    /// Relative pressure (temperature) perturbation amplitude.
    pub perturb_amplitude: f64,
    /// Magnetic seed amplitude (absolute, in units where B ~ O(1) is a
    /// saturated dynamo).
    pub seed_amplitude: f64,
    /// Master RNG seed.
    pub seed: u64,
}

impl Default for InitOptions {
    fn default() -> Self {
        InitOptions { perturb_amplitude: 1e-3, seed_amplitude: 1e-5, seed: 20040415 }
    }
}

/// RNG stream ids for [`geomath::rng::node_noise`].
const STREAM_PRESSURE: u64 = 1;
const STREAM_A: u64 = 2; // streams 2, 3, 4 for the three components

/// Fill `state` with the initial condition. `tile = None` initializes a
/// full panel (serial); `Some(tile)` a tile of a decomposed panel.
/// Owned values depend only on *global* node indices, so every
/// decomposition produces the same physical state. Only owned nodes are
/// written: the padding is zero, and a driver's first sync fills the
/// part of it a stencil reads (halos, overset frames, walls). The rest,
/// the *leftover* cells, stays zero for the whole run.
pub fn initialize(
    state: &mut State,
    grid: &PatchGrid,
    tile: Option<&Tile>,
    params: &PhysParams,
    opts: &InitOptions,
    panel: Panel,
) {
    params.validate();
    let shape = state.shape();
    let (j_off, k_off) = tile.map_or((0, 0), |t| (t.j0, t.k0));
    let (rho_prof, p_prof) = hydrostatic_profile(params, grid.r());
    let nr = shape.nr;
    state.fill_zero();
    for k in 0..shape.nph as isize {
        for j in 0..shape.nth as isize {
            let key = |i| node_key(panel.index(), i, j as usize + j_off, k as usize + k_off);
            for i in 0..nr {
                state.rho.set(i, j, k, rho_prof[i]);
                state.press.set(i, j, k, p_prof[i]);
                // The walls keep the unperturbed profile and no seed.
                if i == 0 || i == nr - 1 {
                    continue;
                }
                if opts.perturb_amplitude > 0.0 {
                    let noise =
                        node_noise(opts.seed, STREAM_PRESSURE, key(i), opts.perturb_amplitude);
                    state.press.set(i, j, k, p_prof[i] * (1.0 + noise));
                }
                if opts.seed_amplitude > 0.0 {
                    let seed = |stream| node_noise(opts.seed, stream, key(i), opts.seed_amplitude);
                    state.a.r.set(i, j, k, seed(STREAM_A));
                    state.a.t.set(i, j, k, seed(STREAM_A + 1));
                    state.a.p.set(i, j, k, seed(STREAM_A + 2));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geomath::approx_eq;
    use yy_mesh::{Decomp2D, PatchSpec};

    fn grid() -> PatchGrid {
        PatchGrid::new(PatchSpec::equal_spacing(16, 13, 0.35, 1.0))
    }

    #[test]
    fn conductive_profile_hits_wall_temperatures() {
        let p = PhysParams::default_laptop();
        assert!(approx_eq(conductive_temperature(&p, p.ri), p.t_inner, 1e-12));
        assert!(approx_eq(conductive_temperature(&p, 1.0), 1.0, 1e-12));
        // Monotonic decrease outward.
        assert!(conductive_temperature(&p, 0.5) > conductive_temperature(&p, 0.9));
    }

    #[test]
    fn hydrostatic_profile_is_normalized_and_monotonic() {
        let params = PhysParams::default_laptop();
        let g = grid();
        let (rho, p) = hydrostatic_profile(&params, g.r());
        assert!(approx_eq(rho[15], 1.0, 1e-12));
        assert!(approx_eq(p[15], 1.0, 1e-12));
        // Pressure and density increase toward the interior.
        for i in 0..15 {
            assert!(p[i] > p[i + 1], "p must decrease outward");
            assert!(rho[i] > 0.0);
        }
    }

    #[test]
    fn hydrostatic_profile_satisfies_the_ode() {
        // Check dp/dr ≈ −ρ g0 / r² with centered differences.
        let params = PhysParams::default_laptop();
        let g = PatchGrid::new(PatchSpec::equal_spacing(64, 13, 0.35, 1.0));
        let (rho, p) = hydrostatic_profile(&params, g.r());
        let dr = g.r().spacing();
        for i in 1..63 {
            let dpdr = (p[i + 1] - p[i - 1]) / (2.0 * dr);
            let r = g.r().coord(i);
            let rhs = -rho[i] * params.g0 / (r * r);
            // The comparison itself uses an O(Δr²) centered difference, so
            // the agreement is limited by the *test's* stencil (~0.15 %
            // near the inner wall where p varies fastest), not the profile.
            assert!(
                approx_eq(dpdr, rhs, 5e-3),
                "hydrostatics violated at i={i}: {dpdr} vs {rhs}"
            );
        }
    }

    #[test]
    fn initialization_is_decomposition_invariant() {
        let g = grid();
        let params = PhysParams::default_laptop();
        let opts = InitOptions::default();
        // Full panel.
        let mut full = State::zeros(g.full_shape());
        initialize(&mut full, &g, None, &params, &opts, Panel::Yin);
        // 2×2 decomposition; compare owned values of each tile.
        let d = Decomp2D::new(2, 2, &g);
        for rank in 0..4 {
            let t = d.tile(rank);
            let mut local = State::zeros(t.shape(&g));
            initialize(&mut local, &g, Some(&t), &params, &opts, Panel::Yin);
            for k in 0..t.nph as isize {
                for j in 0..t.nth as isize {
                    for i in 0..16 {
                        let gj = j + t.j0 as isize;
                        let gk = k + t.k0 as isize;
                        assert_eq!(local.press.at(i, j, k), full.press.at(i, gj, gk));
                        assert_eq!(local.a.t.at(i, j, k), full.a.t.at(i, gj, gk));
                    }
                }
            }
        }
    }

    #[test]
    fn only_owned_nodes_are_written() {
        let g = grid();
        let mut s = State::zeros(g.full_shape());
        s.rho.fill(f64::NAN);
        let opts = InitOptions::default();
        initialize(&mut s, &g, None, &PhysParams::default_laptop(), &opts, Panel::Yin);
        let sh = s.shape();
        let (nth, nph) = (sh.nth as isize, sh.nph as isize);
        let (gth, gph) = (sh.gth as isize, sh.gph as isize);
        for arr in s.arrays() {
            for k in -gph..nph + gph {
                for j in -gth..nth + gth {
                    let owned = (0..nth).contains(&j) && (0..nph).contains(&k);
                    assert!(owned || arr.row(j, k).iter().all(|&v| v == 0.0), "({j}, {k})");
                }
            }
        }
    }

    #[test]
    fn panels_get_different_noise() {
        let g = grid();
        let params = PhysParams::default_laptop();
        let opts = InitOptions::default();
        let mut yin = State::zeros(g.full_shape());
        let mut yang = State::zeros(g.full_shape());
        initialize(&mut yin, &g, None, &params, &opts, Panel::Yin);
        initialize(&mut yang, &g, None, &params, &opts, Panel::Yang);
        assert_ne!(yin.press.at(5, 3, 7), yang.press.at(5, 3, 7));
    }

    #[test]
    fn walls_are_unperturbed() {
        let g = grid();
        let params = PhysParams::default_laptop();
        let opts = InitOptions { perturb_amplitude: 0.1, seed_amplitude: 0.1, seed: 3 };
        let mut s = State::zeros(g.full_shape());
        initialize(&mut s, &g, None, &params, &opts, Panel::Yin);
        let (rho_prof, p_prof) = hydrostatic_profile(&params, g.r());
        let _ = rho_prof;
        for k in 0..g.full_shape().nph as isize {
            for j in 0..g.full_shape().nth as isize {
                assert_eq!(s.press.at(0, j, k), p_prof[0]);
                assert_eq!(s.press.at(15, j, k), p_prof[15]);
                assert_eq!(s.a.r.at(0, j, k), 0.0);
                assert_eq!(s.a.p.at(15, j, k), 0.0);
            }
        }
    }

    #[test]
    fn zero_amplitudes_give_pure_background() {
        let g = grid();
        let params = PhysParams::default_laptop();
        let opts = InitOptions { perturb_amplitude: 0.0, seed_amplitude: 0.0, seed: 9 };
        let mut s = State::zeros(g.full_shape());
        initialize(&mut s, &g, None, &params, &opts, Panel::Yang);
        assert!(!s.has_non_finite());
        assert!(s.is_physical());
        assert_eq!(s.a.r.max_abs_owned(), 0.0);
        assert_eq!(s.f.r.max_abs_owned(), 0.0);
    }
}
