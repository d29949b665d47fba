//! The lat-lon serial driver: same physics kernels as `yycore`, different
//! sphere coverage and boundary plumbing.

use crate::sphere::{LatLonGrid, POLE_PARITY};
use geomath::quadrature::trapezoid_weights;
use geomath::rng::{node_key, node_noise};
use std::time::Instant;
use yy_field::Meters;
use yy_mesh::{Metric, Panel};
use yy_mhd::rhs::{sweep_rhs, InteriorRange, RhsScratch, RhsSink};
use yy_mhd::tables::rotation_axis;
use yy_mhd::{
    apply_physical_bc, cfl_timestep, hydrostatic_profile, init::InitOptions,
    timestep::rho_min_owned, wave_speed_max, Diagnostics, ForceTables, MagneticBc, PhysParams,
    State,
};

/// Ghost fill for the full sphere: periodic in φ, antipodal across the
/// poles (with tangential sign flips), then the radial wall conditions.
pub fn fill_sphere(state: &mut State, grid: &LatLonGrid, t_inner: f64) {
    let (nr, nth, nph) = grid.dims();
    let h = grid.halo() as isize;
    let nth = nth as isize;
    let nph = nph as isize;
    // Phase 1: periodic wrap in φ over owned j.
    for arr in state.arrays_mut() {
        for g in 1..=h {
            for j in 0..nth {
                for i in 0..nr {
                    let west = arr.at(i, j, nph - g);
                    arr.set(i, j, -g, west);
                    let east = arr.at(i, j, g - 1);
                    arr.set(i, j, nph + g - 1, east);
                }
            }
        }
    }
    // Phase 2: antipodal pole mapping over the padded φ range. Ghost row
    // −g (beyond the north pole) reflects to owned row g−1 at φ + π;
    // likewise at the south pole.
    for (arr, parity) in state.arrays_mut().into_iter().zip(POLE_PARITY) {
        let sign = parity.sign();
        for g in 1..=h {
            for k in -h..(nph + h) {
                let k_src = (k + nph / 2).rem_euclid(nph);
                for i in 0..nr {
                    let north_src = arr.at(i, g - 1, k_src);
                    arr.set(i, -g, k, sign * north_src);
                    let south_src = arr.at(i, nth - g, k_src);
                    arr.set(i, nth - 1 + g, k, sign * south_src);
                }
            }
        }
    }
    apply_physical_bc(state, t_inner, MagneticBc::ConductingWall);
}

/// Serial full-sphere simulation on the latitude–longitude grid.
pub struct LatLonSim {
    /// The sphere geometry.
    pub grid: LatLonGrid,
    metric: Metric,
    forces: ForceTables,
    /// Physics parameters.
    pub params: PhysParams,
    /// Advective CFL safety factor.
    pub cfl: f64,
    range: InteriorRange,
    /// The full-sphere state.
    pub state: State,
    // RK4 work buffers: the step-head state and the two stage states the
    // stages ping-pong between.
    y0: State,
    stage: [State; 2],
    scratch: RhsScratch,
    /// Exact FLOP counter.
    pub meter: Meters,
    /// Simulated time.
    pub time: f64,
    /// Completed steps.
    pub step: u64,
}

impl LatLonSim {
    /// Build and initialize a full-sphere simulation.
    pub fn new(
        nr: usize,
        nth: usize,
        nph: usize,
        params: PhysParams,
        opts: &InitOptions,
    ) -> Self {
        params.validate();
        let grid = LatLonGrid::new(nr, nth, nph, params.ri);
        let metric = grid.metric();
        let (_, gnth, gnph) = grid.dims();
        // The geographic rotation axis is this grid's own polar axis.
        let forces = ForceTables::new(
            &metric,
            gnth,
            gnph,
            grid.halo(),
            params.g0,
            params.omega,
            rotation_axis(Panel::Yin),
        );
        let shape = grid.shape();
        let mut state = State::zeros(shape);
        init_latlon(&mut state, &grid, &params, opts);
        let range = InteriorRange {
            i0: 1,
            i1: nr - 1,
            j0: 0,
            j1: gnth as isize,
            k0: 0,
            k1: gnph as isize,
        };
        let mut sim = LatLonSim {
            metric,
            forces,
            params,
            cfl: 0.3,
            range,
            y0: State::zeros(shape),
            stage: [State::zeros(shape), State::zeros(shape)],
            scratch: RhsScratch::new(shape),
            meter: Meters::new(),
            time: 0.0,
            step: 0,
            state,
            grid,
        };
        sim.fill();
        sim
    }

    /// Ghost fill of the main state.
    pub fn fill(&mut self) {
        fill_sphere(&mut self.state, &self.grid, self.params.t_inner);
    }

    /// CFL step — limited by the pole-adjacent cells.
    pub fn auto_dt(&self) -> f64 {
        let speed = wave_speed_max(&self.state, &self.metric, &self.params, &self.range);
        cfl_timestep(
            speed,
            self.grid.min_spacing(),
            rho_min_owned(&self.state),
            &self.params,
            self.cfl,
        )
    }

    /// One RK4 step: each stage's sweep combines its tendency into the
    /// step inside the RHS sink, as the Yin-Yang drivers step.
    pub fn advance(&mut self, dt: f64) {
        // The sweep writes interior nodes only, and the fill leaves the
        // wall ρ (and conducting-wall A) alone: the stage buffers take
        // those frozen values here.
        self.y0.copy_from(&self.state);
        for buf in &mut self.stage {
            buf.copy_walls_from(&self.state);
        }
        for s in 0..4 {
            // Stage s reads the buffer stage s−1 built (the step head for
            // s = 0) and builds the other one.
            let [a, b] = &mut self.stage;
            let (next, cur) = if s % 2 == 0 { (a, &*b) } else { (b, &*a) };
            let mut sink = RhsSink::rk4_stage(s, dt, &mut self.state, &self.y0, next);
            sweep_rhs(
                if s == 0 { &self.y0 } else { cur },
                &self.metric,
                &self.forces,
                &self.params,
                &self.range,
                &mut self.scratch,
                &mut sink,
                &mut self.meter,
            );
            if s < 3 {
                fill_sphere(next, &self.grid, self.params.t_inner);
            }
        }
        self.fill();
        self.time += dt;
        self.step += 1;
    }

    /// Run `steps` steps with automatic dt; returns wall seconds.
    pub fn run(&mut self, steps: u64) -> f64 {
        let started = Instant::now();
        for _ in 0..steps {
            let dt = self.auto_dt();
            self.advance(dt);
            assert!(
                !self.state.has_non_finite(),
                "lat-lon solution became non-finite at step {}",
                self.step
            );
            assert!(
                self.state.is_physical(),
                "lat-lon solution became unphysical at step {}",
                self.step
            );
        }
        started.elapsed().as_secs_f64()
    }

    /// Energy diagnostics over the full sphere (trapezoid in r/θ, uniform
    /// periodic weights in φ — no overset double counting here).
    pub fn diagnostics(&self) -> Diagnostics {
        let shape = self.state.shape();
        let wr = trapezoid_weights(self.grid.r());
        // θ rows are staggered interior samples: midpoint-rule weight Δθ.
        let dth = self.grid.theta().spacing();
        let dph = self.grid.phi().spacing();
        let gm1 = self.params.gamma - 1.0;
        let mut d = Diagnostics::default();
        for k in 0..shape.nph as isize {
            for j in 0..shape.nth as isize {
                let wjk = dth * self.metric.sin_t(j) * dph;
                let rho = self.state.rho.row(j, k);
                let prs = self.state.press.row(j, k);
                let fr = self.state.f.r.row(j, k);
                let ft = self.state.f.t.row(j, k);
                let fp = self.state.f.p.row(j, k);
                for i in 0..shape.nr {
                    let w = wr[i] * self.metric.r[i] * self.metric.r[i] * wjk;
                    let f2 = fr[i] * fr[i] + ft[i] * ft[i] + fp[i] * fp[i];
                    d.kinetic += w * 0.5 * f2 / rho[i];
                    d.thermal += w * prs[i] / gm1;
                    d.mass += w * rho[i];
                    d.max_speed = d.max_speed.max((f2 / (rho[i] * rho[i])).sqrt());
                }
            }
        }
        d
    }
}

/// Initial condition on the lat-lon grid: same physics as the Yin-Yang
/// initializer (hydrostatic profile, node-keyed noise; "panel" index 2
/// keeps its streams distinct from Yin/Yang).
fn init_latlon(state: &mut State, grid: &LatLonGrid, params: &PhysParams, opts: &InitOptions) {
    let (rho_prof, p_prof) = hydrostatic_profile(params, grid.r());
    let shape = state.shape();
    let nr = shape.nr;
    state.fill_zero();
    for k in 0..shape.nph as isize {
        for j in 0..shape.nth as isize {
            for i in 0..nr {
                state.rho.set(i, j, k, rho_prof[i]);
                let mut p = p_prof[i];
                if i > 0 && i < nr - 1 && opts.perturb_amplitude > 0.0 {
                    let key = node_key(2, i, j as usize, k as usize);
                    p *= 1.0 + node_noise(opts.seed, 1, key, opts.perturb_amplitude);
                }
                state.press.set(i, j, k, p);
                if i > 0 && i < nr - 1 && opts.seed_amplitude > 0.0 {
                    let key = node_key(2, i, j as usize, k as usize);
                    state.a.r.set(i, j, k, node_noise(opts.seed, 2, key, opts.seed_amplitude));
                    state.a.t.set(i, j, k, node_noise(opts.seed, 3, key, opts.seed_amplitude));
                    state.a.p.set(i, j, k, node_noise(opts.seed, 4, key, opts.seed_amplitude));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> LatLonSim {
        let params = PhysParams::default_laptop();
        let opts = InitOptions { perturb_amplitude: 1e-2, seed_amplitude: 1e-5, seed: 11 };
        LatLonSim::new(12, 12, 24, params, &opts)
    }

    #[test]
    fn pole_ghosts_have_correct_parity() {
        let mut sim = quick();
        sim.fill();
        let (_, _, nph) = sim.grid.dims();
        let half = nph as isize / 2;
        // Scalar: ghost(-1, k) = owned(0, k + nph/2).
        for k in 0..nph as isize {
            let k_src = (k + half).rem_euclid(nph as isize);
            for i in 0..12 {
                assert_eq!(sim.state.rho.at(i, -1, k), sim.state.rho.at(i, 0, k_src));
                // Tangential components flip sign.
                assert_eq!(sim.state.f.t.at(i, -1, k), -sim.state.f.t.at(i, 0, k_src));
                assert_eq!(sim.state.a.p.at(i, -1, k), -sim.state.a.p.at(i, 0, k_src));
            }
        }
    }

    #[test]
    fn phi_ghosts_wrap_periodically() {
        let mut sim = quick();
        sim.fill();
        let (_, nth, nph) = sim.grid.dims();
        for j in 0..nth as isize {
            for i in 0..12 {
                assert_eq!(sim.state.press.at(i, j, -1), sim.state.press.at(i, j, nph as isize - 1));
                assert_eq!(sim.state.press.at(i, j, nph as isize), sim.state.press.at(i, j, 0));
            }
        }
    }

    /// The fused step (each stage combined inside the RHS sink) lands on
    /// the state the unfused sequence builds: a stored tendency, a
    /// separate combine pass, and a fill of every stage.
    #[test]
    fn fused_step_matches_the_unfused_sequence() {
        let mut fused = quick();
        let mut plain = quick();
        let mut k = State::zeros(plain.grid.shape());
        let mut y0 = k.clone();
        let mut stage = k.clone();
        let (w, c) = (geomath::rk4::RK4_WEIGHTS, geomath::rk4::RK4_NODES);
        for _ in 0..5 {
            let dt = fused.auto_dt();
            fused.advance(dt);
            let p = &mut plain;
            y0.copy_from(&p.state);
            stage.copy_from(&p.state);
            for s in 0..4 {
                let (metric, forces, params, range) = (&p.metric, &p.forces, &p.params, &p.range);
                let (scratch, meter) = (&mut p.scratch, &mut p.meter);
                yy_mhd::compute_rhs(&stage, metric, forces, params, range, scratch, &mut k, meter);
                if s < 3 {
                    p.state.axpy_and_assign_axpy(dt * w[s], &k, &mut stage, &y0, dt * c[s + 1]);
                    fill_sphere(&mut stage, &p.grid, p.params.t_inner);
                } else {
                    p.state.axpy(dt * w[s], &k);
                }
            }
            p.fill();
        }
        assert!(fused.state == plain.state, "the fused step moved the trajectory");
    }

    #[test]
    fn short_run_stays_finite_and_physical() {
        let mut sim = quick();
        sim.run(5);
        assert!(sim.state.is_physical());
        assert!(sim.time > 0.0);
        assert!(sim.meter.flops() > 0);
    }

    #[test]
    fn mass_drift_is_truncation_level() {
        // No overset here, but the pole-adjacent rows (1/sin θ metric
        // factors at sin(Δθ/2) ≈ 0.13) dominate the truncation error of
        // the non-conservative FD form: the unperturbed equilibrium
        // drifts ~1.5e-5 relative at this resolution, measured to shrink
        // ≈ 3.8× per 2× refinement (O(h²)) — pole noise, not a leak, and
        // a concrete instance of the pole problem the paper cites.
        let params = PhysParams::default_laptop();
        let opts = InitOptions { perturb_amplitude: 0.0, seed_amplitude: 0.0, seed: 1 };
        let mut sim = LatLonSim::new(12, 12, 24, params, &opts);
        let m0 = sim.diagnostics().mass;
        sim.run(10);
        let m1 = sim.diagnostics().mass;
        assert!(
            (m1 - m0).abs() < 5e-5 * m0,
            "lat-lon mass drift {:.3e}",
            (m1 - m0).abs() / m0
        );
    }

    #[test]
    fn pole_penalty_grows_with_resolution() {
        // At matched angular resolution, the Yin-Yang grid allows a far
        // larger time step than the polar cells permit here — and the
        // penalty worsens as the grid refines (sin(Δθ/2) → 0), which is
        // the paper's argument for abandoning the lat-lon grid.
        let coarse = LatLonGrid::new(12, 12, 24, 0.35);
        let fine = LatLonGrid::new(12, 24, 48, 0.35);
        let pen_coarse = coarse.yinyang_min_spacing_equivalent() / coarse.min_spacing();
        let pen_fine = fine.yinyang_min_spacing_equivalent() / fine.min_spacing();
        assert!(pen_coarse > 1.5, "coarse penalty {pen_coarse}");
        assert!(pen_fine > 5.0, "fine penalty {pen_fine}");
        assert!(pen_fine > pen_coarse);
    }

    #[test]
    fn unperturbed_sphere_is_quiet() {
        let params = PhysParams::default_laptop();
        let opts = InitOptions { perturb_amplitude: 0.0, seed_amplitude: 0.0, seed: 1 };
        let mut sim = LatLonSim::new(12, 12, 24, params, &opts);
        sim.run(5);
        let d = sim.diagnostics();
        assert!(d.kinetic < 1e-5 * d.thermal, "kinetic {} thermal {}", d.kinetic, d.thermal);
    }
}
