//! The serial two-panel driver: the reference implementation.
//!
//! Holds the full Yin and Yang panels in one address space. Overset
//! coupling is a direct interpolation between the two `State`s; there is
//! no halo exchange (the panel is undecomposed, and the overset frame
//! supplies every horizontal boundary value a stencil can read).
//!
//! The time stepper is classical RK4 with one boundary synchronisation
//! per stage. The tendency `k_s` exists one column at a time: the RHS
//! sweep combines it into the step as it goes (`yy_mhd::rhs::RhsSink`),
//! so each stage is a single traversal of the state.
//!
//! ```text
//! y0 = y;  walls(stage buffers) = walls(y)
//! for each stage s = 1..4, per column of the FD interior:
//!     k_s   = RHS(stage state)            # stage 1 reads y0
//!     y    += dt b_s k_s                  # accumulate the answer
//!     next  = y0 + dt c_{s+1} k_s         # the other stage buffer
//!   fill(next)                            # overset + physical walls
//! fill(y)
//! ```

use crate::config::RunConfig;
use crate::health::{HealthGuard, HealthLimits};
use crate::report::{RunReport, TimeSeriesPoint};
use std::sync::Arc;
use std::time::Instant;
use yy_field::Meters;
use yy_mesh::interp::{INTERP_SCALAR_FLOPS_PER_NODE, INTERP_VECTOR_FLOPS_PER_NODE};
use yy_mesh::{
    apply_scalar, apply_vector, build_overset_columns, Metric, OversetColumn, Panel, PatchGrid,
};
use yy_obs::counters::{CounterSet, Kernel, KernelTally};
use yy_mhd::rhs::{sweep_rhs, InteriorRange, RhsScratch, RhsSink};
use yy_mhd::tables::rotation_axis;
use yy_mhd::{
    apply_physical_bc, cfl_timestep, initialize, timestep::rho_min_owned, wave_speed_breakdown,
    wave_speed_max, Diagnostics, ForceTables, SpeedBreakdown, State,
};

/// Counter tally for donating `jobs` overset columns of radial length
/// `nr` (each job: 2 scalar + 2 vector column interpolations of the 8
/// state arrays). Shared by the serial fill and the parallel exchange so
/// the global per-kernel totals are decomposition-invariant by
/// construction.
pub(crate) fn overset_donate_tally(jobs: u64, nr: u64) -> KernelTally {
    let rows = 8 * jobs; // 8 interpolated array rows per column job
    KernelTally {
        points: rows * nr,
        loops: rows,
        vector_elements: rows * nr,
        flops: jobs * nr * (2 * INTERP_SCALAR_FLOPS_PER_NODE + 2 * INTERP_VECTOR_FLOPS_PER_NODE),
        // Each interpolated row blends 4 donor rows.
        bytes_read: rows * 4 * nr * 8,
        bytes_written: rows * nr * 8,
    }
}

/// Counter tally for placing `jobs` donated overset columns into their
/// target frames (pure row copies of the 8 state arrays).
pub(crate) fn overset_fill_tally(jobs: u64, nr: u64) -> KernelTally {
    KernelTally::copy(8 * jobs * nr, 8, 8 * jobs)
}

/// The overset columns of a run's grid. The only grid
/// `build_overset_columns` refuses is one with no extension (frame
/// images fall outside the partner, or donors inside its frame), and
/// [`RunConfig::check`] bounds `ext ≥ 1`.
pub(crate) fn overset_columns(grid: &PatchGrid) -> Vec<OversetColumn> {
    build_overset_columns(grid).unwrap_or_else(|e| panic!("invalid Yin-Yang configuration: {e}"))
}

/// Fill the overset frames of both panels from each other, then apply the
/// physical wall conditions. The donors are FD-interior nodes, so the two
/// directions commute.
///
/// `meters`: pass the solver's panel when this fill is part of a
/// stepping sync (the donate/fill work lands in the overset kernel
/// counters); pass `None` for bookkeeping fills outside the measurement
/// window (initialization, checkpoint reconstruction).
pub fn fill_pair(
    yin: &mut State,
    yang: &mut State,
    cols: &[OversetColumn],
    t_inner: f64,
    mag_bc: yy_mhd::MagneticBc,
    meters: Option<&mut Meters>,
) {
    let t0 = meters.as_ref().and_then(|m| m.timer());
    // Yang → Yin.
    for col in cols {
        apply_scalar(col, &yang.rho, &mut yin.rho);
        apply_scalar(col, &yang.press, &mut yin.press);
        apply_vector(col, &yang.f.r, &yang.f.t, &yang.f.p, &mut yin.f.r, &mut yin.f.t, &mut yin.f.p);
        apply_vector(col, &yang.a.r, &yang.a.t, &yang.a.p, &mut yin.a.r, &mut yin.a.t, &mut yin.a.p);
    }
    // Yin → Yang (donor values are interior, untouched by the pass above).
    for col in cols {
        apply_scalar(col, &yin.rho, &mut yang.rho);
        apply_scalar(col, &yin.press, &mut yang.press);
        apply_vector(col, &yin.f.r, &yin.f.t, &yin.f.p, &mut yang.f.r, &mut yang.f.t, &mut yang.f.p);
        apply_vector(col, &yin.a.r, &yin.a.t, &yin.a.p, &mut yang.a.r, &mut yang.a.t, &mut yang.a.p);
    }
    if let Some(m) = meters {
        // Both directions interpolate every column once: 2·cols jobs.
        // The serial path fuses donate and fill (apply_* interpolates
        // straight into the target rows); the counters keep them as the
        // two kernels the distributed exchange has, with the same
        // per-job constants, so global totals match any decomposition.
        let jobs = 2 * cols.len() as u64;
        let nr = yin.shape().nr as u64;
        m.kernel_timed(Kernel::OversetDonate, overset_donate_tally(jobs, nr), t0);
        m.kernel(Kernel::OversetFill, overset_fill_tally(jobs, nr));
    }
    apply_physical_bc(yin, t_inner, mag_bc);
    apply_physical_bc(yang, t_inner, mag_bc);
}

/// The serial two-panel simulation.
pub struct SerialSim {
    /// The run configuration.
    pub cfg: RunConfig,
    /// The (shared) component-grid geometry.
    pub grid: PatchGrid,
    metric: Metric,
    forces: [ForceTables; 2],
    cols: Vec<OversetColumn>,
    range: InteriorRange,
    /// The Yin panel's state.
    pub yin: State,
    /// The Yang panel's state.
    pub yang: State,
    // RK4 work buffers, `[panel]`: the step-head state and the two
    // stage states the stages ping-pong between (`[buffer][panel]`).
    y0: [State; 2],
    stage: [[State; 2]; 2],
    scratch: RhsScratch,
    /// Exact FLOP and per-kernel counters (reset by [`SerialSim::run`]
    /// at loop entry — the measurement window excludes setup).
    pub meter: Meters,
    /// Simulated time.
    pub time: f64,
    /// Completed steps.
    pub step: u64,
    /// Cached CFL step (recomputed every `cfg.dt_every` steps; part of the
    /// restartable state so checkpoint/restart is bit-exact).
    pub dt_cache: f64,
    /// Armed science telemetry (series store + physics watchdog), fed at
    /// the sample cadence. `None` (the default) records nothing; arming
    /// never perturbs the trajectory ([`SerialSim::arm_telemetry`]).
    pub telemetry: Option<crate::telemetry::ScienceTelemetry>,
    /// Fault-injection knob for the blow-up smoke: geometrically shrink
    /// the applied dt from a given step, forcing the watchdog's
    /// `dt_collapse` precursor without waiting for real physics to
    /// diverge. `None` in every production run.
    pub dt_inject: Option<crate::telemetry::DtInject>,
}

impl SerialSim {
    /// Build and initialize a simulation for `cfg` (boundaries filled,
    /// ready to step).
    pub fn new(cfg: RunConfig) -> Self {
        cfg.params.validate();
        let grid = cfg.grid();
        let metric = Metric::full(&grid);
        let (_, nth, nph) = grid.dims();
        let halo = grid.spec().halo;
        let forces = [Panel::Yin, Panel::Yang].map(|p| {
            ForceTables::new(
                &metric,
                nth,
                nph,
                halo,
                cfg.params.g0,
                cfg.params.omega,
                rotation_axis(p),
            )
        });
        let cols = overset_columns(&grid);
        let shape = grid.full_shape();
        let mut yin = State::zeros(shape);
        let mut yang = State::zeros(shape);
        initialize(&mut yin, &grid, None, &cfg.params, &cfg.init, Panel::Yin);
        initialize(&mut yang, &grid, None, &cfg.params, &cfg.init, Panel::Yang);
        fill_pair(&mut yin, &mut yang, &cols, cfg.params.t_inner, cfg.mag_bc, None);
        let range = InteriorRange::full_panel(&grid);
        let mut scratch = RhsScratch::new(shape);
        scratch.kernels = cfg.rhs_kernels;
        SerialSim {
            grid,
            metric,
            forces,
            cols,
            range,
            y0: [State::zeros(shape), State::zeros(shape)],
            stage: [
                [State::zeros(shape), State::zeros(shape)],
                [State::zeros(shape), State::zeros(shape)],
            ],
            scratch,
            // The serial driver is the reference profile source, so its
            // per-kernel counters are always on.
            meter: Meters::with_counters(Arc::new(CounterSet::enabled())),
            time: 0.0,
            step: 0,
            dt_cache: 0.0,
            telemetry: None,
            dt_inject: None,
            cfg,
            yin,
            yang,
        }
    }

    /// The shared component-grid metric.
    pub fn metric(&self) -> &Metric {
        &self.metric
    }

    /// Arm (or disarm) science telemetry per the driver options. Errors
    /// on a bad rules file.
    pub fn arm_telemetry(&mut self, opts: &crate::obs::ObsOpts) -> Result<(), String> {
        self.telemetry = crate::telemetry::ScienceTelemetry::from_opts(opts, true)?;
        Ok(())
    }

    /// CFL time step from the current state (max over both panels).
    pub fn auto_dt(&self) -> f64 {
        let s_yin = wave_speed_max(&self.yin, &self.metric, &self.cfg.params, &self.range);
        let s_yang = wave_speed_max(&self.yang, &self.metric, &self.cfg.params, &self.range);
        let rho_min = rho_min_owned(&self.yin).min(rho_min_owned(&self.yang));
        cfl_timestep(
            s_yin.max(s_yang),
            self.metric.min_spacing(),
            rho_min,
            &self.cfg.params,
            self.cfg.cfl,
        )
    }

    /// Per-component signal-speed maxima over both panels.
    ///
    /// Diagnostic companion to [`SerialSim::auto_dt`]: shows which wave
    /// (flow, sound or Alfvén) limits the CFL time step.
    pub fn speed_breakdown(&self) -> SpeedBreakdown {
        let yin = wave_speed_breakdown(&self.yin, &self.metric, &self.cfg.params, &self.range);
        let yang = wave_speed_breakdown(&self.yang, &self.metric, &self.cfg.params, &self.range);
        yin.merged(&yang)
    }

    /// Advance one RK4 step of size `dt`.
    pub fn advance(&mut self, dt: f64) {
        // The sweeps write interior nodes only, and the fills leave the
        // wall ρ (and conducting-wall A) alone: the stage buffers take
        // those frozen values here.
        for (p, state) in [&self.yin, &self.yang].into_iter().enumerate() {
            self.y0[p].copy_from(state);
            for buf in &mut self.stage {
                buf[p].copy_walls_from(state);
            }
        }

        for s in 0..4 {
            // Stage s reads the buffer stage s−1 built (the step head for
            // s = 0) and builds the other one.
            let [a, b] = &mut self.stage;
            let (next, cur) = if s % 2 == 0 { (a, &*b) } else { (b, &*a) };
            for (p, acc) in [&mut self.yin, &mut self.yang].into_iter().enumerate() {
                let y0 = &self.y0[p];
                let mut sink = RhsSink::rk4_stage(s, dt, acc, y0, &mut next[p]);
                let combine = sink.combine_tally();
                sweep_rhs(
                    if s == 0 { y0 } else { &cur[p] },
                    &self.metric,
                    &self.forces[p],
                    &self.cfg.params,
                    &self.range,
                    &mut self.scratch,
                    &mut sink,
                    &mut self.meter,
                );
                self.meter.kernel(Kernel::Rk4Combine, combine);
            }
            if s < 3 {
                let [n0, n1] = next;
                let (t_inner, mag_bc) = (self.cfg.params.t_inner, self.cfg.mag_bc);
                fill_pair(n0, n1, &self.cols, t_inner, mag_bc, Some(&mut self.meter));
            }
        }
        let cols = std::mem::take(&mut self.cols);
        fill_pair(
            &mut self.yin,
            &mut self.yang,
            &cols,
            self.cfg.params.t_inner,
            self.cfg.mag_bc,
            Some(&mut self.meter),
        );
        self.cols = cols;
        self.time += dt;
        self.step += 1;
    }

    /// Grid points actually updated by finite differences per step (both
    /// panels) — the denominator for resolution-independent kernel
    /// intensity (frame and wall nodes are filled by interpolation/BC and
    /// carry no RHS flops).
    pub fn interior_points(&self) -> usize {
        2 * self.range.points()
    }

    /// Combined diagnostics of both panels (overlap counted twice; see
    /// `yy_mhd::energy`).
    pub fn diagnostics(&self) -> Diagnostics {
        let a = yy_mhd::energy::compute_diagnostics(
            &self.yin,
            &self.grid,
            &self.metric,
            None,
            &self.cfg.params,
            &self.range,
            None,
        );
        let b = yy_mhd::energy::compute_diagnostics(
            &self.yang,
            &self.grid,
            &self.metric,
            None,
            &self.cfg.params,
            &self.range,
            None,
        );
        a.merged(b)
    }

    /// Run `steps` steps with automatic dt, sampling diagnostics every
    /// `sample_every` steps (0 = only at start/end). Panics on a health
    /// violation; [`try_run`](Self::try_run) returns it.
    pub fn run(&mut self, steps: u64, sample_every: u64) -> RunReport {
        self.try_run(steps, sample_every).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`run`](Self::run), with a health violation (NaN/Inf, density or
    /// pressure floor) as `Err` naming the step and the guard. The
    /// simulation is left at the violating step: a serial run has no
    /// checkpoint to roll back to.
    pub fn try_run(&mut self, steps: u64, sample_every: u64) -> Result<RunReport, String> {
        let started = Instant::now();
        self.meter.reset();
        let mut series = vec![self.sample(0.0)];
        let mut last_step_ms = 0.0;
        let guard = HealthGuard::new(HealthLimits::default());
        let end = self.step + steps;
        while self.step < end {
            let step_started = Instant::now();
            if self.dt_cache == 0.0 || self.step % self.cfg.dt_every as u64 == 0 {
                self.dt_cache = self.auto_dt();
            }
            let dt = match &self.dt_inject {
                Some(inj) => inj.scaled(self.step, self.dt_cache),
                None => self.dt_cache,
            };
            self.advance(dt);
            last_step_ms = step_started.elapsed().as_nanos() as f64 / 1e6;
            let scan_t0 = self.meter.timer();
            // The verdict the rank program reaches collectively, here
            // over both panels; a serial run has no checkpoint to roll
            // back to, so a violation ends it.
            for panel in [&self.yin, &self.yang] {
                guard.check_state(panel).map_err(|v| {
                    format!(
                        "step {} (t = {:.4e}): {v}; reduce cfl, reduce dt_every, \
                         or increase dissipation",
                        self.step, self.time
                    )
                })?;
            }
            {
                // Health scans over both panels (owned nodes only, so the
                // totals match any decomposition of the same grid).
                let s = self.yin.shape();
                let tally = crate::health::scan_tally((s.nth * s.nph) as u64, s.nr as u64);
                self.meter.kernel_timed(Kernel::HealthScan, tally, scan_t0);
                self.meter.kernel(Kernel::HealthScan, tally);
            }
            // Sample at absolute step numbers, like the dt cadence, so a
            // resumed run's series lines up with the uninterrupted one's.
            if sample_every > 0 && self.step % sample_every == 0 {
                series.push(self.sample(dt));
                self.feed_telemetry(&series, last_step_ms);
            }
        }
        if series.last().map(|p| p.step) != Some(self.step) {
            series.push(self.sample(self.dt_cache));
            self.feed_telemetry(&series, last_step_ms);
        }
        Ok(RunReport {
            time: self.time,
            steps,
            flops: self.meter.flops(),
            wall_seconds: started.elapsed().as_secs_f64(),
            grid_points: self.grid.total_points(),
            kernels: self.meter.counters().snapshot(),
            series,
            alerts: self.telemetry.as_ref().map(|t| t.alerts().to_vec()).unwrap_or_default(),
            telemetry: self.telemetry.as_ref().map(|t| t.store().to_json()),
            ..RunReport::default()
        })
    }

    fn sample(&self, dt: f64) -> TimeSeriesPoint {
        TimeSeriesPoint { step: self.step, time: self.time, dt, diag: self.diagnostics() }
    }

    /// Feed the just-pushed sample into armed telemetry. The equatorial
    /// mode probe runs first (it reads `&self`), then the store/watchdog
    /// ingest mutably — telemetry only ever *reads* solver state, which
    /// is what keeps armed runs bit-identical.
    fn feed_telemetry(&mut self, series: &[TimeSeriesPoint], step_wall_ms: f64) {
        if self.telemetry.is_none() {
            return;
        }
        let m = crate::telemetry::equatorial_dominant_m(self);
        let point = series.last().copied().expect("sample just pushed");
        if let Some(tel) = self.telemetry.as_mut() {
            tel.record(&point, step_wall_ms, Some(m));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> RunConfig {
        let mut cfg = RunConfig::small();
        cfg.init.perturb_amplitude = 1e-2;
        cfg
    }

    #[test]
    fn a_few_steps_stay_finite_and_physical() {
        let mut sim = SerialSim::new(quick_cfg());
        let report = sim.run(5, 1);
        assert_eq!(report.steps, 5);
        assert!(sim.yin.is_physical());
        assert!(sim.yang.is_physical());
        assert_eq!(report.series.len(), 6);
        assert!(report.flops > 0);
    }

    /// Samples land on absolute step numbers, so a run resumed mid-way
    /// samples where the uninterrupted run does (plus its own end points).
    #[test]
    fn resumed_run_samples_at_the_uninterrupted_cadence() {
        let steps = |r: &RunReport| r.series.iter().map(|p| p.step).collect::<Vec<_>>();
        let whole = steps(&SerialSim::new(quick_cfg()).run(8, 3));
        assert_eq!(whole, [0, 3, 6, 8]);
        let mut sim = SerialSim::new(quick_cfg());
        let (first, second) = (steps(&sim.run(4, 3)), steps(&sim.run(4, 3)));
        assert_eq!((first.as_slice(), second.as_slice()), (&[0, 3, 4][..], &[4, 6, 8][..]));
        let seam = 4;
        assert!(first.iter().chain(&second).all(|s| *s == seam || whole.contains(s)));
    }

    /// A positivity-floor violation is an `Err` naming the step and the
    /// guard (it was a panic), reached on the trajectory an uninterrupted
    /// run takes.
    #[test]
    fn blow_up_is_an_err_naming_the_step_and_the_guard() {
        use crate::checkpoint::Checkpoint;
        let mut cfg = RunConfig::small();
        (cfg.nr, cfg.nth_nominal, cfg.cfl, cfg.dt_every) = (12, 9, 1.0, 50);
        cfg.init.perturb_amplitude = 0.9;
        let mut failed = SerialSim::new(cfg.clone());
        let err = failed.try_run(600, 0).expect_err("cfl=1 cannot survive a 0.9 perturbation");
        let k = failed.step;
        assert!(k > 1 && err.starts_with(&format!("step {k} (t = ")), "{err}");
        assert!(err.contains(" floor violated: min "), "{err}");
        assert!(err.ends_with("; reduce cfl, reduce dt_every, or increase dissipation"), "{err}");
        // The k − 1 healthy steps are those of a run that stops there, and
        // one more step from it fails the same way in the same state.
        let mut whole = SerialSim::new(cfg);
        whole.run(k - 1, 0);
        assert_eq!(whole.try_run(1, 0).expect_err("step k violates"), err);
        let bytes = |sim: &SerialSim| {
            let mut out = Vec::new();
            Checkpoint::capture(sim).write_to(&mut out).unwrap();
            out
        };
        assert_eq!(bytes(&whole), bytes(&failed));
    }

    #[test]
    fn armed_telemetry_is_bit_identical_and_watches_the_run() {
        use crate::checkpoint::Checkpoint;
        let mut plain = SerialSim::new(quick_cfg());
        plain.run(4, 1);
        let mut armed = SerialSim::new(quick_cfg());
        armed
            .arm_telemetry(&crate::obs::ObsOpts { series: true, ..Default::default() })
            .expect("default rules");
        let report = armed.run(4, 1);
        // Telemetry only reads state: the trajectory is untouched.
        let mut a = Vec::new();
        let mut b = Vec::new();
        Checkpoint::capture(&plain).write_to(&mut a).unwrap();
        Checkpoint::capture(&armed).write_to(&mut b).unwrap();
        assert_eq!(a, b, "telemetry perturbed the data plane");
        // The store saw every cadence sample (not the step-0 seed).
        let tel = armed.telemetry.as_ref().unwrap();
        assert_eq!(tel.store().rows(), 4);
        let m = tel.store().channel("dominant_m").unwrap().latest().unwrap();
        assert!(m >= 0.0, "serial runs probe the equatorial ring");
        assert!(tel.store().channel("step_wall_ms").unwrap().latest().unwrap() > 0.0);
        // A healthy short run fires nothing, and the report carries the
        // armed sections.
        assert!(report.alerts.is_empty(), "clean run must not alert: {:?}", report.alerts);
        let doc = yy_obs::Json::parse(&report.to_json()).unwrap();
        assert!(doc.get("telemetry").unwrap().get("channels").is_some());
        // Unarmed runs render `null`.
        let plain_doc = yy_obs::Json::parse(&plain.run(1, 1).to_json()).unwrap();
        assert!(matches!(plain_doc.get("telemetry"), Some(yy_obs::Json::Null)));
    }

    #[test]
    fn seeded_dt_collapse_fires_the_blowup_alert() {
        use crate::telemetry::DtInject;
        let mut sim = SerialSim::new(quick_cfg());
        sim.arm_telemetry(&crate::obs::ObsOpts { series: true, ..Default::default() }).unwrap();
        // Shrink the applied dt from step 10: the watchdog's default
        // `energy_blowup` rule (latest < ½ × window max, for 2 samples)
        // must fire within a few samples, while the run itself stays
        // finite (a smaller dt is *more* stable).
        sim.dt_inject = Some(DtInject { at_step: 10 });
        let report = sim.run(16, 1);
        let fired: Vec<_> = report.alerts.iter().filter(|a| a.firing).collect();
        assert!(
            fired.iter().any(|a| a.rule == "energy_blowup"),
            "dt collapse must trip the precursor rule; alerts: {:?}",
            report.alerts
        );
        // The dt channel's raw tail shows the collapse the rule saw.
        let tel = sim.telemetry.as_ref().unwrap();
        let dts = tel.store().channel("dt").unwrap().tail_values(3);
        assert!(dts[2] < 0.6 * dts[1] && dts[1] < 0.6 * dts[0], "dt tail {dts:?}");
        // And the artifact carries the edge.
        let doc = yy_obs::Json::parse(&report.to_json()).unwrap();
        let alerts = doc.get("alerts").unwrap().as_arr().unwrap();
        assert!(!alerts.is_empty());
        assert_eq!(alerts[0].get("rule").unwrap().as_str(), Some("energy_blowup"));
        assert_eq!(alerts[0].get("kind").unwrap().as_str(), Some("dt-collapse"));
    }

    #[test]
    fn unperturbed_equilibrium_is_quiet() {
        let mut cfg = quick_cfg();
        cfg.init.perturb_amplitude = 0.0;
        cfg.init.seed_amplitude = 0.0;
        let mut sim = SerialSim::new(cfg);
        let e0 = sim.diagnostics();
        sim.run(10, 0);
        let e1 = sim.diagnostics();
        // The hydrostatic state should barely move. The FD pressure
        // gradient and the RK4-integrated profile disagree at O(Δr²), so a
        // residual flow of |v| ~ 1e-3 (kinetic ~ 1e-6 of thermal) is the
        // expected truncation level at nr = 16 — anything much larger
        // would indicate a force-balance bug.
        assert!(
            e1.kinetic < 1e-5 * e1.thermal,
            "kinetic {} vs thermal {}",
            e1.kinetic,
            e1.thermal
        );
        // Mass is conserved to truncation level. Overset grids are not
        // discretely conservative: frame values are interpolated and the
        // overlap is double-counted in the integral, so a drift of
        // ~2e-5 relative at this resolution is expected — measured to
        // shrink ≈ 3.3× per 2× refinement, confirming it is truncation,
        // not a leak. (The paper's method has the same property.)
        assert!(
            (e1.mass - e0.mass).abs() < 5e-5 * e0.mass,
            "mass drift {:.3e} of {:.6}",
            (e1.mass - e0.mass).abs(),
            e0.mass
        );
    }

    #[test]
    fn perturbation_starts_convection() {
        let mut cfg = quick_cfg();
        cfg.init.perturb_amplitude = 5e-2;
        let mut sim = SerialSim::new(cfg);
        let report = sim.run(20, 20);
        let last = report.series.last().unwrap().diag;
        assert!(last.kinetic > 0.0, "perturbation must drive some flow");
        assert!(last.max_speed > 0.0);
    }

    #[test]
    fn dt_respects_cfl_scaling() {
        let sim = SerialSim::new(quick_cfg());
        let dt = sim.auto_dt();
        assert!(dt > 0.0 && dt < 1.0);
        let mut cfg2 = quick_cfg();
        cfg2.cfl = 0.15;
        let sim2 = SerialSim::new(cfg2);
        let ratio = dt / sim2.auto_dt();
        assert!((ratio - 2.0).abs() < 1e-9, "cfl halving should halve dt (ratio {ratio})");
    }

    #[test]
    fn determinism_same_seed_same_result() {
        let mut a = SerialSim::new(quick_cfg());
        let mut b = SerialSim::new(quick_cfg());
        a.run(3, 0);
        b.run(3, 0);
        assert_eq!(a.yin, b.yin);
        assert_eq!(a.yang, b.yang);
    }

    #[test]
    fn different_seeds_diverge() {
        let mut cfg_b = quick_cfg();
        cfg_b.init.seed = 777;
        let mut a = SerialSim::new(quick_cfg());
        let mut b = SerialSim::new(cfg_b);
        a.run(2, 0);
        b.run(2, 0);
        assert_ne!(a.yin, b.yin);
    }

    /// The Yin-Yang symmetry test the paper's design makes possible: if
    /// the Yang panel is initialized with the *transform* of Yin's data
    /// (and vice versa), the configuration is invariant under the Yin↔Yang
    /// map, and the two panels must evolve as exact mirror images.
    ///
    /// We approximate this by checking that swapping the panel *roles*
    /// (Yin noise on Yang and vice versa) produces exactly swapped
    /// dynamics — possible because the code path for both panels is
    /// identical up to the rotation axis table, which itself transforms.
    #[test]
    fn panel_code_paths_are_symmetric() {
        // Run with zero rotation so both panels use identical force
        // tables; then swapping initial panel noise must swap final
        // states exactly.
        let mut cfg = quick_cfg();
        cfg.params.omega = 0.0;
        let mut sim = SerialSim::new(cfg.clone());
        // Manually swap: make Yang start from Yin's noise and vice versa.
        let mut swapped = SerialSim::new(cfg);
        std::mem::swap(&mut swapped.yin, &mut swapped.yang);
        sim.run(3, 0);
        swapped.run(3, 0);
        assert_eq!(sim.yin, swapped.yang);
        assert_eq!(sim.yang, swapped.yin);
    }
}
