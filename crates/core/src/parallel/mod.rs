//! The parallel driver: the paper's flat-MPI parallelization, run on the
//! in-process message-passing substrate.
//!
//! Process layout (paper §IV):
//!
//! 1. the world communicator is split into two *panels* — the Yin group
//!    and the Yang group (`MPI_COMM_SPLIT`, color = panel);
//! 2. inside each panel, a 2-D Cartesian process grid over (θ, φ)
//!    (`MPI_CART_CREATE`); each process owns the full radial extent of a
//!    horizontal tile and exchanges halos with its ≤ 4 neighbours
//!    (`MPI_SEND` / `MPI_IRECV` with `MPI_CART_SHIFT` ranks);
//! 3. overset interpolation data flows between the panels under the world
//!    communicator: the rank owning the donor cell interpolates (and
//!    rotates vector components) and sends finished radial columns.
//!
//! Every boundary synchronisation performs: (a) a two-phase halo exchange
//! (θ first, then φ over the θ-extended rows, so corner ghosts fill
//! without diagonal messages), (b) the overset exchange, (c) the physical
//! wall conditions. The two-phase trick is the standard way real codes
//! avoid 8-neighbour communication.
//!
//! The result is bitwise identical to [`crate::serial::SerialSim`] — an
//! integration test asserts exactly that.
//!
//! # Fault tolerance
//!
//! [`run_parallel_supervised`] runs the same rank program in the
//! supervised runtime: deterministic fault injection
//! ([`yy_parcomm::fault`]), a deadline on every receive, per-step
//! solver health guards ([`crate::health`]), and periodic checkpoint
//! events, at which every rank stores its owned block in an in-memory
//! shard set and sends nothing. When a rank dies (injected kill, comm
//! timeout, panic) the whole universe is torn down and restarted from
//! the set's newest complete step; when the *solver* goes unhealthy the
//! supervisor rolls back **and** halves the time step. That step moves
//! to the next pass as its owned blocks, never as a merged globe: each
//! rank, on whatever layout, places the part of every block that meets
//! its tile and syncs. Only the final checkpoint is merged. Because
//! delivery is exactly-once and in-order even under injected
//! delays/duplicates, and because the restart replays the dt/sampling
//! cadence at absolute step numbers, a recovered run reproduces the
//! fault-free trajectory bitwise.
//!
//! # Layout
//!
//! This file holds the public option and report types and the two entry
//! points; `supervisor`, `rank`, `solver` and `exchange` each say what
//! they hold. `parallel` sits strictly above [`crate::output`]: nothing
//! there imports from here.

mod exchange;
mod rank;
mod solver;
mod supervisor;

use crate::checkpoint::Checkpoint;
use crate::config::RunConfig;
use crate::health::HealthLimits;
use crate::obs::ObsOpts;
use crate::output::{merge_blocks, CkptCodec, ShardSet};
pub use crate::report::{ElasticSummary, RecoveryEvent, RetileRecord};
use crate::report::RunReport;
use crate::telemetry::DtInject;
use rank::{rank_program, PassPlan};
use std::path::PathBuf;
use std::time::Duration;
use supervisor::{next_action, Supervisor};
use yy_mesh::Decomp2D;
use yy_mhd::State;
use yy_parcomm::{FaultSpec, Universe};

/// Result of a parallel run (assembled on world rank 0).
pub struct ParallelReport {
    /// Run metrics and the diagnostic series.
    pub report: RunReport,
    /// Gathered full Yin panel when requested (overset frames and wall
    /// conditions filled, as a serial panel).
    pub yin: Option<State>,
    /// Gathered full Yang panel.
    pub yang: Option<State>,
    /// Measured per-rank compute imbalance: the slowest rank's stencil
    /// wall time over the mean (1.0 = perfectly balanced).
    pub achieved_imbalance: f64,
}

/// Execute a parallel run with `pth × pph` tiles per panel
/// (world size = `2 · pth · pph` rank threads): the rank program of
/// [`run_parallel_supervised`] in a plain universe, with no fault plan,
/// no deadlines and no checkpoint events but the final state's, kept
/// only when `gather_state` asks for the panels. Panics on a solver
/// health violation (there is nothing to roll back to).
pub fn run_parallel(
    cfg: &RunConfig,
    pth: usize,
    pph: usize,
    steps: u64,
    sample_every: u64,
    gather_state: bool,
) -> ParallelReport {
    cfg.params.validate();
    let decomp = Decomp2D::new(pth, pph, &cfg.grid());
    let plan = PassPlan {
        steps,
        sample_every,
        checkpoint_every: 0,
        health: HealthLimits::default(),
        dt_scale: 1.0,
        dt_inject: None,
        counters: true,
        metrics: None,
        science: None,
    };
    // The gathered panels are the panels of a final checkpoint.
    let set = gather_state.then(|| ShardSet::new(2 * decomp.tiles(), None));
    let results = Universe::run(2 * decomp.tiles(), |world| {
        rank_program(cfg, world, &decomp, &plan, None, set.as_ref())
    });
    // A health verdict is collective: every rank returned the same `Err`.
    let mut rep = match results.into_iter().next() {
        Some(Ok(Some(rep))) => rep,
        // This entry point's contract (`run_parallel_supervised` returns it).
        Some(Err(violation)) => panic!("{violation}"),
        // `rank_program` returns `Ok(Some(_))` on rank 0, and the universe has ≥ 2 ranks.
        _ => panic!("rank 0 must produce the report"),
    };
    if let Some(set) = set {
        let ck = merge_blocks(cfg, &set.drain().0.expect("every rank stores its final state"))
            .unwrap_or_else(|e| panic!("assembling the final state: {e}"));
        (rep.yin, rep.yang) = (Some(ck.yin), Some(ck.yang));
    }
    rep
}

/// What the supervisor does when a rank failure is classified as
/// *persistent* (the same node fails the same way twice).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FailurePolicy {
    /// Keep rolling back to the last checkpoint on the same layout.
    /// Persistent faults surface a structured error after 2 identical
    /// failures instead of burning the whole retry budget.
    #[default]
    Retry,
    /// Exclude the persistently failing node from the survivor set and
    /// re-tile the run onto the remaining nodes, degrading the layout
    /// (2×2 → 1×2 → 1×1) when the survivors no longer cover it.
    Retile,
    /// Fail fast: any rank failure aborts the run immediately.
    Abort,
}

impl FailurePolicy {
    /// Parse a CLI/config value (`retry` | `retile` | `abort`).
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "retry" => Ok(FailurePolicy::Retry),
            "retile" => Ok(FailurePolicy::Retile),
            "abort" => Ok(FailurePolicy::Abort),
            other => Err(format!("expected retry|retile|abort, got '{other}'")),
        }
    }

    /// The canonical config-key spelling.
    pub fn name(self) -> &'static str {
        match self {
            FailurePolicy::Retry => "retry",
            FailurePolicy::Retile => "retile",
            FailurePolicy::Abort => "abort",
        }
    }
}

/// Knobs for [`run_parallel_supervised`].
#[derive(Debug, Clone)]
pub struct RecoveryOpts {
    /// Deterministic fault-injection plan (disabled by default).
    pub fault: FaultSpec,
    /// Capture a checkpoint every this many steps (0 = only the initial
    /// and final states).
    pub checkpoint_every: u64,
    /// Per-receive communication deadline.
    pub deadline: Duration,
    /// Give up after this many rank-failure recoveries.
    pub max_recoveries: u32,
    /// Give up after this many health-triggered dt reductions.
    pub max_dt_reductions: u32,
    /// Solver health thresholds.
    pub health: HealthLimits,
    /// Observability: flight-recorder installation, the Chrome-trace
    /// output path, counters, the live metrics hub and science
    /// telemetry. Recording never perturbs the trajectory — the traced
    /// and untraced runs are bitwise identical.
    pub obs: ObsOpts,
    /// What to do when a fault is classified as persistent (same node,
    /// same failure, twice).
    pub on_failure: FailurePolicy,
    /// Give up after this many layout shrinks (`Retile` policy only).
    pub max_retiles: u32,
    /// Start from this serial-format checkpoint instead of initial
    /// conditions — the `restart onto (pth', pph')` path. Any layout's
    /// checkpoint restores onto any other layout bit-exactly.
    pub resume_from: Option<Checkpoint>,
    /// Directory for per-rank checkpoint *shards* (`None` disables disk
    /// persistence; the rollback point is kept in memory either way).
    /// Each rank writes its owned region at every checkpoint event; any
    /// complete shard set merges back into a serial-format checkpoint
    /// byte-identically ([`crate::output::merge_shards`]).
    pub ckpt_dir: Option<PathBuf>,
    /// Shard payload codec (`none` | `delta`).
    pub ckpt_compress: CkptCodec,
    /// Seeded dt-collapse injection for the blow-up smoke: from the
    /// given step the *applied* dt shrinks geometrically, tripping the
    /// watchdog's `dt_collapse` precursor. The CFL/health machinery
    /// still sees the un-injected dt, so a short run completes. `None`
    /// (the default) in every production run.
    pub dt_inject: Option<DtInject>,
}

impl Default for RecoveryOpts {
    fn default() -> Self {
        RecoveryOpts {
            fault: FaultSpec::disabled(),
            checkpoint_every: 0,
            deadline: Duration::from_secs(30),
            max_recoveries: 3,
            max_dt_reductions: 2,
            health: HealthLimits::default(),
            obs: ObsOpts::default(),
            on_failure: FailurePolicy::Retry,
            max_retiles: 2,
            resume_from: None,
            ckpt_dir: None,
            ckpt_compress: CkptCodec::Raw,
            dt_inject: None,
        }
    }
}

impl RecoveryOpts {
    /// Pre-flight validation of the policy surface. Returns a one-line
    /// diagnostic instead of panicking mid-run.
    pub fn check(&self) -> Result<(), String> {
        if self.deadline.is_zero() {
            return Err("deadline must be positive".into());
        }
        if self.on_failure == FailurePolicy::Retile && self.max_retiles == 0 {
            return Err("max_retiles must be at least 1 when on_failure=retile".into());
        }
        Ok(())
    }
}

/// One supervised pass's timing, for the before/after-shrink step-rate
/// comparison the CLI prints (`pass rates:`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PassStat {
    /// 1-based pass index.
    pub pass: u32,
    /// Layout the pass ran on.
    pub pth: usize,
    /// Layout the pass ran on.
    pub pph: usize,
    /// Checkpointed steps the pass contributed (progress measured at
    /// checkpoint granularity; work after the last capture of a failed
    /// pass is rolled back and not counted).
    pub steps_advanced: u64,
    /// Wall-clock seconds of the pass.
    pub wall_s: f64,
}

impl PassStat {
    /// Checkpointed steps per second of this pass.
    pub fn steps_per_sec(&self) -> f64 {
        if self.wall_s <= 0.0 {
            return 0.0;
        }
        self.steps_advanced as f64 / self.wall_s
    }
}

/// Result of a supervised parallel run.
#[derive(Debug, Clone)]
pub struct SupervisedReport {
    /// Metrics and diagnostic series of the *final* (successful) pass;
    /// its `io` section totals every pass.
    pub report: RunReport,
    /// Checkpoint of the final state, serial-format compatible (overset
    /// frames and wall conditions filled).
    pub final_checkpoint: Checkpoint,
    /// Every rollback the supervisor performed, in order.
    pub recoveries: Vec<RecoveryEvent>,
    /// Time-step scale the run finished with (1.0 unless health guards
    /// forced reductions).
    pub dt_scale: f64,
    /// Per-pass timing, in order (the before/after-shrink rate).
    pub passes: Vec<PassStat>,
}

/// Execute a parallel run under the fault-tolerant supervisor.
///
/// The rank program is [`run_parallel`]'s, in a supervised universe: a
/// `fault_tick` at the top of every step (injected kills), deadline-
/// bounded receives, and per-rank checkpoint events. The supervisor
/// restarts the universe from the last good checkpoint when any rank
/// fails, and additionally halves the time step when the failure was a
/// solver health violation. With faults that only drop/delay/duplicate
/// messages — or a kill recovered from checkpoint — the final state is
/// bitwise identical to an uninterrupted run.
pub fn run_parallel_supervised(
    cfg: &RunConfig,
    pth: usize,
    pph: usize,
    steps: u64,
    sample_every: u64,
    opts: &RecoveryOpts,
) -> Result<SupervisedReport, String> {
    let mut sup = Supervisor::setup(cfg, pth, pph, steps, sample_every, opts)?;
    loop {
        let pass = sup.run_pass()?;
        let action = next_action(&mut sup.policy, &pass.outcome);
        if sup.apply(action, &pass)? {
            return sup.finish(pass);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use super::solver::RankSolver;
    use super::supervisor::{Action, PassOutcome, PolicyState};
    use crate::serial::SerialSim;

    fn quick_cfg() -> RunConfig {
        let mut cfg = RunConfig::small();
        cfg.init.perturb_amplitude = 1e-2;
        cfg
    }

    /// `quick_cfg` on 13 × 29 columns at nr = 12: 30 debug steps in seconds.
    fn tiny_cfg() -> RunConfig {
        RunConfig { nr: 12, nth_nominal: 9, ..quick_cfg() }
    }

    /// Visit every leftover cell of `state`, a block whose owned columns
    /// start at `origin` in a panel of `panel` columns: each cell of a
    /// padded column outside the panel, but the wall nodes of `f`, which
    /// the no-slip condition zeroes in every column. (The wall pressure
    /// there is ρ·T of a leftover density, so it is leftover too.)
    fn for_each_leftover(
        state: &mut State,
        origin: (usize, usize),
        panel: (usize, usize),
        mut visit: impl FnMut(&mut f64),
    ) {
        let sh = state.shape();
        let (gth, gph) = (sh.gth as isize, sh.gph as isize);
        let inside = |x: isize, at: usize, n: usize| (0..n as isize).contains(&(x + at as isize));
        for (a, arr) in state.arrays_mut().into_iter().enumerate() {
            // f's three components are canonical arrays 2..5.
            let f = (2..5).contains(&a);
            for k in -gph..sh.nph as isize + gph {
                for j in -gth..sh.nth as isize + gth {
                    if inside(j, origin.0, panel.0) && inside(k, origin.1, panel.1) {
                        continue;
                    }
                    let row = arr.row_mut(j, k);
                    let n = row.len();
                    let cells = if f { &mut row[1..n - 1] } else { &mut row[..] };
                    cells.iter_mut().for_each(&mut visit);
                }
            }
        }
    }

    /// Set every leftover cell to NaN; returns how many there are.
    fn poison(state: &mut State, origin: (usize, usize), panel: (usize, usize)) -> usize {
        let mut n = 0;
        for_each_leftover(state, origin, panel, |v| (*v, n) = (f64::NAN, n + 1));
        n
    }

    /// Whether every leftover cell is NaN.
    fn all_nan(state: &mut State, origin: (usize, usize), panel: (usize, usize)) -> bool {
        let mut nan = true;
        for_each_leftover(state, origin, panel, |v| nan &= v.is_nan());
        nan
    }

    /// The owned values of `state`, bit for bit.
    fn owned_bits(state: &State) -> Vec<u64> {
        let sh = state.shape();
        let mut bits = Vec::new();
        for arr in state.arrays() {
            for k in 0..sh.nph as isize {
                for j in 0..sh.nth as isize {
                    bits.extend(arr.row(j, k).iter().map(|v| v.to_bits()));
                }
            }
        }
        bits
    }

    /// Each step's dt and diagnostics, bit for bit.
    type Trace = Vec<(u64, Vec<u64>)>;

    fn trace_point(dt: f64, diag: yy_mhd::Diagnostics) -> (u64, Vec<u64>) {
        (dt.to_bits(), diag.to_vec().iter().map(|v| v.to_bits()).collect())
    }

    /// The leftover cells are dead: no stencil, fill or scan reads them.
    /// Serially, with every leftover cell NaN from the first step, 30
    /// `SerialSim::advance` steps (not `try_run`: the health scan reads
    /// padding) keep the owned values, each dt and the diagnostics
    /// bit-identical to an unpoisoned run, and every leftover cell NaN.
    #[test]
    fn leftover_cells_are_dead_serially() {
        let cfg = tiny_cfg();
        let (_, nth, nph) = cfg.grid().dims();
        let run = |poisoned: bool| {
            let mut sim = SerialSim::new(cfg.clone());
            if poisoned {
                for state in [&mut sim.yin, &mut sim.yang] {
                    // 88 padded columns × (8 arrays × 12 nodes − 6 walls of f).
                    assert_eq!(poison(state, (0, 0), (nth, nph)), 7_920);
                }
            }
            let mut trace = Trace::new();
            for _ in 0..30 {
                let dt = sim.auto_dt();
                sim.advance(dt);
                trace.push(trace_point(dt, sim.diagnostics()));
            }
            (sim, trace)
        };
        let ((clean, clean_trace), (mut dirty, dirty_trace)) = (run(false), run(true));
        assert!(clean_trace == dirty_trace, "a leftover cell moved dt or the diagnostics");
        assert!(owned_bits(&clean.yin) == owned_bits(&dirty.yin), "Yin's owned values moved");
        assert!(owned_bits(&clean.yang) == owned_bits(&dirty.yang), "Yang's owned values moved");
        for state in [&mut dirty.yin, &mut dirty.yang] {
            assert!(all_nan(state, (0, 0), (nth, nph)), "a step wrote a leftover cell");
        }
    }

    /// [`leftover_cells_are_dead_serially`] on the rank solver at 1×2 and
    /// 2×2, each rank poisoning its own leftover cells after its first
    /// sync and stepping with `RankSolver::advance` (not `rank_program`,
    /// whose health scan reads padding).
    #[test]
    fn leftover_cells_are_dead_on_every_layout() {
        let cfg = tiny_cfg();
        let (_, nth, nph) = cfg.grid().dims();
        for (pth, pph) in [(1, 2), (2, 2)] {
            let decomp = Decomp2D::new(pth, pph, &cfg.grid());
            let run = |poisoned: bool| {
                Universe::run(2 * decomp.tiles(), |world| {
                    let (mut solver, mut state) =
                        RankSolver::new(&cfg, &world, &decomp, false, None);
                    solver.sync(&mut state, None);
                    let origin = (solver.tile.j0, solver.tile.k0);
                    if poisoned {
                        // Every tile of these layouts meets the panel's edge.
                        assert!(poison(&mut state, origin, (nth, nph)) > 0);
                    }
                    let mut trace = Trace::new();
                    for _ in 0..30 {
                        let dt = solver.global_dt(&state);
                        solver.advance(&mut state, dt);
                        trace.push(trace_point(dt, solver.reduce_diag(&state)));
                    }
                    let dead = all_nan(&mut state, origin, (nth, nph));
                    (owned_bits(&state), trace, dead)
                })
            };
            let (clean, dirty) = (run(false), run(true));
            for (rank, (c, d)) in clean.iter().zip(&dirty).enumerate() {
                assert!(c.0 == d.0, "{pth}x{pph} rank {rank}: owned values moved");
                assert!(c.1 == d.1, "{pth}x{pph} rank {rank}: dt or the diagnostics moved");
                assert!(d.2, "{pth}x{pph} rank {rank}: a step wrote a leftover cell");
            }
        }
    }

    #[test]
    fn parallel_runs_and_reports() {
        let rep = run_parallel(&quick_cfg(), 1, 2, 3, 1, false);
        assert_eq!(rep.report.steps, 3);
        assert!(rep.report.flops > 0);
        assert!(rep.report.halo_bytes > 0, "1x2 decomposition must exchange halos");
        assert!(rep.report.overset_bytes > 0);
        assert!(rep.yin.is_none());
    }

    /// The central correctness property: any decomposition produces the
    /// same owned values as the serial reference, bitwise.
    #[test]
    fn parallel_matches_serial_bitwise() {
        let cfg = quick_cfg();
        let mut serial = SerialSim::new(cfg.clone());
        serial.run(3, 0);
        // (1,1) is the halo-free decomposition where the overset post is
        // hoisted to the top of the sync; (1,2)/(2,2) exercise the
        // interleaved halo dims.
        for (pth, pph) in [(1, 1), (1, 2), (2, 2)] {
            let rep = run_parallel(&cfg, pth, pph, 3, 0, true);
            let yin = rep.yin.expect("gathered yin");
            let yang = rep.yang.expect("gathered yang");
            let (_, nth, nph) = serial.grid.dims();
            let mut checked = 0usize;
            for (ser, par) in [(&serial.yin, &yin), (&serial.yang, &yang)] {
                for (sa, pa) in ser.arrays().into_iter().zip(par.arrays()) {
                    for k in 0..nph as isize {
                        for j in 0..nth as isize {
                            for i in 0..serial.grid.spec().nr {
                                assert_eq!(
                                    sa.at(i, j, k),
                                    pa.at(i, j, k),
                                    "mismatch at panel array node ({i},{j},{k}) under {pth}x{pph}"
                                );
                                checked += 1;
                            }
                        }
                    }
                }
            }
            assert!(checked > 100_000, "comparison actually covered the grid");
        }
    }

    /// Five steps through a 2×2 decomposition: the in-rank steady-state
    /// assertion (zero scratch allocations after warmup) must hold and
    /// the phase breakdown must be populated.
    #[test]
    fn overlapped_steady_state_is_allocation_free_and_phased() {
        let rep = run_parallel(&quick_cfg(), 2, 2, 5, 0, false);
        let p = rep.report.phases;
        use yy_obs::event::Phase;
        for phase in [Phase::Pack, Phase::Interior, Phase::Boundary, Phase::Overset] {
            assert!(p.get(phase) > 0.0, "{} phase must be instrumented", phase.name());
        }
        let hidden = p.hidden_comm_fraction();
        assert!(hidden > 0.0 && hidden <= 1.0, "hidden fraction {hidden} out of range");
    }

    #[test]
    fn diagnostics_agree_with_serial_to_roundoff() {
        let cfg = quick_cfg();
        let mut serial = SerialSim::new(cfg.clone());
        let s_rep = serial.run(2, 1);
        let p_rep = run_parallel(&cfg, 2, 1, 2, 1, false);
        let s_last = s_rep.series.last().unwrap().diag;
        let p_last = p_rep.report.series.last().unwrap().diag;
        assert!(geomath::approx_eq(s_last.kinetic, p_last.kinetic, 1e-12));
        assert!(geomath::approx_eq(s_last.thermal, p_last.thermal, 1e-12));
        assert!(geomath::approx_eq(s_last.mass, p_last.mass, 1e-12));
        assert_eq!(s_last.max_speed, p_last.max_speed); // max is exact
    }

    #[test]
    fn failure_policy_parses_and_rejects() {
        assert_eq!(FailurePolicy::parse("retry").unwrap(), FailurePolicy::Retry);
        assert_eq!(FailurePolicy::parse("retile").unwrap(), FailurePolicy::Retile);
        assert_eq!(FailurePolicy::parse("abort").unwrap(), FailurePolicy::Abort);
        let err = FailurePolicy::parse("panic").unwrap_err();
        assert_eq!(err, "expected retry|retile|abort, got 'panic'");
        assert_eq!(FailurePolicy::Retile.name(), "retile");
    }

    #[test]
    fn recovery_opts_check_rejects_bad_combinations() {
        let ok = RecoveryOpts::default();
        assert!(ok.check().is_ok());
        let zero_retiles = RecoveryOpts {
            on_failure: FailurePolicy::Retile,
            max_retiles: 0,
            ..RecoveryOpts::default()
        };
        let err = zero_retiles.check().unwrap_err();
        assert!(err.contains("max_retiles must be at least 1"), "unexpected: {err}");
        let dead = RecoveryOpts { deadline: Duration::ZERO, ..RecoveryOpts::default() };
        assert!(dead.check().unwrap_err().contains("deadline"));
    }

    /// Launch inputs that used to panic, be silently ignored, or fail
    /// only after the run: each is one `Err` line naming the key, from
    /// `Supervisor::setup`, before any rank thread exists.
    #[test]
    fn unusable_launch_inputs_are_one_line_errors() {
        let fault = |spec: FaultSpec| RecoveryOpts { fault: spec, ..RecoveryOpts::default() };
        let trace = RecoveryOpts {
            obs: ObsOpts { trace: Some("/nonexistent-yy/x.json".into()), ..ObsOpts::default() },
            ..RecoveryOpts::default()
        };
        // No rank probes the equatorial ring, so this rule could never fire.
        let rules = std::env::temp_dir().join(format!("yy_par_rules_{}", std::process::id()));
        let text = "fine: dt above threshold=1\ncolumns: dominant_m above threshold=4\n";
        std::fs::write(&rules, text).expect("write rules file");
        let armed = ObsOpts { series: true, rules: Some(rules.clone()), ..ObsOpts::default() };
        let serial_only = RecoveryOpts { obs: armed.clone(), ..RecoveryOpts::default() };
        let us = Duration::from_micros(1);
        let cases = [
            (fault(FaultSpec::seeded(1).with_delay(2.0, us)), "delay"),
            (fault(FaultSpec::seeded(1).with_delay(0.6, us).with_duplicate(0.6)), "delay + dup"),
            (fault(FaultSpec::seeded(1).with_delay(-0.5, us)), "delay"),
            (fault(FaultSpec::seeded(1).with_duplicate(f64::NAN)), "dup"),
            (fault(FaultSpec::seeded(1).with_kill(99, 0)), "kill_rank=99"),
            (fault(FaultSpec::seeded(1).with_delay(0.5, us).with_delay_src(99)), "delay_src=99"),
            (trace, "trace=/nonexistent-yy/x.json"),
            (serial_only, "rules line 2: channel \"dominant_m\" is recorded by serial runs only"),
        ];
        for (opts, key) in cases {
            let err = run_parallel_supervised(&quick_cfg(), 1, 2, 1, 0, &opts)
                .expect_err(&format!("{key} must be refused"));
            assert_eq!(err.lines().count(), 1, "{key}: {err}");
            assert!(err.starts_with(key), "'{err}' does not lead with {key}");
        }
        // The serial driver fills the channel, so `run` takes the file.
        let mut sim = SerialSim::new(quick_cfg());
        sim.arm_telemetry(&armed).expect("a serial run records dominant_m");
        std::fs::remove_file(&rules).ok();
    }

    /// The blow-up configuration of the hang report: a violent start at
    /// the CFL limit goes unphysical within a few dozen steps.
    fn blowup_cfg() -> RunConfig {
        let mut cfg = RunConfig { nr: 12, nth_nominal: 9, cfl: 1.0, ..RunConfig::small() };
        cfg.init.perturb_amplitude = 0.9;
        cfg
    }

    fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default()
    }

    /// One rank tripping the health scan must end the plain driver, not
    /// strand its peers in a receive: the verdict is collective, so
    /// every rank returns and `run_parallel` panics with the violation.
    /// The serial driver reaches the same verdict at the same step.
    #[test]
    fn plain_run_fails_instead_of_hanging_on_a_health_violation() {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let outcome =
                std::panic::catch_unwind(|| run_parallel(&blowup_cfg(), 1, 2, 600, 0, false));
            tx.send(outcome.map(|_| ()).map_err(panic_text)).ok();
        });
        let par = rx
            .recv_timeout(Duration::from_secs(30))
            .expect("run_parallel hung on a health violation")
            .expect_err("the blow-up must not complete");
        let serial = std::panic::catch_unwind(|| SerialSim::new(blowup_cfg()).run(600, 0))
            .map(|_| ())
            .map_err(panic_text)
            .expect_err("the serial blow-up must not complete");
        // "rank R step S: <violation>" against
        // "step S (t = …): <violation>; <advice>".
        let (par_head, par_violation) = par.split_once(": ").expect("rank and step, then text");
        let (ser_head, ser_rest) = serial.split_once(": ").expect("step and time, then text");
        let (ser_violation, advice) = ser_rest.split_once("; ").expect("violation, then advice");
        assert!(par_head.starts_with("rank "), "names the rank: {par}");
        assert_eq!(par_head.rsplit(' ').next(), ser_head.split(' ').nth(1), "{par} vs {serial}");
        assert_eq!(par_violation, ser_violation);
        assert_eq!(advice, "reduce cfl, reduce dt_every, or increase dissipation");
    }

    fn policy(on_failure: FailurePolicy, pth: usize, pph: usize) -> PolicyState {
        PolicyState::new(&RecoveryOpts { on_failure, ..RecoveryOpts::default() }, pth, pph)
    }

    fn killed(node: usize, step: u64) -> PassOutcome {
        PassOutcome::RankFailed {
            node,
            sig: format!("kill@{step}"),
            cause: format!("rank {node}: injected kill at step {step}"),
        }
    }

    fn give_up(action: Action) -> String {
        match action {
            Action::GiveUp(msg) => msg,
            other => panic!("expected GiveUp, got {other:?}"),
        }
    }

    /// The recovery policy as a table, with no universe behind it.
    #[test]
    fn next_action_follows_the_policy_table() {
        // A clean pass finishes, whatever the policy.
        let mut st = policy(FailurePolicy::Abort, 1, 2);
        assert_eq!(next_action(&mut st, &PassOutcome::Completed), Action::Finish);

        // Transient failures (distinct signatures) roll back until the
        // retry budget is spent.
        let mut st = policy(FailurePolicy::Retry, 1, 2);
        for step in 0..st.max_recoveries as u64 {
            assert_eq!(next_action(&mut st, &killed(1, step)), Action::Rollback);
        }
        let msg = give_up(next_action(&mut st, &killed(1, 99)));
        assert!(msg.starts_with("giving up after 3 rank-failure recoveries: rank 1"), "{msg}");

        // The same node failing the same way twice is persistent: under
        // `retry` that is an error naming the remedy.
        let mut st = policy(FailurePolicy::Retry, 2, 2);
        assert_eq!(next_action(&mut st, &killed(1, 4)), Action::Rollback);
        let msg = give_up(next_action(&mut st, &killed(1, 4)));
        assert!(
            msg.starts_with("persistent fault: node 1 failed identically 2 times (kill@4)")
                && msg.contains("use on_failure=retile"),
            "{msg}"
        );

        // `abort` gives up on the first failure and names the pass.
        let mut st = policy(FailurePolicy::Abort, 1, 2);
        st.pass = 1;
        let msg = give_up(next_action(&mut st, &killed(0, 2)));
        assert!(msg.starts_with("on_failure=abort: pass 1: rank 0"), "{msg}");

        // Health violations halve dt until that budget is spent.
        let mut st = policy(FailurePolicy::Retry, 1, 1);
        let sick = PassOutcome::Unhealthy("rank 0 step 3: density floor violated".into());
        assert_eq!(next_action(&mut st, &sick), Action::HalveDt);
        assert_eq!(next_action(&mut st, &sick), Action::HalveDt);
        let msg = give_up(next_action(&mut st, &sick));
        assert!(
            msg.starts_with("health violations persist after 2 dt reductions: rank 0"),
            "{msg}"
        );
    }

    /// Under `retile` every persistent node is excluded and the layout
    /// shrinks θ-first — 2×2 → 1×2 → 1×1 — until the budget or the node
    /// pool runs out.
    #[test]
    fn next_action_shrinks_the_layout_in_order() {
        let mut st = policy(FailurePolicy::Retile, 2, 2);
        (st.max_retiles, st.max_recoveries) = (8, 100);
        let persistent = |st: &mut PolicyState, node: usize| {
            assert_eq!(next_action(st, &killed(node, 4)), Action::Rollback);
            next_action(st, &killed(node, 4))
        };
        assert_eq!(persistent(&mut st, 1), Action::Retile { node: 1, from: (2, 2) });
        assert_eq!(st.layout, (1, 2));
        assert_eq!(st.survivors, vec![0, 2, 3, 4, 5, 6, 7]);
        // Seven survivors still cover 1×2 (four ranks): three more
        // exclusions do not shrink, the fourth does.
        for node in [0, 2, 3] {
            assert_eq!(persistent(&mut st, node), Action::Retile { node, from: (1, 2) });
            assert_eq!(st.layout, (1, 2));
        }
        assert_eq!(persistent(&mut st, 4), Action::Retile { node: 4, from: (1, 2) });
        assert_eq!(st.layout, (1, 1));
        assert_eq!(persistent(&mut st, 5), Action::Retile { node: 5, from: (1, 1) });
        let msg = give_up(persistent(&mut st, 6));
        assert!(msg.starts_with("only 1 nodes survive — too few for even a 1x1 layout"), "{msg}");

        // The re-tile budget is charged per shrink decision.
        let mut st = policy(FailurePolicy::Retile, 2, 2);
        st.max_retiles = 1;
        assert!(matches!(persistent(&mut st, 1), Action::Retile { .. }));
        let msg = give_up(persistent(&mut st, 0));
        assert!(msg.starts_with("giving up after 1 re-tiles: rank 0"), "{msg}");
    }

    /// The rollback point's rule on a hand-built in-memory set at the
    /// 1×1 layout (rank 0 owns Yin, rank 1 Yang), events every 2 steps:
    /// with rank 1 missing step 4, `drain` hands back step 2, whose
    /// blocks merge to the serial checkpoint of step 2; with no complete
    /// step it hands back nothing, so the pass's own start stands. The
    /// in-memory twin of `shard_merge.rs`'s incomplete-set case.
    #[test]
    fn rollback_resumes_from_the_newest_complete_in_memory_step() {
        use crate::output::checkpoint_blocks;
        let cfg = quick_cfg();
        let mut sim = SerialSim::new(cfg.clone());
        let store = |set: &ShardSet, sim: &SerialSim, rank: usize| {
            let (meta, raw) = checkpoint_blocks(&Checkpoint::capture(sim)).swap_remove(rank);
            set.store(meta, |buf| *buf = raw.to_vec());
        };
        let (set, torn) = (ShardSet::new(2, None), ShardSet::new(2, None));
        let start = Checkpoint::capture(&sim);
        // A checkpoint's 1×1 blocks merge back to it.
        assert!(merge_blocks(&cfg, &checkpoint_blocks(&start)).ok() == Some(start));
        for rank in [0, 1] {
            store(&set, &sim, rank);
        }
        sim.run(2, 0);
        let at_2 = Checkpoint::capture(&sim);
        for rank in [0, 1] {
            store(&set, &sim, rank);
        }
        sim.run(2, 0);
        // Rank 1 dies before its step-4 store; rank 0's overwrites step 0.
        store(&set, &sim, 0);
        store(&torn, &sim, 0);

        let resumed = set.drain().0.expect("step 2 is complete");
        let held: Vec<(u64, u64)> = resumed.iter().map(|(m, _)| (m.step, m.rank)).collect();
        assert_eq!(held, [(2, 0), (2, 1)], "fallback to the complete step, in rank order");
        assert!(merge_blocks(&cfg, &resumed).ok() == Some(at_2), "step 2 differs from serial");
        assert!(torn.drain().0.is_none(), "a step one rank never stored is no resume point");
        assert!(ShardSet::new(2, None).drain().0.is_none());
    }

    /// A restore places blocks of any layout onto any other. For seeded
    /// pairs of layouts — and 1×2 against 1×3 both ways, whose tiles
    /// overlap in part — layout A's blocks of a serial state, packed
    /// straight from the serial panels, restore every tile of layout B
    /// through `RankSolver::new`: step and time from the header, every
    /// owned value bitwise the serial panel's, every other padded cell
    /// zero.
    #[test]
    fn blocks_from_any_layout_land_on_any_other_layout() {
        use crate::output::{Block, ShardMeta};
        use std::sync::Arc;
        use yy_testkit::{check_with, Config};
        const LAYOUTS: [(usize, usize); 7] =
            [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 2), (2, 5)];
        let cfg = tiny_cfg();
        let grid = cfg.grid();
        let mut sim = SerialSim::new(cfg.clone());
        sim.run(2, 0);
        let panels = [&sim.yin, &sim.yang];
        let blocks_of = |(pth, pph): (usize, usize)| -> Vec<Block> {
            let decomp = Decomp2D::new(pth, pph, &grid);
            let tiles = decomp.tiles();
            (0..2 * tiles)
                .map(|rank| {
                    let (panel, t) = (rank / tiles, decomp.tile(rank % tiles));
                    let mut raw = Vec::new();
                    for arr in panels[panel].arrays() {
                        for k in t.k0 as isize..(t.k0 + t.nph) as isize {
                            for j in t.j0 as isize..(t.j0 + t.nth) as isize {
                                raw.extend(arr.row(j, k).iter().flat_map(|v| v.to_le_bytes()));
                            }
                        }
                    }
                    let at = (sim.step, sim.time, sim.dt_cache);
                    let place = [pth, pph, rank, panel, t.j0, t.nth, t.k0, t.nph];
                    (ShardMeta::new(grid.full_shape(), at, place.map(|v| v as u64)), Arc::new(raw))
                })
                .collect()
        };
        let land = |&(from, onto): &((usize, usize), (usize, usize))| -> Result<(), String> {
            let blocks = blocks_of(from);
            let decomp = Decomp2D::new(onto.0, onto.1, &grid);
            let faults = Universe::run(2 * decomp.tiles(), |world| {
                let (solver, state) = RankSolver::new(&cfg, &world, &decomp, false, Some(&blocks));
                let (t, rank) = (&solver.tile, world.rank());
                if (solver.step, solver.time) != (sim.step, sim.time) {
                    return Some(format!("rank {rank}: step and time are not the header's"));
                }
                let sh = state.shape();
                let serial = panels[rank / decomp.tiles()].arrays();
                for (a, arr) in state.arrays().into_iter().enumerate() {
                    for k in -(sh.gph as isize)..(sh.nph + sh.gph) as isize {
                        for j in -(sh.gth as isize)..(sh.nth + sh.gth) as isize {
                            let owned = (0..sh.nth as isize).contains(&j)
                                && (0..sh.nph as isize).contains(&k);
                            let bits = |row: &[f64]| row.iter().map(|v| v.to_bits()).collect();
                            let want: Vec<u64> = if owned {
                                bits(serial[a].row(j + t.j0 as isize, k + t.k0 as isize))
                            } else {
                                vec![0; sh.nr]
                            };
                            if bits(arr.row(j, k)) != want {
                                return Some(format!("rank {rank}: array {a} column ({j}, {k})"));
                            }
                        }
                    }
                }
                None
            });
            match faults.into_iter().flatten().next() {
                Some(fault) => Err(format!("{from:?} onto {onto:?}: {fault}")),
                None => Ok(()),
            }
        };
        for pair in [((1, 2), (1, 3)), ((1, 3), (1, 2))] {
            land(&pair).unwrap_or_else(|e| panic!("{e}"));
        }
        check_with(
            Config::with_cases(8),
            "blocks_from_any_layout_land_on_any_other_layout",
            |g| (LAYOUTS[g.range_usize(0, 7)], LAYOUTS[g.range_usize(0, 7)]),
            land,
        );
    }
}
