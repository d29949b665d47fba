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
//! ([`yy_parcomm::fault`]), comm deadlines with bounded retry, per-step
//! solver health guards ([`crate::health`]), and periodic parallel
//! checkpoints. When a rank dies (injected kill, comm timeout, panic)
//! the whole universe is torn down and restarted from the last good
//! checkpoint; when the *solver* goes unhealthy the supervisor rolls
//! back **and** halves the time step. Because delivery is exactly-once
//! and in-order even under injected drops/delays/duplicates, and
//! because the restart replays the dt/sampling cadence at absolute step
//! numbers, a recovered run reproduces the fault-free trajectory
//! bitwise.

use crate::checkpoint::{blank_panels, Checkpoint};
use crate::config::RunConfig;
use crate::health::{HealthGuard, HealthLimits};
use crate::obs::{recorders_to_chrome, ObsOpts};
use crate::output::{pack_shard_payload, shard_file_name, CkptCodec, OutputStage, ShardMeta};
pub use crate::report::{ElasticSummary, RecoveryEvent, RetileRecord};
use crate::report::{IoStats, PhaseBreakdown, RunReport, TimeSeriesPoint};
use crate::serial::{overset_donate_tally, overset_fill_tally};
use crate::telemetry::{DtInject, ScienceTelemetry};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};
use yy_field::{pack_region, unpack_region, Array3, Meters, Region};
use yy_mesh::partition::MIN_TILE_WIDTH;
use yy_mesh::routing::{build_schedule, panel_of_world, OversetExchange, TargetSlot};
use yy_mesh::{
    build_overset_columns, interp::interp_scalar_column, interp::interp_vector_column, Decomp2D,
    Metric, OversetColumn, Panel, PatchGrid, Tile,
};
use yy_mhd::rhs::{sweep_rhs, InteriorRange, OverlapSplit, RhsScratch, RhsSink};
use yy_mhd::tables::rotation_axis;
use yy_mhd::{
    apply_physical_bc, cfl_timestep, initialize, timestep::rho_min_owned,
    wave_speed_max, Diagnostics, ForceTables, State,
};
use yy_obs::counters::{kernel, CounterSet, CounterSnapshot, KernelTally};
use yy_obs::event::counter;
use yy_obs::hist::HistogramSnapshot;
use yy_obs::{
    analyze, prometheus_text_with_phases, science_gauges_text, AnalysisInput, Event, MetricsHub,
    RecorderSet,
};
use yy_parcomm::stats::{SolverPhase, TrafficClass};
use yy_parcomm::{
    CartComm, Comm, CommStats, FailureKind, FaultPlan, FaultSpec, RankFailure, ReduceOp,
    SupervisedOpts, Universe,
};

/// User-tag space for the solver's point-to-point traffic.
const TAG_HALO_THETA: u64 = 11;
const TAG_HALO_PHI: u64 = 12;
const TAG_OVERSET: u64 = 13;
const TAG_GATHER: u64 = 14;

/// The supervisor's last-good checkpoint, replaced whole by rank 0.
type CkptSlot = Mutex<Option<Checkpoint>>;

/// A panicked rank thread cannot leave the slot half-written (it is
/// only ever replaced whole), so a poisoned lock is still good.
fn lock_slot(slot: &CkptSlot) -> MutexGuard<'_, Option<Checkpoint>> {
    slot.lock().unwrap_or_else(|e| e.into_inner())
}

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
/// no deadlines and no checkpoints. Panics on a solver health violation
/// (there is nothing to roll back to).
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
        profile_every: 0,
        metrics: None,
        shards: None,
    };
    // The gathered panels are the panels of a final checkpoint.
    let slot = gather_state.then(|| Mutex::new(None));
    let results = Universe::run(2 * decomp.tiles(), |world| {
        rank_program(cfg, world, &decomp, &plan, None, slot.as_ref())
    });
    // A health verdict is collective: every rank returned the same `Err`.
    let mut rep = match results.into_iter().next() {
        Some(Ok(Some(rep))) => rep,
        Some(Err(violation)) => panic!("{violation}"),
        _ => panic!("rank 0 must produce the report"),
    };
    if let Some(ck) = slot.and_then(|s| lock_slot(&s).take()) {
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
    /// output path, ring sizing. Recording never perturbs the
    /// trajectory — the traced and untraced runs are bitwise identical.
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
    /// persistence; the in-memory rollback slot always works). Each rank
    /// writes its owned region at every checkpoint event; any complete
    /// shard set merges back into a serial-format checkpoint
    /// byte-identically ([`crate::output::merge_shards`]).
    pub ckpt_dir: Option<PathBuf>,
    /// Overlap shard writes with compute via the per-rank writer thread
    /// (`true`, the default) or write inline at the capture point
    /// (`false`; the CLI's closing `io:` line then reads `(inline)`).
    pub ckpt_async: bool,
    /// Shard payload codec (`none` | `rle` | `delta`).
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
            ckpt_async: true,
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
        if let Some(inj) = self.dt_inject.filter(|inj| !(inj.factor > 0.0 && inj.factor < 1.0)) {
            return Err(format!("dt_collapse_factor must lie in (0, 1) (got {})", inj.factor));
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
    /// Metrics and diagnostic series of the *final* (successful) pass.
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
/// bounded receives, and checkpoint capture at rank 0. The supervisor
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

/// How one supervised pass ended, as the recovery policy sees it.
#[derive(Debug)]
enum PassOutcome {
    /// Every rank ran to the last step.
    Completed,
    /// A rank died (injected kill, comm error, panic).
    RankFailed {
        /// Stable node id the rank ran on (survives re-tiles).
        node: usize,
        /// Failure signature: separates a deterministic re-kill from
        /// unrelated trouble on the same hardware.
        sig: String,
        /// The failure, for the error and the recovery record.
        cause: String,
    },
    /// Every rank survived and returned the collective health verdict.
    Unhealthy(String),
}

impl PassOutcome {
    fn cause(&self) -> &str {
        match self {
            PassOutcome::Completed => "",
            PassOutcome::RankFailed { cause, .. } | PassOutcome::Unhealthy(cause) => cause,
        }
    }
}

/// What the supervisor does after a pass.
#[derive(Debug, PartialEq)]
enum Action {
    /// The run is complete.
    Finish,
    /// Restart from the last good checkpoint on the same layout.
    Rollback,
    /// Restart from the last good checkpoint with half the time step.
    HalveDt,
    /// Exclude `node`, shrink the layout `from` → `PolicyState::layout`
    /// and resume there.
    Retile { node: usize, from: (usize, usize) },
    /// Stop with this error.
    GiveUp(String),
}

/// The budgets and counters [`next_action`] decides from, and the
/// elastic state it advances: the current layout, the surviving node
/// pool and the persistent-fault classifier.
#[derive(Debug)]
struct PolicyState {
    on_failure: FailurePolicy,
    max_recoveries: u32,
    max_dt_reductions: u32,
    max_retiles: u32,
    /// Passes started so far (the 1-based index of the current one).
    pass: u32,
    layout: (usize, usize),
    survivors: Vec<usize>,
    rank_recoveries: u32,
    dt_reductions: u32,
    retiles: u32,
    /// Failures so far by (node, signature): two make a fault persistent.
    fail_counts: HashMap<(usize, String), u32>,
}

impl PolicyState {
    fn new(opts: &RecoveryOpts, pth: usize, pph: usize) -> Self {
        PolicyState {
            on_failure: opts.on_failure,
            max_recoveries: opts.max_recoveries,
            max_dt_reductions: opts.max_dt_reductions,
            max_retiles: opts.max_retiles,
            pass: 0,
            layout: (pth, pph),
            // Node identities are fixed at the *requested* size: world
            // ranks of every pass map onto the first `nprocs` surviving
            // nodes, so the fault plan (which targets node ids) keeps
            // aiming at the same hardware across re-tiles, and an
            // excluded node is gone for good.
            survivors: (0..2 * pth * pph).collect(),
            rank_recoveries: 0,
            dt_reductions: 0,
            retiles: 0,
            fail_counts: HashMap::new(),
        }
    }
}

/// The recovery policy, apart from its mechanism: decide what follows
/// a pass and charge the budget it draws on. Pure — it reads and
/// writes `st` only.
fn next_action(st: &mut PolicyState, outcome: &PassOutcome) -> Action {
    let (node, sig, cause) = match outcome {
        PassOutcome::Completed => return Action::Finish,
        PassOutcome::Unhealthy(cause) => {
            if st.dt_reductions >= st.max_dt_reductions {
                return Action::GiveUp(format!(
                    "health violations persist after {} dt reductions: {cause}",
                    st.dt_reductions
                ));
            }
            st.dt_reductions += 1;
            return Action::HalveDt;
        }
        PassOutcome::RankFailed { node, sig, cause } => (*node, sig, cause),
    };
    let count = st.fail_counts.entry((node, sig.clone())).or_insert(0);
    *count += 1;
    let count = *count;
    if st.on_failure == FailurePolicy::Abort {
        return Action::GiveUp(format!("on_failure=abort: pass {}: {cause}", st.pass));
    }
    if count < 2 {
        if st.rank_recoveries >= st.max_recoveries {
            return Action::GiveUp(format!(
                "giving up after {} rank-failure recoveries: {cause}",
                st.rank_recoveries
            ));
        }
        st.rank_recoveries += 1;
        return Action::Rollback;
    }
    if st.on_failure == FailurePolicy::Retry {
        // Don't burn the remaining retry budget replaying a
        // deterministic failure — surface it with the fix.
        return Action::GiveUp(format!(
            "persistent fault: node {node} failed identically {count} times ({sig}); \
             on_failure=retry cannot make progress — use on_failure=retile: {cause}"
        ));
    }
    if st.retiles >= st.max_retiles {
        return Action::GiveUp(format!("giving up after {} re-tiles: {cause}", st.retiles));
    }
    // Exclude the node and shrink the layout until the survivors cover
    // it (2×2 → 1×2 → 1×1).
    st.survivors.retain(|&n| n != node);
    let from = st.layout;
    let (mut pth, mut pph) = from;
    while 2 * pth * pph > st.survivors.len() {
        if pth >= pph && pth > 1 {
            pth /= 2;
        } else if pph > 1 {
            pph /= 2;
        } else {
            return Action::GiveUp(format!(
                "only {} nodes survive — too few for even a 1x1 layout: {cause}",
                st.survivors.len()
            ));
        }
    }
    st.layout = (pth, pph);
    st.retiles += 1;
    Action::Retile { node, from }
}

/// What every rank of one pass is told. Rank-uniform by construction —
/// decided once, by the caller — so the collectives these settings
/// gate stay matched.
struct PassPlan {
    /// Absolute step number the run ends at.
    steps: u64,
    sample_every: u64,
    /// Capture a checkpoint every this many steps (0 = only the ends).
    checkpoint_every: u64,
    health: HealthLimits,
    /// Scale on the CFL step (halved by each health rollback).
    dt_scale: f64,
    dt_inject: Option<DtInject>,
    /// Arm the per-kernel counters.
    counters: bool,
    /// Profile-sample / metrics-publish cadence in steps (0 = off).
    profile_every: u64,
    metrics: Option<Arc<MetricsHub>>,
    /// Write this rank's owned region at every checkpoint event.
    shards: Option<ShardCfg>,
}

/// One finished pass.
struct Pass {
    outcome: PassOutcome,
    /// Rank 0's report (completed passes only).
    report: Option<ParallelReport>,
    decomp: Decomp2D,
    /// Step of the last good checkpoint after the pass.
    resume_step: u64,
}

/// The mechanism of a supervised run: everything that outlives a pass.
struct Supervisor<'a> {
    cfg: &'a RunConfig,
    opts: &'a RecoveryOpts,
    grid: PatchGrid,
    fault: Option<Arc<FaultPlan>>,
    /// The supervisor — not the universe — owns the flight recorders, so
    /// ring contents survive the teardown of a failed pass and can be
    /// dumped as a post-mortem.
    recorders: Option<Arc<RecorderSet>>,
    /// Science telemetry is supervisor-owned: built up front (so a bad
    /// rules file fails the launch, not the landing) and fed from the
    /// final pass's diagnostic series after success. The rank program
    /// never sees it — armed runs stay bit-identical to unarmed ones.
    science: Option<ScienceTelemetry>,
    slot: CkptSlot,
    plan: PassPlan,
    policy: PolicyState,
    recoveries: Vec<RecoveryEvent>,
    /// Every layout shrink so far; the run is *degraded* from the first.
    retiles: Vec<RetileRecord>,
    passes: Vec<PassStat>,
}

impl<'a> Supervisor<'a> {
    fn setup(
        cfg: &'a RunConfig,
        pth: usize,
        pph: usize,
        steps: u64,
        sample_every: u64,
        opts: &'a RecoveryOpts,
    ) -> Result<Self, String> {
        cfg.params.validate();
        opts.check()?;
        let grid = cfg.grid();
        // Layout pre-flight, so `Decomp2D::new` and the universe never
        // assert on a caller's value. Re-tiling only ever halves an
        // axis, so every shrunk layout passes if this one does.
        let (_, nth, nph) = grid.dims();
        if pth == 0 || pph == 0 || nth < MIN_TILE_WIDTH * pth || nph < MIN_TILE_WIDTH * pph {
            return Err(format!(
                "layout pth={pth} pph={pph} does not fit the {nth}x{nph}-column panel: pth must \
                 lie in 1..={} and pph in 1..={} (tiles at least {MIN_TILE_WIDTH} columns wide)",
                nth / MIN_TILE_WIDTH,
                nph / MIN_TILE_WIDTH
            ));
        }
        let req_nprocs = 2 * pth * pph;
        opts.fault.check(req_nprocs)?;
        let recorders = opts.obs.make_recorders(req_nprocs);
        // Claim the trace path now, so a bad one fails the launch rather
        // than the landing (after the run, with the checkpoint unsaved).
        if let (Some(path), Some(_)) = (&opts.obs.trace, &recorders) {
            std::fs::File::create(path).map_err(|e| format!("trace={}: {e}", path.display()))?;
        }
        // Disk persistence: each rank writes its owned region into the
        // shard directory at every checkpoint event, overlapped with
        // compute when `ckpt_async`.
        let shards = opts.ckpt_dir.as_ref().map(|dir| ShardCfg {
            dir: dir.clone(),
            async_mode: opts.ckpt_async,
            codec: opts.ckpt_compress,
        });
        if let Some(dir) = &opts.ckpt_dir {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("creating checkpoint directory {}: {e}", dir.display()))?;
        }
        // The restart-onto-any-layout path: a serial-format checkpoint from
        // *any* producer (serial run, any tile layout) seeds the slot, and
        // the first pass restores it exactly like a rollback would.
        if let Some(ck) = opts.resume_from.as_ref().filter(|ck| ck.shape != grid.full_shape()) {
            return Err(format!(
                "resume checkpoint geometry {:?} does not match the run configuration {:?}",
                ck.shape,
                grid.full_shape()
            ));
        }
        Ok(Supervisor {
            cfg,
            opts,
            grid,
            fault: opts
                .fault
                .is_active()
                .then(|| Arc::new(FaultPlan::new(opts.fault.clone(), req_nprocs))),
            recorders,
            science: ScienceTelemetry::from_opts(&opts.obs)?,
            slot: Mutex::new(opts.resume_from.clone()),
            plan: PassPlan {
                steps,
                sample_every,
                checkpoint_every: opts.checkpoint_every,
                health: opts.health,
                dt_scale: 1.0,
                dt_inject: opts.dt_inject,
                counters: opts.obs.counters,
                profile_every: opts.obs.profile_every,
                metrics: opts.obs.metrics_hub.clone(),
                shards,
            },
            policy: PolicyState::new(opts, pth, pph),
            recoveries: Vec::new(),
            retiles: Vec::new(),
            passes: Vec::new(),
        })
    }

    /// Run the rank program once, on the current layout and surviving
    /// nodes, from the last good checkpoint; classify how it ended.
    fn run_pass(&mut self) -> Result<Pass, String> {
        self.policy.pass += 1;
        let (pth, pph) = self.policy.layout;
        let nprocs = 2 * pth * pph;
        let node_map: Vec<usize> = self.policy.survivors[..nprocs].to_vec();
        let decomp = Decomp2D::new(pth, pph, &self.grid);
        // Messages stuck in limbo belong to the previous (dead) pass.
        if let Some(plan) = &self.fault {
            plan.begin_pass();
        }
        let resume = lock_slot(&self.slot).clone();
        let start_step = resume.as_ref().map_or(0, |ck| ck.step);
        let sup = SupervisedOpts {
            fault: self.fault.clone(),
            deadline: self.opts.deadline,
            recorders: self.recorders.clone(),
            nodes: Some(node_map.clone()),
        };
        let started = Instant::now();
        let (cfg, plan, slot) = (self.cfg, &self.plan, &self.slot);
        let results = Universe::run_supervised(nprocs, sup, |world| {
            rank_program(cfg, world, &decomp, plan, resume.as_ref(), Some(slot))
        });

        // A rank failure (kill, comm error, panic) outranks a graceful
        // health Err: health returns are collective, so they only decide
        // the outcome when every rank survived. Among rank failures the
        // root cause — an injected kill — wins over the peer-death
        // errors it cascades into.
        let is_kill = |f: &RankFailure| matches!(f.kind, FailureKind::InjectedKill { .. });
        let mut failure: Option<RankFailure> = None;
        let mut unhealthy = None;
        let mut report = None;
        for r in results {
            match r {
                Ok(Ok(rep)) => report = report.or(rep),
                Ok(Err(verdict)) => unhealthy = Some(verdict),
                Err(f) => {
                    if failure.as_ref().is_none_or(|prev| is_kill(&f) && !is_kill(prev)) {
                        failure = Some(f);
                    }
                }
            }
        }
        let outcome = match (failure, unhealthy) {
            (Some(f), _) => PassOutcome::RankFailed {
                node: node_map.get(f.rank).copied().unwrap_or(f.rank),
                sig: match &f.kind {
                    FailureKind::InjectedKill { step } => format!("kill@{step}"),
                    FailureKind::Comm(_) => "comm".to_string(),
                    FailureKind::Panic => "panic".to_string(),
                },
                cause: f.to_string(),
            },
            (None, Some(verdict)) => PassOutcome::Unhealthy(verdict),
            (None, None) => PassOutcome::Completed,
        };
        let resume_step = lock_slot(&self.slot).as_ref().map_or(start_step, |ck| ck.step);
        self.passes.push(PassStat {
            pass: self.policy.pass,
            pth,
            pph,
            steps_advanced: resume_step.saturating_sub(start_step),
            wall_s: started.elapsed().as_secs_f64(),
        });
        // Any abandoned pass — rank failure or health rollback — dumps
        // every surviving rank's flight recorder, so the last N events
        // before death are inspectable. Last failure wins the path.
        if !matches!(outcome, PassOutcome::Completed) {
            if let (Some(path), Some(set)) = (self.opts.obs.postmortem_path(), &self.recorders) {
                std::fs::write(&path, recorders_to_chrome(set))
                    .map_err(|e| format!("writing post-mortem trace {}: {e}", path.display()))?;
            }
        }
        Ok(Pass { outcome, report, decomp, resume_step })
    }

    /// Carry out what [`next_action`] decided. `Ok(true)`: the run is
    /// complete; `Ok(false)`: the recovery is recorded (trace instant,
    /// [`RecoveryEvent`]) and the next pass may start.
    fn apply(&mut self, action: Action, pass: &Pass) -> Result<bool, String> {
        let (n, resume_step) = (self.policy.pass, pass.resume_step);
        let rollback = Event::Rollback { pass: n as u64, resume_step };
        let mut cause = pass.outcome.cause().to_string();
        let retiled = matches!(action, Action::Retile { .. });
        let event = match action {
            Action::Finish => return Ok(true),
            Action::GiveUp(msg) => return Err(msg),
            Action::Rollback => rollback,
            Action::HalveDt => {
                self.plan.dt_scale *= 0.5;
                rollback
            }
            Action::Retile { node, from } => {
                let to = self.policy.layout;
                self.retiles.push(RetileRecord {
                    pass: n,
                    from,
                    to,
                    excluded_node: node,
                    resume_step,
                });
                let sig = match &pass.outcome {
                    PassOutcome::RankFailed { sig, .. } => sig.as_str(),
                    _ => "",
                };
                cause = format!(
                    "persistent fault on node {node} ({sig}); re-tiled {}x{} -> {}x{}: {cause}",
                    from.0, from.1, to.0, to.1
                );
                let (pth, pph) = (to.0 as u16, to.1 as u16);
                Event::Retile { pth, pph, pass: n as u64, resume_step }
            }
        };
        if let Some(set) = &self.recorders {
            set.record_all(event);
        }
        self.recoveries.push(RecoveryEvent { pass: n, resume_step, cause });
        if retiled && self.retiles.len() == 1 {
            // First shrink enters degraded mode: capacity is gone, so
            // widen the checkpoint cadence (gathers cost a larger
            // fraction of the smaller machine) and flag the run.
            let every = self.plan.checkpoint_every.saturating_mul(2);
            self.plan.checkpoint_every = every;
            if let Some(set) = &self.recorders {
                set.record_all(Event::Degraded { pass: n as u64, checkpoint_every: every });
            }
        }
        Ok(false)
    }

    /// Assemble the report of a completed run: the final pass's report
    /// plus the post-run diagnosis, the science telemetry, the trace and
    /// the supervisor's own record.
    fn finish(mut self, pass: Pass) -> Result<SupervisedReport, String> {
        let rep = pass.report.ok_or("rank 0 produced no report")?;
        let final_checkpoint =
            lock_slot(&self.slot).take().ok_or("no final checkpoint was captured")?;
        let predicted_imbalance = pass.decomp.predicted_imbalance();
        let achieved_imbalance = rep.achieved_imbalance;
        let mut report = rep.report;
        // Post-run diagnosis: read every ring once and extract the
        // per-step critical path and straggler attribution. Strictly
        // post-run — the solver never observes any of this.
        if let Some(set) = &self.recorders {
            let streams = set.snapshots();
            let retained =
                (0..set.len()).map(|r| (set.rank(r).recorded(), set.rank(r).capacity())).collect();
            report.analysis =
                analyze(&AnalysisInput { streams: &streams, retained, predicted_imbalance });
        }
        if let Some(tel) = self.science.as_mut() {
            // Feed the sampled series (skipping the pre-loop seed point,
            // whose dt is a placeholder) and evaluate the watchdog.
            // Per-sample step wall is not tracked rank-side; the channel
            // carries NaN for parallel runs (serial runs fill it).
            for p in report.series.iter().skip(1) {
                tel.record(p, f64::NAN, None);
            }
            // Alert edges become rank-0 trace instants, stamped before
            // the trace write below so the export carries them.
            if let Some(set) = &self.recorders {
                for a in tel.alerts() {
                    set.rank(0).record(Event::Alert {
                        rule: a.rule_index as u32,
                        kind: a.kind_code,
                        firing: a.firing,
                        step: a.step,
                    });
                }
            }
            // The endpoint's final body gains the science gauges
            // (energies, dt, dominant m, alert states).
            if let Some(h) = &self.plan.metrics {
                let body = format!("{}{}", h.scrape(), science_gauges_text(&tel.gauges()));
                h.publish(body);
            }
            report.alerts = tel.alerts().to_vec();
            report.telemetry = Some(tel.store_json());
        }
        if let (Some(path), Some(set)) = (&self.opts.obs.trace, &self.recorders) {
            std::fs::write(path, recorders_to_chrome(set))
                .map_err(|e| format!("writing trace {}: {e}", path.display()))?;
        }
        let (final_pth, final_pph) = self.policy.layout;
        report.recoveries = self.recoveries.clone();
        report.elastic = ElasticSummary {
            policy: self.opts.on_failure.name().to_string(),
            degraded: !self.retiles.is_empty(),
            final_pth,
            final_pph,
            excluded_nodes: self.retiles.iter().map(|r| r.excluded_node).collect(),
            retiles: self.retiles,
            predicted_imbalance,
            achieved_imbalance,
        };
        Ok(SupervisedReport {
            report,
            final_checkpoint,
            recoveries: self.recoveries,
            dt_scale: self.plan.dt_scale,
            passes: self.passes,
        })
    }
}

/// Assemble gathered panels into a serial-format-compatible
/// [`Checkpoint`]: the gathered states carry owned values only, so the
/// overset frames and wall conditions are refilled exactly as the serial
/// driver's boundary synchronisation would.
pub fn parallel_checkpoint(
    cfg: &RunConfig,
    mut yin: State,
    mut yang: State,
    step: u64,
    time: f64,
    dt_cache: f64,
) -> Checkpoint {
    let grid = cfg.grid();
    let cols = build_overset_columns(&grid)
        .unwrap_or_else(|e| panic!("invalid Yin-Yang configuration: {e}"));
    crate::serial::fill_pair(&mut yin, &mut yang, &cols, cfg.params.t_inner, cfg.mag_bc, None);
    Checkpoint { shape: yin.shape(), step, time, dt_cache, yin, yang }
}

/// Collective verdict: `Ok` on every rank, or — when any rank brings a
/// complaint — the lowest complaining rank's message as `Err` on every
/// rank, so all of them return together and whichever `Err` the caller
/// reads names the rank that saw the problem.
fn agree(world: &Comm, complaint: Option<String>) -> Result<(), String> {
    let me = if complaint.is_some() { world.rank() } else { world.size() };
    let first = world.allreduce_f64(me as f64, ReduceOp::Min) as usize;
    if first == world.size() {
        return Ok(());
    }
    Err(world.broadcast(first, complaint.filter(|_| world.rank() == first)))
}

/// The rank program: one RK4 step loop for every driver. Returns `Err`
/// (the same on every rank, via [`agree`]) for graceful solver-health
/// violations and shard-write failures; comm failures and injected
/// kills surface as panics that [`Universe::run_supervised`] converts
/// to [`yy_parcomm::RankFailure`].
///
/// `slot`, when given, receives a serial-format checkpoint of the
/// initial state, of every `plan.checkpoint_every`-th step and of the
/// final state (a collective gather at rank 0); `plan.shards` adds this
/// rank's shard file at the same events. With neither, the program
/// gathers nothing.
fn rank_program(
    cfg: &RunConfig,
    world: Comm,
    decomp: &Decomp2D,
    plan: &PassPlan,
    resume: Option<&Checkpoint>,
    slot: Option<&CkptSlot>,
) -> Result<Option<ParallelReport>, String> {
    let (mut solver, mut state) = RankSolver::new(cfg, &world, decomp, plan.counters);
    let mut emitter = plan.shards.as_ref().map(ShardEmitter::new);
    let mut dt_cache = match resume {
        Some(ck) => {
            solver.restore_tile(&mut state, ck);
            ck.dt_cache
        }
        None => 0.0,
    };
    solver.sync(&mut state);
    let mut guard = HealthGuard::new(plan.health);

    let started = Instant::now();
    let mut series = Vec::new();
    let record = |solver: &RankSolver, state: &State, dt: f64, series: &mut Vec<TimeSeriesPoint>| {
        let d = solver.reduce_diag(state);
        if solver.world.rank() == 0 {
            series.push(TimeSeriesPoint { step: solver.step, time: solver.time, dt, diag: d });
        }
    };
    record(&solver, &state, dt_cache, &mut series);

    // A fresh pass seeds the checkpoint slot with the initial state so
    // even a failure before the first periodic capture can recover.
    if resume.is_none() {
        solver.checkpoint(&state, dt_cache, slot, emitter.as_mut());
    }

    // Open the counter measurement window at loop entry (setup, restore
    // and the initial sync are bookkeeping, not stepping).
    solver.meter.reset();
    // Sampler state: the previous profile sample's (wall clock, counter
    // snapshot), for windowed MFLOPS deltas. Local to the rank; the
    // emitted counter events are local ring appends, never collectives.
    let mut last_profile: Option<(Instant, CounterSnapshot)> = None;
    while solver.step < plan.steps {
        let step_started = Instant::now();
        world.record_event(Event::StepBegin { step: solver.step });
        world.fault_tick(solver.step);
        // dt cadence at *absolute* step numbers, so a resumed pass
        // recomputes dt at exactly the steps the clean run did.
        if dt_cache == 0.0 || solver.step % solver.cfg.dt_every as u64 == 0 {
            dt_cache = solver.global_dt(&state) * plan.dt_scale;
            if let Err(v) = guard.check_dt(dt_cache) {
                world.record_event(Event::HealthViolation { code: v.code(), step: solver.step });
                // global_dt is allreduced, so every rank returns together.
                return Err(format!("step {}: {v}", solver.step));
            }
        }
        // The applied dt: identical to the CFL cache except under the
        // blow-up smoke's injection (deterministic in the step number,
        // so every rank scales identically).
        let dt = match &plan.dt_inject {
            Some(inj) => inj.scaled(solver.step, dt_cache),
            None => dt_cache,
        };
        solver.advance(&mut state, dt);
        let scan_t0 = solver.meter.timer();
        let local = guard.check_state(&state);
        {
            let sh = state.shape();
            let tally = crate::health::scan_tally((sh.nth * sh.nph) as u64, sh.nr as u64);
            solver.meter.kernel_timed(kernel::HEALTH_SCAN, tally, scan_t0);
        }
        if let Err(v) = &local {
            world.record_event(Event::HealthViolation { code: v.code(), step: solver.step });
        }
        agree(
            &world,
            local.err().map(|v| format!("rank {} step {}: {v}", world.rank(), solver.step)),
        )?;
        if plan.sample_every > 0 && solver.step % plan.sample_every == 0 {
            record(&solver, &state, dt, &mut series);
        }
        if plan.checkpoint_every > 0
            && solver.step % plan.checkpoint_every == 0
            && solver.step < plan.steps
        {
            solver.checkpoint(&state, dt_cache, slot, emitter.as_mut());
        }
        world.sample_queue_depth();
        world.record_step_ns(step_started.elapsed().as_nanos() as u64);
        // Periodic profile sampler: each rank appends its own per-kernel
        // MFLOPS counter samples (Chrome "C"-phase tracks) to its flight
        // recorder — purely local, cannot perturb the trajectory.
        if plan.profile_every > 0 && solver.step % plan.profile_every == 0 {
            let now = Instant::now();
            let snap = solver.meter.counters().snapshot();
            if let Some((prev_t, prev)) = last_profile.replace((now, snap)) {
                let dt_s = now.duration_since(prev_t).as_secs_f64();
                if dt_s > 0.0 {
                    let mut total = 0.0;
                    for id in 0..kernel::COUNT {
                        let df =
                            snap.kernels[id].flops.saturating_sub(prev.kernels[id].flops) as f64;
                        let mflops = df / dt_s / 1e6;
                        total += mflops;
                        if snap.kernels[id].flops > 0 {
                            world.record_event(Event::counter_sample(id as u8, mflops));
                        }
                    }
                    world.record_event(Event::counter_sample(counter::TOTAL_MFLOPS, total));
                    world.record_event(Event::counter_sample(
                        counter::QUEUE_DEPTH,
                        world.stats().max_queue_depth as f64,
                    ));
                }
            }
        }
        // Live metrics: allreduce the counter words (a collective every
        // rank joins — the gate is rank-uniform) and let rank 0 render
        // the exposition into the hub for the endpoint thread to serve.
        if let Some(hub) = &plan.metrics {
            if solver.step % plan.profile_every.max(1) == 0 {
                // Counter words plus the 6 phase-ns words ride one
                // allreduce — the extension is rank-uniform, so the
                // collective stays matched on every rank.
                let mut words = solver.meter.counters().snapshot().to_f64s();
                let nwords = words.len();
                words.extend_from_slice(&phase_ns_words(&world.stats()));
                let merged = world.allreduce_vec(&words, ReduceOp::Sum);
                if world.rank() == 0 {
                    let snap = CounterSnapshot::from_f64s(&merged[..nwords]);
                    let phase_s: Vec<(&str, f64)> = yy_obs::event::phase::NAMES
                        .iter()
                        .enumerate()
                        .map(|(i, name)| (*name, merged[nwords + i] / 1e9))
                        .collect();
                    hub.publish(prometheus_text_with_phases(
                        &snap,
                        solver.step,
                        world.stats().max_queue_depth,
                        &phase_s,
                    ));
                }
            }
        }
    }
    // Final sample (every rank joins the collective; rank 0 records only
    // if the last loop iteration did not already sample this step).
    let d = solver.reduce_diag(&state);
    if world.rank() == 0 && series.last().map(|p| p.step) != Some(solver.step) {
        series.push(TimeSeriesPoint { step: solver.step, time: solver.time, dt: dt_cache, diag: d });
    }

    // The zero-allocation guarantee: after warmup the step path must be
    // served entirely from the persistent scratch.
    if solver.comm.balanced {
        assert_eq!(
            solver.comm.steady_allocs,
            0,
            "rank {}: step path allocated after warmup",
            world.rank()
        );
    }

    // Final shard + writer drain *before* the counter aggregation, so
    // the writer_wait phase and the IO totals are complete. The drain is
    // local; the error verdict is collective (presence of `shards` is
    // rank-uniform), so every rank returns together on a write failure.
    let io = match emitter {
        Some(mut em) => {
            em.emit(&mut solver, &state, dt_cache);
            world.record_phase_ns(SolverPhase::WriterWait, em.stage.flush());
            let ShardEmitter { stage, codec, .. } = em;
            let async_mode = stage.is_async();
            let totals = stage.finish();
            agree(
                &world,
                totals.as_ref().err().map(|e| {
                    format!("rank {}: checkpoint shard write: {e}", world.rank())
                }),
            )?;
            let t = totals.expect("an error on any rank returned above");
            let sums = world.allreduce_vec(
                &[
                    t.files_written as f64,
                    t.bytes_raw as f64,
                    t.bytes_written as f64,
                    t.write_wall_ns as f64,
                ],
                ReduceOp::Sum,
            );
            IoStats {
                shards_written: sums[0] as u64,
                bytes_raw: sums[1] as u64,
                bytes_written: sums[2] as u64,
                write_wall_s: sums[3] / 1e9,
                async_mode,
                codec: codec.name().to_string(),
                ..IoStats::default()
            }
        }
        None => IoStats::default(),
    };
    let mut report = solver.aggregate_counters();
    let achieved_imbalance = solver.achieved_imbalance();
    if let Some(slot) = slot {
        solver.capture_checkpoint(&state, dt_cache, slot);
        world.record_event(Event::CheckpointSaved { step: solver.step });
    }
    if world.rank() != 0 {
        return Ok(None);
    }
    report.time = solver.time;
    report.steps = plan.steps;
    report.wall_seconds = started.elapsed().as_secs_f64();
    report.grid_points = solver.grid.total_points();
    report.io = IoStats { writer_wait_s: report.phases.writer_wait_s, ..io };
    report.series = series;
    Ok(Some(ParallelReport { report, yin: None, yang: None, achieved_imbalance }))
}

/// Persistent per-rank communication scratch. Message buffers circulate
/// as a closed loop: `send_f64s` moves a `Vec` to the receiving rank,
/// and every drained receive donates its (moved-in) buffer back to the
/// local pool, where the next send picks it up. Once every circulating
/// buffer has grown to the largest message it ever carries, the step
/// path performs no heap allocation — `steady_allocs` instruments
/// exactly that invariant.
struct CommScratch {
    /// Recycled message buffers (capacities only ever grow).
    pool: Vec<Vec<f64>>,
    /// Overset interpolation scratch rows (`nr` elements each).
    row: Vec<f64>,
    vr: Vec<f64>,
    vt: Vec<f64>,
    vp: Vec<f64>,
    /// Steps this solver has completed. Two give the circulation time
    /// to reach steady state; from the third on the pool is *warmed*.
    /// (This solver's steps, not the run's: a pass resumed from a
    /// checkpoint starts with an empty pool.)
    steps_done: u64,
    /// Pool misses / capacity growth observed after warmup.
    steady_allocs: u64,
    /// Whether this rank's per-sync buffer takes equal its puts. Halo
    /// traffic is always peer-symmetric; the overset schedule is for
    /// every decomposition we run, but a hypothetical asymmetric
    /// schedule would drain (or grow) the pool, so the zero-alloc
    /// assertion is gated on this.
    balanced: bool,
}

impl CommScratch {
    fn new(nr: usize, balanced: bool) -> Self {
        CommScratch {
            pool: Vec::new(),
            row: vec![0.0; nr],
            vr: vec![0.0; nr],
            vt: vec![0.0; nr],
            vp: vec![0.0; nr],
            steps_done: 0,
            steady_allocs: 0,
            balanced,
        }
    }

    /// An empty buffer with at least `capacity` capacity, from the pool
    /// when possible.
    fn take_buf(&mut self, capacity: usize) -> Vec<f64> {
        match self.pool.pop() {
            Some(mut b) => {
                b.clear();
                if b.capacity() < capacity {
                    if self.steps_done >= 2 {
                        self.steady_allocs += 1;
                    }
                    b.reserve(capacity);
                }
                b
            }
            None => {
                if self.steps_done >= 2 {
                    self.steady_allocs += 1;
                }
                Vec::with_capacity(capacity)
            }
        }
    }

    /// Return a drained receive buffer to the pool.
    fn put_buf(&mut self, b: Vec<f64>) {
        self.pool.push(b);
    }
}

/// Wall-clock attribution for the step pipeline: `lap` charges the time
/// since the previous lap to one [`SolverPhase`] counter in
/// `parcomm::stats` (aggregated into [`PhaseBreakdown`] at end of run).
struct PhaseClock {
    last: Instant,
}

impl PhaseClock {
    fn start() -> Self {
        PhaseClock { last: Instant::now() }
    }

    fn lap(&mut self, comm: &Comm, phase: SolverPhase) {
        let now = Instant::now();
        comm.record_phase_ns(phase, now.duration_since(self.last).as_nanos() as u64);
        self.last = now;
    }
}

/// The step-head state and the two stage states the RK4 stages
/// ping-pong between.
struct Rk4Bufs {
    y0: State,
    stage: [State; 2],
}

/// Per-rank solver instance. The evolving `State` lives outside this
/// struct (in `rank_program`) so boundary synchronisation can borrow the
/// solver while mutating the state.
struct RankSolver<'a> {
    world: &'a Comm,
    cart: CartComm,
    grid: PatchGrid,
    /// The tile layout this rank was built from; gather/restore
    /// address blocks through it.
    decomp: Decomp2D,
    tile: Tile,
    metric: Metric,
    forces: ForceTables,
    exchange: OversetExchange,
    /// Per send set (aligned with `exchange.sends`): how many of its
    /// jobs target *owned* columns of the destination tile. The overset
    /// counters tally flops/points/loops against these so the global
    /// totals are decomposition-invariant — ghost frame columns in a
    /// neighbour's padded region are interpolated redundantly, the same
    /// way halo nodes duplicate state, and redundant work is excluded
    /// from the owned-node accounting (bytes keep the real traffic).
    owned_jobs: Vec<u64>,
    /// Per recv set (aligned with `exchange.recvs`): owned target slots.
    owned_slots: Vec<u64>,
    range: InteriorRange,
    /// Deep-interior / boundary-shell partition of `range` (tentpole).
    split: OverlapSplit,
    /// The deep interior cut into φ slabs, one per in-flight exchange.
    deep_chunks: Vec<InteriorRange>,
    /// No tile-halo neighbours in either dimension (one tile per panel):
    /// overset donor stencils then read only owned points, so the
    /// overset send's true dependency frontier is the start of the sync
    /// and it can overlap the *whole* deep interior, not just the last
    /// chunk.
    halo_free: bool,
    cfg: RunConfig,
    /// RK4 work buffers; [`Self::advance`] takes them out for the step
    /// so a stage state can be synced mutably alongside the solver.
    rk4: Option<Rk4Bufs>,
    comm: CommScratch,
    scratch: RhsScratch,
    meter: Meters,
    time: f64,
    step: u64,
    /// Rank 0's reusable checkpoint-assembly buffer: swapped with the
    /// supervisor's last-good slot at every capture, so steady-state
    /// checkpointing stops reallocating two full panel states per event
    /// (pinned by the `ckpt_alloc` regression test). Always `None` on
    /// other ranks.
    ckpt_scratch: Option<Checkpoint>,
    /// Rank 0's cached overset columns for the checkpoint frame refill
    /// (building them is the other per-capture allocation storm).
    ckpt_cols: Option<Vec<OversetColumn>>,
}

/// Output-pipeline configuration the supervisor hands every rank.
struct ShardCfg {
    dir: PathBuf,
    async_mode: bool,
    codec: CkptCodec,
}

/// Per-rank shard emitter: packs this rank's owned region at every
/// checkpoint event and hands the *raw* payload to the [`OutputStage`],
/// whose consumer side (the writer thread, in async mode) does the
/// delta/RLE encoding and the file write — so the step path pays only
/// for the pack memcpy plus any buffer-pool backpressure.
struct ShardEmitter {
    stage: OutputStage,
    dir: PathBuf,
    codec: CkptCodec,
}

impl ShardEmitter {
    fn new(cfg: &ShardCfg) -> ShardEmitter {
        ShardEmitter {
            stage: OutputStage::new(cfg.async_mode),
            dir: cfg.dir.clone(),
            codec: cfg.codec,
        }
    }

    /// Pack and submit one shard of the current state. Purely local
    /// (no collectives — a peer death cannot strand it); time blocked
    /// on the buffer pool (or encoding and writing inline, in sync
    /// mode) is charged to the `writer_wait` phase, and the pack work
    /// to the `output` kernel slot.
    fn emit(&mut self, solver: &mut RankSolver, state: &State, dt_cache: f64) {
        let t0 = solver.meter.timer();
        let (mut raw, mut wait_ns) = self.stage.acquire();
        pack_shard_payload(state, solver.tile.nth, solver.tile.nph, &mut raw);
        let dims = solver.cart.dims();
        let (panel, _) = panel_of_world(solver.world.rank(), dims[0] * dims[1]);
        let meta = ShardMeta {
            shape: solver.grid.full_shape(),
            step: solver.step,
            time: solver.time,
            dt_cache,
            pth: dims[0] as u64,
            pph: dims[1] as u64,
            rank: solver.world.rank() as u64,
            panel: panel.index() as u64,
            j0: solver.tile.j0 as u64,
            tnth: solver.tile.nth as u64,
            k0: solver.tile.k0 as u64,
            tnph: solver.tile.nph as u64,
            flags: 0,
            base_step: u64::MAX,
        };
        let raw_len = raw.len() as u64;
        let path = self.dir.join(shard_file_name(meta.step, solver.world.rank()));
        wait_ns += self.stage.submit_shard(path, raw, meta, self.codec);
        solver.world.record_phase_ns(SolverPhase::WriterWait, wait_ns);
        // Producer-side tally: the pack traffic. The encoded size is
        // not known here (the consumer compresses later); the on-disk
        // byte totals live in the report's `io` section instead.
        solver.meter.kernel_timed(
            kernel::OUTPUT,
            KernelTally {
                points: raw_len / 8,
                loops: 1,
                vector_elements: raw_len / 8,
                flops: 0,
                bytes_read: raw_len,
                bytes_written: raw_len,
            },
            t0,
        );
    }
}

/// Overset donate tally with owned-target accounting: flops, points and
/// loops count the `owned` jobs (decomposition-invariant); bytes count
/// every `actual` job — ghost duplicates are real interpolation work
/// and real wire traffic, excluded only from the FLOP convention.
fn donate_tally_owned(owned: u64, actual: u64, nr: u64) -> KernelTally {
    let real = overset_donate_tally(actual, nr);
    KernelTally {
        bytes_read: real.bytes_read,
        bytes_written: real.bytes_written,
        ..overset_donate_tally(owned, nr)
    }
}

/// [`donate_tally_owned`]'s fill-side twin.
fn fill_tally_owned(owned: u64, actual: u64, nr: u64) -> KernelTally {
    let real = overset_fill_tally(actual, nr);
    KernelTally {
        bytes_read: real.bytes_read,
        bytes_written: real.bytes_written,
        ..overset_fill_tally(owned, nr)
    }
}

/// The owned block of tile `t` over the full radial extent, in panel
/// coordinates (`global`) or in the tile's own.
fn tile_region(t: &Tile, nr: usize, global: bool) -> Region {
    let (j0, k0) = if global { (t.j0 as isize, t.k0 as isize) } else { (0, 0) };
    Region { i0: 0, i1: nr, j0, j1: j0 + t.nth as isize, k0, k1: k0 + t.nph as isize }
}

/// The six phase counters of `stats` as allreduce words, in the order
/// of `yy_obs::event::phase::NAMES` and [`PhaseBreakdown`].
fn phase_ns_words(stats: &CommStats) -> [f64; 6] {
    [
        stats.ns_pack as f64,
        stats.ns_interior as f64,
        stats.ns_wait as f64,
        stats.ns_boundary as f64,
        stats.ns_overset as f64,
        stats.ns_writer_wait as f64,
    ]
}

/// Counter tally for moving one halo band of `region` (× the 8 state
/// arrays) through a pack or unpack loop. Halo volume is a property of
/// the decomposition, not the physics, so this kernel is the documented
/// exception to decomposition invariance — and carries zero flops.
fn halo_tally(region: Region) -> KernelTally {
    let values = 8 * region.len() as u64;
    let nr = (region.i1 - region.i0).max(1) as u64;
    KernelTally {
        points: values,
        loops: values / nr,
        vector_elements: values,
        flops: 0,
        bytes_read: values * 8,
        bytes_written: values * 8,
    }
}

impl<'a> RankSolver<'a> {
    /// Build the per-rank solver: split the world into panel groups,
    /// carve the Cartesian tile, precompute metric/force tables and the
    /// overset schedule, and initialize the tile state (not yet synced).
    fn new(
        cfg: &RunConfig,
        world: &'a Comm,
        decomp: &Decomp2D,
        counters: bool,
    ) -> (Self, State) {
        let tiles = decomp.tiles();
        let (panel, panel_rank) = panel_of_world(world.rank(), tiles);
        // The paper's MPI_COMM_SPLIT: color = panel, key = world rank, so the
        // panel communicator preserves world order and panel_rank == cart rank.
        let panel_comm = world.split(panel.index() as u64, world.rank() as i64);
        assert_eq!(panel_comm.rank(), panel_rank);
        let cart = CartComm::new(panel_comm, [decomp.pth, decomp.pph], [false, false]);

        let grid = cfg.grid();
        let tile = decomp.tile(panel_rank);
        let metric = Metric::new(&grid, &tile);
        let halo = grid.spec().halo;
        let forces = ForceTables::new(
            &metric,
            tile.nth,
            tile.nph,
            halo,
            cfg.params.g0,
            cfg.params.omega,
            rotation_axis(panel),
        );
        let cols: Vec<OversetColumn> = build_overset_columns(&grid)
            .unwrap_or_else(|e| panic!("invalid Yin-Yang configuration: {e}"));
        let mut schedule = build_schedule(&grid, decomp, &cols);
        // Owned-target job/slot counts for the overset counters (see the
        // `owned_jobs` field). Send and receive lists pair up
        // positionally, so the destination's recv set from us names the
        // target slots our jobs will fill.
        let owned_in = |t: &Tile, s: &TargetSlot| {
            s.tj >= 0 && (s.tj as usize) < t.nth && s.tk >= 0 && (s.tk as usize) < t.nph
        };
        let me = world.rank();
        let owned_jobs: Vec<u64> = schedule[me]
            .sends
            .iter()
            .map(|snd| {
                let (_, pr) = panel_of_world(snd.to_world, tiles);
                let peer_tile = decomp.tile(pr);
                schedule[snd.to_world]
                    .recvs
                    .iter()
                    .find(|r| r.from_world == me)
                    .map_or(0, |r| {
                        r.slots.iter().filter(|s| owned_in(&peer_tile, s)).count() as u64
                    })
            })
            .collect();
        let owned_slots: Vec<u64> = schedule[me]
            .recvs
            .iter()
            .map(|r| r.slots.iter().filter(|s| owned_in(&tile, s)).count() as u64)
            .collect();
        let exchange = std::mem::take(&mut schedule[world.rank()]);
        let range = InteriorRange::for_tile(&grid, &tile);
        let split = range.split_overlap();
        let deep_chunks =
            split.deep.as_ref().map(|d| d.chunks_phi(3)).unwrap_or_default();
        let balanced = exchange.sends.len() == exchange.recvs.len();
        let halo_free = cart.neighbors4().iter().all(Option::is_none);

        let shape = tile.shape(&grid);
        let mut state = State::zeros(shape);
        initialize(&mut state, &grid, Some(&tile), &cfg.params, &cfg.init, panel);

        let mut scratch = RhsScratch::new(shape);
        scratch.kernels = cfg.rhs_kernels;
        let solver = RankSolver {
            world,
            cart,
            grid,
            decomp: decomp.clone(),
            tile,
            metric,
            forces,
            exchange,
            owned_jobs,
            owned_slots,
            range,
            split,
            deep_chunks,
            halo_free,
            cfg: cfg.clone(),
            rk4: Some(Rk4Bufs {
                y0: State::zeros(shape),
                stage: [State::zeros(shape), State::zeros(shape)],
            }),
            comm: CommScratch::new(shape.nr, balanced),
            scratch,
            meter: Meters::with_counters(Arc::new(if counters {
                CounterSet::enabled()
            } else {
                CounterSet::new()
            })),
            time: 0.0,
            step: 0,
            ckpt_scratch: None,
            ckpt_cols: None,
        };
        (solver, state)
    }

    /// Halo exchange + overset exchange + physical walls on `s`, drawing
    /// every message buffer from the persistent scratch (allocation-free
    /// after warmup).
    fn sync(&mut self, s: &mut State) {
        let mut clock = PhaseClock::start();
        // Same early overset post as the fused pipeline (see
        // `sync_rhs_overlapped`): without halo neighbours the donors
        // read only owned points, and posting first lets the exchange
        // travel while the (no-op) halo dims and the peer's turn run.
        if self.halo_free {
            self.post_overset(s);
            clock.lap(self.world, SolverPhase::Overset);
        }
        for dim in 0..2 {
            self.post_halo_sends(s, dim);
            clock.lap(self.world, SolverPhase::Pack);
            self.drain_halo(s, dim, &mut clock);
        }
        if !self.halo_free {
            self.post_overset(s);
            clock.lap(self.world, SolverPhase::Overset);
        }
        self.drain_overset(s, &mut clock);
        apply_physical_bc(s, self.cfg.params.t_inner, self.cfg.mag_bc);
        clock.lap(self.world, SolverPhase::Boundary);
    }

    /// The step pipeline: the boundary synchronisation of `x` fused
    /// with the RHS sweep of `x` into `sink`. Sends are posted, a deep
    /// interior chunk (whose stencils touch no ghost the in-flight
    /// message will fill) is computed while the messages travel, then the
    /// receives drain and the next exchange begins; the boundary shell is
    /// swept last, when all ghosts and frames are in place.
    ///
    /// The wall condition goes first: it is column-local (f = 0,
    /// p = ρ_wall·T, A frozen or copied from the first interior node), so
    /// on every column the deep sweep reads it already has its final
    /// value, and the deep box can span the full radial extent. The
    /// repeat after the drains covers the ghost and frame columns the
    /// exchange overwrote (the condition is idempotent).
    ///
    /// Bitwise identical to `sync` followed by a full-range RHS: the
    /// exchange only writes ghost/frame columns, deep-interior stencils
    /// read none of them, and the deep ∪ shell boxes tile the interior
    /// exactly with unchanged per-point arithmetic.
    fn sync_rhs_overlapped(&mut self, x: &mut State, sink: &mut RhsSink) {
        let mut clock = PhaseClock::start();
        // With no halo neighbours the overset donors read only owned
        // points: post them first, so the exchange is in flight for the
        // entire deep interior.
        if self.halo_free {
            self.post_overset(x);
            clock.lap(self.world, SolverPhase::Overset);
        }
        apply_physical_bc(x, self.cfg.params.t_inner, self.cfg.mag_bc);
        clock.lap(self.world, SolverPhase::Boundary);
        // θ halo in flight over the first deep chunk.
        self.post_halo_sends(x, 0);
        clock.lap(self.world, SolverPhase::Pack);
        self.rhs_deep_chunk(x, 0, sink);
        clock.lap(self.world, SolverPhase::Interior);
        self.drain_halo(x, 0, &mut clock);
        // φ halo (rows extended into the just-filled θ ghosts) over the
        // second chunk.
        self.post_halo_sends(x, 1);
        clock.lap(self.world, SolverPhase::Pack);
        self.rhs_deep_chunk(x, 1, sink);
        clock.lap(self.world, SolverPhase::Interior);
        self.drain_halo(x, 1, &mut clock);
        // Overset columns (donor stencils may read halo ghosts, so only
        // after the full halo drain) over the third chunk.
        if !self.halo_free {
            self.post_overset(x);
            clock.lap(self.world, SolverPhase::Overset);
        }
        self.rhs_deep_chunk(x, 2, sink);
        clock.lap(self.world, SolverPhase::Interior);
        self.drain_overset(x, &mut clock);
        // Everything the shell stencils read is now in place.
        apply_physical_bc(x, self.cfg.params.t_inner, self.cfg.mag_bc);
        for b in 0..self.split.shell.len() {
            let shell_box = self.split.shell[b];
            self.rhs_partial(x, &shell_box, sink);
        }
        clock.lap(self.world, SolverPhase::Boundary);
    }

    /// RHS sweep of one sub-range of the tile interior into `sink`.
    fn rhs_partial(&mut self, x: &State, range: &InteriorRange, sink: &mut RhsSink) {
        sweep_rhs(
            x,
            &self.metric,
            &self.forces,
            &self.cfg.params,
            range,
            &mut self.scratch,
            sink,
            &mut self.meter,
        );
    }

    /// RHS over the `idx`-th φ slab of the deep interior (no-op when the
    /// tile is too thin to have that many deep chunks).
    fn rhs_deep_chunk(&mut self, x: &State, idx: usize, sink: &mut RhsSink) {
        if let Some(chunk) = self.deep_chunks.get(idx).copied() {
            self.rhs_partial(x, &chunk, sink);
        }
    }

    /// Neighbour pair, send regions, recv regions and tag for one halo
    /// dimension: 0 = θ bands (full φ width), 1 = φ bands over the
    /// θ-extended rows — the two-phase corner-filling order.
    fn halo_plan(&self, dim: usize) -> ([Option<usize>; 2], [Region; 2], [Region; 2], u64) {
        let h = self.grid.spec().halo as isize;
        let (nth, nph) = (self.tile.nth as isize, self.tile.nph as isize);
        let nr = self.grid.spec().nr;
        let [north, south, west, east] = self.cart.neighbors4();
        if dim == 0 {
            (
                [north, south],
                [
                    Region { i0: 0, i1: nr, j0: 0, j1: h, k0: 0, k1: nph },
                    Region { i0: 0, i1: nr, j0: nth - h, j1: nth, k0: 0, k1: nph },
                ],
                [
                    Region { i0: 0, i1: nr, j0: -h, j1: 0, k0: 0, k1: nph },
                    Region { i0: 0, i1: nr, j0: nth, j1: nth + h, k0: 0, k1: nph },
                ],
                TAG_HALO_THETA,
            )
        } else {
            (
                [west, east],
                [
                    Region { i0: 0, i1: nr, j0: -h, j1: nth + h, k0: 0, k1: h },
                    Region { i0: 0, i1: nr, j0: -h, j1: nth + h, k0: nph - h, k1: nph },
                ],
                [
                    Region { i0: 0, i1: nr, j0: -h, j1: nth + h, k0: -h, k1: 0 },
                    Region { i0: 0, i1: nr, j0: -h, j1: nth + h, k0: nph, k1: nph + h },
                ],
                TAG_HALO_PHI,
            )
        }
    }

    /// Pack and post (buffered, non-blocking) the halo sends for one
    /// dimension. Buffers come from the pool.
    fn post_halo_sends(&mut self, s: &State, dim: usize) {
        let (peers, sends, _, tag) = self.halo_plan(dim);
        for (peer, region) in peers.into_iter().zip(sends) {
            if let Some(dst) = peer {
                let t0 = self.meter.timer();
                let mut buf = self.comm.take_buf(region.len() * 8);
                for arr in s.arrays() {
                    pack_region(arr, region, &mut buf);
                }
                self.meter.kernel_timed(kernel::HALO_PACK, halo_tally(region), t0);
                self.cart.comm().send_f64s(dst, tag, buf, TrafficClass::Halo);
            }
        }
    }

    /// Block on the halo receives for one dimension and unpack them; the
    /// received buffers (moved here from the sending rank) refill the
    /// pool. Blocked time is charged to `Wait`, unpacking to `Pack`.
    fn drain_halo(&mut self, s: &mut State, dim: usize, clock: &mut PhaseClock) {
        let (peers, _, recvs, tag) = self.halo_plan(dim);
        for (peer, region) in peers.into_iter().zip(recvs) {
            if let Some(src) = peer {
                let buf = self.cart.comm().recv_f64s(src, tag);
                clock.lap(self.world, SolverPhase::Wait);
                let t0 = self.meter.timer();
                let mut rest: &[f64] = &buf;
                for arr in s.arrays_mut() {
                    rest = unpack_region(arr, region, rest);
                }
                assert!(rest.is_empty(), "halo message size mismatch from rank {src}");
                self.meter.kernel_timed(kernel::HALO_UNPACK, halo_tally(region), t0);
                self.comm.put_buf(buf);
                clock.lap(self.world, SolverPhase::Pack);
            }
        }
    }

    /// Interpolate this rank's donor columns and post them (buffered) to
    /// the partner-panel ranks. Buffers and interpolation rows come from
    /// the scratch.
    fn post_overset(&mut self, s: &State) {
        let nr = self.grid.spec().nr;
        for (si, send) in self.exchange.sends.iter().enumerate() {
            let t0 = self.meter.timer();
            let mut buf = self.comm.take_buf(send.jobs.len() * 8 * nr);
            for job in &send.jobs {
                let col = OversetColumn {
                    tgt_j: 0,
                    tgt_k: 0,
                    don_j: job.dj as usize,
                    don_k: job.dk as usize,
                    w: job.w,
                    rot: job.rot,
                };
                interp_scalar_column(&col, &s.rho, &mut self.comm.row);
                buf.extend_from_slice(&self.comm.row);
                interp_scalar_column(&col, &s.press, &mut self.comm.row);
                buf.extend_from_slice(&self.comm.row);
                interp_vector_column(
                    &col,
                    &s.f.r,
                    &s.f.t,
                    &s.f.p,
                    &mut self.comm.vr,
                    &mut self.comm.vt,
                    &mut self.comm.vp,
                );
                buf.extend_from_slice(&self.comm.vr);
                buf.extend_from_slice(&self.comm.vt);
                buf.extend_from_slice(&self.comm.vp);
                interp_vector_column(
                    &col,
                    &s.a.r,
                    &s.a.t,
                    &s.a.p,
                    &mut self.comm.vr,
                    &mut self.comm.vt,
                    &mut self.comm.vp,
                );
                buf.extend_from_slice(&self.comm.vr);
                buf.extend_from_slice(&self.comm.vt);
                buf.extend_from_slice(&self.comm.vp);
            }
            self.meter.kernel_timed(
                kernel::OVERSET_DONATE,
                donate_tally_owned(self.owned_jobs[si], send.jobs.len() as u64, nr as u64),
                t0,
            );
            self.world.send_f64s(send.to_world, TAG_OVERSET, buf, TrafficClass::Overset);
        }
    }

    /// Receive the partner panel's interpolated columns and place them in
    /// my frame slots; received buffers refill the pool.
    fn drain_overset(&mut self, s: &mut State, clock: &mut PhaseClock) {
        let nr = self.grid.spec().nr;
        for (ri, recv) in self.exchange.recvs.iter().enumerate() {
            let buf = self.world.recv_f64s(recv.from_world, TAG_OVERSET);
            clock.lap(self.world, SolverPhase::Wait);
            let t0 = self.meter.timer();
            assert_eq!(
                buf.len(),
                recv.slots.len() * 8 * nr,
                "overset message size mismatch from rank {}",
                recv.from_world
            );
            let mut pos = 0;
            for slot in &recv.slots {
                let mut take = |arr: &mut Array3| {
                    arr.row_mut(slot.tj, slot.tk).copy_from_slice(&buf[pos..pos + nr]);
                    pos += nr;
                };
                take(&mut s.rho);
                take(&mut s.press);
                take(&mut s.f.r);
                take(&mut s.f.t);
                take(&mut s.f.p);
                take(&mut s.a.r);
                take(&mut s.a.t);
                take(&mut s.a.p);
            }
            self.meter.kernel_timed(
                kernel::OVERSET_FILL,
                fill_tally_owned(self.owned_slots[ri], recv.slots.len() as u64, nr as u64),
                t0,
            );
            self.comm.put_buf(buf);
            clock.lap(self.world, SolverPhase::Overset);
        }
    }

    /// Globally reduced CFL time step.
    ///
    /// The *ingredients* (max speed, min spacing, min density) are reduced
    /// globally and the formula is then evaluated identically on every
    /// rank — reducing per-tile `dt`s instead would give
    /// `min(dxᵢ/speedᵢ) ≠ min(dx)/max(speed)` whenever the smallest cell
    /// and the fastest signal live on different tiles, and would break the
    /// bitwise equivalence with the serial reference.
    fn global_dt(&self, state: &State) -> f64 {
        let speed = wave_speed_max(state, &self.metric, &self.cfg.params, &self.range);
        let max_speed = self.world.allreduce_f64(speed, ReduceOp::Max);
        let min_dx = self.world.allreduce_f64(self.metric.min_spacing(), ReduceOp::Min);
        let min_rho = self.world.allreduce_f64(rho_min_owned(state), ReduceOp::Min);
        cfl_timestep(max_speed, min_dx, min_rho, &self.cfg.params, self.cfg.cfl)
    }

    /// One RK4 step (mirrors `SerialSim::advance`: the stage sweeps
    /// combine the tendency into `state` and the next stage buffer as
    /// they go). Stage 0 needs no communication (`state` was synced at
    /// the end of the previous step); each later stage syncs the buffer
    /// the previous one built, fused with its sweep
    /// ([`Self::sync_rhs_overlapped`]).
    fn advance(&mut self, state: &mut State, dt: f64) {
        let mut rk4 = self.rk4.take().expect("RK4 buffers are only out during a step");
        let Rk4Bufs { y0, stage: [a, b] } = &mut rk4;
        // The sweeps write interior nodes only and the wall condition
        // leaves ρ (and conducting-wall A) alone: the stage buffers take
        // those frozen values here, which also makes them valid after a
        // restore, a rollback or a re-tile.
        y0.copy_from(state);
        a.copy_walls_from(state);
        b.copy_walls_from(state);
        let (y0, range) = (&*y0, self.range);
        for s in 0..4 {
            let (next, cur) = if s % 2 == 0 { (&mut *a, &mut *b) } else { (&mut *b, &mut *a) };
            let mut sink = RhsSink::rk4_stage(s, dt, state, y0, next);
            let combine = sink.combine_tally();
            if s == 0 {
                self.rhs_partial(y0, &range, &mut sink);
            } else {
                self.sync_rhs_overlapped(cur, &mut sink);
            }
            self.meter.kernel(kernel::RK4_COMBINE, combine);
        }
        self.sync(state);
        self.rk4 = Some(rk4);
        self.time += dt;
        self.step += 1;
        self.comm.steps_done += 1;
    }

    /// Restore this rank's owned block from a full-panel checkpoint.
    /// Ghosts are left for the following `sync` to fill — the synced
    /// state is a pure function of the owned values, which is what makes
    /// checkpointed recovery bit-exact.
    fn restore_tile(&mut self, state: &mut State, ck: &Checkpoint) {
        assert_eq!(
            ck.shape,
            self.grid.full_shape(),
            "checkpoint geometry does not match the run configuration"
        );
        let tiles = self.cart.dims()[0] * self.cart.dims()[1];
        let (panel, _) = panel_of_world(self.world.rank(), tiles);
        let src = [&ck.yin, &ck.yang][panel.index()];
        let nr = self.grid.spec().nr;
        let global = tile_region(&self.tile, nr, true);
        let local = tile_region(&self.tile, nr, false);
        let mut buf = Vec::with_capacity(global.len());
        for (src_arr, dst_arr) in src.arrays().into_iter().zip(state.arrays_mut()) {
            buf.clear();
            pack_region(src_arr, global, &mut buf);
            let rest = unpack_region(dst_arr, local, &buf);
            assert!(rest.is_empty());
        }
        self.time = ck.time;
        self.step = ck.step;
    }

    /// Gather the panels and (on world rank 0) store a serial-compatible
    /// checkpoint of the current state into the supervisor's slot. Every
    /// rank must call this — the gather is collective.
    ///
    /// Rank 0 assembles into a reusable scratch checkpoint and *swaps*
    /// it with the slot, so steady-state captures stop reallocating two
    /// full panel states (and rebuilding the overset columns) per event.
    /// The slot is only ever replaced whole — a rank killed mid-gather
    /// panics this rank before the swap, leaving the last good
    /// checkpoint untouched.
    fn capture_checkpoint(&mut self, state: &State, dt_cache: f64, slot: &CkptSlot) {
        let nr = self.grid.spec().nr;
        let owned = tile_region(&self.tile, nr, false);
        if self.world.rank() != 0 {
            let mut buf = Vec::with_capacity(owned.len() * 8);
            for arr in state.arrays() {
                pack_region(arr, owned, &mut buf);
            }
            self.world.send_f64s(0, TAG_GATHER, buf, TrafficClass::Control);
            return;
        }
        let full = self.grid.full_shape();
        // Reuse the scratch checkpoint when it exists; failing that,
        // clone the slot's occupant (the second capture of a pass: the
        // first scratch went into the slot, and a copy is several times
        // cheaper than a rebuild); only with neither build blank panels.
        // Every occupant of slot and scratch carries their initialized
        // padding — an earlier capture, or the serial-format checkpoint
        // the run resumed from — and captures rewrite only owned blocks,
        // frames and walls.
        let scratch = self.ckpt_scratch.take().or_else(|| lock_slot(slot).clone());
        let mut ck = match scratch {
            Some(ck) if ck.shape == full => ck,
            _ => {
                let [yin, yang] = blank_panels(&self.cfg, &self.grid);
                Checkpoint { shape: full, step: 0, time: 0.0, dt_cache: 0.0, yin, yang }
            }
        };
        let tiles = self.decomp.tiles();
        for world_rank in 0..2 * tiles {
            let (panel, pr) = panel_of_world(world_rank, tiles);
            let region = tile_region(&self.decomp.tile(pr), nr, true);
            let dst = match panel {
                Panel::Yin => &mut ck.yin,
                Panel::Yang => &mut ck.yang,
            };
            if world_rank == 0 {
                // This rank's own block goes row by row from the state,
                // not through a gather buffer and back.
                for (src, dst) in state.arrays().into_iter().zip(dst.arrays_mut()) {
                    for k in owned.k0..owned.k1 {
                        for j in owned.j0..owned.j1 {
                            dst.row_mut(region.j0 + j, region.k0 + k)[..nr]
                                .copy_from_slice(&src.row(j, k)[..nr]);
                        }
                    }
                }
                continue;
            }
            let data = self.world.recv_f64s(world_rank, TAG_GATHER);
            let mut rest: &[f64] = &data;
            for arr in dst.arrays_mut() {
                rest = unpack_region(arr, region, rest);
            }
            assert!(rest.is_empty());
        }
        // Refill the overset frames and wall conditions exactly as
        // `parallel_checkpoint` would, against columns built once.
        if self.ckpt_cols.is_none() {
            self.ckpt_cols = Some(
                build_overset_columns(&self.grid)
                    .unwrap_or_else(|e| panic!("invalid Yin-Yang configuration: {e}")),
            );
        }
        let cols = self.ckpt_cols.as_ref().expect("just filled");
        crate::serial::fill_pair(
            &mut ck.yin,
            &mut ck.yang,
            cols,
            self.cfg.params.t_inner,
            self.cfg.mag_bc,
            None,
        );
        ck.step = self.step;
        ck.time = self.time;
        ck.dt_cache = dt_cache;
        self.ckpt_scratch = lock_slot(slot).replace(ck);
    }

    /// One checkpoint event: gather a serial-format checkpoint into
    /// `slot` and write this rank's shard, whichever the run has. Every
    /// rank must call this — the gather is collective.
    fn checkpoint(
        &mut self,
        state: &State,
        dt_cache: f64,
        slot: Option<&CkptSlot>,
        emitter: Option<&mut ShardEmitter>,
    ) {
        if slot.is_none() && emitter.is_none() {
            return;
        }
        if let Some(slot) = slot {
            self.capture_checkpoint(state, dt_cache, slot);
        }
        if let Some(em) = emitter {
            em.emit(self, state, dt_cache);
        }
        self.world.record_event(Event::CheckpointSaved { step: self.step });
    }

    /// Merge one per-rank histogram snapshot across every rank: bucket
    /// counts and sums are exact integers far below 2⁵³, so a `Sum`
    /// allreduce over the f64 words is lossless; the observed max
    /// reduces separately under `Max`. Collective — all ranks call.
    fn merge_hist(&self, h: HistogramSnapshot) -> HistogramSnapshot {
        let words = self.world.allreduce_vec(&h.to_f64s(), ReduceOp::Sum);
        let max = self.world.allreduce_f64(h.max as f64, ReduceOp::Max) as u64;
        HistogramSnapshot::from_f64s(&words, max)
    }

    /// The allreduced run counters, as the counter fields of a report:
    /// flops, traffic bytes, max observed mailbox depth, all-rank phase
    /// breakdown, merged histograms and per-kernel counters. Collective.
    fn aggregate_counters(&self) -> RunReport {
        let stats = self.world.stats();
        let flops = self.world.allreduce_f64(self.meter.flops() as f64, ReduceOp::Sum) as u64;
        let halo_bytes = self.world.allreduce_f64(stats.bytes_halo as f64, ReduceOp::Sum) as u64;
        let overset_bytes =
            self.world.allreduce_f64(stats.bytes_overset as f64, ReduceOp::Sum) as u64;
        let max_queue_depth =
            self.world.allreduce_f64(stats.max_queue_depth as f64, ReduceOp::Max) as u64;
        let ns = self.world.allreduce_vec(&phase_ns_words(&stats), ReduceOp::Sum);
        let phases = PhaseBreakdown {
            pack_s: ns[0] / 1e9,
            interior_s: ns[1] / 1e9,
            wait_s: ns[2] / 1e9,
            boundary_s: ns[3] / 1e9,
            overset_s: ns[4] / 1e9,
            writer_wait_s: ns[5] / 1e9,
        };
        let [recv_wait, step_wall, queue_depth] =
            [stats.recv_wait, stats.step_wall, stats.queue_depth].map(|h| self.merge_hist(h));
        // Every tally word is an exact integer (or a ns sum) far below
        // 2⁵³, so the f64 Sum allreduce merges the per-rank kernel
        // counters losslessly — same trick as the histograms.
        let kwords = self
            .world
            .allreduce_vec(&self.meter.counters().snapshot().to_f64s(), ReduceOp::Sum);
        RunReport {
            flops,
            halo_bytes,
            overset_bytes,
            max_queue_depth,
            phases,
            recv_wait,
            step_wall,
            queue_depth,
            kernels: CounterSnapshot::from_f64s(&kwords),
            ..RunReport::default()
        }
    }

    /// Measured compute imbalance across ranks: the slowest rank's
    /// stencil wall time (RHS with the RK4 combine inside it, health
    /// scan — the work the partitioner balances; comm wait excluded)
    /// over the mean.
    /// Collective — every rank calls; 1.0 when nothing was timed.
    fn achieved_imbalance(&self) -> f64 {
        let snap = self.meter.counters().snapshot();
        let local = (snap.kernels[kernel::RHS as usize].wall_ns
            + snap.kernels[kernel::HEALTH_SCAN as usize].wall_ns) as f64;
        let max = self.world.allreduce_f64(local, ReduceOp::Max);
        let sum = self.world.allreduce_f64(local, ReduceOp::Sum);
        if sum > 0.0 {
            max * self.world.size() as f64 / sum
        } else {
            1.0
        }
    }

    /// Globally reduced diagnostics (sums for energies, max for maxima).
    fn reduce_diag(&self, state: &State) -> Diagnostics {
        let local = yy_mhd::energy::compute_diagnostics(
            state,
            &self.grid,
            &self.metric,
            Some(&self.tile),
            &self.cfg.params,
            &self.range,
        );
        let v = local.to_vec();
        let sums = self.world.allreduce_vec(&v[..4], ReduceOp::Sum);
        let maxs = self.world.allreduce_vec(&v[4..], ReduceOp::Max);
        Diagnostics::from_slice(&[sums[0], sums[1], sums[2], sums[3], maxs[0], maxs[1]])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial::SerialSim;

    fn quick_cfg() -> RunConfig {
        let mut cfg = RunConfig::small();
        cfg.init.perturb_amplitude = 1e-2;
        cfg
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
        assert!(p.pack_s > 0.0, "pack phase must be instrumented");
        assert!(p.interior_s > 0.0, "interior phase must be instrumented");
        assert!(p.boundary_s > 0.0, "boundary phase must be instrumented");
        assert!(p.overset_s > 0.0, "overset phase must be instrumented");
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
        let collapse = |factor| RecoveryOpts {
            dt_inject: Some(DtInject { at_step: 1, factor }),
            ..RecoveryOpts::default()
        };
        let trace = RecoveryOpts {
            obs: ObsOpts { trace: Some("/nonexistent-yy/x.json".into()), ..ObsOpts::default() },
            ..RecoveryOpts::default()
        };
        let us = Duration::from_micros(1);
        let cases = [
            (fault(FaultSpec::seeded(1).with_delay(2.0, us)), "delay"),
            (fault(FaultSpec::seeded(1).with_drop(0.6).with_delay(0.6, us)), "drop + delay + dup"),
            (fault(FaultSpec::seeded(1).with_drop(-0.5)), "drop"),
            (fault(FaultSpec::seeded(1).with_duplicate(f64::NAN)), "dup"),
            (fault(FaultSpec::seeded(1).with_kill(99, 0)), "kill_rank=99"),
            (fault(FaultSpec::seeded(1).with_delay(0.5, us).with_delay_src(99)), "delay_src=99"),
            (collapse(2.0), "dt_collapse_factor"),
            (collapse(0.0), "dt_collapse_factor"),
            (trace, "trace=/nonexistent-yy/x.json"),
        ];
        for (opts, key) in cases {
            let err = run_parallel_supervised(&quick_cfg(), 1, 2, 1, 0, &opts)
                .expect_err(&format!("{key} must be refused"));
            assert_eq!(err.lines().count(), 1, "{key}: {err}");
            assert!(err.starts_with(key), "'{err}' does not lead with {key}");
        }
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
}
