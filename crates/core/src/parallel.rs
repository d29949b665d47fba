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
//! [`run_parallel_supervised`] wraps the same rank program in the
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

use crate::checkpoint::Checkpoint;
use crate::config::RunConfig;
use crate::health::{HealthGuard, HealthLimits};
use crate::obs::{recorders_to_chrome, ObsOpts};
use crate::output::{pack_shard_payload, shard_file_name, CkptCodec, OutputStage, ShardMeta};
pub use crate::report::{ElasticSummary, RecoveryEvent, RetileRecord};
use crate::report::{IoStats, PhaseBreakdown, RunReport, TimeSeriesPoint};
use crate::serial::{overset_donate_tally, overset_fill_tally};
use crate::weights::ColumnCosts;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use yy_field::{pack_region, unpack_region, Array3, Meters, Region};
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
    analyze, doctor_gauges_text, prometheus_text_with_phases, science_gauges_text, AnalysisInput,
    Event, JsonlLogger, MetricsHub, MetricsServer,
};
use yy_parcomm::stats::{SolverPhase, TrafficClass};
use yy_parcomm::{CartComm, Comm, FaultPlan, FaultSpec, ReduceOp, SupervisedOpts, Universe};

/// How a rank synchronises tile boundaries inside the RK4 stage loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SyncMode {
    /// Split each RHS sweep into a deep interior and a boundary shell:
    /// post halo/overset sends, compute the deep interior while the
    /// messages are in flight, then drain receives and compute the shell.
    /// Allocation-free after warmup. Bit-identical to `Blocking`.
    #[default]
    Overlapped,
    /// The legacy path: compute the full RHS, then block through a
    /// serialized halo → overset → wall-condition sync (with its original
    /// per-stage allocations). Kept as the bench baseline.
    Blocking,
}

/// User-tag space for the solver's point-to-point traffic.
const TAG_HALO_THETA: u64 = 11;
const TAG_HALO_PHI: u64 = 12;
const TAG_OVERSET: u64 = 13;
const TAG_GATHER: u64 = 14;

/// Result of a parallel run (assembled on world rank 0).
pub struct ParallelReport {
    /// Run metrics and the diagnostic series.
    pub report: RunReport,
    /// Gathered full Yin panel (owned values; ghosts as initialized)
    /// when requested.
    pub yin: Option<State>,
    /// Gathered full Yang panel.
    pub yang: Option<State>,
    /// Measured per-rank compute imbalance: the slowest rank's stencil
    /// wall time over the mean (1.0 = perfectly balanced).
    pub achieved_imbalance: f64,
}

/// Execute a parallel run with `pth × pph` tiles per panel
/// (world size = `2 · pth · pph` rank threads).
pub fn run_parallel(
    cfg: &RunConfig,
    pth: usize,
    pph: usize,
    steps: u64,
    sample_every: u64,
    gather_state: bool,
) -> ParallelReport {
    run_parallel_with_mode(cfg, pth, pph, steps, sample_every, gather_state, SyncMode::Overlapped)
}

/// [`run_parallel`] with an explicit boundary-synchronisation mode.
/// `Overlapped` and `Blocking` are bitwise identical in output; the mode
/// only selects the step pipeline (and is what the step benchmark
/// contrasts).
#[allow(clippy::too_many_arguments)]
pub fn run_parallel_with_mode(
    cfg: &RunConfig,
    pth: usize,
    pph: usize,
    steps: u64,
    sample_every: u64,
    gather_state: bool,
    mode: SyncMode,
) -> ParallelReport {
    cfg.params.validate();
    let tiles = pth * pph;
    let nprocs = 2 * tiles;
    let cfg = cfg.clone();
    let results = Universe::run(nprocs, move |world| {
        rank_main(&cfg, world, pth, pph, steps, sample_every, gather_state, mode)
    });
    results
        .into_iter()
        .flatten()
        .next()
        .expect("rank 0 must produce the report")
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
            other => Err(format!("on_failure: expected retry|retile|abort, got '{other}'")),
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

/// How the θ/φ partitioner weighs columns when (re)building a layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WeightsMode {
    /// Near-equal node counts — the historical layout.
    #[default]
    Uniform,
    /// Balance measured per-column cost from a serial probe's kernel
    /// counters ([`crate::weights::ColumnCosts`]).
    Measured,
}

impl WeightsMode {
    /// Parse a CLI/config value (`uniform` | `measured`).
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "uniform" => Ok(WeightsMode::Uniform),
            "measured" => Ok(WeightsMode::Measured),
            other => Err(format!("weights: expected uniform|measured, got '{other}'")),
        }
    }

    /// The canonical config-key spelling.
    pub fn name(self) -> &'static str {
        match self {
            WeightsMode::Uniform => "uniform",
            WeightsMode::Measured => "measured",
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
    /// Base interval of the bounded retry/limbo-pump loop.
    pub retry_base: Duration,
    /// Give up after this many rank-failure recoveries.
    pub max_recoveries: u32,
    /// Give up after this many health-triggered dt reductions.
    pub max_dt_reductions: u32,
    /// Solver health thresholds.
    pub health: HealthLimits,
    /// Boundary-synchronisation mode of the rank program (both modes are
    /// bitwise identical; `Blocking` exists as the benchmark baseline,
    /// e.g. to compare delay sensitivity under an injected fault plan).
    pub sync_mode: SyncMode,
    /// Observability: flight-recorder installation, Chrome-trace /
    /// JSONL output paths, ring sizing. Recording never perturbs the
    /// trajectory — the traced and untraced runs are bitwise identical.
    pub obs: ObsOpts,
    /// What to do when a fault is classified as persistent (same node,
    /// same failure, twice).
    pub on_failure: FailurePolicy,
    /// Give up after this many layout shrinks (`Retile` policy only).
    pub max_retiles: u32,
    /// Base backoff slept before a re-tiled pass starts (scaled by the
    /// retile count).
    pub retile_backoff: Duration,
    /// Partitioner weighting for the (re)built layouts.
    pub weights: WeightsMode,
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
    /// (`false`, the synchronous baseline the IO bench compares).
    pub ckpt_async: bool,
    /// Shard payload codec (`none` | `rle` | `delta`).
    pub ckpt_compress: CkptCodec,
    /// Seeded dt-collapse injection for the blow-up smoke: from the
    /// given step the *applied* dt shrinks geometrically, tripping the
    /// watchdog's `dt_collapse` precursor. The CFL/health machinery
    /// still sees the un-injected dt, so a short run completes. `None`
    /// (the default) in every production run.
    pub dt_inject: Option<crate::telemetry::DtInject>,
}

impl Default for RecoveryOpts {
    fn default() -> Self {
        RecoveryOpts {
            fault: FaultSpec::disabled(),
            checkpoint_every: 0,
            deadline: Duration::from_secs(30),
            retry_base: Duration::from_micros(200),
            max_recoveries: 3,
            max_dt_reductions: 2,
            health: HealthLimits::default(),
            sync_mode: SyncMode::Overlapped,
            obs: ObsOpts::default(),
            on_failure: FailurePolicy::Retry,
            max_retiles: 2,
            retile_backoff: Duration::from_millis(50),
            weights: WeightsMode::Uniform,
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
        if self.retile_backoff > Duration::from_secs(60) {
            return Err(format!(
                "retile_backoff must be at most 60s (got {:?})",
                self.retile_backoff
            ));
        }
        Ok(())
    }
}

/// One supervised pass's timing, for the before/after-shrink step-rate
/// comparison the bench records.
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
    /// Layout the run finished on (differs from the requested layout
    /// after elastic shrinks).
    pub final_layout: (usize, usize),
    /// Every elastic layout change, in order.
    pub retiles: Vec<RetileRecord>,
    /// Nodes excluded by the persistent-fault classifier.
    pub excluded_nodes: Vec<usize>,
    /// Whether the run finished in degraded mode.
    pub degraded: bool,
    /// Partitioner-predicted imbalance of the final layout.
    pub predicted_imbalance: f64,
    /// Measured per-rank compute imbalance of the final pass.
    pub achieved_imbalance: f64,
    /// Per-pass timing, in order (the bench's before/after-shrink rate).
    pub passes: Vec<PassStat>,
}

/// Execute a parallel run under the fault-tolerant supervisor.
///
/// The rank program is [`run_parallel`]'s, plus: a `fault_tick` at the
/// top of every step (injected kills), per-step health scans with a
/// global verdict, and periodic checkpoint capture at rank 0. The
/// supervisor restarts the universe from the last good checkpoint when
/// any rank fails, and additionally halves the time step when the
/// failure was a solver health violation. With faults that only
/// drop/delay/duplicate messages — or a kill recovered from checkpoint —
/// the final state is bitwise identical to an uninterrupted run.
pub fn run_parallel_supervised(
    cfg: &RunConfig,
    pth: usize,
    pph: usize,
    steps: u64,
    sample_every: u64,
    opts: &RecoveryOpts,
) -> Result<SupervisedReport, String> {
    cfg.params.validate();
    opts.check()?;
    let grid = cfg.grid();
    // Node identities are fixed at the *requested* size: world ranks of
    // every pass map onto the first `nprocs` surviving nodes, so the
    // fault plan (which targets node ids) keeps aiming at the same
    // hardware across re-tiles, and an excluded node is gone for good.
    let req_nprocs = 2 * pth * pph;
    let plan = opts
        .fault
        .is_active()
        .then(|| Arc::new(FaultPlan::new(opts.fault.clone(), req_nprocs)));
    // The supervisor — not the universe — owns the flight recorders, so
    // ring contents survive the teardown of a failed pass and can be
    // dumped as a post-mortem.
    let recorders = opts.obs.make_recorders(req_nprocs);
    let logger = match &opts.obs.log {
        Some(path) => Some(
            JsonlLogger::create(path).map_err(|e| format!("opening log {}: {e}", path.display()))?,
        ),
        None => None,
    };
    let log = |level: &str, msg: &str, extra: &[(&str, String)]| {
        if let Some(l) = &logger {
            l.log(level, None, None, msg, extra);
        }
    };
    log(
        "info",
        "supervised run start",
        &[
            ("nprocs", req_nprocs.to_string()),
            ("steps", steps.to_string()),
            ("policy", opts.on_failure.name().to_string()),
            ("weights", opts.weights.name().to_string()),
            ("traced", recorders.is_some().to_string()),
        ],
    );
    // Live metrics: tests may inject a hub to scrape without a socket;
    // a configured port gets a hub plus the std-TcpListener endpoint.
    // The server (if any) lives for the whole supervised run, including
    // across pass restarts, and stops on drop.
    let hub = opts
        .obs
        .metrics_hub
        .clone()
        .or_else(|| opts.obs.metrics_port.map(|_| Arc::new(MetricsHub::new())));
    let _metrics_server = match (&hub, opts.obs.metrics_port) {
        (Some(h), Some(port)) => {
            let server = MetricsServer::start(Arc::clone(h), port)
                .map_err(|e| format!("starting metrics endpoint on port {port}: {e}"))?;
            log(
                "info",
                "metrics endpoint up",
                &[("addr", server.local_addr().to_string())],
            );
            Some(server)
        }
        _ => None,
    };
    let rank_obs = RankObs {
        counters: opts.obs.counters,
        profile_every: opts.obs.profile_every,
        metrics: hub,
    };
    // Measured column costs come from one serial probe, shared by every
    // (re)build — re-probing mid-run would move cut boundaries between
    // passes for no benefit.
    let costs = match opts.weights {
        WeightsMode::Measured => Some(ColumnCosts::measure(cfg, 2)),
        WeightsMode::Uniform => None,
    };
    let build_decomp = |p: usize, q: usize| match &costs {
        Some(c) => c.decompose(p, q, &grid),
        None => Decomp2D::new(p, q, &grid),
    };
    // Disk persistence: each rank writes its owned region into the shard
    // directory at every checkpoint event, overlapped with compute when
    // `ckpt_async` (the tentpole). Presence is rank-uniform by
    // construction — the config is decided here, once, for the run.
    let shard_cfg: Option<Arc<ShardCfg>> = match &opts.ckpt_dir {
        Some(dir) => {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("creating checkpoint directory {}: {e}", dir.display()))?;
            Some(Arc::new(ShardCfg {
                dir: dir.clone(),
                async_mode: opts.ckpt_async,
                codec: opts.ckpt_compress,
            }))
        }
        None => None,
    };
    let slot: Arc<Mutex<Option<Checkpoint>>> = Arc::new(Mutex::new(None));
    // The restart-onto-any-layout path: a serial-format checkpoint from
    // *any* producer (serial run, any tile layout) seeds the slot, and
    // the first pass restores it exactly like a rollback would.
    if let Some(ck) = &opts.resume_from {
        if ck.shape != grid.full_shape() {
            return Err(format!(
                "resume checkpoint geometry {:?} does not match the run configuration {:?}",
                ck.shape,
                grid.full_shape()
            ));
        }
        *slot.lock().unwrap_or_else(|e| e.into_inner()) = Some(ck.clone());
    }
    let mut recoveries: Vec<RecoveryEvent> = Vec::new();
    let mut dt_scale = 1.0_f64;
    let mut rank_recoveries = 0_u32;
    let mut dt_reductions = 0_u32;
    let mut pass = 0_u32;
    // Elastic state: current layout, surviving node pool, and the
    // persistent-fault classifier (same node, same failure signature).
    let (mut cur_pth, mut cur_pph) = (pth, pph);
    let mut survivors: Vec<usize> = (0..req_nprocs).collect();
    let mut excluded_nodes: Vec<usize> = Vec::new();
    let mut retiles: Vec<RetileRecord> = Vec::new();
    let mut fail_counts: HashMap<(usize, String), u32> = HashMap::new();
    let mut degraded = false;
    let mut eff_ckpt_every = opts.checkpoint_every;
    let mut passes: Vec<PassStat> = Vec::new();
    // Science telemetry is supervisor-owned: built up front (so a bad
    // rules file fails the launch, not the landing) and fed from the
    // final pass's diagnostic series after success. The rank program
    // never sees it — armed runs stay bit-identical to unarmed ones.
    let mut science = crate::telemetry::ScienceTelemetry::from_opts(&opts.obs)?;
    loop {
        pass += 1;
        let nprocs = 2 * cur_pth * cur_pph;
        let node_map: Vec<usize> = survivors[..nprocs].to_vec();
        let decomp = Arc::new(build_decomp(cur_pth, cur_pph));
        // Messages stuck in limbo belong to the previous (dead) pass.
        if let Some(plan) = &plan {
            plan.begin_pass();
        }
        let resume = Arc::new(slot.lock().unwrap_or_else(|e| e.into_inner()).clone());
        let start_step = resume.as_ref().as_ref().map_or(0, |ck| ck.step);
        let sup = SupervisedOpts {
            fault: plan.clone(),
            deadline: opts.deadline,
            retry_base: opts.retry_base,
            recorders: recorders.clone(),
            nodes: Some(node_map.clone()),
        };
        let cfg2 = cfg.clone();
        let slot2 = Arc::clone(&slot);
        let obs2 = rank_obs.clone();
        let decomp2 = Arc::clone(&decomp);
        let shards2 = shard_cfg.clone();
        let dt_inject = opts.dt_inject;
        let (checkpoint_every, health, sync_mode) = (eff_ckpt_every, opts.health, opts.sync_mode);
        let pass_started = Instant::now();
        let results = Universe::run_supervised(nprocs, sup, move |world| {
            rank_main_supervised(
                &cfg2,
                world,
                &decomp2,
                steps,
                sample_every,
                checkpoint_every,
                health,
                dt_scale,
                resume.as_ref().as_ref(),
                &slot2,
                sync_mode,
                &obs2,
                shards2.as_deref(),
                dt_inject,
            )
        });

        // Classify the pass. A rank failure (kill, comm error, panic)
        // outranks a graceful health Err: health returns are collective,
        // so they only decide the outcome when every rank survived. Among
        // rank failures the root cause — an injected kill — wins over
        // the peer-death errors it cascades into.
        let mut failure: Option<yy_parcomm::RankFailure> = None;
        let mut health_err = None;
        let mut report = None;
        for r in results {
            match r {
                Ok(Ok(Some(rep))) => report = Some(rep),
                Ok(Ok(None)) => {}
                Ok(Err(h)) => {
                    health_err.get_or_insert(h);
                }
                Err(f) => {
                    let root = matches!(f.kind, yy_parcomm::FailureKind::InjectedKill { .. });
                    if failure.is_none()
                        || (root
                            && !matches!(
                                failure.as_ref().map(|p| &p.kind),
                                Some(yy_parcomm::FailureKind::InjectedKill { .. })
                            ))
                    {
                        failure = Some(f);
                    }
                }
            }
        }
        let resume_step = slot
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .as_ref()
            .map_or(start_step, |ck| ck.step);
        passes.push(PassStat {
            pass,
            pth: cur_pth,
            pph: cur_pph,
            steps_advanced: resume_step.saturating_sub(start_step),
            wall_s: pass_started.elapsed().as_secs_f64(),
        });
        // Any abandoned pass — rank failure or health rollback — dumps
        // every surviving rank's flight recorder, so the last N events
        // before death are inspectable. Last failure wins the path.
        if failure.is_some() || health_err.is_some() {
            if let (Some(path), Some(set)) = (opts.obs.postmortem_path(), &recorders) {
                std::fs::write(&path, recorders_to_chrome(set))
                    .map_err(|e| format!("writing post-mortem trace {}: {e}", path.display()))?;
                log(
                    "warn",
                    "wrote post-mortem trace",
                    &[("path", path.display().to_string()), ("pass", pass.to_string())],
                );
            }
        }
        if let Some(f) = failure {
            // Persistent-fault classification: count failures by (node,
            // signature). The node id is stable across re-tiles; the
            // signature separates a deterministic re-kill from unrelated
            // trouble on the same hardware.
            let node = node_map.get(f.rank).copied().unwrap_or(f.rank);
            let sig = match &f.kind {
                yy_parcomm::FailureKind::InjectedKill { step } => format!("kill@{step}"),
                yy_parcomm::FailureKind::Comm(_) => "comm".to_string(),
                yy_parcomm::FailureKind::Panic => "panic".to_string(),
            };
            let count = {
                let c = fail_counts.entry((node, sig.clone())).or_insert(0);
                *c += 1;
                *c
            };
            let persistent = count >= 2;
            let cause = f.to_string();
            if opts.on_failure == FailurePolicy::Abort {
                log("error", "aborting on rank failure", &[("cause", cause.clone())]);
                return Err(format!("on_failure=abort: pass {pass}: {cause}"));
            }
            if !persistent {
                if rank_recoveries >= opts.max_recoveries {
                    log("error", "giving up on rank failures", &[("cause", cause.clone())]);
                    return Err(format!(
                        "giving up after {rank_recoveries} rank-failure recoveries: {cause}"
                    ));
                }
                rank_recoveries += 1;
                if let Some(set) = &recorders {
                    set.record_all(Event::Rollback { pass: pass as u64, resume_step });
                }
                log(
                    "warn",
                    "rank failure; rolling back",
                    &[
                        ("pass", pass.to_string()),
                        ("resume_step", resume_step.to_string()),
                        ("cause", cause.clone()),
                    ],
                );
                recoveries.push(RecoveryEvent { pass, resume_step, cause });
                continue;
            }
            if opts.on_failure == FailurePolicy::Retry {
                // Don't burn the remaining retry budget replaying a
                // deterministic failure — surface it with the fix.
                log(
                    "error",
                    "persistent fault under on_failure=retry",
                    &[("node", node.to_string()), ("signature", sig.clone())],
                );
                return Err(format!(
                    "persistent fault: node {node} failed identically {count} times ({sig}); \
                     on_failure=retry cannot make progress — use on_failure=retile: {cause}"
                ));
            }
            // Retile: exclude the node, shrink the layout until the
            // survivors cover it (2×2 → 1×2 → 1×1), and resume from the
            // last good checkpoint on the new layout.
            if retiles.len() as u32 >= opts.max_retiles {
                log("error", "retile budget exhausted", &[("cause", cause.clone())]);
                return Err(format!("giving up after {} re-tiles: {cause}", retiles.len()));
            }
            survivors.retain(|&n| n != node);
            excluded_nodes.push(node);
            let from = (cur_pth, cur_pph);
            while 2 * cur_pth * cur_pph > survivors.len() {
                if cur_pth >= cur_pph && cur_pth > 1 {
                    cur_pth /= 2;
                } else if cur_pph > 1 {
                    cur_pph /= 2;
                } else {
                    log("error", "out of survivor nodes", &[("cause", cause.clone())]);
                    return Err(format!(
                        "only {} nodes survive — too few for even a 1x1 layout: {cause}",
                        survivors.len()
                    ));
                }
            }
            if let Some(set) = &recorders {
                set.record_all(Event::Retile {
                    pth: cur_pth as u16,
                    pph: cur_pph as u16,
                    pass: pass as u64,
                    resume_step,
                });
            }
            log(
                "warn",
                "persistent fault; re-tiling",
                &[
                    ("pass", pass.to_string()),
                    ("node", node.to_string()),
                    ("signature", sig.clone()),
                    ("from", format!("{}x{}", from.0, from.1)),
                    ("to", format!("{cur_pth}x{cur_pph}")),
                    ("resume_step", resume_step.to_string()),
                ],
            );
            retiles.push(RetileRecord {
                pass,
                from,
                to: (cur_pth, cur_pph),
                excluded_node: node,
                resume_step,
            });
            recoveries.push(RecoveryEvent {
                pass,
                resume_step,
                cause: format!(
                    "persistent fault on node {node} ({sig}); re-tiled {}x{} -> \
                     {cur_pth}x{cur_pph}: {cause}",
                    from.0, from.1
                ),
            });
            if !degraded {
                // First shrink enters degraded mode: capacity is gone,
                // so widen the checkpoint cadence (gathers cost a larger
                // fraction of the smaller machine) and flag the run.
                degraded = true;
                eff_ckpt_every = eff_ckpt_every.saturating_mul(2);
                if let Some(set) = &recorders {
                    set.record_all(Event::Degraded {
                        pass: pass as u64,
                        checkpoint_every: eff_ckpt_every,
                    });
                }
                log(
                    "warn",
                    "entering degraded mode",
                    &[("checkpoint_every", eff_ckpt_every.to_string())],
                );
            }
            std::thread::sleep(opts.retile_backoff.saturating_mul(retiles.len() as u32));
            continue;
        }
        if let Some(cause) = health_err {
            if dt_reductions >= opts.max_dt_reductions {
                log("error", "giving up on health violations", &[("cause", cause.clone())]);
                return Err(format!(
                    "health violations persist after {dt_reductions} dt reductions: {cause}"
                ));
            }
            dt_reductions += 1;
            dt_scale *= 0.5;
            if let Some(set) = &recorders {
                set.record_all(Event::Rollback { pass: pass as u64, resume_step });
            }
            log(
                "warn",
                "health rollback; dt halved",
                &[
                    ("pass", pass.to_string()),
                    ("resume_step", resume_step.to_string()),
                    ("dt_scale", dt_scale.to_string()),
                    ("cause", cause.clone()),
                ],
            );
            recoveries.push(RecoveryEvent { pass, resume_step, cause });
            continue;
        }
        let rep = report.ok_or("rank 0 produced no report")?;
        let final_checkpoint = slot
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take()
            .ok_or("no final checkpoint was captured")?;
        let predicted_imbalance = match &costs {
            Some(c) => c.predicted_imbalance(&decomp),
            None => ColumnCosts::uniform(&grid).predicted_imbalance(&decomp),
        };
        let achieved_imbalance = rep.achieved_imbalance;
        let mut report = rep.report;
        // Post-run diagnosis: read every ring once, extract the per-step
        // critical path and straggler attribution, and stamp the verdict
        // back into the rings as `analysis` instants *before* the trace
        // is written, so the exported trace carries its own diagnosis.
        // Strictly post-run — the solver never observes any of this.
        if let Some(set) = &recorders {
            let streams = set.snapshots();
            let retained = (0..set.len())
                .map(|r| {
                    let rec = set.rank(r);
                    (rec.recorded(), rec.capacity())
                })
                .collect();
            let analysis =
                analyze(&AnalysisInput { streams: &streams, retained, predicted_imbalance });
            for gate in &analysis.gating {
                if let Some(code) = yy_obs::event::phase::code(&gate.phase) {
                    let share_permille = if analysis.steps_analyzed > 0 {
                        gate.steps * 1000 / analysis.steps_analyzed
                    } else {
                        0
                    };
                    set.rank(0).record(Event::CriticalGate {
                        phase: code,
                        share_permille,
                        steps: gate.steps,
                    });
                }
            }
            for s in &analysis.stragglers {
                if (s.rank as usize) < set.len() {
                    set.rank(s.rank as usize).record(Event::StragglerFlagged {
                        rank: s.rank,
                        reason: s.reason,
                        severity_permille: (s.severity * 1000.0) as u64,
                    });
                }
            }
            // The endpoint's final body carries the diagnosis gauges.
            if let Some(h) = &rank_obs.metrics {
                let body = format!("{}{}", h.scrape(), doctor_gauges_text(&analysis.gauges()));
                h.publish(body);
            }
            log("info", "diagnosis", &[("verdict", analysis.verdict.clone())]);
            report.analysis = analysis;
        }
        if let Some(tel) = science.as_mut() {
            // Feed the sampled series (skipping the pre-loop seed point,
            // whose dt is a placeholder) and evaluate the watchdog.
            // Per-sample step wall is not tracked rank-side; the channel
            // carries NaN for parallel runs (serial runs fill it).
            for p in report.series.iter().skip(1).cloned().collect::<Vec<_>>() {
                tel.record(&p, f64::NAN, None);
            }
            // Alert edges become rank-0 trace instants, stamped before
            // the trace write below so the export carries them.
            if let Some(set) = &recorders {
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
            if let Some(h) = &rank_obs.metrics {
                let body = format!("{}{}", h.scrape(), science_gauges_text(&tel.gauges()));
                h.publish(body);
            }
            let fired = tel.alerts().iter().filter(|a| a.firing).count();
            log(
                "info",
                "science telemetry",
                &[
                    ("rows", tel.store().rows().to_string()),
                    ("alerts_fired", fired.to_string()),
                ],
            );
            report.alerts = tel.alerts().to_vec();
            report.telemetry = Some(tel.store_json());
        }
        if let (Some(path), Some(set)) = (&opts.obs.trace, &recorders) {
            std::fs::write(path, recorders_to_chrome(set))
                .map_err(|e| format!("writing trace {}: {e}", path.display()))?;
            log("info", "wrote trace", &[("path", path.display().to_string())]);
        }
        report.recoveries = recoveries.clone();
        report.elastic = ElasticSummary {
            policy: opts.on_failure.name().to_string(),
            weights: opts.weights.name().to_string(),
            degraded,
            final_pth: cur_pth,
            final_pph: cur_pph,
            excluded_nodes: excluded_nodes.clone(),
            retiles: retiles.clone(),
            predicted_imbalance,
            achieved_imbalance,
        };
        log(
            "info",
            "supervised run complete",
            &[
                ("passes", pass.to_string()),
                ("recoveries", recoveries.len().to_string()),
                ("layout", format!("{cur_pth}x{cur_pph}")),
                ("retiles", retiles.len().to_string()),
                ("degraded", degraded.to_string()),
            ],
        );
        return Ok(SupervisedReport {
            report,
            final_checkpoint,
            recoveries,
            dt_scale,
            final_layout: (cur_pth, cur_pph),
            retiles,
            excluded_nodes,
            degraded,
            predicted_imbalance,
            achieved_imbalance,
            passes,
        });
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

/// The supervised rank program. Returns `Err` (on every rank, via a
/// collective verdict) for graceful solver-health violations; comm
/// failures and injected kills surface as panics that
/// [`Universe::run_supervised`] converts to [`yy_parcomm::RankFailure`].
#[allow(clippy::too_many_arguments)]
fn rank_main_supervised(
    cfg: &RunConfig,
    world: Comm,
    decomp: &Decomp2D,
    steps: u64,
    sample_every: u64,
    checkpoint_every: u64,
    health: HealthLimits,
    dt_scale: f64,
    resume: Option<&Checkpoint>,
    slot: &Mutex<Option<Checkpoint>>,
    sync_mode: SyncMode,
    obs: &RankObs,
    shards: Option<&ShardCfg>,
    dt_inject: Option<crate::telemetry::DtInject>,
) -> Result<Option<ParallelReport>, String> {
    let tiles = decomp.tiles();
    let (mut solver, mut state) =
        RankSolver::new(cfg, &world, decomp, sync_mode, obs.counters);
    let mut emitter = shards.map(ShardEmitter::new);
    let mut dt_cache = match resume {
        Some(ck) => {
            solver.restore_tile(&mut state, ck);
            ck.dt_cache
        }
        None => 0.0,
    };
    solver.sync(&mut state);
    let mut guard = HealthGuard::new(health);

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
        solver.capture_checkpoint(&state, tiles, dt_cache, slot);
        if let Some(em) = &mut emitter {
            em.emit(&mut solver, &state, dt_cache);
        }
        world.record_event(Event::CheckpointSaved { step: solver.step });
    }

    // Open the counter measurement window at loop entry (setup, restore
    // and the initial sync are bookkeeping, not stepping).
    solver.meter.reset();
    // Sampler state: the previous profile sample's (wall clock, counter
    // snapshot), for windowed MFLOPS deltas. Local to the rank; the
    // emitted counter events are local ring appends, never collectives.
    let mut last_profile: Option<(Instant, CounterSnapshot)> = None;
    while solver.step < steps {
        let step_started = Instant::now();
        world.record_event(Event::StepBegin { step: solver.step });
        world.fault_tick(solver.step);
        // dt cadence at *absolute* step numbers, so a resumed pass
        // recomputes dt at exactly the steps the clean run did.
        if dt_cache == 0.0 || solver.step % solver.cfg.dt_every as u64 == 0 {
            dt_cache = solver.global_dt(&state) * dt_scale;
            if let Err(v) = guard.check_dt(dt_cache) {
                world.record_event(Event::HealthViolation { code: v.code(), step: solver.step });
                // global_dt is allreduced, so every rank returns together.
                return Err(format!("step {}: {v}", solver.step));
            }
        }
        // The applied dt: identical to the CFL cache except under the
        // blow-up smoke's injection (deterministic in the step number,
        // so every rank scales identically).
        let dt = match &dt_inject {
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
        let verdict =
            world.allreduce_f64(if local.is_err() { 1.0 } else { 0.0 }, ReduceOp::Max);
        if verdict > 0.0 {
            return Err(match local {
                Err(v) => format!("rank {} step {}: {v}", world.rank(), solver.step),
                Ok(()) => format!("health violation on a peer rank at step {}", solver.step),
            });
        }
        if sample_every > 0 && solver.step % sample_every == 0 {
            record(&solver, &state, dt, &mut series);
        }
        if checkpoint_every > 0 && solver.step % checkpoint_every == 0 && solver.step < steps {
            solver.capture_checkpoint(&state, tiles, dt_cache, slot);
            if let Some(em) = &mut emitter {
                em.emit(&mut solver, &state, dt_cache);
            }
            world.record_event(Event::CheckpointSaved { step: solver.step });
        }
        world.sample_queue_depth();
        world.record_step_ns(step_started.elapsed().as_nanos() as u64);
        // Periodic profile sampler: each rank appends its own per-kernel
        // MFLOPS counter samples (Chrome "C"-phase tracks) to its flight
        // recorder — purely local, cannot perturb the trajectory.
        if obs.profile_every > 0 && solver.step % obs.profile_every == 0 {
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
        if let Some(hub) = &obs.metrics {
            if solver.step % obs.profile_every.max(1) == 0 {
                // Counter words plus the 6 phase-ns words ride one
                // allreduce — the extension is rank-uniform, so the
                // collective stays matched on every rank.
                let mut words = solver.meter.counters().snapshot().to_f64s();
                let nwords = words.len();
                let stats = world.stats();
                words.extend_from_slice(&[
                    stats.ns_pack as f64,
                    stats.ns_interior as f64,
                    stats.ns_wait as f64,
                    stats.ns_boundary as f64,
                    stats.ns_overset as f64,
                    stats.ns_writer_wait as f64,
                ]);
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

    // Final shard + writer drain *before* the counter aggregation, so
    // the writer_wait phase and the IO totals are complete. The drain is
    // local; the error verdict is collective (presence of `shards` is
    // rank-uniform), so every rank returns together on a write failure.
    let io_totals = match emitter {
        Some(mut em) => {
            em.emit(&mut solver, &state, dt_cache);
            world.record_phase_ns(SolverPhase::WriterWait, em.stage.flush());
            Some(em.stage.finish())
        }
        None => None,
    };
    let io = match &io_totals {
        Some(result) => {
            let bad = world
                .allreduce_f64(if result.is_err() { 1.0 } else { 0.0 }, ReduceOp::Max);
            if bad > 0.0 {
                return Err(match result {
                    Err(e) => format!("rank {}: checkpoint shard write: {e}", world.rank()),
                    Ok(_) => "checkpoint shard write failed on a peer rank".to_string(),
                });
            }
            let t = result.as_ref().expect("error ranks returned above");
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
                snapshots_written: 0,
                bytes_raw: sums[1] as u64,
                bytes_written: sums[2] as u64,
                write_wall_s: sums[3] / 1e9,
                writer_wait_s: 0.0, // filled from the phase breakdown below
                async_mode: shards.map(|s| s.async_mode).unwrap_or(false),
                codec: shards.map(|s| s.codec.name()).unwrap_or("none").to_string(),
            }
        }
        None => IoStats::default(),
    };
    let (flops, halo_bytes, overset_bytes, max_queue_depth, phases, hists, kernels) =
        solver.aggregate_counters();
    let io = IoStats { writer_wait_s: phases.writer_wait_s, ..io };
    let achieved_imbalance = solver.achieved_imbalance();
    solver.capture_checkpoint(&state, tiles, dt_cache, slot);
    world.record_event(Event::CheckpointSaved { step: solver.step });

    if world.rank() == 0 {
        let [recv_wait, step_wall, queue_depth] = hists;
        Ok(Some(ParallelReport {
            report: RunReport {
                time: solver.time,
                steps,
                flops,
                wall_seconds: started.elapsed().as_secs_f64(),
                grid_points: solver.grid.total_points(),
                halo_bytes,
                overset_bytes,
                max_queue_depth,
                phases,
                recv_wait,
                step_wall,
                queue_depth,
                recoveries: Vec::new(),
                elastic: Default::default(),
                kernels,
                io,
                analysis: Default::default(),
                series,
                alerts: Vec::new(),
                telemetry: None,
            },
            yin: None,
            yang: None,
            achieved_imbalance,
        }))
    } else {
        Ok(None)
    }
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
    /// True once the circulation has had time to reach steady state
    /// (set after the second full step).
    warmed: bool,
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
            warmed: false,
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
                    if self.warmed {
                        self.steady_allocs += 1;
                    }
                    b.reserve(capacity);
                }
                b
            }
            None => {
                if self.warmed {
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
/// struct (in `rank_main`) so boundary synchronisation can borrow the
/// solver while mutating the state.
struct RankSolver<'a> {
    world: &'a Comm,
    cart: CartComm,
    grid: PatchGrid,
    /// The tile layout this rank was built from (possibly weighted);
    /// gather/restore must use it — not a rebuilt uniform layout — or a
    /// weighted run would scatter blocks to the wrong coordinates.
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
    mode: SyncMode,
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

/// Per-rank observability knobs the supervised rank program receives
/// from [`RecoveryOpts::obs`] (the subset that lives inside the step
/// loop; recorder installation stays with the supervisor).
#[derive(Clone)]
struct RankObs {
    counters: bool,
    profile_every: u64,
    metrics: Option<Arc<MetricsHub>>,
}

/// Output-pipeline configuration the supervisor hands every rank
/// (rank-uniform, so the collective error check never diverges).
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

#[allow(clippy::too_many_arguments)]
fn rank_main(
    cfg: &RunConfig,
    world: Comm,
    pth: usize,
    pph: usize,
    steps: u64,
    sample_every: u64,
    gather_state: bool,
    mode: SyncMode,
) -> Option<ParallelReport> {
    let tiles = pth * pph;
    let decomp = Decomp2D::new(pth, pph, &cfg.grid());
    let (mut solver, mut state) = RankSolver::new(cfg, &world, &decomp, mode, true);
    solver.sync(&mut state);

    let started = Instant::now();
    let mut series = Vec::new();
    let record = |solver: &RankSolver, state: &State, dt: f64, series: &mut Vec<TimeSeriesPoint>| {
        let d = solver.reduce_diag(state);
        if solver.world.rank() == 0 {
            series.push(TimeSeriesPoint { step: solver.step, time: solver.time, dt, diag: d });
        }
    };
    record(&solver, &state, 0.0, &mut series);

    // Open the measurement window at loop entry: setup and the initial
    // sync are excluded, exactly like the serial driver's `run`.
    solver.meter.reset();
    let mut dt_cache = 0.0_f64;
    for n in 0..steps {
        let step_started = Instant::now();
        world.record_event(Event::StepBegin { step: solver.step });
        if dt_cache == 0.0 || solver.step % solver.cfg.dt_every as u64 == 0 {
            dt_cache = solver.global_dt(&state);
        }
        solver.advance(&mut state, dt_cache);
        world.sample_queue_depth();
        world.record_step_ns(step_started.elapsed().as_nanos() as u64);
        let scan_t0 = solver.meter.timer();
        assert!(
            !state.has_non_finite(),
            "rank {}: solution became non-finite at step {}",
            world.rank(),
            solver.step
        );
        assert!(
            state.is_physical(),
            "rank {}: solution became unphysical (non-positive density/pressure) at step {}",
            world.rank(),
            solver.step
        );
        {
            let sh = state.shape();
            let tally = crate::health::scan_tally((sh.nth * sh.nph) as u64, sh.nr as u64);
            solver.meter.kernel_timed(kernel::HEALTH_SCAN, tally, scan_t0);
        }
        if sample_every > 0 && (n + 1) % sample_every == 0 {
            record(&solver, &state, dt_cache, &mut series);
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
    if solver.mode == SyncMode::Overlapped && steps >= 3 && solver.comm.balanced {
        assert_eq!(
            solver.comm.steady_allocs,
            0,
            "rank {}: overlapped step path allocated after warmup",
            world.rank()
        );
    }

    // Aggregate counters.
    let (flops, halo_bytes, overset_bytes, max_queue_depth, phases, hists, kernels) =
        solver.aggregate_counters();
    let achieved_imbalance = solver.achieved_imbalance();

    // Optionally gather the full panels at rank 0.
    let (yin, yang) = if gather_state {
        solver.gather_panels(&state, tiles)
    } else {
        (None, None)
    };

    if world.rank() == 0 {
        let [recv_wait, step_wall, queue_depth] = hists;
        Some(ParallelReport {
            report: RunReport {
                time: solver.time,
                steps,
                flops,
                wall_seconds: started.elapsed().as_secs_f64(),
                grid_points: solver.grid.total_points(),
                halo_bytes,
                overset_bytes,
                max_queue_depth,
                phases,
                recv_wait,
                step_wall,
                queue_depth,
                recoveries: Vec::new(),
                elastic: Default::default(),
                kernels,
                io: IoStats::default(),
                analysis: Default::default(),
                series,
                alerts: Vec::new(),
                telemetry: None,
            },
            yin,
            yang,
            achieved_imbalance,
        })
    } else {
        None
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
        mode: SyncMode,
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
            mode,
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
    /// after warmup). Message contents, ordering and arithmetic are
    /// identical to [`Self::sync_blocking`].
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

    /// The tentpole pipeline: the boundary synchronisation of `x` fused
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

    // ------------------------------------------------------------------
    // Legacy blocking path — `SyncMode::Blocking`. Kept verbatim (fresh
    // allocations and all) as the baseline the step benchmark contrasts
    // the overlapped pipeline against.
    // ------------------------------------------------------------------

    /// Halo exchange + overset exchange + physical walls on `s`.
    fn sync_blocking(&mut self, s: &mut State) {
        let mut clock = PhaseClock::start();
        self.halo_exchange(s, &mut clock);
        self.overset_exchange(s, &mut clock);
        apply_physical_bc(s, self.cfg.params.t_inner, self.cfg.mag_bc);
        clock.lap(self.world, SolverPhase::Boundary);
    }

    /// Two-phase nearest-neighbour halo exchange (θ, then φ over the
    /// θ-extended rows so corners fill without diagonal messages).
    fn halo_exchange(&mut self, s: &mut State, clock: &mut PhaseClock) {
        let h = self.grid.spec().halo as isize;
        let (nth, nph) = (self.tile.nth as isize, self.tile.nph as isize);
        let nr = self.grid.spec().nr;
        let [north, south, west, east] = self.cart.neighbors4();

        // --- phase θ ------------------------------------------------------
        let send_n = Region { i0: 0, i1: nr, j0: 0, j1: h, k0: 0, k1: nph };
        let send_s = Region { i0: 0, i1: nr, j0: nth - h, j1: nth, k0: 0, k1: nph };
        let recv_n = Region { i0: 0, i1: nr, j0: -h, j1: 0, k0: 0, k1: nph };
        let recv_s = Region { i0: 0, i1: nr, j0: nth, j1: nth + h, k0: 0, k1: nph };
        self.exchange_bands(
            s, north, south, send_n, send_s, recv_n, recv_s, TAG_HALO_THETA, clock,
        );

        // --- phase φ (rows extended into the θ ghosts) ---------------------
        let send_w = Region { i0: 0, i1: nr, j0: -h, j1: nth + h, k0: 0, k1: h };
        let send_e = Region { i0: 0, i1: nr, j0: -h, j1: nth + h, k0: nph - h, k1: nph };
        let recv_w = Region { i0: 0, i1: nr, j0: -h, j1: nth + h, k0: -h, k1: 0 };
        let recv_e = Region { i0: 0, i1: nr, j0: -h, j1: nth + h, k0: nph, k1: nph + h };
        self.exchange_bands(s, west, east, send_w, send_e, recv_w, recv_e, TAG_HALO_PHI, clock);
    }

    /// Symmetric exchange with the (lo, hi) neighbour pair along one
    /// dimension: all eight state arrays packed into a single message per
    /// neighbour, as the real code batches its halo traffic.
    #[allow(clippy::too_many_arguments)]
    fn exchange_bands(
        &mut self,
        s: &mut State,
        lo: Option<usize>,
        hi: Option<usize>,
        send_lo: Region,
        send_hi: Region,
        recv_lo: Region,
        recv_hi: Region,
        tag: u64,
        clock: &mut PhaseClock,
    ) {
        // Post sends first (buffered): no deadlock in symmetric exchange.
        for (peer, region) in [(lo, send_lo), (hi, send_hi)] {
            if let Some(dst) = peer {
                let t0 = self.meter.timer();
                let mut buf = Vec::with_capacity(region.len() * 8);
                for arr in s.arrays() {
                    pack_region(arr, region, &mut buf);
                }
                self.meter.kernel_timed(kernel::HALO_PACK, halo_tally(region), t0);
                self.cart.comm().send_f64s(dst, tag, buf, TrafficClass::Halo);
            }
        }
        clock.lap(self.world, SolverPhase::Pack);
        for (peer, region) in [(lo, recv_lo), (hi, recv_hi)] {
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
                clock.lap(self.world, SolverPhase::Pack);
            }
        }
    }

    /// Overset exchange: donate interpolated columns to partner-panel
    /// ranks and fill my frame slots from theirs.
    fn overset_exchange(&mut self, s: &mut State, clock: &mut PhaseClock) {
        let nr = self.grid.spec().nr;
        // Donate.
        for (si, send) in self.exchange.sends.iter().enumerate() {
            let t0 = self.meter.timer();
            let mut buf = Vec::with_capacity(send.jobs.len() * 8 * nr);
            let mut row = vec![0.0; nr];
            let (mut vr, mut vt, mut vp) = (vec![0.0; nr], vec![0.0; nr], vec![0.0; nr]);
            for job in &send.jobs {
                let col = OversetColumn {
                    tgt_j: 0,
                    tgt_k: 0,
                    don_j: job.dj as usize,
                    don_k: job.dk as usize,
                    w: job.w,
                    rot: job.rot,
                };
                interp_scalar_column(&col, &s.rho, &mut row);
                buf.extend_from_slice(&row);
                interp_scalar_column(&col, &s.press, &mut row);
                buf.extend_from_slice(&row);
                interp_vector_column(&col, &s.f.r, &s.f.t, &s.f.p, &mut vr, &mut vt, &mut vp);
                buf.extend_from_slice(&vr);
                buf.extend_from_slice(&vt);
                buf.extend_from_slice(&vp);
                interp_vector_column(&col, &s.a.r, &s.a.t, &s.a.p, &mut vr, &mut vt, &mut vp);
                buf.extend_from_slice(&vr);
                buf.extend_from_slice(&vt);
                buf.extend_from_slice(&vp);
            }
            self.meter.kernel_timed(
                kernel::OVERSET_DONATE,
                donate_tally_owned(self.owned_jobs[si], send.jobs.len() as u64, nr as u64),
                t0,
            );
            self.world.send_f64s(send.to_world, TAG_OVERSET, buf, TrafficClass::Overset);
        }
        clock.lap(self.world, SolverPhase::Overset);
        // Receive and place.
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
    /// they go). Both modes produce bitwise-identical states; they differ
    /// only in how boundary synchronisation is scheduled against the RHS
    /// sweeps. Stage 0 needs no communication (`state` was synced at the
    /// end of the previous step); each later stage syncs the buffer the
    /// previous one built — fused with its sweep
    /// ([`Self::sync_rhs_overlapped`]) or serialized before it (the
    /// blocking baseline).
    fn advance(&mut self, state: &mut State, dt: f64) {
        let weights = geomath::rk4::RK4_WEIGHTS;
        let nodes = [0.5, 0.5, 1.0];
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
            let mut sink = if s < 3 {
                RhsSink::Stage { acc: state, y0, next, b: dt * weights[s], a: dt * nodes[s] }
            } else {
                RhsSink::Final { acc: state, b: dt * weights[s] }
            };
            let combine = sink.combine_tally();
            match (s, self.mode) {
                (0, _) => self.rhs_partial(y0, &range, &mut sink),
                (_, SyncMode::Overlapped) => self.sync_rhs_overlapped(cur, &mut sink),
                (_, SyncMode::Blocking) => {
                    self.sync_blocking(cur);
                    self.rhs_partial(cur, &range, &mut sink);
                }
            }
            self.meter.kernel(kernel::RK4_COMBINE, combine);
        }
        match self.mode {
            SyncMode::Overlapped => self.sync(state),
            SyncMode::Blocking => self.sync_blocking(state),
        }
        self.rk4 = Some(rk4);
        self.time += dt;
        self.step += 1;
        if self.step == 2 {
            // Two steps give the buffer circulation time to grow every
            // pooled Vec to its steady capacity; from here on the step
            // path must not allocate.
            self.comm.warmed = true;
        }
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
        let t = &self.tile;
        let global = Region {
            i0: 0,
            i1: nr,
            j0: t.j0 as isize,
            j1: (t.j0 + t.nth) as isize,
            k0: t.k0 as isize,
            k1: (t.k0 + t.nph) as isize,
        };
        let local = Region {
            i0: 0,
            i1: nr,
            j0: 0,
            j1: t.nth as isize,
            k0: 0,
            k1: t.nph as isize,
        };
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
    fn capture_checkpoint(
        &mut self,
        state: &State,
        tiles: usize,
        dt_cache: f64,
        slot: &Mutex<Option<Checkpoint>>,
    ) {
        let nr = self.grid.spec().nr;
        let owned = Region {
            i0: 0,
            i1: nr,
            j0: 0,
            j1: self.tile.nth as isize,
            k0: 0,
            k1: self.tile.nph as isize,
        };
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
        // cheaper than a rebuild); only with neither build *initialized*
        // full panels — the serial driver's ghost padding keeps its
        // initialization values forever (syncs only rewrite frames and
        // walls), so a gathered checkpoint is byte-identical to a serial
        // one only if the unowned padding carries the same initial
        // bytes. Every occupant of slot and scratch carries them — an
        // earlier capture, or the serial-format checkpoint the run
        // resumed from — and captures rewrite only owned blocks, frames
        // and walls.
        let scratch = self.ckpt_scratch.take().or_else(|| {
            slot.lock().unwrap_or_else(|e| e.into_inner()).clone()
        });
        let mut ck = match scratch {
            Some(ck) if ck.shape == full => ck,
            _ => {
                let mut panels = [State::zeros(full), State::zeros(full)];
                for (p, s) in [Panel::Yin, Panel::Yang].into_iter().zip(panels.iter_mut()) {
                    initialize(s, &self.grid, None, &self.cfg.params, &self.cfg.init, p);
                }
                let [yin, yang] = panels;
                Checkpoint { shape: full, step: 0, time: 0.0, dt_cache: 0.0, yin, yang }
            }
        };
        for world_rank in 0..2 * tiles {
            let (panel, pr) = panel_of_world(world_rank, tiles);
            let t = self.decomp.tile(pr);
            let region = Region {
                i0: 0,
                i1: nr,
                j0: t.j0 as isize,
                j1: (t.j0 + t.nth) as isize,
                k0: t.k0 as isize,
                k1: (t.k0 + t.nph) as isize,
            };
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
        self.ckpt_scratch = slot.lock().unwrap_or_else(|e| e.into_inner()).replace(ck);
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

    /// Allreduced run counters: (flops, halo bytes, overset bytes, max
    /// observed mailbox depth, all-rank phase breakdown, merged
    /// [receive-wait, step-wall, queue-depth] histograms, merged
    /// per-kernel counter snapshot).
    fn aggregate_counters(
        &self,
    ) -> (u64, u64, u64, u64, PhaseBreakdown, [HistogramSnapshot; 3], CounterSnapshot) {
        let stats = self.world.stats();
        let flops = self.world.allreduce_f64(self.meter.flops() as f64, ReduceOp::Sum) as u64;
        let halo_bytes = self.world.allreduce_f64(stats.bytes_halo as f64, ReduceOp::Sum) as u64;
        let overset_bytes =
            self.world.allreduce_f64(stats.bytes_overset as f64, ReduceOp::Sum) as u64;
        let max_queue_depth =
            self.world.allreduce_f64(stats.max_queue_depth as f64, ReduceOp::Max) as u64;
        let ns = self.world.allreduce_vec(
            &[
                stats.ns_pack as f64,
                stats.ns_interior as f64,
                stats.ns_wait as f64,
                stats.ns_boundary as f64,
                stats.ns_overset as f64,
                stats.ns_writer_wait as f64,
            ],
            ReduceOp::Sum,
        );
        let phases = PhaseBreakdown {
            pack_s: ns[0] / 1e9,
            interior_s: ns[1] / 1e9,
            wait_s: ns[2] / 1e9,
            boundary_s: ns[3] / 1e9,
            overset_s: ns[4] / 1e9,
            writer_wait_s: ns[5] / 1e9,
        };
        let hists = [stats.recv_wait, stats.step_wall, stats.queue_depth]
            .map(|h| self.merge_hist(h));
        // Every tally word is an exact integer (or a ns sum) far below
        // 2⁵³, so the f64 Sum allreduce merges the per-rank kernel
        // counters losslessly — same trick as the histograms.
        let kwords = self
            .world
            .allreduce_vec(&self.meter.counters().snapshot().to_f64s(), ReduceOp::Sum);
        let kernels = CounterSnapshot::from_f64s(&kwords);
        (flops, halo_bytes, overset_bytes, max_queue_depth, phases, hists, kernels)
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

    /// Gather owned blocks of both panels at world rank 0.
    fn gather_panels(&self, state: &State, tiles: usize) -> (Option<State>, Option<State>) {
        let nr = self.grid.spec().nr;
        // Pack my owned block.
        let owned = Region {
            i0: 0,
            i1: nr,
            j0: 0,
            j1: self.tile.nth as isize,
            k0: 0,
            k1: self.tile.nph as isize,
        };
        let mut buf = Vec::with_capacity(owned.len() * 8);
        for arr in state.arrays() {
            pack_region(arr, owned, &mut buf);
        }
        if self.world.rank() == 0 {
            // Assemble into *initialized* full panels, not zeros: the
            // serial driver's ghost padding keeps its initialization
            // values forever (syncs only rewrite frames and walls), so a
            // gathered checkpoint is byte-identical to a serial one only
            // if the unowned padding carries the same initial bytes.
            let mut panels =
                [State::zeros(self.grid.full_shape()), State::zeros(self.grid.full_shape())];
            for (p, s) in [Panel::Yin, Panel::Yang].into_iter().zip(panels.iter_mut()) {
                initialize(s, &self.grid, None, &self.cfg.params, &self.cfg.init, p);
            }
            for world_rank in 0..2 * tiles {
                let data = if world_rank == 0 {
                    std::mem::take(&mut buf)
                } else {
                    self.world.recv_f64s(world_rank, TAG_GATHER)
                };
                let (panel, pr) = panel_of_world(world_rank, tiles);
                let t = self.decomp.tile(pr);
                let region = Region {
                    i0: 0,
                    i1: nr,
                    j0: t.j0 as isize,
                    j1: (t.j0 + t.nth) as isize,
                    k0: t.k0 as isize,
                    k1: (t.k0 + t.nph) as isize,
                };
                let mut rest: &[f64] = &data;
                for arr in panels[panel.index()].arrays_mut() {
                    rest = unpack_region(arr, region, rest);
                }
                assert!(rest.is_empty());
            }
            let [yin, yang] = panels;
            (Some(yin), Some(yang))
        } else {
            self.world.send_f64s(0, TAG_GATHER, buf, TrafficClass::Control);
            (None, None)
        }
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

    /// The overlapped pipeline reorders *scheduling*, never arithmetic:
    /// both sync modes must produce bitwise-identical panels.
    #[test]
    fn blocking_and_overlapped_agree_bitwise() {
        let cfg = quick_cfg();
        let a = run_parallel_with_mode(&cfg, 2, 1, 3, 0, true, SyncMode::Overlapped);
        let b = run_parallel_with_mode(&cfg, 2, 1, 3, 0, true, SyncMode::Blocking);
        for (ov, bl) in [
            (a.yin.as_ref().unwrap(), b.yin.as_ref().unwrap()),
            (a.yang.as_ref().unwrap(), b.yang.as_ref().unwrap()),
        ] {
            for (x, y) in ov.arrays().into_iter().zip(bl.arrays()) {
                assert_eq!(x.data(), y.data());
            }
        }
        // Same arithmetic is also metered the same.
        assert_eq!(a.report.flops, b.report.flops);
        // Only the overlapped pipeline computes while messages fly.
        assert!(a.report.phases.interior_s > 0.0);
        assert_eq!(b.report.phases.interior_s, 0.0);
        assert!(b.report.phases.wait_s > 0.0);
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
        assert_eq!(err, "on_failure: expected retry|retile|abort, got 'panic'");
        assert_eq!(FailurePolicy::Retile.name(), "retile");
    }

    #[test]
    fn weights_mode_parses_and_rejects() {
        assert_eq!(WeightsMode::parse("uniform").unwrap(), WeightsMode::Uniform);
        assert_eq!(WeightsMode::parse("measured").unwrap(), WeightsMode::Measured);
        let err = WeightsMode::parse("guessed").unwrap_err();
        assert_eq!(err, "weights: expected uniform|measured, got 'guessed'");
        assert_eq!(WeightsMode::Measured.name(), "measured");
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
        let slow = RecoveryOpts {
            retile_backoff: Duration::from_secs(120),
            ..RecoveryOpts::default()
        };
        assert!(slow.check().unwrap_err().contains("retile_backoff"));
    }
}
