//! The supervisor: the recovery policy as a pure table ([`next_action`])
//! and the mechanism around it — setup, one pass of the rank program,
//! applying the decided action, and assembling the final report. Between
//! passes the state moves as one step's owned blocks, which every rank
//! of the next pass restores its tile from; only the final checkpoint is
//! merged.

use super::rank::{rank_program, PassPlan};
use super::{FailurePolicy, ParallelReport, PassStat, RecoveryOpts, SupervisedReport};
use crate::config::RunConfig;
use crate::obs::recorders_to_chrome;
use crate::output::{checkpoint_blocks, merge_blocks, Block, ShardSet};
use crate::report::{ElasticSummary, IoStats, RecoveryEvent, RetileRecord};
use crate::telemetry::ScienceTelemetry;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;
use yy_mesh::partition::MIN_TILE_WIDTH;
use yy_mesh::{Decomp2D, PatchGrid};
use yy_obs::{analyze, AnalysisInput, Event, RecorderSet};
use yy_parcomm::{root_cause, FailureKind, FaultPlan, SupervisedOpts, Universe};

/// How one supervised pass ended, as the recovery policy sees it.
#[derive(Debug)]
pub(super) enum PassOutcome {
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
pub(super) enum Action {
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
pub(super) struct PolicyState {
    on_failure: FailurePolicy,
    pub(super) max_recoveries: u32,
    max_dt_reductions: u32,
    pub(super) max_retiles: u32,
    /// Passes started so far (the 1-based index of the current one).
    pub(super) pass: u32,
    pub(super) layout: (usize, usize),
    pub(super) survivors: Vec<usize>,
    rank_recoveries: u32,
    dt_reductions: u32,
    retiles: u32,
    /// Failures so far by (node, signature): two make a fault persistent.
    fail_counts: HashMap<(usize, String), u32>,
}

impl PolicyState {
    pub(super) fn new(opts: &RecoveryOpts, pth: usize, pph: usize) -> Self {
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
pub(super) fn next_action(st: &mut PolicyState, outcome: &PassOutcome) -> Action {
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

/// One finished pass.
pub(super) struct Pass {
    pub(super) outcome: PassOutcome,
    /// Rank 0's report (completed passes only).
    report: Option<ParallelReport>,
    decomp: Decomp2D,
    /// Step of the blocks the next pass resumes from.
    resume_step: u64,
}

/// The mechanism of a supervised run: everything that outlives a pass.
pub(super) struct Supervisor<'a> {
    cfg: &'a RunConfig,
    opts: &'a RecoveryOpts,
    grid: PatchGrid,
    fault: Option<Arc<FaultPlan>>,
    /// The supervisor — not the universe — owns the flight recorders, so
    /// ring contents survive the teardown of a failed pass and can be
    /// dumped as a post-mortem.
    recorders: Option<Arc<RecorderSet>>,
    /// The blocks the next pass restores: the newest step every rank of
    /// a pass stored, else the pass's own start; after the last pass,
    /// the final state's. `None` only before a fresh first pass.
    resume: Option<Vec<Block>>,
    plan: PassPlan,
    pub(super) policy: PolicyState,
    recoveries: Vec<RecoveryEvent>,
    /// Every layout shrink so far; the run is *degraded* from the first.
    retiles: Vec<RetileRecord>,
    passes: Vec<PassStat>,
    /// Every pass's writes so far, the report's `io` section.
    io: IoStats,
}

impl<'a> Supervisor<'a> {
    pub(super) fn setup(
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
        // Disk persistence: each pass's set writes every rank's owned
        // region into the shard directory at every checkpoint event,
        // overlapped with compute by the rank's writer thread.
        if let Some(dir) = &opts.ckpt_dir {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("creating checkpoint directory {}: {e}", dir.display()))?;
        }
        // The restart-onto-any-layout path: a serial-format checkpoint from
        // *any* producer (serial run, any tile layout) becomes the blocks
        // of a 1×1 set, restored exactly like a rollback's.
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
            resume: opts.resume_from.as_ref().map(checkpoint_blocks),
            plan: PassPlan {
                steps,
                sample_every,
                checkpoint_every: opts.checkpoint_every,
                health: opts.health,
                dt_scale: 1.0,
                dt_inject: opts.dt_inject,
                counters: opts.obs.counters,
                metrics: opts.obs.metrics_hub.clone(),
                // Built here, so a bad rules file fails the launch.
                science: ScienceTelemetry::from_opts(&opts.obs, false)?,
            },
            policy: PolicyState::new(opts, pth, pph),
            recoveries: Vec::new(),
            retiles: Vec::new(),
            passes: Vec::new(),
            io: IoStats::default(),
        })
    }

    /// Run the rank program once, on the current layout and surviving
    /// nodes, from the last good blocks; classify how it ended.
    pub(super) fn run_pass(&mut self) -> Result<Pass, String> {
        self.policy.pass += 1;
        let (pth, pph) = self.policy.layout;
        let nprocs = 2 * pth * pph;
        let node_map: Vec<usize> = self.policy.survivors[..nprocs].to_vec();
        let decomp = Decomp2D::new(pth, pph, &self.grid);
        let resume = self.resume.take();
        let start_step = resume.as_ref().map_or(0, |blocks| blocks[0].0.step);
        let sup = SupervisedOpts {
            fault: self.fault.clone(),
            deadline: self.opts.deadline,
            recorders: self.recorders.clone(),
            nodes: Some(node_map.clone()),
        };
        let started = Instant::now();
        let disk = self.opts.ckpt_dir.clone().map(|dir| (dir, self.opts.ckpt_compress));
        let (cfg, plan, set) = (self.cfg, &self.plan, ShardSet::new(nprocs, disk));
        let results = Universe::run_supervised(nprocs, sup, |world| {
            rank_program(cfg, world, &decomp, plan, resume.as_deref(), Some(&set))
        });

        // A rank failure (kill, comm error, panic) outranks a graceful
        // health Err: health returns are collective, so they only decide
        // the outcome when every rank survived. Among rank failures the
        // root cause is blamed, not the peer deaths it cascades into.
        let mut failures = Vec::new();
        let mut unhealthy = None;
        let mut report = None;
        for r in results {
            match r {
                Ok(Ok(rep)) => report = report.or(rep),
                Ok(Err(verdict)) => unhealthy = Some(verdict),
                Err(f) => failures.push(f),
            }
        }
        let outcome = match (root_cause(&failures), unhealthy) {
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
        // The pass boundary merges nothing: the next pass (or `finish`)
        // takes the newest complete step's blocks as they are.
        let (newest, io) = set.drain();
        self.io.add(&io);
        self.resume = newest.or(resume);
        let resume_step = self.resume.as_ref().map_or(start_step, |blocks| blocks[0].0.step);
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
    pub(super) fn apply(&mut self, action: Action, pass: &Pass) -> Result<bool, String> {
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
            // widen the checkpoint cadence (each event's pack and shard
            // write now fall on fewer ranks) and flag the run.
            let every = self.plan.checkpoint_every.saturating_mul(2);
            self.plan.checkpoint_every = every;
            if let Some(set) = &self.recorders {
                set.record_all(Event::Degraded { pass: n as u64, checkpoint_every: every });
            }
        }
        Ok(false)
    }

    /// Assemble the report of a completed run: the final pass's report
    /// plus the post-run diagnosis, the trace and the supervisor's own
    /// record, the run's `io` total among it, and the run's one merge,
    /// the final checkpoint.
    pub(super) fn finish(mut self, pass: Pass) -> Result<SupervisedReport, String> {
        let rep = pass.report.ok_or("rank 0 produced no report")?;
        // The blocks go at the end of the statement, so the rest of the
        // report is built beside one copy of the final state, not two.
        let final_checkpoint =
            merge_blocks(&self.grid, &self.resume.take().ok_or("the run stored no final state")?)
                .map_err(|e| format!("assembling the final checkpoint: {e}"))?;
        let predicted_imbalance = pass.decomp.predicted_imbalance();
        let achieved_imbalance = rep.achieved_imbalance;
        let mut report = rep.report;
        report.io = self.io;
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
