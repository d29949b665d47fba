//! The rank program: the one RK4 step loop every driver runs, the
//! per-pass plan it is told, the collective verdict ([`agree`]) that
//! keeps its early returns matched, and the per-rank shard emitter.

use super::solver::RankSolver;
use super::ParallelReport;
use crate::checkpoint::Checkpoint;
use crate::config::RunConfig;
use crate::health::{HealthGuard, HealthLimits};
use crate::output::{shard_file_name, Block, CkptCodec, OutputStage, ShardSet};
use crate::report::{IoStats, TimeSeriesPoint};
use crate::telemetry::{DtInject, ScienceTelemetry};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;
use yy_mesh::Decomp2D;
use yy_mhd::State;
use yy_obs::counters::{CounterSnapshot, Kernel, KernelTally};
use yy_obs::{prometheus_text, science_gauges_text, Event, MetricsHub};
use yy_parcomm::stats::SolverPhase;
use yy_parcomm::{Comm, ReduceOp};

/// What every rank of one pass is told. Rank-uniform by construction —
/// decided once, by the caller — so the collectives these settings
/// gate stay matched.
pub(super) struct PassPlan {
    /// Absolute step number the run ends at.
    pub(super) steps: u64,
    pub(super) sample_every: u64,
    /// Capture a checkpoint every this many steps (0 = only the ends).
    pub(super) checkpoint_every: u64,
    pub(super) health: HealthLimits,
    /// Scale on the CFL step (halved by each health rollback).
    pub(super) dt_scale: f64,
    pub(super) dt_inject: Option<DtInject>,
    /// Arm the per-kernel counters.
    pub(super) counters: bool,
    pub(super) metrics: Option<Arc<MetricsHub>>,
    /// Write this rank's owned region at every checkpoint event.
    pub(super) shards: Option<ShardCfg>,
    /// Armed science telemetry, never fed: rank 0 of every pass feeds a
    /// fresh clone at its samples. It only reads the series, so armed
    /// runs stay bit-identical to unarmed ones.
    pub(super) science: Option<ScienceTelemetry>,
}

/// Rank 0's feed of one just-taken sample: the watchdog sees it with
/// this rank's own step wall, and each alert edge enters the flight
/// recorder as it fires.
fn feed(tel: &mut ScienceTelemetry, world: &Comm, point: &TimeSeriesPoint, step_wall_ms: f64) {
    for a in tel.record(point, step_wall_ms, None) {
        let (kind, firing, step) = (a.kind, a.firing, a.step);
        world.record_event(Event::Alert { rule: a.rule_index as u32, kind, firing, step });
    }
}

/// Collective verdict: `Ok` on every rank, or — when any rank brings a
/// complaint — the lowest complaining rank's message as `Err` on every
/// rank, so all of them return together and whichever `Err` the caller
/// reads names the rank that saw the problem. The message travels as its
/// UTF-8 bytes, one `f64` per byte.
fn agree(world: &Comm, complaint: Option<String>) -> Result<(), String> {
    let me = if complaint.is_some() { world.rank() } else { world.size() };
    let first = world.allreduce_f64(me as f64, ReduceOp::Min) as usize;
    if first == world.size() {
        return Ok(());
    }
    let bytes = complaint.map_or(Vec::new(), |c| c.bytes().map(f64::from).collect());
    let text: Vec<u8> = world.broadcast(first, bytes).into_iter().map(|b| b as u8).collect();
    Err(String::from_utf8_lossy(&text).into_owned())
}

/// The rank program: one RK4 step loop for every driver. Returns `Err`
/// (the same on every rank, via [`agree`]) for graceful solver-health
/// violations and shard-write failures; comm failures and injected
/// kills surface as panics that [`yy_parcomm::Universe::run_supervised`] converts
/// to [`yy_parcomm::RankFailure`].
///
/// `set`, when given, receives this rank's owned block of the initial
/// state (fresh passes), of every `plan.checkpoint_every`-th step and of
/// the final state; `plan.shards` (which needs `set`) adds this rank's
/// shard file of the same blocks. Either is local to the rank: an event
/// sends nothing.
pub(super) fn rank_program(
    cfg: &RunConfig,
    world: Comm,
    decomp: &Decomp2D,
    plan: &PassPlan,
    resume: Option<&Checkpoint>,
    set: Option<&ShardSet>,
) -> Result<Option<ParallelReport>, String> {
    // Shards are written from the blocks the set holds.
    assert!(plan.shards.is_none() || set.is_some(), "a pass writing shards needs a shard set");
    let (mut solver, mut state) = RankSolver::new(cfg, &world, decomp, plan.counters);
    let mut emitter = plan.shards.as_ref().map(ShardEmitter::new);
    let mut dt_cache = match resume {
        Some(ck) => {
            solver.restore_tile(&mut state, ck);
            ck.dt_cache
        }
        None => 0.0,
    };
    solver.sync(&mut state, None);
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
    // Rank 0 keeps the series, so it alone feeds the watchdog, from a
    // fresh copy each pass as the series starts fresh.
    let mut science = plan.science.as_ref().filter(|_| world.rank() == 0).cloned();
    let mut step_wall_ms = 0.0;

    // A fresh pass stores the initial state so even a failure before
    // the first periodic event can recover. `stored` is the step of this
    // pass's last event (the same on every rank).
    let mut stored = None;
    if resume.is_none() {
        solver.checkpoint(&state, dt_cache, set, emitter.as_mut());
        stored = Some(solver.step);
    }

    // Open the counter measurement window at loop entry (setup, restore
    // and the initial sync are bookkeeping, not stepping).
    solver.meter.reset();
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
        step_wall_ms = step_started.elapsed().as_secs_f64() * 1e3;
        let scan_t0 = solver.meter.timer();
        let local = guard.check_state(&state);
        {
            let sh = state.shape();
            let tally = crate::health::scan_tally((sh.nth * sh.nph) as u64, sh.nr as u64);
            solver.meter.kernel_timed(Kernel::HealthScan, tally, scan_t0);
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
            if let (Some(tel), Some(point)) = (science.as_mut(), series.last()) {
                feed(tel, &world, point, step_wall_ms);
            }
        }
        if plan.checkpoint_every > 0
            && solver.step % plan.checkpoint_every == 0
            && solver.step < plan.steps
        {
            solver.checkpoint(&state, dt_cache, set, emitter.as_mut());
            stored = Some(solver.step);
        }
        // Live metrics, every step: allreduce the counter words (a
        // collective every rank joins — the gate is rank-uniform) and let
        // rank 0 render the exposition into the hub for the endpoint
        // thread to serve. The per-phase ns words ride the same allreduce.
        if let Some(hub) = &plan.metrics {
            let mut words = solver.meter.counters().snapshot().to_f64s();
            let nwords = words.len();
            words.extend(world.stats().phase_ns.map(|ns| ns as f64));
            let merged = world.allreduce_vec(&words, ReduceOp::Sum);
            if world.rank() == 0 {
                let mut body = prometheus_text(
                    &CounterSnapshot::from_f64s(&merged[..nwords]),
                    solver.step,
                    world.stats().max_queue_depth,
                    &std::array::from_fn(|p| merged[nwords + p] / 1e9),
                );
                if let Some(tel) = &science {
                    body.push_str(&science_gauges_text(&tel.gauges()));
                }
                hub.publish(body);
            }
        }
    }
    // Final sample (every rank joins the collective; rank 0 records only
    // if the last loop iteration did not already sample this step).
    let d = solver.reduce_diag(&state);
    if world.rank() == 0 && series.last().map(|p| p.step) != Some(solver.step) {
        let point = TimeSeriesPoint { step: solver.step, time: solver.time, dt: dt_cache, diag: d };
        if let Some(tel) = science.as_mut() {
            feed(tel, &world, &point, step_wall_ms);
        }
        series.push(point);
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

    // Final event + writer drain *before* the counter aggregation, so
    // the writer_wait phase and the IO totals are complete. A pass that
    // advanced no step already stored this one. The drain is local; the
    // error verdict is collective (presence of `shards` is rank-uniform),
    // so every rank returns together on a write failure.
    if stored != Some(solver.step) {
        solver.checkpoint(&state, dt_cache, set, emitter.as_mut());
    }
    let io = match emitter {
        Some(em) => {
            world.record_phase_ns(SolverPhase::WriterWait, em.stage.flush());
            let ShardEmitter { stage, codec, .. } = em;
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
                codec: codec.name().to_string(),
                ..IoStats::default()
            }
        }
        None => IoStats::default(),
    };
    let mut report = solver.aggregate_counters();
    let achieved_imbalance = solver.achieved_imbalance();
    if world.rank() != 0 {
        return Ok(None);
    }
    report.time = solver.time;
    report.steps = plan.steps;
    report.wall_seconds = started.elapsed().as_secs_f64();
    report.grid_points = solver.grid.total_points();
    report.io = io;
    report.series = series;
    if let Some(tel) = science {
        report.alerts = tel.alerts().to_vec();
        report.telemetry = Some(tel.store().to_json());
    }
    Ok(Some(ParallelReport { report, yin: None, yang: None, achieved_imbalance }))
}

/// Output-pipeline configuration the supervisor hands every rank.
pub(super) struct ShardCfg {
    pub(super) dir: PathBuf,
    pub(super) codec: CkptCodec,
}

/// Per-rank shard emitter: hands each block the in-memory set stores
/// to the [`OutputStage`], whose writer thread does the delta/RLE
/// encoding and the file write from that one copy — so the step path
/// pays only for the pack plus any wait for the writer to release the
/// buffer the next store reuses.
pub(super) struct ShardEmitter {
    pub(super) stage: OutputStage,
    dir: PathBuf,
    codec: CkptCodec,
}

impl ShardEmitter {
    fn new(cfg: &ShardCfg) -> ShardEmitter {
        ShardEmitter {
            stage: OutputStage::new(true),
            dir: cfg.dir.clone(),
            codec: cfg.codec,
        }
    }

    /// Submit the shard of the block just stored. Purely local (no
    /// collectives — a peer death cannot strand it); `wait_ns`, the
    /// store's wait for its buffer, is charged to the `writer_wait`
    /// phase, and the store's pack since `t0` to the `output` kernel slot.
    pub(super) fn emit(
        &mut self,
        solver: &mut RankSolver,
        (meta, raw): Block,
        wait_ns: u64,
        t0: Option<Instant>,
    ) {
        let raw_len = raw.len() as u64;
        let path = self.dir.join(shard_file_name(meta.step, solver.world.rank()));
        let wait_ns = wait_ns + self.stage.submit_shard(path, raw, meta, self.codec);
        solver.world.record_phase_ns(SolverPhase::WriterWait, wait_ns);
        // Producer-side tally: the pack traffic. The encoded size is
        // not known here (the consumer compresses later); the on-disk
        // byte totals live in the report's `io` section instead.
        solver.meter.kernel_timed(Kernel::Output, KernelTally::copy(raw_len / 8, 8, 1), t0);
    }
}
