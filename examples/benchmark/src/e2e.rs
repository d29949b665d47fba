//! The end-to-end run of one workload: set-up probes, warm-up, timed
//! segments measured from outside the public driver call, then
//! verification of every segment against the other driver and the
//! golden file.

use crate::golden::{Golden, GoldenEntry};
use crate::machine::{RefStencil, REF_NOMINAL_S_PER_POINT};
use crate::spec::{Driver, Workload};
use crate::stats::{percentile, quartiles};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use yy_mhd::{Diagnostics, State};
use yycore::checkpoint::Checkpoint;
use yycore::{
    merge_shards, run_parallel, run_parallel_supervised, CkptCodec, RecoveryOpts, RunConfig,
    SerialSim,
};

/// Relative agreement demanded between the two drivers' diagnostics and
/// against the golden file.
pub const DIAG_TOLERANCE: f64 = 1e-9;

/// Fresh constructions timed for `setup_s` (fewer only when the time
/// cap is hit first).
const SETUP_REPEATS: usize = 41;
const MIN_SETUP_REPEATS: usize = 7;
const SETUP_TIME_CAP: Duration = Duration::from_secs(2);
const WARMUP_SEGMENTS: usize = 2;
const MIN_SEGMENTS: usize = 5;

/// What one timed segment produced.
struct Segment {
    wall_s: f64,
    /// The yardstick's cost around the driver call: the mean of the
    /// probes just before and just after it.
    yard: f64,
    restore_s: f64,
    /// Final (kinetic, magnetic, thermal, mass) and the initial mass, or
    /// why the segment failed.
    result: Result<(Diagnostics, f64), String>,
}

/// The summary of one end-to-end run.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    /// One entry per end-to-end metric, in `spec::END_TO_END` order:
    /// the reported value and the wall-clock samples behind it.
    pub metrics: Vec<(f64, Vec<f64>)>,
    /// Every probe of the reference stencil, in seconds per point update.
    pub ref_probes: Vec<f64>,
    /// The diagnostics every segment agreed on (golden regeneration).
    pub entry: Option<GoldenEntry>,
}

fn checkpoint_bytes(ck: &Checkpoint) -> Vec<u8> {
    let mut bytes = Vec::new();
    ck.write_to(&mut bytes)
        .expect("writing to a Vec cannot fail");
    bytes
}

fn rel_close(a: f64, b: f64, tol: f64) -> bool {
    a.is_finite() && b.is_finite() && (a - b).abs() <= tol * a.abs().max(b.abs())
}

fn diag_close(a: &Diagnostics, b: &Diagnostics) -> bool {
    rel_close(a.kinetic, b.kinetic, DIAG_TOLERANCE)
        && rel_close(a.magnetic, b.magnetic, DIAG_TOLERANCE)
        && rel_close(a.thermal, b.thermal, DIAG_TOLERANCE)
        && rel_close(a.mass, b.mass, DIAG_TOLERANCE)
}

/// Bitwise equality over the owned nodes (a gathered parallel panel
/// carries initialization values in its ghosts).
fn owned_equal(a: &State, b: &State) -> bool {
    let s = a.shape();
    s == b.shape()
        && a.arrays().into_iter().zip(b.arrays()).all(|(x, y)| {
            (0..s.nph as isize).all(|k| (0..s.nth as isize).all(|j| x.row(j, k) == y.row(j, k)))
        })
}

/// The workload's live state between segments.
enum Runner {
    Serial {
        sim: Box<SerialSim>,
        start: Box<Checkpoint>,
        restart_file: PathBuf,
    },
    Parallel {
        cfg: RunConfig,
        start: Box<Checkpoint>,
        restart_file: PathBuf,
    },
    Checkpointed {
        cfg: RunConfig,
        opts: Box<RecoveryOpts>,
        last_final: Vec<u8>,
    },
}

fn supervised_opts(dir: &Path) -> RecoveryOpts {
    RecoveryOpts {
        checkpoint_every: 2,
        ckpt_dir: Some(dir.to_path_buf()),
        ckpt_compress: CkptCodec::parse("delta").expect("delta is a codec name"),
        deadline: Duration::from_secs(120),
        ..RecoveryOpts::default()
    }
}

fn fresh_dir(dir: &Path) {
    std::fs::remove_dir_all(dir).ok();
    std::fs::create_dir_all(dir).expect("creating a scratch directory");
}

/// One fresh construction of the workload's driver, timed from outside.
fn setup_once(w: &Workload, cfg: &RunConfig, shard_dir: &Path) -> f64 {
    match w.driver {
        Driver::Serial => {
            let t = Instant::now();
            let sim = SerialSim::new(cfg.clone());
            let s = t.elapsed().as_secs_f64();
            drop(sim);
            s
        }
        Driver::Parallel => {
            let t = Instant::now();
            let rep = run_parallel(cfg, 1, 1, 0, 0, false);
            let s = t.elapsed().as_secs_f64();
            std::hint::black_box(rep.report.grid_points);
            s
        }
        Driver::Checkpointed => {
            fresh_dir(shard_dir);
            let opts = supervised_opts(shard_dir);
            let t = Instant::now();
            let rep = run_parallel_supervised(cfg, 1, 1, 0, 0, &opts);
            let s = t.elapsed().as_secs_f64();
            rep.expect("a 0-step supervised run completes");
            s
        }
    }
}

impl Runner {
    fn new(w: &Workload, cfg: &RunConfig, scratch: &Path) -> Runner {
        let restart_file = scratch.join("restart.ck");
        match w.driver {
            Driver::Serial => {
                let sim = Box::new(SerialSim::new(cfg.clone()));
                let start = Box::new(Checkpoint::capture(&sim));
                start.save(&restart_file).expect("saving the restart file");
                Runner::Serial {
                    sim,
                    start,
                    restart_file,
                }
            }
            Driver::Parallel => {
                let start = Box::new(Checkpoint::capture(&SerialSim::new(cfg.clone())));
                start.save(&restart_file).expect("saving the restart file");
                Runner::Parallel {
                    cfg: cfg.clone(),
                    start,
                    restart_file,
                }
            }
            Driver::Checkpointed => Runner::Checkpointed {
                cfg: cfg.clone(),
                opts: Box::new(supervised_opts(&scratch.join("shards"))),
                last_final: Vec::new(),
            },
        }
    }

    /// One timed segment of `steps` steps plus one timed restore. Only
    /// the two public calls sit inside the timed windows; rewinding,
    /// directory clean-up, the yardstick's probes and the byte
    /// comparisons are outside.
    fn segment(&mut self, steps: u64, yardstick: &mut Yardstick) -> Segment {
        match self {
            Runner::Serial {
                sim,
                start,
                restart_file,
            } => {
                start.restore(sim);
                let before = yardstick.probe();
                let (wall_s, rep) = timed_call("SerialSim::run", || sim.run(steps, 0));
                let yard = 0.5 * (before + yardstick.probe());
                let result = rep.and_then(|rep| series_result(&rep, steps));
                with_reload(wall_s, yard, result, restart_file, start)
            }
            Runner::Parallel {
                cfg,
                start,
                restart_file,
            } => {
                let before = yardstick.probe();
                let (wall_s, rep) =
                    timed_call("run_parallel", || run_parallel(cfg, 1, 1, steps, 0, false));
                let yard = 0.5 * (before + yardstick.probe());
                let result = rep.and_then(|rep| series_result(&rep.report, steps));
                with_reload(wall_s, yard, result, restart_file, start)
            }
            Runner::Checkpointed {
                cfg,
                opts,
                last_final,
            } => {
                let dir = opts.ckpt_dir.clone().expect("the workload writes shards");
                fresh_dir(&dir);
                let before = yardstick.probe();
                let (wall_s, rep) = timed_call("run_parallel_supervised", || {
                    run_parallel_supervised(cfg, 1, 1, steps, 0, opts)
                });
                let yard = 0.5 * (before + yardstick.probe());
                let (restore_s, merged) =
                    timed_call("merge_shards", || merge_shards(cfg, &dir, None));
                let result = rep.and_then(|sup| {
                    let sup = sup.map_err(|e| format!("run_parallel_supervised: {e}"))?;
                    if !sup.recoveries.is_empty() {
                        return Err(format!("{} unexpected recoveries", sup.recoveries.len()));
                    }
                    let r = series_result(&sup.report, steps)?;
                    *last_final = checkpoint_bytes(&sup.final_checkpoint);
                    let merged = merged?.map_err(|e| format!("merge_shards: {e}"))?;
                    if merged.step != steps {
                        return Err(format!(
                            "newest shard set is step {}, not {steps}",
                            merged.step
                        ));
                    }
                    if checkpoint_bytes(&merged) != *last_final {
                        return Err("merged shards differ from the final checkpoint".to_string());
                    }
                    Ok(r)
                });
                Segment {
                    wall_s,
                    yard,
                    restore_s,
                    result,
                }
            }
        }
    }

    /// Check what every segment agreed on against the *other* driver:
    /// serial segments against a gathered 1×1 parallel run, parallel
    /// ones against a serial run of the same steps.
    fn cross_check(&self, steps: u64, agreed: &Diagnostics) -> Result<(), String> {
        let serial_run = |cfg: &RunConfig| {
            let mut serial = SerialSim::new(cfg.clone());
            let diag = final_diag(&serial.run(steps, 0));
            (serial, diag)
        };
        let other = match self {
            Runner::Serial { sim, .. } => gathered_matches(&sim.cfg, steps, &sim.yin, &sim.yang)?,
            Runner::Parallel { cfg, .. } => {
                let (serial, diag) = serial_run(cfg);
                gathered_matches(cfg, steps, &serial.yin, &serial.yang)?;
                diag
            }
            Runner::Checkpointed {
                cfg, last_final, ..
            } => {
                let (serial, diag) = serial_run(cfg);
                if checkpoint_bytes(&Checkpoint::capture(&serial)) != *last_final {
                    return Err("final checkpoint differs bytewise from SerialSim's".into());
                }
                diag
            }
        };
        if diag_close(agreed, &other) {
            Ok(())
        } else {
            Err(format!("{agreed:?} against the other driver's {other:?}"))
        }
    }
}

/// Time `f` from outside; a panic inside it becomes an error.
fn timed_call<R>(what: &str, f: impl FnOnce() -> R) -> (f64, Result<R, String>) {
    let t = Instant::now();
    let r = catch_unwind(AssertUnwindSafe(f));
    (
        t.elapsed().as_secs_f64(),
        r.map_err(|_| format!("{what} panicked")),
    )
}

/// Finish a segment of a workload that writes no shards: time
/// `Checkpoint::load` of its restart file and demand that it reads back
/// equal to the state it was saved from.
fn with_reload(
    wall_s: f64,
    yard: f64,
    result: Result<(Diagnostics, f64), String>,
    restart_file: &Path,
    saved: &Checkpoint,
) -> Segment {
    let (restore_s, loaded) = timed_call("Checkpoint::load", || Checkpoint::load(restart_file));
    let result = result.and_then(|r| match loaded? {
        Ok(ck) if ck == *saved => Ok(r),
        Ok(_) => Err("restart file does not read back equal".to_string()),
        Err(e) => Err(format!("Checkpoint::load: {e}")),
    });
    Segment {
        wall_s,
        yard,
        restore_s,
        result,
    }
}

/// Run the gathered 1×1 parallel driver and demand that its owned nodes
/// equal `yin` / `yang` bitwise; returns its final diagnostics.
fn gathered_matches(
    cfg: &RunConfig,
    steps: u64,
    yin: &State,
    yang: &State,
) -> Result<Diagnostics, String> {
    let par = run_parallel(cfg, 1, 1, steps, 0, true);
    let (par_yin, par_yang) = (
        par.yin.expect("gathered yin"),
        par.yang.expect("gathered yang"),
    );
    if owned_equal(yin, &par_yin) && owned_equal(yang, &par_yang) {
        Ok(final_diag(&par.report))
    } else {
        Err("serial and gathered parallel states differ bitwise".into())
    }
}

fn final_diag(report: &yycore::RunReport) -> Diagnostics {
    report.series[report.series.len() - 1].diag
}

/// Final diagnostics and initial mass of a driver's report, provided it
/// advanced exactly `steps` steps.
fn series_result(report: &yycore::RunReport, steps: u64) -> Result<(Diagnostics, f64), String> {
    match (report.series.first(), report.series.last()) {
        (Some(first), Some(last)) if last.step == steps => Ok((last.diag, first.diag.mass)),
        (_, Some(last)) => Err(format!("advanced {} steps, not {steps}", last.step)),
        _ => Err("empty diagnostic series".to_string()),
    }
}

/// Peak resident set of this process so far, in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("reading /proc/self/status");
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// Run workload `w` end to end: `seconds` of timed segments.
pub fn run(
    w: &Workload,
    seed: u64,
    seconds: f64,
    smoke: bool,
    scratch: &Path,
    golden: Option<&Golden>,
) -> Outcome {
    let cfg = w.config(seed, smoke);
    let steps = w.steps(smoke);
    let points = cfg.grid().total_points() as f64;
    let shard_dir = scratch.join("setup_shards");

    let mut yardstick = Yardstick::new();

    // Set-up: fresh constructions, timed from outside.
    let setup_started = Instant::now();
    let mut setup = Vec::new();
    let repeats = if smoke { 3 } else { SETUP_REPEATS };
    while setup.len() < repeats
        && (setup.len() < MIN_SETUP_REPEATS || setup_started.elapsed() < SETUP_TIME_CAP)
    {
        setup.push(setup_once(w, &cfg, &shard_dir));
    }

    let mut runner = Runner::new(w, &cfg, scratch);
    let warmups = if smoke { 1 } else { WARMUP_SEGMENTS };
    for _ in 0..warmups {
        runner.segment(steps, &mut yardstick);
    }
    let min_segments = if smoke { 3 } else { MIN_SEGMENTS };
    let mut segments = Vec::new();
    let timed_started = Instant::now();
    while segments.len() < min_segments || timed_started.elapsed().as_secs_f64() < seconds {
        segments.push(runner.segment(steps, &mut yardstick));
        // The parallel drivers' set-up is thread spawn and join, whose
        // latency follows the host's scheduling from moment to moment, so
        // it is sampled once per segment as well, across the whole run.
        // Not for the serial workloads: a second `SerialSim` beside the
        // long-lived one would double `peak_rss_mib`.
        if !matches!(w.driver, Driver::Serial) {
            setup.push(setup_once(w, &cfg, &shard_dir));
        }
    }
    std::fs::remove_dir_all(&shard_dir).ok();
    // Read before verification builds its reference runs.
    let rss = peak_rss_mib();

    // Verification, outside every timed window. Every segment started
    // from the same state, so one reference serves them all.
    let mut problems = Vec::new();
    let agreed = segments
        .iter()
        .find_map(|s| s.result.as_ref().ok())
        .copied();
    let golden_entry = golden.and_then(|g| g.entry(w.name, smoke));
    let reference = match agreed {
        None => Err("no segment succeeded".to_string()),
        Some((diag, _)) => runner.cross_check(steps, &diag).and_then(|()| {
            match golden.filter(|g| g.seed == seed).map(|_| golden_entry) {
                None => Ok(diag),
                Some(Some(e)) if e.steps == steps && diag_close(&e.diagnostics(), &diag) => {
                    Ok(diag)
                }
                Some(Some(e)) => Err(format!("golden.json expects {e:?}, got {diag:?}")),
                Some(None) => Err(format!("golden.json has no entry for {}", w.name)),
            }
        }),
    };
    if let Err(e) = &reference {
        problems.push(format!("reference: {e}"));
    }
    let drift_bound = golden_entry.map(|e| 10.0 * e.mass_drift);
    let mut failed = 0u64;
    for (i, s) in segments.iter().enumerate() {
        let verdict = match (&s.result, &reference) {
            (Err(e), _) => Err(e.clone()),
            (Ok(_), Err(_)) => Err("reference check failed".to_string()),
            (Ok((diag, mass0)), Ok(agreed)) => {
                let drift = ((diag.mass - mass0) / mass0).abs();
                if !diag_close(diag, agreed) {
                    Err(format!(
                        "diagnostics {diag:?} differ from the first segment's"
                    ))
                } else if !(diag.max_speed.is_finite() && diag.max_b.is_finite()) {
                    Err("non-finite diagnostics".to_string())
                } else if drift_bound.is_some_and(|b| drift > b) {
                    Err(format!("mass drift {drift:.3e} above bound"))
                } else {
                    Ok(())
                }
            }
        };
        if let Err(e) = verdict {
            failed += 1;
            problems.push(format!("segment {i}: {e}"));
        }
    }

    // A failed segment contributes no time.
    let good = |f: fn(&Segment) -> f64| -> Vec<f64> {
        segments
            .iter()
            .filter(|s| s.result.is_ok())
            .map(f)
            .collect()
    };
    let ns_per_point_step: Vec<f64> = good(|s| s.wall_s)
        .iter()
        .map(|wall| wall * 1e9 / (steps as f64 * points))
        .collect();
    let yard = good(|s| s.yard);
    let restore = good(|s| s.restore_s);
    let entry = agreed.map(|(d, mass0)| GoldenEntry {
        steps,
        kinetic: d.kinetic,
        magnetic: d.magnetic,
        thermal: d.thermal,
        mass: d.mass,
        mass_drift: ((d.mass - mass0) / mass0).abs(),
    });
    Outcome {
        attempted: segments.len() as u64,
        failed,
        problems,
        metrics: vec![
            (on_host_clock(&ns_per_point_step, &yard), ns_per_point_step),
            (fastest(&setup), setup),
            (rss, vec![rss]),
            (fastest(&restore), restore),
        ],
        ref_probes: yardstick.probes,
        entry,
    }
}

/// The reference stencil, probed on both sides of every segment.
struct Yardstick {
    stencil: RefStencil,
    probes: Vec<f64>,
}

impl Yardstick {
    fn new() -> Yardstick {
        let mut yardstick = Yardstick {
            stencil: RefStencil::default(),
            probes: Vec::new(),
        };
        // The first probe loads the stencil's arrays and is not kept.
        yardstick.probe();
        yardstick.probes.clear();
        yardstick
    }

    fn probe(&mut self) -> f64 {
        let s = self.stencil.probe();
        self.probes.push(s);
        s
    }
}

/// The reported value of a compute-bound timing, on the clock of the
/// builder's quiet box: each sample in units of the reference stencil's
/// cost around it, the lower quartile of those, times the stencil's
/// nominal cost. NaN when every sample failed.
///
/// A neighbour on the shared host slows the solver and the stencil alike,
/// by up to 1.85x, for anything from a second to many minutes, with the
/// thread on the CPU throughout and no steal time reported. Wall-clock
/// minima of 20 s runs of the same code moved 30-100 % between runs;
/// binned by the stencil's own slowdown (1-2.5x) the ratio of a segment
/// to the stencil stays within 5 % (one thread) and 15 % (two). The
/// lower quartile rather than the median because the remaining error is
/// one-sided: the stencil runs on one core and cannot see the second
/// rank's core being slowed, nor a slow phase that begins and ends
/// inside one segment.
fn on_host_clock(samples: &[f64], yard: &[f64]) -> f64 {
    let ratios: Vec<f64> = samples.iter().zip(yard).map(|(s, y)| s / y).collect();
    REF_NOMINAL_S_PER_POINT
        * match ratios.len() {
            0 => f64::NAN,
            1 => ratios[0],
            _ => quartiles(&ratios)[0],
        }
}

/// The reported value of `setup_s` and `restore_s`: the fastest sample,
/// in plain wall time. Both are allocation, page-fault and file-read
/// bound, which the neighbour that slows the compute kernels leaves
/// nearly alone (their minima moved 2-4 % over runs in which the
/// stencil's median slowed up to 1.67x), so dividing by the stencil
/// would only add its noise; and the work is deterministic, so the
/// fastest of many samples estimates its own cost. NaN when every sample
/// failed.
fn fastest(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::NAN, f64::min)
}

/// Largest relative mass drift over one segment across `seeds` — the
/// value `golden.json` records, ten times which bounds every run. The
/// drift is truncation-level and depends on the noise realisation (by
/// more than 10× on the long-radial grid), so one seed's value is not a
/// safe basis for the bound. Serial runs suffice: the parallel drivers
/// reproduce them bitwise.
pub fn max_mass_drift(w: &Workload, smoke: bool, seeds: std::ops::RangeInclusive<u64>) -> f64 {
    seeds
        .map(|seed| {
            let rep = SerialSim::new(w.config(seed, smoke)).run(w.steps(smoke), 0);
            let (first, last) = (rep.series[0].diag.mass, final_diag(&rep).mass);
            ((last - first) / first).abs()
        })
        .fold(0.0, f64::max)
}

/// `n min p25/p50/p75 p90` of a sample, for the printed lines.
pub fn describe(samples: &[f64]) -> String {
    if samples.len() < 2 {
        return format!("n={}", samples.len());
    }
    let [q1, q2, q3] = quartiles(samples);
    format!(
        "n={} min={:.6} p25={q1:.6} p50={q2:.6} p75={q3:.6} p90={:.6}",
        samples.len(),
        fastest(samples),
        percentile(samples, 90.0)
    )
}
