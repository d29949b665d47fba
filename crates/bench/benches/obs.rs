//! Observability overhead guard: a multi-rank supervised step in four
//! instrumentation configurations —
//!
//! * `off`      — no recorders installed (`TraceMode::Off`), per-kernel
//!   counters disarmed; probe calls hit a `None` / one relaxed load
//! * `disabled` — recorders installed but not armed
//!   (`TraceMode::Disabled`); the enabled-flag fast path
//! * `enabled`  — recorders armed (`TraceMode::Enabled`); every span,
//!   message and step event lands in the per-rank ring, and the
//!   supervisor runs the doctor's critical-path analysis on the rings
//!   at the end of the run — this row is the analyzed-run cost
//! * `counters` — no recorders, per-kernel performance counters armed:
//!   every kernel site tallies points/flops/bytes and reads the clock
//! * `sampled`  — no recorders, diagnostics sampled every step
//!   (`sample_every=1`): the cost of the physics reductions alone
//! * `series`   — `sampled` plus the science-telemetry layer armed
//!   (`ObsOpts::series`): the series store and the watchdog fed from
//!   every sample. Gated against `sampled`, which isolates the
//!   telemetry cost from the reduction cost it rides on.
//!
//! CI gates on `disabled / off`, `counters / off` AND
//! `series / sampled`: an idle recorder, the armed counter subsystem,
//! and the armed science telemetry must each cost < 2% of a step
//! (tolerance overridable via `YY_CI_OBS_TOL`). The `enabled` row is
//! informational — recording is opt-in per run.
//!
//! With `BENCH_OBS_JSON=<path>` set, writes a machine-readable summary.
//!
//! Knobs: `YY_BENCH_OBS_GRID` (small|medium), `YY_BENCH_OBS_STEPS`,
//! `YY_BENCH_OBS_REPS`, `YY_BENCH_OBS_PTH`/`YY_BENCH_OBS_PPH`.
//!
//! Run with: `cargo bench -p yy-bench --bench obs`

use std::time::Duration;
use yycore::parallel::{run_parallel_supervised, RecoveryOpts};
use yycore::{ObsOpts, RunConfig, TraceMode};

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

fn decomp() -> (usize, usize) {
    (env_u64("YY_BENCH_OBS_PTH", 1) as usize, env_u64("YY_BENCH_OBS_PPH", 2) as usize)
}

fn cfg() -> RunConfig {
    let mut cfg = match std::env::var("YY_BENCH_OBS_GRID").as_deref() {
        Ok("medium") => RunConfig::medium(),
        _ => RunConfig::small(),
    };
    cfg.init.perturb_amplitude = 1e-2;
    cfg
}

fn mode_opts(mode: TraceMode, counters: bool) -> ObsOpts {
    ObsOpts { mode, counters, ..ObsOpts::default() }
}

/// Seconds per step of one supervised run with the given observability
/// options, plus the final run report. Setup (universe spawn, init,
/// initial sync) is excluded — `RunReport.wall_seconds` starts after
/// it. No trace path is set, so even `enabled` measures pure
/// recording + analysis cost, not file I/O.
fn measure(
    cfg: &RunConfig,
    obs: ObsOpts,
    steps: u64,
    sample: u64,
) -> (f64, yycore::RunReport) {
    let (pth, pph) = decomp();
    let opts = RecoveryOpts {
        deadline: Duration::from_secs(120),
        obs,
        ..RecoveryOpts::default()
    };
    let rep = run_parallel_supervised(cfg, pth, pph, steps, sample, &opts)
        .expect("obs bench run completes");
    (rep.report.wall_seconds / steps as f64, rep.report)
}

fn main() {
    let cfg = cfg();
    let steps = env_u64("YY_BENCH_OBS_STEPS", 8);
    let reps = env_u64("YY_BENCH_OBS_REPS", 5) as usize;
    let (pth, pph) = decomp();

    // Interleave the modes rep by rep so host drift lands on all
    // sides; gate on per-mode minima — the minimum is the least noisy
    // estimator of the true cost on a shared box.
    let (mut off, mut dis, mut ena, mut ctr, mut smp, mut ser) = (
        Vec::with_capacity(reps),
        Vec::with_capacity(reps),
        Vec::with_capacity(reps),
        Vec::with_capacity(reps),
        Vec::with_capacity(reps),
        Vec::with_capacity(reps),
    );
    let mut analysis = yy_obs::Analysis::default();
    for _ in 0..reps {
        off.push(measure(&cfg, mode_opts(TraceMode::Off, false), steps, 0).0);
        dis.push(measure(&cfg, mode_opts(TraceMode::Disabled, false), steps, 0).0);
        let (t, report) = measure(&cfg, mode_opts(TraceMode::Enabled, false), steps, 0);
        ena.push(t);
        analysis = report.analysis;
        ctr.push(measure(&cfg, mode_opts(TraceMode::Off, true), steps, 0).0);
        // The series pair samples diagnostics every step: `sampled` is
        // the reduction cost alone, `series` adds the armed telemetry.
        smp.push(measure(&cfg, mode_opts(TraceMode::Off, false), steps, 1).0);
        let telemetry = ObsOpts { series: true, ..mode_opts(TraceMode::Off, false) };
        let (t, report) = measure(&cfg, telemetry, steps, 1);
        ser.push(t);
        assert!(report.telemetry.is_some(), "armed bench run recorded no series store");
        assert!(report.alerts.is_empty(), "clean bench run fired {:?}", report.alerts);
    }
    let min = |xs: &[f64]| xs.iter().copied().fold(f64::INFINITY, f64::min);
    let (t_off, t_dis, t_ena, t_ctr) = (min(&off), min(&dis), min(&ena), min(&ctr));
    let (t_smp, t_ser) = (min(&smp), min(&ser));
    let (r_dis, r_ena, r_ctr) = (t_dis / t_off, t_ena / t_off, t_ctr / t_off);
    let (r_smp, r_ser, r_ser_smp) = (t_smp / t_off, t_ser / t_off, t_ser / t_smp);

    println!("obs_overhead/off_{pth}x{pph}          {:>12.2} µs/step", t_off * 1e6);
    println!(
        "obs_overhead/disabled_{pth}x{pph}     {:>12.2} µs/step  x{r_dis:.4} vs off",
        t_dis * 1e6
    );
    println!(
        "obs_overhead/enabled_{pth}x{pph}      {:>12.2} µs/step  x{r_ena:.4} vs off",
        t_ena * 1e6
    );
    println!(
        "obs_overhead/counters_{pth}x{pph}     {:>12.2} µs/step  x{r_ctr:.4} vs off",
        t_ctr * 1e6
    );
    println!(
        "obs_overhead/sampled_{pth}x{pph}      {:>12.2} µs/step  x{r_smp:.4} vs off",
        t_smp * 1e6
    );
    println!(
        "obs_overhead/series_{pth}x{pph}       {:>12.2} µs/step  x{r_ser_smp:.4} vs sampled",
        t_ser * 1e6
    );
    // The enabled run is an analyzed run: the supervisor's doctor hook
    // must have produced a verdict from the armed rings.
    assert!(analysis.steps_analyzed > 0, "armed bench run produced no analysis");
    println!("obs_overhead/enabled verdict: {}", analysis.verdict);

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"obs\",\n",
            "  \"steps\": {},\n",
            "  \"reps\": {},\n",
            "  \"decomp\": [{}, {}],\n",
            "  \"off\": {{ \"min_ns_per_step\": {:.0} }},\n",
            "  \"disabled\": {{ \"min_ns_per_step\": {:.0}, \"ratio_vs_off\": {:.4} }},\n",
            "  \"enabled\": {{ \"min_ns_per_step\": {:.0}, \"ratio_vs_off\": {:.4} }},\n",
            // New rows stay BELOW `counters`: ci.sh extracts the gated
            // ratios positionally (1=disabled, 2=enabled, 3=counters).
            "  \"counters\": {{ \"min_ns_per_step\": {:.0}, \"ratio_vs_off\": {:.4} }},\n",
            "  \"sampled\": {{ \"min_ns_per_step\": {:.0}, \"ratio_vs_off\": {:.4} }},\n",
            "  \"series\": {{ \"min_ns_per_step\": {:.0}, \"ratio_vs_off\": {:.4}, ",
            "\"ratio_vs_sampled\": {:.4} }},\n",
            "  \"analysis_verdict\": \"{}\"\n",
            "}}\n"
        ),
        steps,
        reps,
        pth,
        pph,
        t_off * 1e9,
        t_dis * 1e9,
        r_dis,
        t_ena * 1e9,
        r_ena,
        t_ctr * 1e9,
        r_ctr,
        t_smp * 1e9,
        r_smp,
        t_ser * 1e9,
        r_ser,
        r_ser_smp,
        analysis.verdict.replace('"', "'"),
    );
    if let Ok(path) = std::env::var("BENCH_OBS_JSON") {
        std::fs::write(&path, &json).expect("write BENCH_obs.json");
        println!("wrote {path}");
    }
}
