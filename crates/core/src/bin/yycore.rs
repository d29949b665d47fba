//! `yycore` — command-line driver for the Yin-Yang geodynamo code.
//!
//! ```text
//! yycore run      [key=value ...]              run a serial simulation
//! yycore slice    <ckpt> [out_dir]             slices from a checkpoint
//! yycore parallel [key=value ...]              supervised parallel driver
//! yycore merge    <shard_dir> <out.ck> [k=v]   shards -> serial checkpoint
//! yycore tables                                Tables I-III and List 1
//! yycore doctor   [key=value ...]              read a trace or a report
//! yycore watch    <http://host:port> [k=v]     live telemetry dashboard
//! yycore help     [command]                    every key, or one command's
//! ```
//!
//! Every `key=value` setting is one row of the table in [`yycore::cli`];
//! see `yycore help`. This file is dispatch, file I/O and printing: the
//! formats it reads are parsed beside their writers in the libraries.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;
use yy_obs::event::Phase;
use yycore::checkpoint::Checkpoint;
use yycore::cli::{self, Args};
use yycore::output::{is_shard_dir, merge_shards};
use yycore::{run_parallel_supervised, RunConfig, RunReport, SerialSim};

type Cmd = fn(&[String]) -> Result<(), String>;

/// Subcommand dispatch table, name for name the [`cli::COMMANDS`]
/// synopsis (a test holds the two together).
const COMMANDS: [(&str, Cmd); 8] = [
    ("run", cmd_run),
    ("slice", cmd_slice),
    ("parallel", cmd_parallel),
    ("merge", cmd_merge),
    ("tables", cmd_tables),
    ("doctor", cmd_doctor),
    ("watch", cmd_watch),
    ("help", cmd_help),
];

/// The one-line usage string, generated from [`COMMANDS`].
fn usage() -> String {
    let names: Vec<&str> = COMMANDS.iter().map(|&(name, _)| name).collect();
    format!("usage: yycore <{}> [args]", names.join("|"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{}", usage());
        return ExitCode::from(2);
    };
    let rest = &args[1..];
    let result = match COMMANDS.iter().find(|&&(name, _)| name == cmd) {
        Some(&(_, run)) => run(rest),
        None => Err(format!("unknown command '{cmd}'\n{}", usage())),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}

fn cmd_help(args: &[String]) -> Result<(), String> {
    let text = cli::help(args.first().map(String::as_str))?;
    print!("{}\n\n{text}", usage());
    Ok(())
}

/// Read a whole file, naming it on failure.
fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))
}

/// Prefix an error with the artifact it came from.
fn at<T>(path: &Path, r: Result<T, String>) -> Result<T, String> {
    r.map_err(|e| format!("{}: {e}", path.display()))
}

/// Print every watchdog alert edge a run recorded, newest last.
fn print_alerts(report: &RunReport) {
    for a in &report.alerts {
        eprintln!(
            "watchdog {} ({}): {} at step {} (t = {:.5}, value {:.4e})",
            a.rule,
            a.kind.name(),
            if a.firing { "FIRED" } else { "cleared" },
            a.step,
            a.time,
            a.value
        );
    }
}

/// Write or print what every run leaves: the series CSV (stdout unless
/// `series=`), the report JSON, and on stderr the kernel roofline table
/// and the closing `done:` line.
fn finish(report: &RunReport, a: &Args) -> Result<(), String> {
    if let Some(path) = &a.series {
        std::fs::write(path, report.series_csv()).map_err(|e| format!("writing series: {e}"))?;
        eprintln!("wrote series to {}", path.display());
    } else {
        print!("{}", report.series_csv());
    }
    if let Some(path) = &a.report_json {
        std::fs::write(path, report.to_json())
            .map_err(|e| format!("writing report JSON: {e}"))?;
        eprintln!("wrote report JSON to {}", path.display());
    }
    eprint!("{}", report.kernels.roofline_text());
    eprintln!(
        "done: t = {:.5}, {} steps, {:.1} MFLOPS, {:.0} flops/point/step, rhs kernels: {}",
        report.time,
        report.steps,
        report.mflops(),
        report.flops_per_point_step(),
        a.cfg.rhs_kernels.label()
    );
    Ok(())
}

fn save_checkpoint(ck: &Checkpoint, a: &Args) -> Result<(), String> {
    if let Some(path) = &a.ckpt {
        ck.save(path).map_err(|e| format!("writing checkpoint: {e}"))?;
        eprintln!("wrote checkpoint to {}", path.display());
    }
    Ok(())
}

/// The checkpoint `resume=` names: the file itself, or the newest
/// complete shard set of a directory, merged. It must have the grid
/// the keys describe.
fn resume_checkpoint(a: &Args) -> Result<Option<Checkpoint>, String> {
    let Some(path) = &a.resume else {
        return Ok(None);
    };
    let ck = if is_shard_dir(path) {
        let ck = merge_shards(&a.cfg, path, None)
            .map_err(|e| format!("merging shards in {}: {e}", path.display()))?;
        eprintln!("merged shard set at step {} from {}", ck.step, path.display());
        ck
    } else {
        Checkpoint::load(path)
            .map_err(|e| format!("loading resume checkpoint {}: {e}", path.display()))?
    };
    let shape = a.cfg.grid().full_shape();
    if ck.shape != shape {
        return Err(format!(
            "resume checkpoint geometry {:?} does not match the run configuration {shape:?}; \
             pass the nr= nth= ext= it was written with",
            ck.shape
        ));
    }
    Ok(Some(ck))
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    let a = cli::parse("run", args)?;
    let grid = a.cfg.grid();
    eprintln!(
        "grid {}x{}x{}x2 = {} points; Ra-like {:.2e}, Ekman {:.2e}",
        a.cfg.nr,
        grid.dims().1,
        grid.dims().2,
        grid.total_points(),
        a.cfg.params.rayleigh(),
        a.cfg.params.ekman()
    );
    let mut sim = SerialSim::new(a.cfg.clone());
    if let Some(ck) = resume_checkpoint(&a)? {
        ck.restore(&mut sim);
        eprintln!("resumed at step {}, t = {:.5}", sim.step, sim.time);
    }
    // Telemetry and the dt-collapse injector are no-ops unless
    // `telemetry=1` / `dt_collapse_at=` armed them.
    sim.arm_telemetry(&a.recovery.obs)?;
    sim.dt_inject = a.recovery.dt_inject;
    // `steps=` is the step the run ends at, as in `parallel`.
    let report = sim.try_run(a.steps.saturating_sub(sim.step), a.sample)?;
    let b = sim.speed_breakdown();
    eprintln!(
        "signal speeds: flow {:.3e}, sound {:.3e}, alfven {:.3e}",
        b.flow, b.sound, b.alfven
    );
    save_checkpoint(&Checkpoint::capture(&sim), &a)?;
    print_alerts(&report);
    finish(&report, &a)
}

fn cmd_slice(args: &[String]) -> Result<(), String> {
    use yy_mesh::{Metric, Panel};
    use yycore::snapshots::*;
    let Some(path) = args.first() else {
        return Err("slice needs a checkpoint path".into());
    };
    let out_dir = PathBuf::from(args.get(1).map(String::as_str).unwrap_or("out"));
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("creating {}: {e}", out_dir.display()))?;
    // Reconstruct a config whose grid matches the checkpoint geometry:
    // nth owned = nominal + 2 ext, and `slice` takes no keys, so only a
    // default-ext checkpoint inverts.
    let ck = Checkpoint::load(Path::new(path)).map_err(|e| format!("loading {path}: {e}"))?;
    let mut cfg = RunConfig::small();
    cfg.nr = ck.shape.nr;
    let grid = ck.shape.nth.checked_sub(2 * cfg.ext).and_then(|nth| {
        cfg.nth_nominal = nth;
        cfg.check().ok()?;
        Some(cfg.grid()).filter(|g| g.full_shape() == ck.shape)
    });
    let Some(grid) = grid else {
        return Err(format!(
            "{path}: checkpoint geometry {:?} is not a grid of the default ext={}; slice takes \
             no ext= key and reads only checkpoints written with the default",
            ck.shape, cfg.ext
        ));
    };
    let metric = Metric::full(&grid);

    let t_yin = temperature(&ck.yin);
    let t_yang = temperature(&ck.yang);
    let eq_t = sample_equatorial(&t_yin, &t_yang, &grid, 512);
    equatorial_disk_ppm(&eq_t, &out_dir.join("slice_eq_t.ppm"), 512)
        .map_err(|e| format!("ppm: {e}"))?;
    std::fs::write(out_dir.join("slice_eq_t.csv"), eq_t.to_csv())
        .map_err(|e| format!("csv: {e}"))?;

    let wz_yin = axial_vorticity(&ck.yin, &grid, &metric, Panel::Yin);
    let wz_yang = axial_vorticity(&ck.yang, &grid, &metric, Panel::Yang);
    let eq_wz = sample_equatorial(&wz_yin, &wz_yang, &grid, 512);
    equatorial_disk_ppm(&eq_wz, &out_dir.join("slice_eq_wz.ppm"), 512)
        .map_err(|e| format!("ppm: {e}"))?;
    std::fs::write(out_dir.join("slice_eq_wz.csv"), eq_wz.to_csv())
        .map_err(|e| format!("csv: {e}"))?;

    let mer_t = sample_meridional(&t_yin, &t_yang, &grid, 512, 0.0);
    std::fs::write(out_dir.join("slice_mer_t.csv"), mer_t.to_csv())
        .map_err(|e| format!("csv: {e}"))?;

    let columns = count_convection_columns(eq_wz.mid_shell_ring(), 0.2);
    let mode = yy_mhd::spectra::dominant_mode(eq_wz.mid_shell_ring(), 40);
    println!(
        "step {} (t = {:.5}): {} vorticity columns (dominant azimuthal mode m = {})",
        ck.step, ck.time, columns, mode
    );
    println!("wrote slices to {}", out_dir.display());
    Ok(())
}

fn cmd_parallel(args: &[String]) -> Result<(), String> {
    let mut a = cli::parse("parallel", args)?;
    eprintln!("{} ranks: 2 panels x {}x{} tiles", 2 * a.pth * a.pph, a.pth, a.pph);
    // The CLI owns the metrics endpoint (the driver only publishes into
    // the hub); it serves until this command returns.
    let _metrics_server = match a.metrics_port {
        Some(port) => {
            let hub = Arc::new(yy_obs::MetricsHub::new());
            a.recovery.obs.metrics_hub = Some(Arc::clone(&hub));
            Some(
                yy_obs::MetricsServer::start(hub, port)
                    .map_err(|e| format!("binding metrics port {port}: {e}"))?,
            )
        }
        None => None,
    };
    a.recovery.resume_from = resume_checkpoint(&a)?;
    let sup = run_parallel_supervised(&a.cfg, a.pth, a.pph, a.steps, a.sample, &a.recovery)?;
    for ev in &sup.recoveries {
        eprintln!(
            "recovered: pass {} failed ({}); resumed from step {}",
            ev.pass, ev.cause, ev.resume_step
        );
    }
    let elastic = &sup.report.elastic;
    for rt in &elastic.retiles {
        eprintln!(
            "retiled: pass {} excluded node {}; {}x{} -> {}x{}, resumed from step {}",
            rt.pass, rt.excluded_node, rt.from.0, rt.from.1, rt.to.0, rt.to.1, rt.resume_step
        );
    }
    if elastic.degraded {
        eprintln!(
            "degraded mode: finished on {}x{} with {} node(s) excluded",
            elastic.final_pth,
            elastic.final_pph,
            elastic.excluded_nodes.len()
        );
    }
    eprintln!(
        "imbalance (max/mean): predicted {:.3}, achieved {:.3}",
        elastic.predicted_imbalance, elastic.achieved_imbalance
    );
    if let [first, .., last] = sup.passes.as_slice() {
        eprintln!(
            "pass rates: {}x{} {:.1} steps/s -> {}x{} {:.1} steps/s",
            first.pth,
            first.pph,
            first.steps_per_sec(),
            last.pth,
            last.pph,
            last.steps_per_sec()
        );
    }
    if sup.dt_scale != 1.0 {
        eprintln!("health guards reduced dt by x{}", sup.dt_scale);
    }
    save_checkpoint(&sup.final_checkpoint, &a)?;
    if let Some(path) = &a.recovery.obs.trace {
        eprintln!("wrote trace to {}", path.display());
    }
    eprintln!("max mailbox depth observed: {}", sup.report.max_queue_depth);
    let report = sup.report;
    eprintln!(
        "traffic: halo {} KiB, overset {} KiB",
        report.halo_bytes / 1024,
        report.overset_bytes / 1024
    );
    let p = &report.phases;
    if p.total_s() > 0.0 {
        let each = Phase::ALL.map(|ph| format!("{} {:.3}", ph.name(), p.get(ph)));
        eprintln!("phases (all-rank s): {}", each.join(", "));
        if report.io.shards_written > 0 {
            eprintln!(
                "io: {} shard(s), {} -> {} KiB (x{:.2} compression, {}), \
                 write wall {:.3}s, producer wait {:.3}s",
                report.io.shards_written,
                report.io.bytes_raw / 1024,
                report.io.bytes_written / 1024,
                report.io.compression_ratio(),
                report.io.codec,
                report.io.write_wall_s,
                p.get(Phase::WriterWait),
            );
        }
        // Feed the measured hidden fraction into the Earth Simulator
        // model: what the paper's flagship run would sustain if its
        // exchanges were hidden as well as this run's were.
        let hidden = p.hidden_comm_fraction();
        let proj = yy_esmodel::flagship_projection(hidden);
        eprintln!(
            "hidden comm fraction {:.2} -> ES 4096p projection: \
             {:.1} TFlops sustained, {:.0}% of peak",
            hidden,
            proj.tflops(),
            proj.efficiency * 100.0
        );
    }
    print_alerts(&report);
    finish(&report, &a)
}

/// Reassemble per-rank checkpoint shards into a serial-format
/// checkpoint file. The grid keys (`nr=`, `nth=`, ...) must describe
/// the geometry the shards were written under; `step=N` picks a
/// specific shard set (default: the newest complete one). The output
/// is byte-identical to the checkpoint a serial run would have saved
/// at that step, so everything that consumes checkpoints (`resume=`,
/// `slice`) works on it unchanged.
fn cmd_merge(args: &[String]) -> Result<(), String> {
    let [dir, out, keys @ ..] = args else {
        return Err("merge needs <shard_dir> <out.ck>".into());
    };
    let dir = Path::new(dir);
    if !is_shard_dir(dir) {
        return Err(format!("{} is not a shard directory", dir.display()));
    }
    let a = cli::parse("merge", keys)?;
    let ck = merge_shards(&a.cfg, dir, a.step)
        .map_err(|e| format!("merging shards in {}: {e}", dir.display()))?;
    ck.save(Path::new(out)).map_err(|e| format!("writing {out}: {e}"))?;
    println!(
        "merged shard set at step {} (t = {:.5}) into {out}",
        ck.step, ck.time
    );
    Ok(())
}

fn cmd_tables(_args: &[String]) -> Result<(), String> {
    print!("{}", yycore::report::paper_tables_text());
    Ok(())
}

/// The perf doctor, the one reader of the artifacts the other commands
/// write; prints what [`doctor`] wrote, also when it then refused.
fn cmd_doctor(args: &[String]) -> Result<(), String> {
    let mut out = String::new();
    let result = doctor(args, &mut out);
    print!("{out}");
    result
}

/// `trace=` validates a Chrome trace (the census line), refuses an
/// armed trace without phase spans, then re-imports it with its ring
/// counts and runs the critical-path/straggler analysis; `report=`
/// renders a report's `analysis` section and its telemetry frame.
fn doctor(args: &[String], out: &mut String) -> Result<(), String> {
    use yy_obs::{analyze, streams_from_chrome, validate_chrome_trace, AnalysisInput};
    use yycore::report::{analysis_from_report, report_frame};

    let a = cli::parse("doctor", args)?;
    let trace = &a.recovery.obs.trace;
    if trace.is_none() && a.report.is_none() {
        return Err("doctor needs trace=PATH or report=PATH".into());
    }
    if let Some(path) = trace {
        let text = read(path)?;
        let check = at(path, validate_chrome_trace(&text))?;
        out.push_str(&format!("{}\n", check.summary()));
        // An armed run always records phase spans; a span-free trace with
        // rank tracks means the recorders silently dropped everything.
        if check.tracks > 0 && check.spans == 0 {
            return Err(format!("{}: armed trace contains no phase spans", path.display()));
        }
        let (streams, retained) = at(path, streams_from_chrome(&text))?;
        let diagnosis =
            analyze(&AnalysisInput { streams: &streams, retained, predicted_imbalance: 1.0 });
        out.push_str(&diagnosis.render(&format!("trace {}", path.display())));
    }
    if let Some(path) = &a.report {
        let text = read(path)?;
        let diagnosis = at(path, analysis_from_report(&text))?;
        out.push_str(&diagnosis.render(&format!("report {}", path.display())));
        // `width=` is a watch key, so this is the default width.
        out.push_str(&at(path, report_frame(&text, a.width))?);
    }
    Ok(())
}

/// Live terminal dashboard over a running run's science telemetry: poll
/// its metrics endpoint (`http://host:port`) and redraw each frame. A
/// finished run's report renders under `doctor report=`.
fn cmd_watch(args: &[String]) -> Result<(), String> {
    use yy_obs::dashboard::{metrics_frame, WatchHistory};
    let Some(source) = args.first() else {
        return Err("watch needs a metrics URL (http://host:port)".into());
    };
    let a = cli::parse("watch", &args[1..])?;
    // Anything scheme-qualified is a URL attempt (so an `https://`
    // typo gets the clear unsupported-scheme error).
    if !source.contains("://") {
        return Err(format!(
            "watch reads a live endpoint (http://host:port), not '{source}'; \
             render a finished report with doctor report=PATH"
        ));
    }
    let mut history = WatchHistory::default();
    let mut shown: u64 = 0;
    loop {
        // Retry the connection: in CI the watcher often races the run
        // that serves the endpoint.
        let mut attempt = 0;
        let frame = loop {
            match yy_obs::metrics::http_get(source) {
                Ok(body) => break metrics_frame(&body, &mut history, a.width),
                Err(_) if attempt < a.retries => {
                    attempt += 1;
                    std::thread::sleep(Duration::from_millis(250));
                }
                Err(e) => return Err(format!("watch: {e}")),
            }
        };
        if a.frames != 1 {
            // Redraw in place.
            print!("\x1b[2J\x1b[H");
        }
        print!("{frame}");
        use std::io::Write as _;
        std::io::stdout().flush().ok();
        shown += 1;
        if a.frames > 0 && shown >= a.frames {
            break;
        }
        std::thread::sleep(Duration::from_millis(a.interval_ms));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use yy_obs::dashboard::{metrics_frame, sparkline, WatchHistory};
    use yy_obs::metrics::{label_value, parse_exposition};
    use yycore::report::report_frame;
    use yycore::{CkptCodec, ObsOpts};

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    fn parse(cmd: &str, args: &[&str]) -> Result<Args, String> {
        cli::parse(cmd, &strings(args))
    }

    fn parse_err(cmd: &str, args: &[&str]) -> String {
        parse(cmd, args).map(|_| ()).unwrap_err()
    }

    #[test]
    fn output_keys_parse_and_validate() {
        let a = parse("parallel", &["ckpt_dir=shards", "ckpt_compress=delta"]).unwrap();
        assert_eq!(a.recovery.ckpt_dir.as_deref(), Some(Path::new("shards")));
        assert_eq!(a.recovery.ckpt_compress, CkptCodec::Delta);
        // Defaults: raw payloads, no shards.
        let d = parse("parallel", &[]).unwrap();
        assert!(d.recovery.ckpt_dir.is_none());
        assert_eq!(d.recovery.ckpt_compress, CkptCodec::Raw);

        // The writer thread is the only writer, and `rle` is `delta`'s
        // first link. (The key is split so ci.sh's deleted-names guard
        // does not match this line.)
        let gone = ["ckpt_asyn", "c"].concat();
        for (cmd, v) in [("parallel", 0), ("run", 1)] {
            let err = parse_err(cmd, &[&format!("{gone}={v}")]);
            assert_eq!(err, format!("unknown config key '{gone}'"));
        }
        let err = parse_err("parallel", &["ckpt_compress=rle"]);
        assert_eq!(err, "ckpt_compress: expected none|delta, got 'rle'");
        let err = parse_err("parallel", &["ckpt_compress=zip"]);
        assert_eq!(err, "ckpt_compress: expected none|delta, got 'zip'");
    }

    #[test]
    fn delay_src_parses_and_targets_the_fault_spec() {
        let a = parse("parallel", &["delay=1.0", "delay_us=400", "delay_src=2"]).unwrap();
        let spec = &a.recovery.fault;
        assert!(spec.is_active());
        assert_eq!(spec.delay_src, Some(2));
        assert_eq!(spec.max_delay, Duration::from_micros(400));
        // Default: no fault, and delays (if any) afflict every sender.
        let d = parse("parallel", &[]).unwrap().recovery.fault;
        assert!(!d.is_active() && d.delay_src.is_none());
        // kill_step= alone schedules nothing; kill_rank= arms it, in any order.
        assert!(!parse("parallel", &["kill_step=4"]).unwrap().recovery.fault.is_active());
        let k = parse("parallel", &["kill_persistent=1", "kill_step=4", "kill_rank=1"]).unwrap();
        let kill = k.recovery.fault.kills[0];
        assert_eq!((kill.rank, kill.step, kill.persistent), (1, 4, true));
        let err = parse_err("parallel", &["delay_src=first"]);
        assert!(err.starts_with("delay_src: "), "{err}");
    }

    /// Key values that used to reach an assertion deep in the mesh,
    /// the universe or the checkpoint: each is refused up front with one
    /// line that names the key to change.
    #[test]
    fn unusable_geometry_and_layout_values_are_one_line_errors() {
        let dir = std::env::temp_dir().join(format!("yy_cli_geometry_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let at = |name: &str| dir.join(name).to_string_lossy().into_owned();
        let small = ["steps=1", "sample=0", "nr=8", "nth=9"];
        for (ext, ck) in [("ext=2", at("y.ck")), ("ext=1", at("x.ck"))] {
            let ckpt = format!("ckpt={ck}");
            cmd_run(&strings(&[&small[..], &[ext, &ckpt]].concat())).expect("writes a checkpoint");
        }
        let (resume_y, x, out) = (format!("resume={}", at("y.ck")), at("x.ck"), at("out"));
        let cases: [(Cmd, &[&str], &[&str]); 6] = [
            (cmd_run, &["nr=12", "nth=9", "ext=3"], &["ext", "nth=9", "1..=2"]),
            (cmd_parallel, &["pth=1", "pph=16", "nr=12", "nth=9"], &["pph=16", "1..=14"]),
            (cmd_parallel, &["pth=0"], &["pth=0", "1..=8"]),
            (cmd_run, &[&resume_y, "nr=16"], &["geometry", "nr="]),
            (cmd_parallel, &[&resume_y, "nr=16"], &["geometry", "nr="]),
            (cmd_slice, &[&x, &out], &["x.ck", "ext=2"]),
        ];
        for (cmd, args, names) in cases {
            let err = cmd(&strings(args)).expect_err(&format!("{args:?} must be refused"));
            assert_eq!(err.lines().count(), 1, "{args:?}: {err}");
            for name in names {
                assert!(err.contains(name), "{args:?}: '{err}' does not name {name}");
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn doctor_rejects_bad_usage_with_clear_messages() {
        let run = |args: &[&str]| cmd_doctor(&strings(args)).unwrap_err();
        assert!(run(&[]).contains("doctor needs"), "{}", run(&[]));
        assert!(run(&["verbose"]).contains("expected key=value"));
        assert_eq!(run(&["mode=loud"]), "doctor: unknown key 'mode'");
        let err = run(&["trace=/nonexistent-yy-doctor.json"]);
        assert!(err.contains("reading"), "{err}");
        // A well-formed artifact's (default) analysis section renders.
        let pid = std::process::id();
        let tmp = |name: &str| std::env::temp_dir().join(format!("yy_cli_doctor_{pid}_{name}"));
        let report = tmp("report.json");
        std::fs::write(&report, RunReport::default().to_json()).unwrap();
        cmd_doctor(&[format!("report={}", report.display())]).expect("report= renders");
        std::fs::remove_file(&report).ok();
        // A rank track without a single phase span: the recorders were
        // armed and kept nothing, which the census alone would pass.
        let spanless = tmp("spanless.json");
        let step = r#"{"name":"step 1","ph":"i","pid":0,"tid":0,"ts":1,"args":{"step":1}}"#;
        std::fs::write(&spanless, format!(r#"{{"traceEvents":[{step}]}}"#)).unwrap();
        let err = run(&[&format!("trace={}", spanless.display())]);
        assert!(err.ends_with("spanless.json: armed trace contains no phase spans"), "{err}");
        std::fs::remove_file(&spanless).ok();
        // A valid trace: the census line, then the analysis.
        let set = yy_obs::RecorderSet::new(1, 0);
        set.rank(0).record(yy_obs::Event::StepBegin { step: 0 });
        set.rank(0).record(yy_obs::Event::Phase { phase: Phase::Interior, dur_ns: 10 });
        let trace = tmp("trace.json");
        std::fs::write(&trace, yycore::obs::recorders_to_chrome(&set)).unwrap();
        let mut out = String::new();
        doctor(&[format!("trace={}", trace.display())], &mut out).expect("trace= renders");
        std::fs::remove_file(&trace).ok();
        let census = out.lines().next().unwrap_or_default();
        assert!(census.starts_with("trace ok: 4 events, 1 spans, "), "{out}");
        assert!(out.contains("steps analyzed: "), "{out}");
    }

    #[test]
    fn merge_rejects_bad_usage_with_clear_messages() {
        assert_eq!(cmd_merge(&[]).unwrap_err(), "merge needs <shard_dir> <out.ck>");
        let err = cmd_merge(&strings(&["/nonexistent-yy", "out.ck"])).unwrap_err();
        assert!(err.contains("not a shard directory"), "{err}");
        let dir = std::env::temp_dir().join(format!("yy_cli_merge_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let dir_arg = dir.to_string_lossy().into_owned();
        let err = cmd_merge(&strings(&[&dir_arg, "out.ck", "step=soon"])).unwrap_err();
        assert!(err.starts_with("step: "), "{err}");
        let err = cmd_merge(&strings(&[&dir_arg, "out.ck", "pth=2"])).unwrap_err();
        assert_eq!(err, "key 'pth' is not read by 'merge' (read by: parallel)");
        // An empty (shardless) directory is reported, not merged.
        assert!(cmd_merge(&strings(&[&dir_arg, "out.ck"])).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The usage line, the dispatch table and the synopsis `yycore help`
    /// prints must agree on the command set, name for name.
    #[test]
    fn usage_names_every_dispatch_arm_and_nothing_else() {
        let dispatch: Vec<&str> = COMMANDS.iter().map(|&(name, _)| name).collect();
        let synopsis: Vec<&str> = cli::COMMANDS.iter().map(|&(name, ..)| name).collect();
        assert_eq!(dispatch, synopsis);
        let line = usage();
        let inner = line
            .strip_prefix("usage: yycore <")
            .and_then(|s| s.strip_suffix("> [args]"))
            .expect("usage shape");
        assert_eq!(inner.split('|').collect::<Vec<_>>(), dispatch);
        cmd_help(&[]).expect("help");
        cmd_help(&strings(&["parallel"])).expect("help parallel");
        let err = cmd_help(&strings(&["paralel"])).unwrap_err();
        assert_eq!(err, "help: unknown command 'paralel' (did you mean 'parallel'?)");
    }

    #[test]
    fn telemetry_keys_parse_and_reject_garbage() {
        let a = parse("parallel", &["telemetry=1", "rules=watch.rules", "dt_collapse_at=10"]).unwrap();
        assert!(a.recovery.obs.series);
        assert_eq!(a.recovery.obs.rules.as_deref(), Some(Path::new("watch.rules")));
        let inj = a.recovery.dt_inject.expect("injector armed");
        assert_eq!(inj.at_step, 10);
        let off = parse("run", &["telemetry=0"]).unwrap();
        assert!(off.recovery.dt_inject.is_none() && !off.recovery.obs.series);
        assert!(parse_err("run", &["telemetry=yes"]).contains("telemetry"));
        assert!(parse_err("run", &["dt_collapse_at=soon"]).starts_with("dt_collapse_at:"));
    }

    #[test]
    fn sparkline_scales_and_survives_nans() {
        let line = sparkline(&[0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0], 48);
        assert_eq!(line, "▁▂▃▄▅▆▇█");
        // Truncated to the newest `width` samples.
        assert_eq!(sparkline(&[9.0, 0.0, 7.0], 2).chars().count(), 2);
        assert_eq!(sparkline(&[], 8), "·");
        assert_eq!(sparkline(&[f64::NAN, 1.0, f64::NAN], 8).chars().next(), Some('·'));
        // Flat series renders, all at one level.
        let flat = sparkline(&[2.0; 5], 8);
        assert_eq!(flat.chars().count(), 5);
        assert!(flat.chars().all(|c| c == '▁'));
    }

    fn gauges() -> yy_obs::ScienceGauges {
        yy_obs::ScienceGauges {
            energy: vec![("kinetic".into(), 1.5), ("magnetic".into(), 0.5)],
            dt: 1.25e-3,
            max_speed: 3.0,
            max_b: 0.25,
            dominant_m: 4,
            alerts: vec![("energy_blowup".into(), true, 2)],
        }
    }

    #[test]
    fn exposition_parses_into_samples_with_labels() {
        let samples = parse_exposition(&yy_obs::science_gauges_text(&gauges()));
        assert_eq!(samples.len(), 8, "comment lines skipped");
        assert_eq!(samples[0].1, 1.5);
        assert_eq!(label_value(&samples[0].0), Some("kinetic"));
        assert_eq!(samples[2], ("yy_dt".to_string(), 0.00125));
    }

    /// The metrics frame renders the science gauges as sparkline panels
    /// and the watchdog state as alert lines, accumulating history
    /// across polls.
    #[test]
    fn metrics_frame_renders_science_gauges_and_alerts() {
        let body = yy_obs::science_gauges_text(&gauges());
        let mut history = WatchHistory::default();
        let frame = metrics_frame(&body, &mut history, 16);
        assert!(frame.contains("energy kinetic"), "{frame}");
        assert!(frame.contains("dominant m"), "{frame}");
        assert!(frame.contains("alert energy_blowup"), "{frame}");
        assert!(frame.contains("FIRING"), "{frame}");
        assert!(frame.contains("fired 2x"), "{frame}");
        // A second poll extends the sparkline history.
        metrics_frame(&body, &mut history, 16);
        let dt = history.panels.iter().find(|(k, _)| k == "dt").expect("dt panel");
        assert_eq!(dt.1.len(), 2);
        assert_eq!(
            metrics_frame("", &mut WatchHistory::default(), 16),
            "endpoint has published nothing yet"
        );
    }

    /// `doctor report=` renders a real armed serial run's telemetry:
    /// every channel's sparkline and every recorded alert edge; an
    /// unarmed report gets a one-line pointer at `telemetry=1`.
    #[test]
    fn doctor_renders_an_armed_report_and_notes_an_unarmed_one() {
        let render = |report: &str| {
            let path = std::env::temp_dir().join(format!("yy_cli_frame_{}.json", std::process::id()));
            std::fs::write(&path, report).unwrap();
            let mut out = String::new();
            let result = doctor(&[format!("report={}", path.display())], &mut out);
            std::fs::remove_file(&path).ok();
            result.map(|()| out)
        };
        let mut cfg = RunConfig::small();
        cfg.init.perturb_amplitude = 1e-2;
        let mut sim = SerialSim::new(cfg.clone());
        sim.arm_telemetry(&ObsOpts { series: true, ..ObsOpts::default() }).unwrap();
        sim.dt_inject = Some(yycore::DtInject { at_step: 10 });
        let report = sim.run(16, 1);
        let frame = render(&report.to_json()).expect("frame renders");
        for channel in yycore::telemetry::CHANNELS {
            assert!(frame.contains(&format!("\n{channel:<12} ")), "no {channel} panel:\n{frame}");
        }
        assert!(!report.alerts.is_empty());
        assert_eq!(frame.matches("\nalert ").count(), report.alerts.len(), "{frame}");
        assert!(frame.contains("alert energy_blowup (dt-collapse): FIRED"), "{frame}");

        let mut unarmed = SerialSim::new(cfg);
        let bare = render(&unarmed.run(2, 0).to_json()).expect("an unarmed report renders");
        assert!(bare.ends_with("\ntelemetry: not armed; rerun with telemetry=1\n"), "{bare}");
        assert!(render("{}").is_err(), "schema-less JSON rejected");
        assert!(report_frame("{}", 32).is_err(), "schema-less JSON rejected");
    }

    #[test]
    fn watch_rejects_bad_usage_with_clear_messages() {
        assert!(cmd_watch(&[]).unwrap_err().contains("watch needs"));
        let err = cmd_watch(&strings(&["https://example.com", "frames=1", "retries=0"])).unwrap_err();
        assert!(err.contains("only http://"), "{err}");
        let err = cmd_watch(&strings(&["report.json", "cadence=5"])).unwrap_err();
        assert_eq!(err, "watch: unknown key 'cadence'");
        // A finished run's report is `doctor report=`'s, armed or not.
        let path = std::env::temp_dir().join(format!("yy_cli_watch_{}.json", std::process::id()));
        let mut sim = SerialSim::new(RunConfig::small());
        sim.arm_telemetry(&ObsOpts { series: true, ..ObsOpts::default() }).unwrap();
        std::fs::write(&path, sim.run(2, 1).to_json()).unwrap();
        let err = cmd_watch(&[path.display().to_string()]).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert_eq!(err.lines().count(), 1, "{err}");
        assert!(err.contains("doctor report="), "{err}");
    }
}
