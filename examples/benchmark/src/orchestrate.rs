//! Command-line modes: the single-workload run the driver calls, and
//! the modes that run every workload in child processes of this binary.

use crate::golden::Golden;
use crate::spec::{self, MetricSpec, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{iqr_share, median};
use crate::{e2e, golden, layers, output_dir, Args};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use yy_obs::json::{escape, num};
use yy_obs::Json;

/// Timed seconds per run when `--seconds` is not given; equals
/// `run_seconds` in `BENCHMARK.json` (checked by `--smoke`).
pub const DEFAULT_SECONDS: f64 = 25.0;
/// `--smoke` asks for no time at all: the minimum segment and repeat
/// counts decide.
const SMOKE_SECONDS: f64 = 0.001;

fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&MetricSpec, f64)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(m, v)| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                num(*v),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Measure one workload in this process and print the result as the
/// last line of standard output. `Ok(false)` when verification failed.
pub fn run_child(name: &str, args: &Args) -> Result<bool, String> {
    let w = spec::workload(name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload '{name}' (known: {})", names.join(", "))
    })?;
    let seconds = args.seconds.unwrap_or(if args.smoke {
        SMOKE_SECONDS
    } else {
        DEFAULT_SECONDS
    });
    let scratch = output_dir().join(format!("{name}.{}", std::process::id()));
    std::fs::create_dir_all(&scratch)
        .map_err(|e| format!("creating {}: {e}", scratch.display()))?;

    let (correct, line) = if args.trace {
        let out = layers::run(w, args.seed, seconds, args.smoke, &scratch);
        let trace_file = output_dir().join(format!("trace.{name}.json"));
        out.tracer
            .write_json(&trace_file)
            .map_err(|e| format!("writing {}: {e}", trace_file.display()))?;
        let mut metrics = Vec::new();
        for m in &PER_LAYER {
            let v = out
                .values
                .iter()
                .find(|(n, _)| *n == m.name)
                .map(|(_, v)| *v);
            let v = v.ok_or(format!("traced run produced no '{}'", m.name))?;
            println!("{:<36} {:>16.6} {:<8} [{}]", m.name, v, m.unit, name);
            metrics.push((m, v));
        }
        for p in &out.problems {
            println!("FAILED {p}");
        }
        println!(
            "trace: {} spans in {}",
            out.tracer.len(),
            trace_file.display()
        );
        let correct = out.failed == 0;
        (
            correct,
            result_json(correct, out.attempted, out.failed, &metrics),
        )
    } else {
        let mut golden = Golden::load()?;
        if args.corrupt_golden {
            for (_, e) in &mut golden.entries {
                e.mass *= 1.0 + 1e-6;
            }
        }
        let out = e2e::run(w, args.seed, seconds, args.smoke, &scratch, Some(&golden));
        let mut metrics = Vec::new();
        for (m, (value, samples)) in END_TO_END.iter().zip(&out.metrics) {
            println!(
                "{:<20} {:>14.6} {:<4} [{}] raw {} bound={:.0}%",
                m.name,
                value,
                m.unit,
                name,
                e2e::describe(samples),
                m.bound * 100.0
            );
            metrics.push((m, *value));
        }
        let probes_ns: Vec<f64> = out.ref_probes.iter().map(|s| s * 1e9).collect();
        println!(
            "host_clock           {:>14.6}      [{}] nominal {:.1} ns ÷ median probe of the reference stencil; probes {}",
            crate::machine::REF_NOMINAL_S_PER_POINT * 1e9 / median(&probes_ns),
            name,
            crate::machine::REF_NOMINAL_S_PER_POINT * 1e9,
            e2e::describe(&probes_ns)
        );
        println!(
            "failed_share         {:>14.6}      [{}] {} of {} segments",
            out.failed as f64 / out.attempted as f64,
            name,
            out.failed,
            out.attempted
        );
        for p in &out.problems {
            println!("FAILED {p}");
        }
        let correct = out.failed == 0 && out.problems.is_empty();
        (
            correct,
            result_json(correct, out.attempted, out.failed, &metrics),
        )
    };
    std::fs::remove_dir_all(&scratch).ok();
    println!("{line}");
    Ok(correct)
}

/// One child run's parsed result.
struct ChildResult {
    exit_ok: bool,
    correct: bool,
    attempted: u64,
    failed: u64,
    /// `(name, value, unit)` in the order printed.
    metrics: Vec<(String, f64, String)>,
    raw: String,
}

impl ChildResult {
    fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }
}

/// Run one workload in a child process of this binary, echoing its
/// report lines, and parse the JSON on its last line.
fn spawn(
    name: &str,
    args: &Args,
    seed: u64,
    seconds: f64,
    trace: bool,
    quiet: bool,
) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        name,
        "--seed",
        &seed.to_string(),
        "--seconds",
        &seconds.to_string(),
    ]);
    cmd.args(["--trace", if trace { "1" } else { "0" }]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    if args.corrupt_golden {
        cmd.arg("--corrupt-golden");
    }
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("running the {name} child: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let raw = lines
        .pop()
        .ok_or(format!("the {name} child printed nothing"))?
        .to_string();
    if !quiet {
        for l in &lines {
            println!("  {l}");
        }
    }
    let doc = Json::parse(&raw)
        .map_err(|e| format!("{name} child's last line is not JSON ({e}): {raw}"))?;
    let count = |key: &str| doc.get(key).and_then(Json::as_f64).map(|v| v as u64);
    let metrics = doc
        .get("metrics")
        .and_then(Json::as_obj)
        .ok_or("child result has no 'metrics' object")?
        .iter()
        .map(|(n, m)| {
            let v = m.get("value").and_then(Json::as_f64);
            let u = m.get("unit").and_then(Json::as_str);
            v.zip(u)
                .map(|(v, u)| (n.clone(), v, u.to_string()))
                .ok_or(format!("ill-formed metric '{n}'"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(ChildResult {
        exit_ok: out.status.success(),
        correct: doc
            .get("correct")
            .and_then(Json::as_bool)
            .ok_or("child result has no 'correct'")?,
        attempted: count("attempted").ok_or("child result has no 'attempted'")?,
        failed: count("failed").ok_or("child result has no 'failed'")?,
        metrics,
        raw,
    })
}

fn repo_root() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

/// Regenerate `golden.json` from one run of every workload, default and
/// smoke grids, at seed 1.
fn regen_golden() -> Result<bool, String> {
    let scratch = output_dir().join(format!("regen.{}", std::process::id()));
    let mut entries = Vec::new();
    for smoke in [false, true] {
        for w in &WORKLOADS {
            std::fs::create_dir_all(&scratch)
                .map_err(|e| format!("creating {}: {e}", scratch.display()))?;
            let out = e2e::run(w, 1, SMOKE_SECONDS, smoke, &scratch, None);
            std::fs::remove_dir_all(&scratch).ok();
            if out.failed > 0 || !out.problems.is_empty() {
                return Err(format!("{}: {:?}", w.name, out.problems));
            }
            let mut entry = out
                .entry
                .ok_or(format!("{}: no segment succeeded", w.name))?;
            entry.mass_drift = e2e::max_mass_drift(w, smoke, 1..=10);
            println!("{:<28} {entry:?}", golden::key(w.name, smoke));
            entries.push((golden::key(w.name, smoke), entry));
        }
    }
    Golden { seed: 1, entries }.save()?;
    println!("wrote {}", golden::path().display());
    Ok(true)
}

/// `BENCHMARK.json` as the binary's own tables state it
/// (`--print-manifest`).
pub fn manifest_json() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
                w.name,
                escape(w.why)
            )
        })
        .collect();
    let rows = |metrics: &[MetricSpec], bounded: bool| -> String {
        let rows: Vec<String> = metrics
            .iter()
            .map(|m| {
                let better = if m.higher_is_better {
                    "higher"
                } else {
                    "lower"
                };
                let bound = if bounded {
                    format!(", \"bound\": {}", num(m.bound))
                } else {
                    String::new()
                };
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\"{bound}}}",
                    m.name, m.unit
                )
            })
            .collect();
        rows.join(",\n")
    };
    format!(
        "{{\n  \"command\": [\"bash\", \"examples/benchmark/run.sh\"],\n  \"paths\": [\"examples/benchmark\"],\n  \
         \"run_seconds\": {},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        DEFAULT_SECONDS as u64,
        workloads.join(",\n"),
        rows(&END_TO_END, true),
        rows(&PER_LAYER, false)
    )
}

/// The names and units the children emitted must be exactly the
/// binary's tables, and `BENCHMARK.json` must state those same tables.
fn check_manifest(
    e2e_seen: &[(String, String)],
    layer_seen: &[(String, String)],
) -> Result<Vec<String>, String> {
    let mut problems = Vec::new();
    for (key, seen, listed) in [
        ("end_to_end", e2e_seen, &END_TO_END[..]),
        ("per_layer", layer_seen, &PER_LAYER[..]),
    ] {
        for (name, unit) in seen {
            let well_formed = !name.is_empty()
                && name.len() <= 64
                && name.starts_with(|c: char| c.is_ascii_alphanumeric())
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c));
            if !well_formed {
                problems.push(format!("{key}: ill-formed name '{name}'"));
            }
            match listed.iter().find(|m| m.name == name) {
                None => problems.push(format!("{key}: '{name}' emitted but not listed")),
                Some(m) if m.unit != unit => problems.push(format!(
                    "{key}: '{name}' emitted in '{unit}', listed in '{}'",
                    m.unit
                )),
                Some(_) => {}
            }
        }
        for m in listed {
            if !seen.iter().any(|(n, _)| n == m.name) {
                problems.push(format!("{key}: '{}' listed but not emitted", m.name));
            }
        }
    }
    let path = repo_root().join("BENCHMARK.json");
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let on_disk = Json::parse(&text).map_err(|e| format!("parsing BENCHMARK.json: {e}"))?;
    let ours = Json::parse(&manifest_json()).expect("the generated manifest is JSON");
    if on_disk != ours {
        problems.push(
            "BENCHMARK.json differs from the binary's tables (compare with --print-manifest)"
                .into(),
        );
    }
    Ok(problems)
}

/// `--smoke`: every workload and every metric name on small grids, the
/// manifest diff, and the corrupted-golden self-check.
fn smoke(args: &Args) -> Result<bool, String> {
    let mut ok = true;
    let (mut e2e_seen, mut layer_seen) = (Vec::new(), Vec::new());
    for w in &WORKLOADS {
        for trace in [false, true] {
            println!("{} (smoke, trace {})", w.name, trace as u8);
            let r = spawn(w.name, args, args.seed, SMOKE_SECONDS, trace, false)?;
            if !(r.exit_ok && r.correct && r.failed == 0 && r.attempted >= 1) {
                println!("SMOKE FAILED {}: {}", w.name, r.raw);
                ok = false;
            }
            let seen = if trace {
                &mut layer_seen
            } else {
                &mut e2e_seen
            };
            let pairs: Vec<(String, String)> =
                r.metrics.into_iter().map(|(n, _, u)| (n, u)).collect();
            if seen.is_empty() {
                *seen = pairs;
            } else if *seen != pairs {
                println!(
                    "SMOKE FAILED {}: emits other metric names than the first workload",
                    w.name
                );
                ok = false;
            }
        }
    }
    for p in check_manifest(&e2e_seen, &layer_seen)? {
        println!("SMOKE FAILED {p}");
        ok = false;
    }
    // A perturbed golden value must be caught: failed > 0, non-zero exit.
    let corrupt = Args {
        corrupt_golden: true,
        seed: 1,
        ..args.clone()
    };
    let r = spawn(WORKLOADS[0].name, &corrupt, 1, SMOKE_SECONDS, false, true)?;
    if r.exit_ok || r.correct || r.failed == 0 {
        println!(
            "SMOKE FAILED corrupted golden value went unnoticed: {}",
            r.raw
        );
        ok = false;
    } else {
        println!(
            "corrupted golden value caught: {} of {} segments failed",
            r.failed, r.attempted
        );
    }
    println!("smoke: {}", if ok { "PASS" } else { "FAIL" });
    Ok(ok)
}

/// One end-to-end set: every workload in `blocks` child runs, round
/// robin, so slow host drift lands on all of them. Returns, per
/// workload, per end-to-end metric, the median over the blocks.
fn e2e_set(
    args: &Args,
    seconds: f64,
    blocks: usize,
    all_ok: &mut bool,
) -> Result<Vec<Vec<f64>>, String> {
    let mut values = vec![vec![Vec::new(); END_TO_END.len()]; WORKLOADS.len()];
    for block in 0..blocks {
        for (wi, w) in WORKLOADS.iter().enumerate() {
            println!("{} (block {} of {blocks})", w.name, block + 1);
            let r = spawn(
                w.name,
                args,
                args.seed,
                seconds / blocks as f64,
                false,
                false,
            )?;
            *all_ok &= r.exit_ok && r.correct;
            for (mi, m) in END_TO_END.iter().enumerate() {
                values[wi][mi].push(
                    r.value(m.name)
                        .ok_or(format!("{} lacks {}", w.name, m.name))?,
                );
            }
        }
    }
    Ok(values
        .iter()
        .map(|w| w.iter().map(|v| median(v)).collect())
        .collect())
}

/// `--twice`: two sets back to back, compared against each bound.
fn twice(args: &Args, seconds: f64) -> Result<bool, String> {
    let mut ok = true;
    let a = e2e_set(args, seconds, 3, &mut ok)?;
    let b = e2e_set(args, seconds, 3, &mut ok)?;
    println!(
        "\n{:<20} {:<18} {:>14} {:>14} {:>8} {:>6}  verdict",
        "metric", "workload", "set A", "set B", "diff", "bound"
    );
    for (wi, w) in WORKLOADS.iter().enumerate() {
        for (mi, m) in END_TO_END.iter().enumerate() {
            let (x, y) = (a[wi][mi], b[wi][mi]);
            let diff = (y - x) / x;
            let pass = diff.abs() <= m.bound;
            ok &= pass;
            println!(
                "{:<20} {:<18} {:>14.6} {:>14.6} {:>+7.2}% {:>5.0}%  {}",
                m.name,
                w.name,
                x,
                y,
                diff * 100.0,
                m.bound * 100.0,
                if pass { "PASS" } else { "UNRESOLVED" }
            );
        }
    }
    Ok(ok)
}

/// `--spread N`: N runs per workload, seeds `seed .. seed+N`, and each
/// end-to-end metric's interquartile range as a share of its median.
fn spread(args: &Args, seconds: f64, n: u64) -> Result<bool, String> {
    let mut ok = true;
    let mut rows = Vec::new();
    for w in &WORKLOADS {
        let mut values = vec![Vec::new(); END_TO_END.len()];
        for seed in args.seed..args.seed + n {
            let r = spawn(w.name, args, seed, seconds, false, true)?;
            ok &= r.exit_ok && r.correct;
            println!("{} seed {seed}: {}", w.name, r.raw);
            for (mi, m) in END_TO_END.iter().enumerate() {
                values[mi].push(
                    r.value(m.name)
                        .ok_or(format!("{} lacks {}", w.name, m.name))?,
                );
            }
        }
        rows.push(values);
    }
    println!(
        "\n{:<20} {:<18} {:>14} {:>8} {:>10}  verdict",
        "metric", "workload", "median", "IQR", "bound / 3"
    );
    for (w, values) in WORKLOADS.iter().zip(&rows) {
        for (m, v) in END_TO_END.iter().zip(values) {
            let share = iqr_share(v);
            let steady = share <= m.bound / 3.0 || m.name == "setup_s";
            ok &= steady;
            println!(
                "{:<20} {:<18} {:>14.6} {:>7.2}% {:>9.2}%  {}",
                m.name,
                w.name,
                median(v),
                share * 100.0,
                m.bound / 3.0 * 100.0,
                if share <= m.bound / 3.0 {
                    "steady"
                } else {
                    "NOISY"
                }
            );
        }
    }
    Ok(ok)
}

fn machine_json() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let commit = std::env::var("BENCH_COMMIT").unwrap_or_else(|_| "unknown".into());
    format!(
        "{{\"nproc\": {nproc}, \"cpu_model\": \"{}\", \"llc_bytes\": {}, \"commit\": \"{}\"}}",
        escape(&cpu),
        crate::machine::llc_bytes().unwrap_or(0),
        escape(&commit)
    )
}

/// The default mode: every workload end to end, then traced, each in a
/// child process; results written to `<target>/benchmark/results.json`.
fn full(args: &Args, seconds: f64) -> Result<bool, String> {
    let mut ok = true;
    let mut rows = Vec::new();
    for trace in [false, true] {
        for w in &WORKLOADS {
            println!(
                "{} (trace {}, seed {}, {seconds} s)",
                w.name, trace as u8, args.seed
            );
            let r = spawn(w.name, args, args.seed, seconds, trace, false)?;
            ok &= r.exit_ok && r.correct;
            println!(
                "  {} of {} checks failed, correct = {}",
                r.failed, r.attempted, r.correct
            );
            rows.push(format!(
                "    {{\"workload\": \"{}\", \"trace\": {}, \"seed\": {}, \"seconds\": {}, \"result\": {}}}",
                w.name, trace as u8, args.seed, num(seconds), r.raw
            ));
        }
    }
    let out = output_dir().join("results.json");
    let doc = format!(
        "{{\n  \"machine\": {},\n  \"counts_only\": [\"parcomm.halo_bytes_per_step_1x2\", \
         \"parcomm.overset_bytes_per_step_1x2\"],\n  \"runs\": [\n{}\n  ]\n}}\n",
        machine_json(),
        rows.join(",\n")
    );
    std::fs::write(&out, doc).map_err(|e| format!("writing {}: {e}", out.display()))?;
    println!("wrote {}", out.display());
    Ok(ok)
}

pub fn run_all(args: &Args) -> Result<bool, String> {
    std::fs::create_dir_all(output_dir())
        .map_err(|e| format!("creating the output directory: {e}"))?;
    let seconds = args.seconds.unwrap_or(DEFAULT_SECONDS);
    if args.print_manifest {
        print!("{}", manifest_json());
        Ok(true)
    } else if args.regen_golden {
        regen_golden()
    } else if args.smoke {
        smoke(args)
    } else if let Some(n) = args.spread {
        spread(args, seconds, n)
    } else if args.twice {
        twice(args, seconds)
    } else {
        full(args, seconds)
    }
}
