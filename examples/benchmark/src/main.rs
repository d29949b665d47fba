//! The repository's single benchmark. See `README.md` beside this
//! package and `BENCHMARK.json` at the repository root.
//!
//! With `--workload` the process measures that one workload and prints
//! one JSON result as its last line (end-to-end metrics with
//! `--trace 0`, per-layer metrics with `--trace 1`). Without it the
//! process orchestrates: each workload runs in a child process of this
//! same binary, so every `peak_rss_mib` starts from a clean slate.

mod e2e;
mod golden;
mod layers;
mod machine;
mod orchestrate;
mod spec;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

/// Parsed command line.
#[derive(Clone)]
pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: Option<f64>,
    pub trace: bool,
    pub smoke: bool,
    pub twice: bool,
    pub regen_golden: bool,
    /// Print `BENCHMARK.json` as the binary's tables state it.
    pub print_manifest: bool,
    /// Run this many seeds per workload and print each end-to-end
    /// metric's interquartile spread against a third of its bound.
    pub spread: Option<u64>,
    /// Self-check hook: perturb one golden value after loading it, so
    /// verification must fail.
    pub corrupt_golden: bool,
}

const USAGE: &str = "usage: run.sh [--workload NAME --trace 0|1] [--seed N] [--seconds S] \
                     [--smoke] [--twice] [--spread N] [--regen-golden]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
        twice: false,
        regen_golden: false,
        print_manifest: false,
        spread: None,
        corrupt_golden: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                // Any integer is a seed; a negative one keeps its bit pattern.
                let n: i128 = value("an integer")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
                args.seed = n as u64;
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must lie in (0, 600]".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got '{other}'")),
                }
            }
            "--spread" => {
                let n: u64 = value("a count")?
                    .parse()
                    .map_err(|e| format!("--spread: {e}"))?;
                if n < 2 {
                    return Err("--spread needs at least 2 seeds".into());
                }
                args.spread = Some(n);
            }
            "--smoke" => args.smoke = true,
            "--twice" => args.twice = true,
            "--regen-golden" => args.regen_golden = true,
            "--print-manifest" => args.print_manifest = true,
            "--corrupt-golden" => args.corrupt_golden = true,
            other => return Err(format!("unknown argument '{other}'\n{USAGE}")),
        }
    }
    Ok(args)
}

/// Everything the benchmark writes lands under `<target>/benchmark/`,
/// beside the `release/` directory this binary was built into — inside
/// the checkout, and covered by the build directory's ignore rule.
pub fn output_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("the path of this executable");
    let target = exe
        .parent()
        .and_then(|release| release.parent())
        .expect("<target>/release/<exe>");
    target.join("benchmark")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let ok = match &args.workload {
        Some(name) => orchestrate::run_child(name, &args),
        None => orchestrate::run_all(&args),
    };
    match ok {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
