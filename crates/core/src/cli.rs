//! The `yycore` command line as data: one [`Key`] row per `key=value`
//! setting — name, value placeholder, help line, the subcommands that
//! read it, and a setter that writes straight into the library option
//! struct the driver consumes. Parsing, per-subcommand validation,
//! nearest-key suggestions and `yycore help` are all derived from the
//! rows, so adding a key is adding a row. The physics rows live beside
//! [`RunConfig`] ([`crate::config::KEYS`]); every other row is in
//! [`KEYS`].

use crate::config::{self, RunConfig};
use crate::output::CkptCodec;
use crate::parallel::{FailurePolicy, RecoveryOpts};
use crate::telemetry::DtInject;
use std::fmt::Display;
use std::path::PathBuf;
use std::str::FromStr;
use std::time::Duration;
use yy_parcomm::KillSpec;

/// One `key=value` setting of a target struct `T`.
pub struct Key<T> {
    /// The key as typed.
    pub name: &'static str,
    /// Value placeholder for the help text (`N`, `PATH`, `0|1`, ...).
    pub value: &'static str,
    /// One-line description.
    pub help: &'static str,
    /// Subcommands that read the key.
    pub cmds: &'static [&'static str],
    /// Parse the value into the target. Errors omit the key name —
    /// [`Key::apply`] prefixes it.
    pub set: fn(&mut T, &str) -> Result<(), String>,
}

impl<T> Key<T> {
    /// Parse `value` into `target`; errors read `"<key>: <why>"`.
    pub fn apply(&self, target: &mut T, value: &str) -> Result<(), String> {
        (self.set)(target, value).map_err(|e| format!("{}: {e}", self.name))
    }
}

/// Declare one [`Key`] row: name, placeholder, readers, help, and the
/// assignment the setter performs.
macro_rules! key {
    ($name:literal, $value:literal, $cmds:expr, $help:literal, |$t:ident, $v:ident| $body:expr) => {
        $crate::cli::Key {
            name: $name,
            value: $value,
            help: $help,
            cmds: $cmds,
            set: |$t, $v| {
                $body;
                Ok(())
            },
        }
    };
}
pub(crate) use key;

/// Parse any `FromStr` value, reporting its own error text.
pub(crate) fn num<V: FromStr>(v: &str) -> Result<V, String>
where
    V::Err: Display,
{
    v.parse().map_err(|e: V::Err| e.to_string())
}

fn flag(v: &str) -> Result<bool, String> {
    match v {
        "1" | "true" => Ok(true),
        "0" | "false" => Ok(false),
        other => Err(format!("expected 0|1, got '{other}'")),
    }
}

/// `" (did you mean 'x'?)"` when one of `names` is within two edits
/// (Levenshtein) of the mistyped `key`, else `""`.
pub(crate) fn suggestion<'a>(key: &str, names: impl Iterator<Item = &'a str>) -> String {
    let distance = |name: &str| {
        let (a, b) = (key.as_bytes(), name.as_bytes());
        let mut row: Vec<usize> = (0..=b.len()).collect();
        for (i, ca) in a.iter().enumerate() {
            let mut diag = row[0];
            row[0] = i + 1;
            for (j, cb) in b.iter().enumerate() {
                let sub = diag + usize::from(ca != cb);
                diag = row[j + 1];
                row[j + 1] = sub.min(diag + 1).min(row[j] + 1);
            }
        }
        row[b.len()]
    };
    match names.map(|n| (distance(n), n)).filter(|&(d, _)| d <= 2).min() {
        Some((_, n)) => format!(" (did you mean '{n}'?)"),
        None => String::new(),
    }
}

/// Subcommands: name, argument synopsis, one-line description. The
/// binary's dispatch table carries the same names (tested there).
pub const COMMANDS: [(&str, &str, &str); 8] = [
    ("run", "[key=value ...]", "run a serial simulation"),
    ("slice", "<ckpt> [out_dir]", "equatorial/meridional slices from a checkpoint"),
    ("parallel", "[key=value ...]", "run the supervised flat-MPI-style parallel driver"),
    ("merge", "<shard_dir> <out.ck> [key=value ...]", "reassemble per-rank shards into a checkpoint"),
    ("tables", "", "print Tables I-III and List 1"),
    ("doctor", "[key=value ...]", "diagnose a trace or a report"),
    ("watch", "<http://host:port> [key=value ...]", "live dashboard of a running run's telemetry"),
    ("help", "[command]", "list every key, or one command's keys"),
];

/// Commands that build a [`RunConfig`] — the readers of every
/// [`config::KEYS`] row.
pub const SOLVER: &[&str] = &["run", "parallel", "merge"];
const RUNS: &[&str] = &["run", "parallel"];
const PAR: &[&str] = &["parallel"];
const DOCTOR: &[&str] = &["doctor"];
const WATCH: &[&str] = &["watch"];

/// Everything a subcommand reads: the library option structs the rows
/// write straight into, plus the launch-only values no library takes —
/// each named after its key, whose [`KEYS`] row documents it.
#[derive(Debug, Clone)]
#[allow(missing_docs)]
pub struct Args {
    pub cfg: RunConfig,
    /// Supervisor policy, with the fault plan (`fault`) and the
    /// observability options (`obs`) inside. The serial drivers read
    /// `obs.{series, rules}` and `dt_inject` from here too; the
    /// doctor reads `obs.trace`.
    pub recovery: RecoveryOpts,
    pub steps: u64,
    pub sample: u64,
    pub pth: usize,
    pub pph: usize,
    pub ckpt: Option<PathBuf>,
    pub series: Option<PathBuf>,
    pub report_json: Option<PathBuf>,
    pub resume: Option<PathBuf>,
    pub metrics_port: Option<u16>,
    pub step: Option<u64>,
    pub report: Option<PathBuf>,
    pub interval_ms: u64,
    /// 0: unbounded.
    pub frames: u64,
    pub width: usize,
    pub retries: u64,
}

impl Default for Args {
    /// The library structs' own defaults, except where the CLI has
    /// always differed: a visible initial perturbation and a 500 µs
    /// injected-delay ceiling.
    fn default() -> Self {
        let mut cfg = RunConfig::small();
        cfg.init.perturb_amplitude = 3e-2;
        let mut recovery = RecoveryOpts::default();
        recovery.fault.max_delay = Duration::from_micros(500);
        Args {
            cfg,
            recovery,
            steps: 200,
            sample: 10,
            pth: 1,
            pph: 2,
            ckpt: None,
            series: None,
            report_json: None,
            resume: None,
            metrics_port: None,
            step: None,
            report: None,
            interval_ms: 1000,
            frames: 0,
            width: 48,
            retries: 20,
        }
    }
}

/// Rank that never occurs: marks a kill whose modifier keys
/// (`kill_step=`, `kill_persistent=`) arrived without the key that arms
/// it. [`parse`] drops such entries.
const NEVER: usize = usize::MAX;

/// The one kill the CLI can schedule.
fn kill(a: &mut Args) -> &mut KillSpec {
    let kills = &mut a.recovery.fault.kills;
    if kills.is_empty() {
        kills.push(KillSpec { rank: NEVER, step: 0, persistent: false });
    }
    &mut kills[0]
}

/// Every key that is not a [`RunConfig`] field.
pub const KEYS: [Key<Args>; 33] = [
    key!("steps", "N", RUNS, "step the run ends at; a resumed run continues to it [200]", |a, v| a.steps = num(v)?),
    key!("sample", "N", RUNS, "diagnostics every N steps, 0 = never [10]",
        |a, v| a.sample = num(v)?),
    key!("ckpt", "PATH", RUNS, "write the final checkpoint here", |a, v| a.ckpt = Some(v.into())),
    key!("series", "PATH", RUNS, "write the CSV time series here [stdout]",
        |a, v| a.series = Some(v.into())),
    key!("report_json", "PATH", RUNS, "write the RunReport JSON artifact here",
        |a, v| a.report_json = Some(v.into())),
    key!("trace", "PATH", &["parallel", "doctor"],
        "Chrome trace: parallel writes it (+ PATH.postmortem per failed pass), doctor reads it",
        |a, v| a.recovery.obs.trace = Some(v.into())),
    key!("pth", "N", PAR, "tiles per panel along theta [1]", |a, v| a.pth = num(v)?),
    key!("pph", "N", PAR, "tiles per panel along phi [2]", |a, v| a.pph = num(v)?),
    key!("resume", "PATH", RUNS,
        "start from this checkpoint or shard directory (newest complete set); any layout",
        |a, v| a.resume = Some(v.into())),
    key!("metrics_port", "N", PAR, "serve the live Prometheus exposition on 127.0.0.1:N",
        |a, v| a.metrics_port = Some(num(v)?)),
    // Output pipeline (DESIGN.md §6h).
    key!("ckpt_every", "N", PAR, "checkpoint every N steps [0 = ends only]",
        |a, v| a.recovery.checkpoint_every = num(v)?),
    key!("ckpt_dir", "PATH", PAR, "write per-rank checkpoint shards here (see resume=, `merge`)",
        |a, v| a.recovery.ckpt_dir = Some(v.into())),
    key!("ckpt_compress", "none|delta", PAR, "shard payload codec [none]",
        |a, v| a.recovery.ckpt_compress = CkptCodec::parse(v)?),
    // Fault injection and recovery.
    key!("fault_seed", "N", PAR, "fault-schedule seed [0]", |a, v| a.recovery.fault.seed = num(v)?),
    key!("delay", "P", PAR, "message delay probability", |a, v| a.recovery.fault.delay_p = num(v)?),
    key!("delay_us", "N", PAR, "maximum injected delay in microseconds [500]",
        |a, v| a.recovery.fault.max_delay = Duration::from_micros(num(v)?)),
    key!("delay_src", "N", PAR, "delay only messages sent by this world rank",
        |a, v| a.recovery.fault.delay_src = Some(num(v)?)),
    key!("dup", "P", PAR, "message duplication probability",
        |a, v| a.recovery.fault.duplicate_p = num(v)?),
    key!("kill_rank", "N", PAR, "kill this node (world rank of the first layout) ...",
        |a, v| kill(a).rank = num(v)?),
    key!("kill_step", "N", PAR, "... at this step [0]", |a, v| kill(a).step = num(v)?),
    key!("kill_persistent", "0|1", PAR, "... on every pass (pair with on_failure=retile)",
        |a, v| kill(a).persistent = flag(v)?),
    key!("deadline_ms", "N", PAR, "per-receive comm deadline [30000]",
        |a, v| a.recovery.deadline = Duration::from_millis(num(v)?)),
    key!("on_failure", "retry|retile|abort", PAR, "what a persistent fault does [retry]",
        |a, v| a.recovery.on_failure = FailurePolicy::parse(v)?),
    key!("max_retiles", "N", PAR, "layout-shrink budget under retile [2]",
        |a, v| a.recovery.max_retiles = num(v)?),
    // Science telemetry (DESIGN.md §6j).
    key!("telemetry", "0|1", RUNS, "arm the series store + physics watchdog (bit-exact)",
        |a, v| a.recovery.obs.series = flag(v)?),
    key!("rules", "PATH", RUNS, "watchdog rules file [built-in ruleset]",
        |a, v| a.recovery.obs.rules = Some(v.into())),
    key!("dt_collapse_at", "N", RUNS, "fault-inject a geometric dt collapse from step N",
        |a, v| a.recovery.dt_inject = Some(DtInject { at_step: num(v)? })),
    key!("step", "N", &["merge"], "shard set to merge [newest complete]",
        |a, v| a.step = Some(num(v)?)),
    key!("report", "PATH", DOCTOR, "print this report's analysis section and telemetry frame",
        |a, v| a.report = Some(v.into())),
    key!("interval_ms", "N", WATCH, "poll cadence [1000]", |a, v| a.interval_ms = num(v)?),
    key!("frames", "N", WATCH, "stop after N frames [0 = unbounded]", |a, v| a.frames = num(v)?),
    key!("width", "N", WATCH, "sparkline width in samples [48]", |a, v| a.width = num(v)?),
    key!("retries", "N", WATCH, "connection retries before giving up [20]",
        |a, v| a.retries = num(v)?),
];

/// `(name, placeholder, help, readers)` of every row of both tables,
/// in help order.
type Row = (&'static str, &'static str, &'static str, &'static [&'static str]);
fn all_rows() -> impl Iterator<Item = Row> {
    fn row<T>(k: &'static Key<T>) -> Row {
        (k.name, k.value, k.help, k.cmds)
    }
    KEYS.iter().map(row).chain(config::KEYS.iter().map(row))
}

/// Apply `k=v` through `rows` if it is one of theirs and `cmd` reads
/// it; `None` when the key is not in this table.
fn apply_from<T>(
    rows: &[Key<T>],
    target: &mut T,
    cmd: &str,
    k: &str,
    v: &str,
) -> Option<Result<(), String>> {
    let row = rows.iter().find(|row| row.name == k)?;
    Some(if row.cmds.contains(&cmd) {
        row.apply(target, v)
    } else {
        Err(format!("key '{k}' is not read by '{cmd}' (read by: {})", row.cmds.join(", ")))
    })
}

/// Parse `cmd`'s `key=value` arguments. A key another subcommand reads
/// is rejected naming its readers; an unknown key names the nearest.
pub fn parse(cmd: &str, args: &[String]) -> Result<Args, String> {
    let mut a = Args::default();
    for arg in args {
        let Some((k, v)) = arg.split_once('=') else {
            return Err(format!("expected key=value, got '{arg}'"));
        };
        let applied = apply_from(&KEYS, &mut a, cmd, k, v)
            .or_else(|| apply_from(&config::KEYS, &mut a.cfg, cmd, k, v));
        applied.unwrap_or_else(|| {
            let hint = suggestion(k, all_rows().filter(|r| r.3.contains(&cmd)).map(|r| r.0));
            Err(if SOLVER.contains(&cmd) {
                format!("unknown config key '{k}'{hint}")
            } else {
                format!("{cmd}: unknown key '{k}'{hint}")
            })
        })?;
    }
    a.recovery.fault.kills.retain(|k| k.rank != NEVER);
    a.cfg.check()?;
    a.recovery.check()?;
    Ok(a)
}

/// The text `yycore help [cmd]` prints: the synopsis and every key row
/// (all of them once, or exactly `cmd`'s).
pub fn help(cmd: Option<&str>) -> Result<String, String> {
    if let Some(c) = cmd {
        if !COMMANDS.iter().any(|&(name, ..)| name == c) {
            let names = COMMANDS.iter().map(|&(name, ..)| name);
            return Err(format!("help: unknown command '{c}'{}", suggestion(c, names)));
        }
    }
    let wanted = |cmds: &[&str]| cmd.is_none_or(|c| cmds.contains(&c));
    let mut out = String::new();
    for (name, args, about) in COMMANDS.iter().filter(|&&(name, ..)| wanted(&[name])) {
        out.push_str(&format!("yycore {:<44} {about}\n", format!("{name} {args}")));
    }
    let rows: String = all_rows()
        .filter(|row| wanted(row.3))
        .map(|(name, value, help, cmds)| {
            format!("  {:<24} {help}  [{}]\n", format!("{name}={value}"), cmds.join(", "))
        })
        .collect();
    if !rows.is_empty() {
        out.push_str("\nkeys (key=VALUE  description [default]  [read by]):\n");
        out.push_str(&rows);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Values a row's placeholder admits, plus (where the placeholder
    /// constrains the value at all) one it must reject.
    fn samples(placeholder: &'static str) -> (Vec<&'static str>, Option<&'static str>) {
        match placeholder {
            "N" => (vec!["12"], Some("a dozen")),
            "F" | "P" => (vec!["0.25"], Some("a quarter")),
            "PATH" => (vec!["x/y"], None),
            alternatives => (alternatives.split('|').collect(), Some("?")),
        }
    }

    /// (a) Every row: some admissible value parses and lands in the
    /// target (which then differs from the default); a bad value is
    /// reported as `"<key>: ..."` and leaves the target untouched.
    fn check_row<T: std::fmt::Debug>(row: &Key<T>, new: fn() -> T) {
        let default = format!("{:?}", new());
        let (good, bad) = samples(row.value);
        let landed = good.iter().any(|v| {
            let mut t = new();
            row.apply(&mut t, v).unwrap_or_else(|e| panic!("{}={v}: {e}", row.name));
            format!("{t:?}") != default
        });
        assert!(landed, "{}: none of {good:?} changed the target", row.name);
        if let Some(bad) = bad {
            let mut t = new();
            let err = row.apply(&mut t, bad).unwrap_err();
            assert!(err.starts_with(&format!("{}: ", row.name)), "{err}");
            assert_eq!(format!("{t:?}"), default, "{}: a rejected value was stored", row.name);
        }
    }

    #[test]
    fn every_row_parses_into_its_target_and_names_itself_on_error() {
        KEYS.iter().for_each(|row| check_row(row, Args::default));
        config::KEYS.iter().for_each(|row| check_row(row, RunConfig::small));
    }

    /// (b) Every (key, subcommand) pair outside the row's reader list is
    /// rejected naming the readers; inside it, accepted.
    #[test]
    fn keys_are_accepted_by_their_readers_only() {
        for (name, placeholder, _, readers) in all_rows() {
            let arg = format!("{name}={}", samples(placeholder).0[0]);
            for (cmd, ..) in COMMANDS {
                let got = parse(cmd, std::slice::from_ref(&arg)).map(|_| ());
                if readers.contains(&cmd) {
                    // Accepted as a key; `RunConfig::check` may still
                    // refuse the generic value (t_inner=0.25).
                    let key_error = |e: &String| e.starts_with("key '") || e.contains("unknown");
                    assert!(!got.as_ref().is_err_and(key_error), "{cmd} {arg}: {got:?}");
                } else {
                    let want = format!(
                        "key '{name}' is not read by '{cmd}' (read by: {})",
                        readers.join(", ")
                    );
                    assert_eq!(got, Err(want));
                }
            }
        }
        let run = |cmd, arg: &str| parse(cmd, &[arg.to_string()]).map(|_| ()).unwrap_err();
        assert_eq!(run("run", "pth=2"), "key 'pth' is not read by 'run' (read by: parallel)");
        assert_eq!(run("run", "stepz=1"), "unknown config key 'stepz' (did you mean 'steps'?)");
        assert_eq!(run("watch", "stepz=1"), "watch: unknown key 'stepz'");
        assert_eq!(run("run", "mode=overlapped"), "unknown config key 'mode'");
        assert_eq!(run("run", "verbose"), "expected key=value, got 'verbose'");
        assert!(run("run", "nr=2").contains("nr must be at least 8"));
    }

    /// (c) The tables are well-formed and `help` is exactly their image.
    #[test]
    fn help_lists_every_row_once_and_each_command_its_own() {
        let rows: Vec<_> = all_rows().collect();
        assert_eq!(rows.len(), 49);
        for (i, (name, _, _, readers)) in rows.iter().enumerate() {
            assert!(rows[..i].iter().all(|r| r.0 != *name), "duplicate key '{name}'");
            assert!(!readers.is_empty(), "nobody reads '{name}'");
            for r in *readers {
                assert!(COMMANDS.iter().any(|(c, ..)| c == r), "'{name}' read by unknown '{r}'");
            }
        }
        let listed = |text: &str, name: &str| {
            text.lines().filter(|l| l.starts_with(&format!("  {name}="))).count()
        };
        let all = help(None).unwrap();
        for (cmd, ..) in COMMANDS {
            assert_eq!(all.lines().filter(|l| l.starts_with(&format!("yycore {cmd} "))).count(), 1);
            let own = help(Some(cmd)).unwrap();
            assert!(own.starts_with(&format!("yycore {cmd} ")), "{own}");
            for (name, _, _, readers) in &rows {
                assert_eq!(listed(&own, name), usize::from(readers.contains(&cmd)), "{cmd} {name}");
            }
        }
        for (name, ..) in &rows {
            assert_eq!(listed(&all, name), 1, "help lists '{name}' once");
        }
        assert!(help(Some("tables")).unwrap().lines().count() == 1, "keyless command: synopsis only");
        assert!(help(Some("fly")).is_err());
    }
}
