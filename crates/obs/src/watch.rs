//! Physics watchdog: declarative alert rules over a [`SeriesStore`].
//!
//! The perf doctor answers "why was this run slow"; the watchdog
//! answers "is this run scientifically healthy" *while it runs*. Rules
//! are declarative — a name, a channel, a condition kind, and hysteresis
//! counts — and are evaluated once per sample row pushed into the store:
//!
//! * `above` / `below` — plain thresholds on the latest value;
//! * `trend_above` — rate of change per sample over a trailing window
//!   exceeds a limit (energy blow-up in progress);
//! * `flatline` — the window's max−min envelope collapsed below an
//!   epsilon (a stalled dynamo: nothing is evolving);
//! * `dt_collapse` — the latest value fell below `ratio ×` the trailing
//!   window's maximum. Applied to the `dt` channel this is the NaN
//!   precursor: the CFL step shrinks as wave speeds blow up, long
//!   before any field actually goes non-finite.
//!
//! Hysteresis makes alerts events, not noise: a rule must violate on
//! `for` consecutive evaluations to fire, then satisfy on `clear`
//! consecutive evaluations to clear, and while firing it cannot fire
//! again — so each blow-up produces exactly one `fired` edge (and at
//! most one `cleared` edge), never a machine-gun of duplicates. The
//! `hysteresis_never_double_fires` property below proves the edges
//! strictly alternate for arbitrary signals and rule parameters.
//!
//! Rules can be parsed from a tiny line format (see [`parse_rules`]):
//!
//! ```text
//! # name: channel kind [param=value ...]
//! energy_blowup: dt dt_collapse window=16 ratio=0.5 for=2 clear=4
//! kinetic_high:  kinetic above threshold=1e6
//! dynamo_stall:  magnetic flatline window=64 eps=1e-12
//! ```

use crate::event::AlertKind;
use crate::series::SeriesStore;
use std::str::FromStr;

/// Condition kinds a [`Rule`] can express.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RuleKind {
    /// Latest value strictly above the threshold.
    Above {
        /// Firing threshold.
        threshold: f64,
    },
    /// Latest value strictly below the threshold.
    Below {
        /// Firing threshold.
        threshold: f64,
    },
    /// Mean per-sample increase over the trailing `window` samples
    /// strictly above `rate`.
    TrendAbove {
        /// Trailing window length in samples (≥ 2).
        window: usize,
        /// Per-sample rate-of-change limit.
        rate: f64,
    },
    /// `max − min` over the trailing `window` samples strictly below
    /// `eps` (the signal stalled).
    Flatline {
        /// Trailing window length in samples (≥ 2).
        window: usize,
        /// Envelope epsilon.
        eps: f64,
    },
    /// Latest value strictly below `ratio ×` the trailing window's
    /// maximum (dt collapse / blow-up precursor).
    DtCollapse {
        /// Trailing window length in samples (≥ 2).
        window: usize,
        /// Collapse ratio in `(0, 1)`.
        ratio: f64,
    },
}

impl RuleKind {
    /// The condition kind without its parameters: what alert edges,
    /// trace instants and reports name.
    pub fn alert_kind(&self) -> AlertKind {
        match self {
            RuleKind::Above { .. } => AlertKind::Above,
            RuleKind::Below { .. } => AlertKind::Below,
            RuleKind::TrendAbove { .. } => AlertKind::Trend,
            RuleKind::Flatline { .. } => AlertKind::Flatline,
            RuleKind::DtCollapse { .. } => AlertKind::DtCollapse,
        }
    }
}

/// One declarative alert rule.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    /// Alert name (lands in reports, gauges, and trace args).
    pub name: String,
    /// Store channel the rule watches.
    pub channel: String,
    /// Condition.
    pub kind: RuleKind,
    /// Consecutive violating evaluations required to fire (≥ 1).
    pub for_samples: u32,
    /// Consecutive satisfied evaluations required to clear (≥ 1).
    pub clear_samples: u32,
}

/// A firing or clearing edge produced by [`Watchdog::eval`].
#[derive(Debug, Clone, PartialEq)]
pub struct AlertEvent {
    /// Rule name.
    pub rule: String,
    /// Rule index in the watchdog's rule list.
    pub rule_index: usize,
    /// Condition kind of the rule.
    pub kind: AlertKind,
    /// `true` on a fire edge, `false` on a clear edge.
    pub firing: bool,
    /// Solver step at evaluation time.
    pub step: u64,
    /// Simulated time at evaluation time.
    pub time: f64,
    /// The channel's latest value when the edge happened.
    pub value: f64,
}

#[derive(Debug, Clone, Default)]
struct RuleState {
    firing: bool,
    violate_streak: u32,
    satisfy_streak: u32,
    fired_count: u32,
}

/// Stateful rule evaluator over a [`SeriesStore`].
#[derive(Debug, Clone)]
pub struct Watchdog {
    rules: Vec<Rule>,
    states: Vec<RuleState>,
}

impl Watchdog {
    /// A watchdog over the given rules.
    pub fn new(rules: Vec<Rule>) -> Watchdog {
        for r in &rules {
            assert!(r.for_samples >= 1 && r.clear_samples >= 1, "hysteresis counts must be >= 1");
        }
        let states = vec![RuleState::default(); rules.len()];
        Watchdog { rules, states }
    }

    /// The default geodynamo ruleset: dt collapse as the blow-up
    /// precursor, plus a stalled-dynamo flatline on magnetic energy.
    pub fn default_rules() -> Vec<Rule> {
        vec![
            Rule {
                name: "energy_blowup".to_string(),
                channel: "dt".to_string(),
                kind: RuleKind::DtCollapse { window: 16, ratio: 0.5 },
                for_samples: 2,
                clear_samples: 4,
            },
            Rule {
                name: "dynamo_stall".to_string(),
                channel: "magnetic".to_string(),
                kind: RuleKind::Flatline { window: 64, eps: 1e-14 },
                for_samples: 4,
                clear_samples: 4,
            },
        ]
    }

    /// The rules, in index order.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// Whether rule `i` is currently firing.
    pub fn is_firing(&self, i: usize) -> bool {
        self.states.get(i).map(|s| s.firing).unwrap_or(false)
    }

    /// How many times rule `i` has fired so far.
    pub fn fired_count(&self, i: usize) -> u32 {
        self.states.get(i).map(|s| s.fired_count).unwrap_or(0)
    }

    /// Does the rule's condition hold on the store right now? `None`
    /// when the channel is missing or the window is not yet full (a
    /// not-yet-warm rule neither violates nor satisfies).
    fn violated(rule: &Rule, store: &SeriesStore) -> Option<bool> {
        let c = store.channel(&rule.channel)?;
        let latest = c.latest()?;
        match rule.kind {
            RuleKind::Above { threshold } => Some(latest > threshold),
            RuleKind::Below { threshold } => Some(latest < threshold),
            RuleKind::TrendAbove { window, rate } => {
                let w = c.tail_values(window);
                if w.len() < window || window < 2 {
                    return None;
                }
                let slope = (w[w.len() - 1] - w[0]) / (w.len() - 1) as f64;
                Some(slope > rate)
            }
            RuleKind::Flatline { window, eps } => {
                let w = c.tail_values(window);
                if w.len() < window || window < 2 {
                    return None;
                }
                let min = w.iter().copied().fold(f64::INFINITY, f64::min);
                let max = w.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                Some(max - min < eps)
            }
            RuleKind::DtCollapse { window, ratio } => {
                let w = c.tail_values(window);
                if w.len() < 2 {
                    return None;
                }
                let max = w.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                Some(latest < ratio * max)
            }
        }
    }

    /// Evaluate every rule against the store's current contents
    /// (call once per pushed row). Returns the fire/clear edges this
    /// evaluation produced.
    pub fn eval(&mut self, store: &SeriesStore, step: u64, time: f64) -> Vec<AlertEvent> {
        let mut edges = Vec::new();
        for (i, rule) in self.rules.iter().enumerate() {
            let st = &mut self.states[i];
            let Some(violated) = Self::violated(rule, store) else {
                continue;
            };
            if violated {
                st.violate_streak += 1;
                st.satisfy_streak = 0;
            } else {
                st.satisfy_streak += 1;
                st.violate_streak = 0;
            }
            let value = store.channel(&rule.channel).and_then(|c| c.latest()).unwrap_or(f64::NAN);
            let fires = !st.firing && st.violate_streak >= rule.for_samples;
            let clears = st.firing && st.satisfy_streak >= rule.clear_samples;
            if fires || clears {
                st.firing = fires;
                st.fired_count += fires as u32;
                edges.push(AlertEvent {
                    rule: rule.name.clone(),
                    rule_index: i,
                    kind: rule.kind.alert_kind(),
                    firing: fires,
                    step,
                    time,
                    value,
                });
            }
        }
        edges
    }
}

/// The value of `key=` parsed as `T`; `default` when the key is absent
/// (`None`: the key is required).
fn param<T: FromStr>(params: &[(&str, &str)], key: &str, default: Option<T>) -> Result<T, String>
{
    match params.iter().find(|(k, _)| *k == key) {
        Some((_, v)) => v.parse().map_err(|_| format!("{key}={v} does not parse")),
        None => default.ok_or_else(|| format!("needs {key}=")),
    }
}

/// Parse the line-oriented rule format (`name: channel kind k=v ...`;
/// `#` comments and blank lines ignored). See the module docs for
/// examples and the per-kind parameters. A key the kind does not read
/// and a value that does not parse are errors naming the line, like a
/// malformed line: a rule that can never fire must not load.
pub fn parse_rules(text: &str) -> Result<Vec<Rule>, String> {
    let mut rules = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let err = |msg: &str| format!("rules line {}: {msg}: {raw:?}", lineno + 1);
        let (name, rest) = line.split_once(':').ok_or_else(|| err("missing `name:`"))?;
        let mut toks = rest.split_whitespace();
        let channel = toks.next().ok_or_else(|| err("missing channel"))?;
        let kind_tok = toks.next().ok_or_else(|| err("missing kind"))?;
        let params: Vec<(&str, &str)> = toks
            .map(|t| {
                t.split_once('=').ok_or_else(|| err(&format!("bad param {t:?} (want key=value)")))
            })
            .collect::<Result<_, _>>()?;
        let keys: &[&str] = match kind_tok {
            "above" | "below" => &["threshold"],
            "trend_above" => &["window", "rate"],
            "flatline" => &["window", "eps"],
            "dt_collapse" => &["window", "ratio"],
            other => return Err(err(&format!("unknown kind {other:?}"))),
        };
        let known = |k: &&str| keys.contains(k) || ["for", "clear"].contains(k);
        if let Some((k, _)) = params.iter().find(|(k, _)| !known(k)) {
            return Err(err(&format!("unknown key {k:?} for {kind_tok}")));
        }
        let fail = |m: String| err(&format!("{kind_tok} {m}"));
        let num = |key, default| param::<f64>(&params, key, default).map_err(fail);
        let window = || param::<usize>(&params, "window", Some(16)).map(|w| w.max(2)).map_err(fail);
        let count = |key| param::<u32>(&params, key, Some(1)).map(|n| n.max(1)).map_err(fail);
        let kind = match kind_tok {
            "above" => RuleKind::Above { threshold: num("threshold", None)? },
            "below" => RuleKind::Below { threshold: num("threshold", None)? },
            "trend_above" => RuleKind::TrendAbove { window: window()?, rate: num("rate", None)? },
            "flatline" => RuleKind::Flatline { window: window()?, eps: num("eps", None)? },
            // "dt_collapse": the `keys` match returned on every other kind.
            _ => RuleKind::DtCollapse { window: window()?, ratio: num("ratio", Some(0.5))? },
        };
        rules.push(Rule {
            name: name.trim().to_string(),
            channel: channel.to_string(),
            kind,
            for_samples: count("for")?,
            clear_samples: count("clear")?,
        });
    }
    Ok(rules)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::series::SeriesStore;
    use yy_testkit::{check, tk_assert};

    fn store(names: &[&str]) -> SeriesStore {
        SeriesStore::new(names, 64)
    }

    #[test]
    fn threshold_rule_fires_after_for_and_clears_after_clear() {
        let mut s = store(&["kinetic"]);
        let mut w = Watchdog::new(vec![Rule {
            name: "hot".into(),
            channel: "kinetic".into(),
            kind: RuleKind::Above { threshold: 10.0 },
            for_samples: 2,
            clear_samples: 3,
        }]);
        let mut edges = Vec::new();
        for &v in &[1.0, 20.0, 20.0, 20.0, 1.0, 1.0, 1.0, 1.0] {
            s.push_row(&[v]);
            edges.extend(w.eval(&s, 0, 0.0));
        }
        assert_eq!(edges.len(), 2);
        assert!(edges[0].firing && edges[0].value == 20.0);
        assert!(!edges[1].firing);
        assert_eq!(w.fired_count(0), 1);
        assert!(!w.is_firing(0));
    }

    #[test]
    fn dt_collapse_rule_is_the_nan_precursor() {
        let mut s = store(&["dt"]);
        let mut w = Watchdog::new(vec![Rule {
            name: "energy_blowup".into(),
            channel: "dt".into(),
            kind: RuleKind::DtCollapse { window: 8, ratio: 0.5 },
            for_samples: 2,
            clear_samples: 4,
        }]);
        let mut fired = false;
        // Healthy plateau, then the CFL step starts halving each sample.
        let mut dt = 1e-3;
        for i in 0..12 {
            if i >= 6 {
                dt *= 0.5;
            }
            s.push_row(&[dt]);
            for e in w.eval(&s, i, i as f64) {
                assert!(e.firing, "collapse only deepens; no clear expected");
                assert_eq!(e.rule, "energy_blowup");
                fired = true;
            }
        }
        assert!(fired, "halving dt must trip the collapse rule");
        assert!(w.is_firing(0));
    }

    #[test]
    fn flatline_and_trend_need_a_full_window() {
        let mut s = store(&["m"]);
        let mut w = Watchdog::new(vec![
            Rule {
                name: "stall".into(),
                channel: "m".into(),
                kind: RuleKind::Flatline { window: 4, eps: 1e-9 },
                for_samples: 1,
                clear_samples: 1,
            },
            Rule {
                name: "runaway".into(),
                channel: "m".into(),
                kind: RuleKind::TrendAbove { window: 4, rate: 0.5 },
                for_samples: 1,
                clear_samples: 1,
            },
        ]);
        // Three flat samples: window not full, nothing may fire.
        for i in 0..3 {
            s.push_row(&[5.0]);
            assert!(w.eval(&s, i, 0.0).is_empty());
        }
        // Fourth flat sample completes the window: stall fires.
        s.push_row(&[5.0]);
        let edges = w.eval(&s, 3, 0.0);
        assert_eq!(edges.len(), 1);
        assert_eq!(edges[0].rule, "stall");
        // A steep ramp fires the trend rule and clears the stall.
        for (i, v) in [10.0, 20.0, 30.0, 40.0].into_iter().enumerate() {
            s.push_row(&[v]);
            for e in w.eval(&s, 4 + i as u64, 0.0) {
                match e.rule.as_str() {
                    "stall" => assert!(!e.firing),
                    "runaway" => assert!(e.firing),
                    other => panic!("unexpected rule {other}"),
                }
            }
        }
        assert!(w.is_firing(1));
        assert!(!w.is_firing(0));
    }

    #[test]
    fn rules_parse_from_the_line_format() {
        let text = "\
# geodynamo defaults
energy_blowup: dt dt_collapse window=16 ratio=0.5 for=2 clear=4
kinetic_high:  kinetic above threshold=1e6
dynamo_stall:  magnetic flatline window=64 eps=1e-12  # trailing comment
";
        let rules = parse_rules(text).expect("parses");
        assert_eq!(rules.len(), 3);
        assert_eq!(rules[0].name, "energy_blowup");
        assert_eq!(rules[0].kind, RuleKind::DtCollapse { window: 16, ratio: 0.5 });
        assert_eq!(rules[0].for_samples, 2);
        assert_eq!(rules[0].clear_samples, 4);
        assert_eq!(rules[1].kind, RuleKind::Above { threshold: 1e6 });
        assert_eq!(rules[2].channel, "magnetic");
        let example = include_str!("../../../examples/watch.rules");
        assert_eq!(parse_rules(example).map(|r| r.len()), Ok(4), "the shipped sample loads");
        for (bad, why) in [
            ("bad line with no colon", "missing `name:`"),
            ("x: chan unknown_kind", "unknown kind \"unknown_kind\""),
            ("x: chan above", "above needs threshold="),
            ("\n\nx: chan dt_collapse windw=8", "rules line 3: unknown key \"windw\""),
            ("x: chan above threshold=1 eps=2", "unknown key \"eps\" for above"),
            ("x: chan dt_collapse window=abc", "dt_collapse window=abc does not parse"),
            ("x: chan above threshold=1 for=x", "above for=x does not parse"),
            ("x: chan dt_collapse ratio=x", "dt_collapse ratio=x does not parse"),
            ("x: chan flatline eps=1e-9 clear=-1", "flatline clear=-1 does not parse"),
        ] {
            let e = parse_rules(bad).expect_err(bad);
            assert!(e.starts_with("rules line ") && e.contains(why), "{bad:?}: {e}");
        }
    }

    #[test]
    fn default_rules_include_the_blowup_precursor() {
        let rules = Watchdog::default_rules();
        assert!(rules.iter().any(|r| r.name == "energy_blowup" && r.channel == "dt"));
        assert!(rules.iter().any(|r| r.kind.alert_kind() == AlertKind::DtCollapse));
    }

    /// Edge discipline under arbitrary signals and hysteresis counts:
    /// fire and clear edges strictly alternate (never two fires without
    /// a clear between them), no matter how the signal crosses the
    /// threshold or how soon the raw ring wraps.
    #[test]
    fn hysteresis_never_double_fires() {
        check(
            "watch_hysteresis_alternates",
            |g| {
                let for_s = g.range_usize(1, 5) as u32;
                let clear_s = g.range_usize(1, 5) as u32;
                let threshold = g.range_f64(-1.0, 1.0);
                let signal = g.vec_f64(-2.0, 2.0, 1, 300);
                // Small raw capacity: the ring wraps constantly.
                let raw_cap = g.range_usize(1, 12);
                (for_s, clear_s, threshold, signal, raw_cap)
            },
            |(for_s, clear_s, threshold, signal, raw_cap)| {
                let mut s = SeriesStore::new(&["x"], *raw_cap);
                let mut w = Watchdog::new(vec![Rule {
                    name: "r".into(),
                    channel: "x".into(),
                    kind: RuleKind::Above { threshold: *threshold },
                    for_samples: *for_s,
                    clear_samples: *clear_s,
                }]);
                let mut last_edge: Option<bool> = None;
                let mut fires = 0u32;
                for (i, &v) in signal.iter().enumerate() {
                    s.push_row(&[v]);
                    for e in w.eval(&s, i as u64, 0.0) {
                        tk_assert!(
                            last_edge != Some(e.firing),
                            "edge {} repeated at sample {i}",
                            e.firing
                        );
                        last_edge = Some(e.firing);
                        if e.firing {
                            fires += 1;
                        }
                    }
                }
                tk_assert!(w.fired_count(0) == fires, "fired_count matches fire edges");
                // A firing watchdog saw its last edge as a fire.
                if w.is_firing(0) {
                    tk_assert!(last_edge == Some(true), "firing implies last edge was a fire");
                }
                Ok(())
            },
        );
    }
}
