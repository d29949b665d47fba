//! The perf doctor: offline/inline diagnosis over flight-recorder
//! contents — the layer that *interprets* what the rest of `yy-obs`
//! collects.
//!
//! Two engines, both pure functions over per-rank event streams (so
//! they run post-hoc on [`crate::RecorderSet`] snapshots, on a re-parsed
//! Chrome trace, or on synthetic streams in tests — and can never
//! perturb the solver):
//!
//! 1. **Per-step critical path** ([`analyze`]) — segment each rank's
//!    stream by `StepBegin`, find per step the rank whose phase work
//!    finished *last* (the gating rank) and the phase that dominated its
//!    step (the gating phase), and aggregate into a gating-phase
//!    histogram plus a per-rank "times on critical path" table.
//! 2. **Straggler & imbalance attribution** — per-rank compute walls vs
//!    the mean (read against the partitioner's predicted imbalance),
//!    send→recv lag asymmetry (a sender whose receivers consistently
//!    wait on it longer than on its peers), and writer-backpressure skew,
//!    folded into a ranked suspect list with a stated [`Reason`].
//!
//! Analysis degrades gracefully under ring wraparound: the fixed-capacity
//! recorder keeps only the newest events, so [`Analysis::coverage`]
//! reports the retained fraction and the step walk simply analyzes the
//! steps every rank still has — never panicking on a truncated stream.

use crate::event::{code_table, Event, Phase, TimedEvent};
use crate::json::{escape, num, Json};
use std::collections::{BTreeMap, HashMap};

code_table! {
    /// Why a rank is a straggler suspect.
    pub enum Reason {
        /// The rank's stencil/compute wall is far above the mean (bad tile,
        /// or slow node).
        SlowCompute = 0 => "slow compute",
        /// The rank's *sent* messages arrive late at their receivers (its
        /// peers stall in `wait` through no fault of their own).
        LateSender = 1 => "late sender",
        /// The rank spends disproportionate time blocked on the async
        /// output writer's buffer pool.
        IoBackpressure = 2 => "io backpressure",
    }
}

/// Everything [`analyze`] consumes.
pub struct AnalysisInput<'a> {
    /// Per-rank event streams, oldest → newest (world-rank indexed, as
    /// [`crate::RecorderSet::snapshots`] returns them).
    pub streams: &'a [Vec<TimedEvent>],
    /// Per-rank `(events recorded ever, ring capacity)` for the
    /// wraparound coverage fraction. Empty ⇒ streams are complete.
    pub retained: Vec<(u64, usize)>,
    /// The partitioner's predicted compute imbalance (1.0 when unknown);
    /// quoted in slow-compute details so a "straggler" that the layout
    /// *predicted* reads differently from an unexpected one.
    pub predicted_imbalance: f64,
}

/// One row of the gating-phase histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseGate {
    /// The gating phase.
    pub phase: Phase,
    /// Steps this phase gated.
    pub steps: u64,
}

/// One ranked straggler suspect.
#[derive(Debug, Clone, PartialEq)]
pub struct Straggler {
    /// World rank of the suspect.
    pub rank: u32,
    /// The strongest signal against the rank.
    pub reason: Reason,
    /// Dimensionless severity (ratio vs the peer median/mean; higher is
    /// worse). Comparable across reasons for ranking purposes.
    pub severity: f64,
    /// Human-readable evidence line.
    pub detail: String,
}

/// A recovery-plane event that sat on the run's critical path (a kill,
/// rollback, retile or degraded-mode entry — each one stalls every
/// rank).
#[derive(Debug, Clone, PartialEq)]
pub struct Disruption {
    /// World rank the event is attributed to (−1 for collective events
    /// like retiles, which every rank records).
    pub rank: i64,
    /// Solver step (kills) or resume step (rollback/retile).
    pub step: u64,
    /// Kind: `kill`, `rollback`, `retile <pth>x<pph>`, `degraded`.
    pub kind: String,
}

/// The diagnosis: what [`analyze`] found, what `yycore doctor` prints,
/// and what lands in the report's v5 `analysis` section.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Analysis {
    /// Steps with a complete phase segment on every rank.
    pub steps_analyzed: u64,
    /// Fraction of recorded events still in the rings (min over ranks);
    /// < 1.0 means wraparound evicted history and the step walk covers
    /// only what survived. 0.0 on an empty/absent analysis.
    pub coverage: f64,
    /// Gating-phase histogram, most-gating first.
    pub gating: Vec<PhaseGate>,
    /// `rank_path[r]` = steps rank `r` gated (world-rank indexed).
    pub rank_path: Vec<u64>,
    /// Ranked straggler suspects, worst first.
    pub stragglers: Vec<Straggler>,
    /// Recovery events on the critical path, in stream order.
    pub disruptions: Vec<Disruption>,
    /// One-line human summary.
    pub verdict: String,
}

impl Analysis {
    /// Human rendering — the tables `yycore doctor` prints. `source`
    /// names the artifact the diagnosis came from.
    pub fn render(&self, source: &str) -> String {
        let mut out = format!("doctor: {source}\n  verdict: {}\n", self.verdict);
        out.push_str(&format!(
            "  steps analyzed: {} (ring coverage {:.0}%)\n",
            self.steps_analyzed,
            self.coverage * 100.0
        ));
        if !self.gating.is_empty() {
            out.push_str("  gating phases:\n");
            for g in &self.gating {
                let share = if self.steps_analyzed > 0 {
                    100.0 * g.steps as f64 / self.steps_analyzed as f64
                } else {
                    0.0
                };
                out.push_str(&format!(
                    "    {:<12} {:>6} step(s)  {:>5.1}%\n",
                    g.phase.name(),
                    g.steps,
                    share
                ));
            }
        }
        if self.rank_path.iter().any(|&n| n > 0) {
            out.push_str("  critical-path appearances by rank:\n");
            for (r, n) in self.rank_path.iter().enumerate().filter(|(_, &n)| n > 0) {
                out.push_str(&format!("    rank {r:<4} {n:>6} step(s)\n"));
            }
        }
        if !self.stragglers.is_empty() {
            out.push_str("  stragglers (worst first):\n");
            for s in &self.stragglers {
                out.push_str(&format!(
                    "    rank {}: {} (severity x{:.2}) -- {}\n",
                    s.rank,
                    s.reason.name(),
                    s.severity,
                    s.detail
                ));
            }
        }
        for d in &self.disruptions {
            if d.rank >= 0 {
                out.push_str(&format!(
                    "  critical-path disruption: {} on rank {} at step {}\n",
                    d.kind, d.rank, d.step
                ));
            } else {
                out.push_str(&format!(
                    "  critical-path disruption: {} at step {}\n",
                    d.kind, d.step
                ));
            }
        }
        out
    }

    /// Serialize as the report's `analysis` section object.
    pub fn to_json(&self) -> String {
        let gating: Vec<String> = self
            .gating
            .iter()
            .map(|g| format!(r#"{{"phase":"{}","steps":{}}}"#, g.phase.name(), g.steps))
            .collect();
        let ranks: Vec<String> = self.rank_path.iter().map(|n| n.to_string()).collect();
        let stragglers: Vec<String> = self
            .stragglers
            .iter()
            .map(|s| {
                format!(
                    r#"{{"rank":{},"reason":"{}","severity":{},"detail":"{}"}}"#,
                    s.rank,
                    s.reason.name(),
                    num(s.severity),
                    escape(&s.detail)
                )
            })
            .collect();
        let disruptions: Vec<String> = self
            .disruptions
            .iter()
            .map(|d| {
                format!(r#"{{"rank":{},"step":{},"kind":"{}"}}"#, d.rank, d.step, escape(&d.kind))
            })
            .collect();
        format!(
            r#"{{"steps_analyzed":{},"coverage":{},"gating":[{}],"rank_path":[{}],"stragglers":[{}],"disruptions":[{}],"verdict":"{}"}}"#,
            self.steps_analyzed,
            num(self.coverage),
            gating.join(","),
            ranks.join(","),
            stragglers.join(","),
            disruptions.join(","),
            escape(&self.verdict),
        )
    }

    /// Parse the `analysis` section object back (doctor's offline
    /// report mode; also the roundtrip test). A phase or reason name
    /// outside the tables is an error.
    pub fn from_json(j: &Json) -> Result<Analysis, String> {
        let items = |key: &str| j.arr_at(key).unwrap_or(&[]).iter();
        let count = |j: &Json, key: &str| j.f64_at(key).unwrap_or(0.0) as u64;
        let text = |j: &Json, key: &str| j.str_at(key).unwrap_or("").to_string();
        Ok(Analysis {
            steps_analyzed: j.f64_at("steps_analyzed").ok_or("analysis: missing steps_analyzed")?
                as u64,
            coverage: j.f64_at("coverage").unwrap_or(0.0),
            gating: items("gating")
                .map(|g| {
                    let name = g.str_at("phase").unwrap_or("");
                    let phase = Phase::from_name(name)
                        .ok_or_else(|| format!("analysis: unknown gating phase {name:?}"))?;
                    Ok(PhaseGate { phase, steps: count(g, "steps") })
                })
                .collect::<Result<_, String>>()?,
            rank_path: items("rank_path").map(|r| r.as_f64().unwrap_or(0.0) as u64).collect(),
            stragglers: items("stragglers")
                .map(|s| {
                    let name = s.str_at("reason").unwrap_or("");
                    let reason = Reason::from_name(name)
                        .ok_or_else(|| format!("analysis: unknown straggler reason {name:?}"))?;
                    Ok(Straggler {
                        rank: s.f64_at("rank").unwrap_or(0.0) as u32,
                        reason,
                        severity: s.f64_at("severity").unwrap_or(0.0),
                        detail: text(s, "detail"),
                    })
                })
                .collect::<Result<_, String>>()?,
            disruptions: items("disruptions")
                .map(|d| Disruption {
                    rank: d.f64_at("rank").unwrap_or(-1.0) as i64,
                    step: count(d, "step"),
                    kind: text(d, "kind"),
                })
                .collect(),
            verdict: text(j, "verdict"),
        })
    }
}

/// One rank's phase work inside one step.
#[derive(Default, Clone)]
struct Segment {
    phase_ns: [u64; Phase::COUNT],
    /// Timestamp of the last phase span recorded in this segment (phase
    /// spans are end-stamped, so this is when the rank's step work
    /// finished).
    end_ts: u64,
    /// Receives matched inside the segment: `(src, tag16, seq, ts,
    /// posted)`; `posted` is when the wait span that matched it began.
    recvs: Vec<(u32, u16, u64, u64, Option<u64>)>,
    /// How many of `recvs` a phase span has closed.
    spanned: usize,
}

/// Run the critical-path + straggler diagnosis over per-rank streams.
///
/// Never panics: streams truncated by ring wraparound, streams with no
/// `StepBegin` markers, and empty inputs all produce a (possibly empty)
/// [`Analysis`] whose `coverage`/`steps_analyzed` say how much evidence
/// survived.
pub fn analyze(input: &AnalysisInput) -> Analysis {
    let nranks = input.streams.len();
    if nranks == 0 {
        return Analysis::default();
    }
    // Pass 1: per-rank step segments, phase totals, the global send map,
    // and the recovery-plane disruptions.
    let mut segs: Vec<BTreeMap<u64, Segment>> = vec![BTreeMap::new(); nranks];
    let mut totals = vec![[0u64; Phase::COUNT]; nranks];
    // (src, dst, tag16, seq) -> send timestamps, oldest first. Sequence
    // numbers restart on every supervised pass, so a key can legally
    // repeat; receive matching picks the newest send at or before the
    // receive.
    let mut sends: HashMap<(u32, u32, u16, u64), Vec<u64>> = HashMap::new();
    let mut kills: Vec<(usize, u64, u64)> = Vec::new(); // (rank, step, ts)
    let mut collective: BTreeMap<(u64, u64, String), u64> = BTreeMap::new(); // dedup record_all
    for (r, stream) in input.streams.iter().enumerate() {
        let mut cur: Option<u64> = None;
        for te in stream {
            match te.event {
                Event::StepBegin { step } => {
                    cur = Some(step);
                    // A replayed step (post-rollback) overwrites the
                    // abandoned pass's segment: newest evidence wins.
                    segs[r].insert(step, Segment::default());
                }
                Event::Phase { phase: p, dur_ns } => {
                    totals[r][p as usize] += dur_ns;
                    if let Some(s) = cur {
                        if let Some(seg) = segs[r].get_mut(&s) {
                            seg.phase_ns[p as usize] += dur_ns;
                            seg.end_ts = seg.end_ts.max(te.ts_ns);
                            // A wait span ends just after the receives it
                            // matched: the rank posted them as it began.
                            if p == Phase::Wait {
                                let began = Some(te.ts_ns.saturating_sub(dur_ns));
                                seg.recvs[seg.spanned..].iter_mut().for_each(|r| r.4 = began);
                            }
                            seg.spanned = seg.recvs.len();
                        }
                    }
                }
                Event::Send { peer, tag16, seq, .. } => {
                    sends.entry((r as u32, peer, tag16, seq)).or_default().push(te.ts_ns);
                }
                Event::Recv { peer, tag16, seq, .. } => {
                    if let Some(s) = cur {
                        if let Some(seg) = segs[r].get_mut(&s) {
                            seg.recvs.push((peer, tag16, seq, te.ts_ns, None));
                        }
                    }
                }
                Event::KillInjected { step } => kills.push((r, step, te.ts_ns)),
                Event::Rollback { pass, resume_step } => {
                    collective.insert((pass, resume_step, "rollback".into()), resume_step);
                }
                Event::Retile { pth, pph, pass, resume_step } => {
                    collective.insert((pass, resume_step, format!("retile {pth}x{pph}")), resume_step);
                }
                Event::Degraded { pass, checkpoint_every } => {
                    collective.insert((pass, checkpoint_every, "degraded".into()), 0);
                }
                _ => {}
            }
        }
    }

    // Send→recv lag: how long the receiver waited for each message, from
    // the later of the send and the start of its wait span. Under an
    // injected per-sender delay (or a genuinely slow sender) this is the
    // stall its receivers cannot hide; a receive no wait span measured (a
    // collective's) has none.
    type Recv = (u16, u64, u64, Option<u64>);
    let lag_of = |src: u32, dst: u32, (tag16, seq, recv_ts, posted): Recv| -> Option<u64> {
        let posted = posted?;
        let ts_list = sends.get(&(src, dst, tag16, seq))?;
        let sent = ts_list.iter().rev().find(|&&t| t <= recv_ts).or(ts_list.first())?;
        Some(recv_ts.saturating_sub((*sent).max(posted)))
    };
    let mut lag_sum = vec![0u64; nranks];
    let mut lag_n = vec![0u64; nranks];

    // Pass 2: the per-step critical path over steps every rank covered.
    let common: Vec<u64> = match segs.first() {
        Some(first) => first
            .iter()
            .filter(|(_, s)| s.end_ts > 0)
            .map(|(&step, _)| step)
            .filter(|step| {
                segs.iter().all(|m| m.get(step).map(|s| s.end_ts > 0).unwrap_or(false))
            })
            .collect(),
        None => Vec::new(),
    };
    let mut gating_steps = [0u64; Phase::COUNT];
    let mut rank_path = vec![0u64; nranks];
    let mut wait_blame = vec![0u64; nranks]; // steps a rank's late send gated a peer's wait
    for &step in &common {
        // Both ranges are non-empty: nranks == 0 returned above, and
        // `Phase::ALL` is a non-empty table.
        let gater = (0..nranks).max_by_key(|&r| segs[r][&step].end_ts).expect("nranks > 0");
        let seg = &segs[gater][&step];
        let gphase = Phase::ALL
            .into_iter()
            .max_by_key(|&p| seg.phase_ns[p as usize])
            .expect("Phase::ALL is non-empty");
        rank_path[gater] += 1;
        gating_steps[gphase as usize] += 1;
        if gphase == Phase::Wait {
            // The gating rank stalled in receives: blame the sender of
            // its latest-arriving message relative to the send time.
            let late = seg
                .recvs
                .iter()
                .filter_map(|&(src, tag, seq, ts, posted)| {
                    lag_of(src, gater as u32, (tag, seq, ts, posted)).map(|lag| (src, lag))
                })
                .max_by_key(|&(_, lag)| lag);
            if let Some((src, _)) = late {
                if (src as usize) < nranks {
                    wait_blame[src as usize] += 1;
                }
            }
        }
    }
    // Lag statistics over every matched receive (not only gating steps),
    // so the late-sender signal survives even when waits were hidden.
    for (r, m) in segs.iter().enumerate() {
        for seg in m.values() {
            for &(src, tag, seq, ts, posted) in &seg.recvs {
                if let Some(lag) = lag_of(src, r as u32, (tag, seq, ts, posted)) {
                    if (src as usize) < nranks {
                        lag_sum[src as usize] += lag;
                        lag_n[src as usize] += 1;
                    }
                }
            }
        }
    }

    // Straggler attribution: strongest signal per rank, ranked.
    let compute: Vec<u64> = totals
        .iter()
        .map(|t| {
            [Phase::Pack, Phase::Interior, Phase::Boundary, Phase::Overset]
                .iter()
                .map(|&p| t[p as usize])
                .sum()
        })
        .collect();
    let mean_compute = (compute.iter().sum::<u64>() as f64 / nranks as f64).max(1.0);
    let lag_mean: Vec<f64> =
        (0..nranks).map(|r| if lag_n[r] == 0 { 0.0 } else { lag_sum[r] as f64 / lag_n[r] as f64 }).collect();
    let mut sorted_lags = lag_mean.clone();
    sorted_lags.sort_by(|a, b| a.total_cmp(b));
    // Lower median, so a single outlier among few ranks cannot drag the
    // baseline up to itself.
    let lag_median = sorted_lags[(nranks - 1) / 2];
    let writer: Vec<u64> = totals.iter().map(|t| t[Phase::WriterWait as usize]).collect();
    let mean_writer = (writer.iter().sum::<u64>() as f64 / nranks as f64).max(1.0);
    let mut stragglers: Vec<Straggler> = Vec::new();
    for r in 0..nranks {
        let mut best: Option<Straggler> = None;
        let mut consider = |s: Straggler| {
            if best.as_ref().map_or(true, |b| s.severity > b.severity) {
                best = Some(s);
            }
        };
        let compute_ratio = compute[r] as f64 / mean_compute;
        if compute_ratio > 1.10 {
            consider(Straggler {
                rank: r as u32,
                reason: Reason::SlowCompute,
                severity: compute_ratio,
                detail: format!(
                    "compute wall {:.2}x the rank mean (predicted imbalance {:.2})",
                    compute_ratio, input.predicted_imbalance
                ),
            });
        }
        if lag_mean[r] > 50_000.0 && lag_mean[r] > 2.0 * lag_median.max(1.0) {
            consider(Straggler {
                rank: r as u32,
                reason: Reason::LateSender,
                severity: lag_mean[r] / lag_median.max(1_000.0),
                detail: format!(
                    "mean send->recv lag {:.0}us vs median {:.0}us; gated peers' wait {} time(s)",
                    lag_mean[r] / 1e3,
                    lag_median / 1e3,
                    wait_blame[r]
                ),
            });
        }
        // The mean includes the suspect, so one offender among n ranks
        // caps the ratio at n — use ≥ so 2-rank layouts can still trip.
        let writer_ratio = writer[r] as f64 / mean_writer;
        if writer[r] > 1_000_000 && writer_ratio >= 2.0 {
            consider(Straggler {
                rank: r as u32,
                reason: Reason::IoBackpressure,
                severity: writer_ratio,
                detail: format!(
                    "writer backpressure {:.1}ms, {:.2}x the rank mean",
                    writer[r] as f64 / 1e6,
                    writer_ratio
                ),
            });
        }
        if let Some(s) = best {
            stragglers.push(s);
        }
    }
    stragglers.sort_by(|a, b| b.severity.total_cmp(&a.severity));

    // Disruptions in a stable order: kills (by time), then the deduped
    // collective recovery events.
    let mut disruptions: Vec<Disruption> = Vec::new();
    kills.sort_by_key(|&(_, _, ts)| ts);
    for (r, step, _) in &kills {
        disruptions.push(Disruption { rank: *r as i64, step: *step, kind: "kill".into() });
    }
    for ((_, _, kind), step) in &collective {
        disruptions.push(Disruption { rank: -1, step: *step, kind: kind.clone() });
    }

    // Coverage: the worst retained fraction across the rings.
    let coverage = input
        .retained
        .iter()
        .map(|&(recorded, cap)| {
            if recorded == 0 || recorded <= cap as u64 {
                1.0
            } else {
                cap as f64 / recorded as f64
            }
        })
        .fold(1.0_f64, f64::min);

    let mut gating: Vec<PhaseGate> = Phase::ALL
        .into_iter()
        .map(|phase| PhaseGate { phase, steps: gating_steps[phase as usize] })
        .filter(|g| g.steps > 0)
        .collect();
    gating.sort_by(|a, b| b.steps.cmp(&a.steps));

    let steps_analyzed = common.len() as u64;
    let verdict = if steps_analyzed == 0 {
        format!("no step coverage (ring retained {:.0}% of events)", coverage * 100.0)
    } else {
        let top = &gating[0];
        let share = 100.0 * top.steps as f64 / steps_analyzed as f64;
        match stragglers.first() {
            Some(s) => format!(
                "{}-gated {:.0}% of {} steps; top straggler rank {} ({})",
                top.phase.name(),
                share,
                steps_analyzed,
                s.rank,
                s.reason.name()
            ),
            None => format!(
                "{}-gated {:.0}% of {} steps; no stragglers",
                top.phase.name(),
                share,
                steps_analyzed
            ),
        }
    };

    Analysis { steps_analyzed, coverage, gating, rank_path, stragglers, disruptions, verdict }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chrome::streams_from_chrome;
    use crate::event::TrafficClass;
    use crate::ring::FlightRecorder;

    /// Build one rank's stream: per step, a begin marker plus phase
    /// spans whose durations place the rank's work in time.
    fn rank_stream(steps: u64, step_ns: u64, wait_ns: u64, offset: u64) -> Vec<TimedEvent> {
        let mut out = Vec::new();
        let mut t = offset;
        for s in 0..steps {
            out.push(TimedEvent { ts_ns: t, event: Event::StepBegin { step: s } });
            t += step_ns;
            out.push(TimedEvent {
                ts_ns: t,
                event: Event::Phase { phase: Phase::Interior, dur_ns: step_ns },
            });
            if wait_ns > 0 {
                t += wait_ns;
                out.push(TimedEvent {
                    ts_ns: t,
                    event: Event::Phase { phase: Phase::Wait, dur_ns: wait_ns },
                });
            }
        }
        out
    }

    #[test]
    fn interior_gated_balanced_run_has_no_stragglers() {
        let streams = vec![rank_stream(6, 1000, 0, 0), rank_stream(6, 1000, 0, 50)];
        let a = analyze(&AnalysisInput { streams: &streams, retained: vec![], predicted_imbalance: 1.0 });
        assert_eq!(a.steps_analyzed, 6);
        assert_eq!(a.coverage, 1.0);
        assert_eq!(a.gating[0].phase, Phase::Interior);
        assert_eq!(a.gating[0].steps, 6);
        assert!(a.stragglers.is_empty(), "{:?}", a.stragglers);
        assert_eq!(a.rank_path.iter().sum::<u64>(), 6);
        assert!(a.verdict.contains("interior-gated"), "{}", a.verdict);
    }

    #[test]
    fn slow_rank_lands_on_the_critical_path() {
        // Rank 1 computes 3x longer: it must gate every step and be the
        // top straggler with reason "slow compute".
        let streams = vec![rank_stream(5, 1000, 0, 0), rank_stream(5, 3000, 0, 0)];
        let a = analyze(&AnalysisInput { streams: &streams, retained: vec![], predicted_imbalance: 1.0 });
        assert_eq!(a.rank_path, vec![0, 5]);
        let top = &a.stragglers[0];
        assert_eq!(top.rank, 1);
        assert_eq!(top.reason, Reason::SlowCompute);
        assert!(top.severity > 1.4, "{}", top.severity);
    }

    /// Two ranks exchanging one message per step; rank 0's sends take
    /// `lag_ns` to arrive, so rank 1 stalls in wait.
    fn late_sender_streams(steps: u64, lag_ns: u64) -> Vec<Vec<TimedEvent>> {
        let mut s0 = Vec::new();
        let mut s1 = Vec::new();
        let step_ns = 10_000u64;
        for s in 0..steps {
            let t0 = s * (step_ns + lag_ns);
            s0.push(TimedEvent { ts_ns: t0, event: Event::StepBegin { step: s } });
            s1.push(TimedEvent { ts_ns: t0, event: Event::StepBegin { step: s } });
            s0.push(TimedEvent {
                ts_ns: t0 + 100,
                event: Event::Send { peer: 1, class: TrafficClass::Halo, bytes: 800, tag16: 11, seq: s },
            });
            s1.push(TimedEvent {
                ts_ns: t0 + 200,
                event: Event::Send { peer: 0, class: TrafficClass::Halo, bytes: 800, tag16: 11, seq: s },
            });
            s0.push(TimedEvent {
                ts_ns: t0 + 300,
                event: Event::Recv { peer: 1, class: None, bytes: 800, tag16: 11, seq: s },
            });
            s0.push(TimedEvent {
                ts_ns: t0 + step_ns,
                event: Event::Phase { phase: Phase::Interior, dur_ns: step_ns },
            });
            // Rank 1's receive is delayed by the full lag.
            s1.push(TimedEvent {
                ts_ns: t0 + 100 + lag_ns,
                event: Event::Recv { peer: 0, class: None, bytes: 800, tag16: 11, seq: s },
            });
            s1.push(TimedEvent {
                ts_ns: t0 + 1000 + lag_ns,
                event: Event::Phase { phase: Phase::Wait, dur_ns: lag_ns },
            });
            s1.push(TimedEvent {
                ts_ns: t0 + 1000 + lag_ns + 2000,
                event: Event::Phase { phase: Phase::Interior, dur_ns: 2000 },
            });
        }
        vec![s0, s1]
    }

    #[test]
    fn late_sender_is_named_with_reason() {
        let streams = late_sender_streams(8, 5_000_000);
        let a = analyze(&AnalysisInput { streams: &streams, retained: vec![], predicted_imbalance: 1.0 });
        // Rank 1 stalls in wait and gates; the blame lands on rank 0.
        assert_eq!(a.gating[0].phase, Phase::Wait);
        let top = &a.stragglers[0];
        assert_eq!(top.rank, 0, "{:?}", a.stragglers);
        assert_eq!(top.reason, Reason::LateSender);
        assert!(top.detail.contains("gated peers' wait"), "{}", top.detail);
        assert!(a.verdict.contains("late sender"), "{}", a.verdict);
    }

    #[test]
    fn io_backpressure_is_attributed() {
        let mut streams = vec![rank_stream(4, 1000, 0, 0), rank_stream(4, 1000, 0, 0)];
        // Rank 1 blocked 2ms on the writer each step.
        let mut t = 4 * 1000 + 10;
        for _ in 0..4 {
            t += 2_000_000;
            streams[1].push(TimedEvent {
                ts_ns: t,
                event: Event::Phase { phase: Phase::WriterWait, dur_ns: 2_000_000 },
            });
        }
        let a = analyze(&AnalysisInput { streams: &streams, retained: vec![], predicted_imbalance: 1.0 });
        let top = &a.stragglers[0];
        assert_eq!((top.rank, top.reason), (1, Reason::IoBackpressure));
    }

    #[test]
    fn disruptions_capture_kill_and_retile() {
        let mut streams = vec![rank_stream(3, 1000, 0, 0), rank_stream(3, 1000, 0, 0)];
        streams[1].push(TimedEvent { ts_ns: 99_000, event: Event::KillInjected { step: 5 } });
        for s in streams.iter_mut() {
            s.push(TimedEvent {
                ts_ns: 100_000,
                event: Event::Retile { pth: 1, pph: 2, pass: 2, resume_step: 4 },
            });
            s.push(TimedEvent {
                ts_ns: 100_100,
                event: Event::Degraded { pass: 2, checkpoint_every: 4 },
            });
        }
        let a = analyze(&AnalysisInput { streams: &streams, retained: vec![], predicted_imbalance: 1.0 });
        assert_eq!(a.disruptions[0], Disruption { rank: 1, step: 5, kind: "kill".into() });
        // record_all stamps every rank; the retile must appear once.
        assert_eq!(a.disruptions.iter().filter(|d| d.kind == "retile 1x2").count(), 1);
        assert_eq!(a.disruptions.iter().filter(|d| d.kind == "degraded").count(), 1);
    }

    #[test]
    fn wraparound_degrades_gracefully_never_panics() {
        // Property: for any (capacity, steps) with heavy eviction, the
        // analyzer reports coverage < 1 and analyzes only surviving
        // steps — and never panics. Deterministic sweep over a seed
        // grid in lieu of a fuzzer (yy-obs has no dev-dependencies).
        for (cap, steps) in [(8usize, 40u64), (16, 100), (32, 33), (4, 9), (64, 64)] {
            let rec = FlightRecorder::new(cap, std::time::Instant::now());
            for s in 0..steps {
                let t = 10_000 * s;
                rec.record_at(t, Event::StepBegin { step: s });
                rec.record_at(t + 1_000 + s, Event::Phase { phase: Phase::Interior, dur_ns: 1000 + s });
                rec.record_at(
                    t + 2_000,
                    Event::Send { peer: 0, class: TrafficClass::Halo, bytes: 8, tag16: 11, seq: s },
                );
            }
            let stream = rec.snapshot();
            let streams = vec![stream];
            let input = AnalysisInput {
                streams: &streams,
                retained: vec![(rec.recorded(), rec.capacity())],
                predicted_imbalance: 1.0,
            };
            let a = analyze(&input);
            let evicted = 3 * steps > cap as u64;
            if evicted {
                assert!(a.coverage < 1.0, "cap {cap} steps {steps}: {}", a.coverage);
                assert!(
                    a.steps_analyzed < steps,
                    "cap {cap} steps {steps}: analyzed {}",
                    a.steps_analyzed
                );
            } else {
                assert_eq!(a.coverage, 1.0);
            }
            // Whatever survived must be internally consistent.
            assert_eq!(a.rank_path.iter().sum::<u64>(), a.steps_analyzed);
            assert!(!a.verdict.is_empty());
        }
    }

    #[test]
    fn truncated_stream_missing_step_begins_is_safe() {
        // A stream that wrapped mid-step: phase spans with no opening
        // StepBegin must not be attributed (or panic).
        let streams = vec![vec![
            TimedEvent { ts_ns: 10, event: Event::Phase { phase: Phase::Wait, dur_ns: 5 } },
            TimedEvent { ts_ns: 20, event: Event::Recv { peer: 9, class: None, bytes: 1, tag16: 1, seq: 0 } },
        ]];
        let a = analyze(&AnalysisInput { streams: &streams, retained: vec![], predicted_imbalance: 1.0 });
        assert_eq!(a.steps_analyzed, 0);
        assert!(a.verdict.contains("no step coverage"), "{}", a.verdict);
    }

    #[test]
    fn empty_input_yields_default() {
        let a = analyze(&AnalysisInput { streams: &[], retained: vec![], predicted_imbalance: 1.0 });
        assert_eq!(a, Analysis::default());
    }

    #[test]
    fn analysis_json_roundtrips() {
        let streams = late_sender_streams(4, 2_000_000);
        let mut a = analyze(&AnalysisInput { streams: &streams, retained: vec![], predicted_imbalance: 1.07 });
        a.disruptions.push(Disruption { rank: 1, step: 5, kind: "kill".into() });
        let j = Json::parse(&a.to_json()).expect("section must parse");
        let b = Analysis::from_json(&j).expect("section must decode");
        assert_eq!(a.steps_analyzed, b.steps_analyzed);
        assert_eq!(a.gating, b.gating);
        assert_eq!(a.rank_path, b.rank_path);
        assert_eq!(a.disruptions, b.disruptions);
        assert_eq!(a.verdict, b.verdict);
        assert_eq!(a.stragglers.len(), b.stragglers.len());
        assert_eq!(a.stragglers[0].reason, b.stragglers[0].reason);
        assert!((a.stragglers[0].severity - b.stragglers[0].severity).abs() < 1e-9);
        // A name outside the tables is an error, not a placeholder.
        for (from, to) in [("late sender", "lazy sender"), (r#""phase":"wait""#, r#""phase":"nap""#)] {
            let j = Json::parse(&a.to_json().replace(from, to)).unwrap();
            let err = Analysis::from_json(&j).unwrap_err();
            assert!(err.starts_with("analysis: unknown "), "{err}");
        }
        // The reader's rendering is the writer's: every section prints.
        let text = b.render("section");
        assert_eq!(text, a.render("section"));
        for want in ["doctor: section", "gating phases:", "stragglers (worst first):", "late sender",
            "critical-path disruption: kill on rank 1 at step 5"]
        {
            assert!(text.contains(want), "render lacks {want:?}:\n{text}");
        }
    }

    #[test]
    fn chrome_roundtrip_preserves_the_diagnosis() {
        use crate::chrome::{chrome_trace_json, RankTrace};
        let streams = late_sender_streams(6, 3_000_000);
        let direct = analyze(&AnalysisInput { streams: &streams, retained: vec![], predicted_imbalance: 1.0 });
        let tracks: Vec<RankTrace> = streams
            .iter()
            .enumerate()
            .map(|(rank, events)| {
                let n = events.len();
                RankTrace { rank, events: events.clone(), recorded: n as u64, capacity: n }
            })
            .collect();
        let doc = chrome_trace_json(&tracks);
        let (rebuilt, retained) = streams_from_chrome(&doc).expect("trace must re-import");
        let via_trace =
            analyze(&AnalysisInput { streams: &rebuilt, retained, predicted_imbalance: 1.0 });
        assert_eq!(direct.steps_analyzed, via_trace.steps_analyzed);
        assert_eq!(direct.coverage, via_trace.coverage);
        assert_eq!(direct.gating, via_trace.gating);
        assert_eq!(direct.rank_path, via_trace.rank_path);
        assert_eq!(direct.stragglers[0].rank, via_trace.stragglers[0].rank);
        assert_eq!(direct.stragglers[0].reason, via_trace.stragglers[0].reason);
    }

    #[test]
    fn streams_from_chrome_rejects_garbage() {
        assert!(streams_from_chrome("not json").is_err());
        assert!(streams_from_chrome("{}").is_err());
        assert!(streams_from_chrome(r#"{"traceEvents":[]}"#).is_err());
    }
}
