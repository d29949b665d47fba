//! Chrome trace-event JSON export of flight-recorder contents.
//!
//! The output is the classic `{"traceEvents":[...]}` format understood
//! by Perfetto (<https://ui.perfetto.dev>) and `chrome://tracing`: one
//! thread track per rank (`pid` 0, `tid` = world rank), solver phases as
//! complete-span `"X"` events, messages as instant `"i"` events plus
//! `"s"`/`"f"` flow arrows from the send site to the matching receive,
//! and faults/kills/health/checkpoint/rollback as instants. Timestamps
//! are microseconds (the format's unit) on the recorder set's shared
//! timeline.
//!
//! [`validate_chrome_trace`] is the export's own adversary: it re-parses
//! the JSON with [`crate::json`], checks the required keys on every
//! event, and asserts per-track timestamp monotonicity — CI runs it on
//! every post-mortem trace a faulted run produces.

use crate::event::{alert, class, counter, fault, health, phase, Event, TimedEvent};
use crate::json::num;

/// One rank's decoded flight-recorder contents, ready for export.
pub struct RankTrace {
    /// World rank (becomes the `tid` of the track).
    pub rank: usize,
    /// The rank's events, as returned by
    /// [`crate::FlightRecorder::snapshot`].
    pub events: Vec<TimedEvent>,
}

fn us(ts_ns: u64) -> String {
    num(ts_ns as f64 / 1000.0)
}

/// The flow-arrow id pairing a send with its receive: a pure mix of the
/// directed edge and the stream position, so both sides compute the same
/// id independently.
pub fn flow_id(src: u64, dst: u64, tag16: u64, seq: u64) -> u64 {
    let mut z = src
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(dst.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(tag16.wrapping_mul(0x94D0_49BB_1331_11EB))
        .wrapping_add(seq)
        .wrapping_add(1);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn push_event(out: &mut Vec<String>, rank: usize, te: &TimedEvent) {
    let tid = rank;
    match te.event {
        Event::Phase { phase: p, dur_ns } => {
            // The ring stamps a phase span at its *end*; Chrome wants
            // the start.
            let start = te.ts_ns.saturating_sub(dur_ns);
            out.push(format!(
                r#"{{"name":"{}","ph":"X","pid":0,"tid":{tid},"ts":{},"dur":{},"cat":"phase"}}"#,
                phase::name(p),
                us(start),
                us(dur_ns),
            ));
        }
        Event::Send { peer, class: c, bytes, tag16, seq } => {
            let id = flow_id(rank as u64, peer as u64, tag16 as u64, seq);
            let ts = us(te.ts_ns);
            let name = class::name(c);
            out.push(format!(
                r#"{{"name":"send {name}","ph":"i","s":"t","pid":0,"tid":{tid},"ts":{ts},"cat":"msg","args":{{"to":{peer},"bytes":{bytes},"tag":{tag16},"seq":{seq}}}}}"#,
            ));
            out.push(format!(
                r#"{{"name":"{name}","ph":"s","id":"0x{id:x}","pid":0,"tid":{tid},"ts":{ts},"cat":"msg"}}"#,
            ));
        }
        Event::Recv { peer, class: c, bytes, tag16, seq } => {
            let id = flow_id(peer as u64, rank as u64, tag16 as u64, seq);
            let ts = us(te.ts_ns);
            let name = class::name(c);
            out.push(format!(
                r#"{{"name":"recv {name}","ph":"i","s":"t","pid":0,"tid":{tid},"ts":{ts},"cat":"msg","args":{{"from":{peer},"bytes":{bytes},"tag":{tag16},"seq":{seq}}}}}"#,
            ));
            out.push(format!(
                r#"{{"name":"{name}","ph":"f","bp":"e","id":"0x{id:x}","pid":0,"tid":{tid},"ts":{ts},"cat":"msg"}}"#,
            ));
        }
        Event::FaultInjected { kind, peer, param } => out.push(format!(
            r#"{{"name":"fault {}","ph":"i","s":"t","pid":0,"tid":{tid},"ts":{},"cat":"fault","args":{{"to":{peer},"param":{param}}}}}"#,
            fault::name(kind),
            us(te.ts_ns),
        )),
        Event::KillInjected { step } => out.push(format!(
            r#"{{"name":"kill injected","ph":"i","s":"g","pid":0,"tid":{tid},"ts":{},"cat":"fault","args":{{"step":{step}}}}}"#,
            us(te.ts_ns),
        )),
        Event::HealthViolation { code, step } => out.push(format!(
            r#"{{"name":"health {}","ph":"i","s":"g","pid":0,"tid":{tid},"ts":{},"cat":"health","args":{{"step":{step}}}}}"#,
            health::name(code),
            us(te.ts_ns),
        )),
        Event::CheckpointSaved { step } => out.push(format!(
            r#"{{"name":"checkpoint","ph":"i","s":"t","pid":0,"tid":{tid},"ts":{},"cat":"ckpt","args":{{"step":{step}}}}}"#,
            us(te.ts_ns),
        )),
        Event::Rollback { pass, resume_step } => out.push(format!(
            r#"{{"name":"rollback","ph":"i","s":"g","pid":0,"tid":{tid},"ts":{},"cat":"ckpt","args":{{"pass":{pass},"resume_step":{resume_step}}}}}"#,
            us(te.ts_ns),
        )),
        Event::Retile { pth, pph, pass, resume_step } => out.push(format!(
            r#"{{"name":"retile","ph":"i","s":"g","pid":0,"tid":{tid},"ts":{},"cat":"elastic","args":{{"pth":{pth},"pph":{pph},"pass":{pass},"resume_step":{resume_step}}}}}"#,
            us(te.ts_ns),
        )),
        Event::Degraded { pass, checkpoint_every } => out.push(format!(
            r#"{{"name":"degraded","ph":"i","s":"g","pid":0,"tid":{tid},"ts":{},"cat":"elastic","args":{{"pass":{pass},"checkpoint_every":{checkpoint_every}}}}}"#,
            us(te.ts_ns),
        )),
        Event::StepBegin { step } => out.push(format!(
            r#"{{"name":"step {step}","ph":"i","s":"t","pid":0,"tid":{tid},"ts":{},"cat":"step","args":{{"step":{step}}}}}"#,
            us(te.ts_ns),
        )),
        Event::Alert { rule, kind, firing, step } => out.push(format!(
            r#"{{"name":"alert {}","ph":"i","s":"g","pid":0,"tid":{tid},"ts":{},"cat":"alert","args":{{"rule":{rule},"kind":"{}","step":{step}}}}}"#,
            if firing { "fire" } else { "clear" },
            us(te.ts_ns),
            alert::name(kind),
        )),
        // Perfetto keys counter tracks by (pid, name), not tid, so the
        // rank goes into the name to keep one track per counter per
        // rank.
        Event::CounterSample { id, value_bits } => out.push(format!(
            r#"{{"name":"{} r{tid}","ph":"C","pid":0,"tid":{tid},"ts":{},"cat":"counter","args":{{"value":{}}}}}"#,
            counter::name(id),
            us(te.ts_ns),
            num(f64::from_bits(value_bits)),
        )),
    }
}

/// Render rank tracks as a Chrome trace-event JSON document.
///
/// Events inside each track are sorted by timestamp (span events by
/// their *start*), which both Perfetto and the
/// [`validate_chrome_trace`] monotonicity check expect.
pub fn chrome_trace_json(tracks: &[RankTrace]) -> String {
    let mut out: Vec<String> = Vec::new();
    out.push(
        r#"{"name":"process_name","ph":"M","pid":0,"args":{"name":"geodynamo"}}"#.to_string(),
    );
    for t in tracks {
        out.push(format!(
            r#"{{"name":"thread_name","ph":"M","pid":0,"tid":{},"args":{{"name":"rank {}"}}}}"#,
            t.rank, t.rank
        ));
    }
    for t in tracks {
        let mut evs: Vec<&TimedEvent> = t.events.iter().collect();
        // Sort by effective start time: a span's Chrome timestamp is its
        // start, which precedes its (ring-stamped) end.
        evs.sort_by_key(|te| match te.event {
            Event::Phase { dur_ns, .. } => te.ts_ns.saturating_sub(dur_ns),
            _ => te.ts_ns,
        });
        for te in evs {
            push_event(&mut out, t.rank, te);
        }
    }
    let mut doc = String::from("{\"traceEvents\":[\n");
    doc.push_str(&out.join(",\n"));
    doc.push_str("\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"generator\":\"yy-obs\"}}\n");
    doc
}

/// What [`validate_chrome_trace`] found in a well-formed trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceCheck {
    /// Total trace events (metadata included).
    pub events: usize,
    /// `"X"` complete-span events.
    pub spans: usize,
    /// Flow arrows (`"s"` starts; each should have a matching `"f"`).
    pub flow_starts: usize,
    /// Flow finishes.
    pub flow_finishes: usize,
    /// `"kill injected"` instants.
    pub kills: usize,
    /// `"retile"` instants (elastic layout changes).
    pub retiles: usize,
    /// `"degraded"` instants (degraded-mode entries).
    pub degrades: usize,
    /// `"alert fire"` / `"alert clear"` watchdog instants.
    pub alerts: usize,
    /// Distinct `tid` tracks seen (metadata excluded).
    pub tracks: usize,
    /// `"C"` counter samples.
    pub counter_samples: usize,
    /// Distinct counter tracks (by name; the rank is baked into counter
    /// names, so this is per counter per rank).
    pub counter_tracks: usize,
}

impl TraceCheck {
    /// The one-line census `yycore tracecheck` prints.
    pub fn summary(&self) -> String {
        format!(
            "trace ok: {} events, {} spans, {} flow arrows, {} kill(s), {} track(s), \
             {} counter sample(s) on {} counter track(s), {} retile(s), {} degrade(s), \
             {} alert edge(s)",
            self.events,
            self.spans,
            self.flow_starts,
            self.kills,
            self.tracks,
            self.counter_samples,
            self.counter_tracks,
            self.retiles,
            self.degrades,
            self.alerts
        )
    }
}

/// Parse and structurally validate a Chrome trace produced by
/// [`chrome_trace_json`] (or anything shaped like it): the document must
/// parse, carry a `traceEvents` array, every event must have the
/// required keys for its phase type, and within each `tid` track the
/// non-metadata timestamps must be monotone non-decreasing.
pub fn validate_chrome_trace(text: &str) -> Result<TraceCheck, String> {
    let doc = crate::json::Json::parse(text)?;
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_arr())
        .ok_or("missing traceEvents array")?;
    let mut check = TraceCheck { events: events.len(), ..TraceCheck::default() };
    let mut last_ts: Vec<(f64, f64)> = Vec::new(); // (tid, last ts)
    let mut counter_names: Vec<String> = Vec::new();
    for (i, e) in events.iter().enumerate() {
        let ph = e
            .get("ph")
            .and_then(|v| v.as_str())
            .ok_or_else(|| format!("event {i}: missing ph"))?;
        let name = e
            .get("name")
            .and_then(|v| v.as_str())
            .ok_or_else(|| format!("event {i}: missing name"))?;
        e.get("pid").and_then(|v| v.as_f64()).ok_or_else(|| format!("event {i}: missing pid"))?;
        if ph == "M" {
            continue; // metadata carries no timestamp
        }
        let tid = e
            .get("tid")
            .and_then(|v| v.as_f64())
            .ok_or_else(|| format!("event {i}: missing tid"))?;
        let ts = e
            .get("ts")
            .and_then(|v| v.as_f64())
            .ok_or_else(|| format!("event {i} ({name}): missing ts"))?;
        match last_ts.iter_mut().find(|(t, _)| *t == tid) {
            Some((_, last)) => {
                if ts < *last {
                    return Err(format!(
                        "event {i} ({name}): ts {ts} goes backwards on track {tid} (last {last})"
                    ));
                }
                *last = ts;
            }
            None => last_ts.push((tid, ts)),
        }
        match ph {
            "X" => {
                check.spans += 1;
                e.get("dur")
                    .and_then(|v| v.as_f64())
                    .ok_or_else(|| format!("event {i} ({name}): X without dur"))?;
            }
            "s" | "f" => {
                e.get("id").ok_or_else(|| format!("event {i} ({name}): flow without id"))?;
                if ph == "s" {
                    check.flow_starts += 1;
                } else {
                    check.flow_finishes += 1;
                }
            }
            "i" => {
                if name == "kill injected" {
                    check.kills += 1;
                } else if name == "retile" {
                    check.retiles += 1;
                } else if name == "degraded" {
                    check.degrades += 1;
                } else if name == "alert fire" || name == "alert clear" {
                    check.alerts += 1;
                }
            }
            "C" => {
                check.counter_samples += 1;
                let value = e
                    .get("args")
                    .and_then(|a| a.get("value"))
                    .and_then(|v| v.as_f64())
                    .ok_or_else(|| format!("event {i} ({name}): C without args.value"))?;
                if !value.is_finite() {
                    return Err(format!(
                        "event {i} ({name}): non-finite counter value {value}"
                    ));
                }
                if !counter_names.iter().any(|n| n == name) {
                    counter_names.push(name.to_string());
                }
            }
            other => return Err(format!("event {i} ({name}): unexpected ph {other:?}")),
        }
    }
    check.tracks = last_ts.len();
    check.counter_tracks = counter_names.len();
    Ok(check)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_tracks() -> Vec<RankTrace> {
        let t0 = vec![
            TimedEvent { ts_ns: 1_000, event: Event::StepBegin { step: 0 } },
            TimedEvent {
                ts_ns: 3_000,
                event: Event::Send { peer: 1, class: class::HALO, bytes: 800, tag16: 11, seq: 0 },
            },
            TimedEvent { ts_ns: 9_000, event: Event::Phase { phase: phase::INTERIOR, dur_ns: 5_000 } },
            TimedEvent { ts_ns: 9_200, event: Event::counter_sample(0, 512.25) },
            TimedEvent {
                ts_ns: 9_200,
                event: Event::counter_sample(counter::QUEUE_DEPTH, 2.0),
            },
            TimedEvent { ts_ns: 9_500, event: Event::KillInjected { step: 4 } },
        ];
        let t1 = vec![
            TimedEvent { ts_ns: 2_000, event: Event::StepBegin { step: 0 } },
            TimedEvent {
                ts_ns: 6_000,
                event: Event::Recv { peer: 0, class: class::UNKNOWN, bytes: 800, tag16: 11, seq: 0 },
            },
            TimedEvent { ts_ns: 8_000, event: Event::CheckpointSaved { step: 2 } },
            TimedEvent { ts_ns: 8_500, event: Event::HealthViolation { code: 1, step: 3 } },
            TimedEvent { ts_ns: 8_600, event: Event::Rollback { pass: 1, resume_step: 2 } },
            TimedEvent { ts_ns: 8_700, event: Event::FaultInjected { kind: 0, peer: 0, param: 2 } },
            TimedEvent {
                ts_ns: 8_800,
                event: Event::Retile { pth: 1, pph: 2, pass: 2, resume_step: 4 },
            },
            TimedEvent { ts_ns: 8_900, event: Event::Degraded { pass: 2, checkpoint_every: 4 } },
            TimedEvent {
                ts_ns: 9_200,
                event: Event::Alert { rule: 0, kind: alert::DT_COLLAPSE, firing: true, step: 6 },
            },
            TimedEvent {
                ts_ns: 9_300,
                event: Event::Alert { rule: 0, kind: alert::DT_COLLAPSE, firing: false, step: 8 },
            },
        ];
        vec![RankTrace { rank: 0, events: t0 }, RankTrace { rank: 1, events: t1 }]
    }

    #[test]
    fn export_validates_cleanly() {
        let doc = chrome_trace_json(&demo_tracks());
        let check = validate_chrome_trace(&doc).expect("trace must validate");
        assert_eq!(check.spans, 1);
        assert_eq!(check.kills, 1);
        assert_eq!(check.retiles, 1);
        assert_eq!(check.degrades, 1);
        assert_eq!(check.alerts, 2, "alert fire + clear instants");
        assert_eq!(check.flow_starts, 1);
        assert_eq!(check.flow_finishes, 1);
        assert_eq!(check.tracks, 2);
        assert_eq!(check.counter_samples, 2);
        assert_eq!(check.counter_tracks, 2, "mflops:rhs r0 and queue_depth r0");
    }

    #[test]
    fn counter_samples_become_per_rank_counter_tracks() {
        let doc = chrome_trace_json(&demo_tracks());
        assert!(doc.contains(r#""name":"mflops:rhs r0","ph":"C""#), "{doc}");
        assert!(doc.contains(r#""args":{"value":512.25}"#));
        let parsed = crate::json::Json::parse(&doc).unwrap();
        let evs = parsed.get("traceEvents").unwrap().as_arr().unwrap();
        let c: Vec<_> = evs
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("C"))
            .collect();
        assert_eq!(c.len(), 2);
        for e in c {
            assert!(e.get("args").unwrap().get("value").unwrap().as_f64().is_some());
        }
    }

    #[test]
    fn validator_rejects_bad_counter_records() {
        let no_value = r#"{"traceEvents":[
            {"name":"c","ph":"C","pid":0,"tid":0,"ts":1.0,"args":{}}
        ]}"#;
        let err = validate_chrome_trace(no_value).unwrap_err();
        assert!(err.contains("without args.value"), "{err}");
        let non_finite = r#"{"traceEvents":[
            {"name":"c","ph":"C","pid":0,"tid":0,"ts":1.0,"args":{"value":1e999}}
        ]}"#;
        let err = validate_chrome_trace(non_finite).unwrap_err();
        assert!(err.contains("non-finite"), "{err}");
    }

    #[test]
    fn send_and_recv_agree_on_the_flow_id() {
        let doc = chrome_trace_json(&demo_tracks());
        let parsed = crate::json::Json::parse(&doc).unwrap();
        let evs = parsed.get("traceEvents").unwrap().as_arr().unwrap();
        let ids: Vec<&str> = evs
            .iter()
            .filter(|e| {
                matches!(e.get("ph").and_then(|p| p.as_str()), Some("s") | Some("f"))
            })
            .map(|e| e.get("id").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(ids.len(), 2);
        assert_eq!(ids[0], ids[1], "send and recv must pair into one arrow");
    }

    #[test]
    fn spans_are_emitted_at_their_start() {
        // A span recorded at t=9µs with 5µs duration starts at 4µs —
        // before the kill at 9.5µs but after the send at 3µs.
        let doc = chrome_trace_json(&demo_tracks());
        let parsed = crate::json::Json::parse(&doc).unwrap();
        let evs = parsed.get("traceEvents").unwrap().as_arr().unwrap();
        let span = evs
            .iter()
            .find(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
            .expect("span present");
        assert_eq!(span.get("ts").unwrap().as_f64(), Some(4.0));
        assert_eq!(span.get("dur").unwrap().as_f64(), Some(5.0));
        assert_eq!(span.get("name").unwrap().as_str(), Some("interior"));
    }

    #[test]
    fn validator_rejects_backwards_time_and_missing_keys() {
        let bad = r#"{"traceEvents":[
            {"name":"a","ph":"i","s":"t","pid":0,"tid":0,"ts":5.0},
            {"name":"b","ph":"i","s":"t","pid":0,"tid":0,"ts":4.0}
        ]}"#;
        let err = validate_chrome_trace(bad).unwrap_err();
        assert!(err.contains("backwards"), "{err}");
        let missing = r#"{"traceEvents":[{"name":"a","ph":"X","pid":0,"tid":0,"ts":1.0}]}"#;
        let err = validate_chrome_trace(missing).unwrap_err();
        assert!(err.contains("without dur"), "{err}");
        assert!(validate_chrome_trace("{}").is_err());
        assert!(validate_chrome_trace("not json").is_err());
    }

    #[test]
    fn flow_id_is_direction_and_stream_sensitive() {
        assert_ne!(flow_id(0, 1, 11, 0), flow_id(1, 0, 11, 0));
        assert_ne!(flow_id(0, 1, 11, 0), flow_id(0, 1, 11, 1));
        assert_ne!(flow_id(0, 1, 11, 0), flow_id(0, 1, 12, 0));
        assert_eq!(flow_id(0, 1, 11, 0), flow_id(0, 1, 11, 0));
    }
}
