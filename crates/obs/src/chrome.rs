//! Chrome trace-event JSON: the export of flight-recorder contents and
//! its re-import.
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
//! This module owns the record format: `encode` writes an [`Event`] as
//! its record(s), `decode` is the inverse, and both readers are one
//! `walk` over a document — [`validate_chrome_trace`] (the export's own
//! adversary; CI runs it on every post-mortem trace a faulted run
//! produces) counts what decodes, [`streams_from_chrome`] collects it.
//! A track's `thread_name` record carries its ring's counts (events
//! recorded ever, capacity), so a re-imported trace knows how much its
//! rings dropped. The round trip is exact up to two documented roundings:
//! timestamps and durations pass through f64 microseconds, and integers
//! through JSON numbers (exact below 2⁵³).

use crate::event::{AlertKind, Event, FaultKind, HealthCode, Phase, TimedEvent, TrafficClass};
use crate::json::{num, Json};
use std::collections::{BTreeMap, BTreeSet};

/// Ranks a trace may name. A `tid` indexes per-rank tables in every
/// reader, so one read from a file is checked against this bound before
/// anything is sized by it (the paper's largest run used 4096 ranks).
pub const MAX_TRACE_RANKS: usize = 1 << 16;

/// One rank's decoded flight-recorder contents, ready for export.
pub struct RankTrace {
    /// World rank (becomes the `tid` of the track).
    pub rank: usize,
    /// The rank's events, as returned by
    /// [`crate::FlightRecorder::snapshot`].
    pub events: Vec<TimedEvent>,
    /// Events the rank's ring recorded ever
    /// ([`crate::FlightRecorder::recorded`]); `events` holds the newest
    /// `capacity` of them.
    pub recorded: u64,
    /// The ring's capacity ([`crate::FlightRecorder::capacity`]).
    pub capacity: usize,
}

fn us(ts_ns: u64) -> String {
    num(ts_ns as f64 / 1000.0)
}

/// Inverse of [`us`] on the parsed number (saturating; negatives clamp
/// to 0).
fn ns(us: f64) -> u64 {
    (us * 1000.0).round() as u64
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

/// Write one event as its trace record(s) on track `rank`.
fn encode(out: &mut Vec<String>, rank: usize, te: &TimedEvent) {
    let tid = rank;
    let ts = us(te.ts_ns);
    // Everything but a span is an instant, scoped to its thread (`t`) or drawn across all of them (`g`).
    let instant = |name: &str, scope: char, cat: &str, args: String| {
        format!(
            r#"{{"name":"{name}","ph":"i","s":"{scope}","pid":0,"tid":{tid},"ts":{ts},"cat":"{cat}","args":{{{args}}}}}"#
        )
    };
    // A message instant is followed by its end of the flow arrow.
    let arrow = |name: &str, ph: &str, id: u64| {
        format!(
            r#"{{"name":"{name}",{ph},"id":"0x{id:x}","pid":0,"tid":{tid},"ts":{ts},"cat":"msg"}}"#
        )
    };
    let last = match te.event {
        Event::Phase { phase, dur_ns } => {
            // The ring stamps a phase span at its *end*; Chrome wants
            // the start.
            let start = te.ts_ns.saturating_sub(dur_ns);
            format!(
                r#"{{"name":"{}","ph":"X","pid":0,"tid":{tid},"ts":{},"dur":{},"cat":"phase"}}"#,
                phase.name(),
                us(start),
                us(dur_ns),
            )
        }
        Event::Send { peer, class, bytes, tag16, seq } => {
            let name = class.name();
            let args = format!(r#""to":{peer},"bytes":{bytes},"tag":{tag16},"seq":{seq}"#);
            out.push(instant(&format!("send {name}"), 't', "msg", args));
            arrow(name, r#""ph":"s""#, flow_id(rank as u64, peer as u64, tag16 as u64, seq))
        }
        Event::Recv { peer, class, bytes, tag16, seq } => {
            // The wire envelope does not carry the class.
            let name = class.map_or("msg", TrafficClass::name);
            let args = format!(r#""from":{peer},"bytes":{bytes},"tag":{tag16},"seq":{seq}"#);
            out.push(instant(&format!("recv {name}"), 't', "msg", args));
            arrow(name, r#""ph":"f","bp":"e""#, flow_id(peer as u64, rank as u64, tag16 as u64, seq))
        }
        Event::FaultInjected { kind, peer, param } => {
            let args = format!(r#""to":{peer},"param":{param}"#);
            instant(&format!("fault {}", kind.name()), 't', "fault", args)
        }
        Event::KillInjected { step } => {
            instant("kill injected", 'g', "fault", format!(r#""step":{step}"#))
        }
        Event::HealthViolation { code, step } => {
            instant(&format!("health {}", code.name()), 'g', "health", format!(r#""step":{step}"#))
        }
        Event::CheckpointSaved { step } => {
            instant("checkpoint", 't', "ckpt", format!(r#""step":{step}"#))
        }
        Event::Rollback { pass, resume_step } => {
            instant("rollback", 'g', "ckpt", format!(r#""pass":{pass},"resume_step":{resume_step}"#))
        }
        Event::Retile { pth, pph, pass, resume_step } => {
            let args =
                format!(r#""pth":{pth},"pph":{pph},"pass":{pass},"resume_step":{resume_step}"#);
            instant("retile", 'g', "elastic", args)
        }
        Event::Degraded { pass, checkpoint_every } => {
            let args = format!(r#""pass":{pass},"checkpoint_every":{checkpoint_every}"#);
            instant("degraded", 'g', "elastic", args)
        }
        Event::StepBegin { step } => {
            instant(&format!("step {step}"), 't', "step", format!(r#""step":{step}"#))
        }
        Event::Alert { rule, kind, firing, step } => {
            let args = format!(r#""rule":{rule},"kind":"{}","step":{step}"#, kind.name());
            instant(if firing { "alert fire" } else { "alert clear" }, 'g', "alert", args)
        }
    };
    out.push(last);
}

/// Inverse of [`encode`] for one record (`ts` in microseconds). `None`
/// for a record no event writes by itself: metadata, the flow arrow that
/// follows a send/receive instant, a name or argument outside the
/// format.
fn decode(ph: &str, name: &str, ts: f64, record: &Json) -> Option<TimedEvent> {
    let args = record.get("args");
    let n = |key: &str| Some(args?.f64_at(key)? as u64);
    let event = match ph {
        "X" => {
            let dur = record.f64_at("dur")?;
            // The ring stamps spans at their end; the trace stores the
            // start, so re-stamp at start + duration.
            return Some(TimedEvent {
                ts_ns: ns(ts + dur),
                event: Event::Phase { phase: Phase::from_name(name)?, dur_ns: ns(dur) },
            });
        }
        "i" => match (name, name.split_once(' ')) {
            (_, Some(("send", class))) => Event::Send {
                peer: n("to")? as u32,
                class: TrafficClass::from_name(class)?,
                bytes: n("bytes")?,
                tag16: n("tag")? as u16,
                seq: n("seq")?,
            },
            (_, Some(("recv", class))) => Event::Recv {
                peer: n("from")? as u32,
                class: TrafficClass::from_name(class),
                bytes: n("bytes")?,
                tag16: n("tag")? as u16,
                seq: n("seq")?,
            },
            (_, Some(("fault", kind))) => Event::FaultInjected {
                kind: FaultKind::from_name(kind)?,
                peer: n("to")? as u32,
                param: n("param")?,
            },
            ("kill injected", _) => Event::KillInjected { step: n("step")? },
            (_, Some(("health", code))) => {
                Event::HealthViolation { code: HealthCode::from_name(code)?, step: n("step")? }
            }
            ("checkpoint", _) => Event::CheckpointSaved { step: n("step")? },
            ("rollback", _) => Event::Rollback { pass: n("pass")?, resume_step: n("resume_step")? },
            ("retile", _) => Event::Retile {
                pth: n("pth")? as u16,
                pph: n("pph")? as u16,
                pass: n("pass")?,
                resume_step: n("resume_step")?,
            },
            ("degraded", _) => {
                Event::Degraded { pass: n("pass")?, checkpoint_every: n("checkpoint_every")? }
            }
            (_, Some(("step", _))) => Event::StepBegin { step: n("step")? },
            ("alert fire" | "alert clear", _) => Event::Alert {
                rule: n("rule")? as u32,
                kind: AlertKind::from_name(args?.str_at("kind")?)?,
                firing: name == "alert fire",
                step: n("step")?,
            },
            _ => return None,
        },
        _ => return None,
    };
    Some(TimedEvent { ts_ns: ns(ts), event })
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
            r#"{{"name":"thread_name","ph":"M","pid":0,"tid":{},"args":{{"name":"rank {}","recorded":{},"capacity":{}}}}}"#,
            t.rank, t.rank, t.recorded, t.capacity
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
            encode(&mut out, t.rank, te);
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
    /// Phase spans (`"X"` records of a known phase).
    pub spans: usize,
    /// Flow arrows (`"s"` starts; each should have a matching `"f"`).
    pub flow_starts: usize,
    /// Flow finishes.
    pub flow_finishes: usize,
    /// [`Event::KillInjected`] instants.
    pub kills: usize,
    /// [`Event::Retile`] instants (elastic layout changes).
    pub retiles: usize,
    /// [`Event::Degraded`] instants (degraded-mode entries).
    pub degrades: usize,
    /// [`Event::Alert`] fire/clear watchdog instants.
    pub alerts: usize,
    /// Distinct `tid` tracks seen (metadata excluded).
    pub tracks: usize,
}

impl TraceCheck {
    /// The one-line census `yycore doctor trace=` prints.
    pub fn summary(&self) -> String {
        format!(
            "trace ok: {} events, {} spans, {} flow arrows, {} kill(s), {} track(s), \
             {} retile(s), {} degrade(s), {} alert edge(s)",
            self.events,
            self.spans,
            self.flow_starts,
            self.kills,
            self.tracks,
            self.retiles,
            self.degrades,
            self.alerts
        )
    }
}

/// The one reader of the format: parse `text`, check every record —
/// the required keys for its `ph`, a `tid` below [`MAX_TRACE_RANKS`],
/// monotone non-decreasing timestamps within each `tid` track — and
/// hand each non-metadata record to `visit` as
/// `(rank, ph, what it decodes to)`. Returns the record count, metadata
/// included, and the rank-indexed `(recorded, capacity)` ring counts
/// the tracks' name records carry (`(0, 0)` where a track has none).
fn walk(
    text: &str,
    mut visit: impl FnMut(usize, &str, Option<TimedEvent>),
) -> Result<(usize, Vec<(u64, usize)>), String> {
    let doc = Json::parse(text)?;
    let records = doc.arr_at("traceEvents").ok_or("missing traceEvents array")?;
    let mut last_ts: BTreeMap<usize, f64> = BTreeMap::new();
    let mut rings: Vec<(u64, usize)> = Vec::new();
    for (i, e) in records.iter().enumerate() {
        let ph = e.str_at("ph").ok_or_else(|| format!("event {i}: missing ph"))?;
        let name = e.str_at("name").ok_or_else(|| format!("event {i}: missing name"))?;
        e.f64_at("pid").ok_or_else(|| format!("event {i}: missing pid"))?;
        let as_rank = |tid: f64| {
            if tid >= 0.0 && tid < MAX_TRACE_RANKS as f64 && tid.fract() == 0.0 {
                Ok(tid as usize)
            } else {
                Err(format!(
                    "event {i} ({name}): tid {tid} is not an integer rank below {MAX_TRACE_RANKS}"
                ))
            }
        };
        if ph == "M" {
            // Metadata carries no timestamp; a track's name record
            // carries its ring's counts (traces of older binaries do not).
            let args = e.get("args");
            let counts = args.and_then(|a| Some((a.f64_at("recorded")?, a.f64_at("capacity")?)));
            if let (Some(tid), Some((recorded, capacity))) = (e.f64_at("tid"), counts) {
                let r = as_rank(tid)?;
                if rings.len() <= r {
                    rings.resize(r + 1, (0, 0));
                }
                rings[r] = (recorded as u64, capacity as usize);
            }
            continue;
        }
        let tid = e.f64_at("tid").ok_or_else(|| format!("event {i}: missing tid"))?;
        let rank = as_rank(tid)?;
        let ts = e.f64_at("ts").ok_or_else(|| format!("event {i} ({name}): missing ts"))?;
        if let Some(last) = last_ts.insert(rank, ts) {
            if ts < last {
                return Err(format!(
                    "event {i} ({name}): ts {ts} goes backwards on track {rank} (last {last})"
                ));
            }
        }
        match ph {
            "X" => {
                e.f64_at("dur").ok_or_else(|| format!("event {i} ({name}): X without dur"))?;
            }
            "s" | "f" => {
                e.get("id").ok_or_else(|| format!("event {i} ({name}): flow without id"))?;
            }
            "i" => {}
            other => return Err(format!("event {i} ({name}): unexpected ph {other:?}")),
        }
        visit(rank, ph, decode(ph, name, ts, e));
    }
    Ok((records.len(), rings))
}

/// Parse and structurally validate a Chrome trace produced by
/// [`chrome_trace_json`] (or anything shaped like it; see `walk` for
/// the checks) and take a census of the events it decodes to.
pub fn validate_chrome_trace(text: &str) -> Result<TraceCheck, String> {
    let mut check = TraceCheck::default();
    let mut tracks = BTreeSet::new();
    let (events, _) = walk(text, |rank, ph, decoded| {
        tracks.insert(rank);
        match (ph, decoded.map(|te| te.event)) {
            ("s", _) => check.flow_starts += 1,
            ("f", _) => check.flow_finishes += 1,
            (_, Some(Event::Phase { .. })) => check.spans += 1,
            (_, Some(Event::KillInjected { .. })) => check.kills += 1,
            (_, Some(Event::Retile { .. })) => check.retiles += 1,
            (_, Some(Event::Degraded { .. })) => check.degrades += 1,
            (_, Some(Event::Alert { .. })) => check.alerts += 1,
            _ => {}
        }
    })?;
    Ok(TraceCheck { events, tracks: tracks.len(), ..check })
}

/// Rebuild per-rank event streams (world-rank indexed, oldest first)
/// and the rings' `(recorded, capacity)` counts from a Chrome trace
/// produced by [`chrome_trace_json`] — the offline half of
/// `yycore doctor`, so a trace file on disk is as analyzable as a live
/// recorder set: the pair is [`crate::AnalysisInput`]'s `streams` and
/// `retained`. A track without counts reads as `(0, 0)`, complete. The
/// trace must pass the same checks as [`validate_chrome_trace`]; every
/// record that decodes is kept.
pub fn streams_from_chrome(
    text: &str,
) -> Result<(Vec<Vec<TimedEvent>>, Vec<(u64, usize)>), String> {
    let mut streams: Vec<Vec<TimedEvent>> = Vec::new();
    let (_, mut retained) = walk(text, |rank, _, decoded| {
        if let Some(te) = decoded {
            if streams.len() <= rank {
                streams.resize_with(rank + 1, Vec::new);
            }
            streams[rank].push(te);
        }
    })?;
    if streams.is_empty() {
        return Err("trace contains no analyzable events".into());
    }
    // Ring order: the trace sorted spans by their start, the ring by
    // their end.
    for stream in &mut streams {
        stream.sort_by_key(|te| te.ts_ns);
    }
    retained.resize(streams.len(), (0, 0));
    Ok((streams, retained))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_tracks() -> Vec<RankTrace> {
        let t0 = vec![
            TimedEvent { ts_ns: 1_000, event: Event::StepBegin { step: 0 } },
            TimedEvent {
                ts_ns: 3_000,
                event: Event::Send { peer: 1, class: TrafficClass::Halo, bytes: 800, tag16: 11, seq: 0 },
            },
            TimedEvent { ts_ns: 9_000, event: Event::Phase { phase: Phase::Interior, dur_ns: 5_000 } },
            TimedEvent { ts_ns: 9_500, event: Event::KillInjected { step: 4 } },
        ];
        let t1 = vec![
            TimedEvent { ts_ns: 2_000, event: Event::StepBegin { step: 0 } },
            TimedEvent {
                ts_ns: 6_000,
                event: Event::Recv { peer: 0, class: None, bytes: 800, tag16: 11, seq: 0 },
            },
            TimedEvent { ts_ns: 8_000, event: Event::CheckpointSaved { step: 2 } },
            TimedEvent { ts_ns: 8_500, event: Event::HealthViolation { code: HealthCode::DensityFloor, step: 3 } },
            TimedEvent { ts_ns: 8_600, event: Event::Rollback { pass: 1, resume_step: 2 } },
            TimedEvent { ts_ns: 8_700, event: Event::FaultInjected { kind: FaultKind::Duplicate, peer: 0, param: 0 } },
            TimedEvent {
                ts_ns: 8_800,
                event: Event::Retile { pth: 1, pph: 2, pass: 2, resume_step: 4 },
            },
            TimedEvent { ts_ns: 8_900, event: Event::Degraded { pass: 2, checkpoint_every: 4 } },
            TimedEvent {
                ts_ns: 9_200,
                event: Event::Alert { rule: 0, kind: AlertKind::DtCollapse, firing: true, step: 6 },
            },
            TimedEvent {
                ts_ns: 9_300,
                event: Event::Alert { rule: 0, kind: AlertKind::DtCollapse, firing: false, step: 8 },
            },
        ];
        vec![
            RankTrace { rank: 0, recorded: 4, capacity: 4, events: t0 },
            RankTrace { rank: 1, recorded: 20, capacity: 10, events: t1 },
        ]
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
    }

    /// The format has no counter records: a `"C"` record (older binaries
    /// wrote them) is refused by both readers, well-formed or not.
    #[test]
    fn validator_rejects_bad_counter_records() {
        for args in [r#"{"value":512.25}"#, "{}"] {
            let doc = format!(
                r#"{{"traceEvents":[{{"name":"mflops:rhs r0","ph":"C","pid":0,"tid":0,"ts":1.0,"args":{args}}}]}}"#
            );
            for err in [validate_chrome_trace(&doc).unwrap_err(), streams_from_chrome(&doc).unwrap_err()] {
                assert_eq!(err, r#"event 0 (mflops:rhs r0): unexpected ph "C""#);
            }
        }
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
    fn tid_must_be_an_integer_rank_below_the_bound() {
        let with_tid = |tid: &str| {
            format!(
                r#"{{"traceEvents":[{{"name":"step 1","ph":"i","pid":0,"tid":{tid},"ts":1,"args":{{"step":1}}}}]}}"#
            )
        };
        for bad in ["4000000000000", "65536", "-1", "0.5", "1e999"] {
            for err in [
                validate_chrome_trace(&with_tid(bad)).unwrap_err(),
                streams_from_chrome(&with_tid(bad)).unwrap_err(),
            ] {
                assert!(
                    err.starts_with("event 0 (step 1): tid ")
                        && err.ends_with("is not an integer rank below 65536"),
                    "{bad}: {err}"
                );
            }
        }
        let (streams, _) = streams_from_chrome(&with_tid("65535")).expect("the last rank in range");
        assert_eq!(streams.len(), 65_536);
        assert_eq!(streams[65_535].len(), 1);
    }

    #[test]
    fn census_counts_decoded_events_and_tolerates_foreign_records() {
        let doc = r#"{"traceEvents":[
            {"name":"gc","ph":"X","pid":0,"tid":0,"ts":1.0,"dur":1.0},
            {"name":"kill injected","ph":"i","pid":0,"tid":0,"ts":2.0,"args":{}},
            {"name":"alert maybe","ph":"i","pid":0,"tid":0,"ts":3.0,"args":{"rule":0,"kind":"above","step":1}},
            {"name":"mystery","ph":"i","pid":0,"tid":0,"ts":4.0,"args":{}},
            {"name":"wait","ph":"X","pid":0,"tid":0,"ts":5.0,"dur":1.0}
        ]}"#;
        let check = validate_chrome_trace(doc).expect("structurally fine");
        assert_eq!(check.events, 5);
        assert_eq!((check.spans, check.kills, check.alerts), (1, 0, 0));
        assert_eq!(streams_from_chrome(doc).unwrap().0[0].len(), 1);
    }

    #[test]
    fn flow_id_is_direction_and_stream_sensitive() {
        assert_ne!(flow_id(0, 1, 11, 0), flow_id(1, 0, 11, 0));
        assert_ne!(flow_id(0, 1, 11, 0), flow_id(0, 1, 11, 1));
        assert_ne!(flow_id(0, 1, 11, 0), flow_id(0, 1, 12, 0));
        assert_eq!(flow_id(0, 1, 11, 0), flow_id(0, 1, 11, 0));
    }
}
