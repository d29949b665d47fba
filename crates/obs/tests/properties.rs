//! Property suites for the observability primitives, run under the
//! in-repo deterministic harness (`yy-testkit`).
//!
//! The flight-recorder ring must keep the *newest* events when it wraps — a post-mortem wants the
//! moments before the failure, not the start of the run — and a
//! snapshot taken while a rank still records must be an in-order run.
//!
//! The Chrome trace is the one artifact this crate both writes and
//! reads back from disk: every event must survive the round trip, and
//! no mutation of a document may do worse to a reader than an `Err`.

use std::time::Instant;
use yy_obs::chrome::{chrome_trace_json, RankTrace, MAX_TRACE_RANKS};
use yy_obs::event::{AlertKind, FaultKind, HealthCode, Phase, TrafficClass};
use yy_obs::ring::FlightRecorder;
use yy_obs::{
    analyze, streams_from_chrome, validate_chrome_trace, Analysis, AnalysisInput, Event, Json,
    TimedEvent,
};
use yy_testkit::{check, check_with, tk_assert, Config, Gen};

#[test]
fn ring_wrap_keeps_the_newest_events() {
    check(
        "ring_keeps_newest",
        |g| (g.range_usize(1, 64), g.below(256) + 1),
        |&(capacity, total)| {
            let rec = FlightRecorder::new(capacity, Instant::now());
            for step in 0..total {
                rec.record_at(step, Event::StepBegin { step });
            }
            let snap = rec.snapshot();
            let kept = (total as usize).min(capacity);
            tk_assert!(snap.len() == kept, "kept {} of {total} (cap {capacity})", snap.len());
            // Oldest-to-newest, ending at the last event recorded.
            let first = total - kept as u64;
            for (i, ev) in snap.iter().enumerate() {
                let want = first + i as u64;
                tk_assert!(
                    ev.event == Event::StepBegin { step: want },
                    "slot {i}: {:?}, want step {want}",
                    ev.event
                );
            }
            tk_assert!(rec.recorded() == total, "recorded() {}", rec.recorded());
            Ok(())
        },
    );
}


/// Two rank streams holding one event of every variant (both receive
/// flavours) with seeded fields inside the
/// documented exact range: integers below 2⁵³ (they ride JSON numbers),
/// strictly increasing timestamps below 2⁴⁵ ns, spans that start after 0.
fn every_variant(g: &mut Gen) -> Vec<Vec<TimedEvent>> {
    fn pick<T: Copy, const N: usize>(g: &mut Gen, all: [T; N]) -> T {
        all[g.range_usize(0, N)]
    }
    let word = |g: &mut Gen| g.below(1 << 53);
    let (peer, tag16) = (g.below(1 << 32) as u32, g.below(1 << 16) as u16);
    let events = [
        Event::StepBegin { step: word(g) },
        Event::Phase { phase: pick(g, Phase::ALL), dur_ns: g.below(1 << 30) },
        Event::Send { peer, class: pick(g, TrafficClass::ALL), bytes: word(g), tag16, seq: word(g) },
        Event::Recv { peer, class: None, bytes: word(g), tag16, seq: word(g) },
        Event::Recv {
            peer,
            class: Some(pick(g, TrafficClass::ALL)),
            bytes: word(g),
            tag16,
            seq: word(g),
        },
        Event::FaultInjected { kind: pick(g, FaultKind::ALL), peer, param: word(g) },
        Event::KillInjected { step: word(g) },
        Event::HealthViolation { code: pick(g, HealthCode::ALL), step: word(g) },
        Event::CheckpointSaved { step: word(g) },
        Event::Rollback { pass: word(g), resume_step: word(g) },
        Event::Retile { pth: tag16, pph: g.below(1 << 16) as u16, pass: word(g), resume_step: word(g) },
        Event::Degraded { pass: word(g), checkpoint_every: word(g) },
        Event::Alert { rule: peer, kind: pick(g, AlertKind::ALL), firing: g.bool(), step: word(g) },
    ];
    let mut streams = vec![Vec::new(), Vec::new()];
    let mut ts_ns = 1 << 30;
    for (i, event) in events.into_iter().enumerate() {
        ts_ns += 1 + g.below(1 << 40);
        streams[i % 2].push(TimedEvent { ts_ns, event });
    }
    streams
}

#[test]
fn ring_keeps_the_newest_events_of_every_variant_with_their_timestamps() {
    check(
        "ring_keeps_every_variant",
        |g| {
            let mut events = every_variant(g).concat();
            events.sort_by_key(|te| te.ts_ns);
            let repeats = g.range_usize(1, 4);
            (g.range_usize(1, 33), events.repeat(repeats))
        },
        |(capacity, events)| {
            let rec = FlightRecorder::new(*capacity, Instant::now());
            for te in events {
                rec.record_at(te.ts_ns, te.event);
            }
            let newest = &events[events.len().saturating_sub(*capacity)..];
            tk_assert!(rec.snapshot() == newest, "capacity {capacity}: {:?}", rec.snapshot());
            tk_assert!(rec.recorded() == events.len() as u64, "recorded() {}", rec.recorded());
            Ok(())
        },
    );
}

#[test]
fn a_snapshot_taken_while_the_rank_records_is_a_contiguous_run() {
    check_with(
        Config::with_cases(8),
        "ring_live_snapshot",
        |g| g.range_usize(1, 257),
        |&capacity| {
            const TOTAL: u64 = 10_000;
            let rec = &FlightRecorder::new(capacity, Instant::now());
            // The writer stops halfway until a snapshot has seen it there,
            // so at least one snapshot lands between its first and last
            // record however the threads are scheduled.
            let (resume, paused) = std::sync::mpsc::sync_channel(0);
            std::thread::scope(|s| {
                s.spawn(move || {
                    for step in 0..TOTAL {
                        // A failed reader drops `resume`: stop, do not hang.
                        if step == TOTAL / 2 && paused.recv().is_err() {
                            return;
                        }
                        rec.record(Event::StepBegin { step });
                    }
                });
                let resume = resume;
                let mut last_recorded = 0;
                while last_recorded < TOTAL {
                    let snap = rec.snapshot();
                    let recorded = rec.recorded();
                    tk_assert!(recorded >= last_recorded, "recorded() fell to {recorded}");
                    last_recorded = recorded;
                    let steps: Vec<u64> = snap
                        .iter()
                        .map(|te| match te.event {
                            Event::StepBegin { step } => step,
                            other => panic!("unexpected {other:?}"),
                        })
                        .collect();
                    tk_assert!(steps.len() <= capacity, "{} events in {capacity} slots", steps.len());
                    tk_assert!(steps.windows(2).all(|w| w[1] == w[0] + 1), "a gap: {steps:?}");
                    tk_assert!(
                        steps.last().is_none_or(|&s| s < recorded),
                        "step {steps:?} past recorded() {recorded}"
                    );
                    if recorded == TOTAL / 2 {
                        let _ = resume.try_send(());
                    }
                }
                Ok(())
            })
        },
    );
}

/// Ring counts for rank `rank`'s `n` retained events: a ring that
/// dropped `rank` events before the ones it kept.
fn counts(rank: usize, n: usize) -> (u64, usize) {
    ((n + rank) as u64, n)
}

fn trace_of(streams: &[Vec<TimedEvent>]) -> String {
    let tracks: Vec<RankTrace> = streams
        .iter()
        .enumerate()
        .map(|(rank, events)| {
            let (recorded, capacity) = counts(rank, events.len());
            RankTrace { rank, events: events.clone(), recorded, capacity }
        })
        .collect();
    chrome_trace_json(&tracks)
}

#[test]
fn every_event_variant_round_trips_through_the_chrome_pair() {
    check("chrome_round_trip", every_variant, |streams| {
        let doc = trace_of(streams);
        let (back, retained) = streams_from_chrome(&doc)?;
        tk_assert!(&back == streams, "decoded {back:?}");
        let want: Vec<_> = streams.iter().enumerate().map(|(r, s)| counts(r, s.len())).collect();
        tk_assert!(retained == want, "ring counts {retained:?}");
        let check = validate_chrome_trace(&doc)?;
        tk_assert!(check.events == 3 + 13 + 3, "metadata + events + flow arrows: {check:?}");
        tk_assert!((check.flow_starts, check.flow_finishes) == (1, 2), "{check:?}");
        Ok(())
    });
}

/// One seeded edit of a document.
#[derive(Debug, Clone, Copy)]
enum Mutation {
    /// Flip one bit of the byte at this fraction of the length.
    Flip(f64, u8),
    /// Cut just before (or after) the n-th byte of a structural class.
    Truncate { class: u8, nth: usize, after: bool },
    /// Keep the head up to this fraction, then append the other valid
    /// document from that fraction on.
    Splice(f64, f64),
    /// Replace the number after the n-th `"key":` with a lie.
    Lie { key: &'static str, nth: usize, value: &'static str },
}

/// A byte of every structural class of the format, for [`Mutation::Truncate`].
const CLASSES: &[u8] = b"{}[],:\"0.-ex";
/// Numeric members that size, index or order something in a reader.
const KEYS: &[&str] =
    &["tid", "ts", "dur", "bytes", "seq", "step", "rank", "steps_analyzed"];
const LIES: &[&str] = &[
    "4000000000000", "65536", "65535", "-1", "0.5", "1e999", "-1e999", "18446744073709551616",
    "1e-320", "null", "\"7\"", "[]",
];

fn mutation(g: &mut Gen) -> Mutation {
    match g.below(4) {
        0 => Mutation::Flip(g.range_f64(0.0, 1.0), g.below(8) as u8),
        1 => Mutation::Truncate {
            class: CLASSES[g.range_usize(0, CLASSES.len())],
            nth: g.range_usize(0, 40),
            after: g.bool(),
        },
        2 => Mutation::Splice(g.range_f64(0.0, 1.0), g.range_f64(0.0, 1.0)),
        _ => Mutation::Lie {
            key: KEYS[g.range_usize(0, KEYS.len())],
            nth: g.range_usize(0, 20),
            value: LIES[g.range_usize(0, LIES.len())],
        },
    }
}

fn mutate(doc: &str, other: &str, m: Mutation) -> String {
    let at = |text: &str, fraction: f64| ((text.len() as f64 * fraction) as usize).min(text.len());
    let mut bytes = doc.as_bytes().to_vec();
    match m {
        Mutation::Flip(fraction, bit) => {
            let i = at(doc, fraction).min(doc.len() - 1);
            bytes[i] ^= 1 << bit;
        }
        Mutation::Truncate { class, nth, after } => {
            let hits: Vec<usize> = (0..bytes.len()).filter(|&i| bytes[i] == class).collect();
            if let Some(&i) = hits.get(nth % hits.len().max(1)) {
                bytes.truncate(i + after as usize);
            }
        }
        Mutation::Splice(head, tail) => {
            bytes.truncate(at(doc, head));
            bytes.extend_from_slice(&other.as_bytes()[at(other, tail)..]);
        }
        Mutation::Lie { key, nth, value } => {
            let needle = format!("\"{key}\":");
            let hits: Vec<usize> = doc.match_indices(&needle).map(|(i, _)| i + needle.len()).collect();
            if let Some(&start) = hits.get(nth % hits.len().max(1)) {
                let len = doc[start..].find([',', '}']).unwrap_or(0);
                bytes.splice(start..start + len, value.bytes());
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

#[test]
fn no_mutation_of_a_trace_or_an_analysis_does_worse_than_err() {
    check_with(
        Config::with_cases(256),
        "obs_readers_survive_mutation",
        |g| {
            let streams = every_variant(g);
            let input =
                AnalysisInput { streams: &streams, retained: vec![], predicted_imbalance: 1.0 };
            let docs = [trace_of(&streams), analyze(&input).to_json()];
            let which = g.range_usize(0, 2);
            let mut text = docs[which].clone();
            let mutations: Vec<Mutation> = (0..g.size(1, 3)).map(|_| mutation(g)).collect();
            for &m in &mutations {
                if !text.is_empty() {
                    text = mutate(&text, &docs[1 - which], m);
                }
            }
            (mutations, text)
        },
        |(_, text)| {
            // Reaching the end of this closure is the property: every
            // reader returns, `Ok` or `Err`, on whatever the bytes are.
            let parsed = Json::parse(text);
            let checked = validate_chrome_trace(text);
            let streams = streams_from_chrome(text);
            if let Ok(j) = &parsed {
                let _ = Analysis::from_json(j);
                let _ = j.get("analysis").map(Analysis::from_json);
            }
            // And the two trace readers are one walk: they accept and
            // reject the same documents, for the same reason.
            match (&checked, &streams) {
                (Ok(_), Ok((s, retained))) => {
                    tk_assert!(s.len() <= MAX_TRACE_RANKS, "{} streams", s.len());
                    tk_assert!(retained.len() == s.len(), "{} ring counts", retained.len());
                    let retained = retained.clone();
                    let input = AnalysisInput { streams: s, retained, predicted_imbalance: 1.0 };
                    let a = analyze(&input);
                    tk_assert!(a.rank_path.len() == s.len(), "{a:?}");
                }
                (Ok(c), Err(e)) => tk_assert!(
                    e == "trace contains no analyzable events" && c.spans + c.kills == 0,
                    "validated {c:?} but import said {e}"
                ),
                (Err(e), Ok(_)) => return Err(format!("imported what validation refused: {e}")),
                (Err(a), Err(b)) => tk_assert!(a == b, "validate: {a}; import: {b}"),
            }
            if let Err(e) = &parsed {
                tk_assert!(checked.as_ref().err() == Some(e), "parse: {e}; validate: {checked:?}");
            }
            Ok(())
        },
    );
}
