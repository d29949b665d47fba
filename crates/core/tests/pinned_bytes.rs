//! The exporters' bytes, pinned: `fixtures/` was written by the commit
//! before the vocabularies (`yy_obs::event`) became typed and the
//! exporters became loops over them, from these same inputs. A diff here
//! is a format change every reader of a trace, a scrape or a report sees.
//! `fixtures/run_report.json` has since lost the keys no reader consumed,
//! the whole `histograms` line (`queue_depth`, `recv_wait_ns`,
//! `step_wall_ns`), `io.async_mode`, `io.writer_wait_s` and the io
//! section's count of streamed snapshot files, and nothing else.
//! `fixtures/exposition.prom` has since reworded the `yy_queue_depth` help
//! line to say what is published, rank 0's high-water mark, and nothing else.
//! `fixtures/chrome_trace.json` has lost its three `"ph":"C"` counter
//! records, which the format no longer has, and its `"fault drop"`
//! instant, whose fault kind is gone with the record that wrote it; its
//! two `thread_name` records have gained their ring's `recorded` and
//! `capacity`; nothing else.
//! `fixtures/tables.txt` is the stdout of `yycore tables` at the commit
//! before its printout moved into `yycore::report::paper_tables_text`.

use yy_obs::chrome::{chrome_trace_json, RankTrace};
use yy_obs::event::{AlertKind, FaultKind, HealthCode, Phase, TrafficClass};
use yy_obs::analysis::{Analysis, Disruption, PhaseGate, Reason, Straggler};
use yy_obs::{AlertEvent, CounterSnapshot, Event, TimedEvent};
use yycore::report::{PhaseBreakdown, RunReport};

/// Seconds per phase, in [`Phase::ALL`] order.
const PHASE_S: [f64; Phase::COUNT] = [0.125, 1.25, 0.5, 0.75, 0.0625, 0.03125];

fn te(ts_ns: u64, event: Event) -> TimedEvent {
    TimedEvent { ts_ns, event }
}

/// One of every [`Event`] variant over two ranks (both alert edges).
fn every_variant() -> Vec<RankTrace> {
    let t0 = vec![
        te(1_000, Event::StepBegin { step: 7 }),
        te(3_000, Event::Send { peer: 1, class: TrafficClass::Halo, bytes: 800, tag16: 11, seq: 0 }),
        te(3_500, Event::Send { peer: 1, class: TrafficClass::Overset, bytes: 96, tag16: 12, seq: 3 }),
        te(9_000, Event::Phase { phase: Phase::Interior, dur_ns: 5_000 }),
        te(9_100, Event::Phase { phase: Phase::WriterWait, dur_ns: 50 }),
        te(9_500, Event::KillInjected { step: 4 }),
    ];
    let t1 = vec![
        te(2_000, Event::StepBegin { step: 7 }),
        te(6_000, Event::Recv { peer: 0, class: None, bytes: 800, tag16: 11, seq: 0 }),
        te(7_001, Event::Phase { phase: Phase::Wait, dur_ns: 1_001 }),
        te(8_000, Event::CheckpointSaved { step: 2 }),
        te(8_500, Event::HealthViolation { code: HealthCode::DensityFloor, step: 3 }),
        te(8_600, Event::Rollback { pass: 1, resume_step: 2 }),
        te(8_750, Event::FaultInjected { kind: FaultKind::Delay, peer: 0, param: 200 }),
        te(8_800, Event::Retile { pth: 1, pph: 2, pass: 2, resume_step: 4 }),
        te(8_900, Event::Degraded { pass: 2, checkpoint_every: 4 }),
        te(9_200, Event::Alert { rule: 0, kind: AlertKind::DtCollapse, firing: true, step: 6 }),
        te(9_300, Event::Alert { rule: 1, kind: AlertKind::Flatline, firing: false, step: 8 }),
    ];
    vec![
        RankTrace { rank: 0, events: t0, recorded: 6, capacity: 8192 },
        RankTrace { rank: 1, events: t1, recorded: 75, capacity: 11 },
    ]
}

/// A snapshot with every word of every kernel non-zero (but the output
/// kernel's flops), built through the f64 words so the recipe does not
/// depend on the snapshot's layout.
fn fixed_snapshot() -> CounterSnapshot {
    let words: Vec<f64> = (0..8u64)
        .flat_map(|i| {
            let n = i + 1;
            let flops = if i == 7 { 0 } else { 40_960 * n };
            [n, 64 * n, 8 * n, 192 * n, flops, 28_672 * n, 512 * n + i, 1_000_000 * n + 7]
        })
        .map(|w| w as f64)
        .collect();
    CounterSnapshot::from_f64s(&words)
}

#[test]
fn chrome_trace_bytes_are_pinned() {
    let doc = chrome_trace_json(&every_variant());
    assert_eq!(doc, include_str!("fixtures/chrome_trace.json"));
    // And the pinned document reads back as the 17 events that wrote it.
    let check = yy_obs::validate_chrome_trace(&doc).expect("valid");
    assert_eq!((check.spans, check.kills, check.retiles, check.degrades), (3, 1, 1, 1));
    assert_eq!(check.alerts, 2);
    assert_eq!((check.flow_starts, check.flow_finishes, check.tracks), (2, 1, 2));
    let (streams, retained) = yy_obs::streams_from_chrome(&doc).expect("re-imports");
    assert_eq!(streams.iter().map(Vec::len).collect::<Vec<_>>(), [6, 11]);
    assert_eq!(retained, [(6, 8192), (75, 11)]);
}

#[test]
fn exposition_bytes_are_pinned() {
    let text = yy_obs::prometheus_text(&fixed_snapshot(), 12, 3, &PHASE_S);
    assert_eq!(text, include_str!("fixtures/exposition.prom"));
}

#[test]
fn run_report_bytes_are_pinned() {
    let report = RunReport {
        time: 0.5,
        steps: 3,
        flops: 1234,
        wall_seconds: 0.25,
        grid_points: 99,
        halo_bytes: 10,
        overset_bytes: 20,
        max_queue_depth: 2,
        phases: PhaseBreakdown { seconds: PHASE_S },
        kernels: fixed_snapshot(),
        analysis: Analysis {
            steps_analyzed: 12,
            coverage: 1.0,
            gating: vec![
                PhaseGate { phase: Phase::Wait, steps: 7 },
                PhaseGate { phase: Phase::Interior, steps: 5 },
            ],
            rank_path: vec![2, 7, 2, 1],
            stragglers: vec![Straggler {
                rank: 1,
                reason: Reason::LateSender,
                severity: 14.25,
                detail: "mean send->recv lag 2150us vs median 12us".into(),
            }],
            disruptions: vec![Disruption { rank: 1, step: 5, kind: "kill".into() }],
            verdict: "wait-gated 58% of 12 steps".into(),
        },
        alerts: vec![AlertEvent {
            rule: "energy_blowup".into(),
            rule_index: 0,
            kind: AlertKind::DtCollapse,
            firing: true,
            step: 7,
            time: 0.0625,
            value: 1e-6,
        }],
        ..Default::default()
    };
    assert_eq!(report.to_json(), include_str!("fixtures/run_report.json"));
}

/// Exact counts in, no timings: the same text in every build on every host.
#[test]
fn paper_tables_text_is_pinned() {
    assert_eq!(yycore::report::paper_tables_text(), include_str!("fixtures/tables.txt"));
}
