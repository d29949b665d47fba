//! Observability, end to end: a supervised parallel run with the flight
//! recorder armed must (a) leave a valid post-mortem Chrome trace when a
//! rank is killed, (b) produce a schema-versioned run report whose
//! receive wait is measured, and (c) perturb nothing — the traced
//! trajectory is bit-identical to the untraced one.

use std::path::PathBuf;
use std::time::Duration;
use yy_obs::event::Phase;
use yy_parcomm::FaultSpec;
use yycore::parallel::{run_parallel_supervised, RecoveryOpts};
use yycore::{ObsOpts, RunConfig, TraceMode};

fn quick_cfg() -> RunConfig {
    let mut cfg = RunConfig::small();
    cfg.init.perturb_amplitude = 1e-2;
    cfg
}

/// A scratch directory unique to this test binary run.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("yy-obs-test-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn killed_run_opts(obs: ObsOpts) -> RecoveryOpts {
    RecoveryOpts {
        fault: FaultSpec::seeded(42)
            .with_delay(0.15, Duration::from_micros(200))
            .with_kill(1, 4),
        checkpoint_every: 2,
        deadline: Duration::from_secs(30),
        obs,
        ..RecoveryOpts::default()
    }
}

#[test]
fn traced_faulted_run_writes_artifacts_and_stays_bit_identical() {
    let cfg = quick_cfg();
    let dir = scratch("traced");
    let trace = dir.join("trace.json");

    // The baseline run records nothing: no trace, no counters.
    let untraced = run_parallel_supervised(
        &cfg,
        2,
        2,
        6,
        0,
        &killed_run_opts(ObsOpts { counters: false, ..ObsOpts::default() }),
    )
    .expect("untraced run recovers");
    // The traced run turns everything on.
    let obs = ObsOpts { trace: Some(trace.clone()), ..ObsOpts::default() };
    let traced = run_parallel_supervised(&cfg, 2, 2, 6, 0, &killed_run_opts(obs))
        .expect("traced run recovers");

    // (c) Tracing must not perturb the computation.
    let bytes = |ck: &yycore::checkpoint::Checkpoint| {
        let mut v = Vec::new();
        ck.write_to(&mut v).expect("serialize checkpoint");
        v
    };
    assert_eq!(
        bytes(&untraced.final_checkpoint),
        bytes(&traced.final_checkpoint),
        "tracing changed the trajectory"
    );

    // (a) The killed pass left a post-mortem; the completed run a trace.
    let pm_path = dir.join("trace.json.postmortem");
    let pm = std::fs::read_to_string(&pm_path).expect("post-mortem trace written");
    let check = yy_obs::validate_chrome_trace(&pm).expect("post-mortem is a valid Chrome trace");
    assert_eq!(check.tracks, 8, "one track per rank (2x2 tiles x 2 panels)");
    assert!(check.kills >= 1, "post-mortem must contain the kill event");
    assert!(check.spans > 0, "post-mortem must contain phase spans");

    let final_trace = std::fs::read_to_string(&trace).expect("final trace written");
    let fc = yy_obs::validate_chrome_trace(&final_trace).expect("final trace valid");
    assert_eq!(fc.tracks, 8);
    assert!(fc.flow_starts > 0 && fc.flow_finishes > 0, "message flow arrows present");

    // (b) Report: versioned JSON, receive wait measured, sane.
    let report = &traced.report;
    assert!(report.phases.get(Phase::Wait) > 0.0, "the faulted run waited in receives");
    assert_eq!(report.recoveries.len(), traced.recoveries.len());
    let doc = yy_obs::Json::parse(&report.to_json()).expect("report JSON parses");
    assert_eq!(doc.get("schema").unwrap().as_str(), Some("yy.runreport.v6"));
    assert!(doc.get("histograms").is_none(), "the artifact carries no histograms section");
    // The v5 analysis section: populated on the traced run (recorders
    // armed), carried in the artifact, and the injected kill shows up
    // as a critical-path disruption.
    assert!(report.analysis.steps_analyzed > 0, "analysis ran: {}", report.analysis.verdict);
    assert!(report.analysis.coverage > 0.0);
    assert!(
        report.analysis.disruptions.iter().any(|d| d.kind == "kill"),
        "the injected kill is a disruption: {:?}",
        report.analysis.disruptions
    );
    assert!(
        doc.get("analysis").unwrap().get("verdict").unwrap().as_str().is_some(),
        "analysis section serialized"
    );
    // The untraced run had no recorders: its analysis stays default.
    assert_eq!(untraced.report.analysis.steps_analyzed, 0);
    let kernels = doc.get("kernels").expect("v2 report carries the kernel table");
    assert!(
        kernels.as_arr().is_some_and(|rows| !rows.is_empty()),
        "kernel table must have rows"
    );
    assert!(report.kernels.total_flops() > 0, "counters armed by default");

    std::fs::remove_dir_all(&dir).ok();
}

/// The ISSUE 9 acceptance case: a seeded 2x2 run where every message
/// rank 3 posts is held back 30ms (deterministically — other senders
/// deliver untouched) must be diagnosed end to end: the report's
/// analysis names rank 3 as the top straggler with reason "late
/// sender". The delay must dominate the natural send->recv matching
/// lag (receivers post receives milliseconds after the send on this
/// tiny grid), hence tens of ms rather than µs.
#[test]
fn late_sender_is_named_top_straggler_with_reason() {
    let cfg = quick_cfg();
    let opts = RecoveryOpts {
        fault: FaultSpec::seeded(9)
            .with_delay_range(1.0, Duration::from_millis(30), Duration::from_millis(30))
            .with_delay_src(3),
        deadline: Duration::from_secs(30),
        obs: ObsOpts { mode: TraceMode::Enabled, ..ObsOpts::default() },
        ..RecoveryOpts::default()
    };
    let sup = run_parallel_supervised(&cfg, 2, 2, 6, 0, &opts).expect("delayed run completes");
    let a = &sup.report.analysis;
    assert!(a.steps_analyzed > 0, "analysis must cover steps: {}", a.verdict);
    let top = a.stragglers.first().expect("a straggler must be named");
    assert_eq!(top.rank, 3, "the delayed sender is the top straggler: {:?}", a.stragglers);
    assert_eq!(top.reason.name(), "late sender");
    assert!(a.verdict.contains("late sender"), "{}", a.verdict);
    assert!(top.detail.contains("lag"), "{}", top.detail);
}

/// The seeded blow-up rehearsal: series armed, and from step 10 the
/// applied dt halves every step, which trips `energy_blowup`.
fn collapse_opts(obs: ObsOpts) -> RecoveryOpts {
    RecoveryOpts {
        deadline: Duration::from_secs(30),
        obs: ObsOpts { series: true, ..obs },
        dt_inject: Some(yycore::DtInject { at_step: 10 }),
        ..RecoveryOpts::default()
    }
}

/// The `step_wall_ms` samples of an armed report's telemetry section
/// (NaN where the store holds none).
fn step_walls(report: &yycore::RunReport) -> Vec<f64> {
    let text = report.telemetry.as_deref().expect("telemetry armed");
    let doc = yy_obs::Json::parse(text).expect("telemetry parses");
    let channels = doc.arr_at("channels").expect("channels");
    let wall = channels.iter().find(|c| c.str_at("name") == Some("step_wall_ms")).unwrap();
    let raw = wall.arr_at("raw").expect("raw samples");
    let ms = |s: &yy_obs::Json| s.as_arr().and_then(|s| s.get(1)).and_then(|v| v.as_f64());
    raw.iter().map(|s| ms(s).unwrap_or(f64::NAN)).collect()
}

/// Science telemetry end to end in the supervised driver: a seeded
/// dt-collapse run with series armed must (a) fire the `energy_blowup`
/// watchdog rule into the report's `alerts`, (b) stamp each alert edge
/// into the exported Chrome trace at the step it fired, (c) publish
/// `yy_alert_active` / `yy_energy` science gauges into the metrics hub,
/// and (d) carry the series store, step wall included, in the v6 report
/// — while a clean armed run fires nothing and stays bit-identical to an
/// unarmed one.
#[test]
fn seeded_collapse_fires_alerts_into_report_trace_and_gauges() {
    use std::sync::Arc;
    use yy_obs::Event;
    let cfg = quick_cfg();
    let dir = scratch("watchdog");
    let trace = dir.join("trace.json");
    let hub = Arc::new(yy_obs::MetricsHub::new());
    let opts = collapse_opts(ObsOpts {
        trace: Some(trace.clone()),
        metrics_hub: Some(Arc::clone(&hub)),
        ..ObsOpts::default()
    });
    let sup = run_parallel_supervised(&cfg, 1, 2, 16, 1, &opts).expect("seeded run completes");
    // (a) Report alerts.
    let fired: Vec<_> = sup.report.alerts.iter().filter(|a| a.firing).collect();
    assert!(
        fired.iter().any(|a| a.rule == "energy_blowup"),
        "collapse must fire the precursor: {:?}",
        sup.report.alerts
    );
    // (d) Report telemetry section.
    let doc = yy_obs::Json::parse(&sup.report.to_json()).expect("report parses");
    assert!(!doc.get("alerts").unwrap().as_arr().unwrap().is_empty());
    assert!(doc.get("telemetry").unwrap().get("channels").is_some());
    let walls = step_walls(&sup.report);
    assert!(!walls.is_empty() && walls.iter().all(|ms| ms.is_finite()), "{walls:?}");
    // (b) Trace instants, each before the next step begins: rank 0
    // records the edge when the sample fires it.
    let text = std::fs::read_to_string(&trace).expect("trace written");
    let check = yy_obs::validate_chrome_trace(&text).expect("trace valid");
    assert!(check.alerts >= 1, "alert instants in the trace: {check:?}");
    let (streams, _) = yy_obs::streams_from_chrome(&text).expect("trace streams");
    let rank0 = &streams[0];
    let mut early = 0;
    for (i, te) in rank0.iter().enumerate() {
        if let Event::Alert { step, .. } = te.event {
            if step < 16 {
                early += 1;
                assert!(
                    rank0[i..].iter().any(|t| t.event == Event::StepBegin { step }),
                    "alert at step {step} is not followed by that step's begin"
                );
            }
        }
    }
    assert!(early >= 1, "the collapse fires before the last step");
    // (c) Science gauges on the endpoint body.
    let body = hub.scrape();
    assert!(body.contains("yy_alert_active{rule=\"energy_blowup\"} 1"), "gauges: {body}");
    assert!(body.contains("yy_energy{component=\"kinetic\"}"));
    assert!(body.contains("# HELP yy_alert_active"));

    // Clean armed run: nothing fires, trajectory bit-identical.
    let clean_armed = run_parallel_supervised(
        &cfg,
        1,
        2,
        6,
        1,
        &RecoveryOpts {
            deadline: Duration::from_secs(30),
            obs: ObsOpts { series: true, ..ObsOpts::default() },
            ..RecoveryOpts::default()
        },
    )
    .expect("clean armed run");
    assert!(clean_armed.report.alerts.is_empty(), "{:?}", clean_armed.report.alerts);
    let unarmed = run_parallel_supervised(
        &cfg,
        1,
        2,
        6,
        1,
        &RecoveryOpts { deadline: Duration::from_secs(30), ..RecoveryOpts::default() },
    )
    .expect("unarmed run");
    let bytes = |ck: &yycore::checkpoint::Checkpoint| {
        let mut v = Vec::new();
        ck.write_to(&mut v).expect("serialize checkpoint");
        v
    };
    assert_eq!(
        bytes(&clean_armed.final_checkpoint),
        bytes(&unarmed.final_checkpoint),
        "arming telemetry changed the trajectory"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// One feed, two drivers: the serial loop and rank 0 of a supervised
/// 1x2 run each feed the samples of the same trajectory, with their own
/// step wall, as they take them — so the seeded collapse fires the same
/// alert edges at the same step and time.
#[test]
fn serial_and_parallel_collapse_fire_the_same_edges() {
    let cfg = quick_cfg();
    let opts = collapse_opts(ObsOpts::default());
    let mut sim = yycore::SerialSim::new(cfg.clone());
    sim.arm_telemetry(&opts.obs).expect("default rules arm");
    sim.dt_inject = opts.dt_inject;
    let serial = sim.run(16, 1);
    let par = run_parallel_supervised(&cfg, 1, 2, 16, 1, &opts).expect("seeded run completes");
    let edges = |r: &yycore::RunReport| {
        let edge = |a: &yy_obs::AlertEvent| (a.rule.clone(), a.kind, a.firing, a.step, a.time);
        r.alerts.iter().map(edge).collect::<Vec<_>>()
    };
    assert!(serial.alerts.iter().any(|a| a.firing), "the collapse fires: {:?}", serial.alerts);
    assert_eq!(edges(&serial), edges(&par.report));
    for walls in [step_walls(&serial), step_walls(&par.report)] {
        assert_eq!(walls.len(), 16, "one fed sample per step");
        assert!(walls.iter().all(|ms| ms.is_finite()), "{walls:?}");
    }
}
