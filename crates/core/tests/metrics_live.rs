//! The live metrics endpoint, end to end: a supervised parallel run
//! with a metrics hub attached publishes the allreduced counter
//! snapshot as a Prometheus text exposition while stepping, the
//! `metrics_port=` server serves it over plain TCP (scraped with a std
//! `TcpStream` — the curl-free CI check), and attaching metrics
//! perturbs nothing.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;
use yy_obs::{MetricsHub, MetricsServer};
use yycore::parallel::{run_parallel_supervised, RecoveryOpts};
use yycore::{ObsOpts, RunConfig};

fn quick_cfg() -> RunConfig {
    let mut cfg = RunConfig::small();
    cfg.init.perturb_amplitude = 1e-2;
    cfg
}

fn run_with_obs(obs: ObsOpts) -> yycore::parallel::SupervisedReport {
    run_parallel_supervised(
        &quick_cfg(),
        2,
        2,
        4,
        0,
        &RecoveryOpts { deadline: Duration::from_secs(30), obs, ..RecoveryOpts::default() },
    )
    .expect("supervised run completes")
}

/// Parse every non-comment exposition line as `name{labels} value` and
/// return the value of the first line whose name part matches `key`.
fn sample_value(body: &str, key: &str) -> Option<f64> {
    for line in body.lines().filter(|l| !l.starts_with('#') && !l.is_empty()) {
        let mut parts = line.rsplitn(2, ' ');
        let value = parts.next()?;
        let name = parts.next()?;
        assert!(value.parse::<f64>().is_ok(), "unparseable sample value in {line:?}");
        if name == key {
            return value.parse().ok();
        }
    }
    None
}

#[test]
fn injected_hub_publishes_parseable_exposition_without_perturbing() {
    let baseline = run_with_obs(ObsOpts::default());

    let hub = Arc::new(MetricsHub::new());
    let with_metrics = run_with_obs(ObsOpts {
        metrics_hub: Some(Arc::clone(&hub)),
        ..ObsOpts::default()
    });

    // The hub holds the last published exposition; every sample line is
    // parseable and the counters are live (nonzero flops, current step).
    let body = hub.scrape();
    assert!(!body.is_empty(), "hub must have been published to");
    assert!(body.contains("# TYPE yy_kernel_flops_total counter"));
    let flops = sample_value(&body, "yy_kernel_flops_total{kernel=\"rhs\"}")
        .expect("rhs flops sample present");
    assert!(flops > 0.0, "allreduced RHS flops must be nonzero, got {flops}");
    let step = sample_value(&body, "yy_step").expect("step gauge present");
    assert!(step > 0.0 && step <= 4.0, "step gauge in range, got {step}");

    // PR 8 io telemetry rides the same allreduce: the writer-wait phase
    // gauge and the output kernel slot are always exported, even when
    // they are zero on a run without output.
    let ww = sample_value(&body, "yy_phase_wall_seconds{phase=\"writer_wait\"}")
        .expect("writer_wait phase gauge present");
    assert!(ww >= 0.0);
    for name in yy_obs::event::Phase::ALL.map(|p| p.name()) {
        assert!(
            sample_value(&body, &format!("yy_phase_wall_seconds{{phase=\"{name}\"}}")).is_some(),
            "phase gauge {name} missing from exposition"
        );
    }
    let interior = sample_value(&body, "yy_phase_wall_seconds{phase=\"interior\"}").unwrap();
    assert!(interior > 0.0, "interior wall must be nonzero on a stepped run");
    assert!(
        sample_value(&body, "yy_kernel_wall_ns_total{kernel=\"output\"}").is_some(),
        "output kernel slot missing from exposition"
    );

    // Publishing metrics must not perturb the trajectory.
    let bytes = |ck: &yycore::checkpoint::Checkpoint| {
        let mut v = Vec::new();
        ck.write_to(&mut v).expect("serialize checkpoint");
        v
    };
    assert_eq!(
        bytes(&baseline.final_checkpoint),
        bytes(&with_metrics.final_checkpoint),
        "metrics publishing changed the trajectory"
    );
}

#[test]
fn tcp_endpoint_serves_the_exposition_mid_run() {
    // Arrange the server exactly as the CLI does for `metrics_port=`,
    // but on port 0 so the OS picks a free one, and keep the hub handle
    // so the scrape can race the run: the body must be valid whenever it
    // is non-empty, including while ranks are still stepping.
    let hub = Arc::new(MetricsHub::new());
    let server = MetricsServer::start(Arc::clone(&hub), 0).expect("bind 127.0.0.1:0");
    let addr = server.local_addr();

    let scraper = std::thread::spawn(move || {
        // Poll until a published body shows up (mid-run) or give up.
        for _ in 0..600 {
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").expect("request");
            let mut resp = String::new();
            stream.read_to_string(&mut resp).expect("response");
            assert!(resp.starts_with("HTTP/1.0 200 OK"), "bad response: {resp}");
            let body = resp.split("\r\n\r\n").nth(1).unwrap_or("");
            if !body.is_empty() {
                return body.to_string();
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        panic!("no exposition published within the polling budget");
    });

    // The hub is published every step, so the scraper thread races a
    // live, repeatedly-updated body.
    let _run = run_with_obs(ObsOpts { metrics_hub: Some(Arc::clone(&hub)), ..ObsOpts::default() });

    let body = scraper.join().expect("scraper thread");
    assert!(body.contains("yy_step"), "exposition has the step gauge: {body}");
    for line in body.lines().filter(|l| !l.starts_with('#') && !l.is_empty()) {
        let value = line.rsplitn(2, ' ').next().unwrap();
        assert!(value.parse::<f64>().is_ok(), "unparseable sample value in {line:?}");
    }
}
