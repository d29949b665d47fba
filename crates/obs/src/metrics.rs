//! Zero-dependency live metrics endpoint: Prometheus text exposition
//! over a std `TcpListener`.
//!
//! A long supervised run should be watchable without waiting for the
//! final `RunReport`. Rank 0 periodically renders the allreduced
//! [`CounterSnapshot`] into the Prometheus text format (version 0.0.4 —
//! plain `# TYPE` lines plus `name{label="v"} value` samples, parseable
//! by Prometheus, `promtool`, or a bare `nc`) and publishes it to a
//! [`MetricsHub`]. A [`MetricsServer`] answers every HTTP request on its
//! port with the hub's current body. The server is a single poll-loop
//! thread over a nonblocking listener — no async runtime, no HTTP
//! library, nothing beyond `std::net`.
//!
//! The hub/server split keeps the solver decoupled from the socket: the
//! solver only ever locks a `Mutex<String>` for a swap, and tests can
//! inject a hub and scrape it with a plain `TcpStream` (the curl-free CI
//! check).

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::counters::{CounterSnapshot, KernelSnapshot};
use crate::event::Phase;
use crate::json::num;

/// Shared exposition body: the solver publishes, the server (and tests)
/// scrape.
#[derive(Debug, Default)]
pub struct MetricsHub {
    body: Mutex<String>,
}

impl MetricsHub {
    /// A hub with an empty body.
    pub fn new() -> Self {
        MetricsHub::default()
    }

    /// Replace the exposition body with a freshly rendered snapshot.
    pub fn publish(&self, body: String) {
        *self.body.lock().unwrap_or_else(|e| e.into_inner()) = body;
    }

    /// The current exposition body.
    pub fn scrape(&self) -> String {
        self.body.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }
}

/// Push the `# HELP` + `# TYPE` header pair for a metric family. Every
/// family in the exposition goes through here, so the parser test can
/// require both lines for every sample.
fn family(out: &mut String, name: &str, kind: &str, help: &str) {
    out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
}

/// Help text of the `yy_kernel_<word>_total` family per entry of
/// [`KernelSnapshot::WORD_NAMES`]; `None` keeps that word out of the
/// exposition.
const KERNEL_WORD_HELP: [Option<&str>; KernelSnapshot::WORD_NAMES.len()] = [
    Some("Kernel invocations since run start."),
    Some("Grid points the kernel processed."),
    None, // loops
    None, // vector_elements
    Some("Exact modeled floating-point operations."),
    Some("Modeled bytes read by the kernel."),
    Some("Modeled bytes written by the kernel."),
    Some("Wall nanoseconds spent in the kernel."),
];

/// Render a merged counter snapshot, the run-level gauges and the
/// allreduced wall seconds of every solver phase (indexed by [`Phase`];
/// the `WriterWait` gauge is where the io telemetry becomes scrapeable
/// live) in the Prometheus text exposition format — the body rank 0
/// publishes.
pub fn prometheus_text(
    snap: &CounterSnapshot,
    step: u64,
    queue_depth: u64,
    phase_wall_s: &[f64; Phase::COUNT],
) -> String {
    let mut out = String::with_capacity(4096);
    family(&mut out, "yy_step", "gauge", "Current solver step.");
    out.push_str(&format!("yy_step {step}\n"));
    family(&mut out, "yy_queue_depth", "gauge", "Rank 0's highest mailbox queue depth since the pass began.");
    out.push_str(&format!("yy_queue_depth {queue_depth}\n"));
    for (word, (name, help)) in KernelSnapshot::WORD_NAMES.iter().zip(KERNEL_WORD_HELP).enumerate() {
        let Some(help) = help else { continue };
        let metric = format!("yy_kernel_{name}_total");
        family(&mut out, &metric, "counter", help);
        for (kernel, k) in snap.rows() {
            out.push_str(&format!("{metric}{{kernel=\"{}\"}} {}\n", kernel.name(), k.words()[word]));
        }
    }
    family(&mut out, "yy_kernel_mflops", "gauge", "Achieved MFLOPS over the last window.");
    for (kernel, k) in snap.rows() {
        out.push_str(&format!(
            "yy_kernel_mflops{{kernel=\"{}\"}} {}\n",
            kernel.name(),
            num(k.mflops())
        ));
    }
    family(&mut out, "yy_phase_wall_seconds", "gauge", "Allreduced wall seconds per solver phase.");
    for (phase, secs) in Phase::ALL.into_iter().zip(phase_wall_s) {
        out.push_str(&format!(
            "yy_phase_wall_seconds{{phase=\"{}\"}} {}\n",
            phase.name(),
            num(*secs)
        ));
    }
    out
}

/// One science-telemetry snapshot for the live endpoint: the latest
/// sampled physics values plus the watchdog's firing state, rendered as
/// Prometheus gauges. The supervisor appends this to the body it
/// publishes at the metrics cadence, so `yycore watch` (or any scraper)
/// sees the physics plane next to the perf counters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScienceGauges {
    /// `(component name, energy)` pairs — kinetic / magnetic / thermal.
    pub energy: Vec<(String, f64)>,
    /// Latest CFL time step.
    pub dt: f64,
    /// Latest maximum flow speed.
    pub max_speed: f64,
    /// Latest maximum field strength.
    pub max_b: f64,
    /// Dominant azimuthal mode m of the equatorial vorticity ring
    /// (−1 when the run does not probe it).
    pub dominant_m: i64,
    /// `(rule name, currently firing, times fired)` per watchdog rule.
    pub alerts: Vec<(String, bool, u32)>,
}

/// Render [`ScienceGauges`] in the Prometheus text format.
pub fn science_gauges_text(g: &ScienceGauges) -> String {
    let mut out = String::with_capacity(512);
    if !g.energy.is_empty() {
        family(&mut out, "yy_energy", "gauge", "Volume-integrated energy by component.");
        for (component, e) in &g.energy {
            out.push_str(&format!(
                "yy_energy{{component=\"{component}\"}} {}\n",
                num(*e)
            ));
        }
    }
    family(&mut out, "yy_dt", "gauge", "Latest CFL time step.");
    out.push_str(&format!("yy_dt {}\n", num(g.dt)));
    family(&mut out, "yy_max_speed", "gauge", "Maximum flow speed over the grid.");
    out.push_str(&format!("yy_max_speed {}\n", num(g.max_speed)));
    family(&mut out, "yy_max_b", "gauge", "Maximum magnetic field strength over the grid.");
    out.push_str(&format!("yy_max_b {}\n", num(g.max_b)));
    family(
        &mut out,
        "yy_dominant_m",
        "gauge",
        "Dominant azimuthal mode of the equatorial vorticity ring (-1 when unprobed).",
    );
    out.push_str(&format!("yy_dominant_m {}\n", g.dominant_m));
    if !g.alerts.is_empty() {
        family(&mut out, "yy_alert_active", "gauge", "1 while the watchdog rule is firing.");
        for (rule, firing, _) in &g.alerts {
            out.push_str(&format!(
                "yy_alert_active{{rule=\"{rule}\"}} {}\n",
                *firing as u8
            ));
        }
        family(&mut out, "yy_alert_fired_total", "counter", "Fire edges per watchdog rule.");
        for (rule, _, fired) in &g.alerts {
            out.push_str(&format!("yy_alert_fired_total{{rule=\"{rule}\"}} {fired}\n"));
        }
    }
    out
}

/// Parse a text exposition (the format the `*_text` writers above
/// emit) into `(sample name, value)` pairs. The sample name keeps its
/// `{label="v"}` part; comment and blank lines are skipped.
pub fn parse_exposition(text: &str) -> Vec<(String, f64)> {
    text.lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let (name, value) = l.rsplit_once(' ')?;
            Some((name.to_string(), value.parse().ok()?))
        })
        .collect()
}

/// The first `"quoted"` label value inside a sample name, e.g.
/// `kinetic` from `yy_energy{component="kinetic"}`.
pub fn label_value(sample: &str) -> Option<&str> {
    let start = sample.find('"')? + 1;
    let end = start + sample[start..].find('"')?;
    Some(&sample[start..end])
}

/// Plain HTTP/1.0 GET over a std `TcpStream` — the client half of
/// [`MetricsServer`]. `url` is `http://host:port[/path]` (the path
/// defaults to `/metrics`). Returns the response body.
pub fn http_get(url: &str) -> Result<String, String> {
    let rest = url
        .strip_prefix("http://")
        .ok_or_else(|| format!("only http:// URLs are supported, got '{url}'"))?;
    let (hostport, path) = match rest.split_once('/') {
        Some((h, p)) => (h, format!("/{p}")),
        None => (rest, "/metrics".to_string()),
    };
    let mut stream = std::net::TcpStream::connect(hostport)
        .map_err(|e| format!("connecting {hostport}: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .map_err(|e| format!("configuring socket to {hostport}: {e}"))?;
    write!(stream, "GET {path} HTTP/1.0\r\nHost: {hostport}\r\nConnection: close\r\n\r\n")
        .map_err(|e| format!("sending request to {hostport}: {e}"))?;
    let mut resp = String::new();
    stream
        .read_to_string(&mut resp)
        .map_err(|e| format!("reading response from {hostport}: {e}"))?;
    match resp.split_once("\r\n\r\n") {
        Some((_, body)) => Ok(body.to_string()),
        None => Err(format!("{hostport}: malformed HTTP response")),
    }
}

/// Minimal HTTP/1.0 server publishing a [`MetricsHub`] body on every
/// request. Bind with port 0 to let the OS choose (tests); stop via
/// [`MetricsServer::stop`] or drop.
#[derive(Debug)]
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// Bind `127.0.0.1:port` and start answering requests with the
    /// hub's current body.
    pub fn start(hub: Arc<MetricsHub>, port: u16) -> std::io::Result<MetricsServer> {
        let listener = TcpListener::bind(("127.0.0.1", port))?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("yy-metrics".into())
            .spawn(move || serve(listener, hub, stop2))?;
        Ok(MetricsServer { addr, stop, handle: Some(handle) })
    }

    /// The bound address (useful after binding port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Signal the serving thread and join it.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.stop();
    }
}

fn serve(listener: TcpListener, hub: Arc<MetricsHub>, stop: Arc<AtomicBool>) {
    while !stop.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((mut stream, _)) => {
                // Read whatever request line arrives (we answer any
                // path), bounded so a stalled client can't wedge us.
                let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
                let mut buf = [0u8; 1024];
                let _ = stream.read(&mut buf);
                let body = hub.scrape();
                let resp = format!(
                    "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\n\r\n{}",
                    body.len(),
                    body
                );
                let _ = stream.write_all(resp.as_bytes());
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(15));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(15)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::{CounterSet, Kernel, KernelTally};
    use std::net::TcpStream;

    fn sample_snapshot() -> CounterSnapshot {
        let set = CounterSet::enabled();
        set.add(
            Kernel::Rhs,
            KernelTally {
                points: 64,
                loops: 8,
                vector_elements: 64,
                flops: 640 * 64,
                bytes_read: 64 * 56 * 8,
                bytes_written: 64 * 8 * 8,
            },
        );
        set.snapshot()
    }

    /// The in-repo exposition parser: every sample line must be
    /// `name value` or `name{labels} value` with a parseable value, and
    /// every sample's family must have emitted BOTH a `# HELP` and a
    /// `# TYPE` header earlier in the body.
    fn assert_well_formed_exposition(text: &str) {
        let mut helped: Vec<&str> = Vec::new();
        let mut typed: Vec<&str> = Vec::new();
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# HELP ") {
                let name = rest.split(' ').next().unwrap();
                assert!(rest.len() > name.len() + 1, "HELP without text in {line:?}");
                helped.push(name);
                continue;
            }
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut parts = rest.split(' ');
                let name = parts.next().unwrap();
                let kind = parts.next().unwrap_or("");
                assert!(
                    kind == "counter" || kind == "gauge" || kind == "histogram",
                    "bad TYPE kind in {line:?}"
                );
                typed.push(name);
                continue;
            }
            if line.is_empty() {
                continue;
            }
            let mut parts = line.rsplitn(2, ' ');
            let value = parts.next().unwrap();
            let name_part = parts.next().unwrap_or("");
            let name = name_part.split('{').next().unwrap();
            assert!(value.parse::<f64>().is_ok(), "unparseable sample value in {line:?}");
            assert!(helped.contains(&name), "sample {line:?} has no # HELP {name}");
            assert!(typed.contains(&name), "sample {line:?} has no # TYPE {name}");
        }
    }

    #[test]
    fn exposition_has_help_and_type_for_every_sample() {
        let text = prometheus_text(&sample_snapshot(), 12, 3, &[0.0; Phase::COUNT]);
        assert!(text.contains("# HELP yy_kernel_flops_total "));
        assert!(text.contains("# TYPE yy_kernel_flops_total counter"));
        assert!(text.contains("yy_kernel_flops_total{kernel=\"rhs\"} 40960"));
        assert!(text.contains("yy_step 12"));
        assert!(text.contains("yy_queue_depth 3"));
        assert_well_formed_exposition(&text);
    }

    #[test]
    fn science_gauges_render_and_are_well_formed() {
        let g = ScienceGauges {
            energy: vec![
                ("kinetic".into(), 1.5),
                ("magnetic".into(), 0.25),
                ("thermal".into(), 7.0),
            ],
            dt: 1.25e-3,
            max_speed: 3.5,
            max_b: 0.125,
            dominant_m: 4,
            alerts: vec![("energy_blowup".into(), true, 1), ("dynamo_stall".into(), false, 0)],
        };
        let text = science_gauges_text(&g);
        assert!(text.contains("yy_energy{component=\"kinetic\"} 1.5"));
        assert!(text.contains("yy_dominant_m 4"));
        assert!(text.contains("yy_dt 0.00125"));
        assert!(text.contains("yy_alert_active{rule=\"energy_blowup\"} 1"));
        assert!(text.contains("yy_alert_active{rule=\"dynamo_stall\"} 0"));
        assert!(text.contains("yy_alert_fired_total{rule=\"energy_blowup\"} 1"));
        assert_well_formed_exposition(&text);
        // Appended to the counter exposition it stays well-formed — the
        // shape the supervisor actually publishes.
        let full =
            format!("{}{}", prometheus_text(&sample_snapshot(), 12, 3, &[0.0; Phase::COUNT]), text);
        assert_well_formed_exposition(&full);
        // An unprobed run renders -1 and no alert families.
        let bare = science_gauges_text(&ScienceGauges::default());
        assert!(bare.contains("yy_dominant_m -1\n") || bare.contains("yy_dominant_m 0\n"));
        assert!(!bare.contains("yy_alert_active"));
        assert_well_formed_exposition(&bare);
    }

    #[test]
    fn phase_and_doctor_gauges_render() {
        let phases = [0.0, 1.25, 0.5, 0.0, 0.0, 0.03125];
        let text = prometheus_text(&sample_snapshot(), 3, 0, &phases);
        assert!(text.contains("# TYPE yy_phase_wall_seconds gauge"));
        assert!(text.contains("yy_phase_wall_seconds{phase=\"writer_wait\"} 0.03125"));
        // The output kernel slot is live in every kernel family.
        assert!(text.contains("yy_kernel_wall_ns_total{kernel=\"output\"} 0"));
        assert_well_formed_exposition(&text);
    }

    #[test]
    fn server_serves_hub_body_over_tcp() {
        let hub = Arc::new(MetricsHub::new());
        hub.publish(prometheus_text(&sample_snapshot(), 5, 0, &[0.0; Phase::COUNT]));
        let mut server = MetricsServer::start(Arc::clone(&hub), 0).expect("bind");
        let addr = server.local_addr();

        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(b"GET /metrics HTTP/1.0\r\n\r\n")
            .expect("request");
        let mut resp = String::new();
        stream.read_to_string(&mut resp).expect("response");
        assert!(resp.starts_with("HTTP/1.0 200 OK"));
        assert!(resp.contains("yy_kernel_flops_total{kernel=\"rhs\"} 40960"));

        // The body is live: republish and scrape again.
        hub.publish("yy_step 9\n".into());
        let mut stream = TcpStream::connect(addr).expect("connect 2");
        stream.write_all(b"GET / HTTP/1.0\r\n\r\n").expect("request 2");
        let mut resp = String::new();
        stream.read_to_string(&mut resp).expect("response 2");
        assert!(resp.ends_with("yy_step 9\n"));
        // The in-repo client sees exactly the hub's body, at any path.
        assert_eq!(http_get(&format!("http://{addr}")).as_deref(), Ok("yy_step 9\n"));
        assert_eq!(http_get(&format!("http://{addr}/x")).as_deref(), Ok("yy_step 9\n"));
        server.stop();
        assert!(http_get(&format!("http://{addr}")).unwrap_err().starts_with("connecting "));
        let err = http_get("https://example.com").unwrap_err();
        assert_eq!(err, "only http:// URLs are supported, got 'https://example.com'");
    }

    /// Writer → reader: the parser recovers every sample line the
    /// exposition writers emit, name (with labels) and value.
    #[test]
    fn parser_recovers_every_sample_the_writers_emit() {
        let g = ScienceGauges {
            energy: vec![("kinetic".into(), 1.5), ("magnetic".into(), 0.25)],
            dt: 1.25e-3,
            max_speed: 3.5,
            max_b: 0.125,
            dominant_m: 4,
            alerts: vec![("energy_blowup".into(), true, 2)],
        };
        let phases = [0.0, 1.25, 0.0, 0.0, 0.0, 0.03125];
        let body = format!(
            "{}{}",
            prometheus_text(&sample_snapshot(), 12, 3, &phases),
            science_gauges_text(&g)
        );
        let samples = parse_exposition(&body);
        let sample_lines = body.lines().filter(|l| !l.is_empty() && !l.starts_with('#')).count();
        assert_eq!(samples.len(), sample_lines, "every sample line parses");
        let value_of = |name: &str| samples.iter().find(|(n, _)| n == name).map(|&(_, v)| v);
        assert_eq!(value_of("yy_step"), Some(12.0));
        assert_eq!(value_of("yy_kernel_flops_total{kernel=\"rhs\"}"), Some(40960.0));
        assert_eq!(value_of("yy_phase_wall_seconds{phase=\"writer_wait\"}"), Some(0.03125));
        assert_eq!(value_of("yy_energy{component=\"magnetic\"}"), Some(0.25));
        assert_eq!(value_of("yy_dt"), Some(1.25e-3));
        assert_eq!(value_of("yy_dominant_m"), Some(4.0));
        assert_eq!(value_of("yy_alert_active{rule=\"energy_blowup\"}"), Some(1.0));
        assert_eq!(value_of("yy_alert_fired_total{rule=\"energy_blowup\"}"), Some(2.0));
        let labels: Vec<_> = samples
            .iter()
            .filter(|(n, _)| n.starts_with("yy_energy{"))
            .map(|(n, _)| label_value(n))
            .collect();
        assert_eq!(labels, [Some("kinetic"), Some("magnetic")]);
        assert_eq!(label_value("yy_dt"), None);
    }
}
