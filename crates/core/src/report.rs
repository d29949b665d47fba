//! Run reports: diagnostic time series, performance counters, phase
//! times, and the machine-readable JSON artifact.

use yy_mhd::Diagnostics;
use yy_obs::analysis::Analysis;
use yy_obs::counters::{CounterSnapshot, KernelSnapshot};
use yy_obs::event::Phase;
use yy_obs::dashboard::panel_line;
use yy_obs::json::{escape, num, Json};

/// One sample of the diagnostic time series (§V's energy curves).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeSeriesPoint {
    /// Step index of the sample.
    pub step: u64,
    /// Simulated time.
    pub time: f64,
    /// Time step in use when sampled.
    pub dt: f64,
    /// Reduced diagnostics (both panels / all ranks).
    pub diag: Diagnostics,
}

/// Per-phase wall-clock breakdown of the parallel step pipeline, summed
/// over all ranks. Zero for serial runs, but for `WriterWait`: the time
/// blocked on the output writer's buffer pool — the *unhidden* cost of
/// checkpoint and snapshot emission, the output pipeline's analogue of
/// `Wait`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseBreakdown {
    /// Seconds per [`Phase`], indexed `phase as usize`.
    pub seconds: [f64; Phase::COUNT],
}

impl PhaseBreakdown {
    /// Seconds charged to `phase`.
    pub fn get(&self, phase: Phase) -> f64 {
        self.seconds[phase as usize]
    }

    /// Total instrumented time across the phases.
    pub fn total_s(&self) -> f64 {
        self.seconds.iter().sum()
    }

    /// Fraction of the exchange window covered by deep-interior compute:
    /// `interior / (interior + wait)`. 1.0 means every receive found its
    /// message already delivered; 0.0 means nothing was hidden. This is
    /// the measured input to `yy-esmodel`'s overlap-aware projection.
    pub fn hidden_comm_fraction(&self) -> f64 {
        let window = self.get(Phase::Interior) + self.get(Phase::Wait);
        if window <= 0.0 {
            return 0.0;
        }
        self.get(Phase::Interior) / window
    }
}

/// One supervisor intervention: why a pass was abandoned and where the
/// next one resumed.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryEvent {
    /// 1-based index of the pass that failed.
    pub pass: u32,
    /// Step of the checkpoint the next pass resumed from.
    pub resume_step: u64,
    /// Human-readable failure cause (rank failure or health violation).
    pub cause: String,
}

/// One elastic layout change: the supervisor excluded a persistently
/// failing node and re-tiled the run onto the survivors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetileRecord {
    /// 1-based index of the pass whose failure triggered the retile.
    pub pass: u32,
    /// Layout before the shrink, `(pth, pph)`.
    pub from: (usize, usize),
    /// Layout after the shrink.
    pub to: (usize, usize),
    /// Stable node id excluded from the survivor set.
    pub excluded_node: usize,
    /// Step the shrunk layout resumed from.
    pub resume_step: u64,
}

/// The `elastic` section of the v3 report: supervisor failure policy,
/// layout history, and partitioner balance. Always emitted — a serial
/// or unsupervised run carries the defaults (no retiles, imbalance 1).
#[derive(Debug, Clone, PartialEq)]
pub struct ElasticSummary {
    /// Failure policy in effect (`retry` | `retile` | `abort`).
    pub policy: String,
    /// Whether the run finished in degraded mode (widened checkpoint
    /// cadence after a retile).
    pub degraded: bool,
    /// Tile layout the run finished on.
    pub final_pth: usize,
    /// Tile layout the run finished on.
    pub final_pph: usize,
    /// Nodes excluded by the persistent-fault classifier.
    pub excluded_nodes: Vec<usize>,
    /// Every layout change, in order.
    pub retiles: Vec<RetileRecord>,
    /// Partitioner-predicted load imbalance (largest tile's node count
    /// over the mean).
    pub predicted_imbalance: f64,
    /// Measured per-rank compute-time imbalance of the final pass
    /// (max rank compute time / mean).
    pub achieved_imbalance: f64,
}

impl Default for ElasticSummary {
    fn default() -> Self {
        ElasticSummary {
            policy: "retry".into(),
            degraded: false,
            final_pth: 0,
            final_pph: 0,
            excluded_nodes: Vec::new(),
            retiles: Vec::new(),
            predicted_imbalance: 1.0,
            achieved_imbalance: 1.0,
        }
    }
}

impl ElasticSummary {
    fn to_json(&self) -> String {
        let retiles: Vec<String> = self
            .retiles
            .iter()
            .map(|r| {
                format!(
                    concat!(
                        r#"{{"pass":{},"from_pth":{},"from_pph":{},"to_pth":{},"#,
                        r#""to_pph":{},"excluded_node":{},"resume_step":{}}}"#
                    ),
                    r.pass, r.from.0, r.from.1, r.to.0, r.to.1, r.excluded_node, r.resume_step,
                )
            })
            .collect();
        let excluded: Vec<String> =
            self.excluded_nodes.iter().map(|n| n.to_string()).collect();
        format!(
            concat!(
                r#"{{"policy":"{}","degraded":{},"#,
                r#""final_pth":{},"final_pph":{},"excluded_nodes":[{}],"#,
                r#""retiles":[{}],"predicted_imbalance":{},"achieved_imbalance":{}}}"#
            ),
            escape(&self.policy),
            self.degraded,
            self.final_pth,
            self.final_pph,
            excluded.join(","),
            retiles.join(","),
            num(self.predicted_imbalance),
            num(self.achieved_imbalance),
        )
    }
}

/// The `io` section of the v4 report: what the output pipeline wrote
/// and what it cost over the whole run — every pass, the writes of a
/// killed rank's writer and of abandoned passes included. All-zero
/// (with `codec="none"`) when no output directory was configured.
#[derive(Debug, Clone, PartialEq)]
pub struct IoStats {
    /// Checkpoint shards written and renamed into place, summed over
    /// every rank.
    pub shards_written: u64,
    /// Uncompressed payload bytes behind the writes.
    pub bytes_raw: u64,
    /// Encoded bytes that actually hit disk.
    pub bytes_written: u64,
    /// Wall seconds spent inside file writes on the writer threads,
    /// summed over ranks.
    pub write_wall_s: f64,
    /// Payload codec name (`none` | `delta`).
    pub codec: String,
}

impl Default for IoStats {
    fn default() -> Self {
        IoStats {
            shards_written: 0,
            bytes_raw: 0,
            bytes_written: 0,
            write_wall_s: 0.0,
            codec: "none".into(),
        }
    }
}

impl IoStats {
    /// Add one pass's writes to this total.
    pub(crate) fn add(&mut self, pass: &IoStats) {
        self.shards_written += pass.shards_written;
        self.bytes_raw += pass.bytes_raw;
        self.bytes_written += pass.bytes_written;
        self.write_wall_s += pass.write_wall_s;
        self.codec.clone_from(&pass.codec);
    }

    /// Uncompressed-to-written size ratio (1.0 when nothing was written).
    pub fn compression_ratio(&self) -> f64 {
        if self.bytes_written == 0 {
            return 1.0;
        }
        self.bytes_raw as f64 / self.bytes_written as f64
    }

    fn to_json(&self) -> String {
        format!(
            concat!(
                r#"{{"shards_written":{},"bytes_raw":{},"#,
                r#""bytes_written":{},"write_wall_s":{},"#,
                r#""codec":"{}","compression_ratio":{}}}"#
            ),
            self.shards_written,
            self.bytes_raw,
            self.bytes_written,
            num(self.write_wall_s),
            escape(&self.codec),
            num(self.compression_ratio()),
        )
    }
}

/// Summary of a completed run.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Total simulated time.
    pub time: f64,
    /// Steps taken.
    pub steps: u64,
    /// Total floating-point operations (all ranks/panels).
    pub flops: u64,
    /// Wall-clock seconds.
    pub wall_seconds: f64,
    /// Total grid points (both panels).
    pub grid_points: usize,
    /// Field bytes sent between ranks (halo), 0 for serial runs.
    pub halo_bytes: u64,
    /// Field bytes sent between panels (overset interpolation).
    pub overset_bytes: u64,
    /// Highest per-rank mailbox depth observed anywhere in the run
    /// (0 for serial runs) — a backpressure indicator.
    pub max_queue_depth: u64,
    /// Per-phase step-pipeline breakdown (all-rank sums; zero for serial
    /// runs).
    pub phases: PhaseBreakdown,
    /// Supervisor interventions (rollbacks), in order; empty for
    /// unsupervised and fault-free runs.
    pub recoveries: Vec<RecoveryEvent>,
    /// Elastic-decomposition summary (failure policy, layout history,
    /// partitioner balance). Defaults for serial/unsupervised runs.
    pub elastic: ElasticSummary,
    /// Output-pipeline summary (shards, bytes, writer cost). Defaults
    /// when no output directory was configured.
    pub io: IoStats,
    /// Perf-doctor diagnosis (critical-path histogram, straggler list).
    /// Defaults (zero steps analyzed, empty verdict) when no flight
    /// recorders were armed — serial runs and untraced parallel runs.
    pub analysis: Analysis,
    /// Per-kernel performance counters over the stepping window, merged
    /// across every rank (all-zero when counters were disabled). The
    /// per-kernel FLOPs sum to `flops` exactly when enabled — the
    /// software stand-in for the ES hardware-counter report.
    pub kernels: CounterSnapshot,
    /// Diagnostic series sampled during the run.
    pub series: Vec<TimeSeriesPoint>,
    /// Physics-watchdog fire/clear edges, in evaluation order. Empty
    /// when telemetry was not armed (or nothing fired).
    pub alerts: Vec<yy_obs::AlertEvent>,
    /// The science series store as a pre-rendered JSON
    /// document ([`yy_obs::SeriesStore::to_json`]); `None` when
    /// telemetry was not armed.
    pub telemetry: Option<String>,
}

/// What `yycore tables` prints: Tables I–III and the flagship List 1,
/// projected from the flops per grid point per step a short
/// instrumented run *measures*. Per interior point —
/// frame and wall nodes are interpolated, not differenced, and at the
/// paper's resolutions a negligible fraction of the grid. Exact counts
/// only, so the text is the same on every host.
pub fn paper_tables_text() -> String {
    let mut cfg = crate::RunConfig::small();
    cfg.init.perturb_amplitude = 1e-2;
    let mut sim = crate::SerialSim::new(cfg);
    let interior = sim.interior_points();
    let report = sim.run(3, 0);
    let measured = report.flops as f64 / report.steps as f64 / interior as f64;
    let profile = yy_esmodel::KernelProfile::yycore_default().with_measured_flops(measured);
    let art = yy_esmodel::artifacts(&profile);
    format!("{}\n{}{}\n", yy_esmodel::table1_text(), art.tables, art.list1)
}

impl RunReport {
    /// Measured MFLOPS over the run.
    pub fn mflops(&self) -> f64 {
        if self.wall_seconds <= 0.0 {
            return 0.0;
        }
        self.flops as f64 / self.wall_seconds / 1e6
    }

    /// FLOPs per grid point per step — the workload intensity the paper's
    /// Table III compares across codes ("Flops/g.p." is this times the
    /// step rate).
    pub fn flops_per_point_step(&self) -> f64 {
        if self.steps == 0 || self.grid_points == 0 {
            return 0.0;
        }
        self.flops as f64 / self.steps as f64 / self.grid_points as f64
    }

    /// Render the series as CSV (`step,time,dt,kinetic,magnetic,thermal,
    /// mass,max_speed,max_b`).
    pub fn series_csv(&self) -> String {
        let mut out = String::from("step,time,dt,kinetic,magnetic,thermal,mass,max_speed,max_b\n");
        for p in &self.series {
            out.push_str(&format!(
                "{},{:.8e},{:.4e},{:.8e},{:.8e},{:.8e},{:.8e},{:.4e},{:.4e}\n",
                p.step,
                p.time,
                p.dt,
                p.diag.kinetic,
                p.diag.magnetic,
                p.diag.thermal,
                p.diag.mass,
                p.diag.max_speed,
                p.diag.max_b
            ));
        }
        out
    }

    /// Render the report as a stable, schema-versioned JSON artifact.
    ///
    /// The schema identifier is `yy.runreport.v6`; consumers key on it
    /// and on field presence. Fields are only ever *added* within a
    /// schema version — renames or removals bump the version. v6 is a
    /// strict superset of v5 (itself a superset of v4, v3, v2 and v1):
    /// it adds the `alerts` array (physics-watchdog fire/clear edges)
    /// and the `telemetry` section (the science series store; `null`
    /// when telemetry was not armed), changing nothing else, so v1–v5
    /// readers that ignore unknown fields keep working (pinned by the
    /// `v5_reader_keeps_working_on_v6_output` test). The removals made
    /// without a bump: `elastic.weights`, the telemetry section's
    /// downsampling-tier members, the whole `histograms` section
    /// (`queue_depth`, `recv_wait_ns`, `step_wall_ns`), `io.async_mode`,
    /// `io.writer_wait_s` (a copy of `phases.writer_wait_s`) and the io
    /// section's count of streamed snapshot files went with the code
    /// that wrote them, because no reader ever consumed them. All counter values are exact integers, so the artifact is
    /// bitwise reproducible for a deterministic run.
    pub fn to_json(&self) -> String {
        let kernels: Vec<String> = self
            .kernels
            .rows()
            .map(|(kernel, k)| {
                let words: String = (KernelSnapshot::WORD_NAMES.iter().zip(k.words()))
                    .map(|(name, word)| format!(r#""{name}":{word},"#))
                    .collect();
                format!(
                    r#"{{"name":"{}",{words}"mflops":{},"intensity":{},"avg_vector_length":{}}}"#,
                    kernel.name(),
                    num(k.mflops()),
                    num(k.intensity()),
                    num(k.avg_vector_length()),
                )
            })
            .collect();
        let phase_seconds: String = Phase::ALL
            .iter()
            .map(|&p| format!(r#""{}_s":{},"#, p.name(), num(self.phases.get(p))))
            .collect();
        let phases = format!(
            r#"{{{phase_seconds}"hidden_comm_fraction":{}}}"#,
            num(self.phases.hidden_comm_fraction()),
        );
        let recoveries: Vec<String> = self
            .recoveries
            .iter()
            .map(|r| {
                format!(
                    r#"{{"pass":{},"resume_step":{},"cause":"{}"}}"#,
                    r.pass,
                    r.resume_step,
                    escape(&r.cause)
                )
            })
            .collect();
        let series: Vec<String> = self
            .series
            .iter()
            .map(|p| {
                format!(
                    concat!(
                        r#"{{"step":{},"time":{},"dt":{},"kinetic":{},"magnetic":{},"#,
                        r#""thermal":{},"mass":{},"max_speed":{},"max_b":{}}}"#
                    ),
                    p.step,
                    num(p.time),
                    num(p.dt),
                    num(p.diag.kinetic),
                    num(p.diag.magnetic),
                    num(p.diag.thermal),
                    num(p.diag.mass),
                    num(p.diag.max_speed),
                    num(p.diag.max_b),
                )
            })
            .collect();
        format!(
            concat!(
                "{{\n",
                "\"schema\":\"yy.runreport.v6\",\n",
                "\"time\":{},\"steps\":{},\"flops\":{},\"wall_seconds\":{},\n",
                "\"grid_points\":{},\"mflops\":{},\"flops_per_point_step\":{},\n",
                "\"halo_bytes\":{},\"overset_bytes\":{},\"max_queue_depth\":{},\n",
                "\"phases\":{},\n",
                "\"kernels\":[{}],\n",
                "\"recoveries\":[{}],\n",
                "\"elastic\":{},\n",
                "\"io\":{},\n",
                "\"analysis\":{},\n",
                "\"alerts\":{},\n",
                "\"telemetry\":{},\n",
                "\"series\":[{}]\n",
                "}}\n"
            ),
            num(self.time),
            self.steps,
            self.flops,
            num(self.wall_seconds),
            self.grid_points,
            num(self.mflops()),
            num(self.flops_per_point_step()),
            self.halo_bytes,
            self.overset_bytes,
            self.max_queue_depth,
            phases,
            kernels.join(",\n"),
            recoveries.join(","),
            self.elastic.to_json(),
            self.io.to_json(),
            self.analysis.to_json(),
            crate::telemetry::alerts_json(&self.alerts),
            self.telemetry.as_deref().unwrap_or("null"),
            series.join(","),
        )
    }
}

/// Read the `analysis` section back out of a report artifact
/// ([`RunReport::to_json`]) — what `yycore doctor report=` renders.
pub fn analysis_from_report(text: &str) -> Result<Analysis, String> {
    let doc = Json::parse(text)?;
    let section = doc.get("analysis").ok_or("no analysis section (pre-v5 artifact?)")?;
    Analysis::from_json(section)
}

/// One dashboard frame from a v6 report artifact: sparklines over every
/// telemetry channel's raw tail plus the recorded alert edges — or, for
/// a run that did not arm telemetry, a one-line note saying so.
pub fn report_frame(text: &str, width: usize) -> Result<String, String> {
    let doc = Json::parse(text).map_err(|e| format!("parsing report: {e}"))?;
    let tel = doc
        .get("telemetry")
        .ok_or("report has no telemetry section (pre-v6 artifact?)")?;
    if matches!(tel, Json::Null) {
        return Ok("telemetry: not armed; rerun with telemetry=1\n".into());
    }
    let channels = tel.arr_at("channels").ok_or("report's telemetry has no channels array")?;
    let mut out = String::new();
    if let Some(steps) = doc.f64_at("steps") {
        out.push_str(&format!("run: {steps:.0} steps"));
        if let Some(t) = doc.f64_at("time") {
            out.push_str(&format!(", t = {t:.5}"));
        }
        out.push('\n');
    }
    for ch in channels {
        let name = ch.str_at("name").unwrap_or("?");
        let vals: Vec<f64> = ch
            .arr_at("raw")
            .map(|pairs| {
                pairs
                    .iter()
                    .filter_map(|p| p.as_f64_array())
                    .filter_map(|p| p.get(1).copied())
                    .collect()
            })
            .unwrap_or_default();
        out.push_str(&panel_line(name, &vals, width));
    }
    let edges = match doc.get("alerts") {
        Some(a) => crate::telemetry::alerts_from_json(a).ok_or("report's alerts array is malformed")?,
        None => Vec::new(),
    };
    for e in &edges {
        out.push_str(&format!(
            "alert {} ({}): {} at step {}\n",
            e.rule,
            e.kind.name(),
            if e.firing { "FIRED" } else { "cleared" },
            e.step
        ));
    }
    if edges.is_empty() {
        out.push_str("alerts: none recorded\n");
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_handle_zero_denominators() {
        let r = RunReport::default();
        assert_eq!(r.mflops(), 0.0);
        assert_eq!(r.flops_per_point_step(), 0.0);
    }

    #[test]
    fn flops_per_point_step_is_intensity() {
        let r = RunReport {
            flops: 1000,
            steps: 10,
            grid_points: 10,
            wall_seconds: 1.0,
            ..Default::default()
        };
        assert_eq!(r.flops_per_point_step(), 10.0);
        assert_eq!(r.mflops(), 1e-3);
    }

    #[test]
    fn hidden_fraction_is_interior_over_window() {
        let p = PhaseBreakdown { seconds: [0.1, 3.0, 1.0, 0.5, 0.2, 0.4] };
        // writer_wait is charged to the total, but the hidden-comm
        // fraction stays a property of the exchange window alone.
        assert!((p.hidden_comm_fraction() - 0.75).abs() < 1e-15);
        assert!((p.total_s() - 5.2).abs() < 1e-12);
        assert_eq!(PhaseBreakdown::default().hidden_comm_fraction(), 0.0);
    }

    #[test]
    fn csv_has_header_and_rows() {
        let mut r = RunReport::default();
        r.series.push(TimeSeriesPoint {
            step: 1,
            time: 0.1,
            dt: 0.01,
            diag: Diagnostics::default(),
        });
        let csv = r.series_csv();
        assert!(csv.starts_with("step,time,dt"));
        assert_eq!(csv.lines().count(), 2);
    }

    #[test]
    fn json_artifact_parses_and_is_versioned() {
        use yy_obs::Json;
        let mut r = RunReport {
            time: 0.5,
            steps: 3,
            flops: 1234,
            wall_seconds: 0.25,
            grid_points: 99,
            ..Default::default()
        };
        r.recoveries.push(RecoveryEvent {
            pass: 1,
            resume_step: 2,
            cause: "rank 1 \"died\"".into(),
        });
        r.series.push(TimeSeriesPoint {
            step: 3,
            time: 0.5,
            dt: 0.1,
            diag: Diagnostics::default(),
        });
        let doc = Json::parse(&r.to_json()).expect("report JSON must parse");
        assert_eq!(doc.get("schema").unwrap().as_str(), Some("yy.runreport.v6"));
        assert_eq!(doc.get("steps").unwrap().as_f64(), Some(3.0));
        let rec = &doc.get("recoveries").unwrap().as_arr().unwrap()[0];
        assert_eq!(rec.get("cause").unwrap().as_str(), Some("rank 1 \"died\""));
        assert_eq!(doc.get("series").unwrap().as_arr().unwrap().len(), 1);
    }

    #[test]
    fn kernel_table_lands_in_the_artifact() {
        use yy_obs::counters::{CounterSet, Kernel, KernelTally};
        use yy_obs::Json;
        let set = CounterSet::enabled();
        set.add(
            Kernel::Rhs,
            KernelTally {
                points: 64,
                loops: 8,
                vector_elements: 64,
                flops: 640 * 64,
                bytes_read: 64 * 448,
                bytes_written: 64 * 64,
            },
        );
        let r = RunReport { flops: 640 * 64, kernels: set.snapshot(), ..Default::default() };
        let doc = Json::parse(&r.to_json()).unwrap();
        let table = doc.get("kernels").unwrap().as_arr().unwrap();
        assert_eq!(table.len(), yy_obs::Kernel::COUNT);
        let rhs = table
            .iter()
            .find(|k| k.get("name").and_then(|n| n.as_str()) == Some("rhs"))
            .expect("rhs row");
        assert_eq!(rhs.get("flops").unwrap().as_f64(), Some(640.0 * 64.0));
        assert_eq!(rhs.get("vector_elements").unwrap().as_f64(), Some(64.0));
        assert_eq!(rhs.get("avg_vector_length").unwrap().as_f64(), Some(8.0));
        assert!(rhs.get("intensity").unwrap().as_f64().unwrap() > 0.0);
    }

    /// The v3 `elastic` section: always present, schema-stable keys,
    /// retile records carried through.
    #[test]
    fn elastic_section_lands_in_the_artifact() {
        use yy_obs::Json;
        let mut r = RunReport::default();
        r.elastic = ElasticSummary {
            policy: "retile".into(),
            degraded: true,
            final_pth: 1,
            final_pph: 2,
            excluded_nodes: vec![1],
            retiles: vec![RetileRecord {
                pass: 2,
                from: (2, 2),
                to: (1, 2),
                excluded_node: 1,
                resume_step: 4,
            }],
            predicted_imbalance: 1.07,
            achieved_imbalance: 1.15,
        };
        let doc = Json::parse(&r.to_json()).unwrap();
        let e = doc.get("elastic").expect("elastic section");
        assert_eq!(e.get("policy").unwrap().as_str(), Some("retile"));
        assert_eq!(e.get("degraded").unwrap().as_bool(), Some(true));
        assert_eq!(e.get("final_pth").unwrap().as_f64(), Some(1.0));
        assert_eq!(e.get("final_pph").unwrap().as_f64(), Some(2.0));
        let retiles = e.get("retiles").unwrap().as_arr().unwrap();
        assert_eq!(retiles.len(), 1);
        assert_eq!(retiles[0].get("excluded_node").unwrap().as_f64(), Some(1.0));
        assert_eq!(retiles[0].get("to_pph").unwrap().as_f64(), Some(2.0));
        assert_eq!(e.get("predicted_imbalance").unwrap().as_f64(), Some(1.07));
        assert_eq!(e.get("achieved_imbalance").unwrap().as_f64(), Some(1.15));
        // Default reports still carry the section (schema-checked in CI).
        let plain = Json::parse(&RunReport::default().to_json()).unwrap();
        let e = plain.get("elastic").expect("default elastic section");
        assert_eq!(e.get("retiles").unwrap().as_arr().unwrap().len(), 0);
        assert_eq!(e.get("achieved_imbalance").unwrap().as_f64(), Some(1.0));
    }

    /// The v4 `io` section: always present, schema-stable keys, totals
    /// and derived compression ratio carried through.
    #[test]
    fn io_section_lands_in_the_artifact() {
        use yy_obs::Json;
        let mut r = RunReport::default();
        r.io = IoStats {
            shards_written: 6,
            bytes_raw: 4000,
            bytes_written: 1000,
            write_wall_s: 0.25,
            codec: "delta".into(),
        };
        r.phases.seconds[Phase::WriterWait as usize] = 0.03;
        let doc = Json::parse(&r.to_json()).unwrap();
        let io = doc.get("io").expect("io section");
        assert_eq!(io.get("shards_written").unwrap().as_f64(), Some(6.0));
        assert_eq!(io.get("bytes_raw").unwrap().as_f64(), Some(4000.0));
        assert_eq!(io.get("bytes_written").unwrap().as_f64(), Some(1000.0));
        assert_eq!(io.get("write_wall_s").unwrap().as_f64(), Some(0.25));
        assert_eq!(io.get("codec").unwrap().as_str(), Some("delta"));
        assert_eq!(io.get("compression_ratio").unwrap().as_f64(), Some(4.0));
        assert_eq!(
            doc.get("phases").unwrap().get("writer_wait_s").unwrap().as_f64(),
            Some(0.03)
        );
        // Default reports still carry the section (schema-checked in CI).
        let plain = Json::parse(&RunReport::default().to_json()).unwrap();
        let io = plain.get("io").expect("default io section");
        assert_eq!(io.get("codec").unwrap().as_str(), Some("none"));
        assert_eq!(io.get("compression_ratio").unwrap().as_f64(), Some(1.0));
    }

    /// The v5 `analysis` section: always present, roundtrips through
    /// the obs-side reader, defaults for unanalyzed runs.
    #[test]
    fn analysis_section_lands_in_the_artifact() {
        use yy_obs::analysis::{Disruption, PhaseGate, Reason, Straggler};
        use yy_obs::Json;
        let mut r = RunReport::default();
        r.analysis = Analysis {
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
                severity: 14.2,
                detail: "mean send->recv lag 2150us vs median 12us".into(),
            }],
            disruptions: vec![Disruption { rank: 1, step: 5, kind: "kill".into() }],
            verdict: "wait-gated 58% of 12 steps".into(),
        };
        let doc = Json::parse(&r.to_json()).unwrap();
        let a = doc.get("analysis").expect("analysis section");
        assert_eq!(a.get("steps_analyzed").unwrap().as_f64(), Some(12.0));
        let back = analysis_from_report(&r.to_json()).expect("the reader beside the writer decodes");
        assert_eq!(back, r.analysis);
        assert_eq!(back.stragglers[0].reason, Reason::LateSender);
        assert_eq!(back.gating[0].phase, Phase::Wait);
        assert_eq!(back.disruptions[0].kind, "kill");
        // Default reports still carry the section (schema-checked in CI).
        let plain = Json::parse(&RunReport::default().to_json()).unwrap();
        let a = plain.get("analysis").expect("default analysis section");
        assert_eq!(a.get("steps_analyzed").unwrap().as_f64(), Some(0.0));
        assert_eq!(a.get("stragglers").unwrap().as_arr().unwrap().len(), 0);
    }

    /// The v6 `alerts` + `telemetry` sections: always-present alerts
    /// array, telemetry `null` for unarmed runs and the store document
    /// for armed ones, alerts roundtrip through the core-side reader.
    #[test]
    fn alerts_and_telemetry_sections_land_in_the_artifact() {
        use yy_obs::{AlertEvent, Json, SeriesStore};
        // Unarmed: empty alerts, null telemetry (key still present).
        let plain = Json::parse(&RunReport::default().to_json()).unwrap();
        assert_eq!(plain.get("alerts").unwrap().as_arr().unwrap().len(), 0);
        assert!(plain.get("telemetry").unwrap().as_f64().is_none());
        assert!(matches!(plain.get("telemetry"), Some(Json::Null)));
        // Armed: alerts decode back, telemetry carries the store shape.
        let mut store = SeriesStore::new(&["dt"], 256);
        store.push_row(&[1e-3]);
        let mut r = RunReport::default();
        r.telemetry = Some(store.to_json());
        r.alerts.push(AlertEvent {
            rule: "energy_blowup".into(),
            rule_index: 0,
            kind: yy_obs::event::AlertKind::DtCollapse,
            firing: true,
            step: 7,
            time: 0.07,
            value: 1e-6,
        });
        let doc = Json::parse(&r.to_json()).unwrap();
        let alerts = crate::telemetry::alerts_from_json(doc.get("alerts").unwrap())
            .expect("alerts decode");
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].rule, "energy_blowup");
        assert!(alerts[0].firing);
        assert_eq!(alerts[0].kind, yy_obs::event::AlertKind::DtCollapse);
        let tel = doc.get("telemetry").expect("telemetry section");
        let chans = tel.get("channels").unwrap().as_arr().unwrap();
        assert_eq!(chans[0].get("name").unwrap().as_str(), Some("dt"));
    }

    /// The compatibility contract of the schema: every version so far
    /// only *added* keys, and consumers key on field presence, not the
    /// schema string — so v6 output must still carry every key of v1–v5
    /// with the type it had when introduced, but the unread ones
    /// `to_json` names as removed.
    #[test]
    fn v6_output_keeps_every_key_since_v1() {
        use yy_obs::Json;
        let mut r = RunReport {
            time: 0.5,
            steps: 3,
            flops: 1234,
            wall_seconds: 0.25,
            grid_points: 99,
            halo_bytes: 10,
            overset_bytes: 20,
            max_queue_depth: 2,
            ..Default::default()
        };
        r.series.push(TimeSeriesPoint {
            step: 3,
            time: 0.5,
            dt: 0.1,
            diag: Diagnostics::default(),
        });
        let doc = Json::parse(&r.to_json()).unwrap();
        // (schema version that introduced it, path, type: n|s|a|o)
        let keys: &[(u32, &[&str], char)] = &[
            (1, &["time"], 'n'),
            (1, &["steps"], 'n'),
            (1, &["flops"], 'n'),
            (1, &["wall_seconds"], 'n'),
            (1, &["grid_points"], 'n'),
            (1, &["mflops"], 'n'),
            (1, &["flops_per_point_step"], 'n'),
            (1, &["halo_bytes"], 'n'),
            (1, &["overset_bytes"], 'n'),
            (1, &["max_queue_depth"], 'n'),
            (1, &["phases", "hidden_comm_fraction"], 'n'),
            (1, &["recoveries"], 'a'),
            (1, &["series"], 'a'),
            (2, &["kernels"], 'a'),
            (3, &["elastic", "policy"], 's'),
            (3, &["elastic", "retiles"], 'a'),
            (4, &["io", "codec"], 's'),
            (4, &["io", "compression_ratio"], 'n'),
            (4, &["phases", "writer_wait_s"], 'n'),
            (5, &["analysis", "steps_analyzed"], 'n'),
            (5, &["analysis", "verdict"], 's'),
        ];
        for (version, path, kind) in keys {
            let v = path.iter().try_fold(&doc, |d, k| d.get(k));
            let ok = match (v, kind) {
                (Some(v), 'n') => v.as_f64().is_some(),
                (Some(v), 's') => v.as_str().is_some(),
                (Some(v), 'a') => v.as_arr().is_some(),
                (Some(_), _) => true,
                (None, _) => false,
            };
            assert!(ok, "v{version} key {} missing or retyped", path.join("."));
        }
        assert_eq!(doc.get("series").unwrap().as_arr().unwrap().len(), 1);
        let table = doc.get("kernels").unwrap().as_arr().unwrap();
        assert_eq!(table.len(), yy_obs::Kernel::COUNT);
        for row in table {
            assert!(row.get("name").and_then(|n| n.as_str()).is_some());
            assert!(row.get("mflops").and_then(|v| v.as_f64()).is_some());
        }
    }
}
