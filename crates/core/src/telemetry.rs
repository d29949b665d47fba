//! Science telemetry: the in-situ time-series store and physics
//! watchdog threaded through both drivers.
//!
//! The machinery lives in `yy-obs` ([`yy_obs::SeriesStore`],
//! [`yy_obs::Watchdog`]); this module owns the *policy* — which
//! channels a geodynamo run records, how a run's [`ObsOpts`] turn into
//! an armed telemetry instance, and how the accumulated state renders
//! into the run report and the Prometheus endpoint.
//!
//! Telemetry is strictly read-only with respect to the trajectory: it
//! consumes the [`TimeSeriesPoint`]s the drivers already produce at the
//! sample cadence, so an armed run is bit-identical to an unarmed one
//! (asserted by `serial::tests::armed_telemetry_is_bit_identical`).

use crate::obs::ObsOpts;
use crate::report::TimeSeriesPoint;
use yy_obs::event::AlertKind;
use yy_obs::{parse_rules, AlertEvent, ScienceGauges, SeriesStore, Watchdog};

/// Channel layout of the science series store, in row order. The first
/// six come from the reduced [`yy_mhd::Diagnostics`]; `dt`,
/// `step_wall_ms` and `dominant_m` are driver-side.
pub const CHANNELS: [&str; 9] = [
    "kinetic",
    "magnetic",
    "thermal",
    "max_speed",
    "max_b",
    "dt",
    "step_wall_ms",
    "dominant_m",
    "mass",
];

/// The channel only the serial driver fills: the equatorial probe needs
/// the whole field, which a rank does not hold.
pub const SERIAL_ONLY: &str = "dominant_m";

/// Samples each channel keeps (the built-in rules look back 64 at
/// most, `yycore watch` draws 48 by default).
const RAW_CAPACITY: usize = 256;

/// Azimuthal-mode budget for the equatorial vorticity probe (clamped to
/// the ring's Nyquist limit by [`yy_mhd::spectra::probe`]).
pub const PROBE_M_MAX: usize = 40;

/// Longitude samples for the equatorial probe ring.
pub const PROBE_NPHI: usize = 128;

/// Seeded dt-collapse injection: from `at_step` on, the applied time
/// step is the CFL step scaled by `0.5^(k+1)` on the k-th affected step.
/// The watchdog's `dt_collapse` rule (latest < ½ × window max) then
/// trips within two samples, while the shrinking-dt trajectory itself
/// stays finite — the smoke test's way of rehearsing a blow-up without
/// one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DtInject {
    /// First step the scaling applies to.
    pub at_step: u64,
}

impl DtInject {
    /// Per-step shrink factor of the applied dt.
    const FACTOR: f64 = 0.5;

    /// The dt to apply at `step` given the CFL step `dt`.
    pub fn scaled(&self, step: u64, dt: f64) -> f64 {
        if step < self.at_step {
            return dt;
        }
        let k = (step - self.at_step + 1).min(512) as i32;
        dt * Self::FACTOR.powi(k)
    }
}

/// An armed science-telemetry instance: store + watchdog + the alert
/// edges accumulated so far.
#[derive(Debug, Clone)]
pub struct ScienceTelemetry {
    store: SeriesStore,
    watch: Watchdog,
    alerts: Vec<AlertEvent>,
}

impl ScienceTelemetry {
    /// Telemetry with the standard channel layout and the given rules.
    pub fn new(rules: Vec<yy_obs::Rule>) -> ScienceTelemetry {
        ScienceTelemetry {
            store: SeriesStore::new(&CHANNELS, RAW_CAPACITY),
            watch: Watchdog::new(rules),
            alerts: Vec::new(),
        }
    }

    /// Build from driver options: `None` when `series` is off, the
    /// default geodynamo ruleset when no rules file is given, else the
    /// parsed file. Errors on an unreadable or malformed rules file, or
    /// one watching a channel outside [`CHANNELS`] — or, unless `serial`,
    /// the [`SERIAL_ONLY`] channel, which a parallel run never fills: a
    /// watchdog that silently watches nothing is worse than a failed
    /// launch.
    pub fn from_opts(opts: &ObsOpts, serial: bool) -> Result<Option<ScienceTelemetry>, String> {
        if !opts.series {
            return Ok(None);
        }
        let rules = match &opts.rules {
            None => Watchdog::default_rules(),
            Some(path) => {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| format!("reading rules {}: {e}", path.display()))?;
                let rules = parse_rules(&text)?;
                // Each line again on its own, so the error can name it.
                for (n, line) in text.lines().enumerate() {
                    let Some(r) = parse_rules(line)?.pop() else { continue };
                    let why = if !CHANNELS.contains(&r.channel.as_str()) {
                        let known = CHANNELS.join(" ");
                        format!("unknown channel {:?} (channels: {known})", r.channel)
                    } else if !serial && r.channel == SERIAL_ONLY {
                        format!("channel {:?} is recorded by serial runs only", r.channel)
                    } else {
                        continue;
                    };
                    return Err(format!("rules line {}: {why}: {line:?}", n + 1));
                }
                rules
            }
        };
        Ok(Some(ScienceTelemetry::new(rules)))
    }

    /// Ingest one sample-cadence point. `dominant_m` is `None` when the
    /// run does not probe the equatorial ring (parallel runs; the field
    /// is distributed). Returns the alert edges this row produced; they
    /// are also retained in [`Self::alerts`].
    pub fn record(
        &mut self,
        point: &TimeSeriesPoint,
        step_wall_ms: f64,
        dominant_m: Option<usize>,
    ) -> Vec<AlertEvent> {
        let d = &point.diag;
        let m = dominant_m.map(|m| m as f64).unwrap_or(f64::NAN);
        self.store.push_row(&[
            d.kinetic,
            d.magnetic,
            d.thermal,
            d.max_speed,
            d.max_b,
            point.dt,
            step_wall_ms,
            m,
            d.mass,
        ]);
        let edges = self.watch.eval(&self.store, point.step, point.time);
        self.alerts.extend(edges.iter().cloned());
        edges
    }

    /// The series store.
    pub fn store(&self) -> &SeriesStore {
        &self.store
    }

    /// Every fire/clear edge so far, in evaluation order.
    pub fn alerts(&self) -> &[AlertEvent] {
        &self.alerts
    }

    /// Snapshot for the Prometheus endpoint.
    pub fn gauges(&self) -> ScienceGauges {
        let latest = |name: &str| {
            self.store.channel(name).and_then(|c| c.latest()).unwrap_or(f64::NAN)
        };
        let dominant = latest("dominant_m");
        ScienceGauges {
            energy: vec![
                ("kinetic".to_string(), latest("kinetic")),
                ("magnetic".to_string(), latest("magnetic")),
                ("thermal".to_string(), latest("thermal")),
            ],
            dt: latest("dt"),
            max_speed: latest("max_speed"),
            max_b: latest("max_b"),
            dominant_m: if dominant.is_finite() { dominant as i64 } else { -1 },
            alerts: self
                .watch
                .rules()
                .iter()
                .enumerate()
                .map(|(i, r)| (r.name.clone(), self.watch.is_firing(i), self.watch.fired_count(i)))
                .collect(),
        }
    }
}

/// Render alert edges as the report's `alerts` JSON array.
pub fn alerts_json(alerts: &[AlertEvent]) -> String {
    let mut out = String::from("[");
    for (i, a) in alerts.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"rule\":\"{}\",\"kind\":\"{}\",\"firing\":{},\"step\":{},\"time\":{},\"value\":{}}}",
            yy_obs::json::escape(&a.rule),
            a.kind.name(),
            a.firing,
            a.step,
            yy_obs::json::num(a.time),
            yy_obs::json::num(a.value),
        ));
    }
    out.push(']');
    out
}

/// Parse a report's `alerts` array back into edges (the inverse of
/// [`alerts_json`]; `None` for a member missing, mistyped or naming no
/// [`AlertKind`]).
pub fn alerts_from_json(v: &yy_obs::Json) -> Option<Vec<AlertEvent>> {
    let arr = v.as_arr()?;
    let mut out = Vec::with_capacity(arr.len());
    for a in arr {
        out.push(AlertEvent {
            rule: a.str_at("rule")?.to_string(),
            rule_index: 0,
            kind: AlertKind::from_name(a.str_at("kind")?)?,
            firing: a.get("firing")?.as_bool()?,
            step: a.f64_at("step")? as u64,
            time: a.f64_at("time")?,
            value: a.f64_at("value").unwrap_or(f64::NAN),
        });
    }
    Some(out)
}

/// The dominant azimuthal mode of the mid-shell equatorial axial
/// vorticity ring — the serial driver's in-situ column-count probe
/// (`yycore slice` computes the same quantity offline).
pub fn equatorial_dominant_m(sim: &crate::serial::SerialSim) -> usize {
    use yy_mesh::Panel;
    let metric = sim.metric();
    let wz_yin = crate::snapshots::axial_vorticity(&sim.yin, &sim.grid, metric, Panel::Yin);
    let wz_yang = crate::snapshots::axial_vorticity(&sim.yang, &sim.grid, metric, Panel::Yang);
    let eq = crate::snapshots::sample_equatorial(&wz_yin, &wz_yang, &sim.grid, PROBE_NPHI);
    yy_mhd::spectra::probe(eq.mid_shell_ring(), PROBE_M_MAX).dominant_m
}

#[cfg(test)]
mod tests {
    use super::*;
    use yy_mhd::Diagnostics;

    fn point(step: u64, dt: f64) -> TimeSeriesPoint {
        TimeSeriesPoint {
            step,
            time: step as f64 * 1e-3,
            dt,
            diag: Diagnostics {
                kinetic: 1.0 + step as f64,
                magnetic: 0.5,
                thermal: 10.0,
                mass: 4.0,
                max_speed: 2.0,
                max_b: 0.1,
                ..Default::default()
            },
        }
    }

    #[test]
    fn disarmed_opts_build_nothing_and_armed_build_defaults() {
        let opts = ObsOpts::default();
        assert!(ScienceTelemetry::from_opts(&opts, true).unwrap().is_none());
        let opts = ObsOpts { series: true, ..Default::default() };
        let tel = ScienceTelemetry::from_opts(&opts, false).unwrap().expect("armed");
        assert_eq!(tel.store().channels().len(), CHANNELS.len());
        let named: Vec<&str> = tel.store().channels().iter().map(|c| c.name.as_str()).collect();
        assert_eq!(named, CHANNELS.to_vec());
        let missing = ObsOpts {
            series: true,
            rules: Some(std::path::PathBuf::from("/nonexistent/rules")),
            ..Default::default()
        };
        assert!(ScienceTelemetry::from_opts(&missing, true).is_err());
        // A rule on a channel the store does not have would never fire.
        let path = std::env::temp_dir().join(format!("yy_rules_{}", std::process::id()));
        std::fs::write(&path, "# ok\nfine: dt above threshold=1\ntypo: kinetc above threshold=1\n")
            .unwrap();
        let typo = ObsOpts { series: true, rules: Some(path.clone()), ..Default::default() };
        let err = ScienceTelemetry::from_opts(&typo, true).expect_err("unknown channel");
        std::fs::remove_file(&path).unwrap();
        assert!(err.starts_with("rules line 3: unknown channel \"kinetc\""), "{err}");
    }

    #[test]
    fn record_feeds_every_channel_and_collapse_fires() {
        let mut tel = ScienceTelemetry::new(Watchdog::default_rules());
        let mut dt = 1e-3;
        for s in 0..24 {
            if s >= 12 {
                dt *= 0.5; // forced CFL collapse
            }
            tel.record(&point(s, dt), 3.5, Some(6));
        }
        assert_eq!(tel.store().rows(), 24);
        assert_eq!(tel.store().channel("dominant_m").unwrap().latest(), Some(6.0));
        assert!(
            tel.alerts().iter().any(|a| a.rule == "energy_blowup" && a.firing),
            "dt halving must trip energy_blowup"
        );
        let g = tel.gauges();
        assert_eq!(g.dominant_m, 6);
        assert!(g.alerts.iter().any(|(n, firing, fired)| n == "energy_blowup" && *firing && *fired >= 1));
        // Parallel-style records (no probe) render the unprobed marker.
        let mut tel = ScienceTelemetry::new(Vec::new());
        tel.record(&point(0, 1e-3), 1.0, None);
        assert_eq!(tel.gauges().dominant_m, -1);
    }

    #[test]
    fn alerts_roundtrip_through_report_json() {
        let mut tel = ScienceTelemetry::new(Watchdog::default_rules());
        let mut dt = 1e-3;
        for s in 0..24 {
            if s >= 12 {
                dt *= 0.5;
            }
            tel.record(&point(s, dt), 1.0, None);
        }
        let text = alerts_json(tel.alerts());
        let parsed = yy_obs::Json::parse(&text).expect("valid json");
        let back = alerts_from_json(&parsed).expect("decodes");
        assert_eq!(back.len(), tel.alerts().len());
        assert_eq!(back[0].rule, tel.alerts()[0].rule);
        assert_eq!(back[0].kind, tel.alerts()[0].kind);
        assert_eq!(back[0].step, tel.alerts()[0].step);
        assert!(alerts_json(&[]).starts_with('[') && alerts_json(&[]).ends_with(']'));
    }
}
