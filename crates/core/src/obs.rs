//! Observability wiring for the drivers: what to record, where to write
//! the artifacts, and the Chrome-trace dump used both for successful
//! runs and for post-mortems of failed passes.
//!
//! The options here are deliberately driver-level: the recording
//! machinery itself (flight-recorder rings, exporters) lives
//! in `yy-obs`; this module only decides *whether* recorders are
//! installed for a supervised run and turns their contents into files.

use std::path::PathBuf;
use std::sync::Arc;
use yy_obs::{chrome_trace_json, MetricsHub, RankTrace, RecorderSet};

/// Recorder installation policy for a supervised parallel run.
///
/// `Auto` is what the CLI uses: recorders exist exactly when a trace
/// output path was requested. The explicit variants decouple the two
/// for callers that measure or inspect recording itself: no recorders
/// whatever the path says (`Off`: one `Option` branch per event site),
/// or recorders without a path (`Enabled`). Recorders that exist record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceMode {
    /// Install recorders iff [`ObsOpts::trace`] is set.
    #[default]
    Auto,
    /// Never install recorders.
    Off,
    /// Install recorders even without a trace path.
    Enabled,
}

/// Observability knobs for [`crate::parallel::run_parallel_supervised`].
#[derive(Debug, Clone)]
pub struct ObsOpts {
    /// Write a Chrome trace-event JSON (Perfetto / `chrome://tracing`
    /// loadable, one track per rank) here after a successful run. Every
    /// *failed* pass additionally dumps all surviving flight recorders
    /// to `<trace>.postmortem` — a deterministic sibling path, so CI and
    /// humans can find the wreckage without parsing driver output.
    pub trace: Option<PathBuf>,
    /// Recorder installation policy (see [`TraceMode`]).
    pub mode: TraceMode,
    /// Arm the per-kernel performance counters (default on). Off leaves
    /// exactly one relaxed load per kernel site and reports an all-zero
    /// kernel table.
    pub counters: bool,
    /// Metrics hub rank 0 publishes the live Prometheus exposition
    /// into, every step. The caller owns the endpoint: the CLI binds a
    /// [`yy_obs::MetricsServer`] on it, tests scrape it without a socket.
    pub metrics_hub: Option<Arc<MetricsHub>>,
    /// Arm the science-telemetry layer: a
    /// [`yy_obs::SeriesStore`] fed at the sample cadence plus the
    /// physics watchdog ([`yy_obs::Watchdog`]). Alert edges land in the
    /// report (`alerts`), the Chrome trace, and the metrics endpoint.
    pub series: bool,
    /// Watchdog rules file ([`yy_obs::watch::parse_rules`] format);
    /// `None` = the default geodynamo ruleset.
    pub rules: Option<PathBuf>,
}

impl Default for ObsOpts {
    fn default() -> Self {
        ObsOpts {
            trace: None,
            mode: TraceMode::default(),
            counters: true,
            metrics_hub: None,
            series: false,
            rules: None,
        }
    }
}

impl ObsOpts {
    /// Build the per-rank recorder set this policy asks for; `None`
    /// means no recorders (the comm layer's zero-cost shape). The caller
    /// (the supervisor) keeps the `Arc`, so ring contents survive the
    /// universe teardown of a failed pass — that is what makes
    /// post-mortem dumps possible.
    pub fn make_recorders(&self, nranks: usize) -> Option<Arc<RecorderSet>> {
        let install = match self.mode {
            TraceMode::Auto => self.trace.is_some(),
            TraceMode::Off => false,
            TraceMode::Enabled => true,
        };
        install.then(|| Arc::new(RecorderSet::new(nranks, 0)))
    }

    /// The deterministic post-mortem dump path next to the trace path.
    pub fn postmortem_path(&self) -> Option<PathBuf> {
        self.trace.as_ref().map(|p| {
            let mut s = p.as_os_str().to_os_string();
            s.push(".postmortem");
            PathBuf::from(s)
        })
    }
}

/// Render every rank's flight-recorder contents as one Chrome
/// trace-event JSON document (one track per rank, carrying its ring's
/// counts, so a reader knows how much of the run the rings dropped).
pub fn recorders_to_chrome(set: &RecorderSet) -> String {
    let tracks: Vec<RankTrace> = (0..set.len())
        .map(|rank| {
            let ring = set.rank(rank);
            let (recorded, capacity) = (ring.recorded(), ring.capacity());
            RankTrace { rank, events: ring.snapshot(), recorded, capacity }
        })
        .collect();
    chrome_trace_json(&tracks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use yy_obs::validate_chrome_trace;
    use yy_obs::Event;

    #[test]
    fn auto_mode_follows_the_trace_path() {
        let mut o = ObsOpts::default();
        assert!(o.make_recorders(2).is_none());
        o.trace = Some(PathBuf::from("/tmp/t.json"));
        let set = o.make_recorders(2).expect("recorders");
        assert_eq!(set.len(), 2);
        assert_eq!(
            o.postmortem_path().unwrap(),
            PathBuf::from("/tmp/t.json.postmortem")
        );
    }

    #[test]
    fn explicit_modes_override_the_path() {
        let o = ObsOpts { mode: TraceMode::Enabled, ..Default::default() };
        assert_eq!(o.make_recorders(1).expect("installed").len(), 1);
        let o = ObsOpts {
            mode: TraceMode::Off,
            trace: Some(PathBuf::from("x")),
            ..Default::default()
        };
        assert!(o.make_recorders(1).is_none());
    }

    #[test]
    fn recorder_dump_is_a_valid_chrome_trace() {
        let o = ObsOpts { mode: TraceMode::Enabled, ..Default::default() };
        let set = o.make_recorders(2).expect("recorders");
        set.rank(0).record(Event::StepBegin { step: 0 });
        set.rank(1).record(Event::KillInjected { step: 0 });
        let check = validate_chrome_trace(&recorders_to_chrome(&set)).expect("valid trace");
        assert_eq!(check.tracks, 2);
        assert_eq!(check.kills, 1);
    }

    /// Rings that wrapped say so in the trace: the analysis of the
    /// re-imported trace reads the coverage the analysis of the rings
    /// reads.
    #[test]
    fn a_wrapped_trace_keeps_its_ring_coverage() {
        use yy_obs::event::Phase;
        use yy_obs::{analyze, streams_from_chrome, AnalysisInput};
        let set = RecorderSet::new(2, 64);
        for step in 0..100 {
            for r in 0..set.len() {
                set.rank(r).record(Event::StepBegin { step });
                set.rank(r).record(Event::Phase { phase: Phase::Interior, dur_ns: 10 });
            }
        }
        set.rank(1).record(Event::StepBegin { step: 100 });
        let streams = set.snapshots();
        let retained =
            (0..set.len()).map(|r| (set.rank(r).recorded(), set.rank(r).capacity())).collect();
        let rings = analyze(&AnalysisInput { streams: &streams, retained, predicted_imbalance: 1.0 });
        let (streams, retained) =
            streams_from_chrome(&recorders_to_chrome(&set)).expect("re-imports");
        let trace = analyze(&AnalysisInput { streams: &streams, retained, predicted_imbalance: 1.0 });
        assert!(rings.coverage < 1.0, "64-slot rings of 200+ events: {}", rings.coverage);
        assert_eq!(trace.coverage, rings.coverage);
    }
}
