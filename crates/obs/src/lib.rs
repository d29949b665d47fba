//! Zero-dependency observability for the geodynamo workspace.
//!
//! The paper's entire evaluation is an observability artifact: List 1 of
//! the SC'04 paper is the `MPIPROGINF` per-process counter report from
//! which the 15.2 TFlops headline is read. This crate grows the same
//! discipline for the in-process runtime, in two layers:
//!
//! * **Flight recorder** ([`FlightRecorder`]) — a per-rank fixed-capacity
//!   ring buffer of timestamped [`Event`]s (solver phase spans, message
//!   send/recv, fault injections, health violations,
//!   checkpoint/rollback), stored as the events themselves. Recording
//!   is one uncontended lock; a run without a recorder
//!   (`Option::None` in the comm layer) pays one branch per event site.
//! * **Exporters** ([`chrome`], [`json`]) — Chrome trace-event JSON
//!   (one track per rank, spans + message flow arrows, loadable in
//!   Perfetto / `chrome://tracing`) and the minimal JSON writer/parser
//!   the artifact tests round-trip through.
//!
//! Everything here is plain `std`: no registry dependencies, in keeping
//! with the workspace's hermetic-build rule (DESIGN.md §3a).

#![warn(missing_docs)]

pub mod analysis;
pub mod chrome;
pub mod counters;
pub mod dashboard;
pub mod event;
pub mod json;
pub mod metrics;
pub mod ring;
pub mod series;
pub mod watch;

pub use analysis::{analyze, Analysis, AnalysisInput};
pub use chrome::{
    chrome_trace_json, streams_from_chrome, validate_chrome_trace, RankTrace, TraceCheck,
};
pub use counters::{CounterSet, CounterSnapshot, Kernel, KernelSnapshot, KernelTally};
pub use event::{Event, TimedEvent};
pub use json::Json;
pub use metrics::{
    prometheus_text, science_gauges_text, MetricsHub, MetricsServer, ScienceGauges,
};
pub use ring::{FlightRecorder, RecorderSet};
pub use series::{Channel, SeriesStore};
pub use watch::{parse_rules, AlertEvent, Rule, RuleKind, Watchdog};
