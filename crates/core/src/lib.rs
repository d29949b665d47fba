//! `yycore` — the Yin-Yang finite-difference geodynamo simulation code.
//!
//! This crate reproduces the system described in the SC2004 paper: a
//! compressible MHD solver for thermal convection of an electrically
//! conducting fluid in a rotating spherical shell, built on the Yin-Yang
//! overset grid, with flat-MPI-style parallelization.
//!
//! Two drivers share all numerics:
//!
//! * [`serial::SerialSim`] — both panels in one address space; overset
//!   coupling by direct interpolation. The reference implementation that
//!   the parallel driver is tested against (bitwise).
//! * [`parallel::run_parallel`] — the paper's parallelization: the world
//!   communicator is split into Yin/Yang panel groups
//!   (`MPI_COMM_SPLIT`), each panel decomposed over a 2-D (θ, φ) process
//!   grid (`MPI_CART_CREATE`), nearest-neighbour halo exchange inside a
//!   panel, and overset interpolation traffic between panels under the
//!   world communicator.
//!
//! Both drivers advance the state with classical RK4, performing exactly
//! one boundary synchronisation (halo + overset + physical walls) per
//! stage, and meter FLOPs and message traffic for the Earth Simulator
//! performance model.
//!
//! ```no_run
//! use yycore::{RunConfig, SerialSim};
//!
//! // A small geodynamo run: 16 × 17 × 41 × 2 grid, 10 RK4 steps.
//! let mut cfg = RunConfig::small();
//! cfg.init.perturb_amplitude = 1e-2;
//! let mut sim = SerialSim::new(cfg);
//! let report = sim.run(10, 5);
//! println!("{}", report.series_csv());
//! ```
#![warn(missing_docs)]

pub mod checkpoint;
pub mod cli;
pub mod config;
pub mod health;
pub mod obs;
pub mod output;
pub mod parallel;
pub mod report;
pub mod serial;
pub mod snapshots;
pub mod telemetry;

pub use config::RunConfig;
pub use health::{HealthGuard, HealthLimits, HealthViolation};
pub use obs::{ObsOpts, TraceMode};
pub use output::{merge_shards, CkptCodec, IoTotals, OutputStage};
pub use parallel::{
    run_parallel, run_parallel_supervised, FailurePolicy, ParallelReport, PassStat, RecoveryEvent,
    RecoveryOpts, SupervisedReport,
};
pub use telemetry::{DtInject, ScienceTelemetry};
pub use report::{IoStats, PhaseBreakdown, RunReport, TimeSeriesPoint};
pub use serial::SerialSim;
