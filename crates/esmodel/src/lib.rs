//! Earth Simulator machine and performance model.
//!
//! We obviously cannot run on the 2002 Earth Simulator (5120 vector
//! processors, 40 TFlops peak). What the paper's evaluation *measures*,
//! though, is fully determined by quantities our real solver produces —
//! per-step FLOP counts (exact, from instrumented kernels), communication
//! volumes (measured by the message-passing substrate or derived from the
//! decomposition geometry), and vector lengths (the radial grid size) —
//! combined with the machine's published characteristics (Table I).
//!
//! This crate converts those inputs into projected sustained performance:
//!
//! * a **vector pipeline model**: effective AP throughput
//!   `8 GFlops · κ₀ · VL/(VL + n½)` (Hockney's n-half law, with κ₀
//!   absorbing memory-bandwidth and instruction-mix limits);
//! * a **communication model**: halo + overset bytes per step over the
//!   per-process share of the node interconnect, plus per-message latency
//!   (flat MPI: 8 processes share one node's 12.3 GB/s × 2 links);
//! * four constants (κ₀, n½, effective bandwidth, latency) calibrated
//!   once against the paper's own Table II — see [`model::EsModelParams::calibrated`] —
//!   after which the model reproduces all six published rows and, more
//!   importantly, the *shape*: efficiency falls with process count at
//!   fixed problem size, rises with problem size at fixed process count,
//!   and the 255-radial-grid rows trail the 511 rows.
//!
//! Generators for the paper's artifacts: Table I ([`machine`]),
//! Table II and Table III ([`tables`]), and the `MPIPROGINF` listing
//! (List 1, [`mpiproginf`]).
//!
//! ```
//! use yy_esmodel::{EsMachine, EsModelParams, KernelProfile};
//! use yy_esmodel::model::{project, RunShape};
//!
//! // Project the paper's flagship run: 4096 processes,
//! // 511 × 514 × 1538 × 2 grid points.
//! let proj = project(
//!     &EsMachine::earth_simulator(),
//!     &EsModelParams::calibrated(),
//!     &KernelProfile::yycore_default(),
//!     &RunShape { procs: 4096, nr: 511, nth: 514, nph: 1538 },
//! );
//! // The paper reports 15.2 TFlops at 46 % of peak.
//! assert!((proj.tflops() - 15.2).abs() < 2.0);
//! assert!((proj.efficiency - 0.46).abs() < 0.06);
//! ```
#![warn(missing_docs)]

pub mod machine;
pub mod model;
pub mod mpiproginf;
pub mod tables;

pub use machine::EsMachine;
pub use model::{EsModelParams, KernelProfile, Projection, RunShape};
pub use model::{
    flagship_projection, in_flagship_window, project, FLAGSHIP_WINDOW_TFLOPS,
    PAPER_FLAGSHIP_TFLOPS,
};
pub use tables::{
    artifacts, table1_text, table2_rows, table2_text, table3_text, Artifacts, Table2Row,
    TABLE2_PAPER,
};
