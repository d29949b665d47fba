//! In-process MPI-like message passing.
//!
//! The paper parallelizes `yycore` with "flat MPI": one MPI process per
//! arithmetic processor, `MPI_COMM_SPLIT` to form the Yin and Yang panel
//! groups, `MPI_CART_CREATE`/`MPI_CART_SHIFT` for the 2-D (θ, φ) process
//! grid inside each panel, and `MPI_SEND`/`MPI_IRECV` for halo exchange and
//! inter-panel overset communication.
//!
//! This crate reproduces that programming model inside one OS process: a
//! [`Universe`] spawns one thread per rank; each rank holds a [`Comm`]
//! supporting tagged point-to-point messages of `f64` buffers (the one
//! message type — the paper's code moves nothing but numbers),
//! communicator splitting,
//! Cartesian topologies, and the collectives the solver needs. Message
//! traffic is metered ([`CommStats`]) so the Earth Simulator performance
//! model can convert measured communication volume into projected wall
//! time.
//!
//! Semantics intentionally mirror MPI where it matters to the solver:
//!
//! * sends are buffered and non-blocking (like `MPI_SEND` on small
//!   messages / `MPI_ISEND`), receives block until a matching message
//!   arrives;
//! * matching is FIFO per `(communicator, source, tag)`;
//! * collectives must be called by every member of the communicator in the
//!   same order;
//! * rank numbering inside a split communicator follows the `(key, parent
//!   rank)` order, exactly like `MPI_COMM_SPLIT`.
//!
//! Misuse — a peer rank out of range, a user tag in the collectives' tag
//! space, mismatched collective lengths — panics with a message naming
//! the broken contract: the moral equivalent of `MPI_Abort`.
//!
//! ## Fault tolerance
//!
//! Every launch catches each rank's panic as a [`RankFailure`] value
//! while its peers keep running, and marks the rank dead, which ends any
//! receive waiting on it with [`CommError::PeerDead`] once nothing of
//! the stream is left queued. [`Universe::run`] re-raises the
//! [`root_cause`]'s panic once all ranks have returned.
//! [`Universe::run_supervised`] hands the failures back instead, gives
//! every receive a deadline ([`CommError::Timeout`] instead of a hang)
//! and may install a seeded [`fault::FaultPlan`] that can delay or
//! duplicate messages or kill a rank at a chosen step. A receive is one
//! wait in the mailbox, whatever the universe; per-stream sequence
//! numbers there restore exactly-once in-order delivery under those
//! faults. See `DESIGN.md` § "Fault model and recovery".

pub mod collectives;
pub mod comm;
pub mod fault;
pub mod mailbox;
pub mod stats;
pub mod topology;
pub mod universe;

pub use comm::{Comm, CommError};
pub use fault::{FaultPlan, FaultSpec, FaultStats, KillSpec};
pub use stats::{CommStats, SolverPhase};
pub use topology::CartComm;
pub use universe::{root_cause, FailureKind, RankFailure, SupervisedOpts, Universe};

/// Reduction operations supported by the collectives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    /// Elementwise sum.
    Sum,
    /// Elementwise minimum.
    Min,
    /// Elementwise maximum.
    Max,
}

impl ReduceOp {
    #[inline]
    pub(crate) fn apply(self, a: f64, b: f64) -> f64 {
        match self {
            ReduceOp::Sum => a + b,
            ReduceOp::Min => a.min(b),
            ReduceOp::Max => a.max(b),
        }
    }
}
