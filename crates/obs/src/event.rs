//! The flight-recorder event model and its code spaces.
//!
//! An [`Event`] is plain `Copy` data; the ring stores it as it is, and
//! `chrome.rs` owns its one on-disk form. The small enums it carries
//! (solver phase, traffic class, fault kind, health code, alert kind)
//! are each declared here, once, by [`code_table!`]: the
//! enum, its code and its exported name in one line per code. The
//! crates above (`yy-parcomm`'s stats, `yycore`'s report) re-export or
//! index by these types instead of keeping their own copies.

/// Declare one code space: a `#[repr(u8)]` enum whose every variant
/// carries its code and its exported name.
macro_rules! code_table {
    (
        $(#[$meta:meta])*
        $vis:vis enum $ty:ident {
            $($(#[$vmeta:meta])* $var:ident = $code:literal => $name:literal,)+
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
        #[repr(u8)]
        $vis enum $ty {
            $($(#[$vmeta])* $var = $code,)+
        }

        impl $ty {
            /// Number of codes.
            pub const COUNT: usize = [$($code,)+].len();
            /// Every code, in declaration order.
            pub const ALL: [$ty; Self::COUNT] = [$($ty::$var,)+];

            /// The exported name (trace records, report keys, labels).
            pub const fn name(self) -> &'static str {
                match self {
                    $($ty::$var => $name,)+
                }
            }

            /// Inverse of [`Self::name`]; `None` for a name outside the table.
            pub fn from_name(name: &str) -> Option<$ty> {
                Self::ALL.into_iter().find(|c| c.name() == name)
            }
        }
    };
}
pub(crate) use code_table;

code_table! {
    /// One phase of the solver's overlapped step pipeline. The codes are
    /// dense from 0, so per-phase records are arrays indexed `as usize`.
    pub enum Phase {
        /// Packing/unpacking halo bands and posting sends.
        Pack = 0 => "pack",
        /// Deep-interior stencil work overlapped with in-flight messages.
        Interior = 1 => "interior",
        /// Blocked in receives (the *unhidden* communication cost).
        Wait = 2 => "wait",
        /// Boundary-shell stencil work and wall conditions after the drain.
        Boundary = 3 => "boundary",
        /// Overset interpolation, packing and placement.
        Overset = 4 => "overset",
        /// Blocked handing a packed output buffer to the async writer (the
        /// backpressure cost of checkpoint/snapshot emission; zero when the
        /// two-slot pool always has a free buffer).
        WriterWait = 5 => "writer_wait",
    }
}

code_table! {
    /// What kind of traffic a message carries (dense from 0, like
    /// [`Phase`]). A receive does not know it — the wire envelope does
    /// not carry the class — so [`Event::Recv`] holds an `Option`.
    pub enum TrafficClass {
        /// Nearest-neighbour halo exchange inside a panel (θ/φ neighbours).
        Halo = 0 => "halo",
        /// Yin↔Yang overset interpolation data between the two panels.
        Overset = 1 => "overset",
        /// Reductions and other collective plumbing.
        Collective = 2 => "collective",
        /// Setup/control messages (routing tables, split negotiation).
        Control = 3 => "control",
    }
}

code_table! {
    /// What the fault plan did to a message.
    pub enum FaultKind {
        /// Message held back; `param` holds the injected delay in microseconds.
        Delay = 0 => "delay",
        /// Message delivered twice.
        Duplicate = 1 => "duplicate",
    }
}

code_table! {
    /// Which health guard tripped.
    pub enum HealthCode {
        /// NaN/Inf detected in a state field.
        NonFinite = 0 => "non-finite",
        /// Density fell under the floor.
        DensityFloor = 1 => "density-floor",
        /// Pressure fell under the floor.
        PressureFloor = 2 => "pressure-floor",
        /// Time step collapsed.
        DtCollapse = 3 => "dt-collapse",
    }
}

code_table! {
    /// The condition kind of a watchdog rule ([`crate::watch::RuleKind`]
    /// without its parameters).
    pub enum AlertKind {
        /// Latest value above a threshold.
        Above = 1 => "above",
        /// Latest value below a threshold.
        Below = 2 => "below",
        /// Rate of change over a window above a limit.
        Trend = 3 => "trend",
        /// Signal envelope collapsed (stall).
        Flatline = 4 => "flatline",
        /// Value fell below a ratio of the trailing window max (dt
        /// collapse, the NaN precursor).
        DtCollapse = 5 => "dt-collapse",
    }
}

/// One flight-recorder event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A completed solver-phase span of `dur_ns`; the ring timestamp is
    /// the span's *end* (exporters subtract the duration to get the
    /// start, which is how `PhaseClock::lap` measures).
    Phase {
        /// Which phase.
        phase: Phase,
        /// Span length in nanoseconds.
        dur_ns: u64,
    },
    /// A message posted to `peer`'s mailbox.
    Send {
        /// Destination world rank.
        peer: u32,
        /// Traffic class the sender metered the message under.
        class: TrafficClass,
        /// Payload bytes.
        bytes: u64,
        /// Low 16 bits of the message tag (enough to disambiguate the
        /// solver's tag space; internal collective tags fold down).
        tag16: u16,
        /// Per-stream sequence number.
        seq: u64,
    },
    /// A message received from `peer`.
    Recv {
        /// Source world rank.
        peer: u32,
        /// Traffic class, when the recording site knows it.
        class: Option<TrafficClass>,
        /// Payload bytes.
        bytes: u64,
        /// Low 16 bits of the message tag.
        tag16: u16,
        /// Per-stream sequence number.
        seq: u64,
    },
    /// The fault plan acted on a message this rank sent.
    FaultInjected {
        /// What was done to the message.
        kind: FaultKind,
        /// Destination world rank of the afflicted message.
        peer: u32,
        /// Kind-specific parameter (resends / delay µs / 0).
        param: u64,
    },
    /// The fault plan killed this rank.
    KillInjected {
        /// Solver step at which the kill fired.
        step: u64,
    },
    /// A health guard tripped.
    HealthViolation {
        /// Which guard.
        code: HealthCode,
        /// Solver step of the violation.
        step: u64,
    },
    /// A checkpoint was captured.
    CheckpointSaved {
        /// Step the checkpoint represents.
        step: u64,
    },
    /// The supervisor rolled back to a checkpoint.
    Rollback {
        /// Recovery pass index (1-based: pass 0 is the initial attempt).
        pass: u64,
        /// Step execution resumes from.
        resume_step: u64,
    },
    /// A solver step began.
    StepBegin {
        /// The step number.
        step: u64,
    },
    /// The supervisor re-tiled the run onto a new process layout
    /// (elastic recovery after a persistent rank fault).
    Retile {
        /// θ tile count of the new layout.
        pth: u16,
        /// φ tile count of the new layout.
        pph: u16,
        /// Pass index the retile happened after.
        pass: u64,
        /// Step the shrunk layout resumes from.
        resume_step: u64,
    },
    /// The supervisor entered degraded mode (checkpoint cadence widened
    /// after the first retile).
    Degraded {
        /// Pass index degraded mode began after.
        pass: u64,
        /// The widened checkpoint cadence now in effect.
        checkpoint_every: u64,
    },
    /// A physics-watchdog alert edge: a rule started or stopped firing
    /// (`yy_obs::watch`). Fire/clear edges land as instants in the
    /// Chrome trace so a blow-up is visible on the same timeline as the
    /// rollbacks it causes.
    Alert {
        /// Rule index in the run's rule list.
        rule: u32,
        /// The rule's condition kind.
        kind: AlertKind,
        /// `true` on a fire edge, `false` on a clear edge.
        firing: bool,
        /// Solver step at the edge.
        step: u64,
    },
}

/// An event plus the nanosecond timestamp the ring stamped it with
/// (relative to the recorder set's shared origin, so tracks from
/// different ranks align on one timeline).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimedEvent {
    /// Nanoseconds since the recorder origin.
    pub ts_ns: u64,
    /// The event.
    pub event: Event,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_tables_cover_codes() {
        assert_eq!(Phase::Interior.name(), "interior");
        assert_eq!(TrafficClass::Overset.name(), "overset");
        assert_eq!(FaultKind::Delay.name(), "delay");
        assert_eq!(HealthCode::NonFinite.name(), "non-finite");
        assert_eq!(AlertKind::DtCollapse.name(), "dt-collapse");
        assert_eq!(AlertKind::COUNT, 5);
    }

    #[test]
    fn phase_codes_invert_names() {
        for (i, p) in Phase::ALL.into_iter().enumerate() {
            assert_eq!(p as usize, i, "phase codes are dense: records index by them");
            assert_eq!(Phase::from_name(p.name()), Some(p));
        }
        assert_eq!(Phase::from_name("phase?"), None);
        assert_eq!(Phase::from_name(""), None);
    }
}
