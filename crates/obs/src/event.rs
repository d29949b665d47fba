//! The flight-recorder event model and its fixed-width encoding.
//!
//! Events must be recordable from the solver's hot paths, so each one
//! packs into three 64-bit words (plus the timestamp word the ring adds):
//!
//! ```text
//! w0: [ peer:32 | tag:16 | sub:8 | discriminant:8 ]
//! w1: a   (duration, bytes, step, …)
//! w2: b   (sequence number, resume step, …)
//! ```
//!
//! The `sub` byte carries the small enums (solver phase, traffic class,
//! fault kind, health code) as plain integers; the name tables below map
//! them back to strings at export time. Keeping the codes here — rather
//! than referencing `yy-parcomm`'s own enums — lets this crate sit at the
//! bottom of the dependency graph.

/// Solver-phase codes (`sub` byte of [`Event::Phase`]); mirrors
/// `yy_parcomm::SolverPhase` in declaration order.
pub mod phase {
    /// Packing/unpacking halo bands and posting sends.
    pub const PACK: u8 = 0;
    /// Deep-interior stencil work overlapped with in-flight messages.
    pub const INTERIOR: u8 = 1;
    /// Blocked in receives (the unhidden communication cost).
    pub const WAIT: u8 = 2;
    /// Boundary-shell stencil work and wall conditions.
    pub const BOUNDARY: u8 = 3;
    /// Overset interpolation, packing and placement.
    pub const OVERSET: u8 = 4;
    /// Blocked on the async output writer's buffer pool.
    pub const WRITER_WAIT: u8 = 5;

    /// Phase names in code order — iterate this to render one entry per
    /// phase (live gauges, doctor tables).
    pub const NAMES: [&str; 6] =
        ["pack", "interior", "wait", "boundary", "overset", "writer_wait"];

    /// Human-readable phase name (exporters).
    pub fn name(code: u8) -> &'static str {
        match code {
            PACK => "pack",
            INTERIOR => "interior",
            WAIT => "wait",
            BOUNDARY => "boundary",
            OVERSET => "overset",
            WRITER_WAIT => "writer_wait",
            _ => "phase?",
        }
    }

    /// Inverse of [`name`] (trace re-importers); `None` for unknown
    /// names, including the `"phase?"` placeholder.
    pub fn code(name: &str) -> Option<u8> {
        match name {
            "pack" => Some(PACK),
            "interior" => Some(INTERIOR),
            "wait" => Some(WAIT),
            "boundary" => Some(BOUNDARY),
            "overset" => Some(OVERSET),
            "writer_wait" => Some(WRITER_WAIT),
            _ => None,
        }
    }
}

/// Traffic-class codes (`sub` byte of [`Event::Send`]/[`Event::Recv`]);
/// mirrors `yy_parcomm::stats::TrafficClass` in declaration order, with
/// an extra `UNKNOWN` for receives (the wire envelope does not carry the
/// class).
pub mod class {
    /// Nearest-neighbour halo exchange inside a panel.
    pub const HALO: u8 = 0;
    /// Yin↔Yang overset interpolation data.
    pub const OVERSET: u8 = 1;
    /// Reductions and other collective plumbing.
    pub const COLLECTIVE: u8 = 2;
    /// Setup/control messages.
    pub const CONTROL: u8 = 3;
    /// Class not known at the recording site.
    pub const UNKNOWN: u8 = 255;

    /// Human-readable class name (exporters).
    pub fn name(code: u8) -> &'static str {
        match code {
            HALO => "halo",
            OVERSET => "overset",
            COLLECTIVE => "collective",
            CONTROL => "control",
            _ => "msg",
        }
    }
}

/// Injected-fault kinds (`sub` byte of [`Event::FaultInjected`]).
pub mod fault {
    /// First transmission lost; `a` holds the resend count.
    pub const DROP: u8 = 0;
    /// Message held back; `a` holds the injected delay in microseconds.
    pub const DELAY: u8 = 1;
    /// Message delivered twice.
    pub const DUPLICATE: u8 = 2;

    /// Human-readable fault name (exporters).
    pub fn name(code: u8) -> &'static str {
        match code {
            DROP => "drop",
            DELAY => "delay",
            DUPLICATE => "duplicate",
            _ => "fault?",
        }
    }
}

/// Health-violation codes (`sub` byte of [`Event::HealthViolation`]);
/// mirrors `yycore::health::HealthViolation` in declaration order.
pub mod health {
    /// NaN/Inf detected in a state field.
    pub const NON_FINITE: u8 = 0;
    /// Density fell under the floor.
    pub const DENSITY_FLOOR: u8 = 1;
    /// Pressure fell under the floor.
    pub const PRESSURE_FLOOR: u8 = 2;
    /// Time step collapsed.
    pub const DT_COLLAPSE: u8 = 3;

    /// Human-readable health-violation name (exporters).
    pub fn name(code: u8) -> &'static str {
        match code {
            NON_FINITE => "non-finite",
            DENSITY_FLOOR => "density-floor",
            PRESSURE_FLOOR => "pressure-floor",
            DT_COLLAPSE => "dt-collapse",
            _ => "health?",
        }
    }
}

/// Watchdog rule-kind codes (`sub` byte of [`Event::Alert`]); mirrors
/// `crate::watch::RuleKind` (see [`crate::watch::RuleKind::code`]).
pub mod alert {
    /// Latest value above a threshold.
    pub const ABOVE: u8 = 1;
    /// Latest value below a threshold.
    pub const BELOW: u8 = 2;
    /// Rate of change over a window above a limit.
    pub const TREND: u8 = 3;
    /// Signal envelope collapsed (stall).
    pub const FLATLINE: u8 = 4;
    /// Value fell below a ratio of the trailing window max (dt
    /// collapse, the NaN precursor).
    pub const DT_COLLAPSE: u8 = 5;

    /// Human-readable rule-kind name (exporters).
    pub fn name(code: u8) -> &'static str {
        match code {
            ABOVE => "above",
            BELOW => "below",
            TREND => "trend",
            FLATLINE => "flatline",
            DT_COLLAPSE => "dt-collapse",
            _ => "alert?",
        }
    }
}

/// Counter-track ids (`sub` byte of [`Event::CounterSample`]). Ids
/// below [`crate::counters::kernel::COUNT`] are per-kernel achieved
/// MFLOPS tracks; the high ids are run-level gauges.
pub mod counter {
    use crate::counters::kernel;

    /// Mailbox queue depth sampled after the step.
    pub const QUEUE_DEPTH: u8 = 250;
    /// Whole-rank achieved MFLOPS over the sampling window.
    pub const TOTAL_MFLOPS: u8 = 251;

    /// Track name for exporters: `mflops:<kernel>` for kernel ids,
    /// gauge names for the run-level ids.
    pub fn name(id: u8) -> &'static str {
        match id {
            QUEUE_DEPTH => "queue_depth",
            TOTAL_MFLOPS => "mflops_total",
            _ if (id as usize) < kernel::COUNT => match id {
                0 => "mflops:rhs",
                1 => "mflops:rk4_combine",
                2 => "mflops:halo_pack",
                3 => "mflops:halo_unpack",
                4 => "mflops:overset_donate",
                5 => "mflops:overset_fill",
                6 => "mflops:health_scan",
                7 => "mflops:output",
                _ => "mflops:unknown",
            },
            _ => "counter?",
        }
    }
}

const D_PHASE: u8 = 1;
const D_SEND: u8 = 2;
const D_RECV: u8 = 3;
const D_FAULT: u8 = 4;
const D_KILL: u8 = 5;
const D_HEALTH: u8 = 6;
const D_CKPT: u8 = 7;
const D_ROLLBACK: u8 = 8;
const D_STEP: u8 = 9;
const D_COUNTER: u8 = 10;
const D_RETILE: u8 = 11;
const D_DEGRADED: u8 = 12;
// 13 and 14 went with their variants; the gap is deliberate.
const D_ALERT: u8 = 15;

/// One flight-recorder event. See the module docs for the wire layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A completed solver-phase span of `dur_ns`; the ring timestamp is
    /// the span's *end* (exporters subtract the duration to get the
    /// start, which is how `PhaseClock::lap` measures).
    Phase {
        /// [`phase`] code.
        phase: u8,
        /// Span length in nanoseconds.
        dur_ns: u64,
    },
    /// A message posted to `peer`'s mailbox.
    Send {
        /// Destination world rank.
        peer: u32,
        /// [`class`] code.
        class: u8,
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
        /// [`class`] code ([`class::UNKNOWN`] unless the receiver knows).
        class: u8,
        /// Payload bytes.
        bytes: u64,
        /// Low 16 bits of the message tag.
        tag16: u16,
        /// Per-stream sequence number.
        seq: u64,
    },
    /// The fault plan acted on a message this rank sent.
    FaultInjected {
        /// [`fault`] code.
        kind: u8,
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
        /// [`health`] code.
        code: u8,
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
        /// [`alert`] rule-kind code.
        kind: u8,
        /// `true` on a fire edge, `false` on a clear edge.
        firing: bool,
        /// Solver step at the edge.
        step: u64,
    },
    /// A periodic counter sample: one point on a [`counter`] track
    /// (Chrome "C"-phase records, so Perfetto plots the series).
    CounterSample {
        /// [`counter`] track id.
        id: u8,
        /// Sampled value (MFLOPS, queue depth, …) as `f64::to_bits` —
        /// kept as raw bits so the event stays `Eq` and the ring slot
        /// roundtrips exactly. Build with [`Event::counter_sample`].
        value_bits: u64,
    },
}

impl Event {
    /// A [`Event::CounterSample`] from an f64 value.
    pub fn counter_sample(id: u8, value: f64) -> Event {
        Event::CounterSample { id, value_bits: value.to_bits() }
    }

    /// Pack into the three payload words of a ring slot.
    pub fn encode(&self) -> [u64; 3] {
        let head = |d: u8, sub: u8, tag: u16, peer: u32| {
            d as u64 | (sub as u64) << 8 | (tag as u64) << 16 | (peer as u64) << 32
        };
        match *self {
            Event::Phase { phase, dur_ns } => [head(D_PHASE, phase, 0, 0), dur_ns, 0],
            Event::Send { peer, class, bytes, tag16, seq } => {
                [head(D_SEND, class, tag16, peer), bytes, seq]
            }
            Event::Recv { peer, class, bytes, tag16, seq } => {
                [head(D_RECV, class, tag16, peer), bytes, seq]
            }
            Event::FaultInjected { kind, peer, param } => {
                [head(D_FAULT, kind, 0, peer), param, 0]
            }
            Event::KillInjected { step } => [head(D_KILL, 0, 0, 0), step, 0],
            Event::HealthViolation { code, step } => [head(D_HEALTH, code, 0, 0), step, 0],
            Event::CheckpointSaved { step } => [head(D_CKPT, 0, 0, 0), step, 0],
            Event::Rollback { pass, resume_step } => {
                [head(D_ROLLBACK, 0, 0, 0), pass, resume_step]
            }
            Event::StepBegin { step } => [head(D_STEP, 0, 0, 0), step, 0],
            Event::Retile { pth, pph, pass, resume_step } => {
                [head(D_RETILE, 0, pth, pph as u32), pass, resume_step]
            }
            Event::Degraded { pass, checkpoint_every } => {
                [head(D_DEGRADED, 0, 0, 0), pass, checkpoint_every]
            }
            Event::Alert { rule, kind, firing, step } => {
                [head(D_ALERT, kind, firing as u16, rule), step, 0]
            }
            Event::CounterSample { id, value_bits } => {
                [head(D_COUNTER, id, 0, 0), value_bits, 0]
            }
        }
    }

    /// Decode a ring slot; `None` for an unrecognised discriminant (an
    /// empty or torn slot).
    pub fn decode(words: [u64; 3]) -> Option<Event> {
        let [w0, a, b] = words;
        let sub = (w0 >> 8) as u8;
        let tag16 = (w0 >> 16) as u16;
        let peer = (w0 >> 32) as u32;
        Some(match w0 as u8 {
            D_PHASE => Event::Phase { phase: sub, dur_ns: a },
            D_SEND => Event::Send { peer, class: sub, bytes: a, tag16, seq: b },
            D_RECV => Event::Recv { peer, class: sub, bytes: a, tag16, seq: b },
            D_FAULT => Event::FaultInjected { kind: sub, peer, param: a },
            D_KILL => Event::KillInjected { step: a },
            D_HEALTH => Event::HealthViolation { code: sub, step: a },
            D_CKPT => Event::CheckpointSaved { step: a },
            D_ROLLBACK => Event::Rollback { pass: a, resume_step: b },
            D_STEP => Event::StepBegin { step: a },
            D_RETILE => Event::Retile { pth: tag16, pph: peer as u16, pass: a, resume_step: b },
            D_DEGRADED => Event::Degraded { pass: a, checkpoint_every: b },
            D_ALERT => Event::Alert { rule: peer, kind: sub, firing: tag16 != 0, step: a },
            D_COUNTER => Event::CounterSample { id: sub, value_bits: a },
            _ => return None,
        })
    }
}

/// An event plus the nanosecond timestamp the ring stamped it with
/// (relative to the recorder set's shared origin, so tracks from
/// different ranks align on one timeline).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimedEvent {
    /// Nanoseconds since the recorder origin.
    pub ts_ns: u64,
    /// The decoded event.
    pub event: Event,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(e: Event) {
        assert_eq!(Event::decode(e.encode()), Some(e), "{e:?}");
    }

    #[test]
    fn all_variants_roundtrip() {
        roundtrip(Event::Phase { phase: phase::WAIT, dur_ns: u64::MAX });
        roundtrip(Event::Send {
            peer: u32::MAX,
            class: class::HALO,
            bytes: 1 << 50,
            tag16: u16::MAX,
            seq: 123,
        });
        roundtrip(Event::Recv { peer: 7, class: class::UNKNOWN, bytes: 0, tag16: 11, seq: 0 });
        roundtrip(Event::FaultInjected { kind: fault::DELAY, peer: 3, param: 200 });
        roundtrip(Event::KillInjected { step: 4 });
        roundtrip(Event::HealthViolation { code: health::DT_COLLAPSE, step: 9 });
        roundtrip(Event::CheckpointSaved { step: 2 });
        roundtrip(Event::Rollback { pass: 1, resume_step: 4 });
        roundtrip(Event::StepBegin { step: 0 });
        roundtrip(Event::Retile { pth: 1, pph: 2, pass: 3, resume_step: 4 });
        roundtrip(Event::Retile { pth: u16::MAX, pph: u16::MAX, pass: u64::MAX, resume_step: 0 });
        roundtrip(Event::Degraded { pass: 2, checkpoint_every: 8 });
        roundtrip(Event::Alert { rule: 0, kind: alert::DT_COLLAPSE, firing: true, step: 12 });
        roundtrip(Event::Alert { rule: u32::MAX, kind: alert::FLATLINE, firing: false, step: 0 });
        roundtrip(Event::counter_sample(counter::TOTAL_MFLOPS, 1234.5));
        roundtrip(Event::counter_sample(0, -0.0));
    }

    #[test]
    fn counter_sample_value_roundtrips_bits() {
        let e = Event::counter_sample(counter::QUEUE_DEPTH, 3.75);
        let bits = 3.75_f64.to_bits();
        assert_eq!(e, Event::CounterSample { id: counter::QUEUE_DEPTH, value_bits: bits });
    }

    #[test]
    fn counter_track_names_match_kernel_table() {
        use crate::counters::kernel;
        for id in 0..kernel::COUNT as u8 {
            assert_eq!(
                counter::name(id),
                format!("mflops:{}", kernel::name(id)),
                "counter track {id} out of sync with kernel name table"
            );
        }
        assert_eq!(counter::name(counter::QUEUE_DEPTH), "queue_depth");
        assert_eq!(counter::name(counter::TOTAL_MFLOPS), "mflops_total");
        assert_eq!(counter::name(99), "counter?");
    }

    #[test]
    fn zero_slot_decodes_to_none() {
        assert_eq!(Event::decode([0, 0, 0]), None);
        assert_eq!(Event::decode([0xFF, 1, 2]), None);
    }

    #[test]
    fn name_tables_cover_codes() {
        assert_eq!(phase::name(phase::INTERIOR), "interior");
        assert_eq!(class::name(class::OVERSET), "overset");
        assert_eq!(class::name(class::UNKNOWN), "msg");
        assert_eq!(fault::name(fault::DROP), "drop");
        assert_eq!(health::name(health::NON_FINITE), "non-finite");
        assert_eq!(alert::name(alert::DT_COLLAPSE), "dt-collapse");
        assert_eq!(alert::name(200), "alert?");
        assert_eq!(phase::name(200), "phase?");
    }

    #[test]
    fn phase_codes_invert_names() {
        for p in 0..6u8 {
            assert_eq!(phase::code(phase::name(p)), Some(p));
        }
        assert_eq!(phase::code("phase?"), None);
        assert_eq!(phase::code(""), None);
    }
}
