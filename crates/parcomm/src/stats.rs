//! Per-rank communication traffic statistics.
//!
//! The paper reports that inter-process communication costs about 10 % of
//! the run time and that the overset (Yin↔Yang) traffic is distinct from
//! the intra-panel halo traffic. The solver tags each message with a
//! [`TrafficClass`] so the Earth Simulator model can convert class-resolved
//! byte counts into projected communication time.

use std::sync::atomic::{AtomicU64, Ordering};
/// The two code spaces the counters are resolved by; `yy-obs` declares
/// them (names, codes) and this crate indexes its records by them.
pub use yy_obs::event::{Phase as SolverPhase, TrafficClass};

/// Lock-free counters for one rank.
///
/// Shared (`Arc`) between all the communicators a rank holds, so a single
/// snapshot covers world + panel + cart traffic.
#[derive(Debug, Default)]
pub struct StatsCell {
    class_bytes: [AtomicU64; TrafficClass::COUNT],
    phase_ns: [AtomicU64; SolverPhase::COUNT],
}

impl StatsCell {
    /// Zeroed counters.
    pub fn new() -> Self {
        StatsCell::default()
    }

    /// Count one outgoing message of `bytes` under `class`.
    pub fn record_send(&self, class: TrafficClass, bytes: usize) {
        self.class_bytes[class as usize].fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// Charge `ns` nanoseconds of wall-clock time to a solver phase.
    pub fn record_phase_ns(&self, phase: SolverPhase, ns: u64) {
        self.phase_ns[phase as usize].fetch_add(ns, Ordering::Relaxed);
    }

    /// An immutable copy of the current counters.
    ///
    /// The cell itself cannot see the rank's mailbox, so the caller
    /// supplies its queue-depth high-water mark. [`crate::Comm::stats`]
    /// is the one place that does this with the live value — take
    /// snapshots through it.
    pub fn snapshot(&self, max_queue_depth: u64) -> CommStats {
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        CommStats {
            class_bytes: std::array::from_fn(|c| load(&self.class_bytes[c])),
            max_queue_depth,
            phase_ns: std::array::from_fn(|p| load(&self.phase_ns[p])),
        }
    }
}

/// An immutable snapshot of one rank's traffic counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommStats {
    /// Bytes sent per [`TrafficClass`], indexed `class as usize`.
    pub class_bytes: [u64; TrafficClass::COUNT],
    /// High-water mark of this rank's mailbox queue depth (filled in by
    /// [`crate::Comm::stats`]). Under a fault plan it also counts delayed
    /// envelopes waiting in the mailbox for their due time.
    pub max_queue_depth: u64,
    /// Wall-clock nanoseconds charged to each [`SolverPhase`], indexed
    /// `phase as usize`. `Wait` is the unhidden communication cost,
    /// `WriterWait` the unhidden cost of checkpoint/snapshot emission.
    pub phase_ns: [u64; SolverPhase::COUNT],
}

impl CommStats {
    /// Bytes sent under `class`.
    pub fn bytes(&self, class: TrafficClass) -> u64 {
        self.class_bytes[class as usize]
    }

    /// Element-wise sum (for aggregating across ranks).
    pub fn merged(self, other: CommStats) -> CommStats {
        CommStats {
            class_bytes: std::array::from_fn(|c| self.class_bytes[c] + other.class_bytes[c]),
            // A high-water mark aggregates by max, not sum: the merged
            // value answers "how deep did any one queue get".
            max_queue_depth: self.max_queue_depth.max(other.max_queue_depth),
            phase_ns: std::array::from_fn(|p| self.phase_ns[p] + other.phase_ns[p]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_by_class() {
        let s = StatsCell::new();
        s.record_send(TrafficClass::Halo, 100);
        s.record_send(TrafficClass::Overset, 50);
        s.record_send(TrafficClass::Collective, 8);
        s.record_send(TrafficClass::Control, 16);
        s.record_send(TrafficClass::Halo, 4);
        let snap = s.snapshot(0);
        assert_eq!(snap.class_bytes, [104, 50, 8, 16]);
        assert_eq!(snap.bytes(TrafficClass::Overset), 50);
    }

    #[test]
    fn merged_adds_everything() {
        let mut a = CommStats::default();
        a.class_bytes[TrafficClass::Halo as usize] = 10;
        a.phase_ns[SolverPhase::Pack as usize] = 2;
        let mut b = CommStats::default();
        b.class_bytes[TrafficClass::Halo as usize] = 5;
        b.class_bytes[TrafficClass::Overset as usize] = 7;
        b.phase_ns[SolverPhase::Pack as usize] = 3;
        let m = a.merged(b);
        assert_eq!(m.class_bytes, [15, 7, 0, 0]);
        assert_eq!(m.phase_ns[SolverPhase::Pack as usize], 5);
    }

    #[test]
    fn phase_times_accumulate_and_merge_by_sum() {
        let s = StatsCell::new();
        s.record_phase_ns(SolverPhase::Pack, 5);
        s.record_phase_ns(SolverPhase::Interior, 100);
        s.record_phase_ns(SolverPhase::Wait, 7);
        s.record_phase_ns(SolverPhase::Boundary, 30);
        s.record_phase_ns(SolverPhase::Overset, 11);
        s.record_phase_ns(SolverPhase::Wait, 3);
        s.record_phase_ns(SolverPhase::WriterWait, 17);
        let snap = s.snapshot(0);
        assert_eq!(snap.phase_ns, [5, 100, 10, 30, 11, 17]);
        assert_eq!(snap.phase_ns[SolverPhase::Wait as usize], 10);
        let m = snap.merged(snap);
        assert_eq!(m.phase_ns, [10, 200, 20, 60, 22, 34], "phase times sum across ranks");
    }

    #[test]
    fn snapshot_carries_the_supplied_mailbox_gauges() {
        let s = StatsCell::new();
        assert_eq!(s.snapshot(9).max_queue_depth, 9);
        assert_eq!(s.snapshot(0).max_queue_depth, 0);
    }

    #[test]
    fn merged_takes_max_of_the_depth_high_water() {
        let a = CommStats { max_queue_depth: 5, ..CommStats::default() };
        let b = CommStats { max_queue_depth: 3, ..CommStats::default() };
        assert_eq!(a.merged(b).max_queue_depth, 5, "high-water mark merges by max");
        assert_eq!(b.merged(a).max_queue_depth, 5);
    }
}
