//! Per-rank communication traffic statistics.
//!
//! The paper reports that inter-process communication costs about 10 % of
//! the run time and that the overset (Yin↔Yang) traffic is distinct from
//! the intra-panel halo traffic. The solver tags each message with a
//! [`TrafficClass`] so the Earth Simulator model can convert class-resolved
//! byte counts into projected communication time.

use std::sync::atomic::{AtomicU64, Ordering};
use yy_obs::hist::{Histogram, HistogramSnapshot};

/// What kind of traffic a message carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrafficClass {
    /// Nearest-neighbour halo exchange inside a panel (θ/φ neighbours).
    Halo,
    /// Yin↔Yang overset interpolation data between the two panels.
    Overset,
    /// Reductions and other collective plumbing.
    Collective,
    /// Setup/control messages (routing tables, split negotiation).
    Control,
}

/// One phase of the solver's overlapped step pipeline, for the per-phase
/// wall-clock breakdown the drivers surface in their run reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolverPhase {
    /// Packing/unpacking halo bands and posting sends.
    Pack,
    /// Deep-interior stencil work executed while messages are in flight.
    Interior,
    /// Blocked in receives (the *unhidden* communication cost).
    Wait,
    /// Boundary-shell stencil work and wall conditions after the drain.
    Boundary,
    /// Overset interpolation, packing and placement.
    Overset,
    /// Blocked handing a packed output buffer to the async writer (the
    /// backpressure cost of checkpoint/snapshot emission; zero when the
    /// two-slot pool always has a free buffer).
    WriterWait,
}

/// Lock-free counters for one rank.
///
/// Shared (`Arc`) between all the communicators a rank holds, so a single
/// snapshot covers world + panel + cart traffic.
#[derive(Debug, Default)]
pub struct StatsCell {
    msgs_sent: AtomicU64,
    bytes_halo: AtomicU64,
    bytes_overset: AtomicU64,
    bytes_collective: AtomicU64,
    bytes_control: AtomicU64,
    msgs_recv: AtomicU64,
    bytes_recv: AtomicU64,
    recv_retries: AtomicU64,
    ns_pack: AtomicU64,
    ns_interior: AtomicU64,
    ns_wait: AtomicU64,
    ns_boundary: AtomicU64,
    ns_overset: AtomicU64,
    ns_writer_wait: AtomicU64,
    recv_wait: Histogram,
    step_wall: Histogram,
    queue_depth: Histogram,
}

impl StatsCell {
    /// Zeroed counters.
    pub fn new() -> Self {
        StatsCell::default()
    }

    /// Count one outgoing message of `bytes` under `class`.
    pub fn record_send(&self, class: TrafficClass, bytes: usize) {
        self.msgs_sent.fetch_add(1, Ordering::Relaxed);
        let target = match class {
            TrafficClass::Halo => &self.bytes_halo,
            TrafficClass::Overset => &self.bytes_overset,
            TrafficClass::Collective => &self.bytes_collective,
            TrafficClass::Control => &self.bytes_control,
        };
        target.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// Count one received message of `bytes`.
    pub fn record_recv(&self, bytes: usize) {
        self.msgs_recv.fetch_add(1, Ordering::Relaxed);
        self.bytes_recv.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// Count `n` empty retry slices spent inside one bounded receive.
    pub fn record_retries(&self, n: u64) {
        if n > 0 {
            self.recv_retries.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Charge `ns` nanoseconds of wall-clock time to a solver phase.
    pub fn record_phase_ns(&self, phase: SolverPhase, ns: u64) {
        let target = match phase {
            SolverPhase::Pack => &self.ns_pack,
            SolverPhase::Interior => &self.ns_interior,
            SolverPhase::Wait => &self.ns_wait,
            SolverPhase::Boundary => &self.ns_boundary,
            SolverPhase::Overset => &self.ns_overset,
            SolverPhase::WriterWait => &self.ns_writer_wait,
        };
        target.fetch_add(ns, Ordering::Relaxed);
    }

    /// Record the wall-clock nanoseconds one receive spent blocked
    /// before its message matched (the tail of this distribution is what
    /// the overlapped pipeline cannot hide).
    pub fn record_wait_ns(&self, ns: u64) {
        self.recv_wait.record(ns);
    }

    /// Record the wall-clock nanoseconds of one full solver step.
    pub fn record_step_ns(&self, ns: u64) {
        self.step_wall.record(ns);
    }

    /// Record a sampled mailbox queue depth.
    pub fn record_queue_depth(&self, depth: u64) {
        self.queue_depth.record(depth);
    }

    /// An immutable copy of the current counters.
    ///
    /// The cell itself cannot see the rank's mailbox, so the caller
    /// supplies the mailbox-owned gauges. [`crate::Comm::stats`] is the
    /// one place that does this with live values — take snapshots
    /// through it; calling this directly (tests, partial views) with
    /// [`MailboxGauges::default`] yields zeros for those two fields.
    pub fn snapshot(&self, mailbox: MailboxGauges) -> CommStats {
        CommStats {
            msgs_sent: self.msgs_sent.load(Ordering::Relaxed),
            bytes_halo: self.bytes_halo.load(Ordering::Relaxed),
            bytes_overset: self.bytes_overset.load(Ordering::Relaxed),
            bytes_collective: self.bytes_collective.load(Ordering::Relaxed),
            bytes_control: self.bytes_control.load(Ordering::Relaxed),
            msgs_recv: self.msgs_recv.load(Ordering::Relaxed),
            bytes_recv: self.bytes_recv.load(Ordering::Relaxed),
            recv_retries: self.recv_retries.load(Ordering::Relaxed),
            max_queue_depth: mailbox.max_queue_depth,
            dups_discarded: mailbox.dups_discarded,
            ns_pack: self.ns_pack.load(Ordering::Relaxed),
            ns_interior: self.ns_interior.load(Ordering::Relaxed),
            ns_wait: self.ns_wait.load(Ordering::Relaxed),
            ns_boundary: self.ns_boundary.load(Ordering::Relaxed),
            ns_overset: self.ns_overset.load(Ordering::Relaxed),
            ns_writer_wait: self.ns_writer_wait.load(Ordering::Relaxed),
            recv_wait: self.recv_wait.snapshot(),
            step_wall: self.step_wall.snapshot(),
            queue_depth: self.queue_depth.snapshot(),
        }
    }
}

/// The two counters that live in the rank's [`crate::mailbox::Mailbox`]
/// rather than in its [`StatsCell`]: queue-depth high-water and
/// duplicate discards. [`crate::Comm::stats`] reads them from the live
/// mailbox and passes them in — the single path by which they enter a
/// [`CommStats`] snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MailboxGauges {
    /// High-water mark of the mailbox queue depth.
    pub max_queue_depth: u64,
    /// Duplicate deliveries discarded by the sequence check.
    pub dups_discarded: u64,
}

/// An immutable snapshot of one rank's traffic counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommStats {
    /// Messages sent (all classes).
    pub msgs_sent: u64,
    /// Bytes sent as intra-panel halo exchange.
    pub bytes_halo: u64,
    /// Bytes sent as Yin↔Yang overset data.
    pub bytes_overset: u64,
    /// Bytes sent by collective plumbing.
    pub bytes_collective: u64,
    /// Bytes sent as setup/control traffic.
    pub bytes_control: u64,
    /// Messages received.
    pub msgs_recv: u64,
    /// Bytes received.
    pub bytes_recv: u64,
    /// Empty retry slices spent in bounded receives (0 on the fault-free
    /// fast path).
    pub recv_retries: u64,
    /// High-water mark of this rank's mailbox queue depth (filled in by
    /// [`crate::Comm::stats`]; soak tests assert it stays bounded under
    /// delay injection).
    pub max_queue_depth: u64,
    /// Duplicate deliveries discarded by the sequence check.
    pub dups_discarded: u64,
    /// Wall-clock nanoseconds spent packing halo bands and posting sends.
    pub ns_pack: u64,
    /// Nanoseconds of deep-interior compute overlapped with in-flight
    /// messages.
    pub ns_interior: u64,
    /// Nanoseconds blocked in receives — the unhidden communication cost.
    pub ns_wait: u64,
    /// Nanoseconds of boundary-shell compute + wall conditions.
    pub ns_boundary: u64,
    /// Nanoseconds of overset interpolation/packing/placement.
    pub ns_overset: u64,
    /// Nanoseconds blocked on the async output writer's buffer pool —
    /// the unhidden cost of checkpoint/snapshot emission.
    pub ns_writer_wait: u64,
    /// Distribution of per-receive blocked time (nanoseconds).
    pub recv_wait: HistogramSnapshot,
    /// Distribution of per-step wall time (nanoseconds).
    pub step_wall: HistogramSnapshot,
    /// Distribution of sampled mailbox queue depths.
    pub queue_depth: HistogramSnapshot,
}

impl CommStats {
    /// Element-wise sum (for aggregating across ranks).
    pub fn merged(self, other: CommStats) -> CommStats {
        CommStats {
            msgs_sent: self.msgs_sent + other.msgs_sent,
            bytes_halo: self.bytes_halo + other.bytes_halo,
            bytes_overset: self.bytes_overset + other.bytes_overset,
            bytes_collective: self.bytes_collective + other.bytes_collective,
            bytes_control: self.bytes_control + other.bytes_control,
            msgs_recv: self.msgs_recv + other.msgs_recv,
            bytes_recv: self.bytes_recv + other.bytes_recv,
            recv_retries: self.recv_retries + other.recv_retries,
            // A high-water mark aggregates by max, not sum: the merged
            // value answers "how deep did any one queue get".
            max_queue_depth: self.max_queue_depth.max(other.max_queue_depth),
            dups_discarded: self.dups_discarded + other.dups_discarded,
            ns_pack: self.ns_pack + other.ns_pack,
            ns_interior: self.ns_interior + other.ns_interior,
            ns_wait: self.ns_wait + other.ns_wait,
            ns_boundary: self.ns_boundary + other.ns_boundary,
            ns_overset: self.ns_overset + other.ns_overset,
            ns_writer_wait: self.ns_writer_wait + other.ns_writer_wait,
            recv_wait: self.recv_wait.merged(other.recv_wait),
            step_wall: self.step_wall.merged(other.step_wall),
            queue_depth: self.queue_depth.merged(other.queue_depth),
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
        s.record_recv(25);
        let snap = s.snapshot(MailboxGauges::default());
        assert_eq!(snap.msgs_sent, 4);
        assert_eq!(snap.bytes_halo, 100);
        assert_eq!(snap.bytes_overset, 50);
        assert_eq!(snap.msgs_recv, 1);
        assert_eq!(snap.bytes_recv, 25);
    }

    #[test]
    fn merged_adds_everything() {
        let mut a = CommStats::default();
        a.msgs_sent = 2;
        a.bytes_halo = 10;
        let mut b = CommStats::default();
        b.msgs_sent = 3;
        b.bytes_overset = 7;
        let m = a.merged(b);
        assert_eq!(m.msgs_sent, 5);
        assert_eq!(m.bytes_halo, 10);
        assert_eq!(m.bytes_overset, 7);
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
        let snap = s.snapshot(MailboxGauges::default());
        assert_eq!(snap.ns_pack, 5);
        assert_eq!(snap.ns_interior, 100);
        assert_eq!(snap.ns_wait, 10);
        assert_eq!(snap.ns_boundary, 30);
        assert_eq!(snap.ns_overset, 11);
        assert_eq!(snap.ns_writer_wait, 17);
        let m = snap.merged(snap);
        assert_eq!(m.ns_wait, 20, "phase times aggregate by sum across ranks");
        assert_eq!(m.ns_interior, 200);
        assert_eq!(m.ns_writer_wait, 34);
    }

    #[test]
    fn snapshot_carries_the_supplied_mailbox_gauges() {
        let s = StatsCell::new();
        let snap = s.snapshot(MailboxGauges { max_queue_depth: 9, dups_discarded: 2 });
        assert_eq!(snap.max_queue_depth, 9);
        assert_eq!(snap.dups_discarded, 2);
        let zeroed = s.snapshot(MailboxGauges::default());
        assert_eq!(zeroed.max_queue_depth, 0);
        assert_eq!(zeroed.dups_discarded, 0);
    }

    #[test]
    fn latency_histograms_snapshot_and_merge() {
        let s = StatsCell::new();
        s.record_wait_ns(1_000);
        s.record_wait_ns(64_000);
        s.record_step_ns(2_000_000);
        s.record_queue_depth(3);
        let snap = s.snapshot(MailboxGauges::default());
        assert_eq!(snap.recv_wait.count, 2);
        assert_eq!(snap.recv_wait.max, 64_000);
        assert_eq!(snap.step_wall.count, 1);
        assert_eq!(snap.queue_depth.count, 1);
        let m = snap.merged(snap);
        assert_eq!(m.recv_wait.count, 4, "histograms aggregate by merge across ranks");
        assert_eq!(m.recv_wait.max, 64_000);
        assert_eq!(m.step_wall.sum, 4_000_000);
    }

    #[test]
    fn merged_takes_max_of_the_depth_high_water() {
        let mut a = CommStats::default();
        a.max_queue_depth = 5;
        a.recv_retries = 2;
        let mut b = CommStats::default();
        b.max_queue_depth = 3;
        b.recv_retries = 1;
        b.dups_discarded = 4;
        let m = a.merged(b);
        assert_eq!(m.max_queue_depth, 5, "high-water mark merges by max");
        assert_eq!(m.recv_retries, 3);
        assert_eq!(m.dups_discarded, 4);
    }
}
