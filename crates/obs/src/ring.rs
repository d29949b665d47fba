//! The crate's one ring buffer, and the per-rank flight recorder built
//! on it.
//!
//! A [`Ring`] keeps the newest `capacity` values pushed — a post-mortem
//! wants the last things a rank did before dying — and counts every
//! push. A [`FlightRecorder`] is a `Mutex` over a `Ring<TimedEvent>`
//! written by its rank thread; the supervisor's snapshots (trace and
//! post-mortem dumps) and `record_all` between passes mostly run after
//! that thread is joined, and a snapshot taken while it records is
//! still a consistent in-order run. `record` costs one
//! `Instant::elapsed`, one uncontended lock and one event copy; a run
//! without a recorder pays one `None` branch per event site (the comm
//! layer holds an `Option<Arc<FlightRecorder>>`).

use crate::event::{Event, TimedEvent};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Default ring capacity (events per rank) when the caller does not
/// choose one: deep enough to hold several steps of a 2-D-decomposed
/// panel's traffic, small enough (~256 KiB/rank) to always leave on.
pub const DEFAULT_CAPACITY: usize = 8192;

/// A `VecDeque` allocated once that keeps the newest `capacity` values
/// pushed, oldest first, and counts every push.
#[derive(Debug, Clone)]
pub(crate) struct Ring<T> {
    values: VecDeque<T>,
    capacity: usize,
    pushed: u64,
}

impl<T> Ring<T> {
    pub(crate) fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "a ring needs at least one slot");
        Ring { values: VecDeque::with_capacity(capacity), capacity, pushed: 0 }
    }

    pub(crate) fn push(&mut self, value: T) {
        if self.values.len() == self.capacity {
            self.values.pop_front();
        }
        self.values.push_back(value);
        self.pushed += 1;
    }

    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Values ever pushed; the oldest held one is push number
    /// `pushed - len` (0-based).
    pub(crate) fn pushed(&self) -> u64 {
        self.pushed
    }

    /// The held values, oldest → newest.
    pub(crate) fn iter(&self) -> std::collections::vec_deque::Iter<'_, T> {
        self.values.iter()
    }
}

/// A per-rank ring of timestamped [`Event`]s.
pub struct FlightRecorder {
    ring: Mutex<Ring<TimedEvent>>,
    origin: Instant,
}

impl FlightRecorder {
    /// A recorder with `capacity` event slots, timestamping
    /// relative to `origin` (share one origin across ranks so their
    /// tracks align).
    pub fn new(capacity: usize, origin: Instant) -> Self {
        FlightRecorder { ring: Mutex::new(Ring::new(capacity)), origin }
    }

    /// The ring; a push never panics, so even a poisoned lock guards a
    /// whole ring.
    fn ring(&self) -> MutexGuard<'_, Ring<TimedEvent>> {
        self.ring.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Number of event slots.
    pub fn capacity(&self) -> usize {
        self.ring().capacity()
    }

    /// Total events recorded over the recorder's lifetime (may exceed
    /// the capacity; the ring keeps the newest `capacity` of them).
    pub fn recorded(&self) -> u64 {
        self.ring().pushed()
    }

    /// Nanoseconds since the recorder's origin.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Record `event` stamped "now".
    #[inline]
    pub fn record(&self, event: Event) {
        self.record_at(self.now_ns(), event);
    }

    /// Record `event` with an explicit timestamp (nanoseconds since the
    /// origin); used by span sites that measured their own start time.
    pub fn record_at(&self, ts_ns: u64, event: Event) {
        self.ring().push(TimedEvent { ts_ns, event });
    }

    /// The ring contents, oldest → newest: the newest `capacity` events
    /// recorded before the call.
    pub fn snapshot(&self) -> Vec<TimedEvent> {
        self.ring().iter().copied().collect()
    }
}

/// One flight recorder per rank, sharing a single timestamp origin so
/// the per-rank tracks line up on one timeline. The supervisor creates
/// the set, hands each rank its recorder through the comm layer, and
/// keeps its own `Arc` so the rings outlive a torn-down universe — that
/// is what makes post-mortem traces possible.
pub struct RecorderSet {
    recorders: Vec<Arc<FlightRecorder>>,
}

impl RecorderSet {
    /// `nranks` recorders of `capacity` slots each (0 ⇒
    /// [`DEFAULT_CAPACITY`]).
    pub fn new(nranks: usize, capacity: usize) -> Self {
        let capacity = if capacity == 0 { DEFAULT_CAPACITY } else { capacity };
        let origin = Instant::now();
        let recorders =
            (0..nranks).map(|_| Arc::new(FlightRecorder::new(capacity, origin))).collect();
        RecorderSet { recorders }
    }

    /// Number of ranks covered.
    pub fn len(&self) -> usize {
        self.recorders.len()
    }

    /// Whether the set covers zero ranks.
    pub fn is_empty(&self) -> bool {
        self.recorders.is_empty()
    }

    /// Rank `r`'s recorder.
    pub fn rank(&self, r: usize) -> Arc<FlightRecorder> {
        Arc::clone(&self.recorders[r])
    }

    /// Record `event` into every rank's ring (supervisor-side events
    /// such as a rollback, recorded between universe incarnations when
    /// no rank thread is alive).
    pub fn record_all(&self, event: Event) {
        for r in &self.recorders {
            r.record(event);
        }
    }

    /// Snapshot every ring, rank order.
    pub fn snapshots(&self) -> Vec<Vec<TimedEvent>> {
        self.recorders.iter().map(|r| r.snapshot()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(step: u64) -> Event {
        Event::StepBegin { step }
    }

    #[test]
    fn records_in_order_until_capacity() {
        let r = FlightRecorder::new(8, Instant::now());
        for s in 0..5 {
            r.record(ev(s));
        }
        let snap = r.snapshot();
        assert_eq!(snap.len(), 5);
        for (i, te) in snap.iter().enumerate() {
            assert_eq!(te.event, ev(i as u64));
        }
        // Timestamps are monotone non-decreasing in record order.
        for w in snap.windows(2) {
            assert!(w[0].ts_ns <= w[1].ts_ns);
        }
    }

    #[test]
    fn wrap_keeps_the_newest_events() {
        let r = FlightRecorder::new(4, Instant::now());
        for s in 0..11 {
            r.record(ev(s));
        }
        assert_eq!(r.recorded(), 11);
        let snap = r.snapshot();
        assert_eq!(snap.len(), 4, "ring holds exactly its capacity");
        let steps: Vec<u64> = snap
            .iter()
            .map(|te| match te.event {
                Event::StepBegin { step } => step,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(steps, vec![7, 8, 9, 10], "the newest events survive a wrap");
    }

    #[test]
    fn explicit_timestamps_are_kept() {
        let r = FlightRecorder::new(4, Instant::now());
        r.record_at(42, ev(0));
        let snap = r.snapshot();
        assert_eq!(snap[0].ts_ns, 42);
    }

    #[test]
    fn recorder_set_shares_one_timeline() {
        let set = RecorderSet::new(3, 16);
        assert_eq!(set.len(), 3);
        set.rank(0).record(ev(1));
        set.rank(2).record(ev(2));
        set.record_all(Event::Rollback { pass: 1, resume_step: 4 });
        let snaps = set.snapshots();
        assert_eq!(snaps[0].len(), 2);
        assert_eq!(snaps[1].len(), 1);
        assert_eq!(snaps[2].len(), 2);
        assert_eq!(snaps[1][0].event, Event::Rollback { pass: 1, resume_step: 4 });
    }

    #[test]
    fn zero_capacity_requests_get_the_default() {
        let set = RecorderSet::new(1, 0);
        assert_eq!(set.rank(0).capacity(), DEFAULT_CAPACITY);
    }
}
