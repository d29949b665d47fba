//! The per-rank flight recorder: a fixed-capacity, lock-free ring of
//! timestamped events.
//!
//! ## Design
//!
//! Each rank is a single OS thread, so the ring has exactly one writer;
//! readers (the supervisor building a post-mortem trace) only look after
//! that thread has been joined. That lets every operation use relaxed
//! atomics — the thread-join provides the happens-before edge — while
//! staying 100 % safe Rust: a slot is four `AtomicU64` words
//! (`[ts, w0, a, b]`, see [`crate::event`]), the head index is a
//! monotonically increasing `AtomicU64`, and a wrapped ring simply
//! overwrites its oldest slots. The *newest* events are therefore never
//! lost — exactly what a post-mortem wants: the last `capacity` things a
//! rank did before dying.
//!
//! ## Cost model
//!
//! `record` is one `Instant::elapsed`, one relaxed `fetch_add` and four
//! relaxed stores. A recorder that exists records: the comm layer holds
//! it as `Option<Arc<FlightRecorder>>`, so a run that never creates one
//! pays only the `None` branch per event site.

use crate::event::{Event, TimedEvent};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

const WORDS: usize = 4;

/// Default ring capacity (events per rank) when the caller does not
/// choose one: deep enough to hold several steps of a 2-D-decomposed
/// panel's traffic, small enough (~256 KiB/rank) to always leave on.
pub const DEFAULT_CAPACITY: usize = 8192;

/// A single-writer ring buffer of timestamped [`Event`]s.
pub struct FlightRecorder {
    /// Total events ever recorded; slot index is `head % capacity`.
    head: AtomicU64,
    /// `capacity × WORDS` atomic words.
    slots: Box<[AtomicU64]>,
    origin: Instant,
}

impl FlightRecorder {
    /// A recorder with `capacity` event slots, timestamping
    /// relative to `origin` (share one origin across ranks so their
    /// tracks align).
    pub fn new(capacity: usize, origin: Instant) -> Self {
        assert!(capacity >= 1, "flight recorder needs at least one slot");
        FlightRecorder {
            head: AtomicU64::new(0),
            slots: (0..capacity * WORDS).map(|_| AtomicU64::new(0)).collect(),
            origin,
        }
    }

    /// Number of event slots.
    pub fn capacity(&self) -> usize {
        self.slots.len() / WORDS
    }

    /// Total events recorded over the recorder's lifetime (may exceed
    /// the capacity; the ring keeps the newest `capacity` of them).
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
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
        let n = self.head.fetch_add(1, Ordering::Relaxed);
        let cap = self.capacity() as u64;
        let base = (n % cap) as usize * WORDS;
        let [w0, a, b] = event.encode();
        self.slots[base].store(ts_ns, Ordering::Relaxed);
        self.slots[base + 1].store(w0, Ordering::Relaxed);
        self.slots[base + 2].store(a, Ordering::Relaxed);
        self.slots[base + 3].store(b, Ordering::Relaxed);
    }

    /// The ring contents, oldest → newest. Meant to be called when the
    /// writing thread is quiescent (joined); a concurrent snapshot is
    /// memory-safe but may contain a torn slot, which decodes to `None`
    /// and is skipped.
    pub fn snapshot(&self) -> Vec<TimedEvent> {
        let head = self.head.load(Ordering::Relaxed);
        let cap = self.capacity() as u64;
        let len = head.min(cap);
        let first = head - len; // index of the oldest surviving event
        let mut out = Vec::with_capacity(len as usize);
        for n in first..head {
            let base = (n % cap) as usize * WORDS;
            let ts_ns = self.slots[base].load(Ordering::Relaxed);
            let words = [
                self.slots[base + 1].load(Ordering::Relaxed),
                self.slots[base + 2].load(Ordering::Relaxed),
                self.slots[base + 3].load(Ordering::Relaxed),
            ];
            if let Some(event) = Event::decode(words) {
                out.push(TimedEvent { ts_ns, event });
            }
        }
        out
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
