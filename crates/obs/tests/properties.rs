//! Property suites for the observability primitives, run under the
//! in-repo deterministic harness (`yy-testkit`).
//!
//! The histogram merge must form a commutative monoid for the allreduce
//! reduction to be order-independent: ranks merge pairwise in whatever
//! association the reduction tree picks, and the run report must not
//! depend on it. The f64 round-trip must be exact because the drivers
//! ship histogram words over an f64 allreduce. The flight-recorder ring
//! must keep the *newest* events when it wraps — a post-mortem wants the
//! moments before the failure, not the start of the run.

use std::time::Instant;
use yy_obs::hist::{Histogram, HistogramSnapshot};
use yy_obs::ring::FlightRecorder;
use yy_obs::Event;
use yy_testkit::{check, tk_assert};

fn hist_of(values: &[u64]) -> HistogramSnapshot {
    let h = Histogram::new();
    for &v in values {
        h.record(v);
    }
    h.snapshot()
}

#[test]
fn merge_is_commutative() {
    check(
        "hist_merge_commutative",
        |g| (g.vec_u64(1 << 40, 0, 64), g.vec_u64(1 << 40, 0, 64)),
        |(a, b)| {
            let (ha, hb) = (hist_of(a), hist_of(b));
            tk_assert!(ha.merged(hb) == hb.merged(ha), "a {a:?} b {b:?}");
            Ok(())
        },
    );
}

#[test]
fn merge_is_associative() {
    check(
        "hist_merge_associative",
        |g| (g.vec_u64(1 << 40, 0, 48), g.vec_u64(1 << 40, 0, 48), g.vec_u64(1 << 40, 0, 48)),
        |(a, b, c)| {
            let (ha, hb, hc) = (hist_of(a), hist_of(b), hist_of(c));
            tk_assert!(
                ha.merged(hb).merged(hc) == ha.merged(hb.merged(hc)),
                "a {a:?} b {b:?} c {c:?}"
            );
            Ok(())
        },
    );
}

#[test]
fn merge_equals_recording_the_concatenation() {
    check(
        "hist_merge_is_concat",
        |g| (g.vec_u64(1 << 40, 0, 64), g.vec_u64(1 << 40, 0, 64)),
        |(a, b)| {
            let both: Vec<u64> = a.iter().chain(b.iter()).copied().collect();
            tk_assert!(hist_of(a).merged(hist_of(b)) == hist_of(&both), "a {a:?} b {b:?}");
            Ok(())
        },
    );
}

#[test]
fn f64_word_round_trip_is_exact() {
    // The allreduce path ships bucket counts and the sum as f64; both
    // stay far below 2^53 in practice (ns durations, bounded rings), so
    // the round trip must be lossless bit-for-bit in that regime.
    check(
        "hist_f64_round_trip",
        |g| g.vec_u64(1 << 44, 0, 128),
        |values| {
            let h = hist_of(values);
            let rt = HistogramSnapshot::from_f64s(&h.to_f64s(), h.max);
            tk_assert!(rt == h, "{values:?}");
            Ok(())
        },
    );
}

#[test]
fn quantiles_are_ordered_and_bounded_by_buckets() {
    check(
        "hist_quantile_order",
        |g| g.vec_u64(1 << 50, 1, 96),
        |values| {
            let h = hist_of(values);
            let (p50, p90, p99) = (h.p50(), h.p90(), h.p99());
            tk_assert!(p50 <= p90 && p90 <= p99, "p50 {p50} p90 {p90} p99 {p99}");
            // Log₂ buckets over-estimate by at most 2x; the reported
            // quantile never exceeds twice the true maximum.
            let max = *values.iter().max().unwrap();
            tk_assert!(p99 <= max.saturating_mul(2).max(1), "p99 {p99} max {max}");
            Ok(())
        },
    );
}

#[test]
fn ring_wrap_keeps_the_newest_events() {
    check(
        "ring_keeps_newest",
        |g| (g.range_usize(1, 64), g.below(256) + 1),
        |&(capacity, total)| {
            let rec = FlightRecorder::new(capacity, Instant::now());
            for step in 0..total {
                rec.record_at(step, Event::StepBegin { step });
            }
            let snap = rec.snapshot();
            let kept = (total as usize).min(capacity);
            tk_assert!(snap.len() == kept, "kept {} of {total} (cap {capacity})", snap.len());
            // Oldest-to-newest, ending at the last event recorded.
            let first = total - kept as u64;
            for (i, ev) in snap.iter().enumerate() {
                let want = first + i as u64;
                tk_assert!(
                    ev.event == Event::StepBegin { step: want },
                    "slot {i}: {:?}, want step {want}",
                    ev.event
                );
            }
            tk_assert!(rec.recorded() == total, "recorded() {}", rec.recorded());
            Ok(())
        },
    );
}

