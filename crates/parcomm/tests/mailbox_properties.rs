//! Property tests of the mailbox transport on the `yy-testkit` harness:
//! for arbitrary delivery interleavings, matching must be exact per
//! `(context, src, tag)` key, stream-ordered within a key, and lossless
//! overall — including when a stream's envelopes arrive out of order or
//! duplicated, which the per-stream sequence cursors must repair.

use std::sync::atomic::AtomicBool;
use std::time::{Duration, Instant};
use yy_parcomm::mailbox::{Envelope, Mailbox};
use yy_testkit::{check_with, tk_assert, tk_assert_eq, Config, Gen};

/// A random traffic pattern: (src, context, tag, seq, value) tuples with
/// per-stream ascending sequence numbers, as the comm layer stamps them.
fn traffic(g: &mut Gen) -> Vec<(usize, u64, u64, u64, f64)> {
    let n = g.size(1, 40);
    let mut next_seq = std::collections::HashMap::new();
    (0..n)
        .map(|i| {
            let (src, ctx, tag) = (g.range_usize(0, 3), g.below(2), g.below(3));
            let seq = next_seq.entry((src, ctx, tag)).or_insert(0_u64);
            let s = *seq;
            *seq += 1;
            (src, ctx, tag, s, i as f64)
        })
        .collect()
}

/// The death flag of a sender that never dies.
static LIVE: AtomicBool = AtomicBool::new(false);

/// A deadline `ms` milliseconds from now.
fn within(ms: u64) -> Instant {
    Instant::now() + Duration::from_millis(ms)
}

fn deliver_all(mb: &Mailbox, msgs: &[(usize, u64, u64, u64, f64)]) {
    for &(src, ctx, tag, seq, val) in msgs {
        let env = Envelope { src_world: src, context: ctx, tag, seq, data: vec![val] };
        mb.deliver(env, None);
    }
}

fn value(e: Envelope) -> f64 {
    e.data[0]
}

#[test]
fn any_traffic_pattern_drains_fifo_per_key() {
    check_with(
        Config::with_cases(32),
        "any_traffic_pattern_drains_fifo_per_key",
        traffic,
        |msgs| {
            let mb = Mailbox::new();
            deliver_all(&mb, msgs);
            tk_assert_eq!(mb.pending(), msgs.len());
            // Drain key by key; within a key values must come back in
            // delivery order.
            for src in 0..3 {
                for ctx in 0..2_u64 {
                    for tag in 0..3_u64 {
                        let expect: Vec<f64> = msgs
                            .iter()
                            .filter(|&&(s, c, t, _, _)| s == src && c == ctx && t == tag)
                            .map(|&(_, _, _, _, v)| v)
                            .collect();
                        for (n, &want) in expect.iter().enumerate() {
                            let got = mb
                                .recv(ctx, src, tag, Some(within(100)), &LIVE)
                                .ok()
                                .map(value);
                            tk_assert!(
                                got == Some(want),
                                "key ({ctx},{src},{tag}) message {n}: got {got:?}, want {want}"
                            );
                        }
                    }
                }
            }
            tk_assert_eq!(mb.pending(), 0);
            Ok(())
        },
    );
}

#[test]
fn unmatched_receives_leave_the_queue_intact() {
    check_with(
        Config::with_cases(16),
        "unmatched_receives_leave_the_queue_intact",
        traffic,
        |msgs| {
            let mb = Mailbox::new();
            deliver_all(&mb, msgs);
            // A key no generator produces: context 99.
            let got = mb.recv(99, 0, 0, Some(within(1)), &LIVE).ok();
            tk_assert!(got.is_none());
            tk_assert_eq!(mb.pending(), msgs.len());
            Ok(())
        },
    );
}

/// Shuffle each stream's arrival order and duplicate a random subset:
/// the receiver must still observe every stream in sequence order,
/// exactly once.
#[test]
fn shuffled_and_duplicated_arrivals_drain_in_stream_order() {
    check_with(
        Config::with_cases(32),
        "shuffled_and_duplicated_arrivals_drain_in_stream_order",
        |g| {
            let msgs = traffic(g);
            // A permutation of delivery order via random sort keys.
            let mut order: Vec<(u64, usize)> =
                (0..msgs.len()).map(|i| (g.below(1 << 32), i)).collect();
            order.sort_unstable();
            let dup_mask: Vec<bool> = (0..msgs.len()).map(|_| g.bool()).collect();
            (msgs, order.into_iter().map(|(_, i)| i).collect::<Vec<_>>(), dup_mask)
        },
        |(msgs, order, dup_mask)| {
            let mb = Mailbox::new();
            let mut dups = 0_u64;
            for &i in order {
                let (src, ctx, tag, seq, val) = msgs[i];
                let make = || Envelope {
                    src_world: src,
                    context: ctx,
                    tag,
                    seq,
                    data: vec![val],
                };
                mb.deliver(make(), None);
                if dup_mask[i] {
                    mb.deliver(make(), None);
                    dups += 1;
                }
            }
            tk_assert_eq!(mb.pending(), msgs.len());
            tk_assert_eq!(mb.dups_discarded(), dups);
            for src in 0..3 {
                for ctx in 0..2_u64 {
                    for tag in 0..3_u64 {
                        let expect: Vec<f64> = msgs
                            .iter()
                            .filter(|&&(s, c, t, _, _)| s == src && c == ctx && t == tag)
                            .map(|&(_, _, _, _, v)| v)
                            .collect();
                        for (n, &want) in expect.iter().enumerate() {
                            let got = mb
                                .recv(ctx, src, tag, Some(within(100)), &LIVE)
                                .ok()
                                .map(value);
                            tk_assert!(
                                got == Some(want),
                                "key ({ctx},{src},{tag}) message {n}: got {got:?}, want {want}"
                            );
                        }
                    }
                }
            }
            tk_assert_eq!(mb.pending(), 0);
            Ok(())
        },
    );
}
