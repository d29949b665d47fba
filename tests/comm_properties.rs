//! Property-based tests of the message-passing substrate, on the in-repo
//! deterministic harness (`yy-testkit`): the ordering and matching
//! semantics the solver relies on must hold for arbitrary traffic
//! patterns.

use yy_parcomm::stats::TrafficClass;
use yy_parcomm::{CartComm, ReduceOp, Universe};
use yy_testkit::{check_with, tk_assert, tk_assert_eq, Config};

/// FIFO per (source, tag): any interleaving of tagged sends from one
/// rank is received in order per tag.
#[test]
fn fifo_per_tag_under_arbitrary_interleavings() {
    check_with(
        Config::with_cases(16),
        "fifo_per_tag_under_arbitrary_interleavings",
        |g| g.vec_u64(3, 1, 23),
        |seq| {
            let seq2 = seq.clone();
            let out = Universe::run(2, move |comm| {
                if comm.rank() == 0 {
                    // Send the sequence: message i goes out on tag seq[i]
                    // carrying its global index.
                    for (i, &tag) in seq2.iter().enumerate() {
                        comm.send_f64s(1, tag, vec![i as f64], TrafficClass::Control);
                    }
                    Vec::new()
                } else {
                    // Receive per tag: indices within each tag must ascend.
                    let mut got: Vec<(u64, f64)> = Vec::new();
                    for tag in 0..3_u64 {
                        let count = seq2.iter().filter(|&&t| t == tag).count();
                        for _ in 0..count {
                            let v = comm.recv_f64s(0, tag)[0];
                            got.push((tag, v));
                        }
                    }
                    got
                }
            });
            let got = &out[1];
            for tag in 0..3_u64 {
                let indices: Vec<f64> =
                    got.iter().filter(|(t, _)| *t == tag).map(|(_, v)| *v).collect();
                let mut sorted = indices.clone();
                sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
                tk_assert!(indices == sorted, "tag {tag} out of order: {indices:?}");
            }
            Ok(())
        },
    );
}

/// Allreduce results are identical on every rank and equal to the
/// sequential reduction, for any operand set and universe size.
#[test]
fn allreduce_agrees_with_sequential_reduction() {
    check_with(
        Config::with_cases(16),
        "allreduce_agrees_with_sequential_reduction",
        |g| g.vec_f64(-1e6, 1e6, 2, 6),
        |values| {
            let n = values.len();
            let vals = values.clone();
            let out = Universe::run(n, move |comm| {
                let x = vals[comm.rank()];
                (
                    comm.allreduce_f64(x, ReduceOp::Sum),
                    comm.allreduce_f64(x, ReduceOp::Min),
                    comm.allreduce_f64(x, ReduceOp::Max),
                )
            });
            let mut expect_sum = values[0];
            for &v in &values[1..] {
                expect_sum += v;
            }
            let expect_min = values.iter().cloned().fold(f64::INFINITY, f64::min);
            let expect_max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            for &(s, lo, hi) in &out {
                tk_assert_eq!(s, expect_sum); // fixed-order reduction: bitwise
                tk_assert_eq!(lo, expect_min);
                tk_assert_eq!(hi, expect_max);
            }
            Ok(())
        },
    );
}

/// Cartesian shifts invert: my +1 neighbour's −1 neighbour is me,
/// for arbitrary grid shapes and periodicities.
#[test]
fn cart_shift_is_invertible() {
    check_with(
        Config::with_cases(16),
        "cart_shift_is_invertible",
        |g| (g.range_usize(1, 4), g.range_usize(1, 4), g.bool(), g.bool()),
        |&(pth, pph, per0, per1)| {
            let n = pth * pph;
            let ok = Universe::run(n, move |comm| {
                let me = comm.rank();
                let cart = CartComm::new(comm, [pth, pph], [per0, per1]);
                for dim in 0..2 {
                    let (_, dst) = cart.shift(dim, 1);
                    if let Some(d) = dst {
                        // The destination's source along the same shift is me.
                        let dc = cart.coords_of(d);
                        let back = {
                            // Recompute from coordinates (pure arithmetic).
                            let extent = cart.dims()[dim] as isize;
                            let raw = dc[dim] as isize - 1;
                            let periodic = [per0, per1][dim];
                            let coord = if periodic {
                                raw.rem_euclid(extent) as usize
                            } else if raw < 0 {
                                return false;
                            } else {
                                raw as usize
                            };
                            let mut c = dc;
                            c[dim] = coord;
                            cart.rank_of(c)
                        };
                        if back != me {
                            return false;
                        }
                    }
                }
                true
            });
            tk_assert!(ok.iter().all(|&b| b), "a shift failed to invert");
            Ok(())
        },
    );
}
