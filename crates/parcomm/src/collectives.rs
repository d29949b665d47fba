//! Collective operations built on point-to-point messaging.
//!
//! All collectives are implemented as deterministic gather-to-root /
//! broadcast trees (root = communicator rank 0, fixed reduction order by
//! rank), so floating-point reductions give bitwise identical results for
//! a given communicator size — a property the serial-vs-parallel
//! equivalence tests rely on.

use crate::comm::{Comm, USER_TAG_LIMIT};
use crate::stats::TrafficClass;
use crate::ReduceOp;

impl Comm {
    fn coll_tag(&self, seq: u64) -> u64 {
        USER_TAG_LIMIT + seq
    }

    /// Synchronize all ranks of this communicator.
    pub fn barrier(&self) {
        self.allreduce_f64(0.0, ReduceOp::Sum);
    }

    /// Reduce a scalar over all ranks with `op`; every rank receives the
    /// result. Reduction order is fixed (rank 0, 1, 2, …), independent of
    /// message arrival order.
    pub fn allreduce_f64(&self, value: f64, op: ReduceOp) -> f64 {
        self.allreduce_vec(&[value], op)[0]
    }

    /// Element-wise reduction of equal-length vectors across ranks.
    pub fn allreduce_vec(&self, values: &[f64], op: ReduceOp) -> Vec<f64> {
        let seq = self.bump_coll_seq();
        let tag = self.coll_tag(seq);
        if self.rank == 0 {
            let mut acc = values.to_vec();
            for r in 1..self.size() {
                let contrib = self.take(r, tag).data;
                // Every caller passes the same length (a collective's
                // shape is rank-uniform); a mismatch is a caller bug.
                assert_eq!(
                    contrib.len(),
                    acc.len(),
                    "allreduce length mismatch from rank {r}"
                );
                for (a, b) in acc.iter_mut().zip(contrib) {
                    *a = op.apply(*a, b);
                }
            }
            for r in 1..self.size() {
                self.post_collective(r, tag, acc.clone());
            }
            acc
        } else {
            self.post_collective(0, tag, values.to_vec());
            self.take(0, tag).data
        }
    }

    /// Broadcast `root`'s `data` to every rank; each rank returns the
    /// root's buffer (the other ranks' `data` is ignored, like the
    /// receive buffer of `MPI_BCAST`).
    pub fn broadcast(&self, root: usize, data: Vec<f64>) -> Vec<f64> {
        let seq = self.bump_coll_seq();
        let tag = self.coll_tag(seq);
        if self.rank == root {
            for r in (0..self.size()).filter(|&r| r != root) {
                self.post_collective(r, tag, data.clone());
            }
            data
        } else {
            self.take(root, tag).data
        }
    }

    /// Personalized all-to-all of `f64` buffers: `outgoing[r]` is sent to
    /// rank `r`; returns the buffer received from each rank. Used by the
    /// overset routing setup.
    pub fn alltoall_f64s(&self, outgoing: Vec<Vec<f64>>) -> Vec<Vec<f64>> {
        // One buffer per destination, self included, is the calling
        // contract (`MPI_ALLTOALLV`'s counts array).
        assert_eq!(outgoing.len(), self.size(), "alltoall needs one buffer per rank");
        let seq = self.bump_coll_seq();
        let tag = self.coll_tag(seq);
        let mut incoming: Vec<Vec<f64>> = Vec::with_capacity(self.size());
        for (r, buf) in outgoing.into_iter().enumerate() {
            if r == self.rank {
                incoming.push(buf); // self-exchange short-circuits
            } else {
                self.post_collective(r, tag, buf);
                incoming.push(Vec::new());
            }
        }
        for r in 0..self.size() {
            if r != self.rank {
                incoming[r] = self.take(r, tag).data;
            }
        }
        incoming
    }

    /// Collective traffic bypasses the user-tag guard but goes through
    /// the same `post`/`take` as user traffic, so it gets sequence
    /// numbers, fault injection and deadline-bounded waits — a reduction
    /// can both suffer and survive message faults.
    fn post_collective(&self, dest: usize, tag: u64, data: Vec<f64>) {
        self.post(dest, tag, data, TrafficClass::Collective);
    }
}

#[cfg(test)]
mod tests {
    use crate::{ReduceOp, Universe};

    #[test]
    fn allreduce_sum_min_max() {
        let out = Universe::run(4, |comm| {
            let x = (comm.rank() + 1) as f64;
            (
                comm.allreduce_f64(x, ReduceOp::Sum),
                comm.allreduce_f64(x, ReduceOp::Min),
                comm.allreduce_f64(x, ReduceOp::Max),
            )
        });
        for (s, lo, hi) in out {
            assert_eq!(s, 10.0);
            assert_eq!(lo, 1.0);
            assert_eq!(hi, 4.0);
        }
    }

    #[test]
    fn allreduce_vec_elementwise() {
        let out = Universe::run(3, |comm| {
            let v = vec![comm.rank() as f64, 10.0 * comm.rank() as f64];
            comm.allreduce_vec(&v, ReduceOp::Sum)
        });
        for v in out {
            assert_eq!(v, vec![3.0, 30.0]);
        }
    }

    #[test]
    fn allreduce_is_deterministic_across_repeats() {
        // Same inputs → bitwise same output regardless of thread timing.
        let run = || {
            Universe::run(4, |comm| {
                let x = 0.1 * (comm.rank() as f64 + 1.0);
                comm.allreduce_f64(x, ReduceOp::Sum)
            })
        };
        let a = run();
        for _ in 0..5 {
            assert_eq!(run(), a);
        }
    }

    #[test]
    fn broadcast_from_nonzero_root() {
        let out = Universe::run(3, |comm| comm.broadcast(2, vec![comm.rank() as f64; 2]));
        assert!(out.iter().all(|v| v == &[2.0, 2.0]));
    }

    #[test]
    fn barrier_completes() {
        // Just exercising completion on an asymmetric workload.
        let out = Universe::run(3, |comm| {
            if comm.rank() == 0 {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            comm.barrier();
            comm.rank()
        });
        assert_eq!(out, vec![0, 1, 2]);
    }

    #[test]
    fn alltoall_routes_personalized_buffers() {
        let out = Universe::run(3, |comm| {
            let me = comm.rank() as f64;
            let outgoing: Vec<Vec<f64>> =
                (0..comm.size()).map(|r| vec![100.0 * me + r as f64]).collect();
            comm.alltoall_f64s(outgoing)
        });
        // Rank j receives from rank i the value 100 i + j.
        for (j, bufs) in out.iter().enumerate() {
            for (i, b) in bufs.iter().enumerate() {
                assert_eq!(b, &vec![100.0 * i as f64 + j as f64]);
            }
        }
    }

    #[test]
    fn collectives_interleave_with_p2p_traffic() {
        use crate::stats::TrafficClass;
        let out = Universe::run(2, |comm| {
            let peer = 1 - comm.rank();
            comm.send_f64s(peer, 0, vec![comm.rank() as f64], TrafficClass::Halo);
            let s = comm.allreduce_f64(1.0, ReduceOp::Sum);
            let p = comm.recv_f64s(peer, 0)[0];
            (s, p)
        });
        assert_eq!(out, vec![(2.0, 1.0), (2.0, 0.0)]);
    }
}
