//! Boundary synchronisation of one rank: the persistent message scratch,
//! the phase clock, the halo and overset post/drain halves, and the one
//! schedule built from them, `sync`, which given an RHS sink hides the
//! exchange behind the deep interior's sweep.

use super::solver::RankSolver;
use crate::serial::{overset_donate_tally, overset_fill_tally};
use std::time::Instant;
use yy_field::{pack_region, unpack_region, Array3, Region};
use yy_mesh::interp::{interp_scalar_column, interp_vector_column};
use yy_mesh::OversetColumn;
use yy_mhd::rhs::{sweep_rhs, InteriorRange, RhsSink};
use yy_mhd::{apply_physical_bc, State};
use yy_obs::counters::{Kernel, KernelTally};
use yy_parcomm::stats::{SolverPhase, TrafficClass};
use yy_parcomm::Comm;

/// User-tag space for the solver's point-to-point traffic.
const TAG_HALO_THETA: u64 = 11;
const TAG_HALO_PHI: u64 = 12;
const TAG_OVERSET: u64 = 13;

/// Persistent per-rank communication scratch. Message buffers circulate
/// as a closed loop: `send_f64s` moves a `Vec` to the receiving rank,
/// and every drained receive donates its (moved-in) buffer back to the
/// local pool, where the next send picks it up. Once every circulating
/// buffer has grown to the largest message it ever carries, the step
/// path performs no heap allocation — `steady_allocs` instruments
/// exactly that invariant.
pub(super) struct CommScratch {
    /// Recycled message buffers (capacities only ever grow).
    pool: Vec<Vec<f64>>,
    /// Overset interpolation scratch rows (`nr` elements each).
    row: Vec<f64>,
    vr: Vec<f64>,
    vt: Vec<f64>,
    vp: Vec<f64>,
    /// Steps this solver has completed. Two give the circulation time
    /// to reach steady state; from the third on the pool is *warmed*.
    /// (This solver's steps, not the run's: a pass resumed from a
    /// checkpoint starts with an empty pool.)
    pub(super) steps_done: u64,
    /// Pool misses / capacity growth observed after warmup.
    pub(super) steady_allocs: u64,
    /// Whether this rank's per-sync buffer takes equal its puts. Halo
    /// traffic is always peer-symmetric; the overset schedule is for
    /// every decomposition we run, but a hypothetical asymmetric
    /// schedule would drain (or grow) the pool, so the zero-alloc
    /// assertion is gated on this.
    pub(super) balanced: bool,
}

impl CommScratch {
    pub(super) fn new(nr: usize, balanced: bool) -> Self {
        CommScratch {
            pool: Vec::new(),
            row: vec![0.0; nr],
            vr: vec![0.0; nr],
            vt: vec![0.0; nr],
            vp: vec![0.0; nr],
            steps_done: 0,
            steady_allocs: 0,
            balanced,
        }
    }

    /// An empty buffer with at least `capacity` capacity, from the pool
    /// when possible.
    fn take_buf(&mut self, capacity: usize) -> Vec<f64> {
        match self.pool.pop() {
            Some(mut b) => {
                b.clear();
                if b.capacity() < capacity {
                    if self.steps_done >= 2 {
                        self.steady_allocs += 1;
                    }
                    b.reserve(capacity);
                }
                b
            }
            None => {
                if self.steps_done >= 2 {
                    self.steady_allocs += 1;
                }
                Vec::with_capacity(capacity)
            }
        }
    }

    /// Return a drained receive buffer to the pool.
    fn put_buf(&mut self, b: Vec<f64>) {
        self.pool.push(b);
    }
}

/// Wall-clock attribution for the step pipeline: `lap` charges the time
/// since the previous lap to one [`SolverPhase`] counter in
/// `parcomm::stats` (aggregated into [`crate::report::PhaseBreakdown`] at end of run).
struct PhaseClock {
    last: Instant,
}

impl PhaseClock {
    fn start() -> Self {
        PhaseClock { last: Instant::now() }
    }

    fn lap(&mut self, comm: &Comm, phase: SolverPhase) {
        let now = Instant::now();
        comm.record_phase_ns(phase, now.duration_since(self.last).as_nanos() as u64);
        self.last = now;
    }
}

/// Counter tally for moving one halo band of `region` (× the 8 state
/// arrays) through a pack or unpack loop. Halo volume is a property of
/// the decomposition, not the physics, so this kernel is the documented
/// exception to decomposition invariance — and carries zero flops.
fn halo_tally(region: Region) -> KernelTally {
    let values = 8 * region.len() as u64;
    let nr = (region.i1 - region.i0).max(1) as u64;
    KernelTally::copy(values, 8, values / nr)
}

impl RankSolver<'_> {
    /// Halo exchange + overset exchange + physical walls on `x`, drawing
    /// every message buffer from the persistent scratch (allocation-free
    /// after warmup).
    ///
    /// With a `sink` this is the step pipeline: the exchange fused with
    /// the RHS sweep of `x` into `sink`. Sends are posted, a deep
    /// interior chunk (whose stencils touch no ghost the in-flight
    /// message will fill) is computed while the messages travel, then the
    /// receives drain and the next exchange begins; the boundary shell is
    /// swept last, when all ghosts and frames are in place. Without one,
    /// the same messages are posted and drained in the same order, and
    /// nothing is swept.
    ///
    /// The wall condition runs once, after the drains, for the ghost and
    /// frame columns the exchange overwrote. The owned columns the deep
    /// sweep reads already hold their final wall values, so the deep box
    /// can span the full radial extent: the stage buffers take every wall
    /// node from the synced step head (`copy_walls_from`), the sweeps
    /// write interior nodes only, and the condition (f = 0, p = ρ·T, A
    /// frozen) would rewrite those nodes from the same frozen ρ.
    ///
    /// Bitwise identical to a sink-less `sync` followed by a full-range
    /// RHS: the exchange only writes ghost/frame columns, deep-interior
    /// stencils read none of them, and the deep ∪ shell boxes tile the
    /// interior exactly with unchanged per-point arithmetic.
    pub(super) fn sync(&mut self, x: &mut State, mut sink: Option<&mut RhsSink>) {
        let mut clock = PhaseClock::start();
        // With no halo neighbours the overset donors read only owned
        // points: post them first, so the exchange is in flight for the
        // entire deep interior (and the peer's turn).
        if self.halo_free {
            self.post_overset(x);
            clock.lap(self.world, SolverPhase::Overset);
        }
        // θ halo in flight over the first deep chunk, then the φ halo
        // (rows extended into the just-filled θ ghosts) over the second.
        for dim in 0..2 {
            self.post_halo_sends(x, dim);
            clock.lap(self.world, SolverPhase::Pack);
            self.rhs_deep_chunk(x, dim, sink.as_deref_mut(), &mut clock);
            self.drain_halo(x, dim, &mut clock);
        }
        // Overset columns (donor stencils may read halo ghosts, so only
        // after the full halo drain) over the third chunk.
        if !self.halo_free {
            self.post_overset(x);
            clock.lap(self.world, SolverPhase::Overset);
        }
        self.rhs_deep_chunk(x, 2, sink.as_deref_mut(), &mut clock);
        self.drain_overset(x, &mut clock);
        // Everything the shell stencils read is now in place.
        apply_physical_bc(x, self.cfg.params.t_inner, self.cfg.mag_bc);
        if let Some(sink) = sink {
            for b in 0..self.split.shell.len() {
                let shell_box = self.split.shell[b];
                self.rhs_partial(x, &shell_box, sink);
            }
        }
        clock.lap(self.world, SolverPhase::Boundary);
    }

    /// RHS sweep of one sub-range of the tile interior into `sink`.
    pub(super) fn rhs_partial(&mut self, x: &State, range: &InteriorRange, sink: &mut RhsSink) {
        sweep_rhs(
            x,
            &self.metric,
            &self.forces,
            &self.cfg.params,
            range,
            &mut self.scratch,
            sink,
            &mut self.meter,
        );
    }

    /// RHS over the `idx`-th φ slab of the deep interior into `sink`,
    /// lapped as `Interior`. No-op without a sink; with one, the sweep is
    /// a no-op when the tile is too thin to have that many deep chunks.
    fn rhs_deep_chunk(
        &mut self,
        x: &State,
        idx: usize,
        sink: Option<&mut RhsSink>,
        clock: &mut PhaseClock,
    ) {
        let Some(sink) = sink else { return };
        if let Some(chunk) = self.deep_chunks.get(idx).copied() {
            self.rhs_partial(x, &chunk, sink);
        }
        clock.lap(self.world, SolverPhase::Interior);
    }

    /// Neighbour pair, send regions, recv regions and tag for one halo
    /// dimension: 0 = θ bands (full φ width), 1 = φ bands over the
    /// θ-extended rows — the two-phase corner-filling order.
    fn halo_plan(&self, dim: usize) -> ([Option<usize>; 2], [Region; 2], [Region; 2], u64) {
        let h = self.grid.spec().halo as isize;
        let (nth, nph) = (self.tile.nth as isize, self.tile.nph as isize);
        let nr = self.grid.spec().nr;
        let [north, south, west, east] = self.cart.neighbors4();
        if dim == 0 {
            (
                [north, south],
                [
                    Region { i0: 0, i1: nr, j0: 0, j1: h, k0: 0, k1: nph },
                    Region { i0: 0, i1: nr, j0: nth - h, j1: nth, k0: 0, k1: nph },
                ],
                [
                    Region { i0: 0, i1: nr, j0: -h, j1: 0, k0: 0, k1: nph },
                    Region { i0: 0, i1: nr, j0: nth, j1: nth + h, k0: 0, k1: nph },
                ],
                TAG_HALO_THETA,
            )
        } else {
            (
                [west, east],
                [
                    Region { i0: 0, i1: nr, j0: -h, j1: nth + h, k0: 0, k1: h },
                    Region { i0: 0, i1: nr, j0: -h, j1: nth + h, k0: nph - h, k1: nph },
                ],
                [
                    Region { i0: 0, i1: nr, j0: -h, j1: nth + h, k0: -h, k1: 0 },
                    Region { i0: 0, i1: nr, j0: -h, j1: nth + h, k0: nph, k1: nph + h },
                ],
                TAG_HALO_PHI,
            )
        }
    }

    /// Pack and post (buffered, non-blocking) the halo sends for one
    /// dimension. Buffers come from the pool.
    fn post_halo_sends(&mut self, s: &State, dim: usize) {
        let (peers, sends, _, tag) = self.halo_plan(dim);
        for (peer, region) in peers.into_iter().zip(sends) {
            if let Some(dst) = peer {
                let t0 = self.meter.timer();
                let mut buf = self.comm.take_buf(region.len() * 8);
                for arr in s.arrays() {
                    pack_region(arr, region, &mut buf);
                }
                self.meter.kernel_timed(Kernel::HaloPack, halo_tally(region), t0);
                self.cart.comm().send_f64s(dst, tag, buf, TrafficClass::Halo);
            }
        }
    }

    /// Block on the halo receives for one dimension and unpack them; the
    /// received buffers (moved here from the sending rank) refill the
    /// pool. Blocked time is charged to `Wait`, unpacking to `Pack`.
    fn drain_halo(&mut self, s: &mut State, dim: usize, clock: &mut PhaseClock) {
        let (peers, _, recvs, tag) = self.halo_plan(dim);
        for (peer, region) in peers.into_iter().zip(recvs) {
            if let Some(src) = peer {
                let buf = self.cart.comm().recv_f64s(src, tag);
                clock.lap(self.world, SolverPhase::Wait);
                let t0 = self.meter.timer();
                let mut rest: &[f64] = &buf;
                for arr in s.arrays_mut() {
                    rest = unpack_region(arr, region, rest);
                }
                assert!(rest.is_empty(), "halo message size mismatch from rank {src}");
                self.meter.kernel_timed(Kernel::HaloUnpack, halo_tally(region), t0);
                self.comm.put_buf(buf);
                clock.lap(self.world, SolverPhase::Pack);
            }
        }
    }

    /// Interpolate this rank's donor columns and post them (buffered) to
    /// the partner-panel ranks. Buffers and interpolation rows come from
    /// the scratch.
    fn post_overset(&mut self, s: &State) {
        let nr = self.grid.spec().nr;
        for (si, send) in self.exchange.sends.iter().enumerate() {
            let t0 = self.meter.timer();
            let mut buf = self.comm.take_buf(send.jobs.len() * 8 * nr);
            for job in &send.jobs {
                let col = OversetColumn {
                    tgt_j: 0,
                    tgt_k: 0,
                    don_j: job.dj as usize,
                    don_k: job.dk as usize,
                    w: job.w,
                    rot: job.rot,
                };
                interp_scalar_column(&col, &s.rho, &mut self.comm.row);
                buf.extend_from_slice(&self.comm.row);
                interp_scalar_column(&col, &s.press, &mut self.comm.row);
                buf.extend_from_slice(&self.comm.row);
                interp_vector_column(
                    &col,
                    &s.f.r,
                    &s.f.t,
                    &s.f.p,
                    &mut self.comm.vr,
                    &mut self.comm.vt,
                    &mut self.comm.vp,
                );
                buf.extend_from_slice(&self.comm.vr);
                buf.extend_from_slice(&self.comm.vt);
                buf.extend_from_slice(&self.comm.vp);
                interp_vector_column(
                    &col,
                    &s.a.r,
                    &s.a.t,
                    &s.a.p,
                    &mut self.comm.vr,
                    &mut self.comm.vt,
                    &mut self.comm.vp,
                );
                buf.extend_from_slice(&self.comm.vr);
                buf.extend_from_slice(&self.comm.vt);
                buf.extend_from_slice(&self.comm.vp);
            }
            self.meter.kernel_timed(
                Kernel::OversetDonate,
                // Counts are of the owned-target jobs (decomposition-invariant);
                // ghost duplicates are interpolated and sent too, so bytes are of all.
                overset_donate_tally(self.owned_jobs[si], nr as u64)
                    .with_traffic_of(overset_donate_tally(send.jobs.len() as u64, nr as u64)),
                t0,
            );
            self.world.send_f64s(send.to_world, TAG_OVERSET, buf, TrafficClass::Overset);
        }
    }

    /// Receive the partner panel's interpolated columns and place them in
    /// my frame slots; received buffers refill the pool.
    fn drain_overset(&mut self, s: &mut State, clock: &mut PhaseClock) {
        let nr = self.grid.spec().nr;
        for (ri, recv) in self.exchange.recvs.iter().enumerate() {
            let buf = self.world.recv_f64s(recv.from_world, TAG_OVERSET);
            clock.lap(self.world, SolverPhase::Wait);
            let t0 = self.meter.timer();
            assert_eq!(
                buf.len(),
                recv.slots.len() * 8 * nr,
                "overset message size mismatch from rank {}",
                recv.from_world
            );
            let mut pos = 0;
            for slot in &recv.slots {
                let mut take = |arr: &mut Array3| {
                    arr.row_mut(slot.tj, slot.tk).copy_from_slice(&buf[pos..pos + nr]);
                    pos += nr;
                };
                take(&mut s.rho);
                take(&mut s.press);
                take(&mut s.f.r);
                take(&mut s.f.t);
                take(&mut s.f.p);
                take(&mut s.a.r);
                take(&mut s.a.t);
                take(&mut s.a.p);
            }
            self.meter.kernel_timed(
                Kernel::OversetFill,
                overset_fill_tally(self.owned_slots[ri], nr as u64)
                    .with_traffic_of(overset_fill_tally(recv.slots.len() as u64, nr as u64)),
                t0,
            );
            self.comm.put_buf(buf);
            clock.lap(self.world, SolverPhase::Overset);
        }
    }
}
