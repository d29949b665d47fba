//! The per-rank solver: construction (panel split, tile, metric, overset
//! schedule, and the tile's state, initial or restored from the blocks
//! that meet it), the RK4 step, checkpoint events and the end-of-run
//! counter aggregation. The boundary synchronisation its
//! step runs on lives in [`super::exchange`].

use super::exchange::CommScratch;
use crate::config::RunConfig;
use crate::output::{pack_shard_payload, place_block, Block, ShardMeta, ShardSet};
use crate::report::{PhaseBreakdown, RunReport};
use crate::serial::overset_columns;
use std::sync::Arc;
use yy_field::Meters;
use yy_mesh::routing::{build_schedule, panel_of_world, OversetExchange, TargetSlot};
use yy_mesh::{Decomp2D, Metric, PatchGrid, Tile};
use yy_mhd::rhs::{InteriorRange, OverlapSplit, RhsScratch, RhsSink};
use yy_mhd::tables::rotation_axis;
use yy_mhd::{
    cfl_timestep, initialize, timestep::rho_min_owned, wave_speed_max, Diagnostics, ForceTables,
    State,
};
use yy_obs::counters::{CounterSet, CounterSnapshot, Kernel, KernelTally};
use yy_obs::Event;
use yy_parcomm::stats::{SolverPhase, TrafficClass};
use yy_parcomm::{CartComm, Comm, ReduceOp};

/// The step-head state and the two stage states the RK4 stages
/// ping-pong between.
struct Rk4Bufs {
    y0: State,
    stage: [State; 2],
}

/// Per-rank solver instance. The evolving `State` lives outside this
/// struct (in `rank_program`) so boundary synchronisation can borrow the
/// solver while mutating the state.
pub(super) struct RankSolver<'a> {
    pub(super) world: &'a Comm,
    pub(super) cart: CartComm,
    pub(super) grid: PatchGrid,
    pub(super) tile: Tile,
    pub(super) metric: Metric,
    pub(super) forces: ForceTables,
    pub(super) exchange: OversetExchange,
    /// Per send set (aligned with `exchange.sends`): how many of its
    /// jobs target *owned* columns of the destination tile. The overset
    /// counters tally flops/points/loops against these so the global
    /// totals are decomposition-invariant — ghost frame columns in a
    /// neighbour's padded region are interpolated redundantly, the same
    /// way halo nodes duplicate state, and redundant work is excluded
    /// from the owned-node accounting (bytes keep the real traffic).
    pub(super) owned_jobs: Vec<u64>,
    /// Per recv set (aligned with `exchange.recvs`): owned target slots.
    pub(super) owned_slots: Vec<u64>,
    range: InteriorRange,
    /// Deep-interior / boundary-shell partition of `range` (tentpole).
    pub(super) split: OverlapSplit,
    /// The deep interior cut into φ slabs, one per in-flight exchange.
    pub(super) deep_chunks: Vec<InteriorRange>,
    /// No tile-halo neighbours in either dimension (one tile per panel):
    /// overset donor stencils then read only owned points, so the
    /// overset send's true dependency frontier is the start of the sync
    /// and it can overlap the *whole* deep interior, not just the last
    /// chunk.
    pub(super) halo_free: bool,
    pub(super) cfg: RunConfig,
    /// RK4 work buffers; [`Self::advance`] takes them out for the step
    /// so a stage state can be synced mutably alongside the solver.
    rk4: Option<Rk4Bufs>,
    pub(super) comm: CommScratch,
    pub(super) scratch: RhsScratch,
    pub(super) meter: Meters,
    pub(super) time: f64,
    pub(super) step: u64,
}

impl<'a> RankSolver<'a> {
    /// Build the per-rank solver: split the world into panel groups,
    /// carve the Cartesian tile, precompute metric/force tables and the
    /// overset schedule, and build the tile state (not yet synced):
    /// initialized, or — given a step's blocks — restored from them.
    pub(super) fn new(
        cfg: &RunConfig,
        world: &'a Comm,
        decomp: &Decomp2D,
        counters: bool,
        start: Option<&[Block]>,
    ) -> (Self, State) {
        let tiles = decomp.tiles();
        let (panel, panel_rank) = panel_of_world(world.rank(), tiles);
        // The paper's MPI_COMM_SPLIT: color = panel, key = world rank, so the
        // panel communicator preserves world order and panel_rank == cart rank.
        let panel_comm = world.split(panel.index() as u64, world.rank() as i64);
        assert_eq!(panel_comm.rank(), panel_rank);
        let cart = CartComm::new(panel_comm, [decomp.pth, decomp.pph], [false, false]);

        let grid = cfg.grid();
        let tile = decomp.tile(panel_rank);
        let metric = Metric::new(&grid, &tile);
        let halo = grid.spec().halo;
        let forces = ForceTables::new(
            &metric,
            tile.nth,
            tile.nph,
            halo,
            cfg.params.g0,
            cfg.params.omega,
            rotation_axis(panel),
        );
        let cols = overset_columns(&grid);
        let mut schedule = build_schedule(&grid, decomp, &cols);
        // Owned-target job/slot counts for the overset counters (see the
        // `owned_jobs` field). Send and receive lists pair up
        // positionally, so the destination's recv set from us names the
        // target slots our jobs will fill.
        let owned_in = |t: &Tile, s: &TargetSlot| {
            s.tj >= 0 && (s.tj as usize) < t.nth && s.tk >= 0 && (s.tk as usize) < t.nph
        };
        let me = world.rank();
        let owned_jobs: Vec<u64> = schedule[me]
            .sends
            .iter()
            .map(|snd| {
                let (_, pr) = panel_of_world(snd.to_world, tiles);
                let peer_tile = decomp.tile(pr);
                schedule[snd.to_world]
                    .recvs
                    .iter()
                    .find(|r| r.from_world == me)
                    .map_or(0, |r| {
                        r.slots.iter().filter(|s| owned_in(&peer_tile, s)).count() as u64
                    })
            })
            .collect();
        let owned_slots: Vec<u64> = schedule[me]
            .recvs
            .iter()
            .map(|r| r.slots.iter().filter(|s| owned_in(&tile, s)).count() as u64)
            .collect();
        let exchange = std::mem::take(&mut schedule[world.rank()]);
        let range = InteriorRange::for_tile(&grid, &tile);
        let split = range.split_overlap();
        let deep_chunks =
            split.deep.as_ref().map(|d| d.chunks_phi(3)).unwrap_or_default();
        let balanced = exchange.sends.len() == exchange.recvs.len();
        let halo_free = cart.neighbors4().iter().all(Option::is_none);

        let shape = tile.shape(&grid);
        let mut state = State::zeros(shape);
        let (step, time) = match start {
            // The owned points of every block that meets the tile, of any
            // layout; the first sync fills the ghosts from them alone.
            Some(blocks) => {
                let target = [tile.j0, tile.nth, tile.k0, tile.nph];
                for (meta, raw) in blocks.iter().filter(|(m, _)| m.panel == panel.index() as u64) {
                    place_block(meta, raw, &mut state, target);
                }
                (blocks[0].0.step, blocks[0].0.time)
            }
            None => {
                initialize(&mut state, &grid, Some(&tile), &cfg.params, &cfg.init, panel);
                (0, 0.0)
            }
        };

        let mut scratch = RhsScratch::new(shape);
        scratch.kernels = cfg.rhs_kernels;
        let solver = RankSolver {
            world,
            cart,
            grid,
            tile,
            metric,
            forces,
            exchange,
            owned_jobs,
            owned_slots,
            range,
            split,
            deep_chunks,
            halo_free,
            cfg: cfg.clone(),
            rk4: Some(Rk4Bufs {
                y0: State::zeros(shape),
                stage: [State::zeros(shape), State::zeros(shape)],
            }),
            comm: CommScratch::new(shape.nr, balanced),
            scratch,
            meter: Meters::with_counters(Arc::new(if counters {
                CounterSet::enabled()
            } else {
                CounterSet::new()
            })),
            time,
            step,
        };
        (solver, state)
    }

    /// Globally reduced CFL time step.
    ///
    /// The *ingredients* (max speed, min spacing, min density) are reduced
    /// globally and the formula is then evaluated identically on every
    /// rank — reducing per-tile `dt`s instead would give
    /// `min(dxᵢ/speedᵢ) ≠ min(dx)/max(speed)` whenever the smallest cell
    /// and the fastest signal live on different tiles, and would break the
    /// bitwise equivalence with the serial reference.
    pub(super) fn global_dt(&self, state: &State) -> f64 {
        let speed = wave_speed_max(state, &self.metric, &self.cfg.params, &self.range);
        let max_speed = self.world.allreduce_f64(speed, ReduceOp::Max);
        let min_dx = self.world.allreduce_f64(self.metric.min_spacing(), ReduceOp::Min);
        let min_rho = self.world.allreduce_f64(rho_min_owned(state), ReduceOp::Min);
        cfl_timestep(max_speed, min_dx, min_rho, &self.cfg.params, self.cfg.cfl)
    }

    /// One RK4 step (mirrors `SerialSim::advance`: the stage sweeps
    /// combine the tendency into `state` and the next stage buffer as
    /// they go). Stage 0 needs no communication (`state` was synced at
    /// the end of the previous step); each later stage syncs the buffer
    /// the previous one built, fused with its sweep ([`Self::sync`] with
    /// a sink).
    pub(super) fn advance(&mut self, state: &mut State, dt: f64) {
        let mut rk4 = self.rk4.take().expect("RK4 buffers are only out during a step");
        let Rk4Bufs { y0, stage: [a, b] } = &mut rk4;
        // The sweeps write interior nodes only and the wall condition
        // leaves ρ (and conducting-wall A) alone: the stage buffers take
        // those frozen values here, which also makes them valid after a
        // restore, a rollback or a re-tile.
        y0.copy_from(state);
        a.copy_walls_from(state);
        b.copy_walls_from(state);
        let (y0, range) = (&*y0, self.range);
        for s in 0..4 {
            let (next, cur) = if s % 2 == 0 { (&mut *a, &mut *b) } else { (&mut *b, &mut *a) };
            let mut sink = RhsSink::rk4_stage(s, dt, state, y0, next);
            let combine = sink.combine_tally();
            if s == 0 {
                self.rhs_partial(y0, &range, &mut sink);
            } else {
                self.sync(cur, Some(&mut sink));
            }
            self.meter.kernel(Kernel::Rk4Combine, combine);
        }
        self.sync(state, None);
        self.rk4 = Some(rk4);
        self.time += dt;
        self.step += 1;
        self.comm.steps_done += 1;
    }

    /// This rank's owned block as a shard header at the current step.
    fn shard_meta(&self, dt_cache: f64) -> ShardMeta {
        let dims = self.cart.dims();
        let (panel, _) = panel_of_world(self.world.rank(), dims[0] * dims[1]);
        let (t, rank) = (&self.tile, self.world.rank());
        let place = [dims[0], dims[1], rank, panel.index(), t.j0, t.nth, t.k0, t.nph];
        let at = (self.step, self.time, dt_cache);
        ShardMeta::new(self.grid.full_shape(), at, place.map(|v| v as u64))
    }

    /// One checkpoint event: store this rank's owned block in `set`,
    /// which also writes its shard when the run writes shards. The
    /// store's wait on the writer is charged to the `writer_wait` phase
    /// and its pack to the `output` kernel slot; the encoded size is not
    /// known here (the writer compresses later), so the on-disk totals
    /// live in the report's `io` section instead. Purely local — no
    /// message, and no rank does another's work.
    pub(super) fn checkpoint(&mut self, state: &State, dt_cache: f64, set: Option<&ShardSet>) {
        let Some(set) = set else { return };
        let meta = self.shard_meta(dt_cache);
        let raw_len = meta.expected_raw_len();
        let t0 = self.meter.timer();
        let stored =
            set.store(meta, |raw| pack_shard_payload(state, self.tile.nth, self.tile.nph, raw));
        if let Some(wait_ns) = stored {
            self.world.record_phase_ns(SolverPhase::WriterWait, wait_ns);
            self.meter.kernel_timed(Kernel::Output, KernelTally::copy(raw_len / 8, 8, 1), t0);
        }
        self.world.record_event(Event::CheckpointSaved { step: self.step });
    }

    /// The allreduced run counters, as the counter fields of a report:
    /// flops, traffic bytes, max observed mailbox depth, all-rank phase
    /// breakdown and per-kernel counters. Collective.
    pub(super) fn aggregate_counters(&self) -> RunReport {
        let stats = self.world.stats();
        let flops = self.world.allreduce_f64(self.meter.flops() as f64, ReduceOp::Sum) as u64;
        let [halo_bytes, overset_bytes] = [TrafficClass::Halo, TrafficClass::Overset]
            .map(|c| self.world.allreduce_f64(stats.bytes(c) as f64, ReduceOp::Sum) as u64);
        let max_queue_depth =
            self.world.allreduce_f64(stats.max_queue_depth as f64, ReduceOp::Max) as u64;
        let ns = self.world.allreduce_vec(&stats.phase_ns.map(|ns| ns as f64), ReduceOp::Sum);
        let phases = PhaseBreakdown { seconds: std::array::from_fn(|p| ns[p] / 1e9) };
        // Every tally word is an exact integer (or a ns sum) far below
        // 2⁵³, so the f64 Sum allreduce merges the per-rank kernel
        // counters losslessly.
        let kwords = self
            .world
            .allreduce_vec(&self.meter.counters().snapshot().to_f64s(), ReduceOp::Sum);
        RunReport {
            flops,
            halo_bytes,
            overset_bytes,
            max_queue_depth,
            phases,
            kernels: CounterSnapshot::from_f64s(&kwords),
            ..RunReport::default()
        }
    }

    /// Measured compute imbalance across ranks: the slowest rank's
    /// stencil wall time (RHS with the RK4 combine inside it, health
    /// scan — the work the partitioner balances; comm wait excluded)
    /// over the mean.
    /// Collective — every rank calls; 1.0 when nothing was timed.
    pub(super) fn achieved_imbalance(&self) -> f64 {
        let snap = self.meter.counters().snapshot();
        let local =
            (snap.get(Kernel::Rhs).wall_ns + snap.get(Kernel::HealthScan).wall_ns) as f64;
        let max = self.world.allreduce_f64(local, ReduceOp::Max);
        let sum = self.world.allreduce_f64(local, ReduceOp::Sum);
        if sum > 0.0 {
            max * self.world.size() as f64 / sum
        } else {
            1.0
        }
    }

    /// Globally reduced diagnostics (sums for energies, max for maxima).
    pub(super) fn reduce_diag(&self, state: &State) -> Diagnostics {
        let local = yy_mhd::energy::compute_diagnostics(
            state,
            &self.grid,
            &self.metric,
            Some(&self.tile),
            &self.cfg.params,
            &self.range,
            None,
        );
        let v = local.to_vec();
        let sums = self.world.allreduce_vec(&v[..4], ReduceOp::Sum);
        let maxs = self.world.allreduce_vec(&v[4..], ReduceOp::Max);
        Diagnostics::from_slice(&[sums[0], sums[1], sums[2], sums[3], maxs[0], maxs[1]])
    }
}
