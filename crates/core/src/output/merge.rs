//! Shard-set operations: keep a pass's newest owned blocks in memory
//! and hand each to its rank's writer, hand the newest complete step to
//! the next pass, and merge one step's blocks into the serial-format
//! [`Checkpoint`] byte-identically. A shard set on disk is first decoded
//! into the same blocks, so the merge has one input.

use super::codec::CkptCodec;
use super::shard::{
    load_shard, load_shard_header, pack_shard_payload, parse_shard_name, place_block,
    shard_file_name, ShardMeta,
};
use super::stage::{IoTotals, OutputStage};
use crate::checkpoint::{invalid, Checkpoint};
use crate::config::RunConfig;
use crate::report::IoStats;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};
use yy_mesh::{Panel, PatchGrid};
use yy_mhd::State;

/// One rank's owned block at one step: its shard header and the raw
/// payload `pack_shard_payload` writes — one copy, which the writer
/// thread shares while it writes the block's shard.
pub(crate) type Block = (ShardMeta, Arc<Vec<u8>>);

/// One rank's blocks of its two newest checkpoint events; `stage`, its
/// writer, once a set that writes to disk has stored its first block;
/// `written`, that writer's totals once the rank finished it.
#[derive(Default)]
struct Slot {
    gens: [Option<Block>; 2],
    stage: Option<OutputStage>,
    written: IoTotals,
}

/// A pass's one checkpoint sink: per world rank, the blocks of its two
/// newest checkpoint events and, when the set writes to disk, the
/// rank's writer. Two generations are enough for a complete step to
/// exist whenever any does: a rank stores step N only after the
/// collective health verdict of step N, which every rank reaches after
/// its store of step N − `checkpoint_every`, so no rank runs two events
/// ahead of another. Each rank locks only its own slot, and touches the
/// set only through [`ShardSet::store`] and [`ShardSet::finish`] — no
/// collectives, so a peer death cannot strand it. The pass boundary
/// consumes the set through [`ShardSet::drain`].
pub(crate) struct ShardSet {
    slots: Vec<Mutex<Slot>>,
    /// The shard directory and codec, when the set writes each block's
    /// shard there.
    disk: Option<(PathBuf, CkptCodec)>,
}

impl ShardSet {
    /// An empty set for a world of `ranks` ranks, writing its shards
    /// into `disk`'s directory with its codec when given.
    pub(crate) fn new(ranks: usize, disk: Option<(PathBuf, CkptCodec)>) -> ShardSet {
        ShardSet { slots: (0..ranks).map(|_| Mutex::default()).collect(), disk }
    }

    /// A slot's lock. A poisoned slot holds whole blocks only: a
    /// generation is out of the slot while it is packed.
    fn slot(&self, rank: usize) -> MutexGuard<'_, Slot> {
        self.slots[rank].lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Store the block `meta` describes over its rank's older (or an
    /// empty) generation, whose buffer `pack` refills, and hand the
    /// block to the rank's writer, which encodes and writes its shard
    /// behind compute. Returns the nanoseconds this blocked on the
    /// writer (for `writer_wait`) — taking the older buffer back once
    /// the writer no longer reads it (`OutputStage::reclaim`) — or
    /// `None` when the set writes nothing to disk. Once both
    /// generations exist an event allocates nothing payload-sized. The
    /// rank's first store spawns its writer, on the rank's own thread.
    pub(crate) fn store(&self, meta: ShardMeta, pack: impl FnOnce(&mut Vec<u8>)) -> Option<u64> {
        let mut slot = self.slot(meta.rank as usize);
        let Slot { gens, stage, .. } = &mut *slot;
        let older = (0..2).min_by_key(|&g| gens[g].as_ref().map(|(m, _)| m.step)).unwrap_or(0);
        let disk = self.disk.as_ref().map(|(dir, codec)| {
            (&*stage.get_or_insert_with(|| OutputStage::new(true)), dir, *codec)
        });
        let (mut raw, wait_ns) = match (gens[older].take(), &disk) {
            (None, _) => (Vec::new(), 0),
            (Some((_, raw)), Some((stage, ..))) => stage.reclaim(raw),
            // Nothing but the set holds a block no writer was given.
            (Some((_, raw)), None) => (Arc::try_unwrap(raw).unwrap_or_default(), 0),
        };
        pack(&mut raw);
        let raw = Arc::new(raw);
        gens[older] = Some((meta, Arc::clone(&raw)));
        let (stage, dir, codec) = disk?;
        let path = dir.join(shard_file_name(meta.step, meta.rank as usize));
        Some(wait_ns + stage.submit_shard(path, raw, meta, codec))
    }

    /// Drain `rank`'s writer: wait for its shards to be written, stop it
    /// and keep its totals for [`ShardSet::drain`]. Returns the
    /// nanoseconds the wait blocked (for `writer_wait`) and the first
    /// write error, or `None` when the set writes nothing to disk.
    pub(crate) fn finish(&self, rank: usize) -> Option<(u64, Result<(), String>)> {
        self.disk.as_ref()?;
        let mut slot = self.slot(rank);
        let Some(stage) = slot.stage.take() else { return Some((0, Ok(()))) };
        let wait_ns = stage.flush();
        let (totals, err) = stage.stop();
        slot.written = totals;
        Some((wait_ns, err.map_or(Ok(()), Err)))
    }

    /// Close the pass, once every rank thread has returned: finish each
    /// writer no rank finished (a killed rank's), total every rank's
    /// writes — each file renamed into place counts, even when its
    /// writer failed later — and hand back the blocks of the newest step
    /// every rank stored, in rank order, or `None` when no step is
    /// complete. The other generation is dropped here.
    pub(crate) fn drain(self) -> (Option<Vec<Block>>, IoStats) {
        let mut io = IoStats::default();
        if let Some((_, codec)) = &self.disk {
            io.codec = codec.name().to_string();
        }
        let (mut gens, mut wall_ns) = (Vec::new(), 0);
        for slot in self.slots {
            let Slot { gens: g, stage, written } =
                slot.into_inner().unwrap_or_else(|e| e.into_inner());
            let t = stage.map_or(written, |stage| stage.stop().0);
            io.shards_written += t.files_written;
            io.bytes_raw += t.bytes_raw;
            io.bytes_written += t.bytes_written;
            wall_ns += t.write_wall_ns;
            gens.push(g);
        }
        io.write_wall_s = wall_ns as f64 / 1e9;
        // No rank stores two events ahead of another, so the newest
        // complete step is the laggard's newest, if every rank holds it.
        let newest = |g: &[Option<Block>; 2]| g.iter().flatten().map(|(m, _)| m.step).max();
        let blocks = gens.iter().map(newest).min().flatten().and_then(|s| {
            gens.into_iter().map(|g| g.into_iter().flatten().find(|(m, _)| m.step == s)).collect()
        });
        (blocks, io)
    }
}

/// Reassemble a shard set into the serial-format [`Checkpoint`] —
/// byte-identical to the one a serial run would have written at the
/// same step.
///
/// `step` selects a specific shard set; `None` takes the newest step
/// with a complete, mutually consistent set. The configuration must
/// match the set's geometry. The set is decoded into its ranks' owned
/// blocks, each panel's on its own thread, and then merged exactly as a
/// pass's in-memory set is: every block placed on zeroed panels, so the
/// leftover padding is zero, as in every driver's state. A set whose
/// shards do not decode reports that error before any disagreement
/// between their headers.
pub fn merge_shards(cfg: &RunConfig, dir: &Path, step: Option<u64>) -> io::Result<Checkpoint> {
    let mut index = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        index.extend(parse_shard_name(&entry?.file_name().to_string_lossy()));
    }
    let mut steps: Vec<u64> = index.iter().map(|&(step, _)| step).collect();
    steps.sort_unstable();
    steps.dedup();
    if steps.is_empty() {
        return Err(invalid(format!("no checkpoint shards found in {}", dir.display())));
    }
    let candidates: Vec<u64> = match step {
        Some(s) => {
            if !steps.contains(&s) {
                return Err(invalid(format!(
                    "no shards for step {s} in {} (available steps: {steps:?})",
                    dir.display()
                )));
            }
            vec![s]
        }
        // Newest first; fall back to older sets if the newest is
        // incomplete (a kill can land between two ranks' stores).
        None => steps.iter().rev().copied().collect(),
    };
    let grid = cfg.grid();
    let mut last_err: Option<io::Error> = None;
    for s in candidates {
        let mut ranks: Vec<usize> =
            index.iter().filter(|&&(t, _)| t == s).map(|&(_, rank)| rank).collect();
        ranks.sort_unstable();
        ranks.dedup();
        match read_set(dir, s, &ranks).and_then(|blocks| merge_blocks(&grid, &blocks)) {
            Ok(ck) => return Ok(ck),
            Err(e) => last_err = Some(e),
        }
    }
    // `steps` is non-empty (checked above) and so is either `candidates`.
    Err(last_err.expect("at least one candidate step was tried"))
}

/// Decode the set of `step` in `dir`, whose shards `ranks` (ascending,
/// at least one) name, into its blocks in rank order. The lowest rank's
/// header, read alone, gives the layout for the completeness check (an
/// incomplete set reports that rank's load error first, as it always
/// has); then each panel's ranks are decoded on their own thread, each
/// delta chain into its block's own payload through the thread's one
/// file image. When both panels fail, Yin's error — the lower ranks' —
/// is returned.
fn read_set(dir: &Path, step: u64, ranks: &[usize]) -> io::Result<Vec<Block>> {
    let first = load_shard_header(dir, step, ranks[0], &mut Vec::new())?;
    let tiles = (first.pth * first.pph) as usize;
    if !ranks.iter().copied().eq(0..2 * tiles) {
        load_shard(dir, step, ranks[0], &mut Vec::new(), &mut Vec::new())?;
        return Err(incomplete(&first, ranks));
    }
    let (yin, yang) = both_panels(|panel| {
        let mut file = Vec::new();
        let p = panel.index();
        (p * tiles..(p + 1) * tiles)
            .map(|rank| {
                let mut payload = Vec::new();
                let meta = load_shard(dir, step, rank, &mut payload, &mut file)?;
                Ok((meta, Arc::new(payload)))
            })
            .collect::<io::Result<Vec<Block>>>()
    });
    let mut blocks = yin?;
    blocks.extend(yang?);
    Ok(blocks)
}

/// The error of a set whose ranks are not exactly those `first`'s layout
/// needs.
fn incomplete(first: &ShardMeta, ranks: &[usize]) -> io::Error {
    invalid(format!(
        "shard set at step {} is incomplete: layout {}x{} needs ranks 0..{}, found {ranks:?}",
        first.step,
        first.pth,
        first.pph,
        2 * first.pth * first.pph
    ))
}

/// `work` for both panels at once: Yang on a spawned thread, Yin on
/// this one.
fn both_panels<T: Send>(work: impl Fn(Panel) -> T + Sync) -> (T, T) {
    std::thread::scope(|s| {
        let yang = s.spawn(|| work(Panel::Yang));
        let yin = work(Panel::Yin);
        (yin, yang.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
    })
}

/// Merge one step's blocks, in rank order — a pass's in-memory set or
/// a shard set read from disk — into the serial-format [`Checkpoint`]
/// of `grid`. Rank 0's header is the set's; the two panels are
/// assembled at once ([`assemble_panel`]), each from the same
/// operations in the same order as in a one-thread assembly, and when
/// both fail, Yin's error is returned.
pub(crate) fn merge_blocks(grid: &PatchGrid, blocks: &[Block]) -> io::Result<Checkpoint> {
    let (first, _) = blocks.first().ok_or_else(|| invalid("no blocks to merge".to_string()))?;
    let tiles = (first.pth * first.pph) as usize;
    if blocks.len() != 2 * tiles {
        let ranks: Vec<usize> = blocks.iter().map(|(m, _)| m.rank as usize).collect();
        return Err(incomplete(first, &ranks));
    }
    let (yin, yang) = both_panels(|panel| {
        let p = panel.index();
        assemble_panel(grid, first, &blocks[p * tiles..(p + 1) * tiles], panel)
    });
    Ok(Checkpoint {
        shape: grid.full_shape(),
        step: first.step,
        time: first.time,
        dt_cache: first.dt_cache,
        yin: yin?,
        yang: yang?,
    })
}

/// The inverse of [`merge_blocks`]: a serial-format checkpoint as the
/// blocks of a 1×1 set, rank 0 holding Yin and rank 1 Yang, each
/// panel's owned points packed as a shard's.
pub(crate) fn checkpoint_blocks(ck: &Checkpoint) -> Vec<Block> {
    let (nth, nph) = (ck.shape.nth, ck.shape.nph);
    let at = (ck.step, ck.time, ck.dt_cache);
    let block = |p: usize, panel: &State| {
        let mut raw = Vec::new();
        pack_shard_payload(panel, nth, nph, &mut raw);
        let place = [1, 1, p, p, 0, nth, 0, nph].map(|v| v as u64);
        (ShardMeta::new(ck.shape, at, place), Arc::new(raw))
    };
    vec![block(0, &ck.yin), block(1, &ck.yang)]
}

/// One panel of [`merge_blocks`]: a zeroed panel, then its `blocks` in
/// rank order, each checked against rank 0's header `first` and the
/// configuration, and placed; finally its coverage check (the interior
/// must be tiled exactly once). The padding no block covers stays zero.
fn assemble_panel(
    grid: &PatchGrid,
    first: &ShardMeta,
    blocks: &[Block],
    panel: Panel,
) -> io::Result<State> {
    let (step, p) = (first.step, panel.index());
    let shape = grid.full_shape();
    let mut state = State::zeros(shape);
    let mut cover = vec![false; shape.nth * shape.nph];
    for (rank, (meta, raw)) in (p * blocks.len()..).zip(blocks) {
        // Rank 0's header is the set's: its shape is the set's geometry.
        if rank == 0 && meta.shape != shape {
            return Err(invalid(format!(
                "shard geometry {:?} does not match the run configuration {:?}",
                meta.shape, shape
            )));
        }
        for (what, a, b) in [
            ("layout", meta.pth, first.pth),
            ("layout", meta.pph, first.pph),
            ("step", meta.step, first.step),
            ("time", meta.time.to_bits(), first.time.to_bits()),
            ("dt cache", meta.dt_cache.to_bits(), first.dt_cache.to_bits()),
        ] {
            if a != b {
                return Err(invalid(format!(
                    "shard set at step {step} is inconsistent: rank {rank} disagrees with \
                     rank {} on the {what}",
                    first.rank
                )));
            }
        }
        if meta.shape != shape || meta.rank != rank as u64 {
            return Err(invalid(format!(
                "shard set at step {step} is inconsistent: rank {rank} header says rank {} \
                 shape {:?}",
                meta.rank, meta.shape
            )));
        }
        if meta.panel != p as u64 {
            return Err(invalid(format!(
                "shard set at step {step} is inconsistent: rank {rank} header says panel {}, \
                 its rank is on panel {p}",
                meta.panel
            )));
        }
        if raw.len() as u64 != meta.expected_raw_len() {
            return Err(invalid(format!(
                "shard set at step {step}: rank {rank}'s block is {} bytes, its tile needs {}",
                raw.len(),
                meta.expected_raw_len()
            )));
        }
        for j in meta.j0..meta.j0 + meta.tnth {
            for k in meta.k0..meta.k0 + meta.tnph {
                let cell = &mut cover[j as usize * shape.nph + k as usize];
                if *cell {
                    return Err(invalid(format!(
                        "shard set at step {step} overlaps at panel {p} node ({j}, {k})"
                    )));
                }
                *cell = true;
            }
        }
        place_block(meta, raw, &mut state, [0, shape.nth, 0, shape.nph]);
    }
    if let Some(hole) = cover.iter().position(|&c| !c) {
        return Err(invalid(format!(
            "shard set at step {step} leaves panel {p} node ({}, {}) uncovered",
            hole / shape.nph,
            hole % shape.nph
        )));
    }
    Ok(state)
}
