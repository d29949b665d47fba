//! Shard-set operations: keep a pass's newest owned blocks in memory
//! and hand each to its rank's writer, hand the newest complete step to
//! the next pass, and reassemble a complete set — from memory or from
//! shard files — into the serial-format [`Checkpoint`] byte-identically.

use super::codec::CkptCodec;
use super::shard::{
    load_shard, load_shard_header, pack_shard_payload, parse_shard_name, place_block,
    shard_file_name, ShardMeta,
};
use super::stage::{IoTotals, OutputStage};
use crate::checkpoint::{invalid, Checkpoint};
use crate::config::RunConfig;
use crate::report::IoStats;
use std::fmt;
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

/// Where a merge reads a set's owned blocks from.
enum Source<'a> {
    /// Shard files, each decoded through its delta chain.
    Dir(&'a Path),
    /// A pass's in-memory set.
    Mem(&'a [Block]),
}

impl fmt::Display for Source<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Source::Dir(dir) => write!(f, "{}", dir.display()),
            Source::Mem(_) => f.write_str("memory"),
        }
    }
}

impl Source<'_> {
    /// Every `(step, rank)` that has a block.
    fn index(&self) -> io::Result<Vec<(u64, usize)>> {
        match self {
            Source::Dir(dir) => {
                let mut index = Vec::new();
                for entry in std::fs::read_dir(dir)? {
                    index.extend(parse_shard_name(&entry?.file_name().to_string_lossy()));
                }
                Ok(index)
            }
            Source::Mem(blocks) => {
                Ok(blocks.iter().map(|(m, _)| (m.step, m.rank as usize)).collect())
            }
        }
    }

    /// The header of `(step, rank)`'s block: its stored meta, or read
    /// from its shard file alone.
    fn header(&self, step: u64, rank: usize) -> io::Result<ShardMeta> {
        match self {
            Source::Dir(dir) => load_shard_header(dir, step, rank, &mut Vec::new()),
            // A block in memory is neither copied nor decoded to load.
            Source::Mem(_) => Ok(self.load(step, rank, &mut Vec::new(), &mut Vec::new())?.0),
        }
    }

    /// The block of `(step, rank)`: from memory as stored, or decoded
    /// from its shard file into `payload` through the `file` buffer.
    fn load<'s>(
        &'s self,
        step: u64,
        rank: usize,
        payload: &'s mut Vec<u8>,
        file: &mut Vec<u8>,
    ) -> io::Result<(ShardMeta, &'s [u8])> {
        match self {
            Source::Dir(dir) => {
                let meta = load_shard(dir, step, rank, payload, file)?;
                Ok((meta, payload.as_slice()))
            }
            Source::Mem(blocks) => blocks
                .iter()
                .find(|(m, _)| (m.step, m.rank) == (step, rank as u64))
                .map(|(m, raw)| (*m, raw.as_slice()))
                .ok_or_else(|| invalid(format!("no block for step {step} rank {rank} in memory"))),
        }
    }
}

/// Reassemble a shard set into the serial-format [`Checkpoint`] —
/// byte-identical to the one a serial run would have written at the
/// same step.
///
/// `step` selects a specific shard set; `None` takes the newest step
/// with a complete, mutually consistent set. The configuration must
/// match the set's geometry. A state is its owned points: the merger
/// places every shard's owned block, frames and walls as the rank's
/// sync left them, on zeroed panels, so the leftover padding is zero, as
/// in every driver's state. The Yin and Yang panels are assembled at
/// once, on this thread and one spawned thread; of their errors, the
/// lowest rank's is returned.
pub fn merge_shards(cfg: &RunConfig, dir: &Path, step: Option<u64>) -> io::Result<Checkpoint> {
    merge(&cfg.grid(), &Source::Dir(dir), step)
}

/// [`merge_shards`] over one step's in-memory blocks — a run's final
/// state — assembled on two threads as there.
pub(crate) fn merge_blocks(cfg: &RunConfig, blocks: &[Block]) -> io::Result<Checkpoint> {
    merge(&cfg.grid(), &Source::Mem(blocks), None)
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

fn merge(grid: &PatchGrid, src: &Source, step: Option<u64>) -> io::Result<Checkpoint> {
    let index = src.index()?;
    let mut steps: Vec<u64> = index.iter().map(|&(step, _)| step).collect();
    steps.sort_unstable();
    steps.dedup();
    if steps.is_empty() {
        return Err(invalid(format!("no checkpoint shards found in {src}")));
    }
    let candidates: Vec<u64> = match step {
        Some(s) => {
            if !steps.contains(&s) {
                return Err(invalid(format!(
                    "no shards for step {s} in {src} (available steps: {steps:?})"
                )));
            }
            vec![s]
        }
        // Newest first; fall back to older sets if the newest is
        // incomplete (a kill can land between two ranks' stores).
        None => steps.iter().rev().copied().collect(),
    };
    let mut last_err: Option<io::Error> = None;
    for s in candidates {
        let mut ranks: Vec<usize> =
            index.iter().filter(|&&(t, _)| t == s).map(|&(_, rank)| rank).collect();
        ranks.sort_unstable();
        ranks.dedup();
        match merge_step(grid, src, s, &ranks) {
            Ok(ck) => return Ok(ck),
            Err(e) => last_err = Some(e),
        }
    }
    // `steps` is non-empty (checked above) and so is either `candidates`.
    Err(last_err.expect("at least one candidate step was tried"))
}

/// Assemble the set of `step`, whose blocks `ranks` (ascending, at
/// least one) hold. The lowest rank's header, read alone, gives the
/// layout for the completeness check (an incomplete set reports that
/// rank's load error first, as it always has); then the two panels are
/// assembled at once, Yang on one spawned thread and Yin on this one
/// ([`assemble_panel`]). Each panel's bytes come from the same
/// operations in the same order as in a one-thread assembly, and when
/// both panels fail, Yin's error — the lower ranks' — is returned.
fn merge_step(
    grid: &PatchGrid,
    src: &Source,
    step: u64,
    ranks: &[usize],
) -> io::Result<Checkpoint> {
    let first = src.header(step, ranks[0])?;
    let world = (2 * first.pth * first.pph) as usize;
    if !ranks.iter().copied().eq(0..world) {
        src.load(step, ranks[0], &mut Vec::new(), &mut Vec::new())?;
        return Err(invalid(format!(
            "shard set at step {step} is incomplete: layout {}x{} needs ranks 0..{world}, \
             found {ranks:?}",
            first.pth, first.pph
        )));
    }
    let work = |panel: Panel| assemble_panel(grid, src, &first, panel);
    let (yin, yang) = std::thread::scope(|s| {
        let yang = s.spawn(|| work(Panel::Yang));
        let yin = work(Panel::Yin);
        (yin, yang.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
    });
    Ok(Checkpoint {
        shape: grid.full_shape(),
        step,
        time: first.time,
        dt_cache: first.dt_cache,
        yin: yin?,
        yang: yang?,
    })
}

/// One panel of [`merge_step`]: a zeroed panel, then its ranks in order,
/// each loaded through this worker's own payload and file buffers,
/// checked against rank 0's header `first` and the configuration, and
/// placed; finally its coverage check (the interior must be tiled
/// exactly once). The padding no block covers stays zero.
fn assemble_panel(
    grid: &PatchGrid,
    src: &Source,
    first: &ShardMeta,
    panel: Panel,
) -> io::Result<State> {
    let (step, p) = (first.step, panel.index());
    let shape = grid.full_shape();
    let mut state = State::zeros(shape);
    let mut cover = vec![false; shape.nth * shape.nph];
    let (mut payload, mut file) = (Vec::new(), Vec::new());
    let tiles = (first.pth * first.pph) as usize;
    for rank in p * tiles..(p + 1) * tiles {
        let (meta, raw) = src.load(step, rank, &mut payload, &mut file)?;
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
        place_block(&meta, raw, &mut state, [0, shape.nth, 0, shape.nph]);
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

/// Whether `path` names a shard *directory* (as opposed to a serial
/// checkpoint file): used by `resume=` to pick the reader.
pub fn is_shard_dir(path: &Path) -> bool {
    path.is_dir()
}
