//! Shard-set operations: keep a pass's newest owned blocks in memory,
//! and reassemble a complete set — from memory or from shard files —
//! into the serial-format [`Checkpoint`] byte-identically.

use super::shard::{load_shard, parse_shard_name, unpack_shard_payload, ShardMeta};
use super::stage::OutputStage;
use crate::checkpoint::{invalid, Checkpoint};
use crate::config::RunConfig;
use crate::serial::{fill_pair, overset_columns};
use std::fmt;
use std::io;
use std::path::Path;
use std::sync::{Arc, Mutex};
use yy_mesh::{Panel, PatchGrid};
use yy_mhd::{init::InitOptions, initialize, State};

/// One rank's owned block at one step: its shard header and the raw
/// payload `pack_shard_payload` writes — one copy, which the writer
/// thread shares while it writes the block's shard.
pub(crate) type Block = (ShardMeta, Arc<Vec<u8>>);

/// A pass's in-memory shard set: per world rank, the blocks of its two
/// newest checkpoint events. Two are enough for a complete step to
/// exist whenever any does: a rank stores step N only after the
/// collective health verdict of step N, which every rank reaches after
/// its store of step N − `checkpoint_every`, so no rank runs two events
/// ahead of another. Each rank locks only its own entry.
pub(crate) struct ShardSet(Vec<Mutex<[Option<Block>; 2]>>);

impl ShardSet {
    /// An empty set for a world of `ranks` ranks.
    pub(crate) fn new(ranks: usize) -> ShardSet {
        ShardSet((0..ranks).map(|_| Mutex::default()).collect())
    }

    /// Store the block `meta` describes over its rank's older (or an
    /// empty) generation, whose buffer `pack` refills, and return it.
    /// When the rank writes shards through `writer`, the older buffer is
    /// first taken back from it (`OutputStage::reclaim`), and the
    /// nanoseconds that blocked are returned for `writer_wait`; once
    /// both generations exist an event allocates nothing payload-sized.
    /// The generation is out of the set while `pack` runs, so a rank
    /// that dies mid-store leaves that step missing, never half-written.
    pub(crate) fn store(
        &self,
        meta: ShardMeta,
        writer: Option<&OutputStage>,
        pack: impl FnOnce(&mut Vec<u8>),
    ) -> (Block, u64) {
        // A poisoned entry holds whole blocks only (see above).
        let mut gens = self.0[meta.rank as usize].lock().unwrap_or_else(|e| e.into_inner());
        let older = (0..2).min_by_key(|&g| gens[g].as_ref().map(|(m, _)| m.step)).unwrap_or(0);
        let (mut raw, wait_ns) = match (gens[older].take(), writer) {
            (None, _) => (Vec::new(), 0),
            (Some((_, raw)), Some(stage)) => stage.reclaim(raw),
            // Nothing but the set holds a block no writer was given.
            (Some((_, raw)), None) => (Arc::try_unwrap(raw).unwrap_or_default(), 0),
        };
        pack(&mut raw);
        let block = (meta, Arc::new(raw));
        gens[older] = Some(block.clone());
        (block, wait_ns)
    }

    /// The stored blocks, once every rank thread has returned. Without
    /// `older`, each rank keeps its newest block only: the final
    /// assembly then holds one globe of blocks beside the result, not two.
    pub(crate) fn into_blocks(self, older: bool) -> Vec<Block> {
        let mut blocks = Vec::new();
        for gens in self.0 {
            let mut gens = gens.into_inner().unwrap_or_else(|e| e.into_inner());
            gens.sort_by_key(|g| std::cmp::Reverse(g.as_ref().map(|(m, _)| m.step)));
            blocks.extend(gens.into_iter().flatten().take(if older { 2 } else { 1 }));
        }
        blocks
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
/// match the set's geometry: the unowned ghost padding of a serial
/// checkpoint carries *initialization* values, so the merger rebuilds
/// them from `cfg` exactly as the serial driver does, places every
/// shard's owned block, and refills the overset frames and walls.
pub fn merge_shards(cfg: &RunConfig, dir: &Path, step: Option<u64>) -> io::Result<Checkpoint> {
    merge(cfg, &Source::Dir(dir), step, None)
}

/// [`merge_shards`] over an in-memory set: the newest complete step,
/// its padding taken from `padding` (the run's resume checkpoint) when
/// given, else rebuilt from `cfg`.
pub(crate) fn merge_blocks(
    cfg: &RunConfig,
    blocks: &[Block],
    padding: Option<&Checkpoint>,
) -> io::Result<Checkpoint> {
    merge(cfg, &Source::Mem(blocks), None, padding)
}

fn merge(
    cfg: &RunConfig,
    src: &Source,
    step: Option<u64>,
    padding: Option<&Checkpoint>,
) -> io::Result<Checkpoint> {
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
        match merge_step(cfg, src, s, &ranks, padding) {
            Ok(ck) => return Ok(ck),
            Err(e) => last_err = Some(e),
        }
    }
    // `steps` is non-empty (checked above) and so is either `candidates`.
    Err(last_err.expect("at least one candidate step was tried"))
}

/// Assemble the set of `step`, whose blocks `ranks` (ascending, at
/// least one) hold: completeness, coverage and consistency checks, then
/// placement and the frame and wall refill.
fn merge_step(
    cfg: &RunConfig,
    src: &Source,
    step: u64,
    ranks: &[usize],
    padding: Option<&Checkpoint>,
) -> io::Result<Checkpoint> {
    // One payload and one file buffer serve every block read from disk.
    let (mut payload, mut file) = (Vec::new(), Vec::new());
    let (first, first_raw) = src.load(step, ranks[0], &mut payload, &mut file)?;
    let world = (2 * first.pth * first.pph) as usize;
    if !ranks.iter().copied().eq(0..world) {
        return Err(invalid(format!(
            "shard set at step {step} is incomplete: layout {}x{} needs ranks 0..{world}, \
             found {ranks:?}",
            first.pth, first.pph
        )));
    }
    let grid = cfg.grid();
    let shape = grid.full_shape();
    if first.shape != shape {
        return Err(invalid(format!(
            "shard geometry {:?} does not match the run configuration {:?}",
            first.shape, shape
        )));
    }
    let mut ck = padding.cloned().unwrap_or_else(|| blank(cfg, &grid));
    // Coverage check: each panel's interior must be tiled exactly once.
    let mut covered = [vec![false; shape.nth * shape.nph], vec![false; shape.nth * shape.nph]];
    let mut place = |rank: usize, meta: ShardMeta, raw: &[u8]| -> io::Result<()> {
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
        if raw.len() as u64 != meta.expected_raw_len() {
            return Err(invalid(format!(
                "shard set at step {step}: rank {rank}'s block is {} bytes, its tile needs {}",
                raw.len(),
                meta.expected_raw_len()
            )));
        }
        let cover = &mut covered[meta.panel as usize];
        for j in meta.j0..meta.j0 + meta.tnth {
            for k in meta.k0..meta.k0 + meta.tnph {
                let cell = &mut cover[j as usize * shape.nph + k as usize];
                if *cell {
                    return Err(invalid(format!(
                        "shard set at step {step} overlaps at panel {} node ({j}, {k})",
                        meta.panel
                    )));
                }
                *cell = true;
            }
        }
        let panel = if meta.panel == 0 { &mut ck.yin } else { &mut ck.yang };
        unpack_shard_payload(&meta, panel, raw);
        Ok(())
    };
    // `ranks` is `0..world`, so the block already read is rank 0's.
    place(0, first, first_raw)?;
    for rank in 1..world {
        let (meta, raw) = src.load(step, rank, &mut payload, &mut file)?;
        place(rank, meta, raw)?;
    }
    for (p, cover) in covered.iter().enumerate() {
        if let Some(hole) = cover.iter().position(|&c| !c) {
            return Err(invalid(format!(
                "shard set at step {step} leaves panel {p} node ({}, {}) uncovered",
                hole / shape.nph,
                hole % shape.nph
            )));
        }
    }
    // The blocks carry owned values only: refill the overset frames and
    // wall conditions exactly as the serial driver's sync would.
    let cols = overset_columns(&grid);
    fill_pair(&mut ck.yin, &mut ck.yang, &cols, cfg.params.t_inner, cfg.mag_bc, None);
    (ck.step, ck.time, ck.dt_cache) = (step, first.time, first.dt_cache);
    Ok(ck)
}

/// A step-0 checkpoint of `cfg`'s run awaiting owned blocks, its panels
/// *initialized* rather than zeroed: the serial driver's ghost padding
/// keeps its initialization values forever (syncs only rewrite frames
/// and walls), so a checkpoint assembled from owned blocks is
/// byte-identical to a serial one only if the unowned padding carries
/// the same initial bytes. Those are unperturbed (the seeded noise lands
/// on owned nodes only), so the noise is skipped: the blocks overwrite
/// every owned node anyway.
fn blank(cfg: &RunConfig, grid: &PatchGrid) -> Checkpoint {
    let quiet = InitOptions { perturb_amplitude: 0.0, seed_amplitude: 0.0, ..cfg.init };
    let [yin, yang] = [Panel::Yin, Panel::Yang].map(|p| {
        let mut s = State::zeros(grid.full_shape());
        initialize(&mut s, grid, None, &cfg.params, &quiet, p);
        s
    });
    Checkpoint { shape: grid.full_shape(), step: 0, time: 0.0, dt_cache: 0.0, yin, yang }
}

/// Whether `path` names a shard *directory* (as opposed to a serial
/// checkpoint file): used by `resume=` to pick the reader.
pub fn is_shard_dir(path: &Path) -> bool {
    path.is_dir()
}
