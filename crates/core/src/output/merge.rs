//! Shard-set operations: list a directory's steps, and reassemble a
//! complete set into the serial-format [`Checkpoint`] byte-identically.

use super::shard::{load_shard, parse_shard_name};
use crate::checkpoint::{invalid, Checkpoint};
use crate::config::RunConfig;
use crate::serial::overset_columns;
use std::io;
use std::path::Path;
use yy_field::unpack_region;

/// The steps for which `dir` holds at least one shard, ascending.
pub fn shard_steps(dir: &Path) -> io::Result<Vec<u64>> {
    let mut steps: Vec<u64> = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        if let Some((step, _)) = parse_shard_name(&entry.file_name().to_string_lossy()) {
            steps.push(step);
        }
    }
    steps.sort_unstable();
    steps.dedup();
    Ok(steps)
}

/// Reassemble a shard set into the serial-format [`Checkpoint`] —
/// byte-identical to the one a serial run (or the rank-0 gather path)
/// would have written at the same step.
///
/// `step` selects a specific shard set; `None` takes the newest step
/// with a complete, mutually consistent set. The configuration must
/// match the set's geometry: the unowned ghost padding of a serial
/// checkpoint carries *initialization* values, so the merger rebuilds
/// them from `cfg` exactly as the serial driver does, places every
/// shard's owned block, and refills the overset frames and walls.
pub fn merge_shards(cfg: &RunConfig, dir: &Path, step: Option<u64>) -> io::Result<Checkpoint> {
    let steps = shard_steps(dir)?;
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
        // incomplete (a kill can land mid-flight between two ranks'
        // atomic renames).
        None => steps.iter().rev().copied().collect(),
    };
    let mut last_err: Option<io::Error> = None;
    for s in candidates {
        match merge_step(cfg, dir, s) {
            Ok(ck) => return Ok(ck),
            Err(e) => last_err = Some(e),
        }
    }
    // `steps` is non-empty (checked above) and so is either `candidates`.
    Err(last_err.expect("at least one candidate step was tried"))
}

fn merge_step(cfg: &RunConfig, dir: &Path, step: u64) -> io::Result<Checkpoint> {
    // Which ranks wrote a shard at this step?
    let mut ranks: Vec<usize> = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        if let Some((s, r)) = parse_shard_name(&entry?.file_name().to_string_lossy()) {
            if s == step {
                ranks.push(r);
            }
        }
    }
    ranks.sort_unstable();
    // The caller listed this step, but the directory can change under us.
    let Some(&first_rank) = ranks.first() else {
        return Err(invalid(format!("no shards for step {step} in {}", dir.display())));
    };
    let (first, first_raw) = load_shard(dir, step, first_rank)?;
    let world = (2 * first.pth * first.pph) as usize;
    if ranks != (0..world).collect::<Vec<_>>() {
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
    let mut ck = Checkpoint::blank(cfg, &grid);
    // Coverage check: each panel's interior must be tiled exactly once.
    let mut covered = [vec![false; shape.nth * shape.nph], vec![false; shape.nth * shape.nph]];
    let mut first_raw = Some(first_raw);
    let mut vals: Vec<f64> = Vec::new();
    for rank in 0..world {
        let (meta, raw) = match first_raw.take_if(|_| rank == first.rank as usize) {
            Some(raw) => (first, raw),
            None => load_shard(dir, step, rank)?,
        };
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
        // Place the owned block.
        vals.clear();
        // `chunks_exact(8)` yields eight-byte slices.
        vals.extend(
            raw.chunks_exact(8).map(|c| f64::from_le_bytes(c.try_into().expect("8-byte chunk"))),
        );
        let region = meta.global_region();
        let mut rest: &[f64] = &vals;
        let panel = if meta.panel == 0 { &mut ck.yin } else { &mut ck.yang };
        for arr in panel.arrays_mut() {
            rest = unpack_region(arr, region, rest);
        }
        debug_assert!(rest.is_empty());
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
    ck.seal(cfg, &overset_columns(&grid), step, first.time, first.dt_cache);
    Ok(ck)
}

/// Whether `path` names a shard *directory* (as opposed to a serial
/// checkpoint file): used by `resume=` to pick the reader.
pub fn is_shard_dir(path: &Path) -> bool {
    path.is_dir()
}
