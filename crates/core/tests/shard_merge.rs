//! The sharded-output round trip, as a property: any complete shard set
//! — whatever tile layout wrote it (1×1, 1×2, 2×2, 2×1), and under
//! either payload codec (raw, or XOR-delta whose first link is RLE only)
//! — merges back into a serial-format checkpoint that is
//! **byte-identical** to the one the uninterrupted serial integrator
//! would have written at the same step. That property is what makes the
//! shard directory a real checkpoint: kill the run anywhere, merge what
//! landed, and restart onto any layout (PR 7's portability property
//! composes on top). Corrupt shards — truncated or bit-flipped — must
//! be rejected with a field-context error, never merged.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Duration;
use yy_parcomm::FaultSpec;
use yy_testkit::{check_with, tk_assert, tk_assert_eq, Config, Gen};
use yycore::checkpoint::Checkpoint;
use yycore::output::merge_shards;
use yycore::parallel::{run_parallel_supervised, RecoveryOpts, SupervisedReport};
use yycore::{CkptCodec, RunConfig, SerialSim};

/// Trajectory length of every sharded run in the suite.
const TOTAL: u64 = 6;

/// The parallel layouts a shard set may be written by.
const LAYOUTS: [(usize, usize); 4] = [(1, 1), (1, 2), (2, 2), (2, 1)];

const CODECS: [CkptCodec; 2] = [CkptCodec::Raw, CkptCodec::Delta];

fn quick_cfg() -> RunConfig {
    let mut cfg = RunConfig::small();
    cfg.init.perturb_amplitude = 1e-2;
    cfg
}

fn bytes(ck: &Checkpoint) -> Vec<u8> {
    let mut v = Vec::new();
    ck.write_to(&mut v).expect("serialize checkpoint");
    v
}

/// A unique scratch directory per case (removed by the caller).
fn fresh_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "yy_shard_merge_{}_{tag}_{n}",
        std::process::id()
    ))
}

/// Serial checkpoints at every step `0..=TOTAL`, computed once — the
/// byte-level reference every merged shard set is held to.
fn serial_ladder() -> &'static Vec<Checkpoint> {
    static LADDER: OnceLock<Vec<Checkpoint>> = OnceLock::new();
    LADDER.get_or_init(|| {
        let mut sim = SerialSim::new(quick_cfg());
        let mut ladder = vec![Checkpoint::capture(&sim)];
        for _ in 0..TOTAL {
            sim.run(1, 0);
            ladder.push(Checkpoint::capture(&sim));
        }
        ladder
    })
}

/// Run `TOTAL` supervised steps writing shards (checkpoint cadence 2)
/// into `dir`, returning the in-memory final checkpoint.
fn sharded_run(dir: &PathBuf, layout: (usize, usize), codec: CkptCodec) -> Checkpoint {
    sharded_run_of(TOTAL, dir, layout, codec).final_checkpoint
}

fn sharded_run_of(
    steps: u64,
    dir: &PathBuf,
    (pth, pph): (usize, usize),
    codec: CkptCodec,
) -> SupervisedReport {
    let opts = RecoveryOpts {
        checkpoint_every: 2,
        deadline: Duration::from_secs(30),
        ckpt_dir: Some(dir.clone()),
        ckpt_compress: codec,
        ..RecoveryOpts::default()
    };
    run_parallel_supervised(&quick_cfg(), pth, pph, steps, 0, &opts)
        .expect("sharded run completes")
}

/// A run with nothing to integrate stores its step-0 block once per
/// rank: the pre-loop seed is the pass's last event, so no final event
/// repeats it. Each rank leaves one self-contained shard — the chain
/// terminates at once — and the set merges to the serial step 0.
#[test]
fn zero_step_delta_run_leaves_a_terminating_chain() {
    let dir = fresh_dir("zero");
    let sup = sharded_run_of(0, &dir, (1, 1), CkptCodec::Delta);
    assert_eq!(sup.report.io.shards_written, 2, "a 0-step pass wrote a shard twice");
    let mut files: Vec<String> = std::fs::read_dir(&dir)
        .expect("shard dir exists")
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    files.sort();
    let name = yycore::output::shard_file_name;
    assert_eq!(files, [name(0, 0), name(0, 1)], "one file per rank");
    let merged = merge_shards(&quick_cfg(), &dir, None).expect("step-0 set merges");
    assert_eq!(bytes(&merged), bytes(&serial_ladder()[0]));
    assert_eq!(bytes(&sup.final_checkpoint), bytes(&serial_ladder()[0]));
    std::fs::remove_dir_all(&dir).ok();
}

/// `shard`'s bytes with the value byte of its first repeat frame
/// flipped: the link decodes to the right length but the wrong bytes,
/// so its CRC fails. Frames start after the 8-byte magic and 20 u64s.
fn flip_first_repeat(shard: &[u8]) -> Vec<u8> {
    let mut at = 8 + 20 * 8;
    while shard[at] < 0x80 {
        at += shard[at] as usize + 2;
    }
    let mut flipped = shard.to_vec();
    flipped[at + 1] ^= 0x01;
    flipped
}

fn gen_case(g: &mut Gen) -> ((usize, usize), CkptCodec, u64) {
    let layout = LAYOUTS[g.range_usize(0, LAYOUTS.len())];
    let codec = CODECS[g.range_usize(0, CODECS.len())];
    // A step the run checkpoints at: 0, 2, 4 (periodic) or TOTAL (final).
    let step = 2 * g.range_usize(0, (TOTAL as usize) / 2 + 1) as u64;
    (layout, codec, step)
}

/// Any (layout, codec): merging the shard set at any
/// checkpointed step reproduces the serial checkpoint of that step byte
/// for byte, and the newest complete set matches the run's own final
/// in-memory checkpoint.
#[test]
fn merged_shards_match_serial_checkpoints_byte_for_byte() {
    let cfg = quick_cfg();
    check_with(
        Config::with_cases(8),
        "merged_shards_match_serial_checkpoints_byte_for_byte",
        gen_case,
        |&(layout, codec, step)| {
            let dir = fresh_dir("prop");
            let final_ck = sharded_run(&dir, layout, codec);
            tk_assert_eq!(bytes(&final_ck), bytes(&serial_ladder()[TOTAL as usize]));
            // The selected step, explicitly.
            let merged = merge_shards(&cfg, &dir, Some(step)).map_err(|e| e.to_string())?;
            tk_assert!(
                bytes(&merged) == bytes(&serial_ladder()[step as usize]),
                "merge of {layout:?} {codec:?} shards at step {step} \
                 is not byte-identical to the serial checkpoint"
            );
            // The newest complete set, implicitly.
            let newest = merge_shards(&cfg, &dir, None).map_err(|e| e.to_string())?;
            tk_assert_eq!(newest.step, TOTAL);
            tk_assert_eq!(bytes(&newest), bytes(&final_ck));
            std::fs::remove_dir_all(&dir).ok();
            Ok(())
        },
    );
}

/// A shard set whose history includes a rollback merges exactly like a
/// clean run's: the supervised 1×2 run is killed at step 3, recovers
/// from its step-2 checkpoint, and the surviving shard files — some
/// written before the kill, some after, under the delta codec — still
/// reassemble the clean serial states.
#[test]
fn mid_rollback_shard_set_merges_cleanly() {
    let cfg = quick_cfg();
    let dir = fresh_dir("rollback");
    let opts = RecoveryOpts {
        fault: FaultSpec::seeded(42).with_kill(1, 3),
        checkpoint_every: 2,
        deadline: Duration::from_secs(30),
        ckpt_dir: Some(dir.clone()),
        ckpt_compress: CkptCodec::Delta,
        ..RecoveryOpts::default()
    };
    let sup =
        run_parallel_supervised(&cfg, 1, 2, 4, 0, &opts).expect("killed run recovers");
    assert!(!sup.recoveries.is_empty(), "the fixture must actually roll back");
    for step in [0u64, 2, 4] {
        let merged = merge_shards(&cfg, &dir, Some(step)).expect("merge succeeds");
        assert_eq!(
            bytes(&merged),
            bytes(&serial_ladder()[step as usize]),
            "post-rollback shard set at step {step} diverged from the serial state"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Corrupt shards are rejected, with the error naming what failed: a
/// truncated file dies on a "truncated while reading ..." context, a
/// bit flip trips the CRC (which covers the *uncompressed* payload, so
/// no codec path can smuggle corruption through), and a missing rank
/// makes the set incomplete — while `merge_shards(None)` falls back to
/// the newest step that still has a complete set.
#[test]
fn corrupt_or_incomplete_shards_are_rejected_with_context() {
    let cfg = quick_cfg();
    let dir = fresh_dir("corrupt");
    // The victim is a delta link: its RLE stream decodes before the XOR.
    sharded_run(&dir, (1, 2), CkptCodec::Delta);
    let victim = dir.join(yycore::output::shard_file_name(TOTAL, 1));
    let original = std::fs::read(&victim).expect("victim shard exists");

    // Truncation: the reader names the field it was starving on.
    std::fs::write(&victim, &original[..original.len() / 2]).unwrap();
    let err = merge_shards(&cfg, &dir, Some(TOTAL)).unwrap_err().to_string();
    assert!(err.contains("truncated"), "truncation error lacks context: {err}");

    // Bit flip in the payload: CRC mismatch (or an RLE consistency
    // failure), never a silent merge.
    let mut flipped = original.clone();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x10;
    std::fs::write(&victim, &flipped).unwrap();
    let err = merge_shards(&cfg, &dir, Some(TOTAL)).unwrap_err().to_string();
    assert!(
        err.contains("CRC mismatch") || err.contains("corrupt"),
        "bit-flip error lacks context: {err}"
    );

    // Remove the victim entirely: the explicit step is incomplete (and
    // says which ranks are missing), but the newest-set fallback finds
    // the intact step-4 set.
    std::fs::remove_file(&victim).unwrap();
    let err = merge_shards(&cfg, &dir, Some(TOTAL)).unwrap_err().to_string();
    assert!(err.contains("incomplete"), "missing-rank error lacks context: {err}");
    let fallback = merge_shards(&cfg, &dir, None).expect("fallback to older set");
    assert_eq!(fallback.step, 4, "fallback should pick the newest complete set");
    assert_eq!(bytes(&fallback), bytes(&serial_ladder()[4]));

    // Restored file: the set merges again (write_atomic's contract —
    // any file that exists is complete).
    std::fs::write(&victim, &original).unwrap();
    let merged = merge_shards(&cfg, &dir, Some(TOTAL)).expect("restored set merges");
    assert_eq!(bytes(&merged), bytes(&serial_ladder()[TOTAL as usize]));
    std::fs::remove_dir_all(&dir).ok();
}

/// A delta chain that cannot be walked is refused with the step and the
/// rank at fault, never a panic: a link naming a base at or after its
/// own step, a missing middle link, and a bit flip inside a middle link.
#[test]
fn broken_delta_chains_are_rejected_with_context() {
    let cfg = quick_cfg();
    let dir = fresh_dir("chain");
    // Rank 0's chain at step 6 runs 6 → 4 → 2 → 0.
    sharded_run(&dir, (1, 1), CkptCodec::Delta);
    let name = |step: u64| yycore::output::shard_file_name(step, 0);
    let (middle, tail) = (dir.join(name(4)), dir.join(name(2)));
    let original = std::fs::read(&middle).expect("middle link exists");
    let merge_err = || merge_shards(&cfg, &dir, Some(TOTAL)).unwrap_err().to_string();

    // A link naming itself as its base (the header's `base_step` field,
    // the 18th u64 after the magic).
    let mut looped = original.clone();
    looped[8 + 17 * 8..8 + 18 * 8].copy_from_slice(&4u64.to_le_bytes());
    std::fs::write(&middle, &looped).unwrap();
    let err = merge_err();
    assert!(
        err.contains("does not terminate") && err.contains("step 4") && err.contains("rank 0"),
        "self-based link error lacks context: {err}"
    );
    std::fs::write(&middle, &original).unwrap();

    // A deleted middle link: the error names the file that is missing.
    let kept = std::fs::read(&tail).unwrap();
    std::fs::remove_file(&tail).unwrap();
    let err = merge_err();
    assert!(err.contains(&name(2)), "missing-link error does not name the file: {err}");
    std::fs::write(&tail, &kept).unwrap();

    // A flipped value byte of a repeat frame in the middle link decodes
    // to the right length but the wrong bytes: the CRC of that link fails.
    std::fs::write(&middle, flip_first_repeat(&original)).unwrap();
    let err = merge_err();
    assert!(
        err.contains("CRC mismatch") && err.contains("(step 4, rank 0)"),
        "middle-link bit flip error lacks context: {err}"
    );

    std::fs::write(&middle, &original).unwrap();
    let merged = merge_shards(&cfg, &dir, Some(TOTAL)).expect("restored chain merges");
    assert_eq!(bytes(&merged), bytes(&serial_ladder()[TOTAL as usize]));
    std::fs::remove_dir_all(&dir).ok();
}

/// The two panels of a set are assembled on two threads (Yin ranks
/// 0–3 and Yang ranks 4–7 of a 2×2 delta set): merge after merge is the
/// serial checkpoint byte for byte, a broken Yang link is refused with
/// its rank and step, and with one broken link in each panel the Yin
/// rank's error — the lowest rank's — is the one returned.
#[test]
fn panel_workers_merge_byte_identically_and_report_the_lowest_rank() {
    let cfg = quick_cfg();
    let dir = fresh_dir("panels");
    sharded_run(&dir, (2, 2), CkptCodec::Delta);
    for _ in 0..16 {
        let merged = merge_shards(&cfg, &dir, None).expect("the newest set merges");
        assert_eq!(bytes(&merged), bytes(&serial_ladder()[TOTAL as usize]));
    }
    let link = |rank: usize| dir.join(yycore::output::shard_file_name(TOTAL, rank));
    let (yin, yang) = (link(1), link(6));
    let (yin_bytes, yang_bytes) = (std::fs::read(&yin).unwrap(), std::fs::read(&yang).unwrap());

    std::fs::write(&yang, flip_first_repeat(&yang_bytes)).unwrap();
    let err = merge_shards(&cfg, &dir, Some(TOTAL)).unwrap_err().to_string();
    assert!(
        err.contains("CRC mismatch") && err.contains("(step 6, rank 6)"),
        "Yang link bit flip error lacks context: {err}"
    );
    let fallback = merge_shards(&cfg, &dir, None).expect("fallback to the step-4 set");
    assert_eq!(fallback.step, 4, "fallback should pick the newest complete set");
    assert_eq!(bytes(&fallback), bytes(&serial_ladder()[4]));

    std::fs::write(&yin, flip_first_repeat(&yin_bytes)).unwrap();
    let err = merge_shards(&cfg, &dir, Some(TOTAL)).unwrap_err().to_string();
    assert!(
        err.contains("CRC mismatch") && err.contains("(step 6, rank 1)"),
        "with both panels broken the Yin rank's error must win: {err}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The full circle the CI soak runs in release mode, here as a unit:
/// restart *from a merged shard set* onto a different layout and land
/// on the uninterrupted trajectory byte for byte.
#[test]
fn restart_from_merged_shards_is_byte_identical() {
    let cfg = quick_cfg();
    let dir = fresh_dir("restart");
    sharded_run(&dir, (2, 2), CkptCodec::Delta);
    let merged = merge_shards(&cfg, &dir, Some(4)).expect("merge step 4");
    let opts = RecoveryOpts {
        resume_from: Some(merged),
        deadline: Duration::from_secs(30),
        ..RecoveryOpts::default()
    };
    let sup = run_parallel_supervised(&cfg, 1, 2, TOTAL, 0, &opts)
        .expect("resumed run completes");
    assert_eq!(
        bytes(&sup.final_checkpoint),
        bytes(&serial_ladder()[TOTAL as usize]),
        "restart from merged shards diverged"
    );
    std::fs::remove_dir_all(&dir).ok();
}
