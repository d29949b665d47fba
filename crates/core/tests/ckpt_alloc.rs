//! Steady-state allocation guard for the checkpoint path.
//!
//! A supervised run's rollback point is an in-memory shard set: at each
//! checkpoint event every rank packs its owned block over the older of
//! its two generations. A rollback or retile restores each tile from the
//! blocks as they are, and only the final checkpoint is merged into the
//! serial format. From a rank's second event on, one more event
//! allocates nothing payload-sized, so a run's total is bounded by the
//! buffer count, not the event count. `Checkpoint::capture_into`
//! refreshes a serial checkpoint fully in place. The shard path adds no
//! payload-sized buffer at all: the writer thread encodes each shard
//! from the set's own block, against the set's previous block as the
//! delta base, with the XOR formed inside the RLE scan, and streams the
//! file through one 64 KiB buffer — so pack, delta, RLE, CRC and write
//! allocate nothing payload-sized on either side of the stage. Reading
//! back is bounded the same way: `merge_shards` decodes the set into
//! blocks on two threads, one per panel, each rank's delta chain decoded
//! forward into its own block through its thread's one file image as
//! long as the chain's longest file, so decoding holds one block per rank
//! plus one file image per panel thread. The file images are freed
//! before the merged panels are allocated beside the blocks, and the
//! peak does not grow with the chain's length. All pins live here, in
//! one `#[test]`, because the allocation counters are global.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

use yycore::checkpoint::Checkpoint;
use yycore::output::merge_shards;
use yycore::parallel::{run_parallel_supervised, RecoveryOpts};
use yycore::{CkptCodec, RunConfig, SerialSim};

/// Counts every allocation and reallocation routed through the global
/// allocator (deallocations are free to happen; only acquiring memory
/// marks a path as non-steady-state), and tracks the live bytes and
/// their peak.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Acquisitions of at least `BIG_FROM` bytes (off until a test sets it).
static BIG_ALLOCS: AtomicU64 = AtomicU64::new(0);
static BIG_FROM: AtomicUsize = AtomicUsize::new(usize::MAX);
/// Bytes currently allocated, and the most there were since the last
/// [`reset_peak`].
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn count(size: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    if size >= BIG_FROM.load(Ordering::Relaxed) {
        BIG_ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

fn grow(size: usize) {
    let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        grow(layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        grow(new_size);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

/// Restart the peak at the live bytes now; returns them.
fn reset_peak() -> usize {
    let live = LIVE.load(Ordering::Relaxed);
    PEAK.store(live, Ordering::Relaxed);
    live
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

fn quick_cfg() -> RunConfig {
    let mut cfg = RunConfig::small();
    cfg.init.perturb_amplitude = 1e-2;
    cfg
}

/// Allocations of a supervised 1×1 run over `STEPS` steps at the given
/// checkpoint cadence (no shard directory: this isolates the in-memory
/// set; the file path is covered by `shard_merge.rs`).
fn supervised_allocs(checkpoint_every: u64) -> u64 {
    let opts = RecoveryOpts {
        checkpoint_every,
        deadline: Duration::from_secs(30),
        ..RecoveryOpts::default()
    };
    let before = allocs();
    run_parallel_supervised(&quick_cfg(), 1, 1, STEPS, 0, &opts).expect("run completes");
    allocs() - before
}

const STEPS: u64 = 6;

/// A unique scratch directory (removed by the caller).
fn scratch_dir() -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("yy_ckpt_alloc_{}_{n}", std::process::id()))
}

/// Run a supervised 1×1 run of `steps` steps checkpointing every step
/// (`steps + 1` events), with delta shards going to `dir` when given.
fn delta_run(steps: u64, dir: Option<PathBuf>) {
    let opts = RecoveryOpts {
        checkpoint_every: 1,
        deadline: Duration::from_secs(30),
        ckpt_dir: dir,
        ckpt_compress: CkptCodec::Delta,
        ..RecoveryOpts::default()
    };
    run_parallel_supervised(&quick_cfg(), 1, 1, steps, 0, &opts).expect("run completes");
}

/// Payload-sized allocations of [`delta_run`], with its shards in a
/// scratch directory or with no shard directory at all.
fn big_allocs(shards: bool, steps: u64) -> u64 {
    let dir = shards.then(scratch_dir);
    let before = BIG_ALLOCS.load(Ordering::Relaxed);
    delta_run(steps, dir.clone());
    let n = BIG_ALLOCS.load(Ordering::Relaxed) - before;
    if let Some(dir) = dir {
        std::fs::remove_dir_all(dir).ok();
    }
    n
}

/// Peak bytes `merge_shards` holds above what was live before it, over
/// the delta chain of a [`delta_run`] of `steps` steps (a chain of
/// `steps + 1` links per rank).
fn merge_peak(steps: u64) -> usize {
    let dir = scratch_dir();
    delta_run(steps, Some(dir.clone()));
    let base = reset_peak();
    let merged = merge_shards(&quick_cfg(), &dir, None).expect("the newest set merges");
    let peak = PEAK.load(Ordering::Relaxed) - base;
    assert_eq!(merged.step, steps);
    drop(merged);
    std::fs::remove_dir_all(dir).ok();
    peak
}

#[test]
fn checkpoint_capture_reuses_its_buffers() {
    // Serial: refreshing an existing checkpoint in place allocates
    // nothing at all once warmed.
    let mut sim = SerialSim::new(quick_cfg());
    let mut ck = Checkpoint::capture(&sim);
    sim.run(1, 0);
    Checkpoint::capture_into(&sim, &mut ck); // warm
    let before = allocs();
    for _ in 0..3 {
        sim.run(1, 0);
        Checkpoint::capture_into(&sim, &mut ck);
    }
    // `sim.run` itself allocates (its RunReport); measure the captures
    // alone by subtracting a capture-free control of the same shape.
    let with_captures = allocs() - before;
    let before = allocs();
    for _ in 0..3 {
        sim.run(1, 0);
    }
    let without = allocs() - before;
    assert!(
        with_captures <= without,
        "capture_into allocated in steady state: {with_captures} vs control {without}"
    );

    // Supervised: both runs store blocks at step 0 and at the end; the
    // cadence-1 run performs `STEPS - 1` *extra* periodic events. Each
    // packs over a recycled generation and sends nothing; a rebuild of
    // the checkpoint per event (two full states, an `initialize` pass,
    // a fresh overset-column table) would cost thousands.
    let cadence_off = supervised_allocs(0); // warm (thread-local pools etc.)
    let cadence_off = cadence_off.min(supervised_allocs(0));
    let cadence_one = supervised_allocs(1);
    let extra = cadence_one.saturating_sub(cadence_off);
    let per_capture = extra / (STEPS - 1);
    assert!(
        per_capture < 500,
        "an extra in-memory checkpoint costs {per_capture} allocations \
         ({extra} over {} events) — the set is being rebuilt, not reused",
        STEPS - 1
    );

    // Shards: the shard path adds no payload-sized buffer over the same
    // run without a directory — the writer reads the set's blocks, and
    // its one stream buffer is 64 KiB. "Payload-sized" is half a rank's
    // shard payload (8 arrays of owned f64s) and up.
    let shape = quick_cfg().grid().full_shape();
    let payload = 8 * shape.nr * shape.nth * shape.nph * 8;
    BIG_FROM.store(payload / 2, Ordering::Relaxed);
    // In memory: both generations exist from each rank's second event,
    // and a further event packs over the older one's buffer.
    let in_memory = big_allocs(false, STEPS);
    let extra_event = big_allocs(false, STEPS + 1) as i64 - in_memory as i64;
    assert_eq!(extra_event, 0, "an extra in-memory event made payload-sized allocations");
    let added = big_allocs(true, STEPS) as i64 - in_memory as i64;
    assert_eq!(
        added,
        0,
        "{} checkpoint events made payload-sized allocations on the shard path \
         beyond the in-memory set's",
        STEPS + 1
    );

    // Merges: a 16-link chain peaks within as many payloads as a 4-link
    // one — each panel thread's walk keeps no link's file or payload
    // alive. Decoding the 1×1 set holds one block per rank (one payload
    // each) plus one file image per panel thread, sized to the chain's
    // longest file (0.89 payloads here: the first delta link; the base
    // is 0.59): 3.8 payloads. The images are freed before the merged
    // checkpoint's two panels (each 1.17 payloads: the arrays carry
    // their ghost padding) are allocated beside the blocks, so the peak
    // is 4.35 payloads. Decoding each rank into a reused payload while
    // both panels were already allocated peaked at 6.1, and an image
    // grown with `reserve` (doubled, the realloc holding the old buffer
    // beside the new) at 7.3.
    let in_payloads = |bytes: usize| bytes.div_ceil(payload);
    let (short, long) = (merge_peak(3), merge_peak(15));
    assert!(
        in_payloads(long) <= in_payloads(short),
        "merging a 16-link chain peaked at {long} bytes, a 4-link one at {short} \
         ({payload}-byte payloads): merge memory grows with the chain"
    );
    assert!(
        in_payloads(short) <= 5,
        "merging a 4-link chain peaked at {short} bytes ({payload}-byte payloads): more \
         than two panels beside one block per rank"
    );
}
