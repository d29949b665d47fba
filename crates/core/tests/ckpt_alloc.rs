//! Steady-state allocation guard for the checkpoint path.
//!
//! A supervised run's rollback point is an in-memory shard set: at each
//! checkpoint event every rank packs its owned block over the older of
//! its two generations, and a serial-format checkpoint is assembled only
//! at a pass boundary. From a rank's second event on, one more event
//! allocates nothing payload-sized, so a run's total is bounded by the
//! buffer count, not the event count. `Checkpoint::capture_into`
//! refreshes a serial checkpoint fully in place. The shard path is held
//! to the same standard: its buffers (two pool slots, the delta base,
//! the XOR scratch, the file image) all exist by the third checkpoint
//! event, and from then on one more event — pack, delta, RLE, CRC, write
//! — performs no payload-sized allocation on either side of the stage.
//! All pins live here, in one `#[test]`, because the allocation counter
//! is global.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

use yycore::checkpoint::Checkpoint;
use yycore::parallel::{run_parallel_supervised, RecoveryOpts};
use yycore::{CkptCodec, RunConfig, SerialSim};

/// Counts every allocation and reallocation routed through the global
/// allocator (deallocations are free to happen; only acquiring memory
/// marks a path as non-steady-state).
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Acquisitions of at least `BIG_FROM` bytes (off until a test sets it).
static BIG_ALLOCS: AtomicU64 = AtomicU64::new(0);
static BIG_FROM: AtomicUsize = AtomicUsize::new(usize::MAX);

fn count(size: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    if size >= BIG_FROM.load(Ordering::Relaxed) {
        BIG_ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
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

/// Payload-sized allocations of a supervised 1×1 run of `steps` steps
/// checkpointing every step (`steps + 1` events), with delta shards
/// going to a scratch directory or with no shard directory at all.
fn big_allocs(shards: bool, steps: u64) -> u64 {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = shards.then(|| {
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("yy_ckpt_alloc_{}_{n}", std::process::id()))
    });
    let opts = RecoveryOpts {
        checkpoint_every: 1,
        deadline: Duration::from_secs(30),
        ckpt_dir: dir.clone(),
        ckpt_compress: CkptCodec::Delta,
        ..RecoveryOpts::default()
    };
    let before = BIG_ALLOCS.load(Ordering::Relaxed);
    run_parallel_supervised(&quick_cfg(), 1, 1, steps, 0, &opts).expect("run completes");
    let n = BIG_ALLOCS.load(Ordering::Relaxed) - before;
    if let Some(dir) = dir {
        std::fs::remove_dir_all(dir).ok();
    }
    n
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

    // Shards: what the shard path adds over the same run without a
    // directory is its warm-up — per rank at most three payload buffers
    // (two pool slots and the delta base), the XOR scratch and the file
    // image — however many events follow. "Payload-sized" is half a
    // rank's shard payload (8 arrays of owned f64s) and up.
    let shape = quick_cfg().grid().full_shape();
    BIG_FROM.store(8 * shape.nr * shape.nth * shape.nph * 8 / 2, Ordering::Relaxed);
    // In memory: both generations exist from each rank's second event,
    // and a further event packs over the older one's buffer.
    let in_memory = big_allocs(false, STEPS);
    let extra_event = big_allocs(false, STEPS + 1) as i64 - in_memory as i64;
    assert_eq!(extra_event, 0, "an extra in-memory event made payload-sized allocations");
    let added = big_allocs(true, STEPS).saturating_sub(in_memory);
    assert!(added > 0, "the shard path must at least allocate its buffers");
    assert!(
        added <= 2 * 5,
        "{} checkpoint events made {added} payload-sized allocations on the shard path \
         — more than its buffers, so some event is allocating",
        STEPS + 1
    );
}
