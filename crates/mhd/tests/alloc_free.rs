//! Steady-state allocation guard for the hot kernels.
//!
//! The RHS used to allocate a fresh `r²` table on every call (a `Vec`
//! built inside the sweep) — invisible in unit tests, but at four RK4
//! stages per step it put the allocator on the critical path of every
//! step. The table now lives in `Metric::r2`; this test pins the fix by
//! wrapping the global allocator in a counter and asserting that a
//! warmed-up step's kernels — the RHS leaf kernels over a full range,
//! the stage sweep (RK4 combine folded in through `RhsSink`) over the
//! overlapped driver's deep + shell split, the reference RHS through
//! every sink, the CFL wave scan, and the unfused RK4 combine — perform
//! **zero** heap allocations.
//! Any future per-call `Vec`/`Box` smuggled into these loops fails here.
//!
//! Everything runs inside one `#[test]` because the counter is global:
//! a second test thread would bleed its allocations into the window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use yy_field::Meters;
use yy_mesh::{Metric, Panel, PatchGrid, PatchSpec};
use yy_mhd::init::{initialize, InitOptions};
use yy_mhd::rhs::{compute_rhs, sweep_rhs, InteriorRange, RhsKernels, RhsScratch, RhsSink};
use yy_mhd::tables::rotation_axis;
use yy_mhd::{wave_speed_max, ForceTables, PhysParams, State};

/// Counts every allocation and reallocation routed through the global
/// allocator (deallocations are free to happen; only acquiring memory
/// marks a kernel as non-steady-state).
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Allocations performed by `f`, measured after it has already run once
/// (the first call may lazily grow buffers; steady state may not).
fn allocs_in<F: FnMut()>(mut f: F) -> u64 {
    f(); // warm
    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..3 {
        f();
    }
    ALLOCS.load(Ordering::Relaxed) - before
}

#[test]
fn hot_kernels_do_not_allocate_in_steady_state() {
    let grid = PatchGrid::new(PatchSpec::equal_spacing(16, 13, 0.35, 1.0));
    let metric = Metric::full(&grid);
    let params = PhysParams::default_laptop();
    let (_, nth, nph) = grid.dims();
    let forces = ForceTables::new(
        &metric,
        nth,
        nph,
        1,
        params.g0,
        params.omega,
        rotation_axis(Panel::Yin),
    );
    let shape = grid.full_shape();
    let mut state = State::zeros(shape);
    initialize(
        &mut state,
        &grid,
        None,
        &params,
        &InitOptions { perturb_amplitude: 1e-2, ..InitOptions::default() },
        Panel::Yin,
    );
    let range = InteriorRange::full_panel(&grid);
    let mut out = State::zeros(shape);
    let mut meter = Meters::new();

    // Fused production sweep.
    let mut scratch = RhsScratch::new(shape);
    let n = allocs_in(|| {
        compute_rhs(&state, &metric, &forces, &params, &range, &mut scratch, &mut out, &mut meter)
    });
    assert_eq!(n, 0, "fused RHS allocated {n} times in steady state");

    // The drivers' stage sweeps over the overlapped split (deep interior
    // + four θ/φ bands; the box list is the driver's setup-time
    // allocation): store, stage and final sinks, kernels and reference.
    let boxes = range.split_overlap().all_ranges();
    assert!(boxes.len() == 5, "a full panel splits into deep + four shell bands");
    let mut acc = State::zeros(shape);
    let mut stage = State::zeros(shape);
    for kernels in [RhsKernels::Detected, RhsKernels::Baseline, RhsKernels::Reference] {
        scratch.kernels = kernels;
        let n = allocs_in(|| {
            for b in &boxes {
                let mut sweep = |mut sink: RhsSink| {
                    let m = &mut meter;
                    sweep_rhs(&state, &metric, &forces, &params, b, &mut scratch, &mut sink, m)
                };
                sweep(RhsSink::Store(&mut out));
                let (acc, next) = (&mut acc, &mut stage);
                sweep(RhsSink::Stage { acc, y0: &state, next, b: 0.5, a: 0.25 });
                sweep(RhsSink::Final { acc, b: 0.5 });
            }
        });
        assert_eq!(n, 0, "split sweep ({kernels:?}) allocated {n} times");
    }

    // Reference sweep — the exactness oracle must be equally clean (this
    // is where the per-call r² Vec used to hide).
    scratch.kernels = RhsKernels::Reference;
    let n = allocs_in(|| {
        compute_rhs(&state, &metric, &forces, &params, &range, &mut scratch, &mut out, &mut meter)
    });
    assert_eq!(n, 0, "reference RHS allocated {n} times in steady state");
    scratch.kernels = RhsKernels::Detected;

    // CFL wave scan.
    let n = allocs_in(|| {
        std::hint::black_box(wave_speed_max(&state, &metric, &params, &range));
    });
    assert_eq!(n, 0, "wave_speed_max allocated {n} times in steady state");

    // The unfused RK4 combine (accumulate + stage build in one traversal).
    let base = State::zeros(shape);
    let n = allocs_in(|| {
        acc.axpy_and_assign_axpy(0.5, &out, &mut stage, &base, 0.25);
    });
    assert_eq!(n, 0, "fused RK4 combine allocated {n} times in steady state");
}
