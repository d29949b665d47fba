//! Bit-exactness of the fused RHS kernels — both ISA instantiations —
//! against the pre-rewrite reference sweep, end to end through the
//! drivers.
//!
//! The in-crate `yy-mhd` tests prove the three sweeps agree on a single
//! `sweep_rhs` call. These tests prove the property *survives the
//! drivers*: whole RK4 trajectories — serial, and parallel at several
//! process grids, including runs with injected message delays — must be
//! bitwise identical whichever kernel implementation computes them. That
//! is what licenses shipping the detected instantiation as the default:
//! every correctness test in the repo transitively checks it against the
//! original arithmetic. ("fused" below is that default — the AVX2
//! kernels where the host has them.)

use std::time::Duration;

use yy_mhd::rhs::RhsKernels;
use yy_mhd::{MagneticBc, State};
use yy_parcomm::FaultSpec;
use yycore::parallel::{run_parallel_supervised, RecoveryOpts};
use yycore::{run_parallel, RunConfig, SerialSim};

fn cfg(reference: bool) -> RunConfig {
    cfg_with(if reference { RhsKernels::Reference } else { RhsKernels::Detected })
}

fn cfg_with(kernels: RhsKernels) -> RunConfig {
    let mut cfg = RunConfig::small();
    cfg.init.perturb_amplitude = 1e-2;
    cfg.init.seed_amplitude = 1e-4;
    cfg.rhs_kernels = kernels;
    cfg
}

/// The two leaf-kernel instantiations every three-way test diffs against
/// the reference. On a host without AVX2 `Detected` *is* `Baseline`:
/// say so instead of passing silently.
fn instantiations() -> [RhsKernels; 2] {
    if RhsKernels::Detected.label() == RhsKernels::Baseline.label() {
        println!("SKIP: no AVX2 on this host — the wide leg reruns the baseline kernels");
    }
    [RhsKernels::Baseline, RhsKernels::Detected]
}

const STEPS: u64 = 2;

fn assert_states_bit_identical(tag: &str, a: &State, b: &State) {
    for (name, (x, y)) in ["rho", "press", "f_r", "f_t", "f_p", "a_r", "a_t", "a_p"]
        .iter()
        .zip(a.arrays().iter().zip(b.arrays().iter()))
    {
        for (idx, (p, q)) in x.data().iter().zip(y.data().iter()).enumerate() {
            assert!(
                p.to_bits() == q.to_bits(),
                "{tag}: {name}[{idx}] differs: {p:e} vs {q:e}"
            );
        }
    }
}

/// Serial trajectories, both wall types: baseline ≡ detected ≡ reference.
#[test]
fn serial_kernels_match_reference_bitwise() {
    for mag_bc in [MagneticBc::ConductingWall] {
        let with = |kernels| RunConfig { mag_bc, ..cfg_with(kernels) };
        let mut reference = SerialSim::new(with(RhsKernels::Reference));
        let dt = reference.auto_dt();
        (0..STEPS).for_each(|_| reference.advance(dt));
        for kernels in instantiations() {
            let mut sim = SerialSim::new(with(kernels));
            (0..STEPS).for_each(|_| sim.advance(dt));
            let tag = format!("serial {mag_bc:?} {kernels:?}");
            assert_states_bit_identical(&format!("{tag} yin"), &sim.yin, &reference.yin);
            assert_states_bit_identical(&format!("{tag} yang"), &sim.yang, &reference.yang);
        }
    }
}

/// Parallel trajectories at 1×1, 1×2 and 2×2 tiles per panel (deep +
/// shell split sweeps; the serial test above has the whole-range ones),
/// both wall types: the gathered panels of a baseline and of a detected run ≡ a
/// reference run.
#[test]
fn parallel_kernels_match_reference_across_layouts() {
    for (pth, pph) in [(1, 1), (1, 2), (2, 2)] {
        for mag_bc in [MagneticBc::ConductingWall] {
            let run = |kernels| {
                let cfg = RunConfig { mag_bc, ..cfg_with(kernels) };
                run_parallel(&cfg, pth, pph, STEPS, 0, true)
            };
            let refr = run(RhsKernels::Reference);
            for kernels in instantiations() {
                let got = run(kernels);
                let tag = format!("{pth}x{pph} {mag_bc:?} {kernels:?}");
                assert_states_bit_identical(
                    &format!("{tag} yin"),
                    got.yin.as_ref().unwrap(),
                    refr.yin.as_ref().unwrap(),
                );
                assert_states_bit_identical(
                    &format!("{tag} yang"),
                    got.yang.as_ref().unwrap(),
                    refr.yang.as_ref().unwrap(),
                );
            }
        }
    }
}

/// Injected message delays reorder the communication schedule without
/// touching arithmetic; the fused and reference kernels must still land
/// on the same bits (and on the bits of the undelayed run).
#[test]
fn delayed_messages_do_not_break_kernel_exactness() {
    let run = |reference: bool, delay_us: u64| {
        let opts = RecoveryOpts {
            fault: FaultSpec::seeded(23)
                .with_delay_range(
                    1.0,
                    Duration::from_micros(delay_us / 2),
                    Duration::from_micros(delay_us),
                )
                .with_data_floor(1024),
            checkpoint_every: 0,
            deadline: Duration::from_secs(60),
            ..RecoveryOpts::default()
        };
        run_parallel_supervised(&cfg(reference), 1, 2, STEPS, 0, &opts)
            .expect("supervised run completes")
            .final_checkpoint
    };
    let fused = run(false, 400);
    let refr = run(true, 400);
    assert_states_bit_identical("delayed yin", &fused.yin, &refr.yin);
    assert_states_bit_identical("delayed yang", &fused.yang, &refr.yang);
    // And the delay itself is invisible to the state.
    let undelayed = run(false, 0);
    assert_states_bit_identical("undelayed yin", &fused.yin, &undelayed.yin);
    assert_states_bit_identical("undelayed yang", &fused.yang, &undelayed.yang);
}

/// Restart across layouts preserves kernel exactness: a fused run split
/// as (run to step 2 on layout A) → (checkpoint) → (resume to step 4 on
/// layout B) lands on the same bits as an unbroken *reference-kernel*
/// serial trajectory — for every (A, B) pair drawn from serial, 1×2 and
/// 2×1 tiles. The checkpoint hop must be invisible to the arithmetic.
#[test]
fn restart_across_layouts_preserves_kernel_exactness() {
    use yycore::checkpoint::Checkpoint;

    let total = 2 * STEPS;
    // Unbroken serial reference trajectory, pre-rewrite kernels.
    let mut reference = SerialSim::new(cfg(true));
    let dt = reference.auto_dt();
    for _ in 0..total {
        reference.advance(dt);
    }

    // Checkpoint at STEPS on layout A (fused kernels throughout).
    let capture_on = |layout: Option<(usize, usize)>| -> Checkpoint {
        match layout {
            None => {
                let mut sim = SerialSim::new(cfg(false));
                sim.run(STEPS, 0);
                Checkpoint::capture(&sim)
            }
            Some((pth, pph)) => {
                let opts = RecoveryOpts {
                    checkpoint_every: 0,
                    deadline: Duration::from_secs(60),
                    ..RecoveryOpts::default()
                };
                run_parallel_supervised(&cfg(false), pth, pph, STEPS, 0, &opts)
                    .expect("capture run completes")
                    .final_checkpoint
            }
        }
    };
    let resume_on = |ck: &Checkpoint, layout: Option<(usize, usize)>| -> Checkpoint {
        match layout {
            None => {
                let mut sim = SerialSim::new(cfg(false));
                ck.restore(&mut sim);
                sim.run(total - ck.step, 0);
                Checkpoint::capture(&sim)
            }
            Some((pth, pph)) => {
                let opts = RecoveryOpts {
                    resume_from: Some(ck.clone()),
                    deadline: Duration::from_secs(60),
                    ..RecoveryOpts::default()
                };
                run_parallel_supervised(&cfg(false), pth, pph, total, 0, &opts)
                    .expect("resume run completes")
                    .final_checkpoint
            }
        }
    };

    let layouts = [None, Some((1, 2)), Some((2, 1))];
    for from in layouts {
        let ck = capture_on(from);
        assert_eq!(ck.step, STEPS);
        for to in layouts {
            let out = resume_on(&ck, to);
            let tag = format!("{from:?} -> {to:?}");
            assert_eq!(out.step, total, "{tag}");
            assert_states_bit_identical(&format!("{tag} yin"), &out.yin, &reference.yin);
            assert_states_bit_identical(&format!("{tag} yang"), &out.yang, &reference.yang);
        }
    }
}
