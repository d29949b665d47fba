//! Bit-exactness of the fused RHS kernels against the
//! pre-rewrite reference sweep, end to end through the drivers.
//!
//! The in-crate `yy-mhd` tests prove the two sweeps agree on a single
//! `compute_rhs` call. These tests prove the property *survives the
//! drivers*: whole RK4 trajectories — serial, and parallel at several
//! process grids, including runs with injected message delays — must be
//! bitwise identical whichever kernel implementation computes them. That
//! is what licenses shipping the fused sweep as the default: every
//! correctness test in the repo transitively checks it against the
//! original arithmetic.

use std::time::Duration;

use yy_mhd::State;
use yy_parcomm::FaultSpec;
use yycore::parallel::{run_parallel_supervised, RecoveryOpts};
use yycore::{run_parallel_with_mode, RunConfig, SerialSim, SyncMode};

fn cfg(reference: bool) -> RunConfig {
    let mut cfg = RunConfig::small();
    cfg.init.perturb_amplitude = 1e-2;
    cfg.init.seed_amplitude = 1e-4;
    cfg.rhs_reference = reference;
    cfg
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

/// Serial trajectories: fused ≡ reference.
#[test]
fn serial_fused_matches_reference_bitwise() {
    let mut reference = SerialSim::new(cfg(true));
    let mut fused = SerialSim::new(cfg(false));
    let dt = reference.auto_dt();
    for _ in 0..STEPS {
        reference.advance(dt);
        fused.advance(dt);
    }
    assert_states_bit_identical("serial yin", &fused.yin, &reference.yin);
    assert_states_bit_identical("serial yang", &fused.yang, &reference.yang);
}

/// Parallel trajectories at 1×1, 1×2 and 2×2 tiles per panel, both sync
/// modes: the gathered panels of a fused run ≡ a reference run.
#[test]
fn parallel_fused_matches_reference_across_layouts() {
    for (pth, pph) in [(1, 1), (1, 2), (2, 2)] {
        for mode in [SyncMode::Overlapped, SyncMode::Blocking] {
            let fused = run_parallel_with_mode(&cfg(false), pth, pph, STEPS, 0, true, mode);
            let refr = run_parallel_with_mode(&cfg(true), pth, pph, STEPS, 0, true, mode);
            let tag = format!("{pth}x{pph} {mode:?}");
            assert_states_bit_identical(
                &format!("{tag} yin"),
                fused.yin.as_ref().unwrap(),
                refr.yin.as_ref().unwrap(),
            );
            assert_states_bit_identical(
                &format!("{tag} yang"),
                fused.yang.as_ref().unwrap(),
                refr.yang.as_ref().unwrap(),
            );
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
            sync_mode: SyncMode::Overlapped,
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
