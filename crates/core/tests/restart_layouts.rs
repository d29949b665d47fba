//! Checkpoint-portable restart, as a property: a checkpoint taken at
//! any step resumes bit-identically onto *any* tile layout — serial,
//! 1×1, 1×2, 2×2, 2×1 — including a checkpoint produced by a run that
//! itself rolled back mid-flight, and one whose leftover padding (the
//! padded columns outside the panel) is not zero. The checkpoint
//! format is layout-free (serial full-panel geometry), so restart is a
//! pure function of (state, remaining steps), never of the decomposition
//! that wrote or reads it.

use std::sync::OnceLock;
use std::time::Duration;
use yy_parcomm::FaultSpec;
use yy_testkit::{check_with, tk_assert, tk_assert_eq, Config, Gen};
use yycore::checkpoint::Checkpoint;
use yycore::parallel::{run_parallel_supervised, RecoveryOpts};
use yycore::{RunConfig, SerialSim};

/// Total trajectory length every resumed run must reach.
const TOTAL: u64 = 6;

/// The layouts a checkpoint must be portable across; `None` is the
/// serial integrator itself.
const LAYOUTS: [Option<(usize, usize)>; 5] =
    [None, Some((1, 1)), Some((1, 2)), Some((2, 2)), Some((2, 1))];

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

/// Serial checkpoints at every step `0..=TOTAL`, computed once; the
/// last entry is the reference trajectory endpoint.
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

/// A checkpoint whose history includes a rollback: a supervised 1×2 run
/// is killed at step 3, recovers from its step-2 checkpoint, and writes
/// its final state at step 4.
fn mid_rollback_checkpoint() -> &'static Checkpoint {
    static CK: OnceLock<Checkpoint> = OnceLock::new();
    CK.get_or_init(|| {
        let opts = RecoveryOpts {
            fault: FaultSpec::seeded(42).with_kill(1, 3),
            checkpoint_every: 2,
            deadline: Duration::from_secs(30),
            ..RecoveryOpts::default()
        };
        let sup = run_parallel_supervised(&quick_cfg(), 1, 2, 4, 0, &opts)
            .expect("killed run recovers");
        assert!(!sup.recoveries.is_empty(), "the fixture must actually roll back");
        sup.final_checkpoint.clone()
    })
}

/// Advance `ck` to `TOTAL` steps on the given layout and return the
/// final checkpoint bytes.
fn resume_onto(cfg: &RunConfig, ck: &Checkpoint, layout: Option<(usize, usize)>) -> Vec<u8> {
    match layout {
        None => {
            let mut sim = SerialSim::new(cfg.clone());
            ck.restore(&mut sim);
            sim.run(TOTAL - ck.step, 0);
            bytes(&Checkpoint::capture(&sim))
        }
        Some((pth, pph)) => {
            let opts = RecoveryOpts {
                resume_from: Some(ck.clone()),
                deadline: Duration::from_secs(30),
                ..RecoveryOpts::default()
            };
            let sup = run_parallel_supervised(cfg, pth, pph, TOTAL, 0, &opts)
                .expect("resumed run completes");
            bytes(&sup.final_checkpoint)
        }
    }
}

fn gen_case(g: &mut Gen) -> (u64, usize) {
    let step = g.range_usize(1, TOTAL as usize) as u64;
    let layout = g.range_usize(0, LAYOUTS.len());
    (step, layout)
}

/// Any (checkpoint step, layout): restart reproduces the
/// uninterrupted serial trajectory byte for byte.
#[test]
fn restart_onto_any_layout_is_byte_identical() {
    let cfg = quick_cfg();
    let reference = bytes(serial_ladder().last().unwrap());
    check_with(
        Config::with_cases(10),
        "restart_onto_any_layout_is_byte_identical",
        gen_case,
        |&(step, layout)| {
            let ck = &serial_ladder()[step as usize];
            tk_assert_eq!(ck.step, step);
            let out = resume_onto(&cfg, ck, LAYOUTS[layout]);
            tk_assert!(
                out == reference,
                "restart from step {} onto {:?} diverged",
                step,
                LAYOUTS[layout]
            );
            Ok(())
        },
    );
}

/// A checkpoint written *after a rollback* carries no scar tissue: it
/// restarts onto every layout exactly like a clean serial checkpoint of
/// the same step.
#[test]
fn mid_rollback_checkpoint_restarts_cleanly_everywhere() {
    let cfg = quick_cfg();
    let reference = bytes(serial_ladder().last().unwrap());
    // The fixture itself must match the clean serial state it claims.
    assert_eq!(
        bytes(mid_rollback_checkpoint()),
        bytes(&serial_ladder()[4]),
        "post-recovery checkpoint differs from the clean step-4 state"
    );
    check_with(
        Config::with_cases(6),
        "mid_rollback_checkpoint_restarts_cleanly_everywhere",
        |g| g.range_usize(0, LAYOUTS.len()),
        |&layout| {
            let out = resume_onto(&cfg, mid_rollback_checkpoint(), LAYOUTS[layout]);
            tk_assert!(
                out == reference,
                "mid-rollback restart onto {:?} diverged",
                LAYOUTS[layout]
            );
            Ok(())
        },
    );
}

/// Visit every padded row of `ck` outside the panel — its leftover
/// cells and the wall nodes there — with the row's array index.
fn for_each_leftover_row(ck: &mut Checkpoint, mut visit: impl FnMut(usize, &mut [f64])) {
    let sh = ck.shape;
    let (gth, gph) = (sh.gth as isize, sh.gph as isize);
    let (nth, nph) = (sh.nth as isize, sh.nph as isize);
    for panel in [&mut ck.yin, &mut ck.yang] {
        for (a, arr) in panel.arrays_mut().into_iter().enumerate() {
            for k in -gph..nph + gph {
                for j in -gth..nth + gth {
                    if !((0..nth).contains(&j) && (0..nph).contains(&k)) {
                        visit(a, arr.row_mut(j, k));
                    }
                }
            }
        }
    }
}

/// A checkpoint whose leftover cells are nonzero, as in files written
/// before every driver zeroed them (they held the initial profile), resumes
/// serially and at 1×1, 1×2 and 2×2 to the same bytes as its zeroed twin:
/// a restore takes the owned points only. The result is zero there.
#[test]
fn nonzero_leftover_cells_resume_like_zero_ones() {
    let cfg = quick_cfg();
    let mut end = serial_ladder().last().unwrap().clone();
    for_each_leftover_row(&mut end, |_, row| assert!(row.iter().all(|&v| v == 0.0)));
    let reference = bytes(&end);
    let twin = &serial_ladder()[3];
    let mut dirty = twin.clone();
    let nr = dirty.shape.nr;
    for_each_leftover_row(&mut dirty, |a, row| {
        row.iter_mut().enumerate().for_each(|(i, v)| *v = 1.0 + (a * nr + i) as f64)
    });
    assert!(bytes(&dirty) != bytes(twin), "the fixture must differ from its twin");
    for layout in [None, Some((1, 1)), Some((1, 2)), Some((2, 2))] {
        assert!(
            resume_onto(&cfg, &dirty, layout) == reference,
            "nonzero leftover cells changed the resume onto {layout:?}"
        );
    }
}
