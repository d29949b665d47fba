//! Property tests of the fault-injection layer on the `yy-testkit`
//! harness: the schedule is a pure function of the seed, held messages
//! always arrive, a supervised universe reports exactly the rank the
//! plan killed, and collectives suffer and survive faults like any other
//! message.

use std::sync::Arc;
use std::time::Duration;
use yy_parcomm::fault::{FaultAction, FaultPlan, FaultSpec};
use yy_parcomm::stats::TrafficClass;
use yy_parcomm::universe::{FailureKind, SupervisedOpts};
use yy_parcomm::{ReduceOp, Universe};
use yy_testkit::{check_with, tk_assert, tk_assert_eq, Config, Gen};

fn random_spec(g: &mut Gen) -> FaultSpec {
    // Probabilities kept below a combined 0.5 so Deliver stays reachable.
    let delay_p = g.range_f64(0.0, 0.3);
    let duplicate_p = g.range_f64(0.0, 0.2);
    FaultSpec::seeded(g.below(u64::MAX))
        .with_delay(delay_p, Duration::from_micros(g.below(2000) + 1))
        .with_duplicate(duplicate_p)
}

/// Same seed ⇒ bitwise identical fault schedule, on a fresh plan object.
#[test]
fn same_seed_gives_identical_schedule() {
    check_with(
        Config::with_cases(32),
        "same_seed_gives_identical_schedule",
        |g| (random_spec(g), g.range_usize(2, 6)),
        |(spec, nprocs)| {
            let a = FaultPlan::new(spec.clone(), *nprocs);
            let b = FaultPlan::new(spec.clone(), *nprocs);
            for src in 0..*nprocs {
                for dst in 0..*nprocs {
                    for n in 0..32_u64 {
                        tk_assert_eq!(a.action(src, dst, n), b.action(src, dst, n));
                    }
                }
            }
            Ok(())
        },
    );
}

/// The schedule respects the spec: actions only of enabled kinds,
/// delays within `max_delay`.
#[test]
fn schedule_respects_the_spec_bounds() {
    check_with(
        Config::with_cases(32),
        "schedule_respects_the_spec_bounds",
        random_spec,
        |spec| {
            let plan = FaultPlan::new(spec.clone(), 3);
            for n in 0..256_u64 {
                match plan.action(0, 1, n) {
                    FaultAction::Deliver => {}
                    FaultAction::Delay { micros } => {
                        tk_assert!(spec.delay_p > 0.0, "delay scheduled with delay_p == 0");
                        tk_assert!(
                            micros <= spec.max_delay.as_micros() as u64,
                            "delay {micros}us exceeds max {:?}",
                            spec.max_delay
                        );
                    }
                    FaultAction::Duplicate => {
                        tk_assert!(spec.duplicate_p > 0.0, "dup scheduled with duplicate_p == 0");
                    }
                }
            }
            Ok(())
        },
    );
}

/// Held messages always arrive: under arbitrary delay/duplicate
/// probabilities (every delay is bounded by `max_delay`), a pairwise
/// exchange completes with the right values and no hang.
#[test]
fn held_messages_always_arrive() {
    check_with(
        Config::with_cases(12),
        "held_messages_always_arrive",
        |g| (random_spec(g), g.range_usize(1, 8)),
        |(spec, rounds)| {
            let plan = Arc::new(FaultPlan::new(spec.clone(), 2));
            let opts = SupervisedOpts {
                fault: Some(Arc::clone(&plan)),
                deadline: Duration::from_secs(20),
                ..SupervisedOpts::default()
            };
            let rounds = *rounds;
            let out = Universe::run_supervised(2, opts, |comm| {
                let peer = 1 - comm.rank();
                let mut got = Vec::new();
                for r in 0..rounds {
                    let v = (10 * comm.rank() + r) as f64;
                    comm.send_f64s(peer, 1, vec![v], TrafficClass::Halo);
                    got.push(comm.recv_f64s(peer, 1)[0]);
                }
                got
            });
            for (rank, r) in out.into_iter().enumerate() {
                let got = match r {
                    Ok(v) => v,
                    Err(f) => return Err(format!("rank {rank} failed: {f}")),
                };
                let want: Vec<f64> = (0..rounds).map(|r| (10 * (1 - rank) + r) as f64).collect();
                tk_assert_eq!(got, want);
            }
            Ok(())
        },
    );
}

/// A supervised universe reports the killed rank — exactly that rank,
/// exactly once, with the scheduled step.
#[test]
fn supervised_universe_reports_the_killed_rank_exactly() {
    check_with(
        Config::with_cases(16),
        "supervised_universe_reports_the_killed_rank_exactly",
        |g| {
            let nprocs = g.range_usize(2, 5);
            let victim = g.range_usize(0, nprocs);
            let step = g.below(6);
            (nprocs, victim, step)
        },
        |&(nprocs, victim, step)| {
            let plan =
                Arc::new(FaultPlan::new(FaultSpec::seeded(1).with_kill(victim, step), nprocs));
            let opts = SupervisedOpts {
                fault: Some(Arc::clone(&plan)),
                deadline: Duration::from_secs(5),
                ..SupervisedOpts::default()
            };
            // Ranks only tick (no p2p), so the kill cannot cascade.
            let out = Universe::run_supervised(nprocs, opts, |comm| {
                for s in 0..8_u64 {
                    comm.fault_tick(s);
                }
                comm.rank()
            });
            for (rank, r) in out.into_iter().enumerate() {
                if rank == victim {
                    match r {
                        Err(f) => {
                            tk_assert_eq!(f.rank, victim);
                            tk_assert_eq!(f.kind, FailureKind::InjectedKill { step });
                        }
                        Ok(_) => return Err(format!("victim rank {victim} survived")),
                    }
                } else {
                    tk_assert!(r == Ok(rank), "innocent rank {rank} reported {r:?}");
                }
            }
            tk_assert!(plan.stats().kill_fired);
            Ok(())
        },
    );
}

/// Full-duplication plans still deliver exactly once: every duplicate is
/// discarded by the mailbox sequence cursors and counted.
#[test]
fn duplicates_are_discarded_exactly_once() {
    let spec = FaultSpec::seeded(77).with_duplicate(1.0);
    let plan = Arc::new(FaultPlan::new(spec, 2));
    let opts = SupervisedOpts {
        fault: Some(Arc::clone(&plan)),
        deadline: Duration::from_secs(5),
        ..SupervisedOpts::default()
    };
    let out = Universe::run_supervised(2, opts, |comm| {
        let peer = 1 - comm.rank();
        for r in 0..10_u64 {
            comm.send_f64s(peer, 1, vec![r as f64], TrafficClass::Halo);
        }
        let mut got = Vec::new();
        for _ in 0..10 {
            got.push(comm.recv_f64s(peer, 1)[0]);
        }
        got
    });
    for r in out {
        let got = r.expect("duplication must not fail the run");
        assert_eq!(got, (0..10).map(f64::from).collect::<Vec<_>>(), "each message once, in order");
    }
    assert_eq!(plan.stats().duplicated, 20, "10 messages each way");
}

/// The split negotiation and the collectives travel the same faultable
/// path as field data. Under full duplication every one of their
/// messages is duplicated — split 2(n−1), barrier 2(n−1), broadcast
/// n−1, allreduce 2(n−1) — and under seeded delays they still
/// return the fault-free values.
#[test]
fn split_and_collectives_survive_every_message_fault() {
    check_with(
        Config::with_cases(12),
        "split_and_collectives_survive_every_message_fault",
        |g| {
            let n = g.range_usize(2, 5);
            let spec = if g.bool() {
                FaultSpec::seeded(g.below(u64::MAX)).with_duplicate(1.0)
            } else {
                FaultSpec::seeded(g.below(u64::MAX))
                    .with_delay(g.range_f64(0.0, 0.9), Duration::from_micros(g.below(2000) + 1))
            };
            (n, spec)
        },
        |(n, spec)| {
            let n = *n;
            let plan = Arc::new(FaultPlan::new(spec.clone(), n));
            let opts = SupervisedOpts {
                fault: Some(Arc::clone(&plan)),
                deadline: Duration::from_secs(20),
                ..SupervisedOpts::default()
            };
            let out = Universe::run_supervised(n, opts, |comm| {
                // One group, ranks reversed by key.
                let sub = comm.split(0, -(comm.rank() as i64));
                sub.barrier();
                let root = 1;
                let b = sub.broadcast(root, vec![sub.rank() as f64 + 0.5; 3]);
                let s = sub.allreduce_vec(&[sub.rank() as f64, 1.0], ReduceOp::Sum);
                (sub.rank(), b, s)
            });
            for (rank, r) in out.into_iter().enumerate() {
                let got = match r {
                    Ok(v) => v,
                    Err(f) => return Err(format!("rank {rank} failed: {f}")),
                };
                let sum = (n * (n - 1) / 2) as f64;
                tk_assert_eq!(got, (n - 1 - rank, vec![1.5; 3], vec![sum, n as f64]));
            }
            if spec.duplicate_p == 1.0 {
                tk_assert_eq!(plan.stats().duplicated, 7 * (n as u64 - 1));
            }
            Ok(())
        },
    );
}
