//! The universe: spawn one thread per rank and hand each a world
//! communicator. The moral equivalent of `mpirun -np N`.
//!
//! Every launch runs one spawn loop: each rank's panic is caught, marked
//! on the shared death board (which wakes every waiting receiver) and
//! classified into a [`RankFailure`] (injected kill, communication
//! error, or genuine panic) while the other ranks run to completion, so
//! a receive from a dead rank resolves to [`CommError::PeerDead`] in
//! every universe. [`Universe::run_supervised`] also bounds every
//! receive by a deadline, may install a fault plan, and returns the
//! failures as values for a supervisor to recover from.
//! [`Universe::run`] has neither, and re-raises the [`root_cause`]'s
//! panic once every rank has returned.

use crate::comm::{Comm, CommError, RuntimeCtl, WorldCore};
use crate::fault::{FaultPlan, InjectedKill};
use crate::mailbox::Mailbox;
use crate::stats::StatsCell;
use std::cell::Cell;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Once};
use std::time::Duration;
use yy_obs::RecorderSet;

/// Launcher for fixed-size rank teams.
pub struct Universe;

/// Why a supervised rank failed.
#[derive(Debug, Clone, PartialEq)]
pub enum FailureKind {
    /// The fault plan killed the rank at the given step.
    InjectedKill {
        /// Step at which the kill fired.
        step: u64,
    },
    /// A bounded receive gave up (timeout or peer death).
    Comm(CommError),
    /// Any other panic (solver assertion, health guard, bug).
    Panic,
}

/// One rank's failure, as the launcher classifies it.
#[derive(Debug, Clone, PartialEq)]
pub struct RankFailure {
    /// World rank that failed.
    pub rank: usize,
    /// Classified cause.
    pub kind: FailureKind,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for RankFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "rank {}: {}", self.rank, self.message)
    }
}

/// Options for [`Universe::run_supervised`].
pub struct SupervisedOpts {
    /// Fault plan to install (None: run clean but still supervised).
    pub fault: Option<Arc<FaultPlan>>,
    /// Deadline for every individual receive. Defaults to 5 s — long
    /// enough that a healthy-but-slow peer never trips it, short enough
    /// that a soak test finishes.
    pub deadline: Duration,
    /// Per-rank flight recorders to install (rank `r` gets
    /// `recorders.rank(r)`). The caller keeps its own `Arc`, so the
    /// rings outlive the universe — that is what makes post-mortem
    /// traces of a failed run possible. `None` (the default) leaves the
    /// comm layer's event sites as a single branch.
    pub recorders: Option<Arc<RecorderSet>>,
    /// World rank → stable node id (length `nprocs`). A re-tiling
    /// supervisor schedules a shrunk universe onto the surviving node
    /// ids so a fault plan's kill keeps addressing the same broken
    /// machine. `None` (the default) is the identity map.
    pub nodes: Option<Vec<usize>>,
}

impl Default for SupervisedOpts {
    fn default() -> Self {
        SupervisedOpts {
            fault: None,
            deadline: Duration::from_secs(5),
            recorders: None,
            nodes: None,
        }
    }
}

/// The failure that caused the others: an injected kill first, then any
/// failure other than a dead peer, then [`CommError::PeerDead`] (always
/// a consequence); ties go to the lowest rank. `None` when there is no
/// failure.
pub fn root_cause<'a>(
    failures: impl IntoIterator<Item = &'a RankFailure>,
) -> Option<&'a RankFailure> {
    failures.into_iter().min_by_key(|f| {
        let order = match f.kind {
            FailureKind::InjectedKill { .. } => 0,
            FailureKind::Comm(CommError::Timeout { .. }) | FailureKind::Panic => 1,
            FailureKind::Comm(CommError::PeerDead { .. }) => 2,
        };
        (order, f.rank)
    })
}

/// Install a panic-hook filter (once per process) that silences the
/// default "thread panicked" stderr spew for *expected* unwinds — the
/// injected kills and structured comm errors that the launcher catches
/// and reports as values. All other panics keep the default
/// output.
fn install_quiet_hook() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let quiet = info.payload().is::<InjectedKill>() || info.payload().is::<CommError>();
            if !quiet {
                default(info);
            }
        }));
    });
}

/// Classify a caught panic payload into a [`RankFailure`].
fn classify(rank: usize, payload: Box<dyn std::any::Any + Send>) -> RankFailure {
    if let Some(kill) = payload.downcast_ref::<InjectedKill>() {
        return RankFailure {
            rank,
            kind: FailureKind::InjectedKill { step: kill.step },
            message: format!("injected kill at step {}", kill.step),
        };
    }
    if let Some(err) = payload.downcast_ref::<CommError>() {
        return RankFailure { rank, kind: FailureKind::Comm(*err), message: err.to_string() };
    }
    let msg = payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&str>().copied())
        .unwrap_or("<non-string panic>");
    RankFailure { rank, kind: FailureKind::Panic, message: msg.to_string() }
}

impl Universe {
    /// The one launch: spawn `nprocs` rank threads over `ctl` and run
    /// `body` on each. A rank that unwinds is marked on the death board
    /// from its own thread, before join, and then every mailbox is
    /// woken, so peers waiting on it stop; its payload is classified as
    /// that rank's [`RankFailure`]; the other ranks run on.
    fn launch<F, R>(
        nprocs: usize,
        ctl: RuntimeCtl,
        recorders: Option<Arc<RecorderSet>>,
        body: F,
    ) -> Vec<Result<R, RankFailure>>
    where
        F: Fn(Comm) -> R + Send + Sync,
        R: Send,
    {
        assert!(nprocs >= 1, "universe needs at least one rank");
        if let Some(set) = &recorders {
            assert!(
                set.len() >= nprocs,
                "recorder set covers {} ranks but universe has {nprocs}",
                set.len()
            );
        }
        install_quiet_hook();
        let world = Arc::new(WorldCore {
            mailboxes: (0..nprocs).map(|_| Arc::new(Mailbox::new())).collect(),
            ctl,
        });
        let members: Arc<Vec<usize>> = Arc::new((0..nprocs).collect());
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..nprocs)
                .map(|rank| {
                    let comm = Comm {
                        world: Arc::clone(&world),
                        context: 0,
                        rank,
                        members: Arc::clone(&members),
                        coll_seq: Cell::new(0),
                        send_seq: RefCell::new(HashMap::new()),
                        stats: Arc::new(StatsCell::new()),
                        recorder: recorders.as_ref().map(|set| set.rank(rank)),
                    };
                    let (world, body) = (&world, &body);
                    scope.spawn(move || {
                        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(comm)))
                            .map_err(|payload| {
                                world.ctl.dead[rank].store(true, Ordering::Release);
                                world.mailboxes.iter().for_each(|mb| mb.wake_all());
                                classify(rank, payload)
                            })
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("a rank thread catches its own panic"))
                .collect()
        })
    }

    /// Run `body` on `nprocs` rank threads; returns each rank's result in
    /// rank order. Receives have no deadline (a peer's death still ends
    /// them), and there is no fault plan. Once every rank has returned,
    /// the [`root_cause`]'s panic becomes the caller's — the analogue of
    /// a failing `MPI_Abort`.
    pub fn run<F, R>(nprocs: usize, body: F) -> Vec<R>
    where
        F: Fn(Comm) -> R + Send + Sync,
        R: Send,
    {
        let ctl = RuntimeCtl::new((0..nprocs).collect(), None, None);
        let results = Self::launch(nprocs, ctl, None, body);
        if let Some(f) = root_cause(results.iter().filter_map(|r| r.as_ref().err())) {
            panic!("rank {} panicked: {}", f.rank, f.message);
        }
        // No rank failed, so every entry is `Ok`.
        results.into_iter().flatten().collect()
    }

    /// Run `body` on `nprocs` supervised rank threads: every receive is
    /// deadline-bounded, the optional fault plan injects its schedule,
    /// and a panicking rank becomes an `Err(RankFailure)` entry instead
    /// of tearing the caller down; peers blocked on it resolve to
    /// [`CommError::PeerDead`] after draining any messages it did send.
    pub fn run_supervised<F, R>(
        nprocs: usize,
        opts: SupervisedOpts,
        body: F,
    ) -> Vec<Result<R, RankFailure>>
    where
        F: Fn(Comm) -> R + Send + Sync,
        R: Send,
    {
        let nodes = opts.nodes.unwrap_or_else(|| (0..nprocs).collect());
        assert_eq!(nodes.len(), nprocs, "node map must cover every world rank");
        if let Some(plan) = &opts.fault {
            let max_node = nodes.iter().copied().max().unwrap_or(0);
            assert!(
                plan.nprocs() > max_node,
                "fault plan covers {} nodes but the universe schedules node {max_node}",
                plan.nprocs()
            );
        }
        let ctl = RuntimeCtl::new(nodes, opts.fault, Some(opts.deadline));
        Self::launch(nprocs, ctl, opts.recorders, body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultSpec;
    use crate::stats::TrafficClass;

    #[test]
    fn ranks_see_their_identity() {
        let out = Universe::run(4, |comm| (comm.rank(), comm.size()));
        assert_eq!(out, vec![(0, 4), (1, 4), (2, 4), (3, 4)]);
    }

    #[test]
    fn ring_pass_accumulates() {
        // Each rank sends its rank to the next; sum arrives back at 0.
        let out = Universe::run(5, |comm| {
            let next = (comm.rank() + 1) % comm.size();
            let prev = (comm.rank() + comm.size() - 1) % comm.size();
            if comm.rank() == 0 {
                comm.send_f64s(next, 1, vec![0.0], TrafficClass::Control);
                let v = comm.recv_f64s(prev, 1);
                v[0]
            } else {
                let v = comm.recv_f64s(prev, 1);
                comm.send_f64s(next, 1, vec![v[0] + comm.rank() as f64], TrafficClass::Control);
                -1.0
            }
        });
        assert_eq!(out[0], (1 + 2 + 3 + 4) as f64);
    }

    #[test]
    fn exchange_is_deadlock_free_with_buffered_sends() {
        // Symmetric pairwise exchange: both send first, then receive.
        let out = Universe::run(2, |comm| {
            let peer = 1 - comm.rank();
            comm.send_f64s(peer, 3, vec![comm.rank() as f64; 1000], TrafficClass::Halo);
            comm.recv_f64s(peer, 3)[0]
        });
        assert_eq!(out, vec![1.0, 0.0]);
    }

    #[test]
    fn split_forms_panels_like_the_paper() {
        // 6 ranks → Yin panel (color 0): ranks 0..3, Yang panel: 3..6,
        // exactly the MPI_COMM_SPLIT call in yycore.
        let out = Universe::run(6, |comm| {
            let color = if comm.rank() < 3 { 0 } else { 1 };
            let panel = comm.split(color, comm.rank() as i64);
            // Panel-local all-to-one: sum panel ranks at panel root.
            let sum = if panel.rank() == 0 {
                let mut s = 0.0;
                for r in 1..panel.size() {
                    s += panel.recv_f64s(r, 2)[0];
                }
                s
            } else {
                panel.send_f64s(0, 2, vec![panel.rank() as f64], TrafficClass::Control);
                -1.0
            };
            (panel.rank(), panel.size(), sum)
        });
        assert_eq!(out[0], (0, 3, 3.0));
        assert_eq!(out[3], (0, 3, 3.0));
        assert_eq!(out[1].0, 1);
        assert_eq!(out[5].0, 2);
    }

    #[test]
    fn split_key_reorders_ranks() {
        let out = Universe::run(3, |comm| {
            // Reverse order via descending keys.
            let sub = comm.split(0, -(comm.rank() as i64));
            sub.rank()
        });
        assert_eq!(out, vec![2, 1, 0]);
    }

    #[test]
    fn split_contexts_do_not_cross_match() {
        let out = Universe::run(2, |comm| {
            let a = comm.split(0, comm.rank() as i64);
            let b = comm.split(0, comm.rank() as i64);
            let peer = 1 - comm.rank();
            // Send on context B, then A; receive in A-then-B order. If
            // contexts cross-matched, values would swap.
            a.send_f64s(peer, 0, vec![1.0], TrafficClass::Control);
            b.send_f64s(peer, 0, vec![2.0], TrafficClass::Control);
            let va = a.recv_f64s(peer, 0)[0];
            let vb = b.recv_f64s(peer, 0)[0];
            (va, vb)
        });
        assert_eq!(out, vec![(1.0, 2.0), (1.0, 2.0)]);
    }

    #[test]
    fn duplicate_has_isolated_context() {
        let out = Universe::run(2, |comm| {
            let dup = comm.duplicate();
            let peer = 1 - comm.rank();
            dup.send_f64s(peer, 0, vec![7.0], TrafficClass::Control);
            comm.send_f64s(peer, 0, vec![8.0], TrafficClass::Control);
            let on_world = comm.recv_f64s(peer, 0)[0];
            let on_dup = dup.recv_f64s(peer, 0)[0];
            (on_world, on_dup)
        });
        assert_eq!(out, vec![(8.0, 7.0), (8.0, 7.0)]);
    }

    #[test]
    fn stats_meter_field_traffic() {
        let out = Universe::run(2, |comm| {
            let peer = 1 - comm.rank();
            comm.send_f64s(peer, 0, vec![0.0; 100], TrafficClass::Halo);
            comm.send_f64s(peer, 1, vec![0.0; 10], TrafficClass::Overset);
            let _ = comm.recv_f64s(peer, 0);
            let _ = comm.recv_f64s(peer, 1);
            comm.stats()
        });
        for s in out {
            assert_eq!(s.bytes(TrafficClass::Halo), 800);
            assert_eq!(s.bytes(TrafficClass::Overset), 80);
            assert!(s.max_queue_depth >= 1, "depth high-water must register");
        }
    }

    /// Regression for the `CommStats::snapshot` restructure: the
    /// mailbox-owned gauge must reach a snapshot taken via `Comm::stats`
    /// with its *live* value — queue-depth high-water from real traffic,
    /// duplicates included (the mailbox discards them before they queue).
    #[test]
    fn comm_stats_reflect_live_mailbox_depth_and_dups() {
        let plan = Arc::new(FaultPlan::new(FaultSpec::seeded(5).with_duplicate(1.0), 2));
        let opts = SupervisedOpts {
            fault: Some(Arc::clone(&plan)),
            deadline: Duration::from_secs(5),
            ..SupervisedOpts::default()
        };
        let out = Universe::run_supervised(2, opts, |comm| {
            let peer = 1 - comm.rank();
            // Two sends, received only after both arrive: the mailbox
            // must register depth ≥ 2 and deliver each message once.
            comm.send_f64s(peer, 0, vec![1.0; 8], TrafficClass::Halo);
            comm.send_f64s(peer, 1, vec![2.0; 8], TrafficClass::Halo);
            // Delivery is synchronous at post time, so after the barrier
            // both data messages sit in the mailbox — without it the
            // receiver could drain tag 0 before the peer posts tag 1 and
            // the high-water mark would race.
            comm.barrier();
            let before = comm.stats();
            let got = [comm.recv_f64s(peer, 0), comm.recv_f64s(peer, 1)];
            let after = comm.stats();
            (before, after, got)
        });
        // Every message is duplicated: the 2 × 2 data messages and the
        // barrier's 2 (one each way).
        assert_eq!(plan.stats().duplicated, 6);
        for r in out {
            let (before, after, got) = r.expect("clean run");
            assert_eq!(got, [vec![1.0; 8], vec![2.0; 8]], "each message arrives once, in order");
            assert!(
                after.max_queue_depth >= 2,
                "high-water {} must see both queued messages",
                after.max_queue_depth
            );
            // The high-water mark only grows, and both snapshots came
            // through the same live-mailbox path.
            assert!(after.max_queue_depth >= before.max_queue_depth);
        }
    }

    #[test]
    fn installed_recorders_capture_traffic_and_kills() {
        let set = Arc::new(RecorderSet::new(2, 64));
        let plan = Arc::new(FaultPlan::new(FaultSpec::seeded(3).with_kill(1, 1), 2));
        let opts = SupervisedOpts {
            fault: Some(plan),
            deadline: Duration::from_secs(5),
            recorders: Some(Arc::clone(&set)),
            ..SupervisedOpts::default()
        };
        let out = Universe::run_supervised(2, opts, |comm| {
            comm.fault_tick(0);
            let peer = 1 - comm.rank();
            comm.send_f64s(peer, 7, vec![3.0; 4], TrafficClass::Overset);
            let _ = comm.recv_f64s(peer, 7);
            comm.fault_tick(1); // kills rank 1
            comm.rank()
        });
        assert!(out[1].is_err());
        let snaps = set.snapshots();
        use yy_obs::Event;
        let has = |rank: usize, pred: &dyn Fn(&Event) -> bool| {
            snaps[rank].iter().any(|te| pred(&te.event))
        };
        assert!(has(0, &|e| matches!(e, Event::Send { peer: 1, bytes: 32, .. })));
        assert!(has(0, &|e| matches!(e, Event::Recv { peer: 1, .. })));
        assert!(
            has(1, &|e| matches!(e, Event::KillInjected { step: 1 })),
            "the kill must be on the dead rank's ring: {:?}",
            snaps[1]
        );
        assert!(!has(0, &|e| matches!(e, Event::KillInjected { .. })));
    }

    #[test]
    #[should_panic(expected = "rank 1 panicked")]
    fn rank_panic_propagates() {
        Universe::run(2, |comm| {
            if comm.rank() == 1 {
                panic!("deliberate failure");
            }
        });
    }

    /// A deadline-free wait on a peer that dies ends at its death, and
    /// the caller gets the dead peer's panic, not the waiter's
    /// `PeerDead`. Run on a spawned thread so a hang fails the test
    /// instead of wedging the suite.
    #[test]
    fn plain_wait_on_a_dying_peer_reraises_its_panic() {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let run = std::panic::catch_unwind(|| {
                Universe::run(2, |comm| {
                    if comm.rank() == 1 {
                        panic!("deliberate failure");
                    }
                    comm.recv_f64s(1, 3)
                })
            });
            let msg = run.err().and_then(|p| p.downcast_ref::<String>().cloned());
            let _ = tx.send(msg);
        });
        let msg = rx.recv_timeout(Duration::from_secs(10)).expect("Universe::run hung");
        assert_eq!(msg.as_deref(), Some("rank 1 panicked: deliberate failure"));
    }

    fn failure(rank: usize, kind: FailureKind) -> RankFailure {
        RankFailure { rank, kind, message: String::new() }
    }

    #[test]
    fn root_cause_ranks_kill_then_failure_then_peer_death() {
        let dead = |src| FailureKind::Comm(CommError::PeerDead { src_world: src, tag: 0 });
        let late = FailureKind::Comm(CommError::Timeout { src_world: 0, tag: 0, waited_ms: 9 });
        let kill = FailureKind::InjectedKill { step: 4 };
        let blamed = |list: &[RankFailure]| root_cause(list).map(|f| (f.rank, f.kind.clone()));
        assert_eq!(blamed(&[]), None);
        let list = [failure(0, dead(1)), failure(1, FailureKind::Panic)];
        assert_eq!(blamed(&list), Some((1, FailureKind::Panic)));
        let list = [failure(0, dead(2)), failure(2, late.clone()), failure(1, FailureKind::Panic)];
        assert_eq!(blamed(&list), Some((1, FailureKind::Panic)), "ties go to the lowest rank");
        let list = [failure(0, dead(2)), failure(2, late.clone())];
        assert_eq!(blamed(&list), Some((2, late)));
        let list = [failure(0, FailureKind::Panic), failure(3, kill.clone()), failure(1, dead(3))];
        assert_eq!(blamed(&list), Some((3, kill)));
        let list = [failure(2, dead(0)), failure(1, dead(0))];
        assert_eq!(blamed(&list), Some((1, dead(0))));
    }

    /// Rank 0 waits on rank 1, which panics: rank 0 fails with
    /// `PeerDead`, and the root cause is rank 1's panic.
    #[test]
    fn root_cause_blames_the_panicking_rank_not_its_waiting_peer() {
        let out = Universe::run_supervised(2, SupervisedOpts::default(), |comm| {
            if comm.rank() == 1 {
                panic!("deliberate failure");
            }
            comm.recv_f64s(1, 3)
        });
        let failures: Vec<_> = out.iter().filter_map(|r| r.as_ref().err()).collect();
        assert_eq!(failures[0].kind, FailureKind::Comm(CommError::PeerDead { src_world: 1, tag: 3 }));
        let root = root_cause(failures).expect("two ranks failed");
        assert_eq!((root.rank, &root.kind), (1, &FailureKind::Panic));
        assert_eq!(root.message, "deliberate failure");
    }

    #[test]
    fn supervised_clean_run_returns_all_ok() {
        let out = Universe::run_supervised(3, SupervisedOpts::default(), |comm| {
            let next = (comm.rank() + 1) % comm.size();
            let prev = (comm.rank() + comm.size() - 1) % comm.size();
            comm.send_f64s(next, 1, vec![comm.rank() as f64], TrafficClass::Control);
            comm.recv_f64s(prev, 1)[0]
        });
        assert_eq!(out.len(), 3);
        for (rank, r) in out.into_iter().enumerate() {
            let prev = (rank + 2) % 3;
            assert_eq!(r.expect("clean run must succeed"), prev as f64);
        }
    }

    #[test]
    fn supervised_injected_kill_is_reported_and_contained() {
        let plan = Arc::new(FaultPlan::new(FaultSpec::seeded(3).with_kill(1, 2), 3));
        let opts = SupervisedOpts {
            fault: Some(Arc::clone(&plan)),
            deadline: Duration::from_millis(500),
            ..SupervisedOpts::default()
        };
        // Ranks count steps locally (no p2p), so only rank 1 dies.
        let out = Universe::run_supervised(3, opts, |comm| {
            for step in 0..5_u64 {
                comm.fault_tick(step);
            }
            comm.rank()
        });
        assert_eq!(out[0], Ok(0));
        assert_eq!(out[2], Ok(2));
        let failure = out[1].as_ref().expect_err("rank 1 must be killed");
        assert_eq!(failure.rank, 1);
        assert_eq!(failure.kind, FailureKind::InjectedKill { step: 2 });
    }

    #[test]
    fn supervised_peer_death_unblocks_receivers() {
        let plan = Arc::new(FaultPlan::new(FaultSpec::seeded(3).with_kill(0, 0), 2));
        let opts = SupervisedOpts {
            fault: Some(Arc::clone(&plan)),
            deadline: Duration::from_secs(5),
            ..SupervisedOpts::default()
        };
        let out = Universe::run_supervised(2, opts, |comm| {
            comm.fault_tick(0);
            // Rank 1 reaches here and waits on the dead rank 0; the death
            // board must resolve this long before the 5 s deadline.
            comm.recv_f64s(0, 7)
        });
        assert!(matches!(out[0], Err(RankFailure { kind: FailureKind::InjectedKill { .. }, .. })));
        let r1 = out[1].as_ref().expect_err("rank 1's receive fails");
        assert_eq!(r1.kind, FailureKind::Comm(CommError::PeerDead { src_world: 0, tag: 7 }));
    }

    #[test]
    fn supervised_timeout_produces_structured_error() {
        let opts = SupervisedOpts { deadline: Duration::from_millis(30), ..Default::default() };
        let out = Universe::run_supervised(2, opts, |comm| {
            if comm.rank() == 1 {
                // Nobody ever sends: the bounded wait must give up.
                comm.recv_f64s(0, 9)
            } else {
                vec![]
            }
        });
        assert_eq!(out[0], Ok(vec![]));
        match &out[1].as_ref().expect_err("rank 1's receive fails").kind {
            FailureKind::Comm(CommError::Timeout { src_world: 0, tag: 9, waited_ms }) => {
                assert!(*waited_ms >= 30);
            }
            other => panic!("expected timeout, got {other:?}"),
        }
    }

    #[test]
    fn supervised_messages_sent_before_death_are_drained() {
        let plan = Arc::new(FaultPlan::new(FaultSpec::seeded(3).with_kill(0, 1), 2));
        let opts = SupervisedOpts {
            fault: Some(Arc::clone(&plan)),
            deadline: Duration::from_secs(5),
            ..SupervisedOpts::default()
        };
        let first = std::sync::Mutex::new(None);
        let out = Universe::run_supervised(2, opts, |comm| {
            if comm.rank() == 0 {
                comm.fault_tick(0);
                comm.send_f64s(1, 4, vec![11.0], TrafficClass::Control);
                comm.fault_tick(1); // dies here
                unreachable!("rank 0 must be killed at step 1");
            }
            // Rank 1: the pre-death message must arrive, the next wait
            // must report the death.
            *first.lock().unwrap() = Some(comm.recv_f64s(0, 4));
            comm.recv_f64s(0, 4);
        });
        assert_eq!(first.into_inner().unwrap(), Some(vec![11.0]));
        let r1 = out[1].as_ref().expect_err("rank 1's second receive fails");
        assert_eq!(r1.kind, FailureKind::Comm(CommError::PeerDead { src_world: 0, tag: 4 }));
    }

    /// A message held 20 ms and sent before its sender's kill still
    /// arrives, at its due time; the next wait reports the death.
    #[test]
    fn delayed_message_sent_before_death_is_received() {
        let held = Duration::from_millis(20);
        let spec = FaultSpec::seeded(3).with_delay_range(1.0, held, held).with_kill(0, 1);
        let plan = Arc::new(FaultPlan::new(spec, 2));
        let opts = SupervisedOpts { fault: Some(Arc::clone(&plan)), ..SupervisedOpts::default() };
        let first = std::sync::Mutex::new(None);
        let out = Universe::run_supervised(2, opts, |comm| {
            if comm.rank() == 0 {
                comm.fault_tick(0);
                comm.send_f64s(1, 4, vec![11.0], TrafficClass::Halo);
                comm.fault_tick(1); // dies here, before the message is due
                unreachable!("rank 0 must be killed at step 1");
            }
            *first.lock().unwrap() = Some(comm.recv_f64s(0, 4));
            comm.recv_f64s(0, 4);
        });
        assert_eq!(plan.stats().delayed, 1);
        assert_eq!(first.into_inner().unwrap(), Some(vec![11.0]));
        let r1 = out[1].as_ref().expect_err("rank 1's second receive fails");
        assert_eq!(r1.kind, FailureKind::Comm(CommError::PeerDead { src_world: 0, tag: 4 }));
    }

    /// Two universes under one plan: a delayed message nobody received
    /// in the first ends with its mailbox and never reaches the second,
    /// whose streams start afresh.
    #[test]
    fn unreceived_delay_never_reaches_the_next_universe() {
        let held = Duration::from_millis(5);
        let spec = FaultSpec::seeded(9).with_delay_range(1.0, held, held);
        let plan = Arc::new(FaultPlan::new(spec, 2));
        let run = |value: f64, receive: bool| {
            let opts = SupervisedOpts {
                fault: Some(Arc::clone(&plan)),
                deadline: Duration::from_millis(200),
                ..SupervisedOpts::default()
            };
            Universe::run_supervised(2, opts, |comm| {
                if comm.rank() == 0 {
                    comm.send_f64s(1, 5, vec![value], TrafficClass::Halo);
                    return vec![];
                }
                if receive { comm.recv_f64s(0, 5) } else { vec![] }
            })
        };
        assert!(run(1.0, false).iter().all(Result::is_ok));
        std::thread::sleep(2 * held);
        let out = run(2.0, true);
        assert_eq!(out[1], Ok(vec![2.0]), "the first universe's message leaked into the second");
        assert_eq!(plan.stats().delayed, 2);
    }

    /// Delays and duplicates under a seeded plan: the one wait
    /// plus sequence-cursor mailbox must deliver exactly-once, in order,
    /// with no hang.
    #[test]
    fn supervised_ring_survives_message_faults() {
        let spec = FaultSpec::seeded(0xFA17)
            .with_delay(0.6, Duration::from_millis(2))
            .with_duplicate(0.2);
        let plan = Arc::new(FaultPlan::new(spec, 4));
        let opts = SupervisedOpts {
            fault: Some(Arc::clone(&plan)),
            deadline: Duration::from_secs(10),
            ..SupervisedOpts::default()
        };
        let out = Universe::run_supervised(4, opts, |comm| {
            let next = (comm.rank() + 1) % comm.size();
            let prev = (comm.rank() + comm.size() - 1) % comm.size();
            let mut seen = Vec::new();
            for round in 0..20_u64 {
                comm.send_f64s(next, 2, vec![round as f64 + comm.rank() as f64], TrafficClass::Halo);
                seen.push(comm.recv_f64s(prev, 2)[0]);
            }
            seen
        });
        for (rank, r) in out.into_iter().enumerate() {
            let prev = (rank + 3) % 4;
            let seen = r.expect("faulty ring must still converge");
            let want: Vec<f64> = (0..20).map(|round| (round + prev) as f64).collect();
            assert_eq!(seen, want, "rank {rank} saw out-of-order or corrupt traffic");
        }
        let fs = plan.stats();
        assert!(
            fs.delayed + fs.duplicated > 0,
            "the seeded plan should have injected something: {fs:?}"
        );
    }

    /// A persistent kill addresses a *node id*: a shrunk universe whose
    /// node map excludes the broken node completes untouched, while one
    /// that still schedules it dies at the same step every pass.
    #[test]
    fn node_map_steers_persistent_kills_onto_survivors() {
        let plan = Arc::new(FaultPlan::new(FaultSpec::seeded(5).with_persistent_kill(1, 3), 4));
        let run = |nodes: Vec<usize>| {
            let opts = SupervisedOpts {
                fault: Some(Arc::clone(&plan)),
                deadline: Duration::from_secs(5),
                nodes: Some(nodes),
                ..SupervisedOpts::default()
            };
            Universe::run_supervised(2, opts, |comm| {
                for step in 0..6 {
                    comm.fault_tick(step);
                }
                comm.node_id()
            })
        };
        // Pass 1: node 1 is scheduled as world rank 1 and dies. Pass 2:
        // same — the fault is persistent. Pass 3: the survivor map skips
        // node 1 entirely and both ranks finish.
        for pass in 0..2 {
            let out = run(vec![0, 1]);
            assert!(out[0].is_ok(), "node 0 survives pass {pass}");
            assert!(
                matches!(&out[1], Err(f) if matches!(f.kind, FailureKind::InjectedKill { step: 3 })),
                "node 1 must die again on pass {pass}: {:?}",
                out[1]
            );
        }
        let out = run(vec![0, 2]);
        assert_eq!(out[0].as_ref().ok(), Some(&0));
        assert_eq!(out[1].as_ref().ok(), Some(&2), "world rank 1 now runs on node 2");
    }
}
