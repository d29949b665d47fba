//! Communicators: the per-rank handle for point-to-point messaging and
//! communicator management (`split`, à la `MPI_COMM_SPLIT`).
//!
//! ## Reliability layer
//!
//! Every send is stamped with a per-stream sequence number (see
//! [`crate::mailbox`]) and routed through the universe's optional
//! [`crate::fault::FaultPlan`]. Every receive is one
//! [`crate::mailbox::Mailbox::recv`]: it ends at the match, at the
//! sender's death (read from the death board) or at the universe's
//! optional deadline. The last two become a structured [`CommError`]
//! that unwinds the rank and reaches the caller as that rank's
//! [`crate::RankFailure`]. A plain universe ([`crate::Universe::run`])
//! has no deadline, so only a match or a death ends its waits.

use crate::fault::{FaultAction, FaultPlan, InjectedKill};
use crate::mailbox::{Envelope, Mailbox, Unmatched};
use crate::stats::{StatsCell, TrafficClass};
use crate::ReduceOp;
use yy_obs::event::FaultKind;
use yy_obs::{Event, FlightRecorder};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A structured communication failure: a receive that ended without its
/// message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommError {
    /// No matching message arrived within the deadline.
    Timeout {
        /// World rank of the expected sender.
        src_world: usize,
        /// The tag waited on.
        tag: u64,
        /// How long the receiver waited (milliseconds; kept integral so
        /// the error is `Eq` and cheap to match on).
        waited_ms: u64,
    },
    /// The expected sender's rank has died (panicked or was killed by
    /// fault injection) and nothing more of the awaited stream is queued.
    PeerDead {
        /// World rank of the dead sender.
        src_world: usize,
        /// The tag waited on.
        tag: u64,
    },
}

impl std::fmt::Display for CommError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommError::Timeout { src_world, tag, waited_ms } => write!(
                f,
                "receive from world rank {src_world} (tag {tag}) timed out after {waited_ms} ms"
            ),
            CommError::PeerDead { src_world, tag } => {
                write!(f, "world rank {src_world} died while awaited (tag {tag})")
            }
        }
    }
}

/// Supervision state shared by every rank of a universe: the death
/// board, the optional fault plan, and the receive deadline.
pub(crate) struct RuntimeCtl {
    /// `dead[w]` is set by the launcher the moment world rank `w`
    /// unwinds, so peers stop waiting for it.
    pub dead: Vec<AtomicBool>,
    /// World rank → stable node id. A fault plan addresses *nodes*, not
    /// world ranks: when a supervisor re-tiles a shrunk universe onto
    /// the surviving nodes, this map keeps a persistent kill pinned to
    /// the same broken machine instead of whichever rank inherited its
    /// old index. The identity map unless a supervisor passes one.
    pub nodes: Vec<usize>,
    /// Fault injection plan, if any.
    pub fault: Option<Arc<FaultPlan>>,
    /// Bound on any single receive; `None` means unbounded (plain
    /// universes, where a missing message from a live peer is a bug,
    /// not a fault).
    pub deadline: Option<Duration>,
}

impl RuntimeCtl {
    /// Control block for a universe with one rank per entry of `nodes`,
    /// none of them dead yet.
    pub fn new(
        nodes: Vec<usize>,
        fault: Option<Arc<FaultPlan>>,
        deadline: Option<Duration>,
    ) -> Self {
        let dead = nodes.iter().map(|_| AtomicBool::new(false)).collect();
        RuntimeCtl { dead, nodes, fault, deadline }
    }
}

/// Shared state of the whole universe: one mailbox per world rank plus
/// the supervision control block.
pub(crate) struct WorldCore {
    pub mailboxes: Vec<Arc<Mailbox>>,
    pub ctl: RuntimeCtl,
}

/// A communicator handle held by one rank.
///
/// Cheap to clone-ish (it is not `Clone` on purpose: each rank owns exactly
/// one handle per communicator, like an MPI communicator handle), `Send`
/// so the universe can hand it to the rank's thread.
pub struct Comm {
    pub(crate) world: Arc<WorldCore>,
    /// This communicator's context id. Messages only match within one
    /// context.
    pub(crate) context: u64,
    /// My rank within this communicator.
    pub(crate) rank: usize,
    /// Communicator rank → world rank.
    pub(crate) members: Arc<Vec<usize>>,
    /// Sequence number for collective operations (advances identically on
    /// every member because collectives are called in the same order).
    pub(crate) coll_seq: Cell<u64>,
    /// Next message sequence number per `(dest world rank, tag)` stream
    /// on this communicator (one context per handle, so the stream key is
    /// implicit).
    pub(crate) send_seq: RefCell<HashMap<(usize, u64), u64>>,
    /// Per-rank traffic statistics (shared across the communicators of this
    /// rank so the report covers all contexts).
    pub(crate) stats: Arc<StatsCell>,
    /// Per-rank flight recorder, if the launcher installed one (only
    /// supervised universes do). `None` is the "compiled out" fast path:
    /// every event site reduces to one branch.
    pub(crate) recorder: Option<Arc<FlightRecorder>>,
}

/// Tag space partitioning: user tags live below this bound; internal
/// collective traffic above it.
pub(crate) const USER_TAG_LIMIT: u64 = 1 << 40;

/// Integers of magnitude below 2⁵³ survive the round trip through `f64`
/// exactly, which is what lets `split` negotiate over `allreduce_vec`.
const F64_EXACT_INT: u64 = 1 << 53;

impl Comm {
    /// My rank in this communicator.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in this communicator.
    #[inline]
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// Traffic statistics snapshot for this rank, including the mailbox
    /// queue-depth high-water mark.
    ///
    /// This is the one place where the mailbox-owned gauge meets the
    /// [`StatsCell`] counters: it is read here from the rank's live
    /// mailbox (a regression test in `universe.rs` holds this path to
    /// account).
    pub fn stats(&self) -> crate::CommStats {
        let mb = &self.world.mailboxes[self.members[self.rank]];
        self.stats.snapshot(mb.max_depth() as u64)
    }

    /// Charge wall-clock time to a solver pipeline phase. The counters
    /// live in the rank's shared [`StatsCell`], so they appear in the
    /// same [`crate::CommStats`] snapshot as the traffic counters no
    /// matter which of the rank's communicators records them. If a
    /// flight recorder is installed, the lap also lands there as a
    /// phase span (timestamped at its end, as the recorder documents).
    pub fn record_phase_ns(&self, phase: crate::stats::SolverPhase, ns: u64) {
        self.stats.record_phase_ns(phase, ns);
        if let Some(rec) = &self.recorder {
            rec.record(Event::Phase { phase, dur_ns: ns });
        }
    }

    /// Record a solver-level event (step begin, health violation,
    /// checkpoint, …) into this rank's flight recorder, if one is
    /// installed. One branch when there is none.
    #[inline]
    pub fn record_event(&self, event: Event) {
        if let Some(rec) = &self.recorder {
            rec.record(event);
        }
    }

    /// This rank's flight recorder, if the launcher installed one.
    pub fn recorder(&self) -> Option<&Arc<FlightRecorder>> {
        self.recorder.as_ref()
    }

    /// Fault-injection step hook: call once per solver step. If the
    /// universe's fault plan schedules this rank to die at `step`, the
    /// call unwinds with an [`InjectedKill`] payload that the launcher
    /// reports as a [`crate::RankFailure`].
    pub fn fault_tick(&self, step: u64) {
        if let Some(plan) = &self.world.ctl.fault {
            let me = self.members[self.rank];
            // Kills address stable node ids, not world ranks: after a
            // re-tile the same broken node keeps dying, and a shrunk
            // universe that stopped scheduling it stops dying.
            let node = self.world.ctl.nodes[me];
            if plan.maybe_kill(node, step) {
                // Record the kill *before* unwinding so the post-mortem
                // trace shows why this track goes silent.
                self.record_event(Event::KillInjected { step });
                std::panic::panic_any(InjectedKill { rank: me, step });
            }
        }
    }

    /// Stable node id this rank is scheduled on (the identity in plain
    /// universes; survivor-set mapping in re-tiled supervised ones).
    pub fn node_id(&self) -> usize {
        self.world.ctl.nodes[self.members[self.rank]]
    }

    /// A peer index names a member of this communicator — the
    /// `MPI_ERR_RANK` check; the solver derives every peer from its own
    /// layout, so a miss is a caller bug.
    fn check_peer(&self, peer: usize, what: &str) {
        assert!(
            peer < self.members.len(),
            "{what} rank {peer} out of range for communicator of size {}",
            self.members.len()
        );
    }

    pub(crate) fn post(&self, dest: usize, tag: u64, data: Vec<f64>, class: TrafficClass) {
        self.check_peer(dest, "destination");
        let src_world = self.members[self.rank];
        let dest_world = self.members[dest];
        let seq = {
            let mut map = self.send_seq.borrow_mut();
            let c = map.entry((dest_world, tag)).or_insert(0);
            let s = *c;
            *c += 1;
            s
        };
        let env = Envelope { src_world, context: self.context, tag, seq, data };
        self.stats.record_send(class, env.byte_len());
        self.record_event(Event::Send {
            peer: dest_world as u32,
            class,
            bytes: env.byte_len() as u64,
            tag16: tag as u16,
            seq,
        });
        let mailbox = &self.world.mailboxes[dest_world];
        let Some(plan) = &self.world.ctl.fault else {
            return mailbox.deliver(env, None);
        };
        let (kind, param) = match plan.route(src_world, dest_world, env, mailbox) {
            FaultAction::Deliver => return,
            FaultAction::Delay { micros } => (FaultKind::Delay, micros),
            FaultAction::Duplicate => (FaultKind::Duplicate, 0),
        };
        self.record_event(Event::FaultInjected { kind, peer: dest_world as u32, param });
    }

    /// Send a buffer of `f64`s to `dest` (buffered, non-blocking) — the
    /// one message type, used by halo exchange, overset interpolation
    /// and control traffic alike; its byte volume is metered under
    /// `class`.
    pub fn send_f64s(&self, dest: usize, tag: u64, data: Vec<f64>, class: TrafficClass) {
        // Tags at or above the limit belong to the collectives; a user
        // tag there would match a reduction's message.
        assert!(tag < USER_TAG_LIMIT, "user tag {tag} collides with internal tag space");
        self.post(dest, tag, data, class);
    }

    /// Wait for the next message of stream `(src_world, tag)` on this
    /// communicator until it matches, its sender dies, or the universe's
    /// deadline passes.
    fn wait_match(&self, src_world: usize, tag: u64) -> Result<Envelope, CommError> {
        let ctl = &self.world.ctl;
        let mailbox = &self.world.mailboxes[self.members[self.rank]];
        // Only a universe with a deadline reads the clock here.
        let start = ctl.deadline.map(|d| (Instant::now(), d));
        let until = start.map(|(t, d)| t + d);
        let env = mailbox
            .recv(self.context, src_world, tag, until, &ctl.dead[src_world])
            .map_err(|end| match end {
                Unmatched::SenderDead => CommError::PeerDead { src_world, tag },
                Unmatched::TimedOut => CommError::Timeout {
                    src_world,
                    tag,
                    waited_ms: start.map_or(0, |(t, _)| t.elapsed().as_millis() as u64),
                },
            })?;
        if let Some(rec) = &self.recorder {
            rec.record(Event::Recv {
                peer: src_world as u32,
                class: None, // the envelope does not carry it
                bytes: env.byte_len() as u64,
                tag16: tag as u16,
                seq: env.seq,
            });
        }
        Ok(env)
    }

    pub(crate) fn take(&self, src: usize, tag: u64) -> Envelope {
        self.check_peer(src, "source");
        match self.wait_match(self.members[src], tag) {
            Ok(env) => env,
            // Unwind with the structured error as payload so it can
            // cross the deep collective call stacks without threading
            // Results through every solver signature; the launcher
            // catches and classifies it.
            Err(e) => std::panic::panic_any(e),
        }
    }

    /// Blocking receive of `f64` data from `src`.
    ///
    /// A peer death, or a deadline overrun in a supervised universe,
    /// unwinds with a [`CommError`] payload, reported as the rank's
    /// [`crate::RankFailure`].
    pub fn recv_f64s(&self, src: usize, tag: u64) -> Vec<f64> {
        self.take(src, tag).data
    }

    /// Create sub-communicators: all callers with the same `color` form a
    /// new communicator, ranked by `(key, parent rank)` — the
    /// `MPI_COMM_SPLIT` contract. Every member of this communicator must
    /// call `split` collectively.
    pub fn split(&self, color: u64, key: i64) -> Comm {
        assert!(
            color < F64_EXACT_INT && key.unsigned_abs() < F64_EXACT_INT,
            "split color {color} and key {key} must be below 2^53 in magnitude to travel as f64"
        );
        // Allgather (color, key, parent rank) as a sum over a zero
        // vector in which each rank fills its own slot: exact, since
        // x + 0 = x. The allreduce runs as collective number `seq`, the
        // number the child context is derived from.
        let seq = self.coll_seq.get();
        let mut slots = vec![0.0; 3 * self.size()];
        slots[3 * self.rank..3 * self.rank + 3]
            .copy_from_slice(&[color as f64, key as f64, self.rank as f64]);
        let all = self.allreduce_vec(&slots, ReduceOp::Sum);
        let mut mine: Vec<(i64, usize)> = all
            .chunks_exact(3)
            .filter(|t| t[0] as u64 == color)
            .map(|t| (t[1] as i64, t[2] as usize))
            .collect();
        mine.sort_unstable();
        let members: Vec<usize> =
            mine.iter().map(|(_, parent_rank)| self.members[*parent_rank]).collect();
        // Our own slot carries our color, so the filter kept it.
        let my_new_rank = mine
            .iter()
            .position(|(_, parent_rank)| *parent_rank == self.rank)
            .expect("calling rank missing from its own split group");
        let context = derive_context(self.context, seq, color);
        Comm {
            world: Arc::clone(&self.world),
            context,
            rank: my_new_rank,
            members: Arc::new(members),
            coll_seq: Cell::new(0),
            send_seq: RefCell::new(HashMap::new()),
            stats: Arc::clone(&self.stats),
            recorder: self.recorder.clone(),
        }
    }

    /// A duplicate handle with a fresh context (like `MPI_COMM_DUP`):
    /// traffic on the duplicate never matches traffic on the original.
    pub fn duplicate(&self) -> Comm {
        let seq = self.bump_coll_seq();
        let context = derive_context(self.context, seq, u64::MAX);
        Comm {
            world: Arc::clone(&self.world),
            context,
            rank: self.rank,
            members: Arc::clone(&self.members),
            coll_seq: Cell::new(0),
            send_seq: RefCell::new(HashMap::new()),
            stats: Arc::clone(&self.stats),
            recorder: self.recorder.clone(),
        }
    }

    pub(crate) fn bump_coll_seq(&self) -> u64 {
        let s = self.coll_seq.get();
        self.coll_seq.set(s + 1);
        s
    }
}

/// Derive a child context id from (parent, collective sequence, color).
/// SplitMix-style mixing keeps distinct inputs from colliding in practice.
fn derive_context(parent: u64, seq: u64, color: u64) -> u64 {
    let mut z = parent
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(seq.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(color.wrapping_mul(0x94D0_49BB_1331_11EB))
        .wrapping_add(1);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
