//! Deterministic, seeded fault injection for the message-passing
//! substrate.
//!
//! Production MPI-class codes are tested against lossy interconnects and
//! dying ranks; this module grows that capability for the in-process
//! universe. A [`FaultPlan`] decides, *purely from a seed and per-edge
//! message counters*, what happens to the n-th message on each
//! `(src, dst)` edge:
//!
//! * **Deliver** — the common case, untouched;
//! * **Delay** — the envelope is queued in the destination mailbox at
//!   once, stamped with a due time a seeded duration up to `max_delay`
//!   ahead; no receive matches it before then, which reorders it behind
//!   later traffic (the per-stream sequence numbers in
//!   [`crate::mailbox::Mailbox`] restore order);
//! * **Duplicate** — the envelope is delivered twice; the mailbox
//!   discards the second copy by sequence number (exactly-once
//!   delivery).
//!
//! A delayed envelope never leaves the mailbox system: the receiver's one
//! wait sleeps until its due time, so no background thread exists, and a
//! universe's mailboxes end with it, so delayed traffic it never received
//! cannot reach the next universe a plan is reused for.
//!
//! The plan can also **kill one rank at a chosen step** ([`KillSpec`]):
//! the solver calls [`crate::Comm::fault_tick`] once per step, and the
//! scheduled rank unwinds with an [`InjectedKill`] panic that
//! [`crate::Universe::run_supervised`] converts into a structured
//! [`crate::universe::RankFailure`]. The kill fires exactly once per
//! plan, so a supervisor that restarts the universe from a checkpoint
//! replays the remaining steps fault-free.
//!
//! The *schedule* — which message suffers which fate — is a pure function
//! of `(seed, src, dst, edge counter)`, so two plans with the same seed
//! produce identical schedules (a property test asserts this). Wall-clock
//! release times are bounded but not bit-reproducible; they never affect
//! solver results because the reliability layer delivers exactly-once,
//! in order.

use crate::mailbox::{Envelope, Mailbox};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Kill one rank when it reaches a given step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KillSpec {
    /// Node id to kill. Node ids are stable across universe
    /// incarnations: a supervisor that re-tiles onto fewer ranks maps
    /// each new world rank onto a surviving node id ([`crate::Comm`]'s
    /// node map), so the kill keeps addressing the same "machine" no
    /// matter how the layout shrinks. In a plain universe the map is the
    /// identity and this is just the world rank.
    pub rank: usize,
    /// Step at which [`crate::Comm::fault_tick`] fires the kill.
    pub step: u64,
    /// Whether the kill replays on every pass that reaches `step`
    /// (a persistent hardware fault) instead of firing once per plan
    /// lifetime (a transient one).
    pub persistent: bool,
}

/// Seeded description of the faults to inject.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// Master seed of the schedule.
    pub seed: u64,
    /// Probability a message is delayed.
    pub delay_p: f64,
    /// Restrict delay injection to messages *sent by* this world rank
    /// (`None` delays every edge). Models one rank behind a congested
    /// link — the late-sender scenario the perf doctor attributes —
    /// without perturbing the rest of the fabric.
    pub delay_src: Option<usize>,
    /// Lower bound on an injected delay (0 by default; raising it
    /// narrows the seeded spread — `min_delay == max_delay` gives a
    /// fixed latency, the knob a latency-hiding benchmark wants).
    pub min_delay: Duration,
    /// Upper bound on an injected delay.
    pub max_delay: Duration,
    /// Probability a message is duplicated.
    pub duplicate_p: f64,
    /// Payloads smaller than this many bytes are exempt from
    /// delay/duplicate injection. Real interconnect latency is a
    /// bandwidth-and-congestion phenomenon of the bulk data plane;
    /// setting a floor keeps the control plane (dt consensus, health
    /// reductions — tens of bytes) fast while halo/overset field
    /// traffic (kilobytes and up) suffers the injected plan. 0 means
    /// everything is eligible.
    pub data_floor_bytes: usize,
    /// Scheduled rank kills. Multiple entries model a sequence of
    /// hardware losses — each node dies independently when it reaches
    /// its step.
    pub kills: Vec<KillSpec>,
}

impl FaultSpec {
    /// A plan that injects nothing (all probabilities zero, no kill).
    pub fn disabled() -> Self {
        FaultSpec {
            seed: 0,
            delay_p: 0.0,
            delay_src: None,
            min_delay: Duration::ZERO,
            max_delay: Duration::from_millis(2),
            duplicate_p: 0.0,
            data_floor_bytes: 0,
            kills: Vec::new(),
        }
    }

    /// A disabled spec carrying `seed`, ready for the builder methods.
    pub fn seeded(seed: u64) -> Self {
        FaultSpec { seed, ..FaultSpec::disabled() }
    }

    /// Set the delay probability and maximum delay.
    pub fn with_delay(mut self, p: f64, max: Duration) -> Self {
        self.delay_p = p;
        self.max_delay = max;
        self
    }

    /// Set the delay probability with explicit `[min, max]` bounds.
    pub fn with_delay_range(mut self, p: f64, min: Duration, max: Duration) -> Self {
        assert!(min <= max, "min_delay must not exceed max_delay");
        self.delay_p = p;
        self.min_delay = min;
        self.max_delay = max;
        self
    }

    /// Delay only messages sent by node `src` (see
    /// [`FaultSpec::delay_src`]).
    pub fn with_delay_src(mut self, src: usize) -> Self {
        self.delay_src = Some(src);
        self
    }

    /// Exempt payloads under `bytes` from injection (see
    /// [`FaultSpec::data_floor_bytes`]).
    pub fn with_data_floor(mut self, bytes: usize) -> Self {
        self.data_floor_bytes = bytes;
        self
    }

    /// Set the duplication probability.
    pub fn with_duplicate(mut self, p: f64) -> Self {
        self.duplicate_p = p;
        self
    }

    /// Schedule a one-shot rank kill. Each call adds another kill.
    pub fn with_kill(mut self, rank: usize, step: u64) -> Self {
        self.kills.push(KillSpec { rank, step, persistent: false });
        self
    }

    /// Schedule a persistent rank kill: the node dies at `step` on
    /// *every* pass, modelling broken hardware. A retry-only supervisor
    /// can never get past it; survival requires excluding the node and
    /// re-tiling onto the remainder.
    pub fn with_persistent_kill(mut self, rank: usize, step: u64) -> Self {
        self.kills.push(KillSpec { rank, step, persistent: true });
        self
    }

    /// Pre-flight validation against a universe of `nprocs` ranks: each
    /// probability finite in `[0, 1]`, their sum at most 1, and every
    /// kill rank and `delay_src` a rank that exists (a fault aimed past
    /// the layout would silently never fire).
    /// Names are the CLI keys.
    pub fn check(&self, nprocs: usize) -> Result<(), String> {
        let probs = [("delay", self.delay_p), ("dup", self.duplicate_p)];
        for (key, p) in probs {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("{key} must be a probability in [0, 1] (got {p})"));
            }
        }
        let sum: f64 = probs.iter().map(|(_, p)| p).sum();
        if sum > 1.0 + 1e-12 {
            return Err(format!("delay + dup must sum to at most 1 (got {sum})"));
        }
        let targets = self.kills.iter().map(|k| ("kill_rank", k.rank));
        for (key, rank) in targets.chain(self.delay_src.map(|r| ("delay_src", r))) {
            if rank >= nprocs {
                return Err(format!(
                    "{key}={rank} names no rank of the {nprocs}-rank layout (ranks 0..={})",
                    nprocs.saturating_sub(1)
                ));
            }
        }
        Ok(())
    }

    /// Whether this spec injects anything at all.
    pub fn is_active(&self) -> bool {
        self.delay_p > 0.0 || self.duplicate_p > 0.0 || !self.kills.is_empty()
    }
}

/// The seeded fate of one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Deliver normally.
    Deliver,
    /// Hold the message for `micros` microseconds.
    Delay {
        /// Injected latency in microseconds.
        micros: u64,
    },
    /// Deliver the message twice.
    Duplicate,
}

/// Panic payload used for an injected rank kill; recognised by
/// [`crate::Universe::run_supervised`].
#[derive(Debug, Clone, Copy)]
pub struct InjectedKill {
    /// The killed world rank.
    pub rank: usize,
    /// The step at which the kill fired.
    pub step: u64,
}

/// Counters of injected events (monotonic over the plan's lifetime).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Messages delayed.
    pub delayed: u64,
    /// Messages duplicated.
    pub duplicated: u64,
    /// Whether the scheduled kill has fired.
    pub kill_fired: bool,
}

/// A live fault injector: the seeded schedule, its edge counters and
/// its kill latches.
///
/// One plan can outlive several universe incarnations — a supervisor
/// restarting from a checkpoint keeps the same plan so the one-shot kill
/// stays fired. Delayed messages live in the mailboxes, which end with
/// their universe, so nothing of one incarnation reaches the next.
pub struct FaultPlan {
    spec: FaultSpec,
    /// Number of nodes the plan covers.
    nprocs: usize,
    /// Message counter per (src, dst) edge. Senders are single threads,
    /// but different edges share the map, hence the mutex.
    edges: Mutex<HashMap<(usize, usize), u64>>,
    /// One fired flag per entry of `spec.kills` (one-shot kills latch).
    kill_fired: Vec<AtomicBool>,
    delayed: AtomicU64,
    duplicated: AtomicU64,
}

impl FaultPlan {
    /// Build a plan for a universe of `nprocs` ranks. Panics on a spec
    /// [`FaultSpec::check`] refuses: launchers run that check first and
    /// report its `Err`, so a bad spec here is a caller bug.
    pub fn new(spec: FaultSpec, nprocs: usize) -> Self {
        if let Err(e) = spec.check(nprocs) {
            panic!("{e}");
        }
        let kill_fired = spec.kills.iter().map(|_| AtomicBool::new(false)).collect();
        FaultPlan {
            spec,
            nprocs,
            edges: Mutex::new(HashMap::new()),
            kill_fired,
            delayed: AtomicU64::new(0),
            duplicated: AtomicU64::new(0),
        }
    }

    /// The spec this plan was built from.
    pub fn spec(&self) -> &FaultSpec {
        &self.spec
    }

    /// Number of ranks this plan covers.
    pub fn nprocs(&self) -> usize {
        self.nprocs
    }

    /// The seeded fate of the `n`-th message on edge `src → dst`. Pure:
    /// two plans with the same seed agree everywhere.
    pub fn action(&self, src: usize, dst: usize, n: u64) -> FaultAction {
        let s = &self.spec;
        let h = schedule_hash(s.seed, src as u64, dst as u64, n);
        let u = (h >> 11) as f64 * (1.0 / ((1u64 << 53) as f64));
        let h2 = mix64(h ^ 0xD6E8_FEB8_6659_FD93);
        if u < s.delay_p {
            // A targeted delay band leaves other senders' messages
            // untouched (no re-roll, so the schedule stays pure).
            if s.delay_src.is_some_and(|t| t != src) {
                return FaultAction::Deliver;
            }
            let lo = s.min_delay.as_micros() as u64;
            let span = (s.max_delay.as_micros() as u64).saturating_sub(lo).max(1);
            FaultAction::Delay { micros: lo + h2 % span }
        } else if u < s.delay_p + s.duplicate_p {
            FaultAction::Duplicate
        } else {
            FaultAction::Deliver
        }
    }

    /// Route one envelope from `src` to `dst`'s mailbox, applying the
    /// scheduled fault. Called by the sender's thread under the comm
    /// layer; returns the action applied so the caller can record the
    /// injection in its flight recorder.
    pub(crate) fn route(
        &self,
        src: usize,
        dst: usize,
        env: Envelope,
        mailbox: &Mailbox,
    ) -> FaultAction {
        if env.byte_len() < self.spec.data_floor_bytes {
            mailbox.deliver(env, None);
            return FaultAction::Deliver;
        }
        let n = {
            let mut edges = self.edges.lock().unwrap_or_else(|p| p.into_inner());
            let c = edges.entry((src, dst)).or_insert(0);
            let n = *c;
            *c += 1;
            n
        };
        let action = self.action(src, dst, n);
        match action {
            FaultAction::Deliver => mailbox.deliver(env, None),
            FaultAction::Delay { micros } => {
                self.delayed.fetch_add(1, Ordering::Relaxed);
                mailbox.deliver(env, Some(Instant::now() + Duration::from_micros(micros)));
            }
            FaultAction::Duplicate => {
                self.duplicated.fetch_add(1, Ordering::Relaxed);
                // The original goes first, so the receiver keeps the
                // sender's buffer (and its capacity) and the mailbox
                // discards the copy.
                let copy = env.clone();
                mailbox.deliver(env, None);
                mailbox.deliver(copy, None);
            }
        }
        action
    }

    /// Whether the node `rank` must die now, at `step`. A one-shot kill
    /// fires at most once per plan lifetime (surviving supervisor
    /// restarts); a persistent kill fires on every pass that reaches
    /// `step` — the node is broken until the supervisor stops scheduling
    /// work on it.
    pub fn maybe_kill(&self, rank: usize, step: u64) -> bool {
        for (k, fired) in self.spec.kills.iter().zip(&self.kill_fired) {
            if k.rank != rank || k.step != step {
                continue;
            }
            if k.persistent {
                fired.store(true, Ordering::Release);
                return true;
            }
            if !fired.swap(true, Ordering::AcqRel) {
                return true;
            }
        }
        false
    }

    /// Injection counters so far.
    pub fn stats(&self) -> FaultStats {
        FaultStats {
            delayed: self.delayed.load(Ordering::Relaxed),
            duplicated: self.duplicated.load(Ordering::Relaxed),
            kill_fired: self.kill_fired.iter().any(|f| f.load(Ordering::Relaxed)),
        }
    }
}

/// SplitMix64 finalizer (same mixer the workspace PRNG seeds with; kept
/// local so `yy-parcomm` stays dependency-free).
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn schedule_hash(seed: u64, src: u64, dst: u64, n: u64) -> u64 {
    let mut h = seed ^ 0x9E37_79B9_7F4A_7C15;
    for w in [src, dst, n] {
        h = mix64(h ^ w.wrapping_mul(0xA24B_AED4_963E_E407));
    }
    mix64(h)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mailbox::Unmatched;

    fn env(src: usize, seq: u64) -> Envelope {
        Envelope { src_world: src, context: 0, tag: 0, seq, data: vec![seq as f64] }
    }

    #[test]
    fn schedule_is_deterministic_and_seed_dependent() {
        let spec = FaultSpec::seeded(42)
            .with_delay(0.2, Duration::from_millis(1))
            .with_duplicate(0.2);
        let a = FaultPlan::new(spec.clone(), 4);
        let b = FaultPlan::new(spec.clone(), 4);
        let c = FaultPlan::new(FaultSpec { seed: 43, ..spec }, 4);
        let mut differs = false;
        for src in 0..4 {
            for dst in 0..4 {
                for n in 0..64 {
                    assert_eq!(a.action(src, dst, n), b.action(src, dst, n));
                    differs |= a.action(src, dst, n) != c.action(src, dst, n);
                }
            }
        }
        assert!(differs, "different seeds should give different schedules");
    }

    #[test]
    fn disabled_spec_always_delivers() {
        let plan = FaultPlan::new(FaultSpec::disabled(), 2);
        for n in 0..100 {
            assert_eq!(plan.action(0, 1, n), FaultAction::Deliver);
        }
        assert!(!FaultSpec::disabled().is_active());
    }

    /// A delayed envelope waits in the destination mailbox: a receive
    /// that gives up before its due time leaves it queued, and a receive
    /// with no deadline takes it once due.
    #[test]
    fn delayed_message_is_matched_at_its_due_time() {
        let held = Duration::from_millis(50);
        let plan = FaultPlan::new(FaultSpec::seeded(7).with_delay_range(1.0, held, held), 2);
        let mb = Mailbox::new();
        let live = AtomicBool::new(false);
        let sent = Instant::now();
        plan.route(0, 1, env(0, 0), &mb);
        assert_eq!(mb.pending(), 1, "the delayed message waits in the mailbox");
        let early = mb.recv(0, 0, 0, Some(sent), &live);
        assert_eq!(early.err(), Some(Unmatched::TimedOut), "matched before its due time");
        assert_eq!(mb.pending(), 1);
        let got = mb.recv(0, 0, 0, None, &live).expect("matched once due");
        assert_eq!(got.data, vec![0.0]);
        assert!(sent.elapsed() >= held);
        assert_eq!(plan.stats().delayed, 1);
    }

    #[test]
    fn duplicate_is_deduplicated_by_the_mailbox() {
        let spec = FaultSpec { duplicate_p: 1.0, ..FaultSpec::seeded(7) };
        let plan = FaultPlan::new(spec, 2);
        let mb = Mailbox::new();
        plan.route(0, 1, env(0, 0), &mb);
        assert_eq!(plan.stats().duplicated, 1);
        assert_eq!(mb.pending(), 1, "second copy must be discarded");
        assert_eq!(mb.dups_discarded(), 1);
    }

    #[test]
    fn kill_fires_exactly_once() {
        let plan = FaultPlan::new(FaultSpec::seeded(1).with_kill(2, 5), 4);
        assert!(!plan.maybe_kill(2, 4));
        assert!(!plan.maybe_kill(1, 5));
        assert!(plan.maybe_kill(2, 5));
        assert!(!plan.maybe_kill(2, 5), "kill is one-shot");
        assert!(plan.stats().kill_fired);
    }

    #[test]
    fn persistent_kill_replays_every_pass() {
        let plan = FaultPlan::new(FaultSpec::seeded(1).with_persistent_kill(2, 5), 4);
        assert!(!plan.maybe_kill(2, 4));
        assert!(plan.maybe_kill(2, 5));
        assert!(plan.maybe_kill(2, 5), "a persistent fault never heals");
        assert!(plan.stats().kill_fired);
        assert!(!plan.maybe_kill(3, 5), "other nodes stay alive");
    }

    #[test]
    fn targeted_delay_only_afflicts_its_source() {
        let spec = FaultSpec::seeded(3)
            .with_delay_range(1.0, Duration::from_micros(500), Duration::from_micros(500))
            .with_delay_src(2);
        let plan = FaultPlan::new(spec, 4);
        for src in 0..4 {
            for n in 0..32 {
                let a = plan.action(src, (src + 1) % 4, n);
                if src == 2 {
                    assert_eq!(a, FaultAction::Delay { micros: 500 }, "src {src} msg {n}");
                } else {
                    assert_eq!(a, FaultAction::Deliver, "src {src} msg {n}");
                }
            }
        }
        // Targeting still counts as an active plan.
        assert!(plan.spec().is_active());
    }
}
