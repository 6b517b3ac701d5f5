//! The discrete-event delivery substrate.
//!
//! The round engine in [`crate::engine`] is lockstep: every message sent
//! in round `r` arrives in round `r`. This module adds the asynchronous
//! counterpart — an [`EventNet`] that routes the same protocol messages
//! ([`raptee::wire::Message`] payloads) through a deterministic
//! binary-heap [`EventQueue`] ordered by `(time, seq)`, with per-link
//! latency ([`LatencyModel`]), partition/healing schedules
//! ([`PartitionWindow`]) and NAT-like asymmetric reachability
//! ([`Reachability::Nat`]).
//!
//! The protocol cores are *not* rewritten: [`crate::engine::Simulation`]
//! keeps its phase-parallel round structure and per-node round timers,
//! and consults the substrate at exactly the points where a message
//! leaves a node — each honest or adversarial push, each pull
//! request/answer exchange. A message whose arrival time falls inside
//! the sending round is delivered through the unchanged historical code
//! path; a message that crosses a round boundary is queued as a timed
//! [`Envelope`] and drained into the receiving round by
//! [`EventNet::begin_round`] (a `SelfNotif` round-timer event marks each
//! round boundary on the same queue). With the all-zero
//! [`EventNetConfig`] every gate is a pass-through, which is why the
//! event engine reproduces the round engine **bit-for-bit** at zero
//! latency (`tests/asynchrony.rs`).
//!
//! # Determinism
//!
//! Latency draws and round-timer offsets are *hash-derived* from
//! `(seed, link, message counter)` — no shared RNG stream is consumed,
//! so enabling the substrate never perturbs the protocol or loss RNG
//! draw order. All queue mutations happen in the engine's sequential
//! control passes, so the `(time, seq)` order — and therefore every
//! delivery — is independent of `RAYON_NUM_THREADS` (pinned by the
//! event-family goldens in `tests/determinism.rs`).

use crate::engine::Simulation;
use crate::metrics::{NetRunStats, RunResult};
use crate::scenario::{
    EventNetConfig, LatencyModel, NetworkModel, PartitionWindow, Reachability, Scenario,
};
use raptee::wire::Message;
use raptee_net::{NodeId, NodeIdx};
use raptee_util::rng::{hash_unit, mix64};
use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, HashMap, HashSet};

/// A deterministic min-ordered event queue.
///
/// Entries pop in ascending `(time, seq)` order; `seq` is assigned
/// monotonically at push time, so simultaneous events pop in insertion
/// order and every key is unique — pop order is a pure function of the
/// pushed `(time, seq)` pairs, invariant under heap-internal layout and
/// (via [`EventQueue::push_raw`]) under insertion-order permutations of
/// explicit keys. The scheduler property tests in `tests/asynchrony.rs`
/// pin both facts.
#[derive(Debug, Clone)]
pub struct EventQueue<T> {
    heap: BinaryHeap<Entry<T>>,
    next_seq: u64,
}

#[derive(Debug, Clone)]
struct Entry<T> {
    time: u64,
    seq: u64,
    payload: T,
}

// Manual ordering on (time, seq) only — the payload never participates,
// so T needs no Ord. Reversed, because BinaryHeap is a max-heap and we
// want the earliest event on top.
impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        (self.time, self.seq) == (other.time, other.seq)
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedules `payload` at `time`, assigning the next sequence number
    /// (the deterministic same-time tiebreak). Returns the assigned seq.
    pub fn push(&mut self, time: u64, payload: T) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { time, seq, payload });
        seq
    }

    /// Schedules `payload` under an explicit `(time, seq)` key — the
    /// property-test hook for insertion-permutation invariance. Keeps
    /// the auto-assign counter ahead of every explicit seq so mixed use
    /// stays collision-free.
    pub fn push_raw(&mut self, time: u64, seq: u64, payload: T) {
        self.next_seq = self.next_seq.max(seq + 1);
        self.heap.push(Entry { time, seq, payload });
    }

    /// Pops the earliest event as `(time, seq, payload)`.
    pub fn pop(&mut self) -> Option<(u64, u64, T)> {
        self.heap.pop().map(|e| (e.time, e.seq, e.payload))
    }

    /// Pops the earliest event only if it is scheduled strictly before
    /// `horizon`.
    pub fn pop_before(&mut self, horizon: u64) -> Option<(u64, u64, T)> {
        if self.heap.peek().is_some_and(|e| e.time < horizon) {
            self.pop()
        } else {
            None
        }
    }

    /// The earliest scheduled time, if any.
    pub fn peek_time(&self) -> Option<u64> {
        self.heap.peek().map(|e| e.time)
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

/// Which delivery bucket a queued push belongs to: the honest
/// counting-sorted run or the adversary's run. The split cannot be
/// derived from the advertised identity (injected poisoned nodes
/// advertise honest-range IDs through the adversary's lane), so the lane
/// travels with the envelope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lane {
    /// Honest pushes — delivered before the adversary's, as in the round
    /// engine.
    Honest,
    /// Adversarial pushes.
    Adversary,
}

/// A timed protocol event in flight. The payload is the wire-level
/// [`Message`]; routing metadata (receiver, lane, partition-hold flag)
/// rides alongside it.
#[derive(Debug, Clone)]
pub enum Envelope {
    /// A round-timer tick: the boundary event that opens round `round`.
    /// One is scheduled per round at construction;
    /// [`EventNet::begin_round`] consumes it.
    SelfNotif {
        /// The round this tick opens.
        round: usize,
    },
    /// A push request in flight ([`Message::Push`]).
    Request {
        /// Absolute actor index of the receiver.
        dst: u32,
        /// Honest or adversarial delivery bucket.
        lane: Lane,
        /// Whether a partition cut held this message back.
        held: bool,
        /// The wire payload.
        msg: Message,
    },
    /// A pull answer in flight ([`Message::PullAnswer`]).
    Reply {
        /// Correct-population index of the requester.
        ci: u32,
        /// The responder's wire identity.
        from: NodeId,
        /// Whether a partition cut held this message back.
        held: bool,
        /// Exchange nonce: every copy of the same answer (deadline
        /// retransmits, injected duplicates) carries the same value, so
        /// the engine's dedup applies at most one.
        nonce: u64,
        /// The wire payload.
        msg: Message,
    },
}

/// A pull answer due this round, drained from the queue by
/// [`EventNet::begin_round`] and injected at the head of the requester's
/// pull phase.
#[derive(Debug, Clone)]
pub struct DueAnswer {
    /// Correct-population index of the requester.
    pub ci: u32,
    /// The responder's wire identity.
    pub from: NodeId,
    /// Exchange nonce — pass to [`EventNet::accept_answer`] before
    /// applying; duplicates of an already-applied answer return `false`.
    pub nonce: u64,
    /// The answered view.
    pub ids: Vec<NodeId>,
}

/// The substrate's verdict on one pull exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PullGate {
    /// The round trip completes within the sending round: run the
    /// historical inline exchange unchanged.
    Inline,
    /// No connection: the target is NAT-blocked or behind an active
    /// partition cut. The requester learns nothing (and, unlike a crash
    /// timeout, drops nothing — there is no stale-link signal).
    Refused,
    /// The round trip crosses a round boundary: materialise the answer
    /// now (the responder's state at request time) and deliver it in
    /// round `round`.
    Deferred {
        /// Delivery round of the answer.
        round: usize,
        /// Whether a partition cut held the answer back.
        held: bool,
    },
}

/// The event-driven delivery substrate of one run (`None` under
/// [`NetworkModel::Rounds`]). Owned by [`Simulation`]; consulted from
/// the sequential control passes only.
#[derive(Debug, Clone)]
pub struct EventNet {
    cfg: EventNetConfig,
    /// Hash seed (scenario seed XOR a domain salt — derived, never drawn
    /// from the master RNG, so construction leaves the golden draw
    /// sequences untouched).
    seed: u64,
    total: usize,
    rounds: usize,
    /// First NAT-ted absolute actor index (== `total` when reachability
    /// is full).
    natted_from: usize,
    /// Punched NAT holes: `(natted node, peer) -> round of last outbound
    /// contact`. A plain HashMap — never iterated, only point-queried,
    /// so its order cannot leak into results.
    holes: HashMap<(u32, u32), usize>,
    /// Per-message counter salting the latency hash, bumped in
    /// sequential control order.
    msg_seq: u64,
    /// Counter salting the fault-injection hash (retry jitter,
    /// duplicate/reorder draws). A stream of its own: fault draws never
    /// advance `msg_seq`, so the protocol-visible latency sequence of a
    /// run is identical whether the injectors are on or off.
    fault_seq: u64,
    /// Next exchange nonce (0 is never issued).
    next_nonce: u64,
    /// Nonces whose answer has already been applied (point-queried
    /// only — set order cannot leak into results).
    seen_nonces: HashSet<u64>,
    /// Retirement schedule bounding `seen_nonces`: `(last possible
    /// arrival round, nonce)` min-heap, swept at each round open. Every
    /// copy of a nonce is queued at `queue_answer` time, so its last
    /// arrival round is known exactly — the sweep can never evict a
    /// nonce that could still be presented, keeping dedup behaviour
    /// byte-identical while the set stays bounded on long runs.
    nonce_retire: BinaryHeap<Reverse<(usize, u64)>>,
    /// Deadline-expired answer copies of the pull currently being
    /// gated: `(arrival tick, held)` recorded by the retry loop, queued
    /// (with the shared nonce) when the engine materialises the answer.
    dup_pending: Vec<(u64, bool)>,
    queue: EventQueue<Envelope>,
    /// This round's due pushes, honest lane: `(receiver, advertised)`
    /// pairs ready to head the survivor list.
    due_honest: Vec<(u32, NodeIdx)>,
    /// This round's due pushes, adversary lane.
    due_byz: Vec<(u32, NodeIdx)>,
    /// This round's due pull answers, stably sorted by requester.
    due_answers: Vec<DueAnswer>,
    stats: NetRunStats,
}

impl EventNet {
    /// Builds the substrate for `scenario`, or `None` under the round
    /// model. Pure derivation from the scenario — consumes no RNG.
    pub fn from_scenario(scenario: &Scenario) -> Option<Self> {
        match &scenario.network {
            NetworkModel::Rounds => None,
            NetworkModel::Events(cfg) => Some(Self::new(scenario, cfg.clone())),
        }
    }

    fn new(scenario: &Scenario, cfg: EventNetConfig) -> Self {
        let total = scenario.total_actors();
        let byz = scenario.byzantine_count();
        let natted_from = match cfg.reachability {
            Reachability::Full => total,
            Reachability::Nat { fraction, .. } => {
                let correct = total - byz;
                total - ((fraction * correct as f64).ceil() as usize).min(correct)
            }
        };
        let mut queue = EventQueue::new();
        // The per-round SelfNotif ticks: the round-timer events that
        // anchor every round window on the shared queue.
        for r in 0..scenario.rounds {
            queue.push(r as u64 * cfg.round_ticks, Envelope::SelfNotif { round: r });
        }
        Self {
            seed: scenario.seed ^ 0xE7E7_4E75_C0DE_D00D,
            total,
            rounds: scenario.rounds,
            natted_from,
            holes: HashMap::new(),
            msg_seq: 0,
            fault_seq: 0,
            next_nonce: 0,
            seen_nonces: HashSet::new(),
            nonce_retire: BinaryHeap::new(),
            dup_pending: Vec::new(),
            queue,
            due_honest: Vec::new(),
            due_byz: Vec::new(),
            due_answers: Vec::new(),
            stats: NetRunStats::default(),
            cfg,
        }
    }

    /// Ticks per round (for [`RunResult::virtual_ticks`]).
    pub fn round_ticks(&self) -> u64 {
        self.cfg.round_ticks
    }

    /// Opens round `round`: consumes the round's `SelfNotif` tick and
    /// drains every envelope scheduled inside the round window into the
    /// due buckets (pushes per lane; answers stably sorted by
    /// requester).
    pub fn begin_round(&mut self, round: usize) {
        self.due_honest.clear();
        self.due_byz.clear();
        self.due_answers.clear();
        // Generation sweep: retire nonces whose last possible arrival
        // round has passed — no remaining copy can present them, so
        // removal is invisible to the dedup semantics.
        while let Some(&Reverse((last_round, nonce))) = self.nonce_retire.peek() {
            if last_round >= round {
                break;
            }
            self.nonce_retire.pop();
            if self.seen_nonces.remove(&nonce) {
                self.stats.nonce_evictions += 1;
            }
        }
        let horizon = (round as u64 + 1) * self.cfg.round_ticks;
        let mut ticked = false;
        while let Some((_, _, env)) = self.queue.pop_before(horizon) {
            match env {
                Envelope::SelfNotif { round: r } => {
                    debug_assert_eq!(r, round, "round-timer ticks fire in order");
                    ticked = true;
                }
                Envelope::Request {
                    dst,
                    lane,
                    held,
                    msg,
                } => {
                    let Message::Push { sender } = msg else {
                        unreachable!("requests carry push payloads")
                    };
                    if held {
                        self.stats.partition_released += 1;
                    }
                    let pair = (dst, NodeIdx(sender.0 as u32));
                    match lane {
                        Lane::Honest => self.due_honest.push(pair),
                        Lane::Adversary => self.due_byz.push(pair),
                    }
                }
                Envelope::Reply {
                    ci,
                    from,
                    held,
                    nonce,
                    msg,
                } => {
                    let Message::PullAnswer { ids } = msg else {
                        unreachable!("replies carry pull-answer payloads")
                    };
                    if held {
                        self.stats.partition_released += 1;
                    }
                    self.due_answers.push(DueAnswer {
                        ci,
                        from,
                        nonce,
                        ids,
                    });
                }
            }
        }
        debug_assert!(ticked, "every round window contains its SelfNotif tick");
        // Stable sort: per requester, answers keep their (time, seq)
        // arrival order.
        self.due_answers.sort_by_key(|a| a.ci);
    }

    /// Moves this round's due pushes of `lane` to the head of
    /// `survivors` (they are the *oldest* messages each receiver sees —
    /// the subsequent stable counting sort preserves that).
    pub fn drain_due_pushes(&mut self, lane: Lane, survivors: &mut Vec<(u32, NodeIdx)>) {
        let bucket = match lane {
            Lane::Honest => &mut self.due_honest,
            Lane::Adversary => &mut self.due_byz,
        };
        survivors.append(bucket);
    }

    /// Routes one push from actor `src` to actor `dst` advertising
    /// `advertised`. Returns `true` when the message lands inside the
    /// sending round (deliver through the unchanged inline path), `false`
    /// when it was queued for a later round or blocked by the NAT.
    pub fn send_push(
        &mut self,
        round: usize,
        src: usize,
        dst: usize,
        advertised: NodeId,
        lane: Lane,
    ) -> bool {
        if self.natted(src) {
            // Outbound contact punches the return hole peers need to
            // reach this node.
            self.holes.insert((src as u32, dst as u32), round);
        }
        if self.natted(dst) && !self.hole_open(dst, src, round) {
            self.stats.nat_blocked += 1;
            return false;
        }
        let ticks = self.cfg.round_ticks;
        let send = round as u64 * ticks + self.offset(src);
        let (mut arrival, _) = (send + self.latency(src, dst), ());
        let held = self.partition_clamp(src, dst, &mut arrival);
        if held {
            self.stats.partition_held += 1;
        }
        let arrival_round = (arrival / ticks) as usize;
        if arrival_round <= round {
            return true;
        }
        self.stats.late_deliveries += 1;
        self.queue.push(
            arrival,
            Envelope::Request {
                dst: dst as u32,
                lane,
                held,
                msg: Message::Push { sender: advertised },
            },
        );
        false
    }

    /// Gates one pull exchange from requester `req` (absolute index) to
    /// `tgt`: refused across a NAT or an active cut, inline when the
    /// round trip fits the sending round, deferred otherwise.
    ///
    /// With [`RetryConfig`](crate::scenario::RetryConfig) enabled, each
    /// request arms a deadline timer of one round period. A refused
    /// connection re-attempts after bounded exponential backoff plus
    /// hash-derived jitter (a cut that heals before the re-attempt
    /// succeeds); an answer that would miss the deadline is treated as
    /// lost and retried, while the late copy still arrives and carries
    /// the *same* nonce — exercising the dedup in the engine's answer
    /// path. The first attempt consumes draws exactly like the
    /// retry-free gate, so the all-off config stays byte-identical.
    pub fn gate_pull(&mut self, round: usize, req: usize, tgt: usize) -> PullGate {
        debug_assert!(self.dup_pending.is_empty(), "pending copies were drained");
        let ticks = self.cfg.round_ticks;
        let retry = self.cfg.retry;
        let mut depart = round as u64 * ticks + self.offset(req);
        for attempt in 0..=retry.max_retries {
            let last = attempt == retry.max_retries;
            let depart_round = (depart / ticks) as usize;
            if depart_round >= self.rounds {
                // The run ends before this attempt fires.
                self.dup_pending.clear();
                return PullGate::Refused;
            }
            // Each attempt is an outbound contact: it re-punches the
            // requester's NAT hole at its own departure round.
            if self.natted(req) {
                self.holes.insert((req as u32, tgt as u32), depart_round);
            }
            let refused = if self.natted(tgt) && !self.hole_open(tgt, req, depart_round) {
                self.stats.nat_blocked += 1;
                true
            } else if self.cut_active(depart_round, req, tgt) {
                self.stats.refused_pulls += 1;
                true
            } else {
                false
            };
            if refused {
                if last {
                    self.dup_pending.clear();
                    return PullGate::Refused;
                }
                depart += self.backoff(attempt, req, tgt);
                continue;
            }
            let rtt = self.latency(req, tgt) + self.latency(tgt, req);
            let mut arrival = depart + rtt;
            // The answer travels back across the same pair: a cut
            // activating before it lands holds it at the boundary.
            let held = self.partition_clamp(req, tgt, &mut arrival);
            if held {
                self.stats.partition_held += 1;
            }
            if !last && arrival > depart + ticks {
                // Deadline expired: the requester assumes loss and
                // retries. The late copy is still in flight — record it
                // so the materialised answer is also delivered at this
                // arrival, under the shared nonce.
                self.dup_pending.push((arrival, held));
                depart += self.backoff(attempt, req, tgt);
                continue;
            }
            let answer_round = (arrival / ticks) as usize;
            return if answer_round <= round && self.dup_pending.is_empty() {
                PullGate::Inline
            } else {
                // Retransmit copies are pending: the exchange must go
                // through `queue_answer` so they get their payload, so
                // an in-round arrival defers to the next round.
                PullGate::Deferred {
                    round: answer_round.max(if self.dup_pending.is_empty() {
                        0
                    } else {
                        round + 1
                    }),
                    held,
                }
            };
        }
        unreachable!("the final attempt always returns")
    }

    /// One bounded-exponential-backoff delay: `base · 2^attempt` plus
    /// hash-derived jitter in `[0, base)`, counted as a retry.
    fn backoff(&mut self, attempt: u32, req: usize, tgt: usize) -> u64 {
        self.stats.retries_issued += 1;
        let base = self.cfg.retry.base_backoff;
        (base << attempt.min(16)) + self.fault_draw(req, tgt) % base.max(1)
    }

    /// Queues a materialised pull answer for delivery at `round` (as
    /// returned by [`PullGate::Deferred`]), plus every pending
    /// deadline-retransmit copy and any injected duplicate — all under
    /// one fresh nonce, so the engine applies exactly one copy.
    pub fn queue_answer(
        &mut self,
        round: usize,
        held: bool,
        ci: u32,
        from: NodeId,
        ids: Vec<NodeId>,
    ) {
        self.next_nonce += 1;
        let nonce = self.next_nonce;
        let primary = round as u64 * self.cfg.round_ticks;
        let mut copies: Vec<(u64, bool)> = vec![(primary, held)];
        copies.append(&mut self.dup_pending);
        if self.cfg.duplicate_rate > 0.0
            && hash_unit(self.fault_draw(ci as usize, from.0 as usize)) < self.cfg.duplicate_rate
        {
            // Injected duplicate, optionally reordered by extra
            // hash-derived delay.
            let extra = if self.cfg.reorder_jitter > 0 {
                self.fault_draw(ci as usize, from.0 as usize) % (self.cfg.reorder_jitter + 1)
            } else {
                0
            };
            copies.push((primary + extra, held));
        }
        let last_arrival = copies.iter().map(|&(a, _)| a).max().unwrap_or(primary);
        self.nonce_retire.push(Reverse((
            (last_arrival / self.cfg.round_ticks) as usize,
            nonce,
        )));
        for (arrival, held) in copies {
            self.stats.late_deliveries += 1;
            self.queue.push(
                arrival,
                Envelope::Reply {
                    ci,
                    from,
                    held,
                    nonce,
                    msg: Message::PullAnswer { ids: ids.clone() },
                },
            );
        }
    }

    /// Discards the deadline-retransmit copies of the current exchange —
    /// for gated pulls that never materialise an answer (crashed or
    /// lossy responder), where the in-flight copies have no payload to
    /// carry.
    pub fn drop_pending_copies(&mut self) {
        self.dup_pending.clear();
    }

    /// Whether this answer nonce is fresh. The engine consults this
    /// before applying a due answer: the first copy claims the nonce,
    /// every later duplicate (deadline retransmit, injected copy)
    /// returns `false` and is counted as suppressed — the idempotence
    /// guarantee of the wire path.
    pub fn accept_answer(&mut self, nonce: u64) -> bool {
        if self.seen_nonces.insert(nonce) {
            true
        } else {
            self.stats.duplicates_suppressed += 1;
            false
        }
    }

    /// Takes this round's due answers (sorted by requester). The engine
    /// hands the buffer back through [`EventNet::restore_due_answers`]
    /// so the allocation is reused.
    pub fn take_due_answers(&mut self) -> Vec<DueAnswer> {
        std::mem::take(&mut self.due_answers)
    }

    /// Returns the due-answer buffer after the round consumed it.
    pub fn restore_due_answers(&mut self, mut buf: Vec<DueAnswer>) {
        buf.clear();
        self.due_answers = buf;
    }

    /// Finalises the run: anything still queued past the last round is
    /// in flight forever.
    pub fn finish(mut self) -> NetRunStats {
        while let Some((_, _, env)) = self.queue.pop() {
            if !matches!(env, Envelope::SelfNotif { .. }) {
                self.stats.in_flight_at_end += 1;
            }
        }
        self.stats
    }

    /// Read access to the running statistics (tests).
    pub fn stats(&self) -> &NetRunStats {
        &self.stats
    }

    fn natted(&self, actor: usize) -> bool {
        actor >= self.natted_from && actor < self.total
    }

    /// Whether `src` can traverse `natted_dst`'s NAT in `round`: the
    /// destination contacted `src` within the hole TTL.
    fn hole_open(&self, natted_dst: usize, src: usize, round: usize) -> bool {
        let Reachability::Nat { hole_ttl, .. } = self.cfg.reachability else {
            return true;
        };
        self.holes
            .get(&(natted_dst as u32, src as u32))
            .is_some_and(|&opened| round - opened <= hole_ttl)
    }

    /// Whether an active partition window separates `a` and `b` in
    /// `round` — a pure schedule lookup (no stream draws), used by the
    /// audit challenger to recognise targets it cannot reach.
    pub fn separated(&self, round: usize, a: usize, b: usize) -> bool {
        self.cut_active(round, a, b)
    }

    /// Whether an active partition separates `a` and `b` in `round`.
    fn cut_active(&self, round: usize, a: usize, b: usize) -> bool {
        self.cfg
            .partitions
            .iter()
            .any(|w| w.start <= round && round < w.end && Self::crosses(w, a, b))
    }

    fn crosses(w: &PartitionWindow, a: usize, b: usize) -> bool {
        (a < w.boundary) != (b < w.boundary)
    }

    /// Holds `arrival` at every partition boundary it would cross while
    /// active: a message between `a` and `b` cannot land inside a window
    /// that separates them, so its arrival is pushed to the healing
    /// round (fixpoint over overlapping windows). Returns whether any
    /// hold applied — the invariant the partition property tests pin:
    /// held messages are delayed to the heal, never dropped.
    fn partition_clamp(&self, a: usize, b: usize, arrival: &mut u64) -> bool {
        let ticks = self.cfg.round_ticks;
        let mut held = false;
        loop {
            let round = (*arrival / ticks) as usize;
            let Some(release) = self
                .cfg
                .partitions
                .iter()
                .filter(|w| w.start <= round && round < w.end && Self::crosses(w, a, b))
                .map(|w| w.end as u64 * ticks)
                .max()
            else {
                return held;
            };
            *arrival = release;
            held = true;
        }
    }

    /// Per-node round-timer offset in `[0, jitter]` ticks — the
    /// desynchronised-clocks model. Hash-derived, stable per node.
    fn offset(&self, actor: usize) -> u64 {
        if self.cfg.jitter == 0 {
            return 0;
        }
        mix64(self.seed ^ 0x00FF_5E75 ^ mix64(actor as u64)) % (self.cfg.jitter + 1)
    }

    /// One per-message latency draw on the `src -> dst` link.
    fn latency(&mut self, src: usize, dst: usize) -> u64 {
        match self.cfg.latency {
            LatencyModel::Constant(c) => c,
            LatencyModel::Uniform { min, max } => {
                let span = max - min + 1;
                min + self.draw(src, dst) % span
            }
            LatencyModel::LogNormal { mu, sigma, cap } => {
                // Box–Muller from two hash-derived uniforms in (0, 1).
                let u1 = hash_unit(self.draw(src, dst));
                let u2 = hash_unit(self.draw(src, dst));
                let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
                let lat = (mu + sigma * z).exp();
                // `as` saturates, so an extreme tail draw caps cleanly.
                (lat.round() as u64).min(cap)
            }
        }
    }

    /// The hash-derived per-message uniform: seeded by the link and a
    /// counter bumped in sequential control order — deterministic at any
    /// thread count, and independent of every protocol RNG stream.
    fn draw(&mut self, src: usize, dst: usize) -> u64 {
        self.msg_seq += 1;
        mix64(self.seed ^ mix64(((src as u64) << 32) | dst as u64) ^ mix64(self.msg_seq))
    }

    /// The fault-injection uniform (retry jitter, duplicate/reorder
    /// draws): its own salt and counter, so fault draws never shift the
    /// protocol-visible latency sequence of [`EventNet::draw`].
    fn fault_draw(&mut self, a: usize, b: usize) -> u64 {
        self.fault_seq += 1;
        mix64(
            self.seed ^ 0xD0D0_FA17 ^ mix64(((a as u64) << 32) | b as u64) ^ mix64(self.fault_seq),
        )
    }

    /// Number of rounds this substrate was built for (tests).
    pub fn rounds(&self) -> usize {
        self.rounds
    }
}

/// The event-driven engine: a thin, explicitly-named driver over
/// [`Simulation`] for scenarios on [`NetworkModel::Events`]. The
/// substrate activates transparently inside [`Simulation::new`] as well
/// — this wrapper exists so call sites (and docs) can name the engine
/// they mean, and so the network-model precondition is asserted.
pub struct EventEngine {
    sim: Simulation,
}

impl EventEngine {
    /// Builds the engine.
    ///
    /// # Panics
    ///
    /// Panics when the scenario is not on [`NetworkModel::Events`].
    pub fn new(scenario: Scenario) -> Self {
        assert!(
            matches!(scenario.network, NetworkModel::Events(_)),
            "EventEngine drives NetworkModel::Events scenarios; use Simulation for rounds"
        );
        Self {
            sim: Simulation::new(scenario),
        }
    }

    /// Executes the full run.
    pub fn run(self) -> RunResult {
        self.sim.run()
    }

    /// Executes one round (tests single-step through this).
    pub fn run_round(&mut self) {
        self.sim.run_round();
    }

    /// The underlying simulation.
    pub fn simulation(&self) -> &Simulation {
        &self.sim
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::EventNetConfig;

    #[test]
    fn queue_pops_in_time_then_seq_order() {
        let mut q = EventQueue::new();
        q.push(5, "late");
        q.push(1, "first");
        q.push(5, "later"); // same time, higher seq
        q.push(2, "second");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, _, p)| p)).collect();
        assert_eq!(order, ["first", "second", "late", "later"]);
    }

    #[test]
    fn queue_pop_before_respects_horizon() {
        let mut q = EventQueue::new();
        q.push(10, 'a');
        q.push(20, 'b');
        assert_eq!(q.pop_before(20).map(|(t, _, p)| (t, p)), Some((10, 'a')));
        assert_eq!(q.pop_before(20), None, "horizon is exclusive");
        assert_eq!(q.peek_time(), Some(20));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn push_raw_keys_decide_order_regardless_of_insertion() {
        let keys = [(3u64, 0u64), (1, 7), (1, 2), (9, 1)];
        let mut a = EventQueue::new();
        let mut b = EventQueue::new();
        for &(t, s) in &keys {
            a.push_raw(t, s, (t, s));
        }
        for &(t, s) in keys.iter().rev() {
            b.push_raw(t, s, (t, s));
        }
        let pa: Vec<_> = std::iter::from_fn(|| a.pop()).collect();
        let pb: Vec<_> = std::iter::from_fn(|| b.pop()).collect();
        assert_eq!(pa, pb);
        assert_eq!(
            pa.iter().map(|&(t, s, _)| (t, s)).collect::<Vec<_>>(),
            vec![(1, 2), (1, 7), (3, 0), (9, 1)]
        );
    }

    fn net(cfg: EventNetConfig) -> EventNet {
        let scenario = Scenario {
            n: 100,
            rounds: 40,
            network: NetworkModel::Events(cfg),
            ..Scenario::default()
        };
        scenario.validate();
        EventNet::from_scenario(&scenario).expect("events model")
    }

    #[test]
    fn zero_latency_config_is_a_pass_through() {
        let mut net = net(EventNetConfig::default());
        net.begin_round(0);
        for dst in 1..50 {
            assert!(net.send_push(0, 0, dst, NodeId(0), Lane::Honest));
            assert_eq!(net.gate_pull(0, 0, dst), PullGate::Inline);
        }
        assert_eq!(net.stats().late_deliveries, 0);
        let stats = net.finish();
        assert_eq!(stats, NetRunStats::default());
    }

    #[test]
    fn constant_latency_defers_by_whole_rounds() {
        let mut net = net(EventNetConfig {
            latency: LatencyModel::Constant(2500),
            ..EventNetConfig::default()
        });
        net.begin_round(0);
        // 2500 ticks at 1000 ticks/round: arrival in round 2.
        assert!(!net.send_push(0, 3, 7, NodeId(3), Lane::Honest));
        match net.gate_pull(0, 4, 8) {
            PullGate::Deferred { round, held } => {
                assert_eq!(round, 5, "round trip is two one-way draws");
                assert!(!held);
            }
            g => panic!("expected a deferred answer, got {g:?}"),
        }
        net.begin_round(1);
        let mut survivors = Vec::new();
        net.drain_due_pushes(Lane::Honest, &mut survivors);
        assert!(survivors.is_empty(), "not due yet");
        net.begin_round(2);
        net.drain_due_pushes(Lane::Honest, &mut survivors);
        assert_eq!(survivors, vec![(7, NodeIdx(3))]);
    }

    #[test]
    fn partitions_hold_messages_until_heal() {
        let mut net = net(EventNetConfig {
            partitions: vec![PartitionWindow {
                start: 0,
                end: 10,
                boundary: 50,
            }],
            ..EventNetConfig::default()
        });
        net.begin_round(0);
        // Same side: unaffected.
        assert!(net.send_push(0, 1, 2, NodeId(1), Lane::Honest));
        // Across the cut: held to the healing round, not dropped.
        assert!(!net.send_push(0, 1, 60, NodeId(1), Lane::Honest));
        assert_eq!(net.stats().partition_held, 1);
        assert_eq!(net.gate_pull(0, 1, 60), PullGate::Refused);
        assert_eq!(net.stats().refused_pulls, 1);
        let mut survivors = Vec::new();
        for r in 1..10 {
            net.begin_round(r);
            net.drain_due_pushes(Lane::Honest, &mut survivors);
            assert!(survivors.is_empty(), "round {r} is inside the cut");
        }
        net.begin_round(10);
        net.drain_due_pushes(Lane::Honest, &mut survivors);
        assert_eq!(survivors, vec![(60, NodeIdx(1))], "released at the heal");
        assert_eq!(net.stats().partition_released, 1);
        assert_eq!(net.finish().in_flight_at_end, 0);
    }

    #[test]
    fn nat_blocks_unsolicited_inbound_until_hole_punched() {
        // 100 actors, 10 Byzantine, fraction 0.5 of the 90 correct: the
        // last 45 actors (55..100) are NAT-ted.
        let mut net = net(EventNetConfig {
            reachability: Reachability::Nat {
                fraction: 0.5,
                hole_ttl: 2,
            },
            ..EventNetConfig::default()
        });
        net.begin_round(0);
        // Unsolicited inbound to a NAT-ted node bounces.
        assert!(!net.send_push(0, 3, 70, NodeId(3), Lane::Honest));
        assert_eq!(net.stats().nat_blocked, 1);
        // The NAT-ted node contacts 3 (outbound always passes)...
        assert!(net.send_push(0, 70, 3, NodeId(70), Lane::Honest));
        // ...which punches the return hole.
        assert!(net.send_push(0, 3, 70, NodeId(3), Lane::Honest));
        net.begin_round(1);
        net.begin_round(2);
        assert!(net.send_push(2, 3, 70, NodeId(3), Lane::Honest), "ttl 2");
        net.begin_round(3);
        assert!(
            !net.send_push(3, 3, 70, NodeId(3), Lane::Honest),
            "hole expired"
        );
        // A pull from the NAT-ted node punches holes too.
        assert_eq!(net.gate_pull(3, 70, 4), PullGate::Inline);
        assert!(net.send_push(3, 4, 70, NodeId(4), Lane::Honest));
    }

    #[test]
    fn deferred_answers_sort_stably_by_requester() {
        let mut net = net(EventNetConfig::default());
        net.queue_answer(1, false, 7, NodeId(40), vec![NodeId(1)]);
        net.queue_answer(1, false, 2, NodeId(41), vec![NodeId(2)]);
        net.queue_answer(1, false, 7, NodeId(42), vec![NodeId(3)]);
        net.begin_round(0);
        assert!(net.take_due_answers().is_empty());
        net.restore_due_answers(Vec::new());
        net.begin_round(1);
        let due = net.take_due_answers();
        let order: Vec<(u32, NodeId)> = due.iter().map(|a| (a.ci, a.from)).collect();
        assert_eq!(
            order,
            vec![(2, NodeId(41)), (7, NodeId(40)), (7, NodeId(42))],
            "sorted by requester, arrival order preserved within one"
        );
    }

    use crate::scenario::RetryConfig;

    #[test]
    fn refused_pull_retries_after_backoff_and_succeeds_past_the_heal() {
        let mut net = net(EventNetConfig {
            partitions: vec![PartitionWindow {
                start: 0,
                end: 5,
                boundary: 50,
            }],
            retry: RetryConfig {
                max_retries: 3,
                base_backoff: 5_000,
            },
            ..EventNetConfig::default()
        });
        net.begin_round(0);
        // Attempt 0 hits the cut; the single retry departs 5000..10000
        // ticks later (round 5..9), after the heal, and succeeds.
        match net.gate_pull(0, 1, 60) {
            PullGate::Deferred { round, .. } => assert!((5..10).contains(&round)),
            g => panic!("expected a post-heal deferred answer, got {g:?}"),
        }
        assert_eq!(net.stats().refused_pulls, 1);
        assert_eq!(net.stats().retries_issued, 1);
    }

    #[test]
    fn retries_stop_at_the_cap() {
        let mut net = net(EventNetConfig {
            partitions: vec![PartitionWindow {
                start: 0,
                end: 40,
                boundary: 50,
            }],
            retry: RetryConfig {
                max_retries: 3,
                base_backoff: 10,
            },
            ..EventNetConfig::default()
        });
        net.begin_round(0);
        assert_eq!(net.gate_pull(0, 1, 60), PullGate::Refused);
        assert_eq!(net.stats().refused_pulls, 4, "initial try + 3 retries");
        assert_eq!(net.stats().retries_issued, 3, "the cap binds");
        assert_eq!(net.finish().in_flight_at_end, 0);
    }

    #[test]
    fn deadline_retransmits_share_one_nonce_and_dedup_suppresses_them() {
        let mut net = net(EventNetConfig {
            latency: LatencyModel::Constant(2500),
            retry: RetryConfig {
                max_retries: 2,
                base_backoff: 100,
            },
            ..EventNetConfig::default()
        });
        net.begin_round(0);
        // Every attempt's round trip (5000 ticks) blows the one-round
        // deadline: two retries fire, and both expired copies stay in
        // flight alongside the final answer.
        let gate = net.gate_pull(0, 1, 2);
        let PullGate::Deferred { round, held } = gate else {
            panic!("expected deferred, got {gate:?}")
        };
        assert_eq!(net.stats().retries_issued, 2);
        net.queue_answer(round, held, 4, NodeId(2), vec![NodeId(9)]);
        for r in 1..=round {
            net.begin_round(r);
        }
        let due = net.take_due_answers();
        assert_eq!(due.len(), 3, "final answer + two deadline retransmits");
        assert!(due.iter().all(|a| a.nonce == due[0].nonce));
        let applied = due.iter().filter(|a| net.accept_answer(a.nonce)).count();
        assert_eq!(applied, 1, "dedup applies exactly one copy");
        assert_eq!(net.stats().duplicates_suppressed, 2);
    }

    #[test]
    fn injected_duplicates_are_suppressed_not_double_applied() {
        let mut net = net(EventNetConfig {
            duplicate_rate: 1.0,
            reorder_jitter: 100,
            ..EventNetConfig::default()
        });
        net.queue_answer(1, false, 3, NodeId(8), vec![NodeId(5)]);
        net.begin_round(0);
        let buf = net.take_due_answers();
        net.restore_due_answers(buf);
        net.begin_round(1);
        let due = net.take_due_answers();
        assert_eq!(due.len(), 2, "the injector added one copy");
        assert_eq!(due[0].nonce, due[1].nonce);
        assert!(net.accept_answer(due[0].nonce));
        assert!(!net.accept_answer(due[1].nonce), "second copy suppressed");
        assert_eq!(net.stats().duplicates_suppressed, 1);
    }

    #[test]
    fn dropped_exchanges_discard_pending_copies() {
        let mut net = net(EventNetConfig {
            latency: LatencyModel::Constant(2500),
            retry: RetryConfig {
                max_retries: 1,
                base_backoff: 100,
            },
            ..EventNetConfig::default()
        });
        net.begin_round(0);
        let _ = net.gate_pull(0, 1, 2);
        // The responder never materialises an answer (crash/loss): the
        // engine discards the in-flight copies instead of queueing them.
        net.drop_pending_copies();
        let _ = net.gate_pull(0, 3, 4); // debug_assert: buffer is clean
        net.drop_pending_copies();
    }

    #[test]
    fn lognormal_latency_is_deterministic_and_capped() {
        let mk = || {
            net(EventNetConfig {
                latency: LatencyModel::LogNormal {
                    mu: 6.0,
                    sigma: 1.5,
                    cap: 10_000,
                },
                ..EventNetConfig::default()
            })
        };
        let (mut a, mut b) = (mk(), mk());
        for i in 0..200 {
            let la = a.latency(i % 7, (i + 1) % 11);
            let lb = b.latency(i % 7, (i + 1) % 11);
            assert_eq!(la, lb, "hash-derived draws replay exactly");
            assert!(la <= 10_000, "cap truncates the tail");
        }
    }
}
