//! Message-passing transport layer with deterministic fault injection.
//!
//! This module turns the workspace's synchronous, in-process protocol rounds
//! into genuine per-node message passing while preserving the block-index
//! determinism contract of `dqma::trials` (same seed + fault schedule ⇒
//! bit-identical outcomes at any worker count).
//!
//! # Envelope format
//!
//! Every message on the wire is an [`Envelope`]:
//!
//! | field     | type     | meaning                                          |
//! |-----------|----------|--------------------------------------------------|
//! | `src`     | [`NodeId`] | sending node                                   |
//! | `dst`     | [`NodeId`] | destination node                               |
//! | `seq`     | `u32`    | per-sender sequence number (dedup key with `src`)|
//! | `attempt` | `u32`    | retransmission attempt, 0 for the first send     |
//! | `payload` | `u64`    | protocol payload (coin bits, tokens)             |
//!
//! Receivers deduplicate on `(src, seq)`: a retransmission or a fault-injected
//! duplicate of an already-delivered envelope is silently discarded, so
//! delivery is idempotent and the retry layer never double-counts a message.
//!
//! # Virtual time
//!
//! All latency, timeout, backoff, and fault decisions are expressed in
//! *virtual* nanoseconds ([`VTime`]). Each node advances a local virtual
//! clock; the transport stamps every envelope with a virtual arrival time and
//! acknowledgements resolve to a virtual instant. Because no decision reads a
//! wall clock, a trial is a pure function of `(seed, fault schedule)` — the
//! foundation of the bit-reproducibility guarantee.
//!
//! # Transports
//!
//! In process, [`LocalChannelTransport`] is the one transport: one mailbox
//! per node and no synchronisation, owned by one thread at a time (each
//! worker of the batched trial engine owns its own). Across processes, the
//! TCP transport of [`crate::tcp`] carries the same envelopes over real
//! sockets, one node per process — that is the concurrent executor.
//!
//! # Fault model
//!
//! [`FaultyTransport`] decorates any inner [`Transport`] with a seeded
//! [`FaultPlan`]. Every stochastic fault decision is a pure hash of
//! `(trial salt, fault tag, src, dst, seq, attempt)` — no shared RNG state —
//! so the same trial replays identically regardless of scheduling:
//!
//! * **drop** — the envelope vanishes; the sender sees [`SendOutcome::Lost`];
//! * **ack drop** — the envelope is delivered but the acknowledgement is
//!   lost, forcing a (deduplicated) retransmission;
//! * **latency** — base + jittered per-message delay; unequal delays reorder
//!   messages in flight, exercising out-of-order delivery;
//! * **duplication** — a second copy arrives later and is discarded by the
//!   receiver's `(src, seq)` dedup;
//! * **partitions** — scheduled windows during which a set of undirected
//!   edges carries no traffic in either direction;
//! * **crash/restart** — scheduled windows (or a seeded per-trial coin)
//!   during which a node neither sends nor receives; with a restart horizon
//!   the node comes back and retries may still succeed.
//!
//! The robustness layer ([`robust_send`] / [`robust_recv`]) wraps the raw
//! trait with per-message deadlines and bounded exponential backoff with
//! deterministic jitter; exhausted budgets surface as a [`FaultCause`] so a
//! round resolves to [`RoundOutcome::Aborted`] instead of hanging.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::transcript::ProtocolCosts;

/// Virtual nanoseconds. All deadlines, latencies, and backoff schedules are
/// virtual-time quantities; see the module docs.
pub type VTime = u64;

/// Index of a node in the network (dense, `0..num_nodes`).
pub type NodeId = usize;

/// A sequence-numbered message; see the module docs for the wire format.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Envelope {
    /// Sending node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Per-sender sequence number; `(src, seq)` is the dedup key.
    pub seq: u32,
    /// Retransmission attempt (0 for the first send).
    pub attempt: u32,
    /// Protocol payload.
    pub payload: u64,
}

/// Result of a single (unreliable) send attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SendOutcome {
    /// The acknowledgement arrived at the given virtual instant.
    Acked(VTime),
    /// No acknowledgement by the deadline: the message or its ack was
    /// dropped, a partition blocked the edge, or the peer is down.
    Lost,
}

/// Result of a single receive attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecvOutcome {
    /// An envelope arrived at the given virtual instant.
    Delivered(Envelope, VTime),
    /// Nothing arrived by the deadline.
    TimedOut,
}

/// A byte-moving substrate for one protocol round.
///
/// The trait is single-thread friendly: the batched fault-sweep engine hands
/// each worker an exclusively-owned [`LocalChannelTransport`], which needs
/// no synchronisation at all.
pub trait Transport {
    /// Attempts to deliver `env`, returning the acknowledgement verdict.
    ///
    /// `now` is the sender's virtual clock; `ack_deadline` bounds how long
    /// the sender is willing to wait for the acknowledgement (virtual time).
    /// The outcome is resolved synchronously and deterministically — there is
    /// no physical reverse message.
    fn send(&self, now: VTime, env: &Envelope, ack_deadline: VTime) -> SendOutcome;

    /// Receives the earliest envelope addressed to `node` with a virtual
    /// arrival time `<= deadline`. Envelopes scheduled to arrive later stay
    /// queued for a future call with an extended deadline.
    fn recv(&self, node: NodeId, deadline: VTime) -> RecvOutcome;

    /// Starts a fresh trial: clears all in-flight state and installs the
    /// trial's fault salt. Must be called between rounds.
    fn begin_trial(&self, salt: u64);

    /// If `node` is crashed at virtual instant `now`, returns the instant it
    /// restarts (`VTime::MAX` when it never does).
    fn node_down_until(&self, _node: NodeId, _now: VTime) -> Option<VTime> {
        None
    }

    /// True when this transport can never delay, drop, duplicate, or
    /// otherwise perturb a message, and never reports a node down. The
    /// robust send/receive layer collapses to a single un-jittered attempt
    /// over a quiet transport — the zero-fault hot path skips all
    /// per-message fault and backoff hashing.
    fn is_quiet(&self) -> bool {
        false
    }
}

// ---------------------------------------------------------------------------
// Deterministic fault hashing
// ---------------------------------------------------------------------------

pub(crate) use crate::policy::{mix64, unit};

/// Packs a message identity into one word for hashing. Node ids are < 2^12
/// in every workspace topology; sequence numbers fit 32 bits per round.
#[inline]
fn pack(env: &Envelope) -> u64 {
    ((env.src as u64) << 52)
        ^ ((env.dst as u64) << 40)
        ^ ((env.seq as u64) << 8)
        ^ (env.attempt as u64 & 0xFF)
}

#[inline]
fn fault_hash(salt: u64, tag: u64, env: &Envelope) -> u64 {
    mix64(mix64(salt ^ tag) ^ pack(env))
}

const TAG_DROP: u64 = 0x9E37_79B9_7F4A_7C15;
const TAG_ACK_DROP: u64 = 0xC2B2_AE3D_27D4_EB4F;
const TAG_DUP: u64 = 0x1656_67B1_9E37_79F9;
const TAG_LATENCY: u64 = 0x2545_F491_4F6C_DD1D;
const TAG_ACK_LATENCY: u64 = 0x9E6D_62D0_6F6A_9A9B;
const TAG_CRASH: u64 = 0xD6E8_FEB8_6659_FD93;
const TAG_SEND_JITTER: u64 = 0xA0761D6478BD642F;
const TAG_RECV_JITTER: u64 = 0xE703_7ED1_A0B4_28DB;

// ---------------------------------------------------------------------------
// Mailboxes
// ---------------------------------------------------------------------------

/// A queued message, packed to 32 bytes: the destination is implicit (it is
/// the mailbox's own node) and the `usize` source id narrows to `u32`
/// (workspace node ids are < 2^12). On the per-message hot path the copy
/// traffic of this struct is a measurable cost, so it stays small.
#[derive(Clone, Copy)]
struct Queued {
    arrival: VTime,
    payload: u64,
    src: u32,
    seq: u32,
    order: u32,
    attempt: u32,
}

impl Queued {
    /// Delivery-dedup key: one word combining `(src, seq)`.
    #[inline]
    fn key(&self) -> u64 {
        (u64::from(self.src) << 32) | u64::from(self.seq)
    }

    /// Reconstructs the envelope for delivery to `node`.
    #[inline]
    fn envelope(&self, node: NodeId) -> Envelope {
        Envelope {
            src: self.src as NodeId,
            dst: node,
            seq: self.seq,
            attempt: self.attempt,
            payload: self.payload,
        }
    }
}

/// Sentinel for "no delivery recorded yet": real keys have `src < 2^32`, and
/// a `u64::MAX` key would need `src == u32::MAX`, which `push` rejects.
const NO_KEY: u64 = u64::MAX;

/// One node's inbox. Cleared lazily: instead of touching every mailbox at the
/// start of each trial, `begin_trial` bumps a shared epoch and each mailbox
/// self-clears on first touch in the new epoch.
///
/// Layout is tuned for the dominant traffic pattern of the protocol rounds —
/// exactly one in-flight message per node: `slot` is an inline fast path
/// that avoids all `Vec` bookkeeping, and `queue` is the overflow for
/// fault-injected duplicates, retransmissions, and jitter pile-ups.
struct Mailbox {
    epoch: u64,
    order: u32,
    slot: Option<Queued>,
    /// Most recent delivery's [`Queued::key`] ([`NO_KEY`] when none):
    /// single-message trials never touch the `delivered` vector.
    last_key: u64,
    queue: Vec<Queued>,
    /// Keys of deliveries *before* `last_key`.
    delivered: Vec<u64>,
}

impl Mailbox {
    fn sync(&mut self, epoch: u64) {
        if self.epoch != epoch {
            self.epoch = epoch;
            self.order = 0;
            self.slot = None;
            self.last_key = NO_KEY;
            self.queue.clear();
            self.delivered.clear();
        }
    }

    fn fresh() -> Self {
        Mailbox {
            epoch: 0,
            order: 0,
            slot: None,
            last_key: NO_KEY,
            queue: Vec::new(),
            delivered: Vec::new(),
        }
    }

    /// Queues `env` for delivery at virtual instant `arrival`.
    #[inline]
    fn push(&mut self, arrival: VTime, env: Envelope) {
        debug_assert!(env.src < u32::MAX as usize, "node id out of mailbox range");
        let order = self.order;
        self.order += 1;
        let q = Queued {
            arrival,
            payload: env.payload,
            src: env.src as u32,
            seq: env.seq,
            order,
            attempt: env.attempt,
        };
        if self.slot.is_none() {
            self.slot = Some(q);
        } else {
            self.queue.push(q);
        }
    }

    /// One non-blocking delivery attempt for `node`'s mailbox; loops
    /// internally past duplicates.
    #[inline]
    fn take(&mut self, node: NodeId, deadline: VTime) -> RecvOutcome {
        loop {
            // Fast path: a single queued message in the inline slot.
            if self.queue.is_empty() {
                let Some(q) = self.slot else {
                    return RecvOutcome::TimedOut;
                };
                if q.arrival > deadline {
                    return RecvOutcome::TimedOut;
                }
                self.slot = None;
                if self.mark_delivered(q.key()) {
                    return RecvOutcome::Delivered(q.envelope(node), q.arrival);
                }
                continue; // retransmission or injected duplicate
            }
            // Overflow path: earliest arrival wins across slot + queue; the
            // enqueue order breaks ties so equal latencies preserve FIFO and
            // unequal latencies genuinely reorder.
            let mut best_in_queue = 0usize;
            let mut best_key = (self.queue[0].arrival, self.queue[0].order);
            for (i, q) in self.queue.iter().enumerate().skip(1) {
                if (q.arrival, q.order) < best_key {
                    best_key = (q.arrival, q.order);
                    best_in_queue = i;
                }
            }
            let q = match self.slot {
                Some(s) if (s.arrival, s.order) < best_key => {
                    self.slot = None;
                    s
                }
                _ => self.queue.swap_remove(best_in_queue),
            };
            if q.arrival > deadline {
                // Put the minimum back: nothing eligible before the deadline.
                self.push_back(q);
                return RecvOutcome::TimedOut;
            }
            if self.mark_delivered(q.key()) {
                return RecvOutcome::Delivered(q.envelope(node), q.arrival);
            }
        }
    }

    /// Re-inserts a message removed by the min scan (preserving its original
    /// order stamp) after it turned out to be past the deadline.
    #[inline]
    fn push_back(&mut self, q: Queued) {
        if self.slot.is_none() {
            self.slot = Some(q);
        } else {
            self.queue.push(q);
        }
    }

    /// Records `key` as delivered; false if it already was.
    #[inline]
    fn mark_delivered(&mut self, key: u64) -> bool {
        if key == self.last_key {
            return false;
        }
        if self.last_key != NO_KEY {
            if self.delivered.contains(&key) {
                return false;
            }
            self.delivered.push(self.last_key);
        }
        self.last_key = key;
        true
    }
}

/// In-memory channel transport: one mailbox per node, with **no
/// synchronisation** — mailboxes live in [`RefCell`]s, each borrowed for
/// one `send` or `recv`, so the type is `!Sync` and backs the sequential
/// round driver only.
///
/// `recv` polls: it returns [`RecvOutcome::TimedOut`] immediately when
/// nothing eligible is queued. That is correct for the sequential driver,
/// which runs nodes in schedule order, so every expected message is already
/// enqueued when its receiver runs. Latency and every other fault come from
/// wrapping it in a [`FaultyTransport`].
pub struct LocalChannelTransport {
    boxes: Vec<RefCell<Mailbox>>,
    epoch: Cell<u64>,
}

impl LocalChannelTransport {
    /// Non-blocking transport over `nodes` mailboxes.
    pub fn poll(nodes: usize) -> Self {
        LocalChannelTransport {
            boxes: (0..nodes).map(|_| RefCell::new(Mailbox::fresh())).collect(),
            epoch: Cell::new(0),
        }
    }

    /// Number of mailboxes.
    pub fn num_nodes(&self) -> usize {
        self.boxes.len()
    }
}

impl Transport for LocalChannelTransport {
    #[inline]
    fn send(&self, now: VTime, env: &Envelope, _ack_deadline: VTime) -> SendOutcome {
        let mut mbox = self.boxes[env.dst].borrow_mut();
        mbox.sync(self.epoch.get());
        mbox.push(now, *env);
        SendOutcome::Acked(now)
    }

    #[inline]
    fn recv(&self, node: NodeId, deadline: VTime) -> RecvOutcome {
        let mut mbox = self.boxes[node].borrow_mut();
        mbox.sync(self.epoch.get());
        mbox.take(node, deadline)
    }

    fn begin_trial(&self, _salt: u64) {
        self.epoch.set(self.epoch.get().wrapping_add(1));
    }

    fn is_quiet(&self) -> bool {
        true
    }
}

// ---------------------------------------------------------------------------
// Fault schedules
// ---------------------------------------------------------------------------

/// A scheduled partition: during `[start, end)` (virtual time) the listed
/// undirected edges carry no traffic in either direction.
#[derive(Clone, Debug)]
pub struct PartitionWindow {
    /// Window start (inclusive, virtual ns).
    pub start: VTime,
    /// Window end (exclusive, virtual ns).
    pub end: VTime,
    /// Undirected edges blocked during the window.
    pub edges: Vec<(NodeId, NodeId)>,
}

/// A scheduled crash: `node` is down during `[start, end)` (virtual time).
#[derive(Clone, Copy, Debug)]
pub struct CrashWindow {
    /// The crashed node.
    pub node: NodeId,
    /// Crash instant (inclusive, virtual ns).
    pub start: VTime,
    /// Restart instant (exclusive, virtual ns); `VTime::MAX` = never.
    pub end: VTime,
}

/// A seeded, deterministic fault schedule.
///
/// All stochastic fields are evaluated as pure hashes of the per-trial salt
/// and the message identity — see the module docs for the determinism
/// argument. The default plan injects nothing.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// Probability a data envelope vanishes in flight.
    pub drop_rate: f64,
    /// Probability a delivered envelope's acknowledgement is lost.
    pub ack_drop_rate: f64,
    /// Probability a delivered envelope arrives twice.
    pub duplicate_rate: f64,
    /// Base one-way delivery latency (virtual ns).
    pub latency_base: VTime,
    /// Uniform per-message latency jitter in `[0, latency_jitter]`; unequal
    /// draws reorder concurrent messages.
    pub latency_jitter: VTime,
    /// Probability a given node crashes during the trial.
    pub crash_rate: f64,
    /// Crash onset is drawn uniformly in `[0, crash_onset_window]`.
    pub crash_onset_window: VTime,
    /// Virtual delay until a randomly crashed node restarts; 0 = never.
    pub crash_restart_after: VTime,
    /// Scheduled (deterministic) partitions.
    pub partitions: Vec<PartitionWindow>,
    /// Scheduled (deterministic) crashes.
    pub crashes: Vec<CrashWindow>,
}

impl FaultPlan {
    /// A plan that injects no faults.
    pub fn none() -> Self {
        Self::default()
    }

    /// Convenience constructor: drop each data envelope with `rate`.
    pub fn with_drop(rate: f64) -> Self {
        FaultPlan {
            drop_rate: rate,
            ..Self::default()
        }
    }

    /// True when the plan can never perturb a message — lets the decorator
    /// collapse to a plain delegation on the zero-fault hot path.
    pub fn is_quiet(&self) -> bool {
        self.drop_rate == 0.0
            && self.ack_drop_rate == 0.0
            && self.duplicate_rate == 0.0
            && self.latency_base == 0
            && self.latency_jitter == 0
            && self.crash_rate == 0.0
            && self.partitions.is_empty()
            && self.crashes.is_empty()
    }

    /// True when the undirected edge `{a, b}` is inside a partition window
    /// at virtual instant `t`.
    pub fn edge_blocked(&self, a: NodeId, b: NodeId, t: VTime) -> bool {
        self.partitions.iter().any(|w| {
            t >= w.start
                && t < w.end
                && w.edges
                    .iter()
                    .any(|&(u, v)| (u == a && v == b) || (u == b && v == a))
        })
    }

    /// If `node` is down at virtual instant `now` under this plan and salt,
    /// returns the restart instant (`VTime::MAX` when it never restarts).
    pub fn node_down_until(&self, salt: u64, node: NodeId, now: VTime) -> Option<VTime> {
        for w in &self.crashes {
            if w.node == node && now >= w.start && now < w.end {
                return Some(w.end);
            }
        }
        if self.crash_rate > 0.0 {
            let h = mix64(mix64(salt ^ TAG_CRASH) ^ (node as u64));
            if unit(h) < self.crash_rate {
                let onset = if self.crash_onset_window == 0 {
                    0
                } else {
                    mix64(h) % (self.crash_onset_window + 1)
                };
                let end = if self.crash_restart_after == 0 {
                    VTime::MAX
                } else {
                    onset.saturating_add(self.crash_restart_after)
                };
                if now >= onset && now < end {
                    return Some(end);
                }
            }
        }
        None
    }
}

/// Decorator injecting a [`FaultPlan`] into any inner transport.
///
/// Latency is owned by the decorator: construct the inner transport with zero
/// base latency when wrapping it.
pub struct FaultyTransport<T: Transport> {
    inner: T,
    plan: FaultPlan,
    /// `plan.is_quiet()`, cached at construction: the plan is immutable, and
    /// the zero-fault hot path tests this once per send instead of walking
    /// every plan field.
    quiet: bool,
    salt: AtomicU64,
}

impl<T: Transport> FaultyTransport<T> {
    /// Wraps `inner` with the given fault schedule.
    pub fn new(inner: T, plan: FaultPlan) -> Self {
        let quiet = plan.is_quiet();
        FaultyTransport {
            inner,
            plan,
            quiet,
            salt: AtomicU64::new(0),
        }
    }

    /// The wrapped transport.
    pub fn inner(&self) -> &T {
        &self.inner
    }

    /// The installed fault schedule.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }
}

impl<T: Transport> Transport for FaultyTransport<T> {
    #[inline]
    fn send(&self, now: VTime, env: &Envelope, ack_deadline: VTime) -> SendOutcome {
        if self.quiet {
            return self.inner.send(now, env, ack_deadline);
        }
        let salt = self.salt.load(Ordering::Relaxed);
        let plan = &self.plan;

        if plan.edge_blocked(env.src, env.dst, now) {
            return SendOutcome::Lost;
        }
        if plan.node_down_until(salt, env.src, now).is_some() {
            return SendOutcome::Lost;
        }
        if plan.drop_rate > 0.0 && unit(fault_hash(salt, TAG_DROP, env)) < plan.drop_rate {
            return SendOutcome::Lost;
        }

        let jitter = if plan.latency_jitter == 0 {
            0
        } else {
            fault_hash(salt, TAG_LATENCY, env) % (plan.latency_jitter + 1)
        };
        let arrival = now.saturating_add(plan.latency_base).saturating_add(jitter);

        // Receiver down at delivery time: the message is lost in the crash.
        if plan.node_down_until(salt, env.dst, arrival).is_some() {
            return SendOutcome::Lost;
        }

        self.inner.send(arrival, env, VTime::MAX);

        if plan.duplicate_rate > 0.0 && unit(fault_hash(salt, TAG_DUP, env)) < plan.duplicate_rate {
            let extra = 1 + fault_hash(salt, TAG_DUP ^ TAG_LATENCY, env)
                % (plan.latency_base + plan.latency_jitter + 16);
            self.inner
                .send(arrival.saturating_add(extra), env, VTime::MAX);
        }

        // Acknowledgement path: same fault surface in the reverse direction.
        if plan.ack_drop_rate > 0.0
            && unit(fault_hash(salt, TAG_ACK_DROP, env)) < plan.ack_drop_rate
        {
            return SendOutcome::Lost;
        }
        let ack_jitter = if plan.latency_jitter == 0 {
            0
        } else {
            fault_hash(salt, TAG_ACK_LATENCY, env) % (plan.latency_jitter + 1)
        };
        let acked = arrival
            .saturating_add(plan.latency_base)
            .saturating_add(ack_jitter);
        if acked > ack_deadline {
            return SendOutcome::Lost;
        }
        SendOutcome::Acked(acked)
    }

    #[inline]
    fn recv(&self, node: NodeId, deadline: VTime) -> RecvOutcome {
        self.inner.recv(node, deadline)
    }

    fn begin_trial(&self, salt: u64) {
        self.salt.store(salt, Ordering::Relaxed);
        self.inner.begin_trial(salt);
    }

    #[inline]
    fn node_down_until(&self, node: NodeId, now: VTime) -> Option<VTime> {
        if self.quiet {
            return None;
        }
        self.plan
            .node_down_until(self.salt.load(Ordering::Relaxed), node, now)
    }

    fn is_quiet(&self) -> bool {
        self.quiet && self.inner.is_quiet()
    }
}

// ---------------------------------------------------------------------------
// Robustness layer: deadlines, retries, graceful degradation
// ---------------------------------------------------------------------------

pub use crate::policy::RetryPolicy;

/// Why a round aborted instead of completing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultCause {
    /// A sender exhausted its retry budget without an acknowledgement.
    RetriesExhausted {
        /// Destination of the undeliverable message.
        to: NodeId,
        /// Sequence number of the undeliverable message.
        seq: u32,
        /// Attempts made.
        attempts: u32,
    },
    /// A receiver's (repeatedly extended) deadline expired with no envelope.
    RecvTimeout {
        /// Receive attempts made.
        attempts: u32,
    },
    /// The node itself was crashed by the fault schedule.
    NodeCrashed {
        /// Virtual restart instant (`VTime::MAX` = never).
        until: VTime,
    },
    /// The node's executor thread panicked (contained by the round driver).
    NodePanicked,
}

/// Where, when, and why a round aborted — plus whatever cost accounting the
/// affected verifier had accumulated before the fault.
#[derive(Clone, Debug)]
pub struct FaultReport {
    /// The node at which the round aborted.
    pub node: NodeId,
    /// The node's virtual clock at the abort.
    pub vtime: VTime,
    /// The underlying fault.
    pub cause: FaultCause,
    /// Partial cost state gathered before the abort.
    pub partial: ProtocolCosts,
}

/// Terminal state of one protocol round under the fault-injecting runtime.
#[derive(Clone, Debug)]
pub enum RoundOutcome {
    /// Every verifier completed and all accepted.
    Accept,
    /// Every verifier completed and at least one rejected.
    Reject,
    /// A fault prevented some verifier from completing.
    Aborted(FaultReport),
}

impl RoundOutcome {
    /// True for [`RoundOutcome::Accept`].
    pub fn is_accept(&self) -> bool {
        matches!(self, RoundOutcome::Accept)
    }

    /// True for [`RoundOutcome::Aborted`].
    pub fn is_aborted(&self) -> bool {
        matches!(self, RoundOutcome::Aborted(_))
    }
}

/// Reliable send: retries `env` under `policy`, advancing `clock` through the
/// virtual backoff schedule. Returns the number of attempts used (>= 1), or
/// the cause after the budget is exhausted.
#[inline]
pub fn robust_send<T: Transport + ?Sized>(
    transport: &T,
    policy: &RetryPolicy,
    salt: u64,
    clock: &mut VTime,
    mut env: Envelope,
) -> Result<u32, FaultCause> {
    // Quiet-transport fast path: the first attempt always acks, so skip the
    // jitter hashing of the backoff schedule entirely. Falls through to the
    // full retry loop (a deduplicated retransmission of attempt 0) if the
    // transport loses a message despite advertising quiescence.
    if transport.is_quiet() {
        let deadline = clock.saturating_add(policy.base_timeout);
        if let SendOutcome::Acked(at) = transport.send(*clock, &env, deadline) {
            *clock = at.max(*clock);
            return Ok(1);
        }
    }
    for attempt in 0..policy.max_attempts {
        env.attempt = attempt;
        let timeout = policy.timeout_for(attempt, fault_hash(salt, TAG_SEND_JITTER, &env));
        let deadline = clock.saturating_add(timeout);
        match transport.send(*clock, &env, deadline) {
            SendOutcome::Acked(at) => {
                *clock = at.max(*clock);
                return Ok(attempt + 1);
            }
            SendOutcome::Lost => {
                // Back off to the attempt deadline before retransmitting.
                *clock = deadline;
            }
        }
    }
    Err(FaultCause::RetriesExhausted {
        to: env.dst,
        seq: env.seq,
        attempts: policy.max_attempts,
    })
}

/// Reliable receive: extends the deadline through the same backoff schedule
/// as [`robust_send`], so a retransmitted envelope still finds a listener.
#[inline]
pub fn robust_recv<T: Transport + ?Sized>(
    transport: &T,
    policy: &RetryPolicy,
    salt: u64,
    node: NodeId,
    clock: &mut VTime,
) -> Result<Envelope, FaultCause> {
    // Quiet-transport fast path mirroring `robust_send`: over a quiet
    // transport every expected envelope is already queued (sequential
    // driver) or arrives within one blocking wait, so the first un-jittered
    // attempt succeeds; a miss falls through to the full backoff loop.
    if transport.is_quiet() {
        let deadline = clock.saturating_add(policy.base_timeout);
        if let RecvOutcome::Delivered(env, at) = transport.recv(node, deadline) {
            *clock = at.max(*clock);
            return Ok(env);
        }
    }
    for attempt in 0..policy.max_attempts {
        let h = mix64(salt ^ TAG_RECV_JITTER ^ ((node as u64) << 32) ^ attempt as u64);
        let deadline = clock.saturating_add(policy.timeout_for(attempt, h));
        match transport.recv(node, deadline) {
            RecvOutcome::Delivered(env, at) => {
                *clock = at.max(*clock);
                return Ok(env);
            }
            RecvOutcome::TimedOut => {
                *clock = deadline;
            }
        }
    }
    Err(FaultCause::RecvTimeout {
        attempts: policy.max_attempts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(src: NodeId, dst: NodeId, seq: u32, payload: u64) -> Envelope {
        Envelope {
            src,
            dst,
            seq,
            attempt: 0,
            payload,
        }
    }

    #[test]
    fn channel_delivers_in_arrival_order() {
        let t = LocalChannelTransport::poll(2);
        t.begin_trial(1);
        // Same arrival time: FIFO by enqueue order.
        assert_eq!(
            t.send(0, &env(0, 1, 0, 10), VTime::MAX),
            SendOutcome::Acked(0)
        );
        assert_eq!(
            t.send(0, &env(0, 1, 1, 20), VTime::MAX),
            SendOutcome::Acked(0)
        );
        let RecvOutcome::Delivered(a, _) = t.recv(1, VTime::MAX) else {
            panic!("expected delivery");
        };
        let RecvOutcome::Delivered(b, _) = t.recv(1, VTime::MAX) else {
            panic!("expected delivery");
        };
        assert_eq!((a.payload, b.payload), (10, 20));
        assert_eq!(t.recv(1, VTime::MAX), RecvOutcome::TimedOut);
    }

    #[test]
    fn late_arrivals_wait_for_an_extended_deadline() {
        let t = FaultyTransport::new(
            LocalChannelTransport::poll(2),
            FaultPlan {
                latency_base: 100,
                ..FaultPlan::default()
            },
        );
        t.begin_trial(1);
        t.send(0, &env(0, 1, 0, 7), VTime::MAX);
        assert_eq!(t.recv(1, 50), RecvOutcome::TimedOut);
        let RecvOutcome::Delivered(e, at) = t.recv(1, 100) else {
            panic!("expected delivery at the extended deadline");
        };
        assert_eq!((e.payload, at), (7, 100));
    }

    #[test]
    fn duplicates_are_discarded_by_seq_dedup() {
        let t = LocalChannelTransport::poll(2);
        t.begin_trial(1);
        let mut e = env(0, 1, 5, 99);
        t.send(0, &e, VTime::MAX);
        e.attempt = 1; // retransmission of the same (src, seq)
        t.send(0, &e, VTime::MAX);
        assert!(matches!(t.recv(1, VTime::MAX), RecvOutcome::Delivered(..)));
        assert_eq!(t.recv(1, VTime::MAX), RecvOutcome::TimedOut);
    }

    #[test]
    fn begin_trial_clears_mailboxes_lazily() {
        let t = LocalChannelTransport::poll(2);
        t.begin_trial(1);
        t.send(0, &env(0, 1, 0, 1), VTime::MAX);
        t.begin_trial(2);
        assert_eq!(t.recv(1, VTime::MAX), RecvOutcome::TimedOut);
        // Dedup state is also reset: the same (src, seq) delivers again.
        t.send(0, &env(0, 1, 0, 2), VTime::MAX);
        assert!(matches!(t.recv(1, VTime::MAX), RecvOutcome::Delivered(..)));
    }

    #[test]
    fn unequal_latency_reorders_messages() {
        let inner = LocalChannelTransport::poll(3);
        let plan = FaultPlan {
            latency_base: 0,
            latency_jitter: 1 << 20,
            ..FaultPlan::default()
        };
        let t = FaultyTransport::new(inner, plan);
        // Hunt for a salt where two concurrent sends swap their order.
        let mut swapped = false;
        for salt in 0..64 {
            t.begin_trial(salt);
            t.send(0, &env(0, 2, salt as u32, 1), VTime::MAX);
            t.send(0, &env(1, 2, salt as u32, 2), VTime::MAX);
            let RecvOutcome::Delivered(first, _) = t.recv(2, VTime::MAX) else {
                continue;
            };
            if first.payload == 2 {
                swapped = true;
                break;
            }
        }
        assert!(swapped, "latency jitter never reordered two messages");
    }

    #[test]
    fn drop_rate_one_loses_everything_and_is_deterministic() {
        let t = FaultyTransport::new(LocalChannelTransport::poll(2), FaultPlan::with_drop(1.0));
        t.begin_trial(7);
        assert_eq!(t.send(0, &env(0, 1, 0, 1), VTime::MAX), SendOutcome::Lost);
        assert_eq!(t.recv(1, VTime::MAX), RecvOutcome::TimedOut);
    }

    #[test]
    fn fault_decisions_replay_bit_identically() {
        let plan = FaultPlan {
            drop_rate: 0.5,
            duplicate_rate: 0.3,
            latency_base: 10,
            latency_jitter: 100,
            ..FaultPlan::default()
        };
        let run = |salt: u64| -> Vec<SendOutcome> {
            let t = FaultyTransport::new(LocalChannelTransport::poll(4), plan.clone());
            t.begin_trial(salt);
            (0..32)
                .map(|i| t.send(0, &env(i % 3, 3, i as u32, i as u64), VTime::MAX))
                .collect()
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12), "distinct salts gave identical schedules");
    }

    #[test]
    fn partition_blocks_both_directions_inside_window() {
        let plan = FaultPlan {
            partitions: vec![PartitionWindow {
                start: 100,
                end: 200,
                edges: vec![(0, 1)],
            }],
            ..FaultPlan::default()
        };
        let t = FaultyTransport::new(LocalChannelTransport::poll(2), plan);
        t.begin_trial(1);
        assert!(matches!(
            t.send(50, &env(0, 1, 0, 1), VTime::MAX),
            SendOutcome::Acked(_)
        ));
        assert_eq!(t.send(150, &env(0, 1, 1, 1), VTime::MAX), SendOutcome::Lost);
        assert_eq!(t.send(150, &env(1, 0, 0, 1), VTime::MAX), SendOutcome::Lost);
        assert!(matches!(
            t.send(250, &env(0, 1, 2, 1), VTime::MAX),
            SendOutcome::Acked(_)
        ));
    }

    #[test]
    fn scheduled_crash_downs_the_node_until_restart() {
        let plan = FaultPlan {
            crashes: vec![CrashWindow {
                node: 1,
                start: 0,
                end: 1000,
            }],
            ..FaultPlan::default()
        };
        let t = FaultyTransport::new(LocalChannelTransport::poll(3), plan);
        t.begin_trial(1);
        assert_eq!(t.node_down_until(1, 500), Some(1000));
        assert_eq!(t.node_down_until(1, 1000), None);
        assert_eq!(t.node_down_until(0, 500), None);
        // Sends into the crash window are lost; after restart they deliver.
        assert_eq!(t.send(10, &env(0, 1, 0, 1), VTime::MAX), SendOutcome::Lost);
        assert!(matches!(
            t.send(1500, &env(0, 1, 1, 1), VTime::MAX),
            SendOutcome::Acked(_)
        ));
    }

    #[test]
    fn robust_send_retries_through_ack_drops() {
        // Drop only acks: delivery succeeds, sender retries, receiver dedups.
        let plan = FaultPlan {
            ack_drop_rate: 0.8,
            ..FaultPlan::default()
        };
        let t = FaultyTransport::new(LocalChannelTransport::poll(2), plan);
        let policy = RetryPolicy {
            max_attempts: 16,
            ..RetryPolicy::default()
        };
        let mut delivered = 0u32;
        let mut retried = false;
        for salt in 0..32 {
            t.begin_trial(salt);
            let mut clock = 0;
            if let Ok(attempts) = robust_send(&t, &policy, salt, &mut clock, env(0, 1, 0, 5)) {
                retried |= attempts > 1;
                let mut seen = 0;
                while let RecvOutcome::Delivered(..) = t.recv(1, VTime::MAX) {
                    seen += 1;
                }
                assert_eq!(seen, 1, "dedup must collapse retransmissions");
                delivered += 1;
            }
        }
        assert!(delivered > 0);
        assert!(retried, "ack drops never forced a retransmission");
    }

    #[test]
    fn robust_send_exhausts_and_reports_cause() {
        let t = FaultyTransport::new(LocalChannelTransport::poll(2), FaultPlan::with_drop(1.0));
        t.begin_trial(3);
        let mut clock = 0;
        let err = robust_send(&t, &RetryPolicy::default(), 3, &mut clock, env(0, 1, 9, 0));
        assert_eq!(
            err,
            Err(FaultCause::RetriesExhausted {
                to: 1,
                seq: 9,
                attempts: 5
            })
        );
        assert!(clock > 0, "backoff must advance the virtual clock");
    }

    #[test]
    fn robust_recv_waits_out_latency_then_times_out_when_dry() {
        let plan = FaultPlan {
            latency_base: 10_000,
            ..FaultPlan::default()
        };
        let t = FaultyTransport::new(LocalChannelTransport::poll(2), plan);
        t.begin_trial(1);
        let policy = RetryPolicy::default();
        t.send(0, &env(0, 1, 0, 42), VTime::MAX);
        let mut clock = 0;
        let got = robust_recv(&t, &policy, 1, 1, &mut clock).expect("latency within budget");
        assert_eq!(got.payload, 42);
        let mut clock2 = 0;
        assert_eq!(
            robust_recv(&t, &policy, 1, 1, &mut clock2),
            Err(FaultCause::RecvTimeout { attempts: 5 })
        );
    }
}
