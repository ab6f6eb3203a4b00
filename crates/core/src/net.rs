//! Per-node round executors over the message-passing [`netsim::transport`]
//! layer.
//!
//! The batched samplers in [`crate::trials`] evaluate a round as a single
//! closed-form product — correct, but silent about *distribution*: every
//! verifier's test collapses into one process-local multiply, so nothing can
//! be said about what happens when messages are late, lost, duplicated or a
//! node crashes. This module re-expresses the four protocol round paths
//! ([`crate::eq_path`], [`crate::eq_tree`], [`crate::relay`] and the raw
//! [`crate::chain`]) as **per-node programs** exchanging sequence-numbered
//! envelopes over a [`Transport`], wrapped in the retry/timeout/backoff
//! robustness layer of [`netsim::transport`]:
//!
//! * a [`RoundProgram`] gives each network node a little script —
//!   *receive the previous coin, flip your own, run your local test, forward
//!   your coin* — driven through a [`NodeIo`] handle that hides sequencing,
//!   retries, the node's RNG stream and cost accounting;
//! * [`run_round`] executes the program over any transport on one thread (the
//!   schedule is a topological order of the message dependencies, so a
//!   poll-mode transport never blocks); [`run_single_node`] runs one node's
//!   executor alone — the entry point of the one-process-per-node TCP fleet
//!   in [`crate::cluster`], which is the concurrent executor;
//! * faults degrade gracefully: an exhausted retry budget, a receive
//!   timeout, a crashed node or a panicking executor all terminate the trial
//!   as [`RoundOutcome::Aborted`] with a [`FaultReport`] carrying the partial
//!   [`CostTracker`] state of the affected verifier — never a hang, never a
//!   poisoned pool;
//! * [`TransportSampler`] plugs a program into the block-deterministic
//!   outcome engine of [`crate::trials`], so fault sweeps inherit the
//!   bit-identical-at-any-worker-count contract of every other sampler.
//!
//! # Statistical equivalence with the in-process samplers
//!
//! A plan-based sampler accepts a round with probability `E_c[Π_v p_v(c)]`
//! using a *single* accept draw; the per-node programs draw one Bernoulli per
//! verifier. Conditioned on the shared coins `c`, the product of independent
//! `Bernoulli(p_v(c))` successes is `Bernoulli(Π_v p_v(c))` — identical to
//! the single draw. Fault-free transport rounds therefore match the
//! in-process samplers in distribution (asserted by the Hoeffding tests in
//! `tests/integration_transport_rounds.rs`), though not bit-for-bit: the
//! two consume different streams.
//!
//! # Determinism
//!
//! Each trial runs under a [`TrialStreams`] coordinate
//! ([`crate::trials::BlockRng::trial`]): its fault salt and every node's
//! RNG stream are pure functions of `(seed, block, trial, node)`, and every
//! fault decision is a pure hash of `(salt, message identity)`. So a
//! `(seed, FaultPlan)` pair reproduces the same accepts/rejects/aborts,
//! message counts and transcript digest at *any* worker count, exactly like
//! the accept counts of [`crate::trials`] — and a node run alone draws
//! exactly what it draws inside [`run_round`].

use crate::chain::ChainRoundPlan;
use crate::relay::RelayRoundPlan;
use crate::trials::{self, BlockOutcomes, BlockRng, OutcomeReport, OutcomeSampler, TrialStreams};
use netsim::transport::{robust_recv, robust_send};
use netsim::{
    CostTracker, Envelope, FaultCause, FaultPlan, FaultReport, FaultyTransport,
    LocalChannelTransport, NodeId, ProtocolCosts, RetryPolicy, RoundOutcome, Transport, VTime,
};
use qsim::random::CounterRng;
use rand::Rng;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// SplitMix64 finalizer: the per-trial digest mixer. (Same finalizer
/// the transport layer uses for fault decisions; duplicated locally because
/// the transcript digest is a consumer-side concern.)
#[inline]
pub(crate) fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Transmission statistics of one executed round.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RoundStats {
    /// Envelope transmissions, including retransmissions.
    pub sent: u64,
    /// Retransmissions alone (`sent − distinct messages`).
    pub retries: u64,
    /// XOR-fold of per-delivery hashes: a transcript fingerprint that is
    /// invariant under executor interleaving (XOR is commutative) but
    /// sensitive to *what* was delivered to whom.
    pub digest: u64,
}

/// Per-node I/O handle handed to [`RoundProgram::run_node`]: wraps a
/// [`Transport`] with the robust send/receive layer, the node's virtual
/// clock, its RNG stream and optional cost accounting.
pub struct NodeIo<'a, T: Transport + ?Sized> {
    transport: &'a T,
    policy: &'a RetryPolicy,
    trial: TrialStreams,
    salt: u64,
    node: NodeId,
    clock: VTime,
    rng: CounterRng,
    next_seq: u32,
    message_qubits: u64,
    stats: RoundStats,
    costs: Option<&'a mut CostTracker>,
}

impl<'a, T: Transport + ?Sized> NodeIo<'a, T> {
    fn new(
        transport: &'a T,
        policy: &'a RetryPolicy,
        trial: TrialStreams,
        message_qubits: u64,
        costs: Option<&'a mut CostTracker>,
    ) -> Self {
        NodeIo {
            transport,
            policy,
            trial,
            salt: trial.salt(),
            node: 0,
            clock: 0,
            // Re-keyed for each node by `begin_node`.
            rng: trial.node_rng(0),
            next_seq: 0,
            message_qubits,
            stats: RoundStats::default(),
            costs,
        }
    }

    /// Re-targets the handle at `node` for a fresh executor, opening the
    /// node's own RNG stream (the per-trial accumulators — stats, cost
    /// tracker — carry across nodes). Reports the node as crashed when the
    /// fault schedule has it down at round start.
    fn begin_node(&mut self, node: NodeId) -> Result<(), FaultCause> {
        self.node = node;
        self.clock = 0;
        self.next_seq = 0;
        self.rng = self.trial.node_rng(node);
        match self.transport.node_down_until(node, 0) {
            Some(until) => Err(FaultCause::NodeCrashed { until }),
            None => Ok(()),
        }
    }

    /// The node this handle is executing.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The node's virtual clock (ns).
    pub fn vtime(&self) -> VTime {
        self.clock
    }

    /// Reliably sends `payload` to `dst`: sequence-numbered envelope,
    /// per-message timeout, bounded exponential backoff with deterministic
    /// jitter. Advances the virtual clock through the backoff schedule.
    #[inline]
    pub fn send(&mut self, dst: NodeId, payload: u64) -> Result<(), FaultCause> {
        let env = Envelope {
            src: self.node,
            dst,
            seq: self.next_seq,
            attempt: 0,
            payload,
        };
        self.next_seq += 1;
        let attempts = robust_send(self.transport, self.policy, self.salt, &mut self.clock, env)?;
        self.stats.sent += u64::from(attempts);
        self.stats.retries += u64::from(attempts - 1);
        if let Some(costs) = self.costs.as_deref_mut() {
            costs.record_message(self.node, dst, self.message_qubits);
        }
        Ok(())
    }

    /// Reliably receives the next envelope addressed to this node,
    /// extending the deadline through the backoff schedule. Deliveries are
    /// deduplicated by the transport, so a retransmitted or duplicated
    /// envelope is observed at most once.
    #[inline]
    pub fn recv(&mut self) -> Result<Envelope, FaultCause> {
        let env = robust_recv(
            self.transport,
            self.policy,
            self.salt,
            self.node,
            &mut self.clock,
        )?;
        // One odd-constant multiply spreads the identity word; the full
        // SplitMix finalizer runs once per trial when the block fold mixes
        // the salt in, so a bijective per-delivery fold suffices here.
        let ident = ((env.src as u64) << 40)
            ^ ((env.dst as u64) << 24)
            ^ (u64::from(env.seq) << 1)
            ^ env.payload.rotate_left(17);
        self.stats.digest ^= ident.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        Ok(env)
    }

    /// Flips this node's symmetrisation coin (0 or 1).
    pub fn coin(&mut self) -> usize {
        usize::from(self.rng.random::<bool>())
    }

    /// Draws this node's local accept/reject decision at probability `p`.
    pub fn bernoulli(&mut self, p: f64) -> bool {
        self.rng.random::<f64>() < p
    }

    /// Draws the node's symmetrisation coin and its accept verdict at the
    /// coin-dependent probability `p(coin)` from a single RNG word: bit 0 is
    /// the coin, bits 11..64 (disjoint from the coin bit) form the uniform
    /// accept draw — one generator call instead of two on the round hot
    /// path, with the two outputs exactly distributed and independent.
    #[inline]
    pub fn coin_accept(&mut self, p: impl FnOnce(usize) -> f64) -> (usize, bool) {
        let h = self.rng.random::<u64>();
        let coin = (h & 1) as usize;
        let accept = ((h >> 11) as f64) * (1.0 / (1u64 << 53) as f64) < p(coin);
        (coin, accept)
    }
}

/// A protocol round expressed as one small program per network node.
///
/// `schedule()` must list every participating node in a topological order of
/// the message dependencies (senders before their receivers); [`run_round`]
/// runs nodes in exactly that order over a poll-mode transport.
pub trait RoundProgram: Sync {
    /// Number of network nodes (mailboxes) the program needs.
    fn num_nodes(&self) -> usize;

    /// Dependency-ordered executor schedule.
    fn schedule(&self) -> &[NodeId];

    /// Qubits per protocol message, for cost accounting (0 = untracked).
    fn message_qubits(&self) -> u64 {
        0
    }

    /// Executes `node`'s verifier: receive, test, forward. Returns the
    /// node's accept decision, or the fault that prevented it from deciding.
    fn run_node<T: Transport + ?Sized>(
        &self,
        node: NodeId,
        io: &mut NodeIo<'_, T>,
    ) -> Result<bool, FaultCause>;
}

fn run_round_inner<P: RoundProgram + ?Sized, T: Transport + ?Sized>(
    program: &P,
    transport: &T,
    policy: &RetryPolicy,
    trial: TrialStreams,
    costs: Option<&mut CostTracker>,
) -> (RoundOutcome, RoundStats) {
    let mut io = NodeIo::new(transport, policy, trial, program.message_qubits(), costs);
    transport.begin_trial(io.salt);
    let mut failure: Option<(NodeId, VTime, FaultCause)> = None;
    let mut all_accept = true;
    let mut partial = ProtocolCosts::default();
    let mut current = 0;
    // One unwind boundary per trial (not per node): a panic in any node's
    // executor is contained here and attributed to the node that was
    // running. Only the schedule tail after the panic is skipped.
    let caught = catch_unwind(AssertUnwindSafe(|| {
        for &node in program.schedule() {
            current = node;
            let decision = io
                .begin_node(node)
                .and_then(|()| program.run_node(node, &mut io));
            match decision {
                Ok(accept) => all_accept &= accept,
                Err(cause) => {
                    if failure.is_none() {
                        partial = io
                            .costs
                            .as_deref()
                            .map(CostTracker::summary)
                            .unwrap_or_default();
                        failure = Some((node, io.clock, cause));
                    }
                }
            }
        }
    }));
    if caught.is_err() && failure.is_none() {
        partial = io
            .costs
            .as_deref()
            .map(CostTracker::summary)
            .unwrap_or_default();
        failure = Some((current, io.clock, FaultCause::NodePanicked));
    }
    // The first fault wins, otherwise unanimous acceptance is required.
    let outcome = match failure {
        Some((node, vtime, cause)) => RoundOutcome::Aborted(FaultReport {
            node,
            vtime,
            cause,
            partial,
        }),
        None if all_accept => RoundOutcome::Accept,
        None => RoundOutcome::Reject,
    };
    (outcome, io.stats)
}

/// Executes one round of `program` over `transport` on the calling thread,
/// visiting nodes in schedule order (so a poll-mode transport never waits).
/// `trial` supplies the fault salt and every node's RNG stream.
///
/// Every trial terminates: faults and even executor panics degrade to
/// [`RoundOutcome::Aborted`] with the responsible node's [`FaultReport`].
pub fn run_round<P: RoundProgram + ?Sized, T: Transport + ?Sized>(
    program: &P,
    transport: &T,
    policy: &RetryPolicy,
    trial: TrialStreams,
) -> (RoundOutcome, RoundStats) {
    run_round_inner(program, transport, policy, trial, None)
}

/// As [`run_round`], additionally recording message costs into `costs`. On
/// an abort, the returned [`FaultReport::partial`] snapshots the tracker at
/// the instant of the first fault — the affected verifier's partial view.
pub fn run_round_with_costs<P: RoundProgram + ?Sized, T: Transport + ?Sized>(
    program: &P,
    transport: &T,
    policy: &RetryPolicy,
    trial: TrialStreams,
    costs: &mut CostTracker,
) -> (RoundOutcome, RoundStats) {
    run_round_inner(program, transport, policy, trial, Some(costs))
}

/// Executes **one node's** executor of one trial — the per-process entry
/// point of the multi-process runtime (`dqma::cluster`), where every network
/// node runs in its own OS process over a [`netsim::tcp::TcpTransport`].
///
/// Unlike [`run_round`], this does **not** call `begin_trial`: the caller
/// owns the trial boundary (the cluster node loop pins the TCP epoch to the
/// global trial index so every process agrees on which trial a frame belongs
/// to). The node draws from `trial`'s stream for `node` — exactly the draws
/// it makes inside [`run_round`] — so per-process executions reproduce the
/// sequential driver whatever the other nodes did. Panics are contained,
/// surfacing as [`FaultCause::NodePanicked`].
pub fn run_single_node<P: RoundProgram + ?Sized, T: Transport + ?Sized>(
    program: &P,
    node: NodeId,
    transport: &T,
    policy: &RetryPolicy,
    trial: TrialStreams,
) -> (Result<bool, FaultCause>, VTime, RoundStats) {
    let mut io = NodeIo::new(transport, policy, trial, program.message_qubits(), None);
    let decision = catch_unwind(AssertUnwindSafe(|| {
        io.begin_node(node)
            .and_then(|()| program.run_node(node, &mut io))
    }))
    .unwrap_or(Err(FaultCause::NodePanicked));
    (decision, io.clock, io.stats)
}

// ---------------------------------------------------------------------------
// Protocol programs
// ---------------------------------------------------------------------------

/// The SWAP-test chain as a per-node program on the path `0..=k+1`:
/// node 0 (left extremity) opens the relay with a fixed token, intermediate
/// node `v` tests its kept register against the forwarded one
/// (`table(v−1, c_prev + 2·c_own)`) and forwards its coin, and the right
/// extremity runs the boundary measurement (`table(k, c_prev)`).
#[derive(Clone, Debug)]
pub struct ChainNetProgram {
    pub(crate) plan: ChainRoundPlan,
    schedule: Vec<NodeId>,
    pub(crate) message_qubits: u64,
}

impl ChainNetProgram {
    /// Wraps a compiled [`ChainRoundPlan`] (see
    /// [`crate::chain::SwapTestChain::round_plan`]).
    pub fn new(plan: ChainRoundPlan) -> Self {
        let nodes = plan.num_intermediate() + 2;
        ChainNetProgram {
            plan,
            schedule: (0..nodes).collect(),
            message_qubits: 0,
        }
    }

    /// Sets the per-message qubit cost recorded by
    /// [`run_round_with_costs`].
    pub fn with_message_qubits(mut self, qubits: u64) -> Self {
        self.message_qubits = qubits;
        self
    }
}

impl RoundProgram for ChainNetProgram {
    fn num_nodes(&self) -> usize {
        self.plan.num_intermediate() + 2
    }

    fn schedule(&self) -> &[NodeId] {
        &self.schedule
    }

    fn message_qubits(&self) -> u64 {
        self.message_qubits
    }

    fn run_node<T: Transport + ?Sized>(
        &self,
        node: NodeId,
        io: &mut NodeIo<'_, T>,
    ) -> Result<bool, FaultCause> {
        let k = self.plan.num_intermediate();
        if node == 0 {
            // Left extremity: opens the chain; its own test is folded into
            // node 1's table (the plan conditions on c_{−1} = 0).
            io.send(1, 0)?;
            Ok(true)
        } else if node <= k {
            let prev = (io.recv()?.payload & 1) as usize;
            let (cur, accept) = io.coin_accept(|cur| self.plan.table(node - 1, prev + 2 * cur));
            io.send(node + 1, cur as u64)?;
            Ok(accept)
        } else {
            // Right extremity: boundary measurement on the forwarded
            // register, selected by the last intermediate's coin.
            let prev = (io.recv()?.payload & 1) as usize;
            Ok(io.bernoulli(self.plan.table(k, prev)))
        }
    }
}

/// A path node's role in the relay-point protocol.
#[derive(Clone, Debug)]
pub(crate) enum RelayRole {
    /// Node 0: opens the first segment.
    LeftEnd,
    /// Strictly inside segment `seg`, as its `j`-th intermediate.
    Intermediate { seg: usize, j: usize },
    /// A relay point: right boundary of `prev_seg`, left end of the next.
    Relay { prev_seg: usize },
    /// Node `r`: right boundary of the last segment.
    RightEnd,
}

/// The relay-point protocol ([`crate::relay`]) as a per-node program on the
/// path `0..=r`: relay points measure the incoming segment's boundary and
/// open the next segment with a fresh token, so each segment runs the chain
/// walk of [`ChainNetProgram`] end to end.
#[derive(Clone, Debug)]
pub struct RelayNetProgram {
    pub(crate) segments: Vec<ChainRoundPlan>,
    pub(crate) roles: Vec<RelayRole>,
    schedule: Vec<NodeId>,
    pub(crate) message_qubits: u64,
}

impl RelayNetProgram {
    /// Builds the program from a compiled [`RelayRoundPlan`] and the
    /// protocol's segment boundaries (see
    /// [`crate::relay::RelayEqProtocol::segment_boundaries`]).
    ///
    /// # Panics
    ///
    /// Panics when the boundary spacing disagrees with the per-segment plan
    /// sizes.
    pub fn new(plan: &RelayRoundPlan, boundaries: &[usize]) -> Self {
        Self::from_segments(plan.segment_plans().to_vec(), boundaries)
    }

    /// Assembles the program directly from per-segment chain plans — the
    /// cluster wire-decode path ([`crate::cluster::ProgramSpec`]) rebuilds a
    /// relay program without re-deriving the full [`RelayRoundPlan`].
    pub(crate) fn from_segments(segments: Vec<ChainRoundPlan>, boundaries: &[usize]) -> Self {
        assert_eq!(
            segments.len() + 1,
            boundaries.len(),
            "one segment per consecutive boundary pair required"
        );
        let r = *boundaries.last().expect("at least two boundaries");
        let mut roles = Vec::with_capacity(r + 1);
        for v in 0..=r {
            let role = if v == 0 {
                RelayRole::LeftEnd
            } else if v == r {
                RelayRole::RightEnd
            } else if let Some(i) = boundaries.iter().position(|&b| b == v) {
                // boundaries[i] closes segment i − 1.
                RelayRole::Relay { prev_seg: i - 1 }
            } else {
                let seg = boundaries.iter().take_while(|&&b| b < v).count() - 1;
                RelayRole::Intermediate {
                    seg,
                    j: v - boundaries[seg] - 1,
                }
            };
            roles.push(role);
        }
        for (i, seg) in segments.iter().enumerate() {
            assert_eq!(
                seg.num_intermediate(),
                boundaries[i + 1] - boundaries[i] - 1,
                "segment {i} plan size disagrees with its boundaries"
            );
        }
        RelayNetProgram {
            segments,
            roles,
            schedule: (0..=r).collect(),
            message_qubits: 0,
        }
    }

    /// Sets the per-message qubit cost recorded by
    /// [`run_round_with_costs`].
    pub fn with_message_qubits(mut self, qubits: u64) -> Self {
        self.message_qubits = qubits;
        self
    }

    /// Reconstructs the segment boundaries from the role assignment:
    /// node 0, every relay point, node `r`.
    pub(crate) fn boundaries(&self) -> Vec<usize> {
        let mut b = vec![0usize];
        b.extend(
            self.roles
                .iter()
                .enumerate()
                .filter(|(_, role)| matches!(role, RelayRole::Relay { .. }))
                .map(|(v, _)| v),
        );
        b.push(self.roles.len() - 1);
        b
    }
}

impl RoundProgram for RelayNetProgram {
    fn num_nodes(&self) -> usize {
        self.roles.len()
    }

    fn schedule(&self) -> &[NodeId] {
        &self.schedule
    }

    fn message_qubits(&self) -> u64 {
        self.message_qubits
    }

    fn run_node<T: Transport + ?Sized>(
        &self,
        node: NodeId,
        io: &mut NodeIo<'_, T>,
    ) -> Result<bool, FaultCause> {
        match self.roles[node] {
            RelayRole::LeftEnd => {
                io.send(1, 0)?;
                Ok(true)
            }
            RelayRole::Intermediate { seg, j } => {
                let prev = (io.recv()?.payload & 1) as usize;
                let (cur, accept) =
                    io.coin_accept(|cur| self.segments[seg].table(j, prev + 2 * cur));
                io.send(node + 1, cur as u64)?;
                Ok(accept)
            }
            RelayRole::Relay { prev_seg } => {
                let seg = &self.segments[prev_seg];
                let prev = (io.recv()?.payload & 1) as usize;
                let accept = io.bernoulli(seg.table(seg.num_intermediate(), prev));
                // Measured and re-announced: the next segment starts from
                // the relay's classical string, i.e. a fresh token.
                io.send(node + 1, 0)?;
                Ok(accept)
            }
            RelayRole::RightEnd => {
                let seg = self.segments.last().expect("at least one segment");
                let prev = (io.recv()?.payload & 1) as usize;
                Ok(io.bernoulli(seg.table(seg.num_intermediate(), prev)))
            }
        }
    }
}

/// A tree node's role in the EQ-tree program; built by
/// [`crate::eq_tree::EqTreeProtocol::net_program`].
#[derive(Clone, Debug)]
pub(crate) enum TreeRole {
    /// A node id outside the announced tree (no executor).
    Unused,
    /// A terminal leaf: sends its fingerprint token to its parent.
    Leaf {
        /// The leaf's parent in the announced tree.
        parent: NodeId,
    },
    /// An internal node: collects its children's messages, runs the
    /// permutation test, forwards its own coin.
    Internal {
        /// Parent in the announced tree (`None` at the root).
        parent: Option<NodeId>,
        /// Children in tree order; `Some(shift)` marks a non-leaf child
        /// whose coin lands at bit `shift` of the table index.
        children: Vec<(NodeId, Option<u32>)>,
        /// Permutation-test acceptance per coin combination, bit 0 the
        /// node's own coin (the layout of
        /// [`crate::eq_tree::EqTreeProtocol::round_plan`]).
        probs: Vec<f64>,
    },
}

/// The EQ-tree protocol ([`crate::eq_tree`]) as a per-node program over the
/// announced spanning tree: leaves send up, internal nodes gather their
/// children (attributing arrivals by source, so reordering is harmless),
/// test, and forward their coin; the schedule is the tree's post order.
#[derive(Clone, Debug)]
pub struct TreeNetProgram {
    pub(crate) roles: Vec<TreeRole>,
    schedule: Vec<NodeId>,
    pub(crate) message_qubits: u64,
}

impl TreeNetProgram {
    pub(crate) fn new(roles: Vec<TreeRole>, schedule: Vec<NodeId>, message_qubits: u64) -> Self {
        TreeNetProgram {
            roles,
            schedule,
            message_qubits,
        }
    }
}

impl RoundProgram for TreeNetProgram {
    fn num_nodes(&self) -> usize {
        self.roles.len()
    }

    fn schedule(&self) -> &[NodeId] {
        &self.schedule
    }

    fn message_qubits(&self) -> u64 {
        self.message_qubits
    }

    fn run_node<T: Transport + ?Sized>(
        &self,
        node: NodeId,
        io: &mut NodeIo<'_, T>,
    ) -> Result<bool, FaultCause> {
        match &self.roles[node] {
            TreeRole::Unused => Ok(true),
            TreeRole::Leaf { parent } => {
                io.send(*parent, 0)?;
                Ok(true)
            }
            TreeRole::Internal {
                parent,
                children,
                probs,
            } => {
                let mut idx = 0usize;
                for _ in 0..children.len() {
                    let env = io.recv()?;
                    // Attribute by source: children may arrive in any order
                    // under latency jitter.
                    if let Some((_, Some(shift))) = children.iter().find(|(c, _)| *c == env.src) {
                        idx |= ((env.payload & 1) as usize) << shift;
                    }
                }
                // Child coins occupy bits >= 1, so the own coin (bit 0) ors
                // in cleanly.
                let (own, accept) = io.coin_accept(|own| probs[idx | own]);
                if let Some(p) = parent {
                    io.send(*p, own as u64)?;
                }
                Ok(accept)
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Batched fault-sweep sampling
// ---------------------------------------------------------------------------

/// An [`OutcomeSampler`] running a [`RoundProgram`] over a faulty channel
/// transport: each pool worker owns one transport instance (scratch), each
/// trial runs under its own [`BlockRng::trial`] coordinate, so outcomes —
/// accepts, rejects, aborts, message counts and the transcript digest — are
/// bit-identical at any worker count.
pub struct TransportSampler<'a, P: RoundProgram> {
    program: &'a P,
    plan: FaultPlan,
    policy: RetryPolicy,
}

impl<'a, P: RoundProgram> TransportSampler<'a, P> {
    /// Builds the sampler for `program` under fault schedule `plan`.
    pub fn new(program: &'a P, plan: FaultPlan, policy: RetryPolicy) -> Self {
        TransportSampler {
            program,
            plan,
            policy,
        }
    }
}

/// Tallies one finished round into `out`; the per-trial digest folds in the
/// fault salt, exactly as the TCP fleet's supervisor folds its node reports.
pub(crate) fn tally(
    out: &mut BlockOutcomes,
    outcome: &RoundOutcome,
    stats: &RoundStats,
    salt: u64,
) {
    match outcome {
        RoundOutcome::Accept => out.accepts += 1,
        RoundOutcome::Reject => out.rejects += 1,
        RoundOutcome::Aborted(_) => out.aborts += 1,
    }
    out.messages += stats.sent;
    out.retries += stats.retries;
    out.digest ^= mix(stats.digest.wrapping_add(salt));
}

impl<P: RoundProgram> OutcomeSampler for TransportSampler<'_, P> {
    // Each worker slot owns its transport exclusively, so the unsynchronised
    // local channel needs no locking.
    type Scratch = FaultyTransport<LocalChannelTransport>;

    fn scratch(&self) -> Self::Scratch {
        FaultyTransport::new(
            LocalChannelTransport::poll(self.program.num_nodes()),
            self.plan.clone(),
        )
    }

    fn sample_block(
        &self,
        trials: u64,
        scratch: &mut Self::Scratch,
        stream: &BlockRng,
    ) -> BlockOutcomes {
        let mut out = BlockOutcomes::default();
        for t in 0..trials {
            let trial = stream.trial(t);
            let (outcome, stats) = run_round(self.program, scratch, &self.policy, trial);
            tally(&mut out, &outcome, &stats, trial.salt());
        }
        out
    }
}

/// Runs `n` transport-level rounds of `program` under fault schedule `plan`,
/// dispatched over at most `workers` pool slots. The block-index determinism
/// contract of [`crate::trials`] applies: every field of the report's
/// [`BlockOutcomes`] is bit-identical at any worker count.
pub fn sample_transport_rounds<P: RoundProgram>(
    program: &P,
    plan: &FaultPlan,
    policy: &RetryPolicy,
    n: u64,
    seed: u64,
    workers: usize,
) -> OutcomeReport {
    let sampler = TransportSampler::new(program, plan.clone(), policy.clone());
    trials::run_outcome_trials_with_workers(&sampler, n, seed, workers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::ChainCheat;
    use crate::eq_path::EqPathProtocol;
    use commproto::bitstring::BitString;
    use commproto::fingerprint::FingerprintScheme;

    fn eq_path_program(equal: bool) -> ChainNetProgram {
        let protocol = EqPathProtocol::with_scheme(4, FingerprintScheme::small(6, 7), 8);
        let x = BitString::from_u64(0b101010, 6);
        let y = if equal {
            x.clone()
        } else {
            BitString::from_u64(0b010110, 6)
        };
        protocol.net_program(&x, &y, ChainCheat::Interpolate)
    }

    #[test]
    fn honest_chain_round_accepts_over_fault_free_transport() {
        let program = eq_path_program(true);
        let transport = LocalChannelTransport::poll(program.num_nodes());
        let policy = RetryPolicy::default();
        let stream = BlockRng::new(7, 0);
        for t in 0..64u64 {
            let (outcome, stats) = run_round(&program, &transport, &policy, stream.trial(t));
            assert!(outcome.is_accept(), "honest round must accept: {outcome:?}");
            assert_eq!(stats.retries, 0, "fault-free transport must not retry");
            // One message per hop on the path 0..=r.
            assert_eq!(stats.sent as usize, program.num_nodes() - 1);
        }
    }

    #[test]
    fn full_partition_aborts_with_retries_exhausted() {
        let program = eq_path_program(true);
        let plan = FaultPlan {
            drop_rate: 1.0,
            ..FaultPlan::none()
        };
        let transport =
            FaultyTransport::new(LocalChannelTransport::poll(program.num_nodes()), plan);
        let policy = RetryPolicy::default();
        let (outcome, _) = run_round(&program, &transport, &policy, BlockRng::new(11, 0).trial(3));
        match outcome {
            RoundOutcome::Aborted(report) => {
                assert_eq!(report.node, 0, "the first sender hits the wall first");
                assert!(matches!(
                    report.cause,
                    FaultCause::RetriesExhausted { to: 1, .. }
                ));
            }
            other => panic!("expected an abort, got {other:?}"),
        }
    }

    #[test]
    fn panicking_program_degrades_to_aborted() {
        struct Bomb;
        impl RoundProgram for Bomb {
            fn num_nodes(&self) -> usize {
                2
            }
            fn schedule(&self) -> &[NodeId] {
                &[0, 1]
            }
            fn run_node<T: Transport + ?Sized>(
                &self,
                node: NodeId,
                _io: &mut NodeIo<'_, T>,
            ) -> Result<bool, FaultCause> {
                if node == 1 {
                    panic!("verifier bug");
                }
                Ok(true)
            }
        }
        let transport = LocalChannelTransport::poll(2);
        let policy = RetryPolicy::default();
        let stream = BlockRng::new(0, 0);
        let (outcome, _) = run_round(&Bomb, &transport, &policy, stream.trial(1));
        match outcome {
            RoundOutcome::Aborted(report) => {
                assert_eq!(report.node, 1);
                assert_eq!(report.cause, FaultCause::NodePanicked);
            }
            other => panic!("expected an abort, got {other:?}"),
        }
        // The poll transport (and the driver) stay usable.
        let program = eq_path_program(true);
        let transport = LocalChannelTransport::poll(program.num_nodes());
        let (outcome, _) = run_round(&program, &transport, &policy, stream.trial(2));
        assert!(outcome.is_accept());
    }

    #[test]
    fn crashed_node_reports_partial_costs() {
        let program = eq_path_program(true).with_message_qubits(3);
        let plan = FaultPlan {
            crashes: vec![netsim::transport::CrashWindow {
                node: 2,
                start: 0,
                end: VTime::MAX,
            }],
            ..FaultPlan::none()
        };
        let transport =
            FaultyTransport::new(LocalChannelTransport::poll(program.num_nodes()), plan);
        let policy = RetryPolicy::default();
        let mut costs = CostTracker::new();
        let trial = BlockRng::new(5, 0).trial(9);
        let (outcome, _) = run_round_with_costs(&program, &transport, &policy, trial, &mut costs);
        match outcome {
            RoundOutcome::Aborted(report) => {
                // Node 1's send into the crashed node exhausts first (send
                // order precedes node 2's own crash check in the schedule).
                assert!(
                    matches!(report.cause, FaultCause::RetriesExhausted { to: 2, .. })
                        || matches!(report.cause, FaultCause::NodeCrashed { .. }),
                    "unexpected cause: {:?}",
                    report.cause
                );
                // The partial tracker saw node 0's opening message at least.
                assert!(report.partial.total_message_qubits >= 3);
            }
            other => panic!("expected an abort, got {other:?}"),
        }
    }
}
