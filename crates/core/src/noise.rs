//! Kraus noise on dQMA chain rounds: proofs and in-flight messages pass
//! through the channels of [`qsim::noise`], and the noisy rounds run through
//! both batched engines — the lane-batched trial engine of [`crate::trials`]
//! and the message-passing transport layer of [`crate::net`].
//!
//! # Model
//!
//! A [`NoisePlan`] names up to two channels: a **proof** channel applied to
//! every prover register at preparation, and a **message** channel applied
//! to every in-flight hop — the left state's hop into the first
//! intermediate, and each forwarded register's hop to the next node (or the
//! right boundary). Channels act by **trajectory unravelling**: Kraus branch
//! `m` of channel `{K_m}` is selected with probability `‖K_m|ψ⟩‖²` and the
//! state renormalised, which reproduces the exact channel in expectation
//! (`ρ ↦ Σ_m K_m ρ K_m†` — pinned against the density-matrix
//! [`qsim::DensityMatrix::apply_kraus`] executors by the adversarial
//! integration suite). Conditioned on the symmetrisation coins *and* the
//! branch choices, every register still enters exactly one SWAP test or
//! boundary measurement, so a round's acceptance stays a product of per-node
//! table factors — now indexed by branch as well as coin — and the exact
//! noisy acceptance is a transfer product over the enlarged Markov state
//! `(coin, proof branch, message branch)` ([`NoisyChainSampler::exact_acceptance`]).
//!
//! # Draw schedule (the PR-7 determinism contract, satellite 6)
//!
//! Noise draws come from [`BlockRng::noise_rng`] — a counter-stream family
//! keyed *separately* from the coin/accept family — so switching noise on
//! never consumes from, and therefore never perturbs, the coin and accept
//! draw schedule of the noise-free engine. A noisy trial draws, in order:
//! its coin word and accept draw from [`BlockRng::trial_rng`] (exactly the
//! noise-free schedule), then from the noise stream one `u64` for the left
//! hop and one `u64` per intermediate node, bit-sliced into three 21-bit
//! uniforms (kept-register proof branch, forwarded-register proof branch,
//! forwarded-hop message branch; selection thresholds are therefore
//! quantised at `2⁻²¹` — far below every statistical tolerance in the
//! suite). A quiet plan ([`NoisePlan::is_quiet`]) delegates wholesale to the
//! inner noise-free [`ChainRoundPlan`], so toggling noise off reproduces the
//! PR-7 accept counts **bit-exactly** at every worker count, lane width and
//! SIMD setting.

use crate::adversary::{plan_acceptance, swap_accept};
use crate::chain::{ChainRoundPlan, SeparableChainProof, SwapTestChain};
use crate::net::{run_chain_node, run_round, tally, NodeIo, RoundProgram};
use crate::trials::{
    default_lane_width, BatchSampler, BlockOutcomes, BlockRng, LaneBatched, OutcomeSampler,
    MAX_LANES,
};
use netsim::{
    FaultCause, FaultPlan, FaultyTransport, LocalChannelTransport, NodeId, RetryPolicy, Transport,
};
use qsim::random::CounterRng;
use qsim::CVector;
use rand::Rng;

/// Kraus branches with selection probability below this are pruned (they
/// carry no trajectory weight; e.g. `K_i|0⟩ = 0` for amplitude damping).
const BRANCH_EPS: f64 = 1e-14;

/// A single-register noise channel, by name and strength. Constructors live
/// in [`qsim::noise`]; this enum is the protocol-level handle the phase
/// diagrams sweep.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum NoiseChannel {
    /// Depolarizing: with probability `p` replace the state by `I/d`.
    Depolarizing {
        /// Depolarizing probability in `[0, 1]`.
        p: f64,
    },
    /// Dephasing towards the computational basis with strength `lambda`.
    Dephasing {
        /// Dephasing strength in `[0, 1]`.
        lambda: f64,
    },
    /// Amplitude damping towards `|0⟩` with decay probability `gamma`.
    AmplitudeDamping {
        /// Decay probability in `[0, 1]`.
        gamma: f64,
    },
}

impl NoiseChannel {
    /// The channel's Kraus operators at register dimension `d`.
    pub fn kraus(&self, d: usize) -> Vec<qsim::CMatrix> {
        match *self {
            NoiseChannel::Depolarizing { p } => qsim::noise::depolarizing_kraus(d, p),
            NoiseChannel::Dephasing { lambda } => qsim::noise::dephasing_kraus(d, lambda),
            NoiseChannel::AmplitudeDamping { gamma } => {
                qsim::noise::amplitude_damping_kraus(d, gamma)
            }
        }
    }

    /// The scalar strength parameter (the phase-diagram axis).
    pub fn strength(&self) -> f64 {
        match *self {
            NoiseChannel::Depolarizing { p } => p,
            NoiseChannel::Dephasing { lambda } => lambda,
            NoiseChannel::AmplitudeDamping { gamma } => gamma,
        }
    }

    /// Channel family name for chart labels.
    pub fn label(&self) -> &'static str {
        match self {
            NoiseChannel::Depolarizing { .. } => "depolarizing",
            NoiseChannel::Dephasing { .. } => "dephasing",
            NoiseChannel::AmplitudeDamping { .. } => "amplitude_damping",
        }
    }
}

/// Where noise strikes a chain round: prover registers at preparation,
/// messages in flight, or both. `None` (or a zero-strength channel) in a
/// slot means that slot is noise-free.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NoisePlan {
    /// Channel applied to every proof register at preparation.
    pub proof: Option<NoiseChannel>,
    /// Channel applied to every in-flight message register.
    pub message: Option<NoiseChannel>,
}

fn is_trivial(channel: Option<NoiseChannel>) -> bool {
    channel.is_none_or(|c| c.strength() == 0.0)
}

impl NoisePlan {
    /// The noise-free plan.
    pub fn quiet() -> Self {
        NoisePlan::default()
    }

    /// Noise on proof registers only.
    pub fn proof_only(channel: NoiseChannel) -> Self {
        NoisePlan {
            proof: Some(channel),
            message: None,
        }
    }

    /// Noise on in-flight messages only.
    pub fn message_only(channel: NoiseChannel) -> Self {
        NoisePlan {
            proof: None,
            message: Some(channel),
        }
    }

    /// The same channel on proofs and messages.
    pub fn symmetric(channel: NoiseChannel) -> Self {
        NoisePlan {
            proof: Some(channel),
            message: Some(channel),
        }
    }

    /// `true` when the plan injects no noise at all — the samplers then
    /// delegate to the noise-free engines bit-exactly.
    pub fn is_quiet(&self) -> bool {
        is_trivial(self.proof) && is_trivial(self.message)
    }
}

/// Trajectory branches of one channel applied to one fixed state.
struct BranchSet {
    /// Branch probabilities (pruned, renormalised to sum 1).
    q: Vec<f64>,
    /// Cumulative selection thresholds (last entry 1).
    cum: Vec<f64>,
    /// Normalised post-branch states.
    states: Vec<CVector>,
}

fn branch_set(state: &CVector, channel: Option<NoiseChannel>, d: usize) -> BranchSet {
    if is_trivial(channel) {
        return BranchSet {
            q: vec![1.0],
            cum: vec![1.0],
            states: vec![state.clone()],
        };
    }
    let ch = channel.expect("non-trivial channel");
    let mut q = Vec::new();
    let mut states = Vec::new();
    for k in ch.kraus(d) {
        let phi = k.apply(state);
        let p = phi.norm_sqr();
        if p > BRANCH_EPS {
            q.push(p);
            states.push(phi.normalized());
        }
    }
    let total: f64 = q.iter().sum();
    debug_assert!(
        (total - 1.0).abs() < 1e-9,
        "channel is not trace preserving: branch mass {total}"
    );
    for p in &mut q {
        *p /= total;
    }
    let mut cum = Vec::with_capacity(q.len());
    let mut acc = 0.0;
    for &p in &q {
        acc += p;
        cum.push(acc);
    }
    if let Some(last) = cum.last_mut() {
        *last = 1.0;
    }
    BranchSet { q, cum, states }
}

/// First branch whose cumulative threshold exceeds `u` (clamped to the last
/// branch, so `u = 1.0` is safe).
#[inline]
fn pick(cum: &[f64], u: f64) -> usize {
    cum.iter().position(|&c| u < c).unwrap_or(cum.len() - 1)
}

/// 21-bit integer image of a cumulative threshold: a quantised noise slice
/// `w` selects branch `i` iff `w < thr21(cum[i])`. For integer `w` and real
/// `x ≥ 0`, `w < ⌈x⌉ ⇔ w < x`, so the integer compare reproduces the
/// `u < cum` float compare of [`pick`] at `u = w·2⁻²¹` **exactly** — the
/// hot walk pays no float conversions without changing a single selection.
fn thr21(cum: f64) -> u32 {
    ((cum * (1u64 << 21) as f64).ceil() as u32).min(1 << 21)
}

/// Branchless [`pick`] over non-decreasing 21-bit thresholds (padded slots
/// hold `u32::MAX`): counting the thresholds `≤ u` yields the first index
/// whose threshold exceeds `u`, and the last live threshold is `2²¹ > u`,
/// so the count never lands on a padded slot.
#[inline(always)]
fn pick21(thr: &[u32], u: u32) -> usize {
    thr.iter().map(|&t| usize::from(u >= t)).sum()
}

const MASK21: u64 = (1 << 21) - 1;
const SCALE53: f64 = 1.0 / (1u64 << 53) as f64;

#[inline]
fn unit_f64(x: u64) -> f64 {
    (x >> 11) as f64 * SCALE53
}

/// A chain instance with a separable proof compiled for **noisy** batched
/// round sampling: the per-register trajectory branches and all
/// branch-indexed acceptance tables are precomputed once, so a noisy round
/// is coin word + accept draw (the unchanged noise-free schedule) plus one
/// noise word per hop, three branchless 21-bit threshold picks and one
/// table lookup per node. `bench_adversarial` charts the resulting noise
/// tax against the noise-free per-trial walk (`noisy_rounds_r32`) and
/// holds the `≤ 2×` overhead budget at the message-passing layer
/// (`noisy_transport_r8`), where a round's cost is dominated by the
/// envelope machinery rather than the table walk.
///
/// Runs through [`crate::trials::run_trials_with_workers`] (it implements
/// [`BatchSampler`] and [`LaneBatched`]) and, via
/// [`NoisyChainSampler::transport_sampler`], through the fault-injecting
/// message-passing runtime of [`crate::net`].
pub struct NoisyChainSampler {
    /// The noise-free compiled plan: quiet delegation target and the source
    /// of `base_tables`.
    inner: ChainRoundPlan,
    quiet: bool,
    k: usize,
    /// Branch-table strides.
    p_max: usize,
    m_max: usize,
    s_in: usize,
    /// Branch probabilities / selection thresholds: left hop, proof
    /// registers (index `2j + b`), message branches (index
    /// `(2j + b)·p_max + mp`; empty for padded slots).
    left_q: Vec<f64>,
    left_cum: Vec<f64>,
    proof_q: Vec<Vec<f64>>,
    proof_cum: Vec<Vec<f64>>,
    msg_q: Vec<Vec<f64>>,
    msg_cum: Vec<Vec<f64>>,
    /// Flat 21-bit selection thresholds for the trials-path hot walk
    /// (`proof_thr[(2j + b)·p_max + i]`, `msg_thr[((2j + b)·p_max + mp)·m_max
    /// + i]`), padded to `u32::MAX`; selection-identical to the `*_cum`
    /// float scans (see [`thr21`]).
    proof_thr: Vec<u32>,
    msg_thr: Vec<u32>,
    /// Node-0 table: `t0[ml·2p_max + b·p_max + mp]` = SWAP acceptance of the
    /// `ml`-branch left state against branch `mp` of register `(0, b)`.
    t0: Vec<f64>,
    /// Node `j ∈ 1..k` tables, indexed
    /// `((j−1)·s_in + s_prev)·2p_max + b·p_max + mp` where `s_prev` encodes
    /// the forwarded register's `(b, mp, mm)`.
    mid: Vec<f64>,
    /// Boundary values per forwarded-register state `s_prev`.
    bnd: Vec<f64>,
    /// `k = 0` only: boundary on the (message-noised) left state per branch.
    bnd_left: Vec<f64>,
    /// The noise-free tables `4·(k+1)`, for the quiet transport program.
    base_tables: Vec<f64>,
    /// Right-boundary effect dimension bookkeeping for transport programs.
    num_nodes: usize,
}

impl NoisyChainSampler {
    /// Compiles `chain` with `proof` under `plan`.
    ///
    /// # Panics
    ///
    /// Panics if the proof does not match the chain, or if the plan is
    /// noisy and `k > 62`: the noisy walk draws all of a trial's coins from
    /// one word, with the noise-free schedule's first draw. (The noise-free
    /// lane walk of a quiet plan covers every chain length.)
    pub fn new(chain: &SwapTestChain, proof: &SeparableChainProof, plan: &NoisePlan) -> Self {
        let inner = chain.round_plan(proof);
        let k = chain.num_intermediate();
        let d = chain.register_dim();
        let quiet = plan.is_quiet();
        let mut base_tables = vec![0.0; 4 * (k + 1)];
        for j in 0..=k {
            for idx in 0..4 {
                base_tables[4 * j + idx] = inner.table(j, idx);
            }
        }
        let mut sampler = NoisyChainSampler {
            inner,
            quiet,
            k,
            p_max: 1,
            m_max: 1,
            s_in: 2,
            left_q: Vec::new(),
            left_cum: Vec::new(),
            proof_q: Vec::new(),
            proof_cum: Vec::new(),
            msg_q: Vec::new(),
            msg_cum: Vec::new(),
            proof_thr: Vec::new(),
            msg_thr: Vec::new(),
            t0: Vec::new(),
            mid: Vec::new(),
            bnd: Vec::new(),
            bnd_left: Vec::new(),
            base_tables,
            num_nodes: k + 2,
        };
        if quiet {
            return sampler;
        }
        assert!(
            k <= 62,
            "noisy sampling draws its coins from one word (k <= 62), got k = {k}"
        );
        let left_amps = chain.left_state().amplitudes();
        let left = branch_set(left_amps, plan.message, d);
        let boundary =
            |v: &CVector| -> f64 { chain.right_effect().quadratic_form(v).re.clamp(0.0, 1.0) };
        if k == 0 {
            sampler.bnd_left = left.states.iter().map(&boundary).collect();
            sampler.left_q = left.q;
            sampler.left_cum = left.cum;
            return sampler;
        }
        let proof_sets: Vec<BranchSet> = proof
            .iter()
            .flat_map(|(r0, r1)| {
                [
                    branch_set(r0.amplitudes(), plan.proof, d),
                    branch_set(r1.amplitudes(), plan.proof, d),
                ]
            })
            .collect();
        let p_max = proof_sets.iter().map(|s| s.q.len()).max().unwrap_or(1);
        let mut msg_sets: Vec<Option<BranchSet>> = (0..2 * k * p_max).map(|_| None).collect();
        for (i, set) in proof_sets.iter().enumerate() {
            for (p, st) in set.states.iter().enumerate() {
                msg_sets[i * p_max + p] = Some(branch_set(st, plan.message, d));
            }
        }
        let m_max = msg_sets
            .iter()
            .flatten()
            .map(|s| s.q.len())
            .max()
            .unwrap_or(1);
        let two_p = 2 * p_max;
        let s_in = two_p * m_max;

        let lm = left.q.len();
        let mut t0 = vec![0.0; lm * two_p];
        for (ml, lst) in left.states.iter().enumerate() {
            for b in 0..2 {
                for (p, st) in proof_sets[b].states.iter().enumerate() {
                    t0[ml * two_p + b * p_max + p] = swap_accept(lst, st);
                }
            }
        }
        let mut mid = vec![0.0; (k - 1) * s_in * two_p];
        for j in 1..k {
            for f in 0..2 {
                let fwd_idx = 2 * (j - 1) + f;
                for (pf, _) in proof_sets[fwd_idx].states.iter().enumerate() {
                    let mset = msg_sets[fwd_idx * p_max + pf]
                        .as_ref()
                        .expect("message branches exist for live proof branches");
                    for (mm, fst) in mset.states.iter().enumerate() {
                        let s = (f * p_max + pf) * m_max + mm;
                        for c in 0..2 {
                            for (pc, kst) in proof_sets[2 * j + c].states.iter().enumerate() {
                                mid[((j - 1) * s_in + s) * two_p + c * p_max + pc] =
                                    swap_accept(fst, kst);
                            }
                        }
                    }
                }
            }
        }
        let mut bnd = vec![0.0; s_in];
        for f in 0..2 {
            let fwd_idx = 2 * (k - 1) + f;
            for (pf, _) in proof_sets[fwd_idx].states.iter().enumerate() {
                let mset = msg_sets[fwd_idx * p_max + pf]
                    .as_ref()
                    .expect("message branches exist for live proof branches");
                for (mm, fst) in mset.states.iter().enumerate() {
                    bnd[(f * p_max + pf) * m_max + mm] = boundary(fst);
                }
            }
        }

        let mut proof_thr = vec![u32::MAX; 2 * k * p_max];
        for (i, set) in proof_sets.iter().enumerate() {
            for (p, &c) in set.cum.iter().enumerate() {
                proof_thr[i * p_max + p] = thr21(c);
            }
        }
        let mut msg_thr = vec![u32::MAX; 2 * k * p_max * m_max];
        for (i, set) in msg_sets.iter().enumerate() {
            if let Some(b) = set {
                for (m, &c) in b.cum.iter().enumerate() {
                    msg_thr[i * m_max + m] = thr21(c);
                }
            }
        }

        sampler.p_max = p_max;
        sampler.m_max = m_max;
        sampler.s_in = s_in;
        sampler.left_q = left.q;
        sampler.left_cum = left.cum;
        sampler.proof_thr = proof_thr;
        sampler.msg_thr = msg_thr;
        sampler.proof_q = proof_sets.iter().map(|s| s.q.clone()).collect();
        sampler.proof_cum = proof_sets.into_iter().map(|s| s.cum).collect();
        sampler.msg_q = msg_sets
            .iter()
            .map(|s| s.as_ref().map(|b| b.q.clone()).unwrap_or_default())
            .collect();
        sampler.msg_cum = msg_sets
            .into_iter()
            .map(|s| s.map(|b| b.cum).unwrap_or_default())
            .collect();
        sampler.t0 = t0;
        sampler.mid = mid;
        sampler.bnd = bnd;
        sampler
    }

    /// `true` when the plan injects no noise (the sampler then delegates to
    /// the noise-free lane engine bit-exactly).
    pub fn is_quiet(&self) -> bool {
        self.quiet
    }

    /// Number of intermediate nodes.
    pub fn num_intermediate(&self) -> usize {
        self.k
    }

    /// Exact acceptance probability under the noise plan: the transfer
    /// product over the enlarged `(coin, proof branch, message branch)`
    /// Markov state — the curve the phase diagrams chart and the sampled
    /// rates are pinned against.
    pub fn exact_acceptance(&self) -> f64 {
        if self.quiet {
            return plan_acceptance(&self.inner);
        }
        if self.k == 0 {
            return self
                .left_q
                .iter()
                .zip(&self.bnd_left)
                .map(|(q, b)| q * b)
                .sum::<f64>()
                .clamp(0.0, 1.0);
        }
        let two_p = 2 * self.p_max;
        let mut cur = vec![0.0; self.s_in];
        for c0 in 0..2 {
            let mut t0avg = 0.0;
            for (ml, &ql) in self.left_q.iter().enumerate() {
                for (p, &qp) in self.proof_q[c0].iter().enumerate() {
                    t0avg += ql * qp * self.t0[ml * two_p + c0 * self.p_max + p];
                }
            }
            let f = 1 - c0;
            for (p, &qp) in self.proof_q[f].iter().enumerate() {
                for (m, &qm) in self.msg_q[f * self.p_max + p].iter().enumerate() {
                    cur[(f * self.p_max + p) * self.m_max + m] += 0.5 * t0avg * qp * qm;
                }
            }
        }
        for j in 1..self.k {
            let mut next = vec![0.0; self.s_in];
            for (s, &ws) in cur.iter().enumerate() {
                if ws == 0.0 {
                    continue;
                }
                for c in 0..2 {
                    let mut kept = 0.0;
                    for (p, &qp) in self.proof_q[2 * j + c].iter().enumerate() {
                        kept +=
                            qp * self.mid[((j - 1) * self.s_in + s) * two_p + c * self.p_max + p];
                    }
                    let w = 0.5 * ws * kept;
                    let f = 1 - c;
                    for (p, &qp) in self.proof_q[2 * j + f].iter().enumerate() {
                        for (m, &qm) in self.msg_q[(2 * j + f) * self.p_max + p].iter().enumerate()
                        {
                            next[(f * self.p_max + p) * self.m_max + m] += w * qp * qm;
                        }
                    }
                }
            }
            cur = next;
        }
        cur.iter()
            .zip(&self.bnd)
            .map(|(w, b)| w * b)
            .sum::<f64>()
            .clamp(0.0, 1.0)
    }

    /// One noisy trajectory's coin-and-branch-conditional acceptance weight.
    /// `coins` is the raw coin word (`c_j` = bit `j`); branch draws come
    /// from the trial's noise stream in the fixed schedule documented on
    /// the module.
    fn noisy_weight(&self, coins: u64, nr: &mut CounterRng) -> f64 {
        let ml = pick(&self.left_cum, unit_f64(nr.random::<u64>()));
        if self.k == 0 {
            return self.bnd_left[ml];
        }
        let p_max = self.p_max;
        let m_max = self.m_max;
        let two_p = 2 * p_max;
        let pt: &[u32] = &self.proof_thr;
        let mt: &[u32] = &self.msg_thr;
        let mut w = 1.0;
        let mut s_prev = 0usize;
        for j in 0..self.k {
            let word = nr.random::<u64>();
            let u_p0 = (word & MASK21) as u32;
            let u_p1 = ((word >> 21) & MASK21) as u32;
            let u_m = ((word >> 42) & MASK21) as u32;
            let c = ((coins >> j) & 1) as usize;
            let f = 1 - c;
            let (kept_u, fwd_u) = if c == 0 { (u_p0, u_p1) } else { (u_p1, u_p0) };
            let mp_kept = pick21(&pt[(2 * j + c) * p_max..][..p_max], kept_u);
            let mp_fwd = pick21(&pt[(2 * j + f) * p_max..][..p_max], fwd_u);
            let mm = pick21(&mt[((2 * j + f) * p_max + mp_fwd) * m_max..][..m_max], u_m);
            let kept_idx = c * p_max + mp_kept;
            w *= if j == 0 {
                self.t0[ml * two_p + kept_idx]
            } else {
                self.mid[((j - 1) * self.s_in + s_prev) * two_p + kept_idx]
            };
            s_prev = (f * p_max + mp_fwd) * m_max + mm;
        }
        w * self.bnd[s_prev]
    }

    /// One noisy trial: the unchanged coin/accept schedule from the trial
    /// stream, branches from the noise stream.
    fn noisy_trial(&self, stream: &BlockRng, t: u64) -> bool {
        let mut tr = stream.trial_rng(t);
        let coins = tr.random::<u64>();
        let draw = tr.random::<f64>();
        let mut nr = stream.noise_rng(t);
        draw < self.noisy_weight(coins, &mut nr)
    }

    /// Wraps the sampler for the message-passing runtime: each trial's
    /// trajectory branches become a per-trial round-table program executed
    /// node by node over a [`FaultyTransport`], so Kraus noise and injected
    /// transport faults compose in one run.
    pub fn transport_sampler(
        &self,
        faults: FaultPlan,
        policy: RetryPolicy,
    ) -> NoisyTransportSampler<'_> {
        NoisyTransportSampler {
            sampler: self,
            faults,
            policy,
        }
    }

    /// Round tables of one transport trial, written into the caller's
    /// scratch: trajectory branches are drawn for **both** registers of
    /// every node (the executing nodes flip their coins only later, inside
    /// the round — drawing the unused register's branches does not bias the
    /// used ones), then assembled into the `4·(k+1)` coin-pair table layout
    /// of [`ChainRoundPlan`]. Scratch-buffered so a transport trial costs
    /// zero heap allocations, like the noise-free [`crate::net`] samplers.
    fn transport_trial_tables(&self, rng: &mut CounterRng, scratch: &mut TransportTables) {
        let tables = &mut scratch.tables;
        let (mp, mm) = (&mut scratch.mp, &mut scratch.mm);
        if self.quiet {
            tables.copy_from_slice(&self.base_tables);
            return;
        }
        let k = self.k;
        let ml = pick(&self.left_cum, rng.random::<f64>());
        if k == 0 {
            tables.fill(self.bnd_left[ml]);
            return;
        }
        let two_p = 2 * self.p_max;
        for j in 0..k {
            for b in 0..2 {
                let p = pick(&self.proof_cum[2 * j + b], rng.random::<f64>());
                mp[j][b] = p;
                mm[j][b] = pick(
                    &self.msg_cum[(2 * j + b) * self.p_max + p],
                    rng.random::<f64>(),
                );
            }
        }
        for prev in 0..2 {
            for cur in 0..2 {
                tables[prev + 2 * cur] = self.t0[ml * two_p + cur * self.p_max + mp[0][cur]];
            }
        }
        for j in 1..k {
            for prev in 0..2 {
                let f = 1 - prev;
                let s = (f * self.p_max + mp[j - 1][f]) * self.m_max + mm[j - 1][f];
                for cur in 0..2 {
                    tables[4 * j + prev + 2 * cur] =
                        self.mid[((j - 1) * self.s_in + s) * two_p + cur * self.p_max + mp[j][cur]];
                }
            }
        }
        for prev in 0..2 {
            let f = 1 - prev;
            let s = (f * self.p_max + mp[k - 1][f]) * self.m_max + mm[k - 1][f];
            tables[4 * k + prev] = self.bnd[s];
            tables[4 * k + prev + 2] = self.bnd[s];
        }
    }
}

/// Reusable per-worker buffers of one transport trial's trajectory draw:
/// the `4·(k+1)` round tables plus the per-node branch indices.
struct TransportTables {
    tables: Vec<f64>,
    mp: Vec<[usize; 2]>,
    mm: Vec<[usize; 2]>,
}

impl TransportTables {
    fn new(k: usize) -> Self {
        TransportTables {
            tables: vec![0.0; 4 * (k + 1)],
            mp: vec![[0usize; 2]; k],
            mm: vec![[0usize; 2]; k],
        }
    }
}

impl LaneBatched for NoisyChainSampler {
    fn sample_lane_block(&self, trials: u64, stream: &BlockRng, lanes: usize) -> u64 {
        assert!(
            (1..=MAX_LANES).contains(&lanes),
            "lane width {lanes} outside 1..={MAX_LANES}"
        );
        if self.quiet {
            // Bit-exact noise-off: the PR-7 lane engine, untouched.
            return self.inner.sample_lane_block(trials, stream, lanes);
        }
        // Per-trial walk. Every draw is a pure function of the trial index
        // (counter streams), so the count is invariant in `lanes`, worker
        // grouping and the SIMD setting by construction.
        (0..trials).filter(|&t| self.noisy_trial(stream, t)).count() as u64
    }
}

impl BatchSampler for NoisyChainSampler {
    type Scratch = ();

    fn scratch(&self) {}

    fn sample_block(&self, trials: u64, _scratch: &mut (), stream: &BlockRng) -> u64 {
        self.sample_lane_block(trials, stream, default_lane_width())
    }
}

/// One transport trial's chain program: the per-trajectory round tables in
/// the coin-pair layout of [`ChainRoundPlan`], walked node by node by the
/// same executor as [`crate::net::ChainNetProgram`]. Borrows the worker's
/// scratch buffers — building one is free.
struct NoisyChainProgram<'a> {
    tables: &'a [f64],
    k: usize,
    schedule: &'a [NodeId],
}

impl RoundProgram for NoisyChainProgram<'_> {
    fn num_nodes(&self) -> usize {
        self.k + 2
    }

    fn schedule(&self) -> &[NodeId] {
        self.schedule
    }

    fn run_node<T: Transport + ?Sized>(
        &self,
        node: NodeId,
        io: &mut NodeIo<'_, T>,
    ) -> Result<bool, FaultCause> {
        run_chain_node(self.k, self.tables, node, io)
    }
}

/// [`OutcomeSampler`] running noisy chain rounds over the fault-injecting
/// transport: each trial draws its trajectory branches from
/// [`BlockRng::noise_rng`], then executes over the worker's
/// [`FaultyTransport`] under the same [`BlockRng::trial`] coordinate as
/// [`crate::net::TransportSampler`] — so a quiet plan reproduces that
/// sampler's outcomes and transcript digest bit-exactly.
pub struct NoisyTransportSampler<'a> {
    sampler: &'a NoisyChainSampler,
    faults: FaultPlan,
    policy: RetryPolicy,
}

/// Per-worker state of [`NoisyTransportSampler`]: the fault-injecting
/// transport plus the trial's trajectory-table buffers and node schedule,
/// all reused across the block.
pub struct NoisyTransportScratch {
    transport: FaultyTransport<LocalChannelTransport>,
    tables: TransportTables,
    schedule: Vec<NodeId>,
}

impl OutcomeSampler for NoisyTransportSampler<'_> {
    type Scratch = NoisyTransportScratch;

    fn scratch(&self) -> Self::Scratch {
        NoisyTransportScratch {
            transport: FaultyTransport::new(
                LocalChannelTransport::poll(self.sampler.num_nodes),
                self.faults.clone(),
            ),
            tables: TransportTables::new(self.sampler.k),
            schedule: (0..self.sampler.k + 2).collect(),
        }
    }

    fn sample_block(
        &self,
        trials: u64,
        scratch: &mut Self::Scratch,
        stream: &BlockRng,
    ) -> BlockOutcomes {
        let mut out = BlockOutcomes::default();
        for t in 0..trials {
            self.sampler
                .transport_trial_tables(&mut stream.noise_rng(t), &mut scratch.tables);
            let program = NoisyChainProgram {
                tables: &scratch.tables.tables,
                k: self.sampler.k,
                schedule: &scratch.schedule,
            };
            let trial = stream.trial(t);
            let (outcome, stats) = run_round(&program, &mut scratch.transport, &self.policy, trial);
            tally(&mut out, &outcome, &stats, trial.salt());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::sample_transport_rounds;
    use crate::trials::{run_trials_with_workers, stats};
    use qsim::{CMatrix, PureState};

    fn honest_chain(r: usize, dim: usize) -> (SwapTestChain, SeparableChainProof) {
        let state = PureState::single(dim, 0);
        let effect = CMatrix::projector(state.amplitudes());
        let chain = SwapTestChain::new(r, state, effect);
        let proof = chain.honest_proof();
        (chain, proof)
    }

    #[test]
    fn quiet_plan_detection() {
        assert!(NoisePlan::quiet().is_quiet());
        assert!(NoisePlan::proof_only(NoiseChannel::Depolarizing { p: 0.0 }).is_quiet());
        assert!(!NoisePlan::symmetric(NoiseChannel::Dephasing { lambda: 0.2 }).is_quiet());
    }

    #[test]
    fn quiet_sampler_reproduces_noise_free_counts_bit_exactly() {
        let (chain, proof) = honest_chain(6, 2);
        let noisy = NoisyChainSampler::new(&chain, &proof, &NoisePlan::quiet());
        assert!(noisy.is_quiet());
        let base = run_trials_with_workers(&chain.round_plan(&proof), 30_000, 11, 1);
        let quiet = run_trials_with_workers(&noisy, 30_000, 11, 1);
        assert_eq!(base.accepts, quiet.accepts);
    }

    #[test]
    fn basis_preserving_channels_keep_honest_completeness_exact() {
        // Dephasing projectors and the amplitude-damping fixed point both
        // leave computational-basis registers invariant: every trajectory
        // branch is the register itself, so completeness stays exactly 1.
        for channel in [
            NoiseChannel::Dephasing { lambda: 0.4 },
            NoiseChannel::AmplitudeDamping { gamma: 0.3 },
        ] {
            let (chain, proof) = honest_chain(4, 2);
            let noisy = NoisyChainSampler::new(&chain, &proof, &NoisePlan::symmetric(channel));
            assert!(
                (noisy.exact_acceptance() - 1.0).abs() < 1e-12,
                "{}: {}",
                channel.label(),
                noisy.exact_acceptance()
            );
            let report = run_trials_with_workers(&noisy, 5_000, 3, 1);
            assert_eq!(report.accepts, 5_000, "{}", channel.label());
        }
    }

    #[test]
    fn trajectory_sampling_matches_exact_transfer_product() {
        let (chain, proof) = honest_chain(4, 2);
        let plan = NoisePlan::symmetric(NoiseChannel::Depolarizing { p: 0.2 });
        let noisy = NoisyChainSampler::new(&chain, &proof, &plan);
        let exact = noisy.exact_acceptance();
        assert!(exact < 1.0 - 1e-3, "depolarizing must cost completeness");
        let n = 60_000u64;
        let report = run_trials_with_workers(&noisy, n, 5, 1);
        let margin = stats::hoeffding_margin(n);
        assert!(
            (report.acceptance_rate() - exact).abs() < margin,
            "measured {} vs exact {exact} (margin {margin})",
            report.acceptance_rate()
        );
    }

    #[test]
    fn completeness_degrades_monotonically_with_depolarizing_strength() {
        let (chain, proof) = honest_chain(8, 2);
        let acc = |p: f64| {
            NoisyChainSampler::new(
                &chain,
                &proof,
                &NoisePlan::symmetric(NoiseChannel::Depolarizing { p }),
            )
            .exact_acceptance()
        };
        let a0 = acc(0.0);
        let a1 = acc(0.1);
        let a3 = acc(0.3);
        assert!((a0 - 1.0).abs() < 1e-12);
        assert!(a1 < a0 && a3 < a1, "{a0} {a1} {a3}");
    }

    #[test]
    fn noisy_counts_are_worker_and_lane_invariant() {
        let (chain, proof) = honest_chain(5, 2);
        let plan = NoisePlan::symmetric(NoiseChannel::Depolarizing { p: 0.15 });
        let noisy = NoisyChainSampler::new(&chain, &proof, &plan);
        let base = run_trials_with_workers(&noisy, 25_000, 9, 1);
        for workers in [2usize, 4] {
            let r = run_trials_with_workers(&noisy, 25_000, 9, workers);
            assert_eq!(base.accepts, r.accepts, "workers = {workers}");
        }
        let stream = BlockRng::new(9, 0);
        let one = noisy.sample_lane_block(8192, &stream, 1);
        let wide = noisy.sample_lane_block(8192, &stream, 32);
        assert_eq!(one, wide);
    }

    #[test]
    fn quiet_transport_matches_the_noise_free_transport_sampler() {
        let (chain, proof) = honest_chain(4, 2);
        let noisy = NoisyChainSampler::new(&chain, &proof, &NoisePlan::quiet());
        let faults = FaultPlan::default();
        let policy = RetryPolicy::default();
        let program = chain.net_program(&proof);
        let base = sample_transport_rounds(&program, &faults, &policy, 4_000, 21, 2);
        let sampler = noisy.transport_sampler(faults, policy);
        let quiet = crate::trials::run_outcome_trials_with_workers(&sampler, 4_000, 21, 2);
        assert_eq!(base.outcomes, quiet.outcomes);
    }

    #[test]
    fn noisy_transport_loses_completeness() {
        let (chain, proof) = honest_chain(4, 2);
        let plan = NoisePlan::symmetric(NoiseChannel::Depolarizing { p: 0.25 });
        let noisy = NoisyChainSampler::new(&chain, &proof, &plan);
        let exact = noisy.exact_acceptance();
        let sampler = noisy.transport_sampler(FaultPlan::default(), RetryPolicy::default());
        let n = 20_000u64;
        let report = crate::trials::run_outcome_trials_with_workers(&sampler, n, 13, 2);
        assert!(report.accept_rate() < 1.0);
        // Fault-free transport rounds match the in-process trajectory law.
        assert!(
            (report.accept_rate() - exact).abs() < stats::hoeffding_margin(n),
            "transport {} vs exact {exact}",
            report.accept_rate()
        );
    }

    #[test]
    fn single_hop_chain_with_noise() {
        // r = 1 has no intermediate nodes: only the left state's hop into
        // the boundary measurement carries noise.
        let state = PureState::single(2, 0);
        let effect = CMatrix::projector(state.amplitudes());
        let chain = SwapTestChain::new(1, state, effect);
        let proof = chain.honest_proof();
        let plan = NoisePlan::message_only(NoiseChannel::Depolarizing { p: 0.3 });
        let noisy = NoisyChainSampler::new(&chain, &proof, &plan);
        // Depolarizing at d = 2: the |0⟩⟨0| boundary sees the state flipped
        // to |1⟩ with probability p/2, so acceptance is 1 − p/2.
        let exact = noisy.exact_acceptance();
        assert!((exact - (1.0 - 0.15)).abs() < 1e-12, "{exact}");
        let n = 40_000u64;
        let report = run_trials_with_workers(&noisy, n, 2, 1);
        assert!((report.acceptance_rate() - exact).abs() < stats::hoeffding_margin(n));
    }
}
