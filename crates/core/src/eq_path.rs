//! The improved dQMA protocol for EQ on a path (Section 3.2 of the paper):
//! protocol `Pπ` (Algorithm 3) and its parallel repetition `Pπ[k]`
//! (Algorithm 4).
//!
//! The left extremity holds `x`, the right extremity holds `y`; the prover
//! hands every intermediate node two fingerprint registers, the nodes
//! symmetrise, forward and SWAP-test, and the right extremity runs Bob's
//! measurement from the one-way EQ protocol π. The protocol has perfect
//! completeness and, before repetition, soundness error at most
//! `1 − 4/(81 r²)`; `O(r²)` parallel repetitions push it below 1/3 with local
//! proof and message size `O(r² log n)` (Theorem 19 specialised to a path).

use crate::chain::{cheating_proof, ChainCheat, SwapTestChain};
use commproto::bitstring::BitString;
use commproto::fingerprint::FingerprintScheme;
use commproto::one_way::{EqOneWay, OneWayProtocol};
use netsim::ProtocolCosts;

/// The EQ protocol `Pπ[k]` on a path of length `r`.
#[derive(Clone, Debug)]
pub struct EqPathProtocol {
    r: usize,
    protocol: EqOneWay,
    repetitions: usize,
}

impl EqPathProtocol {
    /// Builds the protocol for `n`-bit inputs on a path of length `r`, with
    /// the paper's repetition count `⌈2·81r²/4⌉`.
    pub fn new(n: usize, r: usize, seed: u64) -> Self {
        EqPathProtocol {
            r,
            protocol: EqOneWay::for_input_len(n, seed),
            repetitions: SwapTestChain::paper_repetitions(r),
        }
    }

    /// Builds the protocol with an explicit fingerprint scheme and repetition
    /// count (used by the relay-point protocol and by small exact-simulation
    /// experiments).
    pub fn with_scheme(r: usize, scheme: FingerprintScheme, repetitions: usize) -> Self {
        assert!(repetitions >= 1, "at least one repetition required");
        EqPathProtocol {
            r,
            protocol: EqOneWay::new(scheme),
            repetitions,
        }
    }

    /// Path length.
    pub fn path_length(&self) -> usize {
        self.r
    }

    /// Input length in bits.
    pub fn input_len(&self) -> usize {
        self.protocol.input_len()
    }

    /// Number of parallel repetitions `k`.
    pub fn repetitions(&self) -> usize {
        self.repetitions
    }

    /// The underlying one-way EQ protocol π.
    pub fn one_way(&self) -> &EqOneWay {
        &self.protocol
    }

    /// The SWAP-test chain of a single repetition on inputs `(x, y)`.
    pub fn chain(&self, x: &BitString, y: &BitString) -> SwapTestChain {
        SwapTestChain::new(
            self.r,
            self.protocol.alice_message(x),
            self.protocol.bob_effect(y),
        )
    }

    /// Acceptance probability of a single repetition with the honest proof.
    /// Equal inputs are accepted with probability exactly 1.
    pub fn completeness(&self, x: &BitString) -> f64 {
        self.chain(x, x).completeness()
    }

    /// Acceptance probability of a single repetition under a named cheating
    /// strategy on (not necessarily equal) inputs.
    pub fn single_round_acceptance(&self, x: &BitString, y: &BitString, cheat: ChainCheat) -> f64 {
        let chain = self.chain(x, y);
        let right_state = self.protocol.alice_message(y);
        let proof = cheating_proof(&chain, &right_state, cheat);
        chain.acceptance_separable(&proof)
    }

    /// Acceptance probability of the full `k`-fold repetition assuming the
    /// prover plays the same strategy independently in every repetition.
    pub fn repeated_acceptance(&self, x: &BitString, y: &BitString, cheat: ChainCheat) -> f64 {
        SwapTestChain::repeated_soundness(
            self.single_round_acceptance(x, y, cheat),
            self.repetitions,
        )
    }

    /// Samples one full round of a single repetition under a named cheating
    /// strategy, through the chain's pure-state fast path
    /// ([`SwapTestChain::simulate_round`]). No joint density matrix is ever
    /// formed, so end-to-end rounds stay benchable at `r ≥ 8` where the
    /// joint dense-projector simulation cannot run.
    ///
    /// This convenience wrapper also prepares the round's instance data
    /// (Alice's fingerprint, Bob's effect, the cheating proof) on every call.
    /// Monte-Carlo loops over a *fixed* instance should use
    /// [`EqPathProtocol::sample_rounds`], which hoists all of that — plus
    /// the per-node overlap arithmetic — into a one-time
    /// [`crate::chain::ChainRoundPlan`] and runs the batched trial engine.
    pub fn simulate_round<R: rand::Rng + ?Sized>(
        &self,
        x: &BitString,
        y: &BitString,
        cheat: ChainCheat,
        rng: &mut R,
    ) -> bool {
        let chain = self.chain(x, y);
        let right_state = self.protocol.alice_message(y);
        let proof = cheating_proof(&chain, &right_state, cheat);
        chain.simulate_round(&proof, rng)
    }

    /// Samples one honest round on a yes-instance (both extremities hold `x`,
    /// the prover forwards the fingerprint unchanged). Accepts with
    /// probability 1 up to floating-point error.
    pub fn simulate_honest_round<R: rand::Rng + ?Sized>(&self, x: &BitString, rng: &mut R) -> bool {
        let chain = self.chain(x, x);
        let proof = chain.honest_proof();
        chain.simulate_round(&proof, rng)
    }

    /// Batched Monte-Carlo rounds of a single repetition under a named
    /// cheating strategy: the instance (Alice's fingerprint, Bob's effect,
    /// the cheating proof) and the chain's round tables are prepared
    /// **once**, then `n` sampled rounds run through the block engine of
    /// [`crate::trials`] — `O(r)` table lookups per round, no per-round
    /// state preparation, accept counts bit-identical at any worker count.
    pub fn sample_rounds(
        &self,
        x: &BitString,
        y: &BitString,
        cheat: ChainCheat,
        n: u64,
        seed: u64,
    ) -> crate::trials::TrialReport {
        self.sample_rounds_with_workers(x, y, cheat, n, seed, crate::trials::default_workers())
    }

    /// As [`EqPathProtocol::sample_rounds`] with an explicit worker-slot
    /// count (determinism tests, bench worker sweeps).
    pub fn sample_rounds_with_workers(
        &self,
        x: &BitString,
        y: &BitString,
        cheat: ChainCheat,
        n: u64,
        seed: u64,
        workers: usize,
    ) -> crate::trials::TrialReport {
        let chain = self.chain(x, y);
        let right_state = self.protocol.alice_message(y);
        let proof = cheating_proof(&chain, &right_state, cheat);
        chain.sample_rounds_with_workers(&proof, n, seed, workers)
    }

    /// Compiles `(x, y, cheat)` into the same [`crate::chain::ChainRoundPlan`]
    /// that [`EqPathProtocol::sample_rounds_with_workers`] drives internally.
    /// Exposed so determinism tests and benches can run the plan through
    /// [`crate::trials::with_lane_width`] (or toggle the SIMD executors) and
    /// pin the results against the default engine bit-for-bit.
    pub fn round_plan(
        &self,
        x: &BitString,
        y: &BitString,
        cheat: ChainCheat,
    ) -> crate::chain::ChainRoundPlan {
        let chain = self.chain(x, y);
        let right_state = self.protocol.alice_message(y);
        let proof = cheating_proof(&chain, &right_state, cheat);
        chain.round_plan(&proof)
    }

    /// Compiles `(x, y, cheat)` into a per-node message-passing program for
    /// the transport executors of [`crate::net`]: the same round tables as
    /// [`EqPathProtocol::sample_rounds`], but walked one network node at a
    /// time over a [`netsim::Transport`]. With `x == y` every cheat strategy
    /// degenerates to the honest proof, so the same constructor covers
    /// completeness runs.
    pub fn net_program(
        &self,
        x: &BitString,
        y: &BitString,
        cheat: ChainCheat,
    ) -> crate::net::ChainNetProgram {
        let chain = self.chain(x, y);
        let right_state = self.protocol.alice_message(y);
        let proof = cheating_proof(&chain, &right_state, cheat);
        crate::net::ChainNetProgram::new(chain.round_plan(&proof))
    }

    /// Batched honest rounds on a yes-instance; every round accepts (up to
    /// floating-point error), so `accepts == trials` for a correct sampler.
    pub fn sample_honest_rounds(
        &self,
        x: &BitString,
        n: u64,
        seed: u64,
    ) -> crate::trials::TrialReport {
        let chain = self.chain(x, x);
        let proof = chain.honest_proof();
        chain.sample_rounds(&proof, n, seed)
    }

    /// Exact soundness error of a single repetition against arbitrary
    /// (entangled) proofs, via the acceptance-operator spectral method.
    /// Only available for small fingerprint dimensions and short paths.
    pub fn single_round_optimal_acceptance(&self, x: &BitString, y: &BitString) -> f64 {
        self.chain(x, y).optimal_acceptance()
    }

    /// Cost summary of the full repeated protocol.
    pub fn costs(&self) -> ProtocolCosts {
        let q = self.protocol.scheme().qubits() as u64;
        let single = SwapTestChain::new(
            self.r,
            self.protocol
                .alice_message(&BitString::zeros(self.input_len())),
            qsim::CMatrix::identity(self.protocol.message_dim()),
        )
        .costs(q);
        scale_costs(&single, self.repetitions as u64)
    }

    /// The paper's bound on the local proof/message size:
    /// `O(r² log n)` qubits (constant 1).
    pub fn paper_local_cost(n: usize, r: usize) -> f64 {
        (r * r) as f64 * (n as f64).log2().max(1.0)
    }

    /// Cost summary of the full protocol with the paper's parameters, computed
    /// without materialising a fingerprint code — usable for very large `n`.
    /// Fingerprint registers are `⌈log₂(8n)⌉` qubits as in
    /// [`FingerprintScheme::new`].
    pub fn costs_for(n: usize, r: usize) -> ProtocolCosts {
        let q = ((8 * n).next_power_of_two().trailing_zeros() as u64).max(1);
        let reps = SwapTestChain::paper_repetitions(r) as u64;
        let mut t = netsim::CostTracker::new();
        for j in 1..r {
            t.record_proof(j, 2 * q);
        }
        for j in 0..r {
            t.record_message(j, j + 1, q);
        }
        t.set_rounds(1);
        scale_costs(&t.summary(), reps)
    }
}

/// Multiplies every cost entry of a single repetition by the repetition count.
pub fn scale_costs(single: &ProtocolCosts, k: u64) -> ProtocolCosts {
    ProtocolCosts {
        local_proof_qubits: single.local_proof_qubits * k,
        total_proof_qubits: single.total_proof_qubits * k,
        local_message_qubits: single.local_message_qubits * k,
        total_message_qubits: single.total_message_qubits * k,
        local_proof_bits: single.local_proof_bits * k,
        total_proof_bits: single.total_proof_bits * k,
        local_message_bits: single.local_message_bits * k,
        total_message_bits: single.total_message_bits * k,
        rounds: single.rounds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_protocol(n: usize, r: usize) -> EqPathProtocol {
        // A small fingerprint (m = 4) keeps exact simulation cheap.
        EqPathProtocol::with_scheme(r, FingerprintScheme::small(n, 7), 4)
    }

    #[test]
    fn perfect_completeness_on_equal_inputs() {
        let proto = small_protocol(4, 3);
        for v in [0u64, 5, 15] {
            let x = BitString::from_u64(v, 4);
            assert!((proto.completeness(&x) - 1.0).abs() < 1e-10, "x = {v}");
        }
    }

    #[test]
    fn unequal_inputs_are_rejected_with_positive_probability() {
        let proto = small_protocol(4, 3);
        let x = BitString::from_u64(3, 4);
        let y = BitString::from_u64(12, 4);
        for cheat in [
            ChainCheat::AllLeft,
            ChainCheat::AllRight,
            ChainCheat::Interpolate,
        ] {
            let p = proto.single_round_acceptance(&x, &y, cheat);
            assert!(p < 1.0 - 1e-4, "{cheat:?} accepted with probability {p}");
        }
    }

    #[test]
    fn repetition_drives_acceptance_down_exponentially() {
        let proto = EqPathProtocol::with_scheme(3, FingerprintScheme::small(4, 7), 64);
        let x = BitString::from_u64(3, 4);
        let y = BitString::from_u64(12, 4);
        let single = proto.single_round_acceptance(&x, &y, ChainCheat::Interpolate);
        let repeated = proto.repeated_acceptance(&x, &y, ChainCheat::Interpolate);
        assert!(repeated < single);
        assert!(repeated < 1.0 / 3.0, "repeated acceptance {repeated}");
        // Completeness survives repetition unchanged.
        assert!((proto.completeness(&x) - 1.0).abs() < 1e-10);
    }

    #[test]
    fn sampled_rounds_agree_with_exact_single_round_acceptance() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let proto = small_protocol(4, 3);
        let x = BitString::from_u64(3, 4);
        let y = BitString::from_u64(12, 4);
        let exact = proto.single_round_acceptance(&x, &y, ChainCheat::Interpolate);
        let mut rng = StdRng::seed_from_u64(21);
        let trials = 3000;
        let accepts = (0..trials)
            .filter(|_| proto.simulate_round(&x, &y, ChainCheat::Interpolate, &mut rng))
            .count();
        let est = accepts as f64 / trials as f64;
        assert!(
            (est - exact).abs() < 0.05,
            "estimated {est} vs exact {exact}"
        );
        // Honest rounds accept with certainty.
        for _ in 0..20 {
            assert!(proto.simulate_honest_round(&x, &mut rng));
        }
    }

    #[test]
    fn paper_repetition_count_suffices_for_the_paper_bound() {
        // Using the paper's analytical bound (independent of the strategy).
        for r in [2usize, 3, 5] {
            let single = SwapTestChain::paper_soundness_bound(r);
            let repeated =
                SwapTestChain::repeated_soundness(single, SwapTestChain::paper_repetitions(r));
            assert!(repeated < 1.0 / 3.0);
        }
    }

    #[test]
    fn costs_match_theorem_19_shape() {
        // Local proof size O(r^2 log n): doubling r roughly quadruples the cost,
        // squaring n only doubles it.
        let c_base = EqPathProtocol::new(16, 4, 1).costs();
        let c_double_r = EqPathProtocol::new(16, 8, 1).costs();
        let c_square_n = EqPathProtocol::new(256, 4, 1).costs();
        let ratio_r = c_double_r.local_proof_qubits as f64 / c_base.local_proof_qubits as f64;
        let ratio_n = c_square_n.local_proof_qubits as f64 / c_base.local_proof_qubits as f64;
        assert!((3.0..=5.0).contains(&ratio_r), "r-scaling ratio {ratio_r}");
        assert!(ratio_n <= 2.5, "n-scaling ratio {ratio_n}");
        assert_eq!(c_base.rounds, 1);
    }

    #[test]
    fn spectral_soundness_on_tiny_instance() {
        // One intermediate node, tiny fingerprints: exact soundness against
        // arbitrary entangled proofs stays below 1.
        let proto = EqPathProtocol::with_scheme(2, FingerprintScheme::small(2, 3), 1);
        let x = BitString::from_u64(1, 2);
        let y = BitString::from_u64(2, 2);
        let opt = proto.single_round_optimal_acceptance(&x, &y);
        assert!(opt < 1.0 - 1e-6);
        // No separable strategy can beat it.
        for cheat in [
            ChainCheat::AllLeft,
            ChainCheat::AllRight,
            ChainCheat::Interpolate,
        ] {
            assert!(proto.single_round_acceptance(&x, &y, cheat) <= opt + 1e-8);
        }
    }

    #[test]
    fn paper_local_cost_formula_shape() {
        assert!(EqPathProtocol::paper_local_cost(16, 8) > EqPathProtocol::paper_local_cost(16, 4));
        assert!(
            EqPathProtocol::paper_local_cost(256, 4) / EqPathProtocol::paper_local_cost(16, 4)
                < 2.5
        );
    }
}
