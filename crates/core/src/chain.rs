//! The SWAP-test relay chain — the engine behind every path protocol in the
//! paper (Algorithm 3 and its descendants).
//!
//! The structure shared by the protocols of Sections 3.2, 5.1 and 7 is:
//!
//! * the left extremity `v₀` prepares a state `|a>` (a fingerprint, a prefix
//!   fingerprint, or the output of Alice's unitary on a QMA proof);
//! * every intermediate node `v_j` receives two registers from the prover,
//!   **symmetrises** them (swaps with probability 1/2, the paper's
//!   simplification of FGNP21), keeps one and forwards the other;
//! * every intermediate node SWAP-tests the register received from its left
//!   neighbour against the kept register;
//! * the right extremity `v_r` measures the final forwarded register with an
//!   accept effect `M` (Bob's measurement from a one-way protocol).
//!
//! [`SwapTestChain`] computes, exactly:
//! * the acceptance probability for any **separable** per-node proof, by
//!   enumerating the `2^{r−1}` symmetrisation patterns (conditioned on a
//!   pattern all tests act on disjoint registers, so the joint acceptance
//!   factorises);
//! * the full **acceptance operator** on the joint proof space for small
//!   instances, whose largest eigenvalue is the exact soundness error against
//!   arbitrary *entangled* proofs — the quantity the paper can only bound
//!   analytically.

use crate::trials::{default_lane_width, BatchSampler, BlockRng, LaneBatched, MAX_LANES};
use netsim::{CostTracker, ProtocolCosts};
use qsim::linalg::max_eigenvalue;
use qsim::plan::{KernelPlan, PlanScratch};
use qsim::swap_test::{swap_test_acceptance_pure, swap_test_on};
use qsim::{kernels, CMatrix, Complex, DensityMatrix, PureState};
use rand::Rng;

/// A proof for the chain: one pair of register states per intermediate node
/// (`R_{j,0}`, `R_{j,1}` for `j = 1..r−1`), each a pure state of the chain's
/// register dimension.
pub type SeparableChainProof = Vec<(PureState, PureState)>;

/// The SWAP-test relay chain on a path of length `r`.
#[derive(Clone, Debug)]
pub struct SwapTestChain {
    r: usize,
    dim: usize,
    left_state: PureState,
    right_effect: CMatrix,
}

impl SwapTestChain {
    /// Creates a chain of length `r` with the given boundary state and effect.
    ///
    /// # Panics
    ///
    /// Panics if `r == 0`, if the effect is not square of the state's
    /// dimension, or if the effect is not Hermitian.
    pub fn new(r: usize, left_state: PureState, right_effect: CMatrix) -> Self {
        assert!(r >= 1, "the path must have length at least 1");
        let dim = left_state.dim();
        assert!(
            right_effect.rows() == dim && right_effect.cols() == dim,
            "right effect must act on the message register"
        );
        assert!(
            right_effect.is_hermitian(1e-8),
            "right effect must be Hermitian"
        );
        SwapTestChain {
            r,
            dim,
            left_state: left_state.normalized(),
            right_effect,
        }
    }

    /// Path length `r`.
    pub fn path_length(&self) -> usize {
        self.r
    }

    /// Dimension of each message/proof register.
    pub fn register_dim(&self) -> usize {
        self.dim
    }

    /// Number of intermediate nodes (`r − 1`).
    pub fn num_intermediate(&self) -> usize {
        self.r - 1
    }

    /// The state prepared by the left extremity.
    pub fn left_state(&self) -> &PureState {
        &self.left_state
    }

    /// The honest proof when the prover wants every register to carry `state`:
    /// both registers of every intermediate node are set to `state`.
    pub fn uniform_proof(&self, state: &PureState) -> SeparableChainProof {
        assert_eq!(state.dim(), self.dim, "proof register dimension mismatch");
        (0..self.num_intermediate())
            .map(|_| (state.clone(), state.clone()))
            .collect()
    }

    /// The honest proof for a yes-instance: every register carries the left
    /// state itself (the prover forwards the fingerprint unchanged).
    pub fn honest_proof(&self) -> SeparableChainProof {
        self.uniform_proof(&self.left_state)
    }

    /// Exact probability that **all** nodes accept, for a separable per-node
    /// pure proof, averaging over the symmetrisation randomness.
    ///
    /// # Panics
    ///
    /// Panics if the proof does not have one register pair per intermediate
    /// node, or if any register has the wrong dimension.
    pub fn acceptance_separable(&self, proof: &SeparableChainProof) -> f64 {
        assert_eq!(
            proof.len(),
            self.num_intermediate(),
            "need one register pair per intermediate node"
        );
        for (a, b) in proof {
            assert_eq!(a.dim(), self.dim, "proof register dimension mismatch");
            assert_eq!(b.dim(), self.dim, "proof register dimension mismatch");
        }
        let k = self.num_intermediate();
        if k == 0 {
            // v_r measures the left state directly.
            return self.boundary_acceptance(&self.left_state);
        }
        let patterns = 1usize << k;
        let mut total = 0.0;
        for pattern in 0..patterns {
            let mut prob = 1.0;
            // `sent` walks down the chain: starts as the left state.
            let mut sent: &PureState = &self.left_state;
            for (j, (r0, r1)) in proof.iter().enumerate() {
                let swapped = (pattern >> j) & 1 == 1;
                let (kept, forwarded) = if swapped { (r1, r0) } else { (r0, r1) };
                prob *= swap_test_acceptance_pure(sent, kept);
                sent = forwarded;
            }
            prob *= self.boundary_acceptance(sent);
            total += prob;
        }
        (total / patterns as f64).clamp(0.0, 1.0)
    }

    /// Acceptance probability with the honest proof (completeness witness).
    pub fn completeness(&self) -> f64 {
        self.acceptance_separable(&self.honest_proof())
    }

    /// The acceptance operator `A` on the joint proof Hilbert space
    /// (`2(r−1)` registers of dimension `dim` each): the acceptance
    /// probability of any (possibly entangled) proof `ρ` is `tr(Aρ)`.
    ///
    /// # Panics
    ///
    /// Panics if the joint dimension exceeds 4096 (the operator would not fit
    /// in memory) or if the chain has no intermediate node.
    pub fn acceptance_operator(&self) -> CMatrix {
        let k = self.num_intermediate();
        assert!(
            k >= 1,
            "the acceptance operator needs at least one proof register"
        );
        let dims = vec![self.dim; 2 * k];
        let total: usize = dims.iter().product();
        assert!(
            total <= 1024,
            "joint proof dimension {total} too large for the spectral method"
        );
        // Effective effect of the SWAP test against the fixed left state |a>:
        // (⟨a| ⊗ I) Π_sym (|a> ⊗ I) = (I + |a><a|) / 2 on the kept register.
        let a_proj = CMatrix::projector(self.left_state.amplitudes());
        let left_effect = (&CMatrix::identity(self.dim) + &a_proj).scale(Complex::real(0.5));

        // Every kernel plan the 2^k pattern loop touches, compiled once and
        // embedded (the loop body re-derived layouts and operator structure
        // per pattern through PR 4): boundary-effect operator plans for both
        // coin values of the first/last node, and the four
        // (forwarded, kept) symmetric-class plans per interior node.
        let left_plans: Vec<KernelPlan> = (0..2)
            .map(|b| KernelPlan::for_operator(&dims, &[b], &left_effect))
            .collect();
        let right_plans: Vec<KernelPlan> = (0..2)
            .map(|b| KernelPlan::for_operator(&dims, &[2 * k - 2 + b], &self.right_effect))
            .collect();
        let sym_plans: Vec<[KernelPlan; 4]> = (1..k)
            .map(|j| {
                // Index `prev + 2·cur`: forwarded(j−1) = 2(j−1) + (1−prev),
                // kept(j) = 2j + cur.
                [0usize, 1, 2, 3].map(|idx| {
                    let (prev, cur) = (idx & 1, idx >> 1);
                    KernelPlan::for_symmetric(&dims, &[2 * (j - 1) + (1 - prev), 2 * j + cur])
                })
            })
            .collect();
        let mut scratch = PlanScratch::default();

        let mut accumulated = CMatrix::zeros(total, total);
        let patterns = 1usize << k;
        for pattern in 0..patterns {
            // Register index of R_{j,0} is 2j, of R_{j,1} is 2j+1 (j = 0..k-1).
            let bit = |j: usize| (pattern >> j) & 1;
            // Build the pattern's effect by strided right multiplication. The
            // SWAP-test factors are symmetric-subspace projectors, applied
            // matrix-free as column class averages (`O(rows·D)` each, no
            // d²×d² projector); the boundary effects are genuinely dense
            // one-register operators and go through the dense stride kernel.
            let mut effect = CMatrix::identity(total);
            kernels::right_multiply_matrix_with(&mut effect, &left_plans[bit(0)], &mut scratch);
            for j in 1..k {
                let plan = &sym_plans[j - 1][bit(j - 1) + 2 * bit(j)];
                kernels::project_classes_cols_with(&mut effect, plan, false, &mut scratch);
            }
            kernels::right_multiply_matrix_with(
                &mut effect,
                &right_plans[1 - bit(k - 1)],
                &mut scratch,
            );
            accumulated = &accumulated + &effect;
        }
        accumulated.scale(Complex::real(1.0 / patterns as f64))
    }

    /// Exact maximum acceptance probability over **all** proofs, including
    /// proofs entangled across nodes: the largest eigenvalue of the
    /// acceptance operator. For a no-instance this is the exact soundness
    /// error of the (un-repeated) protocol.
    ///
    /// # Panics
    ///
    /// See [`SwapTestChain::acceptance_operator`].
    pub fn optimal_acceptance(&self) -> f64 {
        if self.num_intermediate() == 0 {
            return self.boundary_acceptance(&self.left_state);
        }
        // The acceptance operator is a product/average of projectors and is not
        // Hermitian in general (the per-pattern factors commute, but the
        // average of products need not be); symmetrise before taking the top
        // eigenvalue — tr(Aρ) is real for states, so only the Hermitian part
        // contributes.
        let a = self.acceptance_operator();
        let herm = (&a + &a.adjoint()).scale(Complex::real(0.5));
        max_eigenvalue(&herm).clamp(0.0, 1.0)
    }

    /// The measurement effect applied by the right extremity.
    pub fn right_effect(&self) -> &CMatrix {
        &self.right_effect
    }

    /// Samples one full round of the chain protocol for a separable per-node
    /// pure proof: symmetrisation coins, one SWAP test per intermediate node,
    /// and Bob's final measurement. Returns `true` when every node accepts.
    ///
    /// Pure-state fast path: conditioned on the symmetrisation pattern every
    /// test acts on disjoint product registers, so each outcome is an
    /// independent Bernoulli draw from the overlap closed form — the joint
    /// density matrix is never formed and a round costs `O(r·d)`. This is
    /// what makes end-to-end rounds at `r ≥ 8` benchable; the joint-state
    /// dense-projector simulation is `O(d^{3(2r−1)})` and already
    /// unreachable at `r = 8`.
    ///
    /// # Panics
    ///
    /// Panics if the proof does not have one register pair per intermediate
    /// node or if any register has the wrong dimension.
    pub fn simulate_round<R: Rng + ?Sized>(
        &self,
        proof: &SeparableChainProof,
        rng: &mut R,
    ) -> bool {
        self.validate_proof(proof);
        let mut sent: &PureState = &self.left_state;
        for (r0, r1) in proof {
            let swapped = rng.random::<f64>() < 0.5;
            let (kept, forwarded) = if swapped { (r1, r0) } else { (r0, r1) };
            let p = swap_test_acceptance_pure(sent, kept);
            if rng.random::<f64>() >= p {
                return false;
            }
            sent = forwarded;
        }
        // Allocation-free boundary measurement (the round's one former
        // per-round allocation, `effect.apply(v)`).
        let p = self.boundary_acceptance(sent);
        rng.random::<f64>() < p
    }

    /// Validates a separable proof's shape once, before a sampling walk —
    /// hoisted out of the per-node loop so the hot path carries no checks.
    fn validate_proof(&self, proof: &SeparableChainProof) {
        assert_eq!(
            proof.len(),
            self.num_intermediate(),
            "need one register pair per intermediate node"
        );
        for (r0, r1) in proof {
            assert_eq!(r0.dim(), self.dim, "proof register dimension mismatch");
            assert_eq!(r1.dim(), self.dim, "proof register dimension mismatch");
        }
    }

    /// Acceptance probability of the right extremity's measurement on the
    /// final forwarded state, computed as an allocation-free quadratic form.
    #[inline]
    fn boundary_acceptance(&self, sent: &PureState) -> f64 {
        self.right_effect
            .quadratic_form(sent.amplitudes())
            .re
            .clamp(0.0, 1.0)
    }

    /// Samples one full round for per-node *mixed* proofs (one two-register
    /// density matrix per intermediate node), through the matrix-free
    /// measurement layer: the walk keeps only the frontier — the forwarded
    /// state tensored with the current node's register pair, a 3-register
    /// density matrix — applies the symmetrisation channel
    /// `ρ → ½ρ + ½ SρS†` as a (monomial fast-path) Kraus channel, runs the
    /// sampled matrix-free [`swap_test_on`], and traces down to the next
    /// forwarded register. `O(r·d⁶)` total; no dense projector, no joint
    /// state over the whole chain.
    ///
    /// # Panics
    ///
    /// Panics if the proof does not have one two-register density matrix of
    /// the chain's register dimension per intermediate node.
    /// This is the **rebuild-per-call consumer path**: every kernel it
    /// touches compiles a fresh plan, so each round re-derives layouts,
    /// operator classifications and class tables. Batch loops should run
    /// [`SwapTestChain::mixed_sampler`] through the trial engine, whose round
    /// plan compiles every kernel plan the frontier walk touches exactly once
    /// (the `eq_path_trials_mixed_*` rows of `BENCH_protocols.json` track the
    /// gap).
    pub fn simulate_round_mixed<R: Rng + ?Sized>(
        &self,
        proof: &[DensityMatrix],
        rng: &mut R,
    ) -> bool {
        self.validate_mixed_proof(proof);
        let d = self.dim;
        let d3 = d * d * d;
        let left = DensityMatrix::from_pure(&self.left_state);
        let swap = qsim::naive::cached_swap(d);
        let mut frontier = DensityMatrix::from_matrix(&[d, d, d], CMatrix::zeros(d3, d3));
        let mut tmp = CMatrix::zeros(d3, d3);
        let mut sent = DensityMatrix::from_matrix(&[d], CMatrix::zeros(d, d));
        let mut first = true;
        for pair in proof {
            {
                // Frontier: (sent, kept, forwarded) — everything already
                // tested has been traced out.
                let cur: &DensityMatrix = if first { &left } else { &sent };
                cur.tensor_into(pair, &mut frontier);
            }
            first = false;
            frontier.symmetrize_pair_with(1, 2, &swap, &mut tmp);
            if !swap_test_on(&mut frontier, 0, 1, rng) {
                return false;
            }
            frontier.partial_trace_keep_into(&[2], &mut sent);
        }
        let cur: &DensityMatrix = if first { &left } else { &sent };
        let p = cur.expectation(&self.right_effect).re.clamp(0.0, 1.0);
        rng.random::<f64>() < p
    }

    /// Validates a mixed proof's shape once, before a sampling walk.
    fn validate_mixed_proof(&self, proof: &[DensityMatrix]) {
        assert_eq!(
            proof.len(),
            self.num_intermediate(),
            "need one register pair per intermediate node"
        );
        for pair in proof {
            assert_eq!(
                pair.dims(),
                &[self.dim, self.dim],
                "proof register dimension mismatch"
            );
        }
    }

    /// Compiles a separable proof into a [`ChainRoundPlan`]: the
    /// per-instance preparation of the batched trial engine, done once
    /// instead of per round. See the plan type for the table semantics.
    ///
    /// # Panics
    ///
    /// As [`SwapTestChain::simulate_round`].
    pub fn round_plan(&self, proof: &SeparableChainProof) -> ChainRoundPlan {
        self.validate_proof(proof);
        let k = self.num_intermediate();
        let mut tables = vec![0.0f64; 4 * (k + 1)];
        // Node j = 0 tests the fixed left state against the kept register;
        // independent of the (nonexistent) previous coin.
        if k > 0 {
            let (r0, r1) = &proof[0];
            for prev in 0..2 {
                tables[prev] = swap_test_acceptance_pure(&self.left_state, r0);
                tables[2 + prev] = swap_test_acceptance_pure(&self.left_state, r1);
            }
        }
        // Node j ≥ 1 tests the register forwarded by node j−1 (selected by
        // the previous coin) against its own kept register (its own coin).
        for j in 1..k {
            let (p0, p1) = &proof[j - 1];
            let (r0, r1) = &proof[j];
            for (idx, (fwd, kept)) in [(p1, r0), (p0, r0), (p1, r1), (p0, r1)].iter().enumerate() {
                tables[4 * j + idx] = swap_test_acceptance_pure(fwd, kept);
            }
        }
        // The boundary measurement sees the register forwarded by the last
        // node (previous coin); duplicated across the unused own-coin bit.
        if k > 0 {
            let (p0, p1) = &proof[k - 1];
            for cur in 0..2 {
                tables[4 * k + 2 * cur] = self.boundary_acceptance(p1);
                tables[4 * k + 2 * cur + 1] = self.boundary_acceptance(p0);
            }
        } else {
            tables[..4].fill(self.boundary_acceptance(&self.left_state));
        }
        ChainRoundPlan::from_tables(tables, k)
    }

    /// Compiles a separable proof into a per-node message-passing program
    /// for the transport executors of [`crate::net`]: the chain's round
    /// tables walked one network node at a time over a
    /// [`netsim::Transport`].
    ///
    /// # Panics
    ///
    /// As [`SwapTestChain::round_plan`].
    pub fn net_program(&self, proof: &SeparableChainProof) -> crate::net::ChainNetProgram {
        crate::net::ChainNetProgram::new(self.round_plan(proof))
    }

    /// Prepares the batched sampler for per-node *mixed* proofs: the
    /// density-frontier walk of [`SwapTestChain::simulate_round_mixed`] with
    /// every node's linear algebra **compiled to register-sized real
    /// operators**.
    ///
    /// For a fixed proof pair `σ_j`, everything the per-round walk does with
    /// the `d³ × d³` frontier `sent ⊗ σ_j` is linear in the `d × d` `sent`
    /// register: the SWAP-test acceptance probability is a linear functional
    /// `p = ⟨F_j, sent⟩`, and the accepted-and-traced-down update is a
    /// superoperator `sent' = (1/p)·S_j·sent`. Because `sent` is Hermitian
    /// and the walk maps Hermitian to Hermitian, both compile to **real**
    /// operators over the Hermitian operator basis (`d²` real coordinates
    /// instead of `2d²` plane entries — half the state, a quarter of the
    /// mat-vec flops). They are compiled here, once per node, by pushing
    /// the basis elements through the frontier kernels — after which a
    /// round never materialises a frontier at all: it walks `d²`-real
    /// vectors through `d² × d²` compiled superoperators (2 KB per node at
    /// `d = 4`, L1-resident), executed by [`qsim::simd::dot4`] and
    /// [`qsim::simd::matvec_cols`] identically on the scalar and AVX2
    /// paths.
    ///
    /// # Panics
    ///
    /// Panics if the proof does not have one two-register density matrix of
    /// the chain's register dimension per intermediate node.
    pub fn mixed_sampler<'a>(&'a self, proof: &[DensityMatrix]) -> MixedChainSampler<'a> {
        self.validate_mixed_proof(proof);
        let d = self.dim;
        let d2 = d * d;
        let fdims = [d, d, d];
        // The node's symmetrisation channel ρ → ½ρ + ½S₁₂ρS₁₂† acts only on
        // the pair's own registers, so it commutes with tensoring the sent
        // register in front: channel(sent ⊗ pair) = sent ⊗ channel(pair).
        // The channel is deterministic, so it is applied to each proof pair
        // exactly once here.
        let sym_plan = KernelPlan::for_conjugation(&[d, d], &[0, 1], &qsim::gates::swap(d));
        let mut tmp = CMatrix::zeros(d2, d2);
        let mut scratch = PlanScratch::default();
        // The frontier plan exists only during this compilation (compiled
        // once, bypassing the plan cache): the S_2 class plan of the SWAP
        // test on (sent, kept). Steady-state rounds perform zero plan
        // compilations — asserted by `bench_protocols` via
        // `qsim::plan::compile_count`.
        let test_plan = KernelPlan::for_symmetric(&fdims, &[0, 1]);
        let mut frontier = DensityMatrix::from_matrix(&fdims, CMatrix::zeros(d2 * d, d2 * d));
        let mut traced = DensityMatrix::from_matrix(&[d], CMatrix::zeros(d, d));
        let nodes: Vec<MixedNodeOps> = proof
            .iter()
            .map(|pair| {
                let mut p = pair.clone();
                p.symmetrize_pair_planned(&sym_plan, &mut tmp, &mut scratch);
                // Compile the node by evaluating the frontier kernels on
                // the Hermitian basis elements B_c of the sent register:
                // column c of the superoperator holds the basis
                // coefficients of the unnormalised traced-down image of
                // B_c ⊗ pair, and F[c] is its class-projection trace.
                let mut ops = MixedNodeOps {
                    f: vec![0.0; d2],
                    s: vec![0.0; d2 * d2],
                    t: vec![0.0; d2],
                };
                for c in 0..d2 {
                    let basis = DensityMatrix::from_matrix(&[d], hermitian_basis_element(d, c));
                    basis.tensor_into(&p, &mut frontier);
                    ops.f[c] =
                        kernels::class_projection_trace_with(frontier.matrix(), &test_plan).re;
                    frontier.apply_class_projector_traced(&test_plan, 1.0, &mut traced);
                    hermitian_coeffs(traced.matrix(), d, &mut ops.s[c * d2..(c + 1) * d2]);
                }
                // Degenerate branch constant: tr_{01}(sent ⊗ pair) keeping
                // the forwarded register factorises as
                // tr(sent)·tr_kept(pair).
                hermitian_coeffs(p.partial_trace_keep(&[1]).matrix(), d, &mut ops.t);
                ops
            })
            .collect();
        // The walk's initial state and the final measurement, in the same
        // coordinates: tr(M·ρ) = ⟨M, ρ⟩ is a real dot of basis coefficient
        // vectors when both operators are Hermitian.
        let mut left_h = vec![0.0; d2];
        hermitian_coeffs(
            DensityMatrix::from_pure(&self.left_state).matrix(),
            d,
            &mut left_h,
        );
        let mut eff_h = vec![0.0; d2];
        hermitian_coeffs(&self.right_effect, d, &mut eff_h);
        MixedChainSampler {
            chain: self,
            nodes,
            left_h,
            eff_h,
        }
    }

    /// Cost summary of one repetition of the chain protocol, given the size in
    /// qubits of one message register.
    pub fn costs(&self, register_qubits: u64) -> ProtocolCosts {
        let mut t = CostTracker::new();
        for j in 1..self.r {
            t.record_proof(j, 2 * register_qubits);
        }
        for j in 0..self.r {
            t.record_message(j, j + 1, register_qubits);
        }
        t.set_rounds(1);
        t.summary()
    }

    /// The paper's soundness bound for one repetition on a no-instance
    /// (Section 3.2): all nodes accept with probability at most `1 − 4/(81·r²)`.
    pub fn paper_soundness_bound(r: usize) -> f64 {
        1.0 - 4.0 / (81.0 * (r as f64) * (r as f64))
    }

    /// Number of parallel repetitions the paper uses to push the soundness
    /// error below 1/3: `⌈2 · 81 r² / 4⌉`.
    pub fn paper_repetitions(r: usize) -> usize {
        (2.0 * 81.0 * (r as f64) * (r as f64) / 4.0).ceil() as usize
    }

    /// Soundness error after `k` independent parallel repetitions, given the
    /// soundness error `single` of one repetition.
    pub fn repeated_soundness(single: f64, k: usize) -> f64 {
        single.powi(k as i32)
    }
}

/// A chain instance compiled for batched round sampling.
///
/// Conditioned on the symmetrisation coins `c₀..c_{k−1}`, every SWAP test of
/// the chain acts on disjoint product registers, and the test at node `j`
/// involves only the registers selected by the coins `(c_{j−1}, c_j)` — a
/// Markov structure. The plan therefore precomputes, once per instance, a
/// 4-entry probability table per node (indexed by the adjacent coin pair;
/// the boundary measurement is a fifth pseudo-node depending on `c_{k−1}`
/// alone). A sampled round is then: draw the coin words (one `u64` per 63
/// nodes, see [`qsim::simd::shift_coin_planes`]), accumulate the
/// pattern-conditional acceptance `Π_j t_j(c)` by table lookups, and draw
/// one accept Bernoulli against the product — identical in distribution to
/// the per-node Bernoulli walk of [`SwapTestChain::simulate_round`] (a
/// product of independent accepts conditioned on the same coins), but with
/// **zero** per-round state preparation, allocation or overlap arithmetic.
#[derive(Clone, Debug)]
pub struct ChainRoundPlan {
    /// `4(k+1)` entries: node `j`'s acceptance at coin pair
    /// `idx = c_{j−1} + 2·c_j` (with `c_{−1} = 0`), nodes `0..k` the SWAP
    /// tests and node `k` the boundary measurement.
    tables: Vec<f64>,
    /// Number of intermediate nodes.
    k: usize,
    /// Chunk-fused node tables for the lane walk
    /// ([`qsim::simd::fuse_chain_tables`]): one pre-multiplied table per
    /// chunk of at most [`qsim::simd::CHUNK_NODES`] nodes, eight chunks per
    /// coin word.
    fused: Vec<f64>,
    /// Per-chunk selector masks, `2^(m_c + 1) − 1`.
    chunk_masks: Vec<u64>,
}

impl ChainRoundPlan {
    /// Builds a plan from its per-node tables and pre-fuses the chunked lane
    /// tables. Fusing multiplies each chunk's node entries at compile time
    /// (ascending node order), so the runtime walk does one table read per
    /// chunk instead of one per node.
    pub(crate) fn from_tables(tables: Vec<f64>, k: usize) -> ChainRoundPlan {
        assert_eq!(tables.len(), 4 * (k + 1), "one 4-entry table per node");
        let (fused, chunk_masks) = qsim::simd::fuse_chain_tables(&tables);
        ChainRoundPlan {
            tables,
            k,
            fused,
            chunk_masks,
        }
    }

    /// Number of intermediate nodes the plan covers.
    pub fn num_intermediate(&self) -> usize {
        self.k
    }

    /// The raw `4(k+1)` per-node tables — the serialisable identity of a
    /// compiled plan. [`crate::cluster::ProgramSpec`] ships these bit-exact
    /// (`f64::to_bits` hex) so a node process rebuilds the identical plan.
    pub(crate) fn tables(&self) -> &[f64] {
        &self.tables
    }

    /// Node `j`'s acceptance table entry at coin-pair index
    /// `idx = c_{j−1} + 2·c_j` (`j = k` is the boundary pseudo-node, indexed
    /// by `c_{k−1}` alone) — read by the per-node transport executors of
    /// [`crate::net`], which walk the same tables one node at a time.
    #[inline]
    pub(crate) fn table(&self, j: usize, idx: usize) -> f64 {
        self.tables[4 * j + idx]
    }

    /// Coin words one round draws: `⌈(k + 1) / 63⌉`.
    #[inline]
    pub(crate) fn coin_words(&self) -> usize {
        (self.k + 1).div_ceil(qsim::simd::WORD_NODES)
    }

    /// Draws one round's symmetrisation coins from `rng` and returns the
    /// coin-conditional acceptance probability `Π_j t_j(c)` — the chain's
    /// contribution to a round accept draw. Exposed so multi-segment
    /// protocols (relay) can combine several chains into a single Bernoulli.
    ///
    /// Draws `⌈(k + 1) / 63⌉` coin words and walks them in the lane walk's
    /// layout ([`qsim::simd::shift_coin_planes`]): node `63w + i`'s table
    /// index is `(aug_w >> i) & 3`.
    #[inline]
    pub fn round_weight<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        use qsim::simd::WORD_NODES;
        let nodes = self.k + 1;
        let mut w = 1.0;
        let mut carry = 0u64;
        for first in (0..nodes).step_by(WORD_NODES) {
            let raw = rng.random::<u64>();
            let aug = (raw << 1) | carry;
            carry = (raw >> 62) & 1;
            for j in first..nodes.min(first + WORD_NODES) {
                w *= self.tables[4 * j + ((aug >> (j - first)) & 3) as usize];
            }
        }
        w
    }

    /// Samples one round: coins, conditional product, one accept draw.
    #[inline]
    pub fn round<R: Rng + ?Sized>(&self, rng: &mut R) -> bool {
        let w = self.round_weight(rng);
        rng.random::<f64>() < w
    }

    /// Lane walk over the chunk-fused tables: `acc[i] = Π_j t_j(aug)` for a
    /// lane batch of plane-major pre-shifted coin words
    /// ([`ChainRoundPlan::coin_words`] planes of `acc.len()` lanes) — the
    /// vectorisable core shared with the relay plan, which multiplies one
    /// walk per segment into a round. The fused product groups nodes in
    /// chunks (same grouping on the scalar and AVX2 paths, so accept draws
    /// stay bit-identical across them), which rounds differently in the last
    /// ulp than the per-node walk of [`ChainRoundPlan::round_weight`] — the
    /// engine's accept counts are pinned across lane widths, workers and
    /// SIMD paths, and statistically against the serial sampler.
    #[inline]
    pub(crate) fn lane_walk(&self, aug: &[u64], acc: &mut [f64]) {
        qsim::simd::fused_lane_walk(&self.fused, &self.chunk_masks, aug, acc);
    }
}

impl LaneBatched for ChainRoundPlan {
    fn sample_lane_block(&self, trials: u64, stream: &BlockRng, lanes: usize) -> u64 {
        assert!(
            (1..=MAX_LANES).contains(&lanes),
            "lane width {lanes} outside 1..={MAX_LANES}"
        );
        // SoA-across-trials lane walk: each lane holds one trial's coin
        // words (plane-major, pre-shifted; see `round_weight`), accept draw
        // and acceptance accumulator. Trial t's draws come from its own
        // counter stream — coin words first, accept draw last — so the
        // planes are identical however trials are grouped, and `qsim::simd`
        // executes the table walk four lanes per instruction when the AVX2
        // path is selected. The planes live in one heap strip allocated
        // once per 8192-trial block.
        let words = self.coin_words();
        let mut aug = vec![0u64; words * lanes];
        let mut draw = [0.0f64; MAX_LANES];
        let mut acc = [0.0f64; MAX_LANES];
        let mut accepts = 0u64;
        let mut t = 0u64;
        while t < trials {
            let l = (lanes as u64).min(trials - t) as usize;
            let planes = &mut aug[..words * l];
            stream.fill_lane_streams(t, planes, &mut draw[..l]);
            qsim::simd::shift_coin_planes(planes, l);
            self.lane_walk(planes, &mut acc[..l]);
            accepts += qsim::simd::count_accepts(&draw[..l], &acc[..l]);
            t += l as u64;
        }
        accepts
    }
}

impl BatchSampler for ChainRoundPlan {
    type Scratch = ();

    fn scratch(&self) {}

    fn sample_block(&self, trials: u64, _scratch: &mut (), stream: &BlockRng) -> u64 {
        self.sample_lane_block(trials, stream, default_lane_width())
    }
}

/// Element `b` of the orthonormal Hermitian operator basis of `d × d`
/// matrices under the Frobenius inner product: the `d` diagonal units
/// `E_ii` first, then for each pair `i < k` (row-major pair order) the
/// symmetric `(E_ik + E_ki)/√2` followed by the antisymmetric
/// `i(E_ik − E_ki)/√2`. Every Hermitian matrix has *real* coefficients in
/// this basis, which is what lets the mixed sampler walk real vectors.
fn hermitian_basis_element(d: usize, b: usize) -> CMatrix {
    let mut m = CMatrix::zeros(d, d);
    if b < d {
        m.set(b, b, Complex::new(1.0, 0.0));
        return m;
    }
    let s = std::f64::consts::FRAC_1_SQRT_2;
    let mut idx = d;
    for i in 0..d {
        for k in i + 1..d {
            if idx == b {
                m.set(i, k, Complex::new(s, 0.0));
                m.set(k, i, Complex::new(s, 0.0));
                return m;
            }
            if idx + 1 == b {
                m.set(i, k, Complex::new(0.0, s));
                m.set(k, i, Complex::new(0.0, -s));
                return m;
            }
            idx += 2;
        }
    }
    unreachable!("Hermitian basis index {b} out of range for dimension {d}");
}

/// Real coefficients of `m` in the [`hermitian_basis_element`] basis:
/// `out[b] = Re ⟨B_b, m⟩`. For Hermitian `m` this is an exact
/// decomposition; taking the real part projects away any numerical
/// anti-Hermitian residue.
fn hermitian_coeffs(m: &CMatrix, d: usize, out: &mut [f64]) {
    let s = std::f64::consts::FRAC_1_SQRT_2;
    let sp = m.split();
    for (i, o) in out.iter_mut().enumerate().take(d) {
        *o = sp.re[i * d + i];
    }
    let mut idx = d;
    for i in 0..d {
        for k in i + 1..d {
            out[idx] = (sp.re[i * d + k] + sp.re[k * d + i]) * s;
            out[idx + 1] = (sp.im[i * d + k] - sp.im[k * d + i]) * s;
            idx += 2;
        }
    }
}

/// Batched sampler for per-node mixed proofs; built by
/// [`SwapTestChain::mixed_sampler`]. Carries one compiled
/// `MixedNodeOps` per node — the frontier walk's per-node linear algebra
/// collapsed onto the Hermitian-basis coordinates of the `d × d` sent
/// register, with the pre-symmetrised pair (the deterministic ½ρ+½SρS†
/// channel commutes with the frontier assembly) baked into the operators —
/// so a round executes real `d²` dots and `d² × d²` real mat-vecs: zero
/// metadata derivation, zero allocation, zero lock traffic, and no
/// `d³ × d³` frontier materialisation. All per-round buffers live in
/// [`MixedChainScratch`].
pub struct MixedChainSampler<'a> {
    chain: &'a SwapTestChain,
    nodes: Vec<MixedNodeOps>,
    /// Basis coefficients of `|left⟩⟨left|` — the walk's initial state.
    left_h: Vec<f64>,
    /// Basis coefficients of the right effect: `tr(M·ρ) = ⟨eff_h, v⟩`.
    eff_h: Vec<f64>,
}

/// One node's compiled frontier step (see [`SwapTestChain::mixed_sampler`]):
/// the SWAP-test acceptance functional `f` over the sent register's basis
/// coefficients, the unnormalised accepted-and-traced-down superoperator
/// `s` in column-major order (the layout [`qsim::simd::matvec_cols`]
/// consumes), and the degenerate-branch constant `tr_kept(pair)` — all
/// real, in the Hermitian operator basis.
struct MixedNodeOps {
    f: Vec<f64>,
    s: Vec<f64>,
    t: Vec<f64>,
}

/// Per-worker scratch of [`MixedChainSampler`]: the sent register's walk
/// state and one mat-vec output buffer, as real Hermitian-basis
/// coefficient vectors — `2·d²` doubles total, allocated once per worker
/// thread and reused across every trial it runs (the compiled superoperator
/// walk needs no frontier buffer at all).
pub struct MixedChainScratch {
    v: Vec<f64>,
    o: Vec<f64>,
}

impl MixedChainSampler<'_> {
    /// Samples one round through the compiled-plan frontier walk;
    /// distribution-identical (same draw sequence) to
    /// [`SwapTestChain::simulate_round_mixed`], with all of that path's
    /// per-call kernel metadata hoisted into the embedded plans. Two further
    /// round-plan hoists relative to the per-call walk: the symmetrisation
    /// channel is baked into the stored pairs (see
    /// [`SwapTestChain::mixed_sampler`]), and the post-measurement effect of
    /// a *rejecting* node is skipped — the round aborts and the scratch
    /// state is never read again, so the update is dead work (the rejection
    /// *probability* is of course still honoured by the accept draw).
    pub fn round<R: Rng + ?Sized>(&self, s: &mut MixedChainScratch, rng: &mut R) -> bool {
        let d = self.chain.dim;
        s.v.copy_from_slice(&self.left_h);
        for node in &self.nodes {
            // The SWAP test on (sent, kept) over the compiled functional:
            // acceptance trace, one Bernoulli, accept effect — exactly
            // `swap_test_on`'s draws and branches.
            let p_accept = qsim::simd::dot4(&node.f, &s.v).clamp(0.0, 1.0);
            if rng.random::<f64>() >= p_accept {
                return false;
            }
            if p_accept > 1e-12 {
                // Accept effect + trace-down in one compiled mat-vec:
                // sent ← (1/p)·S·sent. The 1/p rescale rides the copy back
                // into the walk state.
                qsim::simd::matvec_cols(&node.s, &s.v, &mut s.o);
                let inv = 1.0 / p_accept;
                for (v, &o) in s.v.iter_mut().zip(&s.o) {
                    *v = o * inv;
                }
            } else {
                // Degenerate accept at (numerically) zero probability: keep
                // the unnormalised-frontier semantics of `swap_test_on` —
                // tr_{01}(sent ⊗ pair) = tr(sent)·tr_kept(pair). The first
                // `d` basis coefficients are the diagonal, so the trace is
                // their plain sum.
                let tr: f64 = s.v[..d].iter().sum();
                for (v, &t) in s.v.iter_mut().zip(&node.t) {
                    *v = tr * t;
                }
            }
        }
        let p = qsim::simd::dot4(&self.eff_h, &s.v).clamp(0.0, 1.0);
        rng.random::<f64>() < p
    }
}

impl BatchSampler for MixedChainSampler<'_> {
    type Scratch = MixedChainScratch;

    fn scratch(&self) -> MixedChainScratch {
        let d2 = self.chain.dim * self.chain.dim;
        MixedChainScratch {
            v: vec![0.0; d2],
            o: vec![0.0; d2],
        }
    }

    fn sample_block(&self, trials: u64, scratch: &mut MixedChainScratch, stream: &BlockRng) -> u64 {
        // The frontier walk is trial-at-a-time (a variable number of draws
        // per round), each trial on its own counter stream.
        (0..trials)
            .filter(|&t| self.round(scratch, &mut stream.trial_rng(t)))
            .count() as u64
    }
}

/// Named cheating strategies for chains whose left state and right effect come
/// from two distinct fingerprints `|h_x> ≠ |h_y>` (EQ/GT-style no-instances).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChainCheat {
    /// Send the left fingerprint `|h_x>` everywhere: the right end detects it.
    AllLeft,
    /// Send the right fingerprint `|h_y>` everywhere: the first SWAP test
    /// detects it.
    AllRight,
    /// Interpolate gradually from `|h_x>` to `|h_y>` along the chain — the
    /// strategy that saturates the `1 − Θ(1/r²)` single-shot soundness error.
    Interpolate,
}

/// Builds the proof corresponding to a named cheating strategy, given the two
/// boundary states.
pub fn cheating_proof(
    chain: &SwapTestChain,
    right_state: &PureState,
    strategy: ChainCheat,
) -> SeparableChainProof {
    let k = chain.num_intermediate();
    let left = chain.left_state().clone();
    match strategy {
        ChainCheat::AllLeft => chain.uniform_proof(&left),
        ChainCheat::AllRight => chain.uniform_proof(right_state),
        ChainCheat::Interpolate => {
            let lv = left.amplitudes();
            let rv = right_state.amplitudes();
            (0..k)
                .map(|j| {
                    // Node j (1-based j+1 of r) interpolates at fraction (j+1)/r.
                    let frac = (j + 1) as f64 / chain.path_length() as f64;
                    let mut v = lv.scale(Complex::real(1.0 - frac));
                    v.add_scaled(rv, Complex::real(frac));
                    let state = if v.norm() > 1e-9 {
                        PureState::from_amplitudes(&[chain.register_dim()], v.normalized())
                    } else {
                        left.clone()
                    };
                    (state.clone(), state)
                })
                .collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trials::{self, run_trials_with_workers};
    use qsim::{CVector, RandomStateGenerator};

    fn orthogonal_boundary(dim: usize) -> (PureState, CMatrix, PureState) {
        // Left state |0>, right effect |1><1| (accepts only the orthogonal state).
        let left = PureState::single(dim, 0);
        let right_state = PureState::single(dim, 1);
        let effect = CMatrix::projector(right_state.amplitudes());
        (left, effect, right_state)
    }

    fn matching_boundary(dim: usize) -> (PureState, CMatrix) {
        let left = PureState::single(dim, 0);
        let effect = CMatrix::projector(left.amplitudes());
        (left, effect)
    }

    #[test]
    fn perfect_completeness_on_matching_boundaries() {
        for r in 1..=5 {
            let (left, effect) = matching_boundary(2);
            let chain = SwapTestChain::new(r, left, effect);
            assert!(
                (chain.completeness() - 1.0).abs() < 1e-10,
                "r={r}: completeness {}",
                chain.completeness()
            );
        }
    }

    #[test]
    fn mismatched_boundaries_are_rejected_with_positive_probability() {
        for r in 2..=4 {
            let (left, effect, right_state) = orthogonal_boundary(2);
            let chain = SwapTestChain::new(r, left, effect);
            for strat in [
                ChainCheat::AllLeft,
                ChainCheat::AllRight,
                ChainCheat::Interpolate,
            ] {
                let proof = cheating_proof(&chain, &right_state, strat);
                let p = chain.acceptance_separable(&proof);
                assert!(p < 1.0 - 1e-6, "r={r} {strat:?}: acceptance {p}");
                // The paper's bound: acceptance <= 1 - 4/(81 r^2).
                assert!(
                    p <= SwapTestChain::paper_soundness_bound(r) + 1e-9,
                    "r={r} {strat:?}: acceptance {p} violates the paper bound"
                );
            }
        }
    }

    #[test]
    fn interpolation_beats_naive_cheating() {
        let (left, effect, right_state) = orthogonal_boundary(2);
        let chain = SwapTestChain::new(4, left, effect);
        let naive =
            chain.acceptance_separable(&cheating_proof(&chain, &right_state, ChainCheat::AllLeft));
        let smart = chain.acceptance_separable(&cheating_proof(
            &chain,
            &right_state,
            ChainCheat::Interpolate,
        ));
        assert!(
            smart > naive,
            "interpolation {smart} should beat naive {naive}"
        );
    }

    #[test]
    fn r_equals_one_has_no_proof_and_direct_measurement() {
        let (left, effect, _) = orthogonal_boundary(2);
        let chain = SwapTestChain::new(1, left, effect);
        assert_eq!(chain.num_intermediate(), 0);
        assert!(chain.acceptance_separable(&Vec::new()).abs() < 1e-12);
        assert!(chain.optimal_acceptance().abs() < 1e-12);
        let (left, effect) = matching_boundary(2);
        let chain = SwapTestChain::new(1, left, effect);
        assert!((chain.acceptance_separable(&Vec::new()) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn spectral_soundness_bounds_every_separable_strategy() {
        let (left, effect, right_state) = orthogonal_boundary(2);
        let chain = SwapTestChain::new(3, left, effect);
        let optimal = chain.optimal_acceptance();
        for strat in [
            ChainCheat::AllLeft,
            ChainCheat::AllRight,
            ChainCheat::Interpolate,
        ] {
            let p = chain.acceptance_separable(&cheating_proof(&chain, &right_state, strat));
            assert!(
                p <= optimal + 1e-8,
                "{strat:?}: separable {p} exceeds optimal {optimal}"
            );
        }
        // And respects the paper's bound.
        assert!(optimal <= SwapTestChain::paper_soundness_bound(3) + 1e-9);
        assert!(optimal < 1.0 - 1e-6);
    }

    #[test]
    fn spectral_soundness_bounds_random_separable_proofs() {
        let (left, effect, _) = orthogonal_boundary(2);
        let chain = SwapTestChain::new(3, left, effect);
        let optimal = chain.optimal_acceptance();
        let mut gen = RandomStateGenerator::new(5);
        for _ in 0..20 {
            let proof: SeparableChainProof = (0..chain.num_intermediate())
                .map(|_| (gen.random_pure(&[2]), gen.random_pure(&[2])))
                .collect();
            let p = chain.acceptance_separable(&proof);
            assert!(
                p <= optimal + 1e-8,
                "random separable proof {p} exceeds optimal {optimal}"
            );
        }
    }

    #[test]
    fn completeness_with_operator_matches_separable_formula() {
        // The honest product proof evaluated through the acceptance operator
        // must give the same number as the pattern-enumeration formula.
        let (left, effect) = matching_boundary(2);
        let chain = SwapTestChain::new(3, left.clone(), effect);
        let a = chain.acceptance_operator();
        let honest_joint = PureState::tensor_all(&[left.clone(), left.clone(), left.clone(), left]);
        let v = honest_joint.amplitudes();
        let p_op = v.inner(&a.apply(v)).re;
        let p_formula = chain.completeness();
        assert!((p_op - p_formula).abs() < 1e-9, "{p_op} vs {p_formula}");
    }

    #[test]
    fn sampled_rounds_match_exact_acceptance() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let (left, effect, right_state) = orthogonal_boundary(2);
        let chain = SwapTestChain::new(3, left, effect);
        let proof = cheating_proof(&chain, &right_state, ChainCheat::Interpolate);
        let exact = chain.acceptance_separable(&proof);
        let mut rng = StdRng::seed_from_u64(11);
        let trials = 3000;
        let accepts = (0..trials)
            .filter(|_| chain.simulate_round(&proof, &mut rng))
            .count();
        let est = accepts as f64 / trials as f64;
        assert!(
            (est - exact).abs() < 0.05,
            "estimated {est} vs exact {exact}"
        );
        // The mixed-proof frontier sampler agrees on the same (pure) proof.
        let mixed: Vec<qsim::DensityMatrix> = proof
            .iter()
            .map(|(a, b)| qsim::DensityMatrix::from_pure(&a.tensor(b)))
            .collect();
        let accepts = (0..trials)
            .filter(|_| chain.simulate_round_mixed(&mixed, &mut rng))
            .count();
        let est_mixed = accepts as f64 / trials as f64;
        assert!(
            (est_mixed - exact).abs() < 0.05,
            "mixed-sampler estimate {est_mixed} vs exact {exact}"
        );
    }

    #[test]
    fn honest_sampled_round_always_accepts() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let (left, effect) = matching_boundary(2);
        let chain = SwapTestChain::new(4, left, effect);
        let proof = chain.honest_proof();
        let mut rng = StdRng::seed_from_u64(12);
        for _ in 0..50 {
            assert!(chain.simulate_round(&proof, &mut rng));
        }
    }

    #[test]
    fn round_plan_statistics_match_exact_acceptance() {
        let (chain, right_state) = {
            let (left, effect, right_state) = orthogonal_boundary(2);
            (SwapTestChain::new(3, left, effect), right_state)
        };
        for strat in [
            ChainCheat::AllLeft,
            ChainCheat::AllRight,
            ChainCheat::Interpolate,
        ] {
            let proof = cheating_proof(&chain, &right_state, strat);
            let exact = chain.acceptance_separable(&proof);
            let report = run_trials_with_workers(&chain.round_plan(&proof), 40_000, 7, 1);
            let eps = report.hoeffding_radius(1e-9);
            assert!(
                (report.acceptance_rate() - exact).abs() < eps,
                "{strat:?}: batched rate {} vs exact {exact} (margin {eps})",
                report.acceptance_rate()
            );
            let (lo, hi) = report.wilson_interval(5.0);
            assert!(lo <= exact && exact <= hi, "{strat:?}: wilson ({lo},{hi})");
        }
    }

    #[test]
    fn round_plan_honest_proof_accepts_every_trial() {
        let (left, effect) = matching_boundary(2);
        let chain = SwapTestChain::new(5, left, effect);
        let plan = chain.round_plan(&chain.honest_proof());
        let report = run_trials_with_workers(&plan, 10_000, 3, 1);
        assert_eq!(report.accepts, report.trials, "perfect completeness");
    }

    #[test]
    fn round_plan_handles_the_degenerate_r1_chain() {
        let (left, effect, _) = orthogonal_boundary(2);
        let chain = SwapTestChain::new(1, left, effect);
        let report = run_trials_with_workers(&chain.round_plan(&Vec::new()), 1000, 5, 1);
        assert_eq!(report.accepts, 0, "orthogonal boundary never accepts");
        let (left, effect) = matching_boundary(2);
        let chain = SwapTestChain::new(1, left, effect);
        let report = run_trials_with_workers(&chain.round_plan(&Vec::new()), 1000, 5, 1);
        assert_eq!(report.accepts, 1000, "matching boundary always accepts");
    }

    #[test]
    fn lane_walk_reads_the_round_walks_stream_positions() {
        // `round` and the lane walk draw the same coin words, then the
        // accept draw, from each trial's counter stream, so on the same
        // streams they accept the same trials: the fused chunk products
        // differ from the node-by-node product only in the last ulp.
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(17);
        for k in [0usize, 5, 61, 62, 63, 64, 125, 126, 200] {
            let tables: Vec<f64> = (0..4 * (k + 1))
                .map(|_| 0.97 + 0.03 * rng.random::<f64>())
                .collect();
            let plan = ChainRoundPlan::from_tables(tables, k);
            assert_eq!(plan.coin_words(), (k + 1).div_ceil(63));
            let stream = BlockRng::new(k as u64, 1);
            let n = trials::BLOCK_TRIALS;
            let walk = (0..n)
                .filter(|&t| plan.round(&mut stream.trial_rng(t)))
                .count() as u64;
            assert!(walk > 0 && walk < n, "k = {k}: degenerate rate");
            for lanes in [1, 7, 32] {
                assert_eq!(plan.sample_lane_block(n, &stream, lanes), walk, "k = {k}");
            }
        }
    }

    #[test]
    fn round_plan_accepts_are_identical_across_worker_counts() {
        let (left, effect, right_state) = orthogonal_boundary(2);
        let chain = SwapTestChain::new(4, left, effect);
        let proof = cheating_proof(&chain, &right_state, ChainCheat::Interpolate);
        let plan = chain.round_plan(&proof);
        let base = run_trials_with_workers(&plan, 30_000, 11, 1);
        for workers in [2usize, 4, 8] {
            let r = run_trials_with_workers(&plan, 30_000, 11, workers);
            assert_eq!(r.accepts, base.accepts, "worker count {workers}");
        }
        // Different seeds explore different outcome sequences.
        let other = run_trials_with_workers(&plan, 30_000, 12, 1);
        assert_ne!(other.accepts, base.accepts);
    }

    #[test]
    fn batched_mixed_sampler_matches_the_pure_plan_statistics() {
        let (left, effect, right_state) = orthogonal_boundary(2);
        let chain = SwapTestChain::new(3, left, effect);
        let proof = cheating_proof(&chain, &right_state, ChainCheat::Interpolate);
        let exact = chain.acceptance_separable(&proof);
        let mixed: Vec<DensityMatrix> = proof
            .iter()
            .map(|(a, b)| DensityMatrix::from_pure(&a.tensor(b)))
            .collect();
        let report = run_trials_with_workers(&chain.mixed_sampler(&mixed), 6000, 13, 1);
        let eps = report.hoeffding_radius(1e-9);
        assert!(
            (report.acceptance_rate() - exact).abs() < eps,
            "mixed batched rate {} vs exact {exact}",
            report.acceptance_rate()
        );
    }

    #[test]
    fn mixed_sampler_accepts_are_identical_across_worker_counts() {
        // The one sampler with *mutable* per-worker scratch: wide runs
        // must reproduce the serial accept count exactly, which fails if
        // scratch state leaks between blocks or depends on the executing
        // thread. Needs ≥ 2 RNG blocks so the wide run actually engages a
        // second worker; a 1-node chain keeps the frontier walks cheap.
        let (left, effect, right_state) = orthogonal_boundary(2);
        let chain = SwapTestChain::new(2, left, effect);
        let proof = cheating_proof(&chain, &right_state, ChainCheat::Interpolate);
        let mixed: Vec<DensityMatrix> = proof
            .iter()
            .map(|(a, b)| DensityMatrix::from_pure(&a.tensor(b)))
            .collect();
        let sampler = chain.mixed_sampler(&mixed);
        let n = 2 * trials::BLOCK_TRIALS;
        let serial = run_trials_with_workers(&sampler, n, 13, 1);
        let wide = run_trials_with_workers(&sampler, n, 13, 4);
        assert_eq!(wide.workers, 2, "two blocks engage two threads");
        assert_eq!(
            (serial.trials, serial.accepts),
            (wide.trials, wide.accepts),
            "mixed-sampler accepts must not depend on worker count"
        );
    }

    #[test]
    fn costs_scale_linearly_in_path_length_and_register_size() {
        let (left, effect) = matching_boundary(2);
        let c3 = SwapTestChain::new(3, left.clone(), effect.clone()).costs(10);
        let c6 = SwapTestChain::new(6, left, effect).costs(10);
        assert_eq!(c3.local_proof_qubits, 20);
        assert_eq!(c3.local_message_qubits, 10);
        assert_eq!(c3.total_proof_qubits, 40);
        assert_eq!(c6.total_proof_qubits, 100);
        assert!(c6.total_message_qubits > c3.total_message_qubits);
        assert_eq!(c3.rounds, 1);
    }

    #[test]
    fn paper_repetition_count_drives_soundness_below_one_third() {
        for r in [2usize, 4, 8, 16] {
            let single = SwapTestChain::paper_soundness_bound(r);
            let k = SwapTestChain::paper_repetitions(r);
            let repeated = SwapTestChain::repeated_soundness(single, k);
            assert!(repeated < 1.0 / 3.0, "r={r}: repeated soundness {repeated}");
        }
    }

    #[test]
    fn entangled_optimum_never_below_best_separable_on_nonorthogonal_boundaries() {
        // Boundary states with overlap 1/2 (a harder no-instance than orthogonal ones).
        let left = PureState::single(2, 0);
        let right =
            PureState::from_amplitudes(&[2], CVector::from_reals(&[0.5f64.sqrt(), 0.5f64.sqrt()]));
        let effect = CMatrix::projector(right.amplitudes());
        let chain = SwapTestChain::new(2, left, effect);
        let sep =
            chain.acceptance_separable(&cheating_proof(&chain, &right, ChainCheat::Interpolate));
        let opt = chain.optimal_acceptance();
        assert!(opt >= sep - 1e-9);
        assert!(opt < 1.0);
    }
}
