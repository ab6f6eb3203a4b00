//! Cheating-prover optimisation: how close can a prover actually get to the
//! paper's `1 − 4/(81·r²)` soundness bound?
//!
//! Every suite before this module exercised honest provers or a *fixed*
//! wrong-input strategy ([`crate::chain::ChainCheat`]). Here the prover is
//! adversarially optimised, two ways:
//!
//! * **Entangled (spectral) optimum** — the exact maximum acceptance over
//!   *all* proofs is the top eigenvalue of the materialised acceptance
//!   operator ([`SwapTestChain::acceptance_operator`]). [`spectral_optimum`]
//!   computes it with the hardened power iteration
//!   ([`qsim::linalg::eigen::top_eigenpair`]) on the operator's Hermitian
//!   part — feasible while the joint dimension `d^{2(r−1)}` stays within the
//!   operator cap (1024, i.e. `r ≤ 6` at `d = 2`).
//! * **Separable coordinate ascent** — for the r-range the spectral method
//!   cannot reach (`r ∈ {8, 16, 32, …}`), [`optimise_cheat`] ascends over
//!   per-node product proofs. Conditioned on the symmetrisation coins each
//!   proof register appears in exactly one SWAP-test/boundary factor, so the
//!   round acceptance is a *quadratic form* `⟨v|E|v⟩` in any single register
//!   `v` — with `E` assembled in `O(k)` from prefix/suffix transfer weights
//!   over the round-plan tables — and the optimal update is the top
//!   eigenvector of the `d × d` Hermitian `E`. Each update is exact, so the
//!   ascent is monotone; it converges to a (locally) optimal separable cheat
//!   that dominates every named strategy it is seeded with.
//!
//! The optimised proof is then *fed back through the sampled round engine*
//! (its [`SwapTestChain::round_plan`], lane-batched, through
//! [`crate::trials::run_trials_with_workers`] at width 1): a
//! [`SoundnessPoint`] charts measured acceptance (with Wilson interval)
//! against the exact separable optimum, the spectral optimum where
//! available, and the paper bound — the measured-vs-proved table of
//! PAPER.md and `BENCH_adversarial.json`.
//!
//! The exact separable acceptance itself is evaluated in `O(k)` by a 2×2
//! transfer-matrix product over the coin Markov chain ([`exact_acceptance`])
//! instead of the `2^k` pattern enumeration of
//! [`SwapTestChain::acceptance_separable`] — the enumeration survives as the
//! oracle this module's unit tests pin against.

use crate::chain::{
    cheating_proof, ChainCheat, ChainRoundPlan, SeparableChainProof, SwapTestChain,
};
use crate::trials::run_trials_with_workers;
use qsim::linalg::eigen::top_eigenpair;
use qsim::{CMatrix, CVector, Complex, PureState};

/// Tolerance for declaring an ascent sweep converged (absolute acceptance
/// improvement per full sweep).
const ASCENT_TOL: f64 = 1e-12;

/// Hard cap on ascent sweeps; the quadratic updates converge in a handful of
/// sweeps on every instance family the suite runs, so hitting this indicates
/// a cycling pathology and simply returns the best proof found.
const MAX_SWEEPS: usize = 200;

/// Exact acceptance probability of a separable proof, evaluated in `O(k·d)`:
/// compile the proof to round-plan tables and contract the coin Markov chain
/// with a 2-state transfer product instead of enumerating the `2^k`
/// symmetrisation patterns. Agrees with
/// [`SwapTestChain::acceptance_separable`] to floating-point error (pinned
/// by the unit tests) but stays linear in `r`, which is what lets the
/// optimiser track exact acceptances at `r = 32` and beyond.
pub fn exact_acceptance(chain: &SwapTestChain, proof: &SeparableChainProof) -> f64 {
    plan_acceptance(&chain.round_plan(proof))
}

/// The transfer-product contraction over an already-compiled plan's tables.
pub fn plan_acceptance(plan: &ChainRoundPlan) -> f64 {
    let k = plan.num_intermediate();
    if k == 0 {
        return plan.table(0, 0).clamp(0.0, 1.0);
    }
    // w[c] = E over coins c_0..c_{j-1} of the partial product, conditioned on
    // c_j = c; each step folds in the uniform 1/2 coin weight.
    let mut w = [0.5 * plan.table(0, 0), 0.5 * plan.table(0, 2)];
    for j in 1..k {
        w = [
            0.5 * (w[0] * plan.table(j, 0) + w[1] * plan.table(j, 1)),
            0.5 * (w[0] * plan.table(j, 2) + w[1] * plan.table(j, 3)),
        ];
    }
    (w[0] * plan.table(k, 0) + w[1] * plan.table(k, 1)).clamp(0.0, 1.0)
}

/// Result of a cheating-prover optimisation run.
#[derive(Clone, Debug)]
pub struct OptimisedCheat {
    /// The optimised separable proof (one register pair per node).
    pub proof: SeparableChainProof,
    /// Exact acceptance probability of `proof` (via [`exact_acceptance`]).
    pub acceptance: f64,
    /// Full ascent sweeps performed across all seeds.
    pub sweeps: usize,
}

/// SWAP-test acceptance of two unit vectors: `(1 + |⟨a|b⟩|²)/2`.
pub(crate) fn swap_accept(a: &CVector, b: &CVector) -> f64 {
    0.5 * (1.0 + a.inner(b).norm_sqr())
}

/// Coordinate-ascent state: register amplitudes plus the round-plan tables
/// they induce, kept incrementally consistent as registers update.
struct Ascent<'a> {
    chain: &'a SwapTestChain,
    left: CVector,
    /// `states[j][b]` = amplitudes of register `R_{j,b}` (unit norm).
    states: Vec<[CVector; 2]>,
    /// Round-plan tables, `4·(k+1)` entries, same layout as
    /// [`ChainRoundPlan`]: node `j` at coin-pair index `prev + 2·cur`.
    tables: Vec<f64>,
}

impl<'a> Ascent<'a> {
    fn new(chain: &'a SwapTestChain, seed: &SeparableChainProof) -> Self {
        let k = chain.num_intermediate();
        let states: Vec<[CVector; 2]> = seed
            .iter()
            .map(|(a, b)| [a.amplitudes().normalized(), b.amplitudes().normalized()])
            .collect();
        let mut s = Ascent {
            chain,
            left: chain.left_state().amplitudes().clone(),
            states,
            tables: vec![0.0; 4 * (k + 1)],
        };
        for j in 0..=k {
            s.refresh_node(j);
        }
        s
    }

    fn k(&self) -> usize {
        self.states.len()
    }

    #[inline]
    fn table(&self, j: usize, idx: usize) -> f64 {
        self.tables[4 * j + idx]
    }

    fn boundary_accept(&self, v: &CVector) -> f64 {
        self.chain
            .right_effect()
            .quadratic_form(v)
            .re
            .clamp(0.0, 1.0)
    }

    /// Recomputes all four table entries of node `j` (`j = k` is the
    /// boundary pseudo-node) from the current register states.
    fn refresh_node(&mut self, j: usize) {
        let k = self.k();
        if k == 0 {
            let b = self.boundary_accept(&self.left.clone());
            self.tables[..4].fill(b);
            return;
        }
        if j == 0 {
            for cur in 0..2 {
                let t = swap_accept(&self.left, &self.states[0][cur]);
                self.tables[2 * cur] = t;
                self.tables[2 * cur + 1] = t;
            }
        } else if j < k {
            for prev in 0..2 {
                for cur in 0..2 {
                    // Node j tests the register node j−1 forwarded (its coin
                    // complement) against node j's kept register (its coin).
                    self.tables[4 * j + prev + 2 * cur] =
                        swap_accept(&self.states[j - 1][1 - prev], &self.states[j][cur]);
                }
            }
        } else {
            for prev in 0..2 {
                let t = self.boundary_accept(&self.states[k - 1][1 - prev]);
                self.tables[4 * k + prev] = t;
                self.tables[4 * k + prev + 2] = t;
            }
        }
    }

    /// `prefix[j][c]`: expectation over `c_0..c_{j−1}` (uniform coins, 1/2
    /// weight folded in) of the product of node factors `0..=j`, conditioned
    /// on `c_j = c`.
    fn prefixes(&self) -> Vec<[f64; 2]> {
        let k = self.k();
        let mut p = Vec::with_capacity(k);
        p.push([0.5 * self.table(0, 0), 0.5 * self.table(0, 2)]);
        for j in 1..k {
            let prev = p[j - 1];
            p.push([
                0.5 * (prev[0] * self.table(j, 0) + prev[1] * self.table(j, 1)),
                0.5 * (prev[0] * self.table(j, 2) + prev[1] * self.table(j, 3)),
            ]);
        }
        p
    }

    /// `suffix[j][c]`: expectation over `c_{j+1}..c_{k−1}` of the product of
    /// node factors `j+1..=k` (including the boundary), conditioned on
    /// `c_j = c`.
    fn suffixes(&self) -> Vec<[f64; 2]> {
        let k = self.k();
        let mut s = vec![[0.0; 2]; k];
        s[k - 1] = [self.table(k, 0), self.table(k, 1)];
        for j in (0..k - 1).rev() {
            let next = s[j + 1];
            s[j] = [
                0.5 * (self.table(j + 1, 0) * next[0] + self.table(j + 1, 2) * next[1]),
                0.5 * (self.table(j + 1, 1) * next[0] + self.table(j + 1, 3) * next[1]),
            ];
        }
        s
    }

    /// Current exact acceptance (same contraction as [`plan_acceptance`]).
    fn acceptance(&self) -> f64 {
        let k = self.k();
        if k == 0 {
            return self.table(0, 0).clamp(0.0, 1.0);
        }
        let mut w = [0.5 * self.table(0, 0), 0.5 * self.table(0, 2)];
        for j in 1..k {
            w = [
                0.5 * (w[0] * self.table(j, 0) + w[1] * self.table(j, 1)),
                0.5 * (w[0] * self.table(j, 2) + w[1] * self.table(j, 3)),
            ];
        }
        (w[0] * self.table(k, 0) + w[1] * self.table(k, 1)).clamp(0.0, 1.0)
    }

    /// `E += weight · (I + s·s†)/2` — the SWAP-test effect against a fixed
    /// unit vector `s`, as seen by the free register.
    fn add_swap_effect(e: &mut CMatrix, s: &CVector, weight: f64) {
        let d = s.dim();
        let half = 0.5 * weight;
        for i in 0..d {
            e.add_at(i, i, Complex::real(half));
            let si = s.at(i).scale(half);
            for j in 0..d {
                e.add_at(i, j, si * s.at(j).conj());
            }
        }
    }

    /// Replaces register `(m, b)` with the top eigenvector of its effective
    /// acceptance quadratic form, holding every other register fixed.
    /// Exact maximisation, so the global acceptance never decreases.
    fn update_register(&mut self, m: usize, b: usize) {
        let k = self.k();
        let d = self.chain.register_dim();
        let prefix = self.prefixes();
        let suffix = self.suffixes();
        let mut e = CMatrix::zeros(d, d);

        // Kept branch (c_m = b): node m's factor is the SWAP effect of the
        // state sent into node m, weighted by everything before and after.
        // The sent state depends on c_{m−1}; its uniform 1/2 weight is the
        // one prefix[m] would have folded in.
        let after = suffix[m][b];
        if m == 0 {
            Self::add_swap_effect(&mut e, &self.left.clone(), 0.5 * after);
        } else {
            for (prev, &pw) in prefix[m - 1].iter().enumerate() {
                let w = 0.5 * pw * after;
                let sent = self.states[m - 1][1 - prev].clone();
                Self::add_swap_effect(&mut e, &sent, w);
            }
        }

        // Forwarded branch (c_m = 1−b): node m's own factor uses the kept
        // register R_{m,1−b} (a scalar w.r.t. v = R_{m,b}); v is consumed by
        // node m+1's SWAP test — or by the boundary effect when m = k−1.
        let before = if m == 0 {
            // prefix[0] already carries node 0's factor, which involves the
            // kept register, not v: reuse it directly.
            prefix[0][1 - b]
        } else {
            prefix[m][1 - b]
        };
        if m + 1 < k {
            for (cur, &sw) in suffix[m + 1].iter().enumerate() {
                let w = 0.5 * before * sw;
                let kept = self.states[m + 1][cur].clone();
                Self::add_swap_effect(&mut e, &kept, w);
            }
        } else {
            // v is the register the right extremity measures.
            let eff = self.chain.right_effect();
            for i in 0..d {
                for j in 0..d {
                    e.add_at(i, j, eff.at(i, j).scale(before));
                }
            }
        }

        let (_, v) = top_eigenpair(&e, 1e-13, 2000);
        self.states[m][b] = v.normalized();
        self.refresh_node(m);
        self.refresh_node(m + 1);
    }

    fn into_proof(self) -> SeparableChainProof {
        let d = self.chain.register_dim();
        self.states
            .into_iter()
            .map(|[a, b]| {
                (
                    PureState::from_amplitudes(&[d], a),
                    PureState::from_amplitudes(&[d], b),
                )
            })
            .collect()
    }
}

/// Runs the coordinate ascent from an explicit seed proof. Returns the
/// ascended proof with its exact acceptance; the acceptance is monotone
/// non-decreasing in the seed's.
///
/// # Panics
///
/// Panics if the seed proof does not match the chain (wrong node count or
/// register dimension).
pub fn ascend_cheat(chain: &SwapTestChain, seed: &SeparableChainProof) -> OptimisedCheat {
    // Validate through the plan compiler (also the oracle for the exact
    // acceptance the caller sees).
    let start = exact_acceptance(chain, seed);
    if chain.num_intermediate() == 0 {
        return OptimisedCheat {
            proof: seed.clone(),
            acceptance: start,
            sweeps: 0,
        };
    }
    let mut ascent = Ascent::new(chain, seed);
    let mut current = ascent.acceptance();
    let mut sweeps = 0;
    while sweeps < MAX_SWEEPS {
        for m in 0..ascent.k() {
            ascent.update_register(m, 0);
            ascent.update_register(m, 1);
        }
        sweeps += 1;
        let next = ascent.acceptance();
        let gain = next - current;
        current = next;
        if gain < ASCENT_TOL {
            break;
        }
    }
    debug_assert!(
        current >= start - 1e-9,
        "ascent decreased acceptance: {start} -> {current}"
    );
    OptimisedCheat {
        proof: ascent.into_proof(),
        acceptance: current,
        sweeps,
    }
}

/// Optimises a cheating prover for the chain: seeds the coordinate ascent
/// from each named strategy of [`ChainCheat`] (the interpolation family is
/// the one that saturates `1 − Θ(1/r)` separably) and returns the best
/// ascended proof. The "right state" the named strategies interpolate
/// towards is the top eigenvector of the boundary effect — the state the
/// right extremity most wants to see.
pub fn optimise_cheat(chain: &SwapTestChain) -> OptimisedCheat {
    let (_, v) = top_eigenpair(chain.right_effect(), 1e-12, 5000);
    let right = PureState::from_amplitudes(&[chain.register_dim()], v.normalized());
    let mut best: Option<OptimisedCheat> = None;
    let mut total_sweeps = 0;
    for strategy in [
        ChainCheat::Interpolate,
        ChainCheat::AllRight,
        ChainCheat::AllLeft,
    ] {
        let seed = cheating_proof(chain, &right, strategy);
        let run = ascend_cheat(chain, &seed);
        total_sweeps += run.sweeps;
        if best.as_ref().is_none_or(|b| run.acceptance > b.acceptance) {
            best = Some(run);
        }
    }
    let mut best = best.expect("at least one seed strategy");
    best.sweeps = total_sweeps;
    best
}

/// Exact entangled-prover optimum via the hardened power iteration on the
/// Hermitian part of the materialised acceptance operator, or `None` when
/// the joint proof dimension `d^{2(r−1)}` exceeds the operator cap (1024).
/// Equals [`SwapTestChain::optimal_acceptance`] (dense Jacobi) to numerical
/// precision, at a fraction of the cost on the larger feasible instances.
pub fn spectral_optimum(chain: &SwapTestChain) -> Option<f64> {
    let k = chain.num_intermediate();
    if k == 0 {
        // No proof registers: acceptance is fixed by the boundary.
        return Some(
            chain
                .right_effect()
                .quadratic_form(chain.left_state().amplitudes())
                .re
                .clamp(0.0, 1.0),
        );
    }
    let total = (chain.register_dim() as u128).checked_pow(2 * k as u32)?;
    if total > 1024 {
        return None;
    }
    let a = chain.acceptance_operator();
    let herm = (&a + &a.adjoint()).scale(Complex::real(0.5));
    let (lam, _) = top_eigenpair(&herm, 1e-11, 50_000);
    Some(lam.clamp(0.0, 1.0))
}

/// One measured-vs-proved soundness point: the optimised cheat run back
/// through the lane-batched sampled round engine.
#[derive(Clone, Debug)]
pub struct SoundnessPoint {
    /// Path length of the instance.
    pub r: usize,
    /// Register dimension.
    pub dim: usize,
    /// Exact acceptance of the ascent-optimised separable cheat.
    pub separable_opt: f64,
    /// Exact entangled optimum where the spectral method is feasible.
    pub spectral_opt: Option<f64>,
    /// Measured acceptance rate of the optimised proof over `trials` rounds.
    pub measured: f64,
    /// Wilson 99.9999%-ish interval (`z = 5`) around `measured`.
    pub wilson: (f64, f64),
    /// The paper's single-round soundness bound `1 − 4/(81·r²)`.
    pub paper_bound: f64,
    /// Rounds sampled.
    pub trials: u64,
    /// Ascent sweeps spent.
    pub sweeps: usize,
}

/// Optimises the cheat for `chain` and samples it through the batched round
/// engine: the chart row of the measured-vs-proved table.
pub fn soundness_point(chain: &SwapTestChain, trials: u64, seed: u64) -> SoundnessPoint {
    let opt = optimise_cheat(chain);
    let report = run_trials_with_workers(&chain.round_plan(&opt.proof), trials, seed, 1);
    SoundnessPoint {
        r: chain.path_length(),
        dim: chain.register_dim(),
        separable_opt: opt.acceptance,
        spectral_opt: spectral_optimum(chain),
        measured: report.acceptance_rate(),
        wilson: report.wilson_interval(5.0),
        paper_bound: SwapTestChain::paper_soundness_bound(chain.path_length()),
        trials,
        sweeps: opt.sweeps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsim::RandomStateGenerator;

    fn orthogonal_chain(r: usize, dim: usize) -> (SwapTestChain, PureState) {
        let left = PureState::single(dim, 0);
        let right_state = PureState::single(dim, 1);
        let effect = CMatrix::projector(right_state.amplitudes());
        (SwapTestChain::new(r, left, effect), right_state)
    }

    fn random_proof(chain: &SwapTestChain, seed: u64) -> SeparableChainProof {
        let mut gen = RandomStateGenerator::new(seed);
        let d = chain.register_dim();
        (0..chain.num_intermediate())
            .map(|_| (gen.random_pure(&[d]), gen.random_pure(&[d])))
            .collect()
    }

    #[test]
    fn transfer_product_matches_pattern_enumeration() {
        for dim in [2usize, 3] {
            for r in 1..=6 {
                let (chain, _) = orthogonal_chain(r, dim);
                for seed in 0..3u64 {
                    let proof = random_proof(&chain, 10 * r as u64 + seed);
                    let fast = exact_acceptance(&chain, &proof);
                    let slow = chain.acceptance_separable(&proof);
                    assert!(
                        (fast - slow).abs() < 1e-12,
                        "r={r} d={dim} seed={seed}: {fast} vs {slow}"
                    );
                }
            }
        }
    }

    #[test]
    fn ascent_dominates_every_named_strategy() {
        for r in [2usize, 4, 8, 16] {
            let (chain, right_state) = orthogonal_chain(r, 2);
            let opt = optimise_cheat(&chain);
            for strategy in [
                ChainCheat::AllLeft,
                ChainCheat::AllRight,
                ChainCheat::Interpolate,
            ] {
                let named = cheating_proof(&chain, &right_state, strategy);
                let named_acc = exact_acceptance(&chain, &named);
                assert!(
                    opt.acceptance >= named_acc - 1e-10,
                    "r={r} {strategy:?}: ascent {} < named {named_acc}",
                    opt.acceptance
                );
            }
            // The paper bound holds for the separable optimum too.
            assert!(opt.acceptance <= SwapTestChain::paper_soundness_bound(r) + 1e-9);
        }
    }

    #[test]
    fn ascent_from_random_seeds_is_monotone() {
        let (chain, _) = orthogonal_chain(5, 2);
        for seed in 0..4u64 {
            let start = random_proof(&chain, 100 + seed);
            let start_acc = exact_acceptance(&chain, &start);
            let run = ascend_cheat(&chain, &start);
            assert!(
                run.acceptance >= start_acc - 1e-12,
                "seed {seed}: {} < {start_acc}",
                run.acceptance
            );
            assert!((0.0..=1.0).contains(&run.acceptance));
        }
    }

    #[test]
    fn r2_separable_optimum_is_one_half() {
        // Orthogonal boundaries at r = 2: one node, coin c. Sending
        // (|0⟩, |1⟩) accepts with probability 1 at c = 0 and 0·(1/2) at
        // c = 1 — average 1/2, and no separable pair does better.
        let (chain, _) = orthogonal_chain(2, 2);
        let opt = optimise_cheat(&chain);
        assert!(
            (opt.acceptance - 0.5).abs() < 1e-9,
            "got {}",
            opt.acceptance
        );
    }

    #[test]
    fn separable_ascent_respects_the_spectral_optimum() {
        for r in [2usize, 3, 4] {
            let (chain, _) = orthogonal_chain(r, 2);
            let spectral = spectral_optimum(&chain).expect("small instance");
            let opt = optimise_cheat(&chain);
            assert!(
                opt.acceptance <= spectral + 1e-9,
                "r={r}: separable {} exceeds entangled {spectral}",
                opt.acceptance
            );
            // Power iteration agrees with the dense Jacobi path.
            let dense = chain.optimal_acceptance();
            assert!(
                (spectral - dense).abs() < 1e-8,
                "r={r}: power {spectral} vs jacobi {dense}"
            );
            // And the bound of the paper holds.
            assert!(spectral <= SwapTestChain::paper_soundness_bound(r) + 1e-9);
        }
    }

    #[test]
    fn spectral_optimum_is_none_beyond_the_operator_cap() {
        let (chain, _) = orthogonal_chain(8, 2);
        assert!(spectral_optimum(&chain).is_none());
        let (tiny, _) = orthogonal_chain(1, 2);
        // k = 0: fixed by the boundary — orthogonal states never accept.
        assert_eq!(spectral_optimum(&tiny), Some(0.0));
    }

    #[test]
    fn soundness_point_is_deterministic_and_consistent() {
        let (chain, _) = orthogonal_chain(4, 2);
        let a = soundness_point(&chain, 20_000, 7);
        let b = soundness_point(&chain, 20_000, 7);
        assert_eq!(a.measured, b.measured);
        assert!(a.wilson.0 <= a.measured && a.measured <= a.wilson.1);
        assert!(a.separable_opt <= a.paper_bound + 1e-9);
        let spectral = a.spectral_opt.expect("r=4 d=2 is spectral-feasible");
        assert!(a.separable_opt <= spectral + 1e-9);
    }
}
