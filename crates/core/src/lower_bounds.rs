//! Lower bounds for dQMA protocols (Section 8 of the paper) and the
//! dQMA → QMA* reduction (Algorithm 11) they rest on.
//!
//! Three families of bounds are reproduced:
//!
//! * the counting argument over fooling inputs (Claim 49, Proposition 50,
//!   Theorem 51): any dQMAsep,sep protocol for a function with a `2^n`-size
//!   1-fooling set needs `Ω(r·log n)` total proof qubits;
//! * the entangled-proof bounds (Lemma 53, Corollary 55, Theorems 52/56):
//!   `Ω(r)` always, and `Ω((log n)^{1/4−ε})` for EQ/GT via the dQMAsep
//!   simulation of Theorem 46;
//! * the reduction to QMA communication lower bounds (Theorem 63,
//!   Corollaries 64–66) through the cut-the-path QMA* protocol of
//!   Algorithm 11.
//!
//! Formulas use constant 1; `tests/paper_claims.rs` checks each one against
//! the measured upper-bound costs and prints both, so the gaps discussed in
//! the paper's Section 1.5 are visible. The bounds for DISJ, IP and the AND
//! pattern matrix (Corollaries 64–66) are
//! [`commproto::sdisc::dqma_total_lower_bound`].

use netsim::ProtocolCosts;
use qsim::{DensityMatrix, PureState};

use crate::chain::SwapTestChain;

/// Claim 49 / Lemma 48: keeping `2^n` quantum states pairwise distinguishable
/// requires `Ω(log n)` qubits per state. Returns that per-window bound
/// (constant 1) given the fooling-set size `k = 2^n`.
pub fn per_window_qubit_bound(log2_fooling_size: usize) -> f64 {
    (log2_fooling_size.max(2) as f64).log2()
}

/// Theorem 51: total proof lower bound `Ω(r·log n)` for dQMAsep,sep protocols
/// for EQ/GT-like functions (1-fooling set of size `2^n`).
pub fn dqmasepsep_total_bound(n: usize, r: usize) -> f64 {
    r as f64 * per_window_qubit_bound(n)
}

/// Corollary 55: total proof lower bound `Ω(r)` for any non-constant function,
/// even with entangled proofs.
pub fn entangled_r_bound(r: usize) -> f64 {
    r as f64
}

/// Theorem 52: `Ω((log n)^{1/2−ε} / r^{1+ε'})` for EQ/GT with entangled
/// proofs, obtained by simulating the protocol with a dQMAsep one.
pub fn entangled_ratio_bound(n: usize, r: usize, eps: f64) -> f64 {
    (n.max(2) as f64).log2().powf(0.5 - eps) / (r as f64).powf(1.0 + eps)
}

/// Theorem 56: the combined bound `Ω((log n)^{1/4−ε})` for EQ/GT with
/// entangled proofs, independent of `r`.
pub fn entangled_combined_bound(n: usize, eps: f64) -> f64 {
    (n.max(2) as f64).log2().powf(0.25 - eps)
}

/// The dQMA → QMA* reduction of Algorithm 11: cutting the path between
/// `v_i` and `v_{i+1}` turns a dQMA protocol with per-node proof sizes
/// `proof_qubits` and per-edge message sizes `message_qubits` into a QMA*
/// communication protocol whose cost is the total proof size plus the
/// messages crossing the cut. Returns the cost of the cheapest cut, which is
/// the quantity lower-bounded by Theorem 63.
pub fn qma_star_cost_from_dqma(costs: &ProtocolCosts) -> u64 {
    // Total proof plus the cheapest cut; with uniform per-edge messages the
    // cheapest cut carries the local message size.
    costs.total_proof_qubits + costs.local_message_qubits
}

/// The Lemma 53 attack, executable on the chain protocols: if some
/// intermediate node receives **no** proof, the prover can give the nodes to
/// its left the reduced proof of one yes-instance and the nodes to its right
/// the reduced proof of another, and every node accepts a 0-input with
/// probability at least `1 − 2p`. This function builds that product proof for
/// a chain in which node `gap` (1-based intermediate index) is proofless and
/// returns the acceptance probability it achieves on the crossed input.
///
/// `yes_left`/`yes_right` are the boundary states of the two yes-instances
/// (`|h_x>` for `(x, x)` and `|h_{y'}>` for `(y', y')`).
pub fn gap_attack_acceptance(
    r: usize,
    gap: usize,
    yes_left: &PureState,
    yes_right: &PureState,
    right_effect_of_right_instance: &qsim::CMatrix,
) -> f64 {
    assert!(r >= 2, "the attack needs at least one intermediate node");
    assert!((1..r).contains(&gap), "gap must be an intermediate node");
    // Left of the gap: everything carries the left yes-instance fingerprint.
    // Right of the gap (including the proofless node's forwarded "nothing"):
    // everything carries the right yes-instance fingerprint. With no proof at
    // the gap node there is no SWAP test linking the two halves, so both halves
    // accept exactly as they would inside their own yes-instance.
    let chain = SwapTestChain::new(r, yes_left.clone(), right_effect_of_right_instance.clone());
    let proof: Vec<(PureState, PureState)> = (1..r)
        .map(|j| {
            if j < gap {
                (yes_left.clone(), yes_left.clone())
            } else {
                (yes_right.clone(), yes_right.clone())
            }
        })
        .collect();
    // The gap node's SWAP test is what could catch the switch; Lemma 53 models
    // it as absent (no proof ⇒ the node has nothing to test), which we emulate
    // by crediting that single test as accepting.
    let with_test = chain.acceptance_separable(&proof);
    let switch_test = qsim::swap_test::swap_test_acceptance_pure(yes_left, yes_right);
    (with_test / switch_test.max(1e-12)).clamp(0.0, 1.0)
}

/// Fact 3-style sanity bound used throughout Section 8: no algorithm can
/// distinguish two proofs better than their trace distance. Exposed here so
/// the integration tests can check the counting argument's premise on actual
/// fingerprint states.
pub fn distinguishing_bound(rho: &DensityMatrix, sigma: &DensityMatrix) -> f64 {
    qsim::trace_distance(rho, sigma)
}

#[cfg(test)]
mod tests {
    use super::*;
    use commproto::bitstring::BitString;
    use commproto::fingerprint::FingerprintScheme;
    use commproto::sdisc::{dqma_total_lower_bound, HardProblem};

    #[test]
    fn formula_shapes() {
        assert!(dqmasepsep_total_bound(1 << 16, 8) > dqmasepsep_total_bound(1 << 16, 4));
        assert!(dqmasepsep_total_bound(1 << 16, 4) > dqmasepsep_total_bound(1 << 4, 4));
        assert_eq!(entangled_r_bound(7), 7.0);
        assert!(entangled_combined_bound(1 << 20, 0.01) > entangled_combined_bound(1 << 6, 0.01));
        assert!(entangled_ratio_bound(1 << 20, 2, 0.01) > entangled_ratio_bound(1 << 20, 8, 0.01));
        assert!(
            dqma_total_lower_bound(HardProblem::InnerProduct, 64)
                > dqma_total_lower_bound(HardProblem::Disjointness, 64)
        );
    }

    #[test]
    fn combined_bound_is_independent_of_r_and_below_upper_bounds() {
        // The Theorem 56 bound must sit below the measured EQ-path total —
        // the "gap" the paper's open problem 3 refers to.
        let n = 1 << 12;
        for r in [2usize, 8, 32] {
            let lower = entangled_combined_bound(n, 0.01);
            let upper = crate::eq_path::EqPathProtocol::costs_for(n, r).total_qubits() as f64;
            assert!(lower < upper, "r={r}: lower {lower} vs upper {upper}");
        }
    }

    #[test]
    fn qma_star_reduction_cost_is_total_proof_plus_one_cut() {
        let costs = ProtocolCosts {
            local_proof_qubits: 10,
            total_proof_qubits: 50,
            local_message_qubits: 5,
            total_message_qubits: 20,
            rounds: 1,
            ..Default::default()
        };
        assert_eq!(qma_star_cost_from_dqma(&costs), 55);
    }

    #[test]
    fn gap_attack_fools_the_chain() {
        // Two yes-instances x=x and y'=y'; the crossed input (x, y') is a
        // 0-input for EQ, yet with a proofless middle node the product proof is
        // accepted with probability 1.
        let scheme = FingerprintScheme::small(3, 5);
        let x = BitString::from_u64(5, 3);
        let yp = BitString::from_u64(2, 3);
        let hx = scheme.fingerprint(&x);
        let hy = scheme.fingerprint(&yp);
        let effect = scheme.accept_effect(&yp);
        let p = gap_attack_acceptance(3, 2, &hx, &hy, &effect);
        assert!(p > 1.0 - 1e-9, "gap attack acceptance {p}");
        // With the gap node's SWAP test present the same proof is caught.
        let chain = SwapTestChain::new(3, hx.clone(), effect);
        let proof = vec![(hx.clone(), hx.clone()), (hy.clone(), hy.clone())];
        assert!(chain.acceptance_separable(&proof) < 1.0 - 1e-6);
    }

    #[test]
    fn distinguishing_bound_on_fingerprints_reflects_their_overlap() {
        let scheme = FingerprintScheme::small(3, 9);
        let a = scheme.fingerprint(&BitString::from_u64(1, 3));
        let b = scheme.fingerprint(&BitString::from_u64(6, 3));
        let d = distinguishing_bound(&DensityMatrix::from_pure(&a), &DensityMatrix::from_pure(&b));
        let overlap = a.inner(&b).abs();
        assert!((d - (1.0 - overlap * overlap).sqrt()).abs() < 1e-8);
    }
}
