//! Integration tests for the lower-bound machinery of Sections 4.2 and 8:
//! the classical cut-and-paste attack, the exact (spectral) soundness of small
//! dQMA instances against entangled provers, and the Table 3 formulas sitting
//! below the measured upper bounds.

use commproto::bitstring::BitString;
use commproto::fingerprint::FingerprintScheme;
use commproto::fooling::eq_fooling_set;
use commproto::problems::{Equality, TwoPartyFunction};
use commproto::sdisc::{dqma_total_lower_bound, HardProblem};
use dqma::chain::{cheating_proof, ChainCheat, SwapTestChain};
use dqma::dma::{dma_total_proof_threshold, SketchEqDma};
use dqma::eq_path::EqPathProtocol;
use dqma::lower_bounds;

#[test]
fn cut_and_paste_attack_breaks_every_small_sketch_protocol() {
    // Sweep the per-node proof size: below ~n bits the attack must succeed
    // (pigeonhole over the fooling set), at 2n bits it fails for this seed.
    let n = 6;
    let fooling = eq_fooling_set(n);
    for s in 1..=3usize {
        let proto = SketchEqDma::new(n, 4, s, 11);
        let attack = proto
            .fooling_attack(&fooling)
            .expect("short sketches must collide");
        assert!(!Equality { n }.eval(&attack.x, &attack.y));
        assert!(proto.accepts(&attack.x, &attack.y, &attack.assignment));
    }
    let strong = SketchEqDma::trivial(n, 4, 11);
    assert!(strong.fooling_attack(&fooling).is_none());
}

#[test]
fn classical_threshold_grows_as_rn_and_quantum_total_stays_polylog() {
    let r = 5;
    let small_n = 1 << 6;
    let large_n = 1 << 12;
    let classical_growth = dma_total_proof_threshold(large_n, r, 1) as f64
        / dma_total_proof_threshold(small_n, r, 1) as f64;
    let quantum_growth =
        EqPathProtocol::paper_local_cost(large_n, r) / EqPathProtocol::paper_local_cost(small_n, r);
    assert!(classical_growth > 50.0);
    assert!(quantum_growth < 3.0);
}

#[test]
fn spectral_soundness_respects_theorem_51_premise_on_tiny_instances() {
    // On a tiny instance the optimal entangled prover's acceptance is strictly
    // below 1, and the per-window counting bound (log n qubits) is consistent
    // with the register sizes the protocol actually uses.
    let proto = EqPathProtocol::with_scheme(2, FingerprintScheme::small(3, 4), 1);
    let x = BitString::from_u64(2, 3);
    let y = BitString::from_u64(5, 3);
    let optimal = proto.single_round_optimal_acceptance(&x, &y);
    assert!(optimal < 1.0 - 1e-6);
    let per_window = lower_bounds::per_window_qubit_bound(3);
    assert!(per_window <= proto.one_way().scheme().qubits() as f64 + 1.0);
}

#[test]
fn gap_attack_demonstrates_lemma_53() {
    // With a proofless intermediate node the product-of-yes-instances proof is
    // accepted with certainty on a 0-input; with the proof (and its SWAP test)
    // present the same strategy is caught.
    let scheme = FingerprintScheme::small(4, 5);
    let x = BitString::from_u64(3, 4);
    let y = BitString::from_u64(12, 4);
    let hx = scheme.fingerprint(&x);
    let hy = scheme.fingerprint(&y);
    let effect = scheme.accept_effect(&y);
    let fooled = lower_bounds::gap_attack_acceptance(3, 1, &hx, &hy, &effect);
    assert!(fooled > 1.0 - 1e-9);
    let chain = SwapTestChain::new(3, hx.clone(), effect);
    let caught = chain.acceptance_separable(&vec![(hy.clone(), hy.clone()), (hy.clone(), hy)]);
    assert!(caught < 1.0 - 1e-6);
}

#[test]
fn table3_formulas_sit_below_measured_upper_bounds() {
    let n = 1 << 10;
    let r = 3;
    let measured_total = EqPathProtocol::costs_for(n, r).total_qubits() as f64;
    assert!(lower_bounds::dqmasepsep_total_bound(n, r) < measured_total);
    assert!(lower_bounds::entangled_combined_bound(n, 0.01) < measured_total);
    assert!(lower_bounds::entangled_r_bound(r) < measured_total);
    assert!(dqma_total_lower_bound(HardProblem::InnerProduct, n) > 0.0);
}

#[test]
fn qma_star_reduction_cost_matches_algorithm_11_accounting() {
    let costs = EqPathProtocol::new(64, 4, 1).costs();
    let reduced = lower_bounds::qma_star_cost_from_dqma(&costs);
    assert_eq!(
        reduced,
        costs.total_proof_qubits + costs.local_message_qubits
    );
    assert!(reduced >= costs.total_proof_qubits);
}

#[test]
fn interpolating_prover_never_beats_the_spectral_optimum() {
    // Path length 2 keeps the joint proof space small enough for the exact
    // spectral computation (one intermediate node).
    let scheme = FingerprintScheme::small(2, 9);
    let x = BitString::from_u64(1, 2);
    let y = BitString::from_u64(2, 2);
    let chain = SwapTestChain::new(2, scheme.fingerprint(&x), scheme.accept_effect(&y));
    let optimal = chain.optimal_acceptance();
    let separable = chain.acceptance_separable(&cheating_proof(
        &chain,
        &scheme.fingerprint(&y),
        ChainCheat::Interpolate,
    ));
    assert!(separable <= optimal + 1e-8);
    assert!(optimal <= SwapTestChain::paper_soundness_bound(2) + 1e-9);
}
