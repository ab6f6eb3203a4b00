//! Distance measures between quantum states.
//!
//! The soundness analyses of the dQMA protocols (Section 3.2 of the paper)
//! are phrased entirely in terms of the trace distance and the fidelity,
//! linked by the Fuchs–van de Graaf inequalities (Fact 1). This module
//! provides both measures, plus helpers that mirror the exact statements
//! used in the paper so that the property-based tests can check them
//! directly.

use crate::density::DensityMatrix;
use crate::linalg::{eigh, sqrt_psd, trace_norm};
use crate::state::PureState;

/// Trace distance `D(ρ, σ) = ||ρ − σ||₁ / 2`.
///
/// # Panics
///
/// Panics if the two states have different total dimensions.
pub fn trace_distance(rho: &DensityMatrix, sigma: &DensityMatrix) -> f64 {
    assert_eq!(
        rho.dim(),
        sigma.dim(),
        "trace distance requires equal dimensions"
    );
    let diff = rho.matrix() - sigma.matrix();
    0.5 * trace_norm(&diff)
}

/// Trace distance between two pure states.
pub fn trace_distance_pure(a: &PureState, b: &PureState) -> f64 {
    // For pure states D = sqrt(1 - |<a|b>|^2).
    let overlap = a.inner(b).norm_sqr().min(1.0);
    (1.0 - overlap).sqrt()
}

/// Fidelity `F(ρ, σ) = tr √(√ρ · σ · √ρ)` (Uhlmann fidelity, not squared).
pub fn fidelity(rho: &DensityMatrix, sigma: &DensityMatrix) -> f64 {
    assert_eq!(rho.dim(), sigma.dim(), "fidelity requires equal dimensions");
    let sr = sqrt_psd(rho.matrix());
    let inner = sr.matmul(sigma.matrix()).matmul(&sr);
    let eig = eigh(&inner);
    eig.eigenvalues
        .iter()
        .map(|&l| if l > 0.0 { l.sqrt() } else { 0.0 })
        .sum()
}

/// Fidelity between two pure states, `|<a|b>|`.
pub fn fidelity_pure(a: &PureState, b: &PureState) -> f64 {
    a.inner(b).abs()
}

/// Checks the Fuchs–van de Graaf inequalities (Fact 1 in the paper):
/// `1 − F(ρ,σ) ≤ D(ρ,σ) ≤ √(1 − F(ρ,σ)²)`.
///
/// Returns the triple `(lower, d, upper)` so callers can assert the sandwich.
pub fn fuchs_van_de_graaf(rho: &DensityMatrix, sigma: &DensityMatrix) -> (f64, f64, f64) {
    let f = fidelity(rho, sigma);
    let d = trace_distance(rho, sigma);
    (1.0 - f, d, (1.0 - f * f).max(0.0).sqrt())
}

/// The bound of Lemma 14 / Lemma 16: if a SWAP or permutation test accepts
/// with probability `1 − ε`, then the reduced states on any two tested
/// registers satisfy `D(ρᵢ, ρⱼ) ≤ 2√ε + ε`.
pub fn swap_test_distance_bound(epsilon: f64) -> f64 {
    2.0 * epsilon.max(0.0).sqrt() + epsilon.max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gates;
    use crate::random::RandomStateGenerator;

    fn plus_state() -> PureState {
        let mut s = PureState::single(2, 0);
        s.apply_unitary(&[0], &gates::hadamard());
        s
    }

    #[test]
    fn identical_states_have_zero_distance_and_unit_fidelity() {
        let rho = DensityMatrix::from_pure(&plus_state());
        assert!(trace_distance(&rho, &rho).abs() < 1e-10);
        assert!((fidelity(&rho, &rho) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn orthogonal_states_have_unit_distance_and_zero_fidelity() {
        let zero = DensityMatrix::from_pure(&PureState::single(2, 0));
        let one = DensityMatrix::from_pure(&PureState::single(2, 1));
        assert!((trace_distance(&zero, &one) - 1.0).abs() < 1e-10);
        assert!(fidelity(&zero, &one).abs() < 1e-9);
    }

    #[test]
    fn pure_state_distance_formula() {
        let a = PureState::single(2, 0);
        let b = plus_state();
        let d_pure = trace_distance_pure(&a, &b);
        let d_mixed = trace_distance(&DensityMatrix::from_pure(&a), &DensityMatrix::from_pure(&b));
        assert!((d_pure - d_mixed).abs() < 1e-9);
        assert!((d_pure - (0.5f64).sqrt()).abs() < 1e-9);
    }

    #[test]
    fn distance_between_pure_and_maximally_mixed() {
        let pure = DensityMatrix::from_pure(&PureState::single(2, 0));
        let mixed = DensityMatrix::maximally_mixed(&[2]);
        assert!((trace_distance(&pure, &mixed) - 0.5).abs() < 1e-10);
        assert!((fidelity(&pure, &mixed) - (0.5f64).sqrt()).abs() < 1e-9);
    }

    #[test]
    fn fuchs_van_de_graaf_holds_on_random_states() {
        let mut gen = RandomStateGenerator::new(17);
        for _ in 0..10 {
            let rho = gen.random_density(&[2, 2], 3);
            let sigma = gen.random_density(&[2, 2], 2);
            let (lower, d, upper) = fuchs_van_de_graaf(&rho, &sigma);
            assert!(lower <= d + 1e-7, "lower {lower} vs d {d}");
            assert!(d <= upper + 1e-7, "d {d} vs upper {upper}");
        }
    }

    #[test]
    fn trace_distance_is_a_metric_on_samples() {
        let mut gen = RandomStateGenerator::new(3);
        let a = gen.random_density(&[2], 2);
        let b = gen.random_density(&[2], 2);
        let c = gen.random_density(&[2], 2);
        let dab = trace_distance(&a, &b);
        let dba = trace_distance(&b, &a);
        let dac = trace_distance(&a, &c);
        let dcb = trace_distance(&c, &b);
        assert!((dab - dba).abs() < 1e-10);
        assert!(dab <= dac + dcb + 1e-9, "triangle inequality violated");
        assert!((0.0..=1.0 + 1e-12).contains(&dab));
    }

    #[test]
    fn contractivity_under_partial_trace() {
        // Fact 4: trace distance is contractive under CPTP maps; partial trace is one.
        let mut gen = RandomStateGenerator::new(11);
        for _ in 0..5 {
            let rho = gen.random_density(&[2, 2], 3);
            let sigma = gen.random_density(&[2, 2], 3);
            let d_full = trace_distance(&rho, &sigma);
            let d_red = trace_distance(
                &rho.partial_trace_keep(&[0]),
                &sigma.partial_trace_keep(&[0]),
            );
            assert!(d_red <= d_full + 1e-8, "reduced {d_red} > full {d_full}");
        }
    }

    #[test]
    fn swap_test_distance_bound_shape() {
        assert!(swap_test_distance_bound(0.0).abs() < 1e-12);
        assert!((swap_test_distance_bound(0.25) - (2.0 * 0.5 + 0.25)).abs() < 1e-12);
        assert!(swap_test_distance_bound(0.01) < swap_test_distance_bound(0.04));
    }
}
