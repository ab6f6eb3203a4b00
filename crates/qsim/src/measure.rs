//! POVMs and projective measurements.
//!
//! The terminal nodes in the dQMA protocols finish with a POVM measurement
//! `{M_{y,1}, M_{y,0}}` taken from a one-way communication protocol
//! (Section 2.2.1 of the paper). This module provides a small POVM type with
//! validation, outcome probabilities, and sampling.

use crate::complex::Complex;
use crate::density::DensityMatrix;
use crate::linalg::{eigh, CMatrix, CVector};
use crate::state::PureState;
use rand::Rng;

/// A positive operator-valued measure: a finite list of PSD operators that
/// sum to the identity.
#[derive(Clone, Debug)]
pub struct Povm {
    elements: Vec<CMatrix>,
}

impl Povm {
    /// Creates a POVM from its elements.
    ///
    /// # Panics
    ///
    /// Panics if the list is empty, elements have inconsistent shapes, any
    /// element is not (numerically) PSD, or the elements do not sum to the
    /// identity.
    pub fn new(elements: Vec<CMatrix>) -> Self {
        assert!(!elements.is_empty(), "a POVM needs at least one element");
        let d = elements[0].rows();
        let tol = 1e-8;
        let mut sum = CMatrix::zeros(d, d);
        for e in &elements {
            assert!(
                e.rows() == d && e.cols() == d,
                "POVM elements must be square matrices of equal dimension"
            );
            assert!(e.is_hermitian(tol), "POVM elements must be Hermitian");
            let min_eig = eigh(e).eigenvalues[0];
            assert!(
                min_eig > -tol,
                "POVM elements must be positive semidefinite"
            );
            sum = &sum + e;
        }
        assert!(
            sum.approx_eq(&CMatrix::identity(d), 1e-7),
            "POVM elements must sum to the identity"
        );
        Povm { elements }
    }

    /// A two-outcome POVM `{P, I − P}` from a projector (or any effect) `P`.
    /// Outcome 0 corresponds to `P` (conventionally "accept").
    pub fn accept_reject(p: &CMatrix) -> Self {
        let id = CMatrix::identity(p.rows());
        Povm::new(vec![p.clone(), &id - p])
    }

    /// The projective measurement in the computational basis of dimension `d`.
    pub fn computational(d: usize) -> Self {
        let elements = (0..d)
            .map(|i| CMatrix::projector(&CVector::basis(d, i)))
            .collect();
        Povm::new(elements)
    }

    /// Number of outcomes.
    pub fn num_outcomes(&self) -> usize {
        self.elements.len()
    }

    /// The operator dimension the POVM acts on.
    pub fn dim(&self) -> usize {
        self.elements[0].rows()
    }

    /// The POVM elements.
    pub fn elements(&self) -> &[CMatrix] {
        &self.elements
    }

    /// Outcome probabilities on a density matrix (which must live on a register
    /// of matching total dimension).
    pub fn probabilities(&self, rho: &DensityMatrix) -> Vec<f64> {
        assert_eq!(rho.dim(), self.dim(), "POVM dimension mismatch");
        self.elements
            .iter()
            .map(|e| rho.expectation(e).re.clamp(0.0, 1.0))
            .collect()
    }

    /// Outcome probabilities on a pure state.
    pub fn probabilities_pure(&self, psi: &PureState) -> Vec<f64> {
        assert_eq!(psi.dim(), self.dim(), "POVM dimension mismatch");
        self.elements
            .iter()
            .map(|e| {
                let v = psi.amplitudes();
                let ev = e.apply(v);
                v.inner(&ev).re.clamp(0.0, 1.0)
            })
            .collect()
    }

    /// Samples an outcome index on a density matrix.
    pub fn sample<R: Rng + ?Sized>(&self, rho: &DensityMatrix, rng: &mut R) -> usize {
        sample_index(&self.probabilities(rho), rng)
    }
}

/// Samples an index from an (unnormalised) probability vector.
pub fn sample_index<R: Rng + ?Sized>(probs: &[f64], rng: &mut R) -> usize {
    let total: f64 = probs.iter().sum();
    let mut draw = rng.random::<f64>() * total;
    for (i, &p) in probs.iter().enumerate() {
        if draw < p {
            return i;
        }
        draw -= p;
    }
    probs.len() - 1
}

/// Builds the acceptance operator `Σ_s prob_accept(s) |s><s|` of a classical
/// post-processing rule applied to a computational-basis measurement: the
/// diagonal operator whose entry `s` is the probability the rule accepts
/// outcome `s`. Useful for compiling classical checks into POVM effects.
pub fn diagonal_effect(accept_probs: &[f64]) -> CMatrix {
    let d = accept_probs.len();
    let mut m = CMatrix::zeros(d, d);
    for (i, &p) in accept_probs.iter().enumerate() {
        assert!(
            (0.0..=1.0 + 1e-12).contains(&p),
            "acceptance probabilities must lie in [0,1]"
        );
        m.set(i, i, Complex::real(p.min(1.0)));
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gates;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn computational_povm_on_plus_state() {
        let mut s = PureState::single(2, 0);
        s.apply_unitary(&[0], &gates::hadamard());
        let povm = Povm::computational(2);
        let probs = povm.probabilities_pure(&s);
        assert!((probs[0] - 0.5).abs() < 1e-12);
        assert!((probs[1] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn accept_reject_from_projector() {
        let p = CMatrix::projector(&CVector::basis(2, 1));
        let povm = Povm::accept_reject(&p);
        let zero = DensityMatrix::from_pure(&PureState::single(2, 0));
        let probs = povm.probabilities(&zero);
        assert!(probs[0].abs() < 1e-12);
        assert!((probs[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn probabilities_sum_to_one() {
        let povm = Povm::computational(4);
        let rho = DensityMatrix::maximally_mixed(&[4]);
        let total: f64 = povm.probabilities(&rho).iter().sum();
        assert!((total - 1.0).abs() < 1e-10);
    }

    #[test]
    #[should_panic(expected = "sum to the identity")]
    fn invalid_povm_rejected() {
        let p = CMatrix::projector(&CVector::basis(2, 0));
        let _ = Povm::new(vec![p.clone(), p]);
    }

    #[test]
    #[should_panic(expected = "positive semidefinite")]
    fn negative_effect_rejected() {
        let p = CMatrix::projector(&CVector::basis(2, 0));
        let neg = &CMatrix::identity(2) - &p.scale(Complex::real(2.0));
        let two_p_minus_i = &p.scale(Complex::real(2.0)) - &CMatrix::zeros(2, 2);
        // neg has eigenvalue -1; pair it so the sum is still I.
        let _ = Povm::new(vec![neg, &two_p_minus_i - &CMatrix::zeros(2, 2)]);
    }

    #[test]
    fn sampling_matches_probabilities() {
        let mut rng = StdRng::seed_from_u64(11);
        let povm = Povm::computational(2);
        let rho = DensityMatrix::maximally_mixed(&[2]);
        let mut count = 0usize;
        for _ in 0..2000 {
            count += povm.sample(&rho, &mut rng);
        }
        let frac = count as f64 / 2000.0;
        assert!((frac - 0.5).abs() < 0.06);
    }

    #[test]
    fn diagonal_effect_builds_valid_effect() {
        let eff = diagonal_effect(&[1.0, 0.25, 0.0, 0.5]);
        let povm = Povm::accept_reject(&eff);
        assert_eq!(povm.num_outcomes(), 2);
        let rho = DensityMatrix::maximally_mixed(&[4]);
        let probs = povm.probabilities(&rho);
        assert!((probs[0] - (1.0 + 0.25 + 0.0 + 0.5) / 4.0).abs() < 1e-12);
    }

    #[test]
    fn sample_index_degenerate() {
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(sample_index(&[0.0, 1.0, 0.0], &mut rng), 1);
    }
}
