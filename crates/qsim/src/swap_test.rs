//! The SWAP test (Section 3.1 of the paper, Lemmas 13–14).
//!
//! The SWAP test on a bipartite input accepts with probability
//! `1/2 + |α|²/2` where `α` is the amplitude of the input in the symmetric
//! subspace; for a product of pure states `|ψ₁>|ψ₂>` this is
//! `1/2 + |<ψ₁|ψ₂>|²/2`. The acceptance effect is exactly the projector onto
//! the symmetric subspace of the two registers, which is how it is
//! implemented here (no ancilla needed for exact simulation).

use crate::complex::Complex;
use crate::density::DensityMatrix;
use crate::gates;
use crate::linalg::CMatrix;
use crate::permutation;
use crate::state::PureState;
use rand::Rng;

/// The projector `(I + SWAP)/2` onto the symmetric subspace of two registers
/// of dimension `d` each. This is the acceptance effect of the SWAP test.
pub fn swap_test_projector(d: usize) -> CMatrix {
    let id = CMatrix::identity(d * d);
    let sw = gates::swap(d);
    (&id + &sw).scale(Complex::real(0.5))
}

/// Acceptance probability of the SWAP test on a product of two pure states:
/// `1/2 + |<a|b>|²/2`.
///
/// # Panics
///
/// Panics if the states have different total dimensions.
#[inline]
pub fn swap_test_acceptance_pure(a: &PureState, b: &PureState) -> f64 {
    assert_eq!(
        a.dim(),
        b.dim(),
        "SWAP test requires equal register dimensions"
    );
    0.5 + 0.5 * a.overlap_sqr(b)
}

/// Acceptance probability of the SWAP test on a joint (possibly entangled or
/// mixed) state of two registers of equal dimension.
///
/// Matrix-free: `tr(Π ρ) = (tr ρ + tr(SWAP·ρ))/2` where `tr(SWAP·ρ)` is an
/// `O(D)` gather over swapped index pairs — the projector is never built.
/// The dense-projector path survives as [`crate::naive::swap_test_acceptance`].
///
/// # Panics
///
/// Panics if the state does not consist of exactly two equal-dimension registers.
pub fn swap_test_acceptance(rho: &DensityMatrix) -> f64 {
    assert_eq!(
        rho.dims().len(),
        2,
        "SWAP test acts on exactly two registers"
    );
    swap_test_acceptance_on(rho, 0, 1)
}

/// Acceptance probability of the SWAP test applied to two registers inside a
/// larger state, without disturbing it. Matrix-free (see
/// [`swap_test_acceptance`]).
pub fn swap_test_acceptance_on(rho: &DensityMatrix, r1: usize, r2: usize) -> f64 {
    let d = rho.dims()[r1];
    assert_eq!(
        d,
        rho.dims()[r2],
        "SWAP test registers must have equal dimension"
    );
    permutation::permutation_test_acceptance_on(rho, &[r1, r2])
}

/// Performs the SWAP test on registers `r1` and `r2` of a larger state,
/// sampling the outcome and collapsing the state accordingly. Both the
/// acceptance probability and the post-measurement effect (register
/// symmetrisation, both branches) are matrix-free.
///
/// Returns `true` on acceptance.
pub fn swap_test_on<R: Rng + ?Sized>(
    rho: &mut DensityMatrix,
    r1: usize,
    r2: usize,
    rng: &mut R,
) -> bool {
    let d = rho.dims()[r1];
    assert_eq!(
        d,
        rho.dims()[r2],
        "SWAP test registers must have equal dimension"
    );
    permutation::permutation_test_on(rho, &[r1, r2], rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::{swap_test_distance_bound, trace_distance};
    use crate::random::RandomStateGenerator;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn identical_pure_states_always_accept() {
        let mut gen = RandomStateGenerator::new(1);
        let psi = gen.random_pure(&[4]);
        assert!((swap_test_acceptance_pure(&psi, &psi) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn orthogonal_states_accept_with_half() {
        let a = PureState::single(2, 0);
        let b = PureState::single(2, 1);
        assert!((swap_test_acceptance_pure(&a, &b) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn acceptance_matches_projector_formula() {
        let mut gen = RandomStateGenerator::new(2);
        for _ in 0..5 {
            let a = gen.random_pure(&[3]);
            let b = gen.random_pure(&[3]);
            let joint = DensityMatrix::from_pure(&a.tensor(&b));
            let analytic = swap_test_acceptance_pure(&a, &b);
            let operator = swap_test_acceptance(&joint);
            assert!((analytic - operator).abs() < 1e-10);
        }
    }

    #[test]
    fn projector_is_idempotent_and_hermitian() {
        let p = swap_test_projector(3);
        assert!(p.is_hermitian(1e-12));
        assert!(p.matmul(&p).approx_eq(&p, 1e-10));
        // The symmetric subspace of two qutrits has dimension d(d+1)/2 = 6.
        assert!((p.trace().re - 6.0).abs() < 1e-10);
    }

    #[test]
    fn lemma_14_bound_holds_for_random_joint_states() {
        // If the SWAP test accepts with probability 1 - eps, then
        // D(rho_1, rho_2) <= 2 sqrt(eps) + eps.
        let mut gen = RandomStateGenerator::new(3);
        for _ in 0..10 {
            let rho = gen.random_density(&[2, 2], 2);
            let eps = 1.0 - swap_test_acceptance(&rho);
            let d = trace_distance(&rho.partial_trace_keep(&[0]), &rho.partial_trace_keep(&[1]));
            assert!(
                d <= swap_test_distance_bound(eps) + 1e-8,
                "distance {d} exceeds bound {} at eps {eps}",
                swap_test_distance_bound(eps)
            );
        }
    }

    #[test]
    fn perfect_acceptance_implies_equal_reduced_states() {
        // Symmetric pure states accept with certainty and have equal marginals.
        let mut gen = RandomStateGenerator::new(4);
        let psi = gen.random_pure(&[3]);
        let joint = DensityMatrix::from_pure(&psi.tensor(&psi));
        assert!((swap_test_acceptance(&joint) - 1.0).abs() < 1e-10);
        let d = trace_distance(
            &joint.partial_trace_keep(&[0]),
            &joint.partial_trace_keep(&[1]),
        );
        assert!(d < 1e-8);
    }

    #[test]
    fn swap_test_on_collapses_and_reports() {
        let mut rng = StdRng::seed_from_u64(7);
        let a = PureState::single(2, 0);
        let b = PureState::single(2, 1);
        let mut rho = DensityMatrix::from_pure(&a.tensor(&b));
        let mut accepts = 0;
        let trials = 400;
        for _ in 0..trials {
            let mut r = rho.clone();
            if swap_test_on(&mut r, 0, 1, &mut rng) {
                accepts += 1;
            }
            assert!((r.trace() - 1.0).abs() < 1e-9);
        }
        let frac = f64::from(accepts) / f64::from(trials);
        assert!((frac - 0.5).abs() < 0.1, "observed acceptance {frac}");
        // Original state untouched by the cloned runs.
        assert!((rho.trace() - 1.0).abs() < 1e-12);
        let _ = &mut rho;
    }

    #[test]
    fn acceptance_on_subregisters_of_larger_state() {
        let mut gen = RandomStateGenerator::new(9);
        let psi = gen.random_pure(&[2]);
        let extra = gen.random_pure(&[3]);
        let joint = DensityMatrix::from_pure(&psi.tensor(&extra).tensor(&psi));
        let p = swap_test_acceptance_on(&joint, 0, 2);
        assert!((p - 1.0).abs() < 1e-10);
    }
}
