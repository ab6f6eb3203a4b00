//! The permutation test (Section 3.1 of the paper, Lemmas 15–16).
//!
//! The permutation test generalises the SWAP test from two registers to `k`
//! registers: its acceptance effect is the projector onto the symmetric
//! subspace of `(C^d)^{⊗k}`, i.e. the average `(1/k!) Σ_π U_π` of all
//! register-permutation unitaries. The paper uses it (Algorithm 5) so that a
//! node can test *all* the states received from its children at once, which is
//! what removes the factor `t` from the FGNP21 proof size.

use crate::complex::Complex;
use crate::density::DensityMatrix;
use crate::kernels::{self, BlockClasses};
use crate::linalg::CMatrix;
use crate::plan::{self, KernelPlan, PlanScratch};
use crate::state::{flat_index, unflatten_index, PureState};
use rand::Rng;

/// Returns all permutations of `0..k`, each exactly once, in Heap's-algorithm
/// generation order (NOT lexicographic — callers must treat the result as a
/// set).
///
/// # Panics
///
/// Panics if `k > 8` (the permutation test is only ever applied to a handful
/// of registers; larger symmetric groups would be astronomically large).
pub fn permutations(k: usize) -> Vec<Vec<usize>> {
    assert!(k <= 8, "permutations(k) supports k <= 8");
    let mut items: Vec<usize> = (0..k).collect();
    let mut out = Vec::new();
    heap_permute(&mut items, k, &mut out);
    out
}

fn heap_permute(items: &mut Vec<usize>, k: usize, out: &mut Vec<Vec<usize>>) {
    if k == 1 {
        out.push(items.clone());
        return;
    }
    for i in 0..k {
        heap_permute(items, k - 1, out);
        if k.is_multiple_of(2) {
            items.swap(i, k - 1);
        } else {
            items.swap(0, k - 1);
        }
    }
}

/// The unitary `U_π` permuting `k` registers of dimension `d` each:
/// `U_π |i_1>···|i_k> = |i_{π⁻¹(1)}>···|i_{π⁻¹(k)}>`.
pub fn permutation_operator(d: usize, perm: &[usize]) -> CMatrix {
    let k = perm.len();
    let dims = vec![d; k];
    let total: usize = dims.iter().product();
    // Inverse permutation.
    let mut inv = vec![0usize; k];
    for (i, &p) in perm.iter().enumerate() {
        inv[p] = i;
    }
    let mut m = CMatrix::zeros(total, total);
    for col in 0..total {
        let multi = unflatten_index(&dims, col);
        let permuted: Vec<usize> = (0..k).map(|slot| multi[inv[slot]]).collect();
        let row = flat_index(&dims, &permuted);
        m.set(row, col, Complex::ONE);
    }
    m
}

/// The projector onto the symmetric subspace of `k` registers of dimension `d`:
/// `Π_sym = (1/k!) Σ_{π ∈ S_k} U_π`.
pub fn symmetric_projector(d: usize, k: usize) -> CMatrix {
    let perms = permutations(k);
    let total = d.pow(k as u32);
    let mut sum = CMatrix::zeros(total, total);
    for p in &perms {
        sum = &sum + &permutation_operator(d, p);
    }
    sum.scale(Complex::real(1.0 / perms.len() as f64))
}

/// Dimension of the symmetric subspace of `k` registers of dimension `d`:
/// the binomial coefficient `C(d + k − 1, k)`.
pub fn symmetric_subspace_dim(d: usize, k: usize) -> usize {
    // Compute C(d+k-1, k) with integer arithmetic.
    let mut num: u128 = 1;
    let mut den: u128 = 1;
    for i in 0..k {
        num *= (d + k - 1 - i) as u128;
        den *= (i + 1) as u128;
    }
    (num / den) as usize
}

/// The `S_k` digit-orbit partition of the block indices `0..d^k`: two block
/// indices are in the same class iff their base-`d` digit strings are
/// permutations of each other.
///
/// The class-averaging projector of this partition (see
/// [`kernels::BlockClasses`]) *is* the symmetric-subspace projector
/// `Π_sym = (1/k!) Σ_π U_π`: averaging over all `k!` permutations counts each
/// orbit element `k!/|orbit|` times, which collapses to a plain orbit
/// average. This is what lets the post-measurement effects run in `O(D²)`
/// with no `k!` factor.
///
/// The partition is `O(d^k)` metadata (not an operator); its single
/// process-wide memo lives in the plan layer ([`plan::symmetric_classes`]),
/// which this function delegates to — the hot measurement paths pay the
/// construction once per `(d, k)` and then fetch full compiled class plans
/// from [`plan::cached_symmetric`].
pub fn symmetric_classes(d: usize, k: usize) -> std::sync::Arc<BlockClasses> {
    plan::symmetric_classes(d, k)
}

fn assert_equal_target_dims(rho: &DensityMatrix, targets: &[usize]) -> usize {
    let d = rho.dims()[targets[0]];
    assert!(
        targets.iter().all(|&t| rho.dims()[t] == d),
        "permutation test registers must have equal dimension"
    );
    d
}

/// Acceptance probability of the permutation test on a joint state of `k`
/// registers, each of dimension `d` (Lemma 15): `tr(Π_sym ρ)`.
///
/// Matrix-free: computed as `(1/k!) Σ_π tr(U_π ρ)` where each `tr(U_π ρ)` is
/// an `O(D)` gather over permuted index pairs ([`kernels::monomial_embedded_trace_with`])
/// — `O(k!·D)` total, with zero projector allocation. The dense-projector
/// path survives as [`crate::naive::permutation_test_acceptance`].
///
/// # Panics
///
/// Panics if the registers do not all have the same dimension.
pub fn permutation_test_acceptance(rho: &DensityMatrix) -> f64 {
    let targets: Vec<usize> = (0..rho.dims().len()).collect();
    permutation_test_acceptance_on(rho, &targets)
}

/// Acceptance probability of the permutation test on a product of pure states
/// (all of the same dimension).
///
/// Fast path: evaluated through the Gram-matrix closed form
/// ([`permutation_test_acceptance_gram`]) — the joint state (let alone its
/// `d^k × d^k` density matrix) is never formed.
pub fn permutation_test_acceptance_pure(states: &[PureState]) -> f64 {
    assert!(
        !states.is_empty(),
        "permutation test needs at least one state"
    );
    let d = states[0].dim();
    assert!(
        states.iter().all(|s| s.dim() == d),
        "permutation test registers must have equal dimension"
    );
    permutation_test_acceptance_gram(states)
}

/// Acceptance probability of the permutation test on a *product* of pure
/// states, computed from their Gram matrix without ever forming the joint
/// state: `tr(Π_sym ⊗_i |ψ_i><ψ_i|) = (1/k!) Σ_π Π_i <ψ_i|ψ_{π(i)}>`.
///
/// This is how the tree protocols evaluate the test for honest and separable
/// proofs even when the joint Hilbert space would be too large to materialise.
pub fn permutation_test_acceptance_gram(states: &[PureState]) -> f64 {
    let k = states.len();
    assert!(k >= 1, "permutation test needs at least one state");
    let gram: Vec<Vec<Complex>> = states
        .iter()
        .map(|a| states.iter().map(|b| a.inner(b)).collect())
        .collect();
    let mut total = Complex::ZERO;
    let perms = permutations(k);
    for p in &perms {
        let mut prod = Complex::ONE;
        for (i, &pi) in p.iter().enumerate() {
            prod *= gram[i][pi];
        }
        total += prod;
    }
    (total.re / perms.len() as f64).clamp(0.0, 1.0)
}

/// `tr(embed(U_π) · ρ)` for a single register permutation `π` of the listed
/// (equal-dimension) targets: an `O(D)` gather over permuted index pairs
/// through [`kernels::monomial_embedded_trace_with`] — each `U_π` is
/// monomial, so no operator is ever built.
pub fn permutation_unitary_expectation(
    rho: &DensityMatrix,
    targets: &[usize],
    perm: &[usize],
) -> Complex {
    let d = assert_equal_target_dims(rho, targets);
    assert_eq!(perm.len(), targets.len(), "permutation length mismatch");
    let src = plan::permutation_src(d, perm);
    let phase = vec![Complex::ONE; src.len()];
    let plan = KernelPlan::for_monomial_trace(rho.dims(), targets, &src, &phase);
    kernels::monomial_embedded_trace_with(rho.matrix(), &plan)
}

/// Acceptance probability of the permutation test applied to a subset of the
/// registers of a larger state, without disturbing it.
///
/// Matrix-free: `tr(Π_sym ρ) = (1/k!) Σ_π tr(embed(U_π) ρ)`, each term an
/// `O(D)` monomial gather ([`permutation_unitary_expectation`]); the sum is
/// evaluated in its orbit-grouped form ([`kernels::class_projection_trace_with`]),
/// which regroups the `k!` gathers by digit orbit — at most `k!·D` and
/// typically far fewer visited entries, with zero projector allocation. The
/// dense-projector path survives as
/// [`crate::naive::permutation_test_acceptance_on`].
pub fn permutation_test_acceptance_on(rho: &DensityMatrix, targets: &[usize]) -> f64 {
    let plan = plan::cached_symmetric(rho.dims(), targets);
    kernels::class_projection_trace_with(rho.matrix(), &plan)
        .re
        .clamp(0.0, 1.0)
}

/// Applies the accept effect of the permutation test in place, without
/// renormalising: `ρ → Π_sym ρ Π_sym`.
///
/// Implemented as an in-place register symmetrisation — class averaging over
/// the `S_k` digit orbits through the [`kernels`] stride machinery: `O(D²)`,
/// no `k!` factor, no projector allocation.
pub fn project_symmetric_on(rho: &mut DensityMatrix, targets: &[usize]) {
    let plan = plan::cached_symmetric(rho.dims(), targets);
    rho.apply_class_projector_with(&plan, false, &mut PlanScratch::default());
}

/// Applies the reject effect of the permutation test in place, without
/// renormalising: `ρ → (I − Π_sym) ρ (I − Π_sym)`.
pub fn project_complement_on(rho: &mut DensityMatrix, targets: &[usize]) {
    let plan = plan::cached_symmetric(rho.dims(), targets);
    rho.apply_class_projector_with(&plan, true, &mut PlanScratch::default());
}

/// Performs the permutation test on the listed registers of a larger state,
/// sampling the outcome and collapsing the state accordingly. Both the
/// acceptance probability and the post-measurement effect are matrix-free
/// (see [`permutation_test_acceptance_on`], [`project_symmetric_on`]).
///
/// Returns `true` on acceptance.
pub fn permutation_test_on<R: Rng + ?Sized>(
    rho: &mut DensityMatrix,
    targets: &[usize],
    rng: &mut R,
) -> bool {
    let plan = plan::cached_symmetric(rho.dims(), targets);
    let p_accept = kernels::class_projection_trace_with(rho.matrix(), &plan)
        .re
        .clamp(0.0, 1.0);
    let accept = rng.random::<f64>() < p_accept;
    let p = if accept { p_accept } else { 1.0 - p_accept };
    if p > 1e-12 {
        rho.apply_class_projector_with(&plan, !accept, &mut PlanScratch::default());
        rho.rescale(1.0 / p);
    }
    accept
}

/// Performs the permutation test on the listed registers of a larger *pure*
/// state, sampling the outcome and collapsing in place. The acceptance
/// probability `‖Π_sym |ψ>‖²` and both effect branches run as `O(D)` class
/// averages — the pure-state fast path of the protocol samplers.
///
/// Returns `true` on acceptance.
pub fn permutation_test_on_pure<R: Rng + ?Sized>(
    psi: &mut PureState,
    targets: &[usize],
    rng: &mut R,
) -> bool {
    let plan = plan::cached_symmetric(psi.dims(), targets);
    let mut scratch = PlanScratch::default();
    let p_accept =
        kernels::class_projection_weight_with(psi.amplitudes().split(), &plan, &mut scratch)
            .clamp(0.0, 1.0);
    let accept = rng.random::<f64>() < p_accept;
    let p = if accept { p_accept } else { 1.0 - p_accept };
    if p > 1e-12 {
        psi.apply_class_projector_with(&plan, !accept, &mut scratch);
        psi.rescale(1.0 / p.sqrt());
    }
    accept
}

/// Right-multiplies a matrix by the embedded symmetric-subspace projector of
/// the listed (equal-dimension) registers, in place and matrix-free:
/// `M → M · embed(Π_sym)` as a class average over columns, `O(rows · D)`.
///
/// This is how the chain acceptance-operator construction applies its SWAP
/// effects without ever building the `d²×d²` projector.
pub fn right_project_symmetric(mat: &mut CMatrix, dims: &[usize], targets: &[usize]) {
    let plan = plan::cached_symmetric(dims, targets);
    kernels::project_classes_cols_with(mat, &plan, false, &mut PlanScratch::default());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::{swap_test_distance_bound, trace_distance};
    use crate::random::RandomStateGenerator;
    use crate::swap_test::swap_test_projector;

    #[test]
    fn permutations_count_is_factorial() {
        assert_eq!(permutations(1).len(), 1);
        assert_eq!(permutations(2).len(), 2);
        assert_eq!(permutations(3).len(), 6);
        assert_eq!(permutations(4).len(), 24);
    }

    #[test]
    fn permutations_form_the_full_symmetric_group_as_a_set() {
        // Heap's algorithm emits each permutation exactly once; callers must
        // not depend on the order, so assert the *set*, not the sequence.
        for k in 1..=5usize {
            let mut perms = permutations(k);
            let count = perms.len();
            perms.sort();
            perms.dedup();
            assert_eq!(perms.len(), count, "k={k}: duplicates emitted");
            assert_eq!(count, (1..=k).product::<usize>(), "k={k}: wrong count");
            for p in &perms {
                let mut sorted = p.clone();
                sorted.sort_unstable();
                assert_eq!(
                    sorted,
                    (0..k).collect::<Vec<_>>(),
                    "k={k}: not a permutation"
                );
            }
        }
    }

    #[test]
    fn symmetric_classes_average_is_the_symmetric_projector() {
        for (d, k) in [(2usize, 2usize), (2, 3), (3, 2), (2, 4), (3, 3)] {
            let classes = symmetric_classes(d, k);
            let total = d.pow(k as u32);
            let dense = symmetric_projector(d, k);
            let class_matrix = CMatrix::from_fn(total, total, |r, c| {
                if classes.class_of[r] == classes.class_of[c] {
                    Complex::real(1.0 / classes.class_size[classes.class_of[r]] as f64)
                } else {
                    Complex::ZERO
                }
            });
            assert!(
                class_matrix.approx_eq(&dense, 1e-12),
                "d={d}, k={k}: class average differs from Π_sym"
            );
        }
    }

    #[test]
    fn permutation_operators_are_unitary_and_compose() {
        let d = 2;
        for p in permutations(3) {
            assert!(permutation_operator(d, &p).is_unitary(1e-12));
        }
        // U_sigma U_tau = U_{sigma . tau} for the cycle and a transposition.
        let sigma = vec![1usize, 2, 0];
        let tau = vec![1usize, 0, 2];
        let lhs = permutation_operator(d, &sigma).matmul(&permutation_operator(d, &tau));
        let composed: Vec<usize> = (0..3).map(|i| sigma[tau[i]]).collect();
        let rhs = permutation_operator(d, &composed);
        assert!(lhs.approx_eq(&rhs, 1e-12));
    }

    #[test]
    fn identity_permutation_is_identity_operator() {
        let u = permutation_operator(3, &[0, 1, 2]);
        assert!(u.approx_eq(&CMatrix::identity(27), 1e-12));
    }

    #[test]
    fn symmetric_projector_for_two_registers_matches_swap_test() {
        for d in [2, 3] {
            let p = symmetric_projector(d, 2);
            assert!(p.approx_eq(&swap_test_projector(d), 1e-12));
        }
    }

    #[test]
    fn symmetric_projector_is_projector_with_correct_rank() {
        for (d, k) in [(2, 2), (2, 3), (3, 2), (2, 4)] {
            let p = symmetric_projector(d, k);
            assert!(p.is_hermitian(1e-12));
            assert!(p.matmul(&p).approx_eq(&p, 1e-9));
            let expected_rank = symmetric_subspace_dim(d, k) as f64;
            assert!(
                (p.trace().re - expected_rank).abs() < 1e-8,
                "rank mismatch for d={d}, k={k}"
            );
        }
    }

    #[test]
    fn symmetric_subspace_dims() {
        assert_eq!(symmetric_subspace_dim(2, 2), 3);
        assert_eq!(symmetric_subspace_dim(2, 3), 4);
        assert_eq!(symmetric_subspace_dim(3, 2), 6);
        assert_eq!(symmetric_subspace_dim(4, 3), 20);
    }

    #[test]
    fn identical_copies_always_accept() {
        // Lemma 15: the test accepts |phi>^{\otimes k} with probability 1.
        let mut gen = RandomStateGenerator::new(5);
        let phi = gen.random_pure(&[2]);
        for k in 2..=4 {
            let copies: Vec<PureState> = (0..k).map(|_| phi.clone()).collect();
            let p = permutation_test_acceptance_pure(&copies);
            assert!((p - 1.0).abs() < 1e-9, "k={k} acceptance {p}");
        }
    }

    #[test]
    fn distinct_orthogonal_states_accept_below_one() {
        let zero = PureState::single(2, 0);
        let one = PureState::single(2, 1);
        let p = permutation_test_acceptance_pure(&[zero.clone(), one.clone(), zero]);
        assert!(p < 0.9, "acceptance {p} should be bounded away from 1");
    }

    #[test]
    fn lemma_16_bound_on_random_states() {
        // If the permutation test accepts with probability 1 - eps, the reduced
        // states on any two registers are within 2 sqrt(eps) + eps.
        let mut gen = RandomStateGenerator::new(6);
        for _ in 0..5 {
            let rho = gen.random_density(&[2, 2, 2], 2);
            let eps = 1.0 - permutation_test_acceptance(&rho);
            for i in 0..3 {
                for j in (i + 1)..3 {
                    let d = trace_distance(
                        &rho.partial_trace_keep(&[i]),
                        &rho.partial_trace_keep(&[j]),
                    );
                    assert!(
                        d <= swap_test_distance_bound(eps) + 1e-7,
                        "pair ({i},{j}): distance {d} exceeds bound at eps {eps}"
                    );
                }
            }
        }
    }

    #[test]
    fn gram_formula_matches_dense_projector_formula() {
        let mut gen = RandomStateGenerator::new(21);
        for k in 2..=3usize {
            let states: Vec<PureState> = (0..k).map(|_| gen.random_pure(&[3])).collect();
            let via_gram = permutation_test_acceptance_gram(&states);
            let via_projector = crate::naive::permutation_test_acceptance_pure(&states);
            assert!(
                (via_gram - via_projector).abs() < 1e-9,
                "k={k}: {via_gram} vs {via_projector}"
            );
        }
    }

    #[test]
    fn gram_formula_on_identical_states_is_one() {
        let mut gen = RandomStateGenerator::new(22);
        let phi = gen.random_pure(&[5]);
        let copies: Vec<PureState> = (0..4).map(|_| phi.clone()).collect();
        assert!((permutation_test_acceptance_gram(&copies) - 1.0).abs() < 1e-10);
    }

    #[test]
    fn acceptance_on_sub_registers() {
        let mut gen = RandomStateGenerator::new(7);
        let phi = gen.random_pure(&[2]);
        let other = gen.random_pure(&[3]);
        let joint = DensityMatrix::from_pure(&phi.tensor(&other).tensor(&phi).tensor(&phi));
        let p = permutation_test_acceptance_on(&joint, &[0, 2, 3]);
        assert!((p - 1.0).abs() < 1e-9);
    }

    #[test]
    fn permutation_test_on_collapse_keeps_trace() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        use rand::SeedableRng;
        let mut gen = RandomStateGenerator::new(8);
        let mut rho = gen.random_density(&[2, 2, 2], 2);
        let _ = permutation_test_on(&mut rho, &[0, 1, 2], &mut rng);
        assert!((rho.trace() - 1.0).abs() < 1e-9);
    }
}
