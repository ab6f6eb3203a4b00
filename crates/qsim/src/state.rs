//! Pure states over composite quantum registers.
//!
//! A [`PureState`] is an amplitude vector together with a list of subsystem
//! dimensions. Subsystems are indexed from `0` and ordered most-significant
//! first, i.e. the flat computational-basis index of the assignment
//! `(i_0, i_1, ..., i_{k-1})` is `((i_0 · d_1 + i_1) · d_2 + i_2) ...`.
//!
//! The dQMA protocols in the companion crates speak about named registers
//! (`R_{j,0}`, index registers, direction registers, ...): those map directly
//! onto subsystems here, with arbitrary per-subsystem dimension (qudits), so
//! that a fingerprint register of `q` qubits is simply one subsystem of
//! dimension `2^q`.

use crate::complex::Complex;
use crate::kernels;
use crate::linalg::{CMatrix, CVector};
use crate::plan::{KernelPlan, PlanScratch};
use rand::Rng;

/// Returns the product of subsystem dimensions.
pub fn total_dim(dims: &[usize]) -> usize {
    dims.iter().product()
}

/// Converts a multi-index (one entry per subsystem) to a flat index.
///
/// # Panics
///
/// Panics if the multi-index length or any entry is out of range.
pub fn flat_index(dims: &[usize], multi: &[usize]) -> usize {
    assert_eq!(dims.len(), multi.len(), "multi-index length mismatch");
    let mut idx = 0;
    for (d, &m) in dims.iter().zip(multi.iter()) {
        assert!(m < *d, "index {m} out of range for dimension {d}");
        idx = idx * d + m;
    }
    idx
}

/// Converts a flat index to a multi-index (one entry per subsystem).
pub fn unflatten_index(dims: &[usize], mut flat: usize) -> Vec<usize> {
    let mut out = vec![0; dims.len()];
    for i in (0..dims.len()).rev() {
        out[i] = flat % dims[i];
        flat /= dims[i];
    }
    out
}

/// A normalised (or normalisable) pure state on a composite register.
///
/// # Examples
///
/// ```
/// use qsim::{PureState, gates};
///
/// // |+>|0> on two qubits.
/// let mut state = PureState::computational_basis(&[2, 2], &[0, 0]);
/// state.apply_unitary(&[0], &gates::hadamard());
/// state.apply_unitary(&[0, 1], &gates::cnot());
/// // Now a Bell state: measuring both qubits gives correlated outcomes.
/// let probs = state.outcome_distribution(&[0, 1]);
/// assert!((probs[0] - 0.5).abs() < 1e-12);
/// assert!((probs[3] - 0.5).abs() < 1e-12);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct PureState {
    dims: Vec<usize>,
    amps: CVector,
}

impl PureState {
    /// Creates a state from raw amplitudes over subsystems with the given dimensions.
    ///
    /// # Panics
    ///
    /// Panics if the amplitude vector length does not equal the product of dimensions,
    /// or if any dimension is zero.
    pub fn from_amplitudes(dims: &[usize], amps: CVector) -> Self {
        assert!(
            dims.iter().all(|&d| d > 0),
            "subsystem dimensions must be positive"
        );
        assert_eq!(
            amps.dim(),
            total_dim(dims),
            "amplitude vector length must equal the product of subsystem dimensions"
        );
        PureState {
            dims: dims.to_vec(),
            amps,
        }
    }

    /// Creates the computational-basis state `|i_0 i_1 ... >`.
    pub fn computational_basis(dims: &[usize], indices: &[usize]) -> Self {
        let flat = flat_index(dims, indices);
        PureState {
            dims: dims.to_vec(),
            amps: CVector::basis(total_dim(dims), flat),
        }
    }

    /// Creates a single-register basis state `|index>` of dimension `dim`.
    pub fn single(dim: usize, index: usize) -> Self {
        PureState::computational_basis(&[dim], &[index])
    }

    /// Creates the uniform superposition over a single register of dimension `dim`.
    pub fn uniform(dim: usize) -> Self {
        let amp = Complex::real(1.0 / (dim as f64).sqrt());
        PureState {
            dims: vec![dim],
            amps: CVector::from_fn(dim, |_| amp),
        }
    }

    /// Subsystem dimensions.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Total Hilbert-space dimension.
    #[inline]
    pub fn dim(&self) -> usize {
        self.amps.dim()
    }

    /// Raw amplitude vector.
    pub fn amplitudes(&self) -> &CVector {
        &self.amps
    }

    /// Squared norm of the amplitude vector.
    pub fn norm_sqr(&self) -> f64 {
        self.amps.norm_sqr()
    }

    /// Returns a normalised copy of the state.
    ///
    /// # Panics
    ///
    /// Panics if the state has zero norm.
    pub fn normalized(&self) -> PureState {
        PureState {
            dims: self.dims.clone(),
            amps: self.amps.normalized(),
        }
    }

    /// Hermitian inner product `<self|other>`.
    ///
    /// # Panics
    ///
    /// Panics if total dimensions differ.
    #[inline]
    pub fn inner(&self, other: &PureState) -> Complex {
        self.amps.inner(&other.amps)
    }

    /// Squared overlap `|<self|other>|²`.
    #[inline]
    pub fn overlap_sqr(&self, other: &PureState) -> f64 {
        self.inner(other).norm_sqr()
    }

    /// Tensor product `self ⊗ other`, concatenating subsystem lists.
    pub fn tensor(&self, other: &PureState) -> PureState {
        let mut dims = self.dims.clone();
        dims.extend_from_slice(&other.dims);
        PureState {
            dims,
            amps: self.amps.kron(&other.amps),
        }
    }

    /// Tensor product of many states.
    ///
    /// # Panics
    ///
    /// Panics if `states` is empty.
    pub fn tensor_all(states: &[PureState]) -> PureState {
        assert!(!states.is_empty(), "tensor_all requires at least one state");
        let mut out = states[0].clone();
        for s in &states[1..] {
            out = out.tensor(s);
        }
        out
    }

    /// Views the same amplitudes with a different subsystem split.
    ///
    /// # Panics
    ///
    /// Panics if the product of `new_dims` differs from the current total dimension.
    pub fn regroup(&self, new_dims: &[usize]) -> PureState {
        assert_eq!(
            total_dim(new_dims),
            self.dim(),
            "regroup must preserve the total dimension"
        );
        PureState {
            dims: new_dims.to_vec(),
            amps: self.amps.clone(),
        }
    }

    /// Applies a unitary (or any matrix) to the listed target subsystems.
    ///
    /// `targets` lists subsystem indices in the order that matches the matrix's
    /// tensor-factor ordering; they must be distinct.
    ///
    /// The update runs through the strided in-place kernels of
    /// [`crate::kernels`]: no full-vector clone, no per-amplitude heap
    /// allocation, and `O(D)` fast paths for diagonal and permutation
    /// operators.
    ///
    /// # Panics
    ///
    /// Panics if targets are repeated, out of range, or if the matrix dimension
    /// does not match the product of the target dimensions.
    pub fn apply_unitary(&mut self, targets: &[usize], u: &CMatrix) {
        let plan = KernelPlan::for_operator(&self.dims, targets, u);
        self.apply_unitary_with(&plan, &mut PlanScratch::default());
    }

    /// Plan executor of [`PureState::apply_unitary`]: applies the operator
    /// compiled into `plan` ([`KernelPlan::for_operator`] or stronger) with
    /// zero per-call metadata derivation.
    ///
    /// # Panics
    ///
    /// Panics if the plan was compiled for a different register shape or
    /// carries no operator.
    pub fn apply_unitary_with(&mut self, plan: &KernelPlan, scratch: &mut PlanScratch) {
        assert_eq!(
            plan.dims(),
            self.dims.as_slice(),
            "plan register shape mismatch"
        );
        kernels::apply_to_state_vector_with(self.amps.split_mut(), plan, scratch);
    }

    /// Applies the embedded class-averaging projector `P` of a class plan
    /// ([`KernelPlan::for_classes`] / [`KernelPlan::for_symmetric`] /
    /// [`crate::plan::cached_symmetric`]) in place, without renormalising:
    /// `|ψ> → P |ψ>` (or `(I−P)|ψ>` with `complement`). With the `S_k`
    /// digit-orbit classes of [`crate::permutation::symmetric_classes`] this
    /// is the post-measurement update of the SWAP/permutation test on a pure
    /// state, in `O(D)`.
    ///
    /// # Panics
    ///
    /// Panics if the plan was compiled for a different register shape or
    /// carries no class tables.
    pub fn apply_class_projector_with(
        &mut self,
        plan: &KernelPlan,
        complement: bool,
        scratch: &mut PlanScratch,
    ) {
        assert_eq!(
            plan.dims(),
            self.dims.as_slice(),
            "plan register shape mismatch"
        );
        kernels::project_classes_vector_with(self.amps.split_mut(), plan, complement, scratch);
    }

    /// Multiplies every amplitude by a real scalar in place (e.g. `1/√p` after
    /// a selective measurement update).
    pub fn rescale(&mut self, factor: f64) {
        self.amps.scale_real_in_place(factor);
    }

    /// Returns a new state with the subsystems reordered so that subsystem `perm[k]`
    /// of the original becomes subsystem `k` of the result.
    ///
    /// Compile-then-execute shim over [`PureState::permute_subsystems_with`].
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a permutation of `0..num_subsystems()`.
    pub fn permute_subsystems(&self, perm: &[usize]) -> PureState {
        let plan = KernelPlan::for_subsystem_permutation(&self.dims, perm);
        self.permute_subsystems_with(&plan)
    }

    /// Plan executor of [`PureState::permute_subsystems`]: the inverse
    /// permutation, permuted dimensions and per-subsystem index weights all
    /// come from a [`KernelPlan::for_subsystem_permutation`] plan.
    ///
    /// # Panics
    ///
    /// Panics if the plan was compiled for a different register shape.
    pub fn permute_subsystems_with(&self, plan: &KernelPlan) -> PureState {
        assert_eq!(
            plan.dims(),
            self.dims.as_slice(),
            "plan register shape mismatch"
        );
        let (weights, new_dims) = plan.permute_data();
        let new_dims = new_dims.to_vec();
        let n = self.dims.len();
        let total = self.dim();
        let mut new_amps = CVector::zeros(total);
        if n == 0 {
            new_amps.set(0, self.amps.at(0));
            return PureState {
                dims: new_dims,
                amps: new_amps,
            };
        }
        // Old subsystem p lands at new position inv[p]; walking the old flat
        // index with an odometer, each old digit p contributes with weight
        // new_strides[inv[p]] to the new flat index — no per-amplitude
        // multi-index materialisation (the weights are plan metadata).
        let mut counters = vec![0usize; n];
        let mut new_flat = 0usize;
        let (sre, sim) = (self.amps.re(), self.amps.im());
        let out = new_amps.split_mut();
        for flat in 0..total {
            out.re[new_flat] = sre[flat];
            out.im[new_flat] = sim[flat];
            let mut i = n;
            loop {
                if i == 0 {
                    break;
                }
                i -= 1;
                counters[i] += 1;
                new_flat += weights[i];
                if counters[i] < self.dims[i] {
                    break;
                }
                new_flat -= self.dims[i] * weights[i];
                counters[i] = 0;
            }
        }
        PureState {
            dims: new_dims,
            amps: new_amps,
        }
    }

    /// Probability of obtaining `outcome` when measuring `targets` in the
    /// computational basis (without collapsing the state).
    pub fn outcome_probability(&self, targets: &[usize], outcome: &[usize]) -> f64 {
        match kernels::outcome_offset(&self.dims, targets, outcome) {
            None => 0.0,
            Some((lay, offset)) => {
                let (re, im) = (self.amps.re(), self.amps.im());
                let mut p = 0.0;
                lay.for_each_base(|base| {
                    let i = base + offset;
                    p += re[i] * re[i] + im[i] * im[i];
                });
                p
            }
        }
    }

    /// Full outcome distribution over the listed target subsystems, indexed by the
    /// flat index of the target multi-outcome.
    pub fn outcome_distribution(&self, targets: &[usize]) -> Vec<f64> {
        let target_dims: Vec<usize> = targets.iter().map(|&t| self.dims[t]).collect();
        let mut probs = vec![0.0; total_dim(&target_dims)];
        if kernels::targets_distinct(targets) {
            let lay = kernels::layout(&self.dims, targets);
            let (re, im) = (self.amps.re(), self.amps.im());
            for (tb, &off) in lay.offsets.iter().enumerate() {
                let mut acc = 0.0;
                lay.for_each_base(|base| {
                    let i = base + off;
                    acc += re[i] * re[i] + im[i] * im[i];
                });
                probs[tb] = acc;
            }
        } else {
            // Repeated targets: keep the original scan semantics.
            for flat in 0..self.dim() {
                let multi = unflatten_index(&self.dims, flat);
                let outcome: Vec<usize> = targets.iter().map(|&t| multi[t]).collect();
                probs[flat_index(&target_dims, &outcome)] += self.amps.at(flat).norm_sqr();
            }
        }
        probs
    }

    /// Measures the listed subsystems in the computational basis, sampling an
    /// outcome with `rng`, collapsing and renormalising the state.
    ///
    /// Returns the per-target outcomes.
    pub fn measure<R: Rng + ?Sized>(&mut self, targets: &[usize], rng: &mut R) -> Vec<usize> {
        let target_dims: Vec<usize> = targets.iter().map(|&t| self.dims[t]).collect();
        let probs = self.outcome_distribution(targets);
        let total_p: f64 = probs.iter().sum();
        let mut draw = rng.random::<f64>() * total_p;
        let mut chosen = probs.len() - 1;
        for (i, &p) in probs.iter().enumerate() {
            if draw < p {
                chosen = i;
                break;
            }
            draw -= p;
        }
        let outcome = unflatten_index(&target_dims, chosen);
        self.collapse(targets, &outcome);
        outcome
    }

    /// Projects the state onto the given computational-basis outcome for the
    /// target subsystems and renormalises.
    ///
    /// # Panics
    ///
    /// Panics if the outcome has probability (numerically) zero.
    pub fn collapse(&mut self, targets: &[usize], outcome: &[usize]) {
        let (lay, offset) = match kernels::outcome_offset(&self.dims, targets, outcome) {
            Some(found) => found,
            None => panic!("cannot collapse onto a zero-probability outcome"),
        };
        let (re, im) = (self.amps.re(), self.amps.im());
        let mut p = 0.0;
        lay.for_each_base(|base| {
            let i = base + offset;
            p += re[i] * re[i] + im[i] * im[i];
        });
        assert!(
            p > 1e-300,
            "cannot collapse onto a zero-probability outcome"
        );
        let scale = 1.0 / p.sqrt();
        let mut new_amps = CVector::zeros(self.dim());
        {
            let out = new_amps.split_mut();
            lay.for_each_base(|base| {
                let i = base + offset;
                out.re[i] = re[i] * scale;
                out.im[i] = im[i] * scale;
            });
        }
        self.amps = new_amps;
    }

    /// Returns `true` when the two states agree entrywise up to `tol`.
    pub fn approx_eq(&self, other: &PureState, tol: f64) -> bool {
        self.dims == other.dims && self.amps.approx_eq(&other.amps, tol)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gates;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn flat_index_roundtrip() {
        let dims = [2, 3, 4];
        for flat in 0..24 {
            let multi = unflatten_index(&dims, flat);
            assert_eq!(flat_index(&dims, &multi), flat);
        }
    }

    #[test]
    fn basis_state_probabilities() {
        let s = PureState::computational_basis(&[2, 3], &[1, 2]);
        assert_eq!(s.dim(), 6);
        assert!((s.outcome_probability(&[0], &[1]) - 1.0).abs() < 1e-12);
        assert!((s.outcome_probability(&[1], &[2]) - 1.0).abs() < 1e-12);
        assert!((s.outcome_probability(&[1], &[0]) - 0.0).abs() < 1e-12);
    }

    #[test]
    fn uniform_superposition_distribution() {
        let s = PureState::uniform(5);
        let probs = s.outcome_distribution(&[0]);
        for p in probs {
            assert!((p - 0.2).abs() < 1e-12);
        }
    }

    #[test]
    fn tensor_of_basis_states() {
        let a = PureState::single(2, 1);
        let b = PureState::single(3, 2);
        let t = a.tensor(&b);
        assert_eq!(t.dims(), &[2, 3]);
        assert!((t.outcome_probability(&[0, 1], &[1, 2]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn hadamard_then_measure_is_uniform() {
        let mut s = PureState::single(2, 0);
        s.apply_unitary(&[0], &gates::hadamard());
        let probs = s.outcome_distribution(&[0]);
        assert!((probs[0] - 0.5).abs() < 1e-12);
        assert!((probs[1] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn bell_state_correlations() {
        let mut s = PureState::computational_basis(&[2, 2], &[0, 0]);
        s.apply_unitary(&[0], &gates::hadamard());
        s.apply_unitary(&[0, 1], &gates::cnot());
        assert!((s.outcome_probability(&[0, 1], &[0, 1])).abs() < 1e-12);
        assert!((s.outcome_probability(&[0, 1], &[1, 0])).abs() < 1e-12);
        assert!((s.outcome_probability(&[0, 1], &[0, 0]) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn apply_unitary_on_second_subsystem() {
        let mut s = PureState::computational_basis(&[2, 2], &[0, 0]);
        s.apply_unitary(&[1], &gates::pauli_x());
        assert!((s.outcome_probability(&[0, 1], &[0, 1]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn unitary_preserves_norm() {
        let mut s = PureState::from_amplitudes(
            &[2, 2, 2],
            CVector::from_reals(&[0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8]),
        )
        .normalized();
        s.apply_unitary(&[1], &gates::hadamard());
        s.apply_unitary(&[0, 2], &gates::cnot());
        assert!((s.norm_sqr() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn permute_subsystems_swaps_outcomes() {
        let s = PureState::computational_basis(&[2, 3], &[1, 2]);
        let p = s.permute_subsystems(&[1, 0]);
        assert_eq!(p.dims(), &[3, 2]);
        assert!((p.outcome_probability(&[0, 1], &[2, 1]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn measurement_collapses_state() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut s = PureState::computational_basis(&[2, 2], &[0, 0]);
        s.apply_unitary(&[0], &gates::hadamard());
        s.apply_unitary(&[0, 1], &gates::cnot());
        let outcome = s.measure(&[0], &mut rng);
        // After measuring the first qubit of a Bell state, the second matches it.
        let p = s.outcome_probability(&[1], &[outcome[0]]);
        assert!((p - 1.0).abs() < 1e-10);
    }

    #[test]
    fn measurement_statistics_match_distribution() {
        let mut rng = StdRng::seed_from_u64(99);
        let mut counts = [0usize; 2];
        for _ in 0..2000 {
            let mut s = PureState::single(2, 0);
            s.apply_unitary(&[0], &gates::hadamard());
            let o = s.measure(&[0], &mut rng);
            counts[o[0]] += 1;
        }
        let frac = counts[0] as f64 / 2000.0;
        assert!((frac - 0.5).abs() < 0.06, "observed fraction {frac}");
    }

    #[test]
    fn regroup_preserves_amplitudes() {
        let s = PureState::computational_basis(&[2, 2, 2], &[1, 0, 1]);
        let r = s.regroup(&[4, 2]);
        assert_eq!(r.dims(), &[4, 2]);
        assert!((r.outcome_probability(&[0, 1], &[2, 1]) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "duplicate target")]
    fn duplicate_targets_panic() {
        let mut s = PureState::computational_basis(&[2, 2], &[0, 0]);
        s.apply_unitary(&[0, 0], &gates::cnot());
    }

    #[test]
    #[should_panic(expected = "operator dimension mismatch")]
    fn wrong_operator_dimension_panics() {
        let mut s = PureState::computational_basis(&[2, 2], &[0, 0]);
        s.apply_unitary(&[0], &gates::cnot());
    }

    #[test]
    fn collapse_on_partial_outcome() {
        let mut s = PureState::from_amplitudes(&[2, 2], CVector::from_reals(&[0.5, 0.5, 0.5, 0.5]));
        s.collapse(&[0], &[1]);
        assert!((s.norm_sqr() - 1.0).abs() < 1e-12);
        assert!((s.outcome_probability(&[0], &[1]) - 1.0).abs() < 1e-12);
        assert!((s.outcome_probability(&[1], &[0]) - 0.5).abs() < 1e-12);
    }
}
