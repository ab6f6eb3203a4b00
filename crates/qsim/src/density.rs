//! Density matrices over composite registers.
//!
//! Mixed states arise in the dQMA protocols whenever a node discards or
//! forwards part of a register (partial trace), whenever a prover sends a
//! probabilistic mixture, and in the soundness analysis where the reduced
//! states on neighbouring registers are compared in trace distance
//! (Lemmas 14, 16 and 17 of the paper).

use crate::complex::Complex;
use crate::kernels;
use crate::linalg::{eigh, CMatrix};
use crate::plan::{KernelPlan, PlanScratch};
use crate::state::{flat_index, total_dim, unflatten_index, PureState};
use rand::Rng;

/// Embeds an operator acting on the listed target subsystems into the full
/// Hilbert space described by `dims`.
///
/// `targets` lists subsystem indices in the order matching the operator's
/// tensor-factor ordering.
///
/// # Panics
///
/// Panics if targets repeat, are out of range, or the operator dimension does
/// not match the product of target dimensions.
pub fn embed_operator(dims: &[usize], targets: &[usize], op: &CMatrix) -> CMatrix {
    let target_dims: Vec<usize> = targets.iter().map(|&t| dims[t]).collect();
    let block = total_dim(&target_dims);
    assert!(
        op.rows() == block && op.cols() == block,
        "operator dimension mismatch: got {}x{}, expected {block}x{block}",
        op.rows(),
        op.cols()
    );
    for (i, &t) in targets.iter().enumerate() {
        assert!(t < dims.len(), "target {t} out of range");
        assert!(
            !targets[(i + 1)..].contains(&t),
            "duplicate target subsystem {t}"
        );
    }
    let full = total_dim(dims);
    let mut out = CMatrix::zeros(full, full);
    for row in 0..full {
        let row_multi = unflatten_index(dims, row);
        let row_block: Vec<usize> = targets.iter().map(|&t| row_multi[t]).collect();
        let rb = flat_index(&target_dims, &row_block);
        for cb in 0..block {
            let val = op.at(rb, cb);
            if val.norm_sqr() == 0.0 {
                continue;
            }
            let col_block = unflatten_index(&target_dims, cb);
            let mut col_multi = row_multi.clone();
            for (pos, &t) in targets.iter().enumerate() {
                col_multi[t] = col_block[pos];
            }
            let col = flat_index(dims, &col_multi);
            out.set(row, col, val);
        }
    }
    out
}

/// A density matrix on a composite register.
///
/// # Examples
///
/// ```
/// use qsim::{DensityMatrix, PureState, gates};
///
/// // Reduced state of a Bell pair is maximally mixed.
/// let mut bell = PureState::computational_basis(&[2, 2], &[0, 0]);
/// bell.apply_unitary(&[0], &gates::hadamard());
/// bell.apply_unitary(&[0, 1], &gates::cnot());
/// let rho = DensityMatrix::from_pure(&bell);
/// let reduced = rho.partial_trace_keep(&[0]);
/// assert!((reduced.purity() - 0.5).abs() < 1e-12);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct DensityMatrix {
    dims: Vec<usize>,
    mat: CMatrix,
}

impl DensityMatrix {
    /// Creates a density matrix from an explicit matrix and subsystem dimensions.
    ///
    /// # Panics
    ///
    /// Panics if the matrix shape does not match the product of dimensions.
    pub fn from_matrix(dims: &[usize], mat: CMatrix) -> Self {
        let d = total_dim(dims);
        assert!(
            mat.rows() == d && mat.cols() == d,
            "density matrix shape mismatch"
        );
        DensityMatrix {
            dims: dims.to_vec(),
            mat,
        }
    }

    /// Creates the density matrix `|ψ><ψ|` of a pure state.
    pub fn from_pure(state: &PureState) -> Self {
        let v = state.amplitudes();
        DensityMatrix {
            dims: state.dims().to_vec(),
            mat: CMatrix::outer(v, v),
        }
    }

    /// Creates the maximally mixed state on the given register.
    pub fn maximally_mixed(dims: &[usize]) -> Self {
        let d = total_dim(dims);
        DensityMatrix {
            dims: dims.to_vec(),
            mat: CMatrix::identity(d).scale(Complex::real(1.0 / d as f64)),
        }
    }

    /// Creates a probabilistic mixture of density matrices.
    ///
    /// Weights are renormalised to sum to 1.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty, if register shapes differ, or if weights are
    /// negative or all zero.
    pub fn mixture(parts: &[(f64, DensityMatrix)]) -> Self {
        assert!(!parts.is_empty(), "mixture of zero states");
        let dims = parts[0].1.dims.clone();
        let total_w: f64 = parts.iter().map(|(w, _)| *w).sum();
        assert!(
            parts.iter().all(|(w, _)| *w >= 0.0) && total_w > 0.0,
            "mixture weights must be non-negative and not all zero"
        );
        let d = total_dim(&dims);
        let mut mat = CMatrix::zeros(d, d);
        for (w, rho) in parts {
            assert_eq!(rho.dims, dims, "mixture of states on different registers");
            mat = &mat + &rho.mat.scale(Complex::real(*w / total_w));
        }
        DensityMatrix { dims, mat }
    }

    /// Subsystem dimensions.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Total Hilbert-space dimension.
    pub fn dim(&self) -> usize {
        self.mat.rows()
    }

    /// The underlying matrix.
    pub fn matrix(&self) -> &CMatrix {
        &self.mat
    }

    /// Trace of the matrix (1 for a normalised state).
    pub fn trace(&self) -> f64 {
        self.mat.trace().re
    }

    /// Purity `tr(ρ²)`.
    pub fn purity(&self) -> f64 {
        self.mat.matmul(&self.mat).trace().re
    }

    /// Tensor product with another density matrix, concatenating registers.
    pub fn tensor(&self, other: &DensityMatrix) -> DensityMatrix {
        let mut dims = self.dims.clone();
        dims.extend_from_slice(&other.dims);
        DensityMatrix {
            dims,
            mat: self.mat.kron(&other.mat),
        }
    }

    /// Tensor product written into an existing buffer: `out ← self ⊗ other`,
    /// reusing `out`'s allocation. This is the per-trial frontier assembly of
    /// the batched mixed-proof samplers, which would otherwise allocate a
    /// fresh `D² × D²` matrix every round.
    ///
    /// # Panics
    ///
    /// Panics if `out`'s total dimension differs from the product of the
    /// operands' dimensions.
    pub fn tensor_into(&self, other: &DensityMatrix, out: &mut DensityMatrix) {
        let (d1, d2) = (self.dim(), other.dim());
        assert_eq!(out.dim(), d1 * d2, "tensor_into output dimension mismatch");
        out.dims.clear();
        out.dims.extend_from_slice(&self.dims);
        out.dims.extend_from_slice(&other.dims);
        let a = self.mat.split();
        let b = other.mat.split();
        let o = out.mat.split_mut();
        // One fused-kernel call for the whole product: the per-(i1, j1, i2)
        // row blends are only `d2` long, so the dispatch must sit outside
        // the loop nest.
        crate::simd::kron_planes(a.re, a.im, b.re, b.im, o.re, o.im, d1, d2);
    }

    /// Tensor product of many density matrices.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty.
    pub fn tensor_all(parts: &[DensityMatrix]) -> DensityMatrix {
        assert!(!parts.is_empty(), "tensor_all requires at least one state");
        let mut out = parts[0].clone();
        for p in &parts[1..] {
            out = out.tensor(p);
        }
        out
    }

    /// Views the same matrix with a different subsystem split.
    ///
    /// # Panics
    ///
    /// Panics if the product of `new_dims` differs from the total dimension.
    pub fn regroup(&self, new_dims: &[usize]) -> DensityMatrix {
        assert_eq!(
            total_dim(new_dims),
            self.dim(),
            "regroup must preserve dimension"
        );
        DensityMatrix {
            dims: new_dims.to_vec(),
            mat: self.mat.clone(),
        }
    }

    /// Partial trace keeping only the listed subsystems (in the listed order).
    ///
    /// # Panics
    ///
    /// Panics if `keep` contains repeated or out-of-range subsystems.
    pub fn partial_trace_keep(&self, keep: &[usize]) -> DensityMatrix {
        let keep_dims: Vec<usize> = keep
            .iter()
            .map(|&k| {
                assert!(k < self.dims.len(), "subsystem {k} out of range");
                self.dims[k]
            })
            .collect();
        let kd = total_dim(&keep_dims);
        let mut out = DensityMatrix {
            dims: keep_dims,
            mat: CMatrix::zeros(kd, kd),
        };
        self.partial_trace_keep_into(keep, &mut out);
        out
    }

    /// Partial trace written into an existing buffer: `out ← tr_others(ρ)`,
    /// keeping the listed subsystems in the listed order and reusing `out`'s
    /// allocation. Stride-based (`O(kd² · od)` with no per-element
    /// multi-index allocation) — the per-trial frontier contraction of the
    /// batched mixed-proof samplers.
    ///
    /// # Panics
    ///
    /// Panics if `keep` contains repeated or out-of-range subsystems, or if
    /// `out`'s total dimension differs from the product of the kept
    /// dimensions.
    pub fn partial_trace_keep_into(&self, keep: &[usize], out: &mut DensityMatrix) {
        // `for_layout` validates distinctness/range with the standard
        // messages (compile-then-execute shim over the plan executor).
        let plan = KernelPlan::for_layout(&self.dims, keep);
        self.partial_trace_keep_with(&plan, out);
    }

    /// Plan executor of [`DensityMatrix::partial_trace_keep_into`]: the kept
    /// subsystems and all stride metadata come from a layout plan compiled
    /// once (any plan kind over this register and the kept targets works).
    ///
    /// # Panics
    ///
    /// Panics if the plan was compiled for a different register shape or if
    /// `out`'s total dimension differs from the product of the kept
    /// dimensions.
    pub fn partial_trace_keep_with(&self, plan: &KernelPlan, out: &mut DensityMatrix) {
        assert_eq!(
            plan.dims(),
            self.dims.as_slice(),
            "plan register shape mismatch"
        );
        let lay = plan.lay();
        let keep = plan.targets();
        let kd = lay.block;
        assert_eq!(
            out.dim(),
            kd,
            "partial_trace_keep_into output dimension mismatch"
        );
        out.dims.clear();
        out.dims.extend(keep.iter().map(|&k| self.dims[k]));
        let d = self.dim();
        let (mre, mim) = (self.mat.re(), self.mat.im());
        let o = out.mat.split_mut();
        o.re.fill(0.0);
        o.im.fill(0.0);
        let offsets = &lay.offsets;
        lay.for_each_base(|base| {
            for (kr, &offr) in offsets.iter().enumerate() {
                let row = (offr + base) * d + base;
                let orow = kr * kd;
                for (kc, &offc) in offsets.iter().enumerate() {
                    let idx = row + offc;
                    o.re[orow + kc] += mre[idx];
                    o.im[orow + kc] += mim[idx];
                }
            }
        });
    }

    /// Partial trace discarding the listed subsystems; the kept subsystems stay
    /// in their original order.
    pub fn partial_trace_out(&self, discard: &[usize]) -> DensityMatrix {
        let keep: Vec<usize> = (0..self.dims.len())
            .filter(|i| !discard.contains(i))
            .collect();
        self.partial_trace_keep(&keep)
    }

    /// Applies a unitary to the listed target subsystems: `ρ → U ρ U†`.
    ///
    /// Runs as a direct strided conjugation through [`crate::kernels`]
    /// (`O(D² · block)`): the full-dimension embedded operator is never
    /// materialised and no dense `O(D³)` matmul is paid.
    pub fn apply_unitary(&mut self, targets: &[usize], u: &CMatrix) {
        kernels::conjugate_matrix(&mut self.mat, &self.dims, targets, u);
    }

    /// Applies an arbitrary local operator `A` (not necessarily unitary) to
    /// the listed target subsystems: `ρ → A ρ A†`, without renormalising.
    ///
    /// This is the update step of a measurement effect; callers implementing
    /// selective measurements divide by the outcome probability afterwards
    /// (see [`DensityMatrix::rescale`]).
    pub fn apply_local_operator(&mut self, targets: &[usize], a: &CMatrix) {
        kernels::conjugate_matrix(&mut self.mat, &self.dims, targets, a);
    }

    /// Plan executor of [`DensityMatrix::apply_local_operator`] /
    /// [`DensityMatrix::apply_unitary`]: conjugates by the operator compiled
    /// into a [`KernelPlan::for_conjugation`] plan — zero per-call metadata
    /// derivation or allocation.
    ///
    /// # Panics
    ///
    /// Panics if the plan was compiled for a different register shape or
    /// carries no adjoint classification.
    pub fn apply_operator_with(&mut self, plan: &KernelPlan, scratch: &mut PlanScratch) {
        assert_eq!(
            plan.dims(),
            self.dims.as_slice(),
            "plan register shape mismatch"
        );
        kernels::conjugate_matrix_with(&mut self.mat, plan, scratch);
    }

    /// Conjugates by the embedded class-averaging projector `P` of a class
    /// plan ([`KernelPlan::for_classes`] / [`KernelPlan::for_symmetric`] /
    /// [`crate::plan::cached_symmetric`]), in place and without
    /// renormalising: `ρ → P ρ P` (or `(I−P) ρ (I−P)` with `complement`).
    ///
    /// With the `S_k` digit-orbit classes of
    /// [`crate::permutation::symmetric_classes`] this is the post-measurement
    /// effect of the SWAP/permutation test, executed as an in-place register
    /// symmetrisation over the [`crate::kernels`] stride machinery — `O(D²)`,
    /// no block factor, no projector allocation.
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
        kernels::project_classes_rows_with(&mut self.mat, plan, complement, scratch);
        kernels::project_classes_cols_with(&mut self.mat, plan, complement, scratch);
    }

    /// Multiplies the matrix by a real scalar in place (e.g. `1/p` after a
    /// selective measurement update).
    pub fn rescale(&mut self, factor: f64) {
        self.mat.scale_real_in_place(factor);
    }

    /// Applies the two-register symmetrisation channel
    /// `ρ → ½ρ + ½ SρS†` (the nodes' swap-with-probability-½ step, the
    /// paper's simplification of FGNP21) to registers `r1` and `r2`,
    /// reusing `tmp` as the conjugation scratch — fully allocation-free.
    ///
    /// `swap` must be the `d² × d²` SWAP operator of the registers'
    /// dimension (e.g. [`crate::gates::swap`] or the memoised
    /// [`crate::naive::cached_swap`]); callers in batch loops resolve it
    /// once instead of paying a memo lookup per call. SWAP is monomial, so
    /// the conjugation runs through the `O(D²)` scatter fast path.
    ///
    /// # Panics
    ///
    /// Panics if the registers have different dimensions, or if `swap` or
    /// `tmp` have the wrong shape.
    pub fn symmetrize_pair_with(
        &mut self,
        r1: usize,
        r2: usize,
        swap: &CMatrix,
        tmp: &mut CMatrix,
    ) {
        let d = self.dims[r1];
        assert_eq!(
            d, self.dims[r2],
            "symmetrisation registers must have equal dimension"
        );
        assert_eq!(swap.rows(), d * d, "SWAP operator dimension mismatch");
        tmp.copy_from(&self.mat);
        kernels::conjugate_matrix(tmp, &self.dims, &[r1, r2], swap);
        self.mat.mix_in_place(0.5, 0.5, tmp);
    }

    /// Plan executor of [`DensityMatrix::symmetrize_pair_with`]: the SWAP
    /// conjugation runs through a [`KernelPlan::for_conjugation`] plan
    /// compiled once for the register pair (the batched mixed-proof
    /// samplers' per-node symmetrisation — no per-call layout or
    /// classification work).
    ///
    /// # Panics
    ///
    /// Panics if the plan was compiled for a different register shape or if
    /// `tmp` has the wrong shape.
    pub fn symmetrize_pair_planned(
        &mut self,
        plan: &KernelPlan,
        tmp: &mut CMatrix,
        scratch: &mut PlanScratch,
    ) {
        assert_eq!(
            plan.dims(),
            self.dims.as_slice(),
            "plan register shape mismatch"
        );
        // SWAP is monomial, so the whole channel runs as one fused
        // gather-and-blend pass (no copy, no two-pass multiply).
        kernels::symmetrize_with(&mut self.mat, plan, tmp, scratch);
    }

    /// Fused accept-branch effect of the SWAP/permutation test over a class
    /// plan: `ρ → scale · P ρ P` in one pass
    /// ([`kernels::project_classes_conjugate_with`]), with the
    /// post-measurement renormalisation `scale = 1/p` folded into the class
    /// averaging.
    ///
    /// # Panics
    ///
    /// Panics if the plan was compiled for a different register shape or
    /// carries no class tables.
    pub fn apply_class_projector_scaled(
        &mut self,
        plan: &KernelPlan,
        scale: f64,
        scratch: &mut PlanScratch,
    ) {
        assert_eq!(
            plan.dims(),
            self.dims.as_slice(),
            "plan register shape mismatch"
        );
        kernels::project_classes_conjugate_with(&mut self.mat, plan, scale, scratch);
    }

    /// Fused accept effect **and** trace-down of the SWAP/permutation test
    /// over a class plan: `out ← scale · tr_T(P ρ P)` in one pass
    /// ([`kernels::project_classes_trace_complement_with`]), where `T` is
    /// the plan's target set and `out` receives the state of the remaining
    /// registers — the post-measurement frontier contraction of the batched
    /// mixed-proof samplers, without materialising the projected matrix.
    ///
    /// # Panics
    ///
    /// Panics if the plan was compiled for a different register shape, if
    /// `out` has the wrong dimension, or if the plan carries no class
    /// tables.
    pub fn apply_class_projector_traced(
        &self,
        plan: &KernelPlan,
        scale: f64,
        out: &mut DensityMatrix,
    ) {
        assert_eq!(
            plan.dims(),
            self.dims.as_slice(),
            "plan register shape mismatch"
        );
        kernels::project_classes_trace_complement_with(&self.mat, plan, scale, &mut out.mat);
        out.dims.clear();
        out.dims.extend(
            self.dims
                .iter()
                .enumerate()
                .filter(|(i, _)| !plan.targets().contains(i))
                .map(|(_, &d)| d),
        );
    }

    /// Applies a quantum channel given by Kraus operators acting on the listed
    /// target subsystems: `ρ → Σ_k K_k ρ K_k†`.
    ///
    /// Compile-then-execute shim over [`kernels::apply_kraus_with`] (one
    /// plan, two full-dimension temporaries — the pre-plan path allocated a
    /// fresh matrix per Kraus operator).
    pub fn apply_kraus(&mut self, targets: &[usize], kraus: &[CMatrix]) {
        let plan = KernelPlan::for_kraus(&self.dims, targets, kraus);
        let d = self.dim();
        let mut term = CMatrix::zeros(d, d);
        let mut acc = CMatrix::zeros(d, d);
        kernels::apply_kraus_with(
            &mut self.mat,
            &plan,
            &mut PlanScratch::default(),
            &mut term,
            &mut acc,
        );
    }

    /// Expectation value `tr(op · ρ)` of an operator on the full register.
    ///
    /// Computed as `Σ_{i,j} op[i,j] · ρ[j,i]` — `O(D²)`, no matrix product.
    ///
    /// # Panics
    ///
    /// Panics if the operator dimension mismatches.
    pub fn expectation(&self, op: &CMatrix) -> Complex {
        let d = self.dim();
        assert_eq!(op.rows(), d, "expectation operator dimension mismatch");
        assert_eq!(op.cols(), d, "expectation operator dimension mismatch");
        // Paired-plane accumulation: tr(op·ρ) = Σ_{i,j} op[i,j]·ρ[j,i].
        let (ore, oim) = (op.re(), op.im());
        let (mre, mim) = (self.mat.re(), self.mat.im());
        let mut acc_re = 0.0;
        let mut acc_im = 0.0;
        for i in 0..d {
            for j in 0..d {
                let (opr, opi) = (ore[i * d + j], oim[i * d + j]);
                let (rr, ri) = (mre[j * d + i], mim[j * d + i]);
                acc_re += opr * rr - opi * ri;
                acc_im += opr * ri + opi * rr;
            }
        }
        Complex::new(acc_re, acc_im)
    }

    /// Expectation value of an operator acting on a subset of subsystems.
    ///
    /// The embedded operator `embed(op)` is block-local, so only
    /// `O(D · block)` entries of `tr(embed(op) · ρ)` are nonzero; they are
    /// summed directly through the strided layout — no embedded operator is
    /// materialised and no matrix product is paid.
    pub fn expectation_on(&self, targets: &[usize], op: &CMatrix) -> Complex {
        let lay = kernels::layout(&self.dims, targets);
        assert!(
            op.rows() == lay.block && op.cols() == lay.block,
            "operator dimension mismatch: got {}x{}, expected {block}x{block}",
            op.rows(),
            op.cols(),
            block = lay.block
        );
        // tr(embed(op)·ρ) = Σ_base Σ_{r,c} op[r,c] · ρ[base+off_c, base+off_r]
        let d = self.dim();
        let (ore, oim) = (op.re(), op.im());
        let (mre, mim) = (self.mat.re(), self.mat.im());
        let block = lay.block;
        let mut acc_re = 0.0;
        let mut acc_im = 0.0;
        lay.for_each_base(|base| {
            for (r, &off_r) in lay.offsets.iter().enumerate() {
                for (c, &off_c) in lay.offsets.iter().enumerate() {
                    let (opr, opi) = (ore[r * block + c], oim[r * block + c]);
                    if opr == 0.0 && opi == 0.0 {
                        continue;
                    }
                    let idx = (base + off_c) * d + (base + off_r);
                    acc_re += opr * mre[idx] - opi * mim[idx];
                    acc_im += opr * mim[idx] + opi * mre[idx];
                }
            }
        });
        Complex::new(acc_re, acc_im)
    }

    /// Probability of the computational-basis outcome on the listed subsystems.
    pub fn outcome_probability(&self, targets: &[usize], outcome: &[usize]) -> f64 {
        match kernels::outcome_offset(&self.dims, targets, outcome) {
            None => 0.0,
            Some((lay, offset)) => {
                let mut p = 0.0;
                lay.for_each_base(|base| {
                    let i = base + offset;
                    p += self.mat.at(i, i).re;
                });
                p
            }
        }
    }

    /// Outcome distribution over the listed subsystems, indexed by the flat
    /// target outcome.
    pub fn outcome_distribution(&self, targets: &[usize]) -> Vec<f64> {
        let target_dims: Vec<usize> = targets.iter().map(|&t| self.dims[t]).collect();
        let mut probs = vec![0.0; total_dim(&target_dims)];
        if kernels::targets_distinct(targets) {
            let lay = kernels::layout(&self.dims, targets);
            for (tb, &off) in lay.offsets.iter().enumerate() {
                let mut acc = 0.0;
                lay.for_each_base(|base| {
                    let i = base + off;
                    acc += self.mat.at(i, i).re;
                });
                probs[tb] = acc;
            }
        } else {
            // Repeated targets: keep the original scan semantics.
            for flat in 0..self.dim() {
                let multi = unflatten_index(&self.dims, flat);
                let outcome: Vec<usize> = targets.iter().map(|&t| multi[t]).collect();
                probs[flat_index(&target_dims, &outcome)] += self.mat.at(flat, flat).re;
            }
        }
        probs
    }

    /// Measures the listed subsystems in the computational basis, sampling with
    /// `rng`, collapsing and renormalising. Returns the per-target outcomes.
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

    /// Projects onto a computational-basis outcome of the target subsystems and
    /// renormalises.
    ///
    /// # Panics
    ///
    /// Panics if the outcome has (numerically) zero probability.
    pub fn collapse(&mut self, targets: &[usize], outcome: &[usize]) {
        let (lay, offset) = match kernels::outcome_offset(&self.dims, targets, outcome) {
            Some(found) => found,
            None => panic!("cannot collapse onto a zero-probability outcome"),
        };
        let mut kept = Vec::with_capacity(lay.other_total);
        lay.for_each_base(|base| kept.push(base + offset));
        let p: f64 = kept.iter().map(|&i| self.mat.at(i, i).re).sum();
        assert!(
            p > 1e-300,
            "cannot collapse onto a zero-probability outcome"
        );
        let d = self.dim();
        let mut out = CMatrix::zeros(d, d);
        for &r in &kept {
            for &c in &kept {
                out.set(r, c, self.mat.at(r, c) / p);
            }
        }
        self.mat = out;
    }

    /// Returns `true` when the matrix is a valid quantum state: Hermitian,
    /// positive semidefinite (up to `tol`), with unit trace (up to `tol`).
    pub fn is_valid(&self, tol: f64) -> bool {
        if !self.mat.is_hermitian(tol) {
            return false;
        }
        if (self.trace() - 1.0).abs() > tol {
            return false;
        }
        let eig = eigh(&self.mat);
        eig.eigenvalues.iter().all(|&l| l > -tol)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gates;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn bell_pair() -> PureState {
        let mut s = PureState::computational_basis(&[2, 2], &[0, 0]);
        s.apply_unitary(&[0], &gates::hadamard());
        s.apply_unitary(&[0, 1], &gates::cnot());
        s
    }

    #[test]
    fn pure_state_density_has_unit_purity() {
        let rho = DensityMatrix::from_pure(&bell_pair());
        assert!((rho.trace() - 1.0).abs() < 1e-12);
        assert!((rho.purity() - 1.0).abs() < 1e-12);
        assert!(rho.is_valid(1e-9));
    }

    #[test]
    fn reduced_bell_state_is_maximally_mixed() {
        let rho = DensityMatrix::from_pure(&bell_pair());
        let r0 = rho.partial_trace_keep(&[0]);
        let r1 = rho.partial_trace_keep(&[1]);
        let mixed = DensityMatrix::maximally_mixed(&[2]);
        assert!(r0.matrix().approx_eq(mixed.matrix(), 1e-12));
        assert!(r1.matrix().approx_eq(mixed.matrix(), 1e-12));
    }

    #[test]
    fn partial_trace_of_product_state_recovers_factors() {
        let a = PureState::single(2, 1);
        let b = PureState::uniform(3);
        let rho = DensityMatrix::from_pure(&a.tensor(&b));
        let ra = rho.partial_trace_keep(&[0]);
        let rb = rho.partial_trace_keep(&[1]);
        assert!(ra
            .matrix()
            .approx_eq(DensityMatrix::from_pure(&a).matrix(), 1e-12));
        assert!(rb
            .matrix()
            .approx_eq(DensityMatrix::from_pure(&b).matrix(), 1e-12));
    }

    #[test]
    fn partial_trace_preserves_trace() {
        let rho = DensityMatrix::from_pure(&bell_pair());
        let reduced = rho.partial_trace_out(&[1]);
        assert!((reduced.trace() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mixture_weights_normalise() {
        let zero = DensityMatrix::from_pure(&PureState::single(2, 0));
        let one = DensityMatrix::from_pure(&PureState::single(2, 1));
        let m = DensityMatrix::mixture(&[(2.0, zero), (2.0, one)]);
        assert!(m
            .matrix()
            .approx_eq(DensityMatrix::maximally_mixed(&[2]).matrix(), 1e-12));
        assert!((m.purity() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn unitary_preserves_validity() {
        let mut rho = DensityMatrix::maximally_mixed(&[2, 2]);
        rho.apply_unitary(&[0], &gates::hadamard());
        rho.apply_unitary(&[0, 1], &gates::cnot());
        assert!(rho.is_valid(1e-9));
        // Maximally mixed state is invariant under unitaries.
        assert!(rho
            .matrix()
            .approx_eq(DensityMatrix::maximally_mixed(&[2, 2]).matrix(), 1e-12));
    }

    #[test]
    fn expectation_of_projector_matches_outcome_probability() {
        let mut s = PureState::single(2, 0);
        s.apply_unitary(&[0], &gates::hadamard());
        let rho = DensityMatrix::from_pure(&s);
        let p0 = CMatrix::projector(&crate::linalg::CVector::basis(2, 0));
        let e = rho.expectation_on(&[0], &p0);
        assert!((e.re - rho.outcome_probability(&[0], &[0])).abs() < 1e-12);
        assert!((e.re - 0.5).abs() < 1e-12);
    }

    #[test]
    fn collapse_renormalises() {
        let mut rho = DensityMatrix::from_pure(&bell_pair());
        rho.collapse(&[0], &[1]);
        assert!((rho.trace() - 1.0).abs() < 1e-12);
        assert!((rho.outcome_probability(&[1], &[1]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn measurement_statistics_on_density_matrix() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut count = 0;
        for _ in 0..1000 {
            let mut rho = DensityMatrix::maximally_mixed(&[2]);
            let o = rho.measure(&[0], &mut rng);
            count += o[0];
        }
        let frac = count as f64 / 1000.0;
        assert!((frac - 0.5).abs() < 0.08, "observed fraction {frac}");
    }

    #[test]
    fn embed_operator_matches_kron_for_contiguous_targets() {
        let dims = [2, 2, 2];
        let op = gates::cnot();
        let embedded = embed_operator(&dims, &[0, 1], &op);
        let expected = op.kron(&CMatrix::identity(2));
        assert!(embedded.approx_eq(&expected, 1e-12));
        let embedded_tail = embed_operator(&dims, &[1, 2], &op);
        let expected_tail = CMatrix::identity(2).kron(&op);
        assert!(embedded_tail.approx_eq(&expected_tail, 1e-12));
    }

    #[test]
    fn embed_operator_on_out_of_order_targets() {
        // CNOT with control = subsystem 1, target = subsystem 0.
        let dims = [2, 2];
        let embedded = embed_operator(&dims, &[1, 0], &gates::cnot());
        let mut s = PureState::computational_basis(&dims, &[0, 1]);
        s.apply_unitary(&[0, 1], &embedded);
        assert!(s.approx_eq(&PureState::computational_basis(&dims, &[1, 1]), 1e-12));
    }

    #[test]
    fn apply_kraus_dephasing_kills_coherences() {
        let mut s = PureState::single(2, 0);
        s.apply_unitary(&[0], &gates::hadamard());
        let mut rho = DensityMatrix::from_pure(&s);
        let p0 = CMatrix::projector(&crate::linalg::CVector::basis(2, 0));
        let p1 = CMatrix::projector(&crate::linalg::CVector::basis(2, 1));
        rho.apply_kraus(&[0], &[p0, p1]);
        assert!(rho
            .matrix()
            .approx_eq(DensityMatrix::maximally_mixed(&[2]).matrix(), 1e-12));
    }

    #[test]
    fn regroup_density() {
        let rho = DensityMatrix::maximally_mixed(&[2, 3]);
        let r = rho.regroup(&[6]);
        assert_eq!(r.dims(), &[6]);
        assert!((r.trace() - 1.0).abs() < 1e-12);
    }
}
