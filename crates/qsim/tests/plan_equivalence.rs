//! Equivalence suite for the compiled kernel-plan layer (PR 5).
//!
//! Pins, at 1e-12 over `d ∈ {2,3,5}`, `k ∈ {2,3,4}` and non-contiguous
//! reversed targets:
//!
//! * **cached plan ≡ freshly-compiled plan ≡ shim ≡ `qsim::naive` oracle**
//!   for the operator kernels (dense / diagonal / monomial / block-2, in
//!   mixed sequences), the class-projection kernels (trace, weight, vector
//!   and row/col effects) and the layout kernels (partial trace, subsystem
//!   permutation);
//! * **cache keying**: distinct `(dims, targets)` never alias the same
//!   cached plan, identical keys always do.

use qsim::linalg::CVector;
use qsim::permutation::{permutation_operator, symmetric_projector};
use qsim::plan::{cached_symmetric, KernelPlan, PlanScratch};
use qsim::{
    embed_operator, naive, CMatrix, Complex, DensityMatrix, PureState, RandomStateGenerator,
};
use std::sync::Arc;

const TOL: f64 = 1e-12;

/// The register shape the measurement-equivalence suite pins: `k` test
/// registers of dimension `d` plus a dimension-2 spectator wedged at
/// position 1, targets non-contiguous and reversed.
fn shape(d: usize, k: usize) -> (Vec<usize>, Vec<usize>) {
    let mut dims = vec![d; k];
    dims.insert(1, 2);
    let mut targets: Vec<usize> = (0..=k).filter(|&i| i != 1).collect();
    targets.reverse();
    (dims, targets)
}

fn assert_pure_close(a: &PureState, b: &PureState, what: &str) {
    assert!(a.approx_eq(b, TOL), "{what}: states diverge");
}

#[test]
fn operator_plans_match_shims_and_naive_on_mixed_sequences() {
    let mut gen = RandomStateGenerator::new(71);
    for &(d, k) in &[(2usize, 2usize), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2)] {
        let (dims, targets) = shape(d, k);
        let block: usize = targets.iter().map(|&t| dims[t]).product();

        // A mixed operator sequence: dense on the k targets, diagonal on the
        // same targets, a monomial (register cycle) on the targets, and a
        // dense 2×2 on the spectator (the block-2 fast path).
        let dense = gen.random_unitary(block);
        let diag = CMatrix::from_fn(block, block, |i, j| {
            if i == j {
                Complex::from_polar(1.0, 0.37 * (1.0 + i as f64))
            } else {
                Complex::ZERO
            }
        });
        let cycle: Vec<usize> = (0..k).map(|i| (i + 1) % k).collect();
        let monomial = permutation_operator(d, &cycle);
        let spectator = gen.random_unitary(2);
        let ops: Vec<(&CMatrix, Vec<usize>)> = vec![
            (&dense, targets.clone()),
            (&diag, targets.clone()),
            (&monomial, targets.clone()),
            (&spectator, vec![1]),
        ];

        let start = gen.random_pure(&dims);
        let mut via_shim = start.clone();
        let mut via_plan = start.clone();
        let mut via_naive = start.clone();
        let mut scratch = PlanScratch::default();
        for (op, tg) in &ops {
            via_shim.apply_unitary(tg, op);
            let plan = KernelPlan::for_operator(&dims, tg, op);
            via_plan.apply_unitary_with(&plan, &mut scratch);
            via_naive = naive::apply_unitary_pure(&via_naive, tg, op);
            assert_pure_close(&via_plan, &via_shim, "plan vs shim (vector)");
            assert_pure_close(&via_plan, &via_naive, "plan vs naive (vector)");
        }

        // Density conjugation: plan executor vs shim vs naive, same sequence.
        let rho0 = gen.random_density(&dims, 2);
        let mut rho_shim = rho0.clone();
        let mut rho_plan = rho0.clone();
        let mut rho_naive = rho0.clone();
        for (op, tg) in &ops {
            rho_shim.apply_unitary(tg, op);
            let plan = KernelPlan::for_conjugation(&dims, tg, op);
            rho_plan.apply_operator_with(&plan, &mut scratch);
            rho_naive = naive::apply_unitary_density(&rho_naive, tg, op);
            assert!(
                rho_plan.matrix().approx_eq(rho_shim.matrix(), TOL),
                "d={d} k={k}: conjugation plan vs shim"
            );
            assert!(
                rho_plan.matrix().approx_eq(rho_naive.matrix(), TOL),
                "d={d} k={k}: conjugation plan vs naive"
            );
        }
    }
}

#[test]
fn kraus_plan_matches_dense_embedding_oracle() {
    let mut gen = RandomStateGenerator::new(72);
    for &(d, k) in &[(2usize, 2usize), (3, 2)] {
        let (dims, targets) = shape(d, k);
        let block: usize = targets.iter().map(|&t| dims[t]).product();
        // A random channel: two non-unitary Kraus operators scaled so the
        // channel is trace-non-increasing (exact CPTP not needed to pin the
        // arithmetic).
        let k1 = gen.random_unitary(block).scale(Complex::real(0.6));
        let k2 = gen.random_unitary(block).scale(Complex::real(0.8));
        let kraus = [k1, k2];
        let rho = gen.random_density(&dims, 2);

        let mut fast = rho.clone();
        fast.apply_kraus(&targets, &kraus);

        let mut dense = CMatrix::zeros(rho.dim(), rho.dim());
        for op in &kraus {
            let full = embed_operator(&dims, &targets, op);
            let term = full.matmul(rho.matrix()).matmul(&full.adjoint());
            dense = &dense + &term;
        }
        assert!(
            fast.matrix().approx_eq(&dense, 1e-11),
            "d={d} k={k}: Kraus plan vs dense embedding"
        );
    }
}

#[test]
fn class_plans_cached_fresh_and_naive_agree() {
    let mut gen = RandomStateGenerator::new(73);
    for &(d, k) in &[(2usize, 2usize), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2)] {
        let (dims, targets) = shape(d, k);
        let cached = cached_symmetric(&dims, &targets);
        let fresh = KernelPlan::for_symmetric(&dims, &targets);
        let mut scratch = PlanScratch::default();

        // Acceptance trace: cached ≡ fresh ≡ naive dense-projector oracle.
        let rho = gen.random_density(&dims, 2);
        let via_cached = qsim::kernels::class_projection_trace_with(rho.matrix(), &cached).re;
        let via_fresh = qsim::kernels::class_projection_trace_with(rho.matrix(), &fresh).re;
        let via_naive = naive::permutation_test_acceptance_on(&rho, &targets);
        assert!(
            (via_cached - via_fresh).abs() < TOL,
            "d={d} k={k}: cached vs fresh trace"
        );
        assert!(
            (via_cached - via_naive).abs() < TOL,
            "d={d} k={k}: cached trace {via_cached} vs naive {via_naive}"
        );

        // Accept effect Π ρ Π: plan executors vs the naive dense conjugation.
        let mut eff_plan = rho.clone();
        eff_plan.apply_class_projector_with(&cached, false, &mut scratch);
        let mut eff_naive = rho.clone();
        naive::apply_symmetric_effect(&mut eff_naive, &targets, true);
        assert!(
            eff_plan.matrix().approx_eq(eff_naive.matrix(), TOL),
            "d={d} k={k}: accept effect plan vs naive"
        );

        // Reject effect (I−Π) ρ (I−Π).
        let mut rej_plan = rho.clone();
        rej_plan.apply_class_projector_with(&cached, true, &mut scratch);
        let mut rej_naive = rho.clone();
        naive::apply_symmetric_effect(&mut rej_naive, &targets, false);
        assert!(
            rej_plan.matrix().approx_eq(rej_naive.matrix(), TOL),
            "d={d} k={k}: reject effect plan vs naive"
        );

        // Pure-state weight and vector projection against the explicit
        // embedded projector.
        let psi = gen.random_pure(&dims);
        let proj = embed_operator(&dims, &targets, &symmetric_projector(d, k));
        let projected = proj.apply(psi.amplitudes());
        let weight = qsim::kernels::class_projection_weight_with(
            psi.amplitudes().split(),
            &cached,
            &mut scratch,
        );
        assert!(
            (weight - projected.norm_sqr()).abs() < TOL,
            "d={d} k={k}: weight {weight} vs dense {}",
            projected.norm_sqr()
        );
        let mut vec_plan = psi.clone();
        vec_plan.apply_class_projector_with(&cached, false, &mut scratch);
        let dense_state = PureState::from_amplitudes(&dims, projected);
        assert_pure_close(&vec_plan, &dense_state, "vector projection plan vs dense");
    }
}

#[test]
fn layout_plans_partial_trace_and_permutation_match() {
    let mut gen = RandomStateGenerator::new(74);
    let dims = [2usize, 3, 2, 2];
    let rho = gen.random_density(&dims, 3);
    for keep in [vec![0usize], vec![2, 0], vec![3, 1], vec![1, 2, 3]] {
        let plan = KernelPlan::for_layout(&dims, &keep);
        let keep_dims: Vec<usize> = keep.iter().map(|&k| dims[k]).collect();
        let kd: usize = keep_dims.iter().product();
        let mut out = DensityMatrix::from_matrix(&keep_dims, CMatrix::zeros(kd, kd));
        rho.partial_trace_keep_with(&plan, &mut out);
        let oracle = rho.partial_trace_keep(&keep);
        assert!(
            out.matrix().approx_eq(oracle.matrix(), TOL),
            "partial trace plan vs direct, keep {keep:?}"
        );
        assert_eq!(out.dims(), oracle.dims());
    }

    let psi = gen.random_pure(&dims);
    for perm in [vec![3usize, 1, 0, 2], vec![1, 0, 2, 3], vec![0, 1, 2, 3]] {
        let plan = KernelPlan::for_subsystem_permutation(&dims, &perm);
        let via_plan = psi.permute_subsystems_with(&plan);
        let via_shim = psi.permute_subsystems(&perm);
        assert_pure_close(&via_plan, &via_shim, "permutation plan vs shim");
        // Index oracle: amplitude of the permuted multi-index must move.
        let new_dims: Vec<usize> = perm.iter().map(|&p| dims[p]).collect();
        for flat in 0..psi.dim() {
            let multi = qsim::state::unflatten_index(&dims, flat);
            let permuted: Vec<usize> = perm.iter().map(|&p| multi[p]).collect();
            let nf = qsim::state::flat_index(&new_dims, &permuted);
            assert!(
                (via_plan.amplitudes().at(nf) - psi.amplitudes().at(flat)).norm_sqr() < TOL,
                "perm {perm:?} flat {flat}"
            );
        }
    }
}

#[test]
fn monomial_trace_plan_matches_dense_trace() {
    let mut gen = RandomStateGenerator::new(75);
    let (dims, targets) = shape(3, 2);
    let rho = gen.random_density(&dims, 2);
    let swap_perm = [1usize, 0];
    let u = permutation_operator(3, &swap_perm);
    let src = qsim::plan::permutation_src(3, &swap_perm);
    let phase = vec![Complex::ONE; src.len()];
    let plan = KernelPlan::for_monomial_trace(&dims, &targets, &src, &phase);
    let fast = qsim::kernels::monomial_embedded_trace_with(rho.matrix(), &plan);
    let dense = embed_operator(&dims, &targets, &u)
        .matmul(rho.matrix())
        .trace();
    assert!(
        (fast - dense).norm_sqr() < TOL,
        "monomial trace {fast:?} vs dense {dense:?}"
    );
}

#[test]
fn cache_keying_distinct_dims_or_targets_never_alias() {
    // Identical keys share one plan.
    let a = cached_symmetric(&[2, 2, 2, 2], &[0, 1]);
    let b = cached_symmetric(&[2, 2, 2, 2], &[0, 1]);
    assert!(Arc::ptr_eq(&a, &b), "identical keys must share the plan");

    // Same dims, different targets: distinct plans with distinct behaviour.
    let c = cached_symmetric(&[2, 2, 2, 2], &[2, 3]);
    assert!(!Arc::ptr_eq(&a, &c), "distinct targets must not alias");

    // Same targets, different dims: distinct plans.
    let e = cached_symmetric(&[2, 2, 2], &[0, 1]);
    let f = cached_symmetric(&[2, 2, 4], &[0, 1]);
    assert!(!Arc::ptr_eq(&e, &f), "distinct dims must not alias");

    // Target *order* is part of the key (offset order differs).
    let g = cached_symmetric(&[2, 3, 2], &[0, 2]);
    let h = cached_symmetric(&[2, 3, 2], &[2, 0]);
    assert!(!Arc::ptr_eq(&g, &h), "target order must not alias");

    // Concatenation ambiguity: [2,2]+[0] vs [2]+[0] vs [2,2,2]+[0] all
    // distinct keys.
    let i = cached_symmetric(&[2, 2], &[0]);
    let j = cached_symmetric(&[2], &[0]);
    assert!(!Arc::ptr_eq(&i, &j));

    // Behavioural spot check: the aliased-looking plans act on their own
    // registers exactly like fresh compiles.
    let mut gen = RandomStateGenerator::new(76);
    let rho = gen.random_density(&[2, 2, 2, 2], 2);
    let mut scratch = PlanScratch::default();
    for (plan, targets) in [(&a, vec![0usize, 1]), (&c, vec![2, 3])] {
        let fresh = KernelPlan::for_symmetric(&[2, 2, 2, 2], &targets);
        let via_cached = qsim::kernels::class_projection_trace_with(rho.matrix(), plan).re;
        let via_fresh = qsim::kernels::class_projection_trace_with(rho.matrix(), &fresh).re;
        assert!((via_cached - via_fresh).abs() < TOL, "targets {targets:?}");
        let mut x = rho.clone();
        x.apply_class_projector_with(plan, false, &mut scratch);
        let mut y = rho.clone();
        y.apply_class_projector_with(&fresh, false, &mut scratch);
        assert!(x.matrix().approx_eq(y.matrix(), TOL), "targets {targets:?}");
    }
}

#[test]
fn plan_executors_reject_wrong_shapes() {
    let plan = KernelPlan::for_layout(&[2, 2], &[0]);
    let rho = DensityMatrix::maximally_mixed(&[2, 3]);
    let mut out = DensityMatrix::maximally_mixed(&[2]);
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        rho.partial_trace_keep_with(&plan, &mut out);
    }));
    assert!(err.is_err(), "mismatched register shape must panic");

    let err = std::panic::catch_unwind(|| {
        let v = CVector::zeros(4);
        let plan = KernelPlan::for_layout(&[2, 2], &[0]);
        // A layout plan carries no operator: the operator executors must
        // refuse it.
        let mut buf = qsim::linalg::SplitBuffer::from_complex(&v.to_complex_vec());
        qsim::kernels::apply_to_state_vector_with(
            buf.split_mut(),
            &plan,
            &mut PlanScratch::default(),
        );
    });
    assert!(err.is_err(), "layout plan must not execute as an operator");
}

#[test]
fn fused_symmetrize_and_scaled_projector_match_two_pass_oracles() {
    let mut gen = RandomStateGenerator::new(77);
    for &d in &[2usize, 3] {
        // Fused one-pass symmetrisation channel vs the shim path (copy +
        // two-pass conjugation + blend) on the 3-register frontier shape.
        let dims = [d, d, d];
        let rho = gen.random_density(&dims, 2);
        let swap = qsim::gates::swap(d);
        let plan = KernelPlan::for_conjugation(&dims, &[1, 2], &swap);
        let d3 = d * d * d;
        let mut tmp = CMatrix::zeros(d3, d3);
        let mut scratch = PlanScratch::default();
        let mut fused = rho.clone();
        fused.symmetrize_pair_planned(&plan, &mut tmp, &mut scratch);
        let mut shim = rho.clone();
        let mut tmp2 = CMatrix::zeros(d3, d3);
        shim.symmetrize_pair_with(1, 2, &swap, &mut tmp2);
        assert!(
            fused.matrix().approx_eq(shim.matrix(), TOL),
            "d={d}: fused symmetrisation vs shim"
        );

        // Fused scale·ΠρΠ vs two-pass projector + rescale on the SWAP-test
        // class plan.
        let test_plan = KernelPlan::for_symmetric(&dims, &[0, 1]);
        let scale = 1.75;
        let mut fused_p = rho.clone();
        fused_p.apply_class_projector_scaled(&test_plan, scale, &mut scratch);
        let mut two_pass = rho.clone();
        two_pass.apply_class_projector_with(&test_plan, false, &mut scratch);
        two_pass.rescale(scale);
        assert!(
            fused_p.matrix().approx_eq(two_pass.matrix(), TOL),
            "d={d}: fused scaled projector vs two-pass + rescale"
        );
    }
}

#[test]
fn phased_monomial_conjugations_match_dense_embedding() {
    // A monomial operator with non-unit phases: permutation × diagonal
    // phases. Exercises conjugate_into_with's fused phased gather and
    // symmetrize_with's non-unit-phase fallback.
    let mut gen = RandomStateGenerator::new(78);
    let d = 3usize;
    let dims = [d, 2, d];
    let targets = [2usize, 0];
    let block = d * d;
    let cycle_src = qsim::plan::permutation_src(d, &[1, 0]);
    let op = CMatrix::from_fn(block, block, |r, c| {
        if cycle_src[r] == c {
            Complex::from_polar(1.0, 0.41 * (r as f64 + 1.0))
        } else {
            Complex::ZERO
        }
    });
    let rho = gen.random_density(&dims, 2);
    let plan = KernelPlan::for_conjugation(&dims, &targets, &op);
    let total = rho.dim();
    let mut dst = CMatrix::zeros(total, total);
    let mut scratch = PlanScratch::default();
    qsim::kernels::conjugate_into_with(&mut dst, rho.matrix(), &plan, &mut scratch);
    let full = embed_operator(&dims, &targets, &op);
    let dense = full.matmul(rho.matrix()).matmul(&full.adjoint());
    assert!(
        dst.approx_eq(&dense, TOL),
        "phased monomial conjugate_into vs dense embedding"
    );

    // symmetrize_with fallback: ½ρ + ½AρA† for the phased monomial.
    let mut fused = rho.clone();
    let mut tmp = CMatrix::zeros(total, total);
    fused.symmetrize_pair_planned(&plan, &mut tmp, &mut scratch);
    let expected = &rho.matrix().scale(Complex::real(0.5)) + &dense.scale(Complex::real(0.5));
    assert!(
        fused.matrix().approx_eq(&expected, TOL),
        "phased monomial symmetrisation channel vs dense"
    );
}

#[test]
fn fused_traced_projector_matches_project_then_partial_trace() {
    let mut gen = RandomStateGenerator::new(79);
    for &d in &[2usize, 3] {
        let dims = [d, d, d];
        let rho = gen.random_density(&dims, 3);
        let plan = KernelPlan::for_symmetric(&dims, &[0, 1]);
        let mut scratch = PlanScratch::default();
        let scale = 2.25;
        let mut fused = DensityMatrix::from_matrix(&[d], CMatrix::zeros(d, d));
        rho.apply_class_projector_traced(&plan, scale, &mut fused);
        let mut two_step = rho.clone();
        two_step.apply_class_projector_with(&plan, false, &mut scratch);
        two_step.rescale(scale);
        let oracle = two_step.partial_trace_keep(&[2]);
        assert!(
            fused.matrix().approx_eq(oracle.matrix(), TOL),
            "d={d}: fused project+trace vs project-then-trace"
        );
        assert_eq!(fused.dims(), oracle.dims());

        // Non-contiguous targets: keep registers (0, 2), project (1, 2)?
        // — project registers (2, 0), trace keeps register 1.
        let plan2 = KernelPlan::for_symmetric(&dims, &[2, 0]);
        let mut fused2 = DensityMatrix::from_matrix(&[d], CMatrix::zeros(d, d));
        rho.apply_class_projector_traced(&plan2, 1.0, &mut fused2);
        let mut two2 = rho.clone();
        two2.apply_class_projector_with(&plan2, false, &mut scratch);
        let oracle2 = two2.partial_trace_keep(&[1]);
        assert!(
            fused2.matrix().approx_eq(oracle2.matrix(), TOL),
            "d={d}: fused project+trace on non-contiguous targets"
        );
    }
}
