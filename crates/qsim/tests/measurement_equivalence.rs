//! Randomized equivalence tests: the matrix-free SWAP/permutation-test
//! measurement layer (`O(k!·D)` monomial traces for acceptance, `O(D²)`
//! in-place register symmetrisation for the post-measurement effects) must
//! agree with the retained dense-projector oracles (`qsim::naive`) within
//! 1e-12, over mixed qudit dimensions `d ∈ {2, 3, 5}`, test arities
//! `k ∈ {2, 3, 4}`, and non-contiguous out-of-order target lists — mirroring
//! `kernel_equivalence.rs` for the gate layer.

use qsim::permutation::{
    permutation_test_acceptance, permutation_test_acceptance_gram, permutation_test_on,
    permutation_test_on_pure, project_complement_on, project_symmetric_on, right_project_symmetric,
    symmetric_projector,
};
use qsim::plan::{KernelPlan, PlanScratch};
use qsim::swap_test::{swap_test_acceptance_on, swap_test_on};
use qsim::{kernels, naive, Complex, DensityMatrix, PureState, RandomStateGenerator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const TOL: f64 = 1e-12;

/// The (d, k) grid of the issue. All combinations are exercised for the
/// acceptance probability; the post-measurement comparisons skip the largest
/// shapes where the dense oracle's `O(D²·block)` conjugation would dominate
/// the debug-mode test time.
const GRID: [(usize, usize); 9] = [
    (2, 2),
    (2, 3),
    (2, 4),
    (3, 2),
    (3, 3),
    (3, 4),
    (5, 2),
    (5, 3),
    (5, 4),
];

/// A register of `k` test registers of dimension `d` plus one spectator
/// register of dimension 2 wedged in the middle, with the targets listed out
/// of order — non-contiguous and order-scrambled on purpose.
fn shape(d: usize, k: usize) -> (Vec<usize>, Vec<usize>) {
    let mut dims = vec![d; k];
    dims.insert(1, 2); // spectator
    let mut targets: Vec<usize> = (0..=k).filter(|&i| i != 1).collect();
    targets.reverse(); // out-of-order target list
    (dims, targets)
}

#[test]
fn acceptance_matches_dense_oracle_on_grid() {
    let mut gen = RandomStateGenerator::new(3001);
    for &(d, k) in &GRID {
        let (dims, targets) = shape(d, k);
        for trial in 0..2 {
            let rho = gen.random_density(&dims, 2);
            let fast = qsim::permutation::permutation_test_acceptance_on(&rho, &targets);
            let slow = naive::permutation_test_acceptance_on(&rho, &targets);
            assert!(
                (fast - slow).abs() < TOL,
                "d={d}, k={k}, trial {trial}: {fast} vs {slow}"
            );
        }
    }
}

#[test]
fn orbit_grouped_acceptance_equals_average_of_monomial_gathers() {
    // The acceptance is (1/k!)·Σ_π tr(U_π ρ); the orbit-grouped evaluation
    // must equal the explicit average of the per-π O(D) gathers.
    let mut gen = RandomStateGenerator::new(3010);
    for &(d, k) in &[(2usize, 3usize), (3, 2), (2, 4)] {
        let (dims, targets) = shape(d, k);
        let rho = gen.random_density(&dims, 2);
        let perms = qsim::permutation::permutations(k);
        let mut acc = Complex::ZERO;
        for p in &perms {
            acc += qsim::permutation::permutation_unitary_expectation(&rho, &targets, p);
        }
        let avg = acc.re / perms.len() as f64;
        let grouped = qsim::permutation::permutation_test_acceptance_on(&rho, &targets);
        assert!(
            (avg - grouped).abs() < TOL,
            "d={d}, k={k}: {avg} vs {grouped}"
        );
    }
}

#[test]
fn full_register_acceptance_matches_dense_oracle() {
    let mut gen = RandomStateGenerator::new(3002);
    for &(d, k) in &[(2usize, 3usize), (3, 3), (5, 2), (2, 4)] {
        let rho = gen.random_density(&vec![d; k], 2);
        let fast = permutation_test_acceptance(&rho);
        let slow = naive::permutation_test_acceptance(&rho);
        assert!((fast - slow).abs() < TOL, "d={d}, k={k}: {fast} vs {slow}");
    }
}

#[test]
fn pure_gram_fast_path_matches_dense_oracle() {
    let mut gen = RandomStateGenerator::new(3003);
    for &(d, k) in &[(2usize, 4usize), (3, 3), (5, 2)] {
        let states: Vec<PureState> = (0..k).map(|_| gen.random_pure(&[d])).collect();
        let fast = qsim::permutation::permutation_test_acceptance_pure(&states);
        let gram = permutation_test_acceptance_gram(&states);
        let slow = naive::permutation_test_acceptance_pure(&states);
        assert!((fast - gram).abs() < TOL, "pure must route through gram");
        assert!(
            (fast - slow).abs() < 1e-10,
            "d={d}, k={k}: {fast} vs {slow}"
        );
    }
}

#[test]
fn post_measurement_effects_match_dense_oracle() {
    let mut gen = RandomStateGenerator::new(3004);
    for &(d, k) in &GRID {
        // Cap the dense oracle's O(D²·block) cost for debug-mode test time.
        if d.pow(k as u32) > 150 {
            continue;
        }
        let (dims, targets) = shape(d, k);
        let rho = gen.random_density(&dims, 2);
        for accept in [true, false] {
            let mut fast = rho.clone();
            if accept {
                project_symmetric_on(&mut fast, &targets);
            } else {
                project_complement_on(&mut fast, &targets);
            }
            let mut slow = rho.clone();
            naive::apply_symmetric_effect(&mut slow, &targets, accept);
            assert!(
                fast.matrix().approx_eq(slow.matrix(), TOL),
                "d={d}, k={k}, accept={accept}: effect mismatch"
            );
        }
    }
}

#[test]
fn sampled_permutation_test_matches_dense_oracle_per_seed() {
    // Same rng seed => same draw => same branch; the conditional
    // post-measurement states must then agree on both branches across seeds.
    let mut gen = RandomStateGenerator::new(3005);
    let (dims, targets) = shape(3, 3);
    let rho = gen.random_density(&dims, 2);
    let mut seen_accept = false;
    let mut seen_reject = false;
    for seed in 0..12u64 {
        let mut fast = rho.clone();
        let mut slow = rho.clone();
        let out_fast = permutation_test_on(&mut fast, &targets, &mut StdRng::seed_from_u64(seed));
        let out_slow =
            naive::permutation_test_on(&mut slow, &targets, &mut StdRng::seed_from_u64(seed));
        assert_eq!(out_fast, out_slow, "seed {seed}: branch divergence");
        seen_accept |= out_fast;
        seen_reject |= !out_fast;
        assert!(
            fast.matrix().approx_eq(slow.matrix(), 1e-10),
            "seed {seed}: post-measurement state mismatch"
        );
        assert!((fast.trace() - 1.0).abs() < 1e-9, "seed {seed}: trace lost");
    }
    assert!(
        seen_accept && seen_reject,
        "both branches must be exercised"
    );
}

#[test]
fn swap_test_matches_dense_oracle_on_non_contiguous_registers() {
    let mut gen = RandomStateGenerator::new(3006);
    for &d in &[2usize, 3, 5] {
        let dims = [d, 2, d];
        let rho = gen.random_density(&dims, 2);
        // r1 > r2 stresses the target ordering.
        let fast = swap_test_acceptance_on(&rho, 2, 0);
        let slow = naive::swap_test_acceptance_on(&rho, 2, 0);
        assert!((fast - slow).abs() < TOL, "d={d}: {fast} vs {slow}");
        for seed in 0..6u64 {
            let mut f = rho.clone();
            let mut s = rho.clone();
            let of = swap_test_on(&mut f, 2, 0, &mut StdRng::seed_from_u64(seed));
            let os = naive::swap_test_on(&mut s, 2, 0, &mut StdRng::seed_from_u64(seed));
            assert_eq!(of, os, "d={d}, seed {seed}");
            assert!(
                f.matrix().approx_eq(s.matrix(), 1e-10),
                "d={d}, seed {seed}"
            );
        }
    }
}

#[test]
fn pure_state_sampler_matches_density_sampler() {
    let mut gen = RandomStateGenerator::new(3007);
    for &(d, k) in &[(2usize, 3usize), (3, 2), (2, 4)] {
        let (dims, targets) = shape(d, k);
        let psi = gen.random_pure(&dims);
        let rho = DensityMatrix::from_pure(&psi);
        for seed in 0..8u64 {
            let mut psi_f = psi.clone();
            let mut rho_s = rho.clone();
            let of =
                permutation_test_on_pure(&mut psi_f, &targets, &mut StdRng::seed_from_u64(seed));
            let os =
                naive::permutation_test_on(&mut rho_s, &targets, &mut StdRng::seed_from_u64(seed));
            assert_eq!(of, os, "d={d}, k={k}, seed {seed}");
            assert!(
                DensityMatrix::from_pure(&psi_f)
                    .matrix()
                    .approx_eq(rho_s.matrix(), 1e-10),
                "d={d}, k={k}, seed {seed}: post state mismatch"
            );
            assert!((psi_f.norm_sqr() - 1.0).abs() < 1e-10);
        }
    }
}

#[test]
fn right_projection_matches_dense_projector_multiplication() {
    let mut rng = StdRng::seed_from_u64(3008);
    for &d in &[2usize, 3] {
        let dims = [d, 2, d];
        let total: usize = dims.iter().product();
        let m = qsim::CMatrix::from_fn(total, total, |_i, _j| {
            Complex::new(rng.random::<f64>() - 0.5, rng.random::<f64>() - 0.5)
        });
        let mut fast = m.clone();
        right_project_symmetric(&mut fast, &dims, &[2, 0]);
        let proj = symmetric_projector(d, 2);
        let embedded = qsim::embed_operator(&dims, &[2, 0], &proj);
        let slow = m.matmul(&embedded);
        assert!(fast.approx_eq(&slow, 1e-10), "d={d}");
    }
}

#[test]
fn class_projection_weight_matches_dense_norm() {
    let mut gen = RandomStateGenerator::new(3009);
    for &(d, k) in &[(2usize, 3usize), (3, 3), (5, 2)] {
        let (dims, targets) = shape(d, k);
        let psi = gen.random_pure(&dims);
        let classes = qsim::permutation::symmetric_classes(d, k);
        let plan = KernelPlan::for_classes(&dims, &targets, &classes);
        let fast = kernels::class_projection_weight_with(
            psi.amplitudes().split(),
            &plan,
            &mut PlanScratch::default(),
        );
        let slow = naive::permutation_test_acceptance_on(&DensityMatrix::from_pure(&psi), &targets);
        assert!(
            (fast - slow).abs() < 1e-10,
            "d={d}, k={k}: {fast} vs {slow}"
        );
    }
}
