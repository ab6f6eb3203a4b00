//! Randomized equivalence tests: the strided in-place kernels must agree with
//! the retained naive oracles (`qsim::naive`) within 1e-12, over mixed qudit
//! dimensions and out-of-order, non-contiguous target lists, for both pure
//! states and density matrices.

use qsim::linalg::CMatrix;
use qsim::{gates, naive, Complex, PureState, RandomStateGenerator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const TOL: f64 = 1e-12;

/// In-place Fisher–Yates shuffle (the one shuffle primitive the vendored
/// `rand` lacks); every randomized target/permutation draw goes through it.
fn shuffle(rng: &mut StdRng, items: &mut [usize]) {
    for i in (1..items.len()).rev() {
        let j = rng.random_range(0..=i);
        items.swap(i, j);
    }
}

/// A uniformly random permutation of `0..n`.
fn random_permutation(rng: &mut StdRng, n: usize) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..n).collect();
    shuffle(rng, &mut perm);
    perm
}

/// Draws a random register shape (mixed qudit dimensions) and a random
/// out-of-order subset of its subsystems as targets.
fn random_shape(rng: &mut StdRng, max_subsystems: usize) -> (Vec<usize>, Vec<usize>) {
    let n = rng.random_range(2..=max_subsystems);
    let dims: Vec<usize> = (0..n).map(|_| rng.random_range(2..=4usize)).collect();
    let k = rng.random_range(1..=2.min(n));
    // Shuffled subsystem indices, then take a prefix: targets come out
    // non-contiguous and out of order.
    let order = random_permutation(rng, n);
    (dims, order[..k].to_vec())
}

fn block_dim(dims: &[usize], targets: &[usize]) -> usize {
    targets.iter().map(|&t| dims[t]).product()
}

/// Like [`random_shape`] but bounded in total dimension, so the `O(D³)` naive
/// density oracle stays fast in debug builds.
fn random_small_shape(rng: &mut StdRng, max_subsystems: usize) -> (Vec<usize>, Vec<usize>) {
    loop {
        let (dims, targets) = random_shape(rng, max_subsystems);
        if dims.iter().product::<usize>() <= 144 {
            return (dims, targets);
        }
    }
}

#[test]
fn pure_strided_matches_naive_on_random_shapes() {
    let mut rng = StdRng::seed_from_u64(1001);
    let mut gen = RandomStateGenerator::new(2001);
    for trial in 0..60 {
        let (dims, targets) = random_shape(&mut rng, 5);
        let u = gen.random_unitary(block_dim(&dims, &targets));
        let psi = gen.random_pure(&dims);
        let mut fast = psi.clone();
        fast.apply_unitary(&targets, &u);
        let slow = naive::apply_unitary_pure(&psi, &targets, &u);
        assert!(
            fast.approx_eq(&slow, TOL),
            "trial {trial}: dims {dims:?}, targets {targets:?}"
        );
    }
}

#[test]
fn density_strided_matches_naive_on_random_shapes() {
    let mut rng = StdRng::seed_from_u64(1002);
    let mut gen = RandomStateGenerator::new(2002);
    for trial in 0..25 {
        let (dims, targets) = random_small_shape(&mut rng, 4);
        let u = gen.random_unitary(block_dim(&dims, &targets));
        let rho = gen.random_density(&dims, 2);
        let mut fast = rho.clone();
        fast.apply_unitary(&targets, &u);
        let slow = naive::apply_unitary_density(&rho, &targets, &u);
        assert!(
            fast.matrix().approx_eq(slow.matrix(), TOL),
            "trial {trial}: dims {dims:?}, targets {targets:?}"
        );
    }
}

#[test]
fn diagonal_fast_path_matches_naive() {
    let mut rng = StdRng::seed_from_u64(1003);
    let mut gen = RandomStateGenerator::new(2003);
    for trial in 0..15 {
        let (dims, targets) = random_small_shape(&mut rng, 5);
        let b = block_dim(&dims, &targets);
        let diag = CMatrix::from_fn(b, b, |i, j| {
            if i == j {
                Complex::from_polar(1.0, rng.random::<f64>() * std::f64::consts::TAU)
            } else {
                Complex::ZERO
            }
        });
        let psi = gen.random_pure(&dims);
        let mut fast = psi.clone();
        fast.apply_unitary(&targets, &diag);
        let slow = naive::apply_unitary_pure(&psi, &targets, &diag);
        assert!(
            fast.approx_eq(&slow, TOL),
            "trial {trial}: dims {dims:?}, targets {targets:?}"
        );
        let rho = gen.random_density(&dims, 2);
        let mut fast = rho.clone();
        fast.apply_unitary(&targets, &diag);
        let slow = naive::apply_unitary_density(&rho, &targets, &diag);
        assert!(
            fast.matrix().approx_eq(slow.matrix(), TOL),
            "density trial {trial}"
        );
    }
}

#[test]
fn permutation_fast_path_matches_naive() {
    let mut rng = StdRng::seed_from_u64(1004);
    let mut gen = RandomStateGenerator::new(2004);
    for trial in 0..15 {
        let (dims, targets) = random_small_shape(&mut rng, 5);
        let b = block_dim(&dims, &targets);
        // Random monomial operator: a permutation with random phases.
        let perm = random_permutation(&mut rng, b);
        let mono = CMatrix::from_fn(b, b, |i, j| {
            if perm[i] == j {
                Complex::from_polar(1.0, rng.random::<f64>() * std::f64::consts::TAU)
            } else {
                Complex::ZERO
            }
        });
        let psi = gen.random_pure(&dims);
        let mut fast = psi.clone();
        fast.apply_unitary(&targets, &mono);
        let slow = naive::apply_unitary_pure(&psi, &targets, &mono);
        assert!(
            fast.approx_eq(&slow, TOL),
            "trial {trial}: dims {dims:?}, targets {targets:?}"
        );
        let rho = gen.random_density(&dims, 2);
        let mut fast = rho.clone();
        fast.apply_unitary(&targets, &mono);
        let slow = naive::apply_unitary_density(&rho, &targets, &mono);
        assert!(
            fast.matrix().approx_eq(slow.matrix(), TOL),
            "density trial {trial}"
        );
    }
}

#[test]
fn swap_on_non_adjacent_qudits_matches_naive() {
    let mut gen = RandomStateGenerator::new(2005);
    let dims = [3usize, 2, 3, 2];
    let sw = gates::swap(3);
    let psi = gen.random_pure(&dims);
    let mut fast = psi.clone();
    fast.apply_unitary(&[2, 0], &sw);
    let slow = naive::apply_unitary_pure(&psi, &[2, 0], &sw);
    assert!(fast.approx_eq(&slow, TOL));
}

#[test]
fn three_target_gate_matches_naive() {
    let mut gen = RandomStateGenerator::new(2006);
    let dims = [2usize, 3, 2, 2, 2];
    let targets = [4usize, 0, 2];
    let u = gen.random_unitary(8);
    let psi = gen.random_pure(&dims);
    let mut fast = psi.clone();
    fast.apply_unitary(&targets, &u);
    let slow = naive::apply_unitary_pure(&psi, &targets, &u);
    assert!(fast.approx_eq(&slow, TOL));
}

#[test]
fn kraus_channel_matches_naive_embedding() {
    let mut gen = RandomStateGenerator::new(2007);
    let dims = [2usize, 3, 2];
    let targets = [2usize, 1];
    // Projective dephasing channel on the (2·3)-dimensional block.
    let b = 6;
    let kraus: Vec<CMatrix> = (0..b)
        .map(|i| {
            CMatrix::from_fn(b, b, |r, c| {
                if r == i && c == i {
                    Complex::ONE
                } else {
                    Complex::ZERO
                }
            })
        })
        .collect();
    let rho = gen.random_density(&dims, 2);
    let mut fast = rho.clone();
    fast.apply_kraus(&targets, &kraus);
    let mut slow_mat = CMatrix::zeros(rho.dim(), rho.dim());
    for k in &kraus {
        let full = qsim::embed_operator(rho.dims(), &targets, k);
        slow_mat = &slow_mat + &full.matmul(rho.matrix()).matmul(&full.adjoint());
    }
    assert!(fast.matrix().approx_eq(&slow_mat, TOL));
}

#[test]
fn blocked_matmul_matches_naive_on_random_shapes() {
    let mut rng = StdRng::seed_from_u64(1008);
    for _ in 0..20 {
        let m = rng.random_range(1..40usize);
        let k = rng.random_range(1..40usize);
        let n = rng.random_range(1..40usize);
        let a = CMatrix::from_fn(m, k, |_i, _j| {
            Complex::new(rng.random::<f64>() - 0.5, rng.random::<f64>() - 0.5)
        });
        let b = CMatrix::from_fn(k, n, |_i, _j| {
            Complex::new(rng.random::<f64>() - 0.5, rng.random::<f64>() - 0.5)
        });
        assert!(a.matmul(&b).approx_eq(&naive::matmul(&a, &b), 1e-10));
    }
    // Shapes that straddle the tile boundaries.
    for d in [63usize, 64, 65, 130] {
        let a = CMatrix::from_fn(d, d, |i, j| Complex::new((i % 5) as f64, (j % 3) as f64));
        let b = CMatrix::from_fn(d, d, |i, j| Complex::new((j % 7) as f64, (i % 2) as f64));
        assert!(a.matmul(&b).approx_eq(&naive::matmul(&a, &b), 1e-9));
    }
}

/// Scan-based oracle for measurement quantities, mirroring the original
/// implementation of `outcome_probability`.
fn scan_probability(psi: &PureState, targets: &[usize], outcome: &[usize]) -> f64 {
    let dims = psi.dims();
    let mut p = 0.0;
    for flat in 0..psi.dim() {
        let multi = qsim::state::unflatten_index(dims, flat);
        if targets
            .iter()
            .zip(outcome.iter())
            .all(|(&t, &o)| multi[t] == o)
        {
            p += psi.amplitudes().at(flat).norm_sqr();
        }
    }
    p
}

#[test]
fn outcome_quantities_match_scan_oracle() {
    let mut rng = StdRng::seed_from_u64(1009);
    let mut gen = RandomStateGenerator::new(2009);
    for _ in 0..30 {
        let (dims, targets) = random_shape(&mut rng, 5);
        let psi = gen.random_pure(&dims);
        let outcome: Vec<usize> = targets
            .iter()
            .map(|&t| rng.random_range(0..dims[t]))
            .collect();
        let fast = psi.outcome_probability(&targets, &outcome);
        let slow = scan_probability(&psi, &targets, &outcome);
        assert!(
            (fast - slow).abs() < TOL,
            "dims {dims:?}, targets {targets:?}"
        );

        let dist = psi.outcome_distribution(&targets);
        assert!((dist.iter().sum::<f64>() - psi.norm_sqr()).abs() < 1e-10);
        let flat_outcome: usize = targets
            .iter()
            .zip(outcome.iter())
            .fold(0, |acc, (&t, &o)| acc * dims[t] + o);
        assert!((dist[flat_outcome] - slow).abs() < TOL);

        if slow > 1e-12 {
            let mut collapsed = psi.clone();
            collapsed.collapse(&targets, &outcome);
            assert!((collapsed.norm_sqr() - 1.0).abs() < 1e-10);
            assert!((collapsed.outcome_probability(&targets, &outcome) - 1.0).abs() < 1e-10);
        }
    }
}

#[test]
fn permute_subsystems_matches_index_oracle() {
    let mut rng = StdRng::seed_from_u64(1010);
    let mut gen = RandomStateGenerator::new(2010);
    for _ in 0..20 {
        let n = rng.random_range(2..=5usize);
        let dims: Vec<usize> = (0..n).map(|_| rng.random_range(2..=3usize)).collect();
        let perm = random_permutation(&mut rng, n);
        let psi = gen.random_pure(&dims);
        let permuted = psi.permute_subsystems(&perm);
        // Oracle: per-amplitude multi-index remap.
        let new_dims: Vec<usize> = perm.iter().map(|&p| dims[p]).collect();
        for flat in 0..psi.dim() {
            let old_multi = qsim::state::unflatten_index(&dims, flat);
            let new_multi: Vec<usize> = perm.iter().map(|&p| old_multi[p]).collect();
            let new_flat = qsim::state::flat_index(&new_dims, &new_multi);
            assert!(
                permuted
                    .amplitudes()
                    .at(new_flat)
                    .approx_eq(psi.amplitudes().at(flat), TOL),
                "dims {dims:?}, perm {perm:?}"
            );
        }
    }
}

#[test]
fn density_outcome_quantities_match_scan_oracle() {
    let mut rng = StdRng::seed_from_u64(1011);
    let mut gen = RandomStateGenerator::new(2011);
    for _ in 0..20 {
        let (dims, targets) = random_small_shape(&mut rng, 4);
        let rho = gen.random_density(&dims, 2);
        let outcome: Vec<usize> = targets
            .iter()
            .map(|&t| rng.random_range(0..dims[t]))
            .collect();
        // Scan oracle over the diagonal.
        let mut slow = 0.0;
        for flat in 0..rho.dim() {
            let multi = qsim::state::unflatten_index(&dims, flat);
            if targets
                .iter()
                .zip(outcome.iter())
                .all(|(&t, &o)| multi[t] == o)
            {
                slow += rho.matrix().at(flat, flat).re;
            }
        }
        let fast = rho.outcome_probability(&targets, &outcome);
        assert!(
            (fast - slow).abs() < TOL,
            "dims {dims:?}, targets {targets:?}"
        );

        if slow > 1e-9 {
            let mut collapsed = rho.clone();
            collapsed.collapse(&targets, &outcome);
            assert!((collapsed.trace() - 1.0).abs() < 1e-9);
            assert!((collapsed.outcome_probability(&targets, &outcome) - 1.0).abs() < 1e-9);
        }
    }
}

#[test]
fn effect_conjugation_matches_embedding() {
    // apply_local_operator with a non-unitary effect (projector) must agree
    // with the explicit embed-then-conjugate path.
    let mut gen = RandomStateGenerator::new(2012);
    let dims = [2usize, 2, 3];
    let targets = [1usize, 2];
    let proj = {
        let v = gen.random_pure(&[6]);
        CMatrix::projector(v.amplitudes())
    };
    let rho = gen.random_density(&dims, 3);
    let mut fast = rho.clone();
    fast.apply_local_operator(&targets, &proj);
    let full = qsim::embed_operator(&dims, &targets, &proj);
    let slow = full.matmul(rho.matrix()).matmul(&full.adjoint());
    assert!(fast.matrix().approx_eq(&slow, TOL));
}

/// A 2-qubit dense gate on a 14-qubit state: the general dense block path
/// (block 4, not the unrolled 2×2 one) over 4096 bases must match the oracle.
#[test]
fn dense_kernel_matches_naive_on_large_state() {
    let mut gen = RandomStateGenerator::new(2013);
    let dims = vec![2usize; 14];
    let u = gen.random_unitary(4);
    let psi = gen.random_pure(&dims);
    let mut fast = psi.clone();
    fast.apply_unitary(&[11, 3], &u);
    let slow = naive::apply_unitary_pure(&psi, &[11, 3], &u);
    assert!(fast.approx_eq(&slow, TOL));
}

#[test]
fn expectation_on_matches_embedding() {
    let mut rng = StdRng::seed_from_u64(1012);
    let mut gen = RandomStateGenerator::new(2014);
    for _ in 0..20 {
        let (dims, targets) = random_small_shape(&mut rng, 4);
        let b = block_dim(&dims, &targets);
        let op = gen.random_unitary(b);
        let rho = gen.random_density(&dims, 2);
        let fast = rho.expectation_on(&targets, &op);
        let full = qsim::embed_operator(&dims, &targets, &op);
        let slow = full.matmul(rho.matrix()).trace();
        assert!(
            fast.approx_eq(slow, 1e-10),
            "dims {dims:?}, targets {targets:?}: {fast} vs {slow}"
        );
    }
}

// --- SoA layout pinning (PR 3) -------------------------------------------
//
// The numeric core stores split re/im planes (`SplitBuffer`) and the kernels
// run as paired f64 loops with several structure-dependent fast paths (2×2
// register path, unit-phase permutation scatter, two-row matrix update).
// `qsim::naive` deliberately stays on interleaved AoS `Vec<Complex>` storage,
// so the tests below pin the SoA layout — including the fast-path dispatch —
// to the AoS oracle at 1e-12 over randomized shapes.

/// A random block operator of one of the structural kinds the kernel
/// classifier dispatches on.
fn random_operator(
    rng: &mut StdRng,
    gen: &mut RandomStateGenerator,
    b: usize,
    kind: usize,
) -> CMatrix {
    match kind {
        // Diagonal: random unit phases.
        0 => CMatrix::from_fn(b, b, |i, j| {
            if i == j {
                Complex::from_polar(1.0, rng.random::<f64>() * std::f64::consts::TAU)
            } else {
                Complex::ZERO
            }
        }),
        // Monomial: a random permutation, with unit phases (kind 1 — the
        // copy-only scatter) or random phases (kind 2).
        1 | 2 => {
            let perm = random_permutation(rng, b);
            let unit = kind == 1;
            CMatrix::from_fn(b, b, |i, j| {
                if perm[i] != j {
                    Complex::ZERO
                } else if unit {
                    Complex::ONE
                } else {
                    Complex::from_polar(1.0, rng.random::<f64>() * std::f64::consts::TAU)
                }
            })
        }
        // Dense unitary.
        _ => gen.random_unitary(b),
    }
}

#[test]
fn soa_mixed_operator_sequences_match_naive_on_pure_states() {
    // Sequences of diagonal/monomial/dense operators on rotating
    // non-contiguous target sets: errors that survive one fast path are
    // carried into the next, so a whole-sequence comparison at 1e-12 pins
    // the SoA planes through every dispatch combination.
    let mut rng = StdRng::seed_from_u64(3001);
    let mut gen = RandomStateGenerator::new(4001);
    for trial in 0..20 {
        let (dims, _) = random_shape(&mut rng, 5);
        let mut fast = gen.random_pure(&dims);
        let mut slow = fast.clone();
        for step in 0..6 {
            // Redraw targets against the fixed dims: out of order and
            // non-contiguous, like random_shape.
            let order = random_permutation(&mut rng, dims.len());
            let k = rng.random_range(1..=2.min(dims.len()));
            let targets = order[..k].to_vec();
            let b = block_dim(&dims, &targets);
            let u = random_operator(&mut rng, &mut gen, b, step % 4);
            fast.apply_unitary(&targets, &u);
            slow = naive::apply_unitary_pure(&slow, &targets, &u);
            assert!(
                fast.approx_eq(&slow, TOL),
                "trial {trial} step {step}: dims {dims:?}, targets {targets:?}"
            );
        }
    }
}

#[test]
fn soa_mixed_operator_sequences_match_naive_on_density_matrices() {
    let mut rng = StdRng::seed_from_u64(3002);
    let mut gen = RandomStateGenerator::new(4002);
    for trial in 0..8 {
        let (dims, _) = random_small_shape(&mut rng, 4);
        let mut fast = gen.random_density(&dims, 2);
        let mut slow = fast.clone();
        for step in 0..4 {
            let order = random_permutation(&mut rng, dims.len());
            let k = rng.random_range(1..=2.min(dims.len()));
            let targets = order[..k].to_vec();
            let b = block_dim(&dims, &targets);
            let u = random_operator(&mut rng, &mut gen, b, step % 4);
            fast.apply_unitary(&targets, &u);
            slow = naive::apply_unitary_density(&slow, &targets, &u);
            assert!(
                fast.matrix().approx_eq(slow.matrix(), TOL),
                "trial {trial} step {step}: dims {dims:?}, targets {targets:?}"
            );
        }
    }
}

#[test]
fn soa_random_kraus_channels_match_naive_embedding() {
    // Random (not necessarily trace-preserving) Kraus sets on non-contiguous
    // targets: apply_kraus runs the SoA conjugation kernel per operator; the
    // oracle embeds each operator and pays AoS matmuls.
    let mut rng = StdRng::seed_from_u64(3003);
    let mut gen = RandomStateGenerator::new(4003);
    for trial in 0..6 {
        let (dims, targets) = random_small_shape(&mut rng, 4);
        let b = block_dim(&dims, &targets);
        let n_ops = rng.random_range(1..=3usize);
        let kraus: Vec<CMatrix> = (0..n_ops)
            .map(|_| {
                CMatrix::from_fn(b, b, |_i, _j| {
                    Complex::new(rng.random::<f64>() - 0.5, rng.random::<f64>() - 0.5)
                })
            })
            .collect();
        let rho = gen.random_density(&dims, 2);
        let mut fast = rho.clone();
        fast.apply_kraus(&targets, &kraus);
        let mut slow_mat = CMatrix::zeros(rho.dim(), rho.dim());
        for k in &kraus {
            let full = qsim::embed_operator(rho.dims(), &targets, k);
            let term = naive::matmul(&naive::matmul(&full, rho.matrix()), &full.adjoint());
            slow_mat = &slow_mat + &term;
        }
        assert!(
            fast.matrix().approx_eq(&slow_mat, TOL),
            "trial {trial}: dims {dims:?}, targets {targets:?}"
        );
    }
}

#[test]
fn soa_unit_phase_permutation_fast_path_matches_naive() {
    // Plain permutations (every phase exactly 1) take the copy-only scatter;
    // qudit SWAPs and register cycles are the protocol-relevant instances.
    let mut rng = StdRng::seed_from_u64(3004);
    let mut gen = RandomStateGenerator::new(4004);
    for trial in 0..12 {
        let (dims, targets) = random_small_shape(&mut rng, 5);
        let b = block_dim(&dims, &targets);
        let u = random_operator(&mut rng, &mut gen, b, 1);
        let psi = gen.random_pure(&dims);
        let mut fast = psi.clone();
        fast.apply_unitary(&targets, &u);
        let slow = naive::apply_unitary_pure(&psi, &targets, &u);
        assert!(fast.approx_eq(&slow, TOL), "trial {trial}: dims {dims:?}");
        let rho = gen.random_density(&dims, 2);
        let mut fast = rho.clone();
        fast.apply_unitary(&targets, &u);
        let slow = naive::apply_unitary_density(&rho, &targets, &u);
        assert!(
            fast.matrix().approx_eq(slow.matrix(), TOL),
            "density trial {trial}: dims {dims:?}"
        );
    }
}

#[test]
fn soa_two_by_two_register_paths_match_naive() {
    // block = 2 takes dedicated unrolled paths in both the vector kernel
    // (left and transposed action) and the matrix kernels (two-row
    // streaming update); pin them on a dimension-2 subsystem wedged into a
    // mixed-dimension register.
    let mut gen = RandomStateGenerator::new(4005);
    let dims = [3usize, 2, 2, 3];
    for targets in [[1usize], [2usize]] {
        let u = gen.random_unitary(2);
        let psi = gen.random_pure(&dims);
        let mut fast = psi.clone();
        fast.apply_unitary(&targets, &u);
        let slow = naive::apply_unitary_pure(&psi, &targets, &u);
        assert!(fast.approx_eq(&slow, TOL), "pure targets {targets:?}");
        let rho = gen.random_density(&dims, 2);
        let mut fast = rho.clone();
        fast.apply_unitary(&targets, &u);
        let slow = naive::apply_unitary_density(&rho, &targets, &u);
        assert!(
            fast.matrix().approx_eq(slow.matrix(), TOL),
            "density targets {targets:?}"
        );
    }
}

#[test]
fn soa_planes_roundtrip_through_the_naive_boundary() {
    // The AoS↔SoA boundary conversions themselves must be lossless: a
    // random state pushed through `to_complex_vec` and back is identical,
    // and the split planes agree entrywise with the interleaved view.
    let mut gen = RandomStateGenerator::new(4006);
    let psi = gen.random_pure(&[3, 2, 2]);
    let v = psi.amplitudes();
    let interleaved = v.to_complex_vec();
    let rebuilt = qsim::CVector::new(interleaved.clone());
    assert!(v.approx_eq(&rebuilt, 0.0), "roundtrip must be exact");
    for (i, z) in interleaved.iter().enumerate() {
        assert_eq!(v.re()[i], z.re);
        assert_eq!(v.im()[i], z.im);
    }
}
