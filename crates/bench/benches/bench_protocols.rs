//! `bench_protocols` — protocol-level benchmarks of the matrix-free
//! measurement layer.
//!
//! Where `bench_qsim` times single gates, this bench times the paper's hot
//! path: SWAP-test and permutation-test measurements (acceptance
//! probabilities and post-measurement effects) and full sampled protocol
//! rounds — EQ on a path (§3.2), EQ on a tree (§3.3) and the relay protocol
//! (§4.1). Each measurement row compares the matrix-free path (`O(k!·D)`
//! monomial traces, `O(D²)` in-place symmetrisation) against the
//! dense-projector oracle exactly as it shipped pre-PR: the `d^k × d^k`
//! symmetric projector rebuilt per call as a sum of `k!` permutation
//! matrices, then a dense block expectation/effect. The memoised oracle
//! (`qsim::naive`) is reported as a third column.
//!
//! EQ-path rounds are simulated end to end through the pure-state fast path
//! (`O(r·d)` per round), which reaches `r = 128`; the joint-state dense
//! simulation — the only way to run a round before this layer existed — is
//! `O(d^{3(2r−1)})` and is timed where feasible (`r ≤ 4`), reported as
//! unreachable (`null`) beyond.
//!
//! Emits `BENCH_protocols.json` at the workspace root.
//!
//! Run with: `cargo bench --bench bench_protocols`

use commproto::bitstring::BitString;
use commproto::fingerprint::FingerprintScheme;
use commproto::OneWayProtocol;
use dqma::chain::{cheating_proof, ChainCheat, SeparableChainProof, SwapTestChain};
use dqma::eq_path::EqPathProtocol;
use dqma::eq_tree::EqTreeProtocol;
use dqma::relay::RelayEqProtocol;
use dqma::trials::{self, TrialReport};
use dqma_bench::{fmt_ns, print_header, print_row, time_it, JsonReport, JsonValue, Timing};
use netsim::topology;
use qsim::linalg::CMatrix;
use qsim::permutation::{
    permutation_test_acceptance_on, project_symmetric_on, symmetric_projector,
};
use qsim::swap_test::{swap_test_acceptance_on, swap_test_projector};
use qsim::{embed_operator, naive, Complex, DensityMatrix, PureState, RandomStateGenerator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

const WINDOW: Duration = Duration::from_millis(120);

struct Entry {
    name: String,
    fast: Timing,
    /// Dense-projector oracle with per-call construction (pre-PR semantics);
    /// `None` where the dense path cannot run in bench time.
    dense: Option<Timing>,
    /// Dense oracle with the projector memoised (`qsim::naive`).
    dense_cached: Option<Timing>,
}

impl Entry {
    fn speedup(&self) -> Option<f64> {
        self.dense
            .as_ref()
            .map(|d| d.ns_per_op / self.fast.ns_per_op)
    }

    /// Speedup against the *memoised* dense oracle — the column that makes
    /// the dense-cached baseline directly comparable across PRs.
    fn speedup_cached(&self) -> Option<f64> {
        self.dense_cached
            .as_ref()
            .map(|d| d.ns_per_op / self.fast.ns_per_op)
    }
}

/// The benchmark register shape: `k` test registers of dimension `d` plus a
/// dimension-2 spectator wedged at position 1, targets non-contiguous and
/// reversed — the same shape the equivalence tests pin.
fn shape(d: usize, k: usize) -> (Vec<usize>, Vec<usize>) {
    let mut dims = vec![d; k];
    dims.insert(1, 2);
    let mut targets: Vec<usize> = (0..=k).filter(|&i| i != 1).collect();
    targets.reverse();
    (dims, targets)
}

fn bench_perm_acceptance(
    entries: &mut Vec<Entry>,
    gen: &mut RandomStateGenerator,
    d: usize,
    k: usize,
) {
    let (dims, targets) = shape(d, k);
    let rho = gen.random_density(&dims, 2);
    let fast = time_it(
        || {
            std::hint::black_box(permutation_test_acceptance_on(&rho, &targets));
        },
        WINDOW,
    );
    let dense = time_it(
        || {
            // Pre-PR path: projector rebuilt per call, dense expectation.
            let proj = symmetric_projector(d, k);
            std::hint::black_box(rho.expectation_on(&targets, &proj).re);
        },
        WINDOW,
    );
    let dense_cached = time_it(
        || {
            std::hint::black_box(naive::permutation_test_acceptance_on(&rho, &targets));
        },
        WINDOW,
    );
    entries.push(Entry {
        name: format!("perm_accept_d{d}_k{k}"),
        fast,
        dense: Some(dense),
        dense_cached: Some(dense_cached),
    });
}

fn bench_swap_acceptance(entries: &mut Vec<Entry>, gen: &mut RandomStateGenerator, d: usize) {
    let dims = [d, 2, d];
    let rho = gen.random_density(&dims, 2);
    let fast = time_it(
        || {
            std::hint::black_box(swap_test_acceptance_on(&rho, 2, 0));
        },
        WINDOW,
    );
    let dense = time_it(
        || {
            let proj = swap_test_projector(d);
            std::hint::black_box(rho.expectation_on(&[2, 0], &proj).re);
        },
        WINDOW,
    );
    let dense_cached = time_it(
        || {
            std::hint::black_box(naive::swap_test_acceptance_on(&rho, 2, 0));
        },
        WINDOW,
    );
    entries.push(Entry {
        name: format!("swap_accept_d{d}"),
        fast,
        dense: Some(dense),
        dense_cached: Some(dense_cached),
    });
}

fn bench_symmetrize_effect(
    entries: &mut Vec<Entry>,
    gen: &mut RandomStateGenerator,
    d: usize,
    k: usize,
) {
    let (dims, targets) = shape(d, k);
    let rho = gen.random_density(&dims, 2);
    let fast = time_it(
        || {
            let mut work = rho.clone();
            project_symmetric_on(&mut work, &targets);
            std::hint::black_box(&mut work);
        },
        WINDOW,
    );
    let dense = time_it(
        || {
            let mut work = rho.clone();
            let proj = symmetric_projector(d, k);
            work.apply_local_operator(&targets, &proj);
            std::hint::black_box(&mut work);
        },
        WINDOW,
    );
    let dense_cached = time_it(
        || {
            let mut work = rho.clone();
            naive::apply_symmetric_effect(&mut work, &targets, true);
            std::hint::black_box(&mut work);
        },
        WINDOW,
    );
    entries.push(Entry {
        name: format!("symmetrize_effect_d{d}_k{k}"),
        fast,
        dense: Some(dense),
        dense_cached: Some(dense_cached),
    });
}

/// One sampled EQ-path round over the **joint** register state with dense
/// projector effects and embed-then-matmul conjugations — the only way to
/// simulate a round before the matrix-free layer and the pure-state fast
/// paths existed. `O(d^{3(2r−1)})` per round.
fn dense_joint_round(chain: &SwapTestChain, proof: &SeparableChainProof, rng: &mut StdRng) -> bool {
    let d = chain.register_dim();
    let k = chain.num_intermediate();
    let dims = vec![d; 2 * k + 1];
    let total: usize = dims.iter().product();
    let mut regs: Vec<PureState> = vec![chain.left_state().clone()];
    for (a, b) in proof {
        regs.push(a.clone());
        regs.push(b.clone());
    }
    let joint = PureState::tensor_all(&regs).regroup(&dims);
    let mut rho = DensityMatrix::from_pure(&joint).matrix().clone();
    let conj =
        |m: &CMatrix, full: &CMatrix| naive::matmul(&naive::matmul(full, m), &full.adjoint());
    let mut sent = 0usize;
    for j in 1..=k {
        let (kept, fwd) = (2 * j - 1, 2 * j);
        // Symmetrisation channel ρ → ½ρ + ½ SρS†, through the embedded SWAP
        // (memoised in the oracle module — the embedding is the honest cost).
        let s_emb = embed_operator(&dims, &[kept, fwd], &naive::cached_swap(d));
        rho = (&rho + &conj(&rho, &s_emb)).scale(Complex::real(0.5));
        // Dense SWAP-test effect on (sent, kept).
        let proj = embed_operator(&dims, &[sent, kept], &swap_test_projector(d));
        let p = naive::matmul(&proj, &rho).trace().re.clamp(0.0, 1.0);
        let accept = rng.random::<f64>() < p;
        let effect = if accept {
            proj
        } else {
            &CMatrix::identity(total) - &proj
        };
        let pr = if accept { p } else { 1.0 - p };
        if pr > 1e-12 {
            rho = conj(&rho, &effect).scale(Complex::real(1.0 / pr));
        }
        if !accept {
            return false;
        }
        sent = fwd;
    }
    let m_emb = embed_operator(&dims, &[sent], chain.right_effect());
    let p = naive::matmul(&m_emb, &rho).trace().re.clamp(0.0, 1.0);
    rng.random::<f64>() < p
}

fn main() {
    let mut entries = Vec::new();
    let mut gen = RandomStateGenerator::new(17);

    // Permutation-test acceptance: the paper's node measurement (Lemmas
    // 15–16), swept over qudit dimension and fan-out. (5, 4) is omitted —
    // the dense oracle alone would dominate the bench budget.
    for &(d, k) in &[
        (2usize, 2usize),
        (2, 3),
        (2, 4),
        (3, 2),
        (3, 3),
        (3, 4),
        (5, 2),
        (5, 3),
    ] {
        bench_perm_acceptance(&mut entries, &mut gen, d, k);
    }

    // SWAP-test acceptance (Lemmas 13–14) over the register dimension.
    for &d in &[2usize, 4, 8] {
        bench_swap_acceptance(&mut entries, &mut gen, d);
    }

    // Post-measurement effect Π_sym ρ Π_sym: in-place register
    // symmetrisation vs the dense block conjugation.
    for &(d, k) in &[(2usize, 4usize), (3, 3)] {
        bench_symmetrize_effect(&mut entries, &mut gen, d, k);
    }

    // EQ-path end-to-end rounds (§3.2). Dimension-2 fingerprints so the
    // joint-state dense oracle is feasible at all for small r; the
    // matrix-free sampler runs through the pure-state fast path and the cost
    // of the joint simulation is d^{3(2r−1)} — unreachable from r = 8 on.
    let scheme = FingerprintScheme::with_parameters(4, 1, 1, 7);
    let x = BitString::from_u64(3, 4);
    let y = BitString::from_u64(12, 4);
    let mut eq_path_max_r = 0usize;
    for &r in &[2usize, 4, 8, 16, 32, 128] {
        // Chain and proof are prepared once outside both timing loops so the
        // fast and dense columns measure exactly the same work: one sampled
        // round on a fixed proof.
        let proto = EqPathProtocol::with_scheme(r, scheme.clone(), 1);
        let chain = proto.chain(&x, &y);
        let right_state = proto.one_way().alice_message(&y);
        let proof = cheating_proof(&chain, &right_state, ChainCheat::Interpolate);
        let mut rng = StdRng::seed_from_u64(101);
        let fast = time_it(
            || {
                std::hint::black_box(chain.simulate_round(&proof, &mut rng));
            },
            WINDOW,
        );
        let dense = if r <= 4 {
            let mut rng = StdRng::seed_from_u64(101);
            Some(time_it(
                || {
                    std::hint::black_box(dense_joint_round(&chain, &proof, &mut rng));
                },
                WINDOW,
            ))
        } else {
            None
        };
        eq_path_max_r = r;
        entries.push(Entry {
            name: format!("eq_path_round_r{r}"),
            fast,
            dense,
            dense_cached: None,
        });
    }

    // EQ-path rounds with mixed per-node proofs: the density-matrix frontier
    // sampler (matrix-free swap_test_on + monomial SWAP channel), which also
    // reaches r = 32 because the frontier never exceeds three registers.
    for &r in &[8usize, 32] {
        let proto = EqPathProtocol::with_scheme(r, scheme.clone(), 1);
        let chain = proto.chain(&x, &y);
        let right_state = proto.one_way().alice_message(&y);
        let proof: Vec<DensityMatrix> =
            cheating_proof(&chain, &right_state, ChainCheat::Interpolate)
                .iter()
                .map(|(a, b)| DensityMatrix::from_pure(&a.tensor(b)))
                .collect();
        let mut rng = StdRng::seed_from_u64(103);
        let fast = time_it(
            || {
                std::hint::black_box(chain.simulate_round_mixed(&proof, &mut rng));
            },
            WINDOW,
        );
        entries.push(Entry {
            name: format!("eq_path_round_mixed_r{r}"),
            fast,
            dense: None,
            dense_cached: None,
        });
    }

    // EQ-tree rounds (§3.3, Algorithm 5) on spiders: every internal node
    // tests all its children at once with the permutation test.
    for &legs in &[2usize, 3, 4] {
        let g = topology::spider(legs, 1);
        let terminals: Vec<usize> = (0..legs).map(|k| topology::spider_leaf(k, 1)).collect();
        let proto = EqTreeProtocol::with_scheme(
            &g,
            &terminals,
            FingerprintScheme::with_parameters(4, 1, 1, 9),
            1,
        );
        let mut inputs = vec![x.clone(); terminals.len()];
        inputs[legs - 1] = y.clone();
        let proof = proto.uniform_proof(&x);
        let mut rng = StdRng::seed_from_u64(107);
        let fast = time_it(
            || {
                std::hint::black_box(proto.simulate_round(&inputs, &proof, &mut rng));
            },
            WINDOW,
        );
        let mut rng2 = StdRng::seed_from_u64(107);
        let density = time_it(
            || {
                std::hint::black_box(proto.simulate_round_via_density(&inputs, &proof, &mut rng2));
            },
            WINDOW,
        );
        entries.push(Entry {
            name: format!("eq_tree_round_t{legs}"),
            fast,
            dense: None,
            dense_cached: None,
        });
        entries.push(Entry {
            name: format!("eq_tree_round_density_t{legs}"),
            fast: density,
            dense: None,
            dense_cached: None,
        });
    }

    // Relay rounds (§4.1): one repetition of every segment, sampled.
    for &r in &[8usize, 16] {
        let proto = RelayEqProtocol::with_spacing(4, r, 2, 11);
        let relays = vec![x.clone(); proto.relay_points().len()];
        let mut rng = StdRng::seed_from_u64(109);
        let fast = time_it(
            || {
                std::hint::black_box(proto.simulate_round(
                    &x,
                    &y,
                    &relays,
                    ChainCheat::Interpolate,
                    &mut rng,
                ));
            },
            WINDOW,
        );
        entries.push(Entry {
            name: format!("relay_round_r{r}"),
            fast,
            dense: None,
            dense_cached: None,
        });
    }

    // Batched trial engine (PR 4): rounds/sec on the same fixed instances —
    // the serial per-round loop (the PR-3 consumer pattern, the `fast`
    // column of the round rows above) against the batched engine spread
    // over 1/2/4/8 worker threads. Accept counts at a fixed seed must be
    // identical across worker counts (the engine's determinism contract),
    // which each row records.
    struct TrialRow {
        name: String,
        serial_loop_ns: f64,
        reports: Vec<(usize, TrialReport)>,
    }
    impl TrialRow {
        fn deterministic(&self) -> bool {
            self.reports
                .iter()
                .all(|(_, r)| r.accepts == self.reports[0].1.accepts)
        }
        fn at(&self, workers: usize) -> &TrialReport {
            &self
                .reports
                .iter()
                .find(|(w, _)| *w == workers)
                .expect("worker column present")
                .1
        }
        fn speedup_vs_loop(&self, workers: usize) -> f64 {
            self.serial_loop_ns / self.at(workers).ns_per_round()
        }
    }
    let workers_sweep = [1usize, 2, 4, 8];
    let trial_seed = 20240601u64;
    let serial_ns = |entries: &[Entry], name: &str| -> f64 {
        entries
            .iter()
            .find(|e| e.name == name)
            .expect("serial-loop baseline row present")
            .fast
            .ns_per_op
    };
    let mut trial_rows: Vec<TrialRow> = Vec::new();

    // EQ-path trials (the r = 32 shape is the PR-4 acceptance gate; r = 128
    // runs the multi-word lane walk, two coin words per trial).
    for &r in &[8usize, 32, 128] {
        let proto = EqPathProtocol::with_scheme(r, scheme.clone(), 1);
        let plan = proto.round_plan(&x, &y, ChainCheat::Interpolate);
        let n = 2_000_000u64;
        let reports = workers_sweep
            .iter()
            .map(|&w| (w, trials::run_trials_with_workers(&plan, n, trial_seed, w)))
            .collect();
        trial_rows.push(TrialRow {
            name: format!("eq_path_trials_r{r}"),
            serial_loop_ns: serial_ns(&entries, &format!("eq_path_round_r{r}")),
            reports,
        });
    }

    // Mixed-proof EQ-path trials: the density-frontier walk with per-worker
    // scratch reuse (frontier/conjugation/traced-down buffers hoisted).
    {
        let proto = EqPathProtocol::with_scheme(8, scheme.clone(), 1);
        let chain = proto.chain(&x, &y);
        let right_state = proto.one_way().alice_message(&y);
        let proof: Vec<DensityMatrix> =
            cheating_proof(&chain, &right_state, ChainCheat::Interpolate)
                .iter()
                .map(|(a, b)| DensityMatrix::from_pure(&a.tensor(b)))
                .collect();
        let sampler = chain.mixed_sampler(&proof);
        // ≥ 8 RNG blocks (BLOCK_TRIALS = 8192) so the w8 column really
        // runs 8 threads instead of being clamped by the block count.
        let n = 10 * trials::BLOCK_TRIALS;
        // Steady-state guard: the sampler embedded every kernel plan its
        // frontier walk touches at construction, so the timed sweep below
        // must perform ZERO plan compilations — if the plan layer silently
        // regressed to rebuild-per-call, this trips before a bogus row is
        // written.
        let compiles_before = qsim::plan::compile_count();
        let reports = workers_sweep
            .iter()
            .map(|&w| {
                (
                    w,
                    trials::run_trials_with_workers(&sampler, n, trial_seed, w),
                )
            })
            .collect();
        let compiled = qsim::plan::compile_count() - compiles_before;
        assert_eq!(
            compiled, 0,
            "steady-state mixed-proof rounds compiled {compiled} kernel plans \
             (must be zero: every plan is embedded in the round plan)"
        );
        println!("steady-state mixed-proof plan compilations: {compiled} (gate: 0)");
        trial_rows.push(TrialRow {
            name: "eq_path_trials_mixed_r8".to_string(),
            serial_loop_ns: serial_ns(&entries, "eq_path_round_mixed_r8"),
            reports,
        });
    }

    // EQ-tree trials on the 3-leg spider instance above.
    {
        let legs = 3usize;
        let g = topology::spider(legs, 1);
        let terminals: Vec<usize> = (0..legs).map(|k| topology::spider_leaf(k, 1)).collect();
        let proto = EqTreeProtocol::with_scheme(
            &g,
            &terminals,
            FingerprintScheme::with_parameters(4, 1, 1, 9),
            1,
        );
        let mut inputs = vec![x.clone(); terminals.len()];
        inputs[legs - 1] = y.clone();
        let plan = proto.round_plan(&inputs, &proto.uniform_proof(&x));
        let n = 2_000_000u64;
        let reports = workers_sweep
            .iter()
            .map(|&w| (w, trials::run_trials_with_workers(&plan, n, trial_seed, w)))
            .collect();
        trial_rows.push(TrialRow {
            name: format!("eq_tree_trials_t{legs}"),
            serial_loop_ns: serial_ns(&entries, &format!("eq_tree_round_t{legs}")),
            reports,
        });
    }

    // Relay trials: every round runs one repetition of every segment; the
    // serial loop re-prepares fingerprints and proofs per round, the plan
    // hoists all of it.
    {
        let r = 16usize;
        let proto = RelayEqProtocol::with_spacing(4, r, 2, 11);
        let relays = vec![x.clone(); proto.relay_points().len()];
        let plan = proto.round_plan(&x, &y, &relays, ChainCheat::Interpolate);
        let n = 1_000_000u64;
        let reports = workers_sweep
            .iter()
            .map(|&w| (w, trials::run_trials_with_workers(&plan, n, trial_seed, w)))
            .collect();
        trial_rows.push(TrialRow {
            name: format!("relay_trials_r{r}"),
            serial_loop_ns: serial_ns(&entries, &format!("relay_round_r{r}")),
            reports,
        });
    }

    // SIMD executor rows (PR 7): the scalar lane oracle against the AVX2
    // executors, timed in the same process by toggling
    // `qsim::simd::set_enabled` around otherwise identical runs — so the
    // `speedup_simd_vs_scalar` column is a same-machine, same-binary ratio
    // (the only quantity the CI gate reads; absolute ns/round are not
    // comparable across hosts). In non-`simd` builds or on hosts without
    // AVX2 the toggle clamps to the scalar path and the ratio sits at ~1.0.
    // Accept counts must be bit-identical across the toggle — that is the
    // vectorisation contract, and each row asserts it before reporting.
    struct SimdRow {
        name: String,
        scalar: TrialReport,
        simd: TrialReport,
        /// Same-run single-lane scalar walk — the engine shape PR 5 shipped
        /// (one trial per table walk). Present on rows whose acceptance gate
        /// is "lane-batched engine vs that walk"; the scalar-vs-AVX2 ratio
        /// alone undersells those rows because the lane restructure speeds
        /// up the *scalar* path too.
        lane1: Option<TrialReport>,
    }
    impl SimdRow {
        fn speedup(&self) -> f64 {
            self.scalar.ns_per_round() / self.simd.ns_per_round()
        }
        fn engine_speedup(&self) -> Option<f64> {
            self.lane1
                .as_ref()
                .map(|l| l.ns_per_round() / self.simd.ns_per_round())
        }
    }
    let simd_available = qsim::simd::available();
    let mut simd_rows: Vec<SimdRow> = Vec::new();
    let mut timed_simd_pair =
        |name: &str, run: &dyn Fn() -> TrialReport, lane1_run: Option<&dyn Fn() -> TrialReport>| {
            let saved = qsim::simd::enabled();
            qsim::simd::set_enabled(false);
            let scalar = run();
            let lane1 = lane1_run.map(|r| r());
            qsim::simd::set_enabled(true);
            let simd = run();
            qsim::simd::set_enabled(saved);
            assert_eq!(
                scalar.accepts, simd.accepts,
                "{name}: scalar and SIMD accept counts diverged (bit-identity contract)"
            );
            if let Some(l) = &lane1 {
                assert_eq!(
                    l.accepts, scalar.accepts,
                    "{name}: lane-width-1 accept count diverged (lane invariance contract)"
                );
            }
            simd_rows.push(SimdRow {
                name: name.to_string(),
                scalar,
                simd,
                lane1,
            });
        };

    // Lane-batched trial loop, r = 32 EQ-path shape (the same instance as
    // the PR-4 gate row `eq_path_trials_r32`, single worker so the ratio
    // isolates the lane executors from thread fan-out). The lane-engine gate
    // compares against the same-run single-lane scalar walk — the PR-5
    // engine shape — because the lane restructure (chunk-fused tables +
    // batched counter RNG fills) accelerates the scalar path as well, and
    // the gate is about the engine, not the instruction set alone.
    {
        let proto = EqPathProtocol::with_scheme(32, scheme.clone(), 1);
        let plan = proto.round_plan(&x, &y, ChainCheat::Interpolate);
        let n = 2_000_000u64;
        timed_simd_pair(
            "eq_path_trials_simd_r32",
            &|| trials::run_trials_with_workers(&plan, n, trial_seed, 1),
            Some(&|| {
                trials::run_trials_with_workers(
                    &trials::with_lane_width(&plan, 1),
                    n,
                    trial_seed,
                    1,
                )
            }),
        );
    }

    // Mixed-proof kernels on a d = 4 chain. The sampler compiles each node's
    // frontier step onto the sent register's Hermitian-basis coordinates, so
    // a round is seven real 16-dots + 16×16 real mat-vecs ([`qsim::simd::dot4`]
    // / [`matvec_cols`]) — d = 4 lands the mat-vec exactly on the
    // register-resident AVX2 fast path this row exists to gate.
    {
        let r = 8usize;
        let left = gen.random_pure(&[4]);
        let right = gen.random_pure(&[4]);
        let effect = CMatrix::projector(right.amplitudes());
        let chain = SwapTestChain::new(r, left, effect);
        let proof: Vec<DensityMatrix> = cheating_proof(&chain, &right, ChainCheat::Interpolate)
            .iter()
            .map(|(a, b)| DensityMatrix::from_pure(&a.tensor(b)))
            .collect();
        let sampler = chain.mixed_sampler(&proof);
        let n = 2 * trials::BLOCK_TRIALS;
        timed_simd_pair(
            "mixed_kernels_simd_r8",
            &|| trials::run_trials_with_workers(&sampler, n, trial_seed, 1),
            None,
        );
    }

    // Report.
    print_header(
        "bench_protocols: matrix-free measurements vs dense-projector oracles",
        &[
            "benchmark",
            "matrix-free",
            "dense",
            "speedup",
            "dense(memo)",
        ],
    );
    let mut report = JsonReport::new();
    for e in &entries {
        print_row(&[
            e.name.clone(),
            fmt_ns(e.fast.ns_per_op),
            e.dense
                .as_ref()
                .map_or("unreachable".to_string(), |t| fmt_ns(t.ns_per_op)),
            e.speedup().map_or("—".to_string(), |s| format!("{s:.1}x")),
            e.dense_cached
                .as_ref()
                .map_or("—".to_string(), |t| fmt_ns(t.ns_per_op)),
        ]);
        report.push(&[
            ("name", JsonValue::Str(e.name.clone())),
            // Storage layout of the matrix-free column ("soa" split re/im
            // from PR 3 on); the oracle columns go through the dense
            // projector path. Keeps cross-PR comparison of
            // BENCH_protocols.json unambiguous.
            ("layout", JsonValue::Str("soa".to_string())),
            (
                "baseline_layout",
                JsonValue::Str("dense-projector".to_string()),
            ),
            ("ns_per_op", JsonValue::Num(e.fast.ns_per_op)),
            ("ops_per_sec", JsonValue::Num(e.fast.ops_per_sec)),
            ("iters", JsonValue::Int(e.fast.iters)),
            (
                "dense_ns_per_op",
                JsonValue::Num(e.dense.as_ref().map_or(f64::NAN, |t| t.ns_per_op)),
            ),
            (
                "speedup_vs_dense",
                JsonValue::Num(e.speedup().unwrap_or(f64::NAN)),
            ),
            (
                "dense_cached_ns_per_op",
                JsonValue::Num(e.dense_cached.as_ref().map_or(f64::NAN, |t| t.ns_per_op)),
            ),
            (
                "speedup_vs_dense_cached",
                JsonValue::Num(e.speedup_cached().unwrap_or(f64::NAN)),
            ),
        ]);
    }

    // Batched-trial table and JSON rows.
    print_header(
        "bench_protocols: batched trial engine (ns/round, serial loop vs worker threads)",
        &[
            "benchmark",
            "serial loop",
            "batched w1",
            "w2",
            "w4",
            "w8",
            "speedup w8",
            "deterministic",
        ],
    );
    for row in &trial_rows {
        print_row(&[
            row.name.clone(),
            fmt_ns(row.serial_loop_ns),
            fmt_ns(row.at(1).ns_per_round()),
            fmt_ns(row.at(2).ns_per_round()),
            fmt_ns(row.at(4).ns_per_round()),
            fmt_ns(row.at(8).ns_per_round()),
            format!("{:.1}x", row.speedup_vs_loop(8)),
            if row.deterministic() { "yes" } else { "NO" }.to_string(),
        ]);
        // Per-worker field names, declared before `fields` so the borrowed
        // keys outlive it.
        let keys: Vec<(String, String)> = row
            .reports
            .iter()
            .map(|(w, _)| (format!("ns_per_round_w{w}"), format!("rounds_per_sec_w{w}")))
            .collect();
        let mut fields = vec![
            ("name", JsonValue::Str(row.name.clone())),
            ("kind", JsonValue::Str("batched_trials".to_string())),
            ("trials", JsonValue::Int(row.at(1).trials)),
            ("accepts", JsonValue::Int(row.at(1).accepts)),
            (
                "acceptance_rate",
                JsonValue::Num(row.at(1).acceptance_rate()),
            ),
            (
                "serial_loop_ns_per_round",
                JsonValue::Num(row.serial_loop_ns),
            ),
            (
                "speedup_batched_vs_loop",
                JsonValue::Num(row.speedup_vs_loop(1)),
            ),
            ("speedup_w8_vs_loop", JsonValue::Num(row.speedup_vs_loop(8))),
            (
                "accepts_identical_across_workers",
                JsonValue::Str(row.deterministic().to_string()),
            ),
        ];
        for ((ns_key, rps_key), (_, r)) in keys.iter().zip(row.reports.iter()) {
            fields.push((ns_key.as_str(), JsonValue::Num(r.ns_per_round())));
            fields.push((rps_key.as_str(), JsonValue::Num(r.rounds_per_sec())));
        }
        report.push(&fields);
    }

    // SIMD executor table and JSON rows.
    print_header(
        "bench_protocols: SIMD executors (scalar lane oracle vs AVX2, same run)",
        &[
            "benchmark",
            "scalar w1",
            "simd w1",
            "speedup",
            "vs lane1",
            "bit-identical",
            "avx2",
        ],
    );
    for row in &simd_rows {
        print_row(&[
            row.name.clone(),
            fmt_ns(row.scalar.ns_per_round()),
            fmt_ns(row.simd.ns_per_round()),
            format!("{:.2}x", row.speedup()),
            row.engine_speedup()
                .map_or("—".to_string(), |s| format!("{s:.2}x")),
            "yes".to_string(), // asserted at collection time
            if simd_available { "yes" } else { "no" }.to_string(),
        ]);
        let mut fields = vec![
            ("name", JsonValue::Str(row.name.clone())),
            ("kind", JsonValue::Str("simd_trials".to_string())),
            ("trials", JsonValue::Int(row.simd.trials)),
            ("accepts", JsonValue::Int(row.simd.accepts)),
            ("simd_available", JsonValue::Str(simd_available.to_string())),
            (
                "scalar_ns_per_round_w1",
                JsonValue::Num(row.scalar.ns_per_round()),
            ),
            ("ns_per_round_w1", JsonValue::Num(row.simd.ns_per_round())),
            (
                "rounds_per_sec_w1",
                JsonValue::Num(row.simd.rounds_per_sec()),
            ),
            ("speedup_simd_vs_scalar", JsonValue::Num(row.speedup())),
            (
                "accepts_identical_scalar_vs_simd",
                JsonValue::Str("true".to_string()),
            ),
        ];
        if let (Some(l), Some(s)) = (&row.lane1, row.engine_speedup()) {
            fields.push((
                "lane1_scalar_ns_per_round_w1",
                JsonValue::Num(l.ns_per_round()),
            ));
            fields.push(("speedup_vs_lane1_scalar", JsonValue::Num(s)));
        }
        report.push(&fields);
    }

    // Acceptance gate: ≥ 10× on the permutation-test acceptance at d=2, k=4.
    let gate = entries
        .iter()
        .find(|e| e.name == "perm_accept_d2_k4")
        .expect("acceptance benchmark present");
    let gate_speedup = gate.speedup().expect("dense oracle timed");
    let meets = gate_speedup >= 10.0;
    println!(
        "\nacceptance: perm_accept_d2_k4 speedup {gate_speedup:.1}x (target >= 10x) — {}",
        if meets { "OK" } else { "MISS" }
    );
    println!("eq-path rounds benched up to r = {eq_path_max_r} (dense joint path stops at r = 4)");

    // PR-4 acceptance gate: ≥ 10× rounds/sec on the r = 32 EQ-path shape at
    // 8 workers vs the serial per-round loop, with accept counts identical
    // across worker counts.
    let trial_gate = trial_rows
        .iter()
        .find(|r| r.name == "eq_path_trials_r32")
        .expect("trial gate row present");
    let trial_gate_speedup = trial_gate.speedup_vs_loop(8);
    let trials_deterministic = trial_rows.iter().all(|r| r.deterministic());
    let trial_meets = trial_gate_speedup >= 10.0 && trials_deterministic;
    println!(
        "acceptance: eq_path_trials_r32 batched w8 speedup {trial_gate_speedup:.1}x (target >= 10x), accept counts worker-invariant: {trials_deterministic} — {}",
        if trial_meets { "OK" } else { "MISS" }
    );

    // PR-5 acceptance gate: ≥ 5× rounds/sec on the mixed-proof r = 8 shape
    // at 8 workers vs the rebuild-per-call serial loop — the row the
    // compiled kernel-plan layer exists for (it sat at ~0.9–1.1× through
    // PR 4, dominated by per-call kernel metadata).
    let mixed_gate = trial_rows
        .iter()
        .find(|r| r.name == "eq_path_trials_mixed_r8")
        .expect("mixed trial gate row present");
    let mixed_gate_speedup = mixed_gate.speedup_vs_loop(8);
    let mixed_meets = mixed_gate_speedup >= 5.0;
    println!(
        "acceptance: eq_path_trials_mixed_r8 batched w8 speedup {mixed_gate_speedup:.1}x (target >= 5x) — {}",
        if mixed_meets { "OK" } else { "MISS" }
    );

    // PR-7 acceptance gates, both same-run ratios: the lane-batched AVX2
    // engine ≥ 4× over the single-lane scalar walk (the PR-5 engine shape —
    // the lane restructure speeds the scalar path up too, so the ratio
    // credits both the layout and the instruction set), and the compiled
    // mixed-proof kernels ≥ 2× AVX2-vs-scalar. Informational when the
    // binary lacks the `simd` feature or the host lacks AVX2 — CI runs the
    // gated configuration explicitly.
    let simd_row = |name: &str| -> &SimdRow {
        simd_rows
            .iter()
            .find(|r| r.name == name)
            .expect("simd gate row present")
    };
    let simd_trial_speedup = simd_row("eq_path_trials_simd_r32")
        .engine_speedup()
        .expect("engine gate row carries a lane-1 baseline");
    let simd_mixed_speedup = simd_row("mixed_kernels_simd_r8").speedup();
    let simd_trial_meets = simd_trial_speedup >= 4.0;
    let simd_mixed_meets = simd_mixed_speedup >= 2.0;
    let simd_verdict = |meets: bool| {
        if !simd_available {
            "n/a (no AVX2 in this build)"
        } else if meets {
            "OK"
        } else {
            "MISS"
        }
    };
    println!(
        "acceptance: eq_path_trials_simd_r32 lane-batched AVX2 engine vs single-lane scalar walk {simd_trial_speedup:.2}x (target >= 4x) — {}",
        simd_verdict(simd_trial_meets)
    );
    println!(
        "acceptance: mixed_kernels_simd_r8 simd-vs-scalar speedup {simd_mixed_speedup:.2}x (target >= 2x) — {}",
        simd_verdict(simd_mixed_meets)
    );

    let json = report.render(&[
        ("suite", JsonValue::Str("bench_protocols".to_string())),
        ("layout", JsonValue::Str("soa".to_string())),
        (
            "acceptance_perm_d2_k4_speedup",
            JsonValue::Num(gate_speedup),
        ),
        ("meets_10x_target", JsonValue::Str(meets.to_string())),
        (
            "batched_eq_path_r32_w8_speedup",
            JsonValue::Num(trial_gate_speedup),
        ),
        (
            "batched_mixed_r8_w8_speedup",
            JsonValue::Num(mixed_gate_speedup),
        ),
        (
            "mixed_meets_5x_target",
            JsonValue::Str(mixed_meets.to_string()),
        ),
        (
            "batched_meets_10x_target",
            JsonValue::Str(trial_meets.to_string()),
        ),
        (
            "batched_accepts_worker_invariant",
            JsonValue::Str(trials_deterministic.to_string()),
        ),
        ("simd_available", JsonValue::Str(simd_available.to_string())),
        (
            "simd_eq_path_r32_speedup",
            JsonValue::Num(simd_trial_speedup),
        ),
        (
            "simd_mixed_kernels_r8_speedup",
            JsonValue::Num(simd_mixed_speedup),
        ),
        (
            "simd_meets_4x_target",
            JsonValue::Str(simd_trial_meets.to_string()),
        ),
        (
            "simd_mixed_meets_2x_target",
            JsonValue::Str(simd_mixed_meets.to_string()),
        ),
        ("eq_path_max_r", JsonValue::Int(eq_path_max_r as u64)),
    ]);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_protocols.json");
    std::fs::write(path, &json).expect("write BENCH_protocols.json");
    println!("wrote {path}");

    // Sanity: the matrix-free measurements must agree with the dense oracles
    // on a spot check, so a silently-broken path can't report a speedup.
    let (dims, targets) = shape(2, 4);
    let rho = gen.random_density(&dims, 2);
    let fast = permutation_test_acceptance_on(&rho, &targets);
    let slow = naive::permutation_test_acceptance_on(&rho, &targets);
    assert!(
        (fast - slow).abs() < 1e-12,
        "matrix-free/dense acceptance divergence: {fast} vs {slow}"
    );
    let mut a = rho.clone();
    project_symmetric_on(&mut a, &targets);
    let mut b = rho.clone();
    naive::apply_symmetric_effect(&mut b, &targets, true);
    assert!(
        a.matrix().approx_eq(b.matrix(), 1e-12),
        "matrix-free/dense effect divergence"
    );
}
