//! Statistical end-to-end tests of the sampled protocol rounds.
//!
//! PR 2 gave every protocol of §3–§4 a sampled `simulate_round` API (one
//! Bernoulli draw per node measurement, no joint density matrix); this suite
//! pins their *acceptance statistics* to the exact closed forms and to the
//! paper's completeness/soundness guarantees (Lemmas 13–18, Theorem 19):
//!
//! * **Yes-instances** accept with probability exactly 1 (perfect
//!   completeness — Lemma 13/15 accept identical states with certainty), so
//!   every sampled round must accept, not just most.
//! * **No-instances** must reject a positive fraction of rounds: the
//!   empirical acceptance rate is pinned to the exact
//!   `acceptance_separable` value within a Hoeffding/Chernoff deviation
//!   bound, and the rejection rate is bounded below by the paper's
//!   per-round soundness gap (`≥ 4/(81 r²)` for the chain, Section 3.2).
//! * **Determinism**: the samplers draw only from the caller's seeded RNG,
//!   so a fixed seed must reproduce the exact accept/reject sequence.
//!
//! Every assertion margin comes from the two-sided Hoeffding bound
//! `Pr[|p̂ − p| ≥ ε] ≤ 2·exp(−2nε²)`: with `ε = hoeffding_margin(n)` a
//! *correct* sampler fails a run with probability at most `δ = 10⁻⁹` — and
//! since the RNG is seeded, a pass is reproduced bit-for-bit on every run.

use commproto::bitstring::BitString;
use commproto::fingerprint::FingerprintScheme;
use dqma::chain::{cheating_proof, ChainCheat, SwapTestChain};
use dqma::eq_path::EqPathProtocol;
use dqma::eq_tree::EqTreeProtocol;
use dqma::relay::RelayEqProtocol;
use dqma::trials::{run_trials_with_workers, TrialReport};
use netsim::topology;
use qsim::{CMatrix, PureState};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Two-sided Hoeffding deviation `ε` such that a correct Bernoulli sampler
/// violates `|p̂ − p| < ε` over `trials` draws with probability ≤ 1e-9
/// (the shared `δ = 1e-9` helper of [`dqma::trials::stats`]).
fn hoeffding_margin(trials: usize) -> f64 {
    dqma::trials::stats::hoeffding_margin(trials as u64)
}

/// Empirical acceptance rate of `trials` sampled rounds.
fn rate(trials: usize, mut round: impl FnMut() -> bool) -> f64 {
    (0..trials).filter(|_| round()).count() as f64 / trials as f64
}

/// Chain with boundary states `|0>` and `|1>` (an orthogonal no-instance:
/// the right effect accepts only the state orthogonal to the left one).
fn orthogonal_chain(r: usize) -> (SwapTestChain, PureState) {
    let left = PureState::single(2, 0);
    let right_state = PureState::single(2, 1);
    let effect = CMatrix::projector(right_state.amplitudes());
    (SwapTestChain::new(r, left, effect), right_state)
}

#[test]
fn chain_yes_instance_rounds_always_accept() {
    // Perfect completeness (Lemma 13): every SWAP test sees identical
    // states and Bob's effect accepts the honest fingerprint with
    // probability 1, so *all* sampled rounds must accept.
    let left = PureState::single(2, 0);
    let effect = CMatrix::projector(left.amplitudes());
    let chain = SwapTestChain::new(5, left, effect);
    let proof = chain.honest_proof();
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    for round in 0..500 {
        assert!(
            chain.simulate_round(&proof, &mut rng),
            "honest round {round} rejected on a yes-instance"
        );
    }
}

#[test]
fn chain_no_instance_rate_is_chernoff_consistent_with_exact_acceptance() {
    let trials = 6000;
    let eps = hoeffding_margin(trials);
    for r in [2usize, 3, 4] {
        let (chain, right_state) = orthogonal_chain(r);
        for cheat in [
            ChainCheat::AllLeft,
            ChainCheat::AllRight,
            ChainCheat::Interpolate,
        ] {
            let proof = cheating_proof(&chain, &right_state, cheat);
            let exact = chain.acceptance_separable(&proof);
            let mut rng = StdRng::seed_from_u64(1000 + r as u64);
            let est = rate(trials, || chain.simulate_round(&proof, &mut rng));
            assert!(
                (est - exact).abs() < eps,
                "r={r} {cheat:?}: estimated {est} vs exact {exact} (margin {eps})"
            );
        }
    }
}

#[test]
fn chain_no_instance_rejection_rate_is_bounded_below_by_the_paper_gap() {
    // Section 3.2: one repetition of the chain accepts a no-instance with
    // probability at most 1 − 4/(81 r²), whatever the separable strategy.
    // Two claims, neither vacuous: the *exact* rejection probability clears
    // the paper gap outright (deterministic), and the *sampled* rate clears
    // `gap + ε` — a sound one-sided Hoeffding certificate that the sampler's
    // true rejection exceeds the gap (here the exact rejections are ≥ 0.3,
    // far above `gap + ε ≈ 0.05`, so a correct sampler passes with
    // probability ≥ 1 − δ and a sampler that under-rejects fails).
    let trials = 6000;
    let eps = hoeffding_margin(trials);
    for r in [2usize, 4] {
        let (chain, right_state) = orthogonal_chain(r);
        let gap = 4.0 / (81.0 * (r * r) as f64);
        for cheat in [
            ChainCheat::AllLeft,
            ChainCheat::AllRight,
            ChainCheat::Interpolate,
        ] {
            let proof = cheating_proof(&chain, &right_state, cheat);
            let exact_rejection = 1.0 - chain.acceptance_separable(&proof);
            assert!(
                exact_rejection >= gap,
                "r={r} {cheat:?}: exact rejection {exact_rejection} below paper gap {gap}"
            );
            let mut rng = StdRng::seed_from_u64(2000 + r as u64);
            let rejection = 1.0 - rate(trials, || chain.simulate_round(&proof, &mut rng));
            assert!(
                rejection > gap + eps,
                "r={r} {cheat:?}: sampled rejection {rejection} does not certify the gap {gap}"
            );
        }
    }
}

#[test]
fn chain_mixed_proof_sampler_matches_the_pure_fast_path_statistics() {
    // The density-frontier sampler (`simulate_round_mixed`) and the
    // pure-state fast path draw from the same distribution when the mixed
    // proof is the product embedding of a pure proof.
    let trials = 3000;
    let eps = 2.0 * hoeffding_margin(trials);
    let (chain, right_state) = orthogonal_chain(3);
    let proof = cheating_proof(&chain, &right_state, ChainCheat::Interpolate);
    let exact = chain.acceptance_separable(&proof);
    let mixed: Vec<qsim::DensityMatrix> = proof
        .iter()
        .map(|(a, b)| qsim::DensityMatrix::from_pure(&a.tensor(b)))
        .collect();
    let mut rng = StdRng::seed_from_u64(3000);
    let est = rate(trials, || chain.simulate_round_mixed(&mixed, &mut rng));
    assert!(
        (est - exact).abs() < eps,
        "mixed sampler {est} vs exact {exact}"
    );
}

#[test]
fn eq_path_honest_rounds_always_accept_and_cheats_are_chernoff_consistent() {
    let proto = EqPathProtocol::with_scheme(3, FingerprintScheme::small(4, 7), 4);
    let x = BitString::from_u64(3, 4);
    let y = BitString::from_u64(12, 4);
    let mut rng = StdRng::seed_from_u64(4000);
    // Completeness: every honest round on a yes-instance accepts.
    for round in 0..200 {
        assert!(
            proto.simulate_honest_round(&x, &mut rng),
            "honest EQ-path round {round} rejected"
        );
    }
    // Soundness statistics: the sampled no-instance rate tracks the exact
    // single-round acceptance within the Chernoff margin for every cheat.
    let trials = 4000;
    let eps = hoeffding_margin(trials);
    for cheat in [
        ChainCheat::AllLeft,
        ChainCheat::AllRight,
        ChainCheat::Interpolate,
    ] {
        let exact = proto.single_round_acceptance(&x, &y, cheat);
        let est = rate(trials, || proto.simulate_round(&x, &y, cheat, &mut rng));
        assert!(
            (est - exact).abs() < eps,
            "{cheat:?}: estimated {est} vs exact {exact}"
        );
        // And the per-round rejection gap of Section 3.2 holds: exactly
        // (deterministic) and via the sampled rate's one-sided certificate
        // (`> gap + ε`, non-vacuous — the exact rejections here are ≈ 0.2+).
        let gap = 4.0 / (81.0 * 9.0);
        assert!(
            1.0 - exact >= gap,
            "{cheat:?}: exact rejection {} below the paper gap {gap}",
            1.0 - exact
        );
        assert!(
            1.0 - est > gap + eps,
            "{cheat:?}: sampled rejection {} does not certify the gap {gap}",
            1.0 - est
        );
    }
}

#[test]
fn eq_tree_sampled_rounds_match_exact_acceptance_on_both_instance_kinds() {
    // Spider with 3 legs: the centre runs the permutation test on all its
    // children at once (Algorithm 5).
    let g = topology::spider(3, 1);
    let terminals: Vec<usize> = (0..3).map(|k| topology::spider_leaf(k, 1)).collect();
    let proto = EqTreeProtocol::with_scheme(
        &g,
        &terminals,
        FingerprintScheme::with_parameters(4, 1, 1, 5),
        4,
    );
    let x = BitString::from_u64(9, 4);
    let y = BitString::from_u64(6, 4);
    let proof = proto.uniform_proof(&x);
    let mut rng = StdRng::seed_from_u64(5000);

    // Yes-instance: identical terminal inputs, honest proof — Lemma 15 gives
    // acceptance exactly 1, so every sampled round must accept.
    let honest_inputs = vec![x.clone(); terminals.len()];
    for round in 0..200 {
        assert!(
            proto.simulate_round(&honest_inputs, &proof, &mut rng),
            "honest EQ-tree round {round} rejected"
        );
    }

    // No-instance: one differing terminal. The sampled rate is pinned to the
    // exact symmetrisation-averaged acceptance, which Lemma 16 bounds away
    // from 1.
    let mut inputs = vec![x.clone(); terminals.len()];
    inputs[1] = y;
    let exact = proto.acceptance_separable(&inputs, &proof);
    assert!(
        exact < 1.0 - 1e-4,
        "no-instance must have an acceptance gap"
    );
    let trials = 4000;
    let eps = hoeffding_margin(trials);
    let est = rate(trials, || proto.simulate_round(&inputs, &proof, &mut rng));
    assert!(
        (est - exact).abs() < eps,
        "EQ-tree estimated {est} vs exact {exact}"
    );

    // The density-matrix sampler draws from the same distribution (it runs
    // the matrix-free permutation test per node instead of the Gram closed
    // form). Fewer trials — each round builds per-node joint states.
    let trials_density = 1500;
    let eps_density = hoeffding_margin(trials_density);
    let est_density = rate(trials_density, || {
        proto.simulate_round_via_density(&inputs, &proof, &mut rng)
    });
    assert!(
        (est_density - exact).abs() < eps_density,
        "EQ-tree density sampler {est_density} vs exact {exact}"
    );
}

#[test]
fn relay_rounds_accept_yes_instances_and_reject_no_instances_at_the_segment_gap() {
    let proto = RelayEqProtocol::with_spacing(4, 6, 2, 3);
    let x = BitString::from_u64(11, 4);
    let y = BitString::from_u64(4, 4);
    let honest_relays = vec![x.clone(); proto.relay_points().len()];
    let mut rng = StdRng::seed_from_u64(6000);

    // Yes-instance with honest relay strings: every segment chain is honest,
    // so every sampled round accepts.
    for round in 0..200 {
        assert!(
            proto.simulate_round(&x, &x, &honest_relays, ChainCheat::AllLeft, &mut rng),
            "honest relay round {round} rejected"
        );
    }

    // No-instance (x ≠ y) with honest-looking relays: the final segment has
    // differing endpoint strings, so by the chain bound it rejects with
    // probability at least 4/(81 s²) for segment length s = spacing. The
    // sampled rate must clear `gap + ε` — the one-sided Hoeffding
    // certificate that the true rejection exceeds the gap (non-vacuous: the
    // measured rejection is ≈ 0.49, an order of magnitude above gap + ε).
    let trials = 4000;
    let eps = hoeffding_margin(trials);
    let seg_gap = 4.0 / (81.0 * (proto.spacing() * proto.spacing()) as f64);
    let est = rate(trials, || {
        proto.simulate_round(&x, &y, &honest_relays, ChainCheat::Interpolate, &mut rng)
    });
    assert!(
        1.0 - est > seg_gap + eps,
        "relay no-instance rejection {} does not certify per-segment gap {seg_gap}",
        1.0 - est
    );
}

/// Worker counts the determinism contract is pinned at (the PR-4 issue's
/// 1/2/4 plus 8 for the bench sweep width).
const WORKER_SWEEP: [usize; 4] = [1, 2, 4, 8];

/// Asserts that re-running `run` at every sweep width reproduces the exact
/// accept count of the width-1 report, and returns that baseline.
fn assert_worker_invariant(label: &str, run: impl Fn(usize) -> TrialReport) -> TrialReport {
    let base = run(1);
    for &workers in &WORKER_SWEEP[1..] {
        let r = run(workers);
        assert_eq!(
            (r.trials, r.accepts),
            (base.trials, base.accepts),
            "{label}: TrialReport must be identical at {workers} workers"
        );
    }
    base
}

#[test]
fn batched_trial_reports_are_identical_across_worker_counts() {
    // The engine's determinism contract: for a fixed (protocol, seed, n),
    // the accept count is a pure function of the per-block RNG streams —
    // blocks are keyed by index, not by the worker that happens to run
    // them — so 1, 2, 4 and 8 workers must produce the same TrialReport
    // counts. All four protocol samplers are pinned.
    // ≥ 8 blocks of BLOCK_TRIALS = 8192 trials, so the 8-worker leg of the
    // sweep actually dispatches 8 slots instead of being clamped to the
    // block count.
    let n = 9 * dqma::trials::BLOCK_TRIALS;

    let (chain, right_state) = orthogonal_chain(4);
    let proof = cheating_proof(&chain, &right_state, ChainCheat::Interpolate);
    let chain_plan = chain.round_plan(&proof);
    let chain_base = assert_worker_invariant("chain", |w| {
        run_trials_with_workers(&chain_plan, n, 0xA11CE, w)
    });
    // And a different seed must explore a different outcome sequence.
    let other = run_trials_with_workers(&chain_plan, n, 0xB0B, 1);
    assert_ne!(chain_base.accepts, other.accepts);

    let proto = EqPathProtocol::with_scheme(3, FingerprintScheme::small(4, 7), 4);
    let x = BitString::from_u64(3, 4);
    let y = BitString::from_u64(12, 4);
    let path_plan = proto.round_plan(&x, &y, ChainCheat::Interpolate);
    assert_worker_invariant("eq_path", |w| {
        run_trials_with_workers(&path_plan, n, 0xC0DE, w)
    });

    let g = topology::spider(3, 1);
    let terminals: Vec<usize> = (0..3).map(|k| topology::spider_leaf(k, 1)).collect();
    let tree = EqTreeProtocol::with_scheme(
        &g,
        &terminals,
        FingerprintScheme::with_parameters(4, 1, 1, 5),
        4,
    );
    let tx = BitString::from_u64(9, 4);
    let mut inputs = vec![tx.clone(); terminals.len()];
    inputs[1] = BitString::from_u64(6, 4);
    let tree_proof = tree.uniform_proof(&tx);
    let tree_plan = tree.round_plan(&inputs, &tree_proof);
    assert_worker_invariant("eq_tree", |w| {
        run_trials_with_workers(&tree_plan, n, 0xDEED, w)
    });

    let relay = RelayEqProtocol::with_spacing(4, 6, 2, 3);
    let rx = BitString::from_u64(11, 4);
    let ry = BitString::from_u64(4, 4);
    let relays = vec![rx.clone(); relay.relay_points().len()];
    let relay_plan = relay.round_plan(&rx, &ry, &relays, ChainCheat::Interpolate);
    assert_worker_invariant("relay", |w| {
        run_trials_with_workers(&relay_plan, n, 0xFEED, w)
    });
}

/// Lane widths the vectorisation contract is pinned at: serial (1), one
/// AVX2 register (4), two registers (8) and the engine default (32).
const LANE_SWEEP: [usize; 4] = [1, 4, 8, 32];

/// Asserts that running `plan` through the lane-batched engine reproduces the
/// default engine's `TrialReport` bit for bit at every lane width in
/// [`LANE_SWEEP`], every worker count in [`WORKER_SWEEP`], and with the SIMD
/// executors both disabled and enabled (the latter clamps to the scalar path
/// on hosts without AVX2 or in non-`simd` builds — the contract is precisely
/// that this must not be observable).
fn assert_lane_invariant<S: dqma::trials::LaneBatched>(
    label: &str,
    plan: &S,
    n: u64,
    seed: u64,
    base: &TrialReport,
) {
    let saved = qsim::simd::enabled();
    for simd_on in [false, true] {
        let effective = qsim::simd::set_enabled(simd_on);
        for &lanes in &LANE_SWEEP {
            for &workers in &WORKER_SWEEP {
                let pinned = dqma::trials::with_lane_width(plan, lanes);
                let r = run_trials_with_workers(&pinned, n, seed, workers);
                assert_eq!(
                    (r.trials, r.accepts),
                    (base.trials, base.accepts),
                    "{label}: lanes={lanes} workers={workers} simd={effective} \
                     must match the default engine bit for bit"
                );
                assert_eq!(
                    r.wilson_interval(5.0),
                    base.wilson_interval(5.0),
                    "{label}: lanes={lanes} workers={workers} simd={effective} \
                     Wilson interval drifted"
                );
            }
        }
    }
    qsim::simd::set_enabled(saved);
}

/// Rate of `n` rounds of the per-trial `round` walk on a sequential stream
/// independent of the engine's counter streams.
fn round_walk_rate(n: u64, seed: u64, mut round: impl FnMut(&mut StdRng) -> bool) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).filter(|_| round(&mut rng)).count() as f64 / n as f64
}

/// Asserts that two independent estimates of one acceptance probability,
/// over `n_a` and `n_b` trials, agree within the sum of their Hoeffding
/// margins.
fn assert_rates_agree(label: &str, a: f64, n_a: u64, b: f64, n_b: u64) {
    let eps = hoeffding_margin(n_a as usize) + hoeffding_margin(n_b as usize);
    assert!(
        (a - b).abs() < eps,
        "{label}: lane rate {a} vs round-walk rate {b} (margin {eps})"
    );
}

#[test]
fn lane_batched_reports_are_identical_across_lane_widths_workers_and_simd() {
    // PR 7's vectorisation contract: the accept count is a pure function of
    // (protocol, seed, n) — per-trial RNG streams are keyed by (block,
    // trial), not by the lane or worker that happens to execute the trial,
    // and the AVX2 executors are lane-wise IEEE-identical to the scalar
    // oracle — so every cell of the lane × worker × simd grid must reproduce
    // the default engine's TrialReport exactly, for all four protocols.
    let n = 9 * dqma::trials::BLOCK_TRIALS;

    let (chain, right_state) = orthogonal_chain(4);
    let proof = cheating_proof(&chain, &right_state, ChainCheat::Interpolate);
    let chain_plan = chain.round_plan(&proof);
    let chain_base = run_trials_with_workers(&chain_plan, n, 0xA11CE, 1);
    assert_lane_invariant("chain", &chain_plan, n, 0xA11CE, &chain_base);

    let proto = EqPathProtocol::with_scheme(3, FingerprintScheme::small(4, 7), 4);
    let x = BitString::from_u64(3, 4);
    let y = BitString::from_u64(12, 4);
    let path_plan = proto.round_plan(&x, &y, ChainCheat::Interpolate);
    let path_base = run_trials_with_workers(&path_plan, n, 0xC0DE, 1);
    assert_lane_invariant("eq_path", &path_plan, n, 0xC0DE, &path_base);

    let g = topology::spider(3, 1);
    let terminals: Vec<usize> = (0..3).map(|k| topology::spider_leaf(k, 1)).collect();
    let tree = EqTreeProtocol::with_scheme(
        &g,
        &terminals,
        FingerprintScheme::with_parameters(4, 1, 1, 5),
        4,
    );
    let tx = BitString::from_u64(9, 4);
    let mut inputs = vec![tx.clone(); terminals.len()];
    inputs[1] = BitString::from_u64(6, 4);
    let tree_proof = tree.uniform_proof(&tx);
    let tree_plan = tree.round_plan(&inputs, &tree_proof);
    let tree_base = run_trials_with_workers(&tree_plan, n, 0xDEED, 1);
    assert_lane_invariant("eq_tree", &tree_plan, n, 0xDEED, &tree_base);

    let relay = RelayEqProtocol::with_spacing(4, 6, 2, 3);
    let rx = BitString::from_u64(11, 4);
    let ry = BitString::from_u64(4, 4);
    let relays = vec![rx.clone(); relay.relay_points().len()];
    let relay_plan = relay.round_plan(&rx, &ry, &relays, ChainCheat::Interpolate);
    let relay_base = run_trials_with_workers(&relay_plan, n, 0xFEED, 1);
    assert_lane_invariant("relay", &relay_plan, n, 0xFEED, &relay_base);

    // Chains longer than 62 intermediate nodes draw one coin word per 63
    // nodes. Their counts must be as invariant across lanes × workers ×
    // SIMD as single-word chains, and their rates must agree with the
    // node-by-node `round` walk. For k ≤ 62 the lane walk is unchanged, so
    // the counts below r = 64 are the ones recorded before multi-word coins.
    let pinned = [(32usize, 72422u64), (62, 73077), (63, 73086)];
    for r in [32usize, 62, 63, 64, 65, 127, 128, 256] {
        let proto = EqPathProtocol::with_scheme(r, FingerprintScheme::small(4, 7), 4);
        let plan = proto.round_plan(&x, &y, ChainCheat::Interpolate);
        let base = run_trials_with_workers(&plan, n, 0xC0DE, 1);
        let label = format!("eq_path r={r}");
        if let Some(&(_, accepts)) = pinned.iter().find(|&&(pr, _)| pr == r) {
            assert_eq!(
                base.accepts, accepts,
                "{label}: k <= 62 counts must not move"
            );
        }
        if r < 63 {
            continue;
        }
        assert_lane_invariant(&label, &plan, n, 0xC0DE, &base);
        let walk = round_walk_rate(n, r as u64, |rng| plan.round(rng));
        assert_rates_agree(&label, base.acceptance_rate(), n, walk, n);
    }

    // A relay whose two segments each span 70 edges (two coin words each):
    // the segments' planes are drawn in segment order, then the accept draw.
    let relay = RelayEqProtocol::with_spacing(4, 140, 70, 3);
    let relays = vec![rx.clone(); relay.relay_points().len()];
    let plan = relay.round_plan(&rx, &ry, &relays, ChainCheat::Interpolate);
    let base = run_trials_with_workers(&plan, n, 0xFEED, 1);
    assert_lane_invariant("relay r=140", &plan, n, 0xFEED, &base);
    let walk = round_walk_rate(n, 140, |rng| plan.round(rng));
    assert_rates_agree("relay r=140", base.acceptance_rate(), n, walk, n);
}

#[test]
fn batched_rates_match_the_exact_acceptances_and_the_paper_gap() {
    // The batched engine must reproduce the statistics this suite already
    // pins for the serial samplers: rates within the Hoeffding margin of
    // the exact closed forms, perfect completeness, and the 4/(81 r²)
    // rejection gap — at a fraction of the serial loop's wall clock.
    let trials = 40_000u64;

    // Chain no-instances, every cheat.
    for r in [2usize, 4] {
        let (chain, right_state) = orthogonal_chain(r);
        let gap = 4.0 / (81.0 * (r * r) as f64);
        for cheat in [
            ChainCheat::AllLeft,
            ChainCheat::AllRight,
            ChainCheat::Interpolate,
        ] {
            let proof = cheating_proof(&chain, &right_state, cheat);
            let exact = chain.acceptance_separable(&proof);
            let report =
                run_trials_with_workers(&chain.round_plan(&proof), trials, 9000 + r as u64, 1);
            let eps = report.hoeffding_radius(1e-9);
            assert!(
                (report.acceptance_rate() - exact).abs() < eps,
                "r={r} {cheat:?}: batched rate {} vs exact {exact} (margin {eps})",
                report.acceptance_rate()
            );
            assert!(
                report.rejection_rate() > gap + eps,
                "r={r} {cheat:?}: batched rejection {} does not certify the gap {gap}",
                report.rejection_rate()
            );
            let (lo, hi) = report.wilson_interval(5.0);
            assert!(
                lo <= exact && exact <= hi,
                "r={r} {cheat:?}: wilson ({lo},{hi}) misses {exact}"
            );
        }
    }

    // EQ-path completeness: every batched honest trial accepts.
    let proto = EqPathProtocol::with_scheme(3, FingerprintScheme::small(4, 7), 4);
    let x = BitString::from_u64(3, 4);
    let honest_chain = proto.chain(&x, &x);
    let honest_plan = honest_chain.round_plan(&honest_chain.honest_proof());
    let honest = run_trials_with_workers(&honest_plan, 10_000, 31, 1);
    assert_eq!(
        honest.accepts, honest.trials,
        "honest batched EQ-path rounds must all accept"
    );

    // EQ-tree no-instance pinned to the exact symmetrisation average.
    let g = topology::spider(3, 1);
    let terminals: Vec<usize> = (0..3).map(|k| topology::spider_leaf(k, 1)).collect();
    let tree = EqTreeProtocol::with_scheme(
        &g,
        &terminals,
        FingerprintScheme::with_parameters(4, 1, 1, 5),
        4,
    );
    let tx = BitString::from_u64(9, 4);
    let mut inputs = vec![tx.clone(); terminals.len()];
    inputs[1] = BitString::from_u64(6, 4);
    let tree_proof = tree.uniform_proof(&tx);
    let exact = tree.acceptance_separable(&inputs, &tree_proof);
    let report = run_trials_with_workers(&tree.round_plan(&inputs, &tree_proof), trials, 33, 1);
    let eps = report.hoeffding_radius(1e-9);
    assert!(
        (report.acceptance_rate() - exact).abs() < eps,
        "batched EQ-tree rate {} vs exact {exact}",
        report.acceptance_rate()
    );

    // Relay: yes-instances all accept; no-instances certify the segment gap.
    let relay = RelayEqProtocol::with_spacing(4, 6, 2, 3);
    let rx = BitString::from_u64(11, 4);
    let ry = BitString::from_u64(4, 4);
    let relays = vec![rx.clone(); relay.relay_points().len()];
    let yes_plan = relay.round_plan(&rx, &rx, &relays, ChainCheat::AllLeft);
    let yes = run_trials_with_workers(&yes_plan, 10_000, 35, 1);
    assert_eq!(yes.accepts, yes.trials);
    let no_plan = relay.round_plan(&rx, &ry, &relays, ChainCheat::Interpolate);
    let no = run_trials_with_workers(&no_plan, trials, 37, 1);
    let seg_gap = 4.0 / (81.0 * (relay.spacing() * relay.spacing()) as f64);
    assert!(
        no.rejection_rate() > seg_gap + no.hoeffding_radius(1e-9),
        "batched relay rejection {} does not certify per-segment gap {seg_gap}",
        no.rejection_rate()
    );
}

#[test]
fn transport_fault_outcomes_are_identical_across_worker_counts() {
    // PR 6 extends the determinism contract to the fault-injecting
    // transport runtime: for a fixed (program, FaultPlan, seed, n), every
    // field of the merged BlockOutcomes — accepts, rejects, aborts, message
    // and retry counts, and the XOR transcript digest — is a pure function
    // of the per-block RNG streams, so the whole worker sweep must agree
    // bit for bit even while drops, duplication and latency jitter are all
    // active.
    let n = 9 * dqma::trials::BLOCK_TRIALS;
    let proto = EqPathProtocol::with_scheme(3, FingerprintScheme::small(4, 7), 4);
    let x = BitString::from_u64(3, 4);
    let y = BitString::from_u64(12, 4);
    let program = proto.net_program(&x, &y, ChainCheat::Interpolate);
    let plan = netsim::FaultPlan {
        drop_rate: 0.15,
        ack_drop_rate: 0.05,
        duplicate_rate: 0.05,
        latency_base: 64,
        latency_jitter: 512,
        ..netsim::FaultPlan::none()
    };
    let policy = netsim::RetryPolicy::default();
    let base = dqma::net::sample_transport_rounds(&program, &plan, &policy, n, 0xFA017, 1);
    assert_eq!(
        base.outcomes.accepts + base.outcomes.rejects + base.outcomes.aborts,
        n,
        "every trial must terminate in exactly one outcome"
    );
    assert!(
        base.outcomes.retries > 0,
        "faults must force retransmissions"
    );
    for &workers in &WORKER_SWEEP[1..] {
        let r = dqma::net::sample_transport_rounds(&program, &plan, &policy, n, 0xFA017, workers);
        assert_eq!(
            r.outcomes, base.outcomes,
            "fault-schedule outcomes must be bit-identical at {workers} workers"
        );
    }
    // A different seed must explore a different transcript.
    let other = dqma::net::sample_transport_rounds(&program, &plan, &policy, n, 0xB0B, 1);
    assert_ne!(
        other.outcomes.digest, base.outcomes.digest,
        "different seeds must produce different transcript digests"
    );
}

#[test]
fn sampled_rounds_are_deterministic_for_a_fixed_seed() {
    // The samplers consume randomness only through the caller's RNG, so a
    // fixed seed reproduces the exact accept/reject sequence — this is what
    // makes every statistical assertion in this suite run-to-run stable.
    let (chain, right_state) = orthogonal_chain(3);
    let proof = cheating_proof(&chain, &right_state, ChainCheat::Interpolate);
    let run = |seed: u64| -> Vec<bool> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..300)
            .map(|_| chain.simulate_round(&proof, &mut rng))
            .collect()
    };
    assert_eq!(run(42), run(42), "chain sampler must be deterministic");
    assert_ne!(
        run(42),
        run(43),
        "different seeds must explore different outcome sequences"
    );

    let g = topology::spider(3, 1);
    let terminals: Vec<usize> = (0..3).map(|k| topology::spider_leaf(k, 1)).collect();
    let proto = EqTreeProtocol::with_scheme(
        &g,
        &terminals,
        FingerprintScheme::with_parameters(4, 1, 1, 5),
        4,
    );
    let x = BitString::from_u64(9, 4);
    let mut inputs = vec![x.clone(); terminals.len()];
    inputs[2] = BitString::from_u64(6, 4);
    let tree_proof = proto.uniform_proof(&x);
    let tree_run = |seed: u64| -> Vec<bool> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..300)
            .map(|_| proto.simulate_round(&inputs, &tree_proof, &mut rng))
            .collect()
    };
    assert_eq!(
        tree_run(7),
        tree_run(7),
        "tree sampler must be deterministic"
    );
}
