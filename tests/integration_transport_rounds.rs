//! Soundness-under-faults scenario suite for the message-passing runtime.
//!
//! PR 6 re-expresses the four protocol round paths as per-node programs over
//! the fault-injecting transport of `netsim::transport` (`dqma::net`). This
//! suite pins the two properties the ISSUE's acceptance criteria name:
//!
//! * **Fault-free fidelity** — over a zero-fault channel transport, every
//!   protocol's accept rate statistically matches its in-process sampler
//!   (both are `Bernoulli(E_c[Π_v p_v(c)])`; the Hoeffding margin makes the
//!   comparison a `δ = 10⁻⁹` certificate), honest instances accept every
//!   round, and no messages are retried or lost.
//! * **Graceful degradation** — under drops, latency, partitions and
//!   crashes, *every* trial terminates as Accept / Reject / Aborted (never a
//!   hang, never a panic), honest completeness decays monotonically with the
//!   drop rate, a full partition aborts every round, and a crashed verifier
//!   surfaces a `FaultReport` rather than poisoning the run.
//!
//! Determinism under faults (bit-identical outcomes at any worker count) is
//! pinned next door in `integration_sampled_rounds.rs`.

use commproto::bitstring::BitString;
use commproto::fingerprint::FingerprintScheme;
use dqma::chain::{cheating_proof, ChainCheat, SwapTestChain};
use dqma::eq_path::EqPathProtocol;
use dqma::eq_tree::EqTreeProtocol;
use dqma::net::{self, run_round, RoundProgram};
use dqma::relay::RelayEqProtocol;
use dqma::trials::BlockRng;
use netsim::{
    topology, CrashWindow, FaultCause, FaultPlan, FaultyTransport, LocalChannelTransport,
    PartitionWindow, RetryPolicy, RoundOutcome, VTime,
};
use qsim::{CMatrix, PureState};

// Two-sided Hoeffding deviation at failure probability 1e-9: the shared
// helper of `dqma::trials::stats`.
use dqma::trials::stats::hoeffding_margin;

fn no_faults() -> FaultPlan {
    FaultPlan::none()
}

fn policy() -> RetryPolicy {
    RetryPolicy::default()
}

/// Chain with boundary states `|0>` / `|1>` (an orthogonal no-instance).
fn orthogonal_chain(r: usize) -> (SwapTestChain, PureState) {
    let left = PureState::single(2, 0);
    let right_state = PureState::single(2, 1);
    let effect = CMatrix::projector(right_state.amplitudes());
    (SwapTestChain::new(r, left, effect), right_state)
}

fn eq_path_protocol() -> (EqPathProtocol, BitString, BitString) {
    let proto = EqPathProtocol::with_scheme(3, FingerprintScheme::small(4, 7), 4);
    (proto, BitString::from_u64(3, 4), BitString::from_u64(12, 4))
}

fn eq_tree_protocol() -> (EqTreeProtocol, Vec<BitString>, Vec<BitString>) {
    let g = topology::spider(3, 1);
    let terminals: Vec<usize> = (0..3).map(|k| topology::spider_leaf(k, 1)).collect();
    let proto = EqTreeProtocol::with_scheme(
        &g,
        &terminals,
        FingerprintScheme::with_parameters(4, 1, 1, 5),
        4,
    );
    let x = BitString::from_u64(9, 4);
    let honest = vec![x.clone(); terminals.len()];
    let mut differing = honest.clone();
    differing[1] = BitString::from_u64(6, 4);
    (proto, honest, differing)
}

#[test]
fn zero_fault_transport_rounds_match_in_process_samplers_for_all_four_protocols() {
    let trials = 30_000u64;
    let eps = hoeffding_margin(trials);

    // Chain: transport walk vs exact separable acceptance.
    let (chain, right_state) = orthogonal_chain(4);
    let proof = cheating_proof(&chain, &right_state, ChainCheat::Interpolate);
    let exact = chain.acceptance_separable(&proof);
    let program = chain.net_program(&proof);
    let report = net::sample_transport_rounds(&program, &no_faults(), &policy(), trials, 0xC41, 1);
    assert_eq!(report.outcomes.aborts, 0, "no faults, no aborts");
    assert_eq!(report.outcomes.retries, 0, "no faults, no retries");
    assert!(
        (report.accept_rate() - exact).abs() < eps,
        "chain transport rate {} vs exact {exact} (margin {eps})",
        report.accept_rate()
    );

    // EQ-path: cheat statistics match the exact single-round acceptance,
    // and the honest instance keeps perfect completeness end to end.
    let (proto, x, y) = eq_path_protocol();
    let exact = proto.single_round_acceptance(&x, &y, ChainCheat::Interpolate);
    let program = proto.net_program(&x, &y, ChainCheat::Interpolate);
    let report = net::sample_transport_rounds(&program, &no_faults(), &policy(), trials, 0xE9, 1);
    assert!(
        (report.accept_rate() - exact).abs() < eps,
        "eq_path transport rate {} vs exact {exact}",
        report.accept_rate()
    );
    let honest = proto.net_program(&x, &x, ChainCheat::AllLeft);
    let report = net::sample_transport_rounds(&honest, &no_faults(), &policy(), 10_000, 0xEA, 1);
    assert_eq!(
        report.outcomes.accepts, report.trials,
        "honest transport rounds must all accept"
    );

    // EQ-tree: per-node permutation-test walk vs the exact symmetrisation
    // average, plus perfect completeness on equal inputs.
    let (tree, honest_inputs, differing_inputs) = eq_tree_protocol();
    let tree_proof = tree.uniform_proof(&honest_inputs[0]);
    let exact = tree.acceptance_separable(&differing_inputs, &tree_proof);
    let program = tree.net_program(&differing_inputs, &tree_proof);
    let report = net::sample_transport_rounds(&program, &no_faults(), &policy(), trials, 0x7E, 1);
    assert!(
        (report.accept_rate() - exact).abs() < eps,
        "eq_tree transport rate {} vs exact {exact}",
        report.accept_rate()
    );
    let honest_program = tree.net_program(&honest_inputs, &tree_proof);
    let report =
        net::sample_transport_rounds(&honest_program, &no_faults(), &policy(), 10_000, 0x7F, 1);
    assert_eq!(report.outcomes.accepts, report.trials);

    // Relay: honest yes-instance accepts everywhere; the no-instance's
    // transport rate matches the plan-based sampler's within two margins.
    let relay = RelayEqProtocol::with_spacing(4, 6, 2, 3);
    let rx = BitString::from_u64(11, 4);
    let ry = BitString::from_u64(4, 4);
    let relays = vec![rx.clone(); relay.relay_points().len()];
    let yes = relay.net_program(&rx, &rx, &relays, ChainCheat::AllLeft);
    let report = net::sample_transport_rounds(&yes, &no_faults(), &policy(), 10_000, 0x4E, 1);
    assert_eq!(report.outcomes.accepts, report.trials);
    let no = relay.net_program(&rx, &ry, &relays, ChainCheat::Interpolate);
    let transport_report =
        net::sample_transport_rounds(&no, &no_faults(), &policy(), trials, 0x4F, 1);
    let in_process = relay.sample_rounds(&rx, &ry, &relays, ChainCheat::Interpolate, trials, 0x50);
    assert!(
        (transport_report.accept_rate() - in_process.acceptance_rate()).abs() < 2.0 * eps,
        "relay transport rate {} vs in-process rate {}",
        transport_report.accept_rate(),
        in_process.acceptance_rate()
    );
}

#[test]
fn honest_completeness_degrades_monotonically_with_drop_rate() {
    // The retry budget (5 attempts) makes per-message failure ≈ drop⁵, so
    // the honest accept rate falls from 1.0 towards 0 as the drop rate
    // climbs — monotonically, and with gaps far wider than the sampling
    // noise at these rates.
    let (proto, x, _) = eq_path_protocol();
    let program = proto.net_program(&x, &x, ChainCheat::AllLeft);
    let trials = 16_384u64;
    let eps = hoeffding_margin(trials);
    let mut rates = Vec::new();
    for (i, drop) in [0.0, 0.3, 0.6, 0.9].into_iter().enumerate() {
        let plan = FaultPlan::with_drop(drop);
        let report =
            net::sample_transport_rounds(&program, &plan, &policy(), trials, 0xD0 + i as u64, 1);
        assert_eq!(
            report.outcomes.accepts + report.outcomes.rejects + report.outcomes.aborts,
            trials,
            "drop={drop}: every trial must terminate"
        );
        // Honest instance: completeness is lost only through aborts.
        assert_eq!(
            report.outcomes.rejects, 0,
            "drop={drop}: honest rounds never reject, they abort"
        );
        rates.push(report.accept_rate());
    }
    assert_eq!(rates[0], 1.0, "zero faults must preserve completeness");
    for pair in rates.windows(2) {
        assert!(
            pair[1] <= pair[0] + eps,
            "accept rate must degrade monotonically with drop rate: {rates:?}"
        );
    }
    assert!(
        rates[3] < rates[0] - 0.2,
        "a 0.9 drop rate must visibly destroy completeness: {rates:?}"
    );
}

#[test]
fn every_trial_terminates_under_combined_fault_schedules() {
    // Drops + ack loss + duplication + latency jitter + random crashes all
    // at once: the run must still tally exactly `trials` terminal outcomes
    // (the no-hang/no-panic acceptance criterion), with some of every kind.
    let (proto, x, y) = eq_path_protocol();
    let program = proto.net_program(&x, &y, ChainCheat::Interpolate);
    let plan = FaultPlan {
        drop_rate: 0.3,
        ack_drop_rate: 0.1,
        duplicate_rate: 0.1,
        latency_base: 128,
        latency_jitter: 4096,
        crash_rate: 0.05,
        crash_onset_window: 1 << 14,
        crash_restart_after: 0,
        ..FaultPlan::none()
    };
    let trials = 16_384u64;
    let report = net::sample_transport_rounds(&program, &plan, &policy(), trials, 0xFEE, 1);
    assert_eq!(
        report.outcomes.accepts + report.outcomes.rejects + report.outcomes.aborts,
        trials,
        "every trial must terminate in exactly one outcome"
    );
    assert!(
        report.outcomes.aborts > 0,
        "this schedule must abort rounds"
    );
    assert!(
        report.outcomes.accepts > 0,
        "retries must still push some rounds through"
    );
    assert!(report.outcomes.retries > 0);
}

#[test]
fn a_full_partition_aborts_every_round() {
    let (proto, x, _) = eq_path_protocol();
    let program = proto.net_program(&x, &x, ChainCheat::AllLeft);
    let plan = FaultPlan {
        partitions: vec![PartitionWindow {
            start: 0,
            end: VTime::MAX,
            edges: vec![(1, 2)],
        }],
        ..FaultPlan::none()
    };
    let trials = 2_048u64;
    let report = net::sample_transport_rounds(&program, &plan, &policy(), trials, 0xBAD, 1);
    assert_eq!(
        report.outcomes.aborts, trials,
        "a severed edge on the only path must abort every round"
    );
    assert_eq!(report.abort_rate(), 1.0);
}

#[test]
fn a_crashed_verifier_surfaces_a_fault_report_with_its_cause() {
    let (proto, x, _) = eq_path_protocol();
    let program = proto.net_program(&x, &x, ChainCheat::AllLeft);
    let plan = FaultPlan {
        crashes: vec![CrashWindow {
            node: 2,
            start: 0,
            end: VTime::MAX,
        }],
        ..FaultPlan::none()
    };
    let mut transport =
        FaultyTransport::new(LocalChannelTransport::poll(program.num_nodes()), plan);
    let trial = BlockRng::new(0x1CE, 0).trial(77);
    let (outcome, _) = run_round(&program, &mut transport, &policy(), trial);
    match outcome {
        RoundOutcome::Aborted(report) => {
            assert!(
                matches!(report.cause, FaultCause::RetriesExhausted { to: 2, .. })
                    || matches!(report.cause, FaultCause::NodeCrashed { .. }),
                "unexpected cause: {:?}",
                report.cause
            );
        }
        other => panic!("expected an abort, got {other:?}"),
    }
}

/// Shared assertion for the abort-never-reject regression: on an honest
/// instance, a fault schedule may destroy rounds but must surface every
/// casualty as an abort — a silent reject would turn an infrastructure
/// failure into a (false) soundness verdict.
fn assert_honest_rounds_abort_never_reject<P: RoundProgram>(
    name: &str,
    program: &P,
    plan: &FaultPlan,
    seed: u64,
) {
    let trials = 1_024u64;
    let report = net::sample_transport_rounds(program, plan, &policy(), trials, seed, 1);
    assert_eq!(
        report.outcomes.rejects, 0,
        "{name}: honest rounds must never reject under faults"
    );
    assert_eq!(
        report.outcomes.accepts + report.outcomes.aborts,
        trials,
        "{name}: every trial must terminate as accept or abort"
    );
    assert_eq!(
        report.outcomes.aborts, trials,
        "{name}: this schedule severs the protocol every round"
    );
}

#[test]
fn honest_instances_abort_never_reject_under_total_loss_for_all_four_protocols() {
    // 100% drop rate: the first hop's retry budget always exhausts.
    let plan = FaultPlan::with_drop(1.0);

    let (chain, _) = orthogonal_chain(4);
    let program = chain.net_program(&chain.honest_proof());
    assert_honest_rounds_abort_never_reject("chain", &program, &plan, 0xD401);

    let (proto, x, _) = eq_path_protocol();
    let program = proto.net_program(&x, &x, ChainCheat::AllLeft);
    assert_honest_rounds_abort_never_reject("eq_path", &program, &plan, 0xD402);

    let (tree, honest_inputs, _) = eq_tree_protocol();
    let tree_proof = tree.uniform_proof(&honest_inputs[0]);
    let program = tree.net_program(&honest_inputs, &tree_proof);
    assert_honest_rounds_abort_never_reject("eq_tree", &program, &plan, 0xD403);

    let relay = RelayEqProtocol::with_spacing(4, 6, 2, 3);
    let rx = BitString::from_u64(11, 4);
    let relays = vec![rx.clone(); relay.relay_points().len()];
    let program = relay.net_program(&rx, &rx, &relays, ChainCheat::AllLeft);
    assert_honest_rounds_abort_never_reject("relay", &program, &plan, 0xD404);
}

#[test]
fn honest_instances_abort_never_reject_when_a_peer_dies_mid_round_for_all_four_protocols() {
    // A permanently-down node whose crash window opens only after the
    // first hop's deterministic 128 vns latency: the round is genuinely
    // in flight when the peer disappears, and never recovers.
    let mid_round_kill = |node: usize| FaultPlan {
        latency_base: 128,
        crashes: vec![CrashWindow {
            node,
            start: 130,
            end: VTime::MAX,
        }],
        ..FaultPlan::none()
    };

    let (chain, _) = orthogonal_chain(4);
    let program = chain.net_program(&chain.honest_proof());
    assert_honest_rounds_abort_never_reject("chain", &program, &mid_round_kill(2), 0xD411);

    let (proto, x, _) = eq_path_protocol();
    let program = proto.net_program(&x, &x, ChainCheat::AllLeft);
    assert_honest_rounds_abort_never_reject("eq_path", &program, &mid_round_kill(2), 0xD412);

    // Spider centre: every repetition's permutation test runs there.
    let (tree, honest_inputs, _) = eq_tree_protocol();
    let tree_proof = tree.uniform_proof(&honest_inputs[0]);
    let program = tree.net_program(&honest_inputs, &tree_proof);
    assert_honest_rounds_abort_never_reject("eq_tree", &program, &mid_round_kill(0), 0xD413);

    // A relay point: both adjacent segments lose their meeting point.
    let relay = RelayEqProtocol::with_spacing(4, 6, 2, 3);
    let rx = BitString::from_u64(11, 4);
    let relays = vec![rx.clone(); relay.relay_points().len()];
    let program = relay.net_program(&rx, &rx, &relays, ChainCheat::AllLeft);
    let relay_point = relay.relay_points()[0];
    assert_honest_rounds_abort_never_reject(
        "relay",
        &program,
        &mid_round_kill(relay_point),
        0xD414,
    );
}

#[test]
fn tree_rounds_survive_latency_reordering() {
    // The spider's centre gathers three children whose messages arrive in
    // jitter-scrambled order; source attribution must keep the permutation
    // test's coin wiring straight, so the accept rate still matches the
    // exact value — now with latency active rather than zero faults.
    let (tree, _, differing_inputs) = eq_tree_protocol();
    let tree_proof = tree.uniform_proof(&differing_inputs[0]);
    let exact = tree.acceptance_separable(&differing_inputs, &tree_proof);
    let program = tree.net_program(&differing_inputs, &tree_proof);
    let plan = FaultPlan {
        latency_base: 32,
        latency_jitter: 2048,
        ..FaultPlan::none()
    };
    let trials = 30_000u64;
    let eps = hoeffding_margin(trials);
    let report = net::sample_transport_rounds(&program, &plan, &policy(), trials, 0x17EE, 1);
    assert_eq!(report.outcomes.aborts, 0, "latency alone must not abort");
    assert!(
        (report.accept_rate() - exact).abs() < eps,
        "reordered tree rate {} vs exact {exact}",
        report.accept_rate()
    );
}
