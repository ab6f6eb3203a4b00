//! End-to-end tests of the multi-process TCP runtime (`dqma::cluster`).
//!
//! These spawn real `dqma-node` OS processes (one per protocol node) over
//! loopback TCP and pin the two acceptance criteria of the distributed
//! mode:
//!
//! * **Bit-identity** — the fault-free fleet reproduces the in-process
//!   transport sampler's accept/reject decisions, unique message counts
//!   and transcript digest exactly (every node process opens its own
//!   `BlockRng::trial(t).node_rng(node)` stream, the same one the
//!   sequential driver hands it; spurious retransmissions under host load
//!   are deduplicated and tolerated);
//! * **Crash-recovery** — killing a process mid-workload degrades the
//!   affected trials to aborts (honest rounds never silently reject), the
//!   supervisor restarts and re-handshakes the victim, and a subsequent
//!   fault-free run is again bit-identical.
//!
//! Environments without a bindable loopback interface skip gracefully:
//! every test treats a failed `Cluster::launch` as a skip, mirroring the
//! TCP unit tests in `netsim::tcp`.

use std::path::PathBuf;
use std::time::Duration;

use commproto::bitstring::BitString;
use commproto::fingerprint::FingerprintScheme;
use dqma::chain::ChainCheat;
use dqma::cluster::{ChurnEvent, ChurnSchedule, Cluster, ClusterConfig, ProgramSpec};
use dqma::eq_path::EqPathProtocol;
use dqma::net::{sample_transport_rounds, ChainNetProgram, RoundProgram};
use dqma::trials::BlockOutcomes;
use netsim::{FaultPlan, RetryPolicy};

fn cluster_config(batch: u64) -> ClusterConfig {
    ClusterConfig {
        node_bin: PathBuf::from(env!("CARGO_BIN_EXE_dqma-node")),
        batch,
        ..ClusterConfig::default()
    }
}

fn eq_path_program(r: usize, equal: bool) -> ChainNetProgram {
    let protocol = EqPathProtocol::with_scheme(r, FingerprintScheme::small(8, 11), 4);
    let x = BitString::from_u64(0b1011_0110, 8);
    let y = if equal {
        x.clone()
    } else {
        BitString::from_u64(0b0110_1011, 8)
    };
    protocol.net_program(&x, &y, ChainCheat::Interpolate)
}

fn launch_or_skip(spec: ProgramSpec, cfg: ClusterConfig) -> Option<Cluster> {
    match Cluster::launch(spec, cfg) {
        Ok(c) => Some(c),
        Err(e) => {
            eprintln!("skipping TCP cluster test (no usable loopback?): {e}");
            None
        }
    }
}

fn in_process_reference(
    program: &ChainNetProgram,
    policy: &RetryPolicy,
    trials: u64,
    seed: u64,
) -> BlockOutcomes {
    sample_transport_rounds(program, &FaultPlan::none(), policy, trials, seed, 1).outcomes
}

fn assert_bit_identical(fleet: &BlockOutcomes, reference: &BlockOutcomes, label: &str) {
    assert_eq!(fleet.accepts, reference.accepts, "{label}: accepts");
    assert_eq!(fleet.rejects, reference.rejects, "{label}: rejects");
    assert_eq!(fleet.aborts, reference.aborts, "{label}: aborts");
    // `sent` counts every attempt and `retries` the re-attempts, so
    // `sent − retries` is the unique-message count. Host load can make a
    // wall-clock send timeout fire spuriously over real TCP — the
    // retransmission is deduplicated at the receiver and changes no
    // decision or digest — so only the unique count is load-invariant.
    assert_eq!(
        fleet.messages - fleet.retries,
        reference.messages - reference.retries,
        "{label}: unique messages"
    );
    assert_eq!(
        fleet.digest, reference.digest,
        "{label}: transcript digest must be bit-identical"
    );
}

/// The headline acceptance criterion: EQ-path at r = 32 — 33 node
/// processes over real TCP — reproduces the in-process sampler's
/// decisions bit-for-bit, on both a yes-instance (every round accepts)
/// and a no-instance (a nontrivial accept/reject mix).
#[test]
fn eq_path_r32_fleet_matches_in_process_sampler_bit_for_bit() {
    let trials = 512u64;
    for (equal, seed, label) in [(true, 0x7C9, "honest"), (false, 0x7CA, "cheating")] {
        let program = eq_path_program(32, equal);
        assert_eq!(program.num_nodes(), 33, "path 0..=32, one process per node");
        let cfg = cluster_config(2_048);
        let policy = cfg.policy.clone();
        let Some(mut cluster) = launch_or_skip(ProgramSpec::from_chain(&program), cfg) else {
            return;
        };
        let report = cluster
            .run(trials, seed, &ChurnSchedule::none())
            .expect("fault-free cluster run");
        cluster.shutdown();
        assert_eq!(report.trials, trials);
        assert_eq!(report.restarts, 0, "{label}: no churn, no restarts");
        let reference = in_process_reference(&program, &policy, trials, seed);
        assert_bit_identical(&report.outcomes, &reference, label);
        if equal {
            assert_eq!(
                report.outcomes.accepts, trials,
                "honest EQ-path rounds must all accept over TCP"
            );
        } else {
            assert!(
                report.outcomes.rejects > 0,
                "the no-instance must reject some rounds"
            );
        }
    }
}

/// Crash-recovery: a process killed mid-workload costs its batch's
/// remaining trials as **aborts** (never rejections of the honest
/// input), is restarted and re-handshaken by the supervisor, and the
/// resumed fleet is again bit-identical on a fresh fault-free run.
#[test]
fn mid_workload_kill_restart_degrades_to_aborts_and_resumes() {
    let trials = 256u64;
    let program = eq_path_program(3, true);
    let cfg = cluster_config(64);
    let policy = cfg.policy.clone();
    let Some(mut cluster) = launch_or_skip(ProgramSpec::from_chain(&program), cfg) else {
        return;
    };

    let churn = ChurnSchedule::new(vec![ChurnEvent::Kill {
        at_trial: 64,
        node: 2,
        restart_delay: Duration::from_millis(50),
    }]);
    let report = cluster
        .run(trials, 0xC1A0, &churn)
        .expect("churn run must complete");
    assert_eq!(
        report.outcomes.accepts + report.outcomes.rejects + report.outcomes.aborts,
        trials,
        "every trial must terminate with an outcome"
    );
    assert_eq!(
        report.outcomes.rejects, 0,
        "honest rounds must never reject under churn — they abort"
    );
    assert!(
        report.outcomes.aborts > 0,
        "the mid-workload kill must abort the trials in flight"
    );
    assert!(
        report.outcomes.accepts > 0,
        "batches outside the kill window must still accept"
    );
    assert_eq!(report.restarts, 1, "exactly one restart");

    // The restarted fleet resumes cleanly: a fresh fault-free run is
    // bit-identical to the in-process sampler again.
    let seed = 0x5EED;
    let resumed = cluster
        .run(trials, seed, &ChurnSchedule::none())
        .expect("post-restart run");
    cluster.shutdown();
    let reference = in_process_reference(&program, &policy, trials, seed);
    assert_bit_identical(&resumed.outcomes, &reference, "post-restart");
    assert_eq!(resumed.outcomes.accepts, trials);
}

/// A stalled (livelocked, not crashed) node folds to aborts within the
/// batch deadline instead of hanging the whole fleet: the supervisor's
/// `batch_deadline` bounds how long a batch may run, a node that simply
/// stops responding is declared dead and killed when it fires, its
/// in-flight trials degrade to aborts, and the restarted fleet recovers
/// to full bit-identical accepts on the next run.
#[test]
fn stalled_node_folds_to_aborts_within_the_batch_deadline() {
    let trials = 64u64;
    let program = eq_path_program(3, true);
    let cfg = ClusterConfig {
        node_bin: PathBuf::from(env!("CARGO_BIN_EXE_dqma-node")),
        batch: 64,
        batch_deadline: Some(Duration::from_secs(2)),
        ..ClusterConfig::default()
    };
    let policy = cfg.policy.clone();
    let Some(mut cluster) = launch_or_skip(ProgramSpec::from_chain(&program), cfg) else {
        return;
    };

    // Node 2 goes unresponsive for far longer than the deadline — the
    // hang case the deadline exists for (a crash would be detected by the
    // connection dropping; a stall would previously wedge collect_batch).
    let stall = Duration::from_secs(60);
    cluster.inject_stall(2, stall);
    let started = std::time::Instant::now();
    let report = cluster
        .run(trials, 0x57A1, &ChurnSchedule::none())
        .expect("stalled run must still complete");
    assert!(
        started.elapsed() < stall,
        "the batch deadline must fire long before the stall ends \
         (took {:?})",
        started.elapsed()
    );
    assert_eq!(
        report.outcomes.accepts + report.outcomes.rejects + report.outcomes.aborts,
        trials,
        "every trial must terminate with an outcome despite the stall"
    );
    assert!(
        report.outcomes.aborts > 0,
        "the stalled batch must fold to aborts"
    );
    assert_eq!(
        report.outcomes.rejects, 0,
        "honest rounds must never reject under a stall — they abort"
    );
    assert!(report.restarts >= 1, "the stalled node must be restarted");

    // The fleet recovers: a fresh run is bit-identical to the in-process
    // sampler again.
    let seed = 0x57A2;
    let resumed = cluster
        .run(trials, seed, &ChurnSchedule::none())
        .expect("post-stall run");
    cluster.shutdown();
    let reference = in_process_reference(&program, &policy, trials, seed);
    assert_bit_identical(&resumed.outcomes, &reference, "post-stall");
    assert_eq!(resumed.outcomes.accepts, trials);
}

/// A spanning-tree style reprogram mid-workload: swapping the program
/// fleet-wide at a batch boundary (here: the same protocol recompiled
/// for a different no-instance) keeps every trial accounted for and
/// never fabricates rejections before the swap.
#[test]
fn mid_workload_reprogram_swaps_the_fleet_program() {
    let trials = 256u64;
    let honest = eq_path_program(3, true);
    let cheating = eq_path_program(3, false);
    let cfg = cluster_config(64);
    let Some(mut cluster) = launch_or_skip(ProgramSpec::from_chain(&honest), cfg) else {
        return;
    };
    let churn = ChurnSchedule::new(vec![ChurnEvent::Reprogram {
        at_trial: 128,
        spec: ProgramSpec::from_chain(&cheating),
    }]);
    let report = cluster
        .run(trials, 0xA7, &churn)
        .expect("reprogram run must complete");
    cluster.shutdown();
    assert_eq!(report.reprograms, 1);
    assert_eq!(report.outcomes.aborts, 0, "a program swap is not a fault");
    assert_eq!(
        report.outcomes.accepts + report.outcomes.rejects,
        trials,
        "every trial terminates across the swap"
    );
    assert!(
        report.outcomes.rejects > 0,
        "the post-swap no-instance must produce rejections"
    );
    assert!(
        report.outcomes.accepts >= 128,
        "the pre-swap honest half must accept every round"
    );
}
