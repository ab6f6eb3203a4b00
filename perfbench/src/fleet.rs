//! The `fleet_r8` workload: an honest EQ-path `r = 8` fleet of 9
//! `dqma-node` processes under `Cluster`, driven by back-to-back
//! fixed-size `Cluster::run` batches with no churn.
//!
//! `r = 8` rather than `r = 32`: 33 node processes on a two-core machine
//! did not give steady batch times.
//!
//! The traced run adds the rungs below the fleet on the same program: the
//! compiled plan walked one round at a time, the lane engine, and the
//! in-process transport sampler.

use std::time::{Duration, Instant};

use commproto::bitstring::BitString;
use commproto::fingerprint::FingerprintScheme;
use dqma::chain::ChainCheat;
use dqma::cluster::{
    cluster_policy, ChurnSchedule, Cluster, ClusterConfig, ClusterReport, ProgramSpec,
};
use dqma::net::{sample_transport_rounds, ChainNetProgram};
use dqma::service::{CheatSpec, CompiledPlan, InstanceSpec};
use dqma::trials::{run_trials_with_workers, BlockRng};
use dqma::EqPathProtocol;
use netsim::FaultPlan;

use crate::gen::{batch_seed, FLEET_BATCH};
use crate::stats::{self, Sample};
use crate::{Ctx, Phase, Report};

/// Fleet launches per run; `setup_s` is their median.
const SETUP_REPS: usize = 25;

/// Rounds for each in-process reference rung of the traced run.
const REFERENCE_ROUNDS: u64 = 1 << 20;

const R: usize = 8;
const BITS: usize = 8;
const X: u64 = 0b1011_0110;
const SCHEME_SEED: u64 = 11;
const REPS: usize = 4;

/// The fleet's instance, as the service would name it.
fn instance() -> InstanceSpec {
    InstanceSpec::EqPath {
        r: R,
        bits: BITS,
        x: X,
        y: X,
        scheme_seed: SCHEME_SEED,
        reps: REPS,
        cheat: CheatSpec::Interpolate,
    }
}

fn program() -> ChainNetProgram {
    let protocol =
        EqPathProtocol::with_scheme(R, FingerprintScheme::small(BITS, SCHEME_SEED), REPS);
    let x = BitString::from_u64(X, BITS);
    protocol.net_program(&x, &x, ChainCheat::Interpolate)
}

fn launch(ctx: &Ctx, program: &ChainNetProgram) -> Result<(Cluster, f64), String> {
    let cfg = ClusterConfig {
        node_bin: ctx.bin_dir.join("dqma-node"),
        ..ClusterConfig::default()
    };
    let t0 = Instant::now();
    let cluster = Cluster::launch(ProgramSpec::from_chain(program), cfg)
        .map_err(|e| format!("cannot launch the dqma-node fleet: {e}"))?;
    Ok((cluster, t0.elapsed().as_secs_f64()))
}

struct Batch {
    seed: u64,
    result: Result<ClusterReport, String>,
    latency: Duration,
}

/// Launches the fleet (`reps` times, keeping the last), runs batches for
/// `seconds`, reads the fleet's peak RSS and shuts it down. Checks every
/// batch against the in-process transport sampler afterwards.
fn fleet_phase(
    ctx: &Ctx,
    program: &ChainNetProgram,
    seconds: f64,
    reps: usize,
    report: &mut Report,
) -> Result<(Vec<Batch>, Phase, f64, f64), String> {
    let mut times = Vec::new();
    let mut cluster = None;
    for _ in 0..reps {
        drop(cluster.take());
        let (c, t) = launch(ctx, program)?;
        times.push(t);
        cluster = Some(c);
    }
    let mut cluster = cluster.expect("at least one launch");
    let setup_s = stats::median(&times).expect("at least one launch");

    let start = Instant::now();
    let stop = start + Duration::from_secs_f64(seconds);
    let mut batches = Vec::new();
    let mut i = 0;
    while Instant::now() < stop {
        let seed = batch_seed(ctx.seed, i);
        let t0 = Instant::now();
        let result = ctx.tracer.span("fleet.run", 0, i, |_| {
            cluster.run(FLEET_BATCH, seed, &ChurnSchedule::none())
        });
        batches.push(Batch {
            seed,
            result: result.map_err(|e| e.to_string()),
            latency: t0.elapsed(),
        });
        i += 1;
    }
    let wall_s = start.elapsed().as_secs_f64();
    let rss_mb: f64 = crate::proc::children_named("dqma-node")
        .into_iter()
        .filter_map(crate::proc::peak_rss_mb)
        .sum();
    cluster.shutdown();

    let aborted = |b: &Batch| b.result.as_ref().map_or(FLEET_BATCH, |r| r.outcomes.aborts);
    let failed = batches.iter().filter(|b| aborted(b) > 0).count() as u64;
    report.count_ops(batches.len() as u64, failed);
    let attempted_trials = FLEET_BATCH * batches.len() as u64;
    let ok_trials = attempted_trials - batches.iter().map(aborted).sum::<u64>();
    let policy = cluster_policy();
    for b in &batches {
        let Ok(fleet) = &b.result else {
            report.check(false, || {
                format!("batch seed {}: {:?}", b.seed, b.result.as_ref().err())
            });
            continue;
        };
        let reference =
            sample_transport_rounds(program, &FaultPlan::none(), &policy, FLEET_BATCH, b.seed, 1);
        let (f, r) = (&fleet.outcomes, &reference.outcomes);
        report.check(
            f.aborts == 0
                && f.accepts == r.accepts
                && f.rejects == r.rejects
                && f.messages - f.retries == r.messages - r.retries
                && f.digest == r.digest,
            || {
                format!(
                    "batch seed {}: fleet {f:?} != transport sampler {r:?}",
                    b.seed
                )
            },
        );
    }
    let phase = Phase {
        samples: batches
            .iter()
            .map(|b| match aborted(b) {
                0 => Sample::Ok(b.latency.as_secs_f64() * 1e3),
                _ => Sample::Failed,
            })
            .collect(),
        delivered: ok_trials,
        wall_s,
        ok_units: ok_trials,
        attempted_units: attempted_trials,
        fail_ms: ClusterConfig::default().collect_timeout.as_secs_f64() * 1e3,
    };
    println!(
        "fleet_r8: {} processes, {} batches of {FLEET_BATCH} trials",
        R + 1,
        batches.len()
    );
    Ok((batches, phase, setup_s, rss_mb))
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let program = program();
    let mut report = Report::default();
    println!("instance mix: eq_path_lane 1 instance (r = {R}), fallback-walk round share 0, memo-served share 0");
    if !ctx.tracer.on() {
        let (_, phase, setup_s, rss_mb) =
            fleet_phase(ctx, &program, ctx.seconds, SETUP_REPS, &mut report)?;
        println!("setup: median {setup_s:.4} s over {SETUP_REPS} fleet launches");
        report.put("setup_s", setup_s);
        report.put("peak_rss_mb", rss_mb);
        phase.report(&mut report);
        return Ok(report);
    }

    let quiet = crate::trace::Tracer::new(false);
    let qctx = Ctx {
        tracer: &quiet,
        ..ctx.clone()
    };
    let (_, untraced, _, _) = fleet_phase(&qctx, &program, ctx.seconds / 2.0, 1, &mut report)?;
    let (batches, traced, _, _) = fleet_phase(ctx, &program, ctx.seconds / 2.0, 1, &mut report)?;

    let kernels0 = qsim::plan::compile_count();
    let t0 = Instant::now();
    let compiled = ctx.tracer.span("compile", 0, 0, |_| instance().compile());
    report.put("compile.ms_per_instance", t0.elapsed().as_secs_f64() * 1e3);
    report.put(
        "compile.kernel_plans",
        (qsim::plan::compile_count() - kernels0) as f64,
    );
    let CompiledPlan::Chain(plan) = compiled else {
        unreachable!("an EQ-path instance compiles to a chain plan")
    };

    let seed = ctx.seed;
    let plan_ns = ctx.tracer.span("plan.loop", 0, 0, |_| {
        let mut rng = BlockRng::new(seed, 0).block_rng();
        let t0 = Instant::now();
        let accepts = (0..REFERENCE_ROUNDS)
            .filter(|_| plan.round(&mut rng))
            .count();
        std::hint::black_box(accepts);
        t0.elapsed().as_nanos() as f64 / REFERENCE_ROUNDS as f64
    });
    let lane = ctx.tracer.span("trials.run", 0, 0, |_| {
        run_trials_with_workers(&plan, REFERENCE_ROUNDS, seed, 1)
    });
    let transport = ctx.tracer.span("transport.sample", 0, 0, |_| {
        sample_transport_rounds(
            &program,
            &FaultPlan::none(),
            &cluster_policy(),
            REFERENCE_ROUNDS,
            seed,
            1,
        )
    });
    let lane_ns = lane.ns_per_round();
    let transport_ns = transport.ns_per_round();
    report.put("plan.ns_per_round", plan_ns);
    report.put("trials.lane.ns_per_round", lane_ns);
    report.put("transport.ns_per_round", transport_ns);
    report.put(
        "transport.messages_per_round",
        transport.outcomes.messages as f64 / REFERENCE_ROUNDS as f64,
    );

    let ok: Vec<&ClusterReport> = batches
        .iter()
        .filter_map(|b| b.result.as_ref().ok())
        .collect();
    let per_batch: Vec<f64> = ok
        .iter()
        .map(|r| r.elapsed.as_nanos() as f64 / r.trials as f64)
        .collect();
    let fleet_ns = stats::median(&per_batch).unwrap_or(0.0);
    let elapsed_ns: f64 = ok.iter().map(|r| r.elapsed.as_nanos() as f64).sum();
    let trials: u64 = ok.iter().map(|r| r.trials).sum();
    let unique: u64 = ok
        .iter()
        .map(|r| r.outcomes.messages - r.outcomes.retries)
        .sum();
    let retries: u64 = ok.iter().map(|r| r.outcomes.retries).sum();
    report.put("fleet.ns_per_round", fleet_ns);
    report.put("fleet.ns_per_hop", elapsed_ns / unique.max(1) as f64);
    report.put(
        "fleet.retries_per_round",
        retries as f64 / trials.max(1) as f64,
    );
    report.put("fleet.x_transport", fleet_ns / transport_ns);
    crate::report_overhead(&untraced, &traced, &mut report);
    crate::print_ladder(
        "fleet_r8",
        &[
            ("plan loop (ChainRoundPlan::round)", plan_ns),
            ("lane engine (1 worker)", lane_ns),
            ("transport sampler", transport_ns),
            ("TCP fleet (9 processes)", fleet_ns),
        ],
    );
    Ok(report)
}
