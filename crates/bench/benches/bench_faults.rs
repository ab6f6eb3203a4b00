//! `bench_faults` — transport-runtime overhead and soundness-under-faults
//! degradation curves.
//!
//! Two tables:
//!
//! 1. **Transport overhead** — one EQ-path round executed through the
//!    per-node message-passing executors of `dqma::net` over a zero-fault
//!    channel transport, compared against the in-process sampler
//!    (`SwapTestChain::simulate_round`): the serial one-round path every
//!    pre-transport table drove, and the `eq_path_round_*` rows of
//!    `bench_protocols`. Both simulate exactly one protocol round; the
//!    difference is envelope/sequence-number/virtual-clock machinery, so the
//!    ratio is the cost of the fault-injection runtime. (The compiled
//!    `ChainRoundPlan::round` loop is also reported, as `ns_plan_loop` — an
//!    informational floor, not a baseline: it collapses the whole round to
//!    table lookups on pre-folded probabilities, which no message-passing
//!    execution could match.) The `r = 32` row is the acceptance gate. The
//!    design target is **3×** of the in-process sampler, tracked across PRs
//!    as `speedup_ceiling_margin = 3 · ns_inprocess / ns_transport` (a
//!    `speedup_*` column so `bench_compare` can gate its trajectory); the
//!    in-bench hard ceiling is **4×**, giving the target one third of
//!    headroom because the reference box is a single-vCPU 2.1 GHz VM whose
//!    same-binary re-runs of either side swing by ±15–20% — the ratio of
//!    two such measurements is too noisy for a hard assert at the design
//!    target itself, so the trajectory gate holds the margin and the hard
//!    assert catches order-of-magnitude regressions.
//!
//! 2. **Fault degradation** — honest (perfect-completeness) EQ-path rounds
//!    swept over drop rate × link latency/jitter × partition schedules at
//!    `dqma::trials` batch scale. Zero-fault rows must sit at acceptance
//!    rate 1 with zero retries; raising the drop rate degrades completeness
//!    monotonically (an abort is a *detected* failure — honest rounds never
//!    flip to reject). Every row reports the worker-invariant transcript
//!    digest, so the sweep doubles as a determinism record.
//!
//! Emits `BENCH_faults.json` at the workspace root.
//!
//! Run with: `cargo bench --bench bench_faults`

use commproto::bitstring::BitString;
use commproto::fingerprint::FingerprintScheme;
use commproto::OneWayProtocol;
use dqma::chain::{cheating_proof, ChainCheat};
use dqma::eq_path::EqPathProtocol;
use dqma::net::sample_transport_rounds;
use dqma::trials::OutcomeReport;
use dqma_bench::{fmt, fmt_ns, print_header, print_row, time_it, JsonReport, JsonValue};
use netsim::{FaultPlan, PartitionWindow, RetryPolicy};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

const WINDOW: Duration = Duration::from_millis(120);

/// Trials per overhead measurement — enough that per-block setup amortises
/// exactly as it does in the scenario suite.
const OVERHEAD_TRIALS: u64 = 1 << 17;

/// Trials per fault-sweep row (4 blocks of `trials::BLOCK_TRIALS`).
const SWEEP_TRIALS: u64 = 1 << 15;

/// One transport-vs-in-process overhead measurement.
struct OverheadRow {
    name: String,
    ns_inprocess: f64,
    ns_plan_loop: f64,
    report: OutcomeReport,
}

impl OverheadRow {
    fn ns_transport(&self) -> f64 {
        self.report.ns_per_round()
    }

    fn overhead(&self) -> f64 {
        self.ns_transport() / self.ns_inprocess
    }

    /// Gate column: how much of the 3× overhead budget is left
    /// (`≥ 1` ⇔ within budget). Bigger is better, so `bench_compare` can
    /// hold its cross-PR trajectory to the usual regression threshold.
    fn ceiling_margin(&self) -> f64 {
        3.0 * self.ns_inprocess / self.ns_transport()
    }
}

/// Times one EQ-path shape both ways on the same honest instance.
///
/// Honest (`x == y`) on purpose: a full-length round with no early exit on
/// either side, matching the fault-sweep instance, and with perfect
/// completeness as a built-in sanity check on both paths.
fn bench_overhead(r: usize) -> OverheadRow {
    let scheme = FingerprintScheme::with_parameters(4, 1, 1, 7);
    let x = BitString::from_u64(3, 4);
    let protocol = EqPathProtocol::with_scheme(r, scheme, 1);

    // In-process baseline: the serial one-round sampler (`simulate_round`)
    // — what "run one EQ-path round in this process" cost before the
    // transport runtime existed, and what `bench_protocols` tracks as
    // `eq_path_round_*`.
    let chain = protocol.chain(&x, &x);
    let right_state = protocol.one_way().alice_message(&x);
    let proof = cheating_proof(&chain, &right_state, ChainCheat::Interpolate);
    let mut rng = StdRng::seed_from_u64(101);
    let inprocess = time_it(
        || {
            std::hint::black_box(chain.simulate_round(&proof, &mut rng));
        },
        WINDOW,
    );

    // Informational floor: the compiled plan's table-lookup loop.
    let plan = chain.round_plan(&proof);
    let plan_loop = time_it(
        || {
            std::hint::black_box(plan.round(&mut rng));
        },
        WINDOW,
    );

    // Transport path: the same round as a per-node program over a zero-fault
    // poll channel transport, single worker so the comparison is
    // loop-vs-loop.
    let program = protocol.net_program(&x, &x, ChainCheat::Interpolate);
    let report = sample_transport_rounds(
        &program,
        &FaultPlan::none(),
        &RetryPolicy::default(),
        OVERHEAD_TRIALS,
        101,
        1,
    );
    assert_eq!(
        report.outcomes.aborts, 0,
        "zero-fault transport rounds must not abort"
    );
    assert_eq!(
        report.outcomes.retries, 0,
        "zero-fault transport rounds must not retry"
    );
    assert_eq!(
        report.outcomes.rejects, 0,
        "honest zero-fault transport rounds must accept"
    );

    OverheadRow {
        name: format!("eq_path_transport_r{r}"),
        ns_inprocess: inprocess.ns_per_op,
        ns_plan_loop: plan_loop.ns_per_op,
        report,
    }
}

/// One fault-sweep scenario: a named fault schedule over honest EQ-path
/// rounds.
struct Scenario {
    name: &'static str,
    plan: FaultPlan,
}

/// The drop × latency × partition grid. Honest rounds, so any non-accept is
/// transport-induced and surfaces as an abort.
fn scenarios() -> Vec<Scenario> {
    let lat = |base, jitter| FaultPlan {
        latency_base: base,
        latency_jitter: jitter,
        ..FaultPlan::none()
    };
    let mut rows = vec![
        Scenario {
            name: "zero_fault",
            plan: FaultPlan::none(),
        },
        Scenario {
            name: "latency_jitter",
            plan: lat(64, 512),
        },
    ];
    for &(name, lat_name, drop) in &[
        ("drop15", "drop15_latency", 0.15f64),
        ("drop30", "drop30_latency", 0.30),
        ("drop60", "drop60_latency", 0.60),
    ] {
        rows.push(Scenario {
            name,
            plan: FaultPlan {
                drop_rate: drop,
                ..FaultPlan::none()
            },
        });
        rows.push(Scenario {
            name: lat_name,
            plan: FaultPlan {
                drop_rate: drop,
                latency_base: 64,
                latency_jitter: 512,
                ..FaultPlan::none()
            },
        });
    }
    // A transient partition across one path edge: rounds whose retries
    // outlive the window recover, the rest abort with a located fault.
    rows.push(Scenario {
        name: "partition_transient",
        plan: FaultPlan {
            partitions: vec![PartitionWindow {
                start: 0,
                end: 6_000,
                edges: vec![(2, 3)],
            }],
            ..FaultPlan::none()
        },
    });
    // A permanent partition: graceful degradation, never acceptance.
    rows.push(Scenario {
        name: "partition_permanent",
        plan: FaultPlan {
            partitions: vec![PartitionWindow {
                start: 0,
                end: netsim::VTime::MAX,
                edges: vec![(2, 3)],
            }],
            ..FaultPlan::none()
        },
    });
    // Everything at once — the chaos row the scenario suite terminates
    // under.
    rows.push(Scenario {
        name: "combined_chaos",
        plan: FaultPlan {
            drop_rate: 0.3,
            ack_drop_rate: 0.1,
            duplicate_rate: 0.1,
            latency_base: 128,
            latency_jitter: 4096,
            crash_rate: 0.05,
            crash_onset_window: 1 << 14,
            ..FaultPlan::none()
        },
    });
    rows
}

fn main() {
    let mut report = JsonReport::new();

    // ----- Table 1: transport overhead ------------------------------------
    print_header(
        "bench_faults: per-node transport executors vs in-process round loop",
        &[
            "benchmark",
            "in-process",
            "transport",
            "overhead",
            "3x margin",
        ],
    );
    let mut gate_margin = f64::NAN;
    let mut gate_overhead = f64::NAN;
    for &r in &[8usize, 32] {
        let row = bench_overhead(r);
        print_row(&[
            row.name.clone(),
            fmt_ns(row.ns_inprocess),
            fmt_ns(row.ns_transport()),
            format!("{:.2}x", row.overhead()),
            format!("{:.2}", row.ceiling_margin()),
        ]);
        if r == 32 {
            gate_margin = row.ceiling_margin();
            gate_overhead = row.overhead();
        }
        report.push(&[
            ("name", JsonValue::Str(row.name.clone())),
            ("kind", JsonValue::Str("transport_overhead".to_string())),
            ("path_length", JsonValue::Int(r as u64)),
            ("trials", JsonValue::Int(row.report.trials)),
            ("ns_inprocess", JsonValue::Num(row.ns_inprocess)),
            ("ns_plan_loop", JsonValue::Num(row.ns_plan_loop)),
            ("ns_transport", JsonValue::Num(row.ns_transport())),
            ("overhead_x", JsonValue::Num(row.overhead())),
            (
                "speedup_ceiling_margin",
                JsonValue::Num(row.ceiling_margin()),
            ),
        ]);
    }

    // Acceptance gate: hard-fail beyond 4× on the r = 32 shape — a silent
    // 10× regression here would make the scenario suite the slowest tier of
    // the test battery. The 3× design target itself is held by the
    // `bench_compare` trajectory on `speedup_ceiling_margin` (see the module
    // docs for why a hard assert at 3× would flake on the reference box).
    let meets_3x = gate_margin >= 1.0;
    let within_hard_ceiling = gate_overhead <= 4.0;
    println!(
        "\nacceptance: eq_path_transport_r32 overhead {gate_overhead:.2}x (target <= 3x, margin {gate_margin:.2}; hard ceiling 4x) — {}",
        if meets_3x {
            "OK"
        } else if within_hard_ceiling {
            "WITHIN CEILING"
        } else {
            "MISS"
        }
    );
    assert!(
        within_hard_ceiling,
        "transport runtime exceeded its 4x hard overhead ceiling: {gate_overhead:.2}x"
    );

    // ----- Table 2: fault degradation sweep -------------------------------
    print_header(
        "bench_faults: honest EQ-path completeness under injected faults",
        &[
            "scenario",
            "accept",
            "abort",
            "retries/round",
            "rounds/sec",
            "digest",
        ],
    );
    let scheme = FingerprintScheme::with_parameters(4, 1, 1, 7);
    let x = BitString::from_u64(3, 4);
    let protocol = EqPathProtocol::with_scheme(8, scheme, 1);
    let program = protocol.net_program(&x, &x, ChainCheat::Interpolate);
    let policy = RetryPolicy::default();
    let mut zero_fault_accept = f64::NAN;
    for scenario in scenarios() {
        let r = sample_transport_rounds(&program, &scenario.plan, &policy, SWEEP_TRIALS, 4242, 4);
        let retries_per_round = r.outcomes.retries as f64 / r.trials as f64;
        if scenario.name == "zero_fault" {
            zero_fault_accept = r.accept_rate();
            assert_eq!(r.outcomes.aborts, 0, "zero-fault rounds must not abort");
            assert_eq!(r.outcomes.retries, 0, "zero-fault rounds must not retry");
        }
        // Honest instance: faults degrade to *detected* aborts, never to a
        // silent reject.
        assert_eq!(
            r.outcomes.rejects, 0,
            "honest rounds must never reject ({})",
            scenario.name
        );
        print_row(&[
            scenario.name.to_string(),
            fmt(r.accept_rate()),
            fmt(r.abort_rate()),
            fmt(retries_per_round),
            fmt(r.rounds_per_sec()),
            format!("{:016x}", r.outcomes.digest),
        ]);
        report.push(&[
            ("name", JsonValue::Str(format!("faults_{}", scenario.name))),
            ("kind", JsonValue::Str("fault_sweep".to_string())),
            ("trials", JsonValue::Int(r.trials)),
            ("drop_rate", JsonValue::Num(scenario.plan.drop_rate)),
            ("latency_base", JsonValue::Int(scenario.plan.latency_base)),
            (
                "latency_jitter",
                JsonValue::Int(scenario.plan.latency_jitter),
            ),
            (
                "partitions",
                JsonValue::Int(scenario.plan.partitions.len() as u64),
            ),
            ("accept_rate", JsonValue::Num(r.accept_rate())),
            ("abort_rate", JsonValue::Num(r.abort_rate())),
            ("retries_per_round", JsonValue::Num(retries_per_round)),
            ("rounds_per_sec", JsonValue::Num(r.rounds_per_sec())),
            (
                "digest",
                JsonValue::Str(format!("{:016x}", r.outcomes.digest)),
            ),
        ]);
    }
    assert!(
        (zero_fault_accept - 1.0).abs() < f64::EPSILON,
        "honest zero-fault completeness must be exact"
    );

    let json = report.render(&[
        ("suite", JsonValue::Str("bench_faults".to_string())),
        ("transport_overhead_r32_x", JsonValue::Num(gate_overhead)),
        ("transport_ceiling_margin_r32", JsonValue::Num(gate_margin)),
        (
            "meets_3x_overhead_target",
            JsonValue::Str(meets_3x.to_string()),
        ),
        ("zero_fault_completeness", JsonValue::Num(zero_fault_accept)),
    ]);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_faults.json");
    std::fs::write(path, &json).expect("write BENCH_faults.json");
    println!("\nwrote {path}");
}
