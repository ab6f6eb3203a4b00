//! `bench_adversarial` — cheating-prover optimiser throughput, measured-vs-
//! proved soundness chart, completeness–soundness phase diagrams under
//! Kraus noise, and the noisy-round overhead gates.
//!
//! Four tables:
//!
//! 1. **Optimiser build + sample throughput** — `adversary::optimise_cheat`
//!    (coordinate ascent over per-register top eigenvectors, `O(k·d²)` per
//!    sweep) against `adversary::spectral_optimum` (materialise the joint
//!    `d^{2k}` acceptance operator and power-iterate). On the `r = 4`
//!    shape, where both are feasible, the ascent path must win outright:
//!    `speedup_vs_spectral ≥ 1` is the in-bench assert and the
//!    `adversary_optimise_r4` row gates its trajectory in `bench_compare`.
//!    The sampled throughput of the optimised proof (lane-batched PR-7
//!    engine) rides along as `rounds_per_sec`.
//!
//! 2. **Measured vs proved soundness** — `SoundnessPoint` rows (exact
//!    ascent optimum, entangled spectral optimum where feasible, sampled
//!    acceptance with Wilson interval, paper bound `1 − 4/(81 r²)`) across
//!    the chain, the EQ path protocol and paths carved from random
//!    connected topologies. Informational chart rows; the statistical
//!    assertions live in `tests/integration_adversarial.rs`.
//!
//! 3. **Phase diagrams** — honest completeness and optimised-cheat
//!    acceptance under depolarizing / dephasing / amplitude-damping noise
//!    on a (strength × r) grid, via the exact enlarged-state transfer
//!    product of `NoisyChainSampler`. `gap_margin = completeness − cheat`
//!    is the quantity the verifier decides with; rows record where it
//!    closes. Boundary states are conjugate-basis (`|±⟩`), so all three
//!    channel families actually bite.
//!
//! 4. **Noisy-round overhead** — the cost of trajectory unravelling:
//!
//!    * `noisy_rounds_r32` (trials engine): one noisy trial adds one noise
//!      word per hop plus three branchless threshold picks and a table
//!      lookup, against a noise-free per-trial walk that is *pure* table
//!      lookups (~1 ns/node). The measured tax is charted honestly as
//!      `overhead_x` and its trajectory is gated via
//!      `speedup_noise_tax_margin = 2 · ns_noisefree / ns_noisy` (the 2×
//!      design target normalisation); the in-bench hard ceiling is 16× —
//!      like the `bench_faults` transport ceiling, it catches
//!      order-of-magnitude regressions while the ratio trajectory holds
//!      the achieved level (~10× on the reference box).
//!    * `noisy_transport_r8` (message-passing runtime): the same noise
//!      plan through `NoisyTransportSampler` against the noise-free
//!      `TransportSampler`. Here a round's cost is envelope machinery, so
//!      the **`≤ 2×` overhead budget is asserted in-bench** — this is the
//!      layer the acceptance criterion holds at — and
//!      `speedup_transport_noise_margin` gates the trajectory.
//!
//! Emits `BENCH_adversarial.json` at the workspace root.
//!
//! Run with: `cargo bench --bench bench_adversarial`

use dqma::adversary::{self, SoundnessPoint};
use dqma::chain::{cheating_proof, ChainCheat, SeparableChainProof, SwapTestChain};
use dqma::eq_path::EqPathProtocol;
use dqma::noise::{NoiseChannel, NoisePlan, NoisyChainSampler};
use dqma_bench::{fmt, fmt_ns, print_header, print_row, time_it, JsonReport, JsonValue};
use netsim::{topology, FaultPlan, RetryPolicy};
use qsim::{CMatrix, CVector, Complex, PureState};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

use commproto::bitstring::BitString;
use commproto::fingerprint::FingerprintScheme;

const WINDOW: Duration = Duration::from_millis(150);

/// Trials per sampled soundness / throughput measurement.
const SAMPLE_TRIALS: u64 = 1 << 16;

/// Trials per transport overhead measurement (rounds are µs-scale).
const TRANSPORT_TRIALS: u64 = 1 << 14;

/// Chain with orthogonal conjugate-basis boundaries `|+⟩` / `|−⟩` (a
/// no-instance on which dephasing and damping act non-trivially).
fn plus_minus_chain(r: usize) -> SwapTestChain {
    let h = 0.5f64.sqrt();
    let plus =
        PureState::from_amplitudes(&[2], CVector::new(vec![Complex::real(h), Complex::real(h)]));
    let minus = CVector::new(vec![Complex::real(h), Complex::real(-h)]);
    SwapTestChain::new(r, plus, CMatrix::projector(&minus))
}

/// The matching yes-instance (`|+⟩` on both ends).
fn plus_plus_chain(r: usize) -> SwapTestChain {
    let h = 0.5f64.sqrt();
    let plus =
        PureState::from_amplitudes(&[2], CVector::new(vec![Complex::real(h), Complex::real(h)]));
    let amps = plus.amplitudes().clone();
    SwapTestChain::new(r, plus, CMatrix::projector(&amps))
}

/// Computational-basis orthogonal chain (`|0⟩` / `|1⟩`), the shape the
/// integration suite pins.
fn orthogonal_chain(r: usize) -> (SwapTestChain, PureState) {
    let left = PureState::single(2, 0);
    let right_state = PureState::single(2, 1);
    let effect = CMatrix::projector(right_state.amplitudes());
    (SwapTestChain::new(r, left, effect), right_state)
}

fn soundness_json(report: &mut JsonReport, name: &str, topo: &str, p: &SoundnessPoint) {
    report.push(&[
        ("name", JsonValue::Str(name.to_string())),
        ("kind", JsonValue::Str("soundness_point".to_string())),
        ("topology", JsonValue::Str(topo.to_string())),
        ("path_length", JsonValue::Int(p.r as u64)),
        ("dim", JsonValue::Int(p.dim as u64)),
        ("separable_opt", JsonValue::Num(p.separable_opt)),
        // NaN renders as a JSON null: "spectral infeasible at this width".
        (
            "spectral_opt",
            JsonValue::Num(p.spectral_opt.unwrap_or(f64::NAN)),
        ),
        ("measured", JsonValue::Num(p.measured)),
        ("wilson_lo", JsonValue::Num(p.wilson.0)),
        ("wilson_hi", JsonValue::Num(p.wilson.1)),
        ("paper_bound", JsonValue::Num(p.paper_bound)),
        ("gap_to_bound", JsonValue::Num(p.paper_bound - p.measured)),
        ("trials", JsonValue::Int(p.trials)),
        ("sweeps", JsonValue::Int(p.sweeps as u64)),
    ]);
}

fn soundness_row(label: &str, p: &SoundnessPoint) {
    print_row(&[
        label.to_string(),
        format!("{}", p.r),
        format!("{}", p.dim),
        fmt(p.separable_opt),
        p.spectral_opt.map(fmt).unwrap_or_else(|| "-".to_string()),
        fmt(p.measured),
        fmt(p.paper_bound),
        format!("{}", p.sweeps),
    ]);
}

fn main() {
    let mut report = JsonReport::new();

    // ----- Table 1: optimiser build + sample throughput -------------------
    print_header(
        "bench_adversarial: cheat optimiser build + sample throughput",
        &["benchmark", "ascent", "spectral", "speedup", "rounds/sec"],
    );
    let mut gate_speedup_spectral = f64::NAN;
    for &r in &[4usize, 8, 32] {
        let (chain, _) = orthogonal_chain(r);
        let t_opt = time_it(
            || {
                std::hint::black_box(adversary::optimise_cheat(&chain));
            },
            WINDOW,
        );
        // The spectral path materialises the d^{2k} operator — feasible
        // only for r = 4 at d = 2 (joint dimension 64).
        let spectral_feasible = adversary::spectral_optimum(&chain).is_some();
        let t_spec = spectral_feasible.then(|| {
            time_it(
                || {
                    std::hint::black_box(adversary::spectral_optimum(&chain));
                },
                WINDOW,
            )
        });
        let opt = adversary::optimise_cheat(&chain);
        if let Some(spectral) = adversary::spectral_optimum(&chain) {
            assert!(
                opt.acceptance <= spectral + 1e-8,
                "r={r}: separable ascent {} above the entangled optimum {spectral}",
                opt.acceptance
            );
        }
        let plan = chain.round_plan(&opt.proof);
        let sampled =
            dqma::trials::run_trials_with_workers(&plan, SAMPLE_TRIALS, 0xAD + r as u64, 1);
        let speedup = t_spec
            .as_ref()
            .map(|t| t.ns_per_op / t_opt.ns_per_op)
            .unwrap_or(f64::NAN);
        if r == 4 {
            gate_speedup_spectral = speedup;
        }
        print_row(&[
            format!("adversary_optimise_r{r}"),
            fmt_ns(t_opt.ns_per_op),
            t_spec
                .as_ref()
                .map(|t| fmt_ns(t.ns_per_op))
                .unwrap_or_else(|| "-".to_string()),
            if speedup.is_finite() {
                format!("{speedup:.2}x")
            } else {
                "-".to_string()
            },
            fmt(sampled.rounds_per_sec()),
        ]);
        let mut fields = vec![
            ("name", JsonValue::Str(format!("adversary_optimise_r{r}"))),
            ("kind", JsonValue::Str("optimiser_throughput".to_string())),
            ("path_length", JsonValue::Int(r as u64)),
            ("ns_optimise", JsonValue::Num(t_opt.ns_per_op)),
            ("sweeps", JsonValue::Int(opt.sweeps as u64)),
            ("acceptance", JsonValue::Num(opt.acceptance)),
            ("sample_trials", JsonValue::Int(SAMPLE_TRIALS)),
            (
                "sample_rounds_per_sec",
                JsonValue::Num(sampled.rounds_per_sec()),
            ),
        ];
        if let Some(t) = &t_spec {
            fields.push(("ns_spectral", JsonValue::Num(t.ns_per_op)));
            fields.push(("speedup_vs_spectral", JsonValue::Num(speedup)));
        }
        report.push(&fields);
    }
    assert!(
        gate_speedup_spectral >= 1.0,
        "the ascent optimiser must beat the materialised spectral path at r = 4, \
         got {gate_speedup_spectral:.2}x"
    );

    // ----- Table 2: measured vs proved soundness chart --------------------
    print_header(
        "bench_adversarial: measured vs proved soundness (1 - 4/(81r^2))",
        &[
            "instance", "r", "d", "ascent", "spectral", "measured", "bound", "sweeps",
        ],
    );
    for &r in &[4usize, 8, 16, 32] {
        let (chain, _) = orthogonal_chain(r);
        let p = adversary::soundness_point(&chain, SAMPLE_TRIALS, 0xC0 + r as u64);
        soundness_row("chain", &p);
        soundness_json(&mut report, &format!("soundness_chain_r{r}"), "path", &p);
    }
    let x = BitString::from_u64(3, 4);
    let y = BitString::from_u64(12, 4);
    for &r in &[4usize, 8] {
        let proto = EqPathProtocol::with_scheme(r, FingerprintScheme::small(4, 7), 4);
        let chain = proto.chain(&x, &y);
        let p = adversary::soundness_point(&chain, SAMPLE_TRIALS, 0xE0 + r as u64);
        soundness_row("eq_path", &p);
        soundness_json(
            &mut report,
            &format!("soundness_eq_path_r{r}"),
            "eq_path",
            &p,
        );
    }
    // Paths carved from random connected topologies: the radius is whatever
    // the double-BFS peripheral path of the graph dictates.
    let graphs = topology::random_connected_sweep(2, 9, 14, 0.25, 0x70F0);
    for (i, g) in graphs.iter().enumerate() {
        let r = (g.peripheral_path().len() - 1).max(4);
        let (chain, _) = orthogonal_chain(r);
        let p = adversary::soundness_point(&chain, SAMPLE_TRIALS, 0x30 + i as u64);
        soundness_row("random_path", &p);
        soundness_json(
            &mut report,
            &format!("soundness_random_{i}"),
            "random_spanning_path",
            &p,
        );
    }

    // ----- Table 3: noise phase diagrams ----------------------------------
    print_header(
        "bench_adversarial: completeness vs cheat acceptance under noise",
        &["channel", "strength", "r", "completeness", "cheat", "gap"],
    );
    let channels: [fn(f64) -> NoiseChannel; 3] = [
        |p| NoiseChannel::Depolarizing { p },
        |l| NoiseChannel::Dephasing { lambda: l },
        |g| NoiseChannel::AmplitudeDamping { gamma: g },
    ];
    let strengths = [0.02f64, 0.05, 0.1, 0.2];
    let radii = [4usize, 8, 16];
    for make in &channels {
        let label = make(0.1).label();
        for &r in &radii {
            let yes = plus_plus_chain(r);
            let honest = yes.honest_proof();
            let no = plus_minus_chain(r);
            let cheat: SeparableChainProof = adversary::optimise_cheat(&no).proof;
            let mut prev_margin = f64::INFINITY;
            for &s in &strengths {
                let plan = NoisePlan::symmetric(make(s));
                let completeness = NoisyChainSampler::new(&yes, &honest, &plan).exact_acceptance();
                let cheat_acc = NoisyChainSampler::new(&no, &cheat, &plan).exact_acceptance();
                let margin = completeness - cheat_acc;
                assert!(
                    completeness <= 1.0 + 1e-12,
                    "{label} s={s} r={r}: completeness {completeness} above 1"
                );
                assert!(
                    margin <= prev_margin + 1e-9,
                    "{label} r={r}: verifier gap must not widen with noise \
                     ({prev_margin} -> {margin} at strength {s})"
                );
                prev_margin = margin;
                print_row(&[
                    label.to_string(),
                    fmt(s),
                    format!("{r}"),
                    fmt(completeness),
                    fmt(cheat_acc),
                    fmt(margin),
                ]);
                report.push(&[
                    (
                        "name",
                        JsonValue::Str(format!("phase_{label}_s{:03}_r{r}", (s * 100.0) as u64)),
                    ),
                    ("kind", JsonValue::Str("phase_diagram".to_string())),
                    ("channel", JsonValue::Str(label.to_string())),
                    ("strength", JsonValue::Num(s)),
                    ("path_length", JsonValue::Int(r as u64)),
                    ("completeness", JsonValue::Num(completeness)),
                    ("cheat_acceptance", JsonValue::Num(cheat_acc)),
                    ("gap_margin", JsonValue::Num(margin)),
                    ("gap_open", JsonValue::Str((margin > 0.0).to_string())),
                ]);
            }
        }
    }

    // ----- Table 4: noisy-round overhead ----------------------------------
    print_header(
        "bench_adversarial: trajectory-sampling overhead vs noise-free",
        &["benchmark", "noise-free", "noisy", "overhead", "2x margin"],
    );

    // Trials engine, r = 32: noise-free baseline is the per-trial table
    // walk (the same walk the noisy path embeds), warm RNG.
    let (chain32, right32) = orthogonal_chain(32);
    let proof32 = cheating_proof(&chain32, &right32, ChainCheat::Interpolate);
    let plan32 = chain32.round_plan(&proof32);
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    let t_free = time_it(
        || {
            std::hint::black_box(plan32.round(&mut rng));
        },
        WINDOW,
    );
    let noisy32 = NoisyChainSampler::new(
        &chain32,
        &proof32,
        &NoisePlan::symmetric(NoiseChannel::Depolarizing { p: 0.1 }),
    );
    let noisy_report = dqma::trials::run_trials_with_workers(&noisy32, 1 << 17, 0xBEEF, 1);
    // Sanity: the sampled noisy rate must track the exact transfer product.
    let exact32 = noisy32.exact_acceptance();
    let eps = dqma::trials::stats::hoeffding_margin(noisy_report.trials);
    assert!(
        (noisy_report.acceptance_rate() - exact32).abs() < eps,
        "noisy r=32 sampled rate {} vs exact {exact32} (margin {eps})",
        noisy_report.acceptance_rate()
    );
    let trials_overhead = noisy_report.ns_per_round() / t_free.ns_per_op;
    let trials_margin = 2.0 * t_free.ns_per_op / noisy_report.ns_per_round();
    print_row(&[
        "noisy_rounds_r32".to_string(),
        fmt_ns(t_free.ns_per_op),
        fmt_ns(noisy_report.ns_per_round()),
        format!("{trials_overhead:.2}x"),
        format!("{trials_margin:.2}"),
    ]);
    report.push(&[
        ("name", JsonValue::Str("noisy_rounds_r32".to_string())),
        ("kind", JsonValue::Str("noise_overhead".to_string())),
        ("layer", JsonValue::Str("trials".to_string())),
        ("path_length", JsonValue::Int(32)),
        ("trials", JsonValue::Int(noisy_report.trials)),
        ("ns_noisefree", JsonValue::Num(t_free.ns_per_op)),
        ("ns_noisy", JsonValue::Num(noisy_report.ns_per_round())),
        ("overhead_x", JsonValue::Num(trials_overhead)),
        ("speedup_noise_tax_margin", JsonValue::Num(trials_margin)),
    ]);
    // Hard ceiling only: the per-trial branch draws fundamentally cost more
    // than a 1 ns/node table lookup, so the 2× target normalises the gated
    // trajectory instead of a hard assert (see the module docs).
    assert!(
        trials_overhead <= 16.0,
        "noisy trials engine exceeded its 16x hard ceiling: {trials_overhead:.2}x"
    );

    // Message-passing runtime, r = 8: identical fault-free transport on
    // both sides; the only difference is per-trial trajectory tables.
    let (chain8, right8) = orthogonal_chain(8);
    let proof8 = cheating_proof(&chain8, &right8, ChainCheat::Interpolate);
    let program8 = chain8.net_program(&proof8);
    let free8 = dqma::net::sample_transport_rounds(
        &program8,
        &FaultPlan::none(),
        &RetryPolicy::default(),
        TRANSPORT_TRIALS,
        0xCAB,
        1,
    );
    let noisy8 = NoisyChainSampler::new(
        &chain8,
        &proof8,
        &NoisePlan::symmetric(NoiseChannel::Depolarizing { p: 0.1 }),
    );
    let noisy8_transport = noisy8.transport_sampler(FaultPlan::none(), RetryPolicy::default());
    let noisy8_report = dqma::trials::run_outcome_trials_with_workers(
        &noisy8_transport,
        TRANSPORT_TRIALS,
        0xCAB,
        1,
    );
    assert_eq!(
        noisy8_report.outcomes.aborts, 0,
        "fault-free noisy transport rounds must not abort"
    );
    let transport_overhead = noisy8_report.ns_per_round() / free8.ns_per_round();
    let transport_margin = 2.0 * free8.ns_per_round() / noisy8_report.ns_per_round();
    print_row(&[
        "noisy_transport_r8".to_string(),
        fmt_ns(free8.ns_per_round()),
        fmt_ns(noisy8_report.ns_per_round()),
        format!("{transport_overhead:.2}x"),
        format!("{transport_margin:.2}"),
    ]);
    report.push(&[
        ("name", JsonValue::Str("noisy_transport_r8".to_string())),
        ("kind", JsonValue::Str("noise_overhead".to_string())),
        ("layer", JsonValue::Str("transport".to_string())),
        ("path_length", JsonValue::Int(8)),
        ("trials", JsonValue::Int(noisy8_report.trials)),
        ("ns_noisefree", JsonValue::Num(free8.ns_per_round())),
        ("ns_noisy", JsonValue::Num(noisy8_report.ns_per_round())),
        ("overhead_x", JsonValue::Num(transport_overhead)),
        (
            "speedup_transport_noise_margin",
            JsonValue::Num(transport_margin),
        ),
    ]);
    // The acceptance gate: at the message-passing layer, trajectory noise
    // must cost at most 2× a noise-free round.
    println!(
        "\nacceptance: noisy_transport_r8 overhead {transport_overhead:.2}x (ceiling 2x) — {}",
        if transport_overhead <= 2.0 {
            "OK"
        } else {
            "MISS"
        }
    );
    assert!(
        transport_overhead <= 2.0,
        "noisy transport rounds exceeded the 2x overhead budget: {transport_overhead:.2}x"
    );

    let json = report.render(&[
        ("suite", JsonValue::Str("bench_adversarial".to_string())),
        (
            "optimise_speedup_vs_spectral_r4",
            JsonValue::Num(gate_speedup_spectral),
        ),
        (
            "noisy_trials_overhead_r32_x",
            JsonValue::Num(trials_overhead),
        ),
        (
            "noisy_transport_overhead_r8_x",
            JsonValue::Num(transport_overhead),
        ),
        (
            "meets_2x_transport_budget",
            JsonValue::Str((transport_overhead <= 2.0).to_string()),
        ),
    ]);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_adversarial.json");
    std::fs::write(path, &json).expect("write BENCH_adversarial.json");
    println!("\nwrote {path}");
}
