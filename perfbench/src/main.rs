//! `perfbench` — the repository's end-to-end benchmark of the served and
//! fleet paths, with a traced per-layer ladder. See `README.md` beside
//! this crate for the workloads, the metrics and which layer metric should
//! move which end-to-end metric.
//!
//! ```text
//! perfbench --workload serve_small|fleet_r8 --seed N --seconds S
//!           --trace 0|1 --bin-dir DIR --out DIR
//! ```
//!
//! `--bin-dir` holds the release `dqma-server` and `dqma-node` binaries;
//! `--out` receives journals and the span file. The last line of stdout is
//! the JSON result; everything before it is the human-readable report.

mod fleet;
mod gen;
mod proc;
mod serve;
mod stats;
mod trace;

use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use stats::{Ranked, Sample};

/// Every per-layer metric a traced run reports, with its unit. A workload
/// that bypasses a layer reports 0 for it and leaves it out of its ladder.
const PER_LAYER: &[(&str, &str)] = &[
    ("trials.lane.ns_per_round", "ns"),
    ("trials.fallback.ns_per_round", "ns"),
    ("trials.fallback.round_share", "share"),
    ("compile.ms_per_instance", "ms"),
    ("compile.kernel_plans", "count"),
    ("service.submit_us", "us"),
    ("service.self_ms", "ms"),
    ("service.memo_hit_ratio", "share"),
    ("service.journal_ms_per_job", "ms"),
    ("service.journal_bytes_per_block", "B"),
    ("http.submit_us", "us"),
    ("http.poll_us", "us"),
    ("http.polls_per_job", "count"),
    ("http.self_ms", "ms"),
    ("transport.ns_per_round", "ns"),
    ("transport.messages_per_round", "count"),
    ("plan.ns_per_round", "ns"),
    ("fleet.ns_per_round", "ns"),
    ("fleet.ns_per_hop", "ns"),
    ("fleet.retries_per_round", "count"),
    ("fleet.x_transport", "x"),
    ("trace.overhead.latency_p50_ms", "ms"),
    ("trace.overhead.rounds_per_s", "1/s"),
];

/// Every end-to-end metric an untraced run reports, with its unit.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("rounds_per_s", "1/s"),
    ("ok_share", "share"),
    ("peak_rss_mb", "MiB"),
];

/// What one run found: metrics, output-check failures, and op counts.
#[derive(Default)]
pub struct Report {
    metrics: HashMap<&'static str, f64>,
    problems: Vec<String>,
    attempted: u64,
    failed: u64,
}

impl Report {
    pub fn put(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Records an output check; a failed one makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let what = what();
            println!("CHECK FAILED: {what}");
            self.problems.push(what);
        }
    }

    pub fn count_ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }
}

/// The end-to-end measurements of one timed phase.
pub struct Phase {
    /// Operation latencies in ms; failures rank above every success.
    pub samples: Vec<Sample>,
    /// Trials delivered in `done` reports (memo-served ones included).
    pub delivered: u64,
    /// Wall time of the phase, first submit to last terminal state.
    pub wall_s: f64,
    /// Units (jobs, or fleet trials) that succeeded, of those attempted.
    pub ok_units: u64,
    pub attempted_units: u64,
    /// The latency a failure counts as where it lands on a reported rank.
    pub fail_ms: f64,
}

impl Phase {
    pub fn p50_ms(&self) -> f64 {
        ranked_ms(stats::median_ranked(&self.samples), self.fail_ms)
    }

    pub fn rounds_per_s(&self) -> f64 {
        self.delivered as f64 / self.wall_s
    }

    /// The tail latency in ms and its percentile `p`.
    pub fn tail_ms(&self) -> (f64, f64) {
        let (tail, p) = stats::tail(&self.samples).unwrap_or((Ranked::Failed, 1.0));
        (ranked_ms(Some(tail), self.fail_ms), p)
    }

    pub fn print(&self, label: &str) {
        let (tail, p) = self.tail_ms();
        println!(
            "{label}: p50 {:.3} ms, p{:.2} {tail:.3} ms over N = {} ops; {:.0} rounds/s over {:.2} s; {} of {} ok",
            self.p50_ms(),
            100.0 * p,
            self.samples.len(),
            self.rounds_per_s(),
            self.wall_s,
            self.ok_units,
            self.attempted_units
        );
    }

    /// Prints the phase and puts its end-to-end metrics into `report`.
    pub fn report(&self, report: &mut Report) {
        self.print("latency");
        report.put("latency_p50_ms", self.p50_ms());
        report.put("latency_tail_ms", self.tail_ms().0);
        report.put("rounds_per_s", self.rounds_per_s());
        report.put(
            "ok_share",
            self.ok_units as f64 / self.attempted_units.max(1) as f64,
        );
    }
}

/// Prints the untraced and traced halves of a traced run and puts the
/// tracing overhead: traced minus untraced.
pub fn report_overhead(untraced: &Phase, traced: &Phase, report: &mut Report) {
    untraced.print("untraced half");
    traced.print("traced half");
    report.put(
        "trace.overhead.latency_p50_ms",
        traced.p50_ms() - untraced.p50_ms(),
    );
    report.put(
        "trace.overhead.rounds_per_s",
        traced.rounds_per_s() - untraced.rounds_per_s(),
    );
}

fn ranked_ms(r: Option<Ranked>, fail_ms: f64) -> f64 {
    match r {
        Some(Ranked::Ok(ms)) => ms,
        _ => fail_ms,
    }
}

/// A layer-ladder table: rungs from the cheapest layer up, each with its
/// ns/round and its ratio to the rung below.
pub fn print_ladder(title: &str, rungs: &[(&str, f64)]) {
    println!("layer ladder ({title}):");
    println!(
        "  {:<34} {:>14}  ratio to the rung below",
        "rung", "ns/round"
    );
    for (i, (name, ns)) in rungs.iter().enumerate() {
        let ratio = match i {
            0 => "(base)".to_string(),
            _ => format!("{:.2}x {}", ns / rungs[i - 1].1, rungs[i - 1].0),
        };
        println!("  {name:<34} {ns:>14.2}  {ratio}");
    }
}

fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Keeps every core busy until a fixed chunk of work stops getting faster.
/// On the virtual machines this was tuned on, cores that were idle run up
/// to three times slower for the first one to two seconds of load, which
/// would otherwise land in the set-up and the first timed seconds.
fn warm_up() {
    const MIN: Duration = Duration::from_millis(2500);
    const MAX: Duration = Duration::from_secs(6);
    let start = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..cpus() {
            s.spawn(|| {
                let mut chunks: Vec<f64> = Vec::new();
                loop {
                    let t = Instant::now();
                    let mut x = 0u64;
                    for i in 0..2_000_000u64 {
                        x = std::hint::black_box(x.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ i);
                    }
                    chunks.push(t.elapsed().as_secs_f64());
                    let best = chunks.iter().copied().fold(f64::INFINITY, f64::min);
                    let recent = &chunks[chunks.len().saturating_sub(20)..];
                    let steady = recent.len() == 20 && recent.iter().all(|&c| c < 1.15 * best);
                    if (start.elapsed() >= MIN && steady) || start.elapsed() >= MAX {
                        return;
                    }
                }
            });
        }
    });
    println!("warm-up: {:.2} s", start.elapsed().as_secs_f64());
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    bin_dir: PathBuf,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let num = |s: String, flag: &str| s.parse::<u64>().map_err(|_| format!("bad {flag} {s:?}"));
    let args = Args {
        workload: get("--workload")?,
        seed: num(get("--seed")?, "--seed")?,
        seconds: num(get("--seconds")?, "--seconds")? as f64,
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            t => return Err(format!("bad --trace {t:?}")),
        },
        bin_dir: get("--bin-dir")?.into(),
        out: get("--out")?.into(),
    };
    if args.seconds < 1.0 {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("perfbench: cannot create {}: {e}", args.out.display());
        return ExitCode::FAILURE;
    }
    let tracer = trace::Tracer::new(args.trace);
    println!(
        "perfbench: workload {} seed {} seconds {} trace {} ({} cpus)",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        cpus()
    );
    warm_up();
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        bin_dir: args.bin_dir,
        out: args.out.clone(),
        tracer: &tracer,
    };
    let result = match args.workload.as_str() {
        "serve_small" => serve::run(&ctx),
        "fleet_r8" => fleet::run(&ctx),
        w => Err(format!("unknown workload {w:?}")),
    };
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.trace {
        let path = args
            .out
            .join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
        match tracer.write(&path) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => {
                eprintln!("perfbench: cannot write spans: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let wanted = if args.trace { PER_LAYER } else { END_TO_END };
    let fields: Vec<String> = wanted
        .iter()
        .map(|(name, unit)| {
            let value = report.metrics.get(name).copied().unwrap_or(0.0);
            let value = if value.is_finite() { value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    let correct = report.problems.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        fields.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// What every workload runner needs.
#[derive(Clone)]
pub struct Ctx<'a> {
    pub seed: u64,
    pub seconds: f64,
    pub bin_dir: PathBuf,
    pub out: PathBuf,
    pub tracer: &'a trace::Tracer,
}
