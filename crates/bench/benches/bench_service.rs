//! `bench_service` — load and chaos characterisation of the dQMA
//! verification service (`dqma-server` driven over real loopback sockets).
//!
//! Four tables, all against a real server process:
//!
//! 1. **Service overhead** — one large EQ-path `r = 32` job through the
//!    server vs the in-process trial engine on the same `(instance, seed)`,
//!    which must agree **bit-for-bit** before the timing is trusted. The
//!    design ceiling is **3×** the single-threaded engine (HTTP framing,
//!    journal writes and status polling amortised over 32 blocks), tracked
//!    as `speedup_service_ceiling_margin = 3 · ns_engine / ns_service` so
//!    `bench_compare` gates its trajectory; the in-bench hard ceiling is
//!    3× that budget.
//! 2. **Submit→done latency** — p50/p99 roundtrip over 160 sequential
//!    32-block EQ-path `r = 64` jobs (two coin words per trial on the lane
//!    walk), gated as `speedup_p50_budget_margin = 250 ms / p50_ms`; p99 is
//!    committed alongside.
//! 3. **Chaos under load** — a mixed concurrent workload (all three
//!    protocols, aggressive deadlines, injected worker panics, raw-socket
//!    disconnects, an overload flood against a short queue): the row
//!    records the full accounting and asserts the chaos-battery identity
//!    `submitted = completed + partial + failed` with zero hangs.
//! 4. **Kill–restart–resume** — SIGKILL the server mid-job, restart it on
//!    the same journal, and chart resume wall time; the resumed report
//!    must be bit-identical to an uninterrupted run.
//!
//! Requires the `dqma-server` binary (built by `cargo build --release`;
//! override with `DQMA_SERVER_BIN`) and a bindable loopback interface —
//! when either is missing the bench prints a skip notice and leaves the
//! committed `BENCH_service.json` untouched. A `dqma-server` older than
//! its sources is refused before it is spawned.
//!
//! Run with: `cargo bench --bench bench_service`

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use dqma::cluster::locate_bin;
use dqma::service::{client, json, ChaosSpec, CheatSpec, InstanceSpec, JobSpec};
use dqma::trials::{run_trials_with_workers, BLOCK_TRIALS};
use dqma_bench::{fmt_ns, print_header, print_row, JsonReport, JsonValue};

/// Design ceiling for the service-vs-engine ratio (see module docs).
const SERVICE_CEILING: f64 = 3.0;

/// Hard in-bench abort threshold, as a multiple of the design ceiling.
const SERVICE_HARD_FACTOR: f64 = 3.0;

/// Median budget for a 32-block submit→done roundtrip.
const P50_BUDGET_MS: f64 = 250.0;

/// Jobs in the latency sample.
const LATENCY_JOBS: usize = 160;

const TIMEOUT: Duration = Duration::from_secs(10);

struct Server {
    child: Child,
    addr: String,
}

impl Server {
    fn launch(extra: &[&str]) -> Option<Server> {
        let bin = locate_bin("dqma-server", "DQMA_SERVER_BIN").or_else(|| {
            println!(
                "bench_service: skipping (dqma-server not found; build with \
                 `cargo build --release` or set DQMA_SERVER_BIN); the \
                 committed BENCH_service.json is left untouched"
            );
            None
        })?;
        let root = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
        if let Err(e) = dqma_bench::check_binary_fresh(&bin, root) {
            panic!("bench_service: {e}");
        }
        let mut child = Command::new(&bin)
            .arg("--addr")
            .arg("127.0.0.1:0")
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| println!("bench_service: skipping (cannot spawn server: {e})"))
            .ok()?;
        let stdout = child.stdout.take().expect("stdout piped");
        let mut lines = BufReader::new(stdout).lines();
        let addr = match lines.next() {
            Some(Ok(line)) if line.starts_with("dqma-server listening ") => {
                line["dqma-server listening ".len()..].to_string()
            }
            other => {
                let _ = child.kill();
                let _ = child.wait();
                println!("bench_service: skipping (no usable loopback?): {other:?}");
                return None;
            }
        };
        std::thread::spawn(move || for _ in lines {});
        Some(Server { child, addr })
    }

    fn call(&self, method: &str, path: &str, body: Option<&str>) -> (u16, String) {
        client::call(&self.addr, method, path, body, TIMEOUT)
            .unwrap_or_else(|e| panic!("{method} {path}: {e}"))
    }

    fn submit(&self, spec: &JobSpec) -> u64 {
        let (code, body) = self.call("POST", "/v1/jobs", Some(&spec.to_json()));
        assert_eq!(code, 202, "submit must be admitted: {body}");
        job_id(&body)
    }

    /// Polls to a terminal state with a tight interval (latency rows are
    /// quantised by this, so keep it well under the budget).
    fn wait_terminal(&self, id: u64, timeout: Duration) -> json::Parsed {
        let deadline = Instant::now() + timeout;
        loop {
            let (code, body) = self.call("GET", &format!("/v1/jobs/{id}"), None);
            assert_eq!(code, 200, "status of job {id}: {body}");
            let parsed = json::parse(&body).expect("status JSON");
            match parsed.get("state").and_then(json::Parsed::as_str) {
                Some("done") | Some("aborted") => return parsed,
                _ => {
                    assert!(
                        Instant::now() < deadline,
                        "job {id} did not terminate in {timeout:?}"
                    );
                    std::thread::sleep(Duration::from_millis(2));
                }
            }
        }
    }

    fn stat(&self, key: &str) -> u64 {
        let (_, body) = self.call("GET", "/v1/healthz", None);
        json::parse(&body)
            .ok()
            .and_then(|h| {
                h.get("stats")
                    .and_then(|s| s.get(key))
                    .and_then(json::Parsed::as_num)
            })
            .unwrap_or_else(|| panic!("healthz missing stats.{key}")) as u64
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn job_id(body: &str) -> u64 {
    json::parse(body)
        .ok()
        .and_then(|p| p.get("job").and_then(json::Parsed::as_num))
        .expect("job id") as u64
}

fn num(parsed: &json::Parsed, key: &str) -> f64 {
    parsed
        .get(key)
        .and_then(json::Parsed::as_num)
        .unwrap_or_else(|| panic!("status missing {key}"))
}

fn eq_path(r: usize, seed_bits: (u64, u64)) -> InstanceSpec {
    InstanceSpec::EqPath {
        r,
        bits: 6,
        x: seed_bits.0,
        y: seed_bits.1,
        scheme_seed: 11,
        reps: 2,
        cheat: CheatSpec::Interpolate,
    }
}

fn job(instance: InstanceSpec, trials: u64, seed: u64) -> JobSpec {
    JobSpec {
        instance,
        trials,
        seed,
        deadline_ms: None,
        chaos: None,
    }
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    let idx = ((sorted_ms.len() as f64 - 1.0) * p).round() as usize;
    sorted_ms[idx]
}

fn main() {
    let mut report = JsonReport::new();

    // ----- Table 1: service overhead vs the in-process engine --------------
    let Some(server) = Server::launch(&["--workers", "2", "--max-trials", "134217728"]) else {
        return;
    };
    // 2048 blocks ≈ 100 ms of engine time: long enough that both timings
    // are compute-dominated and the gated margin is stable across runs.
    let instance = eq_path(32, (0b101101, 0b101101));
    let trials = 2048 * BLOCK_TRIALS;
    let seed = 0xBE5E;
    // Warm-up on both sides: page cache, thread pool, first-connect costs.
    run_trials_with_workers(&instance.compile(), 64 * BLOCK_TRIALS, seed ^ 2, 1);
    let warm = server.submit(&job(instance.clone(), 64 * BLOCK_TRIALS, seed ^ 1));
    server.wait_terminal(warm, Duration::from_secs(60));
    let reference = run_trials_with_workers(&instance.compile(), trials, seed, 1);

    let started = Instant::now();
    let id = server.submit(&job(instance.clone(), trials, seed));
    let status = server.wait_terminal(id, Duration::from_secs(600));
    let service_wall = started.elapsed();
    // Bit-identity is the precondition for trusting the timing.
    assert_eq!(
        num(&status, "accepts") as u64,
        reference.accepts,
        "served r=32 job must match the engine bit-for-bit"
    );
    let ns_engine = reference.elapsed.as_nanos() as f64 / trials as f64;
    let ns_service = service_wall.as_nanos() as f64 / trials as f64;
    let overhead = ns_service / ns_engine;
    let margin = SERVICE_CEILING * ns_engine / ns_service;
    let rounds_per_sec = trials as f64 / service_wall.as_secs_f64();
    print_header(
        "bench_service: served EQ-path r = 32 vs in-process engine",
        &[
            "benchmark",
            "engine",
            "service",
            "overhead",
            "rounds/s",
            "margin",
        ],
    );
    print_row(&[
        "service_eq_path_r32".to_string(),
        fmt_ns(ns_engine),
        fmt_ns(ns_service),
        format!("{overhead:.2}x"),
        format!("{rounds_per_sec:.0}"),
        format!("{margin:.2}"),
    ]);
    report.push(&[
        ("name", JsonValue::Str("service_eq_path_r32".to_string())),
        ("kind", JsonValue::Str("service_overhead".to_string())),
        ("trials", JsonValue::Int(trials)),
        ("ns_engine", JsonValue::Num(ns_engine)),
        ("ns_service", JsonValue::Num(ns_service)),
        ("overhead_x", JsonValue::Num(overhead)),
        ("rounds_per_sec", JsonValue::Num(rounds_per_sec)),
        ("accepts", JsonValue::Int(reference.accepts)),
        ("speedup_service_ceiling_margin", JsonValue::Num(margin)),
    ]);
    assert!(
        overhead <= SERVICE_CEILING * SERVICE_HARD_FACTOR,
        "service exceeded its hard overhead ceiling: {overhead:.2}x"
    );

    // ----- Table 2: submit→done latency distribution -----------------------
    // 32-block r = 64 jobs: a few ms of real compute each, so the median is
    // compute-dominated (stable enough to gate on) while the p99 charts the
    // scheduling tail. The gated margin uses the median against the budget;
    // p99 is committed alongside it.
    let lat_instance = eq_path(64, (0b101101, 0b101101));
    let lat_trials = 32 * BLOCK_TRIALS;
    let mut lat_ms: Vec<f64> = Vec::with_capacity(LATENCY_JOBS);
    for i in 0..LATENCY_JOBS as u64 {
        let spec = job(lat_instance.clone(), lat_trials, 0x1000 + i);
        let t = Instant::now();
        let id = server.submit(&spec);
        server.wait_terminal(id, Duration::from_secs(60));
        lat_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    lat_ms.sort_by(|a, b| a.total_cmp(b));
    let (p50, p99) = (percentile(&lat_ms, 0.50), percentile(&lat_ms, 0.99));
    let p50_margin = P50_BUDGET_MS / p50;
    print_header(
        "bench_service: submit->done roundtrip, 32-block EQ-path r = 64 jobs",
        &["benchmark", "jobs", "p50", "p99", "budget", "margin"],
    );
    print_row(&[
        "service_submit_roundtrip".to_string(),
        LATENCY_JOBS.to_string(),
        format!("{p50:.1} ms"),
        format!("{p99:.1} ms"),
        format!("{P50_BUDGET_MS:.0} ms"),
        format!("{p50_margin:.2}"),
    ]);
    report.push(&[
        (
            "name",
            JsonValue::Str("service_submit_roundtrip".to_string()),
        ),
        ("kind", JsonValue::Str("latency".to_string())),
        ("jobs", JsonValue::Int(LATENCY_JOBS as u64)),
        ("trials_per_job", JsonValue::Int(lat_trials)),
        ("p50_ms", JsonValue::Num(p50)),
        ("p99_ms", JsonValue::Num(p99)),
        ("budget_ms", JsonValue::Num(P50_BUDGET_MS)),
        ("speedup_p50_budget_margin", JsonValue::Num(p50_margin)),
    ]);
    drop(server);

    // ----- Table 3: chaos under load ---------------------------------------
    // A dedicated server with a short queue, chaos enabled and one worker
    // pinned: the flood must shed, the panics must abort only their own
    // jobs, the disconnects must be absorbed, and the books must balance.
    let Some(server) = Server::launch(&["--workers", "2", "--queue", "8", "--chaos"]) else {
        return;
    };
    let instances = [
        eq_path(8, (0b101101, 0b101101)),
        InstanceSpec::Relay {
            r: 9,
            bits: 6,
            x: 0b101101,
            y: 0b011011,
            seed: 3,
            cheat: CheatSpec::Interpolate,
        },
        InstanceSpec::EqTree {
            arms: 3,
            arm_len: 1,
            bits: 4,
            x: 9,
            y: 6,
            scheme_seed: 5,
            reps: 2,
        },
    ];
    let started = Instant::now();
    let mut admitted = Vec::new();
    let mut shed = 0u64;
    // Pin both workers with heavy jobs so the flood actually overloads the
    // short queue — the shed path must fire under this row, not just in
    // the unit tests.
    for k in 0..2u64 {
        let heavy = job(
            eq_path(64, (0b101101, 0b101101)),
            512 * BLOCK_TRIALS,
            0x9000 + k,
        );
        admitted.push(server.submit(&heavy));
    }
    for i in 0..32u64 {
        let mut spec = job(instances[i as usize % 3].clone(), 2 * BLOCK_TRIALS, i);
        match i % 8 {
            3 => spec.chaos = Some(ChaosSpec::PanicAtBlock(0)),
            5 => {
                // Heavy enough that a 1 ms deadline expires mid-job even
                // in release mode: the partial-report path under load.
                spec.instance = eq_path(64, (0b101101, 0b101101));
                spec.trials = 256 * BLOCK_TRIALS;
                spec.deadline_ms = Some(1);
            }
            _ => {}
        }
        let (code, body) = server.call("POST", "/v1/jobs", Some(&spec.to_json()));
        match code {
            202 => admitted.push(job_id(&body)),
            503 => shed += 1,
            other => panic!("unexpected status {other}: {body}"),
        }
        // Interleave raw-socket abuse: half a request head, then hang up.
        if i % 6 == 0 {
            if let Ok(mut s) = TcpStream::connect(&server.addr) {
                let _ = s.write_all(b"POST /v1/jobs HTTP/1.1\r\nContent-Le");
            }
        }
    }
    let mut completed_trials = 0u64;
    let mut aborted = 0u64;
    for &id in &admitted {
        let status = server.wait_terminal(id, Duration::from_secs(300));
        match status.get("state").and_then(json::Parsed::as_str) {
            Some("done") => completed_trials += num(&status, "completed") as u64,
            Some("aborted") => aborted += 1,
            other => panic!("job {id}: non-terminal terminal state {other:?}"),
        }
    }
    let wall = started.elapsed();
    let (submitted, completed, partial, failed) = (
        server.stat("submitted"),
        server.stat("completed"),
        server.stat("partial"),
        server.stat("failed"),
    );
    assert_eq!(
        submitted,
        completed + partial + failed,
        "chaos accounting identity: admitted = completed + partial + failed"
    );
    assert_eq!(server.stat("shed"), shed);
    assert!(
        shed > 0,
        "the flood against a pinned 8-deep queue must shed"
    );
    assert!(aborted > 0, "the injected panics must abort their jobs");
    assert!(partial > 0, "the 1 ms deadlines must produce partials");
    let chaos_rps = completed_trials as f64 / wall.as_secs_f64();
    print_header(
        "bench_service: mixed chaos workload (panics, deadlines, disconnects, flood)",
        &[
            "benchmark",
            "admitted",
            "shed",
            "partial",
            "failed",
            "rounds/s",
        ],
    );
    print_row(&[
        "service_chaos_mixed".to_string(),
        admitted.len().to_string(),
        shed.to_string(),
        partial.to_string(),
        failed.to_string(),
        format!("{chaos_rps:.0}"),
    ]);
    report.push(&[
        ("name", JsonValue::Str("service_chaos_mixed".to_string())),
        ("kind", JsonValue::Str("chaos_load".to_string())),
        ("admitted", JsonValue::Int(admitted.len() as u64)),
        ("shed", JsonValue::Int(shed)),
        ("completed", JsonValue::Int(completed)),
        ("partial", JsonValue::Int(partial)),
        ("failed", JsonValue::Int(failed)),
        ("rounds_per_sec", JsonValue::Num(chaos_rps)),
        ("wall_ms", JsonValue::Num(wall.as_secs_f64() * 1e3)),
    ]);
    drop(server);

    // ----- Table 4: kill–restart–resume ------------------------------------
    let dir = std::env::temp_dir().join("dqma-bench-service");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let journal = dir.join("journal.log");
    let _ = std::fs::remove_file(&journal);
    let jarg = journal.to_str().expect("utf-8 temp path").to_string();

    // ~0.5 s of single-worker compute: a wide window to land the SIGKILL
    // in, and thousands of journaled blocks for the resume to reuse.
    let spec = job(eq_path(64, (0b101101, 0b101101)), 4096 * BLOCK_TRIALS, 0x77);
    let reference = run_trials_with_workers(&spec.instance.compile(), spec.trials, spec.seed, 1);
    let Some(server) = Server::launch(&[
        "--workers",
        "1",
        "--journal",
        &jarg,
        "--max-trials",
        "134217728",
    ]) else {
        return;
    };
    let id = server.submit(&spec);
    // Kill once the job is deep mid-flight (≥ 25% of its blocks journaled)
    // so the resume has a substantial prefix to reuse.
    let kill_deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let (_, body) = server.call("GET", &format!("/v1/jobs/{id}"), None);
        let parsed = json::parse(&body).expect("status JSON");
        match parsed.get("state").and_then(json::Parsed::as_str) {
            Some("running") if num(&parsed, "completed") >= spec.trials as f64 / 4.0 => break,
            Some("done") => break, // machine outran the kill window
            _ => {
                assert!(Instant::now() < kill_deadline, "job never started");
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }
    drop(server); // SIGKILL mid-job, torn journal tail and all

    let restarted = Instant::now();
    let Some(server) = Server::launch(&["--workers", "1", "--journal", &jarg]) else {
        return;
    };
    let status = server.wait_terminal(id, Duration::from_secs(300));
    let resume_wall = restarted.elapsed();
    assert_eq!(
        num(&status, "accepts") as u64,
        reference.accepts,
        "restart-resumed job must be bit-identical to an uninterrupted run"
    );
    let memo_hits = server.stat("memo_hits");
    assert!(
        memo_hits > 0,
        "the resume must reuse journaled blocks, not resample them"
    );
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
    print_header(
        "bench_service: SIGKILL mid-job, restart on the journal, resume",
        &["benchmark", "trials", "reused blocks", "resume wall"],
    );
    print_row(&[
        "service_kill_resume".to_string(),
        spec.trials.to_string(),
        memo_hits.to_string(),
        format!("{:.2} s", resume_wall.as_secs_f64()),
    ]);
    report.push(&[
        ("name", JsonValue::Str("service_kill_resume".to_string())),
        ("kind", JsonValue::Str("crash_recovery".to_string())),
        ("trials", JsonValue::Int(spec.trials)),
        ("accepts", JsonValue::Int(reference.accepts)),
        ("reused_blocks", JsonValue::Int(memo_hits)),
        (
            "resume_wall_ms",
            JsonValue::Num(resume_wall.as_secs_f64() * 1e3),
        ),
    ]);

    let json_out = report.render(&[
        ("suite", JsonValue::Str("bench_service".to_string())),
        ("service_overhead_r32_x", JsonValue::Num(overhead)),
        ("service_p99_ms", JsonValue::Num(p99)),
    ]);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_service.json");
    std::fs::write(path, &json_out).expect("write BENCH_service.json");
    println!("\nwrote {path}");
}
