//! End-to-end chaos battery for the verification service: a real
//! `dqma-server` process driven over loopback sockets.
//!
//! The robustness contract under test (the serving-layer extension of the
//! paper's soundness story): whatever the clients do — flood, malform,
//! disconnect mid-request, trickle, or kill the server outright — every
//! admitted job ends in a complete report, a partial report, or an
//! explicit abort/shed; nothing is silently dropped, nothing hangs, and a
//! journal-restarted server resumes bit-identically to an uninterrupted
//! run.
//!
//! Environments without a bindable loopback interface skip gracefully:
//! a failed server launch is a skip, mirroring `integration_tcp_cluster`.

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use dqma::service::{client, json, CheatSpec, InstanceSpec, JobSpec};
use dqma::trials::{run_trials_with_workers, BLOCK_TRIALS};

const TIMEOUT: Duration = Duration::from_secs(10);

struct Server {
    child: Child,
    addr: String,
}

impl Server {
    /// Spawns a `dqma-server` on an ephemeral port, parsing the announced
    /// address from its stdout. `None` = environment can't serve (skip).
    fn launch(extra: &[&str]) -> Option<Server> {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_dqma-server"));
        cmd.arg("--addr")
            .arg("127.0.0.1:0")
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        let mut child = match cmd.spawn() {
            Ok(c) => c,
            Err(e) => {
                eprintln!("skipping service test (cannot spawn server): {e}");
                return None;
            }
        };
        let stdout = child.stdout.take().expect("stdout piped");
        let mut lines = BufReader::new(stdout).lines();
        let addr = match lines.next() {
            Some(Ok(line)) if line.starts_with("dqma-server listening ") => {
                line["dqma-server listening ".len()..].to_string()
            }
            other => {
                let _ = child.kill();
                let _ = child.wait();
                eprintln!("skipping service test (no usable loopback?): {other:?}");
                return None;
            }
        };
        // Keep draining stdout so the server never blocks on a full pipe.
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
        json::parse(&body)
            .unwrap()
            .get("job")
            .and_then(json::Parsed::as_num)
            .expect("job id") as u64
    }

    /// Polls a job to a terminal state within a global timeout (the
    /// zero-hangs criterion) and returns the final status body.
    fn wait_terminal(&self, id: u64, timeout: Duration) -> json::Parsed {
        let deadline = Instant::now() + timeout;
        loop {
            let (code, body) = self.call("GET", &format!("/v1/jobs/{id}"), None);
            assert_eq!(code, 200, "status of admitted job {id}: {body}");
            let parsed = json::parse(&body).expect("status is JSON");
            match parsed.get("state").and_then(json::Parsed::as_str) {
                Some("done") | Some("aborted") => return parsed,
                _ => {
                    assert!(
                        Instant::now() < deadline,
                        "job {id} did not reach a terminal state in {timeout:?}: {body}"
                    );
                    std::thread::sleep(Duration::from_millis(20));
                }
            }
        }
    }

    fn healthz(&self) -> json::Parsed {
        let (code, body) = self.call("GET", "/v1/healthz", None);
        assert_eq!(code, 200);
        json::parse(&body).expect("healthz is JSON")
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn eq_path_instance(r: usize) -> InstanceSpec {
    InstanceSpec::EqPath {
        r,
        bits: 6,
        x: 0b101101,
        y: 0b011011,
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

fn stat(health: &json::Parsed, key: &str) -> u64 {
    health
        .get("stats")
        .and_then(|s| s.get(key))
        .and_then(json::Parsed::as_num)
        .unwrap_or_else(|| panic!("healthz missing stats.{key}")) as u64
}

/// Happy path over real sockets: the served report is bit-identical to
/// the in-process trial engine, and identical same-instance jobs share
/// blocks through the memo (visible in `healthz` stats).
#[test]
fn served_reports_are_bit_identical_to_the_in_process_engine() {
    let Some(server) = Server::launch(&[]) else {
        return;
    };
    let spec = job(eq_path_instance(8), 3 * BLOCK_TRIALS + 101, 9);
    let reference = run_trials_with_workers(&spec.instance.compile(), spec.trials, spec.seed, 1);

    let id = server.submit(&spec);
    let status = server.wait_terminal(id, Duration::from_secs(120));
    assert_eq!(
        status.get("state").and_then(json::Parsed::as_str),
        Some("done")
    );
    assert_eq!(
        status.get("accepts").and_then(json::Parsed::as_num),
        Some(reference.accepts as f64),
        "served accepts must match the engine bit-for-bit"
    );
    assert_eq!(
        status.get("partial"),
        Some(&json::Parsed::Bool(false)),
        "no deadline, no partial"
    );
    let (lo, hi) = (
        status
            .get("wilson_lo")
            .and_then(json::Parsed::as_num)
            .unwrap(),
        status
            .get("wilson_hi")
            .and_then(json::Parsed::as_num)
            .unwrap(),
    );
    assert!(0.0 <= lo && lo <= hi && hi <= 1.0);

    // An identical job reuses the first job's full blocks.
    let id2 = server.submit(&spec);
    let status2 = server.wait_terminal(id2, Duration::from_secs(120));
    assert_eq!(
        status2.get("accepts").and_then(json::Parsed::as_num),
        Some(reference.accepts as f64)
    );
    assert_eq!(
        stat(&server.healthz(), "memo_hits"),
        3,
        "the identical job must reuse the three full blocks"
    );
}

/// Malformed and oversized requests get structured 4xx responses and the
/// server keeps serving afterwards — no panic, no wedged handler.
#[test]
fn malformed_and_oversized_requests_are_rejected_and_service_survives() {
    let Some(server) = Server::launch(&["--max-body", "4096"]) else {
        return;
    };
    // Broken JSON, wrong shapes, invalid specs.
    for body in [
        "{oops",
        "[]",
        "{}",
        "{\"instance\":{\"protocol\":\"warp\"},\"trials\":1}",
    ] {
        let (code, resp) = server.call("POST", "/v1/jobs", Some(body));
        assert_eq!(code, 400, "{body:?} -> {resp}");
        assert!(
            resp.contains("error"),
            "error body must be structured: {resp}"
        );
    }
    // Oversized declared body: refused with 413 from the declared
    // Content-Length alone, before any body bytes arrive.
    if let Ok(mut s) = TcpStream::connect(&server.addr) {
        s.set_read_timeout(Some(TIMEOUT)).unwrap();
        let _ = s.write_all(b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 100000\r\n\r\n");
        let mut buf = Vec::new();
        let _ = s.read_to_end(&mut buf);
        let text = String::from_utf8_lossy(&buf);
        assert!(
            text.starts_with("HTTP/1.1 413"),
            "oversized declaration must draw a 413, got {text:?}"
        );
    }
    // Unknown paths and ids.
    assert_eq!(server.call("GET", "/nope", None).0, 404);
    assert_eq!(server.call("GET", "/v1/jobs/424242", None).0, 404);
    // There is no remote stop: a client cannot exit the server.
    assert_eq!(server.call("POST", "/v1/shutdown", None).0, 404);
    // Raw garbage on the socket (not even HTTP).
    if let Ok(mut s) = TcpStream::connect(&server.addr) {
        let _ = s.write_all(b"\x00\x01\x02 total garbage\r\n\r\n");
        let _ = s.read(&mut [0u8; 64]);
    }
    // After all of that, the server still serves real work.
    let id = server.submit(&job(eq_path_instance(4), BLOCK_TRIALS, 1));
    let status = server.wait_terminal(id, Duration::from_secs(60));
    assert_eq!(
        status.get("state").and_then(json::Parsed::as_str),
        Some("done")
    );
}

/// Slow clients and mid-request disconnects: a half-sent request that
/// stalls or trickles is timed out (408) and a connection dropped
/// mid-request is absorbed; the handlers and in-flight service state
/// survive all three.
#[test]
fn slow_clients_and_mid_request_disconnects_do_not_wedge_the_server() {
    let Some(server) = Server::launch(&["--read-timeout-ms", "200"]) else {
        return;
    };
    // Mid-request disconnect: send half a request head, hang up.
    for _ in 0..4 {
        if let Ok(mut s) = TcpStream::connect(&server.addr) {
            let _ = s.write_all(b"POST /v1/jobs HTTP/1.1\r\nContent-Le");
            drop(s);
        }
    }
    // Slow client: a half request that stalls past the read timeout gets
    // a structured 408 (when the socket is still up to carry it).
    if let Ok(mut s) = TcpStream::connect(&server.addr) {
        let _ = s.write_all(b"GET /v1/healthz HTTP/1.1\r\n");
        std::thread::sleep(Duration::from_millis(600));
        let mut buf = Vec::new();
        let _ = s.read_to_end(&mut buf);
        let text = String::from_utf8_lossy(&buf);
        assert!(
            text.starts_with("HTTP/1.1 408") || text.is_empty(),
            "stalled request must be timed out, got {text:?}"
        );
    }
    // Trickling client: one byte per half timeout never lets a single read
    // time out, but the request's deadline does. The server must answer
    // with a 408 or close within three timeouts of the connect.
    if let Ok(mut s) = TcpStream::connect(&server.addr) {
        let start = Instant::now();
        s.set_read_timeout(Some(Duration::from_millis(100)))
            .unwrap();
        let head = b"GET /v1/healthz HTTP/1.1\r\nX-Slow: ";
        let mut reply = [0u8; 256];
        let mut sent = 0;
        let (ended, got) = loop {
            if start.elapsed() > Duration::from_millis(600) {
                break (None, 0);
            }
            let byte = head.get(sent).copied().unwrap_or(b'a');
            sent += 1;
            match s.write_all(&[byte]).and_then(|()| s.read(&mut reply)) {
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
                r => break (Some(start.elapsed()), r.unwrap_or(0)),
            }
        };
        let text = String::from_utf8_lossy(&reply[..got]);
        assert!(
            ended.is_some_and(|t| t <= Duration::from_millis(600)),
            "a trickling request must be cut off within 600 ms, got {ended:?} {text:?}"
        );
        assert!(
            text.is_empty() || text.starts_with("HTTP/1.1 408"),
            "a trickling request must get a 408 or a close, got {text:?}"
        );
    }
    // A body shorter than its declared Content-Length, then disconnect.
    if let Ok(mut s) = TcpStream::connect(&server.addr) {
        let _ = s.write_all(b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 5000\r\n\r\n{\"in");
        drop(s);
    }
    // The server is still healthy and still serves jobs.
    let id = server.submit(&job(eq_path_instance(4), BLOCK_TRIALS, 2));
    let status = server.wait_terminal(id, Duration::from_secs(60));
    assert_eq!(
        status.get("state").and_then(json::Parsed::as_str),
        Some("done")
    );
}

/// A zero read timeout cannot be set on a socket, so it would leave every
/// connection without slow-client protection: the server refuses it at
/// start-up, with the usage exit code and before it listens.
#[test]
fn zero_read_timeout_is_refused_at_start_up() {
    let mut child = match Command::new(env!("CARGO_BIN_EXE_dqma-server"))
        .args(["--addr", "127.0.0.1:0", "--read-timeout-ms", "0"])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
    {
        Ok(c) => c,
        Err(e) => {
            eprintln!("skipping service test (cannot spawn server): {e}");
            return;
        }
    };
    let deadline = Instant::now() + TIMEOUT;
    let status = loop {
        if let Some(status) = child.try_wait().unwrap() {
            break status;
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("dqma-server --read-timeout-ms 0 did not exit");
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    let mut out = String::new();
    child
        .stdout
        .take()
        .unwrap()
        .read_to_string(&mut out)
        .unwrap();
    assert_eq!(status.code(), Some(2), "usage errors exit with code 2");
    assert!(
        !out.contains("listening"),
        "refused before listening: {out:?}"
    );
}

/// The connection cap: with `--max-conns 2`, two stalled connections hold
/// both slots and a third gets an immediate 503; closing them frees the
/// slots; and a burst of stalled connections never grows the server past
/// `workers + max_conns + 1` threads.
#[test]
fn connection_cap_sheds_at_once_and_bounds_the_threads() {
    // The read timeout is far longer than the test, so only a close can
    // free a slot.
    let Some(server) = Server::launch(&[
        "--max-conns",
        "2",
        "--workers",
        "1",
        "--read-timeout-ms",
        "30000",
    ]) else {
        return;
    };
    let stall = || {
        let mut s = TcpStream::connect(&server.addr).expect("connect");
        s.write_all(b"GET /v1/healthz HTTP/1.1\r\nHo").unwrap();
        s
    };

    let held = [stall(), stall()];
    // Let the server take both before the third arrives: it claims a
    // connection's slot right after accepting it.
    std::thread::sleep(Duration::from_millis(100));
    let start = Instant::now();
    let mut third = TcpStream::connect(&server.addr).expect("connect");
    third.set_read_timeout(Some(TIMEOUT)).unwrap();
    let mut text = String::new();
    let _ = third.read_to_string(&mut text);
    let took = start.elapsed();
    assert!(
        text.starts_with("HTTP/1.1 503") && text.contains("too many connections"),
        "a third connection must be refused, got {text:?}"
    );
    assert!(
        took < Duration::from_secs(2),
        "refused at once, took {took:?}"
    );
    for mut s in &held {
        s.set_nonblocking(true).unwrap();
        let err = s
            .read(&mut [0u8; 16])
            .expect_err("held connections get no reply");
        assert_eq!(err.kind(), ErrorKind::WouldBlock);
    }

    // Closing the held connections frees both slots, long before their
    // read timeout would.
    drop(held);
    let deadline = Instant::now() + TIMEOUT;
    loop {
        match client::call(&server.addr, "GET", "/v1/healthz", None, TIMEOUT) {
            Ok((200, _)) => break,
            other => assert!(
                Instant::now() < deadline,
                "healthz after the close: {other:?}"
            ),
        }
        std::thread::sleep(Duration::from_millis(10));
    }

    // A burst of stalled connections: two hold slots, the rest are
    // refused, and the thread count stays inside the bound.
    let burst: Vec<TcpStream> = (0..20)
        .map(|_| TcpStream::connect(&server.addr).expect("connect"))
        .collect();
    let mut refused = 0;
    for mut s in &burst {
        s.set_read_timeout(Some(Duration::from_millis(300)))
            .unwrap();
        let mut buf = [0u8; 64];
        if matches!(s.read(&mut buf), Ok(n) if buf[..n].starts_with(b"HTTP/1.1 503")) {
            refused += 1;
        }
    }
    assert_eq!(refused, 18, "all but two of the burst are refused");
    let status = format!("/proc/{}/status", server.child.id());
    if let Ok(text) = std::fs::read_to_string(&status) {
        let threads: usize = text
            .lines()
            .find_map(|l| l.strip_prefix("Threads:"))
            .and_then(|v| v.trim().parse().ok())
            .expect("Threads line");
        assert!(
            threads <= 1 + 2 + 1,
            "{threads} threads > workers + max_conns + 1"
        );
    }
}

/// Refusals reach clients that sent their whole request: the server drains
/// the unread request bytes before it closes, so no reset destroys the
/// `503` before `client::call` reads it.
#[test]
fn over_cap_refusals_reach_clients_that_sent_a_full_request() {
    let Some(server) = Server::launch(&["--max-conns", "1", "--read-timeout-ms", "30000"]) else {
        return;
    };
    let mut held = TcpStream::connect(&server.addr).expect("connect");
    held.write_all(b"GET /v1/healthz HTTP/1.1\r\nHo").unwrap();
    std::thread::sleep(Duration::from_millis(100));
    for i in 0..200 {
        match client::call(&server.addr, "GET", "/v1/healthz", None, TIMEOUT) {
            Ok((503, body)) => assert!(body.contains("too many connections"), "{body}"),
            other => panic!("over-cap request {i}: {other:?}"),
        }
    }
    drop(held);
}

/// A body over `--max-body` draws a `413` even when the client sends all of
/// it before reading: the server drains the body instead of resetting.
#[test]
fn an_oversized_body_sent_in_full_still_reads_its_413() {
    let Some(server) = Server::launch(&["--max-body", "4096"]) else {
        return;
    };
    let body = format!("\"{}\"", "x".repeat(100_000));
    let reply = client::call(&server.addr, "POST", "/v1/jobs", Some(&body), TIMEOUT);
    assert!(
        matches!(&reply, Ok((413, b)) if b.contains("too large")),
        "got {reply:?}"
    );
    server.healthz();
}

/// Overload: with a tiny queue and a slow job pinning the worker, a flood
/// of submissions sheds explicitly with 503s — and every job that *was*
/// admitted still reaches a terminal state (zero silent rejects).
#[test]
fn overload_sheds_with_503_and_admitted_jobs_all_terminate() {
    let Some(server) = Server::launch(&["--workers", "1", "--queue", "2"]) else {
        return;
    };
    // Pin the worker with a long job.
    let slow = job(eq_path_instance(64), 64 * BLOCK_TRIALS, 3);
    let mut admitted = vec![server.submit(&slow)];
    let mut shed = 0u64;
    for i in 0..24 {
        let spec = job(eq_path_instance(4), BLOCK_TRIALS, 100 + i);
        let (code, body) = server.call("POST", "/v1/jobs", Some(&spec.to_json()));
        match code {
            202 => admitted.push(
                json::parse(&body)
                    .unwrap()
                    .get("job")
                    .and_then(json::Parsed::as_num)
                    .unwrap() as u64,
            ),
            503 => {
                assert!(body.contains("overloaded"), "shed body must say so: {body}");
                shed += 1;
            }
            other => panic!("unexpected status {other}: {body}"),
        }
    }
    assert!(shed > 0, "a 2-deep queue under a 24-job flood must shed");
    let health = server.healthz();
    assert_eq!(stat(&health, "shed"), shed, "every shed is counted");
    // Zero silent rejects: every admitted job reaches a terminal state.
    for id in admitted {
        server.wait_terminal(id, Duration::from_secs(300));
    }
    let health = server.healthz();
    assert_eq!(
        stat(&health, "submitted"),
        stat(&health, "completed") + stat(&health, "partial") + stat(&health, "failed"),
        "admitted = completed + partial + failed (zero silent rejects)"
    );
}

/// Deadlines: an aggressive per-request deadline yields a *partial*
/// report with a Wilson interval over the sampled prefix — the job frees
/// the worker instead of blocking the queue.
#[test]
fn expired_deadline_returns_a_partial_report() {
    let Some(server) = Server::launch(&["--workers", "1"]) else {
        return;
    };
    let mut spec = job(eq_path_instance(64), 512 * BLOCK_TRIALS, 5);
    spec.deadline_ms = Some(50);
    let id = server.submit(&spec);
    let status = server.wait_terminal(id, Duration::from_secs(60));
    assert_eq!(
        status.get("state").and_then(json::Parsed::as_str),
        Some("done")
    );
    assert_eq!(
        status.get("partial"),
        Some(&json::Parsed::Bool(true)),
        "a 512-block job cannot finish in 50 ms: {status:?}"
    );
    let completed = status
        .get("completed")
        .and_then(json::Parsed::as_num)
        .unwrap();
    let requested = status
        .get("requested")
        .and_then(json::Parsed::as_num)
        .unwrap();
    assert!(completed < requested);
    assert_eq!(completed as u64 % BLOCK_TRIALS, 0, "partial cuts at blocks");
    let (lo, hi) = (
        status
            .get("wilson_lo")
            .and_then(json::Parsed::as_num)
            .unwrap(),
        status
            .get("wilson_hi")
            .and_then(json::Parsed::as_num)
            .unwrap(),
    );
    assert!(
        0.0 <= lo && lo <= hi && hi <= 1.0,
        "interval over the prefix"
    );
}

/// Worker panics (chaos-injected) fail only their own job with an
/// explicit aborted state; the worker thread survives and the next job
/// completes normally.
#[test]
fn injected_worker_panic_aborts_the_job_and_the_service_survives() {
    let Some(server) = Server::launch(&["--workers", "1", "--chaos"]) else {
        return;
    };
    let mut doomed = job(eq_path_instance(4), 2 * BLOCK_TRIALS, 6);
    doomed.chaos = Some(dqma::service::ChaosSpec::PanicAtBlock(0));
    let id = server.submit(&doomed);
    let status = server.wait_terminal(id, Duration::from_secs(60));
    assert_eq!(
        status.get("state").and_then(json::Parsed::as_str),
        Some("aborted"),
        "chaos panic must be an explicit abort: {status:?}"
    );
    assert!(
        status
            .get("error")
            .and_then(json::Parsed::as_str)
            .is_some_and(|e| e.contains("panic")),
        "abort reason names the panic"
    );
    // The single worker survived: the next job completes.
    let id2 = server.submit(&job(eq_path_instance(4), BLOCK_TRIALS, 7));
    let status2 = server.wait_terminal(id2, Duration::from_secs(60));
    assert_eq!(
        status2.get("state").and_then(json::Parsed::as_str),
        Some("done")
    );
    assert_eq!(stat(&server.healthz(), "failed"), 1);
}

/// Chaos directives are a test-harness door, closed by default: without
/// `--chaos` the server refuses them at admission.
#[test]
fn chaos_directives_are_refused_without_the_flag() {
    let Some(server) = Server::launch(&[]) else {
        return;
    };
    let mut spec = job(eq_path_instance(4), BLOCK_TRIALS, 6);
    spec.chaos = Some(dqma::service::ChaosSpec::PanicAtBlock(0));
    let (code, body) = server.call("POST", "/v1/jobs", Some(&spec.to_json()));
    assert_eq!(code, 400, "chaos without --chaos must be refused: {body}");
}

/// The crash-recovery headline: SIGKILL the server mid-job, restart it on
/// the same journal, and the resumed job completes **bit-identically** to
/// an uninterrupted run — journaled blocks are reused, not resampled.
#[test]
fn kill_restart_resumes_jobs_bit_identically_from_the_journal() {
    let dir = std::env::temp_dir().join(format!("dqma-svc-it-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let journal = dir.join("journal.log");
    let _ = std::fs::remove_file(&journal);
    let jarg = journal.to_str().unwrap().to_string();

    // A job long enough to survive the kill window comfortably.
    let spec = job(eq_path_instance(48), 48 * BLOCK_TRIALS, 77);
    let reference = run_trials_with_workers(&spec.instance.compile(), spec.trials, spec.seed, 1);

    let id;
    {
        let Some(server) = Server::launch(&["--workers", "1", "--journal", &jarg]) else {
            return;
        };
        id = server.submit(&spec);
        // Wait until the job is demonstrably mid-flight (some progress
        // reported), then pull the plug without ceremony.
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            let (_, body) = server.call("GET", &format!("/v1/jobs/{id}"), None);
            let parsed = json::parse(&body).unwrap();
            let state = parsed
                .get("state")
                .and_then(json::Parsed::as_str)
                .unwrap_or("");
            if state == "running"
                && parsed
                    .get("completed")
                    .and_then(json::Parsed::as_num)
                    .unwrap_or(0.0)
                    > 0.0
            {
                break;
            }
            if state == "done" {
                // Machine too fast for a mid-flight kill: equality is
                // still the acceptance criterion.
                assert_eq!(
                    parsed.get("accepts").and_then(json::Parsed::as_num),
                    Some(reference.accepts as f64)
                );
                return;
            }
            assert!(Instant::now() < deadline, "job never started: {body}");
            std::thread::sleep(Duration::from_millis(10));
        }
        // Drop kills the child (SIGKILL): mid-job crash, torn journal
        // tail and all.
    }

    // Restart on the same journal: the unfinished job re-enqueues and
    // completes bit-identically, reusing its journaled blocks.
    let Some(server) = Server::launch(&["--workers", "1", "--journal", &jarg]) else {
        return;
    };
    let health = server.healthz();
    assert_eq!(stat(&health, "resumed"), 1, "the killed job must resume");
    let status = server.wait_terminal(id, Duration::from_secs(300));
    assert_eq!(
        status.get("state").and_then(json::Parsed::as_str),
        Some("done")
    );
    assert_eq!(
        status.get("accepts").and_then(json::Parsed::as_num),
        Some(reference.accepts as f64),
        "restart-resumed job must be bit-identical to an uninterrupted run"
    );
    assert_eq!(status.get("partial"), Some(&json::Parsed::Bool(false)));
    assert!(
        stat(&server.healthz(), "memo_hits") > 0,
        "journaled blocks must be reused, not resampled"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Concurrent mixed workload: many clients, all three protocols, some
/// deadlines, all in flight at once — every admitted job terminates and
/// the accounting identity holds (the chaos-battery bookkeeping
/// criterion under plain load).
#[test]
fn concurrent_mixed_workload_terminates_every_admitted_job() {
    let Some(server) = Server::launch(&["--workers", "2", "--queue", "64"]) else {
        return;
    };
    let instances = [
        eq_path_instance(8),
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
    let mut ids = Vec::new();
    for i in 0..12u64 {
        let mut spec = job(instances[i as usize % 3].clone(), 2 * BLOCK_TRIALS, i);
        if i % 4 == 0 {
            spec.deadline_ms = Some(5_000);
        }
        ids.push(server.submit(&spec));
    }
    for id in ids {
        let status = server.wait_terminal(id, Duration::from_secs(300));
        let state = status.get("state").and_then(json::Parsed::as_str).unwrap();
        assert!(
            state == "done" || state == "aborted",
            "job {id} must terminate explicitly, got {state}"
        );
    }
    let health = server.healthz();
    assert_eq!(
        stat(&health, "submitted"),
        stat(&health, "completed") + stat(&health, "partial") + stat(&health, "failed")
    );
}
