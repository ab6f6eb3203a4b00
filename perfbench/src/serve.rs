//! The served workload, `serve_small`: a `dqma-server` process with one
//! worker and a fresh journal, driven over loopback HTTP by one closed-loop
//! client. The client submits its next job only after the previous one
//! reached a terminal state, polling `GET /v1/jobs/<id>` right after the
//! submit and then every [`POLL_INTERVAL`].
//!
//! The traced run adds the in-process rungs on the same job list: plan
//! compile, the trial engine (one worker), and an in-process `Service`
//! replay with the journal on and off.

use std::collections::HashMap;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dqma::service::{
    client, json, CompiledPlan, JobSpec, JobStatus, Service, ServiceConfig, StatsSnapshot,
};
use dqma::trials::{run_trials_with_workers, BLOCK_TRIALS};

use crate::gen::{self, JobGen};
use crate::stats::{self, Sample};
use crate::{Ctx, Phase, Report};

/// Worker threads of the server (and of the in-process replay). With one
/// worker and one client, a run keeps one core busy and leaves the other to
/// the HTTP threads, so that it does not measure the scheduler.
const WORKERS: usize = 1;

/// Engine threads of the output check, which runs outside the timed window.
const CHECK_WORKERS: usize = 2;

/// Server start-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 100;

const CALL_TIMEOUT: Duration = Duration::from_secs(10);

/// A job not terminal after this long counts as failed.
const JOB_TIMEOUT: Duration = Duration::from_secs(60);

/// The client's status-poll interval: well under the median job time,
/// about half a millisecond.
const POLL_INTERVAL: Duration = Duration::from_micros(100);

// ---------------------------------------------------------------------------
// The server process
// ---------------------------------------------------------------------------

struct Server {
    child: Child,
    addr: String,
    drain: Option<JoinHandle<()>>,
}

impl Server {
    /// Spawns `dqma-server` on a fresh journal and waits for its first
    /// `healthz` 200. Returns the server and that set-up time in seconds.
    fn start(bin: &Path, journal: &Path) -> Result<(Server, f64), String> {
        let _ = std::fs::remove_file(journal);
        let t0 = Instant::now();
        let mut child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0", "--workers", &WORKERS.to_string()])
            .arg("--journal")
            .arg(journal)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        let mut lines = BufReader::new(child.stdout.take().expect("stdout is piped")).lines();
        let addr = match lines.next() {
            Some(Ok(l)) => l.strip_prefix("dqma-server listening ").map(str::to_string),
            _ => None,
        };
        let drain = std::thread::spawn(move || lines.for_each(drop));
        let server = Server {
            child,
            addr: addr.unwrap_or_default(),
            drain: Some(drain),
        };
        if server.addr.is_empty() {
            return Err("dqma-server did not report its address".to_string());
        }
        loop {
            match client::call(&server.addr, "GET", "/v1/healthz", None, CALL_TIMEOUT) {
                Ok((200, _)) => return Ok((server, t0.elapsed().as_secs_f64())),
                _ if t0.elapsed() < Duration::from_secs(10) => {
                    std::thread::sleep(Duration::from_micros(200))
                }
                other => return Err(format!("dqma-server never became healthy: {other:?}")),
            }
        }
    }

    /// The `healthz` counters.
    fn stats(&self) -> Result<HashMap<String, u64>, String> {
        let (code, body) = client::call(&self.addr, "GET", "/v1/healthz", None, CALL_TIMEOUT)
            .map_err(|e| format!("healthz: {e}"))?;
        let parsed = json::parse(&body).map_err(|e| format!("healthz {code}: {e}"))?;
        let keys = [
            "submitted",
            "shed",
            "completed",
            "partial",
            "failed",
            "memo_hits",
        ];
        keys.iter()
            .map(|&k| {
                parsed
                    .get("stats")
                    .and_then(|s| s.get(k))
                    .and_then(json::Parsed::as_num)
                    .map(|v| (k.to_string(), v as u64))
                    .ok_or_else(|| format!("healthz lacks stats.{k}: {body}"))
            })
            .collect()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(h) = self.drain.take() {
            let _ = h.join();
        }
    }
}

/// Starts the server `SETUP_REPS` times, each on a fresh journal, and keeps
/// the last one. Returns it with the median set-up time.
fn start_measured(ctx: &Ctx, journal: &Path, reps: usize) -> Result<(Server, f64), String> {
    let bin = ctx.bin_dir.join("dqma-server");
    let mut times = Vec::new();
    let mut server = None;
    for _ in 0..reps {
        drop(server.take());
        let (s, t) = Server::start(&bin, journal)?;
        times.push(t);
        server = Some(s);
    }
    let server = server.expect("at least one start-up");
    Ok((
        server,
        stats::median(&times).expect("at least one start-up"),
    ))
}

// ---------------------------------------------------------------------------
// The closed-loop HTTP client
// ---------------------------------------------------------------------------

// The payloads are read through `Debug`, in the check messages.
#[allow(dead_code)]
#[derive(Debug)]
enum Fail {
    Shed,
    Aborted,
    Partial,
    Http(u16),
    Io(String),
    Timeout,
}

struct HttpOp {
    index: u64,
    admitted: bool,
    result: Result<(u64, u64), Fail>,
    latency: Duration,
    polls: u64,
}

/// Drives the server with one closed-loop client taking jobs `0, 1, 2, …`
/// of `jobs` for `seconds`, and on to the end of the job group it is in,
/// so that every run has the generator's exact class mix. Returns every
/// op, in index order, and the phase's wall time.
fn drive_http(addr: &str, jobs: &JobGen, seconds: f64, ctx: &Ctx) -> (Vec<HttpOp>, f64) {
    let start = Instant::now();
    let stop = start + Duration::from_secs_f64(seconds);
    let mut ops = Vec::new();
    let mut i = 0;
    while Instant::now() < stop || i % gen::GROUP != 0 {
        ops.push(http_job(addr, i, &jobs.job(i), ctx));
        i += 1;
    }
    (ops, start.elapsed().as_secs_f64())
}

fn http_job(addr: &str, i: u64, spec: &JobSpec, ctx: &Ctx) -> HttpOp {
    let tr = ctx.tracer;
    let body = spec.to_json();
    let t0 = Instant::now();
    let (admitted, result, polls) = tr.span("http.job", 0, i, |job| {
        let submit = tr.span("http.submit", job, i, |_| {
            client::call(addr, "POST", "/v1/jobs", Some(&body), CALL_TIMEOUT)
        });
        let id = match submit {
            Ok((202, b)) => match json::parse(&b).ok().and_then(|p| p.get("job")?.as_num()) {
                Some(id) => id as u64,
                None => return (false, Err(Fail::Http(202)), 0),
            },
            Ok((503, _)) => return (false, Err(Fail::Shed), 0),
            Ok((code, _)) => return (false, Err(Fail::Http(code)), 0),
            Err(e) => return (false, Err(Fail::Io(e.to_string())), 0),
        };
        let path = format!("/v1/jobs/{id}");
        let mut polls = 0;
        loop {
            let status = tr.span("http.poll", job, i, |_| {
                client::call(addr, "GET", &path, None, CALL_TIMEOUT)
            });
            polls += 1;
            let parsed = match status {
                Ok((200, b)) => json::parse(&b).unwrap_or(json::Parsed::Null),
                Ok((code, _)) => return (true, Err(Fail::Http(code)), polls),
                Err(e) => return (true, Err(Fail::Io(e.to_string())), polls),
            };
            let num = |k: &str| parsed.get(k).and_then(json::Parsed::as_num).unwrap_or(0.0) as u64;
            match parsed.get("state").and_then(json::Parsed::as_str) {
                Some("done") if parsed.get("partial") == Some(&json::Parsed::Bool(false)) => {
                    return (true, Ok((num("completed"), num("accepts"))), polls)
                }
                Some("done") => return (true, Err(Fail::Partial), polls),
                Some("aborted") => return (true, Err(Fail::Aborted), polls),
                _ if t0.elapsed() > JOB_TIMEOUT => return (true, Err(Fail::Timeout), polls),
                _ => std::thread::sleep(POLL_INTERVAL),
            }
        }
    });
    HttpOp {
        index: i,
        admitted,
        result,
        latency: t0.elapsed(),
        polls,
    }
}

fn phase_of(ops: &[HttpOp], wall_s: f64) -> Phase {
    Phase {
        samples: ops
            .iter()
            .map(|o| match o.result {
                Ok(_) => Sample::Ok(o.latency.as_secs_f64() * 1e3),
                Err(_) => Sample::Failed,
            })
            .collect(),
        delivered: ops
            .iter()
            .filter_map(|o| o.result.as_ref().ok())
            .map(|r| r.0)
            .sum(),
        wall_s,
        ok_units: ops.iter().filter(|o| o.result.is_ok()).count() as u64,
        attempted_units: ops.len() as u64,
        fail_ms: JOB_TIMEOUT.as_secs_f64() * 1e3,
    }
}

struct Served {
    ops: Vec<HttpOp>,
    phase: Phase,
    setup_s: f64,
    rss_mb: f64,
}

/// One timed phase on a fresh server: set-up (`setup_reps` start-ups), the
/// closed loop, then the server-side checks, outside the timed window.
fn serve_phase(
    jobs: &JobGen,
    seconds: f64,
    setup_reps: usize,
    ctx: &Ctx,
    report: &mut Report,
) -> Result<Served, String> {
    let (server, setup_s) = start_measured(ctx, &ctx.out.join("server-journal.log"), setup_reps)?;
    let (ops, wall) = drive_http(&server.addr, jobs, seconds, ctx);
    let rss_mb = crate::proc::peak_rss_mb(server.child.id()).unwrap_or(0.0);
    let st = server.stats()?;
    drop(server);

    let admitted = ops.iter().filter(|o| o.admitted).count() as u64;
    let failures: Vec<String> = ops
        .iter()
        .filter_map(|o| {
            o.result
                .as_ref()
                .err()
                .map(|e| format!("job {}: {e:?}", o.index))
        })
        .collect();
    report.count_ops(ops.len() as u64, failures.len() as u64);
    report.check(ops.iter().all(|o| !o.admitted || o.result.is_ok()), || {
        format!("admitted jobs not done in full: {failures:?}")
    });
    report.check(st["submitted"] == admitted, || {
        format!(
            "healthz submitted {} != {admitted} admitted",
            st["submitted"]
        )
    });
    report.check(
        st["submitted"] == st["completed"] + st["partial"] + st["failed"],
        || format!("healthz books do not balance: {st:?}"),
    );
    report.check(st["memo_hits"] > 0, || "no block served from the memo".to_string());
    let blocks: u64 = ops
        .iter()
        .map(|o| jobs.job(o.index).trials / BLOCK_TRIALS)
        .sum();
    println!(
        "serve_small: {} jobs, poll every {POLL_INTERVAL:?}; memo-served blocks {} of {} ({:.3})",
        ops.len(),
        st["memo_hits"],
        blocks,
        st["memo_hits"] as f64 / blocks.max(1) as f64
    );
    Ok(Served {
        phase: phase_of(&ops, wall),
        ops,
        setup_s,
        rss_mb,
    })
}

// ---------------------------------------------------------------------------
// In-process rungs
// ---------------------------------------------------------------------------

/// `(instance key, seed, trials)`: a job's identity for the engine.
type Triple = (u64, u64, u64);

fn triple(j: &JobSpec) -> Triple {
    (j.instance.key(), j.seed, j.trials)
}

/// The distinct instances of `jobs`, compiled in first-use order. Returns
/// the plans, the total compile time in ms, and the number of kernel plans
/// compiled (the `qsim::plan::compile_count` delta).
fn compile_all(jobs: &[JobSpec], ctx: &Ctx) -> (HashMap<u64, CompiledPlan>, f64, u64) {
    let mut plans = HashMap::new();
    let kernels0 = qsim::plan::compile_count();
    let t0 = Instant::now();
    for (i, j) in jobs.iter().enumerate() {
        plans.entry(j.instance.key()).or_insert_with(|| {
            ctx.tracer
                .span("compile", 0, i as u64, |_| j.instance.compile())
        });
    }
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    (plans, ms, qsim::plan::compile_count() - kernels0)
}

/// Accept counts (and engine time in ns) of every distinct job triple,
/// from `run_trials_with_workers` at `workers`.
fn engine(
    jobs: &[JobSpec],
    plans: &HashMap<u64, CompiledPlan>,
    workers: usize,
    ctx: &Ctx,
) -> HashMap<Triple, (u64, f64)> {
    let mut out = HashMap::new();
    for (i, j) in jobs.iter().enumerate() {
        out.entry(triple(j)).or_insert_with(|| {
            let plan = &plans[&j.instance.key()];
            let r = ctx.tracer.span("trials.run", 0, i as u64, |_| {
                run_trials_with_workers(plan, j.trials, j.seed, workers)
            });
            (r.accepts, r.elapsed.as_nanos() as f64)
        });
    }
    out
}

/// Checks every done job's accept count against the engine.
fn check_accepts(
    ops: &[HttpOp],
    jobs: &JobGen,
    reference: &HashMap<Triple, (u64, f64)>,
    report: &mut Report,
) {
    let bad: Vec<u64> = ops
        .iter()
        .filter_map(|o| {
            let (_, accepts) = *o.result.as_ref().ok()?;
            (reference[&triple(&jobs.job(o.index))].0 != accepts).then_some(o.index)
        })
        .collect();
    report.check(bad.is_empty(), || {
        format!("served accepts differ from run_trials on jobs {bad:?}")
    });
}

struct SvcOp {
    ok: bool,
    submit: Duration,
    latency: Duration,
    self_time: Duration,
}

/// Replays `jobs` through an in-process `Service` with one closed-loop
/// client (`submit`, then `wait`). Returns the ops, the service counters
/// and the journal's size in bytes.
fn replay_service(
    jobs: &[JobSpec],
    journal: Option<PathBuf>,
    ctx: &Ctx,
) -> Result<(Vec<SvcOp>, StatsSnapshot, u64), String> {
    if let Some(p) = &journal {
        let _ = std::fs::remove_file(p);
    }
    let svc = Service::start(ServiceConfig {
        workers: WORKERS,
        journal: journal.clone(),
        ..ServiceConfig::default()
    })
    .map_err(|e| format!("in-process service: {e}"))?;
    let tr = ctx.tracer;
    let ops: Vec<SvcOp> = (0u64..)
        .zip(jobs)
        .map(|(i, spec)| {
            let t0 = Instant::now();
            let (ok, submit, elapsed) = tr.span("service.job", 0, i, |job| {
                let id = tr.span("service.submit", job, i, |_| svc.submit(spec.clone()));
                let submit = t0.elapsed();
                let Ok(id) = id else {
                    return (false, submit, Duration::ZERO);
                };
                match tr.span("service.wait", job, i, |_| svc.wait(id, JOB_TIMEOUT)) {
                    Some(JobStatus::Done(r)) if !r.partial => (true, submit, r.elapsed),
                    _ => (false, submit, Duration::ZERO),
                }
            });
            let latency = t0.elapsed();
            SvcOp {
                ok,
                submit,
                latency,
                self_time: latency.saturating_sub(elapsed),
            }
        })
        .collect();
    let st = svc.stats();
    svc.shutdown();
    let bytes = journal
        .and_then(|p| std::fs::metadata(p).ok())
        .map_or(0, |m| m.len());
    Ok((ops, st, bytes))
}

fn median_ms(v: impl Iterator<Item = Duration>) -> f64 {
    stats::median(&v.map(|d| d.as_secs_f64() * 1e3).collect::<Vec<_>>()).unwrap_or(0.0)
}

// ---------------------------------------------------------------------------
// The workload
// ---------------------------------------------------------------------------

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let jobs = JobGen::new(ctx.seed);
    let mut report = Report::default();
    if !ctx.tracer.on() {
        let served = serve_phase(&jobs, ctx.seconds, SETUP_REPS, ctx, &mut report)?;
        let list: Vec<JobSpec> = served.ops.iter().map(|o| jobs.job(o.index)).collect();
        mix(&list);
        let t0 = Instant::now();
        let (plans, _, _) = compile_all(&list, ctx);
        let reference = engine(&list, &plans, CHECK_WORKERS, ctx);
        check_accepts(&served.ops, &jobs, &reference, &mut report);
        println!(
            "accept check: {} distinct jobs in {:.2} s",
            reference.len(),
            t0.elapsed().as_secs_f64()
        );
        println!(
            "setup: median {:.4} s over {SETUP_REPS} server start-ups",
            served.setup_s
        );
        report.put("setup_s", served.setup_s);
        report.put("peak_rss_mb", served.rss_mb);
        served.phase.report(&mut report);
        return Ok(report);
    }

    // Traced run: the same job list untraced, then traced, each on a fresh
    // server for half the time; the difference is the tracing overhead.
    let untraced = {
        let quiet = crate::trace::Tracer::new(false);
        let qctx = Ctx {
            tracer: &quiet,
            ..ctx.clone()
        };
        serve_phase(&jobs, ctx.seconds / 2.0, 1, &qctx, &mut report)?
    };
    let traced = serve_phase(&jobs, ctx.seconds / 2.0, 1, ctx, &mut report)?;
    let n = traced.ops.len().max(untraced.ops.len()) as u64;
    let list: Vec<JobSpec> = (0..n).map(|i| jobs.job(i)).collect();
    let traced_list = &list[..traced.ops.len()];
    let fallback_share = mix(traced_list);

    // Plan compile first, so the kernel-plan cache starts cold as in the
    // server process.
    let (plans, compile_ms, kernel_plans) = compile_all(&list, ctx);
    report.put("compile.ms_per_instance", compile_ms / plans.len() as f64);
    report.put("compile.kernel_plans", kernel_plans as f64);

    // The trial engine on one worker; also the output check.
    let reference = engine(&list, &plans, 1, ctx);
    check_accepts(&untraced.ops, &jobs, &reference, &mut report);
    check_accepts(&traced.ops, &jobs, &reference, &mut report);
    let (mut lane, mut fallback) = ((0.0, 0u64), (0.0, 0u64));
    let mut seen = std::collections::HashSet::new();
    for j in traced_list {
        if seen.insert(triple(j)) {
            let class = if gen::on_fallback_walk(&j.instance) {
                &mut fallback
            } else {
                &mut lane
            };
            class.0 += reference[&triple(j)].1;
            class.1 += j.trials;
        }
    }
    let per_round = |(ns, rounds): (f64, u64)| if rounds == 0 { 0.0 } else { ns / rounds as f64 };
    report.put("trials.lane.ns_per_round", per_round(lane));
    report.put("trials.fallback.ns_per_round", per_round(fallback));
    report.put("trials.fallback.round_share", fallback_share);

    // The in-process service on the traced phase's job list.
    let journal = ctx.out.join("replay-journal.log");
    let (svc_on, st_on, journal_bytes) = replay_service(traced_list, Some(journal), ctx)?;
    let (svc_off, _, _) = replay_service(traced_list, None, ctx)?;
    let svc_self_on = median_ms(svc_on.iter().filter(|o| o.ok).map(|o| o.self_time));
    let svc_self_off = median_ms(svc_off.iter().filter(|o| o.ok).map(|o| o.self_time));
    let blocks: u64 = traced_list.iter().map(|j| j.trials / BLOCK_TRIALS).sum();
    report.check(svc_on.iter().chain(&svc_off).all(|o| o.ok), || {
        "in-process service replay left jobs not done in full".to_string()
    });
    report.put(
        "service.submit_us",
        1e3 * median_ms(svc_on.iter().map(|o| o.submit)),
    );
    report.put("service.self_ms", svc_self_on);
    report.put(
        "service.memo_hit_ratio",
        st_on.memo_hits as f64 / blocks.max(1) as f64,
    );
    report.put("service.journal_ms_per_job", svc_self_on - svc_self_off);
    report.put(
        "service.journal_bytes_per_block",
        journal_bytes as f64 / (blocks - st_on.memo_hits.min(blocks)).max(1) as f64,
    );

    // The HTTP layer, from the traced phase's spans.
    let span_us = |name: &str| {
        let v: Vec<f64> = ctx
            .tracer
            .named(name)
            .iter()
            .map(|s| s.dur_ns() as f64 / 1e3)
            .collect();
        stats::median(&v).unwrap_or(0.0)
    };
    report.put("http.submit_us", span_us("http.submit"));
    report.put("http.poll_us", span_us("http.poll"));
    let done: Vec<&HttpOp> = traced.ops.iter().filter(|o| o.result.is_ok()).collect();
    report.put(
        "http.polls_per_job",
        done.iter().map(|o| o.polls).sum::<u64>() as f64 / done.len().max(1) as f64,
    );
    let pairs: Vec<(&HttpOp, &SvcOp)> = done
        .iter()
        .filter_map(|&h| {
            let s = svc_on.get(h.index as usize)?;
            s.ok.then_some((h, s))
        })
        .collect();
    let http_self: Vec<f64> = pairs
        .iter()
        .map(|(h, s)| (h.latency.as_secs_f64() - s.latency.as_secs_f64()) * 1e3)
        .collect();
    report.put("http.self_ms", stats::median(&http_self).unwrap_or(0.0));

    crate::report_overhead(&untraced.phase, &traced.phase, &mut report);

    // Ladder over the jobs done on both the server and the replay: summed
    // per-job latency over summed rounds at each rung.
    let (mut rounds, mut engine_ns, mut svc_ns, mut http_ns) = (0.0, 0.0, 0.0, 0.0);
    for (h, s) in &pairs {
        let j = jobs.job(h.index);
        rounds += j.trials as f64;
        engine_ns += reference[&triple(&j)].1;
        svc_ns += s.latency.as_nanos() as f64;
        http_ns += h.latency.as_nanos() as f64;
    }
    crate::print_ladder(
        "serve_small",
        &[
            ("trial engine (1 worker)", engine_ns / rounds),
            ("in-process Service", svc_ns / rounds),
            ("HTTP server", http_ns / rounds),
        ],
    );
    Ok(report)
}

/// Prints the instance mix of a job list (jobs and distinct instances per
/// class) and returns the share of its rounds on the fallback walk.
fn mix(list: &[JobSpec]) -> f64 {
    let mut classes: std::collections::BTreeMap<&str, (u64, std::collections::HashSet<u64>)> =
        Default::default();
    for j in list {
        let e = classes.entry(gen::class_of(&j.instance)).or_default();
        e.0 += 1;
        e.1.insert(j.instance.key());
    }
    let rounds: u64 = list.iter().map(|j| j.trials).sum();
    let fallback: u64 = list
        .iter()
        .filter(|j| gen::on_fallback_walk(&j.instance))
        .map(|j| j.trials)
        .sum();
    let mix: Vec<String> = classes
        .iter()
        .map(|(c, (n, keys))| format!("{c} {n} jobs / {} instances", keys.len()))
        .collect();
    let share = fallback as f64 / rounds.max(1) as f64;
    println!(
        "instance mix: {}; fallback-walk round share {share:.3}",
        mix.join(", ")
    );
    share
}
