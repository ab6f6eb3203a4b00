//! The dQMA verification daemon.
//!
//! A std-only HTTP/1.1 server over [`dqma::service`]: bounded admission
//! with explicit `503 overloaded` shedding, per-request deadlines folded
//! into partial reports, slow-client/malformed-request protection (socket
//! read timeouts, head/body size caps, structured 4xx errors), an optional
//! crash-recovery journal, and a hard cap on concurrent connections so the
//! accept loop can never wedge. See [`dqma::service::route`] for the API
//! surface.
//!
//! ```text
//! dqma-server [--addr HOST:PORT] [--workers N] [--queue N] [--journal PATH]
//!             [--chaos] [--max-body BYTES] [--read-timeout-ms MS]
//!             [--max-conns N] [--max-trials N] [--default-deadline-ms MS]
//! ```
//!
//! Prints `dqma-server listening <addr>` on stdout once the socket is
//! bound (the harness parses this to discover an ephemeral port).

use std::io::Write as _;
use std::net::{TcpListener, TcpStream};
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use dqma::service::{http, route, Service, ServiceConfig};

struct Args {
    addr: String,
    read_timeout: Duration,
    limits: http::Limits,
    max_conns: usize,
    cfg: ServiceConfig,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:0".to_string(),
        read_timeout: Duration::from_millis(2000),
        limits: http::Limits::default(),
        max_conns: 64,
        cfg: ServiceConfig::default(),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut val = |what: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{what} needs a value"))
        };
        match flag.as_str() {
            "--addr" => args.addr = val("--addr")?.clone(),
            "--workers" => args.cfg.workers = num(val("--workers")?)?,
            "--queue" => args.cfg.queue_capacity = num(val("--queue")?)?,
            "--journal" => args.cfg.journal = Some(val("--journal")?.into()),
            "--chaos" => args.cfg.allow_chaos = true,
            "--max-body" => args.limits.max_body = num(val("--max-body")?)?,
            "--read-timeout-ms" => {
                args.read_timeout = Duration::from_millis(num::<u64>(val("--read-timeout-ms")?)?)
            }
            "--max-conns" => args.max_conns = num(val("--max-conns")?)?,
            "--max-trials" => args.cfg.max_trials = num(val("--max-trials")?)?,
            "--default-deadline-ms" => {
                args.cfg.default_deadline_ms = Some(num(val("--default-deadline-ms")?)?)
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if args.max_conns == 0 || args.cfg.workers == 0 || args.cfg.queue_capacity == 0 {
        return Err("--max-conns, --workers, and --queue must be positive".to_string());
    }
    Ok(args)
}

fn num<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("bad number {s:?}"))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dqma-server: {e}");
            eprintln!(
                "usage: dqma-server [--addr HOST:PORT] [--workers N] [--queue N] \
                 [--journal PATH] [--chaos] [--max-body BYTES] [--read-timeout-ms MS] \
                 [--max-conns N] [--max-trials N] [--default-deadline-ms MS]"
            );
            return ExitCode::from(2);
        }
    };
    match serve(args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("dqma-server: {e}");
            ExitCode::FAILURE
        }
    }
}

fn serve(args: Args) -> std::io::Result<()> {
    let listener = TcpListener::bind(&args.addr)?;
    let local = listener.local_addr()?;
    let svc = Arc::new(Service::start(args.cfg)?);
    println!("dqma-server listening {local}");
    std::io::stdout().flush().ok();

    let live = Arc::new(AtomicUsize::new(0));
    for stream in listener.incoming() {
        // An accept error (EMFILE, transient network trouble) must not
        // kill the loop; back off briefly and keep accepting.
        let stream = match stream {
            Ok(s) => s,
            Err(_) => {
                std::thread::sleep(Duration::from_millis(10));
                continue;
            }
        };
        if live.load(Ordering::Acquire) >= args.max_conns {
            // Over the connection cap: refuse immediately instead of
            // queueing unbounded handler threads.
            respond(&stream, 503, "{\"error\":\"too many connections\"}");
            continue;
        }
        live.fetch_add(1, Ordering::AcqRel);
        let svc = Arc::clone(&svc);
        let live = Arc::clone(&live);
        let (timeout, limits) = (args.read_timeout, args.limits);
        std::thread::spawn(move || {
            handle(&stream, &svc, timeout, limits);
            live.fetch_sub(1, Ordering::AcqRel);
        });
    }
    Ok(())
}

fn handle(stream: &TcpStream, svc: &Service, timeout: Duration, limits: http::Limits) {
    stream.set_read_timeout(Some(timeout)).ok();
    stream.set_write_timeout(Some(timeout)).ok();
    stream.set_nodelay(true).ok();
    let mut reader = stream;
    match http::read_request(&mut reader, limits) {
        Ok(req) => {
            let (status, body) = route(svc, &req.method, &req.path, &req.body);
            respond(stream, status, &body);
        }
        Err(e) => {
            // A hostile or broken connection gets a structured response
            // when one can still be sent, and a clean close otherwise —
            // the accept loop is unaffected either way.
            if let Some(status) = e.status() {
                let body = format!(
                    "{{\"error\":\"{}\"}}",
                    dqma::service::json_escape(&e.to_string())
                );
                respond(stream, status, &body);
            }
        }
    }
}

fn respond(mut stream: &TcpStream, status: u16, body: &str) {
    let _ = stream.write_all(&http::response_bytes(status, body));
    let _ = stream.flush();
}
