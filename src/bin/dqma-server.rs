//! The dQMA verification daemon.
//!
//! A std-only HTTP/1.1 server over [`dqma::service`]: bounded admission
//! with explicit `503 overloaded` shedding, per-request deadlines folded
//! into partial reports, slow-client/malformed-request protection (a read
//! deadline per request, head/body size caps, structured 4xx errors), an
//! optional crash-recovery journal, and a hard cap on concurrent
//! connections. See [`dqma::service::route`] for the API surface.
//!
//! Connections are served by self-accepting handler threads. Each blocks
//! in `accept` on the shared listener and serves the connection it gets on
//! its own thread, so a request pays neither a hand-off nor a thread start;
//! the main thread is one of them. Threads start lazily: a thread that
//! takes a connection while no other waits in `accept` first starts one
//! more, up to `--max-conns + 1` in all.
//!
//! At most `--max-conns` connections are served at once, so one thread is
//! always left to answer an over-cap connection with an immediate
//! `503 too many connections`. A connection must deliver its whole request
//! within `--read-timeout-ms` of being accepted or it gets a `408`, so a
//! stalled or trickling client holds its slot for at most one read
//! timeout. A handler that panics loses its connection, not its thread or
//! its slot.
//!
//! An error response (the over-cap `503`, and the `400`, `408`, `413` and
//! `431` of a request that could not be read) can leave request bytes
//! unread. Closing over them would make the kernel send a reset, which can
//! destroy the response before the client reads it, so such a connection
//! is closed lingering: the write half is shut, and input is discarded
//! until the client closes or a bound passes.
//!
//! ```text
//! dqma-server [--addr HOST:PORT] [--workers N] [--queue N] [--journal PATH]
//!             [--chaos] [--max-body BYTES] [--read-timeout-ms MS]
//!             [--max-conns N] [--max-trials N] [--default-deadline-ms MS]
//! ```
//!
//! Prints `dqma-server listening <addr>` on stdout once the socket is
//! bound (the harness parses this to discover an ephemeral port).

use std::io::{Read as _, Write as _};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dqma::service::{http, route, Service, ServiceConfig};

/// How long an over-cap connection may linger after its `503`: enough for
/// a request already on its way, short enough to keep the spare thread
/// free.
const OVER_CAP_LINGER: Duration = Duration::from_millis(50);

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
    // A zero read timeout cannot be set on a socket: refuse it rather than
    // serve with no slow-client protection at all.
    if args.max_conns == 0
        || args.cfg.workers == 0
        || args.cfg.queue_capacity == 0
        || args.read_timeout.is_zero()
    {
        return Err(
            "--max-conns, --workers, --queue and --read-timeout-ms must be positive".to_string(),
        );
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

/// What every handler thread shares.
struct Shared {
    listener: TcpListener,
    svc: Service,
    read_timeout: Duration,
    limits: http::Limits,
    max_conns: usize,
    /// Connections being served, at most `max_conns`.
    live: AtomicUsize,
    /// Handler threads started, the main thread included: at most
    /// `max_conns + 1`.
    threads: AtomicUsize,
    /// Handler threads waiting in `accept`.
    idle: AtomicUsize,
}

fn serve(args: Args) -> std::io::Result<()> {
    let listener = TcpListener::bind(&args.addr)?;
    let local = listener.local_addr()?;
    let svc = Service::start(args.cfg)?;
    println!("dqma-server listening {local}");
    std::io::stdout().flush().ok();

    let shared = Arc::new(Shared {
        listener,
        svc,
        read_timeout: args.read_timeout,
        limits: args.limits,
        max_conns: args.max_conns,
        live: AtomicUsize::new(0),
        threads: AtomicUsize::new(1),
        idle: AtomicUsize::new(0),
    });
    handle_connections(&shared);
    Ok(())
}

/// A handler thread's life: take a connection, serve it, repeat.
///
/// `threads` and `idle` publish no other data, so their operations are
/// `Relaxed`; a stale `idle` only starts a thread early or late, and the
/// cap holds through the read-modify-write on `threads`.
fn handle_connections(sh: &Arc<Shared>) {
    loop {
        sh.idle.fetch_add(1, Ordering::Relaxed);
        let accepted = sh.listener.accept();
        let others_idle = sh.idle.fetch_sub(1, Ordering::Relaxed) > 1;
        let stream = match accepted {
            Ok((stream, _)) => stream,
            // An accept error (EMFILE, transient network trouble) must not
            // end the thread; back off briefly and keep accepting.
            Err(_) => {
                std::thread::sleep(Duration::from_millis(10));
                continue;
            }
        };
        let deadline = Instant::now().checked_add(sh.read_timeout);
        if !others_idle {
            start_handler(sh);
        }
        match Slot::claim(&sh.live, sh.max_conns) {
            // A panic loses this connection only: the thread goes on, and
            // the slot's guard releases it while unwinding.
            Some(_slot) => {
                let _ = catch_unwind(AssertUnwindSafe(|| handle(&stream, sh, deadline)));
            }
            None => {
                respond(&stream, 503, "{\"error\":\"too many connections\"}");
                close_lingering(&stream, Instant::now() + OVER_CAP_LINGER);
            }
        }
    }
}

/// Starts one more handler thread, unless `max_conns + 1` are running.
fn start_handler(sh: &Arc<Shared>) {
    let claimed = sh
        .threads
        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
            (n <= sh.max_conns).then_some(n + 1)
        });
    if claimed.is_err() {
        return;
    }
    let shared = Arc::clone(sh);
    // The thread serves for the life of the process and is never joined; a
    // failed start just leaves the pool one thread smaller.
    let started = std::thread::Builder::new()
        .name("dqma-http".to_string())
        .spawn(move || handle_connections(&shared));
    if started.is_err() {
        sh.threads.fetch_sub(1, Ordering::Relaxed);
    }
}

/// One of the `max_conns` connection slots, released when dropped.
struct Slot<'a>(&'a AtomicUsize);

impl<'a> Slot<'a> {
    /// Claims a slot with one compare-and-swap on `live`, or `None` when all
    /// `max` are taken.
    fn claim(live: &'a AtomicUsize, max: usize) -> Option<Slot<'a>> {
        live.fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| {
            (n < max).then_some(n + 1)
        })
        .ok()
        .map(|_| Slot(live))
    }
}

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

fn handle(stream: &TcpStream, sh: &Shared, deadline: Option<Instant>) {
    // A socket whose timeouts cannot be set could hold its slot forever:
    // drop it instead.
    if stream.set_read_timeout(Some(sh.read_timeout)).is_err()
        || stream.set_write_timeout(Some(sh.read_timeout)).is_err()
    {
        return;
    }
    stream.set_nodelay(true).ok();
    let mut src = stream;
    match http::read_request(&mut src, sh.limits, deadline) {
        Ok(req) => {
            let (status, body) = route(&sh.svc, &req.method, &req.path, &req.body);
            respond(stream, status, &body);
        }
        Err(e) => {
            // A hostile or broken connection gets a structured response
            // when one can still be sent, and a clean close otherwise —
            // the handler thread is unaffected either way.
            if let Some(status) = e.status() {
                let body = format!(
                    "{{\"error\":\"{}\"}}",
                    dqma::service::json_escape(&e.to_string())
                );
                respond(stream, status, &body);
                if let Some(deadline) = deadline {
                    close_lingering(stream, deadline);
                }
            }
        }
    }
}

fn respond(mut stream: &TcpStream, status: u16, body: &str) {
    let _ = stream.write_all(&http::response_bytes(status, body));
    let _ = stream.flush();
}

/// Shuts the write half, then discards input until the client closes, a
/// read fails, or `until` passes; the caller's drop then closes.
fn close_lingering(mut stream: &TcpStream, until: Instant) {
    if stream.shutdown(Shutdown::Write).is_err() {
        return;
    }
    let mut sink = [0u8; 4096];
    loop {
        let left = until.saturating_duration_since(Instant::now());
        if left.is_zero() || stream.set_read_timeout(Some(left)).is_err() {
            return;
        }
        match stream.read(&mut sink) {
            Ok(0) => return,
            Ok(_) => {}
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}
