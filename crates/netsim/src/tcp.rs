//! Real-socket transport: the [`crate::transport::Transport`] trait over
//! blocking `std::net` TCP, one OS process per protocol node.
//!
//! # Wire format
//!
//! Every frame is length-prefixed: `[u32 len][u8 kind][body]`, all integers
//! little-endian, where `len` counts the kind byte and the body. Each kind
//! has exactly one legal length. Three kinds exist:
//!
//! * `HELLO` (`kind = 1`, `len = 5`): `u32 src` — sent once by the
//!   connection initiator, identifying which node's outbound traffic the
//!   connection carries. Connections are direction-dedicated: node `a`
//!   dials node `b` to *send* to `b`; deliveries from `b` to `a` ride `b`'s
//!   own dial.
//! * `DATA` (`kind = 2`, `len = 33`): `u64 epoch, u32 src, u32 dst,
//!   u32 seq, u32 attempt, u64 payload` — one [`Envelope`] stamped with the
//!   sender's trial epoch (the global trial index + 1; see below).
//! * `ACK` (`kind = 3`, `len = 9`): `u64 count` — a cumulative
//!   acknowledgement: the number of `DATA` frames the receiver has read on
//!   this connection so far.
//!
//! A receiver closes the connection on anything else: a length above the
//! largest legal frame, a frame shorter or longer than its kind allows, an
//! unknown kind, or a first frame that is not `HELLO`. It drops (but still
//! counts and acknowledges) a `DATA` frame whose `dst` is not its own node.
//!
//! # Pipelining: coalesced writes, the window and replay
//!
//! A send writes nothing. It appends its frame to the connection's output
//! buffer and to the peer's window of at most 64 (`WINDOW`)
//! unacknowledged `DATA` frames. The buffer reaches the wire in one
//! `write_all` at three points:
//!
//! * in [`Transport::recv`], when nothing is deliverable and the node is
//!   about to wait (a peer may be waiting for those frames);
//! * in a send that finds the window full, before it reads acks;
//! * on [`TcpTransport::flush`], which a caller uses before it stops
//!   sending for a while (the cluster node calls it before every batch
//!   report).
//!
//! So the frames a node sends between two waits leave as one burst, and
//! the window bounds the buffer. The receiver's connection handler acks
//! whenever its read buffer drains, and at least every 32 (`ACK_EVERY`)
//! frames, so a full window usually clears in one read. When a connection
//! fails (a refused dial, or a failed write at any of the three points),
//! the sender keeps the unacknowledged frames. The next send to the *same*
//! address redials, queues `HELLO` and the replayed frames in order ahead
//! of its own, and they leave together at the next of those points. The
//! receiver's `(epoch, src, seq)` dedup absorbs whatever the old connection
//! had already delivered. [`TcpTransport::set_peer`] with a new address (a
//! restarted process) drops the connection and its replay frames; with an
//! unchanged address it keeps both.
//!
//! So on this transport [`SendOutcome::Acked`] means "accepted into the
//! window of a live connection", not "written" and not "received". A dead
//! peer shows up on the dial (refused), on a failed write (reset; the next
//! send redials), or when the window fills and no ack arrives within the
//! attempt's wall window. A frame that died with its connection before the
//! receiver read it breaks its trial through the receiver's
//! [`crate::transport::FaultCause::RecvTimeout`] or the supervisor's missing
//! report, never as a silently wrong delivery.
//!
//! The mailbox is the one piece of state shared between threads: the
//! connection handlers push into it while the transport's owner pops. Only
//! the handlers notify its condvar, and only while a receiver is blocked on
//! it (std's `Condvar` makes a wake syscall on every notify, whether or not
//! a thread waits). The owner never needs to: [`Transport::recv`] is the
//! only place a receiver blocks, and while the owner holds `&mut` to move
//! the epoch, it is not in `recv`.
//!
//! # Epochs and the block-index determinism contract
//!
//! The in-process trial engine re-salts the transport between trials via
//! [`Transport::begin_trial`]; per-sender sequence numbers restart at zero
//! every trial, so `(src, seq)` alone cannot deduplicate across trials once
//! real sockets (which outlive trials) are involved. Each `DATA` frame
//! therefore carries the sender's *epoch* — a monotone trial counter that
//! every process derives from the same global trial index. A receiver
//! buffers frames in one queue ordered by epoch and:
//!
//! * delivers a frame whose epoch matches its own, at most once per
//!   `(epoch, src, seq)`;
//! * keeps a frame from the *future* (the peer has pipelined ahead within
//!   the batch) until [`TcpTransport::set_epoch`]/`begin_trial` catches up;
//! * drops — but still acknowledges — a *stale* frame (a retransmission of a
//!   trial this node has already finished or abandoned), so a lagging sender
//!   completes its round instead of retrying forever.
//!
//! # Time: virtual deadlines, wall waits
//!
//! The robustness layer ([`crate::transport::robust_send`] /
//! [`crate::transport::robust_recv`]) runs the shared
//! [`crate::policy::RetryPolicy`] backoff schedule in virtual nanoseconds.
//! This transport makes those windows physically real: a window of `w`
//! virtual ns becomes a wall-clock wait of `w * nanos_per_vns` (clamped to
//! `[min_wait, max_wait]`). It bounds the dial and the wait for acks of a
//! full window. An attempt that fails *early* — connection refused while a
//! peer restarts, connection reset when it dies — sleeps out the remainder
//! of its window before reporting [`SendOutcome::Lost`], so the retry
//! schedule paces reconnection exactly like the virtual backoff discipline:
//! attempt `i` rides out `~base_timeout << i` of peer downtime, and a
//! policy's [`crate::policy::RetryPolicy::virtual_budget`] bounds the wall
//! time a surviving node spends on a dead peer before surfacing a
//! [`crate::transport::FaultCause`] to the supervisor.
//!
//! Crash detection is thus two-level: in-band (connection refused/reset and
//! acknowledgement silence on a full window, absorbed by the retry
//! schedule) and out-of-band (the supervisor's control-channel heartbeat,
//! which notices a dead child immediately and restarts it; see
//! `dqma::cluster`).

use std::collections::{HashMap, VecDeque};
use std::io::{self, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::transport::{Envelope, NodeId, RecvOutcome, SendOutcome, Transport, VTime};

const KIND_HELLO: u8 = 1;
const KIND_DATA: u8 = 2;
const KIND_ACK: u8 = 3;

/// Legal `len` of each frame kind (the kind byte plus the body).
const HELLO_LEN: usize = 5;
const DATA_LEN: usize = 33;
const ACK_LEN: usize = 9;
/// The largest legal `len`; a longer frame closes the connection.
const MAX_LEN: usize = DATA_LEN;

/// A whole `DATA` frame, length prefix included, as written and replayed.
type DataFrame = [u8; 4 + DATA_LEN];

/// Most unacknowledged `DATA` frames a sender keeps per peer.
const WINDOW: usize = 64;

/// A receiver acks at least once per this many `DATA` frames, even while
/// its read buffer never drains.
const ACK_EVERY: u64 = 32;

/// Wall-clock shaping of the virtual-time retry windows.
#[derive(Clone, Debug)]
pub struct TcpConfig {
    /// Wall nanoseconds per virtual nanosecond (default 1000: 1 vns = 1 µs).
    pub nanos_per_vns: u64,
    /// Floor on any single wall wait, so sub-RTT virtual windows still give
    /// the socket a fighting chance (default 1 ms).
    pub min_wait: Duration,
    /// Cap on any single wall wait (default 2 s).
    pub max_wait: Duration,
    /// Cap on one TCP connect attempt (default 250 ms); also clamped to the
    /// attempt's wall window.
    pub connect_timeout: Duration,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            nanos_per_vns: 1000,
            min_wait: Duration::from_millis(1),
            max_wait: Duration::from_secs(2),
            connect_timeout: Duration::from_millis(250),
        }
    }
}

impl TcpConfig {
    /// Maps a virtual-time window to the wall wait this transport grants it.
    pub fn wall(&self, vns: VTime) -> Duration {
        let nanos = vns.saturating_mul(self.nanos_per_vns);
        Duration::from_nanos(nanos).clamp(self.min_wait, self.max_wait)
    }
}

/// Inbound state shared with the connection-handler threads.
#[derive(Default)]
struct MailState {
    /// Current epoch: frames stamped with it are deliverable now.
    epoch: u64,
    /// Envelopes of the current and future epochs, ordered by epoch and
    /// FIFO within one; may hold duplicates until delivery.
    queue: VecDeque<(u64, Envelope)>,
    /// `(src, seq)` of everything delivered in the current epoch.
    delivered: Vec<(NodeId, u32)>,
    /// Receivers blocked on the condvar; producers notify only when some.
    waiters: usize,
}

type Mail = Arc<(Mutex<MailState>, Condvar)>;

impl MailState {
    /// Moves to `epoch`, dropping buffered envelopes of earlier epochs.
    fn set_epoch(&mut self, epoch: u64) {
        if epoch != self.epoch {
            self.epoch = epoch;
            self.delivered.clear();
        }
        while self.queue.front().is_some_and(|&(e, _)| e < epoch) {
            self.queue.pop_front();
        }
    }

    /// Buffers `env` stamped with `epoch`, dropping it if stale. Returns
    /// whether it is deliverable now.
    fn push(&mut self, epoch: u64, env: Envelope) -> bool {
        if epoch < self.epoch {
            return false;
        }
        let at = self.queue.partition_point(|&(e, _)| e <= epoch);
        self.queue.insert(at, (epoch, env));
        epoch == self.epoch
    }

    /// The next current-epoch envelope not delivered yet.
    fn pop(&mut self) -> Option<Envelope> {
        while let Some(&(epoch, env)) = self.queue.front() {
            if epoch != self.epoch {
                return None;
            }
            self.queue.pop_front();
            if !self.delivered.contains(&(env.src, env.seq)) {
                self.delivered.push((env.src, env.seq));
                return Some(env);
            }
        }
        None
    }
}

/// Outbound state for one peer.
struct Peer {
    addr: SocketAddr,
    conn: Option<Conn>,
    /// `DATA` frames accepted but not acknowledged yet, oldest first (at
    /// most [`WINDOW`]); replayed on the next dial.
    unacked: VecDeque<DataFrame>,
}

/// One live outbound connection.
struct Conn {
    /// Reads acks; frames are written through `get_ref()`.
    reader: BufReader<TcpStream>,
    /// Frames queued for the next write: a suffix of the window, after
    /// `HELLO` on a fresh dial.
    out: Vec<u8>,
    /// `DATA` frames queued on this connection, replays included.
    sent: u64,
    /// The `SO_RCVTIMEO` installed on the socket.
    timeout: Option<Duration>,
}

impl Peer {
    fn new(addr: SocketAddr) -> Self {
        Peer {
            addr,
            conn: None,
            unacked: VecDeque::new(),
        }
    }

    /// Accepts `frame` into the window and queues it for the next write,
    /// dialling first if there is no live connection. A full window is
    /// written out and waits up to `budget` for acks. On `Err` the caller
    /// drops the connection.
    fn send(
        &mut self,
        me: NodeId,
        frame: &DataFrame,
        cfg: &TcpConfig,
        budget: Duration,
    ) -> io::Result<()> {
        if self.conn.is_none() {
            self.conn = Some(self.dial(me, cfg.connect_timeout.min(budget))?);
        }
        let conn = self.conn.as_mut().expect("dialled above");
        if self.unacked.len() >= WINDOW {
            conn.flush()?;
            conn.await_acks(&mut self.unacked, budget)?;
        }
        conn.out.extend_from_slice(frame);
        conn.sent += 1;
        self.unacked.push_back(*frame);
        Ok(())
    }

    /// Connects, and queues `HELLO` for `me` and the replay of the
    /// unacknowledged frames.
    fn dial(&self, me: NodeId, timeout: Duration) -> io::Result<Conn> {
        let s = TcpStream::connect_timeout(&self.addr, timeout.max(Duration::from_millis(1)))?;
        s.set_nodelay(true)?;
        let hello: [u8; 4 + HELLO_LEN] = frame(KIND_HELLO, &[&(me as u32).to_le_bytes()]);
        let mut out = hello.to_vec();
        for f in &self.unacked {
            out.extend_from_slice(f);
        }
        Ok(Conn {
            reader: BufReader::new(s),
            out,
            sent: self.unacked.len() as u64,
            timeout: None,
        })
    }
}

impl Conn {
    /// Writes the queued frames in one `write_all`.
    fn flush(&mut self) -> io::Result<()> {
        if !self.out.is_empty() {
            self.reader.get_ref().write_all(&self.out)?;
            self.out.clear();
        }
        Ok(())
    }

    /// Reads acks until the window has room and no whole ack is left in
    /// the read buffer. Fails on a malformed ack or after `budget`.
    fn await_acks(
        &mut self,
        unacked: &mut VecDeque<DataFrame>,
        budget: Duration,
    ) -> io::Result<()> {
        if self.timeout != Some(budget) {
            self.reader.get_ref().set_read_timeout(Some(budget))?;
            self.timeout = Some(budget);
        }
        let deadline = Instant::now() + budget;
        let mut buf = [0u8; MAX_LEN];
        loop {
            if read_frame(&mut self.reader, &mut buf)? != KIND_ACK {
                return Err(invalid("expected ACK"));
            }
            let count = u64_at(&buf, 1);
            let acked = self.sent - unacked.len() as u64;
            if count < acked || count > self.sent {
                return Err(invalid("ack count out of range"));
            }
            unacked.drain(..(count - acked) as usize);
            if unacked.len() < WINDOW && self.reader.buffer().len() < 4 + ACK_LEN {
                return Ok(());
            }
            if Instant::now() >= deadline {
                return Err(io::Error::new(io::ErrorKind::TimedOut, "ack deadline"));
            }
        }
    }
}

/// [`Transport`] over real loopback/LAN TCP sockets; see the module docs.
///
/// One instance serves exactly one node (its `recv` mailbox is the node's
/// own). Peers are dialled lazily on first send and re-dialled after any
/// socket error, with pacing supplied by the caller's
/// [`crate::policy::RetryPolicy`] windows; [`TcpTransport::set_peer`]
/// re-points a peer at a new address (process restart). Only the mailbox
/// and the shutdown flag are shared with the acceptor and handler threads.
pub struct TcpTransport {
    node: NodeId,
    cfg: TcpConfig,
    listener_addr: SocketAddr,
    /// Each peer's address, connection and replay frames.
    peers: HashMap<NodeId, Peer>,
    mail: Mail,
    /// The epoch this owner last entered, which stamps its outgoing frames.
    /// Only the owner moves the epoch, so this copy always equals
    /// `MailState::epoch`, and `send` reads it without taking the lock the
    /// connection handlers push frames under.
    epoch: u64,
    /// Virtual clock mirrored by the wall: reset each trial, advanced by
    /// elapsed wall time on every blocking operation.
    vclock: VTime,
    shutdown: Arc<AtomicBool>,
}

impl TcpTransport {
    /// Binds a listener for `node` on an ephemeral loopback port and starts
    /// the acceptor thread. Fails where loopback sockets are unavailable —
    /// callers (tests, CI) treat that error as a graceful skip.
    pub fn bind(node: NodeId) -> io::Result<TcpTransport> {
        TcpTransport::with_config(node, TcpConfig::default())
    }

    /// [`TcpTransport::bind`] with explicit wall-clock shaping.
    pub fn with_config(node: NodeId, cfg: TcpConfig) -> io::Result<TcpTransport> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let listener_addr = listener.local_addr()?;
        let mail: Mail = Arc::new((Mutex::new(MailState::default()), Condvar::new()));
        let shutdown = Arc::new(AtomicBool::new(false));
        {
            let mail = Arc::clone(&mail);
            let shutdown = Arc::clone(&shutdown);
            std::thread::spawn(move || acceptor_loop(listener, node, mail, shutdown));
        }
        Ok(TcpTransport {
            node,
            cfg,
            listener_addr,
            peers: HashMap::new(),
            mail,
            epoch: 0,
            vclock: 0,
            shutdown,
        })
    }

    /// The address peers should dial to reach this node.
    pub fn local_addr(&self) -> SocketAddr {
        self.listener_addr
    }

    /// This transport's node id.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Points `node` at `addr`. A new address (a restarted process listens
    /// on a fresh port) drops the cached connection and its replay frames;
    /// an unchanged one keeps both.
    pub fn set_peer(&mut self, node: NodeId, addr: SocketAddr) {
        if self.peers.get(&node).is_none_or(|p| p.addr != addr) {
            self.peers.insert(node, Peer::new(addr));
        }
    }

    /// Forgets `node` entirely (peer leave): sends to it fail fast as
    /// [`SendOutcome::Lost`] until a new address is installed.
    pub fn clear_peer(&mut self, node: NodeId) {
        self.peers.remove(&node);
    }

    /// Jumps the trial epoch (e.g. to the batch's global trial index after a
    /// supervisor `abandon`). Buffered future-epoch deliveries for the new
    /// epoch become visible; everything older is pruned.
    pub fn set_epoch(&mut self, epoch: u64) {
        self.enter_epoch(|_| epoch);
    }

    /// Moves the mailbox to `next(current epoch)` and resets the virtual
    /// clock.
    fn enter_epoch(&mut self, next: impl FnOnce(u64) -> u64) {
        self.epoch = next(self.epoch);
        self.mail
            .0
            .lock()
            .expect("mailbox lock poisoned")
            .set_epoch(self.epoch);
        self.vclock = 0;
    }

    /// Writes every peer's queued frames, one `write_all` per connection.
    /// A failed write drops that connection; its frames stay in the window
    /// and the next send to that peer redials and replays them.
    pub fn flush(&mut self) {
        flush_peers(&mut self.peers);
    }

    fn advance_vclock(&mut self, start: Instant) -> VTime {
        let elapsed_v = (start.elapsed().as_nanos() as u64) / self.cfg.nanos_per_vns.max(1);
        self.vclock = self.vclock.saturating_add(elapsed_v.max(1));
        self.vclock
    }

    /// One send attempt into `env.dst`'s window, stamped with the current
    /// epoch. Any failure drops the connection (keeping its replay frames)
    /// and returns `Err`.
    fn try_send(&mut self, env: &Envelope, budget: Duration) -> io::Result<()> {
        let data: DataFrame = frame(
            KIND_DATA,
            &[
                &self.epoch.to_le_bytes(),
                &(env.src as u32).to_le_bytes(),
                &(env.dst as u32).to_le_bytes(),
                &env.seq.to_le_bytes(),
                &env.attempt.to_le_bytes(),
                &env.payload.to_le_bytes(),
            ],
        );
        let peer = self
            .peers
            .get_mut(&env.dst)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "peer address unknown"))?;
        let sent = peer.send(self.node, &data, &self.cfg, budget);
        if sent.is_err() {
            peer.conn = None;
        }
        sent
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Wake the blocking accept() so the acceptor thread can exit.
        let _ = TcpStream::connect(self.listener_addr);
    }
}

/// Writes every peer's queued frames; see [`TcpTransport::flush`].
fn flush_peers(peers: &mut HashMap<NodeId, Peer>) {
    for peer in peers.values_mut() {
        if peer.conn.as_mut().is_some_and(|c| c.flush().is_err()) {
            peer.conn = None;
        }
    }
}

impl Transport for TcpTransport {
    fn send(&mut self, now: VTime, env: &Envelope, ack_deadline: VTime) -> SendOutcome {
        let start = Instant::now();
        self.vclock = self.vclock.max(now);
        let budget = self.cfg.wall(ack_deadline.saturating_sub(self.vclock));
        match self.try_send(env, budget) {
            Ok(()) => SendOutcome::Acked(self.advance_vclock(start)),
            Err(_) => {
                // Consume the rest of the window so the caller's backoff
                // schedule paces reconnection in wall time.
                let left = budget.saturating_sub(start.elapsed());
                if !left.is_zero() {
                    std::thread::sleep(left);
                }
                self.advance_vclock(start);
                SendOutcome::Lost
            }
        }
    }

    fn recv(&mut self, node: NodeId, deadline: VTime) -> RecvOutcome {
        debug_assert_eq!(node, self.node, "TcpTransport serves exactly one node");
        let start = Instant::now();
        let budget = self.cfg.wall(deadline.saturating_sub(self.vclock));
        let wall_deadline = start + budget;
        let (lock, cvar) = &*self.mail;
        let mut flushed = false;
        let mut mail = lock.lock().expect("mailbox lock poisoned");
        let delivered = loop {
            if let Some(env) = mail.pop() {
                break Some(env);
            }
            if !flushed {
                // About to wait: put this node's queued frames on the wire
                // first, without the lock the connection handlers need.
                drop(mail);
                flush_peers(&mut self.peers);
                flushed = true;
                mail = lock.lock().expect("mailbox lock poisoned");
                continue;
            }
            let left = wall_deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break None;
            }
            mail.waiters += 1;
            let (guard, _timeout) = cvar
                .wait_timeout(mail, left)
                .expect("mailbox lock poisoned");
            mail = guard;
            mail.waiters -= 1;
        };
        drop(mail);
        let v = self.advance_vclock(start);
        match delivered {
            Some(env) => RecvOutcome::Delivered(env, v),
            None => RecvOutcome::TimedOut,
        }
    }

    fn begin_trial(&mut self, _salt: u64) {
        self.enter_epoch(|epoch| epoch + 1);
    }
}

/// Accepts inbound connections and spawns one handler per peer connection.
fn acceptor_loop(listener: TcpListener, node: NodeId, mail: Mail, shutdown: Arc<AtomicBool>) {
    for stream in listener.incoming() {
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        let Ok(stream) = stream else { continue };
        let mail = Arc::clone(&mail);
        std::thread::spawn(move || {
            let _ = handle_peer(stream, node, mail);
        });
    }
}

/// Reads HELLO then DATA frames from one peer connection, delivering those
/// addressed to `node` and acking cumulatively; exits on any socket error
/// (peer death ≡ EOF/reset) or malformed frame.
fn handle_peer(stream: TcpStream, node: NodeId, mail: Mail) -> io::Result<()> {
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(&stream);
    let mut buf = [0u8; MAX_LEN];
    if read_frame(&mut reader, &mut buf)? != KIND_HELLO {
        return Err(invalid("expected HELLO"));
    }
    let (mut received, mut acked) = (0u64, 0u64);
    loop {
        if read_frame(&mut reader, &mut buf)? != KIND_DATA {
            return Err(invalid("expected DATA"));
        }
        received += 1;
        let epoch = u64_at(&buf, 1);
        let env = Envelope {
            src: u32_at(&buf, 9) as NodeId,
            dst: u32_at(&buf, 13) as NodeId,
            seq: u32_at(&buf, 17),
            attempt: u32_at(&buf, 21),
            payload: u64_at(&buf, 25),
        };
        // Stale frames are dropped by `push` but still counted in the ack,
        // so a lagging sender completes instead of retrying forever.
        if env.dst == node {
            let (lock, cvar) = &*mail;
            let wake = {
                let mut m = lock.lock().expect("mailbox lock poisoned");
                m.push(epoch, env) && m.waiters > 0
            };
            if wake {
                cvar.notify_all();
            }
        }
        if reader.buffer().is_empty() || received - acked >= ACK_EVERY {
            let ack: [u8; 4 + ACK_LEN] = frame(KIND_ACK, &[&received.to_le_bytes()]);
            (&stream).write_all(&ack)?;
            acked = received;
        }
    }
}

/// Lays out a whole frame of `N` bytes: length prefix, `kind`, `fields`.
fn frame<const N: usize>(kind: u8, fields: &[&[u8]]) -> [u8; N] {
    let mut out = [0u8; N];
    out[..4].copy_from_slice(&((N - 4) as u32).to_le_bytes());
    out[4] = kind;
    let mut at = 5;
    for f in fields {
        out[at..at + f.len()].copy_from_slice(f);
        at += f.len();
    }
    debug_assert_eq!(at, N, "frame fields must fill the frame");
    out
}

/// Reads one frame's kind and body into `buf` and returns the kind. A
/// frame whose length is not the one legal length of a known kind is
/// `InvalidData`.
fn read_frame(r: &mut impl Read, buf: &mut [u8; MAX_LEN]) -> io::Result<u8> {
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let len = u32::from_le_bytes(len) as usize;
    if len == 0 || len > MAX_LEN {
        return Err(invalid("frame length out of range"));
    }
    r.read_exact(&mut buf[..len])?;
    let legal = match buf[0] {
        KIND_HELLO => HELLO_LEN,
        KIND_DATA => DATA_LEN,
        KIND_ACK => ACK_LEN,
        _ => return Err(invalid("unknown frame kind")),
    };
    if len != legal {
        return Err(invalid("frame length does not match its kind"));
    }
    Ok(buf[0])
}

fn u32_at(b: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(b[at..at + 4].try_into().expect("four-byte slice"))
}

fn u64_at(b: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(b[at..at + 8].try_into().expect("eight-byte slice"))
}

fn invalid(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{mix64, RetryPolicy};
    use crate::transport::{robust_send, FaultCause};
    use std::collections::HashSet;

    fn env(src: NodeId, dst: NodeId, seq: u32, payload: u64) -> Envelope {
        Envelope {
            src,
            dst,
            seq,
            attempt: 0,
            payload,
        }
    }

    fn pair() -> Option<(TcpTransport, TcpTransport)> {
        let mut a = TcpTransport::bind(0).ok()?;
        let mut b = TcpTransport::bind(1).ok()?;
        a.set_peer(1, b.local_addr());
        b.set_peer(0, a.local_addr());
        Some((a, b))
    }

    fn policy(base_timeout: VTime, max_attempts: u32) -> RetryPolicy {
        RetryPolicy {
            base_timeout,
            max_attempts,
            jitter: 0.0,
        }
    }

    /// Accepts one connection on a fake peer, with a read timeout so a
    /// missing frame fails the test instead of hanging it.
    fn accept(fake: &TcpListener) -> TcpStream {
        let (s, _) = fake.accept().expect("accept");
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        s
    }

    /// Reads one raw frame (length prefix stripped) from a fake peer's
    /// side of a connection.
    fn raw_frame(s: &mut impl Read) -> Vec<u8> {
        let mut len = [0u8; 4];
        s.read_exact(&mut len).expect("frame length");
        let mut body = vec![0u8; u32::from_le_bytes(len) as usize];
        s.read_exact(&mut body).expect("frame body");
        body
    }

    /// `(seq, attempt)` of a raw `DATA` frame body.
    fn data_ids(body: &[u8]) -> (u32, u32) {
        assert_eq!((body[0], body.len()), (KIND_DATA, DATA_LEN));
        (u32_at(body, 17), u32_at(body, 21))
    }

    /// Whether `t` holds a live connection to `peer`.
    fn connected(t: &TcpTransport, peer: NodeId) -> bool {
        t.peers.get(&peer).is_some_and(|p| p.conn.is_some())
    }

    /// Spins until `mail` satisfies `ready`; fails after 10 s.
    fn await_mail(mail: &Mail, ready: impl Fn(&MailState) -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !ready(&mail.0.lock().unwrap()) {
            assert!(Instant::now() < deadline, "the mailbox never got there");
            std::thread::yield_now();
        }
    }

    #[test]
    fn delivers_and_acks_over_loopback() {
        let Some((mut a, mut b)) = pair() else { return };
        a.begin_trial(7);
        b.begin_trial(7);
        let got = a.send(0, &env(0, 1, 0, 42), 1 << 20);
        assert!(matches!(got, SendOutcome::Acked(_)));
        a.flush();
        let RecvOutcome::Delivered(e, _) = b.recv(1, 1 << 20) else {
            panic!("expected delivery");
        };
        assert_eq!(e.payload, 42);
        assert_eq!(e.src, 0);
    }

    #[test]
    fn a_node_about_to_block_in_recv_writes_its_queued_frames() {
        let Some((mut a, mut b)) = pair() else { return };
        a.set_epoch(1);
        b.set_epoch(1);
        let got = a.send(0, &env(0, 1, 0, 8), 1 << 20);
        assert!(matches!(got, SendOutcome::Acked(_)));
        // Nothing for `a` to receive: before it waits, its frame leaves.
        assert_eq!(a.recv(0, 1), RecvOutcome::TimedOut);
        let RecvOutcome::Delivered(e, _) = b.recv(1, 1 << 20) else {
            panic!("the frame must leave when its sender waits");
        };
        assert_eq!(e.payload, 8);
    }

    #[test]
    fn a_blocked_recv_wakes_on_a_handler_delivery() {
        let Ok(mut a) = TcpTransport::bind(0) else {
            return;
        };
        let cfg = TcpConfig {
            max_wait: Duration::from_secs(4),
            ..TcpConfig::default()
        };
        let Ok(mut b) = TcpTransport::with_config(1, cfg) else {
            return;
        };
        a.set_peer(1, b.local_addr());
        a.set_epoch(1);
        b.set_epoch(1);
        // Four seconds of wall at the default 1000 ns per virtual ns; a
        // woken receiver returns in a fraction of that.
        let deadline: VTime = 4_000_000;
        let mail = Arc::clone(&b.mail);
        std::thread::scope(|s| {
            // A delivery of the current epoch wakes it.
            let waiter = s.spawn(|| {
                let began = Instant::now();
                (b.recv(1, deadline), began.elapsed())
            });
            await_mail(&mail, |m| m.waiters == 1);
            assert!(matches!(
                a.send(0, &env(0, 1, 0, 1), 1 << 20),
                SendOutcome::Acked(_)
            ));
            a.flush();
            let (got, took) = waiter.join().unwrap();
            assert!(matches!(got, RecvOutcome::Delivered(e, _) if e.payload == 1));
            assert!(took < Duration::from_secs(2), "woken after {took:?}");
        });
    }

    #[test]
    fn future_epoch_buffers_until_receiver_catches_up() {
        let Some((mut a, mut b)) = pair() else { return };
        a.set_epoch(5);
        b.set_epoch(4);
        assert!(matches!(
            a.send(0, &env(0, 1, 0, 9), 1 << 20),
            SendOutcome::Acked(_)
        ));
        a.flush();
        // Receiver is still at epoch 4: nothing deliverable.
        assert_eq!(b.recv(1, 1), RecvOutcome::TimedOut);
        // Catch up: the buffered frame becomes visible.
        b.set_epoch(5);
        let RecvOutcome::Delivered(e, _) = b.recv(1, 1 << 20) else {
            panic!("expected delivery after epoch catch-up");
        };
        assert_eq!(e.payload, 9);
    }

    #[test]
    fn stale_epoch_is_acked_but_dropped_and_dedup_holds() {
        let Some((mut a, mut b)) = pair() else { return };
        a.set_epoch(3);
        b.set_epoch(8);
        // Stale: accepted (sender completes) but never delivered.
        assert!(matches!(
            a.send(0, &env(0, 1, 0, 1), 1 << 20),
            SendOutcome::Acked(_)
        ));
        a.flush();
        assert_eq!(b.recv(1, 1), RecvOutcome::TimedOut);
        // Dedup: the same (epoch, src, seq) delivered once despite a
        // retransmission.
        a.set_epoch(8);
        let mut e = env(0, 1, 4, 77);
        assert!(matches!(a.send(0, &e, 1 << 20), SendOutcome::Acked(_)));
        e.attempt = 1;
        assert!(matches!(a.send(0, &e, 1 << 20), SendOutcome::Acked(_)));
        a.flush();
        assert!(matches!(b.recv(1, 1 << 20), RecvOutcome::Delivered(_, _)));
        assert_eq!(b.recv(1, 1), RecvOutcome::TimedOut);
    }

    #[test]
    fn stale_frames_still_clear_the_window() {
        let Some((mut a, mut b)) = pair() else { return };
        a.set_epoch(1);
        b.set_epoch(100);
        // Three windows of stale frames: each full window needs acks.
        for seq in 0..3 * WINDOW as u32 {
            assert!(matches!(
                a.send(0, &env(0, 1, seq, 0), 1 << 20),
                SendOutcome::Acked(_)
            ));
        }
        assert_eq!(b.recv(1, 1), RecvOutcome::TimedOut);
    }

    #[test]
    fn reconnects_to_rebound_peer_via_retry_policy() {
        let Some((mut a, mut b)) = pair() else { return };
        a.set_epoch(1);
        b.set_epoch(1);
        assert!(matches!(
            a.send(0, &env(0, 1, 0, 5), 1 << 20),
            SendOutcome::Acked(_)
        ));
        a.flush();
        assert!(matches!(b.recv(1, 1 << 20), RecvOutcome::Delivered(_, _)));
        // "Restart" node 1 on a fresh port: the old listener dies with it.
        let b_addr_old = b.local_addr();
        drop(b);
        let mut b2 = TcpTransport::bind(1).expect("rebind");
        assert_ne!(b_addr_old, b2.local_addr());
        b2.set_peer(0, a.local_addr());
        b2.set_epoch(1);
        a.set_peer(1, b2.local_addr());
        // The new address dropped the cached socket, so robust_send dials
        // the new listener under the shared RetryPolicy.
        let mut clock: VTime = 0;
        let sent = robust_send(
            &mut a,
            &policy(1 << 14, 4),
            0xABCD,
            &mut clock,
            env(0, 1, 1, 6),
        );
        assert!(sent.is_ok(), "reconnect failed: {sent:?}");
        a.flush();
        let RecvOutcome::Delivered(e, _) = b2.recv(1, 1 << 20) else {
            panic!("expected delivery on rebound listener");
        };
        assert_eq!(e.payload, 6);
        // The old address's replay frame went with its connection.
        assert_eq!(b2.recv(1, 1), RecvOutcome::TimedOut);
    }

    #[test]
    fn dead_peer_exhausts_retries_with_fault_cause() {
        let Some((mut a, b)) = pair() else { return };
        a.set_epoch(1);
        // Peer gone, no restart. Its listener may still take the first dial
        // into its backlog, so early sends can enter the window; but once
        // the dial is refused or the window fills unacknowledged, the retry
        // budget runs out.
        drop(b);
        let policy = policy(1 << 10, 2);
        let mut clock: VTime = 0;
        let err = (0..=WINDOW as u32)
            .map(|seq| robust_send(&mut a, &policy, 1, &mut clock, env(0, 1, seq, 3)))
            .find(Result::is_err)
            .expect("a dead peer must exhaust the retry budget by the time the window fills");
        assert!(matches!(
            err,
            Err(FaultCause::RetriesExhausted { to: 1, .. })
        ));
    }

    #[test]
    fn silent_peer_exhausts_retries_once_the_window_fills() {
        let Ok(mut a) = TcpTransport::bind(0) else {
            return;
        };
        let fake = TcpListener::bind(("127.0.0.1", 0)).expect("fake peer");
        a.set_peer(1, fake.local_addr().unwrap());
        a.set_epoch(1);
        // The fake peer's backlog accepts the dials; nothing ever acks.
        let policy = policy(1 << 10, 2);
        let mut clock: VTime = 0;
        for seq in 0..WINDOW as u32 {
            let sent = robust_send(&mut a, &policy, 1, &mut clock, env(0, 1, seq, 0));
            assert_eq!(sent, Ok(1), "send {seq} fits the window");
        }
        let err = robust_send(&mut a, &policy, 1, &mut clock, env(0, 1, WINDOW as u32, 0));
        assert!(matches!(
            err,
            Err(FaultCause::RetriesExhausted { to: 1, .. })
        ));
    }

    #[test]
    fn reconnect_replays_unacked_frames_then_the_new_one() {
        let Some((mut a, mut b)) = pair() else { return };
        a.set_epoch(1);
        b.set_epoch(1);
        let fake = TcpListener::bind(("127.0.0.1", 0)).expect("fake peer");
        a.set_peer(1, fake.local_addr().unwrap());
        for seq in 0..3 {
            assert!(matches!(
                a.send(0, &env(0, 1, seq, 10 + seq as u64), 1 << 20),
                SendOutcome::Acked(_)
            ));
        }
        a.flush();
        // First connection: HELLO + three frames, then the peer hangs up
        // without acking any of them.
        let mut c1 = accept(&fake);
        let mut first = vec![raw_frame(&mut c1)];
        for seq in 0..3 {
            let f = raw_frame(&mut c1);
            assert_eq!(data_ids(&f), (seq, 0));
            first.push(f);
        }
        drop(c1);
        // Sends keep entering the window, and flushes writing them, until a
        // write fails on the dead connection and drops it.
        let mut seq = 3;
        while connected(&a, 1) {
            assert!(
                seq < WINDOW as u32,
                "the dead connection never failed a write"
            );
            assert!(matches!(
                a.send(0, &env(0, 1, seq, 10 + seq as u64), 1 << 20),
                SendOutcome::Acked(_)
            ));
            a.flush();
            seq += 1;
            // Give the peer's reset time to land.
            std::thread::sleep(Duration::from_millis(1));
        }
        // So the next send redials the same address on its first attempt.
        let policy = policy(1 << 12, 3);
        let mut clock: VTime = 0;
        let attempts = robust_send(
            &mut a,
            &policy,
            7,
            &mut clock,
            env(0, 1, seq, 10 + seq as u64),
        );
        assert_eq!(attempts, Ok(1), "the fake peer's backlog takes the redial");
        a.flush();
        // Second connection: HELLO, every unacked frame in order, then the
        // new frame at attempt 0.
        let mut c2 = accept(&fake);
        let hello = raw_frame(&mut c2);
        assert_eq!(hello, first[0]);
        let mut second = vec![hello];
        for want in 0..seq {
            let f = raw_frame(&mut c2);
            assert_eq!(data_ids(&f).0, want);
            second.push(f);
        }
        let last = raw_frame(&mut c2);
        assert_eq!(data_ids(&last), (seq, 0));
        second.push(last);
        // A real receiver fed both connections' bytes delivers each
        // (epoch, src, seq) once, in order. The streams stay open until the
        // deliveries are checked.
        let mut feeds = Vec::new();
        for conn in [&first, &second] {
            let mut s = TcpStream::connect(b.local_addr()).expect("dial b");
            for f in conn.iter() {
                s.write_all(&(f.len() as u32).to_le_bytes()).unwrap();
                s.write_all(f).unwrap();
            }
            feeds.push(s);
        }
        for want in 0..=seq {
            let RecvOutcome::Delivered(e, _) = b.recv(1, 1 << 20) else {
                panic!("expected delivery of seq {want}");
            };
            assert_eq!((e.seq, e.payload), (want, 10 + want as u64));
        }
        assert_eq!(b.recv(1, 1 << 8), RecvOutcome::TimedOut);
    }

    #[test]
    fn future_epochs_deliver_in_order_as_the_epoch_advances() {
        let Some((mut a, mut b)) = pair() else { return };
        let Ok(mut c) = TcpTransport::bind(2) else {
            return;
        };
        c.set_peer(1, b.local_addr());
        b.set_epoch(1);
        // 10 000 future-epoch frames: `a` walks epochs up, `c` walks them
        // down, so `b` must order what it buffers.
        const EPOCHS: u64 = 5_000;
        for i in 0..EPOCHS {
            for (t, epoch) in [(&mut a, 2 + i), (&mut c, 1 + EPOCHS - i)] {
                t.set_epoch(epoch);
                let e = env(t.node(), 1, 0, epoch);
                assert!(matches!(t.send(0, &e, 1 << 20), SendOutcome::Acked(_)));
            }
        }
        a.flush();
        c.flush();
        for epoch in 2..2 + EPOCHS {
            b.set_epoch(epoch);
            let mut srcs = Vec::new();
            for _ in 0..2 {
                let RecvOutcome::Delivered(e, _) = b.recv(1, 1 << 20) else {
                    panic!("expected delivery at epoch {epoch}");
                };
                assert_eq!(e.payload, epoch);
                srcs.push(e.src);
            }
            srcs.sort_unstable();
            assert_eq!(srcs, [0, 2]);
        }
        assert_eq!(b.recv(1, 1), RecvOutcome::TimedOut);
    }

    #[test]
    fn set_peer_redials_only_when_the_address_changes() {
        let Ok(mut a) = TcpTransport::bind(0) else {
            return;
        };
        a.set_epoch(1);
        let fake = TcpListener::bind(("127.0.0.1", 0)).expect("fake peer");
        let other = TcpListener::bind(("127.0.0.1", 0)).expect("second fake peer");
        let (addr, other_addr) = (fake.local_addr().unwrap(), other.local_addr().unwrap());
        let send = |a: &mut TcpTransport, seq: u32| {
            let got = a.send(0, &env(0, 1, seq, 0), 1 << 20);
            assert!(matches!(got, SendOutcome::Acked(_)));
            a.flush();
        };
        a.set_peer(1, addr);
        send(&mut a, 0);
        a.set_peer(1, addr);
        send(&mut a, 1);
        let mut c1 = accept(&fake);
        raw_frame(&mut c1);
        assert_eq!(data_ids(&raw_frame(&mut c1)).0, 0);
        assert_eq!(data_ids(&raw_frame(&mut c1)).0, 1);
        // A new address redials there, without the old replay frames.
        a.set_peer(1, other_addr);
        send(&mut a, 2);
        let mut c2 = accept(&other);
        raw_frame(&mut c2);
        assert_eq!(data_ids(&raw_frame(&mut c2)).0, 2);
        // Back to the first address: one more dial there, two in all.
        a.set_peer(1, addr);
        send(&mut a, 3);
        accept(&fake);
        fake.set_nonblocking(true).unwrap();
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(
            fake.accept().map(|_| ()).map_err(|e| e.kind()),
            Err(io::ErrorKind::WouldBlock),
            "an unchanged address must reuse its connection"
        );
    }

    #[test]
    fn malformed_frames_close_the_connection_and_deliver_nothing() {
        let Some((mut a, mut b)) = pair() else { return };
        a.set_epoch(1);
        b.set_epoch(1);
        let hello: [u8; 4 + HELLO_LEN] = frame(KIND_HELLO, &[&0u32.to_le_bytes()]);
        let data = |dst: u32| -> DataFrame {
            frame(
                KIND_DATA,
                &[
                    &1u64.to_le_bytes(),
                    &0u32.to_le_bytes(),
                    &dst.to_le_bytes(),
                    &0u32.to_le_bytes(),
                    &0u32.to_le_bytes(),
                    &5u64.to_le_bytes(),
                ],
            )
        };
        let raw = |len: u32, body: &[u8]| -> Vec<u8> {
            let mut v = len.to_le_bytes().to_vec();
            v.extend_from_slice(body);
            v
        };
        let with_hello = |rest: Vec<u8>| -> Vec<u8> { [hello.to_vec(), rest].concat() };
        let mut short_data = data(1)[..24].to_vec();
        short_data[..4].copy_from_slice(&20u32.to_le_bytes());
        let mut unknown_kind = data(1);
        unknown_kind[4] = 9;
        let ack: [u8; 4 + ACK_LEN] = frame(KIND_ACK, &[&1u64.to_le_bytes()]);
        /// What the receiver does with a case's bytes.
        #[derive(PartialEq)]
        enum Then {
            Closes,
            /// Closes once the half-closed stream ends mid-frame.
            ClosesAtEof,
            /// Drops the frame but counts it in its ack.
            Acks,
        }
        let cases = [
            ("no HELLO", data(1).to_vec(), Then::Closes),
            ("zero length", with_hello(raw(0, &[])), Then::Closes),
            (
                "oversized length",
                with_hello(raw(34, &[KIND_DATA; 34])),
                Then::Closes,
            ),
            (
                "huge length",
                with_hello(raw(1 << 30, &[KIND_DATA])),
                Then::Closes,
            ),
            ("short DATA", with_hello(short_data), Then::Closes),
            (
                "unknown kind",
                with_hello(unknown_kind.to_vec()),
                Then::Closes,
            ),
            ("ACK to a receiver", with_hello(ack.to_vec()), Then::Closes),
            ("second HELLO", with_hello(hello.to_vec()), Then::Closes),
            (
                "truncated DATA",
                with_hello(data(1)[..20].to_vec()),
                Then::ClosesAtEof,
            ),
            ("wrong dst", with_hello(data(7).to_vec()), Then::Acks),
        ];
        for (name, bytes, then) in cases {
            let mut s = TcpStream::connect(b.local_addr()).expect("dial b");
            s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            s.write_all(&bytes).unwrap();
            if then == Then::Acks {
                let ack = raw_frame(&mut s);
                assert_eq!((ack[0], u64_at(&ack, 1)), (KIND_ACK, 1), "{name}");
            } else {
                if then == Then::ClosesAtEof {
                    s.shutdown(std::net::Shutdown::Write).unwrap();
                }
                let mut byte = [0u8; 1];
                match s.read(&mut byte) {
                    Ok(0) => {}
                    Err(e) if e.kind() == io::ErrorKind::ConnectionReset => {}
                    other => panic!("{name}: connection not closed: {other:?}"),
                }
            }
            assert_eq!(b.recv(1, 1 << 8), RecvOutcome::TimedOut, "{name}");
        }
        // A well-formed peer is still served afterwards.
        assert!(matches!(
            a.send(0, &env(0, 1, 0, 42), 1 << 20),
            SendOutcome::Acked(_)
        ));
        a.flush();
        let RecvOutcome::Delivered(e, _) = b.recv(1, 1 << 20) else {
            panic!("expected delivery from a well-formed peer");
        };
        assert_eq!(e.payload, 42);
    }

    /// The plain model [`MailState`] must agree with: every buffered frame
    /// in push order, whatever its epoch, and every delivered
    /// `(epoch, src, seq)`.
    #[derive(Default)]
    struct MailModel {
        epoch: u64,
        frames: Vec<(u64, Envelope)>,
        delivered: HashSet<(u64, NodeId, u32)>,
    }

    impl MailModel {
        fn push(&mut self, epoch: u64, env: Envelope) -> bool {
            if epoch < self.epoch {
                return false;
            }
            self.frames.push((epoch, env));
            epoch == self.epoch
        }

        /// The first current-epoch frame in push order whose key was not
        /// delivered yet.
        fn pop(&mut self) -> Option<Envelope> {
            let epoch = self.epoch;
            while let Some(i) = self.frames.iter().position(|&(e, _)| e == epoch) {
                let (_, env) = self.frames.remove(i);
                if self.delivered.insert((epoch, env.src, env.seq)) {
                    return Some(env);
                }
            }
            None
        }

        fn set_epoch(&mut self, epoch: u64) {
            self.epoch = epoch;
            self.frames.retain(|&(e, _)| e >= epoch);
        }
    }

    /// Random pushes at stale, current and future epochs, pops, and
    /// non-decreasing epoch moves, checked against [`MailModel`] step by
    /// step. Each frame's payload carries its epoch and push index, so an
    /// equal delivery is the same frame, and a delivery is also checked to
    /// belong to the current epoch. Few sources and sequence numbers make
    /// duplicate keys common.
    #[test]
    fn mail_state_matches_a_reference_model_under_random_steps() {
        for case in 0..500u64 {
            let seed = mix64(0x4D41_494C_0000_0000 ^ case);
            let mut state = seed;
            let mut next = |n: u64| {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                mix64(state) % n
            };
            let (mut mail, mut model) = (MailState::default(), MailModel::default());
            for step in 0..200u64 {
                match next(20) {
                    0..=9 => {
                        let epoch = (model.epoch + next(5)).saturating_sub(2);
                        let env = Envelope {
                            src: next(3) as NodeId,
                            dst: 0,
                            seq: next(4) as u32,
                            attempt: 0,
                            payload: (epoch << 32) | step,
                        };
                        let (got, want) = (mail.push(epoch, env), model.push(epoch, env));
                        assert_eq!(got, want, "push: case seed {seed:#018x}, step {step}");
                    }
                    10..=16 => {
                        let got = mail.pop();
                        assert_eq!(got, model.pop(), "pop: case seed {seed:#018x}, step {step}");
                        if let Some(env) = got {
                            assert_eq!(
                                env.payload >> 32,
                                model.epoch,
                                "delivered outside its epoch: case seed {seed:#018x}, step {step}"
                            );
                        }
                    }
                    _ => {
                        let epoch = model.epoch + next(3);
                        mail.set_epoch(epoch);
                        model.set_epoch(epoch);
                    }
                }
            }
        }
    }
}
