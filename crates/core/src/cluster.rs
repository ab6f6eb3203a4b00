//! Multi-process cluster runtime: one protocol node per OS process over
//! real TCP sockets, driven by a crash-recovery supervisor.
//!
//! This module closes the loop between the in-process samplers of
//! [`crate::trials`] / [`crate::net`] and a genuinely distributed
//! deployment. The pieces:
//!
//! - [`ProgramSpec`] — a wire-encodable description of any
//!   [`RoundProgram`] the suite compiles (chain, relay, tree), with `f64`
//!   tables shipped as `to_bits` hex so a decoded program is **bit-exact**;
//! - [`node_main`] — the per-process entry point (the `dqma-node` binary):
//!   binds a [`TcpTransport`], reports in over a control connection, and
//!   replays only its own node's slice of each trial;
//! - [`Cluster`] — the supervisor: spawns the fleet, drives batches of
//!   trials, detects dead peers, restarts their processes, replays the
//!   reconnect handshake and resumes — degraded trials surface as aborts,
//!   never as silent rejections;
//! - [`ChurnSchedule`] — seeded kill/leave/join/reprogram events at trial
//!   offsets of the virtual timeline, so peer churn is reproducible.
//!
//! # RNG addressing
//!
//! Every draw of a transport trial has an address: the trial's fault salt
//! and each node's stream come from
//! [`BlockRng::trial`]`(t)`, pure functions of `(seed, block, trial, node)`.
//! A node process opens its own stream for trial `t` directly — it never
//! replays another node's draws, and a faulted trial cannot shift any later
//! trial's draws. So on the fault-free path the fleet's decisions, message
//! counts and transcript digest are bit-identical to
//! [`crate::net::sample_transport_rounds`] with a quiet fault plan.
//!
//! # Epochs
//!
//! Trial `g` (global index `block × BLOCK_TRIALS + t`) runs under TCP
//! epoch `g + 1`: every process pins its transport's epoch before running
//! the trial, so frames from lagging peers are acknowledged (their sender
//! completes) but never delivered into a later trial.

use std::collections::{HashSet, VecDeque};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::str::SplitWhitespace;
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::thread;
use std::time::{Duration, Instant};

use netsim::tcp::{TcpConfig, TcpTransport};
use netsim::transport::{FaultCause, NodeId, Transport};
use netsim::RetryPolicy;

use crate::chain::ChainRoundPlan;
use crate::net::{
    mix, run_single_node, ChainNetProgram, RelayNetProgram, RoundProgram, TreeNetProgram, TreeRole,
};
use crate::trials::{block_len, BlockOutcomes, BlockRng, BLOCK_TRIALS};

// ---------------------------------------------------------------------------
// Program specs: wire-encodable round programs
// ---------------------------------------------------------------------------

/// A wire-encodable compiled round program: the [`AnyProgram`] it holds.
///
/// The encoding is a single whitespace-tokenised line, and every `f64`
/// table entry ships as its [`f64::to_bits`] value in hex, so
/// `decode(encode(spec))` holds a **bit-exact** copy of the original
/// program in another process. The three forms:
///
/// * `chain <k> <tables>`: `4(k+1)` tables;
/// * `relay <s> <b_0> … <b_s> <tables>`: `s ≥ 1` segments between
///   boundaries that start at `b_0 = 0` and increase strictly, then
///   `4(b_{i+1} − b_i)` tables per segment;
/// * `tree <n> <len> <schedule> <roles>`: `len` schedule node ids, then
///   `n` roles, each `u` (unused), `l <parent>` (leaf) or
///   `i <parent|x> <c> <child:shift|child:x …> <p> <probs>` (internal).
///   Every id is below `n`; an internal role with `k` shifted children
///   gives them shifts in `1..=k` and carries `p = 2^(1+k)` probabilities.
///
/// This is what the supervisor sends over the control channel
/// (`program <tokens…>`) at launch, after a restart, and on a
/// [`ChurnEvent::Reprogram`].
#[derive(Clone, Debug)]
pub struct ProgramSpec {
    program: AnyProgram,
}

/// Any of the suite's three per-node program shapes, decoded from a
/// [`ProgramSpec`]. Delegates [`RoundProgram`] to the inner program.
#[derive(Clone, Debug)]
pub enum AnyProgram {
    /// A single chain walk on the path (EQ-path, orthogonality chains).
    Chain(ChainNetProgram),
    /// The relay-point protocol: chained per-segment walks.
    Relay(RelayNetProgram),
    /// The EQ-tree permutation test on an announced spanning tree.
    Tree(TreeNetProgram),
}

impl RoundProgram for AnyProgram {
    fn num_nodes(&self) -> usize {
        match self {
            AnyProgram::Chain(p) => p.num_nodes(),
            AnyProgram::Relay(p) => p.num_nodes(),
            AnyProgram::Tree(p) => p.num_nodes(),
        }
    }

    fn schedule(&self) -> &[NodeId] {
        match self {
            AnyProgram::Chain(p) => p.schedule(),
            AnyProgram::Relay(p) => p.schedule(),
            AnyProgram::Tree(p) => p.schedule(),
        }
    }

    fn run_node<T: Transport + ?Sized>(
        &self,
        node: NodeId,
        io: &mut crate::net::NodeIo<'_, T>,
    ) -> Result<bool, FaultCause> {
        match self {
            AnyProgram::Chain(p) => p.run_node(node, io),
            AnyProgram::Relay(p) => p.run_node(node, io),
            AnyProgram::Tree(p) => p.run_node(node, io),
        }
    }
}

/// Thin error-reporting wrapper around [`SplitWhitespace`]. Shared with the
/// serving layer's journal replay in [`crate::service`], which reads each
/// line's kind and numbers with it.
pub(crate) struct Tokens<'a> {
    it: SplitWhitespace<'a>,
}

/// Hard ceiling on any wire-decoded element count (`chain` length, relay
/// segments, tree roles/children/probabilities). A corrupted or hostile
/// length prefix must fail with a structured error *before* any allocation
/// sized by it — never a capacity-overflow panic or an OOM.
pub(crate) const MAX_WIRE_COUNT: usize = 1 << 16;

impl<'a> Tokens<'a> {
    pub(crate) fn new(line: &'a str) -> Self {
        Tokens {
            it: line.split_whitespace(),
        }
    }

    pub(crate) fn next_str(&mut self) -> Option<&'a str> {
        self.it.next()
    }

    pub(crate) fn expect(&mut self) -> Result<&'a str, String> {
        self.it.next().ok_or_else(|| "truncated spec".to_string())
    }

    pub(crate) fn u64(&mut self) -> Result<u64, String> {
        let t = self.expect()?;
        t.parse().map_err(|_| format!("bad integer token {t:?}"))
    }

    pub(crate) fn usize(&mut self) -> Result<usize, String> {
        let t = self.expect()?;
        t.parse().map_err(|_| format!("bad integer token {t:?}"))
    }

    /// A `usize` length prefix, rejected above [`MAX_WIRE_COUNT`] so the
    /// caller may allocate `count(..)?` elements without further checks.
    pub(crate) fn count(&mut self, what: &str) -> Result<usize, String> {
        let n = self.usize()?;
        if n > MAX_WIRE_COUNT {
            return Err(format!(
                "{what} count {n} exceeds wire cap {MAX_WIRE_COUNT}"
            ));
        }
        Ok(n)
    }

    pub(crate) fn f64_bits(&mut self) -> Result<f64, String> {
        let t = self.expect()?;
        u64::from_str_radix(t, 16)
            .map(f64::from_bits)
            .map_err(|_| format!("bad f64-bits token {t:?}"))
    }
}

fn push_f64(out: &mut String, v: f64) {
    out.push_str(&format!(" {:016x}", v.to_bits()));
}

impl ProgramSpec {
    /// Captures a chain program (EQ-path, orthogonality chain, …).
    pub fn from_chain(p: &ChainNetProgram) -> Self {
        ProgramSpec {
            program: AnyProgram::Chain(p.clone()),
        }
    }

    /// Captures a relay-point program with its segment boundaries.
    pub fn from_relay(p: &RelayNetProgram) -> Self {
        ProgramSpec {
            program: AnyProgram::Relay(p.clone()),
        }
    }

    /// Captures an EQ-tree program (roles + post-order schedule).
    pub fn from_tree(p: &TreeNetProgram) -> Self {
        ProgramSpec {
            program: AnyProgram::Tree(p.clone()),
        }
    }

    /// The program this spec encodes.
    pub fn program(&self) -> &AnyProgram {
        &self.program
    }

    /// Serialises the spec to its single-line token form.
    pub fn encode(&self) -> String {
        match &self.program {
            AnyProgram::Chain(p) => {
                let mut out = format!("chain {}", p.plan.num_intermediate());
                for &v in p.plan.tables() {
                    push_f64(&mut out, v);
                }
                out
            }
            AnyProgram::Relay(p) => {
                let mut out = format!("relay {}", p.segments.len());
                for b in p.boundaries() {
                    out.push_str(&format!(" {b}"));
                }
                for seg in &p.segments {
                    for &v in seg.tables() {
                        push_f64(&mut out, v);
                    }
                }
                out
            }
            AnyProgram::Tree(p) => {
                let schedule = p.schedule();
                let mut out = format!("tree {} {}", p.roles.len(), schedule.len());
                for s in schedule {
                    out.push_str(&format!(" {s}"));
                }
                for role in &p.roles {
                    match role {
                        TreeRole::Unused => out.push_str(" u"),
                        TreeRole::Leaf { parent } => out.push_str(&format!(" l {parent}")),
                        TreeRole::Internal {
                            parent,
                            children,
                            probs,
                        } => {
                            match parent {
                                Some(p) => out.push_str(&format!(" i {p}")),
                                None => out.push_str(" i x"),
                            }
                            out.push_str(&format!(" {}", children.len()));
                            for (c, shift) in children {
                                match shift {
                                    Some(s) => out.push_str(&format!(" {c}:{s}")),
                                    None => out.push_str(&format!(" {c}:x")),
                                }
                            }
                            out.push_str(&format!(" {}", probs.len()));
                            for &v in probs {
                                push_f64(&mut out, v);
                            }
                        }
                    }
                }
                out
            }
        }
    }

    /// Parses a spec from its token form (the tail of a `program` control
    /// line). Inverse of [`ProgramSpec::encode`].
    pub fn decode(line: &str) -> Result<ProgramSpec, String> {
        Self::decode_tokens(&mut Tokens::new(line))
    }

    fn decode_tokens(tok: &mut Tokens<'_>) -> Result<ProgramSpec, String> {
        let program = match tok.expect()? {
            "chain" => {
                let k = tok.count("chain length")?;
                let tables = (0..4 * (k + 1))
                    .map(|_| tok.f64_bits())
                    .collect::<Result<Vec<_>, _>>()?;
                AnyProgram::Chain(ChainNetProgram::new(ChainRoundPlan::from_tables(tables, k)))
            }
            "relay" => {
                let nseg = tok.count("relay segment")?;
                let boundaries = (0..=nseg)
                    .map(|_| tok.usize())
                    .collect::<Result<Vec<_>, _>>()?;
                if boundaries[0] != 0 {
                    return Err(format!(
                        "relay boundaries start at {}, not 0",
                        boundaries[0]
                    ));
                }
                if nseg == 0 {
                    return Err("a relay needs at least one segment".to_string());
                }
                let mut segments = Vec::with_capacity(nseg);
                for i in 0..nseg {
                    let ki = boundaries[i + 1]
                        .checked_sub(boundaries[i] + 1)
                        .ok_or_else(|| "non-monotone relay boundaries".to_string())?;
                    if ki > MAX_WIRE_COUNT {
                        return Err(format!(
                            "relay segment length {ki} exceeds wire cap {MAX_WIRE_COUNT}"
                        ));
                    }
                    let tables = (0..4 * (ki + 1))
                        .map(|_| tok.f64_bits())
                        .collect::<Result<Vec<_>, _>>()?;
                    segments.push(ChainRoundPlan::from_tables(tables, ki));
                }
                AnyProgram::Relay(RelayNetProgram::from_segments(segments, &boundaries))
            }
            "tree" => {
                let n = tok.count("tree role")?;
                let slen = tok.count("tree schedule")?;
                // Every id a node runs as, sends to or hears from must name
                // a role: a node indexes the role table and its transport's
                // mailboxes by it.
                let node = |what: &str, id: usize| {
                    if id < n {
                        Ok(id)
                    } else {
                        Err(format!("tree {what} {id} is not below the role count {n}"))
                    }
                };
                let schedule = (0..slen)
                    .map(|_| node("schedule id", tok.usize()?))
                    .collect::<Result<Vec<_>, _>>()?;
                let mut roles = Vec::with_capacity(n);
                for _ in 0..n {
                    roles.push(match tok.expect()? {
                        "u" => TreeRole::Unused,
                        "l" => TreeRole::Leaf {
                            parent: node("leaf parent", tok.usize()?)?,
                        },
                        "i" => {
                            let parent = match tok.expect()? {
                                "x" => None,
                                p => Some(node(
                                    "internal parent",
                                    p.parse().map_err(|_| format!("bad parent token {p:?}"))?,
                                )?),
                            };
                            let nch = tok.count("tree child")?;
                            let mut children = Vec::with_capacity(nch);
                            for _ in 0..nch {
                                let t = tok.expect()?;
                                let (c, s) = t
                                    .split_once(':')
                                    .ok_or_else(|| format!("bad child token {t:?}"))?;
                                let c = c.parse().map_err(|_| format!("bad child id {c:?}"))?;
                                let shift = match s {
                                    "x" => None,
                                    s => Some(
                                        s.parse().map_err(|_| format!("bad child shift {s:?}"))?,
                                    ),
                                };
                                children.push((node("child id", c)?, shift));
                            }
                            // The `k` shifted children's coins sit at bits
                            // 1..=k of the table index, the node's own at
                            // bit 0, so the table has 2^(1+k) entries.
                            let k = children.iter().filter(|(_, s)| s.is_some()).count();
                            if let Some(s) = children
                                .iter()
                                .find_map(|&(_, s)| s.filter(|&s| s == 0 || s as usize > k))
                            {
                                return Err(format!("tree child shift {s} is outside 1..={k}"));
                            }
                            let np = tok.count("tree probability")?;
                            if 1usize.checked_shl(k as u32 + 1) != Some(np) {
                                return Err(format!(
                                    "tree probability table has {np} entries, not 2^(1+{k})"
                                ));
                            }
                            let probs = (0..np)
                                .map(|_| tok.f64_bits())
                                .collect::<Result<Vec<_>, _>>()?;
                            TreeRole::Internal {
                                parent,
                                children,
                                probs,
                            }
                        }
                        t => return Err(format!("bad role token {t:?}")),
                    });
                }
                AnyProgram::Tree(TreeNetProgram::new(roles, schedule))
            }
            t => return Err(format!("unknown program kind {t:?}")),
        };
        Ok(ProgramSpec { program })
    }
}

// ---------------------------------------------------------------------------
// Node process
// ---------------------------------------------------------------------------

/// Configuration of one `dqma-node` process, reconstructed from its argv.
#[derive(Clone, Debug)]
pub struct NodeConfig {
    /// The supervisor's control listener, `host:port`.
    pub ctl_addr: String,
    /// This process's node id.
    pub node: NodeId,
    /// Fleet size (ids `0..num_nodes`).
    pub num_nodes: usize,
    /// Wall nanoseconds per virtual nanosecond for the data transport.
    pub nanos_per_vns: u64,
    /// Retry policy shared by the whole fleet.
    pub policy: RetryPolicy,
}

impl NodeConfig {
    /// Parses the seven-argument `dqma-node` argv:
    /// `ctl_addr node num_nodes nanos_per_vns base_timeout max_attempts
    /// jitter_bits_hex`.
    pub fn from_args(args: &[String]) -> Result<NodeConfig, String> {
        if args.len() != 7 {
            return Err(format!("expected 7 node arguments, got {}", args.len()));
        }
        let parse_u64 = |s: &String| s.parse::<u64>().map_err(|_| format!("bad integer {s:?}"));
        let jitter = u64::from_str_radix(&args[6], 16)
            .map(f64::from_bits)
            .map_err(|_| format!("bad jitter bits {:?}", args[6]))?;
        Ok(NodeConfig {
            ctl_addr: args[0].clone(),
            node: parse_u64(&args[1])? as NodeId,
            num_nodes: parse_u64(&args[2])? as usize,
            nanos_per_vns: parse_u64(&args[3])?,
            policy: RetryPolicy {
                base_timeout: parse_u64(&args[4])?,
                max_attempts: parse_u64(&args[5])? as u32,
                jitter,
            },
        })
    }

    /// Renders the argv [`NodeConfig::from_args`] parses.
    fn to_args(&self) -> Vec<String> {
        vec![
            self.ctl_addr.clone(),
            self.node.to_string(),
            self.num_nodes.to_string(),
            self.nanos_per_vns.to_string(),
            self.policy.base_timeout.to_string(),
            self.policy.max_attempts.to_string(),
            format!("{:016x}", self.policy.jitter.to_bits()),
        ]
    }
}

fn other(msg: impl Into<String>) -> io::Error {
    io::Error::other(msg.into())
}

/// Runs one protocol node to completion: the body of the `dqma-node`
/// binary.
///
/// Connects to the supervisor's control address, binds a
/// [`TcpTransport`] for protocol data, announces `hello <node> <addr>`,
/// then serves control lines: `peers` installs the fleet's data
/// addresses, `program` installs a decoded [`ProgramSpec`], `run` replays
/// a batch of trials and reports it back in one `res` line, `abandon`
/// cancels the batch in flight at the next trial boundary, and `quit`
/// (or control-channel EOF) exits.
pub fn node_main(cfg: &NodeConfig) -> io::Result<()> {
    let ctl = TcpStream::connect(&cfg.ctl_addr)?;
    ctl.set_nodelay(true).ok();
    let mut transport = TcpTransport::with_config(
        cfg.node,
        TcpConfig {
            nanos_per_vns: cfg.nanos_per_vns,
            ..TcpConfig::default()
        },
    )?;
    let mut ctl_w = ctl.try_clone()?;
    writeln!(ctl_w, "hello {} {}", cfg.node, transport.local_addr())?;
    ctl_w.flush()?;

    let (tx, rx) = mpsc::channel::<String>();
    let reader = BufReader::new(ctl);
    thread::spawn(move || {
        for line in reader.lines() {
            match line {
                Ok(l) => {
                    if tx.send(l).is_err() {
                        return;
                    }
                }
                Err(_) => return,
            }
        }
    });

    let mut program: Option<ProgramSpec> = None;
    // Control lines read (but not consumed) while a batch was running.
    let mut pending: VecDeque<String> = VecDeque::new();
    loop {
        let line = match pending.pop_front() {
            Some(l) => l,
            None => match rx.recv() {
                Ok(l) => l,
                // Supervisor hung up: exit quietly.
                Err(_) => return Ok(()),
            },
        };
        let mut tok = Tokens::new(&line);
        match tok.next_str() {
            Some("peers") => {
                apply_peers(&mut transport, cfg, &mut tok).map_err(other)?;
            }
            Some("program") => {
                program = Some(ProgramSpec::decode_tokens(&mut tok).map_err(other)?);
            }
            Some("run") => {
                let seed = tok.u64().map_err(other)?;
                let block = tok.u64().map_err(other)?;
                let first = tok.u64().map_err(other)?;
                let count = tok.u64().map_err(other)?;
                let base = tok.u64().map_err(other)?;
                let spec = program
                    .as_ref()
                    .ok_or_else(|| other("run before program"))?;
                run_batch(
                    spec.program(),
                    &mut transport,
                    cfg,
                    &mut ctl_w,
                    &rx,
                    &mut pending,
                    seed,
                    block,
                    first,
                    count,
                    base,
                )?;
            }
            // A stale abandon for a batch that already completed.
            Some("abandon") => {}
            // Fault-injection hook: go silent for the given wall time. The
            // process stays alive (its data transport keeps its socket) but
            // stops serving control lines — exactly the hung/livelocked
            // shape the supervisor's batch deadline exists to bound.
            Some("stall") => {
                let ms = tok.u64().map_err(other)?;
                thread::sleep(Duration::from_millis(ms));
            }
            Some("quit") | None => return Ok(()),
            Some(_) => {}
        }
    }
}

fn apply_peers(
    transport: &mut TcpTransport,
    cfg: &NodeConfig,
    tok: &mut Tokens<'_>,
) -> Result<(), String> {
    let n = tok.usize()?;
    for v in 0..n {
        let t = tok.expect()?;
        if v == cfg.node {
            continue;
        }
        if t == "-" {
            transport.clear_peer(v);
        } else {
            let addr: SocketAddr = t.parse().map_err(|_| format!("bad peer address {t:?}"))?;
            transport.set_peer(v, addr);
        }
    }
    Ok(())
}

/// Replays trials `first..first + count` of `block` and reports the
/// `done` trials it ran in one line (see [`format_report`]): per trial a
/// decision code and a digest, and the batch's `sent`/`retries` totals.
/// Control lines arriving mid-batch are deferred to the caller, except
/// `abandon` / `quit`, which stop the batch at the next trial boundary —
/// the partial report still goes out so the supervisor can account for
/// every trial. The transport's queued frames are flushed before the
/// report, so no peer waits on a frame this node holds.
///
/// `base` is the supervisor's epoch base for this `run` invocation:
/// trial `g` uses TCP epoch `base + g + 1`, and the base strictly
/// increases across [`Cluster::run`] calls so the fleet's epochs never
/// move backwards (which would let a previous run's dedup state swallow
/// fresh frames).
#[allow(clippy::too_many_arguments)]
fn run_batch(
    program: &AnyProgram,
    transport: &mut TcpTransport,
    cfg: &NodeConfig,
    ctl_w: &mut TcpStream,
    rx: &Receiver<String>,
    pending: &mut VecDeque<String>,
    seed: u64,
    block: u64,
    first: u64,
    count: u64,
    base: u64,
) -> io::Result<()> {
    let me = cfg.node;
    let stream = BlockRng::new(seed, block);
    let mut report = BatchReport::default();
    let mut stop = false;
    for i in 0..count {
        while let Ok(l) = rx.try_recv() {
            if l.starts_with("abandon") {
                stop = true;
            } else {
                if l.starts_with("quit") {
                    stop = true;
                }
                pending.push_back(l);
            }
        }
        if stop {
            break;
        }
        let t = first + i;
        let g = block * BLOCK_TRIALS + t;
        transport.set_epoch(base + g + 1);
        let (decision, _vtime, stats) =
            run_single_node(program, me, transport, &cfg.policy, stream.trial(t));
        report.codes.push(match decision {
            Ok(true) => TrialCode::Accept,
            Ok(false) => TrialCode::Reject,
            Err(_) => TrialCode::Fault,
        });
        report.digests.push(stats.digest);
        report.sent += stats.sent;
        report.retries += stats.retries;
    }
    transport.flush();
    let mut line = format_report(block, first, &report);
    line.push('\n');
    ctl_w.write_all(line.as_bytes())?;
    ctl_w.flush()
}

/// One node's report of one batch: a decision code and a digest per trial,
/// indexed by offset from the batch's first trial, and the batch's totals.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct BatchReport {
    codes: Vec<TrialCode>,
    digests: Vec<u64>,
    /// Send attempts, summed over the reported trials.
    sent: u64,
    /// Re-attempts, summed over the reported trials.
    retries: u64,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum TrialCode {
    Accept,
    Reject,
    Fault,
}

/// The batch line `res <block> <first> <done> <sent> <retries> <codes>
/// <digests>`, without its newline: `<codes>` holds one `a`/`r`/`f` byte
/// per trial, `<digests>` 16 lower-case hex digits per trial, and both are
/// `-` when `done` is 0.
fn format_report(block: u64, first: u64, report: &BatchReport) -> String {
    let done = report.codes.len();
    let mut line = format!(
        "res {block} {first} {done} {} {} ",
        report.sent, report.retries
    );
    if done == 0 {
        line.push_str("- -");
        return line;
    }
    line.reserve(17 * done);
    line.extend(report.codes.iter().map(|code| match code {
        TrialCode::Accept => 'a',
        TrialCode::Reject => 'r',
        TrialCode::Fault => 'f',
    }));
    line.push(' ');
    for d in &report.digests {
        line.extend((0..16).rev().map(|i| {
            let nibble = ((d >> (4 * i)) & 0xf) as u32;
            char::from_digit(nibble, 16).expect("a nibble is one hex digit")
        }));
    }
    line
}

/// Parses a [`format_report`] line into `(block, first, report)`. A missing
/// or extra token, a bad number, an unknown code byte, a non-hex digit, or
/// a `<codes>`/`<digests>` length that disagrees with `done` is an error.
fn parse_report(line: &str) -> Result<(u64, u64, BatchReport), String> {
    let mut tok = Tokens::new(line);
    if tok.next_str() != Some("res") {
        return Err(format!("not a report line: {line:?}"));
    }
    let (block, first, done) = (tok.u64()?, tok.u64()?, tok.usize()?);
    let (sent, retries) = (tok.u64()?, tok.u64()?);
    let mut field = || tok.expect().map(|t| if t == "-" { "" } else { t });
    let (codes, digests) = (field()?, field()?);
    if let Some(extra) = tok.next_str() {
        return Err(format!("trailing token {extra:?}"));
    }
    if codes.len() != done || done.checked_mul(16) != Some(digests.len()) {
        return Err(format!(
            "{done} trials but {} codes and {} digest digits",
            codes.len(),
            digests.len()
        ));
    }
    let codes = codes
        .bytes()
        .map(|b| match b {
            b'a' => Ok(TrialCode::Accept),
            b'r' => Ok(TrialCode::Reject),
            b'f' => Ok(TrialCode::Fault),
            _ => Err(format!("bad decision code {:?}", b as char)),
        })
        .collect::<Result<_, _>>()?;
    let digests = digests
        .as_bytes()
        .chunks(16)
        .map(|hex| {
            hex.iter().try_fold(0u64, |acc, &b| {
                let digit = (b as char).to_digit(16).ok_or("bad digest digit")?;
                Ok::<_, String>((acc << 4) | u64::from(digit))
            })
        })
        .collect::<Result<_, _>>()?;
    Ok((
        block,
        first,
        BatchReport {
            codes,
            digests,
            sent,
            retries,
        },
    ))
}

// ---------------------------------------------------------------------------
// Churn schedule
// ---------------------------------------------------------------------------

/// One peer-churn event, anchored at a global trial index of the virtual
/// timeline (trial `g` spans virtual time `g × trial budget`, so trial
/// offsets are the reproducible unit of "when").
#[derive(Clone, Debug)]
pub enum ChurnEvent {
    /// Kill `node`'s process right after the batch starting at `at_trial`
    /// goes out (so the crash lands mid-workload), then restart it
    /// `restart_delay` after the death is detected.
    Kill {
        /// Global trial index the kill batch starts at.
        at_trial: u64,
        /// Victim node.
        node: NodeId,
        /// Pause between detected death and respawn.
        restart_delay: Duration,
    },
    /// Like `Kill`, but the node stays gone (its trials abort) until a
    /// matching [`ChurnEvent::Join`].
    Leave {
        /// Global trial index the departure batch starts at.
        at_trial: u64,
        /// Departing node.
        node: NodeId,
    },
    /// Respawns a departed node before the batch starting at `at_trial`.
    Join {
        /// Global trial index the node rejoins at.
        at_trial: u64,
        /// Rejoining node.
        node: NodeId,
    },
    /// Installs a new program fleet-wide before the batch starting at
    /// `at_trial` — e.g. a re-randomised §3.3 spanning tree. The new
    /// program must keep the fleet size.
    Reprogram {
        /// Global trial index the new program takes effect at.
        at_trial: u64,
        /// The replacement program.
        spec: ProgramSpec,
    },
}

impl ChurnEvent {
    fn at_trial(&self) -> u64 {
        match self {
            ChurnEvent::Kill { at_trial, .. }
            | ChurnEvent::Leave { at_trial, .. }
            | ChurnEvent::Join { at_trial, .. }
            | ChurnEvent::Reprogram { at_trial, .. } => *at_trial,
        }
    }
}

/// A reproducible churn schedule: events sorted by trial offset.
#[derive(Clone, Debug, Default)]
pub struct ChurnSchedule {
    events: Vec<ChurnEvent>,
}

impl ChurnSchedule {
    /// The empty schedule (fault-free run).
    pub fn none() -> Self {
        ChurnSchedule::default()
    }

    /// Builds a schedule from `events`, sorting by trial offset (stable,
    /// so same-trial events keep their given order).
    pub fn new(mut events: Vec<ChurnEvent>) -> Self {
        events.sort_by_key(ChurnEvent::at_trial);
        ChurnSchedule { events }
    }

    /// The sorted events.
    pub fn events(&self) -> &[ChurnEvent] {
        &self.events
    }

    /// A deterministic kill-restart schedule: `count` kills at
    /// mix-derived trial offsets in `[1, trials)`, victims drawn from
    /// `nodes`, restart delays uniform in `[0, max_delay]`. Same
    /// arguments, same schedule — the churn analogue of the block-stream
    /// seeding discipline.
    pub fn seeded_kills(
        seed: u64,
        trials: u64,
        nodes: &[NodeId],
        count: usize,
        max_delay: Duration,
    ) -> Self {
        assert!(!nodes.is_empty(), "need at least one victim candidate");
        assert!(trials > 1, "need at least two trials to land a kill");
        let mut events = Vec::with_capacity(count);
        for i in 0..count {
            let h = mix(seed ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let at_trial = 1 + h % (trials - 1);
            let node = nodes[(mix(h) % nodes.len() as u64) as usize];
            let delay_ns = if max_delay.is_zero() {
                0
            } else {
                mix(mix(h)) % (max_delay.as_nanos() as u64 + 1)
            };
            events.push(ChurnEvent::Kill {
                at_trial,
                node,
                restart_delay: Duration::from_nanos(delay_ns),
            });
        }
        Self::new(events)
    }
}

// ---------------------------------------------------------------------------
// Supervisor
// ---------------------------------------------------------------------------

/// The fleet-wide retry policy used by [`ClusterConfig::default`]:
/// attempt 0 waits 32 µs of virtual time (32 ms of wall at the default
/// 1000 ns/vns scale), doubling per attempt for six attempts — roughly a
/// two-second wall budget per operation, enough to ride out a peer's
/// kill-restart cycle.
pub fn cluster_policy() -> RetryPolicy {
    RetryPolicy {
        base_timeout: 1 << 15,
        max_attempts: 6,
        jitter: 0.25,
    }
}

/// Supervisor knobs.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Path of the `dqma-node` binary (see [`locate_bin`]).
    pub node_bin: PathBuf,
    /// Retry policy installed fleet-wide.
    pub policy: RetryPolicy,
    /// Wall nanoseconds per virtual nanosecond on the data transports.
    pub nanos_per_vns: u64,
    /// Max trials per `run` batch (smaller batches = finer churn grain).
    pub batch: u64,
    /// How long the supervisor waits for a batch's reports before
    /// declaring the silent nodes dead. This is the *outer* safety net;
    /// the per-batch deadline below normally fires first.
    pub collect_timeout: Duration,
    /// How long a spawned process gets to report `hello`.
    pub hello_timeout: Duration,
    /// Hard wall-clock deadline for collecting one batch. `None` sizes it
    /// automatically from the retry policy: `batch × virtual_budget ×
    /// nanos_per_vns` (the worst case where every trial exhausts its full
    /// retry budget), clamped to `[2 s, collect_timeout]`. A node that is
    /// hung or livelocked — alive at the process level but no longer
    /// reporting — folds to [`netsim::RoundOutcome::Aborted`] trials within
    /// this deadline instead of stalling the whole fleet for
    /// `collect_timeout`.
    pub batch_deadline: Option<Duration>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            node_bin: locate_bin("dqma-node", "DQMA_NODE_BIN")
                .unwrap_or_else(|| PathBuf::from("dqma-node")),
            policy: cluster_policy(),
            nanos_per_vns: 1_000,
            batch: 2_048,
            collect_timeout: Duration::from_secs(60),
            hello_timeout: Duration::from_secs(20),
            batch_deadline: None,
        }
    }
}

impl ClusterConfig {
    /// The effective per-batch collection deadline (see
    /// [`ClusterConfig::batch_deadline`]).
    pub fn effective_batch_deadline(&self) -> Duration {
        if let Some(d) = self.batch_deadline {
            return d;
        }
        let per_trial_ns = (self.policy.virtual_budget() as u128)
            .saturating_mul(self.nanos_per_vns.max(1) as u128);
        let worst_ns = per_trial_ns.saturating_mul(self.batch.max(1) as u128);
        let auto = Duration::from_nanos(worst_ns.min(u64::MAX as u128) as u64);
        auto.clamp(Duration::from_secs(2), self.collect_timeout)
    }
}

/// Locates one of the workspace binaries (`dqma-node`, `dqma-server`): the
/// path in environment variable `env_var` if set, else a sibling of the
/// current executable named `name` (walking up through cargo's
/// `target/<profile>/deps` layout).
pub fn locate_bin(name: &str, env_var: &str) -> Option<PathBuf> {
    if let Ok(p) = std::env::var(env_var) {
        return Some(PathBuf::from(p));
    }
    let exe = std::env::current_exe().ok()?;
    let name = format!("{name}{}", std::env::consts::EXE_SUFFIX);
    for dir in exe.ancestors().skip(1) {
        let cand = dir.join(&name);
        if cand.is_file() {
            return Some(cand);
        }
    }
    None
}

enum NodeMsg {
    Hello {
        addr: SocketAddr,
        ctl: TcpStream,
    },
    Batch {
        block: u64,
        first: u64,
        report: BatchReport,
    },
    Dead,
}

/// Serves one node's control connection: forwards its hello and its batch
/// reports (one `res` line each, parsed by [`parse_report`] into per-trial
/// vectors) to the supervisor loop, then a final `Dead` on disconnect or on
/// a malformed report line.
fn serve_conn(stream: TcpStream, tx: Sender<(NodeId, NodeMsg)>) {
    stream.set_nodelay(true).ok();
    let writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut lines = BufReader::new(stream).lines();
    let hello = match lines.next() {
        Some(Ok(l)) => l,
        _ => return,
    };
    let mut tok = Tokens::new(&hello);
    let node = match (tok.next_str(), tok.u64(), tok.expect()) {
        (Some("hello"), Ok(node), Ok(addr)) => match addr.parse::<SocketAddr>() {
            Ok(addr) => {
                let node = node as NodeId;
                if tx
                    .send((node, NodeMsg::Hello { addr, ctl: writer }))
                    .is_err()
                {
                    return;
                }
                node
            }
            Err(_) => return,
        },
        _ => return,
    };
    loop {
        let Some(Ok(line)) = lines.next() else {
            let _ = tx.send((node, NodeMsg::Dead));
            return;
        };
        if Tokens::new(&line).next_str() != Some("res") {
            continue;
        }
        let Ok((block, first, report)) = parse_report(&line) else {
            let _ = tx.send((node, NodeMsg::Dead));
            return;
        };
        if tx
            .send((
                node,
                NodeMsg::Batch {
                    block,
                    first,
                    report,
                },
            ))
            .is_err()
        {
            return;
        }
    }
}

#[derive(Default)]
struct Slot {
    child: Option<Child>,
    ctl: Option<TcpStream>,
    addr: Option<SocketAddr>,
    alive: bool,
}

/// Aggregate result of a supervised run.
#[derive(Clone, Debug)]
pub struct ClusterReport {
    /// Trials driven.
    pub trials: u64,
    /// Fleet-wide outcome tallies; on the fault-free path bit-identical
    /// to [`crate::net::sample_transport_rounds`] with a quiet plan.
    pub outcomes: BlockOutcomes,
    /// Processes restarted (kill-restart churn plus unexpected deaths).
    pub restarts: u64,
    /// Fleet-wide program swaps ([`ChurnEvent::Reprogram`]).
    pub reprograms: u64,
    /// Wall time spent between detecting a death and the replacement's
    /// `hello` (recovery cost, summed over restarts).
    pub restart_wall: Duration,
    /// Wall time of the whole run.
    pub elapsed: Duration,
}

/// A supervised fleet of `dqma-node` processes.
///
/// `launch` spawns one process per protocol node and completes the
/// hello/peers/program handshake; [`Cluster::run`] then drives trials in
/// batches, applying a [`ChurnSchedule`] at batch boundaries. Nodes that
/// die mid-batch (detected by control-connection EOF) cost their batch's
/// unreported trials — folded as **aborts**, never rejections — and are
/// respawned, re-handshaken and resumed before the next batch.
pub struct Cluster {
    cfg: ClusterConfig,
    spec: ProgramSpec,
    num_nodes: usize,
    ctl_addr: SocketAddr,
    rx: Receiver<(NodeId, NodeMsg)>,
    slots: Vec<Slot>,
    departed: HashSet<NodeId>,
    /// First TCP epoch the next [`Cluster::run`] may use; strictly grows
    /// so epochs never repeat across runs (a reused epoch would collide
    /// with a previous run's dedup and reorder buffers).
    next_epoch_base: u64,
    restarts: u64,
    reprograms: u64,
    restart_wall: Duration,
}

impl Cluster {
    /// Spawns and handshakes the fleet. Returns an error when the control
    /// listener cannot bind (callers treat that as a graceful skip on
    /// loopback-less machines) or any process fails to report in.
    pub fn launch(spec: ProgramSpec, cfg: ClusterConfig) -> io::Result<Cluster> {
        let num_nodes = spec.program().num_nodes();
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let ctl_addr = listener.local_addr()?;
        let (tx, rx) = mpsc::channel();
        thread::spawn(move || {
            for conn in listener.incoming() {
                match conn {
                    Ok(stream) => {
                        let tx = tx.clone();
                        thread::spawn(move || serve_conn(stream, tx));
                    }
                    Err(_) => return,
                }
            }
        });
        let mut cluster = Cluster {
            cfg,
            spec,
            num_nodes,
            ctl_addr,
            rx,
            slots: (0..num_nodes).map(|_| Slot::default()).collect(),
            departed: HashSet::new(),
            next_epoch_base: 0,
            restarts: 0,
            reprograms: 0,
            restart_wall: Duration::ZERO,
        };
        for v in 0..num_nodes {
            cluster.spawn_process(v)?;
        }
        cluster.await_hellos(&(0..num_nodes).collect::<HashSet<_>>())?;
        cluster.broadcast_peers();
        cluster.broadcast_program();
        Ok(cluster)
    }

    fn spawn_process(&mut self, node: NodeId) -> io::Result<()> {
        let node_cfg = NodeConfig {
            ctl_addr: self.ctl_addr.to_string(),
            node,
            num_nodes: self.num_nodes,
            nanos_per_vns: self.cfg.nanos_per_vns,
            policy: self.cfg.policy.clone(),
        };
        let child = Command::new(&self.cfg.node_bin)
            .args(node_cfg.to_args())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()?;
        let slot = &mut self.slots[node];
        slot.child = Some(child);
        slot.alive = false;
        Ok(())
    }

    fn await_hellos(&mut self, wanted: &HashSet<NodeId>) -> io::Result<()> {
        let mut missing = wanted.clone();
        let deadline = Instant::now() + self.cfg.hello_timeout;
        while !missing.is_empty() {
            let left = deadline.saturating_duration_since(Instant::now());
            let (node, msg) = self
                .rx
                .recv_timeout(left)
                .map_err(|_| other(format!("nodes {missing:?} failed to report hello in time")))?;
            match msg {
                NodeMsg::Hello { addr, ctl } if node < self.num_nodes => {
                    let slot = &mut self.slots[node];
                    slot.addr = Some(addr);
                    slot.ctl = Some(ctl);
                    slot.alive = true;
                    missing.remove(&node);
                }
                NodeMsg::Dead if missing.contains(&node) => {
                    return Err(other(format!("node {node} died before hello")));
                }
                _ => {}
            }
        }
        Ok(())
    }

    fn send_line(&mut self, node: NodeId, line: &str) {
        let ok = match self.slots[node].ctl.as_mut() {
            Some(w) => writeln!(w, "{line}").and_then(|()| w.flush()).is_ok(),
            None => false,
        };
        if !ok {
            // The death will also surface via the reader thread; dropping
            // the writer here just stops further sends.
            self.slots[node].ctl = None;
        }
    }

    fn broadcast(&mut self, line: &str) {
        for v in 0..self.num_nodes {
            if self.slots[v].alive {
                self.send_line(v, line);
            }
        }
    }

    fn peers_line(&self) -> String {
        let mut line = format!("peers {}", self.num_nodes);
        for slot in &self.slots {
            match (slot.alive, slot.addr) {
                (true, Some(addr)) => line.push_str(&format!(" {addr}")),
                _ => line.push_str(" -"),
            }
        }
        line
    }

    fn broadcast_peers(&mut self) {
        let line = self.peers_line();
        self.broadcast(&line);
    }

    fn broadcast_program(&mut self) {
        let line = format!("program {}", self.spec.encode());
        self.broadcast(&line);
    }

    /// Fault-injection hook: makes `node` stop responding to control
    /// lines for `dur` without killing its process — the hung-node shape
    /// (as opposed to a crash, which the reader thread reports as a dead
    /// control connection). The batch-deadline regression test drives this;
    /// production code has no reason to call it.
    pub fn inject_stall(&mut self, node: NodeId, dur: Duration) {
        self.send_line(node, &format!("stall {}", dur.as_millis()));
    }

    /// Kills `node`'s process (churn or shutdown). The reader thread
    /// reports the death like any other crash.
    fn kill_process(&mut self, node: NodeId) {
        let slot = &mut self.slots[node];
        if let Some(child) = slot.child.as_mut() {
            let _ = child.kill();
        }
        if let Some(mut child) = slot.child.take() {
            let _ = child.wait();
        }
    }

    /// Respawns `node` and reintegrates it: hello, program, fresh peer
    /// table fleet-wide.
    fn restart_process(&mut self, node: NodeId) -> io::Result<()> {
        let began = Instant::now();
        self.spawn_process(node)?;
        self.await_hellos(&HashSet::from([node]))?;
        let line = format!("program {}", self.spec.encode());
        self.send_line(node, &line);
        self.broadcast_peers();
        self.restarts += 1;
        self.restart_wall += began.elapsed();
        Ok(())
    }

    fn reprogram(&mut self, spec: ProgramSpec) {
        assert_eq!(
            spec.program().num_nodes(),
            self.num_nodes,
            "reprogram must keep the fleet size"
        );
        self.spec = spec;
        self.broadcast_program();
        self.reprograms += 1;
    }

    /// Drives `n` trials from `seed` under `churn`, batching per
    /// [`ClusterConfig::batch`] and slicing batches at churn boundaries.
    ///
    /// Every trial terminates with an outcome: trials a dead or departed
    /// node should have served fold as aborts (the honest-case contract —
    /// infrastructure faults must never masquerade as rejections).
    pub fn run(&mut self, n: u64, seed: u64, churn: &ChurnSchedule) -> io::Result<ClusterReport> {
        let start = Instant::now();
        let restarts0 = self.restarts;
        let reprograms0 = self.reprograms;
        let restart_wall0 = self.restart_wall;
        let mut outcomes = BlockOutcomes::default();
        let mut events: VecDeque<ChurnEvent> = churn.events().iter().cloned().collect();
        let nblocks = n.div_ceil(BLOCK_TRIALS);
        let base = self.next_epoch_base;
        self.next_epoch_base = base + nblocks * BLOCK_TRIALS + 1;
        for b in 0..nblocks {
            let len = block_len(n, nblocks, b);
            let stream = BlockRng::new(seed, b);
            let mut first = 0u64;
            while first < len {
                let g0 = b * BLOCK_TRIALS + first;
                // Apply events due at this boundary; collect kills so the
                // victims die *after* the batch goes out.
                let mut kills: Vec<(NodeId, Duration)> = Vec::new();
                while events.front().is_some_and(|e| e.at_trial() <= g0) {
                    match events.pop_front().expect("front checked") {
                        ChurnEvent::Kill {
                            node,
                            restart_delay,
                            ..
                        } => kills.push((node, restart_delay)),
                        ChurnEvent::Leave { node, .. } => {
                            self.departed.insert(node);
                            kills.push((node, Duration::ZERO));
                        }
                        ChurnEvent::Join { node, .. } => {
                            if self.departed.remove(&node) && !self.slots[node].alive {
                                self.restart_process(node)?;
                            }
                        }
                        ChurnEvent::Reprogram { spec, .. } => self.reprogram(spec),
                    }
                }
                let mut count = (len - first).min(self.cfg.batch);
                if let Some(next_at) = events.front().map(ChurnEvent::at_trial) {
                    count = count.min(next_at - g0);
                }
                let line = format!("run {seed} {b} {first} {count} {base}");
                let targets: Vec<NodeId> = (0..self.num_nodes)
                    .filter(|&v| self.slots[v].alive)
                    .collect();
                for &v in &targets {
                    self.send_line(v, &line);
                }
                // Mid-workload churn: the batch is in flight, now pull the
                // plug on the victims.
                for &(v, _) in &kills {
                    self.kill_process(v);
                }
                let got = self.collect_batch(&targets, b, first)?;
                self.fold_batch(&mut outcomes, &stream, first, count, &got);
                // Recover the dead (except deliberate departures) before
                // the next batch.
                let dead: Vec<NodeId> = (0..self.num_nodes)
                    .filter(|&v| !self.slots[v].alive && !self.departed.contains(&v))
                    .collect();
                for v in dead {
                    let delay = kills
                        .iter()
                        .find(|&&(k, _)| k == v)
                        .map(|&(_, d)| d)
                        .unwrap_or(Duration::ZERO);
                    thread::sleep(delay);
                    self.restart_process(v)?;
                }
                first += count;
            }
        }
        Ok(ClusterReport {
            trials: n,
            outcomes,
            restarts: self.restarts - restarts0,
            reprograms: self.reprograms - reprograms0,
            restart_wall: self.restart_wall - restart_wall0,
            elapsed: start.elapsed(),
        })
    }

    /// Gathers one batch's reports from `targets`. A node that dies
    /// mid-batch is removed from the wait set and the survivors get an
    /// immediate `abandon`, so they stop burning retry budget on a peer
    /// that cannot answer; their partial reports still count.
    fn collect_batch(
        &mut self,
        targets: &[NodeId],
        block: u64,
        first: u64,
    ) -> io::Result<Vec<Option<BatchReport>>> {
        let mut got: Vec<Option<BatchReport>> = vec![None; self.num_nodes];
        let mut waiting: HashSet<NodeId> = targets.iter().copied().collect();
        let deadline = Instant::now() + self.cfg.effective_batch_deadline();
        while !waiting.is_empty() {
            let left = deadline.saturating_duration_since(Instant::now());
            match self.rx.recv_timeout(left) {
                Ok((
                    node,
                    NodeMsg::Batch {
                        block: rb,
                        first: rf,
                        report,
                    },
                )) if rb == block && rf == first => {
                    if let Some(slot) = got.get_mut(node) {
                        *slot = Some(report);
                    }
                    waiting.remove(&node);
                }
                // A stale partial report from an abandoned earlier batch.
                Ok((_, NodeMsg::Batch { .. })) => {}
                Ok((node, NodeMsg::Dead)) => {
                    if self.slots[node].alive {
                        self.slots[node].alive = false;
                        self.slots[node].ctl = None;
                        if let Some(mut child) = self.slots[node].child.take() {
                            let _ = child.wait();
                        }
                    }
                    if waiting.remove(&node) {
                        for &v in targets {
                            if waiting.contains(&v) {
                                self.send_line(v, "abandon");
                            }
                        }
                    }
                }
                Ok((_, NodeMsg::Hello { .. })) => {}
                Err(RecvTimeoutError::Timeout) => {
                    // Non-reporters are stuck or dead: treat as dead so
                    // the run degrades instead of hanging.
                    let stuck: Vec<NodeId> = waiting.drain().collect();
                    for &v in &stuck {
                        self.slots[v].alive = false;
                        self.slots[v].ctl = None;
                        self.kill_process(v);
                    }
                    // Consume the reader threads' Dead notifications for
                    // the processes just killed — left queued, they would
                    // be mistaken for a fresh death during the upcoming
                    // restart handshake.
                    let mut pending: HashSet<NodeId> = stuck.into_iter().collect();
                    let grace = Instant::now() + Duration::from_secs(5);
                    while !pending.is_empty() && Instant::now() < grace {
                        match self.rx.recv_timeout(Duration::from_millis(100)) {
                            Ok((node, NodeMsg::Dead)) => {
                                pending.remove(&node);
                            }
                            Ok(_) => {}
                            Err(RecvTimeoutError::Timeout) => {}
                            Err(RecvTimeoutError::Disconnected) => break,
                        }
                    }
                }
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(other("control listener thread died"));
                }
            }
        }
        Ok(got)
    }

    /// Folds one batch into the tallies, mirroring the sequential
    /// sampler's fold exactly: per trial, XOR the per-node digests, add
    /// the salt, `mix`, XOR into the running digest; any fault or missing
    /// report aborts the trial, otherwise unanimity accepts. `got` holds
    /// each node's report, indexed by node and then by trial offset.
    fn fold_batch(
        &self,
        outcomes: &mut BlockOutcomes,
        stream: &BlockRng,
        first: u64,
        count: u64,
        got: &[Option<BatchReport>],
    ) {
        for report in got.iter().flatten() {
            outcomes.messages += report.sent;
            outcomes.retries += report.retries;
        }
        for (i, t) in (first..first + count).enumerate() {
            let salt = stream.trial(t).salt();
            let mut digest = 0u64;
            let mut fault = false;
            let mut reject = false;
            let mut missing = false;
            for report in got {
                match report.as_ref().filter(|r| i < r.codes.len()) {
                    Some(r) => {
                        digest ^= r.digests[i];
                        match r.codes[i] {
                            TrialCode::Accept => {}
                            TrialCode::Reject => reject = true,
                            TrialCode::Fault => fault = true,
                        }
                    }
                    None => missing = true,
                }
            }
            if fault || missing {
                outcomes.aborts += 1;
            } else if reject {
                outcomes.rejects += 1;
            } else {
                outcomes.accepts += 1;
            }
            outcomes.digest ^= mix(digest.wrapping_add(salt));
        }
    }

    /// Orderly shutdown: `quit` fleet-wide, then reap (escalating to
    /// kill for processes that ignore the request).
    pub fn shutdown(&mut self) {
        for v in 0..self.num_nodes {
            if self.slots[v].ctl.is_some() {
                self.send_line(v, "quit");
            }
        }
        let deadline = Instant::now() + Duration::from_secs(2);
        for slot in &mut self.slots {
            if let Some(mut child) = slot.child.take() {
                loop {
                    match child.try_wait() {
                        Ok(Some(_)) => break,
                        Ok(None) if Instant::now() < deadline => {
                            thread::sleep(Duration::from_millis(10));
                        }
                        _ => {
                            let _ = child.kill();
                            let _ = child.wait();
                            break;
                        }
                    }
                }
            }
            slot.alive = false;
            slot.ctl = None;
        }
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::ChainCheat;
    use crate::eq_path::EqPathProtocol;
    use crate::eq_tree::EqTreeProtocol;
    use crate::net::run_round;
    use crate::relay::RelayEqProtocol;
    use commproto::bitstring::BitString;
    use commproto::fingerprint::FingerprintScheme;
    use netsim::topology::{spider, spider_leaf};
    use netsim::{FaultPlan, FaultyTransport, LocalChannelTransport, RoundOutcome, Transport};
    use rand::RngCore;

    fn chain_program(equal: bool) -> ChainNetProgram {
        let protocol = EqPathProtocol::with_scheme(4, FingerprintScheme::small(6, 7), 8);
        let x = BitString::from_u64(0b101010, 6);
        let y = if equal {
            x.clone()
        } else {
            BitString::from_u64(0b010110, 6)
        };
        protocol.net_program(&x, &y, ChainCheat::Interpolate)
    }

    fn relay_program() -> RelayNetProgram {
        let protocol = RelayEqProtocol::new(8, 9, 3);
        let x = BitString::from_u64(0b1011_0010, 8);
        let strings: Vec<BitString> = protocol.relay_points().iter().map(|_| x.clone()).collect();
        protocol.net_program(&x, &x, &strings, ChainCheat::Interpolate)
    }

    fn tree_program() -> TreeNetProgram {
        let graph = spider(3, 2);
        let terminals: Vec<usize> = (0..3).map(|k| spider_leaf(k, 2)).collect();
        let protocol =
            EqTreeProtocol::with_scheme(&graph, &terminals, FingerprintScheme::small(4, 7), 2);
        let x = BitString::from_u64(0b1010, 4);
        let inputs = vec![x.clone(); terminals.len()];
        let proof = protocol.uniform_proof(&inputs[0]);
        protocol.net_program(&inputs, &proof)
    }

    #[test]
    fn chain_spec_roundtrips_bit_exactly() {
        let program = chain_program(false);
        let spec = ProgramSpec::from_chain(&program);
        let wire = spec.encode();
        let decoded = ProgramSpec::decode(&wire).expect("decode");
        assert_eq!(decoded.encode(), wire, "re-encode must be stable");
        let back = decoded.program();
        assert_eq!(back.num_nodes(), program.num_nodes());
        assert_eq!(back.schedule(), program.schedule());
        let AnyProgram::Chain(back) = back else {
            panic!("chain spec must decode to a chain program");
        };
        assert_eq!(back.plan.tables(), program.plan.tables());
    }

    #[test]
    fn relay_spec_roundtrips_bit_exactly() {
        let program = relay_program();
        let spec = ProgramSpec::from_relay(&program);
        let wire = spec.encode();
        let decoded = ProgramSpec::decode(&wire).expect("decode");
        assert_eq!(decoded.encode(), wire);
        let back = decoded.program();
        assert_eq!(back.num_nodes(), program.num_nodes());
        let AnyProgram::Relay(back) = back else {
            panic!("relay spec must decode to a relay program");
        };
        assert_eq!(back.boundaries(), program.boundaries());
        for (a, b) in back.segments.iter().zip(program.segments.iter()) {
            assert_eq!(a.tables(), b.tables());
        }
    }

    #[test]
    fn tree_spec_roundtrips_bit_exactly() {
        let program = tree_program();
        let spec = ProgramSpec::from_tree(&program);
        let wire = spec.encode();
        let decoded = ProgramSpec::decode(&wire).expect("decode");
        assert_eq!(decoded.encode(), wire);
        let back = decoded.program();
        assert_eq!(back.num_nodes(), program.num_nodes());
        assert_eq!(back.schedule(), program.schedule());
        // Spot-check decisions: run both programs over a fault-free
        // transport under the same trial coordinates.
        let mut transport = LocalChannelTransport::poll(program.num_nodes());
        let policy = RetryPolicy::default();
        let stream = BlockRng::new(0x7EE, 0);
        for t in 0..32u64 {
            let (o1, s1) = run_round(&program, &mut transport, &policy, stream.trial(t));
            let (o2, s2) = run_round(back, &mut transport, &policy, stream.trial(t));
            assert_eq!(format!("{o1:?}"), format!("{o2:?}"));
            assert_eq!(s1.digest, s2.digest);
        }
    }

    /// Outcome kind of a round, without the fault report's details.
    fn kind(outcome: &RoundOutcome) -> &'static str {
        match outcome {
            RoundOutcome::Accept => "accept",
            RoundOutcome::Reject => "reject",
            RoundOutcome::Aborted(_) => "abort",
        }
    }

    /// The addressing contract the TCP fleet relies on, exercised without
    /// sockets: every node of a trial, run alone through
    /// [`run_single_node`], reproduces [`run_round`]'s outcome kind, message
    /// count and digest for that trial — under faults, with trials visited
    /// in reverse order, so no trial depends on what earlier trials drew.
    #[test]
    fn per_node_replay_matches_run_round_in_any_trial_order_under_faults() {
        let programs = [
            AnyProgram::Chain(chain_program(false)),
            AnyProgram::Relay(relay_program()),
            AnyProgram::Tree(tree_program()),
        ];
        let plan = FaultPlan::with_drop(0.3);
        // With two attempts per message, a 0.3 drop rate exhausts some
        // budgets: both faulted and clean trials occur.
        let policy = RetryPolicy {
            max_attempts: 2,
            ..RetryPolicy::default()
        };
        let stream = BlockRng::new(0xD15C0, 3);
        for program in &programs {
            let n = program.num_nodes();
            let mut transport = FaultyTransport::new(LocalChannelTransport::poll(n), plan.clone());
            let trials = 64u64;
            let reference: Vec<_> = (0..trials)
                .map(|t| run_round(program, &mut transport, &policy, stream.trial(t)))
                .collect();
            let aborts = reference.iter().filter(|(o, _)| o.is_aborted()).count();
            assert!(
                aborts > 0 && aborts < trials as usize,
                "need faulted and clean trials, got {aborts} aborts"
            );
            for t in (0..trials).rev() {
                let trial = stream.trial(t);
                transport.begin_trial(trial.salt());
                let (mut fault, mut all_accept, mut sent, mut digest) = (false, true, 0, 0u64);
                for &v in program.schedule() {
                    let (decision, _, stats) =
                        run_single_node(program, v, &mut transport, &policy, trial);
                    match decision {
                        Ok(accept) => all_accept &= accept,
                        Err(_) => fault = true,
                    }
                    sent += stats.sent;
                    digest ^= stats.digest;
                }
                let outcome = match (fault, all_accept) {
                    (true, _) => "abort",
                    (false, true) => "accept",
                    (false, false) => "reject",
                };
                let (ref_outcome, ref_stats) = &reference[t as usize];
                assert_eq!(outcome, kind(ref_outcome), "trial {t}");
                assert_eq!(sent, ref_stats.sent, "trial {t}: message count");
                assert_eq!(digest, ref_stats.digest, "trial {t}: digest");
                assert_ne!(
                    trial.node_rng(1).next_u64(),
                    trial.node_rng(2).next_u64(),
                    "trial {t}: nodes must draw from distinct streams"
                );
            }
        }
    }

    #[test]
    fn batch_report_lines_roundtrip() {
        use TrialCode::{Accept, Fault, Reject};
        let full = BatchReport {
            codes: (0..2048).map(|i| [Accept, Reject, Fault][i % 3]).collect(),
            digests: (0..2048u64).map(mix).collect(),
            sent: 18_432,
            retries: 5,
        };
        let partial = BatchReport {
            codes: vec![Accept, Fault, Accept, Reject],
            digests: vec![0, u64::MAX, 0x0123_4567_89ab_cdef, 1 << 63],
            sent: 36,
            retries: 0,
        };
        let empty = BatchReport::default();
        for (block, first, report) in [(0, 0, full), (7, 4096, partial), (u64::MAX, 12, empty)] {
            let line = format_report(block, first, &report);
            assert_eq!(parse_report(&line), Ok((block, first, report)), "{line}");
        }
    }

    #[test]
    fn malformed_batch_report_lines_are_errors() {
        let good = format_report(
            1,
            2,
            &BatchReport {
                codes: vec![TrialCode::Accept, TrialCode::Fault],
                digests: vec![0xab, 0xcd],
                sent: 4,
                retries: 1,
            },
        );
        let d = "00000000000000ab00000000000000cd";
        assert_eq!(good, format!("res 1 2 2 4 1 af {d}"));
        assert!(parse_report(&good).is_ok());
        let cases = [
            ("more trials than codes", format!("res 1 2 3 4 1 af {d}")),
            ("a short digest", format!("res 1 2 2 4 1 af {}", &d[1..])),
            ("a long digest", format!("res 1 2 2 4 1 af {d}0")),
            ("no trials under done = 2", "res 1 2 2 4 1 - -".to_string()),
            ("unknown code byte", format!("res 1 2 2 4 1 ax {d}")),
            ("non-hex digit", format!("res 1 2 2 4 1 af {}g", &d[1..])),
            ("signed digest", format!("res 1 2 2 4 1 af +{}", &d[1..])),
            ("missing digests", "res 1 2 2 4 1 af".to_string()),
            ("missing retries", format!("res 1 2 2 4 af {d}")),
            ("trailing token", format!("{good} x")),
            ("bad count", format!("res 1 2 two 4 1 af {d}")),
            ("not a report", format!("rez 1 2 2 4 1 af {d}")),
        ];
        for (name, line) in cases {
            assert!(parse_report(&line).is_err(), "{name}: {line}");
        }
    }

    #[test]
    fn node_config_argv_roundtrips() {
        let cfg = NodeConfig {
            ctl_addr: "127.0.0.1:9999".into(),
            node: 7,
            num_nodes: 12,
            nanos_per_vns: 250,
            policy: RetryPolicy {
                base_timeout: 1 << 13,
                max_attempts: 9,
                jitter: 0.125,
            },
        };
        let back = NodeConfig::from_args(&cfg.to_args()).expect("parse");
        assert_eq!(back.ctl_addr, cfg.ctl_addr);
        assert_eq!(back.node, cfg.node);
        assert_eq!(back.num_nodes, cfg.num_nodes);
        assert_eq!(back.nanos_per_vns, cfg.nanos_per_vns);
        assert_eq!(back.policy.base_timeout, cfg.policy.base_timeout);
        assert_eq!(back.policy.max_attempts, cfg.policy.max_attempts);
        assert_eq!(back.policy.jitter.to_bits(), cfg.policy.jitter.to_bits());
    }

    #[test]
    fn seeded_churn_schedule_is_deterministic_and_bounded() {
        let nodes = [1, 2, 3];
        let a = ChurnSchedule::seeded_kills(42, 1000, &nodes, 8, Duration::from_millis(50));
        let b = ChurnSchedule::seeded_kills(42, 1000, &nodes, 8, Duration::from_millis(50));
        assert_eq!(a.events().len(), 8);
        for (x, y) in a.events().iter().zip(b.events().iter()) {
            let (
                ChurnEvent::Kill {
                    at_trial: ta,
                    node: na,
                    restart_delay: da,
                },
                ChurnEvent::Kill {
                    at_trial: tb,
                    node: nb,
                    restart_delay: db,
                },
            ) = (x, y)
            else {
                panic!("seeded_kills must emit kill events");
            };
            assert_eq!((ta, na, da), (tb, nb, db));
            assert!((1..1000).contains(ta), "offset in [1, trials)");
            assert!(nodes.contains(na));
            assert!(*da <= Duration::from_millis(50));
        }
        let c = ChurnSchedule::seeded_kills(43, 1000, &nodes, 8, Duration::from_millis(50));
        assert_ne!(
            a.events()
                .iter()
                .map(ChurnEvent::at_trial)
                .collect::<Vec<_>>(),
            c.events()
                .iter()
                .map(ChurnEvent::at_trial)
                .collect::<Vec<_>>(),
            "different seeds must give different schedules"
        );
    }
}
