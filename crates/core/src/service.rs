//! The dQMA verification *service* — one facade over instance construction
//! and trial sampling, shared by the `dqma-server` daemon, the `dqma-cli`
//! client, and the load/chaos benches.
//!
//! The compute layers below ([`crate::trials`], the compiled round plans,
//! the TCP fleet) answer "how fast can we sample"; this module answers "how
//! do we *serve* that safely". Its design center is overload robustness —
//! the serving-layer extension of the paper's soundness story (dQMA stays
//! sound under arbitrary message behaviour, so the daemon in front of it
//! must degrade to explicit errors and partial reports, never silent
//! rejects or hangs):
//!
//! * **Bounded admission** — [`Service::submit`] holds a fixed-capacity
//!   queue; a full queue sheds with [`SubmitError::Overloaded`] instead of
//!   growing without bound. Queue memory is `O(queue_capacity)` always.
//! * **Deadlines → partial reports** — each job may carry a deadline,
//!   measured from *submission* (queue wait counts). The engine
//!   ([`crate::trials::run_trials_observed`]) checks it at 8192-trial block
//!   boundaries and an expired job returns a *partial* [`JobReport`] with
//!   its Wilson interval over the trials actually sampled, freeing the
//!   worker for the next job.
//! * **Crash-safe jobs** — with a journal configured, admitted jobs and
//!   completed full blocks are appended to an append-only line journal.
//!   [`Service::start`] replays it: finished jobs stay queryable, unfinished
//!   jobs re-enqueue, and journaled blocks seed the block memo so resumed
//!   work is **bit-identical** to an uninterrupted run (the block
//!   determinism contract: a block's accept count is a pure function of
//!   `(instance, seed, block)`). Every start appends a `hdr` line naming
//!   [`crate::trials::BLOCK_CONTRACT`]; a journaled block count is replayed
//!   only under a header of the current contract, and is otherwise counted
//!   in [`StatsSnapshot::refused_blocks`] and resampled.
//! * **Bounded job table** — the service keeps the most recent 4096
//!   finished jobs (evicted oldest first, in completion order, also on
//!   replay); a status query for an older id is an unknown job. Queued and
//!   running jobs are never evicted, and the counters stay exact.
//! * **Shared trial blocks** — concurrent or repeated requests for the same
//!   `(instance, seed)` are merged at block granularity through an
//!   in-memory memo (bounded, FIFO-evicted): a block sampled for one job is
//!   reused by every other job that needs it, attributably, because the
//!   count is deterministic. Compiled round plans are likewise cached and
//!   shared per instance key.
//! * **Panic containment** — a worker panic (including the chaos-injected
//!   ones the battery uses) fails only that job, with
//!   [`JobStatus::Failed`]; the worker thread survives and serves the next
//!   job.
//!
//! [`http`] holds the minimal hand-rolled HTTP/1.1 layer (std-only, offline
//! build — no tokio/hyper), [`route`] maps requests onto a [`Service`], and
//! [`client`] is the blocking client used by the CLI and the benches. The
//! [`json`] submodule is the workspace's dependency-free JSON parser
//! (re-exported by `dqma_bench` for the bench-trajectory tooling).

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fs::{File, OpenOptions};
use std::io::{self, BufRead, BufReader, Read, Seek, SeekFrom, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use commproto::bitstring::BitString;
use commproto::fingerprint::FingerprintScheme;
use netsim::topology;

use crate::chain::{ChainCheat, ChainRoundPlan};
use crate::cluster::Tokens;
use crate::eq_path::EqPathProtocol;
use crate::eq_tree::{EqTreeProtocol, TreeRoundPlan};
use crate::relay::{RelayEqProtocol, RelayRoundPlan};
use crate::trials::{
    run_trials_observed, stats, BatchSampler, BlockRng, BLOCK_CONTRACT, BLOCK_TRIALS,
};

pub mod http;
pub mod json;

// ---------------------------------------------------------------------------
// Instance specs
// ---------------------------------------------------------------------------

/// A named cheating-prover strategy for the path-shaped protocols (see
/// [`ChainCheat`]). With equal inputs every strategy degenerates to the
/// honest proof, so "honest completeness" is just `x == y` plus any cheat.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CheatSpec {
    /// Interpolate fingerprints along the chain (the soundness-saturating
    /// strategy).
    Interpolate,
    /// Send the left fingerprint everywhere.
    AllLeft,
    /// Send the right fingerprint everywhere.
    AllRight,
}

impl CheatSpec {
    fn as_str(self) -> &'static str {
        match self {
            CheatSpec::Interpolate => "interpolate",
            CheatSpec::AllLeft => "all_left",
            CheatSpec::AllRight => "all_right",
        }
    }

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "interpolate" => Ok(CheatSpec::Interpolate),
            "all_left" => Ok(CheatSpec::AllLeft),
            "all_right" => Ok(CheatSpec::AllRight),
            _ => Err(format!("unknown cheat {s:?}")),
        }
    }

    fn to_chain(self) -> ChainCheat {
        match self {
            CheatSpec::Interpolate => ChainCheat::Interpolate,
            CheatSpec::AllLeft => ChainCheat::AllLeft,
            CheatSpec::AllRight => ChainCheat::AllRight,
        }
    }
}

/// A fully-described verification instance: which protocol, on which
/// inputs, against which prover. The spec is the service's unit of
/// identity — [`InstanceSpec::key`] keys the compiled-plan cache and the
/// shared block memo, and [`InstanceSpec::encode`] is the canonical journal
/// form.
///
/// Inputs are `bits`-bit strings carried as integers (`bits ≤ 16`, ample
/// for the fingerprint schemes the small exact simulator can hold); the
/// JSON wire form writes them as `"0101…"` strings.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InstanceSpec {
    /// The improved EQ protocol `Pπ[k]` on a path of length `r` (§3.2).
    EqPath {
        /// Path length (number of intermediate nodes + 1).
        r: usize,
        /// Input width in bits.
        bits: usize,
        /// Left input.
        x: u64,
        /// Right input.
        y: u64,
        /// Fingerprint-scheme seed.
        scheme_seed: u64,
        /// Protocol repetitions (≥ 1).
        reps: usize,
        /// Prover strategy.
        cheat: CheatSpec,
    },
    /// The relay-point protocol on a path of length `r` (§4.1).
    Relay {
        /// Path length.
        r: usize,
        /// Input width in bits.
        bits: usize,
        /// Left input.
        x: u64,
        /// Right input.
        y: u64,
        /// Protocol seed (fingerprint scheme + relay spacing).
        seed: u64,
        /// Prover strategy.
        cheat: CheatSpec,
    },
    /// EQ on a spider graph with `arms` legs of `arm_len` edges (§3.3):
    /// every terminal leaf claims `x` except the last, which holds `y`.
    EqTree {
        /// Number of legs (terminals).
        arms: usize,
        /// Edges per leg.
        arm_len: usize,
        /// Input width in bits.
        bits: usize,
        /// Input at all but the last terminal (also the prover's claim).
        x: u64,
        /// Input at the last terminal.
        y: u64,
        /// Fingerprint-scheme seed.
        scheme_seed: u64,
        /// Protocol repetitions (≥ 1).
        reps: usize,
    },
}

/// Admission caps on instance shape, enforced by [`InstanceSpec::validate`]
/// before any compilation: requests outside them are rejected with a
/// structured error at the door, so a hostile spec can never drive the
/// exact simulator into an unbounded allocation.
pub mod limits {
    /// Maximum input width in bits.
    pub const MAX_BITS: usize = 16;
    /// Maximum path length for `eq_path` / `relay`.
    pub const MAX_R: usize = 256;
    /// Maximum repetitions.
    pub const MAX_REPS: usize = 16;
    /// Maximum spider legs.
    pub const MAX_ARMS: usize = 8;
    /// Maximum edges per spider leg.
    pub const MAX_ARM_LEN: usize = 7;
}

impl InstanceSpec {
    /// Checks the spec against the admission caps in [`limits`].
    pub fn validate(&self) -> Result<(), String> {
        let check_bits = |bits: usize, x: u64, y: u64| -> Result<(), String> {
            if bits == 0 || bits > limits::MAX_BITS {
                return Err(format!("bits {bits} outside 1..={}", limits::MAX_BITS));
            }
            let cap = 1u64 << bits;
            if x >= cap || y >= cap {
                return Err(format!("input exceeds {bits} bits"));
            }
            Ok(())
        };
        let check_reps = |reps: usize| -> Result<(), String> {
            if reps == 0 || reps > limits::MAX_REPS {
                return Err(format!("reps {reps} outside 1..={}", limits::MAX_REPS));
            }
            Ok(())
        };
        match *self {
            InstanceSpec::EqPath {
                r,
                bits,
                x,
                y,
                reps,
                ..
            } => {
                if r == 0 || r > limits::MAX_R {
                    return Err(format!("r {r} outside 1..={}", limits::MAX_R));
                }
                check_reps(reps)?;
                check_bits(bits, x, y)
            }
            InstanceSpec::Relay { r, bits, x, y, .. } => {
                if !(3..=limits::MAX_R).contains(&r) {
                    return Err(format!("r {r} outside 3..={}", limits::MAX_R));
                }
                check_bits(bits, x, y)
            }
            InstanceSpec::EqTree {
                arms,
                arm_len,
                bits,
                x,
                y,
                reps,
                ..
            } => {
                if !(2..=limits::MAX_ARMS).contains(&arms) {
                    return Err(format!("arms {arms} outside 2..={}", limits::MAX_ARMS));
                }
                if arm_len == 0 || arm_len > limits::MAX_ARM_LEN {
                    return Err(format!(
                        "arm_len {arm_len} outside 1..={}",
                        limits::MAX_ARM_LEN
                    ));
                }
                check_reps(reps)?;
                check_bits(bits, x, y)
            }
        }
    }

    /// Serialises the spec to its single-line token form (the journal and
    /// canonical-identity encoding). Inverse of [`InstanceSpec::decode`].
    pub fn encode(&self) -> String {
        match *self {
            InstanceSpec::EqPath {
                r,
                bits,
                x,
                y,
                scheme_seed,
                reps,
                cheat,
            } => format!(
                "eq_path {r} {bits} {x:x} {y:x} {scheme_seed} {reps} {}",
                cheat.as_str()
            ),
            InstanceSpec::Relay {
                r,
                bits,
                x,
                y,
                seed,
                cheat,
            } => format!("relay {r} {bits} {x:x} {y:x} {seed} {}", cheat.as_str()),
            InstanceSpec::EqTree {
                arms,
                arm_len,
                bits,
                x,
                y,
                scheme_seed,
                reps,
            } => format!("eq_tree {arms} {arm_len} {bits} {x:x} {y:x} {scheme_seed} {reps}"),
        }
    }

    /// Parses the token form produced by [`InstanceSpec::encode`]. Every
    /// malformed input yields a structured error, never a panic.
    pub fn decode(line: &str) -> Result<InstanceSpec, String> {
        let mut tok = Tokens::new(line);
        let spec = Self::decode_tokens(&mut tok)?;
        if tok.next_str().is_some() {
            return Err("trailing tokens after instance spec".to_string());
        }
        Ok(spec)
    }

    pub(crate) fn decode_tokens(tok: &mut Tokens<'_>) -> Result<InstanceSpec, String> {
        let spec = match tok.expect()? {
            "eq_path" => InstanceSpec::EqPath {
                r: tok.usize()?,
                bits: tok.usize()?,
                x: tok.hex_u64()?,
                y: tok.hex_u64()?,
                scheme_seed: tok.u64()?,
                reps: tok.usize()?,
                cheat: CheatSpec::from_str(tok.expect()?)?,
            },
            "relay" => InstanceSpec::Relay {
                r: tok.usize()?,
                bits: tok.usize()?,
                x: tok.hex_u64()?,
                y: tok.hex_u64()?,
                seed: tok.u64()?,
                cheat: CheatSpec::from_str(tok.expect()?)?,
            },
            "eq_tree" => InstanceSpec::EqTree {
                arms: tok.usize()?,
                arm_len: tok.usize()?,
                bits: tok.usize()?,
                x: tok.hex_u64()?,
                y: tok.hex_u64()?,
                scheme_seed: tok.u64()?,
                reps: tok.usize()?,
            },
            t => return Err(format!("unknown protocol {t:?}")),
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Builds the spec from its JSON wire form (the `"instance"` object of
    /// a submit request; see [`InstanceSpec::to_json`]).
    pub fn from_json(v: &json::Parsed) -> Result<InstanceSpec, String> {
        let proto = v
            .get("protocol")
            .and_then(json::Parsed::as_str)
            .ok_or("missing \"protocol\"")?;
        let bits = get_u64(v, "bits")? as usize;
        let input = |key: &str| -> Result<u64, String> {
            let s = v
                .get(key)
                .and_then(json::Parsed::as_str)
                .ok_or_else(|| format!("missing input {key:?} (a \"01…\" string)"))?;
            if s.is_empty() || s.len() != bits {
                return Err(format!(
                    "input {key:?} must be exactly {bits} binary digits"
                ));
            }
            u64::from_str_radix(s, 2).map_err(|_| format!("input {key:?} is not binary"))
        };
        let (x, y) = (input("x")?, input("y")?);
        let cheat = match v.get("cheat").and_then(json::Parsed::as_str) {
            Some(s) => CheatSpec::from_str(s)?,
            None => CheatSpec::Interpolate,
        };
        let scheme_seed = opt_u64(v, "scheme_seed")?.unwrap_or(7);
        let reps = opt_u64(v, "reps")?.unwrap_or(2) as usize;
        let spec = match proto {
            "eq_path" => InstanceSpec::EqPath {
                r: get_u64(v, "r")? as usize,
                bits,
                x,
                y,
                scheme_seed,
                reps,
                cheat,
            },
            "relay" => InstanceSpec::Relay {
                r: get_u64(v, "r")? as usize,
                bits,
                x,
                y,
                seed: scheme_seed,
                cheat,
            },
            "eq_tree" => InstanceSpec::EqTree {
                arms: get_u64(v, "arms")? as usize,
                arm_len: get_u64(v, "arm_len")? as usize,
                bits,
                x,
                y,
                scheme_seed,
                reps,
            },
            _ => return Err(format!("unknown protocol {proto:?}")),
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Serialises the spec to its JSON wire form. Inverse of
    /// [`InstanceSpec::from_json`].
    pub fn to_json(&self) -> String {
        let bin = |v: u64, bits: usize| format!("{v:0bits$b}");
        match *self {
            InstanceSpec::EqPath {
                r,
                bits,
                x,
                y,
                scheme_seed,
                reps,
                cheat,
            } => format!(
                "{{\"protocol\":\"eq_path\",\"r\":{r},\"bits\":{bits},\"x\":\"{}\",\
                 \"y\":\"{}\",\"scheme_seed\":{scheme_seed},\"reps\":{reps},\"cheat\":\"{}\"}}",
                bin(x, bits),
                bin(y, bits),
                cheat.as_str()
            ),
            InstanceSpec::Relay {
                r,
                bits,
                x,
                y,
                seed,
                cheat,
            } => format!(
                "{{\"protocol\":\"relay\",\"r\":{r},\"bits\":{bits},\"x\":\"{}\",\
                 \"y\":\"{}\",\"scheme_seed\":{seed},\"cheat\":\"{}\"}}",
                bin(x, bits),
                bin(y, bits),
                cheat.as_str()
            ),
            InstanceSpec::EqTree {
                arms,
                arm_len,
                bits,
                x,
                y,
                scheme_seed,
                reps,
            } => format!(
                "{{\"protocol\":\"eq_tree\",\"arms\":{arms},\"arm_len\":{arm_len},\
                 \"bits\":{bits},\"x\":\"{}\",\"y\":\"{}\",\"scheme_seed\":{scheme_seed},\
                 \"reps\":{reps}}}",
                bin(x, bits),
                bin(y, bits)
            ),
        }
    }

    /// The spec's identity hash (FNV-1a over the canonical encoding) —
    /// keys the plan cache, the block memo, and the journal's `blk` lines.
    pub fn key(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in self.encode().bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// Compiles the instance into its shared round plan. Specs that pass
    /// [`InstanceSpec::validate`] always compile.
    pub fn compile(&self) -> CompiledPlan {
        match *self {
            InstanceSpec::EqPath {
                r,
                bits,
                x,
                y,
                scheme_seed,
                reps,
                cheat,
            } => {
                let proto = EqPathProtocol::with_scheme(
                    r,
                    FingerprintScheme::small(bits, scheme_seed),
                    reps,
                );
                let (x, y) = (BitString::from_u64(x, bits), BitString::from_u64(y, bits));
                CompiledPlan::Chain(proto.round_plan(&x, &y, cheat.to_chain()))
            }
            InstanceSpec::Relay {
                r,
                bits,
                x,
                y,
                seed,
                cheat,
            } => {
                let proto = RelayEqProtocol::new(bits, r, seed);
                let (x, y) = (BitString::from_u64(x, bits), BitString::from_u64(y, bits));
                let strings = vec![x.clone(); proto.relay_points().len()];
                CompiledPlan::Relay(proto.round_plan(&x, &y, &strings, cheat.to_chain()))
            }
            InstanceSpec::EqTree {
                arms,
                arm_len,
                bits,
                x,
                y,
                scheme_seed,
                reps,
            } => {
                let g = topology::spider(arms, arm_len);
                let terminals: Vec<usize> = (0..arms)
                    .map(|k| topology::spider_leaf(k, arm_len))
                    .collect();
                let proto = EqTreeProtocol::with_scheme(
                    &g,
                    &terminals,
                    FingerprintScheme::small(bits, scheme_seed),
                    reps,
                );
                let x = BitString::from_u64(x, bits);
                let mut inputs = vec![x.clone(); terminals.len()];
                *inputs.last_mut().expect("arms >= 2") = BitString::from_u64(y, bits);
                let proof = proto.uniform_proof(&x);
                CompiledPlan::Tree(proto.round_plan(&inputs, &proof))
            }
        }
    }
}

fn get_u64(v: &json::Parsed, key: &str) -> Result<u64, String> {
    opt_u64(v, key)?.ok_or_else(|| format!("missing numeric field {key:?}"))
}

/// JSON numbers travel as `f64`, which holds every integer below 2^53 and
/// no longer tells integers apart from there on (2^53 + 1 reads as 2^53).
const JSON_INT_LIMIT: f64 = 9_007_199_254_740_992.0;

fn opt_u64(v: &json::Parsed, key: &str) -> Result<Option<u64>, String> {
    match v.get(key) {
        None | Some(json::Parsed::Null) => Ok(None),
        Some(f) => {
            let x = f
                .as_num()
                .ok_or_else(|| format!("field {key:?} is not a number"))?;
            if x < 0.0 || x.fract() != 0.0 || x >= JSON_INT_LIMIT {
                return Err(format!("field {key:?} is not an integer in [0, 2^53)"));
            }
            Ok(Some(x as u64))
        }
    }
}

/// A compiled, protocol-agnostic round plan — the sampling unit the
/// service caches and shares per [`InstanceSpec::key`].
#[derive(Clone, Debug)]
pub enum CompiledPlan {
    /// A path-protocol plan.
    Chain(ChainRoundPlan),
    /// A relay-protocol plan.
    Relay(RelayRoundPlan),
    /// A tree-protocol plan.
    Tree(TreeRoundPlan),
}

impl BatchSampler for CompiledPlan {
    type Scratch = ();
    fn scratch(&self) {}
    fn sample_block(&self, trials: u64, _s: &mut (), stream: &BlockRng) -> u64 {
        match self {
            CompiledPlan::Chain(p) => p.sample_block(trials, &mut (), stream),
            CompiledPlan::Relay(p) => p.sample_block(trials, &mut (), stream),
            CompiledPlan::Tree(p) => p.sample_block(trials, &mut (), stream),
        }
    }
}

// ---------------------------------------------------------------------------
// Jobs
// ---------------------------------------------------------------------------

/// Job identifier, unique per journal lineage (stable across restarts).
pub type JobId = u64;

/// Chaos-injection directives, honoured only when
/// [`ServiceConfig::allow_chaos`] is set (the battery's fault hooks must
/// never be reachable from ordinary traffic).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChaosSpec {
    /// Panic the worker right after sampling the given block — exercises
    /// panic containment and journal consistency.
    PanicAtBlock(u64),
}

/// One admitted unit of work: an instance, a trial budget, a seed, and an
/// optional deadline.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobSpec {
    /// What to sample.
    pub instance: InstanceSpec,
    /// Requested number of trials.
    pub trials: u64,
    /// Master seed of the block-deterministic RNG streams.
    pub seed: u64,
    /// Deadline in milliseconds from submission; `None` falls back to
    /// [`ServiceConfig::default_deadline_ms`].
    pub deadline_ms: Option<u64>,
    /// Chaos directive (rejected unless the service allows chaos).
    pub chaos: Option<ChaosSpec>,
}

impl JobSpec {
    /// Journal token form: `<seed> <trials> <deadline_ms|-> <panic_block|->
    /// <instance…>`.
    pub fn encode(&self) -> String {
        let dl = self
            .deadline_ms
            .map_or_else(|| "-".to_string(), |d| d.to_string());
        let chaos = match self.chaos {
            Some(ChaosSpec::PanicAtBlock(b)) => b.to_string(),
            None => "-".to_string(),
        };
        format!(
            "{} {} {dl} {chaos} {}",
            self.seed,
            self.trials,
            self.instance.encode()
        )
    }

    /// Parses the token form produced by [`JobSpec::encode`].
    pub fn decode(line: &str) -> Result<JobSpec, String> {
        let mut tok = Tokens::new(line);
        let seed = tok.u64()?;
        let trials = tok.u64()?;
        let opt = |t: &str| -> Result<Option<u64>, String> {
            if t == "-" {
                Ok(None)
            } else {
                t.parse().map(Some).map_err(|_| format!("bad token {t:?}"))
            }
        };
        let deadline_ms = opt(tok.expect()?)?;
        let chaos = opt(tok.expect()?)?.map(ChaosSpec::PanicAtBlock);
        let instance = InstanceSpec::decode_tokens(&mut tok)?;
        if tok.next_str().is_some() {
            return Err("trailing tokens after job spec".to_string());
        }
        Ok(JobSpec {
            instance,
            trials,
            seed,
            deadline_ms,
            chaos,
        })
    }

    /// Builds the spec from the JSON body of a `POST /v1/jobs` request:
    /// `{"instance": {…}, "trials": n, "seed": s, "deadline_ms": d?,
    /// "chaos_panic_block": b?}`.
    pub fn from_json(v: &json::Parsed) -> Result<JobSpec, String> {
        let instance = InstanceSpec::from_json(v.get("instance").ok_or("missing \"instance\"")?)?;
        let trials = get_u64(v, "trials")?;
        let seed = opt_u64(v, "seed")?.unwrap_or(0);
        let deadline_ms = opt_u64(v, "deadline_ms")?;
        let chaos = opt_u64(v, "chaos_panic_block")?.map(ChaosSpec::PanicAtBlock);
        Ok(JobSpec {
            instance,
            trials,
            seed,
            deadline_ms,
            chaos,
        })
    }

    /// Serialises the spec to the submit-request JSON body.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"instance\":{},\"trials\":{},\"seed\":{}",
            self.instance.to_json(),
            self.trials,
            self.seed
        );
        if let Some(d) = self.deadline_ms {
            out.push_str(&format!(",\"deadline_ms\":{d}"));
        }
        if let Some(ChaosSpec::PanicAtBlock(b)) = self.chaos {
            out.push_str(&format!(",\"chaos_panic_block\":{b}"));
        }
        out.push('}');
        out
    }
}

/// The final accounting of a finished (or deadline-expired) job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JobReport {
    /// Trials the client asked for.
    pub requested: u64,
    /// Trials actually sampled (`< requested` iff `partial`).
    pub completed: u64,
    /// Accepting trials among the completed ones.
    pub accepts: u64,
    /// Whether the deadline expired before the full budget ran.
    pub partial: bool,
    /// Wall clock spent sampling (zero for reports replayed from a
    /// journal, whose wall clock belongs to a previous process life).
    pub elapsed: Duration,
}

impl JobReport {
    /// Empirical acceptance rate over the completed trials.
    pub fn acceptance_rate(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.accepts as f64 / self.completed as f64
        }
    }

    /// Wilson score interval over the completed trials — the honest
    /// uncertainty statement a partial report ships with.
    pub fn wilson_interval(&self, z: f64) -> (f64, f64) {
        stats::wilson_interval(self.accepts, self.completed, z)
    }

    /// Sampled rounds per second of wall clock (zero when unknown).
    pub fn rounds_per_sec(&self) -> f64 {
        let ns = self.elapsed.as_nanos();
        if ns == 0 {
            0.0
        } else {
            self.completed as f64 * 1e9 / ns as f64
        }
    }
}

/// A point-in-time view of one job's life cycle. Every admitted job ends
/// in [`JobStatus::Done`] (complete or partial) or [`JobStatus::Failed`]
/// (explicit abort) — never silence.
#[derive(Clone, Debug, PartialEq)]
pub enum JobStatus {
    /// Admitted, waiting for a worker.
    Queued,
    /// On a worker.
    Running {
        /// Trials finished so far.
        completed: u64,
        /// Trials requested.
        requested: u64,
    },
    /// Finished (the report says whether it was cut short by a deadline).
    Done(JobReport),
    /// Explicitly aborted — the payload is the reason (e.g. a contained
    /// worker panic).
    Failed(String),
}

impl JobStatus {
    /// Whether the job has reached a final state.
    pub fn is_terminal(&self) -> bool {
        matches!(self, JobStatus::Done(_) | JobStatus::Failed(_))
    }
}

/// Why a submission was refused at the door.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The admission queue is full — explicit load shedding, the caller
    /// should back off and retry.
    Overloaded {
        /// Queue length at refusal (== capacity).
        queue_len: usize,
    },
    /// The spec itself is unacceptable (validation or policy).
    Invalid(String),
}

// ---------------------------------------------------------------------------
// Service
// ---------------------------------------------------------------------------

/// Service knobs. `Default` is sized for tests; the server binary maps its
/// flags onto this.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Worker threads draining the queue.
    pub workers: usize,
    /// Admission-queue capacity; submissions beyond it shed.
    pub queue_capacity: usize,
    /// Hard cap on a single job's trial budget.
    pub max_trials: u64,
    /// Deadline applied to jobs that carry none (`None` = unbounded).
    pub default_deadline_ms: Option<u64>,
    /// Append-only journal path; `None` disables crash recovery.
    pub journal: Option<PathBuf>,
    /// Block-memo capacity (FIFO-evicted); bounds memo memory.
    pub memo_capacity: usize,
    /// Whether chaos directives in job specs are honoured.
    pub allow_chaos: bool,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 2,
            queue_capacity: 64,
            max_trials: 1 << 22,
            default_deadline_ms: None,
            journal: None,
            memo_capacity: 4096,
            allow_chaos: false,
        }
    }
}

/// Monotone service counters — the observability surface `GET /v1/healthz`
/// exposes and the chaos battery audits (e.g. *zero silent rejects* is
/// `submitted == completed + partial + failed + still-live`, which journal
/// recovery preserves across restarts).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Jobs admitted.
    pub submitted: u64,
    /// Submissions shed for overload.
    pub shed: u64,
    /// Jobs finished with a full report.
    pub completed: u64,
    /// Jobs finished with a partial (deadline-expired) report.
    pub partial: u64,
    /// Jobs explicitly aborted (worker panic or poisoned state).
    pub failed: u64,
    /// Jobs re-enqueued by journal recovery.
    pub resumed: u64,
    /// Blocks served from the shared memo instead of resampled.
    pub memo_hits: u64,
    /// Journaled block counts refused at recovery because no header of the
    /// current [`BLOCK_CONTRACT`] precedes them; their blocks are resampled.
    pub refused_blocks: u64,
}

#[derive(Default)]
struct Stats {
    submitted: AtomicU64,
    shed: AtomicU64,
    completed: AtomicU64,
    partial: AtomicU64,
    failed: AtomicU64,
    resumed: AtomicU64,
    memo_hits: AtomicU64,
    refused_blocks: AtomicU64,
}

impl Stats {
    fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            submitted: self.submitted.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            partial: self.partial.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            resumed: self.resumed.load(Ordering::Relaxed),
            memo_hits: self.memo_hits.load(Ordering::Relaxed),
            refused_blocks: self.refused_blocks.load(Ordering::Relaxed),
        }
    }

    /// Counts a job that just reached the terminal `status`.
    fn count_terminal(&self, status: &JobStatus) {
        let counter = match status {
            JobStatus::Done(r) if r.partial => &self.partial,
            JobStatus::Done(_) => &self.completed,
            _ => &self.failed,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// Finished jobs kept queryable (see the module docs). At a few hundred
/// bytes per job this holds the table to a few MiB however long the
/// service runs.
const RETAINED_JOBS: usize = 4096;

struct Job {
    spec: JobSpec,
    submitted: Instant,
    status: JobStatus,
}

#[derive(Default)]
struct State {
    queue: VecDeque<JobId>,
    jobs: BTreeMap<JobId, Job>,
    /// Terminal job ids in completion order, oldest first.
    finished: VecDeque<JobId>,
    plans: HashMap<u64, Arc<CompiledPlan>>,
    memo: HashMap<(u64, u64, u64), u64>,
    memo_order: VecDeque<(u64, u64, u64)>,
    next_id: JobId,
    shutdown: bool,
}

impl State {
    /// Moves live job `id` to the terminal `status`, counts it, and evicts
    /// the oldest finished jobs beyond [`RETAINED_JOBS`]. A job that is
    /// unknown or already terminal is left as it is.
    fn finish(&mut self, stats: &Stats, id: JobId, status: JobStatus) {
        match self.jobs.get_mut(&id) {
            Some(job) if !job.status.is_terminal() => {
                stats.count_terminal(&status);
                job.status = status;
            }
            _ => return,
        }
        self.finished.push_back(id);
        while self.finished.len() > RETAINED_JOBS {
            if let Some(old) = self.finished.pop_front() {
                self.jobs.remove(&old);
            }
        }
    }
}

struct Shared {
    cfg: ServiceConfig,
    state: Mutex<State>,
    work_cv: Condvar,
    done_cv: Condvar,
    journal: Mutex<Option<File>>,
    stats: Stats,
}

impl Shared {
    /// Locks the state, recovering from poisoning: a contained worker
    /// panic must never wedge the whole service behind a poisoned mutex.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn journal_line(&self, line: &str) {
        let mut j = self.journal.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(f) = j.as_mut() {
            // Best-effort: journal write failures must not take down
            // serving (the journal degrades, recovery just resamples).
            let _ = writeln!(f, "{line}");
            let _ = f.flush();
        }
    }

    fn memo_insert(&self, st: &mut State, key: (u64, u64, u64), accepts: u64) {
        if st.memo.insert(key, accepts).is_none() {
            st.memo_order.push_back(key);
            while st.memo.len() > self.cfg.memo_capacity {
                if let Some(old) = st.memo_order.pop_front() {
                    st.memo.remove(&old);
                } else {
                    break;
                }
            }
        }
    }
}

/// The verification service: bounded admission, deadline-bounded sampling,
/// shared trial blocks, optional crash-safe journal. See the module docs
/// for the design; see [`route`] for the HTTP surface.
pub struct Service {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Service {
    /// Starts the service: replays the journal (if configured), re-enqueues
    /// unfinished jobs, appends a block-contract header, and spawns the
    /// worker threads.
    pub fn start(cfg: ServiceConfig) -> io::Result<Service> {
        let mut st = State::default();
        let stats = Stats::default();
        let mut journal_file = None;
        if let Some(path) = &cfg.journal {
            if path.exists() {
                recover(&mut st, &stats, path, cfg.memo_capacity)?;
            }
            let mut f = OpenOptions::new()
                .create(true)
                .read(true)
                .append(true)
                .open(path)?;
            // End a torn final line first, so the header is a line of its own.
            if f.metadata()?.len() > 0 {
                let mut last = [0u8];
                f.seek(SeekFrom::End(-1))?;
                f.read_exact(&mut last)?;
                if last[0] != b'\n' {
                    writeln!(f)?;
                }
            }
            writeln!(f, "hdr {BLOCK_CONTRACT}")?;
            f.flush()?;
            journal_file = Some(f);
        }
        let shared = Arc::new(Shared {
            cfg,
            state: Mutex::new(st),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            journal: Mutex::new(journal_file),
            stats,
        });
        let workers = (0..shared.cfg.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("dqma-svc-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn service worker")
            })
            .collect();
        Ok(Service { shared, workers })
    }

    /// Admits a job, or refuses with a structured error. Admission is the
    /// only place work enters the service, and it either returns an id the
    /// caller can poll to a terminal state or an explicit refusal —
    /// never a silent drop.
    pub fn submit(&self, spec: JobSpec) -> Result<JobId, SubmitError> {
        spec.instance.validate().map_err(SubmitError::Invalid)?;
        if spec.trials == 0 || spec.trials > self.shared.cfg.max_trials {
            return Err(SubmitError::Invalid(format!(
                "trials {} outside 1..={}",
                spec.trials, self.shared.cfg.max_trials
            )));
        }
        if spec.chaos.is_some() && !self.shared.cfg.allow_chaos {
            return Err(SubmitError::Invalid(
                "chaos injection disabled on this server".to_string(),
            ));
        }
        let mut st = self.shared.lock();
        if st.queue.len() >= self.shared.cfg.queue_capacity {
            self.shared.stats.shed.fetch_add(1, Ordering::Relaxed);
            return Err(SubmitError::Overloaded {
                queue_len: st.queue.len(),
            });
        }
        let id = st.next_id;
        st.next_id += 1;
        self.shared
            .journal_line(&format!("job {id} {}", spec.encode()));
        st.jobs.insert(
            id,
            Job {
                spec,
                submitted: Instant::now(),
                status: JobStatus::Queued,
            },
        );
        st.queue.push_back(id);
        self.shared.stats.submitted.fetch_add(1, Ordering::Relaxed);
        drop(st);
        self.shared.work_cv.notify_one();
        Ok(id)
    }

    /// The current status of a job, or `None` for an unknown id.
    pub fn status(&self, id: JobId) -> Option<JobStatus> {
        self.shared.lock().jobs.get(&id).map(|j| j.status.clone())
    }

    /// Blocks until `id` reaches a terminal state or `timeout` elapses;
    /// returns the latest status either way (`None` for an unknown id).
    pub fn wait(&self, id: JobId, timeout: Duration) -> Option<JobStatus> {
        let deadline = Instant::now() + timeout;
        let mut st = self.shared.lock();
        loop {
            let status = st.jobs.get(&id)?.status.clone();
            if status.is_terminal() {
                return Some(status);
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Some(status);
            }
            st = self
                .shared
                .done_cv
                .wait_timeout(st, left)
                .map(|(g, _)| g)
                .unwrap_or_else(|e| {
                    let (g, _) = e.into_inner();
                    g
                });
        }
    }

    /// Current admission-queue length.
    pub fn queue_len(&self) -> usize {
        self.shared.lock().queue.len()
    }

    /// Current block-memo size (bounded by
    /// [`ServiceConfig::memo_capacity`]).
    pub fn memo_len(&self) -> usize {
        self.shared.lock().memo.len()
    }

    /// Snapshot of the service counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.stats.snapshot()
    }

    /// Stops the workers after their current jobs and joins them.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        {
            let mut st = self.shared.lock();
            st.shutdown = true;
        }
        self.shared.work_cv.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Replays an append-only journal into fresh state. Tolerant of a torn
/// final line (the crash case) and of unknown/corrupt lines, a line that is
/// not UTF-8 included: recovery prefers resampling over refusing to start,
/// and one bad line must not hide the records after it. An I/O error ends
/// replay. A `blk` line is replayed only when the nearest `hdr` line before
/// it names the current [`BLOCK_CONTRACT`]; otherwise it is counted as
/// refused.
fn recover(
    st: &mut State,
    stats: &Stats,
    path: &std::path::Path,
    memo_cap: usize,
) -> io::Result<()> {
    let reader = BufReader::new(File::open(path)?);
    let mut trusted = false;
    let mut replayed = 0u64;
    for bytes in reader.split(b'\n') {
        let Ok(bytes) = bytes else { break };
        let Ok(line) = std::str::from_utf8(&bytes) else {
            continue;
        };
        let line = line.strip_suffix('\r').unwrap_or(line);
        let mut tok = Tokens::new(line);
        match tok.next_str() {
            Some("hdr") => trusted = tok.u64() == Ok(BLOCK_CONTRACT),
            Some("job") => {
                let Ok(id) = tok.u64() else { continue };
                let rest = line
                    .splitn(3, char::is_whitespace)
                    .nth(2)
                    .unwrap_or_default();
                let Ok(spec) = JobSpec::decode(rest) else {
                    continue;
                };
                st.next_id = st.next_id.max(id + 1);
                let job = Job {
                    spec,
                    submitted: Instant::now(),
                    status: JobStatus::Queued,
                };
                if st.jobs.insert(id, job).is_none() {
                    replayed += 1;
                }
            }
            Some("blk") => {
                let (Ok(key), Ok(seed), Ok(block), Ok(accepts)) =
                    (tok.hex_u64(), tok.u64(), tok.u64(), tok.u64())
                else {
                    continue;
                };
                if !trusted {
                    stats.refused_blocks.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                let k = (key, seed, block);
                if st.memo.insert(k, accepts).is_none() {
                    st.memo_order.push_back(k);
                    while st.memo.len() > memo_cap {
                        if let Some(old) = st.memo_order.pop_front() {
                            st.memo.remove(&old);
                        }
                    }
                }
            }
            Some("done") => {
                let (Ok(id), Ok(completed), Ok(accepts), Ok(partial), Ok(elapsed_ms)) =
                    (tok.u64(), tok.u64(), tok.u64(), tok.u64(), tok.u64())
                else {
                    continue;
                };
                let Some(requested) = st.jobs.get(&id).map(|j| j.spec.trials) else {
                    continue;
                };
                let report = JobReport {
                    requested,
                    completed,
                    accepts,
                    partial: partial != 0,
                    elapsed: Duration::from_millis(elapsed_ms),
                };
                st.finish(stats, id, JobStatus::Done(report));
            }
            Some("fail") => {
                let Ok(id) = tok.u64() else { continue };
                let msg = line
                    .splitn(3, char::is_whitespace)
                    .nth(2)
                    .unwrap_or("unknown failure");
                st.finish(stats, id, JobStatus::Failed(msg.to_string()));
            }
            _ => {}
        }
    }
    // Re-enqueue unfinished jobs in admission order: the journal is the
    // source of truth for what was promised. Terminal jobs were counted as
    // they were replayed (some may since have been evicted), so the books
    // balance: `submitted = completed + partial + failed + live`.
    let unfinished: Vec<JobId> = st
        .jobs
        .iter()
        .filter(|(_, j)| !j.status.is_terminal())
        .map(|(&id, _)| id)
        .collect();
    stats
        .resumed
        .fetch_add(unfinished.len() as u64, Ordering::Relaxed);
    stats.submitted.fetch_add(replayed, Ordering::Relaxed);
    st.queue.extend(unfinished);
    Ok(())
}

fn worker_loop(shared: &Shared) {
    loop {
        let (id, spec, submitted) = {
            let mut st = shared.lock();
            loop {
                if st.shutdown {
                    return;
                }
                if let Some(id) = st.queue.pop_front() {
                    let job = st.jobs.get_mut(&id).expect("queued job exists");
                    job.status = JobStatus::Running {
                        completed: 0,
                        requested: job.spec.trials,
                    };
                    break (id, job.spec.clone(), job.submitted);
                }
                st = shared.work_cv.wait(st).unwrap_or_else(|e| e.into_inner());
            }
        };
        let result = catch_unwind(AssertUnwindSafe(|| run_job(shared, id, &spec, submitted)));
        {
            let mut st = shared.lock();
            let status = match result {
                Ok(report) => {
                    shared.journal_line(&format!(
                        "done {id} {} {} {} {}",
                        report.completed,
                        report.accepts,
                        report.partial as u64,
                        report.elapsed.as_millis()
                    ));
                    JobStatus::Done(report)
                }
                Err(panic) => {
                    let msg = panic_message(panic.as_ref());
                    shared.journal_line(&format!("fail {id} {msg}"));
                    JobStatus::Failed(msg)
                }
            };
            st.finish(&shared.stats, id, status);
        }
        shared.done_cv.notify_all();
    }
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    let msg = panic
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| panic.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "unknown panic".to_string());
    format!("worker panicked: {}", msg.replace(['\n', '\r'], " "))
}

fn run_job(shared: &Shared, id: JobId, spec: &JobSpec, submitted: Instant) -> JobReport {
    let key = spec.instance.key();
    let plan = {
        let cached = shared.lock().plans.get(&key).cloned();
        match cached {
            Some(p) => p,
            None => {
                // Compile outside the lock (scheme construction can be the
                // expensive part), then publish; a racing worker's copy
                // wins or loses harmlessly.
                let p = Arc::new(spec.instance.compile());
                shared
                    .lock()
                    .plans
                    .entry(key)
                    .or_insert_with(|| Arc::clone(&p));
                p
            }
        }
    };
    let deadline = spec
        .deadline_ms
        .or(shared.cfg.default_deadline_ms)
        .map(|ms| submitted + Duration::from_millis(ms));
    let chaos_block = match spec.chaos {
        Some(ChaosSpec::PanicAtBlock(b)) if shared.cfg.allow_chaos => Some(b),
        _ => None,
    };
    let seed = spec.seed;
    let report = run_trials_observed(
        plan.as_ref(),
        spec.trials,
        seed,
        deadline,
        &mut |b| {
            let hit = shared.lock().memo.get(&(key, seed, b)).copied();
            if hit.is_some() {
                shared.stats.memo_hits.fetch_add(1, Ordering::Relaxed);
            }
            hit
        },
        &mut |b, len, accepts| {
            if chaos_block == Some(b) {
                panic!("chaos: injected panic at block {b}");
            }
            if len == BLOCK_TRIALS {
                // Only full blocks are shareable and journalable: a short
                // tail block's length depends on the job's trial budget,
                // so it is recomputed (deterministically) instead.
                let mut st = shared.lock();
                shared.memo_insert(&mut st, (key, seed, b), accepts);
                shared.journal_line(&format!("blk {key:016x} {seed} {b} {accepts}"));
            }
            let mut st = shared.lock();
            if let Some(Job {
                status: JobStatus::Running { completed, .. },
                ..
            }) = st.jobs.get_mut(&id)
            {
                *completed += len;
            }
        },
    );
    JobReport {
        requested: spec.trials,
        completed: report.trials,
        accepts: report.accepts,
        partial: report.trials < spec.trials,
        elapsed: report.elapsed,
    }
}

// ---------------------------------------------------------------------------
// HTTP routing
// ---------------------------------------------------------------------------

/// Escapes a string for embedding in a JSON document.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn finite(x: f64) -> f64 {
    if x.is_finite() {
        x
    } else {
        0.0
    }
}

/// Renders one job status as the `GET /v1/jobs/<id>` response body.
pub fn status_json(id: JobId, status: &JobStatus) -> String {
    match status {
        JobStatus::Queued => format!("{{\"job\":{id},\"state\":\"queued\"}}"),
        JobStatus::Running {
            completed,
            requested,
        } => format!(
            "{{\"job\":{id},\"state\":\"running\",\"completed\":{completed},\
             \"requested\":{requested}}}"
        ),
        JobStatus::Done(r) => {
            let (lo, hi) = r.wilson_interval(1.96);
            format!(
                "{{\"job\":{id},\"state\":\"done\",\"requested\":{},\"completed\":{},\
                 \"accepts\":{},\"partial\":{},\"acceptance_rate\":{},\"wilson_lo\":{},\
                 \"wilson_hi\":{},\"elapsed_ms\":{},\"rounds_per_sec\":{}}}",
                r.requested,
                r.completed,
                r.accepts,
                r.partial,
                finite(r.acceptance_rate()),
                finite(lo),
                finite(hi),
                r.elapsed.as_millis(),
                finite(r.rounds_per_sec()),
            )
        }
        JobStatus::Failed(msg) => format!(
            "{{\"job\":{id},\"state\":\"aborted\",\"error\":\"{}\"}}",
            json_escape(msg)
        ),
    }
}

/// Maps one parsed HTTP request onto the service. Pure with respect to the
/// connection: the server binary (and the unit tests, without sockets)
/// feed it `(method, path, body)` and write back `(status, json_body)`.
///
/// Surface:
///
/// * `POST /v1/jobs` — submit; `202 {"job":id}`, `503` overloaded,
///   `400` invalid.
/// * `GET /v1/jobs/<id>` — status; `200` (see [`status_json`]) or `404`
///   (unknown, or finished longer ago than the retention bound).
/// * `GET /v1/healthz` — liveness + counters.
pub fn route(svc: &Service, method: &str, path: &str, body: &str) -> (u16, String) {
    match (method, path) {
        ("POST", "/v1/jobs") => {
            let parsed = match json::parse(body) {
                Ok(p) => p,
                Err(e) => {
                    return (
                        400,
                        format!("{{\"error\":\"bad json: {}\"}}", json_escape(&e)),
                    )
                }
            };
            let spec = match JobSpec::from_json(&parsed) {
                Ok(s) => s,
                Err(e) => return (400, format!("{{\"error\":\"{}\"}}", json_escape(&e))),
            };
            match svc.submit(spec) {
                Ok(id) => (202, format!("{{\"job\":{id}}}")),
                Err(SubmitError::Overloaded { queue_len }) => (
                    503,
                    format!("{{\"error\":\"overloaded\",\"queue_len\":{queue_len}}}"),
                ),
                Err(SubmitError::Invalid(e)) => {
                    (400, format!("{{\"error\":\"{}\"}}", json_escape(&e)))
                }
            }
        }
        ("GET", p) if p.starts_with("/v1/jobs/") => {
            let id = match p["/v1/jobs/".len()..].parse::<JobId>() {
                Ok(id) => id,
                Err(_) => return (400, "{\"error\":\"bad job id\"}".to_string()),
            };
            match svc.status(id) {
                Some(status) => (200, status_json(id, &status)),
                None => (404, "{\"error\":\"unknown job\"}".to_string()),
            }
        }
        ("GET", "/v1/healthz") => {
            let s = svc.stats();
            (
                200,
                format!(
                    "{{\"ok\":true,\"queue_len\":{},\"memo_len\":{},\"stats\":{{\
                     \"submitted\":{},\"shed\":{},\"completed\":{},\"partial\":{},\
                     \"failed\":{},\"resumed\":{},\"memo_hits\":{},\"refused_blocks\":{}}}}}",
                    svc.queue_len(),
                    svc.memo_len(),
                    s.submitted,
                    s.shed,
                    s.completed,
                    s.partial,
                    s.failed,
                    s.resumed,
                    s.memo_hits,
                    s.refused_blocks
                ),
            )
        }
        _ => (404, "{\"error\":\"not found\"}".to_string()),
    }
}

// ---------------------------------------------------------------------------
// Client + binary location
// ---------------------------------------------------------------------------

/// A minimal blocking HTTP/1.1 client (std-only), used by `dqma-cli`, the
/// integration suite, and the load bench.
pub mod client {
    use std::io::{Read, Write};
    use std::net::TcpStream;
    use std::time::Duration;

    /// Performs one request against `addr` and returns `(status, body)`.
    /// `timeout` bounds connect, read, and write individually.
    pub fn call(
        addr: &str,
        method: &str,
        path: &str,
        body: Option<&str>,
        timeout: Duration,
    ) -> std::io::Result<(u16, String)> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        stream.set_nodelay(true).ok();
        let mut req = format!("{method} {path} HTTP/1.1\r\nHost: dqma\r\nConnection: close\r\n");
        if let Some(b) = body {
            req.push_str(&format!(
                "Content-Type: application/json\r\nContent-Length: {}\r\n\r\n{b}",
                b.len()
            ));
        } else {
            req.push_str("\r\n");
        }
        stream.write_all(req.as_bytes())?;
        let mut raw = Vec::new();
        stream.read_to_end(&mut raw)?;
        let text = String::from_utf8_lossy(&raw);
        let status = text
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| {
                std::io::Error::new(std::io::ErrorKind::InvalidData, "bad status line")
            })?;
        let body = text
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_string())
            .unwrap_or_default();
        Ok((status, body))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trials::run_trials_with_workers;

    fn eq_path_spec() -> InstanceSpec {
        InstanceSpec::EqPath {
            r: 8,
            bits: 6,
            x: 0b101101,
            y: 0b101101,
            scheme_seed: 11,
            reps: 2,
            cheat: CheatSpec::Interpolate,
        }
    }

    fn small_job(trials: u64, seed: u64) -> JobSpec {
        JobSpec {
            instance: eq_path_spec(),
            trials,
            seed,
            deadline_ms: None,
            chaos: None,
        }
    }

    #[test]
    fn instance_specs_roundtrip_through_tokens_and_json() {
        let specs = [
            eq_path_spec(),
            InstanceSpec::Relay {
                r: 9,
                bits: 8,
                x: 0xA5,
                y: 0x5A,
                seed: 3,
                cheat: CheatSpec::AllLeft,
            },
            InstanceSpec::EqTree {
                arms: 3,
                arm_len: 2,
                bits: 4,
                x: 9,
                y: 6,
                scheme_seed: 5,
                reps: 4,
            },
        ];
        for spec in specs {
            assert_eq!(InstanceSpec::decode(&spec.encode()).unwrap(), spec);
            let parsed = json::parse(&spec.to_json()).unwrap();
            assert_eq!(InstanceSpec::from_json(&parsed).unwrap(), spec);
            // The identity key is a pure function of the canonical form.
            assert_eq!(
                spec.key(),
                InstanceSpec::decode(&spec.encode()).unwrap().key()
            );
        }
    }

    #[test]
    fn job_specs_roundtrip_and_malformed_inputs_are_structured_errors() {
        let spec = JobSpec {
            instance: eq_path_spec(),
            trials: 100_000,
            seed: 42,
            deadline_ms: Some(250),
            chaos: Some(ChaosSpec::PanicAtBlock(3)),
        };
        assert_eq!(JobSpec::decode(&spec.encode()).unwrap(), spec);
        let parsed = json::parse(&spec.to_json()).unwrap();
        assert_eq!(JobSpec::from_json(&parsed).unwrap(), spec);

        for bad in [
            "",
            "7",
            "7 100 - -",
            "7 100 - - eq_path",
            "7 100 - - eq_path 8 6 2d 2d 11 2",
            "7 100 - - warp 8 6 2d 2d 11 2 interpolate",
            "7 100 - - eq_path 8 6 zz 2d 11 2 interpolate",
            "7 100 x - eq_path 8 6 2d 2d 11 2 interpolate",
            "7 100 - - eq_path 8 6 2d 2d 11 2 interpolate trailing",
        ] {
            assert!(JobSpec::decode(bad).is_err(), "{bad:?} must not decode");
        }
    }

    #[test]
    fn validation_rejects_out_of_range_instances() {
        let cases = [
            eq_path(0, 6, 0b101101, 2),
            eq_path(limits::MAX_R + 1, 6, 0b101101, 2),
            eq_path(8, limits::MAX_BITS + 1, 0, 2),
            eq_path(8, 6, 1 << 6, 2),
            eq_path(8, 6, 0b101101, 0),
            InstanceSpec::Relay {
                r: 2,
                bits: 4,
                x: 1,
                y: 1,
                seed: 0,
                cheat: CheatSpec::Interpolate,
            },
            InstanceSpec::EqTree {
                arms: 1,
                arm_len: 1,
                bits: 4,
                x: 1,
                y: 1,
                scheme_seed: 0,
                reps: 1,
            },
            InstanceSpec::EqTree {
                arms: 2,
                arm_len: limits::MAX_ARM_LEN + 1,
                bits: 4,
                x: 1,
                y: 1,
                scheme_seed: 0,
                reps: 1,
            },
        ];
        for c in cases {
            assert!(c.validate().is_err(), "{c:?} must not validate");
        }
    }

    fn eq_path(r: usize, bits: usize, x: u64, reps: usize) -> InstanceSpec {
        InstanceSpec::EqPath {
            r,
            bits,
            x,
            y: x,
            scheme_seed: 11,
            reps,
            cheat: CheatSpec::Interpolate,
        }
    }

    #[test]
    fn service_report_is_bit_identical_to_the_engine() {
        let svc = Service::start(ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        })
        .unwrap();
        let spec = small_job(3 * BLOCK_TRIALS + 101, 9);
        let reference = run_trials_with_workers(&spec.instance.compile(), spec.trials, 9, 1);
        let id = svc.submit(spec).unwrap();
        let status = svc.wait(id, Duration::from_secs(60)).unwrap();
        let JobStatus::Done(r) = status else {
            panic!("job must finish, got {status:?}");
        };
        assert!(!r.partial);
        assert_eq!(r.completed, r.requested);
        assert_eq!(
            r.accepts, reference.accepts,
            "service must match the engine"
        );
        svc.shutdown();
    }

    #[test]
    fn overload_sheds_explicitly_and_every_admitted_job_terminates() {
        let svc = Service::start(ServiceConfig {
            workers: 1,
            queue_capacity: 1,
            ..ServiceConfig::default()
        })
        .unwrap();
        // A job slow enough to hold the single worker while we flood.
        let slow = JobSpec {
            instance: eq_path(64, 6, 0b101101, 2),
            trials: 64 * BLOCK_TRIALS,
            seed: 1,
            deadline_ms: None,
            chaos: None,
        };
        let mut admitted = vec![svc.submit(slow).unwrap()];
        let mut shed = 0;
        for i in 0..16 {
            match svc.submit(small_job(BLOCK_TRIALS, 100 + i)) {
                Ok(id) => admitted.push(id),
                Err(SubmitError::Overloaded { queue_len }) => {
                    assert_eq!(queue_len, 1);
                    shed += 1;
                }
                Err(e) => panic!("unexpected refusal {e:?}"),
            }
        }
        assert!(shed > 0, "a 1-deep queue under a 16-job flood must shed");
        assert_eq!(svc.stats().shed, shed);
        // Zero silent rejects: every admitted id reaches a terminal state.
        for id in admitted {
            let status = svc.wait(id, Duration::from_secs(120)).unwrap();
            assert!(status.is_terminal(), "job {id} stuck at {status:?}");
        }
        assert_eq!(
            svc.stats().submitted,
            svc.stats().completed + svc.stats().partial + svc.stats().failed
        );
        svc.shutdown();
    }

    #[test]
    fn expired_deadline_returns_partial_report_with_wilson_interval() {
        let svc = Service::start(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        })
        .unwrap();
        let spec = JobSpec {
            instance: eq_path(64, 6, 0b101101, 2),
            trials: 512 * BLOCK_TRIALS,
            seed: 5,
            deadline_ms: Some(30),
            chaos: None,
        };
        let id = svc.submit(spec).unwrap();
        let status = svc.wait(id, Duration::from_secs(60)).unwrap();
        let JobStatus::Done(r) = status else {
            panic!("deadline expiry must still yield a report, got {status:?}");
        };
        assert!(r.partial, "512-block job cannot finish in 30 ms");
        assert!(r.completed < r.requested);
        assert_eq!(
            r.completed % BLOCK_TRIALS,
            0,
            "partial cuts at block bounds"
        );
        let (lo, hi) = r.wilson_interval(1.96);
        assert!((0.0..=1.0).contains(&lo) && lo <= hi && hi <= 1.0);
        assert_eq!(svc.stats().partial, 1);
        svc.shutdown();
    }

    #[test]
    fn chaos_panic_is_contained_and_the_worker_survives() {
        let svc = Service::start(ServiceConfig {
            workers: 1,
            allow_chaos: true,
            ..ServiceConfig::default()
        })
        .unwrap();
        let mut doomed = small_job(2 * BLOCK_TRIALS, 3);
        doomed.chaos = Some(ChaosSpec::PanicAtBlock(0));
        let id = svc.submit(doomed).unwrap();
        let status = svc.wait(id, Duration::from_secs(60)).unwrap();
        let JobStatus::Failed(msg) = status else {
            panic!("chaos panic must fail the job, got {status:?}");
        };
        assert!(msg.contains("injected panic"), "unexpected reason {msg:?}");
        // The single worker thread must have survived to serve this:
        let id2 = svc.submit(small_job(BLOCK_TRIALS, 4)).unwrap();
        let status = svc.wait(id2, Duration::from_secs(60)).unwrap();
        assert!(matches!(status, JobStatus::Done(_)), "got {status:?}");
        svc.shutdown();
    }

    #[test]
    fn chaos_is_rejected_unless_enabled() {
        let svc = Service::start(ServiceConfig::default()).unwrap();
        let mut spec = small_job(BLOCK_TRIALS, 3);
        spec.chaos = Some(ChaosSpec::PanicAtBlock(0));
        assert!(matches!(
            svc.submit(spec),
            Err(SubmitError::Invalid(msg)) if msg.contains("chaos")
        ));
        svc.shutdown();
    }

    #[test]
    fn identical_jobs_share_blocks_through_the_memo() {
        let svc = Service::start(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        })
        .unwrap();
        let spec = small_job(4 * BLOCK_TRIALS, 77);
        let a = svc.submit(spec.clone()).unwrap();
        let ra = svc.wait(a, Duration::from_secs(60)).unwrap();
        let b = svc.submit(spec).unwrap();
        let rb = svc.wait(b, Duration::from_secs(60)).unwrap();
        let (JobStatus::Done(ra), JobStatus::Done(rb)) = (ra, rb) else {
            panic!("both jobs must finish");
        };
        assert_eq!(ra.accepts, rb.accepts, "shared blocks are attributable");
        assert_eq!(svc.stats().memo_hits, 4, "second job reuses all 4 blocks");
        svc.shutdown();
    }

    #[test]
    fn memo_memory_is_bounded_by_fifo_eviction() {
        let svc = Service::start(ServiceConfig {
            workers: 1,
            memo_capacity: 2,
            ..ServiceConfig::default()
        })
        .unwrap();
        let id = svc.submit(small_job(6 * BLOCK_TRIALS, 8)).unwrap();
        svc.wait(id, Duration::from_secs(60)).unwrap();
        assert!(svc.memo_len() <= 2, "memo exceeded capacity");
        svc.shutdown();
    }

    /// A scratch journal path unique to this process and `name`.
    fn journal_path(name: &str) -> (PathBuf, PathBuf) {
        let dir = std::env::temp_dir().join(format!("dqma-svc-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("journal.log");
        let _ = std::fs::remove_file(&path);
        (dir, path)
    }

    /// The journal of a crashed server, opened by `header` (if any): job 7
    /// was admitted and three full blocks were journaled before the
    /// "crash" (plus a torn final line, which recovery must tolerate). Two
    /// earlier jobs had already finished: one partial, one failed.
    fn crashed_journal(spec: &JobSpec, header: Option<String>) -> String {
        let plan = spec.instance.compile();
        let key = spec.instance.key();
        let earlier = small_job(2 * BLOCK_TRIALS, 5).encode();
        let mut lines: Vec<String> = header.into_iter().collect();
        lines.extend([
            format!("job 5 {earlier}"),
            format!("done 5 {BLOCK_TRIALS} 100 1 30"),
            format!("job 6 {earlier}"),
            "fail 6 injected panic at block 0".to_string(),
            format!("job 7 {}", spec.encode()),
        ]);
        for b in 0..3u64 {
            let a = plan.sample_block(BLOCK_TRIALS, &mut (), &BlockRng::new(spec.seed, b));
            lines.push(format!("blk {key:016x} {} {b} {a}", spec.seed));
        }
        let mut text = lines.join("\n");
        text.push_str("\nblk 00ff");
        text
    }

    /// Asserts `submitted = completed + partial + failed` as (3, 1, 1, 1).
    fn balanced(s: StatsSnapshot) {
        assert_eq!(
            (s.submitted, s.completed, s.partial, s.failed),
            (3, 1, 1, 1)
        );
    }

    #[test]
    fn journal_recovery_resumes_bit_identically_and_reuses_blocks() {
        let (dir, path) = journal_path("resume");
        let spec = small_job(5 * BLOCK_TRIALS + 99, 123);
        let reference = run_trials_with_workers(&spec.instance.compile(), spec.trials, 123, 1);
        let header = format!("hdr {BLOCK_CONTRACT}");
        std::fs::write(&path, crashed_journal(&spec, Some(header))).unwrap();

        let svc = Service::start(ServiceConfig {
            workers: 1,
            journal: Some(path.clone()),
            ..ServiceConfig::default()
        })
        .unwrap();
        assert_eq!(svc.stats().resumed, 1);
        let status = svc.wait(7, Duration::from_secs(60)).unwrap();
        let JobStatus::Done(r) = status else {
            panic!("resumed job must finish, got {status:?}");
        };
        assert_eq!(r.completed, r.requested);
        assert_eq!(
            r.accepts, reference.accepts,
            "restart-resumed job must be bit-identical to an uninterrupted run"
        );
        assert_eq!(
            svc.stats().memo_hits,
            3,
            "journaled blocks are not resampled"
        );
        assert_eq!(svc.stats().refused_blocks, 0);
        balanced(svc.stats());
        svc.shutdown();

        // Second restart: the finished job is still queryable, nothing
        // re-runs, and the blocks journaled after the torn line sit under
        // the header the first restart appended.
        let svc2 = Service::start(ServiceConfig {
            workers: 1,
            journal: Some(path),
            ..ServiceConfig::default()
        })
        .unwrap();
        assert_eq!(svc2.stats().resumed, 0);
        assert_eq!(svc2.stats().refused_blocks, 0);
        let JobStatus::Done(r2) = svc2.status(7).unwrap() else {
            panic!("done status must survive restart");
        };
        assert_eq!(r2.accepts, reference.accepts);
        balanced(svc2.stats());
        svc2.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_blocks_of_another_contract_are_refused_and_resampled() {
        let spec = small_job(5 * BLOCK_TRIALS + 99, 123);
        let reference = run_trials_with_workers(&spec.instance.compile(), spec.trials, 123, 1);
        let legacy = [None, Some(format!("hdr {}", BLOCK_CONTRACT - 1))];
        for (i, header) in legacy.into_iter().enumerate() {
            let (dir, path) = journal_path(&format!("legacy{i}"));
            std::fs::write(&path, crashed_journal(&spec, header)).unwrap();
            let svc = Service::start(ServiceConfig {
                workers: 1,
                journal: Some(path),
                ..ServiceConfig::default()
            })
            .unwrap();
            let status = svc.wait(7, Duration::from_secs(60)).unwrap();
            let JobStatus::Done(r) = status else {
                panic!("resumed job must finish, got {status:?}");
            };
            assert_eq!(r.accepts, reference.accepts, "journal {i}");
            let st = svc.stats();
            assert_eq!((st.memo_hits, st.refused_blocks), (0, 3), "journal {i}");
            balanced(st);
            svc.shutdown();
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn finished_jobs_are_retained_up_to_the_bound_oldest_evicted_first() {
        let extra = 10;
        let svc = Service::start(ServiceConfig {
            workers: 1,
            queue_capacity: RETAINED_JOBS + extra,
            ..ServiceConfig::default()
        })
        .unwrap();
        let ids: Vec<JobId> = (0..RETAINED_JOBS + extra)
            .map(|i| svc.submit(small_job(1, i as u64)).unwrap())
            .collect();
        let newest = *ids.last().unwrap();
        // One worker drains the queue in order, so the newest job finishes
        // last.
        let status = svc.wait(newest, Duration::from_secs(120)).unwrap();
        assert!(matches!(status, JobStatus::Done(_)), "got {status:?}");
        for &id in &ids[..extra] {
            let (code, _) = route(&svc, "GET", &format!("/v1/jobs/{id}"), "");
            assert_eq!(code, 404, "job {id} must be evicted");
        }
        let (code, body) = route(&svc, "GET", &format!("/v1/jobs/{}", ids[extra]), "");
        assert!(code == 200 && body.contains("done"), "{code} {body}");
        assert_eq!(svc.shared.lock().jobs.len(), RETAINED_JOBS);
        let st = svc.stats();
        assert_eq!(st.submitted, (RETAINED_JOBS + extra) as u64);
        assert_eq!(st.submitted, st.completed + st.partial + st.failed);
        svc.shutdown();
    }

    #[test]
    fn recovery_keeps_only_the_newest_finished_jobs() {
        let (dir, path) = journal_path("retain");
        let extra = 5;
        let spec = small_job(1, 3).encode();
        // Job 0 never finished: the oldest admission, but live, so it is
        // resumed rather than evicted.
        let mut lines = vec![format!("hdr {BLOCK_CONTRACT}"), format!("job 0 {spec}")];
        for id in 1..=(RETAINED_JOBS + extra) as u64 {
            lines.push(format!("job {id} {spec}"));
            lines.push(format!("done {id} 1 1 0 0"));
        }
        std::fs::write(&path, lines.join("\n") + "\n").unwrap();
        let svc = Service::start(ServiceConfig {
            workers: 1,
            journal: Some(path),
            ..ServiceConfig::default()
        })
        .unwrap();
        assert_eq!(svc.stats().resumed, 1);
        // Replay evicted jobs 1..=extra; finishing job 0 then evicts one more.
        let status = svc.wait(0, Duration::from_secs(60)).unwrap();
        assert!(matches!(status, JobStatus::Done(_)), "got {status:?}");
        let evicted = extra as u64 + 1;
        for id in 1..=evicted {
            assert_eq!(svc.status(id), None, "job {id} must be evicted");
        }
        assert!(matches!(svc.status(evicted + 1), Some(JobStatus::Done(_))));
        let st = svc.stats();
        assert_eq!(st.submitted, (RETAINED_JOBS + extra + 1) as u64);
        assert_eq!(st.completed, st.submitted);
        svc.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_skips_a_line_that_is_not_utf8() {
        let (dir, path) = journal_path("utf8");
        let spec = small_job(1, 3).encode();
        // A `fail` line torn inside a multi-byte character, then a later
        // admission: the later record must still replay.
        let mut journal = format!("hdr {BLOCK_CONTRACT}\njob 0 {spec}\n").into_bytes();
        journal.extend_from_slice(b"fail 7 worker panicked: caf\xC3\n");
        journal.extend_from_slice(format!("job 1 {spec}\n").as_bytes());
        std::fs::write(&path, journal).unwrap();
        let svc = Service::start(ServiceConfig {
            workers: 1,
            journal: Some(path),
            ..ServiceConfig::default()
        })
        .unwrap();
        assert_eq!(svc.stats().resumed, 2);
        let status = svc.wait(1, Duration::from_secs(60)).unwrap();
        assert!(matches!(status, JobStatus::Done(_)), "got {status:?}");
        let next = svc.submit(small_job(1, 4)).unwrap();
        assert_eq!(next, 2, "ids continue after the last replayed job");
        svc.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn route_covers_the_http_surface() {
        let svc = Service::start(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        })
        .unwrap();
        // Malformed JSON and bad specs are structured 400s.
        assert_eq!(route(&svc, "POST", "/v1/jobs", "{oops").0, 400);
        assert_eq!(route(&svc, "POST", "/v1/jobs", "{}").0, 400);
        assert_eq!(
            route(
                &svc,
                "POST",
                "/v1/jobs",
                "{\"instance\":{\"protocol\":\"warp\"},\"trials\":1}"
            )
            .0,
            400
        );
        // An integer f64 cannot carry is a 400 naming the field.
        let huge = small_job(BLOCK_TRIALS, 4242)
            .to_json()
            .replace("\"seed\":4242", "\"seed\":9007199254740993");
        let (code, resp) = route(&svc, "POST", "/v1/jobs", &huge);
        assert!(code == 400 && resp.contains("seed"), "{code} {resp}");
        // Unknown paths and ids.
        assert_eq!(route(&svc, "GET", "/nope", "").0, 404);
        assert_eq!(route(&svc, "GET", "/v1/jobs/999", "").0, 404);
        assert_eq!(route(&svc, "GET", "/v1/jobs/abc", "").0, 400);
        // Happy path: submit, poll to done, health.
        let body = small_job(BLOCK_TRIALS, 2).to_json();
        let (code, resp) = route(&svc, "POST", "/v1/jobs", &body);
        assert_eq!(code, 202, "{resp}");
        let id = json::parse(&resp)
            .unwrap()
            .get("job")
            .and_then(json::Parsed::as_num)
            .unwrap() as u64;
        svc.wait(id, Duration::from_secs(60)).unwrap();
        let (code, resp) = route(&svc, "GET", &format!("/v1/jobs/{id}"), "");
        assert_eq!(code, 200);
        let parsed = json::parse(&resp).unwrap();
        assert_eq!(
            parsed.get("state").and_then(json::Parsed::as_str),
            Some("done")
        );
        let (code, health) = route(&svc, "GET", "/v1/healthz", "");
        assert_eq!(code, 200);
        assert!(json::parse(&health).is_ok(), "healthz must be valid JSON");
        svc.shutdown();
    }
}
