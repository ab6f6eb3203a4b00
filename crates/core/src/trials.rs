//! Batched, zero-allocation Monte-Carlo trial engine for the sampled
//! protocol rounds.
//!
//! The paper's guarantees (completeness ≈ 1 on yes-instances, rejection
//! ≥ `4/(81 r²)` per round on no-instances) are only *observable* through
//! many sampled rounds, yet until this module every consumer of
//! `simulate_round` ran trials serially, one round at a time, re-preparing
//! proof states and reallocating scratch per round. Here the per-instance
//! preparation is hoisted into a *round plan* (see
//! [`crate::chain::ChainRoundPlan`] and friends), and a shared driver splits
//! the trials into fixed-size blocks spread over the calling thread and
//! scoped worker threads spawned for the run.
//!
//! Three runners drive a plan: [`run_trials_with_workers`] (accept counts,
//! over an explicit number of threads), [`run_outcome_trials_with_workers`]
//! (three-way outcomes and a transcript digest, for transport-backed
//! rounds), and [`run_trials_observed`] (serial, block by block, with a
//! deadline and the journal hooks of [`crate::service`]). The width is
//! always an argument: callers build the plan once and pass the number of
//! workers they want, `1` for an inline run. A run spawns its own threads
//! and joins them before it returns, so concurrent runs never share or
//! wait for workers.
//!
//! # Determinism across worker counts (and lane widths)
//!
//! Every block of [`BLOCK_TRIALS`] trials owns RNG streams derived *from
//! its coordinates alone*, handed to samplers as a [`BlockRng`]. All of
//! them are counter streams ([`qsim::random::CounterRng`]), so a draw is a
//! pure function of where it sits, never of what ran before it:
//!
//! * [`BlockRng::trial_rng`] — one stream per trial, keyed by
//!   `(seed, block, trial)`: the lane-batched engine and the mixed-proof
//!   walk draw from it, so an outcome cannot depend on how trials are
//!   grouped into lanes;
//! * [`BlockRng::noise_rng`] — a second per-trial stream for Kraus
//!   trajectory branches, keyed apart from the first;
//! * [`BlockRng::trial`] — the coordinate of one message-passing trial:
//!   its fault salt and one stream per network node, keyed by
//!   `(seed, block, trial, node)`. A node opens its own stream in O(1),
//!   whether it runs inside [`crate::net::run_round`] or alone in its own
//!   process ([`crate::cluster`]).
//!
//! Blocks are claimed dynamically by workers, but a block's accept count
//! depends only on `(seed, block index, plan)`, and the total is a
//! commutative sum — so the [`TrialReport`] accept count is **bit-identical
//! at any worker count** (1, 2, 4, 8, …) *and*, for [`LaneBatched`] plans,
//! at any lane width and under either the scalar or the AVX2 executors —
//! all pinned by the integration suite. (Changing [`BLOCK_TRIALS`] or a
//! stream derivation changes accept counts *across versions*; the contract
//! is invariance across execution configurations, never across versions —
//! [`BLOCK_CONTRACT`] names the version.)
//!
//! # Lane batching
//!
//! Plans whose rounds are pure table walks implement [`LaneBatched`] as
//! well: [`LaneBatched::sample_lane_block`] runs a lane batch of `L` trials
//! in lockstep over structure-of-arrays buffers (coin-word planes and one
//! acceptance accumulator per lane), which the [`qsim::simd`] executors
//! process four lanes per instruction under the `simd` feature — with the
//! scalar lane path always compiled as the oracle. [`BatchSampler`] is
//! blanket-forwarded per plan at [`default_lane_width`]; tests pin other
//! widths via [`with_lane_width`].
//!
//! # Scratch reuse
//!
//! A [`BatchSampler`] declares a `Scratch` type that each worker thread
//! builds once, on that thread, and reuses across every block (and every
//! trial) it processes; no other thread ever sees it. The pure-state
//! plans need none (their tables make a round a handful of lookups); the
//! mixed-proof chain sampler reuses its density-matrix frontier buffers
//! across all trials instead of reallocating three matrices per node per
//! round.

use qsim::random::CounterRng;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Trials per RNG-stream block. Fixed — it is part of the determinism
/// contract: changing it changes which trial consumes which random draw, so
/// accept counts would differ (across versions, never across worker counts).
pub const BLOCK_TRIALS: u64 = 8192;

/// Version of the block contract: which accept count a block of a given
/// `(plan, seed, block)` produces. Persisted block counts (the service
/// journal's `blk` lines) are trusted only under the value that wrote them.
/// Bump it whenever a block's accept count can change — a new
/// [`BLOCK_TRIALS`], stream derivation or coin-word layout. Version 2: the
/// multi-word lane walk, which changed the counts of chains with more than
/// 62 intermediate nodes.
pub const BLOCK_CONTRACT: u64 = 2;

/// Shared statistical bounds for the Monte-Carlo test batteries.
///
/// The integration suites (`integration_sampled_rounds`,
/// `integration_transport_rounds`, `integration_adversarial`) all assert
/// measured rates against exact probabilities through the same two
/// instruments; they live here — next to the engine whose outputs they
/// bound — instead of being copy-pasted per test file.
pub mod stats {
    /// Confidence parameter of the suite-wide default margin: a correct
    /// sampler violates a [`hoeffding_margin`] assertion with probability
    /// ≤ 1e-9 per check, so a battery of thousands of checks still fails
    /// spuriously less than once in a million runs.
    pub const SUITE_DELTA: f64 = 1e-9;

    /// Two-sided Hoeffding deviation `ε` such that
    /// `Pr[|p̂ − p| ≥ ε] ≤ delta` for a correct Bernoulli sampler over
    /// `trials` draws: `ε = sqrt(ln(2/δ) / (2n))`.
    pub fn hoeffding_radius(trials: u64, delta: f64) -> f64 {
        if trials == 0 {
            return 1.0;
        }
        (f64::ln(2.0 / delta) / (2.0 * trials as f64)).sqrt()
    }

    /// [`hoeffding_radius`] at the suite-wide [`SUITE_DELTA`].
    pub fn hoeffding_margin(trials: u64) -> f64 {
        hoeffding_radius(trials, SUITE_DELTA)
    }

    /// Wilson score interval for a true Bernoulli probability given
    /// `successes` out of `trials` at normal quantile `z` (e.g. `z = 1.96`
    /// for 95%): the binomial interval that stays inside `[0, 1]` and
    /// behaves at the boundary rates the protocols actually produce
    /// (completeness ≈ 1).
    pub fn wilson_interval(successes: u64, trials: u64, z: f64) -> (f64, f64) {
        if trials == 0 {
            return (0.0, 1.0);
        }
        let n = trials as f64;
        let p = successes as f64 / n;
        let z2 = z * z;
        let denom = 1.0 + z2 / n;
        let centre = p + z2 / (2.0 * n);
        let spread = z * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt();
        (
            ((centre - spread) / denom).clamp(0.0, 1.0),
            ((centre + spread) / denom).clamp(0.0, 1.0),
        )
    }
}

/// Length of block `b` when `n` trials split into `nblocks` fixed-size
/// blocks: [`BLOCK_TRIALS`] everywhere except a shorter final remainder
/// block when `n` is not a multiple (a full final block when it is).
pub(crate) fn block_len(n: u64, nblocks: u64, b: u64) -> u64 {
    if b + 1 == nblocks && !n.is_multiple_of(BLOCK_TRIALS) {
        n % BLOCK_TRIALS
    } else {
        BLOCK_TRIALS
    }
}

/// The RNG coordinate of one trial block: hands samplers the stream
/// families derived from `(seed, block)` — see the module docs.
#[derive(Clone, Copy, Debug)]
pub struct BlockRng {
    seed: u64,
    block: u64,
    trial_key: u64,
    noise_key: u64,
}

/// Salt separating the noise-draw stream family from the coin/accept family.
/// An arbitrary odd 64-bit constant; it is finalised through a SplitMix64
/// round in [`BlockRng::new`], so the two families share no linear structure.
const NOISE_STREAM_SALT: u64 = 0xB5AD_4ECE_DA1C_E2A9;

impl BlockRng {
    /// The coordinate of block `block` under master seed `seed`.
    pub fn new(seed: u64, block: u64) -> Self {
        let trial_key = CounterRng::block_key(seed, block);
        BlockRng {
            seed,
            block,
            trial_key,
            noise_key: CounterRng::block_key(trial_key, NOISE_STREAM_SALT),
        }
    }

    /// The block's index.
    pub fn block(&self) -> u64 {
        self.block
    }

    /// A sequential per-block stream (`StdRng` seeded from `seed` and the
    /// block index through the golden-ratio stride) for loops that walk
    /// rounds one at a time outside the trial engine.
    pub fn block_rng(&self) -> StdRng {
        StdRng::seed_from_u64(
            self.seed
                ^ self
                    .block
                    .wrapping_add(1)
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15),
        )
    }

    /// The counter-based stream of trial `trial` (0-based within the block):
    /// independent per trial, so draws never depend on lane grouping.
    #[inline]
    pub fn trial_rng(&self, trial: u64) -> CounterRng {
        CounterRng::for_trial_key(self.trial_key, trial)
    }

    /// The counter-based **noise-draw** stream of trial `trial`: the same
    /// `(block key, trial index)` derivation as [`BlockRng::trial_rng`], but
    /// keyed through a separate salt, so noise-branch selections are a
    /// pure per-trial function that never consumes from — and therefore never
    /// perturbs — the coin/accept draw schedule. Toggling a noise model off
    /// reproduces the noise-free accept counts bit-exactly (pinned by the
    /// adversarial integration suite).
    #[inline]
    pub fn noise_rng(&self, trial: u64) -> CounterRng {
        CounterRng::for_trial_key(self.noise_key, trial)
    }

    /// The coordinate of message-passing trial `trial` (0-based within the
    /// block): its fault salt and its per-node streams. The trial's key is
    /// finalised through a SplitMix64 round, so it shares no linear
    /// structure with [`BlockRng::trial_rng`]`(trial)`.
    #[inline]
    pub fn trial(&self, trial: u64) -> TrialStreams {
        TrialStreams {
            key: CounterRng::block_key(self.trial_key, trial),
        }
    }

    /// Fills one lane batch of per-trial draws starting at trial `t0`:
    /// `words.len() / draws.len()` coin-word planes (plane-major) followed
    /// by one accept draw per lane, bit-identical to pulling the same draws
    /// from [`BlockRng::trial_rng`] lane by lane — but evaluated four
    /// trials per instruction when the `qsim::simd` AVX2 path is selected.
    #[inline]
    pub fn fill_lane_streams(&self, t0: u64, words: &mut [u64], draws: &mut [f64]) {
        qsim::simd::fill_trial_streams(self.trial_key, t0, words, draws);
    }
}

/// The RNG coordinate of one message-passing trial ([`BlockRng::trial`]):
/// the trial's fault salt and one counter stream per network node. Both
/// are pure functions of `(seed, block, trial, node)`, so a node's draws do
/// not depend on which other nodes ran, in what order, or whether an
/// earlier trial faulted.
#[derive(Clone, Copy, Debug)]
pub struct TrialStreams {
    key: u64,
}

impl TrialStreams {
    /// The trial's fault salt: the first word of the stream at the trial's
    /// own key, which every node stream is keyed apart from.
    #[inline]
    pub fn salt(&self) -> u64 {
        CounterRng::new(self.key).next_u64()
    }

    /// The stream of network node `node` in this trial.
    #[inline]
    pub fn node_rng(&self, node: usize) -> CounterRng {
        CounterRng::for_trial_key(self.key, node as u64)
    }
}

/// A prepared sampler that can run a block of protocol rounds.
///
/// Implementations must make a block's accept count a pure function of
/// `(self, trials, stream)` — independent of the worker thread — to
/// preserve the engine's determinism guarantee.
pub trait BatchSampler: Sync {
    /// Per-worker scratch, built once on each worker thread and reused
    /// across the blocks that thread samples.
    type Scratch;

    /// Builds one scratch arena.
    fn scratch(&self) -> Self::Scratch;

    /// Runs `trials` rounds drawing from `stream`, returning the accept
    /// count.
    fn sample_block(&self, trials: u64, scratch: &mut Self::Scratch, stream: &BlockRng) -> u64;
}

/// Hard upper bound on the lane width of [`LaneBatched::sample_lane_block`]:
/// implementations keep their per-lane planes in fixed stack arrays of this
/// size.
pub const MAX_LANES: usize = 64;

/// The lane width the [`BatchSampler`] forwarding impls of the lane-batched
/// plans use: 32 lanes — eight AVX2 registers of accumulators, deep enough
/// to overlap the table-gather latency of consecutive chunks while the
/// lane planes (coin words, accept draws, accumulators) stay inside one
/// cache line pair each. Measured on the reference Xeon it is the scalar
/// path's best width and within a few percent of the AVX2 path's.
pub fn default_lane_width() -> usize {
    32
}

/// A plan whose rounds run as a lane batch of trials in lockstep over
/// SoA-across-trials buffers.
///
/// The contract on top of [`BatchSampler`]'s purity requirement: the accept
/// count must be **identical for every `lanes` value** in
/// `1..=`[`MAX_LANES`]. Implementations get this by drawing each trial's
/// randomness from [`BlockRng::trial_rng`] (a pure function of the trial
/// index) and keeping every cross-lane operation elementwise.
pub trait LaneBatched: Sync {
    /// Runs `trials` rounds in lane batches of (at most) `lanes`, returning
    /// the accept count.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is `0` or exceeds [`MAX_LANES`].
    fn sample_lane_block(&self, trials: u64, stream: &BlockRng, lanes: usize) -> u64;
}

/// A [`LaneBatched`] plan pinned to an explicit lane width — the adapter the
/// lane-invariance tests drive through [`run_trials_with_workers`].
#[derive(Clone, Copy, Debug)]
pub struct LanePinned<'a, S: LaneBatched> {
    inner: &'a S,
    lanes: usize,
}

/// Pins `sampler` to an explicit lane width (see [`LanePinned`]).
///
/// # Panics
///
/// Panics if `lanes` is `0` or exceeds [`MAX_LANES`].
pub fn with_lane_width<S: LaneBatched>(sampler: &S, lanes: usize) -> LanePinned<'_, S> {
    assert!(
        (1..=MAX_LANES).contains(&lanes),
        "lane width {lanes} outside 1..={MAX_LANES}"
    );
    LanePinned {
        inner: sampler,
        lanes,
    }
}

impl<S: LaneBatched> BatchSampler for LanePinned<'_, S> {
    type Scratch = ();
    fn scratch(&self) {}
    fn sample_block(&self, trials: u64, _scratch: &mut (), stream: &BlockRng) -> u64 {
        self.inner.sample_lane_block(trials, stream, self.lanes)
    }
}

/// The outcome of a batched trial run.
#[derive(Clone, Debug)]
pub struct TrialReport {
    /// Number of sampled rounds.
    pub trials: u64,
    /// Number of accepting rounds.
    pub accepts: u64,
    /// Threads the run was spread over — the *effective* width:
    /// the requested worker count clamped to the number of RNG blocks
    /// (`⌈trials / BLOCK_TRIALS⌉`), since a block is the dispatch unit.
    pub workers: usize,
    /// Wall-clock duration of the batch.
    pub elapsed: Duration,
}

impl TrialReport {
    /// Empirical acceptance rate `accepts / trials` (0 when empty).
    pub fn acceptance_rate(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            self.accepts as f64 / self.trials as f64
        }
    }

    /// Empirical rejection rate `1 − acceptance`.
    pub fn rejection_rate(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            1.0 - self.acceptance_rate()
        }
    }

    /// Wilson score interval for the true acceptance probability at normal
    /// quantile `z` — see [`stats::wilson_interval`].
    pub fn wilson_interval(&self, z: f64) -> (f64, f64) {
        stats::wilson_interval(self.accepts, self.trials, z)
    }

    /// Two-sided Hoeffding deviation ε such that
    /// `Pr[|p̂ − p| ≥ ε] ≤ delta` for a correct Bernoulli sampler — see
    /// [`stats::hoeffding_radius`].
    pub fn hoeffding_radius(&self, delta: f64) -> f64 {
        stats::hoeffding_radius(self.trials, delta)
    }

    /// Nanoseconds of wall clock per sampled round.
    pub fn ns_per_round(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            self.elapsed.as_nanos() as f64 / self.trials as f64
        }
    }

    /// Sampled rounds per second of wall clock.
    pub fn rounds_per_sec(&self) -> f64 {
        let ns = self.ns_per_round();
        if ns == 0.0 {
            0.0
        } else {
            1e9 / ns
        }
    }
}

/// Runs `n` trials of `sampler` under master seed `seed` on at most
/// `workers` threads: the calling thread and `workers − 1` scoped threads
/// spawned for this call (`1` runs inline, in block order). The accept
/// count is identical for every `workers` value (see the module docs); only
/// the wall clock changes, so the width is the caller's choice.
/// The report's `elapsed` covers this call only, not building `sampler`.
pub fn run_trials_with_workers<S: BatchSampler>(
    sampler: &S,
    n: u64,
    seed: u64,
    workers: usize,
) -> TrialReport {
    let start = Instant::now();
    let (accepts, workers) = run_blocks(
        n,
        seed,
        workers,
        || sampler.scratch(),
        |len, scratch, stream| sampler.sample_block(len, scratch, stream),
        |total: &mut u64, a| *total += a,
    );
    TrialReport {
        trials: n,
        accepts,
        workers,
        elapsed: start.elapsed(),
    }
}

/// The block-dispatch loop behind both runners: samples every block of `n`
/// trials on at most `workers` threads and folds the per-block results with
/// `merge`, which must be commutative since blocks are claimed dynamically.
/// The calling thread is one of the workers; the others are scoped threads
/// spawned for this call. Each worker builds its own scratch, claims blocks
/// from one shared counter and folds its own partial, which the caller
/// merges after joining; a worker's panic is re-raised with its payload. At
/// one worker the caller samples every block inline, in block order.
/// Returns the folded result and the effective width: a block is the
/// dispatch unit, so more workers than blocks cannot engage.
fn run_blocks<T, Scr>(
    n: u64,
    seed: u64,
    workers: usize,
    scratch: impl Fn() -> Scr + Sync,
    sample: impl Fn(u64, &mut Scr, &BlockRng) -> T + Sync,
    merge: impl Fn(&mut T, T) + Sync,
) -> (T, usize)
where
    T: Default + Send,
{
    let nblocks = n.div_ceil(BLOCK_TRIALS);
    let workers = workers.clamp(1, (nblocks as usize).max(1));
    let next = AtomicU64::new(0);
    let work = || {
        let mut s = scratch();
        let mut partial = T::default();
        loop {
            // Relaxed: the counter only hands out block indices; each
            // partial reaches the caller through `join`.
            let b = next.fetch_add(1, Ordering::Relaxed);
            if b >= nblocks {
                return partial;
            }
            merge(
                &mut partial,
                sample(block_len(n, nblocks, b), &mut s, &BlockRng::new(seed, b)),
            );
        }
    };
    let total = std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..workers).map(|_| scope.spawn(work)).collect();
        let mut total = work();
        for h in helpers {
            match h.join() {
                Ok(partial) => merge(&mut total, partial),
                Err(payload) => resume_unwind(payload),
            }
        }
        total
    });
    (total, workers)
}

/// Runs up to `n` trials of `sampler` under master seed `seed`, serially and
/// in block order, stopping at the first block boundary past `deadline`
/// (when given). Returns a [`TrialReport`] over the trials actually
/// completed — a *partial* report whose `trials` field may be any prefix
/// `k · BLOCK_TRIALS ≤ n` of the request (plus the short tail block when the
/// run completes). Because blocks run strictly in order, the completed
/// prefix is bit-identical to the same prefix of an unbounded
/// [`run_trials_with_workers`] run at any width: deadline expiry never
/// changes *which* rounds were sampled, only how many.
/// This is the property the serving layer's crash-recovery journal relies
/// on (see [`crate::service`]).
///
/// For each block `b` (in order), the engine first consults
/// `cached(b)`; a `Some(accepts)` is taken as the block's accept count
/// without sampling (the caller vouches it came from an identical
/// `(sampler, seed, block)` run — block determinism makes such reuse exact).
/// Freshly sampled blocks are reported to `observe(b, len, accepts)` before
/// the next block starts, which is the journaling hook: a crash loses at
/// most the block in flight, and replaying observed blocks through `cached`
/// resumes the run bit-identically.
///
/// The deadline is checked at block boundaries only (a block is the unit of
/// both dispatch and determinism), and cached blocks never consume budget.
pub fn run_trials_observed<S: BatchSampler>(
    sampler: &S,
    n: u64,
    seed: u64,
    deadline: Option<Instant>,
    cached: &mut dyn FnMut(u64) -> Option<u64>,
    observe: &mut dyn FnMut(u64, u64, u64),
) -> TrialReport {
    let start = Instant::now();
    let nblocks = n.div_ceil(BLOCK_TRIALS);
    let mut scratch = sampler.scratch();
    let mut done: u64 = 0;
    let mut accepts: u64 = 0;
    for b in 0..nblocks {
        let len = block_len(n, nblocks, b);
        if let Some(a) = cached(b) {
            done += len;
            accepts += a;
            continue;
        }
        if deadline.is_some_and(|d| Instant::now() >= d) {
            break;
        }
        let a = sampler.sample_block(len, &mut scratch, &BlockRng::new(seed, b));
        observe(b, len, a);
        done += len;
        accepts += a;
    }
    TrialReport {
        trials: done,
        accepts,
        workers: 1,
        elapsed: start.elapsed(),
    }
}

// ---------------------------------------------------------------------------
// Three-way outcome engine (transport-backed rounds)
// ---------------------------------------------------------------------------

/// Tallies of one block of transport-backed rounds. Unlike the boolean
/// accept count of [`BatchSampler`], fault-injected rounds terminate in one
/// of *three* states (accept / reject / abort-with-cause), and the engine
/// additionally folds a transcript digest for the reproducibility tests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BlockOutcomes {
    /// Rounds where every verifier completed and all accepted.
    pub accepts: u64,
    /// Rounds where every verifier completed and at least one rejected.
    pub rejects: u64,
    /// Rounds that aborted on a fault (`RoundOutcome::Aborted`).
    pub aborts: u64,
    /// Envelope transmissions (including retransmissions).
    pub messages: u64,
    /// Retransmissions alone.
    pub retries: u64,
    /// XOR-fold of per-delivery transcript hashes. XOR is commutative, so
    /// the digest — like the counts — is bit-identical at any worker count.
    pub digest: u64,
}

impl BlockOutcomes {
    /// Accumulates `other` (commutative, so block merge order is free).
    pub fn merge(&mut self, other: &BlockOutcomes) {
        self.accepts += other.accepts;
        self.rejects += other.rejects;
        self.aborts += other.aborts;
        self.messages += other.messages;
        self.retries += other.retries;
        self.digest ^= other.digest;
    }
}

/// A prepared sampler producing three-way [`BlockOutcomes`] per block; the
/// same purity requirement as [`BatchSampler`] applies (a block's outcome
/// depends only on `(self, trials, stream)`).
pub trait OutcomeSampler: Sync {
    /// Per-worker scratch (typically a transport instance), built once on
    /// each worker thread and reused across blocks.
    type Scratch;

    /// Builds one scratch arena.
    fn scratch(&self) -> Self::Scratch;

    /// Runs `trials` rounds drawing from `stream`, tallying their outcomes.
    fn sample_block(
        &self,
        trials: u64,
        scratch: &mut Self::Scratch,
        stream: &BlockRng,
    ) -> BlockOutcomes;
}

/// The outcome of a batched three-way trial run.
#[derive(Clone, Debug)]
pub struct OutcomeReport {
    /// Number of sampled rounds.
    pub trials: u64,
    /// Merged per-block tallies.
    pub outcomes: BlockOutcomes,
    /// Effective dispatch width (see [`TrialReport::workers`]).
    pub workers: usize,
    /// Wall-clock duration of the batch.
    pub elapsed: Duration,
}

impl OutcomeReport {
    /// Empirical accept rate `accepts / trials` (0 when empty). Aborted
    /// rounds count against acceptance — graceful degradation shows up as a
    /// completeness loss, exactly what the fault sweeps chart.
    pub fn accept_rate(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            self.outcomes.accepts as f64 / self.trials as f64
        }
    }

    /// Empirical abort rate `aborts / trials` (0 when empty).
    pub fn abort_rate(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            self.outcomes.aborts as f64 / self.trials as f64
        }
    }

    /// Two-sided Hoeffding deviation for the accept rate; see
    /// [`stats::hoeffding_radius`].
    pub fn hoeffding_radius(&self, delta: f64) -> f64 {
        stats::hoeffding_radius(self.trials, delta)
    }

    /// Nanoseconds of wall clock per sampled round.
    pub fn ns_per_round(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            self.elapsed.as_nanos() as f64 / self.trials as f64
        }
    }

    /// Sampled rounds per second of wall clock.
    pub fn rounds_per_sec(&self) -> f64 {
        let ns = self.ns_per_round();
        if ns == 0.0 {
            0.0
        } else {
            1e9 / ns
        }
    }
}

/// Runs `n` three-way trials of `sampler` under master seed `seed` on at
/// most `workers` threads, exactly as [`run_trials_with_workers`] spreads
/// its blocks. The same block-index determinism contract holds: counts
/// *and* the transcript digest are bit-identical at every worker count.
pub fn run_outcome_trials_with_workers<S: OutcomeSampler>(
    sampler: &S,
    n: u64,
    seed: u64,
    workers: usize,
) -> OutcomeReport {
    let start = Instant::now();
    let (outcomes, workers) = run_blocks(
        n,
        seed,
        workers,
        || sampler.scratch(),
        |len, scratch, stream| sampler.sample_block(len, scratch, stream),
        |total: &mut BlockOutcomes, o| total.merge(&o),
    );
    OutcomeReport {
        trials: n,
        outcomes,
        workers,
        elapsed: start.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use std::collections::HashSet;
    use std::panic::AssertUnwindSafe;
    use std::sync::atomic::AtomicBool;
    use std::sync::Mutex;
    use std::thread::ThreadId;

    /// A Bernoulli(p) sampler whose scratch counts the blocks it served —
    /// enough to pin the engine's plumbing without any protocol machinery.
    struct Coin {
        p: f64,
    }

    impl BatchSampler for Coin {
        type Scratch = u64;
        fn scratch(&self) -> u64 {
            0
        }
        fn sample_block(&self, trials: u64, scratch: &mut u64, stream: &BlockRng) -> u64 {
            *scratch += 1;
            (0..trials)
                .filter(|&t| stream.trial_rng(t).random::<f64>() < self.p)
                .count() as u64
        }
    }

    /// A lane-batched Bernoulli(p) sampler drawing per-trial counter
    /// streams — pins the grouping-invariance contract without any protocol
    /// machinery.
    struct LaneCoin {
        p: f64,
    }

    impl LaneBatched for LaneCoin {
        fn sample_lane_block(&self, trials: u64, stream: &BlockRng, lanes: usize) -> u64 {
            assert!((1..=MAX_LANES).contains(&lanes));
            let mut draw = [0.0f64; MAX_LANES];
            let mut acc = [0.0f64; MAX_LANES];
            let mut accepts = 0u64;
            let mut t = 0u64;
            while t < trials {
                let l = (lanes as u64).min(trials - t) as usize;
                for (i, d) in draw[..l].iter_mut().enumerate() {
                    *d = stream.trial_rng(t + i as u64).random::<f64>();
                }
                acc[..l].fill(self.p);
                accepts += qsim::simd::count_accepts(&draw[..l], &acc[..l]);
                t += l as u64;
            }
            accepts
        }
    }

    #[test]
    fn accept_counts_are_identical_across_worker_counts() {
        let coin = Coin { p: 0.37 };
        let n = 3 * BLOCK_TRIALS + 1234;
        let base = run_trials_with_workers(&coin, n, 99, 1);
        for workers in [2usize, 4, 8] {
            let r = run_trials_with_workers(&coin, n, 99, workers);
            assert_eq!(
                r.accepts, base.accepts,
                "accept count must not depend on worker count ({workers})"
            );
            assert_eq!(r.trials, n);
        }
    }

    /// Records which thread sampled each block, runs `hold` on that thread,
    /// then accepts every trial of the block.
    struct Probe<'a, F: Fn(u64) + Sync> {
        seen: &'a Mutex<Vec<(u64, ThreadId)>>,
        hold: F,
    }

    impl<F: Fn(u64) + Sync> BatchSampler for Probe<'_, F> {
        type Scratch = ();
        fn scratch(&self) {}
        fn sample_block(&self, trials: u64, _scratch: &mut (), stream: &BlockRng) -> u64 {
            let me = std::thread::current().id();
            self.seen.lock().unwrap().push((stream.block(), me));
            (self.hold)(stream.block());
            trials
        }
    }

    /// How long a probe holds a block waiting for another thread.
    const HOLD: Duration = Duration::from_secs(2);

    /// Sleeps in short steps until `done` holds or `limit` has passed.
    fn wait_until(limit: Duration, done: impl Fn() -> bool) {
        let start = Instant::now();
        while !done() && start.elapsed() < limit {
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// Distinct threads among the recorded samples.
    fn threads(seen: &Mutex<Vec<(u64, ThreadId)>>) -> usize {
        let seen = seen.lock().unwrap();
        seen.iter().map(|&(_, t)| t).collect::<HashSet<_>>().len()
    }

    /// Blocks in a probe run: twelve full ones and a five-trial tail.
    const PROBE_BLOCKS: u64 = 13;

    /// Runs a non-holding probe over [`PROBE_BLOCKS`] blocks at `workers`
    /// and returns the report with every `(block, thread)` sample.
    fn probe_run(workers: usize) -> (TrialReport, Mutex<Vec<(u64, ThreadId)>>) {
        let n = (PROBE_BLOCKS - 1) * BLOCK_TRIALS + 5;
        let seen = Mutex::new(Vec::new());
        let probe = Probe {
            seen: &seen,
            hold: |_| {},
        };
        let r = run_trials_with_workers(&probe, n, 3, workers);
        assert_eq!((r.trials, r.accepts), (n, n), "workers = {workers}");
        (r, seen)
    }

    #[test]
    fn every_block_is_sampled_exactly_once_at_any_width() {
        let nblocks = PROBE_BLOCKS;
        let me = std::thread::current().id();
        for workers in [1usize, 2, 4, 8] {
            let (_, seen) = probe_run(workers);
            let mut seen = seen.into_inner().unwrap();
            if workers == 1 {
                // Inline, in block order, on the calling thread.
                let inline: Vec<_> = (0..nblocks).map(|b| (b, me)).collect();
                assert_eq!(seen, inline);
            }
            seen.sort_unstable_by_key(|&(b, _)| b);
            let blocks: Vec<u64> = seen.iter().map(|&(b, _)| b).collect();
            assert_eq!(
                blocks,
                (0..nblocks).collect::<Vec<_>>(),
                "workers = {workers}"
            );
        }
    }

    #[test]
    fn a_run_samples_on_at_most_the_reported_workers() {
        for workers in [1usize, 2, 4, 8] {
            let (r, seen) = probe_run(workers);
            assert_eq!(r.workers, workers);
            let used = threads(&seen);
            assert!(
                (1..=r.workers).contains(&used),
                "{used} threads sampled at workers = {workers}"
            );
        }
    }

    #[test]
    fn a_block_panic_reaches_the_caller_with_its_message() {
        let caller = std::thread::current().id();
        for (on_caller, name) in [(true, "calling"), (false, "spawned")] {
            let seen = Mutex::new(Vec::new());
            // Two blocks at width 2: each thread holds its block until both
            // threads have claimed one, so the named thread is the one that
            // panics.
            let probe = Probe {
                seen: &seen,
                hold: |_| {
                    wait_until(HOLD, || threads(&seen) == 2);
                    if (std::thread::current().id() == caller) == on_caller {
                        panic!("block panic on the {name} thread");
                    }
                },
            };
            let payload = std::panic::catch_unwind(AssertUnwindSafe(|| {
                run_trials_with_workers(&probe, 2 * BLOCK_TRIALS, 5, 2)
            }))
            .expect_err("the block panic must reach the caller");
            let message = payload.downcast_ref::<String>().cloned();
            assert_eq!(
                message.as_deref(),
                Some(format!("block panic on the {name} thread").as_str())
            );
        }
        // A later run at the same width still equals the width-1 count.
        let coin = Coin { p: 0.37 };
        let n = 3 * BLOCK_TRIALS + 1234;
        assert_eq!(
            run_trials_with_workers(&coin, n, 99, 2).accepts,
            run_trials_with_workers(&coin, n, 99, 1).accepts
        );
    }

    #[test]
    fn concurrent_wide_runs_each_get_their_own_threads() {
        let (a_seen, b_seen) = (Mutex::new(Vec::new()), Mutex::new(Vec::new()));
        let b_done = AtomicBool::new(false);
        // Run A holds each of its blocks until run B has finished.
        let a = Probe {
            seen: &a_seen,
            hold: |_| wait_until(5 * HOLD, || b_done.load(Ordering::Acquire)),
        };
        // Run B's first block waits until a second thread has sampled for B.
        let b = Probe {
            seen: &b_seen,
            hold: |block| {
                if block == 0 {
                    wait_until(HOLD, || threads(&b_seen) == 2);
                }
            },
        };
        let n = 2 * BLOCK_TRIALS;
        std::thread::scope(|scope| {
            let run_a = scope.spawn(|| run_trials_with_workers(&a, n, 1, 2));
            wait_until(HOLD, || !a_seen.lock().unwrap().is_empty());
            assert!(!a_seen.lock().unwrap().is_empty(), "run A never started");
            let rb = run_trials_with_workers(&b, n, 2, 2);
            b_done.store(true, Ordering::Release);
            let ra = run_a.join().unwrap();
            assert_eq!((ra.accepts, rb.accepts), (n, n));
            assert_eq!((ra.workers, rb.workers), (2, 2));
        });
        assert_eq!(
            threads(&b_seen),
            2,
            "run B, started while run A was inside a block, ran on one thread"
        );
    }

    #[test]
    fn different_seeds_give_different_streams() {
        let coin = Coin { p: 0.5 };
        let a = run_trials_with_workers(&coin, 2 * BLOCK_TRIALS, 1, 1);
        let b = run_trials_with_workers(&coin, 2 * BLOCK_TRIALS, 2, 1);
        assert_ne!(a.accepts, b.accepts, "distinct seeds should diverge");
    }

    #[test]
    fn rate_tracks_the_true_probability() {
        let coin = Coin { p: 0.25 };
        let r = run_trials_with_workers(&coin, 100_000, 7, 1);
        let eps = r.hoeffding_radius(1e-9);
        assert!(
            (r.acceptance_rate() - 0.25).abs() < eps,
            "rate {} vs 0.25 (margin {eps})",
            r.acceptance_rate()
        );
        let (lo, hi) = r.wilson_interval(5.0);
        assert!(lo <= 0.25 && 0.25 <= hi, "wilson ({lo}, {hi}) misses 0.25");
    }

    #[test]
    fn partial_last_block_and_empty_runs_are_handled() {
        let coin = Coin { p: 1.0 };
        let r = run_trials_with_workers(&coin, BLOCK_TRIALS + 17, 3, 1);
        assert_eq!(r.accepts, BLOCK_TRIALS + 17);
        let zero = run_trials_with_workers(&coin, 0, 3, 1);
        assert_eq!(zero.trials, 0);
        assert_eq!(zero.accepts, 0);
        assert_eq!(zero.acceptance_rate(), 0.0);
        let small = run_trials_with_workers(&coin, 5, 3, 1);
        assert_eq!(small.accepts, 5);
    }

    /// A three-way sampler splitting trials accept/reject/abort by two
    /// thresholds, with a toy digest — pins the outcome engine's plumbing.
    struct ThreeWay {
        accept: f64,
        abort: f64,
    }

    impl OutcomeSampler for ThreeWay {
        type Scratch = ();
        fn scratch(&self) {}
        fn sample_block(&self, trials: u64, _s: &mut (), stream: &BlockRng) -> BlockOutcomes {
            let mut out = BlockOutcomes::default();
            for t in 0..trials {
                let x: f64 = stream.trial_rng(t).random();
                if x < self.abort {
                    out.aborts += 1;
                } else if x < self.abort + self.accept {
                    out.accepts += 1;
                } else {
                    out.rejects += 1;
                }
                out.messages += 2;
                out.digest ^= x.to_bits().rotate_left(out.accepts as u32);
            }
            out
        }
    }

    #[test]
    fn outcome_engine_is_worker_invariant_including_digest() {
        let s = ThreeWay {
            accept: 0.5,
            abort: 0.2,
        };
        let n = 3 * BLOCK_TRIALS + 77;
        let base = run_outcome_trials_with_workers(&s, n, 13, 1);
        assert_eq!(
            base.outcomes.accepts + base.outcomes.rejects + base.outcomes.aborts,
            n,
            "every trial must terminate in exactly one outcome"
        );
        for workers in [2usize, 4, 8] {
            let r = run_outcome_trials_with_workers(&s, n, 13, workers);
            assert_eq!(r.outcomes, base.outcomes, "workers = {workers}");
        }
        let other = run_outcome_trials_with_workers(&s, n, 14, 1);
        assert_ne!(other.outcomes.digest, base.outcomes.digest);
    }

    #[test]
    fn block_len_is_full_on_exact_multiples_and_truncates_the_tail() {
        // Exact multiple: every block — including the last — is full.
        let n = 3 * BLOCK_TRIALS;
        let nblocks = n.div_ceil(BLOCK_TRIALS);
        assert_eq!(nblocks, 3);
        for b in 0..nblocks {
            assert_eq!(block_len(n, nblocks, b), BLOCK_TRIALS, "block {b}");
        }
        // Remainder: only the final block shortens.
        let n = 3 * BLOCK_TRIALS + 17;
        let nblocks = n.div_ceil(BLOCK_TRIALS);
        assert_eq!(nblocks, 4);
        assert_eq!(block_len(n, nblocks, 0), BLOCK_TRIALS);
        assert_eq!(block_len(n, nblocks, 2), BLOCK_TRIALS);
        assert_eq!(block_len(n, nblocks, 3), 17);
        // Sub-block run: one short block.
        assert_eq!(block_len(5, 1, 0), 5);
        // Engine-level pin of the exact-multiple boundary: totals add up.
        let r = run_trials_with_workers(&Coin { p: 1.0 }, 2 * BLOCK_TRIALS, 3, 1);
        assert_eq!(r.accepts, 2 * BLOCK_TRIALS);
    }

    #[test]
    fn lane_batched_accepts_are_invariant_across_lane_widths_and_workers() {
        let coin = LaneCoin { p: 0.37 };
        let n = 3 * BLOCK_TRIALS + 1234;
        let base = run_trials_with_workers(&with_lane_width(&coin, 1), n, 99, 1);
        for lanes in [2usize, 4, 8, 16, 63, MAX_LANES] {
            for workers in [1usize, 2, 4] {
                let r = run_trials_with_workers(&with_lane_width(&coin, lanes), n, 99, workers);
                assert_eq!(
                    r.accepts, base.accepts,
                    "lane width {lanes} × workers {workers} must not change accepts"
                );
            }
        }
        // The counter streams really are per-trial: a different seed moves
        // the count, so the invariance above is not vacuous.
        let other = run_trials_with_workers(&with_lane_width(&coin, 4), n, 100, 1);
        assert_ne!(other.accepts, base.accepts);
    }

    #[test]
    #[should_panic(expected = "lane width")]
    fn lane_width_zero_is_rejected() {
        let coin = LaneCoin { p: 0.5 };
        let _ = with_lane_width(&coin, 0);
    }

    #[test]
    fn noise_stream_is_a_distinct_deterministic_family() {
        use rand::RngCore;
        let b = BlockRng::new(42, 3);
        // Same (seed, block, trial) coordinate, different stream family.
        assert_ne!(b.trial_rng(7).next_u64(), b.noise_rng(7).next_u64());
        // Pure function of the coordinate: reopening reproduces the draws.
        assert_eq!(
            b.noise_rng(7).next_u64(),
            BlockRng::new(42, 3).noise_rng(7).next_u64()
        );
        // Distinct trials and blocks give distinct noise streams.
        assert_ne!(b.noise_rng(7).next_u64(), b.noise_rng(8).next_u64());
        assert_ne!(
            b.noise_rng(7).next_u64(),
            BlockRng::new(42, 4).noise_rng(7).next_u64()
        );
    }

    #[test]
    fn deadline_none_matches_unbounded_engine_bit_identically() {
        let coin = Coin { p: 0.37 };
        let n = 3 * BLOCK_TRIALS + 511;
        let full = run_trials_with_workers(&coin, n, 21, 1);
        let budgeted = run_trials_observed(&coin, n, 21, None, &mut |_| None, &mut |_, _, _| {});
        assert_eq!(budgeted.trials, full.trials);
        assert_eq!(budgeted.accepts, full.accepts);
    }

    #[test]
    fn expired_deadline_yields_an_empty_partial_report() {
        let coin = Coin { p: 0.5 };
        let past = Instant::now() - Duration::from_secs(1);
        let r = run_trials_observed(
            &coin,
            10 * BLOCK_TRIALS,
            7,
            Some(past),
            &mut |_| None,
            &mut |_, _, _| {},
        );
        assert_eq!(r.trials, 0);
        assert_eq!(r.accepts, 0);
        // A zero-trial report still carries a (vacuous) Wilson interval.
        assert_eq!(r.wilson_interval(1.96), (0.0, 1.0));
    }

    #[test]
    fn partial_prefixes_are_bit_identical_to_the_unbounded_run() {
        // Record per-block accepts of the unbounded run, then check that a
        // resumed run driven through the cache hook reproduces the total
        // without resampling the journaled prefix.
        let coin = Coin { p: 0.37 };
        let n = 5 * BLOCK_TRIALS + 100;
        let mut journal: Vec<(u64, u64, u64)> = Vec::new();
        let full = run_trials_observed(&coin, n, 33, None, &mut |_| None, &mut |b, len, a| {
            journal.push((b, len, a))
        });
        assert_eq!(journal.len(), 6);
        // Every observed prefix sums to a valid partial report.
        let prefix: u64 = journal[..3].iter().map(|&(_, _, a)| a).sum();
        // Resume: blocks 0..3 come from the "journal", the rest sample live.
        let mut resumed_fresh = 0u64;
        let resumed = run_trials_observed(
            &coin,
            n,
            33,
            None,
            &mut |b| (b < 3).then(|| journal[b as usize].2),
            &mut |_, _, _| resumed_fresh += 1,
        );
        assert_eq!(resumed_fresh, 3, "only the unjournaled blocks resample");
        assert_eq!(resumed.trials, full.trials);
        assert_eq!(
            resumed.accepts, full.accepts,
            "resume must be bit-identical"
        );
        assert_eq!(
            prefix + journal[3..].iter().map(|&(_, _, a)| a).sum::<u64>(),
            full.accepts
        );
    }

    #[test]
    fn stats_module_matches_report_methods() {
        let r = run_trials_with_workers(&Coin { p: 0.5 }, 10_000, 5, 1);
        assert_eq!(r.hoeffding_radius(1e-9), stats::hoeffding_margin(r.trials));
        assert_eq!(
            r.wilson_interval(1.96),
            stats::wilson_interval(r.accepts, r.trials, 1.96)
        );
        assert_eq!(stats::wilson_interval(0, 0, 1.96), (0.0, 1.0));
        assert_eq!(stats::hoeffding_radius(0, 1e-9), 1.0);
    }

    #[test]
    fn wilson_interval_stays_in_bounds_at_the_boundary() {
        let always = run_trials_with_workers(&Coin { p: 1.0 }, 1000, 11, 1);
        let (lo, hi) = always.wilson_interval(1.96);
        assert!(hi <= 1.0 && lo > 0.9, "interval ({lo}, {hi})");
        let never = run_trials_with_workers(&Coin { p: 0.0 }, 1000, 11, 1);
        let (lo, hi) = never.wilson_interval(1.96);
        assert!(lo >= 0.0 && hi < 0.1, "interval ({lo}, {hi})");
    }
}
