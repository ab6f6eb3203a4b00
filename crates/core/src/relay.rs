//! The relay-point protocol for EQ on long paths (Section 4.1, Algorithm 6,
//! Theorem 22).
//!
//! When the path length `r` is comparable to the input length `n`, the plain
//! fingerprint protocol's `O(r² log n)` *local* cost exceeds the trivial
//! classical protocol's `n` bits. The paper restores a quantum advantage in
//! **total** proof size by inserting relay points every `⌈n^{1/3}⌉` nodes:
//! relay points receive the full `n`-qubit string and measure it, and the
//! segments between relay points run the fingerprint chain with
//! `42·⌈n^{1/3}⌉²` repetitions. The total proof size is `Õ(r·n^{2/3})`,
//! beating both the trivial classical `Θ(r·n)` (every node gets the whole
//! string) and the classical lower bound `Ω(r·n)` of Section 4.2.

use crate::chain::{cheating_proof, ChainCheat, ChainRoundPlan, SwapTestChain};
use crate::trials::{default_lane_width, BatchSampler, BlockRng, LaneBatched, MAX_LANES};
use commproto::bitstring::BitString;
use commproto::fingerprint::FingerprintScheme;
use netsim::ProtocolCosts;
use rand::Rng;

/// The relay-point EQ protocol on a path of length `r` with `n`-bit inputs.
#[derive(Clone, Debug)]
pub struct RelayEqProtocol {
    n: usize,
    r: usize,
    spacing: usize,
    segment_repetitions: usize,
    scheme: FingerprintScheme,
}

impl RelayEqProtocol {
    /// Builds the protocol with the paper's parameters: relay spacing
    /// [`RelayEqProtocol::paper_spacing`] and `42·spacing²` repetitions per
    /// segment.
    pub fn new(n: usize, r: usize, seed: u64) -> Self {
        RelayEqProtocol::with_spacing(n, r, Self::paper_spacing(n), seed)
    }

    /// The paper's relay spacing for `n`-bit inputs, `⌈n^{1/3}⌉` (at least 1).
    pub fn paper_spacing(n: usize) -> usize {
        ((n as f64).powf(1.0 / 3.0).ceil() as usize).max(1)
    }

    /// The spacing that minimises the total proof of
    /// [`RelayEqProtocol::costs_for`] at `(n, r)`, found by a scan from 1.
    /// Past the minimum the `42·spacing²` repetition term dominates, so the
    /// scan stops once the total exceeds twice the best seen. It is about
    /// `n^{1/3}/16`, well below the paper's spacing.
    pub fn cost_minimising_spacing(n: usize, r: usize) -> usize {
        let total = |s| Self::costs_for(n, r, s).total_proof_qubits;
        let (mut best, mut best_total) = (1, total(1));
        for s in 2..=r.max(1) {
            let t = total(s);
            if t < best_total {
                (best, best_total) = (s, t);
            } else if t > 2 * best_total {
                break;
            }
        }
        best
    }

    /// Builds the protocol with an explicit relay spacing.
    pub fn with_spacing(n: usize, r: usize, spacing: usize, seed: u64) -> Self {
        assert!(spacing >= 1, "relay spacing must be at least 1");
        RelayEqProtocol {
            n,
            r,
            spacing,
            segment_repetitions: 42 * spacing * spacing,
            scheme: FingerprintScheme::new(n, seed),
        }
    }

    /// Input length in bits.
    pub fn input_len(&self) -> usize {
        self.n
    }

    /// Path length.
    pub fn path_length(&self) -> usize {
        self.r
    }

    /// Relay spacing (`⌈n^{1/3}⌉` in the paper).
    pub fn spacing(&self) -> usize {
        self.spacing
    }

    /// The node indices of the relay points (multiples of the spacing,
    /// excluding the extremities).
    pub fn relay_points(&self) -> Vec<usize> {
        (1..)
            .map(|k| k * self.spacing)
            .take_while(|&v| v < self.r)
            .collect()
    }

    /// The segment boundaries: extremities plus relay points, in order. Each
    /// consecutive pair delimits one fingerprint-chain segment.
    pub fn segment_boundaries(&self) -> Vec<usize> {
        let mut b = vec![0];
        b.extend(self.relay_points());
        b.push(self.r);
        b.dedup();
        b
    }

    /// The path's segments as `(left string, right string, length)` triples:
    /// the extremities hold `x` and `y`, relay points their announced
    /// strings. The single source of the boundary-resolution logic shared by
    /// the exact, sequential and batched evaluators.
    ///
    /// # Panics
    ///
    /// Panics if `relay_strings` does not have one entry per relay point.
    fn segments<'a>(
        &self,
        x: &'a BitString,
        y: &'a BitString,
        relay_strings: &'a [BitString],
    ) -> Vec<(&'a BitString, &'a BitString, usize)> {
        let relays = self.relay_points();
        assert_eq!(
            relay_strings.len(),
            relays.len(),
            "one classical string per relay point required"
        );
        // The string held at each boundary node.
        let string_at = move |b: usize| -> &'a BitString {
            if b == 0 {
                x
            } else if b == self.r {
                y
            } else {
                let idx = relays.iter().position(|&p| p == b).expect("relay boundary");
                &relay_strings[idx]
            }
        };
        self.segment_boundaries()
            .windows(2)
            .map(|w| (string_at(w[0]), string_at(w[1]), w[1] - w[0]))
            .collect()
    }

    /// The fingerprint chain of one segment, plus the proof the prover plays
    /// on it: honest when the endpoint strings agree, `cheat` otherwise.
    fn segment_chain(
        &self,
        left: &BitString,
        right: &BitString,
        seg_len: usize,
        cheat: ChainCheat,
    ) -> (SwapTestChain, crate::chain::SeparableChainProof) {
        let chain = SwapTestChain::new(
            seg_len,
            self.scheme.fingerprint(left),
            self.scheme.accept_effect(right),
        );
        let proof = if left == right {
            chain.honest_proof()
        } else {
            cheating_proof(&chain, &self.scheme.fingerprint(right), cheat)
        };
        (chain, proof)
    }

    /// Exact acceptance probability when the prover writes `relay_strings`
    /// (one `n`-bit string per relay point) into the relay registers and plays
    /// `cheat` on every segment whose endpoint strings differ.
    ///
    /// The extremities use their own inputs `x` and `y`; honest segments
    /// (equal endpoint strings) accept with probability 1.
    pub fn acceptance(
        &self,
        x: &BitString,
        y: &BitString,
        relay_strings: &[BitString],
        cheat: ChainCheat,
    ) -> f64 {
        let mut prob = 1.0;
        for (left, right, seg_len) in self.segments(x, y, relay_strings) {
            if left == right {
                continue; // segment accepts with certainty
            }
            let (chain, proof) = self.segment_chain(left, right, seg_len, cheat);
            let single = chain.acceptance_separable(&proof);
            prob *= SwapTestChain::repeated_soundness(single, self.segment_repetitions);
            if prob < 1e-300 {
                return 0.0;
            }
        }
        prob.clamp(0.0, 1.0)
    }

    /// Completeness witness: on a yes-instance the honest prover writes `x`
    /// into every relay point and every segment accepts with certainty.
    pub fn completeness(&self, x: &BitString) -> f64 {
        let strings = vec![x.clone(); self.relay_points().len()];
        self.acceptance(x, x, &strings, ChainCheat::AllLeft)
    }

    /// The prover's best acceptance on a no-instance when it interpolates the
    /// relay strings from `x` to `y` along the path (flipping bits gradually)
    /// — the natural optimal classical-relay cheat.
    pub fn best_interpolating_acceptance(&self, x: &BitString, y: &BitString) -> f64 {
        let relays = self.relay_points();
        let strings: Vec<BitString> = relays
            .iter()
            .map(|&p| {
                // Take a prefix of y's bits proportional to the position.
                let cut = (p * self.n) / self.r;
                let bits: Vec<bool> = (0..self.n)
                    .map(|i| if i < cut { y.bit(i) } else { x.bit(i) })
                    .collect();
                BitString::new(&bits)
            })
            .collect();
        self.acceptance(x, y, &strings, ChainCheat::Interpolate)
    }

    /// Samples one round of every segment chain (one repetition each):
    /// honest segments (equal endpoint strings) run the honest proof, the
    /// others the `cheat` strategy. Returns `true` when every node of every
    /// segment accepts.
    ///
    /// Each segment round goes through the chain's pure-state fast path
    /// ([`SwapTestChain::simulate_round`]) — no joint density matrix per
    /// segment. As in the protocol, every sampled round re-prepares each
    /// segment's boundary states (fingerprints, Bob's effect) and proof, so
    /// the per-round cost is dominated by that preparation; Monte-Carlo
    /// loops over a fixed instance should compile every segment into a
    /// [`ChainRoundPlan`] once with [`RelayEqProtocol::round_plan`] and run
    /// that plan through [`crate::trials::run_trials_with_workers`].
    pub fn simulate_round<R: rand::Rng + ?Sized>(
        &self,
        x: &BitString,
        y: &BitString,
        relay_strings: &[BitString],
        cheat: ChainCheat,
        rng: &mut R,
    ) -> bool {
        for (left, right, seg_len) in self.segments(x, y, relay_strings) {
            let (chain, proof) = self.segment_chain(left, right, seg_len, cheat);
            if !chain.simulate_round(&proof, rng) {
                return false;
            }
        }
        true
    }

    /// Compiles a fixed relay instance into a [`RelayRoundPlan`]: one
    /// [`ChainRoundPlan`] per segment (fingerprints, Bob's effects and
    /// proofs prepared once — the dominant cost of
    /// [`RelayEqProtocol::simulate_round`] — instead of per round).
    ///
    /// # Panics
    ///
    /// Panics if `relay_strings` does not have one entry per relay point.
    pub fn round_plan(
        &self,
        x: &BitString,
        y: &BitString,
        relay_strings: &[BitString],
        cheat: ChainCheat,
    ) -> RelayRoundPlan {
        let segments = self
            .segments(x, y, relay_strings)
            .into_iter()
            .map(|(left, right, seg_len)| {
                let (chain, proof) = self.segment_chain(left, right, seg_len, cheat);
                chain.round_plan(&proof)
            })
            .collect();
        RelayRoundPlan { segments }
    }

    /// Compiles a fixed relay instance into a per-node message-passing
    /// program for the transport executors of [`crate::net`]: relay points
    /// close their incoming segment with the boundary measurement and open
    /// the next one, exactly as in [`RelayEqProtocol::simulate_round`], but
    /// one network node at a time over a [`netsim::Transport`].
    ///
    /// # Panics
    ///
    /// Panics if `relay_strings` does not have one entry per relay point.
    pub fn net_program(
        &self,
        x: &BitString,
        y: &BitString,
        relay_strings: &[BitString],
        cheat: ChainCheat,
    ) -> crate::net::RelayNetProgram {
        crate::net::RelayNetProgram::new(
            &self.round_plan(x, y, relay_strings, cheat),
            &self.segment_boundaries(),
        )
    }

    /// Cost summary (Theorem 22): relay points receive `n` qubits, other
    /// nodes receive `2·42·⌈n^{1/3}⌉²·O(log n)` qubits, for a total of
    /// `Õ(r·n^{2/3})`.
    pub fn costs(&self) -> ProtocolCosts {
        Self::costs_for(self.n, self.r, self.spacing)
    }

    /// Cost summary without materialising a fingerprint scheme, so it can be
    /// evaluated for very large `n`, in O(1): the spacing sweeps evaluate it
    /// thousands of times at `r = 4096`. Fingerprint registers are
    /// `⌈log₂(8n)⌉` qubits as in [`FingerprintScheme::new`].
    ///
    /// # Panics
    ///
    /// In every build profile, when a count does not fit in `u64` (e.g. the
    /// total proof at `n = 2^34`, `r = 2^19`, `spacing = 2^17`).
    pub fn costs_for(n: usize, r: usize, spacing: usize) -> ProtocolCosts {
        let fits = |v: Option<u64>| {
            v.unwrap_or_else(|| {
                panic!("relay costs overflow u64 at n = {n}, r = {r}, spacing = {spacing}")
            })
        };
        let (n, r, spacing) = (n as u64, r as u64, spacing as u64);
        let q = fits(n.checked_mul(8).and_then(u64::checked_next_power_of_two));
        let q = (q.trailing_zeros() as u64).max(1);
        let reps = fits(spacing.checked_mul(spacing).and_then(|s| s.checked_mul(42)));
        // Intermediate node j is a relay point, holding the n-bit string,
        // exactly when `j % spacing == 0`; the others hold two segment
        // registers. Every edge carries one segment register.
        let intermediate = r.saturating_sub(1);
        let relays = intermediate / spacing;
        let segment = fits(reps.checked_mul(2 * q));
        let held = |count: u64, size: u64| if count > 0 { size } else { 0 };
        let relay_total = fits(relays.checked_mul(n));
        let segment_total = fits((intermediate - relays).checked_mul(segment));
        let message = fits(reps.checked_mul(q));
        ProtocolCosts {
            local_proof_qubits: held(relays, n).max(held(intermediate - relays, segment)),
            total_proof_qubits: fits(relay_total.checked_add(segment_total)),
            local_message_qubits: held(r, message),
            total_message_qubits: fits(r.checked_mul(message)),
            rounds: 1,
            ..ProtocolCosts::default()
        }
    }

    /// The paper's total-proof bound `Õ(r·n^{2/3})` (constant 1, one log factor).
    pub fn paper_total_cost(n: usize, r: usize) -> f64 {
        r as f64 * (n as f64).powf(2.0 / 3.0) * (n as f64).log2().max(1.0)
    }

    /// The trivial classical protocol's total proof size: every node receives
    /// the whole `n`-bit string, `Θ(r·n)` bits.
    pub fn trivial_classical_total(n: usize, r: usize) -> f64 {
        ((r + 1) * n) as f64
    }
}

/// A relay instance compiled for batched round sampling; built by
/// [`RelayEqProtocol::round_plan`]. A sampled round draws each segment's
/// symmetrisation coins, multiplies the segments' coin-conditional
/// acceptances, and draws a single accept Bernoulli against the product —
/// identical in distribution to running every segment's per-node walk (the
/// segments are independent conditioned on their own coins).
#[derive(Clone, Debug)]
pub struct RelayRoundPlan {
    segments: Vec<ChainRoundPlan>,
}

impl RelayRoundPlan {
    /// Number of segments (one chain per consecutive boundary pair).
    pub fn num_segments(&self) -> usize {
        self.segments.len()
    }

    /// The per-segment chain plans, in boundary order — read by the
    /// transport executors of [`crate::net`], which walk each segment's
    /// tables one network node at a time.
    #[inline]
    pub(crate) fn segment_plans(&self) -> &[ChainRoundPlan] {
        &self.segments
    }

    /// Samples one round of every segment.
    #[inline]
    pub fn round<R: Rng + ?Sized>(&self, rng: &mut R) -> bool {
        let mut w = 1.0;
        for seg in &self.segments {
            w *= seg.round_weight(rng);
        }
        rng.random::<f64>() < w
    }
}

impl LaneBatched for RelayRoundPlan {
    fn sample_lane_block(&self, trials: u64, stream: &BlockRng, lanes: usize) -> u64 {
        assert!(
            (1..=MAX_LANES).contains(&lanes),
            "lane width {lanes} outside 1..={MAX_LANES}"
        );
        // SoA lane walk: each segment's coin-word planes (drawn in segment
        // order per trial, then the accept draw, matching `round`'s stream
        // layout), one lane walk per segment multiplied into the round
        // accumulator. The planes live in one heap strip sized
        // `Σ words × lanes` — allocated once per 8192-trial block,
        // amortised to nothing.
        let total: usize = self.segments.iter().map(ChainRoundPlan::coin_words).sum();
        let mut aug = vec![0u64; total * lanes];
        let mut draw = [0.0f64; MAX_LANES];
        let mut acc = [0.0f64; MAX_LANES];
        let mut seg_acc = [0.0f64; MAX_LANES];
        let mut accepts = 0u64;
        let mut t = 0u64;
        while t < trials {
            let l = (lanes as u64).min(trials - t) as usize;
            // One fused fill per batch: `total` plane-major coin-word planes
            // (stride `l`, segment order) then the accept plane — exactly
            // `round`'s per-trial stream layout.
            stream.fill_lane_streams(t, &mut aug[..total * l], &mut draw[..l]);
            acc[..l].fill(1.0);
            let mut rest = &mut aug[..total * l];
            for seg in &self.segments {
                let (planes, tail) = rest.split_at_mut(seg.coin_words() * l);
                rest = tail;
                qsim::simd::shift_coin_planes(planes, l);
                seg.lane_walk(planes, &mut seg_acc[..l]);
                for (a, &p) in acc[..l].iter_mut().zip(&seg_acc[..l]) {
                    *a *= p;
                }
            }
            accepts += qsim::simd::count_accepts(&draw[..l], &acc[..l]);
            t += l as u64;
        }
        accepts
    }
}

impl BatchSampler for RelayRoundPlan {
    type Scratch = ();

    fn scratch(&self) {}

    fn sample_block(&self, trials: u64, _scratch: &mut (), stream: &BlockRng) -> u64 {
        self.sample_lane_block(trials, stream, default_lane_width())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trials::{self, run_trials_with_workers};

    #[test]
    fn lane_walk_reads_the_round_walks_stream_positions() {
        // Segments of 70 and 30 edges draw two coin words and one, in
        // segment order, then the accept draw: the lane walk and `round`
        // accept the same trials on the same streams.
        let proto = RelayEqProtocol::with_spacing(4, 100, 70, 3);
        let x = BitString::from_u64(11, 4);
        let y = BitString::from_u64(4, 4);
        let relays = [BitString::from_u64(6, 4)];
        let plan = proto.round_plan(&x, &y, &relays, ChainCheat::Interpolate);
        let words: Vec<usize> = plan.segments.iter().map(|s| s.coin_words()).collect();
        assert_eq!(words, [2, 1]);
        let stream = BlockRng::new(5, 2);
        let n = trials::BLOCK_TRIALS;
        let walk = (0..n)
            .filter(|&t| plan.round(&mut stream.trial_rng(t)))
            .count() as u64;
        assert!(walk > 0 && walk < n, "degenerate rate");
        for lanes in [1, 7, 32] {
            assert_eq!(plan.sample_lane_block(n, &stream, lanes), walk);
        }
    }

    #[test]
    fn relay_points_are_spaced_correctly() {
        let proto = RelayEqProtocol::with_spacing(8, 10, 2, 1);
        assert_eq!(proto.relay_points(), vec![2, 4, 6, 8]);
        assert_eq!(proto.segment_boundaries(), vec![0, 2, 4, 6, 8, 10]);
    }

    #[test]
    fn perfect_completeness() {
        let proto = RelayEqProtocol::with_spacing(4, 6, 2, 3);
        let x = BitString::from_u64(11, 4);
        assert!((proto.completeness(&x) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn no_instance_is_rejected_despite_interpolating_relays() {
        // Use a small scheme indirectly by keeping n small.
        let mut proto = RelayEqProtocol::with_spacing(4, 4, 2, 3);
        // Shrink repetitions to keep the exact computation cheap but positive.
        proto.segment_repetitions = 8;
        let x = BitString::from_u64(3, 4);
        let y = BitString::from_u64(12, 4);
        let p = proto.best_interpolating_acceptance(&x, &y);
        assert!(p < 1.0 / 3.0, "acceptance {p}");
    }

    #[test]
    fn sampled_relay_rounds_behave_like_the_exact_formulas() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let proto = RelayEqProtocol::with_spacing(4, 6, 2, 3);
        let x = BitString::from_u64(11, 4);
        let mut rng = StdRng::seed_from_u64(41);
        // Honest relays on a yes-instance accept every sampled round.
        let honest = vec![x.clone(); proto.relay_points().len()];
        for _ in 0..20 {
            assert!(proto.simulate_round(&x, &x, &honest, ChainCheat::AllLeft, &mut rng));
        }
        // A no-instance with honest-looking relays is rejected a positive
        // fraction of the time.
        let y = BitString::from_u64(4, 4);
        let rejects = (0..400)
            .filter(|_| !proto.simulate_round(&x, &y, &honest, ChainCheat::Interpolate, &mut rng))
            .count();
        assert!(rejects > 0, "no-instance must be rejected sometimes");
    }

    #[test]
    fn relay_round_plan_matches_the_sequential_sampler_statistics() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let proto = RelayEqProtocol::with_spacing(4, 6, 2, 3);
        let x = BitString::from_u64(11, 4);
        let y = BitString::from_u64(4, 4);
        let honest = vec![x.clone(); proto.relay_points().len()];
        // Yes-instance: every batched trial accepts.
        let yes_plan = proto.round_plan(&x, &x, &honest, ChainCheat::AllLeft);
        let yes = run_trials_with_workers(&yes_plan, 5000, 31, 1);
        assert_eq!(yes.accepts, yes.trials);
        // No-instance: the batched rate agrees with the sequential sampler
        // within the combined Hoeffding margins.
        let trials = 20_000u64;
        let plan = proto.round_plan(&x, &y, &honest, ChainCheat::Interpolate);
        let report = run_trials_with_workers(&plan, trials, 37, 1);
        let mut rng = StdRng::seed_from_u64(41);
        let seq = (0..trials)
            .filter(|_| proto.simulate_round(&x, &y, &honest, ChainCheat::Interpolate, &mut rng))
            .count() as f64
            / trials as f64;
        let eps = 2.0 * report.hoeffding_radius(1e-9);
        assert!(
            (report.acceptance_rate() - seq).abs() < eps,
            "batched {} vs sequential {seq}",
            report.acceptance_rate()
        );
        assert_eq!(report.trials, trials);
        // Worker invariance.
        let base = run_trials_with_workers(&plan, trials, 37, 1);
        let pooled = run_trials_with_workers(&plan, trials, 37, 4);
        assert_eq!(base.accepts, report.accepts);
        assert_eq!(pooled.accepts, report.accepts);
        assert_eq!(plan.num_segments(), proto.segment_boundaries().len() - 1);
    }

    #[test]
    fn paper_repetition_count_gives_strong_per_segment_soundness() {
        // With the paper's 42·s² repetitions, a segment of length s with
        // differing endpoints accepts with probability < 1/3.
        for s in [2usize, 3, 4] {
            let single = SwapTestChain::paper_soundness_bound(s);
            let repeated = SwapTestChain::repeated_soundness(single, 42 * s * s);
            assert!(repeated < 1.0 / 3.0, "spacing {s}: {repeated}");
        }
    }

    #[test]
    fn total_cost_grows_sublinearly_in_n_unlike_the_classical_protocols() {
        // Theorem 22's point: the quantum total proof size grows like
        // Õ(n^{2/3}) with the input length, while every classical protocol is
        // forced to Θ(n) per node. We check the *growth rates*; with the
        // paper's spacing the absolute crossover sits near n = 2^42 because
        // of the 42·s² repetition constant (tests/paper_claims.rs).
        let r = 64;
        let n_small = 1usize << 12;
        let n_large = 1usize << 24;
        let total = |n| {
            RelayEqProtocol::costs_for(n, r, RelayEqProtocol::paper_spacing(n)).total_proof_qubits
                as f64
        };
        let q_small = total(n_small);
        let q_large = total(n_large);
        let quantum_growth = q_large / q_small;
        let classical_growth = RelayEqProtocol::trivial_classical_total(n_large, r)
            / RelayEqProtocol::trivial_classical_total(n_small, r);
        assert!(
            quantum_growth < classical_growth,
            "quantum growth {quantum_growth} should be below classical growth {classical_growth}"
        );
        // And it is within a polylog factor of the ideal n^{2/3} growth (= 256 here).
        assert!(quantum_growth < 1024.0, "quantum growth {quantum_growth}");
    }

    #[test]
    fn total_cost_tracks_the_paper_formula_shape() {
        let c1 = RelayEqProtocol::costs_for(1 << 9, 32, 8).total_proof_qubits as f64;
        let c2 = RelayEqProtocol::costs_for(1 << 9, 64, 8).total_proof_qubits as f64;
        // Linear in r.
        let ratio = c2 / c1;
        assert!((1.7..=2.3).contains(&ratio), "r-scaling {ratio}");
    }

    #[test]
    #[should_panic(
        expected = "relay costs overflow u64 at n = 17179869184, r = 524288, spacing = 131072"
    )]
    fn costs_past_u64_panic_with_the_instance_in_every_profile() {
        // The total proof is about 2.8e19 here, above u64::MAX.
        RelayEqProtocol::costs_for(1 << 34, 1 << 19, 1 << 17);
    }
}
