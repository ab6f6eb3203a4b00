//! The improved dQMA protocol for EQ on general graphs with the permutation
//! test (Section 3.3 of the paper, Algorithm 5, Theorem 19).
//!
//! The prover announces the spanning tree of Section 3.3 (verified classically
//! via Lemma 18, see `netsim::tree`); terminals prepare fingerprints of their
//! inputs and send them towards the root; every internal node receives two
//! proof registers, symmetrises them, forwards one to its parent, and runs the
//! **permutation test** on its kept register together with everything received
//! from its children. Replacing FGNP21's pick-one-child SWAP test by the
//! permutation test is what removes the factor `t` from the local proof size:
//! `O(r² log n)` instead of `O(t·r² log n)`.

use commproto::bitstring::BitString;
use commproto::fingerprint::FingerprintScheme;
use netsim::tree::TerminalTree;
use netsim::{CostTracker, Graph, ProtocolCosts};
use qsim::permutation::{permutation_test_acceptance_gram, permutation_test_on};
use qsim::PureState;

use crate::chain::SwapTestChain;
use crate::eq_path::scale_costs;
use crate::trials::{default_lane_width, BatchSampler, BlockRng, LaneBatched, MAX_LANES};
use rand::Rng;

/// The EQ protocol on a general network, running on the announced terminal
/// tree.
#[derive(Clone, Debug)]
pub struct EqTreeProtocol {
    tree: TerminalTree,
    scheme: FingerprintScheme,
    repetitions: usize,
}

impl EqTreeProtocol {
    /// Builds the protocol for the given network and terminals, with the
    /// paper's repetition count for radius `r`.
    pub fn new(graph: &Graph, terminals: &[usize], n: usize, seed: u64) -> Self {
        let r = graph.radius().max(1);
        EqTreeProtocol {
            tree: TerminalTree::build(graph, terminals),
            scheme: FingerprintScheme::new(n, seed),
            repetitions: SwapTestChain::paper_repetitions(r),
        }
    }

    /// Builds the protocol with an explicit scheme and repetition count
    /// (small schemes keep exact simulation cheap).
    pub fn with_scheme(
        graph: &Graph,
        terminals: &[usize],
        scheme: FingerprintScheme,
        repetitions: usize,
    ) -> Self {
        assert!(repetitions >= 1, "at least one repetition required");
        EqTreeProtocol {
            tree: TerminalTree::build(graph, terminals),
            scheme,
            repetitions,
        }
    }

    /// Builds the protocol on an already-announced [`TerminalTree`] — the
    /// churn runtime's re-randomisation path, where the supervisor draws a
    /// fresh seeded §3.3 tree ([`TerminalTree::build_seeded`]) mid-workload
    /// and re-broadcasts the program without re-deriving scheme or
    /// repetitions.
    pub fn with_tree(tree: TerminalTree, scheme: FingerprintScheme, repetitions: usize) -> Self {
        assert!(repetitions >= 1, "at least one repetition required");
        EqTreeProtocol {
            tree,
            scheme,
            repetitions,
        }
    }

    /// The announced terminal tree the protocol runs on.
    pub fn tree(&self) -> &TerminalTree {
        &self.tree
    }

    /// The fingerprint scheme in use.
    pub fn scheme(&self) -> &FingerprintScheme {
        &self.scheme
    }

    /// Number of parallel repetitions.
    pub fn repetitions(&self) -> usize {
        self.repetitions
    }

    /// Number of terminals.
    pub fn num_terminals(&self) -> usize {
        self.tree.num_terminals()
    }

    /// The logical tree nodes that receive proof registers (every node that is
    /// not a terminal leaf), in increasing logical index order.
    pub fn proof_nodes(&self) -> Vec<usize> {
        let leaves = self.tree.terminal_leaves();
        (0..self.tree.num_nodes())
            .filter(|idx| !leaves.contains(idx))
            .collect()
    }

    /// The proof where every register of every proof node carries the
    /// fingerprint of `s` — the honest proof on yes-instances (all inputs
    /// equal `s`), and the natural uniform cheating strategy otherwise.
    pub fn uniform_proof(&self, s: &BitString) -> Vec<(PureState, PureState)> {
        let h = self.scheme.fingerprint(s);
        self.proof_nodes()
            .iter()
            .map(|_| (h.clone(), h.clone()))
            .collect()
    }

    /// Exact probability that all nodes accept one repetition, for terminal
    /// inputs `inputs` (one per terminal, in terminal order) and a separable
    /// proof (one register pair per proof node, in [`Self::proof_nodes`]
    /// order), averaging over the symmetrisation randomness.
    ///
    /// # Panics
    ///
    /// Panics if the number of inputs or proof pairs is wrong, or if there are
    /// more than 16 proof nodes (the symmetrisation enumeration would blow up).
    pub fn acceptance_separable(
        &self,
        inputs: &[BitString],
        proof: &[(PureState, PureState)],
    ) -> f64 {
        let leaves: Vec<usize> = self.tree.terminal_leaves().to_vec();
        assert_eq!(
            inputs.len(),
            leaves.len(),
            "one input per terminal required"
        );
        let proof_nodes = self.proof_nodes();
        assert_eq!(
            proof.len(),
            proof_nodes.len(),
            "one register pair per proof node required"
        );
        assert!(
            proof_nodes.len() <= 16,
            "too many proof nodes for exact enumeration"
        );

        let leaf_states = self.leaf_fingerprints(inputs);
        let patterns = 1usize << proof_nodes.len();
        let mut total = 0.0;
        let order = self.tree.post_order();
        for pattern in 0..patterns {
            let swapped: Vec<bool> = (0..proof_nodes.len())
                .map(|pi| (pattern >> pi) & 1 == 1)
                .collect();
            let mut prob = 1.0;
            for &v in &order {
                if self.tree.children(v).is_empty() {
                    continue;
                }
                let states = self.node_test_states(v, &leaf_states, proof, &proof_nodes, &swapped);
                prob *= permutation_test_acceptance_gram(&states);
                if prob < 1e-15 {
                    break;
                }
            }
            total += prob;
        }
        (total / patterns as f64).clamp(0.0, 1.0)
    }

    /// The fingerprints the terminal leaves send up — prepared once per round
    /// (as the terminals do), not once per internal node.
    fn leaf_fingerprints(&self, inputs: &[BitString]) -> Vec<PureState> {
        inputs.iter().map(|x| self.scheme.fingerprint(x)).collect()
    }

    /// The states entering node `v`'s permutation test: its kept register plus
    /// whatever each child sends up (a terminal fingerprint for leaves, the
    /// forwarded proof register otherwise), given which register each proof
    /// node keeps under the symmetrisation outcome `swapped`.
    fn node_test_states(
        &self,
        v: usize,
        leaf_states: &[PureState],
        proof: &[(PureState, PureState)],
        proof_nodes: &[usize],
        swapped: &[bool],
    ) -> Vec<PureState> {
        let leaves = self.tree.terminal_leaves();
        let leaf_state = |idx: usize| -> Option<&PureState> {
            leaves
                .iter()
                .position(|&l| l == idx)
                .map(|i| &leaf_states[i])
        };
        let proof_index = |idx: usize| {
            proof_nodes
                .iter()
                .position(|&p| p == idx)
                .expect("proof node")
        };
        let kept = |idx: usize| -> &PureState {
            let pi = proof_index(idx);
            if swapped[pi] {
                &proof[pi].1
            } else {
                &proof[pi].0
            }
        };
        let forwarded = |idx: usize| -> &PureState {
            let pi = proof_index(idx);
            if swapped[pi] {
                &proof[pi].0
            } else {
                &proof[pi].1
            }
        };
        let mut states: Vec<PureState> = vec![kept(v).clone()];
        for &c in self.tree.children(v) {
            if let Some(s) = leaf_state(c) {
                states.push(s.clone());
            } else {
                states.push(forwarded(c).clone());
            }
        }
        states
    }

    /// Samples one full round: symmetrisation coins at every proof node, then
    /// one permutation test per internal node, walked bottom-up over the
    /// tree's post-order. Returns `true` when every node accepts.
    ///
    /// Pure-state fast path: conditioned on the coins the tests act on
    /// disjoint product registers (each register participates in exactly one
    /// test), so each outcome is an independent Bernoulli draw from the
    /// Gram-matrix closed form — no joint density matrix is ever formed.
    pub fn simulate_round<R: rand::Rng + ?Sized>(
        &self,
        inputs: &[BitString],
        proof: &[(PureState, PureState)],
        rng: &mut R,
    ) -> bool {
        let proof_nodes = self.proof_nodes();
        assert_eq!(
            inputs.len(),
            self.tree.terminal_leaves().len(),
            "one input per terminal required"
        );
        assert_eq!(
            proof.len(),
            proof_nodes.len(),
            "one register pair per proof node required"
        );
        let leaf_states = self.leaf_fingerprints(inputs);
        let swapped: Vec<bool> = (0..proof_nodes.len())
            .map(|_| rng.random::<f64>() < 0.5)
            .collect();
        for &v in &self.tree.post_order() {
            if self.tree.children(v).is_empty() {
                continue;
            }
            let states = self.node_test_states(v, &leaf_states, proof, &proof_nodes, &swapped);
            let p = permutation_test_acceptance_gram(&states);
            if rng.random::<f64>() >= p {
                return false;
            }
        }
        true
    }

    /// Samples one full round through the density-matrix measurement layer:
    /// per internal node the incoming registers are assembled into a
    /// `(k+1)`-register joint density matrix and the sampled matrix-free
    /// [`permutation_test_on`] is run on all of them at once — the paper's
    /// Algorithm 5 node operation, with `O(k!·D)` acceptance and `O(D²)`
    /// symmetrisation effects instead of a dense `d^{k+1} × d^{k+1}`
    /// projector.
    pub fn simulate_round_via_density<R: rand::Rng + ?Sized>(
        &self,
        inputs: &[BitString],
        proof: &[(PureState, PureState)],
        rng: &mut R,
    ) -> bool {
        let proof_nodes = self.proof_nodes();
        assert_eq!(
            inputs.len(),
            self.tree.terminal_leaves().len(),
            "one input per terminal required"
        );
        assert_eq!(
            proof.len(),
            proof_nodes.len(),
            "one register pair per proof node required"
        );
        let leaf_states = self.leaf_fingerprints(inputs);
        let swapped: Vec<bool> = (0..proof_nodes.len())
            .map(|_| rng.random::<f64>() < 0.5)
            .collect();
        let d = self.scheme.dim();
        for &v in &self.tree.post_order() {
            if self.tree.children(v).is_empty() {
                continue;
            }
            let states = self.node_test_states(v, &leaf_states, proof, &proof_nodes, &swapped);
            let joint = PureState::tensor_all(&states).regroup(&vec![d; states.len()]);
            let mut rho = qsim::DensityMatrix::from_pure(&joint);
            let targets: Vec<usize> = (0..states.len()).collect();
            if !permutation_test_on(&mut rho, &targets, rng) {
                return false;
            }
        }
        true
    }

    /// Compiles a fixed `(inputs, proof)` instance into a [`TreeRoundPlan`]
    /// for batched round sampling.
    ///
    /// Conditioned on the symmetrisation coins, node `v`'s permutation test
    /// involves only `v`'s own coin and the coins of its non-leaf children —
    /// so the plan stores, per internal node, the relevant coin bit
    /// positions and a `2^m` table of Gram-form acceptances over them
    /// (`m ≤ 1 + fan-out`, tiny for the paper's trees). A sampled round is
    /// one coin word, one table lookup per internal node and one accept
    /// draw — no state cloning, no Gram matrices, no allocation.
    ///
    /// # Panics
    ///
    /// Panics on input/proof shape mismatches or more than 64 proof nodes
    /// (the coin word).
    pub fn round_plan(
        &self,
        inputs: &[BitString],
        proof: &[(PureState, PureState)],
    ) -> TreeRoundPlan {
        let proof_nodes = self.proof_nodes();
        assert_eq!(
            inputs.len(),
            self.tree.terminal_leaves().len(),
            "one input per terminal required"
        );
        assert_eq!(
            proof.len(),
            proof_nodes.len(),
            "one register pair per proof node required"
        );
        assert!(
            proof_nodes.len() <= 64,
            "too many proof nodes for the coin word"
        );
        let leaf_states = self.leaf_fingerprints(inputs);
        let leaves = self.tree.terminal_leaves();
        let proof_index = |idx: usize| {
            proof_nodes
                .iter()
                .position(|&p| p == idx)
                .expect("proof node")
        };
        let mut nodes = Vec::new();
        for &v in &self.tree.post_order() {
            if self.tree.children(v).is_empty() {
                continue;
            }
            // The coins that influence node v's test: its own (which
            // register it kept) and each non-leaf child's (which register
            // that child forwarded).
            let mut bits: Vec<u32> = vec![proof_index(v) as u32];
            for &c in self.tree.children(v) {
                if !leaves.contains(&c) {
                    bits.push(proof_index(c) as u32);
                }
            }
            let mut probs = vec![0.0f64; 1 << bits.len()];
            let mut swapped = vec![false; proof_nodes.len()];
            for (mask, slot) in probs.iter_mut().enumerate() {
                for (i, &b) in bits.iter().enumerate() {
                    swapped[b as usize] = (mask >> i) & 1 == 1;
                }
                let states = self.node_test_states(v, &leaf_states, proof, &proof_nodes, &swapped);
                *slot = permutation_test_acceptance_gram(&states);
            }
            nodes.push(TreeNodePlan { bits, probs });
        }
        TreeRoundPlan { nodes }
    }

    /// Compiles a fixed `(inputs, proof)` instance into a per-node
    /// message-passing program for the transport executors of
    /// [`crate::net`]: leaves send their fingerprint token towards the root,
    /// internal nodes gather their children's messages (attributed by
    /// source, so reordering is harmless), run the permutation test from the
    /// same acceptance tables as [`EqTreeProtocol::round_plan`], and forward
    /// their own coin. The executor schedule is the tree's post order.
    ///
    /// # Panics
    ///
    /// As [`EqTreeProtocol::round_plan`].
    pub fn net_program(
        &self,
        inputs: &[BitString],
        proof: &[(PureState, PureState)],
    ) -> crate::net::TreeNetProgram {
        use crate::net::TreeRole;
        let plan = self.round_plan(inputs, proof);
        let leaves = self.tree.terminal_leaves();
        let order = self.tree.post_order();
        let mut roles = vec![TreeRole::Unused; self.tree.num_nodes()];
        let mut plan_nodes = plan.nodes.into_iter();
        for &v in &order {
            let children = self.tree.children(v);
            if children.is_empty() {
                roles[v] = TreeRole::Leaf {
                    parent: self.tree.parent(v).expect("a leaf has a parent"),
                };
                continue;
            }
            let node_plan = plan_nodes.next().expect("one plan entry per internal node");
            // The plan's table index layout: bit 0 is v's own coin, bit
            // 1 + p the p-th non-leaf child's coin in children order.
            let mut shift = 0u32;
            let kids: Vec<(usize, Option<u32>)> = children
                .iter()
                .map(|&c| {
                    if leaves.contains(&c) {
                        (c, None)
                    } else {
                        shift += 1;
                        (c, Some(shift))
                    }
                })
                .collect();
            roles[v] = TreeRole::Internal {
                parent: self.tree.parent(v),
                children: kids,
                probs: node_plan.probs,
            };
        }
        crate::net::TreeNetProgram::new(roles, order)
    }

    /// Completeness witness: acceptance of the honest proof when every terminal
    /// holds the same string.
    pub fn completeness(&self, common_input: &BitString) -> f64 {
        let t = self.num_terminals();
        let inputs = vec![common_input.clone(); t];
        self.acceptance_separable(&inputs, &self.uniform_proof(common_input))
    }

    /// Acceptance of the full repeated protocol when the prover plays the same
    /// separable strategy independently in each repetition.
    pub fn repeated_acceptance(
        &self,
        inputs: &[BitString],
        proof: &[(PureState, PureState)],
    ) -> f64 {
        SwapTestChain::repeated_soundness(
            self.acceptance_separable(inputs, proof),
            self.repetitions,
        )
    }

    /// Cost summary of the full repeated protocol (Theorem 19): local proof and
    /// message `O(r² log n)` qubits, independent of the number of terminals.
    pub fn costs(&self) -> ProtocolCosts {
        let q = self.scheme.qubits() as u64;
        let mut t = CostTracker::new();
        for &v in &self.proof_nodes() {
            t.record_proof(v, 2 * q);
        }
        for v in 0..self.tree.num_nodes() {
            if let Some(p) = self.tree.parent(v) {
                t.record_message(v, p, q);
            }
        }
        t.set_rounds(1);
        scale_costs(&t.summary(), self.repetitions as u64)
    }

    /// The FGNP21 local proof size bound `O(t·r²·log n)` for Table 1
    /// comparisons (constant 1).
    pub fn fgnp_local_cost(n: usize, r: usize, t: usize) -> f64 {
        (t * r * r) as f64 * (n as f64).log2().max(1.0)
    }

    /// This paper's local proof size bound `O(r²·log n)` (Theorem 19).
    pub fn paper_local_cost(n: usize, r: usize) -> f64 {
        (r * r) as f64 * (n as f64).log2().max(1.0)
    }
}

/// A tree instance compiled for batched round sampling; built by
/// [`EqTreeProtocol::round_plan`].
#[derive(Clone, Debug)]
pub struct TreeRoundPlan {
    /// One entry per internal node, in post order.
    nodes: Vec<TreeNodePlan>,
}

#[derive(Clone, Debug)]
struct TreeNodePlan {
    /// Coin-word bit positions that influence this node's test.
    bits: Vec<u32>,
    /// Gram-form acceptance per combination of those coins
    /// (`probs[Σ_i c_{bits[i]} · 2^i]`).
    probs: Vec<f64>,
}

impl TreeRoundPlan {
    /// Draws one round's coins and returns the coin-conditional acceptance
    /// `Π_v p_v(c)` over the internal nodes.
    #[inline]
    pub fn round_weight<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let coins = rng.random::<u64>();
        let mut w = 1.0;
        for node in &self.nodes {
            let mut idx = 0usize;
            for (i, &b) in node.bits.iter().enumerate() {
                idx |= (((coins >> b) & 1) as usize) << i;
            }
            w *= node.probs[idx];
        }
        w
    }

    /// Samples one round: coins, conditional product, one accept draw —
    /// identical in distribution to [`EqTreeProtocol::simulate_round`] on
    /// the planned instance.
    #[inline]
    pub fn round<R: Rng + ?Sized>(&self, rng: &mut R) -> bool {
        let w = self.round_weight(rng);
        rng.random::<f64>() < w
    }
}

impl LaneBatched for TreeRoundPlan {
    fn sample_lane_block(&self, trials: u64, stream: &BlockRng, lanes: usize) -> u64 {
        assert!(
            (1..=MAX_LANES).contains(&lanes),
            "lane width {lanes} outside 1..={MAX_LANES}"
        );
        // SoA lane walk mirroring `round`: per lane one coin word and one
        // accumulator, per node one gather-multiply across the lane batch
        // (`round_plan` guarantees at most 64 coins, so a single word always
        // suffices). Per-trial counter streams — coin word first, accept
        // draw second — make the planes independent of lane grouping.
        let mut coins = [0u64; MAX_LANES];
        let mut draw = [0.0f64; MAX_LANES];
        let mut acc = [0.0f64; MAX_LANES];
        let mut accepts = 0u64;
        let mut t = 0u64;
        while t < trials {
            let l = (lanes as u64).min(trials - t) as usize;
            stream.fill_lane_streams(t, &mut coins[..l], &mut draw[..l]);
            acc[..l].fill(1.0);
            for node in &self.nodes {
                qsim::simd::tree_lane_accumulate(
                    &node.probs,
                    &node.bits,
                    &coins[..l],
                    &mut acc[..l],
                );
            }
            accepts += qsim::simd::count_accepts(&draw[..l], &acc[..l]);
            t += l as u64;
        }
        accepts
    }
}

impl BatchSampler for TreeRoundPlan {
    type Scratch = ();

    fn scratch(&self) {}

    fn sample_block(&self, trials: u64, _scratch: &mut (), stream: &BlockRng) -> u64 {
        self.sample_lane_block(trials, stream, default_lane_width())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trials::run_trials_with_workers;
    use netsim::topology;

    fn spider_protocol(legs: usize, leg_len: usize, n: usize) -> (EqTreeProtocol, Vec<usize>) {
        let g = topology::spider(legs, leg_len);
        let terminals: Vec<usize> = (0..legs)
            .map(|k| topology::spider_leaf(k, leg_len))
            .collect();
        let proto = EqTreeProtocol::with_scheme(&g, &terminals, FingerprintScheme::small(n, 5), 4);
        (proto, terminals)
    }

    #[test]
    fn perfect_completeness_on_spider() {
        let (proto, _) = spider_protocol(3, 2, 4);
        let x = BitString::from_u64(9, 4);
        assert!((proto.completeness(&x) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn perfect_completeness_on_path_terminals() {
        let g = topology::path(4);
        let proto = EqTreeProtocol::with_scheme(&g, &[0, 4], FingerprintScheme::small(3, 2), 2);
        let x = BitString::from_u64(5, 3);
        assert!((proto.completeness(&x) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn one_differing_terminal_is_detected() {
        let (proto, terminals) = spider_protocol(3, 2, 4);
        let x = BitString::from_u64(9, 4);
        let y = BitString::from_u64(6, 4);
        let mut inputs = vec![x.clone(); terminals.len()];
        inputs[2] = y;
        // The natural cheat: claim everything equals x.
        let p = proto.acceptance_separable(&inputs, &proto.uniform_proof(&x));
        assert!(p < 1.0 - 1e-4, "acceptance {p}");
        let repeated = proto.repeated_acceptance(&inputs, &proto.uniform_proof(&x));
        assert!(repeated < p);
    }

    #[test]
    fn all_different_inputs_rejected_more_strongly_than_one_off() {
        let (proto, terminals) = spider_protocol(3, 1, 4);
        let base = BitString::from_u64(3, 4);
        let mut one_off = vec![base.clone(); terminals.len()];
        one_off[1] = BitString::from_u64(12, 4);
        let all_diff: Vec<BitString> = (0..terminals.len() as u64)
            .map(|k| BitString::from_u64(k * 5 % 16, 4))
            .collect();
        let p_one = proto.acceptance_separable(&one_off, &proto.uniform_proof(&base));
        let p_all = proto.acceptance_separable(&all_diff, &proto.uniform_proof(&base));
        assert!(
            p_all <= p_one + 1e-9,
            "all-different {p_all} vs one-off {p_one}"
        );
    }

    #[test]
    fn sampled_rounds_agree_with_exact_acceptance() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        // A dimension-2 fingerprint keeps the density-matrix sampler's
        // per-node joint states tiny in debug builds.
        let g = topology::spider(3, 1);
        let terminals: Vec<usize> = (0..3).map(|k| topology::spider_leaf(k, 1)).collect();
        let proto = EqTreeProtocol::with_scheme(
            &g,
            &terminals,
            FingerprintScheme::with_parameters(4, 1, 1, 5),
            4,
        );
        let x = BitString::from_u64(9, 4);
        let y = BitString::from_u64(6, 4);
        let mut inputs = vec![x.clone(); terminals.len()];
        inputs[1] = y;
        let proof = proto.uniform_proof(&x);
        let exact = proto.acceptance_separable(&inputs, &proof);
        let mut rng = StdRng::seed_from_u64(31);
        let trials = 2000;
        let est = (0..trials)
            .filter(|_| proto.simulate_round(&inputs, &proof, &mut rng))
            .count() as f64
            / trials as f64;
        assert!(
            (est - exact).abs() < 0.06,
            "estimated {est} vs exact {exact}"
        );
        // The density-matrix sampler (matrix-free permutation_test_on per
        // node) agrees with the closed-form sampler.
        let est_density = (0..trials)
            .filter(|_| proto.simulate_round_via_density(&inputs, &proof, &mut rng))
            .count() as f64
            / trials as f64;
        assert!(
            (est_density - exact).abs() < 0.06,
            "density-sampler estimate {est_density} vs exact {exact}"
        );
        // Honest rounds accept with certainty.
        let honest_inputs = vec![x.clone(); terminals.len()];
        for _ in 0..10 {
            assert!(proto.simulate_round(&honest_inputs, &proof, &mut rng));
            assert!(proto.simulate_round_via_density(&honest_inputs, &proof, &mut rng));
        }
    }

    #[test]
    fn tree_round_plan_matches_exact_acceptance_and_is_worker_invariant() {
        let (proto, terminals) = spider_protocol(3, 1, 4);
        let x = BitString::from_u64(9, 4);
        let y = BitString::from_u64(6, 4);
        let mut inputs = vec![x.clone(); terminals.len()];
        inputs[1] = y;
        let proof = proto.uniform_proof(&x);
        let exact = proto.acceptance_separable(&inputs, &proof);
        let plan = proto.round_plan(&inputs, &proof);
        let report = run_trials_with_workers(&plan, 40_000, 17, 1);
        let eps = report.hoeffding_radius(1e-9);
        assert!(
            (report.acceptance_rate() - exact).abs() < eps,
            "batched tree rate {} vs exact {exact}",
            report.acceptance_rate()
        );
        let base = run_trials_with_workers(&plan, 20_000, 23, 1);
        for workers in [2usize, 4] {
            let r = run_trials_with_workers(&plan, 20_000, 23, workers);
            assert_eq!(r.accepts, base.accepts, "worker count {workers}");
        }
        // Honest rounds: every trial accepts.
        let honest_inputs = vec![x.clone(); terminals.len()];
        let honest_plan = proto.round_plan(&honest_inputs, &proof);
        let honest = run_trials_with_workers(&honest_plan, 5000, 29, 1);
        assert_eq!(honest.accepts, honest.trials);
    }

    #[test]
    fn local_proof_size_is_independent_of_terminal_count() {
        // Theorem 19's headline: unlike FGNP21, the local proof size does not
        // grow with t.
        let n = 8;
        let (p3, _) = {
            let g = topology::spider(3, 2);
            let t: Vec<usize> = (0..3).map(|k| topology::spider_leaf(k, 2)).collect();
            (EqTreeProtocol::new(&g, &t, n, 1), t)
        };
        let (p6, _) = {
            let g = topology::spider(6, 2);
            let t: Vec<usize> = (0..6).map(|k| topology::spider_leaf(k, 2)).collect();
            (EqTreeProtocol::new(&g, &t, n, 1), t)
        };
        assert_eq!(
            p3.costs().local_proof_qubits,
            p6.costs().local_proof_qubits,
            "local proof size must not depend on t"
        );
        // The FGNP bound, in contrast, doubles.
        assert!(
            EqTreeProtocol::fgnp_local_cost(n, 2, 6)
                > 1.9 * EqTreeProtocol::fgnp_local_cost(n, 2, 3)
        );
    }

    #[test]
    fn costs_follow_theorem_19_shape() {
        let n = 8;
        let g_small = topology::spider(3, 1);
        let t_small: Vec<usize> = (0..3).map(|k| topology::spider_leaf(k, 1)).collect();
        let g_large = topology::spider(3, 3);
        let t_large: Vec<usize> = (0..3).map(|k| topology::spider_leaf(k, 3)).collect();
        let c_small = EqTreeProtocol::new(&g_small, &t_small, n, 1).costs();
        let c_large = EqTreeProtocol::new(&g_large, &t_large, n, 1).costs();
        // Larger radius -> more repetitions -> larger local proof.
        assert!(c_large.local_proof_qubits > c_small.local_proof_qubits);
    }

    #[test]
    fn proof_nodes_exclude_terminal_leaves() {
        let (proto, terminals) = spider_protocol(3, 2, 4);
        let proof_nodes = proto.proof_nodes();
        for i in 0..terminals.len() {
            let leaf = proto.tree().terminal_leaf(i);
            assert!(!proof_nodes.contains(&leaf));
        }
        assert!(!proof_nodes.is_empty());
    }
}
