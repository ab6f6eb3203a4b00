//! Classical dMA baselines and the cut-and-paste fooling attack
//! (Section 4.2 of the paper, Lemma 23, Proposition 24, Corollaries 25/27/31).
//!
//! The quantum advantage claimed by the paper is relative to classical
//! distributed Merlin–Arthur protocols. Two baselines are implemented:
//!
//! * the **trivial** protocol: the prover sends the whole `n`-bit input to
//!   every node, neighbours compare — `Θ(r·n)` total proof, perfectly sound;
//! * a **sketch** protocol family with an adjustable per-node proof size `s`:
//!   the prover sends an `s`-bit seeded linear hash of the input to every
//!   node. When `s` is large this behaves like the trivial protocol; when the
//!   proof budget drops below the fooling-set bound, the Lemma 23
//!   cut-and-paste attack finds a 0-input that every node accepts — which is
//!   exactly the mechanism behind the `Ω(r·n)` classical lower bound.

use commproto::bitstring::BitString;
use commproto::fingerprint::LinearCode;
use commproto::fooling::FoolingSet;
use netsim::{CostTracker, ProtocolCosts};

/// A classical dMA protocol for EQ on a path of length `r` where every node
/// receives an `s`-bit sketch of the (claimed) common input.
#[derive(Clone, Debug)]
pub struct SketchEqDma {
    n: usize,
    r: usize,
    sketch_bits: usize,
    code: LinearCode,
}

impl SketchEqDma {
    /// Builds the protocol with an `s`-bit seeded linear sketch.
    pub fn new(n: usize, r: usize, sketch_bits: usize, seed: u64) -> Self {
        assert!(sketch_bits >= 1, "sketch must have at least one bit");
        SketchEqDma {
            n,
            r,
            sketch_bits,
            code: LinearCode::random(n, sketch_bits, seed),
        }
    }

    /// The trivial protocol: the per-node proof carries (a faithful encoding
    /// of) the whole input — implemented as `2n` independent random parities,
    /// which is injective on `{0,1}^n` except with probability `2^{-n-1}` over
    /// the seed, so the attack below has no collision to exploit.
    pub fn trivial(n: usize, r: usize, seed: u64) -> Self {
        SketchEqDma::new(n, r, 2 * n, seed)
    }

    /// Input length.
    pub fn input_len(&self) -> usize {
        self.n
    }

    /// Path length.
    pub fn path_length(&self) -> usize {
        self.r
    }

    /// Per-node proof size in bits.
    pub fn sketch_bits(&self) -> usize {
        self.sketch_bits
    }

    /// The honest proof assignment for claimed input `x`: the same sketch at
    /// every node.
    pub fn honest_assignment(&self, x: &BitString) -> Vec<BitString> {
        vec![self.code.encode(x); self.r + 1]
    }

    /// Deterministic verification: node 0 checks its label is the sketch of
    /// `x`, node `r` checks its label is the sketch of `y`, and every node
    /// checks its label equals its right neighbour's. Returns `true` iff all
    /// nodes accept.
    pub fn accepts(&self, x: &BitString, y: &BitString, assignment: &[BitString]) -> bool {
        assert_eq!(assignment.len(), self.r + 1, "one label per node required");
        if assignment[0] != self.code.encode(x) || assignment[self.r] != self.code.encode(y) {
            return false;
        }
        assignment.windows(2).all(|w| w[0] == w[1])
    }

    /// Completeness: equal inputs with the honest assignment are always
    /// accepted.
    pub fn completeness(&self, x: &BitString) -> bool {
        self.accepts(x, x, &self.honest_assignment(x))
    }

    /// The Lemma 23 cut-and-paste attack: search the fooling set for two pairs
    /// whose honest proofs agree on some adjacent pair of nodes (here: whose
    /// sketches collide), and return a 0-input together with a forged
    /// assignment that every node accepts. Returns `None` when no collision
    /// exists (e.g. for the trivial protocol).
    pub fn fooling_attack(&self, fooling_set: &FoolingSet) -> Option<FoolingAttack> {
        let pairs = fooling_set.pairs();
        for i in 0..pairs.len() {
            for j in (i + 1)..pairs.len() {
                let (x1, _y1) = &pairs[i];
                let (_x2, y2) = &pairs[j];
                if self.code.encode(x1) == self.code.encode(_x2) && x1 != _x2 {
                    // Forged input (x1, y2) with the proof of the colliding sketch:
                    // every node sees a locally consistent picture.
                    let assignment = self.honest_assignment(x1);
                    if self.accepts(x1, y2, &assignment) && x1 != y2 {
                        return Some(FoolingAttack {
                            x: x1.clone(),
                            y: y2.clone(),
                            assignment,
                        });
                    }
                }
            }
        }
        None
    }

    /// Cost summary: `s` bits of proof per node, `0` communication beyond the
    /// neighbour comparison (counted as `s`-bit messages).
    pub fn costs(&self) -> ProtocolCosts {
        let mut t = CostTracker::new();
        for j in 0..=self.r {
            t.record_proof_bits(j, self.sketch_bits as u64);
        }
        for j in 0..self.r {
            t.record_message_bits(j, j + 1, self.sketch_bits as u64);
        }
        t.set_rounds(1);
        t.summary()
    }
}

/// A successful cut-and-paste attack: a 0-input `(x, y)` and a proof
/// assignment accepted by every node.
#[derive(Clone, Debug)]
pub struct FoolingAttack {
    /// Left input.
    pub x: BitString,
    /// Right input.
    pub y: BitString,
    /// The forged per-node proof assignment.
    pub assignment: Vec<BitString>,
}

/// The classical lower bound of Proposition 24 / Corollary 25: any `ν`-round
/// dMA protocol for a function with a 1-fooling set of size `2^n` whose total
/// proof size is at most `⌊(r−1)/(2ν)⌋·⌊(n−1)/2⌋` bits has soundness error at
/// least `1 − 2p` (with completeness `1 − p`). Returns that threshold.
pub fn dma_total_proof_threshold(n: usize, r: usize, rounds: usize) -> u64 {
    if r < 1 || n < 1 {
        return 0;
    }
    (((r - 1) / (2 * rounds)) as u64) * (((n - 1) / 2) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use commproto::fooling::eq_fooling_set;
    use commproto::problems::{Equality, TwoPartyFunction};

    #[test]
    fn trivial_protocol_is_complete_and_resists_the_attack() {
        let proto = SketchEqDma::trivial(6, 4, 1);
        let x = BitString::from_u64(37, 6);
        assert!(proto.completeness(&x));
        // With n independent parities no two of the 64 inputs collide (with
        // this seed), so the attack fails.
        assert!(proto.fooling_attack(&eq_fooling_set(6)).is_none());
    }

    #[test]
    fn short_sketches_fall_to_the_cut_and_paste_attack() {
        // s = 2 bits of proof per node versus a fooling set of size 2^6:
        // collisions are guaranteed by pigeonhole, and the attack succeeds.
        let proto = SketchEqDma::new(6, 4, 2, 3);
        let attack = proto
            .fooling_attack(&eq_fooling_set(6))
            .expect("pigeonhole guarantees a collision");
        let eq = Equality { n: 6 };
        assert!(
            !eq.eval(&attack.x, &attack.y),
            "the attack input must be a 0-input"
        );
        assert!(
            proto.accepts(&attack.x, &attack.y, &attack.assignment),
            "every node must accept the forged assignment"
        );
    }

    #[test]
    fn attack_threshold_matches_the_paper_formula() {
        // Total proof below ⌊(r-1)/2ν⌋·⌊(n-1)/2⌋ bits -> attackable.
        assert_eq!(dma_total_proof_threshold(9, 5, 1), 2 * 4);
        assert_eq!(dma_total_proof_threshold(9, 5, 2), 4);
        assert_eq!(dma_total_proof_threshold(3, 1, 1), 0);
        // The threshold grows linearly in both r and n: the Ω(rn) lower bound.
        assert!(dma_total_proof_threshold(65, 33, 1) >= 16 * 32);
    }

    #[test]
    fn mismatched_neighbour_labels_are_rejected() {
        let proto = SketchEqDma::new(4, 3, 3, 1);
        let x = BitString::from_u64(5, 4);
        let mut assignment = proto.honest_assignment(&x);
        assignment[1] = BitString::zeros(3).xor(&BitString::from_u64(1, 3));
        if assignment[1] == assignment[0] {
            assignment[1] = BitString::from_u64(2, 3);
        }
        assert!(!proto.accepts(&x, &x, &assignment));
    }

    #[test]
    fn quantum_vs_classical_total_proof_comparison() {
        // Table 2: the quantum EQ protocol's total grows as log n while any
        // sound classical protocol needs Ω(rn) bits, so for n >> r² the
        // quantum total is smaller. With the implemented costs at r = 4 it
        // crosses below between n = 2^16 and 2^20 (the §3.2 table of
        // tests/paper_claims.rs).
        let r = 4;
        for (k, below) in [(16, false), (20, true), (22, true), (24, true)] {
            let n = 1usize << k;
            let quantum = crate::eq_path::EqPathProtocol::costs_for(n, r).total_qubits();
            let classical = dma_total_proof_threshold(n, r, 1);
            assert_eq!(
                quantum < classical,
                below,
                "n = 2^{k}: quantum {quantum} vs classical {classical}"
            );
        }
    }

    #[test]
    fn costs_count_bits_not_qubits() {
        let c = SketchEqDma::new(8, 5, 3, 1).costs();
        assert_eq!(c.total_proof_bits, 6 * 3);
        assert_eq!(c.total_proof_qubits, 0);
        assert_eq!(c.local_proof_bits, 3);
    }
}
