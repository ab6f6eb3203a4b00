//! One-way quantum communication protocols (Section 2.2.1).
//!
//! A one-way protocol for `f` lets Alice send a single quantum message to Bob,
//! who must output `f(x, y)` with bounded error. The dQMA constructions of
//! Sections 3 and 6 of the paper consume such protocols through a narrow
//! interface: the message state `|ψ(x)>`, Bob's accept effect `M_{y,1}`, the
//! message size, and the error bounds. This module defines that interface and
//! provides:
//!
//! * [`EqOneWay`] — the fingerprint protocol π for EQ with one-sided error,
//! * [`ExactHammingOneWay`] — an exact (but `n`-qubit) protocol for `HAM≤d`,
//!   used as the correctness baseline,
//! * [`GapHammingOneWay`] — a sketch-based protocol with `O(log n)`-qubit
//!   messages that separates distance `≤ d` from distance `≥ 2d + 1`
//!   (the simulable substitute for the LZ13 protocol; see DESIGN.md).

use crate::bitstring::BitString;
use crate::fingerprint::FingerprintScheme;
use crate::problems::{HammingAtMost, TwoPartyFunction};
use qsim::{CMatrix, DensityMatrix, PureState};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A one-way quantum communication protocol for a two-party function.
pub trait OneWayProtocol {
    /// Input length per party.
    fn input_len(&self) -> usize;

    /// Hilbert-space dimension of Alice's message register.
    fn message_dim(&self) -> usize;

    /// Message size in qubits (`⌈log₂ dim⌉`).
    fn message_qubits(&self) -> usize {
        self.message_dim().next_power_of_two().trailing_zeros() as usize
    }

    /// Alice's message on input `x`.
    fn alice_message(&self, x: &BitString) -> PureState;

    /// Bob's accept effect `M_{y,1}` on input `y` (a PSD operator `≤ I` on the
    /// message register).
    fn bob_effect(&self, y: &BitString) -> CMatrix;

    /// Probability that Bob accepts when the message register is in state
    /// `message` and Bob's input is `y`.
    fn accept_probability(&self, message: &DensityMatrix, y: &BitString) -> f64 {
        message.expectation(&self.bob_effect(y)).re.clamp(0.0, 1.0)
    }

    /// Acceptance probability on the honest message for `(x, y)`.
    fn honest_accept_probability(&self, x: &BitString, y: &BitString) -> f64 {
        let msg = self.alice_message(x);
        let effect = self.bob_effect(y);
        let v = msg.amplitudes();
        v.inner(&effect.apply(v)).re.clamp(0.0, 1.0)
    }

    /// Acceptance probability guaranteed on 1-inputs (completeness).
    fn completeness(&self) -> f64;

    /// Maximum acceptance probability on 0-inputs (soundness error).
    fn soundness_error(&self) -> f64;
}

/// The fingerprint protocol π for EQ: Alice sends `|h_x>`, Bob projects onto
/// `|h_y>`. Accepts `x = y` with probability 1; accepts `x ≠ y` with
/// probability at most `δ²` where `δ` is the fingerprint overlap bound.
#[derive(Clone, Debug)]
pub struct EqOneWay {
    scheme: FingerprintScheme,
    delta: f64,
}

impl EqOneWay {
    /// Builds the protocol from a fingerprint scheme, measuring the realised
    /// overlap bound `δ` (exhaustively for `n ≤ 12`, by sampling otherwise).
    pub fn new(scheme: FingerprintScheme) -> Self {
        let delta = if scheme.input_len() <= 12 {
            scheme.max_pairwise_overlap()
        } else {
            scheme.estimate_max_overlap(300, 0xF1A9)
        };
        EqOneWay { scheme, delta }
    }

    /// Convenience constructor with default parameters for `n`-bit inputs.
    pub fn for_input_len(n: usize, seed: u64) -> Self {
        EqOneWay::new(FingerprintScheme::new(n, seed))
    }

    /// The fingerprint scheme in use.
    pub fn scheme(&self) -> &FingerprintScheme {
        &self.scheme
    }

    /// The measured overlap bound `δ`.
    pub fn delta(&self) -> f64 {
        self.delta
    }
}

impl OneWayProtocol for EqOneWay {
    fn input_len(&self) -> usize {
        self.scheme.input_len()
    }
    fn message_dim(&self) -> usize {
        self.scheme.dim()
    }
    fn alice_message(&self, x: &BitString) -> PureState {
        self.scheme.fingerprint(x)
    }
    fn bob_effect(&self, y: &BitString) -> CMatrix {
        self.scheme.accept_effect(y)
    }
    fn completeness(&self) -> f64 {
        1.0
    }
    fn soundness_error(&self) -> f64 {
        self.delta * self.delta
    }
}

/// An exact one-way protocol for `HAM≤d`: Alice sends `x` itself as a basis
/// state (`n` qubits) and Bob compares classically. Zero error, but the
/// message is as long as the input — the baseline against which the sketch
/// protocol's savings are measured.
#[derive(Clone, Copy, Debug)]
pub struct ExactHammingOneWay {
    /// Input length in bits.
    pub n: usize,
    /// Distance threshold.
    pub d: usize,
}

impl OneWayProtocol for ExactHammingOneWay {
    fn input_len(&self) -> usize {
        self.n
    }
    fn message_dim(&self) -> usize {
        1 << self.n
    }
    fn alice_message(&self, x: &BitString) -> PureState {
        PureState::single(1 << self.n, x.to_u64() as usize)
    }
    fn bob_effect(&self, y: &BitString) -> CMatrix {
        let f = HammingAtMost {
            n: self.n,
            d: self.d,
        };
        let dim = 1 << self.n;
        let probs: Vec<f64> = (0..dim)
            .map(|v| {
                let x = BitString::from_u64(v as u64, self.n);
                if f.eval(&x, y) {
                    1.0
                } else {
                    0.0
                }
            })
            .collect();
        qsim::measure::diagonal_effect(&probs)
    }
    fn completeness(&self) -> f64 {
        1.0
    }
    fn soundness_error(&self) -> f64 {
        0.0
    }
}

/// A gap one-way protocol for the Hamming distance built from parity sketches:
/// Alice's message is `(1/√K) Σ_j |j>|p_j(x)>` where `p_j` is the parity of a
/// seeded random subset of coordinates with inclusion probability `1/(2d)`.
/// Bob projects onto his own sketch.
///
/// Accepts distance `≤ d` pairs with noticeably higher probability than
/// distance `≥ 2d + 1` pairs. This is the `O(log n)`-qubit simulable
/// substitute for the exact-threshold LZ13 protocol; the recorded
/// completeness/soundness reflect the realised gap (see DESIGN.md).
#[derive(Clone, Debug)]
pub struct GapHammingOneWay {
    n: usize,
    d: usize,
    subsets: Vec<BitString>,
    completeness: f64,
    soundness_error: f64,
}

impl GapHammingOneWay {
    /// Builds the protocol with `k` parity sketches.
    ///
    /// # Panics
    ///
    /// Panics if `d == 0` or `k == 0`.
    pub fn new(n: usize, d: usize, k: usize, seed: u64) -> Self {
        assert!(d >= 1, "distance threshold must be positive");
        assert!(k >= 1, "need at least one sketch");
        let mut rng = StdRng::seed_from_u64(seed);
        let p = 1.0 / (2.0 * d as f64);
        let subsets: Vec<BitString> = (0..k)
            .map(|_| {
                BitString::new(
                    &(0..n)
                        .map(|_| rng.random::<f64>() < p)
                        .collect::<Vec<bool>>(),
                )
            })
            .collect();
        // The expected sketch agreement for a pair at distance D is
        // 1/2 + (1 - 2p)^D / 2; acceptance probability is its square.
        let agree = |dist: f64| 0.5 + 0.5 * (1.0 - 2.0 * p).powf(dist);
        let completeness = agree(d as f64).powi(2);
        let soundness_error = agree((2 * d + 1) as f64).powi(2);
        GapHammingOneWay {
            n,
            d,
            subsets,
            completeness,
            soundness_error,
        }
    }

    /// Convenience constructor: `k = 16` sketches.
    pub fn with_default_sketches(n: usize, d: usize, seed: u64) -> Self {
        GapHammingOneWay::new(n, d, 16, seed)
    }

    /// The distance threshold `d`.
    pub fn threshold(&self) -> usize {
        self.d
    }

    fn sketch(&self, x: &BitString) -> PureState {
        let k = self.subsets.len();
        let amp = 1.0 / (k as f64).sqrt();
        let mut amps = vec![qsim::Complex::ZERO; 2 * k];
        for (j, subset) in self.subsets.iter().enumerate() {
            let parity = usize::from(subset.inner_product_mod2(x));
            amps[2 * j + parity] = qsim::Complex::real(amp);
        }
        PureState::from_amplitudes(&[2 * k], qsim::CVector::new(amps))
    }
}

impl OneWayProtocol for GapHammingOneWay {
    fn input_len(&self) -> usize {
        self.n
    }
    fn message_dim(&self) -> usize {
        2 * self.subsets.len()
    }
    fn alice_message(&self, x: &BitString) -> PureState {
        self.sketch(x)
    }
    fn bob_effect(&self, y: &BitString) -> CMatrix {
        CMatrix::projector(self.sketch(y).amplitudes())
    }
    fn completeness(&self) -> f64 {
        self.completeness
    }
    fn soundness_error(&self) -> f64 {
        self.soundness_error
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problems::Equality;

    #[test]
    fn eq_protocol_is_perfectly_complete() {
        let proto = EqOneWay::for_input_len(5, 7);
        let x = BitString::from_str01("10110");
        assert!((proto.honest_accept_probability(&x, &x) - 1.0).abs() < 1e-10);
    }

    #[test]
    fn eq_protocol_rejects_unequal_inputs_with_good_probability() {
        let proto = EqOneWay::new(FingerprintScheme::with_parameters(5, 24, 1, 7));
        let f = Equality { n: 5 };
        let x = BitString::from_str01("10110");
        let y = BitString::from_str01("10111");
        assert!(!f.eval(&x, &y));
        let p = proto.honest_accept_probability(&x, &y);
        assert!(p <= proto.soundness_error() + 1e-10, "p={p}");
        assert!(proto.soundness_error() < 1.0);
        // Tensor-power amplification drives the soundness error below 1/3
        // (checked analytically so no large joint state is built).
        let amplified = FingerprintScheme::with_parameters(5, 24, 4, 7);
        let delta = amplified.max_pairwise_overlap();
        assert!(
            delta * delta < 1.0 / 3.0,
            "amplified delta^2 = {}",
            delta * delta
        );
    }

    #[test]
    fn eq_message_size_is_logarithmic() {
        let proto = EqOneWay::for_input_len(32, 1);
        assert!(
            proto.message_qubits() <= 9,
            "got {}",
            proto.message_qubits()
        );
    }

    #[test]
    fn exact_hamming_protocol_is_exact() {
        let proto = ExactHammingOneWay { n: 4, d: 1 };
        let f = HammingAtMost { n: 4, d: 1 };
        for xv in 0..16u64 {
            for yv in 0..16u64 {
                let x = BitString::from_u64(xv, 4);
                let y = BitString::from_u64(yv, 4);
                let p = proto.honest_accept_probability(&x, &y);
                if f.eval(&x, &y) {
                    assert!((p - 1.0).abs() < 1e-10);
                } else {
                    assert!(p < 1e-10);
                }
            }
        }
    }

    #[test]
    fn gap_hamming_separates_close_from_far() {
        let n = 24;
        let d = 2;
        let proto = GapHammingOneWay::new(n, d, 64, 3);
        let x = BitString::zeros(n);
        // Distance exactly d.
        let close = BitString::from_u64((1 << d) - 1, n);
        // Distance 2d + 2 (far side of the promise).
        let far = BitString::from_u64((1 << (2 * d + 2)) - 1, n);
        let p_close = proto.honest_accept_probability(&x, &close);
        let p_far = proto.honest_accept_probability(&x, &far);
        assert!(
            p_close > p_far,
            "close pairs should be accepted more often: {p_close} vs {p_far}"
        );
        assert!(proto.completeness() > proto.soundness_error());
    }

    #[test]
    fn gap_hamming_identical_inputs_always_accept() {
        let proto = GapHammingOneWay::with_default_sketches(10, 2, 5);
        let x = BitString::from_u64(777, 10);
        assert!((proto.honest_accept_probability(&x, &x) - 1.0).abs() < 1e-10);
    }

    #[test]
    fn gap_hamming_message_is_small() {
        let proto = GapHammingOneWay::new(1000, 3, 32, 9);
        assert!(proto.message_qubits() <= 7);
    }

    #[test]
    fn bob_effect_is_a_valid_effect() {
        let proto = EqOneWay::for_input_len(4, 11);
        let y = BitString::from_str01("0101");
        let e = proto.bob_effect(&y);
        assert!(e.is_hermitian(1e-10));
        let top = qsim::linalg::max_eigenvalue(&e);
        assert!(top <= 1.0 + 1e-9);
    }
}
