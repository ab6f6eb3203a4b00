//! Seeded random states, unitaries, and counter-based stream splitting.
//!
//! Adversarial provers and property tests need Haar-like random pure states,
//! random density matrices of chosen rank, and random unitaries. Everything
//! here is driven by an explicit seed so experiments are reproducible.
//!
//! [`CounterRng`] is the splittable counterpart for Monte-Carlo engines: a
//! counter-mode SplitMix64 stream whose key is a pure function of a logical
//! coordinate (e.g. `(seed, block, trial)`), so any number of independent
//! streams can be opened in any order — or in lockstep lanes — without
//! sequential state handoff, and the draws of stream `t` never depend on how
//! the surrounding loop was chunked.

use crate::complex::Complex;
use crate::density::DensityMatrix;
use crate::linalg::{CMatrix, CVector};
use crate::state::{total_dim, PureState};
use rand::rngs::{SplitMix64, StdRng};
use rand::{Rng, RngCore, SeedableRng};

/// Golden-ratio increment shared by all stream-key derivations (the same
/// constant SplitMix64 itself advances by, reused for key spacing).
pub(crate) const STREAM_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// Odd multiplier (the xorshift1024* mixing constant) that spaces keys along
/// the *trial* axis, decorrelating it from the block axis which is spaced by
/// [`STREAM_GAMMA`].
pub(crate) const TRIAL_GAMMA: u64 = 0x2545_F491_4F6C_DD1D;

/// Counter-based splittable RNG: a SplitMix64 stream opened at an arbitrary
/// key.
///
/// Unlike a sequential generator, the `n`-th draw is a pure function of
/// `(key, n)`, so callers can derive one independent stream per logical unit
/// of work (per Monte-Carlo trial, per lane) from coordinates alone. This is
/// what makes lane-batched trial engines grouping-invariant: a trial's draws
/// are identical whether it runs alone, inside a 4-lane chunk, or inside a
/// 64-lane chunk. Statistical quality is that of SplitMix64 (passes BigCrush;
/// 2^64 period per stream), and distinct keys give overlap probability
/// negligible at any realistic draw count.
#[derive(Clone, Debug)]
pub struct CounterRng {
    stream: SplitMix64,
}

impl CounterRng {
    /// Opens the stream with the given key.
    pub fn new(key: u64) -> Self {
        CounterRng {
            stream: SplitMix64::new(key),
        }
    }

    /// Derives the shared key material for one `(seed, block)` coordinate.
    ///
    /// The block term is finalised through one SplitMix64 round so the block
    /// axis and the trial axis (which is XOR-mixed on top by
    /// [`CounterRng::for_trial_key`]) cannot cancel linearly.
    pub fn block_key(seed: u64, block: u64) -> u64 {
        SplitMix64::new(seed ^ block.wrapping_add(1).wrapping_mul(STREAM_GAMMA)).next_word()
    }

    /// Opens the stream of one trial within a block keyed by
    /// [`CounterRng::block_key`].
    #[inline]
    pub fn for_trial_key(block_key: u64, trial: u64) -> Self {
        CounterRng::new(block_key ^ trial.wrapping_add(1).wrapping_mul(TRIAL_GAMMA))
    }
}

impl RngCore for CounterRng {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.stream.next_word()
    }
}

/// Generator of random quantum objects with a fixed seed.
#[derive(Clone, Debug)]
pub struct RandomStateGenerator {
    rng: StdRng,
}

impl RandomStateGenerator {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        RandomStateGenerator {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Samples a standard normal real number (Box–Muller).
    fn gaussian(&mut self) -> f64 {
        loop {
            let u1: f64 = self.rng.random();
            let u2: f64 = self.rng.random();
            if u1 > 1e-300 {
                return (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            }
        }
    }

    /// Samples a complex number with i.i.d. standard normal components.
    fn complex_gaussian(&mut self) -> Complex {
        Complex::new(self.gaussian(), self.gaussian())
    }

    /// Samples a Haar-random pure state on the given register.
    pub fn random_pure(&mut self, dims: &[usize]) -> PureState {
        let d = total_dim(dims);
        let v = CVector::from_fn(d, |_| self.complex_gaussian()).normalized();
        PureState::from_amplitudes(dims, v)
    }

    /// Samples a random density matrix of the given rank (mixture of `rank`
    /// Haar-random pure states with Dirichlet-like random weights).
    ///
    /// # Panics
    ///
    /// Panics if `rank == 0`.
    pub fn random_density(&mut self, dims: &[usize], rank: usize) -> DensityMatrix {
        assert!(rank >= 1, "rank must be at least 1");
        let parts: Vec<(f64, DensityMatrix)> = (0..rank)
            .map(|_| {
                let w: f64 = self.rng.random::<f64>() + 1e-9;
                (w, DensityMatrix::from_pure(&self.random_pure(dims)))
            })
            .collect();
        DensityMatrix::mixture(&parts)
    }

    /// Samples a Haar-like random unitary of dimension `d` via Gram–Schmidt on
    /// a complex Gaussian matrix.
    pub fn random_unitary(&mut self, d: usize) -> CMatrix {
        // Columns of a Gaussian matrix, orthonormalised.
        let mut cols: Vec<CVector> = Vec::with_capacity(d);
        for _ in 0..d {
            let mut v = CVector::from_fn(d, |_| self.complex_gaussian());
            for c in &cols {
                let proj = c.inner(&v);
                v.add_scaled(c, -proj);
            }
            cols.push(v.normalized());
        }
        CMatrix::from_fn(d, d, |i, j| cols[j].at(i))
    }

    /// Samples a uniformly random bit string of length `n`.
    pub fn random_bits(&mut self, n: usize) -> Vec<bool> {
        (0..n).map(|_| self.rng.random::<bool>()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_pure_states_are_normalised() {
        let mut gen = RandomStateGenerator::new(1);
        for _ in 0..10 {
            let s = gen.random_pure(&[2, 3]);
            assert!((s.norm_sqr() - 1.0).abs() < 1e-10);
        }
    }

    #[test]
    fn random_density_is_valid() {
        let mut gen = RandomStateGenerator::new(2);
        for rank in 1..4 {
            let rho = gen.random_density(&[2, 2], rank);
            assert!(rho.is_valid(1e-8));
        }
    }

    #[test]
    fn rank_one_density_is_pure() {
        let mut gen = RandomStateGenerator::new(3);
        let rho = gen.random_density(&[3], 1);
        assert!((rho.purity() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn random_unitary_is_unitary() {
        let mut gen = RandomStateGenerator::new(4);
        for d in [2, 3, 5] {
            let u = gen.random_unitary(d);
            assert!(u.is_unitary(1e-9), "dimension {d}");
        }
    }

    #[test]
    fn seeding_is_reproducible() {
        let mut a = RandomStateGenerator::new(99);
        let mut b = RandomStateGenerator::new(99);
        let sa = a.random_pure(&[4]);
        let sb = b.random_pure(&[4]);
        assert!(sa.approx_eq(&sb, 1e-15));
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = RandomStateGenerator::new(1);
        let mut b = RandomStateGenerator::new(2);
        let sa = a.random_pure(&[4]);
        let sb = b.random_pure(&[4]);
        assert!(!sa.approx_eq(&sb, 1e-6));
    }

    #[test]
    fn random_bits_length() {
        let mut gen = RandomStateGenerator::new(5);
        assert_eq!(gen.random_bits(17).len(), 17);
    }

    #[test]
    fn overlap_of_random_states_is_small_in_high_dimension() {
        let mut gen = RandomStateGenerator::new(6);
        let a = gen.random_pure(&[32]);
        let b = gen.random_pure(&[32]);
        assert!(
            a.overlap_sqr(&b) < 0.5,
            "random 32-dim states should be nearly orthogonal"
        );
    }
}
