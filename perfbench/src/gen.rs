//! Seeded workload generator. The job (or batch) list is a pure function
//! of the seed: job `i` is derived from `(seed, i)` alone, so the list the
//! server sees does not depend on timing. The generator owns its RNG
//! (SplitMix64) so that changes to the library's RNG streams never change
//! the benchmark's inputs.
//!
//! Shares that the metrics depend on are stratified rather than drawn: each
//! group of consecutive jobs holds a fixed number of jobs of each class in
//! a seeded order, so two seeds give the same mix and differ only in order,
//! instance choice within a class, and trial seeds.

use dqma::service::{CheatSpec, InstanceSpec, JobSpec};
use dqma::trials::BLOCK_TRIALS;

/// SplitMix64: a full-period 64-bit generator, enough for input choice.
pub struct SplitMix(u64);

impl SplitMix {
    /// The generator for item `index` of stream `tag` under `seed`.
    pub fn at(seed: u64, tag: u64, index: u64) -> Self {
        let mut g = SplitMix(seed ^ tag.wrapping_mul(0xA076_1D64_78BD_642F));
        let base = g.next_u64();
        SplitMix(base ^ index.wrapping_mul(0xE703_7ED1_A0B4_28DB))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is irrelevant here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// A seeded permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            p.swap(i, self.below(i as u64 + 1) as usize);
        }
        p
    }
}

fn eq_path(r: usize, bits: usize, x: u64, y: u64, scheme_seed: u64) -> InstanceSpec {
    InstanceSpec::EqPath {
        r,
        bits,
        x,
        y,
        scheme_seed,
        reps: 2,
        cheat: CheatSpec::Interpolate,
    }
}

fn relay(r: usize, bits: usize, x: u64, y: u64, seed: u64) -> InstanceSpec {
    InstanceSpec::Relay {
        r,
        bits,
        x,
        y,
        seed,
        cheat: CheatSpec::Interpolate,
    }
}

fn eq_tree(arms: usize, arm_len: usize, bits: usize, x: u64, y: u64) -> InstanceSpec {
    InstanceSpec::EqTree {
        arms,
        arm_len,
        bits,
        x,
        y,
        scheme_seed: 5,
        reps: 2,
    }
}

/// Whether the instance's compiled plan samples on the per-trial fallback
/// walk instead of the lane walk: an EQ path with more than 62 intermediate
/// nodes does not fit its coins in one word. The pools below keep relay
/// segments and trees within one word.
pub fn on_fallback_walk(instance: &InstanceSpec) -> bool {
    matches!(instance, InstanceSpec::EqPath { r, .. } if *r > 63)
}

/// Protocol class of an instance, for the reported instance mix.
pub fn class_of(instance: &InstanceSpec) -> &'static str {
    match instance {
        InstanceSpec::EqPath { .. } if on_fallback_walk(instance) => "eq_path_fallback",
        InstanceSpec::EqPath { .. } => "eq_path_lane",
        InstanceSpec::Relay { .. } => "relay",
        InstanceSpec::EqTree { .. } => "eq_tree",
    }
}

/// Lane-path pool.
fn lane_pool() -> Vec<InstanceSpec> {
    let mut pool = Vec::new();
    for (i, r) in [4usize, 8, 12, 16, 24, 32, 40, 48, 56, 62]
        .into_iter()
        .enumerate()
    {
        let x = 0b1011_0110 >> (i % 3);
        pool.push(eq_path(r, 8, x, x, 11 + i as u64));
        pool.push(eq_path(r, 6, 0b101101, 0b100101 ^ i as u64, 3 + i as u64));
    }
    for (i, r) in [9usize, 12, 16].into_iter().enumerate() {
        pool.push(relay(r, 6, 0b101101, 0b011011, 3 + i as u64));
    }
    for (arms, arm_len) in [(3usize, 1usize), (3, 2), (4, 1), (4, 2)] {
        pool.push(eq_tree(arms, arm_len, 4, 9, 6));
    }
    pool
}

/// Fallback-walk pool: EQ paths with `r ∈ [64, 128]`.
fn fallback_pool() -> Vec<InstanceSpec> {
    let mut pool = Vec::new();
    for (i, r) in [64usize, 72, 80, 96, 112, 128].into_iter().enumerate() {
        pool.push(eq_path(r, 6, 0b101101, 0b101101, 11 + i as u64));
        pool.push(eq_path(r, 6, 0b101101, 0b110101, 17 + i as u64));
    }
    pool
}

/// Group layout: per 30 consecutive jobs, 9 resubmits, 7 fresh
/// fallback-walk jobs and 14 fresh lane-path jobs.
pub const GROUP: u64 = 30;
const RESUBMITS: usize = 9;
const FALLBACK: usize = 7;

/// A resubmit copies a job this many jobs back at least, and at most
/// `RESUBMIT_MAX_BACK`: near enough that its blocks are still memoised.
const RESUBMIT_MIN_BACK: u64 = 16;
const RESUBMIT_MAX_BACK: u64 = 64;

/// The `serve_small` job list under one seed.
pub struct JobGen {
    seed: u64,
    lane: Vec<InstanceSpec>,
    fallback: Vec<InstanceSpec>,
}

impl JobGen {
    pub fn new(seed: u64) -> Self {
        JobGen {
            seed,
            lane: lane_pool(),
            fallback: fallback_pool(),
        }
    }

    /// Job `i` of the list. A list cut after a whole number of [`GROUP`]s
    /// has the exact class mix.
    pub fn job(&self, i: u64) -> JobSpec {
        let perm = SplitMix::at(self.seed, 1, i / GROUP).permutation(GROUP as usize);
        let slot = perm[(i % GROUP) as usize];
        let mut g = SplitMix::at(self.seed, 2, i);
        if slot < RESUBMITS && i >= RESUBMIT_MAX_BACK {
            let back = RESUBMIT_MIN_BACK + g.below(RESUBMIT_MAX_BACK - RESUBMIT_MIN_BACK + 1);
            return self.job(i - back);
        }
        let pool = if (RESUBMITS..RESUBMITS + FALLBACK).contains(&slot) {
            &self.fallback
        } else {
            &self.lane
        };
        let instance = pool[g.below(pool.len() as u64) as usize].clone();
        job(instance, 1 + g.below(2), g.next_u64())
    }
}

/// Trial seeds stay below 2^53: the service's JSON wire form carries
/// numbers as `f64`, which would round larger seeds.
fn job(instance: InstanceSpec, blocks: u64, seed: u64) -> JobSpec {
    JobSpec {
        instance,
        trials: blocks * BLOCK_TRIALS,
        seed: seed >> 11,
        deadline_ms: None,
        chaos: None,
    }
}

/// Trials per `fleet_r8` batch: 0.2–0.4 s of a 9-process fleet on two
/// cores, so a 40 s run holds 100–200 batches.
pub const FLEET_BATCH: u64 = 2_048;

/// The `fleet_r8` batch seeds: batch `i` runs `FLEET_BATCH` trials from
/// `batch_seed(seed, i)`.
pub fn batch_seed(seed: u64, i: u64) -> u64 {
    SplitMix::at(seed, 3, i).next_u64()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn render(seed: u64, n: u64) -> String {
        let g = JobGen::new(seed);
        (0..n).map(|i| g.job(i).to_json() + "\n").collect()
    }

    #[test]
    fn same_seed_gives_byte_identical_job_lists() {
        assert_eq!(render(7, 3000), render(7, 3000));
        assert_ne!(render(7, 3000), render(8, 3000));
        let batches = |seed| (0..500).map(|i| batch_seed(seed, i)).collect::<Vec<_>>();
        assert_eq!(batches(7), batches(7));
        assert_ne!(batches(7), batches(8));
    }

    #[test]
    fn every_generated_job_is_admissible() {
        let g = JobGen::new(1);
        for i in 0..600 {
            let j = g.job(i);
            j.instance
                .validate()
                .expect("pool instance within the caps");
            assert!(j.trials.is_multiple_of(BLOCK_TRIALS), "whole blocks only");
        }
    }

    #[test]
    fn mix_has_fallback_and_resubmit_shares() {
        let g = JobGen::new(3);
        let n = 3000;
        let jobs: Vec<JobSpec> = (0..n).map(|i| g.job(i)).collect();
        let fallback = jobs
            .iter()
            .filter(|j| on_fallback_walk(&j.instance))
            .count();
        let share = fallback as f64 / n as f64;
        assert!((0.25..0.42).contains(&share), "fallback share {share}");
        let mut seen = std::collections::HashSet::new();
        let repeats = jobs.iter().filter(|j| !seen.insert(j.to_json())).count();
        let share = repeats as f64 / n as f64;
        assert!((0.25..0.32).contains(&share), "resubmit share {share}");
    }
}
