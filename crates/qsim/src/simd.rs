//! Runtime-dispatched SIMD executors with always-compiled scalar oracles.
//!
//! Every executor in this module has two bodies: a **scalar oracle** that is
//! compiled on every target and defines the reference semantics, and (under
//! `feature = "simd"` on `x86_64`) an AVX2 `std::arch` twin selected at
//! runtime via `is_x86_feature_detected!`. The twins are written so that
//! their results are **bit-identical** to the oracle, not merely close:
//!
//! * the lane executors ([`fused_lane_walk`], [`tree_lane_accumulate`],
//!   [`count_accepts`]) perform per-lane products in the same multiplication
//!   order as the oracle, using only lane-wise IEEE-754 operations (table
//!   selects are exact, `vmulpd` rounds identically to scalar `*`, and no
//!   FMA contraction is ever emitted);
//! * the split-plane kernels ([`complex_scale_into`], [`axpy`],
//!   [`gather_avg`]) are elementwise, so vectorisation cannot reorder any
//!   reduction;
//! * the one genuine reduction ([`row_dot`]) fixes a four-partial-sum
//!   contract — element `j` accumulates into partial `j % 4`, and the
//!   partials combine as `(s0+s2)+(s1+s3)` — which the oracle implements
//!   directly and the AVX2 twin inherits from the natural horizontal sum of
//!   a 4-lane register.
//!
//! Because of this, switching SIMD on or off (or running on a non-AVX2 host)
//! never changes accept counts, acceptance probabilities, or any other
//! result — only throughput. The dqma trial engine and the mixed-proof
//! kernel executors rely on that contract, and the integration suite pins it
//! by diffing full trial reports across the scalar and SIMD paths.
//!
//! The chain-layout helpers ([`fuse_chain_tables`], [`shift_coin_planes`])
//! are compile-time or integer-only, so they have one body for both paths.
//!
//! # Dispatch
//!
//! [`enabled`] is a process-wide switch initialised to "on when compiled in
//! and the host has AVX2". [`set_enabled`] lets benchmarks time the scalar
//! oracle and the AVX2 path in the same process (the
//! `speedup_simd_vs_scalar` bench columns are same-run ratios for exactly
//! this reason); it clamps to [`available`], so calling `set_enabled(true)`
//! in a scalar-only build is a no-op that leaves the oracle in place.

// The AVX2 intrinsics are `unsafe` to call; every call site carries its
// `SAFETY:` argument.
#![allow(unsafe_code)]

use std::sync::atomic::{AtomicU8, Ordering};

/// Tri-state: 2 = uninitialised, 1 = enabled, 0 = disabled.
static ENABLED: AtomicU8 = AtomicU8::new(2);

/// Whether the AVX2 executors are compiled in *and* the host supports them.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
pub fn available() -> bool {
    std::arch::is_x86_feature_detected!("avx2")
}

/// Whether the AVX2 executors are compiled in *and* the host supports them.
#[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
pub fn available() -> bool {
    false
}

/// Whether the AVX2 executors are currently selected (defaults to
/// [`available`]).
#[inline]
pub fn enabled() -> bool {
    match ENABLED.load(Ordering::Relaxed) {
        0 => false,
        1 => true,
        _ => {
            let on = available();
            ENABLED.store(u8::from(on), Ordering::Relaxed);
            on
        }
    }
}

/// Selects (or deselects) the AVX2 executors process-wide, clamped to
/// [`available`]; returns the effective setting.
///
/// Results are bit-identical either way — this exists so benchmarks can time
/// both paths in one process and report same-run speedup ratios.
pub fn set_enabled(on: bool) -> bool {
    let eff = on && available();
    ENABLED.store(u8::from(eff), Ordering::Relaxed);
    eff
}

// ---------------------------------------------------------------------------
// Trial-lane executors (drive the dqma lane-batched trial engine)
// ---------------------------------------------------------------------------

/// Nodes fused per chunk in a chunked chain table (see [`fused_lane_walk`]).
pub const CHUNK_NODES: usize = 8;

/// Entries per chunk table: a chunk of `m ≤ CHUNK_NODES` nodes reads
/// `m + 1` consecutive selector bits of its coin word — at most
/// `CHUNK_NODES + 1` bits, since adjacent nodes share a coin bit.
pub const CHUNK_STRIDE: usize = 1 << (CHUNK_NODES + 1);

/// Chain nodes covered by one pre-shifted coin word. The word's node `i`
/// reads selector bits `i` and `i + 1`, so 63 nodes use all 64 bits: bit 0
/// carries the coin before the word's first node and bits `1..=63` carry
/// the word's 63 own coins (see [`shift_coin_planes`]).
pub const WORD_NODES: usize = 63;

/// Chunks per coin word: seven chunks of [`CHUNK_NODES`] nodes and a last
/// chunk of seven. Chunk `c` reads word plane `c / WORD_CHUNKS` at shift
/// `CHUNK_NODES · (c % WORD_CHUNKS)`.
pub const WORD_CHUNKS: usize = WORD_NODES.div_ceil(CHUNK_NODES);

/// Fuses per-node chain tables into the chunk tables of [`fused_lane_walk`].
///
/// `tables` holds four entries per node, node `j`'s entry at selector
/// `c_{j−1} + 2·c_j`. Nodes split into words of [`WORD_NODES`] and each
/// word into chunks of at most [`CHUNK_NODES`]; chunk `c` gets one
/// [`CHUNK_STRIDE`]-entry table holding, for every value of its
/// `m_c + 1`-bit selector window, the product of its nodes' entries in
/// ascending node order (unused entries are 0). Returns the packed tables
/// and the per-chunk masks `2^(m_c + 1) − 1`.
///
/// # Panics
///
/// Panics if `tables` is empty or not a whole number of nodes.
pub fn fuse_chain_tables(tables: &[f64]) -> (Vec<f64>, Vec<u64>) {
    assert!(!tables.is_empty() && tables.len().is_multiple_of(4));
    let nodes = tables.len() / 4;
    let mut fused = Vec::new();
    let mut masks = Vec::new();
    for word_start in (0..nodes).step_by(WORD_NODES) {
        let word_end = nodes.min(word_start + WORD_NODES);
        for first in (word_start..word_end).step_by(CHUNK_NODES) {
            let m = CHUNK_NODES.min(word_end - first);
            let mask = (1u64 << (m + 1)) - 1;
            let mut tbl = [0.0f64; CHUNK_STRIDE];
            for (sel, t) in tbl.iter_mut().enumerate().take(mask as usize + 1) {
                let mut p = 1.0f64;
                for i in 0..m {
                    p *= tables[4 * (first + i) + ((sel >> i) & 3)];
                }
                *t = p;
            }
            fused.extend_from_slice(&tbl);
            masks.push(mask);
        }
    }
    (fused, masks)
}

/// Turns plane-major raw coin words into the pre-shifted planes that
/// [`fused_lane_walk`] reads, in place: `planes[w·lanes + i]` holds lane
/// `i`'s raw draw `raw_w` on entry, and on return plane 0 is `raw₀ << 1`
/// and plane `w ≥ 1` is `(raw_w << 1) | ((raw_{w−1} >> 62) & 1)`.
///
/// Bits `0..=62` of `raw_w` are the coins of nodes `63w .. 63w + 62`, and
/// each plane's bit 0 inherits the coin before its first node (0 for the
/// first plane), so node `63w + i` finds its selector at bits `i, i + 1`
/// of plane `w`. Bit 63 of every raw word is unused. One word gives
/// exactly the single-word layout `raw << 1`. Integer shifts only, so the
/// scalar and AVX2 dispatch paths share this one body.
///
/// # Panics
///
/// Panics if `lanes` is 0 or `planes.len()` is not a multiple of it.
pub fn shift_coin_planes(planes: &mut [u64], lanes: usize) {
    assert!(lanes > 0 && planes.len().is_multiple_of(lanes));
    // Highest plane first: plane w reads raw_{w−1} before it is shifted.
    for w in (1..planes.len() / lanes).rev() {
        let (lo, hi) = planes.split_at_mut(w * lanes);
        for (p, &prev) in hi[..lanes].iter_mut().zip(&lo[(w - 1) * lanes..]) {
            *p = (*p << 1) | ((prev >> 62) & 1);
        }
    }
    for p in planes.iter_mut().take(lanes) {
        *p <<= 1;
    }
}

/// Per-lane chunked chain walk: for each lane `i` of `L = acc.len()`,
/// `acc[i] = Π_c fused[CHUNK_STRIDE·c + ((aug[w_c·L + i] >> s_c) & masks[c])]`,
/// where chunk `c` reads plane `w_c = c / WORD_CHUNKS` at shift
/// `s_c = CHUNK_NODES · (c % WORD_CHUNKS)`.
///
/// `fused` and `masks` come from [`fuse_chain_tables`]: one pre-multiplied
/// table per chunk of at most [`CHUNK_NODES`] chain nodes, a chunk of `m`
/// nodes being a function of `m + 1` consecutive selector bits. `aug` is
/// plane-major — `W = ⌈masks.len() / WORD_CHUNKS⌉` planes of `L` lanes,
/// each prepared by [`shift_coin_planes`] — and every chunk loads its
/// selector from its own plane. The per-lane product multiplies chunks in
/// ascending order starting from 1.0; the scalar oracle and the AVX2 twin
/// (gather + lane-wise `vmulpd`, no FMA) follow the same order, so results
/// are bit-identical.
///
/// # Panics
///
/// Panics if `fused` is shorter than `masks.len() · CHUNK_STRIDE`, a mask
/// exceeds a chunk table, or `aug` does not hold exactly `W` planes of
/// `acc.len()` lanes.
pub fn fused_lane_walk(fused: &[f64], masks: &[u64], aug: &[u64], acc: &mut [f64]) {
    assert!(fused.len() >= masks.len() * CHUNK_STRIDE);
    assert_eq!(aug.len(), masks.len().div_ceil(WORD_CHUNKS) * acc.len());
    assert!(masks.iter().all(|&m| m < CHUNK_STRIDE as u64));
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if enabled() {
        // SAFETY: `enabled()` implies AVX2 was detected at runtime, the
        // masks were just checked to keep every gather index below
        // CHUNK_STRIDE, and `aug` holds one plane of `acc.len()` lanes for
        // every word of chunks.
        unsafe { fused_lane_walk_avx2(fused, masks, aug, acc) };
        return;
    }
    fused_lane_walk_scalar(fused, masks, aug, acc.len(), 0, acc);
}

/// Scalar oracle for [`fused_lane_walk`] over lanes `lo .. lo + acc.len()`
/// of planes with stride `lanes`; always compiled, also used for
/// sub-register tail lanes of the AVX2 path. Iterates chunk-outer /
/// lane-inner so the per-lane multiply chains interleave (the product order
/// per lane is still ascending chunks).
fn fused_lane_walk_scalar(
    fused: &[f64],
    masks: &[u64],
    aug: &[u64],
    lanes: usize,
    lo: usize,
    acc: &mut [f64],
) {
    acc.fill(1.0);
    for (c, &mask) in masks.iter().enumerate() {
        let tbl: &[f64; CHUNK_STRIDE] = fused[c * CHUNK_STRIDE..(c + 1) * CHUNK_STRIDE]
            .try_into()
            .expect("chunk stride");
        let plane = &aug[(c / WORD_CHUNKS) * lanes + lo..][..acc.len()];
        let shift = (CHUNK_NODES * (c % WORD_CHUNKS)) as u32;
        // Mask re-clamped so the compiler can drop the bounds check against
        // the fixed-size chunk table.
        let mask = mask & (CHUNK_STRIDE as u64 - 1);
        for (a, &w) in acc.iter_mut().zip(plane) {
            *a *= tbl[((w >> shift) & mask) as usize];
        }
    }
}

/// AVX2 twin of [`fused_lane_walk`]: four lanes per register, selectors by
/// shift + mask from each word's plane, chunk entries fetched with
/// `vgatherqpd` (exact loads), products accumulated with lane-wise `vmulpd`
/// in the same chunk order as the oracle — bit-identical results. The main
/// loop carries 16 lanes (4 registers) so the gathers of consecutive chunks
/// overlap.
///
/// # Safety
///
/// The host must support AVX2, every mask must be below `CHUNK_STRIDE`,
/// `fused` must hold `masks.len()` chunk tables, and `aug` must hold
/// `⌈masks.len() / WORD_CHUNKS⌉` planes of `acc.len()` lanes — the
/// conditions [`fused_lane_walk`] asserts before the call.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
unsafe fn fused_lane_walk_avx2(fused: &[f64], masks: &[u64], aug: &[u64], acc: &mut [f64]) {
    use std::arch::x86_64::*;
    let n = acc.len();
    let mut i = 0usize;
    while i + 16 <= n {
        let one = _mm256_set1_pd(1.0);
        let (mut p0, mut p1, mut p2, mut p3) = (one, one, one, one);
        for (w, word_masks) in masks.chunks(WORD_CHUNKS).enumerate() {
            let src = aug.as_ptr().add(w * n + i);
            let a0 = _mm256_loadu_si256(src as *const __m256i);
            let a1 = _mm256_loadu_si256(src.add(4) as *const __m256i);
            let a2 = _mm256_loadu_si256(src.add(8) as *const __m256i);
            let a3 = _mm256_loadu_si256(src.add(12) as *const __m256i);
            for (q, &mask) in word_masks.iter().enumerate() {
                let base = fused.as_ptr().add((w * WORD_CHUNKS + q) * CHUNK_STRIDE);
                let cnt = _mm_cvtsi32_si128((CHUNK_NODES * q) as i32);
                let mv = _mm256_set1_epi64x(mask as i64);
                let s0 = _mm256_and_si256(_mm256_srl_epi64(a0, cnt), mv);
                let s1 = _mm256_and_si256(_mm256_srl_epi64(a1, cnt), mv);
                let s2 = _mm256_and_si256(_mm256_srl_epi64(a2, cnt), mv);
                let s3 = _mm256_and_si256(_mm256_srl_epi64(a3, cnt), mv);
                p0 = _mm256_mul_pd(p0, _mm256_i64gather_pd::<8>(base, s0));
                p1 = _mm256_mul_pd(p1, _mm256_i64gather_pd::<8>(base, s1));
                p2 = _mm256_mul_pd(p2, _mm256_i64gather_pd::<8>(base, s2));
                p3 = _mm256_mul_pd(p3, _mm256_i64gather_pd::<8>(base, s3));
            }
        }
        _mm256_storeu_pd(acc.as_mut_ptr().add(i), p0);
        _mm256_storeu_pd(acc.as_mut_ptr().add(i + 4), p1);
        _mm256_storeu_pd(acc.as_mut_ptr().add(i + 8), p2);
        _mm256_storeu_pd(acc.as_mut_ptr().add(i + 12), p3);
        i += 16;
    }
    while i + 4 <= n {
        let mut pv = _mm256_set1_pd(1.0);
        for (w, word_masks) in masks.chunks(WORD_CHUNKS).enumerate() {
            let av = _mm256_loadu_si256(aug.as_ptr().add(w * n + i) as *const __m256i);
            for (q, &mask) in word_masks.iter().enumerate() {
                let base = fused.as_ptr().add((w * WORD_CHUNKS + q) * CHUNK_STRIDE);
                let cnt = _mm_cvtsi32_si128((CHUNK_NODES * q) as i32);
                let mv = _mm256_set1_epi64x(mask as i64);
                let sv = _mm256_and_si256(_mm256_srl_epi64(av, cnt), mv);
                pv = _mm256_mul_pd(pv, _mm256_i64gather_pd::<8>(base, sv));
            }
        }
        _mm256_storeu_pd(acc.as_mut_ptr().add(i), pv);
        i += 4;
    }
    if i < n {
        fused_lane_walk_scalar(fused, masks, aug, n, i, &mut acc[i..]);
    }
}

/// Fills one lane batch of per-trial counter-stream draws: for each lane
/// `i` (trial `t0 + i`), the first `nwords = words.len() / draws.len()`
/// `u64` draws of [`crate::random::CounterRng::for_trial_key`]`(block_key,
/// t0 + i)` land in `words[w·lanes + i]` (plane-major: word index outer,
/// lane inner) and the following `f64` draw in `draws[i]`.
///
/// This is the per-trial RNG schedule of the dqma lane engines — coin
/// word(s) first, accept draw second — hoisted into a lane-batched form so
/// the AVX2 twin can evaluate the SplitMix64 counter formula four trials at
/// a time. Key derivation and mixing are pure 64-bit integer ops and the
/// `u64 → f64` conversion is exact below 2^53, so the twin is bit-identical
/// to drawing from `CounterRng` one trial at a time (which is exactly what
/// the scalar oracle does).
///
/// # Panics
///
/// Panics if `words.len()` is not a multiple of `draws.len()`.
pub fn fill_trial_streams(block_key: u64, t0: u64, words: &mut [u64], draws: &mut [f64]) {
    let lanes = draws.len();
    assert!(lanes > 0 && words.len().is_multiple_of(lanes));
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if enabled() {
        // SAFETY: `enabled()` implies AVX2 was detected at runtime.
        unsafe { fill_trial_streams_avx2(block_key, t0, words, draws) };
        return;
    }
    fill_trial_streams_scalar(block_key, t0, words, draws);
}

/// Scalar oracle for [`fill_trial_streams`]: literally one [`CounterRng`]
/// per trial, so the lane-batched schedule can never drift from the
/// per-trial one.
///
/// [`CounterRng`]: crate::random::CounterRng
fn fill_trial_streams_scalar(block_key: u64, t0: u64, words: &mut [u64], draws: &mut [f64]) {
    use crate::random::CounterRng;
    use rand::Rng;
    let lanes = draws.len();
    let nwords = words.len() / lanes;
    for (i, d) in draws.iter_mut().enumerate() {
        let mut rng = CounterRng::for_trial_key(block_key, t0 + i as u64);
        for w in 0..nwords {
            words[w * lanes + i] = rng.random::<u64>();
        }
        *d = rng.random::<f64>();
    }
}

/// AVX2 twin of [`fill_trial_streams`]: the SplitMix64 counter formula —
/// `key = block_key ^ (t+1)·TRIAL_GAMMA`, draw `n` = `mix64(key +
/// (n+1)·GAMMA)` — evaluated four trials per register with exact 64-bit
/// integer arithmetic (`vpmuludq` cross products for the 64×64 multiplies),
/// and the final `u64 → f64` conversion done exactly via the split 32-bit
/// magic-constant trick (the 53-bit operand makes both halves and their
/// recombination exact).
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
unsafe fn fill_trial_streams_avx2(block_key: u64, t0: u64, words: &mut [u64], draws: &mut [f64]) {
    use crate::random::{STREAM_GAMMA as GAMMA, TRIAL_GAMMA};
    use std::arch::x86_64::*;
    const M1: u64 = 0xBF58_476D_1CE4_E5B9;
    const M2: u64 = 0x94D0_49BB_1331_11EB;

    /// `a · b mod 2^64` per 64-bit lane via three 32×32 partial products.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn mul64(a: __m256i, b: __m256i) -> __m256i {
        let a_hi = _mm256_srli_epi64::<32>(a);
        let b_hi = _mm256_srli_epi64::<32>(b);
        let ll = _mm256_mul_epu32(a, b);
        let cross = _mm256_add_epi64(_mm256_mul_epu32(a_hi, b), _mm256_mul_epu32(a, b_hi));
        _mm256_add_epi64(ll, _mm256_slli_epi64::<32>(cross))
    }

    /// SplitMix64 finaliser per 64-bit lane.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn mix64(z: __m256i) -> __m256i {
        let m1 = _mm256_set1_epi64x(M1 as i64);
        let m2 = _mm256_set1_epi64x(M2 as i64);
        let z = mul64(_mm256_xor_si256(z, _mm256_srli_epi64::<30>(z)), m1);
        let z = mul64(_mm256_xor_si256(z, _mm256_srli_epi64::<27>(z)), m2);
        _mm256_xor_si256(z, _mm256_srli_epi64::<31>(z))
    }

    /// Exact `u64 → f64` for values below 2^53, four lanes at a time:
    /// convert the 32-bit halves with the 2^52 magic-exponent trick and
    /// recombine (`hi·2^32 + lo` is exact because the true value fits f64).
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn u53_to_f64(v: __m256i) -> __m256d {
        let magic_i = _mm256_set1_epi64x(0x4330_0000_0000_0000u64 as i64);
        let magic_d = _mm256_set1_pd(4_503_599_627_370_496.0); // 2^52
        let lo_mask = _mm256_set1_epi64x(0xFFFF_FFFFu64 as i64);
        let lo = _mm256_sub_pd(
            _mm256_castsi256_pd(_mm256_or_si256(_mm256_and_si256(v, lo_mask), magic_i)),
            magic_d,
        );
        let hi = _mm256_sub_pd(
            _mm256_castsi256_pd(_mm256_or_si256(_mm256_srli_epi64::<32>(v), magic_i)),
            magic_d,
        );
        let two32 = _mm256_set1_pd(4_294_967_296.0); // 2^32
        _mm256_add_pd(_mm256_mul_pd(hi, two32), lo)
    }

    let lanes = draws.len();
    let nwords = words.len() / lanes;
    let scale = _mm256_set1_pd(1.0 / (1u64 << 53) as f64); // 2^-53, as SampleStandard
    let bk = _mm256_set1_epi64x(block_key as i64);
    let tg = _mm256_set1_epi64x(TRIAL_GAMMA as i64);
    let mut i = 0usize;
    while i + 4 <= lanes {
        let t1 = t0 + i as u64 + 1;
        let tv = _mm256_add_epi64(
            _mm256_set1_epi64x(t1 as i64),
            _mm256_setr_epi64x(0, 1, 2, 3),
        );
        let key = _mm256_xor_si256(bk, mul64(tv, tg));
        for w in 0..nwords {
            let inc = (w as u64 + 1).wrapping_mul(GAMMA);
            let word = mix64(_mm256_add_epi64(key, _mm256_set1_epi64x(inc as i64)));
            _mm256_storeu_si256(words.as_mut_ptr().add(w * lanes + i) as *mut __m256i, word);
        }
        let inc = (nwords as u64 + 1).wrapping_mul(GAMMA);
        let word = mix64(_mm256_add_epi64(key, _mm256_set1_epi64x(inc as i64)));
        let d = _mm256_mul_pd(u53_to_f64(_mm256_srli_epi64::<11>(word)), scale);
        _mm256_storeu_pd(draws.as_mut_ptr().add(i), d);
        i += 4;
    }
    // Tail lanes: one scalar CounterRng per remaining trial.
    use crate::random::CounterRng;
    use rand::Rng;
    while i < lanes {
        let mut rng = CounterRng::for_trial_key(block_key, t0 + i as u64);
        for w in 0..nwords {
            words[w * lanes + i] = rng.random::<u64>();
        }
        draws[i] = rng.random::<f64>();
        i += 1;
    }
}

/// Per-lane tree-node probability accumulation: for each lane `l`, assembles
/// `idx = Σ_i ((coins[l] >> bits[i]) & 1) << i` and multiplies
/// `acc[l] *= probs[idx]`.
///
/// One call per `TreeNodePlan`; `coins` holds one coin word per lane.
///
/// # Panics
///
/// Panics if the lane slices have mismatched lengths or `probs` is shorter
/// than `1 << bits.len()`.
pub fn tree_lane_accumulate(probs: &[f64], bits: &[u32], coins: &[u64], acc: &mut [f64]) {
    assert_eq!(coins.len(), acc.len());
    assert!(probs.len() >= 1usize << bits.len());
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if enabled() {
        // SAFETY: `enabled()` implies AVX2 was detected at runtime.
        unsafe { tree_lane_accumulate_avx2(probs, bits, coins, acc) };
        return;
    }
    tree_lane_accumulate_scalar(probs, bits, coins, acc);
}

/// Scalar oracle for [`tree_lane_accumulate`].
fn tree_lane_accumulate_scalar(probs: &[f64], bits: &[u32], coins: &[u64], acc: &mut [f64]) {
    for (a, &c) in acc.iter_mut().zip(coins) {
        let mut idx = 0usize;
        for (i, &b) in bits.iter().enumerate() {
            idx |= (((c >> b) & 1) as usize) << i;
        }
        *a *= probs[idx];
    }
}

/// AVX2 twin of [`tree_lane_accumulate`]: per-lane index assembly with
/// integer shifts/ors, one `vgatherqpd` table load per register, lane-wise
/// multiply — exact loads and lane-wise rounding, so bit-identical.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
unsafe fn tree_lane_accumulate_avx2(probs: &[f64], bits: &[u32], coins: &[u64], acc: &mut [f64]) {
    use std::arch::x86_64::*;
    let n = coins.len();
    let one_bit = _mm256_set1_epi64x(1);
    let mut i = 0usize;
    while i + 4 <= n {
        let cv = _mm256_loadu_si256(coins.as_ptr().add(i) as *const __m256i);
        let mut idx = _mm256_setzero_si256();
        for (pos, &b) in bits.iter().enumerate() {
            let bit = _mm256_and_si256(_mm256_srl_epi64(cv, _mm_cvtsi32_si128(b as i32)), one_bit);
            idx = _mm256_or_si256(idx, _mm256_sll_epi64(bit, _mm_cvtsi32_si128(pos as i32)));
        }
        let vals = _mm256_i64gather_pd::<8>(probs.as_ptr(), idx);
        let av = _mm256_loadu_pd(acc.as_ptr().add(i));
        _mm256_storeu_pd(acc.as_mut_ptr().add(i), _mm256_mul_pd(av, vals));
        i += 4;
    }
    if i < n {
        tree_lane_accumulate_scalar(probs, bits, &coins[i..], &mut acc[i..]);
    }
}

/// Counts lanes whose uniform draw falls under the acceptance probability:
/// `Σ_i (draw[i] < acc[i])`.
///
/// # Panics
///
/// Panics if the slices have mismatched lengths.
pub fn count_accepts(draw: &[f64], acc: &[f64]) -> u64 {
    assert_eq!(draw.len(), acc.len());
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if enabled() {
        // SAFETY: `enabled()` implies AVX2 was detected at runtime.
        return unsafe { count_accepts_avx2(draw, acc) };
    }
    count_accepts_scalar(draw, acc)
}

/// Scalar oracle for [`count_accepts`].
fn count_accepts_scalar(draw: &[f64], acc: &[f64]) -> u64 {
    draw.iter().zip(acc).map(|(&d, &a)| u64::from(d < a)).sum()
}

/// AVX2 twin of [`count_accepts`]: `vcmppd` (ordered strict less-than, the
/// same predicate as scalar `<`) + movemask + popcount.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
unsafe fn count_accepts_avx2(draw: &[f64], acc: &[f64]) -> u64 {
    use std::arch::x86_64::*;
    let n = draw.len();
    let mut total = 0u64;
    let mut i = 0usize;
    while i + 4 <= n {
        let d = _mm256_loadu_pd(draw.as_ptr().add(i));
        let a = _mm256_loadu_pd(acc.as_ptr().add(i));
        let lt = _mm256_cmp_pd::<_CMP_LT_OQ>(d, a);
        total += _mm256_movemask_pd(lt).count_ones() as u64;
        i += 4;
    }
    if i < n {
        total += count_accepts_scalar(&draw[i..], &acc[i..]);
    }
    total
}

// ---------------------------------------------------------------------------
// Split-plane kernels (drive the mixed-proof executors)
// ---------------------------------------------------------------------------

/// Complex scalar times split-plane row:
/// `ore[j] = ar·bre[j] − ai·bim[j]`, `oim[j] = ar·bim[j] + ai·bre[j]`.
///
/// Elementwise, so the AVX2 twin is trivially bit-identical.
///
/// # Panics
///
/// Panics if the four slices have mismatched lengths.
pub fn complex_scale_into(
    ar: f64,
    ai: f64,
    bre: &[f64],
    bim: &[f64],
    ore: &mut [f64],
    oim: &mut [f64],
) {
    assert_eq!(bre.len(), bim.len());
    assert_eq!(ore.len(), oim.len());
    assert_eq!(bre.len(), ore.len());
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if enabled() {
        // SAFETY: `enabled()` implies AVX2 was detected at runtime.
        unsafe { complex_scale_into_avx2(ar, ai, bre, bim, ore, oim) };
        return;
    }
    complex_scale_into_scalar(ar, ai, bre, bim, ore, oim);
}

/// Scalar oracle for [`complex_scale_into`].
fn complex_scale_into_scalar(
    ar: f64,
    ai: f64,
    bre: &[f64],
    bim: &[f64],
    ore: &mut [f64],
    oim: &mut [f64],
) {
    for j in 0..bre.len() {
        let (br, bi) = (bre[j], bim[j]);
        ore[j] = ar * br - ai * bi;
        oim[j] = ar * bi + ai * br;
    }
}

/// AVX2 twin of [`complex_scale_into`] (no FMA — mul/sub/add exactly as the
/// oracle rounds).
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn complex_scale_into_avx2(
    ar: f64,
    ai: f64,
    bre: &[f64],
    bim: &[f64],
    ore: &mut [f64],
    oim: &mut [f64],
) {
    use std::arch::x86_64::*;
    let n = bre.len();
    let arv = _mm256_set1_pd(ar);
    let aiv = _mm256_set1_pd(ai);
    let mut j = 0usize;
    while j + 4 <= n {
        let br = _mm256_loadu_pd(bre.as_ptr().add(j));
        let bi = _mm256_loadu_pd(bim.as_ptr().add(j));
        let re = _mm256_sub_pd(_mm256_mul_pd(arv, br), _mm256_mul_pd(aiv, bi));
        let im = _mm256_add_pd(_mm256_mul_pd(arv, bi), _mm256_mul_pd(aiv, br));
        _mm256_storeu_pd(ore.as_mut_ptr().add(j), re);
        _mm256_storeu_pd(oim.as_mut_ptr().add(j), im);
        j += 4;
    }
    if j < n {
        complex_scale_into_scalar(ar, ai, &bre[j..], &bim[j..], &mut ore[j..], &mut oim[j..]);
    }
}

/// Kronecker product over split planes: writes `out = a ⊗ b` where `a` is
/// `d1×d1`, `b` is `d2×d2` and `out` is `(d1·d2)×(d1·d2)`, all row-major
/// with separate re/im planes. One runtime dispatch covers the whole
/// product — the per-`(i1, j1, i2)` row blends of the frontier assembly
/// are far too short (length `d2`, typically 16) to absorb a dispatch
/// check each.
///
/// Elementwise per output entry (`out = a·b` complex mul, no FMA), so the
/// scalar and AVX2 paths are bit-identical.
///
/// # Panics
///
/// Panics if the plane lengths are inconsistent with `d1`, `d2`.
#[allow(clippy::too_many_arguments)]
pub fn kron_planes(
    are: &[f64],
    aim: &[f64],
    bre: &[f64],
    bim: &[f64],
    ore: &mut [f64],
    oim: &mut [f64],
    d1: usize,
    d2: usize,
) {
    let d = d1 * d2;
    assert_eq!(are.len(), d1 * d1);
    assert_eq!(aim.len(), d1 * d1);
    assert_eq!(bre.len(), d2 * d2);
    assert_eq!(bim.len(), d2 * d2);
    assert_eq!(ore.len(), d * d);
    assert_eq!(oim.len(), d * d);
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if enabled() {
        // SAFETY: `enabled()` implies AVX2 was detected at runtime.
        unsafe { kron_planes_avx2(are, aim, bre, bim, ore, oim, d1, d2) };
        return;
    }
    kron_planes_scalar(are, aim, bre, bim, ore, oim, d1, d2);
}

/// Scalar oracle for [`kron_planes`].
#[allow(clippy::too_many_arguments)]
fn kron_planes_scalar(
    are: &[f64],
    aim: &[f64],
    bre: &[f64],
    bim: &[f64],
    ore: &mut [f64],
    oim: &mut [f64],
    d1: usize,
    d2: usize,
) {
    let d = d1 * d2;
    for i1 in 0..d1 {
        for j1 in 0..d1 {
            let (ar, ai) = (are[i1 * d1 + j1], aim[i1 * d1 + j1]);
            for i2 in 0..d2 {
                let row = (i1 * d2 + i2) * d + j1 * d2;
                let brow = i2 * d2;
                complex_scale_into_scalar(
                    ar,
                    ai,
                    &bre[brow..brow + d2],
                    &bim[brow..brow + d2],
                    &mut ore[row..row + d2],
                    &mut oim[row..row + d2],
                );
            }
        }
    }
}

/// AVX2 twin of [`kron_planes`]: the same loop nest with the row blend
/// inlined under one `target_feature` scope, so the whole product runs
/// without re-entering the dispatcher.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
unsafe fn kron_planes_avx2(
    are: &[f64],
    aim: &[f64],
    bre: &[f64],
    bim: &[f64],
    ore: &mut [f64],
    oim: &mut [f64],
    d1: usize,
    d2: usize,
) {
    let d = d1 * d2;
    for i1 in 0..d1 {
        for j1 in 0..d1 {
            let (ar, ai) = (are[i1 * d1 + j1], aim[i1 * d1 + j1]);
            for i2 in 0..d2 {
                let row = (i1 * d2 + i2) * d + j1 * d2;
                let brow = i2 * d2;
                complex_scale_into_avx2(
                    ar,
                    ai,
                    &bre[brow..brow + d2],
                    &bim[brow..brow + d2],
                    &mut ore[row..row + d2],
                    &mut oim[row..row + d2],
                );
            }
        }
    }
}

/// `dst[j] += w·src[j]` over one plane. Elementwise, bit-identical.
///
/// # Panics
///
/// Panics if the slices have mismatched lengths.
pub fn axpy(w: f64, src: &[f64], dst: &mut [f64]) {
    assert_eq!(src.len(), dst.len());
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if enabled() {
        // SAFETY: `enabled()` implies AVX2 was detected at runtime.
        unsafe { axpy_avx2(w, src, dst) };
        return;
    }
    axpy_scalar(w, src, dst);
}

/// Scalar oracle for [`axpy`].
fn axpy_scalar(w: f64, src: &[f64], dst: &mut [f64]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d += w * s;
    }
}

/// AVX2 twin of [`axpy`] (mul + add, no FMA).
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
unsafe fn axpy_avx2(w: f64, src: &[f64], dst: &mut [f64]) {
    use std::arch::x86_64::*;
    let n = src.len();
    let wv = _mm256_set1_pd(w);
    let mut j = 0usize;
    while j + 4 <= n {
        let s = _mm256_loadu_pd(src.as_ptr().add(j));
        let d = _mm256_loadu_pd(dst.as_ptr().add(j));
        _mm256_storeu_pd(
            dst.as_mut_ptr().add(j),
            _mm256_add_pd(d, _mm256_mul_pd(wv, s)),
        );
        j += 4;
    }
    if j < n {
        axpy_scalar(w, &src[j..], &mut dst[j..]);
    }
}

/// Symmetrisation blend: `out[j] = 0.5·(direct[j] + permuted[idx[j]])`.
///
/// `direct` is read contiguously, `permuted` through the gather map `idx`.
/// Elementwise, bit-identical.
///
/// # Panics
///
/// Panics if `out`/`direct`/`idx` have mismatched lengths or an index is out
/// of bounds for `permuted` (oracle path; the AVX2 path debug-asserts).
pub fn gather_avg(direct: &[f64], permuted: &[f64], idx: &[usize], out: &mut [f64]) {
    assert_eq!(direct.len(), out.len());
    assert_eq!(idx.len(), out.len());
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if enabled() {
        debug_assert!(idx.iter().all(|&f| f < permuted.len()));
        // SAFETY: `enabled()` implies AVX2 was detected at runtime; the
        // gather indices come from a permutation map over `permuted`.
        unsafe { gather_avg_avx2(direct, permuted, idx, out) };
        return;
    }
    gather_avg_scalar(direct, permuted, idx, out);
}

/// Scalar oracle for [`gather_avg`].
fn gather_avg_scalar(direct: &[f64], permuted: &[f64], idx: &[usize], out: &mut [f64]) {
    for (j, o) in out.iter_mut().enumerate() {
        *o = 0.5 * (direct[j] + permuted[idx[j]]);
    }
}

/// AVX2 twin of [`gather_avg`]: `vgatherqpd` for the permuted plane (exact
/// loads), then add and halve lane-wise.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
unsafe fn gather_avg_avx2(direct: &[f64], permuted: &[f64], idx: &[usize], out: &mut [f64]) {
    use std::arch::x86_64::*;
    let n = out.len();
    let half = _mm256_set1_pd(0.5);
    let mut j = 0usize;
    while j + 4 <= n {
        // usize is 64-bit on x86_64, so the index slice reloads as i64 lanes.
        let iv = _mm256_loadu_si256(idx.as_ptr().add(j) as *const __m256i);
        let perm = _mm256_i64gather_pd::<8>(permuted.as_ptr(), iv);
        let dir = _mm256_loadu_pd(direct.as_ptr().add(j));
        _mm256_storeu_pd(
            out.as_mut_ptr().add(j),
            _mm256_mul_pd(half, _mm256_add_pd(dir, perm)),
        );
        j += 4;
    }
    if j < n {
        gather_avg_scalar(&direct[j..], permuted, &idx[j..], &mut out[j..]);
    }
}

/// Split-plane complex row–vector dot with a fixed reduction contract:
/// returns `(Σ_j re[j]·vr[j] − im[j]·vi[j], Σ_j re[j]·vi[j] + im[j]·vr[j])`
/// where element `j` accumulates into partial sum `j % 4` and the four
/// partials combine as `(s0 + s2) + (s1 + s3)`.
///
/// The contract is what makes the AVX2 twin (vector accumulators + the
/// natural horizontal sum) bit-identical to the oracle instead of merely
/// close; callers that used a single running sum before adopting this
/// primitive change their last-ulp rounding once, deterministically.
///
/// # Panics
///
/// Panics if the four slices have mismatched lengths.
pub fn row_dot(re: &[f64], im: &[f64], vr: &[f64], vi: &[f64]) -> (f64, f64) {
    assert_eq!(re.len(), im.len());
    assert_eq!(vr.len(), vi.len());
    assert_eq!(re.len(), vr.len());
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if enabled() {
        // SAFETY: `enabled()` implies AVX2 was detected at runtime.
        return unsafe { row_dot_avx2(re, im, vr, vi) };
    }
    row_dot_scalar(re, im, vr, vi)
}

/// Scalar oracle for [`row_dot`], implementing the four-partial contract
/// directly.
fn row_dot_scalar(re: &[f64], im: &[f64], vr: &[f64], vi: &[f64]) -> (f64, f64) {
    let mut sre = [0.0f64; 4];
    let mut sim = [0.0f64; 4];
    for j in 0..re.len() {
        let l = j & 3;
        sre[l] += re[j] * vr[j] - im[j] * vi[j];
        sim[l] += re[j] * vi[j] + im[j] * vr[j];
    }
    (
        (sre[0] + sre[2]) + (sre[1] + sre[3]),
        (sim[0] + sim[2]) + (sim[1] + sim[3]),
    )
}

/// AVX2 twin of [`row_dot`]: 4-lane accumulators, scalar tail folded into
/// the matching lanes before the contract's horizontal combine.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
unsafe fn row_dot_avx2(re: &[f64], im: &[f64], vr: &[f64], vi: &[f64]) -> (f64, f64) {
    use std::arch::x86_64::*;
    let n = re.len();
    let mut accr = _mm256_setzero_pd();
    let mut acci = _mm256_setzero_pd();
    let mut j = 0usize;
    while j + 4 <= n {
        let r = _mm256_loadu_pd(re.as_ptr().add(j));
        let i = _mm256_loadu_pd(im.as_ptr().add(j));
        let xr = _mm256_loadu_pd(vr.as_ptr().add(j));
        let xi = _mm256_loadu_pd(vi.as_ptr().add(j));
        accr = _mm256_add_pd(
            accr,
            _mm256_sub_pd(_mm256_mul_pd(r, xr), _mm256_mul_pd(i, xi)),
        );
        acci = _mm256_add_pd(
            acci,
            _mm256_add_pd(_mm256_mul_pd(r, xi), _mm256_mul_pd(i, xr)),
        );
        j += 4;
    }
    let mut sre = [0.0f64; 4];
    let mut sim = [0.0f64; 4];
    _mm256_storeu_pd(sre.as_mut_ptr(), accr);
    _mm256_storeu_pd(sim.as_mut_ptr(), acci);
    while j < n {
        let l = j & 3;
        sre[l] += re[j] * vr[j] - im[j] * vi[j];
        sim[l] += re[j] * vi[j] + im[j] * vr[j];
        j += 1;
    }
    (
        (sre[0] + sre[2]) + (sre[1] + sre[3]),
        (sim[0] + sim[2]) + (sim[1] + sim[3]),
    )
}

/// Column-major real mat-vec: `out[i] = Σ_j cols[j·n + i] · v[j]` with
/// `n = out.len()` rows and `v.len()` columns.
///
/// The accumulation runs ascending in `j` for every output element and the
/// multiply-accumulate is elementwise across `i` (no FMA, no cross-`j`
/// reassociation), so the scalar oracle and the AVX2 twin are
/// bit-identical. Column-major storage is what lets the vector path
/// broadcast `v[j]` once and accumulate four output rows per instruction
/// with no horizontal reductions — the layout the compiled mixed-proof
/// node superoperators are stored in (real, in the Hermitian operator
/// basis: a density register walk never needs complex coordinates).
///
/// # Panics
///
/// Panics if `cols.len() ≠ out.len()·v.len()`.
pub fn matvec_cols(cols: &[f64], v: &[f64], out: &mut [f64]) {
    assert_eq!(cols.len(), out.len() * v.len());
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if enabled() {
        // SAFETY: `enabled()` implies AVX2 was detected at runtime.
        unsafe { matvec_cols_avx2(cols, v, out) };
        return;
    }
    matvec_cols_scalar(cols, v, out);
}

/// Scalar oracle for [`matvec_cols`]: one axpy per column, ascending `j`.
fn matvec_cols_scalar(cols: &[f64], v: &[f64], out: &mut [f64]) {
    let n = out.len();
    out.fill(0.0);
    for (j, &w) in v.iter().enumerate() {
        let col = &cols[j * n..(j + 1) * n];
        for (o, &c) in out.iter_mut().zip(col) {
            *o += c * w;
        }
    }
}

/// AVX2 twin of [`matvec_cols`]: the output rows stay in vector registers
/// across the whole column loop when `n ≤ 16` (the compiled mixed-node
/// shape), otherwise each column streams through memory; in both shapes
/// every output element sees the identical `j`-ascending operation
/// sequence, four rows per instruction.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
unsafe fn matvec_cols_avx2(cols: &[f64], v: &[f64], out: &mut [f64]) {
    use std::arch::x86_64::*;
    let n = out.len();
    if n == 16 {
        // Register-resident accumulators: no out-row traffic at all.
        let mut a0 = _mm256_setzero_pd();
        let mut a1 = _mm256_setzero_pd();
        let mut a2 = _mm256_setzero_pd();
        let mut a3 = _mm256_setzero_pd();
        for (j, &w) in v.iter().enumerate() {
            let wv = _mm256_set1_pd(w);
            let col = cols.as_ptr().add(j * 16);
            a0 = _mm256_add_pd(a0, _mm256_mul_pd(_mm256_loadu_pd(col), wv));
            a1 = _mm256_add_pd(a1, _mm256_mul_pd(_mm256_loadu_pd(col.add(4)), wv));
            a2 = _mm256_add_pd(a2, _mm256_mul_pd(_mm256_loadu_pd(col.add(8)), wv));
            a3 = _mm256_add_pd(a3, _mm256_mul_pd(_mm256_loadu_pd(col.add(12)), wv));
        }
        _mm256_storeu_pd(out.as_mut_ptr(), a0);
        _mm256_storeu_pd(out.as_mut_ptr().add(4), a1);
        _mm256_storeu_pd(out.as_mut_ptr().add(8), a2);
        _mm256_storeu_pd(out.as_mut_ptr().add(12), a3);
        return;
    }
    out.fill(0.0);
    let main = n & !3;
    for (j, &w) in v.iter().enumerate() {
        let wv = _mm256_set1_pd(w);
        let col = cols.as_ptr().add(j * n);
        let mut i = 0usize;
        while i < main {
            let acc = _mm256_add_pd(
                _mm256_loadu_pd(out.as_ptr().add(i)),
                _mm256_mul_pd(_mm256_loadu_pd(col.add(i)), wv),
            );
            _mm256_storeu_pd(out.as_mut_ptr().add(i), acc);
            i += 4;
        }
        while i < n {
            out[i] += *col.add(i) * w;
            i += 1;
        }
    }
}

/// Real dot product under the same four-partial-accumulator contract as
/// [`row_dot`]: element `j` lands in partial `j mod 4`, combined as
/// `(s₀+s₂)+(s₁+s₃)` — making the scalar oracle and the AVX2 twin
/// bit-identical. The acceptance functionals of the compiled mixed-proof
/// nodes are evaluated through this.
///
/// # Panics
///
/// Panics if the slices have mismatched lengths.
pub fn dot4(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if enabled() {
        // SAFETY: `enabled()` implies AVX2 was detected at runtime.
        return unsafe { dot4_avx2(a, b) };
    }
    dot4_scalar(a, b)
}

/// Scalar oracle for [`dot4`], implementing the four-partial contract
/// directly.
fn dot4_scalar(a: &[f64], b: &[f64]) -> f64 {
    let mut s = [0.0f64; 4];
    for j in 0..a.len() {
        s[j & 3] += a[j] * b[j];
    }
    (s[0] + s[2]) + (s[1] + s[3])
}

/// AVX2 twin of [`dot4`]: one 4-lane accumulator, scalar tail folded into
/// the matching lanes before the contract's horizontal combine.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
unsafe fn dot4_avx2(a: &[f64], b: &[f64]) -> f64 {
    use std::arch::x86_64::*;
    let n = a.len();
    let mut acc = _mm256_setzero_pd();
    let mut j = 0usize;
    while j + 4 <= n {
        acc = _mm256_add_pd(
            acc,
            _mm256_mul_pd(
                _mm256_loadu_pd(a.as_ptr().add(j)),
                _mm256_loadu_pd(b.as_ptr().add(j)),
            ),
        );
        j += 4;
    }
    let mut s = [0.0f64; 4];
    _mm256_storeu_pd(s.as_mut_ptr(), acc);
    while j < n {
        s[j & 3] += a[j] * b[j];
        j += 1;
    }
    (s[0] + s[2]) + (s[1] + s[3])
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Runs `f` under both dispatch settings and asserts identical results.
    /// In scalar-only builds both passes take the oracle, which still
    /// exercises the toggle plumbing.
    fn both_paths<T: PartialEq + std::fmt::Debug>(f: impl Fn() -> T) {
        let was = enabled();
        set_enabled(false);
        let scalar = f();
        set_enabled(true);
        let vector = f();
        set_enabled(was);
        assert_eq!(scalar, vector);
    }

    #[test]
    fn toggle_clamps_to_availability() {
        let was = enabled();
        assert_eq!(set_enabled(true), available());
        assert!(!set_enabled(false));
        set_enabled(was);
    }

    #[test]
    fn fill_trial_streams_matches_per_trial_counter_rng() {
        use crate::random::CounterRng;
        // Lane counts hitting the 4-wide main loop, the scalar tail, and
        // both; word planes covering chain (1), relay-style strips, and a
        // deeper stream.
        for lanes in [1usize, 3, 4, 7, 16, 19] {
            for nwords in [1usize, 2, 5] {
                let block_key = CounterRng::block_key(0xFEED_F00D, 11);
                let t0 = 8192u64 * 3 + 5;
                both_paths(|| {
                    let mut words = vec![0u64; nwords * lanes];
                    let mut draws = vec![0.0f64; lanes];
                    fill_trial_streams(block_key, t0, &mut words, &mut draws);
                    (words, draws.iter().map(|d| d.to_bits()).collect::<Vec<_>>())
                });
                let mut words = vec![0u64; nwords * lanes];
                let mut draws = vec![0.0f64; lanes];
                fill_trial_streams(block_key, t0, &mut words, &mut draws);
                for i in 0..lanes {
                    let mut rng = CounterRng::for_trial_key(block_key, t0 + i as u64);
                    for w in 0..nwords {
                        assert_eq!(words[w * lanes + i], rng.random::<u64>(), "word plane {w}");
                    }
                    assert_eq!(draws[i].to_bits(), rng.random::<f64>().to_bits());
                }
            }
        }
    }

    /// Coin `c_j` of node `j` (`c_{−1} = 0`) as a bit-string reference:
    /// raw word `j / 63` carries the coins of its 63 nodes in bits `0..=62`.
    fn coin(raw: &[u64], j: isize) -> usize {
        if j < 0 {
            return 0;
        }
        let j = j as usize;
        ((raw[j / WORD_NODES] >> (j % WORD_NODES)) & 1) as usize
    }

    #[test]
    fn coin_planes_put_every_node_selector_at_its_word_offset() {
        let mut rng = StdRng::seed_from_u64(6);
        for words in 1..=5usize {
            let lanes = 5;
            let raw: Vec<u64> = (0..words * lanes).map(|_| rng.random()).collect();
            let mut planes = raw.clone();
            shift_coin_planes(&mut planes, lanes);
            for i in 0..lanes {
                let lane_raw: Vec<u64> = (0..words).map(|w| raw[w * lanes + i]).collect();
                assert_eq!(
                    planes[i],
                    lane_raw[0] << 1,
                    "plane 0 is the single-word layout"
                );
                for j in 0..words * WORD_NODES {
                    let (w, b) = (j / WORD_NODES, j % WORD_NODES);
                    let expect = coin(&lane_raw, j as isize - 1) + 2 * coin(&lane_raw, j as isize);
                    assert_eq!(
                        ((planes[w * lanes + i] >> b) & 3) as usize,
                        expect,
                        "words {words}, lane {i}, node {j}"
                    );
                }
            }
        }
    }

    #[test]
    fn fused_walk_matches_direct_product_and_is_path_invariant() {
        let mut rng = StdRng::seed_from_u64(7);
        // Node counts spanning one partial chunk, exact multiples of
        // CHUNK_NODES, a full word (63 nodes, last chunk short), and one to
        // five word planes with full and partial last words.
        for nodes in [1usize, 5, 8, 16, 33, 63, 64, 65, 127, 128, 200, 256, 315] {
            let words = nodes.div_ceil(WORD_NODES);
            let tables: Vec<f64> = (0..4 * nodes).map(|_| rng.random::<f64>()).collect();
            let (fused, masks) = fuse_chain_tables(&tables);
            assert_eq!(masks.len().div_ceil(WORD_CHUNKS), words);
            // 19 lanes: exercises the 16-lane block, the 4-lane block and a
            // 3-lane scalar tail in one call.
            let lanes = 19;
            let raw: Vec<u64> = (0..words * lanes).map(|_| rng.random::<u64>()).collect();
            // Reference: node tables looked up from the bit-string coins,
            // multiplied within each chunk (8 nodes, 7 for a word's last),
            // then across chunks — the grouping the fused tables encode.
            let direct: Vec<f64> = (0..lanes)
                .map(|i| {
                    let lane_raw: Vec<u64> = (0..words).map(|w| raw[w * lanes + i]).collect();
                    let mut p = 1.0;
                    for word_start in (0..nodes).step_by(WORD_NODES) {
                        let word_end = nodes.min(word_start + WORD_NODES);
                        for first in (word_start..word_end).step_by(CHUNK_NODES) {
                            let mut chunk = 1.0;
                            for j in first..word_end.min(first + CHUNK_NODES) {
                                let sel = coin(&lane_raw, j as isize - 1)
                                    + 2 * coin(&lane_raw, j as isize);
                                chunk *= tables[4 * j + sel];
                            }
                            p *= chunk;
                        }
                    }
                    p
                })
                .collect();
            let mut aug = raw.clone();
            shift_coin_planes(&mut aug, lanes);
            both_paths(|| {
                let mut acc = vec![0.0f64; lanes];
                fused_lane_walk(&fused, &masks, &aug, &mut acc);
                assert_eq!(acc, direct, "nodes = {nodes}");
                acc
            });
        }
    }

    #[test]
    fn tree_accumulate_matches_direct_lookup() {
        let mut rng = StdRng::seed_from_u64(8);
        let bits = [3u32, 17, 40, 63];
        let probs: Vec<f64> = (0..16).map(|_| rng.random::<f64>()).collect();
        let coins: Vec<u64> = (0..11).map(|_| rng.random()).collect();
        let start: Vec<f64> = (0..11).map(|_| rng.random()).collect();
        let direct: Vec<f64> = coins
            .iter()
            .zip(&start)
            .map(|(&c, &s)| {
                let mut idx = 0usize;
                for (i, &b) in bits.iter().enumerate() {
                    idx |= (((c >> b) & 1) as usize) << i;
                }
                s * probs[idx]
            })
            .collect();
        both_paths(|| {
            let mut acc = start.clone();
            tree_lane_accumulate(&probs, &bits, &coins, &mut acc);
            assert_eq!(acc, direct);
            acc
        });
    }

    #[test]
    fn count_accepts_matches_scalar_comparison() {
        let mut rng = StdRng::seed_from_u64(9);
        let draw: Vec<f64> = (0..37).map(|_| rng.random()).collect();
        let acc: Vec<f64> = (0..37).map(|_| rng.random()).collect();
        let direct = draw.iter().zip(&acc).filter(|&(&d, &a)| d < a).count() as u64;
        both_paths(|| {
            let c = count_accepts(&draw, &acc);
            assert_eq!(c, direct);
            c
        });
    }

    #[test]
    fn plane_kernels_are_bit_identical_across_paths() {
        let mut rng = StdRng::seed_from_u64(10);
        let n = 23; // odd: forces scalar tails on every vector path
        let bre: Vec<f64> = (0..n).map(|_| rng.random::<f64>() - 0.5).collect();
        let bim: Vec<f64> = (0..n).map(|_| rng.random::<f64>() - 0.5).collect();
        both_paths(|| {
            let mut ore = vec![0.0; n];
            let mut oim = vec![0.0; n];
            complex_scale_into(0.7, -1.3, &bre, &bim, &mut ore, &mut oim);
            (ore, oim)
        });
        both_paths(|| {
            let mut dst: Vec<f64> = (0..n).map(|i| i as f64 * 0.25).collect();
            axpy(-0.9, &bre, &mut dst);
            dst
        });
        both_paths(|| {
            let idx: Vec<usize> = (0..n).map(|i| (i * 7) % n).collect();
            let mut out = vec![0.0; n];
            gather_avg(&bre, &bim, &idx, &mut out);
            out
        });
        both_paths(|| {
            let (re, im) = row_dot(&bre, &bim, &bim, &bre);
            (re.to_bits(), im.to_bits())
        });
    }

    #[test]
    fn matvec_cols_matches_naive_product_and_is_path_invariant() {
        let mut rng = StdRng::seed_from_u64(21);
        // Row counts exercising the register-resident n = 16 fast path (the
        // compiled mixed-node superoperator shape), the generic 4-wide
        // loop, and the sub-4 tail.
        for (n, ncols) in [(1usize, 3usize), (4, 4), (7, 5), (16, 16), (19, 2)] {
            let cols: Vec<f64> = (0..n * ncols).map(|_| rng.random::<f64>() - 0.5).collect();
            let v: Vec<f64> = (0..ncols).map(|_| rng.random::<f64>() - 0.5).collect();
            both_paths(|| {
                let mut out = vec![0.0; n];
                matvec_cols(&cols, &v, &mut out);
                out.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
            });
            let mut out = vec![0.0; n];
            matvec_cols(&cols, &v, &mut out);
            for (i, &o) in out.iter().enumerate() {
                let want: f64 = (0..ncols).map(|j| cols[j * n + i] * v[j]).sum();
                assert!((o - want).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn dot4_matches_reference_reduction() {
        let mut rng = StdRng::seed_from_u64(23);
        for n in [1usize, 4, 7, 16, 31] {
            let a: Vec<f64> = (0..n).map(|_| rng.random::<f64>() - 0.5).collect();
            let b: Vec<f64> = (0..n).map(|_| rng.random::<f64>() - 0.5).collect();
            both_paths(|| dot4(&a, &b).to_bits());
            let mut s = [0.0f64; 4];
            for j in 0..n {
                s[j & 3] += a[j] * b[j];
            }
            assert_eq!(dot4(&a, &b), (s[0] + s[2]) + (s[1] + s[3]));
        }
    }

    #[test]
    fn kron_planes_matches_entrywise_product() {
        let mut rng = StdRng::seed_from_u64(22);
        for (d1, d2) in [(1usize, 3usize), (2, 4), (4, 16), (3, 5)] {
            let d = d1 * d2;
            let are: Vec<f64> = (0..d1 * d1).map(|_| rng.random::<f64>() - 0.5).collect();
            let aim: Vec<f64> = (0..d1 * d1).map(|_| rng.random::<f64>() - 0.5).collect();
            let bre: Vec<f64> = (0..d2 * d2).map(|_| rng.random::<f64>() - 0.5).collect();
            let bim: Vec<f64> = (0..d2 * d2).map(|_| rng.random::<f64>() - 0.5).collect();
            both_paths(|| {
                let mut ore = vec![0.0; d * d];
                let mut oim = vec![0.0; d * d];
                kron_planes(&are, &aim, &bre, &bim, &mut ore, &mut oim, d1, d2);
                (
                    ore.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    oim.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                )
            });
            let mut ore = vec![0.0; d * d];
            let mut oim = vec![0.0; d * d];
            kron_planes(&are, &aim, &bre, &bim, &mut ore, &mut oim, d1, d2);
            for i1 in 0..d1 {
                for j1 in 0..d1 {
                    for i2 in 0..d2 {
                        for j2 in 0..d2 {
                            let (ar, ai) = (are[i1 * d1 + j1], aim[i1 * d1 + j1]);
                            let (br, bi) = (bre[i2 * d2 + j2], bim[i2 * d2 + j2]);
                            let o = (i1 * d2 + i2) * d + j1 * d2 + j2;
                            assert_eq!(ore[o], ar * br - ai * bi);
                            assert_eq!(oim[o], ar * bi + ai * br);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn row_dot_matches_reference_reduction() {
        // Pin the four-partial contract itself, not just scalar/SIMD parity.
        let re = [1.0, 2.0, 3.0, 4.0, 5.0];
        let im = [0.5, -0.5, 0.25, -0.25, 0.125];
        let vr = [1.0; 5];
        let vi = [0.0; 5];
        let mut sre = [0.0f64; 4];
        for j in 0..5 {
            sre[j & 3] += re[j];
        }
        let want = (sre[0] + sre[2]) + (sre[1] + sre[3]);
        let (got_re, got_im) = row_dot(&re, &im, &vr, &vi);
        assert_eq!(got_re, want);
        // vi = 0 ⇒ imaginary part is Σ im[j]·vr[j] under the same contract.
        let mut sim = [0.0f64; 4];
        for j in 0..5 {
            sim[j & 3] += im[j];
        }
        assert_eq!(got_im, (sim[0] + sim[2]) + (sim[1] + sim[3]));
    }
}
