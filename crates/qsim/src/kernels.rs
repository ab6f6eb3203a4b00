//! Strided, in-place, allocation-free gate kernels over split (SoA) storage.
//!
//! Every protocol cost in the companion crates is driven through repeated
//! application of *local* operators — operators acting on a few target
//! subsystems of a larger register. The naive way to do this (retained in
//! [`crate::naive`] as a test oracle, on interleaved AoS `Vec<Complex>`
//! storage) re-derives a heap-allocated multi-index per amplitude and clones
//! the full state per gate; the kernels here instead
//!
//! * precompute the flat-index **offset** of every element of the target
//!   block (`offsets[b] = Σ_k b_k · stride(targets[k])`);
//! * enumerate the non-target subsystems with an incremental **odometer**
//!   (one add/subtract per step, no allocation per amplitude);
//! * gather/scatter each target block through those offsets and apply the
//!   block operator in place — as **paired `f64` loops over the split re/im
//!   planes** ([`crate::linalg::SplitBuffer`]): the complex multiply-add
//!   `acc += u·s` becomes four fused multiply-adds on plain `f64` strips with
//!   no per-element `Complex` temporaries, which LLVM autovectorises where
//!   the interleaved layout defeated it.
//!
//! Cost: `O(D · block)` for a state vector of dimension `D` and
//! `O(D² · block)` for a density-matrix conjugation — compared to
//! `O(D · block²)` plus a full clone, respectively `O(D³)` plus a `D×D`
//! temporary, for the naive path.
//!
//! Structured operators get fast paths: diagonal operators multiply in place
//! (`O(D)`), and monomial operators — permutation matrices up to per-entry
//! phases, which is what [`crate::gates::swap`], [`crate::permutation`] and
//! [`crate::swap_test`] produce — scatter in `O(D)` instead of `O(D · block)`.
//! Single-qubit (block = 2) dense operators use an unrolled 2×2 path.
//!
//! # Plans
//!
//! All of the per-call metadata above — the `TargetLayout`, the structural
//! classification of the operator (`OpData`: dense / diagonal / monomial /
//! unit-phase-permutation / block-2 dispatch), class-projection gather maps
//! and monomial trace index lists — is compiled once into a
//! [`crate::plan::KernelPlan`] and the kernels proper are the `*_with`
//! **plan executors** taking `&KernelPlan`: they derive nothing, allocate
//! nothing (scratch is caller-owned [`crate::plan::PlanScratch`]), and only
//! walk. One-shot callers compile a fresh plan and run the executor
//! ([`conjugate_matrix`] is the one such shim kept here); batch loops compile
//! the plan once — or fetch it from the [`crate::plan`] cache — and call
//! the executors directly.

use crate::complex::Complex;
use crate::linalg::split::{Split, SplitMut};
use crate::linalg::CMatrix;
use crate::plan::{ClassData, KernelPlan, PlanScratch};
use crate::state::total_dim;

/// Row-major subsystem strides: `strides[i]` is the flat-index distance
/// between consecutive values of subsystem `i` (last subsystem fastest).
pub(crate) fn subsystem_strides(dims: &[usize]) -> Vec<usize> {
    let n = dims.len();
    let mut strides = vec![1usize; n];
    for i in (0..n.saturating_sub(1)).rev() {
        strides[i] = strides[i + 1] * dims[i + 1];
    }
    strides
}

/// Precomputed flat-index geometry of a set of target subsystems.
pub(crate) struct TargetLayout {
    /// Product of the target dimensions.
    pub block: usize,
    /// `offsets[b]` is the flat-index offset of target-block element `b`
    /// (row-major over the target dimensions, `offsets[0] == 0`).
    pub offsets: Vec<usize>,
    /// Every non-target base index, materialised in row-major order of the
    /// non-target multi-index: executors iterate this flat slice instead of
    /// running (and allocating) an incremental odometer per call — the
    /// odometer now runs exactly once, at layout-compile time.
    pub bases: Vec<usize>,
    /// Number of non-target index combinations (`bases.len()`).
    pub other_total: usize,
}

/// Validates targets against `dims` with the same panic messages the previous
/// implementations used, returning the per-target dimensions.
pub(crate) fn validate_targets(dims: &[usize], targets: &[usize]) -> Vec<usize> {
    for (i, &t) in targets.iter().enumerate() {
        assert!(t < dims.len(), "target {t} out of range");
        assert!(
            !targets[(i + 1)..].contains(&t),
            "duplicate target subsystem {t}"
        );
    }
    targets.iter().map(|&t| dims[t]).collect()
}

pub(crate) fn layout(dims: &[usize], targets: &[usize]) -> TargetLayout {
    let strides = subsystem_strides(dims);
    let target_dims = validate_targets(dims, targets);
    let block = total_dim(&target_dims);

    // Expand the block offsets target by target, most significant first, so
    // that offsets[b] matches the row-major flat index `b` over target_dims.
    let mut offsets = vec![0usize];
    for (&t, &d) in targets.iter().zip(target_dims.iter()) {
        let stride = strides[t];
        let mut next = Vec::with_capacity(offsets.len() * d);
        for &o in &offsets {
            for v in 0..d {
                next.push(o + v * stride);
            }
        }
        offsets = next;
    }
    debug_assert_eq!(offsets.len(), block);

    let mut other_dims = Vec::with_capacity(dims.len() - targets.len());
    let mut other_strides = Vec::with_capacity(dims.len() - targets.len());
    for i in 0..dims.len() {
        if !targets.contains(&i) {
            other_dims.push(dims[i]);
            other_strides.push(strides[i]);
        }
    }
    let other_total = total_dim(&other_dims);
    // Materialise the non-target base walk once, at compile time, with the
    // incremental odometer (one add/subtract per step). Executors then just
    // iterate the flat slice.
    let mut bases = Vec::with_capacity(other_total);
    {
        let n = other_dims.len();
        if n == 0 {
            bases.push(0);
        } else {
            let mut counters = vec![0usize; n];
            let mut base = 0usize;
            let mut remaining = other_total;
            loop {
                bases.push(base);
                remaining -= 1;
                if remaining == 0 {
                    break;
                }
                let mut i = n;
                loop {
                    debug_assert!(i > 0, "odometer overflow before visiting every base");
                    i -= 1;
                    counters[i] += 1;
                    base += other_strides[i];
                    if counters[i] < other_dims[i] {
                        break;
                    }
                    base -= other_dims[i] * other_strides[i];
                    counters[i] = 0;
                }
            }
        }
    }
    TargetLayout {
        block,
        offsets,
        bases,
        other_total,
    }
}

impl TargetLayout {
    /// Calls `f(base)` for every combination of the non-target subsystem
    /// indices, where `base` is the flat index with all targets at 0.
    #[inline]
    pub(crate) fn for_each_base(&self, mut f: impl FnMut(usize)) {
        for &base in &self.bases {
            f(base);
        }
    }
}

/// The layout of an empty register — a placeholder for plan bodies that
/// never read their layout (subsystem permutations), avoiding the `O(D)`
/// base-walk materialisation a real layout would pay.
pub(crate) fn trivial_layout() -> TargetLayout {
    TargetLayout {
        block: 1,
        offsets: vec![0],
        bases: vec![0],
        other_total: 1,
    }
}

/// Resolves a (targets, outcome) measurement constraint into the layout of
/// the constrained subsystems plus the flat-index offset encoding the
/// outcome: the flat indices compatible with the outcome are exactly
/// `{base + offset}` over the layout's bases. Returns `None` when the
/// constraint is unsatisfiable (an out-of-range outcome value, or
/// conflicting duplicate targets), which corresponds to probability zero.
pub(crate) fn outcome_offset(
    dims: &[usize],
    targets: &[usize],
    outcome: &[usize],
) -> Option<(TargetLayout, usize)> {
    assert_eq!(targets.len(), outcome.len(), "outcome length mismatch");
    let mut fixed: Vec<Option<usize>> = vec![None; dims.len()];
    for (&t, &o) in targets.iter().zip(outcome.iter()) {
        assert!(t < dims.len(), "target {t} out of range");
        if o >= dims[t] {
            return None;
        }
        match fixed[t] {
            None => fixed[t] = Some(o),
            Some(prev) if prev != o => return None,
            Some(_) => {}
        }
    }
    let strides = subsystem_strides(dims);
    let mut distinct = Vec::new();
    let mut offset = 0usize;
    for (i, slot) in fixed.iter().enumerate() {
        if let Some(o) = slot {
            distinct.push(i);
            offset += o * strides[i];
        }
    }
    Some((layout(dims, &distinct), offset))
}

/// Returns `true` when the target list has no repeats — the precondition for
/// the layout-based fast paths; callers with repeated targets fall back to
/// scan semantics.
pub(crate) fn targets_distinct(targets: &[usize]) -> bool {
    targets.len() <= 1
        || targets
            .iter()
            .enumerate()
            .all(|(i, t)| !targets[(i + 1)..].contains(t))
}

/// Structural classification of a block operator — the dispatch half of a
/// compiled plan. Self-contained (structured operators are stored split, and
/// dense operators carry their own plane copies) so a
/// [`crate::plan::KernelPlan`] embedding it never has to re-borrow the
/// source matrix at execution time.
pub(crate) enum OpData {
    /// The identity: nothing to do.
    Identity,
    /// Diagonal: entrywise multiplication.
    Diagonal {
        /// Real parts of the diagonal.
        re: Vec<f64>,
        /// Imaginary parts of the diagonal.
        im: Vec<f64>,
    },
    /// One nonzero per row: `out[r] = phase[r] · in[src[r]]`. Covers
    /// permutation operators (SWAP, register cycles) and phased variants.
    /// `unit_phase` marks plain permutations (every phase exactly 1), whose
    /// scatter degenerates to a copy with no multiplies.
    Monomial {
        /// Column of the single nonzero in each row.
        src: Vec<usize>,
        /// Real parts of the per-row phases.
        phase_re: Vec<f64>,
        /// Imaginary parts of the per-row phases.
        phase_im: Vec<f64>,
        /// Every phase is exactly `1` (plain permutation).
        unit_phase: bool,
    },
    /// General dense operator: row-major plane copies (`block × block`).
    /// `block == 2` dispatches to the unrolled register path at execution.
    Dense {
        /// Real plane, row-major.
        re: Vec<f64>,
        /// Imaginary plane, row-major.
        im: Vec<f64>,
    },
}

/// Classifies an operator's structure, copying what the executors need.
pub(crate) fn classify(u: &CMatrix) -> OpData {
    let n = u.rows();
    let mut diagonal = true;
    'diag: for r in 0..n {
        for c in 0..n {
            if r != c && u.at(r, c).norm_sqr() != 0.0 {
                diagonal = false;
                break 'diag;
            }
        }
    }
    if diagonal {
        if (0..n).all(|i| u.at(i, i) == Complex::ONE) {
            return OpData::Identity;
        }
        return OpData::Diagonal {
            re: (0..n).map(|i| u.at(i, i).re).collect(),
            im: (0..n).map(|i| u.at(i, i).im).collect(),
        };
    }
    let mut src = Vec::with_capacity(n);
    let mut phase_re = Vec::with_capacity(n);
    let mut phase_im = Vec::with_capacity(n);
    let mut monomial = true;
    'mono: for r in 0..n {
        let mut nonzero = None;
        for c in 0..n {
            if u.at(r, c).norm_sqr() != 0.0 {
                if nonzero.is_some() {
                    monomial = false;
                    break 'mono;
                }
                nonzero = Some(c);
            }
        }
        match nonzero {
            Some(c) => {
                src.push(c);
                phase_re.push(u.at(r, c).re);
                phase_im.push(u.at(r, c).im);
            }
            None => {
                monomial = false;
                break 'mono;
            }
        }
    }
    if monomial {
        let unit_phase = phase_re.iter().all(|&x| x == 1.0) && phase_im.iter().all(|&x| x == 0.0);
        return OpData::Monomial {
            src,
            phase_re,
            phase_im,
            unit_phase,
        };
    }
    OpData::Dense {
        re: u.re().to_vec(),
        im: u.im().to_vec(),
    }
}

/// Reusable pair of gather buffers (one per plane) for the block kernels.
#[derive(Default)]
pub(crate) struct Scratch {
    pub(crate) re: Vec<f64>,
    pub(crate) im: Vec<f64>,
}

impl Scratch {
    fn resize(&mut self, len: usize) {
        self.re.resize(len, 0.0);
        self.im.resize(len, 0.0);
    }
}

/// Applies a local operator to a state vector in place:
/// `|ψ⟩ → embed(op) |ψ⟩` without materialising the embedded operator.
///
/// `amps` is the split view of the amplitude vector over the plan's
/// register; the operator, its targets and their order come from `plan`
/// ([`KernelPlan::for_operator`] or stronger), so dispatch, strides and
/// gather maps are never re-derived per call.
///
/// # Panics
///
/// Panics if `amps.len()` differs from the plan's register dimension or if
/// the plan carries no operator.
pub fn apply_to_state_vector_with(
    amps: SplitMut<'_>,
    plan: &KernelPlan,
    scratch: &mut PlanScratch,
) {
    assert_eq!(amps.len(), plan.total_dim(), "state dimension mismatch");
    apply_vec(
        amps.re,
        amps.im,
        plan.lay(),
        plan.op_fwd(),
        false,
        &mut scratch.gather,
    );
}

/// Core vector kernel. With `transposed == false` computes
/// `out[r] = Σ_c op[r,c] · in[c]` per block (left action); with
/// `transposed == true` computes `out[c] = Σ_r in[r] · op[r,c]` (right action
/// on a row of a matrix, i.e. multiplication by the embedded operator from
/// the right).
///
/// `scratch` is a caller-owned gather buffer pair: callers invoking this
/// kernel many times (once per matrix row) pass the same buffers so the
/// allocation happens once per gate, not once per row.
fn apply_vec(
    re: &mut [f64],
    im: &mut [f64],
    lay: &TargetLayout,
    data: &OpData,
    transposed: bool,
    scratch: &mut Scratch,
) {
    // Equal-length reslice: lets the optimiser fold the imaginary plane's
    // bounds checks into the real plane's (same index, same length).
    let im = &mut im[..re.len()];
    let block = lay.block;
    let offsets = &lay.offsets;
    match data {
        OpData::Identity => {}
        OpData::Diagonal { re: dre, im: dim } => {
            // Diagonal operators are symmetric under transposition. Zipping
            // the offset and diagonal slices keeps the per-element work at
            // exactly two checked plane accesses.
            lay.for_each_base(|base| {
                for ((&off, &dr), &di) in offsets.iter().zip(dre.iter()).zip(dim.iter()) {
                    let idx = base + off;
                    let (ar, ai) = (re[idx], im[idx]);
                    re[idx] = ar * dr - ai * di;
                    im[idx] = ar * di + ai * dr;
                }
            });
        }
        OpData::Monomial {
            src,
            phase_re,
            phase_im,
            unit_phase,
        } => {
            scratch.resize(block);
            let (sre, sim) = (&mut scratch.re[..block], &mut scratch.im[..block]);
            if *unit_phase && !transposed {
                // Plain permutation: the scatter is a copy, no multiplies.
                lay.for_each_base(|base| {
                    for ((&off, sr), si) in offsets.iter().zip(sre.iter_mut()).zip(sim.iter_mut()) {
                        *sr = re[base + off];
                        *si = im[base + off];
                    }
                    for (&s, &off) in src.iter().zip(offsets.iter()) {
                        re[base + off] = sre[s];
                        im[base + off] = sim[s];
                    }
                });
                return;
            }
            lay.for_each_base(|base| {
                for ((&off, sr), si) in offsets.iter().zip(sre.iter_mut()).zip(sim.iter_mut()) {
                    *sr = re[base + off];
                    *si = im[base + off];
                }
                if transposed {
                    // out[src[r]] += in[r]·phase[r]; unwritten slots are 0.
                    for &off in offsets.iter() {
                        re[base + off] = 0.0;
                        im[base + off] = 0.0;
                    }
                    for (r, ((&s, &pr), &pi)) in src
                        .iter()
                        .zip(phase_re.iter())
                        .zip(phase_im.iter())
                        .enumerate()
                    {
                        let idx = base + offsets[s];
                        re[idx] += sre[r] * pr - sim[r] * pi;
                        im[idx] += sre[r] * pi + sim[r] * pr;
                    }
                } else {
                    for (((&s, &pr), &pi), &off) in src
                        .iter()
                        .zip(phase_re.iter())
                        .zip(phase_im.iter())
                        .zip(offsets.iter())
                    {
                        let idx = base + off;
                        let (xr, xi) = (sre[s], sim[s]);
                        re[idx] = xr * pr - xi * pi;
                        im[idx] = xr * pi + xi * pr;
                    }
                }
            });
        }
        OpData::Dense { re: ure, im: uim } => {
            if block == 2 {
                // Unrolled 2×2 path, in registers, no scratch. The transposed
                // action is the same update with the operator transposed.
                let at = |r: usize, c: usize| Complex::new(ure[r * 2 + c], uim[r * 2 + c]);
                let (u00, u11) = (at(0, 0), at(1, 1));
                let (u01, u10) = if transposed {
                    (at(1, 0), at(0, 1))
                } else {
                    (at(0, 1), at(1, 0))
                };
                let off1 = offsets[1];
                lay.for_each_base(|base| {
                    let (ar, ai) = (re[base], im[base]);
                    let (br, bi) = (re[base + off1], im[base + off1]);
                    re[base] = u00.re * ar - u00.im * ai + u01.re * br - u01.im * bi;
                    im[base] = u00.re * ai + u00.im * ar + u01.re * bi + u01.im * br;
                    re[base + off1] = u10.re * ar - u10.im * ai + u11.re * br - u11.im * bi;
                    im[base + off1] = u10.re * ai + u10.im * ar + u11.re * bi + u11.im * br;
                });
                return;
            }
            scratch.resize(block);
            let (sre, sim) = (&mut scratch.re[..block], &mut scratch.im[..block]);
            lay.for_each_base(|base| {
                dense_block(re, im, base, offsets, ure, uim, block, sre, sim, transposed);
            });
        }
    }
}

/// Gather, dense block multiply, scatter — one target block at `base`, as
/// paired re/im fused multiply-add loops.
#[inline]
#[allow(clippy::too_many_arguments)]
fn dense_block(
    re: &mut [f64],
    im: &mut [f64],
    base: usize,
    offsets: &[usize],
    ure: &[f64],
    uim: &[f64],
    block: usize,
    sre: &mut [f64],
    sim: &mut [f64],
    transposed: bool,
) {
    for (b, &off) in offsets.iter().enumerate() {
        sre[b] = re[base + off];
        sim[b] = im[base + off];
    }
    if transposed {
        for (j, &off) in offsets.iter().enumerate() {
            let mut acc_re = 0.0;
            let mut acc_im = 0.0;
            for r in 0..block {
                let (ur, ui) = (ure[r * block + j], uim[r * block + j]);
                acc_re += sre[r] * ur - sim[r] * ui;
                acc_im += sre[r] * ui + sim[r] * ur;
            }
            re[base + off] = acc_re;
            im[base + off] = acc_im;
        }
    } else {
        for (r, &off) in offsets.iter().enumerate() {
            let urow_re = &ure[r * block..(r + 1) * block];
            let urow_im = &uim[r * block..(r + 1) * block];
            let mut acc_re = 0.0;
            let mut acc_im = 0.0;
            for c in 0..block {
                acc_re += urow_re[c] * sre[c] - urow_im[c] * sim[c];
                acc_im += urow_re[c] * sim[c] + urow_im[c] * sre[c];
            }
            re[base + off] = acc_re;
            im[base + off] = acc_im;
        }
    }
}

/// Left-multiply core: `M → embed(data) · M` over a compiled layout.
fn left_multiply_core(mat: &mut CMatrix, lay: &TargetLayout, data: &OpData, scratch: &mut Scratch) {
    let ncols = mat.cols();
    let block = lay.block;
    let split = mat.split_mut();
    let (dre, dim) = (split.re, split.im);
    match data {
        OpData::Identity => {}
        OpData::Diagonal { re: cre, im: cim } => {
            lay.for_each_base(|base| {
                for (b, &off) in lay.offsets.iter().enumerate() {
                    let row_re = &mut dre[(base + off) * ncols..][..ncols];
                    let row_im = &mut dim[(base + off) * ncols..][..ncols];
                    let (cr, ci) = (cre[b], cim[b]);
                    for t in 0..ncols {
                        let (xr, xi) = (row_re[t], row_im[t]);
                        row_re[t] = xr * cr - xi * ci;
                        row_im[t] = xr * ci + xi * cr;
                    }
                }
            });
        }
        OpData::Monomial {
            src,
            phase_re,
            phase_im,
            unit_phase,
        } => {
            scratch.resize(block * ncols);
            let (sre, sim) = (
                &mut scratch.re[..block * ncols],
                &mut scratch.im[..block * ncols],
            );
            lay.for_each_base(|base| {
                for (b, &off) in lay.offsets.iter().enumerate() {
                    sre[b * ncols..(b + 1) * ncols]
                        .copy_from_slice(&dre[(base + off) * ncols..][..ncols]);
                    sim[b * ncols..(b + 1) * ncols]
                        .copy_from_slice(&dim[(base + off) * ncols..][..ncols]);
                }
                for (r, &s) in src.iter().enumerate() {
                    let out_re = &mut dre[(base + lay.offsets[r]) * ncols..][..ncols];
                    let out_im = &mut dim[(base + lay.offsets[r]) * ncols..][..ncols];
                    let in_re = &sre[s * ncols..(s + 1) * ncols];
                    let in_im = &sim[s * ncols..(s + 1) * ncols];
                    if *unit_phase {
                        // Plain permutation of rows: straight copies.
                        out_re.copy_from_slice(in_re);
                        out_im.copy_from_slice(in_im);
                        continue;
                    }
                    let (pr, pi) = (phase_re[r], phase_im[r]);
                    for t in 0..ncols {
                        out_re[t] = in_re[t] * pr - in_im[t] * pi;
                        out_im[t] = in_re[t] * pi + in_im[t] * pr;
                    }
                }
            });
        }
        OpData::Dense { re: ure, im: uim } => {
            if block == 2 {
                // Two-row streaming path: both rows of the 2×2 block update
                // are computed in registers per column, written back in
                // place — no scratch copy of the rows. The second block row
                // always sits strictly after the first (`offsets[1] > 0`),
                // so `split_at_mut` hands out the two disjoint row slices.
                let at = |r: usize, c: usize| Complex::new(ure[r * 2 + c], uim[r * 2 + c]);
                let (u00, u01, u10, u11) = (at(0, 0), at(0, 1), at(1, 0), at(1, 1));
                let gap = lay.offsets[1] * ncols;
                lay.for_each_base(|base| {
                    let start = base * ncols;
                    let (lo_re, hi_re) = dre[start..].split_at_mut(gap);
                    let (lo_im, hi_im) = dim[start..].split_at_mut(gap);
                    let row0_re = &mut lo_re[..ncols];
                    let row0_im = &mut lo_im[..ncols];
                    let row1_re = &mut hi_re[..ncols];
                    let row1_im = &mut hi_im[..ncols];
                    for t in 0..ncols {
                        let (ar, ai) = (row0_re[t], row0_im[t]);
                        let (br, bi) = (row1_re[t], row1_im[t]);
                        row0_re[t] = u00.re * ar - u00.im * ai + u01.re * br - u01.im * bi;
                        row0_im[t] = u00.re * ai + u00.im * ar + u01.re * bi + u01.im * br;
                        row1_re[t] = u10.re * ar - u10.im * ai + u11.re * br - u11.im * bi;
                        row1_im[t] = u10.re * ai + u10.im * ar + u11.re * bi + u11.im * br;
                    }
                });
                return;
            }
            scratch.resize(block * ncols);
            let (sre, sim) = (
                &mut scratch.re[..block * ncols],
                &mut scratch.im[..block * ncols],
            );
            lay.for_each_base(|base| {
                for (b, &off) in lay.offsets.iter().enumerate() {
                    sre[b * ncols..(b + 1) * ncols]
                        .copy_from_slice(&dre[(base + off) * ncols..][..ncols]);
                    sim[b * ncols..(b + 1) * ncols]
                        .copy_from_slice(&dim[(base + off) * ncols..][..ncols]);
                }
                for (r, &off) in lay.offsets.iter().enumerate() {
                    let out_re = &mut dre[(base + off) * ncols..][..ncols];
                    let out_im = &mut dim[(base + off) * ncols..][..ncols];
                    let (cr, ci) = (ure[r * block], uim[r * block]);
                    {
                        let in_re = &sre[..ncols];
                        let in_im = &sim[..ncols];
                        for t in 0..ncols {
                            out_re[t] = cr * in_re[t] - ci * in_im[t];
                            out_im[t] = cr * in_im[t] + ci * in_re[t];
                        }
                    }
                    for c in 1..block {
                        let (cr, ci) = (ure[r * block + c], uim[r * block + c]);
                        if cr == 0.0 && ci == 0.0 {
                            continue;
                        }
                        let in_re = &sre[c * ncols..(c + 1) * ncols];
                        let in_im = &sim[c * ncols..(c + 1) * ncols];
                        for t in 0..ncols {
                            out_re[t] += cr * in_re[t] - ci * in_im[t];
                            out_im[t] += cr * in_im[t] + ci * in_re[t];
                        }
                    }
                }
            });
        }
    }
}

/// Right-multiply core: `M → M · embed(data)` — the transposed vector kernel
/// applied to each (contiguous, in both planes) row.
fn right_multiply_core(
    mat: &mut CMatrix,
    lay: &TargetLayout,
    data: &OpData,
    scratch: &mut Scratch,
) {
    let ctotal = mat.cols();
    let split = mat.split_mut();
    for (row_re, row_im) in split.re.chunks_mut(ctotal).zip(split.im.chunks_mut(ctotal)) {
        apply_vec(row_re, row_im, lay, data, true, scratch);
    }
}

/// Right-multiplies a matrix by the embedded local operator of `plan` in
/// place: `M → M · embed(op)`, without materialising `embed(op)`.
///
/// `M` has one column per basis state of the plan's register and any number
/// of rows. Cost `O(rows · cols · block)`.
///
/// # Panics
///
/// Panics if `mat.cols()` differs from the plan's register dimension or if
/// the plan carries no operator.
pub fn right_multiply_matrix_with(mat: &mut CMatrix, plan: &KernelPlan, scratch: &mut PlanScratch) {
    assert_eq!(mat.cols(), plan.total_dim(), "state dimension mismatch");
    right_multiply_core(mat, plan.lay(), plan.op_fwd(), &mut scratch.gather);
}

/// Conjugates a square matrix by an embedded local operator in place:
/// `M → embed(op) · M · embed(op)†`, without materialising `embed(op)`.
///
/// This is the density-matrix update `ρ → U ρ U†` for a local unitary, and
/// works for arbitrary (non-unitary) local operators such as measurement
/// effects. Cost `O(D² · block)` versus `O(D³)` for embed-then-matmul.
///
/// Compile-then-execute shim over [`conjugate_matrix_with`] (the plan also
/// pre-classifies the adjoint, so no `op.adjoint()` matrix is built per
/// call).
///
/// # Panics
///
/// Panics on target/operator shape mismatches, or if `mat` is not square of
/// dimension `total_dim(dims)`.
pub fn conjugate_matrix(mat: &mut CMatrix, dims: &[usize], targets: &[usize], op: &CMatrix) {
    let plan = KernelPlan::for_conjugation(dims, targets, op);
    conjugate_matrix_with(mat, &plan, &mut PlanScratch::default());
}

/// Plan executor of [`conjugate_matrix`]: requires a plan compiled with
/// [`KernelPlan::for_conjugation`] (which classifies both the operator and
/// its adjoint).
///
/// # Panics
///
/// Panics if `mat` is not square of the plan's register dimension or if the
/// plan carries no adjoint classification.
pub fn conjugate_matrix_with(mat: &mut CMatrix, plan: &KernelPlan, scratch: &mut PlanScratch) {
    assert_eq!(
        mat.rows(),
        mat.cols(),
        "conjugation requires a square matrix"
    );
    assert_eq!(mat.rows(), plan.total_dim(), "state dimension mismatch");
    left_multiply_core(mat, plan.lay(), plan.op_fwd(), &mut scratch.gather);
    right_multiply_core(mat, plan.lay(), plan.op_adj(), &mut scratch.gather);
}

/// Out-of-place plan conjugation: `dst ← embed(op) · src · embed(op)†`.
///
/// For a **monomial** operator (SWAP, register permutations — the
/// symmetrisation channel of every chain protocol) the conjugation is a pure
/// index gather: `dst[bᵣ+off_r, b_c+off_c] = φ_r φ̄_c · src[bᵣ+off_{s(r)},
/// b_c+off_{s(c)}]`, executed here as one fused pass over the plan's
/// materialised bases — no row scratch, no two-pass left/right multiply, no
/// multiplies at all in the unit-phase case. Other operator structures fall
/// back to copy + [`conjugate_matrix_with`] (which requires the plan to
/// carry the adjoint, i.e. [`KernelPlan::for_conjugation`]).
///
/// # Panics
///
/// Panics if `src`/`dst` are not square of the plan's register dimension or
/// if the plan carries no operator (monomial case) / no adjoint (fallback).
pub fn conjugate_into_with(
    dst: &mut CMatrix,
    src: &CMatrix,
    plan: &KernelPlan,
    scratch: &mut PlanScratch,
) {
    let d = plan.total_dim();
    assert!(
        src.rows() == d && src.cols() == d && dst.rows() == d && dst.cols() == d,
        "state dimension mismatch"
    );
    if let OpData::Monomial {
        src: smap,
        phase_re,
        phase_im,
        unit_phase,
    } = plan.op_fwd()
    {
        let lay = plan.lay();
        let offsets = &lay.offsets;
        let bases = &lay.bases;
        let (sre, sim) = (src.re(), src.im());
        let split = dst.split_mut();
        let (dre, dim) = (split.re, split.im);
        for &br in bases {
            for (r, &off_r) in offsets.iter().enumerate() {
                let in_row = (br + offsets[smap[r]]) * d;
                let out_row = (br + off_r) * d;
                if *unit_phase {
                    for &bc in bases {
                        for (c, &off_c) in offsets.iter().enumerate() {
                            let from = in_row + bc + offsets[smap[c]];
                            let to = out_row + bc + off_c;
                            dre[to] = sre[from];
                            dim[to] = sim[from];
                        }
                    }
                } else {
                    let (pr_r, pi_r) = (phase_re[r], phase_im[r]);
                    for &bc in bases {
                        for (c, &off_c) in offsets.iter().enumerate() {
                            // φ_r · conj(φ_c)
                            let (pr_c, pi_c) = (phase_re[c], -phase_im[c]);
                            let fr = pr_r * pr_c - pi_r * pi_c;
                            let fi = pr_r * pi_c + pi_r * pr_c;
                            let from = in_row + bc + offsets[smap[c]];
                            let to = out_row + bc + off_c;
                            let (xr, xi) = (sre[from], sim[from]);
                            dre[to] = xr * fr - xi * fi;
                            dim[to] = xr * fi + xi * fr;
                        }
                    }
                }
            }
        }
        return;
    }
    dst.copy_from(src);
    conjugate_matrix_with(dst, plan, scratch);
}

/// Plan executor for a Kraus channel `M → Σ_k K_k M K_k†` over a plan
/// compiled with [`KernelPlan::for_kraus`]. `term` and `acc` are caller-owned
/// full-dimension buffers (reused across calls); `mat` receives the result.
///
/// # Panics
///
/// Panics if `mat`, `term` or `acc` are not square of the plan's register
/// dimension or if the plan carries no Kraus operators.
pub fn apply_kraus_with(
    mat: &mut CMatrix,
    plan: &KernelPlan,
    scratch: &mut PlanScratch,
    term: &mut CMatrix,
    acc: &mut CMatrix,
) {
    let d = plan.total_dim();
    assert!(
        mat.rows() == d && mat.cols() == d,
        "state dimension mismatch"
    );
    assert!(
        term.rows() == d && term.cols() == d && acc.rows() == d && acc.cols() == d,
        "Kraus scratch dimension mismatch"
    );
    acc.scale_real_in_place(0.0);
    for (fwd, adj) in plan.kraus_ops() {
        term.copy_from(mat);
        left_multiply_core(term, plan.lay(), fwd, &mut scratch.gather);
        right_multiply_core(term, plan.lay(), adj, &mut scratch.gather);
        acc.mix_in_place(1.0, 1.0, term);
    }
    mat.copy_from(acc);
}

/// Trace of an embedded monomial operator against a square matrix:
/// `tr(embed(A) · M)` where `A` is the block operator of `plan` with exactly
/// one nonzero per row, `A[r, src[r]] = phase[r]` (e.g. a
/// [`KernelPlan::for_monomial_trace`] plan).
///
/// Permutation unitaries `U_π` (and SWAP in particular) are monomial, so this
/// is the `O(D)` stride walk behind the matrix-free SWAP/permutation tests:
/// `tr(embed(A)·M) = Σ_base Σ_r phase[r] · M[base+off_{src[r]}, base+off_r]`
/// visits each of the `D` per-base block entries once — no operator,
/// embedded or block-local, is ever materialised.
///
/// # Panics
///
/// Panics if `M` is not square of the plan's register dimension or if the
/// plan's operator is not monomial.
pub fn monomial_embedded_trace_with(mat: &CMatrix, plan: &KernelPlan) -> Complex {
    assert!(
        mat.rows() == plan.total_dim() && mat.cols() == mat.rows(),
        "matrix dimension mismatch"
    );
    let lay = plan.lay();
    let (src, phase_re, phase_im) = match plan.op_fwd() {
        OpData::Monomial {
            src,
            phase_re,
            phase_im,
            ..
        } => (src, phase_re, phase_im),
        _ => panic!("plan does not carry a monomial operator"),
    };
    let d = mat.rows();
    let (mre, mim) = (mat.re(), mat.im());
    let offsets = &lay.offsets;
    let mut acc_re = 0.0;
    let mut acc_im = 0.0;
    lay.for_each_base(|base| {
        for (r, (&s, (&pr, &pi))) in src
            .iter()
            .zip(phase_re.iter().zip(phase_im.iter()))
            .enumerate()
        {
            let idx = (base + offsets[s]) * d + (base + offsets[r]);
            acc_re += pr * mre[idx] - pi * mim[idx];
            acc_im += pr * mim[idx] + pi * mre[idx];
        }
    });
    Complex::new(acc_re, acc_im)
}

/// A partition of the target-block indices into equivalence classes:
/// `class_of[b]` is the class of block index `b` and `class_size[c]` the
/// number of block indices in class `c`.
///
/// The associated orthogonal projector `P[r, c] = [r ~ c] / |class(r)|`
/// averages each class. When the classes are the orbits of the register
/// digits under `S_k` (see [`crate::permutation::symmetric_classes`], whose
/// single memoised home is [`crate::plan::symmetric_classes`]), `P` is
/// exactly the symmetric-subspace projector `Π_sym = (1/k!) Σ_π U_π`, so
/// the [`project_classes_rows_with`]/[`project_classes_cols_with`] pair
/// implements the post-measurement effect `Π_sym ρ Π_sym` of the permutation
/// test as an in-place register symmetrisation — `O(D²)` with no `k!` factor
/// and no projector allocation.
#[derive(Clone, Debug)]
pub struct BlockClasses {
    /// Class id of each target-block index.
    pub class_of: Vec<usize>,
    /// Number of block indices in each class.
    pub class_size: Vec<usize>,
}

impl BlockClasses {
    pub(crate) fn validate(&self, block: usize) {
        assert_eq!(self.class_of.len(), block, "class map length mismatch");
        assert!(
            self.class_of.iter().all(|&c| c < self.class_size.len()),
            "class id out of range"
        );
    }
}

/// Applies the class-averaging projector of a class plan
/// ([`KernelPlan::for_classes`] / [`KernelPlan::for_symmetric`]) to a single
/// vector over the composite register, in place: `v → embed(P) v` (or
/// `(I − P) v` with `complement`). Each amplitude is visited a constant
/// number of times: `O(D)`.
pub fn project_classes_vector_with(
    amps: SplitMut<'_>,
    plan: &KernelPlan,
    complement: bool,
    scratch: &mut PlanScratch,
) {
    assert_eq!(amps.len(), plan.total_dim(), "state dimension mismatch");
    let cd = plan.class_data();
    scratch.sums.resize(cd.nclasses());
    project_vector_core(
        amps.re,
        amps.im,
        plan.lay(),
        cd,
        complement,
        &mut scratch.sums.re,
        &mut scratch.sums.im,
    );
}

/// Shared per-base class-averaging body for vectors and matrix rows.
#[allow(clippy::too_many_arguments)]
fn project_vector_core(
    re: &mut [f64],
    im: &mut [f64],
    lay: &TargetLayout,
    cd: &ClassData,
    complement: bool,
    sums_re: &mut [f64],
    sums_im: &mut [f64],
) {
    let offsets = &lay.offsets;
    lay.for_each_base(|base| {
        for s in sums_re.iter_mut() {
            *s = 0.0;
        }
        for s in sums_im.iter_mut() {
            *s = 0.0;
        }
        for (b, &off) in offsets.iter().enumerate() {
            let c = cd.class_of[b];
            sums_re[c] += re[base + off];
            sums_im[c] += im[base + off];
        }
        for (b, &off) in offsets.iter().enumerate() {
            let c = cd.class_of[b];
            let inv = cd.inv_size[c];
            let (avg_re, avg_im) = (sums_re[c] * inv, sums_im[c] * inv);
            if complement {
                re[base + off] -= avg_re;
                im[base + off] -= avg_im;
            } else {
                re[base + off] = avg_re;
                im[base + off] = avg_im;
            }
        }
    });
}

/// Squared norm of the class-averaging projection of a vector, without
/// materialising the projected vector: `‖embed(P) v‖² = Σ_class |Σ v|²/|class|`
/// summed per base. This is the acceptance probability of the permutation
/// test on a pure state when the plan's classes are the `S_k` digit orbits.
pub fn class_projection_weight_with(
    amps: Split<'_>,
    plan: &KernelPlan,
    scratch: &mut PlanScratch,
) -> f64 {
    assert_eq!(amps.len(), plan.total_dim(), "state dimension mismatch");
    let cd = plan.class_data();
    let lay = plan.lay();
    let (re, im) = (amps.re, amps.im);
    let offsets = &lay.offsets;
    scratch.sums.resize(cd.nclasses());
    let (sums_re, sums_im) = (&mut scratch.sums.re, &mut scratch.sums.im);
    let mut weight = 0.0;
    lay.for_each_base(|base| {
        for s in sums_re.iter_mut() {
            *s = 0.0;
        }
        for s in sums_im.iter_mut() {
            *s = 0.0;
        }
        for (b, &off) in offsets.iter().enumerate() {
            let c = cd.class_of[b];
            sums_re[c] += re[base + off];
            sums_im[c] += im[base + off];
        }
        for (c, (&sr, &si)) in sums_re.iter().zip(sums_im.iter()).enumerate() {
            weight += (sr * sr + si * si) * cd.inv_size[c];
        }
    });
    weight
}

/// Trace of the embedded class-averaging projector against a square matrix:
/// `tr(embed(P)·M) = Σ_base Σ_class (Σ_{r,c ∈ class} M[base+off_c, base+off_r]) / |class|`.
///
/// When the classes are the `S_k` digit orbits this equals
/// `(1/k!) Σ_π tr(embed(U_π)·M)` — the permutation-test acceptance — with the
/// `k!` monomial gathers regrouped by orbit, so the cost per base drops from
/// `k!·block` to `Σ_orbit |orbit|² ≤ k!·block` and the permutations are never
/// enumerated. The class plan carries the per-class offset gather lists
/// pre-grouped (flat, one allocation).
pub fn class_projection_trace_with(mat: &CMatrix, plan: &KernelPlan) -> Complex {
    assert!(
        mat.rows() == plan.total_dim() && mat.cols() == mat.rows(),
        "matrix dimension mismatch"
    );
    let cd = plan.class_data();
    let lay = plan.lay();
    let d = mat.rows();
    let (mre, mim) = (mat.re(), mat.im());
    let mut acc_re = 0.0;
    let mut acc_im = 0.0;
    lay.for_each_base(|base| {
        for c in 0..cd.nclasses() {
            let offs = &cd.member_offsets[cd.class_start[c]..cd.class_start[c + 1]];
            let mut class_re = 0.0;
            let mut class_im = 0.0;
            for &or in offs {
                let row = (base + or) * d + base;
                for &oc in offs {
                    class_re += mre[row + oc];
                    class_im += mim[row + oc];
                }
            }
            let inv = cd.inv_size[c];
            acc_re += class_re * inv;
            acc_im += class_im * inv;
        }
    });
    Complex::new(acc_re, acc_im)
}

/// Left-multiplies a matrix by the embedded class-averaging projector of a
/// class plan in place: `M → embed(P) · M` (or `(I − P) · M` with
/// `complement`), where `M` has one row per basis state of the plan's
/// register. Cost `O(rows · cols)` — no `block` factor.
pub fn project_classes_rows_with(
    mat: &mut CMatrix,
    plan: &KernelPlan,
    complement: bool,
    scratch: &mut PlanScratch,
) {
    assert_eq!(
        mat.rows(),
        plan.total_dim(),
        "matrix row dimension mismatch"
    );
    let cd = plan.class_data();
    let lay = plan.lay();
    let ncols = mat.cols();
    let nclasses = cd.nclasses();
    let offsets = &lay.offsets;
    let split = mat.split_mut();
    let (dre, dim) = (split.re, split.im);
    scratch.sums.resize(nclasses * ncols);
    let (sums_re, sums_im) = (&mut scratch.sums.re, &mut scratch.sums.im);
    lay.for_each_base(|base| {
        for s in sums_re.iter_mut() {
            *s = 0.0;
        }
        for s in sums_im.iter_mut() {
            *s = 0.0;
        }
        for (b, &off) in offsets.iter().enumerate() {
            let c = cd.class_of[b];
            let row_re = &dre[(base + off) * ncols..][..ncols];
            let row_im = &dim[(base + off) * ncols..][..ncols];
            let acc_re = &mut sums_re[c * ncols..(c + 1) * ncols];
            let acc_im = &mut sums_im[c * ncols..(c + 1) * ncols];
            for t in 0..ncols {
                acc_re[t] += row_re[t];
                acc_im[t] += row_im[t];
            }
        }
        for (b, &off) in offsets.iter().enumerate() {
            let c = cd.class_of[b];
            let inv = cd.inv_size[c];
            let row_re = &mut dre[(base + off) * ncols..][..ncols];
            let row_im = &mut dim[(base + off) * ncols..][..ncols];
            let acc_re = &sums_re[c * ncols..(c + 1) * ncols];
            let acc_im = &sums_im[c * ncols..(c + 1) * ncols];
            if complement {
                for t in 0..ncols {
                    row_re[t] -= acc_re[t] * inv;
                    row_im[t] -= acc_im[t] * inv;
                }
            } else {
                for t in 0..ncols {
                    row_re[t] = acc_re[t] * inv;
                    row_im[t] = acc_im[t] * inv;
                }
            }
        }
    });
}

/// Fused scaled class conjugation over a class plan:
/// `M → scale · embed(P) · M · embed(P)` in **one pass** — per non-target
/// base pair, the `nclasses²` class-pair sums are accumulated and written
/// back with the combined factor `scale / (|C_r| · |C_c|)`, instead of the
/// separate row and column averaging passes of
/// [`project_classes_rows_with`] / [`project_classes_cols_with`]. This is
/// the accept branch of the SWAP/permutation-test effect with the
/// post-measurement renormalisation folded in (`scale = 1/p`).
///
/// # Panics
///
/// Panics if `M` is not square of the plan's register dimension or if the
/// plan carries no class tables.
pub fn project_classes_conjugate_with(
    mat: &mut CMatrix,
    plan: &KernelPlan,
    scale: f64,
    scratch: &mut PlanScratch,
) {
    let d = plan.total_dim();
    assert!(
        mat.rows() == d && mat.cols() == d,
        "matrix dimension mismatch"
    );
    let cd = plan.class_data();
    // Flat block² tables (class-pair id, combined 1/(|C_r|·|C_c|) factor),
    // built lazily on the plan's first fused conjugation.
    let (pair_class, pair_inv) = cd.pair_tables();
    let lay = plan.lay();
    let offsets = &lay.offsets;
    let bases = &lay.bases;
    let nc = cd.nclasses();
    let block = lay.block;
    debug_assert_eq!(pair_class.len(), block * block);
    scratch.sums.resize(nc * nc);
    let (sums_re, sums_im) = (
        &mut scratch.sums.re[..nc * nc],
        &mut scratch.sums.im[..nc * nc],
    );
    let split = mat.split_mut();
    let (mre, mim) = (split.re, split.im);
    for &br in bases {
        for &bc in bases {
            for s in sums_re.iter_mut() {
                *s = 0.0;
            }
            for s in sums_im.iter_mut() {
                *s = 0.0;
            }
            let mut idx = 0usize;
            for &off_r in offsets.iter() {
                let row = (br + off_r) * d + bc;
                for &off_c in offsets.iter() {
                    let s = pair_class[idx];
                    sums_re[s] += mre[row + off_c];
                    sums_im[s] += mim[row + off_c];
                    idx += 1;
                }
            }
            idx = 0;
            for &off_r in offsets.iter() {
                let row = (br + off_r) * d + bc;
                for &off_c in offsets.iter() {
                    let s = pair_class[idx];
                    let f = pair_inv[idx] * scale;
                    mre[row + off_c] = sums_re[s] * f;
                    mim[row + off_c] = sums_im[s] * f;
                    idx += 1;
                }
            }
        }
    }
}

/// Fused class conjugation + partial trace over a class plan:
/// `out ← scale · tr_T( embed(P) · src · embed(P) )`, where `T` is the
/// plan's target set and `out` lives on the complementary (non-target)
/// registers — indexed exactly by the plan's materialised base walk.
///
/// By linearity the double class average collapses under the trace:
/// `out[a, b] = scale · Σ_class (1/|class|) Σ_{o₁,o₂ ∈ class}
/// src[bases[a]+o₁, bases[b]+o₂]` — `Σ_class |class|²` gathers per `(a, b)`
/// pair, never materialising the post-measurement matrix. This is the
/// accept-effect + trace-down step of the mixed-proof frontier walk in one
/// pass (`scale = 1/p` folds the renormalisation in).
///
/// # Panics
///
/// Panics if `src` is not square of the plan's register dimension, if `out`
/// is not square of the non-target dimension, or if the plan carries no
/// class tables.
pub fn project_classes_trace_complement_with(
    src: &CMatrix,
    plan: &KernelPlan,
    scale: f64,
    out: &mut CMatrix,
) {
    let d = plan.total_dim();
    assert!(
        src.rows() == d && src.cols() == d,
        "matrix dimension mismatch"
    );
    let cd = plan.class_data();
    let lay = plan.lay();
    let nb = lay.other_total;
    assert!(
        out.rows() == nb && out.cols() == nb,
        "traced output dimension mismatch"
    );
    let bases = &lay.bases;
    let (sre, sim) = (src.re(), src.im());
    let split = out.split_mut();
    let (ore, oim) = (split.re, split.im);
    ore.fill(0.0);
    oim.fill(0.0);
    // When the non-target registers trail the targets (the mixed-proof
    // frontier layout), the base walk is the identity and every gather row
    // is contiguous in both planes — a plane axpy per (class, o₁, o₂, a).
    let contiguous = bases.iter().enumerate().all(|(i, &b)| b == i);
    for c in 0..cd.nclasses() {
        let offs = &cd.member_offsets[cd.class_start[c]..cd.class_start[c + 1]];
        let w = cd.inv_size[c] * scale;
        for &o1 in offs {
            for &o2 in offs {
                for (a, &ba) in bases.iter().enumerate() {
                    let row = (o1 + ba) * d + o2;
                    let orow = a * nb;
                    if contiguous {
                        crate::simd::axpy(w, &sre[row..row + nb], &mut ore[orow..orow + nb]);
                        crate::simd::axpy(w, &sim[row..row + nb], &mut oim[orow..orow + nb]);
                    } else {
                        for (b, &bb) in bases.iter().enumerate() {
                            ore[orow + b] += w * sre[row + bb];
                            oim[orow + b] += w * sim[row + bb];
                        }
                    }
                }
            }
        }
    }
}

/// Fused symmetrisation channel over an operator plan:
/// `M → ½·M + ½·embed(op)·M·embed(op)†`, using `tmp` as the result buffer
/// and swapping it in. For a monomial operator the whole update is one pass
/// over the matrix (gather + blend per entry); other structures fall back to
/// [`conjugate_into_with`] plus a blend pass.
///
/// # Panics
///
/// Panics if `M`/`tmp` are not square of the plan's register dimension, or
/// (non-monomial fallback) if the plan carries no adjoint.
pub fn symmetrize_with(
    mat: &mut CMatrix,
    plan: &KernelPlan,
    tmp: &mut CMatrix,
    scratch: &mut PlanScratch,
) {
    let d = plan.total_dim();
    assert!(
        mat.rows() == d && mat.cols() == d && tmp.rows() == d && tmp.cols() == d,
        "state dimension mismatch"
    );
    let unit_monomial = matches!(
        plan.op_fwd(),
        OpData::Monomial {
            unit_phase: true,
            ..
        }
    );
    if unit_monomial {
        // full[i] is the plan's precomputed full-register gather map:
        // (SρS†)[i, j] = ρ[full(i), full(j)].
        let full = plan
            .monomial_full_src()
            .expect("monomial plan carries its full gather map");
        let (sre, sim) = (mat.re(), mat.im());
        let split = tmp.split_mut();
        let (dre, dim) = (split.re, split.im);
        for i in 0..d {
            let pi = full[i] * d;
            let row = i * d;
            crate::simd::gather_avg(
                &sre[row..row + d],
                &sre[pi..pi + d],
                full,
                &mut dre[row..row + d],
            );
            crate::simd::gather_avg(
                &sim[row..row + d],
                &sim[pi..pi + d],
                full,
                &mut dim[row..row + d],
            );
        }
        std::mem::swap(mat, tmp);
        return;
    }
    conjugate_into_with(tmp, mat, plan, scratch);
    mat.mix_in_place(0.5, 0.5, tmp);
}

/// Right-multiplies a matrix by the embedded class-averaging projector of a
/// class plan in place: `M → M · embed(P)` (or `M · (I − P)` with
/// `complement`), where `M` has one column per basis state of the plan's
/// register. `P` is symmetric, so this is the row-wise application of
/// [`project_classes_vector_with`]. Cost `O(rows · cols)`.
pub fn project_classes_cols_with(
    mat: &mut CMatrix,
    plan: &KernelPlan,
    complement: bool,
    scratch: &mut PlanScratch,
) {
    let ctotal = plan.total_dim();
    assert_eq!(mat.cols(), ctotal, "matrix column dimension mismatch");
    let cd = plan.class_data();
    let lay = plan.lay();
    scratch.sums.resize(cd.nclasses());
    let split = mat.split_mut();
    for (row_re, row_im) in split.re.chunks_mut(ctotal).zip(split.im.chunks_mut(ctotal)) {
        project_vector_core(
            row_re,
            row_im,
            lay,
            cd,
            complement,
            &mut scratch.sums.re,
            &mut scratch.sums.im,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gates;
    use crate::linalg::{CVector, SplitBuffer};
    use crate::random::RandomStateGenerator;

    #[test]
    fn strides_row_major() {
        assert_eq!(subsystem_strides(&[2, 3, 4]), vec![12, 4, 1]);
        assert_eq!(subsystem_strides(&[5]), vec![1]);
        assert_eq!(subsystem_strides(&[]), Vec::<usize>::new());
    }

    #[test]
    fn layout_offsets_match_flat_index() {
        use crate::state::flat_index;
        let dims = [2, 3, 2, 2];
        let targets = [2, 0];
        let lay = layout(&dims, &targets);
        assert_eq!(lay.block, 4);
        // offsets[b] must equal flat_index with the target multi-index b and
        // zeros elsewhere.
        for b in 0..lay.block {
            let (b0, b1) = (b / 2, b % 2);
            let mut multi = [0usize; 4];
            multi[2] = b0;
            multi[0] = b1;
            assert_eq!(lay.offsets[b], flat_index(&dims, &multi));
        }
        assert_eq!(lay.other_total, 6);
    }

    #[test]
    fn odometer_visits_every_base_once() {
        let dims = [2, 3, 2];
        let lay = layout(&dims, &[1]);
        let mut seen = Vec::new();
        lay.for_each_base(|b| seen.push(b));
        let mut expected: Vec<usize> = Vec::new();
        for i in 0..2 {
            for k in 0..2 {
                expected.push(i * 6 + k);
            }
        }
        seen.sort_unstable();
        expected.sort_unstable();
        assert_eq!(seen, expected);
    }

    #[test]
    fn materialised_bases_split_cleanly() {
        // Any range split of `bases` must reconstitute the full walk, and
        // the walk must cover every base of a register with no targets
        // exactly once.
        let dims = [3usize, 2, 2];
        let lay = layout(&dims, &[]);
        assert_eq!(lay.bases.len(), 12);
        let mut sorted = lay.bases.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..12).collect::<Vec<_>>());
        for split in [1, 5, 7, 11] {
            let mut parts = lay.bases[..split].to_vec();
            parts.extend_from_slice(&lay.bases[split..]);
            assert_eq!(parts, lay.bases, "split at {split}");
        }
    }

    #[test]
    fn swap_gate_classified_as_monomial() {
        match classify(&gates::swap(3)) {
            OpData::Monomial { unit_phase, .. } => assert!(unit_phase),
            _ => panic!("swap should classify as monomial"),
        }
        match classify(&CMatrix::identity(4)) {
            OpData::Identity => {}
            _ => panic!("identity should classify as identity"),
        }
        match classify(&gates::hadamard()) {
            OpData::Dense { .. } => {}
            _ => panic!("hadamard should classify as dense"),
        }
    }

    #[test]
    fn conjugate_matches_explicit_embedding() {
        let mut gen = RandomStateGenerator::new(11);
        let dims = [2usize, 3, 2];
        let targets = [2usize, 0];
        let u = gen.random_unitary(4);
        let rho = gen.random_density(&dims, 2);
        let mut fast = rho.matrix().clone();
        conjugate_matrix(&mut fast, &dims, &targets, &u);
        let full = crate::density::embed_operator(&dims, &targets, &u);
        let slow = full.matmul(rho.matrix()).matmul(&full.adjoint());
        assert!(fast.approx_eq(&slow, 1e-12));
    }

    #[test]
    fn right_multiply_matches_explicit_embedding() {
        let mut gen = RandomStateGenerator::new(12);
        let dims = [2usize, 2, 3];
        let targets = [1usize, 2];
        let u = gen.random_unitary(6);
        let m = CMatrix::from_fn(12, 12, |i, j| Complex::new(i as f64, j as f64));
        let mut fast = m.clone();
        let plan = KernelPlan::for_operator(&dims, &targets, &u);
        right_multiply_matrix_with(&mut fast, &plan, &mut PlanScratch::default());
        let slow = m.matmul(&crate::density::embed_operator(&dims, &targets, &u));
        assert!(fast.approx_eq(&slow, 1e-9));
    }

    #[test]
    fn diagonal_fast_path_matches_dense() {
        let dims = [2usize, 2, 2];
        let phase = CMatrix::from_rows(&[
            vec![Complex::ONE, Complex::ZERO],
            vec![Complex::ZERO, Complex::I],
        ]);
        let mut gen = RandomStateGenerator::new(13);
        let psi = gen.random_pure(&dims);
        let mut fast = SplitBuffer::from_complex(&psi.amplitudes().to_complex_vec());
        let plan = KernelPlan::for_operator(&dims, &[1], &phase);
        apply_to_state_vector_with(fast.split_mut(), &plan, &mut PlanScratch::default());
        let slow = crate::density::embed_operator(&dims, &[1], &phase).apply(psi.amplitudes());
        assert!(CVector::from_buffer(fast).approx_eq(&slow, 1e-12));
    }
}
