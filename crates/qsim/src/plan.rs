//! Compiled kernel plans: all per-call operator metadata, hoisted.
//!
//! Every kernel in [`crate::kernels`] needs the same derived data on every
//! call — the strided `TargetLayout` of the targets inside the register,
//! the structural classification of the operator (dense / diagonal /
//! monomial / unit-phase permutation / block-2 dispatch), `S_k` digit-orbit
//! class tables with their projection gather maps, monomial trace index
//! lists. For a protocol instance none of that ever changes: the same
//! `(dims, targets, operator structure)` is hit millions of times with only
//! the *data* varying. A [`KernelPlan`] compiles that metadata **once** into
//! flat reusable buffers; the `*_with` executors in [`crate::kernels`] then
//! derive nothing and allocate nothing (scratch is the caller-owned
//! [`PlanScratch`]).
//!
//! Three ways to get a plan:
//!
//! * **Compile one explicitly** ([`KernelPlan::for_operator`],
//!   [`KernelPlan::for_symmetric`], …) and embed it in a protocol round
//!   plan — the batched samplers in the `dqma` crate do this, bypassing the
//!   cache entirely so their steady-state rounds perform **zero** plan
//!   compilations (asserted by `bench_protocols` via [`compile_count`]).
//! * **Fetch it from the plan cache** ([`cached_symmetric`]): a
//!   process-wide memo of `S_k` class plans keyed by `(dims, targets)`. One
//!   mutex guards the entry list, which a lookup scans under the lock (one
//!   entry per distinct register shape, a handful per process); a miss
//!   compiles the plan under the same lock, so concurrent first lookups of
//!   one shape compile it once. Its readers are the per-call measurement
//!   entry points of [`crate::permutation`] and [`crate::swap_test`].
//! * **One-shot entry points** (`PureState::apply_unitary`,
//!   `DensityMatrix::apply_unitary`, the permutation-test traces) compile a
//!   fresh plan per call and run the executor, so they pay roughly the old
//!   per-call derivation cost.
//!
//! This module is also the **single home** of the `S_k` metadata that
//! `swap_test`, `permutation` and the kernels each used to derive on their
//! own: the digit-orbit partition ([`symmetric_classes`]) and the monomial
//! source maps of the permutation unitaries ([`permutation_src`]) are
//! memoised here once, process-wide.

use crate::complex::Complex;
use crate::kernels::{self, BlockClasses, OpData, TargetLayout};
use crate::linalg::CMatrix;
use crate::state::{flat_index, total_dim, unflatten_index};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// Total number of [`KernelPlan`] compilations performed by this process —
/// across explicit constructors, cache misses and shim calls alike.
///
/// Always maintained (one relaxed atomic add per *compilation*, never per
/// executed kernel), so benchmarks can assert that a steady-state batch loop
/// performs zero compilations.
static COMPILES: AtomicU64 = AtomicU64::new(0);

/// Number of kernel plans compiled so far by this process.
pub fn compile_count() -> u64 {
    COMPILES.load(Ordering::Relaxed)
}

/// Plan-cache `(hits, misses)` counters of this process: one of them moves
/// on every [`cached_symmetric`] call.
pub fn cache_counters() -> (u64, u64) {
    let cache = lock_cache();
    (cache.hits, cache.misses)
}

fn note_compile() {
    COMPILES.fetch_add(1, Ordering::Relaxed);
}

/// Class-projection tables of a plan: the orbit partition in flat gather
/// form. `member_offsets[class_start[c]..class_start[c+1]]` are the layout
/// offsets of the block indices in class `c` (the gather list of
/// `class_projection_trace_with`), `inv_size[c] = 1/|class c|`.
pub(crate) struct ClassData {
    pub(crate) class_of: Vec<usize>,
    pub(crate) inv_size: Vec<f64>,
    pub(crate) member_offsets: Vec<usize>,
    pub(crate) class_start: Vec<usize>,
    /// Lazily-built block² tables of the fused class conjugation
    /// (`pair_class[r·block + c] = class(r)·nclasses + class(c)`,
    /// `pair_inv[r·block + c] = 1/(|class(r)|·|class(c)|)`): only the fused
    /// [`crate::kernels::project_classes_conjugate_with`] path reads them,
    /// and at large block sizes they dwarf the rest of the plan — so plans
    /// serving only the trace/row/col entry points never pay for them.
    pair: OnceLock<(Vec<usize>, Vec<f64>)>,
}

impl ClassData {
    pub(crate) fn nclasses(&self) -> usize {
        self.inv_size.len()
    }

    fn build(classes: &BlockClasses, lay: &TargetLayout) -> ClassData {
        classes.validate(lay.block);
        let nclasses = classes.class_size.len();
        let inv_size: Vec<f64> = classes.class_size.iter().map(|&s| 1.0 / s as f64).collect();
        // Group the layout offsets by class: counting sort into one flat
        // buffer (the vector-of-vectors the pre-plan trace rebuilt per call).
        let mut class_start = vec![0usize; nclasses + 1];
        for &c in &classes.class_of {
            class_start[c + 1] += 1;
        }
        for c in 0..nclasses {
            class_start[c + 1] += class_start[c];
        }
        let mut cursor = class_start.clone();
        let mut member_offsets = vec![0usize; classes.class_of.len()];
        for (b, &c) in classes.class_of.iter().enumerate() {
            member_offsets[cursor[c]] = lay.offsets[b];
            cursor[c] += 1;
        }
        ClassData {
            class_of: classes.class_of.clone(),
            inv_size,
            member_offsets,
            class_start,
            pair: OnceLock::new(),
        }
    }

    /// The fused-conjugation pair tables, built on first use (thread-safe,
    /// built at most once per plan).
    pub(crate) fn pair_tables(&self) -> &(Vec<usize>, Vec<f64>) {
        self.pair.get_or_init(|| {
            let nclasses = self.nclasses();
            let block = self.class_of.len();
            let mut pair_class = Vec::with_capacity(block * block);
            let mut pair_inv = Vec::with_capacity(block * block);
            for &cr in &self.class_of {
                for &cc in &self.class_of {
                    pair_class.push(cr * nclasses + cc);
                    pair_inv.push(self.inv_size[cr] * self.inv_size[cc]);
                }
            }
            (pair_class, pair_inv)
        })
    }
}

enum Body {
    /// Layout only: partial traces, outcome walks.
    Layout,
    /// A bound operator; `adj` is the classified adjoint when the plan was
    /// compiled for conjugation, `full_src` the full-register row gather map
    /// of a monomial operator (`full_src[base + off_r] = base + off_src(r)`),
    /// used by the fused monomial conjugation paths.
    Op {
        fwd: OpData,
        adj: Option<OpData>,
        full_src: Option<Vec<usize>>,
    },
    /// A Kraus channel: one `(operator, adjoint)` pair per Kraus operator,
    /// all sharing the plan's layout.
    Kraus { ops: Vec<(OpData, OpData)> },
    /// Class-projection tables (symmetrisation / permutation-test effects).
    Classes(ClassData),
    /// A full-register subsystem permutation: per-subsystem flat-index
    /// weights into the permuted register, plus the permuted dimensions.
    Permute {
        weights: Vec<usize>,
        new_dims: Vec<usize>,
    },
}

/// A compiled kernel plan: everything the [`crate::kernels`] executors need
/// for a fixed `(dims, targets, operator structure)`, derived once.
///
/// See the [module docs](crate::plan) for when to compile, cache or embed
/// one. Plans are immutable and `Sync`: one plan can drive any number of
/// concurrent executors (each executor's mutable state lives in its
/// caller-owned [`PlanScratch`]).
pub struct KernelPlan {
    dims: Box<[usize]>,
    targets: Box<[usize]>,
    total: usize,
    layout: TargetLayout,
    body: Body,
}

impl KernelPlan {
    fn base(dims: &[usize], targets: &[usize], body: Body) -> KernelPlan {
        note_compile();
        KernelPlan {
            dims: dims.into(),
            targets: targets.into(),
            total: total_dim(dims),
            layout: kernels::layout(dims, targets),
            body,
        }
    }

    /// Compiles the strided layout of `targets` inside `dims` with no bound
    /// operator — enough for partial traces and outcome walks.
    ///
    /// # Panics
    ///
    /// Panics if targets repeat or are out of range.
    pub fn for_layout(dims: &[usize], targets: &[usize]) -> KernelPlan {
        KernelPlan::base(dims, targets, Body::Layout)
    }

    /// Compiles a plan binding `op` to the targets: layout plus the
    /// structural classification (identity / diagonal / monomial /
    /// unit-phase permutation / dense with block-2 dispatch) in
    /// self-contained buffers.
    ///
    /// # Panics
    ///
    /// Panics on target errors or if `op` is not square of the product of
    /// target dimensions.
    pub fn for_operator(dims: &[usize], targets: &[usize], op: &CMatrix) -> KernelPlan {
        let plan = KernelPlan::base(dims, targets, Body::Layout);
        plan.assert_op_shape(op);
        let fwd = kernels::classify(op);
        let full_src = plan.build_full_src(&fwd);
        KernelPlan {
            body: Body::Op {
                fwd,
                adj: None,
                full_src,
            },
            ..plan
        }
    }

    /// As [`KernelPlan::for_operator`], additionally classifying the
    /// operator's adjoint so [`kernels::conjugate_matrix_with`] never builds
    /// an adjoint matrix at execution time.
    pub fn for_conjugation(dims: &[usize], targets: &[usize], op: &CMatrix) -> KernelPlan {
        let plan = KernelPlan::base(dims, targets, Body::Layout);
        plan.assert_op_shape(op);
        let fwd = kernels::classify(op);
        let full_src = plan.build_full_src(&fwd);
        KernelPlan {
            body: Body::Op {
                fwd,
                adj: Some(kernels::classify(&op.adjoint())),
                full_src,
            },
            ..plan
        }
    }

    /// The full-register row gather map of a monomial operator:
    /// `full_src[base + off_r] = base + off_src(r)` over every base — `None`
    /// for non-monomial structures.
    fn build_full_src(&self, fwd: &OpData) -> Option<Vec<usize>> {
        let OpData::Monomial { src, .. } = fwd else {
            return None;
        };
        let lay = &self.layout;
        let mut full = vec![0usize; self.total];
        for &base in &lay.bases {
            for (r, &off_r) in lay.offsets.iter().enumerate() {
                full[base + off_r] = base + lay.offsets[src[r]];
            }
        }
        Some(full)
    }

    /// Compiles a Kraus channel: one classified `(operator, adjoint)` pair
    /// per Kraus operator over one shared layout.
    ///
    /// # Panics
    ///
    /// Panics on target errors or if any operator has the wrong shape.
    pub fn for_kraus(dims: &[usize], targets: &[usize], kraus: &[CMatrix]) -> KernelPlan {
        let plan = KernelPlan::base(dims, targets, Body::Layout);
        let ops = kraus
            .iter()
            .map(|k| {
                plan.assert_op_shape(k);
                (kernels::classify(k), kernels::classify(&k.adjoint()))
            })
            .collect();
        KernelPlan {
            body: Body::Kraus { ops },
            ..plan
        }
    }

    /// Compiles the class-projection tables of an explicit block partition
    /// (see [`BlockClasses`]): flat per-class gather lists and inverse
    /// sizes.
    ///
    /// # Panics
    ///
    /// Panics on target errors or if the partition does not match the target
    /// block.
    pub fn for_classes(dims: &[usize], targets: &[usize], classes: &BlockClasses) -> KernelPlan {
        let plan = KernelPlan::base(dims, targets, Body::Layout);
        let data = ClassData::build(classes, &plan.layout);
        KernelPlan {
            body: Body::Classes(data),
            ..plan
        }
    }

    /// Compiles the `S_k` digit-orbit class plan of equal-dimension targets:
    /// the symmetric-subspace projector of the SWAP/permutation test in
    /// class-average form, with the orbit partition taken from the
    /// process-wide [`symmetric_classes`] memo.
    ///
    /// # Panics
    ///
    /// Panics on target errors, if `targets` is empty, or if the targets do
    /// not all have the same dimension.
    pub fn for_symmetric(dims: &[usize], targets: &[usize]) -> KernelPlan {
        assert!(!targets.is_empty(), "permutation test needs a target");
        let d = dims[targets[0]];
        assert!(
            targets.iter().all(|&t| dims[t] == d),
            "permutation test registers must have equal dimension"
        );
        let classes = symmetric_classes(d, targets.len());
        KernelPlan::for_classes(dims, targets, &classes)
    }

    /// Compiles a monomial embedded-trace plan: the gather index list of
    /// `tr(embed(A)·M)` for the monomial block operator
    /// `A[r, src[r]] = phase[r]`.
    ///
    /// # Panics
    ///
    /// Panics on target errors or if `src`/`phase` do not have one entry per
    /// target-block index.
    pub fn for_monomial_trace(
        dims: &[usize],
        targets: &[usize],
        src: &[usize],
        phase: &[Complex],
    ) -> KernelPlan {
        let plan = KernelPlan::base(dims, targets, Body::Layout);
        let block = plan.layout.block;
        assert_eq!(src.len(), block, "monomial source map length mismatch");
        assert_eq!(phase.len(), block, "monomial phase vector length mismatch");
        assert!(
            src.iter().all(|&s| s < block),
            "monomial source index out of range"
        );
        let unit_phase = phase.iter().all(|&p| p == Complex::ONE);
        let fwd = OpData::Monomial {
            src: src.to_vec(),
            phase_re: phase.iter().map(|p| p.re).collect(),
            phase_im: phase.iter().map(|p| p.im).collect(),
            unit_phase,
        };
        let full_src = plan.build_full_src(&fwd);
        KernelPlan {
            body: Body::Op {
                fwd,
                adj: None,
                full_src,
            },
            ..plan
        }
    }

    /// Compiles a full-register subsystem permutation (the metadata of
    /// `PureState::permute_subsystems`): subsystem `perm[k]` of the source
    /// becomes subsystem `k` of the destination. The plan's `targets` record
    /// `perm`.
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a permutation of `0..dims.len()`.
    pub fn for_subsystem_permutation(dims: &[usize], perm: &[usize]) -> KernelPlan {
        let n = dims.len();
        assert_eq!(perm.len(), n, "permutation length mismatch");
        let mut seen = vec![false; n];
        for &p in perm {
            assert!(p < n && !seen[p], "invalid subsystem permutation");
            seen[p] = true;
        }
        let new_dims: Vec<usize> = perm.iter().map(|&p| dims[p]).collect();
        // Old subsystem p lands at new position inv[p]; walking the old flat
        // index with an odometer, each old digit p contributes with weight
        // new_strides[inv[p]] to the new flat index.
        let mut inv = vec![0usize; n];
        for (k, &p) in perm.iter().enumerate() {
            inv[p] = k;
        }
        let new_strides = kernels::subsystem_strides(&new_dims);
        let weights: Vec<usize> = (0..n).map(|p| new_strides[inv[p]]).collect();
        note_compile();
        KernelPlan {
            dims: dims.into(),
            targets: perm.into(),
            total: total_dim(dims),
            // The permutation executor runs its own odometer over `weights`;
            // a real layout (whose base walk would materialise all
            // `total_dim` indices) would be dead weight, so a trivial one
            // stands in.
            layout: kernels::trivial_layout(),
            body: Body::Permute { weights, new_dims },
        }
    }

    fn assert_op_shape(&self, op: &CMatrix) {
        let block = self.layout.block;
        assert!(
            op.rows() == block && op.cols() == block,
            "operator dimension mismatch: got {}x{}, expected {block}x{block}",
            op.rows(),
            op.cols(),
        );
    }

    /// Subsystem dimensions the plan was compiled for.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Target subsystems the plan was compiled for (for a subsystem
    /// permutation plan: the permutation).
    pub fn targets(&self) -> &[usize] {
        &self.targets
    }

    /// Total register dimension (product of `dims`).
    pub fn total_dim(&self) -> usize {
        self.total
    }

    /// Product of the target dimensions.
    pub fn block(&self) -> usize {
        self.layout.block
    }

    pub(crate) fn lay(&self) -> &TargetLayout {
        &self.layout
    }

    pub(crate) fn op_fwd(&self) -> &OpData {
        match &self.body {
            Body::Op { fwd, .. } => fwd,
            _ => panic!("plan does not carry an operator"),
        }
    }

    pub(crate) fn op_adj(&self) -> &OpData {
        match &self.body {
            Body::Op { adj: Some(adj), .. } => adj,
            Body::Op { adj: None, .. } => panic!("plan was not compiled for conjugation"),
            _ => panic!("plan does not carry an operator"),
        }
    }

    pub(crate) fn monomial_full_src(&self) -> Option<&[usize]> {
        match &self.body {
            Body::Op { full_src, .. } => full_src.as_deref(),
            _ => None,
        }
    }

    pub(crate) fn kraus_ops(&self) -> &[(OpData, OpData)] {
        match &self.body {
            Body::Kraus { ops } => ops,
            _ => panic!("plan does not carry Kraus operators"),
        }
    }

    pub(crate) fn class_data(&self) -> &ClassData {
        match &self.body {
            Body::Classes(data) => data,
            _ => panic!("plan does not carry class-projection tables"),
        }
    }

    pub(crate) fn permute_data(&self) -> (&[usize], &[usize]) {
        match &self.body {
            Body::Permute { weights, new_dims } => (weights, new_dims),
            _ => panic!("plan does not carry a subsystem permutation"),
        }
    }
}

/// Caller-owned mutable scratch of the plan executors: gather planes and
/// class-sum accumulators, resized on demand and reused across calls so a
/// steady-state loop performs no allocation at all.
#[derive(Default)]
pub struct PlanScratch {
    pub(crate) gather: kernels::Scratch,
    pub(crate) sums: kernels::Scratch,
}

impl PlanScratch {
    /// Creates an empty scratch (buffers grow on first use).
    pub fn new() -> PlanScratch {
        PlanScratch::default()
    }
}

// ---------------------------------------------------------------------------
// The plan cache: one lock, scanned under it.
// ---------------------------------------------------------------------------

struct CacheEntry {
    dims: Box<[usize]>,
    targets: Box<[usize]>,
    plan: Arc<KernelPlan>,
}

struct PlanCache {
    entries: Vec<CacheEntry>,
    hits: u64,
    misses: u64,
}

static CACHE: Mutex<PlanCache> = Mutex::new(PlanCache {
    entries: Vec::new(),
    hits: 0,
    misses: 0,
});

/// Locks the plan cache, recovering from poisoning: an entry is pushed only
/// after its plan compiled, so a compile that panicked left no torn entry.
fn lock_cache() -> MutexGuard<'static, PlanCache> {
    CACHE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The memoised `S_k` digit-orbit class plan of `(dims, targets)` — the
/// plan behind every SWAP/permutation-test acceptance and effect on these
/// registers. Compiled on first use, under the cache lock.
///
/// # Panics
///
/// As [`KernelPlan::for_symmetric`].
pub fn cached_symmetric(dims: &[usize], targets: &[usize]) -> Arc<KernelPlan> {
    let mut cache = lock_cache();
    let found = cache
        .entries
        .iter()
        .find(|e| *e.dims == *dims && *e.targets == *targets)
        .map(|e| e.plan.clone());
    if let Some(plan) = found {
        cache.hits += 1;
        return plan;
    }
    cache.misses += 1;
    let plan = Arc::new(KernelPlan::for_symmetric(dims, targets));
    cache.entries.push(CacheEntry {
        dims: dims.into(),
        targets: targets.into(),
        plan: plan.clone(),
    });
    plan
}

// ---------------------------------------------------------------------------
// S_k metadata memos: the single source of truth (PR 5 dedup).
// ---------------------------------------------------------------------------

/// The `S_k` digit-orbit partition of the block indices `0..d^k`: two block
/// indices are in the same class iff their base-`d` digit strings are
/// permutations of each other. This is the one process-wide memo of the
/// partition; [`crate::permutation::symmetric_classes`] delegates here.
pub fn symmetric_classes(d: usize, k: usize) -> Arc<BlockClasses> {
    type ClassesCache = Mutex<HashMap<(usize, usize), Arc<BlockClasses>>>;
    static CACHE: OnceLock<ClassesCache> = OnceLock::new();
    let mut cache = CACHE
        .get_or_init(|| Mutex::new(HashMap::new()))
        .lock()
        .expect("symmetric-classes cache poisoned");
    cache
        .entry((d, k))
        .or_insert_with(|| Arc::new(build_symmetric_classes(d, k)))
        .clone()
}

fn build_symmetric_classes(d: usize, k: usize) -> BlockClasses {
    let dims = vec![d; k];
    let total: usize = d.pow(k as u32);
    let mut key_to_class: HashMap<Vec<usize>, usize> = HashMap::new();
    let mut class_of = Vec::with_capacity(total);
    let mut class_size: Vec<usize> = Vec::new();
    for b in 0..total {
        let mut digits = unflatten_index(&dims, b);
        digits.sort_unstable();
        let next = class_size.len();
        let c = *key_to_class.entry(digits).or_insert(next);
        if c == class_size.len() {
            class_size.push(0);
        }
        class_size[c] += 1;
        class_of.push(c);
    }
    BlockClasses {
        class_of,
        class_size,
    }
}

/// The block-monomial source map of the register-permutation unitary `U_π`
/// on `k` registers of dimension `d`: `src[row] = col` where
/// `U_π[row, col] = 1`. Memoised process-wide per `(d, π)` — the one home of
/// the permutation monomial metadata previously rebuilt per call.
pub fn permutation_src(d: usize, perm: &[usize]) -> Arc<Vec<usize>> {
    type SrcCache = Mutex<HashMap<(usize, Vec<usize>), Arc<Vec<usize>>>>;
    static CACHE: OnceLock<SrcCache> = OnceLock::new();
    let mut cache = CACHE
        .get_or_init(|| Mutex::new(HashMap::new()))
        .lock()
        .expect("permutation-src cache poisoned");
    cache
        .entry((d, perm.to_vec()))
        .or_insert_with(|| Arc::new(build_permutation_src(d, perm)))
        .clone()
}

fn build_permutation_src(d: usize, perm: &[usize]) -> Vec<usize> {
    let k = perm.len();
    let dims = vec![d; k];
    let total: usize = d.pow(k as u32);
    let mut inv = vec![0usize; k];
    for (i, &p) in perm.iter().enumerate() {
        inv[p] = i;
    }
    let mut src = vec![0usize; total];
    let mut permuted = vec![0usize; k];
    for col in 0..total {
        let multi = unflatten_index(&dims, col);
        for slot in 0..k {
            permuted[slot] = multi[inv[slot]];
        }
        let row = flat_index(&dims, &permuted);
        src[row] = col;
    }
    src
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cached_plans_are_shared_and_keyed_exactly() {
        let a = cached_symmetric(&[2, 3, 2], &[0, 2]);
        let b = cached_symmetric(&[2, 3, 2], &[0, 2]);
        assert!(Arc::ptr_eq(&a, &b), "same key must return the same plan");
        // Different target order is a different plan (offset order differs).
        let c = cached_symmetric(&[2, 3, 2], &[2, 0]);
        assert!(!Arc::ptr_eq(&a, &c), "distinct keys must not alias");
        // Same flattened content, different split: must not alias either.
        let d = cached_symmetric(&[2, 3], &[0]);
        let e = cached_symmetric(&[2], &[0]);
        assert!(!Arc::ptr_eq(&d, &e));
        assert_eq!(a.block(), 4);
        assert_eq!(d.total_dim(), 6);
    }

    #[test]
    fn symmetric_plan_requires_equal_dims() {
        let ok = cached_symmetric(&[3, 2, 3], &[0, 2]);
        assert_eq!(ok.block(), 9);
        let err = std::panic::catch_unwind(|| KernelPlan::for_symmetric(&[3, 2, 3], &[0, 1]));
        assert!(err.is_err(), "unequal dims must panic");
    }

    #[test]
    fn compile_counter_advances_on_compiles_only() {
        let before = compile_count();
        let _plan = KernelPlan::for_layout(&[2, 2], &[0]);
        assert!(compile_count() > before);
        // A cache hit performs no compilation.
        let _ = cached_symmetric(&[5, 5], &[1]);
        let mid = compile_count();
        let _ = cached_symmetric(&[5, 5], &[1]);
        assert_eq!(compile_count(), mid, "cache hits must not compile");
    }

    #[test]
    fn permutation_src_matches_operator_definition() {
        use crate::permutation::permutation_operator;
        for (d, perm) in [(2usize, vec![1usize, 0]), (3, vec![1, 2, 0])] {
            let src = permutation_src(d, &perm);
            let u = permutation_operator(d, &perm);
            for (row, &s) in src.iter().enumerate() {
                assert_eq!(u.at(row, s), Complex::ONE, "d={d} perm={perm:?} row={row}");
            }
        }
    }
}
