//! # qsim — exact quantum simulation substrate for distributed verification
//!
//! This crate is the quantum-information substrate used by the `dqma` crate
//! to simulate the distributed quantum Merlin–Arthur (dQMA) protocols of
//! *Hasegawa, Kundu, Nishimura — "On the Power of Quantum Distributed
//! Proofs"* (PODC 2024). It provides:
//!
//! * complex linear algebra ([`CVector`], [`CMatrix`], Hermitian
//!   eigendecomposition in [`linalg::eigen`]);
//! * pure states ([`PureState`]) and density matrices ([`DensityMatrix`]) over
//!   composite registers of arbitrary per-subsystem dimension;
//! * standard gates and register-level unitaries ([`gates`]);
//! * measurements and POVMs ([`measure`]);
//! * the distance measures used in the paper's soundness analyses
//!   ([`distance`]: trace distance, fidelity, Fuchs–van de Graaf);
//! * the SWAP test and the permutation test ([`swap_test`], [`permutation`]),
//!   with the symmetric-subspace-projector semantics analysed in Lemmas
//!   13–16 of the paper but executed matrix-free (see **Performance** below);
//! * seeded random states and unitaries ([`random`]).
//!
//! The simulator is exact (state vectors / density matrices), which is the
//! appropriate substitute for the paper's idealised quantum nodes: all
//! statements in the paper are about acceptance probabilities, which exact
//! simulation reproduces up to floating-point error.
//!
//! # Performance
//!
//! Gate application is the hot path of every protocol sweep, and it runs
//! through the strided in-place kernels of [`kernels`]:
//!
//! * **Split re/im (SoA) storage** — [`CMatrix`], [`CVector`], [`PureState`]
//!   and [`DensityMatrix`] keep their complex data as two separate `f64`
//!   planes ([`linalg::SplitBuffer`]) instead of one interleaved
//!   `Vec<Complex>`. Invariants: the planes always have equal length,
//!   element `i` is `re[i] + i·im[i]`, and matrices lay each plane out
//!   row-major, so a matrix row is contiguous *in both planes*. Every hot
//!   kernel is written as a pair of plain `f64` multiply-add loops over the
//!   planes — no per-element `Complex` temporaries — which LLVM
//!   autovectorises where the interleaved layout forced shuffles. Entries
//!   are read by value (`at`) and written with `set`; the interleaved
//!   representation survives only at explicit boundaries
//!   (`to_complex_vec`/`CVector::new`) and inside [`naive`], which stays on
//!   AoS storage as the oracle the SoA kernels are pinned against (the
//!   `soa_*` cases of `tests/kernel_equivalence.rs`, at 1e-12). Structured
//!   fast paths dispatch on the operator: unrolled 2×2 register updates
//!   (both left and transposed action, plus a two-row streaming matrix
//!   update), copy-only scatter for unit-phase permutations, and split
//!   diagonal/monomial phase multiplies.
//!
//! * **State vectors** — `PureState::apply_unitary` precomputes per-target
//!   flat-index offsets once per call, walks the non-target subsystems with
//!   an incremental odometer (no per-amplitude heap allocation, no
//!   full-vector clone) and gathers/scatters each target block in place:
//!   `O(D · block)` for a `D`-dimensional register and a `block`-dimensional
//!   operator, with an unrolled fast path for single-qubit gates.
//! * **Density matrices** — `DensityMatrix::apply_unitary` conjugates
//!   `ρ → U ρ U†` directly as a strided left multiplication over row blocks
//!   plus a strided right multiplication over rows: `O(D² · block)` instead
//!   of the naive embed-then-matmul `O(D³)`, and the `D×D` embedded operator
//!   is never materialised.
//! * **Structured operators** — diagonal operators (phase gates, classical
//!   acceptance effects) and monomial operators (SWAP, register
//!   permutations, X) are detected structurally and applied in `O(D)`.
//! * **Matrix-free measurements** — the SWAP and permutation tests (the hot
//!   path of every protocol in the paper) never build the `d^k × d^k`
//!   symmetric-subspace projector. Acceptance probabilities are evaluated as
//!   `tr(Π_sym ρ) = (1/k!) Σ_π tr(embed(U_π) ρ)`: each `U_π` is monomial, so
//!   each term is an `O(D)` gather over permuted index pairs
//!   ([`kernels::monomial_embedded_trace_with`]), and the sum is regrouped
//!   by `S_k` digit orbit ([`kernels::class_projection_trace_with`]) so at most
//!   `k!·D` — and typically far fewer — entries are visited, with zero
//!   projector allocation. The post-measurement effects `Π_sym ρ Π_sym` and
//!   `(I−Π_sym) ρ (I−Π_sym)` run as in-place register symmetrisation — class
//!   averaging over the digit orbits ([`permutation::symmetric_classes`],
//!   memoised `O(d^k)` metadata) through the stride machinery — in `O(D²)`
//!   with no `k!` or `block` factor, versus `O(k!·D²)` construction plus an
//!   `O(D²·block)` dense conjugation for the pre-existing dense path. Pure
//!   states get the same treatment in `O(D)`
//!   ([`permutation::permutation_test_on_pure`]), and products of pure
//!   states use Gram-matrix closed forms so joint states are never formed.
//!   The dense-projector paths survive in [`naive`] (with a small projector
//!   memo) as equivalence-test oracles and benchmark baselines; the
//!   `bench_protocols` bench tracks the speedup in `BENCH_protocols.json`.
//! * **Dense algebra** — `CMatrix::matmul` is cache-blocked (tiles over the
//!   inner and column dimensions with a contiguous vectorisable axpy core),
//!   which feeds the remaining genuinely-dense work in [`linalg::eigen`] and
//!   [`distance`].
//! * **Compiled kernel plans** — every piece of metadata the kernels above
//!   derive per call (strided target layouts, the structural classification
//!   of the operator, `S_k` digit-orbit class tables with their projection
//!   gather maps, monomial trace index lists) is compiled once into a
//!   [`plan::KernelPlan`] keyed by `(dims, targets, operator structure)`.
//!   The kernels proper are the `kernels::*_with` executors taking
//!   `&KernelPlan` plus a caller-owned [`plan::PlanScratch`]: zero
//!   derivation, zero allocation per call. Plans are compiled explicitly and
//!   **embedded in protocol round plans** (the batched samplers in `dqma` do
//!   this, so their steady-state rounds perform zero compilations —
//!   [`plan::compile_count`] lets benchmarks assert it), or fetched from the
//!   **plan cache** ([`plan::cached_symmetric`], one mutex-guarded entry
//!   list) used by the per-call measurement entry points in [`swap_test`]
//!   and [`permutation`]. One-shot entry points compile a
//!   fresh plan per call and run its executor, and the `S_k` orbit/permutation
//!   metadata previously derived independently by `swap_test`, `permutation`
//!   and the kernels is memoised once in [`plan`]
//!   ([`plan::symmetric_classes`], [`plan::permutation_src`]).
//! * **Vectorisation (`simd` feature)** — [`simd`] holds explicit
//!   `std::arch` AVX2 (f64×4) executors for the two hot shapes left after
//!   plan compilation: the *trial lane walks* of the `dqma` batched engine
//!   (per-node chain-table selects, tree-node gathers and acceptance
//!   comparisons over a lane batch of trials in lockstep) and the *split
//!   re/im plane kernels* of the mixed-proof executors (complex scalar ×
//!   row for frontier tensoring, plane axpy for traced class projection,
//!   gather-blend symmetrisation, and the quadratic-form row dot). Every
//!   entry point carries an always-compiled **scalar oracle** defining the
//!   reference semantics; the AVX2 twins are runtime-dispatched via
//!   `is_x86_feature_detected!` and constructed to be **bit-identical**, not
//!   approximately equal (lane-wise IEEE operations in oracle order, exact
//!   gathers, no FMA contraction, and a fixed four-partial reduction
//!   contract for the one genuine dot product — see the [`simd`] module
//!   docs). Monte-Carlo randomness comes from counter-based per-trial
//!   streams ([`random::CounterRng`]): each trial's draws are a pure
//!   function of `(seed, block, trial)`, so accept counts are invariant
//!   across lane widths, worker counts and the scalar/SIMD switch, and
//!   [`simd::set_enabled`] lets one process time both paths for same-run
//!   `speedup_simd_vs_scalar` bench columns.
//! * **No threads** — every kernel runs on its caller's thread. The batched
//!   trial engine of the `dqma` crate spreads blocks of trials over scoped
//!   threads itself, at the width its caller passes.
//!
//! The pre-kernel implementations survive in [`naive`] as reference oracles:
//! randomized property tests pin the kernels to them within `1e-12`, and the
//! `bench_qsim` benchmark (crate `dqma_bench`) tracks the speedup — of the
//! order of 10–100× on the shapes the protocols use — in `BENCH_qsim.json`.
//!
//! # Example
//!
//! ```
//! use qsim::{PureState, gates, swap_test};
//!
//! // The SWAP test accepts identical states with certainty ...
//! let mut plus = PureState::single(2, 0);
//! plus.apply_unitary(&[0], &gates::hadamard());
//! assert!((swap_test::swap_test_acceptance_pure(&plus, &plus) - 1.0).abs() < 1e-12);
//!
//! // ... and orthogonal states with probability 1/2.
//! let zero = PureState::single(2, 0);
//! let one = PureState::single(2, 1);
//! assert!((swap_test::swap_test_acceptance_pure(&zero, &one) - 0.5).abs() < 1e-12);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
// `unsafe` lives only in `simd`, which opts back in for the AVX2
// intrinsics.
#![deny(unsafe_code)]
#![deny(clippy::undocumented_unsafe_blocks)]

pub mod complex;
pub mod density;
pub mod distance;
pub mod gates;
pub mod kernels;
pub mod linalg;
pub mod measure;
pub mod naive;
pub mod noise;
pub mod permutation;
pub mod plan;
pub mod random;
pub mod simd;
pub mod state;
pub mod swap_test;

pub use complex::Complex;
pub use density::{embed_operator, DensityMatrix};
pub use distance::{fidelity, fidelity_pure, trace_distance, trace_distance_pure};
pub use linalg::{CMatrix, CVector};
pub use measure::Povm;
pub use random::RandomStateGenerator;
pub use state::PureState;
