//! # dqma — distributed quantum Merlin–Arthur verification protocols
//!
//! A faithful, executable reproduction of *Hasegawa, Kundu, Nishimura — "On
//! the Power of Quantum Distributed Proofs"* (PODC 2024, arXiv:2403.14108).
//! In a dQMA protocol an untrusted prover sends quantum proofs to the nodes of
//! a network; the nodes exchange messages for a constant number of rounds and
//! each accepts or rejects, so that yes-instances can be made to convince
//! every node while no-instances alarm at least one of them.
//!
//! The crate implements, on top of the exact simulator in [`qsim`], the
//! network substrate in [`netsim`] and the communication-complexity substrate
//! in [`commproto`]:
//!
//! * [`chain`] — the SWAP-test relay chain shared by all path protocols,
//!   including exact separable-proof acceptance and the spectral (optimal
//!   entangled prover) soundness;
//! * [`eq_path`] — the improved EQ protocol `Pπ[k]` on paths (§3.2);
//! * [`eq_tree`] — EQ on general graphs with the permutation test (§3.3,
//!   Theorem 19);
//! * [`relay`] — the relay-point protocol with `Õ(r·n^{2/3})` total proof
//!   (§4.1, Theorem 22);
//! * [`gt`] — the greater-than protocol and its variants (§5.1, Theorem 26);
//! * [`ranking`] — ranking verification (§5.2, Theorem 29);
//! * [`forall`] — the Hamming distance and general `∀t f` lifts (§6,
//!   Theorems 30 and 32);
//! * [`from_qmacc`] — dQMA protocols from QMA one-way communication protocols
//!   and the dQMAsep constructions (§7, Theorems 42 and 46);
//! * [`dma`] — classical dMA baselines and the cut-and-paste fooling attack
//!   behind the `Ω(r·n)` classical lower bound (§4.2);
//! * [`lower_bounds`] — the paper's dQMA lower bounds (§8) as formulas plus
//!   executable attacks;
//! * [`net`] — per-node round executors over the fault-injecting
//!   message-passing transport of [`netsim::transport`]: the four protocol
//!   round paths re-expressed as per-node programs with retry/timeout/
//!   backoff, graceful degradation to [`netsim::RoundOutcome::Aborted`], and
//!   block-deterministic fault-sweep sampling;
//! * [`trials`] — the batched zero-allocation Monte-Carlo trial engine: each
//!   protocol compiles an instance once into a round plan (`round_plan`),
//!   and [`trials::run_trials_with_workers`] dispatches fixed-size trial
//!   blocks of it over as many [`qsim::pool`] workers as the caller asks
//!   for, with counter-derived per-block RNG streams (accept counts
//!   bit-identical at any worker count), returning a
//!   [`trials::TrialReport`] with Wilson/Hoeffding intervals and
//!   rounds/sec;
//! * [`service`] — the overload-hardened verification service behind
//!   `dqma-server`/`dqma-cli`: one facade over instance construction and
//!   sampling, with a bounded admission queue (explicit shedding), per-job
//!   deadlines folded into partial reports, a crash-recovery journal built
//!   on the 8192-trial block-determinism contract, shared trial blocks
//!   across same-instance jobs, and a hand-rolled hardened HTTP/JSON layer.
//!
//! # Quickstart
//!
//! ```
//! use commproto::bitstring::BitString;
//! use commproto::fingerprint::FingerprintScheme;
//! use dqma::chain::ChainCheat;
//! use dqma::eq_path::EqPathProtocol;
//!
//! // EQ on a path of length 3 with 4-bit inputs.
//! let protocol = EqPathProtocol::with_scheme(3, FingerprintScheme::small(4, 40), 8);
//! let x = BitString::from_str01("1010");
//! let y = BitString::from_str01("0110");
//!
//! // Equal inputs: every node accepts with certainty.
//! assert!((protocol.completeness(&x) - 1.0).abs() < 1e-10);
//!
//! // Different inputs: even a prover that interpolates fingerprints along the
//! // path is caught with constant probability after repetition.
//! let cheating = protocol.repeated_acceptance(&x, &y, ChainCheat::Interpolate);
//! assert!(cheating < 1.0 / 3.0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod adversary;
pub mod chain;
pub mod cluster;
pub mod dma;
pub mod eq_path;
pub mod eq_tree;
pub mod forall;
pub mod from_qmacc;
pub mod gt;
pub mod lower_bounds;
pub mod net;
pub mod noise;
pub mod ranking;
pub mod relay;
pub mod service;
pub mod trials;

pub use chain::{ChainCheat, SwapTestChain};
pub use cluster::{ChurnSchedule, Cluster, ClusterConfig, ClusterReport, ProgramSpec};
pub use eq_path::EqPathProtocol;
pub use eq_tree::EqTreeProtocol;
pub use forall::ForAllProtocol;
pub use from_qmacc::QmaccPathProtocol;
pub use gt::GtPathProtocol;
pub use ranking::RankingProtocol;
pub use relay::RelayEqProtocol;
pub use service::{InstanceSpec, JobSpec, JobStatus, Service, ServiceConfig};
pub use trials::TrialReport;
