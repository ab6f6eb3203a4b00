//! # netsim — network substrate for distributed verification protocols
//!
//! The dQMA protocols of *Hasegawa, Kundu, Nishimura — "On the Power of
//! Quantum Distributed Proofs"* (PODC 2024) run on a connected network of
//! verifier nodes. This crate provides:
//!
//! * the graph model with the metric quantities entering every bound
//!   (radius, eccentricities, distances) — [`graph`];
//! * standard topologies: paths, stars, spiders, grids, random trees and
//!   connected random graphs — [`topology`];
//! * the spanning-tree construction of the paper's Section 3.3 (root at the
//!   most central terminal, terminals as leaves, depth ≤ r + 1) and the
//!   Lemma 18 proof-labelling scheme that lets nodes verify an announced
//!   tree — [`tree`];
//! * cost accounting for proofs and messages matching Definitions 5–8 —
//!   [`transcript`];
//! * a message-passing transport layer with deterministic fault injection —
//!   [`transport`] — and the same envelopes over real sockets, one node per
//!   process — [`tcp`].
//!
//! # Transport and fault model
//!
//! The [`transport`] module replaces the synchronous in-process transcript
//! model with genuine per-node message passing: protocols exchange
//! sequence-numbered [`transport::Envelope`]s (`src`, `dst`, `seq`,
//! `attempt`, 64-bit payload) over a [`transport::Transport`] — in-memory
//! mailboxes ([`transport::LocalChannelTransport`]), optionally wrapped in a
//! seeded [`transport::FaultyTransport`] that injects drops,
//! acknowledgement loss, latency/reordering, duplication, partitions and
//! node crash/restart from a [`transport::FaultPlan`], or real sockets
//! between one-node processes ([`tcp::TcpTransport`]). Delivery is
//! idempotent (receivers deduplicate on `(src, seq)`), timeouts and
//! exponential-backoff retries run on a *virtual* clock, and every fault
//! decision is a pure hash of the trial salt and the message identity — so a
//! trial is bit-reproducible at any worker count. Rounds that exhaust their
//! retry budget degrade gracefully to
//! [`transport::RoundOutcome::Aborted`] with a [`transport::FaultReport`]
//! carrying the partial [`CostTracker`] state of the affected verifier.
//!
//! # Example
//!
//! ```
//! use netsim::{topology, tree::TerminalTree};
//!
//! // Terminals on three legs of a spider; all of them become leaves of the
//! // announced tree and the depth stays within radius + 1.
//! let g = topology::spider(3, 2);
//! let terminals: Vec<usize> = (0..3).map(|k| topology::spider_leaf(k, 2)).collect();
//! let t = TerminalTree::build(&g, &terminals);
//! assert!(t.max_depth() <= g.radius() + 1 + 2);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod graph;
pub mod policy;
pub mod tcp;
pub mod topology;
pub mod transcript;
pub mod transport;
pub mod tree;

pub use graph::Graph;
pub use policy::RetryPolicy;
pub use tcp::TcpTransport;
pub use transcript::{CostTracker, ProtocolCosts};
pub use transport::{
    CrashWindow, Envelope, FaultCause, FaultPlan, FaultReport, FaultyTransport,
    LocalChannelTransport, NodeId, PartitionWindow, RoundOutcome, Transport, VTime,
};
pub use tree::{SpanningTree, TerminalTree, TreeLabel};
