//! # commproto — communication-complexity substrate for dQMA protocols
//!
//! The dQMA protocols of *Hasegawa, Kundu, Nishimura — "On the Power of
//! Quantum Distributed Proofs"* (PODC 2024) are built on top of two-party
//! communication-complexity machinery. This crate provides that substrate:
//!
//! * the decision problems of the paper (EQ, GT, HAM≤d, DISJ, IP, LTF-XOR,
//!   ranking verification, the `∀t f` lift) — [`problems`];
//! * 1-fooling sets, which parameterise both the classical and the quantum
//!   lower bounds — [`fooling`];
//! * quantum fingerprints from a seeded linear code — [`fingerprint`];
//! * one-way quantum communication protocols (the EQ protocol π and Hamming
//!   sketches) — [`one_way`];
//! * QMA communication protocols, their one-way purified form, and cost
//!   accounting — [`qma`];
//! * the Linear Subspace Distance problem and its `O(log m)` QMA one-way
//!   protocol — [`lsd`];
//! * discrepancy-style lower-bound certificates — [`sdisc`].
//!
//! # Example
//!
//! ```
//! use commproto::{bitstring::BitString, one_way::{EqOneWay, OneWayProtocol}};
//!
//! let proto = EqOneWay::for_input_len(6, 42);
//! let x = BitString::from_str01("101100");
//! // Perfect completeness on equal inputs, bounded acceptance otherwise.
//! assert!((proto.honest_accept_probability(&x, &x) - 1.0).abs() < 1e-10);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod bitstring;
pub mod fingerprint;
pub mod fooling;
pub mod lsd;
pub mod one_way;
pub mod problems;
pub mod qma;
pub mod sdisc;

pub use bitstring::BitString;
pub use fingerprint::FingerprintScheme;
pub use fooling::FoolingSet;
pub use one_way::{EqOneWay, OneWayProtocol};
pub use problems::{MultiPartyFunction, TwoPartyFunction};
pub use qma::{QmaCosts, QmaOneWayProtocol};
