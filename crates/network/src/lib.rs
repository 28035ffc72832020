//! The wire of the decentralized PDMS: messages, a lossy transport and its counters.
//!
//! The paper embeds its inference scheme into the *normal operation* of a Peer Data
//! Management System (Section 4): peers exchange belief messages either periodically
//! or when query traffic passes through them, and may lose or delay messages without
//! endangering convergence (Section 5.1.3, Figure 11).
//!
//! This crate provides the transport for those experiments:
//!
//! * [`message`] — the wire-level message vocabulary (queries and remote belief
//!   messages);
//! * [`transport`] — an in-memory transport with configurable loss probability, delay,
//!   and delivery statistics;
//! * [`stats`] — counters for communication-overhead reporting.
//!
//! The transport knows nothing about probabilistic inference: `pdms-core`'s
//! `DecentralizedRun` keeps every peer's message-passing state and drives the
//! transport round by round.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod message;
pub mod stats;
pub mod transport;

pub use message::{BeliefPayload, Envelope, Payload};
pub use stats::NetworkStats;
pub use transport::{Transport, TransportConfig};
