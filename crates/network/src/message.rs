//! The message vocabulary of the decentralized PDMS.
//!
//! Two families of messages circulate in the system:
//!
//! * **queries** — ordinary PDMS traffic; in the lazy schedule a peer only sends its
//!   belief messages in a round in which a query passes through it;
//! * **belief messages** — the remote messages of the embedded sum-product scheme
//!   (`µ_{p0 → fak}(mi)` in Section 4.3).
//!
//! The payloads carry plain identifiers and probability pairs rather than references,
//! mimicking what would actually be serialised on a wire.

use pdms_schema::PeerId;

/// A remote belief message about one position of a feedback factor, exchanged between
/// peers.
///
/// `mu_correct` / `mu_incorrect` are the (normalised) components of
/// `µ_{p → fa}(m)`: the product of all factor→variable messages for the mapping `m` at
/// `position` except the one coming from the feedback factor `fa` itself.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BeliefPayload {
    /// Identifier of the feedback evidence (cycle / parallel path) the message is
    /// directed at, as assigned by the cycle analysis.
    pub evidence: usize,
    /// Position, in the evidence's scope, of the mapping variable the message is about.
    pub position: usize,
    /// Message weight for the `correct` state.
    pub mu_correct: f64,
    /// Message weight for the `incorrect` state.
    pub mu_incorrect: f64,
}

/// What a message carries.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// An ordinary query posed at a peer and forwarded to a neighbour.
    Query {
        /// Identifier assigned by the originator.
        query_id: u64,
        /// The peer that posed the query.
        origin: PeerId,
    },
    /// A standalone belief message.
    Belief(BeliefPayload),
}

impl Payload {
    /// Every kind label, indexed by [`Payload::kind_index`].
    pub(crate) const KINDS: [&'static str; 2] = ["belief", "query"];

    /// Index of this payload's kind in [`Payload::KINDS`].
    pub(crate) fn kind_index(&self) -> usize {
        match self {
            Payload::Belief(_) => 0,
            Payload::Query { .. } => 1,
        }
    }
}

/// A message in flight: payload plus addressing.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// Sending peer.
    pub from: PeerId,
    /// Receiving peer.
    pub to: PeerId,
    /// Simulated round at which the message becomes deliverable.
    pub deliver_at: u64,
    /// The payload.
    pub payload: Payload,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_preserves_addressing() {
        let e = Envelope {
            from: PeerId(1),
            to: PeerId(2),
            deliver_at: 5,
            payload: Payload::Belief(BeliefPayload {
                evidence: 2,
                position: 0,
                mu_correct: 0.7,
                mu_incorrect: 0.3,
            }),
        };
        assert_eq!(e.from, PeerId(1));
        assert_eq!(e.to, PeerId(2));
        assert!(matches!(e.payload, Payload::Belief(_)));
    }
}
