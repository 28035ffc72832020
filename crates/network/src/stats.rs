//! Communication statistics.
//!
//! The paper argues that the periodic schedule costs at most `Σ_ci (l_ci − 1)` extra
//! messages per peer per period, and that the lazy schedule adds none because belief
//! messages piggyback on query traffic. These counters put numbers on the messages a
//! run actually sends, per kind: `pdms-core`'s `DecentralizedRun` sends every belief
//! message as a standalone message under both schedules, so a lazy run's `"belief"`
//! count is not zero; it only grows more slowly, with the query load.

use crate::message::Payload;

const KINDS: [&str; 2] = Payload::KINDS;

/// Counters per payload kind plus totals.
#[derive(Debug, Clone, Default)]
pub struct NetworkStats {
    sent: [u64; KINDS.len()],
    delivered: [u64; KINDS.len()],
    dropped: [u64; KINDS.len()],
}

impl NetworkStats {
    /// Records an attempted send.
    pub fn record_sent(&mut self, payload: &Payload) {
        self.sent[payload.kind_index()] += 1;
    }

    /// Records a delivery.
    pub fn record_delivered(&mut self, payload: &Payload) {
        self.delivered[payload.kind_index()] += 1;
    }

    /// Records a message lost by the transport.
    pub fn record_dropped(&mut self, payload: &Payload) {
        self.dropped[payload.kind_index()] += 1;
    }

    /// Total messages sent (all kinds).
    pub fn sent_total(&self) -> u64 {
        self.sent.iter().sum()
    }

    /// Total messages delivered.
    pub fn delivered_total(&self) -> u64 {
        self.delivered.iter().sum()
    }

    /// Total messages dropped.
    pub fn dropped_total(&self) -> u64 {
        self.dropped.iter().sum()
    }

    /// Messages sent of one kind (`"query"` or `"belief"`; 0 for any other label).
    pub fn sent_of(&self, kind: &str) -> u64 {
        Self::count(&self.sent, kind)
    }

    fn count(counters: &[u64; KINDS.len()], kind: &str) -> u64 {
        KINDS
            .iter()
            .position(|&k| k == kind)
            .map_or(0, |i| counters[i])
    }

    /// Renders the counters as a small table for reports: one line per kind sent at
    /// least once.
    pub fn summary(&self) -> String {
        let mut out = String::from("kind            sent  delivered  dropped\n");
        for (i, kind) in KINDS.iter().enumerate() {
            if self.sent[i] > 0 {
                out.push_str(&format!(
                    "{:<14} {:>6} {:>10} {:>8}\n",
                    kind, self.sent[i], self.delivered[i], self.dropped[i]
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::BeliefPayload;
    use pdms_schema::PeerId;

    fn belief() -> Payload {
        Payload::Belief(BeliefPayload {
            evidence: 0,
            position: 0,
            mu_correct: 0.5,
            mu_incorrect: 0.5,
        })
    }

    fn query() -> Payload {
        Payload::Query {
            query_id: 1,
            origin: PeerId(0),
        }
    }

    #[test]
    fn counters_accumulate_by_kind() {
        let mut s = NetworkStats::default();
        s.record_sent(&belief());
        s.record_sent(&belief());
        s.record_sent(&query());
        s.record_delivered(&belief());
        s.record_dropped(&belief());
        assert_eq!(s.sent_total(), 3);
        assert_eq!(s.sent_of("belief"), 2);
        assert_eq!(s.sent_of("query"), 1);
        assert_eq!(s.delivered_total(), 1);
        assert_eq!(s.dropped_total(), 1);
    }

    #[test]
    fn summary_lists_all_kinds() {
        let mut s = NetworkStats::default();
        s.record_sent(&belief());
        s.record_sent(&query());
        let text = s.summary();
        assert!(text.contains("belief"));
        assert!(text.contains("query"));
    }
}
