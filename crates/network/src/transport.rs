//! In-memory transport with loss, delay, and statistics.
//!
//! The transport owns every message in flight. Sending enqueues an [`Envelope`];
//! delivery happens when the caller advances to (or past) the envelope's delivery
//! round. Each send is independently dropped with probability `1 − P(send)`, which is
//! exactly the fault model of the robustness experiment (Section 5.1.3, Figure 11).

use crate::message::{Envelope, Payload};
use crate::stats::NetworkStats;
use pdms_schema::PeerId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Transport configuration.
#[derive(Debug, Clone)]
pub struct TransportConfig {
    /// Probability that a sent message is actually delivered. `1.0` is a perfect
    /// network; the paper shows convergence down to `0.1`.
    pub send_probability: f64,
    /// Fixed delivery latency in rounds (0 = next delivery pass in the same round).
    pub latency_rounds: u64,
    /// RNG seed for the loss process.
    pub seed: u64,
}

impl Default for TransportConfig {
    fn default() -> Self {
        Self {
            send_probability: 1.0,
            latency_rounds: 0,
            seed: 1,
        }
    }
}

/// The in-memory lossy transport.
#[derive(Debug)]
pub struct Transport {
    config: TransportConfig,
    queue: Vec<Envelope>,
    stats: NetworkStats,
    rng: StdRng,
}

impl Transport {
    /// Creates a transport with the given configuration.
    pub fn new(config: TransportConfig) -> Self {
        let rng = StdRng::seed_from_u64(config.seed);
        Self {
            config,
            queue: Vec::new(),
            stats: NetworkStats::default(),
            rng,
        }
    }

    /// Sends a message, subject to the loss probability. Returns `true` when the
    /// message was accepted (it may still be waiting for its delivery round).
    pub fn send(&mut self, from: PeerId, to: PeerId, now: u64, payload: Payload) -> bool {
        self.stats.record_sent(&payload);
        let p = self.config.send_probability.clamp(0.0, 1.0);
        if p < 1.0 && !self.rng.gen_bool(p) {
            self.stats.record_dropped(&payload);
            return false;
        }
        self.queue.push(Envelope {
            from,
            to,
            deliver_at: now + self.config.latency_rounds,
            payload,
        });
        true
    }

    /// Removes and returns every message deliverable at round `now`, in send order.
    pub fn deliverable(&mut self, now: u64) -> Vec<Envelope> {
        // Usually everything in flight is due: hand the queue over without moving it.
        let out: Vec<Envelope> = if self.queue.iter().all(|env| env.deliver_at <= now) {
            std::mem::take(&mut self.queue)
        } else {
            self.queue
                .extract_if(.., |env| env.deliver_at <= now)
                .collect()
        };
        for env in &out {
            self.stats.record_delivered(&env.payload);
        }
        out
    }

    /// Number of messages still in flight.
    pub fn in_flight(&self) -> usize {
        self.queue.len()
    }

    /// Delivery statistics so far.
    pub fn stats(&self) -> &NetworkStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn query() -> Payload {
        Payload::Query {
            query_id: 0,
            origin: PeerId(0),
        }
    }

    #[test]
    fn perfect_transport_delivers_everything() {
        let mut t = Transport::new(TransportConfig::default());
        for i in 0..10 {
            assert!(t.send(PeerId(0), PeerId(1), i, query()));
        }
        let delivered = t.deliverable(100);
        assert_eq!(delivered.len(), 10);
        assert_eq!(t.stats().sent_total(), 10);
        assert_eq!(t.stats().delivered_total(), 10);
        assert_eq!(t.stats().dropped_total(), 0);
        assert_eq!(t.in_flight(), 0);
    }

    #[test]
    fn latency_defers_delivery() {
        let mut t = Transport::new(TransportConfig {
            latency_rounds: 2,
            ..Default::default()
        });
        t.send(PeerId(0), PeerId(1), 5, query());
        assert!(t.deliverable(6).is_empty());
        assert_eq!(t.in_flight(), 1);
        assert_eq!(t.deliverable(7).len(), 1);
    }

    #[test]
    fn lossy_transport_drops_roughly_the_right_fraction() {
        let mut t = Transport::new(TransportConfig {
            send_probability: 0.3,
            seed: 99,
            ..Default::default()
        });
        let n = 5000;
        for i in 0..n {
            t.send(PeerId(0), PeerId(1), i, query());
        }
        let delivered = t.deliverable(u64::MAX).len();
        let rate = delivered as f64 / n as f64;
        assert!((rate - 0.3).abs() < 0.05, "delivery rate {rate}");
        assert_eq!(t.stats().dropped_total() + delivered as u64, n);
    }

    #[test]
    fn zero_probability_drops_everything() {
        let mut t = Transport::new(TransportConfig {
            send_probability: 0.0,
            ..Default::default()
        });
        assert!(!t.send(PeerId(0), PeerId(1), 0, query()));
        assert!(t.deliverable(10).is_empty());
        assert_eq!(t.stats().dropped_total(), 1);
    }

    #[test]
    fn deliverable_keeps_future_messages_queued() {
        let mut t = Transport::new(TransportConfig {
            latency_rounds: 5,
            ..Default::default()
        });
        t.send(PeerId(0), PeerId(1), 0, query());
        t.send(PeerId(0), PeerId(1), 3, query());
        let now = 5;
        assert_eq!(t.deliverable(now).len(), 1);
        assert_eq!(t.in_flight(), 1);
    }
}
