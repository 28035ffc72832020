//! Message-passing schedules embedded in PDMS traffic (Sections 4.3.1 and 4.3.2).
//!
//! [`crate::embedded`] iterates the message-passing state machine under reliable
//! delivery. [`DecentralizedRun`] runs the same state machine over the lossy
//! [`pdms_network::Transport`]: every remote message travels as one explicit
//! [`Payload::Belief`] wire message, which the transport may drop. Both share the
//! kernel's slot layout, its factor→variable row and its cavity pass. The one state
//! the lossy run adds is a row of received remote messages per *replica*, that is per
//! (evidence, peer owning at least one of its positions); a lost message leaves that
//! peer's replica stale. Two schedules decide when a peer *flushes*, that is sends
//! the remote message of every (variable it owns, evidence of that variable) to the
//! owner of every other position of the evidence:
//!
//! * **Periodic** — every `period` rounds. Communication overhead is bounded by
//!   `Σ_ci (l_ci − 1)` messages per peer per period.
//! * **Lazy** — only in a round in which a query passes through the peer; queries are
//!   injected at random peers. A lazy flush sends the same standalone belief messages
//!   as a periodic one, only less often: the piggybacking of beliefs on query
//!   messages that the paper describes is not simulated. Convergence speed becomes
//!   proportional to the query load.
//!
//! Messages are computed on change, like the kernel's: a delivery marks its replica
//! stale only if it changes the stored message, and a variable recomputes its remote
//! messages only if one of its factor messages changed. A flush still resends *all*
//! of the peer's remote messages, changed or not, so a lost message only delays its
//! information until the next flush (Section 5.1.3).

use crate::embedded::SlotLayout;
use crate::local_graph::{MappingModel, VariableKey};
use pdms_factor::{feedback_row, Belief};
use pdms_network::{BeliefPayload, NetworkStats, Payload, Transport, TransportConfig};
use pdms_schema::{Catalog, PeerId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// Which embedded schedule to run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScheduleKind {
    /// Send remote messages every `period` simulator rounds.
    Periodic {
        /// Number of rounds between two message-passing rounds (τ).
        period: u64,
    },
    /// Send remote messages only when query traffic flows through the peer; queries are
    /// injected at random peers with the given probability per round.
    Lazy {
        /// Probability that a random peer poses a query in a given round.
        query_probability: f64,
    },
}

/// Configuration for a decentralized run.
#[derive(Debug, Clone)]
pub struct DecentralizedConfig {
    /// The schedule.
    pub schedule: ScheduleKind,
    /// Simulator rounds to run.
    pub rounds: u64,
    /// Transport behaviour (loss, latency, seed).
    pub transport: TransportConfig,
    /// Seed for query injection (lazy schedule).
    pub seed: u64,
}

impl Default for DecentralizedConfig {
    fn default() -> Self {
        Self {
            schedule: ScheduleKind::Periodic { period: 1 },
            rounds: 60,
            transport: TransportConfig::default(),
            seed: 3,
        }
    }
}

impl DecentralizedConfig {
    /// The periodic schedule run for `rounds` rounds over a transport that delivers
    /// each message with probability `send_probability`, drawing losses from `seed`:
    /// the setting of the fault-tolerance experiment (Section 5.1.3, Figure 11).
    pub fn lossy(send_probability: f64, seed: u64, rounds: u64) -> Self {
        Self {
            rounds,
            transport: TransportConfig {
                send_probability,
                seed,
                ..Default::default()
            },
            ..Default::default()
        }
    }
}

/// A decentralized run: the kernel's arena with one received-message row per replica,
/// driven round by round over a [`Transport`].
///
/// # Layout
///
/// On top of the kernel's slot layout (slot `(e, k)` = `msg_offsets[e] + k`, see
/// [`crate::embedded::EmbeddedMessagePassing`]):
///
/// ```text
/// replica r of evidence e   r in replica_offsets[e] .. replica_offsets[e + 1], held by
///                           replica_peer[r] (the owners of e's positions, ascending)
/// received[row_offsets[r] + k]   the last message about position k that reached r
/// factor_to_var[slot]       µ_{fa_e → vars[k]}, from the replica of vars[k]'s owner
/// remote[slot]              µ_{vars[k] → fa_e}, resent by the owner at every flush
/// ```
///
/// Under reliable delivery every replica of an evidence holds the kernel's
/// `last_remote` row, so a periodic run with `period` 1 reproduces the kernel's
/// posteriors bit for bit, one round later (the kernel's first round needs no
/// delivery).
#[derive(Debug)]
pub struct DecentralizedRun {
    layout: SlotLayout,
    /// Owning peer of every variable.
    owners: Vec<PeerId>,
    /// The variables each peer owns, ascending.
    owned: Vec<Vec<u32>>,
    /// CSR offsets of each evidence's replicas (len E + 1).
    replica_offsets: Vec<usize>,
    /// The peer holding each replica.
    replica_peer: Vec<PeerId>,
    /// CSR offsets of each replica's row in `received` (len R + 1).
    row_offsets: Vec<usize>,
    /// Remote messages received per replica and scope position (unit until one
    /// arrives).
    received: Vec<Belief>,
    /// Per replica: a received message changed, so recompute its row next round.
    stale: Vec<bool>,
    /// Per slot: the factor→variable message of the owner's replica.
    factor_to_var: Vec<Belief>,
    /// Per slot: the owner's current remote message.
    remote: Vec<Belief>,
    /// Scratch: one replica's row of factor messages and its suffix masses.
    row_out: Vec<Belief>,
    row_scratch: Vec<[f64; 3]>,
    /// `var_active[v]`: a factor message into `v` changed, so recompute its posterior
    /// and remote messages.
    var_active: Vec<bool>,
    /// Current posterior of every variable.
    posterior_cache: Vec<f64>,
    /// Lazy schedule: each peer's query RNG, the peer its queries go to, and whether
    /// a query reached or left the peer this round.
    query_rngs: Vec<StdRng>,
    query_targets: Vec<Option<PeerId>>,
    saw_query: Vec<bool>,
    transport: Transport,
    /// Rounds completed.
    round: u64,
    config: DecentralizedConfig,
}

impl DecentralizedRun {
    /// Creates a decentralized run over the peers of `catalog`.
    ///
    /// `priors` maps variable keys to prior probabilities; missing entries use
    /// `default_prior`.
    pub fn new(
        catalog: &Catalog,
        model: &MappingModel,
        priors: &BTreeMap<VariableKey, f64>,
        default_prior: f64,
        config: DecentralizedConfig,
    ) -> Self {
        let layout = SlotLayout::new(model, priors, default_prior);
        let owners: Vec<PeerId> = (0..model.variable_count())
            .map(|v| model.owner(v))
            .collect();
        let mut owned = vec![Vec::new(); catalog.peer_count()];
        for (variable, owner) in owners.iter().enumerate() {
            owned[owner.0].push(variable as u32);
        }
        let (mut replica_offsets, mut replica_peer, mut row_offsets) = (vec![0], vec![], vec![0]);
        for e in 0..layout.evidence_count() {
            let arity = layout.msg_offsets[e + 1] - layout.msg_offsets[e];
            for peer in model.peers_of_evidence(e) {
                replica_peer.push(peer);
                row_offsets.push(row_offsets[row_offsets.len() - 1] + arity);
            }
            replica_offsets.push(replica_peer.len());
        }
        // A lazy query goes to the first other peer sharing an evidence with the
        // sender, scanning its variables and their evidences in order.
        let query_targets = owned
            .iter()
            .enumerate()
            .map(|(peer, variables)| {
                variables
                    .iter()
                    .flat_map(|&v| layout.var_row(v as usize))
                    .flat_map(|&slot| {
                        let e = layout.slot_evidence[slot as usize] as usize;
                        &replica_peer[replica_offsets[e]..replica_offsets[e + 1]]
                    })
                    .find(|holder| holder.0 != peer)
                    .copied()
            })
            .collect();
        let query_rngs = (0..catalog.peer_count())
            .map(|peer| StdRng::seed_from_u64(config.seed ^ (peer as u64).wrapping_mul(0x9e3779b9)))
            .collect();
        let (slots, variables) = (layout.slot_count(), layout.variable_count());
        let factor_to_var = vec![Belief::unit(); slots];
        let posterior_cache = (0..variables)
            .map(|v| layout.posterior(v, &factor_to_var))
            .collect();
        Self {
            owners,
            received: vec![Belief::unit(); row_offsets[row_offsets.len() - 1]],
            stale: vec![true; replica_peer.len()],
            replica_offsets,
            replica_peer,
            row_offsets,
            factor_to_var,
            remote: vec![Belief::unit(); slots],
            row_out: Vec::new(),
            row_scratch: Vec::new(),
            var_active: vec![true; variables],
            posterior_cache,
            query_rngs,
            query_targets,
            saw_query: vec![false; owned.len()],
            owned,
            transport: Transport::new(config.transport.clone()),
            round: 0,
            layout,
            config,
        }
    }

    /// Runs the configured number of rounds and returns the posterior of every model
    /// variable (as estimated by its owner).
    pub fn run(&mut self) -> Vec<f64> {
        for _ in 0..self.config.rounds {
            self.step();
        }
        self.posteriors()
    }

    /// Runs one simulator round: every peer absorbs the messages delivered to it,
    /// refreshes its posteriors and, when its schedule says so, sends its remote
    /// messages, to be delivered next round.
    pub fn step(&mut self) {
        self.saw_query.fill(false);
        for envelope in &self.transport.deliverable(self.round) {
            match &envelope.payload {
                Payload::Belief(message) => self.receive(envelope.to, message),
                Payload::Query { .. } => self.saw_query[envelope.to.0] = true,
            }
        }
        // Phase 1: every stale replica recomputes its factor row; its peer keeps the
        // messages to the positions it owns.
        let layout = &self.layout;
        for e in 0..layout.evidence_count() {
            let base = layout.msg_offsets[e];
            for replica in self.replica_offsets[e]..self.replica_offsets[e + 1] {
                if !self.stale[replica] {
                    continue;
                }
                self.stale[replica] = false;
                let row = self.row_offsets[replica]..self.row_offsets[replica + 1];
                self.row_out.clear();
                self.row_out.resize(row.len(), Belief::unit());
                feedback_row(
                    layout.signs[e],
                    layout.deltas[e],
                    &self.received[row],
                    &mut self.row_scratch,
                    &mut self.row_out,
                );
                for (k, &message) in self.row_out.iter().enumerate() {
                    let variable = layout.evidence_vars[base + k] as usize;
                    if self.owners[variable] == self.replica_peer[replica]
                        && message != self.factor_to_var[base + k]
                    {
                        self.factor_to_var[base + k] = message;
                        self.var_active[variable] = true;
                    }
                }
            }
        }
        // Phase 2: every variable whose factor messages changed recomputes its
        // posterior and, in one cavity pass, its remote messages.
        for variable in 0..self.var_active.len() {
            if self.var_active[variable] {
                self.var_active[variable] = false;
                self.posterior_cache[variable] = layout.posterior(variable, &self.factor_to_var);
                layout.cavity(variable, &self.factor_to_var, &mut self.remote);
            }
        }
        // Peers in order: a lazy peer may pose a query, then flushes if its schedule
        // says so.
        for peer in 0..self.owned.len() {
            if let ScheduleKind::Lazy { query_probability } = self.config.schedule {
                if self.query_rngs[peer].gen_bool(query_probability.clamp(0.0, 1.0)) {
                    self.saw_query[peer] = true;
                    if let Some(to) = self.query_targets[peer] {
                        let query = Payload::Query {
                            query_id: self.round,
                            origin: PeerId(peer),
                        };
                        self.transport.send(PeerId(peer), to, self.round + 1, query);
                    }
                }
            }
            let flush = match self.config.schedule {
                ScheduleKind::Periodic { period } => {
                    period != 0 && self.round.is_multiple_of(period)
                }
                ScheduleKind::Lazy { .. } => self.saw_query[peer],
            };
            if flush {
                self.flush(PeerId(peer));
            }
        }
        self.round += 1;
    }

    /// Stores a delivered remote message in the recipient's replica of its evidence.
    fn receive(&mut self, to: PeerId, message: &BeliefPayload) {
        let (mut replica, end) = (
            self.replica_offsets[message.evidence],
            self.replica_offsets[message.evidence + 1],
        );
        while replica < end && self.replica_peer[replica] != to {
            replica += 1;
        }
        assert!(
            replica < end,
            "a belief message reached a peer without a replica"
        );
        let slot = self.row_offsets[replica] + message.position;
        let stored = self.received[slot];
        if stored.correct() != message.mu_correct || stored.incorrect() != message.mu_incorrect {
            self.received[slot] = Belief::from_weights(message.mu_correct, message.mu_incorrect);
            self.stale[replica] = true;
        }
    }

    /// Sends the remote message `µ_{v→fa_e}` of every variable `v` the peer owns and
    /// every evidence `e` of `v` to the owner of every other position of `fa_e`, a peer
    /// owning two positions of one evidence included.
    fn flush(&mut self, peer: PeerId) {
        let layout = &self.layout;
        for &variable in &self.owned[peer.0] {
            for &slot in layout.var_row(variable as usize) {
                let slot = slot as usize;
                let e = layout.slot_evidence[slot] as usize;
                let base = layout.msg_offsets[e];
                let message = BeliefPayload {
                    evidence: e,
                    position: slot - base,
                    mu_correct: self.remote[slot].correct(),
                    mu_incorrect: self.remote[slot].incorrect(),
                };
                for other in base..layout.msg_offsets[e + 1] {
                    if other != slot {
                        let to = self.owners[layout.evidence_vars[other] as usize];
                        let payload = Payload::Belief(message);
                        self.transport.send(peer, to, self.round + 1, payload);
                    }
                }
            }
        }
    }

    /// Runs the configured number of rounds, like [`Self::run`], and also returns the
    /// *settled* round: the number of rounds after which no posterior ever again moves
    /// `tolerance` or more from its final value.
    ///
    /// Under message loss a round can deliver nothing new, so "the posteriors moved
    /// less than the tolerance in one round" does not mean they have converged; the
    /// settled round only counts a run as converged once it stays put until the end.
    /// A settled round equal to the configured round count means the run never
    /// settled.
    pub fn run_settled(&mut self, tolerance: f64) -> (Vec<f64>, u64) {
        let mut trajectory = vec![self.posteriors()];
        for _ in 0..self.config.rounds {
            self.step();
            trajectory.push(self.posteriors());
        }
        let last = trajectory
            .pop()
            .expect("the trajectory holds the initial posteriors");
        let moved = |posteriors: &Vec<f64>| {
            posteriors
                .iter()
                .zip(&last)
                .any(|(p, q)| (p - q).abs() >= tolerance)
        };
        let settled = trajectory.iter().rposition(moved).map_or(0, |r| r + 1);
        (last, settled as u64)
    }

    /// Posterior per model variable, as its owner computes it.
    pub fn posteriors(&self) -> Vec<f64> {
        self.posterior_cache.clone()
    }

    /// Network statistics of the run (message counts per kind, drops).
    pub fn stats(&self) -> &NetworkStats {
        self.transport.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cycle_analysis::{AnalysisConfig, CycleAnalysis};
    use crate::embedded::{run_embedded, EmbeddedConfig, EmbeddedMessagePassing};
    use crate::local_graph::Granularity;
    use pdms_schema::AttributeId;

    fn example_catalog() -> Catalog {
        let mut cat = Catalog::new();
        let peers: Vec<PeerId> = (0..4)
            .map(|i| {
                cat.add_peer_with_schema(format!("p{}", i + 1), |s| {
                    s.attributes(["Creator", "Item", "CreatedOn"]);
                })
            })
            .collect();
        let correct = |m: pdms_schema::MappingBuilder| {
            m.correct(AttributeId(0), AttributeId(0))
                .correct(AttributeId(1), AttributeId(1))
                .correct(AttributeId(2), AttributeId(2))
        };
        cat.add_mapping(peers[0], peers[1], correct);
        cat.add_mapping(peers[1], peers[2], correct);
        cat.add_mapping(peers[2], peers[3], correct);
        cat.add_mapping(peers[3], peers[0], correct);
        cat.add_mapping(peers[1], peers[3], |m| {
            m.erroneous(AttributeId(0), AttributeId(2), AttributeId(0))
                .correct(AttributeId(1), AttributeId(1))
                .correct(AttributeId(2), AttributeId(2))
        });
        cat
    }

    fn model_of(cat: &Catalog) -> MappingModel {
        let analysis = CycleAnalysis::analyze(cat, &AnalysisConfig::default());
        MappingModel::build(cat, &analysis, Granularity::Fine, 0.1)
    }

    fn lossy_run(
        cat: &Catalog,
        model: &MappingModel,
        prior: f64,
        send_probability: f64,
        seed: u64,
        rounds: u64,
    ) -> DecentralizedRun {
        let config = DecentralizedConfig::lossy(send_probability, seed, rounds);
        DecentralizedRun::new(cat, model, &BTreeMap::new(), prior, config)
    }

    #[test]
    fn message_loss_slows_but_does_not_break_convergence() {
        let cat = example_catalog();
        let model = model_of(&cat);
        let (reliable, reliable_rounds) =
            lossy_run(&cat, &model, 0.8, 1.0, 5, 2000).run_settled(1e-4);
        let mut run = lossy_run(&cat, &model, 0.8, 0.3, 5, 2000);
        let (lossy, lossy_rounds) = run.run_settled(1e-4);
        assert!(reliable_rounds < 2000 && lossy_rounds < 2000);
        assert!(
            lossy_rounds >= reliable_rounds,
            "{lossy_rounds} < {reliable_rounds}"
        );
        assert!(run.stats().dropped_total() > 0);
        for i in 0..model.variable_count() {
            assert!(
                (reliable[i] - lossy[i]).abs() < 2e-2,
                "variable {i}: {} vs {}",
                reliable[i],
                lossy[i]
            );
        }
    }

    #[test]
    fn settled_round_counts_rounds_until_the_posteriors_stop_moving() {
        let cat = example_catalog();
        let model = model_of(&cat);
        let mut run = lossy_run(&cat, &model, 0.5, 1.0, 1, 60);
        let (posteriors, settled) = run.run_settled(1e-4);
        assert!(
            0 < settled && settled < 60,
            "settled after {settled} rounds"
        );
        // Replaying the run: one round before `settled` some posterior is still off
        // its final value by the tolerance; after `settled` rounds none is.
        let mut replay = lossy_run(&cat, &model, 0.5, 1.0, 1, 60);
        let off = |p: &[f64]| {
            p.iter()
                .zip(&posteriors)
                .any(|(a, b)| (a - b).abs() >= 1e-4)
        };
        for _ in 1..settled {
            replay.step();
        }
        assert!(off(&replay.posteriors()));
        replay.step();
        assert!(!off(&replay.posteriors()));
    }

    #[test]
    fn periodic_schedule_matches_direct_embedded_iteration() {
        // Under reliable delivery every replica holds the kernel's remote-message row,
        // so the posteriors after step t are the kernel's after round t + 1, bit for
        // bit (the kernel's first round needs no delivery).
        let cat = example_catalog();
        let model = model_of(&cat);
        let priors = BTreeMap::new();
        let mut kernel = EmbeddedMessagePassing::new(&model, &priors, 0.5, Default::default());
        let mut run =
            DecentralizedRun::new(&cat, &model, &priors, 0.5, DecentralizedConfig::default());
        for t in 0..=60 {
            kernel.round();
            run.step();
            assert_eq!(run.posteriors(), kernel.posteriors(), "step {t}");
        }
        // The run actually exchanged belief messages over the simulated network.
        assert!(run.stats().sent_of("belief") > 0);
    }

    #[test]
    fn posteriors_start_from_the_priors() {
        let cat = example_catalog();
        let model = model_of(&cat);
        let priors: BTreeMap<_, _> = model
            .variables
            .iter()
            .enumerate()
            .map(|(i, key)| (*key, 0.1 + 0.8 * i as f64 / model.variable_count() as f64))
            .collect();
        let kernel = EmbeddedMessagePassing::new(&model, &priors, 0.5, Default::default());
        let run = DecentralizedRun::new(&cat, &model, &priors, 0.5, DecentralizedConfig::default());
        assert_eq!(run.posteriors(), kernel.posteriors());
    }

    #[test]
    fn a_reliable_periodic_round_sends_every_remote_message_once() {
        // One belief message per (slot, other position of its evidence), a peer's
        // messages to itself included: the kernel's `messages_per_round`.
        let cat = example_catalog();
        let model = model_of(&cat);
        let priors = BTreeMap::new();
        let per_round = EmbeddedMessagePassing::new(&model, &priors, 0.5, Default::default())
            .messages_per_round() as u64;
        let mut run =
            DecentralizedRun::new(&cat, &model, &priors, 0.5, DecentralizedConfig::default());
        for steps in 1..=7 {
            run.step();
            assert_eq!(run.stats().sent_of("belief"), steps * per_round);
        }
        assert_eq!(run.stats().sent_of("query"), 0);
    }

    #[test]
    fn lossy_network_still_identifies_the_faulty_mapping() {
        // Every lossy run settles below 0.5 on the faulty mapping's Creator variable,
        // near the exact marginals and at the reliable kernel's fixpoint.
        let cat = example_catalog();
        let model = model_of(&cat);
        let graph = model.global_factor_graph(&BTreeMap::new(), 0.5);
        let exact = pdms_factor::exact_marginals(&graph);
        let reliable = run_embedded(&model, &BTreeMap::new(), 0.5, EmbeddedConfig::default());
        let m24_creator = model
            .variable_index(&VariableKey {
                mapping: pdms_schema::MappingId(4),
                attribute: Some(AttributeId(0)),
            })
            .unwrap();
        for (send_probability, seed, rounds, tolerance) in [
            (0.5, 17, 300, 1e-4),
            (0.4, 3, 500, 1e-4),
            (0.9, 99, 300, 1e-8),
        ] {
            let config = format!("P(send)={send_probability} seed={seed}");
            let mut run = lossy_run(&cat, &model, 0.5, send_probability, seed, rounds);
            let (posteriors, settled) = run.run_settled(tolerance);
            assert!(settled < rounds, "{config}: never settled");
            assert!(run.stats().dropped_total() > 0, "{config}");
            let m24 = posteriors[m24_creator];
            assert!(m24 < 0.5, "{config}: got {m24}");
            for (i, key) in model.variables.iter().enumerate() {
                let v = graph.variable_by_name(&key.name()).unwrap();
                assert!(
                    (posteriors[i] - exact[v.0]).abs() < 0.06,
                    "{config} {}: decentralized {} vs exact {}",
                    key.name(),
                    posteriors[i],
                    exact[v.0]
                );
                assert!(
                    (posteriors[i] - reliable.posterior(i)).abs() < 5e-3,
                    "{config} {}: decentralized {} vs reliable {}",
                    key.name(),
                    posteriors[i],
                    reliable.posterior(i)
                );
            }
        }
    }

    #[test]
    fn lazy_schedule_converges_with_enough_query_traffic() {
        let cat = example_catalog();
        let model = model_of(&cat);
        let priors = BTreeMap::new();
        let mut run = DecentralizedRun::new(
            &cat,
            &model,
            &priors,
            0.5,
            DecentralizedConfig {
                schedule: ScheduleKind::Lazy {
                    query_probability: 0.8,
                },
                rounds: 400,
                ..Default::default()
            },
        );
        let posteriors = run.run();
        let m24_creator = model
            .variable_index(&VariableKey {
                mapping: pdms_schema::MappingId(4),
                attribute: Some(AttributeId(0)),
            })
            .unwrap();
        assert!(
            posteriors[m24_creator] < 0.5,
            "got {}",
            posteriors[m24_creator]
        );
        // Lazy runs generate the query traffic that triggers their flushes.
        assert!(run.stats().sent_of("query") > 0);
    }

    #[test]
    fn periodic_schedule_with_longer_period_sends_fewer_messages() {
        let cat = example_catalog();
        let model = model_of(&cat);
        let priors = BTreeMap::new();
        let mut every_round = DecentralizedRun::new(
            &cat,
            &model,
            &priors,
            0.5,
            DecentralizedConfig {
                rounds: 40,
                ..Default::default()
            },
        );
        let mut every_fourth = DecentralizedRun::new(
            &cat,
            &model,
            &priors,
            0.5,
            DecentralizedConfig {
                schedule: ScheduleKind::Periodic { period: 4 },
                rounds: 40,
                ..Default::default()
            },
        );
        every_round.run();
        every_fourth.run();
        assert!(every_fourth.stats().sent_of("belief") < every_round.stats().sent_of("belief"));
    }
}
