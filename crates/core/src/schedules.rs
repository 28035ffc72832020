//! Message-passing schedules embedded in PDMS traffic (Sections 4.3.1 and 4.3.2).
//!
//! [`crate::embedded`] iterates the message-passing state machine directly; this module
//! runs the *same* per-peer state over the [`pdms_network`] simulator, with each remote
//! message travelling as an explicit [`Payload::Belief`] wire message that can be
//! delayed or lost by the transport. Two schedules are provided:
//!
//! * **Periodic** — every `period` rounds each peer pushes its remote messages to the
//!   peers appearing in its local factor graph. Communication overhead is bounded by
//!   `Σ_ci (l_ci − 1)` messages per peer per period.
//! * **Lazy** — a peer only pushes its remote messages when a query passes through one
//!   of its mappings; the belief messages piggyback on traffic the PDMS would send
//!   anyway, so the scheme adds zero standalone messages. Convergence speed becomes
//!   proportional to the query load.

use crate::local_graph::{MappingModel, VariableKey};
use pdms_factor::feedback_factor::{feedback_message, FeedbackSign};
use pdms_factor::{cavity_products, posterior_product, Belief};
use pdms_network::{
    Envelope, Outbox, Payload, PeerLogic, Simulator, SimulatorConfig, TransportConfig,
};
use pdms_schema::{AttributeId, Catalog, PeerId, Query};
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
    pub simulator: SimulatorConfig,
    /// Seed for query injection (lazy schedule).
    pub seed: u64,
}

impl Default for DecentralizedConfig {
    fn default() -> Self {
        Self {
            schedule: ScheduleKind::Periodic { period: 1 },
            rounds: 60,
            simulator: SimulatorConfig::default(),
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
            simulator: SimulatorConfig {
                transport: TransportConfig {
                    send_probability,
                    seed,
                    ..Default::default()
                },
            },
            ..Default::default()
        }
    }
}

/// Per-peer state of the decentralized scheme: the peer's slice of the model.
#[derive(Debug, Clone)]
pub struct PeerInferenceLogic {
    peer: PeerId,
    /// Indices of model variables owned by this peer, with their priors.
    owned: Vec<(usize, Belief)>,
    /// For each (evidence, owned-variable-position-in-evidence) replica: the incoming
    /// remote messages indexed by position in the evidence scope. Grouped by owned
    /// variable: `replicas[owned_offsets[i]..owned_offsets[i + 1]]` are the replicas
    /// of `owned[i]`, in evidence order.
    replicas: Vec<ReplicaState>,
    /// CSR offsets of each owned variable's replicas (len `owned.len() + 1`).
    owned_offsets: Vec<usize>,
    /// Last computed factor→variable message of each replica (parallel to
    /// `replicas`).
    outgoing: Vec<Belief>,
    /// Remote message about each replica's variable that excludes the replica's own
    /// evidence (parallel to `replicas`), refreshed before every send.
    remote: Vec<Belief>,
    schedule: ScheduleKind,
    /// Whether at least one query passed through this peer in the current round.
    saw_query: bool,
    /// Posterior per owned variable (parallel to `owned`).
    posteriors: Vec<f64>,
}

#[derive(Debug, Clone)]
struct ReplicaState {
    evidence: usize,
    /// The owned variable this replica computes messages for.
    variable: usize,
    /// Position of that variable in the evidence scope.
    position: usize,
    positive: bool,
    delta: f64,
    /// Scope variables of the evidence (model indices).
    scope: Vec<usize>,
    /// Last received message per scope position.
    incoming: Vec<Belief>,
}

impl PeerInferenceLogic {
    fn new(
        peer: PeerId,
        model: &MappingModel,
        priors: &BTreeMap<VariableKey, f64>,
        default_prior: f64,
        schedule: ScheduleKind,
    ) -> Self {
        let owned: Vec<(usize, Belief)> = model
            .variables_of(peer)
            .into_iter()
            .map(|idx| {
                let p = priors
                    .get(&model.variables[idx])
                    .copied()
                    .unwrap_or(default_prior);
                (idx, Belief::from_probability(p))
            })
            .collect();
        // One pass over the evidences finds every replica of every owned variable.
        let mut owned_index = vec![usize::MAX; model.variable_count()];
        for (i, &(variable, _)) in owned.iter().enumerate() {
            owned_index[variable] = i;
        }
        let mut by_owned: Vec<Vec<ReplicaState>> = vec![Vec::new(); owned.len()];
        for (e, evidence) in model.evidences.iter().enumerate() {
            for (position, &variable) in evidence.variables.iter().enumerate() {
                if let Some(group) = by_owned.get_mut(owned_index[variable]) {
                    group.push(ReplicaState {
                        evidence: e,
                        variable,
                        position,
                        positive: evidence.positive,
                        delta: evidence.delta,
                        scope: evidence.variables.clone(),
                        incoming: vec![Belief::unit(); evidence.variables.len()],
                    });
                }
            }
        }
        let mut owned_offsets = Vec::with_capacity(owned.len() + 1);
        owned_offsets.push(0);
        let mut replicas = Vec::new();
        for group in by_owned {
            replicas.extend(group);
            owned_offsets.push(replicas.len());
        }
        let posteriors = vec![default_prior; owned.len()];
        Self {
            peer,
            owned,
            outgoing: vec![Belief::unit(); replicas.len()],
            remote: vec![Belief::unit(); replicas.len()],
            replicas,
            owned_offsets,
            schedule,
            saw_query: false,
            posteriors,
        }
    }

    /// The posterior of every owned variable, as `(model variable index, probability)`.
    pub fn posteriors(&self) -> Vec<(usize, f64)> {
        self.owned
            .iter()
            .map(|(v, _)| *v)
            .zip(self.posteriors.iter().copied())
            .collect()
    }

    /// Recomputes local factor→variable messages and posteriors from current replicas.
    fn refresh_local(&mut self) {
        for (r, outgoing) in self.replicas.iter().zip(&mut self.outgoing) {
            let sign = FeedbackSign::from_positive(r.positive);
            *outgoing = feedback_message(sign, r.delta, r.position, &r.incoming).normalized();
        }
        for (i, &(_, prior)) in self.owned.iter().enumerate() {
            let row = self.owned_offsets[i]..self.owned_offsets[i + 1];
            self.posteriors[i] = posterior_product(prior, row, &self.outgoing).correct();
        }
    }

    fn should_send(&self, round: u64) -> bool {
        match self.schedule {
            ScheduleKind::Periodic { period } => period != 0 && round.is_multiple_of(period),
            ScheduleKind::Lazy { .. } => self.saw_query,
        }
    }

    /// Sends every owned variable's remote message `µ_{p→fa_e}` to the owners of
    /// the other variables of `fa_e`; each variable's messages come from one cavity
    /// pass over its replicas' factor→variable messages.
    fn emit_remote_messages(&mut self, model: &MappingModel, outbox: &mut Outbox) {
        for (i, &(_, prior)) in self.owned.iter().enumerate() {
            cavity_products(
                prior,
                self.owned_offsets[i]..self.owned_offsets[i + 1],
                &self.outgoing,
                &mut self.remote,
            );
        }
        for (r, &message) in self.replicas.iter().zip(&self.remote) {
            let key = model.variables[r.variable];
            for &other in &r.scope {
                if other == r.variable {
                    continue;
                }
                // Note: when the recipient is this very peer (it owns another
                // mapping of the same evidence) the message still goes through the
                // transport — a peer talking to itself is cheap and keeps the code
                // uniform with the remote case.
                let recipient = model.owner(other);
                outbox.send(
                    recipient,
                    Payload::Belief(pdms_network::BeliefPayload {
                        mapping: key.mapping,
                        attribute: key.attribute.unwrap_or(AttributeId(0)),
                        evidence: r.evidence,
                        mu_correct: message.correct(),
                        mu_incorrect: message.incorrect(),
                    }),
                );
            }
        }
    }
}

/// A decentralized run: the model, the per-peer logics, and the simulator.
pub struct DecentralizedRun<'m> {
    model: &'m MappingModel,
    simulator: Simulator<LogicAdapter<'m>>,
    config: DecentralizedConfig,
}

/// Adapter binding a [`PeerInferenceLogic`] to the simulator's [`PeerLogic`] trait,
/// carrying the shared model reference and the query-injection RNG.
pub struct LogicAdapter<'m> {
    model: &'m MappingModel,
    inner: PeerInferenceLogic,
    rng: StdRng,
}

impl<'m> PeerLogic for LogicAdapter<'m> {
    fn on_round(&mut self, _peer: PeerId, round: u64, inbox: &[Envelope], outbox: &mut Outbox) {
        self.inner.saw_query = false;
        // Absorb incoming messages.
        for envelope in inbox {
            match &envelope.payload {
                Payload::Belief(belief) => {
                    let fine = VariableKey {
                        mapping: belief.mapping,
                        attribute: Some(belief.attribute),
                    };
                    let coarse = VariableKey {
                        attribute: None,
                        ..fine
                    };
                    let variable = self
                        .model
                        .variable_index(&fine)
                        .or_else(|| self.model.variable_index(&coarse));
                    if let Some(variable) = variable {
                        for r in &mut self.inner.replicas {
                            if r.evidence == belief.evidence {
                                if let Some(pos) = r.scope.iter().position(|&v| v == variable) {
                                    if pos != r.position {
                                        r.incoming[pos] = Belief::from_weights(
                                            belief.mu_correct,
                                            belief.mu_incorrect,
                                        );
                                    }
                                }
                            }
                        }
                    }
                }
                Payload::Query { .. } => {
                    self.inner.saw_query = true;
                }
                _ => {}
            }
        }
        self.inner.refresh_local();
        // Lazy schedule: inject queries at random so traffic exists to piggyback on.
        if let ScheduleKind::Lazy { query_probability } = self.inner.schedule {
            if self.rng.gen_bool(query_probability.clamp(0.0, 1.0)) {
                self.inner.saw_query = true;
                // Forward a dummy query to a random neighbour-ish peer: the recipient
                // marking `saw_query` is what matters for the schedule.
                let recipient = self
                    .inner
                    .replicas
                    .iter()
                    .flat_map(|r| self.model.peers_of_evidence(r.evidence))
                    .find(|p| *p != self.inner.peer);
                if let Some(to) = recipient {
                    outbox.send(
                        to,
                        Payload::Query {
                            query_id: round,
                            origin: self.inner.peer,
                            query: Query::new(),
                            ttl: 1,
                            via: Vec::new(),
                            piggyback: Vec::new(),
                        },
                    );
                }
            }
        }
        if self.inner.should_send(round) {
            self.inner.emit_remote_messages(self.model, outbox);
        }
    }
}

impl<'m> DecentralizedRun<'m> {
    /// Creates a decentralized run over the peers of `catalog`.
    pub fn new(
        catalog: &Catalog,
        model: &'m MappingModel,
        priors: &BTreeMap<VariableKey, f64>,
        default_prior: f64,
        config: DecentralizedConfig,
    ) -> Self {
        let logics: Vec<LogicAdapter<'m>> = catalog
            .peers()
            .map(|peer| LogicAdapter {
                model,
                inner: PeerInferenceLogic::new(peer, model, priors, default_prior, config.schedule),
                rng: StdRng::seed_from_u64(config.seed ^ (peer.0 as u64).wrapping_mul(0x9e3779b9)),
            })
            .collect();
        let simulator = Simulator::new(logics, config.simulator.clone());
        Self {
            model,
            simulator,
            config,
        }
    }

    /// Runs the configured number of rounds and returns the posterior of every model
    /// variable (as estimated by its owner).
    pub fn run(&mut self) -> Vec<f64> {
        self.simulator.run(self.config.rounds);
        self.posteriors()
    }

    /// Runs one simulator round: every peer absorbs the messages delivered to it,
    /// refreshes its posteriors and, when its schedule says so, sends its remote
    /// messages.
    pub fn step(&mut self) {
        self.simulator.step();
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

    /// Posterior per model variable, gathered from the owning peers.
    pub fn posteriors(&self) -> Vec<f64> {
        let mut out = vec![0.5; self.model.variable_count()];
        for logic in self.simulator.logics() {
            for (variable, p) in logic.inner.posteriors() {
                out[variable] = p;
            }
        }
        out
    }

    /// Network statistics of the run (message counts per kind, drops).
    pub fn stats(&self) -> &pdms_network::NetworkStats {
        self.simulator.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cycle_analysis::{AnalysisConfig, CycleAnalysis};
    use crate::embedded::{run_embedded, EmbeddedConfig};
    use crate::local_graph::Granularity;

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

    fn lossy_run<'m>(
        cat: &Catalog,
        model: &'m MappingModel,
        prior: f64,
        send_probability: f64,
        seed: u64,
        rounds: u64,
    ) -> DecentralizedRun<'m> {
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
        let cat = example_catalog();
        let model = model_of(&cat);
        let priors = BTreeMap::new();
        let reference = run_embedded(&model, &priors, 0.5, EmbeddedConfig::default());
        let mut run =
            DecentralizedRun::new(&cat, &model, &priors, 0.5, DecentralizedConfig::default());
        let posteriors = run.run();
        for (i, p) in posteriors.iter().enumerate() {
            assert!(
                (p - reference.posterior(i)).abs() < 5e-2,
                "variable {i}: decentralized {p} vs embedded {}",
                reference.posterior(i)
            );
        }
        // The run actually exchanged belief messages over the simulated network.
        assert!(run.stats().sent_of("belief") > 0);
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
        // Lazy runs generate query traffic that the belief messages piggyback on.
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
