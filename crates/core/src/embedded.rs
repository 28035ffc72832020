//! Embedded (decentralized) message passing — the algorithm of Section 4.3.
//!
//! Every peer stores the fraction of the factor graph that touches its outgoing
//! mappings (Figure 6): the mapping variables it owns, their prior factors, and a
//! replica of every feedback factor involving one of those mappings. The entries of a
//! replicated feedback factor that concern *other* peers' mappings ("virtual peers")
//! are filled by **remote messages**:
//!
//! ```text
//! local  message, factor fa_j → mapping m_i :
//!     µ_{fa_j→m_i}(m_i) = Σ_{~m_i} fa_j(X) · Π_{p_k ∈ n(fa_j)} µ_{p_k→fa_j}
//! local  message, mapping m_i → factor fa_j :
//!     µ_{m_i→fa_j}(m_i) = Π_{fa ∈ n(m_i)\{fa_j}} µ_{fa→m_i}(m_i)
//! remote message, peer p_0 → peer p_j, about factor fa_k :
//!     µ_{p_0→fa_k}(m_i) = Π_{fa ∈ n(m_i)\{fa_k}} µ_{fa→m_i}(m_i)
//! posterior:
//!     P(m_i | {F}) = α · Π_{fa ∈ n(m_i)} µ_{fa→m_i}(m_i)
//! ```
//!
//! Before the first real message arrives every peer assumes it has received the unit
//! message from everyone else, which is how the iteration bootstraps on cyclic graphs.
//!
//! This module iterates the exchange directly under reliable delivery (one "round" =
//! one iteration of the periodic schedule). Message loss (Section 5.1.3, Figure 11)
//! is simulated by [`crate::schedules::DecentralizedRun`], which runs the same state
//! machine over the lossy [`pdms_network`] transport with explicit wire messages. Both
//! build one `SlotLayout` and run the same helpers on it: [`feedback_row`] for a
//! factor's row, [`posterior_product`] for a posterior and [`cavity_products`] for all
//! remote messages of a variable in one prefix/suffix pass. The lossy run only adds a
//! row of received remote messages per replica.
//!
//! Under reliable delivery every replica of a feedback factor holds the same remote
//! messages, so the kernel keeps one message row per evidence. A round in which every
//! variable is active costs `O(Σ arity + Σ deg)`: phase 1 evaluates every position
//! of a stale evidence in one [`feedback_row`] pass, and the cavity pass touches each
//! `(variable, evidence)` pair twice.

use crate::local_graph::{MappingModel, VariableKey};
use pdms_factor::{cavity_products, feedback_row, posterior_product, Belief, FeedbackSign};
use std::collections::BTreeMap;

/// Configuration of the embedded message-passing run.
#[derive(Debug, Clone)]
pub struct EmbeddedConfig {
    /// Maximum number of rounds (periodic-schedule periods).
    pub max_rounds: usize,
    /// Convergence threshold on the largest posterior change between rounds.
    pub tolerance: f64,
    /// Probability that a remote message is delivered. The kernel delivers every
    /// message, so [`EmbeddedMessagePassing::new`] rejects values below `1.0`; lossy
    /// delivery (Figure 11) runs on [`crate::schedules::DecentralizedRun`], configured
    /// by [`crate::schedules::DecentralizedConfig::lossy`]. Kept so existing struct
    /// literals build.
    pub send_probability: f64,
    /// Unused: the kernel draws no random numbers. Kept so existing struct literals
    /// build.
    pub seed: u64,
    /// Record the posterior trajectory round by round.
    pub record_history: bool,
}

impl Default for EmbeddedConfig {
    fn default() -> Self {
        Self {
            max_rounds: 100,
            tolerance: 1e-4,
            send_probability: 1.0,
            seed: 11,
            record_history: true,
        }
    }
}

/// Result of an embedded message-passing run.
#[derive(Debug, Clone)]
pub struct EmbeddedReport {
    /// Posterior `P(correct)` per model variable.
    pub posteriors: Vec<f64>,
    /// Rounds executed.
    pub rounds: usize,
    /// Whether the tolerance was met before the round cap.
    pub converged: bool,
    /// Posterior trajectory (`history[round][variable]`), including round 0.
    pub history: Vec<Vec<f64>>,
    /// Remote messages delivered: [`EmbeddedMessagePassing::messages_per_round`]
    /// per round, as the periodic schedule sends them. The final round's messages
    /// are counted although the kernel never computes them: no posterior reads them.
    pub messages_delivered: u64,
}

impl EmbeddedReport {
    /// Posterior of a model variable by index.
    pub fn posterior(&self, variable: usize) -> f64 {
        self.posteriors[variable]
    }
}

/// The slot layout of a model, shared by [`EmbeddedMessagePassing`] and
/// [`crate::schedules::DecentralizedRun`]: the priors and every index table of the
/// arena layout (see [`EmbeddedMessagePassing`]), computed once from the model and
/// never written again.
#[derive(Debug, Clone)]
pub(crate) struct SlotLayout {
    /// Prior belief of every variable.
    priors: Vec<Belief>,
    /// CSR offsets over per-evidence message slots (len E + 1).
    pub(crate) msg_offsets: Vec<usize>,
    /// Variable index at each message slot: `evidence_vars[msg_offsets[e] + k]`.
    pub(crate) evidence_vars: Vec<u32>,
    /// Evidence of each message slot.
    pub(crate) slot_evidence: Vec<u32>,
    /// Feedback sign per evidence.
    pub(crate) signs: Vec<FeedbackSign>,
    /// Compensating-error probability Δ per evidence.
    pub(crate) deltas: Vec<f64>,
    /// CSR offsets into `var_slots` (len V + 1).
    var_offsets: Vec<usize>,
    /// Flat adjacency of every variable: the message slot
    /// `msg_offsets[evidence] + position` of each evidence it appears in, in
    /// evidence order.
    var_slots: Vec<u32>,
    /// `Σ_e arity(e)·(arity(e) − 1)`: the remote messages sent per round.
    pub(crate) messages_per_round: u64,
}

impl SlotLayout {
    /// Lays out the slots of `model`; `priors` maps variable keys to prior
    /// probabilities, and missing entries use `default_prior`.
    pub(crate) fn new(
        model: &MappingModel,
        priors: &BTreeMap<VariableKey, f64>,
        default_prior: f64,
    ) -> Self {
        let prior_beliefs: Vec<Belief> = model
            .variables
            .iter()
            .map(|key| Belief::from_probability(priors.get(key).copied().unwrap_or(default_prior)))
            .collect();
        let evidence_count = model.evidence_count();
        let mut msg_offsets = Vec::with_capacity(evidence_count + 1);
        msg_offsets.push(0);
        let (mut slots, mut messages_per_round) = (0usize, 0u64);
        for e in &model.evidences {
            let arity = e.variables.len();
            slots += arity;
            messages_per_round += (arity * arity.saturating_sub(1)) as u64;
            msg_offsets.push(slots);
        }
        // `evidence_vars` / `var_slots` / `slot_evidence` store variable, slot and
        // evidence indices as u32; construction is cold, so guard the exact quantities
        // that get truncated (a hard assert — silent index corruption is never
        // acceptable).
        assert!(
            slots <= u32::MAX as usize
                && model.variable_count() <= u32::MAX as usize
                && evidence_count <= u32::MAX as usize,
            "arena exceeds u32 indexing: {} message slots, {} variables, {} evidences",
            slots,
            model.variable_count(),
            evidence_count
        );
        let mut evidence_vars = Vec::with_capacity(slots);
        let mut slot_evidence = Vec::with_capacity(slots);
        let mut signs = Vec::with_capacity(evidence_count);
        let mut deltas = Vec::with_capacity(evidence_count);
        let mut var_degree = vec![0usize; model.variable_count()];
        for (e_idx, e) in model.evidences.iter().enumerate() {
            debug_assert!(
                e.variables
                    .iter()
                    .enumerate()
                    .all(|(i, v)| !e.variables[..i].contains(v)),
                "evidence {:?} names a variable twice; each (variable, evidence) pair \
                 needs its own cavity slot",
                e.evidence
            );
            signs.push(FeedbackSign::from_positive(e.positive));
            deltas.push(e.delta);
            for &v in &e.variables {
                evidence_vars.push(v as u32);
                slot_evidence.push(e_idx as u32);
                var_degree[v] += 1;
            }
        }
        let mut var_offsets = Vec::with_capacity(model.variable_count() + 1);
        var_offsets.push(0);
        let mut acc = 0usize;
        for d in &var_degree {
            acc += d;
            var_offsets.push(acc);
        }
        let mut var_slots = vec![0u32; acc];
        let mut cursor = var_offsets.clone();
        for (slot, &variable) in evidence_vars.iter().enumerate() {
            let variable = variable as usize;
            var_slots[cursor[variable]] = slot as u32;
            cursor[variable] += 1;
        }
        Self {
            priors: prior_beliefs,
            msg_offsets,
            evidence_vars,
            slot_evidence,
            signs,
            deltas,
            var_offsets,
            var_slots,
            messages_per_round,
        }
    }

    /// Number of message slots, `Σ_e arity(e)`.
    pub(crate) fn slot_count(&self) -> usize {
        self.evidence_vars.len()
    }

    /// Number of feedback factors.
    pub(crate) fn evidence_count(&self) -> usize {
        self.signs.len()
    }

    /// Number of variables.
    pub(crate) fn variable_count(&self) -> usize {
        self.priors.len()
    }

    /// The message slots of one variable, one per evidence it appears in, in evidence
    /// order.
    pub(crate) fn var_row(&self, variable: usize) -> &[u32] {
        &self.var_slots[self.var_offsets[variable]..self.var_offsets[variable + 1]]
    }

    /// The posterior of one variable: its prior times every incident factor→variable
    /// message in `factor_to_var`, in evidence order.
    pub(crate) fn posterior(&self, variable: usize, factor_to_var: &[Belief]) -> f64 {
        let row = self.var_row(variable).iter().map(|&slot| slot as usize);
        posterior_product(self.priors[variable], row, factor_to_var).correct()
    }

    /// Every remote message `µ_{v→fa_e}` of one variable, in one cavity pass over its
    /// `factor_to_var` row, written into the variable's slots of `out`.
    pub(crate) fn cavity(&self, variable: usize, factor_to_var: &[Belief], out: &mut [Belief]) {
        let row = self.var_row(variable).iter().map(|&slot| slot as usize);
        cavity_products(self.priors[variable], row, factor_to_var, out);
    }
}

/// The embedded message-passing state machine, under reliable delivery.
///
/// In the distributed scheme the owner of every variable keeps its own replica of
/// each feedback factor it appears in, filled with the remote messages it received.
/// When every message arrives, all replicas of one factor hold the same messages, so
/// the kernel stores a single message row per evidence and every owner reads it.
/// Lossy delivery, where replicas diverge, is simulated by
/// [`crate::schedules::DecentralizedRun`] on the same slot layout, with one row of
/// received messages per replica in place of `last_remote`.
///
/// # Arena layout
///
/// All message state lives in flat, contiguous slabs addressed by one CSR-style
/// offset table computed once at construction:
///
/// ```text
/// msg_offsets[e]      = Σ_{e' < e} arity(e')         (len E + 1)
/// stale_factor[e]     a remote message into fa_e changed; recompute its row next round
///
/// slot (e, k)         = msg_offsets[e] + k
///     factor_to_var[slot]   µ_{fa_e → vars[k]}, computed by the owner of vars[k]
///     last_remote[slot]     remote message µ_{vars[k] → fa_e}, as every replica holds it
///     cavity[slot]          scratch: the freshly computed factor or remote message
///     evidence_vars[slot]   model variable index at position k of evidence e
///     slot_evidence[slot]   e
/// ```
///
/// The per-variable adjacency is likewise flat: `var_slots[var_offsets[v] ..
/// var_offsets[v + 1]]` lists the message slot of every evidence in which variable
/// `v` appears, in evidence order, so posterior and remote-message products are
/// single-indirection loads.
///
/// # Invariants
///
/// * No variable appears twice in one evidence (`MappingModel::build` dedups each
///   scope), so each `(variable, evidence)` pair owns exactly one slot and one
///   cavity product.
/// * The traversal order of every loop (evidences ascending, positions ascending,
///   `var_slots` in evidence order) is fixed, so a run is deterministic: the same
///   model, priors and config give the same posterior bits and round count.
///   `tests/golden_posteriors.rs` pins them within 1e-12 of committed reference runs.
/// * `posterior_cache[v]` always equals the posterior of `v` computed from
///   `factor_to_var`: it is refreshed for exactly the variables whose incident
///   `factor_to_var` slots changed during phase 1 (`factor_to_var` is never written
///   anywhere else), which is also what lets [`EmbeddedMessagePassing::round`] report the max posterior delta without
///   materialising two full posterior vectors per round.
/// * A round's phase 2 runs at the start of the next round, or when a warm start
///   needs `last_remote` settled, so a run never computes the remote messages of its
///   final round: posteriors come from phase 1 and nothing reads them. Between rounds,
///   `var_active` marks the variables the next phase 2 visits: those of the pending
///   phase 2, every variable after construction, and the seeded ones after a warm
///   start.
/// * `dirty_list` / `round_dirty` are empty/false between rounds. [`feedback_row`]
///   reads the evidence's `last_remote` row, writes into the same slots of `cavity`
///   and keeps its suffix masses in `row_scratch`, so the round loop performs no
///   allocations at all.
/// * Recomputing a whole stale row reproduces the bits of every position whose inputs
///   did not change: a position's factor message never reads its own remote message.
///   So one stale flag per evidence gives the schedule of one flag per slot.
/// * Every belief in the arenas and every posterior is valid (finite, non-negative).
///   The kernel multiplies normalised messages without checking each product;
///   [`feedback_row`], [`cavity_products`] and [`posterior_product`] check each value
///   once, where it is stored.
#[derive(Debug, Clone)]
pub struct EmbeddedMessagePassing<'m> {
    model: &'m MappingModel,
    /// Priors and index tables (see the arena layout above).
    layout: SlotLayout,
    /// Message arena: `factor_to_var[msg_offsets[e] + k]`.
    factor_to_var: Vec<Belief>,
    /// Message arena: `last_remote[msg_offsets[e] + j]`, one row per evidence.
    last_remote: Vec<Belief>,
    /// Scratch arena the cavity pass writes into, so phase 2 can compare each fresh
    /// remote message with `last_remote`.
    cavity: Vec<Belief>,
    /// Per evidence: a remote message into the factor changed, recompute its row next
    /// round. Change-driven recomputation keeps the per-round cost proportional to
    /// the part of the model still moving: converged regions (and warm-started regions
    /// under incremental updates) cost nothing.
    stale_factor: Vec<bool>,
    /// Scratch: the suffix masses [`feedback_row`] keeps while it evaluates a row.
    row_scratch: Vec<[f64; 3]>,
    /// `var_active[v]`: some factor→variable message into `v` changed last phase, so
    /// `v`'s outgoing remote messages must be recomputed (otherwise the cached value
    /// is provably identical).
    var_active: Vec<bool>,
    /// Current posterior of every variable (kept in lockstep with `factor_to_var`).
    posterior_cache: Vec<f64>,
    /// The last round's phase 2 has not run yet.
    remote_pending: bool,
    /// Scratch: variables whose posterior changed during the current round.
    dirty_list: Vec<usize>,
    /// Scratch: dedup mask for `dirty_list`.
    round_dirty: Vec<bool>,
    config: EmbeddedConfig,
    messages_delivered: u64,
}

impl<'m> EmbeddedMessagePassing<'m> {
    /// Creates the state machine with per-variable priors.
    ///
    /// `priors` maps variable keys to prior probabilities; missing entries use
    /// `default_prior`.
    ///
    /// # Panics
    ///
    /// If `config.send_probability < 1.0`: the kernel delivers every message. Run a
    /// lossy experiment on [`crate::schedules::DecentralizedRun`] instead.
    pub fn new(
        model: &'m MappingModel,
        priors: &BTreeMap<VariableKey, f64>,
        default_prior: f64,
        config: EmbeddedConfig,
    ) -> Self {
        assert!(
            config.send_probability >= 1.0,
            "EmbeddedMessagePassing delivers every message (send_probability {} < 1.0); \
             simulate message loss with schedules::DecentralizedRun and a lossy \
             TransportConfig",
            config.send_probability
        );
        let layout = SlotLayout::new(model, priors, default_prior);
        let (slots, variables) = (layout.slot_count(), layout.variable_count());
        // Every factor→variable message is the unit message, so each posterior is the
        // normalised prior: multiplying by `[1, 1]` is exact.
        let posterior_cache = layout
            .priors
            .iter()
            .map(|prior| prior.normalized().correct())
            .collect();
        Self {
            model,
            factor_to_var: vec![Belief::unit(); slots],
            last_remote: vec![Belief::unit(); slots],
            cavity: vec![Belief::unit(); slots],
            stale_factor: vec![true; layout.evidence_count()],
            row_scratch: Vec::new(),
            var_active: vec![true; variables],
            posterior_cache,
            remote_pending: false,
            dirty_list: Vec::with_capacity(variables),
            round_dirty: vec![false; variables],
            layout,
            config,
            messages_delivered: 0,
        }
    }

    /// Seeds the message state from the posteriors of a previous run (keyed by
    /// variable, so the previous model may differ structurally — only variables that
    /// still exist contribute).
    ///
    /// Every remote message about a surviving variable starts at the variable's last
    /// known posterior belief instead of the unit message. This is a pure
    /// initialization: the fixpoint of the iteration is unchanged (the same update
    /// equations are applied), but on a model that changed only locally most messages
    /// start where they previously converged, so far fewer rounds are needed — the
    /// warm-start half of incremental session maintenance.
    pub fn warm_start(&mut self, previous: &BTreeMap<VariableKey, f64>) {
        // The pending phase 2 would overwrite the seeded messages.
        self.send_remote_messages();
        for (variable, key) in self.model.variables.iter().enumerate() {
            let Some(&p) = previous.get(key) else {
                continue;
            };
            let message = Belief::from_probability(p.clamp(0.0, 1.0)).normalized();
            for &slot in self.layout.var_row(variable) {
                self.last_remote[slot as usize] = message;
                self.stale_factor[self.layout.slot_evidence[slot as usize] as usize] = true;
            }
            // The seeded `last_remote` slots no longer match the cavity products of
            // the variable's `factor_to_var` row, so phase 2 must recompute them and
            // put the cached messages back where they differ.
            self.var_active[variable] = true;
        }
    }

    /// Posterior `P(correct)` of one model variable, from the owner's perspective.
    ///
    /// Served from `posterior_cache`, which `round` keeps in lockstep with the
    /// `factor_to_var` arena — reading it is free.
    pub fn posterior(&self, variable: usize) -> f64 {
        self.posterior_cache[variable]
    }

    /// Posteriors of all variables.
    pub fn posteriors(&self) -> Vec<f64> {
        self.posterior_cache.clone()
    }

    /// Runs one round of the periodic schedule. Returns the largest posterior change.
    ///
    /// Message recomputation is change-driven: a factor→variable message is only
    /// re-evaluated when one of its inputs actually changed, and a variable only
    /// recomputes its outgoing remote messages when some factor message into it
    /// changed. Both are pure caching — unchanged inputs provably reproduce the
    /// previous output — so the numbers are those of the naive schedule, but the
    /// per-round cost shrinks to the part of the model still in motion: converged and
    /// warm-started regions are free. A stale evidence of arity `n` computes its `n`
    /// factor messages in `O(n)`, and an active variable of degree `d` computes its `d`
    /// remote messages in `O(d)`.
    ///
    /// A round's phase 2 (the remote messages) is deferred to the start of the next
    /// round, so the final round of a run never computes messages no one reads. The
    /// sequence of message updates, and with it every posterior, delta and counter,
    /// is that of the undeferred schedule.
    pub fn round(&mut self) -> f64 {
        self.send_remote_messages();
        // Phase 1: every owner recomputes the local factor→variable messages of the
        // evidences whose received inputs changed, one row at a time.
        let layout = &self.layout;
        for e_idx in 0..layout.evidence_count() {
            if !self.stale_factor[e_idx] {
                continue;
            }
            self.stale_factor[e_idx] = false;
            let base = layout.msg_offsets[e_idx];
            let end = layout.msg_offsets[e_idx + 1];
            feedback_row(
                layout.signs[e_idx],
                layout.deltas[e_idx],
                &self.last_remote[base..end],
                &mut self.row_scratch,
                &mut self.cavity[base..end],
            );
            for slot in base..end {
                let message = self.cavity[slot];
                if message != self.factor_to_var[slot] {
                    self.factor_to_var[slot] = message;
                    let variable = layout.evidence_vars[slot] as usize;
                    self.var_active[variable] = true;
                    if !self.round_dirty[variable] {
                        self.round_dirty[variable] = true;
                        self.dirty_list.push(variable);
                    }
                }
            }
        }
        // Posterior delta: only the variables whose factor→variable messages changed
        // in phase 1 can have moved (phase 2 never writes `factor_to_var`), and every
        // other variable contributes exactly 0.0 to the max — so the incremental scan
        // reports the same L∞ delta as differencing two full posterior snapshots,
        // without allocating either.
        let mut max_delta = 0.0f64;
        for i in 0..self.dirty_list.len() {
            let variable = self.dirty_list[i];
            let fresh = layout.posterior(variable, &self.factor_to_var);
            max_delta = max_delta.max((self.posterior_cache[variable] - fresh).abs());
            self.posterior_cache[variable] = fresh;
            self.round_dirty[variable] = false;
        }
        self.dirty_list.clear();
        self.remote_pending = true;
        self.messages_delivered += layout.messages_per_round;
        max_delta
    }

    /// Phase 2 of the last round, if it has not run yet: the owner of every active
    /// variable recomputes all of its remote messages `µ_{v→fa_e}` in one cavity pass
    /// over its factor→variable row and sends each one that changed; it reaches every
    /// other position of `fa_e`, whose row is then stale.
    fn send_remote_messages(&mut self) {
        if !std::mem::take(&mut self.remote_pending) {
            return;
        }
        let layout = &self.layout;
        for variable in 0..self.var_active.len() {
            if !self.var_active[variable] {
                continue;
            }
            self.var_active[variable] = false;
            layout.cavity(variable, &self.factor_to_var, &mut self.cavity);
            for &slot in layout.var_row(variable) {
                let slot = slot as usize;
                if self.cavity[slot] == self.last_remote[slot] {
                    continue;
                }
                self.last_remote[slot] = self.cavity[slot];
                self.stale_factor[layout.slot_evidence[slot] as usize] = true;
            }
        }
    }

    /// Runs rounds until convergence or the cap, returning the report.
    pub fn run(&mut self) -> EmbeddedReport {
        let mut history = Vec::new();
        if self.config.record_history {
            history.push(self.posteriors());
        }
        let mut converged = false;
        let mut rounds = 0;
        for _ in 0..self.config.max_rounds {
            let delta = self.round();
            rounds += 1;
            if self.config.record_history {
                history.push(self.posteriors());
            }
            if delta < self.config.tolerance {
                converged = true;
                break;
            }
        }
        EmbeddedReport {
            posteriors: self.posteriors(),
            rounds,
            converged,
            history,
            messages_delivered: self.messages_delivered,
        }
    }

    /// Remote messages each peer sends per round, summed over all peers — the paper's
    /// `Σ_ci (l_ci − 1)` communication-overhead bound for the periodic schedule.
    pub fn messages_per_round(&self) -> usize {
        self.layout.messages_per_round as usize
    }
}

/// Convenience: build the state machine, run it, return the report.
pub fn run_embedded(
    model: &MappingModel,
    priors: &BTreeMap<VariableKey, f64>,
    default_prior: f64,
    config: EmbeddedConfig,
) -> EmbeddedReport {
    EmbeddedMessagePassing::new(model, priors, default_prior, config).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cycle_analysis::{AnalysisConfig, CycleAnalysis};
    use crate::local_graph::Granularity;
    use pdms_factor::{exact_marginals, run_sum_product, SumProductConfig};
    use pdms_schema::{AttributeId, Catalog, PeerId};

    /// The paper's example network (Figure 5 without m21): four peers, five mappings,
    /// m24 erroneously maps attribute 0.
    fn example_catalog() -> Catalog {
        let mut cat = Catalog::new();
        let peers: Vec<PeerId> = (0..4)
            .map(|i| {
                cat.add_peer_with_schema(format!("p{}", i + 1), |s| {
                    s.attributes(["Creator", "Title", "Date"]);
                })
            })
            .collect();
        let correct = |m: pdms_schema::MappingBuilder| {
            m.correct(AttributeId(0), AttributeId(0))
                .correct(AttributeId(1), AttributeId(1))
                .correct(AttributeId(2), AttributeId(2))
        };
        cat.add_mapping(peers[0], peers[1], correct); // m12
        cat.add_mapping(peers[1], peers[2], correct); // m23
        cat.add_mapping(peers[2], peers[3], correct); // m34
        cat.add_mapping(peers[3], peers[0], correct); // m41
        cat.add_mapping(peers[1], peers[3], |m| {
            // m24: Creator is misrouted to Date.
            m.erroneous(AttributeId(0), AttributeId(2), AttributeId(0))
                .correct(AttributeId(1), AttributeId(1))
                .correct(AttributeId(2), AttributeId(2))
        });
        cat
    }

    fn example_model(cat: &Catalog) -> MappingModel {
        let analysis = CycleAnalysis::analyze(cat, &AnalysisConfig::default());
        MappingModel::build(cat, &analysis, Granularity::Fine, 0.1)
    }

    #[test]
    fn embedded_matches_centralized_loopy_bp() {
        // The embedded scheme with a perfect network must converge to the same fixpoint
        // as running loopy BP on the global factor graph.
        let cat = example_catalog();
        let model = example_model(&cat);
        let priors = BTreeMap::new();
        let embedded = run_embedded(&model, &priors, 0.6, EmbeddedConfig::default());
        assert!(embedded.converged);
        let graph = model.global_factor_graph(&priors, 0.6);
        let central = run_sum_product(&graph, SumProductConfig::default());
        for (i, key) in model.variables.iter().enumerate() {
            let v = graph.variable_by_name(&key.name()).unwrap();
            assert!(
                (embedded.posterior(i) - central.posterior(v)).abs() < 1e-3,
                "{}: embedded {} vs central {}",
                key.name(),
                embedded.posterior(i),
                central.posterior(v)
            );
        }
    }

    #[test]
    fn faulty_mapping_attribute_gets_low_posterior() {
        let cat = example_catalog();
        let model = example_model(&cat);
        let report = run_embedded(&model, &BTreeMap::new(), 0.5, EmbeddedConfig::default());
        // Variable (m24, Creator) must end below 0.5; correct mappings' Creator
        // variables must end above 0.5.
        let m24_creator = model
            .variable_index(&VariableKey {
                mapping: pdms_schema::MappingId(4),
                attribute: Some(AttributeId(0)),
            })
            .expect("variable exists");
        assert!(report.posterior(m24_creator) < 0.5);
        for (i, key) in model.variables.iter().enumerate() {
            if key.attribute == Some(AttributeId(0)) && i != m24_creator {
                assert!(
                    report.posterior(i) > 0.5,
                    "{} should look correct, got {}",
                    key.name(),
                    report.posterior(i)
                );
            }
        }
    }

    #[test]
    fn worked_example_numbers_are_close_to_the_paper() {
        // Section 4.5: with no prior information (priors 0.5) and Δ = 1/10 the
        // posteriors converge to ≈0.59 for the correct mapping out of p2 and ≈0.3 for
        // the faulty one. Exact inference on our model of the same situation gives
        // 0.59 / 0.31; the embedded estimate must land in the same region.
        let cat = example_catalog();
        let model = example_model(&cat);
        let report = run_embedded(&model, &BTreeMap::new(), 0.5, EmbeddedConfig::default());
        let m23_creator = model
            .variable_index(&VariableKey {
                mapping: pdms_schema::MappingId(1),
                attribute: Some(AttributeId(0)),
            })
            .unwrap();
        let m24_creator = model
            .variable_index(&VariableKey {
                mapping: pdms_schema::MappingId(4),
                attribute: Some(AttributeId(0)),
            })
            .unwrap();
        let p23 = report.posterior(m23_creator);
        let p24 = report.posterior(m24_creator);
        assert!((0.50..=0.70).contains(&p23), "m23 Creator posterior {p23}");
        assert!((0.15..=0.40).contains(&p24), "m24 Creator posterior {p24}");
    }

    #[test]
    fn embedded_tracks_exact_inference_closely() {
        // The reliable schedule lands near the exact marginals; the lossy schedules
        // are checked against the same bound in `schedules`' tests.
        let cat = example_catalog();
        let model = example_model(&cat);
        let priors = BTreeMap::new();
        let graph = model.global_factor_graph(&priors, 0.5);
        let exact = exact_marginals(&graph);
        let report = run_embedded(&model, &priors, 0.5, EmbeddedConfig::default());
        assert!(report.converged);
        for (i, key) in model.variables.iter().enumerate() {
            let v = graph.variable_by_name(&key.name()).unwrap();
            assert!(
                (report.posterior(i) - exact[v.0]).abs() < 0.06,
                "{}: embedded {} vs exact {}",
                key.name(),
                report.posterior(i),
                exact[v.0]
            );
        }
    }

    #[test]
    #[should_panic(expected = "DecentralizedRun")]
    fn lossy_delivery_is_rejected_with_a_pointer_to_the_simulator() {
        let cat = example_catalog();
        let model = example_model(&cat);
        let config = EmbeddedConfig {
            send_probability: 0.5,
            ..Default::default()
        };
        EmbeddedMessagePassing::new(&model, &BTreeMap::new(), 0.5, config);
    }

    // Warm starts, including the mid-run one on a network at its exact fixpoint, are
    // pinned against golden runs in `tests/golden_posteriors.rs`, where the synthetic
    // workload generators are available.

    #[test]
    fn round_delta_matches_full_posterior_differencing() {
        // The incremental max-delta must equal the |before - after| L∞ of two full
        // posterior snapshots, round by round, across a mid-run warm start.
        let cat = example_catalog();
        let model = example_model(&cat);
        let mut machine =
            EmbeddedMessagePassing::new(&model, &BTreeMap::new(), 0.5, EmbeddedConfig::default());
        let perturbed: BTreeMap<_, _> = model.variables.iter().take(3).map(|k| (*k, 0.2)).collect();
        let mut moved_after_warm_start = false;
        for round in 0..30 {
            if round == 10 {
                machine.warm_start(&perturbed);
            }
            let before = machine.posteriors();
            let delta = machine.round();
            let after = machine.posteriors();
            let full = before
                .iter()
                .zip(&after)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max);
            assert_eq!(delta.to_bits(), full.to_bits(), "round {round}");
            moved_after_warm_start |= round >= 10 && delta > 0.0;
        }
        assert!(
            moved_after_warm_start,
            "the warm start must move the fixture"
        );
    }

    #[test]
    fn history_and_message_accounting_are_consistent() {
        let cat = example_catalog();
        let model = example_model(&cat);
        let report = run_embedded(&model, &BTreeMap::new(), 0.7, EmbeddedConfig::default());
        assert_eq!(report.history.len(), report.rounds + 1);
        let per_round =
            EmbeddedMessagePassing::new(&model, &BTreeMap::new(), 0.7, EmbeddedConfig::default())
                .messages_per_round();
        assert_eq!(
            report.messages_delivered,
            (per_round * report.rounds) as u64
        );
    }
}
