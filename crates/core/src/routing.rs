//! Posterior-driven query routing.
//!
//! The per-hop forwarding behaviour of Section 2: a query is forwarded through a
//! mapping link only if, for every attribute `a_i` appearing in the query,
//! `P(a_i = correct) > θ_{a_i}` for that mapping. Queries spread from the origin peer
//! breadth-first over all admissible mappings (each peer is visited once, as in the
//! introductory example where the query reaches every database exactly once, just not
//! over the faulty link).

use crate::posterior::PosteriorTable;
use pdms_schema::{translate_query, AttributeId, Catalog, Mapping, MappingId, PeerId, Query};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Per-attribute forwarding thresholds θ.
#[derive(Debug, Clone)]
pub struct RoutingPolicy {
    /// Threshold used for attributes without a specific entry.
    pub default_threshold: f64,
    /// Attribute-specific thresholds (in the *origin* schema's attribute namespace).
    pub thresholds: BTreeMap<AttributeId, f64>,
}

impl RoutingPolicy {
    /// Uniform threshold for every attribute.
    pub fn uniform(theta: f64) -> Self {
        Self {
            default_threshold: theta,
            thresholds: BTreeMap::new(),
        }
    }

    /// Sets a per-attribute threshold.
    pub fn with_threshold(mut self, attribute: AttributeId, theta: f64) -> Self {
        self.thresholds.insert(attribute, theta);
        self
    }

    /// Threshold for one attribute.
    pub fn threshold(&self, attribute: AttributeId) -> f64 {
        self.thresholds
            .get(&attribute)
            .copied()
            .unwrap_or(self.default_threshold)
    }
}

impl Default for RoutingPolicy {
    fn default() -> Self {
        Self::uniform(0.5)
    }
}

/// The decision taken for one candidate mapping hop.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutingDecision {
    /// The mapping considered.
    pub mapping: MappingId,
    /// Peer the query would have been forwarded from.
    pub from: PeerId,
    /// Peer the query would have been forwarded to.
    pub to: PeerId,
    /// Whether the query was forwarded over this mapping.
    pub forwarded: bool,
    /// The attribute that blocked forwarding (lowest posterior below threshold), when
    /// not forwarded.
    pub blocking_attribute: Option<AttributeId>,
    /// The minimum posterior over the query's attributes for this mapping.
    pub min_posterior: f64,
}

/// Result of routing one query through the network.
#[derive(Debug, Clone, Default)]
pub struct RoutingOutcome {
    /// Peers that received the query (not counting the origin).
    pub reached: BTreeSet<PeerId>,
    /// Per-hop decisions, in the order they were evaluated.
    pub decisions: Vec<RoutingDecision>,
    /// Peers reached through a chain in which some mapping mistranslated one of the
    /// query's attributes (ground truth) — the false positives the introduction talks
    /// about.
    pub tainted: BTreeSet<PeerId>,
}

impl RoutingOutcome {
    /// Mappings over which the query was actually forwarded.
    pub fn forwarded_mappings(&self) -> Vec<MappingId> {
        self.decisions
            .iter()
            .filter(|d| d.forwarded)
            .map(|d| d.mapping)
            .collect()
    }
}

/// True when the chain of mappings used to reach a peer translated every query
/// attribute onto its ground-truth counterpart at each step.
fn chain_is_clean(
    catalog: &Catalog,
    chain: &[MappingId],
    attributes: &BTreeSet<AttributeId>,
) -> bool {
    for &attr in attributes {
        let mut current = attr;
        for &mid in chain {
            let mapping: &Mapping = catalog.mapping(mid);
            match (mapping.apply(current), mapping.is_correct_for(current)) {
                (Some(next), Some(true)) => current = next,
                _ => return false,
            }
        }
    }
    true
}

/// Routes `query` (expressed over `origin`'s schema) through the network, forwarding
/// over every mapping whose posteriors clear the policy thresholds for every attribute
/// of the (translated) query. Each peer processes the query once.
pub fn route_query(
    catalog: &Catalog,
    posteriors: &PosteriorTable,
    origin: PeerId,
    query: &Query,
    policy: &RoutingPolicy,
) -> RoutingOutcome {
    let mut outcome = RoutingOutcome::default();
    let origin_attributes = query.attributes();
    let mut visited: BTreeSet<PeerId> = BTreeSet::new();
    visited.insert(origin);
    // Queue entries: (peer, query as seen by that peer, mapping chain used to get there).
    let mut queue: VecDeque<(PeerId, Query, Vec<MappingId>)> = VecDeque::new();
    queue.push_back((origin, query.clone(), Vec::new()));
    while let Some((peer, local_query, chain)) = queue.pop_front() {
        for mapping_id in catalog.outgoing_mappings(peer) {
            let (from, to) = catalog.mapping_endpoints(mapping_id);
            debug_assert_eq!(from, peer);
            let attributes = local_query.attributes();
            // Evaluate the per-hop condition: every attribute of the query must clear
            // its threshold on this mapping.
            let mut forwarded = true;
            let mut blocking = None;
            let mut min_posterior = 1.0f64;
            for &attr in &attributes {
                // Thresholds are expressed in the origin namespace; since the query has
                // been translated hop by hop, we use the default threshold for
                // translated attributes that no longer match an origin attribute.
                let theta = if chain.is_empty() {
                    policy.threshold(attr)
                } else {
                    policy.default_threshold
                };
                let p = posteriors.probability(catalog, mapping_id, attr);
                min_posterior = min_posterior.min(p);
                if p <= theta {
                    forwarded = false;
                    if blocking.is_none() {
                        blocking = Some(attr);
                    }
                }
            }
            if attributes.is_empty() {
                // A query touching no attribute is forwarded unconditionally.
                min_posterior = 1.0;
            }
            let forwarded = forwarded && !visited.contains(&to);
            outcome.decisions.push(RoutingDecision {
                mapping: mapping_id,
                from,
                to,
                forwarded,
                blocking_attribute: blocking,
                min_posterior,
            });
            if !forwarded {
                continue;
            }
            visited.insert(to);
            outcome.reached.insert(to);
            let mut new_chain = chain.clone();
            new_chain.push(mapping_id);
            if !chain_is_clean(catalog, &new_chain, &origin_attributes) {
                outcome.tainted.insert(to);
            }
            let report = translate_query(&local_query, &[catalog.mapping(mapping_id)]);
            queue.push_back((to, report.query, new_chain));
        }
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdms_schema::Predicate;

    /// The introductory network: p1..p4, five mappings, m24 misroutes Creator.
    fn intro_catalog() -> Catalog {
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
        cat.add_mapping(peers[0], peers[1], correct); // m12
        cat.add_mapping(peers[1], peers[2], correct); // m23
        cat.add_mapping(peers[2], peers[3], correct); // m34
        cat.add_mapping(peers[3], peers[0], correct); // m41
        cat.add_mapping(peers[1], peers[3], |m| {
            m.erroneous(AttributeId(0), AttributeId(2), AttributeId(0))
                .correct(AttributeId(1), AttributeId(1))
                .correct(AttributeId(2), AttributeId(2))
        }); // m24
        cat
    }

    fn creator_query() -> Query {
        Query::new()
            .project(AttributeId(0))
            .select(AttributeId(1), Predicate::Contains("river".into()))
    }

    #[test]
    fn good_posteriors_route_around_the_faulty_mapping() {
        let cat = intro_catalog();
        let mut table = PosteriorTable::new(0.5);
        for m in 0..5 {
            for a in 0..3 {
                let p = if m == 4 && a == 0 { 0.3 } else { 0.8 };
                table.set(MappingId(m), AttributeId(a), p);
            }
        }
        let outcome = route_query(
            &cat,
            &table,
            PeerId(1),
            &creator_query(),
            &RoutingPolicy::uniform(0.5),
        );
        // The query reaches p3, p4 and p1 (all other databases)…
        assert_eq!(outcome.reached.len(), 3);
        // …without using m24…
        assert!(!outcome.forwarded_mappings().contains(&MappingId(4)));
        // …and therefore without any false positive.
        assert!(outcome.tainted.is_empty());
    }

    #[test]
    fn uninformed_posteriors_forward_over_the_faulty_mapping() {
        // Without the message-passing scheme (all posteriors at the 0.5 default, θ
        // slightly below), the query is forwarded over m24 and p4 receives a
        // mistranslated query: a false-positive source.
        let cat = intro_catalog();
        let table = PosteriorTable::new(0.6);
        let outcome = route_query(
            &cat,
            &table,
            PeerId(1),
            &creator_query(),
            &RoutingPolicy::uniform(0.5),
        );
        assert!(
            outcome.forwarded_mappings().contains(&MappingId(4))
                || outcome.forwarded_mappings().contains(&MappingId(1))
        );
        // p4 is reached via m24 (BFS explores m24 and m23 from p2 in insertion order:
        // m23 first, so p3 is reached via the clean path; p4 via m24 is tainted).
        assert!(!outcome.tainted.is_empty());
    }

    #[test]
    fn bottom_attribute_blocks_forwarding() {
        let mut cat = Catalog::new();
        let p0 = cat.add_peer_with_schema("a", |s| {
            s.attributes(["x", "y"]);
        });
        let p1 = cat.add_peer_with_schema("b", |s| {
            s.attributes(["x", "y"]);
        });
        cat.add_mapping(p0, p1, |m| m.correct(AttributeId(0), AttributeId(0)));
        let table = PosteriorTable::new(0.9);
        let q = Query::new().project(AttributeId(1));
        let outcome = route_query(&cat, &table, p0, &q, &RoutingPolicy::uniform(0.5));
        assert!(outcome.reached.is_empty());
        assert_eq!(outcome.decisions.len(), 1);
        assert!(!outcome.decisions[0].forwarded);
        assert_eq!(
            outcome.decisions[0].blocking_attribute,
            Some(AttributeId(1))
        );
        assert_eq!(outcome.decisions[0].min_posterior, 0.0);
    }

    #[test]
    fn per_attribute_thresholds_override_the_default() {
        let cat = intro_catalog();
        let mut table = PosteriorTable::new(0.5);
        for m in 0..5 {
            for a in 0..3 {
                table.set(MappingId(m), AttributeId(a), 0.7);
            }
        }
        // A very strict threshold on Creator blocks everything at the first hop.
        let policy = RoutingPolicy::uniform(0.5).with_threshold(AttributeId(0), 0.95);
        let outcome = route_query(&cat, &table, PeerId(1), &creator_query(), &policy);
        assert!(outcome.reached.is_empty());
    }

    #[test]
    fn attribute_free_queries_flood_everywhere() {
        let cat = intro_catalog();
        let table = PosteriorTable::new(0.0);
        let outcome = route_query(
            &cat,
            &table,
            PeerId(0),
            &Query::new(),
            &RoutingPolicy::uniform(0.99),
        );
        assert_eq!(outcome.reached.len(), 3);
    }
}
