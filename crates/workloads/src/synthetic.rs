//! Parametric synthetic PDMS networks.
//!
//! The paper's simulations ("automatically-generated settings", Sections 5.1 and 7) run
//! the scheme on synthetic mapping networks. This generator produces them: a topology
//! from [`pdms_graph::generators`], one schema per peer with a configurable number of
//! attributes drawn from a shared vocabulary, a correct attribute-identity mapping
//! along every edge, and a configurable fraction of injected per-attribute errors
//! (each error redirects an attribute to a uniformly chosen wrong attribute, exactly
//! the error model behind the paper's Δ estimate).

use pdms_graph::{DiGraph, GeneratorConfig};
use pdms_schema::{AttributeId, Catalog, MappingId, PeerId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Builds a catalog over an arbitrary topology: one peer per graph node with
/// `attributes` identically named attributes, one mapping per directed edge carrying
/// the identity correspondence, and a fraction `error_rate` of correspondences
/// redirected to a uniformly chosen wrong attribute. Returns the catalog and the list
/// of injected `(mapping, attribute)` errors.
///
/// This is the common substrate of [`SyntheticNetwork`] and of the SRS-style generator
/// in [`crate::srs`]; callers with their own topology can use it directly.
pub(crate) fn catalog_from_topology(
    graph: &DiGraph,
    attributes: usize,
    error_rate: f64,
    seed: u64,
) -> (Catalog, Vec<(MappingId, AttributeId)>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut catalog = Catalog::new();
    let peers: Vec<PeerId> = (0..graph.node_count())
        .map(|i| {
            catalog.add_peer_with_schema(format!("peer{i}"), |schema| {
                for a in 0..attributes {
                    schema.attribute(format!("attr{a}"));
                }
            })
        })
        .collect();
    let mut injected_errors = Vec::new();
    for edge in graph.edges() {
        let source = peers[edge.source.0];
        let target = peers[edge.target.0];
        // Pre-draw the error decisions so the closure stays deterministic.
        let decisions: Vec<Option<AttributeId>> = (0..attributes)
            .map(|a| {
                if attributes > 1 && rng.gen_bool(error_rate.clamp(0.0, 1.0)) {
                    // Redirect to a uniformly chosen *wrong* attribute.
                    let mut wrong = rng.gen_range(0..attributes - 1);
                    if wrong >= a {
                        wrong += 1;
                    }
                    Some(AttributeId(wrong))
                } else {
                    None
                }
            })
            .collect();
        let mapping = catalog.add_mapping(source, target, |mut m| {
            for (a, decision) in decisions.iter().enumerate() {
                let attr = AttributeId(a);
                m = match decision {
                    Some(wrong) => m.erroneous(attr, *wrong, attr),
                    None => m.correct(attr, attr),
                };
            }
            m
        });
        for (a, decision) in decisions.iter().enumerate() {
            if decision.is_some() {
                injected_errors.push((mapping, AttributeId(a)));
            }
        }
    }
    (catalog, injected_errors)
}

/// Configuration of the synthetic-network generator.
#[derive(Debug, Clone)]
pub struct SyntheticConfig {
    /// Topology of the mapping network.
    pub topology: GeneratorConfig,
    /// Number of attributes per schema (10 reproduces the paper's Δ = 0.1 regime).
    pub attributes: usize,
    /// Probability that an individual attribute correspondence is injected with an
    /// error.
    pub error_rate: f64,
    /// RNG seed for error injection (independent of the topology seed).
    pub seed: u64,
}

impl Default for SyntheticConfig {
    fn default() -> Self {
        Self {
            topology: GeneratorConfig::small_world(12, 2, 0.2, 42),
            attributes: 10,
            error_rate: 0.15,
            seed: 7,
        }
    }
}

/// A generated synthetic network with ground-truth bookkeeping.
#[derive(Debug, Clone)]
pub struct SyntheticNetwork {
    /// The catalog (peers, schemas, mappings with ground truth).
    pub catalog: Catalog,
    /// `(mapping, attribute)` pairs that were injected with an error.
    pub injected_errors: Vec<(MappingId, AttributeId)>,
    /// The configuration used.
    pub config: SyntheticConfig,
}

impl SyntheticNetwork {
    /// Generates a network from the configuration.
    pub fn generate(config: SyntheticConfig) -> Self {
        let graph = config.topology.generate();
        let (catalog, injected_errors) =
            catalog_from_topology(&graph, config.attributes, config.error_rate, config.seed);
        Self {
            catalog,
            injected_errors,
            config,
        }
    }

    /// Number of injected errors.
    pub fn error_count(&self) -> usize {
        self.injected_errors.len()
    }

    /// Total number of attribute correspondences.
    pub fn correspondence_count(&self) -> usize {
        self.catalog
            .mappings()
            .map(|m| self.catalog.mapping(m).correspondence_count())
            .sum()
    }

    /// Effective error rate over all correspondences.
    pub fn effective_error_rate(&self) -> f64 {
        let total = self.correspondence_count();
        if total == 0 {
            0.0
        } else {
            self.error_count() as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdms_graph::TopologyKind;

    #[test]
    fn generation_matches_topology() {
        let net = SyntheticNetwork::generate(SyntheticConfig {
            topology: GeneratorConfig::ring(8),
            ..Default::default()
        });
        assert_eq!(net.catalog.peer_count(), 8);
        assert_eq!(net.catalog.mapping_count(), 8);
        assert_eq!(net.config.topology.kind, TopologyKind::Ring);
    }

    #[test]
    fn error_rate_is_roughly_respected() {
        let net = SyntheticNetwork::generate(SyntheticConfig {
            topology: GeneratorConfig::erdos_renyi(30, 0.15, 3),
            attributes: 10,
            error_rate: 0.2,
            seed: 5,
        });
        let rate = net.effective_error_rate();
        assert!((rate - 0.2).abs() < 0.06, "effective error rate {rate}");
        assert_eq!(
            net.error_count(),
            net.catalog
                .mappings()
                .map(|m| net.catalog.mapping(m).error_count())
                .sum::<usize>()
        );
    }

    #[test]
    fn zero_error_rate_gives_a_clean_network() {
        let net = SyntheticNetwork::generate(SyntheticConfig {
            topology: GeneratorConfig::ring(5),
            error_rate: 0.0,
            ..Default::default()
        });
        assert_eq!(net.error_count(), 0);
        assert_eq!(net.catalog.erroneous_mapping_count(), 0);
    }

    #[test]
    fn injected_errors_never_point_to_the_correct_attribute() {
        let net = SyntheticNetwork::generate(SyntheticConfig {
            topology: GeneratorConfig::erdos_renyi(15, 0.2, 9),
            attributes: 6,
            error_rate: 0.5,
            seed: 11,
        });
        for (mapping, attribute) in &net.injected_errors {
            let m = net.catalog.mapping(*mapping);
            assert_ne!(m.apply(*attribute), Some(*attribute));
            assert_eq!(m.is_correct_for(*attribute), Some(false));
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = SyntheticNetwork::generate(SyntheticConfig::default());
        let b = SyntheticNetwork::generate(SyntheticConfig::default());
        assert_eq!(a.injected_errors, b.injected_errors);
        assert_eq!(a.catalog.mapping_count(), b.catalog.mapping_count());
    }
}
