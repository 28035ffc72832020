//! The engine's entry point.
//!
//! The engine is one pipeline: evidence discovery → factor model → message passing
//! → posteriors (Section 4). [`Engine::builder`] configures it and
//! [`crate::session::EngineBuilder::build`] runs it once over a catalog, returning an
//! incremental [`crate::session::EngineSession`] that later network events update in
//! place. A one-shot experiment simply builds a session and reads it.
//!
//! ```
//! use pdms_core::Engine;
//! use pdms_schema::{AttributeId, Catalog};
//!
//! // Two peers, one correct and one faulty mapping between them and back.
//! let mut catalog = Catalog::new();
//! let a = catalog.add_peer_with_schema("a", |s| { s.attributes(["x", "y", "z"]); });
//! let b = catalog.add_peer_with_schema("b", |s| { s.attributes(["x", "y", "z"]); });
//! catalog.add_mapping(a, b, |m| m.correct(AttributeId(0), AttributeId(0)));
//! catalog.add_mapping(b, a, |m| m.erroneous(AttributeId(0), AttributeId(1), AttributeId(0)));
//!
//! let session = Engine::builder().build(catalog);
//! // The cycle a -> b -> a returns attribute y instead of x: negative feedback, both
//! // mappings become suspicious (no other evidence distinguishes them).
//! assert!(session.posteriors().mapping_probability(pdms_schema::MappingId(0)) < 0.5);
//! ```

use crate::session::EngineBuilder;

/// The engine: a zero-sized handle whose only job is [`Engine::builder`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Engine;

impl Engine {
    /// Starts a builder for an incremental [`crate::session::EngineSession`]:
    ///
    /// ```
    /// use pdms_core::engine::Engine;
    /// use pdms_core::backend::ExactBackend;
    /// use pdms_core::local_graph::Granularity;
    /// use pdms_schema::{AttributeId, Catalog};
    ///
    /// let mut catalog = Catalog::new();
    /// let a = catalog.add_peer_with_schema("a", |s| { s.attributes(["x", "y", "z"]); });
    /// let b = catalog.add_peer_with_schema("b", |s| { s.attributes(["x", "y", "z"]); });
    /// catalog.add_mapping(a, b, |m| m.correct(AttributeId(0), AttributeId(0)));
    /// catalog.add_mapping(b, a, |m| m.correct(AttributeId(0), AttributeId(0)));
    ///
    /// let session = Engine::builder()
    ///     .granularity(Granularity::Fine)
    ///     .backend(ExactBackend)
    ///     .delta(0.1)
    ///     .build(catalog);
    /// assert!(session.posteriors().mapping_probability(pdms_schema::MappingId(0)) > 0.5);
    /// ```
    pub fn builder() -> EngineBuilder {
        EngineBuilder::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::local_graph::VariableKey;
    use pdms_schema::{AttributeId, Catalog, MappingId, PeerId};

    fn intro_catalog() -> Catalog {
        let mut cat = Catalog::new();
        let peers: Vec<PeerId> = (0..4)
            .map(|i| {
                cat.add_peer_with_schema(format!("p{}", i + 1), |s| {
                    // Eleven attributes, as in the worked example, so Δ ≈ 0.1.
                    s.attributes([
                        "Creator",
                        "Item",
                        "CreatedOn",
                        "Title",
                        "Subject",
                        "Medium",
                        "Height",
                        "Width",
                        "Location",
                        "Owner",
                        "Licence",
                    ]);
                })
            })
            .collect();
        let correct = |m: pdms_schema::MappingBuilder| {
            let mut m = m;
            for a in 0..11 {
                m = m.correct(AttributeId(a), AttributeId(a));
            }
            m
        };
        cat.add_mapping(peers[0], peers[1], correct); // m12
        cat.add_mapping(peers[1], peers[2], correct); // m23
        cat.add_mapping(peers[2], peers[3], correct); // m34
        cat.add_mapping(peers[3], peers[0], correct); // m41
        cat.add_mapping(peers[1], peers[3], |m| {
            let mut m = m.erroneous(AttributeId(0), AttributeId(2), AttributeId(0));
            for a in 1..11 {
                m = m.correct(AttributeId(a), AttributeId(a));
            }
            m
        }); // m24
        cat
    }

    #[test]
    fn prior_update_accumulates_between_runs() {
        // Default settings throughout: default backend, Δ estimated from the schemas.
        let mut first = Engine::builder().build(intro_catalog());
        first.update_priors();
        let m24_key = VariableKey {
            mapping: MappingId(4),
            attribute: Some(AttributeId(0)),
        };
        let prior_after = first.priors().prior(&m24_key);
        assert!(prior_after < 0.5, "prior after update {prior_after}");
        // A second run starting from the updated priors pushes the posterior further.
        let second = Engine::builder()
            .priors(first.priors().clone())
            .build(intro_catalog());
        let p1 = first
            .posteriors()
            .probability_ignoring_bottom(MappingId(4), AttributeId(0));
        let p2 = second
            .posteriors()
            .probability_ignoring_bottom(MappingId(4), AttributeId(0));
        assert!(
            p2 <= p1 + 1e-9,
            "second run {p2} should not exceed first run {p1}"
        );
    }
}
