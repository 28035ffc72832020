//! Estimation of Δ, the probability of compensating mapping errors.
//!
//! When two or more mappings of a cycle are wrong, their errors can cancel out and the
//! cycle still returns the original attribute. The paper approximates this probability
//! from the schema size: if the schema contains `k` attributes and an erroneous mapping
//! sends an attribute to a uniformly random *wrong* attribute, the probability that the
//! last error undoes the previous ones is about `1/(k − 1)` — `1/10` for the eleven-
//! attribute schema of the worked example (Section 4.5).

/// Default Δ used when nothing is known about the schemas (matches the ten-attribute
/// schemas used throughout the paper's evaluation).
pub const DEFAULT_DELTA: f64 = 0.1;

/// Estimates Δ from the number of attributes of the schema the cycle returns to.
///
/// Schemas with one attribute (or zero) give no room for a *wrong* target, so the
/// estimate is clamped to 1.0 in that degenerate case and to `[0, 1]` in general.
pub fn estimate_delta(attribute_count: usize) -> f64 {
    if attribute_count <= 1 {
        1.0
    } else {
        (1.0 / (attribute_count as f64 - 1.0)).clamp(0.0, 1.0)
    }
}

/// Estimates Δ for a whole collection of schema sizes by averaging the per-schema
/// estimates — the pragmatic choice when a cycle spans schemas of different sizes.
pub fn estimate_delta_for_sizes(sizes: &[usize]) -> f64 {
    if sizes.is_empty() {
        return DEFAULT_DELTA;
    }
    sizes.iter().map(|s| estimate_delta(*s)).sum::<f64>() / sizes.len() as f64
}

/// Estimates Δ from the schema sizes of every peer of a catalog ([`DEFAULT_DELTA`]
/// for an empty catalog) — the shared fallback of `EngineSession` and `ShardedSession`
/// when no explicit Δ is configured.
pub fn estimate_delta_for_catalog(catalog: &pdms_schema::Catalog) -> f64 {
    let sizes: Vec<usize> = catalog
        .peers()
        .map(|p| catalog.peer_schema(p).attribute_count())
        .collect();
    if sizes.is_empty() {
        DEFAULT_DELTA
    } else {
        estimate_delta_for_sizes(&sizes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eleven_attributes_give_one_tenth() {
        // The worked example: "if we consider that the schema of p2 contains eleven
        // attributes … the probability of the last mapping error compensating any
        // previous error is 1/10".
        assert!((estimate_delta(11) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn bigger_schemas_give_smaller_delta() {
        assert!(estimate_delta(101) < estimate_delta(11));
        assert!((estimate_delta(101) - 0.01).abs() < 1e-12);
    }

    #[test]
    fn degenerate_schemas_clamp_to_one() {
        assert_eq!(estimate_delta(0), 1.0);
        assert_eq!(estimate_delta(1), 1.0);
        assert_eq!(estimate_delta(2), 1.0);
    }

    #[test]
    fn averaging_over_sizes() {
        let d = estimate_delta_for_sizes(&[11, 11, 11]);
        assert!((d - 0.1).abs() < 1e-12);
        assert_eq!(estimate_delta_for_sizes(&[]), DEFAULT_DELTA);
    }
}
