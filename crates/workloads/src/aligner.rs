//! A simple automatic schema aligner based on string similarity.
//!
//! The real-world experiment of the paper (Figure 12) aligns six bibliographic
//! ontologies with "the simple alignment techniques described in \[10\]" — i.e. automatic
//! matchers built on name similarity. This module implements such a matcher: attribute
//! names are normalised, compared with a blend of normalised Levenshtein distance and
//! token overlap, and the best-scoring candidate above a threshold becomes the proposed
//! correspondence. Like any real aligner it makes mistakes — especially on abbreviated,
//! translated, or genuinely ambiguous names — and those mistakes are exactly what the
//! message-passing scheme is supposed to catch.

use pdms_schema::{AttributeId, Schema};

/// Configuration of the string-similarity aligner.
#[derive(Debug, Clone)]
pub struct AlignerConfig {
    /// Minimum similarity (0–1) for a correspondence to be proposed.
    pub threshold: f64,
    /// Weight of the edit-distance component (the rest is token overlap).
    pub edit_weight: f64,
}

impl Default for AlignerConfig {
    fn default() -> Self {
        Self {
            threshold: 0.45,
            edit_weight: 0.6,
        }
    }
}

/// One proposed correspondence.
#[derive(Debug, Clone, PartialEq)]
pub struct Alignment {
    /// Attribute of the source schema.
    pub source: AttributeId,
    /// Attribute of the target schema.
    pub target: AttributeId,
    /// Similarity score in `[0, 1]`.
    pub similarity: f64,
}

/// Levenshtein edit distance between two strings.
fn levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    if a.is_empty() {
        return b.len();
    }
    if b.is_empty() {
        return a.len();
    }
    let mut previous: Vec<usize> = (0..=b.len()).collect();
    let mut current = vec![0usize; b.len() + 1];
    for (i, ca) in a.iter().enumerate() {
        current[0] = i + 1;
        for (j, cb) in b.iter().enumerate() {
            let substitution = previous[j] + usize::from(ca != cb);
            current[j + 1] = substitution.min(previous[j + 1] + 1).min(current[j] + 1);
        }
        std::mem::swap(&mut previous, &mut current);
    }
    previous[b.len()]
}

/// Normalised edit similarity: `1 − distance / max_len`.
fn edit_similarity(a: &str, b: &str) -> f64 {
    let max_len = a.chars().count().max(b.chars().count());
    if max_len == 0 {
        return 1.0;
    }
    1.0 - levenshtein(a, b) as f64 / max_len as f64
}

/// Splits an attribute name into lower-case alphanumeric tokens (camelCase, snake_case
/// and punctuation boundaries all count as separators).
fn tokenize(name: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    let mut current = String::new();
    let chars: Vec<char> = name.chars().collect();
    for (i, &c) in chars.iter().enumerate() {
        if c.is_alphanumeric() {
            let is_camel_boundary = c.is_uppercase() && i > 0 && chars[i - 1].is_lowercase();
            if is_camel_boundary && !current.is_empty() {
                tokens.push(std::mem::take(&mut current));
            }
            current.push(c.to_ascii_lowercase());
        } else if !current.is_empty() {
            tokens.push(std::mem::take(&mut current));
        }
    }
    if !current.is_empty() {
        tokens.push(current);
    }
    tokens
}

/// Jaccard overlap between the token sets of two names.
fn token_similarity(a: &str, b: &str) -> f64 {
    let ta = tokenize(a);
    let tb = tokenize(b);
    if ta.is_empty() && tb.is_empty() {
        return 1.0;
    }
    let sa: std::collections::BTreeSet<&String> = ta.iter().collect();
    let sb: std::collections::BTreeSet<&String> = tb.iter().collect();
    let intersection = sa.intersection(&sb).count();
    let union = sa.union(&sb).count();
    if union == 0 {
        0.0
    } else {
        intersection as f64 / union as f64
    }
}

/// Combined similarity between two attribute names.
fn name_similarity(a: &str, b: &str, config: &AlignerConfig) -> f64 {
    let normalized_a: String = a
        .chars()
        .filter(|c| c.is_alphanumeric())
        .collect::<String>()
        .to_lowercase();
    let normalized_b: String = b
        .chars()
        .filter(|c| c.is_alphanumeric())
        .collect::<String>()
        .to_lowercase();
    let edit = edit_similarity(&normalized_a, &normalized_b);
    let token = token_similarity(a, b);
    (config.edit_weight * edit + (1.0 - config.edit_weight) * token).clamp(0.0, 1.0)
}

/// Aligns two schemas: for every source attribute the best-scoring target attribute
/// above the threshold is proposed (at most one correspondence per source attribute,
/// which is how simple matchers and the paper's mapping model behave).
pub fn align_schemas(source: &Schema, target: &Schema, config: &AlignerConfig) -> Vec<Alignment> {
    let mut alignments = Vec::new();
    for a in source.attributes() {
        let mut best: Option<Alignment> = None;
        for b in target.attributes() {
            let similarity = name_similarity(&a.name, &b.name, config);
            if similarity < config.threshold {
                continue;
            }
            if best
                .as_ref()
                .map(|x| similarity > x.similarity)
                .unwrap_or(true)
            {
                best = Some(Alignment {
                    source: a.id,
                    target: b.id,
                    similarity,
                });
            }
        }
        if let Some(alignment) = best {
            alignments.push(alignment);
        }
    }
    alignments
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdms_schema::{SchemaBuilder, SchemaId};

    #[test]
    fn levenshtein_basics() {
        assert_eq!(levenshtein("", ""), 0);
        assert_eq!(levenshtein("abc", ""), 3);
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert_eq!(levenshtein("title", "title"), 0);
    }

    #[test]
    fn edit_similarity_is_normalised() {
        assert_eq!(edit_similarity("", ""), 1.0);
        assert!((edit_similarity("title", "titel") - 0.6).abs() < 1e-12);
        assert!(edit_similarity("year", "journal") < 0.5);
    }

    #[test]
    fn tokenizer_splits_camel_and_snake_case() {
        assert_eq!(tokenize("hasAuthorName"), vec!["has", "author", "name"]);
        assert_eq!(tokenize("publication_year"), vec!["publication", "year"]);
        assert_eq!(
            tokenize("/Author/DisplayName"),
            vec!["author", "display", "name"]
        );
    }

    #[test]
    fn token_similarity_rewards_shared_words() {
        assert!(token_similarity("author name", "hasAuthorName") > 0.5);
        assert_eq!(token_similarity("year", "journal"), 0.0);
    }

    #[test]
    fn similar_names_align_and_dissimilar_ones_do_not() {
        let mut a = SchemaBuilder::new(SchemaId(0), "ref");
        let title_a = a.attribute("title");
        let year_a = a.attribute("publicationYear");
        let a = a.build();
        let mut b = SchemaBuilder::new(SchemaId(1), "other");
        let _abstract_b = b.attribute("abstractText");
        let year_b = b.attribute("publication_year");
        let title_b = b.attribute("hasTitle");
        let b = b.build();
        let alignments = align_schemas(&a, &b, &AlignerConfig::default());
        assert_eq!(alignments.len(), 2);
        let title = alignments.iter().find(|x| x.source == title_a).unwrap();
        assert_eq!(title.target, title_b);
        let year = alignments.iter().find(|x| x.source == year_a).unwrap();
        assert_eq!(year.target, year_b);
    }

    #[test]
    fn at_most_one_correspondence_per_source_attribute() {
        let mut a = SchemaBuilder::new(SchemaId(0), "a");
        a.attribute("name");
        let a = a.build();
        let mut b = SchemaBuilder::new(SchemaId(1), "b");
        b.attribute("firstName");
        b.attribute("lastName");
        b.attribute("name");
        let b = b.build();
        let alignments = align_schemas(&a, &b, &AlignerConfig::default());
        assert_eq!(alignments.len(), 1);
        assert_eq!(b.attribute(alignments[0].target).unwrap().name, "name");
    }

    #[test]
    fn threshold_filters_weak_matches() {
        let mut a = SchemaBuilder::new(SchemaId(0), "a");
        a.attribute("editor");
        let a = a.build();
        let mut b = SchemaBuilder::new(SchemaId(1), "b");
        b.attribute("zzz");
        let b = b.build();
        let strict = AlignerConfig {
            threshold: 0.9,
            ..Default::default()
        };
        assert!(align_schemas(&a, &b, &strict).is_empty());
    }
}
