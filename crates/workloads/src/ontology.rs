//! The "real-world schemas" scenario: a suite of bibliographic ontologies plus an
//! automatically aligned mapping network — our substitute for the EON Ontology
//! Alignment Contest data set used in Figure 12 (see DESIGN.md for the substitution
//! rationale).
//!
//! Six ontologies of about thirty concepts are generated from a shared reference
//! vocabulary: each ontology renames the concepts in its own style (synonyms, French
//! translations, abbreviations, camel-case vs. snake-case, prefixes). Every ordered
//! pair of ontologies is then aligned with the string-similarity matcher of
//! [`crate::aligner`], and each proposed correspondence is judged against the known
//! concept identity, giving a catalog with a few hundred mappings of which a realistic
//! share is erroneous — the same shape as the 396 mappings / 86 errors of the paper's
//! experiment.

use crate::aligner::{align_schemas, AlignerConfig};
use pdms_schema::{AttributeId, Catalog, MappingId, PeerId};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// The shared reference vocabulary: `(reference concept, per-style renderings)`.
///
/// Index 0 of the renderings is the "reference ontology" style (plain English), the
/// remaining styles imitate the EON contest participants: a French translation (221),
/// two BibTeX-flavoured ontologies, and two institutional ontologies with their own
/// naming conventions.
const CONCEPTS: &[(&str, [&str; 6])] = &[
    (
        "publication",
        [
            "publication",
            "publication",
            "entry",
            "bibEntry",
            "document",
            "Publikation",
        ],
    ),
    (
        "article",
        [
            "article",
            "article",
            "article",
            "articleEntry",
            "journalPaper",
            "Artikel",
        ],
    ),
    (
        "book",
        ["book", "livre", "book", "bookEntry", "monograph", "Buch"],
    ),
    (
        "inproceedings",
        [
            "inProceedings",
            "dansActes",
            "inproceedings",
            "confPaper",
            "conferencePaper",
            "Konferenzbeitrag",
        ],
    ),
    (
        "techreport",
        [
            "technicalReport",
            "rapportTechnique",
            "techreport",
            "techRep",
            "report",
            "TechnischerBericht",
        ],
    ),
    (
        "thesis",
        [
            "thesis",
            "these",
            "phdthesis",
            "dissertation",
            "doctoralThesis",
            "Dissertation",
        ],
    ),
    (
        "proceedings",
        [
            "proceedings",
            "actes",
            "proceedings",
            "confProceedings",
            "conferenceVolume",
            "Tagungsband",
        ],
    ),
    (
        "journal",
        [
            "journal",
            "revue",
            "journal",
            "journalName",
            "periodical",
            "Zeitschrift",
        ],
    ),
    (
        "publisher",
        [
            "publisher",
            "editeur",
            "publisher",
            "publisherName",
            "publishingHouse",
            "Verlag",
        ],
    ),
    (
        "institution",
        [
            "institution",
            "institution",
            "institution",
            "institutionName",
            "organisation",
            "Institution",
        ],
    ),
    (
        "school",
        [
            "school",
            "ecole",
            "school",
            "schoolName",
            "university",
            "Hochschule",
        ],
    ),
    (
        "author",
        [
            "author",
            "auteur",
            "author",
            "hasAuthor",
            "authorName",
            "Autor",
        ],
    ),
    (
        "editor",
        [
            "editor",
            "editeurScientifique",
            "editor",
            "hasEditor",
            "editorName",
            "Herausgeber",
        ],
    ),
    (
        "title",
        [
            "title",
            "titre",
            "title",
            "hasTitle",
            "documentTitle",
            "Titel",
        ],
    ),
    (
        "booktitle",
        [
            "bookTitle",
            "titreLivre",
            "booktitle",
            "hasBookTitle",
            "containerTitle",
            "Buchtitel",
        ],
    ),
    (
        "year",
        [
            "year",
            "annee",
            "year",
            "publicationYear",
            "yearOfPublication",
            "Jahr",
        ],
    ),
    (
        "month",
        [
            "month",
            "mois",
            "month",
            "publicationMonth",
            "monthOfPublication",
            "Monat",
        ],
    ),
    (
        "volume",
        ["volume", "volume", "volume", "volumeNumber", "vol", "Band"],
    ),
    (
        "number",
        [
            "number",
            "numero",
            "number",
            "issueNumber",
            "issue",
            "Nummer",
        ],
    ),
    (
        "pages",
        [
            "pages",
            "pages",
            "pages",
            "pageRange",
            "pageNumbers",
            "Seiten",
        ],
    ),
    (
        "series",
        [
            "series",
            "collection",
            "series",
            "seriesTitle",
            "bookSeries",
            "Reihe",
        ],
    ),
    (
        "edition",
        [
            "edition",
            "edition",
            "edition",
            "editionNumber",
            "editionStatement",
            "Auflage",
        ],
    ),
    (
        "chapter",
        [
            "chapter",
            "chapitre",
            "chapter",
            "chapterNumber",
            "chapterRef",
            "Kapitel",
        ],
    ),
    (
        "address",
        [
            "address",
            "adresse",
            "address",
            "publisherAddress",
            "place",
            "Adresse",
        ],
    ),
    (
        "abstract",
        [
            "abstract",
            "resume",
            "abstract",
            "hasAbstract",
            "abstractText",
            "Zusammenfassung",
        ],
    ),
    (
        "keywords",
        [
            "keywords",
            "motsCles",
            "keywords",
            "keywordList",
            "subjectTerms",
            "Schlagworte",
        ],
    ),
    (
        "note",
        ["note", "note", "note", "annotation", "remark", "Anmerkung"],
    ),
    (
        "url",
        ["url", "url", "howpublished", "webAddress", "link", "URL"],
    ),
    (
        "isbn",
        ["isbn", "isbn", "isbn", "isbnNumber", "isbnCode", "ISBN"],
    ),
    (
        "date",
        ["date", "date", "date", "publicationDate", "issued", "Datum"],
    ),
];

/// Names of the six generated ontologies (mirroring the EON line-up: the reference
/// ontology 101, its French translation 221, two BibTeX ontologies and two
/// institutional ones).
const ONTOLOGY_NAMES: [&str; 6] = [
    "reference-101",
    "french-221",
    "bibtex-mit",
    "bibtex-umbc",
    "inria",
    "karlsruhe",
];

/// Configuration of the ontology-suite generator.
#[derive(Debug, Clone)]
pub struct OntologySuiteConfig {
    /// Aligner settings.
    pub aligner: AlignerConfig,
    /// Probability that an ontology drops a concept entirely (schema heterogeneity —
    /// some ontologies simply do not model some concepts).
    pub drop_probability: f64,
    /// Extra noise applied to concept names (probability of an additional stylistic
    /// perturbation such as a prefix or suffix), which drives the aligner error rate.
    pub noise_probability: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for OntologySuiteConfig {
    fn default() -> Self {
        Self {
            // A slightly permissive threshold: simple matchers accept weak candidates,
            // which is what produces both the ~400 correspondences and the ~20 % error
            // rate of the paper's experiment.
            aligner: AlignerConfig {
                threshold: 0.30,
                edit_weight: 0.6,
            },
            drop_probability: 0.08,
            noise_probability: 0.25,
            seed: 2006,
        }
    }
}

/// The generated suite: the catalog (peers = ontologies, mappings = aligner output) and
/// bookkeeping about the generation.
#[derive(Debug, Clone)]
pub struct OntologySuite {
    /// The PDMS catalog.
    pub catalog: Catalog,
    /// For each peer and attribute, the index of the reference concept it renders.
    pub concept_of: Vec<Vec<usize>>,
    /// Number of correspondences proposed by the aligner.
    pub total_correspondences: usize,
    /// Number of proposed correspondences that are erroneous (ground truth).
    pub erroneous_correspondences: usize,
}

impl OntologySuite {
    /// Fraction of erroneous correspondences.
    pub fn error_rate(&self) -> f64 {
        if self.total_correspondences == 0 {
            0.0
        } else {
            self.erroneous_correspondences as f64 / self.total_correspondences as f64
        }
    }

    /// The reference-concept index rendered by `(peer, attribute)`.
    pub fn concept(&self, peer: PeerId, attribute: AttributeId) -> usize {
        self.concept_of[peer.0][attribute.0]
    }
}

fn perturb(name: &str, style: usize, rng: &mut StdRng, noise: f64) -> String {
    let mut out = name.to_string();
    if rng.gen_bool(noise) {
        // Apply one of a few stylistic perturbations that make life hard for the
        // aligner without being unrealistic.
        match rng.gen_range(0..4) {
            0 => out = format!("has{}", capitalize(&out)),
            1 => out = format!("{}_{}", out, ["info", "value", "field", "data"][style % 4]),
            2 => out = abbreviate(&out),
            _ => out = out.to_uppercase(),
        }
    }
    out
}

fn capitalize(s: &str) -> String {
    let mut chars = s.chars();
    match chars.next() {
        Some(first) => first.to_uppercase().collect::<String>() + chars.as_str(),
        None => String::new(),
    }
}

fn abbreviate(s: &str) -> String {
    if s.len() <= 4 {
        s.to_string()
    } else {
        s.chars().take(4).collect()
    }
}

/// Generates the ontology suite: six peers with ~30-concept schemas and an
/// automatically aligned mapping network between every ordered pair.
pub fn generate_ontology_suite(config: &OntologySuiteConfig) -> OntologySuite {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut catalog = Catalog::new();
    let mut concept_of: Vec<Vec<usize>> = Vec::new();

    // Build the six ontologies.
    for (style, name) in ONTOLOGY_NAMES.iter().enumerate() {
        let mut kept: Vec<(usize, String)> = Vec::new();
        for (concept_idx, (_, renderings)) in CONCEPTS.iter().enumerate() {
            // The reference ontology keeps everything; others may drop concepts.
            if style != 0 && rng.gen_bool(config.drop_probability) {
                continue;
            }
            let base = renderings[style.min(renderings.len() - 1)];
            let rendered = perturb(
                base,
                style,
                &mut rng,
                if style == 0 {
                    0.0
                } else {
                    config.noise_probability
                },
            );
            kept.push((concept_idx, rendered));
        }
        // Guard against duplicate names after perturbation.
        let mut seen = std::collections::BTreeSet::new();
        let mut concepts_here = Vec::new();
        let peer = catalog.add_peer_with_schema(name.to_string(), |schema| {
            for (concept_idx, rendered) in &kept {
                let mut unique = rendered.clone();
                let mut suffix = 1;
                while seen.contains(&unique) {
                    unique = format!("{rendered}{suffix}");
                    suffix += 1;
                }
                seen.insert(unique.clone());
                schema.attribute(unique);
                concepts_here.push(*concept_idx);
            }
        });
        debug_assert_eq!(peer.0, concept_of.len());
        concept_of.push(concepts_here);
    }

    // Align every ordered pair of distinct ontologies and record ground truth.
    let mut total = 0usize;
    let mut erroneous = 0usize;
    let peer_ids: Vec<PeerId> = catalog.peers().collect();
    let mut pairs: Vec<(PeerId, PeerId)> = Vec::new();
    for &a in &peer_ids {
        for &b in &peer_ids {
            if a != b {
                pairs.push((a, b));
            }
        }
    }
    // Deterministic order, but shuffled mapping insertion order so mapping ids do not
    // encode the pair structure.
    pairs.shuffle(&mut rng);
    for (source, target) in pairs {
        let alignments = {
            let source_schema = catalog.peer_schema(source);
            let target_schema = catalog.peer_schema(target);
            align_schemas(source_schema, target_schema, &config.aligner)
        };
        if alignments.is_empty() {
            continue;
        }
        let source_concepts = concept_of[source.0].clone();
        let target_concepts = concept_of[target.0].clone();
        total += alignments.len();
        let _mapping: MappingId = catalog.add_mapping(source, target, |mut m| {
            for alignment in &alignments {
                let source_concept = source_concepts[alignment.source.0];
                // The semantically right target: the attribute of the target ontology
                // rendering the same reference concept, if any.
                let expected = target_concepts
                    .iter()
                    .position(|&c| c == source_concept)
                    .map(AttributeId);
                m = match expected {
                    Some(expected) if expected == alignment.target => {
                        m.correct(alignment.source, alignment.target)
                    }
                    Some(expected) => m.erroneous(alignment.source, alignment.target, expected),
                    // No correct counterpart exists: anything the aligner proposes is
                    // wrong. Record the proposal with an impossible expectation marker
                    // by pointing the expectation at the proposal's own slot only if it
                    // accidentally matches; otherwise mark erroneous against slot 0.
                    None => m.erroneous(
                        alignment.source,
                        alignment.target,
                        AttributeId(usize::MAX / 2),
                    ),
                };
            }
            m
        });
        // Count errors for reporting.
        let mapping = catalog.mapping(_mapping);
        erroneous += mapping.error_count();
    }

    OntologySuite {
        catalog,
        concept_of,
        total_correspondences: total,
        erroneous_correspondences: erroneous,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_six_ontologies_of_about_thirty_concepts() {
        let suite = generate_ontology_suite(&OntologySuiteConfig::default());
        assert_eq!(suite.catalog.peer_count(), 6);
        for peer in suite.catalog.peers() {
            let n = suite.catalog.peer_schema(peer).attribute_count();
            assert!((24..=30).contains(&n), "peer {peer} has {n} concepts");
        }
    }

    #[test]
    fn aligner_produces_a_few_hundred_mappings_with_realistic_error_rate() {
        // The paper's experiment had 396 generated correspondences, 86 of them (≈22 %)
        // erroneous. The substitute should land in the same ballpark.
        let suite = generate_ontology_suite(&OntologySuiteConfig::default());
        assert!(
            (250..=650).contains(&suite.total_correspondences),
            "total correspondences {}",
            suite.total_correspondences
        );
        let rate = suite.error_rate();
        assert!(
            (0.05..=0.45).contains(&rate),
            "error rate {rate} ({} / {})",
            suite.erroneous_correspondences,
            suite.total_correspondences
        );
    }

    #[test]
    fn mapping_network_is_densely_cyclic() {
        let suite = generate_ontology_suite(&OntologySuiteConfig::default());
        // Every ordered pair with at least one correspondence gets a mapping; with six
        // ontologies that is up to 30 mappings, plenty of cycles.
        assert!(suite.catalog.mapping_count() >= 20);
    }

    #[test]
    fn generation_is_deterministic_under_a_seed() {
        let a = generate_ontology_suite(&OntologySuiteConfig::default());
        let b = generate_ontology_suite(&OntologySuiteConfig::default());
        assert_eq!(a.total_correspondences, b.total_correspondences);
        assert_eq!(a.erroneous_correspondences, b.erroneous_correspondences);
        assert_eq!(a.catalog.mapping_count(), b.catalog.mapping_count());
    }

    #[test]
    fn different_seeds_give_different_networks() {
        let a = generate_ontology_suite(&OntologySuiteConfig::default());
        let b = generate_ontology_suite(&OntologySuiteConfig {
            seed: 77,
            ..Default::default()
        });
        assert_ne!(
            (a.total_correspondences, a.erroneous_correspondences),
            (b.total_correspondences, b.erroneous_correspondences)
        );
    }

    #[test]
    fn concept_lookup_is_consistent_with_schemas() {
        let suite = generate_ontology_suite(&OntologySuiteConfig::default());
        for peer in suite.catalog.peers() {
            let schema = suite.catalog.peer_schema(peer);
            assert_eq!(suite.concept_of[peer.0].len(), schema.attribute_count());
            for attr in schema.attributes() {
                let concept = suite.concept(peer, attr.id);
                assert!(concept < CONCEPTS.len());
            }
        }
    }
}
