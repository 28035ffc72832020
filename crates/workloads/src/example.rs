//! The hand-built example networks used throughout the paper.
//!
//! * [`intro_network`] — the four-peer art-database network of Figures 1 and 4: five
//!   mappings, one of which (`m24`) erroneously maps `Creator` onto `CreatedOn`;
//! * [`figure5_directed`] — the same network plus the reverse mapping `m21`, matching
//!   Figure 5's directed reading with its two cycles and three parallel-path pairs;
//! * [`growing_cycle`] — the Figure 8 construction: extra peers spliced into the long
//!   cycle to study how cycle length affects accuracy (Figure 9);
//! * [`simple_cycle`] — a plain ring of correct mappings, the workload of Figure 10.
//!
//! All schemas have eleven attributes so that the schema-size estimate of Δ comes out
//! at the paper's 1/10 (Section 4.5).

use pdms_schema::{AttributeId, Catalog, MappingBuilder, MappingId, PeerId};

/// The eleven attributes of every art-database schema in the example. Attribute 0
/// (`Creator`) is the one the worked example reasons about; attribute 1 (`Item`) is
/// used by the selection of the introductory query; attribute 2 (`CreatedOn`) is the
/// wrong target of the faulty mapping.
const ART_ATTRIBUTES: [&str; 11] = [
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
];

/// Index of the `Creator` attribute.
pub const CREATOR: AttributeId = AttributeId(0);
/// Index of the `Item` attribute.
pub const ITEM: AttributeId = AttributeId(1);
/// Index of the `CreatedOn` attribute.
const CREATED_ON: AttributeId = AttributeId(2);

fn art_peer(catalog: &mut Catalog, name: &str) -> PeerId {
    catalog.add_peer_with_schema(name.to_string(), |s| {
        s.attributes(ART_ATTRIBUTES);
    })
}

fn all_correct(m: MappingBuilder) -> MappingBuilder {
    let mut m = m;
    for a in 0..ART_ATTRIBUTES.len() {
        m = m.correct(AttributeId(a), AttributeId(a));
    }
    m
}

fn faulty_creator(m: MappingBuilder) -> MappingBuilder {
    // Creator is erroneously mapped onto CreatedOn; everything else is fine.
    let mut m = m.erroneous(CREATOR, CREATED_ON, CREATOR);
    for a in 1..ART_ATTRIBUTES.len() {
        m = m.correct(AttributeId(a), AttributeId(a));
    }
    m
}

/// Handles to the mappings of the example networks, so tests and harnesses can refer to
/// them by paper name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExampleMappings {
    /// p1 → p2.
    pub m12: MappingId,
    /// p2 → p3.
    pub m23: MappingId,
    /// p3 → p4.
    pub m34: MappingId,
    /// p4 → p1.
    pub m41: MappingId,
    /// p2 → p4 (the faulty one).
    pub m24: MappingId,
    /// p2 → p1, only present in the Figure 5 variant.
    pub m21: Option<MappingId>,
}

/// The introductory four-peer network (Figures 1 and 4): peers p1…p4, mappings m12,
/// m23, m34, m41 and the faulty m24.
pub fn intro_network() -> (Catalog, ExampleMappings) {
    let mut catalog = Catalog::new();
    let p1 = art_peer(&mut catalog, "p1-winfs");
    let p2 = art_peer(&mut catalog, "p2-artdatabank");
    let p3 = art_peer(&mut catalog, "p3-photoshop");
    let p4 = art_peer(&mut catalog, "p4-gallery");
    let m12 = catalog.add_mapping(p1, p2, all_correct);
    let m23 = catalog.add_mapping(p2, p3, all_correct);
    let m34 = catalog.add_mapping(p3, p4, all_correct);
    let m41 = catalog.add_mapping(p4, p1, all_correct);
    let m24 = catalog.add_mapping(p2, p4, faulty_creator);
    (
        catalog,
        ExampleMappings {
            m12,
            m23,
            m34,
            m41,
            m24,
            m21: None,
        },
    )
}

/// The directed variant of Figure 5: the introductory network plus the reverse mapping
/// m21 (p2 → p1), which creates the parallel-path evidence f3⇒ and f5⇒ of the paper.
pub fn figure5_directed() -> (Catalog, ExampleMappings) {
    let (mut catalog, mut mappings) = intro_network();
    let m21 = catalog.add_mapping(PeerId(1), PeerId(0), all_correct);
    mappings.m21 = Some(m21);
    (catalog, mappings)
}

/// The Figure 8 construction: `extra` additional peers are spliced into the p1 → p2
/// segment, lengthening both cycles that contain it while leaving the faulty m24 in
/// place. `growing_cycle(0)` is the introductory network (with a direct p1 → p2
/// mapping).
pub fn growing_cycle(extra: usize) -> (Catalog, ExampleMappings) {
    let mut catalog = Catalog::new();
    let p1 = art_peer(&mut catalog, "p1-winfs");
    // Splice peers between p1 and p2.
    let mut previous = p1;
    let mut first_segment_mapping = None;
    for i in 0..extra {
        let spliced = art_peer(&mut catalog, &format!("pi{i}"));
        let m = catalog.add_mapping(previous, spliced, all_correct);
        if first_segment_mapping.is_none() {
            first_segment_mapping = Some(m);
        }
        previous = spliced;
    }
    let p2 = art_peer(&mut catalog, "p2-artdatabank");
    let p3 = art_peer(&mut catalog, "p3-photoshop");
    let p4 = art_peer(&mut catalog, "p4-gallery");
    let m12 = catalog.add_mapping(previous, p2, all_correct);
    let m23 = catalog.add_mapping(p2, p3, all_correct);
    let m34 = catalog.add_mapping(p3, p4, all_correct);
    let m41 = catalog.add_mapping(p4, p1, all_correct);
    let m24 = catalog.add_mapping(p2, p4, faulty_creator);
    (
        catalog,
        ExampleMappings {
            m12: first_segment_mapping.unwrap_or(m12),
            m23,
            m34,
            m41,
            m24,
            m21: None,
        },
    )
}

/// A plain directed ring of `peers` art databases with all-correct mappings — the
/// workload of Figure 10 (impact of cycle length on the posterior).
pub fn simple_cycle(peers: usize) -> Catalog {
    let mut catalog = Catalog::new();
    let ids: Vec<PeerId> = (0..peers)
        .map(|i| art_peer(&mut catalog, &format!("ring{i}")))
        .collect();
    for i in 0..peers {
        catalog.add_mapping(ids[i], ids[(i + 1) % peers], all_correct);
    }
    catalog
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdms_core::{AnalysisConfig, CycleAnalysis, Engine};
    use pdms_schema::MappingId;

    #[test]
    fn intro_network_has_the_paper_structure() {
        let (catalog, m) = intro_network();
        assert_eq!(catalog.peer_count(), 4);
        assert_eq!(catalog.mapping_count(), 5);
        assert_eq!(catalog.erroneous_mapping_count(), 1);
        assert!(!catalog.mapping(m.m24).is_correct());
        assert!(catalog.mapping(m.m12).is_correct());
        assert_eq!(catalog.peer_schema(PeerId(1)).attribute_count(), 11);
    }

    #[test]
    fn figure5_adds_the_reverse_mapping() {
        let (catalog, m) = figure5_directed();
        assert_eq!(catalog.mapping_count(), 6);
        let m21 = m.m21.unwrap();
        let (from, to) = catalog.mapping_endpoints(m21);
        assert_eq!((from, to), (PeerId(1), PeerId(0)));
    }

    #[test]
    fn figure5_analysis_finds_two_cycles_and_three_parallel_pairs() {
        let (catalog, _) = figure5_directed();
        let analysis = CycleAnalysis::analyze(&catalog, &AnalysisConfig::default());
        use pdms_core::EvidenceSource;
        let cycles = analysis
            .evidences
            .iter()
            .filter(|e| matches!(e.source, EvidenceSource::Cycle { .. }))
            .count();
        let parallel = analysis
            .evidences
            .iter()
            .filter(|e| matches!(e.source, EvidenceSource::ParallelPaths { .. }))
            .count();
        // The 2-cycle m12–m21 is also found in addition to the paper's f1 and f2.
        assert_eq!(cycles, 3);
        assert_eq!(parallel, 3);
    }

    #[test]
    fn growing_cycle_lengthens_the_long_cycle() {
        let (catalog, _) = growing_cycle(3);
        assert_eq!(catalog.peer_count(), 7);
        assert_eq!(catalog.mapping_count(), 8);
        let analysis = CycleAnalysis::analyze(
            &catalog,
            &AnalysisConfig {
                max_cycle_len: 10,
                max_path_len: 8,
                include_parallel_paths: true,
                ..Default::default()
            },
        );
        let longest = analysis.evidences.iter().map(|e| e.len()).max().unwrap();
        assert_eq!(longest, 7);
    }

    #[test]
    fn simple_cycle_is_all_correct() {
        let catalog = simple_cycle(6);
        assert_eq!(catalog.mapping_count(), 6);
        assert_eq!(catalog.erroneous_mapping_count(), 0);
    }

    #[test]
    fn engine_on_the_intro_network_flags_only_m24() {
        let (catalog, m) = intro_network();
        let session = Engine::builder().build(catalog);
        let p = session
            .posteriors()
            .probability_ignoring_bottom(m.m24, CREATOR);
        assert!(p < 0.5, "m24 Creator posterior {p}");
        for good in [m.m12, m.m23, m.m34, m.m41] {
            let p = session
                .posteriors()
                .probability_ignoring_bottom(good, CREATOR);
            assert!(p > 0.5, "{good:?} posterior {p}");
        }
        let _ = MappingId(0);
    }
}
