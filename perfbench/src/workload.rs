//! The three workloads: a fixed initial catalog each, plus a closed-loop
//! stream of writes (`apply_batch` ops) and reads (`route` queries). All of it
//! is generated against a shadow catalog before any timing starts; the engine
//! only ever receives the generated events and queries.
//!
//! The stream is a sequence of episodes, each of which starts from a fresh
//! session and returns the catalog to its initial state. The set of episodes
//! is fixed; the run seed decides their order and draws the queries. An op's
//! cost follows its island's density, and a few islands oscillate into the
//! round cap, so letting the seed pick which edits a run makes moved medians by
//! a third between seeds.

use pdms_core::cycle_analysis::build_topology;
use pdms_core::{apply_event, NetworkEvent};
use pdms_graph::connected_components;
use pdms_schema::{AttributeId, Catalog, MappingId, PeerId, Query};
use pdms_workloads::multi_component_network;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

/// Seed of every workload's fixed content: the initial catalog and the
/// mappings `island_rewire` adds.
const CONTENT_SEED: u64 = 62;

/// Share of wrong correspondences in the mappings `island_rewire` adds.
const NEW_MAPPING_ERROR_RATE: f64 = 0.15;

/// Events per `island_rewire` op.
const EVENTS_PER_OP: usize = 4;

/// One ten-op cycle of `island_rewire`. Every intra-island addition is removed
/// again, oldest first, within the cycle, and the split op severs the bridge
/// the merge op added. Mapping and shard counts return to their start at every
/// cycle boundary, so the stream stays stationary instead of merging the
/// federation into one component that runs into the round cap.
const REWIRE_CYCLE: [OpKind; 10] = [
    OpKind::Add,
    OpKind::Merge,
    OpKind::Add,
    OpKind::Remove,
    OpKind::Add,
    OpKind::Split,
    OpKind::Remove,
    OpKind::Add,
    OpKind::Remove,
    OpKind::Remove,
];

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One dense island under single correspondence edits.
    DenseEdit,
    /// An island federation under structural ops with recurring merges and splits.
    IslandRewire,
    /// Routed queries interleaved with correspondence edits.
    RouteMix,
}

impl Workload {
    /// The workload named `name` on the command line.
    pub fn parse(name: &str) -> Option<Workload> {
        [
            Workload::DenseEdit,
            Workload::IslandRewire,
            Workload::RouteMix,
        ]
        .into_iter()
        .find(|workload| workload.name() == name)
    }

    /// Shards that the engine today settles, at the end of one of the
    /// workload's fixed episodes, in another fixpoint than a cold rebuild of
    /// the same catalog. The correctness gate allows no more than these.
    pub fn known_fixpoint_splits(self, tiny: bool) -> usize {
        match (self, tiny) {
            (Workload::DenseEdit, true) | (Workload::RouteMix, false) => 1,
            _ => 0,
        }
    }

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DenseEdit => "dense_edit",
            Workload::IslandRewire => "island_rewire",
            Workload::RouteMix => "route_mix",
        }
    }
}

/// What a write op does: the rows of the per-op-kind latency table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// One Corrupt or Repair.
    Edit,
    /// Mappings added inside islands.
    Add,
    /// Earlier additions removed.
    Remove,
    /// An island-bridging mapping plus additions: a component merge.
    Merge,
    /// The bridge severed plus removals: a component split.
    Split,
}

impl OpKind {
    /// Every kind, in table order.
    pub const ALL: [OpKind; 5] = [
        OpKind::Edit,
        OpKind::Add,
        OpKind::Remove,
        OpKind::Merge,
        OpKind::Split,
    ];

    /// The kind's row label.
    pub fn label(self) -> &'static str {
        match self {
            OpKind::Edit => "correspondence_edit",
            OpKind::Add => "intra_island_add",
            OpKind::Remove => "remove",
            OpKind::Merge => "merge",
            OpKind::Split => "split",
        }
    }
}

/// One write: the events of one `apply_batch` call.
#[derive(Debug, Clone)]
pub struct Op {
    pub kind: OpKind,
    pub events: Vec<NetworkEvent>,
    /// Both endpoints of every mapping the events name; the op touches their shards.
    pub endpoints: Vec<PeerId>,
}

impl Op {
    fn new(kind: OpKind) -> Op {
        Op {
            kind,
            events: Vec::new(),
            endpoints: Vec::new(),
        }
    }

    /// Applies `event` to the shadow catalog and appends it to the op.
    fn push(&mut self, shadow: &mut Catalog, event: NetworkEvent) {
        let (source, target) = match &event {
            NetworkEvent::AddMapping { source, target, .. } => (*source, *target),
            NetworkEvent::RemoveMapping { mapping }
            | NetworkEvent::Corrupt { mapping, .. }
            | NetworkEvent::Repair { mapping, .. } => shadow.mapping_endpoints(*mapping),
            other => unreachable!("the workloads generate no {other:?}"),
        };
        apply_event(shadow, &event).expect("generated events always apply");
        self.endpoints.extend([source, target]);
        self.events.push(event);
    }

    /// Records a mapping addition and returns the id the mapping receives.
    fn push_mapping(&mut self, shadow: &mut Catalog, event: NetworkEvent) -> MappingId {
        let id = MappingId(shadow.mapping_slot_count());
        self.push(shadow, event);
        id
    }
}

/// One closed-loop step.
#[derive(Debug, Clone)]
pub enum Step {
    Write(Op),
    /// A query routed from the origin peer.
    Read(PeerId, Query),
    /// A fresh session built from the initial catalog, which the stream has
    /// returned to.
    Restart,
}

/// A generated workload.
#[derive(Debug, Clone)]
pub struct Fixture {
    pub workload: Workload,
    /// The initial catalog every pass builds its session from.
    pub catalog: Catalog,
    pub steps: Vec<Step>,
}

impl Fixture {
    /// The write ops, in stream order.
    pub fn writes(&self) -> impl Iterator<Item = &Op> {
        self.steps.iter().filter_map(|step| match step {
            Step::Write(op) => Some(op),
            Step::Read(..) | Step::Restart => None,
        })
    }

    /// The number of reads.
    pub fn reads(&self) -> usize {
        let is_read = |step: &&Step| matches!(step, Step::Read(..));
        self.steps.iter().filter(is_read).count()
    }
}

/// Generates `workload` from `seed`; `tiny` shrinks it for the smoke test.
pub fn generate(workload: Workload, seed: u64, tiny: bool) -> Fixture {
    // (islands, peers per island, edge probability, episodes, reads after each
    // write). An `island_rewire` episode is one `REWIRE_CYCLE`; an edit episode
    // corrupts and repairs one correspondence per island, and `None` takes
    // every correct correspondence of the island. Reads follow every write so
    // that they sample the whole run, not one moment.
    let (islands, peers, probability, episodes, reads_per_write) = match (workload, tiny) {
        (Workload::DenseEdit, false) => (1, 14, 0.2, None, 10),
        (Workload::DenseEdit, true) => (1, 8, 0.3, Some(4), 10),
        (Workload::IslandRewire, false) => (16, 12, 0.2, Some(20), 4),
        (Workload::IslandRewire, true) => (4, 6, 0.3, Some(2), 4),
        (Workload::RouteMix, false) => (8, 12, 0.15, Some(25), 20),
        (Workload::RouteMix, true) => (3, 6, 0.3, Some(1), 20),
    };
    let catalog = multi_component_network(islands, peers, probability, CONTENT_SEED).catalog;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut episodes = match workload {
        Workload::DenseEdit | Workload::RouteMix => edit_episodes(&catalog, peers, episodes),
        Workload::IslandRewire => {
            let mut content = StdRng::seed_from_u64(CONTENT_SEED);
            let mut turn = 0;
            let cycles = episodes.expect("island_rewire has a fixed cycle count");
            (0..cycles)
                .map(|_| rewire_cycle(&mut catalog.clone(), &mut content, &mut turn))
                .collect()
        }
    };
    episodes.shuffle(&mut rng);
    let mut steps = Vec::new();
    for episode in episodes {
        if !steps.is_empty() {
            steps.push(Step::Restart);
        }
        for op in episode {
            steps.push(Step::Write(op));
            steps.extend((0..reads_per_write).map(|_| read(&catalog, &mut rng)));
        }
    }
    Fixture {
        workload,
        catalog,
        steps,
    }
}

/// Single-event correspondence edits in episodes of one `Corrupt` and the
/// `Repair` that undoes it per island, so that the catalog is back at its
/// initial state after every episode and the stream stays stationary. Each
/// island contributes `per_island` of its correct correspondences, evenly
/// spaced in catalog order, or all of them. A corruption points the
/// correspondence at the next attribute of the target schema.
fn edit_episodes(
    catalog: &Catalog,
    peers_per_island: usize,
    per_island: Option<usize>,
) -> Vec<Vec<Op>> {
    let mut edits = vec![Vec::new(); catalog.peer_count() / peers_per_island];
    for mapping in catalog.mappings() {
        let (source, target) = catalog.mapping_endpoints(mapping);
        let size = catalog.peer_schema(target).attribute_count();
        if size < 2 {
            continue;
        }
        for (attribute, correspondence) in catalog.mapping(mapping).correspondences() {
            if correspondence.is_correct() {
                let wrong_target = AttributeId((correspondence.target.0 + 1) % size);
                edits[source.0 / peers_per_island].push((mapping, attribute, wrong_target));
            }
        }
    }
    let rounds = per_island.unwrap_or_else(|| edits.iter().map(Vec::len).min().unwrap_or(0));
    assert!(
        edits.iter().all(|island| rounds <= island.len()),
        "an island has too few correct correspondences"
    );
    let mut shadow = catalog.clone();
    (0..rounds)
        .map(|round| {
            let mut episode = Vec::new();
            for island in &edits {
                let (mapping, attribute, wrong_target) = island[round * island.len() / rounds];
                for event in [
                    NetworkEvent::Corrupt {
                        mapping,
                        attribute,
                        wrong_target,
                    },
                    NetworkEvent::Repair { mapping, attribute },
                ] {
                    let mut op = Op::new(OpKind::Edit);
                    op.push(&mut shadow, event);
                    episode.push(op);
                }
            }
            episode
        })
        .collect()
}

/// One `REWIRE_CYCLE` of `island_rewire`'s structural ops against `shadow`,
/// the initial catalog. Additions and bridges visit the islands in turn,
/// counted by `turn` across calls, because a few islands oscillate into the
/// round cap.
fn rewire_cycle(shadow: &mut Catalog, rng: &mut StdRng, turn: &mut usize) -> Vec<Op> {
    let islands: Vec<Vec<PeerId>> = connected_components(&build_topology(shadow))
        .into_iter()
        .filter(|component| component.len() >= 2)
        .map(|component| component.into_iter().map(|node| PeerId(node.0)).collect())
        .collect();
    assert!(
        islands.len() >= 2,
        "island_rewire needs two islands to bridge"
    );
    let mut added: VecDeque<MappingId> = VecDeque::new();
    let mut bridge = None;
    let mut ops = Vec::with_capacity(REWIRE_CYCLE.len());
    for kind in REWIRE_CYCLE {
        let mut op = Op::new(kind);
        let mut events = EVENTS_PER_OP;
        if kind == OpKind::Merge {
            let a = *turn % islands.len();
            let b = (a + rng.gen_range(1..islands.len())) % islands.len();
            let (source, target) = (pick(&islands[a], rng), pick(&islands[b], rng));
            let event = new_mapping(shadow, rng, source, target);
            bridge = Some(op.push_mapping(shadow, event));
            events -= 1;
        }
        if kind == OpKind::Split {
            let mapping = bridge.take().expect("a merge op precedes every split op");
            op.push(shadow, NetworkEvent::RemoveMapping { mapping });
            events -= 1;
        }
        for _ in 0..events {
            if matches!(kind, OpKind::Add | OpKind::Merge) {
                let event = intra_mapping(shadow, rng, &islands, turn);
                added.push_back(op.push_mapping(shadow, event));
            } else {
                let mapping = added
                    .pop_front()
                    .expect("the cycle removes only earlier additions");
                op.push(shadow, NetworkEvent::RemoveMapping { mapping });
            }
        }
        ops.push(op);
    }
    ops
}

/// A new mapping between two distinct peers of one island that no mapping
/// connects in that direction yet, on the island whose turn it is (or the next
/// one with a free pair).
fn intra_mapping(
    shadow: &Catalog,
    rng: &mut StdRng,
    islands: &[Vec<PeerId>],
    turn: &mut usize,
) -> NetworkEvent {
    for _ in 0..islands.len() {
        let island = &islands[*turn % islands.len()];
        *turn += 1;
        for _ in 0..100 {
            let (source, target) = (pick(island, rng), pick(island, rng));
            if source != target && shadow.mappings_between(source, target).is_empty() {
                return new_mapping(shadow, rng, source, target);
            }
        }
    }
    panic!("no unmapped peer pair is left inside the islands");
}

fn pick(peers: &[PeerId], rng: &mut StdRng) -> PeerId {
    peers[rng.gen_range(0..peers.len())]
}

/// A `source → target` mapping over the shared attribute prefix, each
/// correspondence wrong with `NEW_MAPPING_ERROR_RATE` (the churn generator's
/// draw for new mappings).
fn new_mapping(shadow: &Catalog, rng: &mut StdRng, source: PeerId, target: PeerId) -> NetworkEvent {
    let target_size = shadow.peer_schema(target).attribute_count();
    let shared = shadow
        .peer_schema(source)
        .attribute_count()
        .min(target_size);
    let correspondences = (0..shared)
        .map(|attribute| {
            let mut proposed = attribute;
            if target_size > 1 && rng.gen_bool(NEW_MAPPING_ERROR_RATE) {
                proposed = rng.gen_range(0..target_size - 1);
                if proposed >= attribute {
                    proposed += 1;
                }
            }
            (
                AttributeId(attribute),
                AttributeId(proposed),
                Some(AttributeId(attribute)),
            )
        })
        .collect();
    NetworkEvent::AddMapping {
        source,
        target,
        correspondences,
    }
}

/// A query from a uniformly drawn origin, projecting one or two of its attributes.
fn read(catalog: &Catalog, rng: &mut StdRng) -> Step {
    let origin = PeerId(rng.gen_range(0..catalog.peer_count()));
    let size = catalog.peer_schema(origin).attribute_count();
    let first = rng.gen_range(0..size);
    let mut query = Query::new().project(AttributeId(first));
    if size > 1 && rng.gen_bool(0.5) {
        let mut second = rng.gen_range(0..size - 1);
        if second >= first {
            second += 1;
        }
        query = query.project(AttributeId(second));
    }
    Step::Read(origin, query)
}
