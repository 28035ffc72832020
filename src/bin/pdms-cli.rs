//! `pdms-cli` — the command-line counterpart of the tool described in Section 5.2.
//!
//! The paper's evaluation tool imports OWL schemas and simple RDF mappings, builds the
//! PDMS factor graph, runs the message passing, and reports posterior quality values.
//! This binary does the same over a directory of files, and can also generate such a
//! directory from the built-in workloads so the pipeline can be tried end to end:
//!
//! ```text
//! pdms-cli generate --out ./workload [--seed 2006]      write OWL + alignment files
//! pdms-cli assess   --dir ./workload [--theta 0.5]      import the files, run inference
//! pdms-cli intro                                        the worked example of Section 4.5
//! pdms-cli churn    [--peers 16] [--epochs 8]           incremental session vs. recompute
//! ```
//!
//! Run via `cargo run --bin pdms-cli -- <command> [options]`.

use pdms::core::{Engine, RoutingPolicy};
use pdms::rdf::{export_catalog, import_catalog, parse_alignment, parse_ontology};
use pdms::schema::{AttributeId, Predicate, Query};
use pdms::workloads::{
    generate_ontology_suite, intro_network, ChurnConfig, ChurnGenerator, OntologySuiteConfig,
    SyntheticConfig, SyntheticNetwork,
};
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let options = match parse_options(&args[1..]) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("error: {message}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(accepted) = accepted_options(command) {
        let is_accepted = |key: &str| accepted.split_whitespace().any(|k| k == key);
        if let Some(unknown) = options.values.keys().find(|key| !is_accepted(key)) {
            let list: Vec<String> = accepted
                .split_whitespace()
                .map(|key| format!("--{key}"))
                .collect();
            let list = if list.is_empty() {
                "none".to_string()
            } else {
                list.join(", ")
            };
            eprintln!("error: `{command}` does not accept --{unknown} (accepted: {list})");
            return ExitCode::from(2);
        }
    }
    let result = match command.as_str() {
        "generate" => generate(&options),
        "assess" => assess(&options),
        "intro" => intro(&options),
        "churn" => churn(&options),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
pdms-cli — probabilistic mapping-quality assessment for Peer Data Management Systems

USAGE:
  pdms-cli generate --out <dir> [--seed <n>]
      Generate the bibliographic ontology workload and write one .owl file per
      ontology plus one alignment .rdf file per automatically created mapping.

  pdms-cli assess --dir <dir> [--theta <t>] [--max-cycle-len <n>] [--delta <d>]
      Import every .owl and alignment .rdf file of the directory, run the embedded
      message-passing engine, and print the posterior quality of every imported
      correspondence (those below theta are flagged as probably erroneous).

  pdms-cli intro [--theta <t>]
      Run the worked example of Section 4.5: detect the faulty Creator mapping in the
      four-peer art network and route the introductory query around it.

  pdms-cli churn [--peers <n>] [--epochs <n>] [--seed <n>]
                 [--topology small-world|scale-free|hub-heavy|erdos-renyi|ring|islands]
                 [--islands <n>] [--hub-exponent <a>] [--parallelism <n>]
                 [--sharded] [--batch-size <n>] [--shard-parallelism <n>]
                 [--merge-rate <p>] [--no-splice]
      Generate a synthetic network and drive an incremental engine session through
      epochs of churn (corruptions, repairs, new mappings), printing per epoch how
      much evidence was reused versus invalidated and how many warm-started
      inference rounds were needed, compared against a cold build of a fresh
      session over the same catalog.
      `--topology hub-heavy` selects the scale-free network with super-linear
      preferential attachment (exponent --hub-exponent, default 1.6) whose hub
      peers the work-stealing enumeration splits into stolen subtasks;
      `--topology islands` generates --islands disjoint Erdos-Renyi communities of
      --peers nodes each (a multi-component network, one shard per island).
      --parallelism sets the enumeration worker count (0 = auto via
      PDMS_PARALLELISM).
      --sharded switches to the component-sharded engine: one session per weakly
      connected component, batched event ingestion (--batch-size, 0 = one batch
      per epoch, auto via PDMS_BATCH_SIZE) and parallel shard dispatch
      (--shard-parallelism, 0 = auto via PDMS_SHARD_PARALLELISM). Posteriors are
      identical to the single-session engine; the table shows per-epoch shard
      maintenance (spliced/rebuilt shards, bridge evidence, dispatch timing)
      instead of evidence reuse.
      --merge-rate is the probability that a churn epoch adds an island-bridging
      mapping (a component merge, the event the warm splice path exists for;
      default 0). --no-splice forces cold shard rebuilds on merges and splits
      (equivalent to PDMS_SPLICE=0); results are identical, only slower.
      With --sharded, `unconv` counts the epoch's shards whose inference hit the
      round cap (their posteriors are not a fixpoint) and `max-rounds` is the
      worst shard's round count.

An option a command does not accept is an error (exit status 2).
";

/// Options that are boolean flags (present or absent, no value).
const FLAGS: &[&str] = &["sharded", "no-splice"];

/// The options each command accepts, space-separated (`None` for an unknown
/// command). Any other option is an error, so a misspelt or retired option is
/// never silently ignored.
fn accepted_options(command: &str) -> Option<&'static str> {
    Some(match command {
        "generate" => "out seed",
        "assess" => "dir theta max-cycle-len delta",
        "intro" => "theta",
        "churn" => {
            "peers epochs seed topology islands hub-exponent parallelism sharded \
             batch-size shard-parallelism merge-rate no-splice"
        }
        "help" | "--help" | "-h" => "",
        _ => return None,
    })
}

#[derive(Debug, Default)]
struct Options {
    values: BTreeMap<String, String>,
}

impl Options {
    fn get(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    fn flag(&self, key: &str) -> bool {
        self.values.contains_key(key)
    }

    fn parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| format!("option --{key} has an unparsable value `{raw}`")),
        }
    }
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut options = Options::default();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let Some(key) = arg.strip_prefix("--") else {
            return Err(format!(
                "unexpected argument `{arg}` (options start with --)"
            ));
        };
        if FLAGS.contains(&key) {
            options.values.insert(key.to_string(), "true".to_string());
            continue;
        }
        let value = iter
            .next()
            .ok_or_else(|| format!("option --{key} needs a value"))?;
        options.values.insert(key.to_string(), value.clone());
    }
    Ok(options)
}

fn generate(options: &Options) -> Result<(), String> {
    let out: PathBuf = options
        .get("out")
        .ok_or("generate needs --out <dir>")?
        .into();
    let seed: u64 = options.parsed("seed", 2006)?;
    let suite = generate_ontology_suite(&OntologySuiteConfig {
        seed,
        ..Default::default()
    });
    fs::create_dir_all(&out).map_err(|e| format!("cannot create {}: {e}", out.display()))?;
    let export = export_catalog(&suite.catalog);
    for (name, xml) in &export.ontologies {
        let path = out.join(format!("{name}.owl"));
        fs::write(&path, xml).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    for (i, xml) in export.alignments.iter().enumerate() {
        let path = out.join(format!("alignment-{i:03}.rdf"));
        fs::write(&path, xml).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    println!(
        "wrote {} ontologies and {} alignments ({} correspondences, seed {seed}) to {}",
        export.ontologies.len(),
        export.alignments.len(),
        suite.total_correspondences,
        out.display()
    );
    println!("assess them with: pdms-cli assess --dir {}", out.display());
    Ok(())
}

fn assess(options: &Options) -> Result<(), String> {
    let dir: PathBuf = options.get("dir").ok_or("assess needs --dir <dir>")?.into();
    let theta: f64 = options.parsed("theta", 0.5)?;
    let max_cycle_len: usize = options.parsed("max-cycle-len", 4)?;
    let delta: f64 = options.parsed("delta", 0.1)?;

    let mut ontologies = Vec::new();
    let mut alignments = Vec::new();
    let mut entries: Vec<PathBuf> = fs::read_dir(&dir)
        .map_err(|e| format!("cannot read {}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        match path.extension().and_then(|e| e.to_str()) {
            Some("owl") => {
                let text = read(&path)?;
                let name = stem(&path);
                let ontology =
                    parse_ontology(&text, &name).map_err(|e| format!("{}: {e}", path.display()))?;
                println!(
                    "imported ontology `{}` ({} concepts) from {}",
                    ontology.name,
                    ontology.concept_count(),
                    path.display()
                );
                ontologies.push(ontology);
            }
            Some("rdf") | Some("xml") => {
                let text = read(&path)?;
                let alignment =
                    parse_alignment(&text).map_err(|e| format!("{}: {e}", path.display()))?;
                alignments.push(alignment);
            }
            _ => {}
        }
    }
    if ontologies.is_empty() {
        return Err(format!("no .owl files found in {}", dir.display()));
    }
    println!(
        "imported {} ontologies and {} alignment documents",
        ontologies.len(),
        alignments.len()
    );

    let import = import_catalog(&ontologies, &alignments).map_err(|e| e.to_string())?;
    let session = Engine::builder()
        .delta(delta)
        .analysis(pdms::core::AnalysisConfig {
            max_cycle_len,
            max_path_len: max_cycle_len.saturating_sub(1).max(1),
            ..Default::default()
        })
        .build(import.catalog);
    println!(
        "analysis: {} evidence paths, {} variables, {} rounds (converged: {})",
        session.analysis().evidences.len(),
        session.model().variable_count(),
        session.rounds(),
        session.converged()
    );
    let catalog = session.catalog();

    // Print every correspondence with its posterior, flagged ones first.
    let mut rows: Vec<(f64, String)> = Vec::new();
    for mapping_id in catalog.mappings() {
        let (source, target) = catalog.mapping_endpoints(mapping_id);
        let source_schema = catalog.peer_schema(source);
        let target_schema = catalog.peer_schema(target);
        for (attribute, correspondence) in catalog.mapping(mapping_id).correspondences() {
            let p = session
                .posteriors()
                .probability_ignoring_bottom(mapping_id, attribute);
            let source_name = source_schema
                .attribute(attribute)
                .map(|a| a.name.clone())
                .unwrap_or_else(|| attribute.to_string());
            let target_name = target_schema
                .attribute(correspondence.target)
                .map(|a| a.name.clone())
                .unwrap_or_else(|| correspondence.target.to_string());
            rows.push((
                p,
                format!(
                    "{:<14} {:<24} -> {:<14} {:<24} P(correct) = {p:.3}{}",
                    source_schema.name(),
                    source_name,
                    target_schema.name(),
                    target_name,
                    if p < theta { "   FLAGGED" } else { "" }
                ),
            ));
        }
    }
    rows.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
    let flagged = rows.iter().filter(|(p, _)| *p < theta).count();
    println!(
        "\n{} correspondences assessed, {flagged} flagged at theta = {theta}:",
        rows.len()
    );
    for (_, line) in &rows {
        println!("  {line}");
    }
    Ok(())
}

fn intro(options: &Options) -> Result<(), String> {
    let theta: f64 = options.parsed("theta", 0.5)?;
    let (catalog, mappings) = intro_network();
    let session = Engine::builder().build(catalog);
    let catalog = session.catalog();
    println!("worked example of Section 4.5 (four art databases, five mappings)");
    println!(
        "delta = {:.2}, rounds = {}\n",
        session.delta(),
        session.rounds()
    );
    let creator = AttributeId(0);
    for mapping in catalog.mappings() {
        let (from, to) = catalog.mapping_endpoints(mapping);
        let p = session.posteriors().probability(catalog, mapping, creator);
        println!(
            "  {mapping} {:>3} -> {:<3}  P(Creator preserved) = {p:.3}{}",
            catalog.peer_name(from),
            catalog.peer_name(to),
            if p < theta { "   <-- faulty" } else { "" }
        );
    }
    let query = Query::new()
        .project(creator)
        .select(AttributeId(1), Predicate::Contains("river".into()));
    let outcome = session.route(
        catalog.mapping_endpoints(mappings.m23).0,
        &query,
        &RoutingPolicy::uniform(theta),
    );
    println!(
        "\nquery from p2: reached {} peers, {} false positives, faulty mapping used: {}",
        outcome.reached.len(),
        outcome.tainted.len(),
        outcome.forwarded_mappings().contains(&mappings.m24)
    );
    Ok(())
}

fn churn(options: &Options) -> Result<(), String> {
    let peers: usize = options.parsed("peers", 16)?;
    let epochs: usize = options.parsed("epochs", 8)?;
    let seed: u64 = options.parsed("seed", 2006)?;
    let islands: usize = options.parsed("islands", 4)?;
    let hub_exponent: f64 = options.parsed("hub-exponent", 1.6)?;
    let parallelism: usize = options.parsed("parallelism", 0)?;
    let sharded = options.flag("sharded");
    let batch_size: usize = options.parsed("batch-size", 0)?;
    let shard_parallelism: usize = options.parsed("shard-parallelism", 0)?;
    let merge_rate: f64 = options.parsed("merge-rate", 0.0)?;
    let no_splice = options.flag("no-splice");

    let topology_name = options.get("topology").unwrap_or("small-world");
    let topology = match topology_name {
        "small-world" => pdms::graph::GeneratorConfig::small_world(peers, 2, 0.2, seed),
        "scale-free" => pdms::graph::GeneratorConfig::scale_free(peers, 2, seed),
        "hub-heavy" => {
            pdms::graph::GeneratorConfig::scale_free_skewed(peers, 2, hub_exponent, seed)
        }
        "erdos-renyi" => pdms::graph::GeneratorConfig::erdos_renyi(peers, 0.15, seed),
        "ring" => pdms::graph::GeneratorConfig::ring(peers),
        "islands" => pdms::graph::GeneratorConfig::islands(islands, peers, 0.15, seed),
        other => {
            return Err(format!(
                "unknown --topology `{other}` (expected small-world, scale-free, hub-heavy, \
                 erdos-renyi, ring or islands)"
            ))
        }
    };
    let network = SyntheticNetwork::generate(SyntheticConfig {
        topology,
        attributes: 8,
        error_rate: 0.1,
        seed,
    });
    let analysis_config = pdms::core::AnalysisConfig {
        max_cycle_len: 5,
        max_path_len: 3,
        include_parallel_paths: true,
        parallelism,
        shard_parallelism,
        batch_size,
        splice: if no_splice { Some(false) } else { None },
        ..Default::default()
    };
    let embedded = pdms::core::EmbeddedConfig {
        record_history: false,
        ..Default::default()
    };
    if sharded {
        return churn_sharded(
            epochs,
            seed,
            merge_rate,
            topology_name,
            network,
            analysis_config,
            embedded,
        );
    }
    let builder = Engine::builder()
        .analysis(analysis_config)
        .embedded(embedded)
        .delta(0.1);
    let mut session = builder.clone().build(network.catalog.clone());
    println!(
        "synthetic {} network: {} peers, {} mappings, {} evidence paths; cold build took {} rounds",
        topology_name,
        session.catalog().peer_count(),
        session.catalog().mapping_count(),
        session.analysis().evidences.len(),
        session.rounds(),
    );

    let mut generator = ChurnGenerator::new(ChurnConfig {
        seed,
        merge_rate,
        ..Default::default()
    });
    println!(
        "{:>5} {:>7} {:>8} {:>8} {:>8} {:>8} {:>11} {:>11}",
        "epoch", "events", "reused", "reobs", "added", "removed", "warm-rounds", "cold-rounds"
    );
    for epoch in 0..epochs {
        let events = generator.epoch_events(session.catalog());
        let report = session.apply(&events);

        // The cost the incremental path avoids: a cold build over the same catalog.
        let cold = builder.clone().build(session.catalog().clone());
        println!(
            "{epoch:>5} {:>7} {:>8} {:>8} {:>8} {:>8} {:>11} {:>11}",
            report.events_applied,
            report.analysis.evidences_reused,
            report.analysis.evidences_reobserved,
            report.analysis.evidences_added,
            report.analysis.evidences_removed,
            report.rounds,
            cold.rounds(),
        );
    }
    let stats = session.stats();
    println!(
        "\nsession totals: {} full build, {} incremental applies, {} evidence paths added, \
         {} removed, {} re-observed",
        stats.full_builds,
        stats.incremental_applies,
        stats.evidences_added,
        stats.evidences_removed,
        stats.evidences_reobserved,
    );
    Ok(())
}

/// The `churn --sharded` path: drives a component-sharded session through the same
/// epochs, printing per-epoch shard maintenance (touched / spliced / rebuilt
/// shards, merges, splits, bridge evidence, per-shard dispatch timing) instead of
/// per-evidence accounting.
#[allow(clippy::too_many_arguments)]
fn churn_sharded(
    epochs: usize,
    seed: u64,
    merge_rate: f64,
    topology_name: &str,
    network: SyntheticNetwork,
    analysis_config: pdms::core::AnalysisConfig,
    embedded: pdms::core::EmbeddedConfig,
) -> Result<(), String> {
    let mut session = Engine::builder()
        .analysis(analysis_config)
        .embedded(embedded)
        .delta(0.1)
        .build_sharded(network.catalog.clone());
    println!(
        "synthetic {} network: {} peers, {} mappings, {} evidence paths across {} shards",
        topology_name,
        session.catalog().peer_count(),
        session.catalog().mapping_count(),
        session.evidence_count(),
        session.shard_count(),
    );
    let mut generator = ChurnGenerator::new(ChurnConfig {
        seed,
        merge_rate,
        ..Default::default()
    });
    println!(
        "{:>5} {:>7} {:>7} {:>8} {:>8} {:>8} {:>7} {:>7} {:>9} {:>7} {:>7} {:>10} {:>9} {:>9}",
        "epoch",
        "events",
        "shards",
        "touched",
        "spliced",
        "rebuilt",
        "merges",
        "splits",
        "bridge-ev",
        "rounds",
        "unconv",
        "max-rounds",
        "shard-ms",
        "worst-ms"
    );
    for epoch in 0..epochs {
        let events = generator.epoch_events(session.catalog());
        let report = session.apply_batch(&events);
        println!(
            "{epoch:>5} {:>7} {:>7} {:>8} {:>8} {:>8} {:>7} {:>7} {:>9} {:>7} {:>7} {:>10} {:>9.2} {:>9.2}",
            report.events_applied,
            session.shard_count(),
            report.shards_touched,
            report.shards_spliced,
            report.shards_rebuilt,
            report.merges,
            report.splits,
            report.splice_evidence_added,
            report.rounds,
            report.shards_unconverged,
            report.max_shard_rounds,
            report.shard_time.as_secs_f64() * 1e3,
            report.slowest_shard.as_secs_f64() * 1e3,
        );
    }
    let stats = session.stats();
    println!(
        "\nsharded totals: {} batches, {} events, {} incremental shard applies, {} warm \
         splices (+{} bridge evidence paths), {} cold shard rebuilds, {} merges, {} splits, \
         {} coalesced pairs",
        stats.batches,
        stats.events_applied,
        stats.shard_applies,
        stats.shards_spliced,
        stats.splice_evidence_added,
        stats.shard_rebuilds,
        stats.merges,
        stats.splits,
        stats.mappings_coalesced,
    );
    Ok(())
}

fn read(path: &Path) -> Result<String, String> {
    fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

fn stem(path: &Path) -> String {
    path.file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("ontology")
        .to_string()
}
