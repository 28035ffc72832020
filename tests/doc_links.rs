//! Markdown link checker: every relative link in the repository's documentation
//! must point at a file or directory that actually exists, so README/docs links
//! cannot rot. CI runs this as part of the test suite (and as a dedicated step
//! in the docs job); external (`http*`) links are out of scope — the repo builds
//! offline.

use std::path::{Path, PathBuf};

/// Directories scanned for markdown files (non-recursive except `docs/`).
const ROOTS: &[&str] = &[".", "docs", ".github"];

fn markdown_files() -> Vec<PathBuf> {
    let mut files = Vec::new();
    for root in ROOTS {
        let Ok(entries) = std::fs::read_dir(root) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) == Some("md") {
                files.push(path);
            }
        }
    }
    files.sort();
    files
}

/// Extracts `[text](target)` link targets outside fenced code blocks.
fn link_targets(markdown: &str) -> Vec<String> {
    let mut targets = Vec::new();
    let mut in_fence = false;
    for line in markdown.lines() {
        if line.trim_start().starts_with("```") {
            in_fence = !in_fence;
            continue;
        }
        if in_fence {
            continue;
        }
        let mut rest = line;
        while let Some(open) = rest.find("](") {
            let after = &rest[open + 2..];
            let Some(close) = after.find(')') else {
                break;
            };
            targets.push(after[..close].to_string());
            rest = &after[close + 1..];
        }
    }
    targets
}

#[test]
fn relative_markdown_links_resolve() {
    let files = markdown_files();
    assert!(
        files.iter().any(|f| f.ends_with("README.md")),
        "README.md must exist at the repository root"
    );
    assert!(
        files.len() >= 5,
        "expected the documentation set, found only {files:?}"
    );
    let mut broken = Vec::new();
    for file in &files {
        let text = std::fs::read_to_string(file).expect("readable markdown");
        let dir = file.parent().unwrap_or(Path::new("."));
        for target in link_targets(&text) {
            // External links, mail links and in-page anchors are out of scope;
            // so are image references (PAPERS.md carries figure placeholders
            // from the paper-extraction pipeline).
            let lower = target.to_ascii_lowercase();
            if target.starts_with("http://")
                || target.starts_with("https://")
                || target.starts_with("mailto:")
                || target.starts_with('#')
                || [".jpeg", ".jpg", ".png", ".gif", ".svg"]
                    .iter()
                    .any(|ext| lower.ends_with(ext))
            {
                continue;
            }
            // Strip an anchor suffix from relative links.
            let path_part = target.split('#').next().unwrap_or(&target);
            if path_part.is_empty() {
                continue;
            }
            let resolved = dir.join(path_part);
            if !resolved.exists() {
                broken.push(format!("{}: ({target})", file.display()));
            }
        }
    }
    assert!(
        broken.is_empty(),
        "broken relative links:\n{}",
        broken.join("\n")
    );
}

#[test]
fn documented_commands_reference_real_binaries() {
    // Every `cargo run … --bin <name>` mentioned in the docs must name a binary
    // that exists in the workspace. A `<placeholder>` names no binary.
    let mut missing = Vec::new();
    for file in markdown_files() {
        let text = std::fs::read_to_string(&file).expect("readable markdown");
        for token in text.split_whitespace().collect::<Vec<_>>().windows(2) {
            if token[0] == "--bin" && !token[1].trim_matches('`').starts_with('<') {
                let name = token[1]
                    .trim_matches(|c: char| !c.is_ascii_alphanumeric() && c != '_' && c != '-');
                let candidates = [
                    PathBuf::from(format!("src/bin/{name}.rs")),
                    PathBuf::from(format!("crates/bench/src/bin/{name}.rs")),
                ];
                if !candidates.iter().any(|p| p.exists()) {
                    missing.push(format!("{}: --bin {name}", file.display()));
                }
            }
        }
    }
    assert!(
        missing.is_empty(),
        "unknown binaries referenced:\n{}",
        missing.join("\n")
    );
}
