//! `cutfit-analyzer` — project-specific determinism lints for the cutfit
//! workspace.
//!
//! The workspace's load-bearing guarantee is that every executor mode and
//! shard schedule produces bit-identical billed results. The compiler cannot
//! check that, so this crate encodes the idioms that have historically broken
//! it as five lint rules (D1–D5, see [`rules`]) and enforces them over every
//! `crates/*/src` tree with a hand-rolled, comment/string-aware lexer
//! ([`lexer`]) — no `syn`, no dependencies, builds first in a cold offline
//! checkout.
//!
//! There is no frozen debt: `check` fails on any finding. Intentional
//! exceptions are written in the source as `// analyzer: allow(Dx): reason`
//! and are themselves validated — a typo in a suppression is a hard error,
//! not a silent pass.

pub mod lexer;
pub mod rules;

use std::path::{Path, PathBuf};

use rules::Finding;

/// Lists the repo-relative paths of every Rust source file the analyzer
/// scans: `crates/*/src/**.rs` plus the umbrella crate's `src/`, in sorted
/// order so reports are deterministic.
pub fn source_files(root: &Path) -> std::io::Result<Vec<String>> {
    let mut out: Vec<String> = Vec::new();
    let mut crate_dirs: Vec<PathBuf> = Vec::new();
    let crates = root.join("crates");
    if crates.is_dir() {
        collect_crate_dirs(&crates, &mut crate_dirs)?;
    }
    crate_dirs.push(root.to_path_buf());
    crate_dirs.sort();
    for dir in crate_dirs {
        let src = dir.join("src");
        if src.is_dir() {
            walk_rs(&src, &mut out)?;
        }
    }
    let mut rel: Vec<String> = out
        .iter()
        .filter_map(|p| {
            Path::new(p)
                .strip_prefix(root)
                .ok()
                .map(|r| r.to_string_lossy().replace('\\', "/"))
        })
        .collect();
    rel.sort();
    Ok(rel)
}

/// Recursively finds crate directories (directories containing `Cargo.toml`)
/// under `crates/`, including nested ones like `crates/shims/proptest`.
fn collect_crate_dirs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    entries.sort();
    for p in entries {
        if p.join("Cargo.toml").is_file() {
            out.push(p.clone());
        }
        collect_crate_dirs(&p, out)?;
    }
    Ok(())
}

fn walk_rs(dir: &Path, out: &mut Vec<String>) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .collect();
    entries.sort();
    for p in entries {
        if p.is_dir() {
            walk_rs(&p, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p.to_string_lossy().into_owned());
        }
    }
    Ok(())
}

/// Scans the whole tree under `root` and returns all findings, sorted.
pub fn scan_tree(root: &Path) -> std::io::Result<(Vec<Finding>, usize)> {
    let files = source_files(root)?;
    let mut findings = Vec::new();
    let count = files.len();
    for rel in &files {
        let src = std::fs::read_to_string(root.join(rel))?;
        findings.extend(rules::scan_file(rel, &src));
    }
    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok((findings, count))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scan_tree_on_this_repo_finds_nothing() {
        // The analyzer's own acceptance test, kept here in addition to CI so
        // `cargo test` alone catches a new finding.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let (findings, _) = scan_tree(&root).expect("scan succeeds");
        let rendered: Vec<String> = findings.iter().map(Finding::render).collect();
        assert!(findings.is_empty(), "{}", rendered.join("\n"));
    }
}
