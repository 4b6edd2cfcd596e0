//! End-to-end tests over a synthetic repository tree: the source walker, and
//! `check`'s exit code on a tree with and without a finding.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

use cutfit_analyzer::source_files;

/// Builds `<tmp>/<name>/crates/demo/src/lib.rs` with the given source and
/// returns the tree root.
fn demo_tree(name: &str, lib_src: &str) -> PathBuf {
    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let src_dir = root.join("crates/demo/src");
    fs::create_dir_all(&src_dir).expect("test tmpdir");
    fs::write(
        root.join("crates/demo/Cargo.toml"),
        "[package]\nname = \"demo\"\n",
    )
    .expect("test tmpdir");
    fs::write(src_dir.join("lib.rs"), lib_src).expect("test tmpdir");
    root
}

const ONE_UNWRAP: &str = "pub fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n";
const CLEAN: &str = "pub fn f(x: Option<u32>) -> u32 {\n    x.unwrap_or(0)\n}\n";

#[test]
fn walker_finds_sources_in_sorted_order() {
    let root = demo_tree("walker", CLEAN);
    fs::create_dir_all(root.join("crates/demo/src/sub")).expect("test tmpdir");
    fs::write(root.join("crates/demo/src/sub/inner.rs"), "").expect("test tmpdir");
    let files = source_files(&root).expect("walk");
    assert_eq!(
        files,
        vec![
            "crates/demo/src/lib.rs".to_string(),
            "crates/demo/src/sub/inner.rs".to_string()
        ]
    );
}

/// Runs the `check` subcommand on `root`; returns its exit code and stdout.
fn check(root: &Path) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_cutfit-analyzer"))
        .arg("check")
        .arg("--root")
        .arg(root)
        .output()
        .expect("analyzer binary runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

#[test]
fn one_unwrap_fails_check_and_the_clean_tree_passes() {
    let (code, stdout) = check(&demo_tree("dirty", ONE_UNWRAP));
    assert_eq!(code, Some(1), "{stdout}");
    assert!(
        stdout.starts_with("crates/demo/src/lib.rs:2: D5: "),
        "{stdout}"
    );

    let (code, stdout) = check(&demo_tree("clean", CLEAN));
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.contains("0 findings in 1 files"), "{stdout}");
}
