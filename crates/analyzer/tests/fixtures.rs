//! Fixture-driven rule tests: each file under `tests/fixtures/` marks the
//! lines that must produce findings with `//~ RULE` comments; every other
//! line must stay silent. This covers each rule's positive cases, the
//! patterns inside strings/comments that must NOT fire, the suppression
//! grammar, and `#[cfg(test)]` exemption in one sweep per rule.

use cutfit_analyzer::rules::scan_file;

/// Parses `//~ D1 [D2 …]` markers into expected `(line, rule)` pairs.
fn expected(src: &str) -> Vec<(u32, String)> {
    let mut out = Vec::new();
    for (i, line) in src.lines().enumerate() {
        if let Some(pos) = line.find("//~") {
            for id in line[pos + 3..]
                .split_whitespace()
                .take_while(|id| id.len() == 2 && id.starts_with('D'))
            {
                out.push((i as u32 + 1, id.to_string()));
            }
        }
    }
    out.sort();
    out
}

fn check_fixture(relpath: &str, src: &str) {
    let mut actual: Vec<(u32, String)> = scan_file(relpath, src)
        .into_iter()
        .map(|f| (f.line, f.rule.id().to_string()))
        .collect();
    actual.sort();
    assert_eq!(actual, expected(src), "fixture scanned as {relpath}");
}

#[test]
fn d1_hash_iteration() {
    check_fixture(
        "crates/engine/src/fixture_d1.rs",
        include_str!("fixtures/d1.rs"),
    );
}

#[test]
fn d2_nan_unsafe_comparisons() {
    // Shims tier: only D2 applies, so the fixture's unwraps don't trip D5.
    check_fixture(
        "crates/shims/demo/src/fixture_d2.rs",
        include_str!("fixtures/d2.rs"),
    );
}

#[test]
fn d3_clock_reads() {
    check_fixture(
        "crates/engine/src/fixture_d3.rs",
        include_str!("fixtures/d3.rs"),
    );
}

#[test]
fn d4_truncating_casts() {
    check_fixture(
        "crates/partition/src/fixture_d4.rs",
        include_str!("fixtures/d4.rs"),
    );
}

#[test]
fn d5_unwrap_in_lib() {
    check_fixture(
        "crates/util/src/fixture_d5.rs",
        include_str!("fixtures/d5.rs"),
    );
}

#[test]
fn d1_does_not_apply_outside_deterministic_crates() {
    // The same D1 fixture under a util path produces nothing: D1 is scoped
    // to the billed crates, and the fixture has no D2/D4/D5 triggers.
    let findings = scan_file(
        "crates/util/src/fixture_d1.rs",
        include_str!("fixtures/d1.rs"),
    );
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn skipped_paths_produce_nothing() {
    for path in [
        "crates/engine/tests/fixture_d1.rs",
        "crates/engine/benches/fixture_d1.rs",
        "crates/engine/examples/fixture_d1.rs",
        "crates/engine/src/bin/fixture_d1.rs",
        "crates/engine/src/main.rs",
    ] {
        assert!(
            scan_file(path, include_str!("fixtures/d1.rs")).is_empty(),
            "{path} should be skipped"
        );
    }
}

#[test]
fn findings_render_as_file_line_rule() {
    let f = &scan_file(
        "crates/engine/src/fixture_d3.rs",
        include_str!("fixtures/d3.rs"),
    )[0];
    let rendered = f.render();
    assert!(
        rendered.starts_with("crates/engine/src/fixture_d3.rs:3: D3: "),
        "{rendered}"
    );
    assert!(rendered.contains("Instant::now"), "{rendered}");
}
