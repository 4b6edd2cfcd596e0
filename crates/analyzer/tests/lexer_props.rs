//! Property test for the lexer's comment/string state machine: random
//! interleavings of plain code fragments and "masked" fragments (comments,
//! strings, raw strings, char literals) whose contents contain every rule's
//! trigger words. The masked trigger words must never surface as identifier
//! tokens, and line numbers must stay consistent.

use cutfit_analyzer::lexer::{lex, TokKind};
use proptest::prelude::*;

/// (source text, identifiers the lexer must produce for it).
fn fragments() -> Vec<(&'static str, &'static [&'static str])> {
    vec![
        ("unwrap", &["unwrap"][..]),
        ("let x", &["let", "x"][..]),
        ("foo.unwrap()", &["foo", "unwrap"][..]),
        ("m.iter()", &["m", "iter"][..]),
        ("src as u32", &["src", "as", "u32"][..]),
        // Line comments are self-terminating so a following fragment is not
        // swallowed by the comment when the joiner is a space.
        ("// HashMap iter unwrap partial_cmp\n", &[][..]),
        ("/* partial_cmp().unwrap() SystemTime */", &[][..]),
        ("/* outer /* nested unwrap */ still masked */", &[][..]),
        ("/* multi\nline Instant::now() */", &[][..]),
        ("\"HashMap keys values\"", &[][..]),
        ("\"escaped \\\" quote unwrap\"", &[][..]),
        ("\"multi\nline string expect\"", &[][..]),
        ("r\"raw unwrap\"", &[][..]),
        ("r#\"raw with \" quote unwrap()\"#", &[][..]),
        ("r##\"## nested \"# hashes unwrap\"##", &[][..]),
        ("b\"byte unwrap\"", &[][..]),
        ("b'u'", &[][..]),
        ("'u'", &[][..]),
        ("'\\n'", &[][..]),
        ("'\\\\'", &[][..]),
        ("'\\''", &[][..]),
        ("'\\u{1F600}'", &[][..]),
        ("'a", &[][..]), // lifetime: a Lifetime token, not an Ident
        ("1e9 0x1f 10u64", &[][..]),
        ("0..n", &["n"][..]),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn masked_trigger_words_never_become_idents(
        picks in proptest::collection::vec(proptest::sample::select((0..fragments().len()).collect::<Vec<_>>()), 12),
        newline_joins in proptest::collection::vec(proptest::sample::select(vec![false, true]), 12),
    ) {
        let frags = fragments();
        let mut src = String::new();
        let mut want_idents: Vec<&str> = Vec::new();
        for (&p, &nl) in picks.iter().zip(&newline_joins) {
            let (text, idents) = frags[p];
            src.push_str(text);
            src.push(if nl { '\n' } else { ' ' });
            want_idents.extend_from_slice(idents);
        }

        let lexed = lex(&src);
        let got: Vec<&str> = lexed
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.as_str())
            .collect();
        prop_assert_eq!(&got, &want_idents, "source:\n{}", src);

        // Line numbers are 1-based, non-decreasing, and within the file.
        let total_lines = src.lines().count() as u32;
        let mut prev = 1u32;
        for t in &lexed.toks {
            prop_assert!(t.line >= prev, "line went backwards in:\n{}", src);
            prop_assert!(t.line >= 1 && t.line <= total_lines.max(1));
            prev = t.line;
        }
    }
}

#[test]
fn suppression_comments_parse_with_line_numbers() {
    let src = "fn a() {}\n// analyzer: allow(D5): reason one\nfn b() {}\n\
               let x = 1; // analyzer: allow(D4): trailing reason\n";
    let lexed = lex(src);
    assert_eq!(lexed.allows.len(), 2);
    assert_eq!(lexed.allows[0].line, 2);
    assert_eq!(lexed.allows[0].rule, "D5");
    assert_eq!(lexed.allows[0].reason, "reason one");
    assert_eq!(lexed.allows[1].line, 4);
    assert_eq!(lexed.allows[1].rule, "D4");
    assert!(lexed.malformed_allows.is_empty());
}

#[test]
fn malformed_suppressions_are_flagged_not_ignored() {
    for bad in [
        "// analyzer: allow(D5)",          // missing reason
        "// analyzer: allow(D5):",         // empty reason
        "// analyzer: allow():  why",      // empty rule
        "// analyzer: allowed(D5): typo",  // not `allow(`
        "// analyzer: suppress D5 please", // free text
    ] {
        let lexed = lex(bad);
        assert!(lexed.allows.is_empty(), "{bad}");
        assert_eq!(lexed.malformed_allows.len(), 1, "{bad}");
    }
}

#[test]
fn test_region_tracking_covers_mod_and_fn_items() {
    let src = "\
fn lib_code() {}\n\
#[cfg(test)]\n\
mod tests {\n\
    fn helper() {}\n\
    #[test]\n\
    fn t() { helper(); }\n\
}\n\
fn more_lib_code() {}\n";
    let lexed = lex(src);
    assert!(!lexed.in_test_code(1));
    for line in 2..=7 {
        assert!(lexed.in_test_code(line), "line {line}");
    }
    assert!(!lexed.in_test_code(8));
}

#[test]
fn cfg_not_test_is_not_a_test_region() {
    let src = "#[cfg(not(test))]\nfn shipping_code() {}\n";
    let lexed = lex(src);
    assert!(!lexed.in_test_code(2));
}
