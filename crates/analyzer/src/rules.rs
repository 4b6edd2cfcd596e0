//! The determinism rules (D1–D5) and the crate-tier table that decides which
//! rules apply to which source files.
//!
//! All rules operate on the token stream produced by [`crate::lexer`], so
//! patterns inside comments, strings, and raw strings never fire. Each rule
//! is deliberately syntactic and conservative: the goal is to catch the
//! *idioms* that have produced nondeterminism bugs in this codebase, and to
//! force any intentional exception through an auditable
//! `// analyzer: allow(Dx): reason` comment.

use crate::lexer::{lex, Lexed, Tok, TokKind};

/// The rule identifiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// No iteration over `HashMap`/`HashSet` in deterministic crates.
    D1,
    /// No `partial_cmp(..).unwrap()` / `.expect()` float comparisons.
    D2,
    /// No wall-clock or host-parallelism reads in deterministic crates.
    D3,
    /// No truncating `as` casts on id-typed values.
    D4,
    /// No `unwrap()`/`expect()` in library (non-test) code.
    D5,
}

impl Rule {
    /// Stable string id used in reports and suppressions.
    pub fn id(self) -> &'static str {
        match self {
            Rule::D1 => "D1",
            Rule::D2 => "D2",
            Rule::D3 => "D3",
            Rule::D4 => "D4",
            Rule::D5 => "D5",
        }
    }

    /// One-line description shown in reports.
    pub fn describe(self) -> &'static str {
        match self {
            Rule::D1 => "HashMap/HashSet iteration order is nondeterministic; use BTreeMap/BTreeSet or a sorted Vec",
            Rule::D2 => "partial_cmp().unwrap() panics on NaN; route through cutfit_util::num::nan_last_cmp",
            Rule::D3 => "wall-clock/host-parallelism reads leak into billed results; take time from the simulator",
            Rule::D4 => "`as` silently truncates ids; use cutfit_util::num::{vid_u32, vid_index, part_index}",
            Rule::D5 => "unwrap()/expect() in library code; return an error or justify with an allow comment",
        }
    }

    /// Parses a rule id.
    pub fn parse(s: &str) -> Option<Rule> {
        match s {
            "D1" => Some(Rule::D1),
            "D2" => Some(Rule::D2),
            "D3" => Some(Rule::D3),
            "D4" => Some(Rule::D4),
            "D5" => Some(Rule::D5),
            _ => None,
        }
    }

    /// All rules, in report order.
    pub fn all() -> [Rule; 5] {
        [Rule::D1, Rule::D2, Rule::D3, Rule::D4, Rule::D5]
    }
}

/// One finding: file, line, rule and message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Path relative to the repository root, `/`-separated.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    pub rule: Rule,
    pub message: String,
}

impl Finding {
    /// `file:line: rule: message` — the canonical single-line rendering.
    pub fn render(&self) -> String {
        let (file, line, rule) = (&self.file, self.line, self.rule.id());
        format!("{file}:{line}: {rule}: {}", self.message)
    }
}

/// The crates whose outputs are billed or recorded: every rule applies.
const DETERMINISTIC_CRATES: [&str; 5] = [
    "crates/engine/",
    "crates/partition/",
    "crates/graph/",
    "crates/cluster/",
    "crates/core/",
];

/// Which rules apply to a (repo-relative) source path.
///
/// - Deterministic crates (engine, partition, graph, cluster, core): D1–D5.
/// - Test-harness shims: D2 only (they exist to fake crates.io APIs).
/// - Everything else (util, stats, algorithms, datagen, bench, the umbrella
///   crate, this analyzer): D2, D4, D5 — numeric hygiene everywhere, but
///   HashMap iteration and clocks are fine off the billed path.
pub fn rules_for(relpath: &str) -> &'static [Rule] {
    if DETERMINISTIC_CRATES.iter().any(|p| relpath.starts_with(p)) {
        &[Rule::D1, Rule::D2, Rule::D3, Rule::D4, Rule::D5]
    } else if relpath.starts_with("crates/shims/") {
        &[Rule::D2]
    } else {
        &[Rule::D2, Rule::D4, Rule::D5]
    }
}

/// True for paths the analyzer skips entirely: tests, benches, examples, and
/// binary entry points (operator-facing code is allowed to unwrap and to look
/// at the clock).
pub fn is_skipped(relpath: &str) -> bool {
    let in_dir = |d: &str| relpath.contains(&format!("/{d}/"));
    in_dir("tests")
        || in_dir("benches")
        || in_dir("examples")
        || in_dir("bin")
        || relpath
            .rsplit('/')
            .next()
            .is_some_and(|f| f.starts_with("test_") || f.starts_with("tests_") || f == "main.rs")
}

/// Scans one file and returns its findings, with suppressions applied.
/// Malformed suppression comments surface as findings of the rule they tried
/// to suppress nothing for — they always fail the build.
pub fn scan_file(relpath: &str, src: &str) -> Vec<Finding> {
    let rules = rules_for(relpath);
    if rules.is_empty() || is_skipped(relpath) {
        return Vec::new();
    }
    let lexed = lex(src);

    let mut findings: Vec<Finding> = Vec::new();
    for &rule in rules {
        let raw = match rule {
            Rule::D1 => rule_d1(&lexed),
            Rule::D2 => rule_d2(&lexed),
            Rule::D3 => rule_d3(&lexed),
            Rule::D4 => rule_d4(&lexed),
            Rule::D5 => rule_d5(&lexed),
        };
        let allowed = lexed.allows_for(rule.id());
        for (line, message) in raw {
            if lexed.in_test_code(line) {
                continue;
            }
            // A suppression covers its own line and the line below it.
            if allowed.iter().any(|&a| a == line || a + 1 == line) {
                continue;
            }
            findings.push(Finding {
                file: relpath.to_string(),
                line,
                rule,
                message,
            });
        }
    }
    for (line, msg) in &lexed.malformed_allows {
        findings.push(Finding {
            file: relpath.to_string(),
            line: *line,
            rule: Rule::D5,
            message: msg.clone(),
        });
    }
    findings.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    findings
}

/// Methods on a hash collection whose visit order is nondeterministic.
const D1_ITER_METHODS: [&str; 10] = [
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "into_keys",
    "into_values",
    "drain",
    "retain",
];

/// D1: iteration over `HashMap`/`HashSet`.
///
/// Two passes: collect bindings whose declarations mention `HashMap`/`HashSet`
/// (type annotations `name: [path::]HashMap<…>` and `let [mut] name = …` whose
/// initializer mentions one), then flag `name.iter()`-family calls and
/// `for … in [&]name` loops over those bindings. Keyed lookup stays legal.
fn rule_d1(lexed: &Lexed) -> Vec<(u32, String)> {
    let toks = &lexed.toks;
    let is_hash = |t: &Tok| t.is_ident("HashMap") || t.is_ident("HashSet");

    // Pass 1: hash-typed binding names.
    let mut names: Vec<String> = Vec::new();
    for i in 0..toks.len() {
        if !is_hash(&toks[i]) {
            continue;
        }
        // `name : [path ::]* HashMap <` — walk back over the path segments.
        let mut j = i;
        while j >= 2 && toks[j - 1].is_punct(':') && toks[j - 2].is_punct(':') {
            if j >= 3 && toks[j - 3].kind == TokKind::Ident {
                j -= 3;
            } else {
                break;
            }
        }
        // Skip `&`, `mut`, and lifetimes between the colon and the path, so
        // `m: &mut HashMap<…>` and `m: &'a HashMap<…>` are recognized too.
        while j >= 1
            && (toks[j - 1].is_punct('&')
                || toks[j - 1].is_ident("mut")
                || toks[j - 1].kind == TokKind::Lifetime)
        {
            j -= 1;
        }
        if j >= 2
            && toks[j - 1].is_punct(':')
            && !toks[j - 2].is_punct(':')
            && toks[j - 2].kind == TokKind::Ident
        {
            names.push(toks[j - 2].text.clone());
        }
    }
    // `let [mut] name = … HashMap/HashSet … ;`
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_ident("let") {
            let mut j = i + 1;
            if j < toks.len() && toks[j].is_ident("mut") {
                j += 1;
            }
            if j < toks.len() && toks[j].kind == TokKind::Ident {
                let name = toks[j].text.clone();
                // Scan the statement for a hash-collection constructor.
                let mut k = j + 1;
                let mut depth = 0i32;
                while k < toks.len() {
                    let t = &toks[k];
                    if t.is_punct('(') || t.is_punct('{') || t.is_punct('[') {
                        depth += 1;
                    } else if t.is_punct(')') || t.is_punct('}') || t.is_punct(']') {
                        depth -= 1;
                        if depth < 0 {
                            break;
                        }
                    } else if t.is_punct(';') && depth == 0 {
                        break;
                    } else if is_hash(t) {
                        names.push(name.clone());
                        break;
                    }
                    k += 1;
                }
            }
        }
        i += 1;
    }
    names.sort_unstable();
    names.dedup();

    let mut out = Vec::new();
    // Pass 2a: `name.iter()`-family.
    for i in 0..toks.len() {
        if toks[i].kind != TokKind::Ident || !names.contains(&toks[i].text) {
            continue;
        }
        if i + 2 < toks.len()
            && toks[i + 1].is_punct('.')
            && toks[i + 2].kind == TokKind::Ident
            && D1_ITER_METHODS.contains(&toks[i + 2].text.as_str())
            && toks.get(i + 3).is_some_and(|t| t.is_punct('('))
        {
            out.push((
                toks[i + 2].line,
                format!(
                    "iteration over hash collection `{}` via `.{}()` has nondeterministic order",
                    toks[i].text,
                    toks[i + 2].text
                ),
            ));
        }
    }
    // Pass 2b: `for x in [&][mut] name` (loop body or `.` chain follows).
    for i in 0..toks.len() {
        if !toks[i].is_ident("in") {
            continue;
        }
        let mut j = i + 1;
        while j < toks.len()
            && (toks[j].is_punct('&') || toks[j].is_ident("mut") || toks[j].is_punct('('))
        {
            j += 1;
        }
        if j < toks.len() && toks[j].kind == TokKind::Ident && names.contains(&toks[j].text) {
            // Only a loop over the collection itself, not `in name.keys_sorted()`.
            let direct = match toks.get(j + 1) {
                None => true,
                Some(t) => t.is_punct('{') || t.is_punct(')'),
            };
            if direct {
                out.push((
                    toks[j].line,
                    format!(
                        "`for … in {}` iterates a hash collection in nondeterministic order",
                        toks[j].text
                    ),
                ));
            }
        }
    }
    out
}

/// D2: `partial_cmp(…).unwrap()` / `.expect(…)`.
fn rule_d2(lexed: &Lexed) -> Vec<(u32, String)> {
    let toks = &lexed.toks;
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if !toks[i].is_ident("partial_cmp") {
            continue;
        }
        let Some(open) = toks.get(i + 1) else {
            continue;
        };
        if !open.is_punct('(') {
            continue;
        }
        // Match the closing paren.
        let mut depth = 0i32;
        let mut j = i + 1;
        while j < toks.len() {
            if toks[j].is_punct('(') {
                depth += 1;
            } else if toks[j].is_punct(')') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            j += 1;
        }
        if j + 2 < toks.len()
            && toks[j + 1].is_punct('.')
            && (toks[j + 2].is_ident("unwrap") || toks[j + 2].is_ident("expect"))
        {
            out.push((
                toks[j + 2].line,
                format!(
                    "`partial_cmp(..).{}()` panics on NaN; use cutfit_util::num::nan_last_cmp",
                    toks[j + 2].text
                ),
            ));
        }
    }
    out
}

/// D3: wall-clock and host-parallelism reads.
fn rule_d3(lexed: &Lexed) -> Vec<(u32, String)> {
    let toks = &lexed.toks;
    let mut out = Vec::new();
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.is_ident("Instant")
            && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 3).is_some_and(|t| t.is_ident("now"))
        {
            out.push((
                t.line,
                "`Instant::now()` reads the wall clock; billed time must come from the simulator"
                    .to_string(),
            ));
        } else if t.is_ident("SystemTime") {
            out.push((
                t.line,
                "`SystemTime` reads the wall clock; billed time must come from the simulator"
                    .to_string(),
            ));
        } else if t.is_ident("available_parallelism") {
            out.push((t.line, "`available_parallelism()` makes results depend on the host; thread count must be configuration".to_string()));
        }
    }
    out
}

/// Identifier names that denote graph/partition ids; any `*_id`-suffixed
/// name is also id-ish.
const D4_ID_NAMES: [&str; 14] = [
    "src",
    "dst",
    "vid",
    "gid",
    "vertex",
    "vertex_id",
    "part",
    "part_id",
    "home",
    "id",
    "root",
    "label",
    "owner",
    "rep",
];

/// D4: truncating `as` casts on id-typed expressions.
///
/// Flags `NAME as u32|u16|u8` (narrowing) and `NAME as usize` where NAME is
/// id-ish. The checked helpers live in `cutfit_util::num`; the one deliberate
/// widening there carries its own allow comment.
fn rule_d4(lexed: &Lexed) -> Vec<(u32, String)> {
    let toks = &lexed.toks;
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if !toks[i].is_ident("as") || i == 0 {
            continue;
        }
        let Some(target) = toks.get(i + 1) else {
            continue;
        };
        let narrowing = target.is_ident("u32") || target.is_ident("u16") || target.is_ident("u8");
        let to_index = target.is_ident("usize");
        if !narrowing && !to_index {
            continue;
        }
        let prev = &toks[i - 1];
        if prev.kind != TokKind::Ident {
            continue;
        }
        let name = prev.text.as_str();
        let id_ish = D4_ID_NAMES.contains(&name) || name.ends_with("_id");
        if id_ish {
            out.push((
                prev.line,
                format!(
                    "`{} as {}` can truncate an id; use cutfit_util::num::{}",
                    name,
                    target.text,
                    if to_index {
                        "vid_index/part_index"
                    } else {
                        "vid_u32"
                    }
                ),
            ));
        }
    }
    out
}

/// D5: `.unwrap()` / `.expect(` in library (non-test) code.
fn rule_d5(lexed: &Lexed) -> Vec<(u32, String)> {
    let toks = &lexed.toks;
    let mut out = Vec::new();
    for i in 0..toks.len() {
        let t = &toks[i];
        let is_target = t.is_ident("unwrap") || t.is_ident("expect");
        if !is_target {
            continue;
        }
        if i == 0 || !toks[i - 1].is_punct('.') {
            continue;
        }
        if !toks.get(i + 1).is_some_and(|n| n.is_punct('(')) {
            continue;
        }
        out.push((
            t.line,
            format!(
                "`.{}()` in library code; return an error or add an allow with justification",
                t.text
            ),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tier_table() {
        assert_eq!(rules_for("crates/engine/src/pregel.rs").len(), 5);
        assert_eq!(rules_for("crates/shims/proptest/src/lib.rs"), &[Rule::D2]);
        assert_eq!(
            rules_for("crates/util/src/num.rs"),
            &[Rule::D2, Rule::D4, Rule::D5]
        );
    }

    #[test]
    fn skips_tests_benches_examples_bins() {
        assert!(is_skipped("crates/engine/tests/determinism.rs"));
        assert!(is_skipped("crates/bench/src/bin/grid.rs"));
        assert!(is_skipped("crates/core/examples/figure3.rs"));
        assert!(is_skipped("crates/analyzer/src/main.rs"));
        assert!(!is_skipped("crates/engine/src/pregel.rs"));
    }
}
