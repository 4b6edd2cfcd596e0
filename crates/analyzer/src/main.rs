//! Command-line entry point.
//!
//! ```text
//! cutfit-analyzer check [--root DIR]
//! cutfit-analyzer rules
//! ```
//!
//! `check` prints each finding as `file:line: rule: message` and exits 0
//! when there are none, 1 when there are any, 2 on usage or I/O errors.

use std::path::PathBuf;
use std::process::ExitCode;

use cutfit_analyzer::rules::Rule;

fn parse_root(args: &[String]) -> Result<PathBuf, String> {
    match args {
        [] => Ok(PathBuf::from(".")),
        [flag, dir] if flag == "--root" => Ok(PathBuf::from(dir)),
        [flag] if flag == "--root" => Err("--root needs a value".to_string()),
        [other, ..] => Err(format!("unknown flag: {other}")),
    }
}

fn cmd_check(root: &std::path::Path) -> Result<bool, String> {
    let (findings, files) =
        cutfit_analyzer::scan_tree(root).map_err(|e| format!("scan failed: {e}"))?;
    for f in &findings {
        println!("{}", f.render());
    }
    println!(
        "cutfit-analyzer: {} findings in {files} files",
        findings.len()
    );
    Ok(findings.is_empty())
}

fn cmd_rules() {
    println!("rule  scope                              description");
    for r in Rule::all() {
        let scope = match r {
            Rule::D1 | Rule::D3 => "engine,partition,graph,cluster,core",
            Rule::D2 => "all crates",
            Rule::D4 | Rule::D5 => "all crates except shims",
        };
        println!("{:<5} {:<34} {}", r.id(), scope, r.describe());
    }
    println!("\nsuppress with: // analyzer: allow(D?): reason   (same line or line above)");
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let usage = "usage: cutfit-analyzer <check|rules> [--root DIR]";
    let Some(cmd) = args.first() else {
        eprintln!("{usage}");
        return ExitCode::from(2);
    };
    let result: Result<bool, String> = match cmd.as_str() {
        "check" => parse_root(&args[1..]).and_then(|root| cmd_check(&root)),
        "rules" => {
            cmd_rules();
            Ok(true)
        }
        other => Err(format!("unknown command `{other}`\n{usage}")),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("cutfit-analyzer: {e}");
            ExitCode::from(2)
        }
    }
}
