//! `cutfit-benchmark compare A.jsonl B.jsonl`: two sets of run reports (as
//! `--report` appends them), one row per workload and end-to-end metric.
//!
//! A metric's samples are the repetitions of the run when a set holds one
//! run of the workload, and the medians of the runs when it holds several.
//! The verdict is `unresolved` when either side's quartile spread exceeds
//! the metric's bound — unless every sample of one side beats every sample
//! of the other — and otherwise `worse` or `better` when the medians differ
//! by more than the bound, else `same`. Exits non-zero on any `worse`,
//! which includes any rise of `sim_s` or `failure_rate`.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

use crate::json::Json;
use crate::metrics::{Better, Metric, END_TO_END, EXACT, PER_LAYER};
use crate::stats::Summary;

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum Verdict {
    Same,
    Better,
    Worse,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// `a` is the baseline, `b` the candidate.
pub fn verdict(m: &Metric, a: &Summary, b: &Summary) -> Verdict {
    let bound = m.bound.unwrap_or(0.0);
    // Positive when the candidate is worse.
    let sign = match m.better {
        Better::Lower => 1.0,
        Better::Higher => -1.0,
    };
    let worse_by = if a.median == 0.0 {
        sign * (b.median - a.median)
    } else {
        sign * (b.median - a.median) / a.median.abs()
    };
    let (b_all_worse, b_all_better) = match m.better {
        Better::Lower => (b.min > a.max, b.max < a.min),
        Better::Higher => (b.max < a.min, b.min > a.max),
    };
    if a.spread().max(b.spread()) > bound && !(b_all_worse || b_all_better) {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

type Runs = BTreeMap<String, Vec<Json>>;

/// The reports of a set, by workload: `(measured, traced)`.
fn load(path: &Path) -> Result<(Runs, Runs), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let (mut measured, mut traced) = (Runs::new(), Runs::new());
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let run = Json::parse(line).map_err(|e| format!("{}:{}: {e}", path.display(), i + 1))?;
        let workload = run
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{}:{}: no workload", path.display(), i + 1))?
            .to_string();
        let runs = match run.get("mode").and_then(Json::as_str) {
            Some("traced") => &mut traced,
            _ => &mut measured,
        };
        runs.entry(workload).or_default().push(run);
    }
    Ok((measured, traced))
}

fn samples_of(run: &Json, metric: &str) -> Vec<f64> {
    ["samples", "values"]
        .iter()
        .filter_map(|key| run.get(key)?.get(metric)?.as_array())
        .flat_map(|a| a.iter().filter_map(Json::as_f64))
        .collect()
}

fn summary(runs: &[Json], metric: &str) -> Option<Summary> {
    match runs {
        [one] => Summary::of(&samples_of(one, metric)),
        many => {
            let medians: Vec<f64> = many
                .iter()
                .filter_map(|r| Summary::of(&samples_of(r, metric)).map(|s| s.median))
                .collect();
            Summary::of(&medians)
        }
    }
}

fn is_exact(m: &Metric) -> bool {
    !matches!(m.unit, "s" | "ms" | "%" | "edges/s")
}

pub fn main(a_path: &Path, b_path: &Path) -> ExitCode {
    let ((a, a_traced), (b, b_traced)) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(why), _) | (_, Err(why)) => {
            eprintln!("{why}");
            return ExitCode::from(2);
        }
    };
    println!(
        "{:<17} {:<13} {:<8} {:>13} {:>27} {:>13} {:>27} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "unit",
        "A median",
        "A [q1, q3] n",
        "B median",
        "B [q1, q3] n",
        "change",
        "bound"
    );
    let mut worse = 0;
    let mut rows = 0;
    for (workload, a_runs) in &a {
        let Some(b_runs) = b.get(workload) else {
            println!("{workload:<17} only in {}", a_path.display());
            continue;
        };
        for m in END_TO_END.iter().chain(&EXACT) {
            let (Some(sa), Some(sb)) = (summary(a_runs, m.name), summary(b_runs, m.name)) else {
                continue;
            };
            let v = verdict(m, &sa, &sb);
            worse += usize::from(v == Verdict::Worse);
            rows += 1;
            let change = if sa.median == 0.0 {
                sb.median - sa.median
            } else {
                100.0 * (sb.median - sa.median) / sa.median.abs()
            };
            let quartiles = |s: &Summary| format!("[{:.5}, {:.5}] {}", s.q1, s.q3, s.n);
            println!(
                "{:<17} {:<13} {:<8} {:>13.6} {:>27} {:>13.6} {:>27} {:>+7.2}% {:>5.0}%  {}",
                workload,
                m.name,
                m.unit,
                sa.median,
                quartiles(&sa),
                sb.median,
                quartiles(&sb),
                change,
                100.0 * m.bound.unwrap_or(0.0),
                v.as_str()
            );
        }
        let digest = |runs: &[Json]| {
            runs.last().map(|r| {
                (
                    r.get("seed").and_then(Json::as_f64),
                    r.get("answers_fnv1a")
                        .and_then(Json::as_str)
                        .map(String::from),
                )
            })
        };
        match (digest(a_runs), digest(b_runs)) {
            (Some((sa, da)), Some((sb, db))) if sa == sb => println!(
                "{workload:<17} answers       {}",
                if da == db { "identical" } else { "CHANGED" }
            ),
            _ => println!("{workload:<17} answers       not comparable (different seeds)"),
        }
        // Exact counts of the traced runs, when both sets have one.
        if let (Some(ta), Some(tb)) = (
            a_traced.get(workload).and_then(|r| r.last()),
            b_traced.get(workload).and_then(|r| r.last()),
        ) {
            let value = |run: &Json, name: &str| run.get("layers")?.get(name)?.as_f64();
            let changed: Vec<String> = PER_LAYER
                .iter()
                .filter(|m| is_exact(m))
                .filter_map(|m| {
                    let (x, y) = (value(ta, m.name), value(tb, m.name));
                    (x != y).then(|| format!("{} {x:?} -> {y:?}", m.name))
                })
                .collect();
            if changed.is_empty() {
                println!("{workload:<17} exact counts  identical");
            } else {
                println!(
                    "{workload:<17} exact counts  CHANGED: {}",
                    changed.join("; ")
                );
            }
        }
    }
    for workload in b.keys().filter(|w| !a.contains_key(*w)) {
        println!("{workload:<17} only in {}", b_path.display());
    }
    if rows == 0 {
        eprintln!("nothing to compare: no workload has a measured run in both sets");
        return ExitCode::from(2);
    }
    println!("{rows} rows, {worse} worse");
    if worse > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::end_to_end;

    fn s(v: &[f64]) -> Summary {
        Summary::of(v).unwrap()
    }

    #[test]
    fn verdicts() {
        let cold = end_to_end("cold_s").unwrap(); // lower is better
        let bound = cold.bound.unwrap();
        let base = s(&[1.00, 1.01, 1.02, 1.01, 1.00]);
        assert_eq!(verdict(cold, &base, &base), Verdict::Same);
        let slower = s(&[1.0 + 2.0 * bound; 5]);
        assert_eq!(verdict(cold, &base, &slower), Verdict::Worse);
        assert_eq!(verdict(cold, &slower, &base), Verdict::Better);
        let slightly = s(&[1.0 + bound / 2.0; 5]);
        assert_eq!(verdict(cold, &base, &slightly), Verdict::Same);
        // A spread wider than the bound resolves nothing…
        let noisy = s(&[0.4, 0.8, 1.2, 1.6, 2.0]);
        assert_eq!(verdict(cold, &base, &noisy), Verdict::Unresolved);
        // …unless every sample of one side beats every sample of the other.
        let noisy_and_slow = s(&[2.0, 2.5, 3.0, 3.5, 4.0]);
        assert_eq!(verdict(cold, &base, &noisy_and_slow), Verdict::Worse);

        let rate = end_to_end("edges_per_s").unwrap(); // higher is better
        assert_eq!(verdict(rate, &s(&[100.0]), &s(&[50.0])), Verdict::Worse);
        assert_eq!(verdict(rate, &s(&[100.0]), &s(&[150.0])), Verdict::Better);

        // Exact metrics: any rise is worse, from zero too.
        let sim = end_to_end("sim_s").unwrap();
        assert_eq!(verdict(sim, &s(&[8.5]), &s(&[8.5])), Verdict::Same);
        assert_eq!(verdict(sim, &s(&[8.5]), &s(&[8.5000001])), Verdict::Worse);
        let fails = end_to_end("failure_rate").unwrap();
        assert_eq!(verdict(fails, &s(&[0.0]), &s(&[0.0])), Verdict::Same);
        assert_eq!(verdict(fails, &s(&[0.0]), &s(&[0.01])), Verdict::Worse);
    }

    #[test]
    fn several_runs_compare_by_their_medians() {
        let run = |cold: &[f64]| {
            let nums: Vec<String> = cold.iter().map(|x| x.to_string()).collect();
            Json::parse(&format!(
                "{{\"samples\": {{\"cold_s\": [{}]}}}}",
                nums.join(",")
            ))
            .unwrap()
        };
        let one = [run(&[1.0, 2.0, 3.0])];
        assert_eq!(summary(&one, "cold_s").unwrap().n, 3);
        let two = [run(&[1.0, 2.0, 3.0]), run(&[4.0, 5.0, 6.0])];
        let s = summary(&two, "cold_s").unwrap();
        assert_eq!((s.n, s.median), (2, 3.5));
        assert!(summary(&one, "warm_s").is_none());
    }
}
