//! `cutfit-benchmark`: the pinned end-to-end benchmark of the cutfit stack.
//!
//! One process runs one workload in one mode on one thread, in a closed
//! loop: set-up (several times), one warm-up repetition that verifies and
//! pins every answer, then timed repetitions of a cold pass followed by a
//! warm pass. Every layer is timed from outside, around the calls into the
//! library's public functions. See `benchmark/README.md`.

mod compare;
mod ctx;
mod json;
mod metrics;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use ctx::Ctx;
use json::{number, quote, Json};
use metrics::{Metric, END_TO_END, PER_LAYER};
use stats::{median, Summary};
use workloads::Workload;

const USAGE: &str = "\
usage: cutfit-benchmark --workload NAME [--seed N] [--seconds S | --reps R]
                        [--trace 0|1] [--out-dir DIR] [--report FILE]
                        [--print-golden]
       cutfit-benchmark compare A.jsonl B.jsonl
workloads: rmat-pagerank road-sssp select-stream tailored-session";

/// The seed whose answers `golden.json` pins.
const GOLDEN_SEED: u64 = 42;
const GOLDEN: &str = include_str!("../golden.json");

/// Set-up runs this often, so that `setup_s` is a median.
const SETUP_REPS: u32 = 3;

/// A run must end well inside the 180 s the driver allows.
const WALL_LIMIT: Duration = Duration::from_secs(150);

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    reps: Option<u32>,
    trace: bool,
    out_dir: PathBuf,
    report: Option<PathBuf>,
    print_golden: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: GOLDEN_SEED,
        seconds: 12.0,
        reps: None,
        trace: false,
        out_dir: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out")),
        report: None,
        print_golden: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--print-golden" {
            args.print_golden = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.to_string(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err(bad());
                }
            }
            "--reps" => args.reps = Some(value.parse().ok().filter(|&r| r >= 1).ok_or_else(bad)?),
            "--trace" => {
                args.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out-dir" => args.out_dir = PathBuf::from(value),
            "--report" => args.report = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !workloads::NAMES.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

/// Two benchmark processes on two cores would measure the scheduler.
fn another_benchmark_is_running() -> Option<u32> {
    let me = std::process::id();
    let own_name = std::fs::read_to_string("/proc/self/comm").ok()?;
    std::fs::read_dir("/proc")
        .ok()?
        .filter_map(|e| e.ok()?.file_name().to_str()?.parse::<u32>().ok())
        .filter(|&pid| pid != me)
        .find(|pid| {
            std::fs::read_to_string(format!("/proc/{pid}/comm")).is_ok_and(|c| c == own_name)
        })
}

/// The directory the input files live in; removed when the run ends,
/// however it ends.
struct Scratch(PathBuf);

impl Scratch {
    fn create(out_dir: &Path, workload: &str) -> std::io::Result<Self> {
        let dir = out_dir.join(format!("scratch-{workload}-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        // Nothing to do about a failure here; the directory is ignored by git.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Everything one run measured.
#[derive(Default)]
struct Outcome {
    setup_s: Vec<f64>,
    /// Untraced repetitions: the end-to-end samples.
    cold_s: Vec<f64>,
    warm_s: Vec<f64>,
    /// Traced repetitions (traced mode only).
    traced_cold_s: Vec<f64>,
    traced_warm_s: Vec<f64>,
    graph_edges: u64,
    results_per_rep: u64,
    peak_rss_mb: f64,
    completed: bool,
}

fn drive<W: Workload>(args: &Args, dir: &Path, ctx: &mut Ctx) -> Outcome {
    let started = Instant::now();
    let mut out = Outcome::default();

    // Set-up several times over, so that `setup_s` is a median too. Only
    // the last input is kept; the earlier ones are dropped first so that
    // set-up does not set the memory high-water mark. Its spans share
    // repetition 0 with the warm-up: everything that is not timed.
    let mut input = None;
    for _ in 0..SETUP_REPS {
        drop(input.take());
        ctx.tracer.start_rep(0, args.trace);
        let t = Instant::now();
        let made = ctx.span("setup", |ctx| W::setup(args.seed, dir, ctx));
        out.setup_s.push(t.elapsed().as_secs_f64());
        ctx.end_unit(true);
        match made {
            Ok(made) => input = Some(made),
            Err(_) => return out,
        }
    }
    let input = input.expect("at least one set-up iteration");
    (out.graph_edges, out.results_per_rep) = W::work(&input);

    // Repetition 0 warms the allocator and the page cache, verifies every
    // answer against its oracle and pins it; its times are thrown away.
    // In traced mode the timed repetitions alternate traced and untraced,
    // which is what `trace.overhead_pct` compares.
    let pairs = if args.trace { 2 } else { 1 };
    let floor = if args.trace { 4 } else { 3 };
    let mut timed_from = Instant::now();
    for rep in 0u32.. {
        let warm_up = rep == 0;
        let traced = args.trace && (warm_up || rep % 2 == 1);
        ctx.pin_answers = warm_up;
        ctx.tracer.start_rep(rep, traced);

        let t0 = Instant::now();
        let handles = ctx.span("cold", |ctx| W::cold(&input, ctx));
        let t1 = Instant::now();
        let Ok(mut handles) = handles else {
            ctx.end_unit(false);
            return out;
        };
        let warmed = ctx.span("warm", |ctx| W::warm(&input, &mut handles, ctx));
        let t2 = Instant::now();
        let extras = match (&warmed, traced) {
            (Ok(()), true) => ctx.span("extras", |ctx| W::extras(&input, &mut handles, ctx)),
            _ => Ok(()),
        };
        drop(handles);
        ctx.end_unit(!warm_up);
        if warmed.is_err() || extras.is_err() {
            return out;
        }
        if warm_up {
            timed_from = Instant::now();
            continue;
        }
        let (cold, warm) = if traced {
            (&mut out.traced_cold_s, &mut out.traced_warm_s)
        } else {
            (&mut out.cold_s, &mut out.warm_s)
        };
        cold.push((t1 - t0).as_secs_f64());
        warm.push((t2 - t1).as_secs_f64());

        let done = match args.reps {
            Some(reps) => rep >= reps * pairs,
            None => rep >= floor && timed_from.elapsed().as_secs_f64() >= args.seconds,
        };
        if done || started.elapsed() >= WALL_LIMIT {
            break;
        }
    }
    out.peak_rss_mb = peak_rss_mib();
    out.completed = true;
    out
}

/// What a run recorded under a per-layer metric's own name: the seconds
/// per unit of the span `<name minus _s>`, or the count per unit.
fn layer_samples<'a>(ctx: &'a Ctx, m: &Metric) -> Option<&'a [f64]> {
    m.name
        .strip_suffix("_s")
        .and_then(|span| ctx.seconds.get(span))
        .or_else(|| ctx.counts.get(m.name))
        .map(Vec::as_slice)
}

/// The per-layer numbers of a traced run, by metric name.
fn layer_values(ctx: &Ctx, out: &Outcome) -> BTreeMap<&'static str, f64> {
    let mut values = BTreeMap::new();
    for m in &PER_LAYER {
        // A time is the median over traced units; a count is the same in
        // every unit, so its median is its value.
        if let Some(samples) = layer_samples(ctx, m) {
            values.insert(m.name, median(samples));
        }
    }
    let seconds = |span: &str| ctx.seconds.get(span).map_or(0.0, |s| median(s));
    let jobs_s = seconds("engine.pagerank") + seconds("engine.sssp") + seconds("engine.cc");
    let count = |name: &str| ctx.counts.get(name).map_or(0.0, |v| v[0]);
    if jobs_s > 0.0 {
        values.insert(
            "engine.superstep_ms",
            1e3 * jobs_s / count("engine.supersteps").max(1.0),
        );
        values.insert(
            "engine.scan_edges_per_s",
            count("engine.scanned_edges") / jobs_s,
        );
    }
    if let Some(dispatch) = ctx.seconds.get("core.session.dispatch") {
        values.insert("core.session.dispatch_ms", 1e3 * median(dispatch));
    }
    let unattributed = seconds("trace.unattributed");
    let (cold, warm) = (median(&out.traced_cold_s), median(&out.traced_warm_s));
    let untraced = median(&out.cold_s) + median(&out.warm_s);
    values.insert("trace.unattributed_s", unattributed);
    values.insert("traced.cold_s", cold);
    values.insert("traced.warm_s", warm);
    if cold + warm > 0.0 && untraced > 0.0 {
        values.insert(
            "trace.unattributed_pct",
            100.0 * unattributed / (cold + warm),
        );
        values.insert(
            "trace.overhead_pct",
            100.0 * (cold + warm - untraced) / untraced,
        );
        // Repetition 1 is the first traced one that is timed.
        let spans = ctx.tracer.spans_in_rep(1) as f64;
        values.insert(
            "trace.span_cost_pct",
            100.0 * spans * trace::Tracer::span_cost_seconds() / untraced,
        );
    }
    values.insert("failure_rate", ctx.failure_rate());
    values.insert("work.graph_edges", out.graph_edges as f64);
    values.insert("work.results_per_rep", out.results_per_rep as f64);
    values
}

/// Exact counts must not differ between repetitions of one run.
fn check_counts_repeat(ctx: &mut Ctx) {
    let unstable: Vec<&'static str> = ctx
        .counts
        .iter()
        .filter(|(_, v)| v.iter().any(|x| x.to_bits() != v[0].to_bits()))
        .map(|(name, _)| *name)
        .collect();
    let problem = (!unstable.is_empty()).then(|| format!("{unstable:?} differ"));
    ctx.verdict("exact counts repeat in every repetition", problem);
}

/// At the golden seed the answers digest and every pinned count must be
/// the ones in `golden.json`. Returns what the report says about it.
fn check_golden(args: &Args, ctx: &mut Ctx) -> &'static str {
    if args.seed != GOLDEN_SEED {
        return "not-pinned-for-this-seed";
    }
    let golden = Json::parse(GOLDEN).expect("golden.json is valid JSON");
    let Some(pinned) = golden.get(&args.workload) else {
        return "not-pinned-yet";
    };
    let mut wrong = Vec::new();
    let digest = format!("{:#018x}", ctx.answers_digest());
    if pinned.get("answers_fnv1a").and_then(Json::as_str) != Some(&digest) {
        wrong.push(format!("answers digest is {digest}"));
    }
    let counts = pinned.get("counts").and_then(Json::as_object);
    for (name, want) in counts.into_iter().flatten() {
        let got = ctx.counts.get(name.as_str()).map(|v| v[0]);
        // Counts that only traced repetitions record are absent from a
        // measured run.
        if got.is_some() && got != want.as_f64() {
            wrong.push(format!("{name} is {got:?}, pinned {want:?}"));
        }
    }
    let matches = wrong.is_empty();
    ctx.verdict("golden.json", (!matches).then(|| format!("{wrong:?}")));
    if matches {
        "match"
    } else {
        "MISMATCH"
    }
}

fn golden_fragment(args: &Args, ctx: &Ctx) -> String {
    let counts: Vec<String> = ctx
        .counts
        .iter()
        .map(|(name, v)| format!("      {}: {}", quote(name), number(v[0])))
        .collect();
    format!(
        "  {}: {{\n    \"answers_fnv1a\": \"{:#018x}\",\n    \"counts\": {{\n{}\n    }}\n  }}",
        quote(&args.workload),
        ctx.answers_digest(),
        counts.join(",\n")
    )
}

fn print_row(m: &Metric, samples: &[f64], note: &str) {
    match Summary::of(samples) {
        Some(s) if s.n > 1 => println!(
            "  {:<36} {:>14.6} {:<8} n={:<3} q1 {:.6}  q3 {:.6}  min {:.6}  max {:.6}  {note}",
            m.name, s.median, m.unit, s.n, s.q1, s.q3, s.min, s.max
        ),
        Some(s) => println!(
            "  {:<36} {:>14.6} {:<8} n=1   {note}",
            m.name, s.median, m.unit
        ),
        None => println!("  {:<36} {:>14} {:<8} n=0   {note}", m.name, "-", m.unit),
    }
}

fn metrics_json(values: &[(&Metric, f64)]) -> String {
    let items: Vec<String> = values
        .iter()
        .map(|(m, v)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(m.name),
                number(*v),
                quote(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", items.join(", "))
}

fn samples_json(named: &[(&str, &[f64])]) -> String {
    let items: Vec<String> = named
        .iter()
        .map(|(name, v)| {
            let nums: Vec<String> = v.iter().map(|x| number(*x)).collect();
            format!("{}: [{}]", quote(name), nums.join(", "))
        })
        .collect();
    format!("{{{}}}", items.join(", "))
}

fn run(args: &Args) -> Result<bool, String> {
    if let Some(pid) = another_benchmark_is_running() {
        return Err(format!(
            "another cutfit-benchmark is running (pid {pid}); two runs at once measure the scheduler"
        ));
    }
    std::fs::create_dir_all(&args.out_dir).map_err(|e| format!("{:?}: {e}", args.out_dir))?;
    let scratch = Scratch::create(&args.out_dir, &args.workload).map_err(|e| e.to_string())?;
    let mut ctx = Ctx::new();
    let out = match args.workload.as_str() {
        "rmat-pagerank" => {
            drive::<workloads::rmat_pagerank::RmatPagerank>(args, &scratch.0, &mut ctx)
        }
        "road-sssp" => drive::<workloads::road_sssp::RoadSssp>(args, &scratch.0, &mut ctx),
        "select-stream" => {
            drive::<workloads::select_stream::SelectStream>(args, &scratch.0, &mut ctx)
        }
        "tailored-session" => {
            drive::<workloads::tailored_session::TailoredSession>(args, &scratch.0, &mut ctx)
        }
        other => unreachable!("parse_args admitted {other}"),
    };
    drop(scratch);
    if !out.completed {
        // No numbers from a run that lost a pass: fail, and say how badly.
        return Err(format!(
            "{}: the run was abandoned; failure_rate = {} failed / {} attempted",
            args.workload, ctx.failed, ctx.attempted
        ));
    }
    check_counts_repeat(&mut ctx);
    let golden = check_golden(args, &mut ctx);
    if args.print_golden {
        println!("{}", golden_fragment(args, &ctx));
    }

    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = std::env::var("CUTFIT_BENCH_RUSTC").unwrap_or_else(|_| "unknown".to_string());
    let mode = if args.trace { "traced" } else { "measured" };
    println!(
        "cutfit-benchmark {}  mode {mode}  seed {}  threads 1  nproc {nproc}  {rustc}",
        args.workload, args.seed
    );

    let (cold, warm) = (median(&out.cold_s), median(&out.warm_s));
    let work = out.graph_edges * out.results_per_rep;
    let edges_per_s = work as f64 / (cold + warm);
    let sim_s = ctx.counts.get("sim_s").map_or(&[][..], Vec::as_slice);
    let failure_rate = ctx.failure_rate();
    let e2e: Vec<(&Metric, Vec<f64>)> = END_TO_END
        .iter()
        .map(|m| {
            let samples = match m.name {
                "setup_s" => out.setup_s.clone(),
                "cold_s" => out.cold_s.clone(),
                "warm_s" => out.warm_s.clone(),
                "edges_per_s" => vec![edges_per_s],
                "peak_rss_mb" => vec![out.peak_rss_mb],
                other => unreachable!("no source for {other}"),
            };
            (m, samples)
        })
        .collect();
    println!("end to end (untraced repetitions):");
    for (m, samples) in &e2e {
        let note = match m.name {
            "edges_per_s" => format!(
                "= {} edges x {} results / (cold_s + warm_s)",
                out.graph_edges, out.results_per_rep
            ),
            _ => String::new(),
        };
        print_row(m, samples, &note);
    }
    print_row(
        &metrics::EXACT[0],
        sim_s,
        "exact; the same in every repetition",
    );
    print_row(
        &metrics::EXACT[1],
        &[failure_rate],
        &format!("= {} failed / {} attempted", ctx.failed, ctx.attempted),
    );
    println!("  answers: golden.json {golden}");
    for f in &ctx.failures {
        println!("  FAILED {f}");
    }

    let mut layers = BTreeMap::new();
    if args.trace {
        layers = layer_values(&ctx, &out);
        println!("per layer (median per traced repetition; counts exact):");
        for m in &PER_LAYER {
            match (layer_samples(&ctx, m), layers.get(m.name)) {
                (Some(samples), _) => print_row(m, samples, ""),
                (None, Some(v)) => print_row(m, &[*v], "derived"),
                (None, None) => print_row(m, &[], "not on this workload"),
            }
        }
        println!("self time by span (whole run, seconds):");
        for (name, (n, s)) in ctx.tracer.self_seconds_by_name() {
            println!("  {name:<36} {s:>14.6} s        n={n}");
        }
        ctx.tracer
            .write_files(&args.out_dir, &args.workload)
            .map_err(|e| format!("writing the trace: {e}"))?;
        println!(
            "  trace: {}/{}.trace.{{jsonl,json}}",
            args.out_dir.display(),
            args.workload
        );
    }

    let correct = ctx.failed == 0;
    if let Some(path) = &args.report {
        use std::io::Write;
        let layer_items: Vec<String> = layers
            .iter()
            .map(|(k, v)| format!("{}: {}", quote(k), number(*v)))
            .collect();
        let line = format!(
            "{{\"workload\": {}, \"mode\": {}, \"seed\": {}, \"nproc\": {nproc}, \"threads\": 1, \
             \"rustc\": {}, \"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \
             \"golden\": {}, \"answers_fnv1a\": \"{:#018x}\", \"samples\": {}, \"values\": {}, \
             \"layers\": {{{}}}}}\n",
            quote(&args.workload),
            quote(mode),
            args.seed,
            quote(&rustc),
            ctx.attempted,
            ctx.failed,
            quote(golden),
            ctx.answers_digest(),
            samples_json(&[
                ("setup_s", &out.setup_s),
                ("cold_s", &out.cold_s),
                ("warm_s", &out.warm_s),
            ]),
            samples_json(&[
                ("edges_per_s", &[edges_per_s][..]),
                ("peak_rss_mb", &[out.peak_rss_mb][..]),
                // Empty on a workload that bills no cluster.
                ("sim_s", sim_s.first().map_or(&[][..], std::slice::from_ref)),
                ("failure_rate", &[failure_rate][..]),
            ]),
            layer_items.join(", "),
        );
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| f.write_all(line.as_bytes()))
            .map_err(|e| format!("{path:?}: {e}"))?;
    }

    // The driver reads the last line of standard output.
    let metrics = if args.trace {
        let values: Vec<(&Metric, f64)> = PER_LAYER
            .iter()
            .map(|m| (m, layers.get(m.name).copied().unwrap_or(0.0)))
            .collect();
        metrics_json(&values)
    } else {
        let values: Vec<(&Metric, f64)> = e2e.iter().map(|(m, s)| (*m, median(s))).collect();
        metrics_json(&values)
    };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        ctx.attempted, ctx.failed
    );
    Ok(correct)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return match argv.as_slice() {
            [_, a, b] => compare::main(Path::new(a), Path::new(b)),
            _ => {
                eprintln!("{USAGE}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("{why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("{why}");
            ExitCode::FAILURE
        }
    }
}
