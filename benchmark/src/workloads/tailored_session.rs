//! `tailored-session`: the paper's headline scenario — tailor the cut to
//! each computation — through the serving layer (`core::session`,
//! `core::advisor`). The cold pass loads the container, probes every
//! candidate cut per algorithm (twelve materializations: six strategies in
//! two orientations) and pays the repartition charges; the warm pass is
//! cache hits and two cut switches. The gap between the two *is* what the
//! serving layer is for. It is the only workload that runs Triangle Count
//! (a non-Pregel dataflow over the canonical orientation) and the only one
//! that uses the engine as many short jobs, not one long one.

use std::path::{Path, PathBuf};

use cutfit_core::algorithms::triangles::{canonicalize, triangle_count_partitioned};
use cutfit_core::algorithms::{
    connected_components, pagerank, reference_components, reference_pagerank, reference_sssp, sssp,
    Algorithm, Sssp,
};
use cutfit_core::cluster::{ClusterConfig, SimReport};
use cutfit_core::datagen::DatasetProfile;
use cutfit_core::engine::{ExecutorMode, PregelConfig};
use cutfit_core::graph::analysis::count_triangles;
use cutfit_core::graph::binfmt::write_binary_file;
use cutfit_core::graph::{BinaryFileSource, Graph, VertexId};
use cutfit_core::partition::{PartitionMetrics, Partitioner};
use cutfit_core::session::{AdviceMode, CutChoice, Job, JobOutcome, WorkloadReport, Workspace};

use super::{
    capped_components, count_bill, count_cut, count_frontier, count_job, labels_within_components,
    pin_sim, ranks_close, GraphId, Workload, PARTS,
};
use crate::ctx::{Ctx, Digest, Pass};

/// YouTube at a quarter of its size: about 284 k vertices, 750 k edges.
const PROFILE_SCALE: f64 = 0.25;

pub struct TailoredSession;

pub struct Input {
    container: PathBuf,
    graph: GraphId,
    cluster: ClusterConfig,
    /// The paper's four algorithms, each advised at 64 parts.
    jobs: Vec<Job>,
    landmarks: Vec<VertexId>,
    ranks: Vec<f64>,
    capped_labels: Vec<u64>,
    components: Vec<u64>,
    distances: Vec<Vec<u32>>,
    triangles: u64,
}

pub struct Handles {
    ws: Workspace,
    cold: Vec<JobOutcome>,
}

fn span_of(algorithm: &Algorithm) -> &'static str {
    match algorithm {
        Algorithm::PageRank { .. } => "engine.pagerank",
        Algorithm::ConnectedComponents { .. } => "engine.cc",
        Algorithm::Sssp { .. } => "engine.sssp",
        Algorithm::Triangles => "algorithms.triangles",
        _ => "engine.other",
    }
}

/// `schedule` + `run_workload`, the jobs dispatched one by one (which is
/// all `run_workload` does) so that each has its own span.
fn serve(
    input: &Input,
    ws: &mut Workspace,
    span: &'static str,
    ctx: &mut Ctx,
) -> Pass<Vec<JobOutcome>> {
    ctx.span(span, |ctx| {
        let scheduled = ctx.call("core.session.schedule", || ws.schedule(&input.jobs))?;
        let mut outcomes = Vec::new();
        for job in &scheduled {
            let outcome = ctx.op(span_of(&job.algorithm), || {
                let o = ws.run_job_with(&job.algorithm, &job.cut, ExecutorMode::Sequential);
                match o.failure() {
                    Some(why) => Err(why),
                    None => Ok(o),
                }
            })?;
            let sim = outcome.result.as_ref().expect("failures returned above");
            match outcome.algorithm {
                "TR" => {
                    count_bill(ctx, sim);
                    // The session returns bills, not states: this is the
                    // count the warm-up repetition proved this job computes.
                    ctx.count_max("algorithms.triangles_count", input.triangles as f64);
                }
                name => {
                    count_job(ctx, sim);
                    if name == "SSSP" {
                        count_frontier(ctx, sim);
                    }
                    if name == "PR" {
                        count_cut(ctx, &outcome.metrics);
                    }
                }
            }
            outcomes.push(outcome);
        }
        let report = WorkloadReport { jobs: outcomes };
        ctx.count("sim_s", report.provisioning_seconds());
        ctx.count(
            "core.session.provisioning_sim_s",
            report.provisioning_seconds(),
        );
        Ok(report.jobs)
    })
}

/// Runs each job directly on the cut the session chose for it, checks the
/// states against the oracles, and checks that the session billed exactly
/// what the direct run bills. Warm-up repetition only: it costs as much as
/// the warm pass.
fn verify(input: &Input, graph: &Graph, outcomes: &[JobOutcome], ctx: &mut Ctx) -> Pass<()> {
    let canonical = canonicalize(graph);
    let opts = PregelConfig {
        executor: ExecutorMode::Sequential,
        charge_initial_load: false,
        ..PregelConfig::default()
    };
    for outcome in outcomes {
        let job = input
            .jobs
            .iter()
            .find(|j| j.algorithm.abbrev() == outcome.algorithm)
            .expect("every outcome answers one of the jobs");
        let target = if outcome.canonical { &canonical } else { graph };
        let pg = outcome.strategy.partition(target, outcome.num_parts);
        let cluster = &input.cluster;
        let direct: (SimReport, bool) = ctx.op("bench.verify", || {
            let checked = match &job.algorithm {
                Algorithm::PageRank { iterations } => {
                    let r =
                        pagerank(&pg, cluster, *iterations, &opts).map_err(|e| e.to_string())?;
                    let ok = ranks_close(&r.states, &input.ranks);
                    (r.sim, ok)
                }
                Algorithm::ConnectedComponents { max_iterations } => {
                    let r = connected_components(&pg, cluster, *max_iterations, &opts)
                        .map_err(|e| e.to_string())?;
                    let ok = r.states == input.capped_labels
                        && labels_within_components(&r.states, &input.components);
                    (r.sim, ok)
                }
                Algorithm::Sssp { max_iterations, .. } => {
                    let r = sssp(
                        &pg,
                        cluster,
                        input.landmarks.clone(),
                        *max_iterations,
                        &opts,
                    )
                    .map_err(|e| e.to_string())?;
                    let ok = r.converged && r.states == input.distances;
                    (r.sim, ok)
                }
                Algorithm::Triangles => {
                    let r = triangle_count_partitioned(&pg, cluster, false)
                        .map_err(|e| e.to_string())?;
                    let ok = r.total == input.triangles;
                    (r.sim, ok)
                }
                other => return Err(format!("no oracle for {}", other.abbrev())),
            };
            Ok(checked)
        })?;
        ctx.expect(
            &format!("{} states agree with the oracle", outcome.algorithm),
            direct.1,
        );
        ctx.expect(
            &format!(
                "the session bills {} what a direct run bills",
                outcome.algorithm
            ),
            outcome.result.as_ref() == Ok(&direct.0)
                && outcome.metrics == PartitionMetrics::of(&pg),
        );
    }
    Ok(())
}

impl Workload for TailoredSession {
    type Input = Input;
    type Handles = Handles;

    fn setup(seed: u64, dir: &Path, ctx: &mut Ctx) -> Pass<Input> {
        let graph = ctx.call("datagen.generate", || {
            DatasetProfile::youtube().generate(PROFILE_SCALE, seed)
        })?;
        let container = dir.join("youtube.cfb");
        ctx.op("graph.binfmt.write", || {
            write_binary_file(&graph, &container).map_err(|e| e.to_string())
        })?;
        let suite = Algorithm::paper_suite(seed);
        let landmarks = suite
            .iter()
            .find_map(|a| match a {
                Algorithm::Sssp {
                    num_landmarks,
                    seed,
                    ..
                } => Some(Sssp::pick_landmarks(
                    graph.num_vertices(),
                    *num_landmarks,
                    *seed,
                )),
                _ => None,
            })
            .expect("the paper's suite runs SSSP");
        let (ranks, capped_labels, components, distances, triangles) =
            ctx.call("bench.oracle", || {
                (
                    reference_pagerank(&graph, 10),
                    capped_components(&graph, 10),
                    reference_components(&graph),
                    reference_sssp(&graph, &landmarks),
                    count_triangles(&graph),
                )
            })?;
        Ok(Input {
            container,
            graph: GraphId::of(&graph),
            cluster: ClusterConfig::paper_cluster(),
            jobs: suite
                .into_iter()
                .map(|a| Job::advised_at(a, PARTS))
                .collect(),
            landmarks,
            ranks,
            capped_labels,
            components,
            distances,
            triangles,
        })
    }

    fn cold(input: &Input, ctx: &mut Ctx) -> Pass<Handles> {
        // `Workspace::from_binary_file` would size the decode pool from the
        // host; this benchmark runs on one thread.
        let mut ws = ctx.op("core.session.load", || {
            let source = BinaryFileSource::open(&input.container)
                .map_err(|e| e.to_string())?
                .with_decode_threads(1);
            Workspace::from_binary_source(source, input.cluster.clone(), ExecutorMode::Sequential)
                .map_err(|e| e.to_string())
        })?;
        ctx.span("bench.check", |ctx| {
            ctx.expect(
                "the session loaded the generated graph",
                GraphId::of(ws.graph()) == input.graph,
            );
        });
        ws = ws
            .with_base_parts(PARTS)
            .with_advice_mode(AdviceMode::Probed);
        let cold = serve(input, &mut ws, "core.session.cold_workload", ctx)?;
        for o in &cold {
            let sim = o.result.as_ref().expect("serve returns successful jobs");
            ctx.answer(
                format!("{}.strategy", o.algorithm),
                Digest::new().str(o.strategy.abbrev()).0,
            );
            pin_sim(ctx, o.algorithm, sim, o.supersteps);
        }
        ctx.count("sim_s", ws.advice_seconds());
        ctx.count("core.advisor.advice_sim_s", ws.advice_seconds());
        if ctx.pin_answers {
            let graph = ws.graph().clone();
            verify(input, &graph, &cold, ctx)?;
        }
        Ok(Handles { ws, cold })
    }

    fn warm(input: &Input, h: &mut Handles, ctx: &mut Ctx) -> Pass<()> {
        let warm = serve(input, &mut h.ws, "core.session.warm_workload", ctx)?;
        ctx.span("bench.check", |ctx| {
            let same = warm.len() == h.cold.len()
                && warm.iter().zip(&h.cold).all(|(w, c)| {
                    w.result == c.result
                        && w.supersteps == c.supersteps
                        && w.strategy == c.strategy
                        && w.metrics == c.metrics
                });
            ctx.expect(
                "warm jobs run the cold pass's cuts and bill exactly the same",
                same && warm.iter().all(|w| w.cache_hit),
            );
        });
        let stats = h.ws.stats();
        ctx.count_max("core.session.cache_hits", stats.cache_hits as f64);
        ctx.count_max("core.session.cache_misses", stats.cache_misses as f64);
        ctx.count_max("core.session.cut_switches", stats.cut_switches as f64);
        ctx.count_max("core.session.cached_cuts", h.ws.cached_cuts() as f64);
        ctx.answer("session.cache_hits", stats.cache_hits);
        ctx.answer("session.cache_misses", stats.cache_misses);
        ctx.answer("session.cut_switches", stats.cut_switches);
        Ok(())
    }

    fn extras(_input: &Input, h: &mut Handles, ctx: &mut Ctx) -> Pass<()> {
        let first = &h.cold[0];
        let (strategy, num_parts) = (first.strategy, first.num_parts);
        let pg = h.ws.materialized(strategy, num_parts);
        let metrics = ctx.call("partition.metrics", || PartitionMetrics::of(&pg))?;
        ctx.expect(
            "the session memoized the cut's metrics",
            metrics == first.metrics,
        );
        // What the serving layer itself costs: a job with no supersteps on
        // a cut that is cached and, after the first dispatch, active.
        let nothing = Algorithm::PageRank { iterations: 0 };
        let cut = CutChoice::Fixed {
            strategy,
            num_parts,
        };
        h.ws.run_job_with(&nothing, &cut, ExecutorMode::Sequential);
        let outcome = ctx.call("core.session.dispatch", || {
            h.ws.run_job_with(&nothing, &cut, ExecutorMode::Sequential)
        })?;
        ctx.expect(
            "an empty job on the active cut is a cache hit without a switch",
            outcome.cache_hit && !outcome.switched_cut && outcome.result.is_ok(),
        );
        Ok(())
    }

    fn work(input: &Input) -> (u64, u64) {
        (input.graph.edges, 2 * input.jobs.len() as u64)
    }
}
