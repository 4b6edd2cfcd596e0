//! `road-sssp`: the opposite engine regime to `rmat-pagerank`. Shortest
//! paths on a road network run for hundreds of supersteps with well under
//! 1 % of the vertices active, so time is per-superstep fixed cost —
//! frontier distribution, planner, lazy incident CSR, the cluster sim's
//! `end_superstep`, checkpoint billing — while the dense kernel and the
//! build are almost idle. A dense-scan speed-up must show on
//! `rmat-pagerank` and not here; a per-superstep-overhead fix the reverse.

use std::path::{Path, PathBuf};

use cutfit_core::algorithms::{reference_components, reference_sssp, ConnectedComponents, Sssp};
use cutfit_core::cluster::ClusterConfig;
use cutfit_core::datagen::DatasetProfile;
use cutfit_core::engine::{ExecutorMode, PregelConfig, PregelResult, PreparedRun};
use cutfit_core::graph::binfmt::write_binary_file;
use cutfit_core::graph::VertexId;

use super::{
    capped_components, count_frontier, count_job, cut_extras, decode_cut_prepare, digest_distances,
    digest_u64s, labels_within_components, pin_sim, GraphId, Workload,
};
use crate::ctx::{Ctx, Pass};

/// RoadNet-PA at a quarter of its size: about 269 k vertices, 747 k edges.
const PROFILE_SCALE: f64 = 0.25;
const LANDMARKS: usize = 5;
/// The paper caps connected components at ten supersteps.
const CC_CAP: u64 = 10;
/// Without checkpoints the simulated shuffle lineage of a run this long
/// exhausts executor memory (the paper's SSSP-on-road-networks failure).
const CHECKPOINT_INTERVAL: u64 = 25;

pub struct RoadSssp;

pub struct Input {
    container: PathBuf,
    container_bytes: u64,
    graph: GraphId,
    landmarks: Vec<VertexId>,
    distances: Vec<Vec<u32>>,
    capped_labels: Vec<u64>,
    components: Vec<u64>,
    cluster: ClusterConfig,
}

pub struct Handles {
    prepared: PreparedRun,
    sssp: PregelResult<Vec<u32>>,
    cc: PregelResult<u64>,
}

fn job(max_iterations: u64) -> PregelConfig {
    PregelConfig {
        max_iterations,
        executor: ExecutorMode::Sequential,
        ..PregelConfig::default()
    }
}

/// Both jobs on a prepared cut, each checked against its oracle.
fn run_jobs(
    input: &Input,
    prepared: &mut PreparedRun,
    ctx: &mut Ctx,
) -> Pass<(PregelResult<Vec<u32>>, PregelResult<u64>)> {
    let program = Sssp::new(input.landmarks.clone());
    let sssp = ctx.op("engine.sssp", || {
        prepared
            .run(&program, &job(10_000))
            .map_err(|e| e.to_string())
    })?;
    ctx.span("bench.check", |ctx| {
        ctx.expect(
            "SSSP reaches the fixpoint of reference_sssp",
            sssp.converged && sssp.states == input.distances,
        );
    });
    count_job(ctx, &sssp.sim);
    count_frontier(ctx, &sssp.sim);

    let cc = ctx.op("engine.cc", || {
        prepared
            .run(&ConnectedComponents, &job(CC_CAP))
            .map_err(|e| e.to_string())
    })?;
    ctx.span("bench.check", |ctx| {
        ctx.expect(
            "capped CC agrees with the capped oracle and reference_components",
            cc.states == input.capped_labels
                && labels_within_components(&cc.states, &input.components),
        );
    });
    count_job(ctx, &cc.sim);
    Ok((sssp, cc))
}

impl Workload for RoadSssp {
    type Input = Input;
    type Handles = Handles;

    fn setup(seed: u64, dir: &Path, ctx: &mut Ctx) -> Pass<Input> {
        let graph = ctx.call("datagen.generate", || {
            DatasetProfile::road_net_pa().generate(PROFILE_SCALE, seed)
        })?;
        let container = dir.join("road.cfb");
        let container_bytes = ctx.op("graph.binfmt.write", || {
            write_binary_file(&graph, &container).map_err(|e| e.to_string())
        })?;
        let landmarks = Sssp::pick_landmarks(graph.num_vertices(), LANDMARKS, seed);
        let (distances, capped_labels, components) = ctx.call("bench.oracle", || {
            (
                reference_sssp(&graph, &landmarks),
                capped_components(&graph, CC_CAP),
                reference_components(&graph),
            )
        })?;
        let mut cluster = ClusterConfig::paper_cluster();
        cluster.scenario.checkpoint_interval = CHECKPOINT_INTERVAL;
        Ok(Input {
            container,
            container_bytes,
            graph: GraphId::of(&graph),
            landmarks,
            distances,
            capped_labels,
            components,
            cluster,
        })
    }

    fn cold(input: &Input, ctx: &mut Ctx) -> Pass<Handles> {
        let mut prepared = decode_cut_prepare(&input.container, &input.graph, &input.cluster, ctx)?;
        let (sssp, cc) = run_jobs(input, &mut prepared, ctx)?;
        ctx.span("bench.check", |ctx| {
            ctx.answer("sssp.states", digest_distances(&sssp.states));
            pin_sim(ctx, "sssp", &sssp.sim, sssp.supersteps);
            ctx.answer("cc.states", digest_u64s(&cc.states));
            pin_sim(ctx, "cc", &cc.sim, cc.supersteps);
        });
        Ok(Handles { prepared, sssp, cc })
    }

    fn warm(input: &Input, h: &mut Handles, ctx: &mut Ctx) -> Pass<()> {
        let (sssp, cc) = run_jobs(input, &mut h.prepared, ctx)?;
        ctx.span("bench.check", |ctx| {
            ctx.expect(
                "warm SSSP and CC bill exactly what the cold pass billed",
                sssp.sim == h.sssp.sim
                    && sssp.supersteps == h.sssp.supersteps
                    && cc.sim == h.cc.sim
                    && cc.supersteps == h.cc.supersteps,
            );
        });
        Ok(())
    }

    fn extras(input: &Input, h: &mut Handles, ctx: &mut Ctx) -> Pass<()> {
        cut_extras(input.container_bytes, &h.prepared, ctx)?;
        Ok(())
    }

    fn work(input: &Input) -> (u64, u64) {
        (input.graph.edges, 4)
    }
}
