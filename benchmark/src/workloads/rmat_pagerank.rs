//! `rmat-pagerank`: the always-active program on a skewed graph. Every
//! superstep is a full dense scan, shuffle and apply, so the engine's
//! dense kernel is most of the cold pass and all of the warm pass, and the
//! counting-sort build is the rest of cold. Frontier code, the session and
//! cut selection do nothing here.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use cutfit_core::algorithms::{reference_pagerank, PageRank};
use cutfit_core::cluster::ClusterConfig;
use cutfit_core::datagen::{rmat, RmatConfig};
use cutfit_core::engine::{ExecutorMode, PregelConfig, PregelResult, PreparedRun};
use cutfit_core::graph::binfmt::{read_binary_file, write_binary_file};
use cutfit_core::partition::{GraphXStrategy, PartitionMetrics, PartitionedGraph, Partitioner};

use super::{
    count_frontier, count_job, cut_extras, decode_cut_prepare, digest_f64s, pin_sim, ranks_close,
    GraphId, Workload, PARTS,
};
use crate::ctx::{Ctx, Pass};

/// 524 288 vertices, 4 194 304 edges: 67 MB of resident edges against a
/// 4 MiB L2, so the scan streams from memory.
const SCALE: u32 = 19;
const ITERATIONS: u64 = 10;

pub struct RmatPagerank;

pub struct Input {
    container: PathBuf,
    container_bytes: u64,
    graph: GraphId,
    oracle: Vec<f64>,
    cluster: ClusterConfig,
}

pub struct Handles {
    prepared: PreparedRun,
    cold: PregelResult<f64>,
}

fn job() -> PregelConfig {
    PregelConfig {
        max_iterations: ITERATIONS,
        executor: ExecutorMode::Sequential,
        ..PregelConfig::default()
    }
}

fn pagerank(
    prepared: &mut PreparedRun,
    opts: &PregelConfig,
    span: &'static str,
    ctx: &mut Ctx,
) -> Pass<PregelResult<f64>> {
    ctx.op(span, || {
        prepared.run(&PageRank, opts).map_err(|e| e.to_string())
    })
}

impl Workload for RmatPagerank {
    type Input = Input;
    type Handles = Handles;

    fn setup(seed: u64, dir: &Path, ctx: &mut Ctx) -> Pass<Input> {
        let config = RmatConfig {
            scale: SCALE,
            edges: 8 << SCALE,
            ..RmatConfig::default()
        };
        let graph = ctx.call("datagen.generate", || rmat(&config, seed))?;
        let container = dir.join("rmat.cfb");
        let container_bytes = ctx.op("graph.binfmt.write", || {
            write_binary_file(&graph, &container).map_err(|e| e.to_string())
        })?;
        let oracle = ctx.call("bench.oracle", || reference_pagerank(&graph, ITERATIONS))?;
        Ok(Input {
            container,
            container_bytes,
            graph: GraphId::of(&graph),
            oracle,
            cluster: ClusterConfig::paper_cluster(),
        })
    }

    fn cold(input: &Input, ctx: &mut Ctx) -> Pass<Handles> {
        let mut prepared = decode_cut_prepare(&input.container, &input.graph, &input.cluster, ctx)?;
        let cold = pagerank(&mut prepared, &job(), "engine.pagerank", ctx)?;
        ctx.span("bench.check", |ctx| {
            ctx.expect(
                "PageRank agrees with reference_pagerank",
                ranks_close(&cold.states, &input.oracle),
            );
            ctx.answer("pagerank.states", digest_f64s(&cold.states));
            pin_sim(ctx, "pagerank", &cold.sim, cold.supersteps);
        });
        count_job(ctx, &cold.sim);
        count_frontier(ctx, &cold.sim);
        Ok(Handles { prepared, cold })
    }

    fn warm(_input: &Input, h: &mut Handles, ctx: &mut Ctx) -> Pass<()> {
        let again = pagerank(&mut h.prepared, &job(), "engine.pagerank", ctx)?;
        ctx.span("bench.check", |ctx| {
            let same = again.sim == h.cold.sim
                && again.supersteps == h.cold.supersteps
                && again.states.len() == h.cold.states.len()
                && again
                    .states
                    .iter()
                    .zip(&h.cold.states)
                    .all(|(a, b)| a.to_bits() == b.to_bits());
            ctx.expect("warm PageRank is bit-equal to the cold pass", same);
        });
        count_job(ctx, &again.sim);
        Ok(())
    }

    fn extras(input: &Input, h: &mut Handles, ctx: &mut Ctx) -> Pass<()> {
        let metrics = cut_extras(input.container_bytes, &h.prepared, ctx)?;

        // Two-thread variants: informational on a two-core box, never part
        // of an end-to-end number.
        let two = ExecutorMode::Parallel { threads: 2 };
        let graph = read_binary_file(&input.container).expect("decoded in the cold pass");
        let assignment = GraphXStrategy::EdgePartition2D.assign_edges(&graph, PARTS);
        let threaded = ctx.call("partition.build_t2", || {
            PartitionedGraph::build_threaded(&graph, &assignment, PARTS, 2)
        })?;
        drop((graph, assignment));
        ctx.expect(
            "two-thread build has the sequential build's metrics",
            PartitionMetrics::of(&threaded) == metrics,
        );
        let mut prepared = PreparedRun::new(Arc::new(threaded), &input.cluster, two);
        let opts = PregelConfig {
            executor: two,
            ..job()
        };
        let run = pagerank(&mut prepared, &opts, "engine.pagerank_t2", ctx)?;
        ctx.expect(
            "two-thread PageRank bills what one thread bills",
            run.sim == h.cold.sim,
        );
        Ok(())
    }

    fn work(input: &Input) -> (u64, u64) {
        (input.graph.edges, 2)
    }
}
