//! `select-stream`: the cut chooser's whole wait (the paper's Tables 2/3):
//! metrics of every candidate cut without building any. The graph layer
//! (`io`, `binfmt`, `source`) and the partition layer (`sweep`, `metrics`,
//! `streaming`) do all the work, the engine none. The cold pass is
//! out-of-core — text in, container written beside it, every sweep and
//! assignment streamed off the container — and the warm pass asks the same
//! questions of the resident graph, so a gain for one path that costs the
//! other shows. Sweeps run at 16, 64 and 256 parts because replica
//! tracking switches from `u64` bitmasks to sorted sets above 64.
//!
//! Left out because either would be over 80 % of the pass and hide the
//! rest: the multilevel edge cut (58 s at RMAT scale 19), and HDRF at 64
//! parts (4.2 s; it runs at 16).

use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};

use cutfit_core::advisor::Advisor;
use cutfit_core::algorithms::AlgorithmClass;
use cutfit_core::datagen::{rmat, RmatConfig};
use cutfit_core::graph::binfmt::{read_binary_file, write_binary_file};
use cutfit_core::graph::io::{read_edge_list, write_edge_list};
use cutfit_core::graph::{BinaryFileSource, Graph, GraphSource};
use cutfit_core::partition::{
    sweep_metrics, sweep_metrics_source, Dbh, GraphXStrategy, GreedyVertexCut, Hdrf, HybridCut,
    PartitionMetrics, Partitioner,
};

use super::{digest_metrics, GraphId, Workload, PARTS};
use crate::ctx::{Ctx, Digest, Pass};

/// 262 144 vertices, 2 097 152 edges.
const SCALE: u32 = 18;
const CHUNK_EDGES: usize = 16 * 1024;
const GRANULARITIES: [(u32, &str); 3] = [
    (16, "partition.sweep_p16"),
    (PARTS, "partition.sweep_p64"),
    (256, "partition.sweep_p256"),
];
const HDRF_PARTS: u32 = 16;

pub struct SelectStream;

pub struct Input {
    text: PathBuf,
    container: PathBuf,
    graph: GraphId,
}

/// One assignment request: a partitioner, its granularity, and whether it
/// carries decision state from edge to edge.
struct Request {
    partitioner: Box<dyn Partitioner>,
    parts: u32,
    stateful: bool,
}

fn requests() -> Vec<Request> {
    let mut out: Vec<Request> = GraphXStrategy::all()
        .into_iter()
        .map(|s| Box::new(s) as Box<dyn Partitioner>)
        .chain([
            Box::new(Dbh) as Box<dyn Partitioner>,
            Box::new(HybridCut::default()),
        ])
        .map(|partitioner| Request {
            partitioner,
            parts: PARTS,
            stateful: false,
        })
        .collect();
    out.push(Request {
        partitioner: Box::new(GreedyVertexCut::default()),
        parts: PARTS,
        stateful: true,
    });
    out.push(Request {
        partitioner: Box::new(Hdrf::default()),
        parts: HDRF_PARTS,
        stateful: true,
    });
    out
}

pub struct Handles {
    graph: Graph,
    sweeps: Vec<Vec<PartitionMetrics>>,
    /// Digest of each request's streamed assignment.
    assignments: Vec<u64>,
}

fn digest_assignment(parts: &[u32]) -> u64 {
    Digest::new().words(parts.iter().map(|&p| u64::from(p))).0
}

impl Workload for SelectStream {
    type Input = Input;
    type Handles = Handles;

    fn setup(seed: u64, dir: &Path, ctx: &mut Ctx) -> Pass<Input> {
        let config = RmatConfig {
            scale: SCALE,
            edges: 8 << SCALE,
            ..RmatConfig::default()
        };
        let graph = ctx.call("datagen.generate", || rmat(&config, seed))?;
        let text = dir.join("rmat.txt");
        ctx.op("graph.io.text_write", || {
            let mut w = BufWriter::new(File::create(&text).map_err(|e| e.to_string())?);
            write_edge_list(&graph, &mut w).map_err(|e| e.to_string())?;
            w.flush().map_err(|e| e.to_string())
        })?;
        Ok(Input {
            text,
            container: dir.join("rmat.cfb"),
            graph: GraphId::of(&graph),
        })
    }

    fn cold(input: &Input, ctx: &mut Ctx) -> Pass<Handles> {
        let parsed = ctx.op("graph.io.text_parse", || {
            let file = File::open(&input.text).map_err(|e| e.to_string())?;
            read_edge_list(BufReader::new(file)).map_err(|e| e.to_string())
        })?;
        ctx.op("graph.binfmt.write", || {
            write_binary_file(&parsed, &input.container).map_err(|e| e.to_string())
        })?;
        let parsed_id = ctx.span("bench.check", |ctx| {
            let id = GraphId::of(&parsed);
            // The text format carries no vertex count, so trailing isolated
            // vertices are not the parser's to recover.
            ctx.expect(
                "the edge list parses to the generated edges",
                (id.edges, id.digest) == (input.graph.edges, input.graph.digest),
            );
            id
        });
        // From here on the pass is out-of-core: no resident edge list.
        drop(parsed);

        let source = ctx.op("graph.source.open", || {
            BinaryFileSource::open(&input.container).map_err(|e| e.to_string())
        })?;
        let strategies = GraphXStrategy::all();
        let mut sweeps = Vec::new();
        for (parts, span) in GRANULARITIES {
            let (metrics, stats) = ctx.op(span, || {
                sweep_metrics_source(&source, &strategies, parts, CHUNK_EDGES, 1)
                    .map_err(|e| e.to_string())
            })?;
            ctx.expect("the sweep saw every edge", stats.edges == parsed_id.edges);
            ctx.count_max(
                "graph.source.peak_resident_bytes",
                stats.peak_resident_edge_bytes as f64,
            );
            for (s, m) in strategies.iter().zip(&metrics) {
                ctx.answer(format!("sweep.p{parts}.{}", s.abbrev()), digest_metrics(m));
            }
            sweeps.push(metrics);
        }

        let mut assignments = Vec::new();
        for r in requests() {
            let span = if r.stateful {
                "partition.stream_stateful"
            } else {
                "partition.assign_source"
            };
            let mut digest = Digest::new();
            let mut in_range = true;
            let stats = ctx.op(span, || {
                r.partitioner
                    .assign_source(&source, r.parts, CHUNK_EDGES, &mut |_edges, parts| {
                        for &p in parts {
                            digest.word(u64::from(p));
                            in_range &= p < r.parts;
                        }
                    })
                    .map_err(|e| e.to_string())
            })?;
            ctx.expect(
                "every edge is assigned to a partition that exists",
                in_range && stats.edges == parsed_id.edges,
            );
            ctx.count_max(
                "graph.source.peak_resident_bytes",
                stats.peak_resident_edge_bytes as f64,
            );
            ctx.answer(format!("assign.{}", r.partitioner.name()), digest.0);
            assignments.push(digest.0);
        }

        let graph = ctx.op("graph.binfmt.decode", || {
            read_binary_file(&input.container).map_err(|e| e.to_string())
        })?;
        ctx.span("bench.check", |ctx| {
            ctx.expect(
                "the container round-trips to the parsed graph",
                GraphId::of(&graph) == parsed_id,
            );
        });
        Ok(Handles {
            graph,
            sweeps,
            assignments,
        })
    }

    fn warm(_input: &Input, h: &mut Handles, ctx: &mut Ctx) -> Pass<()> {
        let strategies = GraphXStrategy::all();
        for ((parts, _), streamed) in GRANULARITIES.iter().zip(&h.sweeps) {
            let resident = ctx.call("partition.sweep_resident", || {
                sweep_metrics(&h.graph, &strategies, *parts, 1)
            })?;
            ctx.expect(
                "streamed metrics equal resident metrics field for field",
                &resident == streamed,
            );
        }
        for (r, streamed) in requests().iter().zip(&h.assignments) {
            let assignment = ctx.call("partition.assign", || {
                r.partitioner.assign_edges(&h.graph, r.parts)
            })?;
            ctx.span("bench.check", |ctx| {
                ctx.expect(
                    "streamed assignment equals resident assignment",
                    digest_assignment(&assignment) == *streamed,
                );
            });
        }
        for class in [AlgorithmClass::EdgeBound, AlgorithmClass::VertexStateBound] {
            let choice = ctx.call("core.advisor.measured", || {
                Advisor::default().recommend_measured_threaded(class, &h.graph, PARTS, &[], 1)
            })?;
            // The advisor ranks by the class metric of the 64-part sweep;
            // ties keep candidate order, as its stable sort does.
            let sweep = &h.sweeps[1];
            let best = strategies
                .iter()
                .zip(sweep)
                .map(|(s, m)| (*s, m.get(choice.metric)))
                .reduce(|best, next| if next.1 < best.1 { next } else { best })
                .expect("six candidates");
            ctx.expect(
                "the advisor picks the sweep's best candidate",
                choice.strategy == best.0,
            );
            ctx.answer(
                format!("advice.{class:?}"),
                Digest::new().str(choice.strategy.abbrev()).0,
            );
        }
        Ok(())
    }

    fn extras(input: &Input, _h: &mut Handles, ctx: &mut Ctx) -> Pass<()> {
        let bytes = std::fs::metadata(&input.container).map_or(0, |m| m.len());
        ctx.count_max(
            "graph.binfmt.bytes_per_edge",
            bytes as f64 / input.graph.edges as f64,
        );
        let open = || BinaryFileSource::open(&input.container).map_err(|e| e.to_string());
        let drain = |source: BinaryFileSource| {
            let mut edges = 0u64;
            let stats = source
                .for_each_chunk(CHUNK_EDGES, &mut |chunk| edges += chunk.len() as u64)
                .map_err(|e| e.to_string())?;
            Ok((edges, stats.edges))
        };
        let (seen, reported) = ctx.op("graph.source.stream", || drain(open()?))?;
        ctx.expect(
            "the stream delivers every edge",
            seen == input.graph.edges && reported == seen,
        );
        // Informational: what the decode pipeline costs or gains with two
        // workers on a two-core box.
        let (seen, _) = ctx.op("graph.source.stream_t2", || {
            drain(open()?.with_decode_threads(2).with_read_ahead(8))
        })?;
        ctx.expect(
            "the pipelined stream delivers every edge",
            seen == input.graph.edges,
        );
        Ok(())
    }

    fn work(input: &Input) -> (u64, u64) {
        let sweeps = (GRANULARITIES.len() * GraphXStrategy::all().len()) as u64;
        let assignments = requests().len() as u64;
        // Both passes produce every sweep and assignment; the warm pass adds
        // the two recommendations.
        (input.graph.edges, 2 * (sweeps + assignments) + 2)
    }
}
