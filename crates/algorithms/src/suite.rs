//! A uniform front-end over the paper's four algorithms, used by the
//! experiment harness, the advisor, and the benchmark binaries.

use std::sync::Arc;

use cutfit_cluster::{ClusterConfig, SimError, SimReport};
use cutfit_engine::{ExecutorMode, MessageTrace, PregelConfig, PreparedRun, VertexProgram};
use cutfit_graph::types::PartId;
use cutfit_partition::PartitionedGraph;

use crate::sssp::Sssp;
use crate::triangles::{triangle_bill_supported, TriangleIndex};

/// The paper's two-way algorithm taxonomy (§4, final paragraph): complexity
/// dominated by edges/messages vs by per-vertex state. It drives the
/// advisor's metric choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AlgorithmClass {
    /// Communication-bound, small per-vertex state: optimise CommCost
    /// (PageRank, Connected Components, SSSP).
    EdgeBound,
    /// Heavy per-vertex state and computation: optimise Cut vertices
    /// (Triangle Count).
    VertexStateBound,
}

/// One of the paper's four benchmark algorithms, with its run parameters.
#[derive(Debug, Clone)]
pub enum Algorithm {
    /// Static PageRank for a fixed number of iterations (paper: 10).
    PageRank {
        /// Number of supersteps.
        iterations: u64,
    },
    /// Connected components to fixpoint, capped (paper: 10 iterations).
    ConnectedComponents {
        /// Superstep cap.
        max_iterations: u64,
    },
    /// Triangle counting (canonicalizes the graph first, as GraphX
    /// requires).
    Triangles,
    /// Shortest paths to `num_landmarks` pseudo-random landmark vertices.
    Sssp {
        /// Number of landmark vertices (paper: 5).
        num_landmarks: usize,
        /// Landmark selection seed (the paper averages over 5 choices).
        seed: u64,
        /// Superstep cap; road networks exhaust memory long before
        /// converging, as in the paper.
        max_iterations: u64,
    },
    /// HITS hubs/authorities (extension: PageRank-like comm profile with a
    /// two-field state).
    Hits {
        /// Number of supersteps.
        iterations: u64,
    },
    /// Synchronous label propagation (extension: label-histogram messages,
    /// between PR and TR on the state-size spectrum).
    LabelPropagation {
        /// Number of supersteps.
        iterations: u64,
    },
    /// K-core by iterated h-index (extension: degree-sized messages, the
    /// closest Pregel analogue of Triangle Count's cost profile).
    KCore {
        /// Number of supersteps (tens suffice for convergence).
        iterations: u64,
    },
}

impl Algorithm {
    /// The paper's default parameterisations of the four algorithms.
    pub fn paper_suite(seed: u64) -> Vec<Algorithm> {
        vec![
            Algorithm::PageRank { iterations: 10 },
            Algorithm::ConnectedComponents { max_iterations: 10 },
            Algorithm::Triangles,
            Algorithm::Sssp {
                num_landmarks: 5,
                seed,
                max_iterations: 10_000,
            },
        ]
    }

    /// The extension algorithms beyond the paper's four, parameterised as
    /// the ablation benchmarks run them.
    pub fn extension_suite() -> Vec<Algorithm> {
        vec![
            Algorithm::Hits { iterations: 10 },
            Algorithm::LabelPropagation { iterations: 8 },
            Algorithm::KCore { iterations: 30 },
        ]
    }

    /// A cheap probe variant of this algorithm: a couple of supersteps,
    /// enough to expose the per-superstep cost profile of a partitioning
    /// without paying for the full run. A session under
    /// `AdviceMode::Probed` bills it on every candidate cut
    /// ([`Algorithm::probe_on_cut`]) to rank them by *predicted time*.
    pub fn probe(&self) -> Algorithm {
        match self {
            Algorithm::PageRank { .. } => Algorithm::PageRank { iterations: 2 },
            Algorithm::ConnectedComponents { .. } => {
                Algorithm::ConnectedComponents { max_iterations: 3 }
            }
            // TR's four phases are fixed, so there is no shorter run: the
            // probe is the job, and its simulated bill is the job's. Both
            // read one supported bit per edge of the triangle index, which
            // also holds the count (see `probe_on_cut`); the metric mode
            // avoids even that.
            Algorithm::Triangles => Algorithm::Triangles,
            Algorithm::Sssp {
                num_landmarks,
                seed,
                ..
            } => Algorithm::Sssp {
                num_landmarks: *num_landmarks,
                seed: *seed,
                max_iterations: 3,
            },
            Algorithm::Hits { .. } => Algorithm::Hits { iterations: 2 },
            Algorithm::LabelPropagation { .. } => Algorithm::LabelPropagation { iterations: 2 },
            Algorithm::KCore { .. } => Algorithm::KCore { iterations: 3 },
        }
    }

    /// Display abbreviation as used in the paper (PR, CC, TR, SSSP).
    pub fn abbrev(&self) -> &'static str {
        match self {
            Algorithm::PageRank { .. } => "PR",
            Algorithm::ConnectedComponents { .. } => "CC",
            Algorithm::Triangles => "TR",
            Algorithm::Sssp { .. } => "SSSP",
            Algorithm::Hits { .. } => "HITS",
            Algorithm::LabelPropagation { .. } => "LPA",
            Algorithm::KCore { .. } => "KCORE",
        }
    }

    /// Complexity class per the paper's taxonomy. The extensions are
    /// classified by their per-vertex message payload: HITS ships fixed-size
    /// scores (edge-bound, like PR); LPA ships label histograms and k-core
    /// ships degree-sized estimate vectors (vertex-state-bound, like TR).
    pub fn class(&self) -> AlgorithmClass {
        match self {
            Algorithm::Triangles | Algorithm::LabelPropagation { .. } | Algorithm::KCore { .. } => {
                AlgorithmClass::VertexStateBound
            }
            _ => AlgorithmClass::EdgeBound,
        }
    }

    /// True when the algorithm executes on the canonical orientation of the
    /// graph (loops dropped, directions erased, duplicates removed) — the
    /// GraphX preprocessing for Triangle Count, shared by k-core. Serving
    /// layers key their cut caches on this: a canonical cut and a raw cut
    /// of the same `(strategy, num_parts)` are different materializations.
    pub fn needs_canonical(&self) -> bool {
        matches!(self, Algorithm::Triangles | Algorithm::KCore { .. })
    }

    /// True when vertex activity can die out before the iteration cap, so
    /// later supersteps touch ever fewer edges (CC, SSSP; TR's four phases
    /// likewise end by structure). False for the fixed-iteration,
    /// always-active programs (PR, HITS, LPA, k-core's h-index rounds) that
    /// pay full communication every superstep — the paper's coarse-
    /// granularity case.
    pub fn converges(&self) -> bool {
        !matches!(
            self,
            Algorithm::PageRank { .. }
                | Algorithm::Hits { .. }
                | Algorithm::LabelPropagation { .. }
                | Algorithm::KCore { .. }
        )
    }

    /// Runs this algorithm on the materialized cut `pg` and returns the
    /// simulated bill and the superstep count.
    ///
    /// This is the one place Triangle Count's bypass of the engine is
    /// decided. TR is not a Pregel program: it runs its four-phase dataflow
    /// straight over the cut, reading `reused`'s triangle index. Every other
    /// algorithm runs through `reused`'s engine handle. Each is built here
    /// by the first dispatch that needs it (see [`Reused`]), so a cut only
    /// TR runs on never pays for a routing index. The cut must be in
    /// canonical orientation when [`Algorithm::needs_canonical`] says so.
    ///
    /// `charge_load` controls whether the initial dataset load from storage
    /// is billed: one-shot runs bill it, session runs load the graph once
    /// per workspace instead. Vertex states are exact internally but not
    /// returned here (use the per-algorithm entry points when you need them).
    pub fn run_on_cut(
        &self,
        pg: &Arc<PartitionedGraph>,
        reused: Reused<'_>,
        cluster: &ClusterConfig,
        prepared_executor: ExecutorMode,
        executor: ExecutorMode,
        charge_load: bool,
    ) -> Result<(SimReport, u64), SimError> {
        let opts = PregelConfig {
            executor,
            charge_initial_load: charge_load,
            ..Default::default()
        };
        self.dispatch(pg, reused, cluster, prepared_executor, opts, None)
    }

    /// Bills this algorithm's [`Algorithm::probe`] on `pg` as
    /// [`Algorithm::run_on_cut`] would without the load, bit for bit, and
    /// runs the engine only where the bill needs it. By the probe's program:
    /// - **closed form** (PageRank, HITS: a [`VertexProgram::steady_shape`])
    ///   — billed from the cut's tables ([`PreparedRun::bill_steady`]);
    /// - **traced** (CC, SSSP: a [`VertexProgram::message_sizing`]) — the
    ///   first such probe on `traced`'s empty slot runs once, recording the
    ///   run ([`PreparedRun::record`]); every probe after it bills its cut
    ///   from that trace and the cut's assignment
    ///   ([`PreparedRun::bill_traced`]). A probe that fails records
    ///   nothing, so the next one records;
    /// - **traced from the index** (Triangle Count) — its four phases are
    ///   billed from the triangle index's supported bits, one per edge,
    ///   each read at its edge's place in the cut's assignment
    ///   ([`triangle_bill_supported`]); no edge is looked up. The index in
    ///   `reused` must come from [`TriangleIndex::of_canonical`]: a probe
    ///   on an empty slot panics and leaves it empty;
    /// - **engine-run** (label propagation, k-core) — a partial is a merge
    ///   of variable-length messages, whose size only the merge knows.
    ///
    /// A probe's answer is never read; a job's is the product, so jobs
    /// always run (a TR job looks each edge up; its count is the index's).
    pub fn probe_on_cut(
        &self,
        pg: &Arc<PartitionedGraph>,
        reused: Reused<'_>,
        traced: TraceSlot<'_>,
        cluster: &ClusterConfig,
        prepared_executor: ExecutorMode,
        executor: ExecutorMode,
    ) -> Result<(SimReport, u64), SimError> {
        let opts = PregelConfig {
            executor,
            charge_initial_load: false,
            ..Default::default()
        };
        self.probe()
            .dispatch(pg, reused, cluster, prepared_executor, opts, Some(traced))
    }

    /// What [`Algorithm::run_on_cut`] and [`Algorithm::probe_on_cut`] share:
    /// the run of this algorithm on `pg`, the engine handle built on
    /// `cluster` with `prepared_executor`'s thread budget, and with `probe`
    /// a program billed as [`Algorithm::probe_on_cut`] says.
    fn dispatch(
        &self,
        pg: &Arc<PartitionedGraph>,
        reused: Reused<'_>,
        cluster: &ClusterConfig,
        prepared_executor: ExecutorMode,
        opts: PregelConfig,
        probe: Option<TraceSlot<'_>>,
    ) -> Result<(SimReport, u64), SimError> {
        let Reused {
            prepared,
            triangles,
        } = reused;
        // Called by the Pregel arms only. Moving the slot out makes this a
        // one-shot closure, so the handle it returns outlives the call.
        let handle = move || {
            let slot = prepared;
            slot.get_or_insert_with(|| PreparedRun::new(pg.clone(), cluster, prepared_executor))
        };
        let capped = |cap| PregelConfig {
            max_iterations: cap,
            ..opts.clone()
        };
        match self {
            Algorithm::Triangles => {
                let assignment = probe.map(|TraceSlot { assignment, .. }| assignment());
                // A job may index its own cut; a probe reads bits by
                // edge-list place, so only the caller's index of the
                // canonical edge list will do, and none is put in its slot.
                let index = match (&assignment, triangles) {
                    (None, slot) => &*slot.get_or_insert_with(|| TriangleIndex::of_cut(pg)),
                    (Some(_), Some(index)) => &*index,
                    (Some(_), None) => panic!("a TR probe needs TriangleIndex::of_canonical"),
                };
                let load = opts.charge_initial_load;
                let sim = triangle_bill_supported(pg, index, assignment.as_deref(), cluster, load)?;
                Ok((sim, 4))
            }
            Algorithm::PageRank { iterations } => {
                let program = &crate::pagerank::PageRank;
                bill(handle(), program, &capped(*iterations), probe)
            }
            Algorithm::ConnectedComponents { max_iterations } => {
                let program = &crate::cc::ConnectedComponents;
                bill(handle(), program, &capped(*max_iterations), probe)
            }
            Algorithm::Sssp {
                num_landmarks,
                seed,
                max_iterations,
            } => {
                let landmarks = Sssp::pick_landmarks(pg.num_vertices(), *num_landmarks, *seed);
                let program = &Sssp::new(landmarks);
                bill(handle(), program, &capped(*max_iterations), probe)
            }
            // Score normalisation only post-processes states; the bill and
            // superstep count are those of the Pregel run.
            Algorithm::Hits { iterations } => {
                let program = &crate::hits::HitsProgram;
                bill(handle(), program, &capped(*iterations), probe)
            }
            Algorithm::LabelPropagation { iterations } => {
                let program = &crate::label_propagation::LabelPropagation;
                bill(handle(), program, &capped(*iterations), probe)
            }
            Algorithm::KCore { iterations } => {
                let program = &crate::kcore::KCore;
                bill(handle(), program, &capped(*iterations), probe)
            }
        }
    }
}

/// Bills `program` on `prepared` under `opts`, keeping the bill and the
/// superstep count and no state rows. A `probe` of a steady program is
/// billed in closed form, and one of a program with a message sizing from
/// the probe's trace, which the first such probe records.
fn bill<P: VertexProgram>(
    prepared: &mut PreparedRun,
    program: &P,
    opts: &PregelConfig,
    probe: Option<TraceSlot<'_>>,
) -> Result<(SimReport, u64), SimError> {
    let Some(TraceSlot { trace, assignment }) = probe else {
        return prepared.bill(program, opts);
    };
    if let Some(shape) = program.steady_shape() {
        return prepared.bill_steady(&shape, opts);
    }
    if program.message_sizing().is_none() {
        return prepared.bill(program, opts);
    }
    let assignment = assignment();
    if let Some(trace) = trace.as_ref() {
        return prepared.bill_traced(trace, &assignment, opts);
    }
    let (sim, supersteps, recorded) = prepared.record(program, opts, &assignment)?;
    *trace = Some(recorded);
    Ok((sim, supersteps))
}

/// What the probes of one algorithm on the candidate cuts of one graph
/// share (see [`Algorithm::probe_on_cut`]).
pub struct TraceSlot<'a> {
    /// The probe's trace: recorded by the first traced probe that
    /// completes, billed by every probe after it. Its owner keeps it for
    /// one round of candidates, never longer.
    pub trace: &'a mut Option<MessageTrace>,
    /// The candidate cut's edge assignment, aligned with the graph's edge
    /// list; only a traced or a Triangle Count probe calls it, once.
    pub assignment: &'a mut dyn FnMut() -> Vec<PartId>,
}

/// The state dispatches reuse, borrowed from whoever keeps it; each slot is
/// filled by the first dispatch that needs it.
pub struct Reused<'a> {
    /// The cut's engine handle, built by the first Pregel dispatch on it.
    pub prepared: &'a mut Option<PreparedRun>,
    /// Triangle Count's index of the graph the cut was cut from, which
    /// every canonical cut of that graph shares. A TR probe needs it built
    /// by [`TriangleIndex::of_canonical`] and panics on an empty slot,
    /// putting nothing in it; a TR job on an empty slot fills it from the
    /// cut ([`TriangleIndex::of_cut`]).
    pub triangles: &'a mut Option<TriangleIndex>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::triangles::tests::reference_triangle_count_partitioned;
    use crate::triangles::{canonicalize, triangle_count_indexed, TriangleResult};
    use cutfit_graph::analysis::count_triangles;
    use cutfit_graph::{Edge, Graph};
    use cutfit_partition::{GraphXStrategy, Partitioner};
    use cutfit_util::num::vid_index;

    #[test]
    fn paper_suite_has_four() {
        let suite = Algorithm::paper_suite(1);
        let names: Vec<&str> = suite.iter().map(|a| a.abbrev()).collect();
        assert_eq!(names, vec!["PR", "CC", "TR", "SSSP"]);
    }

    #[test]
    fn classes_follow_the_paper() {
        assert_eq!(
            Algorithm::Triangles.class(),
            AlgorithmClass::VertexStateBound
        );
        assert_eq!(
            Algorithm::PageRank { iterations: 10 }.class(),
            AlgorithmClass::EdgeBound
        );
    }

    #[test]
    fn run_on_cut_bills_all_four_and_builds_no_handle_for_tr() {
        let g = cutfit_datagen::rmat(
            &cutfit_datagen::RmatConfig {
                scale: 8,
                edges: 2048,
                ..Default::default()
            },
            3,
        );
        // The empty graph bills a load-and-setup run for every algorithm,
        // SSSP's without landmarks.
        for (g, empty) in [(g, false), (Graph::new(0, vec![]), true)] {
            let raw = Arc::new(GraphXStrategy::EdgePartition2D.partition(&g, 8));
            let canon = Arc::new(GraphXStrategy::EdgePartition2D.partition(&canonicalize(&g), 8));
            let mode = ExecutorMode::Sequential;
            for algo in Algorithm::paper_suite(7) {
                let pg = if algo.needs_canonical() { &canon } else { &raw };
                let (mut prepared, mut triangles) = (None, None);
                let reused = Reused {
                    prepared: &mut prepared,
                    triangles: &mut triangles,
                };
                let cluster = ClusterConfig::paper_cluster();
                let (sim, supersteps) = algo
                    .run_on_cut(pg, reused, &cluster, mode, mode, true)
                    .unwrap();
                let what = format!("{} on {} vertices", algo.abbrev(), g.num_vertices());
                assert!(sim.total_seconds > 0.0, "{what}");
                assert_eq!(supersteps == 0, empty && !algo.needs_canonical(), "{what}");
                let is_tr = matches!(algo, Algorithm::Triangles);
                assert_eq!(prepared.is_none(), is_tr, "{what}");
                assert_eq!(triangles.is_some(), is_tr, "{what}");
            }
        }
    }

    /// What a full engine run of `program` on `pg` bills: the states are
    /// made and dropped.
    fn full_run<P: VertexProgram>(
        pg: &Arc<PartitionedGraph>,
        program: &P,
        cap: u64,
    ) -> (SimReport, u64) {
        let cluster = ClusterConfig::paper_cluster();
        let mut prepared = PreparedRun::new(pg.clone(), &cluster, ExecutorMode::Sequential);
        let opts = PregelConfig {
            max_iterations: cap,
            ..Default::default()
        };
        let r = prepared.run(program, &opts).unwrap();
        (r.sim, r.supersteps)
    }

    #[test]
    fn bill_only_dispatch_bills_like_a_full_run() {
        let g = cutfit_datagen::rmat(&cutfit_datagen::RmatConfig::default(), 8);
        let raw = Arc::new(GraphXStrategy::RandomVertexCut.partition(&g, 8));
        let canon = Arc::new(GraphXStrategy::RandomVertexCut.partition(&canonicalize(&g), 8));
        let cluster = ClusterConfig::paper_cluster();
        let mut all_seven = Algorithm::paper_suite(7);
        all_seven.extend(Algorithm::extension_suite());
        for algo in all_seven {
            let pg = if algo.needs_canonical() { &canon } else { &raw };
            let full = match &algo {
                Algorithm::PageRank { iterations } => {
                    full_run(pg, &crate::pagerank::PageRank, *iterations)
                }
                Algorithm::ConnectedComponents { max_iterations } => {
                    full_run(pg, &crate::cc::ConnectedComponents, *max_iterations)
                }
                Algorithm::Triangles => {
                    let r = crate::triangles::triangle_count_partitioned(pg, &cluster, true);
                    (r.unwrap().sim, 4)
                }
                Algorithm::Sssp {
                    num_landmarks,
                    seed,
                    max_iterations,
                } => {
                    let landmarks = Sssp::pick_landmarks(pg.num_vertices(), *num_landmarks, *seed);
                    full_run(pg, &Sssp::new(landmarks), *max_iterations)
                }
                Algorithm::Hits { iterations } => {
                    full_run(pg, &crate::hits::HitsProgram, *iterations)
                }
                Algorithm::LabelPropagation { iterations } => {
                    full_run(pg, &crate::label_propagation::LabelPropagation, *iterations)
                }
                Algorithm::KCore { iterations } => full_run(pg, &crate::kcore::KCore, *iterations),
            };
            let reused = Reused {
                prepared: &mut None,
                triangles: &mut None,
            };
            let mode = ExecutorMode::Sequential;
            let billed = algo.run_on_cut(pg, reused, &cluster, mode, mode, true);
            assert_eq!(billed.unwrap(), full, "{}", algo.abbrev());
        }
    }
    /// A cut of the billing grid: its name, the cut and its edge
    /// assignment.
    type AssignedCut = (String, Arc<PartitionedGraph>, Vec<PartId>);

    /// RMAT with isolated vertices appended: the billing grid's graph.
    fn billing_graph() -> Graph {
        let config = cutfit_datagen::RmatConfig {
            scale: 7,
            edges: 8 << 7,
            ..Default::default()
        };
        let g = cutfit_datagen::rmat(&config, 7);
        Graph::new(g.num_vertices() + 7, g.edges().to_vec())
    }

    /// [`billing_graph`] cut by the six GraphX strategies and HDRF into
    /// `parts` partitions, each cut beside its edge assignment.
    fn billing_cuts_at(parts: PartId) -> Vec<AssignedCut> {
        cuts_of(&billing_graph(), parts)
    }

    /// `g` cut as [`billing_cuts_at`] cuts the billing graph.
    fn cuts_of(g: &Graph, parts: PartId) -> Vec<AssignedCut> {
        let mut partitioners: Vec<Box<dyn Partitioner>> = GraphXStrategy::all()
            .into_iter()
            .map(|s| Box::new(s) as Box<dyn Partitioner>)
            .collect();
        partitioners.push(Box::new(cutfit_partition::Hdrf::default()));
        partitioners
            .iter()
            .map(|p| {
                let assignment = p.assign_edges(g, parts);
                let pg = PartitionedGraph::build(g, &assignment, parts);
                (p.name().to_string(), Arc::new(pg), assignment)
            })
            .collect()
    }

    /// The engine's billing grid: [`billing_cuts_at`] 10 partitions.
    fn billing_cuts() -> Vec<(String, Arc<PartitionedGraph>)> {
        let cuts = billing_cuts_at(10).into_iter();
        cuts.map(|(name, pg, _)| (name, pg)).collect()
    }

    /// `program`'s closed-form bill on `prepared` equals its engine run's:
    /// the whole report and the superstep count, or the same error.
    fn assert_closed_form_bills_like_the_run<P: VertexProgram>(
        prepared: &mut PreparedRun,
        program: &P,
        opts: &PregelConfig,
        what: &str,
    ) -> Result<(), SimError> {
        let shape = program.steady_shape().expect("a steady program");
        let closed = prepared.bill_steady(&shape, opts);
        let run = prepared.run(program, opts).map(|r| (r.sim, r.supersteps));
        assert_eq!(closed, run, "{what} {}", program.name());
        run.map(drop)
    }

    #[test]
    fn closed_form_probes_bill_like_the_engine() {
        let cuts = billing_cuts();
        for executors in [1, 3, 4, 7, 64] {
            for (preset, scenario) in cutfit_cluster::ScenarioConfig::presets(5) {
                let cluster = ClusterConfig {
                    executors,
                    ..ClusterConfig::paper_cluster()
                }
                .with_scenario(scenario);
                for (cut, pg) in &cuts {
                    let mode = ExecutorMode::Sequential;
                    let mut prepared = PreparedRun::new(pg.clone(), &cluster, mode);
                    for iterations in [0, 1, 2, 10] {
                        let opts = PregelConfig {
                            max_iterations: iterations,
                            charge_initial_load: iterations % 2 == 1,
                            ..Default::default()
                        };
                        let what = format!("{cut}, {executors} executors, {preset}, {iterations}:");
                        let pr = crate::pagerank::PageRank;
                        assert_closed_form_bills_like_the_run(&mut prepared, &pr, &opts, &what)
                            .unwrap();
                        let hits = crate::hits::HitsProgram;
                        assert_closed_form_bills_like_the_run(&mut prepared, &hits, &opts, &what)
                            .unwrap();
                    }
                }
            }
        }
    }

    #[test]
    fn closed_form_runs_out_of_memory_where_the_engine_does() {
        // No room for the setup; then room for it, with a lineage that
        // outgrows the heap on the fourth superstep.
        let tiny = ClusterConfig {
            executor_memory_gb: 1e-6,
            ..ClusterConfig::paper_cluster()
        };
        let mut leaky = ClusterConfig::paper_cluster();
        leaky.usable_memory_fraction = 1.0;
        leaky.cost.lineage_heap_fraction_per_superstep = 0.3;
        let opts = PregelConfig {
            max_iterations: 10,
            ..Default::default()
        };
        for (cut, pg) in billing_cuts() {
            for (cluster, at) in [(tiny.clone(), 1), (leaky.clone(), 4)] {
                let mut prepared = PreparedRun::new(pg.clone(), &cluster, ExecutorMode::Sequential);
                let what = format!("{cut}:");
                let pr = crate::pagerank::PageRank;
                let hits = crate::hits::HitsProgram;
                for err in [
                    assert_closed_form_bills_like_the_run(&mut prepared, &pr, &opts, &what),
                    assert_closed_form_bills_like_the_run(&mut prepared, &hits, &opts, &what),
                ] {
                    match err {
                        Err(SimError::OutOfMemory { superstep, .. }) => {
                            assert_eq!(superstep, at, "{what}")
                        }
                        Ok(()) => panic!("{what} fits"),
                    }
                }
            }
        }
    }

    /// The SSSP program the traced tests run: five landmarks of the
    /// billing graph.
    fn five_landmarks(pg: &PartitionedGraph) -> Sssp {
        Sssp::new(Sssp::pick_landmarks(pg.num_vertices(), 5, 7))
    }

    fn run_bill<P: VertexProgram>(
        prepared: &mut PreparedRun,
        program: &P,
        opts: &PregelConfig,
    ) -> Result<(SimReport, u64), SimError> {
        prepared.run(program, opts).map(|r| (r.sim, r.supersteps))
    }

    #[test]
    fn traced_probes_bill_like_the_engine() {
        // One recording per program and cap, on the first cut under the
        // paper cluster; every cell bills its cut from it. The lineage of
        // the leaky cluster outgrows the heap on the fourth superstep.
        let cuts = billing_cuts_at(10);
        let cc = crate::cc::ConnectedComponents;
        let sssp = five_landmarks(&cuts[0].1);
        let mut leaky = ClusterConfig::paper_cluster();
        leaky.usable_memory_fraction = 1.0;
        leaky.cost.lineage_heap_fraction_per_superstep = 0.3;
        let mut clusters = vec![("leaky".to_string(), leaky)];
        for executors in [1, 3, 7, 64] {
            for (preset, scenario) in cutfit_cluster::ScenarioConfig::presets(5) {
                let cluster = ClusterConfig {
                    executors,
                    ..ClusterConfig::paper_cluster()
                }
                .with_scenario(scenario);
                clusters.push((format!("{executors} executors, {preset}"), cluster));
            }
        }
        let mode = ExecutorMode::Sequential;
        let mut out_of_memory = 0;
        for iterations in [0, 1, 3, 10] {
            let opts = PregelConfig {
                max_iterations: iterations,
                charge_initial_load: iterations % 2 == 1,
                ..Default::default()
            };
            let (_, first, assignment) = &cuts[0];
            let mut recording =
                PreparedRun::new(first.clone(), &ClusterConfig::paper_cluster(), mode);
            let (sim, steps, cc_trace) = recording.record(&cc, &opts, assignment).unwrap();
            assert_eq!(Ok((sim, steps)), run_bill(&mut recording, &cc, &opts));
            let (sim, steps, sssp_trace) = recording.record(&sssp, &opts, assignment).unwrap();
            assert_eq!(Ok((sim, steps)), run_bill(&mut recording, &sssp, &opts));
            for (setting, cluster) in &clusters {
                for (cut, pg, assignment) in &cuts {
                    let mut prepared = PreparedRun::new(pg.clone(), cluster, mode);
                    let what = format!("{cut}, {setting}, {iterations} iterations");
                    for (trace, ran) in [
                        (&cc_trace, run_bill(&mut prepared, &cc, &opts)),
                        (&sssp_trace, run_bill(&mut prepared, &sssp, &opts)),
                    ] {
                        let billed = prepared.bill_traced(trace, assignment, &opts);
                        assert_eq!(billed, ran, "{what}");
                        if let Err(SimError::OutOfMemory { .. }) = ran {
                            out_of_memory += 1;
                        }
                    }
                }
            }
        }
        assert!(out_of_memory > 0, "no cell ran out of memory");
    }

    #[test]
    fn a_trace_is_the_same_on_every_cut_thread_count_and_scan_mode() {
        use cutfit_engine::pregel::{with_scan_mode, ScanMode};
        let cluster = ClusterConfig::paper_cluster();
        let cc = crate::cc::ConnectedComponents;
        let mut first = None;
        for parts in [1, 10, 64] {
            for (cut, pg, assignment) in billing_cuts_at(parts) {
                let sssp = five_landmarks(&pg);
                for threads in [1, 3] {
                    let mode = ExecutorMode::Parallel { threads };
                    let mut prepared = PreparedRun::new(pg.clone(), &cluster, mode);
                    let opts = PregelConfig {
                        max_iterations: 10,
                        executor: mode,
                        ..Default::default()
                    };
                    for scan_mode in [ScanMode::Dense, ScanMode::Sparse, ScanMode::Auto] {
                        let traces = with_scan_mode(scan_mode, || {
                            let (_, _, cc) = prepared.record(&cc, &opts, &assignment).unwrap();
                            let (_, _, sssp) = prepared.record(&sssp, &opts, &assignment).unwrap();
                            (cc, sssp)
                        });
                        let what =
                            format!("{cut} at {parts} parts, {threads} threads, {scan_mode:?}");
                        assert_eq!(
                            &traces,
                            first.get_or_insert_with(|| traces.clone()),
                            "{what}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn label_propagation_and_kcore_probes_run_the_engine() {
        // A partial of either program is a merge of variable-length
        // messages — label histograms, degree-sized estimate vectors — so
        // its size is known only to the merge, and no trace can bill it:
        // neither program declares a message sizing, and their probes are
        // the engine's bill of the probe.
        assert!(crate::label_propagation::LabelPropagation
            .message_sizing()
            .is_none());
        assert!(crate::kcore::KCore.message_sizing().is_none());
        let g = cutfit_datagen::rmat(&cutfit_datagen::RmatConfig::default(), 8);
        let cluster = ClusterConfig::paper_cluster();
        let mode = ExecutorMode::Sequential;
        for algo in Algorithm::extension_suite().into_iter().skip(1) {
            let target = if algo.needs_canonical() {
                canonicalize(&g)
            } else {
                g.clone()
            };
            let pg = Arc::new(GraphXStrategy::EdgePartition2D.partition(&target, 8));
            let mut trace = None;
            let traced = TraceSlot {
                trace: &mut trace,
                assignment: &mut || -> Vec<PartId> {
                    unreachable!("an engine-run probe reads no assignment")
                },
            };
            let reused = Reused {
                prepared: &mut None,
                triangles: &mut None,
            };
            let probed = algo.probe_on_cut(&pg, reused, traced, &cluster, mode, mode);
            let mut prepared = PreparedRun::new(pg.clone(), &cluster, mode);
            let opts = |max_iterations| PregelConfig {
                max_iterations,
                charge_initial_load: false,
                ..Default::default()
            };
            let billed = match algo.probe() {
                Algorithm::LabelPropagation { iterations } => {
                    let program = &crate::label_propagation::LabelPropagation;
                    prepared.bill(program, &opts(iterations))
                }
                Algorithm::KCore { iterations } => {
                    prepared.bill(&crate::kcore::KCore, &opts(iterations))
                }
                other => panic!("{} is not engine-run", other.abbrev()),
            };
            assert_eq!(probed, billed, "{}", algo.abbrev());
            assert!(trace.is_none(), "{}", algo.abbrev());
        }
    }

    #[test]
    fn the_first_probe_that_completes_records_the_trace() {
        // The first candidate runs out of memory at setup and records
        // nothing; the second records; the third is billed from the trace,
        // as the engine bills it.
        let tiny = ClusterConfig {
            executor_memory_gb: 1e-6,
            ..ClusterConfig::paper_cluster()
        };
        let cluster = ClusterConfig::paper_cluster();
        let cuts = billing_cuts_at(10);
        let mode = ExecutorMode::Sequential;
        for algo in [
            Algorithm::ConnectedComponents { max_iterations: 10 },
            Algorithm::paper_suite(7).remove(3),
        ] {
            let mut trace = None;
            let probe = |k: usize, cluster: &ClusterConfig, trace: &mut Option<_>| {
                let (_, pg, assignment) = &cuts[k];
                let traced = TraceSlot {
                    trace,
                    assignment: &mut || assignment.clone(),
                };
                let reused = Reused {
                    prepared: &mut None,
                    triangles: &mut None,
                };
                algo.probe_on_cut(pg, reused, traced, cluster, mode, mode)
            };
            let what = algo.abbrev();
            assert!(probe(0, &tiny, &mut trace).is_err(), "{what}");
            assert!(trace.is_none(), "{what}");
            let recorded = probe(1, &cluster, &mut trace);
            assert!(trace.is_some(), "{what}");
            let billed = probe(2, &cluster, &mut trace);
            let opts = PregelConfig {
                max_iterations: 3,
                charge_initial_load: false,
                ..Default::default()
            };
            let sssp = five_landmarks(&cuts[0].1);
            for (k, probed) in [(1, recorded), (2, billed)] {
                let mut prepared = PreparedRun::new(cuts[k].1.clone(), &cluster, mode);
                let ran = match algo {
                    Algorithm::ConnectedComponents { .. } => {
                        prepared.bill(&crate::cc::ConnectedComponents, &opts)
                    }
                    _ => prepared.bill(&sssp, &opts),
                };
                assert_eq!(probed, ran, "{what} on {}", cuts[k].0);
            }
        }
    }

    /// The paper cluster under each of the six scenario presets on 1, 7 and
    /// 64 executors, and a leaky cluster whose lineage outgrows the heap.
    fn tr_clusters() -> Vec<(String, ClusterConfig)> {
        let mut leaky = ClusterConfig::paper_cluster();
        leaky.usable_memory_fraction = 1.0;
        leaky.cost.lineage_heap_fraction_per_superstep = 0.3;
        let mut clusters = vec![("leaky".to_string(), leaky)];
        for executors in [1, 7, 64] {
            for (preset, scenario) in cutfit_cluster::ScenarioConfig::presets(5) {
                let cluster = ClusterConfig {
                    executors,
                    ..ClusterConfig::paper_cluster()
                }
                .with_scenario(scenario);
                clusters.push((format!("{executors} executors, {preset}"), cluster));
            }
        }
        clusters
    }

    /// Every TR job and probe of `cuts` under every cluster of
    /// [`tr_clusters`], on `triangles`' index of the canonical graph the
    /// cuts were cut from, against the per-vertex-set reference on the same
    /// cut: the first cell whose bill or count differs, if any, and the
    /// cells that ran out of memory. Jobs and probes read the same
    /// supported bits, so the reference referees both.
    fn tr_probe_mismatch(
        triangles: &mut Option<TriangleIndex>,
        cuts: &[AssignedCut],
    ) -> (Option<String>, usize) {
        let mode = ExecutorMode::Sequential;
        let mut out_of_memory = 0;
        for (setting, cluster) in &tr_clusters() {
            for (cut, pg, assignment) in cuts {
                let what = format!("{cut}, {setting}");
                let reference = |load| reference_triangle_count_partitioned(pg, cluster, load);
                let index = triangles.as_ref().expect("the canonical graph's index");
                let counted = triangle_count_indexed(pg, index, cluster, true);
                let billed = triangle_bill_supported(pg, index, Some(assignment), cluster, true);
                let answer = |r: TriangleResult| (r.sim, r.total, r.per_vertex);
                let loaded = reference(true).map(answer);
                if counted.map(answer) != loaded || billed != loaded.map(|(sim, ..)| sim) {
                    return (Some(format!("{what}, load charged")), out_of_memory);
                }
                let mut prepared = None;
                let reused = Reused {
                    prepared: &mut prepared,
                    triangles,
                };
                let traced = TraceSlot {
                    trace: &mut None,
                    assignment: &mut || assignment.clone(),
                };
                let algo = Algorithm::Triangles;
                let probed = algo.probe_on_cut(pg, reused, traced, cluster, mode, mode);
                assert!(
                    prepared.is_none(),
                    "{what}: a TR probe built an engine handle"
                );
                if probed != reference(false).map(|r| (r.sim, 4)) {
                    return (Some(what), out_of_memory);
                }
                if let Err(SimError::OutOfMemory { .. }) = probed {
                    out_of_memory += 1;
                }
            }
        }
        (None, out_of_memory)
    }

    /// The TR grid's cuts of `g`: the billing grid's, and the same
    /// strategies at 256 partitions, where a partition holds a few edges
    /// and a vertex's partial hangs on one or two of them.
    fn tr_cuts(g: &Graph) -> Vec<AssignedCut> {
        let mut cuts = cuts_of(g, 10);
        cuts.extend(cuts_of(g, 256));
        cuts
    }

    /// A `side × side` lattice in canonical orientation: bipartite, so
    /// no edge closes a triangle.
    fn lattice(side: u64) -> Graph {
        let at = |x: u64, y: u64| y * side + x;
        let edges = (0..side).flat_map(|y| {
            (0..side).flat_map(move |x| {
                let right = (x + 1 < side).then(|| Edge::new(at(x, y), at(x + 1, y)));
                let down = (y + 1 < side).then(|| Edge::new(at(x, y), at(x, y + 1)));
                right.into_iter().chain(down)
            })
        });
        canonicalize(&Graph::new(side * side, edges.collect()))
    }

    #[test]
    fn triangle_probes_bill_like_the_indexed_count() {
        let canon = canonicalize(&billing_graph());
        let free = lattice(12);
        for (family, g) in [("RMAT", &canon), ("lattice", &free)] {
            let mut triangles = Some(TriangleIndex::of_canonical(g));
            let (mismatch, out_of_memory) = tr_probe_mismatch(&mut triangles, &tr_cuts(g));
            assert_eq!(mismatch, None, "{family}");
            assert!(out_of_memory > 0, "{family}: no cell ran out of memory");
        }
        assert!(count_triangles(&free) == 0 && count_triangles(&canon) > 0);
        let empty = Graph::new(0, Vec::new());
        let mut triangles = Some(TriangleIndex::of_canonical(&empty));
        let (mismatch, _) = tr_probe_mismatch(&mut triangles, &tr_cuts(&empty));
        assert_eq!(mismatch, None, "the empty graph");
    }

    #[test]
    fn a_flipped_supported_bit_fails_the_triangle_probe_grid() {
        let canon = canonicalize(&billing_graph());
        let cuts = tr_cuts(&canon);
        let mut triangles = Some(TriangleIndex::of_canonical(&canon));
        assert_eq!(tr_probe_mismatch(&mut triangles, &cuts).0, None);
        let mut rng = cutfit_util::Xoshiro256pp::seed_from_u64(36);
        for _ in 0..3 {
            let edge = vid_index(rng.range_u64(canon.num_edges()));
            triangles.as_mut().expect("built").flip_supported(edge);
            let (mismatch, _) = tr_probe_mismatch(&mut triangles, &cuts);
            assert!(mismatch.is_some(), "edge {edge}'s flipped bit went unseen");
            triangles.as_mut().expect("built").flip_supported(edge);
        }
    }

    #[test]
    fn a_triangle_probe_without_an_index_is_refused_and_fills_nothing() {
        let (_, pg, assignment) = &tr_cuts(&canonicalize(&billing_graph()))[0];
        let (cluster, mode) = (ClusterConfig::paper_cluster(), ExecutorMode::Sequential);
        let mut triangles = None;
        let probe = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let reused = Reused {
                prepared: &mut None,
                triangles: &mut triangles,
            };
            let traced = TraceSlot {
                trace: &mut None,
                assignment: &mut || assignment.clone(),
            };
            Algorithm::Triangles.probe_on_cut(pg, reused, traced, &cluster, mode, mode)
        }));
        assert!(probe.is_err(), "a TR probe ran on an empty slot");
        assert!(triangles.is_none(), "a refused TR probe filled its slot");
    }

    #[test]
    fn an_sssp_trace_keeps_setup_sizes_per_landmark_not_per_vertex() {
        // With no message superstep the trace is its setup: the vertices
        // whose initial state differs from the common one, the landmarks.
        let (_, pg, assignment) = &billing_cuts_at(10)[0];
        let cluster = ClusterConfig::paper_cluster();
        let opts = PregelConfig {
            max_iterations: 0,
            ..Default::default()
        };
        for landmarks in [1, 5, 20] {
            let sssp = Sssp::new(Sssp::pick_landmarks(pg.num_vertices(), landmarks, 7));
            let mut prepared = PreparedRun::new(pg.clone(), &cluster, ExecutorMode::Sequential);
            let (sim, supersteps, trace) = prepared.record(&sssp, &opts, assignment).unwrap();
            assert_eq!(supersteps, 0);
            assert_eq!(trace.heap_bytes(), 16 * landmarks as u64, "{landmarks}");
            let billed = prepared.bill_traced(&trace, assignment, &opts).unwrap();
            assert_eq!(billed, (sim, 0), "{landmarks}");
        }
        // The bound can tell: eight bytes per vertex would be well above it.
        assert!(8 * pg.num_vertices() > 3 * 16 * 20);
    }
}
