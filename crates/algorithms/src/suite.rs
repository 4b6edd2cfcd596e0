//! A uniform front-end over the paper's four algorithms, used by the
//! experiment harness, the advisor, and the benchmark binaries.

use std::sync::Arc;

use cutfit_cluster::{ClusterConfig, SimError, SimReport};
use cutfit_engine::{ExecutorMode, PregelConfig, PreparedRun, VertexProgram};
use cutfit_partition::PartitionedGraph;

use crate::sssp::Sssp;
use crate::triangles::{triangle_count_indexed, TriangleIndex};

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
    /// without paying for the full run. Used by the advisor's simulated
    /// mode to rank candidate partitioners by *predicted time*.
    pub fn probe(&self) -> Algorithm {
        match self {
            Algorithm::PageRank { .. } => Algorithm::PageRank { iterations: 2 },
            Algorithm::ConnectedComponents { .. } => {
                Algorithm::ConnectedComponents { max_iterations: 3 }
            }
            // TR's four phases are fixed, so there is no shorter run: the
            // probe is the job, and its simulated bill is the job's. Its wall
            // time is one pass over the cut's flat arrays, reading the
            // session's triangle index (built by the first TR dispatch); the
            // metric mode avoids even that.
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
        self.dispatch(pg, reused, cluster, prepared_executor, opts, false)
    }

    /// Bills this algorithm's [`Algorithm::probe`] on `pg` as
    /// [`Algorithm::run_on_cut`] would without the load, except that a probe
    /// whose program declares a [`VertexProgram::steady_shape`] — PageRank,
    /// HITS — is billed in closed form from the cut's tables
    /// ([`PreparedRun::bill_steady`]), bit for bit the engine run's bill,
    /// without running it. A probe's answer is never read; a job's is the
    /// product, so jobs always run.
    pub fn probe_on_cut(
        &self,
        pg: &Arc<PartitionedGraph>,
        reused: Reused<'_>,
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
            .dispatch(pg, reused, cluster, prepared_executor, opts, true)
    }

    /// What [`Algorithm::run_on_cut`] and [`Algorithm::probe_on_cut`] share:
    /// the run of this algorithm on `pg`, the engine handle built on
    /// `cluster` with `prepared_executor`'s thread budget, and with
    /// `closed_form` a steady program billed without running.
    fn dispatch(
        &self,
        pg: &Arc<PartitionedGraph>,
        reused: Reused<'_>,
        cluster: &ClusterConfig,
        prepared_executor: ExecutorMode,
        opts: PregelConfig,
        closed_form: bool,
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
                let index = triangles.get_or_insert_with(|| TriangleIndex::of_cut(pg));
                let r = triangle_count_indexed(pg, index, cluster, opts.charge_initial_load)?;
                Ok((r.sim, 4))
            }
            Algorithm::PageRank { iterations } => {
                let program = &crate::pagerank::PageRank;
                bill(handle(), program, &capped(*iterations), closed_form)
            }
            Algorithm::ConnectedComponents { max_iterations } => {
                let program = &crate::cc::ConnectedComponents;
                bill(handle(), program, &capped(*max_iterations), closed_form)
            }
            Algorithm::Sssp {
                num_landmarks,
                seed,
                max_iterations,
            } => {
                let landmarks = Sssp::pick_landmarks(pg.num_vertices(), *num_landmarks, *seed);
                let program = &Sssp::new(landmarks);
                bill(handle(), program, &capped(*max_iterations), closed_form)
            }
            // Score normalisation only post-processes states; the bill and
            // superstep count are those of the Pregel run.
            Algorithm::Hits { iterations } => {
                let program = &crate::hits::HitsProgram;
                bill(handle(), program, &capped(*iterations), closed_form)
            }
            Algorithm::LabelPropagation { iterations } => {
                let program = &crate::label_propagation::LabelPropagation;
                bill(handle(), program, &capped(*iterations), closed_form)
            }
            Algorithm::KCore { iterations } => {
                let program = &crate::kcore::KCore;
                bill(handle(), program, &capped(*iterations), closed_form)
            }
        }
    }
}

/// Bills `program` on `prepared` under `opts`, keeping the bill and the
/// superstep count and no state rows; with `closed_form`, a program of
/// steady shape without running it.
fn bill<P: VertexProgram>(
    prepared: &mut PreparedRun,
    program: &P,
    opts: &PregelConfig,
    closed_form: bool,
) -> Result<(SimReport, u64), SimError> {
    match program.steady_shape().filter(|_| closed_form) {
        Some(shape) => prepared.bill_steady(&shape, opts),
        None => prepared.bill(program, opts),
    }
}

/// The state dispatches reuse, borrowed from whoever keeps it; each slot is
/// filled by the first dispatch that needs it.
pub struct Reused<'a> {
    /// The cut's engine handle, built by the first Pregel dispatch on it.
    pub prepared: &'a mut Option<PreparedRun>,
    /// Triangle Count's index of the graph the cut was cut from, built by
    /// the first TR dispatch from that cut's edges. Every canonical cut of
    /// one graph holds the same edges, so one slot serves all of them.
    pub triangles: &'a mut Option<TriangleIndex>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::triangles::canonicalize;
    use cutfit_graph::Graph;
    use cutfit_partition::{GraphXStrategy, Partitioner};

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
    /// RMAT with isolated vertices appended, cut by the six GraphX
    /// strategies and HDRF into 10 partitions: the engine's billing grid.
    fn billing_cuts() -> Vec<(String, Arc<PartitionedGraph>)> {
        let config = cutfit_datagen::RmatConfig {
            scale: 7,
            edges: 8 << 7,
            ..Default::default()
        };
        let g = cutfit_datagen::rmat(&config, 7);
        let g = Graph::new(g.num_vertices() + 7, g.edges().to_vec());
        let hdrf = cutfit_partition::Hdrf::default();
        let mut cuts: Vec<(String, Arc<PartitionedGraph>)> = GraphXStrategy::all()
            .iter()
            .map(|s| (s.to_string(), Arc::new(s.partition(&g, 10))))
            .collect();
        cuts.push((hdrf.name().to_string(), Arc::new(hdrf.partition(&g, 10))));
        cuts
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
}
