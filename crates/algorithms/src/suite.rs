//! A uniform front-end over the paper's four algorithms, used by the
//! experiment harness, the advisor, and the benchmark binaries.

use std::sync::Arc;

use cutfit_cluster::{ClusterConfig, SimError, SimReport};
use cutfit_engine::{ExecutorMode, PregelConfig, PreparedRun, VertexProgram};
use cutfit_partition::PartitionedGraph;

use crate::sssp::Sssp;
use crate::triangles::triangle_count_partitioned;

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
            // time is one full pass over flat arrays (a neighbour CSR build,
            // one row intersection per edge); the metric mode avoids even
            // that.
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
    /// straight over the cut. Every other algorithm runs through `prepared`,
    /// the cut's [`PreparedRun`] handle, built here on the first such run
    /// with `prepared_executor`'s thread budget — so a cut only TR runs on
    /// never pays for a routing index. The cut must be in canonical
    /// orientation when [`Algorithm::needs_canonical`] says so.
    ///
    /// `charge_load` controls whether the initial dataset load from storage
    /// is billed: one-shot runs bill it, session runs load the graph once
    /// per workspace instead. Vertex states are exact internally but not
    /// returned here (use the per-algorithm entry points when you need them).
    pub fn run_on_cut(
        &self,
        pg: &Arc<PartitionedGraph>,
        prepared: &mut Option<PreparedRun>,
        cluster: &ClusterConfig,
        prepared_executor: ExecutorMode,
        executor: ExecutorMode,
        charge_load: bool,
    ) -> Result<(SimReport, u64), SimError> {
        // Called by the Pregel arms only. Moving the slot out makes this a
        // one-shot closure, so the handle it returns outlives the call.
        let handle = move || {
            let slot = prepared;
            slot.get_or_insert_with(|| PreparedRun::new(pg.clone(), cluster, prepared_executor))
        };
        let opts = PregelConfig {
            executor,
            charge_initial_load: charge_load,
            ..Default::default()
        };
        match self {
            Algorithm::Triangles => {
                let r = triangle_count_partitioned(pg, cluster, charge_load)?;
                Ok((r.sim, 4))
            }
            Algorithm::PageRank { iterations } => {
                run_pregel(handle(), &crate::pagerank::PageRank, *iterations, opts)
            }
            Algorithm::ConnectedComponents { max_iterations } => run_pregel(
                handle(),
                &crate::cc::ConnectedComponents,
                *max_iterations,
                opts,
            ),
            Algorithm::Sssp {
                num_landmarks,
                seed,
                max_iterations,
            } => {
                let landmarks = Sssp::pick_landmarks(pg.num_vertices(), *num_landmarks, *seed);
                run_pregel(handle(), &Sssp::new(landmarks), *max_iterations, opts)
            }
            // Score normalisation only post-processes states; the bill and
            // superstep count are those of the Pregel run.
            Algorithm::Hits { iterations } => {
                run_pregel(handle(), &crate::hits::HitsProgram, *iterations, opts)
            }
            Algorithm::LabelPropagation { iterations } => run_pregel(
                handle(),
                &crate::label_propagation::LabelPropagation,
                *iterations,
                opts,
            ),
            Algorithm::KCore { iterations } => {
                run_pregel(handle(), &crate::kcore::KCore, *iterations, opts)
            }
        }
    }
}

/// Runs `program` on `prepared` for at most `cap` iterations, keeping the
/// bill and the superstep count.
fn run_pregel<P: VertexProgram>(
    prepared: &mut PreparedRun,
    program: &P,
    cap: u64,
    opts: PregelConfig,
) -> Result<(SimReport, u64), SimError> {
    let r = prepared.run(
        program,
        &PregelConfig {
            max_iterations: cap,
            ..opts
        },
    )?;
    Ok((r.sim, r.supersteps))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::triangles::canonicalize;
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
        let raw = Arc::new(GraphXStrategy::EdgePartition2D.partition(&g, 8));
        let canon = Arc::new(GraphXStrategy::EdgePartition2D.partition(&canonicalize(&g), 8));
        let mode = ExecutorMode::Sequential;
        for algo in Algorithm::paper_suite(7) {
            let pg = if algo.needs_canonical() { &canon } else { &raw };
            let mut prepared = None;
            let (sim, supersteps) = algo
                .run_on_cut(
                    pg,
                    &mut prepared,
                    &ClusterConfig::paper_cluster(),
                    mode,
                    mode,
                    true,
                )
                .unwrap();
            assert!(sim.total_seconds > 0.0, "{}", algo.abbrev());
            assert!(supersteps > 0, "{}", algo.abbrev());
            let is_tr = matches!(algo, Algorithm::Triangles);
            assert_eq!(prepared.is_none(), is_tr, "{}", algo.abbrev());
        }
    }
}
