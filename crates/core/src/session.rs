//! Workload sessions: a caching, advisor-driven serving layer for
//! mixed-algorithm workloads.
//!
//! The paper's thesis is that *different computations want different cuts*.
//! A deployment serving heavy traffic needs to *exploit* it: many jobs
//! arrive against the same loaded graph, and the right unit of caching is
//! the **(graph, cut) pair**, amortized across every job that shares it.
//! The workspace is also the only way a job runs at all: a one-shot grid
//! cell ([`Workspace::run_job_isolated`]) and a served job
//! ([`Workspace::run_job_with`]) take the same path through the cache.
//!
//! [`Workspace`] owns one loaded [`Graph`] and memoizes, per
//! [`CutKey`] (strategy × granularity × canonical-orientation flag):
//!
//! * the materialized [`Arc<PartitionedGraph>`],
//! * its [`PartitionMetrics`] (computed once, never per job),
//! * a [`PreparedRun`] handle — the engine's run-scoped routing index,
//!   degree tables, metering sim, and program-independent buffers — so a
//!   cache-hit dispatch ([`Workspace::run_job_with`]) skips *all* setup and
//!   goes straight into the superstep loop.
//!
//! The lifetime model is deliberately eviction-free: a session pins every
//! cut it has served until the workspace is dropped. Sessions are scoped —
//! one per (dataset, workload burst) — so the cache's working set is the
//! set of cuts the advisor actually recommends, typically a handful.
//!
//! Cross-job accounting closes the loop on the paper's
//! tailor-vs-one-size-fits-all comparison: the workspace carries a
//! session-level [`ClusterSim`] that bills the initial dataset load once
//! and a [`ClusterSim::charge_repartition`] shuffle every time a job
//! switches the active cut, so a [`WorkloadReport`] answers the end-to-end
//! question — is tailoring the cut per job worth the re-partitioning it
//! causes? (Per the paper's evaluation: yes, and the `workload_mixed`
//! binary reproduces it.)

use std::collections::btree_map::{BTreeMap, Entry};
use std::sync::Arc;

use cutfit_algorithms::suite::{Reused, TraceSlot};
use cutfit_algorithms::triangles::{canonicalize, TriangleIndex};
use cutfit_algorithms::Algorithm;
use cutfit_cluster::{ClusterConfig, ClusterSim, SimError, SimReport};
use cutfit_engine::{ExecutorMode, PreparedRun};
use cutfit_graph::types::PartId;
use cutfit_graph::Graph;
use cutfit_partition::{GraphXStrategy, PartitionMetrics, PartitionedGraph, Partitioner};
use cutfit_util::table::{Align, AsciiTable};

use crate::advisor::{rank, Advisor, GranularityHint};

/// Cache key of one materialized cut: which strategy, how many partitions,
/// and whether the cut is over the canonical orientation of the graph
/// (Triangle Count and k-core run on the canonicalized graph — a canonical
/// and a raw cut of the same `(strategy, num_parts)` are different
/// materializations).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CutKey {
    /// Partitioning strategy.
    pub strategy: GraphXStrategy,
    /// Partition count.
    pub num_parts: PartId,
    /// True when the cut is over the canonical orientation.
    pub canonical: bool,
}

/// How the workspace's advisor ranks candidate strategies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdviceMode {
    /// The paper's measured mode: one fused edge scan scores every
    /// candidate on the class-appropriate metric
    /// ([`Advisor::recommend_measured`]). Cheapest, but the paper itself
    /// shows the metric–runtime correlation is imperfect (Figure 3 vs
    /// Table 2: a CommCost winner can lose at runtime).
    #[default]
    Measured,
    /// Short probes of the algorithm itself ([`Algorithm::probe`]) under
    /// every candidate, ranked by **simulated time**, which captures
    /// effects no single metric does (on the crawl datasets 1D minimises
    /// CommCost yet loses at runtime). Probing is what a session makes
    /// affordable: the dispatch runs through the workspace's own cut cache
    /// (every materialization a probe forces is one the advised jobs
    /// reuse), the ranking is memoized per (algorithm, granularity), and
    /// the probes' simulated cost — tracked separately in
    /// [`Workspace::advice_seconds`] — amortizes over the session's
    /// lifetime like the paper's preprocessing pass. Each bill is the
    /// engine run's, bit for bit, but only some probes run the engine
    /// ([`Algorithm::probe_on_cut`]): PageRank and HITS are billed in
    /// closed form, CC and SSSP run on one candidate and are billed from
    /// its trace on the rest, Triangle Count is billed from each
    /// candidate's assignment and the session's triangle index, which holds
    /// the count and one supported bit per edge, with no edge looked up,
    /// and label propagation and k-core run on every candidate.
    Probed,
}

/// How a job picks its cut.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CutChoice {
    /// An explicit cut — the one-size-fits-all baseline, or grid cells.
    Fixed {
        /// Partitioning strategy.
        strategy: GraphXStrategy,
        /// Partition count.
        num_parts: PartId,
    },
    /// The advisor picks the strategy (measured mode: one fused edge scan
    /// scoring every candidate on the class-appropriate metric, memoized
    /// per class/granularity) at an explicit granularity.
    AdvisedAt {
        /// Partition count.
        num_parts: PartId,
    },
    /// Fully advised: strategy as [`CutChoice::AdvisedAt`], granularity
    /// from the paper's coarse/fine rule applied to the workspace's base
    /// partition count (coarse = base, fine = 2 × base).
    Advised,
}

/// One unit of a workload: an algorithm plus its cut policy.
#[derive(Debug, Clone)]
pub struct Job {
    /// The algorithm to run.
    pub algorithm: Algorithm,
    /// How to pick its cut.
    pub cut: CutChoice,
}

impl Job {
    /// A fully-advised job.
    pub fn advised(algorithm: Algorithm) -> Self {
        Self {
            algorithm,
            cut: CutChoice::Advised,
        }
    }

    /// An advised-strategy job at a fixed granularity.
    pub fn advised_at(algorithm: Algorithm, num_parts: PartId) -> Self {
        Self {
            algorithm,
            cut: CutChoice::AdvisedAt { num_parts },
        }
    }

    /// A fixed-cut job.
    pub fn fixed(algorithm: Algorithm, strategy: GraphXStrategy, num_parts: PartId) -> Self {
        Self {
            algorithm,
            cut: CutChoice::Fixed {
                strategy,
                num_parts,
            },
        }
    }
}

/// Session cache counters. Hits and misses count **cut-cache lookups**
/// (one per `ensure`d materialization), not jobs: job dispatch, advisory
/// probes ([`AdviceMode::Probed`] touches every candidate), and the
/// [`Workspace::materialized`] accessor all contribute. Per-job cache
/// outcomes live in [`JobOutcome::cache_hit`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from an already-materialized cut.
    pub cache_hits: u64,
    /// Lookups that materialized a cut on demand.
    pub cache_misses: u64,
    /// Jobs that changed the active cut (each one billed a repartition).
    pub cut_switches: u64,
}

/// What happened when one job was dispatched.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// Algorithm abbreviation (PR, CC, TR, SSSP, …).
    pub algorithm: &'static str,
    /// The strategy actually executed.
    pub strategy: GraphXStrategy,
    /// The granularity actually executed.
    pub num_parts: PartId,
    /// Whether the cut was over the canonical orientation.
    pub canonical: bool,
    /// True when the cut was already materialized.
    pub cache_hit: bool,
    /// True when dispatching this job changed the session's active cut.
    pub switched_cut: bool,
    /// Session-level cost incurred to make this job runnable: the one-time
    /// initial load (first job only) plus the repartition shuffle when the
    /// active cut switched. Zero for a cache-hit job on the active cut.
    pub provisioning_seconds: f64,
    /// Metrics of the executed cut (memoized — computed once per cut).
    pub metrics: PartitionMetrics,
    /// Supersteps executed (0 on failure).
    pub supersteps: u64,
    /// The simulated bill, or the failure that aborted the job.
    pub result: Result<SimReport, SimError>,
}

impl JobOutcome {
    /// Simulated job execution time, if the job succeeded.
    pub fn time_s(&self) -> Option<f64> {
        self.result.as_ref().ok().map(|r| r.total_seconds)
    }

    /// Failure description, if the job failed.
    pub fn failure(&self) -> Option<String> {
        self.result.as_ref().err().map(|e| e.to_string())
    }
}

/// The outcome of a whole workload: per-job records plus the session-level
/// charges, so fixed-cut and tailored serving strategies compare end to
/// end — repartitioning cost included.
#[derive(Debug, Clone, Default)]
pub struct WorkloadReport {
    /// One record per dispatched job, in submission order.
    pub jobs: Vec<JobOutcome>,
}

impl WorkloadReport {
    /// Sum of successful jobs' simulated execution times.
    pub fn job_seconds(&self) -> f64 {
        self.jobs.iter().filter_map(|j| j.time_s()).sum()
    }

    /// Sum of session-level charges (initial load + repartition shuffles).
    pub fn provisioning_seconds(&self) -> f64 {
        self.jobs.iter().map(|j| j.provisioning_seconds).sum()
    }

    /// End-to-end simulated cost of serving the workload.
    pub fn total_seconds(&self) -> f64 {
        self.job_seconds() + self.provisioning_seconds()
    }

    /// Number of failed jobs.
    pub fn failures(&self) -> usize {
        self.jobs.iter().filter(|j| j.result.is_err()).count()
    }

    /// Number of cache-hit dispatches.
    pub fn cache_hits(&self) -> usize {
        self.jobs.iter().filter(|j| j.cache_hit).count()
    }

    /// Number of active-cut switches (each billed a repartition).
    pub fn cut_switches(&self) -> usize {
        self.jobs.iter().filter(|j| j.switched_cut).count()
    }

    /// Simulated seconds the workload's jobs spent recovering from executor
    /// failures (restore + replay), summed over successful jobs. Recovery
    /// during provisioning is billed on the session sim instead — see
    /// [`Workspace::session_report`].
    pub fn recovery_seconds(&self) -> f64 {
        self.sim_sum(|r| r.recovery_seconds)
    }

    /// Straggler-induced barrier slack summed over successful jobs.
    pub fn straggler_slack_seconds(&self) -> f64 {
        self.sim_sum(|r| r.straggler_slack_seconds)
    }

    /// Bytes written to checkpoint storage, summed over successful jobs.
    pub fn checkpoint_bytes(&self) -> u64 {
        self.jobs
            .iter()
            .filter_map(|j| j.result.as_ref().ok())
            .map(|r| r.checkpoint_bytes)
            .sum()
    }

    /// Executor failure events absorbed across successful jobs.
    pub fn executor_failures(&self) -> u64 {
        self.jobs
            .iter()
            .filter_map(|j| j.result.as_ref().ok())
            .map(|r| r.executor_failures)
            .sum()
    }

    fn sim_sum(&self, f: impl Fn(&SimReport) -> f64) -> f64 {
        self.jobs
            .iter()
            .filter_map(|j| j.result.as_ref().ok())
            .map(f)
            .sum()
    }

    /// Renders the per-job table.
    pub fn render(&self) -> String {
        let mut t = AsciiTable::new([
            "job",
            "strategy",
            "parts",
            "cache",
            "job time",
            "provisioning",
            "status",
        ])
        .aligns(&[
            Align::Left,
            Align::Left,
            Align::Right,
            Align::Left,
            Align::Right,
            Align::Right,
            Align::Left,
        ]);
        for j in &self.jobs {
            t.row([
                j.algorithm.to_string(),
                format!(
                    "{}{}",
                    j.strategy.abbrev(),
                    if j.canonical { " (canon)" } else { "" }
                ),
                j.num_parts.to_string(),
                if j.cache_hit { "hit" } else { "miss" }.to_string(),
                j.time_s()
                    .map(cutfit_util::fmt::human_seconds)
                    .unwrap_or_else(|| "-".to_string()),
                cutfit_util::fmt::human_seconds(j.provisioning_seconds),
                j.failure().unwrap_or_else(|| "ok".to_string()),
            ]);
        }
        t.render()
    }
}

/// One memoized cut: the materialized graph, its metrics, and the engine
/// handle that makes repeat dispatch free of setup.
struct CutEntry {
    pg: Arc<PartitionedGraph>,
    metrics: PartitionMetrics,
    /// Built by the first Pregel dispatch against this cut, a job's
    /// ([`Algorithm::run_on_cut`]) or a probe's
    /// ([`Algorithm::probe_on_cut`]). Triangle Count, job or probe, never
    /// builds one, so a TR-only cut (the common canonical case) has none.
    prepared: Option<PreparedRun>,
}

impl CutEntry {
    /// What a dispatch on this cut reuses: its engine handle, and the
    /// session's triangle index.
    fn reused<'a>(
        &'a mut self,
        triangles: &'a mut Option<TriangleIndex>,
    ) -> (&'a Arc<PartitionedGraph>, Reused<'a>) {
        let reused = Reused {
            prepared: &mut self.prepared,
            triangles,
        };
        (&self.pg, reused)
    }
}

/// A session-scoped serving layer over one loaded graph.
///
/// ```
/// use cutfit_core::prelude::*;
/// use cutfit_core::session::{Job, Workspace};
///
/// let graph = DatasetProfile::youtube().generate(0.002, 42);
/// let mut ws = Workspace::new(graph, ClusterConfig::paper_cluster(), ExecutorMode::Sequential);
/// let report = ws.run_workload(&[
///     Job::advised_at(Algorithm::PageRank { iterations: 3 }, 16),
///     Job::advised_at(Algorithm::ConnectedComponents { max_iterations: 5 }, 16),
/// ]);
/// assert_eq!(report.failures(), 0);
/// // PR and CC share the advised edge-bound cut: the second job is a
/// // cache hit on the active cut and provisions nothing.
/// assert!(report.jobs[1].cache_hit);
/// assert_eq!(report.jobs[1].provisioning_seconds, 0.0);
/// assert!(report.total_seconds() > 0.0);
/// ```
pub struct Workspace {
    cache: CutCache,
    cluster: ClusterConfig,
    executor: ExecutorMode,
    advice_mode: AdviceMode,
    /// Simulated cost of advisory probes ([`AdviceMode::Probed`]), kept
    /// separate from job/provisioning totals: like the paper's advisor
    /// pass, it is preprocessing that amortizes over the session.
    advice_seconds: f64,
    /// Granularity base: coarse advice = this many partitions, fine = 2×.
    base_parts: PartId,
    /// Memoized advisor strategy choices per (algorithm, parts).
    advice: BTreeMap<(&'static str, PartId), GraphXStrategy>,
    /// Session-level sim: bills the initial load and repartition shuffles,
    /// with lineage accruing across the whole session.
    session: ClusterSim,
    /// Bytes billed by the one-time initial load. Defaults to the in-memory
    /// dataset model ([`cutfit_cluster::load_bytes`]); the binary-backed
    /// constructor ([`Workspace::from_binary_file`]) replaces it with the
    /// actual bytes-on-disk of the container, which the delta+varint edge
    /// blocks make substantially smaller.
    load_source_bytes: u64,
    active: Option<CutKey>,
    loaded: bool,
    /// Jobs that changed the active cut ([`CacheStats::cut_switches`]).
    cut_switches: u64,
}

/// The session's graph in both orientations and every cut materialized
/// from them. A field of its own so that an ensured entry borrows the
/// cache alone, leaving the session's sim and cluster usable beside it.
struct CutCache {
    graph: Arc<Graph>,
    /// Canonical orientation, computed on first demand (TR/k-core jobs).
    canon: Option<Arc<Graph>>,
    /// Worker threads of a materialization.
    threads: usize,
    /// Triangle Count's index of `canon`, its bits in `canon`'s edge-list
    /// order, built by the first TR dispatch ([`CutCache::ensure_for`]) and
    /// read by every TR job and probe: every canonical cut holds `canon`'s
    /// edges.
    triangles: Option<TriangleIndex>,
    /// `BTreeMap`, not `HashMap`: lookups are keyed today, but the serving
    /// layer is a deterministic crate — if iteration over cached cuts ever
    /// lands (eviction, reporting), its order must already be fixed.
    cuts: BTreeMap<CutKey, CutEntry>,
    hits: u64,
    misses: u64,
}

/// What [`CutCache::ensure_cut`] found: the entry, the triangle index slot
/// a dispatch on it reuses, and — on a miss — the edge assignment the cut
/// was just built from, aligned with the edge list of its orientation.
struct Ensured<'a> {
    entry: &'a mut CutEntry,
    triangles: &'a mut Option<TriangleIndex>,
    /// `None` on a cache hit: a cached cut keeps no assignment.
    built_from: Option<Vec<PartId>>,
}

impl Ensured<'_> {
    fn cache_hit(&self) -> bool {
        self.built_from.is_none()
    }
}

impl CutCache {
    /// The entry for `key`, materialized if absent (see [`Ensured`]).
    fn ensure_cut(&mut self, key: CutKey) -> Ensured<'_> {
        let triangles = &mut self.triangles;
        match self.cuts.entry(key) {
            Entry::Occupied(e) => {
                self.hits += 1;
                let entry = e.into_mut();
                Ensured {
                    entry,
                    triangles,
                    built_from: None,
                }
            }
            Entry::Vacant(v) => {
                self.misses += 1;
                let graph = if key.canonical {
                    canonical_of(&mut self.canon, &self.graph)
                } else {
                    &self.graph
                };
                let (strategy, parts, threads) = (key.strategy, key.num_parts, self.threads);
                let assignment = strategy.assign_edges_threaded(graph, parts, threads);
                let pg = PartitionedGraph::build_threaded(graph, &assignment, parts, threads);
                let pg = Arc::new(pg);
                let metrics = PartitionMetrics::of(&pg);
                let entry = CutEntry {
                    pg,
                    metrics,
                    prepared: None,
                };
                Ensured {
                    entry: v.insert(entry),
                    triangles,
                    built_from: Some(assignment),
                }
            }
        }
    }

    /// [`CutCache::ensure_cut`], and for Triangle Count `canon`'s index.
    fn ensure_for(&mut self, key: CutKey, algorithm: &Algorithm) -> Ensured<'_> {
        if matches!(algorithm, Algorithm::Triangles) && self.triangles.is_none() {
            let canon = canonical_of(&mut self.canon, &self.graph);
            self.triangles = Some(TriangleIndex::of_canonical(canon));
        }
        self.ensure_cut(key)
    }

    /// The canonical orientation, computed once per session.
    fn canonical_graph(&mut self) -> Arc<Graph> {
        canonical_of(&mut self.canon, &self.graph).clone()
    }
}

/// `canon`, filled with the canonical orientation of `graph` on first use.
/// Over the two fields, not `&mut CutCache`, so that it can run while a
/// vacant `cuts` entry is held.
fn canonical_of<'a>(canon: &'a mut Option<Arc<Graph>>, graph: &Graph) -> &'a Arc<Graph> {
    canon.get_or_insert_with(|| Arc::new(canonicalize(graph)))
}

impl Workspace {
    /// Creates a session over `graph` on `cluster`. `executor` sizes the
    /// worker pool used for cut materialization, advisor sweeps, and job
    /// execution; every mode yields bit-identical results. The granularity
    /// base defaults to the cluster's total core count (the paper's coarse
    /// configuration; fine = 2×).
    pub fn new(graph: Graph, cluster: ClusterConfig, executor: ExecutorMode) -> Self {
        let base_parts = cluster.total_cores().max(1);
        let session = ClusterSim::new(cluster.clone(), cluster.executors);
        let load_source_bytes = cutfit_cluster::load_bytes(graph.num_vertices(), graph.num_edges());
        Self {
            cache: CutCache {
                graph: Arc::new(graph),
                canon: None,
                triangles: None,
                threads: executor.threads(),
                cuts: BTreeMap::new(),
                hits: 0,
                misses: 0,
            },
            cluster,
            executor,
            advice_mode: AdviceMode::default(),
            advice_seconds: 0.0,
            base_parts,
            advice: BTreeMap::new(),
            session,
            load_source_bytes,
            active: None,
            loaded: false,
            cut_switches: 0,
        }
    }

    /// Creates a session over the graph stored in a binary container
    /// ([`cutfit_graph::binfmt`]) at `path`. The session's one-time load is
    /// billed from the container's **bytes on disk** rather than the
    /// in-memory dataset model — the serving-layer payoff of the compressed
    /// format: every job the session dispatches starts from a cheaper load.
    /// It decodes one block at a time on the calling thread, the source's
    /// default; [`Workspace::from_binary_source`] takes a source set up to
    /// decode on more threads.
    pub fn from_binary_file(
        path: impl AsRef<std::path::Path>,
        cluster: ClusterConfig,
        executor: ExecutorMode,
    ) -> Result<Self, cutfit_graph::io::ParseError> {
        let source = cutfit_graph::BinaryFileSource::open(path)?;
        Self::from_binary_source(source, cluster, executor)
    }

    /// Creates a session over an already-opened (and possibly
    /// decode-configured) [`cutfit_graph::BinaryFileSource`]. The load is
    /// billed from the container's bytes on disk, exactly like
    /// [`Workspace::from_binary_file`].
    pub fn from_binary_source(
        source: cutfit_graph::BinaryFileSource,
        cluster: ClusterConfig,
        executor: ExecutorMode,
    ) -> Result<Self, cutfit_graph::io::ParseError> {
        let file_bytes = source.file_bytes();
        let graph = cutfit_graph::source::materialize(&source)?;
        let mut ws = Self::new(graph, cluster, executor);
        ws.load_source_bytes = file_bytes;
        Ok(ws)
    }

    /// Bytes the one-time initial load bills (dataset model, or bytes on
    /// disk for [`Workspace::from_binary_file`] sessions).
    pub fn load_source_bytes(&self) -> u64 {
        self.load_source_bytes
    }

    /// Overrides the granularity base (coarse = base, fine = 2 × base).
    pub fn with_base_parts(mut self, base_parts: PartId) -> Self {
        self.base_parts = base_parts.max(1);
        self
    }

    /// Selects how advised cuts rank their candidates.
    pub fn with_advice_mode(mut self, mode: AdviceMode) -> Self {
        self.advice_mode = mode;
        self
    }

    /// Simulated cost of advisory probes run so far (always 0 under
    /// [`AdviceMode::Measured`]).
    pub fn advice_seconds(&self) -> f64 {
        self.advice_seconds
    }

    /// The loaded graph.
    pub fn graph(&self) -> &Arc<Graph> {
        &self.cache.graph
    }

    /// Session cache counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            cache_hits: self.cache.hits,
            cache_misses: self.cache.misses,
            cut_switches: self.cut_switches,
        }
    }

    /// Number of cuts currently materialized (the session never evicts).
    pub fn cached_cuts(&self) -> usize {
        self.cache.cuts.len()
    }

    /// The session-level bill so far: initial load plus every repartition
    /// shuffle, lineage included.
    pub fn session_report(&self) -> &SimReport {
        self.session.report()
    }

    /// Resolves a job's cut policy to a concrete cache key without running
    /// anything (advisor sweeps are performed — and memoized — as needed).
    /// Schedulers use this to group jobs by cut before submission, which
    /// minimizes repartition charges.
    pub fn resolve(&mut self, algorithm: &Algorithm, cut: &CutChoice) -> CutKey {
        let canonical = algorithm.needs_canonical();
        match *cut {
            CutChoice::Fixed {
                strategy,
                num_parts,
            } => CutKey {
                strategy,
                num_parts,
                canonical,
            },
            CutChoice::AdvisedAt { num_parts } => CutKey {
                strategy: self.advised_strategy(algorithm, num_parts),
                num_parts,
                canonical,
            },
            CutChoice::Advised => {
                let num_parts =
                    match Advisor::granularity_typed(algorithm.class(), algorithm.converges()) {
                        GranularityHint::Coarse => self.base_parts,
                        GranularityHint::Fine => self.base_parts.saturating_mul(2),
                    };
                CutKey {
                    strategy: self.advised_strategy(algorithm, num_parts),
                    num_parts,
                    canonical,
                }
            }
        }
    }

    /// The memoized [`Arc<PartitionedGraph>`] for a raw-orientation cut,
    /// materializing it on first request.
    pub fn materialized(
        &mut self,
        strategy: GraphXStrategy,
        num_parts: PartId,
    ) -> Arc<PartitionedGraph> {
        let key = CutKey {
            strategy,
            num_parts,
            canonical: false,
        };
        self.cache.ensure_cut(key).entry.pg.clone()
    }

    /// Dispatches one job under a cut policy (serving semantics: the graph
    /// is session-resident, so the job itself is not billed the initial
    /// load — the session bills it once, plus a repartition on cut
    /// switches).
    pub fn run_job_with(
        &mut self,
        algorithm: &Algorithm,
        cut: &CutChoice,
        executor: ExecutorMode,
    ) -> JobOutcome {
        let key = self.resolve(algorithm, cut);
        let session_before = self.session.report().total_seconds;
        if !self.loaded {
            self.session.charge_load(self.load_source_bytes);
            self.loaded = true;
        }
        let ensured = self.cache.ensure_for(key, algorithm);
        let (cache_hit, entry) = (ensured.cache_hit(), ensured.entry);
        // A repartition that fails leaves the active cut where it was, so
        // it is neither counted nor reported as a switch.
        let repartition = if self.active == Some(key) {
            Ok(false)
        } else {
            self.session
                .charge_repartition(entry.pg.num_edges())
                .map(|_| true)
        };
        let switched_cut = matches!(repartition, Ok(true));
        if switched_cut {
            self.active = Some(key);
            self.cut_switches += 1;
        }
        let provisioning_seconds = self.session.report().total_seconds - session_before;
        let metrics = entry.metrics.clone();
        let (pg, reused) = entry.reused(ensured.triangles);
        let (cluster, prepared_executor) = (&self.cluster, self.executor);
        let outcome = repartition.and_then(|_| {
            algorithm.run_on_cut(pg, reused, cluster, prepared_executor, executor, false)
        });
        let (supersteps, result) = match outcome {
            Ok((sim, supersteps)) => (supersteps, Ok(sim)),
            Err(e) => (0, Err(e)),
        };
        JobOutcome {
            algorithm: algorithm.abbrev(),
            strategy: key.strategy,
            num_parts: key.num_parts,
            canonical: key.canonical,
            cache_hit,
            switched_cut,
            provisioning_seconds,
            metrics,
            supersteps,
            result,
        }
    }

    /// Dispatches one fixed-cut job with **one-shot billing**: the initial
    /// load is charged to the job and no session-level accounting happens.
    /// The outcome (time, metrics, supersteps) is therefore the same
    /// whether the cut was a cache miss or a hit, and whatever ran on it
    /// before. This is how a grid cell runs — the experiment grid
    /// ([`crate::experiment::run_experiment`]) and the ablation binaries
    /// run every cell through it.
    pub fn run_job_isolated(
        &mut self,
        algorithm: &Algorithm,
        strategy: GraphXStrategy,
        num_parts: PartId,
    ) -> JobOutcome {
        let key = CutKey {
            strategy,
            num_parts,
            canonical: algorithm.needs_canonical(),
        };
        let ensured = self.cache.ensure_for(key, algorithm);
        let cache_hit = ensured.cache_hit();
        let metrics = ensured.entry.metrics.clone();
        let (pg, reused) = ensured.entry.reused(ensured.triangles);
        let executor = self.executor;
        let (supersteps, result) =
            match algorithm.run_on_cut(pg, reused, &self.cluster, executor, executor, true) {
                Ok((sim, supersteps)) => (supersteps, Ok(sim)),
                Err(e) => (0, Err(e)),
            };
        JobOutcome {
            algorithm: algorithm.abbrev(),
            strategy: key.strategy,
            num_parts: key.num_parts,
            canonical: key.canonical,
            cache_hit,
            switched_cut: false,
            provisioning_seconds: 0.0,
            metrics,
            supersteps,
            result,
        }
    }

    /// Orders jobs so that jobs sharing a [`Workspace::resolve`]d cut run
    /// back to back (stable: submission order within a group, raw cuts
    /// before canonical) — the scheduling the serving layer enables, and
    /// the one that minimizes repartition charges for every policy alike.
    /// Advisor sweeps triggered by resolution are memoized, so scheduling
    /// costs nothing the subsequent dispatches would not pay anyway.
    pub fn schedule(&mut self, jobs: &[Job]) -> Vec<Job> {
        let mut keyed: Vec<(CutKey, Job)> = jobs
            .iter()
            .map(|j| (self.resolve(&j.algorithm, &j.cut), j.clone()))
            .collect();
        keyed.sort_by_key(|(k, _)| (k.canonical, k.num_parts, k.strategy.abbrev()));
        keyed.into_iter().map(|(_, j)| j).collect()
    }

    /// Serves a whole workload in submission order, tailoring each job's
    /// cut per its policy. Failed jobs are recorded, not fatal — the
    /// session keeps serving. Group jobs by [`Workspace::schedule`] (or
    /// manually by [`Workspace::resolve`]d cut) to minimize repartition
    /// charges.
    pub fn run_workload(&mut self, jobs: &[Job]) -> WorkloadReport {
        WorkloadReport {
            jobs: jobs
                .iter()
                .map(|job| self.run_job_with(&job.algorithm, &job.cut, self.executor))
                .collect(),
        }
    }

    /// Advisor choice, memoized per (algorithm, granularity): one fused
    /// edge scan ([`AdviceMode::Measured`], scoring the algorithm's class
    /// metric) or one round of probes through the cut cache
    /// ([`AdviceMode::Probed`]) the first time, free afterwards.
    fn advised_strategy(&mut self, algorithm: &Algorithm, num_parts: PartId) -> GraphXStrategy {
        if let Some(&s) = self.advice.get(&(algorithm.abbrev(), num_parts)) {
            return s;
        }
        let strategy = match self.advice_mode {
            AdviceMode::Measured => {
                let graph = if algorithm.needs_canonical() {
                    self.cache.canonical_graph()
                } else {
                    self.cache.graph.clone()
                };
                Advisor::default()
                    .recommend_measured_threaded(
                        algorithm.class(),
                        &graph,
                        num_parts,
                        &[],
                        self.executor.threads(),
                    )
                    .strategy
            }
            AdviceMode::Probed => self.probed_strategy(algorithm, num_parts),
        };
        self.advice
            .insert((algorithm.abbrev(), num_parts), strategy);
        strategy
    }

    /// Ranks every candidate by the simulated time of the algorithm's own
    /// short probe ([`Algorithm::probe_on_cut`]) dispatched through the
    /// session cache, so every materialization a probe forces is one the
    /// advised jobs (and later probes) reuse. A probe pays only for what
    /// differs between the candidates: PageRank and HITS are billed in
    /// closed form from each cut's tables; CC and SSSP run once, on the
    /// first candidate whose probe completes, and every other candidate is
    /// billed from that run's trace and its own edge assignment; Triangle
    /// Count is billed from the candidate's assignment and the session's
    /// one index, one supported bit per edge; label propagation and k-core
    /// run the engine on every candidate. The trace lives for this call
    /// only. A candidate's assignment is the one its cut was just built
    /// from on a cache miss; on a hit it is hashed again, and only when the
    /// probe reads it. The ranking is the measured mode's
    /// (`advisor::rank`): a failed probe (e.g. OOM) has no time and ranks
    /// last, and ties keep candidate (paper table) order.
    fn probed_strategy(&mut self, algorithm: &Algorithm, num_parts: PartId) -> GraphXStrategy {
        let canonical = algorithm.needs_canonical();
        let graph = if canonical {
            self.cache.canonical_graph()
        } else {
            self.cache.graph.clone()
        };
        let mut trace = None;
        let mut ranking = GraphXStrategy::all().map(|strategy| {
            let key = CutKey {
                strategy,
                num_parts,
                canonical,
            };
            let threads = self.cache.threads;
            let Ensured {
                entry,
                triangles,
                mut built_from,
            } = self.cache.ensure_for(key, algorithm);
            let (pg, reused) = entry.reused(triangles);
            // A cut just built hands its assignment over; a cached one
            // hashes it again.
            let mut assignment = || {
                (built_from.take())
                    .unwrap_or_else(|| strategy.assign_edges_threaded(&graph, num_parts, threads))
            };
            let traced = TraceSlot {
                trace: &mut trace,
                assignment: &mut assignment,
            };
            let executor = self.executor;
            let cluster = &self.cluster;
            let time = match algorithm.probe_on_cut(pg, reused, traced, cluster, executor, executor)
            {
                Ok((sim, _)) => {
                    self.advice_seconds += sim.total_seconds;
                    sim.total_seconds
                }
                Err(_) => f64::NAN,
            };
            (strategy, time)
        });
        rank(&mut ranking);
        ranking[0].0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cutfit_cluster::ClusterConfig;
    use cutfit_datagen::{rmat, RmatConfig};

    fn small_graph() -> Graph {
        rmat(&RmatConfig::default(), 5)
    }

    fn ws(executor: ExecutorMode) -> Workspace {
        Workspace::new(small_graph(), ClusterConfig::paper_cluster(), executor)
    }

    #[test]
    fn isolated_dispatch_bills_every_cell_and_cuts_tr_canonically() {
        // On a symmetric graph, canonicalization drops the reverse edges.
        let mut ws = Workspace::new(
            small_graph().symmetrized(),
            ClusterConfig::paper_cluster(),
            ExecutorMode::Sequential,
        );
        let mut edges = BTreeMap::new();
        for algo in Algorithm::paper_suite(7) {
            let job = ws.run_job_isolated(&algo, GraphXStrategy::EdgePartition2D, 8);
            assert!(job.time_s().is_some_and(|t| t > 0.0), "{}", algo.abbrev());
            assert!(job.supersteps > 0, "{}", algo.abbrev());
            edges.insert(job.algorithm, job.metrics.edges);
        }
        assert_eq!(edges["PR"], edges["CC"], "PR and CC share the raw cut");
        assert!(
            edges["TR"] < edges["PR"],
            "TR cuts the canonical orientation"
        );
    }

    #[test]
    fn cache_is_keyed_by_strategy_granularity_and_orientation() {
        let mut ws = ws(ExecutorMode::Sequential);
        let pr = Algorithm::PageRank { iterations: 2 };
        ws.run_job_isolated(&pr, GraphXStrategy::SourceCut, 8);
        ws.run_job_isolated(&pr, GraphXStrategy::SourceCut, 16); // granularity
        ws.run_job_isolated(&pr, GraphXStrategy::DestinationCut, 8); // strategy
        ws.run_job_isolated(&Algorithm::Triangles, GraphXStrategy::SourceCut, 8); // orientation
        assert_eq!(ws.cached_cuts(), 4);
        assert_eq!(ws.stats().cache_misses, 4);
        ws.run_job_isolated(&pr, GraphXStrategy::SourceCut, 8);
        assert_eq!(ws.cached_cuts(), 4);
        assert_eq!(ws.stats().cache_hits, 1);
    }

    #[test]
    fn serving_charges_load_once_and_repartition_per_switch() {
        let mut ws = ws(ExecutorMode::Sequential);
        let pr = Algorithm::PageRank { iterations: 2 };
        let cc = Algorithm::ConnectedComponents { max_iterations: 3 };
        let a = ws.run_job_with(
            &pr,
            &CutChoice::Fixed {
                strategy: GraphXStrategy::SourceCut,
                num_parts: 8,
            },
            ExecutorMode::Sequential,
        );
        assert!(a.switched_cut, "first job activates a cut");
        assert!(a.provisioning_seconds > 0.0, "load + first repartition");
        // Same cut again: nothing to provision.
        let b = ws.run_job_with(
            &cc,
            &CutChoice::Fixed {
                strategy: GraphXStrategy::SourceCut,
                num_parts: 8,
            },
            ExecutorMode::Sequential,
        );
        assert!(b.cache_hit && !b.switched_cut);
        assert_eq!(b.provisioning_seconds, 0.0);
        // Different cut: a repartition, but no second load.
        let c = ws.run_job_with(
            &pr,
            &CutChoice::Fixed {
                strategy: GraphXStrategy::DestinationCut,
                num_parts: 8,
            },
            ExecutorMode::Sequential,
        );
        assert!(c.switched_cut);
        assert!(c.provisioning_seconds > 0.0);
        assert!(
            c.provisioning_seconds < a.provisioning_seconds,
            "switch alone must cost less than load + switch: {} vs {}",
            c.provisioning_seconds,
            a.provisioning_seconds
        );
        // Switching back re-bills: the model keeps one active cut resident.
        let d = ws.run_job_with(
            &pr,
            &CutChoice::Fixed {
                strategy: GraphXStrategy::SourceCut,
                num_parts: 8,
            },
            ExecutorMode::Sequential,
        );
        assert!(d.cache_hit && d.switched_cut);
        assert_eq!(ws.stats().cut_switches, 3);
        assert_eq!(ws.session_report().supersteps, 3, "one per repartition");
    }

    #[test]
    fn advised_cuts_are_memoized_and_tailored_per_class() {
        let mut ws = ws(ExecutorMode::Sequential);
        let pr_key = ws.resolve(&Algorithm::PageRank { iterations: 2 }, &CutChoice::Advised);
        let cc_key = ws.resolve(
            &Algorithm::ConnectedComponents { max_iterations: 3 },
            &CutChoice::Advised,
        );
        let tr_key = ws.resolve(&Algorithm::Triangles, &CutChoice::Advised);
        // PR is coarse, CC fine: same class, different granularity.
        assert_eq!(pr_key.num_parts * 2, cc_key.num_parts);
        assert!(!pr_key.canonical && !cc_key.canonical);
        assert!(tr_key.canonical, "TR cuts the canonical orientation");
        // Resolution is deterministic and memoized.
        assert_eq!(
            ws.resolve(&Algorithm::PageRank { iterations: 2 }, &CutChoice::Advised),
            pr_key
        );
    }

    #[test]
    fn probed_advice_materializes_candidates_once_and_memoizes() {
        let mut ws = ws(ExecutorMode::Sequential).with_advice_mode(AdviceMode::Probed);
        let pr = Algorithm::PageRank { iterations: 2 };
        let key = ws.resolve(&pr, &CutChoice::AdvisedAt { num_parts: 8 });
        // Probing ranked all six candidates: all six cuts are now cached,
        // and the probes' simulated cost is tracked separately.
        assert_eq!(ws.cached_cuts(), 6);
        let advice_cost = ws.advice_seconds();
        assert!(advice_cost > 0.0);
        // Memoized: resolving again probes nothing.
        assert_eq!(ws.resolve(&pr, &CutChoice::AdvisedAt { num_parts: 8 }), key);
        assert_eq!(ws.advice_seconds(), advice_cost);
        // The probe-ranked winner really is the fastest candidate for the
        // probe job itself.
        let mut times = Vec::new();
        for s in GraphXStrategy::all() {
            let job = ws.run_job_isolated(&pr, s, 8);
            times.push((s, job.time_s().unwrap()));
        }
        let fastest = times
            .iter()
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .expect("six candidates")
            .1;
        let chosen = times.iter().find(|(s, _)| *s == key.strategy).unwrap().1;
        // PR{2} probes predict PR{2}: the chosen cut's time is the minimum.
        assert_eq!(chosen, fastest);
    }

    #[test]
    fn probed_advice_keeps_table_order_when_every_probe_fails() {
        let tiny = ClusterConfig {
            executor_memory_gb: 1e-6,
            ..ClusterConfig::paper_cluster()
        };
        let mut ws = Workspace::new(small_graph(), tiny, ExecutorMode::Sequential)
            .with_advice_mode(AdviceMode::Probed);
        let key = ws.resolve(
            &Algorithm::PageRank { iterations: 2 },
            &CutChoice::AdvisedAt { num_parts: 8 },
        );
        assert_eq!(ws.advice_seconds(), 0.0, "every probe ran out of memory");
        assert_eq!(key.strategy, GraphXStrategy::all()[0]);
    }

    #[test]
    fn run_workload_records_failures_without_aborting() {
        let tiny = ClusterConfig {
            executor_memory_gb: 1e-6,
            ..ClusterConfig::paper_cluster()
        };
        let mut ws = Workspace::new(small_graph(), tiny, ExecutorMode::Sequential);
        let report = ws.run_workload(&[
            Job::fixed(
                Algorithm::PageRank { iterations: 2 },
                GraphXStrategy::SourceCut,
                8,
            ),
            Job::fixed(
                Algorithm::ConnectedComponents { max_iterations: 2 },
                GraphXStrategy::SourceCut,
                8,
            ),
        ]);
        assert_eq!(report.jobs.len(), 2, "failures are recorded, not fatal");
        assert!(report.failures() >= 1);
    }

    /// The session sim keeps lineage across repartitions while job sims
    /// start fresh, so a per-superstep lineage share of 0.3 lets every
    /// two-superstep job and three repartitions fit and fails the fourth.
    #[test]
    fn a_failed_repartition_is_not_a_switch() {
        let mut cluster = ClusterConfig::paper_cluster();
        cluster.usable_memory_fraction = 1.0;
        cluster.cost.lineage_heap_fraction_per_superstep = 0.3;
        let mut ws = Workspace::new(small_graph(), cluster, ExecutorMode::Sequential);
        let pr = Algorithm::PageRank { iterations: 1 };
        let run = |ws: &mut Workspace, strategy| {
            let cut = CutChoice::Fixed {
                strategy,
                num_parts: 8,
            };
            ws.run_job_with(&pr, &cut, ExecutorMode::Sequential)
        };
        let [a, b, c, d, ..] = GraphXStrategy::all();
        for strategy in [a, b, c] {
            let ok = run(&mut ws, strategy);
            assert!(ok.switched_cut && ok.result.is_ok(), "{:?}", ok.result);
        }
        let bill = ws.session_report().total_seconds;

        // The fourth repartition dies: the job fails, `c` stays active.
        let failed = run(&mut ws, d);
        assert!(matches!(failed.result, Err(SimError::OutOfMemory { .. })));
        assert!(!failed.switched_cut, "the active cut did not change");
        assert_eq!(failed.supersteps, 0);
        assert!(failed.provisioning_seconds > 0.0, "the attempt is billed");
        assert_eq!(ws.stats().cut_switches, 3);

        // The identical job attempts the same switch again and is not
        // counted either.
        assert!(!run(&mut ws, d).switched_cut);
        assert_eq!(ws.stats().cut_switches, 3);

        // The session keeps serving: `c` is still active, so its jobs need
        // no repartition and succeed without provisioning anything.
        let bill_after_failures = ws.session_report().total_seconds;
        assert!(bill_after_failures > bill);
        let served = run(&mut ws, c);
        assert!(served.result.is_ok(), "{:?}", served.result);
        assert!(served.cache_hit && !served.switched_cut);
        assert_eq!(served.provisioning_seconds, 0.0);
        assert_eq!(ws.session_report().total_seconds, bill_after_failures);
        assert_eq!(ws.stats().cut_switches, 3);
    }

    #[test]
    fn workload_totals_add_up() {
        let mut ws = ws(ExecutorMode::Sequential);
        let report = ws.run_workload(&[
            Job::advised_at(Algorithm::PageRank { iterations: 2 }, 8),
            Job::advised_at(Algorithm::ConnectedComponents { max_iterations: 3 }, 8),
            Job::advised_at(Algorithm::Triangles, 8),
        ]);
        assert_eq!(report.failures(), 0);
        let total = report.total_seconds();
        assert!((total - (report.job_seconds() + report.provisioning_seconds())).abs() < 1e-12);
        assert!(total > 0.0);
        let rendered = report.render();
        assert!(rendered.contains("PR") && rendered.contains("TR"));
    }

    #[test]
    fn schedule_groups_jobs_by_resolved_cut() {
        let mut ws = ws(ExecutorMode::Sequential);
        let pr = Algorithm::PageRank { iterations: 2 };
        let jobs = [
            Job::fixed(pr.clone(), GraphXStrategy::SourceCut, 8),
            Job::fixed(Algorithm::Triangles, GraphXStrategy::SourceCut, 8),
            Job::fixed(pr.clone(), GraphXStrategy::DestinationCut, 8),
            Job::fixed(pr.clone(), GraphXStrategy::SourceCut, 8),
        ];
        let ordered = ws.schedule(&jobs);
        let keys: Vec<CutKey> = ordered
            .iter()
            .map(|j| ws.resolve(&j.algorithm, &j.cut))
            .collect();
        // Same-cut jobs are adjacent and canonical cuts sort last.
        let source = CutKey {
            strategy: GraphXStrategy::SourceCut,
            num_parts: 8,
            canonical: false,
        };
        let adjacent = keys.windows(2).any(|w| w[0] == source && w[1] == source);
        assert!(adjacent, "the two SourceCut PR jobs run together: {keys:?}");
        assert!(keys[3].canonical, "TR's canonical cut is scheduled last");
        // Serving the schedule needs one switch per distinct cut.
        let report = ws.run_workload(&ordered);
        assert_eq!(report.cut_switches(), 3);
        assert_eq!(report.failures(), 0);
    }

    #[test]
    fn scenario_session_changes_bills_not_results() {
        use cutfit_cluster::ScenarioConfig;
        let pr = Algorithm::PageRank { iterations: 3 };
        let jobs = [
            Job::fixed(pr.clone(), GraphXStrategy::SourceCut, 8),
            Job::fixed(pr.clone(), GraphXStrategy::DestinationCut, 8),
        ];
        let messy_ws = || {
            let cluster = ClusterConfig::paper_cluster().with_scenario(ScenarioConfig::messy(31));
            Workspace::new(small_graph(), cluster, ExecutorMode::Sequential)
        };
        let mut clean = ws(ExecutorMode::Sequential);
        let mut messy = messy_ws();
        let rc = clean.run_workload(&jobs);
        let rm = messy.run_workload(&jobs);
        assert_eq!(rc.failures(), 0);
        assert_eq!(rm.failures(), 0);
        for (a, b) in rc.jobs.iter().zip(&rm.jobs) {
            assert_eq!(a.supersteps, b.supersteps);
            assert_eq!(a.metrics, b.metrics);
            let (ra, rb) = (a.result.as_ref().unwrap(), b.result.as_ref().unwrap());
            assert_eq!(ra.messages, rb.messages, "metered work is untouched");
            assert_eq!(ra.remote_bytes, rb.remote_bytes);
        }
        assert!(rm.total_seconds() > rc.total_seconds());
        // And the degraded session is itself deterministic.
        let mut again = messy_ws();
        let ra = again.run_workload(&jobs);
        for (a, b) in rm.jobs.iter().zip(&ra.jobs) {
            assert_eq!(a.result.as_ref().unwrap(), b.result.as_ref().unwrap());
            assert_eq!(a.provisioning_seconds, b.provisioning_seconds);
        }
        assert_eq!(messy.session_report(), again.session_report());
    }

    #[test]
    fn workload_report_surfaces_recovery_and_checkpoints() {
        use cutfit_cluster::ScenarioConfig;
        // Fail every (superstep, executor) cell: recovery is guaranteed.
        let scen = ScenarioConfig {
            seed: 3,
            failure_prob: 1.0,
            checkpoint_interval: 2,
            ..Default::default()
        };
        let cluster = ClusterConfig::paper_cluster().with_scenario(scen);
        let mut ws = Workspace::new(small_graph(), cluster, ExecutorMode::Sequential);
        let report = ws.run_workload(&[Job::fixed(
            Algorithm::PageRank { iterations: 3 },
            GraphXStrategy::SourceCut,
            8,
        )]);
        assert_eq!(report.failures(), 0, "failures recover; jobs still finish");
        assert!(report.recovery_seconds() > 0.0);
        assert!(report.executor_failures() > 0);
        assert!(report.checkpoint_bytes() > 0);
        assert!(report.job_seconds() > report.recovery_seconds());
        // Provisioning (the session's repartition superstep) recovers too,
        // billed on the session sim.
        assert!(ws.session_report().recovery_seconds > 0.0);
    }

    #[test]
    fn binary_backed_workspace_matches_resident_and_loads_cheaper() {
        let g = small_graph();
        let dir = std::env::temp_dir().join("cutfit-core-binws");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("graph-{}.cfb", std::process::id()));
        cutfit_graph::binfmt::write_binary_file(&g, &path).unwrap();
        let file_bytes = std::fs::metadata(&path).unwrap().len();

        let job = Job::fixed(
            Algorithm::PageRank { iterations: 2 },
            GraphXStrategy::SourceCut,
            8,
        );
        let mut resident = Workspace::new(
            g.clone(),
            ClusterConfig::paper_cluster(),
            ExecutorMode::Sequential,
        );
        let mut binary = Workspace::from_binary_file(
            &path,
            ClusterConfig::paper_cluster(),
            ExecutorMode::Sequential,
        )
        .unwrap();
        // The executor sizes the decode pool; the load does not depend on it.
        let pooled = Workspace::from_binary_file(
            &path,
            ClusterConfig::paper_cluster(),
            ExecutorMode::Parallel { threads: 3 },
        )
        .unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(pooled.graph(), binary.graph());
        assert_eq!(pooled.load_source_bytes(), binary.load_source_bytes());

        assert_eq!(binary.graph().as_ref(), &g, "lossless materialization");
        assert_eq!(binary.load_source_bytes(), file_bytes);
        assert!(
            binary.load_source_bytes() < resident.load_source_bytes(),
            "delta+varint container loads fewer bytes than the dataset model: {} vs {}",
            binary.load_source_bytes(),
            resident.load_source_bytes()
        );

        let a = resident.run_workload(std::slice::from_ref(&job));
        let b = binary.run_workload(std::slice::from_ref(&job));
        // Same graph, same cut: identical computation; only the one-time
        // load (and thus provisioning) is cheaper from the binary file.
        assert_eq!(a.jobs[0].metrics, b.jobs[0].metrics);
        assert_eq!(a.jobs[0].supersteps, b.jobs[0].supersteps);
        assert_eq!(a.job_seconds(), b.job_seconds());
        assert!(b.provisioning_seconds() < a.provisioning_seconds());
    }

    #[test]
    fn an_empty_graph_serves_every_paper_algorithm() {
        for mode in [AdviceMode::Measured, AdviceMode::Probed] {
            let mut ws = Workspace::new(
                Graph::new(0, vec![]),
                ClusterConfig::paper_cluster(),
                ExecutorMode::Sequential,
            )
            .with_advice_mode(mode);
            for algo in Algorithm::paper_suite(7) {
                let isolated = ws.run_job_isolated(&algo, GraphXStrategy::EdgePartition2D, 8);
                let advised = ws.run_job_with(
                    &algo,
                    &CutChoice::AdvisedAt { num_parts: 8 },
                    ExecutorMode::Sequential,
                );
                for job in [isolated, advised] {
                    assert!(job.result.is_ok(), "{} {mode:?}", algo.abbrev());
                }
            }
        }
    }

    #[test]
    fn materialized_cuts_are_shared() {
        let mut ws = ws(ExecutorMode::Sequential);
        let a = ws.materialized(GraphXStrategy::EdgePartition2D, 8);
        let b = ws.materialized(GraphXStrategy::EdgePartition2D, 8);
        assert!(Arc::ptr_eq(&a, &b), "same Arc, not a rebuild");
    }
}
