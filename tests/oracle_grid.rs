//! The oracle grid. A cell takes one value on each of eight axes —
//! algorithm, partitioner, parts, graph family, scenario preset, executor,
//! scan shape and shard order — and is checked three ways:
//!
//! 1. its answer equals the algorithm's sequential oracle: within 1e-9
//!    relative for PR and HITS, exactly otherwise; CC and SSSP converge and
//!    TR's per-vertex counts sum to three per triangle;
//! 2. its states, supersteps and whole `SimReport` equal its *reference
//!    cell*: the same algorithm, cut, graph and scenario run `Sequential` ×
//!    dense × natural order;
//! 3. under a degraded scenario its states equal the uniform scenario's,
//!    and a run that lost an executor bills differently.
//!
//! Triangle Count is not a Pregel program: its cells hold the executor,
//! shape and order axes at their first values. `tier1_sample` runs a seeded
//! sample in which every pair of values of any two axes meets in some cell,
//! and asserts that it does; `full_product` runs every cell (`cargo test
//! --release --test oracle_grid -- --ignored`).

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use cutfit::algorithms::hits::reference_hits;
use cutfit::algorithms::label_propagation::reference_label_propagation;
use cutfit::algorithms::triangles::{canonicalize, triangle_count_partitioned};
use cutfit::algorithms::{
    hits, label_propagation, reference_components, reference_kcore, reference_pagerank,
    reference_sssp, HitsScore, KCore,
};
use cutfit::datagen::{rmat, RmatConfig};
use cutfit::engine::pregel::{with_scan_mode, ScanMode};
use cutfit::engine::PregelResult;
use cutfit::graph::analysis::count_triangles;
use cutfit::partition::all_partitioners;
use cutfit::prelude::*;
use cutfit::util::exec::{auto_threads, with_shard_permutation};
use cutfit::util::Xoshiro256pp;
use Algo::*;

const ALGORITHM: usize = 0;
const PARTITIONER: usize = 1;
const PARTS: usize = 2;
const FAMILY: usize = 3;
const SCENARIO: usize = 4;
const EXECUTOR: usize = 5;
const SHAPE: usize = 6;
const ORDER: usize = 7;
const AXES: usize = 8;

/// How many values each axis has; a cell is the index of its value on each.
const SIZES: [usize; AXES] = [7, 10, 3, 6, 6, 6, 3, 2];
type Cell = [usize; AXES];

#[derive(Debug, Clone, Copy, PartialEq)]
enum Algo {
    Pr,
    Cc,
    Tr,
    Sssp,
    Hits,
    Lpa,
    Kcore,
}

const ALGORITHMS: [Algo; 7] = [Pr, Cc, Tr, Sssp, Hits, Lpa, Kcore];
const NUM_PARTS: [u32; 3] = [1, 7, 32];
const EXECUTORS: [ExecutorMode; 6] = [
    ExecutorMode::Sequential,
    ExecutorMode::Parallel { threads: 1 },
    ExecutorMode::Parallel { threads: 2 },
    ExecutorMode::Parallel { threads: 3 },
    ExecutorMode::Parallel { threads: 4 },
    ExecutorMode::Auto,
];
const SHAPES: [ScanMode; 3] = [ScanMode::Dense, ScanMode::Sparse, ScanMode::Auto];
const ORDERS: [Option<u64>; 2] = [None, Some(0x5eed)];

const SEED: u64 = 42;
/// Supersteps of PR, HITS and LPA.
const ITERATIONS: u64 = 4;
/// K-core's h-index rounds: past the fixpoint on every family, far from
/// the superstep at which retained lineage exhausts memory.
const KCORE_ROUNDS: u64 = 15;

/// What a cell computed, in the algorithm's own state type.
#[derive(Debug, PartialEq)]
enum Answer {
    Ranks(Vec<f64>),
    Labels(Vec<u64>),
    Distances(Vec<Vec<u32>>),
    Scores(Vec<HitsScore>),
    Cores(Vec<u32>),
    /// The total and the per-vertex counts.
    Triangles(u64, Vec<u64>),
}

#[derive(Debug, PartialEq)]
struct Outcome {
    answer: Answer,
    supersteps: u64,
    converged: bool,
    sim: SimReport,
}

/// What the partitioner, family and scenario axes index.
struct Fixture {
    partitioners: Vec<Box<dyn Partitioner>>,
    /// One tiny graph per `ProfileKind`, an RMAT graph and the adversary.
    families: Vec<(&'static str, Graph)>,
    scenarios: Vec<(&'static str, ScenarioConfig)>,
}

impl Fixture {
    fn new() -> Self {
        let rmat_config = RmatConfig {
            scale: 7,
            edges: 600,
            ..Default::default()
        };
        let profiles = [
            (DatasetProfile::road_net_pa(), 0.0002),
            (DatasetProfile::youtube(), 0.0002),
            (DatasetProfile::pocek(), 0.00005),
            (DatasetProfile::follow_jul(), 0.000005),
        ];
        let mut families = Vec::from(profiles.map(|(p, scale)| (p.name, p.generate(scale, SEED))));
        families.extend([
            ("RMAT", rmat(&rmat_config, SEED)),
            ("adversary", adversary()),
        ]);
        Self {
            partitioners: all_partitioners(),
            families,
            scenarios: ScenarioConfig::presets(SEED),
        }
    }

    fn describe(&self, cell: &Cell) -> String {
        format!(
            "{:?} on {}/{} of {} under {}, {:?} × {:?} × {}",
            ALGORITHMS[cell[ALGORITHM]],
            self.partitioners[cell[PARTITIONER]].name(),
            NUM_PARTS[cell[PARTS]],
            self.families[cell[FAMILY]].0,
            self.scenarios[cell[SCENARIO]].0,
            EXECUTORS[cell[EXECUTOR]],
            SHAPES[cell[SHAPE]],
            ORDERS[cell[ORDER]].map_or("natural order", |_| "permuted shards"),
        )
    }
}

/// A small RMAT core with self-loops, duplicated edges, a two-way chain and
/// five isolated vertices.
fn adversary() -> Graph {
    let core = RmatConfig {
        scale: 4,
        edges: 24,
        ..Default::default()
    };
    let mut edges = rmat(&core, 11).edges().to_vec();
    edges.extend([3, 3, 9].map(|v| Edge::new(v, v)));
    edges.extend_from_within(..4);
    for v in 15..20 {
        edges.extend([Edge::new(v, v + 1), Edge::new(v + 1, v)]);
    }
    Graph::new(26, edges)
}

fn landmarks(num_vertices: u64) -> Vec<VertexId> {
    cutfit::algorithms::Sssp::pick_landmarks(num_vertices, 3, SEED)
}

fn oracle(algo: Algo, graph: &Graph) -> Answer {
    match algo {
        Pr => Answer::Ranks(reference_pagerank(graph, ITERATIONS)),
        Cc => Answer::Labels(reference_components(graph)),
        Tr => Answer::Triangles(count_triangles(graph), Vec::new()),
        Sssp => Answer::Distances(reference_sssp(graph, &landmarks(graph.num_vertices()))),
        Hits => Answer::Scores(reference_hits(graph, ITERATIONS)),
        Lpa => Answer::Labels(reference_label_propagation(graph, ITERATIONS)),
        Kcore => Answer::Cores(reference_kcore(graph)),
    }
}

/// Whether `answer` is the oracle's (TR's oracle knows the total only).
fn agrees(answer: &Answer, oracle: &Answer) -> bool {
    let close = |a: f64, b: f64| (a - b).abs() < 1e-9 * b.abs().max(1.0);
    match (answer, oracle) {
        (Answer::Ranks(a), Answer::Ranks(b)) => {
            a.len() == b.len() && a.iter().zip(b).all(|(&a, &b)| close(a, b))
        }
        (Answer::Scores(a), Answer::Scores(b)) => {
            a.len() == b.len()
                && a.iter()
                    .zip(b)
                    .all(|(a, b)| close(a.authority, b.authority) && close(a.hub, b.hub))
        }
        (Answer::Triangles(total, per_vertex), Answer::Triangles(want, _)) => {
            total == want && per_vertex.iter().sum::<u64>() == 3 * total
        }
        (answer, oracle) => answer == oracle,
    }
}

fn outcome<S>(r: Result<PregelResult<S>, SimError>, answer: fn(Vec<S>) -> Answer) -> Outcome {
    let r = r.expect("a grid cell fits in memory");
    Outcome {
        answer: answer(r.states),
        supersteps: r.supersteps,
        converged: r.converged,
        sim: r.sim,
    }
}

/// Runs `cell` on `pg`, its cut.
fn run(fx: &Fixture, cell: &Cell, pg: &PartitionedGraph) -> Outcome {
    let cluster = ClusterConfig::paper_cluster().with_scenario(fx.scenarios[cell[SCENARIO]].1);
    let opts = &PregelConfig {
        executor: EXECUTORS[cell[EXECUTOR]],
        ..Default::default()
    };
    let compute = || match ALGORITHMS[cell[ALGORITHM]] {
        Pr => outcome(pagerank(pg, &cluster, ITERATIONS, opts), Answer::Ranks),
        Cc => outcome(
            connected_components(pg, &cluster, 10_000, opts),
            Answer::Labels,
        ),
        Tr => {
            let r = triangle_count_partitioned(pg, &cluster, true).expect("a grid cell fits");
            Outcome {
                answer: Answer::Triangles(r.total, r.per_vertex),
                supersteps: 4,
                converged: true,
                sim: r.sim,
            }
        }
        Sssp => {
            let r = sssp(pg, &cluster, landmarks(pg.num_vertices()), 10_000, opts);
            outcome(r, Answer::Distances)
        }
        Hits => outcome(hits(pg, &cluster, ITERATIONS, opts), Answer::Scores),
        Lpa => outcome(
            label_propagation(pg, &cluster, ITERATIONS, opts),
            Answer::Labels,
        ),
        Kcore => {
            let rounds = PregelConfig {
                max_iterations: KCORE_ROUNDS,
                ..opts.clone()
            };
            outcome(run_pregel(&KCore, pg, &cluster, &rounds), Answer::Cores)
        }
    };
    let shaped = || with_scan_mode(SHAPES[cell[SHAPE]], compute);
    match ORDERS[cell[ORDER]] {
        None => shaped(),
        Some(seed) => with_shard_permutation(seed, shaped),
    }
}

/// Runs and checks `cells`, in which cells sharing a cut are adjacent, and
/// returns how many of them lost an executor.
fn check(fx: &Fixture, cells: &[Cell]) -> usize {
    let mut lost = 0;
    let mut oracles = BTreeMap::new();
    // The current cut and the reference cells run on it.
    let mut cut: Option<(&[usize], PartitionedGraph)> = None;
    let mut references = BTreeMap::new();
    for cell in cells {
        let algo = ALGORITHMS[cell[ALGORITHM]];
        let graph = &fx.families[cell[FAMILY]].1;
        if cut.as_ref().map(|(prefix, _)| *prefix) != Some(&cell[..=FAMILY]) {
            let input = if matches!(algo, Tr | Kcore) {
                canonicalize(graph)
            } else {
                graph.clone()
            };
            let pg = fx.partitioners[cell[PARTITIONER]].partition(&input, NUM_PARTS[cell[PARTS]]);
            cut = Some((&cell[..=FAMILY], pg));
            references.clear();
        }
        let pg = &cut.as_ref().expect("built above").1;
        let mut reference = *cell;
        reference[EXECUTOR..].fill(0);
        let mut uniform = reference;
        uniform[SCENARIO] = 0;
        for r in [uniform, reference] {
            references.entry(r).or_insert_with(|| run(fx, &r, pg));
        }
        let ran = (*cell != reference).then(|| run(fx, cell, pg));
        let (got, reference, uniform) = (
            ran.as_ref().unwrap_or(&references[&reference]),
            &references[&reference],
            &references[&uniform],
        );

        let what = fx.describe(cell);
        let oracle = oracles
            .entry((cell[ALGORITHM], cell[FAMILY]))
            .or_insert_with(|| oracle(algo, graph));
        assert!(agrees(&got.answer, oracle), "{what}: wrong answer");
        let converges = matches!(algo, Cc | Sssp);
        assert!(got.converged || !converges, "{what}: did not converge");
        assert!(got == reference, "{what}: differs from its reference cell");
        assert!(
            got.answer == uniform.answer,
            "{what}: the scenario moved the answer"
        );
        if got.sim.executor_failures > 0 {
            lost += 1;
            assert!(got.sim != uniform.sim, "{what}: a failure went unbilled");
        }
    }
    lost
}

/// `(axis, value, axis, value)`, the first axis the lower.
type Pair = (usize, usize, usize, usize);

/// Whether a cell with these axes fixed can exist.
fn allowed(cell: &[Option<usize>; AXES]) -> bool {
    cell[ALGORITHM] != Some(Tr as usize) || cell[EXECUTOR..].iter().all(|v| v.unwrap_or(0) == 0)
}

/// Every pair of axis values some cell holds.
fn required_pairs() -> BTreeSet<Pair> {
    let mut pairs = BTreeSet::new();
    for (a, b) in (0..AXES).flat_map(|a| (a + 1..AXES).map(move |b| (a, b))) {
        for (x, y) in (0..SIZES[a]).flat_map(|x| (0..SIZES[b]).map(move |y| (x, y))) {
            let mut cell = [None; AXES];
            (cell[a], cell[b]) = (Some(x), Some(y));
            if allowed(&cell) {
                pairs.insert((a, x, b, y));
            }
        }
    }
    pairs
}

fn pairs_of(cell: &Cell) -> impl Iterator<Item = Pair> + '_ {
    (0..AXES).flat_map(move |a| (a + 1..AXES).map(move |b| (a, cell[a], b, cell[b])))
}

/// A greedy pairwise-covering sample: each cell starts from the first pair
/// no cell holds yet and fills the other axes in a seeded order, each with
/// the allowed value that meets the most uncovered pairs with the axes
/// fixed so far (ties to a seeded rotation of the values).
fn pairwise_sample(seed: u64) -> Vec<Cell> {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let mut uncovered = required_pairs();
    let mut sample = Vec::new();
    while let Some(&(a, x, b, y)) = uncovered.iter().next() {
        let mut cell = [None; AXES];
        (cell[a], cell[b]) = (Some(x), Some(y));
        let mut rest: Vec<usize> = (0..AXES).filter(|&axis| cell[axis].is_none()).collect();
        rng.shuffle(&mut rest);
        for axis in rest {
            let offset = rng.range_u64(SIZES[axis] as u64) as usize;
            let candidates = (0..SIZES[axis]).map(|k| {
                let mut candidate = cell;
                candidate[axis] = Some((k + offset) % SIZES[axis]);
                candidate
            });
            // An axis not fixed yet pairs as no value, so never uncovered.
            let gain = |candidate: &[Option<usize>; AXES]| {
                let fixed = candidate.map(|v| v.unwrap_or(usize::MAX));
                pairs_of(&fixed).filter(|p| uncovered.contains(p)).count()
            };
            cell = candidates
                .filter(allowed)
                .max_by_key(gain)
                .expect("the first value is always allowed");
        }
        let cell = cell.map(|v| v.expect("every axis is fixed"));
        pairs_of(&cell).for_each(|pair| {
            uncovered.remove(&pair);
        });
        sample.push(cell);
    }
    sample.sort_unstable();
    sample
}

#[test]
// The sample prints its wall time, the budget tier 1 keeps it under.
#[allow(clippy::disallowed_methods)]
fn tier1_sample() {
    let sample = pairwise_sample(SEED);
    let covered: BTreeSet<Pair> = sample.iter().flat_map(pairs_of).collect();
    let required = required_pairs();
    let missing: Vec<&Pair> = required.difference(&covered).collect();
    assert!(missing.is_empty(), "the sample misses {missing:?}");
    let started = Instant::now();
    let lost = check(&Fixture::new(), &sample);
    assert!(lost > 0, "no cell lost an executor: the faults check idled");
    let (cells, took) = (sample.len(), started.elapsed());
    println!("oracle grid sample: {cells} cells, {lost} losing an executor, in {took:.1?}");
}

#[test]
#[ignore = "the full product; run it in release"]
// The product prints its wall time, the budget CI holds it to.
#[allow(clippy::disallowed_methods)]
fn full_product() {
    let cells: Vec<Cell> = (0..SIZES.iter().product())
        .map(|mut k: usize| {
            let mut cell = [0; AXES];
            for axis in (0..AXES).rev() {
                (cell[axis], k) = (k % SIZES[axis], k / SIZES[axis]);
            }
            cell
        })
        .filter(|cell| allowed(&cell.map(Some)))
        .collect();
    // Chunks of whole cuts, one worker per core taking the next.
    let chunks: Vec<&[Cell]> = cells.chunks(216).collect();
    let (next, lost) = (AtomicUsize::new(0), AtomicUsize::new(0));
    let started = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..auto_threads() {
            scope.spawn(|| {
                let fx = Fixture::new();
                while let Some(chunk) = chunks.get(next.fetch_add(1, Ordering::Relaxed)) {
                    lost.fetch_add(check(&fx, chunk), Ordering::Relaxed);
                }
            });
        }
    });
    let (lost, took) = (lost.into_inner(), started.elapsed());
    let cells = cells.len();
    println!("oracle grid full product: {cells} cells, {lost} losing an executor, in {took:.1?}");
}
