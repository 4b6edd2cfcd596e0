//! R-MAT recursive-matrix generator (Chakrabarti, Zhan & Faloutsos).
//!
//! Not one of the paper's datasets, but the standard skewed-graph workload
//! for partitioning benchmarks and property tests; kept here so tests and
//! `benchmark/` can exercise partitioners on graphs with tunable skew that
//! are *not* produced by the profile generators.

use cutfit_graph::{Graph, GraphBuilder};
use cutfit_util::Xoshiro256pp;

/// Parameters for [`rmat`]. Quadrant probabilities must sum to ~1.
#[derive(Debug, Clone, Copy)]
pub struct RmatConfig {
    /// log2 of the number of vertices.
    pub scale: u32,
    /// Number of edges to sample.
    pub edges: u64,
    /// Probability of the top-left quadrant (self-community).
    pub a: f64,
    /// Top-right quadrant probability.
    pub b: f64,
    /// Bottom-left quadrant probability.
    pub c: f64,
    /// Bottom-right quadrant probability (1 - a - b - c).
    pub d: f64,
}

impl Default for RmatConfig {
    fn default() -> Self {
        // The canonical Graph500-ish parameters.
        Self {
            scale: 12,
            edges: 8 * 4096,
            a: 0.57,
            b: 0.19,
            c: 0.19,
            d: 0.05,
        }
    }
}

/// Samples an R-MAT graph. Duplicate edges are kept (multigraph), matching
/// the raw output of the reference generator; pass through
/// [`cutfit_graph::GraphBuilder`] with dedup for a simple graph.
// The edge count only sizes a capacity hint.
#[allow(clippy::cast_possible_truncation)]
pub fn rmat(config: &RmatConfig, seed: u64) -> Graph {
    let sum = config.a + config.b + config.c + config.d;
    assert!(
        (sum - 1.0).abs() < 1e-6,
        "quadrant probabilities must sum to 1, got {sum}"
    );
    let n = 1u64 << config.scale;
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let mut builder = GraphBuilder::with_capacity(config.edges as usize);
    builder.reserve_vertices(n);
    for _ in 0..config.edges {
        let (mut src, mut dst) = (0u64, 0u64);
        for level in (0..config.scale).rev() {
            let u = rng.next_f64();
            let (right, down) = if u < config.a {
                (0, 0)
            } else if u < config.a + config.b {
                (1, 0)
            } else if u < config.a + config.b + config.c {
                (0, 1)
            } else {
                (1, 1)
            };
            src |= down << level;
            dst |= right << level;
        }
        builder.add_edge(src, dst);
    }
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cutfit_graph::analysis::DegreeStats;

    #[test]
    fn generates_requested_edges() {
        let g = rmat(&RmatConfig::default(), 1);
        assert_eq!(g.num_edges(), 8 * 4096);
        assert_eq!(g.num_vertices(), 4096);
    }

    #[test]
    fn skewed_parameters_make_hubs() {
        let g = rmat(&RmatConfig::default(), 2);
        let stats = DegreeStats::of(&g);
        let avg = g.num_edges() as f64 / g.num_vertices() as f64;
        assert!(
            stats.max_out_degree as f64 > 10.0 * avg,
            "hub {} vs avg {avg}",
            stats.max_out_degree
        );
    }

    #[test]
    fn uniform_parameters_are_flat() {
        let cfg = RmatConfig {
            a: 0.25,
            b: 0.25,
            c: 0.25,
            d: 0.25,
            ..Default::default()
        };
        let g = rmat(&cfg, 3);
        let stats = DegreeStats::of(&g);
        let avg = g.num_edges() as f64 / g.num_vertices() as f64;
        assert!(
            (stats.max_out_degree as f64) < 6.0 * avg,
            "uniform R-MAT has no strong hubs: {} vs {avg}",
            stats.max_out_degree
        );
    }

    #[test]
    #[should_panic(expected = "sum to 1")]
    fn rejects_bad_probabilities() {
        rmat(
            &RmatConfig {
                a: 0.9,
                b: 0.9,
                c: 0.0,
                d: 0.0,
                ..Default::default()
            },
            1,
        );
    }

    #[test]
    fn deterministic() {
        assert_eq!(
            rmat(&RmatConfig::default(), 5),
            rmat(&RmatConfig::default(), 5)
        );
    }
}
