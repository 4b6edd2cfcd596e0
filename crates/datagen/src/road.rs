//! Road-network generator: a perturbed grid.
//!
//! The SNAP road networks in the paper (RoadNet-PA/TX/CA) are symmetric,
//! have average directed degree ≈ 2.8, essentially no triangles, more than
//! a thousand connected components, and effectively unbounded diameter.
//! A rectangular grid with each lattice edge kept with probability
//! `keep_probability` reproduces all of that: above the 2-D bond percolation
//! threshold (0.5) it has one giant component plus many small fragments,
//! degree is bounded by 4 (+diagonals), the diameter is Θ(√V), and row-major
//! vertex IDs carry the same spatial locality real road-network dumps have —
//! the property the paper's SC/DC partitioners exploit.
//!
//! A small fraction of diagonal "shortcut" edges injects the handful of
//! triangles real road networks contain (ramps, frontage roads).

use cutfit_graph::{Graph, GraphBuilder};
use cutfit_util::num::vid_index;
use cutfit_util::Xoshiro256pp;

/// Parameters for the road generator (`road_network`).
#[derive(Debug, Clone, Copy)]
pub struct RoadNetworkConfig {
    /// Grid width (columns).
    pub width: u64,
    /// Grid height (rows).
    pub height: u64,
    /// Probability that each lattice edge exists (percolation parameter).
    pub keep_probability: f64,
    /// Fraction of grid cells that get a diagonal shortcut edge.
    pub diagonal_fraction: f64,
}

impl Default for RoadNetworkConfig {
    fn default() -> Self {
        Self {
            width: 100,
            height: 100,
            keep_probability: 0.69,
            diagonal_fraction: 0.05,
        }
    }
}

/// Generates a symmetric road-like graph. Vertex IDs are row-major grid
/// coordinates (compacted), so nearby IDs are nearby on the map. Junctions
/// isolated by the percolation are removed — real road-network dumps list
/// only junctions that carry road segments, which is why Table 1 reports
/// 0 % zero-degree vertices for them.
pub(crate) fn road_network(config: &RoadNetworkConfig, seed: u64) -> Graph {
    let RoadNetworkConfig {
        width,
        height,
        keep_probability,
        diagonal_fraction,
    } = *config;
    let n = width * height;
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let mut builder = GraphBuilder::with_capacity(vid_index(n) * 2);
    builder.reserve_vertices(n);
    builder.symmetrize(true);
    let id = |r: u64, c: u64| r * width + c;
    for r in 0..height {
        for c in 0..width {
            let v = id(r, c);
            if c + 1 < width && rng.bernoulli(keep_probability) {
                builder.add_edge(v, id(r, c + 1));
            }
            if r + 1 < height && rng.bernoulli(keep_probability) {
                builder.add_edge(v, id(r + 1, c));
            }
            if r + 1 < height && c + 1 < width && rng.bernoulli(diagonal_fraction) {
                builder.add_edge(v, id(r + 1, c + 1));
            }
        }
    }
    let grid = builder.build();

    // Drop isolated junctions, preserving row-major (spatial) ID order.
    let mut touched = vec![false; vid_index(n)];
    for e in grid.edges() {
        touched[vid_index(e.src)] = true;
        touched[vid_index(e.dst)] = true;
    }
    let mut remap = vec![0u64; vid_index(n)];
    let mut next = 0u64;
    for (v, &t) in touched.iter().enumerate() {
        if t {
            remap[v] = next;
            next += 1;
        }
    }
    let edges = grid
        .edges()
        .iter()
        .map(|e| cutfit_graph::Edge::new(remap[vid_index(e.src)], remap[vid_index(e.dst)]))
        .collect();
    Graph::new_unchecked(next, edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cutfit_graph::analysis::{count_triangles, reciprocity, weakly_connected_components};

    fn sample() -> Graph {
        road_network(&RoadNetworkConfig::default(), 42)
    }

    #[test]
    fn is_symmetric() {
        assert!((reciprocity(&sample()) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn degree_is_bounded() {
        let g = sample();
        let max_deg = g.out_degrees().into_iter().max().unwrap();
        assert!(max_deg <= 8, "grid + diagonals bound degree, got {max_deg}");
    }

    #[test]
    fn average_degree_is_roadlike() {
        let g = sample();
        let avg = g.num_edges() as f64 / g.num_vertices() as f64;
        // Paper road networks: |E|/|V| ≈ 2.8–3.0.
        assert!((2.2..=3.4).contains(&avg), "avg directed degree {avg}");
    }

    #[test]
    fn has_many_components() {
        let cc = weakly_connected_components(&sample());
        assert!(cc.count > 10, "percolated grid fragments: {}", cc.count);
        assert!(
            cc.largest() > 8_000,
            "giant component should dominate: {}",
            cc.largest()
        );
    }

    #[test]
    fn has_few_triangles() {
        let g = sample();
        let t = count_triangles(&g);
        let per_vertex = t as f64 / g.num_vertices() as f64;
        assert!(
            per_vertex < 0.3,
            "roads are nearly triangle-free: {per_vertex}"
        );
        assert!(t > 0, "diagonals create some triangles");
    }

    #[test]
    fn deterministic() {
        let a = road_network(&RoadNetworkConfig::default(), 7);
        let b = road_network(&RoadNetworkConfig::default(), 7);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seed_differs() {
        let a = road_network(&RoadNetworkConfig::default(), 7);
        let b = road_network(&RoadNetworkConfig::default(), 8);
        assert_ne!(a, b);
    }
}
