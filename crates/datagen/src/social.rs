//! Social-network generators: undirected (Holme–Kim preferential attachment)
//! and directed (activity/popularity with reciprocity shaping).
//!
//! These stand in for the paper's YouTube/Orkut (undirected) and
//! Pocek/socLiveJournal (directed) datasets. The knobs map one-to-one onto
//! the Table 1 columns they control: `edges_per_vertex` → |E|/|V|,
//! `reciprocity` → Symm %, `silent_fraction` → ZeroOut %, popularity skew →
//! ZeroIn % and the Figure 1 degree tails, `triad_probability` → triangles.

use cutfit_graph::{Graph, GraphBuilder};
use cutfit_util::num::vid_index;
use cutfit_util::rng::ZipfSampler;
use cutfit_util::Xoshiro256pp;

use crate::powerlaw::degree_sequence;

/// Parameters for [`undirected_social`].
#[derive(Debug, Clone, Copy)]
pub struct UndirectedSocialConfig {
    /// Number of vertices.
    pub vertices: u64,
    /// Undirected edges added per arriving vertex (the Barabási–Albert `m`);
    /// the directed edge count of the built graph is ≈ `2 · m · vertices`.
    pub edges_per_vertex: f64,
    /// Probability that an edge closes a triangle (Holme–Kim triad step);
    /// controls the clustering coefficient / triangle density.
    pub triad_probability: f64,
}

impl Default for UndirectedSocialConfig {
    fn default() -> Self {
        Self {
            vertices: 10_000,
            edges_per_vertex: 2.0,
            triad_probability: 0.3,
        }
    }
}

/// Generates a symmetric power-law social graph by preferential attachment
/// with triadic closure. Vertex IDs are join order: early vertices are the
/// oldest and best-connected accounts, as in real networks.
// Float sizes are samples (`as` saturates). Vertex ids and counts are below
// `n`, which the `u32` adjacency caps at 2^32 (asserted here).
#[allow(clippy::cast_possible_truncation)]
pub fn undirected_social(config: &UndirectedSocialConfig, seed: u64) -> Graph {
    let n = config.vertices;
    assert!(n <= 1 << 32, "u32 adjacency: at most 2^32 vertices");
    let m = config.edges_per_vertex.max(0.1);
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let m_int = m.floor() as u64;
    let m_frac = m - m_int as f64;
    let seed_size = (m.ceil() as u64 + 1).clamp(2, n.max(2));

    let mut builder = GraphBuilder::with_capacity((n as f64 * m * 2.2) as usize);
    builder.reserve_vertices(n);
    builder.symmetrize(true);

    // `endpoints` holds one entry per edge endpoint: uniform choice from it
    // is degree-proportional (classic BA trick). `adj` supports the triad
    // step and per-vertex duplicate avoidance.
    let mut endpoints: Vec<u32> = Vec::with_capacity((n as f64 * m * 2.2) as usize);
    let mut adj: Vec<Vec<u32>> = vec![Vec::new(); vid_index(n)];
    let connect = |a: u32,
                   b: u32,
                   builder: &mut GraphBuilder,
                   endpoints: &mut Vec<u32>,
                   adj: &mut Vec<Vec<u32>>| {
        builder.add_edge(a as u64, b as u64);
        endpoints.push(a);
        endpoints.push(b);
        adj[a as usize].push(b);
        adj[b as usize].push(a);
    };

    // Seed: a small clique so preferential attachment has mass to work with.
    for a in 0..seed_size {
        for b in (a + 1)..seed_size {
            connect(a as u32, b as u32, &mut builder, &mut endpoints, &mut adj);
        }
    }

    for v in seed_size..n {
        let want = (m_int + u64::from(rng.bernoulli(m_frac))).max(1).min(v);
        let mut picked: Vec<u32> = Vec::with_capacity(want as usize);
        let mut prev: Option<u32> = None;
        let mut attempts = 0u64;
        while (picked.len() as u64) < want && attempts < want * 30 {
            attempts += 1;
            let candidate = match prev {
                // Triad step: befriend a friend of the previous pick.
                Some(p)
                    if rng.bernoulli(config.triad_probability) && !adj[p as usize].is_empty() =>
                {
                    *rng.choose(&adj[p as usize])
                }
                _ => {
                    if endpoints.is_empty() {
                        rng.range_u64(v) as u32
                    } else {
                        *rng.choose(&endpoints)
                    }
                }
            };
            if candidate as u64 != v && !picked.contains(&candidate) {
                picked.push(candidate);
                prev = Some(candidate);
            }
        }
        for t in picked {
            connect(v as u32, t, &mut builder, &mut endpoints, &mut adj);
        }
    }
    builder.build()
}

/// Parameters for the directed social generator (`directed_social`).
#[derive(Debug, Clone, Copy)]
pub struct DirectedSocialConfig {
    /// Number of vertices.
    pub vertices: u64,
    /// Target |E|/|V| of the built (directed) graph.
    pub avg_out_degree: f64,
    /// Power-law exponent of the out-degree ("activity") distribution.
    pub activity_alpha: f64,
    /// Zipf exponent of target popularity; higher → stronger "superstars"
    /// and more never-targeted (zero in-degree) vertices.
    pub popularity_alpha: f64,
    /// Target fraction of reciprocated edges (Table 1 "Symm" / 100).
    pub reciprocity: f64,
    /// Fraction of vertices that never create edges (zero out-degree).
    pub silent_fraction: f64,
    /// Probability that an edge targets a friend-of-a-friend instead of a
    /// popularity sample (triangles).
    pub triad_probability: f64,
    /// Attach isolated vertices to the core so the graph has one weak
    /// component (the paper's Pocek is "a connected part" of the network).
    pub connect_isolated: bool,
}

impl Default for DirectedSocialConfig {
    fn default() -> Self {
        Self {
            vertices: 10_000,
            avg_out_degree: 10.0,
            activity_alpha: 2.2,
            popularity_alpha: 0.8,
            reciprocity: 0.5,
            silent_fraction: 0.1,
            triad_probability: 0.2,
            connect_isolated: true,
        }
    }
}

/// Generates a directed social graph with tunable reciprocity.
///
/// Each vertex draws an activity budget (its out-degree) from a power law,
/// spends it on targets drawn from a Zipf popularity ranking (rank = vertex
/// ID: old accounts are popular, giving IDs the locality the SC/DC
/// partitioners look for), and each edge is reciprocated with the
/// probability that achieves the configured edge-level reciprocity.
// Float sizes are samples (`as` saturates). Vertex ids are below `n`, which
// the `u32` adjacency caps at 2^32 (asserted here).
#[allow(clippy::cast_possible_truncation)]
pub(crate) fn directed_social(config: &DirectedSocialConfig, seed: u64) -> Graph {
    let n = config.vertices;
    assert!(n <= 1 << 32, "u32 adjacency: at most 2^32 vertices");
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    // If each base edge is independently reciprocated with probability q,
    // the fraction of reciprocated directed edges is 2q/(1+q); invert.
    let r = config.reciprocity.clamp(0.0, 1.0);
    let q = if r >= 1.0 { 1.0 } else { r / (2.0 - r) };
    let base_total = (n as f64 * config.avg_out_degree / (1.0 + q)) as u64;
    let cap = (n / 4).max(8);
    let degrees = degree_sequence(
        &mut rng,
        vid_index(n),
        config.activity_alpha,
        config.silent_fraction,
        base_total,
        cap,
    );
    let silent: Vec<bool> = degrees.iter().map(|&d| d == 0).collect();
    let zipf = ZipfSampler::new(vid_index(n), config.popularity_alpha);

    let mut builder = GraphBuilder::with_capacity((base_total as f64 * (1.0 + q)) as usize);
    builder.reserve_vertices(n);
    builder.dedup(true);
    builder.drop_loops(true);
    let mut out_adj: Vec<Vec<u32>> = vec![Vec::new(); vid_index(n)];
    let mut targeted = vec![false; vid_index(n)];

    for v in 0..n {
        for _ in 0..degrees[vid_index(v)] {
            let t = if rng.bernoulli(config.triad_probability) && !out_adj[vid_index(v)].is_empty()
            {
                let w = *rng.choose(&out_adj[vid_index(v)]);
                if out_adj[w as usize].is_empty() {
                    zipf.sample(&mut rng) as u64
                } else {
                    *rng.choose(&out_adj[w as usize]) as u64
                }
            } else {
                zipf.sample(&mut rng) as u64
            };
            if t == v {
                continue;
            }
            builder.add_edge(v, t);
            out_adj[vid_index(v)].push(t as u32);
            targeted[vid_index(t)] = true;
            // Reciprocation: silent vertices never follow back (they have no
            // out-activity by construction).
            if !silent[vid_index(t)] && rng.bernoulli(q) {
                builder.add_edge(t, v);
                out_adj[vid_index(t)].push(v as u32);
                targeted[vid_index(v)] = true;
            }
        }
    }

    if config.connect_isolated {
        // Attach untouched vertices to the most popular vertex so the graph
        // forms a single weak component without disturbing ZeroOut.
        for v in 0..n {
            if degrees[vid_index(v)] == 0 && !targeted[vid_index(v)] && n > 1 {
                let hub = if v == 0 { 1 } else { 0 };
                builder.add_edge(hub, v);
            }
        }
    }
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cutfit_graph::analysis::{
        count_triangles, reciprocity, weakly_connected_components, DegreeStats,
    };

    #[test]
    fn undirected_is_symmetric_and_sized() {
        let g = undirected_social(
            &UndirectedSocialConfig {
                vertices: 5_000,
                edges_per_vertex: 3.0,
                triad_probability: 0.4,
            },
            1,
        );
        assert_eq!(g.num_vertices(), 5_000);
        assert!((reciprocity(&g) - 1.0).abs() < 1e-12);
        let avg = g.num_edges() as f64 / g.num_vertices() as f64;
        assert!((5.0..7.0).contains(&avg), "directed avg degree {avg} ≈ 2m");
    }

    #[test]
    fn undirected_has_power_law_hubs() {
        let g = undirected_social(
            &UndirectedSocialConfig {
                vertices: 5_000,
                edges_per_vertex: 2.0,
                triad_probability: 0.3,
            },
            2,
        );
        let stats = DegreeStats::of(&g);
        assert!(
            stats.max_out_degree > 50,
            "hub degree {} should far exceed the mean",
            stats.max_out_degree
        );
    }

    #[test]
    fn triad_probability_increases_triangles() {
        let base = UndirectedSocialConfig {
            vertices: 3_000,
            edges_per_vertex: 4.0,
            triad_probability: 0.0,
        };
        let low = count_triangles(&undirected_social(&base, 3));
        let high = count_triangles(&undirected_social(
            &UndirectedSocialConfig {
                triad_probability: 0.8,
                ..base
            },
            3,
        ));
        assert!(high > low * 2, "triads: low={low} high={high}");
    }

    #[test]
    fn undirected_is_connected() {
        let g = undirected_social(&UndirectedSocialConfig::default(), 4);
        assert_eq!(weakly_connected_components(&g).count, 1);
    }

    #[test]
    fn directed_hits_reciprocity_target() {
        for target in [0.35, 0.55, 0.75] {
            let g = directed_social(
                &DirectedSocialConfig {
                    vertices: 8_000,
                    avg_out_degree: 12.0,
                    reciprocity: target,
                    triad_probability: 0.0,
                    ..Default::default()
                },
                5,
            );
            let r = reciprocity(&g);
            assert!((r - target).abs() < 0.08, "target {target}, measured {r}");
        }
    }

    #[test]
    fn directed_silent_fraction_controls_zero_out() {
        let g = directed_social(
            &DirectedSocialConfig {
                vertices: 8_000,
                silent_fraction: 0.2,
                ..Default::default()
            },
            6,
        );
        let stats = DegreeStats::of(&g);
        // Silent vertices stay silent (no reciprocation from them), but a
        // few low-activity vertices may also end with zero out-degree.
        assert!(
            (0.12..0.35).contains(&stats.zero_out_fraction),
            "zero-out {}",
            stats.zero_out_fraction
        );
    }

    #[test]
    fn directed_avg_degree_near_target() {
        let g = directed_social(
            &DirectedSocialConfig {
                vertices: 8_000,
                avg_out_degree: 15.0,
                triad_probability: 0.0,
                ..Default::default()
            },
            7,
        );
        let avg = g.num_edges() as f64 / g.num_vertices() as f64;
        // Dedup of repeated popular targets eats some edges; allow slack.
        assert!((10.0..=16.0).contains(&avg), "avg {avg}");
    }

    #[test]
    fn directed_connect_isolated_yields_one_component() {
        let g = directed_social(
            &DirectedSocialConfig {
                vertices: 5_000,
                connect_isolated: true,
                ..Default::default()
            },
            8,
        );
        assert_eq!(weakly_connected_components(&g).count, 1);
    }

    #[test]
    fn generators_are_deterministic() {
        let c = DirectedSocialConfig::default();
        assert_eq!(directed_social(&c, 9), directed_social(&c, 9));
        let u = UndirectedSocialConfig::default();
        assert_eq!(undirected_social(&u, 9), undirected_social(&u, 9));
    }
}
