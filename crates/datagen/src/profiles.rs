//! The nine dataset profiles of Table 1.
//!
//! Each profile pairs a generator family with parameters chosen so the
//! generated graph matches the corresponding real dataset's *structural
//! fingerprint*: |E|/|V|, reciprocity, zero-degree fractions, degree skew,
//! triangle density class, and component structure. Absolute sizes scale
//! with the `scale` argument of [`DatasetProfile::generate`] (1.0 = the
//! paper's real size; experiments default to ~0.01).
//!
//! Calibration against the paper's Table 1 is pinned per dataset by
//! `crates/datagen/tests/profile_bands.rs`.

use cutfit_graph::Graph;

use crate::crawl::{crawl_graph, CrawlConfig};
use crate::road::{road_network, RoadNetworkConfig};
use crate::social::{
    directed_social, undirected_social, DirectedSocialConfig, UndirectedSocialConfig,
};

/// Generator family and structural parameters for one dataset.
#[derive(Debug, Clone, Copy)]
pub enum ProfileKind {
    /// Perturbed grid (RoadNet-*).
    Road {
        /// width / height ratio of the grid.
        aspect: f64,
        /// Lattice-edge keep probability.
        keep_probability: f64,
        /// Diagonal shortcut fraction.
        diagonal_fraction: f64,
    },
    /// Symmetric preferential-attachment graph (YouTube, Orkut).
    UndirectedSocial {
        /// Undirected edges per arriving vertex.
        edges_per_vertex: f64,
        /// Triadic-closure probability.
        triad_probability: f64,
    },
    /// Directed activity/popularity graph (Pocek, socLiveJournal).
    DirectedSocial {
        /// Target |E|/|V|.
        avg_out_degree: f64,
        /// Out-degree power-law exponent.
        activity_alpha: f64,
        /// Popularity Zipf exponent.
        popularity_alpha: f64,
        /// Target reciprocity.
        reciprocity: f64,
        /// Zero out-degree fraction.
        silent_fraction: f64,
        /// Triadic-closure probability.
        triad_probability: f64,
        /// Whether isolated vertices are attached to the core.
        connect_isolated: bool,
    },
    /// Twitter-style API crawl (follow-jul, follow-dec).
    Crawl {
        /// Crawled-core size as a fraction of the target vertex count.
        crawled_fraction: f64,
        /// Celebrity-zone size as a fraction of the target vertex count
        /// (controls ZeroOut %).
        celebrity_zone_fraction: f64,
        /// Audience-zone size as a fraction of the target vertex count
        /// (controls ZeroIn %).
        audience_zone_fraction: f64,
        /// Average friends per crawled user.
        friends_mean: f64,
        /// Average followers per crawled user.
        followers_mean: f64,
        /// Fraction of friend edges that stay inside the crawled community.
        peer_fraction: f64,
        /// Peer triadic-closure probability (community clustering).
        peer_triad_p: f64,
        /// Zipf exponent for friend targets (celebrity skew).
        celebrity_alpha: f64,
        /// Zipf exponent for follower sources (audience breadth).
        follower_alpha: f64,
        /// Mutual-follow probability among peers.
        mutual_p: f64,
    },
}

/// A named dataset profile with the paper's real size as its base scale.
///
/// ```
/// use cutfit_datagen::DatasetProfile;
///
/// let profile = DatasetProfile::pocek();
/// let graph = profile.generate(0.002, 42);          // 0.2% of the real size
/// assert_eq!(graph.num_vertices(), profile.scaled_vertices(0.002));
/// // Same seed, same graph — forever.
/// assert_eq!(graph, profile.generate(0.002, 42));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct DatasetProfile {
    /// Dataset name as printed in the paper's tables.
    pub name: &'static str,
    /// Vertex count of the real dataset (Table 1).
    pub base_vertices: u64,
    /// Directed edge count of the real dataset (Table 1).
    pub base_edges: u64,
    /// Generator family and parameters.
    pub kind: ProfileKind,
}

impl DatasetProfile {
    /// RoadNet-PA: Pennsylvania road network (SNAP).
    pub fn road_net_pa() -> Self {
        Self {
            name: "RoadNet-PA",
            base_vertices: 1_088_092,
            base_edges: 3_083_796,
            kind: ProfileKind::Road {
                aspect: 1.2,
                keep_probability: 0.655,
                diagonal_fraction: 0.065,
            },
        }
    }

    /// YouTube social network (SNAP, undirected).
    pub fn youtube() -> Self {
        Self {
            name: "YouTube",
            base_vertices: 1_134_890,
            base_edges: 2_987_624,
            kind: ProfileKind::UndirectedSocial {
                edges_per_vertex: 1.32,
                triad_probability: 0.7,
            },
        }
    }

    /// RoadNet-TX: Texas road network (SNAP).
    pub fn road_net_tx() -> Self {
        Self {
            name: "RoadNet-TX",
            base_vertices: 1_379_917,
            base_edges: 3_843_320,
            kind: ProfileKind::Road {
                aspect: 1.4,
                keep_probability: 0.655,
                diagonal_fraction: 0.060,
            },
        }
    }

    /// Pocek: Slovak on-line social network (paper's spelling of Pokec).
    pub fn pocek() -> Self {
        Self {
            name: "Pocek",
            base_vertices: 1_632_803,
            base_edges: 30_622_564,
            kind: ProfileKind::DirectedSocial {
                avg_out_degree: 25.5,
                activity_alpha: 2.0,
                popularity_alpha: 1.15,
                reciprocity: 0.5434,
                silent_fraction: 0.1225,
                triad_probability: 0.2,
                connect_isolated: true,
            },
        }
    }

    /// RoadNet-CA: California road network (SNAP).
    pub fn road_net_ca() -> Self {
        Self {
            name: "RoadNet-CA",
            base_vertices: 1_965_206,
            base_edges: 5_533_214,
            kind: ProfileKind::Road {
                aspect: 1.0,
                keep_probability: 0.665,
                diagonal_fraction: 0.062,
            },
        }
    }

    /// Orkut social network (SNAP, undirected, dense).
    pub fn orkut() -> Self {
        Self {
            name: "Orkut",
            base_vertices: 3_072_441,
            base_edges: 117_185_082,
            kind: ProfileKind::UndirectedSocial {
                edges_per_vertex: 19.1,
                triad_probability: 0.65,
            },
        }
    }

    /// socLiveJournal (SNAP, directed).
    pub fn soc_live_journal() -> Self {
        Self {
            name: "socLiveJournal",
            base_vertices: 4_847_571,
            base_edges: 68_993_773,
            kind: ProfileKind::DirectedSocial {
                avg_out_degree: 18.8,
                activity_alpha: 2.0,
                popularity_alpha: 1.05,
                reciprocity: 0.7503,
                silent_fraction: 0.1112,
                triad_probability: 0.4,
                connect_isolated: false,
            },
        }
    }

    /// follow-jul: Twitter follow crawl, July 2016 – July 2017.
    pub fn follow_jul() -> Self {
        Self {
            name: "follow-jul",
            base_vertices: 17_100_000,
            base_edges: 136_700_000,
            kind: ProfileKind::Crawl {
                crawled_fraction: 0.22,
                celebrity_zone_fraction: 0.30,
                audience_zone_fraction: 0.52,
                friends_mean: 16.0,
                followers_mean: 14.0,
                peer_fraction: 0.5,
                peer_triad_p: 0.45,
                celebrity_alpha: 0.80,
                follower_alpha: 0.30,
                mutual_p: 0.8,
            },
        }
    }

    /// follow-dec: Twitter follow crawl, July 2016 – December 2017
    /// (superset of follow-jul).
    pub fn follow_dec() -> Self {
        Self {
            name: "follow-dec",
            base_vertices: 26_300_000,
            base_edges: 204_900_000,
            kind: ProfileKind::Crawl {
                crawled_fraction: 0.20,
                celebrity_zone_fraction: 0.22,
                audience_zone_fraction: 0.62,
                friends_mean: 19.0,
                followers_mean: 16.0,
                peer_fraction: 0.5,
                peer_triad_p: 0.45,
                celebrity_alpha: 0.82,
                follower_alpha: 0.26,
                mutual_p: 0.8,
            },
        }
    }

    /// All nine datasets in Table 1 order (ascending vertex count).
    pub fn all() -> Vec<Self> {
        vec![
            Self::road_net_pa(),
            Self::youtube(),
            Self::road_net_tx(),
            Self::pocek(),
            Self::road_net_ca(),
            Self::orkut(),
            Self::soc_live_journal(),
            Self::follow_jul(),
            Self::follow_dec(),
        ]
    }

    /// The six datasets the paper's runtime figures actually plot (it drops
    /// the road networks from some experiments); here: the social graphs.
    pub fn social() -> Vec<Self> {
        vec![
            Self::youtube(),
            Self::pocek(),
            Self::orkut(),
            Self::soc_live_journal(),
            Self::follow_jul(),
            Self::follow_dec(),
        ]
    }

    /// Looks a profile up by its table name (case-insensitive).
    pub fn by_name(name: &str) -> Option<Self> {
        Self::all()
            .into_iter()
            .find(|p| p.name.eq_ignore_ascii_case(name))
    }

    /// Vertex count at the given scale (minimum 64 to keep generators sane).
    // A float size: `as` saturates, and the floor is 64.
    #[allow(clippy::cast_possible_truncation)]
    pub fn scaled_vertices(&self, scale: f64) -> u64 {
        ((self.base_vertices as f64 * scale).round() as u64).max(64)
    }

    /// True for datasets stored symmetrically (Symm = 100 % in Table 1).
    pub fn is_symmetric(&self) -> bool {
        matches!(
            self.kind,
            ProfileKind::Road { .. } | ProfileKind::UndirectedSocial { .. }
        )
    }

    /// Generates the dataset at `scale` (1.0 = the paper's real size)
    /// deterministically from `seed`.
    // Grid sides and zone sizes are float fractions of `n`: `as` saturates.
    #[allow(clippy::cast_possible_truncation)]
    pub fn generate(&self, scale: f64, seed: u64) -> Graph {
        let n = self.scaled_vertices(scale);
        match self.kind {
            ProfileKind::Road {
                aspect,
                keep_probability,
                diagonal_fraction,
            } => {
                let width = ((n as f64 * aspect).sqrt().round() as u64).max(2);
                let height = n.div_ceil(width).max(2);
                road_network(
                    &RoadNetworkConfig {
                        width,
                        height,
                        keep_probability,
                        diagonal_fraction,
                    },
                    seed,
                )
            }
            ProfileKind::UndirectedSocial {
                edges_per_vertex,
                triad_probability,
            } => undirected_social(
                &UndirectedSocialConfig {
                    vertices: n,
                    edges_per_vertex,
                    triad_probability,
                },
                seed,
            ),
            ProfileKind::DirectedSocial {
                avg_out_degree,
                activity_alpha,
                popularity_alpha,
                reciprocity,
                silent_fraction,
                triad_probability,
                connect_isolated,
            } => directed_social(
                &DirectedSocialConfig {
                    vertices: n,
                    avg_out_degree,
                    activity_alpha,
                    popularity_alpha,
                    reciprocity,
                    silent_fraction,
                    triad_probability,
                    connect_isolated,
                },
                seed,
            ),
            ProfileKind::Crawl {
                crawled_fraction,
                celebrity_zone_fraction,
                audience_zone_fraction,
                friends_mean,
                followers_mean,
                peer_fraction,
                peer_triad_p,
                celebrity_alpha,
                follower_alpha,
                mutual_p,
            } => crawl_graph(
                &CrawlConfig {
                    crawled_users: ((n as f64 * crawled_fraction) as u64).max(16),
                    celebrity_zone: (n as f64 * celebrity_zone_fraction) as u64,
                    audience_zone: (n as f64 * audience_zone_fraction) as u64,
                    friends_mean,
                    followers_mean,
                    degree_alpha: 1.9,
                    peer_fraction,
                    peer_alpha: 0.6,
                    peer_triad_p,
                    celebrity_alpha,
                    follower_alpha,
                    mutual_p,
                    stranger_p: 0.02,
                },
                seed,
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cutfit_graph::analysis::{reciprocity, DegreeStats};

    const SCALE: f64 = 0.004;

    #[test]
    fn all_lists_nine_in_table_order() {
        let all = DatasetProfile::all();
        assert_eq!(all.len(), 9);
        let names: Vec<&str> = all.iter().map(|p| p.name).collect();
        assert_eq!(
            names,
            vec![
                "RoadNet-PA",
                "YouTube",
                "RoadNet-TX",
                "Pocek",
                "RoadNet-CA",
                "Orkut",
                "socLiveJournal",
                "follow-jul",
                "follow-dec"
            ]
        );
        // Table 1 orders by ascending vertex count.
        for w in all.windows(2) {
            assert!(w[0].base_vertices <= w[1].base_vertices);
        }
    }

    #[test]
    fn by_name_is_case_insensitive() {
        assert!(DatasetProfile::by_name("orkut").is_some());
        assert!(DatasetProfile::by_name("FOLLOW-DEC").is_some());
        assert!(DatasetProfile::by_name("unknown").is_none());
    }

    #[test]
    fn symmetric_profiles_generate_symmetric_graphs() {
        for p in DatasetProfile::all() {
            let g = p.generate(SCALE, 42);
            let r = reciprocity(&g);
            if p.is_symmetric() {
                assert!((r - 1.0).abs() < 1e-9, "{}: r={r}", p.name);
            } else {
                assert!(r < 0.95, "{}: r={r}", p.name);
            }
        }
    }

    #[test]
    fn average_degree_tracks_table1() {
        for p in DatasetProfile::all() {
            let g = p.generate(SCALE, 42);
            let measured = g.num_edges() as f64 / g.num_vertices() as f64;
            let expected = p.base_edges as f64 / p.base_vertices as f64;
            let ratio = measured / expected;
            assert!(
                (0.5..=1.6).contains(&ratio),
                "{}: measured avg degree {measured:.2} vs table {expected:.2}",
                p.name
            );
        }
    }

    #[test]
    fn crawl_profiles_have_leaf_vertices() {
        let g = DatasetProfile::follow_dec().generate(SCALE, 7);
        let stats = DegreeStats::of(&g);
        assert!(stats.zero_in_fraction > 0.25, "{}", stats.zero_in_fraction);
        assert!(
            stats.zero_out_fraction > 0.05,
            "{}",
            stats.zero_out_fraction
        );
        let road = DatasetProfile::road_net_pa().generate(SCALE, 7);
        let rstats = DegreeStats::of(&road);
        assert_eq!(rstats.zero_in_fraction, rstats.zero_out_fraction);
    }

    #[test]
    fn scaled_vertices_has_floor() {
        assert_eq!(DatasetProfile::youtube().scaled_vertices(1e-9), 64);
    }

    #[test]
    fn generation_is_deterministic() {
        let p = DatasetProfile::pocek();
        assert_eq!(p.generate(0.002, 1), p.generate(0.002, 1));
    }
}
