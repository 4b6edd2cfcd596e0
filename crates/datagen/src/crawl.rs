//! Twitter-style API crawl generator (the paper's follow-jul / follow-dec).
//!
//! The paper's follow graphs were crawled through the Twitter API: for every
//! user who tweeted in Greek, the crawler fetched the full friend (outgoing)
//! and follower (incoming) lists. The resulting graph has a **crawled core**
//! whose every incident edge is known, plus a huge **periphery** of users
//! that were only *seen* — mentioned in someone's friend or follower list —
//! whose other edges are invisible. That asymmetry is exactly what produces
//! Table 1's striking ZeroIn (46.9 / 55.1 %) and ZeroOut (25.7 / 18.3 %)
//! fractions and the "superstar" tail of Figure 2.
//!
//! The generator reproduces the mechanism with three edge categories that
//! mirror real follow behaviour, drawing from mostly-disjoint populations —
//! the accounts a community follows (global celebrities) and the accounts
//! that follow the community (its audience) overlap very little:
//!
//! * **peer** edges — crawled users following other crawled users; highly
//!   mutual (drives Symm %).
//! * **celebrity** edges — crawled users following popular accounts drawn
//!   from the core plus a celebrity zone (heavy Zipf skew); rarely mutual.
//!   Celebrity-zone accounts are seen only as targets → they are the
//!   paper's *zero out-degree* leaves.
//! * **audience** edges — accounts from an audience zone following a
//!   crawled user (broad, low-skew sampling); rarely followed back → the
//!   audience zone supplies the *zero in-degree* leaves.
//!
//! Vertex IDs are assigned in first-touch (crawl) order, so IDs carry crawl
//! locality — the property the paper's SC/DC partitioners exploit.

use cutfit_graph::{Edge, Graph};
use cutfit_util::num::vid_index;
use cutfit_util::rng::ZipfSampler;
use cutfit_util::Xoshiro256pp;

use crate::powerlaw::degree_sequence;
use crate::relabel::first_touch_relabel;

/// Parameters for the crawl generator (`crawl_graph`).
#[derive(Debug, Clone, Copy)]
pub struct CrawlConfig {
    /// Number of crawled users (the "core": users whose edge lists were
    /// fetched completely). Core slots double as peer and celebrity targets.
    pub crawled_users: u64,
    /// Number of celebrity-only universe slots (reachable as friend targets,
    /// never as follower sources).
    pub celebrity_zone: u64,
    /// Number of audience-only universe slots (follower sources, never
    /// friend targets).
    pub audience_zone: u64,
    /// Average number of friends (out-edges) per crawled user.
    pub friends_mean: f64,
    /// Average number of followers (in-edges) per crawled user.
    pub followers_mean: f64,
    /// Power-law exponent of per-user activity (friend/follower counts).
    pub degree_alpha: f64,
    /// Fraction of friend edges that stay inside the crawled community.
    pub peer_fraction: f64,
    /// Zipf exponent for peer targets within the core.
    pub peer_alpha: f64,
    /// Probability that a peer edge closes a triangle (targets a peer of a
    /// peer instead of a popularity sample). Crawled communities are densely
    /// clustered — the follow graphs have the highest triangle counts in
    /// Table 1.
    pub peer_triad_p: f64,
    /// Zipf exponent for celebrity friend targets over core + celebrity
    /// zone: high skew → a few accounts collect enormous in-degree.
    pub celebrity_alpha: f64,
    /// Zipf exponent for follower sources over the audience zone: low skew
    /// → followers touch many distinct users a handful of times each.
    pub follower_alpha: f64,
    /// Probability a peer relationship is mutual (drives Symm %).
    pub mutual_p: f64,
    /// Probability a celebrity or audience relationship is mutual (tiny).
    pub stranger_p: f64,
}

impl Default for CrawlConfig {
    fn default() -> Self {
        Self {
            crawled_users: 2_500,
            celebrity_zone: 3_000,
            audience_zone: 6_500,
            friends_mean: 16.0,
            followers_mean: 14.0,
            degree_alpha: 1.9,
            peer_fraction: 0.5,
            peer_alpha: 0.6,
            peer_triad_p: 0.4,
            celebrity_alpha: 0.8,
            follower_alpha: 0.35,
            mutual_p: 0.8,
            stranger_p: 0.02,
        }
    }
}

impl CrawlConfig {
    /// Total universe size (core + both zones).
    pub fn universe(&self) -> u64 {
        self.crawled_users + self.celebrity_zone + self.audience_zone
    }
}

/// Generates a crawl-shaped follow graph. Returns a compacted graph whose
/// vertex IDs are first-touch order; the crawled core occupies the
/// early/interleaved IDs just as in a real breadth-wise crawl dump.
// Float sizes are samples (`as` saturates), `spread` reduces modulo a `u64`
// pool, and peer ids are below `na`, which the `u32` peer adjacency caps at
// 2^32 (asserted here).
#[allow(clippy::cast_possible_truncation)]
pub(crate) fn crawl_graph(config: &CrawlConfig, seed: u64) -> Graph {
    assert!(config.crawled_users > 1, "need at least two crawled users");
    assert!(
        config.crawled_users <= 1 << 32,
        "u32 peer adjacency: at most 2^32 crawled users"
    );
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let na = config.crawled_users;
    let celeb_pool = na + config.celebrity_zone;
    let audience_base = celeb_pool;
    let cap = (config.universe() / 4).max(8);

    let friend_deg = degree_sequence(
        &mut rng,
        vid_index(na),
        config.degree_alpha,
        0.0,
        (na as f64 * config.friends_mean) as u64,
        cap,
    );
    let follower_deg = degree_sequence(
        &mut rng,
        vid_index(na),
        config.degree_alpha,
        0.0,
        (na as f64 * config.followers_mean) as u64,
        cap,
    );

    // Popularity ranks map onto pool slots through a fixed multiplicative
    // bijection so that celebrities are scattered across crawled and
    // periphery users alike (rank 0 is *not* always user 0). The multiplier
    // is prime and the product computed in 128 bits, so the map is a true
    // permutation of [0, pool) for every pool size.
    let spread = |rank: u64, pool: u64| -> u64 {
        const PRIME: u128 = 1_125_899_906_842_597;
        ((rank as u128 * PRIME) % pool as u128) as u64
    };
    let peers = ZipfSampler::new(vid_index(na), config.peer_alpha);
    let celebrity = ZipfSampler::new(vid_index(celeb_pool), config.celebrity_alpha);
    let audience = ZipfSampler::new(
        vid_index(config.audience_zone.max(1)),
        config.follower_alpha,
    );

    let mut edges: Vec<Edge> = Vec::with_capacity(
        ((config.friends_mean + config.followers_mean) * na as f64 * 1.4) as usize,
    );
    // Peer adjacency, used by the triadic-closure step below.
    let mut peer_adj: Vec<Vec<u32>> = vec![Vec::new(); vid_index(na)];
    for a in 0..na {
        for _ in 0..friend_deg[vid_index(a)] {
            let (t, back_p) = if rng.bernoulli(config.peer_fraction) {
                // Triadic closure: with probability `peer_triad_p`, follow a
                // friend of an existing friend instead of a fresh sample.
                let target =
                    if rng.bernoulli(config.peer_triad_p) && !peer_adj[vid_index(a)].is_empty() {
                        let via = *rng.choose(&peer_adj[vid_index(a)]);
                        if peer_adj[via as usize].is_empty() {
                            peers.sample(&mut rng) as u64
                        } else {
                            *rng.choose(&peer_adj[via as usize]) as u64
                        }
                    } else {
                        peers.sample(&mut rng) as u64
                    };
                if target < na && target != a {
                    peer_adj[vid_index(a)].push(target as u32);
                }
                (target, config.mutual_p)
            } else {
                (
                    spread(celebrity.sample(&mut rng) as u64, celeb_pool),
                    config.stranger_p,
                )
            };
            if t == a {
                continue;
            }
            edges.push(Edge::new(a, t));
            if rng.bernoulli(back_p) {
                edges.push(Edge::new(t, a));
                if t < na {
                    peer_adj[vid_index(t)].push(a as u32);
                }
            }
        }
        if config.audience_zone == 0 {
            continue;
        }
        for _ in 0..follower_deg[vid_index(a)] {
            let s = audience_base + spread(audience.sample(&mut rng) as u64, config.audience_zone);
            edges.push(Edge::new(s, a));
            if rng.bernoulli(config.stranger_p) {
                edges.push(Edge::new(a, s));
            }
        }
    }

    let mut relabeled = first_touch_relabel(&edges);
    relabeled.edges.sort_unstable();
    relabeled.edges.dedup();
    Graph::new_unchecked(relabeled.num_vertices, relabeled.edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cutfit_graph::analysis::{reciprocity, DegreeStats};

    fn sample() -> Graph {
        crawl_graph(&CrawlConfig::default(), 11)
    }

    #[test]
    fn has_large_zero_in_and_out_fractions() {
        let g = sample();
        let stats = DegreeStats::of(&g);
        // Paper: ZeroIn 46.9–55.1 %, ZeroOut 18.3–25.7 %. Loose bands: the
        // mechanism (periphery users seen from one side only) is the point.
        assert!(
            (0.30..0.70).contains(&stats.zero_in_fraction),
            "zero-in {}",
            stats.zero_in_fraction
        );
        assert!(
            (0.08..0.45).contains(&stats.zero_out_fraction),
            "zero-out {}",
            stats.zero_out_fraction
        );
        assert!(
            stats.zero_in_fraction > stats.zero_out_fraction,
            "audience breadth exceeds celebrity breadth"
        );
    }

    #[test]
    fn has_superstars() {
        let g = sample();
        let stats = DegreeStats::of(&g);
        let avg_in = g.num_edges() as f64 / g.num_vertices() as f64;
        assert!(
            stats.max_in_degree as f64 > 40.0 * avg_in,
            "celebrity in-degree {} vs avg {avg_in}",
            stats.max_in_degree
        );
    }

    #[test]
    fn reciprocity_is_partial() {
        let r = reciprocity(&sample());
        assert!((0.15..0.60).contains(&r), "measured {r}");
    }

    #[test]
    fn ids_are_compact() {
        let g = sample();
        // Every vertex id below num_vertices must be touched by construction.
        let mut seen = vec![false; g.num_vertices() as usize];
        for e in g.edges() {
            seen[e.src as usize] = true;
            seen[e.dst as usize] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "first-touch relabel leaves no gaps"
        );
    }

    #[test]
    fn zero_audience_zone_is_legal() {
        let g = crawl_graph(
            &CrawlConfig {
                audience_zone: 0,
                ..Default::default()
            },
            5,
        );
        assert!(g.num_edges() > 0);
        let stats = DegreeStats::of(&g);
        assert!(stats.zero_in_fraction < 0.2, "no audience → few zero-in");
    }

    #[test]
    fn deterministic() {
        assert_eq!(
            crawl_graph(&CrawlConfig::default(), 3),
            crawl_graph(&CrawlConfig::default(), 3)
        );
    }

    #[test]
    #[should_panic(expected = "at least two crawled users")]
    fn rejects_tiny_core() {
        crawl_graph(
            &CrawlConfig {
                crawled_users: 1,
                ..Default::default()
            },
            1,
        );
    }
}
