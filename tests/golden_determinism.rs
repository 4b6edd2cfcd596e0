//! Golden determinism tests: generated datasets are pinned to exact edge
//! checksums. The workspace promises that recorded seeds stay valid forever
//! (hand-rolled PRNG, no dependency on external crate versions); these
//! constants make any accidental change to a generator, to the PRNG, or to
//! the hash functions a loud test failure instead of a silent drift of all
//! experiment results.
//!
//! If you change a generator *on purpose*, regenerate the constants: print
//! `edge_checksum` of each profile at scale 0.002, seed 42, and paste the
//! counts and checksums into `GOLDEN`.

use cutfit::prelude::*;
use cutfit::util::hash::hash_pair;

/// Order-independent-ish fold over the edge multiset (XOR of keyed hashes).
fn edge_checksum(g: &Graph) -> u64 {
    g.edges().iter().fold(0u64, |acc, e| {
        acc ^ hash_pair(e.src, e.dst)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left((e.src % 63) as u32)
    })
}

const GOLDEN: [(&str, u64, u64, u64); 9] = [
    ("RoadNet-PA", 2153, 5856, 0x452864b2a063f088),
    ("YouTube", 2270, 5946, 0x7cd765750c693841),
    ("RoadNet-TX", 2748, 7498, 0x4eabcb644cae733),
    ("Pocek", 3266, 48730, 0x36d0bba7ca62b382),
    ("RoadNet-CA", 3914, 10734, 0x8388acc957eb7069),
    ("Orkut", 6145, 234296, 0x34ca334823f1a5ee),
    ("socLiveJournal", 9695, 122545, 0x633cf21567bb1ea3),
    ("follow-jul", 33047, 229156, 0x6ff51d0dd4acf081),
    ("follow-dec", 52355, 373138, 0x97c90e9c1e8966c3),
];

#[test]
fn generated_datasets_match_golden_checksums() {
    for (name, vertices, edges, checksum) in GOLDEN {
        let profile = DatasetProfile::by_name(name).expect("known profile");
        let g = profile.generate(0.002, 42);
        assert_eq!(g.num_vertices(), vertices, "{name}: vertex count drifted");
        assert_eq!(g.num_edges(), edges, "{name}: edge count drifted");
        assert_eq!(
            edge_checksum(&g),
            checksum,
            "{name}: edge content drifted — generator, PRNG, or hash changed"
        );
    }
}

#[test]
fn partitioning_of_golden_graph_is_pinned() {
    // One partitioning fingerprint on top: catches changes to the hash
    // partitioners themselves.
    let g = DatasetProfile::pocek().generate(0.002, 42);
    let mut acc = 0u64;
    for strategy in GraphXStrategy::all() {
        for (i, p) in strategy.assign_edges(&g, 128).into_iter().enumerate() {
            acc = acc
                .rotate_left(7)
                .wrapping_add(hash_pair(i as u64, p as u64));
        }
    }
    // Pinned on first recording; to re-pin, print `acc` and paste it here.
    assert_eq!(acc, 0xbbf8051c6de9c0bd);
}

/// The engine's parallel shuffle/apply AND its frontier-driven sparse scan
/// path must be *metering-identical* to the sequential dense sweep: not
/// just the same vertex states but the same [`SimReport`] bit for bit, for
/// every partitioning strategy × executor mode × forced scan shape, for both a
/// fixed-size-state program (PageRank) and a variable-size-state program
/// (SSSP, which also exercises the incremental residency deltas and, being
/// a converging frontier algorithm, actually takes the sparse path when
/// the engine chooses the shape itself).
#[test]
fn executors_are_bit_identical_across_modes_on_all_strategies() {
    use cutfit::algorithms::{pagerank, sssp, Sssp};
    use cutfit::engine::pregel::{with_scan_mode, ScanMode};

    let g = DatasetProfile::youtube().generate(0.002, 42);
    let cluster = ClusterConfig::paper_cluster();
    let modes = [
        (ExecutorMode::Sequential, ScanMode::Dense),
        (ExecutorMode::Sequential, ScanMode::Auto),
        // Pool entry with one shard covering every partition.
        (ExecutorMode::Parallel { threads: 1 }, ScanMode::Auto),
        // Uneven shards (16 partitions → 6/6/4): sparse touched lists
        // straddle shard boundaries.
        (ExecutorMode::Parallel { threads: 3 }, ScanMode::Sparse),
        (ExecutorMode::Parallel { threads: 3 }, ScanMode::Auto),
        (ExecutorMode::Parallel { threads: 4 }, ScanMode::Dense),
        (ExecutorMode::Parallel { threads: 4 }, ScanMode::Auto),
        (ExecutorMode::Auto, ScanMode::Sparse),
        (ExecutorMode::Auto, ScanMode::Auto),
    ];
    let landmarks = Sssp::pick_landmarks(g.num_vertices(), 3, 7);

    for strategy in GraphXStrategy::all() {
        let pg = strategy.partition(&g, 16);

        let pr: Vec<_> = modes
            .iter()
            .map(|&(executor, scan_mode)| {
                let opts = PregelConfig {
                    executor,
                    ..Default::default()
                };
                with_scan_mode(scan_mode, || pagerank(&pg, &cluster, 5, &opts))
                    .expect("fits in memory")
            })
            .collect();
        for r in &pr[1..] {
            assert_eq!(pr[0].states, r.states, "{strategy}: PR states drifted");
            assert_eq!(pr[0].sim, r.sim, "{strategy}: PR metering drifted");
            assert_eq!(pr[0].supersteps, r.supersteps, "{strategy}");
        }

        let sp: Vec<_> = modes
            .iter()
            .map(|&(executor, scan_mode)| {
                let opts = PregelConfig {
                    executor,
                    ..Default::default()
                };
                with_scan_mode(scan_mode, || {
                    sssp(&pg, &cluster, landmarks.clone(), 10_000, &opts)
                })
                .expect("fits in memory")
            })
            .collect();
        for r in &sp[1..] {
            assert_eq!(sp[0].states, r.states, "{strategy}: SSSP states drifted");
            assert_eq!(sp[0].sim, r.sim, "{strategy}: SSSP metering drifted");
            assert_eq!(sp[0].supersteps, r.supersteps, "{strategy}");
        }
    }
}
