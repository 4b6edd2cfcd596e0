//! Property and integration tests for the out-of-core graph layer: the
//! text and binary container formats must roundtrip graphs bit-identically
//! (edges, multiplicity, isolated vertices), and chunked [`GraphSource`]
//! partitioning must match the resident path for **every** partitioner at
//! every chunk size.

use std::io::BufReader;

use cutfit::graph::io::{read_edge_list, write_edge_list};
use cutfit::graph::types::PartId;
use cutfit::graph::{binfmt, source};
use cutfit::partition::all_partitioners;
use cutfit::prelude::*;
use proptest::prelude::*;

/// Small random multigraphs with self-loops, duplicate edges, and trailing
/// isolated vertices (the id range deliberately exceeds the touched ids).
fn arb_graph() -> impl Strategy<Value = Graph> {
    (2u64..200, 0usize..600).prop_flat_map(|(n, m)| {
        proptest::collection::vec((0..n, 0..n), m).prop_map(move |pairs| {
            Graph::new(n, pairs.into_iter().map(|(s, d)| Edge::new(s, d)).collect())
        })
    })
}

fn text_roundtrip(graph: &Graph) -> Graph {
    let mut buf = Vec::new();
    write_edge_list(graph, &mut buf).expect("in-memory write");
    read_edge_list(BufReader::new(buf.as_slice())).expect("own output parses")
}

fn binary_roundtrip(graph: &Graph, block_edges: u32) -> Graph {
    let mut buf = Vec::new();
    binfmt::write_binary_with(graph, &mut buf, block_edges).expect("in-memory write");
    binfmt::read_binary(buf.as_slice()).expect("own output decodes")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn text_and_binary_roundtrips_are_bit_identical(
        graph in arb_graph(),
        block in (0usize..3).prop_map(|i| [1u32, 7, 1 << 16][i]),
    ) {
        // Bit-identical: same vertex count (isolated vertices included),
        // same edge vector (order and multiplicity preserved).
        prop_assert_eq!(&text_roundtrip(&graph), &graph);
        prop_assert_eq!(&binary_roundtrip(&graph, block), &graph);
        // And chained: text -> graph -> binary -> graph.
        prop_assert_eq!(&binary_roundtrip(&text_roundtrip(&graph), block), &graph);
    }

    #[test]
    fn chunked_assignment_matches_resident_for_every_partitioner(
        graph in arb_graph(),
        num_parts in 1u32..64,
        chunk in (0usize..4).prop_map(|i| [1usize, 13, 256, usize::MAX >> 1][i]),
    ) {
        for partitioner in all_partitioners() {
            let resident = partitioner.assign_edges(&graph, num_parts);
            let mut streamed: Vec<PartId> = Vec::new();
            let mut edges_seen = 0u64;
            let stats = partitioner
                .assign_source(&graph, num_parts, chunk, &mut |es, ps| {
                    assert_eq!(es.len(), ps.len());
                    edges_seen += es.len() as u64;
                    streamed.extend_from_slice(ps);
                })
                .expect("in-memory source cannot fail");
            prop_assert_eq!(&streamed, &resident, "{} chunk={}", partitioner.name(), chunk);
            prop_assert_eq!(stats.edges, graph.num_edges());
            prop_assert_eq!(edges_seen, graph.num_edges());
        }
    }
}

/// The full datagen catalogue (every profile family: social, crawl, road,
/// RMAT) roundtrips through both formats and the streaming sources,
/// preserving edges, multiplicity, and the isolated-vertex count.
#[test]
fn every_datagen_profile_roundtrips_through_every_path() {
    let dir = std::env::temp_dir().join(format!("cutfit-ooc-profiles-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for profile in cutfit::datagen::DatasetProfile::all() {
        let graph = profile.generate(0.0005, 42);
        assert_eq!(text_roundtrip(&graph), graph, "{}", profile.name);
        assert_eq!(binary_roundtrip(&graph, 4096), graph, "{}", profile.name);

        // File-backed sources materialize the same graph.
        let text_path = dir.join("g.txt");
        let bin_path = dir.join("g.cfb");
        let mut w = std::io::BufWriter::new(std::fs::File::create(&text_path).unwrap());
        write_edge_list(&graph, &mut w).unwrap();
        drop(w);
        binfmt::write_binary_file(&graph, &bin_path).unwrap();
        let text_src = cutfit::graph::TextFileSource::open(&text_path).unwrap();
        let bin_src = cutfit::graph::BinaryFileSource::open(&bin_path).unwrap();
        assert_eq!(
            source::materialize(&text_src).unwrap(),
            graph,
            "{}",
            profile.name
        );
        assert_eq!(
            source::materialize(&bin_src).unwrap(),
            graph,
            "{}",
            profile.name
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A binary-backed streamed sweep is bit-identical to the resident sweep
/// while keeping only O(chunk) edge bytes resident.
#[test]
fn binary_backed_sweep_is_identical_and_bounded() {
    let graph = cutfit::datagen::DatasetProfile::youtube().generate(0.002, 11);
    let dir = std::env::temp_dir().join(format!("cutfit-ooc-sweep-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("g.cfb");
    let chunk = 1 << 9;
    // Block size bounds the decode buffer; match it to the chunk so peak
    // residency is O(chunk) even on this test-sized graph.
    let w = std::fs::File::create(&path).unwrap();
    binfmt::write_binary_with(&graph, std::io::BufWriter::new(w), chunk as u32).unwrap();
    let source = cutfit::graph::BinaryFileSource::open(&path).unwrap();

    let strategies = GraphXStrategy::all();
    let resident = cutfit::partition::sweep_metrics(&graph, &strategies, 16, 1);
    let (streamed, stats) =
        cutfit::partition::sweep_metrics_source(&source, &strategies, 16, chunk, 1).unwrap();
    assert_eq!(streamed, resident);
    assert_eq!(stats.edges, graph.num_edges());
    let resident_bytes = graph.num_edges() * std::mem::size_of::<Edge>() as u64;
    assert!(
        stats.peak_resident_edge_bytes < resident_bytes,
        "streamed peak {} must undercut resident {}",
        stats.peak_resident_edge_bytes,
        resident_bytes
    );
    // The bounded-memory bar: once the graph holds eight chunks, the chunk
    // and the one decoded block beside it are a quarter of it at most.
    assert!(graph.num_edges() >= 8 * chunk as u64);
    assert!(
        stats.peak_resident_edge_bytes * 4 <= resident_bytes,
        "streamed sweep must keep >= 4x fewer edge bytes resident: peak {} vs resident {}",
        stats.peak_resident_edge_bytes,
        resident_bytes
    );
    std::fs::remove_dir_all(&dir).ok();
}
