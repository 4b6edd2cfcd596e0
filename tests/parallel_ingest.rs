//! Bit-identity and failure-path tests for the parallel container decode
//! pipeline: `BinaryFileSource` with `decode_threads`/`read_ahead` must
//! produce the **same chunk sequence and the same `StreamStats`** as the
//! sequential path at every thread count × block size × chunk size, drive
//! streaming partitioners to identical assignments, and surface a corrupt
//! block from a worker thread as a typed `ParseError` with the correct
//! absolute byte offset — no panic, no deadlock.

use cutfit::graph::io::ParseError;
use cutfit::graph::source::{materialize, GraphSource, StreamStats};
use cutfit::graph::types::PartId;
use cutfit::graph::{binfmt, BinaryFileSource};
use cutfit::partition::all_partitioners;
use cutfit::prelude::*;
use proptest::prelude::*;

/// Small random multigraphs with self-loops, duplicate edges, and trailing
/// isolated vertices.
fn arb_graph() -> impl Strategy<Value = Graph> {
    (2u64..150, 0usize..500).prop_flat_map(|(n, m)| {
        proptest::collection::vec((0..n, 0..n), m).prop_map(move |pairs| {
            Graph::new(n, pairs.into_iter().map(|(s, d)| Edge::new(s, d)).collect())
        })
    })
}

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("cutfit-par-ingest-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn write_container(graph: &Graph, path: &std::path::Path, block_edges: u32) {
    let w = std::io::BufWriter::new(std::fs::File::create(path).unwrap());
    binfmt::write_binary_with(graph, w, block_edges).unwrap();
}

fn collect_chunks(src: &dyn GraphSource, chunk: usize) -> (Vec<Vec<Edge>>, StreamStats) {
    let mut out = Vec::new();
    let stats = src
        .for_each_chunk(chunk, &mut |c| out.push(c.to_vec()))
        .expect("healthy container streams cleanly");
    (out, stats)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The acceptance grid: thread counts {1, 2, 4} × block sizes
    /// {3, 64, default} × chunk sizes {1, 7, 64 Ki}. Chunk sequences are
    /// bit-identical to the sequential path everywhere; `StreamStats` is a
    /// pure function of (data, chunk, read_ahead) — identical across
    /// thread counts, and equal to the sequential stats at window 1.
    #[test]
    fn parallel_decode_grid_is_bit_identical(graph in arb_graph()) {
        let dir = scratch_dir("grid");
        let path = dir.join("g.cfb");
        for block in [3u32, 64, binfmt::DEFAULT_BLOCK_EDGES] {
            write_container(&graph, &path, block);
            let base = BinaryFileSource::open(&path).unwrap();
            for chunk in [1usize, 7, 1 << 16] {
                let (seq_chunks, seq_stats) = collect_chunks(&base, chunk);
                let mut wide: Option<StreamStats> = None;
                for threads in [1usize, 2, 4] {
                    // Window 1: pipelined stats must equal sequential
                    // stats exactly (residency peak included).
                    let (c, s) = collect_chunks(
                        &base.clone().with_decode_threads(threads),
                        chunk,
                    );
                    if threads > 1 {
                        prop_assert_eq!(&c, &seq_chunks);
                        prop_assert_eq!(s, seq_stats);
                    }
                    // Window 4: same chunks, stats invariant across
                    // thread counts.
                    let (c, s) = collect_chunks(
                        &base.clone().with_decode_threads(threads).with_read_ahead(4),
                        chunk,
                    );
                    prop_assert_eq!(&c, &seq_chunks, "block={} chunk={} threads={}", block, chunk, threads);
                    match wide {
                        None => wide = Some(s),
                        Some(first) => prop_assert_eq!(
                            s, first,
                            "stats vary with thread count at block={} chunk={}", block, chunk
                        ),
                    }
                }
                // Peak residency is bounded by the declared window, never
                // O(E): window × block beside the chunk buffer.
                let declared = (4 * block as u64).min(graph.num_edges());
                let bound = (chunk as u64 + declared) * std::mem::size_of::<Edge>() as u64;
                let peak = wide.unwrap().peak_resident_edge_bytes;
                prop_assert!(
                    peak <= bound,
                    "peak {} exceeds window bound {} at block={} chunk={}",
                    peak, bound, block, chunk
                );
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Streaming partitioners consuming the pipelined source produce the
    /// same assignments as the resident path — decode parallelism is
    /// invisible downstream.
    #[test]
    fn partitioner_assignments_survive_parallel_decode(
        graph in arb_graph(),
        num_parts in 1u32..32,
    ) {
        let dir = scratch_dir("assign");
        let path = dir.join("g.cfb");
        write_container(&graph, &path, 64);
        let source = BinaryFileSource::open(&path)
            .unwrap()
            .with_decode_threads(4)
            .with_read_ahead(4);
        for partitioner in all_partitioners() {
            let resident = partitioner.assign_edges(&graph, num_parts);
            let mut streamed: Vec<PartId> = Vec::new();
            partitioner
                .assign_source(&source, num_parts, 128, &mut |_, ps| {
                    streamed.extend_from_slice(ps);
                })
                .expect("healthy container assigns cleanly");
            prop_assert_eq!(&streamed, &resident, "{}", partitioner.name());
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Byte offsets of every block frame in a container file, via the raw
/// (no-decode) reader.
fn block_frames(bytes: &[u8]) -> Vec<binfmt::RawBlock> {
    let mut reader = binfmt::RawBlockReader::new(bytes).unwrap();
    let mut frames = Vec::new();
    while let Some(b) = reader.next_block().unwrap() {
        frames.push(b);
    }
    frames
}

/// A corrupt checksum in a *middle* block must propagate out of a decode
/// worker as `ParseError::ChecksumMismatch` with the correct absolute byte
/// offset, after delivering exactly the blocks that precede it — no panic,
/// no deadlock, no partial garbage.
#[test]
fn corrupt_middle_block_error_escapes_the_worker_with_its_offset() {
    let graph = Graph::new_unchecked(
        50,
        (0..200u64)
            .map(|i| Edge::new(i % 50, (i * 7) % 50))
            .collect::<Vec<_>>(),
    );
    let mut bytes = Vec::new();
    binfmt::write_binary_with(&graph, &mut bytes, 16).unwrap();
    let frames = block_frames(&bytes);
    assert!(frames.len() > 4, "need a genuine middle block");
    let victim = &frames[frames.len() / 2];
    // Flip one payload byte; the stored checksum sits right after the
    // payload, at frame offset + 8-byte frame header + payload length.
    let payload_at = victim.offset as usize + 8;
    bytes[payload_at] ^= 0xff;
    let checksum_at = victim.offset + 8 + victim.payload.len() as u64;

    let dir = scratch_dir("corrupt");
    let path = dir.join("bad.cfb");
    std::fs::write(&path, &bytes).unwrap();
    let source = BinaryFileSource::open(&path)
        .unwrap()
        .with_decode_threads(4)
        .with_read_ahead(4);

    let mut delivered: Vec<Edge> = Vec::new();
    let err = source
        .for_each_chunk(13, &mut |c| delivered.extend_from_slice(c))
        .expect_err("corrupt block must fail the pass");
    match err {
        ParseError::ChecksumMismatch {
            offset,
            stored,
            computed,
        } => {
            assert_eq!(offset, checksum_at, "offset must be the stored checksum's");
            assert_ne!(stored, computed);
        }
        other => panic!("expected ChecksumMismatch, got {other:?}"),
    }
    // In-order delivery: everything the sink saw is a prefix of the edge
    // list strictly before the corrupt block.
    let healthy_prefix = (frames.len() / 2) * 16;
    assert!(delivered.len() <= healthy_prefix);
    assert_eq!(delivered.as_slice(), &graph.edges()[..delivered.len()]);
    std::fs::remove_dir_all(&dir).ok();
}

/// Satellite 1 negative tests through the source layer: a truncated last
/// block and an extra trailing block both fail the pipelined pass with a
/// typed error instead of silently succeeding.
#[test]
fn truncated_and_trailing_containers_fail_typed_through_the_pipeline() {
    let graph = Graph::new_unchecked(
        20,
        (0..60u64)
            .map(|i| Edge::new(i % 20, (i * 3) % 20))
            .collect::<Vec<_>>(),
    );
    let mut bytes = Vec::new();
    binfmt::write_binary_with(&graph, &mut bytes, 8).unwrap();
    let frames = block_frames(&bytes);
    let dir = scratch_dir("negative");

    // Truncated last block: chop into the final frame's checksum.
    let truncated = &bytes[..bytes.len() - 4];
    let path = dir.join("trunc.cfb");
    std::fs::write(&path, truncated).unwrap();
    let source = BinaryFileSource::open(&path)
        .unwrap()
        .with_decode_threads(2)
        .with_read_ahead(2);
    let err = source
        .for_each_chunk(7, &mut |_| {})
        .expect_err("truncated container must fail");
    assert!(
        matches!(err, ParseError::Truncated { .. }),
        "expected Truncated, got {err:?}"
    );

    // Extra trailing block: append a copy of the last frame, so the block
    // edge_count sum exceeds the header's num_edges.
    let last = frames.last().unwrap();
    let mut extra = bytes.clone();
    extra.extend_from_slice(&bytes[last.offset as usize..]);
    let path = dir.join("extra.cfb");
    std::fs::write(&path, &extra).unwrap();
    let source = BinaryFileSource::open(&path)
        .unwrap()
        .with_decode_threads(2)
        .with_read_ahead(2);
    let err = source
        .for_each_chunk(7, &mut |_| {})
        .expect_err("trailing block must fail");
    assert!(
        matches!(err, ParseError::Corrupt { .. }),
        "expected Corrupt, got {err:?}"
    );

    // The healthy file still materializes bit-identically through the
    // pipelined configuration.
    let path = dir.join("ok.cfb");
    std::fs::write(&path, &bytes).unwrap();
    let source = BinaryFileSource::open(&path)
        .unwrap()
        .with_decode_threads(4)
        .with_read_ahead(8);
    assert_eq!(materialize(&source).unwrap(), graph);
    std::fs::remove_dir_all(&dir).ok();
}

/// A frame header declaring 1 edge and `u32::MAX` payload bytes is refused
/// from its eight bytes — `Corrupt` at the frame's offset, before the
/// payload buffer is allocated — by the sequential reader and by the
/// pipelined source alike.
#[test]
fn oversized_payload_declaration_fails_typed_on_both_paths() {
    let graph = Graph::new_unchecked(
        20,
        (0..60u64)
            .map(|i| Edge::new(i % 20, (i * 3) % 20))
            .collect::<Vec<_>>(),
    );
    let mut bytes = Vec::new();
    binfmt::write_binary_with(&graph, &mut bytes, 8).unwrap();
    let frames = block_frames(&bytes);
    let victim = frames[frames.len() / 2].offset;
    let at = victim as usize;
    bytes[at..at + 4].copy_from_slice(&1u32.to_le_bytes());
    bytes[at + 4..at + 8].copy_from_slice(&u32::MAX.to_le_bytes());
    let refused = |err: ParseError| match err {
        ParseError::Corrupt { offset, what } => {
            assert_eq!(offset, victim, "{what}");
            assert!(what.contains("payload bytes"), "{what}");
        }
        other => panic!("expected Corrupt, got {other:?}"),
    };

    refused(binfmt::read_binary(&bytes[..]).unwrap_err());

    let dir = scratch_dir("oversized");
    let path = dir.join("lie.cfb");
    std::fs::write(&path, &bytes).unwrap();
    for (threads, read_ahead) in [(1, 1), (4, 4)] {
        let source = BinaryFileSource::open(&path)
            .unwrap()
            .with_decode_threads(threads)
            .with_read_ahead(read_ahead);
        let mut delivered: Vec<Edge> = Vec::new();
        let err = source
            .for_each_chunk(7, &mut |c| delivered.extend_from_slice(c))
            .expect_err("the lying frame must fail the pass");
        refused(err);
        assert_eq!(delivered.as_slice(), &graph.edges()[..delivered.len()]);
    }
    std::fs::remove_dir_all(&dir).ok();
}
