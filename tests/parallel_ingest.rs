//! Bit-identity and failure-path tests for the batched container decode:
//! `BinaryFileSource` with `decode_threads`/`read_ahead` must produce the
//! **same chunk sequence and the same `StreamStats`** as the sequential
//! configuration at every thread count × read-ahead × block size × chunk
//! size, drive streaming partitioners to identical assignments, and fail a
//! corrupt, truncated or over-long container after delivering exactly the
//! sequential pass's edges, with the same typed `ParseError` at the same
//! absolute byte offset — no panic, no deadlock.

use cutfit::graph::io::ParseError;
use cutfit::graph::source::{materialize, GraphSource, StreamStats};
use cutfit::graph::types::PartId;
use cutfit::graph::{binfmt, BinaryFileSource};
use cutfit::partition::all_partitioners;
use cutfit::prelude::*;
use cutfit::util::exec::with_shard_permutation;
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

    /// The acceptance grid: thread counts {1, 2, 4, 4 replayed under
    /// `with_shard_permutation`} × read-ahead {0, 1, 3, 4, 64} × block sizes
    /// {3, 64, default} × chunk sizes {1, 7, 64 Ki} — a batch of one block,
    /// a batch that does not divide the block count, and one wider than the
    /// file. Chunk sequences are bit-identical to the sequential path
    /// everywhere; `StreamStats` is a pure function of (data, chunk,
    /// read_ahead) — identical across thread counts, and equal to the
    /// sequential stats at a batch of one.
    #[test]
    fn parallel_decode_grid_is_bit_identical(graph in arb_graph()) {
        let dir = scratch_dir("grid");
        let path = dir.join("g.cfb");
        for block in [3u32, 64, binfmt::DEFAULT_BLOCK_EDGES] {
            write_container(&graph, &path, block);
            let base = BinaryFileSource::open(&path).unwrap();
            for chunk in [1usize, 7, 1 << 16] {
                let (seq_chunks, seq_stats) = collect_chunks(&base, chunk);
                for read_ahead in [0usize, 1, 3, 4, 64] {
                    let mut wide: Option<StreamStats> = None;
                    for threads in [1usize, 2, 4] {
                        let (c, s) = collect_chunks(
                            &base.clone().with_decode_threads(threads).with_read_ahead(read_ahead),
                            chunk,
                        );
                        prop_assert_eq!(
                            &c, &seq_chunks,
                            "block={} chunk={} read_ahead={} threads={}", block, chunk, read_ahead, threads
                        );
                        // A batch of one: stats equal the sequential stats
                        // exactly (residency peak included).
                        if read_ahead <= 1 {
                            prop_assert_eq!(s, seq_stats);
                        }
                        match wide {
                            None => wide = Some(s),
                            Some(first) => prop_assert_eq!(
                                s, first,
                                "stats vary with thread count at block={} chunk={} read_ahead={}",
                                block, chunk, read_ahead
                            ),
                        }
                    }
                    // The four-thread cell once more, its decode shards
                    // replayed on this thread in a seeded order.
                    let (c, s) = with_shard_permutation(read_ahead as u64, || {
                        collect_chunks(
                            &base.clone().with_decode_threads(4).with_read_ahead(read_ahead),
                            chunk,
                        )
                    });
                    prop_assert_eq!(&c, &seq_chunks, "permuted at read_ahead={}", read_ahead);
                    prop_assert_eq!(Some(s), wide);
                    // Peak residency is bounded by the declared batch, never
                    // O(E): read_ahead × block beside the chunk buffer.
                    let declared = (read_ahead.max(1) as u64 * block as u64).min(graph.num_edges());
                    let bound = (chunk as u64 + declared) * std::mem::size_of::<Edge>() as u64;
                    let peak = wide.unwrap().peak_resident_edge_bytes;
                    prop_assert!(
                        peak <= bound,
                        "peak {} exceeds window bound {} at block={} chunk={} read_ahead={}",
                        peak, bound, block, chunk, read_ahead
                    );
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Streaming partitioners consuming the multi-threaded source produce the
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

/// Fails the pass over `path` in the sequential configuration and at every
/// read-ahead {1, 2, 3, 64} × decode threads {1, 2, 4}: each configuration
/// must deliver exactly the edges the sequential one delivers, and fail
/// with the same error at the same offset. Returns the sequential outcome.
fn fails_like_sequential(path: &std::path::Path, chunk: usize) -> (Vec<Edge>, ParseError) {
    let open = || BinaryFileSource::open(path).unwrap();
    let failed_pass = |source: BinaryFileSource| {
        let mut delivered: Vec<Edge> = Vec::new();
        let err = source
            .for_each_chunk(chunk, &mut |c| delivered.extend_from_slice(c))
            .expect_err("the container must fail the pass");
        (delivered, err)
    };
    let (seq_edges, seq_err) = failed_pass(open());
    for read_ahead in [1usize, 2, 3, 64] {
        for threads in [1usize, 2, 4] {
            let source = open()
                .with_decode_threads(threads)
                .with_read_ahead(read_ahead);
            let (edges, err) = failed_pass(source);
            assert_eq!(
                edges, seq_edges,
                "read_ahead={read_ahead} threads={threads}"
            );
            assert_eq!(
                format!("{err:?}"),
                format!("{seq_err:?}"),
                "read_ahead={read_ahead} threads={threads}"
            );
        }
    }
    (seq_edges, seq_err)
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
    // Every configuration delivers the sequential pass's edges, which are
    // the whole 13-edge chunks of the blocks before the corrupt one.
    let (delivered, _) = fails_like_sequential(&path, 13);
    assert_eq!(
        delivered.as_slice(),
        &graph.edges()[..healthy_prefix - healthy_prefix % 13]
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Negative tests through the source layer: a truncated last block and an
/// extra trailing block both fail the multi-threaded pass with a typed
/// error instead of silently succeeding.
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
    // The 56 edges of the seven whole blocks, in eight whole chunks, arrive
    // before the cut last frame fails the read.
    let (delivered, _) = fails_like_sequential(&path, 7);
    assert_eq!(delivered.as_slice(), &graph.edges()[..56]);

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
    // Every block is decoded; the short last chunk is never flushed.
    let (delivered, _) = fails_like_sequential(&path, 7);
    assert_eq!(delivered.as_slice(), &graph.edges()[..56]);

    // The healthy file still materializes bit-identically through the
    // multi-threaded configuration.
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
/// multi-threaded source alike.
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

/// A read-ahead beyond the file's block count is clamped to it, so the pass
/// sizes no batch from the request: a one-block container streams with the
/// sequential stats, and a many-block one exactly as at a read-ahead of its
/// block count.
#[test]
fn an_oversized_read_ahead_streams_every_edge() {
    let graph = Graph::new_unchecked(
        20,
        (0..60u64)
            .map(|i| Edge::new(i % 20, (i * 3) % 20))
            .collect::<Vec<_>>(),
    );
    let dir = scratch_dir("oversized-read-ahead");
    let path = dir.join("g.cfb");
    for (block, blocks) in [(binfmt::DEFAULT_BLOCK_EDGES, 1usize), (8, 8)] {
        write_container(&graph, &path, block);
        let open = || BinaryFileSource::open(&path).unwrap();
        for chunk in [7usize, 1 << 16] {
            let (seq_chunks, seq_stats) = collect_chunks(&open(), chunk);
            let (chunks, stats) = collect_chunks(
                &open().with_decode_threads(1).with_read_ahead(usize::MAX),
                chunk,
            );
            assert_eq!(chunks, seq_chunks, "block={block} chunk={chunk}");
            assert_eq!(chunks.concat(), graph.edges());
            let every_block = open().with_decode_threads(1).with_read_ahead(blocks);
            assert_eq!(stats, collect_chunks(&every_block, chunk).1);
            if blocks == 1 {
                assert_eq!(stats, seq_stats, "chunk={chunk}");
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
