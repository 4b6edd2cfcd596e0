//! Bounded-memory edge streaming over heterogeneous graph storage.
//!
//! [`GraphSource`] abstracts "iterate the edges in bounded-size chunks"
//! over an in-memory [`Graph`], a text edge-list file, and the binary
//! container ([`crate::binfmt`]). Consumers that only need one ordered
//! pass — the partition sweep, degree counting, metrics accumulation —
//! run against `&dyn GraphSource` and never learn whether the edges were
//! resident or streamed off disk.
//!
//! Chunk boundaries are **deterministic**: every source delivers exactly
//! `chunk_edges` edges per chunk (the last chunk may be short), in the
//! same edge order the underlying storage defines. That determinism is
//! what lets stateful streaming partitioners (Greedy, HDRF) produce
//! bit-identical assignments whether they consume a resident `Vec<Edge>`
//! or a file — the chunked path is the same sequence, just delivered in
//! installments.
//!
//! Each pass reports [`StreamStats`], including
//! `peak_resident_edge_bytes`: the high-water mark of decoded edge bytes
//! held in memory at once. For the in-memory source that is the whole
//! edge list; for the file-backed sources it is O(chunk + block), which is
//! the measurable claim behind the out-of-core layer (`benchmark/` pins it
//! as `graph.source.peak_resident_bytes`).

use std::fs::File;
use std::io::BufReader;
use std::mem::size_of;
use std::path::{Path, PathBuf};

use crate::binfmt::{self, BinHeader};
use crate::graph::Graph;
use crate::io::{scan_edge_list, ParseError};
use crate::types::Edge;
use cutfit_util::exec::{fill_chunks, resolve_threads};

/// Facts from one streaming pass over a source.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Edges delivered to the sink.
    pub edges: u64,
    /// Chunks delivered (`ceil(edges / chunk_edges)`).
    pub chunks: u64,
    /// High-water mark of decoded `Edge` bytes resident at once during the
    /// pass — the whole edge list for [`Graph`], O(chunk + block) for the
    /// file-backed sources.
    pub peak_resident_edge_bytes: u64,
}

/// A graph whose edges can be iterated in bounded-size chunks, repeatedly.
///
/// Implementations must deliver the same edges in the same order on every
/// pass, sliced into chunks of exactly `chunk_edges` (final chunk may be
/// short). Object safe: pipeline code takes `&dyn GraphSource`.
pub trait GraphSource {
    /// Authoritative vertex count (IDs are `< num_vertices`).
    fn num_vertices(&self) -> u64;

    /// Total edges the source will deliver per pass.
    fn num_edges(&self) -> u64;

    /// Streams every edge through `sink` in order, `chunk_edges` at a time
    /// (clamped to ≥ 1).
    fn for_each_chunk(
        &self,
        chunk_edges: usize,
        sink: &mut dyn FnMut(&[Edge]),
    ) -> Result<StreamStats, ParseError>;
}

const EDGE_BYTES: u64 = size_of::<Edge>() as u64;

/// Edges buffered per [`TextFileSource`] flush: parsed edges are handed to
/// the chunker in runs of this size instead of one virtual call per edge.
const TEXT_BATCH: usize = 256;

/// Re-slices arbitrarily sized incoming edge runs into exact
/// `chunk_edges` chunks, tracking [`StreamStats`] as it goes. Shared by
/// the file-backed sources so their chunk boundaries match the in-memory
/// source edge-for-edge.
struct Chunker<'a> {
    buf: Vec<Edge>,
    chunk_edges: usize,
    sink: &'a mut dyn FnMut(&[Edge]),
    stats: StreamStats,
}

impl<'a> Chunker<'a> {
    fn new(chunk_edges: usize, sink: &'a mut dyn FnMut(&[Edge])) -> Self {
        let chunk_edges = chunk_edges.max(1);
        Chunker {
            // Cap the eager allocation: a huge `chunk_edges` (e.g.
            // `materialize`'s usize::MAX) means "one chunk", and the buffer
            // grows to fit organically.
            buf: Vec::with_capacity(chunk_edges.min(1 << 16)),
            chunk_edges,
            sink,
            stats: StreamStats::default(),
        }
    }

    /// Notes `extra` decoder-side resident edge bytes (e.g. the binary
    /// block buffer) against the high-water mark.
    fn note_resident(&mut self, extra: u64) {
        let resident = self.buf.capacity() as u64 * EDGE_BYTES + extra;
        self.stats.peak_resident_edge_bytes = self.stats.peak_resident_edge_bytes.max(resident);
    }

    fn push_run(&mut self, mut run: &[Edge]) {
        while !run.is_empty() {
            let take = (self.chunk_edges - self.buf.len()).min(run.len());
            self.buf.extend_from_slice(&run[..take]);
            run = &run[take..];
            if self.buf.len() == self.chunk_edges {
                self.flush();
            }
        }
    }

    fn flush(&mut self) {
        if self.buf.is_empty() {
            return;
        }
        self.note_resident(0);
        self.stats.edges += self.buf.len() as u64;
        self.stats.chunks += 1;
        (self.sink)(&self.buf);
        self.buf.clear();
    }

    fn finish(mut self) -> StreamStats {
        self.flush();
        self.stats
    }
}

/// The in-memory edge list is already chunk-addressable: chunks are slices
/// of the resident `Vec<Edge>`, and the peak resident footprint is, by
/// definition, the entire edge list.
impl GraphSource for Graph {
    fn num_vertices(&self) -> u64 {
        Graph::num_vertices(self)
    }

    fn num_edges(&self) -> u64 {
        Graph::num_edges(self)
    }

    fn for_each_chunk(
        &self,
        chunk_edges: usize,
        sink: &mut dyn FnMut(&[Edge]),
    ) -> Result<StreamStats, ParseError> {
        let chunk_edges = chunk_edges.max(1);
        let mut stats = StreamStats {
            peak_resident_edge_bytes: Graph::num_edges(self) * EDGE_BYTES,
            ..StreamStats::default()
        };
        for chunk in self.edges().chunks(chunk_edges) {
            stats.edges += chunk.len() as u64;
            stats.chunks += 1;
            sink(chunk);
        }
        Ok(stats)
    }
}

/// A text edge-list file streamed through the zero-copy byte parser. One
/// scan pass at `open` learns the vertex/edge counts; each `for_each_chunk`
/// pass re-reads the file, holding only the current chunk resident.
#[derive(Debug, Clone)]
pub struct TextFileSource {
    path: PathBuf,
    num_vertices: u64,
    num_edges: u64,
}

impl TextFileSource {
    /// Opens and scans `path` (one full counting pass, no edge storage).
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Self, ParseError> {
        let path = path.as_ref().to_path_buf();
        let reader = BufReader::new(File::open(&path).map_err(ParseError::Io)?);
        let scan = scan_edge_list(reader, &mut |_, _| {})?;
        Ok(TextFileSource {
            path,
            num_vertices: scan.num_vertices(),
            num_edges: scan.edges,
        })
    }
}

impl GraphSource for TextFileSource {
    fn num_vertices(&self) -> u64 {
        self.num_vertices
    }

    fn num_edges(&self) -> u64 {
        self.num_edges
    }

    fn for_each_chunk(
        &self,
        chunk_edges: usize,
        sink: &mut dyn FnMut(&[Edge]),
    ) -> Result<StreamStats, ParseError> {
        let reader = BufReader::new(File::open(&self.path).map_err(ParseError::Io)?);
        let mut chunker = Chunker::new(chunk_edges, sink);
        // Parsed edges accumulate in a small fixed batch so the chunker
        // sees runs (one bounds check + memcpy per batch) instead of one
        // virtual call per edge. The batch is charged against the resident
        // high-water mark at its full capacity, keeping stats independent
        // of where the final short batch lands.
        let mut batch: Vec<Edge> = Vec::with_capacity(TEXT_BATCH);
        scan_edge_list(reader, &mut |s, d| {
            batch.push(Edge::new(s, d));
            if batch.len() == TEXT_BATCH {
                chunker.note_resident(TEXT_BATCH as u64 * EDGE_BYTES);
                chunker.push_run(&batch);
                batch.clear();
            }
        })?;
        if !batch.is_empty() {
            chunker.note_resident(TEXT_BATCH as u64 * EDGE_BYTES);
            chunker.push_run(&batch);
        }
        let stats = chunker.finish();
        if stats.edges != self.num_edges {
            return Err(ParseError::Corrupt {
                offset: 0,
                what: format!(
                    "text source changed between passes: scanned {} edges, streamed {}",
                    self.num_edges, stats.edges
                ),
            });
        }
        Ok(stats)
    }
}

/// A binary container file ([`crate::binfmt`]) streamed block-by-block and
/// re-sliced to the caller's chunk size. Header is validated at `open`;
/// block checksums are validated on every pass.
///
/// Each pass is one loop over batches: read up to
/// [`read_ahead`](Self::with_read_ahead) raw blocks (at least one, at most
/// the file's block count), decode them on
/// [`decode_threads`](Self::with_decode_threads) `fill_chunks` shards, and
/// deliver them in frame order. Chunk sequences and [`StreamStats`] are
/// **bit-identical across thread counts**: delivery is in frame order, and
/// peak residency is accounted from the declared batch capacity
/// (`read_ahead.max(1)` blocks), never from observed timing.
#[derive(Debug, Clone)]
pub struct BinaryFileSource {
    path: PathBuf,
    header: BinHeader,
    file_bytes: u64,
    decode_threads: usize,
    read_ahead: usize,
}

impl BinaryFileSource {
    /// Opens `path` and validates the container header. Decoding defaults
    /// to one block per batch on the calling thread (`decode_threads = 1`,
    /// `read_ahead = 0`).
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Self, ParseError> {
        let path = path.as_ref().to_path_buf();
        let file = File::open(&path).map_err(ParseError::Io)?;
        let file_bytes = file.metadata().map_err(ParseError::Io)?.len();
        let header = binfmt::read_header(&mut BufReader::new(file))?;
        // The header's checksum vouches for its bytes, not for its claims,
        // and `num_edges` sizes allocations downstream: an edge is at least
        // two payload bytes, so the file bounds it. (Frame bytes are left
        // out of the bound: a file cut inside its last frame fails where it
        // is cut, as `Truncated`.)
        if header.num_edges > file_bytes.saturating_sub(binfmt::HEADER_LEN) / 2 {
            return Err(ParseError::Corrupt {
                offset: 24,
                what: format!(
                    "header declares {} edges, more than a file of {file_bytes} bytes can hold",
                    header.num_edges
                ),
            });
        }
        Ok(BinaryFileSource {
            path,
            header,
            file_bytes,
            decode_threads: 1,
            read_ahead: 0,
        })
    }

    /// Sets the decode worker count (`0` = auto via
    /// [`resolve_threads`]): the shards each batch's blocks are decoded on.
    /// Workers are capped at the batch size, so extra threads never widen
    /// the residency bound.
    pub fn with_decode_threads(mut self, decode_threads: usize) -> Self {
        self.decode_threads = decode_threads;
        self
    }

    /// Sets the read-ahead depth: the blocks read and decoded per batch.
    /// `0` and `1` both mean one block per batch.
    pub fn with_read_ahead(mut self, read_ahead: usize) -> Self {
        self.read_ahead = read_ahead;
        self
    }

    /// Configured decode worker count (`0` = auto).
    pub fn decode_threads(&self) -> usize {
        self.decode_threads
    }

    /// Configured read-ahead depth in blocks.
    pub fn read_ahead(&self) -> usize {
        self.read_ahead
    }

    /// The validated container header.
    pub fn header(&self) -> BinHeader {
        self.header
    }

    /// On-disk size in bytes — what the session layer bills as load cost.
    pub fn file_bytes(&self) -> u64 {
        self.file_bytes
    }
}

impl GraphSource for BinaryFileSource {
    fn num_vertices(&self) -> u64 {
        self.header.num_vertices
    }

    fn num_edges(&self) -> u64 {
        self.header.num_edges
    }

    fn for_each_chunk(
        &self,
        chunk_edges: usize,
        sink: &mut dyn FnMut(&[Edge]),
    ) -> Result<StreamStats, ParseError> {
        let file = BufReader::new(File::open(&self.path).map_err(ParseError::Io)?);
        let mut reader = binfmt::RawBlockReader::new(file)?;
        let header = reader.header();
        let mut chunker = Chunker::new(chunk_edges, sink);
        // A batch is at most `window` blocks, and never more than the file
        // declares. Residency is charged per delivered block from this
        // *capacity* — `window` blocks of at most `block_edges` edges,
        // clamped to the file's total — so the reported peak is a pure
        // function of (data, chunk_edges, read_ahead) and cannot vary with
        // the worker count. The clamp leaves that figure alone: a window of
        // every block already covers `num_edges`.
        let blocks = header.num_edges.div_ceil(u64::from(header.block_edges));
        let window = self
            .read_ahead
            .min(usize::try_from(blocks).unwrap_or(usize::MAX))
            .max(1);
        let window_bytes = (window as u64)
            .saturating_mul(header.block_edges as u64)
            .min(header.num_edges)
            .saturating_mul(EDGE_BYTES);
        let workers = resolve_threads(self.decode_threads).min(window).max(1);
        let mut slots: Vec<DecodeSlot> = Vec::new();
        loop {
            // Read up to `window` frames; the reader is sequential (frames
            // are length-prefixed). Its error waits until every frame read
            // before it is delivered.
            let mut read = 0;
            let mut tail = None;
            while read < window {
                match reader.next_block() {
                    Ok(Some(block)) => {
                        if read == slots.len() {
                            slots.push(DecodeSlot::default());
                        }
                        slots[read].raw = Some(block);
                        read += 1;
                    }
                    Ok(None) => break,
                    Err(e) => {
                        tail = Some(e);
                        break;
                    }
                }
            }
            // Blocks decode independently into their slot's reused buffer,
            // each raw frame dropped once decoded; delivery is in frame
            // order, so the chunk stream and the first error are those of
            // a one-block-at-a-time loop.
            fill_chunks(&mut slots[..read], workers, |_, batch| {
                for slot in batch {
                    if let Some(block) = slot.raw.take() {
                        slot.error =
                            binfmt::decode_block_into(&header, &block, &mut slot.edges).err();
                    }
                }
            });
            for slot in &mut slots[..read] {
                if let Some(e) = slot.error.take() {
                    return Err(e);
                }
                chunker.note_resident(window_bytes);
                chunker.push_run(&slot.edges);
            }
            if let Some(e) = tail {
                return Err(e);
            }
            if read < window {
                return Ok(chunker.finish());
            }
        }
    }
}

/// One block's place in a decode batch: its raw frame until decoded, then
/// its decode error if any, and an edge buffer kept from batch to batch.
#[derive(Default)]
struct DecodeSlot {
    raw: Option<binfmt::RawBlock>,
    error: Option<ParseError>,
    edges: Vec<Edge>,
}

/// Materializes any source into a resident [`Graph`] (edge order and
/// multiplicity preserved) — the bridge back from streaming to the
/// whole-graph APIs (CSR builds, `PartitionedGraph` materialization).
pub fn materialize(source: &dyn GraphSource) -> Result<Graph, ParseError> {
    // A source's edge count is a claim until the stream has delivered it
    // ([`BinaryFileSource::open`] bounds it by the file's size): a
    // reservation the allocator refuses is a typed error, not an abort.
    let mut edges = Vec::new();
    let claimed = source.num_edges();
    if usize::try_from(claimed).map_or(true, |n| edges.try_reserve_exact(n).is_err()) {
        return Err(ParseError::Corrupt {
            offset: 0,
            what: format!("source declares {claimed} edges, more than memory can hold"),
        });
    }
    source.for_each_chunk(usize::MAX, &mut |chunk| edges.extend_from_slice(chunk))?;
    Ok(Graph::new_unchecked(source.num_vertices(), edges))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::write_edge_list;

    fn sample() -> Graph {
        Graph::new_unchecked(
            9,
            (0..20u64)
                .map(|i| Edge::new(i % 7, (i * 3) % 5))
                .collect::<Vec<_>>(),
        )
    }

    fn collect_chunks(src: &dyn GraphSource, chunk: usize) -> (Vec<Vec<Edge>>, StreamStats) {
        let mut out = Vec::new();
        let stats = src
            .for_each_chunk(chunk, &mut |c| out.push(c.to_vec()))
            .unwrap();
        (out, stats)
    }

    #[test]
    fn memory_source_chunks_are_exact_slices() {
        let g = sample();
        let (chunks, stats) = collect_chunks(&g, 6);
        assert_eq!(chunks.len(), 4, "20 edges / 6 = 4 chunks");
        assert_eq!(chunks[3].len(), 2, "short tail chunk");
        let flat: Vec<Edge> = chunks.concat();
        assert_eq!(flat, g.edges());
        assert_eq!(stats.edges, 20);
        assert_eq!(stats.chunks, 4);
        assert_eq!(stats.peak_resident_edge_bytes, 20 * EDGE_BYTES);
    }

    #[test]
    fn all_sources_agree_on_chunk_boundaries() {
        let g = sample();
        let dir = std::env::temp_dir().join("cutfit-source-agree");
        std::fs::create_dir_all(&dir).unwrap();
        let txt = dir.join("g.txt");
        let bin = dir.join("g.bin");
        write_edge_list(&g, std::io::BufWriter::new(File::create(&txt).unwrap())).unwrap();
        // Tiny blocks so re-chunking actually has to stitch across blocks.
        binfmt::write_binary_with(&g, File::create(&bin).unwrap(), 3).unwrap();

        let text = TextFileSource::open(&txt).unwrap();
        let binary = BinaryFileSource::open(&bin).unwrap();
        for src in [&g as &dyn GraphSource, &text, &binary] {
            assert_eq!(src.num_vertices(), 9);
            assert_eq!(src.num_edges(), 20);
        }
        for chunk in [1usize, 3, 7, 64] {
            let (m, _) = collect_chunks(&g, chunk);
            let (t, ts) = collect_chunks(&text, chunk);
            let (b, bs) = collect_chunks(&binary, chunk);
            assert_eq!(m, t, "text chunks at {chunk}");
            assert_eq!(m, b, "binary chunks at {chunk}");
            // File-backed passes hold O(chunk + batch/block), not O(E).
            let text_bound = (chunk.max(1) + TEXT_BATCH) as u64 * EDGE_BYTES;
            let bound = (chunk as u64 + 3) * EDGE_BYTES;
            assert!(
                ts.peak_resident_edge_bytes <= text_bound,
                "text peak {} > bound {text_bound} at chunk {chunk}",
                ts.peak_resident_edge_bytes
            );
            assert!(
                bs.peak_resident_edge_bytes <= bound,
                "binary peak {} > bound {bound} at chunk {chunk}",
                bs.peak_resident_edge_bytes
            );
        }
        std::fs::remove_file(&txt).unwrap();
        std::fs::remove_file(&bin).unwrap();
    }

    #[test]
    fn materialize_roundtrips_through_every_source() {
        let g = sample();
        let dir = std::env::temp_dir().join("cutfit-source-materialize");
        std::fs::create_dir_all(&dir).unwrap();
        let bin = dir.join("g.bin");
        binfmt::write_binary_file(&g, &bin).unwrap();
        let back = materialize(&BinaryFileSource::open(&bin).unwrap()).unwrap();
        assert_eq!(back.num_vertices(), g.num_vertices());
        assert_eq!(back.edges(), g.edges());
        let resident = materialize(&g).unwrap();
        assert_eq!(resident.edges(), g.edges());
        std::fs::remove_file(&bin).unwrap();
    }

    #[test]
    fn open_refuses_an_edge_count_the_file_cannot_hold() {
        let g = sample();
        let dir = std::env::temp_dir().join("cutfit-source-header-lie");
        std::fs::create_dir_all(&dir).unwrap();
        let bin = dir.join("g.bin");
        let mut bytes = Vec::new();
        binfmt::write_binary_with(&g, &mut bytes, 3).unwrap();
        let honest = bytes.len() as u64;
        // One edge more than the file has room for, checksum recomputed: the
        // header is internally consistent and still a lie.
        let room = (honest - binfmt::HEADER_LEN) / 2;
        bytes[24..32].copy_from_slice(&(room + 1).to_le_bytes());
        let check = binfmt::fnv1a64(&bytes[..32]);
        bytes[32..40].copy_from_slice(&check.to_le_bytes());
        std::fs::write(&bin, &bytes).unwrap();
        match BinaryFileSource::open(&bin).unwrap_err() {
            ParseError::Corrupt { offset, what } => {
                assert_eq!(offset, 24);
                assert!(what.contains(&format!("{honest} bytes")), "{what}");
            }
            e => panic!("unexpected: {e}"),
        }
        std::fs::remove_file(&bin).unwrap();
    }

    #[test]
    fn materialize_refuses_a_reservation_no_memory_can_hold() {
        struct Boastful;
        impl GraphSource for Boastful {
            fn num_vertices(&self) -> u64 {
                2
            }
            fn num_edges(&self) -> u64 {
                u64::MAX / 2
            }
            fn for_each_chunk(
                &self,
                _chunk_edges: usize,
                sink: &mut dyn FnMut(&[Edge]),
            ) -> Result<StreamStats, ParseError> {
                sink(&[Edge::new(0, 1)]);
                Ok(StreamStats::default())
            }
        }
        match materialize(&Boastful).unwrap_err() {
            ParseError::Corrupt { what, .. } => assert!(what.contains("edges"), "{what}"),
            e => panic!("unexpected: {e}"),
        }
    }

    #[test]
    fn pipelined_decode_is_bit_identical_to_sequential() {
        let g = sample();
        let dir = std::env::temp_dir().join("cutfit-source-pipelined");
        std::fs::create_dir_all(&dir).unwrap();
        let bin = dir.join("g.bin");
        binfmt::write_binary_with(&g, File::create(&bin).unwrap(), 3).unwrap();
        let base = BinaryFileSource::open(&bin).unwrap();

        for chunk in [1usize, 7, 64] {
            let (seq_chunks, seq_stats) = collect_chunks(&base, chunk);
            // Window 1 (any thread count): stats must equal sequential
            // exactly, including the resident peak.
            let w1 = base.clone().with_decode_threads(4);
            let (c, s) = collect_chunks(&w1, chunk);
            assert_eq!(c, seq_chunks, "window-1 chunks at {chunk}");
            assert_eq!(s, seq_stats, "window-1 stats at {chunk}");
            // A wider window changes only the declared residency bound,
            // identically for every thread count.
            let mut wide: Option<StreamStats> = None;
            for threads in [1usize, 2, 4, 0] {
                let src = base.clone().with_decode_threads(threads).with_read_ahead(4);
                let (c, s) = collect_chunks(&src, chunk);
                assert_eq!(c, seq_chunks, "chunks at {chunk} with {threads} threads");
                assert_eq!(s.edges, seq_stats.edges);
                assert_eq!(s.chunks, seq_stats.chunks);
                match wide {
                    None => wide = Some(s),
                    Some(first) => assert_eq!(s, first, "stats vary with thread count"),
                }
            }
            // Window capacity: 4 blocks × 3 edges beside the chunk buffer.
            let bound = (chunk as u64 + 12) * EDGE_BYTES;
            assert!(wide.unwrap().peak_resident_edge_bytes <= bound);
        }
        std::fs::remove_file(&bin).unwrap();
    }

    #[test]
    fn an_empty_container_streams_nothing_at_every_geometry() {
        let g = Graph::new_unchecked(5, vec![]);
        let dir = std::env::temp_dir().join("cutfit-source-empty");
        std::fs::create_dir_all(&dir).unwrap();
        let bin = dir.join("g.bin");
        binfmt::write_binary_file(&g, &bin).unwrap();
        let base = BinaryFileSource::open(&bin).unwrap();
        for (threads, read_ahead) in [(1usize, 0usize), (0, 0), (2, 3), (4, 64)] {
            let src = base
                .clone()
                .with_decode_threads(threads)
                .with_read_ahead(read_ahead);
            let (chunks, stats) = collect_chunks(&src, 7);
            assert!(
                chunks.is_empty(),
                "threads={threads} read_ahead={read_ahead}"
            );
            assert_eq!(stats, StreamStats::default());
        }
        std::fs::remove_file(&bin).unwrap();
    }

    #[test]
    fn text_source_counts_declared_isolated_vertices() {
        let dir = std::env::temp_dir().join("cutfit-source-declared");
        std::fs::create_dir_all(&dir).unwrap();
        let txt = dir.join("declared.txt");
        let g = Graph::new_unchecked(12, vec![Edge::new(0, 1)]);
        write_edge_list(&g, std::io::BufWriter::new(File::create(&txt).unwrap())).unwrap();
        let src = TextFileSource::open(&txt).unwrap();
        assert_eq!(src.num_vertices(), 12, "header vertex count wins");
        std::fs::remove_file(&txt).unwrap();
    }
}
