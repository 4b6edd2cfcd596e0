//! Versioned, checksummed binary graph container.
//!
//! The text edge-list format ([`crate::io`]) is the interchange format;
//! this is the *working* format: a compact, integrity-checked container
//! that a [`crate::source::GraphSource`] can stream block-by-block without
//! ever holding the full edge list resident. Dependency-free by design —
//! plain `std::fs` + buffered readers, no memory mapping — because the
//! build environment has no registry access.
//!
//! ## Layout (all integers little-endian)
//!
//! ```text
//! header (40 bytes):
//!   magic            [u8; 8]   = b"CUTFITB1"
//!   version          u32       = 1
//!   block_edges      u32       target edges per block (> 0)
//!   num_vertices     u64
//!   num_edges        u64
//!   header_checksum  u64       FNV-1a-64 of the preceding 32 bytes
//! blocks (until num_edges are consumed):
//!   edge_count       u32       edges in this block (> 0)
//!   payload_len      u32       encoded byte length of the payload
//!                              (≤ 20 · edge_count, checked before allocating)
//!   payload          [u8; payload_len]
//!   block_checksum   u64       FNV-1a-64 of the payload
//! ```
//!
//! Each payload encodes `edge_count` edges as two zigzag varints apiece:
//! `src.wrapping_sub(prev_src)` then `dst.wrapping_sub(src)`, with
//! `prev_src` starting at 0 in every block so blocks decode independently.
//! Wrapping deltas make the coding a total bijection on `u64` pairs (no
//! overflow cases) while still producing 1–2 byte varints on the sorted or
//! locality-relabeled edge orders the pipeline prefers.
//!
//! Every failure mode maps to a typed [`ParseError`] carrying the byte
//! offset where the file stopped making sense — truncation, foreign magic,
//! future versions, checksum mismatches, payloads that over- or under-run
//! their declared edge count, and trailing data after the final block all
//! return errors, never panics.
//!
//! ## Reading is split into two halves
//!
//! * [`RawBlockReader`] walks the length-prefixed frames **sequentially and
//!   cheaply**: it reads bytes and validates frame bookkeeping (nonzero
//!   counts, the running edge total against the header, trailing data)
//!   but never touches a checksum or a varint.
//! * `decode_block_into` is a **pure function** over one [`RawBlock`]:
//!   verify the payload checksum, decode the varints, range-check the
//!   endpoints. Blocks decode independently (per-block delta reset), so
//!   this is the unit of parallel work — a [`RawBlock`] carries its
//!   absolute byte offset, and every error a worker thread can produce
//!   still names the exact file position.
//!
//! `scan_binary` composes the two one block at a time;
//! `BinaryFileSource` reads a batch of frames, decodes the batch's blocks
//! on `cutfit_util::exec::fill_chunks` shards, and delivers them in frame
//! order.

use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;

use crate::graph::Graph;
use crate::io::ParseError;
use crate::types::{Edge, VertexId};

/// File magic: 8 bytes at offset 0.
pub(crate) const MAGIC: [u8; 8] = *b"CUTFITB1";
/// Current (and only) container version.
pub(crate) const VERSION: u32 = 1;
/// Header length in bytes: magic + version + block_edges + V + E + checksum.
pub(crate) const HEADER_LEN: u64 = HEADER_BYTES as u64;
const HEADER_BYTES: usize = 40;
/// Most payload bytes one edge can encode to: two `u64` varints of at most
/// ten bytes each.
const MAX_EDGE_BYTES: u64 = 20;
/// Default edges per block: 64 Ki edges ≈ 1 MiB resident decoded, far less
/// encoded.
pub const DEFAULT_BLOCK_EDGES: u32 = 65_536;

/// Decoded file header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BinHeader {
    /// Container version (currently always `VERSION`).
    pub version: u32,
    /// Target edges per block the writer used.
    pub block_edges: u32,
    /// Vertex count — authoritative, so trailing isolated vertices survive
    /// the roundtrip.
    pub num_vertices: u64,
    /// Total edges across all blocks.
    pub num_edges: u64,
}

/// FNV-1a 64-bit over a byte slice: tiny, dependency-free, and plenty for
/// integrity (this is corruption detection, not cryptography).
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[inline]
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

#[inline]
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Appends `v` as a LEB128 varint (1–10 bytes).
#[inline]
// A varint byte: each cast keeps the low seven bits (the last one has no
// more).
#[allow(clippy::cast_possible_truncation)]
pub(crate) fn push_uvarint(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push((v as u8) | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

/// Decodes a LEB128 varint from `bytes[*pos..]`, advancing `*pos`.
/// Returns `None` on truncation or a varint longer than 10 bytes.
#[inline]
pub(crate) fn read_uvarint(bytes: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let &b = bytes.get(*pos)?;
        *pos += 1;
        if shift == 63 && b > 1 {
            return None; // would overflow u64
        }
        v |= ((b & 0x7f) as u64) << shift;
        if b & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
        if shift > 63 {
            return None;
        }
    }
}

/// Writes `graph` to `w` in the default block geometry. Returns the total
/// bytes written (header + all blocks) — the on-disk footprint, which the
/// session layer bills as load cost.
pub fn write_binary<W: Write>(graph: &Graph, w: W) -> std::io::Result<u64> {
    write_binary_with(graph, w, DEFAULT_BLOCK_EDGES)
}

/// [`write_binary`] with an explicit block size (clamped to ≥ 1).
pub fn write_binary_with<W: Write>(
    graph: &Graph,
    mut w: W,
    block_edges: u32,
) -> std::io::Result<u64> {
    let block_edges = block_edges.max(1);
    let mut header = [0u8; HEADER_BYTES];
    header[..8].copy_from_slice(&MAGIC);
    header[8..12].copy_from_slice(&VERSION.to_le_bytes());
    header[12..16].copy_from_slice(&block_edges.to_le_bytes());
    header[16..24].copy_from_slice(&graph.num_vertices().to_le_bytes());
    header[24..32].copy_from_slice(&graph.num_edges().to_le_bytes());
    let check = fnv1a64(&header[..32]);
    header[32..40].copy_from_slice(&check.to_le_bytes());
    w.write_all(&header)?;
    let mut written = HEADER_LEN;

    let mut payload = Vec::with_capacity(block_edges as usize * 3);
    for block in graph.edges().chunks(block_edges as usize) {
        payload.clear();
        let mut prev_src: VertexId = 0;
        for e in block {
            push_uvarint(&mut payload, zigzag(e.src.wrapping_sub(prev_src) as i64));
            push_uvarint(&mut payload, zigzag(e.dst.wrapping_sub(e.src) as i64));
            prev_src = e.src;
        }
        w.write_all(&len_u32(block.len())?.to_le_bytes())?;
        w.write_all(&len_u32(payload.len())?.to_le_bytes())?;
        w.write_all(&payload)?;
        w.write_all(&fnv1a64(&payload).to_le_bytes())?;
        written += 8 + payload.len() as u64 + 8;
    }
    w.flush()?;
    Ok(written)
}

/// Writes `graph` to a file at `path` (buffered, default block geometry).
/// Returns the file size in bytes.
pub fn write_binary_file<P: AsRef<Path>>(graph: &Graph, path: P) -> std::io::Result<u64> {
    write_binary(graph, BufWriter::new(File::create(path)?))
}

/// A block's length field: a `u32`, refused rather than wrapped past that.
fn len_u32(n: usize) -> std::io::Result<u32> {
    u32::try_from(n).map_err(|_| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("block length {n} exceeds the u32 length field"),
        )
    })
}

/// Little-endian `u32` at a fixed offset of a buffer the caller already
/// sized — explicit byte indexing instead of `try_into().unwrap()`, so the
/// decode path carries no panicking conversions.
#[inline]
fn le_u32(b: &[u8], at: usize) -> u32 {
    u32::from_le_bytes([b[at], b[at + 1], b[at + 2], b[at + 3]])
}

/// Little-endian `u64` at a fixed offset, same contract as [`le_u32`].
#[inline]
fn le_u64(b: &[u8], at: usize) -> u64 {
    u64::from_le_bytes([
        b[at],
        b[at + 1],
        b[at + 2],
        b[at + 3],
        b[at + 4],
        b[at + 5],
        b[at + 6],
        b[at + 7],
    ])
}

/// Reads exactly `buf.len()` bytes or reports [`ParseError::Truncated`] at
/// `offset` (the file position where the read began).
fn read_exact_at<R: Read>(r: &mut R, buf: &mut [u8], offset: u64) -> Result<(), ParseError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(ParseError::Truncated {
                    offset: offset + filled as u64,
                })
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(ParseError::Io(e)),
        }
    }
    Ok(())
}

/// Reads and validates the 40-byte header (magic, version, checksum).
pub(crate) fn read_header<R: Read>(r: &mut R) -> Result<BinHeader, ParseError> {
    let mut header = [0u8; HEADER_BYTES];
    read_exact_at(r, &mut header, 0)?;
    if header[..8] != MAGIC {
        let mut found = [0u8; 8];
        found.copy_from_slice(&header[..8]);
        return Err(ParseError::BadMagic { found });
    }
    let version = le_u32(&header, 8);
    if version != VERSION {
        return Err(ParseError::UnsupportedVersion {
            found: version,
            supported: VERSION,
        });
    }
    let stored = le_u64(&header, 32);
    let computed = fnv1a64(&header[..32]);
    if stored != computed {
        return Err(ParseError::ChecksumMismatch {
            offset: 32,
            stored,
            computed,
        });
    }
    let block_edges = le_u32(&header, 12);
    if block_edges == 0 {
        return Err(ParseError::Corrupt {
            offset: 12,
            what: "block_edges must be nonzero".into(),
        });
    }
    Ok(BinHeader {
        version,
        block_edges,
        num_vertices: le_u64(&header, 16),
        num_edges: le_u64(&header, 24),
    })
}

/// One container frame exactly as it sits on disk: undecoded payload bytes
/// plus the frame bookkeeping. Self-contained and `Send`, so a block can be
/// shipped to a decode worker; `offset` is the absolute file position of
/// the frame's 8-byte header, which keeps every decode-side error
/// offset-accurate no matter which thread hits it.
#[derive(Debug, Clone)]
pub struct RawBlock {
    /// Absolute byte offset of the frame header (edge_count, payload_len).
    pub offset: u64,
    /// Edges the frame declares (validated nonzero and within the file's
    /// remaining total by [`RawBlockReader`]).
    pub edge_count: u32,
    /// The encoded delta+varint payload — checksum not yet verified.
    pub payload: Vec<u8>,
    /// FNV-1a-64 the writer stored for the payload.
    pub stored_checksum: u64,
}

/// Sequential, decode-free frame reader: the cheap half of the split read
/// path. Validates the header at construction, then yields one
/// [`RawBlock`] per call — frame-level bookkeeping only (nonzero counts,
/// the running edge total against the header's `num_edges`, truncation,
/// trailing data), no checksums, no varints. Feed the blocks through
/// `decode_block_into` on any thread.
pub struct RawBlockReader<R> {
    r: R,
    header: BinHeader,
    offset: u64,
    /// Edges the remaining frames must still account for; reaching zero
    /// with bytes left in the stream is a typed error, not a silent stop.
    remaining: u64,
}

impl<R: Read> RawBlockReader<R> {
    /// Reads and validates the container header, positioning the reader at
    /// the first frame.
    pub fn new(mut r: R) -> Result<Self, ParseError> {
        let header = read_header(&mut r)?;
        Ok(RawBlockReader {
            r,
            header,
            offset: HEADER_LEN,
            remaining: header.num_edges,
        })
    }

    /// The validated container header.
    pub fn header(&self) -> BinHeader {
        self.header
    }

    /// Reads the next frame, or `None` once the header's edge total is
    /// exactly consumed and the stream is at a clean end.
    ///
    /// The block-sum cross-check lives here: a frame declaring more edges
    /// than remain is [`ParseError::Corrupt`], a stream that ends before
    /// the total is reached is [`ParseError::Truncated`] (from the failed
    /// frame read), and bytes after the final block — an extra trailing
    /// block, or any other junk — are [`ParseError::Corrupt`] at the
    /// offending offset instead of a silent success.
    pub fn next_block(&mut self) -> Result<Option<RawBlock>, ParseError> {
        if self.remaining == 0 {
            let mut probe = [0u8; 1];
            loop {
                match self.r.read(&mut probe) {
                    Ok(0) => return Ok(None),
                    Ok(_) => {
                        return Err(ParseError::Corrupt {
                            offset: self.offset,
                            what: format!(
                                "trailing data after the header's {} edges were delivered",
                                self.header.num_edges
                            ),
                        })
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(ParseError::Io(e)),
                }
            }
        }
        let block_offset = self.offset;
        let mut fixed = [0u8; 8];
        read_exact_at(&mut self.r, &mut fixed, self.offset)?;
        self.offset += 8;
        let edge_count = le_u32(&fixed, 0);
        let payload_len = le_u32(&fixed, 4);
        if edge_count == 0 {
            return Err(ParseError::Corrupt {
                offset: block_offset,
                what: "block declares zero edges".into(),
            });
        }
        if edge_count as u64 > self.remaining {
            return Err(ParseError::Corrupt {
                offset: block_offset,
                what: format!(
                    "block declares {edge_count} edges but only {} remain of \
                     the header's {}",
                    self.remaining, self.header.num_edges
                ),
            });
        }
        // Bounded before allocating: a frame header is eight unverified
        // bytes, and an edge is two varints of at most ten bytes each.
        if u64::from(payload_len) > MAX_EDGE_BYTES * u64::from(edge_count) {
            return Err(ParseError::Corrupt {
                offset: block_offset,
                what: format!(
                    "block declares {payload_len} payload bytes for {edge_count} edges \
                     (at most {MAX_EDGE_BYTES} each)"
                ),
            });
        }
        let mut payload = vec![0u8; payload_len as usize];
        read_exact_at(&mut self.r, &mut payload, self.offset)?;
        self.offset += payload_len as u64;
        let mut check = [0u8; 8];
        read_exact_at(&mut self.r, &mut check, self.offset)?;
        self.offset += 8;
        self.remaining -= edge_count as u64;
        Ok(Some(RawBlock {
            offset: block_offset,
            edge_count,
            payload,
            stored_checksum: u64::from_le_bytes(check),
        }))
    }
}

/// Verifies and decodes one raw block into a caller-owned buffer (cleared
/// first): checks the payload checksum, decodes the zigzag-varint deltas,
/// and range-checks every endpoint against the header's vertex count. Pure
/// — no I/O, no shared state — so it is the unit of parallel decode work,
/// and every error carries the absolute byte offset derived from
/// `block.offset`, so a failure on a worker thread reads exactly like one
/// on the calling thread.
pub(crate) fn decode_block_into(
    header: &BinHeader,
    block: &RawBlock,
    edges: &mut Vec<Edge>,
) -> Result<(), ParseError> {
    let payload = &block.payload;
    let payload_offset = block.offset + 8;
    let computed = fnv1a64(payload);
    if block.stored_checksum != computed {
        return Err(ParseError::ChecksumMismatch {
            offset: payload_offset + payload.len() as u64,
            stored: block.stored_checksum,
            computed,
        });
    }
    edges.clear();
    edges.reserve(block.edge_count as usize);
    let mut pos = 0usize;
    let mut prev_src: VertexId = 0;
    for _ in 0..block.edge_count {
        let (Some(ds), Some(dd)) = (
            read_uvarint(payload, &mut pos),
            read_uvarint(payload, &mut pos),
        ) else {
            return Err(ParseError::Corrupt {
                offset: payload_offset + pos as u64,
                what: "payload ends mid-edge".into(),
            });
        };
        let src = prev_src.wrapping_add(unzigzag(ds) as u64);
        let dst = src.wrapping_add(unzigzag(dd) as u64);
        if src >= header.num_vertices || dst >= header.num_vertices {
            return Err(ParseError::Corrupt {
                offset: payload_offset + pos as u64,
                what: format!(
                    "edge ({src}, {dst}) outside the header's {} vertices",
                    header.num_vertices
                ),
            });
        }
        edges.push(Edge::new(src, dst));
        prev_src = src;
    }
    if pos != payload.len() {
        return Err(ParseError::Corrupt {
            offset: payload_offset + pos as u64,
            what: format!(
                "{} payload bytes left after {} edges",
                payload.len() - pos,
                block.edge_count
            ),
        });
    }
    Ok(())
}

/// Streams every block through `sink`, reusing one decode buffer: peak
/// resident edge memory is one block, not the whole graph. Returns the
/// validated header. This is the bounded-memory core that
/// [`read_binary`] and `BinaryFileSource` both drive.
pub(crate) fn scan_binary<R: Read>(
    r: R,
    sink: &mut dyn FnMut(&[Edge]),
) -> Result<BinHeader, ParseError> {
    let mut reader = RawBlockReader::new(r)?;
    let header = reader.header();
    let mut edges: Vec<Edge> = Vec::new();
    while let Some(block) = reader.next_block()? {
        decode_block_into(&header, &block, &mut edges)?;
        sink(&edges);
    }
    Ok(header)
}

/// Reads a complete graph back from the binary container, validating every
/// checksum along the way. Edge order and multiplicity are exactly as
/// written; the vertex count comes from the header, so isolated vertices
/// survive.
pub fn read_binary<R: Read>(r: R) -> Result<Graph, ParseError> {
    let mut edges = Vec::new();
    let header = scan_binary(r, &mut |block| edges.extend_from_slice(block))?;
    Ok(Graph::new_unchecked(header.num_vertices, edges))
}

/// Reads a graph from a binary container file (buffered).
pub fn read_binary_file<P: AsRef<Path>>(path: P) -> Result<Graph, ParseError> {
    read_binary(BufReader::new(File::open(path).map_err(ParseError::Io)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Graph {
        Graph::new_unchecked(
            8,
            vec![
                Edge::new(0, 1),
                Edge::new(0, 1), // duplicate preserved
                Edge::new(3, 3), // self-loop
                Edge::new(7, 0),
                Edge::new(2, 6),
            ],
        )
    }

    fn encode(g: &Graph) -> Vec<u8> {
        let mut bytes = Vec::new();
        write_binary(g, &mut bytes).unwrap();
        bytes
    }

    #[test]
    fn roundtrip_preserves_order_multiplicity_and_isolated_vertices() {
        let g = sample();
        let bytes = encode(&g);
        let back = read_binary(&bytes[..]).unwrap();
        assert_eq!(back.num_vertices(), 8, "trailing isolated vertices kept");
        assert_eq!(back.edges(), g.edges());
    }

    #[test]
    fn empty_graph_roundtrips() {
        let g = Graph::new_unchecked(5, vec![]);
        let bytes = encode(&g);
        assert_eq!(bytes.len() as u64, HEADER_LEN);
        let back = read_binary(&bytes[..]).unwrap();
        assert_eq!(back.num_vertices(), 5);
        assert_eq!(back.num_edges(), 0);
    }

    #[test]
    fn small_blocks_roundtrip() {
        let g = sample();
        let mut bytes = Vec::new();
        write_binary_with(&g, &mut bytes, 2).unwrap();
        let back = read_binary(&bytes[..]).unwrap();
        assert_eq!(back.edges(), g.edges());
        let header = read_header(&mut &bytes[..]).unwrap();
        assert_eq!(header.block_edges, 2);
    }

    #[test]
    fn extreme_ids_roundtrip_via_wrapping_deltas() {
        let n = u64::MAX;
        let g = Graph::new_unchecked(
            n,
            vec![
                Edge::new(n - 1, 0),
                Edge::new(0, n - 1),
                Edge::new(n / 2, n - 1),
            ],
        );
        let back = read_binary(&encode(&g)[..]).unwrap();
        assert_eq!(back.edges(), g.edges());
    }

    #[test]
    fn truncated_header_reports_offset() {
        let bytes = encode(&sample());
        match read_binary(&bytes[..20]).unwrap_err() {
            ParseError::Truncated { offset } => assert_eq!(offset, 20),
            e => panic!("unexpected: {e}"),
        }
    }

    #[test]
    fn bad_magic_is_typed() {
        let mut bytes = encode(&sample());
        bytes[0] = b'X';
        match read_binary(&bytes[..]).unwrap_err() {
            ParseError::BadMagic { found } => assert_eq!(&found[1..], &MAGIC[1..]),
            e => panic!("unexpected: {e}"),
        }
    }

    #[test]
    fn future_version_is_rejected() {
        let mut bytes = encode(&sample());
        bytes[8..12].copy_from_slice(&2u32.to_le_bytes());
        // Re-seal the header so the version check fires, not the checksum.
        let check = fnv1a64(&bytes[..32]);
        bytes[32..40].copy_from_slice(&check.to_le_bytes());
        match read_binary(&bytes[..]).unwrap_err() {
            ParseError::UnsupportedVersion { found, supported } => {
                assert_eq!((found, supported), (2, VERSION));
            }
            e => panic!("unexpected: {e}"),
        }
    }

    #[test]
    fn header_corruption_trips_header_checksum() {
        let mut bytes = encode(&sample());
        bytes[24] ^= 0xff; // flip the edge count
        match read_binary(&bytes[..]).unwrap_err() {
            ParseError::ChecksumMismatch { offset, .. } => assert_eq!(offset, 32),
            e => panic!("unexpected: {e}"),
        }
    }

    #[test]
    fn payload_corruption_trips_block_checksum() {
        let mut bytes = encode(&sample());
        let payload_start = HEADER_LEN as usize + 8;
        bytes[payload_start] ^= 0x01;
        match read_binary(&bytes[..]).unwrap_err() {
            ParseError::ChecksumMismatch { offset, .. } => {
                assert!(offset > HEADER_LEN, "block offset, got {offset}");
            }
            e => panic!("unexpected: {e}"),
        }
    }

    #[test]
    fn mid_block_eof_reports_offset() {
        let bytes = encode(&sample());
        let cut = bytes.len() - 4; // inside the trailing block checksum
        match read_binary(&bytes[..cut]).unwrap_err() {
            ParseError::Truncated { offset } => assert_eq!(offset as usize, cut),
            e => panic!("unexpected: {e}"),
        }
    }

    #[test]
    fn overlong_block_declaration_is_corrupt() {
        let mut bytes = encode(&sample());
        let count_at = HEADER_LEN as usize;
        bytes[count_at..count_at + 4].copy_from_slice(&99u32.to_le_bytes());
        match read_binary(&bytes[..]).unwrap_err() {
            ParseError::Corrupt { offset, .. } => assert_eq!(offset, HEADER_LEN),
            e => panic!("unexpected: {e}"),
        }
    }

    #[test]
    fn oversized_payload_declaration_is_corrupt_before_any_allocation() {
        // One edge cannot take 4 GiB: the lie is caught from the eight
        // header bytes alone, at the frame's offset. (Unchecked, this asks
        // the allocator for `u32::MAX` bytes and then reports truncation.)
        let mut bytes = encode(&sample());
        let frame = HEADER_LEN as usize;
        bytes[frame..frame + 4].copy_from_slice(&1u32.to_le_bytes());
        bytes[frame + 4..frame + 8].copy_from_slice(&u32::MAX.to_le_bytes());
        match read_binary(&bytes[..]).unwrap_err() {
            ParseError::Corrupt { offset, what } => {
                assert_eq!(offset, HEADER_LEN);
                assert!(what.contains("payload bytes"), "{what}");
            }
            e => panic!("unexpected: {e}"),
        }
        // The bound itself is inclusive: 20 bytes for one edge is read (and
        // then fails as the truncated frame it is), 21 is refused.
        for (declared, corrupt) in [(20u32, false), (21, true)] {
            bytes[frame + 4..frame + 8].copy_from_slice(&declared.to_le_bytes());
            let err = read_binary(&bytes[..frame + 8]).unwrap_err();
            assert_eq!(matches!(err, ParseError::Corrupt { .. }), corrupt, "{err}");
        }
    }

    #[test]
    fn extra_trailing_block_is_corrupt_not_silent() {
        // A container whose blocks sum to the header's edge count but that
        // carries extra bytes after the final block must fail the
        // cross-check, not succeed on a prefix.
        let g = sample();
        let mut bytes = Vec::new();
        write_binary_with(&g, &mut bytes, 2).unwrap();
        let clean_len = bytes.len() as u64;
        let spare_block = bytes[HEADER_LEN as usize..].to_vec();
        bytes.extend_from_slice(&spare_block);
        match read_binary(&bytes[..]).unwrap_err() {
            ParseError::Corrupt { offset, what } => {
                assert_eq!(offset, clean_len);
                assert!(what.contains("trailing data"), "{what}");
            }
            e => panic!("unexpected: {e}"),
        }
    }

    #[test]
    fn missing_last_block_reports_truncation() {
        // Header promises 5 edges but the file ends after the first
        // 2-edge blocks: the sum cross-check surfaces as a typed
        // truncation at the point where the next frame should begin.
        let g = sample();
        let mut bytes = Vec::new();
        write_binary_with(&g, &mut bytes, 2).unwrap();
        // Walk the frames to find where the last block starts.
        let mut reader = RawBlockReader::new(&bytes[..]).unwrap();
        let mut last_start = HEADER_LEN;
        while let Some(block) = reader.next_block().unwrap() {
            last_start = block.offset;
        }
        match read_binary(&bytes[..last_start as usize]).unwrap_err() {
            ParseError::Truncated { offset } => assert_eq!(offset, last_start),
            e => panic!("unexpected: {e}"),
        }
    }

    #[test]
    fn raw_reader_plus_decode_block_equals_scan() {
        let g = sample();
        let bytes = encode(&g);
        let mut reader = RawBlockReader::new(&bytes[..]).unwrap();
        let header = reader.header();
        let mut decoded: Vec<Edge> = Vec::new();
        let mut edges: Vec<Edge> = Vec::new();
        while let Some(block) = reader.next_block().unwrap() {
            assert!(block.edge_count > 0);
            decode_block_into(&header, &block, &mut edges).unwrap();
            decoded.extend_from_slice(&edges);
        }
        assert_eq!(decoded, g.edges());
    }

    #[test]
    fn decode_block_error_carries_the_absolute_offset() {
        // Corrupt one payload byte of the second block, then decode the
        // raw blocks out of order — the checksum error must still name the
        // on-disk offset of the corrupted block, proving the offset rides
        // with the block and not with reader state.
        let g = sample();
        let mut bytes = Vec::new();
        write_binary_with(&g, &mut bytes, 2).unwrap();
        let mut reader = RawBlockReader::new(&bytes[..]).unwrap();
        let header = reader.header();
        let mut blocks = Vec::new();
        while let Some(block) = reader.next_block().unwrap() {
            blocks.push(block);
        }
        assert!(blocks.len() >= 2, "sample spans multiple blocks");
        blocks[1].payload[0] ^= 0xff;
        let expected_offset = blocks[1].offset + 8 + blocks[1].payload.len() as u64;
        blocks.reverse(); // order must not matter for a pure decoder
        let mut failures = 0;
        let mut edges: Vec<Edge> = Vec::new();
        for block in &blocks {
            match decode_block_into(&header, block, &mut edges) {
                Ok(()) => assert!(!edges.is_empty()),
                Err(ParseError::ChecksumMismatch { offset, .. }) => {
                    assert_eq!(offset, expected_offset);
                    failures += 1;
                }
                Err(e) => panic!("unexpected: {e}"),
            }
        }
        assert_eq!(failures, 1);
    }

    #[test]
    fn varint_roundtrip_edges() {
        let mut buf = Vec::new();
        for v in [0u64, 1, 127, 128, 300, u64::MAX, u64::MAX - 1] {
            buf.clear();
            push_uvarint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(read_uvarint(&buf, &mut pos), Some(v));
            assert_eq!(pos, buf.len());
        }
        // Truncated and overlong varints are rejected, not misread.
        let mut pos = 0;
        assert_eq!(read_uvarint(&[0x80], &mut pos), None);
        let mut pos = 0;
        assert_eq!(read_uvarint(&[0xff; 11], &mut pos), None);
    }

    #[test]
    fn zigzag_is_a_bijection_at_the_edges() {
        for v in [0i64, -1, 1, i64::MIN, i64::MAX] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }
}
