//! Reading and writing whitespace-separated edge lists (the SNAP format the
//! paper's datasets ship in: one `src dst` pair per line, `#` comments).

use std::io::{BufRead, Write};

use crate::builder::GraphBuilder;
use crate::graph::Graph;
use crate::types::VertexId;

/// Errors produced while parsing a graph container (text edge list or the
/// binary format of [`crate::binfmt`]).
#[derive(Debug)]
pub enum ParseError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A data line did not contain two integers.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// The offending content.
        content: String,
    },
    /// A binary container did not start with the expected magic bytes.
    BadMagic {
        /// The first bytes actually found.
        found: [u8; 8],
    },
    /// A binary container declares a format version this build cannot read.
    UnsupportedVersion {
        /// Version stored in the file.
        found: u32,
        /// Highest version this reader understands.
        supported: u32,
    },
    /// A stored checksum does not match the bytes it covers.
    ChecksumMismatch {
        /// Absolute byte offset of the stored checksum.
        offset: u64,
        /// Checksum stored in the file.
        stored: u64,
        /// Checksum computed over the bytes read.
        computed: u64,
    },
    /// The input ended before a complete record was read.
    Truncated {
        /// Absolute byte offset at which more bytes were needed.
        offset: u64,
    },
    /// Structurally invalid binary data (impossible counts, out-of-range
    /// endpoints, trailing garbage).
    Corrupt {
        /// Absolute byte offset of the offending record.
        offset: u64,
        /// What was wrong.
        what: String,
    },
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Io(e) => write!(f, "i/o error: {e}"),
            ParseError::Malformed { line, content } => {
                write!(f, "malformed edge at line {line}: {content:?}")
            }
            ParseError::BadMagic { found } => {
                write!(f, "not a cutfit binary graph (magic bytes {found:02x?})")
            }
            ParseError::UnsupportedVersion { found, supported } => {
                write!(
                    f,
                    "unsupported binary graph version {found} (this build reads <= {supported})"
                )
            }
            ParseError::ChecksumMismatch {
                offset,
                stored,
                computed,
            } => write!(
                f,
                "checksum mismatch at byte {offset}: stored {stored:#018x}, \
                 computed {computed:#018x}"
            ),
            ParseError::Truncated { offset } => {
                write!(f, "unexpected end of input at byte {offset}")
            }
            ParseError::Corrupt { offset, what } => {
                write!(f, "corrupt binary graph at byte {offset}: {what}")
            }
        }
    }
}

impl std::error::Error for ParseError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ParseError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ParseError {
    fn from(e: std::io::Error) -> Self {
        ParseError::Io(e)
    }
}

/// Facts learned from one streaming scan of a text edge list — enough to
/// size buffers and reconstruct the vertex universe without materializing a
/// single edge.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct EdgeListScan {
    /// Number of data lines (= edges, multiplicities included).
    pub edges: u64,
    /// Largest endpoint ID seen, if any edge was present.
    pub max_id: Option<VertexId>,
    /// Vertex count declared by a leading `# cutfit edge list: N vertices`
    /// header ([`write_edge_list`] emits one), which preserves trailing
    /// isolated vertices across a text round trip. Foreign SNAP comments
    /// never match and are simply skipped.
    pub declared_vertices: Option<u64>,
}

impl EdgeListScan {
    /// The vertex universe: `max_id + 1`, raised to any declared count.
    pub fn num_vertices(&self) -> u64 {
        self.max_id
            .map_or(0, |m| m + 1)
            .max(self.declared_vertices.unwrap_or(0))
    }
}

/// Reads a SNAP-style edge list: `src dst` per line, blank lines and lines
/// starting with `#` ignored.
///
/// The hot loop is allocation-free and zero-copy: lines are parsed
/// byte-by-byte straight out of the reader's internal buffer — no per-line
/// `String`, no UTF-8 validation, no `split_whitespace` tokenizing, and no
/// copy at all for lines that fit a buffered chunk (one small carry buffer
/// is reused for lines straddling chunk boundaries). A data line must
/// contain *exactly* two integers; trailing garbage (`1 2 3`, `1 2 # note`)
/// is rejected as [`ParseError::Malformed`] with the offending line number,
/// not silently ignored.
pub fn read_edge_list<R: BufRead>(reader: R) -> Result<Graph, ParseError> {
    let mut builder = GraphBuilder::new();
    let scan = scan_edge_list(reader, &mut |s, d| {
        builder.add_edge(s, d);
    })?;
    if let Some(v) = scan.declared_vertices {
        builder.reserve_vertices(v);
    }
    Ok(builder.build())
}

/// Streams a SNAP-style edge list through `sink` without materializing it:
/// the bounded-memory core of [`read_edge_list`] (same zero-copy byte
/// parser, same error surface), exposed for out-of-core consumers such as
/// [`crate::source::TextFileSource`]. Returns the scan facts (edge count,
/// max endpoint ID, any declared vertex count) so a first pass can size
/// everything a second pass needs.
pub(crate) fn scan_edge_list<R: BufRead>(
    mut reader: R,
    sink: &mut dyn FnMut(VertexId, VertexId),
) -> Result<EdgeListScan, ParseError> {
    let mut scan = EdgeListScan::default();
    let mut carry: Vec<u8> = Vec::with_capacity(128);
    let mut line_no = 0usize;
    let malformed = |line_no: usize, line: &[u8]| ParseError::Malformed {
        line: line_no + 1,
        content: String::from_utf8_lossy(trim_ascii(line)).into_owned(),
    };
    macro_rules! emit {
        ($s:expr, $d:expr) => {{
            scan.edges += 1;
            scan.max_id = Some(scan.max_id.map_or($s.max($d), |m| m.max($s).max($d)));
            sink($s, $d);
        }};
    }
    loop {
        let chunk = reader.fill_buf()?;
        if chunk.is_empty() {
            // End of input: whatever is carried is the final, unterminated
            // line.
            if !carry.is_empty() {
                match parse_line(&carry, true) {
                    LineStep::Edge(s, d, _) => emit!(s, d),
                    LineStep::Skip(_) => {
                        if line_no == 0 {
                            scan.declared_vertices = parse_declared_vertices(&carry);
                        }
                    }
                    LineStep::Bad => return Err(malformed(line_no, &carry)),
                    LineStep::NeedMore => unreachable!("eof parses never stall"),
                }
            }
            break;
        }
        if !carry.is_empty() {
            // Finish the line started in the previous chunk, then rescan.
            let consumed = match chunk.iter().position(|&b| b == b'\n') {
                Some(q) => {
                    carry.extend_from_slice(&chunk[..=q]);
                    match parse_line(&carry, false) {
                        LineStep::Edge(s, d, _) => emit!(s, d),
                        LineStep::Skip(_) => {
                            if line_no == 0 {
                                scan.declared_vertices = parse_declared_vertices(&carry);
                            }
                        }
                        LineStep::Bad => return Err(malformed(line_no, &carry)),
                        LineStep::NeedMore => unreachable!("line has its newline"),
                    }
                    line_no += 1;
                    carry.clear();
                    q + 1
                }
                None => {
                    carry.extend_from_slice(chunk);
                    chunk.len()
                }
            };
            reader.consume(consumed);
            continue;
        }
        // Fast path: parse complete lines in place, no copying.
        let mut pos = 0;
        loop {
            match parse_line(&chunk[pos..], false) {
                LineStep::Edge(s, d, used) => {
                    emit!(s, d);
                    line_no += 1;
                    pos += used;
                }
                LineStep::Skip(used) => {
                    if line_no == 0 {
                        scan.declared_vertices = parse_declared_vertices(&chunk[pos..pos + used]);
                    }
                    line_no += 1;
                    pos += used;
                }
                LineStep::NeedMore => break,
                LineStep::Bad => {
                    let tail = &chunk[pos..];
                    let end = tail.iter().position(|&b| b == b'\n').unwrap_or(tail.len());
                    return Err(malformed(line_no, &tail[..end]));
                }
            }
        }
        carry.extend_from_slice(&chunk[pos..]);
        let consumed = chunk.len();
        reader.consume(consumed);
    }
    Ok(scan)
}

/// Recognises the exact header [`write_edge_list`] emits —
/// `# cutfit edge list: N vertices, M edges` — and extracts `N`. Any other
/// comment (SNAP headers, hand-written notes) yields `None`.
fn parse_declared_vertices(line: &[u8]) -> Option<u64> {
    let s = std::str::from_utf8(trim_ascii(line)).ok()?;
    let rest = s.strip_prefix("# cutfit edge list: ")?;
    let (digits, rest) = rest.split_once(' ')?;
    if !rest.starts_with("vertices") {
        return None;
    }
    digits.parse().ok()
}

/// Outcome of parsing one line prefix of a byte slice.
enum LineStep {
    /// A `src dst` data line; `.2` is the bytes consumed including the
    /// terminating newline.
    Edge(u64, u64, usize),
    /// A blank or `#` comment line of the given consumed length.
    Skip(usize),
    /// The slice ended before the line did (only when `eof` is false) —
    /// the caller must supply more bytes.
    NeedMore,
    /// The line is complete and malformed: missing fields, non-digits,
    /// overflow, or trailing garbage.
    Bad,
}

/// Parses the first line of `b` in a single byte scan. With `eof` set, the
/// end of the slice terminates the line like a newline would; otherwise a
/// line without its newline yet is [`LineStep::NeedMore`].
fn parse_line(b: &[u8], eof: bool) -> LineStep {
    #[inline]
    fn is_blank(c: u8) -> bool {
        c == b' ' || c == b'\t' || c == b'\r'
    }
    let mut i = 0;
    while i < b.len() && is_blank(b[i]) {
        i += 1;
    }
    if i >= b.len() {
        return if eof {
            LineStep::Skip(i)
        } else {
            LineStep::NeedMore
        };
    }
    if b[i] == b'\n' {
        return LineStep::Skip(i + 1);
    }
    if b[i] == b'#' {
        while i < b.len() {
            if b[i] == b'\n' {
                return LineStep::Skip(i + 1);
            }
            i += 1;
        }
        return if eof {
            LineStep::Skip(i)
        } else {
            LineStep::NeedMore
        };
    }

    let (src, after_src) = match parse_u64(b, i) {
        Some(ok) => ok,
        None => return LineStep::Bad,
    };
    i = after_src;
    if i >= b.len() {
        // The digit run may continue in the next chunk.
        return if eof {
            LineStep::Bad
        } else {
            LineStep::NeedMore
        };
    }
    let sep = i;
    while i < b.len() && is_blank(b[i]) {
        i += 1;
    }
    if i >= b.len() {
        return if eof {
            LineStep::Bad
        } else {
            LineStep::NeedMore
        };
    }
    if i == sep || b[i] == b'\n' {
        // No separator after the first integer, or a one-field line.
        return LineStep::Bad;
    }
    let (dst, after_dst) = match parse_u64(b, i) {
        Some(ok) => ok,
        None => return LineStep::Bad,
    };
    i = after_dst;
    if i >= b.len() && !eof {
        return LineStep::NeedMore;
    }
    while i < b.len() && is_blank(b[i]) {
        i += 1;
    }
    if i < b.len() {
        if b[i] == b'\n' {
            return LineStep::Edge(src, dst, i + 1);
        }
        return LineStep::Bad; // trailing garbage after the second integer
    }
    if eof {
        LineStep::Edge(src, dst, i)
    } else {
        LineStep::NeedMore
    }
}

/// Parses a decimal `u64` run starting at `b[at]` (at least one digit,
/// checked for overflow), returning the value and the index just past it.
#[inline]
fn parse_u64(b: &[u8], at: usize) -> Option<(u64, usize)> {
    let mut value: u64 = 0;
    let mut i = at;
    while i < b.len() && b[i].is_ascii_digit() {
        value = value.checked_mul(10)?.checked_add((b[i] - b'0') as u64)?;
        i += 1;
    }
    if i == at {
        return None;
    }
    Some((value, i))
}

/// Strips leading and trailing ASCII whitespace (spaces, tabs, `\r`, `\n`).
fn trim_ascii(mut bytes: &[u8]) -> &[u8] {
    while let [b, rest @ ..] = bytes {
        if b.is_ascii_whitespace() {
            bytes = rest;
        } else {
            break;
        }
    }
    while let [rest @ .., b] = bytes {
        if b.is_ascii_whitespace() {
            bytes = rest;
        } else {
            break;
        }
    }
    bytes
}

/// Writes the graph as a `src dst` edge list with a header comment.
pub fn write_edge_list<W: Write>(graph: &Graph, mut writer: W) -> std::io::Result<()> {
    writeln!(
        writer,
        "# cutfit edge list: {} vertices, {} edges",
        graph.num_vertices(),
        graph.num_edges()
    )?;
    for e in graph.edges() {
        writeln!(writer, "{} {}", e.src, e.dst)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Edge;

    #[test]
    fn parse_roundtrip() {
        let g = Graph::new(4, vec![Edge::new(0, 1), Edge::new(3, 2)]);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let parsed = read_edge_list(&buf[..]).unwrap();
        assert_eq!(parsed.num_edges(), 2);
        assert_eq!(parsed.edges(), g.edges());
        assert_eq!(parsed.num_vertices(), 4);
    }

    #[test]
    fn comments_and_blank_lines_skipped() {
        let text = "# header\n\n0 1\n   \n# trailing\n2\t3\n";
        let g = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.edges()[1], Edge::new(2, 3));
    }

    #[test]
    fn malformed_line_reports_position() {
        let text = "0 1\nnot an edge\n";
        match read_edge_list(text.as_bytes()) {
            Err(ParseError::Malformed { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected malformed error, got {other:?}"),
        }
    }

    #[test]
    fn single_token_line_is_malformed() {
        assert!(read_edge_list("42\n".as_bytes()).is_err());
    }

    #[test]
    fn trailing_garbage_reports_line_number() {
        let text = "# header\n0 1\n1 2 3\n";
        match read_edge_list(text.as_bytes()) {
            Err(ParseError::Malformed { line, content }) => {
                assert_eq!(line, 3);
                assert_eq!(content, "1 2 3");
            }
            other => panic!("expected malformed error, got {other:?}"),
        }
        // An inline comment is trailing garbage too, as is a non-digit tail
        // glued onto the second integer.
        assert!(read_edge_list("1 2 # note\n".as_bytes()).is_err());
        assert!(read_edge_list("1 2x\n".as_bytes()).is_err());
    }

    #[test]
    fn tabs_and_extra_spacing_are_accepted() {
        let text = "0\t1\n  2 \t 3  \n4  5\r\n";
        let g = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(
            g.edges(),
            &[Edge::new(0, 1), Edge::new(2, 3), Edge::new(4, 5)]
        );
    }

    #[test]
    fn missing_final_newline_is_fine() {
        let g = read_edge_list("0 1\n2 3".as_bytes()).unwrap();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.edges()[1], Edge::new(2, 3));
    }

    #[test]
    fn overflowing_integer_is_malformed() {
        let text = "0 99999999999999999999999\n";
        match read_edge_list(text.as_bytes()) {
            Err(ParseError::Malformed { line, .. }) => assert_eq!(line, 1),
            other => panic!("expected malformed error, got {other:?}"),
        }
    }

    #[test]
    fn messy_input_roundtrips_through_write_edge_list() {
        // Comments, blank lines, tabs, and CRLF all normalise away on the
        // first read; a write/read round trip is then the identity.
        let text = "# header\n\n0\t1\n   \n10 7\r\n# mid\n3 3\n";
        let first = read_edge_list(text.as_bytes()).unwrap();
        let mut buf = Vec::new();
        write_edge_list(&first, &mut buf).unwrap();
        let second = read_edge_list(&buf[..]).unwrap();
        assert_eq!(second.edges(), first.edges());
        assert_eq!(second.num_vertices(), first.num_vertices());
    }

    #[test]
    fn error_display_is_helpful() {
        let err = read_edge_list("x y\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("line 1"));
    }
}
