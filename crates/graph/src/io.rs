//! Plain-text edge-list I/O.
//!
//! The format is the de-facto standard of SNAP-style graph datasets: one
//! `u v` pair per line, `#`-prefixed comment lines ignored, whitespace
//! separated. Vertex ids are dense `0..n`; `n` is taken as one past the
//! largest id unless a nodes header is present. The header is matched
//! case-insensitively and tolerates trailing fields on the same comment
//! line, so the real SNAP form `# Nodes: 1005 Edges: 25571` fixes the
//! vertex count (and keeps trailing isolated vertices) just like the
//! lowercase `# nodes: <n>`.

use crate::error::{GraphError, Result};
use crate::graph::{ingest_jobs, Graph};
use std::io::{Read, Write};

const NODES_TAG: &str = "nodes:";

/// Below this buffer size the parser always runs as one inline chunk —
/// splitting a few kilobytes across threads costs more than parsing them.
const MIN_CHUNK_BYTES: usize = 1 << 16;

/// Reads a graph from an edge-list text stream.
///
/// Accepts `#` comments; a nodes header fixes the vertex count (otherwise
/// it is inferred as `max id + 1`). The header is matched
/// case-insensitively and anything after the count on the same line is
/// ignored, so both `# nodes: 4` and SNAP's `# Nodes: 1005 Edges: 25571`
/// work — without the latter, the count would be silently inferred and
/// trailing isolated vertices dropped. Duplicate edges collapse;
/// self-loops are rejected like everywhere else in the crate.
///
/// The stream is slurped once, then parsed chunk-parallel, one scoped
/// thread per chunk (`DGO_JOBS` thread budget, default all cores), directly
/// into normalized `(u32, u32)` pairs — see [`parse_edge_list`] — and built
/// with the counting-sort CSR path ([`Graph::from_normalized_unsorted`]),
/// whose scatter is sequential and whose per-list sort uses the same
/// budget. Errors,
/// messages, and line numbers are identical to a sequential line-by-line
/// scan at any thread count; vertex ids are limited to `u32` (ids beyond
/// `u32::MAX` are rejected as bad vertex ids instead of silently
/// truncating, as real SNAP ids always fit).
///
/// The reader is taken by value; pass `&mut reader` to keep ownership
/// (blanket `Read for &mut R`).
///
/// # Errors
///
/// [`GraphError::InvalidParameter`] on malformed lines and on edges whose
/// endpoints exceed a declared nodes header (reported with the offending
/// line number), plus the usual construction errors.
///
/// # Examples
///
/// ```
/// use dgo_graph::io::read_edge_list;
///
/// let text = "# Nodes: 4 Edges: 3\n0 1\n1 2\n# a comment\n2 3\n";
/// let g = read_edge_list(text.as_bytes())?;
/// assert_eq!(g.num_vertices(), 4);
/// assert_eq!(g.num_edges(), 3);
/// # Ok::<(), dgo_graph::GraphError>(())
/// ```
pub fn read_edge_list<R: Read>(mut reader: R) -> Result<Graph> {
    let mut buf = Vec::new();
    if let Err(e) = reader.read_to_end(&mut buf) {
        // Attribute the failure to the line being read when it struck: the
        // bytes read so far end inside that line.
        let line = buf.iter().filter(|&&b| b == b'\n').count() + 1;
        return Err(GraphError::InvalidParameter {
            reason: format!("i/o error on line {line}: {e}"),
        });
    }
    let (n, edges) = parse_edge_list(&buf)?;
    Ok(Graph::from_normalized_unsorted(n, &edges, ingest_jobs()))
}

/// Classification of one chunk of the byte buffer, produced by one thread.
struct ChunkParse {
    /// Normalized `(min, max)` pairs of the chunk's well-formed edges, in
    /// file order. Self-loops are tracked separately, not stored.
    edges: Vec<(u32, u32)>,
    /// Total lines in the chunk (for global line numbering).
    lines: usize,
    /// Largest endpoint id seen (0 when no edge).
    max_id: u32,
    saw_edge: bool,
    /// Value of the last `nodes:` header in the chunk.
    declared: Option<usize>,
    /// First malformed line: `(0-based local line, what)`. Parsing stops at
    /// it, exactly like the sequential scan aborts there.
    fatal: Option<(usize, LineIssue)>,
    /// First self-loop: `(0-based local line, vertex)`. Not fatal during the
    /// scan — the sequential path also finishes scanning before rejecting.
    self_loop: Option<(usize, u32)>,
}

/// The malformed-line cases, recorded with enough context to format the
/// sequential scan's exact message once the global line number is known.
enum LineIssue {
    InvalidUtf8,
    BadHeader,
    NotAnEdge(String),
    BadVertexId(String),
}

impl LineIssue {
    /// The error the sequential line-by-line scan would have produced.
    fn into_error(self, line: usize) -> GraphError {
        let reason = match self {
            // BufRead::lines' wording for invalid UTF-8, kept verbatim.
            LineIssue::InvalidUtf8 => {
                format!("i/o error on line {line}: stream did not contain valid UTF-8")
            }
            LineIssue::BadHeader => format!("bad nodes header on line {line}"),
            LineIssue::NotAnEdge(text) => format!("line {line} is not an edge: {text:?}"),
            LineIssue::BadVertexId(token) => format!("bad vertex id {token:?} on line {line}"),
        };
        GraphError::InvalidParameter { reason }
    }
}

/// Parses an edge-list byte buffer into `(n, normalized edges)`: pairs are
/// `(min, max)` as `u32` in file order, duplicates preserved (the CSR build
/// collapses them), `n` from the last nodes header or `max id + 1`.
///
/// This is [`read_edge_list`] minus the slurp and the CSR build — exposed so
/// the scale harness can time the parse and build phases separately. The
/// buffer is split on line boundaries into per-thread chunks, each parsed
/// independently (with per-chunk max-id, header, and error tracking), and
/// the per-chunk edge vectors are concatenated in chunk order, so the result
/// and every error are identical to a sequential scan.
///
/// # Errors
///
/// Exactly [`read_edge_list`]'s malformed-line, bad-header, declared-range,
/// and self-loop errors.
pub fn parse_edge_list(buf: &[u8]) -> Result<(usize, Vec<(u32, u32)>)> {
    let threads = ingest_jobs();
    let ranges = chunk_ranges(buf, threads);
    let mut parses: Vec<ChunkParse> =
        rayon::chunk_map_collect(&ranges, threads, |_, &(start, end)| {
            parse_chunk(&buf[start..end])
        });

    // Merge in chunk order. Malformed lines win (the sequential scan aborts
    // at the first one, before any post-scan check); then the declared-range
    // check over the whole file; then the first self-loop.
    let mut line_base = 0usize;
    let mut fatal: Option<(usize, LineIssue)> = None;
    let mut self_loop: Option<u32> = None;
    let mut declared: Option<usize> = None;
    let mut max_id = 0u32;
    let mut saw_edge = false;
    for parse in &mut parses {
        if fatal.is_none() {
            if let Some((local, issue)) = parse.fatal.take() {
                fatal = Some((line_base + local + 1, issue));
            } else {
                // Chunks after a fatal line were never reached by the
                // sequential scan; their headers and self-loops don't exist.
                if let Some(n) = parse.declared {
                    declared = Some(n);
                }
                if self_loop.is_none() {
                    if let Some((_, v)) = parse.self_loop {
                        self_loop = Some(v);
                    }
                }
                max_id = max_id.max(parse.max_id);
                saw_edge |= parse.saw_edge;
            }
        }
        line_base += parse.lines;
    }
    if let Some((line, issue)) = fatal {
        return Err(issue.into_error(line));
    }
    if let Some(n) = declared {
        if saw_edge && max_id as usize >= n {
            return Err(first_out_of_range(buf, n));
        }
    }
    if let Some(vertex) = self_loop {
        return Err(GraphError::SelfLoop {
            vertex: vertex as usize,
        });
    }
    let n = declared.unwrap_or(if saw_edge { max_id as usize + 1 } else { 0 });
    let total: usize = parses.iter().map(|p| p.edges.len()).sum();
    let mut edges = Vec::new();
    for parse in parses {
        if edges.is_empty() && parse.edges.len() == total {
            edges = parse.edges; // single-chunk fast path: no copy
        } else {
            edges.reserve_exact(total - edges.len());
            edges.extend_from_slice(&parse.edges);
        }
    }
    Ok((n, edges))
}

/// Splits `buf` into up to `threads` non-empty ranges, each ending just
/// after a `'\n'` (except possibly the last), so every line lives in exactly
/// one chunk. Deterministic in `(buf.len(), threads)`.
fn chunk_ranges(buf: &[u8], threads: usize) -> Vec<(usize, usize)> {
    let want = threads.min(buf.len() / MIN_CHUNK_BYTES).max(1);
    let mut bounds = vec![0usize];
    for i in 1..want {
        let target = buf.len() * i / want;
        let last = *bounds.last().expect("nonempty");
        if target < last {
            continue;
        }
        if let Some(offset) = buf[target..].iter().position(|&b| b == b'\n') {
            let cut = target + offset + 1;
            if cut > last && cut < buf.len() {
                bounds.push(cut);
            }
        }
    }
    bounds.push(buf.len());
    bounds.windows(2).map(|w| (w[0], w[1])).collect()
}

/// Iterates the lines of a chunk with `BufRead::lines` semantics: `'\n'`
/// terminates a line (a trailing `'\r'` is handled later by `trim`), and a
/// final newline does not open an empty last line.
fn chunk_lines(chunk: &[u8]) -> impl Iterator<Item = &[u8]> {
    let body = match chunk.last() {
        Some(b'\n') => &chunk[..chunk.len() - 1],
        _ => chunk,
    };
    // `[].split` yields one empty piece even for an empty body; skip it so an
    // all-newline chunk counts the right number of lines.
    let skip_all = chunk.is_empty();
    body.split(|&b| b == b'\n')
        .take(if skip_all { 0 } else { usize::MAX })
}

/// Sequential scan of one chunk; see [`ChunkParse`] for what it records.
fn parse_chunk(chunk: &[u8]) -> ChunkParse {
    let mut out = ChunkParse {
        // ~12 bytes/edge line is typical of SNAP dumps; over-guessing a
        // little beats a reallocation of a multi-megabyte vector.
        edges: Vec::with_capacity(chunk.len() / 10 + 4),
        lines: 0,
        max_id: 0,
        saw_edge: false,
        declared: None,
        fatal: None,
        self_loop: None,
    };
    for line in chunk_lines(chunk) {
        let local = out.lines;
        out.lines += 1;
        let Ok(text) = std::str::from_utf8(line) else {
            out.fatal = Some((local, LineIssue::InvalidUtf8));
            break;
        };
        let trimmed = text.trim();
        if trimmed.is_empty() {
            continue;
        }
        if let Some(comment) = trimmed.strip_prefix('#') {
            let comment = comment.trim();
            // Case-insensitive `nodes:` header; SNAP puts `Edges: <m>` (or
            // other fields) after the count on the same line, so only the
            // first token after the tag is the count. `get` keeps free-form
            // non-ASCII comments safe: a multi-byte character straddling the
            // tag length just means this is not a header.
            if comment
                .get(..NODES_TAG.len())
                .is_some_and(|tag| tag.eq_ignore_ascii_case(NODES_TAG))
            {
                let count = comment[NODES_TAG.len()..]
                    .split_whitespace()
                    .next()
                    .unwrap_or("");
                match count.parse::<usize>() {
                    Ok(n) => out.declared = Some(n),
                    Err(_) => {
                        out.fatal = Some((local, LineIssue::BadHeader));
                        break;
                    }
                }
            }
            continue;
        }
        let mut parts = trimmed.split_whitespace();
        let (u, v) = match (parts.next(), parts.next()) {
            (Some(u), Some(v)) => (u, v),
            _ => {
                out.fatal = Some((local, LineIssue::NotAnEdge(trimmed.to_string())));
                break;
            }
        };
        let (u, v) = match (u.parse::<u32>(), v.parse::<u32>()) {
            (Ok(u), Ok(v)) => (u, v),
            (Err(_), _) => {
                out.fatal = Some((local, LineIssue::BadVertexId(u.to_string())));
                break;
            }
            (_, Err(_)) => {
                out.fatal = Some((local, LineIssue::BadVertexId(v.to_string())));
                break;
            }
        };
        out.max_id = out.max_id.max(u).max(v);
        out.saw_edge = true;
        if u == v {
            if out.self_loop.is_none() {
                out.self_loop = Some((local, u));
            }
        } else {
            out.edges.push(if u < v { (u, v) } else { (v, u) });
        }
    }
    out
}

/// Error path of the declared-range check: rescans the buffer sequentially
/// for the first edge with an endpoint `>= n`, reporting the offending
/// endpoint (first coordinate checked first, in file order) and its line —
/// a declared count smaller than an id used to surface as a bare
/// `VertexOutOfRange` with no position.
fn first_out_of_range(buf: &[u8], n: usize) -> GraphError {
    for (line_no, line) in chunk_lines(buf).enumerate() {
        let Ok(text) = std::str::from_utf8(line) else {
            break;
        };
        let trimmed = text.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut parts = trimmed.split_whitespace();
        let (Some(u), Some(v)) = (parts.next(), parts.next()) else {
            break;
        };
        let (Ok(u), Ok(v)) = (u.parse::<usize>(), v.parse::<usize>()) else {
            break;
        };
        if u >= n || v >= n {
            return GraphError::InvalidParameter {
                reason: format!(
                    "vertex {} on line {} is out of range for the declared nodes count {n}",
                    if u >= n { u } else { v },
                    line_no + 1
                ),
            };
        }
    }
    // The caller only rescans when max_id >= n, so an edge must be found;
    // keep a sane fallback rather than panicking on an impossible state.
    GraphError::VertexOutOfRange { vertex: n, n }
}

/// Writes a graph as an edge list with a SNAP-style `# Nodes: <n> Edges: <m>`
/// header (round-trips through [`read_edge_list`], including isolated
/// trailing vertices).
///
/// The writer is taken by value; pass `&mut writer` to keep ownership.
///
/// # Errors
///
/// [`GraphError::InvalidParameter`] wrapping any I/O failure.
pub fn write_edge_list<W: Write>(graph: &Graph, writer: W) -> Result<()> {
    let mut w = std::io::BufWriter::new(writer);
    let emit = |e: std::io::Error| GraphError::InvalidParameter {
        reason: format!("i/o error while writing: {e}"),
    };
    writeln!(
        w,
        "# Nodes: {} Edges: {}",
        graph.num_vertices(),
        graph.num_edges()
    )
    .map_err(emit)?;
    for (u, v) in graph.edges() {
        writeln!(w, "{u} {v}").map_err(emit)?;
    }
    w.flush().map_err(emit)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::gnm;

    #[test]
    fn reads_basic_list() {
        let g = read_edge_list("0 1\n1 2\n".as_bytes()).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn header_fixes_vertex_count() {
        let g = read_edge_list("# nodes: 10\n0 1\n".as_bytes()).unwrap();
        assert_eq!(g.num_vertices(), 10);
    }

    #[test]
    fn snap_header_is_case_insensitive_with_trailing_edges_field() {
        // The real SNAP header form: capitalized, edge count on the same
        // line. This used to fall through to max_id+1 inference, silently
        // dropping the trailing isolated vertices.
        let g = read_edge_list("# Nodes: 1005 Edges: 2\n0 1\n1 2\n".as_bytes()).unwrap();
        assert_eq!(g.num_vertices(), 1005);
        assert_eq!(g.num_edges(), 2);
        let g = read_edge_list("# NODES: 7\n0 1\n".as_bytes()).unwrap();
        assert_eq!(g.num_vertices(), 7);
    }

    #[test]
    fn non_ascii_comments_are_skipped_not_panicked() {
        // A multi-byte character straddling the header-tag length must not
        // make the byte-wise tag comparison panic; free-form comments (SNAP
        // dumps carry titles and URLs) are simply ignored.
        // "abcdeé": byte 6 falls inside the two-byte 'é'.
        let g = read_edge_list("# abcdeé\n# Gráfo überall\n0 1\n".as_bytes()).unwrap();
        assert_eq!(g.num_vertices(), 2);
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn undershooting_header_reports_offending_line() {
        // Declared count below the largest id: the error must carry the
        // line of the first offending edge, not a bare VertexOutOfRange.
        let err = read_edge_list("# Nodes: 3 Edges: 3\n0 1\n1 2\n2 5\n".as_bytes()).unwrap_err();
        let message = err.to_string();
        assert!(message.contains("vertex 5"), "got: {message}");
        assert!(message.contains("line 4"), "got: {message}");
        assert!(message.contains("declared nodes count 3"), "got: {message}");
        // A header placed after the edges is still enforced with the line.
        let err = read_edge_list("0 9\n# nodes: 4\n".as_bytes()).unwrap_err();
        let message = err.to_string();
        assert!(message.contains("vertex 9"), "got: {message}");
        assert!(message.contains("line 1"), "got: {message}");
    }

    #[test]
    fn comments_and_blank_lines_skipped() {
        let g = read_edge_list("# hi\n\n0 2\n#more\n1 2\n".as_bytes()).unwrap();
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn tabs_and_extra_tokens_tolerated() {
        // Weighted formats carry a third column; we ignore it.
        let g = read_edge_list("0\t1\t5.0\n1\t2\t3.0\n".as_bytes()).unwrap();
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn malformed_line_rejected() {
        let err = read_edge_list("0\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("not an edge"));
        let err = read_edge_list("a b\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("bad vertex id"));
    }

    #[test]
    fn bad_header_rejected() {
        assert!(read_edge_list("# nodes: many\n".as_bytes()).is_err());
    }

    #[test]
    fn self_loop_rejected() {
        assert!(read_edge_list("3 3\n".as_bytes()).is_err());
    }

    #[test]
    fn empty_input_is_empty_graph() {
        let g = read_edge_list("".as_bytes()).unwrap();
        assert_eq!(g.num_vertices(), 0);
    }

    #[test]
    fn parse_edge_list_exposes_normalized_pairs() {
        let (n, edges) = parse_edge_list(b"# nodes: 5\n3 1\n0 2\n3 1\n").unwrap();
        assert_eq!(n, 5);
        // File order, normalized (min, max), duplicates preserved.
        assert_eq!(edges, vec![(1, 3), (0, 2), (1, 3)]);
    }

    #[test]
    fn malformed_line_wins_over_earlier_self_loop() {
        // The scan aborts at the first malformed line; the self-loop it
        // already passed is never reported (it would only surface from the
        // post-scan construction).
        let err = read_edge_list("1 1\nnot-an-edge\n".as_bytes()).unwrap_err();
        let message = err.to_string();
        assert!(message.contains("line 2 is not an edge"), "got: {message}");
    }

    #[test]
    fn declared_range_wins_over_earlier_self_loop() {
        // The declared-nodes range check runs over the whole scan before
        // self-loops are rejected; the offending endpoint and line win.
        let err = read_edge_list("# nodes: 3\n1 1\n5 6\n".as_bytes()).unwrap_err();
        let message = err.to_string();
        assert!(message.contains("vertex 5"), "got: {message}");
        assert!(message.contains("line 3"), "got: {message}");
    }

    #[test]
    fn ids_beyond_u32_are_bad_vertex_ids() {
        // Ids are parsed as u32 (SNAP ids always fit); an oversized id is a
        // parse error instead of the silent truncation it used to be.
        let err = read_edge_list("0 4294967296\n".as_bytes()).unwrap_err();
        let message = err.to_string();
        assert!(message.contains("bad vertex id"), "got: {message}");
        assert!(message.contains("4294967296"), "got: {message}");
    }

    /// A buffer big enough to split into multiple parse chunks under a
    /// multi-thread `DGO_JOBS` (each chunk must exceed 64 KiB), padded with
    /// comment lines so the edge structure stays tiny.
    fn multi_chunk_text(edges: &str) -> String {
        let mut text = String::with_capacity(300 << 10);
        for i in 0..6000 {
            text.push_str(&format!("# padding comment line number {i} {i} {i}\n"));
        }
        text.push_str(edges);
        text
    }

    #[test]
    fn multi_chunk_error_keeps_global_line_number() {
        // 6000 comment lines then a malformed line: the reported line number
        // must be global no matter how many chunks the buffer split into.
        let err = read_edge_list(multi_chunk_text("0 1\nbogus\n").as_bytes()).unwrap_err();
        let message = err.to_string();
        assert!(
            message.contains("line 6002 is not an edge"),
            "got: {message}"
        );
    }

    #[test]
    fn multi_chunk_header_after_edges_still_applies() {
        let text = multi_chunk_text("0 1\n1 2\n# nodes: 9\n");
        let g = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.num_vertices(), 9);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn roundtrip_preserves_graph() {
        let g = gnm(60, 150, 9);
        let mut buffer = Vec::new();
        write_edge_list(&g, &mut buffer).unwrap();
        let back = read_edge_list(buffer.as_slice()).unwrap();
        assert_eq!(g, back);
    }

    #[test]
    fn roundtrip_keeps_isolated_vertices() {
        let g = Graph::from_edges(5, &[(0, 1)]).unwrap(); // 2,3,4 isolated
        let mut buffer = Vec::new();
        write_edge_list(&g, &mut buffer).unwrap();
        let text = String::from_utf8(buffer.clone()).unwrap();
        assert!(
            text.starts_with("# Nodes: 5 Edges: 1\n"),
            "writer emits the SNAP header form, got: {text:?}"
        );
        let back = read_edge_list(buffer.as_slice()).unwrap();
        assert_eq!(back.num_vertices(), 5);
    }
}
