//! Edge-list text I/O in the SNAP dataset format.
//!
//! The public datasets in the paper's Table I are distributed as whitespace-
//! separated edge lists with `#`-prefixed comment lines (SNAP) or similar.
//! [`parse_edge_list`] accepts that format (plus `%` comments used by KONECT)
//! and produces a normalized undirected [`Csr`] via [`GraphBuilder`] and
//! [`Recoder`] — directed inputs are symmetrized exactly as the paper does.
//!
//! Two parsing paths produce identical results:
//!
//! * [`parse_edge_list`] — streaming over any reader with one reused
//!   `read_line` buffer (constant memory, no per-line allocation);
//! * [`parse_edge_list_bytes`] — in-memory: the buffer is split on newline
//!   boundaries into fixed-size chunks tokenized concurrently, then the
//!   per-chunk edge vectors are concatenated in chunk order. Since
//!   concatenation restores file order before the (serial, order-
//!   dependent) ID recoding runs, the resulting graph and recoder are
//!   byte-identical to the streaming path at every rayon pool size.
//!
//! [`load_edge_list`] reads the file into memory and uses the parallel
//! path. On malformed input both paths report the first bad line's 1-based
//! number, like the streaming parser always did.

use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;

use crate::builder::GraphBuilder;
use crate::csr::Csr;
use crate::recode::Recoder;
use rayon::prelude::*;

/// Input size below which [`parse_edge_list_bytes`] stays serial (chunk
/// fan-out overhead exceeds the tokenization work).
const PAR_PARSE_MIN_BYTES: usize = 1 << 20;

/// Bytes per parallel parse chunk (before extending to the next newline).
/// Fixed so the chunk decomposition never depends on the pool size.
const PARSE_CHUNK_BYTES: usize = 1 << 20;

/// Errors from edge-list loading.
#[derive(Debug)]
pub enum IoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A non-comment line did not contain two integer tokens.
    Parse { line_no: usize, line: String },
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "io error: {e}"),
            IoError::Parse { line_no, line } => {
                write!(f, "cannot parse edge at line {line_no}: {line:?}")
            }
        }
    }
}

impl std::error::Error for IoError {}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

/// Parses one edge-list line. `Ok(None)` for comments/blank lines,
/// `Ok(Some((u, v)))` for an edge, `Err(())` when the line is malformed
/// (the caller attaches the line number and text).
#[inline]
fn parse_line(t: &str) -> Result<Option<(u64, u64)>, ()> {
    let t = t.trim();
    if t.is_empty() || t.starts_with('#') || t.starts_with('%') {
        return Ok(None);
    }
    let mut it = t.split_whitespace();
    let (Some(a), Some(b)) = (it.next(), it.next()) else {
        return Err(());
    };
    match (a.parse::<u64>(), b.parse::<u64>()) {
        (Ok(u), Ok(v)) => Ok(Some((u, v))),
        _ => Err(()),
    }
}

/// Recodes raw external-ID pairs (in file order, so the recoder assigns
/// dense IDs by first appearance exactly like the streaming parser) and
/// builds the normalized graph.
fn assemble(pairs: Vec<(u64, u64)>) -> (Csr, Recoder) {
    let mut recoder = Recoder::new();
    let mut builder = GraphBuilder::with_capacity(pairs.len());
    for (u, v) in pairs {
        let u = recoder.encode(u);
        let v = recoder.encode(v);
        builder.add_edge(u, v);
    }
    (builder.build(), recoder)
}

/// Parses an edge list from a reader. Returns the graph and the recoder that
/// maps external IDs to the dense internal IDs the graph uses.
///
/// This is the streaming path: one `read_line` buffer is reused for every
/// line, so parsing allocates no per-line `String`s and holds only the
/// edge pairs in memory. For in-memory input prefer
/// [`parse_edge_list_bytes`], which tokenizes chunks in parallel.
pub fn parse_edge_list<R: Read>(reader: R) -> Result<(Csr, Recoder), IoError> {
    let mut pairs = Vec::new();
    let mut buf = BufReader::new(reader);
    let mut line = String::new();
    let mut line_no = 0usize;
    loop {
        line.clear();
        if buf.read_line(&mut line)? == 0 {
            break;
        }
        line_no += 1;
        match parse_line(&line) {
            Ok(Some(pair)) => pairs.push(pair),
            Ok(None) => {}
            Err(()) => {
                return Err(IoError::Parse {
                    line_no,
                    line: line.trim_end_matches(['\n', '\r']).to_string(),
                })
            }
        }
    }
    Ok(assemble(pairs))
}

/// One tokenized chunk: `Ok((pairs, line_count))`, or `Err((local_line,
/// text))` for a malformed line (0-based index within the chunk).
type ChunkResult = Result<(Vec<(u64, u64)>, usize), (usize, String)>;

/// Tokenizes one chunk of the input. Returns the pairs plus the number of
/// lines the chunk spans; a malformed line is reported by its 0-based
/// index *within the chunk* (the caller rebases to an absolute number).
fn parse_chunk(chunk: &[u8]) -> ChunkResult {
    let text = match std::str::from_utf8(chunk) {
        Ok(t) => t,
        Err(e) => {
            // Report the offending line by counting newlines up to the bad byte.
            let local = chunk[..e.valid_up_to()]
                .iter()
                .filter(|&&b| b == b'\n')
                .count();
            return Err((local, "<invalid utf-8>".into()));
        }
    };
    let mut pairs = Vec::new();
    let mut lines = 0usize;
    for (idx, l) in text.split('\n').enumerate() {
        // `split('\n')` yields one trailing empty fragment for newline-
        // terminated chunks; it parses as a blank line, and the count is
        // corrected by the caller tracking real newlines.
        if idx > 0 {
            lines += 1;
        }
        match parse_line(l) {
            Ok(Some(pair)) => pairs.push(pair),
            Ok(None) => {}
            Err(()) => {
                return Err((idx, l.trim_end_matches('\r').to_string()));
            }
        }
    }
    Ok((pairs, lines))
}

/// Splits `buf` into ~[`PARSE_CHUNK_BYTES`] chunks ending on newline
/// boundaries (the final chunk may lack a trailing newline).
fn newline_chunks(buf: &[u8]) -> Vec<&[u8]> {
    let mut chunks = Vec::new();
    let mut start = 0usize;
    while start < buf.len() {
        let mut end = (start + PARSE_CHUNK_BYTES).min(buf.len());
        while end < buf.len() && buf[end - 1] != b'\n' {
            end += 1;
        }
        chunks.push(&buf[start..end]);
        start = end;
    }
    chunks
}

/// Parses an in-memory edge list, tokenizing newline-bounded chunks in
/// parallel once the input is large enough to pay for it. Identical output (graph,
/// recoder, and error reporting) to the streaming [`parse_edge_list`] at
/// every rayon pool size — see the module docs.
pub fn parse_edge_list_bytes(buf: &[u8]) -> Result<(Csr, Recoder), IoError> {
    if buf.len() < PAR_PARSE_MIN_BYTES || rayon::current_num_threads() == 1 {
        // Small input, or nothing to fan out to (the streaming path beats
        // the chunked one ~2x on a single-threaded pool).
        return parse_edge_list(buf);
    }
    let chunks = newline_chunks(buf);
    let results: Vec<ChunkResult> = chunks.into_par_iter().map(parse_chunk).collect();
    // Rebase the first (file-order) error to an absolute line number: all
    // chunks before it parsed fully, so their line counts are known.
    let mut lines_before = 0usize;
    let mut pairs = Vec::new();
    for r in results {
        match r {
            Ok((mut p, lines)) => {
                pairs.append(&mut p);
                lines_before += lines;
            }
            Err((local, line)) => {
                return Err(IoError::Parse {
                    line_no: lines_before + local + 1,
                    line,
                })
            }
        }
    }
    Ok(assemble(pairs))
}

/// Loads an edge list file from disk (reads it into memory, then parses
/// via [`parse_edge_list_bytes`]).
pub fn load_edge_list<P: AsRef<Path>>(path: P) -> Result<(Csr, Recoder), IoError> {
    let bytes = std::fs::read(path)?;
    parse_edge_list_bytes(&bytes)
}

/// Writes a graph as a SNAP-style edge list (each undirected edge once,
/// `u < v`, internal IDs).
pub fn write_edge_list<W: Write>(g: &Csr, mut w: W) -> std::io::Result<()> {
    writeln!(
        w,
        "# Undirected graph: {} nodes, {} edges",
        g.num_vertices(),
        g.num_edges()
    )?;
    for (u, v) in g.edges() {
        writeln!(w, "{u}\t{v}")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_snap_format() {
        let text = "\
# Directed graph (each unordered pair of nodes is saved once)
# Nodes: 4 Edges: 4
100\t200
200\t300
% konect style comment
300 100
400 100
";
        let (g, rec) = parse_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 4);
        let a = rec.lookup(100).unwrap();
        let b = rec.lookup(200).unwrap();
        assert!(g.has_edge(a, b));
    }

    #[test]
    fn symmetrizes_directed_pairs() {
        let (g, _) = parse_edge_list("1 2\n2 1\n".as_bytes()).unwrap();
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn rejects_garbage() {
        let err = parse_edge_list("1 2\nhello world\n".as_bytes()).unwrap_err();
        match err {
            IoError::Parse { line_no, .. } => assert_eq!(line_no, 2),
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn rejects_single_token_line() {
        let err = parse_edge_list("1\n".as_bytes()).unwrap_err();
        assert!(matches!(err, IoError::Parse { line_no: 1, .. }));
    }

    #[test]
    fn round_trip() {
        let g = crate::fig1_graph();
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let (g2, rec) = parse_edge_list(&buf[..]).unwrap();
        assert_eq!(g2.num_edges(), g.num_edges());
        // Same structure modulo recoding: degrees multiset must match.
        let mut d1 = g.degrees();
        let mut d2 = g2.degrees();
        d1.sort_unstable();
        d2.sort_unstable();
        assert_eq!(d1, d2);
        assert_eq!(rec.len() as u32, g.num_vertices());
    }

    #[test]
    fn file_round_trip() {
        let g = crate::fig1_graph();
        let dir = std::env::temp_dir().join("kcore_graph_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fig1.txt");
        write_edge_list(&g, std::fs::File::create(&path).unwrap()).unwrap();
        let (g2, _) = load_edge_list(&path).unwrap();
        assert_eq!(g2.num_edges(), g.num_edges());
        std::fs::remove_file(&path).ok();
    }
}
