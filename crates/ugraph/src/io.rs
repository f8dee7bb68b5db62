//! Plain-text serialization of uncertain graphs.
//!
//! Format (`#`-prefixed comment lines and blank lines allowed anywhere):
//!
//! ```text
//! # optional comments
//! n m
//! <node_id> <self_risk>          (n lines)
//! <source> <target> <diffusion>  (m lines)
//! ```
//!
//! Tokens are separated by ASCII whitespace (space, tab, CR, LF, form
//! feed) and lines end at `\n`, so CRLF files read the same. Node lines
//! may appear in any order but each of `0..n` must appear exactly once.
//! The header's counts are checked against the input before anything is
//! sized by them: `n` and `m` must fit node and edge ids (`u32`), and a
//! node line takes at least 4 bytes and an edge line 6, newline included.
//!
//! The reader holds the whole input in memory and parses the edge section
//! on scoped threads over newline-aligned byte ranges. The graph, and the
//! first error with its line number, do not depend on the number of
//! ranges.

use crate::builder::{check_edge, GraphBuilder};
use crate::error::{GraphError, Result};
use crate::graph::UncertainGraph;
use crate::ids::NodeId;
use std::io::{BufRead, Write};
use std::path::Path;
use std::str::FromStr;

/// A parsed edge line: source, target, diffusion probability.
type Edge = (u32, u32, f64);

/// Inputs shorter than this are parsed on the calling thread alone:
/// below it, spawning costs more than it saves.
const MIN_PARALLEL_BYTES: usize = 256 << 10;

/// Upper bound on the ranges an edge section is cut into.
const MAX_RANGES: usize = 8;

fn parse_err(line: usize, message: impl Into<String>) -> GraphError {
    GraphError::Parse { line, message: message.into() }
}

/// Reads a graph in the crate's text format from any buffered reader.
pub fn read_graph<R: BufRead>(mut reader: R) -> Result<UncertainGraph> {
    let mut bytes = Vec::new();
    reader.read_to_end(&mut bytes)?;
    decode(bytes)
}

/// Parses `bytes` with the machine's parallelism, and frees them before
/// the build so the input and the CSR arrays are not held at once.
fn decode(bytes: Vec<u8>) -> Result<UncertainGraph> {
    let ranges = if bytes.len() < MIN_PARALLEL_BYTES {
        1
    } else {
        std::thread::available_parallelism().map_or(1, |p| p.get()).min(MAX_RANGES)
    };
    let builder = parse(&bytes, ranges)?;
    drop(bytes);
    builder.build()
}

/// The input's content lines: neither blank nor a `#` comment. Lines
/// end after each `\n` (the last needs none) and are numbered from 1
/// over every line, comments and blank ones included, as
/// `BufRead::lines` counts them.
struct Lines<'a> {
    rest: &'a [u8],
    /// Lines consumed so far.
    line: usize,
}

impl<'a> Iterator for Lines<'a> {
    /// A content line's number and bytes.
    type Item = (usize, &'a [u8]);

    fn next(&mut self) -> Option<Self::Item> {
        while !self.rest.is_empty() {
            let end = self.rest.iter().position(|&b| b == b'\n').map_or(self.rest.len(), |i| i + 1);
            let (line, rest) = self.rest.split_at(end);
            self.rest = rest;
            self.line += 1;
            if !matches!(line.trim_ascii_start().first(), None | Some(b'#')) {
                return Some((self.line, line));
            }
        }
        None
    }
}

fn tokens(line: &[u8]) -> impl Iterator<Item = &[u8]> {
    line.split(u8::is_ascii_whitespace).filter(|t| !t.is_empty())
}

/// Parses the next token of line `line` as the `T` named `what`.
fn field<'a, T: FromStr>(
    tokens: &mut impl Iterator<Item = &'a [u8]>,
    line: usize,
    what: &str,
    kind: &str,
) -> Result<T> {
    let token = tokens.next().ok_or_else(|| parse_err(line, format!("missing {what}")))?;
    std::str::from_utf8(token)
        .ok()
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| parse_err(line, format!("{what} is not {kind}")))
}

/// Parses a whole input, cutting its edge section into `ranges` ranges.
fn parse(bytes: &[u8], ranges: usize) -> Result<GraphBuilder> {
    let mut lines = Lines { rest: bytes, line: 0 };
    let (no, header) = lines.next().ok_or_else(|| parse_err(lines.line + 1, "missing header"))?;
    let mut it = tokens(header);
    let n: usize = field(&mut it, no, "node count", "an integer")?;
    let m: usize = field(&mut it, no, "edge count", "an integer")?;
    if it.next().is_some() {
        return Err(parse_err(no, "trailing tokens in header"));
    }
    if n > u32::MAX as usize || m > u32::MAX as usize {
        return Err(parse_err(
            no,
            format!("implausible header: n = {n}, m = {m} overflow u32 ids"),
        ));
    }
    // The shortest lines are "0 0\n" and "0 1 0\n"; the last may lack
    // its newline.
    let least = 4 * n as u64 + 6 * m as u64;
    let follow = lines.rest.len();
    if least > follow as u64 + 1 {
        return Err(parse_err(
            no,
            format!("implausible header: n = {n}, m = {m} need {least} bytes, {follow} follow"),
        ));
    }

    let mut builder = GraphBuilder::new(n);
    let mut seen = vec![false; n];
    for _ in 0..n {
        let (no, line) = lines
            .next()
            .ok_or_else(|| parse_err(lines.line + 1, "unexpected EOF in node section"))?;
        let mut it = tokens(line);
        let id: u32 = field(&mut it, no, "node id", "an integer")?;
        let ps: f64 = field(&mut it, no, "self-risk", "a number")?;
        if it.next().is_some() {
            return Err(parse_err(no, "trailing tokens in node line"));
        }
        if (id as usize) >= n {
            return Err(parse_err(no, format!("node id {id} >= n = {n}")));
        }
        if seen[id as usize] {
            return Err(parse_err(no, format!("node id {id} repeated")));
        }
        seen[id as usize] = true;
        builder.set_self_risk(NodeId(id), ps).map_err(|e| parse_err(no, e.to_string()))?;
    }
    builder.set_checked_edges(parse_edges(lines, n, m, ranges)?);
    Ok(builder)
}

/// Parses the edge section: `m` edge lines, then only comments and
/// blank lines. With `ranges > 1` the section is first cut at newlines
/// into that many byte ranges, parsed on scoped threads and joined in
/// file order. If a range holds a bad line, or the ranges do not hold
/// exactly `m` edges, one pass over the whole section names the first
/// error, so errors do not depend on the range count either.
fn parse_edges(mut lines: Lines<'_>, n: usize, m: usize, ranges: usize) -> Result<Vec<Edge>> {
    if ranges > 1 {
        if let Some(edges) = parse_ranges(lines.rest, n, m, ranges) {
            return Ok(edges);
        }
    }
    let mut edges = Vec::with_capacity(m);
    edge_lines(&mut lines, n, m, &mut edges)?;
    if edges.len() < m {
        return Err(parse_err(lines.line + 1, "unexpected EOF in edge section"));
    }
    Ok(edges)
}

/// Appends the content lines of `lines` to `edges`; a content line past
/// the `limit`-th is trailing content.
fn edge_lines(lines: &mut Lines<'_>, n: usize, limit: usize, edges: &mut Vec<Edge>) -> Result<()> {
    for (no, line) in lines {
        if edges.len() == limit {
            return Err(parse_err(no, "trailing content after edge section"));
        }
        let mut it = tokens(line);
        let u: u32 = field(&mut it, no, "edge source", "an integer")?;
        let v: u32 = field(&mut it, no, "edge target", "an integer")?;
        let p: f64 = field(&mut it, no, "edge probability", "a number")?;
        if it.next().is_some() {
            return Err(parse_err(no, "trailing tokens in edge line"));
        }
        let p = check_edge(n, u, v, p).map_err(|e| parse_err(no, e.to_string()))?;
        edges.push((u, v, p));
    }
    Ok(())
}

/// The parallel pass over an edge section `text`: `None` if a range
/// holds a bad line or the ranges hold other than `m` edges.
fn parse_ranges(text: &[u8], n: usize, m: usize, ranges: usize) -> Option<Vec<Edge>> {
    let parse = |part: &[u8]| {
        // This range's share of `m` (checked against the input length).
        let share = (m as u128 * part.len() as u128 / text.len().max(1) as u128) as usize;
        let mut edges = Vec::with_capacity(share + 1);
        edge_lines(&mut Lines { rest: part, line: 0 }, n, m, &mut edges).ok()?;
        Some(edges)
    };
    let parts = split_at_newlines(text, ranges);
    let parsed: Vec<Option<Vec<Edge>>> = std::thread::scope(|scope| {
        let helpers: Vec<_> =
            parts[1..].iter().map(|&part| scope.spawn(move || parse(part))).collect();
        let first = parse(parts[0]);
        std::iter::once(first)
            .chain(
                helpers
                    .into_iter()
                    .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e))),
            )
            .collect()
    });
    let parsed: Vec<Vec<Edge>> = parsed.into_iter().collect::<Option<_>>()?;
    (parsed.iter().map(Vec::len).sum::<usize>() == m).then(|| parsed.concat())
}

/// Cuts `text` into `ranges` pieces of about equal length (some may be
/// empty), each but the last ending just after a newline.
fn split_at_newlines(text: &[u8], ranges: usize) -> Vec<&[u8]> {
    let mut parts = Vec::with_capacity(ranges);
    let mut start = 0;
    for i in 1..ranges {
        let aim = (text.len() * i / ranges).max(start);
        let end = text[aim..].iter().position(|&b| b == b'\n').map_or(text.len(), |k| aim + k + 1);
        parts.push(&text[start..end]);
        start = end;
    }
    parts.push(&text[start..]);
    parts
}

/// Writes a graph in the crate's text format.
pub fn write_graph<W: Write>(g: &UncertainGraph, mut writer: W) -> Result<()> {
    writeln!(writer, "# vulnds uncertain graph v1")?;
    writeln!(writer, "{} {}", g.num_nodes(), g.num_edges())?;
    for v in g.nodes() {
        writeln!(writer, "{} {}", v.0, g.self_risk(v))?;
    }
    for e in g.edges() {
        let (u, v) = g.edge_endpoints(e);
        writeln!(writer, "{} {} {}", u.0, v.0, g.edge_prob(e))?;
    }
    Ok(())
}

/// Loads a graph from a file path.
pub fn load_from_path(path: impl AsRef<Path>) -> Result<UncertainGraph> {
    decode(std::fs::read(path)?)
}

/// Saves a graph to a file path, overwriting any existing file.
pub fn save_to_path(g: &UncertainGraph, path: impl AsRef<Path>) -> Result<()> {
    let file = std::fs::File::create(path)?;
    write_graph(g, std::io::BufWriter::new(file))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{from_parts, DuplicateEdgePolicy};
    use crate::testkit::{check, mutate, random_graph, TestRng};

    fn sample() -> UncertainGraph {
        from_parts(
            &[0.1, 0.2, 0.3],
            &[(0, 1, 0.5), (1, 2, 0.25), (0, 2, 0.75)],
            DuplicateEdgePolicy::Error,
        )
        .unwrap()
    }

    fn text_of(g: &UncertainGraph) -> Vec<u8> {
        let mut buf = Vec::new();
        write_graph(g, &mut buf).unwrap();
        buf
    }

    /// Reads `text` with its edge section cut into 1, 2, 3 and 7 ranges
    /// and through `read_graph`, asserts every answer is the same graph
    /// or the same first error, and returns it.
    fn read_every_way(text: &[u8]) -> Result<UncertainGraph> {
        let one = parse(text, 1).and_then(GraphBuilder::build);
        for ranges in [2, 3, 7] {
            let got = parse(text, ranges).and_then(GraphBuilder::build);
            assert_eq!(got, one, "{ranges} ranges on {:?}", String::from_utf8_lossy(text));
        }
        assert_eq!(read_graph(text), one);
        one
    }

    fn error_line(text: &str) -> (usize, String) {
        match read_every_way(text.as_bytes()) {
            Err(GraphError::Parse { line, message }) => (line, message),
            other => panic!("expected a parse error on {text:?}, got {other:?}"),
        }
    }

    #[test]
    fn roundtrip_through_text() {
        let g = sample();
        assert_eq!(read_every_way(&text_of(&g)).unwrap(), g);
    }

    #[test]
    fn roundtrip_through_file() {
        let g = sample();
        let dir = std::env::temp_dir().join("ugraph_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.txt");
        save_to_path(&g, &path).unwrap();
        let g2 = load_from_path(&path).unwrap();
        assert_eq!(g, g2);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn write_then_read_round_trips_random_graphs() {
        check(48, |rng| {
            let g = random_graph(rng, 40, 160);
            assert_eq!(read_every_way(&text_of(&g)).unwrap(), g);
        });
        // Large enough that every range holds many lines.
        let g = random_graph(&mut TestRng::new(5), 2_000, 20_000);
        let text = text_of(&g);
        assert!(text.len() > MIN_PARALLEL_BYTES, "{} bytes", text.len());
        assert_eq!(read_every_way(&text).unwrap(), g);
    }

    #[test]
    fn comments_and_blank_lines_are_skipped() {
        let text = "# header comment\n\n3 1\n0 0.1\n# node comment\n1 0.2\n2 0.3\n\n0 1 0.5\n";
        let g = read_every_way(text.as_bytes()).unwrap();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn edge_section_allows_comments_blanks_crlf_and_tabs() {
        let plain = "3 3\n0 0.1\n1 0.2\n2 0.3\n0 1 0.5\n0 2 0.75\n1 2 0.25\n";
        let messy = "3 3\r\n0 0.1\r\n1\t0.2\n2 0.3\n# edges\n\n0\t1 0.5\r\n  \t\n\
                     # more\r\n0 2\t\t0.75  \r\n\r\n1 2 0.25\n# end\n\n";
        let g = read_every_way(plain.as_bytes()).unwrap();
        assert_eq!(read_every_way(messy.as_bytes()).unwrap(), g);
        // No trailing newline at all.
        assert_eq!(read_every_way(plain.trim_end().as_bytes()).unwrap(), g);
    }

    #[test]
    fn node_lines_in_any_order() {
        let text = "3 0\n2 0.3\n0 0.1\n1 0.2\n";
        let g = read_every_way(text.as_bytes()).unwrap();
        assert_eq!(g.self_risk(NodeId(2)), 0.3);
    }

    #[test]
    fn rejects_malformed_inputs() {
        for bad in [
            "",                                             // no header
            "2\n",                                          // missing edge count
            "2 0\n0 0.1\n",                                 // missing node line
            "2 0\n0 0.1000\n# padding\n",                   // missing node line, plausible size
            "1 0\n0 0.1 extra\n",                           // trailing token
            "1 0\n0 nope\n",                                // bad float
            "2 0\n0 0.1\n0 0.2\n",                          // duplicate node id
            "2 0\n0 0.1\n5 0.2\n",                          // node id out of range
            "2 1\n0 0.1\n1 0.2\n0 1 2.0\n",                 // probability out of range
            "1 0\n0 0.1\nleftover\n",                       // trailing content
            "2 2\n0 0.1\n1 0.2\n0 1 0.5\n# pad pad\n",      // missing edge line
            "2 1\n0 0.1\n1 0.2\n0 1 0.5\n1 0 0.5\n",        // an edge past m
            "2 1\n0 0.1\n1 0.2\n1 1 0.5\n",                 // self-loop
            "2 1\n0 0.1\n1 0.2\n0 9 0.5\n",                 // edge target out of range
            "2 1\n0 0.1\n1 0.2\n0 1\n",                     // missing probability
            "2 1\n0 0.1\n1 0.2\n0 1 0.5 7\n",               // trailing token in edge line
            "3 2\n0 0.1\n1 0.2\n2 0.3\n0 1 0.5\n0 1 0.6\n", // duplicate edge
            "2 1\n0 0.1\n1 0.2\n0 \u{a0}1 0.5\n",           // non-ASCII whitespace
            "4000000000000 0\n",                            // node count overflows u32
            "4000000000 0\n",                               // more nodes than bytes
            "1 100000000\n0 0.5\n",                         // more edges than bytes
        ] {
            assert!(read_every_way(bad.as_bytes()).is_err(), "accepted: {bad:?}");
        }
    }

    #[test]
    fn hostile_headers_are_rejected_before_allocating() {
        for (text, needle) in [
            ("4000000000000 0\n", "overflow u32"),
            ("3 99999999999\n0 0.1\n", "overflow u32"),
            ("4000000000 0\n", "need 16000000000 bytes, 0 follow"),
            ("1 100000000\n0 0.5\n", "600000004 bytes, 6 follow"),
        ] {
            let (line, message) = error_line(text);
            assert_eq!(line, 1, "{text:?}");
            assert!(
                message.starts_with("implausible header") && message.contains(needle),
                "{message}"
            );
        }
    }

    #[test]
    fn parse_error_reports_line_number() {
        assert_eq!(error_line("2 1\n0 0.1\n1 0.2\n0 1 notafloat\n").0, 4);
        assert_eq!(error_line("# c\n\n2 1\n0 0.1\n\n1 0.2\n# c\n0 1 2.0\n").0, 8);
        assert_eq!(error_line("1 0\n0 0.1\n\n# c\nleftover\n").0, 5);
    }

    #[test]
    fn eof_errors_name_the_line_after_the_last() {
        for (text, line, section) in [
            ("", 1, "missing header"),
            ("# only a comment\n\n", 3, "missing header"),
            ("2 0\n0 0.1000\n# padding\n", 4, "node section"),
            ("2 2\n0 0.1\n1 0.2\n0 1 0.5\n# pad pad\n", 6, "edge section"),
            ("2 2\n0 0.1\n1 0.2\n0 1 0.5\n# pad pad", 6, "edge section"),
        ] {
            let (got, message) = error_line(text);
            assert_eq!(got, line, "{text:?}: {message}");
            assert!(message.contains(section), "{message}");
        }
    }

    #[test]
    fn mutated_inputs_give_a_graph_or_a_typed_error() {
        let mut rng = TestRng::new(0x5EED);
        let valid = text_of(&random_graph(&mut rng, 12, 30));
        let mut accepted = 0;
        for _ in 0..1_500 {
            let mut input = mutate(&mut rng, &valid);
            for _ in 0..rng.next_bounded(3) {
                input = mutate(&mut rng, &input);
            }
            // Any answer is a `Result`; what must not happen is a panic,
            // or a graph that does not survive its own round trip.
            if let Ok(g) = read_every_way(&input) {
                assert_eq!(read_every_way(&text_of(&g)).unwrap(), g);
                accepted += 1;
            }
        }
        assert!(accepted > 0 && accepted < 1_500, "{accepted} accepted");
    }
}
