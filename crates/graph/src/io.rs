//! Edge-list I/O.
//!
//! The paper's datasets are distributed as SNAP-style whitespace-separated
//! edge lists. This module parses and writes that format and additionally
//! supports a compact binary format used by the engine's spill files and by
//! the experiment harness for caching generated graphs.

use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;

use crate::builder::{exclusive_prefix_sum, GraphBuilder};
use crate::error::GraphError;
use crate::graph::Graph;
use crate::lanes::{close_gaps, lane_count, on_lanes, windows_mut};
use crate::vertex::VertexId;
use crate::Result;

/// Parses a SNAP-style edge list from a reader.
///
/// * Lines starting with `#` or `%` are comments.
/// * Blank lines are skipped.
/// * Each data line holds two whitespace-separated vertex ids (extra columns,
///   e.g. weights/timestamps, are ignored).
/// * Vertex ids need not be dense: they are compacted to `0..n` in increasing
///   id order, so the same file always produces the same graph.
pub fn read_edge_list<R: Read>(mut reader: R) -> Result<Graph> {
    let mut bytes = Vec::new();
    reader.read_to_end(&mut bytes)?;
    load(bytes)
}

/// Reads an edge list from a file path.
pub fn read_edge_list_file<P: AsRef<Path>>(path: P) -> Result<Graph> {
    load(std::fs::read(path)?)
}

/// Loads a graph from bytes in either supported on-disk format, sniffing the
/// `QCMGRPH` magic: a binary snapshot goes through the checksummed
/// [`read_binary`] loader (corrupt files are rejected with a typed error),
/// anything else is parsed as a SNAP-style edge list. This is the loader
/// behind the CLI and the service graph registries.
pub fn read_auto(bytes: &[u8]) -> Result<Graph> {
    load_auto(bytes)
}

/// [`read_auto`] over a file path.
pub fn read_auto_file<P: AsRef<Path>>(path: P) -> Result<Graph> {
    load_auto(std::fs::read(path)?)
}

/// [`read_auto`] over borrowed or owned bytes.
fn load_auto<T: AsRef<[u8]>>(bytes: T) -> Result<Graph> {
    if bytes.as_ref().starts_with(BINARY_MAGIC) {
        read_binary(bytes.as_ref())
    } else {
        load(bytes)
    }
}

/// The one way in for edge-list text, borrowed or owned. Owned bytes are
/// freed before the CSR is built: the text is dead weight once it is parsed,
/// and the build is the peak.
fn load<T: AsRef<[u8]>>(text: T) -> Result<Graph> {
    let cuts = lane_cuts(text.as_ref(), lane_count(text.as_ref().len()));
    ingest(text, &cuts)
}

/// Where `lanes` lanes start in `text`: the first line start at or after each
/// even share of the bytes (a lane can come out empty).
fn lane_cuts(text: &[u8], lanes: usize) -> Vec<usize> {
    (1..lanes)
        .map(|lane| {
            let share = lane * text.len() / lanes;
            share + end_of_line(&text[share..])
        })
        .collect()
}

/// Edge-list text to graph: parse on one lane per stretch between `cuts`
/// (line starts, ascending), rank the ids, build. Ids are held as `u32` pairs
/// when every id in the text fits, as `u64` pairs otherwise.
fn ingest<T: AsRef<[u8]>>(text: T, cuts: &[usize]) -> Result<Graph> {
    let builder = match parse::<u32>(text.as_ref(), cuts)? {
        Some(narrow) => {
            drop(text);
            rank_narrow(narrow)?
        }
        None => {
            let wide = parse::<u64>(text.as_ref(), cuts)?.expect("a parsed id fits u64");
            drop(text);
            rank_by_sort(wide.pairs)?
        }
    };
    Ok(builder.build())
}

/// The data lines of an edge list, ids as written.
struct RawEdges<I> {
    pairs: Vec<(I, I)>,
    max_id: u64,
}

/// Why a lane stopped early.
enum Stop {
    /// An id does not fit the pair type.
    Wide,
    Malformed(GraphError),
}

/// The data lines of `text`, or `None` when an id does not fit `I`. Of several
/// malformed lines the first is reported.
fn parse<I>(text: &[u8], cuts: &[usize]) -> Result<Option<RawEdges<I>>>
where
    I: TryFrom<u64> + Copy + Default + Send,
{
    let bounds: Vec<usize> = [&[0], cuts, &[text.len()]].concat();
    let lanes: Vec<&[u8]> = bounds.windows(2).map(|w| &text[w[0]..w[1]]).collect();
    // A line yields at most one pair, so the newline count sizes the output:
    // one allocation, a window per lane.
    let newlines = on_lanes(lanes.clone(), count_newlines);
    let room: Vec<usize> = newlines.iter().map(|lines| lines + 1).collect();
    let mut pairs = vec![(I::default(), I::default()); room.iter().sum()];
    let mut first_line = 1;
    let jobs: Vec<_> = lanes
        .into_iter()
        .zip(windows_mut(&mut pairs, room.iter().copied()))
        .zip(&newlines)
        .map(|((lane, window), lines)| {
            let job = (lane, first_line, window);
            first_line += lines;
            job
        })
        .collect();
    let parsed = on_lanes(jobs, |(lane, first_line, window)| {
        parse_lane(lane, first_line, window)
    });

    // A wide id sends the whole text through again, whatever else was found;
    // otherwise the earliest lane's error is the lowest-numbered line's.
    let (mut filled, mut max_id, mut malformed) = (Vec::new(), 0, None);
    for lane in parsed {
        match lane {
            Ok((kept, lane_max)) => {
                filled.push(kept);
                max_id = max_id.max(lane_max);
            }
            Err(Stop::Wide) => return Ok(None),
            Err(Stop::Malformed(error)) => {
                malformed.get_or_insert(error);
            }
        }
    }
    if let Some(error) = malformed {
        return Err(error);
    }
    close_gaps(&mut pairs, &room, &filled);
    Ok(Some(RawEdges { pairs, max_id }))
}

/// Sums in `u8`, which the compiler turns into byte-wide vector compares:
/// four times the speed of a `usize` count.
fn count_newlines(text: &[u8]) -> usize {
    text.chunks(u8::MAX as usize)
        .map(|chunk| chunk.iter().map(|&b| u8::from(b == b'\n')).sum::<u8>() as usize)
        .sum()
}

/// What separates the columns of a data line.
fn is_separator(b: u8) -> bool {
    matches!(b, b' ' | b'\t' | b'\r' | 0x0b | 0x0c)
}

/// What a column ends at, besides the end of the text.
fn ends_column(b: u8) -> bool {
    is_separator(b) || b == b'\n'
}

fn skip_separators(mut text: &[u8]) -> &[u8] {
    while let [b, rest @ ..] = text {
        if !is_separator(*b) {
            break;
        }
        text = rest;
    }
    text
}

/// Bytes up to the end of the line `text` starts in, its `\n` included.
fn end_of_line(text: &[u8]) -> usize {
    text.iter()
        .position(|&b| b == b'\n')
        .map_or(text.len(), |newline| newline + 1)
}

/// One lane of the parser: reads every line of `text` (whole lines, the first
/// being line `line` of the file) once, left to right, and writes the ids of
/// its data lines to the front of `pairs`. Returns how many it wrote and the
/// largest id.
///
/// A line is split at `\n` (a trailing `\r` is a separator); blank lines and
/// lines whose first column starts with `#` or `%` are skipped; of any other
/// line the first two columns are read and the rest ignored.
fn parse_lane<I: TryFrom<u64>>(
    text: &[u8],
    mut line: usize,
    pairs: &mut [(I, I)],
) -> std::result::Result<(usize, u64), Stop> {
    let room = pairs.len();
    let mut free = pairs.iter_mut();
    let (mut rest, mut max_id) = (text, 0);
    while !rest.is_empty() {
        rest = skip_separators(rest);
        if !matches!(rest.first(), None | Some(b'\n' | b'#' | b'%')) {
            let (a, after) = take_id(rest, line)?;
            let (b, after) = take_id(skip_separators(after), line)?;
            let (Ok(narrow_a), Ok(narrow_b)) = (I::try_from(a), I::try_from(b)) else {
                return Err(Stop::Wide);
            };
            *free.next().expect("a line yields at most one pair") = (narrow_a, narrow_b);
            max_id = max_id.max(a).max(b);
            rest = after;
        }
        rest = &rest[end_of_line(rest)..];
        line += 1;
    }
    Ok((room - free.len(), max_id))
}

/// Reads the vertex id `column` starts with; returns it and what follows.
fn take_id(column: &[u8], line: usize) -> std::result::Result<(u64, &[u8]), Stop> {
    let (mut id, mut rest) = (0u64, column);
    while let [digit @ b'0'..=b'9', after @ ..] = rest {
        id = id.wrapping_mul(10).wrapping_add(u64::from(digit - b'0'));
        rest = after;
    }
    // Up to 19 digits always fit.
    let digits = column.len() - rest.len();
    if (1..=19).contains(&digits) && rest.first().map_or(true, |&b| ends_column(b)) {
        return Ok((id, rest));
    }
    // Anything else (no column at all, a sign, 20 digits, garbage) takes the
    // column whole and goes through the standard parser, which also words the
    // error.
    let len = column
        .iter()
        .position(|&b| ends_column(b))
        .unwrap_or(column.len());
    let (column, rest) = column.split_at(len);
    let message = if column.is_empty() {
        "expected two vertex ids".to_string()
    } else {
        let column = String::from_utf8_lossy(column);
        match column.parse::<u64>() {
            Ok(id) => return Ok((id, rest)),
            Err(e) => format!("invalid vertex id {column:?}: {e}"),
        }
    };
    Err(Stop::Malformed(GraphError::Parse { line, message }))
}

/// Ranks `u32` ids to `0..n` in increasing id order, in place.
fn rank_narrow(edges: RawEdges<u32>) -> Result<GraphBuilder> {
    let RawEdges { mut pairs, max_id } = edges;
    // A sparse id space sorts its distinct ids.
    if max_id >= (4 * pairs.len() as u64).min(u64::from(u32::MAX)) {
        return rank_by_sort(pairs);
    }
    // Ids that are dense enough are ranked through a presence table — one
    // pass, no sort, no search, at most 4 table bytes per id token.
    let mut table = vec![0u32; max_id as usize + 1];
    for &(a, b) in &pairs {
        table[a as usize] = 1;
        table[b as usize] = 1;
    }
    // Over the presence flags: the slot of a present id ends up holding its
    // rank.
    let distinct = exclusive_prefix_sum(&mut table);
    for (a, b) in &mut pairs {
        *a = table[*a as usize];
        *b = table[*b as usize];
    }
    Ok(GraphBuilder::from_ranked(pairs, distinct as usize))
}

/// Ranks ids of any width by sorting the distinct ones.
fn rank_by_sort<I: Copy + Ord>(pairs: Vec<(I, I)>) -> Result<GraphBuilder> {
    let mut ids: Vec<I> = pairs.iter().flat_map(|&(a, b)| [a, b]).collect();
    ids.sort_unstable();
    ids.dedup();
    if ids.len() > u32::MAX as usize {
        return Err(GraphError::TooManyVertices(ids.len()));
    }
    let rank = |id: I| ids.binary_search(&id).expect("every id was collected") as u32;
    let ranked = pairs.iter().map(|&(a, b)| (rank(a), rank(b))).collect();
    Ok(GraphBuilder::from_ranked(ranked, ids.len()))
}

/// Writes the graph as a SNAP-style edge list (one `u v` pair per line, each
/// undirected edge written once, preceded by a summary comment).
pub fn write_edge_list<W: Write>(g: &Graph, writer: W) -> Result<()> {
    let mut w = BufWriter::new(writer);
    writeln!(
        w,
        "# Undirected graph: {} vertices, {} edges",
        g.num_vertices(),
        g.num_edges()
    )?;
    for (u, v) in g.edges() {
        writeln!(w, "{}\t{}", u.raw(), v.raw())?;
    }
    w.flush()?;
    Ok(())
}

/// Writes the graph as an edge list to a file path.
pub fn write_edge_list_file<P: AsRef<Path>>(g: &Graph, path: P) -> Result<()> {
    let file = File::create(path)?;
    write_edge_list(g, file)
}

/// Shared 7-byte magic prefix of every binary graph snapshot; the eighth byte
/// is the format version.
const BINARY_MAGIC: &[u8; 7] = b"QCMGRPH";
/// Current snapshot version: checksummed, with header sanity checks.
const BINARY_VERSION: u8 = 2;
/// The pre-checksum version-1 tag (written as the ASCII digit `1` — version 1
/// used the 8-byte magic `QCMGRPH1`). Still readable for old snapshots.
const BINARY_VERSION_LEGACY: u8 = b'1';

/// Writes the graph in a compact little-endian binary snapshot:
/// `"QCMGRPH" | version: u8 | n: u64 | m: u64 | degrees: [u32; n] |
/// neighbors: [u32; sum(deg)] | checksum: u64`.
///
/// The trailing checksum is the FNV-1a hash ([`crate::hash::Fnv1a64`]) of
/// every byte between the version byte and the checksum itself, so
/// [`read_binary`] detects truncation and bit corruption instead of
/// constructing a garbage graph.
pub fn write_binary<W: Write>(g: &Graph, writer: W) -> Result<()> {
    let mut w = BufWriter::new(writer);
    w.write_all(BINARY_MAGIC)?;
    w.write_all(&[BINARY_VERSION])?;
    let mut hash = crate::hash::Fnv1a64::new();
    write_hashed_u64(&mut w, &mut hash, g.num_vertices() as u64)?;
    write_hashed_u64(&mut w, &mut hash, g.num_edges() as u64)?;
    for v in g.vertices() {
        write_hashed_u32(&mut w, &mut hash, g.degree(v) as u32)?;
    }
    for v in g.vertices() {
        for &u in g.neighbors(v) {
            write_hashed_u32(&mut w, &mut hash, u.raw())?;
        }
    }
    w.write_all(&hash.finish().to_le_bytes())?;
    w.flush()?;
    Ok(())
}

/// Reads a graph written by [`write_binary`].
///
/// Accepts the current checksummed version-2 format and the legacy
/// pre-checksum version 1. Truncated input, an unsupported version byte,
/// inconsistent header counts (degree sum ≠ 2·m), out-of-range neighbor ids
/// and (for version 2) a checksum mismatch all return a [`GraphError`]
/// instead of panicking or yielding a corrupt graph — this is the safe load
/// path for service graph registries and cached snapshots.
pub fn read_binary<R: Read>(reader: R) -> Result<Graph> {
    let mut r = BufReader::new(reader);
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic[..7] != BINARY_MAGIC {
        return Err(GraphError::Format {
            message: "bad magic header for binary graph".to_string(),
        });
    }
    let checksummed = match magic[7] {
        BINARY_VERSION => true,
        BINARY_VERSION_LEGACY => false,
        other => {
            return Err(GraphError::Format {
                message: format!(
                    "unsupported binary graph version {other} (supported: 1 and {BINARY_VERSION})"
                ),
            })
        }
    };
    let mut hash = crate::hash::Fnv1a64::new();
    let n64 = read_hashed_u64(&mut r, &mut hash)?;
    if n64 > u32::MAX as u64 {
        return Err(GraphError::Format {
            message: format!("vertex count {n64} exceeds the u32 id space"),
        });
    }
    let n = n64 as usize;
    let declared_edges = read_hashed_u64(&mut r, &mut hash)?;
    // Cap preallocations: a corrupt header must not trigger a huge upfront
    // allocation — the reads below fail fast on EOF long before `Vec` growth
    // reaches a bogus multi-gigabyte count.
    const PREALLOC_CAP: usize = 1 << 22;
    let mut degrees: Vec<u32> = Vec::with_capacity(n.min(PREALLOC_CAP));
    // Checked u64 arithmetic throughout: a corrupt or malicious header must
    // surface as a Format error, never as an overflow panic (debug) or a
    // wrapped value that sneaks past the consistency check (release).
    let mut total_u64 = 0u64;
    for _ in 0..n {
        let d = read_hashed_u32(&mut r, &mut hash)?;
        total_u64 = total_u64
            .checked_add(d as u64)
            .ok_or_else(|| GraphError::Format {
                message: "degree sum overflows u64".to_string(),
            })?;
        degrees.push(d);
    }
    // An undirected CSR stores every edge twice; verify before reading the
    // adjacency payload so a corrupt header fails fast.
    let doubled_edges = declared_edges.checked_mul(2);
    if doubled_edges != Some(total_u64) {
        return Err(GraphError::Format {
            message: format!(
                "degree sum {total_u64} does not match 2 × declared edge count {declared_edges}"
            ),
        });
    }
    let total = usize::try_from(total_u64).map_err(|_| GraphError::Format {
        message: format!("adjacency payload of {total_u64} entries exceeds the address space"),
    })?;
    let mut offsets = vec![0usize; n + 1];
    for i in 0..n {
        offsets[i + 1] = offsets[i] + degrees[i] as usize;
    }
    let mut neighbors = Vec::with_capacity(total.min(PREALLOC_CAP));
    for _ in 0..total {
        let v = read_hashed_u32(&mut r, &mut hash)?;
        if v as usize >= n {
            return Err(GraphError::VertexOutOfRange {
                vertex: v,
                num_vertices: n,
            });
        }
        neighbors.push(VertexId::new(v));
    }
    if checksummed {
        let mut buf = [0u8; 8];
        r.read_exact(&mut buf)?;
        let declared = u64::from_le_bytes(buf);
        let computed = hash.finish();
        if declared != computed {
            return Err(GraphError::Format {
                message: format!(
                    "checksum mismatch: snapshot declares {declared:#018x}, \
                     payload hashes to {computed:#018x}"
                ),
            });
        }
    }
    Ok(Graph::from_csr(offsets, neighbors))
}

fn write_hashed_u64<W: Write>(w: &mut W, hash: &mut crate::hash::Fnv1a64, v: u64) -> Result<()> {
    let bytes = v.to_le_bytes();
    hash.write(&bytes);
    w.write_all(&bytes)?;
    Ok(())
}

fn write_hashed_u32<W: Write>(w: &mut W, hash: &mut crate::hash::Fnv1a64, v: u32) -> Result<()> {
    let bytes = v.to_le_bytes();
    hash.write(&bytes);
    w.write_all(&bytes)?;
    Ok(())
}

fn read_hashed_u64<R: Read>(r: &mut R, hash: &mut crate::hash::Fnv1a64) -> Result<u64> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)?;
    hash.write(&buf);
    Ok(u64::from_le_bytes(buf))
}

fn read_hashed_u32<R: Read>(r: &mut R, hash: &mut crate::hash::Fnv1a64) -> Result<u32> {
    let mut buf = [0u8; 4];
    r.read_exact(&mut buf)?;
    hash.write(&buf);
    Ok(u32::from_le_bytes(buf))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_simple_edge_list() {
        let input = "# comment\n% another comment\n\n1 2\n2 3 17\n10 1\n";
        let g = read_edge_list(input.as_bytes()).unwrap();
        // Distinct ids {1,2,3,10} compact to 4 vertices.
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 3);
        g.validate().unwrap();
    }

    #[test]
    fn parse_rejects_garbage() {
        let input = "1 x\n";
        let err = read_edge_list(input.as_bytes()).unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 1, .. }));

        let input = "42\n";
        let err = read_edge_list(input.as_bytes()).unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 1, .. }));
    }

    /// The line-at-a-time parser this module started with: a `String` per
    /// line, Unicode `trim`/`split_whitespace`, ids ranked by sort + binary
    /// search. Kept as the reference the tests below check the ingest
    /// against.
    fn reference_read_edge_list(input: &[u8]) -> Result<Graph> {
        use std::io::BufRead;
        let mut raw_edges: Vec<(u64, u64)> = Vec::new();
        let mut ids: Vec<u64> = Vec::new();
        for (lineno, line) in input.lines().enumerate() {
            let line = line?;
            let trimmed = line.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
                continue;
            }
            let mut parts = trimmed.split_whitespace();
            let mut id = || -> Result<u64> {
                let token = parts.next().ok_or_else(|| GraphError::Parse {
                    line: lineno + 1,
                    message: "expected two vertex ids".to_string(),
                })?;
                token.parse::<u64>().map_err(|e| GraphError::Parse {
                    line: lineno + 1,
                    message: format!("invalid vertex id {token:?}: {e}"),
                })
            };
            let (a, b) = (id()?, id()?);
            raw_edges.push((a, b));
            ids.extend([a, b]);
        }
        ids.sort_unstable();
        ids.dedup();
        let mut builder = GraphBuilder::with_capacity(ids.len(), raw_edges.len());
        for (a, b) in raw_edges {
            let la = ids.binary_search(&a).unwrap() as u32;
            let lb = ids.binary_search(&b).unwrap() as u32;
            builder.add_edge_raw(la, lb);
        }
        Ok(builder.build())
    }

    /// Every way to cut `input` into one, two and three lanes: no cut, every
    /// line start, every pair of line starts (a repeated or final one leaves
    /// a lane empty).
    fn every_lane_cut(input: &[u8]) -> Vec<Vec<usize>> {
        let line_starts: Vec<usize> = (0..input.len())
            .filter(|&at| input[at] == b'\n')
            .map(|at| at + 1)
            .collect();
        let mut cuts = vec![Vec::new()];
        for (i, &first) in line_starts.iter().enumerate() {
            cuts.push(vec![first]);
            cuts.extend(line_starts[i..].iter().map(|&second| vec![first, second]));
        }
        cuts
    }

    #[test]
    fn byte_parser_agrees_with_the_line_parser_on_a_corpus() {
        let corpus: [&str; 13] = [
            "",
            "\n\n",
            "# only a comment",
            "1 2\n2 3\n3 1",
            "# header\n% matrix-market style\n\n1\t2\n2   3 17 extra columns\n 10 1 \n",
            "1 2\r\n2 3\r\n\r\n# crlf comment\r\n3 1\r\n",
            // Dense ids: the presence-table path, with a gap and a zero.
            "0 5\n5 3\n3 0\n9 5\n",
            // Sparse 64-bit ids: the sort + search path.
            "18446744073709551615 7\n7 9000000000000000000\n9000000000000000000 18446744073709551615\n",
            // The first id past `u32` comes late: the lanes before it start over.
            "1 2\n2 3\n3 4294967295\n4294967296 1\n",
            // Duplicates, reversed duplicates and self loops.
            "1 2\n2 1\n1 2\n4 4\n2 3\n",
            // A self loop is the only mention of vertex 8: it stays, isolated.
            "1 2\n8 8\n",
            "+1 2\n\t3\x0b4\x0c5\n",
            "7 7",
        ];
        for input in corpus {
            let old = reference_read_edge_list(input.as_bytes()).unwrap();
            for cuts in every_lane_cut(input.as_bytes()) {
                let new = ingest(input.as_bytes(), &cuts).unwrap();
                assert_eq!(new, old, "input {input:?} cut at {cuts:?}");
                new.validate().unwrap();
            }
            assert_eq!(read_edge_list(input.as_bytes()).unwrap(), old);
            assert_eq!(read_auto(input.as_bytes()).unwrap(), old, "input {input:?}");
        }
    }

    #[test]
    fn malformed_lines_keep_their_line_numbers_and_messages() {
        let corpus: [(&str, usize); 11] = [
            ("1 x\n", 1),
            ("42\n", 1),
            ("1 2\n# c\n\n3\n", 4),
            ("1 2\r\n3 -4\r\n", 2),
            ("1 2\n2 3\n4 18446744073709551616\n", 3),
            ("1 2\n1.5 2\n", 2),
            ("1 2\n\n\n5 0x10", 4),
            ("1 2\n3 4 \n#\n 5", 4),
            // Several malformed lines: the lowest-numbered one is reported,
            // whichever lanes the others fall in.
            ("1 2\n3 y\n4 5\n6\n7 z\n", 2),
            ("1 2\n\n3 4\nq\n5 6\n7 8 9\n1 -1\n", 4),
            // A wide id before or after the malformed line changes nothing.
            ("1 4294967296\n2 x\n3 4\n5 99999999999\n6\n", 2),
        ];
        for (input, line) in corpus {
            let old = reference_read_edge_list(input.as_bytes()).unwrap_err();
            for cuts in every_lane_cut(input.as_bytes()) {
                let new = ingest(input.as_bytes(), &cuts).unwrap_err();
                assert!(
                    matches!(&new, GraphError::Parse { line: l, .. } if *l == line),
                    "input {input:?} cut at {cuts:?}: {new:?}"
                );
                assert_eq!(new.to_string(), old.to_string(), "input {input:?}");
            }
            assert_eq!(
                read_edge_list(input.as_bytes()).unwrap_err().to_string(),
                old.to_string()
            );
            assert_eq!(
                read_auto(input.as_bytes()).unwrap_err().to_string(),
                old.to_string()
            );
        }
    }

    /// A small linear congruential generator: the tests below need
    /// repeatable noise, not quality.
    struct Lcg(u64);

    impl Lcg {
        fn below(&mut self, bound: u64) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (self.0 >> 33) % bound
        }

        fn pick<'a>(&mut self, from: &[&'a str]) -> &'a str {
            from[self.below(from.len() as u64) as usize]
        }
    }

    #[test]
    fn byte_soup_loads_like_the_line_parser() {
        const SEPARATORS: [&str; 5] = [" ", "\t", "\r", "\x0b", "\x0c"];
        const ENDS: [&str; 4] = ["\n", "\n", "\r\n", " \n"];
        const NOISE: [&str; 9] = ["#", "%", "+", "-", "x", "7", "\n", "\r\n", " "];
        // 19, 20 and 21 digits, and both sides of `u32::MAX` and `u64::MAX`.
        const LONG: [&str; 8] = [
            "4294967294",
            "4294967295",
            "4294967296",
            "9999999999999999999",
            "18446744073709551615",
            "18446744073709551616",
            "000000000000000000012",
            "100000000000000000000",
        ];
        let mut rng = Lcg(23);
        let (cases, mut errors, mut wide, mut sparse, mut dense) = (1500, 0, 0, 0, 0);
        for case in 0..cases {
            // How far ids spread, how often a long token or noise shows up.
            let spread = [8, 40, 100_000][case % 3];
            let long_one_in = [1000, 1000, 12][case / 3 % 3];
            let noise_one_in = [1000, 60, 12][case / 9 % 3];
            let mut text = String::new();
            let token = |rng: &mut Lcg, text: &mut String| {
                if rng.below(long_one_in) == 0 {
                    text.push_str(rng.pick(&LONG));
                } else {
                    text.push_str(&rng.below(spread).to_string());
                }
                if rng.below(noise_one_in) == 0 {
                    text.push_str(rng.pick(&NOISE));
                }
            };
            for _ in 0..rng.below(24) {
                match rng.below(10) {
                    0 => text.push_str("# a comment 1 2"),
                    1 => text.push_str(rng.pick(&SEPARATORS)),
                    _ => {
                        for column in 0..2 + rng.below(6) / 5 {
                            if column > 0 || rng.below(4) == 0 {
                                text.push_str(rng.pick(&SEPARATORS));
                            }
                            token(&mut rng, &mut text);
                        }
                    }
                }
                if rng.below(noise_one_in) == 0 {
                    text.push_str(rng.pick(&NOISE));
                }
                text.push_str(rng.pick(&ENDS));
            }
            if rng.below(3) == 0 {
                token(&mut rng, &mut text);
            }

            let text = text.as_bytes();
            let all_cuts = every_lane_cut(text);
            let cuts = &all_cuts[rng.below(all_cuts.len() as u64) as usize];
            match (ingest(text, cuts), reference_read_edge_list(text)) {
                (Ok(new), Ok(old)) => {
                    assert_eq!(new, old, "text {text:?} cut at {cuts:?}");
                    new.validate().unwrap();
                    match parse::<u32>(text, cuts).unwrap() {
                        None => wide += 1,
                        Some(raw) if raw.max_id >= 4 * raw.pairs.len() as u64 => sparse += 1,
                        Some(_) => dense += 1,
                    }
                }
                (Err(new), Err(old)) => {
                    assert_eq!(new.to_string(), old.to_string(), "text {text:?}");
                    errors += 1;
                }
                (new, old) => panic!("text {text:?} cut at {cuts:?}: {new:?} but {old:?}"),
            }
        }
        // The generator must keep reaching every branch of the ingest.
        assert_eq!(errors + wide + sparse + dense, cases);
        assert_eq!((errors, wide, sparse, dense), (875, 54, 356, 215));
    }

    #[test]
    fn a_large_shuffled_edge_list_loads_the_same_on_any_lanes() {
        use crate::lanes::lanes_on;
        // 540 000 lines over about 100 000 ids, a timestamp column on each:
        // with two cores both the parser and the builder take two lanes.
        const LINES: usize = 540_000;
        let mut rng = Lcg(5);
        let mut pairs: Vec<(u32, u32)> = Vec::with_capacity(LINES);
        while pairs.len() < LINES {
            // Squaring skews the degrees; `3 *` leaves gaps in the id space.
            let a = 3 * (rng.below(320) * rng.below(320)) as u32;
            let b = 3 * rng.below(100_000) as u32;
            pairs.push((a, b));
            match rng.below(16) {
                0 => pairs.push((a, b)),
                1 => pairs.push((b, a)),
                2 => pairs.push((a, a)),
                _ => {}
            }
        }
        pairs.truncate(LINES);
        for i in (1..pairs.len()).rev() {
            pairs.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let mut text = String::new();
        for (i, (a, b)) in pairs.iter().enumerate() {
            if i % 4096 == 7 {
                text.push_str("# a comment in the middle\n");
            }
            let end = if i % 3000 == 11 { "\r\n" } else { "\n" };
            text.push_str(&format!("{a}\t{b}\t{}{end}", 1_300_000_000 + i));
        }
        let text = text.as_bytes();
        assert!(lanes_on(text.len(), 2) == 2 && lanes_on(16 * LINES, 2) == 2);

        let loaded = read_edge_list(text).unwrap();
        loaded.validate().unwrap();
        assert_eq!(loaded, reference_read_edge_list(text).unwrap());
        // Three lanes whatever this host has.
        assert_eq!(loaded, ingest(text, &lane_cuts(text, 3)).unwrap());

        let mut ids: Vec<u32> = pairs.iter().flat_map(|&(a, b)| [a, b]).collect();
        ids.sort_unstable();
        ids.dedup();
        let mut builder = GraphBuilder::new();
        for (a, b) in pairs {
            let rank = |id: u32| ids.binary_search(&id).unwrap() as u32;
            builder.add_edge_raw(rank(a), rank(b));
        }
        assert_eq!(loaded, builder.build());
    }

    #[test]
    fn a_file_and_its_bytes_load_the_same_graph() {
        let dir = std::env::temp_dir().join(format!("qcm_graph_io_same_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("graph.txt");
        let text = "# g\n5 1\n1 9\n9 5\n1 2\n";
        std::fs::write(&path, text).unwrap();
        let from_file = read_edge_list_file(&path).unwrap();
        assert_eq!(from_file, read_edge_list(text.as_bytes()).unwrap());
        assert_eq!(from_file, read_auto_file(&path).unwrap());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn edge_list_roundtrip() {
        let g = Graph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)]).unwrap();
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let g2 = read_edge_list(buf.as_slice()).unwrap();
        assert_eq!(g.num_vertices(), g2.num_vertices());
        assert_eq!(g.num_edges(), g2.num_edges());
        for (u, v) in g.edges() {
            assert!(g2.has_edge(u, v));
        }
    }

    #[test]
    fn binary_roundtrip_preserves_structure() {
        let g =
            Graph::from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)]).unwrap();
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        let g2 = read_binary(buf.as_slice()).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn binary_rejects_bad_magic() {
        let buf = b"NOTMAGIC\0\0\0\0\0\0\0\0".to_vec();
        let err = read_binary(buf.as_slice()).unwrap_err();
        assert!(matches!(err, GraphError::Format { .. }));
    }

    #[test]
    fn binary_rejects_unsupported_version() {
        let mut buf = Vec::new();
        buf.extend_from_slice(BINARY_MAGIC);
        buf.push(99);
        buf.extend_from_slice(&[0u8; 16]);
        let err = read_binary(buf.as_slice()).unwrap_err();
        let GraphError::Format { message } = err else {
            panic!("expected Format error");
        };
        assert!(message.contains("version 99"), "{message}");
    }

    #[test]
    fn binary_rejects_truncation_everywhere() {
        let g = Graph::from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]).unwrap();
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        // Cutting the snapshot at any prefix length must yield an error, never
        // a silently wrong graph.
        for cut in 0..buf.len() {
            let err = read_binary(&buf[..cut]).unwrap_err();
            assert!(
                matches!(err, GraphError::Io(_) | GraphError::Format { .. }),
                "cut at {cut}: unexpected {err:?}"
            );
        }
    }

    #[test]
    fn binary_detects_bit_corruption_via_checksum() {
        let g = Graph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]).unwrap();
        let mut clean = Vec::new();
        write_binary(&g, &mut clean).unwrap();
        // Flip one payload byte (inside the neighbor section, past the
        // 8-byte magic and 16-byte header) — the checksum must catch it even
        // when the result would still be a structurally plausible graph.
        let mut corrupt = clean.clone();
        let idx = corrupt.len() - 12; // last neighbor word
        corrupt[idx] ^= 0x01;
        let err = read_binary(corrupt.as_slice()).unwrap_err();
        assert!(
            matches!(
                err,
                GraphError::Format { .. } | GraphError::VertexOutOfRange { .. }
            ),
            "unexpected {err:?}"
        );
    }

    #[test]
    fn binary_rejects_inconsistent_header_counts() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        // Overstate the declared edge count: degree sum no longer matches.
        buf[16..24].copy_from_slice(&100u64.to_le_bytes());
        let err = read_binary(buf.as_slice()).unwrap_err();
        let GraphError::Format { message } = err else {
            panic!("expected Format error");
        };
        assert!(message.contains("degree sum"), "{message}");
    }

    #[test]
    fn binary_rejects_overflowing_edge_count_without_panicking() {
        // declared_edges = 2^63 + m wraps to 2·m under a naive `m * 2`,
        // which would sneak past the degree-sum check on checksum-less v1
        // files; the checked arithmetic must reject it as Format instead.
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
        let mut buf = Vec::new();
        buf.extend_from_slice(b"QCMGRPH1");
        buf.extend_from_slice(&(g.num_vertices() as u64).to_le_bytes());
        let lying_m = (1u64 << 63) + g.num_edges() as u64;
        buf.extend_from_slice(&lying_m.to_le_bytes());
        for v in g.vertices() {
            buf.extend_from_slice(&(g.degree(v) as u32).to_le_bytes());
        }
        for v in g.vertices() {
            for &u in g.neighbors(v) {
                buf.extend_from_slice(&u.raw().to_le_bytes());
            }
        }
        let err = read_binary(buf.as_slice()).unwrap_err();
        assert!(matches!(err, GraphError::Format { .. }), "{err:?}");
    }

    #[test]
    fn binary_reads_legacy_version1_snapshots() {
        // Version 1 had no checksum: `QCMGRPH1 | n | m | degrees | neighbors`.
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)]).unwrap();
        let mut buf = Vec::new();
        buf.extend_from_slice(b"QCMGRPH1");
        buf.extend_from_slice(&(g.num_vertices() as u64).to_le_bytes());
        buf.extend_from_slice(&(g.num_edges() as u64).to_le_bytes());
        for v in g.vertices() {
            buf.extend_from_slice(&(g.degree(v) as u32).to_le_bytes());
        }
        for v in g.vertices() {
            for &u in g.neighbors(v) {
                buf.extend_from_slice(&u.raw().to_le_bytes());
            }
        }
        let g2 = read_binary(buf.as_slice()).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join(format!("qcm_graph_io_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("test_graph.txt");
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
        write_edge_list_file(&g, &path).unwrap();
        let g2 = read_edge_list_file(&path).unwrap();
        assert_eq!(g.num_edges(), g2.num_edges());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn isolated_vertices_are_not_preserved_by_edge_list() {
        // Edge lists cannot represent isolated vertices; only mentioned ids
        // survive a round trip. This documents the (expected) behaviour.
        let g = Graph::from_edges(10, [(0, 1)]).unwrap();
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let g2 = read_edge_list(buf.as_slice()).unwrap();
        assert_eq!(g2.num_vertices(), 2);
    }
}
