//! Edge-list I/O.
//!
//! The paper's datasets are distributed as SNAP-style whitespace-separated
//! edge lists. This module parses and writes that format and additionally
//! supports a compact binary format used by the engine's spill files and by
//! the experiment harness for caching generated graphs.

use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;

use crate::builder::GraphBuilder;
use crate::error::GraphError;
use crate::graph::Graph;
use crate::vertex::VertexId;
use crate::Result;

/// Parses a SNAP-style edge list from a reader.
///
/// * Lines starting with `#` or `%` are comments.
/// * Blank lines are skipped.
/// * Each data line holds two whitespace-separated vertex ids (extra columns,
///   e.g. weights/timestamps, are ignored).
/// * Vertex ids need not be dense: they are compacted to `0..n` in first-seen
///   order of the sorted distinct ids, so the same file always produces the
///   same graph.
pub fn read_edge_list<R: Read>(mut reader: R) -> Result<Graph> {
    let mut bytes = Vec::new();
    reader.read_to_end(&mut bytes)?;
    parse_edge_list(&bytes)?.compact()
}

/// Reads an edge list from a file path.
pub fn read_edge_list_file<P: AsRef<Path>>(path: P) -> Result<Graph> {
    let bytes = std::fs::read(path)?;
    let edges = parse_edge_list(&bytes)?;
    // The text is dead weight from here on; building the CSR is the peak.
    drop(bytes);
    edges.compact()
}

/// The data lines of an edge list, ids as written.
struct RawEdges {
    edges: Vec<(u64, u64)>,
    max_id: u64,
}

/// The one edge-list parser: splits `bytes` at `\n` (a trailing `\r` is
/// whitespace), skips blank and comment lines, and reads the first two tokens
/// of every other line. Works on the bytes in place — no per-line allocation.
fn parse_edge_list(bytes: &[u8]) -> Result<RawEdges> {
    // About 14 bytes per data line in the paper's datasets.
    let mut edges: Vec<(u64, u64)> = Vec::with_capacity(bytes.len() / 14);
    let mut max_id = 0u64;
    for (lineno, line) in bytes.split(|&b| b == b'\n').enumerate() {
        let line = skip_separators(line);
        if matches!(line.first(), None | Some(b'#' | b'%')) {
            continue;
        }
        let (a, rest) = take_id(line, lineno + 1)?;
        let (b, _) = take_id(skip_separators(rest), lineno + 1)?;
        edges.push((a, b));
        max_id = max_id.max(a).max(b);
    }
    Ok(RawEdges { edges, max_id })
}

/// What separates the columns of a data line.
fn is_separator(b: u8) -> bool {
    matches!(b, b' ' | b'\t' | b'\r' | 0x0b | 0x0c)
}

fn skip_separators(line: &[u8]) -> &[u8] {
    let start = line.iter().position(|&b| !is_separator(b));
    &line[start.unwrap_or(line.len())..]
}

/// Reads the vertex id at the head of `line`; returns it and what follows.
fn take_id(line: &[u8], lineno: usize) -> Result<(u64, &[u8])> {
    let end = line.iter().position(|&b| is_separator(b));
    let (token, rest) = line.split_at(end.unwrap_or(line.len()));
    if token.is_empty() {
        return Err(GraphError::Parse {
            line: lineno,
            message: "expected two vertex ids".to_string(),
        });
    }
    // Up to 19 digits always fit; anything else (a sign, 20 digits, garbage)
    // goes through the standard parser, which also words the error.
    if token.len() <= 19 && token.iter().all(u8::is_ascii_digit) {
        let digits = token.iter().map(|&d| u64::from(d - b'0'));
        return Ok((digits.fold(0, |id, d| id * 10 + d), rest));
    }
    let token = String::from_utf8_lossy(token);
    match token.parse::<u64>() {
        Ok(id) => Ok((id, rest)),
        Err(e) => Err(GraphError::Parse {
            line: lineno,
            message: format!("invalid vertex id {token:?}: {e}"),
        }),
    }
}

impl RawEdges {
    /// Compacts the ids to `0..n` in increasing id order and builds the
    /// graph.
    fn compact(self) -> Result<Graph> {
        let RawEdges { edges, max_id } = self;
        // Ids that are dense enough are ranked through a presence table —
        // one pass, no sort, no search, at most 4 table bytes per id token.
        // A sparse id space (64-bit hashes, say) sorts its distinct ids.
        if max_id < (4 * edges.len() as u64).min(u64::from(u32::MAX)) {
            let mut table = vec![0u32; max_id as usize + 1];
            for &(a, b) in &edges {
                table[a as usize] = 1;
                table[b as usize] = 1;
            }
            // Exclusive prefix sum over the presence flags: the slot of a
            // present id ends up holding its rank.
            let mut next = 0u32;
            for slot in &mut table {
                next += std::mem::replace(slot, next);
            }
            return Ok(build_ranked(edges, |id| table[id as usize]));
        }
        let mut ids: Vec<u64> = edges.iter().flat_map(|&(a, b)| [a, b]).collect();
        ids.sort_unstable();
        ids.dedup();
        if ids.len() > u32::MAX as usize {
            return Err(GraphError::TooManyVertices(ids.len()));
        }
        let rank = |id: u64| ids.binary_search(&id).expect("id must exist") as u32;
        Ok(build_ranked(edges, rank))
    }
}

fn build_ranked(edges: Vec<(u64, u64)>, rank: impl Fn(u64) -> u32) -> Graph {
    let mut builder = GraphBuilder::with_capacity(0, edges.len());
    for (a, b) in edges {
        builder.add_edge_raw(rank(a), rank(b));
    }
    builder.build()
}

/// Loads a graph from bytes in either supported on-disk format, sniffing the
/// `QCMGRPH` magic: a binary snapshot goes through the checksummed
/// [`read_binary`] loader (corrupt files are rejected with a typed error),
/// anything else is parsed as a SNAP-style edge list. This is the loader
/// behind the CLI and the service graph registries.
pub fn read_auto(bytes: &[u8]) -> Result<Graph> {
    if bytes.starts_with(BINARY_MAGIC) {
        read_binary(bytes)
    } else {
        parse_edge_list(bytes)?.compact()
    }
}

/// [`read_auto`] over a file path.
pub fn read_auto_file<P: AsRef<Path>>(path: P) -> Result<Graph> {
    let bytes = std::fs::read(path)?;
    read_auto(&bytes)
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

    /// The line-at-a-time parser this module used before the byte-slice one:
    /// a `String` per line, Unicode `trim`/`split_whitespace`, ids ranked by
    /// sort + binary search. Kept as the reference the corpus below is
    /// checked against.
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

    #[test]
    fn byte_parser_agrees_with_the_line_parser_on_a_corpus() {
        let corpus: [&str; 12] = [
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
            // Duplicates, reversed duplicates and self loops.
            "1 2\n2 1\n1 2\n4 4\n2 3\n",
            // A self loop is the only mention of vertex 8: it stays, isolated.
            "1 2\n8 8\n",
            "+1 2\n\t3\x0b4\x0c5\n",
            "7 7",
        ];
        for input in corpus {
            let new = read_edge_list(input.as_bytes()).unwrap();
            let old = reference_read_edge_list(input.as_bytes()).unwrap();
            assert_eq!(new, old, "input {input:?}");
            assert_eq!(read_auto(input.as_bytes()).unwrap(), old, "input {input:?}");
            new.validate().unwrap();
        }
    }

    #[test]
    fn malformed_lines_keep_their_line_numbers_and_messages() {
        let corpus: [(&str, usize); 8] = [
            ("1 x\n", 1),
            ("42\n", 1),
            ("1 2\n# c\n\n3\n", 4),
            ("1 2\r\n3 -4\r\n", 2),
            ("1 2\n2 3\n4 18446744073709551616\n", 3),
            ("1 2\n1.5 2\n", 2),
            ("1 2\n\n\n5 0x10", 4),
            ("1 2\n3 4 \n#\n 5", 4),
        ];
        for (input, line) in corpus {
            let new = read_edge_list(input.as_bytes()).unwrap_err();
            let old = reference_read_edge_list(input.as_bytes()).unwrap_err();
            assert!(
                matches!(&new, GraphError::Parse { line: l, .. } if *l == line),
                "input {input:?}: {new:?}"
            );
            assert_eq!(new.to_string(), old.to_string(), "input {input:?}");
            assert_eq!(
                read_auto(input.as_bytes()).unwrap_err().to_string(),
                old.to_string()
            );
        }
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
