//! Edge-list I/O.
//!
//! The paper's datasets are distributed as SNAP-style whitespace-separated
//! edge lists. This module parses and writes that format and additionally
//! supports a compact binary format used by the engine's spill files and by
//! the experiment harness for caching generated graphs.
//!
//! # Loading an edge list
//!
//! One parser loads every edge list, from a file or from bytes in memory.
//! The text is cut into lanes at line starts (see `lanes.rs`); each lane
//! parses the lines of its stretch left to right and counts them, and the
//! line number an error names is fixed up from the counts of the lanes
//! before it.
//!
//! * **A file is never held whole.** Each lane opens the file at its stretch
//!   and reads it through one chunk buffer of 256 KiB that it reuses, parsing
//!   the whole lines a read brings and carrying a line cut by the chunk's end
//!   over to the next read. The buffer grows only to hold a line longer than
//!   itself. Every fresh page a process touches costs a page fault (about
//!   4 µs each on a 2-vCPU VM); a 15 MB text read whole is about 3,800 of
//!   them, the chunk 64. Bytes already in memory are parsed as one chunk.
//! * **Short ids take one load.** An id of 1–7 digits followed by a column
//!   end, nearly every id of a real edge list, is read from one 8-byte word:
//!   a carry trick finds the first byte that is not a digit and three
//!   multiply-shift steps add the digits up. Any other token takes the
//!   byte-at-a-time path, which also words the errors.
//! * **One output.** A lane collects its pairs in a buffer of its own and,
//!   whenever it holds a chunk's worth (a lone lane: at its end), hands them
//!   to the one output list under a lock: the first buffer handed over
//!   becomes the list, later ones are appended. The list's pages are touched
//!   once and a lane's buffer stays small. The order of the pairs then
//!   depends on the lanes' timing; the graph does not, since ranking and
//!   building do not depend on edge order.

use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;

use qcm_sync::Mutex;

use crate::builder::{exclusive_prefix_sum, GraphBuilder};
use crate::error::GraphError;
use crate::graph::Graph;
use crate::lanes::{lane_count, on_lanes};
use crate::vertex::VertexId;
use crate::Result;

/// Bytes a lane reads from a file at a time, into one buffer it reuses: few
/// reads, and a buffer that stays in cache.
const CHUNK_BYTES: usize = 256 << 10;

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
    load_bytes(bytes)
}

/// Reads an edge list from a file path, a chunk at a time.
pub fn read_edge_list_file<P: AsRef<Path>>(path: P) -> Result<Graph> {
    load_file(path.as_ref(), &File::open(path.as_ref())?)
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
        load_bytes(bytes)
    }
}

/// [`read_auto`] over a file path. Neither format is read whole: a snapshot
/// streams through [`read_binary`], an edge list a chunk at a time.
pub fn read_auto_file<P: AsRef<Path>>(path: P) -> Result<Graph> {
    let mut file = File::open(path.as_ref())?;
    let mut head = Vec::with_capacity(BINARY_MAGIC.len());
    (&mut file)
        .take(BINARY_MAGIC.len() as u64)
        .read_to_end(&mut head)?;
    if head == BINARY_MAGIC {
        file.rewind()?;
        read_binary(file)
    } else {
        load_file(path.as_ref(), &file)
    }
}

/// Edge-list bytes, borrowed or owned, to graph. Owned bytes are freed before
/// the CSR is built: the text is dead weight once it is parsed, and the build
/// is the peak.
fn load_bytes<T: AsRef<[u8]>>(bytes: T) -> Result<Graph> {
    let builder = load(Text::Bytes(bytes.as_ref()))?;
    drop(bytes);
    Ok(builder.build())
}

/// The edge-list file open as `file` at `path` to graph.
fn load_file(path: &Path, file: &File) -> Result<Graph> {
    let len = file.metadata()?.len();
    Ok(load(Text::File { path, len })?.build())
}

/// Edge-list text to a builder, on as many lanes as its size is worth.
fn load(text: Text) -> Result<GraphBuilder> {
    let lanes = lane_count(usize::try_from(text.len()).unwrap_or(usize::MAX));
    ingest(text, &lane_cuts(text, lanes)?, CHUNK_BYTES)
}

/// Where the text of an edge list is.
#[derive(Clone, Copy)]
enum Text<'a> {
    /// In memory: a lane parses its stretch as one chunk.
    Bytes(&'a [u8]),
    /// In a file of `len` bytes, which every lane opens for itself.
    File { path: &'a Path, len: u64 },
}

impl Text<'_> {
    fn len(self) -> u64 {
        match self {
            Text::Bytes(bytes) => bytes.len() as u64,
            Text::File { len, .. } => len,
        }
    }

    /// Where the line byte `at` falls in ends, its `\n` included.
    fn end_of_line(self, at: u64) -> std::io::Result<u64> {
        let mut file = match self {
            Text::Bytes(bytes) => return Ok(at + end_of_line(&bytes[at as usize..]) as u64),
            Text::File { path, .. } => open_at(path, at)?,
        };
        let (mut block, mut end) = ([0; 4096], at);
        loop {
            let read = read_some(&mut file, &mut block)?;
            let line = end_of_line(&block[..read]);
            end += line as u64;
            if read == 0 || block[line - 1] == b'\n' {
                return Ok(end);
            }
        }
    }
}

/// `path` open for reading from byte `at` on. Every lane opens the file for
/// itself, so that each reads at its own offset.
fn open_at(path: &Path, at: u64) -> std::io::Result<File> {
    let mut file = File::open(path)?;
    file.seek(SeekFrom::Start(at))?;
    Ok(file)
}

/// One `read`, again while it is interrupted.
fn read_some(reader: &mut impl Read, buffer: &mut [u8]) -> std::io::Result<usize> {
    loop {
        match reader.read(buffer) {
            Err(error) if error.kind() == std::io::ErrorKind::Interrupted => {}
            read => return read,
        }
    }
}

/// Where `lanes` lanes start in `text`: the line start after each even share
/// of the bytes (a lane can come out empty).
fn lane_cuts(text: Text, lanes: usize) -> std::io::Result<Vec<u64>> {
    (1..lanes as u64)
        .map(|lane| text.end_of_line(lane * text.len() / lanes as u64))
        .collect()
}

/// Edge-list text to a builder: parse on one lane per stretch between `cuts`
/// (line starts, ascending), `chunk` bytes of a file at a time, and rank the
/// ids. Ids are held as `u32` pairs when every id in the text fits, as `u64`
/// pairs otherwise.
fn ingest(text: Text, cuts: &[u64], chunk: usize) -> Result<GraphBuilder> {
    match parse::<u32>(text, cuts, chunk)? {
        Some(narrow) => rank_narrow(narrow),
        None => {
            let wide = parse::<u64>(text, cuts, chunk)?.expect("a parsed id fits u64");
            rank_by_sort(wide.pairs)
        }
    }
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
    /// Line `line` of the lane (from 0) is not an edge.
    Malformed {
        line: usize,
        message: String,
    },
    Io(std::io::Error),
}

impl From<std::io::Error> for Stop {
    fn from(error: std::io::Error) -> Self {
        Stop::Io(error)
    }
}

/// The data lines of `text`, or `None` when an id does not fit `I`. Of several
/// malformed lines the first is reported.
fn parse<I>(text: Text, cuts: &[u64], chunk: usize) -> Result<Option<RawEdges<I>>>
where
    I: TryFrom<u64> + Copy + Send,
{
    let bounds: Vec<u64> = [&[0], cuts, &[text.len()]].concat();
    // A lane on its own keeps its pairs until they become the output.
    let flush_at = match cuts {
        [] => usize::MAX,
        _ => chunk.div_ceil(8),
    };
    let out = Mutex::new(Vec::new());
    let parsed = on_lanes(bounds.windows(2).collect(), |stretch| {
        let lane = Lane::new(flush_at);
        lane.read(text, stretch[0]..stretch[1], chunk, &out)
    });

    // A wide id sends the whole text through again, whatever else was found;
    // otherwise the earliest lane's error is the lowest-numbered line's.
    let (mut lines, mut max_id, mut failed) = (0, 0, None);
    for lane in parsed {
        match lane {
            Ok(lane) => {
                lines += lane.lines;
                max_id = max_id.max(lane.max_id);
            }
            Err(Stop::Wide) => return Ok(None),
            Err(Stop::Malformed { line, message }) => {
                failed.get_or_insert(GraphError::Parse {
                    line: lines + line + 1,
                    message,
                });
            }
            Err(Stop::Io(error)) => {
                failed.get_or_insert(GraphError::Io(error));
            }
        }
    }
    match failed {
        Some(error) => Err(error),
        None => Ok(Some(RawEdges {
            pairs: out.into_inner(),
            max_id,
        })),
    }
}

/// One lane's parse so far.
struct Lane<I> {
    /// Lines read.
    lines: usize,
    max_id: u64,
    /// Pairs not yet in the shared output.
    pairs: Vec<(I, I)>,
    /// How many pairs the lane collects before it hands them over.
    flush_at: usize,
}

impl<I: TryFrom<u64> + Copy> Lane<I> {
    fn new(flush_at: usize) -> Self {
        Lane {
            lines: 0,
            max_id: 0,
            pairs: Vec::new(),
            flush_at,
        }
    }

    /// Reads every line that starts in `stretch` of `text` (a stretch starts
    /// at a line start), a file `chunk` bytes at a time, and hands its pairs
    /// to `out`.
    fn read(
        mut self,
        text: Text,
        stretch: std::ops::Range<u64>,
        chunk: usize,
        out: &Mutex<Vec<(I, I)>>,
    ) -> std::result::Result<Self, Stop> {
        let path = match text {
            Text::Bytes(bytes) => {
                self.feed(&bytes[stretch.start as usize..stretch.end as usize], out)?;
                self.flush(out);
                return Ok(self);
            }
            Text::File { path, .. } => path,
        };
        let len = stretch.end - stretch.start;
        let mut file = open_at(path, stretch.start)?.take(len);
        // The chunk, no longer than the stretch, and how much of it holds
        // bytes not yet parsed.
        let chunk = chunk.min(usize::try_from(len).unwrap_or(usize::MAX)).max(1);
        let (mut buffer, mut filled) = (vec![0; chunk], 0);
        loop {
            if filled == buffer.len() {
                // One line fills the chunk.
                buffer.resize(2 * buffer.len(), 0);
            }
            let read = read_some(&mut file, &mut buffer[filled..])?;
            filled += read;
            // Whole lines, or at the end everything.
            let whole = match buffer[..filled].iter().rposition(|&b| b == b'\n') {
                _ if read == 0 => filled,
                Some(newline) => newline + 1,
                None => 0,
            };
            self.feed(&buffer[..whole], out)?;
            buffer.copy_within(whole..filled, 0);
            filled -= whole;
            if read == 0 {
                self.flush(out);
                return Ok(self);
            }
        }
    }

    /// Parses every line of `text`, whole lines only, handing the pairs to
    /// `out` whenever the lane holds `flush_at` of them.
    fn feed(&mut self, mut text: &[u8], out: &Mutex<Vec<(I, I)>>) -> std::result::Result<(), Stop> {
        loop {
            text = parse_lines(text, self)?;
            if text.is_empty() {
                return Ok(());
            }
            self.flush(out);
        }
    }

    /// Hands the lane's pairs to `out`: the first to arrive become it, any
    /// later ones are appended.
    fn flush(&mut self, out: &Mutex<Vec<(I, I)>>) {
        let mut out = out.lock();
        if out.is_empty() {
            std::mem::swap(&mut *out, &mut self.pairs);
        } else {
            out.extend_from_slice(&self.pairs);
        }
        self.pairs.clear();
    }
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

/// Reads the lines at the front of `text` (whole lines, the first being line
/// `lane.lines` of the lane) into `lane` until the text ends or the lane
/// holds `flush_at` pairs; returns the text not read.
///
/// A line is split at `\n` (a trailing `\r` is a separator); blank lines and
/// lines whose first column starts with `#` or `%` are skipped; of any other
/// line the first two columns are read and the rest ignored.
fn parse_lines<'t, I: TryFrom<u64>>(
    text: &'t [u8],
    lane: &mut Lane<I>,
) -> std::result::Result<&'t [u8], Stop> {
    let mut rest = text;
    while !rest.is_empty() && lane.pairs.len() < lane.flush_at {
        rest = skip_separators(rest);
        if !matches!(rest.first(), None | Some(b'\n' | b'#' | b'%')) {
            let (a, after) = short_id(rest).map_or_else(|| take_id(rest, lane.lines), Ok)?;
            let after = skip_separators(after);
            let (b, after) = short_id(after).map_or_else(|| take_id(after, lane.lines), Ok)?;
            let (Ok(narrow_a), Ok(narrow_b)) = (I::try_from(a), I::try_from(b)) else {
                return Err(Stop::Wide);
            };
            lane.pairs.push((narrow_a, narrow_b));
            lane.max_id = lane.max_id.max(a).max(b);
            rest = after;
        }
        rest = &rest[end_of_line(rest)..];
        lane.lines += 1;
    }
    Ok(rest)
}

/// Reads the vertex id `column` starts with when it is 1–7 digits followed by
/// a column end, from one 8-byte load; returns it and what follows. `None`
/// for any other column, and when fewer than 8 bytes are left.
fn short_id(column: &[u8]) -> Option<(u64, &[u8])> {
    const ZEROS: u64 = u64::from_le_bytes([b'0'; 8]);
    const HIGH_BITS: u64 = u64::from_le_bytes([0x80; 8]);
    let word: [u8; 8] = column.get(..8)?.try_into().ok()?;
    // A digit byte becomes its value, 0–9; any other byte is 10 or more.
    let values = u64::from_le_bytes(word) ^ ZEROS;
    // Adding 0x76 sets the high bit of a byte of 10–0x7f and ORing the values
    // that of a byte of 0x80 or more. A byte of 0x8a or more also carries into
    // the next, but only bytes after the first non-digit see the carry.
    let non_digits = (values.wrapping_add(0x76 * (HIGH_BITS >> 7)) | values) & HIGH_BITS;
    let digits = non_digits.trailing_zeros() as usize / 8;
    if digits == 0 || digits == 8 || !ends_column(word[digits]) {
        return None;
    }
    // The first digit is the lowest byte: shift the digits to the top, so that
    // zero bytes lead, then fold neighbouring bytes, pairs, then quads.
    let mut id = values << (64 - 8 * digits);
    id = (id.wrapping_mul(10 << 8 | 1) >> 8) & 0x00ff_00ff_00ff_00ff;
    id = (id.wrapping_mul(100 << 16 | 1) >> 16) & 0x0000_ffff_0000_ffff;
    id = id.wrapping_mul(10_000 << 32 | 1) >> 32;
    Some((id, &column[digits..]))
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
    Err(Stop::Malformed { line, message })
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
    fn every_lane_cut(input: &[u8]) -> Vec<Vec<u64>> {
        let line_starts: Vec<u64> = (0..input.len())
            .filter(|&at| input[at] == b'\n')
            .map(|at| at as u64 + 1)
            .collect();
        let mut cuts = vec![Vec::new()];
        for (i, &first) in line_starts.iter().enumerate() {
            cuts.push(vec![first]);
            cuts.extend(line_starts[i..].iter().map(|&second| vec![first, second]));
        }
        cuts
    }

    /// A file of the test's own, removed on drop.
    struct Scratch(std::path::PathBuf);

    impl Scratch {
        fn new(name: &str) -> Scratch {
            let dir = std::env::temp_dir().join(format!("qcm_graph_io_{}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            Scratch(dir.join(name))
        }

        /// The file, now holding `bytes`, as edge-list text.
        fn text(&self, bytes: &[u8]) -> Text<'_> {
            std::fs::write(&self.0, bytes).unwrap();
            let len = bytes.len() as u64;
            Text::File { path: &self.0, len }
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            std::fs::remove_file(&self.0).ok();
        }
    }

    /// Every chunk size up to 16 bytes, and the default.
    fn chunk_sizes() -> impl Iterator<Item = usize> {
        (1..=16).chain([CHUNK_BYTES])
    }

    /// `text` loaded on lanes cut at `cuts` from memory, and from `file` (the
    /// same bytes) at `chunks`; every outcome must be the same.
    fn load_at(
        text: &[u8],
        file: Text,
        cuts: &[u64],
        chunks: impl IntoIterator<Item = usize>,
    ) -> Result<Graph> {
        let loaded = ingest(Text::Bytes(text), cuts, CHUNK_BYTES).map(GraphBuilder::build);
        for chunk in chunks {
            let streamed = ingest(file, cuts, chunk).map(GraphBuilder::build);
            match (&loaded, &streamed) {
                (Ok(from_memory), Ok(streamed)) => assert_eq!(
                    streamed, from_memory,
                    "text {text:?} cut at {cuts:?}, chunk {chunk}"
                ),
                (Err(from_memory), Err(streamed)) => assert_eq!(
                    streamed.to_string(),
                    from_memory.to_string(),
                    "text {text:?} cut at {cuts:?}, chunk {chunk}"
                ),
                _ => panic!(
                    "text {text:?} cut at {cuts:?}, chunk {chunk}: {streamed:?} but {loaded:?}"
                ),
            }
        }
        loaded
    }

    #[test]
    fn byte_parser_agrees_with_the_line_parser_on_a_corpus() {
        let corpus: [&str; 19] = [
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
            // 7, 8 and 9 digits, with 8 bytes and more left: one word holds a
            // 7-digit id and its column end, not an 8-digit one.
            "1234567 7654321\n12345678\t87654321\n123456789 987654321 5\n0000007 1234567\n",
            // The last token, no newline after it, has fewer than 8 bytes left.
            "1234567 2345678\n3456789 45",
            "1 2\n1234567 7",
            // Vertical tab and form feed end a short id, as any separator does.
            "1234\x0b56\x0c78\n9\x0c10\x0b\x0c\n11\x0b\x0b12\r\n",
            // Leading separators, a CR before the timestamp, a comment after.
            " \t 31 32\r1300000000\n\x0c33\t34\t#\n",
            "0 0000000\n00000000 1\n",
        ];
        let scratch = Scratch::new("corpus");
        for input in corpus {
            let old = reference_read_edge_list(input.as_bytes()).unwrap();
            let file = scratch.text(input.as_bytes());
            for cuts in every_lane_cut(input.as_bytes()) {
                let new = load_at(input.as_bytes(), file, &cuts, chunk_sizes()).unwrap();
                assert_eq!(new, old, "input {input:?} cut at {cuts:?}");
                new.validate().unwrap();
            }
            assert_eq!(read_edge_list(input.as_bytes()).unwrap(), old);
            assert_eq!(read_auto(input.as_bytes()).unwrap(), old, "input {input:?}");
            assert_eq!(read_edge_list_file(&scratch.0).unwrap(), old);
            assert_eq!(read_auto_file(&scratch.0).unwrap(), old, "input {input:?}");
        }
    }

    #[test]
    fn malformed_lines_keep_their_line_numbers_and_messages() {
        let corpus: [(&str, usize); 17] = [
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
            // Digits run straight into a byte just below '0' or just above
            // '9', a NUL, or bytes of 0x80 and more (the last a carry across
            // the word), each with 8 bytes left and more.
            ("1 2\n123/ 4 5 6 7\n", 2),
            ("1 2\n3 4\n1234567: 1 2 3\n", 3),
            ("12\x00 3 4 5 6\n", 1),
            ("1 2\n12é 3 4 5 6\n", 2),
            ("1 2\n3 4\n5 123º456 7 8\n", 3),
            ("1234567 12345678x\n", 1),
        ];
        let scratch = Scratch::new("malformed");
        for (input, line) in corpus {
            let old = reference_read_edge_list(input.as_bytes()).unwrap_err();
            let file = scratch.text(input.as_bytes());
            for cuts in every_lane_cut(input.as_bytes()) {
                let new = load_at(input.as_bytes(), file, &cuts, chunk_sizes()).unwrap_err();
                assert!(
                    matches!(&new, GraphError::Parse { line: l, .. } if *l == line),
                    "input {input:?} cut at {cuts:?}: {new:?}"
                );
                assert_eq!(new.to_string(), old.to_string(), "input {input:?}");
            }
            for error in [
                read_edge_list(input.as_bytes()).unwrap_err(),
                read_auto(input.as_bytes()).unwrap_err(),
                read_edge_list_file(&scratch.0).unwrap_err(),
                read_auto_file(&scratch.0).unwrap_err(),
            ] {
                assert_eq!(error.to_string(), old.to_string());
            }
        }
    }

    #[test]
    fn a_line_cut_by_the_chunk_at_every_offset_loads_the_same() {
        // The first read ends at every offset of the text in turn: inside an
        // id, a separator run, a comment, a CR LF, and right after a newline.
        let text = "12345678 7654321 99\n# a comment\n1 2\r\n  123\t4567890\n\n5 6";
        let old = reference_read_edge_list(text.as_bytes()).unwrap();
        let scratch = Scratch::new("offsets");
        let file = scratch.text(text.as_bytes());
        for cuts in every_lane_cut(text.as_bytes()) {
            let new = load_at(text.as_bytes(), file, &cuts, 1..=text.len() + 1).unwrap();
            assert_eq!(new, old, "cut at {cuts:?}");
        }
    }

    #[test]
    fn short_ids_read_in_one_word_equal_the_byte_loop() {
        // Every digit count and column end, and the bytes on either side of
        // the digits.
        for digits in 1..=9 {
            for end in [
                b' ', b'\t', b'\r', b'\n', 0x0b, 0x0c, b'/', b':', 0, 0x80, 0xba, b'x',
            ] {
                for pad in 0..4 {
                    let mut column: Vec<u8> = (0..digits).map(|d| b"9071234568"[d]).collect();
                    column.push(end);
                    column.extend(std::iter::repeat(b'5').take(pad));
                    let short = short_id(&column);
                    if column.len() < 8 || digits > 7 || !ends_column(end) {
                        assert_eq!(short, None, "{column:?}");
                        continue;
                    }
                    let (id, rest) = short.unwrap();
                    let Ok((expected, expected_rest)) = take_id(&column, 0) else {
                        panic!("{column:?}");
                    };
                    assert_eq!((id, rest), (expected, expected_rest), "{column:?}");
                }
            }
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
        let scratch = Scratch::new("soup");
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
            // Streamed from a file too, at one chunk size of 1–16 bytes each.
            let file = scratch.text(text);
            match (
                load_at(text, file, cuts, [1 + case % 16]),
                reference_read_edge_list(text),
            ) {
                (Ok(new), Ok(old)) => {
                    assert_eq!(new, old, "text {text:?} cut at {cuts:?}");
                    new.validate().unwrap();
                    match parse::<u32>(Text::Bytes(text), cuts, CHUNK_BYTES).unwrap() {
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
        let three = lane_cuts(Text::Bytes(text), 3).unwrap();
        assert_eq!(
            loaded,
            ingest(Text::Bytes(text), &three, CHUNK_BYTES)
                .unwrap()
                .build()
        );
        // Streamed from a file on the same three lanes.
        let scratch = Scratch::new("large");
        let file = scratch.text(text);
        assert_eq!(loaded, ingest(file, &three, CHUNK_BYTES).unwrap().build());
        assert_eq!(loaded, read_edge_list_file(&scratch.0).unwrap());

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
        let scratch = Scratch::new("same");
        let text = "# g\n5 1\n1 9\n9 5\n1 2\n";
        scratch.text(text.as_bytes());
        let from_file = read_edge_list_file(&scratch.0).unwrap();
        assert_eq!(from_file, read_edge_list(text.as_bytes()).unwrap());
        assert_eq!(from_file, read_auto_file(&scratch.0).unwrap());
        assert!(matches!(
            read_auto_file(scratch.0.with_extension("missing")),
            Err(GraphError::Io(_))
        ));
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
    fn a_snapshot_file_loads_like_its_bytes_and_every_truncation_errors() {
        let g = Graph::from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]).unwrap();
        let mut bytes = Vec::new();
        write_binary(&g, &mut bytes).unwrap();
        let scratch = Scratch::new("snapshot");
        scratch.text(&bytes);
        let loaded = read_auto_file(&scratch.0).unwrap();
        assert_eq!(loaded, read_binary(bytes.as_slice()).unwrap());
        assert_eq!(loaded, g);
        // The empty prefix is an empty edge list. A prefix shorter than the
        // magic is a malformed one; any longer prefix is a cut snapshot.
        for cut in 1..bytes.len() {
            scratch.text(&bytes[..cut]);
            let err = read_auto_file(&scratch.0).unwrap_err();
            if cut < BINARY_MAGIC.len() {
                assert!(
                    matches!(err, GraphError::Parse { line: 1, .. }),
                    "cut at {cut}: {err:?}"
                );
            } else {
                assert!(
                    matches!(err, GraphError::Io(_) | GraphError::Format { .. }),
                    "cut at {cut}: unexpected {err:?}"
                );
            }
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
