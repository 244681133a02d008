//! Binary encoding helpers for task spilling, plus the unified wire form of
//! every inter-machine engine message.
//!
//! The spill files and the inter-machine transport messages use a small
//! hand-rolled little-endian format built on these helpers, so the task
//! types do not need a serde dependency and the on-disk
//! framing stays under the engine's control. [`EngineMsg`] is the single
//! typed envelope carried by every [`crate::transport::Transport`]
//! implementation; the per-call-site byte packing that used to live next to
//! each subsystem is folded into its `encode`/`decode` pair.

use qcm_graph::VertexId;
use qcm_sync::Arc;

/// Appends a `u32` in little-endian order.
pub fn put_u32(buf: &mut Vec<u8>, value: u32) {
    buf.extend_from_slice(&value.to_le_bytes());
}

/// Appends a `u64` in little-endian order.
pub fn put_u64(buf: &mut Vec<u8>, value: u64) {
    buf.extend_from_slice(&value.to_le_bytes());
}

/// Clamps a slice length to the `u32` framing space.
///
/// The length prefix of the wire format is a `u32`; a longer slice cannot be
/// framed. That would take a >16 GiB task, so it is a logic error — caught by
/// the `debug_assert!` in development — but the release-mode path must not
/// silently truncate the *prefix only* (the pre-hardening behaviour: `len as
/// u32` wrapped, making the frame undecodable). Instead the length saturates
/// and exactly that many elements are encoded, keeping the frame
/// self-consistent.
fn framed_len(len: usize) -> usize {
    debug_assert!(
        len <= u32::MAX as usize,
        "slice of {len} elements exceeds the u32 framing space"
    );
    len.min(u32::MAX as usize)
}

/// Appends a length-prefixed list of `u32`s.
pub fn put_u32_slice(buf: &mut Vec<u8>, values: &[u32]) {
    let len = framed_len(values.len());
    put_u32(buf, len as u32);
    for &v in &values[..len] {
        put_u32(buf, v);
    }
}

/// Appends a length-prefixed list of vertex ids.
pub fn put_vertices(buf: &mut Vec<u8>, values: &[VertexId]) {
    let len = framed_len(values.len());
    put_u32(buf, len as u32);
    for &v in &values[..len] {
        put_u32(buf, v.raw());
    }
}

/// Reads `N` bytes, advancing the slice. `None` if the input is exhausted.
fn take_array<const N: usize>(data: &mut &[u8]) -> Option<[u8; N]> {
    let head = data.get(..N)?.try_into().ok()?;
    *data = &data[N..];
    Some(head)
}

/// Reads a `u32`, advancing the slice. `None` if the input is exhausted.
pub fn take_u32(data: &mut &[u8]) -> Option<u32> {
    take_array(data).map(u32::from_le_bytes)
}

/// Reads a `u64`, advancing the slice.
pub fn take_u64(data: &mut &[u8]) -> Option<u64> {
    take_array(data).map(u64::from_le_bytes)
}

/// Reads a length-prefixed list of `u32`s, advancing the slice.
pub fn take_u32_vec(data: &mut &[u8]) -> Option<Vec<u32>> {
    let len = take_u32(data)? as usize;
    // Guard against corrupted lengths that would cause huge allocations.
    if data.len() < len * 4 {
        return None;
    }
    let mut out = Vec::with_capacity(len);
    for _ in 0..len {
        out.push(take_u32(data)?);
    }
    Some(out)
}

/// Reads a length-prefixed list of vertex ids, advancing the slice.
pub fn take_vertices(data: &mut &[u8]) -> Option<Vec<VertexId>> {
    Some(take_u32_vec(data)?.into_iter().map(VertexId::new).collect())
}

/// Appends a length-prefixed opaque byte string.
pub fn put_bytes(buf: &mut Vec<u8>, bytes: &[u8]) {
    let len = framed_len(bytes.len());
    put_u32(buf, len as u32);
    buf.extend_from_slice(&bytes[..len]);
}

/// Reads a length-prefixed opaque byte string, advancing the slice.
pub fn take_bytes(data: &mut &[u8]) -> Option<Vec<u8>> {
    let len = take_u32(data)? as usize;
    if data.len() < len {
        return None;
    }
    let (head, rest) = data.split_at(len);
    *data = rest;
    Some(head.to_vec())
}

/// Every message exchanged between machines, in one typed enum.
///
/// The in-memory form keeps adjacency lists behind `Arc` so the in-process
/// transport can move a response without copying the lists; the wire form
/// produced by [`EngineMsg::encode`] serialises their contents, so a strict
/// (serialising) transport and the fault simulator carry exactly the bytes a
/// real network would.
#[derive(Clone, Debug, PartialEq)]
pub enum EngineMsg {
    /// Requester → owner: pull the adjacency lists of `vertices` (all owned
    /// by the receiving machine). `token` correlates the response.
    PullRequest {
        /// Correlation token, unique per outstanding pull.
        token: u64,
        /// Vertices whose adjacency lists are requested.
        vertices: Vec<VertexId>,
    },
    /// Owner → requester: the adjacency lists answering a
    /// [`EngineMsg::PullRequest`] with the same `token`.
    PullResponse {
        /// Correlation token echoed from the request.
        token: u64,
        /// `(vertex, adjacency)` pairs, in request order.
        lists: Vec<(VertexId, Arc<Vec<VertexId>>)>,
    },
    /// Balancer → rich machine: donate up to `count` big tasks to the
    /// machine the message's envelope names as sender (Figure 8 step ①).
    StealRequest {
        /// Balancer-assigned sequence number (log correlation).
        seq: u64,
        /// Maximum number of tasks to donate.
        count: u32,
    },
    /// Rich machine → poor machine: the donated tasks, each in its
    /// `TaskCodec` wire form (Figure 8 step ②).
    StealGrant {
        /// Sequence number echoed from the request.
        seq: u64,
        /// Encoded tasks.
        tasks: Vec<Vec<u8>>,
    },
    /// Poor machine → rich machine: the grant arrived; the donor may release
    /// its retransmit buffer (Figure 8 step ③).
    StealAck {
        /// Sequence number echoed from the grant.
        seq: u64,
    },
    /// Orderly stop: the receiving machine's workers should drain and exit.
    Shutdown,
}

const MSG_PULL_REQUEST: u32 = 1;
const MSG_PULL_RESPONSE: u32 = 2;
const MSG_STEAL_REQUEST: u32 = 3;
const MSG_STEAL_GRANT: u32 = 4;
const MSG_STEAL_ACK: u32 = 5;
// Tags 6 and 7 are retired and not reused.
const MSG_SHUTDOWN: u32 = 8;

impl EngineMsg {
    /// Short kind name for event logs.
    pub fn kind(&self) -> &'static str {
        match self {
            EngineMsg::PullRequest { .. } => "pull-req",
            EngineMsg::PullResponse { .. } => "pull-resp",
            EngineMsg::StealRequest { .. } => "steal-req",
            EngineMsg::StealGrant { .. } => "steal-grant",
            EngineMsg::StealAck { .. } => "steal-ack",
            EngineMsg::Shutdown => "shutdown",
        }
    }

    /// Appends the wire form (tag + payload) to `buf`.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            EngineMsg::PullRequest { token, vertices } => {
                put_u32(buf, MSG_PULL_REQUEST);
                put_u64(buf, *token);
                put_vertices(buf, vertices);
            }
            EngineMsg::PullResponse { token, lists } => {
                put_u32(buf, MSG_PULL_RESPONSE);
                put_u64(buf, *token);
                put_u32(buf, framed_len(lists.len()) as u32);
                for (v, adj) in lists {
                    put_u32(buf, v.raw());
                    put_vertices(buf, adj);
                }
            }
            EngineMsg::StealRequest { seq, count } => {
                put_u32(buf, MSG_STEAL_REQUEST);
                put_u64(buf, *seq);
                put_u32(buf, *count);
            }
            EngineMsg::StealGrant { seq, tasks } => {
                put_u32(buf, MSG_STEAL_GRANT);
                put_u64(buf, *seq);
                put_u32(buf, framed_len(tasks.len()) as u32);
                for task in tasks {
                    put_bytes(buf, task);
                }
            }
            EngineMsg::StealAck { seq } => {
                put_u32(buf, MSG_STEAL_ACK);
                put_u64(buf, *seq);
            }
            EngineMsg::Shutdown => put_u32(buf, MSG_SHUTDOWN),
        }
    }

    /// The wire form as a fresh buffer.
    pub fn to_wire(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode(&mut buf);
        buf
    }

    /// Decodes one message, advancing the slice. `None` on truncated input or
    /// an unknown tag.
    pub fn decode(data: &mut &[u8]) -> Option<EngineMsg> {
        match take_u32(data)? {
            MSG_PULL_REQUEST => Some(EngineMsg::PullRequest {
                token: take_u64(data)?,
                vertices: take_vertices(data)?,
            }),
            MSG_PULL_RESPONSE => {
                let token = take_u64(data)?;
                let count = take_u32(data)? as usize;
                // The tightest possible frame per entry is 8 bytes (vertex id
                // + empty list), so this rejects corrupted counts early.
                if data.len() < count.saturating_mul(8) {
                    return None;
                }
                let mut lists = Vec::with_capacity(count);
                for _ in 0..count {
                    let v = VertexId::new(take_u32(data)?);
                    lists.push((v, Arc::new(take_vertices(data)?)));
                }
                Some(EngineMsg::PullResponse { token, lists })
            }
            MSG_STEAL_REQUEST => Some(EngineMsg::StealRequest {
                seq: take_u64(data)?,
                count: take_u32(data)?,
            }),
            MSG_STEAL_GRANT => {
                let seq = take_u64(data)?;
                let count = take_u32(data)? as usize;
                if data.len() < count.saturating_mul(4) {
                    return None;
                }
                let mut tasks = Vec::with_capacity(count);
                for _ in 0..count {
                    tasks.push(take_bytes(data)?);
                }
                Some(EngineMsg::StealGrant { seq, tasks })
            }
            MSG_STEAL_ACK => Some(EngineMsg::StealAck {
                seq: take_u64(data)?,
            }),
            MSG_SHUTDOWN => Some(EngineMsg::Shutdown),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrip() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 0xDEAD_BEEF);
        put_u64(&mut buf, u64::MAX - 1);
        let mut slice = buf.as_slice();
        assert_eq!(take_u32(&mut slice), Some(0xDEAD_BEEF));
        assert_eq!(take_u64(&mut slice), Some(u64::MAX - 1));
        assert!(slice.is_empty());
        assert_eq!(take_u32(&mut slice), None);
        assert_eq!(take_u64(&mut slice), None);
    }

    #[test]
    fn list_roundtrip() {
        let mut buf = Vec::new();
        put_u32_slice(&mut buf, &[1, 2, 3]);
        put_vertices(&mut buf, &[VertexId::new(9), VertexId::new(10)]);
        put_u32_slice(&mut buf, &[]);
        let mut slice = buf.as_slice();
        assert_eq!(take_u32_vec(&mut slice), Some(vec![1, 2, 3]));
        assert_eq!(
            take_vertices(&mut slice),
            Some(vec![VertexId::new(9), VertexId::new(10)])
        );
        assert_eq!(take_u32_vec(&mut slice), Some(vec![]));
        assert!(slice.is_empty());
    }

    #[test]
    fn large_slices_roundtrip_beyond_u16_lengths() {
        // Lengths above u16::MAX would break any accidental 16-bit framing
        // and exercise the checked-cast path with a realistic big task.
        let values: Vec<u32> = (0..70_000u32).collect();
        let vertices: Vec<VertexId> = (0..70_000u32).map(VertexId::new).collect();
        let mut buf = Vec::new();
        put_u32_slice(&mut buf, &values);
        put_vertices(&mut buf, &vertices);
        let mut slice = buf.as_slice();
        assert_eq!(take_u32_vec(&mut slice).as_deref(), Some(values.as_slice()));
        assert_eq!(
            take_vertices(&mut slice).as_deref(),
            Some(vertices.as_slice())
        );
        assert!(slice.is_empty());
    }

    #[test]
    fn corrupted_length_is_rejected() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 1000); // claims 1000 entries but provides none
        let mut slice = buf.as_slice();
        assert_eq!(take_u32_vec(&mut slice), None);
    }

    fn roundtrip(msg: &EngineMsg) -> EngineMsg {
        let wire = msg.to_wire();
        let mut slice = wire.as_slice();
        let decoded = EngineMsg::decode(&mut slice).expect("decodable");
        assert!(slice.is_empty(), "{} leaves trailing bytes", msg.kind());
        decoded
    }

    #[test]
    fn every_engine_msg_variant_roundtrips() {
        let msgs = [
            EngineMsg::PullRequest {
                token: 7,
                vertices: vec![VertexId::new(1), VertexId::new(5)],
            },
            EngineMsg::PullResponse {
                token: 7,
                lists: vec![
                    (VertexId::new(1), Arc::new(vec![VertexId::new(2)])),
                    (VertexId::new(5), Arc::new(vec![])),
                ],
            },
            EngineMsg::StealRequest { seq: 3, count: 16 },
            EngineMsg::StealGrant {
                seq: 3,
                tasks: vec![vec![1, 2, 3], vec![], vec![255]],
            },
            EngineMsg::StealAck { seq: 3 },
            EngineMsg::Shutdown,
        ];
        for msg in &msgs {
            assert_eq!(&roundtrip(msg), msg);
        }
    }

    #[test]
    fn truncated_or_unknown_engine_msgs_are_rejected() {
        let msg = EngineMsg::PullResponse {
            token: 1,
            lists: vec![(VertexId::new(9), Arc::new(vec![VertexId::new(10)]))],
        };
        let wire = msg.to_wire();
        for cut in 1..wire.len() {
            let mut slice = &wire[..cut];
            assert_eq!(EngineMsg::decode(&mut slice), None, "cut at {cut}");
        }
        let mut unknown = Vec::new();
        put_u32(&mut unknown, 999);
        let mut slice = unknown.as_slice();
        assert_eq!(EngineMsg::decode(&mut slice), None);
    }
}
