//! Property test for the unified [`EngineMsg`] wire format: every randomly
//! generated message must survive an encode/decode round trip bit-exactly,
//! and no prefix of a valid frame may decode to anything.

use proptest::prelude::*;
use qcm_engine::codec::EngineMsg;
use qcm_graph::VertexId;
use qcm_sync::Arc;

fn to_vertices(raw: Vec<u32>) -> Vec<VertexId> {
    raw.into_iter().map(VertexId::new).collect()
}

/// Strategy producing one random message of any variant. The variant tag and
/// a shared pool of random scalars/lists are drawn together, then shaped into
/// the chosen variant, so every arm sees varied payload sizes including
/// empty ones.
fn arb_msg() -> impl Strategy<Value = EngineMsg> {
    (
        0u32..6,
        0u64..u64::MAX,
        proptest::collection::vec(0u32..1_000_000, 0..40),
        proptest::collection::vec(
            (
                0u32..1_000_000,
                proptest::collection::vec(0u32..1_000_000, 0..12),
            ),
            0..8,
        ),
    )
        .prop_map(|(tag, n, raw, pairs)| match tag {
            0 => EngineMsg::PullRequest {
                token: n,
                vertices: to_vertices(raw),
            },
            1 => EngineMsg::PullResponse {
                token: n,
                lists: pairs
                    .into_iter()
                    .map(|(v, adj)| (VertexId::new(v), Arc::new(to_vertices(adj))))
                    .collect(),
            },
            2 => EngineMsg::StealRequest {
                seq: n,
                count: raw.len() as u32,
            },
            3 => EngineMsg::StealGrant {
                seq: n,
                tasks: pairs
                    .into_iter()
                    .map(|(v, adj)| {
                        let mut blob = v.to_le_bytes().to_vec();
                        for a in adj {
                            blob.extend(a.to_le_bytes());
                        }
                        blob
                    })
                    .collect(),
            },
            4 => EngineMsg::StealAck { seq: n },
            _ => EngineMsg::Shutdown,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn engine_msg_roundtrips_bit_exactly(msg in arb_msg()) {
        let wire = msg.to_wire();
        let mut slice = wire.as_slice();
        let decoded = EngineMsg::decode(&mut slice);
        prop_assert_eq!(decoded.as_ref(), Some(&msg));
        prop_assert!(slice.is_empty(), "{} left {} trailing bytes", msg.kind(), slice.len());
    }

    #[test]
    fn truncated_frames_never_decode(msg in arb_msg(), cut_seed in 0usize..1024) {
        let wire = msg.to_wire();
        // Any strict prefix must be rejected, not mis-decoded.
        let cut = cut_seed % wire.len();
        let mut slice = &wire[..cut];
        prop_assert_eq!(EngineMsg::decode(&mut slice), None, "cut at {}", cut);
    }

    #[test]
    fn back_to_back_frames_decode_in_order(a in arb_msg(), b in arb_msg()) {
        let mut wire = a.to_wire();
        b.encode(&mut wire);
        let mut slice = wire.as_slice();
        prop_assert_eq!(EngineMsg::decode(&mut slice), Some(a));
        prop_assert_eq!(EngineMsg::decode(&mut slice), Some(b));
        prop_assert!(slice.is_empty());
    }
}
