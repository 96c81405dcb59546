//! Wire payloads: compact JSON encodings of full snapshots, delta patches, and head probes.
//!
//! Every payload is one JSON object with a `"kind"` discriminator (`"head"`, `"snapshot"`,
//! or `"delta"`). Dendrogram records travel as 5-tuples `[edge, u, v, weight, parent]` with
//! `-1` standing in for "no parent", and a delta's removed records as their rank keys,
//! `[edge, weight]` pairs — compact, order-preserving, and float-exact (see [`crate::json`]
//! for the round-trip guarantees the mirror's bit-identity rests on).

use crate::json::{parse, Value};
use crate::Mirror;
use dynsld::{DendrogramSnapshot, RankedNodes, SnapshotNode};
use dynsld_engine::{Patch, ServiceSnapshot, ShardDelta, SnapshotDelta};
use dynsld_forest::{EdgeId, RankKey, VertexId};
use std::sync::Arc;

/// A decoded wire payload.
#[derive(Clone, Debug)]
pub enum WireMessage {
    /// A head probe: just the published revision and epoch vector.
    Head {
        /// The published service revision.
        revision: u64,
        /// The epoch vector at that revision.
        epochs: Vec<u64>,
    },
    /// A full snapshot, decoded straight into the replica a subscriber starts from.
    Snapshot(Mirror),
    /// A delta patch: a chain of per-publish deltas to replay onto a mirror.
    Delta(Patch),
}

/// A decode failure: structurally valid JSON that does not shape up as a wire payload, or
/// invalid JSON outright.
#[derive(Clone, Debug)]
pub struct CodecError {
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "wire codec error: {}", self.message)
    }
}

impl std::error::Error for CodecError {}

fn bad(message: impl Into<String>) -> CodecError {
    CodecError {
        message: message.into(),
    }
}

fn epochs_value(epochs: &[u64]) -> Value {
    Value::Arr(epochs.iter().map(|&e| Value::Int(e as i64)).collect())
}

fn node_value(n: &SnapshotNode) -> Value {
    // The decoder takes only numbers: a non-finite weight would leave every wire subscriber
    // unable to sync. Admission rejects them, so no dendrogram record carries one.
    debug_assert!(n.weight.is_finite(), "non-finite weight on the wire: {n:?}");
    Value::Arr(vec![
        Value::Int(i64::from(n.edge.0)),
        Value::Int(i64::from(n.u.0)),
        Value::Int(i64::from(n.v.0)),
        Value::Float(n.weight),
        Value::Int(n.parent.map_or(-1, |p| i64::from(p.0))),
    ])
}

fn nodes_value<'a>(nodes: impl Iterator<Item = &'a SnapshotNode>) -> Value {
    Value::Arr(nodes.map(node_value).collect())
}

/// Encodes a head probe (`{"kind":"head",...}`).
pub fn encode_head(revision: u64, epochs: &[u64]) -> String {
    Value::Obj(vec![
        ("kind".into(), Value::Str("head".into())),
        ("revision".into(), Value::Int(revision as i64)),
        ("epochs".into(), epochs_value(epochs)),
    ])
    .to_json()
}

/// Encodes a full service snapshot (`{"kind":"snapshot",...}`).
pub fn encode_snapshot(snapshot: &ServiceSnapshot) -> String {
    let shards = snapshot
        .shard_snapshots()
        .iter()
        .map(|shard| {
            let dendro = shard.dendrogram();
            Value::Obj(vec![
                ("epoch".into(), Value::Int(shard.epoch() as i64)),
                ("version".into(), Value::Int(dendro.version as i64)),
                (
                    "num_vertices".into(),
                    Value::Int(dendro.num_vertices as i64),
                ),
                (
                    "num_graph_edges".into(),
                    Value::Int(shard.num_graph_edges() as i64),
                ),
                ("nodes".into(), nodes_value(dendro.nodes.iter())),
            ])
        })
        .collect();
    Value::Obj(vec![
        ("kind".into(), Value::Str("snapshot".into())),
        ("revision".into(), Value::Int(snapshot.revision() as i64)),
        ("shards".into(), Value::Arr(shards)),
    ])
    .to_json()
}

fn shard_delta_value(shard: &ShardDelta) -> Value {
    Value::Obj(vec![
        ("epoch".into(), Value::Int(shard.epoch as i64)),
        ("version".into(), Value::Int(shard.version as i64)),
        ("num_vertices".into(), Value::Int(shard.num_vertices as i64)),
        (
            "num_graph_edges".into(),
            Value::Int(shard.num_graph_edges as i64),
        ),
        ("upserts".into(), nodes_value(shard.upserts.iter())),
        (
            "removed".into(),
            Value::Arr(
                shard
                    .removed
                    .iter()
                    .map(|key| {
                        Value::Arr(vec![
                            Value::Int(i64::from(key.edge.0)),
                            Value::Float(key.weight),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn delta_value(delta: &SnapshotDelta) -> Value {
    Value::Obj(vec![
        (
            "from_revision".into(),
            Value::Int(delta.from_revision as i64),
        ),
        ("to_revision".into(), Value::Int(delta.to_revision as i64)),
        (
            "shards".into(),
            Value::Arr(delta.shards.iter().map(shard_delta_value).collect()),
        ),
    ])
}

/// Encodes a delta patch (`{"kind":"delta",...}`).
pub fn encode_patch(patch: &Patch) -> String {
    Value::Obj(vec![
        ("kind".into(), Value::Str("delta".into())),
        (
            "from_revision".into(),
            Value::Int(patch.from_revision as i64),
        ),
        ("to_revision".into(), Value::Int(patch.to_revision as i64)),
        (
            "deltas".into(),
            Value::Arr(patch.deltas.iter().map(|d| delta_value(d)).collect()),
        ),
    ])
    .to_json()
}

fn get_u64(value: &Value, key: &str) -> Result<u64, CodecError> {
    value
        .get(key)
        .and_then(Value::as_int)
        .and_then(|n| u64::try_from(n).ok())
        .ok_or_else(|| bad(format!("missing or invalid field {key:?}")))
}

fn get_usize(value: &Value, key: &str) -> Result<usize, CodecError> {
    get_u64(value, key).map(|n| n as usize)
}

fn get_arr<'a>(value: &'a Value, key: &str) -> Result<&'a [Value], CodecError> {
    value
        .get(key)
        .and_then(Value::as_arr)
        .ok_or_else(|| bad(format!("missing or invalid field {key:?}")))
}

fn decode_epochs(value: &Value, key: &str) -> Result<Vec<u64>, CodecError> {
    get_arr(value, key)?
        .iter()
        .map(|v| {
            v.as_int()
                .and_then(|n| u64::try_from(n).ok())
                .ok_or_else(|| bad("epoch entries must be non-negative integers"))
        })
        .collect()
}

fn decode_id(value: &Value) -> Result<u32, CodecError> {
    value
        .as_int()
        .and_then(|n| u32::try_from(n).ok())
        .ok_or_else(|| bad("ids must be non-negative integers"))
}

fn decode_node(value: &Value) -> Result<SnapshotNode, CodecError> {
    let tuple = value
        .as_arr()
        .filter(|t| t.len() == 5)
        .ok_or_else(|| bad("a node must be a 5-tuple"))?;
    let parent = match tuple[4].as_int() {
        Some(-1) => None,
        Some(p) => Some(EdgeId(u32::try_from(p).map_err(|_| bad("bad parent id"))?)),
        None => return Err(bad("bad parent id")),
    };
    Ok(SnapshotNode {
        edge: EdgeId(decode_id(&tuple[0])?),
        u: VertexId(decode_id(&tuple[1])?),
        v: VertexId(decode_id(&tuple[2])?),
        weight: tuple[3].as_f64().ok_or_else(|| bad("bad weight"))?,
        parent,
    })
}

fn decode_nodes(value: &Value, key: &str) -> Result<Vec<SnapshotNode>, CodecError> {
    get_arr(value, key)?.iter().map(decode_node).collect()
}

fn decode_rank_key(value: &Value) -> Result<RankKey, CodecError> {
    let pair = value
        .as_arr()
        .filter(|p| p.len() == 2)
        .ok_or_else(|| bad("a removed key must be an [edge, weight] pair"))?;
    let weight = pair[1].as_f64().ok_or_else(|| bad("bad weight"))?;
    Ok(RankKey::new(weight, EdgeId(decode_id(&pair[0])?)))
}

/// Decodes one shard delta. Its replay is a splice keyed by rank, so both lists must be
/// strictly ascending by rank key; a payload that is not is rejected here rather than
/// spliced into a mirror out of order.
fn decode_shard_delta(value: &Value) -> Result<ShardDelta, CodecError> {
    let upserts = decode_nodes(value, "upserts")?;
    let removed: Vec<RankKey> = get_arr(value, "removed")?
        .iter()
        .map(decode_rank_key)
        .collect::<Result<_, _>>()?;
    let ascending = upserts
        .windows(2)
        .all(|w| w[0].rank_key() < w[1].rank_key())
        && removed.windows(2).all(|w| w[0] < w[1]);
    if !ascending {
        return Err(bad(
            "delta records must be in strictly ascending rank order",
        ));
    }
    Ok(ShardDelta {
        epoch: get_u64(value, "epoch")?,
        version: get_u64(value, "version")?,
        num_vertices: get_usize(value, "num_vertices")?,
        num_graph_edges: get_usize(value, "num_graph_edges")?,
        upserts,
        removed,
    })
}

fn decode_delta(value: &Value) -> Result<SnapshotDelta, CodecError> {
    Ok(SnapshotDelta {
        from_revision: get_u64(value, "from_revision")?,
        to_revision: get_u64(value, "to_revision")?,
        shards: get_arr(value, "shards")?
            .iter()
            .map(decode_shard_delta)
            .collect::<Result<_, _>>()?,
    })
}

/// Decodes one wire payload by its `"kind"` discriminator.
pub fn decode_message(text: &str) -> Result<WireMessage, CodecError> {
    let value = parse(text).map_err(|e| bad(e.to_string()))?;
    let kind = value
        .get("kind")
        .and_then(Value::as_str)
        .ok_or_else(|| bad("missing \"kind\" discriminator"))?;
    match kind {
        "head" => Ok(WireMessage::Head {
            revision: get_u64(&value, "revision")?,
            epochs: decode_epochs(&value, "epochs")?,
        }),
        "snapshot" => {
            let shards = get_arr(&value, "shards")?
                .iter()
                .map(|shard| {
                    let export = DendrogramSnapshot::from_records(
                        get_u64(shard, "version")?,
                        get_usize(shard, "num_vertices")?,
                        RankedNodes::from_sorted(&decode_nodes(shard, "nodes")?),
                    );
                    let edges = get_usize(shard, "num_graph_edges")?;
                    Ok((get_u64(shard, "epoch")?, export, edges))
                })
                .collect::<Result<Vec<_>, CodecError>>()?;
            if shards.is_empty() {
                return Err(bad("a snapshot needs at least one shard"));
            }
            let revision = get_u64(&value, "revision")?;
            Ok(WireMessage::Snapshot(Mirror::from_view(
                ServiceSnapshot::replica(revision, shards),
            )))
        }
        "delta" => Ok(WireMessage::Delta(Patch {
            from_revision: get_u64(&value, "from_revision")?,
            to_revision: get_u64(&value, "to_revision")?,
            deltas: get_arr(&value, "deltas")?
                .iter()
                .map(|d| decode_delta(d).map(Arc::new))
                .collect::<Result<_, _>>()?,
        })),
        other => Err(bad(format!("unknown payload kind {other:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(edge: u32, u: u32, v: u32, weight: f64, parent: Option<u32>) -> SnapshotNode {
        SnapshotNode {
            edge: EdgeId(edge),
            u: VertexId(u),
            v: VertexId(v),
            weight,
            parent: parent.map(EdgeId),
        }
    }

    #[test]
    fn head_round_trips() {
        let text = encode_head(7, &[3, 4, 5]);
        match decode_message(&text).unwrap() {
            WireMessage::Head { revision, epochs } => {
                assert_eq!(revision, 7);
                assert_eq!(epochs, vec![3, 4, 5]);
            }
            other => panic!("expected Head, got {other:?}"),
        }
    }

    #[test]
    fn patches_round_trip_bit_for_bit() {
        let patch = Patch {
            from_revision: 2,
            to_revision: 3,
            deltas: vec![Arc::new(SnapshotDelta {
                from_revision: 2,
                to_revision: 3,
                shards: vec![
                    ShardDelta {
                        epoch: 4,
                        version: 11,
                        num_vertices: 6,
                        num_graph_edges: 4,
                        upserts: vec![node(0, 0, 1, 0.1, Some(2)), node(2, 1, 2, 1.0 / 3.0, None)],
                        removed: vec![RankKey::new(0.1, EdgeId(5))],
                    },
                    ShardDelta {
                        epoch: 1,
                        version: 2,
                        num_vertices: 6,
                        num_graph_edges: 1,
                        upserts: vec![],
                        removed: vec![],
                    },
                ],
            })],
        };
        let text = encode_patch(&patch);
        // A step carries each shard's epoch once, in its shard delta, and nothing else.
        assert_eq!(text.matches("\"epoch").count(), 2, "{text}");
        let WireMessage::Delta(decoded) = decode_message(&text).unwrap() else {
            panic!("expected Delta");
        };
        assert_eq!(decoded.from_revision, patch.from_revision);
        assert_eq!(decoded.to_revision, patch.to_revision);
        assert_eq!(decoded.deltas.len(), 1);
        assert_eq!(*decoded.deltas[0], *patch.deltas[0]);
    }

    #[test]
    fn removed_keys_round_trip_as_pairs_and_keep_the_sign_of_zero() {
        let keys = vec![
            RankKey::new(-0.0, EdgeId(4)),
            RankKey::new(0.0, EdgeId(3)),
            RankKey::new(2.5, EdgeId(0)),
        ];
        let shard = ShardDelta {
            epoch: 1,
            version: 2,
            num_vertices: 8,
            num_graph_edges: 0,
            upserts: vec![],
            removed: keys.clone(),
        };
        let text = shard_delta_value(&shard).to_json();
        assert!(
            text.contains("\"removed\":[[4,-0.0],[3,0.0],[0,2.5]]"),
            "{text}"
        );
        let decoded = decode_shard_delta(&parse(&text).unwrap()).unwrap();
        assert_eq!(decoded.removed, keys);
        // The two zeros stay apart: bit for bit, and in rank order.
        assert!(decoded.removed[0].weight.is_sign_negative());
        assert!(decoded.removed[1].weight.is_sign_positive());
        assert!(decoded.removed[0] < decoded.removed[1]);
        // Malformed pairs, and keys out of rank order (the replay splices by rank).
        let out_of_order = ["[4,0.5]", "[3,0.0]"];
        for bad_pair in ["[4]", "[4,1.0,2]", "[-1,1.0]", "[4,\"x\"]", "4"]
            .into_iter()
            .chain(out_of_order)
        {
            let text = text.replace("[4,-0.0]", bad_pair);
            assert!(
                decode_shard_delta(&parse(&text).unwrap()).is_err(),
                "{bad_pair}"
            );
        }
    }

    #[test]
    fn snapshots_carry_each_shard_epoch_once_and_round_trip() {
        use dynsld_engine::{FlushPolicy, GraphUpdate, ServiceBuilder};
        let service = ServiceBuilder::new()
            .vertices(8)
            .shards(2)
            .flush_policy(FlushPolicy::EveryNOps(1))
            .build()
            .unwrap();
        let ingest = service.ingest_handle();
        let mut driver = service.into_driver();
        for (a, b, weight) in [(0, 1, 1.0), (0, 2, 2.0), (1, 2, 0.5), (5, 6, 3.0)] {
            let (u, v) = (VertexId(a), VertexId(b));
            ingest.submit(GraphUpdate::Insert { u, v, weight }).unwrap();
            driver.pump().unwrap();
        }
        let published = driver.service().published();
        let text = encode_snapshot(&published);
        // One `epoch` per shard (the spill shard included), and no payload-level epoch array
        // beside them.
        let shards = published.epochs().len();
        assert_eq!(shards, 3);
        assert_eq!(text.matches("\"epoch").count(), shards, "{text}");
        let value = parse(&text).unwrap();
        assert!(value.get("epochs").is_none());
        let WireMessage::Snapshot(mirror) = decode_message(&text).unwrap() else {
            panic!("expected Snapshot");
        };
        assert_eq!(mirror.revision(), published.revision());
        assert_eq!(mirror.epochs(), published.epochs());
        for (decoded, shard) in mirror.shards().zip(published.shard_snapshots()) {
            assert_eq!(decoded, shard.dendrogram());
        }
    }

    #[test]
    fn malformed_payloads_are_rejected() {
        for bad_text in [
            "not json",
            "{}",
            "{\"kind\":\"mystery\"}",
            "{\"kind\":\"head\",\"revision\":-1,\"epochs\":[]}",
            "{\"kind\":\"snapshot\",\"revision\":0,\"epochs\":[],\"shards\":[]}",
        ] {
            assert!(decode_message(bad_text).is_err(), "{bad_text:?}");
        }
    }
}
