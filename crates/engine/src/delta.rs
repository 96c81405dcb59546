//! Epoch deltas: what changed between two published service views.
//!
//! Every time the service publishes a new merged view ([`ServiceSnapshot`]), it can also
//! compute a [`SnapshotDelta`] — the added / removed / re-parented dendrogram records per
//! shard, plus the changed cluster labels at any tracked thresholds — and retain it in a
//! bounded `DeltaRing` inside the shared state. A reader that last saw revision `r` then
//! syncs with a [`Patch`] (the chain of deltas `r → now`) instead of a full snapshot; only
//! when `r` has aged out of the ring does it fall back to a full view. This is the read-side
//! story for many connected subscribers: steady-state traffic is proportional to what
//! *changed*, not to the graph.
//!
//! The wire front end and the subscriber mirror live in the `dynsld-serve` crate; this module
//! owns the delta representation and the in-process sync protocol ([`SyncResponse`]).

use crate::service::ServiceSnapshot;
use dynsld::snapshot::{DendrogramSnapshot, RankedNodesBuilder, SnapshotNode};
use dynsld::FlatClustering;
use dynsld_forest::{Dsu, EdgeId, VertexId, Weight};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;

/// The difference between two rank-sorted exports of **one shard**.
///
/// `upserts` carries the full record of every edge whose snapshot record changed (inserted,
/// re-weighted, or re-parented), in rank order; `removed` lists edge ids present in the old
/// export but absent from the new one. Applying the delta to the old export reproduces the
/// new one bit for bit, including its `version` ([`Self::apply_to`]).
#[derive(Clone, Debug, PartialEq)]
pub struct ShardDelta {
    /// The shard's engine epoch after this step.
    pub epoch: u64,
    /// The shard's core structural version after this step.
    pub version: u64,
    /// Vertex count after this step (vertex growth is part of the delta).
    pub num_vertices: usize,
    /// Alive graph edges (tree + non-tree) on this shard after this step.
    pub num_graph_edges: usize,
    /// Changed records, sorted by rank (`(weight, edge id)` ascending).
    pub upserts: Vec<SnapshotNode>,
    /// Edge ids removed since the old export (never also present in `upserts`).
    pub removed: Vec<EdgeId>,
}

impl ShardDelta {
    /// Diffs two rank-sorted exports of the same shard in one merge walk (no sorting, no
    /// per-record hashing of the unchanged majority).
    ///
    /// Whenever both sides are about to enter the *same chunk allocation* the walk steps over
    /// it without reading it: an incremental export shares every chunk its changes stayed
    /// clear of with the export before it, so consecutive publishes diff in
    /// `O(m / chunk + changed chunks)`. Exports that share nothing (after a full rebuild or a
    /// shard recovery) are walked record by record; the result is the same either way.
    pub fn diff(
        old: &DendrogramSnapshot,
        new: &DendrogramSnapshot,
        epoch: u64,
        num_graph_edges: usize,
    ) -> ShardDelta {
        let mut upserts: Vec<SnapshotNode> = Vec::new();
        let mut removed_candidates: Vec<EdgeId> = Vec::new();
        let mut old_chunks = old.nodes.chunks().iter().peekable();
        let mut new_chunks = new.nodes.chunks().iter().peekable();
        // The unread rest of the chunk each side is in (empty: on a chunk boundary).
        let (mut a, mut b): (&[SnapshotNode], &[SnapshotNode]) = (&[], &[]);
        loop {
            if a.is_empty() && b.is_empty() {
                if let (Some(x), Some(y)) = (old_chunks.peek(), new_chunks.peek()) {
                    if Arc::ptr_eq(x, y) {
                        old_chunks.next();
                        new_chunks.next();
                        continue;
                    }
                }
            }
            if a.is_empty() {
                a = old_chunks.next().map_or(a, |chunk| &chunk[..]);
            }
            if b.is_empty() {
                b = new_chunks.next().map_or(b, |chunk| &chunk[..]);
            }
            if a.is_empty() || b.is_empty() {
                // One export is read to the end: what is left of the other is all news.
                if a.is_empty() && b.is_empty() {
                    break;
                }
                removed_candidates.extend(a.iter().map(|n| n.edge));
                upserts.extend_from_slice(b);
                (a, b) = (&[], &[]);
                continue;
            }
            while let (Some(x), Some(y)) = (a.first(), b.first()) {
                match x.rank_key().cmp(&y.rank_key()) {
                    std::cmp::Ordering::Equal => {
                        // Same edge at the same rank; only the parent can have changed.
                        if x != y {
                            upserts.push(*y);
                        }
                        (a, b) = (&a[1..], &b[1..]);
                    }
                    std::cmp::Ordering::Less => {
                        // `x`'s (weight, edge) pair is gone — deleted, or re-weighted (in
                        // which case the same id reappears as an upsert and is filtered
                        // below).
                        removed_candidates.push(x.edge);
                        a = &a[1..];
                    }
                    std::cmp::Ordering::Greater => {
                        upserts.push(*y);
                        b = &b[1..];
                    }
                }
            }
        }
        if !removed_candidates.is_empty() {
            let upserted: HashSet<EdgeId> = upserts.iter().map(|n| n.edge).collect();
            removed_candidates.retain(|e| !upserted.contains(e));
        }
        // A delta outlives the publish by the depth of the ring: hold no growth slack.
        upserts.shrink_to_fit();
        removed_candidates.shrink_to_fit();
        ShardDelta {
            epoch,
            version: new.version,
            num_vertices: new.num_vertices,
            num_graph_edges,
            upserts,
            removed: removed_candidates,
        }
    }

    /// True when the shard did not change in this step (epoch and records identical).
    pub fn is_noop(&self) -> bool {
        self.upserts.is_empty() && self.removed.is_empty()
    }

    /// Replays this delta onto the shard's previous export, reproducing the next export bit
    /// for bit (rank order, `version`, `num_vertices` included). One linear merge pass — the
    /// delta names removed records by id, so every base record is looked at — that copies
    /// only the chunks it changes: a base chunk with no stale record and no upsert landing
    /// inside it is carried over as the same allocation.
    pub fn apply_to(&self, base: &DendrogramSnapshot) -> DendrogramSnapshot {
        let nodes = if self.is_noop() {
            base.nodes.clone()
        } else {
            let stale: HashSet<EdgeId> = self
                .removed
                .iter()
                .chain(self.upserts.iter().map(|n| &n.edge))
                .copied()
                .collect();
            let chunks = base.nodes.chunks();
            let mut out = RankedNodesBuilder::with_chunk_capacity(chunks.len() + 1);
            let mut fresh = self.upserts.iter().peekable();
            for chunk in chunks {
                let last = chunk[chunk.len() - 1].rank_key();
                let untouched = fresh.peek().is_none_or(|f| f.rank_key() > last)
                    && !chunk.iter().any(|n| stale.contains(&n.edge));
                if untouched {
                    out.share(chunk);
                    continue;
                }
                for node in chunk.iter().filter(|n| !stale.contains(&n.edge)) {
                    while let Some(f) = fresh.next_if(|f| f.rank_key() < node.rank_key()) {
                        out.push(*f);
                    }
                    out.push(*node);
                }
            }
            for f in fresh {
                out.push(*f);
            }
            out.finish()
        };
        DendrogramSnapshot::from_records(self.version, self.num_vertices, nodes)
    }
}

/// The cluster-label changes at one tracked threshold across one publish step.
#[derive(Clone, Debug, PartialEq)]
pub struct ThresholdRelabel {
    /// The tracked threshold.
    pub tau: Weight,
    /// Number of clusters in the *new* view at `tau`.
    pub num_clusters: usize,
    /// `(vertex, new label)` for every vertex whose canonical label changed (new vertices
    /// count as changed), in vertex order.
    pub changed: Vec<(VertexId, usize)>,
}

impl ThresholdRelabel {
    /// Diffs two canonical clusterings at the same threshold.
    pub fn diff(tau: Weight, old: &FlatClustering, new: &FlatClustering) -> ThresholdRelabel {
        let changed = new
            .labels
            .iter()
            .enumerate()
            .filter(|&(i, &label)| old.labels.get(i) != Some(&label))
            .map(|(i, &label)| (VertexId(i as u32), label))
            .collect();
        ThresholdRelabel {
            tau,
            num_clusters: new.num_clusters(),
            changed,
        }
    }
}

/// One publish step of the whole service: per-shard record deltas plus per-threshold label
/// changes, anchored by the service revisions and epoch vectors on both sides.
#[derive(Clone, Debug, PartialEq)]
pub struct SnapshotDelta {
    /// The service revision this delta starts from.
    pub from_revision: u64,
    /// The service revision this delta produces (always `from_revision + 1`).
    pub to_revision: u64,
    /// Epoch vector before the step (routed shards first, spill last).
    pub from_epochs: Vec<u64>,
    /// Epoch vector after the step.
    pub to_epochs: Vec<u64>,
    /// Per-shard record deltas, in shard order (no-op entries for untouched shards).
    pub shards: Vec<ShardDelta>,
    /// Label changes at each threshold the service was built to track
    /// (`ServiceBuilder::track_thresholds`); empty when none are tracked.
    pub relabels: Vec<ThresholdRelabel>,
}

impl SnapshotDelta {
    /// Computes the delta between two consecutively published service views.
    pub fn between(
        old: &ServiceSnapshot,
        new: &ServiceSnapshot,
        tracked: &[Weight],
    ) -> SnapshotDelta {
        let shards = old
            .shard_snapshots()
            .iter()
            .zip(new.shard_snapshots())
            .map(|(o, n)| {
                ShardDelta::diff(
                    o.dendrogram(),
                    n.dendrogram(),
                    n.epoch(),
                    n.num_graph_edges(),
                )
            })
            .collect();
        let relabels = tracked
            .iter()
            .map(|&tau| {
                ThresholdRelabel::diff(tau, &old.flat_clustering(tau), &new.flat_clustering(tau))
            })
            .collect();
        SnapshotDelta {
            from_revision: old.revision(),
            to_revision: new.revision(),
            from_epochs: old.epochs(),
            to_epochs: new.epochs(),
            shards,
            relabels,
        }
    }

    /// Total changed records across all shards — the natural "size" of the step.
    pub fn num_changes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.upserts.len() + s.removed.len())
            .sum()
    }
}

/// A chain of consecutive [`SnapshotDelta`]s bringing a reader from `from_revision` to
/// `to_revision` — what [`crate::ReadHandle::sync_from`] returns when the requested revision
/// is still covered by the delta ring.
#[derive(Clone, Debug)]
pub struct Patch {
    /// The revision the chain starts from (the reader's current revision).
    pub from_revision: u64,
    /// The revision the chain ends at (the service's published revision).
    pub to_revision: u64,
    /// The epoch vector at `to_revision`.
    pub to_epochs: Vec<u64>,
    /// The deltas, consecutive by revision (`deltas[i].to_revision ==
    /// deltas[i + 1].from_revision`).
    pub deltas: Vec<Arc<SnapshotDelta>>,
}

impl Patch {
    /// Replays the chain onto per-shard exports taken at `from_revision`, producing the
    /// per-shard exports of `to_revision` bit for bit.
    pub fn apply_to_shards(&self, shards: &mut [DendrogramSnapshot]) {
        for delta in &self.deltas {
            for (base, shard_delta) in shards.iter_mut().zip(&delta.shards) {
                *base = shard_delta.apply_to(base);
            }
        }
    }

    /// Total changed records across the whole chain.
    pub fn num_changes(&self) -> usize {
        self.deltas.iter().map(|d| d.num_changes()).sum()
    }
}

/// What a sync request produced (see [`crate::ReadHandle::sync_from`]).
#[derive(Clone, Debug)]
pub enum SyncResponse {
    /// The reader is already at the published revision — nothing to send (the wire layer
    /// turns this into a 304-style no-body reply).
    Unchanged {
        /// The published (= the reader's) revision.
        revision: u64,
        /// The epoch vector at that revision.
        epochs: Vec<u64>,
    },
    /// The reader's revision is still covered by the delta ring: a chain of deltas.
    Delta(Patch),
    /// No usable base revision (first sync, or the requested revision aged out of the ring):
    /// the full published view.
    Full(ServiceSnapshot),
}

/// A bounded ring of the most recent [`SnapshotDelta`]s, kept in the service's shared state.
///
/// Sized by `ServiceBuilder::delta_ring`; capacity 0 disables delta retention entirely
/// (every stale sync falls back to a full snapshot).
#[derive(Debug, Default)]
pub(crate) struct DeltaRing {
    capacity: usize,
    entries: VecDeque<Arc<SnapshotDelta>>,
}

impl DeltaRing {
    pub(crate) fn new(capacity: usize) -> DeltaRing {
        DeltaRing {
            capacity,
            entries: VecDeque::with_capacity(capacity.min(1024)),
        }
    }

    pub(crate) fn is_enabled(&self) -> bool {
        self.capacity > 0
    }

    pub(crate) fn push(&mut self, delta: Arc<SnapshotDelta>) {
        if self.capacity == 0 {
            return;
        }
        debug_assert!(
            self.entries
                .back()
                .is_none_or(|last| last.to_revision == delta.from_revision),
            "delta ring must stay consecutive by revision"
        );
        if self.entries.len() == self.capacity {
            self.entries.pop_front();
        }
        self.entries.push_back(delta);
    }

    /// The consecutive chain `since → upto`, or `None` when `since` has aged out (or was
    /// never retained). Entries past `upto` — pushed for a revision not yet published at the
    /// time the caller read the published view — are excluded, which is what makes the
    /// push-then-publish ordering race-free for readers.
    pub(crate) fn chain(&self, since: u64, upto: u64) -> Option<Vec<Arc<SnapshotDelta>>> {
        let mut chain = Vec::new();
        for entry in &self.entries {
            if entry.to_revision <= since {
                continue;
            }
            if entry.from_revision >= upto {
                break;
            }
            match chain.last().map(|c: &Arc<SnapshotDelta>| c.to_revision) {
                None if entry.from_revision != since => return None,
                Some(prev) if entry.from_revision != prev => return None,
                _ => chain.push(Arc::clone(entry)),
            }
        }
        match chain.last() {
            Some(last) if last.to_revision == upto => Some(chain),
            _ => None,
        }
    }
}

/// Glues canonical per-shard clusterings into the canonical clustering of the full graph:
/// one union-find pass over the shard clusters, then labels assigned in vertex order (so
/// clusters are numbered by their smallest member and member lists are sorted ascending —
/// identical to what a single un-sharded engine produces).
///
/// This is the merge the service itself uses for [`ServiceSnapshot::flat_clustering`]; the
/// `dynsld-serve` mirror reuses it so replayed views are bit-identical to served ones.
pub fn merge_flat_clusterings<'a>(
    parts: impl IntoIterator<Item = &'a FlatClustering>,
    num_vertices: usize,
) -> FlatClustering {
    let mut dsu = Dsu::new(num_vertices);
    for part in parts {
        for cluster in &part.clusters {
            let (&first, rest) = cluster
                .split_first()
                .expect("flat clusterings have no empty clusters");
            for &member in rest {
                dsu.union(first, member);
            }
        }
    }
    let mut label_of_root: HashMap<u32, usize> = HashMap::new();
    let mut labels = Vec::with_capacity(num_vertices);
    let mut clusters: Vec<Vec<VertexId>> = Vec::new();
    for i in 0..num_vertices as u32 {
        let v = VertexId(i);
        let root = dsu.find(v);
        let label = *label_of_root.entry(root.0).or_insert_with(|| {
            clusters.push(Vec::new());
            clusters.len() - 1
        });
        labels.push(label);
        clusters[label].push(v);
    }
    FlatClustering { labels, clusters }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynsld::{DynSld, RankedNodes};
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn node(edge: u32, u: u32, v: u32, weight: f64, parent: Option<u32>) -> SnapshotNode {
        SnapshotNode {
            edge: EdgeId(edge),
            u: VertexId(u),
            v: VertexId(v),
            weight,
            parent: parent.map(EdgeId),
        }
    }

    fn snap(version: u64, n: usize, mut nodes: Vec<SnapshotNode>) -> DendrogramSnapshot {
        nodes.sort_by_key(SnapshotNode::rank_key);
        DendrogramSnapshot::from_records(version, n, RankedNodes::from_sorted(&nodes))
    }

    /// The record-by-record diff over flat copies that [`ShardDelta::diff`] replaced — the
    /// reference the chunk-skipping walk is pinned against.
    fn diff_reference(
        old: &DendrogramSnapshot,
        new: &DendrogramSnapshot,
        epoch: u64,
        num_graph_edges: usize,
    ) -> ShardDelta {
        let (old_nodes, new_nodes) = (old.nodes.to_vec(), new.nodes.to_vec());
        let mut upserts: Vec<SnapshotNode> = Vec::new();
        let mut removed_candidates: Vec<EdgeId> = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < old_nodes.len() && j < new_nodes.len() {
            let (a, b) = (&old_nodes[i], &new_nodes[j]);
            match a.rank_key().cmp(&b.rank_key()) {
                std::cmp::Ordering::Equal => {
                    if a != b {
                        upserts.push(*b);
                    }
                    i += 1;
                    j += 1;
                }
                std::cmp::Ordering::Less => {
                    removed_candidates.push(a.edge);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    upserts.push(*b);
                    j += 1;
                }
            }
        }
        removed_candidates.extend(old_nodes[i..].iter().map(|n| n.edge));
        upserts.extend(new_nodes[j..].iter().copied());
        let upserted: HashSet<EdgeId> = upserts.iter().map(|n| n.edge).collect();
        let removed = removed_candidates
            .into_iter()
            .filter(|e| !upserted.contains(e))
            .collect();
        ShardDelta {
            epoch,
            version: new.version,
            num_vertices: new.num_vertices,
            num_graph_edges,
            upserts,
            removed,
        }
    }

    #[test]
    fn diff_and_apply_roundtrip_covers_upsert_remove_reweight() {
        let old = snap(
            5,
            6,
            vec![
                node(0, 0, 1, 1.0, Some(2)),
                node(1, 1, 2, 3.0, None),
                node(2, 2, 3, 2.0, Some(1)),
            ],
        );
        // Edge 1 deleted; edge 0 re-weighted (same id, new rank); edge 2 re-parented; edge 3
        // inserted; two vertices added.
        let new = snap(
            9,
            8,
            vec![
                node(0, 0, 1, 4.0, None),
                node(2, 2, 3, 2.0, Some(3)),
                node(3, 3, 4, 2.5, Some(0)),
            ],
        );
        let delta = ShardDelta::diff(&old, &new, 2, 3);
        assert_eq!(delta.removed, vec![EdgeId(1)]);
        // Upserts ride in the new export's rank order: edge 2 @ 2.0, edge 3 @ 2.5, edge 0 @ 4.0.
        let upserted: Vec<u32> = delta.upserts.iter().map(|n| n.edge.0).collect();
        assert_eq!(upserted, vec![2, 3, 0]);
        assert_eq!(delta.apply_to(&old), new);
    }

    #[test]
    fn diff_of_identical_snapshots_is_noop() {
        let s = snap(4, 5, vec![node(0, 0, 1, 1.0, None)]);
        let delta = ShardDelta::diff(&s, &s, 1, 1);
        assert!(delta.is_noop());
        assert_eq!(delta.apply_to(&s), s);
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

        /// `diff` against the flat reference on the three kinds of pair a service produces:
        /// consecutive incremental exports (chunks shared), an incremental export against a
        /// full rebuild of the same state (equal records, nothing shared), and a recovered
        /// shard (same edges re-inserted into a fresh structure: other ids, other parents'
        /// ids, nothing shared). `upserts` and `removed` must match, order included, and
        /// replaying the delta must land on the new export.
        #[test]
        fn diff_matches_the_flat_reference(
            n in 2000usize..3000,
            seed in any::<u64>(),
            churn in 1usize..6,
        ) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut sld = DynSld::new(n);
            let mut live: Vec<(VertexId, VertexId, f64)> = Vec::new();
            let mut mutate = |sld: &mut DynSld, live: &mut Vec<(VertexId, VertexId, f64)>, k| {
                for _ in 0..k {
                    if !live.is_empty() && rng.gen_range(0..3) == 0 {
                        let (u, v, _) = live.swap_remove(rng.gen_range(0..live.len()));
                        sld.delete(u, v).unwrap();
                    } else {
                        let (u, v) = (rng.gen_range(0..n as u32), rng.gen_range(0..n as u32));
                        // Few distinct weights: ties are broken by edge id.
                        let weight = f64::from(rng.gen_range(0..12u32)) / 4.0;
                        if sld.insert(VertexId(u), VertexId(v), weight).is_ok() {
                            live.push((VertexId(u), VertexId(v), weight));
                        }
                    }
                }
            };
            mutate(&mut sld, &mut live, n);
            let old = sld.export_snapshot_incremental();
            mutate(&mut sld, &mut live, churn);
            let shared = sld.export_snapshot_incremental();
            let rebuilt = sld.export_snapshot();
            let mut recovered = DynSld::new(n);
            live.sort_by_key(|a| (a.0, a.1));
            for &(u, v, weight) in &live {
                recovered.insert(u, v, weight).unwrap();
            }
            let recovered = recovered.export_snapshot_incremental();
            // A handful of updates on a thousand-odd records is always a splice (or, when
            // every drawn update was rejected, a cache hit): the pair shares chunks.
            prop_assert_eq!(sld.export_stats().full_rebuilds, 1);
            let shares = |a: &Arc<[SnapshotNode]>| {
                shared.nodes.chunks().iter().any(|b| Arc::ptr_eq(a, b))
            };
            prop_assert!(old.nodes.chunks().iter().any(shares));
            for new in [&shared, &rebuilt, &recovered, &old] {
                let delta = ShardDelta::diff(&old, new, 3, live.len());
                prop_assert_eq!(&delta, &diff_reference(&old, new, 3, live.len()));
                prop_assert_eq!(&delta.apply_to(&old), new);
            }
            // And in the other direction, where the shared chunks sit on the new side.
            let back = ShardDelta::diff(&shared, &old, 4, live.len());
            prop_assert_eq!(&back, &diff_reference(&shared, &old, 4, live.len()));
            prop_assert_eq!(&back.apply_to(&shared), &old);
        }
    }

    #[test]
    fn ring_serves_consecutive_chains_and_ages_out() {
        let mut ring = DeltaRing::new(2);
        let step = |from: u64| {
            Arc::new(SnapshotDelta {
                from_revision: from,
                to_revision: from + 1,
                from_epochs: vec![from],
                to_epochs: vec![from + 1],
                shards: Vec::new(),
                relabels: Vec::new(),
            })
        };
        ring.push(step(0));
        ring.push(step(1));
        assert_eq!(ring.chain(0, 2).map(|c| c.len()), Some(2));
        assert_eq!(ring.chain(1, 2).map(|c| c.len()), Some(1));
        // Pushing a third evicts the first: revision 0 has aged out.
        ring.push(step(2));
        assert!(ring.chain(0, 3).is_none());
        assert_eq!(ring.chain(1, 3).map(|c| c.len()), Some(2));
        // Entries past the published revision are excluded.
        assert_eq!(ring.chain(1, 2).map(|c| c.len()), Some(1));
    }

    #[test]
    fn disabled_ring_retains_nothing() {
        let mut ring = DeltaRing::new(0);
        assert!(!ring.is_enabled());
        ring.push(Arc::new(SnapshotDelta {
            from_revision: 0,
            to_revision: 1,
            from_epochs: vec![0],
            to_epochs: vec![1],
            shards: Vec::new(),
            relabels: Vec::new(),
        }));
        assert!(ring.chain(0, 1).is_none());
    }

    #[test]
    fn relabel_diff_marks_new_and_changed_vertices() {
        let old = FlatClustering {
            labels: vec![0, 0, 1],
            clusters: vec![vec![VertexId(0), VertexId(1)], vec![VertexId(2)]],
        };
        let new = FlatClustering {
            labels: vec![0, 1, 1, 2],
            clusters: vec![
                vec![VertexId(0)],
                vec![VertexId(1), VertexId(2)],
                vec![VertexId(3)],
            ],
        };
        let relabel = ThresholdRelabel::diff(0.5, &old, &new);
        assert_eq!(relabel.num_clusters, 3);
        assert_eq!(relabel.changed, vec![(VertexId(1), 1), (VertexId(3), 2)]);
    }
}
