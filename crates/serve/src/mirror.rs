//! A subscriber-side replica of the published service view.
//!
//! A [`Mirror`] holds the per-shard dendrogram exports at one service revision, advances by
//! replaying [`Patch`] chains, and answers the same threshold queries the service answers,
//! the same way ([`ThresholdCache`]) — with the same canonical labels, because it merges
//! per-shard clusterings through the exact function the service uses
//! ([`merge_flat_clusterings`]). Replaying the delta chain `r → now` onto a mirror taken at
//! `r` reproduces the served view bit for bit.

use dynsld::{DendrogramSnapshot, FlatClustering};
use dynsld_engine::{merge_flat_clusterings, Patch, ServiceSnapshot, ThresholdCache};
use dynsld_forest::{VertexId, Weight};
use std::sync::Arc;

use crate::codec::SnapshotParts;

/// A replica advance that could not be applied.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MirrorError {
    /// The patch starts from a different revision than the mirror holds.
    RevisionMismatch {
        /// The mirror's revision.
        have: u64,
        /// The revision the patch starts from.
        patch_from: u64,
    },
    /// The patch's per-shard deltas do not match the mirror's shard count.
    ShardMismatch {
        /// The mirror's shard count.
        have: usize,
        /// The patch's shard count.
        patch: usize,
    },
}

impl std::fmt::Display for MirrorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MirrorError::RevisionMismatch { have, patch_from } => write!(
                f,
                "patch starts at revision {patch_from} but the mirror holds revision {have}"
            ),
            MirrorError::ShardMismatch { have, patch } => write!(
                f,
                "patch carries {patch} shard deltas but the mirror holds {have} shards"
            ),
        }
    }
}

impl std::error::Error for MirrorError {}

/// A subscriber-side replica: per-shard exports at one revision, plus a per-revision memo of
/// threshold cuts (cleared on every advance).
#[derive(Debug)]
pub struct Mirror {
    revision: u64,
    epochs: Vec<u64>,
    shards: Vec<DendrogramSnapshot>,
    num_graph_edges: Vec<usize>,
    cache: ThresholdCache,
}

impl Clone for Mirror {
    fn clone(&self) -> Self {
        Mirror {
            revision: self.revision,
            epochs: self.epochs.clone(),
            shards: self.shards.clone(),
            num_graph_edges: self.num_graph_edges.clone(),
            // The memo is per-replica state, not identity: start the clone cold.
            cache: ThresholdCache::default(),
        }
    }
}

impl Mirror {
    /// Builds a mirror from an in-process service snapshot. The mirror shares the view's
    /// record chunks (cloning an export copies chunk pointers, not records).
    pub fn from_snapshot(snapshot: &ServiceSnapshot) -> Mirror {
        Mirror {
            revision: snapshot.revision(),
            epochs: snapshot.epochs(),
            shards: snapshot
                .shard_snapshots()
                .iter()
                .map(|s| s.dendrogram().clone())
                .collect(),
            num_graph_edges: snapshot
                .shard_snapshots()
                .iter()
                .map(|s| s.num_graph_edges())
                .collect(),
            cache: ThresholdCache::default(),
        }
    }

    /// Builds a mirror from a decoded full-snapshot wire payload.
    pub fn from_parts(parts: SnapshotParts) -> Mirror {
        Mirror {
            revision: parts.revision,
            epochs: parts.epochs,
            num_graph_edges: parts.num_graph_edges,
            shards: parts.shards,
            cache: ThresholdCache::default(),
        }
    }

    /// Replays a patch chain, advancing the mirror to the patch's end revision. The query
    /// memo is invalidated. Fails without modifying the mirror when the patch does not start
    /// at the mirror's revision or disagrees on the shard count.
    pub fn apply(&mut self, patch: &Patch) -> Result<(), MirrorError> {
        if patch.from_revision != self.revision {
            return Err(MirrorError::RevisionMismatch {
                have: self.revision,
                patch_from: patch.from_revision,
            });
        }
        if let Some(delta) = patch.deltas.first() {
            if delta.shards.len() != self.shards.len() {
                return Err(MirrorError::ShardMismatch {
                    have: self.shards.len(),
                    patch: delta.shards.len(),
                });
            }
        }
        patch.apply_to_shards(&mut self.shards);
        for delta in &patch.deltas {
            for (count, shard_delta) in self.num_graph_edges.iter_mut().zip(&delta.shards) {
                *count = shard_delta.num_graph_edges;
            }
        }
        self.revision = patch.to_revision;
        self.epochs = patch.to_epochs.clone();
        self.cache = ThresholdCache::default();
        Ok(())
    }

    /// The service revision this mirror replicates.
    pub fn revision(&self) -> u64 {
        self.revision
    }

    /// The per-shard epoch vector at this revision.
    pub fn epochs(&self) -> &[u64] {
        &self.epochs
    }

    /// The per-shard dendrogram exports, in shard order.
    pub fn shards(&self) -> &[DendrogramSnapshot] {
        &self.shards
    }

    /// Number of vertices — the largest per-shard count, mirroring
    /// [`ServiceSnapshot::num_vertices`]: a published view containing a quarantined (stale)
    /// shard can carry one shard that lags behind a vertex-set growth.
    pub fn num_vertices(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.num_vertices)
            .max()
            .unwrap_or(0)
    }

    /// Number of alive graph edges across all shards.
    pub fn num_graph_edges(&self) -> usize {
        self.num_graph_edges.iter().sum()
    }

    /// The export of a single-shard mirror — the one shape point queries can walk.
    fn only_shard(&self) -> Option<&DendrogramSnapshot> {
        match self.shards.as_slice() {
            [only] => Some(only),
            _ => None,
        }
    }

    /// The merged flat clustering at threshold `tau` — canonically labeled exactly like
    /// [`ServiceSnapshot::flat_clustering`] at the same revision, and memoised per
    /// `(revision, tau)`.
    pub fn flat_clustering(&self, tau: Weight) -> Arc<FlatClustering> {
        self.cache.get_or_build(tau, || match self.only_shard() {
            Some(only) => only.flat_clustering(tau),
            None => {
                let parts: Vec<FlatClustering> =
                    self.shards.iter().map(|s| s.flat_clustering(tau)).collect();
                merge_flat_clusterings(parts.iter(), self.num_vertices())
            }
        })
    }

    /// The cluster label of `v` at threshold `tau`.
    pub fn cluster_id(&self, v: VertexId, tau: Weight) -> usize {
        self.flat_clustering(tau).labels[v.index()]
    }

    /// Whether `u` and `v` share a cluster at threshold `tau`.
    pub fn same_cluster(&self, u: VertexId, v: VertexId, tau: Weight) -> bool {
        let sweep = || self.flat_clustering(tau);
        self.cache
            .same_cluster(self.only_shard(), (u, v), tau, sweep)
    }

    /// Number of clusters at threshold `tau`.
    pub fn num_clusters(&self, tau: Weight) -> usize {
        let sweep = || self.flat_clustering(tau);
        self.cache.num_clusters(self.only_shard(), tau, sweep)
    }

    /// Number of connected components (clusters at `tau = ∞`).
    pub fn num_components(&self) -> usize {
        match self.only_shard() {
            Some(only) => only.num_components(),
            None => self.num_clusters(f64::INFINITY),
        }
    }
}
