//! A subscriber-side replica of the published service view.
//!
//! A [`Mirror`] holds a [`ServiceSnapshot`] replica ([`ServiceSnapshot::replica`]) at one
//! service revision and advances by replaying [`Patch`] chains onto it ([`Patch::replay`]).
//! Every query is the view's own, so the mirror answers the way the service answers, with the
//! same canonical labels; replaying the delta chain `r → now` onto a mirror taken at `r`
//! reproduces the served view bit for bit. The replica's caches are its own: a mirror's
//! queries never read, fill or count in the served view's.

use dynsld::{DendrogramSnapshot, FlatClustering};
use dynsld_engine::{Patch, ServiceSnapshot};
use dynsld_forest::{VertexId, Weight};
use std::sync::Arc;

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

/// A subscriber-side replica: the replicated view at one revision, with its per-revision memo
/// of threshold cuts (a new view, and so a cold memo, on every advance).
#[derive(Clone, Debug)]
pub struct Mirror {
    view: ServiceSnapshot,
}

impl Mirror {
    /// Builds a mirror from an in-process service snapshot. The mirror shares the view's
    /// record chunks (cloning an export copies chunk pointers, not records), not its caches.
    pub fn from_snapshot(snapshot: &ServiceSnapshot) -> Mirror {
        let shards = snapshot
            .shard_snapshots()
            .iter()
            .map(|s| (s.epoch(), s.dendrogram().clone(), s.num_graph_edges()));
        Mirror::from_view(ServiceSnapshot::replica(snapshot.revision(), shards))
    }

    /// A mirror over `view`, a replica (see [`ServiceSnapshot::replica`]).
    pub(crate) fn from_view(view: ServiceSnapshot) -> Mirror {
        Mirror { view }
    }

    /// Replays a patch chain, advancing the mirror to the patch's end revision. Fails without
    /// modifying the mirror when the patch does not start at the mirror's revision or
    /// disagrees on the shard count.
    pub fn apply(&mut self, patch: &Patch) -> Result<(), MirrorError> {
        if patch.from_revision != self.revision() {
            return Err(MirrorError::RevisionMismatch {
                have: self.revision(),
                patch_from: patch.from_revision,
            });
        }
        let have = self.view.shard_snapshots().len();
        if let Some(delta) = patch.deltas.first() {
            if delta.shards.len() != have {
                return Err(MirrorError::ShardMismatch {
                    have,
                    patch: delta.shards.len(),
                });
            }
        }
        self.view = patch.replay(&self.view);
        Ok(())
    }

    /// The service revision this mirror replicates.
    pub fn revision(&self) -> u64 {
        self.view.revision()
    }

    /// The per-shard epoch vector at this revision.
    pub fn epochs(&self) -> Vec<u64> {
        self.view.epochs()
    }

    /// The per-shard dendrogram exports, in shard order.
    pub fn shards(&self) -> impl ExactSizeIterator<Item = &DendrogramSnapshot> {
        self.view.shard_snapshots().iter().map(|s| s.dendrogram())
    }

    /// Number of vertices, as [`ServiceSnapshot::num_vertices`] counts them.
    pub fn num_vertices(&self) -> usize {
        self.view.num_vertices()
    }

    /// Number of alive graph edges across all shards.
    pub fn num_graph_edges(&self) -> usize {
        self.view.num_graph_edges()
    }

    /// The flat clustering at threshold `tau`, labeled exactly like
    /// [`ServiceSnapshot::flat_clustering`] at the same revision, and memoised per
    /// `(revision, tau)`.
    pub fn flat_clustering(&self, tau: Weight) -> Arc<FlatClustering> {
        self.view.flat_clustering(tau)
    }

    /// The cluster label of `v` at threshold `tau`.
    pub fn cluster_id(&self, v: VertexId, tau: Weight) -> usize {
        self.view.cluster_id(v, tau)
    }

    /// Whether `u` and `v` share a cluster at threshold `tau`.
    pub fn same_cluster(&self, u: VertexId, v: VertexId, tau: Weight) -> bool {
        self.view.same_cluster(u, v, tau)
    }

    /// Number of clusters at threshold `tau`.
    pub fn num_clusters(&self, tau: Weight) -> usize {
        self.view.num_clusters(tau)
    }

    /// Number of connected components (clusters at `tau = ∞`).
    pub fn num_components(&self) -> usize {
        self.view.num_components()
    }
}
