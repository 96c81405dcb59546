//! Routing: which shard an edge lives in, first-sight pinning under a stateful partitioner,
//! and the single entry point every routed event takes into its home shard.

use super::*;
use crate::engine::FlushReport;
use crate::partition::{Partitioner, StatefulPartitioner};
use dynsld_forest::workload::GraphUpdate;
use std::time::Instant;

#[cfg(doc)]
use crate::GreedyPartitioner;

/// The routing state a built service owns: the partitioner plus, for stateful partitioners,
/// the append-only [`AssignmentTable`] recording every first-sight pin.
#[derive(Clone, Debug)]
pub(super) enum Router {
    /// A pure vertex → shard function; no state to thread.
    Pure(Arc<dyn Partitioner>),
    /// An assign-on-first-sight chooser and the table its pins live in.
    Stateful {
        partitioner: Arc<dyn StatefulPartitioner>,
        table: AssignmentTable,
    },
}

impl Router {
    /// Where events the shards will reject for structural invalidity (self-loops, endpoints
    /// outside the vertex range) are sent under a stateful partitioner: the spill shard when
    /// one exists, shard 0 otherwise. Routing them *without pinning anything* keeps a doomed
    /// event from mutating the assignment table — mirroring the pure-partitioner contract
    /// that a rejected submission leaves the service unchanged — and keeps the table's
    /// bounds-checked `assign` from panicking the single-writer driver.
    fn rejection_route(num_shards: usize) -> ShardId {
        if num_shards == 1 {
            ShardId::Routed(0)
        } else {
            ShardId::Spill
        }
    }

    /// True when the shard engines will reject the event before applying it, whatever the
    /// per-edge state: self-loop, or an endpoint outside `0..num_vertices`.
    fn structurally_invalid(table: &AssignmentTable, u: VertexId, v: VertexId) -> bool {
        u == v || u.index() >= table.num_vertices() || v.index() >= table.num_vertices()
    }

    /// Routes edge `{u, v}`, pinning any unassigned endpoint (stateful partitioners only).
    /// `u` is resolved before `v`, so when both endpoints are new the first one is placed
    /// without neighbour evidence and the second sees its partner — the order the
    /// [`GreedyPartitioner`] docs assume.
    pub(super) fn route_edge_pinned(
        &mut self,
        u: VertexId,
        v: VertexId,
        num_shards: usize,
    ) -> ShardId {
        match self {
            Router::Pure(p) => p.route_edge(u, v, num_shards),
            Router::Stateful { partitioner, table } => {
                if Self::structurally_invalid(table, u, v) {
                    return Self::rejection_route(num_shards);
                }
                let neighbour_of_u = table.get(v);
                let mut pin = |x: VertexId, neighbour: Option<usize>| {
                    table.get(x).unwrap_or_else(|| {
                        let s = partitioner.choose(x, neighbour, num_shards, table);
                        table.assign(x, s);
                        s
                    })
                };
                let su = pin(u, neighbour_of_u);
                let sv = pin(v, Some(su));
                if su == sv {
                    ShardId::Routed(su)
                } else {
                    ShardId::Spill
                }
            }
        }
    }

    /// The route `route_edge_pinned` *would* take, without committing any pin: a stateful
    /// router replays the decision on a scratch copy of itself (`O(n)` for the table — this
    /// backs an introspection call, not the routed path). Exact as long as no other event is
    /// routed in between.
    pub(super) fn route_edge_preview(
        &self,
        u: VertexId,
        v: VertexId,
        num_shards: usize,
    ) -> ShardId {
        match self {
            Router::Pure(p) => p.route_edge(u, v, num_shards),
            Router::Stateful { .. } => self.clone().route_edge_pinned(u, v, num_shards),
        }
    }

    pub(super) fn table(&self) -> Option<&AssignmentTable> {
        match self {
            Router::Pure(_) => None,
            Router::Stateful { table, .. } => Some(table),
        }
    }
}

impl ClusterService {
    /// The home shard of edge `{u, v}` under this service's partitioner.
    ///
    /// For a pure [`Partitioner`] this is the routing function itself. For a stateful
    /// partitioner it is a *preview*: the decision is replayed against a scratch copy of the
    /// [`AssignmentTable`] without committing any pin — so the answer equals what routing the
    /// edge next would do, but may change if other events are routed first.
    pub fn route(&self, u: VertexId, v: VertexId) -> ShardId {
        self.router.route_edge_preview(u, v, self.num_shards)
    }

    /// The router's [`AssignmentTable`], when the service was built with a
    /// [`stateful_partitioner`](ServiceBuilder::stateful_partitioner) (`None` under pure
    /// partitioners). Exposes per-shard assigned-vertex loads and every first-sight pin.
    pub fn assignment_table(&self) -> Option<&AssignmentTable> {
        self.router.table()
    }

    /// The pinned shard of vertex `v` under a stateful partitioner — `None` under a pure
    /// partitioner or while `v` has not yet appeared in the routed stream.
    pub fn assignment_of(&self, v: VertexId) -> Option<usize> {
        self.router.table().and_then(|t| t.get(v))
    }

    /// Routes one event to its home shard, validates it against that shard's applied state
    /// plus pending buffer, and buffers it there. Applies the [`FlushPolicy::EveryNOps`]
    /// threshold, returning the triggered flush (if any) so drivers can report it.
    ///
    /// Under a stateful partitioner this is where first-sight assignment happens: endpoints
    /// not yet in the [`AssignmentTable`] are pinned before the shard lookup (on single-shard
    /// services too, so assignment introspection works at any shard count). Structurally
    /// invalid events (self-loops, out-of-range endpoints) pin nothing and are routed
    /// straight to rejection; events rejected by per-edge *state* validation (double insert,
    /// delete of an absent edge) do still pin their endpoints — the assignment depends only
    /// on the routed order, which keeps replays deterministic whether or not a stream
    /// validates.
    pub(crate) fn buffer_event(
        &mut self,
        event: GraphUpdate,
    ) -> Result<(ShardId, Option<(ShardId, FlushReport)>), ServiceError> {
        // Durable services log the event *before* it reaches any shard engine: the WAL
        // captures the submitted stream pre-validation, and replay re-validates in routed
        // order — exactly where the original process did.
        self.wal_append(&WalRecord::Event(event))?;
        let (u, v) = event.endpoints();
        let route_start = self.telemetry.is_enabled().then(Instant::now);
        let id = match &self.router {
            Router::Pure(_) if self.num_shards == 1 => ShardId::Routed(0),
            _ => self.router.route_edge_pinned(u, v, self.num_shards),
        };
        if let Some(start) = route_start {
            self.telemetry
                .record_duration("service.route_ns", start.elapsed());
        }
        let idx = self.index_of(id);
        // A torn engine cannot validate: events routed to a quarantined shard are logged
        // as-is and validated during recovery replay, in routed order — exactly where the
        // no-fault oracle would have validated them. The service keeps accepting ingest
        // throughout.
        if !self.health[idx].is_quarantined() {
            self.engines[idx]
                .submit(event)
                .map_err(|e| ServiceError::from_engine(id, e))?;
        }
        self.logs[idx].record(JournalEntry::Event(event));
        self.routed_events[idx] += 1;
        if matches!(event, GraphUpdate::Insert { .. }) {
            self.edge_inserts_routed += 1;
            if id == ShardId::Spill {
                self.edge_inserts_cut += 1;
            }
        }
        let mut flushed = None;
        if let FlushPolicy::EveryNOps(n) = self.policy {
            if !self.health[idx].is_quarantined() && self.engines[idx].pending_ops() >= n.max(1) {
                flushed = Some((id, self.flush_shard_direct(id)?));
            }
        }
        Ok((id, flushed))
    }
}
