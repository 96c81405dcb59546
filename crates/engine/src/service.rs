//! The [`ClusterService`]: a shard-routed facade over partitioned [`ClusteringEngine`]s.
//!
//! One [`ClusteringEngine`] is a single-writer pipeline — one core of ingest, however fast the
//! Theorem-1.5 batch paths are. The service scales the *surface* first: a [`ServiceBuilder`]
//! validates a configuration and constructs `num_shards` independent engines plus (when
//! sharded) one *spill* engine, and a router splits the event stream by endpoint partition:
//!
//! * an edge whose endpoints share a shard (per the [`Partitioner`], or the
//!   [`AssignmentTable`] of a stateful partitioner) lives in that shard;
//! * a cross-shard edge lives in the spill shard.
//!
//! Because the partitioner is pure — or, for a
//! [`stateful_partitioner`](ServiceBuilder::stateful_partitioner), because assignments are
//! pinned at first sight and never move — an edge routes to the same shard for its whole
//! lifetime, so per-shard validation stays sound and the shard edge sets *partition* the
//! graph's edge set. That partition is what makes reads exact: connectivity at any threshold in the full
//! graph is the transitive closure of per-shard connectivity, so a [`ServiceSnapshot`] can
//! lazily merge per-shard [`EngineSnapshot`]s with one union-find pass and answer every
//! clustering query the single engine answered — same numbers, shard count notwithstanding.
//!
//! **Who writes, who reads.** The service is the *owner* of the shard engines, and callers
//! interact through three decoupled surfaces (see [`crate::ingest`]): clonable
//! [`IngestHandle`]s push events into a bounded submission queue without ever blocking on a
//! flush; one [`FlusherDriver`] owns the service, drains the queue, routes events, and drives
//! flushes per the [`FlushPolicy`]; and [`ReadHandle`]s hand out epoch-pinned
//! [`ServiceSnapshot`]s with `&self`.
//!
//! Flushes exploit the shard independence: a full flush runs every dirty shard's flush
//! *concurrently* on the workspace's work-stealing fork-join pool, joining
//! the per-shard [`FlushReport`]s back in shard order. The parallelism is gated by
//! [`ServiceBuilder::threads`] (default: the pool size, see [`rayon::current_num_threads`]):
//! `threads(1)` reproduces the fully sequential behaviour exactly — same flush order, same
//! early stop on a shard failure — which the determinism tests pin down.
//!
//! The module is split by concern: `config` (the validated [`ServiceBuilder`]), `router`
//! (edge → shard, first-sight pinning, the routed entry point), `flush` (panic-isolated shard
//! flushes, quarantine, republish), `recovery` (the per-shard log, the one engine constructor,
//! shard and boot recovery, WAL and checkpoints), `report` and `error` (what comes back out).
//! The four that continue `impl ClusterService` (`config`, `router`, `flush`, `recovery`) start
//! from this file's imports (`use super::*`) and name only what it does not. The merged
//! [`ServiceSnapshot`] lives with the other read views in [`crate::snapshot`].

mod config;
mod error;
mod flush;
mod recovery;
mod report;
mod router;
#[cfg(test)]
mod tests;

pub use crate::snapshot::ServiceSnapshot;
pub use config::{FlushPolicy, ServiceBuilder};
pub use error::{ConfigError, ServiceError};
pub use report::{DurabilityReport, RecoveryReport, ServiceFlushReport, ShardHealth};

use crate::delta::{DeltaRing, Patch, SnapshotDelta, SyncResponse};
use crate::engine::ClusteringEngine;
use crate::faults::FaultPlan;
use crate::ingest::{Backpressure, FlusherDriver, IngestHandle, IngestQueue, ReadHandle};
use crate::metrics::Metrics;
use crate::partition::{AssignmentTable, ShardId};
use dynsld::DynSldOptions;
use dynsld_durable::WalRecord;
use dynsld_forest::{VertexId, Weight};
use dynsld_telemetry::Telemetry;
use recovery::{DurableState, JournalEntry, ShardLog};
use router::Router;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock};

#[cfg(doc)]
use crate::{EngineSnapshot, FlushReport, Partitioner};

/// State shared between the service/driver and its [`IngestHandle`]s / [`ReadHandle`]s: the
/// bounded submission queue and the most recently published merged view. Handles hold an
/// `Arc` to this — never to the service itself — which is what lets the single writer own the
/// engines outright while producers and readers stay `&self` and clonable.
#[derive(Debug)]
pub(crate) struct ServiceShared {
    /// The bounded MPSC submission queue ([`IngestHandle`] → [`FlusherDriver`]).
    pub(crate) queue: IngestQueue,
    /// The merged view over the shards' last published states. Refreshed only when a shard
    /// publishes a new state (flush with work, vertex growth), so repeated reads at one epoch
    /// vector share a single merged-clustering cache.
    published: RwLock<ServiceSnapshot>,
    /// The bounded ring of recent publish-step deltas (`ServiceBuilder::delta_ring`). Deltas
    /// are pushed *before* the new view is published, so a reader that observed revision `r`
    /// always finds the chain up to `r` in the ring unless it has aged out.
    deltas: Mutex<DeltaRing>,
    /// Serving-tier counters, surfaced through [`Metrics`].
    pub(crate) serve: ServeCounters,
}

/// Lifetime counters of the delta serving tier, shared between the publishing writer and all
/// [`ReadHandle`]s (relaxed atomics — these are statistics, not synchronization).
#[derive(Debug, Default)]
pub(crate) struct ServeCounters {
    /// Full snapshots handed to sync requests (first syncs and ring-ageout fallbacks).
    pub(crate) snapshots_served: AtomicU64,
    /// Sync requests answered with a delta chain.
    pub(crate) deltas_served: AtomicU64,
    /// Encoded delta bytes written by wire front ends ([`ReadHandle::record_served_bytes`]).
    pub(crate) delta_bytes_out: AtomicU64,
    /// Syncs that *asked* for a delta but fell back to a full snapshot because the requested
    /// revision had aged out of the ring (a subset of `snapshots_served`).
    pub(crate) full_fallbacks: AtomicU64,
    /// Reads and syncs served from a view with at least one quarantined (stale) shard.
    pub(crate) stale_reads_served: AtomicU64,
    /// Server-side wire deadline hits (request reads that timed out and were answered 408),
    /// recorded by wire front ends through [`ReadHandle::record_wire_timeout`].
    pub(crate) wire_timeouts: AtomicU64,
}

// Lock poisoning note: every lock in this struct guards a plain value (a snapshot slot, a
// delta ring, a cache map) whose invariants hold after each individual store — there is no
// multi-step critical section a panicking thread could abandon halfway. Recovering the guard
// with `PoisonError::into_inner` is therefore always sound, and it keeps one panicked reader
// (or a quarantined shard's unwound flush) from cascading into every later access aborting
// the process.
impl ServiceShared {
    /// The currently published merged view (one `Arc` clone under a read lock).
    pub(crate) fn published(&self) -> ServiceSnapshot {
        self.published
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    fn publish(&self, snapshot: ServiceSnapshot) {
        *self
            .published
            .write()
            .unwrap_or_else(PoisonError::into_inner) = snapshot;
    }

    fn deltas(&self) -> MutexGuard<'_, DeltaRing> {
        self.deltas.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Whether the service retains publish-step deltas at all (ring capacity > 0).
    pub(crate) fn deltas_enabled(&self) -> bool {
        self.deltas().is_enabled()
    }

    fn push_delta(&self, delta: Arc<SnapshotDelta>) {
        self.deltas().push(delta);
    }

    /// The in-process sync protocol behind [`ReadHandle::sync_from`]: answers "what changed
    /// since revision `since`" with the cheapest sufficient response.
    pub(crate) fn sync_from(&self, since: Option<u64>) -> SyncResponse {
        let snapshot = self.published();
        if snapshot.is_stale() {
            self.serve
                .stale_reads_served
                .fetch_add(1, Ordering::Relaxed);
        }
        let revision = snapshot.revision();
        if let Some(since) = since {
            if since == revision {
                return SyncResponse::Unchanged {
                    revision,
                    epochs: snapshot.epochs(),
                };
            }
            if since < revision {
                if let Some(deltas) = self.deltas().chain(since, revision) {
                    self.serve.deltas_served.fetch_add(1, Ordering::Relaxed);
                    return SyncResponse::Delta(Patch {
                        from_revision: since,
                        to_revision: revision,
                        deltas,
                    });
                }
            }
            // Aged out of the ring (or a bogus future revision): full fallback.
            self.serve.full_fallbacks.fetch_add(1, Ordering::Relaxed);
        }
        self.serve.snapshots_served.fetch_add(1, Ordering::Relaxed);
        SyncResponse::Full(snapshot)
    }
}

/// A shard-routed clustering service: the unified facade over N partitioned
/// [`ClusteringEngine`]s plus a spill engine for cross-shard edges.
///
/// The service is the *owner* of the shard engines. Callers interact through the handle API:
/// [`ingest_handle`](Self::ingest_handle) for writes, [`read_handle`](Self::read_handle) for
/// reads, and a [`FlusherDriver`] (which takes the service by value) as the single writer
/// driving the pipeline. See the [module docs](self) for the routing and merge design, the
/// [`crate::ingest`] docs for the pipeline, and the [crate docs](crate) for a quick start.
#[derive(Debug)]
pub struct ClusterService {
    /// Routed shards `0..num_shards`, then (iff `num_shards > 1`) the spill shard.
    engines: Vec<ClusteringEngine>,
    num_shards: usize,
    /// The partitioner plus (for stateful partitioners) the router-owned assignment table.
    router: Router,
    policy: FlushPolicy,
    /// Flush parallelism: 1 = strictly sequential shard flushes, ≥ 2 = concurrent flushes on
    /// the fork-join pool, `None` = follow the shared pool's size (resolved per flush, so
    /// building a default service never eagerly starts the pool).
    threads: Option<usize>,
    /// Events routed to each engine since construction (routed shards first, spill last) —
    /// the per-shard load surfaced by [`ServiceFlushReport::shard_event_loads`].
    routed_events: Vec<u64>,
    /// Insert events routed since construction (edge-cut denominator: each live edge counted
    /// once, at its insertion).
    edge_inserts_routed: u64,
    /// Insert events routed to the spill shard (edge-cut numerator).
    edge_inserts_cut: u64,
    /// Default backpressure mode of newly created ingest handles.
    backpressure: Backpressure,
    /// The queue + published-view state shared with handles.
    shared: Arc<ServiceShared>,
    /// The pipeline-wide telemetry registry (shared with every shard engine and the
    /// submission queue); a no-op unless enabled at build time.
    telemetry: Telemetry,
    /// Per-engine health, parallel to `engines`. A quarantined engine is never submitted to
    /// or flushed; its last published snapshot keeps backing the merged view, stale-flagged.
    health: Vec<ShardHealth>,
    /// Per-engine logs, parallel to `engines`: an image of the shard's live edges plus the
    /// suffix routed since — what [`recover_shard`](Self::recover_shard) and boot recovery
    /// rebuild an engine from. Bounded by live edges, not stream length (see
    /// `service/recovery.rs`).
    logs: Vec<ShardLog>,
    /// The authoritative vertex count. Tracked at the service level because a quarantined
    /// engine skips growths (they are logged and applied at recovery) and may lag.
    vertices: usize,
    /// The options every engine was built with, kept so recovery can rebuild an engine from
    /// scratch with its exact configuration.
    options: DynSldOptions,
    /// The armed fault plan (disabled by default). Recovered engines are deliberately not
    /// re-armed: a plan describes one deterministic failure script, not a repeating schedule.
    faults: FaultPlan,
    /// Shard-flush panics caught by `catch_unwind` (injected or genuine).
    panics_caught: u64,
    /// Lifetime count of quarantine events.
    quarantines: u64,
    /// Lifetime count of successful shard recoveries.
    recoveries: u64,
    /// The durability layer (WAL + checkpoint store), present iff the service was built
    /// with [`ServiceBuilder::durable`].
    durable: Option<DurableState>,
}

impl ClusterService {
    /// A builder with the default configuration.
    pub fn builder() -> ServiceBuilder {
        ServiceBuilder::new()
    }

    /// The single-shard service over `n` vertices — the drop-in successor of the PR-1
    /// `ClusteringEngine::new(n)` surface. One engine, no spill shard, manual flushes.
    pub fn single_shard(n: usize) -> Self {
        ServiceBuilder::new()
            .vertices(n)
            .build()
            .expect("the single-shard default configuration is always valid")
    }

    /// A clonable write handle backed by the service's bounded submission queue, using the
    /// builder's default [`Backpressure`] mode. Handles stay valid after the service moves
    /// into a [`FlusherDriver`].
    pub fn ingest_handle(&self) -> IngestHandle {
        IngestHandle::new(Arc::clone(&self.shared), self.backpressure)
    }

    /// A clonable read handle serving epoch-pinned [`ServiceSnapshot`]s without `&mut`.
    /// Handles stay valid after the service moves into a [`FlusherDriver`].
    pub fn read_handle(&self) -> ReadHandle {
        ReadHandle::new(Arc::clone(&self.shared))
    }

    /// Moves the service into a [`FlusherDriver`] — the single writer that drains the
    /// submission queue. Equivalent to [`FlusherDriver::new`].
    pub fn into_driver(self) -> FlusherDriver {
        FlusherDriver::new(self)
    }

    pub(crate) fn shared(&self) -> &Arc<ServiceShared> {
        &self.shared
    }

    /// The pipeline's [`Telemetry`] registry — the one handed to every shard engine and the
    /// submission queue at build time (see [`ServiceBuilder::telemetry`]). Call
    /// [`Telemetry::snapshot`] on it to read the stage-latency histograms, counters, and the
    /// span trace; it stays readable after the service moves into a [`FlusherDriver`] if you
    /// clone it first (clones share the registry).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Number of endpoint-partitioned (routed) shards, excluding the spill shard.
    pub fn num_shards(&self) -> usize {
        self.num_shards
    }

    /// True if the service maintains a spill shard (i.e. it has more than one routed shard).
    pub fn has_spill_shard(&self) -> bool {
        self.num_shards > 1
    }

    /// Number of vertices (identical across healthy shards; a quarantined shard may lag
    /// behind growths until recovery replays them).
    pub fn num_vertices(&self) -> usize {
        self.vertices
    }

    /// Per-shard health, in shard order. All-healthy unless a flush panic quarantined a
    /// shard (see [`ShardHealth`]).
    pub fn shard_health(&self) -> Vec<(ShardId, ShardHealth)> {
        self.health
            .iter()
            .enumerate()
            .map(|(idx, h)| (self.id_of(idx), h.clone()))
            .collect()
    }

    /// The armed fault-injection plan (disabled unless set via [`ServiceBuilder::faults`]).
    pub fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    /// The flush policy the service was built with.
    pub fn flush_policy(&self) -> FlushPolicy {
        self.policy
    }

    /// The service's effective flush parallelism (see [`ServiceBuilder::threads`]). An
    /// explicit builder setting is returned as-is; the default follows the shared pool's
    /// size, which this call resolves (starting the pool if it has not run yet).
    pub fn threads(&self) -> usize {
        self.threads.unwrap_or_else(rayon::current_num_threads)
    }

    /// All shard ids, routed shards first, then the spill shard when present.
    pub fn shard_ids(&self) -> Vec<ShardId> {
        (0..self.engines.len()).map(|idx| self.id_of(idx)).collect()
    }

    /// Read access to one shard's engine (for introspection and tests).
    ///
    /// # Panics
    /// Panics if `id` is [`ShardId::Spill`] on a single-shard service, or a routed index out
    /// of range.
    pub fn shard(&self, id: ShardId) -> &ClusteringEngine {
        &self.engines[self.index_of(id)]
    }

    /// Coalesced operations currently buffered across all shards (events drained from the
    /// queue and routed, but not yet flushed).
    pub fn pending_ops(&self) -> usize {
        self.engines.iter().map(ClusteringEngine::pending_ops).sum()
    }

    /// The per-shard epoch vector (routed shards first, spill shard last).
    pub fn epochs(&self) -> Vec<u64> {
        self.engines.iter().map(ClusteringEngine::epoch).collect()
    }

    fn index_of(&self, id: ShardId) -> usize {
        match id {
            ShardId::Routed(i) => {
                assert!(i < self.num_shards, "routed shard {i} out of range");
                i
            }
            ShardId::Spill => {
                assert!(self.has_spill_shard(), "single-shard service has no spill");
                self.num_shards
            }
        }
    }

    fn id_of(&self, index: usize) -> ShardId {
        ShardId::of_slot(index, self.num_shards)
    }

    /// Events routed to the spill shard since construction (0 without one) — the numerator of
    /// the spill-routing share.
    fn spill_load(&self) -> u64 {
        self.routed_events[self.num_shards..].iter().sum()
    }

    /// Events routed to each shard since construction (routed shards first, spill shard
    /// last) — the lifetime per-shard load behind
    /// [`ServiceFlushReport::shard_event_loads`].
    pub fn shard_event_loads(&self) -> Vec<(ShardId, u64)> {
        self.routed_events
            .iter()
            .enumerate()
            .map(|(idx, &count)| (self.id_of(idx), count))
            .collect()
    }

    /// The last *published* merged view, without flushing anything — one `Arc` clone, `&self`,
    /// and safe to call concurrently with a reader holding older snapshots. Repeated reads at
    /// the same epoch vector share the same merged-clustering cache. Queued or buffered events
    /// are not visible until their shard flushes. [`ReadHandle::snapshot`] serves exactly this
    /// view without needing the service value.
    pub fn published(&self) -> ServiceSnapshot {
        self.shared.published()
    }

    /// Grows the vertex set of every shard by `k` isolated vertices and returns the first new
    /// id (identical across shards). New vertices are visible to snapshots immediately: each
    /// shard publishes a fresh state at a bumped epoch. Under a stateful partitioner the
    /// [`AssignmentTable`] grows in lockstep — new vertices start unassigned and are pinned
    /// on their first routed edge, wherever that edge's locality pulls them.
    ///
    /// Quarantined shards are skipped (their torn engine is never touched) but the growth is
    /// logged, so [`ClusterService::recover_shard`] replays it at the right position and
    /// the recovered shard agrees with its healthy siblings on the vertex count.
    pub fn add_vertices(&mut self, k: usize) -> VertexId {
        let first = VertexId(self.vertices as u32);
        if k == 0 {
            return first;
        }
        // This path is infallible by contract, so a WAL error cannot propagate from here;
        // it is deferred and surfaced by the next fallible durable operation.
        if let Err(e) = self.wal_append(&WalRecord::Grow(k as u64)) {
            if let Some(d) = self.durable.as_mut() {
                d.deferred_error.get_or_insert(e);
            }
        }
        self.vertices += k;
        for (idx, engine) in self.engines.iter_mut().enumerate() {
            if !self.health[idx].is_quarantined() {
                engine.add_vertices(k);
            }
            self.logs[idx].record(JournalEntry::Grow(k));
        }
        if let Router::Stateful { table, .. } = &mut self.router {
            table.grow(k);
        }
        self.refresh_published();
        first
    }

    /// Cross-shard aggregated counters: the per-shard [`Metrics`] merged with
    /// [`Metrics::merge`] (counters summed, flush-latency maxima kept), plus the
    /// service-level router and ingest-queue counters — [`Metrics::events_routed_spill`]
    /// (numerator of [`Metrics::spill_routing_share`], the partitioner-quality baseline) and
    /// the [`Metrics::events_enqueued`] family measuring the handle pipeline.
    pub fn metrics(&self) -> Metrics {
        let parts: Vec<Metrics> = self.engines.iter().map(ClusteringEngine::metrics).collect();
        let mut merged = Metrics::merge(&parts);
        merged.events_routed_spill = self.spill_load();
        merged.edge_inserts_routed = self.edge_inserts_routed;
        merged.edge_inserts_cut = self.edge_inserts_cut;
        merged.vertices_assigned = self.router.table().map_or(0, AssignmentTable::assigned);
        let q = self.shared.queue.counters();
        merged.events_enqueued = q.enqueued;
        merged.events_compacted_in_queue = q.compacted;
        merged.queue_block_waits = q.block_waits;
        merged.queue_full_rejections = q.full_rejections;
        merged.queue_depth_max = q.depth_watermark;
        merged.queue_depth_last_drain = q.last_drain_depth;
        let serve = &self.shared.serve;
        merged.snapshots_served = serve.snapshots_served.load(Ordering::Relaxed);
        merged.deltas_served = serve.deltas_served.load(Ordering::Relaxed);
        merged.delta_bytes_out = serve.delta_bytes_out.load(Ordering::Relaxed);
        merged.full_fallbacks = serve.full_fallbacks.load(Ordering::Relaxed);
        merged.shard_panics_caught = self.panics_caught;
        merged.shards_quarantined = self.quarantines;
        merged.shard_recoveries = self.recoveries;
        merged.wire_timeouts = serve.wire_timeouts.load(Ordering::Relaxed);
        merged.stale_reads_served = serve.stale_reads_served.load(Ordering::Relaxed);
        if let Some(d) = &self.durable {
            merged.wal_records_appended = d.wal.records_appended();
            merged.wal_bytes_written = d.wal.bytes_written();
            merged.checkpoints_written = d.checkpoints_written;
            merged.torn_tails_truncated = d.report.torn_tails_truncated;
            merged.recoveries_completed = u64::from(d.report.recovered);
        }
        merged
    }

    /// One shard's counters, unmerged.
    pub fn shard_metrics(&self, id: ShardId) -> Metrics {
        self.engines[self.index_of(id)].metrics()
    }
}
