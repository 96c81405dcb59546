//! # dynsld-engine — a shard-routed, snapshot-consistent streaming clustering service
//!
//! The crates below this one are *libraries*: [`dynsld`] maintains the explicit single-linkage
//! dendrogram of a dynamic forest, and [`dynsld_msf`] lifts it to arbitrary dynamic graphs
//! through a dynamic minimum-spanning-forest front end. This crate turns them into a
//! *service* — the ingestion and serving layer a clustering deployment actually runs:
//!
//! * **Handle-based concurrent ingest** ([`ingest`]): the service's public surface is split
//!   into clonable [`IngestHandle`]s (writes go into a bounded MPSC submission queue —
//!   `submit` never blocks on a flush, with [`Backpressure`] `Block`/`Fail`/`Coalesce` when
//!   the queue fills), one [`FlusherDriver`] (the single writer: owns the service, drains the
//!   queue, routes events, fans dirty-shard flushes out over the work-stealing pool), and
//!   clonable [`ReadHandle`]s (epoch-pinned [`ServiceSnapshot`]s with `&self`, never blocking
//!   on the writer).
//! * **Shard-routed facade** ([`service`]): a [`ServiceBuilder`] *validates* a configuration
//!   (shard count, [`Partitioner`], [`FlushPolicy`], queue capacity, flush threads — invalid
//!   configs return [`ServiceError::InvalidConfig`] instead of panicking) and builds a
//!   [`ClusterService`] of independent per-shard engines plus a spill shard for cross-shard
//!   edges. Reads go through a [`ServiceSnapshot`] that lazily merges the per-shard views —
//!   exactly the answers a single engine would give.
//! * **Locality-aware partitioning** ([`partition`]): routing is driven either by a *pure*
//!   [`Partitioner`] ([`HashPartitioner`], [`BlockPartitioner`]) or by a *stateful*
//!   assign-on-first-sight [`StatefulPartitioner`] — the LDG-style [`GreedyPartitioner`]
//!   pins each vertex, on first appearance, next to the neighbour it arrived with (capacity
//!   permitting) in a router-owned append-only [`AssignmentTable`]. Either way an edge routes
//!   to one shard forever, so per-shard validation and oracle equivalence are preserved while
//!   the spill share on community-structured streams collapses from ~`1 − 1/k` to roughly the
//!   true cross-community rate (see the README's "Partitioning" section).
//! * **Update coalescing** ([`coalesce`]): edge events ([`GraphUpdate`]) are buffered and
//!   deduplicated per edge — an insert followed by a delete annihilates, repeated re-weights
//!   collapse to one, delete + insert becomes a re-weight — then split into homogeneous
//!   deletion/insertion batches routed to the Theorem-1.5 batch fast paths of
//!   [`dynsld_msf::DynamicGraphClustering`] (with automatic per-edge fallback for
//!   cycle-closing insertions). The same merge table powers `Backpressure::Coalesce`
//!   compaction inside the submission queue.
//! * **Epoch-based snapshot queries** ([`snapshot`]): every flush publishes an immutable,
//!   cheaply-cloneable [`EngineSnapshot`] tagged with an epoch. Readers — on any thread —
//!   query flat clusterings, cluster sizes and component counts against *their* snapshot and
//!   never observe a half-applied batch; repeated queries at one epoch and threshold hit a
//!   per-snapshot cache, and merged service views are memoised the same way.
//! * **Instrumentation** ([`metrics`]): coalescing effectiveness, fast-path/fallback ratios,
//!   flush latency, spill routing share, and ingest-queue pressure (enqueued events, in-queue
//!   compaction, block waits, full rejections), exported as one [`Metrics`] value per shard
//!   and merged across shards with [`Metrics::merge`]. Per-flush partitioner quality is
//!   observable straight from the driver loop via
//!   [`ServiceFlushReport::spill_routing_share`].
//!
//! ## Quick start: the concurrent ingest pipeline
//!
//! ```
//! use dynsld_engine::{Backpressure, FlushPolicy, FlusherDriver, ServiceBuilder};
//! use dynsld_forest::{GraphUpdate, VertexId};
//!
//! // Four endpoint-partitioned shards + a spill shard for cross-shard edges; every shard
//! // flushes itself once 64 coalesced ops are pending; producers block when the 256-slot
//! // submission queue fills.
//! let service = ServiceBuilder::new()
//!     .vertices(5)
//!     .shards(4)
//!     .flush_policy(FlushPolicy::EveryNOps(64))
//!     .queue_capacity(256)
//!     .backpressure(Backpressure::Block)
//!     .build()
//!     .expect("a valid configuration");
//!
//! // Split the surface: clonable write and read handles, one driver owning the engines.
//! let ingest = service.ingest_handle();
//! let reader = service.read_handle();
//! let mut driver = FlusherDriver::new(service);
//!
//! let v = |i: u32| VertexId(i);
//! ingest.submit(GraphUpdate::Insert { u: v(0), v: v(1), weight: 1.0 }).unwrap();
//! ingest.submit(GraphUpdate::Insert { u: v(1), v: v(2), weight: 3.0 }).unwrap();
//! ingest.submit(GraphUpdate::Insert { u: v(0), v: v(2), weight: 2.0 }).unwrap();
//!
//! // Nothing is visible until the driver drains and the shards flush...
//! assert_eq!(reader.snapshot().num_components(), 5);
//!
//! let report = driver.pump().expect("drain");   // route everything queued
//! let flushed = driver.flush().expect("flush"); // then publish (or close the pipeline)
//! assert_eq!(flushed.ops_applied() + report.ops_applied(), 3);
//!
//! // ...then epoch-pinned reads serve consistent merged views across all shards: 0 and 2
//! // join at weight 2, and the weight-3 edge never lowers a merge height — no matter which
//! // shards the router sent the three edges to, and no matter how far the driver advances
//! // after the snapshot was taken.
//! let snap = reader.snapshot();
//! assert_eq!(snap.num_components(), 3);
//! assert!(snap.same_cluster(v(0), v(2), 2.0));
//! assert_eq!(snap.cluster_size(v(0), 1.5), 2);
//!
//! // The vertex set can grow while the pipeline runs.
//! let first_new = driver.add_vertices(3);
//! assert_eq!(first_new, v(5));
//! assert_eq!(reader.snapshot().num_vertices(), 8);
//! ```
//!
//! For producers and the driver on separate threads, park the driver with
//! [`FlusherDriver::run_until_closed`] and stop it with [`IngestHandle::close`] — see the
//! [`ingest`] module docs and `examples/concurrent_ingest.rs`.
//!
//! [`ClusterService::single_shard`] is the one-engine, no-spill configuration for callers
//! that do not need sharding.
//!
//! ## Fault tolerance
//!
//! Every shard flush runs under `catch_unwind`: a torn shard is quarantined (its last
//! published epoch keeps serving, stale-flagged) while the rest of the service carries on, and
//! [`ClusterService::recover_shard`] rebuilds it from its private log — an image of the
//! shard's live edges plus the suffix of events routed since. Boot recovery of a
//! [durable](ServiceBuilder::durable) service takes the same rebuild path from the
//! checkpoint's images, then replays the write-ahead log's tail. The per-shard log is folded
//! back into its image as the stream advances, so its memory is bounded by the live edges,
//! not by the length of the stream.

#![warn(missing_docs)]

pub mod coalesce;
pub mod delta;
pub mod engine;
pub mod faults;
pub mod ingest;
pub mod metrics;
pub mod partition;
pub mod service;
pub mod snapshot;

pub use coalesce::{CoalescedBatch, Coalescer, RejectReason};
pub use delta::{
    merge_flat_clusterings, Patch, ShardDelta, SnapshotDelta, SyncResponse, ThresholdRelabel,
};
pub use engine::{ClusteringEngine, EngineError, FlushReport};
pub use faults::{
    CheckpointWriteFault, FaultPlan, FaultSpecError, InjectedFault, WalWriteFault, WireFault,
};
pub use ingest::{Backpressure, DrainReport, FlusherDriver, IngestError, IngestHandle, ReadHandle};
pub use metrics::Metrics;
pub use partition::{
    AssignmentTable, BlockPartitioner, GreedyPartitioner, HashPartitioner, Partitioner, ShardId,
    StatefulPartitioner,
};
pub use service::{
    ClusterService, ConfigError, DurabilityReport, FlushPolicy, RecoveryReport, ServiceBuilder,
    ServiceError, ServiceFlushReport, ServiceSnapshot, ShardHealth,
};

// The durable layer's tuning vocabulary, re-exported so durable services can be configured
// without depending on `dynsld-durable` directly.
pub use dynsld_durable::FsyncPolicy;
pub use snapshot::{EngineSnapshot, ThresholdCache};

// The event vocabulary is defined next to the workload generators so that generated streams
// feed straight into the engine.
pub use dynsld_forest::workload::GraphUpdate;
