//! The validated configuration of a [`ClusterService`]: the [`ServiceBuilder`], the
//! [`FlushPolicy`], and the one place a service value is assembled.

use super::recovery::rebuild_engine;
use super::*;
use crate::partition::{HashPartitioner, Partitioner, StatefulPartitioner};
use dynsld_durable::FsyncPolicy;
use std::path::PathBuf;

/// When the service flushes a shard's pending buffer.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum FlushPolicy {
    /// Only on explicit [`FlusherDriver::flush`] calls and the final flush of
    /// [`FlusherDriver::run_until_closed`].
    Manual,
    /// A shard is flushed as soon as its pending buffer reaches `n` coalesced operations
    /// (checked after every routed event). `n` is clamped to at least 1.
    EveryNOps(usize),
    /// Reads observe every routed event: the [`FlusherDriver`] ends every non-empty drain
    /// with a full flush.
    OnRead,
}

/// How a [`ServiceBuilder`] was asked to partition vertices: a pure function, or a stateful
/// assign-on-first-sight chooser that the built service pairs with a fresh
/// [`AssignmentTable`].
#[derive(Clone, Debug)]
enum PartitionerChoice {
    Pure(Arc<dyn Partitioner>),
    Stateful(Arc<dyn StatefulPartitioner>),
}

/// Validated configuration for a [`ClusterService`]; built with the builder pattern.
///
/// Every setter stores its argument as-is; [`build`](Self::build) validates the whole
/// configuration at once and returns [`ServiceError::InvalidConfig`] (never panics) on
/// nonsense like `shards(0)` or a missing vertex count.
///
/// ```
/// use dynsld_engine::{FlushPolicy, ServiceBuilder};
///
/// let service = ServiceBuilder::new()
///     .vertices(10_000)
///     .shards(4)
///     .flush_policy(FlushPolicy::EveryNOps(256))
///     .build()
///     .expect("a valid configuration");
/// assert_eq!(service.num_shards(), 4);
/// assert!(ServiceBuilder::new().vertices(8).shards(0).build().is_err());
/// ```
#[derive(Clone, Debug)]
pub struct ServiceBuilder {
    vertices: Option<usize>,
    num_shards: usize,
    partitioner: PartitionerChoice,
    policy: FlushPolicy,
    options: DynSldOptions,
    threads: Option<usize>,
    queue_capacity: usize,
    backpressure: Backpressure,
    telemetry: Telemetry,
    delta_ring: usize,
    faults: FaultPlan,
    durable_dir: Option<PathBuf>,
    fsync: FsyncPolicy,
    checkpoint_every: u64,
}

impl Default for ServiceBuilder {
    fn default() -> Self {
        ServiceBuilder {
            vertices: None,
            num_shards: 1,
            partitioner: PartitionerChoice::Pure(Arc::new(HashPartitioner)),
            policy: FlushPolicy::Manual,
            options: DynSldOptions::default(),
            threads: None,
            queue_capacity: 1024,
            backpressure: Backpressure::Block,
            telemetry: Telemetry::disabled(),
            delta_ring: 64,
            faults: FaultPlan::disabled(),
            durable_dir: None,
            fsync: FsyncPolicy::default(),
            checkpoint_every: 256,
        }
    }
}

impl ServiceBuilder {
    /// A builder with the defaults: one shard, [`HashPartitioner`], [`FlushPolicy::Manual`],
    /// default [`DynSldOptions`], a 1024-slot submission queue with [`Backpressure::Block`],
    /// disabled [`Telemetry`], a disabled [`FaultPlan`] and no durability. Nothing is read
    /// from the environment. The vertex count has no default — set it with
    /// [`vertices`](Self::vertices).
    pub fn new() -> Self {
        Self::default()
    }

    /// The service covers vertices `0..n`. Every shard engine covers the full vertex range
    /// (the partitioner splits *edges*, not vertex storage), so any shard can validate and
    /// apply any edge it is routed. Required; [`build`](Self::build) rejects a configuration
    /// that never set it.
    pub fn vertices(mut self, n: usize) -> Self {
        self.vertices = Some(n);
        self
    }

    /// Number of endpoint-partitioned shards (validated ≥ 1 at build time). With more than
    /// one shard, a dedicated spill shard for cross-shard edges is added on top.
    pub fn shards(mut self, n: usize) -> Self {
        self.num_shards = n;
        self
    }

    /// The vertex-to-shard assignment. Must be a pure function of the vertex id (see
    /// [`Partitioner`]).
    pub fn partitioner(mut self, p: impl Partitioner + 'static) -> Self {
        self.partitioner = PartitionerChoice::Pure(Arc::new(p));
        self
    }

    /// A *stateful* assign-on-first-sight partitioner (see [`StatefulPartitioner`]): the
    /// built service owns an append-only [`AssignmentTable`], each vertex is pinned to a
    /// shard the first time the router sees it, and the pin holds for the service's lifetime
    /// — so edges still route to one shard forever and per-shard validation stays sound,
    /// while the *choice* of shard can follow the stream's locality. Pair with
    /// [`GreedyPartitioner`](crate::GreedyPartitioner) for the LDG-style greedy rule.
    pub fn stateful_partitioner(mut self, p: impl StatefulPartitioner + 'static) -> Self {
        self.partitioner = PartitionerChoice::Stateful(Arc::new(p));
        self
    }

    /// When shards flush their pending buffers.
    pub fn flush_policy(mut self, policy: FlushPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Dendrogram-maintenance options passed to every shard engine, including the MSF
    /// replacement-search backend ([`DynSldOptions::msf_backend`]). Both backends are
    /// bit-identical in results, so the backend is purely a performance policy; see the
    /// `dynsld-msf` crate docs for the trade-off.
    pub fn options(mut self, options: DynSldOptions) -> Self {
        self.options = options;
        self
    }

    /// Capacity of the bounded submission queue behind [`IngestHandle`]s (validated ≥ 1 at
    /// build time). Small capacities apply backpressure early; large ones absorb bursts.
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// The default [`Backpressure`] mode of handles created by
    /// [`ClusterService::ingest_handle`] (individual handles can override it with
    /// [`IngestHandle::with_backpressure`]).
    pub fn backpressure(mut self, backpressure: Backpressure) -> Self {
        self.backpressure = backpressure;
        self
    }

    /// Service-level flush parallelism (validated ≥ 1 at build time). With `threads(1)` the
    /// service flushes its shards strictly sequentially on the flushing thread — reproducing
    /// the pre-pool behaviour bit for bit, including the early stop on a shard failure. With
    /// `n ≥ 2`, full flushes fan the dirty shards out over the workspace fork-join pool
    /// ([`rayon::join`]); multi-threaded requests are also forwarded to
    /// [`rayon::configure_threads`] so an early-built service can size the lazily-started
    /// pool (`DYNSLD_THREADS` still wins; `threads(1)` is service-local and never shrinks
    /// the shared pool).
    ///
    /// Defaults to [`rayon::current_num_threads`] — i.e. concurrent flushes whenever the
    /// process has a multi-threaded pool.
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = Some(n);
        self
    }

    /// The [`Telemetry`] registry the built pipeline records into: queue submit/block-wait
    /// latency, drain sizes, routing time, and per-shard flush-phase histograms all land
    /// here, and [`ClusterService::telemetry`] exposes it for snapshots. Defaults to
    /// [`Telemetry::disabled`], so instrumentation costs one branch per site when nobody is
    /// looking.
    pub fn telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Capacity of the publish-step delta ring behind [`ReadHandle::sync_from`]: how many
    /// publishes a subscriber may fall behind and still catch up with a [`Patch`] instead of
    /// a full snapshot. Defaults to 64. `delta_ring(0)` disables delta retention entirely —
    /// publishes skip the diff work and every stale sync is a full-snapshot fallback.
    pub fn delta_ring(mut self, capacity: usize) -> Self {
        self.delta_ring = capacity;
        self
    }

    /// Arms a deterministic [`FaultPlan`] on the built pipeline: the plan is threaded to
    /// every shard engine (`flush_panic` rules; `shard:<s>` indexes engines in shard order,
    /// so on a sharded service the spill shard is `shard:<num_shards>`) and to the
    /// submission queue (`queue_full` rules). Defaults to [`FaultPlan::disabled`], so the
    /// hooks cost one branch per site in production. A plan given as a spec string comes
    /// from [`FaultPlan::parse`].
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Makes the built service *durable*: a write-ahead log and periodic checkpoints live
    /// in `dir`, and [`build`](Self::build) recovers whatever a previous process left
    /// there — it loads the newest valid checkpoint (falling back past a corrupt one),
    /// replays the WAL tail through the normal routing paths, and resumes serving, with
    /// the published revision bumped past the checkpoint's so pre-crash cached validators
    /// never match. Pass the *same* directory across process restarts; state from a
    /// different configuration (other shard count/partitioner) is rejected at build.
    pub fn durable(mut self, dir: impl Into<PathBuf>) -> Self {
        self.durable_dir = Some(dir.into());
        self
    }

    /// When WAL appends are forced to stable storage (see [`FsyncPolicy`] for the
    /// trade-off table). Defaults to [`FsyncPolicy::EveryDrain`]. No effect unless the
    /// service is [`durable`](Self::durable).
    pub fn fsync(mut self, policy: FsyncPolicy) -> Self {
        self.fsync = policy;
        self
    }

    /// How many WAL records may accumulate before the next end-of-drain opportunity
    /// writes a checkpoint (clamped to ≥ 1, defaults to 256). Checkpoints only happen at
    /// quiescent points — every shard healthy and no pending buffered ops — so the WAL
    /// coverage boundary is exact. No effect unless the service is
    /// [`durable`](Self::durable).
    pub fn checkpoint_every_records(mut self, n: u64) -> Self {
        self.checkpoint_every = n;
        self
    }

    /// Validates the configuration and builds the service (the owner of the shard engines).
    /// Interact with it through [`ClusterService::ingest_handle`],
    /// [`ClusterService::read_handle`], and a [`FlusherDriver`].
    ///
    /// Invalid configurations return [`ServiceError::InvalidConfig`]; see [`ConfigError`]
    /// for the arms.
    pub fn build(self) -> Result<ClusterService, ServiceError> {
        let n = self.vertices.ok_or(ConfigError::MissingVertexCount)?;
        if n as u64 > u64::from(u32::MAX) {
            return Err(ConfigError::VertexCountOverflow { requested: n }.into());
        }
        if self.num_shards == 0 {
            return Err(ConfigError::ZeroShards.into());
        }
        if self.threads == Some(0) {
            return Err(ConfigError::ZeroThreads.into());
        }
        if self.queue_capacity == 0 {
            return Err(ConfigError::ZeroQueueCapacity.into());
        }
        // Only multi-threaded requests are forwarded to the (first-request-wins) global pool
        // configuration: `threads(1)` means "flush *this service* sequentially", not "pin the
        // whole process to one thread". The default (`None`) is deliberately *not* resolved
        // here — reading the pool size would start the pool, consuming the one-shot sizing
        // opportunity of any later-built service; it resolves lazily on first use instead.
        if let Some(t) = self.threads {
            if t > 1 {
                rayon::configure_threads(t);
            }
        }
        // Routed shards, plus the spill shard as soon as there is more than one.
        let num_engines = self.num_shards + usize::from(self.num_shards > 1);
        let (telemetry, faults) = (self.telemetry, self.faults);
        let engines = (0..num_engines)
            .map(|idx| {
                let id = ShardId::of_slot(idx, self.num_shards);
                let mut engine = rebuild_engine(id, self.options, &telemetry, n, &[])?;
                engine.set_faults(faults.clone(), idx);
                Ok(engine)
            })
            .collect::<Result<Vec<ClusteringEngine>, ServiceError>>()?;
        let published = ServiceSnapshot::merge(
            engines.iter().map(ClusteringEngine::snapshot).collect(),
            0,
            vec![ShardHealth::Healthy; engines.len()],
        );
        let router = match self.partitioner {
            PartitionerChoice::Pure(p) => Router::Pure(p),
            PartitionerChoice::Stateful(p) => Router::Stateful {
                partitioner: p,
                table: AssignmentTable::new(n, self.num_shards),
            },
        };
        let mut service = ClusterService {
            routed_events: vec![0; engines.len()],
            health: vec![ShardHealth::Healthy; engines.len()],
            logs: (0..engines.len()).map(|_| ShardLog::new(n)).collect(),
            engines,
            num_shards: self.num_shards,
            router,
            policy: self.policy,
            threads: self.threads,
            edge_inserts_routed: 0,
            edge_inserts_cut: 0,
            backpressure: self.backpressure,
            shared: Arc::new(ServiceShared {
                queue: IngestQueue::new(self.queue_capacity, telemetry.clone(), faults.clone()),
                published: RwLock::new(published),
                deltas: Mutex::new(DeltaRing::new(self.delta_ring)),
                serve: ServeCounters::default(),
            }),
            telemetry,
            vertices: n,
            options: self.options,
            faults,
            panics_caught: 0,
            quarantines: 0,
            recoveries: 0,
            durable: None,
        };
        if let Some(dir) = self.durable_dir {
            service.attach_durability(&dir, self.fsync, self.checkpoint_every.max(1))?;
        }
        Ok(service)
    }
}
