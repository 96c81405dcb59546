//! The validated configuration of a [`ClusterService`]: the [`ServiceBuilder`], the
//! [`FlushPolicy`], and the one place a service value is assembled.

use super::recovery::rebuild_engine;
use super::*;
use crate::partition::{GreedyPartitioner, HashPartitioner, Partitioner, StatefulPartitioner};
use dynsld::ForestBackend;
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

impl PartitionerChoice {
    /// The builder default, selectable via the `DYNSLD_PARTITIONER` environment variable:
    /// `greedy` picks [`GreedyPartitioner`] (the CI matrix uses this to run the whole suite
    /// under stateful routing), `hash` or unset picks [`HashPartitioner`]. Any other value
    /// falls back to [`HashPartitioner`] with a once-per-process warning on stderr — a
    /// silently ignored typo would defeat the knob's whole purpose (running a test matrix
    /// under stateful routing).
    fn from_env() -> Self {
        match std::env::var("DYNSLD_PARTITIONER").as_deref() {
            Ok("greedy") => PartitionerChoice::Stateful(Arc::new(GreedyPartitioner::default())),
            Ok("hash") | Err(_) => PartitionerChoice::Pure(Arc::new(HashPartitioner)),
            Ok(other) => {
                static WARNED: std::sync::Once = std::sync::Once::new();
                let other = other.to_string();
                WARNED.call_once(|| {
                    eprintln!(
                        "warning: DYNSLD_PARTITIONER={other:?} is not recognized \
                         (expected \"hash\" or \"greedy\"); defaulting to HashPartitioner"
                    );
                });
                PartitionerChoice::Pure(Arc::new(HashPartitioner))
            }
        }
    }
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
    shard_backends: Vec<(usize, ForestBackend)>,
    threads: Option<usize>,
    queue_capacity: usize,
    backpressure: Backpressure,
    telemetry: Option<Telemetry>,
    delta_ring: usize,
    tracked_thresholds: Vec<Weight>,
    faults: Option<FaultPlan>,
    faults_spec: Option<String>,
    durable_dir: Option<PathBuf>,
    fsync: FsyncPolicy,
    checkpoint_every: u64,
}

impl Default for ServiceBuilder {
    fn default() -> Self {
        ServiceBuilder {
            vertices: None,
            num_shards: 1,
            partitioner: PartitionerChoice::from_env(),
            policy: FlushPolicy::Manual,
            options: DynSldOptions::default(),
            shard_backends: Vec::new(),
            threads: None,
            queue_capacity: 1024,
            backpressure: Backpressure::Block,
            telemetry: None,
            delta_ring: 64,
            tracked_thresholds: Vec::new(),
            faults: None,
            faults_spec: None,
            durable_dir: None,
            fsync: FsyncPolicy::default(),
            checkpoint_every: 256,
        }
    }
}

impl ServiceBuilder {
    /// A builder with the defaults: one shard, [`HashPartitioner`] (overridable process-wide
    /// with `DYNSLD_PARTITIONER=greedy`, which the CI matrix uses to run the whole test suite
    /// under the stateful [`GreedyPartitioner`]), [`FlushPolicy::Manual`], default
    /// [`DynSldOptions`], a 1024-slot submission queue with [`Backpressure::Block`]. An
    /// explicit [`partitioner`](Self::partitioner) / [`stateful_partitioner`](Self::stateful_partitioner)
    /// call always wins over the environment. The vertex count has no default — set it with
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
    /// [`GreedyPartitioner`] for the LDG-style greedy rule.
    pub fn stateful_partitioner(mut self, p: impl StatefulPartitioner + 'static) -> Self {
        self.partitioner = PartitionerChoice::Stateful(Arc::new(p));
        self
    }

    /// When shards flush their pending buffers.
    pub fn flush_policy(mut self, policy: FlushPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Dendrogram-maintenance options passed to every shard engine.
    pub fn options(mut self, options: DynSldOptions) -> Self {
        self.options = options;
        self
    }

    /// The MSF replacement-search backend every shard engine uses (shorthand for setting
    /// [`DynSldOptions::msf_backend`] through [`options`](Self::options)). Defaults to the
    /// `DYNSLD_MSF_BACKEND` environment variable via [`DynSldOptions::default`]. Both
    /// backends are bit-identical in results, so this is purely a performance policy; see
    /// the `dynsld-msf` crate docs for the trade-off.
    pub fn msf_backend(mut self, backend: ForestBackend) -> Self {
        self.options.msf_backend = backend;
        self
    }

    /// Overrides the MSF replacement-search backend for one shard engine. `shard` indexes
    /// engines in shard order — routed shards `0..shards`, and on a multi-shard service the
    /// spill shard last (index `shards`) — the same convention fault rules use. Because the
    /// backends are bit-identical, shards can mix freely: a deletion-heavy shard can run
    /// [`ForestBackend::Hdt`] while the rest keep the scan backend. Later overrides for the
    /// same shard win; out-of-range indices are rejected at [`build`](Self::build) time.
    pub fn shard_msf_backend(mut self, shard: usize, backend: ForestBackend) -> Self {
        self.shard_backends.push((shard, backend));
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
    /// [`Telemetry::from_env`] — a true no-op unless `DYNSLD_TRACE=1` — so instrumentation
    /// costs one branch per site when nobody is looking.
    pub fn telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = Some(telemetry);
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

    /// Thresholds whose cluster labels each publish-step delta reports
    /// ([`SnapshotDelta::relabels`]): subscribers watching these cuts learn exactly which
    /// vertices moved without recomputing the clustering. Each tracked threshold costs one
    /// merged-clustering evaluation per publish (cached on the published view, so readers at
    /// the same threshold get it for free). Defaults to none; duplicates are dropped.
    pub fn track_thresholds(mut self, thresholds: impl IntoIterator<Item = Weight>) -> Self {
        for tau in thresholds {
            if !self
                .tracked_thresholds
                .iter()
                .any(|t| t.to_bits() == tau.to_bits())
            {
                self.tracked_thresholds.push(tau);
            }
        }
        self
    }

    /// Arms a deterministic [`FaultPlan`] on the built pipeline: the plan is threaded to
    /// every shard engine (`flush_panic` rules; `shard:<s>` indexes engines in shard order,
    /// so on a sharded service the spill shard is `shard:<num_shards>`) and to the
    /// submission queue (`queue_full` rules). Defaults to [`FaultPlan::from_env`] — a true
    /// no-op unless `DYNSLD_FAULTS` is set — so the hooks cost one branch per site in
    /// production.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Arms a fault plan given as its spec string, parsed (and validated) at
    /// [`build`](Self::build) time: a malformed clause surfaces as
    /// [`ConfigError::BadFaultSpec`] naming the offending rule instead of being silently
    /// ignored. Equivalent to setting `DYNSLD_FAULTS`, but per-service and race-free under
    /// concurrent tests. An explicit [`faults`](Self::faults) plan wins over a spec.
    pub fn faults_spec(mut self, spec: impl Into<String>) -> Self {
        self.faults_spec = Some(spec.into());
        self
    }

    /// Makes the built service *durable*: a write-ahead log and periodic checkpoints live
    /// in `dir`, and [`build`](Self::build) recovers whatever a previous process left
    /// there — it loads the newest valid checkpoint (falling back past a corrupt one),
    /// replays the WAL tail through the normal routing paths, and resumes serving, with
    /// the published revision bumped past the checkpoint's so pre-crash cached validators
    /// never match. Pass the *same* directory across process restarts; state from a
    /// different configuration (other shard count/partitioner) is rejected at build.
    ///
    /// The `DYNSLD_DURABLE_DIR` environment variable arms durability process-wide for
    /// services that did not call this: each such service gets a fresh unique subdirectory
    /// (so independently built services never share a log), which exercises the durable
    /// write path everywhere but — unlike an explicit `durable(dir)` — never recovers
    /// anything.
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
        if let Some(&(shard, _)) = self
            .shard_backends
            .iter()
            .find(|&&(shard, _)| shard >= num_engines)
        {
            return Err(ConfigError::ShardIndexOutOfRange {
                shard,
                engines: num_engines,
            }
            .into());
        }
        // Resolve the per-engine options up front (base options, then per-shard backend
        // overrides, later overrides winning) and keep them: shard recovery rebuilds an
        // engine from scratch and must reproduce its exact configuration.
        let mut shard_options = vec![self.options; num_engines];
        for &(shard, backend) in &self.shard_backends {
            shard_options[shard].msf_backend = backend;
        }
        let telemetry = self.telemetry.unwrap_or_else(Telemetry::from_env);
        // An explicit plan wins; then a builder-level spec string; then the environment.
        // Spec strings (from either source) are parsed *here* so a malformed clause is a
        // build-time ConfigError naming the offending rule, not a silently ignored plan.
        let faults = match (self.faults, &self.faults_spec) {
            (Some(plan), _) => plan,
            (None, Some(spec)) => FaultPlan::parse(spec).map_err(ConfigError::BadFaultSpec)?,
            (None, None) => FaultPlan::from_env_checked().map_err(ConfigError::BadFaultSpec)?,
        };
        let durable_dir = self.durable_dir.clone().or_else(env_durable_dir);
        let engines = (0..num_engines)
            .map(|idx| {
                let id = ShardId::of_slot(idx, self.num_shards);
                let mut engine = rebuild_engine(id, shard_options[idx], &telemetry, n, &[])?;
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
            tracked_thresholds: self.tracked_thresholds,
            telemetry,
            vertices: n,
            shard_options,
            faults,
            panics_caught: 0,
            quarantines: 0,
            recoveries: 0,
            durable: None,
        };
        if let Some(dir) = durable_dir {
            service.attach_durability(&dir, self.fsync, self.checkpoint_every.max(1))?;
        }
        Ok(service)
    }
}

/// Resolves `DYNSLD_DURABLE_DIR` to a fresh per-service subdirectory: services built under
/// the env var (the CI soak mode) each get their own log, keyed by pid plus a process-local
/// counter, so concurrently built services never interleave WAL segments.
fn env_durable_dir() -> Option<PathBuf> {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let base = std::env::var_os("DYNSLD_DURABLE_DIR")?;
    let unique = NEXT.fetch_add(1, Ordering::Relaxed);
    Some(PathBuf::from(base).join(format!("svc-{}-{unique}", std::process::id())))
}
