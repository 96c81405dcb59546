//! Shared support for the integration tests under `tests/`: the seeded service configuration
//! the bit-identity proptests draw ([`Config`]), the drain and feed helpers, the one
//! bit-identity assertion, and a temporary directory that removes itself.

use dynsld::{DynSldOptions, FlatClustering, ForestBackend};
use dynsld_engine::{
    BlockPartitioner, EngineSnapshot, FaultPlan, FlushPolicy, FlusherDriver, GraphUpdate,
    GreedyPartitioner, HashPartitioner, IngestError, ServiceBuilder, ServiceSnapshot,
};
use dynsld_serve::Mirror;
use dynsld_telemetry::Telemetry;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Thresholds the bit-identity checks compare clusterings at.
pub const TAUS: [f64; 4] = [1.0, 2.0, 5.0, f64::INFINITY];

/// The entry-panic plan of [`Config::entry_panics`]: every fifth non-empty flush of each shard
/// panics before consuming any buffered work, and the service retries it transparently.
pub const ENTRY_PANICS: &str = "flush_panic=every:5,entry";

/// The crash plan of a [`Config::durable`] service: the seventh WAL append is the last one
/// persisted. The journal dies; the in-memory engines never notice.
pub const DURABLE_CRASHES: &str = "crash=every:7";

/// How a [`Config`] assigns vertices to shards.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Partitioning {
    /// [`HashPartitioner`].
    Hash,
    /// [`BlockPartitioner`] with blocks of `1 + n / shards` vertices.
    Block,
    /// The stateful [`GreedyPartitioner`].
    Greedy,
}

const PARTITIONINGS: [Partitioning; 3] = [
    Partitioning::Hash,
    Partitioning::Block,
    Partitioning::Greedy,
];
const BACKENDS: [ForestBackend; 2] = [ForestBackend::Scan, ForestBackend::Hdt];
const THREADS: [usize; 3] = [1, 2, 4];
const QUEUE_CAPACITIES: [usize; 3] = [1, 7, 1024];

fn pick<T: Copy>(rng: &mut SmallRng, options: &[T]) -> T {
    options[rng.gen_range(0..options.len())]
}

/// One service configuration, drawn from a seed: every setting a [`ServiceBuilder`] takes
/// that must not change a published clustering. Tests build services with
/// [`builder`](Self::builder) and compare them against an oracle; dropping a `Config` while
/// a test panics prints it, so every failure names the configuration that produced it —
/// rebuild it with `Config::from_seed(<printed seed>)`.
#[derive(Debug)]
pub struct Config {
    /// The seed [`from_seed`](Self::from_seed) drew this configuration from.
    pub seed: u64,
    /// Routed shards (1–4).
    pub shards: usize,
    /// Manual, every-n-ops (n in 1..17), or on-read flushes.
    pub policy: FlushPolicy,
    /// The vertex-to-shard assignment.
    pub partitioning: Partitioning,
    /// The MSF replacement-search backend.
    pub backend: ForestBackend,
    /// Service flush parallelism (1, 2 or 4).
    pub threads: usize,
    /// Submission queue capacity (1, 7 or 1024).
    pub queue_capacity: usize,
    /// Whether the pipeline records telemetry.
    pub telemetry: bool,
    /// Whether [`ENTRY_PANICS`] is armed.
    pub entry_panics: bool,
    /// Where durable services journal, if durable; each built service gets its own
    /// subdirectory, and [`DURABLE_CRASHES`] is armed.
    pub durable: Option<TempDir>,
    built: AtomicU64,
}

impl Config {
    /// The configuration drawn from `seed`, each axis uniformly.
    pub fn from_seed(seed: u64) -> Config {
        let mut rng = SmallRng::seed_from_u64(seed);
        let shards = rng.gen_range(1..5);
        let policy = match rng.gen_range(0..3) {
            0 => FlushPolicy::Manual,
            1 => FlushPolicy::EveryNOps(rng.gen_range(1..17)),
            _ => FlushPolicy::OnRead,
        };
        Config {
            seed,
            shards,
            policy,
            partitioning: pick(&mut rng, &PARTITIONINGS),
            backend: pick(&mut rng, &BACKENDS),
            threads: pick(&mut rng, &THREADS),
            queue_capacity: pick(&mut rng, &QUEUE_CAPACITIES),
            telemetry: rng.gen(),
            entry_panics: rng.gen(),
            durable: rng.gen::<bool>().then(|| TempDir::new("config")),
            built: AtomicU64::new(0),
        }
    }

    /// A builder over `n` vertices with every setting of this configuration applied. Later
    /// setter calls override it.
    pub fn builder(&self, n: usize) -> ServiceBuilder {
        let telemetry = if self.telemetry {
            Telemetry::enabled_with_capacity(1 << 12)
        } else {
            Telemetry::disabled()
        };
        let builder = ServiceBuilder::new()
            .vertices(n)
            .shards(self.shards)
            .flush_policy(self.policy)
            .options(DynSldOptions {
                msf_backend: self.backend,
                ..DynSldOptions::default()
            })
            .threads(self.threads)
            .queue_capacity(self.queue_capacity)
            .telemetry(telemetry)
            .faults(self.faults_with(""));
        let builder = match self.partitioning {
            Partitioning::Hash => builder.partitioner(HashPartitioner),
            Partitioning::Block => builder.partitioner(BlockPartitioner {
                block_size: 1 + n / self.shards,
            }),
            Partitioning::Greedy => builder.stateful_partitioner(GreedyPartitioner::default()),
        };
        match &self.durable {
            Some(dir) => {
                let k = self.built.fetch_add(1, Ordering::Relaxed);
                builder.durable(dir.path().join(format!("service-{k}")))
            }
            None => builder,
        }
    }

    /// This configuration's fault plan with the `extra` rules (a [`FaultPlan::parse`] spec)
    /// added.
    pub fn faults_with(&self, extra: &str) -> FaultPlan {
        let mut spec = extra.to_string();
        for (on, rule) in [
            (self.entry_panics, ENTRY_PANICS),
            (self.durable.is_some(), DURABLE_CRASHES),
        ] {
            if on {
                spec = format!("{spec};{rule}");
            }
        }
        FaultPlan::parse(&spec).expect("valid fault spec")
    }
}

/// The proptest strategy for a [`Config`]: one RNG word, the seed.
pub fn configs() -> impl Strategy<Value = Config> {
    any::<u64>().prop_map(Config::from_seed)
}

impl fmt::Display for Config {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Config::from_seed({:#x}) = {self:?}", self.seed)
    }
}

impl Drop for Config {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!("failing configuration: {self}");
        }
    }
}

/// A unique path under the system temporary directory, removed with everything below it
/// when the guard drops — after a failing case as well as a passing one.
#[derive(Debug)]
pub struct TempDir(PathBuf);

impl TempDir {
    /// A fresh path tagged `tag`; nothing is created until someone writes there.
    pub fn new(tag: &str) -> TempDir {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "dynsld-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&path);
        TempDir(path)
    }

    /// The guarded path.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Drains the queue and flushes every shard, returning the freshly published view.
pub fn drain(driver: &mut FlusherDriver) -> ServiceSnapshot {
    driver.pump().expect("validated stream");
    driver
        .flush()
        .expect("flush isolates faults, never errors on them");
    driver.service().published()
}

/// Submits `events` in order from the calling thread, draining the queue whenever it is full,
/// so one thread can feed a service at any queue capacity (1 degenerates to a drain per
/// event, the fully contended path).
pub fn feed(driver: &mut FlusherDriver, events: impl IntoIterator<Item = GraphUpdate>) {
    let ingest = driver.service().ingest_handle();
    for event in events {
        loop {
            match ingest.try_submit(event) {
                Ok(()) => break,
                Err(IngestError::QueueFull { .. }) => {
                    driver.pump().expect("validated stream");
                }
                Err(e) => panic!("unexpected ingest failure: {e}"),
            }
        }
    }
}

/// A published clustering: a service view, one engine's snapshot, or a subscriber's mirror.
pub trait View {
    fn num_vertices(&self) -> usize;
    fn num_graph_edges(&self) -> usize;
    fn num_components(&self) -> usize;
    fn flat_clustering(&self, tau: f64) -> Arc<FlatClustering>;
}

macro_rules! impl_view {
    ($($t:ty),*) => {$(
        impl View for $t {
            fn num_vertices(&self) -> usize {
                <$t>::num_vertices(self)
            }
            fn num_graph_edges(&self) -> usize {
                <$t>::num_graph_edges(self)
            }
            fn num_components(&self) -> usize {
                <$t>::num_components(self)
            }
            fn flat_clustering(&self, tau: f64) -> Arc<FlatClustering> {
                <$t>::flat_clustering(self, tau)
            }
        }
    )*};
}

impl_view!(ServiceSnapshot, EngineSnapshot, Mirror);

/// Bit identity of two views: equal vertex, edge and component counts, and identical cluster
/// labels and member lists at every threshold in `taus`.
pub fn assert_bit_identical(a: &impl View, b: &impl View, taus: &[f64], context: &str) {
    assert_eq!(a.num_vertices(), b.num_vertices(), "{context}");
    assert_eq!(a.num_graph_edges(), b.num_graph_edges(), "{context}");
    assert_eq!(a.num_components(), b.num_components(), "{context}");
    for &tau in taus {
        let (ca, cb) = (a.flat_clustering(tau), b.flat_clustering(tau));
        assert_eq!(
            ca.labels, cb.labels,
            "{context}: labels diverged at tau={tau}"
        );
        assert_eq!(
            ca.clusters, cb.clusters,
            "{context}: member lists diverged at tau={tau}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngCore;

    /// Number of values each axis of [`axis_values`] takes: shards, flush policy,
    /// partitioning, backend, threads, queue capacity, telemetry, entry panics, durable.
    const AXIS_SIZES: [usize; 9] = [4, 3, 3, 2, 3, 3, 2, 2, 2];

    fn index_of<T: PartialEq>(options: &[T], value: T) -> usize {
        options
            .iter()
            .position(|o| *o == value)
            .expect("drawn from the options")
    }

    /// The index of `config`'s value on each axis.
    fn axis_values(config: &Config) -> [usize; 9] {
        [
            config.shards - 1,
            match config.policy {
                FlushPolicy::Manual => 0,
                FlushPolicy::EveryNOps(_) => 1,
                FlushPolicy::OnRead => 2,
            },
            index_of(&PARTITIONINGS, config.partitioning),
            index_of(&BACKENDS, config.backend),
            index_of(&THREADS, config.threads),
            index_of(&QUEUE_CAPACITIES, config.queue_capacity),
            usize::from(config.telemetry),
            usize::from(config.entry_panics),
            usize::from(config.durable.is_some()),
        ]
    }

    /// `(cases, RNG words per case)` of each proptest that draws a [`Config`] as its first
    /// binding and honours every axis of it (one word per binding: every binding is a scalar
    /// strategy). A proptest that pins an axis is left out, which only undercounts.
    const DRAWS: &[(u32, usize)] = &[
        (32, 4), // service_oracle::sharded_service_matches_single_engine_oracle
        (32, 4), // service_oracle::concurrent_flush_service_matches_single_engine_oracle
        (24, 3), // ingest_pipeline::queued_policies_match_sequential_oracle
        (24, 5), // delta_serving::delta_chain_replay_is_bit_identical_to_full_snapshot
        (48, 4), // msf_backends::hdt_service_is_bit_identical_to_scan_service
        (24, 7), // fault_recovery::panic_quarantine_recover_is_bit_identical_to_oracle
        (24, 9), // crash_recovery::crash_anywhere_recovers_bit_identical_to_the_durable_…
    ];

    /// Replays the shim's deterministic RNG through every proptest in [`DRAWS`]: each axis
    /// value must appear in at least three distinct drawn configurations.
    #[test]
    fn every_config_axis_value_is_drawn_at_least_three_times() {
        let mut seeds = std::collections::BTreeSet::new();
        for &(cases, words) in DRAWS {
            let mut rng = proptest::test_runner::deterministic_rng();
            for _ in 0..cases {
                seeds.insert(configs().new_value(&mut rng).seed);
                for _ in 1..words {
                    rng.next_u64();
                }
            }
        }
        let mut counts = AXIS_SIZES.map(|size| vec![0u32; size]);
        for seed in seeds {
            for (axis, value) in axis_values(&Config::from_seed(seed))
                .into_iter()
                .enumerate()
            {
                counts[axis][value] += 1;
            }
        }
        for (axis, values) in counts.iter().enumerate() {
            assert!(values.iter().all(|&c| c >= 3), "axis {axis}: {values:?}");
        }
    }

    /// The variables the library used to read, set to values that each changed the default
    /// or failed the build: a child run of this very test must see the plain defaults.
    #[test]
    fn retired_environment_variables_change_nothing() {
        let service = ServiceBuilder::new()
            .vertices(8)
            .build()
            .expect("the defaults build whatever the environment says");
        assert!(service.assignment_table().is_none());
        assert!(service.durability().is_none());
        assert!(!service.telemetry().is_enabled());
        assert_eq!(DynSldOptions::default().msf_backend, ForestBackend::Scan);
        if std::env::var_os("DYNSLD_DURABLE_DIR").is_some() {
            return; // the child
        }
        let dir = TempDir::new("retired-env");
        let name = "tests::retired_environment_variables_change_nothing";
        let out = std::process::Command::new(std::env::current_exe().expect("test binary"))
            .args(["--exact", name, "--test-threads=1"])
            .env("DYNSLD_MSF_BACKEND", "hdt")
            .env("DYNSLD_PARTITIONER", "greedy")
            .env("DYNSLD_FAULTS", "bogus")
            .env("DYNSLD_TRACE", "1")
            .env("DYNSLD_DURABLE_DIR", dir.path())
            .output()
            .expect("re-run the test binary");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success() && stdout.contains("1 passed"),
            "{stdout}{}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(
            !dir.path().exists(),
            "nothing journaled into DYNSLD_DURABLE_DIR"
        );
    }
}
