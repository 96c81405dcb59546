//! What the service tells its caller: per-shard health, what one full flush did, what a
//! shard recovery replayed, and what boot recovery found in the durable directory.

use super::ServiceError;
use crate::engine::{FlushPhases, FlushReport};
use crate::partition::ShardId;
use std::time::Duration;

#[cfg(doc)]
use crate::{ClusterService, FlusherDriver, Metrics, ServiceSnapshot};

/// The health of one shard engine, as tracked by the service and surfaced on
/// [`ServiceFlushReport::shard_health`] and [`ServiceSnapshot::shard_health`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ShardHealth {
    /// The shard applies and publishes normally.
    Healthy,
    /// A flush panicked after the shard's pending buffer was consumed: the engine's
    /// in-memory state is untrusted and the service no longer submits to or flushes it. Its
    /// last *published* snapshot (taken before the panic, so internally consistent) keeps
    /// backing the merged view, flagged stale ([`ServiceSnapshot::is_stale`]); routed events
    /// keep accumulating in the shard's log suffix until
    /// [`ClusterService::recover_shard`] rebuilds it from its image and replays them.
    Quarantined {
        /// The message of the panic that tore the shard.
        panic: String,
    },
}

impl ShardHealth {
    /// True when the shard is quarantined.
    pub fn is_quarantined(&self) -> bool {
        matches!(self, ShardHealth::Quarantined { .. })
    }
}

/// What one full service flush did: one [`FlushReport`] per shard, in shard order (routed
/// shards first, spill shard last) — or, inside a [`DrainReport`](crate::DrainReport), every
/// flush a drain performed in execution order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ServiceFlushReport {
    /// Per-shard reports. Shards with an empty pending buffer contribute a no-op report
    /// (zero ops, epoch unchanged).
    pub reports: Vec<(ShardId, FlushReport)>,
    /// Lifetime routed-event counts per shard at the time of this flush (routed shards
    /// first, spill shard last) — the load-balance view next to
    /// [`spill_routing_share`](Self::spill_routing_share). Populated by every full service
    /// flush ([`FlusherDriver::flush`](crate::FlusherDriver::flush) and policy-driven full
    /// flushes); inside a [`DrainReport`](crate::DrainReport) it holds the latest full
    /// flush's snapshot, and it is empty on the default value (a drain that only performed
    /// per-shard threshold flushes).
    pub shard_event_loads: Vec<(ShardId, u64)>,
    /// Per-shard health after this flush, in shard order. A shard that panicked during this
    /// very flush shows up quarantined here (and contributes a no-op report). Populated by
    /// every full service flush; inside a [`DrainReport`](crate::DrainReport) it holds the
    /// latest full flush's view, and it is empty on the default value.
    pub shard_health: Vec<(ShardId, ShardHealth)>,
    /// Wall-clock time of the whole service flush — the time the flushing thread was
    /// occupied, fan-out and joins included. With concurrent shard flushes this is less than
    /// [`shard_time_sum`](Self::shard_time_sum) (the pool overlaps shards) and at least
    /// [`slowest_shard_time`](Self::slowest_shard_time) (no flush finishes before its
    /// slowest shard). Summed across flushes by report absorption in a
    /// [`DrainReport`](crate::DrainReport).
    pub wall_time: Duration,
}

impl ServiceFlushReport {
    /// Logical operations applied across all shards (after coalescing).
    pub fn ops_applied(&self) -> usize {
        self.reports.iter().map(|(_, r)| r.ops_applied).sum()
    }

    /// Operations that rode the Theorem-1.5 batch fast paths, summed over shards.
    pub fn fast_path(&self) -> usize {
        self.reports.iter().map(|(_, r)| r.fast_path).sum()
    }

    /// Operations applied through the per-edge fallback, summed over shards.
    pub fn fallback(&self) -> usize {
        self.reports.iter().map(|(_, r)| r.fallback).sum()
    }

    /// The epoch vector after the flush, in shard order.
    pub fn epochs(&self) -> Vec<u64> {
        self.reports.iter().map(|(_, r)| r.epoch).collect()
    }

    /// The slowest single shard flush in this report — the critical path of a concurrent
    /// flush: however many threads the pool has, the service flush cannot beat its slowest
    /// shard. Compare with [`shard_time_sum`](Self::shard_time_sum) to see how much work the
    /// pool overlapped, and with [`wall_time`](Self::wall_time) for the fan-out overhead.
    pub fn slowest_shard_time(&self) -> Duration {
        self.reports
            .iter()
            .map(|(_, r)| r.duration)
            .max()
            .unwrap_or(Duration::ZERO)
    }

    /// Total busy time across all shard flushes — what a strictly sequential flush would
    /// have cost. `shard_time_sum / wall_time` is the effective flush speedup.
    pub fn shard_time_sum(&self) -> Duration {
        self.reports.iter().map(|(_, r)| r.duration).sum()
    }

    /// Per-stage decomposition summed over every shard flush in the report: total busy time
    /// spent coalescing, classifying (Kruskal partitioning + replacement search), applying
    /// MSF mutations, exporting snapshots, and publishing.
    pub fn phase_totals(&self) -> FlushPhases {
        let mut total = FlushPhases::default();
        for (_, r) in &self.reports {
            total = total.merge(&r.phases);
        }
        total
    }

    /// Number of shards that actually applied operations.
    pub fn shards_flushed(&self) -> usize {
        self.reports
            .iter()
            .filter(|(_, r)| r.ops_applied > 0)
            .count()
    }

    /// Fraction of this flush's applied operations that landed on the spill shard — the
    /// *per-flush* analogue of [`Metrics::spill_routing_share`], so partitioner quality is
    /// observable flush by flush straight from the driver loop instead of only as a lifetime
    /// aggregate. 0 when the flush applied nothing (or the service has no spill shard).
    ///
    /// ```
    /// use dynsld_engine::{BlockPartitioner, FlusherDriver, GraphUpdate, ServiceBuilder};
    /// use dynsld_forest::VertexId;
    ///
    /// let service = ServiceBuilder::new()
    ///     .vertices(8)
    ///     .shards(2)
    ///     .partitioner(BlockPartitioner { block_size: 4 })
    ///     .build()?;
    /// let ingest = service.ingest_handle();
    /// let mut driver = FlusherDriver::new(service);
    ///
    /// let v = |i: u32| VertexId(i);
    /// // Two shard-local edges and one cross-shard edge: 1/3 of the flushed ops spill.
    /// ingest.submit(GraphUpdate::Insert { u: v(0), v: v(1), weight: 1.0 }).unwrap();
    /// ingest.submit(GraphUpdate::Insert { u: v(4), v: v(5), weight: 1.0 }).unwrap();
    /// ingest.submit(GraphUpdate::Insert { u: v(1), v: v(4), weight: 2.0 }).unwrap();
    /// driver.pump()?;
    /// let report = driver.flush()?;
    /// assert!((report.spill_routing_share() - 1.0 / 3.0).abs() < 1e-12);
    /// # Ok::<(), dynsld_engine::ServiceError>(())
    /// ```
    pub fn spill_routing_share(&self) -> f64 {
        let total = self.ops_applied();
        if total == 0 {
            return 0.0;
        }
        let spill: usize = self
            .reports
            .iter()
            .filter(|(id, _)| id.is_spill())
            .map(|(_, r)| r.ops_applied)
            .sum();
        spill as f64 / total as f64
    }

    /// Max/min ratio of the *routed* shards' lifetime event loads (the spill shard is
    /// excluded — its load is what [`spill_routing_share`](Self::spill_routing_share)
    /// measures). 1.0 is perfect balance; [`f64::INFINITY`] when some routed shard has
    /// received no events yet; 0.0 when [`shard_event_loads`](Self::shard_event_loads) is
    /// unpopulated (single-shard threshold flushes, default value).
    ///
    /// ```
    /// use dynsld_engine::{BlockPartitioner, FlusherDriver, GraphUpdate, ServiceBuilder};
    /// use dynsld_forest::VertexId;
    ///
    /// let service = ServiceBuilder::new()
    ///     .vertices(8)
    ///     .shards(2)
    ///     .partitioner(BlockPartitioner { block_size: 4 })
    ///     .build()?;
    /// let ingest = service.ingest_handle();
    /// let mut driver = FlusherDriver::new(service);
    ///
    /// let v = |i: u32| VertexId(i);
    /// // Three events for shard 0, one for shard 1, one cross-shard (spill).
    /// ingest.submit(GraphUpdate::Insert { u: v(0), v: v(1), weight: 1.0 }).unwrap();
    /// ingest.submit(GraphUpdate::Insert { u: v(1), v: v(2), weight: 2.0 }).unwrap();
    /// ingest.submit(GraphUpdate::Insert { u: v(2), v: v(3), weight: 3.0 }).unwrap();
    /// ingest.submit(GraphUpdate::Insert { u: v(4), v: v(5), weight: 1.0 }).unwrap();
    /// ingest.submit(GraphUpdate::Insert { u: v(3), v: v(4), weight: 9.0 }).unwrap();
    /// driver.pump()?;
    /// let report = driver.flush()?;
    /// // Per-shard routed-event loads sit right next to the spill share:
    /// let loads: Vec<u64> = report.shard_event_loads.iter().map(|&(_, c)| c).collect();
    /// assert_eq!(loads, vec![3, 1, 1]); // shard 0, shard 1, spill
    /// assert_eq!(report.event_load_ratio(), 3.0);
    /// assert!((report.spill_routing_share() - 0.2).abs() < 1e-12);
    /// # Ok::<(), dynsld_engine::ServiceError>(())
    /// ```
    pub fn event_load_ratio(&self) -> f64 {
        let routed: Vec<u64> = self
            .shard_event_loads
            .iter()
            .filter(|(id, _)| !id.is_spill())
            .map(|&(_, count)| count)
            .collect();
        let (Some(&max), Some(&min)) = (routed.iter().max(), routed.iter().min()) else {
            return 0.0;
        };
        if min == 0 {
            return f64::INFINITY;
        }
        max as f64 / min as f64
    }

    /// Folds `other` into this report: per-shard flush reports are appended in execution
    /// order, wall time accumulates, and the load snapshot is replaced by `other`'s when
    /// present (loads are lifetime counters, so the later snapshot subsumes the earlier
    /// one).
    pub(crate) fn absorb(&mut self, other: ServiceFlushReport) {
        self.reports.extend(other.reports);
        self.wall_time += other.wall_time;
        if !other.shard_event_loads.is_empty() {
            self.shard_event_loads = other.shard_event_loads;
        }
        if !other.shard_health.is_empty() {
            self.shard_health = other.shard_health;
        }
    }
}

/// What [`ClusterService::recover_shard`] did: how much of the shard's log it replayed and
/// what the replay rejected (events routed to the shard *during* quarantine are logged without
/// validation — the torn engine cannot validate — so their rejections surface here, exactly
/// as the no-fault oracle would have rejected them at submit time).
#[derive(Clone, Debug, PartialEq)]
pub struct RecoveryReport {
    /// The recovered shard.
    pub shard: ShardId,
    /// Log-suffix events replayed into the rebuilt engine (accepted and rejected): the
    /// events routed to the shard since its image was last retaken. The image's live edges
    /// are *restored*, not replayed, and are not counted here.
    pub events_replayed: usize,
    /// Replay-time rejections, in routed order.
    pub rejected: Vec<ServiceError>,
    /// The rebuilt engine's published epoch after the recovery flush.
    pub epoch: u64,
}

/// What recovery found and did when a durable service was built — see
/// [`ClusterService::durability`].
#[derive(Clone, Debug, Default)]
pub struct DurabilityReport {
    /// True iff build restored any prior state (a checkpoint, replayed WAL records, or
    /// both). False for a pristine directory.
    pub recovered: bool,
    /// `last_lsn` of the checkpoint the restore started from (0 when none was usable).
    pub checkpoint_lsn: u64,
    /// WAL records past the checkpoint replayed through the normal routing paths.
    pub wal_records_replayed: u64,
    /// Total records ever made durable in this directory — the highest LSN covered by the
    /// restored state (checkpoint and WAL tail combined). Since LSNs are assigned
    /// consecutively from 1, this equals the length of the durable prefix of the original
    /// event stream.
    pub records_durable: u64,
    /// Torn WAL tails truncated while opening the log (0 or 1 per recovery: only the
    /// newest segment can carry one).
    pub torn_tails_truncated: u64,
    /// Corrupt checkpoints skipped on the way to the newest valid one.
    pub corrupt_checkpoints_skipped: u64,
    /// Events rejected during WAL replay. Non-empty only if the original process crashed
    /// between accepting an event's WAL append and validating it — the replayed stream is
    /// re-validated in routed order, so these are exactly the events the oracle would have
    /// rejected too.
    pub replay_rejected: Vec<ServiceError>,
}
