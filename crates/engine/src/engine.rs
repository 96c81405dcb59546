//! The [`ClusteringEngine`]: ingest, flush, publish.
//!
//! The engine is a classic single-writer / many-reader design. The write path —
//! [`submit`](ClusteringEngine::submit) then [`flush`](ClusteringEngine::flush) — owns the
//! mutable [`DynamicGraphClustering`] exclusively and is the only code that touches it. The
//! read path never blocks on the writer: [`snapshot`](ClusteringEngine::snapshot) hands out the
//! most recently *published* [`EngineSnapshot`], and a reader keeps getting answers for its
//! epoch even while the writer is mid-flush on the next one. Consistency is therefore by
//! construction, not by locking: a batch becomes visible atomically when the new snapshot is
//! published at the end of `flush`, never piecemeal.

use crate::coalesce::{CoalescedBatch, Coalescer, RejectReason};
use crate::faults::FaultPlan;
use crate::metrics::Metrics;
use crate::snapshot::{CacheStats, EngineSnapshot};
use dynsld::{DynSldError, DynSldOptions};
use dynsld_forest::workload::GraphUpdate;
use dynsld_forest::VertexId;
use dynsld_msf::{DynamicGraphClustering, MsfChange, WorkCounters};
use dynsld_telemetry::Telemetry;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Errors surfaced by the engine.
#[derive(Clone, Debug, PartialEq)]
pub enum EngineError {
    /// An event was inconsistent with the applied graph plus the pending buffer; it was not
    /// ingested and the engine is unchanged.
    Rejected {
        /// The offending event.
        event: GraphUpdate,
        /// Why it was rejected.
        reason: RejectReason,
    },
    /// The underlying structures rejected a batch. The coalescer's submit-time validation
    /// makes this unreachable for streams ingested through [`ClusteringEngine::submit`]; it is
    /// surfaced (rather than panicking) for defence in depth.
    Apply(DynSldError),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Rejected { event, reason } => {
                write!(f, "event {event:?} rejected: {reason:?}")
            }
            EngineError::Apply(e) => write!(f, "batch application failed: {e}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<DynSldError> for EngineError {
    fn from(e: DynSldError) -> Self {
        EngineError::Apply(e)
    }
}

/// Wall-time decomposition of one flush into its pipeline stages. All fields are zero for an
/// empty (no-op) flush.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FlushPhases {
    /// Draining and coalescing the pending buffer into homogeneous batches.
    pub coalesce: Duration,
    /// Kruskal-style batch classification (forest-vs-cycle on insert, tree/non-tree split
    /// plus replacement-candidate search on delete).
    pub classify: Duration,
    /// The portion of [`classify`](Self::classify) spent in the forest backend's replacement
    /// search on deletion batches — a *child* of the classify phase, not an additional one,
    /// so it is excluded from [`total`](Self::total). This is the slice that
    /// `DynSldOptions::msf_backend` changes; see `msf.replacement_ns` in the telemetry.
    pub replacement: Duration,
    /// Mutating the MSF/dendrogram: `batch_insert`/`batch_delete`, fallbacks, promotions.
    pub apply: Duration,
    /// `export_snapshot_incremental` — re-reading the records dirtied since the last flush
    /// and splicing them into the previous export's chunk list (a full re-sort only when the
    /// dirty set is large or the cache is cold).
    pub export: Duration,
    /// Wrapping the export into an [`EngineSnapshot`] and swapping it in.
    pub publish: Duration,
}

impl FlushPhases {
    /// Sum of all disjoint phases (the instrumented share of the flush wall time).
    /// [`replacement`](Self::replacement) is a child of `classify` and is not added again.
    pub fn total(&self) -> Duration {
        self.coalesce + self.classify + self.apply + self.export + self.publish
    }

    /// Element-wise sum — aggregates phase breakdowns across shards or flushes.
    pub fn merge(&self, other: &FlushPhases) -> FlushPhases {
        FlushPhases {
            coalesce: self.coalesce + other.coalesce,
            classify: self.classify + other.classify,
            replacement: self.replacement + other.replacement,
            apply: self.apply + other.apply,
            export: self.export + other.export,
            publish: self.publish + other.publish,
        }
    }
}

/// What one [`ClusteringEngine::flush`] did.
#[derive(Clone, Debug, PartialEq)]
pub struct FlushReport {
    /// The epoch the flush published (snapshots taken from now on see this state).
    pub epoch: u64,
    /// Logical operations applied (after coalescing; a re-weight counts once).
    pub ops_applied: usize,
    /// How the MSF changed, in application order: all deletions, then all insertions. A
    /// re-weighted edge contributes one entry in each half.
    pub changes: Vec<MsfChange>,
    /// Reserve edges promoted into the MSF by the deletion half.
    pub promoted: Vec<(VertexId, VertexId)>,
    /// Updates that rode the Theorem-1.5 batch fast paths.
    pub fast_path: usize,
    /// Updates applied through the per-edge fallback.
    pub fallback: usize,
    /// Wall-clock duration of the flush.
    pub duration: Duration,
    /// Per-stage decomposition of `duration` (coalesce / classify / apply / export /
    /// publish).
    pub phases: FlushPhases,
}

impl FlushReport {
    /// The report of a flush that applied nothing and left the engine at `epoch`.
    pub(crate) fn noop(epoch: u64) -> Self {
        FlushReport {
            epoch,
            ops_applied: 0,
            changes: Vec::new(),
            promoted: Vec::new(),
            fast_path: 0,
            fallback: 0,
            duration: Duration::ZERO,
            phases: FlushPhases::default(),
        }
    }
}

/// Running counters owned by the engine (the coalescer keeps its own).
#[derive(Clone, Debug, Default)]
struct Counters {
    flushes: u64,
    ops_applied: u64,
    fast_path_ops: u64,
    fallback_ops: u64,
    edges_promoted: u64,
    work: WorkCounters,
    total_flush_time: Duration,
    max_flush_time: Duration,
}

/// A streaming single-linkage clustering service over a dynamic weighted graph.
///
/// See the [crate docs](crate) for the architecture and a quick-start example.
#[derive(Debug)]
pub struct ClusteringEngine {
    graph: DynamicGraphClustering,
    coalescer: Coalescer,
    epoch: u64,
    published: EngineSnapshot,
    counters: Counters,
    cache_stats: Arc<CacheStats>,
    telemetry: Telemetry,
    faults: FaultPlan,
    /// This engine's shard index as seen by fault rules (0 for a standalone engine).
    fault_shard: usize,
    /// 1-based count of non-empty flush attempts — the ordinal fault rules match against.
    flush_attempts: u64,
}

impl ClusteringEngine {
    /// An engine over `n` vertices with default [`DynSldOptions`].
    pub fn new(n: usize) -> Self {
        Self::with_options(n, DynSldOptions::default())
    }

    /// An engine over `n` vertices with the given dendrogram-maintenance options.
    pub fn with_options(n: usize, options: DynSldOptions) -> Self {
        let graph = DynamicGraphClustering::with_options(n, options);
        let cache_stats = Arc::new(CacheStats::default());
        let published = EngineSnapshot::publish(
            0,
            graph.sld().export_snapshot(),
            0,
            Some(Arc::clone(&cache_stats)),
        );
        ClusteringEngine {
            graph,
            coalescer: Coalescer::new(),
            epoch: 0,
            published,
            counters: Counters::default(),
            cache_stats,
            telemetry: Telemetry::disabled(),
            faults: FaultPlan::disabled(),
            fault_shard: 0,
            flush_attempts: 0,
        }
    }

    /// Attaches a telemetry handle: spans and stage histograms are recorded into it on every
    /// non-empty flush. The default (disabled) handle makes all of that a no-op.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Arms a [`FaultPlan`] on this engine, identifying it as shard `shard` to `flush_panic`
    /// rules. The default (disabled) plan makes the flush checkpoints one-branch no-ops.
    pub fn set_faults(&mut self, faults: FaultPlan, shard: usize) {
        self.faults = faults;
        self.fault_shard = shard;
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.graph.num_vertices()
    }

    /// The current epoch (number of published states: completed non-empty flushes plus
    /// vertex-set growths).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Operations currently buffered (one per touched edge, thanks to coalescing).
    pub fn pending_ops(&self) -> usize {
        self.coalescer.pending_ops()
    }

    /// Read access to the applied graph state (the state as of the last flush).
    pub fn graph(&self) -> &DynamicGraphClustering {
        &self.graph
    }

    /// Buffers one event. Validation happens here, against the applied graph plus the pending
    /// buffer, so that [`flush`](Self::flush) can never fail on a stream ingested through this
    /// method. Rejected events leave the engine unchanged.
    pub fn submit(&mut self, event: GraphUpdate) -> Result<(), EngineError> {
        let (u, v) = event.endpoints();
        if v.index() >= self.num_vertices() {
            return Err(EngineError::Rejected {
                event,
                reason: RejectReason::VertexOutOfRange,
            });
        }
        let alive = self.graph.edge_weight(u, v).is_some();
        self.coalescer
            .push(event, alive)
            .map_err(|reason| EngineError::Rejected { event, reason })
    }

    /// Buffers every event of a stream, stopping at the first rejection. Returns the number of
    /// events ingested; already-ingested events stay buffered either way.
    pub fn submit_all(
        &mut self,
        events: impl IntoIterator<Item = GraphUpdate>,
    ) -> Result<usize, EngineError> {
        let mut count = 0;
        for event in events {
            self.submit(event)?;
            count += 1;
        }
        Ok(count)
    }

    /// Applies everything buffered as (at most) two homogeneous batches — deletions, then
    /// insertions — advances the epoch, and publishes the new snapshot. Readers holding older
    /// snapshots are unaffected.
    ///
    /// Flushing with an empty buffer is a no-op: the epoch does not advance and the published
    /// snapshot is unchanged.
    pub fn flush(&mut self) -> Result<FlushReport, EngineError> {
        let started = Instant::now();
        // Fault checkpoint (entry): fires before the buffer is drained, so nothing is
        // consumed and the caller may safely retry the flush after catching the panic.
        // Only non-empty attempts count an ordinal — empty flushes are pure no-ops.
        let mut injected_torn = None;
        if self.faults.is_enabled() && self.coalescer.pending_ops() > 0 {
            self.flush_attempts += 1;
            if let Some(fault) = self
                .faults
                .flush_fault(self.fault_shard, self.flush_attempts)
            {
                if fault.at_entry {
                    fault.fire();
                }
                injected_torn = Some(fault);
            }
        }
        let batch = self.coalescer.drain();
        if batch.is_empty() {
            return Ok(FlushReport::noop(self.epoch));
        }
        let _span = self.telemetry.span("engine.flush");
        let mut phases = FlushPhases {
            coalesce: started.elapsed(),
            ..FlushPhases::default()
        };
        let ops_applied = batch.num_ops();
        let CoalescedBatch {
            deletions,
            insertions,
            reweights: _,
        } = batch;

        let mut changes = Vec::with_capacity(ops_applied);
        let mut promoted = Vec::new();
        let mut fast_path = 0usize;
        let mut fallback = 0usize;
        if !deletions.is_empty() {
            let outcome = self.graph.batch_delete_edges(&deletions)?;
            changes.extend(outcome.changes);
            fast_path += outcome.fast_path;
            fallback += outcome.fallback;
            promoted = outcome.promoted;
            phases.classify += outcome.classify_time;
            phases.replacement += outcome.replacement_time;
            phases.apply += outcome.apply_time;
        }
        // Fault checkpoint (torn): the buffer is drained and the deletion batch is already
        // applied, but the epoch has not advanced and no snapshot was published — the panic
        // leaves this engine mid-flush with the last good view still served. The service
        // quarantines it and rebuilds it from its shard log.
        if let Some(fault) = injected_torn {
            fault.fire();
        }
        if !insertions.is_empty() {
            let outcome = self.graph.batch_insert_edges(&insertions)?;
            changes.extend(outcome.changes);
            fast_path += outcome.fast_path;
            fallback += outcome.fallback;
            phases.classify += outcome.classify_time;
            phases.replacement += outcome.replacement_time;
            phases.apply += outcome.apply_time;
        }

        self.epoch += 1;
        let export_start = Instant::now();
        let exported = self.graph.export_snapshot_incremental();
        phases.export = export_start.elapsed();
        let publish_start = Instant::now();
        self.published = EngineSnapshot::publish(
            self.epoch,
            exported,
            self.graph.num_graph_edges(),
            Some(Arc::clone(&self.cache_stats)),
        );
        phases.publish = publish_start.elapsed();
        let duration = started.elapsed();
        if self.telemetry.is_enabled() {
            self.telemetry.record_duration("engine.flush_ns", duration);
            self.telemetry
                .record_duration("engine.coalesce_ns", phases.coalesce);
            self.telemetry
                .record_duration("engine.classify_ns", phases.classify);
            // Child of classify: the forest backend's replacement-search slice.
            self.telemetry
                .record_duration("msf.replacement_ns", phases.replacement);
            self.telemetry
                .record_duration("engine.apply_ns", phases.apply);
            self.telemetry
                .record_duration("engine.export_ns", phases.export);
            self.telemetry
                .record_duration("engine.publish_ns", phases.publish);
            self.telemetry.add("engine.flushes", 1);
            self.telemetry.add("engine.ops_applied", ops_applied as u64);
        }
        self.counters.flushes += 1;
        self.counters.ops_applied += ops_applied as u64;
        self.counters.fast_path_ops += fast_path as u64;
        self.counters.fallback_ops += fallback as u64;
        self.counters.edges_promoted += promoted.len() as u64;
        self.counters.work.merge(&self.graph.take_work_counters());
        self.counters.total_flush_time += duration;
        self.counters.max_flush_time = self.counters.max_flush_time.max(duration);

        Ok(FlushReport {
            epoch: self.epoch,
            ops_applied,
            changes,
            promoted,
            fast_path,
            fallback,
            duration,
            phases,
        })
    }

    /// Grows the vertex set by `k` isolated vertices and returns the first new id.
    ///
    /// The growth is visible immediately: the engine publishes a fresh snapshot at a bumped
    /// epoch (vertex-set growth is a structural change like any flush, so epochs stay
    /// strictly increasing across published states and held snapshots stay frozen). Edges
    /// touching the new vertices can be submitted right away. `k == 0` is a no-op that
    /// returns the would-be next id without publishing.
    pub fn add_vertices(&mut self, k: usize) -> VertexId {
        let first = self.graph.add_vertices(k);
        if k == 0 {
            return first;
        }
        self.epoch += 1;
        self.published = EngineSnapshot::publish(
            self.epoch,
            self.graph.export_snapshot_incremental(),
            self.graph.num_graph_edges(),
            Some(Arc::clone(&self.cache_stats)),
        );
        first
    }

    /// The most recently published snapshot. Cloning the returned value (or calling this again)
    /// is cheap; the snapshot keeps answering for its epoch regardless of later flushes.
    pub fn snapshot(&self) -> EngineSnapshot {
        self.published.clone()
    }

    /// A point-in-time export of all engine counters.
    pub fn metrics(&self) -> Metrics {
        let work = &self.counters.work;
        Metrics {
            events_submitted: self.coalescer.events_submitted(),
            events_annihilated: self.coalescer.events_annihilated(),
            events_collapsed: self.coalescer.events_collapsed(),
            pending_ops: self.coalescer.pending_ops(),
            flushes: self.counters.flushes,
            ops_applied: self.counters.ops_applied,
            fast_path_ops: self.counters.fast_path_ops,
            fallback_ops: self.counters.fallback_ops,
            edges_promoted: self.counters.edges_promoted,
            replacement_edges_scanned: work.replacement_edges_scanned,
            level_promotions: work.level_promotions,
            replacement_searches: work.replacement_searches,
            replacement_candidates: work.replacement_candidates,
            total_pointer_changes: self.graph.sld().stats().total_pointer_changes,
            total_flush_time: self.counters.total_flush_time,
            max_flush_time: self.counters.max_flush_time,
            snapshot_cache_hits: self.cache_stats.hits.load(Ordering::Relaxed),
            snapshot_cache_misses: self.cache_stats.misses.load(Ordering::Relaxed),
            // Routing, the submission queue, delta serving, fault isolation, the wire layer
            // and durability are the service's (see `ClusterService::metrics`); a standalone
            // engine leaves them zero.
            ..Metrics::default()
        }
    }
}

// The service's concurrent flush borrows engines across fork-join pool threads, which is only
// sound if the engine (graph, coalescer, snapshot handles and all) is `Send`. Assert it at
// compile time so a future field can't silently break the parallel flush path.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<ClusteringEngine>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use dynsld_forest::workload::GraphWorkloadBuilder;

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    fn ins(a: u32, b: u32, w: f64) -> GraphUpdate {
        GraphUpdate::Insert {
            u: v(a),
            v: v(b),
            weight: w,
        }
    }

    fn del(a: u32, b: u32) -> GraphUpdate {
        GraphUpdate::Delete { u: v(a), v: v(b) }
    }

    fn rew(a: u32, b: u32, w: f64) -> GraphUpdate {
        GraphUpdate::Reweight {
            u: v(a),
            v: v(b),
            weight: w,
        }
    }

    #[test]
    fn flush_applies_coalesced_batches_and_advances_epoch() {
        let mut engine = ClusteringEngine::new(6);
        engine
            .submit_all([
                ins(0, 1, 1.0),
                ins(1, 2, 2.0),
                ins(3, 4, 3.0),
                ins(4, 5, 9.0),
                ins(2, 0, 8.0), // cycle-closing -> fallback
            ])
            .unwrap();
        let report = engine.flush().unwrap();
        assert_eq!(report.epoch, 1);
        assert_eq!(report.ops_applied, 5);
        assert_eq!(report.fast_path, 4);
        assert_eq!(report.fallback, 1);
        assert!(report.changes.contains(&MsfChange::StoredNonTree));
        let snap = engine.snapshot();
        assert_eq!(snap.epoch(), 1);
        assert_eq!(snap.num_graph_edges(), 5);
        assert_eq!(snap.num_tree_edges(), 4);
        assert_eq!(snap.num_components(), 2);
    }

    #[test]
    fn empty_flush_is_a_noop() {
        let mut engine = ClusteringEngine::new(3);
        let before = engine.snapshot();
        let report = engine.flush().unwrap();
        assert_eq!(report.epoch, 0);
        assert_eq!(report.ops_applied, 0);
        assert_eq!(engine.snapshot().epoch(), before.epoch());
        assert_eq!(engine.metrics().flushes, 0);
    }

    #[test]
    fn snapshots_are_immutable_across_later_flushes() {
        let mut engine = ClusteringEngine::new(4);
        engine.submit(ins(0, 1, 1.0)).unwrap();
        engine.flush().unwrap();
        let old = engine.snapshot();
        assert!(old.same_cluster(v(0), v(1), 1.0));

        // Mid-batch: buffered events must not leak into reads.
        engine.submit(del(0, 1)).unwrap();
        engine.submit(ins(2, 3, 2.0)).unwrap();
        assert_eq!(engine.snapshot().epoch(), 1);
        assert!(engine.snapshot().same_cluster(v(0), v(1), 1.0));
        assert!(!engine.snapshot().same_cluster(v(2), v(3), 99.0));

        engine.flush().unwrap();
        // The old snapshot still answers for epoch 1.
        assert!(old.same_cluster(v(0), v(1), 1.0));
        assert_eq!(old.num_graph_edges(), 1);
        // The new one sees epoch 2.
        let new = engine.snapshot();
        assert_eq!(new.epoch(), 2);
        assert!(!new.same_cluster(v(0), v(1), f64::INFINITY));
        assert!(new.same_cluster(v(2), v(3), 2.0));
    }

    #[test]
    fn rejected_events_leave_engine_unchanged() {
        let mut engine = ClusteringEngine::new(3);
        engine.submit(ins(0, 1, 1.0)).unwrap();
        engine.flush().unwrap();
        let err = engine.submit(ins(0, 1, 2.0)).unwrap_err();
        assert!(matches!(
            err,
            EngineError::Rejected {
                reason: RejectReason::AlreadyPresent,
                ..
            }
        ));
        let err = engine.submit(del(1, 2)).unwrap_err();
        assert!(matches!(
            err,
            EngineError::Rejected {
                reason: RejectReason::NotPresent,
                ..
            }
        ));
        let err = engine.submit(ins(0, 7, 1.0)).unwrap_err();
        assert!(matches!(
            err,
            EngineError::Rejected {
                reason: RejectReason::VertexOutOfRange,
                ..
            }
        ));
        assert_eq!(engine.pending_ops(), 0);
        // Valid sequences spanning the buffer still work: delete + re-insert = reweight.
        engine.submit(del(0, 1)).unwrap();
        engine.submit(ins(0, 1, 5.0)).unwrap();
        assert_eq!(engine.pending_ops(), 1);
        let report = engine.flush().unwrap();
        assert_eq!(report.ops_applied, 1); // one logical re-weight
        assert_eq!(report.changes.len(), 2); // applied as delete + insert
        assert_eq!(engine.graph().edge_weight(v(0), v(1)), Some(5.0));
    }

    #[test]
    fn reweight_changes_weight_after_flush() {
        let mut engine = ClusteringEngine::new(3);
        engine.submit_all([ins(0, 1, 1.0), ins(1, 2, 2.0)]).unwrap();
        engine.flush().unwrap();
        engine.submit(rew(0, 1, 10.0)).unwrap();
        engine.submit(rew(0, 1, 4.0)).unwrap(); // collapses; only 4.0 is applied
        let report = engine.flush().unwrap();
        assert_eq!(report.ops_applied, 1);
        assert_eq!(engine.graph().edge_weight(v(0), v(1)), Some(4.0));
        let m = engine.metrics();
        assert_eq!(m.events_collapsed, 1);
        assert!(engine.snapshot().same_cluster(v(0), v(1), 4.0));
        assert!(!engine.snapshot().same_cluster(v(0), v(1), 3.0));
    }

    #[test]
    fn add_vertices_publishes_grown_state_and_accepts_new_edges() {
        let mut engine = ClusteringEngine::new(3);
        engine.submit(ins(0, 1, 1.0)).unwrap();
        engine.flush().unwrap();
        let old = engine.snapshot();

        // Out-of-range before the growth...
        assert!(matches!(
            engine.submit(ins(2, 4, 1.0)),
            Err(EngineError::Rejected {
                reason: RejectReason::VertexOutOfRange,
                ..
            })
        ));
        let first = engine.add_vertices(2);
        assert_eq!(first, v(3));
        assert_eq!(engine.num_vertices(), 5);
        // ...the growth publishes immediately at a bumped epoch...
        let grown = engine.snapshot();
        assert_eq!(grown.epoch(), 2);
        assert_eq!(grown.num_vertices(), 5);
        assert_eq!(grown.num_components(), 4);
        // ...held snapshots stay frozen...
        assert_eq!(old.num_vertices(), 3);
        assert_eq!(old.epoch(), 1);
        // ...and the new ids accept edges right away.
        engine.submit(ins(2, 4, 1.0)).unwrap();
        engine.submit(ins(3, 4, 2.0)).unwrap();
        engine.flush().unwrap();
        assert!(engine.snapshot().same_cluster(v(2), v(3), 2.0));
        // k == 0 is a no-op that names the next id.
        assert_eq!(engine.add_vertices(0), v(5));
        assert_eq!(engine.snapshot().epoch(), 3);
    }

    #[test]
    fn flush_reports_phase_breakdown_and_feeds_telemetry() {
        let mut engine = ClusteringEngine::new(8);
        let telemetry = Telemetry::enabled();
        engine.set_telemetry(telemetry.clone());

        // Empty flush: no phases, no trace events.
        let report = engine.flush().unwrap();
        assert_eq!(report.phases, FlushPhases::default());
        assert_eq!(telemetry.snapshot().trace.total_events(), 0);

        engine
            .submit_all([
                ins(0, 1, 1.0),
                ins(1, 2, 2.0),
                ins(0, 2, 9.0),
                ins(3, 4, 4.0),
            ])
            .unwrap();
        let report = engine.flush().unwrap();
        // Phases are disjoint sub-intervals of the flush, so they are populated and their
        // sum never exceeds the wall duration.
        assert!(report.phases.apply > Duration::ZERO);
        assert!(report.phases.export > Duration::ZERO);
        assert!(report.phases.publish > Duration::ZERO);
        assert!(report.phases.total() <= report.duration);
        // Deleting a tree edge exercises the classify (replacement search) phase too; the
        // backend's search slice is reported as a child of classify, never exceeding it.
        engine.submit(del(0, 1)).unwrap();
        let report = engine.flush().unwrap();
        assert!(report.phases.classify > Duration::ZERO);
        assert!(report.phases.replacement > Duration::ZERO);
        assert!(report.phases.replacement <= report.phases.classify);

        let snap = telemetry.snapshot();
        let flush_hist = snap.histogram("engine.flush_ns").expect("flush histogram");
        assert_eq!(flush_hist.count, 2);
        let repl_hist = snap
            .histogram("msf.replacement_ns")
            .expect("replacement histogram");
        assert_eq!(repl_hist.count, 2);
        assert_eq!(snap.counter("engine.flushes"), Some(2));
        assert_eq!(snap.trace.total_events(), 4); // two begin/end pairs
        snap.trace.check_well_formed().expect("balanced spans");

        // merge() aggregates element-wise (the replacement child merges too but stays out
        // of total(), which sums only the disjoint phases).
        let merged = report.phases.merge(&report.phases);
        assert_eq!(merged.apply, report.phases.apply * 2);
        assert_eq!(merged.replacement, report.phases.replacement * 2);
        assert_eq!(merged.total(), report.phases.total() * 2);
    }

    #[test]
    fn metrics_surface_forest_backend_work_counters() {
        for backend in [dynsld::ForestBackend::Scan, dynsld::ForestBackend::Hdt] {
            let mut engine = ClusteringEngine::with_options(
                8,
                DynSldOptions {
                    msf_backend: backend,
                    ..Default::default()
                },
            );
            engine
                .submit_all([
                    ins(0, 1, 1.0),
                    ins(1, 2, 2.0),
                    ins(0, 2, 9.0), // reserve edge bridging the 0-1 cut
                ])
                .unwrap();
            engine.flush().unwrap();
            engine.submit(del(0, 1)).unwrap();
            engine.flush().unwrap();
            let m = engine.metrics();
            assert!(
                m.replacement_searches >= 1,
                "{backend:?}: tree deletion runs a search"
            );
            assert!(
                m.replacement_edges_scanned >= 1,
                "{backend:?}: the bridging candidate is examined"
            );
            assert_eq!(
                m.replacement_candidates, 1,
                "{backend:?}: the one bridging edge is the batch's only candidate"
            );
        }
    }

    #[test]
    fn metrics_track_coalescing_and_flushes() {
        let mut engine = ClusteringEngine::new(8);
        engine.submit(ins(0, 1, 1.0)).unwrap();
        engine.submit(del(0, 1)).unwrap(); // annihilates
        engine.submit(ins(2, 3, 2.0)).unwrap();
        let m = engine.metrics();
        assert_eq!(m.events_submitted, 3);
        assert_eq!(m.events_annihilated, 2);
        assert_eq!(m.pending_ops, 1);
        engine.flush().unwrap();
        let m = engine.metrics();
        assert_eq!(m.flushes, 1);
        assert_eq!(m.ops_applied, 1);
        assert_eq!(m.pending_ops, 0);
        assert!(m.total_flush_time > Duration::ZERO);
        // Snapshot cache counters flow into metrics.
        let snap = engine.snapshot();
        let _ = snap.flat_clustering(5.0);
        let _ = snap.flat_clustering(5.0);
        let m = engine.metrics();
        assert_eq!(m.snapshot_cache_misses, 1);
        assert_eq!(m.snapshot_cache_hits, 1);
    }

    /// The `sparse_trickle` shape of `baseline/` (there a window of 8 000): a sliding window
    /// of `window` random edges over `2.5 · window` vertices, sub-critical, so nearly every
    /// edge is an MSF edge and an event re-parents a record or two.
    fn trickle_stream(window: usize, extra: usize, seed: u64) -> Vec<GraphUpdate> {
        GraphWorkloadBuilder::new(window * 5 / 2).sliding_window_stream(
            window + extra,
            window,
            seed,
        )
    }

    #[test]
    fn single_event_flush_rewrites_a_few_chunks_and_shares_the_rest() {
        // The rewrite bound does not depend on the window: the publish cost of one event is
        // flat in `m`. The nine-in-ten sharing check needs the larger export: at 2 000 edges
        // it is 16–31 chunks, so a rewrite of 2–4 chunks can be more than a tenth of it.
        for (window, shares_nine_in_ten) in [(8_000, true), (2_000, false)] {
            single_event_flushes_at(window, shares_nine_in_ten);
        }
    }

    fn single_event_flushes_at(window: usize, shares_nine_in_ten: bool) {
        let stream = trickle_stream(window, 400, 11);
        let mut engine = ClusteringEngine::new(window * 5 / 2);
        engine.submit_all(stream[..window].iter().copied()).unwrap();
        engine.flush().unwrap();
        let mut previous = engine.snapshot();
        assert!(80 * previous.num_tree_edges() > 79 * window);
        let mut stats = engine.graph().sld().export_stats();
        let (mut rewritten_total, mut keys_total) = (0, 0);
        for &event in &stream[window..] {
            engine.submit(event).unwrap();
            engine.flush().unwrap();
            let current = engine.snapshot();
            let after = engine.graph().sld().export_stats();
            assert_eq!(after.incremental_splices, stats.incremental_splices + 1);
            assert_eq!(after.full_rebuilds, stats.full_rebuilds);
            let rewritten = (after.chunks_rewritten - stats.chunks_rewritten) as usize;
            let shared = (after.chunks_shared - stats.chunks_shared) as usize;
            // The keys the splice moved: one per re-exported record, one per record that
            // only left (a single-event flush never re-weights, so an id does not do both).
            let delta = crate::delta::ShardDelta::diff(
                previous.dendrogram(),
                current.dendrogram(),
                current.epoch(),
                current.num_graph_edges(),
            );
            let keys =
                (after.nodes_respliced - stats.nodes_respliced) as usize + delta.removed.len();
            assert!(
                rewritten <= 2 * keys + 2,
                "{rewritten} chunks rewritten for {keys} keys"
            );
            // The counters describe the snapshots: what the exporter calls shared is the
            // same allocation on both sides, and at 8 000 edges that is nine chunks in ten.
            let (old_chunks, new_chunks) = (
                previous.dendrogram().nodes.chunks(),
                current.dendrogram().nodes.chunks(),
            );
            assert_eq!(rewritten + shared, new_chunks.len());
            let old_ptrs: std::collections::HashSet<*const dynsld::SnapshotNode> =
                old_chunks.iter().map(|c| c.as_ptr()).collect();
            let same_allocation = new_chunks
                .iter()
                .filter(|c| old_ptrs.contains(&c.as_ptr()))
                .count();
            assert_eq!(same_allocation, shared);
            assert!(
                !shares_nine_in_ten || 10 * shared >= 9 * new_chunks.len(),
                "only {shared} of {} chunks shared",
                new_chunks.len()
            );
            rewritten_total += rewritten;
            keys_total += keys;
            previous = current;
            stats = after;
        }
        // Not vacuous: events did move records, and chunks were rewritten for them.
        assert!(keys_total >= stream.len() - window);
        assert!(rewritten_total >= stream.len() - window);
    }

    #[test]
    fn held_snapshots_stay_frozen_across_thousands_of_flushes() {
        use dynsld::UpdateStrategy;
        let window = 8_000;
        let stream = trickle_stream(window, 1_000, 5);
        for strategy in [UpdateStrategy::Sequential, UpdateStrategy::Parallel] {
            let mut engine =
                ClusteringEngine::with_options(20_000, DynSldOptions::with_strategy(strategy));
            engine.submit_all(stream[..window].iter().copied()).unwrap();
            engine.flush().unwrap();
            // A holder keeps the snapshot and the deep copy taken when it was published.
            let hold = |engine: &ClusteringEngine| {
                let snapshot = engine.snapshot();
                let copy = snapshot.dendrogram().nodes.to_vec();
                (snapshot, copy)
            };
            let still_frozen = |(snapshot, copy): &(EngineSnapshot, Vec<dynsld::SnapshotNode>)| {
                snapshot.dendrogram().nodes.iter().eq(copy.iter())
            };
            let (released, wait) = std::sync::mpsc::channel::<()>();
            let first = hold(&engine);
            std::thread::scope(|scope| {
                // One holder lives on another thread for the whole run.
                let remote = scope.spawn(move || {
                    wait.recv().expect("the writer signals when it is done");
                    still_frozen(&first)
                });
                let mut held = Vec::new();
                let timed = &stream[window..];
                assert_eq!(timed.len(), 2_000);
                for (i, &event) in timed.iter().enumerate() {
                    if i % 97 == 0 {
                        held.push(hold(&engine));
                    }
                    engine.submit(event).unwrap();
                    engine.flush().unwrap();
                }
                assert_eq!(
                    engine.graph().sld().export_stats().incremental_splices,
                    2_000,
                    "{strategy:?}: every flush splices, so held chunks are shared onwards"
                );
                released.send(()).expect("the holder is waiting");
                assert!(remote.join().expect("holder thread"), "{strategy:?}");
                assert!(held.iter().all(still_frozen), "{strategy:?}");
                // Held views of different epochs really are different states.
                assert_ne!(held[0].1, held[held.len() - 1].1);
            });
        }
    }
}
