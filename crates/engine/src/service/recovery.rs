//! Rebuilding shard engines: one path for shard recovery and boot recovery.
//!
//! Every engine slot has a private [`ShardLog`] — an *image* of the shard's live edge set
//! plus the *suffix* of entries routed to the shard since the image was taken. Any engine
//! the service ever holds comes from [`rebuild_engine`] (image restored) followed by the
//! log's replay of its suffix:
//!
//! * [`ServiceBuilder::build`] starts every shard from an empty image and an empty suffix;
//! * boot recovery installs the checkpoint's per-shard images with empty suffixes
//!   (`restore_from_checkpoint`), then replays the WAL tail through the normal routed path;
//! * [`ClusterService::recover_shard`] rebuilds a quarantined shard from whatever image and
//!   suffix its log holds at that moment.
//!
//! The log is bounded by the shard's live edges, not by the length of the stream: after a
//! successful flush leaves the shard healthy with nothing pending, a suffix longer than
//! [`FOLD_FLOOR`] and the image is *folded* — the image is retaken from the engine and the
//! suffix cleared — which costs amortised O(log m) per routed event. The suffix only grows
//! past that bound while a shard stays quarantined, because a torn engine has no state to
//! fold into. The write-ahead log stays the only *process-level* log: its records are
//! pre-routing and pre-validation, which a per-shard log of accepted events cannot replace.
//!
//! [`ServiceBuilder::build`]: super::ServiceBuilder::build

use super::*;
use crate::faults::{CheckpointWriteFault, WalWriteFault};
use dynsld_durable::{Checkpoint, CheckpointStore, FsyncPolicy, ShardCheckpoint, Wal, WalOptions};
use dynsld_forest::workload::GraphUpdate;
use std::path::Path;

/// A shard log folds once its suffix is longer than this *and* longer than its image. Small
/// on purpose: folding a small image is cheap, and a small floor keeps short test streams
/// crossing it.
const FOLD_FLOOR: usize = 8;

/// One entry of a shard log's suffix, in routed order.
#[derive(Clone, Copy, Debug)]
pub(super) enum JournalEntry {
    /// A routed event (validated on the healthy path; validation deferred to replay for
    /// events routed during quarantine).
    Event(GraphUpdate),
    /// A vertex-set growth by `k`.
    Grow(usize),
}

/// What a shard engine is rebuilt from: the shard's live edge set at the last fold (sorted,
/// like a checkpoint's), the vertex count at that moment, and everything routed to the
/// shard since. See the [module docs](self).
#[derive(Debug)]
pub(super) struct ShardLog {
    image: ShardCheckpoint,
    vertices: usize,
    suffix: Vec<JournalEntry>,
}

impl ShardLog {
    /// The log of a shard that starts empty over `vertices` vertices.
    pub(super) fn new(vertices: usize) -> Self {
        Self::from_image(vertices, ShardCheckpoint::default())
    }

    fn from_image(vertices: usize, image: ShardCheckpoint) -> Self {
        ShardLog {
            image,
            vertices,
            suffix: Vec::new(),
        }
    }

    pub(super) fn record(&mut self, entry: JournalEntry) {
        self.suffix.push(entry);
    }

    /// Folds the suffix into a fresh image once it has outgrown both the floor and the
    /// image. Only sound when `engine` is healthy with nothing pending, so that its applied
    /// graph reflects every suffix entry.
    pub(super) fn fold_if_due(&mut self, engine: &ClusteringEngine) {
        if self.suffix.len() > FOLD_FLOOR.max(self.image.edges.len()) {
            self.fold(engine);
        }
    }

    fn fold(&mut self, engine: &ClusteringEngine) {
        debug_assert_eq!(
            engine.pending_ops(),
            0,
            "a fold must see every logged event"
        );
        self.image = shard_image(engine);
        self.vertices = engine.num_vertices();
        self.suffix.clear();
    }

    /// Rebuilds the shard's engine: restores the image, replays the suffix over it — every
    /// event and every vertex-set growth, in routed order — and flushes once. Events the
    /// replay rejects (only possible for events logged unvalidated during quarantine) are
    /// collected rather than aborting the rebuild. The result is bit-identical to an engine
    /// that never stopped, because coalescing is flush-boundary-independent and the
    /// dendrogram is a pure function of the accepted event sequence.
    ///
    /// Returns the engine, the number of suffix events replayed, and the rejections.
    fn rebuild(
        &self,
        id: ShardId,
        options: DynSldOptions,
        telemetry: &Telemetry,
    ) -> Result<(ClusteringEngine, usize, Vec<ServiceError>), ServiceError> {
        let mut engine = rebuild_engine(id, options, telemetry, self.vertices, &self.image.edges)?;
        let mut events_replayed = 0;
        let mut rejected = Vec::new();
        for entry in &self.suffix {
            match *entry {
                JournalEntry::Event(event) => {
                    events_replayed += 1;
                    if let Err(e) = engine.submit(event) {
                        rejected.push(ServiceError::from_engine(id, e));
                    }
                }
                JournalEntry::Grow(k) => {
                    engine.add_vertices(k);
                }
            }
        }
        if engine.pending_ops() > 0 {
            engine
                .flush()
                .map_err(|e| ServiceError::from_engine(id, e))?;
        }
        Ok((engine, events_replayed, rejected))
    }
}

/// A shard engine's live edge set, sorted by endpoint pair so that restoring it is
/// deterministic — the form both a checkpoint and a [`ShardLog`] image store.
fn shard_image(engine: &ClusteringEngine) -> ShardCheckpoint {
    let mut edges: Vec<(VertexId, VertexId, Weight)> = engine
        .graph()
        .graph_edges()
        .into_iter()
        .map(|(u, v, w, _)| (u, v, w))
        .collect();
    edges.sort_unstable_by_key(|e| (e.0, e.1));
    ShardCheckpoint { edges }
}

/// The one place a shard engine is constructed: `vertices` vertices, the slot's resolved
/// options, the pipeline's telemetry, and `edges` buffered as insertions in the given order
/// (the clustering is a pure function of the live weighted edge set under the engine's total
/// tie-breaking order, so re-inserting an image reproduces labels and member lists
/// bit-identically). The edges are left *pending*: the caller replays whatever follows the
/// image on top and publishes both with one flush.
///
/// The engine is not armed with the service's fault plan — the builder arms the engines of a
/// fresh service itself, and a rebuilt engine is the exit from a fault experiment, not
/// another round of it.
pub(super) fn rebuild_engine(
    id: ShardId,
    options: DynSldOptions,
    telemetry: &Telemetry,
    vertices: usize,
    edges: &[(VertexId, VertexId, Weight)],
) -> Result<ClusteringEngine, ServiceError> {
    let mut engine = ClusteringEngine::with_options(vertices, options);
    engine.set_telemetry(telemetry.clone());
    for &(u, v, weight) in edges {
        engine
            .submit(GraphUpdate::Insert { u, v, weight })
            .map_err(|e| ServiceError::Durability {
                detail: format!(
                    "image edge rejected during rebuild: {}",
                    ServiceError::from_engine(id, e)
                ),
            })?;
    }
    Ok(engine)
}

/// The attached durability layer of a [`ClusterService`]: the open WAL, the checkpoint
/// store sharing its directory, and the recovery report from build time.
#[derive(Debug)]
pub(super) struct DurableState {
    pub(super) wal: Wal,
    store: CheckpointStore,
    /// Checkpoint cadence in WAL records ([`ServiceBuilder::checkpoint_every_records`]).
    checkpoint_every: u64,
    /// Records appended (or replayed at recovery) since the last durable checkpoint.
    records_since_checkpoint: u64,
    /// Checkpoints successfully written by *this* process.
    pub(super) checkpoints_written: u64,
    /// A WAL error raised on an infallible path (`add_vertices` cannot return one); it is
    /// surfaced by the next fallible durable operation instead of being dropped.
    pub(super) deferred_error: Option<ServiceError>,
    pub(super) report: DurabilityReport,
}

impl ClusterService {
    /// Rebuilds a quarantined shard from its log. Every shard keeps an *image* of its live
    /// edge set plus the *suffix* of events and vertex growths routed to it since the image
    /// was taken; after a successful flush, a suffix that has outgrown the image is folded
    /// into a fresh image, so the log is bounded by the live edges, not by the length of the
    /// stream. Recovery restores the image into a fresh engine and replays the suffix over
    /// it — including everything logged unvalidated *during* the quarantine, whose
    /// rejections land in [`RecoveryReport::rejected`] — then flushes once; boot recovery of
    /// a durable service takes the same path from a checkpoint's images. The result is
    /// bit-identical to a shard that never panicked. The recovered state then becomes the
    /// shard's new image, so a rejection is reported by exactly one recovery.
    ///
    /// Calling this on a healthy shard is a no-op (`events_replayed == 0`). The recovered
    /// engine is *not* re-armed with the service's fault plan — recovery is the exit from
    /// the fault experiment, not another round of it.
    pub fn recover_shard(&mut self, id: ShardId) -> Result<RecoveryReport, ServiceError> {
        let idx = self.index_of(id);
        if !self.health[idx].is_quarantined() {
            return Ok(RecoveryReport {
                shard: id,
                events_replayed: 0,
                rejected: Vec::new(),
                epoch: self.engines[idx].epoch(),
            });
        }
        let (engine, events_replayed, rejected) =
            self.logs[idx].rebuild(id, self.options, &self.telemetry)?;
        // A fresh log rather than a fold: the quarantine may have grown the suffix's
        // allocation far past its steady-state bound.
        self.logs[idx] = ShardLog::from_image(engine.num_vertices(), shard_image(&engine));
        let epoch = engine.epoch();
        self.engines[idx] = engine;
        self.health[idx] = ShardHealth::Healthy;
        self.recoveries += 1;
        self.refresh_published();
        Ok(RecoveryReport {
            shard: id,
            events_replayed,
            rejected,
            epoch,
        })
    }

    /// Opens (or creates) the durable layer in `dir` and recovers whatever a previous
    /// process left there: the newest valid checkpoint is restored (falling back past a
    /// corrupt newest), the WAL tail beyond it is replayed through the normal routing
    /// paths, and the result is flushed and published. Called by
    /// [`ServiceBuilder::build`] as the last construction step, before any caller-supplied
    /// event exists — so the replay is indistinguishable from live ingest.
    pub(super) fn attach_durability(
        &mut self,
        dir: &Path,
        fsync: FsyncPolicy,
        checkpoint_every: u64,
    ) -> Result<(), ServiceError> {
        let store = CheckpointStore::open(dir)
            .map_err(|e| ServiceError::durability("opening checkpoint store", e))?;
        let load = store
            .load_newest_valid()
            .map_err(|e| ServiceError::durability("loading checkpoints", e))?;
        let wal_options = WalOptions {
            fsync,
            ..WalOptions::default()
        };
        let (mut wal, open_report) =
            Wal::open(dir, wal_options).map_err(|e| ServiceError::durability("opening WAL", e))?;
        let checkpoint_lsn = load.checkpoint.as_ref().map_or(0, |c| c.last_lsn);
        if wal.num_segments() > 0 && wal.last_lsn() < checkpoint_lsn {
            // Cannot happen from a process crash (a checkpoint's records were written to
            // the log file before the checkpoint claimed them), so the log was damaged by
            // something else — refuse rather than hand out recycled LSNs.
            return Err(ServiceError::Durability {
                detail: format!(
                    "WAL ends at lsn {} but the newest checkpoint covers lsn \
                     {checkpoint_lsn}: acknowledged log records are missing",
                    wal.last_lsn()
                ),
            });
        }
        let restored = load.checkpoint.is_some();
        if let Some(ckpt) = load.checkpoint {
            self.restore_from_checkpoint(ckpt)?;
        }
        // Replay the WAL tail through the normal batch paths. `self.durable` is still
        // `None`, so nothing is re-logged — the records are already in the WAL.
        let mut replayed = 0u64;
        let mut replay_rejected = Vec::new();
        for (lsn, record) in &open_report.records {
            if *lsn <= checkpoint_lsn {
                continue;
            }
            replayed += 1;
            match record {
                WalRecord::Event(event) => match self.buffer_event(*event) {
                    Ok(_) => {}
                    // Replay re-validates in routed order, exactly where the original
                    // process validated: a rejection here is one the oracle made too.
                    Err(e @ ServiceError::Rejected { .. }) => replay_rejected.push(e),
                    Err(e) => return Err(e),
                },
                WalRecord::Grow(k) => {
                    self.add_vertices(*k as usize);
                }
            }
        }
        let recovered = restored || replayed > 0 || open_report.torn_tails_truncated > 0;
        if self.pending_ops() > 0 {
            self.flush_direct()?;
        }
        wal.ensure_next_lsn(checkpoint_lsn + 1);
        let records_durable = wal.last_lsn().max(checkpoint_lsn);
        self.durable = Some(DurableState {
            wal,
            store,
            checkpoint_every,
            records_since_checkpoint: replayed,
            checkpoints_written: 0,
            deferred_error: None,
            report: DurabilityReport {
                recovered,
                checkpoint_lsn,
                wal_records_replayed: replayed,
                records_durable,
                torn_tails_truncated: open_report.torn_tails_truncated,
                corrupt_checkpoints_skipped: load.corrupt_skipped,
                replay_rejected,
            },
        });
        Ok(())
    }

    /// Replaces the fresh engines with ones rebuilt from `ckpt`: each shard's log takes the
    /// checkpoint's live edge set as its image (with an empty suffix) and the engine is
    /// rebuilt from that log — the same path as [`recover_shard`](Self::recover_shard). The
    /// router's [`AssignmentTable`] is restored, and the restored view is published at
    /// `ckpt.revision + 1` — past the crashed process's revision, so cached validators held
    /// by pre-crash subscribers never match.
    fn restore_from_checkpoint(&mut self, ckpt: Checkpoint) -> Result<(), ServiceError> {
        let mismatch = |detail: String| ServiceError::Durability { detail };
        if ckpt.shards.len() != self.engines.len() {
            return Err(mismatch(format!(
                "checkpoint has {} shards but the configuration builds {} engines — \
                 recover with the shard count the log was written under",
                ckpt.shards.len(),
                self.engines.len()
            )));
        }
        let n = usize::try_from(ckpt.vertices).map_err(|_| {
            mismatch(format!(
                "checkpoint vertex count {} overflows",
                ckpt.vertices
            ))
        })?;
        match (&mut self.router, ckpt.assignments) {
            (Router::Stateful { table, .. }, Some(raw)) => {
                if raw.len() != n {
                    return Err(mismatch(format!(
                        "assignment table covers {} vertices but the checkpoint covers {n}",
                        raw.len()
                    )));
                }
                if raw
                    .iter()
                    .any(|&s| s != u32::MAX && s as usize >= self.num_shards)
                {
                    return Err(mismatch(
                        "assignment table names a shard out of range — recover with the \
                         shard count the log was written under"
                            .into(),
                    ));
                }
                *table = AssignmentTable::from_raw(raw, self.num_shards);
            }
            (Router::Stateful { .. }, None) => {
                return Err(mismatch(
                    "checkpoint was written under a pure partitioner but this \
                     configuration routes with a stateful one"
                        .into(),
                ));
            }
            (Router::Pure(_), Some(_)) => {
                return Err(mismatch(
                    "checkpoint was written under a stateful partitioner but this \
                     configuration routes with a pure one"
                        .into(),
                ));
            }
            (Router::Pure(_), None) => {}
        }
        self.vertices = n;
        // Routing counters restart from the restored live-edge stream (deleted pre-crash
        // edges are gone from the checkpoint, so lifetime counts are not reconstructible).
        self.edge_inserts_routed = 0;
        for (idx, image) in ckpt.shards.into_iter().enumerate() {
            self.routed_events[idx] = image.edges.len() as u64;
            self.edge_inserts_routed += self.routed_events[idx];
            self.logs[idx] = ShardLog::from_image(n, image);
            let (engine, _, _) =
                self.logs[idx].rebuild(self.id_of(idx), self.options, &self.telemetry)?;
            self.engines[idx] = engine;
            self.health[idx] = ShardHealth::Healthy;
        }
        self.edge_inserts_cut = self.spill_load();
        let snapshot = self.merged_view(ckpt.revision + 1);
        self.shared.publish(snapshot);
        Ok(())
    }

    /// The durability layer's build-time recovery report — `Some` iff the service is
    /// durable ([`ServiceBuilder::durable`]).
    pub fn durability(&self) -> Option<&DurabilityReport> {
        self.durable.as_ref().map(|d| &d.report)
    }

    /// Logs one record to the WAL (no-op on non-durable services), honouring any armed
    /// crash fault: a matched `crash=after_wal` writes the record and then kills the
    /// layer, a matched `wal_torn` leaves a deliberately partial frame, and a dead layer
    /// drops writes silently — byte-exactly what a crashed process leaves behind.
    pub(super) fn wal_append(&mut self, record: &WalRecord) -> Result<(), ServiceError> {
        let Some(d) = self.durable.as_mut() else {
            return Ok(());
        };
        match self.faults.wal_append_fault() {
            WalWriteFault::Proceed => {
                d.wal
                    .append(record)
                    .map_err(|e| ServiceError::durability("WAL append", e))?;
                d.records_since_checkpoint += 1;
            }
            WalWriteFault::Torn => {
                d.wal
                    .append_torn(record)
                    .map_err(|e| ServiceError::durability("torn WAL append", e))?;
            }
            WalWriteFault::Skip => {}
        }
        Ok(())
    }

    /// The durability hook that ends every drain and flush (no-op on non-durable services).
    /// First forces unsynced WAL appends to stable storage under [`FsyncPolicy::EveryDrain`],
    /// surfacing any WAL error deferred from an infallible path. Then writes a checkpoint if
    /// one is due — enough WAL records since the last one (or `force`), every shard healthy,
    /// and nothing pending, so "state reflects every record with LSN ≤ `last_lsn`" holds
    /// exactly — and reclaims WAL segments the retained checkpoints cover. Returns whether a
    /// checkpoint was written.
    pub(crate) fn settle_durable(&mut self, force: bool) -> Result<bool, ServiceError> {
        let Some(d) = self.durable.as_mut() else {
            return Ok(false);
        };
        if let Some(e) = d.deferred_error.take() {
            return Err(e);
        }
        d.wal
            .sync_drain()
            .map_err(|e| ServiceError::durability("WAL drain sync", e))?;
        if d.records_since_checkpoint == 0
            || (!force && d.records_since_checkpoint < d.checkpoint_every)
        {
            return Ok(false);
        }
        if self.health.iter().any(ShardHealth::is_quarantined) || self.pending_ops() > 0 {
            return Ok(false);
        }
        let corrupt = match self.faults.checkpoint_fault() {
            CheckpointWriteFault::Skip => return Ok(false),
            CheckpointWriteFault::Proceed => false,
            CheckpointWriteFault::Corrupt => true,
        };
        let ckpt = self.build_checkpoint();
        let d = self.durable.as_mut().expect("checked above");
        if corrupt {
            // A crash mid-checkpoint: the damaged file lands under its final name,
            // nothing is pruned or reclaimed, and the layer is dead from here on.
            // Recovery must fall back past this file.
            d.store
                .write_corrupt(&ckpt)
                .map_err(|e| ServiceError::durability("corrupt checkpoint write", e))?;
            return Ok(false);
        }
        let reclaim = d
            .store
            .write(&ckpt)
            .map_err(|e| ServiceError::durability("checkpoint write", e))?;
        d.wal
            .reclaim_below(reclaim)
            .map_err(|e| ServiceError::durability("WAL reclaim", e))?;
        d.checkpoints_written += 1;
        d.records_since_checkpoint = 0;
        Ok(true)
    }

    /// The full durable state of the service right now: per-shard live edge sets (sorted,
    /// so restoration is deterministic), the assignment table, and the WAL coverage mark.
    fn build_checkpoint(&self) -> Checkpoint {
        Checkpoint {
            last_lsn: self
                .durable
                .as_ref()
                .expect("checkpoints are only built on durable services")
                .wal
                .last_lsn(),
            revision: self.published().revision(),
            vertices: self.vertices as u64,
            assignments: self.router.table().map(AssignmentTable::to_raw),
            shards: self.engines.iter().map(shard_image).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultPlan;
    use crate::partition::{BlockPartitioner, Partitioner};
    use crate::{RejectReason, ServiceBuilder};
    use dynsld_forest::workload::GraphWorkloadBuilder;
    use std::collections::HashSet;

    const VERTICES: usize = 20_000;
    const WINDOW: usize = 8_000;
    const EVENTS: usize = 1_000_000;
    const BATCH: usize = 4_096;

    /// Per-shard resident log size, `(image edges, suffix entries)` in shard order.
    fn log_footprint(service: &ClusterService) -> Vec<(usize, usize)> {
        service
            .logs
            .iter()
            .map(|log| (log.image.edges.len(), log.suffix.len()))
            .collect()
    }

    fn service(shards: usize, faults: FaultPlan) -> ClusterService {
        ServiceBuilder::new()
            .vertices(VERTICES)
            .shards(shards)
            .partitioner(BlockPartitioner::covering(VERTICES, shards))
            .faults(faults)
            .build()
            .expect("valid test configuration")
    }

    /// Streams 10⁶ sliding-window events through `shards` routed shards, pinning after every
    /// flush that each shard's resident log stays within a small constant of its live edges;
    /// then tears shard 0 on the last batch, keeps ingesting into the quarantined shard
    /// (two invalid events included), recovers, and compares with a never-faulted oracle.
    fn bounded_log_then_recovery(shards: usize) {
        let stream = GraphWorkloadBuilder::new(VERTICES).sliding_window_stream(
            WINDOW + (EVENTS - WINDOW) / 2,
            WINDOW,
            7,
        );
        assert_eq!(stream.len(), EVENTS);
        let partitioner = BlockPartitioner::covering(VERTICES, shards);
        let on_shard_0 = |event: &GraphUpdate| {
            let (u, v) = event.endpoints();
            partitioner.route_edge(u, v, shards) == ShardId::Routed(0)
        };
        // The last batch tears shard 0: script the panic for the non-empty flush after the
        // ones the head of the stream gives it.
        let (head, tail) = stream.split_at(EVENTS - EVENTS % BATCH);
        assert!(tail.iter().any(on_shard_0));
        let head_flushes = head
            .chunks(BATCH)
            .filter(|batch| batch.iter().any(on_shard_0))
            .count();
        let spec = format!("flush_panic=shard:0,flush:{}", head_flushes + 1);
        let mut faulted = service(shards, FaultPlan::parse(&spec).expect("valid spec"));
        let mut oracle = service(shards, FaultPlan::disabled());

        for batch in head.chunks(BATCH) {
            for &event in batch {
                faulted.buffer_event(event).expect("valid stream");
            }
            faulted.flush_direct().expect("no fault is due yet");
            for (id, (image, suffix)) in
                faulted.shard_ids().into_iter().zip(log_footprint(&faulted))
            {
                let live = faulted.shard(id).snapshot().num_graph_edges();
                assert!(
                    image + suffix <= 3 * live.max(FOLD_FLOOR),
                    "{id}: image {image} + suffix {suffix} entries for {live} live edges"
                );
            }
        }
        let resident: usize = log_footprint(&faulted).iter().map(|(i, s)| i + s).sum();
        assert!(
            resident <= 3 * WINDOW,
            "{resident} log entries after {EVENTS} events"
        );

        for &event in tail {
            faulted.buffer_event(event).expect("valid stream");
        }
        let report = faulted.flush_direct().expect("the panic is isolated");
        assert!(report.shard_health[0].1.is_quarantined());

        // Shard 0 is down: it keeps accepting ingest, valid or not, unvalidated.
        let inserted: HashSet<_> = stream.iter().map(GraphUpdate::endpoints).collect();
        let mut fresh = (0..VERTICES as u32 / shards as u32 - 1)
            .map(|i| (VertexId(i), VertexId(i + 1)))
            .filter(|pair| !inserted.contains(pair));
        let (a, b, c) = (
            fresh.next().unwrap(),
            fresh.next().unwrap(),
            fresh.next().unwrap(),
        );
        let &live = stream[EVENTS - 2 * WINDOW..]
            .iter()
            .rfind(|e| matches!(e, GraphUpdate::Insert { .. }) && on_shard_0(e))
            .expect("shard 0 holds a live edge");
        let insert = |(u, v): (VertexId, VertexId)| GraphUpdate::Insert { u, v, weight: 0.5 };
        let during_quarantine = [
            insert(a),
            GraphUpdate::Delete { u: b.0, v: b.1 }, // invalid: never inserted
            insert(c),
            live, // invalid: still in the window
            GraphUpdate::Delete { u: a.0, v: a.1 },
        ];
        for event in during_quarantine {
            assert!(on_shard_0(&event));
            faulted
                .buffer_event(event)
                .expect("a quarantined shard logs unvalidated");
        }
        let recovery = faulted.recover_shard(ShardId::Routed(0)).expect("replay");
        assert!(recovery.events_replayed >= during_quarantine.len());
        assert_eq!(log_footprint(&faulted)[0].1, 0, "recovery folds the log");

        // The oracle sees the identical stream in one batch and rejects at submit time.
        let mut oracle_rejected = Vec::new();
        for &event in stream.iter().chain(&during_quarantine) {
            if let Err(e) = oracle.buffer_event(event) {
                oracle_rejected.push(e);
            }
        }
        oracle.flush_direct().expect("never faulted");
        let reasons: Vec<_> = oracle_rejected
            .iter()
            .map(|e| match e {
                ServiceError::Rejected { reason, .. } => *reason,
                other => panic!("unexpected oracle error {other}"),
            })
            .collect();
        assert_eq!(
            reasons,
            [RejectReason::NotPresent, RejectReason::AlreadyPresent]
        );
        assert_eq!(recovery.rejected, oracle_rejected);

        let (got, want) = (faulted.published(), oracle.published());
        assert!(!got.is_stale());
        assert_eq!(got.num_graph_edges(), want.num_graph_edges());
        for tau in [0.25, 2.0, 5.0, 9.0, f64::INFINITY] {
            let (g, w) = (got.flat_clustering(tau), want.flat_clustering(tau));
            assert_eq!(g.labels, w.labels, "labels diverged at tau={tau}");
            assert_eq!(g.clusters, w.clusters, "member lists diverged at tau={tau}");
        }
    }

    #[test]
    fn single_shard_log_stays_bounded_over_a_million_events_and_recovers() {
        bounded_log_then_recovery(1);
    }

    #[test]
    fn sharded_logs_stay_bounded_over_a_million_events_and_recover() {
        bounded_log_then_recovery(2);
    }
}
