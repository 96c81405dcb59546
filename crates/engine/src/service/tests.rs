//! Unit tests of the service as a whole (kept under `service::tests`).

use super::*;
use crate::coalesce::RejectReason;
use crate::engine::FlushPhases;
use crate::partition::{BlockPartitioner, GreedyPartitioner};
use dynsld_forest::workload::GraphUpdate;
use std::path::{Path, PathBuf};
use std::time::Duration;

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

/// Routes one event through the internal path old tests submitted through.
fn submit(svc: &mut ClusterService, event: GraphUpdate) -> Result<ShardId, ServiceError> {
    svc.buffer_event(event).map(|(id, _)| id)
}

fn submit_all(
    svc: &mut ClusterService,
    events: impl IntoIterator<Item = GraphUpdate>,
) -> Result<usize, ServiceError> {
    let mut count = 0;
    for event in events {
        submit(svc, event)?;
        count += 1;
    }
    Ok(count)
}

/// Blocks of 4 vertices per shard so routing is easy to reason about in tests.
fn blocked(shards: usize, n: usize, policy: FlushPolicy) -> ClusterService {
    ServiceBuilder::new()
        .vertices(n)
        .shards(shards)
        .partitioner(BlockPartitioner { block_size: 4 })
        .flush_policy(policy)
        .build()
        .expect("valid test configuration")
}

#[test]
fn read_handle_clones_share_one_threshold_cache() {
    // Satellite pin: the per-threshold cache lives inside the published snapshot's shared
    // allocation, so two ReadHandle clones (and any further snapshot clones) hit the SAME
    // cached threshold cut — one union-find pass per (publication, tau), not per handle.
    let service = blocked(2, 8, FlushPolicy::Manual);
    let ingest = service.ingest_handle();
    let read_a = service.read_handle();
    let read_b = read_a.clone();
    let mut driver = FlusherDriver::new(service);
    ingest.submit(ins(0, 1, 1.0)).unwrap();
    ingest.submit(ins(4, 5, 2.0)).unwrap();
    ingest.submit(ins(1, 4, 3.0)).unwrap();
    driver.pump().unwrap();
    driver.flush().unwrap();
    let cut_a = read_a.snapshot().flat_clustering(2.5);
    let cut_b = read_b.snapshot().flat_clustering(2.5);
    assert!(
        Arc::ptr_eq(&cut_a, &cut_b),
        "clones of one published view must share one cached cut"
    );
    // The same holds for the per-shard engine snapshots behind the merged view.
    let shard_a = read_a.snapshot().shard_snapshots()[0].flat_clustering(1.5);
    let shard_b = read_b.snapshot().shard_snapshots()[0].flat_clustering(1.5);
    assert!(Arc::ptr_eq(&shard_a, &shard_b));
}

#[test]
fn point_queries_on_a_fresh_single_shard_view_build_no_clustering() {
    // The read claim, as a count: a reader op of one `num_clusters` and four `same_cluster`
    // on a fresh single-shard snapshot walks the export — no flat clustering is built (no
    // cache miss), so the next publish has none to drop. `cluster_size` still sweeps.
    let service = blocked(1, 8, FlushPolicy::Manual);
    let ingest = service.ingest_handle();
    let read = service.read_handle();
    let mut driver = FlusherDriver::new(service);
    for event in [
        ins(0, 1, 1.0),
        ins(4, 5, 2.0),
        ins(1, 4, 3.0),
        ins(6, 7, 0.5),
    ] {
        ingest.submit(event).unwrap();
    }
    driver.pump().unwrap();
    driver.flush().unwrap();
    let snapshot = read.snapshot();
    assert_eq!(snapshot.num_clusters(2.5), 5); // {0,1} {4,5} {6,7} {2} {3}
    assert!(snapshot.same_cluster(v(0), v(1), 2.5));
    assert!(!snapshot.same_cluster(v(1), v(4), 2.5));
    assert!(snapshot.same_cluster(v(0), v(5), 3.0));
    assert!(!snapshot.same_cluster(v(2), v(3), f64::INFINITY));
    assert_eq!(snapshot.num_components(), 4);
    let metrics = driver.service().metrics();
    assert_eq!(
        (metrics.snapshot_cache_misses, metrics.snapshot_cache_hits),
        (0, 0)
    );
    assert_eq!(snapshot.cluster_size(v(0), 3.0), 4);
    assert!(snapshot.same_cluster(v(0), v(5), 3.0));
    let metrics = driver.service().metrics();
    assert_eq!(
        (metrics.snapshot_cache_misses, metrics.snapshot_cache_hits),
        (1, 1),
        "a cached clustering answers the point queries at its threshold"
    );
}

#[test]
fn revision_advances_once_per_publish() {
    let service = blocked(2, 8, FlushPolicy::Manual);
    let ingest = service.ingest_handle();
    let read = service.read_handle();
    let mut driver = FlusherDriver::new(service);
    assert_eq!(read.revision(), 0);
    ingest.submit(ins(0, 1, 1.0)).unwrap();
    driver.pump().unwrap();
    driver.flush().unwrap();
    assert_eq!(read.revision(), 1);
    // A flush with nothing pending publishes nothing: revision unchanged.
    driver.flush().unwrap();
    assert_eq!(read.revision(), 1);
    // Vertex growth publishes.
    driver.add_vertices(2);
    assert_eq!(read.revision(), 2);
    assert_eq!(read.snapshot().revision(), 2);
}

#[test]
fn sync_from_serves_unchanged_delta_and_full() {
    let service = blocked(2, 8, FlushPolicy::Manual);
    let ingest = service.ingest_handle();
    let read = service.read_handle();
    let mut driver = FlusherDriver::new(service);

    // First sync: no base revision → full snapshot.
    let SyncResponse::Full(full) = read.sync_from(None) else {
        panic!("first sync must be a full snapshot");
    };
    assert_eq!(full.revision(), 0);

    // Caught up → Unchanged.
    match read.sync_from(Some(0)) {
        SyncResponse::Unchanged { revision, .. } => assert_eq!(revision, 0),
        other => panic!("expected Unchanged, got {other:?}"),
    }

    // Publish twice, then sync from revision 0: a two-delta chain whose replay
    // reproduces the published per-shard exports bit for bit.
    let mut shards: Vec<_> = full
        .shard_snapshots()
        .iter()
        .map(|s| s.dendrogram().clone())
        .collect();
    ingest.submit(ins(0, 1, 1.0)).unwrap();
    ingest.submit(ins(4, 5, 2.0)).unwrap();
    driver.pump().unwrap();
    driver.flush().unwrap();
    ingest.submit(ins(1, 2, 3.0)).unwrap();
    ingest.submit(del(4, 5)).unwrap();
    driver.pump().unwrap();
    driver.flush().unwrap();
    let SyncResponse::Delta(patch) = read.sync_from(Some(0)) else {
        panic!("revision 0 is still in the ring");
    };
    assert_eq!(patch.from_revision, 0);
    assert_eq!(patch.to_revision, 2);
    assert_eq!(patch.deltas.len(), 2);
    patch.apply_to_shards(&mut shards);
    let now = read.snapshot();
    for (replayed, published) in shards.iter().zip(now.shard_snapshots()) {
        assert_eq!(replayed, published.dendrogram());
    }

    // Serve counters flow into the service metrics.
    read.record_served_bytes(128);
    let metrics = driver.service().metrics();
    assert_eq!(metrics.snapshots_served, 1);
    assert_eq!(metrics.deltas_served, 1);
    assert_eq!(metrics.delta_bytes_out, 128);
    assert_eq!(metrics.full_fallbacks, 0);
    assert!((metrics.delta_hit_share() - 0.5).abs() < 1e-12);
}

#[test]
fn sync_from_falls_back_to_full_when_ring_ages_out() {
    let service = ServiceBuilder::new()
        .vertices(8)
        .shards(2)
        .partitioner(BlockPartitioner { block_size: 4 })
        .delta_ring(1)
        .build()
        .unwrap();
    let ingest = service.ingest_handle();
    let read = service.read_handle();
    let mut driver = FlusherDriver::new(service);
    for (i, w) in [(0u32, 1.0), (1, 2.0), (2, 3.0)] {
        ingest.submit(ins(i, i + 1, w)).unwrap();
        driver.pump().unwrap();
        driver.flush().unwrap();
    }
    assert_eq!(read.revision(), 3);
    // Revision 0 aged out of the 1-deep ring → full fallback, counted as such.
    let SyncResponse::Full(full) = read.sync_from(Some(0)) else {
        panic!("aged-out revision must fall back to a full snapshot");
    };
    assert_eq!(full.revision(), 3);
    // The newest step is still deliverable as a delta.
    assert!(matches!(read.sync_from(Some(2)), SyncResponse::Delta(_)));
    let metrics = driver.service().metrics();
    assert_eq!(metrics.full_fallbacks, 1);
    assert_eq!(metrics.snapshots_served, 1);
    assert_eq!(metrics.deltas_served, 1);
}

#[test]
fn tracked_thresholds_report_label_changes_in_deltas() {
    let service = ServiceBuilder::new()
        .vertices(8)
        .shards(2)
        .partitioner(BlockPartitioner { block_size: 4 })
        .track_thresholds([2.5])
        .build()
        .unwrap();
    let ingest = service.ingest_handle();
    let read = service.read_handle();
    let mut driver = FlusherDriver::new(service);
    ingest.submit(ins(0, 1, 1.0)).unwrap();
    ingest.submit(ins(1, 4, 2.0)).unwrap(); // cross-shard: lands on the spill shard
    driver.pump().unwrap();
    driver.flush().unwrap();
    let SyncResponse::Delta(patch) = read.sync_from(Some(0)) else {
        panic!("expected a delta");
    };
    let relabels = &patch.deltas[0].relabels;
    assert_eq!(relabels.len(), 1);
    assert_eq!(relabels[0].tau, 2.5);
    // {0,1,4} merged below 2.5: vertices 1 and 4 joined vertex 0's cluster, and every
    // later vertex's canonical label shifted down — exactly what the published view says.
    let now = read.snapshot();
    let fc = now.flat_clustering(2.5);
    for &(v, label) in &relabels[0].changed {
        assert_eq!(fc.labels[v.index()], label);
    }
    assert_eq!(relabels[0].num_clusters, fc.num_clusters());
    assert!(!relabels[0].changed.is_empty());
}

#[test]
fn builder_validates_every_config_arm() {
    // Valid baseline.
    assert!(ServiceBuilder::new().vertices(4).build().is_ok());
    // Zero shards.
    assert_eq!(
        ServiceBuilder::new().vertices(4).shards(0).build().err(),
        Some(ServiceError::InvalidConfig(ConfigError::ZeroShards))
    );
    // Zero threads.
    assert_eq!(
        ServiceBuilder::new().vertices(4).threads(0).build().err(),
        Some(ServiceError::InvalidConfig(ConfigError::ZeroThreads))
    );
    // Zero queue capacity.
    assert_eq!(
        ServiceBuilder::new()
            .vertices(4)
            .queue_capacity(0)
            .build()
            .err(),
        Some(ServiceError::InvalidConfig(ConfigError::ZeroQueueCapacity))
    );
    // Missing vertex count.
    assert_eq!(
        ServiceBuilder::new().shards(2).build().err(),
        Some(ServiceError::InvalidConfig(ConfigError::MissingVertexCount))
    );
    // Vertex count past the u32 id space.
    let requested = u32::MAX as usize + 1;
    assert_eq!(
        ServiceBuilder::new().vertices(requested).build().err(),
        Some(ServiceError::InvalidConfig(
            ConfigError::VertexCountOverflow { requested }
        ))
    );
    // The error message names the arm.
    let err = ServiceBuilder::new().vertices(4).shards(0).build().err();
    assert!(err.unwrap().to_string().contains("shards(0)"));
}

#[test]
fn router_splits_by_endpoint_partition() {
    let mut svc = blocked(2, 8, FlushPolicy::Manual);
    assert_eq!(
        svc.shard_ids(),
        vec![ShardId::Routed(0), ShardId::Routed(1), ShardId::Spill]
    );
    assert_eq!(
        submit(&mut svc, ins(0, 1, 1.0)).unwrap(),
        ShardId::Routed(0)
    );
    assert_eq!(
        submit(&mut svc, ins(4, 5, 1.0)).unwrap(),
        ShardId::Routed(1)
    );
    assert_eq!(submit(&mut svc, ins(1, 4, 2.0)).unwrap(), ShardId::Spill);
    assert_eq!(svc.pending_ops(), 3);
    let report = svc.flush_direct().unwrap();
    assert_eq!(report.ops_applied(), 3);
    assert_eq!(report.shards_flushed(), 3);
    assert!((report.spill_routing_share() - 1.0 / 3.0).abs() < 1e-12);
    assert_eq!(svc.epochs(), vec![1, 1, 1]);
    assert_eq!(svc.shard(ShardId::Spill).num_vertices(), 8);

    let snap = svc.published();
    assert_eq!(snap.num_graph_edges(), 3);
    // 0-1 and 4-5 live in different shards but 1-4 (spill) glues them together.
    assert!(snap.same_cluster(v(0), v(5), 2.0));
    assert_eq!(snap.cluster_size(v(0), 2.0), 4);
    assert_eq!(snap.num_components(), 8 - 3);
}

#[test]
fn single_shard_has_no_spill_and_matches_engine_surface() {
    let mut svc = ClusterService::single_shard(4);
    assert_eq!(svc.num_shards(), 1);
    assert!(!svc.has_spill_shard());
    assert_eq!(svc.shard_ids(), vec![ShardId::Routed(0)]);
    // Every edge routes to shard 0, even ones a hash partitioner would split.
    assert_eq!(
        submit(&mut svc, ins(0, 3, 1.0)).unwrap(),
        ShardId::Routed(0)
    );
    let report = svc.flush_direct().unwrap();
    // No spill shard: nothing can spill, per flush either.
    assert_eq!(report.spill_routing_share(), 0.0);
    let snap = svc.published();
    assert_eq!(snap.epochs(), vec![1]);
    assert!(snap.same_cluster(v(0), v(3), 1.0));
    assert_eq!(snap.num_components(), 3);
}

#[test]
fn rejections_name_the_shard_and_leave_state_unchanged() {
    let mut svc = blocked(2, 8, FlushPolicy::Manual);
    submit(&mut svc, ins(1, 4, 1.0)).unwrap();
    svc.flush_direct().unwrap();
    let err = submit(&mut svc, ins(4, 1, 2.0)).unwrap_err();
    assert_eq!(
        err,
        ServiceError::Rejected {
            shard: ShardId::Spill,
            event: ins(4, 1, 2.0),
            reason: RejectReason::AlreadyPresent,
        }
    );
    let err = submit(&mut svc, del(0, 1)).unwrap_err();
    assert!(matches!(
        err,
        ServiceError::Rejected {
            shard: ShardId::Routed(0),
            reason: RejectReason::NotPresent,
            ..
        }
    ));
    assert_eq!(svc.pending_ops(), 0);
}

#[test]
fn every_n_ops_policy_flushes_the_filling_shard_only() {
    let mut svc = blocked(2, 8, FlushPolicy::EveryNOps(2));
    assert!(svc.buffer_event(ins(0, 1, 1.0)).unwrap().1.is_none());
    assert_eq!(svc.epochs(), vec![0, 0, 0]);
    // Shard 0 reaches 2 pending -> auto flush, reported back to the caller.
    let (id, flushed) = svc.buffer_event(ins(1, 2, 1.0)).unwrap();
    assert_eq!(id, ShardId::Routed(0));
    let (flushed_id, report) = flushed.expect("threshold flush must be reported");
    assert_eq!(flushed_id, ShardId::Routed(0));
    assert_eq!(report.ops_applied, 2);
    assert_eq!(svc.epochs(), vec![1, 0, 0]);
    assert_eq!(svc.pending_ops(), 0);
    assert!(svc.buffer_event(ins(4, 5, 1.0)).unwrap().1.is_none()); // shard 1 stays buffered
    assert_eq!(svc.epochs(), vec![1, 0, 0]);
    assert_eq!(svc.pending_ops(), 1);
}

#[test]
fn on_read_policy_makes_snapshots_observe_everything() {
    let svc = blocked(2, 8, FlushPolicy::OnRead);
    let ingest = svc.ingest_handle();
    let read = svc.read_handle();
    let mut driver = FlusherDriver::new(svc);
    ingest.submit(ins(0, 1, 1.0)).unwrap();
    ingest.submit(ins(1, 4, 1.5)).unwrap();
    // Queued events are invisible until the driver drains them.
    assert_eq!(read.snapshot().num_graph_edges(), 0);
    // The drain honours OnRead: route, flush, publish — no explicit flush call.
    driver.pump().unwrap();
    let snap = read.snapshot();
    assert_eq!(snap.num_graph_edges(), 2);
    assert!(snap.same_cluster(v(0), v(4), 1.5));
    assert_eq!(driver.service().pending_ops(), 0);
}

#[test]
fn snapshots_stay_frozen_across_later_flushes() {
    let mut svc = blocked(2, 8, FlushPolicy::Manual);
    submit(&mut svc, ins(0, 4, 1.0)).unwrap();
    svc.flush_direct().unwrap();
    let old = svc.published();
    assert!(old.same_cluster(v(0), v(4), 1.0));

    submit(&mut svc, del(0, 4)).unwrap();
    svc.flush_direct().unwrap();
    let new = svc.published();
    assert!(!new.same_cluster(v(0), v(4), f64::INFINITY));
    // The held view keeps answering for its epoch vector.
    assert!(old.same_cluster(v(0), v(4), 1.0));
    assert_eq!(old.num_graph_edges(), 1);
    // Only the spill shard (home of edge 0-4) published new states.
    assert_eq!(old.epochs(), vec![0, 0, 1]);
    assert_eq!(new.epochs(), vec![0, 0, 2]);
}

#[test]
fn merged_clusterings_are_cached_and_canonical() {
    let mut svc = blocked(2, 8, FlushPolicy::Manual);
    submit_all(&mut svc, [ins(0, 1, 1.0), ins(4, 5, 1.0), ins(1, 4, 2.0)]).unwrap();
    svc.flush_direct().unwrap();
    let snap = svc.published();
    let a = snap.flat_clustering(2.0);
    let b = snap.flat_clustering(2.0);
    assert!(Arc::ptr_eq(&a, &b), "merged clusterings must be memoised");
    // Separate reads at the same epoch vector share one merged cache, even across no-op
    // flushes.
    svc.flush_direct().unwrap();
    let c = svc.published().flat_clustering(2.0);
    assert!(
        Arc::ptr_eq(&a, &c),
        "repeated reads at one epoch vector must share the merged cache"
    );
    // Canonical: labels numbered by smallest member, members ascending.
    assert_eq!(a.clusters[a.labels[0]], vec![v(0), v(1), v(4), v(5)]);
    let total: usize = a.clusters.iter().map(Vec::len).sum();
    assert_eq!(total, 8);
}

#[test]
fn add_vertices_grows_every_shard_and_is_immediately_visible() {
    let mut svc = blocked(2, 8, FlushPolicy::Manual);
    submit(&mut svc, ins(0, 1, 1.0)).unwrap();
    svc.flush_direct().unwrap();
    let first = svc.add_vertices(2);
    assert_eq!(first, v(8));
    assert_eq!(svc.num_vertices(), 10);
    for id in svc.shard_ids() {
        assert_eq!(svc.shard(id).num_vertices(), 10);
    }
    let snap = svc.published();
    assert_eq!(snap.num_vertices(), 10);
    assert_eq!(snap.num_components(), 9); // 10 vertices, one merged pair
                                          // New vertices accept edges right away.
    submit(&mut svc, ins(8, 9, 1.0)).unwrap();
    svc.flush_direct().unwrap();
    assert!(svc.published().same_cluster(v(8), v(9), 1.0));
}

#[test]
fn metrics_merge_across_shards() {
    let mut svc = blocked(2, 8, FlushPolicy::Manual);
    submit_all(&mut svc, [ins(0, 1, 1.0), ins(4, 5, 1.0), ins(1, 4, 2.0)]).unwrap();
    svc.flush_direct().unwrap();
    let m = svc.metrics();
    assert_eq!(m.events_submitted, 3);
    assert_eq!(m.ops_applied, 3);
    assert_eq!(m.flushes, 3); // one per non-empty shard
    let spill = svc.shard_metrics(ShardId::Spill);
    assert_eq!(spill.ops_applied, 1);
}

#[test]
fn metrics_report_spill_routing_share() {
    let mut svc = blocked(2, 8, FlushPolicy::Manual);
    // Two shard-local events, one cross-shard event -> 1/3 of the routed traffic spills.
    submit_all(&mut svc, [ins(0, 1, 1.0), ins(4, 5, 1.0), ins(1, 4, 2.0)]).unwrap();
    let m = svc.metrics();
    assert_eq!(m.events_routed_spill, 1);
    assert!((m.spill_routing_share() - 1.0 / 3.0).abs() < 1e-12);
    // Per-shard metrics stay routing-agnostic; only the service-level merge carries it.
    assert_eq!(svc.shard_metrics(ShardId::Spill).events_routed_spill, 0);
    // Single-shard services never spill.
    let mut solo = ClusterService::single_shard(4);
    submit(&mut solo, ins(0, 3, 1.0)).unwrap();
    assert_eq!(solo.metrics().events_routed_spill, 0);
    assert_eq!(solo.metrics().spill_routing_share(), 0.0);
}

#[test]
fn metrics_track_the_ingest_queue() {
    let svc = blocked(2, 8, FlushPolicy::Manual);
    let ingest = svc.ingest_handle();
    ingest.submit(ins(0, 1, 1.0)).unwrap();
    ingest.submit(ins(4, 5, 1.0)).unwrap();
    let m = svc.metrics();
    assert_eq!(m.events_enqueued, 2);
    assert_eq!(m.queue_full_rejections, 0);
    // A full queue in Fail mode is counted.
    let tight = ServiceBuilder::new()
        .vertices(4)
        .queue_capacity(1)
        .backpressure(Backpressure::Fail)
        .build()
        .unwrap();
    let h = tight.ingest_handle();
    h.submit(ins(0, 1, 1.0)).unwrap();
    assert!(h.submit(ins(1, 2, 1.0)).is_err());
    assert_eq!(tight.metrics().queue_full_rejections, 1);
}

#[test]
fn metrics_gauge_queue_depths() {
    let svc = blocked(2, 8, FlushPolicy::Manual);
    let ingest = svc.ingest_handle();
    ingest.submit(ins(0, 1, 1.0)).unwrap();
    ingest.submit(ins(4, 5, 1.0)).unwrap();
    ingest.submit(ins(1, 2, 1.0)).unwrap();
    let before = svc.metrics();
    // Three events buffered at once; nothing drained yet.
    assert_eq!(before.queue_depth_max, 3);
    assert_eq!(before.queue_depth_last_drain, 0);
    let mut driver = FlusherDriver::new(svc);
    driver.pump().unwrap();
    let after = driver.service().metrics();
    // The drain observed the full queue; the watermark survives the drain.
    assert_eq!(after.queue_depth_max, 3);
    assert_eq!(after.queue_depth_last_drain, 3);
    // A shallower follow-up drain moves the gauge but not the watermark.
    driver
        .service()
        .ingest_handle()
        .submit(ins(2, 3, 1.0))
        .unwrap();
    driver.pump().unwrap();
    let last = driver.service().metrics();
    assert_eq!(last.queue_depth_max, 3);
    assert_eq!(last.queue_depth_last_drain, 1);
}

#[test]
fn flush_reports_carry_wall_time_and_phase_totals() {
    let svc = blocked(2, 8, FlushPolicy::Manual);
    let ingest = svc.ingest_handle();
    ingest.submit(ins(0, 1, 1.0)).unwrap();
    ingest.submit(ins(4, 5, 1.0)).unwrap();
    ingest.submit(ins(1, 4, 2.0)).unwrap(); // cross-shard → spill
    let mut driver = FlusherDriver::new(svc);
    driver.pump().unwrap();
    let report = driver.flush().unwrap();
    assert!(report.wall_time > Duration::ZERO);
    // Three shards applied one op each: the busy-time sum dominates the slowest shard,
    // and no shard outlasted the whole flush.
    assert!(report.shard_time_sum() >= report.slowest_shard_time());
    assert!(report.slowest_shard_time() > Duration::ZERO);
    assert!(report.wall_time >= report.slowest_shard_time());
    let phases = report.phase_totals();
    assert!(phases.apply > Duration::ZERO);
    assert!(phases.total() <= report.shard_time_sum());
    // An idle follow-up flush still reports its (tiny) wall time.
    let idle = driver.flush().unwrap();
    assert_eq!(idle.slowest_shard_time(), Duration::ZERO);
    assert_eq!(idle.phase_totals(), FlushPhases::default());
}

#[test]
fn builder_telemetry_instruments_the_whole_pipeline() {
    let telemetry = Telemetry::enabled();
    let svc = ServiceBuilder::new()
        .vertices(8)
        .shards(2)
        .partitioner(BlockPartitioner { block_size: 4 })
        .telemetry(telemetry.clone())
        .build()
        .unwrap();
    assert!(svc.telemetry().is_enabled());
    let ingest = svc.ingest_handle();
    ingest.submit(ins(0, 1, 1.0)).unwrap();
    ingest.submit(ins(4, 5, 1.0)).unwrap();
    let mut driver = FlusherDriver::new(svc);
    driver.pump().unwrap();
    driver.flush().unwrap();
    let snap = telemetry.snapshot();
    // Submit-side latency, drain depth, routing, and flush phases all recorded.
    for series in [
        "ingest.submit_ns",
        "queue.drain_depth",
        "driver.drain_size",
        "service.route_ns",
        "service.flush_wall_ns",
        "engine.flush_ns",
        "engine.apply_ns",
    ] {
        assert!(
            snap.histogram(series).is_some_and(|h| !h.is_empty()),
            "series {series} missing or empty"
        );
    }
    assert!(snap.counter("engine.flushes").unwrap_or(0) >= 1);
    snap.trace.check_well_formed().unwrap();
    assert!(snap.trace.total_events() > 0);
    // The default builder stays inert.
    let inert = blocked(2, 8, FlushPolicy::Manual);
    assert!(!inert.telemetry().is_enabled());
}

/// A 2-shard greedy service for the assignment tests below.
fn greedy(n: usize) -> ClusterService {
    ServiceBuilder::new()
        .vertices(n)
        .shards(2)
        .stateful_partitioner(GreedyPartitioner::default())
        .build()
        .expect("valid greedy configuration")
}

#[test]
fn greedy_pins_on_first_sight_and_keeps_neighbourhoods_local() {
    let mut svc = greedy(12);
    assert!(svc.assignment_table().is_some());
    assert_eq!(svc.assignment_of(v(0)), None);
    // `route` is a preview: it must not pin anything.
    let previewed = svc.route(v(0), v(1));
    assert_eq!(svc.assignment_of(v(0)), None);
    // The first edge pins both endpoints together on one shard.
    let id = submit(&mut svc, ins(0, 1, 1.0)).unwrap();
    assert_eq!(id, previewed);
    let s0 = svc.assignment_of(v(0)).expect("pinned at first sight");
    assert_eq!(id, ShardId::Routed(s0));
    assert_eq!(svc.assignment_of(v(1)), Some(s0));
    // Vertices arriving attached to that community join its shard...
    assert_eq!(
        submit(&mut svc, ins(1, 2, 1.0)).unwrap(),
        ShardId::Routed(s0)
    );
    // ...while an unrelated pair starts a new community on the emptier shard...
    let other = submit(&mut svc, ins(6, 7, 1.0)).unwrap();
    let ShardId::Routed(s1) = other else {
        panic!("fresh pair must not spill")
    };
    assert_ne!(s0, s1, "least-loaded placement separates communities");
    // ...and only genuinely cross-community edges spill, without moving any pin.
    assert_eq!(submit(&mut svc, ins(0, 6, 9.0)).unwrap(), ShardId::Spill);
    assert_eq!(svc.assignment_of(v(0)), Some(s0));
    assert_eq!(svc.assignment_of(v(6)), Some(s1));
    // Pinned endpoints route the same way forever.
    assert_eq!(svc.route(v(0), v(2)), ShardId::Routed(s0));

    let report = svc.flush_direct().unwrap();
    assert_eq!(report.shard_event_loads.len(), 3);
    let total: u64 = report.shard_event_loads.iter().map(|&(_, c)| c).sum();
    assert_eq!(total, 4, "every routed event shows up in the load counters");
    assert!(report.event_load_ratio() >= 1.0);

    let m = svc.metrics();
    assert_eq!(m.vertices_assigned, 5); // 0, 1, 2, 6, 7
    assert_eq!(m.edge_inserts_routed, 4);
    assert_eq!(m.edge_inserts_cut, 1);
    assert!((m.edge_cut_share() - 0.25).abs() < 1e-12);
}

/// Regression: structurally invalid events (out-of-range endpoints, self-loops) under a
/// stateful partitioner must surface as routing-time rejections like they do under pure
/// partitioners — not panic the single writer in `AssignmentTable::assign` — and must
/// not pin anything on the way to rejection.
#[test]
fn greedy_rejects_invalid_events_without_pinning_or_panicking() {
    let mut svc = greedy(4);
    // Out of range: v(99) does not exist on a 4-vertex service.
    let err = svc.buffer_event(ins(0, 99, 1.0)).unwrap_err();
    assert!(matches!(
        err,
        ServiceError::Rejected {
            shard: ShardId::Spill,
            reason: RejectReason::VertexOutOfRange,
            ..
        }
    ));
    // The doomed event pinned neither its valid nor its invalid endpoint.
    assert_eq!(svc.assignment_of(v(0)), None);
    assert_eq!(svc.metrics().vertices_assigned, 0);
    // Self-loop: rejected, nothing pinned.
    let err = svc.buffer_event(ins(2, 2, 1.0)).unwrap_err();
    assert!(matches!(
        err,
        ServiceError::Rejected {
            reason: RejectReason::SelfLoop,
            ..
        }
    ));
    assert_eq!(svc.assignment_of(v(2)), None);
    // The service keeps working after the rejections.
    assert!(svc.buffer_event(ins(0, 1, 1.0)).is_ok());
    assert!(svc.assignment_of(v(0)).is_some());

    // Single-shard services take the same path (no spill shard: rejected by shard 0).
    let mut solo = ServiceBuilder::new()
        .vertices(4)
        .stateful_partitioner(GreedyPartitioner::default())
        .build()
        .unwrap();
    let err = solo.buffer_event(ins(0, 9, 1.0)).unwrap_err();
    assert!(matches!(
        err,
        ServiceError::Rejected {
            shard: ShardId::Routed(0),
            reason: RejectReason::VertexOutOfRange,
            ..
        }
    ));
    assert_eq!(solo.metrics().vertices_assigned, 0);
}

/// Single-shard stateful services still pin vertices at first sight, so assignment
/// introspection behaves identically at every shard count.
#[test]
fn greedy_pins_on_single_shard_services_too() {
    let mut solo = ServiceBuilder::new()
        .vertices(6)
        .stateful_partitioner(GreedyPartitioner::default())
        .build()
        .unwrap();
    assert_eq!(
        submit(&mut solo, ins(0, 1, 1.0)).unwrap(),
        ShardId::Routed(0)
    );
    assert_eq!(solo.assignment_of(v(0)), Some(0));
    assert_eq!(solo.assignment_of(v(1)), Some(0));
    assert_eq!(solo.metrics().vertices_assigned, 2);
    assert_eq!(solo.assignment_table().unwrap().load(0), 2);
}

#[test]
fn greedy_assignment_table_grows_with_add_vertices() {
    let mut svc = greedy(8);
    submit(&mut svc, ins(0, 1, 1.0)).unwrap();
    let s0 = svc.assignment_of(v(0)).unwrap();
    let first = svc.add_vertices(2);
    assert_eq!(first, v(8));
    assert_eq!(svc.assignment_table().unwrap().num_vertices(), 10);
    assert_eq!(svc.assignment_of(v(8)), None);
    // A grown vertex joins the shard its first edge pulls it towards.
    assert_eq!(
        submit(&mut svc, ins(1, 8, 1.0)).unwrap(),
        ShardId::Routed(s0)
    );
    assert_eq!(svc.assignment_of(v(8)), Some(s0));
}

#[test]
fn pure_partitioners_report_no_assignments() {
    let mut svc = blocked(2, 8, FlushPolicy::Manual);
    submit(&mut svc, ins(0, 1, 1.0)).unwrap();
    assert!(svc.assignment_table().is_none());
    assert_eq!(svc.assignment_of(v(0)), None);
    assert_eq!(svc.metrics().vertices_assigned, 0);
}

#[test]
fn shard_event_loads_accumulate_per_shard() {
    let mut svc = blocked(2, 8, FlushPolicy::Manual);
    submit_all(
        &mut svc,
        [
            ins(0, 1, 1.0),
            ins(1, 2, 1.0),
            ins(4, 5, 1.0),
            ins(1, 4, 2.0),
        ],
    )
    .unwrap();
    assert_eq!(
        svc.shard_event_loads(),
        vec![
            (ShardId::Routed(0), 2),
            (ShardId::Routed(1), 1),
            (ShardId::Spill, 1)
        ]
    );
    let report = svc.flush_direct().unwrap();
    assert_eq!(report.shard_event_loads, svc.shard_event_loads());
    assert_eq!(report.event_load_ratio(), 2.0);
    // The default report carries no loads and reports a 0 ratio.
    assert_eq!(ServiceFlushReport::default().event_load_ratio(), 0.0);
}

#[test]
fn threads_knob_defaults_to_pool_and_gates_sequential_mode() {
    let svc = blocked(2, 8, FlushPolicy::Manual);
    assert_eq!(svc.threads(), rayon::current_num_threads());
    let sequential = ServiceBuilder::new()
        .vertices(8)
        .shards(3)
        .threads(1)
        .build()
        .unwrap();
    assert_eq!(sequential.threads(), 1);
}

#[test]
fn concurrent_flush_matches_sequential_flush() {
    let stream = [
        ins(0, 1, 1.0),
        ins(4, 5, 2.0),
        ins(1, 4, 3.0),
        ins(2, 3, 4.0),
        ins(6, 7, 5.0),
        ins(3, 6, 6.0),
    ];
    let mut seq = ServiceBuilder::new()
        .vertices(8)
        .shards(2)
        .partitioner(BlockPartitioner { block_size: 4 })
        .threads(1)
        .build()
        .unwrap();
    let mut par = ServiceBuilder::new()
        .vertices(8)
        .shards(2)
        .partitioner(BlockPartitioner { block_size: 4 })
        .threads(4)
        .build()
        .unwrap();
    submit_all(&mut seq, stream).unwrap();
    submit_all(&mut par, stream).unwrap();
    let seq_report = seq.flush_direct().unwrap();
    let par_report = par.flush_direct().unwrap();
    // Identical per-shard reports in identical shard order (durations excepted: they are
    // wall-clock measurements, not semantics)...
    assert_eq!(seq_report.reports.len(), par_report.reports.len());
    for ((id_s, r_s), (id_p, r_p)) in seq_report.reports.iter().zip(&par_report.reports) {
        assert_eq!(id_s, id_p);
        assert_eq!(r_s.epoch, r_p.epoch);
        assert_eq!(r_s.ops_applied, r_p.ops_applied);
        assert_eq!(r_s.changes, r_p.changes);
        assert_eq!(r_s.promoted, r_p.promoted);
        assert_eq!(r_s.fast_path, r_p.fast_path);
        assert_eq!(r_s.fallback, r_p.fallback);
    }
    assert_eq!(seq.epochs(), par.epochs());
    // ...and identical merged views.
    let (a, b) = (seq.published(), par.published());
    assert_eq!(a.num_graph_edges(), b.num_graph_edges());
    for tau in [1.5, 3.5, 6.0, f64::INFINITY] {
        assert_eq!(
            a.flat_clustering(tau).clusters,
            b.flat_clustering(tau).clusters,
            "clusterings diverged at tau={tau}"
        );
    }
}

/// Blocks of 4 over 8 vertices, 2 routed shards + spill, armed with a fault plan.
fn faulted(spec: &str) -> ClusterService {
    ServiceBuilder::new()
        .vertices(8)
        .shards(2)
        .partitioner(BlockPartitioner { block_size: 4 })
        .faults(FaultPlan::parse(spec).expect("valid fault spec"))
        .build()
        .expect("valid test configuration")
}

fn assert_views_identical(a: &ServiceSnapshot, b: &ServiceSnapshot) {
    assert_eq!(a.num_vertices(), b.num_vertices());
    assert_eq!(a.num_graph_edges(), b.num_graph_edges());
    for tau in [0.5, 1.5, 2.5, 3.5, 5.0, f64::INFINITY] {
        let (ca, cb) = (a.flat_clustering(tau), b.flat_clustering(tau));
        assert_eq!(ca.labels, cb.labels, "labels diverged at tau={tau}");
        assert_eq!(ca.clusters, cb.clusters, "members diverged at tau={tau}");
    }
}

#[test]
fn entry_panic_is_caught_and_retried_transparently() {
    let mut svc = faulted("flush_panic=shard:0,flush:1,entry");
    let stream = [ins(0, 1, 1.0), ins(4, 5, 2.0)];
    submit_all(&mut svc, stream).unwrap();
    let report = svc.flush_direct().unwrap();
    // The entry panic fired before anything was consumed, so one transparent retry
    // completes the flush: no quarantine, and the state matches the no-fault oracle.
    assert!(report.shard_health.iter().all(|(_, h)| !h.is_quarantined()));
    let metrics = svc.metrics();
    assert_eq!(metrics.shard_panics_caught, 1);
    assert_eq!(metrics.shards_quarantined, 0);
    let mut oracle = blocked(2, 8, FlushPolicy::Manual);
    submit_all(&mut oracle, stream).unwrap();
    oracle.flush_direct().unwrap();
    assert_views_identical(&svc.published(), &oracle.published());
}

#[test]
fn torn_panic_quarantines_the_shard_and_keeps_serving_stale() {
    let mut svc = faulted("flush_panic=shard:0,flush:2");
    submit_all(&mut svc, [ins(0, 1, 1.0), ins(4, 5, 2.0)]).unwrap();
    svc.flush_direct().unwrap();
    // Second non-empty flush of shard 0 panics mid-batch (after the deletion half).
    submit_all(&mut svc, [ins(1, 2, 3.0), ins(5, 6, 4.0)]).unwrap();
    let report = svc
        .flush_direct()
        .expect("flush isolates the panic, not errors");
    assert_eq!(report.shard_health[0].0, ShardId::Routed(0));
    assert!(report.shard_health[0].1.is_quarantined());
    let snap = svc.published();
    assert!(snap.is_stale());
    assert_eq!(snap.stale_shards(), vec![ShardId::Routed(0)]);
    // Shard 0 serves its last-published epoch: the pre-panic edge is there, the torn
    // flush's edge is not — while shard 1's concurrent flush landed normally.
    assert!(snap.same_cluster(v(0), v(1), 1.5));
    assert!(!snap.same_cluster(v(1), v(2), 5.0));
    assert!(snap.same_cluster(v(5), v(6), 5.0));
    // Ingest into the quarantined shard keeps being accepted (journaled for recovery).
    submit(&mut svc, ins(2, 3, 1.0)).unwrap();
    // Strict readers refuse the stale view; availability readers serve and count it.
    let read = svc.read_handle();
    assert!(matches!(
        read.snapshot_strict(),
        Err(ServiceError::ShardQuarantined {
            shard: ShardId::Routed(0)
        })
    ));
    let _ = read.snapshot();
    let metrics = svc.metrics();
    assert_eq!(metrics.shard_panics_caught, 1);
    assert_eq!(metrics.shards_quarantined, 1);
    assert_eq!(metrics.stale_reads_served, 1);
}

#[test]
fn recovered_shard_is_bit_identical_to_the_no_fault_oracle() {
    let mut svc = faulted("flush_panic=shard:0,flush:2");
    let phase1 = [ins(0, 1, 1.0), ins(2, 3, 2.0), ins(4, 5, 3.0)];
    let phase2 = [ins(1, 2, 4.0), del(2, 3), ins(5, 6, 1.5)];
    // Submitted *after* the quarantine: journaled unvalidated, validated on replay.
    let phase3 = [ins(0, 3, 2.5), ins(6, 7, 0.5)];
    submit_all(&mut svc, phase1).unwrap();
    svc.flush_direct().unwrap();
    submit_all(&mut svc, phase2).unwrap();
    svc.flush_direct().unwrap();
    assert!(svc.published().is_stale());
    submit_all(&mut svc, phase3).unwrap();
    // Vertex growth while quarantined is journaled too, so the recovered shard agrees
    // with its siblings on the grown vertex set.
    svc.add_vertices(2);
    svc.flush_direct().unwrap();
    let recovery = svc.recover_shard(ShardId::Routed(0)).unwrap();
    assert_eq!(recovery.shard, ShardId::Routed(0));
    assert!(recovery.rejected.is_empty(), "the stream was valid");
    assert!(recovery.events_replayed > 0);
    assert!(!svc.published().is_stale());
    // Recovering a healthy shard is a no-op.
    let noop = svc.recover_shard(ShardId::Routed(0)).unwrap();
    assert_eq!(noop.events_replayed, 0);
    let metrics = svc.metrics();
    assert_eq!(metrics.shard_panics_caught, 1);
    assert_eq!(metrics.shards_quarantined, 1);
    assert_eq!(metrics.shard_recoveries, 1);
    // The oracle never saw a fault; after recovery the views are bit-identical.
    let mut oracle = blocked(2, 8, FlushPolicy::Manual);
    submit_all(&mut oracle, phase1).unwrap();
    oracle.flush_direct().unwrap();
    submit_all(&mut oracle, phase2).unwrap();
    oracle.flush_direct().unwrap();
    submit_all(&mut oracle, phase3).unwrap();
    oracle.add_vertices(2);
    oracle.flush_direct().unwrap();
    assert_views_identical(&svc.published(), &oracle.published());
}

#[test]
fn flush_report_carries_health_and_absorb_keeps_the_latest() {
    let mut svc = blocked(2, 8, FlushPolicy::Manual);
    submit(&mut svc, ins(0, 1, 1.0)).unwrap();
    let report = svc.flush_direct().unwrap();
    assert_eq!(report.shard_health.len(), 3); // 2 routed + spill
    assert!(report.shard_health.iter().all(|(_, h)| !h.is_quarantined()));
    let mut base = ServiceFlushReport::default();
    base.absorb(report.clone());
    assert_eq!(base.shard_health, report.shard_health);
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "dynsld-svc-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// 2 routed shards + spill over 8 vertices, journaling into `dir`.
fn durable_svc(dir: &Path, checkpoint_every: u64) -> ClusterService {
    ServiceBuilder::new()
        .vertices(8)
        .shards(2)
        .partitioner(BlockPartitioner { block_size: 4 })
        .flush_policy(FlushPolicy::Manual)
        .durable(dir)
        .checkpoint_every_records(checkpoint_every)
        .build()
        .expect("valid durable configuration")
}

#[test]
fn bad_fault_specs_surface_as_config_errors() {
    // Each malformed clause is rejected by `FaultPlan::parse` as a typed error naming the
    // offending rule, never a silently-disabled plan.
    for (spec, bad_rule) in [
        ("crash", "crash"),                             // missing `=`
        ("crash=bogus:1", "crash=bogus:1"),             // unknown crash arg
        ("crash=", "crash="),                           // no trigger at all
        ("wal_torn=at:xyz", "wal_torn=at:xyz"),         // non-integer ordinal
        ("seed=abc", "seed=abc"),                       // non-integer seed
        ("frobnicate=1", "frobnicate=1"),               // unknown fault name
        ("flush_panic=shard:0", "flush_panic=shard:0"), // missing trigger
    ] {
        let detail = FaultPlan::parse(spec).expect_err("malformed spec must not parse");
        assert_eq!(detail.rule, bad_rule, "error must name the bad clause");
        assert!(!detail.reason.is_empty());
        // The Display keeps the clause visible.
        let rendered = detail.to_string();
        assert!(rendered.contains(bad_rule), "{rendered}");
    }
    // A well-formed spec still builds.
    let plan = FaultPlan::parse("crash=every:100;seed=7").expect("valid spec parses");
    ServiceBuilder::new()
        .vertices(4)
        .faults(plan)
        .build()
        .expect("valid spec builds");
}

#[test]
fn durable_round_trip_restores_identical_views() {
    let dir = tmpdir("roundtrip");
    let stream = [
        ins(0, 1, 1.0),
        ins(4, 5, 2.0),
        ins(1, 4, 3.0),
        ins(2, 3, 0.5),
        del(4, 5),
        ins(5, 6, 1.5),
    ];
    {
        // First life: journal every event, flush, then crash (drop without any
        // explicit shutdown or checkpoint).
        let service = durable_svc(&dir, u64::MAX);
        let ingest = service.ingest_handle();
        let mut driver = FlusherDriver::new(service);
        for e in stream {
            ingest.submit(e).unwrap();
        }
        driver.pump().unwrap();
        driver.flush().unwrap();
        driver.add_vertices(2);
        assert!(driver.service().durability().is_some());
    }
    // Second life: recovery replays the WAL tail through the normal batch paths.
    let recovered = durable_svc(&dir, u64::MAX);
    let report = recovered.durability().expect("durable service").clone();
    assert!(report.recovered);
    assert_eq!(report.checkpoint_lsn, 0, "no checkpoint was ever written");
    assert_eq!(report.wal_records_replayed, stream.len() as u64 + 1); // + Grow
    assert!(report.replay_rejected.is_empty());
    let mut oracle = blocked(2, 8, FlushPolicy::Manual);
    submit_all(&mut oracle, stream).unwrap();
    oracle.add_vertices(2);
    oracle.flush_direct().unwrap();
    assert_eq!(recovered.published().num_vertices(), 10);
    assert_views_identical(&recovered.published(), &oracle.published());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn checkpoint_bounds_replay_and_reclaims_wal() {
    let dir = tmpdir("checkpoint");
    let phase1 = [ins(0, 1, 1.0), ins(4, 5, 2.0), ins(1, 4, 3.0)];
    let phase2 = [ins(2, 3, 0.5), del(0, 1)];
    {
        let service = durable_svc(&dir, 1);
        let ingest = service.ingest_handle();
        let mut driver = FlusherDriver::new(service);
        for e in phase1 {
            ingest.submit(e).unwrap();
        }
        driver.pump().unwrap();
        driver.flush().unwrap(); // quiescent + over threshold → checkpoint
        assert_eq!(driver.service().metrics().checkpoints_written, 1);
        for e in phase2 {
            ingest.submit(e).unwrap();
        }
        driver.pump().unwrap();
        // Crash with phase2 applied and checkpointed... actually flush() would
        // checkpoint again; crash before any flush so phase2 lives only in the WAL.
    }
    let recovered = durable_svc(&dir, u64::MAX);
    let report = recovered.durability().expect("durable service").clone();
    assert!(report.recovered);
    assert_eq!(report.checkpoint_lsn, phase1.len() as u64);
    assert_eq!(report.wal_records_replayed, phase2.len() as u64);
    let mut oracle = blocked(2, 8, FlushPolicy::Manual);
    submit_all(&mut oracle, phase1).unwrap();
    submit_all(&mut oracle, phase2).unwrap();
    oracle.flush_direct().unwrap();
    assert_views_identical(&recovered.published(), &oracle.published());
    // Recovery republishes past the checkpoint's revision so cached validators
    // (ETags) derived from the first life can never alias the recovered view.
    assert!(recovered.published().revision() > 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn metrics_report_durability_counters() {
    let dir = tmpdir("metrics");
    {
        let service = durable_svc(&dir, 1);
        let ingest = service.ingest_handle();
        let mut driver = FlusherDriver::new(service);
        ingest.submit(ins(0, 1, 1.0)).unwrap();
        ingest.submit(ins(4, 5, 2.0)).unwrap();
        driver.pump().unwrap();
        driver.flush().unwrap();
        let m = driver.service().metrics();
        assert_eq!(m.wal_records_appended, 2);
        assert!(m.wal_bytes_written > 0);
        assert_eq!(m.checkpoints_written, 1);
        assert_eq!(m.torn_tails_truncated, 0);
        assert_eq!(m.recoveries_completed, 0, "a first life never recovers");
    }
    let recovered = durable_svc(&dir, u64::MAX);
    let m = recovered.metrics();
    assert_eq!(m.recoveries_completed, 1);
    // A non-durable service reports all-zero durability counters.
    let plain = blocked(2, 8, FlushPolicy::Manual);
    let m = plain.metrics();
    assert_eq!(m.wal_records_appended, 0);
    assert_eq!(m.checkpoints_written, 0);
    assert_eq!(m.recoveries_completed, 0);
    let _ = std::fs::remove_dir_all(&dir);
}
