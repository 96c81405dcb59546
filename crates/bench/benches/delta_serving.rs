//! Delta serving: the republish cost after a *small* batch, and the wire bytes a subscriber
//! pays for it — the two acceptance numbers of the incremental-export work.
//!
//! Workload: a planted-community graph (`community_stream`, n = 4096, 64 hidden
//! communities) built to steady state, then churned with small batches of
//! `add_vertices(1)` + 8 re-weights of alive edges — the "a few things changed, republish"
//! regime the serving tier exists for.
//!
//! Two measurements, both persisted as `quality` records into the `--save-json` document
//! (`baseline/README.md`, "Reconciling the anomalies", relates them to the runner's
//! `core.export_*` and `serve.*_bytes*` metrics):
//!
//! * `delta_serving/republish` — `republish_ns` (incremental rank-sorted export via the
//!   dirty-set splice) vs `full_export_ns` (the full `O(m log m)` rebuild, which doubles as
//!   the bit-identity oracle), and their ratio `speedup`. Acceptance: speedup ≥ 5×.
//! * `delta_serving/payload` — `delta_bytes` (one small publish step encoded as a wire
//!   patch) vs `full_snapshot_bytes` (the same state as a full wire snapshot), and
//!   `delta_bytes_ratio`. Acceptance: ratio ≤ 0.10.
//! * `delta_serving/publish_vs_m` — one single-event publish (submit → pump → flush, which
//!   splices the export and builds the `SnapshotDelta`) plus an explicit
//!   `SnapshotDelta::between` over the last two views, at m ∈ {1 k, 8 k, 64 k} live edges of
//!   a sub-critical graph (n = 2.5 m). Exports share every chunk a publish leaves alone, so
//!   both lines should stay flat in m; `chunks_shared_share` in the quality record says how
//!   much of the export each publish carried over.
//! * `delta_serving/faults` — the six robustness counters after a scripted
//!   quarantine/recover round and a torn-write wire exchange, with the subscriber's
//!   client-side [`WireStats`](dynsld_serve::WireStats) folded in through
//!   `Metrics::merge`. Pins that the fault path actually fired, not just that it exists.

use criterion::{
    black_box, criterion_group, criterion_main, record_quality, BenchmarkId, Criterion,
};
use dynsld_engine::{
    FaultPlan, FlushPolicy, GreedyPartitioner, Metrics, ServiceBuilder, SnapshotDelta, SyncResponse,
};
use dynsld_forest::workload::{GraphUpdate, GraphWorkloadBuilder};
use dynsld_forest::VertexId;
use dynsld_msf::DynamicGraphClustering;
use dynsld_serve::codec::{encode_patch, encode_snapshot};
use dynsld_serve::{DeltaServer, ServerOptions, WireConfig, WireSubscriber};
use dynsld_telemetry::Telemetry;
use std::time::{Duration, Instant};

const N: usize = 4_096;
const COMMUNITIES: usize = 64;
const NUM_OPS: usize = 32_768;
const REWEIGHTS_PER_BATCH: usize = 8;
const QUALITY_ITERS: u32 = 200;

fn community_updates() -> Vec<GraphUpdate> {
    GraphWorkloadBuilder::new(N)
        .weight_scale(8.0)
        .community_stream(COMMUNITIES, 0.10, 2 * N, NUM_OPS, 7)
        .updates
}

/// The edge pairs still alive after `updates` (insertion order, deletions removed).
fn alive_pairs(updates: &[GraphUpdate]) -> Vec<(VertexId, VertexId)> {
    let key = |u: VertexId, v: VertexId| if u.0 <= v.0 { (u, v) } else { (v, u) };
    let mut alive: Vec<(VertexId, VertexId)> = Vec::new();
    for &update in updates {
        match update {
            GraphUpdate::Insert { u, v, .. } => alive.push(key(u, v)),
            GraphUpdate::Delete { u, v } => {
                let k = key(u, v);
                let at = alive.iter().position(|&p| p == k).expect("valid stream");
                alive.swap_remove(at);
            }
            GraphUpdate::Reweight { .. } => {}
        }
    }
    alive
}

/// A clustering at steady state under the community workload.
fn seeded(updates: &[GraphUpdate]) -> DynamicGraphClustering {
    let mut clustering = DynamicGraphClustering::new(N);
    for &update in updates {
        match update {
            GraphUpdate::Insert { u, v, weight } => {
                clustering.insert_edge(u, v, weight).expect("valid stream");
            }
            GraphUpdate::Delete { u, v } => {
                clustering.delete_edge(u, v).expect("valid stream");
            }
            GraphUpdate::Reweight { u, v, weight } => {
                clustering
                    .update_weight(u, v, weight)
                    .expect("valid stream");
            }
        }
    }
    clustering
}

/// One small republish batch: a vertex joins, 8 existing edges re-weight. Deterministic
/// (seeded by `step`) and deletion-free, so `alive` stays valid across iterations.
fn small_batch(
    clustering: &mut DynamicGraphClustering,
    alive: &[(VertexId, VertexId)],
    step: usize,
) {
    clustering.add_vertices(1);
    for k in 0..REWEIGHTS_PER_BATCH {
        let (u, v) = alive[(step * 31 + k * 97) % alive.len()];
        let weight = 0.5 + ((step + k) % 13) as f64 * 0.61;
        clustering.update_weight(u, v, weight).expect("alive edge");
    }
}

fn bench_delta_serving(c: &mut Criterion) {
    let updates = community_updates();
    let alive = alive_pairs(&updates);
    assert!(alive.len() >= REWEIGHTS_PER_BATCH);

    // ---- Republish cost: incremental splice vs full rebuild, identical states. ----------
    // The quality loop times ONLY the exports (the batch application is outside both
    // timers) and cross-checks the splice against the full rebuild — the oracle — on the
    // same state every iteration.
    let mut clustering = seeded(&updates);
    let _ = clustering.export_snapshot_incremental(); // warm the export cache
    let (mut incremental_ns, mut full_ns) = (Duration::ZERO, Duration::ZERO);
    for step in 0..QUALITY_ITERS as usize {
        small_batch(&mut clustering, &alive, step);
        let started = Instant::now();
        let spliced = clustering.export_snapshot_incremental();
        incremental_ns += started.elapsed();
        let started = Instant::now();
        let rebuilt = clustering.sld().export_snapshot();
        full_ns += started.elapsed();
        assert_eq!(spliced, rebuilt, "splice diverged from the rebuild oracle");
        black_box(spliced.version);
    }
    let stats = clustering.sld().export_stats();
    assert_eq!(
        stats.incremental_splices,
        u64::from(QUALITY_ITERS),
        "every small batch must take the splice path"
    );
    let republish_ns = incremental_ns.as_nanos() as f64 / f64::from(QUALITY_ITERS);
    let full_export_ns = full_ns.as_nanos() as f64 / f64::from(QUALITY_ITERS);
    record_quality(
        "delta_serving/republish",
        &[
            ("republish_ns", republish_ns),
            ("full_export_ns", full_export_ns),
            ("speedup", full_export_ns / republish_ns),
            ("tree_edges", clustering.num_tree_edges() as f64),
            ("reweights_per_batch", REWEIGHTS_PER_BATCH as f64),
        ],
    );

    // Criterion entries for the same two paths (batch + export per iteration, so the shim's
    // numbers are self-contained; the quality scalars above are the clean export-only cost).
    let mut group = c.benchmark_group("delta_serving/republish");
    group.bench_with_input(BenchmarkId::new("incremental", N), &updates, |b, ups| {
        let mut clustering = seeded(ups);
        let _ = clustering.export_snapshot_incremental();
        let mut step = 0;
        b.iter(|| {
            small_batch(&mut clustering, &alive, step);
            step += 1;
            black_box(clustering.export_snapshot_incremental().version)
        })
    });
    group.bench_with_input(BenchmarkId::new("full_rebuild", N), &updates, |b, ups| {
        let mut clustering = seeded(ups);
        let mut step = 0;
        b.iter(|| {
            small_batch(&mut clustering, &alive, step);
            step += 1;
            black_box(clustering.sld().export_snapshot().version)
        })
    });
    group.finish();

    // ---- Wire payload: one small publish step as a patch vs the full snapshot. ----------
    let service = ServiceBuilder::new()
        .vertices(N)
        .shards(2)
        .stateful_partitioner(GreedyPartitioner::default())
        .flush_policy(FlushPolicy::Manual)
        .delta_ring(16)
        .build()
        .expect("valid configuration");
    let ingest = service.ingest_handle();
    let read = service.read_handle();
    let mut driver = service.into_driver();
    for chunk in updates.chunks(512) {
        for &update in chunk {
            ingest.submit(update).expect("valid stream");
        }
        driver.pump().expect("validated stream");
        driver.flush().expect("validated stream");
    }
    let r0 = read.revision();
    driver.add_vertices(1);
    for k in 0..REWEIGHTS_PER_BATCH {
        let (u, v) = alive[(k * 97) % alive.len()];
        let weight = 0.5 + (k % 13) as f64 * 0.61;
        ingest
            .submit(GraphUpdate::Reweight { u, v, weight })
            .expect("alive edge");
    }
    driver.pump().expect("validated stream");
    driver.flush().expect("validated stream");
    let SyncResponse::Delta(patch) = read.sync_from(Some(r0)) else {
        panic!("r0 is two publishes back with a 16-deep ring: a chain must exist");
    };
    let delta_bytes = encode_patch(&patch).len() as f64;
    let full_snapshot_bytes = encode_snapshot(&read.snapshot()).len() as f64;
    record_quality(
        "delta_serving/payload",
        &[
            ("delta_bytes", delta_bytes),
            ("full_snapshot_bytes", full_snapshot_bytes),
            ("delta_bytes_ratio", delta_bytes / full_snapshot_bytes),
            ("publish_steps_in_patch", patch.deltas.len() as f64),
        ],
    );

    // ---- Fault counters: a scripted quarantine/recover round plus a torn wire fetch. ----
    // A small service armed so shard 0's second flush panics at the torn checkpoint:
    // the shard quarantines, reads go stale-flagged, recovery replays the journal. The
    // wire leg then serves the recovered view through a server whose first connection is
    // torn 40 bytes in, forcing exactly one subscriber retry.
    let faulted = ServiceBuilder::new()
        .vertices(64)
        .shards(2)
        .flush_policy(FlushPolicy::Manual)
        .delta_ring(64)
        .faults(FaultPlan::parse("flush_panic=shard:0,flush:2;seed=7").expect("valid spec"))
        .build()
        .expect("valid configuration");
    let ingest = faulted.ingest_handle();
    let read = faulted.read_handle();
    let mut driver = faulted.into_driver();
    let churn = GraphWorkloadBuilder::new(64)
        .weight_scale(8.0)
        .churn_stream(128, 96, 11);
    for chunk in churn.chunks(16) {
        for &update in chunk {
            ingest.submit(update).expect("valid stream");
        }
        driver.pump().expect("validated stream");
        driver.flush().expect("flush isolates panics");
    }
    for shard in read.snapshot().stale_shards() {
        driver
            .recover_shard(shard)
            .expect("journal replay succeeds");
    }

    let server = DeltaServer::bind_with(
        "127.0.0.1:0",
        read.clone(),
        Telemetry::disabled(),
        ServerOptions {
            faults: FaultPlan::parse("torn_write=conn:1,after:40").expect("valid spec"),
            ..ServerOptions::default()
        },
    )
    .expect("bind on an ephemeral port");
    let mut subscriber = WireSubscriber::connect_with(
        server.local_addr(),
        WireConfig {
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(5),
            ..WireConfig::default()
        },
    )
    .expect("resolvable address");
    subscriber.sync().expect("retry absorbs the torn write");
    let stats = subscriber.stats();
    server.shutdown();

    // Client-side wire stats ride the same `Metrics::merge` path the shards use.
    let wire = Metrics {
        wire_retries: stats.retries,
        wire_timeouts: stats.timeouts,
        ..Metrics::default()
    };
    let merged = Metrics::merge(&[driver.service().metrics(), wire]);
    assert_eq!(
        merged.shards_quarantined, 1,
        "shard 0 must have quarantined"
    );
    assert_eq!(merged.shard_recoveries, 1, "and been recovered");
    assert!(
        merged.wire_retries >= 1,
        "the torn write must force a retry"
    );
    record_quality(
        "delta_serving/faults",
        &[
            ("shard_panics_caught", merged.shard_panics_caught as f64),
            ("shards_quarantined", merged.shards_quarantined as f64),
            ("shard_recoveries", merged.shard_recoveries as f64),
            ("wire_retries", merged.wire_retries as f64),
            ("wire_timeouts", merged.wire_timeouts as f64),
            ("stale_reads_served", merged.stale_reads_served as f64),
        ],
    );
}

/// A one-shard service holding the first `m` edges of a sub-critical sliding-window stream,
/// and those edges: deleting one and inserting it back is a valid single-event publish
/// forever, so the timed loop never runs out of stream.
fn trickle_service(
    m: usize,
) -> (
    dynsld_engine::IngestHandle,
    dynsld_engine::ReadHandle,
    dynsld_engine::FlusherDriver,
    Vec<GraphUpdate>,
) {
    let edges = GraphWorkloadBuilder::new(m * 5 / 2).sliding_window_stream(m, m, 11);
    assert_eq!(edges.len(), m);
    let service = ServiceBuilder::new()
        .vertices(m * 5 / 2)
        .shards(1)
        .flush_policy(FlushPolicy::Manual)
        .delta_ring(16)
        .build()
        .expect("valid configuration");
    let ingest = service.ingest_handle();
    let read = service.read_handle();
    let mut driver = service.into_driver();
    // Below the queue's capacity: the submitting thread is also the one that drains it.
    for chunk in edges.chunks(512) {
        ingest
            .submit_all(chunk.iter().copied())
            .expect("valid stream");
        driver.pump().expect("validated stream");
        driver.flush().expect("validated stream");
    }
    (ingest, read, driver, edges)
}

/// The `step`-th event of the endless toggle stream over `edges`: delete edge `k`, then
/// insert it back, for `k = 0, 1, …` cyclically.
fn toggle(edges: &[GraphUpdate], step: usize) -> GraphUpdate {
    let insert = edges[(step / 2) % edges.len()];
    match insert {
        GraphUpdate::Insert { u, v, .. } if step.is_multiple_of(2) => GraphUpdate::Delete { u, v },
        _ => insert,
    }
}

fn bench_publish_vs_m(c: &mut Criterion) {
    let mut group = c.benchmark_group("delta_serving/publish_vs_m");
    for m in [1_000usize, 8_000, 64_000] {
        let (ingest, read, mut driver, edges) = trickle_service(m);
        let mut step = 0;
        let mut publish = |step: &mut usize| {
            ingest.submit(toggle(&edges, *step)).expect("valid event");
            *step += 1;
            driver.pump().expect("validated stream");
            driver.flush().expect("validated stream");
        };
        group.bench_function(BenchmarkId::new("flush", m), |b| {
            b.iter(|| {
                publish(&mut step);
                black_box(read.revision())
            })
        });
        group.bench_function(BenchmarkId::new("delta_between", m), |b| {
            let before = read.snapshot();
            publish(&mut step);
            let after = read.snapshot();
            b.iter(|| black_box(SnapshotDelta::between(&before, &after, &[]).num_changes()))
        });
        // How much of the export a publish carries over, from the pointers themselves.
        let before = read.snapshot();
        publish(&mut step);
        let after = read.snapshot();
        let old = before.shard_snapshots()[0].dendrogram().nodes.chunks();
        let new = after.shard_snapshots()[0].dendrogram().nodes.chunks();
        let shared = new
            .iter()
            .filter(|chunk| old.iter().any(|o| std::sync::Arc::ptr_eq(o, chunk)))
            .count();
        record_quality(
            format!("delta_serving/publish_vs_m/{m}"),
            &[
                (
                    "tree_edges",
                    after.shard_snapshots()[0].num_tree_edges() as f64,
                ),
                ("chunks", new.len() as f64),
                ("chunks_shared_share", shared as f64 / new.len() as f64),
                (
                    "delta_changes",
                    SnapshotDelta::between(&before, &after, &[]).num_changes() as f64,
                ),
            ],
        );
    }
    group.finish();
}

criterion_group!(benches, bench_delta_serving, bench_publish_vs_m);
criterion_main!(benches);
