//! Engine ingest throughput: coalesced batch application vs naive per-edge application.
//!
//! Workload: the sliding-window stream of `examples/streaming_clustering.rs`, lifted to graph
//! updates (`GraphWorkloadBuilder::sliding_window_stream`) — a fixed-size window of similarity
//! edges over a vertex set, each tick evicting the oldest edge and admitting a new one. This is
//! the regime the engine targets: between two flushes many events touch overlapping edges, so
//! coalescing plus the Theorem-1.5 batch fast paths should beat applying every event
//! individually. The `flush_every` parameter sweeps the ingest window from per-event flushing
//! (no coalescing possible) to large batches.

use criterion::{
    criterion_group, criterion_main, record_telemetry_json, BenchmarkId, Criterion, Throughput,
};
use dynsld_bench::config;
use dynsld_engine::{
    Backpressure, BlockPartitioner, ClusterService, ClusteringEngine, FlushPolicy, ServiceBuilder,
};
use dynsld_forest::workload::{GraphUpdate, GraphWorkloadBuilder};
use dynsld_forest::VertexId;
use dynsld_msf::DynamicGraphClustering;
use dynsld_telemetry::{export, Telemetry};

const N: usize = 2_000;
const NUM_EDGES: usize = 4_000;
const WINDOW: usize = 1_000;
/// Shard count of the sharded-service comparison (and the block count of its workload).
const SHARDS: usize = 4;

fn stream() -> Vec<GraphUpdate> {
    GraphWorkloadBuilder::new(N)
        .weight_scale(100.0)
        .sliding_window_stream(NUM_EDGES, WINDOW, 42)
}

/// Shifts every vertex id of `update` up by `offset` (used to relocate a block-local stream
/// into its block's id range).
fn shift(update: GraphUpdate, offset: u32) -> GraphUpdate {
    let bump = |v: VertexId| VertexId(v.0 + offset);
    match update {
        GraphUpdate::Insert { u, v, weight } => GraphUpdate::Insert {
            u: bump(u),
            v: bump(v),
            weight,
        },
        GraphUpdate::Delete { u, v } => GraphUpdate::Delete {
            u: bump(u),
            v: bump(v),
        },
        GraphUpdate::Reweight { u, v, weight } => GraphUpdate::Reweight {
            u: bump(u),
            v: bump(v),
            weight,
        },
    }
}

/// A shard-friendly workload: one independent sliding-window stream per block of
/// `N / SHARDS` vertices, interleaved round-robin. Under a [`BlockPartitioner`] every event
/// is shard-local (zero spill), so the sharded run measures the concurrent-flush machinery
/// itself rather than the spill bottleneck — the regime endpoint partitioning targets (the
/// `partitioner_sweep` bench measures how close `GreedyPartitioner` gets on streams whose
/// structure is *not* laid out in id blocks).
fn block_local_stream() -> Vec<GraphUpdate> {
    let block = N / SHARDS;
    let mut iters: Vec<_> = (0..SHARDS)
        .map(|s| {
            GraphWorkloadBuilder::new(block)
                .weight_scale(100.0)
                .sliding_window_stream(NUM_EDGES / SHARDS, WINDOW / SHARDS, 42 + s as u64)
                .into_iter()
                .map(move |u| shift(u, (s * block) as u32))
                .collect::<Vec<_>>()
                .into_iter()
        })
        .collect();
    let mut stream = Vec::with_capacity(2 * NUM_EDGES);
    loop {
        let mut exhausted = true;
        for it in &mut iters {
            if let Some(update) = it.next() {
                stream.push(update);
                exhausted = false;
            }
        }
        if exhausted {
            return stream;
        }
    }
}

/// Baseline: every event applied immediately through the per-edge MSF path.
fn apply_naive(stream: &[GraphUpdate]) -> DynamicGraphClustering {
    let mut g = DynamicGraphClustering::new(N);
    for &u in stream {
        match u {
            GraphUpdate::Insert { u, v, weight } => {
                g.insert_edge(u, v, weight).expect("valid stream");
            }
            GraphUpdate::Delete { u, v } => {
                g.delete_edge(u, v).expect("valid stream");
            }
            GraphUpdate::Reweight { u, v, weight } => {
                g.update_weight(u, v, weight).expect("valid stream");
            }
        }
    }
    g
}

/// Engine path: buffer `flush_every` events, then flush as coalesced homogeneous batches.
fn apply_engine(stream: &[GraphUpdate], flush_every: usize) -> ClusteringEngine {
    let mut engine = ClusteringEngine::new(N);
    for chunk in stream.chunks(flush_every) {
        for &u in chunk {
            engine.submit(u).expect("valid stream");
        }
        engine.flush().expect("validated at submit time");
    }
    engine
}

fn bench_engine_vs_naive(c: &mut Criterion) {
    let stream = stream();
    let mut group = c.benchmark_group("engine_throughput/sliding_window");
    group.throughput(Throughput::Elements(stream.len() as u64));

    group.bench_with_input(
        BenchmarkId::new("naive_per_edge", stream.len()),
        &stream,
        |b, s| b.iter(|| apply_naive(s).num_graph_edges()),
    );
    for flush_every in [1usize, 64, 512, 4_096] {
        group.bench_with_input(
            BenchmarkId::new(format!("engine_flush_every_{flush_every}"), stream.len()),
            &stream,
            |b, s| b.iter(|| apply_engine(s, flush_every).epoch()),
        );
    }
    group.finish();
}

/// Coalescing effectiveness in isolation: a redundant churn stream (edges re-weighted and
/// churned repeatedly) where the buffered path applies a fraction of the submitted events.
fn bench_redundant_stream(c: &mut Criterion) {
    let base = GraphWorkloadBuilder::new(N)
        .weight_scale(100.0)
        .churn_stream(WINDOW, 6_000, 7);
    let mut group = c.benchmark_group("engine_throughput/churn_with_reweights");
    group.throughput(Throughput::Elements(base.len() as u64));
    group.bench_with_input(
        BenchmarkId::new("naive_per_edge", base.len()),
        &base,
        |b, s| b.iter(|| apply_naive(s).num_graph_edges()),
    );
    group.bench_with_input(
        BenchmarkId::new("engine_single_flush", base.len()),
        &base,
        |b, s| b.iter(|| apply_engine(s, s.len()).epoch()),
    );
    group.finish();
}

/// Service path: the stream routed across `shards` block-partitioned engines (plus the spill
/// shard when sharded), driven through the handle pipeline and ticked every `flush_every`
/// events. Flushes run concurrently on the fork-join pool whenever it has more than one
/// thread.
fn apply_service(stream: &[GraphUpdate], shards: usize, flush_every: usize) -> ClusterService {
    let service = ServiceBuilder::new()
        .vertices(N)
        .shards(shards)
        .partitioner(BlockPartitioner {
            block_size: N / SHARDS,
        })
        .queue_capacity(flush_every)
        .build()
        .expect("valid bench configuration");
    let ingest = service.ingest_handle();
    let mut driver = service.into_driver();
    for chunk in stream.chunks(flush_every) {
        for &u in chunk {
            ingest.submit(u).expect("valid stream");
        }
        driver.pump().expect("validated at routing time");
        driver.flush().expect("validated at routing time");
    }
    driver.into_service()
}

/// Pipeline path for the `ingest_queue` group: a producer thread submits the whole stream
/// through a `Block`-mode handle while the driver is parked on `run_until_closed`, so the
/// measured cost is the full queue handoff — enqueue, backpressure, drain, route,
/// threshold flush — at the given queue depth.
fn apply_pipeline(stream: &[GraphUpdate], shards: usize, queue_depth: usize) -> usize {
    let service = ServiceBuilder::new()
        .vertices(N)
        .shards(shards)
        .partitioner(BlockPartitioner {
            block_size: N / SHARDS,
        })
        .flush_policy(FlushPolicy::EveryNOps(512))
        .queue_capacity(queue_depth)
        .backpressure(Backpressure::Block)
        .build()
        .expect("valid bench configuration");
    let ingest = service.ingest_handle();
    let mut driver = service.into_driver();
    std::thread::scope(|s| {
        let producer = ingest.clone();
        s.spawn(move || {
            for &u in stream {
                producer.submit(u).expect("pipeline open");
            }
            producer.close();
        });
        driver
            .run_until_closed()
            .expect("validated at routing time");
    });
    driver.service().published().num_graph_edges()
}

/// Sharding speedup: 1 vs 4 shards over identical workloads, with the shard flushes running
/// concurrently on the work-stealing pool (sequential when `DYNSLD_THREADS=1` or on a
/// single-core host). Two workload shapes:
///
/// * `shards_*` — the block-local stream: every event is shard-local under the
///   [`BlockPartitioner`], so the 4-shard run flushes 4 independent engines in parallel and
///   is where the speedup shows on a multi-core host.
/// * `spill_heavy_shards_*` — the random-endpoint stream: ~3/4 of the events land on the
///   spill shard, whose flush dominates the critical path; the measurable gap to `shards_4`
///   motivated the locality-aware `GreedyPartitioner` (measured by `partitioner_sweep`).
fn bench_sharded_service(c: &mut Criterion) {
    let local = block_local_stream();
    let spill_heavy = stream();
    let mut group = c.benchmark_group("engine_throughput/sharded_service");
    group.throughput(Throughput::Elements(local.len() as u64));
    for shards in [1usize, SHARDS] {
        group.bench_with_input(
            BenchmarkId::new(format!("shards_{shards}"), local.len()),
            &local,
            |b, s| {
                b.iter(|| {
                    let service = apply_service(s, shards, 512);
                    service.published().num_graph_edges()
                })
            },
        );
    }
    group.throughput(Throughput::Elements(spill_heavy.len() as u64));
    for shards in [1usize, SHARDS] {
        group.bench_with_input(
            BenchmarkId::new(format!("spill_heavy_shards_{shards}"), spill_heavy.len()),
            &spill_heavy,
            |b, s| {
                b.iter(|| {
                    let service = apply_service(s, shards, 512);
                    service.published().num_graph_edges()
                })
            },
        );
    }
    group.finish();
}

/// The queued ingest pipeline: producer thread + parked driver, queue depth 1 vs 1024, 1 vs
/// 4 shards, on the block-local (zero-spill) stream. Depth 1 forces a queue handoff on every
/// event — the fully contended submit path — while depth 1024 amortises the lock into
/// batch-sized drains; the gap is the price of backpressure, and the shard axis shows the
/// concurrent flushes still composing with the queue in front.
fn bench_ingest_queue(c: &mut Criterion) {
    let local = block_local_stream();
    let mut group = c.benchmark_group("engine_throughput/ingest_queue");
    group.throughput(Throughput::Elements(local.len() as u64));
    for shards in [1usize, SHARDS] {
        for depth in [1usize, 1024] {
            group.bench_with_input(
                BenchmarkId::new(format!("depth_{depth}_shards_{shards}"), local.len()),
                &local,
                |b, s| b.iter(|| apply_pipeline(s, shards, depth)),
            );
        }
    }
    group.finish();
}

/// Telemetry pass: one *instrumented* run of the sharded pipeline per `flush_every` setting,
/// outside the timing loops, capturing the stage-attributed view — per-shard flush phases
/// (coalesce / classify / apply / export / publish), submit-side queue latency quantiles,
/// drain sizes — into the `--save-json` document's `"telemetry"` array. It says *where* the
/// milliseconds of the timing entries above go (the `baseline` runner's traced run reports
/// the same breakdown per workload, see `baseline/README.md`), at the cost of running with recording on (so its absolute numbers sit slightly above
/// the untraced entries).
fn capture_pipeline_telemetry(_c: &mut Criterion) {
    let local = block_local_stream();
    for flush_every in [1usize, 512] {
        let telemetry = Telemetry::enabled();
        let service = ServiceBuilder::new()
            .vertices(N)
            .shards(SHARDS)
            .partitioner(BlockPartitioner {
                block_size: N / SHARDS,
            })
            .queue_capacity(flush_every)
            .telemetry(telemetry.clone())
            .build()
            .expect("valid bench configuration");
        let ingest = service.ingest_handle();
        let mut driver = service.into_driver();
        for chunk in local.chunks(flush_every) {
            for &u in chunk {
                ingest.submit(u).expect("valid stream");
            }
            driver.pump().expect("validated at routing time");
            driver.flush().expect("validated at routing time");
        }
        record_telemetry_json(
            format!("engine_throughput/telemetry/shards_{SHARDS}_flush_every_{flush_every}"),
            export::to_json(&telemetry.snapshot()),
        );
    }
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_engine_vs_naive, bench_redundant_stream, bench_sharded_service, bench_ingest_queue, capture_pipeline_telemetry
}
criterion_main!(benches);
