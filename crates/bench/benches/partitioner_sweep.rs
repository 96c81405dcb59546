//! Partitioner sweep: spill share and load balance of hash / block / greedy routing on a
//! community-structured stream — the before/after measurement of the locality-aware
//! partitioner work.
//!
//! Workload: a planted-partition churn stream (`GraphWorkloadBuilder::community_stream`)
//! whose communities are *id-scattered* (a seeded permutation, not blocks), so id-based
//! partitioners cannot see them: `HashPartitioner` and `BlockPartitioner` cut ~`1 − 1/k` of
//! the edges at `k` shards, while the assign-on-first-sight `GreedyPartitioner` rediscovers
//! the communities from edge co-occurrence and collapses the spill share towards the planted
//! cross-community rate.
//!
//! Each `(partitioner, shards)` cell is measured twice:
//!
//! * a criterion timing entry (`partitioner_sweep/<p>_shards_<k>`) — end-to-end ingest
//!   throughput through the handle pipeline, where a smaller spill shard means less
//!   serialized work on the critical path;
//! * a `quality/<p>_shards_<k>` record — `spill_routing_share`, `edge_cut_share`, and the
//!   per-shard `event_load_ratio` (max/min routed events across the routed shards), captured
//!   into the `--save-json` document via the shim's `record_quality`. The acceptance
//!   numbers: greedy ≤ 0.25 spill share at 4 shards (vs ~0.75 for hash) with a load ratio
//!   ≤ 2; `engine.spill_routing_share` in `baseline/results/` tracks the greedy share on
//!   the `durable_wire` workload.

use criterion::{
    criterion_group, criterion_main, record_quality, record_telemetry_json, BenchmarkId, Criterion,
    Throughput,
};
use dynsld_bench::config;
use dynsld_engine::{
    BlockPartitioner, ClusterService, GreedyPartitioner, HashPartitioner, Metrics, ServiceBuilder,
    ServiceFlushReport,
};
use dynsld_forest::workload::{CommunityStream, GraphUpdate};
use dynsld_forest::GraphWorkloadBuilder;
use dynsld_telemetry::{export, Telemetry};

const N: usize = 2_000;
const COMMUNITIES: usize = 16;
const CROSS_FRACTION: f64 = 0.05;
const TARGET_EDGES: usize = 3_000;
const NUM_OPS: usize = 12_000;
const FLUSH_EVERY: usize = 512;

/// The partitioner configurations under comparison.
#[derive(Copy, Clone, Debug)]
enum Sweep {
    Hash,
    Block,
    Greedy,
}

impl Sweep {
    const ALL: [Sweep; 3] = [Sweep::Hash, Sweep::Block, Sweep::Greedy];

    fn name(self) -> &'static str {
        match self {
            Sweep::Hash => "hash",
            Sweep::Block => "block",
            Sweep::Greedy => "greedy",
        }
    }

    fn configure(self, builder: ServiceBuilder, shards: usize) -> ServiceBuilder {
        match self {
            Sweep::Hash => builder.partitioner(HashPartitioner),
            Sweep::Block => builder.partitioner(BlockPartitioner::covering(N, shards)),
            Sweep::Greedy => builder.stateful_partitioner(GreedyPartitioner::default()),
        }
    }
}

fn stream() -> CommunityStream {
    GraphWorkloadBuilder::new(N)
        .weight_scale(50.0)
        .community_stream(COMMUNITIES, CROSS_FRACTION, TARGET_EDGES, NUM_OPS, 42)
}

/// Drives the whole stream through the handle pipeline (pump + flush every `FLUSH_EVERY`
/// events) and returns the finished service plus the final flush report (whose
/// `shard_event_loads` snapshot covers the whole run, loads being lifetime counters).
fn apply(
    updates: &[GraphUpdate],
    sweep: Sweep,
    shards: usize,
) -> (ClusterService, ServiceFlushReport) {
    apply_with_telemetry(updates, sweep, shards, Telemetry::disabled())
}

/// [`apply`] with an explicit telemetry registry on the pipeline — the telemetry pass runs
/// one instrumented routing run per partitioner through this.
fn apply_with_telemetry(
    updates: &[GraphUpdate],
    sweep: Sweep,
    shards: usize,
    telemetry: Telemetry,
) -> (ClusterService, ServiceFlushReport) {
    let service = sweep
        .configure(ServiceBuilder::new().vertices(N).shards(shards), shards)
        .queue_capacity(FLUSH_EVERY)
        .telemetry(telemetry)
        .build()
        .expect("valid sweep configuration");
    let ingest = service.ingest_handle();
    let mut driver = service.into_driver();
    let mut last = ServiceFlushReport::default();
    for chunk in updates.chunks(FLUSH_EVERY) {
        for &u in chunk {
            ingest.submit(u).expect("valid stream");
        }
        driver.pump().expect("validated at routing time");
        last = driver.flush().expect("validated at routing time");
    }
    (driver.into_service(), last)
}

fn bench_partitioner_sweep(c: &mut Criterion) {
    let cs = stream();
    record_quality(
        "partitioner_sweep/workload",
        &[
            ("planted_cut_fraction", cs.planted_cut_fraction()),
            ("communities", COMMUNITIES as f64),
            ("ops", cs.len() as f64),
        ],
    );

    // Quality pass first: one routing run per cell, outside the timing loops.
    for shards in [2usize, 4, 8] {
        for sweep in Sweep::ALL {
            let (service, report) = apply(&cs.updates, sweep, shards);
            let m: Metrics = service.metrics();
            record_quality(
                format!("partitioner_sweep/{}_shards_{}", sweep.name(), shards),
                &[
                    ("spill_routing_share", m.spill_routing_share()),
                    ("edge_cut_share", m.edge_cut_share()),
                    ("event_load_ratio", report.event_load_ratio()),
                ],
            );
        }
    }

    // Telemetry pass: one instrumented run per partitioner at the headline shard count,
    // capturing the stage-attributed breakdown (flush phases, submit latency quantiles,
    // routing time) into the saved document — greedy's routing is where its spill savings
    // are bought, and this is the series that prices it.
    for sweep in Sweep::ALL {
        let telemetry = Telemetry::enabled();
        apply_with_telemetry(&cs.updates, sweep, 4, telemetry.clone());
        record_telemetry_json(
            format!("partitioner_sweep/telemetry/{}_shards_4", sweep.name()),
            export::to_json(&telemetry.snapshot()),
        );
    }

    // Timing pass: end-to-end pipeline throughput per partitioner at the headline shard
    // count (4, the acceptance configuration) plus the unsharded baseline.
    let mut group = c.benchmark_group("partitioner_sweep/community_ingest");
    group.throughput(Throughput::Elements(cs.len() as u64));
    group.bench_with_input(
        BenchmarkId::new("single_shard", cs.len()),
        &cs.updates,
        |b, s| b.iter(|| apply(s, Sweep::Hash, 1).0.published().num_graph_edges()),
    );
    for sweep in Sweep::ALL {
        group.bench_with_input(
            BenchmarkId::new(format!("{}_shards_4", sweep.name()), cs.len()),
            &cs.updates,
            |b, s| b.iter(|| apply(s, sweep, 4).0.published().num_graph_edges()),
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_partitioner_sweep
}
criterion_main!(benches);
