//! Service-level correctness: a sharded [`ClusterService`] must be *observationally
//! equivalent* to one [`ClusteringEngine`] fed the same stream — identical component counts,
//! `same_cluster` answers and cluster sizes at every threshold — because the shard edge sets
//! partition the graph and the merged snapshot runs one union-find sweep over every shard's
//! export. The property tests below drive that equivalence through the handle
//! ingest pipeline over generated mixed insert/delete/re-weight workloads, drawn service
//! [`Config`]s, and random thresholds. (Bit-level pipeline equivalence lives in
//! `ingest_pipeline.rs`.)

use dynsld_engine::{
    ClusterService, ClusteringEngine, FlusherDriver, GreedyPartitioner, HashPartitioner,
    ServiceBuilder, ServiceSnapshot, ShardId,
};
use dynsld_forest::workload::{split_graph_stream, GraphWorkloadBuilder};
use dynsld_forest::VertexId;
use dynsld_tests::{configs, drain, feed, Config};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Checks observational equivalence of the service's merged view and the oracle engine's
/// snapshot: `num_components`, `num_clusters`/`same_cluster` over all vertex pairs, and
/// `cluster_size` for every vertex, at each threshold.
fn assert_equivalent(
    merged: &ServiceSnapshot,
    oracle: &ClusteringEngine,
    thresholds: &[f64],
    context: &str,
) {
    let expected = oracle.snapshot();
    assert_eq!(
        merged.num_graph_edges(),
        expected.num_graph_edges(),
        "{context}: edge counts diverged"
    );
    assert_eq!(
        merged.num_components(),
        expected.num_components(),
        "{context}: component counts diverged"
    );
    let n = expected.num_vertices();
    for &tau in thresholds {
        assert_eq!(
            merged.num_clusters(tau),
            expected.num_clusters(tau),
            "{context}: cluster counts diverged at tau={tau}"
        );
        for i in 0..n as u32 {
            assert_eq!(
                merged.cluster_size(VertexId(i), tau),
                expected.cluster_size(VertexId(i), tau),
                "{context}: cluster size of v{i} diverged at tau={tau}"
            );
            for j in (i + 1)..n as u32 {
                assert_eq!(
                    merged.same_cluster(VertexId(i), VertexId(j), tau),
                    expected.same_cluster(VertexId(i), VertexId(j), tau),
                    "{context}: same_cluster(v{i}, v{j}) diverged at tau={tau}"
                );
            }
        }
    }
}

/// Feeds `stream` to a service built from `config` and to a single-engine oracle, comparing
/// the two at random sync points (probability `sync_odds` per event, drawn from `rng`) and at
/// the end.
fn run_against_oracle(
    config: &Config,
    n: usize,
    stream: &[dynsld_engine::GraphUpdate],
    thresholds: &[f64],
    rng: &mut SmallRng,
    sync_odds: f64,
) -> FlusherDriver {
    let mut driver = config
        .builder(n)
        .build()
        .expect("valid configuration")
        .into_driver();
    let mut oracle = ClusteringEngine::new(n);
    for (i, &update) in stream.iter().enumerate() {
        feed(&mut driver, [update]);
        oracle.submit(update).expect("generated stream is valid");
        if rng.gen_bool(sync_odds) {
            let merged = drain(&mut driver);
            oracle.flush().expect("validated stream");
            assert_equivalent(&merged, &oracle, thresholds, &format!("after op {i}"));
        }
    }
    let merged = drain(&mut driver);
    oracle.flush().expect("validated stream");
    assert_equivalent(&merged, &oracle, thresholds, "final state");
    driver
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// The PR-2 acceptance property, now through the pipeline: for every generated workload
    /// and drawn configuration, the service reports identical clustering answers to a
    /// single engine fed the same stream — mid-stream (at random sync points) and at the end,
    /// at random thresholds.
    #[test]
    fn sharded_service_matches_single_engine_oracle(
        config in configs(),
        seed in 0u64..1 << 48,
        n in 6usize..40,
        num_ops in 20usize..320,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5EED);
        let weight_scale = 8.0;
        let stream = GraphWorkloadBuilder::new(n)
            .weight_scale(weight_scale)
            .churn_stream(2 * n, num_ops, seed);
        // Random thresholds covering inside, outside, and past the weight range.
        let mut thresholds: Vec<f64> = (0..4)
            .map(|_| rng.gen::<f64>() * weight_scale * 1.25)
            .collect();
        thresholds.push(f64::INFINITY);
        let driver = run_against_oracle(&config, n, &stream, &thresholds, &mut rng, 0.05);
        // Sanity: nothing was rejected on the way in.
        prop_assert_eq!(driver.service().num_shards(), config.shards);
        let m = driver.service().metrics();
        prop_assert_eq!(m.events_enqueued, stream.len() as u64);
        prop_assert_eq!(m.ops_applied + m.events_saved(), m.events_submitted);
    }

    /// Concurrent shard flushes (a drawn `threads ≥ 2`, fan-out over the work-stealing pool)
    /// keep the service *exactly* equivalent to the single-engine oracle: the engines are
    /// independent and the per-shard reports are joined back in shard order, so concurrency
    /// must never be observable in the merged snapshots — mid-stream or final, at any
    /// threshold, across seeds. Frequent sync points give most flushes several dirty shards.
    #[test]
    fn concurrent_flush_service_matches_single_engine_oracle(
        config in configs(),
        seed in 0u64..1 << 48,
        n in 6usize..40,
        num_ops in 20usize..240,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xC0FFEE);
        let weight_scale = 8.0;
        let stream = GraphWorkloadBuilder::new(n)
            .weight_scale(weight_scale)
            .churn_stream(2 * n, num_ops, seed);
        let mut thresholds: Vec<f64> = (0..3)
            .map(|_| rng.gen::<f64>() * weight_scale * 1.25)
            .collect();
        thresholds.push(f64::INFINITY);
        let driver = run_against_oracle(&config, n, &stream, &thresholds, &mut rng, 0.1);
        prop_assert_eq!(driver.service().threads(), config.threads);
    }

    /// The greedy partitioner under churn *and* vertex growth: the stream is ingested in
    /// random-size chunks with `add_vertices` interleaved mid-stream, and edges into the
    /// grown range arrive afterwards — first-sight assignment, table growth and spill
    /// routing must all stay invisible to the merged answers.
    #[test]
    fn greedy_partitioner_matches_oracle_across_midstream_growth(
        seed in 0u64..1 << 48,
        n in 8usize..32,
        shards in 2usize..6,
        grow in 1usize..6,
        num_ops in 30usize..200,
        balance_slack in 1usize..4,
    ) {
        let service = ServiceBuilder::new()
            .vertices(n)
            .shards(shards)
            .stateful_partitioner(GreedyPartitioner {
                balance_slack: 1.0 + balance_slack as f64 / 4.0,
            })
            .build()
            .expect("valid configuration");
        let ingest = service.ingest_handle();
        let mut driver = service.into_driver();
        let mut oracle = ClusteringEngine::new(n);

        let mut rng = SmallRng::seed_from_u64(seed ^ 0x9EED);
        let stream = GraphWorkloadBuilder::new(n)
            .weight_scale(8.0)
            .churn_stream(2 * n, num_ops, seed);
        let thresholds = [1.5, 4.0, 6.5, f64::INFINITY];

        // First half: plain churn with random sync points.
        let half = stream.len() / 2;
        for &update in &stream[..half] {
            ingest.submit(update).expect("queue open");
            oracle.submit(update).expect("generated stream is valid");
            if rng.gen_bool(0.08) {
                let merged = drain(&mut driver);
                oracle.flush().expect("validated stream");
                assert_equivalent(&merged, &oracle, &thresholds, "first half");
            }
        }
        // Grow mid-stream on both sides; the assignment table must grow in lockstep.
        let first_svc = driver.add_vertices(grow);
        let first_eng = oracle.add_vertices(grow);
        prop_assert_eq!(first_svc, first_eng);
        prop_assert_eq!(
            driver.service().assignment_table().expect("greedy owns a table").num_vertices(),
            n + grow
        );
        // Second half: remaining churn plus edges into the grown id range.
        for (i, &update) in stream[half..].iter().enumerate() {
            ingest.submit(update).expect("queue open");
            oracle.submit(update).expect("generated stream is valid");
            if i < grow {
                let u = VertexId((n + i) as u32);
                let v = VertexId(rng.gen_range(0..n as u32));
                let weight = rng.gen::<f64>() * 8.0;
                let ev = dynsld_engine::GraphUpdate::Insert { u, v, weight };
                ingest.submit(ev).expect("queue open");
                oracle.submit(ev).expect("new vertices accept edges");
            }
        }
        let merged = drain(&mut driver);
        oracle.flush().expect("validated stream");
        assert_equivalent(&merged, &oracle, &thresholds, "final state");
        // The stateful router actually assigned the vertices it routed.
        let m = driver.service().metrics();
        prop_assert!(m.vertices_assigned > 0);
        prop_assert_eq!(m.ops_applied + m.events_saved(), m.events_submitted);
    }

    /// Vertex growth mid-stream: growing the pipeline and the oracle identically keeps them
    /// observationally equivalent, and new vertices accept edges on both sides.
    #[test]
    fn vertex_growth_preserves_equivalence(
        seed in 0u64..1 << 48,
        n in 4usize..20,
        grow in 1usize..8,
        shards in 2usize..5,
    ) {
        let service = ServiceBuilder::new()
            .vertices(n)
            .shards(shards)
            .build()
            .expect("valid configuration");
        let ingest = service.ingest_handle();
        let mut driver = service.into_driver();
        let mut oracle = ClusteringEngine::new(n);
        let stream = GraphWorkloadBuilder::new(n).churn_stream(n, 40, seed);
        for &update in &stream {
            ingest.submit(update).unwrap();
            oracle.submit(update).unwrap();
        }
        drain(&mut driver);
        oracle.flush().unwrap();

        let first_svc = driver.add_vertices(grow);
        let first_eng = oracle.add_vertices(grow);
        prop_assert_eq!(first_svc, first_eng);
        prop_assert_eq!(driver.service().num_vertices(), n + grow);

        // Edges into the grown range work on both surfaces.
        let grown = n + grow;
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xBEEF);
        for k in 0..grow {
            let u = VertexId((n + k) as u32);
            let v = VertexId(rng.gen_range(0..n as u32));
            let weight = rng.gen::<f64>() * 10.0;
            let ev = dynsld_engine::GraphUpdate::Insert { u, v, weight };
            ingest.submit(ev).unwrap();
            oracle.submit(ev).unwrap();
        }
        let merged = drain(&mut driver);
        oracle.flush().unwrap();
        prop_assert_eq!(merged.num_vertices(), grown);
        assert_equivalent(&merged, &oracle, &[2.5, 7.5, f64::INFINITY], "after growth");
    }
}

/// Replays `stream` through a greedy 4-shard pipeline, draining in chunks of `chunk`, and
/// returns the final assignment table (cloned) plus per-shard routed-event loads.
fn greedy_replay(
    stream: &[dynsld_engine::GraphUpdate],
    chunk: usize,
) -> (dynsld_engine::AssignmentTable, Vec<(ShardId, u64)>) {
    let n = 48usize;
    let service = ServiceBuilder::new()
        .vertices(n)
        .shards(4)
        .stateful_partitioner(GreedyPartitioner::default())
        .queue_capacity(stream.len().max(1))
        .build()
        .expect("valid configuration");
    let ingest = service.ingest_handle();
    let mut driver = service.into_driver();
    for part in stream.chunks(chunk) {
        for &event in part {
            ingest.submit(event).expect("queue open");
        }
        driver.pump().expect("validated stream");
    }
    driver.flush().expect("validated stream");
    let svc = driver.service();
    (
        svc.assignment_table().expect("greedy owns a table").clone(),
        svc.shard_event_loads(),
    )
}

/// The first-sight assignments are a pure function of the *routed event order*, not of how
/// the driver happens to chunk its drains: replaying one stream through drains of size 1
/// (pump per event), a ragged middle size, and one whole-stream drain must produce identical
/// assignment tables, identical per-shard loads — and hence identical routing forever after.
#[test]
fn assignment_table_is_deterministic_across_drain_orderings() {
    let stream = GraphWorkloadBuilder::new(48)
        .weight_scale(5.0)
        .churn_stream(70, 500, 0xA551);
    let (table_1, loads_1) = greedy_replay(&stream, 1);
    let (table_7, loads_7) = greedy_replay(&stream, 7);
    let (table_all, loads_all) = greedy_replay(&stream, stream.len());
    assert_eq!(table_1, table_7, "chunk 1 vs 7 diverged");
    assert_eq!(table_1, table_all, "chunk 1 vs whole-stream diverged");
    assert_eq!(loads_1, loads_7);
    assert_eq!(loads_1, loads_all);
    // Every vertex the stream touched is pinned to a routed shard; untouched ones are not.
    let touched: std::collections::HashSet<u32> = stream
        .iter()
        .flat_map(|u| {
            let (a, b) = u.endpoints();
            [a.0, b.0]
        })
        .collect();
    for i in 0..48u32 {
        let pinned = table_1.get(VertexId(i));
        assert_eq!(pinned.is_some(), touched.contains(&i), "vertex {i}");
        if let Some(s) = pinned {
            assert!(s < 4);
        }
    }
    assert_eq!(table_1.assigned() as usize, touched.len());
}

/// Assignments never move once made: replaying the prefix of a stream pins exactly the same
/// shards the full replay ends up with (append-only means the suffix can only add pins).
#[test]
fn assignments_are_pinned_forever() {
    let stream = GraphWorkloadBuilder::new(48)
        .weight_scale(5.0)
        .churn_stream(70, 400, 0xF1F0);
    let (full, _) = greedy_replay(&stream, 13);
    let (prefix, _) = greedy_replay(&stream[..stream.len() / 2], 13);
    for i in 0..48u32 {
        if let Some(s) = prefix.get(VertexId(i)) {
            assert_eq!(
                full.get(VertexId(i)),
                Some(s),
                "vertex {i} moved after being pinned"
            );
        }
    }
}

/// Pre-splitting a stream with the forest helper and replaying each sub-stream into its own
/// single-shard pipeline reproduces the routed service's per-shard edge counts: the helper
/// and the router implement the same partition.
#[test]
fn split_helper_agrees_with_service_routing() {
    let n = 32usize;
    let shards = 4usize;
    let stream = GraphWorkloadBuilder::new(n)
        .weight_scale(6.0)
        .churn_stream(60, 600, 0xCAFE);

    let service = ServiceBuilder::new()
        .vertices(n)
        .shards(shards)
        .partitioner(HashPartitioner)
        .queue_capacity(stream.len())
        .build()
        .expect("valid configuration");
    let ingest = service.ingest_handle();
    let mut driver = service.into_driver();
    ingest.submit_all(stream.iter().copied()).unwrap();
    driver.pump().unwrap();
    driver.flush().unwrap();

    use dynsld_engine::Partitioner;
    let split = split_graph_stream(&stream, shards, |v| HashPartitioner.shard_of(v, shards));
    assert_eq!(split.len(), stream.len());

    let replay = |part: &[dynsld_engine::GraphUpdate]| {
        let solo = ClusterService::single_shard(n);
        let solo_ingest = solo.ingest_handle();
        let mut solo_driver = solo.into_driver();
        for &event in part {
            solo_ingest.submit(event).unwrap();
            // Tiny drains on purpose: the routed comparison must not depend on drain size.
            solo_driver.pump().unwrap();
        }
        solo_driver.flush().unwrap();
        solo_driver.service().published().num_graph_edges()
    };

    for (i, part) in split.parts.iter().enumerate() {
        assert_eq!(
            replay(part),
            driver
                .service()
                .shard(ShardId::Routed(i))
                .snapshot()
                .num_graph_edges(),
            "shard {i} edge count diverged from the pre-split replay"
        );
    }
    assert_eq!(
        replay(&split.cross),
        driver
            .service()
            .shard(ShardId::Spill)
            .snapshot()
            .num_graph_edges(),
        "spill edge count diverged from the pre-split replay"
    );
}

/// Merged service snapshots are `Send + Sync` and frozen: reader threads holding clones (from
/// a `ReadHandle`) keep getting the epoch-vector-consistent answers while the driver keeps
/// flushing.
#[test]
fn merged_snapshots_serve_concurrent_readers_while_writing() {
    let n = 40usize;
    let stream = GraphWorkloadBuilder::new(n)
        .weight_scale(6.0)
        .churn_stream(70, 600, 21);
    let service = ServiceBuilder::new()
        .vertices(n)
        .shards(3)
        .build()
        .expect("valid configuration");
    let ingest = service.ingest_handle();
    let reader = service.read_handle();
    let mut driver = service.into_driver();

    let mut handles = Vec::new();
    for chunk in stream.chunks(30) {
        for &u in chunk {
            ingest.submit(u).unwrap();
        }
        driver.pump().unwrap();
        driver.flush().unwrap();
        let snap = reader.snapshot();
        handles.push(std::thread::spawn(move || {
            let epochs = snap.epochs();
            for tau in [0.5, 2.0, 3.5, 5.0, f64::INFINITY] {
                let fc = snap.flat_clustering(tau);
                let total: usize = fc.clusters.iter().map(Vec::len).sum();
                assert_eq!(
                    total,
                    snap.num_vertices(),
                    "partition must cover all vertices"
                );
            }
            assert_eq!(
                snap.num_clusters(f64::INFINITY),
                snap.num_components(),
                "at tau=inf clusters are exactly the components"
            );
            assert_eq!(snap.epochs(), epochs, "snapshot epoch vector drifted");
            epochs
        }));
    }
    let epochs: Vec<Vec<u64>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    // Epoch vectors are non-decreasing shard-wise across flush rounds.
    for w in epochs.windows(2) {
        assert!(w[0].iter().zip(&w[1]).all(|(a, b)| a <= b));
    }
}
