//! Engine-level correctness: the served clusterings must equal static recomputation after
//! every flush, and snapshots must be consistent — a reader never observes a half-applied
//! batch, mid-batch queries reflect exactly the pre-batch epoch, and old snapshots keep
//! answering for their epoch after later flushes.
//!
//! The stream-facing tests here drive `ClusterService::single_shard` through the handle API
//! (`IngestHandle` + `FlusherDriver`) — the pipeline every caller is expected to use — while
//! the mid-batch/epoch tests exercise `ClusteringEngine` directly, since they pin the
//! per-shard guarantees the service's merged views are built on. Sharded-vs-oracle
//! equivalence lives in `service_oracle.rs`; pipeline-vs-sequential bit-identity in
//! `ingest_pipeline.rs`.

use dynsld::static_sld_kruskal;
use dynsld_engine::{ClusterService, ClusteringEngine, FlusherDriver, GraphUpdate, ShardId};
use dynsld_forest::workload::{validate_graph_stream, GraphWorkloadBuilder};
use dynsld_forest::{Dsu, VertexId, Weight};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Canonical partition of `0..n` induced by merging all edges of weight `<= tau`: sorted
/// member lists, sorted by first member.
fn oracle_partition(
    n: usize,
    alive: &[(VertexId, VertexId, Weight)],
    tau: Weight,
) -> Vec<Vec<VertexId>> {
    let mut dsu = Dsu::new(n);
    for &(a, b, w) in alive {
        if w <= tau {
            dsu.union(a, b);
        }
    }
    let mut by_root: std::collections::BTreeMap<u32, Vec<VertexId>> = Default::default();
    for i in 0..n as u32 {
        by_root
            .entry(dsu.find(VertexId(i)).0)
            .or_default()
            .push(VertexId(i));
    }
    let mut out: Vec<Vec<VertexId>> = by_root.into_values().collect();
    for c in &mut out {
        c.sort();
    }
    out.sort();
    out
}

/// Canonicalises a flat clustering into the oracle's sorted-partition form.
fn partition_of(fc: &dynsld::FlatClustering) -> Vec<Vec<VertexId>> {
    let mut out: Vec<Vec<VertexId>> = fc
        .clusters
        .iter()
        .map(|c| {
            let mut c = c.clone();
            c.sort();
            c
        })
        .collect();
    out.sort();
    out
}

fn snapshot_partition(snap: &dynsld_engine::EngineSnapshot, tau: Weight) -> Vec<Vec<VertexId>> {
    partition_of(&snap.flat_clustering(tau))
}

/// The oracle check the issue asks for: after every flush, the served flat clustering at
/// several thresholds equals the independent union-find oracle over the alive graph edges, and
/// the maintained dendrogram equals `static_sld_kruskal` on the current MSF. Driven through
/// the handle pipeline over `ClusterService::single_shard`, the migration path from the PR-1
/// engine surface.
#[test]
fn randomized_stream_matches_static_oracle_after_every_flush() {
    let n = 48usize;
    let thresholds = [0.5, 1.5, 2.5, 4.0, 6.5, 10.0, f64::INFINITY];
    let builder = GraphWorkloadBuilder::new(n).weight_scale(8.0);
    let stream = builder.churn_stream(90, 900, 0xD1CE);
    assert_eq!(validate_graph_stream(n, &stream), Ok(900));

    let service = ClusterService::single_shard(n);
    let ingest = service.ingest_handle();
    let mut driver = FlusherDriver::new(service);
    let mut alive: Vec<(VertexId, VertexId, Weight)> = Vec::new();
    let mut rng = SmallRng::seed_from_u64(99);
    let mut flushes = 0usize;
    for (i, &update) in stream.iter().enumerate() {
        // Track the reference edge set.
        match update {
            GraphUpdate::Insert { u, v, weight } => alive.push((u, v, weight)),
            GraphUpdate::Delete { u, v } => {
                let key = if u <= v { (u, v) } else { (v, u) };
                let pos = alive
                    .iter()
                    .position(|&(a, b, _)| (a.min(b), a.max(b)) == key)
                    .expect("stream deletes present edges");
                alive.swap_remove(pos);
            }
            GraphUpdate::Reweight { u, v, weight } => {
                let key = if u <= v { (u, v) } else { (v, u) };
                let entry = alive
                    .iter_mut()
                    .find(|&&mut (a, b, _)| (a.min(b), a.max(b)) == key)
                    .expect("stream re-weights present edges");
                entry.2 = weight;
            }
        }
        ingest.submit(update).expect("queue open");

        // Flush at random batch boundaries (and at the end).
        if rng.gen_bool(0.08) || i + 1 == stream.len() {
            let drain = driver.pump().expect("validated stream cannot hard-fail");
            assert!(drain.rejected.is_empty(), "generated stream is valid");
            driver
                .flush()
                .expect("flush cannot fail on validated input");
            flushes += 1;
            let snap = driver.service().published();
            assert_eq!(snap.num_graph_edges(), alive.len());
            for &tau in &thresholds {
                assert_eq!(
                    partition_of(&snap.flat_clustering(tau)),
                    oracle_partition(n, &alive, tau),
                    "partition diverged at flush {flushes}, tau={tau}"
                );
            }
            // The dendrogram served by the (single) shard equals static recomputation.
            let sld = driver.service().shard(ShardId::Routed(0)).graph().sld();
            assert_eq!(
                sld.dendrogram().canonical_parents(),
                static_sld_kruskal(sld.forest()).canonical_parents(),
                "dendrogram diverged from static recomputation at flush {flushes}"
            );
            sld.check_invariants().expect("invariants");
        }
    }
    assert!(
        flushes > 10,
        "the test should exercise many flushes, got {flushes}"
    );
    let m = driver.service().metrics();
    assert_eq!(m.ops_applied + m.events_saved(), m.events_submitted);
    assert_eq!(m.events_enqueued, stream.len() as u64);
    assert!(m.fast_path_ops > 0, "batches should ride the fast path");
}

/// Snapshot consistency: queries taken mid-batch reflect exactly the pre-batch epoch, and a
/// snapshot keeps answering for its epoch after arbitrarily many later flushes.
#[test]
fn snapshots_reflect_exactly_the_pre_batch_epoch() {
    let n = 30usize;
    let builder = GraphWorkloadBuilder::new(n).weight_scale(5.0);
    let stream = builder.churn_stream(50, 400, 7);
    let mut engine = ClusteringEngine::new(n);
    let thresholds = [1.0, 2.5, 4.0];

    let mut held: Vec<(dynsld_engine::EngineSnapshot, Vec<Vec<Vec<VertexId>>>)> = Vec::new();
    for chunk in stream.chunks(40) {
        // Pre-batch reference: what the published snapshot answers right now.
        let pre = engine.snapshot();
        let pre_answers: Vec<Vec<Vec<VertexId>>> = thresholds
            .iter()
            .map(|&tau| snapshot_partition(&pre, tau))
            .collect();
        let pre_epoch = pre.epoch();

        // Mid-batch: submit without flushing; the snapshot must not move.
        for &u in chunk {
            engine.submit(u).unwrap();
        }
        assert_eq!(
            engine.snapshot().epoch(),
            pre_epoch,
            "epoch moved mid-batch"
        );
        for (i, &tau) in thresholds.iter().enumerate() {
            assert_eq!(
                snapshot_partition(&engine.snapshot(), tau),
                pre_answers[i],
                "mid-batch query diverged from the pre-batch epoch"
            );
        }

        engine.flush().unwrap();
        assert_eq!(engine.snapshot().epoch(), pre_epoch + 1);
        // The pre-batch snapshot is frozen forever; remember it and re-check later.
        held.push((pre, pre_answers));
    }
    // Every historical snapshot still answers exactly as it did when current.
    for (snap, answers) in &held {
        for (i, &tau) in thresholds.iter().enumerate() {
            assert_eq!(&snapshot_partition(snap, tau), &answers[i]);
        }
    }
    // Epochs are dense and ordered.
    let epochs: Vec<u64> = held.iter().map(|(s, _)| s.epoch()).collect();
    assert_eq!(epochs, (0..held.len() as u64).collect::<Vec<_>>());
}

/// Point queries walk chunks that later exports keep sharing and advancing copies of: a
/// snapshot held across 300 single-event publishes (the splice path, a few chunk copies each)
/// still gives the answers recorded when it was current — which were checked against its own
/// sweep then — without ever having built a clustering.
#[test]
fn held_snapshot_keeps_its_point_answers_across_later_publishes() {
    let (n, window) = (3000usize, 1500);
    let stream = GraphWorkloadBuilder::new(n)
        .weight_scale(6.0)
        .sliding_window_stream(window + 150, window, 23);
    let mut engine = ClusteringEngine::new(n);
    engine.submit_all(stream[..window].iter().copied()).unwrap();
    engine.flush().unwrap();
    let held = engine.snapshot();
    let thresholds = [0.5, 2.0, 4.5, f64::INFINITY];
    // Neighbours in the forest (joined above their edge's weight) and arbitrary pairs; few
    // enough that both rounds of questions stay under the walk budget.
    let records = &held.dendrogram().nodes;
    let mut pairs: Vec<(VertexId, VertexId)> =
        records.iter().step_by(75).map(|r| (r.u, r.v)).collect();
    pairs.extend((0..20u32).map(|i| (VertexId(i * 71), VertexId((i * 937 + 11) % n as u32))));
    let ask = |snap: &dynsld_engine::EngineSnapshot| {
        let counts: Vec<usize> = thresholds.iter().map(|&t| snap.num_clusters(t)).collect();
        let same: Vec<bool> = thresholds
            .iter()
            .flat_map(|&tau| pairs.iter().map(move |&(u, v)| (u, v, tau)))
            .map(|(u, v, tau)| snap.same_cluster(u, v, tau))
            .collect();
        let heights: Vec<Option<u64>> = pairs
            .iter()
            .map(|&(u, v)| snap.merge_height_between(u, v).map(f64::to_bits))
            .collect();
        (counts, same, heights)
    };
    let recorded = ask(&held);
    for &event in &stream[window..] {
        engine.submit(event).unwrap();
        engine.flush().unwrap();
    }
    assert_eq!(engine.snapshot().epoch(), held.epoch() + 300);
    assert_eq!(ask(&held), recorded);
    assert_eq!(
        engine.metrics().snapshot_cache_misses,
        0,
        "a walk built a clustering"
    );
    // And the recorded answers are the sweep's.
    for (i, &tau) in thresholds.iter().enumerate() {
        let sweep = held.dendrogram().flat_clustering(tau);
        assert_eq!(recorded.0[i], sweep.num_clusters());
        for (j, &(u, v)) in pairs.iter().enumerate() {
            assert_eq!(recorded.1[i * pairs.len() + j], sweep.same_cluster(u, v));
        }
    }
}

/// Concurrent readers on snapshot clones while the writer keeps flushing: every reader must
/// see an internally consistent frozen state (partition covers all vertices; cluster count at
/// +inf equals the component count; epoch never changes under its feet).
#[test]
fn concurrent_readers_never_observe_partial_batches() {
    let n = 40usize;
    let builder = GraphWorkloadBuilder::new(n).weight_scale(6.0);
    let stream = builder.churn_stream(70, 600, 21);
    let mut engine = ClusteringEngine::new(n);

    let mut handles = Vec::new();
    for chunk in stream.chunks(30) {
        for &u in chunk {
            engine.submit(u).unwrap();
        }
        engine.flush().unwrap();
        let snap = engine.snapshot();
        // Hand the snapshot to a reader thread that interrogates it while the main thread
        // keeps mutating the engine.
        handles.push(std::thread::spawn(move || {
            let epoch = snap.epoch();
            for tau in [0.5, 2.0, 3.5, 5.0, f64::INFINITY] {
                let fc = snap.flat_clustering(tau);
                let total: usize = fc.clusters.iter().map(Vec::len).sum();
                assert_eq!(
                    total,
                    snap.num_vertices(),
                    "partition must cover all vertices"
                );
                assert!(fc.num_clusters() >= snap.num_components());
            }
            assert_eq!(
                snap.num_clusters(f64::INFINITY),
                snap.num_components(),
                "at tau=inf clusters are exactly the components"
            );
            assert_eq!(snap.epoch(), epoch, "snapshot epoch drifted");
            epoch
        }));
    }
    let mut epochs: Vec<u64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    epochs.dedup();
    assert_eq!(epochs.len(), 20, "one distinct epoch per flush");
}

/// Coalescing correctness at the engine level: a stream with heavy redundancy produces the
/// same final state as its net effect, while applying far fewer operations.
#[test]
fn coalesced_and_naive_application_converge() {
    let n = 26usize;
    let builder = GraphWorkloadBuilder::new(n).weight_scale(9.0);
    let stream = builder.churn_stream(40, 500, 3);

    // Naive: a pipeline drained and flushed after every event (no coalescing effect).
    let naive_service = ClusterService::single_shard(n);
    let naive_ingest = naive_service.ingest_handle();
    let mut naive = naive_service.into_driver();
    for &u in &stream {
        naive_ingest.submit(u).unwrap();
        naive.pump().unwrap();
        naive.flush().unwrap();
    }
    // Coalesced: the whole stream queued, drained, and flushed once.
    let coalesced_service = ClusterService::single_shard(n);
    let coalesced_ingest = coalesced_service.ingest_handle();
    let mut coalesced = coalesced_service.into_driver();
    for &u in &stream {
        coalesced_ingest.submit(u).unwrap();
    }
    coalesced.pump().unwrap();
    coalesced.flush().unwrap();

    assert!(
        coalesced.service().metrics().ops_applied < naive.service().metrics().ops_applied,
        "coalescing must reduce applied operations ({} vs {})",
        coalesced.service().metrics().ops_applied,
        naive.service().metrics().ops_applied,
    );
    for tau in [1.0, 3.0, 5.0, 8.0, f64::INFINITY] {
        assert_eq!(
            partition_of(&naive.service().published().flat_clustering(tau)),
            partition_of(&coalesced.service().published().flat_clustering(tau)),
            "final clusterings diverged at tau={tau}"
        );
    }
    let canon = |d: &FlusherDriver| {
        let mut edges = d.service().shard(ShardId::Routed(0)).graph().graph_edges();
        edges.sort_by_key(|a| (a.0.min(a.1), a.0.max(a.1)));
        edges
    };
    assert_eq!(canon(&naive), canon(&coalesced));
}
