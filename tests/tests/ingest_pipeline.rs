//! The handle-based concurrent ingest pipeline vs the pre-redesign sequential path.
//!
//! The acceptance property of the API redesign: a stream driven through clonable
//! [`IngestHandle`]s and a [`FlusherDriver`] — at any queue capacity, any thread count, any
//! shard count, under any [`FlushPolicy`], with submits and drains interleaved arbitrarily —
//! produces **bit-identical** `flat_clustering` results (labels and member lists, not just
//! observational answers) to a single [`ClusteringEngine`] fed the same stream sequentially.
//! On top of that, the backpressure contract: `Backpressure::Fail` returns an error rather
//! than blocking when the queue is full, `Block` parks the producer until the driver drains,
//! and `Coalesce` absorbs redundant queued events in place.

use dynsld_engine::{
    Backpressure, BlockPartitioner, ClusteringEngine, FlushPolicy, GraphUpdate, IngestError,
    ServiceBuilder,
};
use dynsld_forest::workload::GraphWorkloadBuilder;
use dynsld_forest::VertexId;
use dynsld_tests::{assert_bit_identical, configs, drain, feed};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

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

/// The acceptance criterion, single-threaded interleavings: any mix of handle submits and
/// driver drains, over random shard counts, flush policies, queue capacities, and flush
/// thread counts, lands bit-identically on the sequential single-engine oracle at every sync
/// point.
#[test]
fn interleaved_submits_and_drains_match_sequential_oracle() {
    let mut rng = SmallRng::seed_from_u64(0x1D1E5);
    for (case, &(seed, n, shards, threads, cap, policy_pick)) in [
        (3u64, 24usize, 1usize, 1usize, 1usize, 0usize),
        (5, 30, 3, 2, 4, 1),
        (7, 36, 4, 4, 1024, 2),
        (11, 18, 2, 1, 2, 1),
        (13, 40, 5, 3, 7, 0),
        (17, 28, 4, 2, 1, 2),
    ]
    .iter()
    .enumerate()
    {
        let policy = match policy_pick {
            0 => FlushPolicy::Manual,
            1 => FlushPolicy::EveryNOps(1 + (seed as usize) % 13),
            _ => FlushPolicy::OnRead,
        };
        let service = ServiceBuilder::new()
            .vertices(n)
            .shards(shards)
            .threads(threads)
            .flush_policy(policy)
            .queue_capacity(cap)
            .build()
            .expect("valid configuration");
        let mut driver = service.into_driver();
        let mut oracle = ClusteringEngine::new(n);

        let stream = GraphWorkloadBuilder::new(n)
            .weight_scale(8.0)
            .churn_stream(2 * n, 250, seed);
        let thresholds = [1.0, 3.5, 6.0, f64::INFINITY];
        for (i, &update) in stream.iter().enumerate() {
            feed(&mut driver, [update]);
            oracle.submit(update).expect("generated stream is valid");
            if rng.gen_bool(0.06) {
                // A sync point: everything queued is drained and flushed on both sides.
                let view = drain(&mut driver);
                oracle.flush().expect("validated stream");
                assert_bit_identical(
                    &view,
                    &oracle.snapshot(),
                    &thresholds,
                    &format!("case {case}, after op {i}"),
                );
            }
        }
        let view = drain(&mut driver);
        oracle.flush().expect("validated stream");
        assert_bit_identical(
            &view,
            &oracle.snapshot(),
            &thresholds,
            &format!("case {case}, final state"),
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// The satellite property: any interleaving of handle submits and driver drains, under
    /// any drawn configuration (the flush policy decides which flush points the driver
    /// controls), yields a flat clustering identical to the single-shard sequential oracle.
    #[test]
    fn queued_policies_match_sequential_oracle(
        config in configs(),
        seed in 0u64..1 << 48,
        n in 6usize..36,
    ) {
        let mut driver = config.builder(n).build().expect("valid configuration").into_driver();
        let mut oracle = ClusteringEngine::new(n);

        let mut rng = SmallRng::seed_from_u64(seed ^ 0x9E37);
        let stream = GraphWorkloadBuilder::new(n)
            .weight_scale(8.0)
            .churn_stream(2 * n, 160, seed);
        for &update in &stream {
            feed(&mut driver, [update]);
            oracle.submit(update).expect("generated stream is valid");
            if rng.gen_bool(0.1) {
                driver.pump().expect("validated stream");
            }
        }
        let view = drain(&mut driver);
        oracle.flush().expect("validated stream");
        assert_bit_identical(
            &view,
            &oracle.snapshot(),
            &[0.5, 2.0, 4.5, 7.0, f64::INFINITY],
            "final state",
        );
    }
}

/// The acceptance pin for producers and the driver on *different threads*: clonable handles
/// under `Backpressure::Block`, a parked `run_until_closed` driver, any queue capacity and
/// thread count — the published clustering is bit-identical to the sequential oracle.
#[test]
fn threaded_producers_match_sequential_oracle() {
    for &(threads, cap, shards, producers) in &[
        (1usize, 1usize, 1usize, 1usize),
        (4, 3, 4, 3),
        (2, 1024, 2, 2),
    ] {
        let n = 48;
        let stream = GraphWorkloadBuilder::new(n).weight_scale(8.0).churn_stream(
            3 * n,
            600,
            0xF00D ^ threads as u64,
        );
        let service = ServiceBuilder::new()
            .vertices(n)
            .shards(shards)
            .threads(threads)
            .flush_policy(FlushPolicy::EveryNOps(32))
            .queue_capacity(cap)
            .backpressure(Backpressure::Block)
            .build()
            .expect("valid configuration");
        let ingest = service.ingest_handle();
        let mut driver = service.into_driver();

        // The producer thread rotates its submits across several handle clones — the stream
        // must stay in order (clustering is order-sensitive in general, and this test pins
        // equality, not commutativity), so the clones take turns rather than race.
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..producers).map(|_| ingest.clone()).collect();
            let events = &stream;
            s.spawn(move || {
                for (i, &event) in events.iter().enumerate() {
                    handles[i % handles.len()]
                        .submit(event)
                        .expect("queue open");
                }
                ingest.close();
            });
            let report = driver.run_until_closed().expect("validated stream");
            assert_eq!(report.events_drained, stream.len());
            assert!(report.rejected.is_empty());
        });

        let mut oracle = ClusteringEngine::new(n);
        oracle.submit_all(stream.iter().copied()).unwrap();
        oracle.flush().unwrap();
        assert_bit_identical(
            &driver.service().published(),
            &oracle.snapshot(),
            &[1.0, 2.5, 5.0, 7.5, f64::INFINITY],
            &format!("threads={threads}, cap={cap}, shards={shards}"),
        );
    }
}

/// The backpressure acceptance criterion: with `Backpressure::Fail`, a submit into a full
/// queue returns `IngestError::QueueFull` (carrying the event back) instead of blocking.
#[test]
fn fail_backpressure_errors_instead_of_blocking_when_full() {
    let service = ServiceBuilder::new()
        .vertices(8)
        .queue_capacity(1) // the arithmetic below needs 1
        .backpressure(Backpressure::Fail)
        .build()
        .unwrap();
    let ingest = service.ingest_handle();
    let mut driver = service.into_driver();

    ingest.submit(ins(0, 1, 1.0)).unwrap();
    // Queue full: the submit returns *immediately* with the event, rather than waiting for
    // the driver.
    assert_eq!(
        ingest.submit(ins(1, 2, 2.0)),
        Err(IngestError::QueueFull {
            event: ins(1, 2, 2.0)
        })
    );
    assert_eq!(driver.service().metrics().queue_full_rejections, 1);
    // Draining makes room; the bounced event can be resubmitted by the caller.
    driver.pump().unwrap();
    ingest.submit(ins(1, 2, 2.0)).unwrap();
    driver.pump().unwrap();
    driver.flush().unwrap();
    assert!(driver
        .service()
        .published()
        .same_cluster(v(0), v(2), f64::INFINITY));
}

/// `Backpressure::Block` parks the producer until the driver drains — no event is lost, no
/// error surfaces, and the producer observes the queue's bound.
#[test]
fn block_backpressure_waits_for_the_driver() {
    let n = 32;
    let stream = GraphWorkloadBuilder::new(n)
        .weight_scale(5.0)
        .churn_stream(2 * n, 400, 0xB10C);
    let service = ServiceBuilder::new()
        .vertices(n)
        .queue_capacity(2) // tiny: producers outrun the driver immediately
        .backpressure(Backpressure::Block)
        .build()
        .unwrap();
    let ingest = service.ingest_handle();
    let mut driver = service.into_driver();

    std::thread::scope(|s| {
        let producer = ingest.clone();
        let events = &stream;
        s.spawn(move || {
            for &event in events {
                producer
                    .submit(event)
                    .expect("block mode never errs while open");
            }
            producer.close();
        });
        let report = driver.run_until_closed().expect("validated stream");
        assert_eq!(report.events_drained, stream.len());
    });
    let m = driver.service().metrics();
    assert_eq!(m.events_enqueued, stream.len() as u64);
    assert_eq!(m.queue_full_rejections, 0);
}

/// `Backpressure::Coalesce` compacts redundant queued events instead of blocking: a burst of
/// re-weights of one edge fits through a capacity-1 queue with no consumer running.
#[test]
fn coalesce_backpressure_absorbs_redundancy_in_place() {
    let service = ServiceBuilder::new()
        .vertices(4)
        .queue_capacity(1) // the single-threaded flow relies on it
        .backpressure(Backpressure::Coalesce)
        .build()
        .unwrap();
    let ingest = service.ingest_handle();
    let mut driver = service.into_driver();

    // One queued insert, then a re-weight burst: every event after the first merges into the
    // queued operation — no driver, no blocking.
    ingest.submit(ins(0, 1, 1.0)).unwrap();
    for w in [2.0, 3.0, 4.0, 5.0] {
        ingest.submit(rew(0, 1, w)).unwrap();
    }
    assert_eq!(ingest.queue_len(), 1);
    let m = driver.service().metrics();
    assert_eq!(m.events_compacted_in_queue, 4);
    driver.pump().unwrap();
    driver.flush().unwrap();
    let snap = driver.service().published();
    assert!(snap.same_cluster(v(0), v(1), 5.0));
    assert!(
        !snap.same_cluster(v(0), v(1), 4.5),
        "only the last weight applies"
    );

    // An insert⊕delete pair annihilates in-queue: the edge never reaches a shard.
    ingest.submit(ins(2, 3, 1.0)).unwrap();
    ingest.submit(del(2, 3)).unwrap();
    assert_eq!(ingest.queue_len(), 0);
    driver.pump().unwrap();
    driver.flush().unwrap();
    assert!(!driver
        .service()
        .published()
        .same_cluster(v(2), v(3), f64::INFINITY));
}

/// Under the queued path, `FlushPolicy::OnRead` means "every drain publishes": a single pump
/// makes everything submitted visible to read handles, with no explicit flush call.
#[test]
fn on_read_policy_publishes_on_every_drain() {
    let service = ServiceBuilder::new()
        .vertices(8)
        .shards(2)
        .flush_policy(FlushPolicy::OnRead)
        .queue_capacity(64)
        .build()
        .unwrap();
    let ingest = service.ingest_handle();
    let reader = service.read_handle();
    let mut driver = service.into_driver();

    ingest.submit(ins(0, 1, 1.0)).unwrap();
    ingest.submit(ins(1, 2, 2.0)).unwrap();
    // Nothing drained yet: the reader does not see the events. After one pump, it must.
    assert_eq!(reader.snapshot().num_graph_edges(), 0);
    let report = driver.pump().unwrap();
    assert!(report.flushes.ops_applied() > 0);
    let snap = reader.snapshot();
    assert_eq!(snap.num_graph_edges(), 2);
    assert!(snap.same_cluster(v(0), v(2), 2.0));
    assert_eq!(
        driver.service().pending_ops(),
        0,
        "OnRead leaves nothing buffered"
    );
}

/// Under the queued path, `FlushPolicy::EveryNOps` still flushes shard-locally at the
/// threshold — now inside the driver's drain, reported through the `DrainReport`.
#[test]
fn every_n_ops_policy_flushes_inside_the_drain() {
    let service = ServiceBuilder::new()
        .vertices(8)
        .shards(2)
        .partitioner(BlockPartitioner { block_size: 4 })
        .flush_policy(FlushPolicy::EveryNOps(2))
        .queue_capacity(64)
        .build()
        .unwrap();
    let ingest = service.ingest_handle();
    let mut driver = service.into_driver();

    // Two events for shard 0 (threshold), one for shard 1 (stays buffered). The threshold
    // flush fires inside the drain that routes the second shard-0 event.
    ingest
        .submit_all([ins(0, 1, 1.0), ins(1, 2, 1.0), ins(4, 5, 1.0)])
        .unwrap();
    driver.pump().unwrap();
    assert_eq!(
        driver.service().epochs(),
        vec![1, 0, 0],
        "exactly the threshold-crossing shard flushed"
    );
    assert_eq!(driver.service().pending_ops(), 1);
    // The buffered remainder is published by the close-time flush.
    ingest.close();
    let final_report = driver.run_until_closed().unwrap();
    assert!(final_report.flushes.ops_applied() >= 1);
    assert_eq!(driver.service().pending_ops(), 0);
    assert!(driver.service().published().same_cluster(v(4), v(5), 1.0));
}

/// Routing-time rejections surface in the `DrainReport`, not at the submit call — the queue
/// decouples producers from shard state — and the rest of the drain proceeds.
#[test]
fn invalid_events_surface_in_the_drain_report() {
    let service = ServiceBuilder::new()
        .vertices(4)
        .queue_capacity(16)
        .build()
        .unwrap();
    let ingest = service.ingest_handle();
    let mut driver = service.into_driver();

    // The delete targets an absent edge; the submit itself succeeds (validation is the
    // driver's job now), the surrounding valid events still apply.
    ingest
        .submit_all([ins(0, 1, 1.0), del(2, 3), ins(1, 2, 2.0)])
        .unwrap();
    ingest.close();
    assert_eq!(driver.run_until_closed().unwrap().rejected.len(), 1);
    let snap = driver.service().published();
    assert_eq!(snap.num_graph_edges(), 2);
    assert!(snap.same_cluster(v(0), v(2), 2.0));
}

/// The observability acceptance criterion: running the identical pipeline with telemetry
/// recording enabled changes *nothing* about the output — published clusterings (labels and
/// member lists), epoch vectors, and edge counts are bit-identical to the untraced run, with
/// submits and drains interleaved the same way on both sides. Meanwhile the enabled side
/// actually records: stage histograms populated, span trace well-formed.
#[test]
fn telemetry_enabled_pipeline_is_bit_identical_to_disabled() {
    use dynsld_telemetry::Telemetry;
    let n = 40;
    let stream = GraphWorkloadBuilder::new(n)
        .weight_scale(8.0)
        .churn_stream(2 * n, 320, 0x7E1E);
    let telemetry = Telemetry::enabled();
    let build = |telemetry: Telemetry| {
        ServiceBuilder::new()
            .vertices(n)
            .shards(3)
            .flush_policy(FlushPolicy::EveryNOps(7))
            .queue_capacity(5)
            .telemetry(telemetry)
            .build()
            .expect("valid configuration")
    };
    let traced = build(telemetry.clone());
    let untraced = build(Telemetry::disabled());
    let mut traced_driver = traced.into_driver();
    let mut untraced_driver = untraced.into_driver();

    let mut rng = SmallRng::seed_from_u64(0x0B5);
    for &update in &stream {
        feed(&mut traced_driver, [update]);
        feed(&mut untraced_driver, [update]);
        if rng.gen_bool(0.08) {
            traced_driver.pump().expect("validated stream");
            untraced_driver.pump().expect("validated stream");
        }
    }
    for driver in [&mut traced_driver, &mut untraced_driver] {
        driver.pump().expect("validated stream");
        driver.flush().expect("validated stream");
    }

    let (a, b) = (
        traced_driver.service().published(),
        untraced_driver.service().published(),
    );
    assert_eq!(a.epochs(), b.epochs(), "epoch vectors diverged");
    assert_bit_identical(
        &a,
        &b,
        &[1.0, 3.0, 5.5, f64::INFINITY],
        "traced vs untraced",
    );

    // The traced side really was recording, and its trace is structurally sound.
    let snap = telemetry.snapshot();
    for series in ["ingest.submit_ns", "engine.flush_ns", "engine.apply_ns"] {
        assert!(
            snap.histogram(series).is_some_and(|h| !h.is_empty()),
            "series {series} missing or empty"
        );
    }
    snap.trace.check_well_formed().expect("well-formed trace");
    assert!(snap.trace.total_events() > 0);
    // And the untraced side recorded nothing anywhere.
    assert!(untraced_driver.service().telemetry().snapshot().is_empty());
}

/// Read handles are epoch-pinned: a held snapshot keeps answering for its epoch vector while
/// the driver advances, and fresh reads observe the new epochs.
#[test]
fn read_handles_pin_epochs_across_driver_progress() {
    let service = ServiceBuilder::new()
        .vertices(8)
        .shards(2)
        .queue_capacity(64)
        .build()
        .unwrap();
    let ingest = service.ingest_handle();
    let reader = service.read_handle();
    let mut driver = service.into_driver();

    ingest.submit(ins(0, 4, 1.0)).unwrap();
    driver.pump().unwrap();
    driver.flush().unwrap();
    let pinned = reader.snapshot();
    assert!(pinned.same_cluster(v(0), v(4), 1.0));
    let pinned_epochs = pinned.epochs();

    ingest.submit(del(0, 4)).unwrap();
    driver.pump().unwrap();
    driver.flush().unwrap();
    // The held snapshot is frozen; a fresh read moves on.
    assert!(pinned.same_cluster(v(0), v(4), 1.0));
    assert_eq!(pinned.epochs(), pinned_epochs);
    let fresh = reader.snapshot();
    assert!(!fresh.same_cluster(v(0), v(4), f64::INFINITY));
    assert!(fresh.epochs() > pinned_epochs);
}
