//! Fault isolation and recovery: an injected panic mid-flush must quarantine exactly one
//! shard while the service keeps serving (stale-flagged) and accepting ingest, and
//! recovery from the shard's log must land **bit-identical** to a no-fault oracle fed the same
//! stream — canonical labels AND sorted member lists, under any drawn service
//! configuration. The wire half: a subscriber must survive a server kill/restart and
//! injected torn writes mid-delta-chain with zero divergence from the published view.

use dynsld_engine::{
    FaultPlan, FlushPolicy, FlusherDriver, GreedyPartitioner, HashPartitioner, ServiceBuilder,
    ShardId,
};
use dynsld_forest::workload::GraphWorkloadBuilder;
use dynsld_serve::{DeltaServer, ServerOptions, SyncOutcome, WireConfig, WireSubscriber};
use dynsld_telemetry::Telemetry;
use dynsld_tests::{assert_bit_identical, configs, drain, feed, TAUS};
use proptest::prelude::*;
use std::time::Duration;

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// The PR's acceptance property. A service whose shard `s` panics torn (mid-batch) on
    /// its `f`-th flush keeps flushing every other shard, keeps accepting ingest into the
    /// quarantined shard (journaled), and after `recover_shard` is bit-identical to a
    /// no-fault oracle fed the identical stream — under any drawn configuration, with vertex
    /// growth landing while the shard is down. ("No-fault" means no torn panic: the
    /// configuration's own transparent faults are armed on both sides.)
    #[test]
    fn panic_quarantine_recover_is_bit_identical_to_oracle(
        config in configs(),
        seed in 0u64..1 << 48,
        n in 6usize..32,
        num_ops in 16usize..120,
        panic_shard in 0usize..4,
        panic_flush in 1u64..4,
        growth in 0usize..3,
    ) {
        // `panic_shard` may exceed the engine count (then the rule never matches) or name
        // the spill shard — both are part of the property.
        let spec = format!("flush_panic=shard:{panic_shard},flush:{panic_flush}");
        let faulted = config.builder(n).faults(config.faults_with(&spec));
        let oracle = config.builder(n);

        let stream = GraphWorkloadBuilder::new(n)
            .weight_scale(8.0)
            .churn_stream(2 * n, num_ops, seed);
        let split = stream.len() / 2;

        let mut services =
            [faulted, oracle].map(|b| b.build().expect("valid configuration").into_driver());
        for driver in &mut services {
            feed(driver, stream[..split].iter().copied());
            drain(driver);
            // Growth mid-stream: while the faulted shard may already be quarantined, the
            // journal must carry the growth to the replay.
            if growth > 0 {
                driver.add_vertices(growth);
            }
            feed(driver, stream[split..].iter().copied());
            drain(driver);
        }
        let [mut faulted, oracle] = services;

        // Whatever got quarantined: the flush reports said so, reads stayed available
        // (stale-flagged), and ingest was never refused.
        let stale = faulted.service().published().stale_shards();
        for &shard in &stale {
            let report = faulted.recover_shard(shard).expect("replay of a valid stream");
            prop_assert!(report.rejected.is_empty(), "the stream was valid end-to-end");
            prop_assert!(report.events_replayed > 0 || growth > 0);
        }
        prop_assert!(!faulted.service().published().is_stale());
        if !stale.is_empty() {
            let metrics = faulted.service().metrics();
            prop_assert_eq!(metrics.shards_quarantined, stale.len() as u64);
            prop_assert_eq!(metrics.shard_recoveries, stale.len() as u64);
            prop_assert!(metrics.shard_panics_caught >= stale.len() as u64);
        }
        assert_bit_identical(
            &faulted.service().published(),
            &oracle.service().published(),
            &TAUS,
            &format!("spec={spec} stale={stale:?}"),
        );
    }
}

/// The shard log's two halves, both exercised: the vertex set grows, a later flush folds the
/// log (so the growth lands in the image's vertex count), the vertex set grows again (a
/// `Grow` entry in the suffix), and only then does shard 0 tear. Recovery must replay exactly
/// the events routed since the fold — not the whole history — and still land bit-identical
/// to the oracle, on the grown vertex set.
fn fold_between_growth_and_quarantine(greedy: bool) {
    use dynsld_engine::GraphUpdate;
    use dynsld_forest::VertexId;
    let n = 24;
    let build = |faults: FaultPlan| {
        let builder = ServiceBuilder::new().vertices(n).shards(2).faults(faults);
        let builder = if greedy {
            builder.stateful_partitioner(GreedyPartitioner::default())
        } else {
            builder.partitioner(HashPartitioner)
        };
        builder.build().expect("valid configuration")
    };
    let stream = GraphWorkloadBuilder::new(n)
        .weight_scale(8.0)
        .churn_stream(2 * n, 360, 5);
    let parts: Vec<&[_]> = stream.chunks(120).collect();
    let spec = "flush_panic=shard:0,flush:3";
    let mut faulted = build(FaultPlan::parse(spec).expect("valid spec")).into_driver();
    let mut oracle = build(FaultPlan::disabled()).into_driver();
    let shard0_load = |driver: &FlusherDriver| driver.service().shard_event_loads()[0].1;
    let mut load_at_fold = 0;
    for driver in [&mut faulted, &mut oracle] {
        let ingest = driver.service().ingest_handle();
        ingest.submit_all(parts[0].iter().copied()).unwrap();
        drain(driver);
        driver.add_vertices(3);
        // Shard 0's second flush: its suffix has outgrown its image, so the log folds here.
        ingest.submit_all(parts[1].iter().copied()).unwrap();
        drain(driver);
        load_at_fold = shard0_load(driver);
        driver.add_vertices(2);
        // Shard 0's third flush tears (on the faulted service).
        ingest.submit_all(parts[2].iter().copied()).unwrap();
        drain(driver);
        // While quarantined: an edge on the newest vertex that routes to shard 0, so the
        // replay needs the image's vertex count *and* the suffix's `Grow` to accept it.
        let newest = VertexId((n + 4) as u32);
        let partner = (0..n as u32)
            .map(VertexId)
            .find(|&v| driver.service().route(v, newest) == ShardId::Routed(0))
            .expect("some vertex pairs with the newest one on shard 0");
        ingest
            .submit(GraphUpdate::Insert {
                u: partner,
                v: newest,
                weight: 0.5,
            })
            .unwrap();
        drain(driver);
    }
    assert_eq!(
        faulted.service().published().stale_shards(),
        vec![ShardId::Routed(0)]
    );
    let since_fold = shard0_load(&faulted) - load_at_fold;
    let report = faulted
        .recover_shard(ShardId::Routed(0))
        .expect("replay of a valid stream");
    assert!(report.rejected.is_empty(), "{:?}", report.rejected);
    assert_eq!(
        report.events_replayed as u64, since_fold,
        "only the suffix since the fold is replayed, not shard 0's whole history"
    );
    assert!(load_at_fold > 0 && since_fold > 0);
    assert_bit_identical(
        &faulted.service().published(),
        &oracle.service().published(),
        &TAUS,
        &format!("fold between growth and quarantine, greedy={greedy}"),
    );
    assert_eq!(faulted.service().published().num_vertices(), n + 5);
}

#[test]
fn fold_between_growth_and_quarantine_hash_partitioner() {
    fold_between_growth_and_quarantine(false);
}

#[test]
fn fold_between_growth_and_quarantine_greedy_partitioner() {
    fold_between_growth_and_quarantine(true);
}

/// A torn flush leaves the service serving the shard's last-published epoch, flagged stale:
/// strict reads refuse with the shard's name, availability reads are counted, and ingest
/// keeps flowing into the journal.
#[test]
fn quarantined_shard_serves_stale_and_accepts_ingest() {
    use dynsld_engine::{GraphUpdate, ServiceError};
    use dynsld_forest::VertexId;
    let ins = |a: u32, b: u32, w: f64| GraphUpdate::Insert {
        u: VertexId(a),
        v: VertexId(b),
        weight: w,
    };
    let service = ServiceBuilder::new()
        .vertices(8)
        .shards(2)
        .partitioner(dynsld_engine::BlockPartitioner { block_size: 4 })
        .faults(FaultPlan::parse("flush_panic=shard:0,flush:2").expect("valid spec"))
        .build()
        .expect("valid configuration");
    let ingest = service.ingest_handle();
    let read = service.read_handle();
    let mut driver = service.into_driver();

    ingest.submit(ins(0, 1, 1.0)).unwrap();
    drain(&mut driver);
    ingest.submit(ins(1, 2, 2.0)).unwrap();
    drain(&mut driver); // shard 0's second flush tears
    let snapshot = read.snapshot();
    assert!(snapshot.is_stale());
    assert_eq!(snapshot.stale_shards(), vec![ShardId::Routed(0)]);
    // The pre-panic epoch is served; the torn batch is not.
    assert!(snapshot.same_cluster(VertexId(0), VertexId(1), 1.5));
    assert!(!snapshot.same_cluster(VertexId(1), VertexId(2), 5.0));
    assert!(matches!(
        read.snapshot_strict(),
        Err(ServiceError::ShardQuarantined {
            shard: ShardId::Routed(0)
        })
    ));
    // Ingest into the quarantined shard is journaled, then replayed on recovery.
    ingest.submit(ins(2, 3, 3.0)).unwrap();
    drain(&mut driver);
    driver.recover_shard(ShardId::Routed(0)).expect("replay");
    let recovered = read.snapshot_strict().expect("healthy again");
    assert!(recovered.same_cluster(VertexId(1), VertexId(2), 5.0));
    assert!(recovered.same_cluster(VertexId(2), VertexId(3), 5.0));
    assert!(driver.service().metrics().stale_reads_served >= 1);
}

/// An `entry`-mode injected panic fires before any buffered work is consumed; the service
/// proves the catch path and retries transparently — no quarantine, and the final state is
/// exactly the no-fault oracle's.
#[test]
fn entry_panics_are_retried_transparently_across_a_whole_stream() {
    let n = 24;
    let stream = GraphWorkloadBuilder::new(n)
        .weight_scale(6.0)
        .churn_stream(2 * n, 80, 11);
    let build = |faults: FaultPlan| {
        ServiceBuilder::new()
            .vertices(n)
            .shards(3)
            .flush_policy(FlushPolicy::EveryNOps(4))
            .faults(faults)
            .build()
            .expect("valid configuration")
    };
    let mut faulted =
        build(FaultPlan::parse("flush_panic=every:3,entry").expect("valid spec")).into_driver();
    let mut oracle = build(FaultPlan::disabled()).into_driver();
    for driver in [&mut faulted, &mut oracle] {
        let ingest = driver.service().ingest_handle();
        ingest
            .submit_all(stream.iter().copied())
            .expect("queue open");
        drain(driver);
    }
    let metrics = faulted.service().metrics();
    assert!(metrics.shard_panics_caught > 0, "the fault plan fired");
    assert_eq!(metrics.shards_quarantined, 0, "entry panics never tear");
    assert!(!faulted.service().published().is_stale());
    assert_bit_identical(
        &faulted.service().published(),
        &oracle.service().published(),
        &TAUS,
        "entry-retry stream",
    );
}

/// `recover_shard` on a **healthy** shard is a contractual no-op — it must not silently
/// rebuild the engine. Nothing is replayed, the shard's epoch and the published revision
/// are untouched, and the recovery counter stays at zero.
#[test]
fn recovering_a_healthy_shard_is_a_pinned_no_op() {
    use dynsld_engine::GraphUpdate;
    use dynsld_forest::VertexId;
    let service = ServiceBuilder::new()
        .vertices(8)
        .shards(2)
        .partitioner(dynsld_engine::BlockPartitioner { block_size: 4 })
        .build()
        .expect("valid configuration");
    let ingest = service.ingest_handle();
    let read = service.read_handle();
    let mut driver = service.into_driver();
    ingest
        .submit(GraphUpdate::Insert {
            u: VertexId(0),
            v: VertexId(1),
            weight: 1.0,
        })
        .unwrap();
    drain(&mut driver);

    let before = read.snapshot();
    assert!(!before.is_stale());
    for shard in [ShardId::Routed(0), ShardId::Routed(1), ShardId::Spill] {
        let report = driver.recover_shard(shard).expect("healthy recovery is Ok");
        assert_eq!(report.shard, shard);
        assert_eq!(report.events_replayed, 0, "{shard:?}: nothing to replay");
        assert!(report.rejected.is_empty());
    }
    let after = read.snapshot();
    assert_eq!(after.revision(), before.revision(), "no republish happened");
    assert_eq!(after.epochs(), before.epochs(), "no engine was rebuilt");
    assert_eq!(driver.service().metrics().shard_recoveries, 0);
    assert_bit_identical(&before, &after, &TAUS, "healthy-shard no-op recovery");
}

/// Server killed mid-delta-chain: a subscriber that already mirrored revision `r0` syncs
/// against a restarted server (same service, new socket) and — because the delta ring still
/// covers its anchor — catches up via the delta chain, bit-identical to the published view.
/// Torn writes injected on the restarted server are absorbed by the retry loop.
#[test]
fn subscriber_survives_server_restart_and_torn_writes_mid_chain() {
    let n = 16;
    let service = ServiceBuilder::new()
        .vertices(n)
        .shards(2)
        .flush_policy(FlushPolicy::Manual)
        .delta_ring(4096)
        .build()
        .expect("valid configuration");
    let ingest = service.ingest_handle();
    let read = service.read_handle();
    let mut driver = service.into_driver();
    let stream = GraphWorkloadBuilder::new(n)
        .weight_scale(8.0)
        .churn_stream(2 * n, 60, 7);
    let split = stream.len() / 2;

    ingest
        .submit_all(stream[..split].iter().copied())
        .expect("queue open");
    drain(&mut driver);

    let first =
        DeltaServer::bind("127.0.0.1:0", read.clone(), Telemetry::disabled()).expect("bind");
    let mut subscriber = WireSubscriber::connect_with(
        first.local_addr(),
        WireConfig {
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(10),
            ..WireConfig::default()
        },
    )
    .expect("connect");
    let base = subscriber.sync().expect("initial full sync");
    assert!(matches!(base.outcome, SyncOutcome::Refreshed { .. }));

    // Kill the server mid-chain: the service advances while nothing is listening.
    first.shutdown();
    for &update in &stream[split..] {
        ingest.submit(update).expect("queue open");
        drain(&mut driver);
    }

    // Restart on a fresh socket (same ReadHandle — same service), with a torn write
    // injected on the first connection the restarted server accepts. The subscriber
    // repoints, keeps its mirror, and the retry loop rides through the truncated response
    // until a whole delta chain lands.
    let second = DeltaServer::bind_with(
        "127.0.0.1:0",
        read.clone(),
        Telemetry::disabled(),
        ServerOptions {
            faults: FaultPlan::parse("torn_write=conn:1,after:40").expect("valid spec"),
            ..ServerOptions::default()
        },
    )
    .expect("rebind");
    subscriber.reconnect(second.local_addr()).expect("repoint");
    let caught_up = subscriber.sync().expect("retries absorb torn writes");
    assert!(
        matches!(caught_up.outcome, SyncOutcome::Patched { .. }),
        "ring covered the gap, so the catch-up must be a delta chain (got {:?})",
        caught_up.outcome
    );

    // Zero divergence: the wire replica equals the published view bit-for-bit.
    let published = read.snapshot();
    let mirror = subscriber.mirror().expect("synced");
    assert_eq!(mirror.revision(), published.revision());
    assert_eq!(mirror.epochs(), published.epochs());
    assert_bit_identical(mirror, &published, &TAUS, "wire replica");
    let stats = subscriber.stats();
    assert!(
        stats.retries >= 1,
        "the injected torn writes forced retries"
    );
    second.shutdown();
}
