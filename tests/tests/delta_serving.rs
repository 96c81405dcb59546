//! Delta-serving correctness: replaying the delta chain `r0 → rN` onto the full snapshot
//! taken at revision `r0` must be **bit-identical** to the full snapshot at `rN` — the
//! per-shard dendrogram exports (records, order, versions), the canonical cluster labels,
//! and the sorted member lists. The properties below drive that equivalence across drawn
//! service configurations, mixed churn with interleaved vertex growth, and the ring-ageout →
//! full-snapshot fallback path. A delta carries records only: the labels at [`TAUS`] are
//! compared on the replayed view itself.

use dynsld_engine::{FlushPolicy, ServiceBuilder, ServiceSnapshot, SyncResponse};
use dynsld_forest::workload::GraphWorkloadBuilder;
use dynsld_forest::VertexId;
use dynsld_serve::codec::{decode_message, encode_snapshot};
use dynsld_serve::{Mirror, RefreshReason, Subscriber, SyncOutcome, WireMessage};
use dynsld_tests::{assert_bit_identical, configs, drain, feed, TAUS};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Thresholds no other check asks at, so neither side has a clustering cached for them: point
/// queries there are answered on the exports themselves (on one shard), which on a mirror
/// means an index built from replayed or decoded records.
const POINT_TAUS: [f64; 3] = [1.5, 3.5, 6.5];

/// Asserts a replayed mirror answers exactly like a published view: same revision and
/// epochs, bit-identical per-shard exports, identical labels and member lists at every
/// threshold in [`TAUS`], and identical point answers — the sweep's — at [`POINT_TAUS`].
fn assert_mirror_matches(mirror: &Mirror, published: &ServiceSnapshot, context: &str) {
    assert_eq!(mirror.revision(), published.revision(), "{context}");
    let n = published.num_vertices() as u32;
    let pairs = || (0..n).map(|i| (VertexId(i), VertexId((i * 7 + 3) % n)));
    // All point queries first: a clustering built for the check below would answer them.
    let asked: Vec<(usize, usize, Vec<bool>, Vec<bool>)> = POINT_TAUS
        .iter()
        .map(|&tau| {
            (
                mirror.num_clusters(tau),
                published.num_clusters(tau),
                pairs()
                    .map(|(u, v)| mirror.same_cluster(u, v, tau))
                    .collect(),
                pairs()
                    .map(|(u, v)| published.same_cluster(u, v, tau))
                    .collect(),
            )
        })
        .collect();
    for (&tau, (mirror_count, count, mirror_same, same)) in POINT_TAUS.iter().zip(asked) {
        let sweep = published.flat_clustering(tau);
        assert_eq!(mirror_count, sweep.num_clusters(), "{context}: tau={tau}");
        assert_eq!(count, sweep.num_clusters(), "{context}: tau={tau}");
        let swept: Vec<bool> = pairs().map(|(u, v)| sweep.same_cluster(u, v)).collect();
        assert_eq!(mirror_same, swept, "{context}: mirror pairs at tau={tau}");
        assert_eq!(same, swept, "{context}: served pairs at tau={tau}");
    }
    assert_eq!(mirror.epochs(), published.epochs(), "{context}");
    for (i, (replayed, shard)) in mirror.shards().zip(published.shard_snapshots()).enumerate() {
        assert_eq!(
            replayed,
            shard.dendrogram(),
            "{context}: shard {i} diverged"
        );
    }
    assert_bit_identical(mirror, published, &TAUS, context);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// The PR's acceptance property. A subscriber that captured the full view at `r0` and
    /// then syncs through delta chains only must end bit-identical to the current full
    /// snapshot, under any drawn configuration, through churn and vertex growth.
    #[test]
    fn delta_chain_replay_is_bit_identical_to_full_snapshot(
        config in configs(),
        seed in 0u64..1 << 48,
        n in 6usize..32,
        num_ops in 16usize..160,
        growth in 0usize..3,
    ) {
        let service = config
            .builder(n)
            .delta_ring(4096) // larger than any revision count this test can produce
            .build()
            .expect("valid configuration");
        let read = service.read_handle();
        let mut driver = service.into_driver();

        let stream = GraphWorkloadBuilder::new(n)
            .weight_scale(8.0)
            .churn_stream(2 * n, num_ops, seed);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xDE17A);

        // Capture the full view at some mid-stream revision r0.
        let split = stream.len() / 3;
        feed(&mut driver, stream[..split].iter().copied());
        drain(&mut driver);
        let SyncResponse::Full(base) = read.sync_from(None) else {
            panic!("a sync without a base revision is always a full snapshot");
        };
        // Keep churning, with random flush points and (maybe) vertex growth mid-stream.
        for (i, &update) in stream[split..].iter().enumerate() {
            feed(&mut driver, [update]);
            if rng.gen_bool(0.15) {
                drain(&mut driver);
            }
            if growth > 0 && i == 5 {
                drain(&mut driver);
                driver.add_vertices(growth);
            }
        }
        drain(&mut driver);

        let now = read.snapshot();
        if now.revision() == base.revision() {
            return; // tiny tail: nothing published after r0, nothing to replay
        }
        let SyncResponse::Delta(patch) = read.sync_from(Some(base.revision())) else {
            panic!("the ring is oversized; a delta chain must be available");
        };
        prop_assert_eq!(patch.from_revision, base.revision());
        prop_assert_eq!(patch.to_revision, now.revision());

        // Replay the raw per-shard exports...
        let replayed = patch.replay(&base);
        for (shard, published) in replayed.shard_snapshots().iter().zip(now.shard_snapshots()) {
            prop_assert_eq!(shard.dendrogram(), published.dendrogram());
        }
        // The Mirror path (what subscribers actually run) agrees too.
        let mut mirror = Mirror::from_snapshot(&base);
        mirror.apply(&patch).expect("chain is anchored at the mirror's revision");
        assert_mirror_matches(&mirror, &now, "mirror replay");
        // And so does a mirror decoded from the full view's wire payload.
        let WireMessage::Snapshot(decoded) =
            decode_message(&encode_snapshot(&now)).expect("own payloads decode")
        else {
            panic!("a snapshot payload decodes to a snapshot");
        };
        assert_mirror_matches(&decoded, &now, "wire-decoded mirror");
    }

    /// A frequently-syncing subscriber rides deltas the whole way and stays bit-identical
    /// at every sync point; a subscriber that falls out of a tiny ring refreshes with a
    /// full snapshot (reported as such) and is bit-identical again afterwards.
    #[test]
    fn subscribers_stay_identical_and_survive_ring_ageout(
        seed in 0u64..1 << 48,
        n in 6usize..24,
        shards in 1usize..3,
        num_ops in 24usize..120,
    ) {
        let service = ServiceBuilder::new()
            .vertices(n)
            .shards(shards)
            .flush_policy(FlushPolicy::Manual)
            .delta_ring(2) // tiny: lagging subscribers age out quickly
            .build()
            .expect("valid configuration");
        let ingest = service.ingest_handle();
        let read = service.read_handle();
        let mut fresh = Subscriber::new(read.clone());
        let mut laggard = Subscriber::new(read.clone());
        let mut driver = service.into_driver();

        fresh.sync();
        laggard.sync();

        let stream = GraphWorkloadBuilder::new(n)
            .weight_scale(8.0)
            .churn_stream(2 * n, num_ops, seed);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xA6E0);
        let mut aged_out = false;
        for &update in &stream {
            ingest.submit(update).expect("queue open");
            if rng.gen_bool(0.3) {
                drain(&mut driver);
                // The fresh subscriber is at most one revision behind: never a full pull.
                let report = fresh.sync();
                prop_assert!(!matches!(
                    report.outcome,
                    SyncOutcome::Refreshed { reason: RefreshReason::AgedOut }
                ));
                assert_mirror_matches(fresh.mirror().unwrap(), &read.snapshot(), "fresh");
            }
        }
        drain(&mut driver);
        fresh.sync();
        assert_mirror_matches(fresh.mirror().unwrap(), &read.snapshot(), "fresh, final");

        // The laggard slept through every publish; with a 2-deep ring it must refresh in
        // full once more than 2 revisions passed.
        let behind = read.revision() - laggard.revision().unwrap();
        let report = laggard.sync();
        if behind > 2 {
            prop_assert!(matches!(
                report.outcome,
                SyncOutcome::Refreshed { reason: RefreshReason::AgedOut }
            ));
            aged_out = true;
        }
        assert_mirror_matches(laggard.mirror().unwrap(), &read.snapshot(), "laggard");
        let metrics = driver.service().metrics();
        prop_assert_eq!(metrics.full_fallbacks, u64::from(aged_out));
        prop_assert!(metrics.deltas_served > 0 || behind == 0);
    }
}

/// A multi-shard view counts clusters without labelling them: on 2- and 3-shard services and
/// on their wire mirrors, with tied and with distinct weights, `num_clusters(τ)` equals the
/// clustering's count at every τ in {−∞, each record weight, +∞}, `num_components()` equals
/// the count at +∞, and a count at a threshold with no clustering cached builds none (the
/// served view's cache counters stay where they were).
#[test]
fn cluster_counts_over_several_shards_equal_the_clustering_and_build_nothing() {
    use dynsld_engine::GraphUpdate;
    use dynsld_serve::{DeltaServer, WireSubscriber};
    use dynsld_telemetry::Telemetry;
    let n = 48u32;
    for shards in [2, 3] {
        for tied in [true, false] {
            let service = ServiceBuilder::new()
                .vertices(n as usize)
                .shards(shards)
                .flush_policy(FlushPolicy::Manual)
                .delta_ring(16)
                .build()
                .unwrap();
            let ingest = service.ingest_handle();
            let read = service.read_handle();
            let server = DeltaServer::bind("127.0.0.1:0", read.clone(), Telemetry::disabled())
                .expect("bind");
            let mut wire = WireSubscriber::connect(server.local_addr()).expect("connect");
            wire.sync().expect("initial pull");
            let mut driver = service.into_driver();
            let mut rng = SmallRng::seed_from_u64(shards as u64 * 2 + u64::from(tied));
            for round in 0..3u32 {
                for i in 0..n / 2 {
                    let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
                    // Tied: three weights for every record; distinct: one weight each.
                    let weight = if tied {
                        f64::from(rng.gen_range(1..4u32))
                    } else {
                        f64::from(round * n + i) + 0.5
                    };
                    let (u, v) = (VertexId(u), VertexId(v));
                    let _ = ingest.submit(GraphUpdate::Insert { u, v, weight });
                }
                let published = drain(&mut driver);
                wire.sync().expect("wire sync");
                let mirror = wire.mirror().expect("synced");
                assert_eq!(mirror.revision(), published.revision());
                // Each threshold once: a second ask would find the first one's clustering.
                let mut taus: Vec<f64> = published
                    .shard_snapshots()
                    .iter()
                    .flat_map(|s| s.dendrogram().nodes.iter().map(|node| node.weight))
                    .chain([f64::NEG_INFINITY, f64::INFINITY])
                    .collect();
                taus.sort_by(f64::total_cmp);
                taus.dedup();
                let context = format!("{shards} shards, tied {tied}, round {round}");
                let counters = |driver: &dynsld_engine::FlusherDriver| {
                    let m = driver.service().metrics();
                    (m.snapshot_cache_hits, m.snapshot_cache_misses)
                };
                for tau in taus {
                    let before = counters(&driver);
                    // Nothing is cached at `tau` on either side yet.
                    let cold = published.num_clusters(tau);
                    assert_eq!(counters(&driver), before, "{context} at {tau}");
                    assert_eq!(mirror.num_clusters(tau), cold, "{context} at {tau}");
                    let built = published.flat_clustering(tau).num_clusters();
                    assert_eq!(cold, built, "{context} at {tau}");
                    assert_eq!(
                        mirror.flat_clustering(tau).num_clusters(),
                        built,
                        "{context} at {tau}"
                    );
                    // With the clustering cached, the count reads it: the counters are live.
                    assert_eq!(published.num_clusters(tau), built, "{context} at {tau}");
                    assert_eq!(counters(&driver), (before.0 + 1, before.1 + 1), "{context}");
                }
                let at_infinity = published.num_clusters(f64::INFINITY);
                assert_eq!(published.num_components(), at_infinity, "{context}");
                assert_eq!(mirror.num_components(), at_infinity, "{context}");
            }
            server.shutdown();
        }
    }
}
