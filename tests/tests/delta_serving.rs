//! Delta-serving correctness: replaying the delta chain `r0 → rN` onto the full snapshot
//! taken at revision `r0` must be **bit-identical** to the full snapshot at `rN` — the
//! per-shard dendrogram exports (records, order, versions), the canonical cluster labels,
//! and the sorted member lists. The properties below drive that equivalence across drawn
//! service configurations, mixed churn with interleaved vertex growth, and the ring-ageout →
//! full-snapshot fallback path. The service tracks [`TAUS`] in its deltas.

use dynsld_engine::{FlushPolicy, ServiceBuilder, ServiceSnapshot, SyncResponse};
use dynsld_forest::workload::GraphWorkloadBuilder;
use dynsld_forest::VertexId;
use dynsld_serve::codec::{decode_message, encode_snapshot};
use dynsld_serve::{Mirror, RefreshReason, Subscriber, SyncOutcome, WireMessage};
use dynsld_tests::{assert_bit_identical, configs, drain, feed, TAUS};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Thresholds no one tracks, so neither side has a clustering cached for them: point queries
/// there are answered on the exports themselves (on one shard), which on a mirror means an
/// index built from replayed or decoded records.
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
    /// snapshot, under any drawn configuration, through churn and vertex growth. The
    /// tracked-threshold relabels must also replay the label vectors exactly (nothing
    /// changed that was not reported changed).
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
            .track_thresholds(TAUS)
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
        // Label vectors at r0, advanced below through the relabel records alone.
        let mut labels: Vec<Vec<usize>> =
            TAUS.iter().map(|&tau| base.flat_clustering(tau).labels.clone()).collect();

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
        // ...and the tracked-threshold label vectors, through the relabel records alone.
        for delta in &patch.deltas {
            let grown = delta.shards[0].num_vertices;
            for (slot, &tau) in labels.iter_mut().zip(&TAUS) {
                let relabel = delta
                    .relabels
                    .iter()
                    .find(|r| r.tau == tau)
                    .expect("every tracked threshold appears in every delta");
                slot.resize(grown, usize::MAX); // new vertices are always in `changed`
                for &(v, label) in &relabel.changed {
                    slot[v.index()] = label;
                }
            }
        }
        for (slot, &tau) in labels.iter().zip(&TAUS) {
            prop_assert_eq!(slot, &now.flat_clustering(tau).labels);
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
