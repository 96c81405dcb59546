//! Backend bit-identity: the HDT level-structured MSF engine (`ForestBackend::Hdt`) must be
//! observationally indistinguishable from the reference scan backend — not merely "same
//! clustering", but the same [`MsfChange`] on every single update, the same dendrogram
//! snapshot, and the same canonical labels AND member lists through the full sharded
//! pipeline, under any drawn service configuration. The backends are allowed to differ
//! **only** in their work counters (how many replacement candidates they examine). The last
//! property pins the fault path: a quarantined HDT shard recovered by journal replay must
//! land bit-identical to a no-fault *scan* service fed the same stream.

use dynsld::{DynSldOptions, ForestBackend};
use dynsld_forest::workload::{GraphUpdate, GraphWorkloadBuilder};
use dynsld_msf::DynamicGraphClustering;
use dynsld_tests::{assert_bit_identical, configs, drain, feed, TAUS};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn options(backend: ForestBackend) -> DynSldOptions {
    DynSldOptions {
        msf_backend: backend,
        ..DynSldOptions::default()
    }
}

fn clustering(backend: ForestBackend, n: usize) -> DynamicGraphClustering {
    DynamicGraphClustering::with_options(n, options(backend))
}

/// Applies one update to a clustering, returning the change (or the rejection).
fn apply(
    g: &mut DynamicGraphClustering,
    update: GraphUpdate,
) -> Result<dynsld_msf::MsfChange, dynsld::DynSldError> {
    match update {
        GraphUpdate::Insert { u, v, weight } => g.insert_edge(u, v, weight),
        GraphUpdate::Delete { u, v } => g.delete_edge(u, v),
        GraphUpdate::Reweight { u, v, weight } => g.update_weight(u, v, weight),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// The core identity, per update: for every generated insert/delete/reweight stream, the
    /// HDT backend reports the **same [`MsfChange`]** as the scan backend on every single
    /// operation, and the exported dendrogram snapshots (version, nodes, ranks) are equal at
    /// every sync point. Only the work counters may differ — and the HDT backend must
    /// actually be doing its level-structured search (it runs the same number of
    /// replacement searches while examining no more candidates than the scan).
    #[test]
    fn hdt_reports_bit_identical_changes_and_dendrograms(
        seed in 0u64..1 << 48,
        n in 4usize..48,
        num_ops in 20usize..400,
        weight_scale in 1usize..10,
    ) {
        let stream = GraphWorkloadBuilder::new(n)
            .weight_scale(weight_scale as f64)
            .churn_stream(2 * n, num_ops, seed);
        let mut scan = clustering(ForestBackend::Scan, n);
        let mut hdt = clustering(ForestBackend::Hdt, n);
        prop_assert_eq!(scan.backend(), ForestBackend::Scan);
        prop_assert_eq!(hdt.backend(), ForestBackend::Hdt);

        let mut rng = SmallRng::seed_from_u64(seed ^ 0xB17);
        for (i, &update) in stream.iter().enumerate() {
            let a = apply(&mut scan, update);
            let b = apply(&mut hdt, update);
            prop_assert_eq!(&a, &b, "op {} ({:?}) diverged", i, update);
            if rng.gen_bool(0.05) {
                prop_assert_eq!(
                    scan.export_snapshot_incremental(),
                    hdt.export_snapshot_incremental(),
                    "dendrogram snapshots diverged after op {}",
                    i
                );
            }
        }
        prop_assert_eq!(scan.num_graph_edges(), hdt.num_graph_edges());
        prop_assert_eq!(scan.num_tree_edges(), hdt.num_tree_edges());
        // `graph_edges` iterates a hash map — compare as sets (one entry per pair).
        let sorted = |g: &DynamicGraphClustering| {
            let mut edges = g.graph_edges();
            edges.sort_by_key(|&(u, v, _, _)| (u, v));
            edges
        };
        prop_assert_eq!(sorted(&scan), sorted(&hdt));
        prop_assert_eq!(
            scan.export_snapshot_incremental(),
            hdt.export_snapshot_incremental(),
            "final dendrogram snapshots diverged"
        );
        // Work counters are the one permitted difference. The scan backend never promotes
        // levels, and the HDT backend answers every tree deletion the scan answered (plus
        // one internal search per tree-edge eviction replayed on insert).
        let (ws, wh) = (scan.take_work_counters(), hdt.take_work_counters());
        prop_assert_eq!(ws.level_promotions, 0);
        prop_assert!(
            wh.replacement_searches >= ws.replacement_searches,
            "HDT ran {} searches where the scan ran {}",
            wh.replacement_searches,
            ws.replacement_searches
        );
    }

    /// The pipeline-level identity: a service on the drawn configuration publishes views
    /// bit-identical (labels AND member lists) to the same configuration on the other
    /// backend, fed the same stream — at random mid-stream sync points and at the end. This
    /// drives the batch (coalesced) code path through both backends.
    #[test]
    fn hdt_service_is_bit_identical_to_scan_service(
        config in configs(),
        seed in 0u64..1 << 48,
        n in 6usize..40,
        num_ops in 20usize..280,
    ) {
        let other = match config.backend {
            ForestBackend::Scan => ForestBackend::Hdt,
            ForestBackend::Hdt => ForestBackend::Scan,
        };
        let mut drivers = [config.builder(n), config.builder(n).options(options(other))]
            .map(|builder| builder.build().expect("valid configuration").into_driver());

        let stream = GraphWorkloadBuilder::new(n)
            .weight_scale(8.0)
            .churn_stream(2 * n, num_ops, seed);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x4D5F);
        for (i, &update) in stream.iter().enumerate() {
            for driver in &mut drivers {
                feed(driver, [update]);
            }
            if rng.gen_bool(0.06) {
                let [a, b] = &mut drivers;
                assert_bit_identical(&drain(a), &drain(b), &TAUS, &format!("after op {i}"));
            }
        }
        let [a, b] = &mut drivers;
        assert_bit_identical(&drain(a), &drain(b), &TAUS, "final state");
        // The streams really were applied in full on both sides.
        let (ma, mb) = (a.service().metrics(), b.service().metrics());
        prop_assert_eq!(ma.ops_applied, mb.ops_applied);
        prop_assert_eq!(ma.edges_promoted, mb.edges_promoted);
    }

    /// The fault path on the new backend: an HDT service whose shard panics torn mid-flush
    /// quarantines it, keeps journaling ingest, and after `recover_shard` the replayed HDT
    /// engine is bit-identical to a **no-fault scan** service fed the identical stream —
    /// recovery and backend choice compose without observable effect.
    #[test]
    fn hdt_journal_replay_after_quarantine_matches_scan_oracle(
        config in configs(),
        seed in 0u64..1 << 48,
        n in 6usize..28,
        num_ops in 16usize..100,
        panic_shard in 0usize..4,
        panic_flush in 1u64..3,
    ) {
        let spec = format!("flush_panic=shard:{panic_shard},flush:{panic_flush}");
        let mut faulted = config
            .builder(n)
            .options(options(ForestBackend::Hdt))
            .faults(config.faults_with(&spec))
            .build()
            .expect("valid configuration")
            .into_driver();
        let mut oracle = config
            .builder(n)
            .options(options(ForestBackend::Scan))
            .build()
            .expect("valid configuration")
            .into_driver();

        let stream = GraphWorkloadBuilder::new(n)
            .weight_scale(8.0)
            .churn_stream(2 * n, num_ops, seed);
        for driver in [&mut faulted, &mut oracle] {
            feed(driver, stream.iter().copied());
            drain(driver);
        }

        let stale = faulted.service().published().stale_shards();
        for &shard in &stale {
            let report = faulted.recover_shard(shard).expect("replay of a valid stream");
            prop_assert!(report.rejected.is_empty(), "the stream was valid end-to-end");
        }
        prop_assert!(!faulted.service().published().is_stale());
        assert_bit_identical(
            &faulted.service().published(),
            &oracle.service().published(),
            &TAUS,
            &format!("spec={spec} stale={stale:?}"),
        );
    }
}
