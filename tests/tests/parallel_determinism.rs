//! Thread-count independence: the service's published clusterings must be a pure function of
//! the event stream, never of the pool size or flush scheduling.
//!
//! Two pillars make this hold and are pinned down here:
//!
//! * the (weight, edge-pair) tie-breaking introduced in PR 1 makes every MSF/dendrogram
//!   decision deterministic, so each shard engine computes the same state no matter when or
//!   on which worker its flush runs;
//! * every parallel primitive in the `rayon` shim (and the service's shard-order report
//!   merge) is order-preserving, so fan-out never reorders observable results.
//!
//! The tests compare a strictly sequential service (`threads(1)` — the exact pre-pool code
//! path) against a concurrent one (`threads(4)`) on identical streams, both driven through
//! the handle-based ingest pipeline: epoch vectors, flush reports and full merged clusterings
//! must be identical. They are meaningful at any pool size — with a one-thread pool
//! (`DYNSLD_THREADS=1`) both runs are sequential and the comparison is trivial; with a
//! multi-threaded pool it is a real scheduling-independence check.

use dynsld_engine::{BlockPartitioner, FlushPolicy, ServiceBuilder, ServiceSnapshot, ShardId};
use dynsld_forest::workload::GraphWorkloadBuilder;
use dynsld_tests::{assert_bit_identical, configs, feed};
use proptest::prelude::*;

/// Asserts the two snapshots answer identically: same epoch vector, and bit-identical
/// clusterings at every probed threshold.
fn assert_identical(a: &ServiceSnapshot, b: &ServiceSnapshot, thresholds: &[f64], context: &str) {
    assert_eq!(a.epochs(), b.epochs(), "{context}: epoch vectors diverged");
    assert_bit_identical(a, b, thresholds, context);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// The same drawn configuration flushed strictly sequentially and on four threads: every
    /// flush report's structure and every published view agree.
    #[test]
    fn threads_1_and_threads_4_produce_identical_clusterings(
        config in configs(),
        seed in 0u64..1 << 48,
    ) {
        // Ask for a 4-thread pool up front; `DYNSLD_THREADS` still wins, and the comparison
        // below must hold either way.
        rayon::configure_threads(4);
        let thresholds = [0.75, 2.0, 4.5, 7.0, f64::INFINITY];
        let n = 48;
        let stream = GraphWorkloadBuilder::new(n)
            .weight_scale(8.0)
            .churn_stream(3 * n, 700, seed);
        let build = |threads| config.builder(n).threads(threads).build().expect("valid");
        let (mut seq, mut par) = (build(1).into_driver(), build(4).into_driver());
        for (i, chunk) in stream.chunks(64).enumerate() {
            feed(&mut seq, chunk.iter().copied());
            feed(&mut par, chunk.iter().copied());
            seq.pump().expect("validated stream");
            par.pump().expect("validated stream");
            let rs = seq.flush().expect("validated stream");
            let rp = par.flush().expect("validated stream");
            assert_eq!(rs.epochs(), rp.epochs(), "flush round {i} epochs diverged");
            assert_eq!(rs.ops_applied(), rp.ops_applied());
            assert_eq!(rs.fast_path(), rp.fast_path());
            assert_eq!(rs.fallback(), rp.fallback());
            assert_eq!(rs.spill_routing_share(), rp.spill_routing_share());
            // Timing telemetry is populated on both sides — a wall clock for the whole
            // flush, per-shard busy times underneath it — and respects the invariant
            // chain wall >= slowest shard, sum of shards >= slowest shard. Absolute
            // values differ between the runs (that is the point of measuring), so only
            // the structure is compared.
            for report in [&rs, &rp] {
                assert!(
                    report.wall_time > std::time::Duration::ZERO,
                    "flush round {i}: wall time not populated"
                );
                if report.ops_applied() > 0 {
                    assert!(
                        report.slowest_shard_time() > std::time::Duration::ZERO,
                        "flush round {i}: per-shard durations not populated"
                    );
                }
                assert!(report.shard_time_sum() >= report.slowest_shard_time());
                assert!(report.wall_time >= report.slowest_shard_time());
                assert!(
                    report.phase_totals().total() <= report.shard_time_sum(),
                    "flush round {i}: phase breakdown exceeds shard busy time"
                );
            }
            assert_identical(
                &seq.service().published(),
                &par.service().published(),
                &thresholds,
                &format!("flush round {i}"),
            );
        }
    }
}

#[test]
fn on_read_policy_is_thread_count_independent() {
    rayon::configure_threads(4);
    let n = 32;
    let stream = GraphWorkloadBuilder::new(n)
        .weight_scale(6.0)
        .churn_stream(2 * n, 400, 0xD15EA5E);
    let build = |threads| {
        ServiceBuilder::new()
            .vertices(n)
            .shards(3)
            .partitioner(BlockPartitioner { block_size: 11 })
            .flush_policy(FlushPolicy::OnRead)
            .threads(threads)
            .build()
            .expect("valid test configuration")
            .into_driver()
    };
    let (mut seq, mut par) = (build(1), build(4));
    for (i, &update) in stream.iter().enumerate() {
        feed(&mut seq, [update]);
        feed(&mut par, [update]);
        if i % 37 == 0 {
            // Under OnRead, a pump drains *and* publishes everything pending — concurrently
            // on `par`.
            seq.pump().expect("validated stream");
            par.pump().expect("validated stream");
            assert_identical(
                &seq.service().published(),
                &par.service().published(),
                &[1.5, 4.0, f64::INFINITY],
                &format!("read at op {i}"),
            );
        }
    }
    seq.pump().expect("validated stream");
    par.pump().expect("validated stream");
    assert_identical(
        &seq.service().published(),
        &par.service().published(),
        &[1.5, 4.0, f64::INFINITY],
        "final read",
    );
}

/// The concurrent fan-out starts the shard with the most pending operations first. On a
/// 2-shard + spill service whose spill buffer is the largest, that changes only which flush
/// starts first: the reports still come back in shard order, equal to a sequential flush's,
/// and so do the published clusterings.
#[test]
fn heaviest_shard_first_keeps_reports_in_shard_order() {
    rayon::configure_threads(4);
    let n = 60;
    // Two blocks of 30 vertices: about half of the random pairs cross them, so the spill
    // shard buffers about twice what either routed shard does.
    let stream = GraphWorkloadBuilder::new(n)
        .weight_scale(8.0)
        .churn_stream(3 * n, 900, 0x5B111);
    let build = |threads| {
        ServiceBuilder::new()
            .vertices(n)
            .shards(2)
            .partitioner(BlockPartitioner { block_size: 30 })
            .flush_policy(FlushPolicy::Manual)
            .threads(threads)
            .build()
            .expect("valid test configuration")
            .into_driver()
    };
    let (mut seq, mut par) = (build(1), build(4));
    let order = [ShardId::Routed(0), ShardId::Routed(1), ShardId::Spill];
    let mut spill_largest = 0;
    for (i, chunk) in stream.chunks(150).enumerate() {
        feed(&mut seq, chunk.iter().copied());
        feed(&mut par, chunk.iter().copied());
        seq.pump().expect("validated stream");
        par.pump().expect("validated stream");
        let rs = seq.flush().expect("validated stream");
        let rp = par.flush().expect("validated stream");
        for (report, name) in [(&rs, "threads(1)"), (&rp, "threads(4)")] {
            let ids: Vec<ShardId> = report.reports.iter().map(|(id, _)| *id).collect();
            assert_eq!(
                ids, order,
                "flush round {i}: {name} reports out of shard order"
            );
        }
        for ((_, s), (id, p)) in rs.reports.iter().zip(&rp.reports) {
            let context = format!("flush round {i}, shard {id:?}");
            assert_eq!(s.epoch, p.epoch, "{context}");
            assert_eq!(s.ops_applied, p.ops_applied, "{context}");
            assert_eq!(s.changes, p.changes, "{context}");
            assert_eq!(s.promoted, p.promoted, "{context}");
            assert_eq!(
                (s.fast_path, s.fallback),
                (p.fast_path, p.fallback),
                "{context}"
            );
        }
        let ops: Vec<usize> = rs.reports.iter().map(|(_, r)| r.ops_applied).collect();
        if ops[2] > ops[0].max(ops[1]) {
            spill_largest += 1;
        }
        assert_identical(
            &seq.service().published(),
            &par.service().published(),
            &[1.5, 4.0, f64::INFINITY],
            &format!("flush round {i}"),
        );
    }
    assert!(
        spill_largest >= 4,
        "the spill buffer was the largest in only {spill_largest} of 6 flushes"
    );
}
