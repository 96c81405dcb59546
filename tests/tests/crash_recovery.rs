//! Durability: a process crash at an arbitrary point — right after a WAL append, mid
//! checkpoint write (leaving the newest checkpoint corrupt), or tearing the WAL's final
//! record — must lose nothing that was durable and invent nothing that was not. The pin:
//! rebuild the service from the same directory and its published view is **bit-identical**
//! (canonical labels AND sorted member lists) to a no-crash oracle fed exactly the durable
//! prefix of the stream, under any drawn service configuration, with vertex growth
//! journaled mid-stream.

use dynsld_engine::{FaultPlan, FlushPolicy, FlusherDriver, GraphUpdate, ServiceBuilder};
use dynsld_forest::workload::GraphWorkloadBuilder;
use dynsld_tests::{assert_bit_identical, configs, drain, feed, TempDir, ENTRY_PANICS, TAUS};
use proptest::prelude::*;

/// The logical record stream a durable service journals: routed edge events plus vertex
/// growth, in submission order — exactly the WAL's record order.
#[derive(Clone, Copy, Debug)]
enum Op {
    Event(GraphUpdate),
    Grow(usize),
}

/// Feeds the first `count` logical records through a service's normal batch paths,
/// draining every `chunk` events so checkpoint opportunities recur mid-stream. The final
/// clustering is a pure function of the surviving record prefix, so the oracle may use
/// any drain pattern — this one is shared for symmetry.
fn feed_prefix(driver: &mut FlusherDriver, ops: &[Op], count: usize, chunk: usize) {
    let mut since_drain = 0;
    for op in &ops[..count] {
        match *op {
            Op::Event(event) => {
                feed(driver, [event]);
                since_drain += 1;
                if since_drain >= chunk {
                    drain(driver);
                    since_drain = 0;
                }
            }
            Op::Grow(k) => {
                drain(driver); // growth cuts a drain boundary, exactly like the first life
                since_drain = 0;
                driver.add_vertices(k);
            }
        }
    }
    drain(driver);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// The PR's acceptance property. A durable service killed at an arbitrary injected
    /// crash point — after the `c`-th WAL append, tearing the `c`-th WAL record, or
    /// corrupting a checkpoint write (with and without an older valid checkpoint to fall
    /// back to) — recovers on rebuild to exactly the state of a no-crash oracle fed the
    /// durable prefix `ops[..records_durable]`, under any drawn configuration. Both lives
    /// journal into one directory of their own; the oracle is the configuration as drawn.
    #[test]
    fn crash_anywhere_recovers_bit_identical_to_the_durable_prefix_oracle(
        config in configs(),
        seed in 0u64..1 << 48,
        n in 6usize..32,
        num_ops in 16usize..80,
        crash_mode in 0usize..4,
        crash_at in 1u64..48,
        growth in 0usize..3,
        ckpt_pick in 0usize..3,
        chunk in 3usize..9,
    ) {
        // The four pinned crash points. Checkpoint cadence is forced where the scenario
        // needs it: `mid_checkpoint` with cadence 1 corrupts a checkpoint that *has* valid
        // predecessors (recovery must fall back past the corrupt newest); with a sparser
        // cadence the corrupt write is the first, so recovery falls back to WAL-only.
        let (spec, checkpoint_every) = match crash_mode {
            0 => (format!("crash=after_wal:{crash_at}"), [1, 8, u64::MAX][ckpt_pick]),
            1 => ("crash=mid_checkpoint:1".to_string(), [4, 8, 16][ckpt_pick]),
            2 => (format!("wal_torn=at:{crash_at}"), [1, 8, u64::MAX][ckpt_pick]),
            _ => (format!("crash=mid_checkpoint:{}", 2 + crash_at % 4), 1),
        };
        // The lives take the configuration's entry panics but not its ambient crashes:
        // their crash point is the one under test.
        let dir = TempDir::new("crash-prop");
        let life = |crash: &str| {
            let entry = if config.entry_panics { ENTRY_PANICS } else { "" };
            config
                .builder(n)
                .checkpoint_every_records(checkpoint_every)
                .durable(dir.path())
                .faults(FaultPlan::parse(&format!("{crash};{entry}")).expect("valid spec"))
                .build()
                .expect("valid configuration")
        };

        let stream = GraphWorkloadBuilder::new(n)
            .weight_scale(8.0)
            .churn_stream(2 * n, num_ops, seed);
        let split = stream.len() / 2;
        let mut ops: Vec<Op> = stream[..split].iter().copied().map(Op::Event).collect();
        if growth > 0 {
            ops.push(Op::Grow(growth));
        }
        ops.extend(stream[split..].iter().copied().map(Op::Event));

        // First life: journal the whole stream; the injected fault kills the process at
        // its crash point (everything after it is lost, exactly like a real crash).
        {
            let mut driver = FlusherDriver::new(life(&spec));
            feed_prefix(&mut driver, &ops, ops.len(), chunk);
        }

        // Second life: recovery loads the newest valid checkpoint (falling back past a
        // corrupt one) and replays the WAL tail through the normal batch paths.
        let recovered = life("");
        let report = recovered.durability().expect("durable service").clone();
        prop_assert!(report.replay_rejected.is_empty(), "the stream was valid end-to-end");
        let durable = report.records_durable as usize;
        prop_assert!(durable <= ops.len(), "nothing beyond the stream can be durable");
        match crash_mode {
            // Crash after the c-th append: that record IS durable, nothing later is.
            0 => prop_assert_eq!(durable, ops.len().min(crash_at as usize)),
            // Torn c-th record: truncated on open, so the durable prefix stops before it.
            2 => {
                if (crash_at as usize) <= ops.len() {
                    prop_assert_eq!(durable, crash_at as usize - 1);
                    prop_assert_eq!(report.torn_tails_truncated, 1);
                } else {
                    prop_assert_eq!(durable, ops.len());
                }
            }
            // A corrupt checkpoint write kills the process at a drain boundary: the
            // records appended up to that boundary stay durable, everything after the
            // death is lost. Where the boundary falls depends on the checkpoint gating,
            // so the exact count is data-dependent — the oracle equality below is the pin.
            _ => {}
        }
        if crash_mode == 3 && report.corrupt_checkpoints_skipped > 0 {
            // Cadence 1 wrote valid checkpoints before the corrupt one: recovery must have
            // fallen back to one of them, not to WAL-only replay.
            prop_assert!(report.checkpoint_lsn > 0, "an older valid checkpoint existed");
        }

        // The oracle's engines never crashed (a durable configuration's own journal may
        // die) and were only ever shown the durable prefix.
        let oracle = config.builder(n).checkpoint_every_records(checkpoint_every);
        let mut oracle = FlusherDriver::new(oracle.build().expect("valid configuration"));
        feed_prefix(&mut oracle, &ops, durable, chunk);
        assert_bit_identical(
            &recovered.published(),
            &oracle.service().published(),
            &TAUS,
            &format!(
                "spec={spec} ckpt_every={checkpoint_every} durable={durable}/{} \
                 report={report:?}",
                ops.len()
            ),
        );
    }
}

/// Deterministic spot-check of the full lifecycle: ingest → checkpoint → more ingest →
/// hard drop → recover → **keep going**. The recovered service is not just a readable
/// museum piece — it accepts new events, flushes, checkpoints again, and a third life
/// recovers from the second's artifacts.
#[test]
fn recovered_service_keeps_ingesting_checkpointing_and_recovering() {
    let n = 16;
    let dir = TempDir::new("relay");
    let build = || {
        ServiceBuilder::new()
            .vertices(n)
            .shards(2)
            .flush_policy(FlushPolicy::Manual)
            .durable(dir.path())
            .checkpoint_every_records(4)
            .build()
            .expect("valid configuration")
    };
    let stream = GraphWorkloadBuilder::new(n)
        .weight_scale(8.0)
        .churn_stream(2 * n, 36, 42);
    let (a, b, c) = (stream.len() / 3, 2 * stream.len() / 3, stream.len());

    {
        let mut driver = FlusherDriver::new(build());
        let ingest = driver.service().ingest_handle();
        ingest.submit_all(stream[..a].iter().copied()).unwrap();
        drain(&mut driver);
        assert!(driver.service().metrics().checkpoints_written >= 1);
    } // crash #1

    {
        let service = build();
        assert!(service.durability().expect("durable").recovered);
        let mut driver = FlusherDriver::new(service);
        let ingest = driver.service().ingest_handle();
        ingest.submit_all(stream[a..b].iter().copied()).unwrap();
        drain(&mut driver);
    } // crash #2

    let third = build();
    let report = third.durability().expect("durable").clone();
    assert!(report.recovered);
    assert_eq!(report.records_durable, b as u64);

    // Third life keeps serving AND ingesting: finish the stream and compare against a
    // never-crashed oracle fed all of it.
    let mut driver = FlusherDriver::new(third);
    let ingest = driver.service().ingest_handle();
    ingest.submit_all(stream[b..c].iter().copied()).unwrap();
    drain(&mut driver);

    let oracle = ServiceBuilder::new()
        .vertices(n)
        .shards(2)
        .flush_policy(FlushPolicy::Manual)
        .build()
        .expect("valid configuration");
    let mut oracle = FlusherDriver::new(oracle);
    let oracle_ingest = oracle.service().ingest_handle();
    oracle_ingest.submit_all(stream.iter().copied()).unwrap();
    drain(&mut oracle);

    assert_bit_identical(
        &driver.service().published(),
        &oracle.service().published(),
        &TAUS,
        "three-life relay",
    );
}

/// Recovery must bump the published revision past anything the first life served, so a
/// cached validator (an ETag derived from the revision) can never alias the recovered
/// view with a pre-crash one.
#[test]
fn recovery_republishes_at_a_fresh_revision() {
    let n = 8;
    let dir = TempDir::new("revision");
    let first_revision;
    {
        let service = ServiceBuilder::new()
            .vertices(n)
            .shards(2)
            .flush_policy(FlushPolicy::Manual)
            .durable(dir.path())
            .checkpoint_every_records(1)
            .build()
            .expect("valid configuration");
        let mut driver = FlusherDriver::new(service);
        let ingest = driver.service().ingest_handle();
        let stream = GraphWorkloadBuilder::new(n)
            .weight_scale(4.0)
            .churn_stream(2 * n, 12, 7);
        for &event in &stream {
            ingest.submit(event).unwrap();
            drain(&mut driver);
        }
        first_revision = driver.service().published().revision();
        assert!(first_revision > 0);
    }
    let recovered = ServiceBuilder::new()
        .vertices(n)
        .shards(2)
        .flush_policy(FlushPolicy::Manual)
        .durable(dir.path())
        .build()
        .expect("valid configuration");
    assert!(
        recovered.published().revision() > first_revision,
        "recovery must republish past every revision the first life served"
    );
    let report = recovered.durability().expect("durable");
    assert!(report.recovered);
    assert!(
        report.checkpoint_lsn > 0,
        "checkpoints were written every record"
    );
}

/// `ClusterService` must still build and serve when the durable directory is brand new
/// (cold start) — recovery is strictly opt-in on finding artifacts, never an error.
#[test]
fn cold_start_on_an_empty_directory_is_not_a_recovery() {
    let dir = TempDir::new("cold");
    let service = ServiceBuilder::new()
        .vertices(4)
        .durable(dir.path())
        .build()
        .expect("valid configuration");
    let report = service.durability().expect("durable");
    assert!(
        !report.recovered,
        "an empty directory has nothing to recover"
    );
    assert_eq!(report.records_durable, 0);
}
