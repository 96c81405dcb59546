//! Delta serving over the wire: one [`DeltaServer`], several [`WireSubscriber`] threads.
//!
//! Run with `cargo run --release --example delta_serving`.
//!
//! Layout: a producer streams a planted-community workload into a 2-shard service whose
//! background [`FlusherDriver`] publishes a new view every few hundred events and retains a
//! bounded ring of per-publish deltas. A `DeltaServer` fronts the service on an ephemeral
//! local TCP port; three subscriber threads poll it concurrently with validator-guarded
//! requests. Each poll is one of three exchanges: a no-body `304` when the subscriber's
//! `If-None-Match` ETag (the epoch vector) still matches, a delta patch proportional to
//! what changed when its revision is in the ring, or a full snapshot when it fell too far
//! behind. At the end every mirror is asserted **bit-identical** to the service's published
//! view — dendrogram records, labels, and member lists.
//!
//! With `DYNSLD_WIRE_OUT=<dir>` the example also performs raw socket exchanges against all
//! three endpoints and writes the JSON bodies there (`head.json`, `snapshot.json`,
//! `delta.json`) so external tooling can validate the wire payloads. With
//! `DYNSLD_FAULTS=<spec>` (a `FaultPlan::parse` spec) the server injects those connection
//! faults, and the example asserts the subscribers retried through them.

use dynsld_engine::{FaultPlan, FlushPolicy, GreedyPartitioner, ServiceBuilder};
use dynsld_forest::workload::GraphWorkloadBuilder;
use dynsld_serve::{DeltaServer, ServerOptions, SyncOutcome, WireSubscriber};
use dynsld_telemetry::Telemetry;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

const N: usize = 512;
const COMMUNITIES: usize = 16;
const NUM_OPS: usize = 6_000;
const SUBSCRIBERS: usize = 3;
const TAU: f64 = 2.0;

/// A raw one-shot `GET` (the whole wire protocol fits in a dozen lines of plain sockets):
/// returns the status code and the body.
fn http_get(addr: SocketAddr, path: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("server reachable");
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )
    .expect("request written");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("response read");
    let status = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code");
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

/// Kill-and-restart smoke (`DYNSLD_RESTART_SMOKE=1`): a durable service serves a wire
/// subscriber, the whole process state is thrown away mid-stream (server down, driver
/// dropped — no clean close, no final checkpoint), and a second life recovered from the
/// same directory keeps ingesting. The subscriber repoints at the restarted server and
/// must converge: its mirror ends bit-identical to the recovered service's published view.
fn restart_smoke() {
    let n = 128;
    let dir = std::env::temp_dir().join(format!("dynsld-restart-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let build = || {
        ServiceBuilder::new()
            .vertices(n)
            .shards(2)
            .flush_policy(FlushPolicy::EveryNOps(64))
            .delta_ring(64)
            .durable(&dir)
            .build()
            .expect("valid configuration")
    };
    let stream = GraphWorkloadBuilder::new(n)
        .weight_scale(8.0)
        .community_stream(8, 0.10, 2 * n, 1_500, 42);
    let split = stream.updates.len() / 2;

    // First life: journal and serve half the stream, then die without ceremony.
    let first_revision;
    let mut subscriber;
    {
        let service = build();
        let ingest = service.ingest_handle();
        let read = service.read_handle();
        let mut driver = service.into_driver();
        let server =
            DeltaServer::bind("127.0.0.1:0", read.clone(), Telemetry::disabled()).expect("bind");
        for &update in &stream.updates[..split] {
            ingest.submit(update).expect("queue open");
        }
        driver.pump().expect("valid stream");
        driver.flush().expect("flush");
        subscriber = WireSubscriber::connect(server.local_addr()).expect("connect");
        let report = subscriber.sync().expect("first-life sync");
        first_revision = report.revision;
        server.shutdown();
        // The crash: driver, handles, and service drop here with the queue still open.
    }

    // Second life: recover from the journal, finish the stream, serve on a fresh socket.
    let service = build();
    let recovery = service.durability().expect("durable service").clone();
    assert!(recovery.recovered, "the journal must drive a recovery");
    let ingest = service.ingest_handle();
    let read = service.read_handle();
    let mut driver = service.into_driver();
    for &update in &stream.updates[split..] {
        ingest.submit(update).expect("queue open");
    }
    driver.pump().expect("valid stream");
    driver.flush().expect("flush");
    let server =
        DeltaServer::bind("127.0.0.1:0", read.clone(), Telemetry::disabled()).expect("rebind");
    subscriber.reconnect(server.local_addr()).expect("repoint");
    let caught_up = subscriber.sync().expect("post-restart sync");

    // Convergence pin: the pre-crash mirror ends bit-identical to the recovered view.
    let published = read.snapshot();
    let mirror = subscriber.mirror().expect("synced");
    assert_eq!(mirror.revision(), published.revision());
    assert_eq!(mirror.epochs(), published.epochs());
    let (a, b) = (mirror.flat_clustering(TAU), published.flat_clustering(TAU));
    assert_eq!(a.labels, b.labels, "labels diverged across the restart");
    assert_eq!(
        a.clusters, b.clusters,
        "member lists diverged across the restart"
    );
    println!(
        "restart smoke OK: first life served revision {first_revision} \
         ({} records durable, checkpoint lsn {}, {} replayed), subscriber converged at \
         revision {} via {:?}",
        recovery.records_durable,
        recovery.checkpoint_lsn,
        recovery.wal_records_replayed,
        published.revision(),
        caught_up.outcome
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

fn main() {
    if std::env::var("DYNSLD_RESTART_SMOKE").as_deref() == Ok("1") {
        return restart_smoke();
    }
    let telemetry = Telemetry::enabled();
    let service = ServiceBuilder::new()
        .vertices(N)
        .shards(2)
        .stateful_partitioner(GreedyPartitioner::default())
        .flush_policy(FlushPolicy::EveryNOps(256))
        .delta_ring(64)
        .telemetry(telemetry.clone())
        .build()
        .expect("valid configuration");
    let ingest = service.ingest_handle();
    let read = service.read_handle();
    // `DYNSLD_FAULTS` arms connection rules (`drop_conn`, `delay`, `torn_write`) on the
    // server; the subscribers' retry loops must absorb them.
    let fault_spec = std::env::var("DYNSLD_FAULTS").ok();
    let faults = fault_spec
        .as_deref()
        .map_or_else(FaultPlan::disabled, |spec| {
            FaultPlan::parse(spec).expect("DYNSLD_FAULTS is a valid fault spec")
        });
    let server = DeltaServer::bind_with(
        "127.0.0.1:0",
        read.clone(),
        telemetry.clone(),
        ServerOptions {
            faults,
            ..ServerOptions::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr();
    println!("delta server on {addr}");

    // The driver parks on the queue on its own thread; the final revision is broadcast to
    // the subscribers once the stream is closed and drained (u64::MAX = still streaming).
    let final_revision = Arc::new(AtomicU64::new(u64::MAX));
    let driver_thread = thread::spawn({
        let mut driver = service.into_driver();
        move || {
            driver.run_until_closed().expect("pipeline closes cleanly");
            driver
        }
    });

    let subscriber_threads: Vec<_> = (0..SUBSCRIBERS)
        .map(|i| {
            let final_revision = Arc::clone(&final_revision);
            thread::spawn(move || {
                let mut subscriber = WireSubscriber::connect(addr).expect("connect");
                let (mut unchanged, mut patched, mut refreshed) = (0u64, 0u64, 0u64);
                loop {
                    let report = subscriber.sync().expect("sync exchange");
                    match report.outcome {
                        SyncOutcome::Unchanged => unchanged += 1,
                        SyncOutcome::Patched { .. } => patched += 1,
                        SyncOutcome::Refreshed { .. } => refreshed += 1,
                    }
                    let goal = final_revision.load(Ordering::Acquire);
                    if goal != u64::MAX && report.revision >= goal {
                        return (subscriber, unchanged, patched, refreshed);
                    }
                    // Staggered polling cadences so the three subscribers drift apart and
                    // exercise chains of different lengths.
                    thread::sleep(Duration::from_millis(1 + 2 * i as u64));
                }
            })
        })
        .collect();

    // Stream a planted-community workload (16 hidden communities, 10% cross links).
    let stream = GraphWorkloadBuilder::new(N)
        .weight_scale(8.0)
        .community_stream(COMMUNITIES, 0.10, 2 * N, NUM_OPS, 42);
    for &update in &stream.updates {
        ingest.submit(update).expect("queue open");
    }
    ingest.close();
    let driver = driver_thread.join().expect("driver thread");
    final_revision.store(read.revision(), Ordering::Release);

    // Every wire mirror must be bit-identical to the published view.
    let published = read.snapshot();
    let mut retries = 0;
    for (i, handle) in subscriber_threads.into_iter().enumerate() {
        let (subscriber, unchanged, patched, refreshed) = handle.join().expect("subscriber");
        let mirror = subscriber.mirror().expect("at least one sync happened");
        assert_eq!(mirror.revision(), published.revision());
        for (replayed, shard) in mirror.shards().zip(published.shard_snapshots()) {
            assert_eq!(replayed, shard.dendrogram(), "subscriber {i} diverged");
        }
        let (a, b) = (mirror.flat_clustering(TAU), published.flat_clustering(TAU));
        assert_eq!(a.labels, b.labels, "subscriber {i}: labels diverged");
        assert_eq!(
            a.clusters, b.clusters,
            "subscriber {i}: member lists diverged"
        );
        let stats = subscriber.stats();
        retries += stats.retries;
        println!(
            "subscriber {i}: {unchanged} unchanged (304), {patched} patched, {refreshed} full, \
             {} wire retries, {} timeouts",
            stats.retries, stats.timeouts
        );
    }
    if fault_spec.is_some() {
        assert!(retries > 0, "no injected wire fault fired");
    }
    println!(
        "published revision {}, {} clusters at tau={TAU}",
        published.revision(),
        published.num_clusters(TAU)
    );

    let metrics = driver.service().metrics();
    println!(
        "served: {} full, {} delta ({} delta bytes, {} ring-ageout fallbacks), delta hit share {:.2}",
        metrics.snapshots_served,
        metrics.deltas_served,
        metrics.delta_bytes_out,
        metrics.full_fallbacks,
        metrics.delta_hit_share()
    );
    assert!(
        metrics.deltas_served > 0,
        "the workload must exercise delta syncs"
    );

    // Optional artefact dump: one raw body per endpoint, for external JSON validation.
    if let Ok(dir) = std::env::var("DYNSLD_WIRE_OUT") {
        std::fs::create_dir_all(&dir).expect("output directory");
        let since = published.revision().saturating_sub(1);
        for (name, path) in [
            ("head", "/v1/head".to_string()),
            ("snapshot", "/v1/snapshot".to_string()),
            ("delta", format!("/v1/delta?since={since}")),
        ] {
            let (status, body) = http_get(addr, &path);
            assert_eq!(status, 200, "GET {path}");
            let file = format!("{dir}/{name}.json");
            std::fs::write(&file, &body).expect("payload written");
            println!("wrote {file} ({} bytes)", body.len());
        }
    }

    server.shutdown();
    let snapshot = telemetry.snapshot();
    if let Some(h) = snapshot.histogram("serve.delta_ns") {
        println!(
            "serve.delta_ns: {} replies, p50 {}ns, max {}ns; serve.bytes_out: {} bytes",
            h.count,
            h.quantile(0.5),
            h.max,
            snapshot.counter("serve.bytes_out").unwrap_or(0)
        );
    }
}
