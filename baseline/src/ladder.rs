//! The traced run: per-layer numbers taken from outside the layers.
//!
//! Three sources, none of which needs a source change:
//!
//! * **harness spans** around each public call (`submit`, `pump`, `flush`, the reader ops, the
//!   wire exchanges), recorded into a harness-owned `Telemetry` that the service shares;
//! * **the reports those calls already return** (`ServiceFlushReport::phase_totals`, `Metrics`,
//!   `WorkCounters`, `ExportStats`, `UpdateStats`, `WireStats`, `DurabilityReport`);
//! * **a layer ladder**: the same slice of the same stream replayed one layer down at a time —
//!   `ClusterService` -> `ClusteringEngine` -> `DynamicGraphClustering` -> a bare `DynSld` fed the
//!   forest operations the MSF rung emitted -> `LinkCutTree` / `EulerTourForest` fed the same
//!   link/cut sequence. A layer's self time is its rung minus the rung below.
//!
//! Every rung replays `traced_share` of the timed events, so the whole traced run takes about
//! as long as the untraced one.

use crate::e2e::{drive, set_up};
use crate::oracle::LiveGraph;
use crate::report::RunDoc;
use crate::run::{
    builder, feed, nproc, Drive, Failure, Session, TmpRoot, Verdict, READ_THRESHOLDS,
};
use crate::stats::{mean, median, percentile, ratio};
use crate::workloads::{Mode, Plan, Stream};
use dynsld::{
    static_sld_kruskal, static_sld_parallel, DynSld, DynSldOptions, ForestBackend, UpdateStrategy,
};
use dynsld_dyntree::{EulerTourForest, LinkCutTree};
use dynsld_engine::{ClusteringEngine, FaultPlan, GraphUpdate, ReadHandle, ShardId, SyncResponse};
use dynsld_forest::{EdgeId, RankKey, VertexId, Weight};
use dynsld_msf::{DynamicGraphClustering, MsfChange, WorkCounters};
use dynsld_serve::codec::{decode_message, encode_patch, encode_snapshot};
use dynsld_serve::{DeltaServer, Mirror, Subscriber, WireMessage, WireSubscriber};
use dynsld_telemetry::{Telemetry, TelemetrySnapshot};
use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn ns(d: Duration) -> f64 {
    d.as_secs_f64() * 1e9
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Times one call.
fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed())
}

fn options(backend: ForestBackend) -> DynSldOptions {
    DynSldOptions {
        strategy: UpdateStrategy::Sequential,
        maintain_spine_index: false,
        msf_backend: backend,
    }
}

/// The traced run of one workload. Returns the document and the harness's telemetry snapshot
/// (for `--trace-out`).
pub fn run(plan: &Plan, seed: u64, seconds: f64) -> Result<(RunDoc, TelemetrySnapshot), Failure> {
    let tmp = TmpRoot::new()?;
    let mut doc = RunDoc {
        workload: plan.name.to_string(),
        seed,
        seconds,
        traced: true,
        ..RunDoc::default()
    };
    // The traced run replays the head of the untraced run's timed events for the same seed.
    let slice = {
        let events = plan.timed_events(seconds) as f64 * plan.traced_share;
        (events as usize).div_ceil(plan.batch).max(1) * plan.batch
    };
    // Room for a Begin/End pair per harness span, per engine flush and (on the pipeline, where
    // a drain can be a single event) per event: a full ring drops events, and a dropped End
    // fails `check_well_formed`.
    let ring = (slice * 4 + slice / plan.batch * 64 + 65_536)
        .next_power_of_two()
        .min(1 << 23);
    let telemetry = Telemetry::enabled_with_capacity(ring);
    let off = Telemetry::disabled();

    // --- the service rung: untraced twin, traced, untraced twin ---------------------------
    // The first session of a process pays for growing the heap, so the traced run sits between
    // two untraced twins and is compared with their mean.
    let (stream, twin, _, generated) = set_up(plan, seed, slice, &off, &tmp)?;
    let all_events = stream.preload.len() + stream.timed.len() + stream.tail.len();
    doc.push(
        "forest.gen_events_per_s",
        ratio(all_events as f64, generated),
        all_events as u64,
    );
    let untraced_run = |mut twin: Session| -> Result<f64, Failure> {
        Ok(drive(plan, &mut twin, &stream, seconds, &off)?
            .wall
            .as_secs_f64())
    };
    let before = untraced_run(twin)?;
    let mut session = Session::start(plan, &stream, &telemetry, &tmp)?;
    let mut traced = drive(plan, &mut session, &stream, seconds, &telemetry)?;
    let metrics = session.metrics();
    engine_metrics(&mut doc, plan, &mut traced, &metrics);
    doc.attempted += traced.events as u64;
    doc.failed += traced.rejected + traced.failed_reads;

    // The serving-tier rung continues on the traced session; a closed pipeline cannot accept
    // the tail, so `queue_handoff` feeds a fresh session the same slice inline first.
    if plan.mode == Mode::Pipeline {
        drop(session);
        session = Session::start(plan, &stream, &telemetry, &tmp)?;
        feed(&session.ingest, &mut session.driver, &stream.timed)?;
        session.driver.flush()?;
    }
    let mut live = LiveGraph::new(plan.n);
    live.apply_all(&stream.preload);
    let after_preload = live.edges();
    live.apply_all(&stream.timed);
    serving_rung(&mut doc, plan, &mut session, &stream, &mut live, &telemetry)?;
    drop(session);

    let after = untraced_run(Session::start(plan, &stream, &off, &tmp)?)?;
    doc.push(
        "telemetry.traced_overhead_share",
        ratio(traced.wall.as_secs_f64(), (before + after) / 2.0) - 1.0,
        traced.events as u64,
    );

    // --- one layer down at a time ---------------------------------------------------------
    engine_rung(&mut doc, plan, &stream)?;
    let scan = msf_rung(plan, &after_preload, &stream.timed, ForestBackend::Scan)?;
    let hdt = msf_rung(plan, &after_preload, &stream.timed, ForestBackend::Hdt)?;
    let core_total = core_rung(&mut doc, plan, &scan)?;
    msf_metrics(&mut doc, &stream, scan, &hdt, core_total);
    durable_rung(&mut doc, plan, &stream, &tmp)?;

    let snapshot = telemetry.snapshot();
    doc.push(
        "telemetry.spans_dropped",
        snapshot.trace.total_dropped() as f64,
        snapshot.trace.total_events() as u64,
    );
    Ok((doc, snapshot))
}

/// `engine.*` from the harness spans and the flush reports of the traced service run.
fn engine_metrics(doc: &mut RunDoc, plan: &Plan, d: &mut Drive, metrics: &dynsld_engine::Metrics) {
    let events = d.events as f64;
    let n = d.events as u64;
    let t = &d.totals;
    let flushes = t.flushes as f64;
    doc.push("engine.submit_ns_per_event", ns(d.submit) / events, n);
    doc.push("engine.pump_ns_per_event", ns(d.pump) / events, n);
    doc.push(
        "engine.flush_us_per_flush",
        ratio(us(d.flush), flushes),
        t.flushes,
    );
    doc.push(
        "engine.submit_p99_us",
        percentile(&mut d.submit_us, 0.99),
        d.submit_us.len() as u64,
    );
    for (name, phase) in [
        ("engine.coalesce_ns_per_event", t.phases.coalesce),
        ("engine.classify_ns_per_event", t.phases.classify),
        ("engine.replacement_ns_per_event", t.phases.replacement),
        ("engine.apply_ns_per_event", t.phases.apply),
        ("engine.export_ns_per_event", t.phases.export),
        ("engine.publish_ns_per_event", t.phases.publish),
    ] {
        doc.push(name, ns(phase) / events, n);
    }
    // Inline: what a service flush costs beyond its slowest shard. Pipeline: what the driver
    // thread did outside the engine flushes (pop, route, park), per flush.
    let overhead = match plan.mode {
        Mode::Pipeline => d.pump,
        _ => t.wall.saturating_sub(t.slowest_shard),
    };
    doc.push(
        "engine.service_overhead_us_per_flush",
        ratio(us(overhead), flushes),
        t.flushes,
    );
    doc.push(
        "engine.flush_overlap",
        ratio(t.shard_sum.as_secs_f64(), t.wall.as_secs_f64()),
        t.flushes,
    );
    doc.push("engine.coalesce_ratio", t.ops_applied as f64 / events, n);
    doc.push(
        "engine.fast_path_share",
        ratio(t.fast_path as f64, (t.fast_path + t.fallback) as f64),
        t.fast_path + t.fallback,
    );
    doc.push(
        "engine.spill_routing_share",
        ratio(t.spill_ops as f64, t.ops_applied as f64),
        t.ops_applied,
    );
    let load_ratio = if t.event_load_ratio.is_finite() {
        t.event_load_ratio
    } else {
        0.0
    };
    doc.push("engine.event_load_ratio", load_ratio, t.flushes);
    doc.push(
        "engine.queue_block_waits_per_kevent",
        metrics.queue_block_waits as f64 * 1e3 / events,
        n,
    );
    doc.push("engine.queue_depth_max", metrics.queue_depth_max as f64, n);
    doc.push(
        "engine.rss_growth_bytes_per_event",
        (d.rss_end_kib as f64 - d.rss_start_kib as f64) * 1024.0 / events,
        n,
    );
}

/// Events per publish in the serving-tier rung.
const TAIL_BATCH: usize = 8;

/// The serving tier from outside, on the session the traced run left behind: after each small
/// publish, every way a reader or subscriber can catch up is timed once.
fn serving_rung(
    doc: &mut RunDoc,
    plan: &Plan,
    session: &mut Session,
    stream: &Stream,
    live: &mut LiveGraph,
    telemetry: &Telemetry,
) -> Result<(), Failure> {
    let read: ReadHandle = session.read.clone();
    if session.wire.is_none() {
        let server = DeltaServer::bind("127.0.0.1:0", read.clone(), telemetry.clone())?;
        let mut wire = WireSubscriber::connect(server.local_addr())?;
        wire.sync()?;
        session.server = Some(server);
        session.wire = Some(wire);
    }
    let snapshot = read.snapshot();
    let (text, encode_snapshot_time) = timed(|| encode_snapshot(&snapshot));
    doc.push("serve.encode_snapshot_ms", ms(encode_snapshot_time), 1);
    doc.push("serve.snapshot_bytes", text.len() as f64, 1);
    let (mut mirror, from_snapshot) = timed(|| Mirror::from_snapshot(&snapshot));
    doc.push("serve.mirror_from_snapshot_ms", ms(from_snapshot), 1);
    let mut subscriber = Subscriber::with_telemetry(read.clone(), telemetry.clone());
    subscriber.sync();

    let mut s: HashMap<&'static str, Vec<f64>> = HashMap::new();
    let mut rec = |name: &'static str, value: f64| s.entry(name).or_default().push(value);
    let mut failed = 0u64;
    for (i, batch) in stream.tail.chunks(TAIL_BATCH).enumerate() {
        let before = read.revision();
        session.ingest.submit_all(batch.iter().copied())?;
        failed += session.driver.pump()?.rejected.len() as u64;
        session.driver.flush()?;
        let tau = READ_THRESHOLDS[i % READ_THRESHOLDS.len()];

        // The read side of the engine: a snapshot, a cold and a warm clustering, a pair query.
        let (snapshot, t) = timed(|| read.snapshot());
        rec("engine.snapshot_ns", ns(t));
        let (_, t) = timed(|| black_box(snapshot.num_clusters(tau)));
        rec("engine.flat_clustering_cold_us", us(t));
        let (_, t) = timed(|| black_box(snapshot.num_clusters(tau)));
        rec("engine.flat_clustering_warm_ns", ns(t));
        let (u, v) = (
            VertexId((i * 7919 % plan.n) as u32),
            VertexId((i * 31 % plan.n) as u32),
        );
        let (_, t) = timed(|| black_box(snapshot.same_cluster(u, v, tau)));
        rec("engine.same_cluster_ns", ns(t));

        // The delta path, stage by stage: ask, encode, decode, apply, query the replica.
        let (response, t) = timed(|| read.sync_from(Some(before)));
        rec("engine.sync_from_us", us(t));
        let SyncResponse::Delta(patch) = response else {
            failed += 1;
            continue;
        };
        rec(
            "engine.delta_changes_per_publish",
            patch.num_changes() as f64,
        );
        let (text, t) = timed(|| encode_patch(&patch));
        rec("serve.encode_patch_us", us(t));
        rec("serve.delta_bytes_per_publish", text.len() as f64);
        let (decoded, t) = timed(|| decode_message(&text));
        rec("serve.decode_patch_us", us(t));
        let Ok(WireMessage::Delta(decoded)) = decoded else {
            failed += 1;
            continue;
        };
        let (applied, t) = timed(|| mirror.apply(&decoded));
        rec("serve.mirror_apply_us", us(t));
        failed += u64::from(applied.is_err());
        let (_, t) = timed(|| black_box(mirror.num_clusters(tau)));
        rec("serve.mirror_query_cold_us", us(t));

        // The packaged subscribers: in-process, then over the loopback socket.
        let (_, t) = timed(|| subscriber.sync());
        rec("serve.inproc_sync_us", us(t));
        let wire = session.wire.as_mut().expect("bound above");
        let published = read.revision();
        let (synced, t) = timed(|| {
            let _span = telemetry.span("harness.wire_sync");
            wire.sync()
        });
        rec("serve.wire_sync_us", us(t));
        failed += u64::from(!synced.is_ok_and(|r| r.revision == published));
        let (unchanged, t) = timed(|| wire.sync());
        rec("serve.wire_unchanged_us", us(t));
        let (head, t) = timed(|| wire.head());
        rec("serve.wire_head_us", us(t));
        failed += u64::from(unchanged.is_err()) + u64::from(head.is_err());
    }
    for name in [
        "engine.snapshot_ns",
        "engine.flat_clustering_cold_us",
        "engine.flat_clustering_warm_ns",
        "engine.same_cluster_ns",
        "engine.sync_from_us",
        "engine.delta_changes_per_publish",
        "serve.encode_patch_us",
        "serve.delta_bytes_per_publish",
        "serve.decode_patch_us",
        "serve.mirror_apply_us",
        "serve.mirror_query_cold_us",
        "serve.inproc_sync_us",
        "serve.wire_sync_us",
        "serve.wire_unchanged_us",
        "serve.wire_head_us",
    ] {
        let samples = s.entry(name).or_default();
        // Counts are means (they are totals per publish); timings are medians.
        let value = if name.ends_with("_per_publish") {
            mean(samples)
        } else {
            median(samples)
        };
        doc.push(name, value, samples.len() as u64);
    }
    let m = session.metrics();
    doc.push(
        "serve.delta_hit_share",
        m.delta_hit_share(),
        m.deltas_served + m.full_fallbacks,
    );
    let wire = session.wire.as_ref().expect("bound above");
    doc.push("serve.wire_retries", wire.stats().retries as f64, 1);
    doc.push("serve.wire_timeouts", wire.stats().timeouts as f64, 1);

    // The oracle sees everything this session was fed: preload, slice and tail.
    live.apply_all(&stream.tail);
    let mut verdict = Verdict::default();
    verdict.check_snapshot(live, "published snapshot", &read.snapshot());
    verdict.check_mirror(live, "patched mirror", &mirror);
    verdict.check_mirror(
        live,
        "wire mirror",
        wire.mirror().expect("a synced subscriber has a mirror"),
    );
    if let Some(sub) = subscriber.mirror() {
        verdict.check_mirror(live, "in-process mirror", sub);
    }
    doc.attempted += stream.tail.len() as u64 + verdict.checks;
    doc.failed += failed + verdict.mismatches.len() as u64 + live.invalid;
    doc.notes.extend(verdict.mismatches);
    Ok(())
}

/// One rung down: a bare `ClusteringEngine` (no router, queue, shards or publish step) fed the
/// same slice with the same flush cadence.
fn engine_rung(doc: &mut RunDoc, plan: &Plan, stream: &Stream) -> Result<(), Failure> {
    let mut engine = ClusteringEngine::with_options(plan.n, options(ForestBackend::Scan));
    engine.set_telemetry(Telemetry::disabled());
    engine.set_faults(FaultPlan::disabled(), 0);
    engine.submit_all(stream.preload.iter().copied())?;
    engine.flush()?;
    let mut flushes = 0u64;
    let started = Instant::now();
    for batch in stream.timed.chunks(plan.batch) {
        engine.submit_all(batch.iter().copied())?;
        let report = engine.flush()?;
        flushes += u64::from(report.ops_applied > 0);
    }
    doc.push(
        "engine.direct_flush_us_per_flush",
        ratio(us(started.elapsed()), flushes as f64),
        flushes,
    );
    Ok(())
}

/// A forest operation the MSF layer performed on the dendrogram layer.
#[derive(Clone, Copy)]
enum ForestOp {
    Link(VertexId, VertexId, Weight),
    Cut(VertexId, VertexId),
}

/// What replaying the slice on a bare `DynamicGraphClustering` produced.
struct MsfRung {
    total: Duration,
    insert_ns: Vec<f64>,
    delete_nontree_ns: Vec<f64>,
    delete_tree_us: Vec<f64>,
    tree_changes: u64,
    counters: WorkCounters,
    /// The MSF after the preload — the forest the core rung starts from.
    initial_tree: Vec<(VertexId, VertexId, Weight)>,
    ops: Vec<ForestOp>,
}

fn msf_rung(
    plan: &Plan,
    after_preload: &[(u32, u32, f64)],
    events: &[GraphUpdate],
    backend: ForestBackend,
) -> Result<MsfRung, Failure> {
    let mut graph = DynamicGraphClustering::with_options(plan.n, options(backend));
    let initial: Vec<(VertexId, VertexId, Weight)> = after_preload
        .iter()
        .map(|&(u, v, w)| (VertexId(u), VertexId(v), w))
        .collect();
    graph.batch_insert_edges(&initial)?;
    let mut initial_tree: Vec<(VertexId, VertexId, Weight)> = graph
        .graph_edges()
        .into_iter()
        .filter(|&(_, _, _, tree)| tree)
        .map(|(u, v, w, _)| (u, v, w))
        .collect();
    initial_tree.sort_by_key(|&(u, v, _)| (u, v));
    graph.take_work_counters();

    let mut rung = MsfRung {
        total: Duration::ZERO,
        insert_ns: Vec::new(),
        delete_nontree_ns: Vec::new(),
        delete_tree_us: Vec::new(),
        tree_changes: 0,
        counters: WorkCounters::default(),
        initial_tree,
        ops: Vec::new(),
    };
    for &event in events {
        let mut changed = false;
        let (delete, insert) = match event {
            GraphUpdate::Insert { u, v, weight } => (None, Some((u, v, weight))),
            GraphUpdate::Delete { u, v } => (Some((u, v)), None),
            // `update_weight` is delete + insert; done by hand to see both MSF changes.
            GraphUpdate::Reweight { u, v, weight } => (Some((u, v)), Some((u, v, weight))),
        };
        if let Some((u, v)) = delete {
            let (change, t) = timed(|| graph.delete_edge(u, v));
            rung.total += t;
            match change? {
                MsfChange::RemovedNonTree => rung.delete_nontree_ns.push(ns(t)),
                MsfChange::RemovedWithReplacement { promoted: (a, b) } => {
                    rung.delete_tree_us.push(us(t));
                    let w = graph.edge_weight(a, b).expect("a promoted edge is alive");
                    rung.ops
                        .extend([ForestOp::Cut(u, v), ForestOp::Link(a, b, w)]);
                    changed = true;
                }
                MsfChange::RemovedAndSplit => {
                    rung.delete_tree_us.push(us(t));
                    rung.ops.push(ForestOp::Cut(u, v));
                    changed = true;
                }
                other => return Err(format!("delete_edge returned {other:?}").into()),
            }
        }
        if let Some((u, v, weight)) = insert {
            let (change, t) = timed(|| graph.insert_edge(u, v, weight));
            rung.total += t;
            rung.insert_ns.push(ns(t));
            match change? {
                MsfChange::Inserted => {
                    rung.ops.push(ForestOp::Link(u, v, weight));
                    changed = true;
                }
                MsfChange::Replaced { evicted: (a, b) } => {
                    rung.ops
                        .extend([ForestOp::Cut(a, b), ForestOp::Link(u, v, weight)]);
                    changed = true;
                }
                MsfChange::StoredNonTree => {}
                other => return Err(format!("insert_edge returned {other:?}").into()),
            }
        }
        rung.tree_changes += u64::from(changed);
    }
    rung.counters = graph.take_work_counters();
    Ok(rung)
}

fn msf_metrics(
    doc: &mut RunDoc,
    stream: &Stream,
    mut scan: MsfRung,
    hdt: &MsfRung,
    core: Duration,
) {
    let events = stream.timed.len() as f64;
    let n = stream.timed.len() as u64;
    let kevents = events / 1e3;
    doc.push("msf.update_ns_per_event", ns(scan.total) / events, n);
    doc.push(
        "msf.insert_p50_ns",
        median(&mut scan.insert_ns),
        scan.insert_ns.len() as u64,
    );
    doc.push(
        "msf.delete_nontree_p50_ns",
        median(&mut scan.delete_nontree_ns),
        scan.delete_nontree_ns.len() as u64,
    );
    doc.push(
        "msf.delete_tree_p50_us",
        median(&mut scan.delete_tree_us),
        scan.delete_tree_us.len() as u64,
    );
    // Self time of the MSF layer: its rung minus the dendrogram rung below it.
    doc.push(
        "msf.self_ns_per_event",
        (ns(scan.total) - ns(core)) / events,
        n,
    );
    doc.push(
        "msf.tree_change_share",
        scan.tree_changes as f64 / events,
        n,
    );
    let c = scan.counters;
    doc.push(
        "msf.crossing_tests_per_search",
        ratio(
            c.replacement_edges_scanned as f64,
            c.replacement_searches as f64,
        ),
        c.replacement_searches,
    );
    doc.push(
        "msf.replacement_searches_per_kevent",
        c.replacement_searches as f64 / kevents,
        n,
    );
    doc.push(
        "msf.level_promotions_per_kevent",
        hdt.counters.level_promotions as f64 / kevents,
        n,
    );
    doc.push("msf.hdt_update_ns_per_event", ns(hdt.total) / events, n);
    doc.push(
        "msf.hdt_crossing_tests_per_search",
        ratio(
            hdt.counters.replacement_edges_scanned as f64,
            hdt.counters.replacement_searches as f64,
        ),
        hdt.counters.replacement_searches,
    );
}

/// Edges per batch in the Theorem-1.5 probes.
const BATCH_K: usize = 256;

/// The dendrogram layer alone: a bare `DynSld` fed exactly the links and cuts the MSF rung
/// performed, then probed on its final forest. Returns the replay's total time. Also runs the
/// rung below it (`dyntree`) on the same operation sequence.
fn core_rung(doc: &mut RunDoc, plan: &Plan, msf: &MsfRung) -> Result<Duration, Failure> {
    let mut sld = DynSld::with_options(plan.n, options(ForestBackend::Scan));
    sld.batch_insert(&msf.initial_tree)?;
    let (mut insert_ns, mut delete_ns) = (Vec::new(), Vec::new());
    let (mut spine, mut pointers, mut queries) = (0u64, 0u64, 0u64);
    let mut total = Duration::ZERO;
    for &op in &msf.ops {
        let t = match op {
            ForestOp::Link(u, v, w) => {
                let (r, t) = timed(|| sld.insert(u, v, w));
                r?;
                insert_ns.push(ns(t));
                t
            }
            ForestOp::Cut(u, v) => {
                let (r, t) = timed(|| sld.delete(u, v));
                r?;
                delete_ns.push(ns(t));
                t
            }
        };
        total += t;
        let stats = sld.stats();
        spine += stats.last_spine_nodes as u64;
        pointers += stats.last_pointer_changes as u64;
        queries += stats.last_tree_queries as u64;
    }
    let updates = msf.ops.len() as u64;
    let (ni, nd) = (insert_ns.len() as u64, delete_ns.len() as u64);
    doc.push("core.insert_p50_ns", median(&mut insert_ns), ni);
    doc.push("core.insert_p99_ns", percentile(&mut insert_ns, 0.99), ni);
    doc.push("core.delete_p50_ns", median(&mut delete_ns), nd);
    doc.push("core.delete_p99_ns", percentile(&mut delete_ns, 0.99), nd);
    doc.push("core.height", sld.height() as f64, 1);
    doc.push(
        "core.spine_nodes_per_update",
        ratio(spine as f64, updates as f64),
        updates,
    );
    doc.push(
        "core.pointer_changes_per_update",
        ratio(pointers as f64, updates as f64),
        updates,
    );
    doc.push(
        "core.tree_queries_per_update",
        ratio(queries as f64, updates as f64),
        updates,
    );

    // Theorem 1.5: delete BATCH_K spread-out tree edges as one batch, insert them back as one.
    let edges: Vec<(VertexId, VertexId, Weight)> = {
        let all: Vec<_> = sld
            .forest()
            .edges()
            .map(|(_, e)| (e.u, e.v, e.weight))
            .collect();
        let step = (all.len() / BATCH_K).max(1);
        all.into_iter().step_by(step).take(BATCH_K).collect()
    };
    let pairs: Vec<(VertexId, VertexId)> = edges.iter().map(|&(u, v, _)| (u, v)).collect();
    let k = edges.len() as f64;
    let (r, t) = timed(|| sld.batch_delete(&pairs));
    r?;
    doc.push(
        "core.batch_delete_ns_per_edge",
        ratio(ns(t), k),
        edges.len() as u64,
    );
    let (r, t) = timed(|| sld.batch_insert(&edges));
    r?;
    doc.push(
        "core.batch_insert_ns_per_edge",
        ratio(ns(t), k),
        edges.len() as u64,
    );

    // Export: the full rebuild, then the incremental splice after touching one edge.
    let mut full: Vec<f64> = (0..3)
        .map(|_| us(timed(|| black_box(sld.export_snapshot())).1))
        .collect();
    doc.push("core.export_full_us", median(&mut full), 3);
    black_box(sld.export_snapshot_incremental());
    let before = sld.export_stats();
    let mut incremental = Vec::new();
    for &(u, v, w) in edges.iter().take(32) {
        sld.delete(u, v)?;
        sld.insert(u, v, w)?;
        incremental.push(us(timed(|| black_box(sld.export_snapshot_incremental())).1));
    }
    let after = sld.export_stats();
    let rounds = incremental.len() as u64;
    doc.push(
        "core.export_incremental_us",
        median(&mut incremental),
        rounds,
    );
    let splices = after.incremental_splices - before.incremental_splices;
    let rebuilds = after.full_rebuilds - before.full_rebuilds;
    doc.push(
        "core.export_splice_share",
        ratio(splices as f64, (splices + rebuilds) as f64),
        splices + rebuilds,
    );

    // The paper's comparator, and the one outside-callable path through the parallel crate.
    let (_, kruskal) = timed(|| black_box(static_sld_kruskal(sld.forest())));
    let (_, parallel) = timed(|| black_box(static_sld_parallel(sld.forest())));
    doc.push("core.static_rebuild_ms", ms(kruskal), 1);
    doc.push(
        "parallel.static_sld_speedup",
        ratio(kruskal.as_secs_f64(), parallel.as_secs_f64()),
        nproc() as u64,
    );
    let mut flat: Vec<f64> = READ_THRESHOLDS
        .iter()
        .map(|&tau| us(timed(|| black_box(sld.flat_clustering(tau))).1))
        .collect();
    doc.push(
        "core.flat_clustering_us",
        median(&mut flat),
        flat.len() as u64,
    );
    let n = plan.n;
    let probes = 256;
    let (_, t) = timed(|| {
        for i in 0..probes {
            let (s, q) = (
                VertexId((i * 7919 % n) as u32),
                VertexId((i * 104_729 % n) as u32),
            );
            black_box(sld.threshold_connected(s, q, READ_THRESHOLDS[i % 3]));
        }
    });
    doc.push(
        "core.threshold_connected_ns",
        ns(t) / probes as f64,
        probes as u64,
    );

    dyntree_rung(doc, plan, msf);
    Ok(total)
}

/// The bottom rung: the same link/cut sequence on the two dynamic-tree structures alone. The
/// link-cut tree carries each forest edge as a keyed node between its endpoints, the layout
/// `DynSld` uses, so `path_max` answers the heaviest edge on a path.
fn dyntree_rung(doc: &mut RunDoc, plan: &Plan, msf: &MsfRung) {
    let n = plan.n;
    let key = |u: VertexId, v: VertexId| (u.0.min(v.0), u.0.max(v.0));
    let pairs: Vec<(usize, usize)> = (0..1024).map(|i| (i * 7919 % n, i * 104_729 % n)).collect();
    let ops = msf.ops.len() as f64;
    let count = msf.ops.len() as u64;

    let mut lct = LinkCutTree::with_capacity(n + msf.initial_tree.len() + msf.ops.len());
    for _ in 0..n {
        lct.add_node(None);
    }
    let mut edge_node: HashMap<(u32, u32), usize> = HashMap::new();
    let mut next_edge = 0u32;
    let mut lct_link = |lct: &mut LinkCutTree,
                        map: &mut HashMap<(u32, u32), usize>,
                        u: VertexId,
                        v: VertexId,
                        w: Weight| {
        let e = lct.add_node(Some(RankKey::new(w, EdgeId(next_edge))));
        next_edge += 1;
        lct.link_edge(u.index(), e);
        lct.link_edge(e, v.index());
        map.insert(key(u, v), e);
    };
    for &(u, v, w) in &msf.initial_tree {
        lct_link(&mut lct, &mut edge_node, u, v, w);
    }
    let (_, t) = timed(|| {
        for &op in &msf.ops {
            match op {
                ForestOp::Link(u, v, w) => lct_link(&mut lct, &mut edge_node, u, v, w),
                ForestOp::Cut(u, v) => {
                    let e = edge_node.remove(&key(u, v)).expect("cut of a linked edge");
                    lct.cut_edge(u.index(), e);
                    lct.cut_edge(e, v.index());
                }
            }
        }
    });
    doc.push("dyntree.lct_link_cut_ns", ratio(ns(t), ops), count);
    let (_, t) = timed(|| {
        for &(a, b) in &pairs {
            black_box(lct.connected(a, b));
        }
    });
    doc.push(
        "dyntree.lct_connected_ns",
        ns(t) / pairs.len() as f64,
        pairs.len() as u64,
    );
    // Path maxima need connected endpoints, which random pairs of a sparse forest rarely are:
    // probe from one live edge's endpoint to the next one's where that is connected, and across
    // the edge itself otherwise.
    let mut live: Vec<(u32, u32)> = edge_node.keys().copied().collect();
    live.sort_unstable();
    let connected: Vec<(usize, usize)> = live
        .windows(2)
        .take(pairs.len())
        .map(|w| {
            let (a, far, near) = (w[0].0 as usize, w[1].1 as usize, w[0].1 as usize);
            if a != far && lct.connected(a, far) {
                (a, far)
            } else {
                (a, near)
            }
        })
        .collect();
    let (_, t) = timed(|| {
        for &(a, b) in &connected {
            black_box(lct.path_max_node(a, b));
        }
    });
    doc.push(
        "dyntree.lct_path_max_ns",
        ratio(ns(t), connected.len() as f64),
        connected.len() as u64,
    );

    let mut ett = EulerTourForest::with_seed(n, 0x5EED);
    let mut edge_id: HashMap<(u32, u32), EdgeId> = HashMap::new();
    let mut next_edge = 0u32;
    let mut ett_link = |ett: &mut EulerTourForest,
                        map: &mut HashMap<(u32, u32), EdgeId>,
                        u: VertexId,
                        v: VertexId| {
        let e = EdgeId(next_edge);
        next_edge += 1;
        ett.link(u, v, e);
        map.insert(key(u, v), e);
    };
    for &(u, v, _) in &msf.initial_tree {
        ett_link(&mut ett, &mut edge_id, u, v);
    }
    let (_, t) = timed(|| {
        for &op in &msf.ops {
            match op {
                ForestOp::Link(u, v, _) => ett_link(&mut ett, &mut edge_id, u, v),
                ForestOp::Cut(u, v) => {
                    ett.cut(edge_id.remove(&key(u, v)).expect("cut of a linked edge"));
                }
            }
        }
    });
    doc.push("dyntree.ett_link_cut_ns", ratio(ns(t), ops), count);
    let vertex = |i: usize| VertexId(i as u32);
    let (_, t) = timed(|| {
        for &(a, b) in &pairs {
            black_box(ett.connected(vertex(a), vertex(b)));
        }
    });
    doc.push(
        "dyntree.ett_connected_ns",
        ns(t) / pairs.len() as f64,
        pairs.len() as u64,
    );
    let (_, t) = timed(|| {
        for &(a, _) in &pairs {
            black_box(ett.component_size(vertex(a)));
        }
    });
    doc.push(
        "dyntree.ett_component_size_ns",
        ns(t) / pairs.len() as f64,
        pairs.len() as u64,
    );
}

/// Events the durability rung replays (from the empty graph, so it costs the same on every
/// workload), in drains of `DURABLE_DRAIN`.
const DURABLE_EVENTS: usize = 16_384 + 100;
const DURABLE_DRAIN: usize = 256;

/// Feeds `events` through a fresh service in fixed drains, publishing after each (checkpoints
/// are only taken at such quiescent points); returns the session and the time spent inside
/// `pump`, where the WAL append and fsync happen.
fn pumped(
    service: dynsld_engine::ServiceBuilder,
    events: &[GraphUpdate],
) -> Result<(Session, Duration), Failure> {
    let mut session = Session::over(service.build()?, None);
    let mut pump = Duration::ZERO;
    let drain = DURABLE_DRAIN.min(session.ingest.queue_capacity());
    for chunk in events.chunks(drain) {
        session.ingest.submit_all(chunk.iter().copied())?;
        let (r, t) = timed(|| session.driver.pump());
        r?;
        pump += t;
        session.driver.flush()?;
    }
    Ok((session, pump))
}

/// The durability layer through the engine API: what the WAL adds to a drain, what a
/// checkpoint costs, and how fast each kind of directory comes back. Also the scripted
/// quarantine + `recover_shard`, the in-memory sibling of the same replay.
fn durable_rung(
    doc: &mut RunDoc,
    plan: &Plan,
    stream: &Stream,
    tmp: &TmpRoot,
) -> Result<(), Failure> {
    let off = Telemetry::disabled();
    let events: Vec<GraphUpdate> = stream
        .preload
        .iter()
        .chain(&stream.timed)
        .take(DURABLE_EVENTS)
        .copied()
        .collect();
    let count = events.len() as u64;

    let (plain, plain_pump) = pumped(builder(plan, &off, None), &events)?;
    drop(plain);

    // Default cadence: WAL + periodic checkpoints; then one forced checkpoint and a restore.
    let dir = tmp.fresh("rung-checkpointed");
    let (mut durable, durable_pump) = pumped(builder(plan, &off, Some(&dir)), &events)?;
    doc.push(
        "durable.pump_overhead_ns_per_event",
        (ns(durable_pump) - ns(plain_pump)) / count as f64,
        count,
    );
    let m = durable.metrics();
    doc.push(
        "durable.wal_bytes_per_event",
        ratio(m.wal_bytes_written as f64, m.wal_records_appended as f64),
        m.wal_records_appended,
    );
    let (wrote, t) = timed(|| durable.driver.checkpoint());
    doc.push("durable.checkpoint_ms", ms(t), u64::from(wrote?));
    doc.push(
        "durable.checkpoints_written",
        durable.metrics().checkpoints_written as f64,
        count,
    );
    drop(durable);
    let (restored, t) = timed(|| builder(plan, &off, Some(&dir)).build());
    let restored = restored?;
    let recovered = restored.durability().is_some_and(|r| r.recovered);
    doc.push(
        "durable.restore_from_checkpoint_ms",
        ms(t),
        u64::from(recovered),
    );
    drop(restored);

    // No checkpoints at all: the rebuild replays the whole log.
    let dir = tmp.fresh("rung-wal-only");
    let wal_only =
        |dir: &std::path::Path| builder(plan, &off, Some(dir)).checkpoint_every_records(u64::MAX);
    let (logged, _) = pumped(wal_only(&dir), &events)?;
    drop(logged);
    let (replayed, t) = timed(|| wal_only(&dir).build());
    let replayed = replayed?;
    let records = replayed.durability().map_or(0, |r| r.wal_records_replayed);
    doc.push(
        "durable.wal_replay_events_per_s",
        ratio(records as f64, t.as_secs_f64()),
        records,
    );
    drop(replayed);

    // A torn flush on shard 0 quarantines it; `recover_shard` rebuilds it from the journal.
    let faults = FaultPlan::parse("flush_panic=shard:0,flush:2")?;
    let (first, second) = events.split_at(events.len() / 2);
    // The injected panic is caught by the service; keep its message off stderr.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let torn =
        pumped(builder(plan, &off, None).faults(faults), first).and_then(|(mut faulted, _)| {
            let chunk = second.len().min(faulted.ingest.queue_capacity());
            faulted.ingest.submit_all(second[..chunk].iter().copied())?;
            faulted.driver.pump()?;
            faulted.driver.flush()?;
            Ok(faulted)
        });
    std::panic::set_hook(hook);
    let mut faulted = torn?;
    let stale = faulted.read.snapshot().stale_shards();
    if stale.contains(&ShardId::Routed(0)) {
        let (report, t) = timed(|| faulted.driver.recover_shard(ShardId::Routed(0)));
        doc.push(
            "engine.recover_shard_ms",
            ms(t),
            report?.events_replayed as u64,
        );
    } else {
        doc.notes
            .push("recover_shard rung: the scripted flush panic did not fire".into());
        doc.push("engine.recover_shard_ms", 0.0, 0);
    }
    Ok(())
}
