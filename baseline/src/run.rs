//! Driving a workload through the public API exactly as a user would: build the service with
//! every setting named, preload, run the closed loop, read the counters the calls return.
//!
//! One loop serves both kinds of run: the same calls in the same order, each bracketed with
//! `Instant`s, the returned reports folded (a handful of additions against iterations of at
//! least 90 us). A traced run differs only in handing the service and the harness an enabled
//! `Telemetry` (and, on the pipeline, in the producer timing its own `submit` calls), so the
//! difference between the two is the cost of tracing.

use crate::oracle::{self, LiveGraph, View};
use crate::stats::proc_status_kib;
use crate::workloads::{Mode, Plan, Stream};
use dynsld::{DynSldOptions, ForestBackend, UpdateStrategy};
use dynsld_engine::engine::FlushPhases;
use dynsld_engine::{
    Backpressure, ClusterService, DrainReport, FaultPlan, FlushPolicy, FlusherDriver, FsyncPolicy,
    GraphUpdate, GreedyPartitioner, HashPartitioner, IngestHandle, Metrics, ReadHandle,
    ServiceBuilder, ServiceFlushReport, ServiceSnapshot,
};
use dynsld_forest::VertexId;
use dynsld_serve::{DeltaServer, Mirror, WireSubscriber};
use dynsld_telemetry::Telemetry;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Slots of the submission queue on the single-thread workloads: at least one full batch, so a
/// `submit_all` of a batch never waits for a drain that only the same thread could perform.
const INLINE_QUEUE_CAPACITY: usize = 4_096;
/// The documented two-thread pipeline's queue.
const PIPELINE_QUEUE_CAPACITY: usize = 64;
/// Thresholds the reader ops rotate through: the quartiles of the generators' `(0, 10)` weights.
pub const READ_THRESHOLDS: [f64; 3] = [2.5, 5.0, 7.5];

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// A scratch directory inside the build directory (the benchmark may only write inside its
/// checkout), removed when dropped.
pub struct TmpRoot(PathBuf);

impl TmpRoot {
    pub fn new() -> std::io::Result<TmpRoot> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let exe = std::env::current_exe()?;
        let root = exe.parent().unwrap_or(Path::new(".")).join(format!(
            "baseline-tmp-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root)?;
        Ok(TmpRoot(root))
    }

    /// A fresh, not yet existing directory name under the root.
    pub fn fresh(&self, label: &str) -> PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        self.0
            .join(format!("{label}-{}", NEXT.fetch_add(1, Ordering::Relaxed)))
    }
}

impl Drop for TmpRoot {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The service configuration of a workload with every environment-overridable setting named:
/// partitioner, MSF backend, threads, telemetry, faults, queue capacity and durability never
/// fall back to a `DYNSLD_*` default.
pub fn builder(plan: &Plan, telemetry: &Telemetry, durable: Option<&Path>) -> ServiceBuilder {
    let pipeline = plan.mode == Mode::Pipeline;
    let mut b = ServiceBuilder::new()
        .vertices(plan.n)
        .shards(plan.shards)
        .threads(plan.threads.min(nproc()))
        .flush_policy(if pipeline {
            FlushPolicy::EveryNOps(plan.batch)
        } else {
            FlushPolicy::Manual
        })
        .options(DynSldOptions {
            strategy: UpdateStrategy::Sequential,
            maintain_spine_index: false,
            msf_backend: ForestBackend::Scan,
        })
        .queue_capacity(if pipeline {
            PIPELINE_QUEUE_CAPACITY
        } else {
            INLINE_QUEUE_CAPACITY
        })
        .backpressure(Backpressure::Block)
        .telemetry(telemetry.clone())
        .delta_ring(64)
        .faults(FaultPlan::disabled());
    b = if plan.greedy {
        b.stateful_partitioner(GreedyPartitioner::default())
    } else {
        b.partitioner(HashPartitioner)
    };
    match durable {
        // The durable defaults, spelled out: fsync once per drain, checkpoint every 256 records.
        Some(dir) => b
            .durable(dir)
            .fsync(FsyncPolicy::EveryDrain)
            .checkpoint_every_records(256),
        None => b,
    }
}

/// A built, preloaded service with its handles (and, on `durable_wire`, its server, wire
/// subscriber and directory).
pub struct Session {
    pub ingest: IngestHandle,
    pub read: ReadHandle,
    pub driver: FlusherDriver,
    pub server: Option<DeltaServer>,
    pub wire: Option<WireSubscriber>,
    pub dir: Option<PathBuf>,
}

pub type Failure = Box<dyn std::error::Error + Send + Sync>;

/// Submits `events` in queue-sized chunks, draining after each; returns routing-time rejections.
pub fn feed(
    ingest: &IngestHandle,
    driver: &mut FlusherDriver,
    events: &[GraphUpdate],
) -> Result<u64, Failure> {
    let mut rejected = 0;
    for chunk in events.chunks(ingest.queue_capacity()) {
        ingest.submit_all(chunk.iter().copied())?;
        rejected += driver.pump()?.rejected.len() as u64;
    }
    Ok(rejected)
}

impl Session {
    /// Builds the service and applies the untimed preload as one published batch.
    pub fn start(
        plan: &Plan,
        stream: &Stream,
        telemetry: &Telemetry,
        tmp: &TmpRoot,
    ) -> Result<Session, Failure> {
        let dir = (plan.mode == Mode::DurableWire).then(|| tmp.fresh("durable"));
        let service = builder(plan, telemetry, dir.as_deref()).build()?;
        let mut session = Session::over(service, dir);
        let rejected = feed(&session.ingest, &mut session.driver, &stream.preload)?;
        session.driver.flush()?;
        if rejected > 0 {
            return Err(format!("{}: preload rejected {rejected} events", plan.name).into());
        }
        if plan.mode == Mode::DurableWire {
            let server = DeltaServer::bind("127.0.0.1:0", session.read.clone(), telemetry.clone())?;
            let mut wire = WireSubscriber::connect(server.local_addr())?;
            wire.sync()?;
            session.server = Some(server);
            session.wire = Some(wire);
        }
        Ok(session)
    }

    /// The handles and driver of a built service.
    pub fn over(service: ClusterService, dir: Option<PathBuf>) -> Session {
        Session {
            ingest: service.ingest_handle(),
            read: service.read_handle(),
            driver: FlusherDriver::new(service),
            server: None,
            wire: None,
            dir,
        }
    }

    pub fn metrics(&self) -> Metrics {
        self.driver.service().metrics()
    }
}

/// Sums over the flush reports of a run.
#[derive(Default)]
pub struct FlushTotals {
    /// Non-empty flushes (publishes).
    pub flushes: u64,
    pub wall: Duration,
    pub slowest_shard: Duration,
    pub shard_sum: Duration,
    pub phases: FlushPhases,
    pub ops_applied: u64,
    pub fast_path: u64,
    pub fallback: u64,
    pub spill_ops: u64,
    /// `event_load_ratio` of the last full flush (a lifetime ratio, so the last one stands for
    /// the run).
    pub event_load_ratio: f64,
}

impl FlushTotals {
    fn add(&mut self, report: &ServiceFlushReport) {
        if report.ops_applied() == 0 {
            return;
        }
        self.flushes += 1;
        self.wall += report.wall_time;
        self.slowest_shard += report.slowest_shard_time();
        self.shard_sum += report.shard_time_sum();
        self.phases = self.phases.merge(&report.phase_totals());
        self.ops_applied += report.ops_applied() as u64;
        self.fast_path += report.fast_path() as u64;
        self.fallback += report.fallback() as u64;
        self.spill_ops +=
            (report.spill_routing_share() * report.ops_applied() as f64).round() as u64;
        self.event_load_ratio = report.event_load_ratio();
    }

    /// The pipeline's threshold flushes arrive as one absorbed list of per-shard reports with
    /// no per-flush wall time; on one shard each entry is one flush.
    fn add_drain(&mut self, drain: &DrainReport) {
        for (shard, r) in &drain.flushes.reports {
            if r.ops_applied == 0 {
                continue;
            }
            self.flushes += 1;
            self.wall += r.duration;
            self.slowest_shard += r.duration;
            self.shard_sum += r.duration;
            self.phases = self.phases.merge(&r.phases);
            self.ops_applied += r.ops_applied as u64;
            self.fast_path += r.fast_path as u64;
            self.fallback += r.fallback as u64;
            if shard.is_spill() {
                self.spill_ops += r.ops_applied as u64;
            }
        }
        self.event_load_ratio = drain.flushes.event_load_ratio();
    }
}

/// Everything one timed section produced.
#[derive(Default)]
pub struct Drive {
    pub events: usize,
    pub wall: Duration,
    /// Per closed-loop iteration, microseconds: submit of the batch -> `flush()` returned.
    pub publish_us: Vec<f64>,
    /// Per iteration: the reader op.
    pub read_us: Vec<f64>,
    /// Per iteration: submit of the batch -> `WireSubscriber::sync()` returned.
    pub converge_us: Vec<f64>,
    /// Harness spans, summed.
    pub submit: Duration,
    pub pump: Duration,
    pub flush: Duration,
    /// Per submit call, microseconds: one `submit_all(batch)` per iteration inline; one
    /// `submit(event)` on the pipeline's producer, which times them in traced runs only.
    pub submit_us: Vec<f64>,
    pub totals: FlushTotals,
    /// Routing-time rejections (`DrainReport::rejected`).
    pub rejected: u64,
    /// Reader ops or syncs that errored or came back at the wrong revision.
    pub failed_reads: u64,
    pub rss_start_kib: u64,
    pub rss_end_kib: u64,
}

/// Stops a run that takes more than this multiple of `--seconds` (a much slower host): the
/// metrics stay rates and medians over what was done.
const OVERRUN: f64 = 2.5;

/// The reader op of `trickle_read`: the published snapshot, one cold `num_clusters` at a
/// rotating threshold, four `same_cluster` on the now-cached clustering.
fn reader_op(read: &ReadHandle, n: usize, i: usize) -> usize {
    let snapshot = read.snapshot();
    let tau = READ_THRESHOLDS[i % READ_THRESHOLDS.len()];
    let mut seen = snapshot.num_clusters(tau);
    for k in 0..4 {
        let u = VertexId(((i * 7919 + k * 104_729) % n) as u32);
        let v = VertexId(((i * 15_485_863 + k * 31) % n) as u32);
        seen += usize::from(snapshot.same_cluster(u, v, tau));
    }
    seen
}

/// Runs the timed section of an inline workload (everything but `queue_handoff`).
pub fn drive_inline(
    plan: &Plan,
    session: &mut Session,
    events: &[GraphUpdate],
    seconds: f64,
    telemetry: &Telemetry,
) -> Result<Drive, Failure> {
    let mut d = Drive {
        rss_start_kib: proc_status_kib("VmRSS"),
        ..Drive::default()
    };
    let limit = Duration::from_secs_f64(seconds * OVERRUN);
    let started = Instant::now();
    for (i, batch) in events.chunks(plan.batch).enumerate() {
        let t0 = Instant::now();
        {
            let _span = telemetry.span("harness.submit");
            session.ingest.submit_all(batch.iter().copied())?;
        }
        let t1 = Instant::now();
        let drain = {
            let _span = telemetry.span("harness.pump");
            session.driver.pump()?
        };
        let t2 = Instant::now();
        let report = {
            let _span = telemetry.span("harness.flush");
            session.driver.flush()?
        };
        let t3 = Instant::now();
        d.submit += t1 - t0;
        d.pump += t2 - t1;
        d.flush += t3 - t2;
        d.submit_us.push((t1 - t0).as_secs_f64() * 1e6);
        d.publish_us.push((t3 - t0).as_secs_f64() * 1e6);
        d.rejected += drain.rejected.len() as u64;
        d.totals.add(&report);
        d.events += batch.len();
        match plan.mode {
            Mode::InlineRead => {
                let _span = telemetry.span("harness.read");
                std::hint::black_box(reader_op(&session.read, plan.n, i));
                d.read_us.push(t3.elapsed().as_secs_f64() * 1e6);
            }
            Mode::DurableWire => {
                let wire = session
                    .wire
                    .as_mut()
                    .expect("durable_wire has a subscriber");
                let synced = {
                    let _span = telemetry.span("harness.wire_sync");
                    wire.sync()
                };
                let t4 = Instant::now();
                d.converge_us.push((t4 - t0).as_secs_f64() * 1e6);
                let published = session.read.revision();
                if !synced.is_ok_and(|r| r.revision == published) {
                    d.failed_reads += 1;
                }
                let _span = telemetry.span("harness.mirror_query");
                let tau = READ_THRESHOLDS[i % READ_THRESHOLDS.len()];
                match wire.mirror() {
                    Some(mirror) => {
                        std::hint::black_box(mirror.num_clusters(tau));
                    }
                    None => d.failed_reads += 1,
                }
                d.read_us.push(t4.elapsed().as_secs_f64() * 1e6);
            }
            Mode::Inline | Mode::Pipeline => {}
        }
        if started.elapsed() > limit {
            break;
        }
    }
    d.wall = started.elapsed();
    d.rss_end_kib = proc_status_kib("VmRSS");
    Ok(d)
}

/// Runs the timed section of `queue_handoff`: one producer thread calling `submit` per event
/// against a 64-slot queue, the driver parked in `run_until_closed` on this thread.
pub fn drive_pipeline(
    session: &mut Session,
    events: &[GraphUpdate],
    seconds: f64,
    telemetry: &Telemetry,
) -> Result<Drive, Failure> {
    let traced = telemetry.is_enabled();
    let mut d = Drive {
        rss_start_kib: proc_status_kib("VmRSS"),
        ..Drive::default()
    };
    let limit = Duration::from_secs_f64(seconds * OVERRUN);
    let ingest = session.ingest.clone();
    let started = Instant::now();
    let (drain, produced) = std::thread::scope(|scope| {
        let producer = scope.spawn(move || {
            let mut submit_us = Vec::new();
            let mut submitted = 0usize;
            let mut outcome = Ok(());
            for (i, &event) in events.iter().enumerate() {
                let s = traced.then(Instant::now);
                if let Err(e) = ingest.submit(event) {
                    outcome = Err(e);
                    break;
                }
                if let Some(s) = s {
                    submit_us.push(s.elapsed().as_secs_f64() * 1e6);
                }
                submitted += 1;
                if i % 4_096 == 4_095 && started.elapsed() > limit {
                    break;
                }
            }
            ingest.close();
            (submitted, submit_us, outcome)
        });
        let drain = {
            let _span = telemetry.span("harness.run_until_closed");
            session.driver.run_until_closed()
        };
        (drain, producer.join())
    });
    d.wall = started.elapsed();
    let drain = drain?;
    let (submitted, submit_us, outcome) = produced.map_err(|_| "producer thread panicked")?;
    outcome?;
    d.events = submitted;
    d.submit = Duration::from_secs_f64(submit_us.iter().sum::<f64>() / 1e6);
    d.submit_us = submit_us;
    d.rejected = drain.rejected.len() as u64;
    d.totals.add_drain(&drain);
    d.publish_us = drain
        .flushes
        .reports
        .iter()
        .filter(|(_, r)| r.ops_applied > 0)
        .map(|(_, r)| r.duration.as_secs_f64() * 1e6)
        .collect();
    // Everything the driver thread did outside the engine flushes: popping, routing, parking.
    d.flush = d.totals.shard_sum;
    d.pump = d.wall.saturating_sub(d.flush);
    d.rss_end_kib = proc_status_kib("VmRSS");
    Ok(d)
}

/// The oracle verdict of one run.
#[derive(Default)]
pub struct Verdict {
    pub checks: u64,
    pub mismatches: Vec<String>,
}

impl Verdict {
    pub fn absorb(&mut self, (checks, mismatches): (u64, Vec<String>)) {
        self.checks += checks;
        self.mismatches.extend(mismatches);
    }

    pub fn check_snapshot(&mut self, live: &LiveGraph, what: &'static str, s: &ServiceSnapshot) {
        let view = View {
            what,
            num_graph_edges: s.num_graph_edges(),
            num_components: s.num_components(),
            labels: &|tau| s.flat_clustering(tau).labels.clone(),
        };
        self.absorb(oracle::check(live, &view));
    }

    pub fn check_mirror(&mut self, live: &LiveGraph, what: &'static str, m: &Mirror) {
        let view = View {
            what,
            num_graph_edges: m.num_graph_edges(),
            num_components: m.num_components(),
            labels: &|tau| m.flat_clustering(tau).labels.clone(),
        };
        self.absorb(oracle::check(live, &view));
    }
}

/// `durable_wire`'s ending, first half: drop everything un-closed (a crash, as far as the
/// directory can tell). Returns the directory.
pub fn crash(session: Session) -> Result<PathBuf, Failure> {
    let dir = session
        .dir
        .clone()
        .ok_or("recovery needs a durable session")?;
    if let Some(server) = session.server {
        server.shutdown();
    }
    drop((session.wire, session.driver, session.ingest, session.read));
    Ok(dir)
}

/// Second half: rebuild from the directory and time until the recovered revision is readable.
/// The rebuilt service is dropped un-closed again, so the directory can be recovered once more.
pub fn recover(
    plan: &Plan,
    dir: &Path,
    telemetry: &Telemetry,
) -> Result<(Duration, ServiceSnapshot), Failure> {
    let started = Instant::now();
    let service = builder(plan, telemetry, Some(dir)).build()?;
    let snapshot = service.read_handle().snapshot();
    let elapsed = started.elapsed();
    let recovered = service.durability().is_some_and(|r| r.recovered);
    if !recovered {
        return Err("rebuild from the durable directory recovered nothing".into());
    }
    Ok((elapsed, snapshot))
}
