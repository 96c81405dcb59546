//! The untraced run of one workload: one instance drawn from the seed, set up, driven through
//! the timed events in a closed loop and checked against the oracle.

use crate::oracle::LiveGraph;
use crate::report::{int, RunDoc};
use crate::run::{
    crash, drive_inline, drive_pipeline, recover, Drive, Failure, Session, TmpRoot, Verdict,
};
use crate::stats::{median, percentile, proc_status_kib, ratio};
use crate::workloads::{Mode, Plan, Stream};
use dynsld_serve::json::Value;
use dynsld_telemetry::Telemetry;
use std::time::Instant;

/// `setup_s` is the median of the set-up the run drives and of the same set-up made again
/// (built, preloaded, dropped) after the run: at least `MIN_SETUPS` in all, and more until they
/// add up to `SETUP_BUDGET_S`. A set-up is tens of milliseconds on most workloads, the first one
/// of a process is up to twice as slow as the rest (cold heap, cold caches), and a handful of
/// readings that short still flaps by 30 %.
const MIN_SETUPS: usize = 5;
const SETUP_BUDGET_S: f64 = 1.0;
/// `recovery_s` is the median of this many crash-and-rebuild rounds on the run's directory, for
/// the same reason: one is about 30 ms.
const RECOVERIES: usize = 5;

/// Generates the stream and starts a preloaded session. Returns both, the set-up's seconds,
/// and the generator's share of them.
pub fn set_up(
    plan: &Plan,
    seed: u64,
    timed_events: usize,
    telemetry: &Telemetry,
    tmp: &TmpRoot,
) -> Result<(Stream, Session, f64, f64), Failure> {
    let started = Instant::now();
    let stream = plan.generate(seed, timed_events);
    let generated = started.elapsed().as_secs_f64();
    let session = Session::start(plan, &stream, telemetry, tmp)?;
    Ok((stream, session, started.elapsed().as_secs_f64(), generated))
}

pub fn drive(
    plan: &Plan,
    session: &mut Session,
    stream: &Stream,
    seconds: f64,
    telemetry: &Telemetry,
) -> Result<Drive, Failure> {
    match plan.mode {
        Mode::Pipeline => drive_pipeline(session, &stream.timed, seconds, telemetry),
        _ => drive_inline(plan, session, &stream.timed, seconds, telemetry),
    }
}

/// What the end of a run yields: the oracle's verdict and the final-state counters.
#[derive(Default)]
struct Ending {
    verdict: Verdict,
    wal_bytes: u64,
    wal_records: u64,
    delta_bytes: u64,
    deltas: u64,
    recoveries: Vec<f64>,
}

/// Checks the final published state (and on `durable_wire` the mirror and the recovered
/// service) against the oracle.
fn finish(
    plan: &Plan,
    mut session: Session,
    live: &LiveGraph,
    telemetry: &Telemetry,
) -> Result<Ending, Failure> {
    let mut end = Ending::default();
    end.verdict
        .check_snapshot(live, "published snapshot", &session.read.snapshot());
    if plan.mode == Mode::DurableWire {
        let wire = session
            .wire
            .as_mut()
            .expect("durable_wire has a subscriber");
        match wire.sync() {
            Ok(_) => end.verdict.check_mirror(
                live,
                "wire mirror",
                wire.mirror().expect("a synced subscriber has a mirror"),
            ),
            Err(e) => end
                .verdict
                .mismatches
                .push(format!("final wire sync failed: {e}")),
        }
        let m = session.metrics();
        (end.wal_bytes, end.wal_records) = (m.wal_bytes_written, m.wal_records_appended);
        (end.delta_bytes, end.deltas) = (m.delta_bytes_out, m.deltas_served);
        let dir = crash(session)?;
        for _ in 0..RECOVERIES {
            let (elapsed, recovered) = recover(plan, &dir, telemetry)?;
            end.recoveries.push(elapsed.as_secs_f64());
            end.verdict
                .check_snapshot(live, "recovered service", &recovered);
        }
    }
    if live.invalid > 0 {
        end.verdict.mismatches.push(format!(
            "{} events were invalid against the live set",
            live.invalid
        ));
    }
    Ok(end)
}

/// The untraced run.
pub fn run(plan: &Plan, seed: u64, seconds: f64) -> Result<RunDoc, Failure> {
    let telemetry = Telemetry::disabled();
    let tmp = TmpRoot::new()?;
    let mut doc = RunDoc {
        workload: plan.name.to_string(),
        seed,
        seconds,
        ..RunDoc::default()
    };
    let timed_events = plan.timed_events(seconds);
    let (stream, mut session, first_setup, _) = set_up(plan, seed, timed_events, &telemetry, &tmp)?;
    let mut d = drive(plan, &mut session, &stream, seconds, &telemetry)?;

    let mut live = LiveGraph::new(plan.n);
    live.apply_all(&stream.preload);
    live.apply_all(&stream.timed[..d.events]);
    let mut end = finish(plan, session, &live, &telemetry)?;
    doc.attempted = (d.events + d.read_us.len() + d.converge_us.len()) as u64 + end.verdict.checks;
    doc.failed = d.rejected + d.failed_reads + end.verdict.mismatches.len() as u64;
    doc.notes = end.verdict.mismatches;
    // The instance and everything it allocated are behind us: this is the workload's peak.
    let peak_rss_kib = proc_status_kib("VmHWM");
    drop((stream, live));
    let mut setups = vec![first_setup];
    while setups.len() < MIN_SETUPS || setups.iter().sum::<f64>() < SETUP_BUDGET_S {
        setups.push(set_up(plan, seed, timed_events, &telemetry, &tmp)?.2);
    }

    let (events, iterations) = (d.events as u64, d.publish_us.len() as u64);
    let wall = d.wall.as_secs_f64();
    let setup_count = setups.len() as u64;
    doc.push("setup_s", median(&mut setups), setup_count);
    doc.push("events_per_s", ratio(events as f64, wall), events);
    // The pipeline's producer never waits for a publish, so no iteration spans "submit of a
    // batch -> published" there; what it has instead is the mean interval between publishes.
    let publish_p50_us = match plan.mode {
        Mode::Pipeline => ratio(wall * 1e6, iterations as f64),
        _ => median(&mut d.publish_us),
    };
    doc.push("publish_p50_us", publish_p50_us, iterations);
    if matches!(plan.name, "sparse_trickle" | "durable_wire") {
        doc.push(
            "publish_p99_us",
            percentile(&mut d.publish_us, 0.99),
            iterations,
        );
    }
    if !d.read_us.is_empty() {
        doc.push(
            "read_p50_us",
            median(&mut d.read_us),
            d.read_us.len() as u64,
        );
    }
    if !d.converge_us.is_empty() {
        let n = d.converge_us.len() as u64;
        doc.push("converge_p50_us", median(&mut d.converge_us), n);
        doc.push("converge_p99_us", percentile(&mut d.converge_us, 0.99), n);
    }
    if !end.recoveries.is_empty() {
        let n = end.recoveries.len() as u64;
        doc.push("recovery_s", median(&mut end.recoveries), n);
        doc.push(
            "wal_bytes_per_event",
            ratio(end.wal_bytes as f64, end.wal_records as f64),
            end.wal_records,
        );
        doc.push(
            "delta_bytes_per_publish",
            ratio(end.delta_bytes as f64, end.deltas as f64),
            end.deltas,
        );
    }
    doc.push("peak_rss_mib", peak_rss_kib as f64 / 1024.0, 1);
    let share = doc.failed_ops_share();
    doc.push("failed_ops_share", share, doc.attempted);
    doc.facts = vec![
        ("timed_events".into(), int(events)),
        ("iterations".into(), int(iterations)),
        ("timed_wall_s".into(), Value::Float(wall)),
    ];
    Ok(doc)
}
