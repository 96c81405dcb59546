//! Telemetry overhead: the cost of the instrumentation itself, measured where it hurts
//! most — `engine_flush_every_1`, the per-event-flush regime of `engine_throughput`, where
//! every event pays the full span + histogram toll and no batching amortises it.
//!
//! Three entries per workload:
//!
//! * `disabled` — a [`Telemetry::disabled`] registry on the pipeline. This is the default
//!   production configuration; the acceptance bar is that it stays within 5% of the pre-PR
//!   (uninstrumented) `engine_throughput/engine_flush_every_1` baseline, i.e. the one-branch
//!   no-op really is a no-op.
//! * `enabled` — a recording registry: spans into the per-thread rings, stage histograms,
//!   counters. The gap to `disabled` is the opt-in price of `Telemetry::enabled()`.
//! * `enabled_amortised` — the same recording registry at `flush_every = 512`, showing the
//!   toll fading once flushes batch.
//!
//! A `quality` record pins the measured enabled/disabled ratio into the saved document so
//! the trajectory files track it across PRs.

use criterion::{
    criterion_group, criterion_main, record_quality, record_telemetry_json, BenchmarkId, Criterion,
    Throughput,
};
use dynsld_bench::config;
use dynsld_engine::ClusteringEngine;
use dynsld_forest::workload::{GraphUpdate, GraphWorkloadBuilder};
use dynsld_telemetry::{export, Telemetry};
use std::time::Instant;

const N: usize = 2_000;
const NUM_EDGES: usize = 4_000;
const WINDOW: usize = 1_000;

fn stream() -> Vec<GraphUpdate> {
    GraphWorkloadBuilder::new(N)
        .weight_scale(100.0)
        .sliding_window_stream(NUM_EDGES, WINDOW, 42)
}

/// The `engine_throughput` engine path with an explicit telemetry registry on the engine.
fn apply_engine(stream: &[GraphUpdate], flush_every: usize, telemetry: &Telemetry) -> u64 {
    let mut engine = ClusteringEngine::new(N);
    engine.set_telemetry(telemetry.clone());
    for chunk in stream.chunks(flush_every) {
        for &u in chunk {
            engine.submit(u).expect("valid stream");
        }
        engine.flush().expect("validated at submit time");
    }
    engine.epoch()
}

/// Mean seconds per run of `f` over `iters` runs (one warm-up run dropped).
fn time_runs(iters: u32, mut f: impl FnMut()) -> f64 {
    f();
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_secs_f64() / f64::from(iters)
}

fn bench_telemetry_overhead(c: &mut Criterion) {
    let stream = stream();
    let mut group = c.benchmark_group("telemetry_overhead/engine_flush_every_1");
    group.throughput(Throughput::Elements(stream.len() as u64));
    group.bench_with_input(
        BenchmarkId::new("disabled", stream.len()),
        &stream,
        |b, s| {
            let t = Telemetry::disabled();
            b.iter(|| apply_engine(s, 1, &t))
        },
    );
    group.bench_with_input(
        BenchmarkId::new("enabled", stream.len()),
        &stream,
        |b, s| {
            let t = Telemetry::enabled();
            b.iter(|| apply_engine(s, 1, &t))
        },
    );
    group.bench_with_input(
        BenchmarkId::new("enabled_amortised", stream.len()),
        &stream,
        |b, s| {
            let t = Telemetry::enabled();
            b.iter(|| apply_engine(s, 512, &t))
        },
    );
    group.finish();

    // Pin the enabled/disabled ratio (and a telemetry snapshot of one enabled run) into the
    // saved document, outside the criterion timing loops.
    let disabled = Telemetry::disabled();
    let off = time_runs(3, || {
        apply_engine(&stream, 1, &disabled);
    });
    let enabled = Telemetry::enabled();
    let on = time_runs(3, || {
        apply_engine(&stream, 1, &enabled);
    });
    record_quality(
        "telemetry_overhead/engine_flush_every_1/ratio",
        &[
            ("disabled_s", off),
            ("enabled_s", on),
            ("enabled_over_disabled", on / off),
        ],
    );
    record_telemetry_json(
        "telemetry_overhead/engine_flush_every_1/enabled",
        export::to_json(&enabled.snapshot()),
    );
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_telemetry_overhead
}
criterion_main!(benches);
