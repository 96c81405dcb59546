//! Concurrent ingest: multiple producer threads, one background flusher, readers that never
//! block — the full handle pipeline of `dynsld-engine`.
//!
//! Run with `cargo run --release --example concurrent_ingest`.
//!
//! Layout: the vertex set is split into one contiguous block per producer; each producer
//! thread generates its own sliding-window stream inside its block and submits it through a
//! *clone* of the `IngestHandle` (block-local streams commute across producers, so the
//! interleaving the queue happens to serialize is immaterial to the final clustering). The
//! `FlusherDriver` is parked on `run_until_closed` on its own thread, draining the bounded
//! queue and flushing dirty shards concurrently on the work-stealing pool; a reader thread
//! polls epoch-pinned snapshots the whole time. Backpressure is `Block`: when producers
//! outrun the driver, they wait for queue slots instead of dropping events — visible in the
//! `queue_block_waits` counter at the end.
//!
//! **Telemetry.** With `DYNSLD_TRACE_OUT=<path>` the pipeline records stage-latency
//! histograms and a span trace while it runs; the example then prints the histogram table
//! and writes the trace to `<path>` in Chrome trace-event JSON — load it in
//! `chrome://tracing` or [Perfetto](https://ui.perfetto.dev) to see the driver's drains and
//! every shard flush on a timeline.

use dynsld_engine::{Backpressure, BlockPartitioner, FlushPolicy, ServiceBuilder};
use dynsld_forest::workload::{GraphUpdate, GraphWorkloadBuilder};
use dynsld_forest::VertexId;
use dynsld_telemetry::{export, Telemetry};
use std::time::{Duration, Instant};

const PRODUCERS: usize = 4;
const BLOCK: usize = 2_500;
const N: usize = PRODUCERS * BLOCK;
const EDGES_PER_PRODUCER: usize = 5_000;
const QUEUE_CAPACITY: usize = 512;

/// Shifts a block-local stream into producer `p`'s vertex-id block.
fn shift(update: GraphUpdate, offset: u32) -> GraphUpdate {
    let bump = |v: VertexId| VertexId(v.0 + offset);
    match update {
        GraphUpdate::Insert { u, v, weight } => GraphUpdate::Insert {
            u: bump(u),
            v: bump(v),
            weight,
        },
        GraphUpdate::Delete { u, v } => GraphUpdate::Delete {
            u: bump(u),
            v: bump(v),
        },
        GraphUpdate::Reweight { u, v, weight } => GraphUpdate::Reweight {
            u: bump(u),
            v: bump(v),
            weight,
        },
    }
}

fn main() {
    let trace_out = std::env::var("DYNSLD_TRACE_OUT").ok();
    let telemetry = if trace_out.is_some() {
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    };
    let service = ServiceBuilder::new()
        .vertices(N)
        .shards(PRODUCERS)
        .partitioner(BlockPartitioner { block_size: BLOCK })
        .flush_policy(FlushPolicy::EveryNOps(256))
        .queue_capacity(QUEUE_CAPACITY)
        .backpressure(Backpressure::Block)
        .telemetry(telemetry.clone())
        .build()
        .expect("a valid configuration");
    let ingest = service.ingest_handle();
    let reader = service.read_handle();
    let mut driver = service.into_driver();

    println!(
        "{PRODUCERS} producers x {EDGES_PER_PRODUCER} edges over {N} vertices, \
         {QUEUE_CAPACITY}-slot queue, EveryNOps(256) shard flushes"
    );
    let start = Instant::now();

    let done = std::sync::atomic::AtomicBool::new(false);
    let report = std::thread::scope(|s| {
        // Producers: one clone of the handle each, one vertex block each.
        let mut producers = Vec::new();
        for p in 0..PRODUCERS {
            let handle = ingest.clone();
            producers.push(s.spawn(move || {
                let stream = GraphWorkloadBuilder::new(BLOCK)
                    .weight_scale(100.0)
                    .sliding_window_stream(EDGES_PER_PRODUCER, BLOCK / 2, 0xACE + p as u64);
                let offset = (p * BLOCK) as u32;
                let produced = stream.len();
                for event in stream {
                    handle
                        .submit(shift(event, offset))
                        .expect("pipeline open while producers run");
                }
                println!("producer {p} done ({produced} events)");
            }));
        }

        // A reader polling epoch-pinned views while everything above churns. It never
        // blocks the writer: every `snapshot()` is one `Arc` clone of the published view.
        let poll = reader.clone();
        let done_flag = &done;
        s.spawn(move || {
            let mut last = Vec::new();
            while !done_flag.load(std::sync::atomic::Ordering::Relaxed) {
                let snap = poll.snapshot();
                if snap.epochs() != last {
                    last = snap.epochs();
                    println!(
                        "  reader: epochs sum={} edges={} clusters(t=25)={}",
                        last.iter().sum::<u64>(),
                        snap.num_graph_edges(),
                        snap.num_clusters(25.0)
                    );
                }
                std::thread::sleep(Duration::from_millis(20));
            }
        });

        // Close the pipeline once every producer has finished; the driver then drains the
        // tail, performs the final flush, and returns its merged report.
        let closer = ingest.clone();
        s.spawn(move || {
            for p in producers {
                p.join().expect("producer panicked");
            }
            closer.close();
        });

        let report = driver
            .run_until_closed()
            .expect("validated streams cannot hard-fail");
        done.store(true, std::sync::atomic::Ordering::Relaxed);
        report
    });

    let elapsed = start.elapsed();
    println!(
        "\npipeline drained {} events ({} rejected) in {elapsed:.2?}",
        report.events_drained,
        report.rejected.len()
    );
    println!(
        "final spill share of the last flushes: {:.1}%",
        100.0 * report.flushes.spill_routing_share()
    );

    let m = driver.service().metrics();
    println!(
        "queue: {} enqueued, {} block-waits (producers outran the driver), {} compacted",
        m.events_enqueued, m.queue_block_waits, m.events_compacted_in_queue
    );
    println!(
        "shards: {} ops applied in {} flushes, {:.1}% fast path, mean flush {:.2?}",
        m.ops_applied,
        m.flushes,
        100.0 * m.fast_path_ratio(),
        m.mean_flush_time()
    );

    let snap = reader.snapshot();
    println!(
        "final view: epochs={:?}, {} edges, {} components, {} clusters at t=25",
        snap.epochs(),
        snap.num_graph_edges(),
        snap.num_components(),
        snap.num_clusters(25.0)
    );

    if let Some(path) = trace_out {
        let t = telemetry.snapshot();
        println!("\n--- telemetry ---");
        print!("{}", export::render_table(&t));
        println!(
            "queue depth: high watermark {}, last drain {}",
            m.queue_depth_max, m.queue_depth_last_drain
        );
        t.trace
            .check_well_formed()
            .expect("span trace is balanced and monotone");
        std::fs::write(&path, export::chrome_json(&t)).expect("trace file is writable");
        println!(
            "wrote {} trace events from {} threads to {path} (Chrome trace format)",
            t.trace.total_events(),
            t.trace.threads.len()
        );
    }
}
