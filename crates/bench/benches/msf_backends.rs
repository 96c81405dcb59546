//! Forest-backend head-to-head: the scan backend's exhaustive replacement search vs the
//! HDT level-structured search (`DynSldOptions::msf_backend`), on the workloads where the
//! two differ — tree-edge deletions. Both backends produce bit-identical `MsfChange`
//! streams (pinned by `tests/tests/msf_backends.rs`), so this bench measures pure search
//! cost: wall time per workload and, in the `quality` array, the per-backend
//! `replacement_edges_scanned` / `level_promotions` / `replacement_searches` counters.
//! The headline number is the candidate-examination ratio — the HDT backend must scan
//! measurably fewer replacement candidates on deletion-heavy streams.

use criterion::{
    black_box, criterion_group, criterion_main, record_quality, BenchmarkId, Criterion,
};
use dynsld::{DynSldOptions, ForestBackend};
use dynsld_bench::config;
use dynsld_forest::workload::{GraphUpdate, GraphWorkloadBuilder};
use dynsld_msf::{DynamicGraphClustering, WorkCounters};

const N: usize = 2_000;

/// Deletion-heavy regime: grow a connected graph with a reserve pool, then delete every
/// tree edge's worth of structure — each deletion triggers a replacement search.
fn deletion_heavy_stream() -> Vec<GraphUpdate> {
    let build = GraphWorkloadBuilder::new(N).weight_scale(50.0);
    let mut stream = build.churn_stream(4 * N, 2 * N, 0xDE1);
    // Append a pure deletion tail: replay the alive suffix in reverse so the stream stays
    // valid while the tail is dominated by tree deletions.
    let mut alive: Vec<(u32, u32)> = Vec::new();
    for update in &stream {
        match *update {
            GraphUpdate::Insert { u, v, .. } => alive.push((u.0.min(v.0), u.0.max(v.0))),
            GraphUpdate::Delete { u, v } => {
                let key = (u.0.min(v.0), u.0.max(v.0));
                alive.retain(|&e| e != key);
            }
            GraphUpdate::Reweight { .. } => {}
        }
    }
    stream.extend(alive.into_iter().rev().map(|(a, b)| GraphUpdate::Delete {
        u: dynsld_forest::VertexId(a),
        v: dynsld_forest::VertexId(b),
    }));
    stream
}

/// Mixed churn regime: sustained insert/delete/reweight turnover at a stable edge count.
fn churn_stream() -> Vec<GraphUpdate> {
    GraphWorkloadBuilder::new(N)
        .weight_scale(50.0)
        .churn_stream(4 * N, 6 * N, 0xC4A4)
}

fn apply(stream: &[GraphUpdate], backend: ForestBackend) -> (DynamicGraphClustering, WorkCounters) {
    let mut g = DynamicGraphClustering::with_options(
        N,
        DynSldOptions {
            msf_backend: backend,
            ..DynSldOptions::default()
        },
    );
    for &update in stream {
        match update {
            GraphUpdate::Insert { u, v, weight } => {
                g.insert_edge(u, v, weight).expect("valid stream");
            }
            GraphUpdate::Delete { u, v } => {
                g.delete_edge(u, v).expect("valid stream");
            }
            GraphUpdate::Reweight { u, v, weight } => {
                g.update_weight(u, v, weight).expect("valid stream");
            }
        }
    }
    let counters = g.take_work_counters();
    (g, counters)
}

fn bench_backends(c: &mut Criterion) {
    for (regime, stream) in [
        ("deletion_heavy", deletion_heavy_stream()),
        ("churn", churn_stream()),
    ] {
        let mut group = c.benchmark_group(format!("msf_backends/{regime}"));
        for backend in [ForestBackend::Scan, ForestBackend::Hdt] {
            let label = match backend {
                ForestBackend::Scan => "scan",
                ForestBackend::Hdt => "hdt",
            };
            group.bench_with_input(BenchmarkId::new(label, stream.len()), &stream, |b, s| {
                b.iter(|| black_box(apply(s, backend).0.num_graph_edges()))
            });
            let (_, w) = apply(&stream, backend);
            record_quality(
                format!("msf_backends/{regime}/{label}"),
                &[
                    (
                        "replacement_edges_scanned",
                        w.replacement_edges_scanned as f64,
                    ),
                    ("replacement_searches", w.replacement_searches as f64),
                    ("level_promotions", w.level_promotions as f64),
                ],
            );
        }
        // The acceptance ratio, recorded explicitly: scanned(hdt) / scanned(scan).
        let (_, ws) = apply(&stream, ForestBackend::Scan);
        let (_, wh) = apply(&stream, ForestBackend::Hdt);
        record_quality(
            format!("msf_backends/{regime}/scan_ratio"),
            &[(
                "hdt_scanned_over_scan_scanned",
                wh.replacement_edges_scanned as f64 / ws.replacement_edges_scanned.max(1) as f64,
            )],
        );
        group.finish();
    }
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_backends
}
criterion_main!(benches);
