//! **Table 2** — query costs with an explicit dendrogram (DynSLD) vs. MSF-only.
//!
//! Rows: threshold query (`O(log n)` for both), cluster-size query (`O(log n)` with DynSLD's
//! spine index vs. `O(|S|)` with only the forest), cluster-report query (`O(|S|)` work for
//! both). The cluster size |S| is controlled by the query threshold on a balanced instance, so
//! the expected shape is: DynSLD cluster-size flat in |S|, baseline cluster-size growing
//! linearly in |S|; cluster-report growing linearly for both.
//!
//! The `*_snapshot_*` rows ask a published export ([`dynsld::DendrogramSnapshot`]) instead of
//! the live structure, on the same increasing path — its dendrogram is a chain (`h = n - 1`),
//! the worst case of the snapshot's parent walk: `threshold_snapshot_walk` reads `|S| + 2`
//! records (linear in |S|, where `threshold_dynsld` is flat), `num_clusters_snapshot` is a
//! binary search (flat), and `threshold_snapshot_sweep` is what either cost before the point
//! index — the whole flat clustering, `Θ(n)` whatever |S|.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dynsld::queries::msf_baseline;
use dynsld::{DynSld, DynSldOptions};
use dynsld_bench::config;
use dynsld_forest::gen::{self, WeightOrder};
use dynsld_forest::VertexId;

fn bench_queries(c: &mut Criterion) {
    let n = 65_536;
    // A balanced path: the cluster of any vertex at threshold τ has ≈ τ vertices when weights
    // are assigned by recursive midpoint splitting... more simply, we use an increasing path
    // where the cluster of vertex 0 at threshold τ is exactly the first τ+1 vertices.
    let inst = gen::path(n, WeightOrder::Increasing);
    let mut sld = DynSld::from_forest(
        inst.build_forest(),
        DynSldOptions {
            maintain_spine_index: true,
            ..Default::default()
        },
    );
    let probe = VertexId(0);
    let far = VertexId((n - 1) as u32);
    let snapshot = sld.export_snapshot();
    // A full export builds its point index on the first point query; not part of a row.
    snapshot.threshold_connected(probe, far, 0.0);

    let mut group = c.benchmark_group("table2");
    for &cluster_size in &[64usize, 1_024, 16_384] {
        let tau = cluster_size as f64; // |S| = tau + 1 on the increasing path
        group.bench_with_input(
            BenchmarkId::new("threshold_dynsld", cluster_size),
            &tau,
            |b, &tau| b.iter(|| sld.threshold_connected(probe, far, tau)),
        );
        group.bench_with_input(
            BenchmarkId::new("cluster_size_dynsld", cluster_size),
            &tau,
            |b, &tau| b.iter(|| sld.cluster_size(probe, tau)),
        );
        group.bench_with_input(
            BenchmarkId::new("cluster_report_dynsld", cluster_size),
            &tau,
            |b, &tau| b.iter(|| sld.cluster_members(probe, tau)),
        );
        group.bench_with_input(
            BenchmarkId::new("cluster_size_msf_only", cluster_size),
            &tau,
            |b, &tau| b.iter(|| msf_baseline::cluster_size(sld.forest(), probe, tau)),
        );
        group.bench_with_input(
            BenchmarkId::new("cluster_report_msf_only", cluster_size),
            &tau,
            |b, &tau| b.iter(|| msf_baseline::cluster_members(sld.forest(), probe, tau)),
        );
        group.bench_with_input(
            BenchmarkId::new("threshold_msf_only", cluster_size),
            &tau,
            |b, &tau| b.iter(|| msf_baseline::threshold_connected(sld.forest(), probe, far, tau)),
        );
        group.bench_with_input(
            BenchmarkId::new("threshold_snapshot_walk", cluster_size),
            &tau,
            |b, &tau| b.iter(|| snapshot.threshold_connected(probe, far, tau)),
        );
        group.bench_with_input(
            BenchmarkId::new("num_clusters_snapshot", cluster_size),
            &tau,
            |b, &tau| b.iter(|| snapshot.num_clusters(tau)),
        );
        group.bench_with_input(
            BenchmarkId::new("threshold_snapshot_sweep", cluster_size),
            &tau,
            |b, &tau| b.iter(|| snapshot.flat_clustering(tau).same_cluster(probe, far)),
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_queries
}
criterion_main!(benches);
