//! **Table 1** — dynamic-tree operation costs.
//!
//! The paper's Table 1 lists the costs of Link, Cut, Connectivity Query and Path Query on RC
//! trees, sequentially (`O(log n)`) and batch-parallel (`O(k log(1 + n/k))` work). This
//! benchmark measures those operations on the substrates this reproduction uses:
//! the link-cut tree and Euler-tour tree (which provide the `O(log n)` sequential operations the
//! DynSLD updates charge to the dynamic-tree structure), and the RC forest (construction, batch
//! connectivity, and recontraction-based link/cut — see README.md, "Deviations from the paper",
//! substitution 3), plus the Euler-tour tree's batched find-representative round against the same
//! questions asked one `connected` call at a time.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dynsld_bench::{config, K_SWEEP, N_SWEEP};
use dynsld_dyntree::{EulerTourForest, LinkCutTree, RoundTable};
use dynsld_forest::gen::{self, WeightOrder};
use dynsld_forest::{EdgeId, RankKey, VertexId};
use dynsld_rctree::RcForest;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn bench_sequential_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("table1/sequential");
    for &n in N_SWEEP {
        let inst = gen::random_tree(n, 7);
        // Link-cut tree over the tree (vertices only; edges keyed by rank).
        let mut lct = LinkCutTree::with_capacity(2 * n);
        let vnodes: Vec<_> = (0..n).map(|_| lct.add_node(None)).collect();
        for (i, &(a, b, w)) in inst.edges.iter().enumerate() {
            let e = lct.add_node(Some(RankKey::new(w, EdgeId(i as u32))));
            lct.link_edge(vnodes[a.index()], e);
            lct.link_edge(e, vnodes[b.index()]);
        }
        let mut ett = EulerTourForest::new(n);
        for (i, &(a, b, _)) in inst.edges.iter().enumerate() {
            ett.link(a, b, EdgeId(i as u32));
        }
        let mut rng = SmallRng::seed_from_u64(1);

        group.bench_with_input(BenchmarkId::new("lct_link_cut", n), &n, |bench, _| {
            bench.iter(|| {
                // Cut and re-link a random tree edge (keeps the structure unchanged overall).
                let i = rng.gen_range(0..inst.edges.len());
                let (a, _b, _) = inst.edges[i];
                let en = vnodes.len() + i;
                lct.cut_edge(en, vnodes[a.index()]);
                lct.link_edge(en, vnodes[a.index()]);
            })
        });
        group.bench_with_input(BenchmarkId::new("lct_connectivity", n), &n, |bench, _| {
            bench.iter(|| {
                let a = rng.gen_range(0..n);
                let b = rng.gen_range(0..n);
                lct.connected(vnodes[a], vnodes[b])
            })
        });
        group.bench_with_input(BenchmarkId::new("lct_path_query", n), &n, |bench, _| {
            bench.iter(|| {
                let a = rng.gen_range(0..n);
                let b = rng.gen_range(0..n);
                lct.path_max_node(vnodes[a], vnodes[b])
            })
        });
        group.bench_with_input(BenchmarkId::new("ett_link_cut", n), &n, |bench, _| {
            bench.iter(|| {
                let i = rng.gen_range(0..inst.edges.len());
                let (a, b, _) = inst.edges[i];
                ett.cut(EdgeId(i as u32));
                ett.link(a, b, EdgeId(i as u32));
            })
        });
        group.bench_with_input(BenchmarkId::new("ett_connectivity", n), &n, |bench, _| {
            bench.iter(|| {
                let a = VertexId(rng.gen_range(0..n as u32));
                let b = VertexId(rng.gen_range(0..n as u32));
                ett.connected(a, b)
            })
        });
    }
    group.finish();
}

/// `k` "same component as the anchor?" questions on one 20 000-vertex tree — what a deletion
/// asks about its spine — as one representative round and as `k` separate `connected` calls.
/// The round's per-question cost falls with `k` (the `log(1 + n/k)` of Table 1's batch
/// column); the separate calls stay at two root walks each.
fn bench_repr_round(c: &mut Criterion) {
    let mut group = c.benchmark_group("table1/ett_repr_round");
    let n = 20_000usize;
    let inst = gen::random_tree(n, 7);
    let mut ett = EulerTourForest::new(n);
    for (i, &(a, b, _)) in inst.edges.iter().enumerate() {
        ett.link(a, b, EdgeId(i as u32));
    }
    let mut rng = SmallRng::seed_from_u64(2);
    let mut memo = RoundTable::new();
    let anchor = VertexId(0);
    for k in [64usize, 1_024, 16_384] {
        let queries: Vec<VertexId> = (0..k)
            .map(|_| VertexId(rng.gen_range(0..n as u32)))
            .collect();
        group.bench_with_input(BenchmarkId::new("one_round", k), &k, |bench, _| {
            bench.iter(|| {
                let mut round = ett.repr_round(&mut memo);
                let side = round.repr(anchor);
                queries.iter().filter(|&&q| round.repr(q) == side).count()
            })
        });
        group.bench_with_input(BenchmarkId::new("k_x_connected", k), &k, |bench, _| {
            bench.iter(|| {
                queries
                    .iter()
                    .filter(|&&q| ett.connected(q, anchor))
                    .count()
            })
        });
    }
    group.finish();
}

fn bench_rc_forest(c: &mut Criterion) {
    let mut group = c.benchmark_group("table1/rc_forest");
    for &n in N_SWEEP {
        let inst = gen::path(n, WeightOrder::Random(3));
        group.bench_with_input(BenchmarkId::new("build", n), &n, |bench, _| {
            bench.iter(|| RcForest::build(inst.build_forest()))
        });
        let mut rc = RcForest::build(inst.build_forest());
        let mut rng = SmallRng::seed_from_u64(5);
        group.bench_with_input(BenchmarkId::new("connectivity", n), &n, |bench, _| {
            bench.iter(|| {
                let a = VertexId(rng.gen_range(0..n as u32));
                let b = VertexId(rng.gen_range(0..n as u32));
                rc.connected(a, b)
            })
        });
        // Recontraction-based cut + link (documented substitution: not O(log n)).
        group.bench_with_input(
            BenchmarkId::new("cut_link_recontract", n),
            &n,
            |bench, _| {
                bench.iter(|| {
                    let (u, v, w) = inst.edges[n / 2];
                    let e = rc.forest().find_edge(u, v).expect("edge present");
                    rc.cut(e);
                    rc.link(u, v, w);
                })
            },
        );
        // Batch connectivity queries (Table 1, batch-parallel column).
        for &k in K_SWEEP {
            let pairs: Vec<(VertexId, VertexId)> = (0..k)
                .map(|_| {
                    (
                        VertexId(rng.gen_range(0..n as u32)),
                        VertexId(rng.gen_range(0..n as u32)),
                    )
                })
                .collect();
            group.bench_with_input(
                BenchmarkId::new(format!("batch_connectivity_n{n}"), k),
                &k,
                |bench, _| bench.iter(|| rc.batch_connected(&pairs)),
            );
        }
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_sequential_ops, bench_repr_round, bench_rc_forest
}
criterion_main!(benches);
