//! Property-based tests: every dynamic update algorithm, applied to arbitrary valid update
//! sequences, must keep the maintained dendrogram equal to static recomputation (the SLD is
//! unique given the rank total order), keep the structural invariants, and keep all algorithm
//! variants in agreement with each other.

use dynsld::{
    static_sld_kruskal, static_sld_parallel, DendrogramSnapshot, DynSld, DynSldOptions,
    UpdateStrategy,
};
use dynsld_forest::gen::TreeInstance;
use dynsld_forest::{Dsu, VertexId, Weight};
use proptest::prelude::*;

/// A raw update script over `n` vertices: pairs plus weights, interpreted by [`apply_script`].
#[derive(Clone, Debug)]
struct Script {
    n: usize,
    ops: Vec<(usize, usize, Weight, bool)>,
}

fn script_strategy(max_n: usize, max_ops: usize) -> impl Strategy<Value = Script> {
    (2..max_n).prop_flat_map(move |n| {
        let op = (0..n, 0..n, 0.0..100.0f64, any::<bool>());
        proptest::collection::vec(op, 1..max_ops).prop_map(move |ops| Script { n, ops })
    })
}

/// Interprets a raw script as a *valid* update sequence: an op `(a, b, w, is_insert)` becomes an
/// insertion if the edge would keep the forest acyclic and the edge is absent, or a deletion if
/// the edge is present; invalid ops are skipped. Returns the applied updates.
fn apply_script<F>(script: &Script, mut apply: F) -> usize
where
    F: FnMut(bool, VertexId, VertexId, Weight),
{
    let mut dsu_edges: Vec<(usize, usize, Weight)> = Vec::new();
    let mut applied = 0;
    for &(a, b, w, want_insert) in &script.ops {
        if a == b {
            continue;
        }
        let present = dsu_edges
            .iter()
            .position(|&(x, y, _)| (x, y) == (a, b) || (x, y) == (b, a));
        if want_insert {
            if present.is_some() {
                continue;
            }
            // Cycle check.
            let mut dsu = Dsu::new(script.n);
            for &(x, y, _) in &dsu_edges {
                dsu.union(VertexId(x as u32), VertexId(y as u32));
            }
            if dsu.connected(VertexId(a as u32), VertexId(b as u32)) {
                continue;
            }
            dsu_edges.push((a, b, w));
            apply(true, VertexId(a as u32), VertexId(b as u32), w);
            applied += 1;
        } else if let Some(idx) = present {
            dsu_edges.swap_remove(idx);
            apply(false, VertexId(a as u32), VertexId(b as u32), 0.0);
            applied += 1;
        }
    }
    applied
}

/// A dendrogram node keyed by its edge's endpoints, paired with its parent's endpoints.
type SemanticParent = ((VertexId, VertexId), Option<(VertexId, VertexId)>);

/// Parent assignment keyed by edge *endpoints* rather than edge ids, so that two structures
/// that assigned ids in a different order (e.g. batch vs. single updates) can be compared.
/// Valid whenever edge weights are distinct (the generated weights are random `f64`s).
fn semantic_parents(sld: &DynSld) -> Vec<SemanticParent> {
    let norm = |a: VertexId, b: VertexId| if a <= b { (a, b) } else { (b, a) };
    let mut out: Vec<_> = sld
        .dendrogram()
        .nodes()
        .map(|e| {
            let (u, v) = sld.forest().endpoints(e);
            let parent = sld.parent_of(e).map(|p| {
                let (a, b) = sld.forest().endpoints(p);
                norm(a, b)
            });
            (norm(u, v), parent)
        })
        .collect();
    out.sort();
    out
}

fn all_strategies() -> Vec<(&'static str, DynSldOptions)> {
    vec![
        (
            "sequential",
            DynSldOptions::with_strategy(UpdateStrategy::Sequential),
        ),
        (
            "output-sensitive",
            DynSldOptions::with_strategy(UpdateStrategy::OutputSensitive),
        ),
        (
            "parallel",
            DynSldOptions::with_strategy(UpdateStrategy::Parallel),
        ),
        (
            "parallel-output-sensitive",
            DynSldOptions::with_strategy(UpdateStrategy::ParallelOutputSensitive),
        ),
    ]
}

/// Weights with duplicates and both zeros (`-0.0` ranks strictly below `0.0` but a threshold
/// at either merges both).
const POINT_WEIGHTS: [f64; 7] = [-0.0, 0.0, 1.0, 1.0, 2.5, 2.5, 7.0];

/// The prefix sweep `DendrogramSnapshot::merge_height_between` ran before the point index:
/// merge in rank order, stop at the first record that connects the pair. Kept here as the
/// reference the LCA walk is checked against.
fn merge_height_sweep(s: &DendrogramSnapshot, a: VertexId, b: VertexId) -> Option<Weight> {
    if a == b {
        return Some(0.0);
    }
    let mut dsu = Dsu::new(s.num_vertices);
    s.nodes.iter().find_map(|node| {
        dsu.union(node.u, node.v);
        dsu.connected(a, b).then_some(node.weight)
    })
}

/// Every answer the snapshot gives natively equals the sweep's, at every threshold that can
/// tell two clusterings apart and at the ones that cannot.
fn check_point_queries(s: &DendrogramSnapshot) {
    let mut taus = vec![f64::NEG_INFINITY, f64::INFINITY, f64::NAN];
    for pair in POINT_WEIGHTS.windows(2) {
        taus.extend([pair[0], (pair[0] + pair[1]) / 2.0]);
    }
    taus.extend([POINT_WEIGHTS[6], POINT_WEIGHTS[6] + 1.0]);
    let vertices = || (0..s.num_vertices as u32).map(VertexId);
    for tau in taus {
        let sweep = s.flat_clustering(tau);
        assert_eq!(s.num_clusters(tau), sweep.num_clusters(), "tau={}", tau);
        for u in vertices() {
            for v in vertices() {
                assert_eq!(
                    s.threshold_connected(u, v, tau),
                    sweep.same_cluster(u, v),
                    "({}, {}) at tau={}",
                    u,
                    v,
                    tau
                );
            }
        }
    }
    for u in vertices() {
        for v in vertices() {
            assert_eq!(
                s.merge_height_between(u, v).map(f64::to_bits),
                merge_height_sweep(s, u, v).map(f64::to_bits),
                "merge height of ({}, {})",
                u,
                v
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Snapshot point queries against the sweep after random churn: toggled edges (so ids
    /// are recycled), duplicate weights and both zeros, vertex growth, isolated vertices,
    /// exports interleaved so that the index under test is mostly a spliced one — and the
    /// index a full export builds lazily from its records answers the same.
    #[test]
    fn snapshot_point_queries_match_the_sweep(
        n in 2usize..14,
        parallel in any::<bool>(),
        ops in proptest::collection::vec((0usize..64, 0usize..64, 0usize..7, 0u8..9), 1..90),
    ) {
        let strategy = if parallel { UpdateStrategy::Parallel } else { UpdateStrategy::Sequential };
        let mut sld = DynSld::with_options(n, DynSldOptions::with_strategy(strategy));
        for (a, b, weight, kind) in ops {
            let count = sld.num_vertices();
            let (u, v) = (VertexId((a % count) as u32), VertexId((b % count) as u32));
            match kind {
                0..=5 if sld.forest().find_edge(u, v).is_some() => {
                    sld.delete(u, v).unwrap();
                }
                // A rejected insertion (self loop, cycle) leaves the structure alone.
                0..=5 => drop(sld.insert(u, v, POINT_WEIGHTS[weight])),
                6 => drop(sld.add_vertices(1 + a % 3)),
                _ => check_point_queries(&sld.export_snapshot_incremental()),
            }
        }
        let spliced = sld.export_snapshot_incremental();
        let rebuilt = sld.export_snapshot();
        prop_assert_eq!(&spliced, &rebuilt);
        check_point_queries(&spliced);
        check_point_queries(&rebuilt);
    }

    /// Every update strategy matches static recomputation after an arbitrary update sequence.
    #[test]
    fn all_strategies_match_static_recomputation(script in script_strategy(24, 60)) {
        for (name, options) in all_strategies() {
            let mut sld = DynSld::with_options(script.n, options);
            apply_script(&script, |insert, u, v, w| {
                if insert {
                    sld.insert(u, v, w).unwrap();
                } else {
                    sld.delete(u, v).unwrap();
                }
            });
            sld.check_invariants().unwrap();
            let fresh = static_sld_kruskal(sld.forest());
            prop_assert_eq!(
                sld.dendrogram().canonical_parents(),
                fresh.canonical_parents(),
                "strategy {} diverged from the static oracle",
                name
            );
        }
    }

    /// Batch updates agree with one-at-a-time updates when the whole script is applied as
    /// insertion batches followed by deletion batches.
    #[test]
    fn batch_updates_agree_with_single_updates(
        script in script_strategy(20, 40),
        batch_size in 1usize..8,
    ) {
        // Derive a valid insertion set and deletion set from the script.
        let mut inserts: Vec<(VertexId, VertexId, Weight)> = Vec::new();
        let mut deletes: Vec<(VertexId, VertexId)> = Vec::new();
        apply_script(&script, |insert, u, v, w| {
            if insert {
                inserts.push((u, v, w));
            } else {
                deletes.push((u, v));
                inserts.retain(|&(a, b, _)| !((a, b) == (u, v) || (b, a) == (u, v)));
            }
        });
        // Apply all final edges as batches of the requested size.
        let mut batched = DynSld::new(script.n);
        let mut single = DynSld::new(script.n);
        for chunk in inserts.chunks(batch_size.max(1)) {
            batched.batch_insert(chunk).unwrap();
            for &(u, v, w) in chunk {
                single.insert(u, v, w).unwrap();
            }
        }
        // Batch processing may assign edge ids in a different order, so compare by endpoints.
        prop_assert_eq!(semantic_parents(&batched), semantic_parents(&single));
        // And delete half of them again in batches.
        let to_delete: Vec<(VertexId, VertexId)> = inserts
            .iter()
            .step_by(2)
            .map(|&(u, v, _)| (u, v))
            .collect();
        for chunk in to_delete.chunks(batch_size.max(1)) {
            batched.batch_delete(chunk).unwrap();
            for &(u, v) in chunk {
                single.delete(u, v).unwrap();
            }
        }
        prop_assert_eq!(semantic_parents(&batched), semantic_parents(&single));
        prop_assert_eq!(
            batched.dendrogram().canonical_parents(),
            static_sld_kruskal(batched.forest()).canonical_parents()
        );
        batched.check_invariants().unwrap();
    }

    /// The parallel static algorithm always equals the sequential one.
    #[test]
    fn parallel_static_matches_kruskal(script in script_strategy(40, 80)) {
        let mut edges: Vec<(VertexId, VertexId, Weight)> = Vec::new();
        apply_script(&script, |insert, u, v, w| {
            if insert {
                edges.push((u, v, w));
            } else {
                edges.retain(|&(a, b, _)| !((a, b) == (u, v) || (b, a) == (u, v)));
            }
        });
        let forest = TreeInstance { n: script.n, edges }.build_forest();
        prop_assert_eq!(
            static_sld_kruskal(&forest).canonical_parents(),
            static_sld_parallel(&forest).canonical_parents()
        );
    }

    /// c (the number of structural changes) is a property of the update, not of the algorithm:
    /// the height-bounded and the output-sensitive insertion report the same count.
    #[test]
    fn pointer_change_counts_are_algorithm_independent(script in script_strategy(18, 40)) {
        let mut seq = DynSld::new(script.n);
        let mut os = DynSld::with_options(
            script.n,
            DynSldOptions::with_strategy(UpdateStrategy::OutputSensitive),
        );
        let mut checked = 0usize;
        apply_script(&script, |insert, u, v, w| {
            if insert {
                seq.insert_seq(u, v, w).unwrap();
                os.insert_output_sensitive(u, v, w).unwrap();
                assert_eq!(
                    seq.stats().last_pointer_changes,
                    os.stats().last_pointer_changes
                );
                checked += 1;
            } else {
                seq.delete_seq(u, v).unwrap();
                os.delete_seq(u, v).unwrap();
            }
        });
        prop_assert!(checked <= script.ops.len());
    }

    /// Cluster-size queries with and without the spine index agree with the MSF-only baseline.
    #[test]
    fn cluster_queries_agree_with_baseline(
        script in script_strategy(20, 40),
        tau in 0.0..120.0f64,
        probe in 0usize..20,
    ) {
        let mut with_index = DynSld::with_options(
            script.n,
            DynSldOptions {
                maintain_spine_index: true,
                strategy: UpdateStrategy::Sequential,
                ..Default::default()
            },
        );
        apply_script(&script, |insert, u, v, w| {
            if insert {
                with_index.insert(u, v, w).unwrap();
            } else {
                with_index.delete(u, v).unwrap();
            }
        });
        let probe = VertexId((probe % script.n) as u32);
        let expected = dynsld::queries::msf_baseline::cluster_size(with_index.forest(), probe, tau);
        prop_assert_eq!(with_index.cluster_size(probe, tau), expected);
        let members = with_index.cluster_members(probe, tau);
        prop_assert_eq!(members.len(), expected);
        prop_assert!(members.contains(&probe));
    }
}
