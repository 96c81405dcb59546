//! Side assignment for deletions: which side of the cut every affected spine node falls on.
//!
//! Deletion is the reverse of the spine merge (Algorithm 2, `Delete`): the nodes on the
//! characteristic spines are split by the side of the cut that contains their edge, and each side
//! is relinked in spine order. Theorem 1.1's `O(h log(1 + n/h))` is the cost of answering the
//! spine's `h` "which side?" questions as **one batch** of find-representative queries on a
//! balanced tree, and this module is the one place where the sequential, parallel and batch
//! deletion algorithms ask them — through a single
//! [representative round](dynsld_dyntree::euler#batched-representative-queries) per update, whose
//! memo [`DynSld`] owns and reuses (allocated on the first deletion).
//!
//! * **One cut** (`DynSld::cut_sides`, used by [`crate::seq`] and [`crate::par`]). The nodes
//!   between `e*_u` and the deleted edge `e` lie in `e`'s child subtree on `u`'s side, so they
//!   need no query; every strict ancestor of `e` is classified **once** against the
//!   representative of `u` — one cut leaves exactly two sides, so "not `u`'s" means `v`'s.
//! * **`k` cuts** (`DynSld::label_spines`, used by [`crate::batch`]). The spines of a batch
//!   are shared almost to the root, so their *union* is labelled once: every spine is walked
//!   upward until it meets a node already labelled in this round. The `k` unmerge plans then
//!   filter by comparing labels — no treap walk — and may run in parallel. There is no complement
//!   shortcut here: with `k` cuts a node can be on neither side of a given cut.
//!
//! [`UpdateStats::last_tree_queries`](crate::UpdateStats) counts one query per spine node whose
//! side was decided by its representative (the lookups of the cut endpoints they are compared
//! with are part of answering them and not counted again).

use crate::dynsld::DynSld;
use dynsld_dyntree::RoundTable;
use dynsld_forest::{EdgeId, RankKey, VertexId};

/// Label of a spine node whose own edge was deleted by the batch. Equal to no component
/// representative: `u32::MAX` is the Euler-tour treap's null index.
const DEAD: u32 = u32::MAX;

/// A tree edge that [`DynSld::register_delete`] has removed from the input forest and the
/// connectivity structures, and whose dendrogram node is still to be unmerged.
#[derive(Copy, Clone, Debug)]
pub(crate) struct Cut {
    pub(crate) e: EdgeId,
    /// The rank `e` had (it no longer has one: it left the forest).
    pub(crate) rank: RankKey,
    pub(crate) u: VertexId,
    pub(crate) v: VertexId,
    /// The characteristic edges `e*_u` and `e*_v`: the minimum-rank remaining edge at each
    /// endpoint, if any.
    pub(crate) e_star: [Option<EdgeId>; 2],
}

/// The reusable scratch of the side assignment (8 bytes per Euler-tour treap node and per
/// edge id once a deletion has run).
#[derive(Clone, Debug, Default)]
pub(crate) struct SideScratch {
    /// Memo of the representative round.
    repr: RoundTable,
    /// Edge id -> component label of the spine nodes labelled by the current batch deletion.
    labels: RoundTable,
}

impl SideScratch {
    /// The label [`DynSld::label_spines`] gave dendrogram node `f`, if it lies on an affected
    /// spine.
    #[inline]
    pub(crate) fn label(&self, f: EdgeId) -> Option<u32> {
        self.labels.get(f.index())
    }
}

impl DynSld {
    /// Splits the dendrogram nodes that deleting `cut.e` affects into the ones on `u`'s side
    /// and the ones on `v`'s side, each in spine (increasing rank) order — the two sequences
    /// the unmerge relinks. `cut.e` itself is in neither.
    pub(crate) fn cut_sides(&mut self, cut: &Cut) -> [Vec<EdgeId>; 2] {
        // Below `e`: the part of `Spine(e*_x)` under `e` merges vertices that reach `x` through
        // edges lighter than `e`, all of which survive the cut.
        let mut sides = cut.e_star.map(|e_star| {
            let mut below = Vec::new();
            let mut cur = e_star.filter(|&s| self.forest.rank(s) < cut.rank);
            while let Some(f) = cur.filter(|&f| f != cut.e) {
                below.push(f);
                cur = self.dendro.parent(f);
            }
            debug_assert!(below.is_empty() || cur == Some(cut.e));
            below
        });
        self.stats.last_spine_nodes += sides[0].len() + sides[1].len();

        // Above `e`: every strict ancestor merged the cluster of `e` with another one, and
        // stays with whichever side its own edge is on.
        let mut round = self.conn.repr_round(&mut self.sides.repr);
        let side_u = round.repr(cut.u);
        let mut cur = self.dendro.parent(cut.e);
        while let Some(f) = cur {
            self.stats.last_spine_nodes += 1;
            self.stats.last_tree_queries += 1;
            let on_v = round.repr(self.forest.endpoints(f).0) != side_u;
            sides[usize::from(on_v)].push(f);
            cur = self.dendro.parent(f);
        }
        sides
    }

    /// Labels every node on the union of the characteristic spines of `cuts` with the
    /// representative of the post-deletion component of its edge (readable through
    /// [`SideScratch::label`] until the next batch deletion), and returns, for each cut, the
    /// labels of `u`'s and `v`'s components: a spine node stays on the side whose label it
    /// carries. Nodes whose own edge is among the cuts get a label no side has.
    pub(crate) fn label_spines(&mut self, cuts: &[Cut]) -> Vec<[u32; 2]> {
        let labels = &mut self.sides.labels;
        labels.begin_round(self.forest.edge_id_bound());
        let mut round = self.conn.repr_round(&mut self.sides.repr);
        cuts.iter()
            .map(|cut| {
                for start in cut.e_star.into_iter().flatten() {
                    // Everything above an already labelled node was labelled by the same walk.
                    let mut cur = Some(start);
                    while let Some(f) = cur.filter(|&f| labels.get(f.index()).is_none()) {
                        let label = if self.forest.contains_edge(f) {
                            self.stats.last_tree_queries += 1;
                            round.repr(self.forest.endpoints(f).0)
                        } else {
                            DEAD
                        };
                        labels.set(f.index(), label);
                        cur = self.dendro.parent(f);
                    }
                }
                [cut.u, cut.v].map(|anchor| round.repr(anchor))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynsld::{DynSldOptions, UpdateStrategy};
    use crate::static_sld::static_sld_kruskal;
    use dynsld_forest::gen::{self, WeightOrder};
    use dynsld_forest::workload::{Update, WorkloadBuilder};
    use rand::rngs::SmallRng;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    use std::collections::HashSet;

    fn assert_matches_static(d: &DynSld) {
        d.check_invariants().expect("invariants");
        assert_eq!(
            d.dendrogram().canonical_parents(),
            static_sld_kruskal(d.forest()).canonical_parents(),
            "dendrogram diverged from static recomputation"
        );
    }

    /// Where `e*_x` sits relative to the deleted edge on the leaf-to-root path of `x`.
    #[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
    enum EStar {
        Absent,
        Below,
        Above,
    }

    /// Deletes `e` with the given strategy and checks the side assignment's counters against
    /// the shape the dendrogram had: one query per strict ancestor of `e`, and no node visited
    /// but those ancestors and the nodes between each `e*` and `e`. Returns where the two
    /// characteristic edges sat.
    fn delete_checked(d: &mut DynSld, e: EdgeId, parallel: bool) -> [EStar; 2] {
        let ancestors = d.dendrogram().spine_len(e) - 1;
        let (u, v) = d.forest().endpoints(e);
        let mut below = 0;
        let shapes = [u, v].map(|x| match d.forest().min_incident_excluding(x, e) {
            None => EStar::Absent,
            Some(s) if d.rank(s) < d.rank(e) => {
                below += d.dendrogram().spine_len(s) - (ancestors + 1);
                EStar::Below
            }
            Some(_) => EStar::Above,
        });
        if parallel {
            d.delete_edge_parallel(e);
        } else {
            d.delete_edge_seq(e);
        }
        assert_eq!(d.stats().last_tree_queries, ancestors, "queries of {e}");
        assert_eq!(
            d.stats().last_spine_nodes,
            ancestors + below,
            "visits of {e}"
        );
        assert_matches_static(d);
        shapes
    }

    #[test]
    fn deleting_the_lightest_edge_of_a_path_queries_each_ancestor_once() {
        // h = n - 2: every other edge is a strict ancestor of the lightest one.
        let n = 300;
        let inst = gen::path(n, WeightOrder::Increasing);
        for parallel in [false, true] {
            let mut d = DynSld::from_forest(inst.build_forest(), DynSldOptions::default());
            let e = d.forest().find_edge(VertexId(0), VertexId(1)).unwrap();
            assert_eq!(d.dendrogram().spine_len(e) - 1, n - 2);
            let shapes = delete_checked(&mut d, e, parallel);
            assert_eq!(shapes, [EStar::Absent, EStar::Above]);
            assert_eq!(d.stats().last_tree_queries, n - 2);
        }
    }

    #[test]
    fn nodes_below_the_deleted_edge_are_assigned_without_queries() {
        // Stars and the Theorem 5.1 star-paths instance put `e*` of the centre below the
        // deleted edge (deleting a heavy edge), above it (deleting the lightest edge) and
        // nowhere (the leaf end).
        let lb = gen::lower_bound_star_paths(48, 7);
        let (cu, cv, w) = lb.update;
        for parallel in [false, true] {
            let mut seen = HashSet::new();
            let mut star = DynSld::from_forest(gen::star(24).build_forest(), Default::default());
            for leaf in [23, 1, 12, 2, 3] {
                let e = star
                    .forest()
                    .find_edge(VertexId(0), VertexId(leaf))
                    .unwrap();
                seen.extend(delete_checked(&mut star, e, parallel));
            }
            let mut paths = DynSld::from_forest(lb.instance.build_forest(), Default::default());
            // The weight-0 edge between two centres is below everything it touches...
            let bridge = paths.insert_seq(cu, cv, w).unwrap();
            assert_eq!(
                delete_checked(&mut paths, bridge, parallel),
                [EStar::Above, EStar::Above]
            );
            // ... and with it in place, a star edge has both stars' lighter edges below it.
            paths.insert_seq(cu, cv, w).unwrap();
            let edges: Vec<EdgeId> = paths.forest().incident_edges(cu).collect();
            for e in edges.into_iter().step_by(2) {
                seen.extend(delete_checked(&mut paths, e, parallel));
            }
            assert_eq!(
                seen,
                HashSet::from([EStar::Absent, EStar::Below, EStar::Above])
            );
        }
    }

    #[test]
    fn sequential_and_parallel_deletions_report_the_same_work() {
        let inst = gen::random_tree(70, 5);
        let stream = WorkloadBuilder::new(inst.clone()).churn_stream(400, 3);
        let mut seq = DynSld::from_forest(inst.build_forest(), DynSldOptions::default());
        let mut par = DynSld::from_forest(
            inst.build_forest(),
            DynSldOptions::with_strategy(UpdateStrategy::Parallel),
        );
        let mut deletes = 0;
        for up in stream {
            match up {
                Update::Insert { u, v, weight } => {
                    seq.insert(u, v, weight).unwrap();
                    par.insert(u, v, weight).unwrap();
                }
                Update::Delete { u, v } => {
                    seq.delete(u, v).unwrap();
                    par.delete(u, v).unwrap();
                    assert_eq!(seq.stats(), par.stats(), "after delete of ({u}, {v})");
                    deletes += 1;
                }
            }
        }
        assert!(deletes > 100);
        assert_matches_static(&par);
    }

    #[test]
    fn a_batch_labels_the_union_of_its_spines_once() {
        // 64 cuts in one tall 5 000-edge component: the spines overlap almost to the root, so
        // the queries are bounded by their union (plus slack for the 2 * 64 cut endpoints),
        // not by their sum — and the result is what 64 sequential deletions produce.
        let k = 64;
        let inst = gen::path_with_height(5_001, 1_500);
        let mut batch = DynSld::from_forest(inst.build_forest(), DynSldOptions::default());
        let mut single = DynSld::from_forest(inst.build_forest(), DynSldOptions::default());
        let mut edges: Vec<EdgeId> = batch.forest().edge_ids().collect();
        assert_eq!(edges.len(), 5_000);
        edges.shuffle(&mut SmallRng::seed_from_u64(64));
        edges.truncate(k);

        let (mut union, mut sum) = (HashSet::new(), 0);
        for &e in &edges {
            let (u, v) = batch.forest().endpoints(e);
            for x in [u, v] {
                if let Some(s) = batch.forest().min_incident_excluding(x, e) {
                    let spine = batch.dendrogram().spine(s);
                    sum += spine.len();
                    union.extend(spine);
                }
            }
        }
        let pairs: Vec<(VertexId, VertexId)> =
            edges.iter().map(|&e| batch.forest().endpoints(e)).collect();
        batch.batch_delete(&pairs).unwrap();
        let queries = batch.stats().last_tree_queries;
        assert!(
            queries <= union.len() + 2 * k,
            "{queries} queries for a union of {} spine nodes",
            union.len()
        );
        assert!(sum > 10 * queries, "the spines were meant to overlap");

        for &(u, v) in &pairs {
            single.delete_seq(u, v).unwrap();
        }
        for e in single.forest().edge_ids() {
            assert_eq!(batch.parent_of(e), single.parent_of(e), "parent of {e}");
        }
        assert_eq!(batch.num_edges(), 5_000 - k);
        assert_matches_static(&batch);
    }
}
