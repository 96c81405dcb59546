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
//! * **`k` cuts** (used by [`crate::batch`]). The spines of a batch are shared almost to the
//!   root, so their *union* is labelled once with post-batch components: every spine is walked
//!   upward until it meets a node already labelled in this batch. Every ancestor of a union
//!   node is then in the union, and a node's new parent is its nearest ancestor carrying its
//!   own label — one top-down pass over the union finds all of them, keeping per label the
//!   nearest such ancestor on the current root path. There is no complement shortcut here: with
//!   `k` cuts a node can be on neither side of a given cut. The labels come from one
//!   representative round, or — in the graph layer, whose replacement search runs before the
//!   unmerge and has already enumerated the pieces the cuts left — from that search's pieces,
//!   in which case no treap query is asked at all.
//!
//! [`UpdateStats::last_tree_queries`](crate::UpdateStats) counts one query per spine node whose
//! side was decided by its representative (the lookups of the cut endpoints they are compared
//! with are part of answering them and not counted again).

use crate::dendrogram::Dendrogram;
use crate::dynsld::DynSld;
use dynsld_dyntree::RoundTable;
use dynsld_forest::{EdgeId, Forest, RankKey, VertexId};

/// Label of a union node whose own edge was deleted by the batch: it stays on no side and
/// becomes nobody's parent. Equal to no component representative (`u32::MAX` is the Euler-tour
/// treap's null index) and to no piece id.
const DEAD: u32 = u32::MAX;

/// A tree edge that [`DynSld::register_delete`] has removed from the input forest and the
/// connectivity structures, and whose dendrogram node is still to be unmerged.
#[derive(Copy, Clone, Debug)]
pub(crate) struct Cut {
    pub(crate) e: EdgeId,
    /// The rank `e` had (it no longer has one: it left the forest).
    pub(crate) rank: RankKey,
    /// The endpoint whose side [`DynSld::cut_sides`] classifies the ancestors of `e` against.
    pub(crate) u: VertexId,
    /// The characteristic edges `e*_u` and `e*_v`: the minimum-rank remaining edge at each
    /// endpoint, if any.
    pub(crate) e_star: [Option<EdgeId>; 2],
}

/// The reusable scratch of the side assignment (8 bytes per Euler-tour treap node and 20 per
/// edge id once a deletion has run, plus buffers sized by the largest batch seen), so a batch
/// deletion allocates nothing once they have grown.
#[derive(Clone, Debug, Default)]
pub(crate) struct SideScratch {
    /// Memo of the representative round.
    repr: RoundTable,
    /// The cuts of the current batch deletion, in batch order.
    pub(crate) cuts: Vec<Cut>,
    pub(crate) union: UnionScratch,
}

/// The labelled union of a batch deletion's spines and the plan of its unmerge.
#[derive(Clone, Debug, Default)]
pub(crate) struct UnionScratch {
    /// Edge id -> label of the union nodes (the cuts' ids while a batch is validated).
    pub(crate) labels: RoundTable,
    /// The union nodes without a parent, one per dendrogram tree the batch cuts.
    roots: Vec<EdgeId>,
    /// Edge id -> the union child of the node linked last under it by the labelling walks (as
    /// a raw edge id), the head of its list of union children.
    first_child: RoundTable,
    /// Edge id of a union node -> the next union child of its parent (`DEAD` ends the list).
    /// Written when the node is labelled, so read only for union nodes.
    next_sibling: Vec<u32>,
    /// Every label given in this batch, other than [`DEAD`], is below this.
    label_bound: usize,
    /// Label -> the nearest node carrying it on the root path the plan is at (as a raw edge
    /// id; [`DEAD`] for none).
    nearest: RoundTable,
    /// The plan's depth-first stack.
    stack: Vec<Step>,
    /// The pointer changes the plan found: `(node, new parent)`.
    pub(crate) plan: Vec<(EdgeId, Option<EdgeId>)>,
}

/// One step of the plan's depth-first pass over the union.
#[derive(Copy, Clone, Debug)]
enum Step {
    /// Visit a union node, then its union children.
    Enter(EdgeId),
    /// Leave a subtree whose root carried `label`: `label`'s nearest node reverts to `saved`.
    Exit { label: u32, saved: u32 },
}

impl UnionScratch {
    /// Labels every node on the union of the characteristic spines of `cuts`, walking each
    /// spine upward until it meets a node labelled before. An alive node `f` reached from the
    /// `c`-th cut gets `label(c, x)`, where `x` is an endpoint of `f`; a deleted one gets
    /// [`DEAD`]. `label` must give two vertices of the tree the cut split the same label iff
    /// they are connected after the batch. Each labelled node is also linked under its
    /// dendrogram parent (the node its walk reaches next), so the plan walks the union
    /// through these links alone. Returns the number of nodes labelled.
    pub(crate) fn label(
        &mut self,
        forest: &Forest,
        dendro: &Dendrogram,
        cuts: &[Cut],
        mut label: impl FnMut(usize, VertexId) -> u32,
    ) -> usize {
        self.labels.begin_round(forest.edge_id_bound());
        self.first_child.begin_round(forest.edge_id_bound());
        if self.next_sibling.len() < forest.edge_id_bound() {
            self.next_sibling.resize(forest.edge_id_bound(), DEAD);
        }
        self.roots.clear();
        self.label_bound = 0;
        let mut nodes = 0;
        for (c, cut) in cuts.iter().enumerate() {
            for start in cut.e_star.into_iter().flatten() {
                // Everything above an already labelled node was labelled by the same walk.
                let mut cur = Some(start);
                while let Some(f) = cur.filter(|&f| self.labels.get(f.index()).is_none()) {
                    let l = if forest.contains_edge(f) {
                        let l = label(c, forest.endpoints(f).0);
                        assert_ne!(l, DEAD, "component labels are below u32::MAX");
                        self.label_bound = self.label_bound.max(l as usize + 1);
                        l
                    } else {
                        DEAD
                    };
                    self.labels.set(f.index(), l);
                    nodes += 1;
                    cur = dendro.parent(f);
                    match cur {
                        Some(p) => {
                            let head = self.first_child.get(p.index()).unwrap_or(DEAD);
                            self.next_sibling[f.index()] = head;
                            self.first_child.set(p.index(), f.0);
                        }
                        None => self.roots.push(f),
                    }
                }
            }
        }
        nodes
    }

    /// Plans the unmerge of the labelled union against the dendrogram it was labelled on: one
    /// depth-first pass from the union's roots that gives every alive union node its nearest
    /// ancestor with the same label as new parent, and records it in [`plan`](Self::plan) when
    /// that differs from the current parent. Returns the number of nodes visited — the union,
    /// each node once.
    pub(crate) fn plan(&mut self, dendro: &Dendrogram) -> usize {
        self.nearest.begin_round(self.label_bound);
        self.plan.clear();
        let mut visits = 0;
        self.stack
            .extend(self.roots.iter().map(|&r| Step::Enter(r)));
        while let Some(step) = self.stack.pop() {
            let f = match step {
                Step::Enter(f) => f,
                Step::Exit { label, saved } => {
                    self.nearest.set(label as usize, saved);
                    continue;
                }
            };
            visits += 1;
            let label = self
                .labels
                .get(f.index())
                .expect("the plan visits union nodes");
            if label != DEAD {
                let saved = self.nearest.get(label as usize).unwrap_or(DEAD);
                let parent = (saved != DEAD).then_some(EdgeId(saved));
                if dendro.parent(f) != parent {
                    self.plan.push((f, parent));
                }
                self.stack.push(Step::Exit { label, saved });
                self.nearest.set(label as usize, f.0);
            }
            // A union node's children outside the union keep it as their parent, and were
            // never linked under it.
            let mut child = self.first_child.get(f.index()).unwrap_or(DEAD);
            while child != DEAD {
                self.stack.push(Step::Enter(EdgeId(child)));
                child = self.next_sibling[child as usize];
            }
        }
        visits
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

    /// Labels the union of the current batch's spines (see [`UnionScratch::label`]) with
    /// `label`, which asks no query of the structure.
    pub(crate) fn label_spines_by(&mut self, label: impl FnMut(usize, VertexId) -> u32) {
        let (forest, dendro, sides) = (&self.forest, &self.dendro, &mut self.sides);
        self.stats.last_union_nodes = sides.union.label(forest, dendro, &sides.cuts, label);
    }

    /// Labels the union of the current batch's spines with the representative of each node's
    /// post-deletion component: one round of find-representative queries.
    pub(crate) fn label_spines(&mut self) {
        let sides = &mut self.sides;
        let mut round = self.conn.repr_round(&mut sides.repr);
        let mut queries = 0;
        let nodes = sides
            .union
            .label(&self.forest, &self.dendro, &sides.cuts, |_, x| {
                queries += 1;
                round.repr(x)
            });
        self.stats.last_tree_queries += queries;
        self.stats.last_union_nodes = nodes;
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
