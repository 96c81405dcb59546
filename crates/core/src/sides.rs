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
//! * **`k` cuts and their promotions** (the graph layer's deletion batch). The replacement
//!   edges the search accepted join pieces again, and the same pass places them. They form a
//!   small *piece dendrogram* `P`: one leaf per piece, one node per promotion, built by
//!   Kruskal in rank order. A promotion outweighs every edge on its old tree path (cycle
//!   property), so every new cluster lies inside an old one and a node's new spine is its old
//!   spine, filtered, plus promotion nodes. Each promotion is placed on the old dendrogram
//!   edge above the highest old ancestor of a cut on its path that ranks below it (one
//!   rank-ordered walk with path compression over those ancestors, all union nodes). An alive
//!   union node `y` is tagged with `anc(y)`, the highest node of `P` on its piece's path that
//!   ranks below `y`, and a promotion with its own node. A node's new parent is then its
//!   nearest ancestor in that augmented tree whose tag is an ancestor-or-self in `P` of its
//!   own: the pass keeps `nearest` per tag and, on a miss, reads the tags of `P` above.
//!   Nothing above a promotion's rank is unzipped, so nothing is zipped again. When the
//!   promotions join every piece of a split tree again (no cut leaves its class in `P`), the
//!   clusters above its highest promotion are the old ones, so a walk stops at its first node
//!   ranking above it: that node keeps its parent, and the spine above it is not labelled at
//!   all. The argument needs every alive edge on a promotion's old path to rank strictly
//!   below it; a tied weight could reverse that under the id tie-break. So the tags are
//!   given while the union is labelled, before the promotions are registered (their weights
//!   alone order `P`), and a batch in which some alive union node weighs exactly what a
//!   promotion weighs, or two promotions weigh the same, is unmerged first and gets its
//!   promotions through the spine merges of [`DynSld::batch_insert`] (the results are the
//!   same).
//!
//! [`UpdateStats::last_tree_queries`](crate::UpdateStats) counts one query per spine node whose
//! side was decided by its representative (the lookups of the cut endpoints they are compared
//! with are part of answering them and not counted again).

use crate::dendrogram::Dendrogram;
use crate::dynsld::DynSld;
use dynsld_dyntree::RoundTable;
use dynsld_forest::{Dsu, EdgeId, Forest, RankKey, VertexId, Weight};
use std::cmp::Ordering;

/// Label of a union node whose own edge was deleted by the batch: it stays on no side and
/// becomes nobody's parent. Equal to no component representative (treap indices are far
/// below it) and to no piece id.
const DEAD: u32 = u32::MAX >> 1;

/// Set on the label of an old node that promotions are placed over (labels stay below it).
const CHAIN: u32 = 1 << 31;

/// No node: ends a child list, and stands for an empty slot of a per-tag table or a root's
/// parent in `P`.
const NONE: u32 = u32::MAX;

/// A tree edge that [`DynSld::register_delete`] has removed from the input forest and the
/// connectivity structures, and whose dendrogram node is still to be unmerged.
#[derive(Copy, Clone, Debug)]
pub(crate) struct Cut {
    pub(crate) e: EdgeId,
    /// The rank `e` had (it no longer has one: it left the forest).
    pub(crate) rank: RankKey,
    /// The endpoint whose side [`DynSld::cut_sides`] classifies the ancestors of `e` against.
    pub(crate) u: VertexId,
    /// The other endpoint.
    pub(crate) v: VertexId,
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
    /// Edge id -> index in the batch of the cuts (written while the batch is validated).
    pub(crate) cut_index: RoundTable,
    /// Edge id -> label of the union nodes.
    labels: RoundTable,
    /// The union nodes without a parent, one per dendrogram tree the batch cuts.
    roots: Vec<EdgeId>,
    /// The union nodes where a walk stopped because they rank above every promotion of a
    /// split tree that the promotions join again: nothing at or above them changes, so they
    /// keep their parents.
    kept: Vec<EdgeId>,
    /// Edge id -> the union child of the node linked last under it by the labelling walks (as
    /// a raw edge id), the head of its list of union children.
    first_child: RoundTable,
    /// Edge id of a union node -> the next union child of its parent (`NONE` ends the list).
    /// Written when the node is labelled, so read only for union nodes.
    next_sibling: Vec<u32>,
    /// Every label given in this batch, other than [`DEAD`], is below this.
    label_bound: usize,
    /// The piece dendrogram of the batch's promotions (its leaves alone without any).
    pub(crate) pieces: PieceDendrogram,
    /// Piece -> the tag [`label`](Self::label) gave a node of it last.
    tag_of: Vec<u32>,
    /// Per promotion, in rank order: its edge id and the step below it in the augmented
    /// tree (a lower promotion on the same old dendrogram edge, or the old node the edge
    /// leaves; `None` above a cut outside the union, which has nothing below it).
    promotions: Vec<(EdgeId, Option<Step>)>,
    /// Old node -> the highest promotion placed on the edge to its old parent (by rank-order
    /// index).
    chain_top: RoundTable,
    /// Old node -> an old ancestor that ranks below the promotion placed last, so the next
    /// placement starts there (path compression for [`place`](Self::place)).
    jump: RoundTable,
    /// The nodes a placement walked, to point them at its result.
    trail: Vec<EdgeId>,
    /// Tag -> the nearest node carrying it on the root path the plan is at (as a raw edge
    /// id; [`NONE`] for none). Without promotions a tag is a label.
    nearest: RoundTable,
    /// The plan's depth-first stack.
    stack: Vec<Step>,
    /// The pointer changes the plan found: `(node, new parent)`.
    pub(crate) plan: Vec<(EdgeId, Option<EdgeId>)>,
}

/// One step of the plan's depth-first pass over the union.
#[derive(Copy, Clone, Debug)]
enum Step {
    /// Enter a union node from above: through the promotions placed over it, if any, else
    /// as [`Visit`](Self::Visit).
    Enter(EdgeId),
    /// Visit a union node, then enter its union children.
    Visit(EdgeId),
    /// Visit a union node that keeps its parent, then enter its union children.
    Keep(EdgeId),
    /// Visit the promotion with this rank-order index, then the step below it.
    Promote(u32),
    /// Leave a subtree whose root carried `tag`: `tag`'s nearest node reverts to `saved`.
    Exit { tag: u32, saved: u32 },
}

/// The piece dendrogram `P` of a promoting batch deletion: nodes `0..leaves` are the pieces
/// (by label), node `leaves + j` is the `j`-th promotion in rank order, and each promotion
/// joins the two classes of pieces its endpoints' pieces were in.
#[derive(Clone, Debug, Default)]
pub(crate) struct PieceDendrogram {
    leaves: usize,
    /// Per node, its parent ([`NONE`] for a root).
    parent: Vec<u32>,
    /// Per promotion node (from `leaves` on), its rank.
    rank: Vec<RankKey>,
    /// Per node, whether it is a root whose class holds every piece of its split tree.
    rejoined: Vec<bool>,
}

impl PieceDendrogram {
    /// `P` over `leaves` pieces and no promotion (`O(1)`: representative labels are large).
    fn reset(&mut self, leaves: usize) {
        self.leaves = leaves;
        self.parent.clear();
        self.rank.clear();
        self.rejoined.clear();
    }

    /// Builds `P` over `leaves` pieces by Kruskal over `promotions`, given in rank order as
    /// the pieces each joins. They must form a forest over the pieces. `cuts` are the pieces
    /// each cut separates: a class is a whole split tree iff no cut leaves it.
    pub(crate) fn build(
        &mut self,
        leaves: usize,
        promotions: impl Iterator<Item = ([u32; 2], RankKey)>,
        cuts: &[[u32; 2]],
    ) {
        self.reset(leaves);
        self.parent.resize(leaves, NONE);
        let mut classes = Dsu::new(leaves);
        // The class of each union-find root, as a node of `P`.
        let mut top: Vec<u32> = (0..leaves as u32).collect();
        for (pieces, rank) in promotions {
            let node = self.parent.len() as u32;
            let [a, b] = pieces.map(|p| classes.find(VertexId(p)));
            assert!(
                classes.union(a, b),
                "promotions form a forest over the pieces"
            );
            self.parent[top[a.index()] as usize] = node;
            self.parent[top[b.index()] as usize] = node;
            top[classes.find(a).index()] = node;
            self.parent.push(NONE);
            self.rank.push(rank);
        }
        // Each node's root: a parent's index is above its children's.
        let mut root = vec![NONE; self.parent.len()];
        for x in (0..root.len()).rev() {
            root[x] = self.parent(x as u32).map_or(x as u32, |p| root[p as usize]);
        }
        self.rejoined = (0..root.len()).map(|x| root[x] == x as u32).collect();
        for &[a, b] in cuts {
            let (ra, rb) = (root[a as usize], root[b as usize]);
            if ra != rb {
                self.rejoined[ra as usize] = false;
                self.rejoined[rb as usize] = false;
            }
        }
    }

    /// Number of nodes.
    fn len(&self) -> usize {
        self.leaves + self.rank.len()
    }

    /// The parent of node `x`, if any.
    fn parent(&self, x: u32) -> Option<u32> {
        self.parent.get(x as usize).copied().filter(|&p| p != NONE)
    }

    /// `anc`: the highest node on the path from node `x` that ranks below `rank` — from the
    /// leaf of a piece, the class of that piece just below that rank.
    fn climb(&self, mut x: u32, rank: RankKey) -> u32 {
        while let Some(p) = self
            .parent(x)
            .filter(|&p| self.rank[p as usize - self.leaves] < rank)
        {
            x = p;
        }
        x
    }

    /// Whether node `x` is a root whose class holds every piece of its split tree.
    fn rejoined(&self, x: u32) -> bool {
        self.rejoined.get(x as usize).copied().unwrap_or(false)
    }

    /// Whether node `x` is a promotion that ranks below `rank`.
    fn below(&self, x: u32, rank: RankKey) -> bool {
        (x as usize) >= self.leaves && self.rank[x as usize - self.leaves] < rank
    }
}

impl UnionScratch {
    /// Labels every node on the union of the characteristic spines of `cuts`, walking each
    /// spine upward until it meets a node labelled before. An alive node `f` reached from the
    /// `c`-th cut gets `label(c, x)`, where `x` is an endpoint of `f`; a deleted one gets
    /// [`DEAD`]. `label` must give two vertices of the tree the cut split the same label iff
    /// they are connected after the batch. Each labelled node is also linked under its
    /// dendrogram parent (the node its walk reaches next), so the plan walks the union
    /// through these links alone. Returns the number of nodes labelled.
    ///
    /// With `promoted` (the weights of the promotions, sorted by `total_cmp`) the piece
    /// dendrogram is already built, and each alive node is labelled with its tag there
    /// instead, `anc(y)`: the class of its piece just below its rank. A walk stops at a node
    /// whose tag is a whole split tree joined again, which keeps its parent. Returns whether
    /// some alive node weighs exactly what a promotion weighs (one lookup per labelled node).
    pub(crate) fn label(
        &mut self,
        forest: &Forest,
        dendro: &Dendrogram,
        cuts: &[Cut],
        mut label: impl FnMut(usize, VertexId) -> u32,
        promoted: &[Weight],
    ) -> (usize, bool) {
        self.labels.begin_round(forest.edge_id_bound());
        self.first_child.begin_round(forest.edge_id_bound());
        if self.next_sibling.len() < forest.edge_id_bound() {
            self.next_sibling.resize(forest.edge_id_bound(), NONE);
        }
        self.chain_top.begin_round(forest.edge_id_bound());
        self.jump.begin_round(forest.edge_id_bound());
        self.roots.clear();
        self.kept.clear();
        self.promotions.clear();
        self.label_bound = 0;
        let (mut nodes, mut tied) = (0, false);
        // Per piece, the tag given last: a walk climbs, so the next tag of the same piece is
        // at or above it in `P` unless it ranks too high (a new walk starts lower).
        let leaves = if promoted.is_empty() {
            0
        } else {
            self.pieces.leaves
        };
        self.tag_of.clear();
        self.tag_of.extend(0..leaves as u32);
        for (c, cut) in cuts.iter().enumerate() {
            for start in cut.e_star.into_iter().flatten() {
                // Everything above an already labelled node was labelled by the same walk, or
                // lies above a node that keeps its parent.
                let mut cur = Some(start);
                while let Some(f) = cur.filter(|&f| self.labels.get(f.index()).is_none()) {
                    let (l, keep) = if forest.contains_edge(f) {
                        let edge = forest.edge(f);
                        let l = label(c, edge.u);
                        assert!(l < DEAD, "component labels are below u32::MAX / 2");
                        self.label_bound = self.label_bound.max(l as usize + 1);
                        if promoted.is_empty() {
                            (l, false)
                        } else {
                            let (w, rank) = (edge.weight, RankKey::new(edge.weight, f));
                            tied |= promoted.binary_search_by(|x| x.total_cmp(&w)).is_ok();
                            let last = self.tag_of[l as usize];
                            let from = if self.pieces.below(last, rank) {
                                last
                            } else {
                                l
                            };
                            let tag = self.pieces.climb(from, rank);
                            self.tag_of[l as usize] = tag;
                            (tag, self.pieces.rejoined(tag))
                        }
                    } else {
                        (DEAD, false)
                    };
                    self.labels.set(f.index(), l);
                    nodes += 1;
                    if keep {
                        // `f` ranks above every promotion of its tree, which they join
                        // again: every cluster from here up is the old one.
                        self.kept.push(f);
                        break;
                    }
                    cur = dendro.parent(f);
                    self.link(f, cur);
                }
            }
        }
        if promoted.is_empty() {
            self.pieces.reset(self.label_bound);
        }
        (nodes, tied)
    }

    /// Links `f` under `parent` in the union's child lists, or makes it a root of the union.
    fn link(&mut self, f: EdgeId, parent: Option<EdgeId>) {
        match parent {
            Some(p) => {
                let head = self.first_child.get(p.index()).unwrap_or(NONE);
                self.next_sibling[f.index()] = head;
                self.first_child.set(p.index(), f.0);
            }
            None => self.roots.push(f),
        }
    }

    /// Places the next promotion in rank order — edge `id`, weighing `weight` — on the old
    /// dendrogram: on the edge above `t`, the highest old ancestor-or-self of `anchor` (a cut
    /// on the promotion's old tree path) that ranks below it. Every old ancestor of a cut up
    /// to its tree's highest promotion is a union node. A cut of the same weight counts as
    /// below (it is gone; every alive edge on the path is strictly lighter, or
    /// [`label`](Self::label) reported a tie). Placements walk with path compression, which
    /// is exact because their ranks only grow.
    pub(crate) fn place(
        &mut self,
        forest: &Forest,
        dendro: &Dendrogram,
        cuts: &[Cut],
        anchor: EdgeId,
        id: EdgeId,
        weight: Weight,
    ) {
        let below = |p: EdgeId| {
            let w = match self.cut_index.get(p.index()) {
                Some(c) => cuts[c as usize].rank.weight,
                None => forest.weight(p),
            };
            w.total_cmp(&weight) != Ordering::Greater
        };
        let mut t = anchor;
        let jumps = !self.promotions.is_empty();
        loop {
            if let Some(to) = self.jump.get(t.index()).filter(|_| jumps) {
                self.trail.push(t);
                t = EdgeId(to);
                continue;
            }
            match dendro.parent(t) {
                Some(p) if below(p) => {
                    self.trail.push(t);
                    t = p;
                }
                _ => break,
            }
        }
        for x in self.trail.drain(..) {
            self.jump.set(x.index(), t.0);
        }
        let step = match (self.chain_top.get(t.index()), self.labels.get(t.index())) {
            (Some(j), _) => Some(Step::Promote(j)),
            (None, Some(label)) => {
                self.labels.set(t.index(), label | CHAIN);
                Some(Step::Visit(t))
            }
            (None, None) => {
                // A cut outside the union: its promotions hang below its old parent, a union
                // node, or start a tree of their own.
                debug_assert_eq!(t, anchor, "old ancestors of a cut are union nodes");
                self.link(t, dendro.parent(t));
                None
            }
        };
        self.chain_top.set(t.index(), self.promotions.len() as u32);
        self.promotions.push((id, step));
    }

    /// Plans the unmerge of the labelled union against the dendrogram it was labelled on: one
    /// depth-first pass from the union's roots that gives every alive union node, and every
    /// placed promotion, its nearest ancestor whose tag is an ancestor-or-self of its own in
    /// `P` as new parent — without promotions, its nearest ancestor with the same label — and
    /// records it in [`plan`](Self::plan) when that differs from the current parent. Parents
    /// are planned before their children. Returns the number of nodes visited: the union and
    /// the promotions, each once.
    pub(crate) fn plan(&mut self, dendro: &Dendrogram) -> usize {
        self.nearest.begin_round(self.pieces.len());
        self.plan.clear();
        let mut visits = 0;
        self.stack
            .extend(self.roots.iter().map(|&r| Step::Enter(r)));
        self.stack.extend(self.kept.iter().map(|&r| Step::Keep(r)));
        while let Some(step) = self.stack.pop() {
            let step = match step {
                Step::Exit { tag, saved } => {
                    self.nearest.set(tag as usize, saved);
                    continue;
                }
                Step::Enter(f) => match self.labels.get(f.index()) {
                    Some(label) if label & CHAIN == 0 => Step::Visit(f),
                    // Promotions are placed over it; a cut outside the union is linked in
                    // only for them.
                    _ => Step::Promote(self.chain_top.get(f.index()).expect("placed promotions")),
                },
                step => step,
            };
            visits += 1;
            let (node, tag, below) = match step {
                Step::Visit(f) | Step::Keep(f) => {
                    let label = (self.labels.get(f.index())).expect("the plan visits union nodes");
                    let tag = label & !CHAIN;
                    if tag == DEAD {
                        self.push_children(f);
                        continue;
                    }
                    (f, tag, None)
                }
                Step::Promote(j) => {
                    let (id, below) = self.promotions[j as usize];
                    (id, (self.pieces.leaves + j as usize) as u32, below)
                }
                Step::Enter(_) | Step::Exit { .. } => unreachable!("resolved above"),
            };
            let parent = self.nearest_over(tag);
            if !matches!(step, Step::Keep(_)) && dendro.parent(node) != parent {
                self.plan.push((node, parent));
            }
            let saved = self.nearest.get(tag as usize).unwrap_or(NONE);
            self.stack.push(Step::Exit { tag, saved });
            self.nearest.set(tag as usize, node.0);
            match step {
                Step::Promote(_) => self.stack.extend(below),
                _ => self.push_children(node),
            }
        }
        visits
    }

    /// Pushes the steps entering the union children of `f`. Its children outside the union
    /// keep it as their parent, and were never linked under it.
    fn push_children(&mut self, f: EdgeId) {
        let mut child = self.first_child.get(f.index()).unwrap_or(NONE);
        while child != NONE {
            self.stack.push(Step::Enter(EdgeId(child)));
            child = self.next_sibling[child as usize];
        }
    }

    /// The nearest node on the current root path whose tag is `tag` or an ancestor of it in
    /// `P`. Tags higher in `P` rank higher, so the first tag found set is the nearest.
    fn nearest_over(&self, mut tag: u32) -> Option<EdgeId> {
        loop {
            match self.nearest.get(tag as usize) {
                Some(n) if n != NONE => return Some(EdgeId(n)),
                _ => tag = self.pieces.parent(tag)?,
            }
        }
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
    /// With `promoted` (sorted promotion weights), see [`UnionScratch::label`]: returns
    /// whether a union node ties a promotion.
    pub(crate) fn label_spines_by(
        &mut self,
        label: impl FnMut(usize, VertexId) -> u32,
        promoted: &[Weight],
    ) -> bool {
        let (forest, dendro, sides) = (&self.forest, &self.dendro, &mut self.sides);
        let (nodes, tied) = sides
            .union
            .label(forest, dendro, &sides.cuts, label, promoted);
        self.stats.last_union_nodes = nodes;
        tied
    }

    /// Labels the union of the current batch's spines with the representative of each node's
    /// post-deletion component: one round of find-representative queries.
    pub(crate) fn label_spines(&mut self) {
        let sides = &mut self.sides;
        let mut round = self.conn.repr_round(&mut sides.repr);
        let mut queries = 0;
        let (nodes, _) = sides.union.label(
            &self.forest,
            &self.dendro,
            &sides.cuts,
            |_, x| {
                queries += 1;
                round.repr(x)
            },
            &[],
        );
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
