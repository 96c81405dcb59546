//! Batch-dynamic update algorithms (Section 3.3, Theorem 1.5).
//!
//! * **Batch insertion** (`Batch-Insert`, Algorithm 3): the batch is validated against the
//!   *incidence graph* — the graph whose vertices are the current components and whose edges are
//!   the batch edges; the paper (and this implementation) requires it to be a forest, otherwise
//!   the batch would create a cycle. Each incidence-graph component is then processed by rounds
//!   of leaf-star contraction: in every round the edges incident to a degree-1 component are
//!   merged into their star center with the `SLD-Merge` spine-merge primitive, and the star is
//!   contracted.
//!
//!   *Deviations (README.md, "Deviations from the paper", substitution 6):* the paper contracts a maximal independent set of
//!   degree-1 **and** degree-2 incidence vertices per round and merges the grouped sub-spines of
//!   a star in parallel; this implementation contracts leaves only and merges the spines of one
//!   star sequentially, which preserves the `O(k·h)`-type work bound and exact correctness but
//!   not the `O(log n log k log(kh))` span.
//!
//! * **Batch deletion** (`Batch-Delete`), in two steps. The first validates the batch and
//!   updates the connectivity structures for all of it. The second is one unmerge: the union
//!   of the affected spines is labelled with post-batch components ([`crate::sides`]), the
//!   spine-unmerge of every deleted edge is *planned* against the original dendrogram and
//!   those labels in one top-down pass over the union — each node's new parent is its nearest
//!   ancestor with the same label, so assignments of overlapping spines cannot disagree
//!   (Section 3.3) — and the plan is committed. The labels come from one round of
//!   find-representative queries ([`DynSld::batch_delete`]), or from a caller that knows the
//!   post-batch components already: the graph layer's replacement search runs between the two
//!   steps and labels the unmerge with the pieces it enumerated
//!   ([`DynSld::batch_delete_labelled`]), so that unmerge asks no query at all.
//!
//!   Such a caller also hands over the replacement edges it promotes ([`Labelling`]). They
//!   are registered as [`DynSld::batch_insert`] would register them (same order, so the same
//!   edge ids and version), and the same pass places them: the promotions and the pieces
//!   form a small piece dendrogram, and a node's new parent is its nearest ancestor, old node
//!   or promotion, whose class of pieces has joined its own below that ancestor's rank
//!   ([`crate::sides`]). So nothing above a promotion's rank is split and zipped again, and
//!   the batch walks no spine node outside its union and its promotions. Where the
//!   promotions join a split tree again whole, its union ends at the first node above its
//!   highest promotion, which keeps its parent. A batch in which an alive union node weighs
//!   exactly what a promotion weighs, or two promotions weigh the same, is unmerged first and
//!   then inserts its promotions with `batch_insert`'s spine merges; the results are the
//!   same.
//!
//!   *Deviation (README.md, substitution 7):* the paper plans the unmerges in parallel; the
//!   plan here is one sequential `O(union)` pass.

use crate::dynsld::{DynSld, DynSldError};
use dynsld_forest::{Dsu, EdgeId, RankKey, VertexId, Weight};
use std::collections::HashMap;

/// A replacement edge that a batch deletion inserts, with the post-batch components it joins.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Promotion {
    /// One endpoint.
    pub u: VertexId,
    /// The other endpoint.
    pub v: VertexId,
    /// Its weight.
    pub weight: Weight,
    /// The labels of the post-batch components of `u` and `v`, as the [`Labelling`] names
    /// them.
    pub pieces: [u32; 2],
}

/// What a caller of [`DynSld::batch_delete_labelled`] knows about the post-batch forest.
pub struct Labelling<L> {
    /// `label(c, x)` names the post-batch component of a vertex `x` of the tree that the
    /// `c`-th deleted edge split: equal labels for two vertices of one such tree iff they are
    /// still connected, labels dense from 0 (below `u32::MAX / 2`).
    pub label: L,
    /// The edges to insert once the batch is deleted, in batch order. Each joins two
    /// components of one split tree, together they form a forest over the components, and
    /// each outweighs every edge on its path in the pre-batch forest (the cycle property of
    /// a replacement edge; a tie is allowed).
    pub promoted: Vec<Promotion>,
}

impl DynSld {
    /// Inserts a batch of `k` edges (Theorem 1.5). Returns the new edge ids in batch order.
    ///
    /// The whole batch is validated before any modification: every edge must connect two
    /// distinct current components and no two batch edges may connect the same pair of
    /// (transitively merged) components, i.e. the incidence graph must be a forest. On error the
    /// structure is left unchanged.
    pub fn batch_insert(
        &mut self,
        edges: &[(VertexId, VertexId, Weight)],
    ) -> Result<Vec<EdgeId>, DynSldError> {
        // ---- validation (no mutation before this passes) ---------------------------------
        for &(u, v, _) in edges {
            if u == v {
                return Err(DynSldError::SelfLoop(u));
            }
            for x in [u, v] {
                if x.index() >= self.num_vertices() {
                    return Err(DynSldError::VertexOutOfRange(x));
                }
            }
            if self.conn.connected(u, v) {
                return Err(DynSldError::WouldCreateCycle(u, v));
            }
        }
        // Incidence graph: vertices = current components (by ETT representative).
        let mut comp_index: HashMap<usize, u32> = HashMap::new();
        let mut incidence: Vec<(u32, u32)> = Vec::with_capacity(edges.len());
        for &(u, v, _) in edges {
            let idx_of = |repr: usize, map: &mut HashMap<usize, u32>| -> u32 {
                let next = map.len() as u32;
                *map.entry(repr).or_insert(next)
            };
            let a = idx_of(self.conn.component_repr(u), &mut comp_index);
            let b = idx_of(self.conn.component_repr(v), &mut comp_index);
            incidence.push((a, b));
        }
        let mut dsu = Dsu::new(comp_index.len());
        for (i, &(a, b)) in incidence.iter().enumerate() {
            if !dsu.union(VertexId(a), VertexId(b)) {
                let (u, v, _) = edges[i];
                return Err(DynSldError::ConflictingBatch(u, v));
            }
        }

        self.stats.begin_update();
        let order = registration_order(edges, &incidence, comp_index.len());
        Ok(self.insert_in_order(edges, &order))
    }

    /// Registers `edges` in `order` and merges the spines of each into its endpoints' trees:
    /// the body of [`batch_insert`](Self::batch_insert) once the batch is validated. Returns
    /// the new edge ids in batch order.
    fn insert_in_order(
        &mut self,
        edges: &[(VertexId, VertexId, Weight)],
        order: &[usize],
    ) -> Vec<EdgeId> {
        let mut new_ids = vec![EdgeId(u32::MAX); edges.len()];
        for &i in order {
            let (u, v, w) = edges[i];
            let (e, e_star_u, e_star_v) = self.register_insert(u, v, w);
            if let Some(eu) = e_star_u {
                self.merge_spines_seq(eu, e);
            }
            if let Some(ev) = e_star_v {
                self.merge_spines_seq(ev, e);
            }
            new_ids[i] = e;
        }
        new_ids
    }

    /// Deletes a batch of `k` edges, addressed by endpoints (Theorem 1.5). Returns the deleted
    /// edge ids in batch order.
    ///
    /// On error the structure is left unchanged.
    pub fn batch_delete(
        &mut self,
        pairs: &[(VertexId, VertexId)],
    ) -> Result<Vec<EdgeId>, DynSldError> {
        let ids = self.cut_batch(pairs)?;
        self.label_spines();
        self.unmerge(&ids, false);
        Ok(ids)
    }

    /// [`batch_delete`](Self::batch_delete) for a caller that can name the post-batch
    /// components itself, as the graph layer's replacement search does: it enumerates every
    /// piece the cuts leave except each tree's largest, and knows the replacement edges it
    /// promotes.
    ///
    /// `search` runs once the forest and the connectivity structures reflect the whole batch
    /// and before the dendrogram is touched, so it sees the post-batch components through
    /// `&DynSld` (the dendrogram it reads is still the pre-batch one). It returns its result,
    /// which this call hands back beside the deleted ids, and optionally a [`Labelling`].
    /// With one the unmerge asks no connectivity query, and the promotions are inserted
    /// within it: the result equals this batch deletion followed by
    /// [`batch_insert`](Self::batch_insert) of the promotions in ids, dendrogram and
    /// [`version`](Self::version), and [`stats`](Self::stats) cover both. With `None` it
    /// labels by representatives, as `batch_delete` does. Either way the dendrogram is the
    /// same.
    ///
    /// On error the structure is left unchanged and `search` does not run.
    pub fn batch_delete_labelled<R, L>(
        &mut self,
        pairs: &[(VertexId, VertexId)],
        search: impl FnOnce(&DynSld) -> (R, Option<Labelling<L>>),
    ) -> Result<(Vec<EdgeId>, R), DynSldError>
    where
        L: FnMut(usize, VertexId) -> u32,
    {
        let ids = self.cut_batch(pairs)?;
        let (result, labelling) = search(self);
        let Some(Labelling {
            mut label,
            promoted,
        }) = labelling
        else {
            self.label_spines();
            self.unmerge(&ids, false);
            return Ok((ids, result));
        };
        // The promotions as a batch for `registration_order`, over the piece labels.
        let edges: Vec<_> = promoted.iter().map(|p| (p.u, p.v, p.weight)).collect();
        let incidence: Vec<_> = promoted
            .iter()
            .map(|p| (p.pieces[0], p.pieces[1]))
            .collect();
        let pieces = (incidence.iter())
            .map(|&(a, b)| a.max(b) as usize + 1)
            .max()
            .unwrap_or(0);
        let mut ranked: Vec<usize> = (0..edges.len()).collect();
        ranked.sort_by(|&a, &b| edges[a].2.total_cmp(&edges[b].2));
        let weights: Vec<Weight> = ranked.iter().map(|&i| edges[i].2).collect();
        let distinct = weights.windows(2).all(|w| w[0].total_cmp(&w[1]).is_ne());
        if !promoted.is_empty() && distinct {
            // Tagging needs the piece dendrogram, which the weights alone order.
            let cut_pieces: Vec<[u32; 2]> = (self.sides.cuts.iter().enumerate())
                .map(|(c, cut)| [label(c, cut.u), label(c, cut.v)])
                .collect();
            let leaves = (cut_pieces.iter().flatten())
                .map(|&p| p as usize + 1)
                .fold(pieces, usize::max);
            (self.sides.union.pieces).build(
                leaves,
                (ranked.iter()).map(|&i| (promoted[i].pieces, RankKey::new(edges[i].2, EdgeId(0)))),
                &cut_pieces,
            );
            if !self.label_spines_by(&mut label, &weights) {
                let ids_of = self.register_in_order(&edges, &incidence, pieces);
                let anchors = anchor_cuts(&cut_pieces, &incidence, leaves);
                let (forest, dendro, sides) = (&self.forest, &self.dendro, &mut self.sides);
                for i in ranked {
                    let (anchor, e) = (sides.cuts[anchors[i]].e, ids_of[i]);
                    (sides.union).place(forest, dendro, &sides.cuts, anchor, e, edges[i].2);
                }
                self.unmerge(&ids, true);
                return Ok((ids, result));
            }
        }
        // Without promotions, or with a tie (between two promotions, or between a promotion
        // and an alive union node): unmerge, then insert as `batch_insert` would.
        self.label_spines_by(&mut label, &[]);
        self.unmerge(&ids, false);
        let order = registration_order(&edges, &incidence, pieces);
        self.insert_in_order(&edges, &order);
        Ok((ids, result))
    }

    /// Registers the promotions `edges` in [`batch_insert`](Self::batch_insert)'s order
    /// without merging them, and returns their ids in batch order. A promotion may take the
    /// id of a deleted edge whose node is still in the dendrogram: that node becomes the
    /// promotion's.
    fn register_in_order(
        &mut self,
        edges: &[(VertexId, VertexId, Weight)],
        incidence: &[(u32, u32)],
        pieces: usize,
    ) -> Vec<EdgeId> {
        let mut ids = vec![EdgeId(u32::MAX); edges.len()];
        for i in registration_order(edges, incidence, pieces) {
            let (u, v, w) = edges[i];
            let (e, _, _) = self.register_edge(u, v, w);
            if !self.dendro.contains(e) {
                self.dendro.add_node(e);
            }
            ids[i] = e;
        }
        ids
    }

    /// The first step of a batch deletion: validates the whole batch, then removes every edge
    /// from the forest and the connectivity structures, leaving one
    /// [`Cut`](crate::sides::Cut) per edge in `self.sides.cuts`. Returns the edge ids in batch
    /// order. On error nothing has changed.
    fn cut_batch(&mut self, pairs: &[(VertexId, VertexId)]) -> Result<Vec<EdgeId>, DynSldError> {
        let mut ids = Vec::with_capacity(pairs.len());
        (self.sides.union.cut_index).begin_round(self.forest.edge_id_bound());
        for &(u, v) in pairs {
            self.check_endpoints(u, v)?;
            let e = self
                .forest
                .find_edge(u, v)
                .ok_or(DynSldError::EdgeNotFound(u, v))?;
            let cut_index = &mut self.sides.union.cut_index;
            if cut_index.get(e.index()).is_some() {
                return Err(DynSldError::ConflictingBatch(u, v));
            }
            cut_index.set(e.index(), ids.len() as u32);
            ids.push(e);
        }

        self.stats.begin_update();
        let mut cuts = std::mem::take(&mut self.sides.cuts);
        cuts.clear();
        cuts.extend(ids.iter().map(|&e| self.register_delete(e)));
        self.sides.cuts = cuts;
        Ok(ids)
    }

    /// The second step: plans every spine unmerge of the batch, and the placement of its
    /// `placed` promotions, in one pass over the labelled union (each node's new parent is
    /// its nearest ancestor in the same class, so plans of overlapping spines cannot disagree
    /// — Section 3.3), commits the plan parents first, and detaches the deleted nodes — but
    /// not one whose id a placed promotion took — and drops those whose ids no promotion took.
    fn unmerge(&mut self, ids: &[EdgeId], placed: bool) {
        self.stats.last_spine_nodes += self.sides.union.plan(&self.dendro);
        let plan = std::mem::take(&mut self.sides.union.plan);
        for &(node, parent) in &plan {
            self.set_parent(node, parent);
        }
        self.sides.union.plan = plan;
        // Detach all deleted nodes first (a deleted node may be the dendrogram child of another
        // deleted node, e.g. when a batch removes a whole sub-path), then drop them.
        for &e in ids {
            if !(placed && self.forest.contains_edge(e)) {
                self.set_parent(e, None);
            }
        }
        for &e in ids {
            if !self.forest.contains_edge(e) {
                self.dendro.remove_node(e);
            }
        }
    }
}

/// The order in which [`DynSld::batch_insert`] registers a validated batch whose edges join
/// the incidence vertices `incidence` (`< vertices`): the incidence components in batch
/// order of their first edge, each by rounds of leaf-star contraction, a round's edges in
/// rank order (weights by `total_cmp`, as `RankKey` orders them, then batch position). It
/// depends on the batch alone, so the ids a batch gets do too.
fn registration_order(
    edges: &[(VertexId, VertexId, Weight)],
    incidence: &[(u32, u32)],
    vertices: usize,
) -> Vec<usize> {
    let mut dsu = Dsu::new(vertices);
    for &(a, b) in incidence {
        dsu.union(VertexId(a), VertexId(b));
    }
    let mut group_of = vec![u32::MAX; vertices];
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for (i, &(a, _)) in incidence.iter().enumerate() {
        let root = dsu.find(VertexId(a)).index();
        if group_of[root] == u32::MAX {
            group_of[root] = groups.len() as u32;
            groups.push(Vec::new());
        }
        groups[group_of[root] as usize].push(i);
    }
    let mut order = Vec::with_capacity(edges.len());
    // Degrees by incidence vertex, zero between rounds.
    let mut degree = vec![0u32; vertices];
    for mut remaining in groups {
        while !remaining.is_empty() {
            // Degrees of incidence vertices over the remaining batch edges.
            for &i in &remaining {
                degree[incidence[i].0 as usize] += 1;
                degree[incidence[i].1 as usize] += 1;
            }
            // This round: every edge with at least one degree-1 endpoint (a leaf of the
            // incidence tree). A tree always has leaves, so progress is guaranteed.
            let (mut round, rest): (Vec<usize>, Vec<usize>) =
                remaining.iter().copied().partition(|&i| {
                    degree[incidence[i].0 as usize] == 1 || degree[incidence[i].1 as usize] == 1
                });
            for &i in &remaining {
                degree[incidence[i].0 as usize] = 0;
                degree[incidence[i].1 as usize] = 0;
            }
            debug_assert!(!round.is_empty(), "an incidence tree always has a leaf");
            // Star-Merge: each leaf spine merges into its center, in rank order for
            // determinism.
            round.sort_by(|&a, &b| edges[a].2.total_cmp(&edges[b].2).then(a.cmp(&b)));
            order.extend(round);
            remaining = rest;
        }
    }
    order
}

/// For each promotion (joining the two pieces in `incidence`), the index of one cut on its
/// path in the pre-batch forest. The cuts join the pieces of each split tree as a tree;
/// rooted, the path from `a` to `b` leaves `a` through the cut to its parent unless `a` is an
/// ancestor of `b`, in which case it enters `b` through `b`'s.
fn anchor_cuts(cut_pieces: &[[u32; 2]], incidence: &[(u32, u32)], pieces: usize) -> Vec<usize> {
    let mut head = vec![0usize; pieces + 1];
    for &[a, b] in cut_pieces {
        head[a as usize + 1] += 1;
        head[b as usize + 1] += 1;
    }
    for p in 0..pieces {
        head[p + 1] += head[p];
    }
    let mut fill = head.clone();
    let mut adjacent = vec![(0u32, 0usize); 2 * cut_pieces.len()];
    for (c, &[a, b]) in cut_pieces.iter().enumerate() {
        for (x, y) in [(a, b), (b, a)] {
            adjacent[fill[x as usize]] = (y, c);
            fill[x as usize] += 1;
        }
    }
    // Depth-first entry and exit times, and the cut to each piece's parent.
    let (mut enter, mut exit) = (vec![usize::MAX; pieces], vec![0; pieces]);
    let mut up = vec![usize::MAX; pieces];
    let (mut clock, mut stack) = (0, Vec::new());
    for root in 0..pieces {
        if enter[root] != usize::MAX {
            continue;
        }
        enter[root] = clock;
        clock += 1;
        stack.push((root, head[root]));
        while let Some((x, next)) = stack.last_mut() {
            let x = *x;
            if *next == head[x + 1] {
                exit[x] = clock;
                stack.pop();
                continue;
            }
            let (y, c) = adjacent[*next];
            *next += 1;
            let y = y as usize;
            if enter[y] == usize::MAX {
                enter[y] = clock;
                clock += 1;
                up[y] = c;
                stack.push((y, head[y]));
            }
        }
    }
    let is_ancestor = |a: usize, b: usize| enter[a] <= enter[b] && enter[b] < exit[a];
    (incidence.iter())
        .map(|&(a, b)| {
            let (a, b) = (a as usize, b as usize);
            let c = if is_ancestor(a, b) { up[b] } else { up[a] };
            debug_assert_ne!(c, usize::MAX, "a promotion joins two pieces of one tree");
            c
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynsld::{DynSldOptions, UpdateStrategy};
    use crate::static_sld::static_sld_kruskal;
    use dynsld_forest::gen::{self, WeightOrder};
    use dynsld_forest::workload::{UpdateBatch, WorkloadBuilder};
    use rand::rngs::SmallRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};
    use std::collections::HashSet;

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    fn assert_matches_static(d: &DynSld) {
        d.check_invariants().expect("invariants");
        let fresh = static_sld_kruskal(d.forest());
        assert_eq!(
            d.dendrogram().canonical_parents(),
            fresh.canonical_parents(),
            "batch-updated dendrogram diverged from static recomputation"
        );
    }

    #[test]
    fn batch_insert_builds_tree_from_batches() {
        for batch_size in [1, 3, 7, 16, 64] {
            let inst = gen::random_tree(120, 5);
            let wb = WorkloadBuilder::new(inst.clone());
            let mut d = DynSld::new(inst.n);
            for batch in wb.insertion_batches(batch_size, 3) {
                let UpdateBatch::Insertions(edges) = batch else {
                    unreachable!()
                };
                d.batch_insert(&edges).unwrap();
                assert_matches_static(&d);
            }
            assert_eq!(d.num_edges(), 119);
        }
    }

    #[test]
    fn batch_delete_tears_down_tree_in_batches() {
        for batch_size in [1, 4, 9, 32] {
            let inst = gen::random_tree(100, 7);
            let wb = WorkloadBuilder::new(inst.clone());
            let mut d = DynSld::from_forest(inst.build_forest(), DynSldOptions::default());
            for batch in wb.deletion_batches(batch_size, 11) {
                let UpdateBatch::Deletions(pairs) = batch else {
                    unreachable!()
                };
                d.batch_delete(&pairs).unwrap();
                assert_matches_static(&d);
            }
            assert_eq!(d.num_edges(), 0);
        }
    }

    #[test]
    fn star_batch_insert_matches_static() {
        // The Star-Merge special case: k components linked to one center in a single batch.
        let inst = gen::disjoint_random_trees(9, 30, 3);
        let wb = WorkloadBuilder::new(inst.clone());
        let mut d = DynSld::from_forest(inst.build_forest(), DynSldOptions::default());
        let UpdateBatch::Insertions(batch) = wb.star_link_batch(30, 8, 5) else {
            unreachable!()
        };
        d.batch_insert(&batch).unwrap();
        assert_matches_static(&d);
        assert_eq!(d.component_size(v(0)), 9 * 30);
    }

    #[test]
    fn chain_shaped_incidence_graph_matches_static() {
        // Batch edges forming a path over 6 components: exercises multi-round contraction.
        let inst = gen::disjoint_random_trees(6, 12, 9);
        let mut d = DynSld::from_forest(inst.build_forest(), DynSldOptions::default());
        let mut rng = SmallRng::seed_from_u64(2);
        let batch: Vec<(VertexId, VertexId, Weight)> = (0..5)
            .map(|i| {
                (
                    v((i * 12 + rng.gen_range(0..12)) as u32),
                    v(((i + 1) * 12 + rng.gen_range(0..12)) as u32),
                    rng.gen::<f64>() * 5.0,
                )
            })
            .collect();
        d.batch_insert(&batch).unwrap();
        assert_matches_static(&d);
        assert_eq!(d.component_size(v(0)), 72);
    }

    #[test]
    fn batch_insert_ids_depend_on_the_batch_alone() {
        // Eight incidence components of one edge each: the ids follow the group order.
        let batch: Vec<(VertexId, VertexId, Weight)> = (0..8)
            .map(|i| (v(2 * i), v(2 * i + 1), f64::from(8 - i)))
            .collect();
        let ids: HashSet<Vec<EdgeId>> = (0..20)
            .map(|_| DynSld::new(16).batch_insert(&batch).unwrap())
            .collect();
        assert_eq!(ids.len(), 1, "{ids:?}");
    }

    #[test]
    fn a_nan_weight_in_a_leaf_round_is_ranked_like_the_static_build() {
        // A path over three singletons: both edges are leaves of the incidence tree, so they
        // share the first round and are sorted against each other.
        for weights in [[f64::NAN, 1.0], [1.0, f64::NAN]] {
            let mut d = DynSld::new(3);
            d.batch_insert(&[(v(0), v(1), weights[0]), (v(1), v(2), weights[1])])
                .unwrap();
            assert_matches_static(&d);
        }
    }

    #[test]
    fn batch_insert_rejects_cycles_and_conflicts() {
        let mut d = DynSld::new(6);
        d.insert_seq(v(0), v(1), 1.0).unwrap();
        // Edge inside one existing component.
        assert_eq!(
            d.batch_insert(&[(v(0), v(1), 2.0)]),
            Err(DynSldError::WouldCreateCycle(v(0), v(1)))
        );
        // Two edges linking the same pair of components.
        let err = d
            .batch_insert(&[(v(0), v(2), 1.0), (v(1), v(2), 2.0)])
            .unwrap_err();
        assert_eq!(err, DynSldError::ConflictingBatch(v(1), v(2)));
        // Self loop and out-of-range.
        assert_eq!(
            d.batch_insert(&[(v(3), v(3), 1.0)]),
            Err(DynSldError::SelfLoop(v(3)))
        );
        assert_eq!(
            d.batch_insert(&[(v(3), v(9), 1.0)]),
            Err(DynSldError::VertexOutOfRange(v(9)))
        );
        // Nothing was modified by the failed batches.
        assert_eq!(d.num_edges(), 1);
        assert_matches_static(&d);
    }

    #[test]
    fn batch_delete_rejects_missing_and_duplicate_edges() {
        let mut d = DynSld::new(4);
        d.insert_seq(v(0), v(1), 1.0).unwrap();
        d.insert_seq(v(1), v(2), 2.0).unwrap();
        assert_eq!(
            d.batch_delete(&[(v(0), v(2))]),
            Err(DynSldError::EdgeNotFound(v(0), v(2)))
        );
        assert_eq!(
            d.batch_delete(&[(v(0), v(1)), (v(1), v(0))]),
            Err(DynSldError::ConflictingBatch(v(1), v(0)))
        );
        assert_eq!(d.num_edges(), 2);
        assert_matches_static(&d);
    }

    /// `k` distinct alive edges of `d`, drawn with `rng`, as endpoint pairs.
    fn random_cuts(d: &DynSld, k: usize, rng: &mut SmallRng) -> Vec<(VertexId, VertexId)> {
        let mut edges: Vec<EdgeId> = d.forest().edge_ids().collect();
        edges.shuffle(rng);
        edges.truncate(k);
        edges.iter().map(|&e| d.forest().endpoints(e)).collect()
    }

    /// Deletes `pairs` as one batch from `batch` and one edge at a time from `single` (twins
    /// built from the same forest), and asserts every surviving node got the same parent.
    fn assert_batch_equals_sequential(
        batch: &mut DynSld,
        single: &mut DynSld,
        pairs: &[(VertexId, VertexId)],
    ) {
        batch.batch_delete(pairs).unwrap();
        for &(a, b) in pairs {
            single.delete_seq(a, b).unwrap();
        }
        for e in single.forest().edge_ids() {
            assert_eq!(batch.parent_of(e), single.parent_of(e), "parent of {e}");
        }
        assert_matches_static(batch);
    }

    #[test]
    fn overlapping_deletion_spines_stay_consistent() {
        // Delete several edges of one long path in a single batch: the characteristic spines
        // overlap heavily, exercising the "assignments agree" property.
        for order in [
            WeightOrder::Increasing,
            WeightOrder::Random(4),
            WeightOrder::Balanced,
        ] {
            let inst = gen::path(80, order);
            let mut d = DynSld::from_forest(inst.build_forest(), DynSldOptions::default());
            let pairs: Vec<(VertexId, VertexId)> =
                (0..79).step_by(5).map(|i| (v(i), v(i + 1))).collect();
            d.batch_delete(&pairs).unwrap();
            assert_matches_static(&d);
            // A whole sub-path in one batch: on the increasing path every deleted node but the
            // lowest is the dendrogram parent of another deleted node.
            let mut batch = DynSld::from_forest(inst.build_forest(), DynSldOptions::default());
            let mut single = DynSld::from_forest(inst.build_forest(), DynSldOptions::default());
            let sub_path: Vec<(VertexId, VertexId)> = (20..50).map(|i| (v(i), v(i + 1))).collect();
            assert_batch_equals_sequential(&mut batch, &mut single, &sub_path);
        }
        // Random forests, up to 64 cuts in one batch, against per-edge deletion.
        let mut rng = SmallRng::seed_from_u64(29);
        for seed in 0..6 {
            let inst = if seed % 2 == 0 {
                gen::random_tree(400, seed)
            } else {
                gen::disjoint_random_trees(4, 100, seed)
            };
            for k in [1, 2, 8, 64] {
                let mut batch = DynSld::from_forest(inst.build_forest(), DynSldOptions::default());
                let mut single = DynSld::from_forest(inst.build_forest(), DynSldOptions::default());
                let pairs = random_cuts(&batch, k, &mut rng);
                assert_batch_equals_sequential(&mut batch, &mut single, &pairs);
            }
            // Every edge at the busiest vertex and at one of its neighbours: their nodes lie
            // on one leaf-to-root path, so deleted nodes are children of deleted nodes.
            let mut batch = DynSld::from_forest(inst.build_forest(), DynSldOptions::default());
            let mut single = DynSld::from_forest(inst.build_forest(), DynSldOptions::default());
            let hub = (0..batch.num_vertices() as u32)
                .map(v)
                .max_by_key(|&x| batch.forest().degree(x))
                .unwrap();
            let (next, _) = batch.forest().neighbors(hub).next().unwrap();
            let mut edges: Vec<EdgeId> = batch.forest().incident_edges(hub).collect();
            edges.extend(batch.forest().incident_edges(next));
            edges.sort();
            edges.dedup();
            let pairs: Vec<(VertexId, VertexId)> =
                edges.iter().map(|&e| batch.forest().endpoints(e)).collect();
            assert_batch_equals_sequential(&mut batch, &mut single, &pairs);
        }
    }

    #[test]
    fn alternating_batches_match_static() {
        // Repeatedly delete a batch and re-insert it (possibly with new weights): first the
        // lowest ids of one tree, then random batches of up to 64 edges of a random forest.
        let mut rng = SmallRng::seed_from_u64(17);
        for (inst, max_k, pick_random) in [
            (gen::random_tree(90, 13), 20, false),
            (gen::disjoint_random_trees(3, 150, 13), 64, true),
        ] {
            let mut d = DynSld::from_forest(inst.build_forest(), DynSldOptions::default());
            for round in 0..12 {
                let k = rng.gen_range(1..=max_k);
                let pairs = if pick_random {
                    random_cuts(&d, k, &mut rng)
                } else {
                    let alive: Vec<EdgeId> = d.forest().edge_ids().take(k).collect();
                    alive.iter().map(|&e| d.forest().endpoints(e)).collect()
                };
                let deleted: Vec<(VertexId, VertexId, Weight)> = pairs
                    .iter()
                    .map(|&(a, b)| {
                        let e = d.forest().find_edge(a, b).unwrap();
                        (a, b, d.forest().weight(e))
                    })
                    .collect();
                d.batch_delete(&pairs).unwrap();
                assert_matches_static(&d);
                let reinsert: Vec<(VertexId, VertexId, Weight)> = deleted
                    .iter()
                    .map(|&(a, b, w)| (a, b, if round % 2 == 0 { w } else { rng.gen::<f64>() }))
                    .collect();
                d.batch_insert(&reinsert).unwrap();
                assert_matches_static(&d);
            }
        }
    }

    #[test]
    fn the_plan_visits_each_union_node_once() {
        // On the increasing path the dendrogram is a chain of height n - 2, so every spine
        // runs to the root: `k` evenly spread cuts label a union of about n nodes, while
        // walking each cut's two spines would visit about k * n.
        for n in [100, 200, 400, 800, 1_600] {
            let inst = gen::path(n, WeightOrder::Increasing);
            for k in [1, 8, n / 20] {
                let mut d = DynSld::from_forest(inst.build_forest(), DynSldOptions::default());
                let step = (n - 1) / k;
                let pairs: Vec<(VertexId, VertexId)> = (0..k)
                    .map(|j| {
                        let i = (j * step + step / 2) as u32;
                        (v(i), v(i + 1))
                    })
                    .collect();
                let (mut union, mut walks) = (HashSet::new(), 0);
                for &(a, b) in &pairs {
                    let e = d.forest().find_edge(a, b).unwrap();
                    for x in [a, b] {
                        if let Some(s) = d.forest().min_incident_excluding(x, e) {
                            let spine = d.dendrogram().spine(s);
                            walks += spine.len();
                            union.extend(spine);
                        }
                    }
                }
                d.batch_delete(&pairs).unwrap();
                let stats = *d.stats();
                let context = format!("n = {n}, k = {k}");
                assert_eq!(stats.last_union_nodes, union.len(), "{context}");
                assert_eq!(
                    stats.last_spine_nodes,
                    union.len(),
                    "plan visits, {context}"
                );
                // Every cut lies in the union; the k dead nodes are the ones not queried.
                assert_eq!(stats.last_tree_queries, union.len() - k, "{context}");
                assert!(
                    k == 1 || walks > k * union.len() / 4,
                    "{context}: {walks} walked"
                );
                assert_matches_static(&d);
            }
        }
    }

    /// The post-batch components of `sld`'s forest, by the root of a union-find over it: a
    /// labelling the search of a batch deletion can hand over.
    fn components(sld: &DynSld) -> Dsu {
        let mut dsu = Dsu::new(sld.num_vertices());
        for (_, e) in sld.forest().edges() {
            dsu.union(e.u, e.v);
        }
        dsu
    }

    #[test]
    fn a_labelled_batch_asks_no_query_and_equals_the_representative_one() {
        let inst = gen::disjoint_random_trees(4, 120, 31);
        let mut rng = SmallRng::seed_from_u64(31);
        for k in [1, 3, 16, 64] {
            let mut plain = DynSld::from_forest(inst.build_forest(), DynSldOptions::default());
            let mut labelled = plain.clone();
            let mut unlabelled = plain.clone();
            let mut promoting = plain.clone();
            let reserve = reserve_edges(&plain, 40, &mut rng, |rng| rng.gen::<f64>() + 0.5);
            let pairs = random_cuts(&plain, k, &mut rng);
            let ids = plain.batch_delete(&pairs).unwrap();
            // Any labelling that names the post-batch components will do: here the root of a
            // union-find over the surviving forest, which the search sees already cut.
            let (labelled_ids, edges_seen) = labelled
                .batch_delete_labelled(&pairs, |sld| {
                    let mut dsu = components(sld);
                    let label = move |_: usize, x: VertexId| dsu.find(x).0;
                    let promoted = Vec::new();
                    (sld.num_edges(), Some(Labelling { label, promoted }))
                })
                .unwrap();
            let (unlabelled_ids, ()) = unlabelled
                .batch_delete_labelled(&pairs, |_| {
                    ((), None::<Labelling<fn(usize, VertexId) -> u32>>)
                })
                .unwrap();
            assert_eq!(edges_seen, inst.n - 4 - k, "the search runs after the cuts");
            assert_eq!((&labelled_ids, &unlabelled_ids), (&ids, &ids));
            assert_eq!(labelled.stats().last_tree_queries, 0, "k = {k}");
            assert!(plain.stats().last_tree_queries > 0, "k = {k}");
            assert_eq!(unlabelled.stats(), plain.stats(), "k = {k}");
            let (l, p) = (labelled.stats(), plain.stats());
            assert_eq!(
                (
                    l.last_union_nodes,
                    l.last_spine_nodes,
                    l.last_pointer_changes
                ),
                (
                    p.last_union_nodes,
                    p.last_spine_nodes,
                    p.last_pointer_changes
                ),
                "k = {k}"
            );
            for e in plain.forest().edge_ids() {
                assert_eq!(labelled.parent_of(e), plain.parent_of(e), "parent of {e}");
                assert_eq!(unlabelled.parent_of(e), plain.parent_of(e), "parent of {e}");
            }
            assert_matches_static(&labelled);
            // With promotions, the same labelled batch still asks no query, labels at most
            // the same union (a walk stops above the promotions of a tree they join again),
            // and visits only it and the promotions.
            let promoted = delete_promoting(&mut promoting, &pairs, &reserve, Promote::Within);
            let s = promoting.stats();
            assert_eq!(s.last_tree_queries, 0, "k = {k}");
            assert!(s.last_union_nodes <= p.last_union_nodes, "k = {k}");
            assert_eq!(
                s.last_spine_nodes,
                s.last_union_nodes + promoted.len(),
                "k = {k}"
            );
            assert_matches_static(&promoting);
        }
    }

    /// Where a batch deletion's promotions are inserted.
    #[derive(Copy, Clone, Debug, PartialEq)]
    enum Promote {
        /// Inside the unmerge, handed over with the labelling.
        Within,
        /// Afterwards, with `batch_insert`.
        After,
    }

    /// Up to `count` reserve edges of `d`: vertex pairs of one tree that are not forest edges,
    /// each `bump(rng)` (at least 0) heavier than the heaviest edge on its tree path, so the
    /// forest is the minimum spanning forest with them (0 ties that edge).
    fn reserve_edges(
        d: &DynSld,
        count: usize,
        rng: &mut SmallRng,
        mut bump: impl FnMut(&mut SmallRng) -> f64,
    ) -> Vec<(VertexId, VertexId, Weight)> {
        let mut probe = d.clone();
        let n = d.num_vertices() as u32;
        let mut seen = HashSet::new();
        let mut out = Vec::new();
        for _ in 0..8 * count {
            let (a, b) = (v(rng.gen_range(0..n)), v(rng.gen_range(0..n)));
            let key = dynsld_forest::ordered_pair(a, b);
            if out.len() == count || d.forest().find_edge(a, b).is_some() || !seen.insert(key) {
                continue;
            }
            if let Some(m) = probe.path_max_edge(a, b) {
                out.push((a, b, probe.forest().weight(m) + bump(rng)));
            }
        }
        out
    }

    /// The replacements the graph layer would promote for a batch whose surviving forest
    /// `sld` is split into `pieces`: Kruskal, in (weight, pair) order, over the `reserve`
    /// edges between two pieces, in acceptance order.
    fn replacements(
        reserve: &[(VertexId, VertexId, Weight)],
        pieces: &mut Dsu,
        n: usize,
    ) -> Vec<Promotion> {
        let mut order: Vec<usize> = (0..reserve.len()).collect();
        let key = |i: usize| dynsld_forest::ordered_pair(reserve[i].0, reserve[i].1);
        order.sort_by(|&a, &b| {
            (reserve[a].2.total_cmp(&reserve[b].2)).then_with(|| key(a).cmp(&key(b)))
        });
        let mut joined = Dsu::new(n);
        let mut promoted = Vec::new();
        for i in order {
            let (u, v, weight) = reserve[i];
            let (pu, pv) = (pieces.find(u), pieces.find(v));
            if joined.union(pu, pv) {
                promoted.push(Promotion {
                    u,
                    v,
                    weight,
                    pieces: [pu.0, pv.0],
                });
            }
        }
        promoted
    }

    /// Deletes `pairs` from `d` in one labelled batch and promotes the replacements
    /// `reserve` offers, inside the unmerge or with `batch_insert` afterwards. Returns them.
    fn delete_promoting(
        d: &mut DynSld,
        pairs: &[(VertexId, VertexId)],
        reserve: &[(VertexId, VertexId, Weight)],
        at: Promote,
    ) -> Vec<Promotion> {
        let (_, promoted) = d
            .batch_delete_labelled(pairs, |sld| {
                let mut pieces = components(sld);
                let promoted = replacements(reserve, &mut pieces, sld.num_vertices());
                let label = move |_: usize, x: VertexId| pieces.find(x).0;
                let within = if at == Promote::Within {
                    promoted.clone()
                } else {
                    Vec::new()
                };
                let labelling = Labelling {
                    label,
                    promoted: within,
                };
                (promoted, Some(labelling))
            })
            .unwrap();
        if at == Promote::After && !promoted.is_empty() {
            let edges: Vec<_> = promoted.iter().map(|p| (p.u, p.v, p.weight)).collect();
            d.batch_insert(&edges).unwrap();
        }
        promoted
    }

    /// Every alive node's parent, by id.
    fn parents(d: &DynSld) -> HashMap<EdgeId, Option<EdgeId>> {
        d.dendrogram()
            .nodes()
            .map(|e| (e, d.parent_of(e)))
            .collect()
    }

    /// Whether two of `promoted` weigh the same, or an alive node of the union of the spines
    /// that deleting `pairs` from `d` unmerges weighs exactly what one of them weighs: the
    /// batch then takes the two steps. The union is computed from the pre-batch dendrogram,
    /// cut by cut as the batch cuts.
    fn ties_a_union_node(
        d: &DynSld,
        pairs: &[(VertexId, VertexId)],
        promoted: &[Promotion],
    ) -> bool {
        let weights: HashSet<u64> = promoted.iter().map(|p| p.weight.to_bits()).collect();
        if weights.len() < promoted.len() {
            return true;
        }
        let mut forest = d.forest().clone();
        let (mut union, mut cut) = (HashSet::new(), HashSet::new());
        for &(a, b) in pairs {
            let e = forest.find_edge(a, b).unwrap();
            for x in [a, b] {
                if let Some(s) = forest.min_incident_excluding(x, e) {
                    union.extend(d.dendrogram().spine(s));
                }
            }
            cut.insert(e);
            forest.delete_edge(e);
        }
        (union.difference(&cut)).any(|&e| {
            let w = d.forest().weight(e);
            promoted.iter().any(|p| p.weight.total_cmp(&w).is_eq())
        })
    }

    /// Deletes `pairs` from twins of `d` with the promotions `reserve` offers, inside the
    /// unmerge and in two steps, and asserts they agree in forest ids, dendrogram and version.
    /// Returns the first twin, its promotions, and whether its plan placed them — unless a
    /// tie sent it through the two steps. Then it visited only its union and promotions, and
    /// changed each pointer it reports once.
    fn assert_promoting_equals_two_step(
        d: &DynSld,
        pairs: &[(VertexId, VertexId)],
        reserve: &[(VertexId, VertexId, Weight)],
        context: &str,
    ) -> (DynSld, Vec<Promotion>, bool) {
        let (mut within, mut after) = (d.clone(), d.clone());
        let before = parents(d);
        let promoted = delete_promoting(&mut within, pairs, reserve, Promote::Within);
        delete_promoting(&mut after, pairs, reserve, Promote::After);
        let edges = |d: &DynSld| -> Vec<_> {
            (d.forest().edges())
                .map(|(e, x)| (e, x.u, x.v, x.weight.to_bits()))
                .collect()
        };
        assert_eq!(edges(&within), edges(&after), "{context}: forest ids");
        assert_eq!(
            within.dendrogram().canonical_parents(),
            after.dendrogram().canonical_parents(),
            "{context}: dendrogram"
        );
        assert_eq!(within.version(), after.version(), "{context}: version");
        after.check_invariants().expect("invariants");
        assert_matches_static(&within);
        if within.spine.is_some() {
            // A promotion that took a deleted edge's id took its spine-index node while that
            // node was still linked: its key must be the promotion's rank.
            let forest = within.forest().clone();
            let taus = promoted.iter().take(4).map(|p| p.weight);
            for tau in taus.chain([0.5, 1.5]) {
                for x in (0..forest.num_vertices() as u32).step_by(7) {
                    let expect = crate::queries::msf_baseline::cluster_size(&forest, v(x), tau);
                    assert_eq!(within.cluster_size(v(x), tau), expect, "{context}: size");
                }
            }
        }
        let s = *within.stats();
        let placed = !promoted.is_empty() && !ties_a_union_node(d, pairs, &promoted);
        if placed {
            assert_eq!(
                s.last_spine_nodes,
                s.last_union_nodes + promoted.len(),
                "{context}: visits"
            );
            let now = parents(&within);
            let changed = (before.keys().chain(now.keys()))
                .collect::<HashSet<_>>()
                .into_iter()
                .filter(|e| before.get(*e).copied().flatten() != now.get(*e).copied().flatten())
                .count();
            assert_eq!(
                s.last_pointer_changes, changed,
                "{context}: pointer changes"
            );
        }
        (within, promoted, placed)
    }

    /// A forest's weights made tie-heavy: all equal, or drawn from three values.
    fn with_weights(mut inst: gen::TreeInstance, distinct: u32, seed: u64) -> gen::TreeInstance {
        let mut rng = SmallRng::seed_from_u64(seed);
        for e in &mut inst.edges {
            e.2 = f64::from(rng.gen_range(0..distinct));
        }
        inst
    }

    /// Draws cuts and reserve edges on `inst` and checks the promoting plan against the two
    /// steps, for batches of `sizes` cuts. Reserve weights: distinct bumps, or ties when
    /// `ties`. Without ties every promoting batch is placed by the plan. Odd seeds maintain
    /// the spine index. Returns the number of promoting batches, and of those the plan placed.
    fn sweep(inst: &gen::TreeInstance, sizes: &[usize], ties: bool, seed: u64) -> [usize; 2] {
        let mut rng = SmallRng::seed_from_u64(seed);
        let options = DynSldOptions {
            maintain_spine_index: seed % 2 == 1,
            ..Default::default()
        };
        let d = DynSld::from_forest(inst.build_forest(), options);
        let mut promoting = [0; 2];
        for &k in sizes {
            // Without ties, enough reserve that a tree is often joined again whole.
            let count = 3 * k + 4 + if ties { 0 } else { d.num_vertices() / 8 };
            let reserve = reserve_edges(&d, count, &mut rng, |rng| {
                if ties {
                    f64::from(rng.gen_range(0..2u8))
                } else {
                    rng.gen::<f64>() + 1e-3
                }
            });
            let pairs = random_cuts(&d, k.min(d.num_edges()), &mut rng);
            let context = format!("seed {seed}, k = {k}, ties {ties}");
            let (_, promoted, placed) =
                assert_promoting_equals_two_step(&d, &pairs, &reserve, &context);
            if !promoted.is_empty() {
                assert!(ties || placed, "{context}: no tie, yet not placed");
                promoting[0] += 1;
                promoting[1] += usize::from(placed);
            }
        }
        promoting
    }

    #[test]
    fn a_promoting_batch_equals_deletion_then_batch_insert() {
        let (mut distinct, mut tied) = ([0; 2], [0; 2]);
        let add = |total: &mut [usize; 2], x: [usize; 2]| {
            total[0] += x[0];
            total[1] += x[1];
        };
        for seed in 0..8 {
            let sizes = [1, 2, 5, 16, 64];
            add(
                &mut distinct,
                sweep(&gen::random_tree(200, seed), &sizes, false, seed),
            );
            let forests = gen::disjoint_random_trees(3, 60, seed);
            add(&mut distinct, sweep(&forests, &sizes, false, seed));
            // Tie-heavy weights exercise the two-step fallback and the ties the plan lets
            // through (a promotion tied only with a cut or with an edge outside the union).
            add(
                &mut tied,
                sweep(&with_weights(forests, 1, seed), &sizes, true, seed),
            );
            let few = with_weights(gen::random_tree(120, seed), 3, seed);
            add(&mut tied, sweep(&few, &sizes, true, seed));
        }
        for order in [
            WeightOrder::Increasing,
            WeightOrder::Decreasing,
            WeightOrder::Balanced,
            WeightOrder::Random(5),
        ] {
            add(
                &mut distinct,
                sweep(&gen::path(150, order), &[1, 3, 8, 40], false, 9),
            );
        }
        assert!(distinct[0] > 60, "{distinct:?} batches promoted, placed");
        assert!(
            tied[1] > 5 && tied[0] > tied[1] + 5,
            "{tied:?} tied batches, placed"
        );
    }

    #[test]
    fn a_promoting_batch_walks_only_its_union_and_promotions() {
        // Evenly spread cuts of the increasing path, each with a reserve edge just heavier
        // than it: the plan makes no spine merge, visits each union node and each promotion
        // once, and moves only the pointers that end up different.
        for n in [100, 400, 1_600] {
            let inst = gen::path(n, WeightOrder::Increasing);
            let d = DynSld::from_forest(inst.build_forest(), DynSldOptions::default());
            let k = n / 20;
            let step = (n - 1) / k;
            let pairs: Vec<(VertexId, VertexId)> = (0..k)
                .map(|j| {
                    let i = (j * step + step / 2) as u32;
                    (v(i), v(i + 1))
                })
                .collect();
            let reserve: Vec<(VertexId, VertexId, Weight)> = (pairs.iter())
                .map(|&(a, b)| {
                    let w = d.forest().weight(d.forest().find_edge(a, b).unwrap());
                    (v(a.0 - 1), b, w + 0.5)
                })
                .collect();
            let context = format!("n = {n}");
            let (within, promoted, placed) =
                assert_promoting_equals_two_step(&d, &pairs, &reserve, &context);
            assert!(placed && promoted.len() == k, "{context}");
            let s = *within.stats();
            assert_eq!(s.last_spine_nodes, s.last_union_nodes + k, "{context}");
            // Only the walk from the first cut climbs past the others, up to the first node
            // above the last promotion: the spine above it is not labelled.
            assert!(s.last_union_nodes <= k * step + 4, "{context}: {s:?}");
            // Each promotion only takes its cut's place: three pointers at most.
            assert!(s.last_pointer_changes <= 3 * k, "{context}: {s:?}");
        }
        // One cut low on the increasing path, joined again just above its rank: its walks
        // stop at the first node above the promotion, three nodes where the unmerge alone
        // would label the whole spine up to the root.
        let d = DynSld::from_forest(
            gen::path(1_000, WeightOrder::Increasing).build_forest(),
            DynSldOptions::default(),
        );
        let (pairs, reserve) = ([(v(1), v(2))], [(v(0), v(2), 2.5)]);
        let (within, _, placed) = assert_promoting_equals_two_step(&d, &pairs, &reserve, "low");
        let s = *within.stats();
        assert!(placed, "low");
        assert_eq!(
            (s.last_union_nodes, s.last_spine_nodes),
            (3, 4),
            "low: {s:?}"
        );
        let mut unmerged = d.clone();
        unmerged.batch_delete(&pairs).unwrap();
        assert!(unmerged.stats().last_union_nodes > 900, "low");
        // A zigzag path whose dendrogram is one chain alternating between the two sides of
        // its lightest edge: cut it and promote a lighter edge over it. The two steps split
        // the chain in two and zip it again, one pointer per node each time; the plan puts
        // the promotion where the cut was.
        let m = 500u32;
        let mut edges = vec![(v(m), v(m + 1), 0.0)];
        for d in 1..=m {
            edges.push((v(m - d), v(m - d + 1), f64::from(2 * d - 1)));
            edges.push((v(m + d), v(m + d + 1), f64::from(2 * d)));
        }
        let zigzag = gen::TreeInstance {
            n: 2 * m as usize + 2,
            edges,
        };
        let d = DynSld::from_forest(zigzag.build_forest(), DynSldOptions::default());
        let (pairs, reserve) = ([(v(m), v(m + 1))], [(v(m - 1), v(m + 2), 3.5)]);
        let (within, _, placed) = assert_promoting_equals_two_step(&d, &pairs, &reserve, "zigzag");
        let s = *within.stats();
        assert!(placed, "zigzag");
        assert_eq!(s.last_spine_nodes, s.last_union_nodes + 1, "zigzag");
        assert!(s.last_pointer_changes <= 5, "zigzag: {s:?}");
        let mut unmerged = d.clone();
        delete_promoting(&mut unmerged, &pairs, &[], Promote::After);
        let mut after = unmerged.clone();
        after.batch_insert(&reserve).unwrap();
        let (unmerge, merge) = (unmerged.stats(), after.stats());
        let changes = unmerge.last_pointer_changes + merge.last_pointer_changes;
        assert!(
            changes > 3 * m as usize,
            "two steps moved {changes} pointers"
        );
        assert!(merge.last_spine_nodes > m as usize, "zigzag: {merge:?}");
    }

    /// The promoting plan against the two steps over many seeds, batches of every size and
    /// tie-heavy weights. Run with `cargo test --release -p dynsld -- --ignored`.
    #[test]
    #[ignore = "a long differential sweep; CI runs it in release"]
    fn promoting_plan_differential_sweep() {
        for seed in 0..200 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let n = rng.gen_range(8..300);
            let sizes: Vec<usize> = (1..=n / 2).step_by(1 + n / 16).collect();
            let inst = if seed % 3 == 0 {
                gen::disjoint_random_trees(4, n / 4 + 2, seed)
            } else {
                gen::random_tree(n, seed)
            };
            let [promoting, placed] = sweep(&inst, &sizes, false, seed);
            assert_eq!(promoting, placed, "seed {seed}");
            for distinct in [1, 2, 4] {
                sweep(
                    &with_weights(inst.clone(), distinct, seed),
                    &sizes,
                    true,
                    seed,
                );
            }
        }
    }

    #[test]
    fn deletions_reject_self_loops_and_out_of_range_pairs() {
        for strategy in [UpdateStrategy::Sequential, UpdateStrategy::Parallel] {
            let mut d = DynSld::with_options(3, DynSldOptions::with_strategy(strategy));
            d.insert(v(0), v(1), 1.0).unwrap();
            // `(0, 0)` names no edge, although an edge is incident to vertex 0.
            assert_eq!(d.delete(v(0), v(0)), Err(DynSldError::SelfLoop(v(0))));
            assert_eq!(d.delete_seq(v(1), v(1)), Err(DynSldError::SelfLoop(v(1))));
            assert_eq!(
                d.delete_parallel(v(1), v(1)),
                Err(DynSldError::SelfLoop(v(1)))
            );
            assert_eq!(
                d.batch_delete(&[(v(0), v(0))]),
                Err(DynSldError::SelfLoop(v(0)))
            );
            // Out of range: an error, not a panic, and a valid pair earlier in the batch is
            // not deleted either.
            assert_eq!(
                d.delete(v(0), v(7)),
                Err(DynSldError::VertexOutOfRange(v(7)))
            );
            assert_eq!(
                d.batch_delete(&[(v(0), v(1)), (v(9), v(1))]),
                Err(DynSldError::VertexOutOfRange(v(9)))
            );
            assert_eq!(d.num_edges(), 1);
            assert_matches_static(&d);
        }
    }

    #[test]
    fn batch_of_size_one_equals_single_update() {
        let inst = gen::random_tree(40, 23);
        let mut batch = DynSld::from_forest(inst.build_forest(), DynSldOptions::default());
        let mut single = DynSld::from_forest(inst.build_forest(), DynSldOptions::default());
        let (a, b) = (v(3), v(17));
        if !batch.connected(a, b) {
            batch.batch_insert(&[(a, b, 0.5)]).unwrap();
            single.insert_seq(a, b, 0.5).unwrap();
        }
        let edge = batch.forest().edge_ids().next().unwrap();
        let (x, y) = batch.forest().endpoints(edge);
        batch.batch_delete(&[(x, y)]).unwrap();
        single.delete_seq(x, y).unwrap();
        assert_eq!(
            batch.dendrogram().canonical_parents(),
            single.dendrogram().canonical_parents()
        );
    }
}
