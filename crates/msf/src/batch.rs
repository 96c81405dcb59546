//! Batch entry points for [`DynamicGraphClustering`].
//!
//! The paper's Theorem 1.5 gives batch-parallel dendrogram updates for *forest* batches in
//! which every inserted edge links two distinct components and the batch's incidence graph is a
//! forest, and for arbitrary sets of tree-edge deletions. A stream of *graph* updates does not
//! satisfy those preconditions directly — inserted edges may close cycles, and deleted tree
//! edges need replacement edges promoted from the reserve. This module does the routing:
//!
//! * [`DynamicGraphClustering::batch_insert_edges`] classifies the batch with a Kruskal-style
//!   union-find pass over current components (rank order, deterministic) into three classes.
//!   Edges that join distinct components ride [`DynSld::batch_insert`] in one shot. A
//!   cycle-closing edge that weighs at least every forest edge of the trees its union-find set
//!   has absorbed (each tree's heaviest edge is its dendrogram root) is stored as a non-tree
//!   edge without a path query: the cycle property already says the per-edge insert would
//!   keep it. Only the other cycle-closing edges fall back to the per-edge insert (one
//!   path-maximum query, possible eviction), without validating them again. On a cold start
//!   every tree is a single vertex, so no edge falls back.
//! * [`DynamicGraphClustering::batch_delete_edges`] strips non-tree deletions out of the batch
//!   (reserve bookkeeping only) and removes all tree edges with one
//!   [`DynSld::batch_delete_labelled`]. The replacement search — Kruskal over the lightest
//!   reserve edge per pair of pieces the cuts left — runs inside it, after the cuts and before
//!   the unmerge, since it reads only the post-batch forest. On the scan backend it reads each
//!   enumerated vertex's rank-ordered reserve lightest-first and stops at the vertex's first
//!   edge into the largest piece of its tree; every edge it skips is in no MSF (see
//!   `find_replacements`). It has then enumerated every piece except each tree's largest, so
//!   it labels the unmerge with those pieces and the dendrogram update asks no connectivity
//!   query; the HDT backend leaves the labels to representative queries. The promoted edges
//!   then enter through [`DynSld::batch_insert`], because by construction they link distinct
//!   components and form an incidence forest. [`DynamicGraphClustering::delete_edge`] is
//!   this path on a batch of one.
//!
//! Both entry points validate the whole batch before mutating anything, process edges in rank
//! order (`(weight, endpoint pair)` — fully deterministic), and report per-edge [`MsfChange`]s
//! in *input* order so callers can correlate outcomes with submissions.

use crate::{
    pair, DynamicGraphClustering, MsfChange, PairRank, PieceMarks, ReplacementIndex, WorkCounters,
};
use dynsld::{DynSld, DynSldError, UpdateStats};
use dynsld_forest::{Dsu, VertexId, Weight};
use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};

/// The result of applying one batch of graph updates.
#[derive(Clone, Debug, PartialEq)]
pub struct BatchOutcome {
    /// How the MSF changed, per input edge, in input order.
    pub changes: Vec<MsfChange>,
    /// Number of updates applied without a per-edge path query: the Theorem-1.5 batch fast
    /// path (including promoted replacement edges on deletion) and the cycle-closing
    /// insertions stored as non-tree edges because they outweigh every tree they close a
    /// cycle in.
    pub fast_path: usize,
    /// Number of updates applied through the per-edge fallback (a path-maximum query each).
    pub fallback: usize,
    /// Reserve edges promoted into the MSF by a deletion batch, in promotion order.
    pub promoted: Vec<(VertexId, VertexId)>,
    /// Wall time spent classifying the batch: the Kruskal-style union-find pass on insert,
    /// and the validating tree/non-tree split plus replacement-candidate search on delete.
    pub classify_time: Duration,
    /// The portion of [`classify_time`](Self::classify_time) spent in the forest backend's
    /// replacement search on deletion batches (candidate gathering/searching plus promotion
    /// attribution) — a *child* of the classify segment, not an additional one. This is the
    /// part that [`DynSldOptions::msf_backend`](dynsld::DynSldOptions) changes.
    pub replacement_time: Duration,
    /// Wall time spent mutating the structure: `batch_insert`/`batch_delete`, per-edge
    /// fallbacks, promotions, and reserve bookkeeping.
    pub apply_time: Duration,
    /// The dendrogram's [`UpdateStats`] read right after a deletion batch's tree edges were
    /// removed, before any promotion's [`DynSld::batch_insert`] starts its own statistics
    /// (all zero for an insertion batch or a batch without tree edges).
    pub delete_stats: UpdateStats,
}

/// Maps arbitrary component representatives (as returned by [`DynSld::component_repr`]) to
/// dense local indices, so a small [`Dsu`] can run over just the components a batch touches.
#[derive(Default)]
struct LocalComponents {
    index: HashMap<usize, u32>,
    /// The first vertex seen of each local component, by local index.
    seeds: Vec<VertexId>,
}

impl LocalComponents {
    fn local(&mut self, sld: &DynSld, v: VertexId) -> VertexId {
        let repr = sld.component_repr(v);
        let next = self.index.len() as u32;
        let local = *self.index.entry(repr).or_insert(next);
        if local == next {
            self.seeds.push(v);
        }
        VertexId(local)
    }

    fn len(&self) -> usize {
        self.index.len()
    }
}

impl DynamicGraphClustering {
    /// Inserts a batch of graph edges and updates the MSF and dendrogram.
    ///
    /// A Kruskal pass in rank order over the touched components sorts the batch into three
    /// classes. Edges joining two distinct components (accounting for merges performed by
    /// lighter batch edges) are applied with one [`DynSld::batch_insert`]. A cycle-closing
    /// edge at least as heavy as every forest edge of the trees its union-find set has
    /// absorbed is stored as a non-tree edge without a path query: its cycle holds only those
    /// forest edges, lighter batch links and lighter exchanged-in edges, so the per-edge
    /// insert would keep it too. The rest fall back to the per-edge path, in rank order. The
    /// resulting MSF equals the one produced by inserting the edges one at a time in rank
    /// order. The whole batch is validated first — on `Err` nothing was changed.
    pub fn batch_insert_edges(
        &mut self,
        edges: &[(VertexId, VertexId, Weight)],
    ) -> Result<BatchOutcome, DynSldError> {
        // ---- validation (no mutation before this passes) ---------------------------------
        let mut batch_seen = HashSet::new();
        for &(u, v, weight) in edges {
            self.check_new_edge(u, v, weight)?;
            if !batch_seen.insert(pair(u, v)) {
                return Err(DynSldError::ConflictingBatch(u, v));
            }
        }

        // ---- classify: Kruskal over (current components ∪ lighter batch edges) ----------
        let classify_start = Instant::now();
        // Rank order is a pure function of the batch content (no insertion-assigned ids).
        let mut order: Vec<usize> = (0..edges.len()).collect();
        order.sort_by_key(|&i| PairRank(edges[i].2, pair(edges[i].0, edges[i].1)));
        let mut comps = LocalComponents::default();
        let locals: Vec<(VertexId, VertexId)> = edges
            .iter()
            .map(|&(u, v, _)| (comps.local(&self.sld, u), comps.local(&self.sld, v)))
            .collect();
        let mut dsu = Dsu::new(comps.len());
        let mut forest_batch: Vec<(VertexId, VertexId, Weight)> = Vec::new();
        let mut cycle_idx: Vec<usize> = Vec::new();
        let mut changes: Vec<Option<MsfChange>> = vec![None; edges.len()];
        for &i in &order {
            let (a, b) = locals[i];
            if dsu.union(a, b) {
                forest_batch.push(edges[i]);
                changes[i] = Some(MsfChange::Inserted);
            } else {
                cycle_idx.push(i);
            }
        }
        if !cycle_idx.is_empty() {
            self.store_without_query(edges, &order, &locals, &comps.seeds, &mut changes);
        }
        let classify_time = classify_start.elapsed();

        // ---- fast path: all forest edges in one Theorem-1.5 batch ------------------------
        let apply_start = Instant::now();
        if !forest_batch.is_empty() {
            self.sld
                .batch_insert(&forest_batch)
                .expect("classified forest batch satisfies the batch_insert precondition");
            for &(u, v, weight) in &forest_batch {
                self.index_add_tree(u, v, weight);
            }
        }

        // ---- cycle-closing edges, in rank order: stored, or per edge ---------------------
        let mut fallback = 0;
        for i in cycle_idx {
            let (u, v, w) = edges[i];
            if changes[i].is_some() {
                self.index_add_nontree(u, v, w);
            } else {
                changes[i] = Some(self.insert_validated(u, v, w));
                fallback += 1;
            }
        }

        Ok(BatchOutcome {
            changes: changes
                .into_iter()
                .map(|c| c.expect("every batch edge classified"))
                .collect(),
            fast_path: edges.len() - fallback,
            fallback,
            promoted: Vec::new(),
            classify_time,
            // Insert batches run no deletion-side replacement search (HDT eviction replays in
            // the fallback path are accounted to apply_time with the rest of the fallback).
            replacement_time: Duration::ZERO,
            apply_time: apply_start.elapsed(),
            delete_stats: UpdateStats::default(),
        })
    }

    /// The insertion batch's second Kruskal pass, run when the first left cycle-closing edges:
    /// each union-find set carries the heaviest forest weight among the trees it has absorbed
    /// (a tree's heaviest edge is its dendrogram root; a tree without edges carries −∞), and a
    /// cycle-closing edge that weighs at least its set's bound at its rank is marked
    /// [`MsfChange::StoredNonTree`] in `changes`.
    ///
    /// That is exact, ties included. In rank order the set spans a subtree of the forest the
    /// per-edge inserts would see, made of the absorbed trees' forest edges, the lighter batch
    /// links and the lighter edges that earlier exchanges put in. The edge's cycle stays inside
    /// it, so no cycle edge outweighs the edge and [`DynSld::exchange`] would keep the
    /// incumbents (its test is `weight >= out_weight`).
    fn store_without_query(
        &self,
        edges: &[(VertexId, VertexId, Weight)],
        order: &[usize],
        locals: &[(VertexId, VertexId)],
        seeds: &[VertexId],
        changes: &mut [Option<MsfChange>],
    ) {
        let (forest, dendrogram) = (self.sld.forest(), self.sld.dendrogram());
        let mut bound: Vec<Weight> = seeds
            .iter()
            .map(|&x| {
                forest.min_incident(x).map_or(Weight::NEG_INFINITY, |e| {
                    forest.weight(dendrogram.root_of(e))
                })
            })
            .collect();
        let mut dsu = Dsu::new(seeds.len());
        for &i in order {
            let (a, b) = (dsu.find(locals[i].0), dsu.find(locals[i].1));
            if a != b {
                dsu.union(a, b);
                bound[dsu.find(a).index()] = bound[a.index()].max(bound[b.index()]);
            } else if edges[i].2 >= bound[a.index()] {
                changes[i] = Some(MsfChange::StoredNonTree);
            }
        }
    }

    /// Deletes a batch of graph edges (addressed by endpoints) and updates the MSF and
    /// dendrogram, promoting replacement edges from the reserve where cuts can be reconnected.
    ///
    /// Non-tree deletions touch only the reserve index. All tree deletions are applied with one
    /// [`DynSld::batch_delete_labelled`], inside which the replacement search runs Kruskal over
    /// the lightest reserve edge per pair of pieces (`O(scanned + k²)` work for `k` pieces on
    /// the scan backend, whose pieces then label the unmerge), and the accepted promotions
    /// enter through [`DynSld::batch_insert`]. The
    /// resulting MSF equals per-edge deletion in any order. The whole batch is validated
    /// first — on `Err` nothing was changed.
    pub fn batch_delete_edges(
        &mut self,
        pairs: &[(VertexId, VertexId)],
    ) -> Result<BatchOutcome, DynSldError> {
        // Classify/apply wall time is accumulated across the interleaved segments below:
        // classify = validating tree/non-tree split + replacement-candidate search; apply =
        // the Theorem-1.5 batch delete, bookkeeping, and promotions.
        let mut classify_time = Duration::ZERO;
        let mut apply_time = Duration::ZERO;

        // ---- validation and tree/non-tree split (no mutation before this passes) ---------
        let split_start = Instant::now();
        let mut batch_seen = HashSet::new();
        let mut tree_idx: Vec<usize> = Vec::new();
        let mut nontree: Vec<(usize, Weight)> = Vec::new();
        for (i, &(u, v)) in pairs.iter().enumerate() {
            if self.is_tree_edge(u, v) {
                tree_idx.push(i);
            } else if let Some(weight) = self.nontree_weight(u, v) {
                nontree.push((i, weight));
            } else {
                return Err(DynSldError::EdgeNotFound(u, v));
            }
            if !batch_seen.insert(pair(u, v)) {
                return Err(DynSldError::ConflictingBatch(u, v));
            }
        }

        // ---- non-tree deletions: reserve bookkeeping only --------------------------------
        let mut changes: Vec<Option<MsfChange>> = vec![None; pairs.len()];
        for (i, weight) in nontree {
            let (u, v) = pairs[i];
            self.index_remove_nontree(u, v, weight);
            changes[i] = Some(MsfChange::RemovedNonTree);
        }
        classify_time += split_start.elapsed();
        if tree_idx.is_empty() {
            return Ok(BatchOutcome {
                changes: changes
                    .into_iter()
                    .map(|c| c.expect("classified"))
                    .collect(),
                fast_path: 0,
                fallback: 0,
                promoted: Vec::new(),
                classify_time,
                replacement_time: Duration::ZERO,
                apply_time,
                delete_stats: UpdateStats::default(),
            });
        }

        // ---- tree deletions: one Theorem-1.5 batch, labelled by the replacement search ----
        // The search needs only the post-batch forest, so it runs inside the batch, before
        // the unmerge, and the pieces it enumerates label the unmerge on the scan backend.
        let delete_start = Instant::now();
        let tree_pairs: Vec<(VertexId, VertexId)> = tree_idx.iter().map(|&i| pairs[i]).collect();
        let (index, marks, counters) = (&mut self.index, &mut self.pieces, &mut self.counters);
        let scan = matches!(index, ReplacementIndex::Scan { .. });
        let (_, ((promoted, tree_changes), replacement_time)) = self
            .sld
            .batch_delete_labelled(&tree_pairs, |sld| {
                let search_start = Instant::now();
                let found = find_replacements(sld, index, marks, counters, &tree_pairs);
                let marks: &PieceMarks = marks;
                let label = |c: usize, x: VertexId| marks.piece(x).unwrap_or(marks.cut_outer[c]);
                ((found, search_start.elapsed()), scan.then_some(label))
            })
            .expect("validated tree edges are alive forest edges");
        let delete_stats = *self.sld.stats();
        for (&i, change) in tree_idx.iter().zip(tree_changes) {
            changes[i] = Some(change);
        }
        apply_time += delete_start.elapsed().saturating_sub(replacement_time);
        classify_time += replacement_time;

        // ---- promotions ride the batch fast path -----------------------------------------
        let promote_start = Instant::now();
        if !promoted.is_empty() {
            self.sld
                .batch_insert(&promoted)
                .expect("accepted promotions link distinct components and form a forest");
            self.mark_promoted(&promoted);
        }
        apply_time += promote_start.elapsed();

        Ok(BatchOutcome {
            changes: changes
                .into_iter()
                .map(|c| c.expect("classified"))
                .collect(),
            fast_path: tree_pairs.len() + promoted.len(),
            fallback: 0,
            promoted: promoted.iter().map(|&(a, b, _)| (a, b)).collect(),
            classify_time,
            replacement_time,
            apply_time,
            delete_stats,
        })
    }

    /// Takes promoted edges out of the non-tree store: the scan backend's reserve drops them,
    /// since the forest insert that promoted them made the forest their store; the HDT
    /// searches already turned them into tree edges inside their index.
    pub(crate) fn mark_promoted(&mut self, promoted: &[(VertexId, VertexId, Weight)]) {
        if let ReplacementIndex::Scan { reserve } = &mut self.index {
            for &(a, b, w) in promoted {
                reserve.remove(a, b, w);
            }
        }
        self.nontree_edges -= promoted.len();
    }
}

/// Finds the replacements for tree edges just cut from the MSF (already gone from `sld`'s
/// forest; its dendrogram is not read): Kruskal, in [`PairRank`] order, over the lightest
/// reserve edge between each pair of pieces the cuts left. Returns the accepted promotions in
/// order and each deleted edge's [`MsfChange`], in input order. The promotions are not
/// applied: the caller inserts them into `sld`, then calls
/// [`mark_promoted`](DynamicGraphClustering::mark_promoted).
///
/// One deleted edge leaves two pieces, and the scan covers the one that is not the largest —
/// `u`'s piece on a size tie, since `u` gets the lower local id. Each vertex of a scanned piece
/// reads its reserve entries lightest-first and stops at its first one into the largest piece
/// of its tree (why that is exact is stated at the scan). On the scan backend `marks`
/// then names every post-deletion component of the cut trees: [`PieceMarks::piece`], or
/// `marks.cut_outer[c]` for a vertex of `tree_pairs[c]`'s tree that no piece marks.
pub(crate) fn find_replacements(
    sld: &DynSld,
    index: &mut ReplacementIndex,
    marks: &mut PieceMarks,
    counters: &mut WorkCounters,
    tree_pairs: &[(VertexId, VertexId)],
) -> (Vec<(VertexId, VertexId, Weight)>, Vec<MsfChange>) {
    // A candidate is `(rank, (piece of one endpoint, piece of the other))`, with pieces as
    // local ids over the post-deletion components of the deleted endpoints.
    let mut comps = LocalComponents::default();
    let deleted_locals: Vec<(VertexId, VertexId)> = tree_pairs
        .iter()
        .map(|&(u, v)| (comps.local(sld, u), comps.local(sld, v)))
        .collect();
    let mut candidates: Vec<(PairRank, (VertexId, VertexId))> = Vec::new();
    match index {
        // Scan backend: Kruskal over the lightest reserve edge per pair of pieces. Every
        // reserve edge is intra-tree, so one crossing a cut joins two pieces of the *same
        // original tree*. Per original tree, enumerate every piece except the largest (a
        // crossing edge cannot have both endpoints there): the scan stays on the small
        // sides, and an unmarked endpoint lies in the largest piece of the scanned piece's
        // tree, so every endpoint's piece is one table read.
        ReplacementIndex::Scan { reserve } => {
            counters.replacement_searches += tree_pairs.len() as u64;
            // The deleted edges joined exactly the pieces of each original tree, so a
            // DSU over the pieces with one union per deleted edge groups them by tree.
            let k = comps.len();
            let mut tree_of_piece = Dsu::new(k);
            for &(lu, lv) in &deleted_locals {
                tree_of_piece.union(lu, lv);
            }
            let seed = &comps.seeds; // a vertex of each piece
            let mut largest = vec![(0, 0); k]; // per tree root: (size, id) of its largest piece
            for (l, &x) in seed.iter().enumerate() {
                let root = tree_of_piece.find(VertexId(l as u32)).index();
                largest[root] = largest[root].max((sld.component_size(x), l as u32));
            }
            let outer: Vec<u32> = (0..k as u32)
                .map(|l| largest[tree_of_piece.find(VertexId(l)).index()].1)
                .collect();
            marks.begin_search(sld, k);
            for l in (0..k as u32).filter(|&l| outer[l as usize] != l) {
                marks.enumerate(sld, seed[l as usize], l);
            }
            marks.cut_outer.clear();
            marks
                .cut_outer
                .extend(deleted_locals.iter().map(|&(lu, _)| outer[lu.index()]));
            // Members are contiguous per piece: scan them in order, keeping the lightest
            // edge seen to each other piece. Each member reads its reserve entries lightest
            // first and stops at its first one into the largest piece of its tree; the pieces
            // of one tree share that largest piece `O`, and the stop is exact because
            // `PairRank` is a strict total order. An edge into `O` that a member skips is
            // heavier than the member's edge into `O`, a parallel edge between the same two
            // pieces. An edge between two enumerated pieces `p` and `q` is skipped only when
            // both its endpoints stopped before it, so both have a lighter edge into `O`: it is
            // the heaviest on a `p`–`O`–`q` cycle. Neither is in any MSF, so Kruskal over
            // what the scans saw accepts what it would accept over every crossing edge. Since
            // an edge between enumerated pieces may be seen from one side only, each piece
            // emits its lightest edge to every piece it reached, and only the lighter of the
            // two sides' edges per pair is kept below.
            for (i, &member) in marks.members.iter().enumerate() {
                let p = marks.piece(member).expect("members are marked");
                let largest = outer[p as usize];
                for &(weight, other) in reserve.at(member) {
                    counters.replacement_edges_scanned += 1;
                    let q = marks.piece(other).unwrap_or(largest);
                    if q == p {
                        continue;
                    }
                    let rank = PairRank(weight, pair(member, other));
                    let slot = &mut marks.best[q as usize];
                    match slot {
                        None => {
                            marks.touched.push(q);
                            *slot = Some(rank);
                        }
                        Some(best) if rank < *best => *best = rank,
                        Some(_) => {}
                    }
                    if q == largest {
                        break;
                    }
                }
                if marks.members.get(i + 1).and_then(|&x| marks.piece(x)) != Some(p) {
                    for q in marks.touched.drain(..) {
                        let rank = marks.best[q as usize].take().expect("touched");
                        candidates.push((rank, (VertexId(p.min(q)), VertexId(p.max(q)))));
                    }
                }
            }
            // One candidate per pair of pieces: the lighter of the two sides' edges.
            candidates.sort_unstable_by_key(|&(rank, ends)| (ends, rank));
            candidates.dedup_by_key(|c| c.1);
        }
        // HDT backend: replay the tree deletions through the level structure in input
        // order. Each search returns the minimum-rank edge across its cut given the
        // promotions already made, so the union of the results is exactly the set the
        // scan backend's Kruskal pass accepts (per-edge sequential deletion and the batch
        // pass produce the same unique MSF under the total order). Sorting the results by
        // rank makes the shared attribution pass below bit-identical to the scan path.
        ReplacementIndex::Hdt(ix) => {
            for &(u, v) in tree_pairs {
                if let Some((a, b, w)) = ix.delete_tree_with_search(u, v) {
                    let ends = (comps.local(sld, a), comps.local(sld, b));
                    candidates.push((PairRank(w, pair(a, b)), ends));
                }
            }
        }
    }
    candidates.sort_by_key(|c| c.0);
    counters.replacement_candidates += candidates.len() as u64;

    // Accept candidates greedily over the piece DSU (Kruskal never accepts a heavier
    // parallel edge, so keeping one edge per pair of pieces changes nothing); attribute
    // each accepted promotion to the deleted edges whose endpoints it (transitively)
    // reconnects.
    let mut promoted: Vec<(VertexId, VertexId, Weight)> = Vec::new();
    let mut changes = vec![MsfChange::RemovedAndSplit; tree_pairs.len()];
    let mut dsu = Dsu::new(comps.len());
    let mut pending: Vec<usize> = (0..tree_pairs.len()).collect();
    for (PairRank(w, (a, b)), (la, lb)) in candidates {
        if !dsu.union(la, lb) {
            continue;
        }
        promoted.push((a, b, w));
        pending.retain(|&j| {
            let (lu, lv) = deleted_locals[j];
            if dsu.connected(lu, lv) {
                changes[j] = MsfChange::RemovedWithReplacement { promoted: (a, b) };
                false
            } else {
                true
            }
        });
    }
    (promoted, changes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynsld::static_sld_kruskal;
    use rand::rngs::SmallRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};
    use std::collections::HashSet;

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    /// Kruskal MSF over an explicit edge list — the oracle.
    fn msf_oracle(n: usize, edges: &[(VertexId, VertexId, Weight)]) -> Vec<(VertexId, VertexId)> {
        let mut order: Vec<usize> = (0..edges.len()).collect();
        order.sort_by(|&a, &b| {
            edges[a]
                .2
                .total_cmp(&edges[b].2)
                .then_with(|| pair(edges[a].0, edges[a].1).cmp(&pair(edges[b].0, edges[b].1)))
        });
        let mut dsu = Dsu::new(n);
        let mut out = Vec::new();
        for i in order {
            let (a, b, _) = edges[i];
            if dsu.union(a, b) {
                out.push(pair(a, b));
            }
        }
        out.sort();
        out
    }

    fn assert_consistent(g: &DynamicGraphClustering, alive: &[(VertexId, VertexId, Weight)]) {
        let mut tree: Vec<(VertexId, VertexId)> = g
            .graph_edges()
            .into_iter()
            .filter(|&(_, _, _, t)| t)
            .map(|(a, b, _, _)| pair(a, b))
            .collect();
        tree.sort();
        assert_eq!(tree, msf_oracle(g.num_vertices(), alive), "MSF diverged");
        // The tree entries of `graph_edges` are exactly the forest's edges, with their weights.
        for (a, b, w, _) in g.graph_edges().into_iter().filter(|e| e.3) {
            let e = g
                .sld()
                .forest()
                .find_edge(a, b)
                .expect("tree entry is a forest edge");
            assert_eq!(
                g.sld().forest().weight(e),
                w,
                "weight of tree edge {a:?}-{b:?}"
            );
        }
        assert_eq!(
            tree.len(),
            g.num_tree_edges(),
            "tree entries vs forest edges"
        );
        assert_eq!(
            g.sld().dendrogram().canonical_parents(),
            static_sld_kruskal(g.sld().forest()).canonical_parents(),
            "dendrogram diverged"
        );
        g.sld().check_invariants().expect("invariants");
    }

    #[test]
    fn batch_insert_routes_forest_edges_to_fast_path() {
        let mut g = DynamicGraphClustering::new(6);
        let batch = [
            (v(0), v(1), 1.0),
            (v(1), v(2), 2.0),
            (v(3), v(4), 3.0),
            (v(0), v(2), 10.0), // closes a cycle -> stored non-tree, no path query
        ];
        let outcome = g.batch_insert_edges(&batch).unwrap();
        // The cycle-closing edge outweighs its trees (single vertices): stored without a
        // path query, so it counts on the fast path.
        assert_eq!(outcome.fast_path, 4);
        assert_eq!(outcome.fallback, 0);
        assert_eq!(outcome.changes[0], MsfChange::Inserted);
        assert_eq!(outcome.changes[3], MsfChange::StoredNonTree);
        assert_eq!(g.work_counters().path_max_queries, 0);
        assert_consistent(&g, batch.as_ref());
    }

    /// Applies `batch` to a clone of `g` with one `batch_insert_edges` and to another clone
    /// per edge in rank order, asserts that the two agree, and returns the batched clone.
    ///
    /// Where weights tie, the two may keep different ones of two tied edges, since the
    /// dendrogram and the path-maximum query break a weight tie on the edge id, and
    /// `DynSld::batch_insert` hands out ids in its contraction order where the per-edge path
    /// hands them out in rank order (ROADMAP, "One total order"). So with `ties` the two must
    /// agree in each change's kind and evicted weight, the forest's weights and the version;
    /// without, in changes, graph edges, the dendrogram named by endpoint pairs and the
    /// version. Either way each dendrogram is the static one of its forest.
    fn assert_batch_equals_per_edge(
        g: &DynamicGraphClustering,
        batch: &[(VertexId, VertexId, Weight)],
        ties: bool,
        context: &str,
    ) -> DynamicGraphClustering {
        let (mut batched, mut single) = (g.clone(), g.clone());
        let outcome = batched.batch_insert_edges(batch).unwrap();
        let mut order: Vec<usize> = (0..batch.len()).collect();
        order.sort_by_key(|&i| PairRank(batch[i].2, pair(batch[i].0, batch[i].1)));
        let mut changes = vec![None; batch.len()];
        for i in order {
            let (a, b, w) = batch[i];
            changes[i] = Some(single.insert_edge(a, b, w).unwrap());
        }
        let changes: Vec<MsfChange> = changes.into_iter().map(Option::unwrap).collect();
        assert_eq!(
            batched.sld().version(),
            single.sld().version(),
            "{context}: version"
        );
        for g in [&batched, &single] {
            assert_eq!(
                g.sld().dendrogram().canonical_parents(),
                static_sld_kruskal(g.sld().forest()).canonical_parents(),
                "{context}: dendrogram"
            );
        }
        if ties {
            let kinds = |g: &DynamicGraphClustering, changes: &[MsfChange]| {
                let kind = |c: &MsfChange| match *c {
                    MsfChange::Replaced { evicted: (a, b) } => g.edge_weight(a, b),
                    _ => None,
                };
                let kinds: Vec<_> = changes
                    .iter()
                    .map(|c| (std::mem::discriminant(c), kind(c)))
                    .collect();
                let mut weights: Vec<Weight> =
                    g.sld().forest().edges().map(|(_, d)| d.weight).collect();
                weights.sort_by(f64::total_cmp);
                (kinds, weights, g.num_graph_edges())
            };
            assert_eq!(
                kinds(&batched, &outcome.changes),
                kinds(&single, &changes),
                "{context}: changes"
            );
            return batched;
        }
        assert_eq!(outcome.changes, changes, "{context}: changes");
        let sorted = |g: &DynamicGraphClustering| {
            let mut e = g.graph_edges();
            e.sort_by_key(|x| pair(x.0, x.1));
            e
        };
        assert_eq!(sorted(&batched), sorted(&single), "{context}: graph edges");
        let named_parents = |g: &DynamicGraphClustering| {
            let forest = g.sld().forest();
            let name = |e| pair(forest.endpoints(e).0, forest.endpoints(e).1);
            let mut parents: Vec<_> = g
                .sld()
                .dendrogram()
                .canonical_parents()
                .into_iter()
                .map(|(e, p)| (name(e), p.map(name)))
                .collect();
            parents.sort();
            parents
        };
        assert_eq!(
            named_parents(&batched),
            named_parents(&single),
            "{context}: dendrogram"
        );
        batched
    }

    /// The store-without-query rule is exact, ties included: on cold and warm forests, a
    /// batch equals per-edge insertion in rank order, on both backends. Even seeds draw few
    /// distinct weights, so ties sit at the bound; odd seeds draw distinct weights.
    #[test]
    fn batch_insert_equals_per_edge_insertion_in_rank_order() {
        for backend in [crate::ForestBackend::Scan, crate::ForestBackend::Hdt] {
            for seed in 0..40u64 {
                let ties = seed % 2 == 0;
                let mut rng = SmallRng::seed_from_u64(seed);
                let n = rng.gen_range(4..20usize);
                let options = dynsld::DynSldOptions {
                    msf_backend: backend,
                    ..Default::default()
                };
                let mut g = DynamicGraphClustering::with_options(n, options);
                let mut alive: Vec<(VertexId, VertexId)> = Vec::new();
                // Round 0 starts cold; later rounds delete some edges, then insert on the
                // warm forest.
                for round in 0..5 {
                    if round > 0 && !alive.is_empty() {
                        alive.shuffle(&mut rng);
                        let k = rng.gen_range(0..=alive.len().min(4));
                        let gone: Vec<_> = alive.drain(..k).collect();
                        g.batch_delete_edges(&gone).unwrap();
                    }
                    let mut batch = Vec::new();
                    let mut seen = HashSet::new();
                    for _ in 0..rng.gen_range(1..3 * n) {
                        let (a, b) = (rng.gen_range(0..n as u32), rng.gen_range(0..n as u32));
                        let key = pair(v(a), v(b));
                        if a == b || alive.contains(&key) || !seen.insert(key) {
                            continue;
                        }
                        let w = f64::from(rng.gen_range(0..4u8));
                        batch.push((v(a), v(b), if ties { w } else { w + rng.gen::<f64>() }));
                    }
                    if batch.is_empty() {
                        continue;
                    }
                    let context = format!("{backend:?}, seed {seed}, round {round}");
                    g = assert_batch_equals_per_edge(&g, &batch, ties, &context);
                    alive.extend(batch.iter().map(|&(a, b, _)| pair(a, b)));
                }
            }
        }
    }

    /// The path-maximum count of an insertion batch: none on a cold start, none for a batch
    /// at least as heavy as the forest it meets (a tie at the bound included), and exactly
    /// one for a chord lighter than its cycle.
    #[test]
    fn batch_insert_asks_a_path_query_only_for_lighter_chords() {
        // Cold start: a clique on 6 vertices, 10 of its 15 edges close cycles.
        let mut g = DynamicGraphClustering::new(6);
        let clique: Vec<_> = (0..6u32)
            .flat_map(|a| (a + 1..6).map(move |b| (v(a), v(b), f64::from((a * 7 + b) % 5))))
            .collect();
        let outcome = g.batch_insert_edges(&clique).unwrap();
        assert_eq!((outcome.fast_path, outcome.fallback), (15, 0));
        assert_eq!(g.take_work_counters().path_max_queries, 0);
        assert_consistent(&g, &clique);

        // Aging: a forest of two paths whose heaviest edge weighs 5, then a batch no lighter
        // than 5 — chords inside each tree (one at exactly 5), a link between the trees and a
        // chord across the link.
        let mut g = DynamicGraphClustering::new(8);
        let mut alive = vec![
            (v(0), v(1), 5.0),
            (v(1), v(2), 2.0),
            (v(2), v(3), 1.0),
            (v(4), v(5), 3.0),
            (v(5), v(6), 4.0),
            (v(6), v(7), 0.5),
        ];
        g.batch_insert_edges(&alive).unwrap();
        g.take_work_counters();
        let batch = [
            (v(0), v(3), 5.0),
            (v(4), v(7), 6.0),
            (v(3), v(4), 7.0),
            (v(0), v(6), 8.0),
        ];
        let outcome = g.batch_insert_edges(&batch).unwrap();
        assert_eq!((outcome.fast_path, outcome.fallback), (4, 0));
        assert_eq!(g.take_work_counters().path_max_queries, 0);
        alive.extend(batch);
        assert_consistent(&g, &alive);

        // One chord lighter than the heaviest edge on its cycle: one query, one exchange.
        let outcome = g.batch_insert_edges(&[(v(1), v(3), 1.5)]).unwrap();
        assert_eq!((outcome.fast_path, outcome.fallback), (0, 1));
        assert_eq!(
            outcome.changes,
            vec![MsfChange::Replaced {
                evicted: (v(1), v(2))
            }]
        );
        assert_eq!(g.take_work_counters().path_max_queries, 1);
        alive.push((v(1), v(3), 1.5));
        assert_consistent(&g, &alive);
    }

    /// A set's bound is the maximum over every tree it absorbed, whichever side of the union
    /// the heavy tree is on: a chord lighter than the heavier tree's top edge but heavier
    /// than the lighter tree's must reach the exchange.
    #[test]
    fn a_merged_set_is_bounded_by_its_heaviest_tree() {
        for (w01, w23, evicted) in [(10.0, 1.0, (v(0), v(1))), (1.0, 10.0, (v(2), v(3)))] {
            let mut g = DynamicGraphClustering::new(4);
            let mut alive = vec![(v(0), v(1), w01), (v(2), v(3), w23)];
            g.batch_insert_edges(&alive).unwrap();
            let batch = [(v(1), v(2), 0.5), (v(0), v(3), 5.0)];
            let outcome = g.batch_insert_edges(&batch).unwrap();
            assert_eq!(
                outcome.changes[1],
                MsfChange::Replaced { evicted },
                "weights {w01} and {w23}"
            );
            alive.extend(batch);
            assert_consistent(&g, &alive);
        }
    }

    #[test]
    fn batch_insert_cycle_edge_can_evict_heavier_tree_edge() {
        let mut g = DynamicGraphClustering::new(3);
        g.insert_edge(v(0), v(1), 100.0).unwrap();
        let batch = [(v(1), v(2), 1.0), (v(0), v(2), 2.0)];
        let outcome = g.batch_insert_edges(&batch).unwrap();
        // (0,2,2.0) closes the cycle {0-1, 1-2, 0-2} and evicts the weight-100 edge.
        assert_eq!(
            outcome.changes[1],
            MsfChange::Replaced {
                evicted: (v(0), v(1))
            }
        );
        assert_consistent(
            &g,
            &[(v(0), v(1), 100.0), (v(1), v(2), 1.0), (v(0), v(2), 2.0)],
        );
    }

    #[test]
    fn batch_insert_validates_before_mutating() {
        let mut g = DynamicGraphClustering::new(3);
        g.insert_edge(v(0), v(1), 1.0).unwrap();
        let before = g.graph_edges();
        // Second edge is a duplicate of an existing edge: whole batch must be rejected.
        let err = g
            .batch_insert_edges(&[(v(1), v(2), 2.0), (v(0), v(1), 9.0)])
            .unwrap_err();
        assert_eq!(err, DynSldError::EdgeAlreadyExists(v(0), v(1)));
        assert_eq!(g.graph_edges(), before);
        // In-batch duplicates are rejected too.
        assert!(g
            .batch_insert_edges(&[(v(1), v(2), 2.0), (v(2), v(1), 3.0)])
            .is_err());
        assert!(g.batch_insert_edges(&[(v(2), v(2), 1.0)]).is_err());
    }

    #[test]
    fn batch_delete_promotes_replacements_across_cuts() {
        let mut g = DynamicGraphClustering::new(6);
        // Path 0-1-2-3-4-5 plus two heavy reserve edges bridging across.
        g.batch_insert_edges(&[
            (v(0), v(1), 1.0),
            (v(1), v(2), 2.0),
            (v(2), v(3), 3.0),
            (v(3), v(4), 4.0),
            (v(4), v(5), 5.0),
        ])
        .unwrap();
        g.insert_edge(v(0), v(3), 10.0).unwrap(); // reserve
        g.insert_edge(v(2), v(5), 20.0).unwrap(); // reserve
        let outcome = g.batch_delete_edges(&[(v(1), v(2)), (v(3), v(4))]).unwrap();
        // Both cuts are reconnected by the reserve edges.
        assert_eq!(
            outcome.changes[0],
            MsfChange::RemovedWithReplacement {
                promoted: (v(0), v(3))
            }
        );
        assert_eq!(
            outcome.changes[1],
            MsfChange::RemovedWithReplacement {
                promoted: (v(2), v(5))
            }
        );
        assert_eq!(outcome.promoted, vec![(v(0), v(3)), (v(2), v(5))]);
        assert_eq!(outcome.fast_path, 4); // 2 deletions + 2 promotions
        assert_consistent(
            &g,
            &[
                (v(0), v(1), 1.0),
                (v(2), v(3), 3.0),
                (v(4), v(5), 5.0),
                (v(0), v(3), 10.0),
                (v(2), v(5), 20.0),
            ],
        );
    }

    #[test]
    fn batch_delete_finds_replacements_in_every_affected_tree() {
        // Two separate trees, each losing a tree edge in the same batch, each with a reserve
        // edge bridging its cut. The replacement search must find both promotions — including
        // the one in the tree whose pieces are all smaller than the *other* tree's largest
        // piece (the case a single global largest-component exclusion would still scan, and a
        // per-tree exclusion handles on the small side).
        let mut g = DynamicGraphClustering::new(9);
        // Tree A: path 0-1-2-3-4 (big), tree B: path 5-6-7-8 (small).
        g.batch_insert_edges(&[
            (v(0), v(1), 1.0),
            (v(1), v(2), 2.0),
            (v(2), v(3), 3.0),
            (v(3), v(4), 4.0),
            (v(5), v(6), 1.0),
            (v(6), v(7), 2.0),
            (v(7), v(8), 3.0),
        ])
        .unwrap();
        g.insert_edge(v(0), v(4), 10.0).unwrap(); // reserve across tree A
        g.insert_edge(v(5), v(8), 20.0).unwrap(); // reserve across tree B
        let outcome = g.batch_delete_edges(&[(v(1), v(2)), (v(6), v(7))]).unwrap();
        assert_eq!(
            outcome.changes[0],
            MsfChange::RemovedWithReplacement {
                promoted: (v(0), v(4))
            }
        );
        assert_eq!(
            outcome.changes[1],
            MsfChange::RemovedWithReplacement {
                promoted: (v(5), v(8))
            }
        );
        assert_consistent(
            &g,
            &[
                (v(0), v(1), 1.0),
                (v(2), v(3), 3.0),
                (v(3), v(4), 4.0),
                (v(5), v(6), 1.0),
                (v(7), v(8), 3.0),
                (v(0), v(4), 10.0),
                (v(5), v(8), 20.0),
            ],
        );
    }

    #[test]
    fn batch_delete_mixes_tree_nontree_and_splits() {
        let mut g = DynamicGraphClustering::new(5);
        g.batch_insert_edges(&[(v(0), v(1), 1.0), (v(1), v(2), 2.0), (v(3), v(4), 3.0)])
            .unwrap();
        g.insert_edge(v(0), v(2), 9.0).unwrap(); // reserve
        let outcome = g
            .batch_delete_edges(&[(v(0), v(2)), (v(3), v(4)), (v(0), v(1))])
            .unwrap();
        assert_eq!(outcome.changes[0], MsfChange::RemovedNonTree);
        assert_eq!(outcome.changes[1], MsfChange::RemovedAndSplit);
        assert_eq!(outcome.changes[2], MsfChange::RemovedAndSplit);
        assert!(!g.sld().connected(v(3), v(4)));
        assert_consistent(&g, &[(v(1), v(2), 2.0)]);
    }

    #[test]
    fn batch_delete_validates_before_mutating() {
        let mut g = DynamicGraphClustering::new(3);
        g.insert_edge(v(0), v(1), 1.0).unwrap();
        let err = g
            .batch_delete_edges(&[(v(0), v(1)), (v(1), v(2))])
            .unwrap_err();
        assert_eq!(err, DynSldError::EdgeNotFound(v(1), v(2)));
        assert_eq!(g.num_graph_edges(), 1);
        assert!(g.batch_delete_edges(&[(v(0), v(1)), (v(1), v(0))]).is_err());
        assert_eq!(g.num_graph_edges(), 1);
    }

    #[test]
    fn randomized_batches_match_kruskal_oracle() {
        let n = 32usize;
        let mut rng = SmallRng::seed_from_u64(7);
        let mut candidates: Vec<(VertexId, VertexId, Weight)> = Vec::new();
        let mut used = HashSet::new();
        while candidates.len() < 160 {
            let a = rng.gen_range(0..n as u32);
            let b = rng.gen_range(0..n as u32);
            if a == b || !used.insert(pair(v(a), v(b))) {
                continue;
            }
            candidates.push((v(a), v(b), rng.gen::<f64>() * 50.0));
        }
        candidates.shuffle(&mut rng);

        let mut g = DynamicGraphClustering::new(n);
        let mut alive: Vec<(VertexId, VertexId, Weight)> = Vec::new();
        for round in 0..40 {
            if alive.len() < 120 && (alive.is_empty() || rng.gen_bool(0.6)) {
                let batch_size = rng.gen_range(1..12usize);
                let batch: Vec<(VertexId, VertexId, Weight)> = candidates
                    .iter()
                    .filter(|c| !alive.iter().any(|a| pair(a.0, a.1) == pair(c.0, c.1)))
                    .take(batch_size)
                    .copied()
                    .collect();
                if batch.is_empty() {
                    continue;
                }
                let outcome = g.batch_insert_edges(&batch).unwrap();
                assert_eq!(outcome.changes.len(), batch.len());
                alive.extend_from_slice(&batch);
            } else {
                let batch_size = rng.gen_range(1..10usize).min(alive.len());
                let mut idx: Vec<usize> = (0..alive.len()).collect();
                idx.shuffle(&mut rng);
                idx.truncate(batch_size);
                idx.sort_unstable_by(|a, b| b.cmp(a)); // remove from the back first
                let mut batch = Vec::new();
                for i in idx {
                    let (a, b, _) = alive.swap_remove(i);
                    batch.push((a, b));
                }
                let outcome = g.batch_delete_edges(&batch).unwrap();
                assert_eq!(outcome.changes.len(), batch.len());
            }
            assert_consistent(&g, &alive);
            let _ = round;
        }
    }

    /// Union-find for the reference below; shares no code with the structure under test.
    struct NaiveDsu(Vec<usize>);

    impl NaiveDsu {
        fn find(&mut self, mut x: usize) -> usize {
            while self.0[x] != x {
                self.0[x] = self.0[self.0[x]];
                x = self.0[x];
            }
            x
        }

        fn union(&mut self, a: usize, b: usize) -> bool {
            let (ra, rb) = (self.find(a), self.find(b));
            self.0[ra] = rb;
            ra != rb
        }
    }

    /// What a deletion batch must do, derived from the edge list alone: cut the deleted tree
    /// edges, sort *every* reserve edge crossing the post-deletion components by
    /// `(weight, pair)`, run Kruskal over those components and attribute each promotion to
    /// the deleted edges it reconnects. Returns the changes, the promotions in order, the MSF
    /// edge set after the batch, and how many promotions joined two pieces that are both
    /// smaller than the largest piece of their tree.
    #[allow(clippy::type_complexity)]
    fn naive_batch_delete(
        n: usize,
        edges: &[(VertexId, VertexId, Weight, bool)],
        batch: &[(VertexId, VertexId)],
    ) -> (
        Vec<MsfChange>,
        Vec<(VertexId, VertexId)>,
        Vec<(VertexId, VertexId)>,
        usize,
    ) {
        let key = |a: VertexId, b: VertexId| (a.min(b), a.max(b));
        let deleted: HashSet<_> = batch.iter().map(|&(a, b)| key(a, b)).collect();
        let mut trees = NaiveDsu((0..n).collect());
        let mut pieces = NaiveDsu((0..n).collect());
        let mut msf = Vec::new();
        let mut reserve = Vec::new();
        for &(a, b, w, tree) in edges {
            if tree {
                trees.union(a.index(), b.index());
            }
            if deleted.contains(&key(a, b)) {
                continue;
            }
            if tree {
                pieces.union(a.index(), b.index());
                msf.push(key(a, b));
            } else {
                reserve.push((w, key(a, b)));
            }
        }
        // The piece of every vertex before promotions, and each tree's largest piece size.
        let piece: Vec<usize> = (0..n).map(|x| pieces.find(x)).collect();
        let mut size = vec![0usize; n];
        for &p in &piece {
            size[p] += 1;
        }
        let mut largest = vec![0usize; n];
        for x in 0..n {
            let t = trees.find(x);
            largest[t] = largest[t].max(size[piece[x]]);
        }
        let small = |x: VertexId, trees: &mut NaiveDsu| {
            size[piece[x.index()]] < largest[trees.find(x.index())]
        };
        reserve.retain(|&(_, (a, b))| piece[a.index()] != piece[b.index()]);
        reserve.sort_by(|x, y| x.0.total_cmp(&y.0).then_with(|| x.1.cmp(&y.1)));
        let mut changes: Vec<Option<MsfChange>> = batch
            .iter()
            .map(|&(a, b)| {
                let tree = edges.iter().any(|e| key(e.0, e.1) == key(a, b) && e.3);
                (!tree).then_some(MsfChange::RemovedNonTree)
            })
            .collect();
        let mut promoted = Vec::new();
        let mut between_small = 0;
        for (_, (a, b)) in reserve {
            if !pieces.union(a.index(), b.index()) {
                continue;
            }
            promoted.push((a, b));
            msf.push((a, b));
            between_small += usize::from(small(a, &mut trees) && small(b, &mut trees));
            for (i, &(u, v)) in batch.iter().enumerate() {
                if changes[i].is_none() && pieces.find(u.index()) == pieces.find(v.index()) {
                    changes[i] = Some(MsfChange::RemovedWithReplacement { promoted: (a, b) });
                }
            }
        }
        let changes = changes
            .into_iter()
            .map(|c| c.unwrap_or(MsfChange::RemovedAndSplit))
            .collect();
        msf.sort();
        (changes, promoted, msf, between_small)
    }

    fn msf_edges(g: &DynamicGraphClustering) -> Vec<(VertexId, VertexId)> {
        let mut tree: Vec<_> = g
            .graph_edges()
            .into_iter()
            .filter(|e| e.3)
            .map(|(a, b, _, _)| pair(a, b))
            .collect();
        tree.sort();
        tree
    }

    /// `clusters` complete graphs on `size` vertices each, weights drawn from `0..weights`.
    fn dense_clusters(
        g: &mut DynamicGraphClustering,
        rng: &mut SmallRng,
        clusters: u32,
        size: u32,
        weights: u32,
    ) {
        let mut edges = Vec::new();
        for c in 0..clusters {
            for i in 0..size {
                for j in i + 1..size {
                    let w = rng.gen_range(0..weights) as f64;
                    edges.push((v(c * size + i), v(c * size + j), w));
                }
            }
        }
        g.batch_insert_edges(&edges).unwrap();
    }

    #[test]
    fn batch_delete_matches_a_naive_kruskal_over_every_crossing_reserve_edge() {
        // Three complete graphs on 24 vertices (degree 23), so one batch cuts several trees;
        // four distinct weights, so ties are common.
        for backend in [dynsld::ForestBackend::Scan, dynsld::ForestBackend::Hdt] {
            let options = dynsld::DynSldOptions {
                msf_backend: backend,
                ..Default::default()
            };
            let mut between_small = 0;
            for seed in 0..3 {
                let mut rng = SmallRng::seed_from_u64(seed);
                let mut g = DynamicGraphClustering::with_options(72, options);
                dense_clusters(&mut g, &mut rng, 3, 24, 4);
                for &tree_edges in [1usize, 2, 7, 64].iter().cycle().take(12) {
                    let mut edges = g.graph_edges();
                    edges.sort_by_key(|e| pair(e.0, e.1));
                    let (mut tree, mut reserve): (Vec<&(_, _, _, _)>, Vec<_>) =
                        edges.iter().partition(|e| e.3);
                    tree.shuffle(&mut rng);
                    reserve.shuffle(&mut rng);
                    let mut batch: Vec<_> =
                        tree.iter().take(tree_edges).map(|e| (e.0, e.1)).collect();
                    batch.extend(reserve.iter().take(3).map(|e| (e.0, e.1)));
                    batch.shuffle(&mut rng);

                    let n = g.num_vertices();
                    let (changes, promoted, msf, small) = naive_batch_delete(n, &edges, &batch);
                    between_small += small;
                    // Per edge, each deletion is a batch of one: same change, same promotion.
                    let mut single = g.clone();
                    for &(a, b) in &batch {
                        let (expected, _, _, _) =
                            naive_batch_delete(n, &single.graph_edges(), &[(a, b)]);
                        let change = single.delete_edge(a, b).unwrap();
                        assert_eq!(change, expected[0], "{backend:?} seed {seed}: {a:?}-{b:?}");
                    }
                    let outcome = g.batch_delete_edges(&batch).unwrap();
                    let ctx = format!("{backend:?} seed {seed}, {tree_edges} tree edges");
                    assert_eq!(outcome.changes, changes, "{ctx}: changes");
                    assert_eq!(outcome.promoted, promoted, "{ctx}: promotions");
                    assert_eq!(msf_edges(&g), msf, "{ctx}: MSF vs the reference");
                    assert_eq!(msf_edges(&single), msf, "{ctx}: MSF vs per-edge deletion");
                    g.sld().check_invariants().expect("invariants");

                    // Put the edges back with fresh weights to keep the graph dense.
                    let back: Vec<_> = batch
                        .iter()
                        .map(|&(a, b)| (a, b, rng.gen_range(0..4) as f64))
                        .collect();
                    g.batch_insert_edges(&back).unwrap();
                }
            }
            assert!(
                between_small > 0,
                "{backend:?}: some promotion joins two non-largest pieces"
            );
        }
    }

    /// How many reserve entries the scan reads when `batch` cuts the one spanning tree of `g`,
    /// derived from the edge list: each vertex outside the largest piece reads its entries in
    /// `(weight, pair)` order up to and including its first one into the largest piece (all
    /// of them if it has none). On a size tie the largest piece is the one whose first cut
    /// endpoint comes last in `batch`, the tie-break of the search's local piece ids.
    fn expected_scan(g: &DynamicGraphClustering, batch: &[(VertexId, VertexId)]) -> u64 {
        let n = g.num_vertices();
        let edges = g.graph_edges();
        let key = |a: VertexId, b: VertexId| (a.min(b), a.max(b));
        let cut: HashSet<_> = batch.iter().map(|&(a, b)| key(a, b)).collect();
        let mut pieces = NaiveDsu((0..n).collect());
        let mut entries = vec![Vec::new(); n];
        for &(a, b, w, tree) in &edges {
            if !tree {
                entries[a.index()].push((w, key(a, b), b));
                entries[b.index()].push((w, key(a, b), a));
            } else if !cut.contains(&key(a, b)) {
                pieces.union(a.index(), b.index());
            }
        }
        let piece: Vec<usize> = (0..n).map(|x| pieces.find(x)).collect();
        let mut named = Vec::new();
        for x in batch.iter().flat_map(|&(a, b)| [a, b]) {
            if !named.contains(&piece[x.index()]) {
                named.push(piece[x.index()]);
            }
        }
        let size = |p: usize| piece.iter().filter(|&&q| q == p).count();
        let largest = (0..named.len())
            .max_by_key(|&i| (size(named[i]), i))
            .map(|i| named[i])
            .expect("a cut names two pieces");
        let mut scanned = 0;
        for x in (0..n).filter(|&x| piece[x] != largest) {
            let list = &mut entries[x];
            list.sort_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
            scanned += list
                .iter()
                .position(|e| piece[e.2.index()] == largest)
                .map_or(list.len(), |i| i + 1);
        }
        scanned as u64
    }

    #[test]
    fn batch_search_sorts_at_most_one_candidate_per_pair_of_pieces() {
        // Cutting `cuts` edges of one spanning tree leaves exactly `cuts + 1` pieces; the scan
        // reads each non-largest piece's reserve entries lightest-first, stopping per vertex
        // at its first edge into the largest piece, and hands Kruskal at most one edge per
        // pair of pieces.
        for seed in 0..4 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut g = DynamicGraphClustering::new(42);
            dense_clusters(&mut g, &mut rng, 1, 42, 1000);
            let mut tree: Vec<_> = msf_edges(&g);
            tree.shuffle(&mut rng);
            let cuts = 8;
            let expected = expected_scan(&g, &tree[..cuts]);
            g.take_work_counters();
            g.batch_delete_edges(&tree[..cuts]).unwrap();
            let work = g.take_work_counters();
            let k = cuts as u64 + 1;
            assert!(
                (1..=k * (k - 1) / 2).contains(&work.replacement_candidates),
                "seed {seed}: {} candidates for {k} pieces",
                work.replacement_candidates
            );
            assert_eq!(
                work.replacement_edges_scanned, expected,
                "seed {seed}: reserve entries scanned"
            );
        }
    }

    #[test]
    fn an_edge_seen_only_from_the_higher_piece_is_still_a_candidate() {
        // Path 0-1-2-3-4-5-6 (unit weights) cut at 0-1 and 5-6 leaves pieces {0} (id 0),
        // {1..=5} (id 1, the largest) and {6} (id 2). Vertex 0 stops at its weight-5 edge into
        // the largest piece, before 0-6; vertex 6 reads 0-6 first. So 0-6, the lightest edge
        // joining {6} to the rest, is seen only from the higher piece id, and it must still be
        // promoted ahead of 3-6.
        let mut g = DynamicGraphClustering::new(7);
        let path: Vec<_> = (0..6).map(|i| (v(i), v(i + 1), 1.0)).collect();
        g.batch_insert_edges(&path).unwrap();
        for (a, b, w) in [(0, 2, 5.0), (0, 6, 10.0), (3, 6, 20.0)] {
            assert_eq!(g.insert_edge(v(a), v(b), w), Ok(MsfChange::StoredNonTree));
        }
        let batch = [(v(0), v(1)), (v(5), v(6))];
        let (changes, promoted, msf, _) = naive_batch_delete(7, &g.graph_edges(), &batch);
        assert_eq!(promoted, vec![(v(0), v(2)), (v(0), v(6))]);
        g.take_work_counters();
        let outcome = g.batch_delete_edges(&batch).unwrap();
        assert_eq!(outcome.changes, changes);
        assert_eq!(outcome.promoted, promoted);
        assert_eq!(msf_edges(&g), msf);
        // Vertex 0 read one entry, vertex 6 two; {6} reached both other pieces.
        let work = g.take_work_counters();
        assert_eq!(work.replacement_edges_scanned, 3);
        assert_eq!(work.replacement_candidates, 3);
        g.sld().check_invariants().expect("invariants");
    }

    #[test]
    fn batch_and_single_application_agree() {
        // The same update sequence applied (a) per edge and (b) in batches must yield
        // identical MSFs and dendrograms.
        let n = 24usize;
        let mut rng = SmallRng::seed_from_u64(13);
        let mut edges: Vec<(VertexId, VertexId, Weight)> = Vec::new();
        let mut used = HashSet::new();
        while edges.len() < 80 {
            let a = rng.gen_range(0..n as u32);
            let b = rng.gen_range(0..n as u32);
            if a == b || !used.insert(pair(v(a), v(b))) {
                continue;
            }
            edges.push((v(a), v(b), rng.gen::<f64>() * 10.0));
        }
        let mut single = DynamicGraphClustering::new(n);
        let mut batched = DynamicGraphClustering::new(n);
        for chunk in edges.chunks(8) {
            for &(a, b, w) in chunk {
                single.insert_edge(a, b, w).unwrap();
            }
            batched.batch_insert_edges(chunk).unwrap();
        }
        let deletions: Vec<(VertexId, VertexId)> =
            edges.iter().step_by(3).map(|&(a, b, _)| (a, b)).collect();
        for chunk in deletions.chunks(5) {
            for &(a, b) in chunk {
                single.delete_edge(a, b).unwrap();
            }
            batched.batch_delete_edges(chunk).unwrap();
        }
        let canon = |g: &DynamicGraphClustering| {
            let mut e = g.graph_edges();
            e.sort_by_key(|x| pair(x.0, x.1));
            e
        };
        assert_eq!(canon(&single), canon(&batched));
        assert_eq!(
            single.sld().export_snapshot().nodes.len(),
            batched.sld().export_snapshot().nodes.len()
        );
    }
}
