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
//!   *Deviation (README.md, substitution 7):* the paper plans the unmerges in parallel; the
//!   plan here is one sequential `O(union)` pass.

use crate::dynsld::{DynSld, DynSldError};
use dynsld_forest::{Dsu, EdgeId, VertexId, Weight};
use std::collections::HashMap;

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

        // ---- group the batch edges by incidence-graph component --------------------------
        // Groups are numbered in batch order (by their first edge), so the edge ids handed
        // out below depend on the batch alone.
        self.stats.begin_update();
        let mut group_of = vec![u32::MAX; comp_index.len()];
        let mut groups: Vec<Vec<usize>> = Vec::new();
        for (i, &(a, _)) in incidence.iter().enumerate() {
            let root = dsu.find(VertexId(a)).index();
            if group_of[root] == u32::MAX {
                group_of[root] = groups.len() as u32;
                groups.push(Vec::new());
            }
            groups[group_of[root] as usize].push(i);
        }

        let mut new_ids = vec![EdgeId(u32::MAX); edges.len()];
        // Degrees by incidence vertex, zero between rounds.
        let mut degree = vec![0u32; comp_index.len()];
        for group in &groups {
            self.insert_incidence_component(edges, &incidence, group, &mut degree, &mut new_ids);
        }
        Ok(new_ids)
    }

    /// Processes one connected component of the incidence graph by rounds of leaf-star
    /// contraction.
    fn insert_incidence_component(
        &mut self,
        edges: &[(VertexId, VertexId, Weight)],
        incidence: &[(u32, u32)],
        group: &[usize],
        degree: &mut [u32],
        new_ids: &mut [EdgeId],
    ) {
        let mut remaining: Vec<usize> = group.to_vec();
        while !remaining.is_empty() {
            // Degrees of incidence vertices over the remaining batch edges.
            for &i in &remaining {
                degree[incidence[i].0 as usize] += 1;
                degree[incidence[i].1 as usize] += 1;
            }
            // This round: every edge with at least one degree-1 endpoint (a leaf of the
            // incidence tree). A tree always has leaves, so progress is guaranteed.
            let (this_round, rest): (Vec<usize>, Vec<usize>) =
                remaining.iter().copied().partition(|&i| {
                    degree[incidence[i].0 as usize] == 1 || degree[incidence[i].1 as usize] == 1
                });
            for &i in &remaining {
                degree[incidence[i].0 as usize] = 0;
                degree[incidence[i].1 as usize] = 0;
            }
            debug_assert!(
                !this_round.is_empty(),
                "an incidence tree always has a leaf"
            );
            // Star-Merge: merge each leaf spine into its center. Within a round the merges are
            // applied in rank order for determinism (weights by `total_cmp`, as `RankKey`
            // orders them, then batch position).
            let mut round = this_round;
            round.sort_by(|&a, &b| edges[a].2.total_cmp(&edges[b].2).then(a.cmp(&b)));
            for i in round {
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
            remaining = rest;
        }
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
        self.unmerge(&ids);
        Ok(ids)
    }

    /// [`batch_delete`](Self::batch_delete) for a caller that can name the post-batch
    /// components itself, as the graph layer's replacement search does: it enumerates every
    /// piece the cuts leave except each tree's largest.
    ///
    /// `search` runs once the forest and the connectivity structures reflect the whole batch
    /// and before the dendrogram is touched, so it sees the post-batch components through
    /// `&DynSld` (the dendrogram it reads is still the pre-batch one). It returns its result,
    /// which this call hands back beside the deleted ids, and optionally a labelling:
    /// `label(c, x)` names the post-batch component of a vertex `x` of the tree that
    /// `pairs[c]` split — equal labels for two vertices of one such tree iff they are still
    /// connected — with labels dense from 0 (below `u32::MAX`). With a labelling the unmerge
    /// asks no connectivity query; with `None` it labels by representatives, as
    /// `batch_delete` does. Either way the dendrogram is the same.
    ///
    /// On error the structure is left unchanged and `search` does not run.
    pub fn batch_delete_labelled<R, L>(
        &mut self,
        pairs: &[(VertexId, VertexId)],
        search: impl FnOnce(&DynSld) -> (R, Option<L>),
    ) -> Result<(Vec<EdgeId>, R), DynSldError>
    where
        L: FnMut(usize, VertexId) -> u32,
    {
        let ids = self.cut_batch(pairs)?;
        let (result, label) = search(self);
        match label {
            Some(label) => self.label_spines_by(label),
            None => self.label_spines(),
        }
        self.unmerge(&ids);
        Ok((ids, result))
    }

    /// The first step of a batch deletion: validates the whole batch, then removes every edge
    /// from the forest and the connectivity structures, leaving one
    /// [`Cut`](crate::sides::Cut) per edge in `self.sides.cuts`. Returns the edge ids in batch
    /// order. On error nothing has changed.
    fn cut_batch(&mut self, pairs: &[(VertexId, VertexId)]) -> Result<Vec<EdgeId>, DynSldError> {
        let mut ids = Vec::with_capacity(pairs.len());
        // The union's label table is free until the cuts are made: it marks the ids seen.
        self.sides
            .union
            .labels
            .begin_round(self.forest.edge_id_bound());
        for &(u, v) in pairs {
            self.check_endpoints(u, v)?;
            let e = self
                .forest
                .find_edge(u, v)
                .ok_or(DynSldError::EdgeNotFound(u, v))?;
            let seen = &mut self.sides.union.labels;
            if seen.get(e.index()).is_some() {
                return Err(DynSldError::ConflictingBatch(u, v));
            }
            seen.set(e.index(), 0);
            ids.push(e);
        }

        self.stats.begin_update();
        let mut cuts = std::mem::take(&mut self.sides.cuts);
        cuts.clear();
        cuts.extend(ids.iter().map(|&e| self.register_delete(e)));
        self.sides.cuts = cuts;
        Ok(ids)
    }

    /// The second step: plans every spine unmerge of the batch in one pass over the labelled
    /// union (each node's new parent is its nearest ancestor with the same label, so plans of
    /// overlapping spines cannot disagree — Section 3.3), commits the plan, and drops the
    /// deleted nodes.
    fn unmerge(&mut self, ids: &[EdgeId]) {
        self.stats.last_spine_nodes += self.sides.union.plan(&self.dendro);
        let plan = std::mem::take(&mut self.sides.union.plan);
        for &(node, parent) in &plan {
            self.set_parent(node, parent);
        }
        self.sides.union.plan = plan;
        // Detach all deleted nodes first (a deleted node may be the dendrogram child of another
        // deleted node, e.g. when a batch removes a whole sub-path), then drop them.
        for &e in ids {
            self.set_parent(e, None);
        }
        for &e in ids {
            self.dendro.remove_node(e);
        }
    }
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

    #[test]
    fn a_labelled_batch_asks_no_query_and_equals_the_representative_one() {
        let inst = gen::disjoint_random_trees(4, 120, 31);
        let mut rng = SmallRng::seed_from_u64(31);
        for k in [1, 3, 16, 64] {
            let mut plain = DynSld::from_forest(inst.build_forest(), DynSldOptions::default());
            let mut labelled = plain.clone();
            let mut unlabelled = plain.clone();
            let pairs = random_cuts(&plain, k, &mut rng);
            let ids = plain.batch_delete(&pairs).unwrap();
            // Any labelling that names the post-batch components will do: here the root of a
            // union-find over the surviving forest, which the search sees already cut.
            let (labelled_ids, edges_seen) = labelled
                .batch_delete_labelled(&pairs, |sld| {
                    let mut dsu = Dsu::new(sld.num_vertices());
                    for (_, e) in sld.forest().edges() {
                        dsu.union(e.u, e.v);
                    }
                    let label = move |_: usize, x: VertexId| dsu.find(x).0;
                    (sld.num_edges(), Some(label))
                })
                .unwrap();
            let (unlabelled_ids, ()) = unlabelled
                .batch_delete_labelled(&pairs, |_| ((), None::<fn(usize, VertexId) -> u32>))
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
