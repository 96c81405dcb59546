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
//! * **Batch deletion** (`Batch-Delete`): the connectivity structures are updated for the whole
//!   batch first, then the union of the affected spines is labelled with post-batch components
//!   in one round of find-representative queries ([`crate::sides`]), the spine-unmerge of every
//!   deleted edge is *planned* against the original dendrogram and those labels (the plans are
//!   independent and read-only, and assignments that overlap provably agree — Section 3.3), and
//!   finally all plans are committed.

use crate::dynsld::{DynSld, DynSldError};
use crate::sides::Cut;
use dynsld_forest::{Dsu, EdgeId, VertexId, Weight};
use rayon::prelude::*;
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
        self.stats.begin_update();
        let mut groups: HashMap<u32, Vec<usize>> = HashMap::new();
        for (i, &(a, _)) in incidence.iter().enumerate() {
            groups.entry(dsu.find(VertexId(a)).0).or_default().push(i);
        }

        let mut new_ids = vec![EdgeId(u32::MAX); edges.len()];
        for group in groups.values() {
            self.insert_incidence_component(edges, &incidence, group, &mut new_ids);
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
        new_ids: &mut [EdgeId],
    ) {
        let mut remaining: Vec<usize> = group.to_vec();
        while !remaining.is_empty() {
            // Degrees of incidence vertices over the remaining batch edges.
            let mut degree: HashMap<u32, usize> = HashMap::new();
            for &i in &remaining {
                *degree.entry(incidence[i].0).or_insert(0) += 1;
                *degree.entry(incidence[i].1).or_insert(0) += 1;
            }
            // This round: every edge with at least one degree-1 endpoint (a leaf of the
            // incidence tree). A tree always has leaves, so progress is guaranteed.
            let (this_round, rest): (Vec<usize>, Vec<usize>) = remaining
                .iter()
                .copied()
                .partition(|&i| degree[&incidence[i].0] == 1 || degree[&incidence[i].1] == 1);
            debug_assert!(
                !this_round.is_empty(),
                "an incidence tree always has a leaf"
            );
            // Star-Merge: merge each leaf spine into its center. Within a round the merges are
            // applied in rank order for determinism.
            let mut round = this_round;
            round.sort_by(|&a, &b| {
                let ka = (edges[a].2, a);
                let kb = (edges[b].2, b);
                ka.partial_cmp(&kb).expect("weights are not NaN")
            });
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
        // ---- validation -------------------------------------------------------------------
        let mut ids = Vec::with_capacity(pairs.len());
        let mut seen = std::collections::HashSet::new();
        for &(u, v) in pairs {
            let e = self
                .forest
                .find_edge(u, v)
                .ok_or(DynSldError::EdgeNotFound(u, v))?;
            if !seen.insert(e) {
                return Err(DynSldError::ConflictingBatch(u, v));
            }
            ids.push(e);
        }

        self.stats.begin_update();
        // ---- phase 1: update the connectivity structures for the whole batch ---------------
        let cuts: Vec<Cut> = ids.iter().map(|&e| self.register_delete(e)).collect();

        // ---- phase 2: plan every spine unmerge against the original dendrogram -------------
        // The union of the affected spines is labelled once with post-batch components; the
        // plans are then independent read-only computations (the paper runs them concurrently)
        // that keep the nodes carrying their side's label. Assignments of overlapping spines
        // agree, so the plans can simply be concatenated.
        let side_labels = self.label_spines(&cuts);
        let plans: Vec<Vec<(EdgeId, Option<EdgeId>)>> = {
            let dendro = &self.dendro;
            let sides = &self.sides;
            cuts.par_iter()
                .zip(side_labels.par_iter())
                .map(|(cut, sides_of_cut)| {
                    let mut plan = Vec::new();
                    for (e_star, &side) in cut.e_star.into_iter().zip(sides_of_cut) {
                        // Deleted edges carry a label no side has, so one comparison drops
                        // them along with the nodes on other sides of the cuts.
                        let mut kept = std::iter::successors(e_star, |&f| dendro.parent(f))
                            .filter(|&f| sides.label(f) == Some(side));
                        let mut node = kept.next();
                        while let Some(f) = node {
                            node = kept.next();
                            if dendro.parent(f) != node {
                                plan.push((f, node));
                            }
                        }
                    }
                    plan
                })
                .collect()
        };

        // ---- phase 3: commit --------------------------------------------------------------
        let mut spine_nodes = 0usize;
        for plan in plans {
            spine_nodes += plan.len();
            for (node, parent) in plan {
                self.set_parent(node, parent);
            }
        }
        self.stats.last_spine_nodes += spine_nodes;
        // Detach all deleted nodes first (a deleted node may be the dendrogram child of another
        // deleted node, e.g. when a batch removes a whole sub-path), then drop them.
        for &e in &ids {
            self.set_parent(e, None);
        }
        for &e in &ids {
            self.dendro.remove_node(e);
        }
        Ok(ids)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynsld::DynSldOptions;
    use crate::static_sld::static_sld_kruskal;
    use dynsld_forest::gen::{self, WeightOrder};
    use dynsld_forest::workload::{UpdateBatch, WorkloadBuilder};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

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
        }
    }

    #[test]
    fn alternating_batches_match_static() {
        let inst = gen::random_tree(90, 13);
        let wb = WorkloadBuilder::new(inst.clone());
        let mut d = DynSld::from_forest(inst.build_forest(), DynSldOptions::default());
        let mut rng = SmallRng::seed_from_u64(17);
        // Repeatedly delete a random batch and re-insert it (possibly with new weights).
        for round in 0..12 {
            let k = rng.gen_range(1..20);
            let mut deleted = Vec::new();
            let alive: Vec<EdgeId> = d.forest().edge_ids().collect();
            for &e in alive.iter().take(k) {
                let (a, b) = d.forest().endpoints(e);
                deleted.push((a, b, d.forest().weight(e)));
            }
            let pairs: Vec<(VertexId, VertexId)> =
                deleted.iter().map(|&(a, b, _)| (a, b)).collect();
            d.batch_delete(&pairs).unwrap();
            assert_matches_static(&d);
            let reinsert: Vec<(VertexId, VertexId, Weight)> = deleted
                .iter()
                .map(|&(a, b, w)| (a, b, if round % 2 == 0 { w } else { rng.gen::<f64>() }))
                .collect();
            d.batch_insert(&reinsert).unwrap();
            assert_matches_static(&d);
        }
        let _ = wb;
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
