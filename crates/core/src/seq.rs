//! Sequential height-bounded update algorithms (Section 3.1, Theorem 1.1).
//!
//! * **Insertion** in `O(h)`: the new edge node is merged into the spine of `e*_u` (the
//!   minimum-rank edge incident to `u` in `T_u`), and the resulting spine is merged with the
//!   spine of `e*_v` — the two applications of the `SLD-Merge` primitive of Algorithm 1/2.
//! * **Deletion** in `O(h log(1 + n/h))`: deletion is the reverse of insertion. Every node on
//!   the two characteristic spines is assigned to the side of the cut that contains its edge —
//!   the `h` connectivity questions are answered as one batch of find-representative queries
//!   against the Euler-tour forest, which has already been updated to reflect the deletion (see
//!   [`crate::sides`]) — and each side is relinked in spine order (Algorithm 2, `Delete`).
//! * **Exchange** (an extension, not a paper claim): replacing the heaviest edge on a cycle by
//!   the lighter edge that closed it rewires only the spine nodes below the evicted edge's rank,
//!   with one path-maximum query to find the evicted edge and no other connectivity query
//!   ([`DynSld::exchange`]).

use crate::dynsld::{DynSld, DynSldError};
use dynsld_forest::{EdgeId, VertexId, Weight};

/// What [`DynSld::exchange`] did with an edge offered to the tree path it closes.
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum CycleExchange {
    /// The endpoints are in different trees: the edge closes no cycle. Nothing changed.
    Disconnected,
    /// The heaviest edge on the path does not outweigh the new edge. Nothing changed.
    Kept,
    /// The heaviest edge on the path was exchanged for the new edge.
    Exchanged {
        /// The endpoints of the evicted edge, as the forest stored them.
        evicted: (VertexId, VertexId),
        /// The evicted edge's weight.
        weight: Weight,
    },
}

impl DynSld {
    /// Sequential `O(h)` edge insertion (Theorem 1.1).
    pub fn insert_seq(
        &mut self,
        u: VertexId,
        v: VertexId,
        weight: Weight,
    ) -> Result<EdgeId, DynSldError> {
        self.check_insert(u, v)?;
        self.stats.begin_update();
        let (e, e_star_u, e_star_v) = self.register_insert(u, v, weight);
        // First merge: T_u ∪ {e}. The new node `e` is a one-node spine.
        if let Some(eu) = e_star_u {
            self.merge_spines_seq(eu, e);
        }
        // Second merge: (T_u ∪ {e}) ∪ T_v along the spines of e*_v and e.
        if let Some(ev) = e_star_v {
            self.merge_spines_seq(ev, e);
        }
        Ok(e)
    }

    /// Sequential `O(h log(1 + n/h))` edge deletion (Theorem 1.1). The edge is addressed by its
    /// endpoints.
    pub fn delete_seq(&mut self, u: VertexId, v: VertexId) -> Result<EdgeId, DynSldError> {
        self.check_endpoints(u, v)?;
        let e = self
            .forest
            .find_edge(u, v)
            .ok_or(DynSldError::EdgeNotFound(u, v))?;
        self.delete_edge_seq(e);
        Ok(e)
    }

    /// Sequential deletion addressed by edge id.
    pub fn delete_edge_seq(&mut self, e: EdgeId) {
        self.stats.begin_update();
        // `register_delete` runs first so that connectivity reflects the deletion; it does not
        // modify the dendrogram, which the side assignment still reads in its old shape.
        let cut = self.register_delete(e);
        let [side_u, side_v] = self.cut_sides(&cut);
        self.relink(&side_u);
        self.relink(&side_v);
        self.destroy_node(e);
    }

    /// Offers the edge `(u, v)` of weight `weight` to the tree path it would close: the MSF swap
    /// of a cycle-closing insertion. One path-maximum query finds `out`, the heaviest edge on the
    /// `u`–`v` tree path; when `out` outweighs the new edge, `out` is replaced by it. Returns
    /// [`CycleExchange::Disconnected`] when `u` and `v` are in different trees and
    /// [`CycleExchange::Kept`] when `out` is not heavier; in both cases nothing changed. An
    /// exchange equals [`delete_edge_seq`](Self::delete_edge_seq) of `out` followed by
    /// [`insert_seq`](Self::insert_seq) of `(u, v)` — the same new edge id, the same dendrogram,
    /// `version()` advanced by 2 — whatever the [`UpdateStrategy`](crate::UpdateStrategy).
    ///
    /// `out` is the dendrogram LCA of `u` and `v` and outranks the new edge, so nothing at or
    /// above `rank(out)` changes. `out`'s (at most two) children are detached, the new edge is
    /// merged with the spines of `e*_u` and `e*_v` (each walk ends at a detached child), and the
    /// merged top takes `out`'s place. The work is the spine nodes below `rank(out)` on the two
    /// spines, with no connectivity query beyond the path-maximum one.
    ///
    /// Errors, leaving the structure unchanged: [`DynSldError::SelfLoop`] and
    /// [`DynSldError::VertexOutOfRange`] as for an insertion.
    pub fn exchange(
        &mut self,
        u: VertexId,
        v: VertexId,
        weight: Weight,
    ) -> Result<CycleExchange, DynSldError> {
        self.check_endpoints(u, v)?;
        let Some(out) = self.path_max_edge(u, v) else {
            return Ok(CycleExchange::Disconnected);
        };
        let out_weight = self.forest.weight(out);
        if weight >= out_weight {
            return Ok(CycleExchange::Kept);
        }
        let evicted = self.forest.endpoints(out);
        self.stats.begin_update();
        let out_rank = self.forest.rank(out);
        let parent = self.dendro.parent(out);
        let children = self.dendro.children(out);
        let children = [children.first().copied(), children.get(1).copied()];
        for c in children.into_iter().flatten() {
            self.set_parent(c, None);
        }
        self.register_delete(out);
        self.destroy_node(out);
        let (e, e_star_u, e_star_v) = self.register_insert(u, v, weight);
        // An endpoint whose lightest edge ranks above `out` is a singleton below `rank(out)`;
        // otherwise its spine ends at the detached child on its side.
        for e_star in [e_star_u, e_star_v].into_iter().flatten() {
            if self.forest.rank(e_star) < out_rank {
                self.merge_spines_seq(e_star, e);
            }
        }
        let top = children
            .into_iter()
            .flatten()
            .chain([e])
            .max_by_key(|&f| self.forest.rank(f))
            .expect("the new edge is a candidate");
        self.set_parent(top, parent);
        Ok(CycleExchange::Exchanged {
            evicted,
            weight: out_weight,
        })
    }

    /// Relinks one side of a cut: each node's parent becomes the next node, the last node becomes
    /// a root.
    pub(crate) fn relink(&mut self, seq: &[EdgeId]) {
        for i in 0..seq.len() {
            let parent = seq.get(i + 1).copied();
            self.set_parent(seq[i], parent);
        }
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
    use rand::{Rng, SeedableRng};

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    /// Asserts that the dynamically maintained dendrogram equals static recomputation.
    fn assert_matches_static(d: &DynSld) {
        d.check_invariants().expect("invariants");
        let fresh = static_sld_kruskal(d.forest());
        assert_eq!(
            d.dendrogram().canonical_parents(),
            fresh.canonical_parents(),
            "dynamic dendrogram diverged from static recomputation"
        );
    }

    #[test]
    fn insert_into_empty_forest() {
        let mut d = DynSld::new(4);
        let e = d.insert_seq(v(0), v(1), 1.0).unwrap();
        assert_eq!(d.parent_of(e), None);
        assert_eq!(d.num_edges(), 1);
        assert_matches_static(&d);
    }

    #[test]
    fn insert_detects_cycles_and_bad_vertices() {
        let mut d = DynSld::new(3);
        d.insert_seq(v(0), v(1), 1.0).unwrap();
        d.insert_seq(v(1), v(2), 2.0).unwrap();
        assert_eq!(
            d.insert_seq(v(0), v(2), 3.0),
            Err(DynSldError::WouldCreateCycle(v(0), v(2)))
        );
        assert_eq!(
            d.insert_seq(v(0), v(7), 3.0),
            Err(DynSldError::VertexOutOfRange(v(7)))
        );
        assert_eq!(
            d.insert_seq(v(1), v(1), 3.0),
            Err(DynSldError::SelfLoop(v(1)))
        );
        assert_eq!(
            d.delete_seq(v(0), v(2)),
            Err(DynSldError::EdgeNotFound(v(0), v(2)))
        );
    }

    #[test]
    fn incremental_path_matches_static_at_every_step() {
        // Build an increasing-weight path one edge at a time, in a shuffled order.
        let inst = gen::path(40, WeightOrder::Random(3));
        let wb = WorkloadBuilder::new(inst.clone());
        let mut d = DynSld::new(inst.n);
        for up in wb.insertion_stream(7) {
            let Update::Insert { u, v, weight } = up else {
                unreachable!()
            };
            d.insert_seq(u, v, weight).unwrap();
            assert_matches_static(&d);
        }
        assert_eq!(d.num_edges(), 39);
    }

    #[test]
    fn incremental_random_trees_match_static() {
        for seed in 0..4 {
            let inst = gen::random_tree(60, seed);
            let wb = WorkloadBuilder::new(inst.clone());
            let mut d = DynSld::new(inst.n);
            for up in wb.insertion_stream(seed + 100) {
                let Update::Insert { u, v, weight } = up else {
                    unreachable!()
                };
                d.insert_seq(u, v, weight).unwrap();
            }
            assert_matches_static(&d);
        }
    }

    #[test]
    fn decremental_matches_static_at_every_step() {
        let inst = gen::random_tree(50, 9);
        let wb = WorkloadBuilder::new(inst.clone());
        let mut d = DynSld::from_forest(inst.build_forest(), DynSldOptions::default());
        assert_matches_static(&d);
        for up in wb.deletion_stream(4) {
            let Update::Delete { u, v } = up else {
                unreachable!()
            };
            d.delete_seq(u, v).unwrap();
            assert_matches_static(&d);
        }
        assert_eq!(d.num_edges(), 0);
    }

    #[test]
    fn fully_dynamic_churn_matches_static() {
        let inst = gen::random_tree(45, 17);
        let wb = WorkloadBuilder::new(inst.clone());
        let mut d = DynSld::from_forest(inst.build_forest(), DynSldOptions::default());
        for (i, up) in wb.churn_stream(300, 5).into_iter().enumerate() {
            match up {
                Update::Insert { u, v, weight } => {
                    d.insert_seq(u, v, weight).unwrap();
                }
                Update::Delete { u, v } => {
                    d.delete_seq(u, v).unwrap();
                }
            }
            if i % 7 == 0 {
                assert_matches_static(&d);
            }
        }
        assert_matches_static(&d);
    }

    #[test]
    fn churn_with_spine_index_keeps_mirror_consistent() {
        let inst = gen::random_tree(35, 21);
        let wb = WorkloadBuilder::new(inst.clone());
        let options = DynSldOptions {
            maintain_spine_index: true,
            strategy: UpdateStrategy::Sequential,
            ..Default::default()
        };
        let mut d = DynSld::from_forest(inst.build_forest(), options);
        for up in wb.churn_stream(150, 6) {
            match up {
                Update::Insert { u, v, weight } => {
                    d.insert_seq(u, v, weight).unwrap();
                }
                Update::Delete { u, v } => {
                    d.delete_seq(u, v).unwrap();
                }
            }
        }
        assert_matches_static(&d);
    }

    #[test]
    fn sliding_window_workload_matches_static() {
        let inst = gen::path(60, WeightOrder::Random(11));
        let wb = WorkloadBuilder::new(inst.clone());
        let mut d = DynSld::new(inst.n);
        for up in wb.sliding_window_stream(15, 2) {
            match up {
                Update::Insert { u, v, weight } => {
                    d.insert_seq(u, v, weight).unwrap();
                }
                Update::Delete { u, v } => {
                    d.delete_seq(u, v).unwrap();
                }
            }
        }
        assert_matches_static(&d);
    }

    #[test]
    fn theorem_5_1_lower_bound_instance_changes_2h_plus_1_pointers() {
        // The Theorem 5.1 construction: inserting the weight-0 edge between two star centers
        // affects exactly 2h + 1 parent pointers; deleting it affects them again.
        let h = 8;
        let lb = gen::lower_bound_star_paths(64, h);
        let mut d = DynSld::from_forest(lb.instance.build_forest(), DynSldOptions::default());
        let (cu, cv, w) = lb.update;
        d.insert_seq(cu, cv, w).unwrap();
        assert_matches_static(&d);
        // The paper counts 2h + 1 affected nodes; our counter counts parent-pointer *changes*
        // (the top of the second star keeps its pointer), i.e. Θ(h) either way.
        let c = d.stats().last_pointer_changes;
        assert!(
            (2 * h..=2 * h + 1).contains(&c),
            "expected ~2h changes, got {c}"
        );
        d.delete_seq(cu, cv).unwrap();
        assert_matches_static(&d);
        assert!(d.stats().last_pointer_changes >= 2 * h);
    }

    #[test]
    fn stats_spine_work_tracks_height() {
        // On an increasing path (h = n - 2) deletions and heavy insertions touch the whole spine.
        let inst = gen::path(200, WeightOrder::Increasing);
        let mut d = DynSld::from_forest(inst.build_forest(), DynSldOptions::default());
        d.delete_seq(v(0), v(1)).unwrap();
        assert!(
            d.stats().last_spine_nodes >= 150,
            "deletion should visit ~h spine nodes"
        );
        // Re-insert with a weight larger than every other edge: the spine merge walks the whole
        // spine before placing the new node at the top.
        d.insert_seq(v(0), v(1), 1_000.0).unwrap();
        assert!(
            d.stats().last_spine_nodes >= 150,
            "heavy insertion should visit ~h spine nodes"
        );
        assert_matches_static(&d);
    }

    /// A [`DynSld::exchange`] that exchanges nothing returns `expected` and leaves everything,
    /// the statistics included, as it was.
    fn assert_nothing_exchanged(
        d: &mut DynSld,
        a: VertexId,
        b: VertexId,
        w: f64,
        expected: Result<CycleExchange, DynSldError>,
    ) {
        let before = (d.version(), *d.stats(), d.dendrogram().canonical_parents());
        assert_eq!(d.exchange(a, b, w), expected, "exchange({a}, {b}, {w})");
        let after = (d.version(), *d.stats(), d.dendrogram().canonical_parents());
        assert_eq!(
            before, after,
            "an offer that exchanged nothing changed the structure"
        );
    }

    #[test]
    fn exchange_equals_delete_then_insert() {
        for maintain_spine_index in [false, true] {
            let options = DynSldOptions {
                maintain_spine_index,
                ..Default::default()
            };
            let n = 300;
            let mut rng = SmallRng::seed_from_u64(35);
            // `a` takes every swap as delete + insert, `b` as one exchange.
            let mut a = DynSld::with_options(n, options);
            let mut b = a.clone();
            let self_loop = Err(DynSldError::SelfLoop(v(3)));
            assert_nothing_exchanged(&mut b, v(3), v(3), 1.0, self_loop);
            let out_of_range = Err(DynSldError::VertexOutOfRange(v(n as u32)));
            assert_nothing_exchanged(&mut b, v(3), v(n as u32), 1.0, out_of_range);
            let mut exchanges = 0;
            for step in 1..=2_000 {
                let x = v(rng.gen_range(0..n as u32));
                let y = v((x.0 + rng.gen_range(1..n as u32)) % n as u32);
                // Few distinct weights, so rank ties fall back to recycled edge ids.
                let weight = rng.gen_range(1..=8) as f64;
                let ids = if rng.gen_bool(0.1) && a.num_edges() > 0 {
                    let alive: Vec<EdgeId> = a.forest().edges().map(|(e, _)| e).collect();
                    let e = alive[rng.gen_range(0..alive.len())];
                    a.delete_edge_seq(e);
                    b.delete_edge_seq(e);
                    (e, e)
                } else if !a.connected(x, y) {
                    let disconnected = Ok(CycleExchange::Disconnected);
                    assert_nothing_exchanged(&mut b, x, y, weight, disconnected);
                    (
                        a.insert_seq(x, y, weight).unwrap(),
                        b.insert_seq(x, y, weight).unwrap(),
                    )
                } else {
                    let out = a.path_max_edge(x, y).unwrap();
                    let out_weight = a.forest().weight(out);
                    assert_nothing_exchanged(&mut b, x, y, out_weight, Ok(CycleExchange::Kept));
                    if out_weight <= 1.0 {
                        continue;
                    }
                    let weight = rng.gen_range(1..out_weight as u32) as f64;
                    exchanges += 1;
                    let (ou, ov) = a.forest().endpoints(out);
                    a.delete_seq(ou, ov).unwrap();
                    let ea = a.insert_seq(x, y, weight).unwrap();
                    assert_eq!(
                        b.exchange(x, y, weight),
                        Ok(CycleExchange::Exchanged {
                            evicted: (ou, ov),
                            weight: out_weight,
                        }),
                        "step {step}: exchange"
                    );
                    (ea, b.forest().find_edge(x, y).unwrap())
                };
                assert_eq!(ids.0, ids.1, "step {step}: edge ids");
                assert_eq!(a.version(), b.version(), "step {step}: version");
                assert_eq!(
                    a.dendrogram().canonical_parents(),
                    b.dendrogram().canonical_parents(),
                    "step {step}: dendrograms"
                );
                if step % 50 == 0 {
                    assert_matches_static(&b);
                    assert_eq!(
                        a.export_snapshot_incremental(),
                        b.export_snapshot_incremental(),
                        "step {step}: exports"
                    );
                }
            }
            assert!(exchanges >= 500, "only {exchanges} exchanges");
        }
    }

    #[test]
    fn exchange_work_is_the_spine_below_the_evicted_edge() {
        for n in [100, 200, 400, 800, 1600] {
            // Edge (i, i + 1) has weight i + 1: the dendrogram is one chain of height n - 2.
            let inst = gen::path(n, WeightOrder::Increasing);
            let base = DynSld::from_forest(inst.build_forest(), DynSldOptions::default());
            let edge = |d: &DynSld, a: u32, b: u32| d.forest().find_edge(v(a), v(b)).unwrap();

            let mut deleted = base.clone();
            deleted.delete_seq(v(1), v(2)).unwrap();
            assert_eq!(deleted.stats().last_spine_nodes, base.height());

            // The chord (0, 2) evicts (1, 2), the heavier edge on its cycle: only (0, 1) lies
            // below the evicted edge.
            let mut d = base.clone();
            let evicted = d.forest().endpoints(edge(&d, 1, 2));
            assert!(matches!(
                d.exchange(v(0), v(2), 1.5),
                Ok(CycleExchange::Exchanged { evicted: ev, .. }) if ev == evicted
            ));
            let stats = *d.stats();
            assert_eq!(stats.last_spine_nodes, 1, "n = {n}");
            assert_eq!(stats.last_tree_queries, 0, "n = {n}");
            assert!(stats.last_pointer_changes <= 4, "n = {n}: {stats:?}");
            assert_matches_static(&d);

            // The chord (0, n/4) evicts (n/4 - 1, n/4): the chain below it is walked once.
            let q = n as u32 / 4;
            let mut d = base.clone();
            let evicted = d.forest().endpoints(edge(&d, q - 1, q));
            assert!(matches!(
                d.exchange(v(0), v(q), f64::from(q) - 0.5),
                Ok(CycleExchange::Exchanged { evicted: ev, .. }) if ev == evicted
            ));
            assert_eq!(d.stats().last_spine_nodes, q as usize - 1, "n = {n}");
            assert_eq!(d.stats().last_tree_queries, 0, "n = {n}");
            assert_matches_static(&d);
        }
    }

    #[test]
    fn random_insert_delete_same_edge_is_idempotent() {
        let inst = gen::random_tree(30, 2);
        let mut d = DynSld::from_forest(inst.build_forest(), DynSldOptions::default());
        let before = d.dendrogram().canonical_parents();
        let mut rng = SmallRng::seed_from_u64(8);
        for _ in 0..20 {
            let idx = rng.gen_range(0..inst.edges.len());
            let (a, b, w) = inst.edges[idx];
            d.delete_seq(a, b).unwrap();
            d.insert_seq(a, b, w).unwrap();
        }
        assert_eq!(d.dendrogram().canonical_parents(), before);
        assert_matches_static(&d);
    }

    #[test]
    fn disconnected_forest_components_are_independent() {
        let inst = gen::disjoint_random_trees(4, 20, 13);
        let mut d = DynSld::from_forest(inst.build_forest(), DynSldOptions::default());
        assert_matches_static(&d);
        // Link two components and unlink again.
        let a = v(0);
        let b = v(25);
        assert!(!d.connected(a, b));
        d.insert_seq(a, b, 0.01).unwrap();
        assert!(d.connected(a, b));
        assert_matches_static(&d);
        d.delete_seq(a, b).unwrap();
        assert!(!d.connected(a, b));
        assert_matches_static(&d);
    }

    #[test]
    fn from_forest_matches_incremental_construction() {
        let inst = gen::random_tree(80, 31);
        let bulk = DynSld::from_forest(inst.build_forest(), DynSldOptions::default());
        let mut inc = DynSld::new(inst.n);
        for &(a, b, w) in &inst.edges {
            inc.insert_seq(a, b, w).unwrap();
        }
        assert_eq!(
            bulk.dendrogram().canonical_parents(),
            inc.dendrogram().canonical_parents()
        );
    }
}
