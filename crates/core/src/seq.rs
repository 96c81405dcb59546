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

use crate::dynsld::{DynSld, DynSldError};
use dynsld_forest::{EdgeId, VertexId, Weight};

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
