//! Output-sensitive insertion (Section 4.2, Theorem 1.2).
//!
//! The cost of an insertion is made proportional to `c`, the number of parent-pointer changes
//! it causes, by replacing the linear spine walk with *path weight search* (PWS) queries against
//! the spine index (the link-cut tree mirroring the dendrogram): alternating between the two
//! spines, each PWS query finds the next node whose parent pointer must change, so the merge
//! issues exactly one query and one pointer change per structural change.
//!
//! With the RC-tree machinery of the paper the `c` queries cost `O(c log(1 + n/c))` in total;
//! with the link-cut tree substrate used here each query is `O(log n)` amortized, giving
//! `O(c log n)` — the same output-sensitive shape (see README.md, "Deviations from the paper",
//! substitution 4).

use crate::dynsld::{DynSld, DynSldError};
use dynsld_forest::{EdgeId, RankKey, VertexId, Weight};

impl DynSld {
    /// Output-sensitive insertion in `O(c log n)` amortized time (Theorem 1.2 up to the
    /// substitution noted in the module docs).
    ///
    /// Requires [`DynSldOptions::maintain_spine_index`](crate::DynSldOptions); returns
    /// [`DynSldError::SpineIndexRequired`] otherwise.
    pub fn insert_output_sensitive(
        &mut self,
        u: VertexId,
        v: VertexId,
        weight: Weight,
    ) -> Result<EdgeId, DynSldError> {
        if self.spine.is_none() {
            return Err(DynSldError::SpineIndexRequired);
        }
        self.check_insert(u, v)?;
        self.stats.begin_update();
        let (e, e_star_u, e_star_v) = self.register_insert(u, v, weight);
        // First merge: the one-node spine {e} into the spine of e*_u. At most one pointer of
        // the existing spine changes (the predecessor of e), so c = O(1) here.
        if let Some(eu) = e_star_u {
            self.merge_single_node_outsens(eu, e);
        }
        // Second merge: the spine of e*_v with the spine of e.
        if let Some(ev) = e_star_v {
            self.merge_spines_outsens(ev, e);
        }
        Ok(e)
    }

    /// Merges the freshly created node `e` into the spine of `anchor` using one PWS query.
    fn merge_single_node_outsens(&mut self, anchor: EdgeId, e: EdgeId) {
        let rank_e = self.forest.rank(e);
        let below = self.spine_pws_below(anchor, rank_e);
        match below {
            None => {
                // Every node on the spine has larger rank: `e` becomes the new bottom and its
                // parent is the spine's lowest node.
                self.set_parent(e, Some(anchor));
            }
            Some(x) => {
                let old_parent = self.dendro.parent(x);
                self.set_parent(x, Some(e));
                self.set_parent(e, old_parent);
            }
        }
    }

    /// The alternating output-sensitive spine merge (Figure 4): `a` and `b` are the lowest nodes
    /// of two spines in different dendrogram trees.
    pub(crate) fn merge_spines_outsens(&mut self, a: EdgeId, b: EdgeId) {
        // `query` is the node whose predecessor (new child) in the merged order we must find;
        // `other_start` is a node of the other spine known to precede `query`, from which the
        // PWS query walks towards the root. Searching from `other_start` is correct even after
        // earlier pointer changes because the path from it to the root is always the
        // already-merged prefix followed by the unmerged remainder (see Section 4.2).
        let (mut query, mut other_start) = if self.forest.rank(a) > self.forest.rank(b) {
            (a, b)
        } else {
            (b, a)
        };
        loop {
            let w = self.forest.rank(query);
            let x = self
                .spine_pws_below(other_start, w)
                .expect("the other spine always contains a node below the query");
            let old_parent = self.dendro.parent(x);
            self.set_parent(x, Some(query));
            match old_parent {
                None => break,
                Some(p) => {
                    other_start = query;
                    query = p;
                }
            }
        }
    }

    /// Path weight search on the dendrogram spine of `from`: the maximum-rank node on the path
    /// from `from` to its dendrogram root whose rank is strictly below `w`.
    pub(crate) fn spine_pws_below(&mut self, from: EdgeId, w: RankKey) -> Option<EdgeId> {
        self.stats.last_tree_queries += 1;
        let spine = self.spine.as_mut().expect("spine index required");
        let node = spine.node(from);
        spine
            .lct
            .path_to_root_search_below(node, w)
            .map(|id| spine.edge_of(id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynsld::{DynSldOptions, UpdateStrategy};
    use crate::static_sld::static_sld_kruskal;
    use dynsld_forest::gen::{self, WeightOrder};
    use dynsld_forest::workload::{Update, WorkloadBuilder};

    fn opts() -> DynSldOptions {
        DynSldOptions::with_strategy(UpdateStrategy::OutputSensitive)
    }

    fn assert_matches_static(d: &DynSld) {
        d.check_invariants().expect("invariants");
        let fresh = static_sld_kruskal(d.forest());
        assert_eq!(
            d.dendrogram().canonical_parents(),
            fresh.canonical_parents(),
            "output-sensitive dendrogram diverged from static recomputation"
        );
    }

    #[test]
    fn requires_spine_index() {
        let mut d = DynSld::new(3);
        assert_eq!(
            d.insert_output_sensitive(VertexId(0), VertexId(1), 1.0),
            Err(DynSldError::SpineIndexRequired)
        );
    }

    #[test]
    fn incremental_construction_matches_static() {
        for seed in 0..4 {
            let inst = gen::random_tree(70, seed);
            let wb = WorkloadBuilder::new(inst.clone());
            let mut d = DynSld::with_options(inst.n, opts());
            for up in wb.insertion_stream(seed + 50) {
                let Update::Insert { u, v, weight } = up else {
                    unreachable!()
                };
                d.insert_output_sensitive(u, v, weight).unwrap();
            }
            assert_matches_static(&d);
        }
    }

    #[test]
    fn every_step_matches_static_on_structured_inputs() {
        for inst in [
            gen::path(50, WeightOrder::Increasing),
            gen::path(50, WeightOrder::Balanced),
            gen::path(50, WeightOrder::Random(2)),
            gen::star(40),
            gen::caterpillar(10, 3, 5),
        ] {
            let wb = WorkloadBuilder::new(inst.clone());
            let mut d = DynSld::with_options(inst.n, opts());
            for up in wb.insertion_stream(9) {
                let Update::Insert { u, v, weight } = up else {
                    unreachable!()
                };
                d.insert_output_sensitive(u, v, weight).unwrap();
                assert_matches_static(&d);
            }
        }
    }

    #[test]
    fn mixed_with_sequential_deletions_matches_static() {
        let inst = gen::random_tree(50, 23);
        let wb = WorkloadBuilder::new(inst.clone());
        let mut d = DynSld::from_forest(inst.build_forest(), opts());
        for (i, up) in wb.churn_stream(250, 3).into_iter().enumerate() {
            match up {
                Update::Insert { u, v, weight } => {
                    d.insert_output_sensitive(u, v, weight).unwrap();
                }
                Update::Delete { u, v } => {
                    d.delete_seq(u, v).unwrap();
                }
            }
            if i % 10 == 0 {
                assert_matches_static(&d);
            }
        }
        assert_matches_static(&d);
    }

    #[test]
    fn pointer_changes_match_sequential_algorithm() {
        // The number of structural changes is a property of the update, not the algorithm:
        // both algorithms must report the same c.
        let inst = gen::path(80, WeightOrder::Random(5));
        let wb = WorkloadBuilder::new(inst.clone());
        let stream = wb.insertion_stream(1);
        let mut seq = DynSld::new(inst.n);
        let mut os = DynSld::with_options(inst.n, opts());
        for up in stream {
            let Update::Insert { u, v, weight } = up else {
                unreachable!()
            };
            seq.insert_seq(u, v, weight).unwrap();
            os.insert_output_sensitive(u, v, weight).unwrap();
            assert_eq!(
                seq.stats().last_pointer_changes,
                os.stats().last_pointer_changes,
                "c must agree between algorithms"
            );
        }
        assert_eq!(
            seq.dendrogram().canonical_parents(),
            os.dendrogram().canonical_parents()
        );
    }

    #[test]
    fn low_change_insertions_issue_few_queries() {
        // Appending ever-larger weights to the end of an increasing path changes O(1) pointers,
        // so the output-sensitive algorithm must issue O(1) tree queries per insertion even
        // though h = Θ(n).
        let n = 400;
        let mut d = DynSld::with_options(n, opts());
        for i in 0..n - 1 {
            d.insert_output_sensitive(VertexId(i as u32), VertexId(i as u32 + 1), (i + 1) as f64)
                .unwrap();
            assert!(
                d.stats().last_tree_queries <= 4,
                "appending should need O(1) PWS queries, used {}",
                d.stats().last_tree_queries
            );
            assert!(d.stats().last_pointer_changes <= 2);
        }
        assert_matches_static(&d);
    }

    #[test]
    fn theorem_5_1_instance_has_c_proportional_changes() {
        let h = 10;
        let lb = gen::lower_bound_star_paths(110, h);
        let mut d = DynSld::from_forest(lb.instance.build_forest(), opts());
        let (cu, cv, w) = lb.update;
        d.insert_output_sensitive(cu, cv, w).unwrap();
        assert_matches_static(&d);
        let c = d.stats().last_pointer_changes;
        assert!((2 * h..=2 * h + 1).contains(&c));
        // Queries are proportional to c, not to n.
        assert!(d.stats().last_tree_queries <= 2 * c + 4);
    }
}
