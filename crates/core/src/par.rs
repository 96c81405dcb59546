//! Parallel height-bounded update algorithms (Section 3.2, Theorem 1.3).
//!
//! Both algorithms follow a *plan-then-commit* structure:
//!
//! * **Insertion**: the characteristic spines are extracted into arrays, the new node is placed
//!   into the first spine by binary search, the second spine is combined with the result using
//!   the work-efficient parallel merge of `dynsld-parallel`, and the parent-pointer changes are
//!   derived from the merged order in parallel before being committed.
//! * **Deletion**: the nodes of the two characteristic spines are assigned to their side of the
//!   cut by the routine every deletion algorithm shares ([`crate::sides`]: one memoised round
//!   of find-representative queries — sequential, because the memo is what makes the batch
//!   cheap), the pointer changes of each side are derived with a parallel filter, and the
//!   relink is committed.
//!
//! The committed pointer writes are exactly the structural changes, so the work matches the
//! sequential algorithm up to the cost of the parallel primitives. Note on depth: the paper
//! extracts spines through an RC tree of the dendrogram in `O(log n)` depth; here spines are
//! extracted by walking parent pointers (`O(h)` span for the extraction step) — the work bound
//! and the merge/filter structure are as in the paper, the extraction span is not (see
//! README.md, "Deviations from the paper", substitution 2; substitution 7 covers the deletion's
//! sequential side assignment).

use crate::dynsld::{DynSld, DynSldError};
use dynsld_forest::{EdgeId, VertexId, Weight};
use dynsld_parallel::{par_filter_map, par_merge_by_key};

impl DynSld {
    /// Parallel edge insertion (Theorem 1.3): `O(h)` work spine merge realized with a parallel
    /// merge primitive.
    pub fn insert_parallel(
        &mut self,
        u: VertexId,
        v: VertexId,
        weight: Weight,
    ) -> Result<EdgeId, DynSldError> {
        self.check_insert(u, v)?;
        self.stats.begin_update();
        let (e, e_star_u, e_star_v) = self.register_insert(u, v, weight);
        let rank_e = self.forest.rank(e);

        // Phase 1: place the new node into the spine of e*_u (binary search on the sorted
        // spine); afterwards Spine(e) = [e] ++ the part of Spine(e*_u) above e.
        let mut spine_e: Vec<EdgeId> = vec![e];
        if let Some(eu) = e_star_u {
            let spine_u = self.dendro.spine(eu);
            self.stats.last_spine_nodes += spine_u.len();
            let pos = spine_u.partition_point(|&f| self.forest.rank(f) < rank_e);
            if pos > 0 {
                self.set_parent(spine_u[pos - 1], Some(e));
            }
            if pos < spine_u.len() {
                self.set_parent(e, Some(spine_u[pos]));
            }
            spine_e.extend_from_slice(&spine_u[pos..]);
        }

        // Phase 2: merge Spine(e*_v) with Spine(e) using the parallel merge primitive, then
        // derive and commit the parent-pointer changes from the merged order.
        if let Some(ev) = e_star_v {
            let spine_v = self.dendro.spine(ev);
            self.stats.last_spine_nodes += spine_v.len();
            let changes = {
                let forest = &self.forest;
                let dendro = &self.dendro;
                let merged = par_merge_by_key(&spine_e, &spine_v, |&f: &EdgeId| forest.rank(f));
                // A node's new parent is its successor in the merged order; keep only real
                // changes (order-preserving parallel filter).
                let idx: Vec<usize> = (0..merged.len().saturating_sub(1)).collect();
                par_filter_map(&idx, |&i| {
                    let node = merged[i];
                    let new_parent = merged[i + 1];
                    if dendro.parent(node) != Some(new_parent) {
                        Some((node, new_parent))
                    } else {
                        None
                    }
                })
            };
            for (node, parent) in changes {
                self.set_parent(node, Some(parent));
            }
        }
        Ok(e)
    }

    /// Parallel edge deletion (Theorem 1.3), addressed by endpoints.
    pub fn delete_parallel(&mut self, u: VertexId, v: VertexId) -> Result<EdgeId, DynSldError> {
        let e = self
            .forest
            .find_edge(u, v)
            .ok_or(DynSldError::EdgeNotFound(u, v))?;
        self.delete_edge_parallel(e);
        Ok(e)
    }

    /// Parallel edge deletion addressed by edge id.
    pub fn delete_edge_parallel(&mut self, e: EdgeId) {
        self.stats.begin_update();
        let cut = self.register_delete(e);
        let sides = self.cut_sides(&cut);
        // Plan the pointer changes from the two side orders (read-only, in parallel).
        let changes = {
            let dendro = &self.dendro;
            let plan = |seq: &[EdgeId]| -> Vec<(EdgeId, Option<EdgeId>)> {
                let idx: Vec<usize> = (0..seq.len()).collect();
                par_filter_map(&idx, |&i| {
                    let node = seq[i];
                    let new_parent = seq.get(i + 1).copied();
                    if dendro.parent(node) != new_parent {
                        Some((node, new_parent))
                    } else {
                        None
                    }
                })
            };
            let [mut all, side_v] = sides.map(|side| plan(&side));
            all.extend(side_v);
            all
        };
        for (node, parent) in changes {
            self.set_parent(node, parent);
        }
        self.destroy_node(e);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynsld::{DynSldOptions, UpdateStrategy};
    use crate::static_sld::static_sld_kruskal;
    use dynsld_forest::gen::{self, WeightOrder};
    use dynsld_forest::workload::{Update, WorkloadBuilder};

    fn assert_matches_static(d: &DynSld) {
        d.check_invariants().expect("invariants");
        let fresh = static_sld_kruskal(d.forest());
        assert_eq!(
            d.dendrogram().canonical_parents(),
            fresh.canonical_parents(),
            "parallel dendrogram diverged from static recomputation"
        );
    }

    #[test]
    fn parallel_insertions_match_static_every_step() {
        for inst in [
            gen::path(60, WeightOrder::Increasing),
            gen::path(60, WeightOrder::Random(4)),
            gen::star(50),
            gen::random_tree(60, 3),
        ] {
            let wb = WorkloadBuilder::new(inst.clone());
            let mut d = DynSld::new(inst.n);
            for up in wb.insertion_stream(13) {
                let Update::Insert { u, v, weight } = up else {
                    unreachable!()
                };
                d.insert_parallel(u, v, weight).unwrap();
                assert_matches_static(&d);
            }
        }
    }

    #[test]
    fn parallel_deletions_match_static_every_step() {
        let inst = gen::random_tree(55, 8);
        let wb = WorkloadBuilder::new(inst.clone());
        let mut d = DynSld::from_forest(inst.build_forest(), DynSldOptions::default());
        for up in wb.deletion_stream(21) {
            let Update::Delete { u, v } = up else {
                unreachable!()
            };
            d.delete_parallel(u, v).unwrap();
            assert_matches_static(&d);
        }
    }

    #[test]
    fn parallel_churn_matches_sequential_and_static() {
        let inst = gen::random_tree(48, 14);
        let wb = WorkloadBuilder::new(inst.clone());
        let stream = wb.churn_stream(240, 7);
        let mut par = DynSld::from_forest(
            inst.build_forest(),
            DynSldOptions::with_strategy(UpdateStrategy::Parallel),
        );
        let mut seq = DynSld::from_forest(inst.build_forest(), DynSldOptions::default());
        for up in stream {
            match up {
                Update::Insert { u, v, weight } => {
                    par.insert_parallel(u, v, weight).unwrap();
                    seq.insert_seq(u, v, weight).unwrap();
                }
                Update::Delete { u, v } => {
                    par.delete_parallel(u, v).unwrap();
                    seq.delete_seq(u, v).unwrap();
                }
            }
            assert_eq!(
                par.dendrogram().canonical_parents(),
                seq.dendrogram().canonical_parents()
            );
        }
        assert_matches_static(&par);
    }

    #[test]
    fn parallel_insert_on_long_spines() {
        // Both endpoints sit at the bottom of long spines, forcing a large merge.
        let n = 2_000;
        let left = gen::path(n, WeightOrder::Increasing);
        let mut d = DynSld::new(2 * n);
        for &(a, b, w) in &left.edges {
            d.insert_parallel(a, b, w).unwrap();
        }
        // Second path on vertices n..2n with interleaving weights.
        for i in 0..n - 1 {
            d.insert_parallel(
                VertexId((n + i) as u32),
                VertexId((n + i + 1) as u32),
                i as f64 + 0.5,
            )
            .unwrap();
        }
        // Join the two path ends with a light edge: the spines interleave completely.
        d.insert_parallel(VertexId(0), VertexId(n as u32), 0.25)
            .unwrap();
        assert!(d.stats().last_pointer_changes > n / 2);
        assert_matches_static(&d);
        // And delete it again.
        d.delete_parallel(VertexId(0), VertexId(n as u32)).unwrap();
        assert_matches_static(&d);
    }

    #[test]
    fn strategy_dispatch_uses_parallel_algorithms() {
        let mut d =
            DynSld::with_options(10, DynSldOptions::with_strategy(UpdateStrategy::Parallel));
        d.insert(VertexId(0), VertexId(1), 1.0).unwrap();
        d.insert(VertexId(1), VertexId(2), 2.0).unwrap();
        d.delete(VertexId(0), VertexId(1)).unwrap();
        assert_matches_static(&d);
    }
}
