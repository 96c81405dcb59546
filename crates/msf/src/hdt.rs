//! Holm–de Lichtenberg–Thorup-style level-structured replacement index — the
//! [`ForestBackend::Hdt`](dynsld::ForestBackend::Hdt) backend of
//! [`DynamicGraphClustering`](crate::DynamicGraphClustering).
//!
//! # Structure
//!
//! Every alive graph edge carries a **level** `ℓ(e) ∈ 0..≈log₂ n`. For each level `i` the
//! index keeps a dynamic forest `F_i` holding the tree (MSF) edges of level `≥ i` — so
//! `F_0` mirrors the MSF exactly and higher levels are nested sub-forests — plus per-vertex
//! incidence sets of the edges at *exactly* level `i` (tree and non-tree separately). Each
//! level forest is an [`EulerTourForest`]: the search needs its component sizes, member
//! lists and connectivity tests.
//!
//! Invariants:
//!
//! 1. the component of `F_i` containing any vertex has at most `n / 2^i` vertices (so
//!    levels are bounded by `⌈log₂ n⌉`), and
//! 2. a **non-tree** edge at level `i ≥ 1` has both endpoints in the same component of
//!    `F_i` (level-0 non-tree edges are unconstrained).
//!
//! # Deletion search
//!
//! Deleting a tree edge `e` at level `ℓ` cuts it from `F_0..=F_ℓ` and then walks levels
//! `ℓ` down to `0`. At level `i` the smaller side of the split is identified, its level-`i`
//! tree edges are promoted to `i + 1` (they stay in `F_i` — promotion only adds them to
//! `F_{i+1}`), and its incident level-`i` non-tree edges are examined in increasing
//! [`PairRank`] order: an edge with both endpoints on the smaller side is
//! promoted to `i + 1` (invariant 2 holds because the side's tree edges were promoted
//! first); the first edge crossing the cut is recorded as the best replacement seen so far
//! and ends the level (every remaining candidate at this level is heavier).
//!
//! Unlike textbook HDT — which stops at the first crossing edge and relies on a global
//! weight invariant that a fully-dynamic edge flow (evictions re-entering at level 0)
//! would violate — the walk **continues to level 0**, early-terminating each level at the
//! first candidate that cannot beat the incumbent. This guarantees the replacement is the
//! *globally* minimum-rank crossing edge, i.e. bit-identical to the exhaustive
//! scan backend, while still amortizing candidate examinations over level promotions: a
//! non-crossing candidate is examined once per promotion, and invariant 1 bounds its
//! promotions by `⌈log₂ n⌉`. Continuing past an incumbent needs two deviations from the
//! textbook settle, both handled once the walk ends:
//!
//! - Promotions are *decided* during the walk but *applied* afterwards, and only at
//!   levels at or above the final discovery level `f` (deferral is behavior-neutral for
//!   the search: step `i` only ever writes level `i + 1` state, which the descending walk
//!   never reads again). The discarded ones would have grown exactly the forests the
//!   relink is about to re-join, merging more than the two halves there.
//! - The replacement keeps its discovery level `f` and is linked into `F_0..=F_f`: its
//!   endpoints provably straddle the split at every level `≤ f`, so the relink restores
//!   exactly the pre-deletion components (invariants 1 and 2 for everything skipped at
//!   those levels). Levels in `(f, ℓ]` stay split, and the walk's leftovers there —
//!   superseded incumbents and early-termination suffixes — may cross their level's
//!   split, so they are *demoted* to level `f`, where the relink just reconnected them.
//!   Demotion is the price of the global-minimum guarantee; it only touches candidates
//!   the search already paid to gather.

use crate::{PairRank, WorkCounters};
use dynsld_dyntree::EulerTourForest;
use dynsld_forest::{ordered_pair as pair, EdgeId, VertexId, Weight};
use std::collections::{HashMap, HashSet};

/// Per-edge record: current level, weight, tree membership, and the forest edge handle
/// (shared by every `F_i` the edge is linked into).
#[derive(Clone, Copy, Debug)]
struct EdgeRec {
    level: usize,
    weight: Weight,
    is_tree: bool,
    eid: EdgeId,
}

/// Per-vertex incidence sets of the edges at exactly one level.
type Incidence = HashMap<u32, HashSet<(VertexId, VertexId)>>;

/// The level-structured replacement index; see the module docs.
#[derive(Clone, Debug)]
pub(crate) struct HdtIndex {
    n: usize,
    /// `forests[i]` is `F_i`; allocated lazily as promotions reach new levels.
    forests: Vec<EulerTourForest>,
    /// Non-tree edges at exactly level `i`, per endpoint.
    nontree: Vec<Incidence>,
    /// Tree edges at exactly level `i`, per endpoint.
    tree: Vec<Incidence>,
    edges: HashMap<(VertexId, VertexId), EdgeRec>,
    free_eids: Vec<EdgeId>,
    next_eid: u32,
    counters: WorkCounters,
}

impl HdtIndex {
    pub(crate) fn new(n: usize) -> Self {
        let mut index = HdtIndex {
            n,
            forests: Vec::new(),
            nontree: Vec::new(),
            tree: Vec::new(),
            edges: HashMap::new(),
            free_eids: Vec::new(),
            next_eid: 0,
            counters: WorkCounters::default(),
        };
        index.ensure_level(0);
        index
    }

    pub(crate) fn add_vertices(&mut self, k: usize) {
        self.n += k;
        for forest in &mut self.forests {
            forest.add_vertices(k);
        }
    }

    /// Running work counters (drained by [`crate::DynamicGraphClustering`]).
    pub(crate) fn counters_mut(&mut self) -> &mut WorkCounters {
        &mut self.counters
    }

    /// Running work counters, read-only.
    pub(crate) fn counters(&self) -> &WorkCounters {
        &self.counters
    }

    /// Highest admissible level: component sizes at level `i` are at least `2^i`, so
    /// promotions beyond `⌈log₂ n⌉` are pointless (and would be unbounded growth).
    fn level_cap(&self) -> usize {
        usize::BITS as usize - self.n.max(2).leading_zeros() as usize
    }

    fn ensure_level(&mut self, level: usize) {
        while self.forests.len() <= level {
            let seed = 0x4d7_0000 ^ self.forests.len() as u64;
            self.forests.push(EulerTourForest::with_seed(self.n, seed));
            self.nontree.push(Incidence::new());
            self.tree.push(Incidence::new());
        }
    }

    fn alloc_eid(&mut self) -> EdgeId {
        self.free_eids.pop().unwrap_or_else(|| {
            let id = EdgeId(self.next_eid);
            self.next_eid += 1;
            id
        })
    }

    fn incidence_insert(map: &mut Incidence, key: (VertexId, VertexId)) {
        map.entry(key.0 .0).or_default().insert(key);
        map.entry(key.1 .0).or_default().insert(key);
    }

    fn incidence_remove(map: &mut Incidence, key: (VertexId, VertexId)) {
        for x in [key.0 .0, key.1 .0] {
            if let Some(set) = map.get_mut(&x) {
                set.remove(&key);
                if set.is_empty() {
                    map.remove(&x);
                }
            }
        }
    }

    /// Registers a new non-tree edge (enters at level 0).
    pub(crate) fn add_nontree(&mut self, u: VertexId, v: VertexId, weight: Weight) {
        let key = pair(u, v);
        let eid = self.alloc_eid();
        let prev = self.edges.insert(
            key,
            EdgeRec {
                level: 0,
                weight,
                is_tree: false,
                eid,
            },
        );
        debug_assert!(prev.is_none(), "edge registered twice");
        Self::incidence_insert(&mut self.nontree[0], key);
    }

    /// Unregisters a non-tree edge (graph deletion of a reserve edge).
    pub(crate) fn remove_nontree(&mut self, u: VertexId, v: VertexId) {
        let key = pair(u, v);
        let rec = self.edges.remove(&key).expect("non-tree edge registered");
        debug_assert!(!rec.is_tree);
        Self::incidence_remove(&mut self.nontree[rec.level], key);
        self.free_eids.push(rec.eid);
    }

    /// The weight of the registered non-tree edge `{u, v}`, if there is one.
    pub(crate) fn nontree_weight(&self, u: VertexId, v: VertexId) -> Option<Weight> {
        self.edges
            .get(&pair(u, v))
            .filter(|rec| !rec.is_tree)
            .map(|rec| rec.weight)
    }

    /// Every registered non-tree edge with its weight, in no particular order.
    pub(crate) fn nontree_edges(
        &self,
    ) -> impl Iterator<Item = ((VertexId, VertexId), Weight)> + '_ {
        self.edges
            .iter()
            .filter(|(_, rec)| !rec.is_tree)
            .map(|(&key, rec)| (key, rec.weight))
    }

    /// Registers a new tree edge (enters at level 0, linked into `F_0`).
    pub(crate) fn add_tree(&mut self, u: VertexId, v: VertexId, weight: Weight) {
        let key = pair(u, v);
        let eid = self.alloc_eid();
        let prev = self.edges.insert(
            key,
            EdgeRec {
                level: 0,
                weight,
                is_tree: true,
                eid,
            },
        );
        debug_assert!(prev.is_none(), "edge registered twice");
        self.forests[0].link(key.0, key.1, eid);
        Self::incidence_insert(&mut self.tree[0], key);
    }

    /// Deletes the tree edge `{u, v}` and runs the level-structured replacement search.
    ///
    /// This is also the insertion-eviction mirror: an eviction is replayed as
    /// `add_nontree(new edge)` followed by this search on the evicted edge, which provably
    /// returns the new edge (it is the unique sub-maximal edge on the cycle it closed) and
    /// in doing so repairs every level the eviction split — cutting the evicted edge
    /// without the search would strand higher-level non-tree edges across split
    /// components, violating invariant 2.
    ///
    /// Returns the minimum-[`PairRank`] non-tree edge reconnecting the cut, already
    /// converted to a tree edge inside the index (at the deleted edge's level), or `None`
    /// if the cut has no replacement. See the module docs for the algorithm.
    pub(crate) fn delete_tree_with_search(
        &mut self,
        u: VertexId,
        v: VertexId,
    ) -> Option<(VertexId, VertexId, Weight)> {
        let key = pair(u, v);
        let rec = self.edges.remove(&key).expect("tree edge registered");
        debug_assert!(rec.is_tree);
        for i in 0..=rec.level {
            self.forests[i].cut(rec.eid);
        }
        Self::incidence_remove(&mut self.tree[rec.level], key);
        self.free_eids.push(rec.eid);

        self.counters.replacement_searches += 1;
        let cap = self.level_cap();
        let mut best: Option<PairRank> = None;
        // Discovery level of `best` (only meaningful while `best` is `Some`).
        let mut found = 0usize;
        // Candidates left behind at a level whose split the relink will not re-join; see
        // the demotion pass at the end.
        let mut stranded: Vec<(VertexId, VertexId)> = Vec::new();
        // Promotions *decided* during the walk, applied only once the discovery level is
        // known. Deferral is behavior-neutral for the search itself — promotions at step
        // `i` only ever touch `F_{i+1}` / `nontree[i+1]`, which the descending walk never
        // reads again — but it lets the settle phase discard the promotions decided below
        // the discovery level, whose target levels the relink is about to re-join (an
        // eagerly grown `F_j` there would make the relink merge more than the two halves,
        // breaking invariant 1).
        let mut tree_promos: Vec<(usize, Vec<(VertexId, VertexId)>)> = Vec::new();
        let mut nontree_promos: Vec<(usize, (VertexId, VertexId))> = Vec::new();
        for i in (0..=rec.level).rev() {
            // Smaller side of the level-i split (ties resolved towards `u`, matching the
            // scan backend's choice; the side only affects which candidates are promoted,
            // never which replacement is found).
            let side = if self.forests[i].component_size(u) <= self.forests[i].component_size(v) {
                u
            } else {
                v
            };
            let members = self.forests[i].component_vertices(side);

            // The smaller side's level-i tree edges can rise to i + 1: the side's size is
            // at most half its pre-deletion component's, so invariant 1 survives at i + 1.
            if i < cap {
                let mut rising: Vec<(VertexId, VertexId)> = Vec::new();
                for &m in &members {
                    if let Some(set) = self.tree[i].get(&m.0) {
                        rising.extend(set.iter().copied());
                    }
                }
                rising.sort_unstable();
                rising.dedup();
                if !rising.is_empty() {
                    tree_promos.push((i, rising));
                }
            }

            // Examine the smaller side's level-i non-tree candidates in rank order.
            let mut candidates: Vec<PairRank> = Vec::new();
            for &m in &members {
                if let Some(set) = self.nontree[i].get(&m.0) {
                    for &ckey in set {
                        candidates.push(PairRank(self.edges[&ckey].weight, ckey));
                    }
                }
            }
            candidates.sort_unstable();
            candidates.dedup();
            let mut k = 0;
            while k < candidates.len() {
                let rank = candidates[k];
                let ckey = rank.1;
                if best.is_some_and(|b| rank >= b) {
                    break; // the rest of this level is heavier still
                }
                // Only candidates that reach the crossing test count as scanned — the
                // rank-order early break above is exactly the work the level structure
                // saves over the scan backend's exhaustive incidence sweep.
                self.counters.replacement_edges_scanned += 1;
                let a_in = self.forests[i].connected(ckey.0, side);
                let b_in = self.forests[i].connected(ckey.1, side);
                debug_assert!(a_in || b_in, "candidate gathered from the smaller side");
                if a_in != b_in {
                    // Crossing: new incumbent; later candidates at this level are heavier.
                    // A superseded incumbent stays stranded across its level's split and
                    // must be demoted once the walk settles (see below).
                    if let Some(PairRank(_, old_key)) = best.replace(rank) {
                        stranded.push(old_key);
                    }
                    found = i;
                    k += 1;
                    break;
                }
                // Non-crossing: both endpoints sit on the smaller side, so the edge can
                // rise a level (invariant 2 at i + 1 via the side's rising tree edges).
                if i < cap {
                    nontree_promos.push((i, ckey));
                }
                k += 1;
            }
            // Candidates past the stopping point were neither promoted nor chosen. The
            // ones that cross their level's split would be stranded once the walk moves
            // on (their level is only re-joined if the replacement lands at or above it);
            // remember them all — demotion below is a no-op for the safe ones' levels.
            stranded.extend(candidates[k..].iter().map(|c| c.1));
        }

        // Settle. Apply the promotions decided at levels `>= found` — their target levels
        // stay split, and the promoted side is a fresh component small enough for
        // invariant 1. Promotions decided below the discovery level are discarded: the
        // relink re-joins those levels wholesale, so the candidates there are fine where
        // they are, and growing a to-be-rejoined `F_j` would break invariant 1. With no
        // replacement at all every level stays split and every promotion applies.
        let cutoff = if best.is_some() { found } else { 0 };
        for (i, rising) in tree_promos {
            if i < cutoff {
                continue;
            }
            self.ensure_level(i + 1);
            for tkey in rising {
                let trec = self.edges.get_mut(&tkey).expect("tree edge registered");
                trec.level = i + 1;
                let eid = trec.eid;
                Self::incidence_remove(&mut self.tree[i], tkey);
                Self::incidence_insert(&mut self.tree[i + 1], tkey);
                self.forests[i + 1].link(tkey.0, tkey.1, eid);
            }
        }
        for (i, ckey) in nontree_promos {
            if i < cutoff {
                continue;
            }
            self.ensure_level(i + 1);
            let crec = self.edges.get_mut(&ckey).expect("candidate registered");
            crec.level = i + 1;
            Self::incidence_remove(&mut self.nontree[i], ckey);
            Self::incidence_insert(&mut self.nontree[i + 1], ckey);
            self.counters.level_promotions += 1;
        }

        // Promote the replacement to a tree edge at its *discovery* level: both its
        // endpoints provably lie in the two halves of every level-`i <= found` split, so
        // linking it into `F_0..=F_found` re-joins exactly those halves — restoring the
        // pre-deletion components (invariant 1) and reconnecting every candidate skipped
        // at levels `<= found` (invariant 2). Linking any higher — e.g. at the deleted
        // edge's level — would merge the *wrong* components at levels above the discovery
        // level, where the replacement's endpoints need not straddle the split.
        let PairRank(w, rkey) = best?;
        let rrec = self.edges.get_mut(&rkey).expect("replacement registered");
        debug_assert_eq!(rrec.level, found);
        rrec.is_tree = true;
        let eid = rrec.eid;
        Self::incidence_remove(&mut self.nontree[found], rkey);
        Self::incidence_insert(&mut self.tree[found], rkey);
        for i in 0..=found {
            self.forests[i].link(rkey.0, rkey.1, eid);
        }
        // Levels above the discovery level stay split; stranded candidates there (the
        // superseded incumbents and the skipped suffixes) may cross their split, so they
        // are demoted to the discovery level. That is the highest sound level: a level-`j`
        // candidate had both endpoints in the level-`j` component pre-deletion, which is a
        // subset of the level-`found` component the relink just restored.
        for ckey in stranded {
            let crec = self
                .edges
                .get_mut(&ckey)
                .expect("stranded candidate registered");
            debug_assert!(!crec.is_tree);
            if crec.level > found {
                let from = crec.level;
                crec.level = found;
                Self::incidence_remove(&mut self.nontree[from], ckey);
                Self::incidence_insert(&mut self.nontree[found], ckey);
            }
        }
        Some((rkey.0, rkey.1, w))
    }

    /// Validates the structural invariants (test support): `F_0` matches the given tree
    /// edge set, every edge is registered at exactly one level's incidence sets, tree
    /// edges of level `ℓ` are connected in every `F_i` with `i <= ℓ`, and non-tree edges
    /// of level `ℓ >= 1` have `F_ℓ`-connected endpoints.
    #[cfg(test)]
    pub(crate) fn check_invariants(&mut self, tree_edges: &[(VertexId, VertexId)]) {
        let mut expected: Vec<_> = tree_edges.iter().map(|&(a, b)| pair(a, b)).collect();
        expected.sort_unstable();
        let mut actual: Vec<_> = self
            .edges
            .iter()
            .filter(|(_, r)| r.is_tree)
            .map(|(&k, _)| k)
            .collect();
        actual.sort_unstable();
        assert_eq!(actual, expected, "tree edge set mismatch");
        let recs: Vec<((VertexId, VertexId), EdgeRec)> =
            self.edges.iter().map(|(&k, &r)| (k, r)).collect();
        for (key, rec) in recs {
            let set = if rec.is_tree {
                &self.tree[rec.level]
            } else {
                &self.nontree[rec.level]
            };
            assert!(
                set.get(&key.0 .0).is_some_and(|s| s.contains(&key))
                    && set.get(&key.1 .0).is_some_and(|s| s.contains(&key)),
                "incidence sets out of sync for {key:?}"
            );
            if rec.is_tree {
                for i in 0..=rec.level {
                    assert!(
                        self.forests[i].connected(key.0, key.1),
                        "tree edge {key:?} missing from F_{i}"
                    );
                }
                // Invariant 1: the F_i component of a level->=i tree edge holds at most
                // n / 2^i vertices.
                for i in 1..=rec.level {
                    assert!(
                        self.forests[i].component_size(key.0) <= self.n >> i,
                        "level-{i} component exceeds n / 2^{i}"
                    );
                }
            } else if rec.level >= 1 {
                assert!(
                    self.forests[rec.level].connected(key.0, key.1),
                    "non-tree edge {key:?} violates the level invariant"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DynamicGraphClustering, MsfChange, ReplacementIndex};
    use dynsld::{DynSldOptions, ForestBackend};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    fn hdt_graph(n: usize) -> DynamicGraphClustering {
        DynamicGraphClustering::with_options(
            n,
            DynSldOptions {
                msf_backend: ForestBackend::Hdt,
                ..Default::default()
            },
        )
    }

    fn check(g: &mut DynamicGraphClustering) {
        let tree: Vec<(VertexId, VertexId)> = g
            .graph_edges()
            .into_iter()
            .filter(|&(_, _, _, t)| t)
            .map(|(a, b, _, _)| (a, b))
            .collect();
        let ReplacementIndex::Hdt(ix) = &mut g.index else {
            panic!("hdt backend expected");
        };
        ix.check_invariants(&tree);
    }

    #[test]
    fn randomized_churn_maintains_level_invariants() {
        let n = 24usize;
        let mut rng = SmallRng::seed_from_u64(0xC0FFEE);
        let mut g = hdt_graph(n);
        let mut alive: Vec<(VertexId, VertexId)> = Vec::new();
        for step in 0..500 {
            if alive.is_empty() || rng.gen_bool(0.55) {
                let a = v(rng.gen_range(0..n as u32));
                let b = v(rng.gen_range(0..n as u32));
                if a == b || alive.contains(&pair(a, b)) {
                    continue;
                }
                // Coarse weights force evictions and tie-breaks through the eviction replay.
                let w = rng.gen_range(0..10) as f64;
                g.insert_edge(a, b, w).unwrap();
                alive.push(pair(a, b));
            } else {
                let (a, b) = alive.swap_remove(rng.gen_range(0..alive.len()));
                g.delete_edge(a, b).unwrap();
            }
            if step % 7 == 0 {
                check(&mut g);
            }
        }
        check(&mut g);
        let counters = g.work_counters();
        assert!(counters.replacement_searches > 0);
        assert!(counters.replacement_edges_scanned > 0);
    }

    #[test]
    fn deletion_search_promotes_non_crossing_candidates() {
        // Two path halves joined by a bridge; the left half carries two internal reserve
        // edges cheaper than the only crossing reserve edge. Deleting the bridge must walk
        // past (and promote) the internal candidates before settling on the crossing one.
        let mut g = hdt_graph(8);
        for (a, b, w) in [
            (0, 1, 1.0),
            (1, 2, 2.0),
            (2, 3, 3.0),
            (4, 5, 4.0),
            (5, 6, 5.0),
            (6, 7, 6.0),
            (3, 4, 10.0), // bridge
        ] {
            g.insert_edge(v(a), v(b), w).unwrap();
        }
        g.insert_edge(v(0), v(2), 7.0).unwrap(); // internal to the left half
        g.insert_edge(v(1), v(3), 8.0).unwrap(); // internal to the left half
        g.insert_edge(v(0), v(7), 20.0).unwrap(); // the only crossing reserve edge
        g.take_work_counters();
        assert_eq!(
            g.delete_edge(v(3), v(4)).unwrap(),
            MsfChange::RemovedWithReplacement {
                promoted: (v(0), v(7))
            }
        );
        let counters = g.take_work_counters();
        assert_eq!(counters.replacement_searches, 1);
        assert_eq!(
            counters.level_promotions, 2,
            "both internal candidates rise a level"
        );
        check(&mut g);
        // The promoted candidates are now stored at level 1; a repeat deletion of the same
        // cut (the promoted crossing edge) must not re-examine them at level 0.
        assert_eq!(
            g.delete_edge(v(0), v(7)).unwrap(),
            MsfChange::RemovedAndSplit
        );
        check(&mut g);
    }

    #[test]
    fn batch_deletes_keep_the_level_structure_consistent() {
        let n = 16usize;
        let mut g = hdt_graph(n);
        let mut edges = Vec::new();
        // Dense-ish ring-with-chords graph: plenty of reserve edges to promote.
        for i in 0..n as u32 {
            edges.push((v(i), v((i + 1) % n as u32), i as f64 + 1.0));
        }
        for i in 0..n as u32 / 2 {
            edges.push((v(i), v(i + n as u32 / 2), 50.0 + i as f64));
        }
        g.batch_insert_edges(&edges).unwrap();
        check(&mut g);
        // Delete a mixed batch: some tree edges, some reserve edges.
        let batch: Vec<(VertexId, VertexId)> =
            edges.iter().step_by(3).map(|&(a, b, _)| (a, b)).collect();
        g.batch_delete_edges(&batch).unwrap();
        check(&mut g);
    }

    /// Regression: generated insert/delete/reweight churn with per-op invariant checks.
    /// This is the workload shape that exposed two settle-phase bugs in the continuing
    /// walk — relinking the replacement at the deleted edge's level instead of its
    /// discovery level, and applying promotions decided below the discovery level — both
    /// of which corrupt the level structure only after long streams (the damage surfaces
    /// dozens of operations later as an oversized component or a phantom "crossing" edge
    /// that makes a level forest link cycle).
    #[test]
    fn generated_churn_with_reweights_keeps_every_level_invariant() {
        use dynsld_forest::workload::{GraphUpdate, GraphWorkloadBuilder};
        for seed in 0..6u64 {
            for n in [4usize, 10, 34] {
                let stream =
                    GraphWorkloadBuilder::new(n)
                        .weight_scale(4.0)
                        .churn_stream(2 * n, 300, seed);
                let mut g = hdt_graph(n);
                for (i, &update) in stream.iter().enumerate() {
                    let result = match update {
                        GraphUpdate::Insert { u, v, weight } => g.insert_edge(u, v, weight),
                        GraphUpdate::Delete { u, v } => g.delete_edge(u, v),
                        GraphUpdate::Reweight { u, v, weight } => g.update_weight(u, v, weight),
                    };
                    result.unwrap_or_else(|e| {
                        panic!("seed={seed} n={n} op#{i} {update:?} rejected: {e:?}")
                    });
                    check(&mut g);
                }
            }
        }
    }
}
