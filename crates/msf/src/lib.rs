//! # dynsld-msf — fully-dynamic single-linkage clustering of a dynamic *graph*
//!
//! The paper's DynSLD algorithms take a dynamic **forest** (the minimum spanning forest of the
//! data) as input (Problem 1). To solve the *fully-dynamic single-linkage clustering problem*
//! (Problem 2 — the input is a dynamic weighted **graph**), they are combined with a dynamic
//! minimum-spanning-forest algorithm (Section 2.2, Section 7): every change to the MSF is fed
//! into DynSLD, so the explicit dendrogram of the current graph is always available.
//!
//! [`DynamicGraphClustering`] implements that end-to-end pipeline:
//!
//! * **Edge insertion**: if the endpoints are in different trees the edge joins the MSF;
//!   otherwise the maximum-weight edge on the tree path between the endpoints is located with a
//!   path-maximum query (`O(log n)`), and if it is heavier than the new edge the two swap roles.
//! * **Edge deletion**: a non-tree edge is simply discarded; deleting a tree edge splits a tree
//!   and the cheapest non-tree edge reconnecting the two sides (if any) is promoted into the
//!   MSF.
//!
//! # Forest backends
//!
//! How the replacement edge is *found* is a policy, selected by
//! [`DynSldOptions::msf_backend`](dynsld::DynSldOptions) (a [`ForestBackend`], defaulting to
//! [`ForestBackend::Scan`]):
//!
//! * [`ForestBackend::Scan`] scans the non-tree edges incident to the smaller side of the
//!   cut: `O(min-side size + min-side non-tree degree)` per tree-edge deletion — the side is
//!   enumerated once and marked, so each crossing test is two table reads (README.md,
//!   "Deviations from the paper", substitution 5 — the paper points to Holm–de
//!   Lichtenberg–Thorup \[33\] or the batch-parallel MSF of Tseng et al. \[48\] for this
//!   component).
//! * [`ForestBackend::Hdt`] keeps an HDT-style level structure (see the `hdt` module):
//!   edges carry levels, replacement search amortizes candidate examinations over level
//!   promotions, and only the candidates stored at the levels a cut touches are examined.
//!
//! Both backends are exact and **bit-identical**: same [`MsfChange`] sequences, same
//! dendrograms, same clusterings (pinned by the `msf_backends` proptest suite). They differ
//! only in the work the replacement search performs, observable through
//! [`DynamicGraphClustering::work_counters`].

#![warn(missing_docs)]

use dynsld::{DynSld, DynSldError, DynSldOptions};
use dynsld_dyntree::RoundTable;
use dynsld_forest::{VertexId, Weight};
use std::collections::{HashMap, HashSet};

mod batch;
mod hdt;

pub use batch::BatchOutcome;
pub use dynsld::ForestBackend;

use hdt::HdtIndex;

/// Normalised vertex pair used as the identity of a graph edge.
pub(crate) use dynsld_forest::ordered_pair as pair;

/// How an update changed the minimum spanning forest (and hence the dendrogram).
#[derive(Clone, Debug, PartialEq)]
pub enum MsfChange {
    /// The inserted edge joined two trees and entered the MSF.
    Inserted,
    /// The inserted edge replaced a heavier tree edge on the cycle it closed.
    Replaced {
        /// The tree edge that was evicted from the MSF (by its endpoints).
        evicted: (VertexId, VertexId),
    },
    /// The inserted edge closed a cycle but was not cheaper than any cycle edge; it was stored
    /// as a non-tree edge.
    StoredNonTree,
    /// The deleted edge was a non-tree edge; the MSF is unchanged.
    RemovedNonTree,
    /// The deleted tree edge was replaced by the cheapest non-tree edge across the cut.
    RemovedWithReplacement {
        /// The non-tree edge that was promoted into the MSF (by its endpoints).
        promoted: (VertexId, VertexId),
    },
    /// The deleted tree edge had no replacement; the tree split in two.
    RemovedAndSplit,
}

/// Replacement-search work counters, accumulated across updates and drained with
/// [`DynamicGraphClustering::take_work_counters`]. These are *work* measures, not result
/// measures — both backends produce identical results while reporting very different
/// counter values, which is exactly what the backend head-to-head benchmarks compare.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct WorkCounters {
    /// Replacement candidates subjected to the cut-crossing connectivity test — the
    /// expensive step of a search on either backend (the scan backend tests every
    /// reserve entry incident to the smaller side; the HDT backend tests candidates in
    /// rank order and stops a level at the first one that cannot beat the incumbent).
    pub replacement_edges_scanned: u64,
    /// Non-tree edges moved one level up by the HDT backend (always 0 on the scan backend).
    pub level_promotions: u64,
    /// Replacement searches run (one per tree-edge deletion, plus one per
    /// insertion-eviction on the HDT backend, which replays evictions through the search).
    pub replacement_searches: u64,
    /// Candidates the Kruskal pass of a deletion batch sorted: on the scan backend the
    /// lightest reserve edge per pair of pieces a cut left (at most `k(k-1)/2` for `k`
    /// pieces), on the HDT backend one per successful search. Per-edge deletions add none.
    pub replacement_candidates: u64,
}

impl WorkCounters {
    /// Adds `other` into `self` field-wise.
    pub fn merge(&mut self, other: &WorkCounters) {
        self.replacement_edges_scanned += other.replacement_edges_scanned;
        self.level_promotions += other.level_promotions;
        self.replacement_searches += other.replacement_searches;
        self.replacement_candidates += other.replacement_candidates;
    }
}

/// The replacement-search index behind [`DynamicGraphClustering`]: one variant per
/// [`ForestBackend`].
#[derive(Clone, Debug)]
pub(crate) enum ReplacementIndex {
    /// Non-tree edges indexed per vertex (both endpoints); search scans the smaller side.
    Scan {
        /// `reserve[v]` holds the non-tree edges incident to `v`.
        reserve: Vec<HashSet<(VertexId, VertexId)>>,
    },
    /// HDT-style level structure (see the `hdt` module).
    Hdt(HdtIndex),
}

/// End-to-end fully-dynamic single-linkage clustering of a weighted graph: a dynamic MSF front
/// end feeding the DynSLD dendrogram maintenance algorithms.
#[derive(Clone, Debug)]
pub struct DynamicGraphClustering {
    pub(crate) sld: DynSld,
    /// All alive graph edges by endpoint pair: `true` if currently a tree (MSF) edge.
    pub(crate) membership: HashMap<(VertexId, VertexId), bool>,
    /// Weights of all alive graph edges.
    pub(crate) weights: HashMap<(VertexId, VertexId), Weight>,
    /// Backend-specific replacement-edge index.
    pub(crate) index: ReplacementIndex,
    /// Scan-backend work counters and the batch path's candidate count (the HDT index keeps
    /// its own; both are drained together).
    pub(crate) counters: WorkCounters,
    /// Scan-backend scratch: which piece of the current replacement search each vertex was
    /// enumerated into.
    pub(crate) pieces: PieceMarks,
}

/// The pieces a replacement search of the scan backend has enumerated: vertex -> piece id, for
/// one search (8 bytes per vertex, reused). A search enumerates the small sides of its cuts
/// anyway, so "does this reserve edge cross the cut?" is a lookup of its two endpoints here
/// rather than a connectivity query against the Euler-tour forest. The member lists and the
/// per-piece table of the batch search live here too, so no search allocates once they have
/// grown to the largest batch seen.
#[derive(Clone, Debug, Default)]
pub(crate) struct PieceMarks {
    piece_of: RoundTable,
    /// The vertices enumerated in this search, piece after piece.
    pub(crate) members: Vec<VertexId>,
    /// Batch search: the lightest reserve edge from the piece being scanned to each other
    /// piece, indexed by piece id; `None` outside the slots listed in `touched`.
    pub(crate) best: Vec<Option<(Weight, (VertexId, VertexId))>>,
    /// The slots of `best` written while scanning the current piece.
    pub(crate) touched: Vec<u32>,
}

impl PieceMarks {
    /// Starts a search over pieces with ids `< pieces`: forgets every mark and member.
    pub(crate) fn begin_search(&mut self, sld: &DynSld, pieces: usize) {
        self.piece_of.begin_round(sld.num_vertices());
        self.members.clear();
        if self.best.len() < pieces {
            self.best.resize(pieces, None);
        }
    }

    /// Marks the vertices of the MSF component of `sld` containing `v` as piece `piece` and
    /// appends them to [`members`](Self::members). The component must not have been
    /// enumerated in this search.
    pub(crate) fn enumerate(&mut self, sld: &DynSld, v: VertexId, piece: u32) {
        // Breadth-first through the forest adjacency (the component is a tree), using the
        // member list as the queue.
        let start = self.members.len();
        self.piece_of.set(v.index(), piece);
        self.members.push(v);
        let mut next = start;
        while let Some(&x) = self.members.get(next) {
            next += 1;
            for (y, _) in sld.forest().neighbors(x) {
                if self.piece_of.get(y.index()).is_none() {
                    self.piece_of.set(y.index(), piece);
                    self.members.push(y);
                }
            }
        }
    }

    /// The piece `v` was enumerated into, or `None` if its component has not been enumerated
    /// in this search.
    #[inline]
    pub(crate) fn piece(&self, v: VertexId) -> Option<u32> {
        self.piece_of.get(v.index())
    }
}

/// Deterministic replacement-edge order: strictly cheaper wins, ties break on the
/// normalised endpoint pair. The reserve sets are hash sets with nondeterministic
/// iteration order, so without the tie-break the promoted edge among equal-weight
/// candidates would vary from run to run — this keeps engine-level tests and benchmark
/// traces reproducible, and gives both forest backends one total order to agree on.
pub(crate) fn replacement_beats(
    best: Option<&(Weight, (VertexId, VertexId))>,
    w: Weight,
    key: (VertexId, VertexId),
) -> bool {
    match best {
        None => true,
        Some(&(bw, bkey)) => match w.total_cmp(&bw) {
            std::cmp::Ordering::Less => true,
            std::cmp::Ordering::Equal => key < bkey,
            std::cmp::Ordering::Greater => false,
        },
    }
}

impl DynamicGraphClustering {
    /// Creates an empty graph on `n` vertices with default DynSLD options (so the
    /// [`ForestBackend::Scan`] backend).
    pub fn new(n: usize) -> Self {
        Self::with_options(n, DynSldOptions::default())
    }

    /// Creates an empty graph on `n` vertices with the given DynSLD options.
    /// `options.msf_backend` selects the replacement-search backend.
    pub fn with_options(n: usize, options: DynSldOptions) -> Self {
        let index = match options.msf_backend {
            ForestBackend::Scan => ReplacementIndex::Scan {
                reserve: vec![HashSet::new(); n],
            },
            ForestBackend::Hdt => ReplacementIndex::Hdt(HdtIndex::new(n)),
        };
        DynamicGraphClustering {
            sld: DynSld::with_options(n, options),
            membership: HashMap::new(),
            weights: HashMap::new(),
            index,
            counters: WorkCounters::default(),
            pieces: PieceMarks::default(),
        }
    }

    /// The forest backend this instance was constructed with.
    pub fn backend(&self) -> ForestBackend {
        match self.index {
            ReplacementIndex::Scan { .. } => ForestBackend::Scan,
            ReplacementIndex::Hdt(_) => ForestBackend::Hdt,
        }
    }

    /// Cumulative replacement-search work counters since the last
    /// [`take_work_counters`](Self::take_work_counters) (or construction).
    pub fn work_counters(&self) -> WorkCounters {
        let mut c = self.counters;
        if let ReplacementIndex::Hdt(ix) = &self.index {
            c.merge(ix.counters());
        }
        c
    }

    /// Drains and returns the replacement-search work counters (the engine calls this once
    /// per flush to attribute work to served metrics).
    pub fn take_work_counters(&mut self) -> WorkCounters {
        let mut c = std::mem::take(&mut self.counters);
        if let ReplacementIndex::Hdt(ix) = &mut self.index {
            c.merge(&std::mem::take(ix.counters_mut()));
        }
        c
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.sld.num_vertices()
    }

    /// Number of alive graph edges (tree and non-tree).
    pub fn num_graph_edges(&self) -> usize {
        self.membership.len()
    }

    /// Number of MSF (tree) edges.
    pub fn num_tree_edges(&self) -> usize {
        self.sld.num_edges()
    }

    /// The underlying DynSLD structure (dendrogram, forest, queries).
    pub fn sld(&self) -> &DynSld {
        &self.sld
    }

    /// Mutable access to the underlying DynSLD structure, e.g. for running queries that need
    /// `&mut` (threshold, cluster size, ...).
    pub fn sld_mut(&mut self) -> &mut DynSld {
        &mut self.sld
    }

    /// Exports a dendrogram snapshot of the MSF, reusing the previous export where possible
    /// (see [`DynSld::export_snapshot_incremental`]) — the hot republish path of the serving
    /// layers. Bit-identical to `self.sld().export_snapshot()`.
    pub fn export_snapshot_incremental(&mut self) -> dynsld::DendrogramSnapshot {
        self.sld.export_snapshot_incremental()
    }

    /// Returns the weight of the graph edge `{u, v}` if it is alive.
    pub fn edge_weight(&self, u: VertexId, v: VertexId) -> Option<Weight> {
        self.weights.get(&pair(u, v)).copied()
    }

    /// Returns true if `{u, v}` is currently an MSF edge.
    pub fn is_tree_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.membership.get(&pair(u, v)).copied().unwrap_or(false)
    }

    /// Adds `k` isolated vertices and returns the first new id.
    pub fn add_vertices(&mut self, k: usize) -> VertexId {
        let first = self.sld.add_vertices(k);
        match &mut self.index {
            ReplacementIndex::Scan { reserve } => {
                reserve.resize_with(self.sld.num_vertices(), HashSet::new);
            }
            ReplacementIndex::Hdt(ix) => ix.add_vertices(k),
        }
        first
    }

    /// Registers a new non-tree edge with the backend index (reserve bookkeeping only; the
    /// caller maintains `membership`/`weights`).
    pub(crate) fn index_add_nontree(&mut self, u: VertexId, v: VertexId, weight: Weight) {
        match &mut self.index {
            ReplacementIndex::Scan { reserve } => {
                let key = pair(u, v);
                reserve[u.index()].insert(key);
                reserve[v.index()].insert(key);
            }
            ReplacementIndex::Hdt(ix) => ix.add_nontree(u, v, weight),
        }
    }

    /// Unregisters a non-tree edge from the backend index.
    pub(crate) fn index_remove_nontree(&mut self, u: VertexId, v: VertexId) {
        match &mut self.index {
            ReplacementIndex::Scan { reserve } => {
                let key = pair(u, v);
                reserve[u.index()].remove(&key);
                reserve[v.index()].remove(&key);
            }
            ReplacementIndex::Hdt(ix) => ix.remove_nontree(u, v),
        }
    }

    /// Registers a new tree edge with the backend index (no-op for the scan backend, which
    /// only tracks non-tree edges).
    pub(crate) fn index_add_tree(&mut self, u: VertexId, v: VertexId, weight: Weight) {
        if let ReplacementIndex::Hdt(ix) = &mut self.index {
            ix.add_tree(u, v, weight);
        }
        let _ = weight;
    }

    /// Inserts the graph edge `{u, v}` with the given weight and updates the MSF and dendrogram.
    ///
    /// Returns how the MSF changed. Errors if the edge already exists or the endpoints are
    /// invalid.
    pub fn insert_edge(
        &mut self,
        u: VertexId,
        v: VertexId,
        weight: Weight,
    ) -> Result<MsfChange, DynSldError> {
        if u == v {
            return Err(DynSldError::SelfLoop(u));
        }
        for x in [u, v] {
            if x.index() >= self.num_vertices() {
                return Err(DynSldError::VertexOutOfRange(x));
            }
        }
        let key = pair(u, v);
        if self.membership.contains_key(&key) {
            // Parallel edges are not supported.
            return Err(DynSldError::EdgeAlreadyExists(u, v));
        }
        if !self.sld.connected(u, v) {
            self.sld.insert(u, v, weight)?;
            self.membership.insert(key, true);
            self.weights.insert(key, weight);
            self.index_add_tree(u, v, weight);
            return Ok(MsfChange::Inserted);
        }
        // The edge closes a cycle: compare against the heaviest tree edge on the path.
        let heaviest = self
            .sld
            .path_max_edge(u, v)
            .expect("connected endpoints have a tree path");
        let heaviest_weight = self.sld.forest().weight(heaviest);
        let (hu, hv) = self.sld.forest().endpoints(heaviest);
        // Strict improvement required: an equal weight keeps the incumbent tree edge. Which of
        // two equal-weight edges ends up in the MSF therefore depends on update order, not on
        // a fixed total order (see ROADMAP, "One total order").
        if weight < heaviest_weight {
            self.sld.delete(hu, hv)?;
            self.membership.insert(pair(hu, hv), false);
            self.sld.insert(u, v, weight)?;
            self.membership.insert(key, true);
            self.weights.insert(key, weight);
            match &mut self.index {
                ReplacementIndex::Scan { reserve } => {
                    let hkey = pair(hu, hv);
                    reserve[hu.index()].insert(hkey);
                    reserve[hv.index()].insert(hkey);
                }
                ReplacementIndex::Hdt(ix) => {
                    // Replay the eviction through the level-structured search: the new
                    // edge is provably the unique replacement for the evicted edge's cut
                    // (exchange property), and routing it through the search keeps every
                    // level forest consistent (see the hdt module docs).
                    ix.add_nontree(u, v, weight);
                    let promoted = ix.delete_tree_with_search(hu, hv);
                    debug_assert_eq!(
                        promoted.map(|(a, b, _)| (a, b)),
                        Some(key),
                        "the cycle-closing edge is the unique replacement for its eviction"
                    );
                    ix.add_nontree(hu, hv, heaviest_weight);
                }
            }
            Ok(MsfChange::Replaced { evicted: (hu, hv) })
        } else {
            self.membership.insert(key, false);
            self.weights.insert(key, weight);
            self.index_add_nontree(u, v, weight);
            Ok(MsfChange::StoredNonTree)
        }
    }

    /// Deletes the graph edge `{u, v}` and updates the MSF and dendrogram.
    pub fn delete_edge(&mut self, u: VertexId, v: VertexId) -> Result<MsfChange, DynSldError> {
        let key = pair(u, v);
        let Some(&is_tree) = self.membership.get(&key) else {
            return Err(DynSldError::EdgeNotFound(u, v));
        };
        self.membership.remove(&key);
        self.weights.remove(&key);
        if !is_tree {
            self.index_remove_nontree(u, v);
            return Ok(MsfChange::RemovedNonTree);
        }
        self.sld.delete(u, v)?;
        // Find the cheapest reserve edge reconnecting the two sides; how depends on the
        // backend, but the answer — the minimum-(weight, pair) crossing edge — does not.
        let best = match &mut self.index {
            ReplacementIndex::Scan { reserve } => {
                self.counters.replacement_searches += 1;
                // Scan the non-tree edges incident to the smaller side of the cut.
                let small = if self.sld.component_size(u) <= self.sld.component_size(v) {
                    u
                } else {
                    v
                };
                let mut best: Option<(Weight, (VertexId, VertexId))> = None;
                self.pieces.begin_search(&self.sld, 0);
                self.pieces.enumerate(&self.sld, small, 0);
                for &member in &self.pieces.members {
                    for &key in &reserve[member.index()] {
                        self.counters.replacement_edges_scanned += 1;
                        // The edge reconnects the cut iff exactly one endpoint lies on the
                        // small side; only then is its weight looked up.
                        if self.pieces.piece(key.0) == self.pieces.piece(key.1) {
                            continue;
                        }
                        let w = self.weights[&key];
                        if replacement_beats(best.as_ref(), w, key) {
                            best = Some((w, key));
                        }
                    }
                }
                best.map(|(w, (a, b))| (a, b, w))
            }
            ReplacementIndex::Hdt(ix) => ix.delete_tree_with_search(u, v),
        };
        match best {
            Some((a, b, w)) => {
                if let ReplacementIndex::Scan { reserve } = &mut self.index {
                    let rkey = pair(a, b);
                    reserve[a.index()].remove(&rkey);
                    reserve[b.index()].remove(&rkey);
                }
                self.sld.insert(a, b, w)?;
                self.membership.insert(pair(a, b), true);
                Ok(MsfChange::RemovedWithReplacement { promoted: (a, b) })
            }
            None => Ok(MsfChange::RemovedAndSplit),
        }
    }

    /// Changes the weight of an existing edge (delete + re-insert).
    pub fn update_weight(
        &mut self,
        u: VertexId,
        v: VertexId,
        weight: Weight,
    ) -> Result<MsfChange, DynSldError> {
        self.delete_edge(u, v)?;
        self.insert_edge(u, v, weight)
    }

    /// All alive graph edges as `(u, v, weight, is_tree)`.
    pub fn graph_edges(&self) -> Vec<(VertexId, VertexId, Weight, bool)> {
        self.membership
            .iter()
            .map(|(&(u, v), &tree)| (u, v, self.weights[&(u, v)], tree))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynsld::static_sld_kruskal;
    use dynsld_forest::Dsu;
    use rand::rngs::SmallRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    fn backend_options(backend: ForestBackend) -> DynSldOptions {
        DynSldOptions {
            msf_backend: backend,
            ..Default::default()
        }
    }

    /// Kruskal MSF over an explicit edge list — the oracle.
    fn msf_oracle(n: usize, edges: &[(VertexId, VertexId, Weight)]) -> Vec<(VertexId, VertexId)> {
        let mut order: Vec<usize> = (0..edges.len()).collect();
        order.sort_by(|&a, &b| edges[a].2.partial_cmp(&edges[b].2).unwrap());
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

    fn assert_msf_matches(g: &DynamicGraphClustering, alive: &[(VertexId, VertexId, Weight)]) {
        let mut tree: Vec<(VertexId, VertexId)> = g
            .graph_edges()
            .into_iter()
            .filter(|&(_, _, _, t)| t)
            .map(|(a, b, _, _)| pair(a, b))
            .collect();
        tree.sort();
        assert_eq!(
            tree,
            msf_oracle(g.num_vertices(), alive),
            "MSF edge set diverged"
        );
        // The dendrogram must equal static recomputation on the maintained forest.
        assert_eq!(
            g.sld().dendrogram().canonical_parents(),
            static_sld_kruskal(g.sld().forest()).canonical_parents(),
            "dendrogram diverged"
        );
        g.sld().check_invariants().expect("invariants");
    }

    #[test]
    fn insert_builds_msf_with_replacements() {
        let mut g = DynamicGraphClustering::new(4);
        assert_eq!(g.insert_edge(v(0), v(1), 5.0).unwrap(), MsfChange::Inserted);
        assert_eq!(g.insert_edge(v(1), v(2), 3.0).unwrap(), MsfChange::Inserted);
        // 0-2 with weight 1 closes a cycle and evicts the heaviest cycle edge (0-1, weight 5).
        assert_eq!(
            g.insert_edge(v(0), v(2), 1.0).unwrap(),
            MsfChange::Replaced {
                evicted: (v(0), v(1))
            }
        );
        assert!(!g.is_tree_edge(v(0), v(1)));
        assert!(g.is_tree_edge(v(0), v(2)));
        // A heavy edge on a cycle stays non-tree.
        assert_eq!(
            g.insert_edge(v(1), v(0), 100.0),
            Err(DynSldError::EdgeAlreadyExists(v(1), v(0)))
        );
        assert_eq!(g.insert_edge(v(2), v(3), 2.0).unwrap(), MsfChange::Inserted);
        assert_eq!(
            g.insert_edge(v(1), v(3), 50.0).unwrap(),
            MsfChange::StoredNonTree
        );
        assert_eq!(g.num_graph_edges(), 5);
        assert_eq!(g.num_tree_edges(), 3);
    }

    #[test]
    fn delete_promotes_replacement_edges() {
        let mut g = DynamicGraphClustering::new(4);
        g.insert_edge(v(0), v(1), 1.0).unwrap();
        g.insert_edge(v(1), v(2), 2.0).unwrap();
        g.insert_edge(v(2), v(3), 3.0).unwrap();
        g.insert_edge(v(0), v(3), 10.0).unwrap(); // non-tree reserve
        assert_eq!(
            g.delete_edge(v(1), v(2)).unwrap(),
            MsfChange::RemovedWithReplacement {
                promoted: (v(0), v(3))
            }
        );
        assert!(g.is_tree_edge(v(0), v(3)));
        // Deleting a non-tree edge leaves the MSF untouched.
        g.insert_edge(v(1), v(2), 20.0).unwrap();
        assert_eq!(
            g.delete_edge(v(1), v(2)).unwrap(),
            MsfChange::RemovedNonTree
        );
        // Deleting with no replacement splits the graph.
        assert_eq!(
            g.delete_edge(v(0), v(1)).unwrap(),
            MsfChange::RemovedAndSplit
        );
        assert!(!g.sld().connected(v(0), v(1)));
    }

    #[test]
    fn errors_are_reported() {
        let mut g = DynamicGraphClustering::new(3);
        assert_eq!(
            g.insert_edge(v(0), v(0), 1.0),
            Err(DynSldError::SelfLoop(v(0)))
        );
        assert_eq!(
            g.insert_edge(v(0), v(5), 1.0),
            Err(DynSldError::VertexOutOfRange(v(5)))
        );
        assert_eq!(
            g.delete_edge(v(0), v(1)),
            Err(DynSldError::EdgeNotFound(v(0), v(1)))
        );
    }

    #[test]
    fn randomized_graph_churn_matches_kruskal_oracle() {
        for backend in [ForestBackend::Scan, ForestBackend::Hdt] {
            let n = 40usize;
            let mut rng = SmallRng::seed_from_u64(42);
            // Candidate edge set: a few hundred random pairs with distinct weights.
            let mut candidates: Vec<(VertexId, VertexId, Weight)> = Vec::new();
            let mut used = HashSet::new();
            while candidates.len() < 250 {
                let a = rng.gen_range(0..n as u32);
                let b = rng.gen_range(0..n as u32);
                if a == b || !used.insert(pair(v(a), v(b))) {
                    continue;
                }
                candidates.push((v(a), v(b), candidates.len() as f64 + rng.gen::<f64>()));
            }
            candidates.shuffle(&mut rng);

            let mut g = DynamicGraphClustering::with_options(n, backend_options(backend));
            let mut alive: Vec<(VertexId, VertexId, Weight)> = Vec::new();
            for step in 0..600 {
                let do_insert =
                    alive.is_empty() || (alive.len() < candidates.len() && rng.gen_bool(0.55));
                if do_insert {
                    // Insert a candidate that is not alive yet.
                    let next = candidates
                        .iter()
                        .find(|c| !alive.iter().any(|a| pair(a.0, a.1) == pair(c.0, c.1)))
                        .copied()
                        .expect("candidate available");
                    g.insert_edge(next.0, next.1, next.2).unwrap();
                    alive.push(next);
                } else {
                    let idx = rng.gen_range(0..alive.len());
                    let (a, b, _) = alive.swap_remove(idx);
                    g.delete_edge(a, b).unwrap();
                }
                if step % 10 == 0 {
                    assert_msf_matches(&g, &alive);
                }
            }
            assert_msf_matches(&g, &alive);
            let counters = g.work_counters();
            assert!(counters.replacement_searches > 0, "searches were counted");
            assert_eq!(
                counters.level_promotions > 0,
                backend == ForestBackend::Hdt,
                "level promotions are an HDT-only phenomenon"
            );
        }
    }

    #[test]
    fn backends_report_identical_changes_on_a_churn_stream() {
        let n = 30usize;
        let mut rng = SmallRng::seed_from_u64(9);
        let mut scan =
            DynamicGraphClustering::with_options(n, backend_options(ForestBackend::Scan));
        let mut hdt = DynamicGraphClustering::with_options(n, backend_options(ForestBackend::Hdt));
        assert_eq!(scan.backend(), ForestBackend::Scan);
        assert_eq!(hdt.backend(), ForestBackend::Hdt);
        let mut alive: Vec<(VertexId, VertexId)> = Vec::new();
        for _ in 0..500 {
            if alive.is_empty() || rng.gen_bool(0.6) {
                let a = v(rng.gen_range(0..n as u32));
                let b = v(rng.gen_range(0..n as u32));
                if a == b || alive.contains(&pair(a, b)) {
                    continue;
                }
                // Coarse weights on purpose: ties exercise the deterministic tie-break.
                let w = rng.gen_range(0..8) as f64;
                assert_eq!(scan.insert_edge(a, b, w), hdt.insert_edge(a, b, w));
                alive.push(pair(a, b));
            } else {
                let (a, b) = alive.swap_remove(rng.gen_range(0..alive.len()));
                assert_eq!(scan.delete_edge(a, b), hdt.delete_edge(a, b));
            }
        }
        assert_eq!(
            scan.sld().dendrogram().canonical_parents(),
            hdt.sld().dendrogram().canonical_parents()
        );
    }

    #[test]
    fn take_work_counters_drains() {
        let mut g = DynamicGraphClustering::with_options(4, backend_options(ForestBackend::Hdt));
        g.insert_edge(v(0), v(1), 1.0).unwrap();
        g.insert_edge(v(1), v(2), 2.0).unwrap();
        g.insert_edge(v(0), v(2), 3.0).unwrap(); // non-tree
        g.delete_edge(v(0), v(1)).unwrap(); // tree deletion: search runs
        let taken = g.take_work_counters();
        assert!(taken.replacement_searches >= 1);
        assert_eq!(g.work_counters(), WorkCounters::default());
    }

    #[test]
    fn update_weight_can_promote_and_demote() {
        for backend in [ForestBackend::Scan, ForestBackend::Hdt] {
            let mut g = DynamicGraphClustering::with_options(3, backend_options(backend));
            g.insert_edge(v(0), v(1), 1.0).unwrap();
            g.insert_edge(v(1), v(2), 2.0).unwrap();
            g.insert_edge(v(0), v(2), 5.0).unwrap(); // non-tree
            assert!(!g.is_tree_edge(v(0), v(2)));
            g.update_weight(v(0), v(2), 0.5).unwrap();
            assert!(g.is_tree_edge(v(0), v(2)));
            assert!(!g.is_tree_edge(v(1), v(2)));
            let alive = vec![(v(0), v(1), 1.0), (v(1), v(2), 2.0), (v(0), v(2), 0.5)];
            assert_msf_matches(&g, &alive);
        }
    }

    #[test]
    fn threshold_queries_through_the_pipeline() {
        let mut g = DynamicGraphClustering::with_options(
            6,
            DynSldOptions {
                maintain_spine_index: true,
                ..Default::default()
            },
        );
        for (a, b, w) in [
            (0, 1, 1.0),
            (1, 2, 4.0),
            (2, 3, 2.0),
            (3, 4, 8.0),
            (4, 5, 3.0),
            (0, 2, 9.0), // non-tree
        ] {
            g.insert_edge(v(a), v(b), w).unwrap();
        }
        assert!(g.sld_mut().threshold_connected(v(0), v(2), 4.0));
        assert!(!g.sld_mut().threshold_connected(v(0), v(2), 3.0));
        assert_eq!(g.sld_mut().cluster_size(v(0), 4.5), 4);
        assert_eq!(g.sld_mut().cluster_size(v(5), 3.5), 2);
        // Deleting the weight-4 tree edge promotes the weight-9 reserve edge; the bottleneck
        // between 0 and 2 becomes 9.
        g.delete_edge(v(1), v(2)).unwrap();
        assert!(!g.sld_mut().threshold_connected(v(0), v(2), 4.0));
        assert!(g.sld_mut().threshold_connected(v(0), v(2), 9.0));
    }
}
