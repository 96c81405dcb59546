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
//! * **Edge insertion**: one [`DynSld::exchange`] locates the maximum-weight edge on the tree
//!   path between the endpoints with a path-maximum query (`O(log n)`) and, if it is heavier
//!   than the new edge, swaps the two, rewiring only the dendrogram below the evicted edge; if
//!   the endpoints are in different trees the edge joins the MSF.
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
//!   cut: `O(min-side size + min-side non-tree degree)` per tree-edge deletion at worst — the
//!   side is enumerated once and marked, so each crossing test is two table reads, and a
//!   crossing edge's weight is read from the reserve entry the scan is already on. Each
//!   vertex's reserve is kept in rank order, so a vertex's entries are read lightest-first
//!   and its scan stops at its first edge into the other side (README.md, "Deviations from
//!   the paper", substitution 5 — the paper points to Holm–de Lichtenberg–Thorup \[33\] or
//!   the batch-parallel MSF of Tseng et al. \[48\] for this component). The order costs the
//!   reserve updates: adding or removing an entry is an `O(log d)` binary search for its slot
//!   plus an `O(d)` shift of the list's tail (`d` the endpoint's reserve degree), and finding
//!   a non-tree edge by its endpoints scans the shorter endpoint list, `O(min degree)`.
//!   [`DynamicGraphClustering::edge_weight`] pays that for every pair that is not a tree edge,
//!   and so does the engine's liveness check on every submitted event. A per-edge deletion
//!   is a deletion batch of one. A deletion batch runs the search before the dendrogram's
//!   unmerge ([`DynSld::batch_delete_labelled`]), and the pieces it enumerated label that
//!   unmerge, so the batch asks no connectivity query of the Euler-tour forest. The same
//!   unmerge places the replacement edges the search promotes.
//! * [`ForestBackend::Hdt`] keeps an HDT-style level structure (see the `hdt` module):
//!   edges carry levels, replacement search amortizes candidate examinations over level
//!   promotions, and only the candidates stored at the levels a cut touches are examined.
//!
//! Both backends are exact and **bit-identical**: same [`MsfChange`] sequences, same
//! dendrograms, same clusterings (pinned by the `msf_backends` proptest suite). They differ
//! only in the work the replacement search performs, observable through
//! [`DynamicGraphClustering::work_counters`].

#![warn(missing_docs)]

use dynsld::{CycleExchange, DynSld, DynSldError, DynSldOptions};
use dynsld_dyntree::RoundTable;
use dynsld_forest::{EdgeId, VertexId, Weight};
use std::cmp::Ordering;

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

/// Replacement-search and insertion work counters, accumulated across updates and drained
/// with [`DynamicGraphClustering::take_work_counters`]. These are *work* measures, not result
/// measures — both backends produce identical results while reporting very different
/// replacement-search counter values. The `baseline` package's `aging_dense` workload
/// compares the two as `msf.crossing_tests_per_search` and
/// `msf.hdt_crossing_tests_per_search`.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct WorkCounters {
    /// Replacement candidates subjected to the cut-crossing test — the per-candidate step
    /// of a search on either backend. The scan backend reads the reserve entries of each
    /// vertex it enumerates lightest-first, up to and including the vertex's first entry into
    /// the largest piece of its tree, tests each with two piece-table reads and takes the
    /// weight from the entry itself; the HDT backend tests candidates in rank order with
    /// connectivity queries and stops a level at the first one that cannot beat the
    /// incumbent.
    pub replacement_edges_scanned: u64,
    /// Non-tree edges moved one level up by the HDT backend (always 0 on the scan backend).
    pub level_promotions: u64,
    /// Replacement searches run (one per tree-edge deletion, plus one per
    /// insertion-eviction on the HDT backend, which replays evictions through the search).
    pub replacement_searches: u64,
    /// Candidates the Kruskal pass of a deletion sorted: on the scan backend the lightest
    /// reserve edge the scans saw per pair of pieces the cuts left (at most `k(k-1)/2` for `k`
    /// pieces), on the HDT backend one per successful search. A per-edge deletion is a batch
    /// of one, so it adds one when its cut has a replacement.
    pub replacement_candidates: u64,
    /// Path-maximum queries insertions asked of the link-cut forest: one per cycle-closing
    /// insertion that reached [`DynSld::exchange`] (per-edge, or a batch's fallback). A batch
    /// stores its cycle-closing edges that outweigh their trees without one, so a cold-start
    /// batch asks none.
    pub path_max_queries: u64,
}

impl WorkCounters {
    /// Adds `other` into `self` field-wise.
    pub fn merge(&mut self, other: &WorkCounters) {
        self.replacement_edges_scanned += other.replacement_edges_scanned;
        self.level_promotions += other.level_promotions;
        self.replacement_searches += other.replacement_searches;
        self.replacement_candidates += other.replacement_candidates;
        self.path_max_queries += other.path_max_queries;
    }
}

/// The replacement-search index behind [`DynamicGraphClustering`]: one variant per
/// [`ForestBackend`].
#[derive(Clone, Debug)]
pub(crate) enum ReplacementIndex {
    /// Non-tree edges listed per vertex (both endpoints) in rank order; search scans the
    /// smaller side lightest-first.
    Scan {
        /// The only place a scan-backend non-tree edge is stored.
        reserve: Reserve,
    },
    /// HDT-style level structure (see the `hdt` module).
    Hdt(HdtIndex),
}

/// The scan backend's non-tree edges: per vertex `x`, one `(weight, other endpoint)` entry per
/// non-tree edge at `x`, sorted by [`PairRank`]`(weight, pair(x, other))`, lightest first (16
/// bytes per entry and endpoint). The order lets the replacement search read a vertex's
/// entries lightest-first and stop early (see `batch::find_replacements`).
///
/// Adding an entry binary-searches its slot, `O(log d)` for a list of length `d`, and shifts
/// the tail after it, `O(d)` (a plain push when it ranks last); removing one whose weight is
/// known does the same in each list. Looking an edge up by its endpoints alone
/// ([`weight`](Self::weight)) scans the shorter of the two lists: `O(min degree)`.
#[derive(Clone, Debug, Default)]
pub(crate) struct Reserve {
    lists: Vec<Vec<(Weight, VertexId)>>,
}

impl Reserve {
    fn new(n: usize) -> Self {
        Reserve {
            lists: vec![Vec::new(); n],
        }
    }

    fn add_vertices(&mut self, n: usize) {
        self.lists.resize_with(n, Vec::new);
    }

    /// The entries at `x`, lightest first.
    #[inline]
    pub(crate) fn at(&self, x: VertexId) -> &[(Weight, VertexId)] {
        &self.lists[x.index()]
    }

    /// The position `(weight, other)` has (or would have) in `x`'s list.
    fn position(
        list: &[(Weight, VertexId)],
        x: VertexId,
        other: VertexId,
        weight: Weight,
    ) -> usize {
        let rank = PairRank(weight, pair(x, other));
        list.partition_point(|&(w, y)| PairRank(w, pair(x, y)) < rank)
    }

    /// The weight of the non-tree edge `{u, v}`, or `None` if it is not one.
    pub(crate) fn weight(&self, u: VertexId, v: VertexId) -> Option<Weight> {
        let (x, other) = if self.at(u).len() <= self.at(v).len() {
            (u, v)
        } else {
            (v, u)
        };
        self.at(x).iter().find(|e| e.1 == other).map(|e| e.0)
    }

    /// Adds the non-tree edge `{u, v}` (not stored yet) to both endpoints' lists.
    pub(crate) fn insert(&mut self, u: VertexId, v: VertexId, weight: Weight) {
        for (x, other) in [(u, v), (v, u)] {
            let list = &mut self.lists[x.index()];
            let last = list.last().map(|&(w, y)| PairRank(w, pair(x, y)));
            if last.is_none_or(|last| last < PairRank(weight, pair(x, other))) {
                list.push((weight, other));
            } else {
                let at = Self::position(list, x, other, weight);
                list.insert(at, (weight, other));
            }
        }
    }

    /// Removes the stored non-tree edge `{u, v}` of weight `weight` from both lists.
    pub(crate) fn remove(&mut self, u: VertexId, v: VertexId, weight: Weight) {
        for (x, other) in [(u, v), (v, u)] {
            let list = &mut self.lists[x.index()];
            let at = Self::position(list, x, other, weight);
            debug_assert_eq!(list.get(at), Some(&(weight, other)), "stored reserve entry");
            list.remove(at);
        }
    }
}

/// The rank of a graph edge: its weight, ties broken on the normalised endpoint pair. This is
/// the one order the batch paths process edges in, both forest backends pick replacements by,
/// and the scan backend's [`Reserve`] lists are sorted by. Weights tie, so without the
/// tie-break the promoted edge among equal-weight candidates would depend on update order.
#[derive(Clone, Copy, Debug)]
pub(crate) struct PairRank(pub(crate) Weight, pub(crate) (VertexId, VertexId));

impl Ord for PairRank {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0
            .total_cmp(&other.0)
            .then_with(|| self.1.cmp(&other.1))
    }
}

impl PartialOrd for PairRank {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for PairRank {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for PairRank {}

/// End-to-end fully-dynamic single-linkage clustering of a weighted graph: a dynamic MSF front
/// end feeding the DynSLD dendrogram maintenance algorithms.
///
/// Every alive graph edge is stored exactly once: a tree edge in the forest of `sld` (with its
/// weight), a non-tree edge in the replacement index (the scan backend's reserve entry or the
/// HDT backend's edge record, each with its weight). The accessors
/// ([`edge_weight`](Self::edge_weight), [`is_tree_edge`](Self::is_tree_edge),
/// [`graph_edges`](Self::graph_edges), ...) read both.
#[derive(Clone, Debug)]
pub struct DynamicGraphClustering {
    /// The dendrogram and the MSF it is built on: the one store of tree edges.
    pub(crate) sld: DynSld,
    /// Backend-specific replacement-edge index: the one store of non-tree edges.
    pub(crate) index: ReplacementIndex,
    /// Number of non-tree edges in `index`, kept by
    /// [`index_add_nontree`](Self::index_add_nontree),
    /// [`index_remove_nontree`](Self::index_remove_nontree) and
    /// [`mark_promoted`](Self::mark_promoted).
    pub(crate) nontree_edges: usize,
    /// Scan-backend work counters, the replacement search's candidate count and the path
    /// queries of insertions (the HDT index keeps its own; both are drained together).
    pub(crate) counters: WorkCounters,
    /// Scan-backend scratch: which piece of the current replacement search each vertex was
    /// enumerated into.
    pub(crate) pieces: PieceMarks,
}

/// The pieces a replacement search of the scan backend has enumerated: vertex -> piece id, for
/// one search (8 bytes per vertex, reused). A search enumerates the small sides of its cuts
/// anyway, so "does this reserve edge cross the cut?" is a lookup of its two endpoints here
/// rather than a connectivity query against the Euler-tour forest, and the edge's rank comes
/// from the reserve entry being scanned, so a crossing test touches no table keyed by edge.
/// An unmarked endpoint lies in the largest piece of its tree, where each member's
/// lightest-first scan stops. The member lists and the per-piece table of the search live
/// here too, so no search allocates once they have grown to the largest batch seen.
#[derive(Clone, Debug, Default)]
pub(crate) struct PieceMarks {
    piece_of: RoundTable,
    /// The vertices enumerated in this search, piece after piece.
    pub(crate) members: Vec<VertexId>,
    /// The lightest reserve edge the scan of the current piece has seen to each other piece,
    /// indexed by piece id; `None` outside the slots listed in `touched`.
    pub(crate) best: Vec<Option<PairRank>>,
    /// The slots of `best` written while scanning the current piece.
    pub(crate) touched: Vec<u32>,
    /// Per deleted edge of the search, in order: the id of the largest piece of the tree it
    /// split — the one piece not enumerated, so the piece of every unmarked vertex there.
    pub(crate) cut_outer: Vec<u32>,
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
                reserve: Reserve::new(n),
            },
            ForestBackend::Hdt => ReplacementIndex::Hdt(HdtIndex::new(n)),
        };
        DynamicGraphClustering {
            sld: DynSld::with_options(n, options),
            index,
            nontree_edges: 0,
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
        self.num_tree_edges() + self.nontree_edges
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

    /// Returns the weight of the graph edge `{u, v}` if it is alive. On the scan backend a
    /// non-tree edge is found by scanning the shorter endpoint's reserve list, `O(min degree)`.
    pub fn edge_weight(&self, u: VertexId, v: VertexId) -> Option<Weight> {
        match self.tree_edge(u, v) {
            Some(e) => Some(self.sld.forest().weight(e)),
            None => self.nontree_weight(u, v),
        }
    }

    /// Returns true if `{u, v}` is currently an MSF edge.
    pub fn is_tree_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.tree_edge(u, v).is_some()
    }

    /// True if `{u, v}` could be a graph edge: distinct endpoints, both in range.
    fn is_vertex_pair(&self, u: VertexId, v: VertexId) -> bool {
        let n = self.num_vertices();
        u != v && u.index() < n && v.index() < n
    }

    /// The forest edge `{u, v}`, or `None` if it is not a tree edge (pairs that cannot be a
    /// graph edge included).
    fn tree_edge(&self, u: VertexId, v: VertexId) -> Option<EdgeId> {
        if !self.is_vertex_pair(u, v) {
            return None;
        }
        self.sld.forest().find_edge(u, v)
    }

    /// The weight of the non-tree edge `{u, v}`, or `None` if it is not one.
    pub(crate) fn nontree_weight(&self, u: VertexId, v: VertexId) -> Option<Weight> {
        if !self.is_vertex_pair(u, v) {
            return None;
        }
        match &self.index {
            ReplacementIndex::Scan { reserve } => reserve.weight(u, v),
            ReplacementIndex::Hdt(ix) => ix.nontree_weight(u, v),
        }
    }

    /// Adds `k` isolated vertices and returns the first new id.
    pub fn add_vertices(&mut self, k: usize) -> VertexId {
        let first = self.sld.add_vertices(k);
        match &mut self.index {
            ReplacementIndex::Scan { reserve } => reserve.add_vertices(self.sld.num_vertices()),
            ReplacementIndex::Hdt(ix) => ix.add_vertices(k),
        }
        first
    }

    /// Stores a new non-tree edge in the backend index.
    pub(crate) fn index_add_nontree(&mut self, u: VertexId, v: VertexId, weight: Weight) {
        match &mut self.index {
            ReplacementIndex::Scan { reserve } => reserve.insert(u, v, weight),
            ReplacementIndex::Hdt(ix) => ix.add_nontree(u, v, weight),
        }
        self.nontree_edges += 1;
    }

    /// Removes the stored non-tree edge `{u, v}` of weight `weight` from the backend index.
    pub(crate) fn index_remove_nontree(&mut self, u: VertexId, v: VertexId, weight: Weight) {
        match &mut self.index {
            ReplacementIndex::Scan { reserve } => reserve.remove(u, v, weight),
            ReplacementIndex::Hdt(ix) => ix.remove_nontree(u, v),
        }
        self.nontree_edges -= 1;
    }

    /// Registers a new tree edge with the backend index (no-op for the scan backend, which
    /// only tracks non-tree edges).
    pub(crate) fn index_add_tree(&mut self, u: VertexId, v: VertexId, weight: Weight) {
        if let ReplacementIndex::Hdt(ix) = &mut self.index {
            ix.add_tree(u, v, weight);
        }
    }

    /// Validates a graph edge about to be inserted: distinct in-range endpoints, a finite
    /// weight, not alive yet (parallel edges are not supported).
    pub(crate) fn check_new_edge(
        &self,
        u: VertexId,
        v: VertexId,
        weight: Weight,
    ) -> Result<(), DynSldError> {
        if u == v {
            return Err(DynSldError::SelfLoop(u));
        }
        for x in [u, v] {
            if x.index() >= self.num_vertices() {
                return Err(DynSldError::VertexOutOfRange(x));
            }
        }
        if !weight.is_finite() {
            return Err(DynSldError::NonFiniteWeight(u, v));
        }
        if self.edge_weight(u, v).is_some() {
            return Err(DynSldError::EdgeAlreadyExists(u, v));
        }
        Ok(())
    }

    /// Inserts the graph edge `{u, v}` with the given weight and updates the MSF and dendrogram.
    ///
    /// Returns how the MSF changed. Errors if the edge already exists, the endpoints are
    /// invalid or the weight is not finite.
    pub fn insert_edge(
        &mut self,
        u: VertexId,
        v: VertexId,
        weight: Weight,
    ) -> Result<MsfChange, DynSldError> {
        self.check_new_edge(u, v, weight)?;
        Ok(self.insert_validated(u, v, weight))
    }

    /// The body of [`insert_edge`](Self::insert_edge), for an edge that
    /// [`check_new_edge`](Self::check_new_edge) has accepted.
    pub(crate) fn insert_validated(
        &mut self,
        u: VertexId,
        v: VertexId,
        weight: Weight,
    ) -> MsfChange {
        // One path-maximum query: `Linked` means the edge joined two trees (and is in the forest
        // now), otherwise it closes a cycle and replaces the heaviest edge on it if it is
        // lighter. Strict
        // improvement is required: an equal weight keeps the incumbent tree edge. Which of two
        // equal-weight edges ends up in the MSF therefore depends on update order, not on a
        // fixed total order (see ROADMAP, "One total order"). The dendrogram takes the swap as
        // one exchange, which rewires only the spines below the evicted edge's rank.
        let outcome = self
            .sld
            .exchange(u, v, weight)
            .expect("validated endpoints");
        if !matches!(outcome, CycleExchange::Linked(_)) {
            self.counters.path_max_queries += 1;
        }
        match outcome {
            CycleExchange::Linked(_) => {
                self.index_add_tree(u, v, weight);
                MsfChange::Inserted
            }
            CycleExchange::Exchanged {
                evicted: (hu, hv),
                weight: heaviest_weight,
            } => {
                if let ReplacementIndex::Hdt(ix) = &mut self.index {
                    // Replay the eviction through the level-structured search: the new edge is
                    // provably the unique replacement for the evicted edge's cut (exchange
                    // property), and routing it through the search keeps every level forest
                    // consistent (see the hdt module docs).
                    ix.add_nontree(u, v, weight);
                    let promoted = ix.delete_tree_with_search(hu, hv);
                    debug_assert_eq!(
                        promoted.map(|(a, b, _)| (a, b)),
                        Some(pair(u, v)),
                        "the cycle-closing edge is the unique replacement for its eviction"
                    );
                }
                // The evicted edge enters the reserve at its forest weight.
                self.index_add_nontree(hu, hv, heaviest_weight);
                MsfChange::Replaced { evicted: (hu, hv) }
            }
            CycleExchange::Kept => {
                self.index_add_nontree(u, v, weight);
                MsfChange::StoredNonTree
            }
        }
    }

    /// Deletes the graph edge `{u, v}` and updates the MSF and dendrogram: the batch of one
    /// ([`batch_delete_edges`](Self::batch_delete_edges)), so on the scan backend a tree
    /// deletion's unmerge is labelled by its own replacement search and asks no query.
    pub fn delete_edge(&mut self, u: VertexId, v: VertexId) -> Result<MsfChange, DynSldError> {
        let mut outcome = self.batch_delete_edges(&[(u, v)])?;
        Ok(outcome.changes.pop().expect("one change per deleted edge"))
    }

    /// Changes the weight of an existing edge (delete + re-insert). A non-finite weight is
    /// rejected before the delete, leaving the graph unchanged.
    pub fn update_weight(
        &mut self,
        u: VertexId,
        v: VertexId,
        weight: Weight,
    ) -> Result<MsfChange, DynSldError> {
        if !weight.is_finite() {
            return Err(DynSldError::NonFiniteWeight(u, v));
        }
        self.delete_edge(u, v)?;
        self.insert_edge(u, v, weight)
    }

    /// All alive graph edges as `(u, v, weight, is_tree)` with `u < v`: the forest's edges,
    /// then the non-tree edges in no particular order.
    pub fn graph_edges(&self) -> Vec<(VertexId, VertexId, Weight, bool)> {
        let mut out = Vec::with_capacity(self.num_graph_edges());
        out.extend(self.sld.forest().edges().map(|(_, d)| {
            let (u, v) = pair(d.u, d.v);
            (u, v, d.weight, true)
        }));
        match &self.index {
            ReplacementIndex::Scan { reserve } => {
                // Each edge sits in both endpoints' lists; emit it from its lower endpoint.
                for x in (0..self.num_vertices()).map(|x| VertexId(x as u32)) {
                    out.extend(
                        reserve
                            .at(x)
                            .iter()
                            .filter(|&&(_, y)| x < y)
                            .map(|&(w, y)| (x, y, w, false)),
                    );
                }
            }
            ReplacementIndex::Hdt(ix) => {
                out.extend(ix.nontree_edges().map(|((u, v), w)| (u, v, w, false)));
            }
        }
        out
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
    use std::collections::HashSet;

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
        // The dendrogram must equal static recomputation on the maintained forest.
        assert_eq!(
            g.sld().dendrogram().canonical_parents(),
            static_sld_kruskal(g.sld().forest()).canonical_parents(),
            "dendrogram diverged"
        );
        g.sld().check_invariants().expect("invariants");
    }

    /// The derived accessors agree with the model: the edge count, every edge with its weight
    /// and the oracle's tree flag, and each alive pair's weight.
    fn assert_accessors_match(g: &DynamicGraphClustering, alive: &[(VertexId, VertexId, Weight)]) {
        assert_eq!(g.num_graph_edges(), alive.len(), "edge count");
        let tree: HashSet<_> = msf_oracle(g.num_vertices(), alive).into_iter().collect();
        let mut expected: Vec<_> = alive
            .iter()
            .map(|&(a, b, w)| {
                let (a, b) = pair(a, b);
                (a, b, w, tree.contains(&(a, b)))
            })
            .collect();
        expected.sort_by_key(|e| (e.0, e.1));
        let mut actual = g.graph_edges();
        actual.sort_by_key(|e| (e.0, e.1));
        assert_eq!(actual, expected, "graph_edges vs the model");
        for &(a, b, w) in alive {
            assert_eq!(g.edge_weight(b, a), Some(w), "weight of {a:?}-{b:?}");
        }
    }

    /// On the scan backend, every vertex's reserve list is strictly increasing in
    /// [`PairRank`], which the replacement scan's early stop relies on.
    fn assert_reserve_in_rank_order(g: &DynamicGraphClustering) {
        if let ReplacementIndex::Scan { reserve } = &g.index {
            for x in (0..g.num_vertices()).map(|x| v(x as u32)) {
                let ranks: Vec<_> = reserve
                    .at(x)
                    .iter()
                    .map(|&(w, y)| PairRank(w, pair(x, y)))
                    .collect();
                assert!(
                    ranks.windows(2).all(|r| r[0] < r[1]),
                    "reserve of {x:?} out of rank order: {ranks:?}"
                );
            }
        }
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

        // Work of one tree deletion: the search scans every reserve entry of the smaller side
        // once, and `u`'s side on a size tie. Paths 0-1-2 and 3-4-5 joined by 2-3, with reserve
        // edges 1-4 (crossing) and 3-5 (inside the right side).
        let work = |u: u32, w: u32| {
            let mut g = DynamicGraphClustering::new(6);
            for (a, b, weight) in [
                (0, 1, 1.0),
                (1, 2, 2.0),
                (2, 3, 5.0),
                (3, 4, 3.0),
                (4, 5, 4.0),
            ] {
                g.insert_edge(v(a), v(b), weight).unwrap();
            }
            g.insert_edge(v(1), v(4), 20.0).unwrap();
            g.insert_edge(v(3), v(5), 30.0).unwrap();
            g.take_work_counters();
            let change = g.delete_edge(v(u), v(w)).unwrap();
            let c = g.take_work_counters();
            (change, c.replacement_searches, c.replacement_edges_scanned)
        };
        let promoted = |a: u32, b: u32| MsfChange::RemovedWithReplacement {
            promoted: (v(a), v(b)),
        };
        // Tie, left side {0, 1, 2} scanned: vertex 1's entry 1-4.
        assert_eq!(work(2, 3), (promoted(1, 4), 1, 1));
        // Tie, right side {3, 4, 5} scanned: 3-5 from both ends, 1-4 from vertex 4.
        assert_eq!(work(3, 2), (promoted(1, 4), 1, 3));
        // No tie: `v`'s side {5} is the smaller one, so only its entry 3-5 is read.
        assert_eq!(work(4, 5), (promoted(3, 5), 1, 1));
    }

    /// A NaN or infinite weight is rejected per edge, in a batch (whatever else the batch
    /// holds) and as a new weight, and leaves the graph, the dendrogram and the version as
    /// they were.
    #[test]
    fn non_finite_weights_are_rejected_and_change_nothing() {
        for backend in [ForestBackend::Scan, ForestBackend::Hdt] {
            let mut g = DynamicGraphClustering::with_options(4, backend_options(backend));
            g.batch_insert_edges(&[(v(0), v(1), 1.0), (v(1), v(2), 2.0), (v(0), v(2), 3.0)])
                .unwrap();
            let state = |g: &DynamicGraphClustering| {
                let mut edges = g.graph_edges();
                edges.sort_by_key(|e| (e.0, e.1));
                (
                    edges,
                    g.sld().dendrogram().canonical_parents(),
                    g.sld().version(),
                )
            };
            let before = state(&g);
            for w in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
                let err = DynSldError::NonFiniteWeight(v(2), v(3));
                assert_eq!(
                    g.insert_edge(v(2), v(3), w),
                    Err(err.clone()),
                    "{backend:?} {w}"
                );
                assert_eq!(
                    g.batch_insert_edges(&[(v(0), v(3), 0.5), (v(2), v(3), w)]),
                    Err(err),
                    "{backend:?} {w}"
                );
                assert_eq!(
                    g.update_weight(v(0), v(1), w),
                    Err(DynSldError::NonFiniteWeight(v(0), v(1))),
                    "{backend:?} {w}"
                );
                assert_eq!(state(&g), before, "{backend:?} {w}");
            }
        }
    }

    #[test]
    fn errors_are_reported() {
        for backend in [ForestBackend::Scan, ForestBackend::Hdt] {
            let mut g = DynamicGraphClustering::with_options(3, backend_options(backend));
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
            // Absent edges, out-of-range endpoints included, are not tree edges.
            assert!(!g.is_tree_edge(v(0), v(1)));
            assert!(!g.is_tree_edge(v(0), v(5)));

            // Pairs that cannot be graph edges read as absent, never as a panic or as some
            // other edge at the same vertex: out-of-range endpoints and self-loops, next to
            // tree and reserve edges.
            g.insert_edge(v(0), v(1), 1.0).unwrap();
            g.insert_edge(v(1), v(2), 2.0).unwrap();
            g.insert_edge(v(0), v(2), 3.0).unwrap(); // non-tree
            for (a, b) in [(0, 5), (5, 0), (5, 6), (0, 0), (1, 1)] {
                let (a, b) = (v(a), v(b));
                assert_eq!(g.edge_weight(a, b), None, "{backend:?} {a:?}-{b:?}");
                assert!(!g.is_tree_edge(a, b), "{backend:?} {a:?}-{b:?}");
                assert_eq!(g.delete_edge(a, b), Err(DynSldError::EdgeNotFound(a, b)));
                assert_eq!(
                    g.batch_delete_edges(&[(v(0), v(1)), (a, b)]),
                    Err(DynSldError::EdgeNotFound(a, b))
                );
            }
            assert_eq!(g.num_graph_edges(), 3);
            assert_eq!(g.edge_weight(v(1), v(0)), Some(1.0));
            assert_eq!(g.edge_weight(v(2), v(0)), Some(3.0));
        }
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
            let (mut exchanges, mut promoting_batches) = (0, 0);
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
                    if let MsfChange::Replaced { .. } =
                        g.insert_edge(next.0, next.1, next.2).unwrap()
                    {
                        // An eviction rewires the dendrogram without connectivity queries.
                        assert_eq!(g.sld().stats().last_tree_queries, 0);
                        exchanges += 1;
                    }
                    alive.push(next);
                } else if alive.len() >= 30 && rng.gen_bool(0.25) {
                    // A deletion batch of up to four edges. On the scan backend the replacement
                    // search labels the unmerge, so no connectivity query is asked.
                    let k = rng.gen_range(1..=4.min(alive.len()));
                    let batch: Vec<(VertexId, VertexId)> = (0..k)
                        .map(|_| {
                            let (a, b, _) = alive.swap_remove(rng.gen_range(0..alive.len()));
                            (a, b)
                        })
                        .collect();
                    let outcome = g.batch_delete_edges(&batch).unwrap();
                    // The outcome keeps the deletion's statistics (with the promotions the
                    // unmerge placed, on the scan backend) even when a promotion's batch
                    // insert started its own (on the HDT backend).
                    let stats = outcome.delete_stats;
                    let tree_cut = outcome
                        .changes
                        .iter()
                        .any(|c| *c != MsfChange::RemovedNonTree);
                    assert_eq!(stats.last_union_nodes > 0, tree_cut, "step {step}");
                    if backend == ForestBackend::Scan {
                        assert_eq!(stats.last_tree_queries, 0, "step {step}");
                        // The weights are distinct, so the unmerge places every promotion
                        // itself: it walks its union and its promotions, and no spine merge.
                        assert_eq!(
                            stats.last_spine_nodes,
                            stats.last_union_nodes + outcome.promoted.len(),
                            "step {step}"
                        );
                        if !outcome.promoted.is_empty() {
                            promoting_batches += 1;
                        }
                    }
                } else {
                    let idx = rng.gen_range(0..alive.len());
                    let (a, b, _) = alive.swap_remove(idx);
                    g.delete_edge(a, b).unwrap();
                }
                if step % 10 == 0 {
                    assert_msf_matches(&g, &alive);
                }
                if step % 50 == 0 {
                    assert_accessors_match(&g, &alive);
                    assert_reserve_in_rank_order(&g);
                }
            }
            assert_msf_matches(&g, &alive);
            assert!(exchanges > 0, "the stream evicts tree edges");
            assert!(
                backend == ForestBackend::Hdt || promoting_batches > 0,
                "some scan deletion batch promotes a replacement"
            );
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
                let change = scan.insert_edge(a, b, w);
                assert_eq!(change, hdt.insert_edge(a, b, w));
                if let Ok(MsfChange::Replaced { .. }) = change {
                    assert_eq!(scan.sld().stats().last_tree_queries, 0);
                    assert_eq!(hdt.sld().stats().last_tree_queries, 0);
                }
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
    fn a_splitting_tree_deletion_asks_no_tree_query() {
        // A path: deleting an inner edge splits its tree, with no reserve edge to promote.
        let mut g = DynamicGraphClustering::with_options(8, backend_options(ForestBackend::Scan));
        for i in 0..7 {
            g.insert_edge(v(i), v(i + 1), f64::from(i + 1)).unwrap();
        }
        assert_eq!(
            g.delete_edge(v(3), v(4)).unwrap(),
            MsfChange::RemovedAndSplit
        );
        assert_eq!(g.sld().stats().last_tree_queries, 0);
        assert_eq!(g.sld().component_size(v(0)), 4);
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
            let mut g = DynamicGraphClustering::with_options(4, backend_options(backend));
            g.insert_edge(v(0), v(1), 1.0).unwrap();
            g.insert_edge(v(1), v(2), 2.0).unwrap();
            g.insert_edge(v(0), v(2), 5.0).unwrap(); // non-tree
            assert!(!g.is_tree_edge(v(0), v(2)));
            assert_eq!(
                g.update_weight(v(0), v(2), 0.5).unwrap(),
                MsfChange::Replaced {
                    evicted: (v(1), v(2))
                }
            );
            assert!(g.is_tree_edge(v(0), v(2)));
            assert!(!g.is_tree_edge(v(1), v(2)));
            let alive = vec![(v(0), v(1), 1.0), (v(1), v(2), 2.0), (v(0), v(2), 0.5)];
            assert_msf_matches(&g, &alive);
            // The evicted edge entered the reserve at its forest weight.
            assert_eq!(g.edge_weight(v(1), v(2)), Some(2.0));
            assert_eq!(g.edge_weight(v(0), v(2)), Some(0.5));

            // Reweighting a reserve edge that stays non-tree rewrites the weight its entry
            // carries; a cut then promotes it at the new weight, not the stale one.
            g.insert_edge(v(2), v(3), 3.0).unwrap();
            g.insert_edge(v(1), v(3), 6.0).unwrap(); // non-tree
            assert_eq!(
                g.update_weight(v(1), v(3), 4.0).unwrap(),
                MsfChange::StoredNonTree
            );
            assert_eq!(
                g.delete_edge(v(2), v(3)).unwrap(),
                MsfChange::RemovedWithReplacement {
                    promoted: (v(1), v(3))
                }
            );
            assert_eq!(g.edge_weight(v(1), v(3)), Some(4.0));
            // Cutting vertex 2 off promotes the exchange-evicted edge back, weight intact.
            assert_eq!(
                g.delete_edge(v(0), v(2)).unwrap(),
                MsfChange::RemovedWithReplacement {
                    promoted: (v(1), v(2))
                }
            );
            assert!(g.is_tree_edge(v(1), v(2)));
            assert_eq!(g.edge_weight(v(1), v(2)), Some(2.0));
            let alive = vec![(v(0), v(1), 1.0), (v(1), v(2), 2.0), (v(1), v(3), 4.0)];
            assert_msf_matches(&g, &alive);
            assert_accessors_match(&g, &alive);
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
