//! The [`DynSld`] structure: explicit fully-dynamic single-linkage dendrogram maintenance.
//!
//! `DynSld` owns the input forest, the explicit dendrogram, and the dynamic-tree substrates the
//! paper's algorithms rely on (Section 3): an Euler-tour forest over the input for connectivity
//! and component aggregates, a link-cut tree over the input for path-maximum (threshold)
//! queries, and — when enabled — a link-cut tree mirroring the dendrogram (the *spine index*)
//! that provides the path-weight-search and path-median queries of Section 4.
//!
//! The individual update algorithms live in sibling modules:
//! * [`crate::seq`] — sequential `O(h)` insertion and `O(h log(1 + n/h))` deletion (Theorem 1.1),
//! * [`crate::sides`] — the side assignment every deletion algorithm shares,
//! * [`crate::outsens`] — output-sensitive insertion (Theorem 1.2),
//! * [`crate::par`] — parallel insertion/deletion (Theorem 1.3),
//! * [`crate::outsens_par`] — parallel output-sensitive insertion (Theorem 1.4),
//! * [`crate::batch`] — batch-parallel insertion and deletion (Theorem 1.5),
//! * [`crate::queries`] — dendrogram queries (Section 6.1),
//! * [`crate::cartesian`] — dynamic Cartesian trees (Section 6.2).

use crate::dendrogram::Dendrogram;
use crate::sides::{Cut, SideScratch};
use crate::snapshot::ExportTracker;
use crate::static_sld;
use dynsld_dyntree::{EulerTourForest, LctNodeId, LinkCutTree};
use dynsld_forest::{EdgeId, Forest, RankKey, VertexId, Weight};
use std::fmt;

/// Which update algorithm the convenience methods [`DynSld::insert`] and [`DynSld::delete`]
/// dispatch to.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub enum UpdateStrategy {
    /// Height-bounded sequential updates (Theorem 1.1). The default.
    #[default]
    Sequential,
    /// Output-sensitive insertions (Theorem 1.2); deletions fall back to the sequential
    /// algorithm. Requires [`DynSldOptions::maintain_spine_index`].
    OutputSensitive,
    /// Parallel height-bounded updates (Theorem 1.3).
    Parallel,
    /// Parallel output-sensitive insertions (Theorem 1.4); deletions use the parallel
    /// height-bounded algorithm. Requires [`DynSldOptions::maintain_spine_index`].
    ParallelOutputSensitive,
}

/// Which dynamic-forest backend the graph layer (`dynsld-msf`) uses for replacement-edge
/// search when a tree edge is deleted.
///
/// `DynSld` itself does not consult this option — it is carried here so one options value
/// configures the whole stack (engine shards and journal-replay recovery both construct
/// through [`DynSldOptions`]). Both backends produce bit-identical MSF changes, dendrograms,
/// and clusterings; they differ only in how much work a deletion's replacement search
/// performs.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub enum ForestBackend {
    /// Enumerate the smaller side of the cut and scan the non-tree edges incident to it:
    /// `O(min-side size + min-side non-tree degree)` per tree-edge deletion. The default.
    #[default]
    Scan,
    /// Holm–de Lichtenberg–Thorup-style level structure: edges carry levels and the search
    /// amortizes candidate examinations over level promotions, examining only the candidates
    /// stored at the levels the cut actually touches.
    Hdt,
}

/// Construction-time options for [`DynSld`]. The default is the sequential strategy, no
/// spine index and the [`ForestBackend::Scan`] backend.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub struct DynSldOptions {
    /// Default algorithm used by [`DynSld::insert`] / [`DynSld::delete`].
    pub strategy: UpdateStrategy,
    /// Maintain a link-cut tree mirroring the dendrogram. Required by the output-sensitive
    /// update algorithms and by the `O(log n)` cluster-size query; costs `O(log n)` extra per
    /// structural change.
    pub maintain_spine_index: bool,
    /// Replacement-search backend used by the graph layer (`dynsld-msf`); ignored by
    /// forest-level `DynSld` usage.
    pub msf_backend: ForestBackend,
}

impl DynSldOptions {
    /// Options with the spine index enabled and the given strategy.
    pub fn with_strategy(strategy: UpdateStrategy) -> Self {
        let maintain_spine_index = matches!(
            strategy,
            UpdateStrategy::OutputSensitive | UpdateStrategy::ParallelOutputSensitive
        );
        DynSldOptions {
            strategy,
            maintain_spine_index,
            ..Default::default()
        }
    }
}

/// Errors returned by the update operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DynSldError {
    /// The insertion would connect two vertices that are already in the same tree.
    WouldCreateCycle(VertexId, VertexId),
    /// No edge between the two vertices exists.
    EdgeNotFound(VertexId, VertexId),
    /// A vertex id is out of range.
    VertexOutOfRange(VertexId),
    /// `u == v`.
    SelfLoop(VertexId),
    /// An output-sensitive operation was requested but the spine index is not maintained.
    SpineIndexRequired,
    /// Two updates inside one batch conflict (e.g. two insertions linking the same pair of
    /// components, which would create a cycle).
    ConflictingBatch(VertexId, VertexId),
    /// An edge between the two vertices already exists (graph layers do not support parallel
    /// edges).
    EdgeAlreadyExists(VertexId, VertexId),
}

impl fmt::Display for DynSldError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DynSldError::WouldCreateCycle(u, v) => {
                write!(f, "inserting ({u}, {v}) would create a cycle")
            }
            DynSldError::EdgeNotFound(u, v) => write!(f, "no edge between {u} and {v}"),
            DynSldError::VertexOutOfRange(v) => write!(f, "vertex {v} out of range"),
            DynSldError::SelfLoop(v) => write!(f, "self loop at {v} not allowed"),
            DynSldError::SpineIndexRequired => write!(
                f,
                "output-sensitive updates require DynSldOptions::maintain_spine_index"
            ),
            DynSldError::ConflictingBatch(u, v) => {
                write!(
                    f,
                    "batch update ({u}, {v}) conflicts with an earlier update in the batch"
                )
            }
            DynSldError::EdgeAlreadyExists(u, v) => {
                write!(f, "an edge between {u} and {v} already exists")
            }
        }
    }
}

impl std::error::Error for DynSldError {}

/// Counters describing the most recent update (and running totals), used by tests and by the
/// benchmark harness to verify the paper's output-sensitivity and height-bounded claims.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct UpdateStats {
    /// Parent-pointer changes performed by the last update — the paper's parameter `c`.
    pub last_pointer_changes: usize,
    /// Spine nodes visited by the last update — the height-bounded work proxy.
    pub last_spine_nodes: usize,
    /// Dynamic-tree (PWS / median / connectivity) queries issued by the last update.
    pub last_tree_queries: usize,
    /// Total parent-pointer changes since construction.
    pub total_pointer_changes: u64,
}

impl UpdateStats {
    pub(crate) fn begin_update(&mut self) {
        self.last_pointer_changes = 0;
        self.last_spine_nodes = 0;
        self.last_tree_queries = 0;
    }
}

/// The link-cut tree mirror of the dendrogram ("spine index").
#[derive(Clone, Debug, Default)]
pub(crate) struct SpineIndex {
    pub(crate) lct: LinkCutTree,
    /// Dendrogram node (edge id) -> LCT node.
    pub(crate) node_of_edge: Vec<Option<LctNodeId>>,
    /// Reverse mapping: LCT node -> dendrogram node (edge id).
    pub(crate) edge_of_node: Vec<EdgeId>,
}

impl SpineIndex {
    pub(crate) fn node(&self, e: EdgeId) -> LctNodeId {
        self.node_of_edge[e.index()].expect("spine index node must exist for alive edges")
    }

    pub(crate) fn edge_of(&self, node: LctNodeId) -> EdgeId {
        self.edge_of_node[node]
    }

    fn ensure_node(&mut self, e: EdgeId, key: RankKey) -> LctNodeId {
        if self.node_of_edge.len() <= e.index() {
            self.node_of_edge.resize(e.index() + 1, None);
        }
        match self.node_of_edge[e.index()] {
            Some(id) => {
                self.lct.set_key(id, Some(key));
                id
            }
            None => {
                let id = self.lct.add_node(Some(key));
                self.node_of_edge[e.index()] = Some(id);
                debug_assert_eq!(self.edge_of_node.len(), id);
                self.edge_of_node.push(e);
                id
            }
        }
    }
}

/// Fully-dynamic explicit single-linkage dendrogram (the paper's DynSLD).
///
/// See the [crate-level documentation](crate) for an overview and the module docs of
/// [`crate::seq`], [`crate::outsens`], [`crate::par`], [`crate::batch`] for the individual
/// update algorithms.
#[derive(Clone, Debug)]
pub struct DynSld {
    pub(crate) forest: Forest,
    pub(crate) dendro: Dendrogram,
    /// Euler-tour forest over the input (connectivity, component sizes, member iteration).
    pub(crate) conn: EulerTourForest,
    /// Scratch of the deletions' side assignment over `conn` (see [`crate::sides`]).
    pub(crate) sides: SideScratch,
    /// Link-cut tree over the input forest (vertex nodes + keyed edge nodes) for path-maximum
    /// (threshold) queries.
    pub(crate) input_lct: LinkCutTree,
    pub(crate) input_vertex_node: Vec<LctNodeId>,
    pub(crate) input_edge_node: Vec<Option<LctNodeId>>,
    /// Optional link-cut tree mirroring the dendrogram.
    pub(crate) spine: Option<SpineIndex>,
    pub(crate) options: DynSldOptions,
    pub(crate) stats: UpdateStats,
    /// Monotone structural version: incremented once per edge insertion or deletion actually
    /// applied (batch operations advance it once per edge). Serving layers (`dynsld-engine`)
    /// use it to tag snapshots and detect staleness.
    pub(crate) version: u64,
    /// Dirty-set tracker feeding [`DynSld::export_snapshot_incremental`].
    pub(crate) export: ExportTracker,
}

impl DynSld {
    /// Creates an empty structure over `n` isolated vertices with default options.
    pub fn new(n: usize) -> Self {
        Self::with_options(n, DynSldOptions::default())
    }

    /// Creates an empty structure over `n` isolated vertices.
    pub fn with_options(n: usize, options: DynSldOptions) -> Self {
        let mut input_lct = LinkCutTree::with_capacity(2 * n);
        let input_vertex_node = (0..n).map(|_| input_lct.add_node(None)).collect();
        DynSld {
            forest: Forest::new(n),
            dendro: Dendrogram::new(),
            conn: EulerTourForest::new(n),
            sides: SideScratch::default(),
            input_lct,
            input_vertex_node,
            input_edge_node: Vec::new(),
            spine: options.maintain_spine_index.then(SpineIndex::default),
            options,
            stats: UpdateStats::default(),
            version: 0,
            export: ExportTracker::default(),
        }
    }

    /// Builds the structure for an existing forest in bulk (static construction followed by
    /// index building), which is much faster than inserting the edges one at a time.
    pub fn from_forest(forest: Forest, options: DynSldOptions) -> Self {
        let dendro = static_sld::static_sld_parallel(&forest);
        let n = forest.num_vertices();
        let mut conn = EulerTourForest::new(n);
        let mut input_lct = LinkCutTree::with_capacity(2 * n);
        let input_vertex_node: Vec<LctNodeId> = (0..n).map(|_| input_lct.add_node(None)).collect();
        let mut input_edge_node: Vec<Option<LctNodeId>> = vec![None; forest.edge_id_bound()];
        for (e, data) in forest.edges() {
            conn.link(data.u, data.v, e);
            let en = input_lct.add_node(Some(forest.rank(e)));
            input_edge_node[e.index()] = Some(en);
            input_lct.link_edge(input_vertex_node[data.u.index()], en);
            input_lct.link_edge(en, input_vertex_node[data.v.index()]);
        }
        let spine = options.maintain_spine_index.then(|| {
            let mut idx = SpineIndex::default();
            for e in dendro.nodes() {
                idx.ensure_node(e, forest.rank(e));
            }
            for e in dendro.nodes() {
                if let Some(p) = dendro.parent(e) {
                    let child = idx.node(e);
                    let parent = idx.node(p);
                    idx.lct.link(child, parent);
                }
            }
            idx
        });
        DynSld {
            forest,
            dendro,
            conn,
            sides: SideScratch::default(),
            input_lct,
            input_vertex_node,
            input_edge_node,
            spine,
            options,
            stats: UpdateStats::default(),
            version: 0,
            export: ExportTracker::default(),
        }
    }

    // ----- accessors -----------------------------------------------------------------------

    /// The input forest.
    pub fn forest(&self) -> &Forest {
        &self.forest
    }

    /// The explicit dendrogram.
    pub fn dendrogram(&self) -> &Dendrogram {
        &self.dendro
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.forest.num_vertices()
    }

    /// Number of edges (= dendrogram nodes).
    pub fn num_edges(&self) -> usize {
        self.forest.num_edges()
    }

    /// Statistics of the most recent update.
    pub fn stats(&self) -> &UpdateStats {
        &self.stats
    }

    /// Monotone structural version counter: advances by one for every edge insertion or
    /// deletion applied (a batch of `k` updates advances it by `k`) and for every
    /// [`add_vertices`](Self::add_vertices) call. Two calls returning the same value bracket a
    /// window with no structural change, which is what snapshot layers need to decide whether
    /// a cached view is still current.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The options the structure was built with.
    pub fn options(&self) -> DynSldOptions {
        self.options
    }

    /// Parent of dendrogram node `e`.
    pub fn parent_of(&self, e: EdgeId) -> Option<EdgeId> {
        self.dendro.parent(e)
    }

    /// Current dendrogram height (`h`). `O(n log n)` — intended for tests and benchmarks.
    pub fn height(&self) -> usize {
        self.dendro.height(&self.forest)
    }

    /// Whether `u` and `v` are currently connected in the input forest.
    pub fn connected(&self, u: VertexId, v: VertexId) -> bool {
        self.conn.connected(u, v)
    }

    /// Size of the input-forest component containing `v`.
    pub fn component_size(&self, v: VertexId) -> usize {
        self.conn.component_size(v)
    }

    /// An opaque identifier of the component containing `v`: two vertices have equal
    /// representatives iff they are connected. Stable only until the next update — useful for
    /// bucketing many vertices by component without `O(pairs)` connectivity queries (the batch
    /// routing in `dynsld-msf`/`dynsld-engine` relies on this).
    pub fn component_repr(&self, v: VertexId) -> usize {
        self.conn.component_repr(v)
    }

    /// Adds `k` isolated vertices and returns the first new vertex id.
    pub fn add_vertices(&mut self, k: usize) -> VertexId {
        // Adding vertices changes what snapshots derive (component counts, singleton
        // clusters), so it must advance the structural version like any other update.
        self.version += 1;
        let first = self.forest.add_vertices(k);
        self.conn.add_vertices(k);
        for _ in 0..k {
            self.input_vertex_node.push(self.input_lct.add_node(None));
        }
        first
    }

    /// Rank key of edge `e` (panics if `e` is not alive).
    pub fn rank(&self, e: EdgeId) -> RankKey {
        self.forest.rank(e)
    }

    // ----- dispatching update API -----------------------------------------------------------

    /// Inserts the edge `(u, v)` with weight `weight`, using the strategy configured in the
    /// options, and returns the new edge id.
    pub fn insert(
        &mut self,
        u: VertexId,
        v: VertexId,
        weight: Weight,
    ) -> Result<EdgeId, DynSldError> {
        match self.options.strategy {
            UpdateStrategy::Sequential => self.insert_seq(u, v, weight),
            UpdateStrategy::OutputSensitive => self.insert_output_sensitive(u, v, weight),
            UpdateStrategy::Parallel => self.insert_parallel(u, v, weight),
            UpdateStrategy::ParallelOutputSensitive => {
                self.insert_output_sensitive_parallel(u, v, weight)
            }
        }
    }

    /// Deletes the edge between `u` and `v`, using the strategy configured in the options, and
    /// returns its edge id.
    pub fn delete(&mut self, u: VertexId, v: VertexId) -> Result<EdgeId, DynSldError> {
        match self.options.strategy {
            UpdateStrategy::Sequential | UpdateStrategy::OutputSensitive => self.delete_seq(u, v),
            UpdateStrategy::Parallel | UpdateStrategy::ParallelOutputSensitive => {
                self.delete_parallel(u, v)
            }
        }
    }

    // ----- internal plumbing shared by the update algorithms --------------------------------

    /// Validates endpoints and returns an error if the insertion is illegal.
    pub(crate) fn check_insert(&self, u: VertexId, v: VertexId) -> Result<(), DynSldError> {
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
        Ok(())
    }

    /// Performs the bookkeeping common to every insertion algorithm: inserts the edge into the
    /// forest and the connectivity/path structures, creates the (isolated) dendrogram node, and
    /// returns the new edge id together with the characteristic edges `e*_u` and `e*_v`.
    pub(crate) fn register_insert(
        &mut self,
        u: VertexId,
        v: VertexId,
        weight: Weight,
    ) -> (EdgeId, Option<EdgeId>, Option<EdgeId>) {
        self.version += 1;
        let e = self.forest.insert_edge(u, v, weight);
        self.export.touch(e);
        let e_star_u = self.forest.min_incident_excluding(u, e);
        let e_star_v = self.forest.min_incident_excluding(v, e);
        for (x, e_star) in [(u, e_star_u), (v, e_star_v)] {
            // The lowest edge at `x` is the new one unless an older one ranks below it.
            let lowest = e_star.filter(|&s| self.forest.rank_lt(s, e)).unwrap_or(e);
            self.export.touch_lowest(x, Some(lowest));
        }
        self.dendro.add_node(e);
        if let Some(spine) = &mut self.spine {
            spine.ensure_node(e, RankKey::new(weight, e));
        }
        // Connectivity and path-query structures.
        self.conn.link(u, v, e);
        let en = self.ensure_input_edge_node(e, RankKey::new(weight, e));
        let un = self.input_vertex_node[u.index()];
        let vn = self.input_vertex_node[v.index()];
        self.input_lct.link_edge(un, en);
        self.input_lct.link_edge(en, vn);
        (e, e_star_u, e_star_v)
    }

    /// Performs the bookkeeping common to every deletion algorithm *before* the dendrogram is
    /// repaired: removes the edge from the forest and from the connectivity/path structures
    /// (so connectivity queries reflect the post-deletion components) and returns the
    /// [`Cut`], which carries the characteristic edges `e*_u` and `e*_v` of the two sides.
    pub(crate) fn register_delete(&mut self, e: EdgeId) -> Cut {
        self.version += 1;
        self.export.touch(e);
        let (u, v) = self.forest.endpoints(e);
        let rank = self.forest.rank(e);
        let e_star = [u, v].map(|x| self.forest.min_incident_excluding(x, e));
        // With `e` gone, the characteristic edge of each side is its endpoint's lowest edge.
        self.export.touch_lowest(u, e_star[0]);
        self.export.touch_lowest(v, e_star[1]);
        self.conn.cut(e);
        let en = self.input_edge_node[e.index()].expect("edge node exists");
        let un = self.input_vertex_node[u.index()];
        let vn = self.input_vertex_node[v.index()];
        self.input_lct.cut_edge(en, un);
        self.input_lct.cut_edge(en, vn);
        self.forest.delete_edge(e);
        Cut {
            e,
            rank,
            u,
            v,
            e_star,
        }
    }

    fn ensure_input_edge_node(&mut self, e: EdgeId, key: RankKey) -> LctNodeId {
        if self.input_edge_node.len() <= e.index() {
            self.input_edge_node.resize(e.index() + 1, None);
        }
        match self.input_edge_node[e.index()] {
            Some(id) => {
                self.input_lct.set_key(id, Some(key));
                id
            }
            None => {
                let id = self.input_lct.add_node(Some(key));
                self.input_edge_node[e.index()] = Some(id);
                id
            }
        }
    }

    /// Changes the dendrogram parent of `e`, keeping the spine index and statistics in sync.
    pub(crate) fn set_parent(&mut self, e: EdgeId, new_parent: Option<EdgeId>) {
        let old = self.dendro.parent(e);
        if old == new_parent {
            return;
        }
        let changed = self.dendro.set_parent(e, new_parent);
        debug_assert!(changed);
        self.export.touch(e);
        if let Some(spine) = &mut self.spine {
            let node = spine.node(e);
            if old.is_some() {
                spine.lct.cut_from_parent(node);
            }
            if let Some(p) = new_parent {
                let parent_node = spine.node(p);
                spine.lct.link(node, parent_node);
            }
        }
        self.stats.last_pointer_changes += 1;
        self.stats.total_pointer_changes += 1;
    }

    /// Removes the (already detached) dendrogram node of a deleted edge.
    pub(crate) fn destroy_node(&mut self, e: EdgeId) {
        self.set_parent(e, None);
        self.export.touch(e);
        self.dendro.remove_node(e);
        // The spine-index LCT node (if any) is left isolated and will be re-keyed if the edge id
        // is recycled.
    }

    /// The sequential height-bounded spine merge (Algorithm 1 / `SLD-Merge` specialised to two
    /// spines): merges the spine of `a` with the spine of `b`, where `a` and `b` are currently
    /// in different dendrogram trees. `O(h)`.
    pub(crate) fn merge_spines_seq(&mut self, a: EdgeId, b: EdgeId) {
        let mut x = Some(a);
        let mut y = Some(b);
        while let (Some(xa), Some(yb)) = (x, y) {
            self.stats.last_spine_nodes += 1;
            if self.forest.rank(xa) > self.forest.rank(yb) {
                // Keep `x` as the smaller-rank head.
                x = Some(yb);
                y = Some(xa);
                continue;
            }
            let px = self.dendro.parent(xa);
            match px {
                Some(p) if self.forest.rank(p) < self.forest.rank(yb) => {
                    // The next node of x's own spine still precedes the head of the other spine;
                    // xa keeps its parent.
                    x = Some(p);
                }
                _ => {
                    // The other spine's head is the successor of xa in the merged order.
                    self.set_parent(xa, Some(yb));
                    x = px;
                }
            }
        }
    }

    /// Verifies all internal invariants (dendrogram structure and, if enabled, the spine-index
    /// mirror). Intended for tests; `O(n log n)`.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.dendro.validate(&self.forest)?;
        if let Some(spine) = &self.spine {
            // The spine index must agree with the dendrogram's parent pointers.
            let mut lct = spine.lct.clone();
            for e in self.dendro.nodes() {
                let node = spine.node_of_edge[e.index()].ok_or("missing spine node")?;
                let lct_parent = lct.represented_parent(node);
                let expect = self.dendro.parent(e).map(|p| spine.node(p));
                if lct_parent != expect {
                    return Err(format!("spine index parent mismatch at {e}"));
                }
            }
        }
        Ok(())
    }

    /// Returns the dendrogram produced by statically recomputing the SLD of the current forest
    /// — the oracle the dynamic algorithms are tested against.
    pub fn recompute_static(&self) -> Dendrogram {
        static_sld::static_sld_kruskal(&self.forest)
    }
}
