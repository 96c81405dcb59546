//! Immutable dendrogram snapshots.
//!
//! [`DynSld`] is a mutable structure whose queries partly require `&mut self` (the link-cut
//! trees splay on reads), so it cannot be shared with concurrent readers. A
//! [`DendrogramSnapshot`] is a self-contained copy of the current dendrogram — one record per
//! alive edge with endpoints, weight, and dendrogram parent, in rank order, plus a point index
//! over those records — that answers the clustering queries *immutably* (`&self`), is
//! `Send + Sync`, and is cheap to ship across threads. The serving layer (`dynsld-engine`)
//! publishes one snapshot per ingest epoch so that readers never observe a half-applied batch.
//!
//! Four queries are native to the export and allocate nothing: `num_components` (`n - m`),
//! `num_clusters(tau)` (a binary search for the end of the merged prefix), and
//! `threshold_connected` / `merge_height_between`, which walk parent pointers from a vertex's
//! lowest incident record — `O(depth)`, not the `O(log n)` of the live structure's path
//! queries (Table 2), but with no sweep of the other `n + m - depth` records. Only
//! `flat_clustering`, which has `Θ(n)` output, is a union-find pass over the prefix.
//!
//! # The record sequence: [`RankedNodes`]
//!
//! The records live in a persistent chunked sequence: a list of `Arc<[SnapshotNode]>` chunks
//! whose concatenation is strictly rank-sorted. Chunk invariants, kept by every constructor
//! (the fields are private):
//!
//! * no chunk is empty and no chunk holds more than `2 * CHUNK` records;
//! * a sequence of two or more chunks has no chunk below `CHUNK / 2` records (a lone chunk
//!   may be any size up to `2 * CHUNK`; the empty sequence has no chunk).
//!
//! An export after a small change ([`DynSld::export_snapshot_incremental`]) *splices*: it
//! copies the chunk-pointer list and rewrites only the chunks a changed rank key lands in
//! (plus at most one neighbour when a rewritten run falls below `CHUNK / 2`), each at most
//! once — `O(m / CHUNK + k * CHUNK + k log m)` for `k` changed records instead of `Θ(m)`.
//! Every other chunk is the *same allocation* in the previous snapshot, the new snapshot and
//! the exporter's cache, and those three hold the pointer list itself as one shared
//! allocation: cloning a snapshot is two reference-count increments, and a consumer comparing
//! two snapshots can skip a chunk both hold ([`Arc::ptr_eq`]) without reading it.
//!
//! # The point index
//!
//! Two persistent arrays of fixed-size (4 KiB) chunks, read by position, never searched:
//!
//! * by edge id: the `(weight, parent)` of the id's record, or "no record" — an id has a
//!   record here iff it has one in the record sequence, with the same two fields, bit for bit;
//! * by vertex: the lowest-ranked record the vertex is an endpoint of (the paper's `e*_v`,
//!   `Forest::min_incident`), or none for an isolated vertex.
//!
//! Every chunk of an array is exactly full-length; slots past the last edge id or vertex are
//! empty. The exporter advances the index next to the splice: one write per dirty edge id
//! (the record it has just read) and one per endpoint of an inserted or deleted edge (noted
//! by the update itself, which looks `e*` up anyway), each copying the chunk it lands in the
//! first time and writing in place after that — so consecutive exports share every index
//! chunk no changed id falls in, as they do record chunks. A full rebuild, delta replay and
//! wire decoding build the same index from the records alone, in one pass over the rank
//! order (a vertex's lowest record is the first that names it) — the latter two only when a
//! point query asks for it.
//!
//! Sharing is sound because nothing is ever written through a published chunk: a chunk is
//! immutable from the moment it is sealed (a splice builds new chunks, it never edits one;
//! the index writes in place only to chunks it allocated in the same export),
//! and an edge record is immutable per id per export window — the exporter re-reads exactly
//! the ids marked dirty since the last export, and a record of a non-dirty id is provably
//! unchanged (weight and endpoints are fixed for the lifetime of an id; every parent change,
//! deletion and id reuse marks the id). A held snapshot therefore keeps answering for its
//! version however many later exports share its chunks.

mod index;

use crate::dynsld::DynSld;
use crate::queries::FlatClustering;
use dynsld_forest::{EdgeId, RankKey, VertexId, Weight};
use index::{EdgeSlot, IndexWriter, PointIndex};
use std::sync::{Arc, OnceLock};

/// One dendrogram node in a snapshot: an input-forest edge plus its dendrogram parent.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct SnapshotNode {
    /// The edge id (identifies the dendrogram node).
    pub edge: EdgeId,
    /// First endpoint.
    pub u: VertexId,
    /// Second endpoint.
    pub v: VertexId,
    /// Edge weight (the merge height of this dendrogram node).
    pub weight: Weight,
    /// Dendrogram parent, if any.
    pub parent: Option<EdgeId>,
}

impl SnapshotNode {
    /// The record's position in rank order: `(weight, edge id)` ascending, total on all
    /// floats (`-0.0` ranks before `0.0`).
    pub fn rank_key(&self) -> RankKey {
        RankKey::new(self.weight, self.edge)
    }
}

/// Whether a threshold cut at `tau` applies a merge of weight `weight`: every merge but those
/// the sweep's `weight > tau` test stops at — so all of them for a NaN `tau`.
fn merges(weight: Weight, tau: Weight) -> bool {
    weight.partial_cmp(&tau) != Some(std::cmp::Ordering::Greater)
}

/// Target chunk length of [`RankedNodes`]: chunks are split above twice this and merged
/// below half of it. Unit tests shrink it so that a few dozen records already exercise
/// splits, merges and multi-chunk splices.
const CHUNK: usize = if cfg!(test) { 4 } else { 64 };
const CHUNK_MIN: usize = CHUNK / 2;
const CHUNK_MAX: usize = 2 * CHUNK;

/// A persistent rank-ordered sequence of [`SnapshotNode`]s (see the [module docs](self) for
/// the chunk invariants). The chunk-pointer list sits behind one `Arc`, so cloning is one
/// atomic increment; equality is by content, whatever the chunk boundaries.
#[derive(Clone, Debug, Default)]
pub struct RankedNodes {
    chunks: Arc<[Arc<[SnapshotNode]>]>,
    len: usize,
}

impl PartialEq for RankedNodes {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl RankedNodes {
    /// Chunks a rank-sorted record list. The caller vouches for the order: consumers merge
    /// linearly and the splice binary-searches chunk heads.
    pub fn from_sorted(nodes: &[SnapshotNode]) -> RankedNodes {
        let mut builder = RankedNodesBuilder::with_chunk_capacity(nodes.len() / CHUNK + 1);
        builder.seal_evenly(nodes);
        builder.finish()
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the sequence holds no record.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The records in rank order.
    pub fn iter(&self) -> impl Iterator<Item = &SnapshotNode> + Clone + '_ {
        self.chunks.iter().flat_map(|chunk| chunk.iter())
    }

    /// The chunks in rank order. Two sequences holding the same `Arc` hold the same records
    /// there — consumers walking two related snapshots use it to skip the unchanged bulk.
    pub fn chunks(&self) -> &[Arc<[SnapshotNode]>] {
        &self.chunks
    }

    /// A flat copy of the records.
    pub fn to_vec(&self) -> Vec<SnapshotNode> {
        let mut out = Vec::with_capacity(self.len);
        for chunk in self.chunks.iter() {
            out.extend_from_slice(chunk);
        }
        out
    }

    /// How many records a threshold cut at `tau` merges: the length of the prefix before the
    /// first record of weight `> tau` (all of them for a NaN `tau`, as in the sweep). Binary
    /// search over the chunk heads and inside one chunk, plus one pass over the chunk-length
    /// list; allocates nothing.
    fn merged_at(&self, tau: Weight) -> usize {
        let Some(at) = self
            .chunks
            .partition_point(|chunk| merges(chunk[0].weight, tau))
            .checked_sub(1)
        else {
            return 0;
        };
        let before: usize = self.chunks[..at].iter().map(|chunk| chunk.len()).sum();
        before + self.chunks[at].partition_point(|node| merges(node.weight, tau))
    }

    /// The chunk at or after `from` that `key` lands in: the last one whose head is `<= key`
    /// (the first chunk for a key below every head). Requires a non-empty sequence.
    fn landing_chunk(&self, from: usize, key: RankKey) -> usize {
        let heads_at_or_below = self.chunks[from..].partition_point(|c| c[0].rank_key() <= key);
        from + heads_at_or_below.saturating_sub(1)
    }

    /// The sequence with `edits` applied, plus the number of chunks it had to allocate; all
    /// other chunks are shared with `self`. The edits are sorted by key, one per key.
    fn splice(&self, edits: &[Edit]) -> (RankedNodes, usize) {
        if edits.is_empty() {
            return (self.clone(), 0);
        }
        let mut builder = RankedNodesBuilder::with_chunk_capacity(self.chunks.len() + 1);
        if self.chunks.is_empty() {
            // Everything is new.
            for edit in edits {
                builder.extend_from_slice(edit.put.as_slice());
            }
            return builder.finish_counted();
        }
        let mut edits = edits.iter().peekable();
        let mut next = 0;
        while let Some(first) = edits.peek() {
            // Every outstanding key is at or above the head of chunk `next`: the previous
            // round consumed everything below it.
            let at = self.landing_chunk(next, first.key);
            for chunk in &self.chunks[next..at] {
                builder.share(chunk);
            }
            // This chunk takes every key below the next chunk's head; between two keys its
            // records are copied as one run.
            let upper = self.chunks.get(at + 1).map(|c| c[0].rank_key());
            let mut rest: &[SnapshotNode] = &self.chunks[at];
            while let Some(edit) = edits.next_if(|e| upper.is_none_or(|u| e.key < u)) {
                let run = rest.iter().take_while(|n| n.rank_key() < edit.key).count();
                builder.extend_from_slice(&rest[..run]);
                rest = &rest[run..];
                let replaces = rest.first().is_some_and(|n| n.rank_key() == edit.key);
                rest = &rest[usize::from(replaces)..];
                match edit.put {
                    Some(node) => builder.push(node),
                    // The exporter took the key from the export being spliced.
                    None => debug_assert!(replaces, "{:?} is not in the export", edit.key),
                }
            }
            builder.extend_from_slice(rest);
            next = at + 1;
        }
        for chunk in &self.chunks[next..] {
            builder.share(chunk);
        }
        builder.finish_counted()
    }
}

/// One change to a [`RankedNodes`]: the record at `key`, if there is one, goes, and `put`, if
/// any, takes that place in rank order (`put.rank_key() == key`).
#[derive(Copy, Clone, Debug)]
struct Edit {
    key: RankKey,
    put: Option<SnapshotNode>,
}

/// Builds a [`RankedNodes`] front to back from single records and from whole chunks of an
/// existing sequence, keeping the chunk invariants. The one constructor behind
/// [`RankedNodes::from_sorted`], the exporter's splice and delta replay.
#[derive(Debug, Default)]
pub struct RankedNodesBuilder {
    chunks: Vec<Arc<[SnapshotNode]>>,
    len: usize,
    /// Records appended since the last seal, not yet in a chunk.
    pending: Vec<SnapshotNode>,
    /// How many of `chunks` this builder allocated (the rest were shared in).
    sealed: usize,
    /// Whether the last of `chunks` is one of those.
    last_sealed: bool,
}

impl RankedNodesBuilder {
    /// An empty builder with room for `chunks` chunk pointers.
    pub fn with_chunk_capacity(chunks: usize) -> RankedNodesBuilder {
        RankedNodesBuilder {
            chunks: Vec::with_capacity(chunks),
            ..RankedNodesBuilder::default()
        }
    }

    /// Appends one record (rank above everything appended so far).
    pub fn push(&mut self, node: SnapshotNode) {
        self.pending.push(node);
        if self.pending.len() > CHUNK_MAX {
            self.seal_pending();
        }
    }

    /// Appends a run of records (ranks ascending, above everything appended so far).
    fn extend_from_slice(&mut self, nodes: &[SnapshotNode]) {
        self.pending.extend_from_slice(nodes);
        if self.pending.len() > CHUNK_MAX {
            self.seal_pending();
        }
    }

    /// Appends a whole chunk of an existing sequence (ranks above everything appended so
    /// far) without copying it — unless the records pushed just before it are too few to
    /// stand as a chunk of their own, in which case the run absorbs it.
    pub fn share(&mut self, chunk: &Arc<[SnapshotNode]>) {
        let stands_alone = chunk.len() >= CHUNK_MIN;
        if stands_alone && self.pending.len() >= CHUNK_MIN {
            self.seal_pending();
        }
        if stands_alone && self.pending.is_empty() {
            self.chunks.push(Arc::clone(chunk));
            self.len += chunk.len();
            self.last_sealed = false;
        } else {
            self.pending.extend_from_slice(chunk);
        }
    }

    /// The finished sequence.
    pub fn finish(self) -> RankedNodes {
        self.finish_counted().0
    }

    /// The finished sequence and the number of its chunks this builder allocated.
    fn finish_counted(mut self) -> (RankedNodes, usize) {
        if !self.pending.is_empty() && self.pending.len() < CHUNK_MIN {
            // A short tail cannot stand alone next to other chunks: it joins the last one.
            if let Some(last) = self.chunks.pop() {
                self.len -= last.len();
                self.sealed -= usize::from(self.last_sealed);
                let mut joined = last.to_vec();
                joined.append(&mut self.pending);
                self.pending = joined;
            }
        }
        self.seal_pending();
        let nodes = RankedNodes {
            chunks: Arc::from(self.chunks),
            len: self.len,
        };
        (nodes, self.sealed)
    }

    /// Seals `records` as chunks of `CHUNK..2 * CHUNK` records each, evenly sized (one
    /// chunk, of any size, for fewer than `2 * CHUNK` records; none for none).
    fn seal_evenly(&mut self, records: &[SnapshotNode]) {
        if records.is_empty() {
            return;
        }
        let pieces = (records.len() / CHUNK).max(1);
        let (base, longer) = (records.len() / pieces, records.len() % pieces);
        let mut rest = records;
        for piece in 0..pieces {
            let (head, tail) = rest.split_at(base + usize::from(piece < longer));
            self.chunks.push(Arc::from(head));
            rest = tail;
        }
        self.len += records.len();
        self.sealed += pieces;
        self.last_sealed = true;
    }

    fn seal_pending(&mut self) {
        let pending = std::mem::take(&mut self.pending);
        self.seal_evenly(&pending);
        self.pending = pending;
        self.pending.clear();
    }
}

/// Path-compressing find over a flat parent array — the union-find primitive of the sweep
/// behind [`DendrogramSnapshot::flat_clustering`].
fn find(parent: &mut [u32], x: u32) -> u32 {
    let mut root = x;
    while parent[root as usize] != root {
        root = parent[root as usize];
    }
    let mut cur = x;
    while parent[cur as usize] != root {
        let next = parent[cur as usize];
        parent[cur as usize] = root;
        cur = next;
    }
    root
}

/// An immutable copy of a [`DynSld`] dendrogram at one structural version.
///
/// Nodes are sorted by rank (`(weight, edge id)` ascending), so a prefix of the node sequence
/// is exactly the set of merges performed up to any threshold: counting clusters is a binary
/// search, and a flat clustering is a single union-find pass over the prefix. Point queries
/// walk parent pointers through the point index (see the [module docs](self)).
///
/// Equality compares `version`, `num_vertices` and the records; the index is derived from
/// them. The fields are public to read — a snapshot is assembled with
/// [`from_records`](Self::from_records), which is what keeps the index in step.
#[derive(Clone, Debug)]
pub struct DendrogramSnapshot {
    /// The [`DynSld::version`] at export time.
    pub version: u64,
    /// Number of vertices of the input forest.
    pub num_vertices: usize,
    /// All alive dendrogram nodes, sorted by rank.
    pub nodes: RankedNodes,
    /// Set by the exporter, which advances it from the export before; built from `nodes` on
    /// the first point query otherwise.
    index: OnceLock<PointIndex>,
}

impl PartialEq for DendrogramSnapshot {
    fn eq(&self, other: &Self) -> bool {
        self.version == other.version
            && self.num_vertices == other.num_vertices
            && self.nodes == other.nodes
    }
}

impl DendrogramSnapshot {
    /// A snapshot of `nodes` over `num_vertices` vertices (every endpoint below it). Its point
    /// index is built on the first point query — delta replay and wire decoding come through
    /// here and pay nothing for views nobody walks.
    pub fn from_records(version: u64, num_vertices: usize, nodes: RankedNodes) -> Self {
        DendrogramSnapshot {
            version,
            num_vertices,
            nodes,
            index: OnceLock::new(),
        }
    }

    fn index(&self) -> &PointIndex {
        self.index.get_or_init(|| {
            let edge_bound = self.nodes.iter().map(|node| node.edge.index() + 1).max();
            PointIndex::from_records(
                self.nodes.iter(),
                self.num_vertices,
                edge_bound.unwrap_or(0),
            )
        })
    }

    /// Number of dendrogram nodes (= alive forest edges).
    pub fn num_edges(&self) -> usize {
        self.nodes.len()
    }

    /// Number of connected components of the input forest (`n - m` for a forest).
    pub fn num_components(&self) -> usize {
        self.num_vertices - self.nodes.len()
    }

    /// Number of clusters at threshold `tau`: every merge of weight `<= tau` joins two.
    /// `O(log m + m / chunk)`, no allocation.
    pub fn num_clusters(&self, tau: Weight) -> usize {
        self.num_vertices - self.nodes.merged_at(tau)
    }

    /// Union-find over the merges of weight `<= tau`, every root the smallest vertex of its
    /// cluster.
    fn merged_up_to(&self, tau: Weight) -> Vec<u32> {
        let mut parent: Vec<u32> = (0..self.num_vertices as u32).collect();
        // Nodes are rank-sorted, so the merges below the threshold are a prefix.
        for node in self.nodes.iter() {
            if node.weight > tau {
                break;
            }
            let a = find(&mut parent, node.u.0);
            let b = find(&mut parent, node.v.0);
            // Union by smaller root id keeps the representative canonical (the smallest
            // vertex of the cluster), which makes labels deterministic.
            parent[a.max(b) as usize] = a.min(b);
        }
        parent
    }

    /// The flat clustering at threshold `tau` (all merges of weight `<= tau` applied).
    ///
    /// Labels are canonical: clusters are numbered by their smallest member vertex, in
    /// increasing order, and member lists are sorted — two snapshots of equal partitions
    /// produce identical `FlatClustering` values. `O(n α(n))`.
    pub fn flat_clustering(&self, tau: Weight) -> FlatClustering {
        let n = self.num_vertices;
        let mut parent = self.merged_up_to(tau);
        let mut labels = vec![usize::MAX; n];
        let mut clusters: Vec<Vec<VertexId>> = Vec::new();
        for x in 0..n as u32 {
            let root = find(&mut parent, x) as usize;
            let label = if labels[root] == usize::MAX {
                let label = clusters.len();
                labels[root] = label;
                clusters.push(Vec::new());
                label
            } else {
                labels[root]
            };
            labels[x as usize] = label;
            clusters[label].push(VertexId(x));
        }
        FlatClustering { labels, clusters }
    }

    /// The lowest-ranked record at `x` — id and slot — if `x` has an incident edge.
    fn lowest(&self, x: VertexId) -> Option<(u32, EdgeSlot)> {
        assert!(x.index() < self.num_vertices, "vertex {x} out of range");
        let e = self.index().lowest(x)?;
        Some((e, self.index().record(e)?))
    }

    /// The parent record of `at`. Every export gives a parent a higher rank than its children;
    /// a record list that arrived over a wire and says otherwise ends the walk there (as at a
    /// root) instead of sending it in circles.
    fn parent(&self, (at, slot): (u32, EdgeSlot)) -> Option<(u32, EdgeSlot)> {
        let parent = slot.parent()?;
        let above = self.index().record(parent)?;
        let outranks =
            RankKey::new(above.weight, EdgeId(parent)) > RankKey::new(slot.weight, EdgeId(at));
        outranks.then_some((parent, above))
    }

    /// The record defining the cluster of `x` at threshold `tau` — the last ancestor of `x`'s
    /// lowest record with weight `<= tau`; none when `x` is a singleton there — and the number
    /// of records the walk read.
    fn cluster_root(&self, x: VertexId, tau: Weight) -> (Option<u32>, usize) {
        let Some(mut at) = self.lowest(x) else {
            return (None, 0);
        };
        let mut steps = 1;
        if at.1.weight > tau {
            return (None, steps);
        }
        while let Some(above) = self.parent(at) {
            steps += 1;
            if above.1.weight > tau {
                break;
            }
            at = above;
        }
        (Some(at.0), steps)
    }

    /// Whether `s` and `t` are in the same cluster at threshold `tau`: both walk up from
    /// their lowest record to the last ancestor of weight `<= tau` and compare. `O(depth)`,
    /// no allocation.
    pub fn threshold_connected(&self, s: VertexId, t: VertexId, tau: Weight) -> bool {
        self.threshold_connected_counted(s, t, tau).0
    }

    /// [`threshold_connected`](Self::threshold_connected) plus the number of records the two
    /// walks read — what a serving view charges against the cost of building the whole
    /// clustering instead.
    pub fn threshold_connected_counted(
        &self,
        s: VertexId,
        t: VertexId,
        tau: Weight,
    ) -> (bool, usize) {
        if s == t {
            return (true, 0);
        }
        let (a, a_steps) = self.cluster_root(s, tau);
        let (b, b_steps) = self.cluster_root(t, tau);
        (a.is_some() && a == b, a_steps + b_steps)
    }

    /// The single-linkage merge distance between `s` and `t` — the weight at which they first
    /// share a cluster — or `None` if they are in different components: the lowest common
    /// ancestor of their lowest records, found by always stepping up from the lower-ranked of
    /// the two (a parent outranks its children). `O(depth)`.
    pub fn merge_height_between(&self, s: VertexId, t: VertexId) -> Option<Weight> {
        if s == t {
            return Some(0.0);
        }
        let (mut a, mut b) = (self.lowest(s)?, self.lowest(t)?);
        while a.0 != b.0 {
            let a_is_lower =
                RankKey::new(a.1.weight, EdgeId(a.0)) < RankKey::new(b.1.weight, EdgeId(b.0));
            if a_is_lower {
                a = self.parent(a)?;
            } else {
                b = self.parent(b)?;
            }
        }
        Some(a.1.weight)
    }
}

/// Counters describing how incremental exports were produced, exposed via
/// [`DynSld::export_stats`]. Tests use them to pin which path ran; benches report them.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct ExportStats {
    /// Exports answered straight from the cache (version unchanged since the last export).
    pub cache_hits: u64,
    /// Exports produced by splicing the dirty set into the cached rank order.
    pub incremental_splices: u64,
    /// Exports that fell back to the full `O(m log m)` rebuild (cold cache, overflowed or
    /// too-large dirty set).
    pub full_rebuilds: u64,
    /// Total dendrogram records re-exported by the splice path (dirty and still alive).
    pub nodes_respliced: u64,
    /// Total chunks the splice path allocated (see [`RankedNodes`]).
    pub chunks_rewritten: u64,
    /// Total chunks the splice path carried over from the previous export unchanged — the
    /// same allocation in both snapshots.
    pub chunks_shared: u64,
    /// Total point-index chunks the splice path copied (one per chunk a changed edge id or
    /// vertex lands in).
    pub index_chunks_rewritten: u64,
    /// Total point-index chunks the splice path carried over from the previous export.
    pub index_chunks_shared: u64,
}

/// Tracks which dendrogram records may differ from the last exported snapshot.
///
/// Every structural mutation funnels through `register_insert` / `register_delete` /
/// `set_parent` / `destroy_node`, each of which marks the touched edge id dirty here. A record
/// of a *non-dirty* edge is provably unchanged: weight and endpoints are fixed for the lifetime
/// of an edge id (re-weighting is delete + insert, and id recycling goes through
/// `register_insert`), and every parent change goes through `set_parent`. A vertex's lowest
/// incident edge changes only when an edge at it comes or goes, so the first two funnels also
/// note what it became at both endpoints (they have just looked it up). The dirty sets are
/// bounded: past [`ExportTracker::DIRTY_CAP`] they overflow and the next export rebuilds fully.
///
/// Edge membership is a generation-stamped slot array, not a hash set: `stamp[e] == generation`
/// means `e` is dirty in the current export window. `touch` dedups with one indexed load and
/// invalidation after an export is a single `generation += 1`. The vertex list is an ordered
/// log, not a set: the export replays it and the last entry of a vertex wins. The key a dirty
/// edge was exported under is read from the cached export's point index.
#[derive(Clone, Debug)]
pub(crate) struct ExportTracker {
    dirty: Vec<EdgeId>,
    stamp: Vec<u64>,
    generation: u64,
    /// What each endpoint's lowest incident edge became, in order of the updates.
    dirty_vertices: Vec<(VertexId, Option<EdgeId>)>,
    overflowed: bool,
    /// The last export, point index included.
    cached: Option<DendrogramSnapshot>,
    /// Scratch of the splice path, kept for its capacity.
    edits: Vec<Edit>,
    stats: ExportStats,
}

impl Default for ExportTracker {
    fn default() -> Self {
        ExportTracker {
            dirty: Vec::new(),
            stamp: Vec::new(),
            // Starts above the all-zero stamps so a fresh tracker has nothing dirty.
            generation: 1,
            dirty_vertices: Vec::new(),
            overflowed: false,
            cached: None,
            edits: Vec::new(),
            stats: ExportStats::default(),
        }
    }
}

impl ExportTracker {
    /// Beyond this many distinct dirty edges, stop tracking and fall back to a full rebuild at
    /// the next export — bounds tracker memory on huge batches, where the splice would lose to
    /// the rebuild anyway.
    const DIRTY_CAP: usize = 1 << 16;

    /// Marks edge `e` as possibly differing from the cached export.
    pub(crate) fn touch(&mut self, e: EdgeId) {
        if self.overflowed {
            return;
        }
        let slot = e.index();
        if slot >= self.stamp.len() {
            self.stamp.resize(slot + 1, 0);
        }
        if self.stamp[slot] == self.generation {
            return;
        }
        if self.dirty.len() >= Self::DIRTY_CAP {
            self.overflow();
            return;
        }
        self.stamp[slot] = self.generation;
        self.dirty.push(e);
    }

    /// Notes that an edge at `x` came or went and `lowest` is now the lowest-ranked edge there
    /// — where the cached export may say otherwise.
    pub(crate) fn touch_lowest(&mut self, x: VertexId, lowest: Option<EdgeId>) {
        if self.overflowed {
            return;
        }
        if self.dirty_vertices.len() >= 2 * Self::DIRTY_CAP {
            self.overflow();
            return;
        }
        self.dirty_vertices.push((x, lowest));
    }

    fn overflow(&mut self) {
        self.overflowed = true;
        self.dirty = Vec::new();
        self.dirty_vertices = Vec::new();
    }
}

impl DynSld {
    fn snapshot_node(&self, e: EdgeId) -> SnapshotNode {
        let (u, v) = self.forest.endpoints(e);
        SnapshotNode {
            edge: e,
            u,
            v,
            weight: self.forest.weight(e),
            parent: self.dendrogram().parent(e),
        }
    }

    /// The full rank-sorted record list — shared by the oracle path and the incremental
    /// fallback, which chunk it.
    fn rebuild_nodes(&self) -> Vec<SnapshotNode> {
        let mut nodes: Vec<SnapshotNode> = self
            .dendrogram()
            .nodes()
            .map(|e| self.snapshot_node(e))
            .collect();
        nodes.sort_by_key(SnapshotNode::rank_key);
        nodes
    }

    /// Exports an immutable snapshot of the current dendrogram (see [`DendrogramSnapshot`]).
    /// `O(m log m)` — always a full rebuild; this is the oracle that
    /// [`export_snapshot_incremental`](Self::export_snapshot_incremental) is tested against and
    /// falls back to.
    pub fn export_snapshot(&self) -> DendrogramSnapshot {
        DendrogramSnapshot::from_records(
            self.version(),
            self.num_vertices(),
            RankedNodes::from_sorted(&self.rebuild_nodes()),
        )
    }

    /// Exports a snapshot, reusing the previous export where possible.
    ///
    /// Cost is proportional to the records touched since the last export, not `O(m log m)`:
    /// unchanged calls clone the cached export; small dirty sets are re-exported and spliced
    /// into the cached rank order and point index, rewriting only the chunks they land in and
    /// sharing the rest with the previous export; anything else (cold cache, dirty-set
    /// overflow, or a dirty set large enough that sorting from scratch is comparable) falls
    /// back to the full rebuild. The result is bit-identical to
    /// [`export_snapshot`](Self::export_snapshot) at every version — pinned by oracle tests.
    pub fn export_snapshot_incremental(&mut self) -> DendrogramSnapshot {
        let version = self.version();
        let num_vertices = self.num_vertices();
        let edge_bound = self.forest.edge_id_bound();
        let cached = match self.export.cached.take() {
            Some(snapshot) if snapshot.version == version => {
                // No structural change since the last export (mutations always bump the
                // version).
                debug_assert!(self.export.dirty.is_empty() && !self.export.overflowed);
                self.export.stats.cache_hits += 1;
                self.export.cached = Some(snapshot.clone());
                return snapshot;
            }
            // Splice only when the dirty set is clearly small relative to the cached export;
            // at a quarter of `m` the re-sort of the dirty records stops paying for itself.
            Some(snapshot)
                if !self.export.overflowed
                    && self.export.dirty.len() <= snapshot.nodes.len() / 4 + 16 =>
            {
                Some(snapshot)
            }
            _ => None,
        };
        let (nodes, index) = if let Some(cached) = cached {
            let was_indexed = cached.index();
            // Each dirty id gives up the key it was exported under, and — if it is still
            // alive (a dirty id may have been deleted, or deleted and recycled; the live
            // structure is authoritative) — gets a fresh record. A record that kept its
            // weight is replaced in place: one edit, not two.
            let mut edits = std::mem::take(&mut self.export.edits);
            let mut respliced = 0;
            let advance = |index: &mut IndexWriter<'_>| {
                for &e in &self.export.dirty {
                    let put = self.dendro.contains(e).then(|| self.snapshot_node(e));
                    let was = was_indexed.record(e.0).map(|s| RankKey::new(s.weight, e));
                    let now = put.map(|node| node.rank_key());
                    index.set_edge(e, put.as_ref());
                    respliced += u64::from(put.is_some());
                    if was != now {
                        edits.extend(was.map(|key| Edit { key, put: None }));
                    }
                    edits.extend(now.map(|key| Edit { key, put }));
                }
                for &(x, lowest) in &self.export.dirty_vertices {
                    index.set_lowest(x, lowest);
                }
            };
            let (index, index_rewritten, index_shared) =
                was_indexed.advance(num_vertices, edge_bound, advance);
            edits.sort_unstable_by_key(|edit| edit.key);
            let (nodes, rewritten) = cached.nodes.splice(&edits);
            let stats = &mut self.export.stats;
            stats.incremental_splices += 1;
            stats.nodes_respliced += respliced;
            stats.chunks_rewritten += rewritten as u64;
            stats.chunks_shared += (nodes.chunks().len() - rewritten) as u64;
            stats.index_chunks_rewritten += index_rewritten as u64;
            stats.index_chunks_shared += index_shared as u64;
            edits.clear();
            self.export.edits = edits;
            (nodes, index)
        } else {
            self.export.overflowed = false;
            self.export.stats.full_rebuilds += 1;
            let nodes = self.rebuild_nodes();
            let index = PointIndex::from_records(nodes.iter(), num_vertices, edge_bound);
            (RankedNodes::from_sorted(&nodes), index)
        };
        self.export.dirty.clear();
        self.export.dirty_vertices.clear();
        // One bump un-dirties every stamped slot for the next export window.
        self.export.generation += 1;
        let snapshot = DendrogramSnapshot {
            version,
            num_vertices,
            nodes,
            index: OnceLock::from(index),
        };
        self.export.cached = Some(snapshot.clone());
        snapshot
    }

    /// Running counters for the incremental-export paths taken so far.
    pub fn export_stats(&self) -> ExportStats {
        self.export.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynsld::DynSldOptions;
    use dynsld_forest::Forest;
    use proptest::collection;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    /// Path 0-1-2-3-4-5 with weights 1, 5, 2, 4, 3.
    fn example() -> DynSld {
        let mut f = Forest::new(6);
        for (i, w) in [1.0, 5.0, 2.0, 4.0, 3.0].iter().enumerate() {
            f.insert_edge(v(i as u32), v(i as u32 + 1), *w);
        }
        DynSld::from_forest(f, DynSldOptions::default())
    }

    /// Asserts the chunk invariants of the module docs.
    fn assert_chunk_invariants(nodes: &RankedNodes) {
        let chunks = nodes.chunks();
        assert_eq!(nodes.len(), chunks.iter().map(|c| c.len()).sum::<usize>());
        assert_eq!(nodes.is_empty(), chunks.is_empty());
        for chunk in chunks {
            assert!(
                !chunk.is_empty() && chunk.len() <= CHUNK_MAX,
                "{}",
                chunk.len()
            );
            assert!(
                chunks.len() == 1 || chunk.len() >= CHUNK_MIN,
                "{}",
                chunk.len()
            );
        }
        let keys: Vec<RankKey> = nodes.iter().map(SnapshotNode::rank_key).collect();
        assert!(
            keys.windows(2).all(|w| w[0] < w[1]),
            "not strictly rank-sorted"
        );
    }

    /// The chunks of `old` that a splice over `keys` may rewrite: the one each key lands in,
    /// the one after it (absorbed when the rewritten run is short) and the one before it
    /// (joined by a short tail).
    fn may_rewrite(old: &RankedNodes, keys: &[RankKey]) -> BTreeSet<usize> {
        let mut out = BTreeSet::new();
        if old.is_empty() {
            return out;
        }
        for &key in keys {
            let at = old.landing_chunk(0, key);
            out.extend([at.saturating_sub(1), at, at + 1]);
        }
        out
    }

    /// Asserts that every point query of `s` gives the sweep's answer, at thresholds on and
    /// between its weights. Under `cfg(test)` a few dozen records span many record and index
    /// chunks, so this is where the chunk-boundary arithmetic of the native queries is pinned.
    fn assert_point_queries_match_the_sweep(s: &DendrogramSnapshot) {
        let vertices = || (0..s.num_vertices as u32).map(VertexId);
        let mut taus: Vec<f64> = s.nodes.iter().step_by(3).map(|n| n.weight).collect();
        taus.extend(taus.clone().iter().map(|w| w + 0.05));
        taus.extend([f64::NEG_INFINITY, f64::INFINITY, f64::NAN]);
        for tau in taus {
            let sweep = s.flat_clustering(tau);
            assert_eq!(s.num_clusters(tau), sweep.num_clusters(), "tau={tau}");
            for (u, t) in vertices().zip(vertices().cycle().skip(5)) {
                let same = s.threshold_connected(u, t, tau);
                assert_eq!(same, sweep.same_cluster(u, t), "({u}, {t}) at tau={tau}");
            }
        }
        // Merge heights against the prefix sweep: the weight of the first record, in rank
        // order, after which the pair is connected.
        for (u, t) in vertices().zip(vertices().cycle().skip(5)) {
            let mut parent: Vec<u32> = (0..s.num_vertices as u32).collect();
            let swept = s.nodes.iter().find_map(|node| {
                let (a, b) = (find(&mut parent, node.u.0), find(&mut parent, node.v.0));
                parent[a.max(b) as usize] = a.min(b);
                (find(&mut parent, u.0) == find(&mut parent, t.0)).then_some(node.weight)
            });
            assert_eq!(s.merge_height_between(u, t), swept, "({u}, {t})");
        }
    }

    #[test]
    fn walks_over_malformed_records_stop_instead_of_looping() {
        // What a faulty peer could send: a parent cycle, a parent with no record, an endpoint
        // past the vertex count. Queries answer something and return; none panics or spins.
        let node = |edge, u, t, weight, parent: Option<u32>| SnapshotNode {
            edge: EdgeId(edge),
            u: v(u),
            v: v(t),
            weight,
            parent: parent.map(EdgeId),
        };
        let records = [
            node(0, 0, 1, 1.0, Some(1)),
            node(1, 1, 2, 2.0, Some(0)),
            node(2, 3, 9, 3.0, Some(7)),
        ];
        let s = DendrogramSnapshot::from_records(1, 5, RankedNodes::from_sorted(&records));
        assert!(s.threshold_connected(v(0), v(2), 2.0));
        assert!(!s.threshold_connected(v(0), v(3), f64::INFINITY));
        assert_eq!(s.merge_height_between(v(0), v(2)), Some(2.0));
        assert_eq!(s.merge_height_between(v(2), v(3)), None);
        assert_eq!(s.num_clusters(2.5), 3);
    }

    /// Asserts that every chunk of `old` outside [`may_rewrite`] is the same allocation in
    /// `new`.
    fn assert_untouched_chunks_shared(old: &RankedNodes, new: &RankedNodes, keys: &[RankKey]) {
        let rewritable = may_rewrite(old, keys);
        for (i, chunk) in old.chunks().iter().enumerate() {
            if !rewritable.contains(&i) {
                assert!(
                    new.chunks().iter().any(|c| Arc::ptr_eq(c, chunk)),
                    "chunk {i} of {} holds no spliced key but was not shared",
                    old.chunks().len()
                );
            }
        }
    }

    #[test]
    fn snapshot_is_rank_sorted_and_counts_components() {
        let d = example();
        let s = d.export_snapshot();
        assert_eq!(s.num_vertices, 6);
        assert_eq!(s.num_edges(), 5);
        assert_eq!(s.num_components(), 1);
        let weights: Vec<f64> = s.nodes.iter().map(|x| x.weight).collect();
        assert_eq!(weights, vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_chunk_invariants(&s.nodes);
    }

    #[test]
    fn snapshot_flat_clustering_matches_live_partition() {
        let mut d = example();
        d.delete_seq(v(3), v(4)).unwrap();
        let s = d.export_snapshot();
        for tau in [0.0, 1.0, 2.5, 3.5, 10.0] {
            let from_snapshot = s.flat_clustering(tau);
            let live = d.flat_clustering(tau);
            // Same partition (labels may differ): compare canonical member lists.
            let canon = |fc: &FlatClustering| {
                let mut cs: Vec<Vec<VertexId>> = fc
                    .clusters
                    .iter()
                    .map(|c| {
                        let mut c = c.clone();
                        c.sort();
                        c
                    })
                    .collect();
                cs.sort();
                cs
            };
            assert_eq!(canon(&from_snapshot), canon(&live), "tau={tau}");
            // Snapshot labels are canonical: numbered by smallest member.
            let mut mins: Vec<VertexId> = from_snapshot.clusters.iter().map(|c| c[0]).collect();
            let mut sorted = mins.clone();
            sorted.sort();
            assert_eq!(mins, sorted);
            mins.dedup();
            assert_eq!(mins.len(), from_snapshot.num_clusters());
        }
    }

    #[test]
    fn snapshot_threshold_and_merge_height() {
        let d = example();
        let s = d.export_snapshot();
        assert!(s.threshold_connected(v(0), v(1), 1.0));
        assert!(!s.threshold_connected(v(0), v(2), 1.0));
        assert!(s.threshold_connected(v(0), v(2), 5.0));
        assert_eq!(s.merge_height_between(v(0), v(1)), Some(1.0));
        assert_eq!(s.merge_height_between(v(0), v(5)), Some(5.0));
        assert_eq!(s.merge_height_between(v(2), v(3)), Some(2.0));
        assert_eq!(s.merge_height_between(v(4), v(4)), Some(0.0));
        let disconnected = DynSld::new(2).export_snapshot();
        assert_eq!(disconnected.merge_height_between(v(0), v(1)), None);
        assert!(!disconnected.threshold_connected(v(0), v(1), f64::INFINITY));
    }

    #[test]
    fn threshold_connected_agrees_with_the_flat_clustering() {
        let inst = dynsld_forest::gen::random_tree(120, 5);
        let mut d = DynSld::from_forest(inst.build_forest(), DynSldOptions::default());
        // Cut a few edges so that some pairs are disconnected at every threshold.
        let cut: Vec<(VertexId, VertexId)> = d
            .forest()
            .edges()
            .step_by(17)
            .map(|(_, data)| (data.u, data.v))
            .collect();
        for (a, b) in cut {
            d.delete(a, b).unwrap();
        }
        let s = d.export_snapshot();
        let mut taus: Vec<f64> = s.nodes.iter().step_by(9).map(|n| n.weight).collect();
        taus.extend([f64::NEG_INFINITY, f64::INFINITY]);
        for tau in taus {
            let clustering = s.flat_clustering(tau);
            for i in 0..120u32 {
                let (a, b) = (v(i), v((i * 53 + 7) % 120));
                assert_eq!(
                    s.threshold_connected(a, b, tau),
                    clustering.same_cluster(a, b),
                    "({a:?}, {b:?}) at tau={tau}"
                );
            }
        }
    }

    #[test]
    fn version_advances_once_per_edge_update() {
        let mut d = DynSld::new(5);
        assert_eq!(d.version(), 0);
        d.insert_seq(v(0), v(1), 1.0).unwrap();
        d.insert_seq(v(1), v(2), 2.0).unwrap();
        assert_eq!(d.version(), 2);
        d.delete_seq(v(0), v(1)).unwrap();
        assert_eq!(d.version(), 3);
        d.batch_insert(&[(v(0), v(1), 3.0), (v(3), v(4), 4.0)])
            .unwrap();
        assert_eq!(d.version(), 5);
        d.batch_delete(&[(v(0), v(1)), (v(3), v(4))]).unwrap();
        assert_eq!(d.version(), 7);
        // A snapshot carries the version it was exported at.
        assert_eq!(d.export_snapshot().version, 7);
        // Vertex additions change derived state (components, singletons), so they advance the
        // version too — a cached snapshot must read as stale afterwards.
        d.add_vertices(3);
        assert_eq!(d.version(), 8);
        assert_eq!(d.export_snapshot().num_components(), 7);
    }

    #[test]
    fn incremental_export_matches_full_and_reuses_cache() {
        let mut d = example();
        let s1 = d.export_snapshot_incremental();
        assert_eq!(s1, d.export_snapshot());
        assert_eq!(d.export_stats().full_rebuilds, 1);
        // No mutation: answered from the cache, bit-identical.
        let s2 = d.export_snapshot_incremental();
        assert_eq!(s2, s1);
        assert_eq!(d.export_stats().cache_hits, 1);
        // A small mutation goes through the splice path and still matches the oracle.
        d.delete_seq(v(2), v(3)).unwrap();
        d.insert_seq(v(2), v(3), 9.0).unwrap();
        let s3 = d.export_snapshot_incremental();
        assert_eq!(s3, d.export_snapshot());
        assert_eq!(d.export_stats().incremental_splices, 1);
        assert_eq!(d.export_stats().full_rebuilds, 1);
        // Vertex growth alone is an empty splice, not a rebuild.
        d.add_vertices(2);
        let s4 = d.export_snapshot_incremental();
        assert_eq!(s4, d.export_snapshot());
        assert_eq!(s4.num_vertices, 8);
        assert_eq!(d.export_stats().incremental_splices, 2);
        assert_eq!(d.export_stats().full_rebuilds, 1);
    }

    #[test]
    fn incremental_export_oracle_under_random_churn() {
        // Mixed sequential/batch inserts, deletes, re-weights (delete+insert on the same pair)
        // and vertex growth, with exports interleaved at random points. Every incremental
        // export must be bit-identical to the full-rebuild oracle, and every splice must
        // share the chunks its dirty keys stay clear of with the export before it.
        let mut seed: u64 = 0x9e3779b97f4a7c15;
        let mut rng = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for strategy in [
            crate::dynsld::UpdateStrategy::Sequential,
            crate::dynsld::UpdateStrategy::Parallel,
        ] {
            let mut n: usize = 24;
            let mut d = DynSld::with_options(n, DynSldOptions::with_strategy(strategy));
            let mut edges: Vec<(VertexId, VertexId)> = Vec::new();
            let mut previous = d.export_snapshot_incremental();
            for step in 0..400 {
                match rng() % 10 {
                    0..=4 => {
                        let u = v((rng() % n as u64) as u32);
                        let w = v((rng() % n as u64) as u32);
                        let weight = (rng() % 1000) as f64 / 8.0;
                        if d.insert(u, w, weight).is_ok() {
                            edges.push((u, w));
                        }
                    }
                    5..=6 => {
                        if !edges.is_empty() {
                            let i = (rng() % edges.len() as u64) as usize;
                            let (u, w) = edges.swap_remove(i);
                            d.delete(u, w).unwrap();
                        }
                    }
                    7 => {
                        // Re-weight: delete + insert of the same pair (what the graph layers do).
                        if !edges.is_empty() {
                            let i = (rng() % edges.len() as u64) as usize;
                            let (u, w) = edges[i];
                            d.delete(u, w).unwrap();
                            let weight = (rng() % 1000) as f64 / 8.0;
                            d.insert(u, w, weight).unwrap();
                        }
                    }
                    8 => {
                        let mut batch = Vec::new();
                        for _ in 0..3 {
                            let u = v((rng() % n as u64) as u32);
                            let w = v((rng() % n as u64) as u32);
                            batch.push((u, w, (rng() % 1000) as f64 / 8.0));
                        }
                        if let Ok(ids) = d.batch_insert(&batch) {
                            for (id, (u, w, _)) in ids.iter().zip(&batch) {
                                let _ = id;
                                edges.push((*u, *w));
                            }
                        }
                    }
                    _ => {
                        let k = 1 + (rng() % 3) as usize;
                        d.add_vertices(k);
                        n += k;
                    }
                }
                if step % 7 == 0 {
                    // The keys this export will splice: each dirty id's exported key and, if
                    // it is still alive, its current one.
                    let mut keys: Vec<RankKey> = Vec::new();
                    let cached = d.export.cached.as_ref().expect("exported before the loop");
                    for &e in &d.export.dirty {
                        if let Some(slot) = cached.index().record(e.0) {
                            keys.push(RankKey::new(slot.weight, e));
                        }
                        if d.dendro.contains(e) {
                            keys.push(RankKey::new(d.forest.weight(e), e));
                        }
                    }
                    let dirty_edges: Vec<usize> =
                        d.export.dirty.iter().map(|e| e.index()).collect();
                    let dirty_vertices: Vec<usize> = d
                        .export
                        .dirty_vertices
                        .iter()
                        .map(|(x, _)| x.index())
                        .collect();
                    let stats_before = d.export_stats();
                    let incremental = d.export_snapshot_incremental();
                    let full = d.export_snapshot();
                    assert_eq!(incremental, full, "divergence at step {step}");
                    assert_chunk_invariants(&incremental.nodes);
                    // The index the exporter advanced is the index of the records it exported.
                    let advanced = incremental
                        .index
                        .get()
                        .expect("the exporter sets the index");
                    assert!(advanced.same_content(full.index()), "index at step {step}");
                    assert_point_queries_match_the_sweep(&incremental);
                    let stats = d.export_stats();
                    if stats.incremental_splices > stats_before.incremental_splices {
                        assert_untouched_chunks_shared(&previous.nodes, &incremental.nodes, &keys);
                        // Index chunks no dirty id lands in are the same allocation as before.
                        let now = advanced.chunk_spans();
                        let mut kept = 0;
                        for (i, &(is_edge, from, to, at)) in
                            previous.index().chunk_spans().iter().enumerate()
                        {
                            let dirty = if is_edge {
                                &dirty_edges
                            } else {
                                &dirty_vertices
                            };
                            if !dirty.iter().any(|id| (from..to).contains(id)) {
                                assert!(now.contains(&(is_edge, from, to, at)), "index chunk {i}");
                                kept += 1;
                            }
                        }
                        assert!(
                            stats.index_chunks_shared - stats_before.index_chunks_shared >= kept
                        );
                    }
                    previous = incremental;
                }
            }
            let stats = d.export_stats();
            assert!(stats.incremental_splices > 0, "splice path never exercised");
            assert!(stats.chunks_shared > 0, "no splice shared a chunk");
            assert!(stats.index_chunks_rewritten > 0 && stats.index_chunks_shared > 0);
            let incremental = d.export_snapshot_incremental();
            assert_eq!(incremental, d.export_snapshot());
        }
    }

    #[test]
    fn incremental_export_falls_back_on_large_dirty_sets() {
        let mut d = DynSld::new(64);
        d.export_snapshot_incremental();
        assert_eq!(d.export_stats().full_rebuilds, 1);
        // Insert far more edges than the splice heuristic tolerates over an empty cache.
        for i in 0..63u32 {
            d.insert_seq(v(i), v(i + 1), i as f64).unwrap();
        }
        let s = d.export_snapshot_incremental();
        assert_eq!(s, d.export_snapshot());
        assert_eq!(d.export_stats().full_rebuilds, 2);
        assert_eq!(d.export_stats().incremental_splices, 0);
    }

    #[test]
    fn retouching_a_dirty_edge_at_the_cap_does_not_overflow() {
        let mut tracker = ExportTracker::default();
        for e in 0..ExportTracker::DIRTY_CAP as u32 {
            tracker.touch(EdgeId(e));
        }
        assert_eq!(tracker.dirty.len(), ExportTracker::DIRTY_CAP);
        assert!(!tracker.overflowed);
        // Exactly at the cap: every already-dirty edge is still a no-op...
        tracker.touch(EdgeId(0));
        tracker.touch(EdgeId(ExportTracker::DIRTY_CAP as u32 - 1));
        assert_eq!(tracker.dirty.len(), ExportTracker::DIRTY_CAP);
        assert!(!tracker.overflowed);
        // ...and only a new one tips it over.
        tracker.touch(EdgeId(ExportTracker::DIRTY_CAP as u32));
        assert!(tracker.overflowed);
        assert!(tracker.dirty.is_empty());
    }

    /// Weights with duplicates and both zeros (`-0.0` ranks strictly below `0.0`).
    const WEIGHTS: [f64; 6] = [-0.0, 0.0, 1.0, 1.0, 2.5, 7.0];

    proptest! {
        #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

        /// Random splices against a sorted-map model: each step names some edge ids and, per
        /// id, whether it is alive afterwards and at which weight — covering inserts,
        /// removals, re-weights and re-parents of the same id, no-ops, empty splices and
        /// bursts large enough to split one chunk into many or drain a run of chunks.
        #[test]
        fn ranked_nodes_splices_match_a_sorted_model(
            ids in 1u32..160,
            steps in collection::vec(
                collection::vec((0u32..160, 0usize..WEIGHTS.len(), any::<bool>()), 0..40),
                1..30,
            ),
        ) {
            let mut model: BTreeMap<RankKey, SnapshotNode> = BTreeMap::new();
            let mut key_of_id: BTreeMap<u32, RankKey> = BTreeMap::new();
            let mut nodes = RankedNodes::default();
            for (round, step) in steps.iter().enumerate() {
                // Last mention of an id in a step wins, as in a dirty set.
                let mut wanted: BTreeMap<u32, Option<f64>> = BTreeMap::new();
                for &(id, weight, alive) in step {
                    wanted.insert(id % ids, alive.then_some(WEIGHTS[weight]));
                }
                let mut edits: BTreeMap<RankKey, Option<SnapshotNode>> = BTreeMap::new();
                for (&id, &weight) in &wanted {
                    if let Some(old) = key_of_id.remove(&id) {
                        model.remove(&old);
                        edits.insert(old, None);
                    }
                    if let Some(weight) = weight {
                        let node = SnapshotNode {
                            edge: EdgeId(id),
                            u: v(id),
                            v: v(id + 1),
                            weight,
                            parent: (round % 3 != 0).then_some(EdgeId(round as u32)),
                        };
                        key_of_id.insert(id, node.rank_key());
                        model.insert(node.rank_key(), node);
                        edits.insert(node.rank_key(), Some(node));
                    }
                }
                let keys: Vec<RankKey> = edits.keys().copied().collect();
                let edits: Vec<Edit> = edits
                    .into_iter()
                    .map(|(key, put)| Edit { key, put })
                    .collect();
                let (next, rewritten) = nodes.splice(&edits);
                let expected: Vec<SnapshotNode> = model.values().copied().collect();
                prop_assert_eq!(next.to_vec(), expected.clone());
                prop_assert_eq!(&next, &RankedNodes::from_sorted(&expected));
                assert_chunk_invariants(&next);
                assert_chunk_invariants(&RankedNodes::from_sorted(&expected));
                assert_untouched_chunks_shared(&nodes, &next, &keys);
                let shared = next
                    .chunks()
                    .iter()
                    .filter(|c| nodes.chunks().iter().any(|old| Arc::ptr_eq(old, c)))
                    .count();
                prop_assert_eq!(shared + rewritten, next.chunks().len());
                nodes = next;
            }
        }
    }
}
