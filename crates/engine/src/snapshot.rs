//! Epoch-tagged immutable read views.
//!
//! The engine's write path owns the mutable structures exclusively; readers never touch them.
//! Instead, every flush publishes an [`EngineSnapshot`] — an `Arc` around a rank-ordered
//! [`DendrogramSnapshot`] export (which shares every record and index chunk the flush left
//! alone with the export before it) plus an epoch tag and a per-snapshot query cache. Cloning
//! a snapshot is one atomic increment, the clone is `Send + Sync`, and everything it answers
//! is computed from data frozen at publish time: a reader holding epoch `e` sees exactly the
//! state after flush `e`, no matter how many batches the writer applies concurrently.
//!
//! `num_clusters`, `same_cluster` and `merge_height_between` are answered on the export
//! itself — a binary search, two parent walks, an LCA walk — and build nothing: a publish
//! that nobody asked for a whole clustering has none to drop. `flat_clustering`, `cluster_id`
//! and `cluster_size` build the flat clustering of their threshold with one union-find pass
//! and memoise it per `(snapshot, threshold)`; once it is there, the point queries read it
//! too. `ThresholdCache` is that memo and the rule for choosing between the two; a view whose
//! walks have read one sweep's worth of records (`n + m`) sweeps from then on.
//!
//! A sharded service serves a [`ServiceSnapshot`]: one [`EngineSnapshot`] per shard. On one
//! shard it answers exactly as that shard's snapshot does; on several, the union of the
//! per-shard forests is not a forest, so a threshold query goes through the union-find pass
//! over all shards' merged prefixes. `num_clusters` and `num_components` only count its joins
//! ([`num_clusters_of`]) and keep nothing; the other queries read the clustering it labels —
//! the same sweep ([`flat_clustering_of`]) run over every export, built lazily and memoised
//! the same way.
//!
//! A subscriber's replica is a [`ServiceSnapshot`] too ([`ServiceSnapshot::replica`]), built
//! from exports that a delta replay ([`crate::Patch::replay`]) or a wire decoder produced. It
//! answers every query through the same code, but with caches of its own that count nowhere:
//! a replica's queries never show in the service's [`Metrics`].

use crate::partition::ShardId;
use crate::service::ShardHealth;
use dynsld::snapshot::{flat_clustering_of, num_clusters_of};
use dynsld::{DendrogramSnapshot, FlatClustering};
use dynsld_forest::{VertexId, Weight};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

#[cfg(doc)]
use crate::{Metrics, ReadHandle};

/// Shared cache-effectiveness counters, aggregated across all snapshots of one engine.
#[derive(Debug, Default)]
pub(crate) struct CacheStats {
    pub(crate) hits: AtomicU64,
    pub(crate) misses: AtomicU64,
}

/// A per-view memo of flat clusterings by threshold bit pattern, and the one place that
/// decides how a view answers a threshold query — the read path of [`EngineSnapshot`] and
/// [`ServiceSnapshot`] (served or replicated):
///
/// 1. a clustering already cached for the threshold answers;
/// 2. otherwise a view over a single export asks the export
///    ([`DendrogramSnapshot::num_clusters`], [`DendrogramSnapshot::threshold_connected`]);
/// 3. otherwise (several shards) a count is the joins of one union-find pass
///    ([`num_clusters_of`]), and any other query builds, caches and reads the clustering.
///
/// `threshold_connected` walks `O(depth)` records, which on a degenerate dendrogram is
/// `O(m)` — the cost of the sweep. So the cache counts the records its walks read, and a
/// view that has spent more than one sweep's worth (`n + m`) on them answers `same_cluster`
/// by route 3 from then on: it never pays more than twice what building every clustering it
/// was asked about would have cost.
///
/// The cache lives inside the snapshot's shared `Arc` allocation, so every clone of a
/// published snapshot — every `ReadHandle`, every held copy — shares the *same* memo: a
/// threshold cut is computed at most once per publication, never once per handle. Pinned by
/// the `read_handle_clones_share_one_threshold_cache` test in `crate::service`.
#[derive(Debug, Default)]
pub(crate) struct ThresholdCache {
    map: Mutex<HashMap<u64, Arc<FlatClustering>>>,
    /// Records read by walks on thresholds that had no clustering cached.
    walked: AtomicUsize,
    /// Where hits and misses are counted (an engine's snapshots share one).
    stats: Option<Arc<CacheStats>>,
}

impl ThresholdCache {
    /// The cached clustering at `tau`, if any.
    ///
    /// Poisoning is recovered, not propagated: the lock only guards a memo map whose entries
    /// are immutable once inserted, so a reader that panicked mid-critical-section (e.g. an
    /// injected fault unwinding through a caught flush) cannot have left a torn value —
    /// worst case the cache misses and the clustering is recomputed.
    fn lookup(&self, tau: Weight) -> Option<Arc<FlatClustering>> {
        let hit = self
            .map
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&tau.to_bits())
            .cloned();
        if let (Some(stats), Some(_)) = (&self.stats, &hit) {
            stats.hits.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// The clustering at `tau`: the cached one, or `build`'s, cached from now on.
    ///
    /// `build` runs outside the lock: clustering construction is the expensive part, and two
    /// racing readers computing the same threshold is harmless — the values are equal and
    /// the cache keeps the first commit (the loser's computation is dropped).
    fn get_or_build(
        &self,
        tau: Weight,
        build: impl FnOnce() -> FlatClustering,
    ) -> Arc<FlatClustering> {
        if let Some(hit) = self.lookup(tau) {
            return hit;
        }
        let computed = build();
        if let Some(stats) = &self.stats {
            stats.misses.fetch_add(1, Ordering::Relaxed);
        }
        let mut map = self.map.lock().unwrap_or_else(PoisonError::into_inner);
        Arc::clone(
            map.entry(tau.to_bits())
                .or_insert_with(|| Arc::new(computed)),
        )
    }

    /// Number of clusters at `tau` of a view over `exports`: a cached clustering's count, else
    /// the only export's binary search, else (several shards) the joins of one union-find
    /// pass over every export's merged prefix. Builds and caches nothing.
    fn num_clusters(&self, exports: &[&DendrogramSnapshot], tau: Weight) -> usize {
        match (self.lookup(tau), exports) {
            (Some(hit), _) => hit.num_clusters(),
            (None, [only]) => only.num_clusters(tau),
            (None, exports) => num_clusters_of(exports.iter().copied(), tau),
        }
    }

    /// Whether `u` and `v` share a cluster at `tau` in a view whose only export is `export`
    /// (none: a view over several shards) and whose `flat_clustering(tau)` is `sweep`.
    fn same_cluster(
        &self,
        export: Option<&DendrogramSnapshot>,
        (u, v): (VertexId, VertexId),
        tau: Weight,
        sweep: impl FnOnce() -> Arc<FlatClustering>,
    ) -> bool {
        if let Some(hit) = self.lookup(tau) {
            return hit.same_cluster(u, v);
        }
        if let Some(export) = export {
            let one_sweep = export.num_vertices + export.num_edges();
            if self.walked.load(Ordering::Relaxed) <= one_sweep {
                let (same, steps) = export.threshold_connected_counted(u, v, tau);
                self.walked.fetch_add(steps, Ordering::Relaxed);
                return same;
            }
        }
        sweep().same_cluster(u, v)
    }
}

#[derive(Debug)]
struct SnapshotInner {
    epoch: u64,
    dendro: DendrogramSnapshot,
    num_graph_edges: usize,
    cache: ThresholdCache,
}

/// An immutable, epoch-tagged view of the engine's clustering state.
///
/// Cheap to clone (`Arc`), `Send + Sync`, and always answers from the state as of its epoch.
#[derive(Clone, Debug)]
pub struct EngineSnapshot {
    inner: Arc<SnapshotInner>,
}

impl EngineSnapshot {
    /// A snapshot whose cache counts its hits and misses in `stats` (none: a replica's).
    pub(crate) fn publish(
        epoch: u64,
        dendro: DendrogramSnapshot,
        num_graph_edges: usize,
        stats: Option<Arc<CacheStats>>,
    ) -> Self {
        EngineSnapshot {
            inner: Arc::new(SnapshotInner {
                epoch,
                dendro,
                num_graph_edges,
                cache: ThresholdCache {
                    stats,
                    ..ThresholdCache::default()
                },
            }),
        }
    }

    /// The flush epoch this snapshot was published at (0 = the empty initial state).
    pub fn epoch(&self) -> u64 {
        self.inner.epoch
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.inner.dendro.num_vertices
    }

    /// Number of alive graph edges (tree and non-tree) at this epoch.
    pub fn num_graph_edges(&self) -> usize {
        self.inner.num_graph_edges
    }

    /// Number of MSF (tree) edges at this epoch.
    pub fn num_tree_edges(&self) -> usize {
        self.inner.dendro.num_edges()
    }

    /// Number of connected components at this epoch.
    pub fn num_components(&self) -> usize {
        self.inner.dendro.num_components()
    }

    /// The underlying dendrogram export (sorted by rank; see [`DendrogramSnapshot`]).
    pub fn dendrogram(&self) -> &DendrogramSnapshot {
        &self.inner.dendro
    }

    /// The flat clustering at threshold `tau`, memoised per snapshot: repeated queries at the
    /// same epoch and threshold return the same shared `Arc` without recomputation — across
    /// *all* clones of this snapshot, since the per-threshold cache lives inside the shared
    /// allocation.
    pub fn flat_clustering(&self, tau: Weight) -> Arc<FlatClustering> {
        let inner = &*self.inner;
        inner
            .cache
            .get_or_build(tau, || inner.dendro.flat_clustering(tau))
    }

    /// The cluster label of `v` at threshold `tau`. Labels are canonical within one
    /// `(epoch, tau)` pair: numbered by smallest member vertex.
    pub fn cluster_id(&self, v: VertexId, tau: Weight) -> usize {
        self.flat_clustering(tau).labels[v.index()]
    }

    /// Size of the cluster containing `v` at threshold `tau`.
    pub fn cluster_size(&self, v: VertexId, tau: Weight) -> usize {
        self.flat_clustering(tau).cluster_size(v)
    }

    /// Whether `u` and `v` share a cluster at threshold `tau` (see the
    /// [module docs](crate::snapshot) for how it is answered).
    pub fn same_cluster(&self, u: VertexId, v: VertexId, tau: Weight) -> bool {
        let inner = &*self.inner;
        let sweep = || self.flat_clustering(tau);
        inner
            .cache
            .same_cluster(Some(&inner.dendro), (u, v), tau, sweep)
    }

    /// Number of clusters at threshold `tau` (see the [module docs](crate::snapshot)).
    pub fn num_clusters(&self, tau: Weight) -> usize {
        let inner = &*self.inner;
        inner.cache.num_clusters(&[&inner.dendro], tau)
    }

    /// The single-linkage merge distance between `u` and `v`, or `None` if disconnected.
    pub fn merge_height_between(&self, u: VertexId, v: VertexId) -> Option<Weight> {
        self.inner.dendro.merge_height_between(u, v)
    }
}

#[derive(Debug)]
struct ServiceSnapshotInner {
    /// The service revision: how many merged views have been published before this one.
    /// Strictly increasing by one per publish — the anchor of the delta protocol.
    revision: u64,
    /// Per-shard snapshots, routed shards first, spill shard last.
    shards: Vec<EngineSnapshot>,
    /// Per-shard health at publish time, aligned with `shards` (empty on a replica). A
    /// quarantined entry means that shard's snapshot is its last pre-panic publication —
    /// served stale, by design.
    health: Vec<ShardHealth>,
    /// Clusterings of all shards' exports by threshold, shared across every clone of this
    /// view, and counted where the first shard's cache counts.
    merged: ThresholdCache,
}

/// An immutable merged view over one [`EngineSnapshot`] per shard.
///
/// Cheap to clone (`Arc`), `Send + Sync`, and frozen: it keeps answering from the per-shard
/// states it was built from, no matter what the service does afterwards. Over one shard it
/// answers as that shard's [`EngineSnapshot`] does. Over several, flat clusterings are
/// computed lazily — the first query at a threshold pays one union-find pass over every
/// shard's export ([`flat_clustering_of`]), repeats hit a per-snapshot cache — and a cluster
/// count at a threshold with none cached is the same pass, counting joins and building
/// nothing ([`num_clusters_of`]). Because the
/// shard edge sets partition the graph's edges, the merged answers are *exactly* those of a
/// single engine fed the same stream.
#[derive(Clone, Debug)]
pub struct ServiceSnapshot {
    inner: Arc<ServiceSnapshotInner>,
}

impl ServiceSnapshot {
    pub(crate) fn merge(
        shards: Vec<EngineSnapshot>,
        revision: u64,
        health: Vec<ShardHealth>,
    ) -> Self {
        debug_assert!(!shards.is_empty());
        debug_assert_eq!(shards.len(), health.len());
        // Healthy shards must agree on the vertex set; a quarantined shard may lag behind
        // (vertex growth after its panic is logged, not applied to the torn engine).
        debug_assert!(
            {
                let healthy_n: Vec<usize> = shards
                    .iter()
                    .zip(&health)
                    .filter(|(_, h)| !h.is_quarantined())
                    .map(|(s, _)| s.num_vertices())
                    .collect();
                healthy_n.windows(2).all(|w| w[0] == w[1])
            },
            "healthy shards must agree on the vertex set"
        );
        ServiceSnapshot::new(revision, shards, health)
    }

    fn new(revision: u64, shards: Vec<EngineSnapshot>, health: Vec<ShardHealth>) -> Self {
        let merged = ThresholdCache {
            stats: shards[0].inner.cache.stats.clone(),
            ..ThresholdCache::default()
        };
        ServiceSnapshot {
            inner: Arc::new(ServiceSnapshotInner {
                revision,
                shards,
                health,
                merged,
            }),
        }
    }

    /// A replica of a published view at `revision`, from one `(epoch, export, graph edge
    /// count)` per shard (at least one), in shard order — what a subscriber rebuilds from a
    /// full snapshot, a delta replay or a wire payload. It answers every query as the
    /// published view does, from caches of its own that count in no [`Metrics`], and it
    /// carries no shard health: its [`shard_health`](Self::shard_health) is empty.
    pub fn replica(
        revision: u64,
        shards: impl IntoIterator<Item = (u64, DendrogramSnapshot, usize)>,
    ) -> ServiceSnapshot {
        let shards = shards
            .into_iter()
            .map(|(epoch, export, edges)| EngineSnapshot::publish(epoch, export, edges, None))
            .collect();
        ServiceSnapshot::new(revision, shards, Vec::new())
    }

    /// The service revision of this view: 0 for the initial (empty) publication, then +1 per
    /// publish. Two views of one service with equal revisions are the same view; the delta
    /// protocol ([`ReadHandle::sync_from`]) is anchored on it.
    pub fn revision(&self) -> u64 {
        self.inner.revision
    }

    /// The per-shard epoch vector this view was taken at (routed shards first, spill last).
    pub fn epochs(&self) -> Vec<u64> {
        self.inner
            .shards
            .iter()
            .map(EngineSnapshot::epoch)
            .collect()
    }

    /// The per-shard snapshots backing this view, in shard order.
    pub fn shard_snapshots(&self) -> &[EngineSnapshot] {
        &self.inner.shards
    }

    /// Number of vertices. With a quarantined shard in the view this is the *largest*
    /// per-shard vertex count: a stale shard that panicked before a vertex-set growth lags
    /// behind its healthy siblings, and merged answers are sized for the grown set (the
    /// stale shard simply contributes no edges among the vertices it has never seen).
    pub fn num_vertices(&self) -> usize {
        self.inner
            .shards
            .iter()
            .map(EngineSnapshot::num_vertices)
            .max()
            .unwrap_or(0)
    }

    /// Per-shard health at publish time, aligned with [`ServiceSnapshot::shard_snapshots`].
    /// Empty on a [replica](Self::replica): no health travels with a delta or a wire payload.
    pub fn shard_health(&self) -> &[ShardHealth] {
        &self.inner.health
    }

    /// Whether any shard in this view is quarantined — i.e. whether some of the merged
    /// answers come from a last-known-good state rather than the live stream. Strict
    /// readers reject such views ([`ReadHandle::snapshot_strict`]); availability-first
    /// readers serve them and count [`Metrics::stale_reads_served`]. False on a
    /// [replica](Self::replica), which carries no health.
    pub fn is_stale(&self) -> bool {
        self.inner.health.iter().any(ShardHealth::is_quarantined)
    }

    /// The quarantined shards in this view, by id (empty when fresh).
    pub fn stale_shards(&self) -> Vec<ShardId> {
        let num_shards = self.inner.health.len().saturating_sub(1).max(1);
        self.inner
            .health
            .iter()
            .enumerate()
            .filter(|(_, h)| h.is_quarantined())
            .map(|(idx, _)| ShardId::of_slot(idx, num_shards))
            .collect()
    }

    /// Number of alive graph edges across all shards (the shard edge sets are disjoint, so
    /// this is exactly the full graph's edge count).
    pub fn num_graph_edges(&self) -> usize {
        self.inner
            .shards
            .iter()
            .map(EngineSnapshot::num_graph_edges)
            .sum()
    }

    /// The only shard of a single-shard view.
    fn only_shard(&self) -> Option<&EngineSnapshot> {
        match self.inner.shards.as_slice() {
            [only] => Some(only),
            _ => None,
        }
    }

    /// Number of connected components of the full graph (all shards merged): the number of
    /// clusters at `+∞`.
    pub fn num_components(&self) -> usize {
        match self.only_shard() {
            Some(only) => only.num_components(),
            None => self.num_clusters(f64::INFINITY),
        }
    }

    /// The merged flat clustering at threshold `tau`, memoised per snapshot. Labels are
    /// canonical within one (epoch vector, `tau`) pair: numbered by smallest member vertex,
    /// member lists sorted ascending.
    pub fn flat_clustering(&self, tau: Weight) -> Arc<FlatClustering> {
        match self.only_shard() {
            // Single shard: the engine's own (already canonical, already cached) clustering.
            Some(only) => only.flat_clustering(tau),
            // Several: the sweep over every shard's export, sized to the largest.
            None => self.inner.merged.get_or_build(tau, || {
                flat_clustering_of(
                    self.inner.shards.iter().map(EngineSnapshot::dendrogram),
                    tau,
                )
            }),
        }
    }

    /// The cluster label of `v` at threshold `tau` (canonical per epoch vector and `tau`).
    pub fn cluster_id(&self, v: VertexId, tau: Weight) -> usize {
        self.flat_clustering(tau).labels[v.index()]
    }

    /// Size of the cluster containing `v` at threshold `tau`.
    pub fn cluster_size(&self, v: VertexId, tau: Weight) -> usize {
        self.flat_clustering(tau).cluster_size(v)
    }

    /// Whether `u` and `v` share a cluster at threshold `tau` (see the [module docs](crate::snapshot)).
    pub fn same_cluster(&self, u: VertexId, v: VertexId, tau: Weight) -> bool {
        match self.only_shard() {
            Some(only) => only.same_cluster(u, v, tau),
            None => self.flat_clustering(tau).same_cluster(u, v),
        }
    }

    /// Number of clusters at threshold `tau` (see the [module docs](crate::snapshot)).
    pub fn num_clusters(&self, tau: Weight) -> usize {
        match self.only_shard() {
            Some(only) => only.num_clusters(tau),
            None => {
                let exports: Vec<&DendrogramSnapshot> = self
                    .inner
                    .shards
                    .iter()
                    .map(EngineSnapshot::dendrogram)
                    .collect();
                self.inner.merged.num_clusters(&exports, tau)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynsld::{DynSld, DynSldOptions};
    use dynsld_forest::Forest;

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    fn snapshot_of_path() -> EngineSnapshot {
        let mut f = Forest::new(4);
        f.insert_edge(v(0), v(1), 1.0);
        f.insert_edge(v(1), v(2), 3.0);
        f.insert_edge(v(2), v(3), 2.0);
        let sld = DynSld::from_forest(f, DynSldOptions::default());
        EngineSnapshot::publish(7, sld.export_snapshot(), 3, None)
    }

    #[test]
    fn queries_answer_from_frozen_state() {
        let snap = snapshot_of_path();
        assert_eq!(snap.epoch(), 7);
        assert_eq!(snap.num_vertices(), 4);
        assert_eq!(snap.num_tree_edges(), 3);
        assert_eq!(snap.num_components(), 1);
        assert_eq!(snap.num_clusters(2.0), 2); // {0,1} ∪ {2,3}
        assert!(snap.same_cluster(v(2), v(3), 2.0));
        assert!(!snap.same_cluster(v(1), v(2), 2.0));
        assert_eq!(snap.cluster_size(v(0), 3.0), 4);
        assert_eq!(snap.merge_height_between(v(0), v(3)), Some(3.0));
    }

    #[test]
    fn flat_clusterings_are_cached_per_threshold() {
        let stats = Arc::new(CacheStats::default());
        let mut f = Forest::new(3);
        f.insert_edge(v(0), v(1), 1.0);
        let sld = DynSld::from_forest(f, DynSldOptions::default());
        let snap = EngineSnapshot::publish(1, sld.export_snapshot(), 1, Some(Arc::clone(&stats)));
        let a = snap.flat_clustering(0.5);
        let b = snap.flat_clustering(0.5);
        assert!(
            Arc::ptr_eq(&a, &b),
            "same threshold must share the cached value"
        );
        let _ = snap.flat_clustering(1.5);
        assert_eq!(stats.hits.load(Ordering::Relaxed), 1);
        assert_eq!(stats.misses.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn a_view_that_walked_a_sweeps_worth_switches_to_cached_clusterings() {
        // The increasing path: the dendrogram is a chain of height n - 1 and a walk from
        // vertex 0 to the root reads every record — as much as the sweep it stands in for.
        let n = 64u32;
        let mut f = Forest::new(n as usize);
        for i in 0..n - 1 {
            f.insert_edge(v(i), v(i + 1), f64::from(i));
        }
        let sld = DynSld::from_forest(f, DynSldOptions::default());
        let stats = Arc::new(CacheStats::default());
        let snap = EngineSnapshot::publish(1, sld.export_snapshot(), 63, Some(Arc::clone(&stats)));
        let sweep_cost = 2 * n as usize - 1; // n + m
        let mut walked = 0;
        let mut tau = 40.0;
        // Fresh thresholds, each walked: answers are right and nothing is built...
        while walked <= sweep_cost {
            assert!(snap.same_cluster(v(0), v(1), tau));
            assert_eq!(snap.num_clusters(tau), 63 - tau as usize);
            assert_eq!(stats.misses.load(Ordering::Relaxed), 0);
            // Both walks start at edge 0 and read up to the first record above `tau`.
            walked += 2 * (tau as usize + 2);
            tau += 1.0;
        }
        // ...until the walks add up to one sweep: the next fresh threshold is built once,
        // cached, and read from then on.
        assert!(snap.same_cluster(v(0), v(1), tau));
        assert_eq!(stats.misses.load(Ordering::Relaxed), 1);
        assert!(!snap.same_cluster(v(0), v(63), tau));
        assert_eq!(snap.num_clusters(tau), 63 - tau as usize);
        assert_eq!(stats.misses.load(Ordering::Relaxed), 1);
        assert_eq!(stats.hits.load(Ordering::Relaxed), 2);
        // A threshold that was walked before the switch is swept after it: same answers.
        assert!(snap.same_cluster(v(0), v(1), 40.0));
        assert!(!snap.same_cluster(v(0), v(63), 40.0));
        assert_eq!(snap.num_clusters(40.0), 23);
        assert_eq!(stats.misses.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn a_cold_count_over_several_shards_builds_no_clustering() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(50);
        let n = 40u32;
        for (shards, tied) in [(2, true), (2, false), (3, true), (3, false)] {
            // Distinct weights are the draw order; tied ones come from three values.
            let mut drawn = 0u32;
            let stats = Arc::new(CacheStats::default());
            let exports: Vec<EngineSnapshot> = (0..shards)
                .map(|_| {
                    let mut d = DynSld::new(n as usize);
                    for _ in 0..n / 2 {
                        drawn += 1;
                        let w = if tied {
                            f64::from(rng.gen_range(1..4u32))
                        } else {
                            f64::from(drawn)
                        };
                        let _ = d.insert(v(rng.gen_range(0..n)), v(rng.gen_range(0..n)), w);
                    }
                    let edges = d.num_edges();
                    EngineSnapshot::publish(1, d.export_snapshot(), edges, Some(stats.clone()))
                })
                .collect();
            let weights: Vec<f64> = exports
                .iter()
                .flat_map(|e| e.dendrogram().nodes.iter().map(|x| x.weight))
                .collect();
            let taus = [f64::NEG_INFINITY, f64::INFINITY]
                .into_iter()
                .chain(weights);
            let view = ServiceSnapshot::new(1, exports, Vec::new());
            let counters = || {
                (
                    stats.hits.load(Ordering::Relaxed),
                    stats.misses.load(Ordering::Relaxed),
                )
            };
            for tau in taus {
                let before = counters();
                let counted = view.num_clusters(tau);
                assert_eq!(counters(), before, "a cold count moved the counters");
                assert!(view.inner.merged.map.lock().unwrap().is_empty());
                let built = view.flat_clustering(tau);
                assert_eq!(counted, built.num_clusters(), "{shards} shards at {tau}");
                // With the clustering cached, the count reads it.
                assert_eq!(view.num_clusters(tau), counted);
                assert_eq!(counters(), (before.0 + 1, before.1 + 1));
                view.inner.merged.map.lock().unwrap().clear();
            }
            let components = view.num_components();
            assert_eq!(
                components,
                view.flat_clustering(f64::INFINITY).num_clusters()
            );
        }
    }

    #[test]
    fn snapshots_are_send_sync_and_usable_across_threads() {
        let snap = snapshot_of_path();
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let snap = snap.clone();
                std::thread::spawn(move || {
                    let tau = 1.0 + i as f64;
                    snap.flat_clustering(tau).num_clusters()
                })
            })
            .collect();
        for h in handles {
            assert!(h.join().unwrap() >= 1);
        }
    }
}
