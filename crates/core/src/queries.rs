//! Dendrogram queries (Section 6.1, Table 2).
//!
//! Having the *explicit* dendrogram (rather than only a dynamic MSF) pays off in query cost:
//!
//! | query              | DynSLD (this module)         | MSF-only ([`msf_baseline`])  |
//! |--------------------|------------------------------|------------------------------|
//! | threshold / LCA    | `O(log n)` (path max)        | `O(log n)` (path max)        |
//! | cluster size       | `O(log n)` (PWS + subtree)   | `O(|S|)` (component crawl)   |
//! | cluster report     | `O(|S|)` work                | `O(|S|)` work, `O(|S|)` span |
//! | flat clustering    | `O(n)`                       | `O(n)`                       |
//!
//! The `O(log n)` cluster-size path needs the spine index
//! ([`DynSldOptions::maintain_spine_index`](crate::DynSldOptions)); without it the query falls
//! back to a subtree traversal (still correct, `O(|S|)`).

use crate::dynsld::DynSld;
use dynsld_forest::{EdgeId, RankKey, VertexId, Weight};

/// A flat clustering at a fixed threshold: a cluster label per vertex plus the member lists.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlatClustering {
    /// `labels[v]` is the cluster index of vertex `v`.
    pub labels: Vec<usize>,
    /// `clusters[c]` lists the members of cluster `c`.
    pub clusters: Vec<Vec<VertexId>>,
}

impl FlatClustering {
    /// Number of clusters.
    pub fn num_clusters(&self) -> usize {
        self.clusters.len()
    }

    /// Returns true if `u` and `v` are in the same cluster.
    pub fn same_cluster(&self, u: VertexId, v: VertexId) -> bool {
        self.labels[u.index()] == self.labels[v.index()]
    }

    /// Number of vertices in the cluster of `v`.
    pub fn cluster_size(&self, v: VertexId) -> usize {
        self.clusters[self.labels[v.index()]].len()
    }
}

/// A rank key that compares greater than every edge of weight `<= tau` and smaller than every
/// edge of strictly larger weight (used to phrase threshold queries as PWS queries).
fn threshold_key(tau: Weight) -> RankKey {
    RankKey::new(tau, EdgeId(u32::MAX))
}

impl DynSld {
    /// Threshold (LCA) query: are `s` and `t` in the same cluster when clustering stops at
    /// distance threshold `tau` (i.e. all edges of weight `<= tau` are merged)? `O(log n)`.
    pub fn threshold_connected(&mut self, s: VertexId, t: VertexId, tau: Weight) -> bool {
        if s == t {
            return true;
        }
        if !self.conn.connected(s, t) {
            return false;
        }
        let sn = self.input_vertex_node[s.index()];
        let tn = self.input_vertex_node[t.index()];
        let max_node = self
            .input_lct
            .path_max_node(sn, tn)
            .expect("a path between distinct connected vertices contains an edge");
        let key = self.input_lct.key(max_node).expect("edge nodes are keyed");
        key.weight <= tau
    }

    /// The maximum-weight (bottleneck) edge on the forest path between `s` and `t`, or `None`
    /// if they are not connected or `s == t`. `O(log n)` — this is the path query that both
    /// threshold queries and the dynamic MSF front end (`dynsld-msf`) rely on.
    pub fn path_max_edge(&mut self, s: VertexId, t: VertexId) -> Option<EdgeId> {
        if s == t || !self.conn.connected(s, t) {
            return None;
        }
        let sn = self.input_vertex_node[s.index()];
        let tn = self.input_vertex_node[t.index()];
        let max_node = self
            .input_lct
            .path_max_node(sn, tn)
            .expect("a path between distinct connected vertices contains an edge");
        let key = self.input_lct.key(max_node).expect("edge nodes are keyed");
        Some(key.edge)
    }

    /// The dendrogram node defining the cluster of `u` at threshold `tau`: the highest-rank
    /// ancestor of `u`'s lowest incident edge whose weight is `<= tau`. Returns `None` when the
    /// cluster of `u` is the singleton `{u}`.
    ///
    /// `O(log n)` with the spine index, `O(h)` without.
    pub fn cluster_root_at_threshold(&mut self, u: VertexId, tau: Weight) -> Option<EdgeId> {
        let eu = self.forest.min_incident(u)?;
        if self.forest.weight(eu) > tau {
            return None;
        }
        if self.spine.is_some() {
            self.spine_pws_below(eu, threshold_key(tau))
        } else {
            // Fallback: walk the spine.
            let mut cur = eu;
            while let Some(p) = self.dendro.parent(cur) {
                if self.forest.weight(p) > tau {
                    break;
                }
                cur = p;
            }
            Some(cur)
        }
    }

    /// Size of the cluster containing `u` at threshold `tau` (number of vertices). `O(log n)`
    /// with the spine index (Table 2), `O(|S|)` without.
    pub fn cluster_size(&mut self, u: VertexId, tau: Weight) -> usize {
        match self.cluster_root_at_threshold(u, tau) {
            None => 1,
            Some(root) => {
                // A cluster is a connected subtree of the input forest, so it has exactly one
                // more vertex than it has edges (= dendrogram nodes below `root`).
                let edges = match &mut self.spine {
                    Some(spine) => {
                        let node = spine.node(root);
                        spine.lct.represented_subtree_size(node)
                    }
                    None => self.dendro.subtree_size(root),
                };
                edges + 1
            }
        }
    }

    /// The members of the cluster containing `u` at threshold `tau` (Table 2: cluster report).
    /// `O(|S|)` work.
    pub fn cluster_members(&mut self, u: VertexId, tau: Weight) -> Vec<VertexId> {
        match self.cluster_root_at_threshold(u, tau) {
            None => vec![u],
            Some(root) => {
                let nodes = self.dendro.subtree_nodes(root);
                let mut members = Vec::with_capacity(nodes.len() + 1);
                let mut seen = std::collections::HashSet::with_capacity(2 * nodes.len());
                for e in nodes {
                    let (a, b) = self.forest.endpoints(e);
                    for x in [a, b] {
                        if seen.insert(x) {
                            members.push(x);
                        }
                    }
                }
                members
            }
        }
    }

    /// The flat clustering at threshold `tau`: every maximal cluster formed by merging all edges
    /// of weight `<= tau`. `O(n)` work.
    pub fn flat_clustering(&self, tau: Weight) -> FlatClustering {
        let n = self.num_vertices();
        let mut labels = vec![usize::MAX; n];
        let mut clusters: Vec<Vec<VertexId>> = Vec::new();
        // Cluster roots: nodes of weight <= tau whose parent is absent or heavier than tau.
        for e in self.dendro.nodes() {
            if self.forest.weight(e) > tau {
                continue;
            }
            let is_root = match self.dendro.parent(e) {
                None => true,
                Some(p) => self.forest.weight(p) > tau,
            };
            if !is_root {
                continue;
            }
            let label = clusters.len();
            let mut members = Vec::new();
            for node in self.dendro.subtree_nodes(e) {
                let (a, b) = self.forest.endpoints(node);
                for x in [a, b] {
                    if labels[x.index()] == usize::MAX {
                        labels[x.index()] = label;
                        members.push(x);
                    }
                }
            }
            clusters.push(members);
        }
        // Singletons.
        for (v, label) in labels.iter_mut().enumerate() {
            if *label == usize::MAX {
                *label = clusters.len();
                clusters.push(vec![VertexId::from_index(v)]);
            }
        }
        FlatClustering { labels, clusters }
    }
}

/// Query implementations that use **only** the input forest (what a dynamic-MSF-only solution,
/// such as Tseng et al. \[48\], can answer) — the comparison column of Table 2.
pub mod msf_baseline {
    use dynsld_forest::{Forest, VertexId, Weight};
    use std::collections::VecDeque;

    /// Members of the cluster of `u` at threshold `tau`, by breadth-first search over the edges
    /// of weight `<= tau`. `O(|S| log deg)` — no dendrogram required.
    pub fn cluster_members(forest: &Forest, u: VertexId, tau: Weight) -> Vec<VertexId> {
        let mut seen = std::collections::HashSet::new();
        let mut queue = VecDeque::new();
        seen.insert(u);
        queue.push_back(u);
        let mut members = vec![u];
        while let Some(x) = queue.pop_front() {
            for (y, e) in forest.neighbors(x) {
                if forest.weight(e) <= tau && seen.insert(y) {
                    members.push(y);
                    queue.push_back(y);
                }
            }
        }
        members
    }

    /// Size of the cluster of `u` at threshold `tau` — `O(|S|)` without the dendrogram
    /// (contrast with `DynSld::cluster_size`, which is `O(log n)` with the spine index).
    pub fn cluster_size(forest: &Forest, u: VertexId, tau: Weight) -> usize {
        cluster_members(forest, u, tau).len()
    }

    /// Threshold connectivity by bounded BFS — `O(|S|)`.
    pub fn threshold_connected(forest: &Forest, s: VertexId, t: VertexId, tau: Weight) -> bool {
        if s == t {
            return true;
        }
        cluster_members(forest, s, tau).contains(&t)
    }

    /// Flat clustering at threshold `tau` by repeated BFS. `O(n log deg)`.
    pub fn flat_clustering(forest: &Forest, tau: Weight) -> Vec<Vec<VertexId>> {
        let n = forest.num_vertices();
        let mut assigned = vec![false; n];
        let mut clusters = Vec::new();
        for v in 0..n {
            if assigned[v] {
                continue;
            }
            let members = cluster_members(forest, VertexId::from_index(v), tau);
            for m in &members {
                assigned[m.index()] = true;
            }
            clusters.push(members);
        }
        clusters
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynsld::{DynSldOptions, UpdateStrategy};
    use crate::DynSld;
    use dynsld_forest::gen::{self, WeightOrder};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    fn spine_opts() -> DynSldOptions {
        DynSldOptions {
            maintain_spine_index: true,
            strategy: UpdateStrategy::Sequential,
            ..Default::default()
        }
    }

    /// Weighted path 0-1-2-3-4-5 with weights 1, 5, 2, 4, 3.
    fn example() -> DynSld {
        let mut f = dynsld_forest::Forest::new(6);
        for (i, w) in [1.0, 5.0, 2.0, 4.0, 3.0].iter().enumerate() {
            f.insert_edge(v(i as u32), v(i as u32 + 1), *w);
        }
        DynSld::from_forest(f, spine_opts())
    }

    #[test]
    fn threshold_queries_follow_bottleneck_weights() {
        let mut d = example();
        assert!(d.threshold_connected(v(0), v(1), 1.0));
        assert!(!d.threshold_connected(v(0), v(2), 1.0));
        assert!(d.threshold_connected(v(0), v(2), 5.0));
        assert!(d.threshold_connected(v(2), v(5), 4.0));
        assert!(!d.threshold_connected(v(2), v(5), 3.9));
        assert!(d.threshold_connected(v(3), v(3), 0.0));
        // Disconnected vertices are never threshold-connected.
        let mut d2 = DynSld::new(3);
        d2.insert_seq(v(0), v(1), 1.0).unwrap();
        assert!(!d2.threshold_connected(v(0), v(2), 100.0));
    }

    #[test]
    fn cluster_size_and_members_match_baseline() {
        let mut d = example();
        for tau in [0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0] {
            for u in 0..6 {
                let u = v(u);
                let fast = d.cluster_size(u, tau);
                let slow = msf_baseline::cluster_size(d.forest(), u, tau);
                assert_eq!(fast, slow, "size mismatch at tau={tau} u={u}");
                let mut fast_members = d.cluster_members(u, tau);
                let mut slow_members = msf_baseline::cluster_members(d.forest(), u, tau);
                fast_members.sort();
                slow_members.sort();
                assert_eq!(fast_members, slow_members);
            }
        }
    }

    #[test]
    fn cluster_queries_on_random_trees_match_baseline() {
        let mut rng = SmallRng::seed_from_u64(5);
        for seed in 0..3 {
            let inst = gen::random_tree(150, seed);
            let mut with_index = DynSld::from_forest(inst.build_forest(), spine_opts());
            let mut without_index =
                DynSld::from_forest(inst.build_forest(), DynSldOptions::default());
            for _ in 0..40 {
                let u = v(rng.gen_range(0..150));
                let tau = rng.gen::<f64>();
                let expect = msf_baseline::cluster_size(with_index.forest(), u, tau);
                assert_eq!(with_index.cluster_size(u, tau), expect);
                assert_eq!(without_index.cluster_size(u, tau), expect);
                let s = v(rng.gen_range(0..150));
                assert_eq!(
                    with_index.threshold_connected(u, s, tau),
                    msf_baseline::threshold_connected(with_index.forest(), u, s, tau)
                );
            }
        }
    }

    #[test]
    fn queries_stay_correct_under_updates() {
        let inst = gen::path(60, WeightOrder::Random(8));
        let wb = dynsld_forest::WorkloadBuilder::new(inst.clone());
        let mut d = DynSld::from_forest(inst.build_forest(), spine_opts());
        let mut rng = SmallRng::seed_from_u64(31);
        for up in wb.churn_stream(120, 9) {
            match up {
                dynsld_forest::Update::Insert { u, v, weight } => {
                    d.insert_seq(u, v, weight).unwrap();
                }
                dynsld_forest::Update::Delete { u, v } => {
                    d.delete_seq(u, v).unwrap();
                }
            }
            let u = v(rng.gen_range(0..60));
            let tau = rng.gen::<f64>() * 60.0;
            assert_eq!(
                d.cluster_size(u, tau),
                msf_baseline::cluster_size(d.forest(), u, tau)
            );
        }
    }

    #[test]
    fn flat_clustering_partitions_the_vertices() {
        let d = example();
        for tau in [0.0, 1.5, 3.5, 10.0] {
            let fc = d.flat_clustering(tau);
            // Every vertex appears in exactly one cluster and labels agree with membership.
            let mut count = [0usize; 6];
            for (c, members) in fc.clusters.iter().enumerate() {
                for m in members {
                    count[m.index()] += 1;
                    assert_eq!(fc.labels[m.index()], c);
                }
            }
            assert!(count.iter().all(|&c| c == 1));
            // Cross-check against the baseline partition (as sets).
            let mut ours: Vec<Vec<VertexId>> = fc.clusters.clone();
            let mut baseline = msf_baseline::flat_clustering(d.forest(), tau);
            for c in ours.iter_mut().chain(baseline.iter_mut()) {
                c.sort();
            }
            ours.sort();
            baseline.sort();
            assert_eq!(ours, baseline);
        }
    }

    #[test]
    fn flat_clustering_extremes() {
        let d = example();
        let all = d.flat_clustering(f64::INFINITY);
        assert_eq!(all.num_clusters(), 1);
        assert!(all.same_cluster(v(0), v(5)));
        let none = d.flat_clustering(0.0);
        assert_eq!(none.num_clusters(), 6);
        assert!(!none.same_cluster(v(0), v(1)));
    }

    #[test]
    fn singleton_cluster_for_heavy_thresholds() {
        let mut d = example();
        assert_eq!(d.cluster_root_at_threshold(v(0), 0.5), None);
        assert_eq!(d.cluster_size(v(0), 0.5), 1);
        assert_eq!(d.cluster_members(v(0), 0.5), vec![v(0)]);
    }
}
