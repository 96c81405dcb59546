//! # dynsld-rctree — rake–compress trees via parallel tree contraction
//!
//! Rake–compress (RC) trees (Acar et al.; Section 2.4 of the paper) represent a forest by the
//! trace of a parallel tree-contraction process: in every round a maximal independent set of
//! degree-1 vertices *rake* into their neighbour and degree-2 vertices *compress*, and the
//! clusters formed by these contractions are arranged into a tree of height `O(log n)` whose
//! leaves are the original vertices and edges.
//!
//! This crate provides
//!
//! * [`RcForest::build`] — parallel tree contraction (randomized independent sets, rayon-parallel
//!   round evaluation) producing the cluster hierarchy with per-cluster aggregates (vertex
//!   count, heaviest edge, cluster-path length for binary clusters);
//! * connectivity / component-size / heaviest-edge queries in `O(1)` after `O(log n)`-height
//!   construction, plus parallel batch connectivity queries (Table 1);
//! * structural accessors (`height`, `num_rounds`, cluster inspection) used by the Table 1
//!   benchmark;
//! * [`RcForest::link`] / [`RcForest::cut`] — dynamic updates realized by **re-contracting the
//!   affected component(s)** in parallel.
//!
//! **Substitution note (README.md, "Deviations from the paper", substitution 3).** The paper relies on the change-propagation
//! RC trees of Anderson–Blelloch, whose links/cuts cost `O(log n)` and whose batch operations
//! are work-efficient; re-contraction preserves all query semantics but costs work proportional
//! to the affected component per update. For this reason the *dynamic* DynSLD algorithms in
//! `dynsld` use the link-cut-tree and Euler-tour-tree substrates of `dynsld-dyntree` for their
//! per-update dynamic-tree needs, while this crate serves as the faithful RC-tree reference for
//! construction, queries and the Table 1 measurements.

#![warn(missing_docs)]

use dynsld_forest::{EdgeId, Forest, VertexId, Weight};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;
use std::collections::HashMap;

/// Identifier of an RC-tree cluster.
pub type ClusterId = usize;

/// The kind of an RC-tree cluster.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ClusterKind {
    /// A leaf cluster representing one original vertex.
    VertexLeaf,
    /// A leaf cluster representing one original edge.
    EdgeLeaf,
    /// A unary cluster formed by the *rake* of a degree-1 vertex: represents a subtree hanging
    /// off its single boundary vertex.
    Unary,
    /// A binary cluster formed by the *compress* of a degree-2 vertex: represents the path
    /// between its two boundary vertices plus everything hanging off that path.
    Binary,
    /// The root cluster of a fully contracted component.
    Root,
}

/// One cluster of the RC tree.
#[derive(Clone, Debug)]
pub struct Cluster {
    /// What kind of contraction formed this cluster.
    pub kind: ClusterKind,
    /// Parent cluster, if any (roots have none).
    pub parent: Option<ClusterId>,
    /// Child clusters combined into this cluster.
    pub children: Vec<ClusterId>,
    /// Boundary vertices (1 for unary clusters, 2 for binary clusters, 0 for roots/leaves of
    /// vertex kind, 2 for edge leaves).
    pub boundary: [Option<VertexId>; 2],
    /// Number of original vertices contained in the cluster.
    pub vertex_count: usize,
    /// The heaviest original edge contained in the cluster, if any.
    pub max_edge: Option<(Weight, EdgeId)>,
    /// Number of edges on the cluster path (binary clusters only).
    pub path_len: usize,
    /// Contraction round at which the cluster was formed (leaves are round 0).
    pub round: usize,
}

/// A rake–compress forest over a snapshot of a weighted forest.
#[derive(Clone, Debug)]
pub struct RcForest {
    forest: Forest,
    clusters: Vec<Cluster>,
    leaf_of_vertex: Vec<ClusterId>,
    leaf_of_edge: HashMap<EdgeId, ClusterId>,
    root_of_vertex: Vec<ClusterId>,
    rounds: usize,
    seed: u64,
}

impl RcForest {
    /// Builds the RC forest of `forest` by parallel tree contraction.
    pub fn build(forest: Forest) -> Self {
        Self::build_with_seed(forest, 0xacab_5eed)
    }

    /// Builds with an explicit seed for the contraction priorities (reproducibility).
    pub fn build_with_seed(forest: Forest, seed: u64) -> Self {
        let n = forest.num_vertices();
        let mut rc = RcForest {
            forest,
            clusters: Vec::new(),
            leaf_of_vertex: vec![usize::MAX; n],
            leaf_of_edge: HashMap::new(),
            root_of_vertex: vec![usize::MAX; n],
            rounds: 0,
            seed,
        };
        let all: Vec<VertexId> = (0..n).map(VertexId::from_index).collect();
        rc.contract_vertices(&all);
        rc
    }

    /// The underlying forest snapshot.
    pub fn forest(&self) -> &Forest {
        &self.forest
    }

    /// Number of contraction rounds of the last (re-)contraction.
    pub fn num_rounds(&self) -> usize {
        self.rounds
    }

    /// Number of clusters (including leaves).
    pub fn num_clusters(&self) -> usize {
        self.clusters.len()
    }

    /// Access to a cluster.
    pub fn cluster(&self, id: ClusterId) -> &Cluster {
        &self.clusters[id]
    }

    /// Height of the RC tree (maximum number of parent hops from a leaf cluster to its root);
    /// `O(log n)` with high probability.
    pub fn height(&self) -> usize {
        let mut best = 0;
        for &leaf in self.leaf_of_vertex.iter().chain(self.leaf_of_edge.values()) {
            let mut depth = 0;
            let mut cur = leaf;
            while let Some(p) = self.clusters[cur].parent {
                depth += 1;
                cur = p;
            }
            best = best.max(depth);
        }
        best
    }

    /// The root cluster of the component containing `v`.
    pub fn root_cluster(&self, v: VertexId) -> ClusterId {
        self.root_of_vertex[v.index()]
    }

    /// Returns true if `u` and `v` are in the same component.
    pub fn connected(&self, u: VertexId, v: VertexId) -> bool {
        self.root_of_vertex[u.index()] == self.root_of_vertex[v.index()]
    }

    /// Parallel batch connectivity queries (Table 1, batch-parallel column).
    pub fn batch_connected(&self, pairs: &[(VertexId, VertexId)]) -> Vec<bool> {
        pairs
            .par_iter()
            .map(|&(u, v)| self.connected(u, v))
            .collect()
    }

    /// Number of vertices in the component containing `v`.
    pub fn component_size(&self, v: VertexId) -> usize {
        self.clusters[self.root_of_vertex[v.index()]].vertex_count
    }

    /// The heaviest edge in the component containing `v`, if the component has any edge.
    pub fn component_max_edge(&self, v: VertexId) -> Option<(Weight, EdgeId)> {
        self.clusters[self.root_of_vertex[v.index()]].max_edge
    }

    /// Inserts the edge `(u, v)` and re-contracts the merged component.
    ///
    /// # Panics
    /// Panics if `u` and `v` are already connected.
    pub fn link(&mut self, u: VertexId, v: VertexId, weight: Weight) -> EdgeId {
        assert!(!self.connected(u, v), "link would create a cycle");
        let e = self.forest.insert_edge(u, v, weight);
        let members = self.component_vertices_of_forest(u);
        self.contract_vertices(&members);
        e
    }

    /// Deletes edge `e` and re-contracts the two resulting components.
    pub fn cut(&mut self, e: EdgeId) {
        let data = self.forest.delete_edge(e);
        self.leaf_of_edge.remove(&e);
        let side_u = self.component_vertices_of_forest(data.u);
        let side_v = self.component_vertices_of_forest(data.v);
        self.contract_vertices(&side_u);
        self.contract_vertices(&side_v);
    }

    /// Vertices of the forest component containing `v` (walks the forest adjacency).
    fn component_vertices_of_forest(&self, v: VertexId) -> Vec<VertexId> {
        let mut seen = std::collections::HashSet::new();
        let mut stack = vec![v];
        seen.insert(v);
        let mut out = vec![v];
        while let Some(x) = stack.pop() {
            for (y, _) in self.forest.neighbors(x) {
                if seen.insert(y) {
                    out.push(y);
                    stack.push(y);
                }
            }
        }
        out
    }

    fn new_cluster(&mut self, cluster: Cluster) -> ClusterId {
        let id = self.clusters.len();
        self.clusters.push(cluster);
        id
    }

    fn attach_children(&mut self, parent: ClusterId, children: &[ClusterId]) {
        for &c in children {
            self.clusters[c].parent = Some(parent);
        }
    }

    /// (Re-)contracts the sub-forest induced by `vertices`, creating fresh leaf clusters for the
    /// involved vertices and edges and building the cluster hierarchy bottom-up.
    fn contract_vertices(&mut self, vertices: &[VertexId]) {
        let mut rng = SmallRng::seed_from_u64(self.seed ^ (self.clusters.len() as u64));
        // Fresh leaf clusters.
        for &v in vertices {
            let id = self.new_cluster(Cluster {
                kind: ClusterKind::VertexLeaf,
                parent: None,
                children: Vec::new(),
                boundary: [Some(v), None],
                vertex_count: 1,
                max_edge: None,
                path_len: 0,
                round: 0,
            });
            self.leaf_of_vertex[v.index()] = id;
        }
        // Local adjacency: vertex -> (neighbour, cluster currently representing that super-edge).
        let in_scope: std::collections::HashSet<VertexId> = vertices.iter().copied().collect();
        let mut adj: HashMap<VertexId, Vec<(VertexId, ClusterId)>> = HashMap::new();
        for &v in vertices {
            adj.entry(v).or_default();
        }
        for &v in vertices {
            let incident: Vec<(VertexId, EdgeId, Weight)> = self
                .forest
                .neighbors(v)
                .filter(|&(w, _)| v < w && in_scope.contains(&w))
                .map(|(w, e)| (w, e, self.forest.weight(e)))
                .collect();
            for (w, e, weight) in incident {
                let id = self.new_cluster(Cluster {
                    kind: ClusterKind::EdgeLeaf,
                    parent: None,
                    children: Vec::new(),
                    boundary: [Some(v), Some(w)],
                    vertex_count: 0,
                    max_edge: Some((weight, e)),
                    path_len: 1,
                    round: 0,
                });
                self.leaf_of_edge.insert(e, id);
                adj.get_mut(&v).expect("in scope").push((w, id));
                adj.get_mut(&w).expect("in scope").push((v, id));
            }
        }
        // Unary clusters raked onto each live vertex, waiting to be absorbed.
        let mut pending: HashMap<VertexId, Vec<ClusterId>> = HashMap::new();
        // Random priorities for the independent-set selection.
        let priority: HashMap<VertexId, u64> = vertices.iter().map(|&v| (v, rng.gen())).collect();
        let mut live: Vec<VertexId> = vertices.to_vec();
        let mut round = 0usize;

        while !live.is_empty() {
            round += 1;
            // A vertex is eligible if its current degree is at most 2. Among eligible vertices,
            // contract a maximal independent set: an eligible vertex contracts if no eligible
            // neighbour has a higher priority. (Evaluated in parallel; read-only.)
            let chosen: Vec<VertexId> = live
                .par_iter()
                .copied()
                .filter(|&v| {
                    let nbrs = &adj[&v];
                    if nbrs.len() > 2 {
                        return false;
                    }
                    nbrs.iter()
                        .all(|&(w, _)| adj[&w].len() > 2 || priority[&w] < priority[&v])
                })
                .collect();
            debug_assert!(!chosen.is_empty(), "contraction must make progress");
            for v in chosen {
                let nbrs = adj[&v].clone();
                let vleaf = self.leaf_of_vertex[v.index()];
                let mut children = vec![vleaf];
                children.extend(pending.remove(&v).unwrap_or_default());
                match nbrs.len() {
                    0 => {
                        // Finalize: this vertex is the last of its component.
                        children.extend(nbrs.iter().map(|&(_, c)| c));
                        let agg = self.aggregate(&children);
                        let id = self.new_cluster(Cluster {
                            kind: ClusterKind::Root,
                            parent: None,
                            children: children.clone(),
                            boundary: [None, None],
                            vertex_count: agg.0,
                            max_edge: agg.1,
                            path_len: 0,
                            round,
                        });
                        self.attach_children(id, &children);
                        // Record the component root for every vertex below (done after the loop
                        // via a propagation pass).
                    }
                    1 => {
                        // Rake into the neighbour.
                        let (w, ec) = nbrs[0];
                        children.push(ec);
                        let agg = self.aggregate(&children);
                        let id = self.new_cluster(Cluster {
                            kind: ClusterKind::Unary,
                            parent: None,
                            children: children.clone(),
                            boundary: [Some(w), None],
                            vertex_count: agg.0,
                            max_edge: agg.1,
                            path_len: 0,
                            round,
                        });
                        self.attach_children(id, &children);
                        pending.entry(w).or_default().push(id);
                        // Remove v from w's adjacency.
                        let wadj = adj.get_mut(&w).expect("neighbour in scope");
                        wadj.retain(|&(x, _)| x != v);
                    }
                    2 => {
                        // Compress: the two incident super-edges merge into one.
                        let (w1, ec1) = nbrs[0];
                        let (w2, ec2) = nbrs[1];
                        children.push(ec1);
                        children.push(ec2);
                        let agg = self.aggregate(&children);
                        let path_len = self.clusters[ec1].path_len + self.clusters[ec2].path_len;
                        let id = self.new_cluster(Cluster {
                            kind: ClusterKind::Binary,
                            parent: None,
                            children: children.clone(),
                            boundary: [Some(w1), Some(w2)],
                            vertex_count: agg.0,
                            max_edge: agg.1,
                            path_len,
                            round,
                        });
                        self.attach_children(id, &children);
                        for (a, b) in [(w1, w2), (w2, w1)] {
                            let aadj = adj.get_mut(&a).expect("neighbour in scope");
                            aadj.retain(|&(x, _)| x != v);
                            aadj.push((b, id));
                        }
                    }
                    _ => unreachable!("only degree <= 2 vertices are chosen"),
                }
                adj.remove(&v);
            }
            live.retain(|v| adj.contains_key(v));
        }
        self.rounds = round;
        // Propagate root-cluster ids: for every vertex in scope, walk up from its leaf.
        // (Amortized O(log n) per vertex; executed in parallel.)
        let roots: Vec<(usize, ClusterId)> = vertices
            .par_iter()
            .map(|&v| {
                let mut cur = self.leaf_of_vertex[v.index()];
                while let Some(p) = self.clusters[cur].parent {
                    cur = p;
                }
                (v.index(), cur)
            })
            .collect();
        for (vi, root) in roots {
            self.root_of_vertex[vi] = root;
        }
    }

    fn aggregate(&self, children: &[ClusterId]) -> (usize, Option<(Weight, EdgeId)>) {
        let mut vertices = 0;
        let mut max_edge: Option<(Weight, EdgeId)> = None;
        for &c in children {
            vertices += self.clusters[c].vertex_count;
            if let Some((w, e)) = self.clusters[c].max_edge {
                max_edge = match max_edge {
                    Some((bw, be)) if (bw, be) >= (w, e) => Some((bw, be)),
                    _ => Some((w, e)),
                };
            }
        }
        (vertices, max_edge)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynsld_forest::gen::{self, WeightOrder};
    use dynsld_forest::Dsu;

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    fn check_against_dsu(rc: &RcForest) {
        let forest = rc.forest();
        let mut dsu = Dsu::new(forest.num_vertices());
        for (_, d) in forest.edges() {
            dsu.union(d.u, d.v);
        }
        for a in 0..forest.num_vertices() {
            let a = VertexId::from_index(a);
            assert_eq!(
                rc.component_size(a),
                dsu.set_size(a),
                "size mismatch at {a}"
            );
            for b in [0, forest.num_vertices() / 2, forest.num_vertices() - 1] {
                let b = VertexId::from_index(b);
                assert_eq!(rc.connected(a, b), dsu.connected(a, b));
            }
        }
    }

    #[test]
    fn builds_single_vertex_and_empty_forests() {
        let rc = RcForest::build(Forest::new(1));
        assert_eq!(rc.component_size(v(0)), 1);
        assert_eq!(rc.num_rounds(), 1);
        let rc = RcForest::build(Forest::new(5));
        assert!(!rc.connected(v(0), v(4)));
        assert_eq!(rc.component_size(v(3)), 1);
    }

    #[test]
    fn contraction_of_paths_and_stars() {
        for inst in [
            gen::path(200, WeightOrder::Increasing),
            gen::path(200, WeightOrder::Random(1)),
            gen::star(150),
            gen::caterpillar(20, 6, 2),
            gen::binary_tree(7, 3),
        ] {
            let rc = RcForest::build(inst.build_forest());
            check_against_dsu(&rc);
            assert_eq!(rc.component_size(v(0)), inst.n);
        }
    }

    #[test]
    fn rc_tree_height_is_logarithmic() {
        for (n, inst) in [
            (4096, gen::path(4096, WeightOrder::Random(7))),
            (4095, gen::random_tree(4095, 9)),
        ] {
            let rc = RcForest::build(inst.build_forest());
            let h = rc.height();
            let bound = 6 * (n as f64).log2() as usize + 10;
            assert!(
                h <= bound,
                "RC tree height {h} exceeds O(log n) bound {bound}"
            );
            assert!(rc.num_rounds() <= bound);
        }
    }

    #[test]
    fn component_max_edge_matches_scan() {
        let inst = gen::random_tree(300, 4);
        let rc = RcForest::build(inst.build_forest());
        let expected = rc
            .forest()
            .edges()
            .map(|(e, d)| (d.weight, e))
            .max_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(rc.component_max_edge(v(0)), expected);
        // Isolated vertex has no edge.
        let rc2 = RcForest::build(Forest::new(3));
        assert_eq!(rc2.component_max_edge(v(1)), None);
    }

    #[test]
    fn disjoint_components_have_distinct_roots() {
        let inst = gen::disjoint_random_trees(5, 40, 8);
        let rc = RcForest::build(inst.build_forest());
        check_against_dsu(&rc);
        assert!(!rc.connected(v(0), v(40)));
        assert_eq!(rc.component_size(v(0)), 40);
        let pairs: Vec<(VertexId, VertexId)> = (0..200)
            .map(|i| (v(i % 200), v((i * 7 + 3) % 200)))
            .collect();
        let batch = rc.batch_connected(&pairs);
        for (i, &(a, b)) in pairs.iter().enumerate() {
            assert_eq!(batch[i], rc.connected(a, b));
        }
    }

    #[test]
    fn link_and_cut_recontract_correctly() {
        let inst = gen::disjoint_random_trees(3, 30, 5);
        let mut rc = RcForest::build(inst.build_forest());
        assert!(!rc.connected(v(0), v(35)));
        let e = rc.link(v(0), v(35), 0.5);
        assert!(rc.connected(v(0), v(35)));
        assert_eq!(rc.component_size(v(0)), 60);
        check_against_dsu(&rc);
        rc.cut(e);
        assert!(!rc.connected(v(0), v(35)));
        assert_eq!(rc.component_size(v(0)), 30);
        check_against_dsu(&rc);
        // Cut an interior edge of a path-shaped component.
        let inst = gen::path(50, WeightOrder::Increasing);
        let mut rc = RcForest::build(inst.build_forest());
        let mid = rc.forest().find_edge(v(24), v(25)).unwrap();
        rc.cut(mid);
        assert_eq!(rc.component_size(v(0)), 25);
        assert_eq!(rc.component_size(v(49)), 25);
        check_against_dsu(&rc);
    }

    #[test]
    fn cluster_structure_invariants() {
        let inst = gen::random_tree(500, 13);
        let rc = RcForest::build(inst.build_forest());
        let mut root_count = 0;
        for id in 0..rc.num_clusters() {
            let c = rc.cluster(id);
            match c.kind {
                ClusterKind::Root => {
                    root_count += 1;
                    assert!(c.parent.is_none());
                }
                ClusterKind::VertexLeaf | ClusterKind::EdgeLeaf => {
                    assert!(c.children.is_empty());
                }
                ClusterKind::Unary => assert!(c.boundary[0].is_some() && c.boundary[1].is_none()),
                ClusterKind::Binary => {
                    assert!(c.boundary[0].is_some() && c.boundary[1].is_some());
                    assert!(c.path_len >= 2);
                }
            }
            for &child in &c.children {
                assert_eq!(rc.cluster(child).parent, Some(id));
            }
        }
        assert_eq!(root_count, 1);
        // The root cluster contains every vertex.
        assert_eq!(rc.cluster(rc.root_cluster(v(0))).vertex_count, 500);
    }
}
