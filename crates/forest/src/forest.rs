//! The dynamic weighted forest.
//!
//! [`Forest`] stores the *input* of the dynamic SLD problem: a set of vertices and a set of
//! weighted edges subject to insertions and deletions. The structure is deliberately minimal —
//! it performs no connectivity checking itself (that is the job of the dynamic-tree structures
//! in `dynsld-dyntree`) — but it maintains the one piece of ordered information every DynSLD
//! update relies on: for each vertex `v`, the incident edges ordered by rank, so that the
//! characteristic edge `e*_v` (minimum-rank edge incident to `v`, Section 3.1 of the paper) is
//! available in `O(log deg(v))` time.

use crate::ids::{EdgeId, VertexId};
use crate::weight::{RankKey, Weight};
use std::collections::BTreeSet;

/// The data stored for one alive edge.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct EdgeData {
    /// First endpoint.
    pub u: VertexId,
    /// Second endpoint.
    pub v: VertexId,
    /// Edge weight (smaller = merged earlier by single-linkage clustering).
    pub weight: Weight,
}

impl EdgeData {
    /// Returns the endpoint of this edge different from `x`.
    ///
    /// # Panics
    /// Panics if `x` is not an endpoint of the edge.
    #[inline]
    pub fn other(&self, x: VertexId) -> VertexId {
        if x == self.u {
            self.v
        } else if x == self.v {
            self.u
        } else {
            panic!("{x} is not an endpoint of edge ({}, {})", self.u, self.v)
        }
    }

    /// Returns true if `x` is one of the two endpoints.
    #[inline]
    pub fn has_endpoint(&self, x: VertexId) -> bool {
        x == self.u || x == self.v
    }
}

/// A dynamic weighted forest with stable edge ids and rank-ordered incidence lists.
///
/// Vertices are identified by [`VertexId`] in `0..num_vertices()`. Edges are identified by
/// [`EdgeId`]; ids of deleted edges are recycled. The caller is responsible for keeping the
/// edge set acyclic (the higher-level `DynSld` structure checks this using its connectivity
/// structure and rejects cycle-creating insertions).
#[derive(Clone, Debug, Default)]
pub struct Forest {
    edges: Vec<Option<EdgeData>>,
    free: Vec<EdgeId>,
    adj: Vec<BTreeSet<RankKey>>,
    num_alive: usize,
}

impl Forest {
    /// Creates a forest with `n` isolated vertices and no edges.
    pub fn new(n: usize) -> Self {
        Forest {
            edges: Vec::new(),
            free: Vec::new(),
            adj: vec![BTreeSet::new(); n],
            num_alive: 0,
        }
    }

    /// Creates a forest with `n` vertices, reserving capacity for `m` edges.
    pub fn with_edge_capacity(n: usize, m: usize) -> Self {
        let mut f = Self::new(n);
        f.edges.reserve(m);
        f
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.adj.len()
    }

    /// Number of alive edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_alive
    }

    /// Exclusive upper bound on the `index()` of any edge id ever returned (alive or dead).
    ///
    /// Useful for sizing id-indexed side arrays (e.g. dendrogram parent arrays).
    #[inline]
    pub fn edge_id_bound(&self) -> usize {
        self.edges.len()
    }

    /// Adds `k` new isolated vertices and returns the id of the first one.
    pub fn add_vertices(&mut self, k: usize) -> VertexId {
        let first = VertexId::from_index(self.adj.len());
        self.adj.resize_with(self.adj.len() + k, BTreeSet::new);
        first
    }

    /// Inserts the edge `(u, v)` with weight `weight` and returns its id.
    ///
    /// Does **not** check acyclicity; the caller must guarantee the forest property.
    ///
    /// # Panics
    /// Panics if `u == v` or either endpoint is out of range.
    pub fn insert_edge(&mut self, u: VertexId, v: VertexId, weight: Weight) -> EdgeId {
        assert!(u != v, "self loops are not allowed in a forest");
        assert!(
            u.index() < self.adj.len() && v.index() < self.adj.len(),
            "endpoint out of range"
        );
        let data = EdgeData { u, v, weight };
        let id = match self.free.pop() {
            Some(id) => {
                self.edges[id.index()] = Some(data);
                id
            }
            None => {
                let id = EdgeId::from_index(self.edges.len());
                self.edges.push(Some(data));
                id
            }
        };
        let key = RankKey::new(weight, id);
        self.adj[u.index()].insert(key);
        self.adj[v.index()].insert(key);
        self.num_alive += 1;
        id
    }

    /// Deletes edge `e` and returns its data.
    ///
    /// # Panics
    /// Panics if `e` is not alive.
    pub fn delete_edge(&mut self, e: EdgeId) -> EdgeData {
        let data = self.edges[e.index()]
            .take()
            .unwrap_or_else(|| panic!("edge {e} is not alive"));
        let key = RankKey::new(data.weight, e);
        let removed_u = self.adj[data.u.index()].remove(&key);
        let removed_v = self.adj[data.v.index()].remove(&key);
        debug_assert!(removed_u && removed_v, "adjacency out of sync for {e}");
        self.free.push(e);
        self.num_alive -= 1;
        data
    }

    /// Returns true if edge id `e` refers to an alive edge.
    #[inline]
    pub fn contains_edge(&self, e: EdgeId) -> bool {
        self.edges.get(e.index()).is_some_and(Option::is_some)
    }

    /// Returns the data of alive edge `e`.
    ///
    /// # Panics
    /// Panics if `e` is not alive.
    #[inline]
    pub fn edge(&self, e: EdgeId) -> &EdgeData {
        self.edges[e.index()]
            .as_ref()
            .unwrap_or_else(|| panic!("edge {e} is not alive"))
    }

    /// Returns the endpoints `(u, v)` of alive edge `e`.
    #[inline]
    pub fn endpoints(&self, e: EdgeId) -> (VertexId, VertexId) {
        let d = self.edge(e);
        (d.u, d.v)
    }

    /// Returns the weight of alive edge `e`.
    #[inline]
    pub fn weight(&self, e: EdgeId) -> Weight {
        self.edge(e).weight
    }

    /// Returns the rank key of alive edge `e`.
    #[inline]
    pub fn rank(&self, e: EdgeId) -> RankKey {
        RankKey::new(self.edge(e).weight, e)
    }

    /// Returns true if edge `a` has strictly smaller rank than edge `b`.
    #[inline]
    pub fn rank_lt(&self, a: EdgeId, b: EdgeId) -> bool {
        self.rank(a) < self.rank(b)
    }

    /// Degree of vertex `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.adj[v.index()].len()
    }

    /// The minimum-rank edge incident to `v` (the paper's `e*_v`), if any.
    #[inline]
    pub fn min_incident(&self, v: VertexId) -> Option<EdgeId> {
        self.adj[v.index()].iter().next().map(|k| k.edge)
    }

    /// The minimum-rank edge incident to `v` excluding edge `skip`, if any.
    ///
    /// Used by the deletion algorithm, which needs `e*_u` in the component *after* removing the
    /// deleted edge while the edge is still present in the adjacency structure.
    pub fn min_incident_excluding(&self, v: VertexId, skip: EdgeId) -> Option<EdgeId> {
        self.adj[v.index()]
            .iter()
            .map(|k| k.edge)
            .find(|&e| e != skip)
    }

    /// Iterates over the edges incident to `v` in increasing rank order.
    pub fn incident_edges(&self, v: VertexId) -> impl Iterator<Item = EdgeId> + '_ {
        self.adj[v.index()].iter().map(|k| k.edge)
    }

    /// Iterates over `(neighbor, edge)` pairs of `v` in increasing rank order of the edges.
    pub fn neighbors(&self, v: VertexId) -> impl Iterator<Item = (VertexId, EdgeId)> + '_ {
        self.adj[v.index()]
            .iter()
            .map(move |k| (self.edge(k.edge).other(v), k.edge))
    }

    /// Iterates over all alive edges as `(id, data)` pairs in id order.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, &EdgeData)> + '_ {
        self.edges
            .iter()
            .enumerate()
            .filter_map(|(i, e)| e.as_ref().map(|d| (EdgeId::from_index(i), d)))
    }

    /// Iterates over all alive edge ids in id order.
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> + '_ {
        self.edges().map(|(id, _)| id)
    }

    /// Finds the id of an alive edge between `u` and `v`, if one exists. A forest has no
    /// self-loops, so `find_edge(u, u)` is `None`.
    ///
    /// Scans the smaller of the two incidence lists.
    pub fn find_edge(&self, u: VertexId, v: VertexId) -> Option<EdgeId> {
        if u == v {
            return None;
        }
        let (a, b) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.adj[a.index()]
            .iter()
            .map(|k| k.edge)
            .find(|&e| self.edge(e).has_endpoint(b))
    }

    /// Checks that the alive edge set is acyclic (a forest) using a scratch union-find.
    ///
    /// Intended for tests and debug assertions; `O(m α(n))`.
    pub fn is_forest(&self) -> bool {
        let mut dsu = crate::dsu::Dsu::new(self.num_vertices());
        self.edges().all(|(_, d)| dsu.union(d.u, d.v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    #[test]
    fn insert_and_query_edges() {
        let mut f = Forest::new(4);
        let e0 = f.insert_edge(v(0), v(1), 3.0);
        let e1 = f.insert_edge(v(1), v(2), 1.0);
        let e2 = f.insert_edge(v(2), v(3), 2.0);
        assert_eq!(f.num_edges(), 3);
        assert_eq!(f.num_vertices(), 4);
        assert_eq!(f.weight(e0), 3.0);
        assert_eq!(f.endpoints(e1), (v(1), v(2)));
        assert_eq!(f.degree(v(1)), 2);
        assert_eq!(f.degree(v(0)), 1);
        assert_eq!(f.min_incident(v(1)), Some(e1));
        assert_eq!(f.min_incident(v(2)), Some(e1));
        assert_eq!(f.min_incident(v(3)), Some(e2));
        assert!(f.is_forest());
    }

    #[test]
    fn min_incident_excluding_skips_edge() {
        let mut f = Forest::new(3);
        let e0 = f.insert_edge(v(0), v(1), 1.0);
        let e1 = f.insert_edge(v(1), v(2), 2.0);
        assert_eq!(f.min_incident_excluding(v(1), e0), Some(e1));
        assert_eq!(f.min_incident_excluding(v(0), e0), None);
        assert_eq!(f.min_incident_excluding(v(1), e1), Some(e0));
    }

    #[test]
    fn delete_recycles_ids() {
        let mut f = Forest::new(4);
        let e0 = f.insert_edge(v(0), v(1), 1.0);
        let _e1 = f.insert_edge(v(1), v(2), 2.0);
        let data = f.delete_edge(e0);
        assert_eq!(data.weight, 1.0);
        assert!(!f.contains_edge(e0));
        assert_eq!(f.num_edges(), 1);
        assert_eq!(f.min_incident(v(0)), None);
        let e2 = f.insert_edge(v(2), v(3), 0.5);
        // The freed id is recycled.
        assert_eq!(e2, e0);
        assert_eq!(f.edge_id_bound(), 2);
    }

    #[test]
    fn rank_ties_broken_by_id() {
        let mut f = Forest::new(3);
        let e0 = f.insert_edge(v(0), v(1), 5.0);
        let e1 = f.insert_edge(v(1), v(2), 5.0);
        assert!(f.rank_lt(e0, e1));
        assert_eq!(f.min_incident(v(1)), Some(e0));
    }

    #[test]
    fn incident_edges_in_rank_order() {
        let mut f = Forest::new(5);
        let heavy = f.insert_edge(v(0), v(1), 9.0);
        let light = f.insert_edge(v(0), v(2), 1.0);
        let mid = f.insert_edge(v(0), v(3), 4.0);
        let order: Vec<EdgeId> = f.incident_edges(v(0)).collect();
        assert_eq!(order, vec![light, mid, heavy]);
        let neighbors: Vec<VertexId> = f.neighbors(v(0)).map(|(n, _)| n).collect();
        assert_eq!(neighbors, vec![v(2), v(3), v(1)]);
    }

    #[test]
    fn find_edge_both_directions() {
        let mut f = Forest::new(3);
        let e = f.insert_edge(v(0), v(1), 1.0);
        assert_eq!(f.find_edge(v(0), v(1)), Some(e));
        assert_eq!(f.find_edge(v(1), v(0)), Some(e));
        assert_eq!(f.find_edge(v(0), v(2)), None);
        // A self-loop pair names no edge, not some edge at the vertex.
        assert_eq!(f.find_edge(v(0), v(0)), None);
        assert_eq!(f.find_edge(v(1), v(1)), None);
    }

    #[test]
    fn add_vertices_extends_range() {
        let mut f = Forest::new(2);
        let first = f.add_vertices(3);
        assert_eq!(first, v(2));
        assert_eq!(f.num_vertices(), 5);
        f.insert_edge(v(4), v(0), 1.0);
        assert_eq!(f.degree(v(4)), 1);
    }

    #[test]
    fn cycle_detected_by_is_forest() {
        let mut f = Forest::new(3);
        f.insert_edge(v(0), v(1), 1.0);
        f.insert_edge(v(1), v(2), 2.0);
        assert!(f.is_forest());
        f.insert_edge(v(2), v(0), 3.0);
        assert!(!f.is_forest());
    }

    #[test]
    fn edges_iterator_skips_deleted() {
        let mut f = Forest::new(4);
        let e0 = f.insert_edge(v(0), v(1), 1.0);
        let e1 = f.insert_edge(v(1), v(2), 2.0);
        let e2 = f.insert_edge(v(2), v(3), 3.0);
        f.delete_edge(e1);
        let ids: Vec<EdgeId> = f.edge_ids().collect();
        assert_eq!(ids, vec![e0, e2]);
    }

    #[test]
    #[should_panic(expected = "self loops")]
    fn self_loop_panics() {
        let mut f = Forest::new(2);
        f.insert_edge(v(0), v(0), 1.0);
    }

    #[test]
    #[should_panic(expected = "not alive")]
    fn double_delete_panics() {
        let mut f = Forest::new(2);
        let e = f.insert_edge(v(0), v(1), 1.0);
        f.delete_edge(e);
        f.delete_edge(e);
    }
}
