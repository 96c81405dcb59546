//! Euler-tour trees over randomized treaps.
//!
//! An Euler-tour tree represents each tree of a dynamic forest by (a circular rotation of) its
//! Euler tour, stored in a balanced binary search tree keyed by tour position. We use treaps
//! with random priorities, giving `O(log n)` expected time per operation.
//!
//! The tour of a component contains one *vertex node* per vertex and two *arc nodes* per edge
//! (one per direction). Linking two components concatenates their (re-rooted) tours; cutting an
//! edge splits the tour around the two arcs of the edge.
//!
//! DynSLD uses this structure over the **input forest** for:
//! * connectivity queries during deletions (which side of the cut does a spine node fall on),
//! * component sizes and member iteration (cluster report / flat clustering fallbacks, MSF
//!   replacement-edge search on the smaller side),
//! * stable component representatives within a single query round.
//!
//! # Batched representative queries
//!
//! A deletion asks "which side of the cut?" for every node of a spine, and the paper charges
//! those `k` questions as **one batch**: `O(k log(1 + n/k))` on a balanced tree, because the
//! root paths of `k` nodes share all but `O(log(1 + n/k))` of their nodes each. Answered one at
//! a time with [`EulerTourForest::connected`] they cost two full root walks per question.
//! [`EulerTourForest::repr_round`] is the batch form: a [`ReprRound`] answers
//! [`repr`](ReprRound::repr) by climbing only until it meets a treap node already resolved in
//! this round and then stamps the climbed path, so the round as a whole visits each node of the
//! union of the root paths once, and a repeated vertex costs `O(1)`. The memo lives in a
//! caller-owned [`RoundTable`] (8 bytes per treap node, reused across rounds), and the round
//! borrows the forest immutably — no [`link`](EulerTourForest::link) or
//! [`cut`](EulerTourForest::cut) can invalidate an answer that is still in use.

use crate::round::RoundTable;
use dynsld_forest::{EdgeId, VertexId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const NONE: u32 = u32::MAX;

#[derive(Clone, Debug)]
struct Node {
    parent: u32,
    left: u32,
    right: u32,
    priority: u64,
    /// Total number of treap nodes in this subtree (including self).
    size: u32,
    /// Number of vertex nodes in this subtree (including self if it is a vertex node).
    vertex_count: u32,
    /// The vertex this node represents, or `NONE` for an arc node.
    vertex: u32,
}

impl Node {
    fn new(priority: u64, vertex: u32) -> Self {
        Node {
            parent: NONE,
            left: NONE,
            right: NONE,
            priority,
            size: 1,
            vertex_count: u32::from(vertex != NONE),
            vertex,
        }
    }
}

/// Euler-tour tree representation of a dynamic forest.
///
/// Vertices are fixed at construction time ([`EulerTourForest::new`] / [`add_vertices`]);
/// edges are added with [`link`] and removed with [`cut`], identified by the [`EdgeId`] the
/// caller assigns (normally the id used by [`dynsld_forest::Forest`]).
///
/// [`add_vertices`]: EulerTourForest::add_vertices
/// [`link`]: EulerTourForest::link
/// [`cut`]: EulerTourForest::cut
#[derive(Clone, Debug)]
pub struct EulerTourForest {
    nodes: Vec<Node>,
    free: Vec<u32>,
    /// vertex id -> treap node holding that vertex.
    vertex_node: Vec<u32>,
    /// edge id -> the two arc nodes of that edge, if the edge is present.
    edge_arcs: Vec<Option<(u32, u32)>>,
    rng: SmallRng,
}

impl EulerTourForest {
    /// Creates a forest of `n` isolated vertices.
    pub fn new(n: usize) -> Self {
        Self::with_seed(n, 0x5eed_e77e)
    }

    /// Creates a forest of `n` isolated vertices with an explicit RNG seed (for reproducibility).
    pub fn with_seed(n: usize, seed: u64) -> Self {
        let mut ett = EulerTourForest {
            nodes: Vec::with_capacity(2 * n),
            free: Vec::new(),
            vertex_node: Vec::with_capacity(n),
            edge_arcs: Vec::new(),
            rng: SmallRng::seed_from_u64(seed),
        };
        ett.add_vertices(n);
        ett
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.vertex_node.len()
    }

    /// Adds `k` isolated vertices.
    pub fn add_vertices(&mut self, k: usize) {
        for _ in 0..k {
            let v = self.vertex_node.len() as u32;
            let node = self.alloc(v);
            self.vertex_node.push(node);
        }
    }

    fn alloc(&mut self, vertex: u32) -> u32 {
        let priority = self.rng.gen::<u64>();
        match self.free.pop() {
            Some(idx) => {
                self.nodes[idx as usize] = Node::new(priority, vertex);
                idx
            }
            None => {
                self.nodes.push(Node::new(priority, vertex));
                (self.nodes.len() - 1) as u32
            }
        }
    }

    #[inline]
    fn size(&self, t: u32) -> u32 {
        if t == NONE {
            0
        } else {
            self.nodes[t as usize].size
        }
    }

    #[inline]
    fn vcount(&self, t: u32) -> u32 {
        if t == NONE {
            0
        } else {
            self.nodes[t as usize].vertex_count
        }
    }

    fn update(&mut self, t: u32) {
        let (l, r, is_v) = {
            let n = &self.nodes[t as usize];
            (n.left, n.right, n.vertex != NONE)
        };
        let size = 1 + self.size(l) + self.size(r);
        let vcount = u32::from(is_v) + self.vcount(l) + self.vcount(r);
        let n = &mut self.nodes[t as usize];
        n.size = size;
        n.vertex_count = vcount;
    }

    fn root_of(&self, mut t: u32) -> u32 {
        while self.nodes[t as usize].parent != NONE {
            t = self.nodes[t as usize].parent;
        }
        t
    }

    /// In-order position of node `t` within its treap.
    fn position(&self, t: u32) -> u32 {
        let mut idx = self.size(self.nodes[t as usize].left);
        let mut cur = t;
        while self.nodes[cur as usize].parent != NONE {
            let p = self.nodes[cur as usize].parent;
            if self.nodes[p as usize].right == cur {
                idx += self.size(self.nodes[p as usize].left) + 1;
            }
            cur = p;
        }
        idx
    }

    /// Splits the treap rooted at `t` into (first `k` nodes, rest). Both results are roots.
    fn split(&mut self, t: u32, k: u32) -> (u32, u32) {
        if t == NONE {
            return (NONE, NONE);
        }
        debug_assert_eq!(self.nodes[t as usize].parent, NONE);
        let lsize = self.size(self.nodes[t as usize].left);
        if k <= lsize {
            let left = self.nodes[t as usize].left;
            if left != NONE {
                self.nodes[left as usize].parent = NONE;
            }
            let (a, b) = self.split(left, k);
            self.nodes[t as usize].left = b;
            if b != NONE {
                self.nodes[b as usize].parent = t;
            }
            self.update(t);
            if a != NONE {
                self.nodes[a as usize].parent = NONE;
            }
            (a, t)
        } else {
            let right = self.nodes[t as usize].right;
            if right != NONE {
                self.nodes[right as usize].parent = NONE;
            }
            let (a, b) = self.split(right, k - lsize - 1);
            self.nodes[t as usize].right = a;
            if a != NONE {
                self.nodes[a as usize].parent = t;
            }
            self.update(t);
            if b != NONE {
                self.nodes[b as usize].parent = NONE;
            }
            (t, b)
        }
    }

    /// Joins two treaps (all keys of `a` precede all keys of `b`). Returns the new root.
    fn join(&mut self, a: u32, b: u32) -> u32 {
        if a == NONE {
            return b;
        }
        if b == NONE {
            return a;
        }
        debug_assert_eq!(self.nodes[a as usize].parent, NONE);
        debug_assert_eq!(self.nodes[b as usize].parent, NONE);
        if self.nodes[a as usize].priority > self.nodes[b as usize].priority {
            let ar = self.nodes[a as usize].right;
            if ar != NONE {
                self.nodes[ar as usize].parent = NONE;
            }
            let r = self.join(ar, b);
            self.nodes[a as usize].right = r;
            self.nodes[r as usize].parent = a;
            self.update(a);
            a
        } else {
            let bl = self.nodes[b as usize].left;
            if bl != NONE {
                self.nodes[bl as usize].parent = NONE;
            }
            let l = self.join(a, bl);
            self.nodes[b as usize].left = l;
            self.nodes[l as usize].parent = b;
            self.update(b);
            b
        }
    }

    /// Rotates the tour of `v`'s component so that it starts at `v`'s vertex node.
    /// Returns the new treap root.
    fn reroot(&mut self, v: VertexId) -> u32 {
        let vnode = self.vertex_node[v.index()];
        let root = self.root_of(vnode);
        let pos = self.position(vnode);
        let (a, b) = self.split(root, pos);
        self.join(b, a)
    }

    /// Returns true if `u` and `v` are in the same component.
    pub fn connected(&self, u: VertexId, v: VertexId) -> bool {
        self.component_repr(u) == self.component_repr(v)
    }

    /// An opaque identifier of `v`'s component.
    ///
    /// Two vertices have equal representatives iff they are connected. Representatives are only
    /// stable *between* updates: any [`link`](Self::link) or [`cut`](Self::cut) may change them.
    pub fn component_repr(&self, v: VertexId) -> usize {
        self.root_of(self.vertex_node[v.index()]) as usize
    }

    /// Number of vertices in `v`'s component.
    pub fn component_size(&self, v: VertexId) -> usize {
        let root = self.root_of(self.vertex_node[v.index()]);
        self.nodes[root as usize].vertex_count as usize
    }

    /// Collects the vertices of `v`'s component (in Euler-tour order).
    pub fn component_vertices(&self, v: VertexId) -> Vec<VertexId> {
        let root = self.root_of(self.vertex_node[v.index()]);
        let mut out = Vec::with_capacity(self.nodes[root as usize].vertex_count as usize);
        // Iterative in-order traversal.
        let mut stack = Vec::new();
        let mut cur = root;
        while cur != NONE || !stack.is_empty() {
            while cur != NONE {
                stack.push(cur);
                cur = self.nodes[cur as usize].left;
            }
            let t = stack.pop().expect("non-empty stack");
            let vert = self.nodes[t as usize].vertex;
            if vert != NONE {
                out.push(VertexId(vert));
            }
            cur = self.nodes[t as usize].right;
        }
        out
    }

    /// Links `u` and `v` with edge `e`, merging their components.
    ///
    /// # Panics
    /// Panics if `u` and `v` are already connected or if `e` is already present.
    pub fn link(&mut self, u: VertexId, v: VertexId, e: EdgeId) {
        assert!(!self.connected(u, v), "link would create a cycle");
        if self.edge_arcs.len() <= e.index() {
            self.edge_arcs.resize(e.index() + 1, None);
        }
        assert!(
            self.edge_arcs[e.index()].is_none(),
            "edge {e} already present"
        );
        let tour_u = self.reroot(u);
        let tour_v = self.reroot(v);
        let arc_uv = self.alloc(NONE);
        let arc_vu = self.alloc(NONE);
        self.edge_arcs[e.index()] = Some((arc_uv, arc_vu));
        let t = self.join(tour_u, arc_uv);
        let t = self.join(t, tour_v);
        self.join(t, arc_vu);
    }

    /// Returns true if edge `e` is currently present.
    pub fn has_edge(&self, e: EdgeId) -> bool {
        self.edge_arcs.get(e.index()).is_some_and(Option::is_some)
    }

    /// Cuts edge `e`, splitting its component in two.
    ///
    /// # Panics
    /// Panics if `e` is not present.
    pub fn cut(&mut self, e: EdgeId) {
        let (a, b) = self
            .edge_arcs
            .get_mut(e.index())
            .and_then(Option::take)
            .unwrap_or_else(|| panic!("edge {e} not present"));
        let root = self.root_of(a);
        debug_assert_eq!(root, self.root_of(b), "arcs of one edge must share a tour");
        let pos_a = self.position(a);
        let pos_b = self.position(b);
        let (first, second, pos_first, pos_second) = if pos_a < pos_b {
            (a, b, pos_a, pos_b)
        } else {
            (b, a, pos_b, pos_a)
        };
        // Tour = L ++ [first] ++ M ++ [second] ++ R.
        let (l, rest) = self.split(root, pos_first);
        let (first_node, rest) = self.split(rest, 1);
        debug_assert_eq!(first_node, first);
        let (m, rest) = self.split(rest, pos_second - pos_first - 1);
        let (second_node, r) = self.split(rest, 1);
        debug_assert_eq!(second_node, second);
        // One component keeps M, the other keeps L ++ R.
        self.join(l, r);
        let _ = m;
        self.free.push(first);
        self.free.push(second);
    }

    /// Starts a batch of representative queries that memoises in `memo` (see the
    /// [module docs](self#batched-representative-queries)). `memo` is scratch: its previous
    /// contents are forgotten, and it may be reused with any forest.
    ///
    /// The round holds `&self`, so the borrow checker rejects a structural update while its
    /// answers are live:
    ///
    /// ```compile_fail
    /// use dynsld_dyntree::{EulerTourForest, RoundTable};
    /// use dynsld_forest::{EdgeId, VertexId};
    /// let mut ett = EulerTourForest::new(2);
    /// let mut memo = RoundTable::new();
    /// let mut round = ett.repr_round(&mut memo);
    /// let before = round.repr(VertexId(0));
    /// ett.link(VertexId(0), VertexId(1), EdgeId(0)); // error: `ett` is borrowed by `round`
    /// assert_eq!(round.repr(VertexId(1)), before);
    /// ```
    pub fn repr_round<'a>(&'a self, memo: &'a mut RoundTable) -> ReprRound<'a> {
        memo.begin_round(self.nodes.len());
        ReprRound {
            ett: self,
            memo,
            visits: 0,
        }
    }
}

/// One batch of component-representative queries against an [`EulerTourForest`]; created by
/// [`EulerTourForest::repr_round`].
#[derive(Debug)]
pub struct ReprRound<'a> {
    ett: &'a EulerTourForest,
    /// Treap node -> the treap root it resolved to in this round.
    memo: &'a mut RoundTable,
    visits: u64,
}

impl ReprRound<'_> {
    /// The representative of `v`'s component: the value of
    /// [`EulerTourForest::component_repr`], as the treap's native `u32` node index. Two
    /// vertices have equal representatives iff they are connected.
    pub fn repr(&mut self, v: VertexId) -> u32 {
        let nodes = &self.ett.nodes;
        let start = self.ett.vertex_node[v.index()];
        // Climb until a node resolved earlier in this round, or the treap root.
        let mut top = start;
        let root = loop {
            self.visits += 1;
            if let Some(root) = self.memo.get(top as usize) {
                break root;
            }
            match nodes[top as usize].parent {
                NONE => break top,
                parent => top = parent,
            }
        };
        // Stamp the climbed path, so the next query that reaches it stops there.
        let mut t = start;
        loop {
            self.memo.set(t as usize, root);
            if t == top {
                break;
            }
            t = nodes[t as usize].parent;
        }
        root
    }

    /// Treap nodes visited while climbing so far in this round — the round's work measure
    /// (the stamping pass revisits the same nodes and is not counted again).
    pub fn visits(&self) -> u64 {
        self.visits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynsld_forest::gen::{self, WeightOrder};
    use rand::seq::SliceRandom;

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }
    fn e(i: u32) -> EdgeId {
        EdgeId(i)
    }

    #[test]
    fn isolated_vertices_are_disconnected() {
        let ett = EulerTourForest::new(4);
        assert!(!ett.connected(v(0), v(1)));
        assert_eq!(ett.component_size(v(2)), 1);
        assert_eq!(ett.component_vertices(v(3)), vec![v(3)]);
    }

    #[test]
    fn link_connects_and_cut_disconnects() {
        let mut ett = EulerTourForest::new(5);
        ett.link(v(0), v(1), e(0));
        ett.link(v(1), v(2), e(1));
        ett.link(v(3), v(4), e(2));
        assert!(ett.connected(v(0), v(2)));
        assert!(!ett.connected(v(0), v(3)));
        assert_eq!(ett.component_size(v(0)), 3);
        assert_eq!(ett.component_size(v(4)), 2);
        ett.cut(e(1));
        assert!(ett.connected(v(0), v(1)));
        assert!(!ett.connected(v(1), v(2)));
        assert_eq!(ett.component_size(v(0)), 2);
        assert_eq!(ett.component_size(v(2)), 1);
        assert!(!ett.has_edge(e(1)));
        assert!(ett.has_edge(e(0)));
    }

    #[test]
    fn relink_after_cut_reuses_edge_id() {
        let mut ett = EulerTourForest::new(3);
        ett.link(v(0), v(1), e(0));
        ett.cut(e(0));
        ett.link(v(1), v(2), e(0));
        assert!(ett.connected(v(1), v(2)));
        assert!(!ett.connected(v(0), v(2)));
    }

    #[test]
    fn component_vertices_match_component() {
        let mut ett = EulerTourForest::new(6);
        ett.link(v(0), v(1), e(0));
        ett.link(v(2), v(1), e(1));
        ett.link(v(3), v(2), e(2));
        let mut members = ett.component_vertices(v(3));
        members.sort();
        assert_eq!(members, vec![v(0), v(1), v(2), v(3)]);
        assert_eq!(ett.component_vertices(v(4)), vec![v(4)]);
    }

    #[test]
    #[should_panic(expected = "cycle")]
    fn linking_connected_vertices_panics() {
        let mut ett = EulerTourForest::new(3);
        ett.link(v(0), v(1), e(0));
        ett.link(v(1), v(2), e(1));
        ett.link(v(0), v(2), e(2));
    }

    #[test]
    #[should_panic(expected = "not present")]
    fn cutting_absent_edge_panics() {
        let mut ett = EulerTourForest::new(3);
        ett.link(v(0), v(1), e(0));
        ett.cut(e(1));
    }

    /// Reference implementation: connectivity by DSU rebuilt from the alive edge list.
    struct Oracle {
        n: usize,
        edges: Vec<Option<(VertexId, VertexId)>>,
    }

    impl Oracle {
        fn connected(&self, a: VertexId, b: VertexId) -> bool {
            let mut dsu = dynsld_forest::Dsu::new(self.n);
            for uv in self.edges.iter().flatten() {
                dsu.union(uv.0, uv.1);
            }
            dsu.connected(a, b)
        }
        fn component_size(&self, a: VertexId) -> usize {
            let mut dsu = dynsld_forest::Dsu::new(self.n);
            for uv in self.edges.iter().flatten() {
                dsu.union(uv.0, uv.1);
            }
            dsu.set_size(a)
        }
    }

    #[test]
    fn randomized_updates_match_dsu_oracle() {
        let n = 120usize;
        let tree = gen::random_tree(n, 77);
        let mut rng = rand::rngs::SmallRng::seed_from_u64(99);
        let mut ett = EulerTourForest::new(n);
        let mut oracle = Oracle {
            n,
            edges: vec![None; n - 1],
        };
        // Start with the full tree.
        for (i, &(a, b, _)) in tree.edges.iter().enumerate() {
            ett.link(a, b, EdgeId(i as u32));
            oracle.edges[i] = Some((a, b));
        }
        let mut present: Vec<usize> = (0..n - 1).collect();
        let mut absent: Vec<usize> = Vec::new();
        for step in 0..600 {
            let do_cut = if present.is_empty() {
                false
            } else if absent.is_empty() {
                true
            } else {
                rng.gen_bool(0.5)
            };
            if do_cut {
                present.shuffle(&mut rng);
                let i = present.pop().expect("non-empty");
                ett.cut(EdgeId(i as u32));
                oracle.edges[i] = None;
                absent.push(i);
            } else {
                absent.shuffle(&mut rng);
                let i = absent.pop().expect("non-empty");
                let (a, b, _) = tree.edges[i];
                ett.link(a, b, EdgeId(i as u32));
                oracle.edges[i] = Some((a, b));
                present.push(i);
            }
            // Spot-check a handful of random pairs and sizes.
            for _ in 0..8 {
                let a = VertexId(rng.gen_range(0..n as u32));
                let b = VertexId(rng.gen_range(0..n as u32));
                assert_eq!(
                    ett.connected(a, b),
                    oracle.connected(a, b),
                    "connectivity mismatch at step {step}"
                );
                assert_eq!(
                    ett.component_size(a),
                    oracle.component_size(a),
                    "size mismatch at step {step}"
                );
            }
        }
    }

    #[test]
    fn path_component_has_correct_members_after_middle_cut() {
        let inst = gen::path(50, WeightOrder::Increasing);
        let mut ett = EulerTourForest::new(50);
        for (i, &(a, b, _)) in inst.edges.iter().enumerate() {
            ett.link(a, b, EdgeId(i as u32));
        }
        assert_eq!(ett.component_size(v(0)), 50);
        ett.cut(e(24)); // cut between v24 and v25
        assert_eq!(ett.component_size(v(0)), 25);
        assert_eq!(ett.component_size(v(49)), 25);
        let left = ett.component_vertices(v(0));
        assert!(left.iter().all(|x| x.0 <= 24));
        assert_eq!(left.len(), 25);
    }

    /// Asserts that a fresh round over `ett` agrees with `component_repr` on `queries`, in
    /// the given order (repeats included).
    fn assert_round_matches(ett: &EulerTourForest, memo: &mut RoundTable, queries: &[VertexId]) {
        let mut round = ett.repr_round(memo);
        for &q in queries {
            assert_eq!(round.repr(q) as usize, ett.component_repr(q), "repr of {q}");
        }
    }

    #[test]
    fn repr_round_matches_component_repr_under_random_updates() {
        let mut rng = SmallRng::seed_from_u64(0xc0ffee);
        let mut n = 60usize;
        let mut ett = EulerTourForest::with_seed(n, 5);
        let mut memo = RoundTable::new();
        let mut alive: Vec<EdgeId> = Vec::new();
        let mut next_edge = 0u32;
        for step in 0..1_500 {
            match rng.gen_range(0..10) {
                0 => {
                    // New vertices stay isolated until a later link picks them.
                    ett.add_vertices(3);
                    n += 3;
                }
                1..=5 => {
                    let (a, b) = (v(rng.gen_range(0..n as u32)), v(rng.gen_range(0..n as u32)));
                    if !ett.connected(a, b) {
                        ett.link(a, b, e(next_edge));
                        alive.push(e(next_edge));
                        next_edge += 1;
                    }
                }
                _ if !alive.is_empty() => {
                    let i = rng.gen_range(0..alive.len());
                    ett.cut(alive.swap_remove(i));
                }
                _ => {}
            }
            // A fresh round after every mutation, in one of four query shapes.
            let (a, b) = (v(rng.gen_range(0..n as u32)), v(rng.gen_range(0..n as u32)));
            let queries: Vec<VertexId> = match step % 4 {
                // Random vertices with repeats (isolated ones included).
                0 => (0..40).map(|_| v(rng.gen_range(0..n as u32))).collect(),
                // Every vertex of one component, twice over.
                1 => {
                    let members = ett.component_vertices(a);
                    members.iter().chain(&members).copied().collect()
                }
                // Two components, interleaved.
                2 => {
                    let (ca, cb) = (ett.component_vertices(a), ett.component_vertices(b));
                    (0..ca.len().max(cb.len()))
                        .flat_map(|i| [ca[i % ca.len()], cb[i % cb.len()]])
                        .collect()
                }
                // Every vertex of the forest.
                _ => (0..n as u32).map(v).collect(),
            };
            assert_round_matches(&ett, &mut memo, &queries);
        }
    }

    #[test]
    fn repr_round_survives_round_counter_wrap_around() {
        // Rounds MAX, then the wrap (stamps cleared), then ordinary rounds again: an answer
        // stamped before the wrap must never be served after it.
        let mut ett = EulerTourForest::with_seed(6, 1);
        let mut memo = RoundTable::starting_at(u32::MAX - 1);
        let all: Vec<VertexId> = (0..6).map(v).collect();
        ett.link(v(0), v(1), e(0));
        ett.link(v(1), v(2), e(1));
        assert_round_matches(&ett, &mut memo, &all);
        ett.cut(e(0));
        ett.link(v(3), v(0), e(0));
        assert_round_matches(&ett, &mut memo, &all);
        ett.cut(e(1));
        ett.link(v(4), v(5), e(1));
        assert_round_matches(&ett, &mut memo, &all);
        ett.link(v(2), v(5), e(2));
        assert_round_matches(&ett, &mut memo, &all);
    }

    #[test]
    fn repr_round_work_follows_the_batch_bound() {
        // k distinct queries on one 20 000-vertex tree: the round visits the union of the k
        // root paths, O(k log(1 + N/k)) treap nodes, while k independent root walks visit
        // Θ(k log N).
        let n = 20_000usize;
        let tree = gen::random_tree(n, 4242);
        let mut ett = EulerTourForest::with_seed(n, 17);
        for (i, &(a, b, _)) in tree.edges.iter().enumerate() {
            ett.link(a, b, EdgeId(i as u32));
        }
        let treap_size = ett.nodes.len() as f64; // one tour: n vertex nodes + 2(n - 1) arcs
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.shuffle(&mut SmallRng::seed_from_u64(99));
        let mut memo = RoundTable::new();
        for k in [16usize, 256, 4_096] {
            let queries = &order[..k];
            let mut round = ett.repr_round(&mut memo);
            for &q in queries {
                round.repr(v(q));
            }
            let batch_bound = 4.0 * k as f64 * (1.0 + (1.0 + treap_size / k as f64).log2());
            assert!(
                (round.visits() as f64) <= batch_bound,
                "k = {k}: the round visited {} nodes, bound {batch_bound}",
                round.visits()
            );
            // What k separate `component_repr` calls walk: every node from the vertex to the root.
            let independent: usize = queries
                .iter()
                .map(|&q| {
                    let mut t = ett.vertex_node[q as usize];
                    let mut walked = 1;
                    while ett.nodes[t as usize].parent != NONE {
                        t = ett.nodes[t as usize].parent;
                        walked += 1;
                    }
                    walked
                })
                .sum();
            assert!(
                independent as f64 >= k as f64 * treap_size.log2() / 2.0,
                "k = {k}: independent walks visited only {independent} nodes"
            );
            // A second pass over the same vertices is one visit each.
            let before = round.visits();
            for &q in queries {
                round.repr(v(q));
            }
            assert_eq!(round.visits() - before, k as u64);
        }
    }
}
