//! Link–cut trees (Sleator–Tarjan) with path aggregates, path-weight-search and path-median
//! queries.
//!
//! DynSLD uses this structure in two roles:
//!
//! * over the **input forest** (with one LCT node per vertex and one per edge, edge nodes
//!   carrying the edge's [`RankKey`]): connectivity, and maximum-weight-edge-on-path queries for
//!   threshold/LCA queries (Section 6.1) and the dynamic MSF (`dynsld-msf`);
//! * over the **dendrogram** (one LCT node per dendrogram node, keyed by the node's rank): the
//!   *path weight search* (Definition 4.1) and *path median* (Definition 4.2) queries that power
//!   the output-sensitive insertion algorithms of Section 4, in `O(log n)` amortized time per
//!   query instead of the paper's `O(log n)` worst-case RC-tree implementation (see README.md,
//!   "Deviations from the paper", substitution 3).
//!
//! The structure is a standard splay-based LCT with lazy path reversal (`evert`), subtree sizes
//! (for path length / k-th selection) and maximum-key aggregates per preferred path.

use dynsld_forest::RankKey;

/// Identifier of a node of a [`LinkCutTree`] (an index into its arena).
pub type LctNodeId = usize;

const NONE: u32 = u32::MAX;

#[derive(Clone, Debug)]
struct Node {
    parent: u32,
    left: u32,
    right: u32,
    /// Lazy "reverse this splay subtree" flag (set by `evert`).
    rev: bool,
    /// Optional key (rank) carried by this node. Vertex nodes of an input-forest LCT are
    /// keyless; edge nodes and dendrogram nodes are keyed.
    key: Option<RankKey>,
    /// Number of nodes in this splay subtree.
    size: u32,
    /// Node with the maximum key in this splay subtree (`NONE` if no node in the subtree has a
    /// key).
    max_node: u32,
    /// Sum of the total (represented-subtree) sizes of this node's *virtual* children — children
    /// in the represented tree that are attached by a path-parent pointer rather than as a
    /// preferred (splay) child.
    virt: u64,
    /// Total represented size of this splay subtree: the splay-subtree nodes plus everything
    /// hanging below them via virtual children. `total = 1 + virt + total(left) + total(right)`.
    total: u64,
}

impl Node {
    fn new(key: Option<RankKey>) -> Self {
        Node {
            parent: NONE,
            left: NONE,
            right: NONE,
            rev: false,
            key,
            size: 1,
            max_node: NONE,
            virt: 0,
            total: 1,
        }
    }
}

/// A splay-based link–cut tree over an arena of nodes.
///
/// Callers allocate nodes with [`add_node`](Self::add_node) and keep their own mapping from
/// application objects (vertices, edges, dendrogram nodes) to [`LctNodeId`]s.
#[derive(Clone, Debug, Default)]
pub struct LinkCutTree {
    nodes: Vec<Node>,
    /// Scratch for [`splay`](Self::splay): the path from a node up to its splay root. Empty
    /// between calls; kept so that no splay allocates.
    splay_path: Vec<u32>,
}

impl LinkCutTree {
    /// Creates an empty structure.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty structure with capacity for `n` nodes.
    pub fn with_capacity(n: usize) -> Self {
        LinkCutTree {
            nodes: Vec::with_capacity(n),
            splay_path: Vec::new(),
        }
    }

    /// Number of nodes ever allocated.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns true if no nodes have been allocated.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Allocates a new isolated node carrying `key` and returns its id.
    pub fn add_node(&mut self, key: Option<RankKey>) -> LctNodeId {
        let mut node = Node::new(key);
        node.max_node = if key.is_some() {
            self.nodes.len() as u32
        } else {
            NONE
        };
        self.nodes.push(node);
        self.nodes.len() - 1
    }

    /// Returns the key of node `x`.
    pub fn key(&self, x: LctNodeId) -> Option<RankKey> {
        self.nodes[x].key
    }

    /// Changes the key of node `x` (the node may be linked; aggregates are repaired).
    pub fn set_key(&mut self, x: LctNodeId, key: Option<RankKey>) {
        let xi = x as u32;
        self.splay(xi);
        self.nodes[x].key = key;
        self.update(xi);
    }

    // ----- internal splay machinery -------------------------------------------------------

    #[inline]
    fn size(&self, t: u32) -> u32 {
        if t == NONE {
            0
        } else {
            self.nodes[t as usize].size
        }
    }

    #[inline]
    fn max_of(&self, t: u32) -> u32 {
        if t == NONE {
            NONE
        } else {
            self.nodes[t as usize].max_node
        }
    }

    #[inline]
    fn total(&self, t: u32) -> u64 {
        if t == NONE {
            0
        } else {
            self.nodes[t as usize].total
        }
    }

    fn update(&mut self, t: u32) {
        let (l, r) = {
            let n = &self.nodes[t as usize];
            (n.left, n.right)
        };
        let size = 1 + self.size(l) + self.size(r);
        let total = 1 + self.nodes[t as usize].virt + self.total(l) + self.total(r);
        let mut best = if self.nodes[t as usize].key.is_some() {
            t
        } else {
            NONE
        };
        for child_max in [self.max_of(l), self.max_of(r)] {
            if child_max == NONE {
                continue;
            }
            best = if best == NONE {
                child_max
            } else {
                let bk = self.nodes[best as usize].key.expect("keyed");
                let ck = self.nodes[child_max as usize].key.expect("keyed");
                if ck > bk {
                    child_max
                } else {
                    best
                }
            };
        }
        let n = &mut self.nodes[t as usize];
        n.size = size;
        n.total = total;
        n.max_node = best;
    }

    fn push_down(&mut self, t: u32) {
        if self.nodes[t as usize].rev {
            self.nodes[t as usize].rev = false;
            let l = self.nodes[t as usize].left;
            let r = self.nodes[t as usize].right;
            self.nodes[t as usize].left = r;
            self.nodes[t as usize].right = l;
            if l != NONE {
                self.nodes[l as usize].rev ^= true;
            }
            if r != NONE {
                self.nodes[r as usize].rev ^= true;
            }
        }
    }

    /// True if `x` is the root of its splay tree (its parent link, if any, is a path-parent).
    fn is_splay_root(&self, x: u32) -> bool {
        let p = self.nodes[x as usize].parent;
        p == NONE || (self.nodes[p as usize].left != x && self.nodes[p as usize].right != x)
    }

    fn rotate(&mut self, x: u32) {
        let p = self.nodes[x as usize].parent;
        let g = self.nodes[p as usize].parent;
        let p_was_root = self.is_splay_root(p);
        if self.nodes[p as usize].left == x {
            let b = self.nodes[x as usize].right;
            self.nodes[p as usize].left = b;
            if b != NONE {
                self.nodes[b as usize].parent = p;
            }
            self.nodes[x as usize].right = p;
        } else {
            let b = self.nodes[x as usize].left;
            self.nodes[p as usize].right = b;
            if b != NONE {
                self.nodes[b as usize].parent = p;
            }
            self.nodes[x as usize].left = p;
        }
        self.nodes[p as usize].parent = x;
        self.nodes[x as usize].parent = g;
        if !p_was_root {
            if self.nodes[g as usize].left == p {
                self.nodes[g as usize].left = x;
            } else if self.nodes[g as usize].right == p {
                self.nodes[g as usize].right = x;
            }
        }
        self.update(p);
        self.update(x);
    }

    fn splay(&mut self, x: u32) {
        // Push reversal flags down from the splay root to x before rotating.
        let mut path = std::mem::take(&mut self.splay_path);
        path.push(x);
        let mut cur = x;
        while !self.is_splay_root(cur) {
            cur = self.nodes[cur as usize].parent;
            path.push(cur);
        }
        for node in path.drain(..).rev() {
            self.push_down(node);
        }
        self.splay_path = path;
        while !self.is_splay_root(x) {
            let p = self.nodes[x as usize].parent;
            if !self.is_splay_root(p) {
                let g = self.nodes[p as usize].parent;
                let zigzig =
                    (self.nodes[g as usize].left == p) == (self.nodes[p as usize].left == x);
                if zigzig {
                    self.rotate(p);
                } else {
                    self.rotate(x);
                }
            }
            self.rotate(x);
        }
    }

    /// Makes the path from the represented root to `x` preferred and splays `x` to the root of
    /// its splay tree. Afterwards `x` has no (preferred) right child.
    fn access(&mut self, x: u32) {
        self.splay(x);
        if self.nodes[x as usize].right != NONE {
            // Deeper nodes fall off the preferred path; they keep x as a path-parent, so their
            // represented subtree becomes part of x's virtual size.
            let r = self.nodes[x as usize].right;
            self.nodes[x as usize].virt += self.total(r);
            self.nodes[x as usize].right = NONE;
            self.update(x);
        }
        loop {
            let p = self.nodes[x as usize].parent;
            if p == NONE {
                break;
            }
            self.splay(p);
            // p's old preferred child (if any) becomes a virtual child; x stops being one.
            let old = self.nodes[p as usize].right;
            self.nodes[p as usize].virt += self.total(old);
            self.nodes[p as usize].virt -= self.total(x);
            self.nodes[p as usize].right = x;
            self.update(p);
            self.splay(x);
        }
    }

    // ----- public structural operations ---------------------------------------------------

    /// Returns the root of the represented tree containing `x`.
    pub fn find_root(&mut self, x: LctNodeId) -> LctNodeId {
        let xi = x as u32;
        self.access(xi);
        let mut cur = xi;
        self.push_down(cur);
        while self.nodes[cur as usize].left != NONE {
            cur = self.nodes[cur as usize].left;
            self.push_down(cur);
        }
        self.splay(cur);
        cur as LctNodeId
    }

    /// Returns true if `x` and `y` are in the same represented tree.
    pub fn connected(&mut self, x: LctNodeId, y: LctNodeId) -> bool {
        x == y || self.find_root(x) == self.find_root(y)
    }

    /// Makes `x` the root of its represented tree (path reversal).
    pub fn evert(&mut self, x: LctNodeId) {
        let xi = x as u32;
        self.access(xi);
        self.nodes[x].rev ^= true;
        self.push_down(xi);
    }

    /// Links `child` (which must be the root of its represented tree) below `parent`.
    ///
    /// # Panics
    /// Panics (in debug builds) if `child` is not a represented-tree root, or (always) if the
    /// two nodes are already connected.
    pub fn link(&mut self, child: LctNodeId, parent: LctNodeId) {
        assert!(
            !self.connected(child, parent),
            "link would create a cycle in the link-cut tree"
        );
        self.link_unchecked(child, parent);
    }

    /// [`link`](Self::link) without its connectivity check.
    fn link_unchecked(&mut self, child: LctNodeId, parent: LctNodeId) {
        let ci = child as u32;
        self.access(ci);
        debug_assert_eq!(
            self.nodes[child].left, NONE,
            "link: child must be the root of its represented tree"
        );
        self.access(parent as u32);
        self.nodes[child].parent = parent as u32;
        // The child hangs off `parent` as a virtual (path-parent) child.
        self.nodes[parent].virt += self.total(ci);
        self.update(parent as u32);
    }

    /// Links the represented edge `{u, v}` regardless of current roots (`evert(u)` then link).
    ///
    /// # Panics
    /// Panics if `u` and `v` are already connected.
    pub fn link_edge(&mut self, u: LctNodeId, v: LctNodeId) {
        self.evert(u);
        // `u` is its tree's root now, so one root query answers `link`'s connectivity check.
        assert!(
            self.find_root(v) != u,
            "link would create a cycle in the link-cut tree"
        );
        self.link_unchecked(u, v);
    }

    /// Cuts `x` from its parent in the represented tree.
    ///
    /// # Panics
    /// Panics if `x` is a represented-tree root (has no parent).
    pub fn cut_from_parent(&mut self, x: LctNodeId) {
        let xi = x as u32;
        self.access(xi);
        let l = self.nodes[x].left;
        assert!(
            l != NONE,
            "cut_from_parent: node is a represented-tree root"
        );
        self.nodes[l as usize].parent = NONE;
        self.nodes[x].left = NONE;
        self.update(xi);
    }

    /// Cuts the represented edge `{u, v}`.
    ///
    /// # Panics
    /// Panics if `u` and `v` are not adjacent in the represented tree.
    pub fn cut_edge(&mut self, u: LctNodeId, v: LctNodeId) {
        self.evert(u);
        self.access(v as u32);
        // After evert(u) and access(v), the splay tree holds the path u .. v with v as splay
        // root; u and v are adjacent iff v's left child is u and u has no right child.
        let ui = u as u32;
        let ok =
            self.nodes[v].left == ui && self.nodes[u].left == NONE && self.nodes[u].right == NONE;
        assert!(
            ok,
            "cut_edge: nodes are not adjacent in the represented tree"
        );
        self.nodes[v].left = NONE;
        self.nodes[u].parent = NONE;
        self.update(v as u32);
    }

    /// Number of nodes in the represented subtree rooted at `x` (with respect to the current
    /// represented root), including `x` itself.
    ///
    /// For a link-cut tree mirroring the dendrogram this is exactly the number of dendrogram
    /// nodes below `x`, which DynSLD uses for `O(log n)` cluster-size queries (Table 2).
    pub fn represented_subtree_size(&mut self, x: LctNodeId) -> usize {
        self.access(x as u32);
        // After access, every represented child of x is a virtual child.
        (1 + self.nodes[x].virt) as usize
    }

    /// Returns the parent of `x` in the represented tree, if any.
    pub fn represented_parent(&mut self, x: LctNodeId) -> Option<LctNodeId> {
        let xi = x as u32;
        self.access(xi);
        // The parent is the rightmost node of x's left subtree.
        let mut cur = self.nodes[x].left;
        if cur == NONE {
            return None;
        }
        self.push_down(cur);
        while self.nodes[cur as usize].right != NONE {
            cur = self.nodes[cur as usize].right;
            self.push_down(cur);
        }
        self.splay(cur);
        Some(cur as LctNodeId)
    }

    // ----- path queries --------------------------------------------------------------------

    /// Returns the node with the maximum key on the path between `x` and `y` (inclusive), or
    /// `None` if no node on the path carries a key.
    ///
    /// Uses `evert`, so it changes the represented root; do not mix with the rooted
    /// (dendrogram) query family on the same structure.
    pub fn path_max_node(&mut self, x: LctNodeId, y: LctNodeId) -> Option<LctNodeId> {
        self.evert(x);
        self.access(y as u32);
        let m = self.nodes[y].max_node;
        if m == NONE {
            None
        } else {
            Some(m as LctNodeId)
        }
    }

    /// Number of nodes on the path between `x` and `y`, inclusive. Uses `evert`.
    pub fn path_len(&mut self, x: LctNodeId, y: LctNodeId) -> usize {
        self.evert(x);
        self.access(y as u32);
        self.nodes[y].size as usize
    }

    /// Number of nodes on the path from `x` to the root of its represented tree, inclusive.
    pub fn path_to_root_len(&mut self, x: LctNodeId) -> usize {
        self.access(x as u32);
        self.nodes[x].size as usize
    }

    /// The `k`-th node on the path from `x` (k = 0) towards the represented root
    /// (k = `path_to_root_len(x) - 1`).
    ///
    /// # Panics
    /// Panics if `k` is out of range.
    pub fn path_to_root_kth(&mut self, x: LctNodeId, k: usize) -> LctNodeId {
        self.access(x as u32);
        let len = self.nodes[x].size as usize;
        assert!(k < len, "k out of range");
        // In-order position: index 0 = represented root (shallowest); x is at index len - 1.
        self.select_in_order(x as u32, (len - 1 - k) as u32) as LctNodeId
    }

    /// The median node (index `⌊len / 2⌋` counted from `x`) of the path from `x` to the root.
    pub fn path_to_root_median(&mut self, x: LctNodeId) -> LctNodeId {
        let len = self.path_to_root_len(x);
        self.path_to_root_kth(x, len / 2)
    }

    fn select_in_order(&mut self, root: u32, mut k: u32) -> u32 {
        let mut cur = root;
        loop {
            self.push_down(cur);
            let lsize = self.size(self.nodes[cur as usize].left);
            if k < lsize {
                cur = self.nodes[cur as usize].left;
            } else if k == lsize {
                // Splaying the selected node keeps the amortized analysis valid.
                self.splay(cur);
                return cur;
            } else {
                k -= lsize + 1;
                cur = self.nodes[cur as usize].right;
            }
        }
    }

    /// Path weight search (Definition 4.1) towards the root: among the nodes on the path from
    /// `x` to its represented root, returns the node with the **maximum key strictly less than**
    /// `w`, or `None` if every key on the path is `>= w`.
    ///
    /// All nodes on the path must carry keys and the keys must be increasing from `x` to the
    /// root (which holds for dendrogram spines); under that precondition the search descends the
    /// splay tree in `O(log n)` amortized time.
    pub fn path_to_root_search_below(&mut self, x: LctNodeId, w: RankKey) -> Option<LctNodeId> {
        self.access(x as u32);
        self.search_below_in(x as u32, w)
    }

    /// Symmetric to [`path_to_root_search_below`](Self::path_to_root_search_below): the node
    /// with the **minimum key strictly greater than** `w` on the path from `x` to its root.
    pub fn path_to_root_search_above(&mut self, x: LctNodeId, w: RankKey) -> Option<LctNodeId> {
        self.access(x as u32);
        self.search_above_in(x as u32, w)
    }

    /// Keys along the in-order are decreasing (root = max key is leftmost... wait: in-order goes
    /// from the represented root to `x`, and on a dendrogram spine the rank *decreases* with
    /// depth towards `x`), so nodes with key < w form an in-order suffix and the answer is that
    /// suffix's first element.
    fn search_below_in(&mut self, root: u32, w: RankKey) -> Option<LctNodeId> {
        let mut ans = NONE;
        let mut cur = root;
        while cur != NONE {
            self.push_down(cur);
            let key = self.nodes[cur as usize]
                .key
                .expect("path weight search requires keyed path nodes");
            if key < w {
                ans = cur;
                cur = self.nodes[cur as usize].left;
            } else {
                cur = self.nodes[cur as usize].right;
            }
        }
        if ans == NONE {
            None
        } else {
            self.splay(ans);
            Some(ans as LctNodeId)
        }
    }

    fn search_above_in(&mut self, root: u32, w: RankKey) -> Option<LctNodeId> {
        let mut ans = NONE;
        let mut cur = root;
        while cur != NONE {
            self.push_down(cur);
            let key = self.nodes[cur as usize]
                .key
                .expect("path weight search requires keyed path nodes");
            if key > w {
                ans = cur;
                cur = self.nodes[cur as usize].right;
            } else {
                cur = self.nodes[cur as usize].left;
            }
        }
        if ans == NONE {
            None
        } else {
            self.splay(ans);
            Some(ans as LctNodeId)
        }
    }

    // ----- ancestor-bounded (sub-spine) queries ---------------------------------------------

    /// Splays `ancestor` within the splay tree exposed by `access(x)` and returns it; afterwards
    /// the sub-path `ancestor .. x` is `ancestor` plus its right splay subtree.
    fn expose_subpath(&mut self, x: LctNodeId, ancestor: LctNodeId) -> u32 {
        self.access(x as u32);
        self.splay(ancestor as u32);
        ancestor as u32
    }

    /// Number of nodes on the represented path from `x` up to `ancestor`, inclusive.
    /// `ancestor` must be an ancestor of `x` (or `x` itself).
    pub fn subpath_len(&mut self, x: LctNodeId, ancestor: LctNodeId) -> usize {
        let a = self.expose_subpath(x, ancestor);
        1 + self.size(self.nodes[a as usize].right) as usize
    }

    /// The `k`-th node (k = 0 at `x`, increasing towards `ancestor`) of the path from `x` up to
    /// `ancestor`.
    pub fn subpath_kth(&mut self, x: LctNodeId, ancestor: LctNodeId, k: usize) -> LctNodeId {
        let a = self.expose_subpath(x, ancestor);
        let len = 1 + self.size(self.nodes[a as usize].right) as usize;
        assert!(k < len, "k out of range");
        // In-order over {ancestor} ∪ right-subtree: index 0 = ancestor, index len-1 = x.
        let in_order_index = (len - 1 - k) as u32;
        if in_order_index == 0 {
            return ancestor;
        }
        let right = self.nodes[a as usize].right;
        self.select_in_order(right, in_order_index - 1) as LctNodeId
    }

    /// Path weight search restricted to the sub-path `x .. ancestor`: maximum key `< w`.
    pub fn subpath_search_below(
        &mut self,
        x: LctNodeId,
        ancestor: LctNodeId,
        w: RankKey,
    ) -> Option<LctNodeId> {
        let a = self.expose_subpath(x, ancestor);
        let akey = self.nodes[a as usize]
            .key
            .expect("path weight search requires keyed path nodes");
        let right = self.nodes[a as usize].right;
        if right != NONE {
            if let Some(found) = self.search_below_in(right, w) {
                // The right subtree holds the deeper (smaller-key) part; any hit there is only
                // correct if the ancestor itself is not a better (larger) key below w.
                let fk = self.nodes[found].key.expect("keyed");
                if akey < w && akey > fk {
                    return Some(ancestor);
                }
                return Some(found);
            }
        }
        if akey < w {
            Some(ancestor)
        } else {
            None
        }
    }

    /// Path weight search restricted to the sub-path `x .. ancestor`: minimum key `> w`.
    pub fn subpath_search_above(
        &mut self,
        x: LctNodeId,
        ancestor: LctNodeId,
        w: RankKey,
    ) -> Option<LctNodeId> {
        let a = self.expose_subpath(x, ancestor);
        let akey = self.nodes[a as usize]
            .key
            .expect("path weight search requires keyed path nodes");
        let right = self.nodes[a as usize].right;
        if right != NONE {
            if let Some(found) = self.search_above_in(right, w) {
                return Some(found);
            }
        }
        if akey > w {
            Some(ancestor)
        } else {
            None
        }
    }

    /// Collects the nodes of the path from `x` to its represented root, in order from `x`
    /// (index 0) to the root. `O(path length)` plus the amortized access cost.
    pub fn path_to_root_nodes(&mut self, x: LctNodeId) -> Vec<LctNodeId> {
        self.access(x as u32);
        let mut out = Vec::with_capacity(self.nodes[x].size as usize);
        self.collect_reverse_in_order(x as u32, &mut out);
        out
    }

    fn collect_reverse_in_order(&mut self, root: u32, out: &mut Vec<LctNodeId>) {
        // Iterative reverse in-order traversal (right, node, left): splay trees can degenerate
        // into long chains, so recursion could overflow the stack on large paths.
        let mut stack = Vec::new();
        let mut cur = root;
        while cur != NONE || !stack.is_empty() {
            while cur != NONE {
                self.push_down(cur);
                stack.push(cur);
                cur = self.nodes[cur as usize].right;
            }
            let t = stack.pop().expect("non-empty stack");
            out.push(t as LctNodeId);
            cur = self.nodes[t as usize].left;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynsld_forest::EdgeId;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn key(w: f64, id: u32) -> RankKey {
        RankKey::new(w, EdgeId(id))
    }

    /// Builds an LCT whose represented tree is a path `0 - 1 - ... - n-1` rooted at `n-1`,
    /// where node i carries key (i, i). (Keys increase towards the root, like a dendrogram
    /// spine.)
    fn build_keyed_path(n: usize) -> LinkCutTree {
        let mut lct = LinkCutTree::with_capacity(n);
        for i in 0..n {
            lct.add_node(Some(key(i as f64, i as u32)));
        }
        for i in (0..n - 1).rev() {
            // i's parent is i + 1.
            lct.link(i, i + 1);
        }
        lct
    }

    #[test]
    fn connectivity_and_roots() {
        let mut lct = LinkCutTree::new();
        let a = lct.add_node(None);
        let b = lct.add_node(None);
        let c = lct.add_node(None);
        let d = lct.add_node(None);
        assert!(!lct.connected(a, b));
        lct.link(a, b); // a child of b
        lct.link(c, b);
        assert!(lct.connected(a, c));
        assert!(!lct.connected(a, d));
        assert_eq!(lct.find_root(a), b);
        assert_eq!(lct.find_root(c), b);
        lct.cut_from_parent(a);
        assert!(!lct.connected(a, c));
        assert_eq!(lct.find_root(a), a);
    }

    #[test]
    fn represented_parent_is_tracked() {
        let mut lct = build_keyed_path(6);
        assert_eq!(lct.represented_parent(0), Some(1));
        assert_eq!(lct.represented_parent(4), Some(5));
        assert_eq!(lct.represented_parent(5), None);
        lct.cut_from_parent(3);
        assert_eq!(lct.represented_parent(3), None);
        assert_eq!(lct.represented_parent(2), Some(3));
        assert_eq!(lct.find_root(0), 3);
    }

    #[test]
    fn evert_changes_root() {
        let mut lct = build_keyed_path(5);
        assert_eq!(lct.find_root(0), 4);
        lct.evert(2);
        assert_eq!(lct.find_root(0), 2);
        assert_eq!(lct.find_root(4), 2);
        assert_eq!(lct.represented_parent(2), None);
        assert_eq!(lct.represented_parent(4), Some(3));
        // 1's parent is now 2 (path was reversed above 2... actually below 2 unchanged).
        assert_eq!(lct.represented_parent(1), Some(2));
    }

    #[test]
    fn link_edge_and_cut_edge_roundtrip() {
        let mut lct = LinkCutTree::new();
        let nodes: Vec<_> = (0..6).map(|_| lct.add_node(None)).collect();
        lct.link_edge(nodes[0], nodes[1]);
        lct.link_edge(nodes[1], nodes[2]);
        lct.link_edge(nodes[3], nodes[4]);
        lct.link_edge(nodes[2], nodes[3]);
        assert!(lct.connected(nodes[0], nodes[4]));
        lct.cut_edge(nodes[2], nodes[3]);
        assert!(!lct.connected(nodes[0], nodes[4]));
        assert!(lct.connected(nodes[0], nodes[2]));
        assert!(lct.connected(nodes[3], nodes[4]));
        // Relink in the other direction.
        lct.link_edge(nodes[4], nodes[0]);
        assert!(lct.connected(nodes[2], nodes[3]));
    }

    #[test]
    #[should_panic(expected = "not adjacent")]
    fn cut_edge_panics_for_non_adjacent() {
        let mut lct = build_keyed_path(4);
        lct.cut_edge(0, 2);
    }

    #[test]
    #[should_panic(expected = "would create a cycle")]
    fn link_edge_panics_on_connected_nodes() {
        let mut lct = build_keyed_path(4);
        lct.link_edge(1, 3);
    }

    #[test]
    fn path_max_finds_heaviest_edge() {
        // Star: center 0, leaves 1..=3, edge nodes 4..=6 with weights 5, 1, 9.
        let mut lct = LinkCutTree::new();
        let v: Vec<_> = (0..4).map(|_| lct.add_node(None)).collect();
        let e01 = lct.add_node(Some(key(5.0, 0)));
        let e02 = lct.add_node(Some(key(1.0, 1)));
        let e03 = lct.add_node(Some(key(9.0, 2)));
        for (edge, leaf) in [(e01, v[1]), (e02, v[2]), (e03, v[3])] {
            lct.link_edge(v[0], edge);
            lct.link_edge(edge, leaf);
        }
        assert_eq!(lct.path_max_node(v[1], v[2]), Some(e01));
        assert_eq!(lct.path_max_node(v[2], v[3]), Some(e03));
        assert_eq!(lct.path_max_node(v[1], v[3]), Some(e03));
        assert_eq!(lct.path_max_node(v[0], v[2]), Some(e02));
        // Path between a node and itself has no keyed node (vertex nodes are keyless).
        assert_eq!(lct.path_max_node(v[1], v[1]), None);
        assert_eq!(lct.path_len(v[1], v[2]), 5);
    }

    #[test]
    fn path_to_root_len_and_kth() {
        let mut lct = build_keyed_path(10);
        assert_eq!(lct.path_to_root_len(0), 10);
        assert_eq!(lct.path_to_root_len(9), 1);
        assert_eq!(lct.path_to_root_len(4), 6);
        assert_eq!(lct.path_to_root_kth(0, 0), 0);
        assert_eq!(lct.path_to_root_kth(0, 9), 9);
        assert_eq!(lct.path_to_root_kth(0, 5), 5);
        assert_eq!(lct.path_to_root_kth(3, 2), 5);
        assert_eq!(lct.path_to_root_median(0), 5);
    }

    #[test]
    fn search_below_and_above_on_root_path() {
        let mut lct = build_keyed_path(16);
        // Path from 0 to root 15, keys 0..15 increasing towards the root.
        assert_eq!(lct.path_to_root_search_below(0, key(7.5, 100)), Some(7));
        assert_eq!(lct.path_to_root_search_below(0, key(7.0, 0)), Some(6));
        assert_eq!(lct.path_to_root_search_below(0, key(0.0, 0)), None);
        assert_eq!(lct.path_to_root_search_below(0, key(100.0, 0)), Some(15));
        assert_eq!(lct.path_to_root_search_above(0, key(7.5, 100)), Some(8));
        assert_eq!(lct.path_to_root_search_above(0, key(15.0, 200)), None);
        assert_eq!(lct.path_to_root_search_above(0, key(-3.0, 0)), Some(0));
        // From an interior node the path is shorter.
        assert_eq!(lct.path_to_root_search_below(10, key(7.5, 0)), None);
        assert_eq!(lct.path_to_root_search_below(10, key(12.0, 0)), Some(11));
    }

    #[test]
    fn subpath_queries_respect_the_ancestor_bound() {
        let mut lct = build_keyed_path(20);
        assert_eq!(lct.subpath_len(3, 10), 8);
        assert_eq!(lct.subpath_len(5, 5), 1);
        assert_eq!(lct.subpath_kth(3, 10, 0), 3);
        assert_eq!(lct.subpath_kth(3, 10, 7), 10);
        assert_eq!(lct.subpath_kth(3, 10, 4), 7);
        // Search below bounded by the sub-path [4 .. 12].
        assert_eq!(lct.subpath_search_below(4, 12, key(100.0, 0)), Some(12));
        assert_eq!(lct.subpath_search_below(4, 12, key(9.5, 0)), Some(9));
        assert_eq!(lct.subpath_search_below(4, 12, key(4.0, 0)), None);
        assert_eq!(lct.subpath_search_above(4, 12, key(9.5, 0)), Some(10));
        assert_eq!(lct.subpath_search_above(4, 12, key(12.0, 50)), None);
        assert_eq!(lct.subpath_search_above(4, 12, key(-1.0, 0)), Some(4));
    }

    #[test]
    fn path_to_root_nodes_in_spine_order() {
        let mut lct = build_keyed_path(8);
        assert_eq!(lct.path_to_root_nodes(0), vec![0, 1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(lct.path_to_root_nodes(5), vec![5, 6, 7]);
        assert_eq!(lct.path_to_root_nodes(7), vec![7]);
    }

    #[test]
    fn set_key_updates_aggregates() {
        let mut lct = LinkCutTree::new();
        let a = lct.add_node(Some(key(1.0, 0)));
        let b = lct.add_node(Some(key(2.0, 1)));
        let c = lct.add_node(Some(key(3.0, 2)));
        lct.link(a, b);
        lct.link(b, c);
        assert_eq!(lct.path_max_node(a, c), Some(c));
        lct.set_key(a, Some(key(10.0, 0)));
        assert_eq!(lct.path_max_node(a, c), Some(a));
        assert_eq!(lct.key(a), Some(key(10.0, 0)));
    }

    #[test]
    fn represented_subtree_sizes_on_a_path() {
        let mut lct = build_keyed_path(10);
        // Path rooted at 9: subtree of node i (towards the leaf 0) has i + 1 nodes below-or-equal.
        for i in 0..10 {
            assert_eq!(lct.represented_subtree_size(i), i + 1);
        }
        lct.cut_from_parent(5);
        assert_eq!(lct.represented_subtree_size(9), 4);
        assert_eq!(lct.represented_subtree_size(5), 6);
        assert_eq!(lct.represented_subtree_size(0), 1);
    }

    #[test]
    fn represented_subtree_sizes_on_a_star() {
        let mut lct = LinkCutTree::new();
        let root = lct.add_node(Some(key(100.0, 0)));
        let kids: Vec<_> = (0..8)
            .map(|i| {
                let c = lct.add_node(Some(key(i as f64, i + 1)));
                lct.link(c, root);
                c
            })
            .collect();
        assert_eq!(lct.represented_subtree_size(root), 9);
        for &c in &kids {
            assert_eq!(lct.represented_subtree_size(c), 1);
        }
        // Hang a chain below one child.
        let extra = lct.add_node(Some(key(50.0, 20)));
        lct.link(extra, kids[3]);
        assert_eq!(lct.represented_subtree_size(kids[3]), 2);
        assert_eq!(lct.represented_subtree_size(root), 10);
    }

    #[test]
    fn randomized_subtree_sizes_match_naive() {
        let n = 100usize;
        let mut rng = SmallRng::seed_from_u64(777);
        let mut lct = LinkCutTree::with_capacity(n);
        let mut parent: Vec<Option<usize>> = vec![None; n];
        for i in 0..n {
            lct.add_node(Some(key(i as f64, i as u32)));
        }
        let naive_root = |parent: &Vec<Option<usize>>, mut x: usize| {
            while let Some(p) = parent[x] {
                x = p;
            }
            x
        };
        let naive_size = |parent: &Vec<Option<usize>>, x: usize| {
            // count nodes whose ancestor chain passes through x
            (0..parent.len())
                .filter(|&mut_v| {
                    let mut cur = mut_v;
                    loop {
                        if cur == x {
                            return true;
                        }
                        match parent[cur] {
                            Some(p) => cur = p,
                            None => return false,
                        }
                    }
                })
                .count()
        };
        for _ in 0..1500 {
            let op = rng.gen_range(0..3);
            if op == 0 {
                let x = rng.gen_range(0..n);
                let y = rng.gen_range(0..n);
                let rx = naive_root(&parent, x);
                if naive_root(&parent, y) != rx {
                    lct.link(rx, y);
                    parent[rx] = Some(y);
                }
            } else if op == 1 {
                let x = rng.gen_range(0..n);
                if parent[x].is_some() {
                    lct.cut_from_parent(x);
                    parent[x] = None;
                }
            } else {
                let x = rng.gen_range(0..n);
                assert_eq!(lct.represented_subtree_size(x), naive_size(&parent, x));
            }
        }
    }

    /// Randomized comparison against a naive represented-forest oracle.
    #[test]
    fn randomized_against_naive_forest() {
        #[derive(Clone)]
        struct Naive {
            parent: Vec<Option<usize>>,
            key: Vec<RankKey>,
        }
        impl Naive {
            fn root(&self, mut x: usize) -> usize {
                while let Some(p) = self.parent[x] {
                    x = p;
                }
                x
            }
            fn path_to_root(&self, x: usize) -> Vec<usize> {
                let mut out = vec![x];
                let mut cur = x;
                while let Some(p) = self.parent[cur] {
                    out.push(p);
                    cur = p;
                }
                out
            }
        }

        let n = 200usize;
        let mut rng = SmallRng::seed_from_u64(12345);
        let mut lct = LinkCutTree::with_capacity(n);
        let mut naive = Naive {
            parent: vec![None; n],
            key: Vec::with_capacity(n),
        };
        for i in 0..n {
            let k = key(rng.gen::<f64>() * 100.0, i as u32);
            lct.add_node(Some(k));
            naive.key.push(k);
        }
        for step in 0..3000 {
            let op = rng.gen_range(0..10);
            if op < 4 {
                // Link a random root below a random node in another tree.
                let x = rng.gen_range(0..n);
                let y = rng.gen_range(0..n);
                let rx = naive.root(x);
                if naive.root(y) != rx {
                    lct.link(rx, y);
                    naive.parent[rx] = Some(y);
                }
            } else if op < 6 {
                // Cut a random non-root node from its parent.
                let x = rng.gen_range(0..n);
                if naive.parent[x].is_some() {
                    lct.cut_from_parent(x);
                    naive.parent[x] = None;
                }
            } else {
                // Queries.
                let x = rng.gen_range(0..n);
                let y = rng.gen_range(0..n);
                assert_eq!(
                    lct.connected(x, y),
                    naive.root(x) == naive.root(y),
                    "connectivity mismatch at step {step}"
                );
                let path = naive.path_to_root(x);
                assert_eq!(
                    lct.path_to_root_len(x),
                    path.len(),
                    "len mismatch at {step}"
                );
                assert_eq!(lct.find_root(x), *path.last().expect("non-empty"));
                let k = rng.gen_range(0..path.len());
                assert_eq!(
                    lct.path_to_root_kth(x, k),
                    path[k],
                    "kth mismatch at {step}"
                );
                // PWS against a scan, valid only when keys increase towards the root.
                let increasing = path.windows(2).all(|w| naive.key[w[0]] < naive.key[w[1]]);
                if increasing {
                    let w = key(rng.gen::<f64>() * 100.0, rng.gen_range(0..n as u32));
                    let expect = path
                        .iter()
                        .copied()
                        .filter(|&p| naive.key[p] < w)
                        .max_by_key(|&p| naive.key[p]);
                    assert_eq!(
                        lct.path_to_root_search_below(x, w),
                        expect,
                        "pws mismatch at step {step}"
                    );
                    let expect_above = path
                        .iter()
                        .copied()
                        .filter(|&p| naive.key[p] > w)
                        .min_by_key(|&p| naive.key[p]);
                    assert_eq!(
                        lct.path_to_root_search_above(x, w),
                        expect_above,
                        "pws-above mismatch at step {step}"
                    );
                }
            }
        }
    }
}
