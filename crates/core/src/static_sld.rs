//! Static single-linkage dendrogram computation.
//!
//! Two baselines used throughout the workspace:
//!
//! * [`static_sld_kruskal`] — the textbook sequential algorithm (process edges in rank order,
//!   union–find with a "top node" per component), `O(n log n)`. This is the *oracle* every
//!   dynamic algorithm is tested against, and the "static recomputation" baseline the paper's
//!   dynamic algorithms are compared to.
//! * [`static_sld_parallel`] — a parallel divide-and-conquer over the rank order: split the
//!   rank-sorted edge list in half, solve the lower half on the original vertices and the upper
//!   half on the lower half's contracted components *in parallel*, then stitch the lower-half
//!   component roots below the minimum-rank upper-half edge incident to their component.
//!   `O(n log n)` work. (The paper's optimal static algorithm \[19\] achieves `O(n log h)`; this
//!   simpler algorithm serves as the parallel static-recomputation baseline — see README.md,
//!   "Deviations from the paper", substitution 1.)

use crate::dendrogram::Dendrogram;
use dynsld_forest::{Dsu, EdgeId, Forest, RankKey, VertexId};
use rayon::prelude::*;

/// Computes the SLD of `forest` with the sequential Kruskal-style algorithm.
pub fn static_sld_kruskal(forest: &Forest) -> Dendrogram {
    let mut edges: Vec<EdgeId> = forest.edge_ids().collect();
    edges.sort_by_key(|&e| forest.rank(e));
    let mut dendro = Dendrogram::with_capacity(forest.edge_id_bound());
    for &e in &edges {
        dendro.add_node(e);
    }
    let mut dsu = Dsu::new(forest.num_vertices());
    // Top (maximum-rank) dendrogram node of each current component, indexed by DSU root.
    let mut top: Vec<Option<EdgeId>> = vec![None; forest.num_vertices()];
    for &e in &edges {
        let (u, v) = forest.endpoints(e);
        let ru = dsu.find(u);
        let rv = dsu.find(v);
        debug_assert_ne!(ru, rv, "input must be a forest");
        for r in [ru, rv] {
            if let Some(t) = top[r.index()] {
                dendro.set_parent(t, Some(e));
            }
        }
        dsu.union(u, v);
        let new_root = dsu.find(u);
        top[new_root.index()] = Some(e);
    }
    dendro
}

/// An edge in a (possibly contracted) subproblem: original id, rank, local endpoints.
type SubEdge = (EdgeId, RankKey, u32, u32);

/// Result of solving a subproblem.
struct SubResult {
    /// Parent assignments discovered inside this subproblem.
    parents: Vec<(EdgeId, EdgeId)>,
    /// For every local vertex, the component (0-based, contiguous) it ends up in considering
    /// *all* edges of the subproblem.
    comp_of_vertex: Vec<u32>,
    /// Number of components.
    num_components: usize,
    /// Top (maximum-rank) dendrogram node of each component, `None` for single-vertex
    /// components.
    top_of_component: Vec<Option<EdgeId>>,
}

/// Below this many edges the subproblem is solved sequentially. The value is fairly large
/// because every recursion node also performs O(num_vertices) relabelling passes; a larger base
/// case keeps that overhead negligible while still exposing parallelism for large inputs.
const BASE_CASE: usize = 4096;

fn solve_base(num_vertices: usize, edges: &[SubEdge]) -> SubResult {
    let mut dsu = Dsu::new(num_vertices);
    let mut top: Vec<Option<EdgeId>> = vec![None; num_vertices];
    let mut parents = Vec::new();
    debug_assert!(
        edges.windows(2).all(|w| w[0].1 < w[1].1),
        "edges must be rank-sorted"
    );
    for &(id, _, u, v) in edges {
        let (u, v) = (VertexId(u), VertexId(v));
        let ru = dsu.find(u);
        let rv = dsu.find(v);
        debug_assert_ne!(ru, rv, "subproblem must be a forest");
        for r in [ru, rv] {
            if let Some(t) = top[r.index()] {
                parents.push((t, id));
            }
        }
        dsu.union(u, v);
        let nr = dsu.find(u);
        top[nr.index()] = Some(id);
    }
    // Relabel components contiguously.
    let mut label: Vec<u32> = vec![u32::MAX; num_vertices];
    let mut comp_of_vertex = vec![0u32; num_vertices];
    let mut top_of_component = Vec::new();
    let mut next = 0u32;
    for (v, comp) in comp_of_vertex.iter_mut().enumerate() {
        let r = dsu.find(VertexId(v as u32));
        if label[r.index()] == u32::MAX {
            label[r.index()] = next;
            top_of_component.push(top[r.index()]);
            next += 1;
        }
        *comp = label[r.index()];
    }
    SubResult {
        parents,
        comp_of_vertex,
        num_components: next as usize,
        top_of_component,
    }
}

fn solve(num_vertices: usize, edges: &[SubEdge]) -> SubResult {
    if edges.len() <= BASE_CASE {
        return solve_base(num_vertices, edges);
    }
    let mid = edges.len() / 2;
    let (lo, hi) = edges.split_at(mid);

    // Contract the lower-half components (connectivity only, no dendrogram structure needed).
    let mut dsu = Dsu::new(num_vertices);
    for &(_, _, u, v) in lo {
        dsu.union(VertexId(u), VertexId(v));
    }
    let mut label: Vec<u32> = vec![u32::MAX; num_vertices];
    let mut my_comp: Vec<u32> = vec![0; num_vertices];
    let mut next = 0u32;
    for (v, comp) in my_comp.iter_mut().enumerate() {
        let r = dsu.find(VertexId(v as u32));
        if label[r.index()] == u32::MAX {
            label[r.index()] = next;
            next += 1;
        }
        *comp = label[r.index()];
    }
    let k = next as usize;
    let hi_edges: Vec<SubEdge> = hi
        .iter()
        .map(|&(id, rk, u, v)| (id, rk, my_comp[u as usize], my_comp[v as usize]))
        .collect();

    // Solve both halves in parallel: the upper half only needs the lower half's *connectivity*,
    // which we just computed, not its dendrogram.
    let (lo_res, hi_res) = rayon::join(|| solve(num_vertices, lo), || solve(k, &hi_edges));

    // Align this level's component labels with the lower child's labels and fetch the top node
    // of each lower component.
    let mut my_top: Vec<Option<EdgeId>> = vec![None; k];
    for (v, &c) in my_comp.iter().enumerate() {
        let slot = &mut my_top[c as usize];
        if slot.is_none() {
            *slot = lo_res.top_of_component[lo_res.comp_of_vertex[v] as usize];
        }
    }

    // The parent of a lower component's top node is the minimum-rank upper-half edge incident
    // to that (contracted) component; `hi` is rank-sorted so the first edge seen wins.
    let mut min_incident: Vec<Option<EdgeId>> = vec![None; k];
    for &(id, _, u, v) in &hi_edges {
        for c in [u as usize, v as usize] {
            if min_incident[c].is_none() {
                min_incident[c] = Some(id);
            }
        }
    }
    let mut parents = lo_res.parents;
    parents.extend(hi_res.parents);
    for c in 0..k {
        if let (Some(t), Some(f)) = (my_top[c], min_incident[c]) {
            parents.push((t, f));
        }
    }

    // Compose component mappings and propagate top nodes.
    let comp_of_vertex: Vec<u32> = (0..num_vertices)
        .map(|v| hi_res.comp_of_vertex[my_comp[v] as usize])
        .collect();
    let mut top_of_component = hi_res.top_of_component.clone();
    for (c, &mt) in my_top.iter().enumerate() {
        let hc = hi_res.comp_of_vertex[c] as usize;
        if top_of_component[hc].is_none() {
            top_of_component[hc] = mt;
        }
    }
    SubResult {
        parents,
        comp_of_vertex,
        num_components: hi_res.num_components,
        top_of_component,
    }
}

/// Computes the SLD of `forest` with the parallel rank-splitting divide-and-conquer algorithm.
///
/// Produces exactly the same dendrogram as [`static_sld_kruskal`] (the SLD is unique given the
/// rank total order).
pub fn static_sld_parallel(forest: &Forest) -> Dendrogram {
    let mut edges: Vec<SubEdge> = forest
        .edges()
        .map(|(id, d)| (id, forest.rank(id), d.u.0, d.v.0))
        .collect();
    edges.par_sort_unstable_by(|a, b| a.1.cmp(&b.1));
    let result = solve(forest.num_vertices(), &edges);
    let mut dendro = Dendrogram::with_capacity(forest.edge_id_bound());
    for &(id, ..) in &edges {
        dendro.add_node(id);
    }
    for (child, parent) in result.parents {
        dendro.set_parent(child, Some(parent));
    }
    dendro
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynsld_forest::gen::{self, WeightOrder};

    fn check_same(forest: &Forest) {
        let a = static_sld_kruskal(forest);
        let b = static_sld_parallel(forest);
        a.validate(forest).expect("kruskal dendrogram valid");
        b.validate(forest).expect("parallel dendrogram valid");
        assert_eq!(a.canonical_parents(), b.canonical_parents());
    }

    #[test]
    fn kruskal_matches_figure_1() {
        // The example tree of Figure 1 in the paper, with edges labelled by their ranks.
        // Vertices: a..l mapped to 0..11.
        let names = "abcdefghijkl";
        let idx = |c: char| names.find(c).unwrap() as u32;
        let mut f = Forest::new(12);
        let mut ids = std::collections::HashMap::new();
        for (u, v, w) in [
            ('a', 'b', 8.0),
            ('b', 'c', 11.0),
            ('b', 'd', 9.0),
            ('d', 'e', 10.0),
            ('e', 'f', 4.0),
            ('e', 'h', 2.0),
            ('g', 'h', 7.0),
            ('h', 'i', 1.0),
            ('i', 'j', 6.0),
            ('i', 'k', 3.0),
            ('k', 'l', 5.0),
        ] {
            let id = f.insert_edge(VertexId(idx(u)), VertexId(idx(v)), w);
            ids.insert((u, v), id);
        }
        let d = static_sld_kruskal(&f);
        d.validate(&f).unwrap();
        let parent_of = |a: (char, char)| d.parent(ids[&a]);
        // Hand-simulated single-linkage clustering of the Figure 1 tree (edges merged in rank
        // order 1..11): h-i, e-h, i-k, e-f, k-l, i-j, g-h, a-b, b-d, d-e, b-c.
        assert_eq!(parent_of(('h', 'i')), Some(ids[&('e', 'h')]));
        assert_eq!(parent_of(('e', 'h')), Some(ids[&('i', 'k')]));
        assert_eq!(parent_of(('i', 'k')), Some(ids[&('e', 'f')]));
        assert_eq!(parent_of(('e', 'f')), Some(ids[&('k', 'l')]));
        assert_eq!(parent_of(('k', 'l')), Some(ids[&('i', 'j')]));
        assert_eq!(parent_of(('i', 'j')), Some(ids[&('g', 'h')]));
        assert_eq!(parent_of(('g', 'h')), Some(ids[&('d', 'e')]));
        assert_eq!(parent_of(('a', 'b')), Some(ids[&('b', 'd')]));
        assert_eq!(parent_of(('b', 'd')), Some(ids[&('d', 'e')]));
        assert_eq!(parent_of(('d', 'e')), Some(ids[&('b', 'c')]));
        assert_eq!(parent_of(('b', 'c')), None);
    }

    #[test]
    fn path_increasing_gives_chain_dendrogram() {
        let inst = gen::path(50, WeightOrder::Increasing);
        let f = inst.build_forest();
        let d = static_sld_kruskal(&f);
        d.validate(&f).unwrap();
        assert_eq!(d.height(&f), 48);
        // Every node's parent is the next edge along the path.
        for e in f.edge_ids() {
            let expect = if e.index() + 1 < 49 {
                Some(EdgeId::from_index(e.index() + 1))
            } else {
                None
            };
            assert_eq!(d.parent(e), expect);
        }
    }

    #[test]
    fn balanced_path_gives_logarithmic_height() {
        let inst = gen::path(1024, WeightOrder::Balanced);
        let f = inst.build_forest();
        let d = static_sld_kruskal(&f);
        d.validate(&f).unwrap();
        let h = d.height(&f);
        assert!(
            h <= 12,
            "balanced dendrogram should have height ~log n, got {h}"
        );
    }

    #[test]
    fn star_gives_chain_dendrogram() {
        let inst = gen::star(20);
        let f = inst.build_forest();
        let d = static_sld_kruskal(&f);
        assert_eq!(d.height(&f), 18);
    }

    #[test]
    fn parallel_matches_kruskal_on_random_trees() {
        for seed in 0..6 {
            let inst = gen::random_tree(800, seed);
            check_same(&inst.build_forest());
        }
    }

    #[test]
    fn parallel_matches_kruskal_on_structured_inputs() {
        for inst in [
            gen::path(2000, WeightOrder::Increasing),
            gen::path(2000, WeightOrder::Balanced),
            gen::path(2000, WeightOrder::Random(3)),
            gen::star(1500),
            gen::caterpillar(100, 9, 4),
            gen::binary_tree(9, 5),
            gen::disjoint_random_trees(8, 150, 6),
        ] {
            check_same(&inst.build_forest());
        }
    }

    #[test]
    fn parallel_matches_on_forest_with_deleted_edges() {
        let inst = gen::random_tree(500, 11);
        let mut f = inst.build_forest();
        // Delete every 5th edge to exercise non-contiguous edge ids.
        let ids: Vec<EdgeId> = f.edge_ids().collect();
        for (i, e) in ids.iter().enumerate() {
            if i % 5 == 0 {
                f.delete_edge(*e);
            }
        }
        check_same(&f);
    }

    #[test]
    fn lower_bound_instance_heights() {
        let lb = gen::lower_bound_star_paths(64, 7);
        let f = lb.instance.build_forest();
        let d = static_sld_kruskal(&f);
        // Each star of h+1 vertices has a path dendrogram of height h - 1.
        assert_eq!(d.height(&f), lb.h - 1);
    }

    #[test]
    fn empty_and_single_edge_forests() {
        let f = Forest::new(5);
        let d = static_sld_kruskal(&f);
        assert_eq!(d.num_nodes(), 0);
        let mut f2 = Forest::new(2);
        f2.insert_edge(VertexId(0), VertexId(1), 1.0);
        let d2 = static_sld_kruskal(&f2);
        assert_eq!(d2.num_nodes(), 1);
        assert_eq!(d2.height(&f2), 0);
        check_same(&f2);
    }
}
