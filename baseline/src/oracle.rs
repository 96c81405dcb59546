//! A code-independent oracle: the harness's own record of which edges are alive and its own
//! union-find. Nothing here imports the workspace's `Dsu`, dendrogram or ordering code — only
//! the event vocabulary — so a tie-break or rank-order bug in the system cannot hide here.

use dynsld_forest::workload::GraphUpdate;
use std::collections::HashMap;

/// The live edge set of a stream, maintained by replaying the events the harness submitted.
pub struct LiveGraph {
    n: usize,
    edges: HashMap<(u32, u32), f64>,
    /// Events that were invalid against the live set (insert of a present edge, delete or
    /// re-weight of an absent one). The workloads are built so this stays 0.
    pub invalid: u64,
}

fn key(u: u32, v: u32) -> (u32, u32) {
    if u <= v {
        (u, v)
    } else {
        (v, u)
    }
}

impl LiveGraph {
    pub fn new(n: usize) -> Self {
        LiveGraph {
            n,
            edges: HashMap::new(),
            invalid: 0,
        }
    }

    pub fn apply(&mut self, event: &GraphUpdate) {
        let ok = match *event {
            GraphUpdate::Insert { u, v, weight } => {
                self.edges.insert(key(u.0, v.0), weight).is_none()
            }
            GraphUpdate::Delete { u, v } => self.edges.remove(&key(u.0, v.0)).is_some(),
            GraphUpdate::Reweight { u, v, weight } => self
                .edges
                .get_mut(&key(u.0, v.0))
                .map(|w| *w = weight)
                .is_some(),
        };
        if !ok {
            self.invalid += 1;
        }
    }

    pub fn apply_all(&mut self, events: &[GraphUpdate]) {
        for event in events {
            self.apply(event);
        }
    }

    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// The live edges, sorted by endpoints so every consumer sees one order.
    pub fn edges(&self) -> Vec<(u32, u32, f64)> {
        let mut edges: Vec<(u32, u32, f64)> =
            self.edges.iter().map(|(&(u, v), &w)| (u, v, w)).collect();
        edges.sort_by_key(|&(u, v, _)| (u, v));
        edges
    }

    /// Three thresholds at the quartiles of the live weights, each placed strictly between two
    /// adjacent distinct weights so `<=` versus `<` cannot change the answer.
    pub fn thresholds(&self) -> [f64; 3] {
        let mut weights: Vec<f64> = self.edges.values().copied().collect();
        weights.sort_by(f64::total_cmp);
        let at = |q: usize| {
            if weights.is_empty() {
                return q as f64;
            }
            let i = (weights.len() * q / 4).min(weights.len() - 1);
            match weights[i..].iter().find(|&&w| w > weights[i]) {
                Some(&next) => (weights[i] + next) / 2.0,
                None => weights[i] + 1.0,
            }
        };
        [at(1), at(2), at(3)]
    }

    /// Component label per vertex of the graph `{e : w(e) <= tau}` (all live edges when `tau`
    /// is `None`), and the number of components.
    pub fn components(&self, tau: Option<f64>) -> (Vec<u32>, usize) {
        let mut parent: Vec<u32> = (0..self.n as u32).collect();
        let mut count = self.n;
        for (&(u, v), &w) in &self.edges {
            if tau.is_some_and(|t| w > t) {
                continue;
            }
            let (a, b) = (find(&mut parent, u), find(&mut parent, v));
            if a != b {
                parent[a as usize] = b;
                count -= 1;
            }
        }
        let labels = (0..self.n as u32).map(|x| find(&mut parent, x)).collect();
        (labels, count)
    }
}

fn find(parent: &mut [u32], mut x: u32) -> u32 {
    while parent[x as usize] != x {
        let up = parent[x as usize];
        parent[x as usize] = parent[up as usize];
        x = up;
    }
    x
}

/// True iff the two labelings induce the same partition (labels need not agree, only the
/// grouping): the label pairs must form a bijection.
pub fn same_partition(ours: &[u32], theirs: &[usize]) -> bool {
    if ours.len() != theirs.len() {
        return false;
    }
    let mut forward: HashMap<u32, usize> = HashMap::new();
    let mut backward: HashMap<usize, u32> = HashMap::new();
    ours.iter()
        .zip(theirs)
        .all(|(&a, &b)| *forward.entry(a).or_insert(b) == b && *backward.entry(b).or_insert(a) == a)
}

/// What the oracle needs from a view of the clustering (a service snapshot or a mirror).
pub struct View<'a> {
    pub what: &'static str,
    pub num_graph_edges: usize,
    pub num_components: usize,
    pub labels: &'a dyn Fn(f64) -> Vec<usize>,
}

/// Compares `view` with the live graph: edge count, component count, and the flat clustering
/// at three thresholds. Returns the number of checks made and a description of each mismatch.
pub fn check(live: &LiveGraph, view: &View) -> (u64, Vec<String>) {
    let mut mismatches = Vec::new();
    if view.num_graph_edges != live.num_edges() {
        mismatches.push(format!(
            "{}: num_graph_edges {} != oracle {}",
            view.what,
            view.num_graph_edges,
            live.num_edges()
        ));
    }
    let (_, components) = live.components(None);
    if view.num_components != components {
        mismatches.push(format!(
            "{}: num_components {} != oracle {components}",
            view.what, view.num_components
        ));
    }
    let thresholds = live.thresholds();
    for tau in thresholds {
        let (labels, _) = live.components(Some(tau));
        if !same_partition(&labels, &(view.labels)(tau)) {
            mismatches.push(format!("{}: partition at tau={tau} differs", view.what));
        }
    }
    (2 + thresholds.len() as u64, mismatches)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynsld_forest::VertexId;

    fn ins(u: u32, v: u32, weight: f64) -> GraphUpdate {
        GraphUpdate::Insert {
            u: VertexId(u),
            v: VertexId(v),
            weight,
        }
    }

    #[test]
    fn components_follow_the_threshold() {
        let mut g = LiveGraph::new(4);
        g.apply_all(&[ins(0, 1, 1.0), ins(1, 2, 3.0), ins(3, 2, 5.0)]);
        assert_eq!(g.components(None).1, 1);
        assert_eq!(g.components(Some(2.0)).1, 3);
        assert_eq!(g.components(Some(4.0)).1, 2);
        g.apply(&GraphUpdate::Delete {
            u: VertexId(2),
            v: VertexId(1),
        });
        assert_eq!((g.components(None).1, g.invalid), (2, 0));
        g.apply(&ins(0, 1, 9.0));
        assert_eq!(g.invalid, 1);
    }

    #[test]
    fn thresholds_avoid_ties() {
        let mut g = LiveGraph::new(5);
        g.apply_all(&[
            ins(0, 1, 1.0),
            ins(1, 2, 1.0),
            ins(2, 3, 2.0),
            ins(3, 4, 4.0),
        ]);
        for tau in g.thresholds() {
            assert!(g.edges().iter().all(|&(_, _, w)| w != tau));
        }
    }

    #[test]
    fn partitions_compare_up_to_relabeling() {
        assert!(same_partition(&[7, 7, 9], &[0, 0, 1]));
        assert!(!same_partition(&[7, 7, 9], &[0, 1, 1]));
        assert!(!same_partition(&[7, 8, 9], &[0, 0, 1]));
    }

    #[test]
    fn check_reports_each_mismatch() {
        let mut g = LiveGraph::new(3);
        g.apply(&ins(0, 1, 1.0));
        let good = View {
            what: "good",
            num_graph_edges: 1,
            num_components: 2,
            labels: &|_| vec![0, 0, 1],
        };
        assert_eq!(check(&g, &good), (5, vec![]));
        let bad = View {
            what: "bad",
            num_graph_edges: 2,
            num_components: 2,
            labels: &|_| vec![0, 1, 2],
        };
        assert_eq!(check(&g, &bad).1.len(), 4);
    }
}
