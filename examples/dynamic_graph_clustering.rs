//! End-to-end fully-dynamic single-linkage clustering of a dynamic *graph* (Problem 2).
//!
//! Run with `cargo run --release --example dynamic_graph_clustering`.
//!
//! A similarity graph over documents evolves: new similarity edges appear as documents are
//! compared, stale similarities are dropped. `dynsld-msf` maintains the minimum spanning forest
//! of the graph and feeds every MSF change into DynSLD, so an explicit dendrogram of the whole
//! corpus is available at all times for threshold and cluster-size queries.

use dynsld::DynSldOptions;
use dynsld_forest::VertexId;
use dynsld_msf::{DynamicGraphClustering, MsfChange};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

const DOCS: usize = 3_000;
const CLUSTERS: usize = 30;

fn main() {
    let mut rng = SmallRng::seed_from_u64(11);
    let options = DynSldOptions {
        maintain_spine_index: true,
        ..Default::default()
    };
    let mut graph = DynamicGraphClustering::with_options(DOCS, options);

    // Planted structure: documents belong to CLUSTERS topics; intra-topic similarities are
    // strong (small distance), inter-topic ones weak (large distance).
    let topic = |d: usize| d % CLUSTERS;
    let mut alive: Vec<(VertexId, VertexId)> = Vec::new();
    let mut inserted = 0usize;
    let mut replaced = 0usize;
    let mut non_tree = 0usize;

    let start = Instant::now();
    for step in 0..40_000 {
        let grow = alive.len() < 200 || rng.gen_bool(0.65);
        if grow {
            let a = rng.gen_range(0..DOCS);
            let b = rng.gen_range(0..DOCS);
            if a == b {
                continue;
            }
            let (u, v) = (VertexId(a as u32), VertexId(b as u32));
            if graph.edge_weight(u, v).is_some() {
                continue;
            }
            let distance = if topic(a) == topic(b) {
                rng.gen::<f64>() // intra-topic: distance in (0, 1)
            } else {
                5.0 + rng.gen::<f64>() * 5.0 // inter-topic: distance in (5, 10)
            };
            match graph.insert_edge(u, v, distance).expect("valid insertion") {
                MsfChange::Inserted => inserted += 1,
                MsfChange::Replaced { .. } => replaced += 1,
                MsfChange::StoredNonTree => non_tree += 1,
                _ => unreachable!(),
            }
            alive.push((u, v));
        } else {
            let idx = rng.gen_range(0..alive.len());
            let (u, v) = alive.swap_remove(idx);
            graph.delete_edge(u, v).expect("edge is alive");
        }
        if step % 10_000 == 0 && step > 0 {
            let sample = VertexId(0);
            let size = graph.sld_mut().cluster_size(sample, 2.0);
            println!(
                "step {step:>6}: {} graph edges, {} MSF edges, cluster(doc0, τ=2.0) has {size} docs",
                graph.num_graph_edges(),
                graph.num_tree_edges()
            );
        }
    }
    println!(
        "\nprocessed 40k updates in {:.2?} (insert-to-MSF: {inserted}, replacements: {replaced}, \
         non-tree: {non_tree})",
        start.elapsed()
    );

    // How well does the maintained hierarchy recover the planted topics? Cut the dendrogram
    // between the intra-topic (<1) and inter-topic (>5) distance bands.
    let clustering = graph.sld().flat_clustering(2.0);
    let mut sizes: Vec<usize> = clustering.clusters.iter().map(Vec::len).collect();
    sizes.sort_unstable_by(|a, b| b.cmp(a));
    println!(
        "flat clustering at τ=2.0: {} clusters; 10 largest: {:?}",
        clustering.num_clusters(),
        &sizes[..10.min(sizes.len())]
    );
    // Purity of the largest clusters w.r.t. the planted topics.
    let mut pure = 0usize;
    let mut checked = 0usize;
    for cluster in clustering.clusters.iter().filter(|c| c.len() >= 5) {
        let t0 = topic(cluster[0].index());
        checked += 1;
        if cluster.iter().all(|d| topic(d.index()) == t0) {
            pure += 1;
        }
    }
    println!("{pure}/{checked} clusters of size ≥ 5 are topic-pure");

    // Every replacement above rewired the dendrogram as one exchange, with the spine index
    // kept in step: the result must still be the dendrogram of the final forest.
    assert!(replaced >= 1_000, "only {replaced} replacements");
    graph
        .sld()
        .check_invariants()
        .expect("dendrogram invariants");
    assert_eq!(
        graph.sld().dendrogram().canonical_parents(),
        graph.sld().recompute_static().canonical_parents(),
        "maintained dendrogram differs from static recomputation"
    );
    println!("dendrogram verified against static recomputation");
}
