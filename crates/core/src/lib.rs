//! # dynsld — fully-dynamic parallel single-linkage dendrogram maintenance
//!
//! A from-scratch Rust implementation of **DynSLD**, the algorithm suite of
//! *"Fully-Dynamic Parallel Algorithms for Single-Linkage Clustering"* (De Man, Dhulipala,
//! Gowda; SPAA 2025): explicit maintenance of the single-linkage dendrogram (SLD) of a dynamic
//! weighted forest under edge insertions and deletions.
//!
//! ## What this crate provides
//!
//! * [`DynSld`] — the main structure. It owns the input forest, the explicit dendrogram
//!   ([`Dendrogram`]) and the dynamic-tree substrates, and exposes the paper's update
//!   algorithms:
//!   * sequential `O(h)` insertion / `O(h log(1 + n/h))` deletion (Theorem 1.1) —
//!     [`DynSld::insert_seq`], [`DynSld::delete_seq`];
//!   * output-sensitive `Õ(c)` insertion (Theorem 1.2) — [`DynSld::insert_output_sensitive`];
//!   * parallel insertion/deletion (Theorem 1.3) — [`DynSld::insert_parallel`],
//!     [`DynSld::delete_parallel`];
//!   * parallel output-sensitive insertion (Theorem 1.4) —
//!     [`DynSld::insert_output_sensitive_parallel`];
//!   * batch-parallel insertion/deletion (Theorem 1.5) — [`DynSld::batch_insert`],
//!     [`DynSld::batch_delete`];
//!   * dendrogram queries (Section 6.1): threshold, cluster size, cluster report, flat
//!     clustering;
//! * [`cartesian::CartesianTree`] — dynamic Cartesian trees built on DynSLD (Section 6.2);
//! * [`static_sld`] — static baselines (sequential Kruskal-style and a parallel
//!   divide-and-conquer) used as correctness oracles and as the "static recomputation"
//!   comparison point.
//!
//! ## Quick start
//!
//! ```
//! use dynsld::{DynSld, DynSldOptions, UpdateStrategy};
//! use dynsld_forest::VertexId;
//!
//! // Maintain the SLD of a dynamic forest on 5 vertices.
//! let mut sld = DynSld::new(5);
//! let v = |i: u32| VertexId(i);
//! sld.insert(v(0), v(1), 1.0).unwrap();
//! sld.insert(v(1), v(2), 3.0).unwrap();
//! sld.insert(v(2), v(3), 2.0).unwrap();
//!
//! // The dendrogram is explicit: every edge is a node with a parent pointer.
//! // Weight-1 and weight-2 edges form clusters {0,1} and {2,3}; the weight-3 edge merges them.
//! let e01 = sld.forest().find_edge(v(0), v(1)).unwrap();
//! let e12 = sld.forest().find_edge(v(1), v(2)).unwrap();
//! let e23 = sld.forest().find_edge(v(2), v(3)).unwrap();
//! assert_eq!(sld.parent_of(e01), Some(e12));
//! assert_eq!(sld.parent_of(e23), Some(e12));
//! assert_eq!(sld.parent_of(e12), None);
//!
//! // Deleting an edge splits the dendrogram accordingly.
//! sld.delete(v(1), v(2)).unwrap();
//! assert_eq!(sld.parent_of(e01), None);
//! assert_eq!(sld.parent_of(e23), None);
//! ```

#![warn(missing_docs)]

pub mod batch;
pub mod cartesian;
pub mod dendrogram;
pub mod dynsld;
pub mod export;
pub mod outsens;
pub mod outsens_par;
pub mod par;
pub mod queries;
pub mod seq;
pub mod sides;
pub mod snapshot;
pub mod static_sld;

pub use batch::{Labelling, Promotion};
pub use cartesian::CartesianTree;
pub use dendrogram::Dendrogram;
pub use dynsld::{DynSld, DynSldError, DynSldOptions, ForestBackend, UpdateStats, UpdateStrategy};
pub use queries::FlatClustering;
pub use seq::CycleExchange;
pub use snapshot::{DendrogramSnapshot, ExportStats, RankedNodes, SnapshotNode};
pub use static_sld::{static_sld_kruskal, static_sld_parallel};

// Re-export the building-block crates so downstream users need a single dependency.
pub use dynsld_dyntree as dyntree;
pub use dynsld_forest as forest;
pub use dynsld_parallel as parallel;
