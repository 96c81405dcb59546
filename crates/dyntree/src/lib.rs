//! # dynsld-dyntree
//!
//! Dynamic tree data structures used by DynSLD (Section 2.4 of the paper).
//!
//! The paper's algorithms need two kinds of dynamic-forest functionality:
//!
//! 1. **Connectivity with component aggregates** over the *input forest*: after deleting an edge,
//!    each node on the characteristic spine must be assigned to the side of the cut containing
//!    its endpoints (batch connectivity queries), and cluster-report / flat-clustering queries
//!    iterate component members. Provided by [`EulerTourForest`] (Euler-tour trees over
//!    randomized treaps): `link`, `cut`, `connected`, `component_size`, component iteration —
//!    all `O(log n)` expected per operation — and [`ReprRound`], `k` find-representative
//!    queries in `O(k log(1 + n/k))` expected, memoised in a reusable [`RoundTable`].
//!
//! 2. **Path queries** over both the input forest (maximum-weight edge on a path, for threshold
//!    queries and the dynamic MSF) and the dendrogram itself (the paper's new *path weight
//!    search* and *path median* queries of Section 4.1, used by the output-sensitive update
//!    algorithms). Provided by [`LinkCutTree`] (splay-tree based link-cut trees with
//!    per-preferred-path aggregates): `link`, `cut`, `connected`, `path_max`, `path_len`,
//!    path-weight-search and k-th/median selection on root paths — all `O(log n)` amortized.
//!
//! The paper uses rake–compress (RC) trees for both roles because RC trees admit *batch-parallel*
//! updates with polylogarithmic depth. This crate supplies the sequential work-efficient
//! substrates (the `O(log n)`-per-operation costs that the DynSLD analysis charges to the
//! dynamic-tree structure); the companion crate `dynsld-rctree` provides the RC-tree structure
//! itself (parallel construction, path decomposition, batch queries). See README.md,
//! "Deviations from the paper" (substitution 3) for the rationale, and substitution 7 for the
//! one batch operation this crate does provide: [`EulerTourForest::repr_round`], the
//! `O(k log(1 + n/k))` batch of find-representative queries that deletions are charged for.

//!
//! Both structures implement the [`traits`] capability family — [`DynamicForest`] for
//! link/cut/connectivity, [`PathOps`] (link-cut tree) for path aggregates, and
//! [`ComponentOps`] (Euler-tour forest) for component queries — so downstream code can be
//! generic over the forest backend (see the `ForestBackend` policy in `dynsld-msf`).

pub mod euler;
pub mod lct;
pub mod round;
pub mod traits;

pub use euler::{EulerTourForest, ReprRound};
pub use lct::{LctNodeId, LinkCutTree};
pub use round::RoundTable;
pub use traits::{ComponentOps, DynamicForest, ExpandableForest, PathOps};
