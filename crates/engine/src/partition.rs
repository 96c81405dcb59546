//! Vertex partitioning: how the service router assigns vertices (and hence edges) to shards.
//!
//! Two partitioner families share one routing rule. A [`Partitioner`] is a *pure* function
//! from vertex id to shard index; a [`StatefulPartitioner`] decides each vertex's shard **on
//! its first appearance** in the routed stream and records the decision in a router-owned
//! [`AssignmentTable`], after which the assignment is pinned forever (the table is
//! append-only). The [`ClusterService`](crate::ClusterService) router derives an edge's home
//! from its two endpoint assignments either way: if both endpoints map to the same shard the
//! edge lives there, and otherwise it is routed to the dedicated *spill shard* that holds
//! every cross-shard edge (see [`ShardId`]).
//!
//! Both families preserve the invariant that makes per-shard submit-time validation sound: an
//! edge routes to the same shard for its whole lifetime. For pure partitioners that is
//! function purity; for stateful partitioners it is *assign-on-first-sight* — once both
//! endpoints are in the table, every later event addressing the edge consults the same two
//! pinned entries. Only the *choice* of shard is stateful, never the routing of an already
//! assigned vertex.
//!
//! The default [`HashPartitioner`] scrambles vertex ids with a Fibonacci multiplicative hash
//! so that range-correlated workloads (windowed streams, blocked generators) still spread
//! evenly across shards — but it ignores locality, so on a random-endpoint stream ~`1 − 1/k`
//! of the edges straddle two shards and land on the spill shard. The [`GreedyPartitioner`]
//! closes that gap on community-structured streams: it keeps new vertices next to the
//! neighbours they arrive with (an LDG-style greedy rule with a capacity penalty for
//! balance), collapsing the spill share by keeping whole communities on one shard.

use dynsld_forest::VertexId;

/// Identifies one partition of a [`ClusterService`](crate::ClusterService).
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ShardId {
    /// One of the endpoint-partitioned shards, indexed `0..num_shards`.
    Routed(usize),
    /// The dedicated shard holding every cross-shard edge. Only exists when the service has
    /// more than one routed shard.
    Spill,
}

impl ShardId {
    /// True for the dedicated cross-shard spill shard.
    pub fn is_spill(&self) -> bool {
        matches!(self, ShardId::Spill)
    }

    /// The id of engine slot `index` on a service with `num_shards` routed shards: routed
    /// shards first, the spill shard last.
    pub(crate) fn of_slot(index: usize, num_shards: usize) -> Self {
        if index < num_shards {
            ShardId::Routed(index)
        } else {
            ShardId::Spill
        }
    }
}

impl std::fmt::Display for ShardId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardId::Routed(i) => write!(f, "shard {i}"),
            ShardId::Spill => write!(f, "spill shard"),
        }
    }
}

/// A pure assignment of vertices to shards.
///
/// Implementations must be deterministic: the router consults the partitioner on every event,
/// and an edge is only applied consistently if both consultations of its endpoints always
/// return the same shards. `shard_of` must return a value in `0..num_shards`.
pub trait Partitioner: std::fmt::Debug + Send + Sync {
    /// The shard (in `0..num_shards`) that owns vertex `v`.
    fn shard_of(&self, v: VertexId, num_shards: usize) -> usize;

    /// The home of edge `{u, v}`: the common shard of its endpoints, or [`ShardId::Spill`]
    /// when they disagree.
    fn route_edge(&self, u: VertexId, v: VertexId, num_shards: usize) -> ShardId {
        let su = self.shard_of(u, num_shards);
        let sv = self.shard_of(v, num_shards);
        if su == sv {
            ShardId::Routed(su)
        } else {
            ShardId::Spill
        }
    }
}

/// The default partitioner: a Fibonacci multiplicative hash of the vertex id, reduced modulo
/// the shard count.
///
/// The multiplication by `2^64 / φ` diffuses low-order id locality, so consecutively numbered
/// vertices (the common case for generated workloads) land on different shards instead of
/// filling one shard at a time.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct HashPartitioner;

impl Partitioner for HashPartitioner {
    fn shard_of(&self, v: VertexId, num_shards: usize) -> usize {
        debug_assert!(num_shards > 0, "a service always has at least one shard");
        // Fibonacci hashing: 2^64 / golden ratio, odd, full-period under multiplication.
        // The range reduction stays in u64 so 32-bit targets neither overflow the multiply
        // nor shift a usize by its full width.
        let h = u64::from(v.0).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (((h >> 32) * num_shards as u64) >> 32) as usize
    }
}

/// A partitioner that assigns contiguous vertex-id blocks to shards (`v / block_size`), for
/// workloads whose communities are laid out in id ranges (e.g. the blocked generators of
/// `dynsld-forest`).
///
/// # Wrap-around past the covered range
///
/// **Footgun:** the partitioner only covers ids `0..block_size * num_shards`. Ids past that
/// range **silently wrap around modulo the shard count** — vertex `block_size * num_shards`
/// lands back on shard 0, co-resident with block 0 even though it belongs to no block. A
/// `block_size` chosen for the *initial* vertex count therefore scatters vertices added later
/// (e.g. via [`ClusterService::add_vertices`](crate::ClusterService::add_vertices)) across
/// shards in a way that has nothing to do with their community. If the workload grows the
/// vertex set, either size `block_size` for the final count up front (see
/// [`covering`](Self::covering)) or use a [`GreedyPartitioner`], which assigns growth where
/// its edges arrive. The wrap-around behaviour itself is pinned by a unit test — it is part
/// of the contract, not an accident — and flagged by a `debug_assert` in
/// [`covering`](Self::covering).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct BlockPartitioner {
    /// Number of consecutive vertex ids per block.
    pub block_size: usize,
}

impl BlockPartitioner {
    /// A block partitioner sized so that vertices `0..n` are covered without wrap-around at
    /// the given shard count: `block_size = ceil(n / num_shards)`.
    ///
    /// Debug builds assert the resulting coverage (`block_size * num_shards >= n`), making
    /// the wrap-around footgun loud at construction instead of silent at routing time.
    pub fn covering(n: usize, num_shards: usize) -> Self {
        assert!(num_shards > 0, "need at least one shard to cover");
        let block_size = n.div_ceil(num_shards).max(1);
        debug_assert!(
            block_size * num_shards >= n,
            "covering({n}, {num_shards}) must not wrap"
        );
        BlockPartitioner { block_size }
    }
}

impl Partitioner for BlockPartitioner {
    fn shard_of(&self, v: VertexId, num_shards: usize) -> usize {
        debug_assert!(self.block_size > 0, "block size must be positive");
        // Ids >= block_size * num_shards wrap modulo the shard count — see the type docs.
        (v.index() / self.block_size.max(1)) % num_shards
    }
}

/// The router-owned, append-only vertex → shard map behind every [`StatefulPartitioner`].
///
/// Entries start unassigned; [`assign`](Self::assign) pins a vertex to a shard exactly once
/// and the pin is permanent — there is deliberately no way to clear or move an entry, because
/// edge-routing soundness (an edge lives on one shard for its whole lifetime) rests on the
/// endpoints never migrating. The table also maintains the per-shard assigned-vertex loads
/// the [`GreedyPartitioner`]'s capacity penalty reads.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AssignmentTable {
    /// `shard_of[v]`, with `UNASSIGNED` for vertices not yet seen by the router.
    shard_of: Vec<u32>,
    /// Number of vertices assigned to each shard.
    loads: Vec<u64>,
}

const UNASSIGNED: u32 = u32::MAX;

impl AssignmentTable {
    /// An empty table over vertices `0..n` and `num_shards` routed shards.
    pub fn new(n: usize, num_shards: usize) -> Self {
        assert!(num_shards > 0, "a service always has at least one shard");
        assert!(
            num_shards < UNASSIGNED as usize,
            "shard count must fit below the unassigned sentinel"
        );
        AssignmentTable {
            shard_of: vec![UNASSIGNED; n],
            loads: vec![0; num_shards],
        }
    }

    /// Number of vertices the table covers.
    pub fn num_vertices(&self) -> usize {
        self.shard_of.len()
    }

    /// Number of routed shards.
    pub fn num_shards(&self) -> usize {
        self.loads.len()
    }

    /// The pinned shard of `v`, or `None` while `v` has not appeared in the routed stream.
    pub fn get(&self, v: VertexId) -> Option<usize> {
        match self.shard_of.get(v.index()) {
            Some(&s) if s != UNASSIGNED => Some(s as usize),
            _ => None,
        }
    }

    /// Pins `v` to shard `s`, forever.
    ///
    /// # Panics
    /// Panics if `v` is out of range, `s` is not a routed shard, or `v` is already assigned —
    /// the table is append-only by contract, and re-assignment would break the edge-routing
    /// invariant, so it is refused loudly rather than best-effort.
    pub fn assign(&mut self, v: VertexId, s: usize) {
        assert!(s < self.loads.len(), "shard {s} out of range");
        let slot = &mut self.shard_of[v.index()];
        assert_eq!(
            *slot, UNASSIGNED,
            "vertex {v} is already pinned to shard {}; assignments are append-only",
            *slot
        );
        *slot = s as u32;
        self.loads[s] += 1;
    }

    /// Number of vertices currently assigned to shard `s`.
    pub fn load(&self, s: usize) -> u64 {
        self.loads[s]
    }

    /// Per-shard assigned-vertex loads, indexed by routed shard.
    pub fn loads(&self) -> &[u64] {
        &self.loads
    }

    /// Total number of assigned vertices.
    pub fn assigned(&self) -> u64 {
        self.loads.iter().sum()
    }

    /// Extends the covered vertex range by `k` unassigned vertices (the
    /// [`ClusterService::add_vertices`](crate::ClusterService::add_vertices) hook). Existing
    /// assignments are untouched.
    pub fn grow(&mut self, k: usize) {
        let new_len = self.shard_of.len() + k;
        self.shard_of.resize(new_len, UNASSIGNED);
    }

    /// The raw per-vertex shard array, with `u32::MAX` for unassigned vertices — the
    /// checkpoint serialization format used by the durability layer.
    pub fn to_raw(&self) -> Vec<u32> {
        self.shard_of.clone()
    }

    /// Rebuilds a table from a raw array produced by [`to_raw`](Self::to_raw), recomputing
    /// per-shard loads.
    ///
    /// # Panics
    /// Panics if any assigned entry names a shard outside `0..num_shards` — a checkpoint
    /// written at a different shard count cannot be restored into this table.
    pub fn from_raw(raw: Vec<u32>, num_shards: usize) -> Self {
        assert!(num_shards > 0, "a service always has at least one shard");
        let mut loads = vec![0u64; num_shards];
        for &s in &raw {
            if s != UNASSIGNED {
                assert!(
                    (s as usize) < num_shards,
                    "checkpointed assignment names shard {s}, but the service has {num_shards}"
                );
                loads[s as usize] += 1;
            }
        }
        AssignmentTable {
            shard_of: raw,
            loads,
        }
    }
}

/// A shard chooser consulted once per vertex, on the vertex's first appearance in the routed
/// stream.
///
/// The router keeps the resulting pin in its [`AssignmentTable`]; implementations only pick
/// the shard, they never mutate the table themselves. `choose` must be **deterministic** in
/// `(v, partner, num_shards, table)` — the sharded-vs-oracle property tests replay identical
/// streams through differently chunked drains and require identical tables.
///
/// The contract mirrors streaming graph partitioning: decisions are made greedily, online,
/// with no knowledge of future events, and are irrevocable. Unlike the vertex-streaming model
/// of LDG/Fennel (where a vertex arrives with its whole adjacency list), the edge-streaming
/// router sees a new vertex with exactly one neighbour — the other endpoint of the edge that
/// introduced it — exposed here as `partner`.
pub trait StatefulPartitioner: std::fmt::Debug + Send + Sync {
    /// The shard (in `0..num_shards`) to pin vertex `v` to. `partner` is the pinned shard of
    /// the other endpoint of the edge that introduced `v`, when that endpoint is already
    /// assigned (it is `None` when both endpoints are new and `v` is the first of the pair).
    fn choose(
        &self,
        v: VertexId,
        partner: Option<usize>,
        num_shards: usize,
        table: &AssignmentTable,
    ) -> usize;
}

/// The locality-aware streaming partitioner: assign-on-first-sight with an LDG-style greedy
/// rule (Stanton–Kleinberg linear deterministic greedy, adapted to the edge-streaming model).
///
/// On a vertex's first appearance the partitioner scores every shard as
/// `neighbours(s) * (1 - load(s) / capacity)` — the weighted neighbour count damped by a
/// multiplicative capacity penalty — and picks the arg-max, breaking ties towards the lower
/// load and then the lower shard index. In the edge-streaming model a new vertex has exactly
/// one visible neighbour (the `partner` endpoint), so the rule degenerates to something very
/// direct: **join your neighbour's shard unless it is past capacity; otherwise (or when both
/// endpoints are new) take the least-loaded shard**. On community-structured streams the
/// first edge of a community lands both endpoints on the least-loaded shard and every later
/// community member is pulled to the same shard by its partner, so intra-community edges stay
/// local and only the (rare) cross-community edges spill — the order-of-magnitude spill-share
/// collapse measured by the `partitioner_sweep` bench.
///
/// `capacity = balance_slack * n / num_shards` vertices, with `n` the table's current vertex
/// count (it grows with the service). The penalty keeps the max/min shard load ratio bounded
/// near `balance_slack` even when one community dwarfs the rest.
///
/// The choice is deterministic in the routed event order, which the single-writer
/// [`FlusherDriver`](crate::FlusherDriver) makes identical to the submission order — so the
/// resulting [`AssignmentTable`] is a pure function of the event stream, drain chunking
/// notwithstanding.
#[derive(Clone, Debug, PartialEq)]
pub struct GreedyPartitioner {
    /// Capacity slack factor (≥ 1): a shard stops attracting neighbours once it holds more
    /// than `balance_slack * n / num_shards` assigned vertices. 1.0 forces perfect balance at
    /// the cost of extra spill; large values trade balance for locality.
    pub balance_slack: f64,
}

impl Default for GreedyPartitioner {
    /// 20% headroom over the perfectly balanced share — enough to keep whole communities
    /// together at community-count ≫ shard-count without letting one shard run away.
    fn default() -> Self {
        GreedyPartitioner { balance_slack: 1.2 }
    }
}

impl StatefulPartitioner for GreedyPartitioner {
    fn choose(
        &self,
        _v: VertexId,
        partner: Option<usize>,
        num_shards: usize,
        table: &AssignmentTable,
    ) -> usize {
        debug_assert!(num_shards > 0, "a service always has at least one shard");
        let capacity = (self.balance_slack.max(1.0) * table.num_vertices() as f64
            / num_shards as f64)
            .max(1.0);
        // score(s) = neighbours(s) * (1 - load(s)/capacity); with one visible neighbour the
        // partner's shard scores positive while under capacity and every other shard scores
        // zero, so the arg-max (ties: lower load, then lower index) is the rule from the docs.
        let mut best = 0usize;
        let mut best_score = f64::NEG_INFINITY;
        for s in 0..num_shards {
            let neighbours = if partner == Some(s) { 1.0 } else { 0.0 };
            let score = neighbours * (1.0 - table.load(s) as f64 / capacity);
            // Ascending iteration makes the lower index win exact ties automatically.
            let better =
                score > best_score || (score == best_score && table.load(s) < table.load(best));
            if better {
                best = s;
                best_score = score;
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_partitioner_is_deterministic_and_in_range() {
        let p = HashPartitioner;
        for shards in [1usize, 2, 3, 8] {
            for i in 0..500u32 {
                let s = p.shard_of(VertexId(i), shards);
                assert!(s < shards);
                assert_eq!(s, p.shard_of(VertexId(i), shards));
            }
        }
    }

    #[test]
    fn hash_partitioner_spreads_consecutive_ids() {
        let p = HashPartitioner;
        let shards = 4usize;
        let mut counts = vec![0usize; shards];
        for i in 0..1000u32 {
            counts[p.shard_of(VertexId(i), shards)] += 1;
        }
        // Each shard should get a substantial share of a consecutive id range.
        for (i, &c) in counts.iter().enumerate() {
            assert!(c > 150, "shard {i} underfilled: {counts:?}");
        }
    }

    #[test]
    fn route_edge_spills_exactly_on_disagreement() {
        let p = BlockPartitioner { block_size: 10 };
        assert_eq!(
            p.route_edge(VertexId(0), VertexId(9), 3),
            ShardId::Routed(0)
        );
        assert_eq!(
            p.route_edge(VertexId(10), VertexId(19), 3),
            ShardId::Routed(1)
        );
        assert_eq!(p.route_edge(VertexId(0), VertexId(10), 3), ShardId::Spill);
        // Wrap-around past the covered range.
        assert_eq!(
            p.route_edge(VertexId(30), VertexId(31), 3),
            ShardId::Routed(0)
        );
    }

    #[test]
    fn single_shard_routes_everything_locally() {
        let p = HashPartitioner;
        for i in 0..50u32 {
            assert_eq!(
                p.route_edge(VertexId(i), VertexId(i + 1), 1),
                ShardId::Routed(0)
            );
        }
    }

    /// Pins the documented footgun: ids past `block_size * num_shards` wrap modulo the shard
    /// count, landing co-resident with low blocks. This is the contract — change it and this
    /// test must change with the docs.
    #[test]
    fn block_partitioner_wraps_past_the_covered_range() {
        let p = BlockPartitioner { block_size: 10 };
        let shards = 3usize;
        let covered = 10 * shards;
        for i in 0..60u32 {
            let expected = (i as usize / 10) % shards;
            assert_eq!(p.shard_of(VertexId(i), shards), expected);
        }
        // Vertex `covered` is in no block, yet routes to shard 0 — exactly where block 0 is.
        assert_eq!(p.shard_of(VertexId(covered as u32), shards), 0);
        assert_eq!(
            p.shard_of(VertexId(covered as u32), shards),
            p.shard_of(VertexId(0), shards),
        );
        // The covering constructor sizes blocks so ids 0..n never wrap.
        for (n, shards) in [(12usize, 4usize), (13, 4), (1, 3), (100, 7)] {
            let p = BlockPartitioner::covering(n, shards);
            for i in 0..n {
                let s = p.shard_of(VertexId(i as u32), shards);
                assert!(s < shards);
                assert_eq!(s, i / p.block_size, "no wrap inside 0..{n}");
            }
        }
    }

    #[test]
    fn assignment_table_is_append_only_and_tracks_loads() {
        let mut t = AssignmentTable::new(6, 3);
        assert_eq!(t.num_vertices(), 6);
        assert_eq!(t.num_shards(), 3);
        assert_eq!(t.get(VertexId(2)), None);
        assert_eq!(t.assigned(), 0);
        t.assign(VertexId(2), 1);
        t.assign(VertexId(0), 1);
        t.assign(VertexId(5), 0);
        assert_eq!(t.get(VertexId(2)), Some(1));
        assert_eq!(t.loads(), &[1, 2, 0]);
        assert_eq!(t.assigned(), 3);
        // Growth adds unassigned coverage without touching existing pins.
        t.grow(2);
        assert_eq!(t.num_vertices(), 8);
        assert_eq!(t.get(VertexId(7)), None);
        t.assign(VertexId(7), 2);
        assert_eq!(t.load(2), 1);
        assert_eq!(t.get(VertexId(2)), Some(1));
    }

    #[test]
    #[should_panic(expected = "append-only")]
    fn assignment_table_refuses_reassignment() {
        let mut t = AssignmentTable::new(4, 2);
        t.assign(VertexId(1), 0);
        t.assign(VertexId(1), 1);
    }

    #[test]
    fn greedy_joins_partner_until_capacity_then_least_loaded() {
        let g = GreedyPartitioner { balance_slack: 1.0 };
        let shards = 2usize;
        let mut t = AssignmentTable::new(8, shards);
        // Both endpoints new: no neighbour evidence anywhere -> least loaded (ties: shard 0).
        assert_eq!(g.choose(VertexId(0), None, shards, &t), 0);
        t.assign(VertexId(0), 0);
        // Partner assigned and shard 0 under capacity (4): join it.
        assert_eq!(g.choose(VertexId(1), Some(0), shards, &t), 0);
        t.assign(VertexId(1), 0);
        t.assign(VertexId(2), 0);
        t.assign(VertexId(3), 0);
        // Shard 0 is now at capacity: the neighbour score is damped to 0, and the load
        // tie-break sends the newcomer to the emptier shard instead.
        assert_eq!(g.choose(VertexId(4), Some(0), shards, &t), 1);
        // No partner: plain least-loaded.
        assert_eq!(g.choose(VertexId(5), None, shards, &t), 1);
    }

    #[test]
    fn greedy_choice_is_deterministic_in_the_table_state() {
        let g = GreedyPartitioner::default();
        let t = {
            let mut t = AssignmentTable::new(16, 4);
            for i in 0..6u32 {
                t.assign(VertexId(i), (i as usize) % 3);
            }
            t
        };
        for partner in [None, Some(0), Some(1), Some(2), Some(3)] {
            let a = g.choose(VertexId(9), partner, 4, &t);
            let b = g.choose(VertexId(9), partner, 4, &t);
            assert_eq!(a, b);
            assert!(a < 4);
        }
    }
}
