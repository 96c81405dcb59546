//! Engine instrumentation.
//!
//! The engine keeps cheap running counters on its hot paths — ingest, flush, snapshot cache —
//! and exposes them as one [`Metrics`] value per call to
//! [`ClusteringEngine::metrics`](crate::ClusteringEngine::metrics). The counters aggregate the
//! per-update [`dynsld::UpdateStats`] (pointer changes, the paper's parameter `c`) across every
//! batch the engine has applied, so throughput claims can be correlated with the amount of
//! structural change the stream actually caused.

use std::time::Duration;

/// A point-in-time export of every engine counter.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Metrics {
    /// Events accepted by [`submit`](crate::ClusteringEngine::submit) since construction.
    pub events_submitted: u64,
    /// Events that vanished in the coalescer because a buffered insert met a delete
    /// (counted individually — one annihilation removes two events).
    pub events_annihilated: u64,
    /// Events merged into an existing pending operation (re-weight chains, delete+insert
    /// fusions).
    pub events_collapsed: u64,
    /// Events the service router sent to the spill shard because their endpoints straddled two
    /// routed shards. Zero on single-engine metrics (routing is a service-level concept); set
    /// by `ClusterService::metrics`. The numerator of [`Metrics::spill_routing_share`], the
    /// partitioner-quality baseline.
    pub events_routed_spill: u64,
    /// Insert events the service router has routed anywhere (each live edge counted once, at
    /// its insertion) — the denominator of [`Metrics::edge_cut_share`]. Zero on single-engine
    /// metrics; set by `ClusterService::metrics`.
    pub edge_inserts_routed: u64,
    /// Insert events the service router sent to the spill shard — the *edge-cut* numerator:
    /// unlike [`events_routed_spill`](Self::events_routed_spill) (which counts every event,
    /// so re-weight-heavy edges weigh more), this counts each cut edge once.
    pub edge_inserts_cut: u64,
    /// Vertices pinned in the router's `AssignmentTable` so far. Zero on single-engine
    /// metrics and under pure partitioners (which assign nothing); set by
    /// `ClusterService::metrics` for services built with a stateful partitioner.
    pub vertices_assigned: u64,
    /// Events accepted into the bounded submission queue by `IngestHandle::submit`. Zero on
    /// single-engine metrics (the queue is a service-level concept); set by
    /// `ClusterService::metrics`.
    pub events_enqueued: u64,
    /// Events absorbed by `Backpressure::Coalesce` in-queue compaction before they ever
    /// reached a shard (annihilated insert⊕delete pairs count 2, collapses count 1).
    pub events_compacted_in_queue: u64,
    /// Submits that had to wait for a free queue slot (`Backpressure::Block`, or a
    /// `Coalesce` that found no redundancy to absorb). A rising rate means producers outpace
    /// the driver.
    pub queue_block_waits: u64,
    /// Submits bounced with `IngestError::QueueFull` under `Backpressure::Fail`.
    pub queue_full_rejections: u64,
    /// High-watermark of the submission-queue depth: the most events that were ever buffered
    /// at once. Zero on single-engine metrics; set by `ClusterService::metrics`. A watermark
    /// pinned at the queue capacity means producers saturate the queue and the driver is the
    /// bottleneck.
    pub queue_depth_max: u64,
    /// Queue depth observed by the most recent driver drain (a gauge, not a counter). Zero on
    /// single-engine metrics and before the first drain; set by `ClusterService::metrics`.
    pub queue_depth_last_drain: u64,
    /// Operations currently buffered (one per edge, by coalescing).
    pub pending_ops: usize,
    /// Completed flushes (= the current epoch).
    pub flushes: u64,
    /// Logical operations applied across all flushes (after coalescing).
    pub ops_applied: u64,
    /// Updates that rode the Theorem-1.5 batch fast paths (including promoted replacement
    /// edges).
    pub fast_path_ops: u64,
    /// Updates applied through the per-edge fallback (cycle-closing insertions).
    pub fallback_ops: u64,
    /// Reserve edges promoted into the MSF by deletion batches.
    pub edges_promoted: u64,
    /// Replacement candidates the forest backend examined while repairing deleted tree
    /// edges (scan backend: reserve entries visited; HDT backend: candidates gathered at the
    /// levels a search touched). The head-to-head work metric of
    /// `DynSldOptions::msf_backend` — both backends produce identical results while scanning
    /// very different candidate counts.
    pub replacement_edges_scanned: u64,
    /// Non-tree edges the HDT forest backend moved one level up (always zero on the scan
    /// backend). Promotions are the amortization currency of the level structure: each one
    /// pays for a candidate examination that later searches no longer repeat.
    pub level_promotions: u64,
    /// Replacement searches the forest backend ran (one per tree-edge deletion, plus one per
    /// insertion-eviction on the HDT backend, which replays evictions through the search).
    pub replacement_searches: u64,
    /// Candidates the Kruskal pass of the deletion batches sorted (scan backend: the lightest
    /// reserve edge per pair of cut pieces; HDT backend: one per successful search). Work
    /// that grows with the pieces a batch cuts, not with the reserve edges it scans.
    pub replacement_candidates: u64,
    /// Dendrogram parent-pointer changes since construction (sum of the paper's `c` over all
    /// updates), read from [`dynsld::UpdateStats`].
    pub total_pointer_changes: u64,
    /// Wall-clock time spent inside [`flush`](crate::ClusteringEngine::flush).
    pub total_flush_time: Duration,
    /// The slowest single flush.
    pub max_flush_time: Duration,
    /// Snapshot flat-clustering cache hits across all published snapshots.
    pub snapshot_cache_hits: u64,
    /// Snapshot flat-clustering cache misses (= clusterings actually computed).
    pub snapshot_cache_misses: u64,
    /// Full snapshots handed to sync requests (`ReadHandle::sync_from`): first syncs plus
    /// ring-ageout fallbacks. Zero on single-engine metrics (serving is a service-level
    /// concept); set by `ClusterService::metrics`.
    pub snapshots_served: u64,
    /// Sync requests answered with a delta chain instead of a full snapshot — the numerator
    /// of [`Metrics::delta_hit_share`].
    pub deltas_served: u64,
    /// Encoded delta payload bytes shipped by wire front ends
    /// (`ReadHandle::record_served_bytes`). Zero for purely in-process subscribers.
    pub delta_bytes_out: u64,
    /// Syncs that asked for a delta but got a full snapshot because the requested revision
    /// had aged out of the delta ring — a subset of
    /// [`snapshots_served`](Self::snapshots_served). A rising rate means the ring
    /// (`ServiceBuilder::delta_ring`) is undersized for how far subscribers fall behind.
    pub full_fallbacks: u64,
    /// Shard-flush panics the service caught with `catch_unwind` — injected or genuine. Zero
    /// on single-engine metrics (isolation is a service-level concept); set by
    /// `ClusterService::metrics`.
    pub shard_panics_caught: u64,
    /// Shards the service has quarantined after a torn flush panic (a lifetime count of
    /// quarantine events, not a gauge of currently quarantined shards).
    pub shards_quarantined: u64,
    /// Quarantined shards rebuilt from their log (`ClusterService::recover_shard`).
    pub shard_recoveries: u64,
    /// Wire exchanges retried by a `WireSubscriber` after a failed attempt. Zero on
    /// service-side metrics — the counter lives in the subscriber; wire clients fold their
    /// `WireStats` into a `Metrics` value and [`merge`](Metrics::merge) it in.
    pub wire_retries: u64,
    /// Wire operations that hit a read/write deadline: server-side request-read timeouts
    /// (408s) counted by the service, plus any client-side timeouts merged in from
    /// subscriber `WireStats`.
    pub wire_timeouts: u64,
    /// Reads and syncs served from a view with at least one quarantined (stale) shard.
    pub stale_reads_served: u64,
    /// Records acknowledged into the write-ahead log. Zero on single-engine metrics and on
    /// services built without `ServiceBuilder::durable`; set by `ClusterService::metrics`.
    pub wal_records_appended: u64,
    /// Bytes written to WAL segments (frames plus segment headers).
    pub wal_bytes_written: u64,
    /// Checkpoints written durably (temp-file + fsync + rename completed).
    pub checkpoints_written: u64,
    /// Torn WAL tails truncated during recovery — each one is a crash caught mid-append
    /// whose partial record was discarded instead of failing the open.
    pub torn_tails_truncated: u64,
    /// Crash recoveries completed at build time (checkpoint restored and/or WAL tail
    /// replayed). At most 1 per service instance; summed across merges.
    pub recoveries_completed: u64,
}

impl Metrics {
    /// Merges per-shard metrics into one cross-shard aggregate: every counter is summed,
    /// except `max_flush_time` and the queue-depth gauges (`queue_depth_max`,
    /// `queue_depth_last_drain`), which keep the maximum (the slowest single flush anywhere
    /// is still the slowest single flush of the aggregate, and the deepest queue anywhere is
    /// still the deepest queue — summing either would fabricate a value nothing observed).
    ///
    /// The merge is associative with [`Metrics::default`] as the identity, so shard counters
    /// can be aggregated incrementally or hierarchically in any grouping.
    pub fn merge(parts: &[Metrics]) -> Metrics {
        let mut out = Metrics::default();
        for m in parts {
            out.events_submitted += m.events_submitted;
            out.events_annihilated += m.events_annihilated;
            out.events_collapsed += m.events_collapsed;
            out.events_routed_spill += m.events_routed_spill;
            out.edge_inserts_routed += m.edge_inserts_routed;
            out.edge_inserts_cut += m.edge_inserts_cut;
            out.vertices_assigned += m.vertices_assigned;
            out.events_enqueued += m.events_enqueued;
            out.events_compacted_in_queue += m.events_compacted_in_queue;
            out.queue_block_waits += m.queue_block_waits;
            out.queue_full_rejections += m.queue_full_rejections;
            out.queue_depth_max = out.queue_depth_max.max(m.queue_depth_max);
            out.queue_depth_last_drain = out.queue_depth_last_drain.max(m.queue_depth_last_drain);
            out.pending_ops += m.pending_ops;
            out.flushes += m.flushes;
            out.ops_applied += m.ops_applied;
            out.fast_path_ops += m.fast_path_ops;
            out.fallback_ops += m.fallback_ops;
            out.edges_promoted += m.edges_promoted;
            out.replacement_edges_scanned += m.replacement_edges_scanned;
            out.level_promotions += m.level_promotions;
            out.replacement_searches += m.replacement_searches;
            out.replacement_candidates += m.replacement_candidates;
            out.total_pointer_changes += m.total_pointer_changes;
            out.total_flush_time += m.total_flush_time;
            out.max_flush_time = out.max_flush_time.max(m.max_flush_time);
            out.snapshot_cache_hits += m.snapshot_cache_hits;
            out.snapshot_cache_misses += m.snapshot_cache_misses;
            out.snapshots_served += m.snapshots_served;
            out.deltas_served += m.deltas_served;
            out.delta_bytes_out += m.delta_bytes_out;
            out.full_fallbacks += m.full_fallbacks;
            out.shard_panics_caught += m.shard_panics_caught;
            out.shards_quarantined += m.shards_quarantined;
            out.shard_recoveries += m.shard_recoveries;
            out.wire_retries += m.wire_retries;
            out.wire_timeouts += m.wire_timeouts;
            out.stale_reads_served += m.stale_reads_served;
            out.wal_records_appended += m.wal_records_appended;
            out.wal_bytes_written += m.wal_bytes_written;
            out.checkpoints_written += m.checkpoints_written;
            out.torn_tails_truncated += m.torn_tails_truncated;
            out.recoveries_completed += m.recoveries_completed;
        }
        out
    }

    /// Events removed by coalescing before ever touching the structures.
    pub fn events_saved(&self) -> u64 {
        self.events_annihilated + self.events_collapsed
    }

    /// Fraction of submitted events that coalescing absorbed (0 when nothing was submitted).
    pub fn coalescing_ratio(&self) -> f64 {
        if self.events_submitted == 0 {
            0.0
        } else {
            self.events_saved() as f64 / self.events_submitted as f64
        }
    }

    /// Fraction of submitted events the router sent to the spill shard (0 when nothing was
    /// submitted, and always 0 for single-engine metrics). High shares mean the partitioner
    /// is splitting endpoint pairs apart and the spill shard is becoming the bottleneck — the
    /// measurable baseline for the ROADMAP's locality-aware partitioning work.
    pub fn spill_routing_share(&self) -> f64 {
        if self.events_submitted == 0 {
            0.0
        } else {
            self.events_routed_spill as f64 / self.events_submitted as f64
        }
    }

    /// Fraction of routed *insert* events whose edge landed on the spill shard (0 when no
    /// insert was routed) — the streaming-partitioning *edge-cut* metric: each cut edge
    /// counts once, however many re-weights or deletes later address it. Compare with
    /// [`spill_routing_share`](Self::spill_routing_share), which weighs edges by their event
    /// traffic. The `partitioner_sweep` bench reports both per partitioner.
    pub fn edge_cut_share(&self) -> f64 {
        if self.edge_inserts_routed == 0 {
            0.0
        } else {
            self.edge_inserts_cut as f64 / self.edge_inserts_routed as f64
        }
    }

    /// Fraction of applied operations that rode a batch fast path.
    pub fn fast_path_ratio(&self) -> f64 {
        let total = self.fast_path_ops + self.fallback_ops;
        if total == 0 {
            0.0
        } else {
            self.fast_path_ops as f64 / total as f64
        }
    }

    /// Applied operations per second of flush time (0 before the first flush).
    pub fn ops_per_second(&self) -> f64 {
        let secs = self.total_flush_time.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.ops_applied as f64 / secs
        }
    }

    /// Mean flush latency (zero before the first flush).
    pub fn mean_flush_time(&self) -> Duration {
        if self.flushes == 0 {
            Duration::ZERO
        } else {
            self.total_flush_time / u32::try_from(self.flushes).unwrap_or(u32::MAX)
        }
    }

    /// Snapshot cache hit rate (0 when no snapshot query ran).
    pub fn snapshot_cache_hit_rate(&self) -> f64 {
        let total = self.snapshot_cache_hits + self.snapshot_cache_misses;
        if total == 0 {
            0.0
        } else {
            self.snapshot_cache_hits as f64 / total as f64
        }
    }

    /// Fraction of sync requests answered with a delta chain instead of a full snapshot (0
    /// when nothing was synced). The steady-state health metric of the delta serving tier: a
    /// share near 1.0 means subscribers keep up and reads cost what *changed*; a falling
    /// share (rising [`full_fallbacks`](Self::full_fallbacks)) means the delta ring is
    /// undersized.
    pub fn delta_hit_share(&self) -> f64 {
        let total = self.deltas_served + self.snapshots_served;
        if total == 0 {
            0.0
        } else {
            self.deltas_served as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_ratios_handle_zero_denominators() {
        let m = Metrics::default();
        assert_eq!(m.coalescing_ratio(), 0.0);
        assert_eq!(m.spill_routing_share(), 0.0);
        assert_eq!(m.edge_cut_share(), 0.0);
        assert_eq!(m.fast_path_ratio(), 0.0);
        assert_eq!(m.ops_per_second(), 0.0);
        assert_eq!(m.snapshot_cache_hit_rate(), 0.0);
        assert_eq!(m.mean_flush_time(), Duration::ZERO);
    }

    /// A fully populated, shard-distinct sample so that every field participates in the
    /// merge checks below.
    fn sample(k: u64) -> Metrics {
        Metrics {
            events_submitted: 10 + k,
            events_annihilated: 2 * k,
            events_collapsed: 3 + k,
            events_routed_spill: 5 * k,
            edge_inserts_routed: 20 + 2 * k,
            edge_inserts_cut: 4 + k,
            vertices_assigned: 8 * k,
            events_enqueued: 11 + k,
            events_compacted_in_queue: 2 + k,
            queue_block_waits: 6 * k,
            queue_full_rejections: 1 + 2 * k,
            queue_depth_max: 30 + 7 * k,
            queue_depth_last_drain: 3 + 5 * k,
            pending_ops: 1 + k as usize,
            flushes: 4 + k,
            ops_applied: 100 * (k + 1),
            fast_path_ops: 75 + k,
            fallback_ops: 25 + k,
            edges_promoted: 7 * k,
            replacement_edges_scanned: 200 + 9 * k,
            level_promotions: 6 + 3 * k,
            replacement_searches: 40 + k,
            replacement_candidates: 15 + 2 * k,
            total_pointer_changes: 1000 + k,
            total_flush_time: Duration::from_millis(100 * (k + 1)),
            max_flush_time: Duration::from_millis(40 + 13 * k),
            snapshot_cache_hits: 9 + k,
            snapshot_cache_misses: 1 + k,
            snapshots_served: 12 + k,
            deltas_served: 50 + 3 * k,
            delta_bytes_out: 1024 * (k + 1),
            full_fallbacks: 2 + k,
            shard_panics_caught: 1 + k,
            shards_quarantined: 2 * k,
            shard_recoveries: k,
            wire_retries: 3 + 2 * k,
            wire_timeouts: 4 * k,
            stale_reads_served: 5 + k,
            wal_records_appended: 60 + 4 * k,
            wal_bytes_written: 2048 * (k + 1),
            checkpoints_written: 3 + k,
            torn_tails_truncated: k,
            recoveries_completed: 1 + k,
        }
    }

    #[test]
    fn merge_sums_counters_and_keeps_flush_latency_maxima() {
        let merged = Metrics::merge(&[sample(0), sample(1), sample(2)]);
        assert_eq!(merged.events_submitted, 10 + 11 + 12);
        assert_eq!(merged.events_annihilated, 2 + 4);
        assert_eq!(merged.events_collapsed, 3 + 4 + 5);
        assert_eq!(merged.events_routed_spill, 5 + 10);
        assert_eq!(merged.edge_inserts_routed, 20 + 22 + 24);
        assert_eq!(merged.edge_inserts_cut, 4 + 5 + 6);
        assert_eq!(merged.vertices_assigned, 8 + 16);
        assert_eq!(merged.events_enqueued, 11 + 12 + 13);
        assert_eq!(merged.events_compacted_in_queue, 2 + 3 + 4);
        assert_eq!(merged.queue_block_waits, 6 + 12);
        assert_eq!(merged.queue_full_rejections, 1 + 3 + 5);
        // Depth gauges keep the maximum across shards — NOT a sum.
        assert_eq!(merged.queue_depth_max, 30 + 14);
        assert_eq!(merged.queue_depth_last_drain, 3 + 10);
        assert_eq!(merged.pending_ops, 1 + 2 + 3);
        assert_eq!(merged.flushes, 4 + 5 + 6);
        assert_eq!(merged.ops_applied, 100 + 200 + 300);
        assert_eq!(merged.fast_path_ops, 75 + 76 + 77);
        assert_eq!(merged.fallback_ops, 25 + 26 + 27);
        assert_eq!(merged.edges_promoted, 7 + 14);
        // The forest-backend work counters are plain sums across shards.
        assert_eq!(merged.replacement_edges_scanned, 200 + 209 + 218);
        assert_eq!(merged.level_promotions, 6 + 9 + 12);
        assert_eq!(merged.replacement_searches, 40 + 41 + 42);
        assert_eq!(merged.replacement_candidates, 15 + 17 + 19);
        assert_eq!(merged.total_pointer_changes, 1000 + 1001 + 1002);
        // Total time sums, the slowest single flush is kept — NOT summed.
        assert_eq!(merged.total_flush_time, Duration::from_millis(600));
        assert_eq!(merged.max_flush_time, Duration::from_millis(66));
        assert_eq!(merged.snapshot_cache_hits, 9 + 10 + 11);
        assert_eq!(merged.snapshot_cache_misses, 1 + 2 + 3);
        // The serving-tier counters sum like every other counter (no max-kept convention).
        assert_eq!(merged.snapshots_served, 12 + 13 + 14);
        assert_eq!(merged.deltas_served, 50 + 53 + 56);
        assert_eq!(merged.delta_bytes_out, 1024 + 2048 + 3072);
        assert_eq!(merged.full_fallbacks, 2 + 3 + 4);
        // Fault-tolerance counters are plain sums too.
        assert_eq!(merged.shard_panics_caught, 1 + 2 + 3);
        assert_eq!(merged.shards_quarantined, 2 + 4);
        assert_eq!(merged.shard_recoveries, 1 + 2);
        assert_eq!(merged.wire_retries, 3 + 5 + 7);
        assert_eq!(merged.wire_timeouts, 4 + 8);
        assert_eq!(merged.stale_reads_served, 5 + 6 + 7);
        // Durability counters are plain sums (one WAL per service, but merging services —
        // or a service with subscriber-side metrics — must not lose any of them).
        assert_eq!(merged.wal_records_appended, 60 + 64 + 68);
        assert_eq!(merged.wal_bytes_written, 2048 + 4096 + 6144);
        assert_eq!(merged.checkpoints_written, 3 + 4 + 5);
        assert_eq!(merged.torn_tails_truncated, 1 + 2);
        assert_eq!(merged.recoveries_completed, 1 + 2 + 3);
    }

    #[test]
    fn merge_is_associative_with_default_identity() {
        let (a, b, c) = (sample(3), sample(5), sample(8));
        // (a ⊔ b) ⊔ c == a ⊔ (b ⊔ c)
        let left = Metrics::merge(&[Metrics::merge(&[a.clone(), b.clone()]), c.clone()]);
        let right = Metrics::merge(&[a.clone(), Metrics::merge(&[b.clone(), c.clone()])]);
        assert_eq!(left, right);
        // Grouping one-by-one (a fold) agrees with the flat merge.
        let flat = Metrics::merge(&[a.clone(), b.clone(), c.clone()]);
        assert_eq!(left, flat);
        // Default is the identity on both sides.
        assert_eq!(Metrics::merge(&[Metrics::default(), a.clone()]), a);
        assert_eq!(Metrics::merge(&[a.clone(), Metrics::default()]), a);
        assert_eq!(Metrics::merge(&[]), Metrics::default());
    }

    #[test]
    fn derived_ratios_compute() {
        let m = Metrics {
            events_submitted: 10,
            events_annihilated: 2,
            events_collapsed: 3,
            events_routed_spill: 4,
            edge_inserts_routed: 8,
            edge_inserts_cut: 2,
            ops_applied: 100,
            fast_path_ops: 75,
            fallback_ops: 25,
            flushes: 4,
            total_flush_time: Duration::from_secs(2),
            snapshot_cache_hits: 9,
            snapshot_cache_misses: 1,
            snapshots_served: 5,
            deltas_served: 15,
            full_fallbacks: 2,
            ..Metrics::default()
        };
        assert_eq!(m.events_saved(), 5);
        assert!((m.coalescing_ratio() - 0.5).abs() < 1e-12);
        assert!((m.spill_routing_share() - 0.4).abs() < 1e-12);
        assert!((m.edge_cut_share() - 0.25).abs() < 1e-12);
        assert!((m.fast_path_ratio() - 0.75).abs() < 1e-12);
        assert!((m.ops_per_second() - 50.0).abs() < 1e-9);
        assert_eq!(m.mean_flush_time(), Duration::from_millis(500));
        assert!((m.snapshot_cache_hit_rate() - 0.9).abs() < 1e-12);
        assert!((m.delta_hit_share() - 0.75).abs() < 1e-12);
        assert_eq!(Metrics::default().delta_hit_share(), 0.0);
    }
}
