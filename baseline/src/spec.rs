//! The benchmark's contract as data: workload names with the reason each exists, the twelve
//! end-to-end metrics with their bounds, and the per-layer metrics with the end-to-end metric
//! each is expected to move. `--list`, `--compare`, `BENCHMARK.json` and the README tables are
//! all views of these tables.

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric: what a user of the service sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the base value the metric may worsen by before `--compare` fails. `--compare`
    /// judges two documents made from the same seeds, so only the host's noise is between them.
    pub bound: f64,
    /// Absolute slack added on top of `bound`, in `unit`, so tiny values do not flap.
    pub floor: f64,
    /// The bound `BENCHMARK.json` declares, for the metrics it can declare: those every workload
    /// reports and that are never 0. The benchmark driver judges medians over ten *different*
    /// seeds, has no absolute floor, and wants a bound of three times the interquartile spread
    /// of those ten values, which also holds the seed-to-seed variation of the random graphs.
    pub driver_bound: Option<f64>,
    /// Workloads that report it; empty means all.
    pub workloads: &'static [&'static str],
    pub definition: &'static str,
}

impl EndToEnd {
    pub fn applies_to(&self, workload: &str) -> bool {
        self.workloads.is_empty() || self.workloads.contains(&workload)
    }
}

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.10,
        floor: 0.25,
        driver_bound: Some(0.25),
        workloads: &[],
        definition: "stream generation + service build + untimed preload; median of the run's own set-up and at least four more made after it",
    },
    EndToEnd {
        name: "events_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.10,
        floor: 0.0,
        driver_bound: Some(0.25),
        workloads: &[],
        definition: "events submitted in the timed section / its wall time",
    },
    EndToEnd {
        name: "publish_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.10,
        floor: 2.0,
        driver_bound: Some(0.25),
        workloads: &[],
        definition:
            "median closed-loop iteration: submit of a batch -> flush() returned (published); \
                     on queue_handoff, whose producer never waits for a publish, the mean interval \
                     between EveryNOps(512) publishes",
    },
    EndToEnd {
        name: "publish_p99_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.15,
        floor: 0.0,
        driver_bound: None,
        workloads: &["sparse_trickle", "durable_wire"],
        definition: "p99 of the same iteration (workloads with thousands of iterations only)",
    },
    EndToEnd {
        name: "read_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.10,
        floor: 0.0,
        driver_bound: None,
        workloads: &["trickle_read", "durable_wire"],
        definition:
            "median reader op (trickle_read: snapshot + cold num_clusters + 4 same_cluster; \
                     durable_wire: Mirror::num_clusters after a patch)",
    },
    EndToEnd {
        name: "converge_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.10,
        floor: 0.0,
        driver_bound: None,
        workloads: &["durable_wire"],
        definition:
            "submit of a batch -> WireSubscriber::sync() returned at the published revision",
    },
    EndToEnd {
        name: "converge_p99_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.15,
        floor: 0.0,
        driver_bound: None,
        workloads: &["durable_wire"],
        definition: "p99 of the same",
    },
    EndToEnd {
        name: "recovery_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.10,
        floor: 0.02,
        driver_bound: None,
        workloads: &["durable_wire"],
        definition:
            "ServiceBuilder..durable(dir).build() on the crashed directory until the recovered \
                     revision is readable; median of five crash-and-rebuild rounds",
    },
    EndToEnd {
        name: "wal_bytes_per_event",
        unit: "B",
        better: Better::Lower,
        bound: 0.02,
        floor: 0.0,
        driver_bound: None,
        workloads: &["durable_wire"],
        definition: "Metrics::wal_bytes_written / wal_records_appended",
    },
    EndToEnd {
        name: "delta_bytes_per_publish",
        unit: "B",
        better: Better::Lower,
        bound: 0.02,
        floor: 0.0,
        driver_bound: None,
        workloads: &["durable_wire"],
        definition: "Metrics::delta_bytes_out / deltas_served",
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.10,
        floor: 4.0,
        driver_bound: Some(0.10),
        workloads: &[],
        definition: "VmHWM of the workload's process once the run is checked and dropped",
    },
    EndToEnd {
        name: "failed_ops_share",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.0,
        floor: 0.0,
        driver_bound: None,
        workloads: &[],
        definition:
            "(rejected events + failed syncs/reads + oracle mismatches) / operations attempted",
    },
];

/// One per-layer metric (traced run only). `name` is `<crate>.<metric>`.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The end-to-end metric and workload it is expected to move (written before measuring).
    pub moves: &'static str,
}

const fn pl(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

use Better::{Higher, Lower};

const TRICKLE: &str = "events_per_s, publish_p50_us on sparse_trickle, trickle_read";
const BULK: &str = "events_per_s on sparse_bulk";
const GIANT: &str = "events_per_s, publish_p50_us on giant_churn";
const AGING: &str = "events_per_s on aging_dense";
const READ: &str = "read_p50_us on trickle_read";
const HANDOFF: &str = "events_per_s on queue_handoff";
const PUBLISH_DW: &str = "publish_p50_us, publish_p99_us, converge_p99_us on durable_wire";
const CONVERGE_DW: &str = "converge_p50_us on durable_wire";
const RECOVERY_DW: &str = "recovery_s on durable_wire";
const RSS: &str = "peak_rss_mib on sparse_bulk, queue_handoff";
const CONTEXT: &str = "none (workload property; must not move)";

pub const PER_LAYER: &[PerLayer] = &[
    // engine: harness spans around each public call
    pl("engine.submit_ns_per_event", "ns", Lower, TRICKLE),
    pl("engine.pump_ns_per_event", "ns", Lower, TRICKLE),
    pl("engine.flush_us_per_flush", "us", Lower, TRICKLE),
    pl("engine.snapshot_ns", "ns", Lower, READ),
    pl("engine.flat_clustering_cold_us", "us", Lower, READ),
    pl("engine.flat_clustering_warm_ns", "ns", Lower, READ),
    pl("engine.same_cluster_ns", "ns", Lower, READ),
    pl("engine.sync_from_us", "us", Lower, CONVERGE_DW),
    pl("engine.submit_p99_us", "us", Lower, HANDOFF),
    // engine: from the reports the public calls return
    pl("engine.coalesce_ns_per_event", "ns", Lower, TRICKLE),
    pl("engine.classify_ns_per_event", "ns", Lower, BULK),
    pl("engine.replacement_ns_per_event", "ns", Lower, AGING),
    pl(
        "engine.apply_ns_per_event",
        "ns",
        Lower,
        "events_per_s on sparse_bulk, giant_churn",
    ),
    pl("engine.export_ns_per_event", "ns", Lower, TRICKLE),
    pl("engine.publish_ns_per_event", "ns", Lower, TRICKLE),
    pl("engine.service_overhead_us_per_flush", "us", Lower, TRICKLE),
    pl("engine.flush_overlap", "ratio", Higher, GIANT),
    pl("engine.coalesce_ratio", "ratio", Lower, BULK),
    pl("engine.fast_path_share", "ratio", Higher, BULK),
    pl("engine.spill_routing_share", "ratio", Lower, GIANT),
    pl("engine.event_load_ratio", "ratio", Lower, GIANT),
    pl(
        "engine.queue_block_waits_per_kevent",
        "count",
        Lower,
        HANDOFF,
    ),
    pl("engine.queue_depth_max", "count", Lower, HANDOFF),
    pl(
        "engine.delta_changes_per_publish",
        "count",
        Lower,
        CONVERGE_DW,
    ),
    pl("engine.rss_growth_bytes_per_event", "B", Lower, RSS),
    // engine: ladder rungs
    pl("engine.direct_flush_us_per_flush", "us", Lower, TRICKLE),
    pl("engine.recover_shard_ms", "ms", Lower, RECOVERY_DW),
    // msf: ladder on DynamicGraphClustering with the same stream
    pl("msf.update_ns_per_event", "ns", Lower, AGING),
    pl("msf.insert_p50_ns", "ns", Lower, BULK),
    pl("msf.delete_nontree_p50_ns", "ns", Lower, GIANT),
    pl("msf.delete_tree_p50_us", "us", Lower, AGING),
    pl("msf.self_ns_per_event", "ns", Lower, AGING),
    pl("msf.tree_change_share", "ratio", Lower, CONTEXT),
    pl("msf.crossing_tests_per_search", "count", Lower, AGING),
    pl(
        "msf.replacement_searches_per_kevent",
        "count",
        Lower,
        CONTEXT,
    ),
    pl("msf.level_promotions_per_kevent", "count", Lower, AGING),
    pl("msf.hdt_update_ns_per_event", "ns", Lower, AGING),
    pl("msf.hdt_crossing_tests_per_search", "count", Lower, AGING),
    // core: ladder on a bare DynSld fed the forest ops the msf rung emitted
    pl("core.insert_p50_ns", "ns", Lower, GIANT),
    pl("core.insert_p99_ns", "ns", Lower, GIANT),
    pl("core.delete_p50_ns", "ns", Lower, GIANT),
    pl("core.delete_p99_ns", "ns", Lower, GIANT),
    pl("core.height", "count", Lower, CONTEXT),
    pl("core.spine_nodes_per_update", "count", Lower, GIANT),
    pl("core.pointer_changes_per_update", "count", Lower, GIANT),
    pl("core.tree_queries_per_update", "count", Lower, GIANT),
    pl("core.batch_insert_ns_per_edge", "ns", Lower, BULK),
    pl("core.batch_delete_ns_per_edge", "ns", Lower, BULK),
    pl("core.export_full_us", "us", Lower, TRICKLE),
    pl("core.export_incremental_us", "us", Lower, TRICKLE),
    pl("core.export_splice_share", "ratio", Higher, TRICKLE),
    pl(
        "core.static_rebuild_ms",
        "ms",
        Lower,
        "none (the paper's comparator)",
    ),
    pl("core.flat_clustering_us", "us", Lower, READ),
    pl("core.threshold_connected_ns", "ns", Lower, READ),
    // dyntree: ladder replaying the link/cut sequence
    pl("dyntree.lct_link_cut_ns", "ns", Lower, GIANT),
    pl("dyntree.lct_path_max_ns", "ns", Lower, GIANT),
    pl("dyntree.lct_connected_ns", "ns", Lower, GIANT),
    pl("dyntree.ett_link_cut_ns", "ns", Lower, AGING),
    pl("dyntree.ett_connected_ns", "ns", Lower, AGING),
    pl("dyntree.ett_component_size_ns", "ns", Lower, AGING),
    // durable: through the engine API
    pl(
        "durable.pump_overhead_ns_per_event",
        "ns",
        Lower,
        PUBLISH_DW,
    ),
    pl(
        "durable.wal_bytes_per_event",
        "B",
        Lower,
        "wal_bytes_per_event on durable_wire",
    ),
    pl("durable.checkpoint_ms", "ms", Lower, PUBLISH_DW),
    pl("durable.checkpoints_written", "count", Lower, PUBLISH_DW),
    pl(
        "durable.restore_from_checkpoint_ms",
        "ms",
        Lower,
        RECOVERY_DW,
    ),
    pl(
        "durable.wal_replay_events_per_s",
        "1/s",
        Higher,
        RECOVERY_DW,
    ),
    // serve: codec, mirror and wire
    pl("serve.encode_patch_us", "us", Lower, CONVERGE_DW),
    pl(
        "serve.encode_snapshot_ms",
        "ms",
        Lower,
        "setup_s on durable_wire",
    ),
    pl("serve.decode_patch_us", "us", Lower, CONVERGE_DW),
    pl("serve.mirror_apply_us", "us", Lower, CONVERGE_DW),
    pl(
        "serve.mirror_from_snapshot_ms",
        "ms",
        Lower,
        "setup_s on durable_wire",
    ),
    pl("serve.wire_sync_us", "us", Lower, CONVERGE_DW),
    pl("serve.wire_unchanged_us", "us", Lower, CONVERGE_DW),
    pl("serve.wire_head_us", "us", Lower, CONVERGE_DW),
    pl("serve.inproc_sync_us", "us", Lower, CONVERGE_DW),
    pl(
        "serve.delta_bytes_per_publish",
        "B",
        Lower,
        "delta_bytes_per_publish on durable_wire",
    ),
    pl(
        "serve.snapshot_bytes",
        "B",
        Lower,
        "setup_s on durable_wire",
    ),
    pl("serve.delta_hit_share", "ratio", Higher, CONVERGE_DW),
    pl(
        "serve.wire_retries",
        "count",
        Lower,
        "converge_p99_us on durable_wire",
    ),
    pl(
        "serve.wire_timeouts",
        "count",
        Lower,
        "converge_p99_us on durable_wire",
    ),
    pl(
        "serve.mirror_query_cold_us",
        "us",
        Lower,
        "read_p50_us on durable_wire",
    ),
    // the rest
    pl(
        "forest.gen_events_per_s",
        "1/s",
        Higher,
        "setup_s on sparse_bulk, queue_handoff",
    ),
    pl(
        "parallel.static_sld_speedup",
        "ratio",
        Higher,
        "none (the one outside-callable pool path)",
    ),
    pl(
        "telemetry.traced_overhead_share",
        "ratio",
        Lower,
        "none (cost of observing)",
    ),
    pl(
        "telemetry.spans_dropped",
        "count",
        Lower,
        "none (trace completeness)",
    ),
];

/// One named workload. The names are the contract; the sizing lives in `workloads.rs`.
pub struct WorkloadInfo {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[WorkloadInfo] = &[
    WorkloadInfo {
        name: "sparse_trickle",
        why: "publish after every event on a sub-critical graph: the fixed per-flush cost does the work, the algorithm ~none",
    },
    WorkloadInfo {
        name: "sparse_bulk",
        why: "same stream flushed every 4096 events: per-flush cost amortised away, coalescer and batch paths do the work",
    },
    WorkloadInfo {
        name: "trickle_read",
        why: "sparse_trickle plus one cold reader op per publish: reads beside writes, a gain that costs readers shows here",
    },
    WorkloadInfo {
        name: "giant_churn",
        why: "churn on a 40k-edge giant component, 2 shards + spill on 2 threads: the paper's O(h) spine work and shard fan-out",
    },
    WorkloadInfo {
        name: "aging_dense",
        why: "dense aging window where every eviction deletes an MSF tree edge: replacement search decides scan vs HDT",
    },
    WorkloadInfo {
        name: "queue_handoff",
        why: "sparse_bulk stream through the two-thread pipeline, queue capacity 64: the mutex/condvar handoff does the work",
    },
    WorkloadInfo {
        name: "durable_wire",
        why: "everything on: WAL + checkpoints + deltas + wire sync + mirror query per batch of 8, then crash recovery",
    },
];

/// The unit of a metric of either table.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|&(n, _)| n == name)
        .map(|(_, unit)| unit)
}

pub fn workload_names() -> Vec<&'static str> {
    WORKLOADS.iter().map(|w| w.name).collect()
}
