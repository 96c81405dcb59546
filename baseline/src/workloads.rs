//! The seven workloads: frozen sizing and seeded stream generation.
//!
//! Graph sizes, windows, batch sizes, shard and thread counts are the workload definitions and
//! never change with the run length. Only the number of timed events does: it is
//! `events_per_second x --seconds` (split evenly over the rounds of an untraced run), where
//! `events_per_second` was calibrated once on the 2-core reference host so the timed sections
//! take about `--seconds` there. A fixed event count (not a wall-clock stop) keeps the
//! exact-count metrics, memory growth and the final state identical from run to run.

use dynsld_forest::workload::{GraphUpdate, GraphWorkloadBuilder};
use dynsld_forest::VertexId;

/// What one closed-loop iteration does after the batch is published.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// submit -> pump -> flush on the harness thread.
    Inline,
    /// `Inline`, then one reader op: snapshot + cold `num_clusters` + 4 `same_cluster`.
    InlineRead,
    /// One producer thread submitting per event into a 64-slot queue; the driver parked in
    /// `run_until_closed` with `EveryNOps(512)`.
    Pipeline,
    /// `Inline` on a durable service, then `WireSubscriber::sync` over loopback and one mirror
    /// query; afterwards the service is dropped un-closed and rebuilt from its directory.
    DurableWire,
}

#[derive(Clone, Copy, Debug)]
pub enum StreamKind {
    /// `sliding_window_stream` over random distinct edges; the window fill is the preload.
    Sliding { window: usize },
    /// `churn_stream` towards `target` live edges; the first `preload` events are the preload.
    Churn { target: usize, preload: usize },
    /// Harness-generated sliding window whose weights grow with arrival index, so the evicted
    /// (oldest) edge is always among the lightest and hence an MSF tree edge.
    Aging { window: usize },
    /// `community_stream`; the first `preload` events are the preload.
    Community {
        communities: usize,
        cross: f64,
        target: usize,
        preload: usize,
    },
}

pub struct Plan {
    pub name: &'static str,
    pub n: usize,
    pub stream: StreamKind,
    /// Events per closed-loop iteration (per publish).
    pub batch: usize,
    pub shards: usize,
    pub threads: usize,
    /// `GreedyPartitioner` instead of the default `HashPartitioner`.
    pub greedy: bool,
    pub mode: Mode,
    /// Timed events per second of `--seconds` (frozen calibration, see module docs).
    pub events_per_second: usize,
    /// Share of the timed events the traced run and each ladder rung replay, sized so the
    /// whole traced run also takes about `--seconds`.
    pub traced_share: f64,
}

pub const PLANS: &[Plan] = &[
    Plan {
        name: "sparse_trickle",
        n: 20_000,
        stream: StreamKind::Sliding { window: 8_000 },
        batch: 1,
        shards: 1,
        threads: 1,
        greedy: false,
        mode: Mode::Inline,
        events_per_second: 9_700,
        traced_share: 0.25,
    },
    Plan {
        name: "sparse_bulk",
        n: 20_000,
        stream: StreamKind::Sliding { window: 8_000 },
        batch: 4_096,
        shards: 1,
        threads: 1,
        greedy: false,
        mode: Mode::Inline,
        events_per_second: 290_000,
        traced_share: 0.10,
    },
    Plan {
        name: "trickle_read",
        n: 20_000,
        stream: StreamKind::Sliding { window: 8_000 },
        batch: 1,
        shards: 1,
        threads: 1,
        greedy: false,
        mode: Mode::InlineRead,
        events_per_second: 825,
        traced_share: 0.25,
    },
    Plan {
        name: "giant_churn",
        n: 20_000,
        stream: StreamKind::Churn {
            target: 40_000,
            preload: 60_000,
        },
        batch: 256,
        shards: 2,
        threads: 2,
        greedy: false,
        mode: Mode::Inline,
        events_per_second: 3_900,
        traced_share: 0.06,
    },
    Plan {
        name: "aging_dense",
        n: 4_000,
        stream: StreamKind::Aging { window: 200_000 },
        batch: 64,
        shards: 1,
        threads: 1,
        greedy: false,
        mode: Mode::Inline,
        events_per_second: 1_000,
        traced_share: 0.12,
    },
    Plan {
        name: "queue_handoff",
        n: 20_000,
        stream: StreamKind::Sliding { window: 8_000 },
        batch: 512,
        shards: 1,
        threads: 1,
        greedy: false,
        mode: Mode::Pipeline,
        events_per_second: 205_000,
        traced_share: 0.10,
    },
    Plan {
        name: "durable_wire",
        n: 4_096,
        stream: StreamKind::Community {
            communities: 64,
            cross: 0.10,
            target: 8_192,
            preload: 32_768,
        },
        batch: 8,
        shards: 2,
        threads: 2,
        greedy: true,
        mode: Mode::DurableWire,
        events_per_second: 3_200,
        traced_share: 0.20,
    },
];

pub fn plan(name: &str) -> Option<&'static Plan> {
    PLANS.iter().find(|p| p.name == name)
}

/// One generated input: an untimed preload, the timed events, and a short tail the traced run
/// replays in small batches to exercise the serving tier.
pub struct Stream {
    pub preload: Vec<GraphUpdate>,
    pub timed: Vec<GraphUpdate>,
    pub tail: Vec<GraphUpdate>,
}

/// Events the traced run's serving-tier rung replays after the timed section.
pub const TAIL_EVENTS: usize = 512;

impl Plan {
    /// Timed events for a run of `seconds`, rounded up to whole batches.
    pub fn timed_events(&self, seconds: f64) -> usize {
        let events = (self.events_per_second as f64 * seconds).ceil() as usize;
        events.div_ceil(self.batch).max(1) * self.batch
    }

    /// The same seed gives the same stream.
    pub fn generate(&self, seed: u64, timed_events: usize) -> Stream {
        let after_preload = timed_events + TAIL_EVENTS;
        let (mut events, preload) = match self.stream {
            StreamKind::Sliding { window } => {
                let edges = window + after_preload.div_ceil(2);
                let events =
                    GraphWorkloadBuilder::new(self.n).sliding_window_stream(edges, window, seed);
                (events, window)
            }
            StreamKind::Churn { target, preload } => {
                let events = GraphWorkloadBuilder::new(self.n).churn_stream(
                    target,
                    preload + after_preload,
                    seed,
                );
                (events, preload)
            }
            StreamKind::Aging { window } => (
                aging_stream(self.n, window, after_preload.div_ceil(2), seed),
                window,
            ),
            StreamKind::Community {
                communities,
                cross,
                target,
                preload,
            } => {
                let events = GraphWorkloadBuilder::new(self.n)
                    .community_stream(communities, cross, target, preload + after_preload, seed)
                    .updates;
                (events, preload)
            }
        };
        assert!(
            events.len() >= preload + after_preload,
            "{}: generator produced {} events, need {}",
            self.name,
            events.len(),
            preload + after_preload
        );
        events.truncate(preload + after_preload);
        let tail = events.split_off(preload + timed_events);
        let timed = events.split_off(preload);
        Stream {
            preload: events,
            timed,
            tail,
        }
    }
}

/// SplitMix64: the harness's own generator for the one stream the workspace does not provide.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// `window` distinct random edges, then `evictions` pairs of (delete the oldest live edge,
/// insert a new distinct edge). Edge `i` weighs `i + jitter` with jitter in `[0, 32)`: weights
/// grow with arrival index, so the oldest live edge is within 32 positions of the lightest —
/// an MSF tree edge in all but a vanishing share of evictions — and the replacement search
/// runs across a dense cut every time.
fn aging_stream(n: usize, window: usize, evictions: usize, seed: u64) -> Vec<GraphUpdate> {
    let mut rng = SplitMix(seed ^ 0xA61E_D0DE);
    let mut seen = std::collections::HashSet::new();
    let mut edges: Vec<(VertexId, VertexId, f64)> = Vec::with_capacity(window + evictions);
    while edges.len() < window + evictions {
        let (a, b) = (rng.below(n as u64) as u32, rng.below(n as u64) as u32);
        if a == b || !seen.insert((a.min(b), a.max(b))) {
            continue;
        }
        let weight = edges.len() as f64 + 32.0 * rng.unit();
        edges.push((VertexId(a), VertexId(b), weight));
    }
    let insert = |&(u, v, weight): &(VertexId, VertexId, f64)| GraphUpdate::Insert { u, v, weight };
    let mut stream: Vec<GraphUpdate> = edges[..window].iter().map(insert).collect();
    for (old, new) in edges.iter().zip(&edges[window..]) {
        stream.push(GraphUpdate::Delete { u: old.0, v: old.1 });
        stream.push(insert(new));
    }
    stream
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::LiveGraph;

    #[test]
    fn every_stream_is_seeded_valid_and_sized() {
        for plan in PLANS {
            let timed = plan.timed_events(0.05);
            assert_eq!(timed % plan.batch, 0);
            let a = plan.generate(3, timed);
            let b = plan.generate(3, timed);
            assert_eq!(a.timed, b.timed, "{}: same seed, same stream", plan.name);
            assert_ne!(a.timed, plan.generate(4, timed).timed, "{}", plan.name);
            assert_eq!((a.timed.len(), a.tail.len()), (timed, TAIL_EVENTS));
            let mut live = LiveGraph::new(plan.n);
            for part in [&a.preload, &a.timed, &a.tail] {
                live.apply_all(part);
            }
            assert_eq!(live.invalid, 0, "{}: no operation may fail", plan.name);
        }
    }
}
