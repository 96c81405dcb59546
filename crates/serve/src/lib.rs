//! # dynsld-serve — the delta serving tier
//!
//! The engine publishes an immutable merged view per flush and keeps a bounded ring of
//! [`SnapshotDelta`](dynsld_engine::SnapshotDelta)s describing each publish step. This crate
//! is the read-side consumer of that protocol, at two distances:
//!
//! - **In process**: a [`Subscriber`] wraps a [`ReadHandle`] and keeps a local [`Mirror`] —
//!   a replica of the published per-shard exports — up to date via
//!   [`ReadHandle::sync_from`]. A caught-up subscriber pays nothing; a slightly-behind one
//!   replays a patch proportional to what changed; only a subscriber whose revision aged
//!   out of the delta ring pulls the full view again.
//! - **Over the wire**: a [`DeltaServer`] exposes the same protocol HTTP-shaped over a local
//!   TCP socket (hand-rolled framing — the build is offline), and a [`WireSubscriber`]
//!   drives it with `If-None-Match`/`ETag` cache validators (ETag = the published epoch
//!   vector) so a caught-up poll is a no-body `304`.
//!
//! Replay is exact: applying the delta chain `r → now` onto a mirror taken at revision `r`
//! reproduces the served view bit for bit — dendrogram records, canonical cluster labels,
//! and member lists — which the `delta_serving` proptests pin across shard counts, flush
//! policies, and partitioners.
//!
//! ```
//! use dynsld_engine::{FlushPolicy, GraphUpdate, ServiceBuilder};
//! use dynsld_forest::VertexId;
//! use dynsld_serve::{Subscriber, SyncOutcome};
//!
//! let service = ServiceBuilder::new()
//!     .vertices(4)
//!     .flush_policy(FlushPolicy::Manual)
//!     .delta_ring(32)
//!     .build()
//!     .unwrap();
//! let ingest = service.ingest_handle();
//! let mut subscriber = Subscriber::new(service.read_handle());
//! let mut driver = service.into_driver();
//!
//! subscriber.sync(); // initial full pull
//! ingest
//!     .submit(GraphUpdate::Insert { u: VertexId(0), v: VertexId(1), weight: 1.0 })
//!     .unwrap();
//! driver.pump().unwrap();
//! driver.flush().unwrap();
//!
//! let report = subscriber.sync(); // one publish behind: a delta, not a full snapshot
//! assert!(matches!(report.outcome, SyncOutcome::Patched { .. }));
//! assert_eq!(subscriber.view().num_clusters(1.5), 3); // {0,1} merged below 1.5
//! ```

#![warn(missing_docs)]

pub mod codec;
pub mod json;
pub mod mirror;
pub mod wire;

pub use codec::{CodecError, SnapshotParts, WireMessage};
pub use mirror::{Mirror, MirrorError};
pub use wire::{DeltaServer, ServerOptions, WireConfig, WireError, WireStats, WireSubscriber};

use dynsld_engine::{Patch, ReadHandle, SyncResponse};
use dynsld_telemetry::Telemetry;
use std::time::Instant;

/// Why a sync came back as a full snapshot instead of a delta.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RefreshReason {
    /// First sync: the subscriber had no mirror yet.
    Initial,
    /// The subscriber's revision aged out of the server's delta ring.
    AgedOut,
}

/// How a sync advanced the subscriber's mirror.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SyncOutcome {
    /// Already at the published revision; nothing transferred.
    Unchanged,
    /// A delta chain was replayed onto the mirror.
    Patched {
        /// Number of publish steps in the chain.
        deltas: usize,
        /// Total changed dendrogram records across the chain.
        changes: usize,
    },
    /// The mirror was (re)built from a full snapshot.
    Refreshed {
        /// Why a full snapshot was needed.
        reason: RefreshReason,
    },
}

/// The result of one sync: what happened, and where the mirror now stands.
#[derive(Clone, Debug)]
pub struct SyncReport {
    /// How the mirror advanced.
    pub outcome: SyncOutcome,
    /// The mirror's revision after the sync.
    pub revision: u64,
    /// The mirror's epoch vector after the sync.
    pub epochs: Vec<u64>,
}

/// What a sync brought a mirror that was behind: a patch chain anchored at the mirror's
/// revision, or a whole view. Both transports fold it the same way.
enum Received {
    Patch(Patch),
    View(Mirror),
}

impl Received {
    /// Folds this payload into `slot`, a subscriber's mirror — a patch replays onto it, a view
    /// replaces it ([`RefreshReason::Initial`] when there was none) — and reports how the
    /// mirror advanced. A patch needs a mirror: the caller has one whenever it asked for a
    /// delta.
    fn fold_into(self, slot: &mut Option<Mirror>) -> Result<SyncReport, MirrorError> {
        let outcome = match self {
            Received::Patch(patch) => {
                slot.as_mut()
                    .expect("a patch has a mirror to replay onto")
                    .apply(&patch)?;
                SyncOutcome::Patched {
                    deltas: patch.deltas.len(),
                    changes: patch.num_changes(),
                }
            }
            Received::View(mirror) => SyncOutcome::Refreshed {
                reason: match slot.replace(mirror) {
                    Some(_) => RefreshReason::AgedOut,
                    None => RefreshReason::Initial,
                },
            },
        };
        let mirror = slot.as_ref().expect("folded into a mirror");
        Ok(SyncReport {
            outcome,
            revision: mirror.revision(),
            epochs: mirror.epochs().to_vec(),
        })
    }
}

/// An in-process subscriber: a [`Mirror`] kept in sync with a service through its
/// [`ReadHandle`], no sockets involved. The cheapest way to hold a stable queryable replica
/// while the write path keeps flushing.
pub struct Subscriber {
    read: ReadHandle,
    telemetry: Telemetry,
    mirror: Option<Mirror>,
}

impl Subscriber {
    /// A subscriber over `read`, with telemetry disabled.
    pub fn new(read: ReadHandle) -> Subscriber {
        Subscriber::with_telemetry(read, Telemetry::disabled())
    }

    /// A subscriber that records `serve.delta_ns` per sync into `telemetry`.
    pub fn with_telemetry(read: ReadHandle, telemetry: Telemetry) -> Subscriber {
        Subscriber {
            read,
            telemetry,
            mirror: None,
        }
    }

    /// Brings the mirror up to date and reports how.
    pub fn sync(&mut self) -> SyncReport {
        let started = self.telemetry.is_enabled().then(Instant::now);
        let since = self.mirror.as_ref().map(Mirror::revision);
        let report = match self.read.sync_from(since) {
            SyncResponse::Unchanged { revision, epochs } => SyncReport {
                outcome: SyncOutcome::Unchanged,
                revision,
                epochs,
            },
            SyncResponse::Delta(patch) => Received::Patch(patch)
                .fold_into(&mut self.mirror)
                .expect("sync_from patches are anchored at the mirror's revision"),
            SyncResponse::Full(snapshot) => Received::View(Mirror::from_snapshot(&snapshot))
                .fold_into(&mut self.mirror)
                .expect("a view replaces the mirror"),
        };
        if let Some(started) = started {
            self.telemetry
                .record_duration("serve.delta_ns", started.elapsed());
        }
        report
    }

    /// The replica, syncing first if this subscriber has never synced.
    pub fn view(&mut self) -> &Mirror {
        if self.mirror.is_none() {
            self.sync();
        }
        self.mirror.as_ref().expect("sync installs a mirror")
    }

    /// The replica, if at least one sync has happened.
    pub fn mirror(&self) -> Option<&Mirror> {
        self.mirror.as_ref()
    }

    /// The mirror's revision, if any.
    pub fn revision(&self) -> Option<u64> {
        self.mirror.as_ref().map(Mirror::revision)
    }

    /// The underlying read handle.
    pub fn read_handle(&self) -> &ReadHandle {
        &self.read
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynsld_engine::{FlushPolicy, GraphUpdate, ServiceBuilder};
    use dynsld_forest::VertexId;

    fn ins(a: u32, b: u32, w: f64) -> GraphUpdate {
        GraphUpdate::Insert {
            u: VertexId(a),
            v: VertexId(b),
            weight: w,
        }
    }

    #[test]
    fn subscriber_tracks_the_service_through_deltas() {
        let service = ServiceBuilder::new()
            .vertices(8)
            .shards(2)
            .flush_policy(FlushPolicy::Manual)
            .delta_ring(16)
            .build()
            .unwrap();
        let ingest = service.ingest_handle();
        let read = service.read_handle();
        let mut subscriber = Subscriber::new(read.clone());
        let mut driver = service.into_driver();

        let first = subscriber.sync();
        assert!(matches!(
            first.outcome,
            SyncOutcome::Refreshed {
                reason: RefreshReason::Initial
            }
        ));
        assert!(matches!(subscriber.sync().outcome, SyncOutcome::Unchanged));

        for (a, b, w) in [(0, 1, 1.0), (2, 3, 2.0), (1, 2, 3.0)] {
            ingest.submit(ins(a, b, w)).unwrap();
            driver.pump().unwrap();
            driver.flush().unwrap();
        }
        let report = subscriber.sync();
        assert!(matches!(
            report.outcome,
            SyncOutcome::Patched { deltas: 3, .. }
        ));

        // The replica answers exactly like the published view.
        let published = read.snapshot();
        let mirror = subscriber.view();
        assert_eq!(mirror.revision(), published.revision());
        assert_eq!(mirror.epochs(), published.epochs());
        for tau in [0.5, 1.5, 2.5, 3.5, f64::INFINITY] {
            let a = mirror.flat_clustering(tau);
            let b = published.flat_clustering(tau);
            assert_eq!(a.labels, b.labels);
            assert_eq!(a.clusters, b.clusters);
        }
        for (mirror_shard, shard) in mirror.shards().iter().zip(published.shard_snapshots()) {
            assert_eq!(mirror_shard, shard.dendrogram());
        }
    }

    #[test]
    fn subscriber_survives_ring_ageout_with_a_full_refresh() {
        let service = ServiceBuilder::new()
            .vertices(8)
            .flush_policy(FlushPolicy::Manual)
            .delta_ring(1)
            .build()
            .unwrap();
        let ingest = service.ingest_handle();
        let mut subscriber = Subscriber::new(service.read_handle());
        let mut driver = service.into_driver();

        subscriber.sync();
        for (a, b, w) in [(0, 1, 1.0), (2, 3, 2.0), (4, 5, 3.0)] {
            ingest.submit(ins(a, b, w)).unwrap();
            driver.pump().unwrap();
            driver.flush().unwrap();
        }
        let report = subscriber.sync();
        assert!(matches!(
            report.outcome,
            SyncOutcome::Refreshed {
                reason: RefreshReason::AgedOut
            }
        ));
        assert_eq!(report.revision, 3);
        assert_eq!(subscriber.view().num_clusters(10.0), 5);
    }
}
