//! Flush orchestration: every shard flush runs under `catch_unwind`, a torn shard is
//! quarantined instead of failing the service, and each state change is republished as one
//! merged view (plus its delta).

use super::*;
use crate::engine::{EngineError, FlushReport};
use crate::faults::InjectedFault;
use crate::snapshot::EngineSnapshot;
use rayon::prelude::*;
use std::panic::AssertUnwindSafe;
use std::time::Instant;

/// One shard flush under `catch_unwind`, with the retry-once policy already applied.
struct CaughtFlush {
    /// Panics caught on the way: 0, 1 (torn, or an entry panic that was retried), or 2 (the
    /// retry panicked too).
    panics: u64,
    /// `Ok`: the flush ran to completion (successfully or with a typed error). `Err`: the
    /// engine is torn; the message of the panic that tore it.
    outcome: Result<Result<FlushReport, EngineError>, String>,
}

/// Runs one engine flush with panic isolation. An injected entry-mode panic
/// ([`InjectedFault::at_entry`]) provably fires before any buffered work is consumed, so it
/// is retried once against the identical buffer; every other panic is treated as tearing the
/// engine.
///
/// `AssertUnwindSafe` is sound here because a torn engine is never observed again: the
/// caller quarantines it, after which the service neither submits to it nor flushes it until
/// [`ClusterService::recover_shard`] replaces it wholesale.
fn flush_catching(engine: &mut ClusteringEngine) -> CaughtFlush {
    let attempt = |engine: &mut ClusteringEngine| {
        std::panic::catch_unwind(AssertUnwindSafe(|| engine.flush()))
    };
    let payload = match attempt(engine) {
        Ok(result) => {
            return CaughtFlush {
                panics: 0,
                outcome: Ok(result),
            }
        }
        Err(payload) => payload,
    };
    let (message, retriable) = if let Some(fault) = payload.downcast_ref::<InjectedFault>() {
        (fault.to_string(), fault.at_entry)
    } else if let Some(s) = payload.downcast_ref::<&'static str>() {
        ((*s).to_string(), false)
    } else if let Some(s) = payload.downcast_ref::<String>() {
        (s.clone(), false)
    } else {
        ("non-string panic payload".to_string(), false)
    };
    if retriable {
        if let Ok(result) = attempt(engine) {
            return CaughtFlush {
                panics: 1,
                outcome: Ok(result),
            };
        }
        return CaughtFlush {
            panics: 2,
            outcome: Err(message),
        };
    }
    CaughtFlush {
        panics: 1,
        outcome: Err(message),
    }
}

impl ClusterService {
    /// Rebuilds the cached merged view iff some shard published a new state since the last
    /// rebuild. Keeping the same [`ServiceSnapshot`] across no-op flushes and pure reads lets
    /// repeated queries at one epoch vector share one merged-clustering cache.
    ///
    /// When the delta ring is enabled, the publish step also diffs the outgoing view against
    /// the new one and retains the [`SnapshotDelta`] — pushed *before* the new view becomes
    /// visible, so any reader that observes the new revision can find its delta in the ring
    /// (until it ages out).
    pub(super) fn refresh_published(&mut self) {
        let old = self.shared.published();
        let same_epochs = old
            .shard_snapshots()
            .iter()
            .map(EngineSnapshot::epoch)
            .eq(self.engines.iter().map(ClusteringEngine::epoch));
        // Health transitions republish even at an unchanged epoch vector: a quarantine must
        // make the staleness flag visible to readers, and a recovery whose rebuilt epoch
        // happens to collide with the stale one must still replace the served export.
        if same_epochs && old.shard_health() == self.health.as_slice() {
            return;
        }
        let new = self.merged_view(old.revision() + 1);
        if self.shared.deltas_enabled() {
            let started = Instant::now();
            let delta = SnapshotDelta::between(&old, &new);
            self.shared.push_delta(Arc::new(delta));
            if self.telemetry.is_enabled() {
                self.telemetry
                    .record_duration("service.delta_build_ns", started.elapsed());
            }
        }
        self.shared.publish(new);
    }

    /// The merged view over the engines' currently published states, tagged `revision`.
    pub(super) fn merged_view(&self, revision: u64) -> ServiceSnapshot {
        ServiceSnapshot::merge(
            self.engines
                .iter()
                .map(ClusteringEngine::snapshot)
                .collect(),
            revision,
            self.health.clone(),
        )
    }

    /// Books one shard's caught flush (`None`: the shard was already quarantined and nothing
    /// ran). A torn engine is quarantined, turning the shard's contribution into a no-op
    /// report at its last published epoch instead of an error — the service keeps flushing
    /// its other shards and serving reads. A successful flush leaves the shard healthy with
    /// nothing pending, which is the one point where its log may retake its image (see
    /// [`ShardLog`]).
    ///
    /// [`ShardLog`]: super::recovery::ShardLog
    fn resolve_flush_outcome(
        &mut self,
        idx: usize,
        caught: Option<CaughtFlush>,
    ) -> Result<FlushReport, ServiceError> {
        let Some(caught) = caught else {
            return Ok(FlushReport::noop(self.engines[idx].epoch()));
        };
        self.panics_caught += caught.panics;
        match caught.outcome {
            Ok(result) => {
                if result.is_ok() {
                    // An injected flush panic only fires on a non-empty flush, whose events
                    // were logged after the last fold — so a quarantined shard's suffix is
                    // never empty and `RecoveryReport::events_replayed > 0` keeps holding
                    // for every torn-flush recovery.
                    self.logs[idx].fold_if_due(&self.engines[idx]);
                }
                result.map_err(|e| ServiceError::from_engine(self.id_of(idx), e))
            }
            Err(panic) => {
                self.health[idx] = ShardHealth::Quarantined { panic };
                self.quarantines += 1;
                Ok(FlushReport::noop(self.engines[idx].epoch()))
            }
        }
    }

    /// Flushes one shard's pending buffer, advancing its epoch (no-op when empty or
    /// quarantined), and republishes.
    pub(super) fn flush_shard_direct(&mut self, id: ShardId) -> Result<FlushReport, ServiceError> {
        let idx = self.index_of(id);
        let caught =
            (!self.health[idx].is_quarantined()).then(|| flush_catching(&mut self.engines[idx]));
        let result = self.resolve_flush_outcome(idx, caught);
        // Refresh even on failure: the engine may have published before erroring, and served
        // views must track whatever per-shard states actually exist.
        self.refresh_published();
        result
    }

    /// Flushes every shard's pending buffer and reports what each did, in shard order (routed
    /// shards first, spill shard last). Shards with nothing pending contribute a no-op report.
    ///
    /// With [`ServiceBuilder::threads`] ≥ 2 the shard flushes run *concurrently* on the
    /// fork-join pool, started heaviest first: by pending operations, most first, ties by
    /// shard index (Graham's longest-processing-time rule, so the largest buffer — usually the
    /// spill shard's — is not the one left to start last). The engines are independent by
    /// construction, and the per-shard [`FlushReport`]s are joined back in shard order, so the
    /// returned report (and the merged view published afterwards) is identical to a
    /// sequential flush. On failure the error names the lowest-indexed failing shard; in
    /// concurrent mode every shard is still flushed, while `threads(1)` preserves the
    /// historical sequential contract of stopping at the first failing shard.
    pub(crate) fn flush_direct(&mut self) -> Result<ServiceFlushReport, ServiceError> {
        let started = Instant::now();
        // Gather one caught flush per shard (`None` for a quarantined one). A panicking shard
        // is caught *inside* its own task, so one torn engine never unwinds through (or
        // cancels) its siblings.
        let caught: Vec<Option<CaughtFlush>> = if self.threads() <= 1 || self.engines.len() <= 1 {
            // Sequential mode stops at the first typed error (the `threads(1)` contract).
            let mut caught = Vec::with_capacity(self.engines.len());
            for (engine, health) in self.engines.iter_mut().zip(&self.health) {
                let flushed = (!health.is_quarantined()).then(|| flush_catching(engine));
                let failed = matches!(
                    flushed,
                    Some(CaughtFlush {
                        outcome: Ok(Err(_)),
                        ..
                    })
                );
                caught.push(flushed);
                if failed {
                    break;
                }
            }
            caught
        } else {
            // Scoped fan-out over the fork-join pool, heaviest shard first: the pool starts the
            // leading tasks first. Every borrowed `&mut` engine is disjoint, and each result
            // lands back in its shard's slot.
            let mut order: Vec<(usize, &mut ClusteringEngine, bool)> = self
                .engines
                .iter_mut()
                .zip(&self.health)
                .enumerate()
                .map(|(idx, (engine, health))| (idx, engine, health.is_quarantined()))
                .collect();
            order.sort_by_key(|(idx, engine, _)| (std::cmp::Reverse(engine.pending_ops()), *idx));
            let flushed: Vec<(usize, Option<CaughtFlush>)> = order
                .into_par_iter()
                .map(|(idx, engine, quarantined)| {
                    (idx, (!quarantined).then(|| flush_catching(engine)))
                })
                .collect();
            let mut caught: Vec<Option<CaughtFlush>> = (0..flushed.len()).map(|_| None).collect();
            for (idx, flush) in flushed {
                caught[idx] = flush;
            }
            caught
        };
        let mut reports = Vec::with_capacity(caught.len());
        let mut failure = None;
        for (idx, caught) in caught.into_iter().enumerate() {
            let id = self.id_of(idx);
            match self.resolve_flush_outcome(idx, caught) {
                Ok(report) => reports.push((id, report)),
                Err(e) => failure = failure.or(Some(e)),
            }
        }
        // Refresh even on failure: shards flushed before (or besides) the failing one have
        // already published new states, and served views must reflect them.
        self.refresh_published();
        let wall_time = started.elapsed();
        if self.telemetry.is_enabled() {
            self.telemetry
                .record_duration("service.flush_wall_ns", wall_time);
        }
        match failure {
            Some(e) => Err(e),
            None => Ok(ServiceFlushReport {
                reports,
                shard_event_loads: self.shard_event_loads(),
                wall_time,
                shard_health: self.shard_health(),
            }),
        }
    }
}
