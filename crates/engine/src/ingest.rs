//! The concurrent ingest pipeline: handles in front, one driver behind.
//!
//! A [`ClusterService`] owns shard engines that only a single writer may touch, yet a serving
//! deployment has many producers and many readers. This module puts three cooperating pieces
//! around the service so that producers never wait on a flush and readers never wait on the
//! writer:
//!
//! * **[`IngestHandle`]** — the write side. Clonable, shareable across producer threads, and
//!   backed by a *bounded* MPSC submission queue so [`IngestHandle::submit`] never blocks on a
//!   flush. When the queue is full the configured [`Backpressure`] decides what happens:
//!   [`Block`](Backpressure::Block) waits for the driver to drain, [`Fail`](Backpressure::Fail)
//!   returns [`IngestError::QueueFull`] immediately, and [`Coalesce`](Backpressure::Coalesce)
//!   compacts redundant queued events in place through the engine coalescer's merge table
//!   (re-weight chains, insert⊕delete annihilation) to make room before falling back to
//!   blocking. [`IngestHandle::submit_deadline`] is `Block` with a deadline.
//! * **[`FlusherDriver`]** — the single writer. It owns the [`ClusterService`] (and with it the
//!   shard engines), drains the queue, routes each event through the service's
//!   [`Partitioner`](crate::Partitioner), applies the configured [`FlushPolicy`], and fans
//!   dirty-shard flushes out over the work-stealing pool. Run it inline
//!   ([`pump`](FlusherDriver::pump) per tick) or park it on a dedicated thread
//!   ([`run_until_closed`](FlusherDriver::run_until_closed)).
//! * **[`ReadHandle`]** — the read side. Clonable and `&self` all the way down: every call to
//!   [`ReadHandle::snapshot`] returns the most recently *published*
//!   [`ServiceSnapshot`](crate::ServiceSnapshot), which is epoch-pinned — it keeps answering
//!   for its epoch vector no matter how far the driver advances afterwards.
//!
//! Because validation happens when the driver routes an event into its home shard (not at
//! submit time — the queue decouples producers from the shard state), invalid events do not
//! bounce back to the submitting call: they are collected per drain in
//! [`DrainReport::rejected`] and the rest of the batch proceeds. The driver replays the queue
//! in submission order into the service's routing + coalescing + flush machinery, so the
//! published clusterings are bit-identical to a single engine fed the same stream sequentially
//! (pinned by `tests/tests/ingest_pipeline.rs`).

use crate::coalesce::compact;
use crate::delta::SyncResponse;
use crate::faults::FaultPlan;
use crate::partition::ShardId;
use crate::service::{
    ClusterService, RecoveryReport, ServiceError, ServiceFlushReport, ServiceShared, ShardHealth,
};
use crate::FlushPolicy;
use dynsld_forest::workload::GraphUpdate;
use dynsld_forest::VertexId;
use dynsld_telemetry::Telemetry;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// What a full submission queue does to the submitting producer.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum Backpressure {
    /// Wait until the driver drains the queue and a slot frees up. The default: producers
    /// slow to the driver's pace and no event is ever dropped.
    #[default]
    Block,
    /// Return [`IngestError::QueueFull`] immediately, handing the event back to the caller.
    /// For producers that would rather shed or reroute load than stall.
    Fail,
    /// Compact the queued events in place through the engine coalescer's merge table (see
    /// the [`coalesce`](crate::coalesce) module) — re-weight chains collapse to the last
    /// weight, a queued insert annihilates with a later delete, delete + re-insert fuses to a
    /// re-weight — and enqueue into the freed slot. Falls back to blocking when the queue
    /// holds no redundancy to absorb. Best for bursty streams that rewrite the same edges
    /// repeatedly.
    ///
    /// Compaction preserves the net effect of every *valid* stream exactly. Events that are
    /// invalid on every graph state — a self-loop, which never merges, a double delete, an
    /// insert over a queued insert — stay in place, and later events of their edge never fold
    /// across them, so the driver rejects them exactly as it would without compaction. For a stream
    /// that is invalid against the actual shard state (e.g. inserting an edge that is
    /// already applied), a merge can fuse the invalid event with a later valid one before
    /// the driver ever sees either, so which events get rejected — and hence the final
    /// state — can depend on queue occupancy at submit time. Producers that need
    /// deterministic rejection reporting for unvalidated streams should use
    /// [`Block`](Self::Block) or [`Fail`](Self::Fail).
    ///
    /// Compaction stays *assignment-consistent* with stateful partitioners
    /// ([`GreedyPartitioner`](crate::GreedyPartitioner)): merges always fold into the
    /// earlier queue slot and annihilated pairs vanish whole, so surviving events keep
    /// their relative order and every event of one edge still reaches the router — and
    /// hence one shard — together. Which shard a vertex is pinned to *can* differ from the
    /// uncompacted replay (an annihilated edge no longer introduces its endpoints), but the
    /// pin is made before the edge's first submission either way, per-shard validation
    /// stays sound, and the published clusterings are partition-independent.
    Coalesce,
}

/// Errors surfaced on the submit path of an [`IngestHandle`].
///
/// The rejected event is handed back so the producer can retry, reroute, or drop it
/// deliberately. Validation errors (unknown vertex, deleting an absent edge, …) are *not*
/// reported here — the queue decouples producers from shard state, so those surface in
/// [`DrainReport::rejected`] when the driver routes the event.
#[derive(Clone, Debug, PartialEq)]
pub enum IngestError {
    /// The queue was full and the submit was fail-fast: a handle in [`Backpressure::Fail`]
    /// mode, or any [`IngestHandle::try_submit`].
    QueueFull {
        /// The event that was not enqueued.
        event: GraphUpdate,
    },
    /// The pipeline was closed (see [`IngestHandle::close`]); no further events are accepted.
    Closed {
        /// The event that was not enqueued.
        event: GraphUpdate,
    },
    /// A bounded-wait submit ([`IngestHandle::submit_deadline`]) waited out its whole
    /// timeout without a queue slot freeing up. The producer gets its event back and can
    /// retry, reroute, or shed it — unlike [`Backpressure::Block`], it is never parked
    /// indefinitely behind a stalled driver.
    SubmitTimeout {
        /// The event that was not enqueued.
        event: GraphUpdate,
        /// The timeout that elapsed.
        timeout: Duration,
    },
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestError::QueueFull { event } => {
                write!(f, "submission queue full, event {event:?} not enqueued")
            }
            IngestError::Closed { event } => {
                write!(f, "ingest pipeline closed, event {event:?} not enqueued")
            }
            IngestError::SubmitTimeout { event, timeout } => {
                write!(
                    f,
                    "no queue slot freed within {timeout:?}, event {event:?} not enqueued"
                )
            }
        }
    }
}

impl std::error::Error for IngestError {}

/// Interior state of the bounded submission queue.
#[derive(Debug, Default)]
struct QueueState {
    buf: VecDeque<GraphUpdate>,
    closed: bool,
}

/// The bounded MPSC submission queue between [`IngestHandle`]s and the [`FlusherDriver`].
///
/// A mutex + two condvars rather than a lock-free ring: the queue is drained in whole batches
/// by a single consumer, so the lock is held for O(1) pushes and one O(len) drain — contention
/// is bounded by design, and the condvars give `Block` backpressure and the driver's idle wait
/// for free.
#[derive(Debug)]
pub(crate) struct IngestQueue {
    state: Mutex<QueueState>,
    not_full: Condvar,
    not_empty: Condvar,
    capacity: usize,
    /// Events accepted into the queue since construction.
    enqueued: AtomicU64,
    /// Events absorbed by `Backpressure::Coalesce` compaction (counted like the engine
    /// coalescer: an annihilated insert⊕delete pair counts 2, a collapse counts 1).
    compacted: AtomicU64,
    /// Submits that had to wait for a free slot (`Block` with or without a deadline, or
    /// `Coalesce` falling back).
    block_waits: AtomicU64,
    /// Submits bounced with [`IngestError::QueueFull`] (`Fail` mode).
    full_rejections: AtomicU64,
    /// Highest queue depth ever observed at enqueue time — the contention high-watermark.
    depth_watermark: AtomicU64,
    /// Depth of the most recent non-empty drain.
    last_drain_depth: AtomicU64,
    /// Submit-latency and queue-depth instrumentation; a no-op unless enabled.
    telemetry: Telemetry,
    /// Deterministic fault injection: `queue_full=` rules make `Fail`-mode submits bounce
    /// as if the queue were full, exercising producer shedding paths. A true no-op unless
    /// the service was built with an enabled [`FaultPlan`].
    faults: FaultPlan,
}

/// A point-in-time copy of the queue's counters (see the fields on [`IngestQueue`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct QueueCounters {
    pub(crate) enqueued: u64,
    pub(crate) compacted: u64,
    pub(crate) block_waits: u64,
    pub(crate) full_rejections: u64,
    pub(crate) depth_watermark: u64,
    pub(crate) last_drain_depth: u64,
}

/// How one submit is admitted when the queue is full: its [`Backpressure`] mode and, for a
/// bounded wait ([`IngestHandle::submit_deadline`]), how long it may wait for a slot.
#[derive(Copy, Clone, Debug)]
pub(crate) struct Admission(Backpressure, Option<Duration>);

impl Admission {
    /// [`Backpressure::Block`] for at most `timeout`.
    pub(crate) fn deadline(timeout: Duration) -> Admission {
        Admission(Backpressure::Block, Some(timeout))
    }
}

impl From<Backpressure> for Admission {
    fn from(backpressure: Backpressure) -> Admission {
        Admission(backpressure, None)
    }
}

/// One blocking pop by the driver.
pub(crate) enum Pop {
    /// Everything that was queued, in submission order.
    Batch(Vec<GraphUpdate>),
    /// The queue is closed and empty; the driver can retire.
    Closed,
}

impl IngestQueue {
    pub(crate) fn new(capacity: usize, telemetry: Telemetry, faults: FaultPlan) -> Self {
        debug_assert!(capacity >= 1, "builder validation enforces capacity >= 1");
        IngestQueue {
            state: Mutex::new(QueueState::default()),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
            capacity,
            enqueued: AtomicU64::new(0),
            compacted: AtomicU64::new(0),
            block_waits: AtomicU64::new(0),
            full_rejections: AtomicU64::new(0),
            depth_watermark: AtomicU64::new(0),
            last_drain_depth: AtomicU64::new(0),
            telemetry,
            faults,
        }
    }

    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    pub(crate) fn len(&self) -> usize {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .buf
            .len()
    }

    pub(crate) fn is_closed(&self) -> bool {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .closed
    }

    pub(crate) fn counters(&self) -> QueueCounters {
        QueueCounters {
            enqueued: self.enqueued.load(Ordering::Relaxed),
            compacted: self.compacted.load(Ordering::Relaxed),
            block_waits: self.block_waits.load(Ordering::Relaxed),
            full_rejections: self.full_rejections.load(Ordering::Relaxed),
            depth_watermark: self.depth_watermark.load(Ordering::Relaxed),
            last_drain_depth: self.last_drain_depth.load(Ordering::Relaxed),
        }
    }

    /// Enqueues one event. A full queue bounces a `Fail` submit, compacts the queue under
    /// `Coalesce`, and otherwise parks the producer until the driver drains — for at most the
    /// admission's timeout, if it has one ([`IngestError::SubmitTimeout`] past it). Spurious
    /// wakeups and lost slot races re-wait on the *remaining* time, so the total wait never
    /// exceeds the timeout by more than scheduling noise.
    pub(crate) fn push(
        &self,
        event: GraphUpdate,
        admission: impl Into<Admission>,
    ) -> Result<(), IngestError> {
        let Admission(backpressure, timeout) = admission.into();
        // An injected queue-full spike bounces a Fail-mode submit exactly like a genuinely
        // full queue would — same error, same counter — so producer shedding paths can be
        // exercised deterministically without racing real occupancy. Block/Coalesce submits
        // are exempt: a spike would park them with nothing to wake on.
        if backpressure == Backpressure::Fail
            && self.faults.is_enabled()
            && self.faults.queue_full_spike()
        {
            self.full_rejections.fetch_add(1, Ordering::Relaxed);
            return Err(IngestError::QueueFull { event });
        }
        let deadline = timeout.map(|timeout| (Instant::now() + timeout, timeout));
        // Clock reads are gated on telemetry so the disabled submit path stays untouched.
        let submit_start = self.telemetry.is_enabled().then(Instant::now);
        let mut block_start: Option<Instant> = None;
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        // `block_waits` counts *submits* that had to wait, not wait-loop rounds: a woken
        // producer that loses the race for the freed slot goes around the loop again but
        // must not inflate the counter a second time.
        let mut wait_counted = false;
        loop {
            if state.closed {
                return Err(IngestError::Closed { event });
            }
            state.buf.push_back(event);
            if state.buf.len() > self.capacity && backpressure == Backpressure::Coalesce {
                // Compact with the incoming event *included*, so it can merge with the
                // queued events it targets (a re-weight of a queued insert, a delete
                // annihilating one, …) instead of only freeing unrelated slots.
                let absorbed = compact(&mut state.buf);
                self.compacted.fetch_add(absorbed as u64, Ordering::Relaxed);
            }
            if state.buf.len() <= self.capacity {
                self.enqueued.fetch_add(1, Ordering::Relaxed);
                self.depth_watermark
                    .fetch_max(state.buf.len() as u64, Ordering::Relaxed);
                self.not_empty.notify_one();
                if let Some(start) = submit_start {
                    if let Some(blocked) = block_start {
                        self.telemetry
                            .record_duration("ingest.block_wait_ns", blocked.elapsed());
                    }
                    self.telemetry
                        .record_duration("ingest.submit_ns", start.elapsed());
                }
                return Ok(());
            }
            // No room, and nothing merged if compaction ran: the event is still the newest
            // entry, so take it back. (Compared by edge: a NaN weight, which the driver will
            // reject, is not equal to itself.)
            let taken_back = state.buf.pop_back();
            debug_assert_eq!(taken_back.map(|e| e.endpoints()), Some(event.endpoints()));
            if backpressure == Backpressure::Fail {
                self.full_rejections.fetch_add(1, Ordering::Relaxed);
                return Err(IngestError::QueueFull { event });
            }
            let remaining = match deadline {
                Some((at, timeout)) => match at.saturating_duration_since(Instant::now()) {
                    remaining if remaining.is_zero() => {
                        return Err(IngestError::SubmitTimeout { event, timeout });
                    }
                    remaining => Some(remaining),
                },
                None => None,
            };
            if !wait_counted {
                wait_counted = true;
                self.block_waits.fetch_add(1, Ordering::Relaxed);
            }
            if submit_start.is_some() && block_start.is_none() {
                block_start = Some(Instant::now());
            }
            state = match remaining {
                Some(remaining) => {
                    self.not_full
                        .wait_timeout(state, remaining)
                        .unwrap_or_else(PoisonError::into_inner)
                        .0
                }
                None => self
                    .not_full
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner),
            };
        }
    }

    /// Takes everything queued; a non-empty drain wakes parked producers and records its
    /// depth (the per-drain gauge plus the sampled depth histogram).
    fn take_all(&self, state: &mut QueueState) -> Vec<GraphUpdate> {
        let batch: Vec<GraphUpdate> = state.buf.drain(..).collect();
        if !batch.is_empty() {
            self.not_full.notify_all();
            self.last_drain_depth
                .store(batch.len() as u64, Ordering::Relaxed);
            self.telemetry
                .record("queue.drain_depth", batch.len() as u64);
        }
        batch
    }

    /// Drains everything queued right now without blocking (empty when idle).
    pub(crate) fn pop_all(&self) -> Vec<GraphUpdate> {
        self.take_all(&mut self.state.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// Blocks until events arrive (returning them all) or the queue is closed and empty.
    pub(crate) fn pop_wait(&self) -> Pop {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if !state.buf.is_empty() {
                return Pop::Batch(self.take_all(&mut state));
            }
            if state.closed {
                return Pop::Closed;
            }
            state = self
                .not_empty
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Closes the queue: pending events remain drainable, further submits fail, and blocked
    /// producers and the driver wake up.
    pub(crate) fn close(&self) {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        state.closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

/// The clonable write side of the ingest pipeline. See the [module docs](self).
///
/// Every clone shares the same bounded submission queue but carries its own [`Backpressure`]
/// mode ([`with_backpressure`](Self::with_backpressure)), so one producer can block while
/// another sheds load.
#[derive(Clone, Debug)]
pub struct IngestHandle {
    shared: Arc<ServiceShared>,
    backpressure: Backpressure,
}

impl IngestHandle {
    pub(crate) fn new(shared: Arc<ServiceShared>, backpressure: Backpressure) -> Self {
        IngestHandle {
            shared,
            backpressure,
        }
    }

    /// This handle's backpressure mode.
    pub fn backpressure(&self) -> Backpressure {
        self.backpressure
    }

    /// A clone of this handle with a different [`Backpressure`] mode (the shared queue is
    /// unchanged).
    pub fn with_backpressure(&self, backpressure: Backpressure) -> Self {
        IngestHandle {
            shared: Arc::clone(&self.shared),
            backpressure,
        }
    }

    /// Enqueues one event for the driver. Never blocks on a *flush* — only on a full queue,
    /// and only under [`Backpressure::Block`] (or a [`Coalesce`](Backpressure::Coalesce) that
    /// found no redundancy to absorb). Validation against shard state happens when the driver
    /// routes the event; routing-time rejections surface in [`DrainReport::rejected`].
    pub fn submit(&self, event: GraphUpdate) -> Result<(), IngestError> {
        self.shared.queue.push(event, self.backpressure)
    }

    /// Enqueues every event of a stream, stopping at the first error. Returns how many were
    /// enqueued; on error, the offending event is inside the error and everything before it
    /// stays queued.
    pub fn submit_all(
        &self,
        events: impl IntoIterator<Item = GraphUpdate>,
    ) -> Result<usize, IngestError> {
        let mut count = 0;
        for event in events {
            self.submit(event)?;
            count += 1;
        }
        Ok(count)
    }

    /// One non-blocking submit regardless of this handle's mode: enqueue if a slot is free,
    /// otherwise return [`IngestError::QueueFull`] immediately.
    pub fn try_submit(&self, event: GraphUpdate) -> Result<(), IngestError> {
        self.shared.queue.push(event, Backpressure::Fail)
    }

    /// Bounded-wait submit, regardless of this handle's mode: waits like
    /// [`Backpressure::Block`] for up to `timeout`, then returns
    /// [`IngestError::SubmitTimeout`] with the event instead of parking indefinitely
    /// behind a stalled driver. The middle ground between [`submit`](Self::submit) under
    /// `Block` (unbounded wait) and [`try_submit`](Self::try_submit) (no wait at all).
    pub fn submit_deadline(
        &self,
        event: GraphUpdate,
        timeout: Duration,
    ) -> Result<(), IngestError> {
        self.shared.queue.push(event, Admission::deadline(timeout))
    }

    /// Events currently queued (a racy snapshot — producers and the driver keep moving).
    pub fn queue_len(&self) -> usize {
        self.shared.queue.len()
    }

    /// The queue's fixed capacity ([`ServiceBuilder::queue_capacity`](crate::ServiceBuilder::queue_capacity)).
    pub fn queue_capacity(&self) -> usize {
        self.shared.queue.capacity()
    }

    /// True once the pipeline has been closed.
    pub fn is_closed(&self) -> bool {
        self.shared.queue.is_closed()
    }

    /// Closes the pipeline: already-queued events remain drainable, further submits (from any
    /// handle) fail with [`IngestError::Closed`], and a driver parked in
    /// [`FlusherDriver::run_until_closed`] drains the remainder, performs a final full flush,
    /// and returns.
    pub fn close(&self) {
        self.shared.queue.close();
    }
}

/// The clonable read side of the ingest pipeline: hands out the most recently published
/// [`ServiceSnapshot`](crate::ServiceSnapshot) without `&mut` and without ever blocking on
/// the writer. See the [module docs](self).
#[derive(Clone, Debug)]
pub struct ReadHandle {
    shared: Arc<ServiceShared>,
}

impl ReadHandle {
    pub(crate) fn new(shared: Arc<ServiceShared>) -> Self {
        ReadHandle { shared }
    }

    /// The most recently published merged view. The returned snapshot is *epoch-pinned*: it
    /// keeps answering for its epoch vector no matter how many flushes the driver performs
    /// afterwards, so a reader can hold it across arbitrarily long analyses. Queued or
    /// buffered events are not visible until the driver flushes their shard.
    ///
    /// Availability-first: with a quarantined shard in the view
    /// ([`ServiceSnapshot::is_stale`](crate::ServiceSnapshot::is_stale)) the last-known-good
    /// merged state is served anyway and
    /// [`Metrics::stale_reads_served`](crate::Metrics::stale_reads_served) is incremented.
    /// Readers that must not observe stale shards use [`Self::snapshot_strict`].
    pub fn snapshot(&self) -> crate::ServiceSnapshot {
        let snapshot = self.shared.published();
        if snapshot.is_stale() {
            self.shared
                .serve
                .stale_reads_served
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
        snapshot
    }

    /// Consistency-first read: the published view if every shard is healthy, or
    /// [`ServiceError::ShardQuarantined`] naming the first quarantined shard otherwise.
    /// Counterpart of the availability-first [`Self::snapshot`].
    pub fn snapshot_strict(&self) -> Result<crate::ServiceSnapshot, ServiceError> {
        let snapshot = self.shared.published();
        if let Some(&shard) = snapshot.stale_shards().first() {
            return Err(ServiceError::ShardQuarantined { shard });
        }
        Ok(snapshot)
    }

    /// Credits one wire-deadline expiry to
    /// [`Metrics::wire_timeouts`](crate::Metrics::wire_timeouts). Called by wire front ends
    /// (the `dynsld-serve` server) when a connection hits its read/write deadline.
    pub fn record_wire_timeout(&self) {
        self.shared
            .serve
            .wire_timeouts
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }

    /// The epoch vector of the currently published view (routed shards first, spill last).
    pub fn epochs(&self) -> Vec<u64> {
        self.shared.published().epochs()
    }

    /// The revision of the currently published view (see
    /// [`ServiceSnapshot::revision`](crate::ServiceSnapshot::revision)).
    pub fn revision(&self) -> u64 {
        self.shared.published().revision()
    }

    /// "What changed since revision `since`?" — the heart of the delta serving tier.
    ///
    /// * `since == Some(current revision)` → [`SyncResponse::Unchanged`] (wire layers turn
    ///   this into a 304-style no-body reply);
    /// * `since` still covered by the delta ring → [`SyncResponse::Delta`] with the
    ///   consecutive [`Patch`](crate::Patch) chain `since → current`;
    /// * `since == None` (first sync) or aged out of the ring → [`SyncResponse::Full`] with
    ///   the published view (the latter also counts as a
    ///   [`Metrics::full_fallbacks`](crate::Metrics::full_fallbacks)).
    ///
    /// The ring is sized by [`ServiceBuilder::delta_ring`](crate::ServiceBuilder::delta_ring).
    /// The `dynsld-serve` crate builds its `Subscriber` mirror and wire front end on exactly
    /// this call.
    pub fn sync_from(&self, since: Option<u64>) -> SyncResponse {
        self.shared.sync_from(since)
    }

    /// Credits `bytes` of encoded delta payload to
    /// [`Metrics::delta_bytes_out`](crate::Metrics::delta_bytes_out). Called by wire front
    /// ends after encoding a delta response; in-process subscribers (which ship no bytes)
    /// don't call it.
    pub fn record_served_bytes(&self, bytes: u64) {
        self.shared
            .serve
            .delta_bytes_out
            .fetch_add(bytes, std::sync::atomic::Ordering::Relaxed);
    }
}

/// What one driver drain did: how much it moved, what it rejected, and every flush it
/// performed (in execution order), exposed as a [`ServiceFlushReport`] so per-flush
/// partitioner quality ([`ServiceFlushReport::spill_routing_share`]) is observable straight
/// from the driver loop.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DrainReport {
    /// Events popped off the submission queue.
    pub events_drained: usize,
    /// Events the router/shards rejected at routing time (unknown vertex, delete of an absent
    /// edge, …). The rest of the drain proceeds; rejected events are dropped after being
    /// reported here.
    pub rejected: Vec<ServiceError>,
    /// Every flush this drain performed — [`FlushPolicy::EveryNOps`] threshold flushes,
    /// [`FlushPolicy::OnRead`] end-of-drain flushes, and the final full flush of
    /// [`FlusherDriver::run_until_closed`] — in execution order.
    pub flushes: ServiceFlushReport,
}

impl DrainReport {
    /// Logical operations applied by all flushes in this report.
    pub fn ops_applied(&self) -> usize {
        self.flushes.ops_applied()
    }

    fn absorb(&mut self, other: DrainReport) {
        self.events_drained += other.events_drained;
        self.rejected.extend(other.rejected);
        self.flushes.absorb(other.flushes);
    }
}

/// The single writer of the ingest pipeline: owns the [`ClusterService`] and is the only code
/// that touches the shard engines. See the [module docs](self) for the full design.
///
/// Drive it inline — [`pump`](Self::pump) after each production tick — or park it on a
/// dedicated thread with [`run_until_closed`](Self::run_until_closed) while producers submit
/// through [`IngestHandle`]s and readers observe through [`ReadHandle`]s.
#[derive(Debug)]
pub struct FlusherDriver {
    service: ClusterService,
}

impl FlusherDriver {
    /// Takes ownership of the service, becoming its single writer. Handles created before
    /// ([`ClusterService::ingest_handle`] / [`ClusterService::read_handle`]) stay valid — they
    /// share the queue and the published-snapshot slot, not the service value.
    pub fn new(service: ClusterService) -> Self {
        FlusherDriver { service }
    }

    /// Read access to the owned service (metrics, shard introspection, handle creation).
    pub fn service(&self) -> &ClusterService {
        &self.service
    }

    /// Releases the service back to the caller (e.g. after the pipeline is closed and
    /// drained).
    pub fn into_service(self) -> ClusterService {
        self.service
    }

    /// Drains everything queued *right now* (never blocks), routes it, and applies the flush
    /// policy: [`FlushPolicy::EveryNOps`] flushes a shard the moment its buffer reaches the
    /// threshold, [`FlushPolicy::OnRead`] ends every non-empty drain with a full flush so
    /// reads observe every drained event, and [`FlushPolicy::Manual`] only buffers (flush via
    /// [`Self::flush`]).
    pub fn pump(&mut self) -> Result<DrainReport, ServiceError> {
        let batch = self.service.shared().queue.pop_all();
        self.process(batch)
    }

    /// Parks on the queue, draining batches as they arrive, until the pipeline is
    /// [closed](IngestHandle::close) and empty; then performs one final full flush (whatever
    /// the policy) so every accepted event is published, and returns the merged report of
    /// everything it did.
    pub fn run_until_closed(&mut self) -> Result<DrainReport, ServiceError> {
        let mut total = DrainReport::default();
        loop {
            let pop = self.service.shared().queue.pop_wait();
            match pop {
                Pop::Batch(batch) => total.absorb(self.process(batch)?),
                Pop::Closed => break,
            }
        }
        let final_flush = self.service.flush_direct()?;
        total.flushes.absorb(final_flush);
        // The retiring driver leaves the durable layer at a clean cut: WAL synced and a
        // final checkpoint covering everything (no-ops on non-durable services).
        self.service.settle_durable(true)?;
        Ok(total)
    }

    /// Flushes every shard's pending buffer now (concurrently on the pool when the service
    /// has more than one flush thread) and publishes the merged view. The queue is not
    /// drained first — pair with [`pump`](Self::pump) for a drain-then-flush tick. On a
    /// durable service the flushed state is a quiescent point, so a due checkpoint is
    /// taken here.
    pub fn flush(&mut self) -> Result<ServiceFlushReport, ServiceError> {
        let report = self.service.flush_direct()?;
        self.service.settle_durable(false)?;
        Ok(report)
    }

    /// Flushes everything pending and forces a checkpoint *now*, regardless of the
    /// [`checkpoint_every_records`](crate::ServiceBuilder::checkpoint_every_records)
    /// cadence. Returns whether a checkpoint was written — `false` on a non-durable
    /// service, when no WAL records are uncovered, or when a shard is quarantined (a
    /// torn engine's state must never be captured).
    pub fn checkpoint(&mut self) -> Result<bool, ServiceError> {
        self.service.flush_direct()?;
        self.service.settle_durable(true)
    }

    /// Grows the vertex set of every shard by `k` isolated vertices, publishing the grown
    /// state immediately (readers see it; queued events referencing the new ids route cleanly
    /// on the next drain). Returns the first new id.
    pub fn add_vertices(&mut self, k: usize) -> VertexId {
        self.service.add_vertices(k)
    }

    /// Health of every shard, in shard order (see [`ClusterService::shard_health`]).
    pub fn shard_health(&self) -> Vec<(ShardId, ShardHealth)> {
        self.service.shard_health()
    }

    /// Rebuilds a quarantined shard from its log — image plus replayed suffix (see
    /// [`ClusterService::recover_shard`] for the exact semantics and the bit-identity
    /// guarantee).
    pub fn recover_shard(&mut self, id: ShardId) -> Result<RecoveryReport, ServiceError> {
        self.service.recover_shard(id)
    }

    fn process(&mut self, batch: Vec<GraphUpdate>) -> Result<DrainReport, ServiceError> {
        let telemetry = self.service.telemetry().clone();
        let _span = (!batch.is_empty() && telemetry.is_enabled()).then(|| {
            telemetry.record("driver.drain_size", batch.len() as u64);
            telemetry.span("driver.drain")
        });
        let mut report = DrainReport {
            events_drained: batch.len(),
            ..DrainReport::default()
        };
        for event in batch {
            match self.service.buffer_event(event) {
                Ok((_, Some(flush))) => report.flushes.reports.push(flush),
                Ok((_, None)) => {}
                // Routing-time rejections are per-event data, not pipeline failures: report
                // and continue. Apply errors mean a shard's structures are in trouble —
                // propagate.
                Err(e @ ServiceError::Rejected { .. }) => report.rejected.push(e),
                Err(e) => return Err(e),
            }
        }
        if self.service.flush_policy() == FlushPolicy::OnRead
            && report.events_drained > 0
            && self.service.pending_ops() > 0
        {
            let flushed = self.service.flush_direct()?;
            report.flushes.absorb(flushed);
        }
        // End-of-drain durability hooks (no-ops on non-durable services): force unsynced
        // WAL appends to disk per the fsync policy, then take a checkpoint if one is due —
        // it only fires at quiescent points, so under `Manual` it waits for an explicit
        // [`flush`](Self::flush).
        self.service.settle_durable(false)?;
        Ok(report)
    }
}

// Handles cross threads by design; the driver moves onto its flusher thread. Assert all of it
// at compile time so a future field can't silently break the pipeline.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    fn assert_send<T: Send>() {}
    assert_send_sync::<IngestHandle>();
    assert_send_sync::<ReadHandle>();
    assert_send::<FlusherDriver>();
};

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    fn ins(a: u32, b: u32, w: f64) -> GraphUpdate {
        GraphUpdate::Insert {
            u: v(a),
            v: v(b),
            weight: w,
        }
    }

    fn del(a: u32, b: u32) -> GraphUpdate {
        GraphUpdate::Delete { u: v(a), v: v(b) }
    }

    fn rew(a: u32, b: u32, w: f64) -> GraphUpdate {
        GraphUpdate::Reweight {
            u: v(a),
            v: v(b),
            weight: w,
        }
    }

    fn queued(q: &IngestQueue) -> Vec<GraphUpdate> {
        let batch = q.pop_all();
        for &e in &batch {
            q.push(e, Backpressure::Block).unwrap();
        }
        batch
    }

    #[test]
    fn fail_mode_bounces_when_full_without_blocking() {
        let q = IngestQueue::new(2, Telemetry::disabled(), FaultPlan::disabled());
        q.push(ins(0, 1, 1.0), Backpressure::Fail).unwrap();
        q.push(ins(2, 3, 1.0), Backpressure::Fail).unwrap();
        assert_eq!(
            q.push(ins(4, 5, 1.0), Backpressure::Fail),
            Err(IngestError::QueueFull {
                event: ins(4, 5, 1.0)
            })
        );
        assert_eq!(q.len(), 2);
        assert_eq!(
            q.counters().full_rejections,
            1,
            "one full rejection counted"
        );
        // Draining frees the slots.
        assert_eq!(q.pop_all().len(), 2);
        q.push(ins(4, 5, 1.0), Backpressure::Fail).unwrap();
    }

    #[test]
    fn block_mode_waits_for_the_consumer() {
        let q = Arc::new(IngestQueue::new(
            1,
            Telemetry::disabled(),
            FaultPlan::disabled(),
        ));
        q.push(ins(0, 1, 1.0), Backpressure::Block).unwrap();
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.push(ins(2, 3, 1.0), Backpressure::Block))
        };
        // Busy-wait until the producer is parked, then drain to release it.
        while q.counters().block_waits == 0 {
            std::thread::yield_now();
        }
        assert_eq!(q.pop_all(), vec![ins(0, 1, 1.0)]);
        producer.join().unwrap().unwrap();
        assert_eq!(q.pop_all(), vec![ins(2, 3, 1.0)]);
    }

    #[test]
    fn coalesce_mode_compacts_redundant_queued_events() {
        let q = IngestQueue::new(1, Telemetry::disabled(), FaultPlan::disabled());
        q.push(ins(0, 1, 1.0), Backpressure::Coalesce).unwrap();
        // Queue full; the re-weight of the *queued* insert compacts to an insert at the new
        // weight and takes the freed slot — no blocking, no consumer involved.
        q.push(rew(0, 1, 9.0), Backpressure::Coalesce).unwrap();
        assert_eq!(queued(&q), vec![ins(0, 1, 9.0)]);
        // A delete of a *queued* insert annihilates the pair: the edge never reaches a shard
        // and the queue is empty again.
        q.pop_all();
        q.push(ins(2, 3, 1.0), Backpressure::Coalesce).unwrap();
        q.push(del(2, 3), Backpressure::Coalesce).unwrap();
        assert_eq!(q.len(), 0);
        assert!(q.counters().compacted >= 3, "compaction counters advanced");
    }

    #[test]
    fn compact_preserves_net_effect_and_order() {
        let mut buf: VecDeque<GraphUpdate> = [
            ins(0, 1, 1.0),
            ins(2, 3, 2.0),
            rew(0, 1, 5.0), // rewrites the queued insert
            del(4, 5),
            ins(5, 4, 7.0), // fuses with the delete into a re-weight
            del(2, 3),      // annihilates the queued insert
            rew(6, 7, 1.0),
            rew(6, 7, 2.0), // collapses the chain
        ]
        .into_iter()
        .collect();
        let absorbed = compact(&mut buf);
        assert_eq!(
            Vec::from(buf),
            vec![ins(0, 1, 5.0), rew(4, 5, 7.0), rew(6, 7, 2.0)]
        );
        assert_eq!(absorbed, 5); // 2 (annihilation) + 1 + 1 + 1
    }

    #[test]
    fn compact_leaves_invalid_combinations_for_the_driver() {
        // Double deletes and insert-over-insert are invalid on every graph state; compaction
        // must not silently repair them.
        let mut buf: VecDeque<GraphUpdate> = [del(0, 1), del(0, 1), ins(2, 3, 1.0), rew(3, 2, 9.0)]
            .into_iter()
            .collect();
        compact(&mut buf);
        assert_eq!(Vec::from(buf), vec![del(0, 1), del(0, 1), ins(2, 3, 9.0)]);
    }

    #[test]
    fn compact_never_merges_self_loops_nor_folds_across_invalid_events() {
        // A self-loop is invalid on every state, so neither event of the pair merges; a
        // delete after a rejected insert-over-insert targets the first insert, which it must
        // not reach across the rejected one.
        let stream = [
            ins(3, 3, 1.0),
            del(3, 3),
            ins(0, 1, 1.0),
            ins(0, 1, 2.0),
            del(0, 1),
        ];
        let mut buf: VecDeque<GraphUpdate> = stream.into_iter().collect();
        assert_eq!(compact(&mut buf), 0);
        assert_eq!(Vec::from(buf), stream);
    }

    #[test]
    fn queue_full_spike_bounces_fail_mode_only() {
        // `at:1` fires on exactly the first fail-fast submit, with capacity to spare.
        let q = IngestQueue::new(
            4,
            Telemetry::disabled(),
            FaultPlan::parse("queue_full=at:1").unwrap(),
        );
        assert!(matches!(
            q.push(ins(0, 1, 1.0), Backpressure::Fail),
            Err(IngestError::QueueFull { .. })
        ));
        assert_eq!(q.counters().full_rejections, 1);
        assert_eq!(q.len(), 0, "the spiked event was not enqueued");
        // The next fail-fast submit (ordinal 2) passes; Block-mode submits are exempt even
        // while a periodic rule is armed.
        q.push(ins(0, 1, 1.0), Backpressure::Fail).unwrap();
        let every = IngestQueue::new(
            4,
            Telemetry::disabled(),
            FaultPlan::parse("queue_full=every:1").unwrap(),
        );
        every.push(ins(2, 3, 1.0), Backpressure::Block).unwrap();
        assert_eq!(every.counters().full_rejections, 0);
    }

    #[test]
    fn submit_deadline_enqueues_when_capacity_is_free() {
        let q = IngestQueue::new(2, Telemetry::disabled(), FaultPlan::disabled());
        q.push(ins(0, 1, 1.0), Admission::deadline(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(q.len(), 1);
        assert_eq!(q.counters().block_waits, 0, "no wait when a slot is free");
    }

    #[test]
    fn submit_deadline_times_out_on_a_stalled_queue() {
        // Full queue, no consumer: the bounded wait must elapse and hand the event back
        // instead of parking forever (which `Block` would).
        let q = IngestQueue::new(1, Telemetry::disabled(), FaultPlan::disabled());
        q.push(ins(0, 1, 1.0), Backpressure::Block).unwrap();
        let timeout = Duration::from_millis(20);
        let started = Instant::now();
        assert_eq!(
            q.push(ins(2, 3, 1.0), Admission::deadline(timeout)),
            Err(IngestError::SubmitTimeout {
                event: ins(2, 3, 1.0),
                timeout,
            })
        );
        assert!(started.elapsed() >= timeout, "the full timeout was waited");
        assert_eq!(q.len(), 1, "the timed-out event was not enqueued");
        assert_eq!(q.counters().block_waits, 1, "the wait was counted");
        // Draining frees the slot and the same submit succeeds within its deadline.
        assert_eq!(q.pop_all(), vec![ins(0, 1, 1.0)]);
        q.push(ins(2, 3, 1.0), Admission::deadline(timeout))
            .unwrap();
        assert_eq!(q.pop_all(), vec![ins(2, 3, 1.0)]);
    }

    #[test]
    fn submit_deadline_wakes_when_the_consumer_drains() {
        let q = Arc::new(IngestQueue::new(
            1,
            Telemetry::disabled(),
            FaultPlan::disabled(),
        ));
        q.push(ins(0, 1, 1.0), Backpressure::Block).unwrap();
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                q.push(ins(2, 3, 1.0), Admission::deadline(Duration::from_secs(30)))
            })
        };
        while q.counters().block_waits == 0 {
            std::thread::yield_now();
        }
        assert_eq!(q.pop_all(), vec![ins(0, 1, 1.0)]);
        producer.join().unwrap().unwrap();
        assert_eq!(q.pop_all(), vec![ins(2, 3, 1.0)]);
    }

    #[test]
    fn close_wakes_producers_and_consumer() {
        let q = Arc::new(IngestQueue::new(
            1,
            Telemetry::disabled(),
            FaultPlan::disabled(),
        ));
        q.push(ins(0, 1, 1.0), Backpressure::Block).unwrap();
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.push(ins(2, 3, 1.0), Backpressure::Block))
        };
        while q.counters().block_waits == 0 {
            std::thread::yield_now();
        }
        q.close();
        assert_eq!(
            producer.join().unwrap(),
            Err(IngestError::Closed {
                event: ins(2, 3, 1.0)
            })
        );
        // Already-queued events stay drainable after close; then the consumer sees Closed.
        match q.pop_wait() {
            Pop::Batch(batch) => assert_eq!(batch, vec![ins(0, 1, 1.0)]),
            Pop::Closed => panic!("queued events must survive close"),
        }
        assert!(matches!(q.pop_wait(), Pop::Closed));
        assert_eq!(
            q.push(ins(6, 7, 1.0), Backpressure::Fail),
            Err(IngestError::Closed {
                event: ins(6, 7, 1.0)
            })
        );
    }
}
