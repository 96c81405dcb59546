//! Offline, dependency-free tracing and metrics for the dynamic-SLD pipeline.
//!
//! The crate provides one handle type, [`Telemetry`], that is either **disabled** — a
//! `None` inside, so every call is a single branch and the pipeline runs exactly as if the
//! crate did not exist — or **enabled**, pointing at a shared registry that owns:
//!
//! * per-thread lock-free [`trace::ThreadBuffer`]s of span begin/end and instant events
//!   with monotonic timestamps (one shared clock anchor per registry);
//! * named log-bucketed [`histogram::Histogram`]s (p50/p90/p99/max, mergeable across
//!   threads and shards);
//! * named atomic counters.
//!
//! Spans are RAII: [`Telemetry::span`] returns a [`SpanGuard`] that records the begin event
//! immediately and the end event on drop, on the same thread (the guard is deliberately not
//! `Send`), so traces are always balanced per thread. A point-in-time
//! [`TelemetrySnapshot`] can be rendered as a human-readable table, merged-JSON, or a
//! Chrome trace-event file via [`export`].
//!
//! # Enabling
//!
//! Telemetry is off by default. Turn it on by passing an enabled handle
//! ([`Telemetry::enabled`]) to whatever records into it. Handles are cheap to clone and all
//! clones share the registry.
//!
//! ```
//! use dynsld_telemetry::Telemetry;
//!
//! let t = Telemetry::enabled();
//! {
//!     let _flush = t.span("engine.flush");
//!     t.record("engine.flush_ns", 12_345);
//! }
//! let snap = t.snapshot();
//! assert_eq!(snap.trace.total_events(), 2);
//! assert!(snap.trace.check_well_formed().is_ok());
//! ```

#![warn(missing_docs)]

pub mod export;
pub mod histogram;
pub mod trace;

pub use histogram::{Histogram, HistogramSnapshot};
pub use trace::{SpanEventKind, ThreadBuffer, ThreadTrace, TraceEvent, TraceSnapshot};

use std::cell::RefCell;
use std::collections::HashMap;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock, Weak};
use std::time::{Duration, Instant};

/// Default per-thread trace ring capacity (events). At 32 bytes per event this is ~2 MiB
/// per producer thread; overflow is counted, never blocking.
pub const DEFAULT_RING_CAPACITY: usize = 1 << 16;

/// Process-wide source of unique registry ids, used to key the thread-local buffer cache.
static NEXT_REGISTRY_ID: AtomicU64 = AtomicU64::new(1);

/// The shared state behind an enabled [`Telemetry`] handle.
struct Inner {
    /// Unique id of this registry (thread-local cache key).
    id: u64,
    /// Clock anchor: all event timestamps are nanoseconds elapsed since this instant.
    anchor: Instant,
    /// Per-thread ring capacity for buffers registered against this registry.
    ring_capacity: usize,
    /// Every thread buffer ever registered, in registration order.
    buffers: Mutex<Vec<Arc<ThreadBuffer>>>,
    /// Next dense thread id.
    next_tid: AtomicU32,
    /// Named latency histograms, created on first use.
    histograms: RwLock<HashMap<&'static str, Arc<Histogram>>>,
    /// Named monotonic counters, created on first use.
    counters: RwLock<HashMap<&'static str, Arc<AtomicU64>>>,
}

impl Inner {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.anchor.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Registers a fresh buffer for the calling thread.
    fn register_thread(&self) -> Arc<ThreadBuffer> {
        let tid = self.next_tid.fetch_add(1, Ordering::Relaxed);
        let buf = Arc::new(ThreadBuffer::new(tid, self.ring_capacity));
        self.buffers
            .lock()
            .expect("telemetry buffer list poisoned")
            .push(Arc::clone(&buf));
        buf
    }

    fn histogram(&self, name: &'static str) -> Arc<Histogram> {
        if let Some(h) = self
            .histograms
            .read()
            .expect("telemetry histograms poisoned")
            .get(name)
        {
            return Arc::clone(h);
        }
        let mut map = self
            .histograms
            .write()
            .expect("telemetry histograms poisoned");
        Arc::clone(map.entry(name).or_default())
    }

    fn counter(&self, name: &'static str) -> Arc<AtomicU64> {
        if let Some(c) = self
            .counters
            .read()
            .expect("telemetry counters poisoned")
            .get(name)
        {
            return Arc::clone(c);
        }
        let mut map = self.counters.write().expect("telemetry counters poisoned");
        Arc::clone(map.entry(name).or_default())
    }
}

/// One entry in a thread's buffer cache: `(registry id, liveness probe, buffer)`.
type BufferCacheEntry = (u64, Weak<Inner>, Arc<ThreadBuffer>);

thread_local! {
    /// Cache of this thread's buffer per live registry. Dead registries are purged
    /// opportunistically on miss.
    static THREAD_BUFFERS: RefCell<Vec<BufferCacheEntry>> = const { RefCell::new(Vec::new()) };
}

/// A cheap, clonable handle to a telemetry registry — or to nothing at all.
///
/// See the [crate docs](self) for the overall model. Every recording method on a disabled
/// handle is one branch on an `Option` and returns immediately, which is what lets the
/// pipeline keep telemetry calls inline on hot paths.
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => f.write_str("Telemetry(disabled)"),
            Some(inner) => write!(f, "Telemetry(enabled, id={})", inner.id),
        }
    }
}

impl Telemetry {
    /// The no-op handle (the default).
    pub fn disabled() -> Self {
        Telemetry { inner: None }
    }

    /// A fresh enabled registry with the default per-thread ring capacity.
    pub fn enabled() -> Self {
        Self::enabled_with_capacity(DEFAULT_RING_CAPACITY)
    }

    /// A fresh enabled registry whose per-thread trace rings hold `ring_capacity` events.
    pub fn enabled_with_capacity(ring_capacity: usize) -> Self {
        Telemetry {
            inner: Some(Arc::new(Inner {
                id: NEXT_REGISTRY_ID.fetch_add(1, Ordering::Relaxed),
                anchor: Instant::now(),
                ring_capacity: ring_capacity.max(1),
                buffers: Mutex::new(Vec::new()),
                next_tid: AtomicU32::new(0),
                histograms: RwLock::new(HashMap::new()),
                counters: RwLock::new(HashMap::new()),
            })),
        }
    }

    /// Whether this handle records anything. Gate any *measurement* work (e.g.
    /// `Instant::now()` pairs) on this so the disabled path stays free.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The calling thread's trace buffer under this registry, registering one on first use.
    fn thread_buffer(inner: &Arc<Inner>) -> Arc<ThreadBuffer> {
        THREAD_BUFFERS.with(|cache| {
            let mut cache = cache.borrow_mut();
            if let Some((_, _, buf)) = cache.iter().find(|(id, _, _)| *id == inner.id) {
                return Arc::clone(buf);
            }
            // Miss: drop entries whose registry died, then register with this one.
            cache.retain(|(_, probe, _)| probe.upgrade().is_some());
            let buf = inner.register_thread();
            cache.push((inner.id, Arc::downgrade(inner), Arc::clone(&buf)));
            buf
        })
    }

    /// Opens a named span on the calling thread; the returned guard records the end event
    /// when dropped. No-op (and allocation-free) when disabled.
    #[inline]
    pub fn span(&self, name: &'static str) -> SpanGuard {
        let state = self.inner.as_ref().map(|inner| {
            let buf = Self::thread_buffer(inner);
            buf.push(TraceEvent {
                name,
                kind: SpanEventKind::Begin,
                ts_ns: inner.now_ns(),
            });
            (Arc::clone(inner), buf, name)
        });
        SpanGuard {
            state,
            _not_send: PhantomData,
        }
    }

    /// Records an instantaneous point event on the calling thread.
    #[inline]
    pub fn instant(&self, name: &'static str) {
        if let Some(inner) = &self.inner {
            let buf = Self::thread_buffer(inner);
            buf.push(TraceEvent {
                name,
                kind: SpanEventKind::Instant,
                ts_ns: inner.now_ns(),
            });
        }
    }

    /// Records `value` into the named histogram.
    #[inline]
    pub fn record(&self, name: &'static str, value: u64) {
        if let Some(inner) = &self.inner {
            inner.histogram(name).record(value);
        }
    }

    /// Records a duration (as nanoseconds) into the named histogram.
    #[inline]
    pub fn record_duration(&self, name: &'static str, d: Duration) {
        if let Some(inner) = &self.inner {
            inner.histogram(name).record_duration(d);
        }
    }

    /// Adds `delta` to the named counter.
    #[inline]
    pub fn add(&self, name: &'static str, delta: u64) {
        if let Some(inner) = &self.inner {
            inner.counter(name).fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// A point-in-time copy of everything recorded so far. Empty when disabled.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let Some(inner) = &self.inner else {
            return TelemetrySnapshot::default();
        };
        let mut histograms: Vec<(String, HistogramSnapshot)> = inner
            .histograms
            .read()
            .expect("telemetry histograms poisoned")
            .iter()
            .map(|(name, h)| (name.to_string(), h.snapshot()))
            .collect();
        histograms.sort_by(|a, b| a.0.cmp(&b.0));
        let mut counters: Vec<(String, u64)> = inner
            .counters
            .read()
            .expect("telemetry counters poisoned")
            .iter()
            .map(|(name, c)| (name.to_string(), c.load(Ordering::Relaxed)))
            .collect();
        counters.sort_by(|a, b| a.0.cmp(&b.0));
        let trace = TraceSnapshot {
            threads: inner
                .buffers
                .lock()
                .expect("telemetry buffer list poisoned")
                .iter()
                .map(|b| ThreadTrace {
                    tid: b.tid(),
                    events: b.events(),
                    dropped: b.dropped(),
                })
                .collect(),
        };
        TelemetrySnapshot {
            histograms,
            counters,
            trace,
        }
    }
}

/// RAII guard for an open span: records the matching end event when dropped.
///
/// Deliberately **not `Send`** — a span must begin and end on the same thread so each
/// per-thread trace stays balanced (see [`TraceSnapshot::check_well_formed`]).
#[must_use = "dropping the guard immediately closes the span"]
pub struct SpanGuard {
    state: Option<(Arc<Inner>, Arc<ThreadBuffer>, &'static str)>,
    _not_send: PhantomData<*const ()>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((inner, buf, name)) = self.state.take() {
            buf.push(TraceEvent {
                name,
                kind: SpanEventKind::End,
                ts_ns: inner.now_ns(),
            });
        }
    }
}

/// Everything a registry knows, frozen: sorted histograms and counters plus the full trace.
#[derive(Clone, Debug, Default)]
pub struct TelemetrySnapshot {
    /// `(name, snapshot)` pairs, sorted by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
    /// `(name, value)` pairs, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Per-thread span/event traces.
    pub trace: TraceSnapshot,
}

impl TelemetrySnapshot {
    /// Looks up a histogram snapshot by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// Looks up a counter value by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// True when nothing at all was recorded.
    pub fn is_empty(&self) -> bool {
        self.histograms.is_empty() && self.counters.is_empty() && self.trace.total_events() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let t = Telemetry::disabled();
        assert!(!t.is_enabled());
        t.record("h", 1);
        t.add("c", 1);
        t.instant("i");
        {
            let _g = t.span("s");
        }
        let snap = t.snapshot();
        assert!(snap.is_empty());
        assert!(snap.histogram("h").is_none());
        assert!(snap.counter("c").is_none());
    }

    #[test]
    fn enabled_handle_records_and_snapshots() {
        let t = Telemetry::enabled();
        assert!(t.is_enabled());
        t.record("lat", 100);
        t.record("lat", 300);
        t.record_duration("lat", Duration::from_nanos(200));
        t.add("ops", 2);
        t.add("ops", 3);
        {
            let _outer = t.span("outer");
            let _inner = t.span("inner");
            t.instant("tick");
        }
        let snap = t.snapshot();
        let lat = snap.histogram("lat").expect("histogram exists");
        assert_eq!(lat.count, 3);
        assert_eq!(lat.min, 100);
        assert_eq!(lat.max, 300);
        assert_eq!(snap.counter("ops"), Some(5));
        assert_eq!(snap.trace.total_events(), 5);
        snap.trace.check_well_formed().expect("balanced trace");
    }

    #[test]
    fn clones_share_one_registry() {
        let t = Telemetry::enabled();
        let u = t.clone();
        t.add("shared", 1);
        u.add("shared", 1);
        assert_eq!(t.snapshot().counter("shared"), Some(2));
        assert_eq!(format!("{t:?}"), format!("{u:?}"));
    }

    #[test]
    fn distinct_registries_are_isolated_per_thread_cache() {
        // Two live registries used from the same thread must not share buffers.
        let a = Telemetry::enabled();
        let b = Telemetry::enabled();
        a.instant("only-a");
        b.instant("only-b");
        let (sa, sb) = (a.snapshot(), b.snapshot());
        assert_eq!(sa.trace.total_events(), 1);
        assert_eq!(sb.trace.total_events(), 1);
        assert_eq!(sa.trace.threads[0].events[0].name, "only-a");
        assert_eq!(sb.trace.threads[0].events[0].name, "only-b");
    }

    /// The satellite-required stress: several producer threads emitting nested spans,
    /// instants, and histogram records concurrently; the merged snapshot must be
    /// well-formed (balanced per thread, monotone timestamps) and lose nothing.
    #[test]
    fn threaded_producers_yield_well_formed_traces() {
        const THREADS: usize = 4;
        const ROUNDS: usize = 200;
        let t = Telemetry::enabled();
        let handles: Vec<_> = (0..THREADS)
            .map(|worker| {
                let t = t.clone();
                std::thread::spawn(move || {
                    for round in 0..ROUNDS {
                        let _outer = t.span("worker.round");
                        t.record("worker.value", (worker * ROUNDS + round) as u64);
                        if round % 3 == 0 {
                            let _inner = t.span("worker.inner");
                            t.instant("worker.tick");
                        }
                        t.add("worker.rounds", 1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("producer thread panicked");
        }
        let snap = t.snapshot();
        snap.trace
            .check_well_formed()
            .expect("threaded trace must stay balanced and monotone");
        assert_eq!(snap.trace.threads.len(), THREADS);
        assert_eq!(snap.trace.total_dropped(), 0);
        assert_eq!(
            snap.counter("worker.rounds"),
            Some((THREADS * ROUNDS) as u64)
        );
        let hist = snap.histogram("worker.value").expect("histogram exists");
        assert_eq!(hist.count, (THREADS * ROUNDS) as u64);
        // Every round opens one outer span (2 events) and every third adds an inner span
        // plus an instant (3 more).
        let per_thread = 2 * ROUNDS + 3 * ROUNDS.div_ceil(3);
        assert_eq!(snap.trace.total_events(), THREADS * per_thread);
    }
}
