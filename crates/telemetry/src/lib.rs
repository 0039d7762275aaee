//! `qos-telemetry`: observability for the management plane itself.
//!
//! The paper's architecture observes *applications* (probes → sensors →
//! coordinator → host/domain manager); this crate observes the
//! *management plane*: how long from QoS violation to diagnosis to
//! recovery, how many rule firings that cost, what the fault layer
//! actually dropped. Two primitives, one handle:
//!
//! - a **metrics registry** ([`Registry`]): named families of labeled
//!   series — counters, gauges, log-bucketed histograms — behind
//!   pre-resolved handles whose probe cost is one relaxed atomic op;
//! - **structured event tracing** ([`TraceEvent`]): lifecycle-stage
//!   events carrying a correlation id minted when a sensor first trips
//!   and propagated through violation reports, inference, adaptation
//!   and recovery, so each violation is one reconstructable causal
//!   chain ([`reconstruct`]) with per-stage latencies and MTTR.
//!
//! Timestamps are plain `u64` microseconds: virtual time in the
//! simulation, wall time in live mode. Exporters (`export`) emit
//! JSONL, Chrome `trace_event` JSON and registry-snapshot JSON; the
//! [`record`] module adds a binary **flight recorder** (bounded ring +
//! rotating segment files + tolerant replay) so a run's trace survives
//! the process. The human-readable summary table lives in
//! `qos-core::report` (this crate sits below everything and depends on
//! nothing but the vendored `parking_lot` and the dependency-free
//! `qos-buggify`).
//!
//! # Cost model
//!
//! Guided by Bickson et al.'s low-overhead monitoring constraint and
//! the paper's own §7 budget (~11 µs per instrumented pass), probe
//! sites must be effectively free when observability is off:
//!
//! - **runtime disable**: a default [`Telemetry`] handle is inert — the
//!   inner state is `None`, so every probe is a branch on an `Option`
//!   and metric handles resolve to no-ops;
//! - **compile-time disable**: the `telemetry-off` feature makes every
//!   handle zero-sized and every probe method an empty inlined body, so
//!   the instrumented build is bit-for-bit equivalent to never having
//!   instrumented at all.

mod events;
mod export;
mod lifecycle;
mod metrics;
pub mod record;

pub use events::{Fields, Name, Stage, TraceEvent};
pub use export::{metrics_to_json, parse_event, parse_jsonl, to_chrome_trace, to_jsonl};
pub use lifecycle::{reconstruct, stage_latencies, Lifecycle, StageLatencies};
pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricSnapshot, MetricValue, Registry,
    RegistrySnapshot, HISTOGRAM_BUCKETS,
};
pub use record::{
    read_recording, read_recording_dir, FlightRecorder, RecError, Record, Recording, SegmentWriter,
    SnapshotRecord,
};

/// Everything a probe site needs.
pub mod prelude {
    pub use crate::{
        metrics_to_json, parse_jsonl, read_recording, read_recording_dir, reconstruct,
        stage_latencies, to_chrome_trace, to_jsonl, Counter, Fields, FlightRecorder, Gauge,
        Histogram, Lifecycle, MetricValue, Name, Record, Recording, Registry, SegmentWriter, Stage,
        Telemetry, TraceEvent,
    };
}

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use events::EventBuf;
use parking_lot::Mutex;

/// Default bounded event-buffer capacity.
pub const DEFAULT_EVENT_CAPACITY: usize = 65_536;

#[derive(Debug)]
struct Inner {
    enabled: AtomicBool,
    registry: Registry,
    events: Mutex<EventBuf>,
    next_corr: AtomicU64,
    /// Evictions already written to `telemetry.events_dropped`.
    dropped_mirrored: AtomicU64,
    /// Attached flight recorder; `has_recorder` is the hot-path gate so
    /// the common (no recorder) case costs one relaxed load.
    recorder: Mutex<Option<FlightRecorder>>,
    has_recorder: AtomicBool,
}

/// The shared telemetry handle: a registry plus a bounded event buffer
/// plus the correlation-id mint. Cloning is cheap (an `Arc`); a
/// [`Telemetry::default`] (or [`Telemetry::disabled`]) handle carries
/// no state and makes every probe a no-op.
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Telemetry {
    /// An enabled handle with the default event-buffer capacity.
    pub fn enabled() -> Self {
        Telemetry::with_capacity(DEFAULT_EVENT_CAPACITY)
    }

    /// An enabled handle retaining at most `capacity` events (oldest
    /// evicted first). With the `telemetry-off` feature this still
    /// returns an inert handle.
    pub fn with_capacity(capacity: usize) -> Self {
        #[cfg(not(feature = "telemetry-off"))]
        {
            Telemetry {
                inner: Some(Arc::new(Inner {
                    enabled: AtomicBool::new(true),
                    registry: Registry::new(),
                    events: Mutex::new(EventBuf::new(capacity)),
                    next_corr: AtomicU64::new(1),
                    dropped_mirrored: AtomicU64::new(0),
                    recorder: Mutex::new(None),
                    has_recorder: AtomicBool::new(false),
                })),
            }
        }
        #[cfg(feature = "telemetry-off")]
        {
            let _ = capacity;
            Telemetry { inner: None }
        }
    }

    /// An inert handle: every probe is a no-op.
    pub fn disabled() -> Self {
        Telemetry::default()
    }

    /// Is this handle live (constructed enabled, not runtime-paused)?
    pub fn is_enabled(&self) -> bool {
        self.active().is_some()
    }

    /// Pause or resume event emission and correlation minting at run
    /// time. Metric handles already resolved keep their cells; new
    /// events and correlation ids stop flowing while paused.
    pub fn set_enabled(&self, on: bool) {
        if let Some(i) = &self.inner {
            i.enabled.store(on, Ordering::Relaxed);
        }
    }

    #[inline]
    fn active(&self) -> Option<&Inner> {
        match &self.inner {
            Some(i) if i.enabled.load(Ordering::Relaxed) => Some(i),
            _ => None,
        }
    }

    /// Mint a fresh correlation id (0 when disabled — 0 means "not part
    /// of a lifecycle" everywhere downstream).
    pub fn next_corr(&self) -> u64 {
        match self.active() {
            Some(i) => i.next_corr.fetch_add(1, Ordering::Relaxed),
            None => 0,
        }
    }

    /// Resolve a counter handle (no-op when disabled).
    pub fn counter(&self, family: &str, label: &str) -> Counter {
        match &self.inner {
            Some(i) => i.registry.counter(family, label),
            None => Counter::noop(),
        }
    }

    /// Resolve a gauge handle (no-op when disabled).
    pub fn gauge(&self, family: &str, label: &str) -> Gauge {
        match &self.inner {
            Some(i) => i.registry.gauge(family, label),
            None => Gauge::noop(),
        }
    }

    /// Resolve a histogram handle (no-op when disabled).
    pub fn histogram(&self, family: &str, label: &str) -> Histogram {
        match &self.inner {
            Some(i) => i.registry.histogram(family, label),
            None => Histogram::noop(),
        }
    }

    /// Emit one structured event. The closure style keeps disabled
    /// probe sites free: arguments are only built when a live handle
    /// will store them.
    #[inline]
    pub fn event(&self, make: impl FnOnce() -> TraceEvent) {
        if let Some(i) = self.active() {
            let ev = make();
            if i.has_recorder.load(Ordering::Relaxed) {
                if let Some(rec) = &*i.recorder.lock() {
                    rec.record_event(&ev);
                }
            }
            i.events.lock().push(ev);
        }
    }

    /// Attach (or detach, with `None`) a flight recorder: every event
    /// emitted through this handle is also encoded into the recorder's
    /// ring (and its segment files, if it writes through). Under
    /// `telemetry-off` this is a no-op — the hook compiles out with the
    /// rest of the probe path.
    pub fn set_recorder(&self, rec: Option<FlightRecorder>) {
        if let Some(i) = &self.inner {
            i.has_recorder.store(rec.is_some(), Ordering::Relaxed);
            *i.recorder.lock() = rec;
        }
    }

    /// The attached flight recorder, if any.
    pub fn recorder(&self) -> Option<FlightRecorder> {
        self.inner.as_ref().and_then(|i| i.recorder.lock().clone())
    }

    /// Record the current registry snapshot into the attached flight
    /// recorder (no-op without one).
    pub fn record_metrics(&self, at_us: u64) {
        if let Some(i) = self.active() {
            if i.has_recorder.load(Ordering::Relaxed) {
                if let Some(rec) = &*i.recorder.lock() {
                    rec.record_snapshot(at_us, &self.snapshot());
                }
            }
        }
    }

    /// Convenience: emit a lifecycle-stage event. A probe site that
    /// passes names it already holds (`&Name`, or a `&str` of up to 22
    /// bytes) and at most six fields allocates nothing here, and the
    /// event it evicts frees nothing.
    #[inline]
    pub fn stage(
        &self,
        at_us: u64,
        corr: u64,
        stage: Stage,
        component: impl Into<Name>,
        name: impl Into<Name>,
        fields: &[(Name, f64)],
    ) {
        self.event(|| TraceEvent {
            at_us,
            corr,
            stage,
            component: component.into(),
            name: name.into(),
            fields: fields.into(),
        });
    }

    /// Copy of the buffered events, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        match &self.inner {
            Some(i) => i.events.lock().events(),
            None => Vec::new(),
        }
    }

    /// Events evicted from the bounded buffer so far.
    pub fn events_dropped(&self) -> u64 {
        match &self.inner {
            Some(i) => i.events.lock().dropped(),
            None => 0,
        }
    }

    /// Deterministically ordered snapshot of every metric series.
    /// Events the bounded buffer has evicted are written to
    /// `telemetry.events_dropped` here — not where they are evicted, so
    /// the emit path pays nothing for it — and the series exists only
    /// once something was.
    pub fn snapshot(&self) -> RegistrySnapshot {
        match &self.inner {
            Some(i) => {
                let dropped = i.events.lock().dropped();
                let mirrored = i.dropped_mirrored.fetch_max(dropped, Ordering::Relaxed);
                if dropped > mirrored {
                    i.registry
                        .counter("telemetry.events_dropped", "")
                        .add(dropped - mirrored);
                }
                i.registry.snapshot()
            }
            None => Vec::new(),
        }
    }

    /// Current value of a counter series (0 when absent/disabled) —
    /// the assertion-side accessor used by tests.
    pub fn counter_value(&self, family: &str, label: &str) -> u64 {
        self.snapshot()
            .iter()
            .find(|m| m.family == family && m.label == label)
            .map_or(0, |m| match &m.value {
                MetricValue::Counter(v) => *v,
                _ => 0,
            })
    }

    /// Current value of a gauge series (0.0 when absent/disabled).
    pub fn gauge_value(&self, family: &str, label: &str) -> f64 {
        self.snapshot()
            .iter()
            .find(|m| m.family == family && m.label == label)
            .map_or(0.0, |m| match &m.value {
                MetricValue::Gauge(v) => *v,
                _ => 0.0,
            })
    }

    /// Reconstruct violation lifecycles from the buffered events.
    pub fn lifecycles(&self) -> Vec<Lifecycle> {
        reconstruct(&self.events())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let t = Telemetry::disabled();
        assert!(!t.is_enabled());
        assert_eq!(t.next_corr(), 0);
        t.counter("a", "b").inc();
        t.event(|| unreachable!("disabled handle must not build events"));
        assert!(t.events().is_empty());
        assert!(t.snapshot().is_empty());
    }

    #[cfg(not(feature = "telemetry-off"))]
    #[test]
    fn enabled_handle_collects() {
        let t = Telemetry::enabled();
        assert!(t.is_enabled());
        let c1 = t.next_corr();
        let c2 = t.next_corr();
        assert!(c1 >= 1 && c2 == c1 + 1, "monotone correlation ids");
        t.counter("hm.violations", "h0").add(2);
        t.stage(
            10,
            c1,
            Stage::Detect,
            "client-0",
            "example1",
            &[("fps".into(), 19.0)],
        );
        assert_eq!(t.counter_value("hm.violations", "h0"), 2);
        let evs = t.events();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].corr, c1);
        assert_eq!(evs[0].field("fps"), Some(19.0));
    }

    #[cfg(not(feature = "telemetry-off"))]
    #[test]
    fn runtime_pause_stops_events_and_corr() {
        let t = Telemetry::enabled();
        t.set_enabled(false);
        assert!(!t.is_enabled());
        assert_eq!(t.next_corr(), 0);
        t.event(|| unreachable!("paused handle must not build events"));
        t.set_enabled(true);
        assert!(t.next_corr() >= 1);
    }

    #[cfg(not(feature = "telemetry-off"))]
    #[test]
    fn clones_share_state() {
        let t = Telemetry::enabled();
        let u = t.clone();
        t.counter("c", "").inc();
        u.counter("c", "").inc();
        assert_eq!(t.counter_value("c", ""), 2);
        u.stage(1, 1, Stage::Mark, "x", "y", &[]);
        assert_eq!(t.events().len(), 1);
    }

    #[cfg(not(feature = "telemetry-off"))]
    #[test]
    fn attached_recorder_mirrors_events_and_metrics() {
        let t = Telemetry::enabled();
        let rec = FlightRecorder::new(record::DEFAULT_RING_BYTES);
        t.set_recorder(Some(rec.clone()));
        t.counter("hm.violations", "h0").add(3);
        t.stage(
            10,
            1,
            Stage::Detect,
            "client-0",
            "example1",
            &[("fps".into(), 19.0)],
        );
        t.record_metrics(20);
        assert_eq!(rec.records(), 2, "one event + one snapshot");
        let recs = rec.ring_records();
        assert_eq!(recs.len(), 2);
        assert_eq!(
            recs[0],
            Record::Event(t.events().remove(0)),
            "recorded event is bit-identical to the buffered one"
        );
        match &recs[1] {
            Record::Snapshot(s) => {
                assert_eq!(s.at_us, 20);
                assert_eq!(s.metrics, t.snapshot());
            }
            other => panic!("expected snapshot record, got {other:?}"),
        }
        t.set_recorder(None);
        t.stage(30, 2, Stage::Mark, "x", "y", &[]);
        assert_eq!(rec.records(), 2, "detached recorder sees nothing");
        assert!(t.recorder().is_none());
    }

    #[cfg(not(feature = "telemetry-off"))]
    #[test]
    fn evictions_surface_as_a_series_once_there_are_any() {
        let emit = |t: &Telemetry, n: u64| {
            for i in 0..n {
                t.stage(i, 0, Stage::Mark, "x", "y", &[]);
            }
        };
        let small = Telemetry::with_capacity(4);
        emit(&small, 10);
        assert_eq!(small.events_dropped(), 6);
        assert_eq!(small.counter_value("telemetry.events_dropped", ""), 6);
        // Snapshots add what was evicted since the last one, not the
        // total again.
        emit(&small, 3);
        assert_eq!(small.counter_value("telemetry.events_dropped", ""), 9);
        assert_eq!(small.counter_value("telemetry.events_dropped", ""), 9);

        let roomy = Telemetry::with_capacity(16);
        emit(&roomy, 10);
        assert!(
            roomy.snapshot().is_empty(),
            "a buffer that never filled has no eviction series"
        );
    }

    #[cfg(feature = "telemetry-off")]
    #[test]
    fn feature_off_makes_enabled_inert() {
        let t = Telemetry::enabled();
        assert!(!t.is_enabled());
        assert_eq!(t.next_corr(), 0);
    }

    #[test]
    fn handles_are_send_and_sync() {
        fn check<T: Send + Sync + Clone>() {}
        check::<Telemetry>();
        check::<Counter>();
        check::<Gauge>();
        check::<Histogram>();
    }
}
