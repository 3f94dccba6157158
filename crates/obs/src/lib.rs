//! `dlacep-obs` — zero-dependency observability substrate for the DLACEP
//! reproduction. Built on `std` only (the workspace is offline; `tracing` /
//! `prometheus` are unavailable), it provides:
//!
//! - a **metrics registry** ([`Registry`]) issuing lock-free [`Counter`],
//!   [`Gauge`], and log2-bucket [`Histogram`] handles. Registration locks a
//!   map once; updates are single relaxed atomics. A *disabled* registry
//!   issues inert handles whose updates compile to one `Option` branch.
//! - **spans** ([`Span`]): RAII wall-time guards recording elapsed
//!   nanoseconds into a histogram per pipeline stage
//!   (`registry.span("cep.extract")`).
//! - a **structured journal** ([`Journal`]): a bounded ring buffer of typed
//!   runtime events (breaker trips, drift verdicts, mode transitions,
//!   partial-match sheds, pool queue-depth samples) with monotonic
//!   timestamps.
//! - **exposition**: a JSON-serializable [`MetricsSnapshot`] with
//!   [`diff`](MetricsSnapshot::diff)ing, and Prometheus text format via
//!   [`render_prometheus`].
//!
//! # Determinism contract
//!
//! Counter values and journal `(kind, fields)` sequences outside the
//! `pool.` namespace are pure functions of the workload and config — never
//! of the thread count or scheduling. Timing data (histograms, gauges,
//! `at_nanos`, `seq` after `pool.` filtering) is exempt.
//! [`MetricsSnapshot::deterministic_view`] extracts exactly the covered
//! subset; `tests/obs_determinism.rs` in the workspace root enforces it.

mod journal;
mod metrics;
mod prom;
mod snapshot;
mod trace;

pub use journal::{FieldValue, Journal, JournalEntry, JournalSnapshot, DEFAULT_JOURNAL_CAPACITY};
pub use metrics::{bucket_index, bucket_upper, Counter, Gauge, Histogram, Span, HISTOGRAM_BUCKETS};
pub use prom::{
    counter_name, prometheus_name, render_prometheus, render_prometheus_sharded,
    render_prometheus_with_labels,
};
pub use snapshot::{DeterministicView, HistogramSnapshot, MetricsSnapshot};
pub use trace::{
    json_field, json_string, Trace, TraceBuilder, TraceSnapshot, TraceSpan, Tracer,
    DEFAULT_TRACE_CAPACITY, TRACE_SAMPLE_ENV,
};

use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, OnceLock};

use metrics::HistogramCore;

/// Environment variable consulted by [`global`]: set `DLACEP_OBS=0` (or
/// `off`/`false`) to disable the process-wide registry, turning every
/// instrumentation site into a near-no-op.
pub const OBS_ENV: &str = "DLACEP_OBS";

#[derive(Default)]
struct Maps {
    counters: BTreeMap<String, Arc<std::sync::atomic::AtomicU64>>,
    gauges: BTreeMap<String, Arc<std::sync::atomic::AtomicU64>>,
    histograms: BTreeMap<String, Arc<HistogramCore>>,
}

/// Metrics registry: the factory for counters/gauges/histograms/spans and
/// the owner of the event journal. Share it as an `Arc<Registry>`; handle
/// lookup by name is mutex-guarded but handles themselves update lock-free.
pub struct Registry {
    enabled: bool,
    maps: Mutex<Maps>,
    journal: Journal,
    tracer: Tracer,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("enabled", &self.enabled)
            .finish()
    }
}

impl Registry {
    /// An enabled registry with the default journal capacity.
    pub fn enabled() -> Self {
        Self::with_journal_capacity(DEFAULT_JOURNAL_CAPACITY)
    }

    /// An enabled registry with an explicit journal ring capacity. The
    /// tracer is taken from the environment ([`TRACE_SAMPLE_ENV`]) —
    /// disabled unless `DLACEP_TRACE_SAMPLE` is a positive integer.
    pub fn with_journal_capacity(capacity: usize) -> Self {
        Self::with_tracer(capacity, Tracer::from_env(DEFAULT_TRACE_CAPACITY))
    }

    /// An enabled registry with an explicit tracer. A fleet of per-shard
    /// registries shares one tracer this way, so traces keyed by the
    /// fleet-global sequence land in a single ring.
    pub fn with_tracer(journal_capacity: usize, tracer: Tracer) -> Self {
        Registry {
            enabled: true,
            maps: Mutex::new(Maps::default()),
            journal: Journal::with_capacity(journal_capacity),
            tracer,
        }
    }

    /// A disabled registry: every handle it issues is inert and spans never
    /// read the clock.
    pub fn disabled() -> Self {
        Registry {
            enabled: false,
            maps: Mutex::new(Maps::default()),
            journal: Journal::disabled(),
            tracer: Tracer::disabled(),
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Look up (or create) the counter registered under `name`.
    pub fn counter(&self, name: &str) -> Counter {
        if !self.enabled {
            return Counter::disabled();
        }
        let mut maps = self.maps.lock().unwrap();
        let cell = maps
            .counters
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(std::sync::atomic::AtomicU64::new(0)));
        Counter(Some(Arc::clone(cell)))
    }

    /// Look up (or create) the gauge registered under `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        if !self.enabled {
            return Gauge::disabled();
        }
        let mut maps = self.maps.lock().unwrap();
        let cell = maps
            .gauges
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(std::sync::atomic::AtomicU64::new(f64::to_bits(0.0))));
        Gauge(Some(Arc::clone(cell)))
    }

    /// Look up (or create) the histogram registered under `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        if !self.enabled {
            return Histogram::disabled();
        }
        let mut maps = self.maps.lock().unwrap();
        let core = maps
            .histograms
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(HistogramCore::new()));
        Histogram(Some(Arc::clone(core)))
    }

    /// Start a one-off wall-time span recording into the histogram `name`.
    /// Hot paths should hold a [`Histogram`] handle and call
    /// [`Histogram::span`] instead to skip the registry lookup.
    pub fn span(&self, name: &str) -> Span {
        self.histogram(name).span()
    }

    /// A cloneable handle on this registry's journal.
    pub fn journal(&self) -> Journal {
        self.journal.clone()
    }

    /// A cloneable handle on this registry's tracer (disabled unless the
    /// registry was built with one or `DLACEP_TRACE_SAMPLE` is set).
    pub fn tracer(&self) -> Tracer {
        self.tracer.clone()
    }

    /// Append a journal event (convenience for [`Journal::record`]).
    pub fn record(&self, kind: &str, fields: &[(&str, FieldValue)]) {
        self.journal.record(kind, fields);
    }

    /// Freeze the registry into a [`MetricsSnapshot`].
    pub fn snapshot(&self) -> MetricsSnapshot {
        let maps = self.maps.lock().unwrap();
        let counters = maps
            .counters
            .iter()
            .map(|(name, cell)| (name.clone(), cell.load(Ordering::Relaxed)))
            .collect();
        let gauges = maps
            .gauges
            .iter()
            .map(|(name, cell)| (name.clone(), f64::from_bits(cell.load(Ordering::Relaxed))))
            .collect();
        let histograms = maps
            .histograms
            .iter()
            .map(|(name, core)| {
                let buckets: Vec<(u32, u64)> = core
                    .buckets
                    .iter()
                    .enumerate()
                    .map(|(i, b)| (i as u32, b.load(Ordering::Relaxed)))
                    .filter(|&(_, c)| c > 0)
                    .collect();
                (
                    name.clone(),
                    HistogramSnapshot {
                        count: core.count.load(Ordering::Relaxed),
                        sum: core.sum.load(Ordering::Relaxed),
                        buckets,
                        exemplar: core.exemplar(),
                    },
                )
            })
            .collect();
        drop(maps);
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
            journal: self.journal.snapshot(),
        }
    }

    /// Render the current state as Prometheus text format.
    pub fn render_prometheus(&self) -> String {
        render_prometheus(&self.snapshot())
    }
}

impl Default for Registry {
    fn default() -> Self {
        Registry::enabled()
    }
}

static GLOBAL: OnceLock<Arc<Registry>> = OnceLock::new();

/// The process-wide registry, used by instrumentation sites with no config
/// plumbing of their own (trainers). Enabled
/// unless `DLACEP_OBS` is set to `0`, `off`, or `false`. Components that
/// need an isolated registry (tests, the determinism suite) construct their
/// own [`Registry`] and inject it via the various `set_obs` hooks instead.
pub fn global() -> Arc<Registry> {
    Arc::clone(GLOBAL.get_or_init(|| {
        let disabled = std::env::var(OBS_ENV)
            .map(|v| {
                let v = v.trim().to_ascii_lowercase();
                v == "0" || v == "off" || v == "false"
            })
            .unwrap_or(false);
        Arc::new(if disabled {
            Registry::disabled()
        } else {
            Registry::enabled()
        })
    }))
}

/// Install the global registry explicitly (wins over the environment if it
/// runs before the first [`global`] lookup). Returns `false` if a global
/// registry was already installed, in which case it stays in place.
pub fn install_global(registry: Arc<Registry>) -> bool {
    GLOBAL.set(registry).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_issues_working_handles() {
        let reg = Registry::enabled();
        let c = reg.counter("test.counter");
        c.inc();
        c.add(2);
        reg.gauge("test.gauge").set(1.25);
        reg.histogram("test.hist").record(5);
        reg.record("evt", &[("k", 7u64.into())]);

        let snap = reg.snapshot();
        assert_eq!(snap.counters["test.counter"], 3);
        assert_eq!(snap.gauges["test.gauge"], 1.25);
        assert_eq!(snap.histograms["test.hist"].count, 1);
        assert_eq!(snap.journal.entries.len(), 1);
        assert_eq!(snap.journal.entries[0].kind, "evt");
    }

    #[test]
    fn same_name_shares_storage() {
        let reg = Registry::enabled();
        reg.counter("shared").inc();
        reg.counter("shared").inc();
        assert_eq!(reg.snapshot().counters["shared"], 2);
    }

    #[test]
    fn disabled_registry_issues_inert_handles_and_empty_snapshots() {
        let reg = Registry::disabled();
        assert!(!reg.is_enabled());
        reg.counter("c").inc();
        reg.gauge("g").set(1.0);
        reg.histogram("h").record(1);
        drop(reg.span("s"));
        reg.record("evt", &[]);
        let snap = reg.snapshot();
        assert!(snap.counters.is_empty());
        assert!(snap.gauges.is_empty());
        assert!(snap.histograms.is_empty());
        assert!(snap.journal.entries.is_empty());
    }

    #[test]
    fn span_records_into_histogram() {
        let reg = Registry::enabled();
        let h = reg.histogram("stage.nanos");
        {
            let _span = h.span();
            std::hint::black_box(1 + 1);
        }
        drop(reg.span("stage.nanos"));
        assert_eq!(h.count(), 2);
    }
}
