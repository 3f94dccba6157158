//! Determinism harness for the trace plane.
//!
//! Trace *structure* — which sequence numbers are sampled, the stages and
//! parent links of their spans, and every annotation value — is part of
//! the determinism contract: it is a pure function of the workload and
//! configuration, never of the thread count or the shard count. Only the
//! nanosecond timestamps are scheduling-dependent, and
//! [`TraceSnapshot::deterministic_view`] strips exactly those. These tests
//! run the streaming runtime (healthy and fault-injected) and the sharded
//! fleet under `threads ∈ {1, 4}` × `shards ∈ {1, 4}` and require the
//! views to be byte-identical.
//!
//! [`TraceSnapshot::deterministic_view`]:
//! dlacep::obs::TraceSnapshot::deterministic_view

use dlacep::cep::{Pattern, PatternExpr, TypeSet};
use dlacep::core::prelude::*;
use dlacep::core::{GuardConfig, Parallelism};
use dlacep::data::StockConfig;
use dlacep::dur::MemStore;
use dlacep::events::{EventStream, KeyExtractor, PrimitiveEvent, TypeId, WindowSpec};
use dlacep::obs::{Registry, Tracer};
use dlacep::serve::{FilterFactory, FleetConfig, ShardedDlacep};
use std::collections::BTreeMap;
use std::sync::Arc;

const THREADS: [usize; 2] = [1, 4];
const SHARDS: [u32; 2] = [1, 4];
const SAMPLE_EVERY: u64 = 5;
/// Ample ring: every sampled trace of the workload must survive eviction,
/// otherwise the views would diverge on ring wraparound rather than on a
/// real scheduling leak.
const RING: usize = 4096;

fn seq_pattern(types: &[u32], w: u64) -> Pattern {
    let leaves = types
        .iter()
        .enumerate()
        .map(|(i, &t)| PatternExpr::event(TypeSet::single(TypeId(t)), format!("s{i}")))
        .collect();
    Pattern::new(PatternExpr::Seq(leaves), vec![], WindowSpec::Count(w))
}

fn stock_stream(n: usize) -> EventStream {
    let (_, stream) = StockConfig {
        num_events: n,
        ..Default::default()
    }
    .generate();
    stream
}

/// Faults keyed on window *content* (first event id) — a pure function of
/// the workload, so breaker trips and degraded stretches land on the same
/// windows under every thread count.
struct IdKeyedFaults {
    inner: OracleFilter,
}

impl Filter for IdKeyedFaults {
    fn mark(&self, window: &[PrimitiveEvent]) -> Vec<bool> {
        let first = window.first().map_or(0, |e| e.id.0);
        if first % 11 == 3 {
            panic!("injected panic for window at id {first}");
        }
        let marks = self.inner.mark(window);
        if first % 13 == 7 {
            return marks[..marks.len().saturating_sub(1)].to_vec();
        }
        marks
    }

    fn name(&self) -> &'static str {
        "id-keyed-faults"
    }
}

/// Group view lines (`"<trace_id> <stage> ..."`) by trace id.
fn stages_by_trace(view: &[String]) -> BTreeMap<u64, Vec<&str>> {
    let mut out: BTreeMap<u64, Vec<&str>> = BTreeMap::new();
    for line in view {
        let mut parts = line.splitn(3, ' ');
        let id: u64 = parts.next().unwrap().parse().unwrap();
        out.entry(id).or_default().push(parts.next().unwrap());
    }
    out
}

fn run_streaming<F: Filter>(
    threads: usize,
    filter: F,
    pattern: &Pattern,
    stream: &EventStream,
) -> (Vec<String>, RuntimeReport) {
    let tracer = Tracer::new(SAMPLE_EVERY, RING);
    let cfg = RuntimeConfig {
        parallelism: Parallelism::with_threads(threads),
        guard: GuardConfig {
            fault_threshold: 2,
            cooldown_windows: 4,
            ..GuardConfig::default()
        },
        ..Default::default()
    };
    let mut rt = StreamingDlacep::builder(pattern.clone(), filter)
        .config(cfg)
        .obs(Arc::new(Registry::with_tracer(256, tracer.clone())))
        .build()
        .unwrap();
    // Uneven chunks so batch boundaries fall mid-window.
    for chunk in stream.events().chunks(97) {
        rt.ingest_batch(chunk).unwrap();
    }
    let report = rt.finish();
    let snap = tracer.snapshot();
    assert_eq!(snap.dropped, 0, "ring must hold every sampled trace");
    assert!(!snap.traces.is_empty(), "sampling must actually fire");
    (snap.deterministic_view(), report)
}

#[test]
fn streaming_traces_deterministic_across_thread_counts() {
    let pattern = seq_pattern(&[0, 1, 2], 12);
    let stream = stock_stream(2_500);

    let mut views: Vec<(usize, Vec<String>)> = Vec::new();
    for t in THREADS {
        let (view, report) =
            run_streaming(t, OracleFilter::new(pattern.clone()), &pattern, &stream);
        assert!(
            !report.matches.is_empty(),
            "threads = {t}: the pattern must match for emit spans to exist"
        );
        views.push((t, view));
    }

    let (_, baseline) = &views[0];
    // At least one sampled event must carry the full causal chain.
    let full_chain = stages_by_trace(baseline).into_iter().find(|(_, stages)| {
        ["ingest", "assemble", "mark", "cep", "emit"]
            .iter()
            .all(|s| stages.contains(s))
    });
    assert!(
        full_chain.is_some(),
        "some sampled trace must span ingest→assemble→mark→cep→emit:\n{baseline:#?}"
    );
    for (t, view) in &views[1..] {
        assert_eq!(
            view, baseline,
            "threads = {t}: trace structure must not depend on thread count"
        );
    }
}

#[test]
fn faulting_traces_deterministic_and_annotate_degraded_windows() {
    let pattern = seq_pattern(&[0, 1, 2], 12);
    let stream = stock_stream(2_500);

    let mut views: Vec<(usize, Vec<String>)> = Vec::new();
    for t in THREADS {
        let filter = IdKeyedFaults {
            inner: OracleFilter::new(pattern.clone()),
        };
        let (view, report) = run_streaming(t, filter, &pattern, &stream);
        assert!(
            report.guard.faults_total > 0,
            "threads = {t}: faults must actually fire"
        );
        views.push((t, view));
    }

    let (_, baseline) = &views[0];
    assert!(
        baseline
            .iter()
            .any(|l| l.contains(" mark ") && l.contains("path=fault")),
        "a sampled trace must annotate a faulting mark:\n{baseline:#?}"
    );
    assert!(
        baseline
            .iter()
            .any(|l| l.contains(" mark ") && l.contains("path=degraded")),
        "a sampled trace must annotate a degraded (breaker-open) mark:\n{baseline:#?}"
    );
    assert!(
        baseline.iter().any(|l| l.contains(" mode ")),
        "mode transitions inside a sampled window must become spans:\n{baseline:#?}"
    );
    for (t, view) in &views[1..] {
        assert_eq!(
            view, baseline,
            "threads = {t}: degraded-run trace structure must not depend on thread count"
        );
    }
}

fn run_fleet_traces<F: Filter>(
    shards: u32,
    threads: usize,
    pattern: &Pattern,
    stream: &EventStream,
    mk_filter: FilterFactory<F>,
) -> Vec<String> {
    let cfg = FleetConfig {
        shards,
        key_extractor: KeyExtractor::ByTypeGroup(4),
        runtime: RuntimeConfig {
            parallelism: Parallelism::with_threads(threads),
            guard: GuardConfig {
                fault_threshold: 2,
                cooldown_windows: 4,
                ..GuardConfig::default()
            },
            ..RuntimeConfig::default()
        },
        obs: true,
        sync_every_events: 16,
        checkpoint_every_events: 640,
        ..FleetConfig::default()
    };
    let stores: Vec<MemStore> = (0..shards).map(|_| MemStore::new()).collect();
    let mut fleet =
        ShardedDlacep::create(pattern.clone(), cfg, mk_filter, Arc::new(|| None), stores).unwrap();
    let tracer = Tracer::new(SAMPLE_EVERY, RING);
    fleet.set_tracer(tracer.clone());
    for chunk in stream.events().chunks(97) {
        fleet.ingest_batch(chunk).unwrap();
    }
    let report = fleet.finish();
    assert!(report.totals.matches > 0, "the pattern must match");
    let snap = tracer.snapshot();
    assert_eq!(snap.dropped, 0, "ring must hold every sampled trace");
    assert!(!snap.traces.is_empty(), "sampling must actually fire");
    snap.deterministic_view()
}

#[test]
fn fleet_traces_deterministic_across_shard_and_thread_counts() {
    let pattern = seq_pattern(&[0, 1, 2], 12);
    let stream = stock_stream(2_500);

    let pat = pattern.clone();
    let mk: FilterFactory<OracleFilter> = Arc::new(move || OracleFilter::new(pat.clone()));
    let baseline = run_fleet_traces(1, 1, &pattern, &stream, Arc::clone(&mk));
    for shards in SHARDS {
        for threads in THREADS {
            if (shards, threads) == (1, 1) {
                continue;
            }
            let got = run_fleet_traces(shards, threads, &pattern, &stream, Arc::clone(&mk));
            assert_eq!(
                got, baseline,
                "shards={shards} threads={threads}: fleet trace structure must be \
                 a pure function of the workload"
            );
        }
    }
}

#[test]
fn degraded_fleet_traces_deterministic_across_shard_counts() {
    let pattern = seq_pattern(&[0, 1, 2], 12);
    let stream = stock_stream(2_500);

    let pat = pattern.clone();
    let mk: FilterFactory<IdKeyedFaults> = Arc::new(move || IdKeyedFaults {
        inner: OracleFilter::new(pat.clone()),
    });
    let baseline = run_fleet_traces(SHARDS[0], 1, &pattern, &stream, Arc::clone(&mk));
    assert!(
        baseline
            .iter()
            .any(|l| l.contains("path=fault") || l.contains("path=degraded")),
        "the fault injection must reach sampled traces:\n{baseline:#?}"
    );
    for shards in &SHARDS[1..] {
        let got = run_fleet_traces(*shards, 1, &pattern, &stream, Arc::clone(&mk));
        assert_eq!(
            got, baseline,
            "shards={shards}: degraded fleet trace structure must not depend on placement"
        );
    }
}
