//! Determinism harness for the trace plane.
//!
//! Trace *structure* — which sequence numbers are sampled, the stages and
//! parent links of their spans, and every annotation value — is part of
//! the determinism contract: it is a pure function of the workload and
//! configuration, never of how the stream was cut into calls or of the
//! shard count. Only the nanosecond timestamps are scheduling-dependent,
//! and [`TraceSnapshot::deterministic_view`] strips exactly those. These
//! tests run the streaming runtime (healthy and fault-injected) fed one
//! event per call and in 97-event batches, and the sharded fleet under
//! `shards ∈ {1, 4}`, fed in 97-event batches and one event per
//! `ShardedDlacep::ingest` (the wire server's path), and require the views
//! to be byte-identical: on both fleet paths an event's trace id is its
//! fleet-global sequence number, the id it is offered to its key runtime
//! with. A fleet
//! recovered from its stores traces its restored keys as it traces new
//! ones.
//!
//! [`TraceSnapshot::deterministic_view`]:
//! dlacep::obs::TraceSnapshot::deterministic_view

use dlacep::cep::{Pattern, PatternExpr, TypeSet};
use dlacep::core::prelude::*;
use dlacep::core::GuardConfig;
use dlacep::data::StockConfig;
use dlacep::dur::MemStore;
use dlacep::events::{EventStream, KeyExtractor, PrimitiveEvent, TypeId, WindowSpec};
use dlacep::obs::{Registry, Tracer};
use dlacep::serve::{FilterFactory, FleetConfig, ShardedDlacep};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Streaming call sizes: one event per `ingest_batch`, then uneven chunks
/// whose boundaries fall mid-window.
const CHUNKS: [usize; 2] = [1, 97];
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
/// windows however the stream is cut into calls.
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

fn guard() -> GuardConfig {
    GuardConfig {
        fault_threshold: 2,
        cooldown_windows: 4,
        ..GuardConfig::default()
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
    chunk: usize,
    filter: F,
    pattern: &Pattern,
    stream: &EventStream,
) -> (Vec<String>, RuntimeReport) {
    let tracer = Tracer::new(SAMPLE_EVERY, RING);
    let mut rt = StreamingDlacep::builder(pattern.clone(), filter)
        .config(RuntimeConfig {
            guard: guard(),
            ..RuntimeConfig::default()
        })
        .obs(Arc::new(Registry::with_tracer(256, tracer.clone())))
        .build()
        .unwrap();
    for events in stream.events().chunks(chunk) {
        rt.ingest_batch(events.to_vec()).unwrap();
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
    for c in CHUNKS {
        let (view, report) =
            run_streaming(c, OracleFilter::new(pattern.clone()), &pattern, &stream);
        assert!(
            !report.matches.is_empty(),
            "chunks of {c}: the pattern must match for emit spans to exist"
        );
        views.push((c, view));
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
    for (c, view) in &views[1..] {
        assert_eq!(
            view, baseline,
            "chunks of {c}: trace structure must not depend on call size"
        );
    }
}

#[test]
fn faulting_traces_deterministic_and_annotate_degraded_windows() {
    let pattern = seq_pattern(&[0, 1, 2], 12);
    let stream = stock_stream(2_500);

    let mut views: Vec<(usize, Vec<String>)> = Vec::new();
    for c in CHUNKS {
        let filter = IdKeyedFaults {
            inner: OracleFilter::new(pattern.clone()),
        };
        let (view, report) = run_streaming(c, filter, &pattern, &stream);
        assert!(
            report.guard.faults_total > 0,
            "chunks of {c}: faults must actually fire"
        );
        views.push((c, view));
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
    for (c, view) in &views[1..] {
        assert_eq!(
            view, baseline,
            "chunks of {c}: degraded-run trace structure must not depend on call size"
        );
    }
}

fn fleet_config(shards: u32) -> FleetConfig {
    FleetConfig {
        shards,
        key_extractor: KeyExtractor::ByTypeGroup(4),
        runtime: RuntimeConfig {
            guard: guard(),
            ..RuntimeConfig::default()
        },
        obs: true,
        sync_every_events: 16,
        checkpoint_every_events: 640,
        trace_sample_every: SAMPLE_EVERY,
        ..FleetConfig::default()
    }
}

/// How the fleet is fed: 97-event `ingest_batch` calls, or one
/// `ShardedDlacep::ingest` per event — the path the wire server's pump
/// takes.
#[derive(Clone, Copy, Debug)]
enum Feed {
    Batches,
    PerEvent,
}

/// Every shard count under every feed.
fn fleet_inputs() -> impl Iterator<Item = (u32, Feed)> {
    SHARDS
        .into_iter()
        .flat_map(|shards| [Feed::Batches, Feed::PerEvent].map(|feed| (shards, feed)))
}

fn run_fleet_traces<F: Filter>(
    shards: u32,
    feed: Feed,
    pattern: &Pattern,
    stream: &EventStream,
    mk_filter: FilterFactory<F>,
) -> Vec<String> {
    let stores: Vec<MemStore> = (0..shards).map(|_| MemStore::new()).collect();
    let mut fleet = ShardedDlacep::create(
        pattern.clone(),
        fleet_config(shards),
        mk_filter,
        Arc::new(|| None),
        stores,
    )
    .unwrap();
    let tracer = fleet.tracer();
    match feed {
        Feed::Batches => {
            for chunk in stream.events().chunks(97) {
                fleet.ingest_batch(chunk).unwrap();
            }
        }
        Feed::PerEvent => {
            for ev in stream.events() {
                fleet.ingest(ev.type_id, ev.ts.0, ev.attrs.clone()).unwrap();
            }
        }
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
    let mut inputs = fleet_inputs();
    let (shards, feed) = inputs.next().unwrap();
    let baseline = run_fleet_traces(shards, feed, &pattern, &stream, Arc::clone(&mk));
    for (shards, feed) in inputs {
        let got = run_fleet_traces(shards, feed, &pattern, &stream, Arc::clone(&mk));
        assert_eq!(
            got, baseline,
            "shards={shards}, {feed:?}: fleet trace structure must be a pure function of the workload"
        );
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
    let mut inputs = fleet_inputs();
    let (shards, feed) = inputs.next().unwrap();
    let baseline = run_fleet_traces(shards, feed, &pattern, &stream, Arc::clone(&mk));
    assert!(
        baseline
            .iter()
            .any(|l| l.contains("path=fault") || l.contains("path=degraded")),
        "the fault injection must reach sampled traces:\n{baseline:#?}"
    );
    for (shards, feed) in inputs {
        let got = run_fleet_traces(shards, feed, &pattern, &stream, Arc::clone(&mk));
        assert_eq!(
            got, baseline,
            "shards={shards}, {feed:?}: degraded fleet trace structure must not depend on placement or feed"
        );
    }
}

/// A recovered fleet hands its tracer to the keys it restores from the
/// checkpoint as well as to the keys it creates afterwards: every sampled
/// sequence number from `resume_seq` on publishes a trace.
#[test]
fn recovered_fleet_traces_restored_and_new_keys() {
    let pattern = seq_pattern(&[0, 1, 2], 12);
    let extractor = KeyExtractor::ByTypeGroup(4);
    // Before the crash only types 0..4 (key group 0) arrive; afterwards
    // every type does, so the re-feed reaches restored and new keys.
    const HEAD: usize = 400;
    let stock = stock_stream(1_500);
    let head = stock
        .events()
        .iter()
        .filter(|ev| ev.type_id.0 < 4)
        .take(HEAD);
    let events: Vec<PrimitiveEvent> = head
        .chain(stock.events())
        .enumerate()
        .map(|(i, ev)| PrimitiveEvent::new(i as u64, ev.type_id, i as u64, ev.attrs.clone()))
        .collect();

    let pat = pattern.clone();
    let mk: FilterFactory<OracleFilter> = Arc::new(move || OracleFilter::new(pat.clone()));
    let stores: Vec<MemStore> = (0..2).map(|_| MemStore::new()).collect();
    let mut fleet = ShardedDlacep::create(
        pattern.clone(),
        fleet_config(2),
        Arc::clone(&mk),
        Arc::new(|| None),
        stores,
    )
    .unwrap();
    fleet.ingest_batch(&events[..HEAD]).unwrap();
    fleet.checkpoint_now().unwrap();
    let restored: BTreeSet<u64> = events[..HEAD]
        .iter()
        .map(|ev| extractor.key_of(ev.type_id, &ev.attrs))
        .collect();

    let (mut recovered, report) = ShardedDlacep::recover(
        pattern.clone(),
        fleet_config(2),
        mk,
        Arc::new(|| None),
        fleet.into_stores(),
    )
    .unwrap();
    assert_eq!(report.resume_seq, HEAD as u64 + 1);
    assert!(report.shards.iter().map(|s| s.keys_restored).sum::<u64>() > 0);
    let tracer = recovered.tracer();
    let resume_at = report.resume_seq as usize - 1;
    for chunk in events[resume_at..].chunks(97) {
        recovered.ingest_batch(chunk).unwrap();
    }
    recovered.finish();

    let snap = tracer.snapshot();
    assert_eq!(snap.dropped, 0, "ring must hold every sampled trace");
    let traced: BTreeSet<u64> = snap.traces.iter().map(|t| t.trace_id).collect();
    let mut keys_traced = (false, false);
    for (i, ev) in events.iter().enumerate().skip(resume_at) {
        let g = i as u64 + 1;
        if !tracer.sampled(g) {
            continue;
        }
        let key = extractor.key_of(ev.type_id, &ev.attrs);
        assert!(
            traced.contains(&g),
            "sampled seq {g} (key {key}, restored: {}) has no trace",
            restored.contains(&key)
        );
        if restored.contains(&key) {
            keys_traced.0 = true;
        } else {
            keys_traced.1 = true;
        }
    }
    assert_eq!(
        keys_traced,
        (true, true),
        "restored and new keys both traced"
    );
}
