//! Determinism harness for the batch pipeline's parallel marking.
//!
//! The contract of `core::stage`'s marking lanes is that thread count is a
//! pure throughput knob: marks, matches (values *and* order) and every
//! report counter of `Dlacep::run` must be bitwise-identical across
//! `threads ∈ {1, 2, 4, 8}` and equal to the serial baseline, for
//! synthetic and stock-derived streams. Lanes that let their completion
//! order leak into results would fail these within a few runs.
//!
//! The streaming runtime marks serially; its batched ingest, cut into
//! chunks that end mid-window, must equal per-event ingest.

use dlacep::cep::{Pattern, PatternExpr, TypeSet};
use dlacep::core::prelude::*;
use dlacep::core::{Parallelism, RuntimeReport};
use dlacep::data::{StockConfig, SyntheticConfig};
use dlacep::events::{EventStream, PrimitiveEvent, TypeId, WindowSpec};
use std::collections::BTreeMap;
use std::sync::Mutex;

const THREADS: [usize; 4] = [1, 2, 4, 8];

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

fn synthetic_stream(n: usize) -> EventStream {
    let (_, stream) = SyntheticConfig {
        num_events: n,
        ..Default::default()
    }
    .generate();
    stream
}

/// Wraps a filter and records every mark vector keyed by the window's first
/// event id, so runs can be compared mark-for-mark regardless of the order
/// the pool evaluated windows in.
struct MarkRecorder<F> {
    inner: F,
    seen: Mutex<BTreeMap<u64, Vec<bool>>>,
}

impl<F> MarkRecorder<F> {
    fn new(inner: F) -> Self {
        Self {
            inner,
            seen: Mutex::new(BTreeMap::new()),
        }
    }
}

impl<F: Filter> Filter for MarkRecorder<F> {
    fn mark(&self, window: &[PrimitiveEvent]) -> Vec<bool> {
        let marks = self.inner.mark(window);
        if let Some(first) = window.first() {
            self.seen.lock().unwrap().insert(first.id.0, marks.clone());
        }
        marks
    }

    fn scores(&self, window: &[PrimitiveEvent]) -> Option<Vec<f32>> {
        self.inner.scores(window)
    }

    fn name(&self) -> &'static str {
        "mark-recorder"
    }
}

/// `DlacepReport` comparison with bitwise float equality. Pool counters and
/// wall-clock times are the only fields allowed to differ.
fn assert_pipeline_reports_equal(a: &DlacepReport, b: &DlacepReport, ctx: &str) {
    assert_eq!(
        a.matches(),
        b.matches(),
        "{ctx}: matches (values and order)"
    );
    assert_eq!(a.events_total, b.events_total, "{ctx}: events_total");
    assert_eq!(a.events_relayed, b.events_relayed, "{ctx}: events_relayed");
    assert_eq!(
        a.filtering_ratio.to_bits(),
        b.filtering_ratio.to_bits(),
        "{ctx}: filtering_ratio must be bitwise identical"
    );
    assert_eq!(a.filter_faults, b.filter_faults, "{ctx}: filter_faults");
    assert_eq!(
        a.extractor_stats, b.extractor_stats,
        "{ctx}: extractor stats"
    );
}

fn assert_runtime_reports_equal(a: &RuntimeReport, b: &RuntimeReport, ctx: &str) {
    assert_eq!(a.matches, b.matches, "{ctx}: matches (values and order)");
    assert_eq!(a.events_offered, b.events_offered, "{ctx}: offered");
    assert_eq!(a.events_admitted, b.events_admitted, "{ctx}: admitted");
    assert_eq!(a.events_relayed, b.events_relayed, "{ctx}: relayed");
    assert_eq!(a.windows_evaluated, b.windows_evaluated, "{ctx}: windows");
    assert_eq!(a.windows_degraded, b.windows_degraded, "{ctx}: degraded");
    assert_eq!(a.guard, b.guard, "{ctx}: guard stats");
    assert_eq!(a.timeline, b.timeline, "{ctx}: timeline");
    assert_eq!(a.final_mode, b.final_mode, "{ctx}: final mode");
    assert_eq!(
        a.extractor_stats, b.extractor_stats,
        "{ctx}: extractor stats"
    );
}

#[test]
fn pipeline_marks_and_matches_identical_across_thread_counts() {
    for (name, pattern, stream) in [
        ("stock", seq_pattern(&[0, 1, 2], 12), stock_stream(3_000)),
        ("stock 4k", seq_pattern(&[0, 1, 2], 12), stock_stream(4_000)),
        (
            "synthetic",
            seq_pattern(&[0, 1], 8),
            synthetic_stream(3_000),
        ),
    ] {
        let baseline_filter = MarkRecorder::new(OracleFilter::new(pattern.clone()));
        let baseline = Dlacep::new(pattern.clone(), baseline_filter).unwrap();
        let baseline_report = baseline.run(stream.events());
        assert!(
            !baseline_report.matches().is_empty(),
            "{name}: pattern must match the stream for the test to mean anything"
        );
        assert!(baseline_report.pool.is_none(), "{name}: baseline is serial");
        let baseline_marks = baseline.filter().seen.lock().unwrap().clone();

        for t in THREADS {
            // Extraction is one engine at every thread count, so every
            // counter — the extractor's included — matches the baseline.
            let dl = Dlacep::builder(
                pattern.clone(),
                MarkRecorder::new(OracleFilter::new(pattern.clone())),
            )
            .parallelism(Parallelism::with_threads(t))
            .build()
            .unwrap();
            let report = dl.run(stream.events());
            let ctx = format!("{name}, threads = {t}");
            assert_pipeline_reports_equal(&report, &baseline_report, &ctx);
            assert_eq!(
                *dl.filter().seen.lock().unwrap(),
                baseline_marks,
                "{ctx}: per-window marks"
            );
            assert_eq!(report.pool.is_some(), t > 1, "{ctx}: pool reporting");
        }
    }
}

#[test]
fn streaming_runtime_identical_across_thread_counts() {
    for (name, pattern, stream) in [
        ("stock", seq_pattern(&[0, 1, 2], 12), stock_stream(2_500)),
        (
            "synthetic",
            seq_pattern(&[0, 1], 8),
            synthetic_stream(2_500),
        ),
    ] {
        let mut serial =
            StreamingDlacep::new(pattern.clone(), OracleFilter::new(pattern.clone())).unwrap();
        for ev in stream.events() {
            serial
                .ingest(ev.type_id, ev.ts.0, ev.attrs.clone())
                .unwrap();
        }
        let baseline = serial.finish();
        assert!(!baseline.matches.is_empty(), "{name}: stream must match");

        let mut rt =
            StreamingDlacep::new(pattern.clone(), OracleFilter::new(pattern.clone())).unwrap();
        // Uneven chunks so batch boundaries fall mid-window.
        for chunk in stream.events().chunks(97) {
            rt.ingest_batch(chunk.to_vec()).unwrap();
        }
        let report = rt.finish();
        assert_runtime_reports_equal(&report, &baseline, &format!("{name}, batched"));
    }
}
