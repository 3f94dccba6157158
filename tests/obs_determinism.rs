//! Determinism harness for the observability layer.
//!
//! The `dlacep-obs` contract (DESIGN.md "Observability") is that counter
//! values and journal `(kind, fields)` sequences outside the `pool.`
//! namespace are pure functions of the workload and configuration — never
//! of the thread count or of how the stream was cut into calls. These
//! tests run the batch pipeline under `threads ∈ {1, 4}`, and the streaming
//! runtime (healthy, fault-injected and retraining) fed one event per call
//! and in 97-event batches, against fresh registries, and require the
//! deterministic views to be exactly equal.

use dlacep::cep::{Pattern, PatternExpr, TypeSet};
use dlacep::core::prelude::*;
use dlacep::core::{ChaosTrainer, GuardConfig, ModelTrainer, Parallelism, TrainFault};
use dlacep::data::StockConfig;
use dlacep::events::{EventStream, PrimitiveEvent, TypeId, WindowSpec};
use dlacep::obs::{DeterministicView, Registry};
use std::sync::Arc;

const THREADS: [usize; 2] = [1, 4];
/// Streaming call sizes: one event per `ingest_batch`, then uneven chunks
/// whose boundaries fall mid-window.
const CHUNKS: [usize; 2] = [1, 97];

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

/// Faults keyed on window *content* (first event id), so the injection is a
/// pure function of the workload and identical however the stream is cut
/// into calls.
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

#[test]
fn pipeline_obs_deterministic_across_thread_counts() {
    let pattern = seq_pattern(&[0, 1, 2], 12);
    let stream = stock_stream(3_000);

    let mut views: Vec<(usize, DeterministicView)> = Vec::new();
    for t in THREADS {
        let dl = Dlacep::builder(pattern.clone(), OracleFilter::new(pattern.clone()))
            .parallelism(Parallelism::with_threads(t))
            .obs(Arc::new(Registry::enabled()))
            .build()
            .unwrap();
        let report = dl.run(stream.events());
        let snap = report.obs.expect("registry is enabled");
        assert!(
            snap.counters.values().any(|&v| v > 0),
            "threads = {t}: pipeline counters must be populated"
        );
        views.push((t, snap.deterministic_view(&["pool."])));
    }
    let (_, baseline) = &views[0];
    for (t, view) in &views[1..] {
        assert_eq!(
            view, baseline,
            "threads = {t}: pipeline counters/journal must not depend on thread count"
        );
    }
}

#[test]
fn streaming_runtime_obs_deterministic_across_thread_counts() {
    let pattern = seq_pattern(&[0, 1, 2], 12);
    let stream = stock_stream(2_500);

    let mut views: Vec<(usize, DeterministicView)> = Vec::new();
    for c in CHUNKS {
        let mut rt = StreamingDlacep::builder(pattern.clone(), OracleFilter::new(pattern.clone()))
            .obs(Arc::new(Registry::enabled()))
            .build()
            .unwrap();
        for chunk in stream.events().chunks(c) {
            rt.ingest_batch(chunk.to_vec()).unwrap();
        }
        let report = rt.finish();
        let snap = report.obs.expect("registry is enabled");
        views.push((c, snap.deterministic_view(&["pool."])));
    }
    let (_, baseline) = &views[0];
    assert!(
        baseline.journal.iter().any(|(kind, _)| kind == "mode"),
        "journal must record the initial mode"
    );
    for (c, view) in &views[1..] {
        assert_eq!(
            view, baseline,
            "chunks of {c}: runtime counters/journal must not depend on call size"
        );
    }
}

#[test]
fn faulting_runtime_obs_deterministic_across_thread_counts() {
    let pattern = seq_pattern(&[0, 1, 2], 12);
    let stream = stock_stream(2_500);

    let mut views: Vec<(usize, DeterministicView)> = Vec::new();
    for c in CHUNKS {
        let cfg = RuntimeConfig {
            guard: GuardConfig {
                fault_threshold: 2,
                cooldown_windows: 4,
                ..GuardConfig::default()
            },
            ..Default::default()
        };
        let filter = IdKeyedFaults {
            inner: OracleFilter::new(pattern.clone()),
        };
        let mut rt = StreamingDlacep::builder(pattern.clone(), filter)
            .config(cfg)
            .obs(Arc::new(Registry::enabled()))
            .build()
            .unwrap();
        for chunk in stream.events().chunks(c) {
            rt.ingest_batch(chunk.to_vec()).unwrap();
        }
        let report = rt.finish();
        assert!(
            report.guard.faults_total > 0,
            "chunks of {c}: faults must actually fire"
        );
        let snap = report.obs.expect("registry is enabled");
        views.push((c, snap.deterministic_view(&["pool."])));
    }
    let (_, baseline) = &views[0];
    assert!(
        baseline.journal.iter().any(|(kind, _)| kind == "breaker"),
        "journal must record breaker transitions"
    );
    for (c, view) in &views[1..] {
        assert_eq!(
            view, baseline,
            "chunks of {c}: fault/breaker counters and journal must not depend on call size"
        );
    }
}

/// A filter that silently dies once the stream passes `silent_from` —
/// keyed on window content (first event id), so drift fires at the same
/// window however the stream is cut into calls.
struct SilentFrom {
    oracle: OracleFilter,
    silent_from: u64,
}

impl Filter for SilentFrom {
    fn mark(&self, window: &[PrimitiveEvent]) -> Vec<bool> {
        if window.first().is_some_and(|e| e.id.0 >= self.silent_from) {
            vec![false; window.len()]
        } else {
            self.oracle.mark(window)
        }
    }

    fn name(&self) -> &'static str {
        "silent-from"
    }
}

/// Oracle-equivalent healer; deterministic in `(windows, attempt)` by
/// construction (it ignores both).
struct Healer {
    pattern: Pattern,
}

impl ModelTrainer<SilentFrom> for Healer {
    fn retrain(
        &self,
        pattern: &Pattern,
        _windows: &[Vec<PrimitiveEvent>],
        _attempt: u64,
    ) -> Result<SilentFrom, String> {
        Ok(SilentFrom {
            oracle: OracleFilter::new(pattern.clone()),
            silent_from: u64::MAX,
        })
    }

    fn encode(&self, filter: &SilentFrom) -> Vec<u8> {
        filter.silent_from.to_le_bytes().to_vec()
    }

    fn decode(&self, bytes: &[u8]) -> Result<SilentFrom, String> {
        let arr: [u8; 8] = bytes.try_into().map_err(|_| "bad length".to_string())?;
        Ok(SilentFrom {
            oracle: OracleFilter::new(self.pattern.clone()),
            silent_from: u64::from_le_bytes(arr),
        })
    }
}

#[test]
fn retrain_lifecycle_obs_deterministic_across_thread_counts() {
    let pattern = seq_pattern(&[0, 1], 6);
    // A/B every fourth event: a stable, non-zero oracle marking rate, so
    // the silent filter is the only thing that moves the drift statistic.
    let mut stream = EventStream::new();
    for i in 0..600u64 {
        let t = match i % 4 {
            0 => 0,
            2 => 1,
            _ => 2,
        };
        stream.push(TypeId(t), i, vec![i as f64]);
    }

    let mut views: Vec<(usize, DeterministicView)> = Vec::new();
    for c in CHUNKS {
        let cfg = RuntimeConfig {
            drift: Some(DriftConfig {
                baseline_rate: 0.5,
                tolerance: 0.8,
                alpha: 1.0,
                patience: 1,
            }),
            ..Default::default()
        };
        // Attempt 0 panics inside the training job; the retry (attempt 1)
        // heals. Both transitions must journal at the same window index
        // under every call size.
        let trainer = ChaosTrainer::new(Box::new(Healer {
            pattern: pattern.clone(),
        }))
        .fault_at(0, TrainFault::Panic);
        let filter = SilentFrom {
            oracle: OracleFilter::new(pattern.clone()),
            silent_from: 300,
        };
        let mut rt = StreamingDlacep::builder(pattern.clone(), filter)
            .config(cfg)
            .retrain(
                RetrainConfig {
                    backoff_base_windows: 2,
                    replay_windows: 16,
                    holdout_every: 4,
                    ..Default::default()
                },
                Box::new(trainer),
            )
            .obs(Arc::new(Registry::enabled()))
            .build()
            .unwrap();
        for chunk in stream.events().chunks(c) {
            rt.ingest_batch(chunk.to_vec()).unwrap();
        }
        let report = rt.finish();
        let retrain = report.retrain.expect("retrain supervisor is configured");
        assert_eq!(
            retrain.active_version,
            Some(1),
            "chunks of {c}: the retried attempt must swap in"
        );
        let snap = report.obs.expect("registry is enabled");
        views.push((c, snap.deterministic_view(&["pool."])));
    }
    let (_, baseline) = &views[0];
    assert!(
        baseline.journal.iter().any(|(kind, _)| kind == "retrain"),
        "journal must record supervisor transitions"
    );
    assert!(
        baseline
            .journal
            .iter()
            .any(|(kind, fields)| kind == "mode" && format!("{fields:?}").contains("Swapped")),
        "journal must record the hot swap as a mode transition"
    );
    for (c, view) in &views[1..] {
        assert_eq!(
            view, baseline,
            "chunks of {c}: retrain counters/journal must not depend on call size"
        );
    }
}
