//! Self-healing drift recovery, end to end on the stock workload.
//!
//! Train an event-network filter on one market regime, then inject concept
//! drift mid-stream: trading concentrates into the pattern's tickers, the
//! marking rate leaves the tolerance band, and the runtime fails open
//! (degraded exact mode — no match is lost). The retrain supervisor then
//! trains an int8-quantized candidate on the replay buffer, validates it
//! against exact-CEP labels on a held-out slice, and hot-swaps it in,
//! returning the runtime to NN filtering on the new regime.
//!
//! ```bash
//! cargo run --release --example drift_self_heal
//! ```

use dlacep::cep::{Pattern, PatternExpr};
use dlacep::core::prelude::*;
use dlacep::core::trainer::train_event_filter;
use dlacep::core::{ModeCause, QuantizedRetrainer, RetrainConfig, RuntimeMode};
use dlacep::data::{top_k_types, StockConfig};
use dlacep::events::PrimitiveEvent;
use dlacep::events::{EventStream, TypeId, WindowSpec};
use dlacep::obs::Registry;
use std::sync::Arc;

/// SEQ(a, b) over the four most-traded tickers, WITHIN 8 events.
fn pattern() -> Pattern {
    Pattern::new(
        PatternExpr::Seq(vec![
            PatternExpr::event(top_k_types(4), "a"),
            PatternExpr::event(top_k_types(4), "b"),
        ]),
        vec![],
        WindowSpec::Count(8),
    )
}

/// The live stream: a healthy regime, then a drifted one. The drift folds
/// every ticker id into `0..4` — trading volume collapses onto the
/// pattern's tickers, so the true marking rate jumps far above the
/// training-time baseline.
fn live_stream(healthy: usize, drifted: usize) -> (EventStream, u64) {
    let (_, phase1) = StockConfig {
        num_events: healthy,
        seed: 21,
        ..Default::default()
    }
    .generate();
    let (_, phase2) = StockConfig {
        num_events: drifted,
        seed: 22,
        ..Default::default()
    }
    .generate();

    let mut s = EventStream::new();
    for e in phase1.events() {
        s.push(e.type_id, e.ts.0, e.attrs.clone());
    }
    let drift_at = healthy as u64;
    for e in phase2.events() {
        s.push(TypeId(e.type_id.0 % 4), drift_at + e.ts.0, e.attrs.clone());
    }
    (s, drift_at)
}

fn main() {
    let p = pattern();

    // 1. Train the f32 event-network on the healthy regime.
    println!("training the event-network on the healthy regime...");
    let (_, history) = StockConfig {
        num_events: 8_000,
        seed: 20,
        ..Default::default()
    }
    .generate();
    let trained = train_event_filter(&p, &history, &TrainConfig::quick());
    println!(
        "  converged after {} epochs; test F1 = {:.3}",
        trained.report.epochs_run,
        trained.test.f1()
    );

    // Deploy int8 from the start: quantize with activation scales
    // calibrated on training windows. The retrainer re-runs this
    // calibration on the replay buffer for every candidate it produces.
    let calib: Vec<&[PrimitiveEvent]> = history.events().chunks(16).take(64).collect();
    let filter = QuantizedFilter::quantize(&trained.filter, &calib)
        .expect("trained network quantizes cleanly");

    // 2. Stream both regimes through a self-healing runtime. The drift
    //    monitor watches the marking rate against the training baseline;
    //    the supervisor retrains (int8-quantized, re-calibrated on the
    //    replay buffer) and hot-swaps after the validation gate passes.
    let (stream, drift_at) = live_stream(6_000, 6_000);
    let reg = Arc::new(Registry::with_journal_capacity(8192));
    let mut rt = StreamingDlacep::builder(p.clone(), filter)
        .config(RuntimeConfig {
            drift: Some(DriftConfig {
                baseline_rate: 0.5,
                tolerance: 0.5,
                alpha: 0.2,
                patience: 5,
            }),
            ..RuntimeConfig::default()
        })
        .retrain(
            // Backoff matches the replay capacity: by the time the first
            // attempt runs, the ring holds only post-drift windows, so one
            // retrain suffices (a shorter backoff heals too, but trains on
            // mixed regimes and may need a second cycle to converge).
            RetrainConfig {
                backoff_base_windows: 24,
                replay_windows: 24,
                holdout_every: 4,
                min_recall: 0.8,
                min_precision: 0.3,
                ..Default::default()
            },
            Box::new(QuantizedRetrainer {
                train: TrainConfig::quick(),
            }),
        )
        .obs(reg.clone())
        .build()
        .expect("valid self-healing configuration");

    println!(
        "\nstreaming {} events (drift injected at event #{drift_at})...",
        stream.len()
    );
    for e in stream.events() {
        rt.ingest(e.type_id, e.ts.0, e.attrs.clone())
            .expect("in-order stream");
    }
    let mode = rt.mode();
    let version = rt.active_model_version();
    let report = rt.finish();

    // 3. The mode timeline is the self-heal proof: Filtering → (drift)
    //    DegradedExact → (validated swap) Filtering.
    println!("\nmode timeline:");
    for t in &report.timeline {
        println!("  window {:>4}: {:?} ({:?})", t.window, t.mode, t.cause);
    }
    let retrain = report.retrain.expect("supervisor configured");
    println!("\nretrain supervisor:");
    println!("  final state     : {:?}", retrain.state);
    println!("  active model    : v{:?}", retrain.active_version);
    println!("  models accepted : {}", retrain.models_accepted);

    let snap = reg.snapshot();
    println!("\nmetrics snapshot:");
    for name in [
        "runtime.retrain_started",
        "runtime.retrain_retried",
        "runtime.retrain_validated",
        "runtime.retrain_rejected",
        "runtime.retrain_swapped",
        "runtime.windows_evaluated",
        "runtime.windows_degraded",
        "runtime.windows_marked_f32",
        "runtime.windows_marked_quant",
    ] {
        if let Some(v) = snap.counters.get(name) {
            println!("  {name:<32}: {v}");
        }
    }
    for (phase, window) in reg
        .journal()
        .snapshot()
        .entries
        .iter()
        .filter(|e| e.kind == "retrain")
        .filter_map(|e| {
            let phase = e.fields.iter().find(|(n, _)| n == "phase")?;
            let window = e.fields.iter().find(|(n, _)| n == "window")?;
            Some((phase.1.to_string(), window.1.to_string()))
        })
    {
        println!("  journal: retrain {phase} @ window {window}");
    }

    // 4. The contract this example demonstrates.
    assert_eq!(
        mode,
        RuntimeMode::Filtering,
        "the validated swap must return the runtime to NN mode"
    );
    assert_eq!(version, Some(1), "one accepted model");
    assert!(
        report.timeline.iter().any(|t| t.cause == ModeCause::Drift),
        "drift must have been detected"
    );
    assert!(
        report
            .timeline
            .iter()
            .any(|t| t.cause == ModeCause::Swapped),
        "the hot swap must be on the timeline"
    );
    assert!(
        snap.counters.get("runtime.windows_marked_quant").copied() > Some(0),
        "post-heal inference runs on the int8 path"
    );
    println!("\nself-heal complete: degraded on drift, retrained, validated, swapped ✓");
}
