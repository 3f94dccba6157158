//! Figure 10 — qualitative analysis of the matches DLACEP misses.
//!
//! On `Q_A10(j=4)`, the paper partitions detected (D) vs undetected (U)
//! matches by the variance of the volume attribute across the match's
//! events: missed matches show markedly higher variance, because smooth
//! volume transitions are easier for the network to label.
//!
//! This binary reproduces the histogram: per-match volume variance is
//! bucketed for both groups, and the group means are reported.

use dlacep_bench::harness::split_stream;
use dlacep_bench::queries::real::q_a10;
use dlacep_bench::ExpConfig;
use dlacep_core::prelude::*;
use dlacep_core::trainer::train_event_filter;
use dlacep_data::label::ground_truth_matches;
use dlacep_data::StockConfig;
use dlacep_events::{EventId, PrimitiveEvent};
use std::collections::{BTreeSet, HashMap};
use std::io::Write as _;

fn volume_variance(ids: &[EventId], by_id: &HashMap<u64, &PrimitiveEvent>) -> f64 {
    let vols: Vec<f64> = ids
        .iter()
        .filter_map(|id| by_id.get(&id.0).and_then(|e| e.attr(0)))
        .collect();
    if vols.len() < 2 {
        return 0.0;
    }
    let mean = vols.iter().sum::<f64>() / vols.len() as f64;
    vols.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / vols.len() as f64
}

fn main() {
    let cfg = ExpConfig::scaled();
    let (_, stream) = StockConfig {
        num_events: cfg.train_events + cfg.eval_events,
        ..Default::default()
    }
    .generate();
    let w = 22;
    let pattern = q_a10(4, 6, 6, &[(0.7, 1.3); 4], w);

    let (train_stream, eval) = split_stream(&stream, cfg.train_events, cfg.eval_events);
    let trained = train_event_filter(&pattern, &train_stream, &cfg.train);
    println!(
        "event-network trained: {} epochs, test F1 {:.3}",
        trained.report.epochs_run,
        trained.test.f1()
    );
    let dl = Dlacep::new(pattern.clone(), trained.filter).expect("valid assembler");
    let report = dl.run(&eval);
    let truth = ground_truth_matches(&pattern, &eval);

    let found: BTreeSet<Vec<EventId>> = report
        .matches()
        .iter()
        .map(|m| m.event_ids.to_vec())
        .collect();
    let by_id: HashMap<u64, &PrimitiveEvent> = eval.iter().map(|e| (e.id.0, e)).collect();

    let mut detected = Vec::new();
    let mut undetected = Vec::new();
    for m in &truth {
        let var = volume_variance(&m.event_ids, &by_id);
        if found.contains(m.key()) {
            detected.push(var);
        } else {
            undetected.push(var);
        }
    }
    let mean = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    println!("\n== Fig 10: volume-variance distribution of detected vs missed matches ==");
    println!(
        "detected matches:   {:>7}  mean variance {:.4}",
        detected.len(),
        mean(&detected)
    );
    println!(
        "undetected matches: {:>7}  mean variance {:.4}",
        undetected.len(),
        mean(&undetected)
    );

    // Histogram over shared buckets.
    let max_var = detected
        .iter()
        .chain(&undetected)
        .fold(0.0_f64, |m, &v| m.max(v))
        .max(1e-9);
    const BUCKETS: usize = 8;
    let mut hist_d = [0usize; BUCKETS];
    let mut hist_u = [0usize; BUCKETS];
    for &v in &detected {
        hist_d[(((v / max_var) * BUCKETS as f64) as usize).min(BUCKETS - 1)] += 1;
    }
    for &v in &undetected {
        hist_u[(((v / max_var) * BUCKETS as f64) as usize).min(BUCKETS - 1)] += 1;
    }
    println!(
        "{:>18} {:>10} {:>10}",
        "variance bucket", "detected", "missed"
    );
    for b in 0..BUCKETS {
        println!(
            "[{:6.4}, {:6.4}) {:>10} {:>10}",
            max_var * b as f64 / BUCKETS as f64,
            max_var * (b + 1) as f64 / BUCKETS as f64,
            hist_d[b],
            hist_u[b]
        );
    }
    // Paper's shape: the undetected distribution is shifted right (higher
    // variance).
    println!(
        "\nshape check: mean variance missed / detected = {:.2} (paper: > 1)",
        mean(&undetected) / mean(&detected).max(1e-12)
    );

    let _ = std::fs::create_dir_all("results");
    if let Ok(mut f) = std::fs::File::create("results/fig10_match_quality.json") {
        let payload = serde_json::json!({
            "detected_count": detected.len(),
            "undetected_count": undetected.len(),
            "detected_mean_variance": mean(&detected),
            "undetected_mean_variance": mean(&undetected),
            "hist_detected": hist_d.to_vec(),
            "hist_undetected": hist_u.to_vec(),
            "max_variance": max_var,
        });
        let _ = f.write_all(serde_json::to_string_pretty(&payload).unwrap().as_bytes());
        println!("[saved results/fig10_match_quality.json]");
    }
}
