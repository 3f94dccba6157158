//! Figure 14 — simulated time-based window evaluation.
//!
//! Time-based windows hold *variable* numbers of events, but LSTM training
//! wants fixed-size sequences. Following the paper, the stock stream is
//! partitioned into windows of random sizes up to `MW` events; during
//! training every window is padded to `MW` with blank events. The pattern is
//! `Q_A5(j=2)` (Kleene patterns are the most sensitive to window-size
//! fluctuation). The gain is reported per `MW`.
//!
//! Shape to reproduce: DLACEP keeps a large (if somewhat reduced vs the
//! count-based case) throughput gain across all `MW` values, with recall
//! above 0.9.

use dlacep_bench::queries::real::q_a5;
use dlacep_bench::ExpConfig;
use dlacep_cep::engine::CepEngine;
use dlacep_cep::plan::Plan;
use dlacep_cep::NfaEngine;
use dlacep_core::model::{EventNetwork, NetworkConfig};
use dlacep_core::EventEmbedder;
use dlacep_data::label::matches_in_sample;
use dlacep_data::StockConfig;
use dlacep_events::{EventId, PrimitiveEvent};
use dlacep_nn::{Adam, BatchSampler};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use std::collections::BTreeSet;
use std::io::Write as _;
use std::time::Instant;

/// Split events into consecutive chunks of random sizes in `[mw/2, mw]`.
fn random_chunks(events: &[PrimitiveEvent], mw: usize, seed: u64) -> Vec<&[PrimitiveEvent]> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::new();
    let mut start = 0;
    while start < events.len() {
        let size = rng.gen_range((mw / 2).max(1)..=mw);
        let end = (start + size).min(events.len());
        out.push(&events[start..end]);
        start = end;
    }
    out
}

#[derive(Serialize)]
struct Point {
    mw: usize,
    gain: f64,
    recall: f64,
}

fn run_mw(mw: usize, cfg: &ExpConfig, stream_events: &[PrimitiveEvent]) -> Point {
    let pattern = q_a5(2, 8, 3, 0.7, 1.4, mw as u64);
    let plan = Plan::compile(&pattern).expect("compiles");
    let embedder = EventEmbedder::for_plan(&plan, 1);

    let split = (stream_events.len() * 2) / 3;
    let (train_events, eval_events) = stream_events.split_at(split);

    // ---- Training on padded random windows ------------------------------
    let train_chunks = random_chunks(train_events, mw, 11);
    let mut samples: Vec<(Vec<Vec<f32>>, Vec<bool>)> = Vec::with_capacity(train_chunks.len());
    for chunk in &train_chunks {
        let matches = matches_in_sample(&pattern, chunk);
        let positive: BTreeSet<u64> = matches
            .iter()
            .flat_map(|m| m.event_ids.iter().map(|id| id.0))
            .collect();
        let mut labels: Vec<bool> = chunk.iter().map(|e| positive.contains(&e.id.0)).collect();
        labels.resize(mw, false); // padding labels
        samples.push((embedder.embed_window(chunk, mw), labels));
    }
    // Balance: duplicate windows that contain matches.
    let pos_idx: Vec<usize> = (0..samples.len())
        .filter(|&i| samples[i].1.iter().any(|&l| l))
        .collect();
    let neg = samples.len() - pos_idx.len();
    if !pos_idx.is_empty() && neg > pos_idx.len() {
        let copies = (neg / pos_idx.len()).saturating_sub(1).min(15);
        for &i in &pos_idx {
            for _ in 0..copies {
                samples.push(samples[i].clone());
            }
        }
    }
    let mut net = EventNetwork::new(NetworkConfig {
        input_dim: embedder.dim(),
        hidden: cfg.train.hidden,
        layers: cfg.train.layers,
        seed: cfg.train.seed,
    });
    let mut opt = Adam::new(0.02);
    let mut sampler = BatchSampler::new(samples.len(), 5);
    let mut last_loss = 0.0;
    for _epoch in 0..cfg.train.max_epochs {
        let mut loss = 0.0;
        let mut batches = 0;
        for batch_idx in sampler.epoch(32) {
            let batch: Vec<(&[Vec<f32>], &[bool])> = batch_idx
                .iter()
                .map(|&i| (samples[i].0.as_slice(), samples[i].1.as_slice()))
                .collect();
            loss += net.train_batch(&batch, &mut opt, cfg.train.grad_clip).loss;
            batches += 1;
        }
        last_loss = loss / batches.max(1) as f32;
    }
    let pos_windows = samples.iter().filter(|(_, l)| l.iter().any(|&x| x)).count();
    eprintln!(
        "  [mw={mw}] train windows {} ({} positive), final loss {:.3}",
        samples.len(),
        pos_windows,
        last_loss
    );

    // ---- Evaluation: per-window ECEP vs filter + per-window extraction --
    let eval_chunks = random_chunks(eval_events, mw, 13);

    let ecep_start = Instant::now();
    let mut truth: BTreeSet<Vec<EventId>> = BTreeSet::new();
    for chunk in &eval_chunks {
        let mut engine = NfaEngine::new(&pattern).expect("compiles");
        for m in engine.run(chunk) {
            truth.insert(m.event_ids.to_vec());
        }
    }
    let ecep_secs = ecep_start.elapsed().as_secs_f64();

    let acep_start = Instant::now();
    let mut found: BTreeSet<Vec<EventId>> = BTreeSet::new();
    for chunk in &eval_chunks {
        let embeds = embedder.embed_window(chunk, chunk.len());
        let marks: Vec<bool> = match cfg.train.mark_threshold {
            None => net.mark(&embeds),
            Some(t) => net.marginals(&embeds).into_iter().map(|p| p > t).collect(),
        };
        let filtered: Vec<PrimitiveEvent> = chunk
            .iter()
            .zip(&marks)
            .filter(|(_, &m)| m)
            .map(|(e, _)| e.clone())
            .collect();
        if filtered.is_empty() {
            continue;
        }
        let mut engine = NfaEngine::new(&pattern).expect("compiles");
        for m in engine.run(&filtered) {
            found.insert(m.event_ids.to_vec());
        }
    }
    let acep_secs = acep_start.elapsed().as_secs_f64();

    let common = truth.intersection(&found).count();
    let recall = if truth.is_empty() {
        1.0
    } else {
        common as f64 / truth.len() as f64
    };
    let gain = if acep_secs > 0.0 {
        ecep_secs / acep_secs
    } else {
        f64::INFINITY
    };
    eprintln!(
        "  [mw={mw}] truth {} found {} common {}",
        truth.len(),
        found.len(),
        common
    );
    Point { mw, gain, recall }
}

fn main() {
    let cfg = ExpConfig::scaled();
    let (_, stream) = StockConfig {
        num_events: cfg.train_events + cfg.eval_events,
        ..Default::default()
    }
    .generate();
    println!("== Fig 14: simulated time-based windows (pattern Q_A5(j=2)) ==");
    println!("{:>5} {:>9} {:>8}", "MW", "gain", "recall");
    let mut points = Vec::new();
    for mw in [24usize, 32, 40] {
        let p = run_mw(mw, &cfg, stream.events());
        println!("{:>5} {:>9.2} {:>8.3}", p.mw, p.gain, p.recall);
        points.push(p);
    }
    let _ = std::fs::create_dir_all("results");
    if let Ok(mut f) = std::fs::File::create("results/fig14_time_windows.json") {
        let _ = f.write_all(serde_json::to_string_pretty(&points).unwrap().as_bytes());
        println!("[saved results/fig14_time_windows.json]");
    }
}
