//! Int8 vs f32 marking kernels: time [`EventNetwork::mark`] against the
//! [`QuantizedEventNetwork`] path on identical windows, single threaded,
//! across the network shapes the figures use, and sweep the number of
//! windows stacked into one batched forward pass — the sweep
//! `dlacep_core::MARK_BATCH` is chosen from. Per shape it also splits the
//! single-window int8 time into the encoder, the emission layer and the
//! BI-CRF head, and times the fused LSTM cell update on its own at every
//! kernel level the CPU has. Dumps `results/BENCH_nn_kernels.json`.
//!
//! ```bash
//! cargo run --release -p dlacep-bench --bin nn_kernels
//! ```

use dlacep_core::model::{EventNetwork, NetworkConfig};
use dlacep_core::quantized::{simd_level, QuantizedEventNetwork};
use dlacep_core::MARK_BATCH;
use dlacep_nn::quant::{time_cell_update, ScratchArena, UNIT_SCALE};
use dlacep_nn::{
    Initializer, Linear, ParamStore, QuantizedLinear, QuantizedStackedBiLstm, StackedBiLstm,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use std::io::Write;
use std::time::Instant;

/// Windows per batched forward pass tried by the sweep.
const BATCH_SWEEP: [usize; 6] = [1, 2, 4, 8, 16, 32];

/// One batch size's per-window time.
#[derive(Debug, Serialize)]
struct SweepPoint {
    batch: usize,
    int8_nanos_per_window: f64,
}

/// The fused cell update alone: one step over `rows × hidden` units.
#[derive(Debug, Serialize)]
struct CellPoint {
    simd_level: String,
    rows: usize,
    nanos_per_step: f64,
}

/// One shape's head-to-head numbers.
#[derive(Debug, Serialize)]
struct KernelRow {
    scenario: String,
    t_len: usize,
    input_dim: usize,
    hidden: usize,
    layers: usize,
    simd_level: String,
    windows_timed: usize,
    f32_nanos_per_window: f64,
    /// One window per forward pass (`batch = 1`).
    int8_nanos_per_window: f64,
    /// Of which the stacked-BiLSTM encoder (a same-shape encoder alone)…
    encoder_nanos_per_window: f64,
    /// …the emission layer (a same-shape layer alone, over the encoder's
    /// quantized output rows)…
    emission_nanos_per_window: f64,
    /// …and the rest: the BI-CRF head and the decode.
    crf_head_nanos_per_window: f64,
    /// One cell-update step at one row and at `MARK_BATCH` rows, per level.
    cell_update: Vec<CellPoint>,
    speedup: f64,
    /// `MARK_BATCH` windows per forward pass, as the pipelines run it.
    mark_batch: usize,
    batched_int8_nanos_per_window: f64,
    batched_speedup: f64,
    batch_sweep: Vec<SweepPoint>,
    marks_agree: f64,
}

fn windows(rng: &mut StdRng, count: usize, t_len: usize, dim: usize) -> Vec<Vec<Vec<f32>>> {
    (0..count)
        .map(|_| {
            (0..t_len)
                .map(|_| (0..dim).map(|_| rng.gen_range(-1.5f32..1.5)).collect())
                .collect()
        })
        .collect()
}

/// Rounds each timing is the best of: the sandbox drifts between faster
/// and slower stretches lasting seconds, and the minimum is what repeats.
const ROUNDS: usize = 7;

/// Best-of-[`ROUNDS`] mean nanoseconds per window of `pass`, which
/// processes `windows_per_pass` windows per call.
fn time_per_window(reps: usize, windows_per_pass: usize, mut pass: impl FnMut()) -> f64 {
    (0..ROUNDS)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..reps {
                pass();
            }
            start.elapsed().as_nanos() as f64 / (reps * windows_per_pass) as f64
        })
        .fold(f64::INFINITY, f64::min)
}

fn bench_shape(
    scenario: &str,
    input_dim: usize,
    hidden: usize,
    layers: usize,
    t_len: usize,
) -> KernelRow {
    let net = EventNetwork::new(NetworkConfig {
        input_dim,
        hidden,
        layers,
        seed: 7,
    });
    let mut rng = StdRng::seed_from_u64(11);
    let calib = windows(&mut rng, 8, t_len, input_dim);
    let quant =
        QuantizedEventNetwork::quantize(&net, calib.iter().map(Vec::as_slice)).expect("quantizes");

    let wins = windows(&mut rng, 64, t_len, input_dim);
    let refs: Vec<&[Vec<f32>]> = wins.iter().map(Vec::as_slice).collect();
    let mut arena = ScratchArena::new();
    let mut out = Vec::new();

    // Warm-up (also sizes the arena) + agreement count.
    let mut agree = 0usize;
    let mut total = 0usize;
    for w in &wins {
        let a = net.mark(w);
        quant.mark_into(w, &mut arena, &mut out);
        agree += a.iter().zip(&out).filter(|(x, y)| x == y).count();
        total += a.len();
    }

    let reps = 2;
    let f32_nanos = time_per_window(reps, wins.len(), || {
        for w in &wins {
            std::hint::black_box(net.mark(std::hint::black_box(w)));
        }
    });

    let batch_sweep: Vec<SweepPoint> = BATCH_SWEEP
        .iter()
        .map(|&batch| SweepPoint {
            batch,
            int8_nanos_per_window: time_per_window(reps, wins.len(), || {
                for group in refs.chunks(batch) {
                    quant.mark_batch_into(std::hint::black_box(group), &mut arena, &mut out);
                    std::hint::black_box(&out);
                }
            }),
        })
        .collect();
    let at = |batch: usize| {
        batch_sweep
            .iter()
            .find(|p| p.batch == batch)
            .map(|p| p.int8_nanos_per_window)
            .expect("MARK_BATCH is one of the swept sizes")
    };
    let (int8_nanos, batched_nanos) = (at(1), at(MARK_BATCH));

    // The encoder alone: inference time does not depend on weight values,
    // so a freshly initialised encoder of the same shape stands in.
    let mut store = ParamStore::new();
    let mut init = Initializer::seeded(1);
    let stack = StackedBiLstm::new(&mut store, &mut init, input_dim, hidden, layers);
    let encoder = QuantizedStackedBiLstm::quantize(&store, &stack, 1.5 / 127.0).expect("finite");
    let encoder_nanos = time_per_window(reps, wins.len(), || {
        for w in &wins {
            arena.io_a.clear();
            arena.io_a.extend(w.iter().flatten());
            encoder.infer_in_place(t_len, std::hint::black_box(&mut arena));
        }
    });

    // Likewise the emission layer, over the rows the encoder just left.
    let emit_layer = Linear::new(&mut store, &mut init, 2 * hidden, 2);
    let emission = QuantizedLinear::quantize(&store, &emit_layer, UNIT_SCALE).expect("finite");
    let mut emitted = Vec::new();
    let emission_nanos = time_per_window(reps, wins.len(), || {
        for _ in &wins {
            emission.infer_quantized(t_len, std::hint::black_box(&arena.xq), &mut emitted);
            std::hint::black_box(&emitted);
        }
    });

    let cell_update = [1, MARK_BATCH]
        .into_iter()
        .flat_map(|rows| {
            let best = (0..ROUNDS)
                .map(|_| time_cell_update(rows, hidden, 2_000))
                .reduce(|best, round| {
                    let faster = best.iter().zip(round);
                    faster.map(|(b, r)| (b.0, b.1.min(r.1))).collect()
                })
                .expect("at least one round");
            best.into_iter().map(move |(level, nanos)| CellPoint {
                simd_level: level.to_string(),
                rows,
                nanos_per_step: nanos,
            })
        })
        .collect();

    KernelRow {
        scenario: scenario.to_string(),
        t_len,
        input_dim,
        hidden,
        layers,
        simd_level: simd_level().to_string(),
        windows_timed: ROUNDS * reps * wins.len(),
        f32_nanos_per_window: f32_nanos,
        int8_nanos_per_window: int8_nanos,
        encoder_nanos_per_window: encoder_nanos,
        emission_nanos_per_window: emission_nanos,
        crf_head_nanos_per_window: (int8_nanos - encoder_nanos - emission_nanos).max(0.0),
        cell_update,
        speedup: f32_nanos / int8_nanos,
        mark_batch: MARK_BATCH,
        batched_int8_nanos_per_window: batched_nanos,
        batched_speedup: f32_nanos / batched_nanos,
        batch_sweep,
        marks_agree: agree as f64 / total as f64,
    }
}

fn main() {
    let rows = vec![
        // DLACEP_FULL training scale: 48 hidden units, 2 BiLSTM layers.
        bench_shape("full_train", 16, 48, 2, 32),
        // Stock-stream scale: the Fig. 8/9 embedder dims with a mid network.
        bench_shape("stock", 24, 64, 1, 32),
        // Paper scale: 150 hidden units, 2 BiLSTM layers (Table 3).
        bench_shape("paper", 30, 150, 2, 32),
        // Long marking window: assembler MarkSize = 2W for W = 32.
        bench_shape("long_window", 24, 64, 1, 64),
    ];

    println!(
        "integer kernels: {}; MARK_BATCH = {MARK_BATCH}",
        simd_level()
    );
    println!(
        "{:<12} {:>3} {:>3} {:>4} {:>2} {:>11} {:>11} {:>10} {:>9} {:>9} {:>11} {:>7} {:>8} {:>6}",
        "scenario",
        "T",
        "in",
        "hid",
        "L",
        "f32 ns/win",
        "int8 B=1",
        "encoder",
        "emission",
        "crf head",
        "int8 B=8",
        "x B=1",
        "x B=8",
        "agree"
    );
    for r in &rows {
        println!(
            "{:<12} {:>3} {:>3} {:>4} {:>2} {:>11.0} {:>11.0} {:>10.0} {:>9.0} {:>9.0} {:>11.0} {:>6.2}x {:>7.2}x {:>5.1}%",
            r.scenario,
            r.t_len,
            r.input_dim,
            r.hidden,
            r.layers,
            r.f32_nanos_per_window,
            r.int8_nanos_per_window,
            r.encoder_nanos_per_window,
            r.emission_nanos_per_window,
            r.crf_head_nanos_per_window,
            r.batched_int8_nanos_per_window,
            r.speedup,
            r.batched_speedup,
            100.0 * r.marks_agree
        );
    }
    println!("\nbatch sweep, int8 ns/window:");
    for r in &rows {
        let sweep: Vec<String> = r
            .batch_sweep
            .iter()
            .map(|p| format!("B={} {:.0}", p.batch, p.int8_nanos_per_window))
            .collect();
        println!("{:<12} {}", r.scenario, sweep.join("  "));
    }

    println!("\ncell update, ns per step of rows x H_pad:");
    for r in &rows {
        let cells: Vec<String> = r
            .cell_update
            .iter()
            .map(|p| format!("{} B={} {:.0}", p.simd_level, p.rows, p.nanos_per_step))
            .collect();
        println!("{:<12} H={:<4} {}", r.scenario, r.hidden, cells.join("  "));
    }

    let dir = std::path::Path::new("results");
    std::fs::create_dir_all(dir).expect("create results/");
    let path = dir.join("BENCH_nn_kernels.json");
    let json = serde_json::to_string_pretty(&rows).expect("rows serialize");
    let mut f = std::fs::File::create(&path).expect("create BENCH_nn_kernels.json");
    f.write_all(json.as_bytes()).expect("write rows");
    println!("[saved {}]", path.display());
}
