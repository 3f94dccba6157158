//! A bit pin on the int8 filter's output: the `f32::to_bits` scores and the
//! marks of two deterministic quantized filters over fixed windows, one
//! window per forward pass (`mark`, `scores`) and eight
//! (`mark_batch`), at `T` = 31 and 32 (an odd `T` puts both directions of
//! the recurrence on the same middle step).
//!
//! `fixtures/quant_marks_pin.txt` was written by the commit before the
//! encoder ran its two directions in lockstep, running this file with
//! `RECORD_FIXTURE=1`; every later build must reproduce it bit for bit.
//! Only the encoder and the emission layer depend on the kernel level the
//! CPU dispatches to, and `dlacep_nn`'s `quant_pin_encoder_bytes_at_every_level`
//! pins those at every level; the head and the decode are one piece of
//! plain f32 code.
//!
//! The two filters are untrained (seeded initialisation): stock_int8's
//! shape (a 4-wide embedding, H 16, one BiLSTM layer) and a two-layer
//! H 7 stack, whose hidden width leaves a partial lane group.

use dlacep_cep::TypeSet;
use dlacep_core::filter::Filter;
use dlacep_core::model::{EventNetwork, NetworkConfig};
use dlacep_core::{EventEmbedder, EventNetFilter, QuantizedFilter};
use dlacep_events::{PrimitiveEvent, TypeId};

const FIXTURE: &str = include_str!("fixtures/quant_marks_pin.txt");

/// Windows per batched forward pass.
const BATCH: usize = 8;

/// `(name, relevant types, attributes, hidden, layers, seed)`.
const MODELS: [(&str, u32, usize, usize, usize, u64); 2] =
    [("stock", 2, 1, 16, 1, 7), ("deep", 3, 3, 7, 2, 11)];

/// A deterministic stream over five types (some relevant, the rest
/// sharing the embedder's "other" slot) whose attributes span both
/// saturation tails of the activations.
fn events(num_attrs: usize) -> Vec<PrimitiveEvent> {
    (0..700u64)
        .map(|i| {
            let attrs = (0..num_attrs as u64)
                .map(|k| {
                    let x = ((i * 37 + k * 11) as f64 * 0.61).sin() * 2.5;
                    if (i + k) % 29 == 0 {
                        x * 16.0
                    } else {
                        x
                    }
                })
                .collect();
            PrimitiveEvent::new(i, TypeId(((i * 7 + i / 3) % 5) as u32), i, attrs)
        })
        .collect()
}

fn filter(
    relevant: u32,
    num_attrs: usize,
    hidden: usize,
    layers: usize,
    seed: u64,
) -> QuantizedFilter {
    let types = TypeSet::new((0..relevant).map(TypeId).collect());
    let embedder = EventEmbedder::new(&types, num_attrs);
    let network = EventNetwork::new(NetworkConfig {
        input_dim: embedder.dim(),
        hidden,
        layers,
        seed,
    });
    let f32_filter = EventNetFilter::new(network, embedder);
    let evs = events(num_attrs);
    let calib: Vec<&[PrimitiveEvent]> = evs[..64].chunks(16).collect();
    QuantizedFilter::quantize(&f32_filter, &calib).expect("an untrained filter quantizes")
}

fn line(
    name: &str,
    t_len: usize,
    batch: usize,
    w: usize,
    marks: &[bool],
    scores: &[f32],
) -> String {
    let marks: String = marks.iter().map(|&m| if m { '1' } else { '0' }).collect();
    let scores: Vec<String> = scores
        .iter()
        .map(|s| format!("{:08x}", s.to_bits()))
        .collect();
    format!(
        "{name} T={t_len} B={batch} w={w} {marks} {}",
        scores.join(",")
    )
}

/// Every pinned line this build computes, in fixture order.
fn compute() -> Vec<String> {
    let mut lines = Vec::new();
    for (name, relevant, num_attrs, hidden, layers, seed) in MODELS {
        let q = filter(relevant, num_attrs, hidden, layers, seed);
        assert_eq!(q.embedder().dim(), relevant as usize + 1 + num_attrs);
        let evs = events(num_attrs);
        for t_len in [31, 32] {
            let windows: Vec<&[PrimitiveEvent]> = (0..BATCH)
                .map(|w| &evs[64 + w * (t_len + 3)..][..t_len])
                .collect();
            for (w, window) in windows.iter().enumerate() {
                let scores = q.scores(window).expect("the int8 filter scores");
                lines.push(line(name, t_len, 1, w, &q.mark(window), &scores));
            }
            for (w, (marks, scores)) in q.mark_batch(&windows, true).iter().enumerate() {
                let scores = scores.as_deref().expect("scores were asked for");
                lines.push(line(name, t_len, BATCH, w, marks, scores));
            }
        }
    }
    lines
}

#[test]
fn quant_marks_and_scores_reproduce_the_recorded_bits() {
    let got = compute();
    if std::env::var_os("RECORD_FIXTURE").is_some() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/fixtures/quant_marks_pin.txt"
        );
        std::fs::write(path, got.join("\n") + "\n").unwrap();
        return;
    }
    let want: Vec<&str> = FIXTURE.lines().collect();
    assert_eq!(got.len(), want.len(), "pinned line count");
    let mut marked = 0;
    for (got, want) in got.iter().zip(&want) {
        assert_eq!(got, want);
        marked += got.split(' ').nth(4).map_or(0, |m| m.matches('1').count());
    }
    // The pin means something only if both decisions occur.
    let positions: usize = want
        .iter()
        .filter_map(|l| l.split(' ').nth(4))
        .map(str::len)
        .sum();
    assert!(
        marked > 0 && marked < positions,
        "{marked} of {positions} marked"
    );
}
