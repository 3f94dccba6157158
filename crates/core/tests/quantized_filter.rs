//! [`QuantizedFilter`] as a drop-in [`Filter`]: agreement with the f32
//! filter it was quantized from inside the full batch pipeline, zero heap
//! allocations per window in steady state, compatibility with the filter
//! guard's score validation, independence of a window's marks from batching
//! and pooling, checkpoint/restore equivalence under the streaming runtime,
//! and decoding of a model persisted before the kernels were rebuilt.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use dlacep_cep::{Pattern, PatternExpr, TypeSet};
use dlacep_core::durable::{decode_checkpoint, encode_checkpoint};
use dlacep_core::filter::Filter;
use dlacep_core::runtime::StreamingDlacep;
use dlacep_core::trainer::{train_event_filter, TrainConfig};
use dlacep_core::{
    Dlacep, EventNetFilter, GuardConfig, Parallelism, QuantizedFilter, RuntimeConfig,
};
use dlacep_data::SyntheticConfig;
use dlacep_events::{EventStream, PrimitiveEvent, TypeId, WindowSpec};
use dlacep_obs::Registry;

/// Allocation counter gated per-thread so parallel test threads don't
/// pollute each other's counts. Counting is off unless the current thread
/// explicitly arms it.
struct CountingAlloc;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ARMED.with(|a| {
            if a.get() {
                ALLOCS.with(|c| c.set(c.get() + 1));
            }
        });
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ARMED.with(|a| {
            if a.get() {
                ALLOCS.with(|c| c.set(c.get() + 1));
            }
        });
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn count_allocs(f: impl FnOnce()) -> u64 {
    ALLOCS.with(|c| c.set(0));
    ARMED.with(|a| a.set(true));
    f();
    ARMED.with(|a| a.set(false));
    ALLOCS.with(|c| c.get())
}

fn seq_pattern(types: &[u32], w: u64) -> Pattern {
    let leaves = types
        .iter()
        .enumerate()
        .map(|(i, &t)| PatternExpr::event(TypeSet::single(TypeId(t)), format!("s{i}")))
        .collect();
    Pattern::new(PatternExpr::Seq(leaves), vec![], WindowSpec::Count(w))
}

/// Train a quick event-network filter and quantize it, returning both plus
/// the held-out evaluation slice.
fn trained_pair() -> (EventNetFilter, QuantizedFilter, Vec<PrimitiveEvent>) {
    let (_, stream) = SyntheticConfig {
        num_events: 8_000,
        ..Default::default()
    }
    .generate();
    let pattern = seq_pattern(&[0, 1], 8);
    let events = stream.events();
    let train = EventStream::from_events(events[..6_000].to_vec()).unwrap();
    let eval = events[6_000..].to_vec();

    let mut cfg = TrainConfig::quick();
    cfg.max_epochs = 8;
    let f32_filter = train_event_filter(&pattern, &train, &cfg).filter;

    let calib: Vec<&[PrimitiveEvent]> = events[..6_000].chunks(16).take(16).collect();
    let quant = QuantizedFilter::quantize(&f32_filter, &calib).unwrap();
    (f32_filter, quant, eval)
}

#[test]
fn quantized_filter_drops_into_pipeline_and_tracks_f32() {
    let (f32_filter, quant, eval) = trained_pair();
    let pattern = seq_pattern(&[0, 1], 8);

    // Window-level mark agreement: int8 arithmetic may flip events whose
    // marginal sits exactly at the decision boundary, but nothing more.
    let (mut agree, mut total) = (0usize, 0usize);
    for w in eval.chunks(16) {
        let a = f32_filter.mark(w);
        let b = quant.mark(w);
        assert_eq!(a.len(), b.len());
        agree += a.iter().zip(&b).filter(|(x, y)| x == y).count();
        total += a.len();
    }
    let rate = agree as f64 / total as f64;
    assert!(rate >= 0.95, "mark agreement {rate} below 95%");

    // Drop-in: the quantized filter drives the same pipeline the f32 one
    // does; §4.4's ID-distance constraint keeps precision at 1.0 either
    // way, so every quantized match must be a true match.
    let truth = dlacep_data::label::ground_truth_matches(&pattern, &eval);
    let dl = Dlacep::builder(pattern.clone(), quant).build().unwrap();
    let report = dl.run(&eval);
    let truth_keys: std::collections::BTreeSet<_> =
        truth.iter().map(|m| m.event_ids.clone()).collect();
    for m in &report.matches {
        assert!(truth_keys.contains(&m.event_ids), "spurious match");
    }

    let dl32 = Dlacep::builder(pattern, f32_filter).build().unwrap();
    let report32 = dl32.run(&eval);
    let delta = report.matches.len().abs_diff(report32.matches.len());
    assert!(
        delta <= 1 + report32.matches.len() / 10,
        "quantized found {} matches vs f32 {}",
        report.matches.len(),
        report32.matches.len()
    );
}

#[test]
fn steady_state_marking_does_not_allocate() {
    let (_, quant, eval) = trained_pair();
    let windows: Vec<&[PrimitiveEvent]> = eval.chunks(16).take(40).collect();

    // Warm-up: grows the arena pool and the output buffer to capacity.
    let mut out = Vec::new();
    for w in &windows {
        quant.mark_into(w, &mut out);
    }

    let allocs = count_allocs(|| {
        for w in &windows {
            quant.mark_into(w, &mut out);
        }
    });
    assert_eq!(allocs, 0, "steady-state mark_into allocated {allocs} times");
}

#[test]
fn guard_validates_quantized_scores_and_obs_counts_quant_windows() {
    let (_, quant, eval) = trained_pair();
    let pattern = seq_pattern(&[0, 1], 8);

    let reg = Arc::new(Registry::enabled());
    let cfg = RuntimeConfig {
        guard: GuardConfig {
            validate_scores: true,
            ..Default::default()
        },
        ..Default::default()
    };
    let mut rt = StreamingDlacep::builder(pattern, quant)
        .config(cfg)
        .obs(reg.clone())
        .build()
        .unwrap();
    rt.ingest_all(&eval).unwrap();
    let report = rt.finish();

    // Finite int8-path scores must not trip the guard.
    assert!(report.windows_evaluated > 0);
    assert_eq!(report.windows_degraded, 0, "guard degraded on quant scores");

    // The marking counters attribute every window to the int8 path.
    let snap = reg.snapshot();
    let quant_windows = snap.counters.get("runtime.windows_marked_quant");
    assert!(
        quant_windows.is_some_and(|&n| n > 0),
        "no quant windows counted"
    );
    assert_eq!(
        snap.counters.get("runtime.windows_marked_f32"),
        Some(&0),
        "f32 counter must stay zero under a quantized filter"
    );
}

#[test]
fn checkpoint_restore_equivalence_with_quantized_filter() {
    let (_, quant, eval) = trained_pair();
    let pattern = seq_pattern(&[0, 1], 8);
    let cfg = RuntimeConfig::default();
    let n = eval.len().min(400);
    let offers = &eval[..n];

    let feed = |rt: &mut StreamingDlacep<QuantizedFilter>, evs: &[PrimitiveEvent]| {
        for ev in evs {
            rt.ingest(ev.type_id, ev.ts.0, ev.attrs.clone()).unwrap();
        }
    };

    // Reference: uninterrupted run.
    let mut reference = StreamingDlacep::builder(pattern.clone(), quant.clone())
        .config(cfg)
        .build()
        .unwrap();
    feed(&mut reference, offers);
    let ref_report = reference.finish();

    for split in [0, n / 3, n / 2, n - 1] {
        let mut first = StreamingDlacep::builder(pattern.clone(), quant.clone())
            .config(cfg)
            .build()
            .unwrap();
        feed(&mut first, &offers[..split]);
        let ckpt = first.checkpoint();
        let mut ckpt = decode_checkpoint(&encode_checkpoint(&ckpt)).expect("codec round-trip");
        // Emitted output is not in the checkpoint (only its mark is): hand
        // it back, as the durability layer does from its emit log.
        ckpt.emitted_prefix = first.matches_so_far().to_vec();
        drop(first);

        let mut recovered =
            StreamingDlacep::restore(pattern.clone(), quant.clone(), cfg, None, ckpt).unwrap();
        feed(&mut recovered, &offers[split..]);
        let rec_report = recovered.finish();

        assert_eq!(rec_report.matches, ref_report.matches, "split at {split}");
        assert_eq!(rec_report.windows_evaluated, ref_report.windows_evaluated);
        assert_eq!(rec_report.windows_degraded, ref_report.windows_degraded);
    }
}

/// Marks and scores of a window do not depend on how many windows share
/// its forward pass, where it sits among them, or whether it went through
/// `mark`/`scores` or the batched entry point.
#[test]
fn marks_and_scores_are_independent_of_batching() {
    let (_, quant, eval) = trained_pair();
    let windows: Vec<&[PrimitiveEvent]> = eval.chunks(16).take(40).collect();
    let alone: Vec<(Vec<bool>, Vec<f32>)> = windows
        .iter()
        .map(|w| (quant.mark(w), quant.scores(w).unwrap()))
        .collect();
    let bits = |s: &[f32]| s.iter().map(|v| v.to_bits()).collect::<Vec<_>>();

    for batch in [1usize, 2, 7, 32] {
        // Slide the batch over the windows so every window is seen at
        // several positions of a batch.
        for start in 0..windows.len() - batch {
            let got = quant.mark_batch(&windows[start..start + batch], true);
            assert_eq!(got.len(), batch);
            for (i, (marks, scores)) in got.iter().enumerate() {
                let (want_marks, want_scores) = &alone[start + i];
                assert_eq!(marks, want_marks, "batch {batch} start {start} pos {i}");
                assert_eq!(
                    bits(scores.as_deref().unwrap()),
                    bits(want_scores),
                    "batch {batch} start {start} pos {i}"
                );
            }
        }
    }

    // Without scores nothing is computed for them, and windows of other
    // lengths (the stream's tail, an empty slice) split the batch cleanly.
    let mixed: Vec<&[PrimitiveEvent]> = vec![&eval[..16], &eval[16..21], &[], &eval[32..48]];
    let got = quant.mark_batch(&mixed, false);
    for (w, (marks, scores)) in mixed.iter().zip(&got) {
        assert_eq!(marks, &quant.mark(w));
        assert!(scores.is_none());
    }
}

/// Pooled chunking — batch pipeline and streaming `ingest_batch` — yields
/// what the serial paths yield, marks included.
#[test]
fn pooled_chunking_matches_serial_for_batch_and_streaming() {
    let (_, quant, eval) = trained_pair();
    let pattern = seq_pattern(&[0, 1], 8);
    let par = Parallelism::with_threads(3);

    let serial = Dlacep::builder(pattern.clone(), quant.clone())
        .build()
        .unwrap()
        .run(&eval);
    let pooled = Dlacep::builder(pattern.clone(), quant.clone())
        .parallelism(par)
        .build()
        .unwrap()
        .run(&eval);
    assert_eq!(pooled.matches, serial.matches);
    assert_eq!(pooled.events_relayed, serial.events_relayed);
    assert_eq!(pooled.extractor_stats, serial.extractor_stats);

    let mut one_by_one = StreamingDlacep::builder(pattern.clone(), quant.clone())
        .build()
        .unwrap();
    one_by_one.ingest_all(&eval).unwrap();
    let one_by_one = one_by_one.finish();
    let cfg = RuntimeConfig {
        parallelism: par,
        ..Default::default()
    };
    let mut batched = StreamingDlacep::builder(pattern, quant)
        .config(cfg)
        .build()
        .unwrap();
    for chunk in eval.chunks(300) {
        batched.ingest_batch(chunk).unwrap();
    }
    let batched = batched.finish();
    assert_eq!(batched.matches, one_by_one.matches);
    assert_eq!(batched.events_relayed, one_by_one.events_relayed);
    assert_eq!(batched.windows_evaluated, one_by_one.windows_evaluated);
    // The streaming runtime emits what the batch pipeline emits.
    assert_eq!(batched.events_relayed, serial.events_relayed);
}

fn fixture_events() -> Vec<PrimitiveEvent> {
    (0..24u64)
        .map(|i| {
            let attr = ((i * 7 % 5) as f64 - 2.0) * 0.4;
            PrimitiveEvent::new(i, TypeId((i % 3) as u32), i, vec![attr])
        })
        .collect()
}

/// A filter encoded by the commit before the kernels were rebuilt (binary
/// codec and JSON) still decodes, re-encodes to the same bytes — the
/// persisted form is the canonical `i8` + scales, the packed layout is
/// rebuilt on load — and scores its windows as it did then, up to the
/// activation approximant's error.
#[test]
fn model_encoded_before_the_kernel_rebuild_still_decodes_and_marks() {
    use dlacep_core::QuantizedEventNetwork;
    use dlacep_dur::{Decoder, Encoder};

    let hex = include_str!("fixtures/quantized_filter_pr11.hex").trim();
    let bytes: Vec<u8> = (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
        .collect();
    let mut d = Decoder::new(&bytes);
    let filter: QuantizedFilter = d.get().expect("a PR-11 filter decodes");
    d.finish().unwrap();
    let mut e = Encoder::new();
    e.put(&filter);
    assert_eq!(e.into_bytes(), bytes, "the persisted form must not change");

    let json = include_str!("fixtures/quantized_network_pr11.json").trim();
    let network: QuantizedEventNetwork = serde_json::from_str(json).expect("PR-11 JSON decodes");
    assert_eq!(&network, filter.network());
    assert_eq!(serde_json::to_string(&network).unwrap(), json);

    // What the encoding commit computed for these windows (threshold 0.5).
    let then: [[f32; 8]; 3] = [
        [
            0.5243341, 0.53559136, 0.5308176, 0.53030586, 0.522494, 0.51935005, 0.5128662,
            0.49216038,
        ],
        [
            0.52399933, 0.54770017, 0.5437307, 0.53951037, 0.53871334, 0.53682595, 0.5348688,
            0.52086115,
        ],
        [
            0.5058774, 0.5226469, 0.5239047, 0.5171306, 0.51433414, 0.5126109, 0.5066692,
            0.49793965,
        ],
    ];
    let events = fixture_events();
    for (w, then) in events.chunks(8).zip(&then) {
        let scores = filter.scores(w).unwrap();
        let marks = filter.mark(w);
        for ((now, then), mark) in scores.iter().zip(then).zip(marks) {
            assert!((now - then).abs() < 2e-3, "score moved: {then} -> {now}");
            assert_eq!(mark, *now > 0.5);
        }
    }
}
