//! The four trainers share one epoch loop and one oversampling pass; folding
//! them must not move a single RNG draw. Pinned here: the FNV-1a hash of the
//! trained filter's persisted bytes, recorded at the parent commit (PR 14)
//! when each trainer still carried its own copy of the loop (the
//! multi-pattern one from `MultiTraining::system.filter()` there).
//!
//! The window-network pin, the stacked (2-layer) event-network pin and the
//! one-step table below were recorded while each LSTM step was still an
//! unrolled composition of per-op tape nodes; the fused sequence op must
//! reproduce them bit for bit. `TrainConfig::quick()` has one layer, so only
//! the stacked pin and the table's 2-layer rows exercise the order in which
//! two directions' input gradients reach the layer below.

use dlacep_cep::{Pattern, PatternExpr, TypeSet};
use dlacep_core::model::{EventNetwork, NetworkConfig, WindowNetwork};
use dlacep_core::persist::encode_event_filter;
use dlacep_core::{
    train_event_filter, train_multi_pattern, train_on_windows, train_window_filter, TrainConfig,
};
use dlacep_events::{EventStream, PrimitiveEvent, TypeId, WindowSpec};
use dlacep_nn::Adam;

const EVENT_FILTER_FNV: u64 = 0xd250_e8ec_9848_acf0;
const ON_WINDOWS_ATTEMPT_1_FNV: u64 = 0xb640_6f3e_d7e4_30d7;
const MULTI_PATTERN_FNV: u64 = 0x2826_6bb9_8409_f7b7;
const WINDOW_FILTER_FNV: u64 = 0xd684_7962_ecdd_b088;
const STACKED_EVENT_FILTER_FNV: u64 = 0xaf1c_ee76_3c1e_70c3;

/// `(hidden, steps, batch, layers, event-network FNV, window-network FNV)`:
/// the hash of each network's JSON — the weights after one Adam step and
/// every parameter gradient that step applied — after one `train_batch`.
#[rustfmt::skip]
const ONE_STEP: [(usize, usize, usize, usize, u64, u64); 36] = [
    (1, 1, 1, 1, 0x9ee1ed14345e794a, 0xc1dd3d5f57c5ecf3),
    (1, 1, 1, 2, 0x9d1ba70b954cb1a7, 0x11cd74e92d0831ca),
    (1, 1, 3, 1, 0x0bc0ad2af488ac43, 0xe5389221a4ed63d7),
    (1, 1, 3, 2, 0x3fb07c41232cfeb4, 0x84598e44203b6484),
    (1, 2, 1, 1, 0x5106be0cee6a92de, 0xb9f2f257742cd56d),
    (1, 2, 1, 2, 0xfe8b3dc6cdef1806, 0x33ef4e7cf750898b),
    (1, 2, 3, 1, 0x8b43af9a1d1bdec5, 0x4881dc1e95529a1d),
    (1, 2, 3, 2, 0x374e9873756192bf, 0x4c029665215f60aa),
    (1, 5, 1, 1, 0x59da9a0aa06fcb2f, 0x5bd9eb03d7b64be4),
    (1, 5, 1, 2, 0xa380926d13194c2f, 0xa5514dfba8dcfa51),
    (1, 5, 3, 1, 0xc158d04d2250a37d, 0x2de0bf90ce9a145a),
    (1, 5, 3, 2, 0x8d3d7313f91c887c, 0x4794c0485cef892c),
    (7, 1, 1, 1, 0xbeecf83d91f38da8, 0x5b31048b81c29c08),
    (7, 1, 1, 2, 0x548df0a27de504ce, 0xf83dcb5d74b8c8ab),
    (7, 1, 3, 1, 0xa62b2f705432d9c4, 0x62ec1c79b0aeef52),
    (7, 1, 3, 2, 0x004a57d0a746e7e6, 0xe0c7819f39d4c682),
    (7, 2, 1, 1, 0x1a26fe75caa5eea8, 0x490caf62e2f48b34),
    (7, 2, 1, 2, 0xcbb3438b1e86730e, 0xf96d09ce852562f7),
    (7, 2, 3, 1, 0x2e016cbe5e20ea75, 0x944add45c10e66e7),
    (7, 2, 3, 2, 0xa052e3d2dd6b1a38, 0x1d8b89b8889ebed7),
    (7, 5, 1, 1, 0x0c525330a1224dbf, 0x25784f3f9740585f),
    (7, 5, 1, 2, 0x6885c265e7400deb, 0x95f4d6657d2b77e1),
    (7, 5, 3, 1, 0x21f953c3b8150648, 0x20f1b233a7d5004d),
    (7, 5, 3, 2, 0xfb55a7d4244da5cf, 0xba5bdb2e584652eb),
    (16, 1, 1, 1, 0xd9083cde32a559bf, 0x02359323086426b6),
    (16, 1, 1, 2, 0x6e94792f32f52ad4, 0xb16f6ff0e5abe967),
    (16, 1, 3, 1, 0x6be22f926bdc9677, 0x97ce9f8468279188),
    (16, 1, 3, 2, 0x25d33eba57a2d033, 0xf9de074fd8d252fb),
    (16, 2, 1, 1, 0x7d44e695e8fd2b2f, 0xcf7eb4387e7999f2),
    (16, 2, 1, 2, 0x81adb276021dd064, 0x21c68646fcd64174),
    (16, 2, 3, 1, 0x9a4356d6978a3c1d, 0x0cf0580ab7005d25),
    (16, 2, 3, 2, 0x8dde20e51e064ee7, 0x4be82b2e30288d5d),
    (16, 5, 1, 1, 0x90cf643a5c1573d6, 0x42779eee7fd12ab6),
    (16, 5, 1, 2, 0x0a95dc045606f90e, 0xe8f6ffde5f9946c6),
    (16, 5, 3, 1, 0x9c2598010124ddf7, 0xed203f03fc31986f),
    (16, 5, 3, 2, 0x44524d34513fc467, 0x8b55b31e2bbf12a9),
];

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn pattern() -> Pattern {
    Pattern::new(
        PatternExpr::Seq(vec![
            PatternExpr::event(TypeSet::single(TypeId(0)), "a"),
            PatternExpr::event(TypeSet::single(TypeId(1)), "b"),
        ]),
        vec![],
        WindowSpec::Count(4),
    )
}

/// A fixed LCG's draws.
fn lcg(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed;
    move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        state >> 33
    }
}

/// Six types, one attribute, from a fixed LCG.
fn stream(n: u64) -> EventStream {
    let mut next = lcg(0x7e57);
    let mut s = EventStream::new();
    for ts in 0..n {
        let t = TypeId((next() % 6) as u32);
        s.push(t, ts, vec![(next() % 200) as f64 / 100.0 - 1.0]);
    }
    s
}

#[test]
fn train_event_filter_reproduces_the_parent_bytes() {
    let out = train_event_filter(&pattern(), &stream(1200), &TrainConfig::quick());
    assert!(out.report.epochs_run > 1);
    let bytes = encode_event_filter(&out.filter).unwrap();
    assert_eq!(fnv1a(&bytes), EVENT_FILTER_FNV, "{:#018x}", fnv1a(&bytes));
}

#[test]
fn train_on_windows_reproduces_the_parent_bytes() {
    let s = stream(480);
    let windows: Vec<Vec<PrimitiveEvent>> = s.events().chunks(8).map(<[_]>::to_vec).collect();
    let filter = train_on_windows(&pattern(), &windows, &TrainConfig::quick(), 1).unwrap();
    let bytes = encode_event_filter(&filter).unwrap();
    assert_eq!(
        fnv1a(&bytes),
        ON_WINDOWS_ATTEMPT_1_FNV,
        "{:#018x}",
        fnv1a(&bytes)
    );
}

#[test]
fn train_multi_pattern_reproduces_the_parent_bytes() {
    let second = Pattern::new(
        PatternExpr::Seq(vec![
            PatternExpr::event(TypeSet::single(TypeId(2)), "x"),
            PatternExpr::event(TypeSet::single(TypeId(3)), "y"),
        ]),
        vec![],
        WindowSpec::Count(4),
    );
    let out =
        train_multi_pattern(&[pattern(), second], &stream(1200), &TrainConfig::quick()).unwrap();
    let bytes = encode_event_filter(&out.filter).unwrap();
    assert_eq!(fnv1a(&bytes), MULTI_PATTERN_FNV, "{:#018x}", fnv1a(&bytes));
}

#[test]
fn train_window_filter_reproduces_the_parent_bytes() {
    let out = train_window_filter(&pattern(), &stream(1200), &TrainConfig::quick());
    assert!(out.report.epochs_run > 1);
    let json = serde_json::to_string(&out.filter.network).unwrap();
    let fnv = fnv1a(json.as_bytes());
    assert_eq!(fnv, WINDOW_FILTER_FNV, "{fnv:#018x}");
}

#[test]
fn stacked_event_filter_reproduces_the_parent_bytes() {
    let cfg = TrainConfig {
        hidden: 6,
        layers: 2,
        max_epochs: 6,
        ..TrainConfig::quick()
    };
    let out = train_event_filter(&pattern(), &stream(600), &cfg);
    assert!(out.report.epochs_run > 1);
    let bytes = encode_event_filter(&out.filter).unwrap();
    assert_eq!(
        fnv1a(&bytes),
        STACKED_EVENT_FILTER_FNV,
        "{:#018x}",
        fnv1a(&bytes)
    );
}

/// `batch` windows of `steps` 3-wide embeddings, with labels that mix both
/// classes.
fn one_step_batch(steps: usize, batch: usize, salt: u64) -> Vec<(Vec<Vec<f32>>, Vec<bool>)> {
    let mut next = lcg(salt);
    (0..batch)
        .map(|_| {
            let window = (0..steps)
                .map(|_| {
                    (0..3)
                        .map(|_| (next() % 300) as f32 / 100.0 - 1.5)
                        .collect()
                })
                .collect();
            let labels = (0..steps).map(|_| next().is_multiple_of(3)).collect();
            (window, labels)
        })
        .collect()
}

#[test]
fn one_train_batch_reproduces_the_parent_gradients() {
    let mut got = Vec::new();
    for hidden in [1, 7, 16] {
        for steps in [1, 2, 5] {
            for batch in [1, 3] {
                for layers in [1, 2] {
                    let config = NetworkConfig {
                        input_dim: 3,
                        hidden,
                        layers,
                        seed: 9,
                    };
                    let salt = (hidden * 100 + steps * 10 + batch) as u64;
                    let data = one_step_batch(steps, batch, salt);

                    let mut event_net = EventNetwork::new(config);
                    let refs: Vec<(&[Vec<f32>], &[bool])> = data
                        .iter()
                        .map(|(w, l)| (w.as_slice(), l.as_slice()))
                        .collect();
                    event_net.train_batch(&refs, &mut Adam::new(0.01), 5.0);
                    let event_fnv = fnv1a(serde_json::to_string(&event_net).unwrap().as_bytes());

                    let mut window_net = WindowNetwork::new(config);
                    let refs: Vec<(&[Vec<f32>], bool)> =
                        data.iter().map(|(w, l)| (w.as_slice(), l[0])).collect();
                    window_net.train_batch(&refs, &mut Adam::new(0.01), 5.0);
                    let window_fnv = fnv1a(serde_json::to_string(&window_net).unwrap().as_bytes());

                    got.push((hidden, steps, batch, layers, event_fnv, window_fnv));
                }
            }
        }
    }
    let table: Vec<String> = got
        .iter()
        .map(|(h, t, b, l, e, w)| format!("    ({h}, {t}, {b}, {l}, {e:#018x}, {w:#018x}),"))
        .collect();
    assert_eq!(got.as_slice(), &ONE_STEP[..], "\n{}", table.join("\n"));
}
