//! The four trainers share one epoch loop and one oversampling pass; folding
//! them must not move a single RNG draw. Pinned here: the FNV-1a hash of the
//! trained filter's persisted bytes, recorded at the parent commit (PR 14)
//! when each trainer still carried its own copy of the loop (the
//! multi-pattern one from `MultiTraining::system.filter()` there).

use dlacep_cep::{Pattern, PatternExpr, TypeSet};
use dlacep_core::persist::encode_event_filter;
use dlacep_core::{train_event_filter, train_multi_pattern, train_on_windows, TrainConfig};
use dlacep_events::{EventStream, PrimitiveEvent, TypeId, WindowSpec};

const EVENT_FILTER_FNV: u64 = 0xd250_e8ec_9848_acf0;
const ON_WINDOWS_ATTEMPT_1_FNV: u64 = 0xb640_6f3e_d7e4_30d7;
const MULTI_PATTERN_FNV: u64 = 0x2826_6bb9_8409_f7b7;

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

/// Six types, one attribute, from a fixed LCG.
fn stream(n: u64) -> EventStream {
    let mut state = 0x7e57_u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        state >> 33
    };
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
