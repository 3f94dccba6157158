//! A version-1 `RuntimeCheckpoint` payload — the format PR 14 wrote and
//! every commit up to ISSUE 20's parent kept, with every emitted match
//! embedded — still decodes through the decode-only path: one encoded
//! mid-stream (events admitted but not yet relayed, the breaker Open,
//! matches already emitted) decodes, its embedded matches seed the emitted
//! prefix, it restores and continues to the recorded match sequence.
//!
//! `runtime_checkpoint_pr14.hex` is the hex of
//! `encode_checkpoint(&rt.checkpoint())` after [`SPLIT`] offers of
//! [`offers`], written by the PR 14 commit; `PARENT_MATCHES` /
//! `PARENT_MATCH_FNV` describe the full run's match sequence.
//! `runtime_checkpoint_v2.hex` is the same position in the current format
//! (live state and an emitted mark, no matches), written by the commit that
//! introduced it running this file with `RECORD_FIXTURE=1`: this build's
//! `encode_checkpoint` must reproduce it byte for byte.

use dlacep_cep::{Match, Pattern, PatternExpr, TypeSet};
use dlacep_core::durable::{decode_checkpoint, encode_checkpoint};
use dlacep_core::filter::Filter;
use dlacep_core::guard::BreakerState;
use dlacep_core::runtime::{EmittedMark, RuntimeConfig, StreamingDlacep};
use dlacep_events::{AttrValue, OutOfOrderPolicy, PrimitiveEvent, TypeId, WindowSpec};

const FIXTURE: &str = include_str!("fixtures/runtime_checkpoint_pr14.hex");
const FIXTURE_V2: &str = include_str!("fixtures/runtime_checkpoint_v2.hex");
const SPLIT: usize = 171;
const PARENT_MATCHES: usize = 115;
const PARENT_MATCH_FNV: u64 = 0x2b79_c076_71a3_4395;

const A: TypeId = TypeId(0);
const B: TypeId = TypeId(1);

fn pattern() -> Pattern {
    Pattern::new(
        PatternExpr::Seq(vec![
            PatternExpr::event(TypeSet::single(A), "a"),
            PatternExpr::event(TypeSet::single(B), "b"),
        ]),
        vec![],
        WindowSpec::Count(8),
    )
}

/// Marks every A and B; panics on the three windows starting at ids 64, 72
/// and 80, which trips the default breaker (threshold 3, cooldown 16).
struct TripsAt64;

impl Filter for TripsAt64 {
    fn mark(&self, window: &[PrimitiveEvent]) -> Vec<bool> {
        assert!(!(64..=80).contains(&window[0].id.0), "poisoned window");
        window.iter().map(|ev| ev.type_id.0 < 2).collect()
    }

    fn name(&self) -> &'static str {
        "trips-at-64"
    }
}

fn config() -> RuntimeConfig {
    RuntimeConfig {
        ooo_policy: OutOfOrderPolicy::Drop,
        ..RuntimeConfig::default()
    }
}

/// 400 offers from a fixed LCG; one in sixteen regresses its timestamp and
/// is dropped by the policy.
fn offers() -> Vec<(TypeId, u64, Vec<AttrValue>)> {
    let mut state = 0xc0ffee_u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        state >> 33
    };
    (0..400u64)
        .map(|i| {
            let t = TypeId((next() % 5) as u32);
            let back = if next() % 16 == 0 { 15 } else { 0 };
            (
                t,
                (i * 10).saturating_sub(back),
                vec![(next() % 100) as f64],
            )
        })
        .collect()
}

fn feed(rt: &mut StreamingDlacep<TripsAt64>, offers: &[(TypeId, u64, Vec<AttrValue>)]) {
    for (t, ts, attrs) in offers {
        rt.ingest(*t, *ts, attrs.clone()).unwrap();
    }
}

fn fnv1a(matches: &[Match]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for m in matches {
        for id in m.event_ids.iter().map(|id| id.0).chain([u64::MAX]) {
            for b in id.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

fn to_hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn from_hex(hex: &str) -> Vec<u8> {
    let hex = hex.trim();
    (0..hex.len() / 2)
        .map(|i| u8::from_str_radix(&hex[2 * i..2 * i + 2], 16).expect("fixture is hex"))
        .collect()
}

fn runtime_at_split() -> StreamingDlacep<TripsAt64> {
    let mut rt = StreamingDlacep::builder(pattern(), TripsAt64)
        .config(config())
        .build()
        .unwrap();
    feed(&mut rt, &offers()[..SPLIT]);
    rt
}

#[test]
fn parent_checkpoint_restores_and_continues() {
    let mut uninterrupted = runtime_at_split();
    let here = to_hex(&encode_checkpoint(&uninterrupted.checkpoint()));
    let emitted_at_split = uninterrupted.matches_so_far().to_vec();
    feed(&mut uninterrupted, &offers()[SPLIT..]);
    let full = uninterrupted.finish();
    if std::env::var_os("RECORD_FIXTURE").is_some() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/fixtures/runtime_checkpoint_v2.hex"
        );
        std::fs::write(path, format!("{here}\n")).unwrap();
        println!(
            "PARENT_MATCHES = {}; PARENT_MATCH_FNV = {:#018x}",
            full.matches.len(),
            fnv1a(&full.matches)
        );
        return;
    }

    let ckpt = decode_checkpoint(&from_hex(FIXTURE)).expect("parent checkpoint decodes");
    assert!(
        !ckpt.buf.is_empty(),
        "the fixture must hold un-relayed events"
    );
    assert!(ckpt.marks.iter().any(|&m| m) && ckpt.marks.iter().any(|&m| !m));
    assert_eq!(
        ckpt.guard.state,
        BreakerState::Open,
        "the fixture's breaker is Open"
    );
    assert!(ckpt.guard.open_windows > 0 && ckpt.guard.stats.panics == 3);
    assert!(
        !ckpt.emitted_prefix.is_empty(),
        "the fixture must hold emitted matches"
    );
    assert_eq!(ckpt.emitted_prefix, emitted_at_split);
    assert_eq!(ckpt.emitted, EmittedMark::of(&emitted_at_split));
    assert!(ckpt.events_dropped > 0 && ckpt.last_window_end > ckpt.relayed_upto);

    // The current format at the same position: the recorded bytes, the
    // same state, and none of the output.
    assert_eq!(
        here,
        FIXTURE_V2.trim(),
        "checkpoint diverged from the recorded version-2 encoding"
    );
    let mut v2 = decode_checkpoint(&from_hex(FIXTURE_V2)).expect("version 2 decodes");
    assert!(v2.emitted_prefix.is_empty(), "version 2 embeds no matches");
    assert!(FIXTURE_V2.len() < FIXTURE.len());
    v2.emitted_prefix = emitted_at_split;
    assert_eq!(v2, ckpt, "both versions decode to the same checkpoint");

    let mut resumed = StreamingDlacep::restore(pattern(), TripsAt64, config(), None, ckpt)
        .expect("parent checkpoint restores");
    feed(&mut resumed, &offers()[SPLIT..]);
    let resumed = resumed.finish();
    assert_eq!(resumed.matches.len(), PARENT_MATCHES);
    assert_eq!(fnv1a(&resumed.matches), PARENT_MATCH_FNV, "match sequence");
    assert_eq!(
        resumed.matches, full.matches,
        "emitted sequence, order included"
    );
    assert_eq!(resumed.guard, full.guard);
    assert_eq!(resumed.windows_evaluated, full.windows_evaluated);
    assert_eq!(resumed.events_relayed, full.events_relayed);
    assert_eq!(resumed.final_mode, full.final_mode);
}

/// The fixture pins rows the step-order pass stores: an edit of the cost
/// model that reorders this pattern must fail here, not as a byte mismatch.
#[test]
fn fixture_pattern_keeps_step_order() {
    let program = dlacep_cep::Program::lower(&dlacep_cep::Plan::compile(&pattern()).unwrap());
    let step_order = |o: &[usize]| o.iter().enumerate().all(|(k, s)| k == *s);
    assert!(program.orders().all(step_order));
}
