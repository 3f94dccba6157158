//! A checkpoint the step-order engine wrote mid-stream, with rows still
//! absorbing into the Kleene closure, imports into the engine that binds
//! the banded single steps first and absorbs the closure last, and finishes
//! the run to the same match sequence.
//!
//! The fixture's first line is the hex of `Encoder::put(&export_state())`
//! of the parent commit's engine (step order: it kept step order for every
//! branch holding a Kleene step) after [`SPLIT`] events of [`stream`] on
//! [`pattern`] — the last [`UNDRAINED`] processed without draining, so
//! pending matches travel too — and its second line the FNV-1a hash
//! ([`fnv`]) of that commit's whole match sequence on the stream.

use dlacep_cep::pattern::dsl::{event, kleene, seq};
use dlacep_cep::program::Program;
use dlacep_cep::TypeSet;
use dlacep_cep::{CepEngine, Expr, Match, NfaEngine, NfaEngineState, Pattern, Plan, Predicate};
use dlacep_dur::{Decoder, Encoder};
use dlacep_events::{PrimitiveEvent, TypeId, WindowSpec};

const FIXTURE: &str = include_str!("fixtures/nfa_checkpoint_kleene_suffix_pr23.hex");
const SPLIT: usize = 105;
const UNDRAINED: usize = 3;

/// `SEQ(a, b, c, KC(SEQ(x, y))) WHERE a.v < c.v AND b.v < c.v AND x.v < c.v`:
/// `c` also admits `x`'s type, so one event can both complete the single
/// steps and extend a closure.
fn pattern() -> Pattern {
    let leaf =
        |ts: &[u32], name: &str| event(TypeSet::new(ts.iter().map(|t| TypeId(*t)).collect()), name);
    Pattern::new(
        seq([
            leaf(&[0], "a"),
            leaf(&[1], "b"),
            leaf(&[2, 3], "c"),
            kleene(seq([leaf(&[3], "x"), leaf(&[4], "y")])),
        ]),
        vec![
            Predicate::lt(Expr::attr("a", 0), Expr::attr("c", 0)),
            Predicate::lt(Expr::attr("b", 0), Expr::attr("c", 0)),
            Predicate::lt(Expr::attr("x", 0), Expr::attr("c", 0)),
        ],
        WindowSpec::Count(16),
    )
}

fn stream() -> Vec<PrimitiveEvent> {
    let mut state = 0x6b5f_u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        state >> 33
    };
    (0..240u64)
        .map(|id| {
            let t = TypeId((next() % 5) as u32);
            let attr = (next() % 100) as f64 / 10.0;
            PrimitiveEvent::new(id, t, id, vec![attr])
        })
        .collect()
}

/// FNV-1a over every match's binding names and ids, in sequence.
fn fnv(matches: &[Match]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    let mut put = |bytes: &[u8]| {
        for b in bytes {
            h = (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for m in matches {
        for (name, ids) in m.bindings() {
            put(name.as_bytes());
            for id in ids {
                put(&id.0.to_le_bytes());
            }
        }
    }
    h
}

fn from_hex(hex: &str) -> Vec<u8> {
    (0..hex.len() / 2)
        .map(|i| u8::from_str_radix(&hex[2 * i..2 * i + 2], 16).expect("fixture is hex"))
        .collect()
}

/// Does `bound` bind all three single steps?
fn suffix_row(bound: u64) -> bool {
    bound & 0b111 == 0b111
}

#[test]
fn step_order_checkpoint_imports_into_the_suffix_ordered_engine_and_finishes_the_run() {
    let mut lines = FIXTURE.lines();
    let bytes = from_hex(lines.next().expect("state line"));
    let want = u64::from_str_radix(lines.next().expect("hash line"), 16).expect("hex hash");
    let mut d = Decoder::new(&bytes);
    let state: NfaEngineState = d.get().expect("parent checkpoint decodes");
    d.finish().expect("no trailing bytes");
    let rows = &state.branches[0];
    assert!(
        !state.pending.is_empty(),
        "the fixture must hold pending matches"
    );
    assert!(
        rows.iter()
            .any(|pm| suffix_row(pm.bound) && !pm.kleene[0].in_progress.is_empty()),
        "the fixture must hold a row absorbing into the closure mid-iteration"
    );
    assert!(
        rows.iter()
            .any(|pm| suffix_row(pm.bound) && !pm.kleene[0].iterations.is_empty()),
        "the fixture must hold a row with completed iterations"
    );
    assert!(
        rows.iter().any(|pm| pm.bound == 0b001),
        "the fixture must hold rows this engine's order never stores"
    );
    let program = Program::lower(&Plan::compile(&pattern()).unwrap());
    assert_eq!(program.orders().next().unwrap(), &[2, 1, 0, 3][..]);

    let events = stream();
    let uninterrupted = NfaEngine::new(&pattern()).unwrap().run(&events);
    assert_eq!(
        fnv(&uninterrupted),
        want,
        "the parent's sequence, uninterrupted"
    );

    let mut resumed = NfaEngine::new(&pattern())
        .unwrap()
        .run(&events[..SPLIT - UNDRAINED]);
    let mut engine = NfaEngine::new(&pattern()).unwrap();
    engine
        .import_state(state)
        .expect("a step-order checkpoint is never refused");
    resumed.extend(engine.run(&events[SPLIT..]));
    assert_eq!(fnv(&resumed), want, "the parent's sequence, resumed");
    assert_eq!(resumed, uninterrupted);
    assert_eq!(engine.stats().events_processed, events.len() as u64);
    assert_eq!(engine.stats().matches_emitted, uninterrupted.len() as u64);
}

#[test]
fn suffix_ordered_checkpoints_round_trip_as_they_are() {
    let events = stream();
    let mut engine = NfaEngine::new(&pattern()).unwrap();
    engine.run(&events[..SPLIT - UNDRAINED]);
    for ev in &events[SPLIT - UNDRAINED..SPLIT] {
        engine.process(ev);
    }
    let exported = engine.export_state();
    // `c` is bound first and `a`, `b` pulled: only rows of the suffix wait.
    let rows = &exported.branches[0];
    assert!(!rows.is_empty() && rows.iter().all(|pm| suffix_row(pm.bound)));
    let mut e = Encoder::new();
    e.put(&exported);
    let bytes = e.into_bytes();
    let state: NfaEngineState = Decoder::new(&bytes).get().unwrap();
    let mut restored = NfaEngine::new(&pattern()).unwrap();
    restored.import_state(state).unwrap();
    assert_eq!(restored.export_state(), engine.export_state());
    assert_eq!(restored.run(&events[SPLIT..]), engine.run(&events[SPLIT..]));
    assert_eq!(restored.stats(), engine.stats());
}
