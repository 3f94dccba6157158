//! Persisted engine state is unchanged by the NFA rebuild: a checkpoint the
//! parent commit (PR 13) encoded mid-stream — partial matches stored, a
//! Kleene iteration in progress — decodes, re-encodes byte-identically from
//! this engine's own export at the same position, imports, and resumes to
//! the same emitted sequence as an uninterrupted run.
//!
//! The fixture is the hex of `Encoder::put(&engine.export_state())` after
//! [`SPLIT`] events of [`stream`] — the last [`UNDRAINED`] of them processed
//! without draining, so pending matches travel too — written by the parent
//! commit (from a throwaway `#[path]` module there, hence the `pub`s).

use dlacep_cep::pattern::dsl::{event, kleene, seq};
use dlacep_cep::{
    CepEngine, Expr, Match, NfaEngine, NfaEngineState, Pattern, PatternExpr, Predicate, TypeSet,
};
use dlacep_dur::{Decoder, Encoder};
use dlacep_events::{PrimitiveEvent, TypeId, WindowSpec};

const FIXTURE: &str = include_str!("fixtures/nfa_checkpoint_pr13.hex");
const SPLIT: usize = 56;
const UNDRAINED: usize = 4;

fn leaf(t: u32, name: &str) -> PatternExpr {
    event(TypeSet::single(TypeId(t)), name)
}

/// `SEQ(a, KC(SEQ(x, y)), d) WHERE x.v < a.v`: stored partials hold a bound
/// single step, completed iterations, an iteration in progress, and a
/// condition value read from `a`.
fn pattern() -> Pattern {
    Pattern::new(
        seq([
            leaf(0, "a"),
            kleene(seq([leaf(1, "x"), leaf(2, "y")])),
            leaf(3, "d"),
        ]),
        vec![Predicate::lt(Expr::attr("x", 0), Expr::attr("a", 0))],
        WindowSpec::Count(14),
    )
}

fn stream() -> Vec<PrimitiveEvent> {
    let mut state = 0x5eed_u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        state >> 33
    };
    (0..300u64)
        .map(|id| {
            let t = TypeId((next() % 4) as u32);
            let attr = (next() % 100) as f64 / 10.0;
            PrimitiveEvent::new(id, t, id, vec![attr])
        })
        .collect()
}

pub fn encode(state: &NfaEngineState) -> Vec<u8> {
    let mut e = Encoder::new();
    e.put(state);
    e.into_bytes()
}

pub fn to_hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn from_hex(hex: &str) -> Vec<u8> {
    let hex = hex.trim();
    (0..hex.len() / 2)
        .map(|i| u8::from_str_radix(&hex[2 * i..2 * i + 2], 16).expect("fixture is hex"))
        .collect()
}

pub fn state_at_split() -> NfaEngineState {
    let mut engine = NfaEngine::new(&pattern()).unwrap();
    let events = stream();
    engine.run(&events[..SPLIT - UNDRAINED]);
    for ev in &events[SPLIT - UNDRAINED..SPLIT] {
        engine.process(ev);
    }
    engine.export_state()
}

#[test]
fn parent_checkpoint_imports_and_resumes() {
    let bytes = from_hex(FIXTURE);
    let mut d = Decoder::new(&bytes);
    let state: NfaEngineState = d.get().expect("parent checkpoint decodes");
    d.finish().expect("no trailing bytes");
    assert!(
        state
            .branches
            .iter()
            .flatten()
            .any(|pm| pm.kleene.iter().any(|k| !k.in_progress.is_empty())),
        "the fixture must hold a Kleene iteration in progress"
    );
    assert!(state
        .branches
        .iter()
        .flatten()
        .any(|pm| pm.kleene.iter().any(|k| k.iterations.len() >= 2)));
    assert!(
        !state.pending.is_empty(),
        "the fixture must hold pending matches"
    );

    // Same schema, same partial order: this engine's export at the same
    // position is the parent's bytes.
    assert_eq!(
        to_hex(&encode(&state_at_split())),
        FIXTURE.trim(),
        "export_state diverged from the parent's encoding"
    );

    let events = stream();
    let mut reference = NfaEngine::new(&pattern()).unwrap();
    let uninterrupted: Vec<Match> = reference.run(&events);
    assert!(uninterrupted.len() > 10);

    let mut before = NfaEngine::new(&pattern()).unwrap();
    let mut resumed = before.run(&events[..SPLIT - UNDRAINED]);
    let mut engine = NfaEngine::new(&pattern()).unwrap();
    engine
        .import_state(state)
        .expect("parent checkpoint imports");
    resumed.extend(engine.run(&events[SPLIT..]));

    assert_eq!(resumed, uninterrupted, "emitted sequence, order included");
    assert_eq!(engine.stats(), reference.stats());
}

/// The fixture pins rows the step-order pass stores: an edit of the cost
/// model that reorders this pattern must fail here, not as a byte mismatch.
#[test]
fn fixture_pattern_keeps_step_order() {
    let program = dlacep_cep::Program::lower(&dlacep_cep::Plan::compile(&pattern()).unwrap());
    let step_order = |o: &[usize]| o.iter().enumerate().all(|(k, s)| k == *s);
    assert!(program.orders().all(step_order));
}
