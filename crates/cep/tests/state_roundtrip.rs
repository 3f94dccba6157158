//! Split-run equivalence for engine state export/import: running a stream to
//! completion must be indistinguishable from exporting mid-stream, encoding
//! the state through the durability codec, importing into a *freshly
//! constructed* engine, and finishing there. This is the engine-level half of
//! the crash-recovery equivalence proof (the runtime-level half lives in
//! `dlacep-core`).

use dlacep_cep::engine::CepEngine;
use dlacep_cep::state::{NfaEngineState, TreeEngineState};
use dlacep_cep::{
    CostModel, Match, NfaConfig, NfaEngine, Pattern, PatternExpr, Predicate, TreeEngine, TypeSet,
};
use dlacep_dur::{Dec, Decoder, Enc, Encoder};
use dlacep_events::{EventStream, PrimitiveEvent, TypeId, WindowSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const A: TypeId = TypeId(0);
const B: TypeId = TypeId(1);
const C: TypeId = TypeId(2);

fn leaf(t: TypeId, b: &str) -> PatternExpr {
    PatternExpr::event(TypeSet::single(t), b)
}

/// SEQ(A, KC(B), C) with a condition — exercises singles, Kleene state and
/// predicate evaluation.
fn kleene_pattern() -> Pattern {
    Pattern::new(
        PatternExpr::Seq(vec![
            leaf(A, "a"),
            PatternExpr::Kleene(Box::new(leaf(B, "k"))),
            leaf(C, "c"),
        ]),
        vec![Predicate::lt(
            dlacep_cep::Expr::attr("a", 0),
            dlacep_cep::Expr::attr("c", 0),
        )],
        WindowSpec::Count(12),
    )
}

/// SEQ(A, B, C) — the fragment the tree engine supports.
fn seq_pattern() -> Pattern {
    Pattern::new(
        PatternExpr::Seq(vec![leaf(A, "a"), leaf(B, "b"), leaf(C, "c")]),
        vec![],
        WindowSpec::Count(10),
    )
}

fn random_stream(seed: u64, n: usize) -> Vec<PrimitiveEvent> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut s = EventStream::new();
    let mut ts = 0u64;
    for _ in 0..n {
        let t = TypeId(rng.gen_range(0..3u32));
        ts += rng.gen_range(0..3u64);
        let attr = rng.gen_range(-5.0..5.0f64);
        s.push(t, ts, vec![attr]);
    }
    s.events().to_vec()
}

fn codec_round_trip<T: Enc + Dec>(v: &T) -> T {
    let mut e = Encoder::new();
    e.put(v);
    let bytes = e.into_bytes();
    let mut d = Decoder::new(&bytes);
    let back = d.get().unwrap();
    d.finish().unwrap();
    back
}

fn match_keys(ms: &[Match]) -> Vec<Vec<u64>> {
    let mut keys: Vec<Vec<u64>> = ms
        .iter()
        .map(|m| m.key().iter().map(|id| id.0).collect())
        .collect();
    keys.sort();
    keys
}

#[test]
fn nfa_split_run_equals_uninterrupted_run() {
    let events = random_stream(0xD1ACE9, 120);
    let pattern = kleene_pattern();
    let config = NfaConfig {
        max_kleene_iters: Some(4),
        max_partials: None,
    };
    for split in [0, 1, 17, 60, 119, 120] {
        // Reference: one uninterrupted run.
        let mut reference = NfaEngine::with_config(&pattern, config).unwrap();
        let ref_matches = reference.run(&events);

        // Interrupted: run to `split`, export (through bytes), import into a
        // fresh engine, finish there.
        let mut first = NfaEngine::with_config(&pattern, config).unwrap();
        let mut got = first.run(&events[..split]);
        let state: NfaEngineState = codec_round_trip(&first.export_state());
        let mut second = NfaEngine::with_config(&pattern, config).unwrap();
        second.import_state(state).unwrap();
        got.extend(second.run(&events[split..]));

        assert_eq!(
            match_keys(&got),
            match_keys(&ref_matches),
            "split at {split}: matches must be identical"
        );
        assert_eq!(
            second.stats(),
            reference.stats(),
            "split at {split}: work counters must be identical"
        );
    }
}

#[test]
fn nfa_pending_matches_survive_export() {
    // Process events but never drain — pending matches must travel with the
    // state and come out of the restored engine's next drain.
    let events = random_stream(7, 60);
    let pattern = kleene_pattern();
    let mut reference = NfaEngine::new(&pattern).unwrap();
    for ev in &events {
        reference.process(ev);
    }
    let mut restored = NfaEngine::new(&pattern).unwrap();
    restored
        .import_state(codec_round_trip(&reference.export_state()))
        .unwrap();
    let (mut got, mut want) = (Vec::new(), Vec::new());
    restored.drain_into(&mut got);
    reference.drain_into(&mut want);
    assert_eq!(
        match_keys(&got),
        match_keys(&want),
        "undrained matches must survive the round trip"
    );
}

#[test]
fn nfa_import_rejects_mismatched_pattern() {
    let mut donor = NfaEngine::new(&kleene_pattern()).unwrap();
    donor.run(&random_stream(3, 40));
    let state = donor.export_state();

    // seq_pattern has 3 single steps and no Kleene — different shape.
    let mut other = NfaEngine::new(&seq_pattern()).unwrap();
    let before = other.export_state();
    assert!(other.import_state(state).is_err());
    assert_eq!(
        other.export_state(),
        before,
        "failed import must leave the engine untouched"
    );
}

#[test]
fn tree_split_run_equals_uninterrupted_run() {
    let events = random_stream(0xBEEF, 120);
    let pattern = seq_pattern();
    // A skewed cost model forces a non-trivial tree shape, so node numbering
    // actually matters for the round trip.
    let model = CostModel {
        rates: vec![5.0, 0.2, 1.0],
        sel: vec![vec![1.0; 3]; 3],
    };
    for split in [0, 1, 17, 60, 119, 120] {
        let mut reference = TreeEngine::with_cost_model(&pattern, Some(model.clone())).unwrap();
        let ref_matches = reference.run(&events);

        let mut first = TreeEngine::with_cost_model(&pattern, Some(model.clone())).unwrap();
        let mut got = first.run(&events[..split]);
        let state: TreeEngineState = codec_round_trip(&first.export_state());
        let mut second = TreeEngine::with_cost_model(&pattern, Some(model.clone())).unwrap();
        second.import_state(state).unwrap();
        got.extend(second.run(&events[split..]));

        assert_eq!(
            match_keys(&got),
            match_keys(&ref_matches),
            "split at {split}: matches must be identical"
        );
        assert_eq!(
            second.stats(),
            reference.stats(),
            "split at {split}: work counters must be identical"
        );
    }
}

#[test]
fn tree_import_rejects_mismatched_shape() {
    let mut donor = TreeEngine::new(&seq_pattern()).unwrap();
    donor.run(&random_stream(11, 40));
    let state = donor.export_state();

    // Two-step pattern: different node count.
    let two = Pattern::new(
        PatternExpr::Seq(vec![leaf(A, "a"), leaf(B, "b")]),
        vec![],
        WindowSpec::Count(10),
    );
    let mut other = TreeEngine::new(&two).unwrap();
    assert!(other.import_state(state).is_err());
}
