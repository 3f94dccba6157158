//! Targeted integration tests of operator *combinations* the unit tests
//! don't cover: KC together with NEG, nested structures under DISJ, time
//! windows under a rate-ordered evaluation and on the tree engine, and
//! engine behaviour on degenerate inputs.

use dlacep_cep::engine::CepEngine;
use dlacep_cep::pattern::condition::Expr;
use dlacep_cep::program::Program;
use dlacep_cep::{
    CostModel, NfaConfig, NfaEngine, Pattern, PatternExpr, Plan, Predicate, TreeEngine, TypeSet,
};
use dlacep_events::{EventStream, TypeId, WindowSpec};
use std::sync::Arc;

const A: TypeId = TypeId(0);
const B: TypeId = TypeId(1);
const C: TypeId = TypeId(2);
const D: TypeId = TypeId(3);

fn leaf(t: TypeId, b: &str) -> PatternExpr {
    PatternExpr::event(TypeSet::single(t), b)
}

fn stream(types: &[TypeId]) -> EventStream {
    let mut s = EventStream::new();
    for (i, &t) in types.iter().enumerate() {
        s.push(t, i as u64, vec![i as f64]);
    }
    s
}

#[test]
fn kleene_and_negation_in_one_sequence() {
    // SEQ(A, KC(B), NEG(D), C): one or more Bs after A, then C, with no D
    // between the last pattern element before C and C itself.
    let p = Pattern::new(
        PatternExpr::Seq(vec![
            leaf(A, "a"),
            PatternExpr::Kleene(Box::new(leaf(B, "k"))),
            PatternExpr::Neg(Box::new(leaf(D, "n"))),
            leaf(C, "c"),
        ]),
        vec![],
        WindowSpec::Count(10),
    );
    let mut ok = NfaEngine::new(&p).unwrap();
    // A B C: one KC subset {B} -> 1 match.
    assert_eq!(ok.run(stream(&[A, B, C]).events()).len(), 1);
    // A B D C: D sits in the gap before C -> suppressed.
    let mut bad = NfaEngine::new(&p).unwrap();
    assert_eq!(bad.run(stream(&[A, B, D, C]).events()).len(), 0);
    // A B B C: subsets {b1}, {b2}, {b1,b2} -> 3 matches.
    let mut multi = NfaEngine::new(&p).unwrap();
    assert_eq!(multi.run(stream(&[A, B, B, C]).events()).len(), 3);
}

#[test]
fn disjunction_of_kleene_and_negation_branches() {
    // DISJ(SEQ(A, KC(B)), SEQ(C, NEG(B), D)) — heterogeneous branches.
    let p = Pattern::new(
        PatternExpr::Disj(vec![
            PatternExpr::Seq(vec![
                leaf(A, "a"),
                PatternExpr::Kleene(Box::new(leaf(B, "k"))),
            ]),
            PatternExpr::Seq(vec![
                leaf(C, "c"),
                PatternExpr::Neg(Box::new(leaf(B, "n"))),
                leaf(D, "d"),
            ]),
        ]),
        vec![],
        WindowSpec::Count(10),
    );
    let mut e = NfaEngine::new(&p).unwrap();
    // A B -> branch 1 (1 match); C D -> branch 2 (1 match); C B D -> none.
    let got = e.run(stream(&[A, B, C, B, D]).events());
    // branch1: KC subsets over the single B after A... both Bs follow A:
    // {b1}, {b2}, {b1,b2} = 3. branch2: the B between C and D kills it.
    assert_eq!(got.len(), 3);
}

#[test]
fn lazy_engine_time_windows_agree_with_nfa() {
    let p = Pattern::new(
        PatternExpr::Seq(vec![leaf(A, "a"), leaf(B, "b")]),
        vec![],
        WindowSpec::Time(5),
    );
    let mut s = EventStream::new();
    for (i, (t, ts)) in [(A, 0u64), (B, 3), (A, 9), (B, 11), (B, 20)]
        .iter()
        .enumerate()
    {
        s.push(*t, *ts, vec![i as f64]);
    }
    let mut nfa = NfaEngine::new(&p).unwrap();
    // The lazy chain: the rarer `b` first, `a` pulled from the window.
    let model = |_: &_| CostModel {
        rates: vec![0.6, 0.4],
        ..CostModel::uniform(2)
    };
    let program = Program::lower_with(&Plan::compile(&p).unwrap(), model);
    assert_eq!(program.orders().next().unwrap(), &[1, 0][..]);
    let mut lazy = NfaEngine::from_program(Arc::new(program), NfaConfig::default());
    let keys = |ms: Vec<dlacep_cep::Match>| -> Vec<_> {
        let mut k: Vec<_> = ms.into_iter().map(|m| m.event_ids).collect();
        k.sort();
        k
    };
    let expect = keys(nfa.run(s.events()));
    assert!(!expect.is_empty());
    assert_eq!(keys(lazy.run(s.events())), expect);
}

#[test]
fn tree_engine_respects_conditions_across_branches() {
    // DISJ with per-branch conditions routed correctly through tree joins.
    let p = Pattern::new(
        PatternExpr::Disj(vec![
            PatternExpr::Seq(vec![leaf(A, "a"), leaf(B, "b")]),
            PatternExpr::Seq(vec![leaf(C, "c"), leaf(D, "d")]),
        ]),
        vec![
            Predicate::gt(Expr::attr("b", 0), Expr::attr("a", 0)),
            Predicate::lt(Expr::attr("d", 0), Expr::attr("c", 0)),
        ],
        WindowSpec::Count(8),
    );
    // attrs equal position index: b>a always true (later), d<c always false.
    let s = stream(&[A, B, C, D]);
    let mut tree = TreeEngine::new(&p).unwrap();
    let mut nfa = NfaEngine::new(&p).unwrap();
    let tg = tree.run(s.events());
    let ng = nfa.run(s.events());
    assert_eq!(tg.len(), 1, "only the A,B branch can satisfy its condition");
    assert_eq!(ng.len(), 1);
}

#[test]
fn engines_handle_empty_and_single_event_streams() {
    let p = Pattern::new(
        PatternExpr::Seq(vec![leaf(A, "a"), leaf(B, "b")]),
        vec![],
        WindowSpec::Count(4),
    );
    for engine in [true, false] {
        let got = if engine {
            NfaEngine::new(&p).unwrap().run(&[])
        } else {
            TreeEngine::new(&p).unwrap().run(&[])
        };
        assert!(got.is_empty());
    }
    let s = stream(&[A]);
    assert!(NfaEngine::new(&p).unwrap().run(s.events()).is_empty());
}

#[test]
fn conj_containing_seq_groups() {
    // CONJ(SEQ(A,B), SEQ(C,D)): both ordered pairs, in any relative order.
    let p = Pattern::new(
        PatternExpr::Conj(vec![
            PatternExpr::Seq(vec![leaf(A, "a"), leaf(B, "b")]),
            PatternExpr::Seq(vec![leaf(C, "c"), leaf(D, "d")]),
        ]),
        vec![],
        WindowSpec::Count(10),
    );
    let mut e1 = NfaEngine::new(&p).unwrap();
    assert_eq!(e1.run(stream(&[A, C, B, D]).events()).len(), 1); // interleaved
    let mut e2 = NfaEngine::new(&p).unwrap();
    assert_eq!(e2.run(stream(&[C, D, A, B]).events()).len(), 1); // swapped groups
    let mut e3 = NfaEngine::new(&p).unwrap();
    assert_eq!(e3.run(stream(&[B, A, C, D]).events()).len(), 0); // B before A
}

#[test]
fn kleene_respects_window_boundary() {
    // KC absorptions beyond the window must not extend a match.
    let p = Pattern::new(
        PatternExpr::Seq(vec![
            leaf(A, "a"),
            PatternExpr::Kleene(Box::new(leaf(B, "k"))),
            leaf(C, "c"),
        ]),
        vec![],
        WindowSpec::Count(3),
    );
    let mut e = NfaEngine::new(&p).unwrap();
    // A B C fits (span 3); A B B C spans 4 -> only the {b2} subset fits:
    // (a, b2, c) spans ids 0..3 = 4 events -> too wide as well.
    let got = e.run(stream(&[A, B, B, C]).events());
    assert!(got.is_empty(), "no subset fits a 3-event window: {got:?}");
    let mut ok = NfaEngine::new(&p).unwrap();
    assert_eq!(ok.run(stream(&[A, B, C]).events()).len(), 1);
}

#[test]
fn leading_negation_blocks_matches_in_window_prefix() {
    // SEQ(NEG(D), A, B): no D may appear in the match's window before A.
    let p = Pattern::new(
        PatternExpr::Seq(vec![
            PatternExpr::Neg(Box::new(leaf(D, "n"))),
            leaf(A, "a"),
            leaf(B, "b"),
        ]),
        vec![],
        WindowSpec::Count(4),
    );
    let mut blocked = NfaEngine::new(&p).unwrap();
    assert!(blocked.run(stream(&[D, A, B]).events()).is_empty());
    let mut ok = NfaEngine::new(&p).unwrap();
    assert_eq!(ok.run(stream(&[C, A, B]).events()).len(), 1);
    // D far before the window start does not block.
    let mut far = NfaEngine::new(&p).unwrap();
    assert_eq!(far.run(stream(&[D, C, C, C, C, A, B]).events()).len(), 1);
}
