//! Property-based equivalence: on random streams and random simple patterns,
//! the NFA in every evaluation order (step order, the static model's, a
//! rate-ordered lazy chain) and the tree engine must all produce exactly the
//! match set of a brute-force oracle that enumerates every event
//! combination — and every order the step-order match *sequence*.

use dlacep_cep::engine::CepEngine;
use dlacep_cep::pattern::ast::{Pattern, PatternExpr, TypeSet};
use dlacep_cep::pattern::condition::{Expr, Predicate};
use dlacep_cep::plan::{CostModel, Plan, StepKind};
use dlacep_cep::program::Program;
use dlacep_cep::{Match, NfaConfig, NfaEngine, TreeEngine};
use dlacep_events::{EventId, EventStream, PrimitiveEvent, TypeId, WindowSpec};
use proptest::prelude::*;
use std::sync::Arc;

/// Brute-force oracle for single-event-step branches: enumerate all
/// assignments of distinct events to steps, check preds order, window and
/// conditions.
fn brute_force(pattern: &Pattern, events: &[PrimitiveEvent]) -> Vec<Vec<EventId>> {
    let plan = Plan::compile(pattern).expect("compiles");
    let mut out: Vec<Vec<EventId>> = Vec::new();
    for branch in &plan.branches {
        let n = branch.steps.len();
        let mut assignment: Vec<usize> = vec![usize::MAX; n];
        enumerate(branch, &plan, events, 0, &mut assignment, &mut out);
    }
    out.sort();
    out.dedup();
    out
}

fn enumerate(
    branch: &dlacep_cep::plan::Branch,
    plan: &Plan,
    events: &[PrimitiveEvent],
    step: usize,
    assignment: &mut Vec<usize>,
    out: &mut Vec<Vec<EventId>>,
) {
    let n = branch.steps.len();
    if step == n {
        // Window check.
        let ids: Vec<u64> = assignment.iter().map(|&i| events[i].id.0).collect();
        let tss: Vec<u64> = assignment.iter().map(|&i| events[i].ts.0).collect();
        let ok = match plan.window {
            WindowSpec::Count(w) => ids.iter().max().unwrap() - ids.iter().min().unwrap() < w,
            WindowSpec::Time(w) => tss.iter().max().unwrap() - tss.iter().min().unwrap() <= w,
        };
        if !ok {
            return;
        }
        // Conditions.
        let lookup = |b: &str, a: usize| -> Option<f64> {
            for (s, st) in branch.steps.iter().enumerate() {
                if let StepKind::Single { binding, .. } = &st.kind {
                    if binding == b {
                        return events[assignment[s]].attr(a);
                    }
                }
            }
            None
        };
        for cond in &branch.global_conds {
            if cond.pred.eval(&lookup) != Some(true) {
                return;
            }
        }
        let mut key: Vec<EventId> = assignment.iter().map(|&i| events[i].id).collect();
        key.sort_unstable();
        out.push(key);
        return;
    }
    let StepKind::Single { types, .. } = &branch.steps[step].kind else {
        panic!("oracle only supports single steps");
    };
    for (i, ev) in events.iter().enumerate() {
        if !types.contains(ev.type_id) {
            continue;
        }
        if assignment[..step].contains(&i) {
            continue;
        }
        // Order constraints against already-assigned predecessor steps.
        let preds = branch.steps[step].preds;
        let mut ok = true;
        for p in 0..step {
            if preds & (1 << p) != 0 && events[assignment[p]].id >= ev.id {
                ok = false;
                break;
            }
            if branch.steps[p].preds & (1 << step) != 0 && ev.id >= events[assignment[p]].id {
                ok = false;
                break;
            }
        }
        if !ok {
            continue;
        }
        assignment[step] = i;
        enumerate(branch, plan, events, step + 1, assignment, out);
        assignment[step] = usize::MAX;
    }
}

/// The NFA ordered as a lazy chain by per-step `rates` (ascending; `None`:
/// step order).
fn lazy(p: &Pattern, rates: Option<&[f64]>) -> NfaEngine {
    let model = |b: &dlacep_cep::plan::Branch| match rates {
        Some(r) => CostModel {
            rates: r.to_vec(),
            ..CostModel::uniform(b.steps.len())
        },
        None => CostModel::uniform(b.steps.len()),
    };
    let program = Program::lower_with(&Plan::compile(p).unwrap(), model);
    NfaEngine::from_program(Arc::new(program), NfaConfig::default())
}

/// What `engine` emits, event by event.
fn per_event(mut engine: NfaEngine, events: &[PrimitiveEvent]) -> Vec<Vec<Match>> {
    (events.iter())
        .map(|ev| {
            engine.process(ev);
            let mut out = Vec::new();
            engine.drain_into(&mut out);
            out
        })
        .collect()
}

fn keys(ms: &[dlacep_cep::Match]) -> Vec<Vec<EventId>> {
    let mut k: Vec<Vec<EventId>> = ms.iter().map(|m| m.event_ids.to_vec()).collect();
    k.sort();
    k.dedup();
    k
}

fn leaf(t: u32, b: &str) -> PatternExpr {
    PatternExpr::event(TypeSet::single(TypeId(t)), b)
}

fn make_stream(types: &[u8], vals: &[i8]) -> EventStream {
    let mut s = EventStream::new();
    for (i, (&t, &v)) in types.iter().zip(vals).enumerate() {
        s.push(TypeId(t as u32 % 4), i as u64, vec![v as f64]);
    }
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn nfa_matches_brute_force_seq(
        types in prop::collection::vec(0u8..4, 1..14),
        vals in prop::collection::vec(-5i8..5, 14),
        w in 2u64..8,
    ) {
        let s = make_stream(&types, &vals);
        let p = Pattern::new(
            PatternExpr::Seq(vec![leaf(0, "a"), leaf(1, "b"), leaf(2, "c")]),
            vec![Predicate::gt(Expr::attr("c", 0), Expr::attr("a", 0))],
            WindowSpec::Count(w),
        );
        let expected = brute_force(&p, s.events());
        let mut nfa = NfaEngine::new(&p).unwrap();
        prop_assert_eq!(keys(&nfa.run(s.events())), expected);
    }

    #[test]
    fn all_engines_agree_on_conj(
        types in prop::collection::vec(0u8..4, 1..12),
        vals in prop::collection::vec(-5i8..5, 12),
        w in 2u64..8,
    ) {
        let s = make_stream(&types, &vals);
        let p = Pattern::new(
            PatternExpr::Conj(vec![leaf(0, "a"), leaf(1, "b")]),
            vec![Predicate::lt(Expr::attr("a", 0), Expr::attr("b", 0))],
            WindowSpec::Count(w),
        );
        let expected = brute_force(&p, s.events());
        let mut nfa = NfaEngine::new(&p).unwrap();
        let mut tree = TreeEngine::new(&p).unwrap();
        let mut lazy = lazy(&p, Some(&[0.6, 0.4]));
        prop_assert_eq!(keys(&nfa.run(s.events())), expected.clone());
        prop_assert_eq!(keys(&tree.run(s.events())), expected.clone());
        prop_assert_eq!(keys(&lazy.run(s.events())), expected);
    }

    #[test]
    fn all_engines_agree_on_disj_of_seqs(
        types in prop::collection::vec(0u8..4, 1..12),
        vals in prop::collection::vec(-5i8..5, 12),
        w in 3u64..9,
    ) {
        let s = make_stream(&types, &vals);
        let p = Pattern::new(
            PatternExpr::Disj(vec![
                PatternExpr::Seq(vec![leaf(0, "a"), leaf(1, "b")]),
                PatternExpr::Seq(vec![leaf(2, "c"), leaf(3, "d")]),
            ]),
            vec![],
            WindowSpec::Count(w),
        );
        let expected = brute_force(&p, s.events());
        let mut nfa = NfaEngine::new(&p).unwrap();
        let mut tree = TreeEngine::new(&p).unwrap();
        let mut lazy = lazy(&p, None);
        prop_assert_eq!(keys(&nfa.run(s.events())), expected.clone());
        prop_assert_eq!(keys(&tree.run(s.events())), expected.clone());
        prop_assert_eq!(keys(&lazy.run(s.events())), expected);
    }

    #[test]
    fn time_window_engines_agree(
        types in prop::collection::vec(0u8..3, 1..10),
        gaps in prop::collection::vec(0u64..5, 10),
        w in 2u64..10,
    ) {
        let mut s = EventStream::new();
        let mut ts = 0;
        for (i, &t) in types.iter().enumerate() {
            ts += gaps.get(i).copied().unwrap_or(1);
            s.push(TypeId(t as u32), ts, vec![i as f64]);
        }
        let p = Pattern::new(
            PatternExpr::Seq(vec![leaf(0, "a"), leaf(1, "b")]),
            vec![],
            WindowSpec::Time(w),
        );
        let expected = brute_force(&p, s.events());
        let mut nfa = NfaEngine::new(&p).unwrap();
        let mut tree = TreeEngine::new(&p).unwrap();
        prop_assert_eq!(keys(&nfa.run(s.events())), expected.clone());
        prop_assert_eq!(keys(&tree.run(s.events())), expected);
    }

    #[test]
    fn every_order_emits_the_step_order_sequence_event_by_event(
        types in prop::collection::vec(0u8..4, 1..40),
        vals in prop::collection::vec(-5i8..5, 40),
        w in 2u64..12,
    ) {
        // Q_A1's shape, types overlapping so one event fits several steps:
        // every condition mentions `d`, so the static model binds it first
        // and pulls the rest from the window.
        let s = make_stream(&types, &vals);
        let any = || TypeSet::new(vec![TypeId(0), TypeId(1), TypeId(2), TypeId(3)]);
        let p = Pattern::new(
            PatternExpr::Seq(vec![
                PatternExpr::event(any(), "a"),
                leaf(1, "b"),
                PatternExpr::event(any(), "c"),
                PatternExpr::event(any(), "d"),
            ]),
            ["a", "b", "c"]
                .map(|x| Predicate::lt(Expr::attr(x, 0), Expr::attr("d", 0)))
                .to_vec(),
            WindowSpec::Count(w),
        );
        let program = Program::lower(&Plan::compile(&p).unwrap());
        prop_assert_eq!(program.orders().next().unwrap(), &[3, 2, 1, 0][..]);
        let want = per_event(lazy(&p, None), s.events());
        prop_assert_eq!(keys(&want.concat()), brute_force(&p, s.events()));
        prop_assert_eq!(&per_event(NfaEngine::new(&p).unwrap(), s.events()), &want);
        let rates = [0.4, 0.1, 0.3, 0.2];
        prop_assert_eq!(&per_event(lazy(&p, Some(&rates)), s.events()), &want);
    }

    #[test]
    fn negation_never_emits_when_negated_type_everywhere(
        vals in prop::collection::vec(-5i8..5, 12),
        w in 3u64..9,
    ) {
        // Stream alternates A,B: any (A..C) gap would contain a B? There is no C,
        // so we use SEQ(A, NEG(B), A2) over A B A B...: every A..A gap of
        // length >= 2 contains a B, so no match may be emitted.
        let types: Vec<u8> = (0..vals.len() as u8).map(|i| i % 2).collect();
        let s = make_stream(&types, &vals);
        let p = Pattern::new(
            PatternExpr::Seq(vec![
                leaf(0, "x"),
                PatternExpr::Neg(Box::new(leaf(1, "n"))),
                leaf(0, "y"),
            ]),
            vec![],
            WindowSpec::Count(w),
        );
        let mut nfa = NfaEngine::new(&p).unwrap();
        let got = nfa.run(s.events());
        // Adjacent A events are 2 apart with exactly one B between them.
        prop_assert!(got.is_empty());
    }
}
