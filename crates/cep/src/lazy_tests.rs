//! The lazy evaluation baseline of Fig. 12 [41] — bind the rarest step
//! first — was `LazyEngine`, a second engine beside the NFA. It is now the
//! NFA lowered with a rate-ordered [`CostModel`] (`Program::lower_with`),
//! running the same rows; these tests, under their old names, hold that
//! order to the NFA.

mod tests {
    use crate::engine::{CepEngine, Match};
    use crate::pattern::ast::{Pattern, PatternExpr, TypeSet};
    use crate::pattern::condition::{Expr, Predicate};
    use crate::plan::{Branch, CostModel, Plan};
    use crate::program::Program;
    use crate::{NfaConfig, NfaEngine};
    use dlacep_events::{EventStream, TypeId, WindowSpec};
    use std::sync::Arc;

    const A: TypeId = TypeId(0);
    const B: TypeId = TypeId(1);
    const C: TypeId = TypeId(2);

    fn leaf(t: TypeId, b: &str) -> PatternExpr {
        PatternExpr::event(TypeSet::single(t), b)
    }

    fn stream(types: &[TypeId]) -> EventStream {
        let mut s = EventStream::new();
        for (i, &t) in types.iter().enumerate() {
            s.push(t, i as u64, vec![(i % 7) as f64]);
        }
        s
    }

    fn seq_abc(w: u64) -> Pattern {
        Pattern::new(
            PatternExpr::Seq(vec![leaf(A, "a"), leaf(B, "b"), leaf(C, "c")]),
            vec![],
            WindowSpec::Count(w),
        )
    }

    /// `p` lowered in the lazy chain's order for per-step `rates`
    /// (ascending; on a tie the later step first; `None`: step order).
    fn program(p: &Pattern, rates: Option<&[f64]>) -> Program {
        let model = |b: &Branch| CostModel {
            rates: rates.map_or_else(|| vec![1.0; b.steps.len()], <[f64]>::to_vec),
            ..CostModel::uniform(b.steps.len())
        };
        Program::lower_with(&Plan::compile(p).unwrap(), model)
    }

    fn order(p: &Pattern, rates: Option<&[f64]>) -> Vec<usize> {
        program(p, rates).orders().next().unwrap().to_vec()
    }

    fn lazy(p: &Pattern, rates: Option<&[f64]>) -> NfaEngine {
        NfaEngine::from_program(Arc::new(program(p, rates)), NfaConfig::default())
    }

    fn nfa(p: &Pattern, s: &EventStream) -> Vec<Match> {
        NfaEngine::new(p).unwrap().run(s.events())
    }

    #[test]
    fn agrees_with_nfa_in_pattern_order() {
        let p = seq_abc(8);
        let s = stream(&[A, B, A, C, B, C, A, B, C]);
        assert_eq!(order(&p, None), [0, 1, 2]);
        let got = lazy(&p, None).run(s.events());
        assert!(!got.is_empty());
        assert_eq!(got, nfa(&p, &s));
    }

    #[test]
    fn agrees_with_nfa_in_frequency_order() {
        // C is rarest: bind it first.
        let p = seq_abc(12);
        let s = stream(&[A, A, B, A, B, A, B, A, B, C]);
        let rates = Some(&[0.5, 0.4, 0.1][..]);
        assert_eq!(order(&p, rates), [2, 1, 0]);
        assert_eq!(lazy(&p, rates).run(s.events()), nfa(&p, &s));
    }

    #[test]
    fn agrees_with_nfa_with_conditions() {
        let p = Pattern::new(
            PatternExpr::Seq(vec![leaf(A, "a"), leaf(B, "b")]),
            vec![Predicate::gt(Expr::attr("b", 0), Expr::attr("a", 0))],
            WindowSpec::Count(10),
        );
        let s = stream(&[A, B, A, B, A, B, A, B]);
        let rates = Some(&[0.9, 0.1][..]);
        assert_eq!(order(&p, rates), [1, 0]);
        let got = lazy(&p, rates).run(s.events());
        assert!(!got.is_empty());
        assert_eq!(got, nfa(&p, &s));
    }

    #[test]
    fn agrees_with_nfa_on_conj() {
        let p = Pattern::new(
            PatternExpr::Conj(vec![leaf(A, "a"), leaf(B, "b"), leaf(C, "c")]),
            vec![],
            WindowSpec::Count(6),
        );
        let s = stream(&[C, A, B, B, A, C]);
        let rates = Some(&[0.3, 0.2, 0.4][..]);
        assert_eq!(order(&p, rates), [1, 0, 2]);
        assert_eq!(lazy(&p, rates).run(s.events()), nfa(&p, &s));
    }

    #[test]
    fn rare_first_order_stores_fewer_partials() {
        // Many A, few C: step order hoards A-prefixes; C first stores none.
        let p = seq_abc(30);
        let mut types = vec![A; 20];
        types.extend(vec![B; 8]);
        types.push(C);
        let s = stream(&types);
        let mut step_order = lazy(&p, None);
        let mut rare_first = lazy(&p, Some(&[0.7, 0.25, 0.05]));
        let m1 = step_order.run(s.events());
        assert_eq!(rare_first.run(s.events()), m1);
        assert_eq!(m1.len(), 20 * 8);
        assert_eq!(rare_first.stats().peak_partial_matches, 0);
        assert!(step_order.stats().peak_partial_matches > 100);
    }

    #[test]
    fn with_sample_measures_order() {
        let p = seq_abc(30);
        let mut types = vec![A; 20];
        types.extend(vec![B; 8]);
        types.push(C);
        let s = stream(&types);
        let plan = Plan::compile(&p).unwrap();
        let program = Program::lower_with(&plan, |b| CostModel::estimate(b, s.events()));
        assert_eq!(program.orders().next().unwrap(), [2, 1, 0]);
        let mut lazy = NfaEngine::from_program(Arc::new(program), NfaConfig::default());
        assert_eq!(lazy.run(s.events()), nfa(&p, &s));
    }

    #[test]
    fn rejects_kleene() {
        // `LazyEngine` refused a Kleene step; the order keeps step order.
        let p = Pattern::new(
            PatternExpr::Seq(vec![
                leaf(A, "a"),
                PatternExpr::Kleene(Box::new(leaf(B, "k"))),
            ]),
            vec![],
            WindowSpec::Count(5),
        );
        let rates = Some(&[0.9, 0.1][..]);
        assert_eq!(order(&p, rates), [0, 1]);
        let s = stream(&[A, B, B]);
        assert_eq!(lazy(&p, rates).run(s.events()), nfa(&p, &s));
    }

    #[test]
    fn window_prunes_lazy_state() {
        let p = Pattern::new(
            PatternExpr::Seq(vec![leaf(A, "a"), leaf(B, "b")]),
            vec![],
            WindowSpec::Count(2),
        );
        let s = stream(&[A, C, C, C, B]);
        for rates in [None, Some(&[0.9, 0.1][..])] {
            let mut lazy = lazy(&p, rates);
            assert!(lazy.run(s.events()).is_empty());
            assert_eq!(lazy.stored_partials(), 0);
        }
    }
}
