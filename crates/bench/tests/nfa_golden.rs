//! The NFA engine pinned to the commit before its per-event path was
//! rebuilt (PR 13): for every Table-1/2 template and one pattern per
//! remaining operator, the *sequence* of emitted matches (order included,
//! FNV-1a over names and ids) and the full [`EngineStats`] of the engine
//! lowered in step order must equal what that commit produced.
//! `partial_matches_created`, `condition_evaluations` and
//! `peak_partial_matches` are the paper's §3.2 complexity measure — an
//! optimisation may change what is allocated, never what is counted.
//!
//! The engine as built by default, in the order the static cost model
//! picks, must emit the same sequences (and count the same events and
//! matches); the work it does in that order is pinned by its own fixture.
//!
//! `nfa_golden_pr13.json` was written by running [`cases`] on the parent of
//! PR 14, `nfa_golden_ordered.json` by running it on the commit that made
//! the order a property of the program (from a throwaway `#[path]` module,
//! hence the `pub`s). Its `q_a5` row was re-recorded when branches whose
//! Kleene steps follow every single step got an order; no other row moved.

use dlacep_bench::queries::real::*;
use dlacep_bench::queries::synth::{q_b1, q_b2, q_b3};
use dlacep_cep::pattern::dsl::{conj, disj, event, kleene, neg, seq};
use dlacep_cep::program::Program;
use dlacep_cep::{CepEngine, CostModel, EngineStats, Expr, Match, NfaConfig, NfaEngine, Pattern};
use dlacep_cep::{Plan, Predicate, TypeSet};
use dlacep_data::stocks::StockConfig;
use dlacep_data::synthetic::SyntheticConfig;
use dlacep_events::{PrimitiveEvent, TypeId, WindowSpec};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

const FIXTURE: &str = include_str!("../../cep/tests/fixtures/nfa_golden_pr13.json");
const ORDERED: &str = include_str!("../../cep/tests/fixtures/nfa_golden_ordered.json");

#[derive(Debug, PartialEq, Serialize, Deserialize)]
pub struct Case {
    pub name: String,
    pub sequence_hash: u64,
    pub stats: EngineStats,
}

fn fnv(h: &mut u64, bytes: &[u8]) {
    for b in bytes {
        *h = (*h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3);
    }
}

fn sequence_hash(matches: &[Match]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325;
    for m in matches {
        fnv(&mut h, &(m.event_ids.len() as u64).to_le_bytes());
        for id in &m.event_ids {
            fnv(&mut h, &id.0.to_le_bytes());
        }
        for (name, ids) in m.bindings() {
            fnv(&mut h, name.as_bytes());
            fnv(&mut h, &(ids.len() as u64).to_le_bytes());
            for id in ids {
                fnv(&mut h, &id.0.to_le_bytes());
            }
        }
    }
    h
}

fn leaf(t: u32, name: &str) -> dlacep_cep::PatternExpr {
    event(TypeSet::single(TypeId(t)), name)
}

fn lt(a: &str, b: &str) -> Predicate {
    Predicate::lt(Expr::attr(a, 0), Expr::attr(b, 0))
}

/// Six uniform types, one attribute, timestamps advancing by 0–2 so a time
/// window holds a varying number of events.
fn operator_stream(seed: u64, n: usize) -> Vec<PrimitiveEvent> {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut ts = 0;
    (0..n as u64)
        .map(|id| {
            ts += next() % 3;
            let attr = (next() % 1000) as f64 / 100.0;
            PrimitiveEvent::new(id, TypeId((next() % 6) as u32), ts, vec![attr])
        })
        .collect()
}

fn operator_patterns() -> Vec<(&'static str, Pattern)> {
    let count = WindowSpec::Count(12);
    vec![
        (
            "kleene_seq_body",
            Pattern::new(
                seq([
                    leaf(0, "a"),
                    kleene(seq([leaf(1, "x"), leaf(2, "y")])),
                    leaf(3, "d"),
                ]),
                vec![lt("x", "a"), lt("a", "d")],
                count,
            ),
        ),
        (
            "neg_leading",
            Pattern::new(
                seq([neg(leaf(1, "n")), leaf(0, "a"), leaf(2, "c")]),
                vec![lt("a", "n")],
                count,
            ),
        ),
        (
            "neg_inner_seq",
            Pattern::new(
                seq([
                    leaf(0, "a"),
                    neg(seq([leaf(1, "n1"), leaf(3, "n2")])),
                    leaf(2, "c"),
                ]),
                vec![lt("n1", "c")],
                count,
            ),
        ),
        (
            "disj",
            Pattern::new(
                disj([
                    seq([leaf(0, "a"), leaf(1, "b")]),
                    seq([leaf(2, "c"), leaf(3, "d"), leaf(4, "e")]),
                ]),
                vec![lt("a", "b"), lt("c", "e")],
                count,
            ),
        ),
        (
            "conj",
            Pattern::new(
                conj([leaf(0, "a"), leaf(1, "b"), leaf(2, "c")]),
                vec![lt("a", "b")],
                count,
            ),
        ),
        (
            "time_seq",
            Pattern::new(
                seq([leaf(0, "a"), leaf(1, "b"), leaf(2, "c")]),
                vec![lt("a", "c")],
                WindowSpec::Time(9),
            ),
        ),
        (
            "time_neg_leading_kleene",
            Pattern::new(
                seq([
                    neg(leaf(4, "n")),
                    leaf(0, "a"),
                    kleene(leaf(1, "k")),
                    leaf(2, "c"),
                ]),
                vec![lt("k", "c")],
                WindowSpec::Time(7),
            ),
        ),
    ]
}

fn table_patterns(w: u64) -> Vec<(&'static str, Pattern)> {
    vec![
        ("q_a1", q_a1(5, 7, &[1, 2], 0.6, 1.4, w)),
        ("q_a2", q_a2(3, w)),
        ("q_a3", q_a3(5, 7, 3, &[1, 2], 1, 4, 0.6, 1.4, 0.5, w)),
        ("q_a4", q_a4(5, 7, &[1, 2], 1, 4, 0.6, 1.4, 0.7, 1.3, w)),
        ("q_a5", q_a5(2, 8, 2, 0.6, 1.4, w)),
        ("q_a6", q_a6(3, 8, 0.6, 1.4, w)),
        ("q_a7", q_a7(2, 8, 2, 0.6, 1.4, w)),
        ("q_a8", q_a8(2, 8, 2, 0.6, 1.4, w)),
        ("q_a9", q_a9(4, 8, 16, 0.6, 1.4, 0.5, 1.5, w)),
        (
            "q_a10",
            q_a10(3, 8, 8, &[(0.6, 1.4), (0.5, 1.5), (0.7, 1.3)], w),
        ),
        ("q_a11_seq", q_a11(SeqOrConj::Seq, 5, 0.6, 1.4, w)),
        ("q_a11_conj", q_a11(SeqOrConj::Conj, 5, 0.6, 1.4, w)),
        ("q_a12", q_a12(5, 0.6, 1.4, 0.5, 1.5, w)),
    ]
}

fn run(name: &str, pattern: &Pattern, events: &[PrimitiveEvent], step_order: bool) -> Case {
    let mut engine = match step_order {
        true => {
            let plan = Plan::compile(pattern).expect("golden patterns compile");
            let program = Program::lower_with(&plan, |b| CostModel::uniform(b.steps.len()));
            NfaEngine::from_program(Arc::new(program), NfaConfig::default())
        }
        false => NfaEngine::new(pattern).expect("golden patterns compile"),
    };
    let matches = engine.run(events);
    assert!(
        engine.stats().partial_matches_created > 0,
        "{name}: a golden case must create partial matches"
    );
    Case {
        name: name.to_string(),
        sequence_hash: sequence_hash(&matches),
        stats: *engine.stats(),
    }
}

pub fn cases(step_order: bool) -> Vec<Case> {
    let (_, stocks) = StockConfig {
        num_tickers: 48,
        num_events: 2_500,
        seed: 13,
        ..StockConfig::default()
    }
    .generate();
    let (_, synth) = SyntheticConfig {
        num_types: 7,
        num_events: 3_000,
        seed: 13,
    }
    .generate();
    let operators = operator_stream(13, 3_000);

    let mut out = Vec::new();
    for (name, p) in table_patterns(18) {
        out.push(run(name, &p, stocks.events(), step_order));
    }
    for (name, p) in [("q_b1", q_b1(36)), ("q_b2", q_b2(36)), ("q_b3", q_b3(36))] {
        out.push(run(name, &p, synth.events(), step_order));
    }
    for (name, p) in operator_patterns() {
        out.push(run(name, &p, &operators, step_order));
    }
    out
}

/// The banded shapes of the benchmark's `multiquery16` and `serve_frontdoor`
/// lower to the orders they had before Kleene-suffix branches were ordered
/// (recorded on that commit); `Q_A5` alone moves, to its single steps last
/// first and its closures after them.
#[test]
fn banded_shapes_keep_their_orders() {
    let rare_seq2 = Pattern::new(
        seq([leaf(40, "a"), leaf(41, "b")]),
        vec![Predicate::band(0.8, ("a", 0), ("b", 0), 1.25, ("a", 0))],
        WindowSpec::Count(8),
    );
    let (w, n, t) = (12, (0.9, 1.1), (0.95, 1.05));
    let cases: [(Pattern, &[&[usize]]); 10] = [
        (q_a1(4, 6, &[1, 2, 3], n.0, n.1, w), &[&[3, 2, 1, 0]]),
        (q_a1(4, 6, &[1, 2], n.0, n.1, w), &[&[3, 1, 0, 2]]),
        (q_a1(3, 6, &[1, 2], n.0, n.1, w), &[&[2, 1, 0]]),
        (
            q_a4(4, 6, &[1, 2], 1, 3, n.0, n.1, t.0, t.1, w),
            &[&[3, 0, 2, 1]],
        ),
        (
            q_a4(4, 6, &[1, 3], 2, 3, n.0, n.1, n.0, n.1, w),
            &[&[3, 2, 1, 0]],
        ),
        (
            q_a4(4, 4, &[1, 2], 1, 2, n.0, n.1, t.0, t.1, w),
            &[&[3, 1, 0, 2]],
        ),
        (
            q_a9(4, 6, 12, n.0, n.1, n.0, n.1, w),
            &[&[3, 2, 1, 0], &[3, 2, 1, 0]],
        ),
        (
            q_a9(3, 6, 12, n.0, n.1, n.0, n.1, w),
            &[&[2, 1, 0], &[2, 1, 0]],
        ),
        (rare_seq2, &[&[0, 1]]),
        (q_a5(2, 6, 2, n.0, n.1, w), &[&[4, 3, 2, 1, 0, 5, 6]]),
    ];
    for (p, want) in &cases {
        let program = Program::lower(&Plan::compile(p).expect("golden patterns compile"));
        assert_eq!(&program.orders().collect::<Vec<_>>(), want, "{p:?}");
    }
}

#[test]
fn engine_reproduces_the_parent_commit() {
    let want: Vec<Case> = serde_json::from_str(FIXTURE).expect("fixture parses");
    let got = cases(true);
    assert_eq!(got.len(), want.len(), "case list changed");
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(g, w, "{} diverged from the parent commit", w.name);
    }
}

#[test]
fn chosen_order_emits_the_parent_sequences_and_pins_its_work() {
    let parent: Vec<Case> = serde_json::from_str(FIXTURE).expect("fixture parses");
    let want: Vec<Case> = serde_json::from_str(ORDERED).expect("fixture parses");
    let got = cases(false);
    assert_eq!(got.len(), parent.len(), "case list changed");
    assert_eq!(got.len(), want.len(), "case list changed");
    for ((g, p), w) in got.iter().zip(&parent).zip(&want) {
        assert_eq!(
            g.sequence_hash, p.sequence_hash,
            "{}: emitted sequence",
            p.name
        );
        assert_eq!(
            g.stats.events_processed, p.stats.events_processed,
            "{}",
            p.name
        );
        assert_eq!(
            g.stats.matches_emitted, p.stats.matches_emitted,
            "{}",
            p.name
        );
        assert_eq!(g, w, "{} diverged from its recorded work", w.name);
    }
}
