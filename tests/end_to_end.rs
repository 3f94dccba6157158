//! Cross-crate integration tests: the full DLACEP loop — generate data,
//! label with the exact engine, train a filter, run the pipeline, and check
//! the paper's core guarantees.

use dlacep::cep::engine::CepEngine;
use dlacep::cep::pattern::parser::parse_pattern;
use dlacep::cep::{NfaEngine, Pattern, PatternExpr, TypeSet};
use dlacep::core::prelude::*;
use dlacep::core::trainer::{train_event_filter, train_window_filter};
use dlacep::data::label::ground_truth_matches;
use dlacep::data::{StockConfig, SyntheticConfig};
use dlacep::events::{EventStream, TypeId, WindowSpec};

fn seq_pattern(types: &[u32], w: u64) -> Pattern {
    let leaves = types
        .iter()
        .enumerate()
        .map(|(i, &t)| PatternExpr::event(TypeSet::single(TypeId(t)), format!("s{i}")))
        .collect();
    Pattern::new(PatternExpr::Seq(leaves), vec![], WindowSpec::Count(w))
}

#[test]
fn oracle_pipeline_is_lossless_on_stock_data() {
    let (_, stream) = StockConfig {
        num_events: 3_000,
        ..Default::default()
    }
    .generate();
    let pattern = seq_pattern(&[0, 1, 2], 12);
    let truth = ground_truth_matches(&pattern, stream.events());
    assert!(!truth.is_empty(), "pattern should match the stock stream");
    let dl = Dlacep::new(pattern.clone(), OracleFilter::new(pattern)).unwrap();
    let report = dl.run(stream.events());
    let truth_keys: std::collections::BTreeSet<_> =
        truth.iter().map(|m| m.event_ids.clone()).collect();
    let found: std::collections::BTreeSet<_> =
        report.matches.iter().map(|m| m.event_ids.clone()).collect();
    assert_eq!(truth_keys, found);
}

#[test]
fn trained_event_filter_end_to_end_on_synthetic_data() {
    let (_, stream) = SyntheticConfig {
        num_events: 10_000,
        ..Default::default()
    }
    .generate();
    let pattern = seq_pattern(&[0, 1], 8);
    let events = stream.events();
    let train = EventStream::from_events(events[..7_000].to_vec()).unwrap();
    let eval = &events[7_000..];

    let mut cfg = TrainConfig::quick();
    cfg.max_epochs = 12;
    let trained = train_event_filter(&pattern, &train, &cfg);
    let dl = Dlacep::new(pattern.clone(), trained.filter).unwrap();
    let report = compare(&pattern, eval, &dl);
    assert!(report.ecep_matches > 0);
    assert!(report.recall > 0.5, "recall {}", report.recall);
    // §4.4: the ID-distance constraint forbids false positives.
    assert_eq!(report.precision, 1.0);
}

#[test]
fn window_filter_end_to_end() {
    let (_, stream) = SyntheticConfig {
        num_events: 8_000,
        ..Default::default()
    }
    .generate();
    let pattern = seq_pattern(&[2, 3], 8);
    let events = stream.events();
    let train = EventStream::from_events(events[..6_000].to_vec()).unwrap();
    let eval = &events[6_000..];
    let mut cfg = TrainConfig::quick();
    cfg.max_epochs = 12;
    let trained = train_window_filter(&pattern, &train, &cfg);
    let dl = Dlacep::new(pattern.clone(), trained.filter).unwrap();
    let report = compare(&pattern, eval, &dl);
    assert_eq!(report.precision, 1.0);
    assert!(report.recall > 0.5, "recall {}", report.recall);
}

#[test]
fn parsed_pattern_flows_through_whole_stack() {
    let (schema, stream) = StockConfig {
        num_events: 4_000,
        num_tickers: 16,
        ..Default::default()
    }
    .generate();
    let pattern = parse_pattern(
        &schema,
        "SEQ(S000 a, S001 b) WHERE 0.5 * a.vol < b.vol < 2.0 * a.vol WITHIN 10",
    )
    .unwrap();
    let truth = ground_truth_matches(&pattern, stream.events());
    assert!(!truth.is_empty());
    let dl = Dlacep::new(pattern.clone(), OracleFilter::new(pattern)).unwrap();
    let report = dl.run(stream.events());
    assert_eq!(report.matches.len(), truth.len());
}

#[test]
fn negation_pattern_pipeline_has_no_spurious_matches_when_negator_kept() {
    // With the oracle filter the negation-admissible events are relayed, so
    // the extractor sees them and rejects gap-violating matches.
    let (_, stream) = SyntheticConfig {
        num_events: 5_000,
        ..Default::default()
    }
    .generate();
    let pattern = Pattern::new(
        PatternExpr::Seq(vec![
            PatternExpr::event(TypeSet::single(TypeId(0)), "a"),
            PatternExpr::Neg(Box::new(PatternExpr::event(
                TypeSet::single(TypeId(1)),
                "n",
            ))),
            PatternExpr::event(TypeSet::single(TypeId(2)), "b"),
        ]),
        vec![],
        WindowSpec::Count(10),
    );
    let truth = ground_truth_matches(&pattern, stream.events());
    let dl = Dlacep::new(pattern.clone(), OracleFilter::new(pattern)).unwrap();
    let report = dl.run(stream.events());
    let truth_keys: std::collections::BTreeSet<_> =
        truth.iter().map(|m| m.event_ids.clone()).collect();
    for m in &report.matches {
        assert!(
            truth_keys.contains(&m.event_ids),
            "spurious match {:?}",
            m.event_ids
        );
    }
    assert_eq!(
        report.matches.len(),
        truth.len(),
        "oracle negation pipeline is lossless"
    );
}

#[test]
fn engines_agree_across_crates_on_generated_data() {
    use dlacep::cep::plan::{CostModel, Plan};
    use dlacep::cep::program::Program;
    use dlacep::cep::{NfaConfig, TreeEngine};
    let (_, stream) = StockConfig {
        num_events: 2_000,
        ..Default::default()
    }
    .generate();
    let pattern = seq_pattern(&[0, 1, 2], 10);
    let plan = Plan::compile(&pattern).unwrap();
    let model = CostModel::estimate(&plan.branches[0], stream.events());
    let keys = |ms: Vec<dlacep::cep::Match>| -> std::collections::BTreeSet<_> {
        ms.into_iter().map(|m| m.event_ids).collect()
    };
    let mut nfa = NfaEngine::new(&pattern).unwrap();
    let mut tree = TreeEngine::with_cost_model(&pattern, Some(model.clone())).unwrap();
    // The lazy chain: the NFA in the order the measured model picks.
    let program = Program::lower_with(&plan, |_| model.clone());
    let mut lazy = NfaEngine::from_program(std::sync::Arc::new(program), NfaConfig::default());
    let a = keys(nfa.run(stream.events()));
    assert!(!a.is_empty());
    assert_eq!(a, keys(tree.run(stream.events())));
    assert_eq!(a, keys(lazy.run(stream.events())));
}

#[test]
fn throughput_gain_reflects_partial_match_reduction() {
    // The §3.2 story end-to-end: a selective pattern on a heavy stream; the
    // oracle-filtered extractor must create far fewer partial matches. The
    // pattern is selective through a rare last type, not a condition, so
    // the cost model keeps step order and the exact engine materialises
    // every prefix of frequent events (a band on the last step would be
    // bound first and prune most of them before filtering could).
    let (_, stream) = StockConfig {
        num_events: 4_000,
        ..Default::default()
    }
    .generate();
    let mut leaves: Vec<PatternExpr> = (0..3)
        .map(|i| PatternExpr::event(TypeSet::new((0..6).map(TypeId).collect()), format!("s{i}")))
        .collect();
    leaves.push(PatternExpr::event(TypeSet::single(TypeId(30)), "s3"));
    let pattern = Pattern::new(PatternExpr::Seq(leaves), vec![], WindowSpec::Count(16));
    let program = dlacep::cep::Program::lower(&dlacep::cep::Plan::compile(&pattern).unwrap());
    assert_eq!(program.orders().next().unwrap(), &[0, 1, 2, 3][..]);
    let (ecep_matches, _, ecep_stats) = dlacep::core::metrics::run_ecep(&pattern, stream.events());
    assert!(!ecep_matches.is_empty());
    let dl = Dlacep::new(pattern.clone(), OracleFilter::new(pattern)).unwrap();
    let report = dl.run(stream.events());
    assert!(
        report.extractor_stats.partial_matches_created * 2 < ecep_stats.partial_matches_created,
        "filtered {} vs exact {}",
        report.extractor_stats.partial_matches_created,
        ecep_stats.partial_matches_created
    );
}
