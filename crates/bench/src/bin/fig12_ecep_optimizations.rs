//! Figure 12 — DLACEP vs state-of-the-art ECEP optimizations.
//!
//! Baselines: ZStream-style tree evaluation with a DP-optimized plan over a
//! measured cost model, and the NFA lowered with the evaluation order that
//! model picks (the lazy chain: rarest, most selective steps first, the rest
//! pulled from the window). Patterns:
//! `Q_A11(SEQ)`, `Q_A11(CONJ)`, `Q_A12` (DISJ). All throughputs are reported
//! as gains over the plain NFA ECEP baseline, the NFA in arrival order;
//! `nfa-ordered` is the NFA as built by default, in the order the static
//! cost model picks.
//!
//! Shape to reproduce: the optimizations beat plain ECEP mildly; DLACEP far
//! outpaces both (it removes partial matches rather than reordering their
//! construction), with a small recall loss.
//!
//! Two more rows, `Q_A5` (banded single steps, then Kleene closures) under a
//! tight and a wide band, show the order reaching a pattern with a closure:
//! the NFA in step order and in the chosen order, partial matches created
//! and seconds each. The tree engine does not run closures, and the learned
//! rows are left to the three patterns above.

use dlacep_bench::harness::{split_stream, ReplayFilter};
use dlacep_bench::queries::real::{q_a11, q_a12, q_a5, SeqOrConj};
use dlacep_bench::ExpConfig;
use dlacep_cep::engine::CepEngine;
use dlacep_cep::plan::{CostModel, Plan};
use dlacep_cep::program::Program;
use dlacep_cep::{NfaConfig, NfaEngine, Pattern, TreeEngine};
use dlacep_core::metrics::{compare_runs, run_ecep};
use dlacep_core::prelude::*;
use dlacep_core::trainer::train_event_filter;
use dlacep_data::StockConfig;
use dlacep_events::PrimitiveEvent;
use serde::Serialize;
use std::io::Write as _;
use std::sync::Arc;
use std::time::Instant;

#[derive(Serialize)]
struct Entry {
    pattern: String,
    system: String,
    gain: f64,
    recall: f64,
    partials: u64,
    /// Seconds over the evaluation stream.
    secs: f64,
}

/// Time an alternative exact engine; returns (gain over NFA, recall, partials).
fn run_alternative(
    engine: &mut dyn CepEngine,
    events: &[PrimitiveEvent],
    ecep_secs: f64,
    truth: &std::collections::BTreeSet<Vec<dlacep_events::EventId>>,
) -> (f64, f64, u64) {
    let start = Instant::now();
    let matches = engine.run(events);
    let secs = start.elapsed().as_secs_f64();
    let found: std::collections::BTreeSet<_> =
        matches.iter().map(|m| m.event_ids.clone()).collect();
    let common = truth.intersection(&found).count();
    let recall = if truth.is_empty() {
        1.0
    } else {
        common as f64 / truth.len() as f64
    };
    let gain = if secs > 0.0 {
        ecep_secs / secs
    } else {
        f64::INFINITY
    };
    (gain, recall, engine.stats().partial_matches_created)
}

fn main() {
    let cfg = ExpConfig::scaled();
    let (_, stream) = StockConfig {
        num_events: cfg.train_events + cfg.eval_events,
        ..Default::default()
    }
    .generate();
    // Per-pattern windows: ordered variants need a larger W before matches
    // (and partial-match load) appear; the unordered CONJ explodes sooner.
    let patterns: Vec<(&str, Pattern)> = vec![
        ("Q_A11(SEQ)", q_a11(SeqOrConj::Seq, 8, 0.5, 2.0, 72)),
        ("Q_A11(CONJ)", q_a11(SeqOrConj::Conj, 8, 0.5, 2.0, 40)),
        ("Q_A12(DISJ)", q_a12(8, 0.5, 2.0, 0.5, 2.0, 72)),
    ];
    let (train_stream, eval) = split_stream(&stream, cfg.train_events, cfg.eval_events);

    let mut entries: Vec<Entry> = Vec::new();
    for (name, pattern) in &patterns {
        println!("\n== Fig 12: {name} ==");
        // The paper's plain ECEP: the NFA binding steps in arrival order.
        let plan = Plan::compile(pattern).expect("compiles");
        let step_order = Program::lower_with(&plan, |b| CostModel::uniform(b.steps.len()));
        let mut nfa = NfaEngine::from_program(Arc::new(step_order), NfaConfig::default());
        let start = Instant::now();
        let ecep_matches = nfa.run(&eval);
        let (ecep_time, ecep_stats) = (start.elapsed(), *nfa.stats());
        let truth: std::collections::BTreeSet<_> =
            ecep_matches.iter().map(|m| m.event_ids.clone()).collect();
        let ecep_secs = ecep_time.as_secs_f64();
        let mut push = |system: &str, gain: f64, recall: f64, partials: u64| {
            entries.push(Entry {
                pattern: (*name).into(),
                system: system.into(),
                gain,
                recall,
                partials,
                secs: ecep_secs / gain,
            });
        };
        println!(
            "{:<14} gain {:>7.2}  recall {:>5.3}  partials {:>10}",
            "ecep(nfa)", 1.0, 1.0, ecep_stats.partial_matches_created
        );
        push("ecep-nfa", 1.0, 1.0, ecep_stats.partial_matches_created);

        // The NFA as built by default: in the order the static cost model
        // picks, knowing nothing of the stream.
        let (_, secs, stats) = run_ecep(pattern, &eval);
        let gain = ecep_secs / secs.as_secs_f64();
        let partials = stats.partial_matches_created;
        println!(
            "{:<14} gain {:>7.2}  recall {:>5.3}  partials {:>10}",
            "nfa-ordered", gain, 1.0, partials
        );
        push("nfa-ordered", gain, 1.0, partials);

        // ZStream: DP plan over a cost model measured on a training sample.
        let sample = &train_stream.events()[..train_stream.len().min(4000)];
        let model = CostModel::estimate(&plan.branches[0], sample);
        let mut tree =
            TreeEngine::with_cost_model(pattern, Some(model.clone())).expect("tree supports");
        let (gain, recall, partials) = run_alternative(&mut tree, &eval, ecep_secs, &truth);
        println!(
            "{:<14} gain {:>7.2}  recall {:>5.3}  partials {:>10}",
            "zstream", gain, recall, partials
        );
        push("zstream", gain, recall, partials);

        // Lazy evaluation: each branch in the order the model measured on the
        // same sample picks.
        let program = Program::lower_with(&plan, |b| CostModel::estimate(b, sample));
        let mut lazy = NfaEngine::from_program(Arc::new(program), NfaConfig::default());
        let (gain, recall, partials) = run_alternative(&mut lazy, &eval, ecep_secs, &truth);
        println!(
            "{:<14} gain {:>7.2}  recall {:>5.3}  partials {:>10}",
            "lazy", gain, recall, partials
        );
        push("lazy", gain, recall, partials);

        // DLACEP with perfect marks at neural-inference cost: the
        // fully-converged-model upper bound the paper's trained networks
        // approach (their recall is 0.95+ after days of training).
        {
            let assembler = AssemblerConfig::paper_default(pattern.window_size());
            let filter = ReplayFilter::precompute(
                pattern,
                &eval,
                &assembler,
                cfg.train.hidden,
                cfg.train.layers,
            );
            let dl = Dlacep::builder(pattern.clone(), filter)
                .assembler(assembler)
                .build()
                .expect("valid assembler");
            let run = dl.run(&eval);
            let cmp = compare_runs(eval.len(), &ecep_matches, ecep_time, &ecep_stats, &run);
            println!(
                "{:<14} gain {:>7.2}  recall {:>5.3}  partials {:>10}",
                "dlacep-perfect", cmp.throughput_gain, cmp.recall, cmp.acep_partials
            );
            push(
                "dlacep-perfect",
                cmp.throughput_gain,
                cmp.recall,
                cmp.acep_partials,
            );
        }

        // DLACEP with the trained event-network (extra epochs: these
        // patterns span five disjoint type groups and need them).
        let mut tc = cfg.train.clone();
        tc.max_epochs = tc.max_epochs * 3 / 2;
        let out = train_event_filter(pattern, &train_stream, &tc);
        let dl = Dlacep::new(pattern.clone(), out.filter).expect("valid assembler");
        let run = dl.run(&eval);
        let cmp = compare_runs(eval.len(), &ecep_matches, ecep_time, &ecep_stats, &run);
        println!(
            "{:<14} gain {:>7.2}  recall {:>5.3}  partials {:>10}   (model F1 {:.3})",
            "dlacep",
            cmp.throughput_gain,
            cmp.recall,
            cmp.acep_partials,
            out.test.f1()
        );
        push("dlacep", cmp.throughput_gain, cmp.recall, cmp.acep_partials);
    }

    // Q_A5: the NFA in step order, then in the order the static model
    // picks — the single steps last first, the closures absorbed after —
    // with multiquery16's tight band and Fig. 12's wide one.
    for (name, (alpha, beta)) in [("Q_A5(0.9,1.1)", (0.9, 1.1)), ("Q_A5(0.5,2)", (0.5, 2.0))] {
        println!("\n== Fig 12: {name} ==");
        let plan = Plan::compile(&q_a5(2, 8, 2, alpha, beta, 24)).expect("compiles");
        let step_order = Program::lower_with(&plan, |b| CostModel::uniform(b.steps.len()));
        let mut step_secs = 0.0;
        for (system, program) in [
            ("ecep-nfa", step_order),
            ("nfa-ordered", Program::lower(&plan)),
        ] {
            let mut nfa = NfaEngine::from_program(Arc::new(program), NfaConfig::default());
            let start = Instant::now();
            let matches = nfa.run(&eval);
            let secs = start.elapsed().as_secs_f64();
            if system == "ecep-nfa" {
                step_secs = secs;
            }
            let partials = nfa.stats().partial_matches_created;
            println!(
                "{system:<14} gain {:>7.2}  secs {secs:>7.3}  partials {partials:>10}  matches {}",
                step_secs / secs,
                matches.len()
            );
            entries.push(Entry {
                pattern: name.into(),
                system: system.into(),
                gain: step_secs / secs,
                recall: 1.0,
                partials,
                secs,
            });
        }
    }

    let _ = std::fs::create_dir_all("results");
    if let Ok(mut f) = std::fs::File::create("results/fig12_ecep_optimizations.json") {
        let _ = f.write_all(serde_json::to_string_pretty(&entries).unwrap().as_bytes());
        println!("\n[saved results/fig12_ecep_optimizations.json]");
    }
}
