//! Multi-pattern monitoring (paper §4.3): when several patterns are
//! monitored at once, DLACEP trains a single network on labels OR-ed across
//! patterns — "semantically unifying the patterns into one" — and the paper
//! finds a composite disjunction can even beat the average of evaluating the
//! patterns separately (§5.2, Fig. 9g).
//!
//! This example registers the patterns as a [`PatternSet`]: the set compiles
//! to one fused shared plan that scans each window once, and matches are
//! attributed back to the pattern that produced them.
//!
//! ```bash
//! cargo run --release --example multi_pattern
//! ```

use dlacep::cep::{Expr, Pattern, PatternExpr, PatternSet, Predicate, TypeSet};
use dlacep::core::prelude::*;
use dlacep::core::train_multi_pattern;
use dlacep::data::label::ground_truth_matches;
use dlacep::events::{EventStream, TypeId, WindowSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn stream(n: usize, seed: u64) -> EventStream {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut s = EventStream::new();
    for i in 0..n {
        s.push(
            TypeId(rng.gen_range(0..8u32)),
            i as u64,
            vec![rng.gen_range(0.5..1.5)],
        );
    }
    s
}

fn seq2(first: u32, second: u32, w: u64) -> Pattern {
    Pattern::new(
        PatternExpr::Seq(vec![
            PatternExpr::event(TypeSet::single(TypeId(first)), "x"),
            PatternExpr::event(TypeSet::single(TypeId(second)), "y"),
        ]),
        vec![Predicate::gt(Expr::attr("y", 0), Expr::attr("x", 0))],
        WindowSpec::Count(w),
    )
}

fn main() {
    // Two independently authored alert patterns over the same stream.
    let p1 = seq2(0, 1, 6); // type 0 then type 1, rising attribute
    let p2 = seq2(2, 3, 6); // type 2 then type 3, rising attribute

    // Register them as a first-class pattern set. The compiler normalizes
    // each pattern, dedups structurally identical branches, and fuses the
    // rest into one plan evaluated in a single pass per window.
    let set = PatternSet::new(vec![p1.clone(), p2.clone()]).expect("patterns share a window");
    let shared = set.compile().expect("pattern set compiles");
    let sr = shared.report();
    println!(
        "pattern set: {} patterns, {} branches -> {} fused units ({} merged, {} steps shared by evaluation-order prefixes)",
        sr.patterns, sr.branches_total, sr.units, sr.branches_merged, sr.shared_prefix_steps
    );

    let history = stream(14_000, 5);
    let live = stream(7_000, 6);

    // One network for the whole set: labels are OR-ed across patterns (§4.3).
    println!("\ntraining one network for the pattern set...");
    let trained = train_multi_pattern(set.patterns(), &history, &TrainConfig::quick())
        .expect("pattern set is valid");
    println!(
        "  {} epochs, test F1 = {:.3}",
        trained.report.epochs_run,
        trained.test.f1()
    );

    // The batch pipeline takes the set and the shared filter: filter once,
    // scan once with the fused automaton, attribute per pattern.
    let report = Dlacep::multi(set.clone(), trained.filter)
        .build()
        .unwrap()
        .run(live.events());
    println!(
        "\nshared evaluation over {} events ({} relayed to the extractor):",
        report.events_total, report.events_relayed
    );
    for (i, (p, found)) in [&p1, &p2].iter().zip(&report.per_pattern).enumerate() {
        let truth = ground_truth_matches(p, live.events());
        let keys: std::collections::BTreeSet<_> =
            truth.iter().map(|m| m.event_ids.to_vec()).collect();
        let hit = found.iter().filter(|m| keys.contains(m.key())).count();
        println!(
            "  p{} matches {} / {} (recall {:.3})",
            i + 1,
            hit,
            truth.len(),
            hit as f64 / truth.len().max(1) as f64
        );
    }

    // With an oracle filter the same pipeline shows the union match set
    // next to the per-pattern attribution.
    let oracle = Pattern::disjunction_of(&[p1.clone(), p2.clone()]).expect("one shared window");
    let dl = Dlacep::multi(set, OracleFilter::new(oracle))
        .build()
        .unwrap();
    let r = dl.run(live.events());
    println!(
        "\nDlacep::multi (oracle filter): {} union matches = {} (p1) + {} (p2)",
        r.matches().len(),
        r.per_pattern[0].len(),
        r.per_pattern[1].len()
    );
    println!("(one model, one scan of the stream — vs one of each per pattern when separate)");
}
