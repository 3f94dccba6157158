//! Property-based equivalence for the pattern-algebra rewriter: on random
//! pattern trees and random streams, the normalized pattern must be
//! match-set-equivalent to the raw pattern on every engine that accepts it.
//!
//! The rewriter is equivalence-preserving *by construction* — its DNF split
//! mirrors the plan compiler's own disjunction hoisting — so for every
//! compilable raw pattern the normalized pattern compiles to the *identical*
//! plan. Normalization only ever broadens the compilable set (empty-group
//! elimination, Kleene/NEG body flattening, double-negation elimination).

use dlacep_cep::engine::CepEngine;
use dlacep_cep::pattern::ast::{Pattern, PatternExpr, TypeSet};
use dlacep_cep::plan::{CostModel, Plan};
use dlacep_cep::program::Program;
use dlacep_cep::rewrite::{is_normalized, normalize, normalize_pattern};
use dlacep_cep::{Match, NfaConfig, NfaEngine, PatternError, TreeEngine};
use dlacep_events::{EventId, EventStream, TypeId, WindowSpec};
use proptest::prelude::*;
use std::sync::Arc;

/// Structural skeleton of a pattern tree; bindings are assigned afterwards
/// so every leaf gets a unique name regardless of tree shape.
#[derive(Debug, Clone)]
enum Shape {
    Leaf(u8),
    Seq(Vec<Shape>),
    Conj(Vec<Shape>),
    Disj(Vec<Shape>),
    Kleene(Box<Shape>),
    Neg(Box<Shape>),
}

/// Recursive tree strategy (the offline proptest stand-in has no
/// `prop_recursive`): combinator nodes down to `depth`, leaves below.
#[derive(Debug, Clone, Copy)]
struct ShapeStrategy {
    depth: u8,
}

impl Strategy for ShapeStrategy {
    type Value = Shape;

    fn generate(&self, rng: &mut proptest::TestRng) -> Shape {
        gen_shape(rng, self.depth)
    }
}

fn gen_shape(rng: &mut proptest::TestRng, depth: u8) -> Shape {
    use rand::Rng;
    if depth == 0 || rng.rng().gen_range(0..5) == 0 {
        return Shape::Leaf(rng.rng().gen_range(0..4u8));
    }
    match rng.rng().gen_range(0..5u8) {
        0 => {
            let n = rng.rng().gen_range(1..4usize);
            Shape::Seq((0..n).map(|_| gen_shape(rng, depth - 1)).collect())
        }
        1 => {
            let n = rng.rng().gen_range(1..3usize);
            Shape::Conj((0..n).map(|_| gen_shape(rng, depth - 1)).collect())
        }
        2 => {
            let n = rng.rng().gen_range(1..3usize);
            Shape::Disj((0..n).map(|_| gen_shape(rng, depth - 1)).collect())
        }
        3 => Shape::Kleene(Box::new(gen_shape(rng, depth - 1))),
        _ => Shape::Neg(Box::new(gen_shape(rng, depth - 1))),
    }
}

fn shape_strategy() -> ShapeStrategy {
    ShapeStrategy { depth: 3 }
}

fn to_expr(shape: &Shape, next: &mut usize) -> PatternExpr {
    match shape {
        Shape::Leaf(t) => {
            let b = format!("b{next}");
            *next += 1;
            PatternExpr::event(TypeSet::single(TypeId(u32::from(*t))), b)
        }
        Shape::Seq(cs) => PatternExpr::Seq(cs.iter().map(|c| to_expr(c, next)).collect()),
        Shape::Conj(cs) => PatternExpr::Conj(cs.iter().map(|c| to_expr(c, next)).collect()),
        Shape::Disj(cs) => PatternExpr::Disj(cs.iter().map(|c| to_expr(c, next)).collect()),
        Shape::Kleene(c) => PatternExpr::Kleene(Box::new(to_expr(c, next))),
        Shape::Neg(c) => PatternExpr::Neg(Box::new(to_expr(c, next))),
    }
}

fn make_stream(types: &[u8]) -> EventStream {
    let mut s = EventStream::new();
    for (i, &t) in types.iter().enumerate() {
        s.push(TypeId(u32::from(t) % 4), i as u64, vec![i as f64]);
    }
    s
}

/// The NFA in a lazy chain ordered by descending step index (a rate per
/// step, the last rarest): every branch without a Kleene step is reordered.
fn lazy(p: &Pattern) -> NfaEngine {
    let model = |b: &dlacep_cep::plan::Branch| CostModel {
        rates: (0..b.steps.len()).rev().map(|i| 1.0 + i as f64).collect(),
        ..CostModel::uniform(b.steps.len())
    };
    let program = Program::lower_with(&Plan::compile(p).unwrap(), model);
    NfaEngine::from_program(Arc::new(program), NfaConfig::default())
}

fn keys(ms: &[Match]) -> Vec<Vec<EventId>> {
    let mut k: Vec<Vec<EventId>> = ms.iter().map(|m| m.event_ids.to_vec()).collect();
    k.sort();
    k.dedup();
    k
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    // For every compilable raw pattern, the normalized pattern compiles to
    // the structurally identical plan — and therefore produces identical
    // matches on the NFA engine. Engines that accept the pattern at all
    // (tree rejects Kleene/NEG, for instance) agree on the key set.
    #[test]
    fn normalization_preserves_matches_on_all_engines(
        shape in shape_strategy(),
        types in prop::collection::vec(0u8..4, 1..16),
        w in 2u64..8,
    ) {
        let mut next = 0;
        let expr = to_expr(&shape, &mut next);
        let raw = Pattern::new(expr, vec![], WindowSpec::Count(w));
        let normalized = match normalize_pattern(&raw) {
            Ok((p, _)) => p,
            // The DNF cap is the only rewrite failure; small trees stay under it.
            Err(PatternError::TooManyAlternatives { .. }) => return Ok(()),
            Err(e) => return Err(TestCaseError(format!("unexpected rewrite error: {e}"))),
        };
        prop_assert!(is_normalized(&normalized.expr));

        let s = make_stream(&types);
        match Plan::compile(&raw) {
            Ok(raw_plan) => {
                // Equivalence by construction: identical plan, byte for byte.
                let norm_plan = Plan::compile(&normalized)
                    .expect("normalization must not shrink the compilable set");
                prop_assert_eq!(&norm_plan, &raw_plan);

                let raw_keys = keys(&NfaEngine::new(&raw).unwrap().run(s.events()));
                let norm_keys = keys(&NfaEngine::new(&normalized).unwrap().run(s.events()));
                prop_assert_eq!(&norm_keys, &raw_keys);

                if let Ok(mut tree) = TreeEngine::new(&raw) {
                    prop_assert_eq!(keys(&tree.run(s.events())), raw_keys.clone());
                    let mut tree_norm = TreeEngine::new(&normalized)
                        .expect("equal plans imply equal tree acceptance");
                    prop_assert_eq!(keys(&tree_norm.run(s.events())), raw_keys.clone());
                }
                prop_assert_eq!(keys(&lazy(&raw).run(s.events())), raw_keys.clone());
                prop_assert_eq!(keys(&lazy(&normalized).run(s.events())), raw_keys);
            }
            Err(_) => {
                // Normalization may broaden the compilable set (flattened
                // Kleene/NEG bodies, eliminated double negation). When it
                // does, the engines must still agree with each other.
                if Plan::compile(&normalized).is_ok() {
                    let norm_keys =
                        keys(&NfaEngine::new(&normalized).unwrap().run(s.events()));
                    if let Ok(mut tree) = TreeEngine::new(&normalized) {
                        prop_assert_eq!(keys(&tree.run(s.events())), norm_keys.clone());
                    }
                    prop_assert_eq!(keys(&lazy(&normalized).run(s.events())), norm_keys);
                }
            }
        }
    }

    // Normalization is idempotent: a second pass is the identity.
    #[test]
    fn normalization_is_idempotent(shape in shape_strategy()) {
        let mut next = 0;
        let expr = to_expr(&shape, &mut next);
        let Ok((once, _)) = normalize(&expr) else { return Ok(()) };
        let (twice, stats) = normalize(&once).expect("renormalizing cannot exceed the cap");
        prop_assert_eq!(&twice, &once);
        prop_assert!(!stats.any(), "second pass must be a no-op, got {:?}", stats);
    }
}
