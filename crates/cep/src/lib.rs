//! # dlacep-cep
//!
//! A complex event processing engine substrate. This is the "exact CEP"
//! (ECEP) half of DLACEP: the paper filters a stream with a neural network
//! and hands the survivors to an engine like this one for match grouping.
//!
//! Two evaluation mechanisms are provided:
//! * [`nfa::NfaEngine`] — partial-match evaluation under
//!   skip-till-any-match (the paper's baseline mechanism, §2.1), binding
//!   each branch's steps in the order a join-order cost model
//!   ([`plan::CostModel`]) picks when the [`Program`] is lowered: step
//!   (arrival) order unless another order is cheaper — with measured
//!   rates, the lazy chain of Fig. 12,
//! * [`tree::TreeEngine`] — ZStream-style binary match trees with a
//!   DP-optimized shape (baseline of Fig. 12).
//!
//! Patterns combine SEQ, CONJ, DISJ, Kleene closure and negation with an
//! arithmetic predicate DSL and count- or time-based windows; see
//! [`pattern`] and [`plan`].

#![forbid(unsafe_code)]

pub mod engine;
pub mod nfa;
pub mod pattern;
pub mod plan;
pub mod program;
pub mod rewrite;
pub mod share;
pub mod state;
pub mod stats;
pub mod tree;

#[cfg(test)]
#[path = "lazy_tests.rs"]
mod lazy;

pub use engine::{Bindings, CepEngine, EngineStats, EventArena, Match, MatchIds, MatchSchema};
pub use nfa::{NfaConfig, NfaEngine};
pub use pattern::ast::{Pattern, PatternExpr, TypeSet};
pub use pattern::condition::{CmpOp, Expr, Predicate};
pub use pattern::dsl::{conj, disj, event, kleene, neg, seq, PatternBuilder};
pub use pattern::error::PatternError;
pub use plan::{CompileError, CostModel, Plan};
pub use program::Program;
pub use rewrite::{normalize, normalize_pattern, RewriteStats, MAX_ALTERNATIVES};
pub use share::{AttributedMatches, PatternSet, ShareReport, SharedPlan};
pub use state::{MatchReader, NfaEngineState, StateError, TreeEngineState};
pub use tree::TreeEngine;
