//! Multi-query sharing: compile a set of patterns into one shared
//! evaluation plan that scans each window once.
//!
//! [`PatternSet`] registers N patterns (all over one window). Compilation
//! normalizes each pattern through [`crate::rewrite`], compiles it to plan
//! branches, then **canonicalizes** every branch by renaming its bindings to
//! positional names — two branches that differ only in binding names become
//! structurally equal. Equal branches across (or within) patterns are
//! deduplicated into a single *evaluation unit* carrying the list of owner
//! patterns, so a sub-pattern shared by four tenants is evaluated once
//! instead of four times (Kolchinsky & Schuster, "Join Query Optimization
//! Techniques for CEP"). The surviving units form one fused [`Plan`] run by
//! a single engine over a single scan of the stream; emitted matches are
//! attributed back to their source pattern(s) with the original binding
//! names restored: each owner holds the [`MatchSchema`] of its branch, and
//! attribution gives a unit's match the owner's schema in place of the
//! unit's — a handle swap, no name is copied.
//!
//! For a single registered pattern the fused plan is the pattern's own plan
//! (modulo binding names), so matches and their order are identical to
//! single-pattern evaluation.

use crate::engine::{Match, MatchSchema};
use crate::nfa::{NfaConfig, NfaEngine};
use crate::pattern::ast::Pattern;
use crate::pattern::condition::{Expr, Predicate};
use crate::pattern::error::PatternError;
use crate::plan::{Branch, GroupElem, Plan, StepKind};
use crate::program::Program;
use crate::rewrite::{normalize_pattern, RewriteStats};
use dlacep_events::WindowSpec;
use std::collections::HashMap;
use std::sync::Arc;

/// An ordered, non-empty set of patterns sharing one window — the
/// registration point for multi-pattern evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct PatternSet {
    patterns: Vec<Pattern>,
    window: WindowSpec,
}

impl PatternSet {
    /// Register a set of patterns.
    ///
    /// # Errors
    /// [`PatternError::EmptySet`] on zero patterns,
    /// [`PatternError::WindowMismatch`] when windows differ.
    pub fn new(patterns: Vec<Pattern>) -> Result<Self, PatternError> {
        let Some(first) = patterns.first() else {
            return Err(PatternError::EmptySet);
        };
        let window = first.window;
        if let Some(p) = patterns.iter().find(|p| p.window != window) {
            return Err(PatternError::WindowMismatch {
                expected: window,
                got: p.window,
            });
        }
        Ok(Self { patterns, window })
    }

    /// A set holding one pattern.
    pub fn single(pattern: Pattern) -> Self {
        let window = pattern.window;
        Self {
            patterns: vec![pattern],
            window,
        }
    }

    /// The registered patterns, in registration order.
    pub fn patterns(&self) -> &[Pattern] {
        &self.patterns
    }

    /// The shared window.
    pub fn window(&self) -> WindowSpec {
        self.window
    }

    /// Number of registered patterns (always ≥ 1).
    pub fn len(&self) -> usize {
        self.patterns.len()
    }

    /// Always false — construction rejects empty sets.
    pub fn is_empty(&self) -> bool {
        self.patterns.is_empty()
    }

    /// Compile the set into a shared evaluation plan.
    ///
    /// # Errors
    /// Propagates rewrite errors and per-pattern [`PatternError::Compile`].
    pub fn compile(&self) -> Result<SharedPlan, PatternError> {
        SharedPlan::compile(self)
    }
}

/// One owner of an evaluation unit: a source pattern plus the schema of
/// its branch, which names the unit's bindings as the pattern does.
#[derive(Debug, Clone)]
struct Owner {
    pattern: usize,
    schema: Arc<MatchSchema>,
}

/// A deduplicated plan branch shared by one or more owner patterns.
#[derive(Debug, Clone)]
struct Unit {
    owners: Vec<Owner>,
}

/// What sharing achieved, for reporting and benches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShareReport {
    /// Patterns registered.
    pub patterns: usize,
    /// Plan branches across all patterns before deduplication.
    pub branches_total: usize,
    /// Evaluation units after deduplication (= fused plan branches).
    pub units: usize,
    /// Branches eliminated by structural sharing.
    pub branches_merged: usize,
    /// Total overlap between each unit and its best-matching predecessor
    /// of the prefixes their evaluation orders bind
    /// ([`Program::orders`]) — how much a prefix-merging evaluator could
    /// still save.
    pub shared_prefix_steps: usize,
    /// Aggregate rewrite-rule applications across the set.
    pub rewrites: RewriteStats,
}

/// A pattern set compiled into one fused plan with per-pattern attribution.
#[derive(Debug, Clone)]
pub struct SharedPlan {
    fused: Plan,
    /// `fused` lowered once; every engine over this plan shares it.
    program: Arc<Program>,
    units: Vec<Unit>,
    n_patterns: usize,
    report: ShareReport,
}

impl SharedPlan {
    /// Normalize, compile, canonicalize, and deduplicate a pattern set.
    ///
    /// # Errors
    /// See [`PatternSet::compile`].
    pub fn compile(set: &PatternSet) -> Result<SharedPlan, PatternError> {
        let mut canon_branches: Vec<Branch> = Vec::new();
        let mut units: Vec<Unit> = Vec::new();
        let mut report = ShareReport {
            patterns: set.len(),
            ..ShareReport::default()
        };
        for (pi, pattern) in set.patterns().iter().enumerate() {
            let (normalized, stats) = normalize_pattern(pattern)?;
            accumulate(&mut report.rewrites, &stats);
            let plan = Plan::compile(&normalized)?;
            for branch in &plan.branches {
                report.branches_total += 1;
                let owner = Owner {
                    pattern: pi,
                    schema: Arc::new(branch.match_schema(None)),
                };
                let canon = canonicalize(branch);
                match canon_branches.iter().position(|b| *b == canon) {
                    Some(k) => units[k].owners.push(owner),
                    None => {
                        canon_branches.push(canon);
                        units.push(Unit {
                            owners: vec![owner],
                        });
                    }
                }
            }
        }
        report.units = units.len();
        report.branches_merged = report.branches_total - report.units;

        // Prefix each unit's canonical names with `u<k>.` so binding names
        // are unique across the fused plan. Fused branch `k` is unit `k`:
        // its matches' schema says so.
        let fused_branches = (canon_branches.iter().enumerate())
            .map(|(k, canon)| rename_branch(canon, &|name| format!("u{k}.{name}")))
            .collect();
        let fused = Plan {
            branches: fused_branches,
            window: set.window(),
        };
        let program = Arc::new(Program::lower(&fused));
        let units_in_order: Vec<(&Branch, &[usize])> =
            canon_branches.iter().zip(program.orders()).collect();
        for k in 1..units_in_order.len() {
            report.shared_prefix_steps += (0..k)
                .map(|j| prefix_overlap(units_in_order[j], units_in_order[k]))
                .max()
                .unwrap_or(0);
        }
        Ok(SharedPlan {
            program,
            fused,
            units,
            n_patterns: set.len(),
            report,
        })
    }

    /// The fused plan (one branch per evaluation unit).
    pub fn plan(&self) -> &Plan {
        &self.fused
    }

    /// The shared window.
    pub fn window(&self) -> WindowSpec {
        self.fused.window
    }

    /// Number of source patterns.
    pub fn n_patterns(&self) -> usize {
        self.n_patterns
    }

    /// Sharing statistics.
    pub fn report(&self) -> &ShareReport {
        &self.report
    }

    /// Instantiate an NFA engine over the fused plan — one engine, one scan,
    /// for the whole set.
    pub fn engine(&self, config: NfaConfig) -> NfaEngine {
        NfaEngine::from_program(Arc::clone(&self.program), config)
    }

    /// Attribute fused-plan matches back to their source patterns: returns
    /// one match list per registered pattern (registration order), with the
    /// pattern's original binding names restored. A match from a unit with
    /// several owners is attributed to each of them; a match whose bindings
    /// are not a unit's is dropped.
    ///
    /// Consumes the engine's matches: each match's unit is read off its
    /// schema, the unit's last owner takes the match itself with the
    /// owner's schema swapped in, and every other owner gets one copy.
    pub fn attribute(&self, matches: Vec<Match>) -> Vec<Vec<Match>> {
        let mut per: Vec<Vec<Match>> = vec![Vec::new(); self.n_patterns];
        for mut m in matches {
            let Some(k) = self.unit_of(m.schema()) else {
                continue;
            };
            let (last, others) = self.units[k]
                .owners
                .split_last()
                .expect("every unit has an owner");
            for owner in others {
                let mut copy = m.clone();
                copy.set_schema(&owner.schema);
                per[owner.pattern].push(copy);
            }
            m.set_schema(&last.schema);
            per[last.pattern].push(m);
        }
        per
    }

    /// The unit whose matches bind the names `schema` does: the branch the
    /// schema was built for, when it is a branch of the fused plan (any
    /// lowering of it), else the unit with those names — a match rebuilt
    /// from its bytes, such as a pending match of an engine restored from
    /// a checkpoint, holds a schema of its own.
    fn unit_of(&self, schema: &Arc<MatchSchema>) -> Option<usize> {
        let units = &self.program.branches;
        let fits = |k: &usize| {
            units.get(*k).is_some_and(|bp| {
                Arc::ptr_eq(&bp.schema, schema) || bp.schema.names() == schema.names()
            })
        };
        schema
            .branch()
            .filter(fits)
            .or_else(|| (0..units.len()).find(fits))
    }

    /// [`SharedPlan::attribute`] over borrowed matches (copies them first).
    pub fn attribute_all(&self, matches: &[Match]) -> AttributedMatches {
        AttributedMatches {
            per_pattern: self.attribute(matches.to_vec()),
        }
    }
}

/// Fused-plan matches attributed back to their source patterns.
#[derive(Debug, Clone)]
pub struct AttributedMatches {
    /// Matches per source pattern, in registration order.
    pub per_pattern: Vec<Vec<Match>>,
}

fn accumulate(into: &mut RewriteStats, from: &RewriteStats) {
    into.flattened += from.flattened;
    into.singletons_collapsed += from.singletons_collapsed;
    into.disj_hoisted += from.disj_hoisted;
    into.disj_distributed += from.disj_distributed;
    into.groups_simplified += from.groups_simplified;
}

/// Rename every binding in a branch to a positional name (`s<i>` for the
/// single step at index i, `k<i>x<j>` for Kleene elements, `n<g>x<j>` for
/// negated elements), rewriting all conditions consistently. Branches that
/// differ only in binding names become equal.
fn canonicalize(branch: &Branch) -> Branch {
    let mut map: HashMap<String, String> = HashMap::new();
    for (i, step) in branch.steps.iter().enumerate() {
        match &step.kind {
            StepKind::Single { binding, .. } => {
                map.insert(binding.clone(), format!("s{i}"));
            }
            StepKind::Kleene { inner, .. } => {
                for (j, elem) in inner.iter().enumerate() {
                    map.insert(elem.binding.clone(), format!("k{i}x{j}"));
                }
            }
        }
    }
    for (g, neg) in branch.negs.iter().enumerate() {
        for (j, elem) in neg.inner.iter().enumerate() {
            map.insert(elem.binding.clone(), format!("n{g}x{j}"));
        }
    }
    rename_branch(branch, &|name| {
        map.get(name).cloned().unwrap_or_else(|| name.to_string())
    })
}

/// Structurally rename every binding occurrence in a branch.
fn rename_branch(branch: &Branch, f: &dyn Fn(&str) -> String) -> Branch {
    let mut out = branch.clone();
    for step in &mut out.steps {
        match &mut step.kind {
            StepKind::Single { binding, .. } => *binding = f(binding),
            StepKind::Kleene {
                inner,
                iter_conditions,
            } => {
                rename_elems(inner, f);
                for c in iter_conditions.iter_mut() {
                    *c = rename_pred(c, f);
                }
            }
        }
    }
    for neg in &mut out.negs {
        rename_elems(&mut neg.inner, f);
        for c in neg.conditions.iter_mut() {
            *c = rename_pred(c, f);
        }
    }
    for g in &mut out.global_conds {
        g.pred = rename_pred(&g.pred, f);
    }
    for (_, p) in &mut out.deferred_conds {
        *p = rename_pred(p, f);
    }
    out
}

fn rename_elems(elems: &mut [GroupElem], f: &dyn Fn(&str) -> String) {
    for e in elems {
        e.binding = f(&e.binding);
    }
}

fn rename_expr(e: &Expr, f: &dyn Fn(&str) -> String) -> Expr {
    match e {
        Expr::Const(c) => Expr::Const(*c),
        Expr::Attr { binding, attr } => Expr::Attr {
            binding: f(binding),
            attr: *attr,
        },
        Expr::Mul(a, b) => Expr::Mul(Box::new(rename_expr(a, f)), Box::new(rename_expr(b, f))),
        Expr::Add(a, b) => Expr::Add(Box::new(rename_expr(a, f)), Box::new(rename_expr(b, f))),
        Expr::Sub(a, b) => Expr::Sub(Box::new(rename_expr(a, f)), Box::new(rename_expr(b, f))),
    }
}

fn rename_pred(p: &Predicate, f: &dyn Fn(&str) -> String) -> Predicate {
    match p {
        Predicate::Cmp { lhs, op, rhs } => Predicate::Cmp {
            lhs: rename_expr(lhs, f),
            op: *op,
            rhs: rename_expr(rhs, f),
        },
        Predicate::And(ps) => Predicate::And(ps.iter().map(|q| rename_pred(q, f)).collect()),
        Predicate::Or(ps) => Predicate::Or(ps.iter().map(|q| rename_pred(q, f)).collect()),
        Predicate::Not(q) => Predicate::Not(Box::new(rename_pred(q, f))),
        Predicate::True => Predicate::True,
    }
}

/// Length of the common prefix of two canonical branches in their
/// evaluation orders: the steps bound at each position match in kind and
/// in the positions of the steps they must follow.
fn prefix_overlap((a, oa): (&Branch, &[usize]), (b, ob): (&Branch, &[usize])) -> usize {
    let preds = |branch: &Branch, order: &[usize], s: usize| {
        (order.iter().enumerate())
            .filter(|(_, q)| branch.steps[s].preds >> **q & 1 == 1)
            .fold(0u64, |m, (k, _)| m | 1 << k)
    };
    (oa.iter().zip(ob))
        .take_while(|(&x, &y)| {
            a.steps[x].kind == b.steps[y].kind && preds(a, oa, x) == preds(b, ob, y)
        })
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::CepEngine;
    use crate::pattern::condition::{Expr, Predicate};
    use crate::pattern::dsl::{disj, event, seq};
    use crate::pattern::TypeSet;
    use dlacep_events::{EventId, PrimitiveEvent, TypeId};

    fn ev(t: u32, b: &str) -> crate::pattern::ast::PatternExpr {
        event(TypeSet::single(TypeId(t)), b)
    }

    fn stream(types: &[u32]) -> Vec<PrimitiveEvent> {
        types
            .iter()
            .enumerate()
            .map(|(i, &t)| PrimitiveEvent {
                id: EventId(i as u64),
                type_id: TypeId(t),
                ts: dlacep_events::Timestamp(i as u64),
                attrs: vec![i as f64],
            })
            .collect()
    }

    fn w(n: u64) -> WindowSpec {
        WindowSpec::Count(n)
    }

    /// Attribution by names: find the unit by a fused branch's binding
    /// names, rebuild every owner's match from the engine's with the names
    /// its pattern's branch emits, and put it into the pattern's list.
    fn attribute_by_rebuild(shared: &SharedPlan, matches: &[Match]) -> Vec<Vec<Match>> {
        let mut per: Vec<Vec<Match>> = vec![Vec::new(); shared.n_patterns];
        for m in matches {
            let names: Vec<&str> = m.bindings().map(|(name, _)| name).collect();
            let Some(k) =
                (shared.fused.branches.iter()).position(|b| b.match_schema(None).names() == names)
            else {
                continue;
            };
            for owner in &shared.units[k].owners {
                let bindings: Vec<(String, Vec<EventId>)> = owner
                    .schema
                    .names()
                    .iter()
                    .cloned()
                    .zip(m.bindings().map(|(_, ids)| ids.to_vec()))
                    .collect();
                per[owner.pattern].push(Match::from_bindings(bindings));
            }
        }
        per
    }

    /// A random pattern set from `genes`: up to three shapes (a `SEQ` of
    /// two or three events, some ending in a Kleene closure, some with a
    /// disjunctive step), each registered once or twice under fresh binding
    /// names — short ones and ones longer than the fused `u<k>.…` names.
    fn random_set(genes: &[u32]) -> PatternSet {
        let mut g = genes.iter().copied().cycle();
        let mut next = move |n: u32| g.next().unwrap_or(0) % n;
        let mut names = 0;
        let mut name = |long: bool| {
            names += 1;
            if long {
                format!("a_binding_name_longer_than_any_fused_one_{names}")
            } else {
                format!("b{names}")
            }
        };
        let mut patterns = Vec::new();
        for _ in 0..=next(3) {
            let (len, kleene, disj_at) = (2 + next(2) as usize, next(2) == 0, next(4) as usize);
            let types: Vec<u32> = (0..len + 1).map(|_| next(3)).collect();
            for _ in 0..=next(2) {
                let long = next(2) == 0;
                let mut elems: Vec<_> = (0..len)
                    .map(|i| match i == disj_at {
                        true => disj([ev(types[i], &name(long)), ev(types[len], &name(long))]),
                        false => ev(types[i], &name(long)),
                    })
                    .collect();
                if kleene {
                    elems.push(crate::pattern::dsl::kleene(ev(3, &name(long))));
                }
                patterns.push(Pattern::new(seq(elems), vec![], w(6)));
            }
        }
        PatternSet::new(patterns).unwrap()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(96))]

        #[test]
        fn owning_attribution_equals_the_clone_and_rebuild_oracle(
            genes in proptest::prop::collection::vec(0u32..1_000, 32),
            types in proptest::prop::collection::vec(0u32..4, 10..40),
        ) {
            let set = random_set(&genes);
            let shared = set.compile().unwrap();
            let fused = shared.engine(NfaConfig::default()).run(&stream(&types));
            let want = attribute_by_rebuild(&shared, &fused);
            let got = shared.attribute(fused);
            proptest::prop_assert_eq!(got.len(), set.len());
            for (p, (got, want)) in got.iter().zip(&want).enumerate() {
                proptest::prop_assert_eq!(got, want, "pattern {} of {:?}", p, set);
            }
        }
    }

    #[test]
    fn rejects_empty_and_mixed_windows() {
        assert_eq!(PatternSet::new(vec![]).unwrap_err(), PatternError::EmptySet);
        let a = Pattern::new(ev(0, "a"), vec![], w(4));
        let b = Pattern::new(ev(1, "b"), vec![], w(5));
        assert!(matches!(
            PatternSet::new(vec![a, b]).unwrap_err(),
            PatternError::WindowMismatch { .. }
        ));
    }

    #[test]
    fn identical_branches_share_one_unit() {
        // Same structure, different binding names: must fuse to one unit
        // with two owners.
        let p1 = Pattern::new(seq([ev(0, "x"), ev(1, "y")]), vec![], w(6));
        let p2 = Pattern::new(seq([ev(0, "u"), ev(1, "v")]), vec![], w(6));
        let shared = PatternSet::new(vec![p1, p2]).unwrap().compile().unwrap();
        assert_eq!(shared.report().branches_total, 2);
        assert_eq!(shared.report().units, 1);
        assert_eq!(shared.report().branches_merged, 1);

        let evs = stream(&[0, 1, 0, 1]);
        let mut eng = shared.engine(NfaConfig::default());
        let matches = eng.run(&evs);
        let per = shared.attribute(matches);
        assert_eq!(per.len(), 2);
        assert_eq!(per[0].len(), per[1].len());
        assert!(!per[0].is_empty());
        assert_eq!(per[0][0].bindings().next().unwrap().0, "x");
        assert_eq!(per[1][0].bindings().next().unwrap().0, "u");
        assert_eq!(per[0][0].event_ids, per[1][0].event_ids);
    }

    #[test]
    fn differing_conditions_stay_separate_units() {
        // Same structure but different WHERE clauses must not fuse: the
        // canonicalized conditions differ.
        let cond = Predicate::lt(Expr::attr("x", 0), Expr::attr("y", 0));
        let p1 = Pattern::new(seq([ev(0, "x"), ev(1, "y")]), vec![cond], w(6));
        let p2 = Pattern::new(seq([ev(0, "u"), ev(1, "v")]), vec![], w(6));
        let shared = PatternSet::new(vec![p1, p2]).unwrap().compile().unwrap();
        assert_eq!(shared.report().units, 2);
        assert_eq!(shared.report().branches_merged, 0);
    }

    #[test]
    fn single_pattern_matches_are_bitwise_identical() {
        let p = Pattern::new(
            seq([ev(0, "a"), disj([ev(1, "b"), ev(2, "c")])]),
            vec![],
            w(8),
        );
        let evs = stream(&[0, 1, 2, 0, 1]);
        let direct = NfaEngine::new(&p).unwrap().run(&evs);
        let shared = PatternSet::single(p).compile().unwrap();
        let fused = shared.engine(NfaConfig::default()).run(&evs);
        let per = shared.attribute(fused);
        assert_eq!(per.len(), 1);
        assert_eq!(per[0], direct);
    }

    #[test]
    fn shared_scan_processes_each_event_once() {
        let p1 = Pattern::new(seq([ev(0, "a"), ev(1, "b")]), vec![], w(6));
        let p2 = Pattern::new(seq([ev(2, "c"), ev(3, "d")]), vec![], w(6));
        let shared = PatternSet::new(vec![p1, p2]).unwrap().compile().unwrap();
        let evs = stream(&[0, 1, 2, 3, 0, 1]);
        let mut eng = shared.engine(NfaConfig::default());
        let _ = eng.run(&evs);
        assert_eq!(eng.stats().events_processed, evs.len() as u64);
    }

    #[test]
    fn prefix_overlap_reported() {
        // Two patterns sharing a 2-step prefix, diverging on the third.
        let p1 = Pattern::new(seq([ev(0, "a"), ev(1, "b"), ev(2, "c")]), vec![], w(8));
        let p2 = Pattern::new(seq([ev(0, "x"), ev(1, "y"), ev(3, "z")]), vec![], w(8));
        let shared = PatternSet::new(vec![p1, p2]).unwrap().compile().unwrap();
        assert_eq!(shared.report().units, 2);
        assert_eq!(shared.report().shared_prefix_steps, 2);
    }

    #[test]
    fn prefix_overlap_follows_the_evaluation_order() {
        // Banded to their last step, both bind it first: they share the
        // last two steps of step order, not the first two.
        let banded = |first: u32, last: u32| {
            let conds = ["a", "b"].map(|x| Predicate::lt(Expr::attr(x, 0), Expr::attr("c", 0)));
            let steps = seq([ev(first, "a"), ev(1, "b"), ev(last, "c")]);
            Pattern::new(steps, conds.to_vec(), w(8))
        };
        let set = |p, q| PatternSet::new(vec![p, q]).unwrap().compile().unwrap();
        let shared = set(banded(0, 2), banded(5, 2));
        assert!(shared.program.orders().all(|o| o == [2, 1, 0]));
        assert_eq!(shared.report().shared_prefix_steps, 2);
        assert_eq!(
            set(banded(0, 2), banded(0, 3)).report().shared_prefix_steps,
            0
        );
    }
}
