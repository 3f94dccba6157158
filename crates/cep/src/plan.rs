//! Compilation of [`Pattern`]s into executable evaluation plans.
//!
//! Compilation performs three normalizations:
//! 1. **DISJ hoisting** — disjunctions distribute to the top, producing one
//!    [`Branch`] per alternative (a DISJ match is the union of its branches'
//!    matches, paper §2.1).
//! 2. **Flattening into a partial order** — SEQ/CONJ nesting becomes a list
//!    of [`PlanStep`]s, each carrying the set of steps that must precede it
//!    temporally (SEQ chains steps; CONJ leaves them unordered).
//! 3. **Condition classification** — each `WHERE` predicate is routed to the
//!    earliest point it can prune: eagerly on single-event slots, per Kleene
//!    iteration, or as a negation-gap constraint.

use crate::engine::MatchSchema;
use crate::pattern::ast::{Pattern, PatternExpr, TypeSet};
use crate::pattern::condition::Predicate;
use dlacep_events::{PrimitiveEvent, WindowSpec};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Maximum positive steps per branch (step sets are `u64` bitmasks).
pub const MAX_STEPS: usize = 64;

/// Errors surfaced during pattern compilation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// The pattern has no positive event leaves.
    EmptyPattern,
    /// A binding name occurs twice within one branch.
    DuplicateBinding(String),
    /// NEG used outside a SEQ (e.g. directly under CONJ or at top level).
    NegOutsideSeq,
    /// NEG with no positive element after it in the sequence.
    NegAtEnd,
    /// Kleene body must be a single event or a SEQ of events.
    UnsupportedKleeneBody,
    /// DISJ under KC or NEG cannot be hoisted.
    DisjUnderKleeneOrNeg,
    /// A condition references a binding that no branch defines.
    UnknownBinding(String),
    /// A condition references Kleene-iteration bindings of two different
    /// Kleene steps.
    ConditionSpansKleenes,
    /// A condition mixes negated and Kleene bindings.
    ConditionMixesNegAndKleene,
    /// A condition references bindings of two different negation groups.
    ConditionSpansNegs,
    /// More than [`MAX_STEPS`] positive steps in one branch.
    TooManySteps,
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::EmptyPattern => write!(f, "pattern has no positive events"),
            CompileError::DuplicateBinding(b) => write!(f, "duplicate binding {b:?}"),
            CompileError::NegOutsideSeq => write!(f, "NEG is only supported inside SEQ"),
            CompileError::NegAtEnd => {
                write!(f, "NEG must be followed by a positive element in the SEQ")
            }
            CompileError::UnsupportedKleeneBody => {
                write!(f, "KC body must be an event or a SEQ of events")
            }
            CompileError::DisjUnderKleeneOrNeg => {
                write!(f, "DISJ nested under KC/NEG is not supported")
            }
            CompileError::UnknownBinding(b) => {
                write!(f, "condition references unknown binding {b:?}")
            }
            CompileError::ConditionSpansKleenes => {
                write!(f, "condition references two different Kleene closures")
            }
            CompileError::ConditionMixesNegAndKleene => {
                write!(f, "condition mixes negated and Kleene bindings")
            }
            CompileError::ConditionSpansNegs => {
                write!(f, "condition references two different negation groups")
            }
            CompileError::TooManySteps => write!(f, "more than {MAX_STEPS} steps in a branch"),
        }
    }
}

impl std::error::Error for CompileError {}

/// One typed leaf inside a Kleene or negation group.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GroupElem {
    /// Admissible types.
    pub types: TypeSet,
    /// Binding name of the element.
    pub binding: String,
}

/// What a positive plan step matches.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum StepKind {
    /// A single primitive event.
    Single {
        /// Admissible types.
        types: TypeSet,
        /// Binding name.
        binding: String,
    },
    /// One-or-more repetitions of an inner event sequence (KC).
    Kleene {
        /// The inner sequence; length 1 for `KC(event)`.
        inner: Vec<GroupElem>,
        /// Conditions referencing this closure's bindings, applied to every
        /// iteration (∀ semantics). Evaluated at iteration completion when
        /// decidable, re-checked at match completion otherwise.
        iter_conditions: Vec<Predicate>,
    },
}

/// A positive step with its temporal predecessors.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanStep {
    /// What to match.
    pub kind: StepKind,
    /// Step indices whose events must all precede this step's events.
    pub preds: u64,
}

/// A negated element group: `inner` must not occur (in order, satisfying
/// `conditions`) strictly between the events bound to `after` and `before`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NegGroup {
    /// Negated sequence (length 1 for a single negated event).
    pub inner: Vec<GroupElem>,
    /// Positive steps whose latest event starts the gap (empty = window
    /// start of the match).
    pub after: Vec<usize>,
    /// Positive steps whose earliest event ends the gap (never empty).
    pub before: Vec<usize>,
    /// Conditions referencing negated + positive single bindings.
    pub conditions: Vec<Predicate>,
}

/// A condition over single-event slots, evaluated eagerly once all referenced
/// steps are bound.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GlobalCond {
    /// The predicate.
    pub pred: Predicate,
    /// Bitmask of steps that must be bound before evaluation.
    pub step_mask: u64,
}

/// One DISJ alternative, fully normalized.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Branch {
    /// Positive steps.
    pub steps: Vec<PlanStep>,
    /// Negation groups.
    pub negs: Vec<NegGroup>,
    /// Eager single-slot conditions.
    pub global_conds: Vec<GlobalCond>,
    /// Kleene-referencing conditions re-validated at completion:
    /// `(kleene step index, predicate)`.
    pub deferred_conds: Vec<(usize, Predicate)>,
}

impl Branch {
    /// Bitmask with one bit per step.
    pub fn full_mask(&self) -> u64 {
        if self.steps.len() == 64 {
            u64::MAX
        } else {
            (1u64 << self.steps.len()) - 1
        }
    }

    /// Indices of Kleene steps.
    pub fn kleene_steps(&self) -> Vec<usize> {
        self.steps
            .iter()
            .enumerate()
            .filter(|(_, s)| matches!(s.kind, StepKind::Kleene { .. }))
            .map(|(i, _)| i)
            .collect()
    }

    /// Per step, the steps that must precede it, transitively.
    pub(crate) fn before_masks(&self) -> Vec<u64> {
        // Predecessors have lower indices: their closures are known.
        let mut before: Vec<u64> = Vec::with_capacity(self.steps.len());
        for step in &self.steps {
            let m = (0..before.len())
                .filter(|p| step.preds >> p & 1 == 1)
                .fold(step.preds, |m, p| m | before[p]);
            before.push(m);
        }
        before
    }

    /// Bitmask of steps that (directly) require step `s` to precede them.
    pub fn successor_mask(&self, s: usize) -> u64 {
        let mut m = 0u64;
        for (i, step) in self.steps.iter().enumerate() {
            if step.preds & (1 << s) != 0 {
                m |= 1 << i;
            }
        }
        m
    }

    /// The schema of the matches the branch emits, naming their bindings in
    /// [`Match`](crate::Match) order: steps in order, a single step
    /// contributing its binding and a Kleene step its inner elements'.
    /// (Negated bindings never appear in matches.) `branch` is the branch's
    /// index in its plan.
    pub fn match_schema(&self, branch: Option<usize>) -> MatchSchema {
        let mut bindings = Vec::with_capacity(self.steps.len());
        for step in &self.steps {
            match &step.kind {
                StepKind::Single { binding, .. } => bindings.push((binding.clone(), false)),
                StepKind::Kleene { inner, .. } => {
                    bindings.extend(inner.iter().map(|e| (e.binding.clone(), true)));
                }
            }
        }
        MatchSchema::new(bindings, branch)
    }

    /// Every binding name of the branch with the slot it resolves to — what
    /// engines lower conditions through, once, when they are built.
    pub fn slots(&self) -> HashMap<&str, Slot> {
        let mut slots = HashMap::new();
        for (step, s) in self.steps.iter().enumerate() {
            match &s.kind {
                StepKind::Single { binding, .. } => {
                    slots.insert(binding.as_str(), Slot::Step(step));
                }
                StepKind::Kleene { inner, .. } => {
                    for (elem, e) in inner.iter().enumerate() {
                        slots.insert(e.binding.as_str(), Slot::KleeneElem { step, elem });
                    }
                }
            }
        }
        for (neg, group) in self.negs.iter().enumerate() {
            for (elem, e) in group.inner.iter().enumerate() {
                slots.insert(e.binding.as_str(), Slot::NegElem { neg, elem });
            }
        }
        slots
    }
}

/// A compiled pattern: DISJ branches plus the window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Plan {
    /// The alternatives.
    pub branches: Vec<Branch>,
    /// Window semantics shared by all branches.
    pub window: WindowSpec,
}

impl Plan {
    /// Compile a pattern.
    pub fn compile(pattern: &Pattern) -> Result<Plan, CompileError> {
        let alts = hoist_disj(&pattern.expr)?;
        if alts.is_empty() {
            return Err(CompileError::EmptyPattern);
        }
        let mut branches = Vec::with_capacity(alts.len());
        for alt in &alts {
            branches.push(compile_branch(alt, &pattern.conditions)?);
        }
        // Every condition must land in at least one branch.
        for cond in &pattern.conditions {
            let placed = branches.iter().any(|b| {
                b.global_conds.iter().any(|g| &g.pred == cond)
                    || b.deferred_conds.iter().any(|(_, p)| p == cond)
                    || b.negs.iter().any(|n| n.conditions.contains(cond))
                    || b.steps.iter().any(|s| match &s.kind {
                        StepKind::Kleene {
                            iter_conditions, ..
                        } => iter_conditions.contains(cond),
                        StepKind::Single { .. } => false,
                    })
            });
            if !placed {
                let missing = cond
                    .referenced_bindings()
                    .first()
                    .map(|s| (*s).to_string())
                    .unwrap_or_default();
                return Err(CompileError::UnknownBinding(missing));
            }
        }
        Ok(Plan {
            branches,
            window: pattern.window,
        })
    }
}

/// Distribute DISJ to the top level.
fn hoist_disj(expr: &PatternExpr) -> Result<Vec<PatternExpr>, CompileError> {
    match expr {
        PatternExpr::Event { .. } => Ok(vec![expr.clone()]),
        PatternExpr::Disj(children) => {
            let mut out = Vec::new();
            for c in children {
                out.extend(hoist_disj(c)?);
            }
            Ok(out)
        }
        PatternExpr::Seq(children) | PatternExpr::Conj(children) => {
            let is_seq = matches!(expr, PatternExpr::Seq(_));
            let mut combos: Vec<Vec<PatternExpr>> = vec![Vec::new()];
            for c in children {
                let alts = hoist_disj(c)?;
                let mut next = Vec::with_capacity(combos.len() * alts.len());
                for combo in &combos {
                    for alt in &alts {
                        let mut v = combo.clone();
                        v.push(alt.clone());
                        next.push(v);
                    }
                }
                combos = next;
            }
            Ok(combos
                .into_iter()
                .map(|v| {
                    if is_seq {
                        PatternExpr::Seq(v)
                    } else {
                        PatternExpr::Conj(v)
                    }
                })
                .collect())
        }
        PatternExpr::Kleene(body) => {
            let alts = hoist_disj(body)?;
            if alts.len() != 1 {
                return Err(CompileError::DisjUnderKleeneOrNeg);
            }
            Ok(vec![PatternExpr::Kleene(Box::new(
                alts.into_iter().next().expect("len 1"),
            ))])
        }
        PatternExpr::Neg(body) => {
            let alts = hoist_disj(body)?;
            if alts.len() != 1 {
                return Err(CompileError::DisjUnderKleeneOrNeg);
            }
            Ok(vec![PatternExpr::Neg(Box::new(
                alts.into_iter().next().expect("len 1"),
            ))])
        }
    }
}

/// Where a binding name resolves within a branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Slot {
    /// The event bound to single step `.0`.
    Step(usize),
    /// Element `elem` of an iteration of Kleene step `step`.
    KleeneElem {
        /// The Kleene step.
        step: usize,
        /// Position within its inner sequence.
        elem: usize,
    },
    /// Element `elem` of an occurrence of negation group `neg`.
    NegElem {
        /// Index into [`Branch::negs`].
        neg: usize,
        /// Position within its inner sequence.
        elem: usize,
    },
}

#[derive(Default)]
struct BranchBuilder {
    steps: Vec<PlanStep>,
    negs: Vec<NegGroup>,
    names: HashMap<String, Slot>,
}

impl BranchBuilder {
    fn declare(&mut self, name: &str, slot: Slot) -> Result<(), CompileError> {
        if self.names.insert(name.to_string(), slot).is_some() {
            return Err(CompileError::DuplicateBinding(name.to_string()));
        }
        Ok(())
    }
}

/// Flatten a Kleene/NEG body into a leaf sequence.
fn flatten_leaf_seq(expr: &PatternExpr) -> Result<Vec<GroupElem>, CompileError> {
    match expr {
        PatternExpr::Event { types, binding } => Ok(vec![GroupElem {
            types: types.clone(),
            binding: binding.clone(),
        }]),
        PatternExpr::Seq(children) => {
            let mut out = Vec::with_capacity(children.len());
            for c in children {
                match c {
                    PatternExpr::Event { types, binding } => out.push(GroupElem {
                        types: types.clone(),
                        binding: binding.clone(),
                    }),
                    _ => return Err(CompileError::UnsupportedKleeneBody),
                }
            }
            if out.is_empty() {
                return Err(CompileError::UnsupportedKleeneBody);
            }
            Ok(out)
        }
        _ => Err(CompileError::UnsupportedKleeneBody),
    }
}

fn mask_of(steps: &[usize]) -> u64 {
    steps.iter().fold(0u64, |m, &s| m | (1 << s))
}

/// Walk the expression tree, emitting steps. Returns `(firsts, lasts)`:
/// the step indices that begin/end the element for SEQ chaining.
fn walk(
    expr: &PatternExpr,
    preds: &[usize],
    b: &mut BranchBuilder,
) -> Result<(Vec<usize>, Vec<usize>), CompileError> {
    match expr {
        PatternExpr::Event { types, binding } => {
            let idx = b.steps.len();
            if idx >= MAX_STEPS {
                return Err(CompileError::TooManySteps);
            }
            b.declare(binding, Slot::Step(idx))?;
            b.steps.push(PlanStep {
                kind: StepKind::Single {
                    types: types.clone(),
                    binding: binding.clone(),
                },
                preds: mask_of(preds),
            });
            Ok((vec![idx], vec![idx]))
        }
        PatternExpr::Kleene(body) => {
            let inner = flatten_leaf_seq(body)?;
            let idx = b.steps.len();
            if idx >= MAX_STEPS {
                return Err(CompileError::TooManySteps);
            }
            for (elem, e) in inner.iter().enumerate() {
                b.declare(&e.binding, Slot::KleeneElem { step: idx, elem })?;
            }
            b.steps.push(PlanStep {
                kind: StepKind::Kleene {
                    inner,
                    iter_conditions: Vec::new(),
                },
                preds: mask_of(preds),
            });
            Ok((vec![idx], vec![idx]))
        }
        PatternExpr::Seq(children) => {
            let mut cur_preds: Vec<usize> = preds.to_vec();
            let mut firsts: Option<Vec<usize>> = None;
            let mut open_negs: Vec<usize> = Vec::new();
            for c in children {
                if let PatternExpr::Neg(body) = c {
                    let inner = flatten_leaf_seq(body)?;
                    let neg_idx = b.negs.len();
                    for (elem, e) in inner.iter().enumerate() {
                        b.declare(&e.binding, Slot::NegElem { neg: neg_idx, elem })?;
                    }
                    // `after` = the positive steps accumulated so far in this
                    // seq (or the enclosing preds when the NEG leads).
                    b.negs.push(NegGroup {
                        inner,
                        after: cur_preds.clone(),
                        before: Vec::new(),
                        conditions: Vec::new(),
                    });
                    open_negs.push(neg_idx);
                    continue;
                }
                let (f, l) = walk(c, &cur_preds, b)?;
                for n in open_negs.drain(..) {
                    b.negs[n].before = f.clone();
                }
                if firsts.is_none() {
                    firsts = Some(f);
                }
                cur_preds = l;
            }
            if !open_negs.is_empty() {
                return Err(CompileError::NegAtEnd);
            }
            let firsts = firsts.ok_or(CompileError::EmptyPattern)?;
            Ok((firsts, cur_preds))
        }
        PatternExpr::Conj(children) => {
            let mut firsts = Vec::new();
            let mut lasts = Vec::new();
            for c in children {
                if matches!(c, PatternExpr::Neg(_)) {
                    return Err(CompileError::NegOutsideSeq);
                }
                let (f, l) = walk(c, preds, b)?;
                firsts.extend(f);
                lasts.extend(l);
            }
            if firsts.is_empty() {
                return Err(CompileError::EmptyPattern);
            }
            Ok((firsts, lasts))
        }
        PatternExpr::Neg(_) => Err(CompileError::NegOutsideSeq),
        PatternExpr::Disj(_) => unreachable!("DISJ hoisted before walk"),
    }
}

fn compile_branch(expr: &PatternExpr, conditions: &[Predicate]) -> Result<Branch, CompileError> {
    let mut b = BranchBuilder::default();
    let _ = walk(expr, &[], &mut b)?;
    if b.steps.is_empty() {
        return Err(CompileError::EmptyPattern);
    }
    let BranchBuilder {
        mut steps,
        mut negs,
        names,
        ..
    } = b;
    let mut global_conds = Vec::new();
    let mut deferred_conds = Vec::new();

    for cond in conditions {
        let refs = cond.referenced_bindings();
        // Skip conditions referencing bindings not in this branch; the Plan
        // validates that each condition lands somewhere.
        let mut slots = Vec::with_capacity(refs.len());
        let mut known = true;
        for r in &refs {
            match names.get(*r) {
                Some(s) => slots.push(*s),
                None => {
                    known = false;
                    break;
                }
            }
        }
        if !known || refs.is_empty() {
            if refs.is_empty() {
                // Constant predicates are eagerly evaluable with no steps.
                global_conds.push(GlobalCond {
                    pred: cond.clone(),
                    step_mask: 0,
                });
            }
            continue;
        }
        let kleenes: Vec<usize> = slots
            .iter()
            .filter_map(|s| match s {
                Slot::KleeneElem { step, .. } => Some(*step),
                _ => None,
            })
            .collect();
        let neg_refs: Vec<usize> = slots
            .iter()
            .filter_map(|s| match s {
                Slot::NegElem { neg, .. } => Some(*neg),
                _ => None,
            })
            .collect();
        if !kleenes.is_empty() && !neg_refs.is_empty() {
            return Err(CompileError::ConditionMixesNegAndKleene);
        }
        if !neg_refs.is_empty() {
            let first = neg_refs[0];
            if neg_refs.iter().any(|&n| n != first) {
                return Err(CompileError::ConditionSpansNegs);
            }
            negs[first].conditions.push(cond.clone());
            continue;
        }
        if !kleenes.is_empty() {
            let first = kleenes[0];
            if kleenes.iter().any(|&k| k != first) {
                return Err(CompileError::ConditionSpansKleenes);
            }
            if let StepKind::Kleene {
                iter_conditions, ..
            } = &mut steps[first].kind
            {
                iter_conditions.push(cond.clone());
            }
            deferred_conds.push((first, cond.clone()));
            continue;
        }
        // Pure single-step condition: eager.
        let mask = slots.iter().fold(0u64, |m, s| match s {
            Slot::Step(i) => m | (1 << i),
            _ => unreachable!("filtered above"),
        });
        global_conds.push(GlobalCond {
            pred: cond.clone(),
            step_mask: mask,
        });
    }

    Ok(Branch {
        steps,
        negs,
        global_conds,
        deferred_conds,
    })
}

/// Join-order cost model: per-step arrival rates and pairwise predicate
/// selectivities (the `R` and `SEL` of the paper's Φ formula, §3.2; the
/// model of Kolchinsky & Schuster's join-query plan generation). It picks
/// both the NFA's evaluation order ([`CostModel::order`]) and the tree
/// engine's shape.
#[derive(Debug, Clone)]
pub struct CostModel {
    /// Expected events matching step `i` per stream position.
    pub rates: Vec<f64>,
    /// `sel[i][j]`: probability the predicates between steps `i` and `j`
    /// hold for a random pair (1.0 when unconstrained).
    pub sel: Vec<Vec<f64>>,
}

/// Selectivity the static model assumes for a pair of steps one condition
/// mentions together: System R's default for a range predicate.
pub(crate) const STATIC_SELECTIVITY: f64 = 1.0 / 3.0;

/// Longest branch [`CostModel::order`] searches; longer ones keep step
/// order (the search is over step subsets).
pub(crate) const MAX_ORDERED_STEPS: usize = 16;

impl CostModel {
    /// Uniform model (rates 1, selectivities 1): it cannot tell orders
    /// apart, so it keeps step order — and yields a balanced tree.
    pub fn uniform(n: usize) -> Self {
        Self {
            rates: vec![1.0; n],
            sel: vec![vec![1.0; n]; n],
        }
    }

    /// What an engine assumes knowing nothing of the stream: uniform rates,
    /// and [`STATIC_SELECTIVITY`] for every pair of steps some eager
    /// condition mentions together.
    pub(crate) fn static_for(branch: &Branch) -> Self {
        let mut model = Self::uniform(branch.steps.len());
        for g in &branch.global_conds {
            for (i, j) in pairs(g.step_mask) {
                model.sel[i][j] = STATIC_SELECTIVITY;
                model.sel[j][i] = STATIC_SELECTIVITY;
            }
        }
        model
    }

    /// Estimate from a stream sample: rates are measured type frequencies,
    /// pairwise selectivities are measured over sampled event pairs against
    /// each two-step condition.
    pub fn estimate(branch: &Branch, sample: &[PrimitiveEvent]) -> Self {
        let n = branch.steps.len();
        let total = sample.len().max(1) as f64;
        let admits = |s: usize, e: &PrimitiveEvent| match &branch.steps[s].kind {
            StepKind::Single { types, .. } => types.contains(e.type_id),
            StepKind::Kleene { .. } => false,
        };
        let mut model = Self::uniform(n);
        for (s, rate) in model.rates.iter_mut().enumerate() {
            *rate = sample.iter().filter(|e| admits(s, e)).count() as f64 / total;
        }
        let slots = branch.slots();
        for g in &branch.global_conds {
            let [(i, j)] = pairs(g.step_mask).collect::<Vec<_>>()[..] else {
                continue;
            };
            let cond = g.pred.lower(&mut |name, attr| match slots.get(name)? {
                Slot::Step(s) => Some((*s, attr)),
                _ => None,
            });
            let pick = |s| sample.iter().filter(move |e| admits(s, e)).take(64);
            let (mut pass, mut tried) = (0usize, 0usize);
            for a in pick(i) {
                for b in pick(j) {
                    let ev = |s: usize| if s == i { a } else { b };
                    if let Some(ok) = cond.eval(&|&(s, attr)| ev(s).attr(attr)) {
                        tried += 1;
                        pass += usize::from(ok);
                    }
                }
            }
            if tried > 0 {
                model.sel[i][j] = pass as f64 / tried as f64;
                model.sel[j][i] = model.sel[i][j];
            }
        }
        model
    }

    /// Expected cardinality of a sub-match over the step range `[i, j)`
    /// within a window of `w` positions.
    fn cardinality(&self, i: usize, j: usize, w: f64) -> f64 {
        let mut c = 1.0;
        for s in i..j {
            c *= w * self.rates[s];
        }
        for a in i..j {
            for b in (a + 1)..j {
                c *= self.sel[a][b];
            }
        }
        c
    }

    /// ZStream's plan search: the tree over contiguous step ranges
    /// minimizing the total expected intermediate cardinality.
    pub(crate) fn tree_shape(&self, n: usize, w: f64) -> Shape {
        assert!(n > 0);
        let mut best_cost: Vec<Vec<f64>> = vec![vec![0.0; n + 1]; n + 1];
        let mut best_split: Vec<Vec<usize>> = vec![vec![0; n + 1]; n + 1];
        for len in 2..=n {
            for i in 0..=(n - len) {
                let j = i + len;
                let mut best = f64::INFINITY;
                let mut arg = i + 1;
                #[allow(clippy::needless_range_loop)]
                for k in (i + 1)..j {
                    // Joining [i,k) with [k,j) materializes card(i,k)+card(k,j)
                    // intermediate tuples on top of the children's own cost.
                    let c = best_cost[i][k]
                        + best_cost[k][j]
                        + self.cardinality(i, k, w)
                        + self.cardinality(k, j, w);
                    if c < best {
                        best = c;
                        arg = k;
                    }
                }
                best_cost[i][j] = best;
                best_split[i][j] = arg;
            }
        }
        fn build(split: &[Vec<usize>], i: usize, j: usize) -> Shape {
            if j - i == 1 {
                Shape::Leaf(i)
            } else {
                let k = split[i][j];
                Shape::Node(Box::new(build(split, i, k)), Box::new(build(split, k, j)))
            }
        }
        build(&best_split, 0, n)
    }

    /// The left-deep evaluation order of `branch` in a window of `w`: the
    /// permutation whose prefixes' expected cardinalities — `Π W·rate` over
    /// the prefix times the selectivities of the step pairs inside it —
    /// sum to the least. Ties go to step order, so a model that cannot tell
    /// orders apart keeps arrival order; between other orders of equal cost
    /// the later step is bound first (the earlier ones are then already in
    /// the window to pull).
    ///
    /// Kleene steps are never pulled from the window. When every Kleene step
    /// must follow every single step (`SEQ(s1..s5, KC(k))`, `Q_A5`), the
    /// search runs over the single steps — the lowest indices, as each one
    /// precedes every closure — and the Kleene steps follow in step order:
    /// a row that binds every single step absorbs as in step order. Any
    /// other branch with a Kleene step (a leading closure, or an inner one
    /// like `SEQ(a, KC(b), c)`), or one with more single steps than the
    /// search bound, keeps step order.
    pub(crate) fn order(&self, branch: &Branch, w: f64) -> Vec<usize> {
        let identity: Vec<usize> = (0..branch.steps.len()).collect();
        // The search runs over the single steps, the first `n`.
        let n = identity.len() - branch.kleene_steps().len();
        if n > MAX_ORDERED_STEPS || self.rates.len() != identity.len() || !kleene_suffix(branch) {
            return identity;
        }
        // Over step subsets: the cardinality of each, and the cheapest sum
        // over the prefixes of an order ending in it with the last step.
        let full = (1usize << n) - 1;
        let (mut card, mut best, mut last) =
            (vec![1.0; full + 1], vec![0.0; full + 1], vec![0; full + 1]);
        for set in 1..=full {
            let s = set.trailing_zeros() as usize;
            let rest = set & (set - 1);
            let linked: f64 = (0..n)
                .filter(|j| rest >> j & 1 == 1)
                .map(|j| self.sel[s][j])
                .product();
            card[set] = card[rest] * w * self.rates[s] * linked;
            best[set] = f64::INFINITY;
            for s in (0..n).filter(|s| set >> s & 1 == 1) {
                if best[set & !(1 << s)] < best[set] {
                    best[set] = best[set & !(1 << s)];
                    last[set] = s;
                }
            }
            best[set] += card[set];
        }
        let in_step_order: f64 = (1..=n).map(|k| card[(1 << k) - 1]).sum();
        if in_step_order <= best[full] * (1.0 + 1e-9) {
            return identity;
        }
        let mut order = Vec::with_capacity(identity.len());
        let mut set = full;
        while set != 0 {
            order.push(last[set]);
            set &= !(1 << last[set]);
        }
        order.reverse();
        order.extend(n..identity.len());
        order
    }
}

/// Does every Kleene step of `branch` come after every single step — the
/// single steps being then exactly the first ones, since a step's
/// predecessors have lower indices? (Vacuously true without a closure.)
fn kleene_suffix(branch: &Branch) -> bool {
    let kleene = branch.kleene_steps();
    let singles = branch.full_mask() & !mask_of(&kleene);
    let before = branch.before_masks();
    kleene.iter().all(|&k| before[k] & singles == singles)
}

/// Every pair `(i, j)`, `i < j`, of steps in `mask`.
fn pairs(mask: u64) -> impl Iterator<Item = (usize, usize)> {
    let steps = move || (0..MAX_STEPS).filter(move |s| mask >> s & 1 == 1);
    steps().flat_map(move |i| steps().filter(move |&j| j > i).map(move |j| (i, j)))
}

/// Shape of a tree-engine join tree over steps `[lo, hi)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Shape {
    Leaf(usize),
    Node(Box<Shape>, Box<Shape>),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::condition::Expr;
    use dlacep_events::TypeId;

    fn leaf(t: u32, b: &str) -> PatternExpr {
        PatternExpr::event(TypeSet::single(TypeId(t)), b)
    }

    fn compile(expr: PatternExpr, conds: Vec<Predicate>) -> Result<Plan, CompileError> {
        Plan::compile(&Pattern::new(expr, conds, WindowSpec::Count(10)))
    }

    #[test]
    fn seq_chains_preds() {
        let p = compile(
            PatternExpr::Seq(vec![leaf(0, "a"), leaf(1, "b"), leaf(2, "c")]),
            vec![],
        )
        .unwrap();
        assert_eq!(p.branches.len(), 1);
        let b = &p.branches[0];
        assert_eq!(b.steps[0].preds, 0);
        assert_eq!(b.steps[1].preds, 0b001);
        assert_eq!(b.steps[2].preds, 0b010);
    }

    #[test]
    fn conj_has_no_preds() {
        let p = compile(PatternExpr::Conj(vec![leaf(0, "a"), leaf(1, "b")]), vec![]).unwrap();
        let b = &p.branches[0];
        assert_eq!(b.steps[0].preds, 0);
        assert_eq!(b.steps[1].preds, 0);
    }

    #[test]
    fn nested_seq_of_conj_partial_order() {
        // SEQ(a, CONJ(b, c), d): b and c unordered, both after a, d after both.
        let p = compile(
            PatternExpr::Seq(vec![
                leaf(0, "a"),
                PatternExpr::Conj(vec![leaf(1, "b"), leaf(2, "c")]),
                leaf(3, "d"),
            ]),
            vec![],
        )
        .unwrap();
        let b = &p.branches[0];
        assert_eq!(b.steps[1].preds, 0b0001);
        assert_eq!(b.steps[2].preds, 0b0001);
        assert_eq!(b.steps[3].preds, 0b0110);
    }

    #[test]
    fn disj_hoists_to_branches() {
        let p = compile(
            PatternExpr::Disj(vec![
                PatternExpr::Seq(vec![leaf(0, "a"), leaf(1, "b")]),
                PatternExpr::Seq(vec![leaf(2, "c"), leaf(3, "d")]),
            ]),
            vec![],
        )
        .unwrap();
        assert_eq!(p.branches.len(), 2);
    }

    #[test]
    fn disj_inside_seq_distributes() {
        // SEQ(a, DISJ(b, c)) -> two branches.
        let p = compile(
            PatternExpr::Seq(vec![
                leaf(0, "a"),
                PatternExpr::Disj(vec![leaf(1, "b"), leaf(2, "c")]),
            ]),
            vec![],
        )
        .unwrap();
        assert_eq!(p.branches.len(), 2);
        assert_eq!(p.branches[0].steps.len(), 2);
    }

    #[test]
    fn kleene_of_seq_compiles() {
        let p = compile(
            PatternExpr::Kleene(Box::new(PatternExpr::Seq(vec![leaf(0, "x"), leaf(1, "y")]))),
            vec![],
        )
        .unwrap();
        let b = &p.branches[0];
        assert_eq!(b.steps.len(), 1);
        match &b.steps[0].kind {
            StepKind::Kleene { inner, .. } => assert_eq!(inner.len(), 2),
            StepKind::Single { .. } => panic!("expected kleene"),
        }
    }

    #[test]
    fn neg_between_positives() {
        let p = compile(
            PatternExpr::Seq(vec![
                leaf(0, "a"),
                PatternExpr::Neg(Box::new(leaf(1, "n"))),
                leaf(2, "b"),
            ]),
            vec![],
        )
        .unwrap();
        let b = &p.branches[0];
        assert_eq!(b.negs.len(), 1);
        assert_eq!(b.negs[0].after, vec![0]);
        assert_eq!(b.negs[0].before, vec![1]);
    }

    #[test]
    fn neg_at_end_rejected() {
        let err = compile(
            PatternExpr::Seq(vec![leaf(0, "a"), PatternExpr::Neg(Box::new(leaf(1, "n")))]),
            vec![],
        )
        .unwrap_err();
        assert_eq!(err, CompileError::NegAtEnd);
    }

    #[test]
    fn neg_in_conj_rejected() {
        let err = compile(
            PatternExpr::Conj(vec![leaf(0, "a"), PatternExpr::Neg(Box::new(leaf(1, "n")))]),
            vec![],
        )
        .unwrap_err();
        assert_eq!(err, CompileError::NegOutsideSeq);
    }

    #[test]
    fn duplicate_binding_rejected() {
        let err = compile(PatternExpr::Seq(vec![leaf(0, "a"), leaf(1, "a")]), vec![]).unwrap_err();
        assert_eq!(err, CompileError::DuplicateBinding("a".into()));
    }

    #[test]
    fn conditions_routed_to_owning_branch() {
        // DISJ where each branch has its own condition.
        let c1 = Predicate::lt(Expr::attr("a", 0), Expr::attr("b", 0));
        let c2 = Predicate::lt(Expr::attr("c", 0), Expr::attr("d", 0));
        let p = compile(
            PatternExpr::Disj(vec![
                PatternExpr::Seq(vec![leaf(0, "a"), leaf(1, "b")]),
                PatternExpr::Seq(vec![leaf(2, "c"), leaf(3, "d")]),
            ]),
            vec![c1.clone(), c2.clone()],
        )
        .unwrap();
        assert_eq!(p.branches[0].global_conds.len(), 1);
        assert_eq!(p.branches[0].global_conds[0].pred, c1);
        assert_eq!(p.branches[0].global_conds[0].step_mask, 0b11);
        assert_eq!(p.branches[1].global_conds[0].pred, c2);
    }

    #[test]
    fn unknown_binding_rejected() {
        let err = compile(
            PatternExpr::Seq(vec![leaf(0, "a"), leaf(1, "b")]),
            vec![Predicate::lt(Expr::attr("zzz", 0), Expr::Const(0.0))],
        )
        .unwrap_err();
        assert_eq!(err, CompileError::UnknownBinding("zzz".into()));
    }

    #[test]
    fn kleene_condition_becomes_iteration_condition() {
        // SEQ(a, KC(k)) WHERE k.v < a.v
        let cond = Predicate::lt(Expr::attr("k", 0), Expr::attr("a", 0));
        let p = compile(
            PatternExpr::Seq(vec![
                leaf(0, "a"),
                PatternExpr::Kleene(Box::new(leaf(1, "k"))),
            ]),
            vec![cond.clone()],
        )
        .unwrap();
        let b = &p.branches[0];
        match &b.steps[1].kind {
            StepKind::Kleene {
                iter_conditions, ..
            } => {
                assert_eq!(iter_conditions, &vec![cond.clone()])
            }
            StepKind::Single { .. } => panic!(),
        }
        assert_eq!(b.deferred_conds, vec![(1, cond)]);
    }

    #[test]
    fn neg_condition_routed_to_group() {
        let cond = Predicate::lt(Expr::attr("n", 0), Expr::attr("a", 0));
        let p = compile(
            PatternExpr::Seq(vec![
                leaf(0, "a"),
                PatternExpr::Neg(Box::new(leaf(1, "n"))),
                leaf(2, "b"),
            ]),
            vec![cond.clone()],
        )
        .unwrap();
        assert_eq!(p.branches[0].negs[0].conditions, vec![cond]);
    }

    #[test]
    fn successor_mask_reports_direct_successors() {
        let p = compile(
            PatternExpr::Seq(vec![leaf(0, "a"), leaf(1, "b"), leaf(2, "c")]),
            vec![],
        )
        .unwrap();
        let b = &p.branches[0];
        assert_eq!(b.successor_mask(0), 0b010);
        assert_eq!(b.successor_mask(1), 0b100);
        assert_eq!(b.successor_mask(2), 0);
    }

    #[test]
    fn kleene_body_with_nesting_rejected() {
        let err = compile(
            PatternExpr::Kleene(Box::new(PatternExpr::Conj(vec![
                leaf(0, "x"),
                leaf(1, "y"),
            ]))),
            vec![],
        )
        .unwrap_err();
        assert_eq!(err, CompileError::UnsupportedKleeneBody);
    }

    fn seq4(conds: Vec<Predicate>) -> Branch {
        let steps = vec![leaf(0, "a"), leaf(1, "b"), leaf(2, "c"), leaf(3, "d")];
        compile(PatternExpr::Seq(steps), conds)
            .unwrap()
            .branches
            .remove(0)
    }

    #[test]
    fn order_binds_the_step_every_condition_mentions_first() {
        // Q_A1's shape: every condition links an earlier step to the last.
        let conds = ["a", "b", "c"].map(|x| Predicate::lt(Expr::attr(x, 0), Expr::attr("d", 0)));
        let branch = seq4(conds.to_vec());
        assert_eq!(
            CostModel::static_for(&branch).order(&branch, 20.0),
            vec![3, 2, 1, 0]
        );
        // Linked neighbours gain nothing from another order: ties keep it.
        let chain = seq4(vec![Predicate::lt(Expr::attr("a", 0), Expr::attr("b", 0))]);
        assert_eq!(
            CostModel::static_for(&chain).order(&chain, 20.0),
            vec![0, 1, 2, 3]
        );
    }

    #[test]
    fn order_keeps_step_order_when_the_model_cannot_tell() {
        let branch = seq4(vec![]);
        assert_eq!(
            CostModel::static_for(&branch).order(&branch, 20.0),
            vec![0, 1, 2, 3]
        );
        let kleene = compile(
            PatternExpr::Seq(vec![
                leaf(0, "a"),
                PatternExpr::Kleene(Box::new(leaf(1, "k"))),
                leaf(2, "c"),
            ]),
            vec![Predicate::lt(Expr::attr("a", 0), Expr::attr("c", 0))],
        )
        .unwrap();
        let b = &kleene.branches[0];
        assert_eq!(CostModel::static_for(b).order(b, 20.0), vec![0, 1, 2]);
    }

    #[test]
    fn order_binds_the_single_steps_before_a_closure_that_follows_them_all() {
        // Q_A5's shape: banded single steps, then two closures.
        let conds = ["a", "b", "c"].map(|x| Predicate::lt(Expr::attr(x, 0), Expr::attr("d", 0)));
        let kc = |t, b| PatternExpr::Kleene(Box::new(leaf(t, b)));
        let steps = vec![
            leaf(0, "a"),
            leaf(1, "b"),
            leaf(2, "c"),
            leaf(3, "d"),
            kc(4, "k"),
            kc(5, "m"),
        ];
        let suffix = compile(PatternExpr::Seq(steps), conds.to_vec()).unwrap();
        let b = &suffix.branches[0];
        assert_eq!(
            CostModel::static_for(b).order(b, 20.0),
            vec![3, 2, 1, 0, 4, 5]
        );
        // Two closures after every single step, unordered between them.
        let both = PatternExpr::Conj(vec![kc(4, "k"), kc(5, "m")]);
        let steps = vec![leaf(0, "a"), leaf(1, "b"), leaf(2, "c"), leaf(3, "d"), both];
        let conj = compile(PatternExpr::Seq(steps), conds.to_vec()).unwrap();
        let b = &conj.branches[0];
        assert_eq!(
            CostModel::static_for(b).order(b, 20.0),
            vec![3, 2, 1, 0, 4, 5]
        );
        // A closure beside a single step, or before one, keeps step order.
        for steps in [
            vec![
                leaf(0, "a"),
                leaf(1, "b"),
                leaf(2, "c"),
                PatternExpr::Conj(vec![leaf(3, "d"), kc(4, "k")]),
            ],
            vec![
                kc(4, "k"),
                leaf(0, "a"),
                leaf(1, "b"),
                leaf(2, "c"),
                leaf(3, "d"),
            ],
        ] {
            let plan = compile(PatternExpr::Seq(steps), conds.to_vec()).unwrap();
            let b = &plan.branches[0];
            let identity: Vec<usize> = (0..b.steps.len()).collect();
            assert_eq!(CostModel::static_for(b).order(b, 20.0), identity);
        }
    }

    #[test]
    fn order_without_selectivities_is_ascending_rate() {
        // The lazy chain: rarest first, the later step first on a tie.
        let branch = seq4(vec![]);
        let model = CostModel {
            rates: vec![0.5, 0.1, 0.5, 0.05],
            ..CostModel::uniform(4)
        };
        assert_eq!(model.order(&branch, 30.0), vec![3, 1, 2, 0]);
    }
}
