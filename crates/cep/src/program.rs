//! A [`Plan`] lowered for the NFA engine's per-event path: every binding
//! name resolved to an index, every per-step table the hot loop needs
//! computed once. Engines over the same plan share one [`Program`] behind an
//! `Arc` (one engine per batch run, multi-query runs).
//!
//! A stored partial match is one fixed-width row of `u64` words:
//!
//! ```text
//! bound | min_id | max_id | min_ts | ids[steps] | iters[kleene] | known[⌈vals/64⌉] | vals[vals]
//! ```
//!
//! `ids[s]` is the bound event id of a single step, or the head of a Kleene
//! step's chain in the engine's Kleene pool with `iters` counting the events
//! absorbed so far. `vals` are the attribute values the branch's conditions
//! read from single steps, copied in when the step binds (`known` marks the
//! ones the event actually carried), so evaluating a condition never leaves
//! the row.
//!
//! Each branch also carries its evaluation order, chosen by a
//! [`CostModel`] when the program is lowered. In step order a row binds
//! steps as their events arrive; under any other order a row binds a prefix
//! of the order's single steps, and the engine pulls the rest from the
//! window (see [`crate::nfa`]). Kleene steps are never pulled: an order
//! holds them only after every single step, and a row that has bound every
//! single step is a step-order row of that suffix — its Kleene steps stay
//! open, and it absorbs and completes as in step order.

use crate::engine::MatchSchema;
use crate::pattern::ast::TypeSet;
use crate::pattern::condition::CompiledPred;
use crate::plan::{Branch, CostModel, NegGroup, Plan, Slot, StepKind};
use dlacep_events::{TypeId, WindowSpec};
use std::sync::Arc;

pub(crate) const BOUND: usize = 0;
pub(crate) const MIN_ID: usize = 1;
pub(crate) const MAX_ID: usize = 2;
pub(crate) const MIN_TS: usize = 3;
pub(crate) const IDS: usize = 4;

/// What a condition reads, resolved when the program is built.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Leaf {
    /// Value slot of the row (an attribute of a single step).
    Val(usize),
    /// Attribute `.1` of an element of the Kleene iteration or negated
    /// occurrence being checked.
    Elem(Slot, usize),
}

pub(crate) type Cond = CompiledPred<Leaf>;

#[derive(Debug)]
pub(crate) enum StepProgram {
    Single,
    Kleene {
        /// Position among the branch's Kleene steps (indexes `iters`).
        ord: usize,
        /// Admissible types per inner element.
        inner: Vec<TypeSet>,
        /// Checked on every completed iteration.
        iter_conds: Vec<Cond>,
    },
}

#[derive(Debug)]
pub(crate) struct Step {
    pub kind: StepProgram,
    pub preds: u64,
    /// Steps that directly require this one to precede them.
    pub succ: u64,
    /// Steps that must precede this one, and that it must precede,
    /// transitively.
    pub before: u64,
    pub after: u64,
    /// `(value slot, attribute)` to fill when this single step binds.
    pub vals: Vec<(usize, usize)>,
    /// Indices into [`BranchProgram::conds`] that mention this step.
    pub eager: Vec<usize>,
}

#[derive(Debug)]
pub(crate) struct BranchProgram {
    pub steps: Vec<Step>,
    /// Eager conditions with the steps they need bound.
    pub conds: Vec<(u64, Cond)>,
    /// `(kleene step, condition)` re-validated over every iteration at
    /// completion.
    pub deferred: Vec<(usize, Cond)>,
    pub negs: Vec<NegGroup>,
    /// Names the bindings of every match the branch emits.
    pub schema: Arc<MatchSchema>,
    /// Per negation group, its conditions.
    pub neg_conds: Vec<Vec<Cond>>,
    /// `(step, inner length)` per Kleene ordinal.
    pub kleene: Vec<(usize, usize)>,
    pub full_mask: u64,
    pub kleene_mask: u64,
    /// Steps without predecessors: the ones an empty partial can seed.
    pub roots: u64,
    /// The evaluation order (step indices, first bound first), and whether
    /// it differs from step order. Under an order, `next[k]` is the bit of
    /// the single step a row binding `k` steps binds next; once every single
    /// step is bound, the Kleene steps (0 for a branch without one).
    pub order: Vec<usize>,
    pub ordered: bool,
    next: Vec<u64>,
    /// Sorted `(type, steps some element of which admits it)`.
    accepts: Vec<(TypeId, u64)>,
    pub iters_at: usize,
    pub known_at: usize,
    pub vals_at: usize,
    pub stride: usize,
    /// The row of a partial match that binds nothing yet.
    pub blank: Vec<u64>,
}

impl BranchProgram {
    fn lower(branch: &Branch, index: usize, order: Vec<usize>) -> Self {
        let slots = branch.slots();
        // Value slot i holds attribute `vals[i].1` of single step `vals[i].0`.
        let mut vals: Vec<(usize, usize)> = Vec::new();
        let mut leaf = |name: &str, attr: usize| -> Option<Leaf> {
            Some(match *slots.get(name)? {
                Slot::Step(step) => {
                    let known = vals.iter().position(|v| *v == (step, attr));
                    Leaf::Val(known.unwrap_or_else(|| {
                        vals.push((step, attr));
                        vals.len() - 1
                    }))
                }
                elem => Leaf::Elem(elem, attr),
            })
        };
        let mut kleene = Vec::new();
        let (mut kleene_mask, mut roots) = (0u64, 0u64);
        let mut accepts: Vec<(TypeId, u64)> = Vec::new();
        let mut steps: Vec<Step> = Vec::with_capacity(branch.steps.len());
        let before_masks = branch.before_masks();
        for (s, step) in branch.steps.iter().enumerate() {
            let (kind, types): (_, Vec<&TypeSet>) = match &step.kind {
                StepKind::Single { types, .. } => (StepProgram::Single, vec![types]),
                StepKind::Kleene {
                    inner,
                    iter_conditions,
                } => {
                    kleene.push((s, inner.len()));
                    kleene_mask |= 1 << s;
                    (
                        StepProgram::Kleene {
                            ord: kleene.len() - 1,
                            inner: inner.iter().map(|e| e.types.clone()).collect(),
                            iter_conds: iter_conditions
                                .iter()
                                .map(|p| p.lower(&mut leaf))
                                .collect(),
                        },
                        inner.iter().map(|e| &e.types).collect(),
                    )
                }
            };
            for t in types.iter().flat_map(|ts| ts.types()) {
                match accepts.binary_search_by_key(t, |e| e.0) {
                    Ok(i) => accepts[i].1 |= 1 << s,
                    Err(i) => accepts.insert(i, (*t, 1 << s)),
                }
            }
            if step.preds == 0 {
                roots |= 1 << s;
            }
            let before = before_masks[s];
            for p in (0..s).filter(|p| before >> p & 1 == 1) {
                steps[p].after |= 1 << s;
            }
            steps.push(Step {
                kind,
                preds: step.preds,
                succ: branch.successor_mask(s),
                before,
                after: 0,
                vals: Vec::new(),
                eager: Vec::new(),
            });
        }
        let conds: Vec<(u64, Cond)> = branch
            .global_conds
            .iter()
            .map(|g| (g.step_mask, g.pred.lower(&mut leaf)))
            .collect();
        let deferred = branch
            .deferred_conds
            .iter()
            .map(|(step, p)| (*step, p.lower(&mut leaf)))
            .collect();
        let neg_conds = (branch.negs.iter())
            .map(|n| n.conditions.iter().map(|p| p.lower(&mut leaf)).collect())
            .collect();

        for (i, (mask, _)) in conds.iter().enumerate() {
            for (s, step) in steps.iter_mut().enumerate() {
                if mask & (1 << s) != 0 {
                    step.eager.push(i);
                }
            }
        }
        for (slot, &(step, attr)) in vals.iter().enumerate() {
            steps[step].vals.push((slot, attr));
        }
        let iters_at = IDS + steps.len();
        let known_at = iters_at + kleene.len();
        let vals_at = known_at + vals.len().div_ceil(64);
        let stride = vals_at + vals.len();
        let mut blank = vec![0; stride];
        blank[MIN_ID] = u64::MAX;
        blank[MIN_TS] = u64::MAX;
        let ordered = order.iter().enumerate().any(|(k, s)| k != *s);
        let singles = order.len() - kleene.len();
        Self {
            kleene_mask,
            roots,
            next: (order[..singles].iter().map(|s| 1 << s))
                .chain(std::iter::repeat_n(kleene_mask, kleene.len() + 1))
                .collect(),
            order,
            ordered,
            full_mask: branch.full_mask(),
            steps,
            conds,
            deferred,
            negs: branch.negs.clone(),
            schema: Arc::new(branch.match_schema(Some(index))),
            neg_conds,
            kleene,
            accepts,
            iters_at,
            known_at,
            vals_at,
            stride,
            blank,
        }
    }

    /// Steps a row binding `bound` may bind the current event at: in step
    /// order a root, or any step not yet bound (a Kleene step may absorb
    /// more) whose predecessors the engine still checks; under an order,
    /// the row's next single step, or once it binds them all, its Kleene
    /// steps (checked as in step order).
    #[inline]
    pub fn open(&self, bound: u64) -> u64 {
        match (self.ordered, bound) {
            (true, _) => self.next[bound.count_ones() as usize],
            (false, 0) => self.roots,
            (false, _) => self.kleene_mask | !bound,
        }
    }

    /// The single steps' bits.
    pub fn singles(&self) -> u64 {
        self.full_mask & !self.kleene_mask
    }

    /// Steps an event of type `t` could bind or extend (0: none — the
    /// branch need not look at the event at all).
    pub fn accepting(&self, t: TypeId) -> u64 {
        self.accepts
            .binary_search_by_key(&t, |e| e.0)
            .map_or(0, |i| self.accepts[i].1)
    }

    /// Copy the attributes conditions read from single step `step` into
    /// `row`'s value slots, from the event binding it (a slot whose
    /// attribute the event lacks is marked unknown).
    pub fn fill_vals(&self, row: &mut [u64], step: &Step, attrs: &[f64]) {
        for &(slot, attr) in &step.vals {
            let (word, bit) = (self.known_at + slot / 64, 1 << (slot % 64));
            match attrs.get(attr) {
                Some(v) => {
                    row[word] |= bit;
                    row[self.vals_at + slot] = v.to_bits();
                }
                None => row[word] &= !bit,
            }
        }
    }
}

/// A compiled [`Plan`], ready to instantiate [`NfaEngine`](crate::NfaEngine)s
/// from without recompiling or cloning anything per engine.
#[derive(Debug)]
pub struct Program {
    pub(crate) window: WindowSpec,
    pub(crate) branches: Vec<BranchProgram>,
}

impl Program {
    /// Lower a plan, ordering each branch by [`CostModel::static_for`].
    pub fn lower(plan: &Plan) -> Self {
        Self::lower_with(plan, CostModel::static_for)
    }

    /// Lower a plan, ordering each branch by the cost model `model` gives
    /// for it ([`CostModel::order`]); `CostModel::uniform` keeps step order.
    pub fn lower_with(plan: &Plan, model: impl Fn(&Branch) -> CostModel) -> Self {
        let w = plan.window.size() as f64;
        Self {
            window: plan.window,
            branches: (plan.branches.iter().enumerate())
                .map(|(i, b)| BranchProgram::lower(b, i, model(b).order(b, w)))
                .collect(),
        }
    }

    /// Each branch's evaluation order: step indices, first bound first.
    pub fn orders(&self) -> impl Iterator<Item = &[usize]> {
        self.branches.iter().map(|bp| bp.order.as_slice())
    }
}
