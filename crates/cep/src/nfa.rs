//! The NFA-style partial-match engine — the paper's ECEP baseline mechanism
//! (§2.1, Fig. 2) under the skip-till-any-match selection strategy.
//!
//! Every stored partial match represents one prefix/assignment of the
//! pattern; a new event may extend any of them (and each extension *keeps*
//! the original, which is what makes skip-till-any-match worst-case
//! exponential in the window size — the effect DLACEP exploits, §3.2).
//!
//! The engine runs a [`Program`]: names are resolved and per-step tables
//! built once, partial matches live as fixed-width rows in one flat store
//! per branch (layout in [`crate::program`]), and one pass per event both
//! compacts expired rows away and extends the survivors. A candidate
//! extension is assembled at the tail of the buffer of new rows and simply
//! truncated away again when a condition rejects it, so the steady state
//! allocates only for the matches it emits.
//!
//! A branch whose program binds steps in another order than the plan's
//! (chosen by the cost model, [`crate::plan::CostModel::order`]) runs the
//! same rows differently: a row binds a prefix of the order, the current
//! event extends a stored row only at its next step, and every new row at
//! once binds its next step to each past event of the window that fits it
//! — checked before it is copied, like any extension — and so on down the
//! order. A row is stored to wait for future events only if its next step
//! need not precede a step it already binds, so an order that binds the
//! step every condition mentions first stores nothing between events. The
//! matches an event completes are emitted in the sequence the step-order
//! pass would have emitted them ([`emission_key`]).
//!
//! Kleene steps come last in an order (the cost model orders only branches
//! whose closures follow every single step). A row that binds every single
//! step is stored as a step-order row of that suffix: its Kleene steps stay
//! open, it absorbs under the step-order rules and completes through
//! [`Pass::try_emit`]. Rows completing the single steps at one event are
//! stored in the step-order pass's sequence among the rows the event
//! extended ([`Pass::precedes`]), so the suffix rows sit in the order the
//! step-order engine keeps them, and later completions emit exactly as
//! its would.

use crate::engine::{CepEngine, EngineStats, EventArena, Match};
use crate::pattern::ast::Pattern;
use crate::plan::{CompileError, NegGroup, Plan, Slot, MAX_ORDERED_STEPS};
use crate::program::{
    BranchProgram, Cond, Leaf, Program, Step, StepProgram, BOUND, IDS, MAX_ID, MIN_ID, MIN_TS,
};
use crate::state::{KleeneSnapshot, NfaEngineState, PartialSnapshot, StateError};
use dlacep_events::{EventId, PrimitiveEvent, WindowSpec};
use std::collections::VecDeque;
use std::sync::Arc;

/// Events absorbed by Kleene steps, as backward chains: a row holds the
/// index of its newest node and the chain length, and extending a partial
/// adds one node that points at its parent's chain — nothing is copied.
#[derive(Default)]
struct KleenePool {
    /// `(event, index of the previous node in its chain)`.
    nodes: VecDeque<(EventId, u64)>,
    /// Index of `nodes[0]`; indices stay valid across eviction.
    base: u64,
}

impl KleenePool {
    fn push(&mut self, id: EventId, prev: u64) -> u64 {
        self.nodes.push_back((id, prev));
        self.base + self.nodes.len() as u64 - 1
    }

    /// Drop leading nodes of events the arena has evicted: every partial
    /// match that held one has expired with it.
    fn evict_below(&mut self, horizon: EventId) {
        while self.nodes.front().is_some_and(|n| n.0 < horizon) {
            self.nodes.pop_front();
            self.base += 1;
        }
    }

    /// The newest `n` ids of the chain ending at `head`, newest first.
    fn chain(&self, mut head: u64, n: usize) -> impl Iterator<Item = EventId> + '_ {
        (0..n).map(move |_| {
            let (id, prev) = self.nodes[(head - self.base) as usize];
            head = prev;
            id
        })
    }

    /// The newest `n` ids of the chain ending at `head`, oldest first.
    fn tail(&self, head: u64, n: usize, out: &mut Vec<EventId>) {
        out.clear();
        out.extend(self.chain(head, n));
        out.reverse();
    }
}

/// Mutable state of one branch.
#[derive(Default)]
struct BranchState {
    /// Stored partial matches in creation order, `stride` words each.
    rows: Vec<u64>,
    /// No stored row's window key (`min_id`; `min_ts` under a time window)
    /// is smaller: until this expires, nothing has. Unset while `rows` is
    /// empty.
    oldest: u64,
    pool: KleenePool,
}

/// Configuration knobs of the NFA engine.
#[derive(Debug, Clone, Copy, Default)]
pub struct NfaConfig {
    /// Upper bound on completed iterations per Kleene closure per partial
    /// match (`None` = window-bounded only). A safety valve for experiments.
    pub max_kleene_iters: Option<usize>,
    /// Budget on simultaneously stored partial matches across all branches
    /// (`None` = unbounded). When an event pushes the store past the budget,
    /// the oldest partials (smallest `min_id` — the ones closest to expiring
    /// out of the window anyway) are shed and counted in
    /// [`EngineStats::partials_shed`]. Shedding can only lose matches, never
    /// invent them, so budgeted output stays a subset of exact output.
    pub max_partials: Option<usize>,
}

/// NFA-style skip-till-any-match evaluation engine.
pub struct NfaEngine {
    program: Arc<Program>,
    branches: Vec<BranchState>,
    arena: EventArena,
    out: Vec<Match>,
    stats: EngineStats,
    config: NfaConfig,
    /// Reused buffers: rows created by the current event (the last one
    /// doubles as the candidate under test), ids walked out of a Kleene
    /// chain, `(min_id, branch)` of every stored row while shedding, where
    /// in `created` the rows that bind every single step of an ordered
    /// branch start.
    created: Vec<u64>,
    ids: Vec<EventId>,
    ages: Vec<(u64, usize)>,
    done: Vec<usize>,
}

impl NfaEngine {
    /// Compile and instantiate for a pattern.
    pub fn new(pattern: &Pattern) -> Result<Self, CompileError> {
        Self::with_config(pattern, NfaConfig::default())
    }

    /// Instantiate with explicit configuration.
    pub fn with_config(pattern: &Pattern, config: NfaConfig) -> Result<Self, CompileError> {
        let plan = Plan::compile(pattern)?;
        Ok(Self::from_plan(plan, config))
    }

    /// Instantiate from an already-compiled plan.
    pub fn from_plan(plan: Plan, config: NfaConfig) -> Self {
        Self::from_program(Arc::new(Program::lower(&plan)), config)
    }

    /// Instantiate from a lowered plan; engines built from clones of one
    /// `Arc` share it.
    pub fn from_program(program: Arc<Program>, config: NfaConfig) -> Self {
        Self {
            branches: (program.branches.iter().map(|_| BranchState::default())).collect(),
            program,
            arena: EventArena::new(),
            out: Vec::new(),
            stats: EngineStats::default(),
            config,
            created: Vec::new(),
            ids: Vec::new(),
            ages: Vec::new(),
            done: Vec::new(),
        }
    }

    /// Currently stored partial matches across branches.
    pub fn stored_partials(&self) -> usize {
        stored(&self.program, &self.branches)
    }

    /// Capture the full mutable state for checkpointing (see [`crate::state`]).
    pub fn export_state(&self) -> NfaEngineState {
        let mut ids = Vec::new();
        let mut snapshot = |bp: &BranchProgram, pool: &KleenePool, row: &[u64]| PartialSnapshot {
            single: (0..bp.steps.len())
                .map(|s| {
                    let bound = bp.kleene_mask >> s & 1 == 0 && row[BOUND] >> s & 1 == 1;
                    bound.then(|| EventId(row[IDS + s]))
                })
                .collect(),
            kleene: (bp.kleene.iter().enumerate())
                .map(|(ord, &(step, len))| {
                    pool.tail(row[IDS + step], row[bp.iters_at + ord] as usize, &mut ids);
                    let (done, in_progress) = ids.split_at(ids.len() - ids.len() % len);
                    KleeneSnapshot {
                        iterations: done.chunks(len).map(<[EventId]>::to_vec).collect(),
                        in_progress: in_progress.to_vec(),
                    }
                })
                .collect(),
            bound: row[BOUND],
            min_id: row[MIN_ID],
            max_id: row[MAX_ID],
            min_ts: row[MIN_TS],
        };
        NfaEngineState {
            arena: self.arena.snapshot(),
            pending: self.out.clone(),
            stats: self.stats,
            branches: (self.program.branches.iter().zip(&self.branches))
                .map(|(bp, st)| {
                    (st.rows.chunks(bp.stride))
                        .map(|row| snapshot(bp, &st.pool, row))
                        .collect()
                })
                .collect(),
        }
    }

    /// Replace the engine's mutable state with a previously exported snapshot.
    ///
    /// The engine must be compiled from the same pattern as the exporter:
    /// branch, step and Kleene counts, the bound mask against what is bound,
    /// and every referenced event against the snapshot's arena are validated,
    /// and a mismatch leaves the engine untouched. The exporter may have
    /// evaluated in another order: rows that do not fit this engine's order
    /// are re-derived from the snapshot's arena.
    pub fn import_state(&mut self, state: NfaEngineState) -> Result<(), StateError> {
        if state.branches.len() != self.branches.len() {
            return Err(StateError(format!(
                "snapshot has {} branches, engine has {}",
                state.branches.len(),
                self.branches.len()
            )));
        }
        let arena = EventArena::restore(state.arena.clone());
        // Rows of an ordered branch that are not prefixes of its order
        // waiting for a future event (a step-order engine wrote them) are
        // re-derived: replaying the arena rebuilds every row still alive.
        let mut replay = None;
        let key = window_key(self.program.window);
        let mut restored = Vec::with_capacity(state.branches.len());
        for (bi, (bp, partials)) in self
            .program
            .branches
            .iter()
            .zip(&state.branches)
            .enumerate()
        {
            if bp.ordered && !partials.iter().all(|pm| waits(bp, pm.bound)) {
                let engine = replay.get_or_insert_with(|| {
                    let mut engine = Self::from_program(Arc::clone(&self.program), self.config);
                    state.arena.iter().for_each(|ev| engine.process(ev));
                    engine
                });
                restored.push(std::mem::take(&mut engine.branches[bi]));
                continue;
            }
            let mut st = BranchState::default();
            for pm in partials {
                restore_row(bp, &arena, &mut st, pm)
                    .map_err(|what| StateError(format!("branch {bi}: {what}")))?;
            }
            st.oldest = (st.rows.chunks(bp.stride).map(|row| row[key]).min()).unwrap_or(0);
            restored.push(st);
        }
        self.arena = arena;
        self.out = state.pending;
        self.stats = state.stats;
        self.branches = restored;
        Ok(())
    }
}

/// Append the row for `pm` to `st`, re-reading the attribute values its
/// conditions need from `arena` and re-linking its Kleene chains.
fn restore_row(
    bp: &BranchProgram,
    arena: &EventArena,
    st: &mut BranchState,
    pm: &PartialSnapshot,
) -> Result<(), String> {
    let shape = (pm.single.len(), pm.kleene.len());
    if shape != (bp.steps.len(), bp.kleene.len()) || pm.bound & !bp.full_mask != 0 {
        return Err(format!(
            "partial with (steps, Kleene steps) {shape:?} and bound mask {:#x} does not fit a \
             branch with {:?} and mask {:#x}",
            pm.bound,
            (bp.steps.len(), bp.kleene.len()),
            bp.full_mask
        ));
    }
    let held = |id: EventId| {
        arena
            .get(id)
            .ok_or_else(|| format!("event {} is bound but not in the arena", id.0))
    };
    let at = st.rows.len();
    st.rows.extend_from_slice(&bp.blank);
    let row = &mut st.rows[at..];
    row[BOUND] = pm.bound;
    row[MIN_ID] = pm.min_id;
    row[MAX_ID] = pm.max_id;
    row[MIN_TS] = pm.min_ts;
    for (s, step) in bp.steps.iter().enumerate() {
        let bound = pm.bound >> s & 1 == 1;
        match &step.kind {
            StepProgram::Single => {
                if pm.single[s].is_some() != bound {
                    return Err(format!("step {s}: bound mask and bound event disagree"));
                }
                if let Some(id) = pm.single[s] {
                    row[IDS + s] = id.0;
                    bp.fill_vals(row, step, &held(id)?.attrs);
                }
            }
            StepProgram::Kleene { ord, inner, .. } => {
                let k = &pm.kleene[*ord];
                if pm.single[s].is_some()
                    || k.iterations.is_empty() == bound
                    || k.iterations.iter().any(|it| it.len() != inner.len())
                    || k.in_progress.len() >= inner.len()
                {
                    return Err(format!("step {s}: malformed Kleene state"));
                }
                for id in k.iterations.iter().flatten().chain(&k.in_progress) {
                    held(*id)?;
                    row[IDS + s] = st.pool.push(*id, row[IDS + s]);
                    row[bp.iters_at + ord] += 1;
                }
            }
        }
    }
    Ok(())
}

/// Does a row binding `bound` wait for a future event under `bp`'s order:
/// it binds a proper prefix of the order's single steps, and its next step
/// need not precede any step it binds — or it binds them all and has
/// Kleene steps to absorb into?
fn waits(bp: &BranchProgram, bound: u64) -> bool {
    if bound & bp.singles() == bp.singles() {
        return bp.kleene_mask != 0;
    }
    let k = bound.count_ones() as usize;
    let prefix = bp.order[..k.min(bp.order.len())]
        .iter()
        .fold(0, |m, s| m | 1 << s);
    k < bp.order.len() && bound == prefix && bp.steps[bp.order[k]].after & bound == 0
}

/// Does `row` bind every single step and nothing else: did the current
/// event's ordered pass complete its single steps?
fn binds_only_singles(bp: &BranchProgram, row: &[u64]) -> bool {
    row[BOUND] == bp.singles() && row[bp.iters_at..bp.known_at].iter().all(|&n| n == 0)
}

/// Where a row of an ordered branch that binds only its single steps falls
/// in the step-order pass's sequence (of emission, or of storage when a
/// Kleene suffix follows). That pass extends stored rows in creation
/// order, each at its steps in index order, then the empty row; so a row
/// ranks by its newest event, then by its parent (the row without that
/// event), then by the step that event binds. For rows of one length that
/// is: ids newest first, then the steps they bind from the oldest event's.
/// (The single steps of an ordered branch are its first steps, at most
/// [`MAX_ORDERED_STEPS`], so the key fits on the stack; the words past
/// `2·singles` are zero for every row.)
fn emission_key(bp: &BranchProgram, row: &[u64]) -> [u64; 2 * MAX_ORDERED_STEPS] {
    let n = bp.steps.len() - bp.kleene.len();
    let mut bound = [(0, 0); MAX_ORDERED_STEPS];
    for (s, b) in bound[..n].iter_mut().enumerate() {
        *b = (row[IDS + s], s as u64);
    }
    bound[..n].sort_unstable_by(|a, b| b.cmp(a));
    let mut key = [0; 2 * MAX_ORDERED_STEPS];
    for (k, &(id, s)) in bound[..n].iter().enumerate() {
        key[k] = id;
        key[2 * n - 1 - k] = s;
    }
    key
}

fn stored(program: &Program, branches: &[BranchState]) -> usize {
    (program.branches.iter().zip(branches))
        .map(|(bp, st)| st.rows.len() / bp.stride)
        .sum()
}

/// The row word a window expires on.
fn window_key(window: WindowSpec) -> usize {
    match window {
        WindowSpec::Count(_) => MIN_ID,
        WindowSpec::Time(_) => MIN_TS,
    }
}

/// Has a partial match whose window key is `key` left the window at `ev`?
/// (Exactly the complement of "may `ev` still join it".)
#[inline]
fn expired(window: WindowSpec, key: u64, ev: &PrimitiveEvent) -> bool {
    match window {
        WindowSpec::Count(w) => ev.id.0 - key >= w,
        WindowSpec::Time(w) => ev.ts.0 - key > w,
    }
}

/// Enforce the partial-match budget: shed the oldest partials (smallest
/// `min_id`, ties by branch then storage order) until at most `budget`
/// remain across all branches. Survivors keep their order.
fn shed_to_budget(
    program: &Program,
    branches: &mut [BranchState],
    ages: &mut Vec<(u64, usize)>,
    stats: &mut EngineStats,
    budget: usize,
) {
    let excess = stored(program, branches).saturating_sub(budget);
    if excess == 0 {
        return;
    }
    ages.clear();
    for (bi, (bp, st)) in program.branches.iter().zip(&*branches).enumerate() {
        ages.extend(st.rows.chunks(bp.stride).map(|row| (row[MIN_ID], bi)));
    }
    // Everything ordered before the pivot goes, and of the rows equal to it
    // as many as it takes, in storage order.
    let pivot = *ages.select_nth_unstable(excess - 1).1;
    let mut ties = excess - ages[..excess - 1].iter().filter(|a| **a < pivot).count();
    for (bi, (bp, st)) in program.branches.iter().zip(branches).enumerate() {
        let mut kept = 0;
        for at in (0..st.rows.len()).step_by(bp.stride) {
            let age = (st.rows[at + MIN_ID], bi);
            if age < pivot {
                continue;
            }
            if age == pivot && ties > 0 {
                ties -= 1;
                continue;
            }
            st.rows.copy_within(at..at + bp.stride, kept);
            kept += bp.stride;
        }
        st.rows.truncate(kept);
    }
    stats.partials_shed += excess as u64;
}

/// The Kleene iteration or negated occurrence a condition is checked on.
#[derive(Clone, Copy)]
enum Under<'a> {
    Nothing,
    /// `(kleene step, ids per inner element)`.
    Iter(usize, &'a [EventId]),
    /// `(neg index, candidate ids per inner element)`.
    Neg(usize, &'a [Option<EventId>]),
}

/// What a condition is evaluated against.
#[derive(Clone, Copy)]
struct Scope<'a> {
    bp: &'a BranchProgram,
    arena: &'a EventArena,
    row: &'a [u64],
    under: Under<'a>,
}

impl Scope<'_> {
    #[inline]
    fn get(&self, leaf: &Leaf) -> Option<f64> {
        let attr_of = |id: EventId, attr: usize| self.arena.get(id)?.attr(attr);
        match (*leaf, self.under) {
            (Leaf::Val(i), _) => {
                let known = self.row[self.bp.known_at + i / 64] >> (i % 64) & 1 == 1;
                known.then(|| f64::from_bits(self.row[self.bp.vals_at + i]))
            }
            (Leaf::Elem(Slot::KleeneElem { step, elem }, attr), Under::Iter(s, ids))
                if s == step =>
            {
                attr_of(*ids.get(elem)?, attr)
            }
            (Leaf::Elem(Slot::NegElem { neg, elem }, attr), Under::Neg(n, ids)) if n == neg => {
                attr_of((*ids.get(elem)?)?, attr)
            }
            _ => None,
        }
    }

    #[inline]
    fn check(&self, cond: &Cond) -> Option<bool> {
        cond.eval(&|leaf| self.get(leaf))
    }
}

/// One branch's pass over one event.
struct Pass<'a> {
    window: WindowSpec,
    max_kleene_iters: Option<usize>,
    bp: &'a BranchProgram,
    arena: &'a EventArena,
    ev: &'a PrimitiveEvent,
    pool: &'a mut KleenePool,
    stats: &'a mut EngineStats,
    out: &'a mut Vec<Match>,
    ids: &'a mut Vec<EventId>,
    done: &'a mut Vec<usize>,
}

impl<'a> Pass<'a> {
    fn scope<'s>(&self, row: &'s [u64], under: Under<'s>) -> Scope<'s>
    where
        'a: 's,
    {
        let (bp, arena) = (self.bp, self.arena);
        Scope {
            bp,
            arena,
            row,
            under,
        }
    }

    /// Compact expired rows out of `rows` and extend the survivors (then the
    /// empty partial) by the event at the steps in `accept`. Returns the
    /// smallest window key left in the store.
    fn run(&mut self, rows: &mut Vec<u64>, created: &mut Vec<u64>, accept: u64) -> u64 {
        let bp = self.bp;
        let (stride, key) = (bp.stride, window_key(self.window));
        let mut oldest = u64::MAX;
        // Survivors move down over the expired in whole runs: `kept` words
        // are in place, the run starting at `run` is still to be moved.
        let (mut kept, mut run) = (0, 0);
        for at in (0..rows.len()).step_by(stride) {
            if expired(self.window, rows[at + key], self.ev) {
                rows.copy_within(run..at, kept);
                kept += at - run;
                run = at + stride;
                continue;
            }
            let row = &rows[at..at + stride];
            oldest = oldest.min(row[key]);
            let open = accept & bp.open(row[BOUND]);
            if open != 0 {
                self.extend(row, open, created);
            }
        }
        rows.copy_within(run.., kept);
        kept += rows.len() - run;
        rows.truncate(kept);
        if accept & bp.open(0) != 0 {
            self.extend(&bp.blank, accept & bp.open(0), created);
        }
        self.done.clear();
        if bp.ordered {
            self.pull_and_emit(created);
        }
        // A row that completed its single steps at this event goes in just
        // before the first suffix row absorbing the event that the
        // step-order pass would have stored after it; every other row goes
        // in as created.
        let fresh = std::mem::take(self.done);
        let mut f = 0;
        let mut store = |row: &[u64]| {
            oldest = oldest.min(row[key]);
            rows.extend_from_slice(row);
        };
        for row in created.chunks(stride) {
            if bp.ordered {
                if !waits(bp, row[BOUND]) || binds_only_singles(bp, row) {
                    continue;
                }
                let absorbed = row[BOUND] & bp.singles() == bp.singles();
                while absorbed
                    && f < fresh.len()
                    && self.precedes(&created[fresh[f]..][..stride], row)
                {
                    store(&created[fresh[f]..][..stride]);
                    f += 1;
                }
            }
            store(row);
        }
        for &at in &fresh[f..] {
            store(&created[at..at + stride]);
        }
        *self.done = fresh;
        created.clear();
        oldest
    }

    /// Under an order: bind each new row's next single step to every past
    /// event of the window that fits it (rows this appends are walked in
    /// turn), then sort the rows that bind every single step into
    /// step-order sequence — and emit them, unless a Kleene suffix follows,
    /// in which case they are left in `done` for [`Pass::run`] to store.
    fn pull_and_emit(&mut self, created: &mut Vec<u64>) {
        let (bp, stride) = (self.bp, self.bp.stride);
        let mut at = 0;
        while at < created.len() {
            let next = bp.open(created[at + BOUND]) & !bp.kleene_mask;
            if next != 0 {
                self.pull(created, at, next.trailing_zeros() as usize);
            }
            at += stride;
        }
        let mut done = std::mem::take(self.done);
        done.extend(
            (0..created.len())
                .step_by(stride)
                .filter(|&at| binds_only_singles(bp, &created[at..at + stride])),
        );
        done.sort_unstable_by_key(|&at| emission_key(bp, &created[at..at + stride]));
        if bp.kleene_mask == 0 {
            for &at in &done {
                self.try_emit(&created[at..at + stride]);
            }
            done.clear();
        }
        *self.done = done;
    }

    /// Does `fresh`, a row that bound its last single step at this event,
    /// come before `row`, a row of the Kleene suffix that absorbed it, in
    /// the step-order pass's storage sequence? That sequence ranks rows by
    /// their ids newest first (see [`emission_key`]): the first id that
    /// differs decides, and where `fresh`'s ids all lead `row`'s it ranks
    /// after — its shorter chain of parents ends at the empty row, which
    /// the pass extends last.
    fn precedes(&mut self, fresh: &[u64], row: &[u64]) -> bool {
        let bp = self.bp;
        self.ids.clear();
        for (s, step) in bp.steps.iter().enumerate() {
            match &step.kind {
                StepProgram::Single => self.ids.push(EventId(row[IDS + s])),
                StepProgram::Kleene { ord, .. } => {
                    let absorbed = row[bp.iters_at + ord] as usize;
                    self.ids.extend(self.pool.chain(row[IDS + s], absorbed));
                }
            }
        }
        self.ids.sort_unstable_by(|a, b| b.cmp(a));
        let key = emission_key(bp, fresh);
        let singles = bp.steps.len() - bp.kleene.len();
        (key[..singles].iter().zip(self.ids.iter()))
            .find(|(a, b)| **a != b.0)
            .is_some_and(|(a, b)| *a < b.0)
    }

    /// Append to `created` the row at `at` with step `s` bound to each past
    /// event of the window that fits it: after every bound step it must
    /// follow, before every one it must precede (and the current event),
    /// distinct from the bound events it is unordered with, and passing
    /// the conditions this binding decides. Each candidate is bound into
    /// the row's own slots for `s` and decided there before it is copied;
    /// the row gets its mask back (the slots of an unbound step are never
    /// read, and binding `s` later overwrites them).
    fn pull(&mut self, created: &mut Vec<u64>, at: usize, s: usize) {
        let (bp, step, stride) = (self.bp, &self.bp.steps[s], self.bp.stride);
        let bound = created[at + BOUND];
        let id = |q: usize| created[at + IDS + q];
        let lo = bits(bound & step.before)
            .map(|q| id(q) + 1)
            .max()
            .unwrap_or(0);
        let hi = bits(bound & step.after)
            .map(id)
            .min()
            .unwrap_or(self.ev.id.0);
        let free = bound & !(step.before | step.after);
        for cand in self.arena.range(EventId(lo)..EventId(hi)) {
            if bp.accepting(cand.type_id) >> s & 1 == 0
                || bits(free).any(|q| created[at + IDS + q] == cand.id.0)
            {
                continue;
            }
            let row = &mut created[at..at + stride];
            row[IDS + s] = cand.id.0;
            row[BOUND] = bound | 1 << s;
            bp.fill_vals(row, step, &cand.attrs);
            if self.eager_conds_ok(&created[at..at + stride], step) {
                let new = created.len();
                created.extend_from_within(at..at + stride);
                note_event(&mut created[new..], cand);
                self.stats.partial_matches_created += 1;
            }
        }
        created[at + BOUND] = bound;
    }

    /// Try the event at each step of `open` on top of `parent`, appending
    /// the partial matches that survive to `created`.
    fn extend(&mut self, parent: &[u64], mut open: u64, created: &mut Vec<u64>) {
        let (bp, ev) = (self.bp, self.ev);
        while open != 0 {
            let s = open.trailing_zeros() as usize;
            open &= open - 1;
            let step = &bp.steps[s];
            // Under an order the event is the newest: it follows whatever
            // is bound, and a stored row precedes nothing it binds next.
            // A Kleene step, open only once every single step is bound,
            // checks its predecessors as in step order.
            let checked = !bp.ordered || bp.kleene_mask >> s & 1 == 1;
            if checked && step.preds & parent[BOUND] != step.preds {
                continue;
            }
            let at = created.len();
            match &step.kind {
                StepProgram::Single => {
                    created.extend_from_slice(parent);
                    let row = &mut created[at..];
                    row[IDS + s] = ev.id.0;
                    row[BOUND] |= 1 << s;
                    note_event(row, ev);
                    bp.fill_vals(row, step, &ev.attrs);
                    if !self.eager_conds_ok(&created[at..], step) {
                        created.truncate(at);
                        continue;
                    }
                    self.stats.partial_matches_created += 1;
                    if !bp.ordered {
                        self.try_emit(&created[at..]);
                    }
                }
                StepProgram::Kleene {
                    ord,
                    inner,
                    iter_conds,
                } => {
                    // A Kleene may not absorb once a successor bound.
                    if parent[BOUND] & step.succ != 0 {
                        continue;
                    }
                    let absorbed = parent[bp.iters_at + ord] as usize;
                    let pos = absorbed % inner.len();
                    let capped = |cap| pos == 0 && absorbed / inner.len() >= cap;
                    if self.max_kleene_iters.is_some_and(capped) || !inner[pos].contains(ev.type_id)
                    {
                        continue;
                    }
                    created.extend_from_slice(parent);
                    note_event(&mut created[at..], ev);
                    let completes = pos + 1 == inner.len();
                    if completes {
                        // Early filter on the iteration this event closes.
                        self.pool.tail(parent[IDS + s], pos, self.ids);
                        self.ids.push(ev.id);
                        let scope = self.scope(&created[at..], Under::Iter(s, self.ids));
                        let mut ok = true;
                        for cond in iter_conds {
                            self.stats.condition_evaluations += 1;
                            if scope.check(cond) == Some(false) {
                                ok = false;
                                break;
                            }
                        }
                        if !ok {
                            created.truncate(at);
                            continue;
                        }
                    }
                    let row = &mut created[at..];
                    row[IDS + s] = self.pool.push(ev.id, parent[IDS + s]);
                    row[bp.iters_at + ord] += 1;
                    self.stats.partial_matches_created += 1;
                    if completes {
                        row[BOUND] |= 1 << s;
                        self.try_emit(&created[at..]);
                    }
                }
            }
        }
    }

    /// Evaluate the eager conditions that binding `step` made decidable;
    /// `true` when none fail (undecidable conditions pass for now).
    fn eager_conds_ok(&mut self, row: &[u64], step: &Step) -> bool {
        for &i in &step.eager {
            let (mask, cond) = &self.bp.conds[i];
            if mask & row[BOUND] != *mask {
                continue;
            }
            self.stats.condition_evaluations += 1;
            if self.scope(row, Under::Nothing).check(cond) == Some(false) {
                return false;
            }
        }
        true
    }

    /// Check a completed partial match: deferred Kleene conditions and
    /// negation gaps; emit on success.
    fn try_emit(&mut self, row: &[u64]) {
        let bp = self.bp;
        if row[BOUND] != bp.full_mask {
            return;
        }
        let mut iters = row[bp.iters_at..].iter().zip(&bp.kleene);
        if iters.any(|(n, &(_, len))| !(*n as usize).is_multiple_of(len)) {
            return;
        }
        // Deferred Kleene conditions: ∀ iterations.
        for (step, cond) in &bp.deferred {
            let len = self.kleene_ids(row, *step);
            for iter in self.ids.chunks(len) {
                self.stats.condition_evaluations += 1;
                if self.scope(row, Under::Iter(*step, iter)).check(cond) != Some(true) {
                    return;
                }
            }
        }
        for (n, neg) in bp.negs.iter().enumerate() {
            if self.neg_occurs(row, n, neg) {
                return;
            }
        }
        let m = self.build_match(row);
        self.out.push(m);
        self.stats.matches_emitted += 1;
    }

    /// Load every id Kleene step `s` of `row` has absorbed into `self.ids`
    /// (iteration after iteration); returns the iteration length.
    fn kleene_ids(&mut self, row: &[u64], s: usize) -> usize {
        let StepProgram::Kleene { ord, inner, .. } = &self.bp.steps[s].kind else {
            unreachable!("step {s} is not a Kleene step");
        };
        let absorbed = row[self.bp.iters_at + ord] as usize;
        self.pool.tail(row[IDS + s], absorbed, self.ids);
        inner.len()
    }

    /// Smallest and largest event id bound at step `s`.
    fn step_bounds(&mut self, row: &[u64], s: usize) -> (u64, u64) {
        if self.bp.kleene_mask >> s & 1 == 0 {
            return (row[IDS + s], row[IDS + s]);
        }
        self.kleene_ids(row, s);
        let ids = self.ids.iter();
        ids.fold((u64::MAX, 0), |(lo, hi), id| (lo.min(id.0), hi.max(id.0)))
    }

    /// Does a forbidden occurrence of `neg.inner` exist in the gap?
    fn neg_occurs(&mut self, row: &[u64], n: usize, neg: &NegGroup) -> bool {
        let (arena, window) = (self.arena, self.window);
        let hi = (neg.before.iter())
            .map(|&s| self.step_bounds(row, s).0)
            .min();
        let hi = EventId(hi.expect("neg.before is never empty"));
        let lo = neg.after.iter().map(|&s| self.step_bounds(row, s).1).max();
        let candidates: Vec<&PrimitiveEvent> = match lo {
            // Leading NEG: the gap starts at the match's window start —
            // any event before `hi` that still shares a window with the
            // match counts (ids start at 0).
            None => {
                let max_id = row[MAX_ID];
                let max_ts = arena.get(EventId(max_id)).map(|e| e.ts.0);
                (arena.range(EventId(0)..hi))
                    .filter(|e| match window {
                        WindowSpec::Count(w) => max_id - e.id.0 <= w.saturating_sub(1),
                        WindowSpec::Time(w) => {
                            max_ts.is_none_or(|mt| mt.saturating_sub(e.ts.0) <= w)
                        }
                    })
                    .collect()
            }
            Some(lo) if lo >= hi.0 => return false,
            Some(lo) => arena.range(EventId(lo + 1)..hi).collect(),
        };
        let mut assigned = vec![None; neg.inner.len()];
        self.neg_dfs(row, n, neg, &candidates, 0, 0, &mut assigned)
    }

    /// Backtracking search for an in-order occurrence of the negated
    /// sequence among `candidates`, honoring the group's conditions.
    #[allow(clippy::too_many_arguments)]
    fn neg_dfs(
        &mut self,
        row: &[u64],
        n: usize,
        neg: &NegGroup,
        candidates: &[&PrimitiveEvent],
        elem: usize,
        from: usize,
        assigned: &mut Vec<Option<EventId>>,
    ) -> bool {
        if elem == neg.inner.len() {
            // Full occurrence assembled; conditions must all hold.
            for cond in &self.bp.neg_conds[n] {
                self.stats.condition_evaluations += 1;
                if self.scope(row, Under::Neg(n, assigned)).check(cond) != Some(true) {
                    return false;
                }
            }
            return true;
        }
        for (i, cand) in candidates.iter().enumerate().skip(from) {
            if !neg.inner[elem].types.contains(cand.type_id) {
                continue;
            }
            assigned[elem] = Some(cand.id);
            if self.neg_dfs(row, n, neg, candidates, elem + 1, i + 1, assigned) {
                return true;
            }
            assigned[elem] = None;
        }
        false
    }

    fn build_match(&mut self, row: &[u64]) -> Match {
        let bp = self.bp;
        let mut bindings = Vec::new();
        for (s, step) in bp.steps.iter().enumerate() {
            if bp.kleene_mask >> s & 1 == 0 {
                bindings.push((step.names[0].clone(), vec![EventId(row[IDS + s])]));
                continue;
            }
            let len = self.kleene_ids(row, s);
            for (j, name) in step.names.iter().enumerate() {
                let ids = self.ids.iter().skip(j).step_by(len).copied().collect();
                bindings.push((name.clone(), ids));
            }
        }
        Match::from_bindings(bindings)
    }
}

/// The steps in `mask`, lowest first.
fn bits(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let s = mask.trailing_zeros() as usize;
        mask &= mask.wrapping_sub(1);
        (s < 64).then_some(s)
    })
}

fn note_event(row: &mut [u64], ev: &PrimitiveEvent) {
    row[MIN_ID] = row[MIN_ID].min(ev.id.0);
    row[MAX_ID] = row[MAX_ID].max(ev.id.0);
    row[MIN_TS] = row[MIN_TS].min(ev.ts.0);
}

impl CepEngine for NfaEngine {
    fn process(&mut self, ev: &PrimitiveEvent) {
        self.stats.events_processed += 1;
        self.arena.push(ev);
        let window = self.program.window;
        match window {
            WindowSpec::Count(w) => {
                self.arena
                    .evict_below(EventId((ev.id.0 + 1).saturating_sub(w)));
            }
            WindowSpec::Time(w) => {
                self.arena.evict_before_ts(ev.ts.0.saturating_sub(w));
            }
        }
        let horizon = self.arena.first_id().unwrap_or(EventId(ev.id.0 + 1));
        for (bp, st) in self.program.branches.iter().zip(&mut self.branches) {
            let accept = bp.accepting(ev.type_id);
            // An event no step accepts can only expire partials, and only
            // once the oldest of them has.
            let stale = !st.rows.is_empty() && expired(window, st.oldest, ev);
            if accept == 0 && !stale {
                continue;
            }
            st.pool.evict_below(horizon);
            let mut pass = Pass {
                window,
                max_kleene_iters: self.config.max_kleene_iters,
                bp,
                arena: &self.arena,
                ev,
                pool: &mut st.pool,
                stats: &mut self.stats,
                out: &mut self.out,
                ids: &mut self.ids,
                done: &mut self.done,
            };
            st.oldest = pass.run(&mut st.rows, &mut self.created, accept);
        }
        if let Some(budget) = self.config.max_partials {
            shed_to_budget(
                &self.program,
                &mut self.branches,
                &mut self.ages,
                &mut self.stats,
                budget,
            );
        }
        let stored = stored(&self.program, &self.branches) as u64;
        self.stats.peak_partial_matches = self.stats.peak_partial_matches.max(stored);
    }

    fn drain_matches(&mut self) -> Vec<Match> {
        std::mem::take(&mut self.out)
    }

    fn stats(&self) -> &EngineStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::ast::{PatternExpr, TypeSet};
    use crate::pattern::condition::{Expr, Predicate};
    use dlacep_events::{EventStream, TypeId};

    const A: TypeId = TypeId(0);
    const B: TypeId = TypeId(1);
    const C: TypeId = TypeId(2);
    const D: TypeId = TypeId(3);

    fn leaf(t: TypeId, b: &str) -> PatternExpr {
        PatternExpr::event(TypeSet::single(t), b)
    }

    fn stream(types: &[TypeId]) -> EventStream {
        let mut s = EventStream::new();
        for (i, &t) in types.iter().enumerate() {
            s.push(t, i as u64, vec![i as f64]);
        }
        s
    }

    fn stream_attr(data: &[(TypeId, f64)]) -> EventStream {
        let mut s = EventStream::new();
        for (i, (t, v)) in data.iter().enumerate() {
            s.push(*t, i as u64, vec![*v]);
        }
        s
    }

    fn run(pattern: &Pattern, s: &EventStream) -> Vec<Match> {
        let mut e = NfaEngine::new(pattern).unwrap();
        e.run(s.events())
    }

    #[test]
    fn seq_counts_all_combinations() {
        // A A B B C: SEQ(A,B,C) -> 2*2*1 = 4 matches (skip-till-any-match).
        let p = Pattern::new(
            PatternExpr::Seq(vec![leaf(A, "a"), leaf(B, "b"), leaf(C, "c")]),
            vec![],
            WindowSpec::Count(10),
        );
        let got = run(&p, &stream(&[A, A, B, B, C]));
        assert_eq!(got.len(), 4);
    }

    #[test]
    fn seq_respects_order() {
        // B before A: no match.
        let p = Pattern::new(
            PatternExpr::Seq(vec![leaf(A, "a"), leaf(B, "b")]),
            vec![],
            WindowSpec::Count(10),
        );
        assert!(run(&p, &stream(&[B, A])).is_empty());
        assert_eq!(run(&p, &stream(&[A, B])).len(), 1);
    }

    #[test]
    fn count_window_excludes_distant_pairs() {
        // A . . . B with W=3: id distance 4 > W-1 -> no match.
        let p = Pattern::new(
            PatternExpr::Seq(vec![leaf(A, "a"), leaf(B, "b")]),
            vec![],
            WindowSpec::Count(3),
        );
        assert!(run(&p, &stream(&[A, C, C, C, B])).is_empty());
        assert_eq!(run(&p, &stream(&[A, C, B])).len(), 1);
    }

    #[test]
    fn time_window_uses_timestamps() {
        let p = Pattern::new(
            PatternExpr::Seq(vec![leaf(A, "a"), leaf(B, "b")]),
            vec![],
            WindowSpec::Time(5),
        );
        let mut s = EventStream::new();
        s.push(A, 0, vec![0.0]);
        s.push(B, 4, vec![0.0]); // within 5 time units
        s.push(B, 10, vec![0.0]); // outside
        assert_eq!(run(&p, &s).len(), 1);
    }

    #[test]
    fn conditions_filter_matches() {
        // Example (1) of the paper: C's price above both A's and B's.
        let p = Pattern::new(
            PatternExpr::Seq(vec![leaf(A, "a"), leaf(B, "b"), leaf(C, "c")]),
            vec![
                Predicate::gt(Expr::attr("c", 0), Expr::attr("a", 0)),
                Predicate::gt(Expr::attr("c", 0), Expr::attr("b", 0)),
            ],
            WindowSpec::Count(10),
        );
        let s = stream_attr(&[(A, 5.0), (B, 3.0), (C, 6.0), (C, 4.0)]);
        let got = run(&p, &s);
        assert_eq!(got.len(), 1); // only the C with price 6 qualifies
        assert_eq!(got[0].binding("c"), Some(&[EventId(2)][..]));
    }

    #[test]
    fn conj_matches_any_order() {
        let p = Pattern::new(
            PatternExpr::Conj(vec![leaf(A, "a"), leaf(B, "b")]),
            vec![],
            WindowSpec::Count(10),
        );
        assert_eq!(run(&p, &stream(&[B, A])).len(), 1);
        assert_eq!(run(&p, &stream(&[A, B])).len(), 1);
    }

    #[test]
    fn disj_unions_branches() {
        let p = Pattern::new(
            PatternExpr::Disj(vec![
                PatternExpr::Seq(vec![leaf(A, "a"), leaf(B, "b")]),
                PatternExpr::Seq(vec![leaf(C, "c"), leaf(D, "d")]),
            ]),
            vec![],
            WindowSpec::Count(10),
        );
        let got = run(&p, &stream(&[A, C, B, D]));
        assert_eq!(got.len(), 2);
    }

    #[test]
    fn kleene_enumerates_nonempty_subsets() {
        // SEQ(A, KC(B), C) on A B B C: KC over {b1}, {b2}, {b1,b2} -> 3.
        let p = Pattern::new(
            PatternExpr::Seq(vec![
                leaf(A, "a"),
                PatternExpr::Kleene(Box::new(leaf(B, "k"))),
                leaf(C, "c"),
            ]),
            vec![],
            WindowSpec::Count(10),
        );
        let got = run(&p, &stream(&[A, B, B, C]));
        assert_eq!(got.len(), 3);
        let sizes: Vec<usize> = got.iter().map(|m| m.binding("k").unwrap().len()).collect();
        let mut sorted = sizes.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![1, 1, 2]);
    }

    #[test]
    fn kleene_of_sequence_iterates() {
        // KC(SEQ(A,B)) on A B A B: iterations {a1b1}, {a2b2}, {a1b1,a2b2}, {a1b2}...
        // valid iteration = an (A,B) in-order pair; pairs: (a1,b1),(a1,b2),(a2,b2);
        // sets of non-overlapping-in-order iterations: each single pair (3),
        // plus {(a1,b1),(a2,b2)} -> 4 total.
        let p = Pattern::new(
            PatternExpr::Kleene(Box::new(PatternExpr::Seq(vec![leaf(A, "x"), leaf(B, "y")]))),
            vec![],
            WindowSpec::Count(10),
        );
        let got = run(&p, &stream(&[A, B, A, B]));
        assert_eq!(got.len(), 4);
    }

    #[test]
    fn kleene_iteration_condition_prunes() {
        // SEQ(A, KC(B), C) WHERE k.v < a.v — only B events below A's value.
        let p = Pattern::new(
            PatternExpr::Seq(vec![
                leaf(A, "a"),
                PatternExpr::Kleene(Box::new(leaf(B, "k"))),
                leaf(C, "c"),
            ]),
            vec![Predicate::lt(Expr::attr("k", 0), Expr::attr("a", 0))],
            WindowSpec::Count(10),
        );
        // a.v = 5; B values 3 (ok), 9 (fails)
        let s = stream_attr(&[(A, 5.0), (B, 3.0), (B, 9.0), (C, 0.0)]);
        let got = run(&p, &s);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].binding("k"), Some(&[EventId(1)][..]));
    }

    #[test]
    fn negation_suppresses_match() {
        // SEQ(A, NEG(B), C): match iff no B between A and C.
        let p = Pattern::new(
            PatternExpr::Seq(vec![
                leaf(A, "a"),
                PatternExpr::Neg(Box::new(leaf(B, "n"))),
                leaf(C, "c"),
            ]),
            vec![],
            WindowSpec::Count(10),
        );
        assert!(run(&p, &stream(&[A, B, C])).is_empty());
        assert_eq!(run(&p, &stream(&[A, D, C])).len(), 1);
        // B *outside* the gap does not suppress.
        assert_eq!(run(&p, &stream(&[B, A, C])).len(), 1);
    }

    #[test]
    fn negation_with_condition_only_counts_qualifying_events() {
        // NEG(B n) WHERE n.v > a.v: only "large" B events forbid the match.
        let p = Pattern::new(
            PatternExpr::Seq(vec![
                leaf(A, "a"),
                PatternExpr::Neg(Box::new(leaf(B, "n"))),
                leaf(C, "c"),
            ]),
            vec![Predicate::gt(Expr::attr("n", 0), Expr::attr("a", 0))],
            WindowSpec::Count(10),
        );
        let small_b = stream_attr(&[(A, 5.0), (B, 1.0), (C, 0.0)]);
        assert_eq!(run(&p, &small_b).len(), 1);
        let large_b = stream_attr(&[(A, 5.0), (B, 9.0), (C, 0.0)]);
        assert!(run(&p, &large_b).is_empty());
    }

    #[test]
    fn negated_sequence_requires_full_inner_occurrence() {
        // SEQ(A, NEG(SEQ(B,D)), C): only an in-order B..D pair in the gap kills it.
        let p = Pattern::new(
            PatternExpr::Seq(vec![
                leaf(A, "a"),
                PatternExpr::Neg(Box::new(PatternExpr::Seq(vec![
                    leaf(B, "n1"),
                    leaf(D, "n2"),
                ]))),
                leaf(C, "c"),
            ]),
            vec![],
            WindowSpec::Count(10),
        );
        assert!(run(&p, &stream(&[A, B, D, C])).is_empty());
        assert_eq!(run(&p, &stream(&[A, D, B, C])).len(), 1); // wrong order
        assert_eq!(run(&p, &stream(&[A, B, C])).len(), 1); // incomplete
    }

    #[test]
    fn stats_track_partial_matches() {
        let p = Pattern::new(
            PatternExpr::Seq(vec![leaf(A, "a"), leaf(B, "b"), leaf(C, "c")]),
            vec![],
            WindowSpec::Count(10),
        );
        let mut e = NfaEngine::new(&p).unwrap();
        let s = stream(&[A, A, B, B, C]);
        let matches = e.run(s.events());
        let st = e.stats();
        assert_eq!(st.events_processed, 5);
        assert_eq!(st.matches_emitted, matches.len() as u64);
        // partials: 2×[a], 4×[a,b] prefixes (2a × 2b), 4 full = 10 creations
        assert_eq!(st.partial_matches_created, 10);
        assert!(st.peak_partial_matches >= 6);
    }

    #[test]
    fn kleene_cap_limits_iterations() {
        let p = Pattern::new(
            PatternExpr::Seq(vec![
                leaf(A, "a"),
                PatternExpr::Kleene(Box::new(leaf(B, "k"))),
                leaf(C, "c"),
            ]),
            vec![],
            WindowSpec::Count(20),
        );
        let mut capped = NfaEngine::with_config(
            &p,
            NfaConfig {
                max_kleene_iters: Some(1),
                ..NfaConfig::default()
            },
        )
        .unwrap();
        let s = stream(&[A, B, B, C]);
        let got = capped.run(s.events());
        // Only single-iteration closures survive: {b1}, {b2}.
        assert_eq!(got.len(), 2);
    }

    #[test]
    fn partial_budget_caps_live_state() {
        // Many A's under SEQ(A,B) with a huge window: unbounded state grows
        // linearly; a budget of 4 must hold stored partials at <= 4 after
        // every event and count everything it shed.
        let p = Pattern::new(
            PatternExpr::Seq(vec![leaf(A, "a"), leaf(B, "b")]),
            vec![],
            WindowSpec::Count(1000),
        );
        let budget = 4;
        let mut e = NfaEngine::with_config(
            &p,
            NfaConfig {
                max_partials: Some(budget),
                ..NfaConfig::default()
            },
        )
        .unwrap();
        let s = stream(&[A; 50]);
        for ev in s.events() {
            e.process(ev);
            assert!(
                e.stored_partials() <= budget,
                "budget violated: {}",
                e.stored_partials()
            );
        }
        assert_eq!(e.stats().partials_shed, 50 - budget as u64);
        assert!(e.stats().peak_partial_matches <= budget as u64);
    }

    #[test]
    fn partial_budget_sheds_oldest_first() {
        // With budget 2, the two *newest* A partials survive, so only they
        // can complete when B arrives.
        let p = Pattern::new(
            PatternExpr::Seq(vec![leaf(A, "a"), leaf(B, "b")]),
            vec![],
            WindowSpec::Count(1000),
        );
        let mut e = NfaEngine::with_config(
            &p,
            NfaConfig {
                max_partials: Some(2),
                ..NfaConfig::default()
            },
        )
        .unwrap();
        let s = stream(&[A, A, A, A, B]);
        let got = e.run(s.events());
        assert_eq!(got.len(), 2);
        let mut a_ids: Vec<u64> = got.iter().map(|m| m.binding("a").unwrap()[0].0).collect();
        a_ids.sort_unstable();
        assert_eq!(a_ids, vec![2, 3], "oldest partials (a=0, a=1) were shed");
    }

    // `shed_to_budget` drops exactly the partials the rule it replaced
    // dropped — all stored partials sorted by `(min_id, branch)`, the `excess`
    // oldest counted per branch, that many taken off the front of each
    // branch's *stable* sort by `min_id` — and, unlike it, leaves the
    // survivors in storage order.
    proptest::proptest! {
        #[test]
        fn shedding_drops_what_the_stable_sort_dropped(
            ages in proptest::prop::collection::vec(
                proptest::prop::collection::vec(0u64..6, 0..12),
                3,
            ),
            budget in 0usize..40,
        ) {
            let three = PatternExpr::Disj(vec![leaf(A, "a"), leaf(B, "b"), leaf(C, "c")]);
            let program = Program::lower(
                &Plan::compile(&Pattern::new(three, vec![], WindowSpec::Count(100))).unwrap(),
            );
            // A row is a min_id plus, as its identity, its storage position.
            let mut branches: Vec<BranchState> = (program.branches.iter().zip(&ages))
                .map(|(bp, ages)| {
                    let mut st = BranchState::default();
                    for (tag, age) in ages.iter().enumerate() {
                        let at = st.rows.len();
                        st.rows.extend_from_slice(&bp.blank);
                        st.rows[at + MIN_ID] = *age;
                        st.rows[at + MAX_ID] = tag as u64;
                    }
                    st
                })
                .collect();

            let mut all: Vec<(u64, usize)> = (ages.iter().enumerate())
                .flat_map(|(bi, ages)| ages.iter().map(move |a| (*a, bi)))
                .collect();
            all.sort_unstable();
            let excess = all.len().saturating_sub(budget);
            let expected: Vec<Vec<u64>> = (ages.iter().enumerate())
                .map(|(bi, ages)| {
                    let k = all[..excess].iter().filter(|a| a.1 == bi).count();
                    let mut order: Vec<usize> = (0..ages.len()).collect();
                    order.sort_by_key(|&tag| ages[tag]);
                    let mut kept: Vec<u64> = order[k..].iter().map(|&tag| tag as u64).collect();
                    kept.sort_unstable();
                    kept
                })
                .collect();

            let mut stats = EngineStats::default();
            shed_to_budget(&program, &mut branches, &mut Vec::new(), &mut stats, budget);
            let got: Vec<Vec<u64>> = (program.branches.iter().zip(&branches))
                .map(|(bp, st)| st.rows.chunks(bp.stride).map(|row| row[MAX_ID]).collect())
                .collect();
            proptest::prop_assert_eq!(got, expected);
            proptest::prop_assert_eq!(stats.partials_shed, excess as u64);
        }
    }

    #[test]
    fn budgeted_matches_are_subset_of_exact() {
        let p = Pattern::new(
            PatternExpr::Seq(vec![leaf(A, "a"), leaf(B, "b"), leaf(C, "c")]),
            vec![],
            WindowSpec::Count(12),
        );
        let s = stream(&[A, B, A, C, B, A, C, B, C, A, B, C]);
        let exact: Vec<Vec<EventId>> = {
            let mut keys: Vec<_> = run(&p, &s).iter().map(|m| m.event_ids.clone()).collect();
            keys.sort();
            keys
        };
        let mut budgeted = NfaEngine::with_config(
            &p,
            NfaConfig {
                max_partials: Some(3),
                ..NfaConfig::default()
            },
        )
        .unwrap();
        let got = budgeted.run(s.events());
        assert!(
            budgeted.stats().partials_shed > 0,
            "budget should have bound"
        );
        for m in &got {
            assert!(
                exact.contains(&m.event_ids),
                "shedding must never invent matches"
            );
        }
    }

    #[test]
    fn partial_matches_pruned_outside_window() {
        let p = Pattern::new(
            PatternExpr::Seq(vec![leaf(A, "a"), leaf(B, "b")]),
            vec![],
            WindowSpec::Count(2),
        );
        let mut e = NfaEngine::new(&p).unwrap();
        let s = stream(&[A, C, C, C, C, C]);
        e.run(s.events());
        assert_eq!(e.stored_partials(), 0, "expired partials must be dropped");
    }

    #[test]
    fn overlapping_matches_all_emitted() {
        // Fig. 2 scenario flavor: every (A,B,C) in-order triple within W.
        let p = Pattern::new(
            PatternExpr::Seq(vec![leaf(A, "a"), leaf(B, "b"), leaf(C, "c")]),
            vec![],
            WindowSpec::Count(6),
        );
        let got = run(&p, &stream(&[A, B, C, A, B, C]));
        // triples: (0,1,2),(0,1,5),(0,4,5),(3,4,5) -- all spans <= 5
        assert_eq!(got.len(), 4);
    }

    #[test]
    fn filtered_stream_ids_respect_original_window() {
        // §4.4: on a filtered stream (gappy ids), the ID-distance constraint
        // must reject pairs that were farther than W-1 apart originally.
        let p = Pattern::new(
            PatternExpr::Seq(vec![leaf(A, "a"), leaf(B, "b")]),
            vec![],
            WindowSpec::Count(3),
        );
        let ev = vec![
            dlacep_events::PrimitiveEvent::new(0, A, 0, vec![0.0]),
            dlacep_events::PrimitiveEvent::new(7, B, 7, vec![0.0]), // originally far away
        ];
        let mut e = NfaEngine::new(&p).unwrap();
        assert!(e.run(&ev).is_empty());
        let ev2 = vec![
            dlacep_events::PrimitiveEvent::new(10, A, 10, vec![0.0]),
            dlacep_events::PrimitiveEvent::new(12, B, 12, vec![0.0]),
        ];
        let mut e2 = NfaEngine::new(&p).unwrap();
        assert_eq!(e2.run(&ev2).len(), 1);
    }

    #[test]
    fn typeset_with_multiple_types_matches_any() {
        let p = Pattern::new(
            PatternExpr::Seq(vec![
                PatternExpr::event(TypeSet::new(vec![A, B]), "x"),
                leaf(C, "c"),
            ]),
            vec![],
            WindowSpec::Count(10),
        );
        assert_eq!(run(&p, &stream(&[A, B, C])).len(), 2);
    }
}
