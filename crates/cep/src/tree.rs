//! ZStream-style tree evaluation (Mei & Madden, SIGMOD'09) — the first ECEP
//! optimization baseline of the paper's Fig. 12.
//!
//! Each DISJ branch is evaluated by a binary *match tree* over its steps:
//! leaves buffer primitive events by type, internal nodes buffer the
//! sub-matches produced by joining their children. A dynamic-programming
//! optimizer picks the tree shape minimizing expected intermediate
//! cardinality under a CPU cost model driven by per-step arrival rates and
//! pairwise predicate selectivities (§6 "CEP systems and optimizations").
//!
//! Supported patterns: SEQ/CONJ/DISJ over single events with conditions —
//! exactly the fragment the paper benchmarks ZStream on (Q_A11, Q_A12).

use crate::engine::{CepEngine, EngineStats, EventArena, Match};
use crate::pattern::ast::Pattern;
use crate::pattern::condition::CompiledPred;
use crate::plan::{Branch, CompileError, CostModel, Plan, Shape, Slot, StepKind};
use crate::state::{EntrySnapshot, StateError, TreeEngineState};
use dlacep_events::{EventId, PrimitiveEvent, WindowSpec};

/// Errors raised when instantiating the tree engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TreeError {
    /// Pattern failed to compile.
    Compile(CompileError),
    /// The pattern uses KC or NEG, which the tree baseline does not support.
    UnsupportedOperator,
}

impl std::fmt::Display for TreeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TreeError::Compile(e) => write!(f, "compile error: {e}"),
            TreeError::UnsupportedOperator => {
                write!(
                    f,
                    "tree engine supports only SEQ/CONJ/DISJ of single events"
                )
            }
        }
    }
}

impl std::error::Error for TreeError {}

impl From<CompileError> for TreeError {
    fn from(e: CompileError) -> Self {
        TreeError::Compile(e)
    }
}

/// A buffered sub-match at a tree node.
#[derive(Debug, Clone)]
struct Entry {
    /// Bound event id per step index (`None` outside this node's range).
    ids: Vec<Option<EventId>>,
    mask: u64,
    min_id: u64,
    max_id: u64,
    min_ts: u64,
    max_ts: u64,
}

#[derive(Debug)]
struct TreeNode {
    parent: Option<usize>,
    children: Option<(usize, usize)>,
    buffer: Vec<Entry>,
}

/// An eager condition over `(step, attribute)` leaves with the steps it
/// needs bound — the form the tree engine evaluates.
type StepCond = (u64, CompiledPred<(usize, usize)>);

/// Lower a branch's eager conditions, once, when an engine is built.
fn step_conds(branch: &Branch) -> Vec<StepCond> {
    let slots = branch.slots();
    let mut leaf = |name: &str, attr: usize| match slots.get(name)? {
        Slot::Step(s) => Some((*s, attr)),
        _ => None,
    };
    (branch.global_conds.iter())
        .map(|g| (g.step_mask, g.pred.lower(&mut leaf)))
        .collect()
}

/// Evaluate a lowered condition with step `s` bound to event `ids[s]`.
fn check_bound(
    cond: &CompiledPred<(usize, usize)>,
    ids: &[Option<EventId>],
    arena: &EventArena,
) -> Option<bool> {
    cond.eval(&|&(step, attr)| arena.get(ids[step]?)?.attr(attr))
}

struct BranchTree {
    branch: Branch,
    conds: Vec<StepCond>,
    nodes: Vec<TreeNode>,
    root: usize,
    /// step → leaf node index
    leaf_of: Vec<usize>,
    binding_of: Vec<String>,
}

impl BranchTree {
    fn new(branch: Branch, model: &CostModel, w: f64) -> Result<Self, TreeError> {
        if !branch.negs.is_empty()
            || branch
                .steps
                .iter()
                .any(|s| matches!(s.kind, StepKind::Kleene { .. }))
        {
            return Err(TreeError::UnsupportedOperator);
        }
        let n = branch.steps.len();
        let shape = model.tree_shape(n, w);
        let mut nodes: Vec<TreeNode> = Vec::new();
        let mut leaf_of = vec![usize::MAX; n];
        fn add(nodes: &mut Vec<TreeNode>, leaf_of: &mut [usize], shape: &Shape) -> usize {
            match shape {
                Shape::Leaf(s) => {
                    nodes.push(TreeNode {
                        parent: None,
                        children: None,
                        buffer: Vec::new(),
                    });
                    leaf_of[*s] = nodes.len() - 1;
                    nodes.len() - 1
                }
                Shape::Node(l, r) => {
                    let li = add(nodes, leaf_of, l);
                    let ri = add(nodes, leaf_of, r);
                    nodes.push(TreeNode {
                        parent: None,
                        children: Some((li, ri)),
                        buffer: Vec::new(),
                    });
                    let me = nodes.len() - 1;
                    nodes[li].parent = Some(me);
                    nodes[ri].parent = Some(me);
                    me
                }
            }
        }
        let root = add(&mut nodes, &mut leaf_of, &shape);
        Ok(Self {
            conds: step_conds(&branch),
            binding_of: branch.emission_bindings(),
            branch,
            nodes,
            root,
            leaf_of,
        })
    }
}

/// ZStream-style tree evaluation engine.
pub struct TreeEngine {
    window: WindowSpec,
    trees: Vec<BranchTree>,
    arena: EventArena,
    out: Vec<Match>,
    stats: EngineStats,
    max_partials: Option<usize>,
}

impl TreeEngine {
    /// Instantiate with a uniform cost model (balanced trees).
    pub fn new(pattern: &Pattern) -> Result<Self, TreeError> {
        Self::with_cost_model(pattern, None)
    }

    /// Budget on buffered sub-matches across all tree nodes (`None` =
    /// unbounded). Exceeding entries are shed oldest-first (smallest
    /// `min_id`) and counted in [`EngineStats::partials_shed`]; shedding can
    /// lose matches but never invents them.
    pub fn set_partial_budget(&mut self, budget: Option<usize>) {
        self.max_partials = budget;
    }

    /// Currently buffered sub-matches across all nodes of all trees.
    pub fn stored_partials(&self) -> usize {
        self.trees
            .iter()
            .map(|t| t.nodes.iter().map(|nd| nd.buffer.len()).sum::<usize>())
            .sum()
    }

    /// Capture the full mutable state for checkpointing (see [`crate::state`]).
    pub fn export_state(&self) -> TreeEngineState {
        TreeEngineState {
            arena: self.arena.snapshot(),
            pending: self.out.clone(),
            stats: self.stats,
            trees: self
                .trees
                .iter()
                .map(|t| {
                    t.nodes
                        .iter()
                        .map(|nd| {
                            nd.buffer
                                .iter()
                                .map(|en| EntrySnapshot {
                                    ids: en.ids.clone(),
                                    mask: en.mask,
                                    min_id: en.min_id,
                                    max_id: en.max_id,
                                    min_ts: en.min_ts,
                                    max_ts: en.max_ts,
                                })
                                .collect()
                        })
                        .collect()
                })
                .collect(),
        }
    }

    /// Replace the engine's mutable state with a previously exported snapshot.
    ///
    /// Node buffers are keyed by the tree's node numbering, which is fixed by
    /// the pattern *and* the cost model used at construction — the engine must
    /// be built identically to the exporter. Tree, node and step counts are
    /// validated and a mismatch leaves the engine untouched.
    pub fn import_state(&mut self, state: TreeEngineState) -> Result<(), StateError> {
        if state.trees.len() != self.trees.len() {
            return Err(StateError(format!(
                "snapshot has {} trees, engine has {}",
                state.trees.len(),
                self.trees.len()
            )));
        }
        for (ti, (tree, nodes)) in self.trees.iter().zip(&state.trees).enumerate() {
            if nodes.len() != tree.nodes.len() {
                return Err(StateError(format!(
                    "tree {ti}: snapshot has {} nodes, tree has {}",
                    nodes.len(),
                    tree.nodes.len()
                )));
            }
            let num_steps = tree.branch.steps.len();
            for buffer in nodes {
                for en in buffer {
                    if en.ids.len() != num_steps {
                        return Err(StateError(format!(
                            "tree {ti}: entry binds {} steps, branch has {num_steps}",
                            en.ids.len()
                        )));
                    }
                }
            }
        }
        self.arena = EventArena::restore(state.arena);
        self.out = state.pending;
        self.stats = state.stats;
        for (tree, nodes) in self.trees.iter_mut().zip(state.trees) {
            for (node, buffer) in tree.nodes.iter_mut().zip(nodes) {
                node.buffer = buffer
                    .into_iter()
                    .map(|en| Entry {
                        ids: en.ids,
                        mask: en.mask,
                        min_id: en.min_id,
                        max_id: en.max_id,
                        min_ts: en.min_ts,
                        max_ts: en.max_ts,
                    })
                    .collect();
            }
        }
        Ok(())
    }

    /// Enforce the budget by dropping the oldest buffered entries.
    fn shed_to_budget(trees: &mut [BranchTree], stats: &mut EngineStats, budget: usize) {
        let stored: usize = trees
            .iter()
            .map(|t| t.nodes.iter().map(|nd| nd.buffer.len()).sum::<usize>())
            .sum();
        if stored <= budget {
            return;
        }
        let excess = stored - budget;
        let mut ages: Vec<(u64, usize, usize)> = Vec::with_capacity(stored);
        for (ti, t) in trees.iter().enumerate() {
            for (ni, nd) in t.nodes.iter().enumerate() {
                for e in &nd.buffer {
                    ages.push((e.min_id, ti, ni));
                }
            }
        }
        ages.sort_unstable();
        let mut shed_per_node: std::collections::HashMap<(usize, usize), usize> =
            std::collections::HashMap::new();
        for &(_, ti, ni) in ages.iter().take(excess) {
            *shed_per_node.entry((ti, ni)).or_insert(0) += 1;
        }
        for ((ti, ni), k) in shed_per_node {
            let buffer = &mut trees[ti].nodes[ni].buffer;
            buffer.sort_by_key(|e| e.min_id);
            buffer.drain(..k);
        }
        stats.partials_shed += excess as u64;
    }

    /// Instantiate with a cost model (`None` = uniform). The model applies to
    /// every branch (the paper's DISJ branches are structurally identical).
    pub fn with_cost_model(pattern: &Pattern, model: Option<CostModel>) -> Result<Self, TreeError> {
        let plan = Plan::compile(pattern)?;
        let w = plan.window.size() as f64;
        let trees = plan
            .branches
            .into_iter()
            .map(|b| {
                let n = b.steps.len();
                let m = match &model {
                    Some(m) if m.rates.len() == n => m.clone(),
                    _ => CostModel::uniform(n),
                };
                BranchTree::new(b, &m, w)
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            window: plan.window,
            trees,
            arena: EventArena::new(),
            out: Vec::new(),
            stats: EngineStats::default(),
            max_partials: None,
        })
    }

    /// Join two entries if distinctness, order, window and conditions hold.
    fn join(
        stats: &mut EngineStats,
        arena: &EventArena,
        tree: &BranchTree,
        window: WindowSpec,
        x: &Entry,
        y: &Entry,
    ) -> Option<Entry> {
        if x.mask & y.mask != 0 {
            return None;
        }
        let combined_mask = x.mask | y.mask;
        let mut ids = x.ids.clone();
        for (i, id) in y.ids.iter().enumerate() {
            if let Some(id) = id {
                ids[i] = Some(*id);
            }
        }
        // Distinct events (CONJ branches may share admissible types).
        {
            let mut seen: Vec<EventId> = ids.iter().flatten().copied().collect();
            let before = seen.len();
            seen.sort_unstable();
            seen.dedup();
            if seen.len() != before {
                return None;
            }
        }
        // Order: each bound step's predecessors (if bound) must precede it.
        for (t, id_t) in ids.iter().enumerate() {
            let Some(id_t) = id_t else { continue };
            let preds = tree.branch.steps[t].preds;
            if preds == 0 {
                continue;
            }
            for (p, id_p) in ids.iter().enumerate() {
                if preds & (1 << p) == 0 {
                    continue;
                }
                if let Some(id_p) = id_p {
                    if id_p >= id_t {
                        return None;
                    }
                }
            }
        }
        let min_id = x.min_id.min(y.min_id);
        let max_id = x.max_id.max(y.max_id);
        let min_ts = x.min_ts.min(y.min_ts);
        let max_ts = x.max_ts.max(y.max_ts);
        match window {
            WindowSpec::Count(w) => {
                if max_id - min_id > w.saturating_sub(1) {
                    return None;
                }
            }
            WindowSpec::Time(w) => {
                if max_ts - min_ts > w {
                    return None;
                }
            }
        }
        // Conditions newly decidable at this node.
        for (m, cond) in &tree.conds {
            if m & combined_mask != *m {
                continue;
            }
            if *m != 0 && (m & x.mask == *m || m & y.mask == *m) {
                continue; // already validated below this node
            }
            stats.condition_evaluations += 1;
            if check_bound(cond, &ids, arena) != Some(true) {
                return None;
            }
        }
        Some(Entry {
            ids,
            mask: combined_mask,
            min_id,
            max_id,
            min_ts,
            max_ts,
        })
    }
}

impl CepEngine for TreeEngine {
    fn process(&mut self, ev: &PrimitiveEvent) {
        self.stats.events_processed += 1;
        self.arena.push(ev);
        match self.window {
            WindowSpec::Count(w) => self
                .arena
                .evict_below(EventId((ev.id.0 + 1).saturating_sub(w))),
            WindowSpec::Time(w) => self.arena.evict_before_ts(ev.ts.0.saturating_sub(w)),
        }
        let window = self.window;
        let stats = &mut self.stats;
        let out = &mut self.out;
        let arena = &self.arena;
        for tree in &mut self.trees {
            for node in &mut tree.nodes {
                node.buffer.retain(|e| match window {
                    WindowSpec::Count(w) => ev.id.0 - e.min_id < w,
                    WindowSpec::Time(w) => ev.ts.0 - e.min_ts <= w,
                });
            }
            let n = tree.branch.steps.len();
            let mut queue: Vec<(usize, Entry)> = Vec::new();
            for (s, step) in tree.branch.steps.iter().enumerate() {
                let StepKind::Single { types, .. } = &step.kind else {
                    unreachable!()
                };
                if !types.contains(ev.type_id) {
                    continue;
                }
                let mut ids = vec![None; n];
                ids[s] = Some(ev.id);
                let entry = Entry {
                    ids,
                    mask: 1 << s,
                    min_id: ev.id.0,
                    max_id: ev.id.0,
                    min_ts: ev.ts.0,
                    max_ts: ev.ts.0,
                };
                // Single-step conditions gate leaf insertion.
                let ok = tree.conds.iter().all(|(mask, cond)| {
                    if *mask != 1 << s {
                        return true;
                    }
                    stats.condition_evaluations += 1;
                    check_bound(cond, &entry.ids, arena) == Some(true)
                });
                if !ok {
                    continue;
                }
                queue.push((tree.leaf_of[s], entry));
            }
            while let Some((node_idx, entry)) = queue.pop() {
                stats.partial_matches_created += 1;
                if node_idx == tree.root {
                    let bindings: Vec<(String, Vec<EventId>)> = tree
                        .binding_of
                        .iter()
                        .enumerate()
                        .map(|(s, name)| (name.clone(), vec![entry.ids[s].expect("root entry")]))
                        .collect();
                    out.push(Match::from_bindings(bindings));
                    stats.matches_emitted += 1;
                    continue;
                }
                let parent = tree.nodes[node_idx].parent.expect("non-root has parent");
                let (l, r) = tree.nodes[parent].children.expect("internal node");
                let sibling = if l == node_idx { r } else { l };
                let mut joined: Vec<Entry> = Vec::new();
                for other in &tree.nodes[sibling].buffer {
                    if let Some(j) = Self::join(stats, arena, tree, window, &entry, other) {
                        joined.push(j);
                    }
                }
                tree.nodes[node_idx].buffer.push(entry);
                for j in joined {
                    queue.push((parent, j));
                }
            }
        }
        if let Some(budget) = self.max_partials {
            Self::shed_to_budget(&mut self.trees, stats, budget);
        }
        let stored: u64 = self
            .trees
            .iter()
            .map(|t| t.nodes.iter().map(|nd| nd.buffer.len() as u64).sum::<u64>())
            .sum();
        stats.peak_partial_matches = stats.peak_partial_matches.max(stored);
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
    use crate::engine::CepEngine;
    use crate::nfa::NfaEngine;
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
            s.push(t, i as u64, vec![(i as f64) * 0.5]);
        }
        s
    }

    fn match_keys(ms: &[Match]) -> Vec<Vec<EventId>> {
        let mut keys: Vec<Vec<EventId>> = ms.iter().map(|m| m.event_ids.clone()).collect();
        keys.sort();
        keys
    }

    #[test]
    fn optimizer_prefers_selective_side() {
        // Steps 0,1 join with tiny selectivity: group them first.
        let mut model = CostModel::uniform(3);
        model.sel[0][1] = 0.001;
        model.sel[1][0] = 0.001;
        let shape = model.tree_shape(3, 10.0);
        assert_eq!(
            shape,
            Shape::Node(
                Box::new(Shape::Node(
                    Box::new(Shape::Leaf(0)),
                    Box::new(Shape::Leaf(1))
                )),
                Box::new(Shape::Leaf(2))
            )
        );
    }

    #[test]
    fn agrees_with_nfa_on_seq() {
        let p = Pattern::new(
            PatternExpr::Seq(vec![leaf(A, "a"), leaf(B, "b"), leaf(C, "c")]),
            vec![],
            WindowSpec::Count(8),
        );
        let s = stream(&[A, B, A, C, B, C, A, B, C]);
        let mut tree = TreeEngine::new(&p).unwrap();
        let mut nfa = NfaEngine::new(&p).unwrap();
        let tk = match_keys(&tree.run(s.events()));
        assert!(!tk.is_empty());
        assert_eq!(tk, match_keys(&nfa.run(s.events())));
    }

    #[test]
    fn agrees_with_nfa_on_conj() {
        let p = Pattern::new(
            PatternExpr::Conj(vec![leaf(A, "a"), leaf(B, "b"), leaf(C, "c")]),
            vec![],
            WindowSpec::Count(6),
        );
        let s = stream(&[C, A, B, B, A, C]);
        let mut tree = TreeEngine::new(&p).unwrap();
        let mut nfa = NfaEngine::new(&p).unwrap();
        assert_eq!(
            match_keys(&tree.run(s.events())),
            match_keys(&nfa.run(s.events()))
        );
    }

    #[test]
    fn agrees_with_nfa_with_conditions() {
        let p = Pattern::new(
            PatternExpr::Seq(vec![leaf(A, "a"), leaf(B, "b")]),
            vec![Predicate::gt(Expr::attr("b", 0), Expr::attr("a", 0))],
            WindowSpec::Count(10),
        );
        let s = stream(&[A, B, A, B, A, B]);
        let mut tree = TreeEngine::new(&p).unwrap();
        let mut nfa = NfaEngine::new(&p).unwrap();
        let tk = match_keys(&tree.run(s.events()));
        assert!(!tk.is_empty());
        assert_eq!(tk, match_keys(&nfa.run(s.events())));
    }

    #[test]
    fn agrees_with_nfa_on_disj() {
        let p = Pattern::new(
            PatternExpr::Disj(vec![
                PatternExpr::Seq(vec![leaf(A, "a"), leaf(B, "b")]),
                PatternExpr::Seq(vec![leaf(C, "c"), leaf(D, "d")]),
            ]),
            vec![],
            WindowSpec::Count(6),
        );
        let s = stream(&[A, C, B, D, A, B]);
        let mut tree = TreeEngine::new(&p).unwrap();
        let mut nfa = NfaEngine::new(&p).unwrap();
        assert_eq!(
            match_keys(&tree.run(s.events())),
            match_keys(&nfa.run(s.events()))
        );
    }

    #[test]
    fn rejects_kleene_and_neg() {
        let kc = Pattern::new(
            PatternExpr::Seq(vec![
                leaf(A, "a"),
                PatternExpr::Kleene(Box::new(leaf(B, "k"))),
            ]),
            vec![],
            WindowSpec::Count(5),
        );
        assert!(matches!(
            TreeEngine::new(&kc).err(),
            Some(TreeError::UnsupportedOperator)
        ));
        let ng = Pattern::new(
            PatternExpr::Seq(vec![
                leaf(A, "a"),
                PatternExpr::Neg(Box::new(leaf(B, "n"))),
                leaf(C, "c"),
            ]),
            vec![],
            WindowSpec::Count(5),
        );
        assert!(matches!(
            TreeEngine::new(&ng).err(),
            Some(TreeError::UnsupportedOperator)
        ));
    }

    #[test]
    fn window_prunes_tree_buffers() {
        let p = Pattern::new(
            PatternExpr::Seq(vec![leaf(A, "a"), leaf(B, "b")]),
            vec![],
            WindowSpec::Count(2),
        );
        let s = stream(&[A, C, C, C, B]);
        let mut tree = TreeEngine::new(&p).unwrap();
        assert!(tree.run(s.events()).is_empty());
    }

    #[test]
    fn partial_budget_caps_tree_buffers() {
        let p = Pattern::new(
            PatternExpr::Seq(vec![leaf(A, "a"), leaf(B, "b")]),
            vec![],
            WindowSpec::Count(1000),
        );
        let budget = 5;
        let mut tree = TreeEngine::new(&p).unwrap();
        tree.set_partial_budget(Some(budget));
        let s = stream(&[A; 40]);
        for ev in s.events() {
            tree.process(ev);
            assert!(tree.stored_partials() <= budget, "budget violated");
        }
        assert_eq!(tree.stats().partials_shed, 40 - budget as u64);
    }

    #[test]
    fn budgeted_tree_matches_are_subset_of_exact() {
        let p = Pattern::new(
            PatternExpr::Seq(vec![leaf(A, "a"), leaf(B, "b"), leaf(C, "c")]),
            vec![],
            WindowSpec::Count(12),
        );
        let s = stream(&[A, B, A, C, B, A, C, B, C, A, B, C]);
        let mut exact_engine = TreeEngine::new(&p).unwrap();
        let exact = match_keys(&exact_engine.run(s.events()));
        let mut budgeted = TreeEngine::new(&p).unwrap();
        budgeted.set_partial_budget(Some(3));
        let got = budgeted.run(s.events());
        assert!(budgeted.stats().partials_shed > 0);
        for m in &got {
            assert!(
                exact.contains(&m.event_ids),
                "shedding must never invent matches"
            );
        }
    }

    #[test]
    fn estimate_cost_model_measures_rates() {
        let p = Pattern::new(
            PatternExpr::Seq(vec![leaf(A, "a"), leaf(B, "b")]),
            vec![],
            WindowSpec::Count(4),
        );
        let plan = Plan::compile(&p).unwrap();
        let s = stream(&[A, A, A, B]);
        let m = CostModel::estimate(&plan.branches[0], s.events());
        assert!((m.rates[0] - 0.75).abs() < 1e-9);
        assert!((m.rates[1] - 0.25).abs() < 1e-9);
    }

    #[test]
    fn estimate_cost_model_measures_selectivity() {
        // b.v > a.v over alternating increasing values: some pairs pass.
        let p = Pattern::new(
            PatternExpr::Seq(vec![leaf(A, "a"), leaf(B, "b")]),
            vec![Predicate::gt(Expr::attr("b", 0), Expr::attr("a", 0))],
            WindowSpec::Count(4),
        );
        let plan = Plan::compile(&p).unwrap();
        let mut s = EventStream::new();
        for i in 0..20 {
            s.push(if i % 2 == 0 { A } else { B }, i, vec![i as f64]);
        }
        let m = CostModel::estimate(&plan.branches[0], s.events());
        assert!(
            m.sel[0][1] > 0.3 && m.sel[0][1] < 0.7,
            "sel {}",
            m.sel[0][1]
        );
    }

    #[test]
    fn skewed_cost_model_still_correct() {
        // Whatever tree shape the optimizer picks, results must not change.
        let p = Pattern::new(
            PatternExpr::Seq(vec![leaf(A, "a"), leaf(B, "b"), leaf(C, "c"), leaf(D, "d")]),
            vec![],
            WindowSpec::Count(10),
        );
        let s = stream(&[A, B, C, D, A, B, C, D]);
        let mut model = CostModel::uniform(4);
        model.rates = vec![0.9, 0.01, 0.5, 0.2];
        model.sel[1][2] = 0.01;
        model.sel[2][1] = 0.01;
        let mut t1 = TreeEngine::with_cost_model(&p, Some(model)).unwrap();
        let mut t2 = TreeEngine::new(&p).unwrap();
        assert_eq!(
            match_keys(&t1.run(s.events())),
            match_keys(&t2.run(s.events()))
        );
    }
}
