//! Lazy evaluation (Kolchinsky, Sharfman & Schuster, DEBS'15) — the second
//! ECEP optimization baseline of the paper's Fig. 12.
//!
//! Instead of binding pattern steps in arrival order, events are buffered and
//! partial matches are assembled in *ascending frequency order*: the rarest
//! event type is bound first, so partial matches only come into existence
//! when a rare event shows up. Temporal order is re-verified against event
//! ids at each binding. This typically stores far fewer partial matches than
//! the eager NFA on skewed streams, at identical output.
//!
//! Supported patterns: SEQ/CONJ/DISJ over single events with conditions (the
//! fragment the paper benchmarks lazy evaluation on).

use crate::engine::{CepEngine, EngineStats, EventArena, Match};
use crate::pattern::ast::Pattern;
use crate::plan::{Branch, Plan, StepKind};
use crate::tree::{check_bound, step_conds, StepCond, TreeError};
use dlacep_events::{EventId, PrimitiveEvent, WindowSpec};

/// One lazily assembled partial match.
#[derive(Debug, Clone)]
struct LazyPm {
    ids: Vec<Option<EventId>>,
    bound: u64,
    /// Position in the evaluation order of the next step to bind.
    next: usize,
    min_id: u64,
    max_id: u64,
    min_ts: u64,
    max_ts: u64,
}

struct LazyBranch {
    branch: Branch,
    conds: Vec<StepCond>,
    /// Step indices in evaluation (frequency-ascending) order.
    order: Vec<usize>,
    /// Per step: buffered candidate event ids within the window horizon.
    buffers: Vec<Vec<EventId>>,
    partials: Vec<LazyPm>,
    binding_of: Vec<String>,
}

/// Frequency-ordered lazy evaluation engine.
pub struct LazyEngine {
    window: WindowSpec,
    branches: Vec<LazyBranch>,
    arena: EventArena,
    out: Vec<Match>,
    stats: EngineStats,
}

impl LazyEngine {
    /// Instantiate, ordering steps by the given per-step arrival rates
    /// (ascending). With `None`, pattern order is kept — equivalent to eager
    /// evaluation order, useful as a control.
    pub fn new(pattern: &Pattern, rates: Option<&[f64]>) -> Result<Self, TreeError> {
        let plan = Plan::compile(pattern)?;
        let branches = plan
            .branches
            .into_iter()
            .map(|b| {
                if !b.negs.is_empty()
                    || b.steps
                        .iter()
                        .any(|s| matches!(s.kind, StepKind::Kleene { .. }))
                {
                    return Err(TreeError::UnsupportedOperator);
                }
                let n = b.steps.len();
                let mut order: Vec<usize> = (0..n).collect();
                if let Some(r) = rates {
                    if r.len() == n {
                        order.sort_by(|&x, &y| {
                            r[x].partial_cmp(&r[y]).unwrap_or(std::cmp::Ordering::Equal)
                        });
                    }
                }
                Ok(LazyBranch {
                    conds: step_conds(&b),
                    buffers: vec![Vec::new(); n],
                    partials: Vec::new(),
                    order,
                    binding_of: b.emission_bindings(),
                    branch: b,
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            window: plan.window,
            branches,
            arena: EventArena::new(),
            out: Vec::new(),
            stats: EngineStats::default(),
        })
    }

    /// Instantiate with rates measured from a stream sample.
    pub fn with_sample(pattern: &Pattern, sample: &[PrimitiveEvent]) -> Result<Self, TreeError> {
        let plan = Plan::compile(pattern)?;
        // Use the first branch to measure rates (branches share structure in
        // the paper's patterns; per-branch orders would also be valid).
        let model = crate::tree::estimate_cost_model(&plan.branches[0], sample);
        Self::new(pattern, Some(&model.rates))
    }

    /// Stored partial matches (for the memory comparison in Fig. 12's
    /// analysis).
    pub fn stored_partials(&self) -> usize {
        self.branches.iter().map(|b| b.partials.len()).sum()
    }

    /// Attempt to bind event `id` to step `s` of `pm`; checks order against
    /// already-bound neighbors, window, distinctness and eager conditions.
    #[allow(clippy::too_many_arguments)]
    fn try_bind(
        stats: &mut EngineStats,
        arena: &EventArena,
        lb: &LazyBranch,
        window: WindowSpec,
        pm: &LazyPm,
        s: usize,
        ev: &PrimitiveEvent,
    ) -> Option<LazyPm> {
        // Distinctness.
        if pm.ids.iter().flatten().any(|&b| b == ev.id) {
            return None;
        }
        // Temporal order vs bound neighbors (original pattern order).
        let preds_s = lb.branch.steps[s].preds;
        for (p, id_p) in pm.ids.iter().enumerate() {
            let Some(id_p) = id_p else { continue };
            if preds_s & (1 << p) != 0 && *id_p >= ev.id {
                return None;
            }
            if lb.branch.steps[p].preds & (1 << s) != 0 && ev.id >= *id_p {
                return None;
            }
        }
        // Window.
        let min_id = pm.min_id.min(ev.id.0);
        let max_id = pm.max_id.max(ev.id.0);
        let min_ts = pm.min_ts.min(ev.ts.0);
        let max_ts = pm.max_ts.max(ev.ts.0);
        match window {
            WindowSpec::Count(w) => {
                if pm.bound != 0 && max_id - min_id > w.saturating_sub(1) {
                    return None;
                }
            }
            WindowSpec::Time(w) => {
                if pm.bound != 0 && max_ts - min_ts > w {
                    return None;
                }
            }
        }
        let mut next_pm = pm.clone();
        next_pm.ids[s] = Some(ev.id);
        next_pm.bound |= 1 << s;
        next_pm.next += 1;
        next_pm.min_id = min_id;
        next_pm.max_id = max_id;
        next_pm.min_ts = min_ts;
        next_pm.max_ts = max_ts;
        // Eager conditions that became decidable.
        for (m, cond) in &lb.conds {
            if m & (1 << s) == 0 || m & next_pm.bound != *m {
                continue;
            }
            stats.condition_evaluations += 1;
            if check_bound(cond, &next_pm.ids, arena) == Some(false) {
                return None;
            }
        }
        Some(next_pm)
    }
}

impl CepEngine for LazyEngine {
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
        for lb in &mut self.branches {
            // Prune buffers and partials by window.
            match window {
                WindowSpec::Count(w) => {
                    let horizon = (ev.id.0 + 1).saturating_sub(w);
                    for buf in &mut lb.buffers {
                        buf.retain(|id| id.0 >= horizon);
                    }
                    lb.partials.retain(|pm| ev.id.0 - pm.min_id < w);
                }
                WindowSpec::Time(w) => {
                    let horizon = ev.ts.0.saturating_sub(w);
                    for buf in &mut lb.buffers {
                        buf.retain(|id| arena.get(*id).is_some_and(|e| e.ts.0 >= horizon));
                    }
                    lb.partials.retain(|pm| ev.ts.0 - pm.min_ts <= w);
                }
            }
            let n = lb.branch.steps.len();
            // Buffer the event at every step it can serve, gated by that
            // step's single-step conditions.
            for s in 0..n {
                let StepKind::Single { types, .. } = &lb.branch.steps[s].kind else {
                    unreachable!()
                };
                if !types.contains(ev.type_id) {
                    continue;
                }
                let ok = lb.conds.iter().all(|(mask, cond)| {
                    if *mask != 1 << s {
                        return true;
                    }
                    stats.condition_evaluations += 1;
                    let own = |&(step, a): &(usize, usize)| {
                        if step == s {
                            arena.get(ev.id)?.attr(a)
                        } else {
                            None
                        }
                    };
                    cond.eval(&own) == Some(true)
                });
                if ok {
                    lb.buffers[s].push(ev.id);
                }
            }
            // Seed/extend with the newly arrived event.
            let mut worklist: Vec<LazyPm> = Vec::new();
            {
                let first = lb.order[0];
                let StepKind::Single { types, .. } = &lb.branch.steps[first].kind else {
                    unreachable!()
                };
                if types.contains(ev.type_id) && lb.buffers[first].contains(&ev.id) {
                    let blank = LazyPm {
                        ids: vec![None; n],
                        bound: 0,
                        next: 0,
                        min_id: u64::MAX,
                        max_id: 0,
                        min_ts: u64::MAX,
                        max_ts: 0,
                    };
                    if let Some(pm) = Self::try_bind(stats, arena, lb, window, &blank, first, ev) {
                        worklist.push(pm);
                    }
                }
            }
            for pm in &lb.partials {
                let s = lb.order[pm.next];
                let StepKind::Single { types, .. } = &lb.branch.steps[s].kind else {
                    unreachable!()
                };
                if !types.contains(ev.type_id) || !lb.buffers[s].contains(&ev.id) {
                    continue;
                }
                if let Some(np) = Self::try_bind(stats, arena, lb, window, pm, s, ev) {
                    worklist.push(np);
                }
            }
            // Cascade: a new partial immediately consumes already-buffered
            // candidates for its next step, then waits for future arrivals.
            let mut stored: Vec<LazyPm> = Vec::new();
            while let Some(pm) = worklist.pop() {
                stats.partial_matches_created += 1;
                if pm.next == n {
                    let bindings: Vec<(String, Vec<EventId>)> = lb
                        .binding_of
                        .iter()
                        .enumerate()
                        .map(|(s, name)| (name.clone(), vec![pm.ids[s].expect("complete")]))
                        .collect();
                    out.push(Match::from_bindings(bindings));
                    stats.matches_emitted += 1;
                    continue;
                }
                let s = lb.order[pm.next];
                // Extend from the buffer, excluding the event that just
                // arrived (it was handled by the direct-extension path when
                // applicable, and binding it here would double-count).
                for &cand in &lb.buffers[s] {
                    if cand == ev.id {
                        continue;
                    }
                    let Some(cev) = arena.get(cand) else { continue };
                    let cev = cev.clone();
                    if let Some(np) = Self::try_bind(stats, arena, lb, window, &pm, s, &cev) {
                        worklist.push(np);
                    }
                }
                stored.push(pm);
            }
            lb.partials.append(&mut stored);
            let total: u64 = lb.partials.len() as u64;
            stats.peak_partial_matches = stats.peak_partial_matches.max(total);
        }
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
    use crate::nfa::NfaEngine;
    use crate::pattern::ast::{PatternExpr, TypeSet};
    use crate::pattern::condition::{Expr, Predicate};
    use dlacep_events::{EventStream, TypeId};

    const A: TypeId = TypeId(0);
    const B: TypeId = TypeId(1);
    const C: TypeId = TypeId(2);

    fn leaf(t: TypeId, b: &str) -> PatternExpr {
        PatternExpr::event(TypeSet::single(t), b)
    }

    fn stream(types: &[TypeId]) -> EventStream {
        let mut s = EventStream::new();
        for (i, &t) in types.iter().enumerate() {
            s.push(t, i as u64, vec![(i % 7) as f64]);
        }
        s
    }

    fn match_keys(ms: &[Match]) -> Vec<Vec<EventId>> {
        let mut keys: Vec<Vec<EventId>> = ms.iter().map(|m| m.event_ids.clone()).collect();
        keys.sort();
        keys
    }

    #[test]
    fn agrees_with_nfa_in_pattern_order() {
        let p = Pattern::new(
            PatternExpr::Seq(vec![leaf(A, "a"), leaf(B, "b"), leaf(C, "c")]),
            vec![],
            WindowSpec::Count(8),
        );
        let s = stream(&[A, B, A, C, B, C, A, B, C]);
        let mut lazy = LazyEngine::new(&p, None).unwrap();
        let mut nfa = NfaEngine::new(&p).unwrap();
        let lk = match_keys(&lazy.run(s.events()));
        assert!(!lk.is_empty());
        assert_eq!(lk, match_keys(&nfa.run(s.events())));
    }

    #[test]
    fn agrees_with_nfa_in_frequency_order() {
        // C is rarest: bind it first.
        let p = Pattern::new(
            PatternExpr::Seq(vec![leaf(A, "a"), leaf(B, "b"), leaf(C, "c")]),
            vec![],
            WindowSpec::Count(12),
        );
        let s = stream(&[A, A, B, A, B, A, B, A, B, C]);
        let mut lazy = LazyEngine::new(&p, Some(&[0.5, 0.4, 0.1])).unwrap();
        let mut nfa = NfaEngine::new(&p).unwrap();
        assert_eq!(
            match_keys(&lazy.run(s.events())),
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
        let s = stream(&[A, B, A, B, A, B, A, B]);
        let mut lazy = LazyEngine::new(&p, Some(&[0.9, 0.1])).unwrap();
        let mut nfa = NfaEngine::new(&p).unwrap();
        assert_eq!(
            match_keys(&lazy.run(s.events())),
            match_keys(&nfa.run(s.events()))
        );
    }

    #[test]
    fn agrees_with_nfa_on_conj() {
        let p = Pattern::new(
            PatternExpr::Conj(vec![leaf(A, "a"), leaf(B, "b"), leaf(C, "c")]),
            vec![],
            WindowSpec::Count(6),
        );
        let s = stream(&[C, A, B, B, A, C]);
        let mut lazy = LazyEngine::new(&p, Some(&[0.3, 0.3, 0.4])).unwrap();
        let mut nfa = NfaEngine::new(&p).unwrap();
        assert_eq!(
            match_keys(&lazy.run(s.events())),
            match_keys(&nfa.run(s.events()))
        );
    }

    #[test]
    fn rare_first_order_stores_fewer_partials() {
        // Stream with many A, few C: eager (A first) hoards A-prefixes; lazy
        // (C first) stores almost nothing until a C arrives.
        let p = Pattern::new(
            PatternExpr::Seq(vec![leaf(A, "a"), leaf(B, "b"), leaf(C, "c")]),
            vec![],
            WindowSpec::Count(30),
        );
        let mut types = vec![A; 20];
        types.extend(vec![B; 8]);
        types.push(C);
        let s = stream(&types);
        let mut eager_order = LazyEngine::new(&p, None).unwrap();
        let mut rare_first = LazyEngine::new(&p, Some(&[0.7, 0.25, 0.05])).unwrap();
        let m1 = match_keys(&eager_order.run(s.events()));
        let m2 = match_keys(&rare_first.run(s.events()));
        assert_eq!(m1, m2);
        assert!(
            rare_first.stats().peak_partial_matches < eager_order.stats().peak_partial_matches,
            "rare-first {} vs eager {}",
            rare_first.stats().peak_partial_matches,
            eager_order.stats().peak_partial_matches
        );
    }

    #[test]
    fn with_sample_measures_order() {
        let p = Pattern::new(
            PatternExpr::Seq(vec![leaf(A, "a"), leaf(B, "b"), leaf(C, "c")]),
            vec![],
            WindowSpec::Count(30),
        );
        let mut types = vec![A; 20];
        types.extend(vec![B; 8]);
        types.push(C);
        let s = stream(&types);
        let mut lazy = LazyEngine::with_sample(&p, s.events()).unwrap();
        let mut nfa = NfaEngine::new(&p).unwrap();
        assert_eq!(
            match_keys(&lazy.run(s.events())),
            match_keys(&nfa.run(s.events()))
        );
    }

    #[test]
    fn rejects_kleene() {
        let p = Pattern::new(
            PatternExpr::Seq(vec![
                leaf(A, "a"),
                PatternExpr::Kleene(Box::new(leaf(B, "k"))),
            ]),
            vec![],
            WindowSpec::Count(5),
        );
        assert!(LazyEngine::new(&p, None).is_err());
    }

    #[test]
    fn window_prunes_lazy_state() {
        let p = Pattern::new(
            PatternExpr::Seq(vec![leaf(A, "a"), leaf(B, "b")]),
            vec![],
            WindowSpec::Count(2),
        );
        let s = stream(&[A, C, C, C, B]);
        let mut lazy = LazyEngine::new(&p, None).unwrap();
        assert!(lazy.run(s.events()).is_empty());
        assert_eq!(lazy.stored_partials(), 0);
    }
}
