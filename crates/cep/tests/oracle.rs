//! An independent semantic oracle for the pattern language, and the
//! differential property every way of running a pattern is held to.
//!
//! The oracle reads the raw [`PatternExpr`] — no `Plan`, no `rewrite`, no
//! engine code — and follows the denotational semantics of *Foundations of
//! Complex Event Processing* under skip-till-any-match: an expression
//! denotes the set of its occurrences (which events its leaves bind); SEQ
//! concatenates occurrences in id order, CONJ joins disjoint ones, DISJ
//! unions them, KC iterates its body one or more times in order, NEG
//! forbids an occurrence of its body in the gap it stands in (after the
//! element before it, or from the start of the match's window when nothing
//! precedes it), and the window and the WHERE clause filter whole matches —
//! a condition applies wherever all its names are in scope, per iteration
//! when it names a KC element. Streams are tiny, so enumeration is
//! exhaustive.

use dlacep_cep::pattern::ast::{Pattern, PatternExpr, TypeSet};
use dlacep_cep::pattern::condition::{Expr, Predicate};
use dlacep_cep::plan::{CostModel, Plan};
use dlacep_cep::program::Program;
use dlacep_cep::{CepEngine, Match, NfaConfig, NfaEngine, PatternSet, TreeEngine};
use dlacep_core::stage::MarkStage;
use dlacep_core::{AssemblerConfig, Filter, GuardConfig};
use dlacep_events::{EventId, PrimitiveEvent, TypeId, WindowSpec};
use dlacep_obs::Histogram;
use proptest::prelude::*;
use rand::Rng;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Where a negation's gap starts.
#[derive(Clone, Copy)]
enum GapStart {
    /// Nothing precedes it yet: the enclosing SEQ decides, and at the top
    /// the gap starts at the match's window start.
    Inherited,
    After(u64),
}

#[derive(Clone)]
struct Neg<'p> {
    body: Vec<(&'p TypeSet, &'p str)>,
    start: GapStart,
    before: u64,
}

type Iteration<'p> = Vec<(&'p str, u64)>;

/// One occurrence of an expression.
#[derive(Clone, Default)]
struct Occ<'p> {
    singles: Vec<(&'p str, u64)>,
    /// Per KC: its iterations.
    kleenes: Vec<Vec<Iteration<'p>>>,
    /// Every event bound positively.
    used: Vec<u64>,
    negs: Vec<Neg<'p>>,
    /// Every binding name on the alternative this occurrence took.
    scope: Vec<&'p str>,
}

impl<'p> Occ<'p> {
    fn lo(&self) -> u64 {
        *self.used.iter().min().expect("non-empty")
    }

    fn hi(&self) -> u64 {
        *self.used.iter().max().expect("non-empty")
    }

    fn join(&self, o: &Occ<'p>) -> Occ<'p> {
        let mut m = self.clone();
        m.singles.extend(&o.singles);
        m.kleenes.extend(o.kleenes.iter().cloned());
        m.used.extend(&o.used);
        m.negs.extend(o.negs.iter().cloned());
        m.scope.extend(&o.scope);
        m
    }
}

/// A match as identified here: binding names with their ids, by name.
type Canon = Vec<(String, Vec<EventId>)>;

fn leaves(e: &PatternExpr) -> Vec<(&TypeSet, &str)> {
    match e {
        PatternExpr::Event { types, binding } => vec![(types, binding.as_str())],
        PatternExpr::Seq(xs) => xs.iter().flat_map(leaves).collect(),
        _ => Vec::new(), // does not compile; never evaluated
    }
}

struct Oracle<'a> {
    events: &'a [PrimitiveEvent],
    window: WindowSpec,
}

impl<'a> Oracle<'a> {
    fn ev(&self, id: u64) -> &'a PrimitiveEvent {
        self.events
            .iter()
            .find(|e| e.id.0 == id)
            .expect("bound ids exist")
    }

    fn fits(&self, used: &[u64]) -> bool {
        let (Some(&lo), Some(&hi)) = (used.iter().min(), used.iter().max()) else {
            return true;
        };
        match self.window {
            WindowSpec::Count(w) => hi - lo < w,
            WindowSpec::Time(w) => self.ev(hi).ts.0 - self.ev(lo).ts.0 <= w,
        }
    }

    /// Every in-order tuple of events binding `body`, after id `after`.
    fn tuples<'p>(
        &self,
        body: &[(&'p TypeSet, &'p str)],
        after: Option<u64>,
    ) -> Vec<Iteration<'p>> {
        let Some(((types, name), rest)) = body.split_first() else {
            return vec![Vec::new()];
        };
        let mut out = Vec::new();
        for ev in self
            .events
            .iter()
            .filter(|e| after.is_none_or(|a| e.id.0 > a))
        {
            if types.contains(ev.type_id) {
                for mut tail in self.tuples(rest, Some(ev.id.0)) {
                    tail.insert(0, (*name, ev.id.0));
                    out.push(tail);
                }
            }
        }
        out
    }

    fn occs<'p>(&self, e: &'p PatternExpr) -> Vec<Occ<'p>> {
        match e {
            PatternExpr::Event { .. } | PatternExpr::Kleene(_) => {
                let body = match e {
                    PatternExpr::Kleene(body) => leaves(body),
                    _ => leaves(e),
                };
                let iterations = self.tuples(&body, None);
                let scope: Vec<&str> = body.iter().map(|l| l.1).collect();
                // One iteration for an event; one or more, each after the
                // last, for a KC.
                let mut out = Vec::new();
                let mut frontier: Vec<Vec<Iteration>> = vec![Vec::new()];
                while let Some(its) = frontier.pop() {
                    let last = its.last().map(|it| it[it.len() - 1].1);
                    for it in iterations
                        .iter()
                        .filter(|it| last.is_none_or(|l| it[0].1 > l))
                    {
                        let mut next = its.clone();
                        next.push(it.clone());
                        let used: Vec<u64> = next.iter().flatten().map(|b| b.1).collect();
                        if !self.fits(&used) {
                            continue;
                        }
                        let mut occ = Occ {
                            used,
                            scope: scope.clone(),
                            ..Occ::default()
                        };
                        if let PatternExpr::Kleene(_) = e {
                            occ.kleenes.push(next.clone());
                            frontier.push(next);
                        } else {
                            occ.singles = next.concat();
                        }
                        out.push(occ);
                    }
                }
                out
            }
            PatternExpr::Disj(xs) => xs.iter().flat_map(|x| self.occs(x)).collect(),
            PatternExpr::Conj(xs) => xs.iter().fold(vec![Occ::default()], |acc, x| {
                let xo = self.occs(x);
                (acc.iter())
                    .flat_map(|a| xo.iter().map(move |o| a.join(o)))
                    .filter(|m| {
                        let distinct: BTreeSet<_> = m.used.iter().collect();
                        distinct.len() == m.used.len() && self.fits(&m.used)
                    })
                    .collect()
            }),
            PatternExpr::Seq(xs) => {
                let mut acc = vec![Occ::default()];
                let mut pending = Vec::new();
                for x in xs {
                    if let PatternExpr::Neg(body) = x {
                        pending.push(leaves(body));
                        continue;
                    }
                    let xo = self.occs(x);
                    let mut next = Vec::new();
                    for a in &acc {
                        let start = match a.used.is_empty() {
                            true => GapStart::Inherited,
                            false => GapStart::After(a.hi()),
                        };
                        for o in xo.iter().filter(|o| a.used.is_empty() || a.hi() < o.lo()) {
                            let mut o = o.clone();
                            for n in &mut o.negs {
                                if let GapStart::Inherited = n.start {
                                    n.start = start;
                                }
                            }
                            for body in &pending {
                                o.scope.extend(body.iter().map(|l| l.1));
                                let before = o.lo();
                                o.negs.push(Neg {
                                    body: body.clone(),
                                    start,
                                    before,
                                });
                            }
                            let m = a.join(&o);
                            if self.fits(&m.used) {
                                next.push(m);
                            }
                        }
                    }
                    acc = next;
                    pending.clear();
                }
                acc
            }
            PatternExpr::Neg(_) => Vec::new(), // outside SEQ: does not compile
        }
    }

    fn matches(&self, p: &Pattern) -> BTreeSet<Canon> {
        let occs = self.occs(&p.expr);
        (occs.iter())
            .filter(|o| self.holds(p, o))
            .map(|o| {
                let mut c: Canon = (o.singles.iter())
                    .map(|(n, id)| (n.to_string(), vec![EventId(*id)]))
                    .collect();
                for its in &o.kleenes {
                    for (j, (name, _)) in its[0].iter().enumerate() {
                        c.push((
                            name.to_string(),
                            its.iter().map(|it| EventId(it[j].1)).collect(),
                        ));
                    }
                }
                c.sort();
                c
            })
            .collect()
    }

    /// The WHERE clause and every negation, on a whole occurrence.
    fn holds(&self, p: &Pattern, o: &Occ) -> bool {
        let neg_names: Vec<&str> = o
            .negs
            .iter()
            .flat_map(|n| n.body.iter().map(|l| l.1))
            .collect();
        let eval = |c: &Predicate, extra: &[(&str, u64)]| {
            let lookup = |name: &str, attr: usize| {
                let id = o.singles.iter().chain(extra).find(|b| b.0 == name)?.1;
                self.ev(id).attr(attr)
            };
            c.eval(&lookup)
        };
        for c in &p.conditions {
            let refs = c.referenced_bindings();
            if refs.is_empty() || !refs.iter().all(|r| o.scope.contains(r)) {
                continue;
            }
            if refs.iter().any(|r| neg_names.contains(r)) {
                continue; // qualifies negated occurrences instead
            }
            let kc = (o.kleenes.iter()).find(|its| its[0].iter().any(|b| refs.contains(&b.0)));
            let ok = match kc {
                Some(its) => its.iter().all(|it| eval(c, it) == Some(true)),
                None => eval(c, &[]) == Some(true),
            };
            if !ok {
                return false;
            }
        }
        o.negs.iter().all(|n| !self.neg_occurs(p, o, n))
    }

    fn neg_occurs(&self, p: &Pattern, o: &Occ, n: &Neg) -> bool {
        let last = self.ev(o.hi());
        let gap: Vec<&PrimitiveEvent> = (self.events.iter())
            .filter(|e| e.id.0 < n.before)
            .filter(|e| match (n.start, self.window) {
                (GapStart::After(x), _) => e.id.0 > x,
                (GapStart::Inherited, WindowSpec::Count(w)) => last.id.0 - e.id.0 < w,
                (GapStart::Inherited, WindowSpec::Time(w)) => last.ts.0 - e.ts.0 <= w,
            })
            .collect();
        let names: Vec<&str> = n.body.iter().map(|l| l.1).collect();
        let conds: Vec<&Predicate> = (p.conditions.iter())
            .filter(|c| {
                let refs = c.referenced_bindings();
                refs.iter().all(|r| o.scope.contains(r)) && refs.iter().any(|r| names.contains(r))
            })
            .collect();
        let events: Vec<PrimitiveEvent> = gap.into_iter().cloned().collect();
        let inner = Oracle {
            events: &events,
            window: self.window,
        };
        inner.tuples(&n.body, None).iter().any(|occurrence| {
            let bound: Vec<(&str, u64)> = o.singles.iter().chain(occurrence).copied().collect();
            let lookup = |name: &str, attr: usize| {
                let id = bound.iter().find(|b| b.0 == name)?.1;
                self.ev(id).attr(attr)
            };
            conds.iter().all(|c| c.eval(&lookup) == Some(true))
        })
    }
}

fn canon(ms: &[Match]) -> BTreeSet<Canon> {
    (ms.iter())
        .map(|m| {
            let mut c = m.bindings.clone();
            c.sort();
            c
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Random patterns and streams
// ---------------------------------------------------------------------------

/// A random pattern tree with uniquely named leaves over three types, up to
/// two conditions over its names, and a count or time window.
struct PatternStrategy;

impl Strategy for PatternStrategy {
    type Value = Pattern;

    fn generate(&self, rng: &mut proptest::TestRng) -> Pattern {
        let mut next = 0;
        let expr = gen_expr(rng, 2, &mut next);
        let names: Vec<String> = expr.bindings().iter().map(|s| s.to_string()).collect();
        let mut conditions = Vec::new();
        for _ in 0..rng.rng().gen_range(0..3usize) {
            let a = &names[rng.rng().gen_range(0..names.len())];
            let b = &names[rng.rng().gen_range(0..names.len())];
            conditions.push(link(rng, a, b));
        }
        let r = rng.rng();
        let window = match r.gen_range(0..3u8) {
            0 => WindowSpec::Time(r.gen_range(2..9u64)),
            _ => WindowSpec::Count(r.gen_range(2..9u64)),
        };
        Pattern::new(expr, conditions, window)
    }
}

fn gen_expr(rng: &mut proptest::TestRng, depth: u8, next: &mut usize) -> PatternExpr {
    let leaf = |rng: &mut proptest::TestRng, next: &mut usize| {
        *next += 1;
        let t = TypeId(rng.rng().gen_range(0..3u32));
        PatternExpr::event(TypeSet::single(t), format!("b{next}"))
    };
    if depth == 0 || rng.rng().gen_range(0..4u8) == 0 {
        return leaf(rng, next);
    }
    let kids = |rng: &mut proptest::TestRng, n: usize, next: &mut usize| {
        (0..n)
            .map(|_| gen_expr(rng, depth - 1, next))
            .collect::<Vec<_>>()
    };
    match rng.rng().gen_range(0..6u8) {
        0 | 1 => {
            let n = rng.rng().gen_range(2..4usize);
            let mut xs = kids(rng, n, next);
            if rng.rng().gen_range(0..3u8) == 0 {
                let at = rng.rng().gen_range(0..xs.len());
                xs.insert(at, PatternExpr::Neg(Box::new(leaf(rng, next))));
            }
            PatternExpr::Seq(xs)
        }
        2 => PatternExpr::Conj(kids(rng, 2, next)),
        3 => PatternExpr::Disj(kids(rng, 2, next)),
        _ => {
            let body = match rng.rng().gen_range(0..3u8) {
                0 => PatternExpr::Seq(vec![leaf(rng, next), leaf(rng, next)]),
                _ => leaf(rng, next),
            };
            PatternExpr::Kleene(Box::new(body))
        }
    }
}

/// A condition between two bindings, one of the three shapes
/// [`PatternStrategy`] draws.
fn link(rng: &mut proptest::TestRng, a: &str, b: &str) -> Predicate {
    let (a, b) = (Expr::attr(a, 0), Expr::attr(b, 0));
    match rng.rng().gen_range(0..3u8) {
        0 => Predicate::lt(a, b),
        1 => Predicate::gt(a, b),
        _ => Predicate::lt(a, Expr::Add(Box::new(b), Box::new(Expr::Const(2.0)))),
    }
}

/// The shape the cost model orders although it holds a Kleene step: a SEQ
/// of 2–5 single leaves whose last one conditions link to earlier ones,
/// then 1–2 closures of a 1- or 2-leaf body, some with an iteration
/// condition that reads a single step. Three types, so one event often fits
/// a single step and a closure both; a count or time window.
struct KleeneSuffixStrategy;

impl Strategy for KleeneSuffixStrategy {
    type Value = Pattern;

    fn generate(&self, rng: &mut proptest::TestRng) -> Pattern {
        let mut next = 0;
        let mut leaf = |rng: &mut proptest::TestRng| {
            next += 1;
            let t = TypeId(rng.rng().gen_range(0..3u32));
            PatternExpr::event(TypeSet::single(t), format!("b{next}"))
        };
        let singles = rng.rng().gen_range(2..6usize);
        let mut children: Vec<PatternExpr> = (0..singles).map(|_| leaf(rng)).collect();
        let name = |s: usize| format!("b{}", s + 1);
        let mut conditions = Vec::new();
        for s in 0..singles - 1 {
            if s == 0 || rng.rng().gen_range(0..2u8) == 0 {
                conditions.push(link(rng, &name(s), &name(singles - 1)));
            }
        }
        for _ in 0..rng.rng().gen_range(1..3u8) {
            let body = match rng.rng().gen_range(0..3u8) {
                0 => PatternExpr::Seq(vec![leaf(rng), leaf(rng)]),
                _ => leaf(rng),
            };
            if rng.rng().gen_range(0..2u8) == 0 {
                let elem = body.bindings()[0].to_string();
                let single = name(rng.rng().gen_range(0..singles));
                conditions.push(link(rng, &elem, &single));
            }
            children.push(PatternExpr::Kleene(Box::new(body)));
        }
        let window = match rng.rng().gen_range(0..2u8) {
            0 => WindowSpec::Time(rng.rng().gen_range(2..9u64)),
            _ => WindowSpec::Count(rng.rng().gen_range(3..10u64)),
        };
        Pattern::new(PatternExpr::Seq(children), conditions, window)
    }
}

/// One event per type drawn, with one attribute each, timestamps advancing
/// by the drawn gaps.
fn stream(types: &[u8], vals: &[i8], gaps: &[u8]) -> Vec<PrimitiveEvent> {
    let mut ts = 0;
    (types.iter().zip(vals).zip(gaps).enumerate())
        .map(|(i, ((&t, &v), &gap))| {
            ts += u64::from(gap);
            PrimitiveEvent::new(i as u64, TypeId(u32::from(t)), ts, vec![f64::from(v)])
        })
        .collect()
}

/// Keeps each event of a window with probability ≈ 2/3, keyed by the seed
/// and the event id.
struct RandomFilter(u64);

impl Filter for RandomFilter {
    fn mark(&self, window: &[PrimitiveEvent]) -> Vec<bool> {
        (window.iter())
            .map(|e| (e.id.0 ^ self.0).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 61 < 5)
            .collect()
    }

    fn name(&self) -> &'static str {
        "random"
    }
}

/// The events `MarkStage` relays from `events` under `filter`.
fn relayed(events: &[PrimitiveEvent], filter: RandomFilter, w: u64) -> Vec<PrimitiveEvent> {
    let assembler = AssemblerConfig::paper_default(w);
    let mut stage = MarkStage::new(
        filter,
        GuardConfig::default(),
        assembler,
        None,
        Histogram::disabled(),
    );
    stage.admit(events.len());
    stage.settle(events, true, &mut ());
    (events.iter().zip(stage.drain_finalized()))
        .filter(|(_, keep)| *keep)
        .map(|(e, _)| e.clone())
        .collect()
}

/// What `engine` emits, event by event.
fn per_event(mut engine: NfaEngine, events: &[PrimitiveEvent]) -> Vec<Vec<Match>> {
    (events.iter())
        .map(|ev| {
            engine.process(ev);
            engine.drain_matches()
        })
        .collect()
}

fn has_neg(e: &PatternExpr) -> bool {
    match e {
        PatternExpr::Neg(_) => true,
        PatternExpr::Event { .. } => false,
        PatternExpr::Kleene(x) => has_neg(x),
        PatternExpr::Seq(xs) | PatternExpr::Conj(xs) | PatternExpr::Disj(xs) => {
            xs.iter().any(has_neg)
        }
    }
}

#[test]
fn oracle_reads_the_textbook_cases() {
    let leaf = |t: u32, b: &str| PatternExpr::event(TypeSet::single(TypeId(t)), b);
    let s = stream(&[0, 1, 1, 2], &[5, 3, 9, 6], &[1; 4]);
    let run = |expr, conditions, w| {
        let p = Pattern::new(expr, conditions, WindowSpec::Count(w));
        Oracle {
            events: &s,
            window: p.window,
        }
        .matches(&p)
        .len()
    };
    let seq = |xs| PatternExpr::Seq(xs);
    assert_eq!(
        run(
            seq(vec![leaf(0, "a"), leaf(1, "b"), leaf(2, "c")]),
            vec![],
            9
        ),
        2
    );
    assert_eq!(
        run(
            seq(vec![leaf(0, "a"), leaf(1, "b"), leaf(2, "c")]),
            vec![],
            3
        ),
        0
    );
    let kc = seq(vec![
        leaf(0, "a"),
        PatternExpr::Kleene(Box::new(leaf(1, "k"))),
        leaf(2, "c"),
    ]);
    assert_eq!(run(kc.clone(), vec![], 9), 3);
    assert_eq!(
        run(
            kc,
            vec![Predicate::lt(Expr::attr("k", 0), Expr::attr("a", 0))],
            9
        ),
        1
    );
    let ng = seq(vec![
        leaf(0, "a"),
        PatternExpr::Neg(Box::new(leaf(1, "n"))),
        leaf(2, "c"),
    ]);
    assert_eq!(run(ng.clone(), vec![], 9), 0);
    assert_eq!(
        run(
            ng,
            vec![Predicate::gt(Expr::attr("n", 0), Expr::Const(10.0))],
            9
        ),
        1
    );
    assert_eq!(
        run(
            PatternExpr::Conj(vec![leaf(1, "x"), leaf(1, "y")]),
            vec![],
            9
        ),
        2
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(600))]

    // Every way of running a compilable pattern reports exactly the oracle's
    // matches: the NFA in step order, in the order the static model picks
    // and in reverse step order (the same sequence, event by event), the
    // tree engine where it applies, the shared plan with attribution (alone
    // and de-duplicated against a copy of itself), and the NFA over what
    // `MarkStage` relays under a random filter — which, without negation,
    // is a subset of the exact matches (§4.4: relayed events keep their
    // ids, so the window still binds).
    #[test]
    fn every_engine_reports_the_oracles_matches(
        p in PatternStrategy,
        types in prop::collection::vec(0u8..3, 1..15),
        vals in prop::collection::vec(-3i8..4, 14),
        gaps in prop::collection::vec(0u8..3, 14),
        seed in 0u64..1_000,
    ) {
        if Plan::compile(&p).is_err() {
            return Ok(());
        }
        let events = stream(&types, &vals, &gaps);
        let oracle = |events: &[PrimitiveEvent]| Oracle { events, window: p.window }.matches(&p);
        let want = oracle(&events);

        let plan = Plan::compile(&p).unwrap();
        let step_order = Program::lower_with(&plan, |b| CostModel::uniform(b.steps.len()));
        let step_order = per_event(NfaEngine::from_program(Arc::new(step_order), NfaConfig::default()), &events);
        prop_assert_eq!(canon(&step_order.concat()), want.clone(), "step-order NFA on {:?}", p);
        let chosen = per_event(NfaEngine::new(&p).unwrap(), &events);
        prop_assert_eq!(&chosen, &step_order, "the chosen order's sequence on {:?}", p);
        // Rates falling with the step index reorder every branch of two or
        // more single steps whose Kleene steps (if any) follow them all:
        // last single step first.
        let reversed = Program::lower_with(&plan, |b| CostModel {
            rates: (0..b.steps.len()).map(|s| 1.0 / (1.0 + s as f64)).collect(),
            ..CostModel::uniform(b.steps.len())
        });
        let reversed = per_event(NfaEngine::from_program(Arc::new(reversed), NfaConfig::default()), &events);
        prop_assert_eq!(&reversed, &step_order, "the reversed order's sequence on {:?}", p);
        if let Ok(mut tree) = TreeEngine::new(&p) {
            prop_assert_eq!(canon(&tree.run(&events)), want.clone(), "tree on {:?}", p);
        }
        if let Ok(shared) = PatternSet::new(vec![p.clone(), p.clone()]).unwrap().compile() {
            let fused = shared.engine(Default::default()).run(&events);
            for per in shared.attribute(&fused) {
                prop_assert_eq!(canon(&per), want.clone(), "shared plan on {:?}", p);
            }
        }

        let kept = relayed(&events, RandomFilter(seed), p.window_size());
        let filtered = canon(&NfaEngine::new(&p).unwrap().run(&kept));
        prop_assert_eq!(&filtered, &oracle(&kept), "NFA on the relayed events of {:?}", p);
        if !has_neg(&p.expr) {
            prop_assert!(filtered.is_subset(&want), "filtered ⊄ exact on {:?}", p);
        }
    }

    // A branch whose closures all follow its single steps is ordered over
    // the single steps and absorbs in step order: the chosen order, step
    // order and reverse step order report the oracle's matches in the same
    // sequence, event by event — and, under a Kleene iteration cap the
    // oracle does not model, the chosen order still emits what step order
    // does.
    #[test]
    fn kleene_suffix_orders_report_the_oracles_matches(
        p in KleeneSuffixStrategy,
        types in prop::collection::vec(0u8..3, 1..15),
        vals in prop::collection::vec(-3i8..4, 14),
        gaps in prop::collection::vec(0u8..3, 14),
    ) {
        let events = stream(&types, &vals, &gaps);
        let want = Oracle { events: &events, window: p.window }.matches(&p);
        let plan = Plan::compile(&p).unwrap();
        let n = plan.branches[0].steps.len();
        let lowered = |model: &dyn Fn(usize) -> CostModel, config| {
            let program = Program::lower_with(&plan, |b| model(b.steps.len()));
            per_event(NfaEngine::from_program(Arc::new(program), config), &events)
        };
        let uniform = |n| CostModel::uniform(n);
        let falling = |n| CostModel {
            rates: (0..n).map(|s| 1.0 / (1.0 + s as f64)).collect(),
            ..CostModel::uniform(n)
        };
        let reversed = Program::lower_with(&plan, |b| falling(b.steps.len()));
        let singles = n - plan.branches[0].kleene_steps().len();
        let order: Vec<usize> = (0..singles).rev().chain(singles..n).collect();
        prop_assert_eq!(reversed.orders().next().unwrap(), &order[..]);

        let step_order = lowered(&uniform, NfaConfig::default());
        prop_assert_eq!(canon(&step_order.concat()), want, "step-order NFA on {:?}", p);
        let chosen = per_event(NfaEngine::new(&p).unwrap(), &events);
        prop_assert_eq!(&chosen, &step_order, "the chosen order's sequence on {:?}", p);
        let reversed = lowered(&falling, NfaConfig::default());
        prop_assert_eq!(&reversed, &step_order, "the reversed order's sequence on {:?}", p);

        let capped = NfaConfig { max_kleene_iters: Some(1), ..NfaConfig::default() };
        let step_order = lowered(&uniform, capped);
        let chosen = per_event(NfaEngine::with_config(&p, capped).unwrap(), &events);
        prop_assert_eq!(&chosen, &step_order, "the chosen order, capped, on {:?}", p);
        let reversed = lowered(&falling, capped);
        prop_assert_eq!(&reversed, &step_order, "the reversed order, capped, on {:?}", p);
    }
}
