//! Allocation gate for the NFA engine's per-event path: in steady state
//! (stores and arena at their working size) `Q_A1(j=4, k=10)` — the repo
//! benchmark's heavy-partials exact workload, ≈ 48 partial matches created
//! and ≈ 160 conditions evaluated per event in step order — may allocate
//! only for the matches it emits, in step order and in the order the cost
//! model picks (last step first, the rest pulled from the window). The
//! engine this replaced made ≈ 207 allocations per event on the same input.
//! So may `Q_A5` — the same banded single steps, then a Kleene closure —
//! whose order binds the single steps last first and absorbs the closure
//! in step order.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use dlacep_cep::program::Program;
use dlacep_cep::{CepEngine, CostModel, Match, NfaConfig, NfaEngine, Pattern, PatternExpr, Plan};
use dlacep_cep::{Predicate, TypeSet};
use dlacep_events::{PrimitiveEvent, TypeId, WindowSpec};
use std::sync::Arc;

/// Counts every allocation of the process: this file holds one test, so
/// nothing else runs while it measures.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a statistic and publishes nothing.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's obligations are `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Table 1 `Q_A1(j, k, p, α, β)`: `SEQ(S_1..S_j)` over the `k` most frequent
/// types with `∀i ∈ p: α·S_i.vol < S_j.vol < β·S_i.vol`.
fn q_a1(j: usize, k: u32, p: &[usize], alpha: f64, beta: f64, w: u64) -> Pattern {
    let top_k = TypeSet::new((0..k).map(TypeId).collect());
    let leaves = (1..=j)
        .map(|t| PatternExpr::event(top_k.clone(), format!("s{t}")))
        .collect();
    let last = format!("s{j}");
    let conds = p
        .iter()
        .map(|i| {
            let from = format!("s{i}");
            Predicate::band(alpha, (&from, 0), (&last, 0), beta, (&from, 0))
        })
        .collect();
    Pattern::new(PatternExpr::Seq(leaves), conds, WindowSpec::Count(w))
}

/// Table 1 `Q_A5`: five of the `k` most frequent types banded against the
/// fifth, then a Kleene closure over the next `k` types.
fn q_a5(k: u32, alpha: f64, beta: f64, w: u64) -> Pattern {
    let mut children: Vec<PatternExpr> = (1..=5)
        .map(|t| PatternExpr::event(TypeSet::new((0..k).map(TypeId).collect()), format!("s{t}")))
        .collect();
    let band = TypeSet::new((k..2 * k).map(TypeId).collect());
    children.push(PatternExpr::Kleene(Box::new(PatternExpr::event(
        band, "k1",
    ))));
    let conds = (1..=4)
        .map(|i| {
            let from = format!("s{i}");
            Predicate::band(alpha, (&from, 0), ("s5", 0), beta, (&from, 0))
        })
        .collect();
    Pattern::new(PatternExpr::Seq(children), conds, WindowSpec::Count(w))
}

/// A Zipf-ish stock stream: type `t` about `1/(t+1)` as frequent as type 0,
/// volumes log-uniform over a decade.
fn stream(n: u64) -> Vec<PrimitiveEvent> {
    let mut state = 0x00a1_10c8_u64;
    let mut unit = move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..n)
        .map(|id| {
            let t = (64f64.powf(unit()) - 1.0) as u32;
            PrimitiveEvent::new(id, TypeId(t), id, vec![10f64.powf(unit())])
        })
        .collect()
}

const WARM: usize = 4_000;

/// Run `engine` over `events`; returns its matches and, over the events
/// after [`WARM`], the partial matches it created per event and how often
/// it allocated.
fn measure(mut engine: NfaEngine, events: &[PrimitiveEvent]) -> (Vec<Match>, u64, u64) {
    let mut matches = engine.run(&events[..WARM]);
    let created = engine.stats().partial_matches_created;
    let before = ALLOCS.load(Ordering::Relaxed);
    for ev in &events[WARM..] {
        engine.process(ev);
        matches.append(&mut engine.drain_matches());
    }
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    let measured = (events.len() - WARM) as u64;
    let per_event = (engine.stats().partial_matches_created - created) / measured;
    (matches, per_event, allocs)
}

#[test]
fn steady_state_allocates_only_for_matches() {
    let events = stream(8_000);
    let pattern = q_a1(4, 10, &[1, 2, 3], 0.95, 1.05, 24);
    let plan = Plan::compile(&pattern).unwrap();
    let step_order = Program::lower_with(&plan, |b| CostModel::uniform(b.steps.len()));
    let step_order = NfaEngine::from_program(Arc::new(step_order), NfaConfig::default());
    let measured = (events.len() - WARM) as u64;

    let (matches, per_event, allocs) = measure(step_order, &events);
    assert!(
        per_event >= 20,
        "the gate must measure a heavy-partials load, got {per_event} partial matches per event"
    );
    assert!(!matches.is_empty());
    assert!(
        allocs <= 2 * measured,
        "step order: {allocs} allocations over {measured} steady-state events (limit 2 per event)"
    );

    let (ordered, _, allocs) = measure(NfaEngine::new(&pattern).unwrap(), &events);
    assert_eq!(ordered, matches);
    assert!(
        allocs <= 2 * measured,
        "chosen order: {allocs} allocations over {measured} steady-state events (limit 2 per event)"
    );

    let pattern = q_a5(6, 0.9, 1.1, 16);
    let plan = Plan::compile(&pattern).unwrap();
    let step_order = Program::lower_with(&plan, |b| CostModel::uniform(b.steps.len()));
    let step_order = NfaEngine::from_program(Arc::new(step_order), NfaConfig::default());
    let (matches, per_event, allocs) = measure(step_order, &events);
    assert!(
        per_event >= 5,
        "Q_A5 must load step order with partial matches, got {per_event} per event"
    );
    assert!(
        allocs <= 2 * measured,
        "Q_A5, step order: {allocs} allocations over {measured} steady-state events"
    );
    let (ordered, ordered_per_event, allocs) = measure(NfaEngine::new(&pattern).unwrap(), &events);
    assert_eq!(ordered, matches);
    assert!(ordered_per_event < per_event);
    assert!(
        allocs <= 2 * measured,
        "Q_A5, chosen order: {allocs} allocations over {measured} steady-state events"
    );
}
