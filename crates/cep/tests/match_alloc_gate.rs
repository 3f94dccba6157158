//! Allocation gate for emission: once its stores are at their working
//! size, an engine may allocate one block per match it emits — the match
//! itself — and a constant besides (its output list doubling). The input
//! is match-heavy with few partial matches: a 4-step `SEQ` over a stream
//! cycling through its four types (ten matches per completing event), and
//! a `SEQ` with a Kleene closure, where every match also binds a run of
//! ids. Both the NFA (in step order and in the order the cost model picks)
//! and the tree engine are held to it, both when the matches are drained
//! once at the end and when they are drained after every event into one
//! list of the caller's, as `Dlacep::run` and the streaming runtime do.
//!
//! When a match carried its own binding names, the NFA made 10.0
//! allocations per 4-step match here (a sorted-id vector, a binding list,
//! and a name and an id vector per binding) and 8.6 per Kleene match, and
//! the tree engine 21.1, as it also allocated for every join it tried.
//! Now each makes 1.0 (10,013 for 10,000 matches; 56,015 for 56,000).
//! Drained after every event, an engine that handed over its own list
//! regrew a fresh one at each event that emitted (capacity 4, 8, 16):
//! 13,011 allocations for the 10,000 matches of the 4-step `SEQ`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use dlacep_cep::program::Program;
use dlacep_cep::{CepEngine, CostModel, NfaConfig, NfaEngine, Pattern, PatternExpr, Plan};
use dlacep_cep::{TreeEngine, TypeSet};
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

fn event(t: u32, name: &str) -> PatternExpr {
    PatternExpr::event(TypeSet::single(TypeId(t)), name)
}

/// `SEQ(a, b, c, d)` over types 0..4.
fn seq4(w: u64) -> Pattern {
    let steps = ["a", "b", "c", "d"]
        .iter()
        .zip(0..)
        .map(|(n, t)| event(t, n));
    Pattern::new(
        PatternExpr::Seq(steps.collect()),
        vec![],
        WindowSpec::Count(w),
    )
}

/// `SEQ(a, KC(k), c)` over types 0, 1, 2.
fn seq_kleene(w: u64) -> Pattern {
    let steps = vec![
        event(0, "a"),
        PatternExpr::Kleene(Box::new(event(1, "k"))),
        event(2, "c"),
    ];
    Pattern::new(PatternExpr::Seq(steps), vec![], WindowSpec::Count(w))
}

/// `n` events cycling through `types`.
fn cycle(types: &[u32], n: u64) -> Vec<PrimitiveEvent> {
    (0..n)
        .map(|id| {
            let t = types[id as usize % types.len()];
            PrimitiveEvent::new(id, TypeId(t), id, vec![id as f64])
        })
        .collect()
}

const WARM: usize = 400;

/// When the matches are taken out of the engine.
#[derive(Clone, Copy, Debug)]
enum Drain {
    /// Once, after the last event.
    AtEnd,
    /// After every event, into one list of the caller's.
    EveryEvent,
}

/// Feed `events` to `engine`; over the events after [`WARM`], returns the
/// matches emitted, the partial matches created, and the allocations made.
fn measure(mut engine: impl CepEngine, events: &[PrimitiveEvent], drain: Drain) -> (u64, u64, u64) {
    engine.run(&events[..WARM]);
    let (matches, partials) = {
        let s = engine.stats();
        (s.matches_emitted, s.partial_matches_created)
    };
    let before = ALLOCS.load(Ordering::Relaxed);
    let mut out = Vec::new();
    for ev in &events[WARM..] {
        engine.process(ev);
        if let Drain::EveryEvent = drain {
            engine.drain_into(&mut out);
        }
    }
    engine.drain_into(&mut out);
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    let s = engine.stats();
    assert_eq!(out.len() as u64, s.matches_emitted - matches);
    drop(out);
    (
        s.matches_emitted - matches,
        s.partial_matches_created - partials,
        allocs,
    )
}

/// What an engine may allocate beyond one block per match.
const SLACK: u64 = 64;

fn check(what: &str, engine: impl CepEngine, events: &[PrimitiveEvent], drain: Drain) {
    let what = format!("{what}, drained {drain:?}");
    let (matches, partials, allocs) = measure(engine, events, drain);
    eprintln!("{what}: {matches} matches, {partials} partials, {allocs} allocations");
    assert!(
        matches >= 5_000 && partials <= 2 * matches,
        "{what}: the gate must measure a match-heavy load, got {matches} matches and {partials} partial matches"
    );
    assert!(
        allocs <= matches + SLACK,
        "{what}: {allocs} allocations for {matches} matches (limit one per match + {SLACK})"
    );
}

#[test]
fn emission_allocates_one_block_per_match() {
    for drain in [Drain::AtEnd, Drain::EveryEvent] {
        let events = cycle(&[0, 1, 2, 3], 4_400);
        let pattern = seq4(12);
        let plan = Plan::compile(&pattern).unwrap();
        let step_order = Program::lower_with(&plan, |b| CostModel::uniform(b.steps.len()));
        let step_order = NfaEngine::from_program(Arc::new(step_order), NfaConfig::default());
        check("NFA, SEQ of 4, step order", step_order, &events, drain);
        check(
            "NFA, SEQ of 4, chosen order",
            NfaEngine::new(&pattern).unwrap(),
            &events,
            drain,
        );
        check(
            "tree, SEQ of 4",
            TreeEngine::new(&pattern).unwrap(),
            &events,
            drain,
        );

        let events = cycle(&[0, 1, 1, 1, 2], 4_400);
        check(
            "NFA, SEQ with a Kleene closure",
            NfaEngine::new(&seq_kleene(10)).unwrap(),
            &events,
            drain,
        );
    }
}
