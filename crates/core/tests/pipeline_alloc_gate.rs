//! Allocation gate for the batch pipeline's output path: `Dlacep::run`
//! relays the kept events straight from the caller's slice and hands the
//! engine's matches to the report, so a single-pattern run may allocate
//! what its extractor allocates over the same relayed events, a constant
//! per assembler window (the filter's mark vectors), and a fixed constant —
//! nothing per relayed event and nothing per match. (Attribution swaps a
//! match's schema for its pattern's, so binding names of any length cost
//! nothing per match.)
//!
//! On the workload below (4,000 events, 2,000 relayed, 125 windows, 7,479
//! matches) the extractor alone makes 9,777 allocations and the run 9,968
//! (47,170 and 47,360 while each match carried its own names). The
//! pipeline that copied every relayed event into a filtered stream and
//! rebuilt every match twice (a per-pattern list and a union list) made
//! 139,118: 91,948 beyond the extractor, ≈ 12.3 per match.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use dlacep_cep::{CepEngine, NfaConfig, Pattern, PatternExpr, TypeSet};
use dlacep_core::{Dlacep, Filter};
use dlacep_events::{PrimitiveEvent, TypeId, WindowSpec};

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

/// Allocations made while `f` runs.
fn allocs<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let out = f();
    (out, ALLOCS.load(Ordering::Relaxed) - before)
}

const A: TypeId = TypeId(0);
const B: TypeId = TypeId(1);
const NOISE: TypeId = TypeId(2);
const W: u64 = 32;

/// Relays every event but the noise: the keep decision of each event is
/// its own, whatever window marks it.
struct DropNoise;

impl Filter for DropNoise {
    fn mark(&self, window: &[PrimitiveEvent]) -> Vec<bool> {
        window.iter().map(|ev| ev.type_id != NOISE).collect()
    }

    fn name(&self) -> &'static str {
        "drop-noise"
    }
}

#[test]
fn run_allocates_nothing_per_relayed_event_or_match() {
    let pattern = Pattern::new(
        PatternExpr::Seq(vec![
            PatternExpr::event(TypeSet::single(A), "a"),
            PatternExpr::event(TypeSet::single(B), "b"),
        ]),
        vec![],
        WindowSpec::Count(W),
    );
    // Half noise; the rest an irregular mix of `a` and `b`.
    let mut state = 0x5eed_u64;
    let events: Vec<PrimitiveEvent> = (0..4_000u64)
        .map(|i| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let t = match i % 2 {
                0 => NOISE,
                _ if state >> 63 == 0 => A,
                _ => B,
            };
            PrimitiveEvent::new(i, t, i, vec![i as f64])
        })
        .collect();
    let relayed: Vec<PrimitiveEvent> = events
        .iter()
        .filter(|ev| ev.type_id != NOISE)
        .cloned()
        .collect();

    let dl = Dlacep::new(pattern, DropNoise).unwrap();
    // Warm up lazily built state (the obs registry's names, thread-locals).
    let _ = dl.run(&events);
    let (report, run_allocs) = allocs(|| dl.run(&events));
    let (engine_matches, engine_allocs) = allocs(|| {
        let mut engine = dl.shared_plan().engine(NfaConfig::default());
        engine.run(&relayed)
    });

    assert_eq!(report.events_relayed, relayed.len());
    assert_eq!(report.per_pattern.len(), 1);
    let matches = report.per_pattern[0].len();
    assert_eq!(matches, engine_matches.len());
    assert!(matches > relayed.len(), "the gate needs a match-heavy run");

    // `MarkSize = 2W`, `StepSize = W`: one window per `W` events.
    let windows = events.len() as u64 / W;
    let limit = engine_allocs + 4 * windows + 256;
    assert!(
        run_allocs <= limit,
        "run: {run_allocs} allocations; the extractor alone makes {engine_allocs} \
         ({} relayed events, {windows} windows, {matches} matches; limit {limit})",
        relayed.len(),
    );
}
