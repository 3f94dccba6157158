//! Allocation gate for recovery: what a store's emit log holds is verified
//! and kept as the bytes that were logged, never decoded into matches, so
//! the allocations a `recover` makes do not grow with the output the store
//! has ever emitted. A `DurableDlacep` store and a two-shard fleet store are
//! each recovered at two run lengths, stopped on a checkpoint with the same
//! live state; their emit logs hold N and 8·N matches. Recovering the longer
//! one may allocate only a constant more: each key's logged-bytes buffer
//! doubles log2(8) = 3 more times. Decoding every logged match instead
//! costs ≈ 10 allocations per match.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dlacep_cep::{Pattern, PatternExpr, TypeSet};
use dlacep_core::durable::DurConfig;
use dlacep_core::filter::PassthroughFilter;
use dlacep_core::runtime::{RuntimeConfig, StreamingDlacep};
use dlacep_dur::{MemStore, WalConfig};
use dlacep_events::{KeyExtractor, TypeId, WindowSpec};
use dlacep_serve::{FleetConfig, ShardedDlacep};

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

/// `SEQ(a, b)` with `a` of type 0 or 4 and `b` of type 1 or 5: under
/// `ByTypeGroup(4)` keys 0 and 1 each match on their own.
fn pattern() -> Pattern {
    let types = |ts: [u32; 2]| TypeSet::new(ts.into_iter().map(TypeId).collect());
    Pattern::new(
        PatternExpr::Seq(vec![
            PatternExpr::event(types([0, 4]), "a"),
            PatternExpr::event(types([1, 5]), "b"),
        ]),
        vec![],
        WindowSpec::Count(6),
    )
}

/// Offer `i`: types 0, 1, 2, 4, 5, 6 in turn, so the live state repeats
/// every checkpoint and only the output grows.
fn offer(i: u64) -> (TypeId, u64, Vec<f64>) {
    (
        TypeId([0, 1, 2, 4, 5, 6][(i % 6) as usize]),
        i,
        vec![i as f64],
    )
}

/// Checkpoint cadence: a multiple of the offer cycle.
const EVERY: u64 = 48;
/// Checkpoints in the shorter run; the longer runs eight times as many.
const CHECKPOINTS: u64 = 4;

fn durable_store(checkpoints: u64) -> (MemStore, u64) {
    let mut dur = StreamingDlacep::builder(pattern(), PassthroughFilter)
        .durable(dur_config(), MemStore::new())
        .build()
        .unwrap();
    for i in 0..checkpoints * EVERY {
        let (t, ts, attrs) = offer(i);
        dur.ingest(t, ts, attrs).unwrap();
    }
    let emitted = dur.runtime().match_seq();
    (dur.into_store(), emitted)
}

fn dur_config() -> DurConfig {
    DurConfig {
        wal: WalConfig {
            segment_max_bytes: 1024,
            sync_every: 0,
        },
        checkpoint_every_events: EVERY,
    }
}

fn fleet_config() -> FleetConfig {
    FleetConfig {
        shards: 2,
        key_extractor: KeyExtractor::ByTypeGroup(4),
        wal: WalConfig {
            segment_max_bytes: 1024,
            sync_every: 0,
        },
        checkpoint_every_events: EVERY,
        ..FleetConfig::default()
    }
}

fn fleet_stores(checkpoints: u64) -> (Vec<MemStore>, u64) {
    let mut fleet = ShardedDlacep::create(
        pattern(),
        fleet_config(),
        Arc::new(|| PassthroughFilter),
        Arc::new(|| None),
        vec![MemStore::new(), MemStore::new()],
    )
    .unwrap();
    for i in 0..checkpoints * EVERY {
        let (t, ts, attrs) = offer(i);
        fleet.ingest(t, ts, attrs).unwrap();
    }
    let emitted = fleet.stats().matches;
    (fleet.into_stores(), emitted)
}

/// Allocations made by `recover`, its inputs built beforehand and its
/// result dropped afterwards.
fn allocations<T>(recover: impl FnOnce() -> T) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    let recovered = recover();
    let made = ALLOCS.load(Ordering::Relaxed) - before;
    drop(recovered);
    made
}

fn recover_durable(store: MemStore) -> u64 {
    allocations(|| {
        let (pattern, config) = (pattern(), RuntimeConfig::default());
        let (filter, cfg) = (PassthroughFilter, dur_config());
        StreamingDlacep::builder(pattern, filter)
            .config(config)
            .durable(cfg, store)
            .recover()
            .unwrap()
    })
}

fn recover_fleet(stores: Vec<MemStore>) -> u64 {
    allocations(|| {
        let (pattern, cfg) = (pattern(), fleet_config());
        let (filter, trainer) = (Arc::new(|| PassthroughFilter), Arc::new(|| None));
        ShardedDlacep::recover(pattern, cfg, filter, trainer, stores).unwrap()
    })
}

/// How far apart the two recoveries' allocation counts may lie: per key,
/// three more doublings of its logged bytes, and per store a WAL segment
/// more or less.
const SLACK_PER_KEY: u64 = 3;
const SLACK: u64 = 4;

#[test]
fn recovery_allocations_do_not_grow_with_the_logged_output() {
    let (short, n) = durable_store(CHECKPOINTS);
    let (long, n8) = durable_store(8 * CHECKPOINTS);
    assert!(n >= 50 && n8 > 7 * n, "{n} and {n8} matches");
    // The first recovery of the process also builds what every later one
    // reuses (the global metrics registry's counters).
    recover_durable(short.clone());
    let (a, b) = (recover_durable(short), recover_durable(long));
    println!("durable: {a} allocations over {n} matches, {b} over {n8}");
    assert!(
        a.abs_diff(b) <= SLACK_PER_KEY + SLACK,
        "durable: {a} allocations over {n} logged matches, {b} over {n8}"
    );

    let (short, n) = fleet_stores(CHECKPOINTS);
    let (long, n8) = fleet_stores(8 * CHECKPOINTS);
    assert!(n >= 50 && n8 > 7 * n, "{n} and {n8} matches");
    recover_fleet(short.clone());
    let (a, b) = (recover_fleet(short), recover_fleet(long));
    println!("fleet: {a} allocations over {n} matches, {b} over {n8}");
    assert!(
        a.abs_diff(b) <= 2 * SLACK_PER_KEY + 2 * SLACK,
        "fleet: {a} allocations over {n} logged matches, {b} over {n8}"
    );
}
