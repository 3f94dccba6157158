//! Checkpoints carry live state; the output already emitted lives in the
//! store's emit log. Three things follow and are pinned here: a checkpoint's
//! size does not grow with the length of the run; recovery reads the emitted
//! prefix back from the log; and a log that cannot be that prefix — shorter
//! than the checkpoint's offset, or holding other matches than the
//! checkpoint marks — fails recovery with a typed error instead of resuming
//! on output nobody emitted. And a store's first checkpoint, while it is the
//! only one, leaves the WAL whole: when it rots, recovery replays the run
//! from its first event. Starting fresh on a store that already holds a run
//! is refused and leaves every file as it was — a fresh start would cut the
//! emit log the run's checkpoints point into.

use dlacep_cep::{Match, Pattern, PatternExpr, Predicate, TypeSet};
use dlacep_core::durable::{encode_checkpoint, DurConfig, DurError, DurableDlacep};
use dlacep_core::filter::PassthroughFilter;
use dlacep_core::runtime::{RuntimeConfig, RuntimeError, StreamingDlacep};
use dlacep_dur::{
    Decoder, DirStore, EmitError, EmitLog, MemStore, Store, WalConfig, EMIT_LOG_NAME,
};
use dlacep_events::{EventId, KeyExtractor, TypeId, WindowSpec};
use dlacep_serve::{FleetConfig, FleetError, ShardedDlacep};
use std::sync::Arc;

/// Table 1 `Q_A1(j, k, p, α, β)` as the benchmark builds it: `SEQ(S_1..S_j)`
/// over the top-`k` tickers with `∀i ∈ p: α·S_i.vol < S_j.vol < β·S_i.vol`.
fn q_a1(j: usize, k: u32, p: &[usize], alpha: f64, beta: f64, w: u64) -> Pattern {
    let top_k = TypeSet::new((0..k).map(TypeId).collect());
    let last = format!("s{j}");
    let leaves = (1..=j)
        .map(|i| PatternExpr::event(top_k.clone(), format!("s{i}")))
        .collect();
    let bands = p
        .iter()
        .map(|i| {
            let from = format!("s{i}");
            Predicate::band(alpha, (&from, 0), (&last, 0), beta, (&from, 0))
        })
        .collect();
    Pattern::new(PatternExpr::Seq(leaves), bands, WindowSpec::Count(w))
}

/// A stock-like stream: Zipf-ranked tickers, log-normal-ish volumes, from a
/// fixed LCG. `(ticker, volume)` at each position.
fn stock_like(n: usize) -> Vec<(TypeId, f64)> {
    let mut state = 0x00D1_ACE9_u64;
    let mut unit = move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..n)
        .map(|_| {
            // Rank r with probability ∝ 1/r over 128 tickers.
            let ticker = (128f64.powf(unit()) - 1.0) as u32;
            let vol = (0.35 * (unit() + unit() + unit() + unit() - 2.0) * 1.7).exp();
            (TypeId(ticker), vol)
        })
        .collect()
}

#[test]
fn checkpoint_bytes_are_flat_in_run_length() {
    // `stock_int8`'s wide-band pattern: dense output (the parent's
    // checkpoint here was ≈ 95 KB after 4k events, and growing).
    let mut rt = StreamingDlacep::builder(q_a1(4, 2, &[1, 2], 0.8, 1.25, 16), PassthroughFilter)
        .build()
        .unwrap();
    // Live state breathes with what the last windows hold, so each size is
    // the mean over the 256 checkpoints (one every 8 events) that end at the
    // named position.
    let (mut sizes, mut emitted) = ([0.0f64; 2], [0usize; 2]);
    for (i, (ticker, vol)) in stock_like(40_000).into_iter().enumerate() {
        rt.ingest(ticker, i as u64, vec![vol]).unwrap();
        for (slot, end) in [4_000, 40_000].into_iter().enumerate() {
            if (end - 2_048..end).contains(&i) && (i + 1) % 8 == 0 {
                sizes[slot] += encode_checkpoint(&rt.checkpoint()).len() as f64 / 256.0;
                emitted[slot] = rt.matches_so_far().len();
            }
        }
    }
    let [early, late] = sizes;
    assert!(emitted[0] > 300, "the pattern must match densely");
    assert!(emitted[1] > 5 * emitted[0], "output keeps growing");
    assert!(
        (late - early).abs() < 0.10 * early,
        "mean checkpoint bytes up to 4k events {early}, up to 40k {late}"
    );
}

fn seq_ab() -> Pattern {
    Pattern::new(
        PatternExpr::Seq(vec![
            PatternExpr::event(TypeSet::single(TypeId(0)), "a"),
            PatternExpr::event(TypeSet::single(TypeId(1)), "b"),
        ]),
        vec![],
        WindowSpec::Count(6),
    )
}

fn dur_config() -> DurConfig {
    DurConfig {
        checkpoint_every_events: 16,
        ..DurConfig::default()
    }
}

/// A durable store holding a version-2 checkpoint and a non-empty emit log.
fn durable_store() -> (MemStore, Vec<Match>) {
    let mut dur = StreamingDlacep::builder(seq_ab(), PassthroughFilter)
        .durable(dur_config(), MemStore::new())
        .build()
        .unwrap();
    for i in 0..64u64 {
        dur.ingest(TypeId((i % 3) as u32), i, vec![i as f64])
            .unwrap();
    }
    let emitted = dur.matches();
    assert!(emitted.len() > 8);
    (dur.into_store(), emitted)
}

fn recover_durable<S: Store>(store: S) -> Result<DurableDlacep<PassthroughFilter, S>, DurError> {
    StreamingDlacep::builder(seq_ab(), PassthroughFilter)
        .durable(dur_config(), store)
        .recover()
        .map(|(dur, _)| dur)
}

fn fleet_config() -> FleetConfig {
    FleetConfig {
        shards: 1,
        key_extractor: KeyExtractor::ByTypeGroup(4),
        checkpoint_every_events: 16,
        ..FleetConfig::default()
    }
}

/// One shard's store holding a version-2 checkpoint and a non-empty log.
fn shard_store() -> MemStore {
    let mut fleet = ShardedDlacep::create(
        seq_ab(),
        fleet_config(),
        Arc::new(|| PassthroughFilter),
        Arc::new(|| None),
        vec![MemStore::new()],
    )
    .unwrap();
    for i in 0..64u64 {
        fleet
            .ingest(TypeId((i % 3) as u32), i, vec![i as f64])
            .unwrap();
    }
    assert!(fleet.stats().matches > 8);
    fleet.into_stores().remove(0)
}

fn recover_fleet(store: MemStore) -> Result<u64, FleetError> {
    ShardedDlacep::recover(
        seq_ab(),
        fleet_config(),
        Arc::new(|| PassthroughFilter),
        Arc::new(|| None),
        vec![store],
    )
    .map(|(fleet, _)| fleet.stats().matches)
}

/// Rewrite `store`'s emit log with its first logged match bound to other
/// event ids: every frame and CRC valid, the same length, the wrong output.
fn forge_first_match(store: &mut MemStore) {
    let len = store.len(EMIT_LOG_NAME).unwrap();
    let mut records: Vec<(u64, Match)> = Vec::new();
    EmitLog::open_at(store, len, |record| {
        let mut d = Decoder::new(record);
        records.push((d.take_u64()?, d.get()?));
        d.finish()
    })
    .unwrap();
    let first = &mut records[0].1;
    first.event_ids[0] = EventId(first.event_ids[0].0 + 1_000);
    let (mut log, cut) = EmitLog::open_at(store, 0, |_| Ok(())).unwrap();
    assert_eq!(cut, len);
    for (key, m) in &records {
        log.stage(|e| {
            e.put_u64(*key);
            e.put(m);
        });
    }
    log.append(store).unwrap();
    assert_eq!(log.offset(), len, "same records, same sizes, same length");
}

#[test]
fn recovery_reads_the_emitted_prefix_from_the_log() {
    let (store, emitted) = durable_store();
    let dur = recover_durable(store).expect("an intact store recovers");
    assert_eq!(dur.matches(), emitted);
    assert_eq!(recover_fleet(shard_store()).unwrap(), emitted.len() as u64);
}

#[test]
fn a_log_shorter_than_the_checkpoint_offset_fails_recovery_with_a_typed_error() {
    let (mut store, _) = durable_store();
    let len = store.len(EMIT_LOG_NAME).unwrap();
    store.truncate(EMIT_LOG_NAME, len - 1).unwrap();
    match recover_durable(store) {
        Err(DurError::Emit(EmitError::Short { offset, len: l })) => {
            assert_eq!((offset, l), (len, len - 1));
        }
        other => panic!("expected EmitError::Short, got {:?}", other.err()),
    }
    let (mut store, _) = durable_store();
    store.remove(EMIT_LOG_NAME).unwrap();
    assert!(matches!(
        recover_durable(store),
        Err(DurError::Emit(EmitError::Short { len: 0, .. }))
    ));

    let mut store = shard_store();
    let len = store.len(EMIT_LOG_NAME).unwrap();
    store.truncate(EMIT_LOG_NAME, len / 2).unwrap();
    assert!(matches!(
        recover_fleet(store),
        Err(FleetError::Emit(EmitError::Short { .. }))
    ));
}

#[test]
fn a_log_whose_matches_disagree_with_the_mark_fails_recovery_with_a_typed_error() {
    let (mut store, _) = durable_store();
    forge_first_match(&mut store);
    match recover_durable(store) {
        Err(DurError::Runtime(RuntimeError::Restore(msg))) => {
            assert!(msg.contains("emitted prefix"), "{msg}");
        }
        other => panic!("expected a restore mismatch, got {:?}", other.err()),
    }

    let mut store = shard_store();
    forge_first_match(&mut store);
    assert!(matches!(
        recover_fleet(store),
        Err(FleetError::Runtime(RuntimeError::Restore(_)))
    ));
}

/// WAL segments of a few records each, so pruning below a checkpoint
/// removes some.
const SMALL_SEGMENTS: WalConfig = WalConfig {
    segment_max_bytes: 256,
    sync_every: 4,
};

/// Events 0..48; a single checkpoint falls at event 24 and the run dies at
/// event 30.
fn lone_checkpoint_input() -> Vec<(TypeId, u64)> {
    (0..48u64).map(|i| (TypeId((i % 3) as u32), i)).collect()
}

const CRASH_AT: usize = 30;

/// Flip a byte in the middle of the store's only published checkpoint.
fn corrupt_lone_checkpoint(store: &mut MemStore) {
    let names = store.list().unwrap();
    let [name] = names
        .iter()
        .filter(|n| n.ends_with(".ck"))
        .collect::<Vec<_>>()[..]
    else {
        panic!("expected exactly one checkpoint, found {names:?}");
    };
    let mut bytes = store.read(name).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    store.truncate(name, 0).unwrap();
    store.append(name, &bytes).unwrap();
}

#[test]
fn a_corrupted_lone_durable_checkpoint_falls_back_to_the_whole_wal() {
    let input = lone_checkpoint_input();
    let cfg = || DurConfig {
        wal: SMALL_SEGMENTS,
        checkpoint_every_events: 24,
    };
    let open = || {
        let (pattern, config) = (seq_ab(), RuntimeConfig::default());
        StreamingDlacep::builder(pattern, PassthroughFilter)
            .config(config)
            .durable(cfg(), MemStore::new())
            .build()
            .unwrap()
    };
    let mut reference = open();
    for &(t, i) in &input {
        reference.ingest(t, i, vec![i as f64]).unwrap();
    }
    let reference = reference.finish().matches;
    assert!(reference.len() > 8);

    let mut dur = open();
    for &(t, i) in &input[..CRASH_AT] {
        dur.ingest(t, i, vec![i as f64]).unwrap();
    }
    let mut store = dur.into_store();
    corrupt_lone_checkpoint(&mut store);
    let (pattern, config) = (seq_ab(), RuntimeConfig::default());
    let (mut rec, report) = StreamingDlacep::builder(pattern, PassthroughFilter)
        .config(config)
        .durable(cfg(), store)
        .recover()
        .expect("the WAL still covers the run from its first event");
    assert_eq!(
        (report.checkpoint_seq, report.checkpoints_skipped),
        (None, 1)
    );
    assert_eq!(report.resume_seq as usize, CRASH_AT);
    for &(t, i) in &input[CRASH_AT..] {
        rec.ingest(t, i, vec![i as f64]).unwrap();
    }
    assert_eq!(rec.finish().matches, reference);
}

#[test]
fn a_corrupted_lone_shard_checkpoint_falls_back_to_the_whole_wal() {
    let input = lone_checkpoint_input();
    let cfg = || FleetConfig {
        wal: SMALL_SEGMENTS,
        checkpoint_every_events: 24,
        sync_every_events: 4,
        ..fleet_config()
    };
    let create = || {
        let (filter, trainer) = (Arc::new(|| PassthroughFilter), Arc::new(|| None));
        ShardedDlacep::create(seq_ab(), cfg(), filter, trainer, vec![MemStore::new()]).unwrap()
    };
    let matches = |fleet: ShardedDlacep<PassthroughFilter, MemStore>| -> Vec<Vec<Match>> {
        fleet
            .finish()
            .keys
            .into_iter()
            .map(|k| k.report.matches)
            .collect()
    };
    let mut reference = create();
    for &(t, i) in &input {
        reference.ingest(t, i, vec![i as f64]).unwrap();
    }
    let reference = matches(reference);
    assert!(reference.concat().len() > 8);

    let mut fleet = create();
    for &(t, i) in &input[..CRASH_AT] {
        fleet.ingest(t, i, vec![i as f64]).unwrap();
    }
    let mut stores = fleet.into_stores();
    corrupt_lone_checkpoint(&mut stores[0]);
    let (filter, trainer) = (Arc::new(|| PassthroughFilter), Arc::new(|| None));
    let (mut rec, report) = ShardedDlacep::recover(seq_ab(), cfg(), filter, trainer, stores)
        .expect("the WAL still covers the run from its first event");
    assert_eq!(report.shards[0].checkpoint_seq, None);
    for &(t, i) in &input[report.resume_seq as usize - 1..] {
        rec.ingest(t, i, vec![i as f64]).unwrap();
    }
    assert_eq!(matches(rec), reference);
}

/// Every file of a directory store, by name.
fn files(dir: &std::path::Path) -> Vec<(String, Vec<u8>)> {
    let store = DirStore::open(dir).unwrap();
    let names = store.list().unwrap();
    names
        .into_iter()
        .map(|n| {
            let bytes = store.read(&n).unwrap();
            (n, bytes)
        })
        .collect()
}

#[test]
fn starting_fresh_on_a_store_that_holds_a_run_is_refused_and_touches_nothing() {
    let dir = std::env::temp_dir().join(format!("dlacep-emit-log-fresh-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let open = || DirStore::open(&dir).unwrap();
    let start = |store| {
        let (pattern, config) = (seq_ab(), RuntimeConfig::default());
        StreamingDlacep::builder(pattern, PassthroughFilter)
            .config(config)
            .durable(dur_config(), store)
            .build()
    };
    let mut dur = start(open()).unwrap();
    for i in 0..40u64 {
        dur.ingest(TypeId((i % 3) as u32), i, vec![i as f64])
            .unwrap();
    }
    dur.sync().unwrap();
    let emitted = dur.matches();
    drop(dur); // the process ends
    let image = files(&dir);
    assert!(image
        .iter()
        .any(|(n, b)| n == EMIT_LOG_NAME && !b.is_empty()));

    // A second run started fresh on the same directory.
    match start(open()) {
        Err(DurError::NotEmpty(refusal)) => {
            let names: Vec<&String> = image.iter().map(|(n, _)| n).collect();
            assert_eq!(refusal.names.iter().collect::<Vec<_>>(), names);
        }
        Err(e) => panic!("expected DurError::NotEmpty, got {e}"),
        Ok(_) => panic!("a store holding a run must not start fresh"),
    }
    let built = StreamingDlacep::builder(seq_ab(), PassthroughFilter)
        .durable(dur_config(), open())
        .build();
    assert!(matches!(built, Err(DurError::NotEmpty(_))));
    assert_eq!(files(&dir), image, "every file as it was");

    // The run is still there to recover.
    let recovered = recover_durable(open()).expect("the run recovers");
    assert_eq!(recovered.matches(), emitted);
    std::fs::remove_dir_all(&dir).unwrap();
}
