//! Stores written before the emit log existed upgrade in place.
//!
//! The `*_pr19` fixtures were recorded by ISSUE 20's parent commit (the
//! last one to write version 1) with the helpers below: the hex of
//! `encode_checkpoint(&rt.checkpoint())` of a bare runtime, and every entry
//! of a `DurableDlacep`'s store and of a one-shard `ShardedDlacep`'s store
//! as `name hex` lines, each after [`SPLIT`] offers of [`offers`] and a
//! final WAL sync — version-1 checkpoint frames with every emitted match
//! embedded, no emit log, a WAL suffix past the last checkpoint. This build
//! must recover them, continue to the uninterrupted run's output, and from
//! its first checkpoint on write version-2 frames and an emit log that a
//! second recovery reads back. The stores' WAL segments double as the pin
//! that the in-place record framing writes the parent's bytes.
//!
//! The `*_pr22` fixtures are the same two stores, recorded with the helpers
//! below (every runtime journaling into a registry of its own, so the bytes
//! do not depend on what else ran in the process) by the last commit before
//! one `dur::StoreLog` took over both tiers' write and recovery orders —
//! version-2 frames, two checkpoints each, a non-empty emit log and a WAL
//! suffix past the newest checkpoint. This build must write every one of
//! their files byte for byte for the same offers, and recover each to the
//! uninterrupted run.

use dlacep_cep::{Match, Pattern, PatternExpr, TypeSet};
use dlacep_core::durable::{
    decode_checkpoint, encode_checkpoint, DurConfig, DurableDlacep, RecoveryReport,
};
use dlacep_core::filter::PassthroughFilter;
use dlacep_core::runtime::{EmittedMark, RuntimeConfig, StreamingDlacep};
use dlacep_dur::{load_latest_checkpoint, MemStore, Store, WalConfig, CKPT_VERSION, EMIT_LOG_NAME};
use dlacep_events::{AttrValue, KeyExtractor, TypeId, WindowSpec};
use dlacep_obs::Registry;
use dlacep_serve::{FleetConfig, FleetReport, ShardedDlacep};
use std::sync::Arc;

const RUNTIME_V1: &str = include_str!("fixtures/runtime_checkpoint_pr19.hex");
const DURABLE_STORE_V1: &str = include_str!("fixtures/durable_store_pr19.txt");
const SHARD_STORE_V1: &str = include_str!("fixtures/shard_store_pr19.txt");
const DURABLE_STORE_V2: &str = include_str!("fixtures/durable_store_pr22.txt");
const SHARD_STORE_V2: &str = include_str!("fixtures/shard_store_pr22.txt");

const SPLIT: usize = 50;

type Offer = (TypeId, u64, Vec<AttrValue>);

fn pattern() -> Pattern {
    Pattern::new(
        PatternExpr::Seq(vec![
            PatternExpr::event(TypeSet::single(TypeId(0)), "a"),
            PatternExpr::event(TypeSet::single(TypeId(1)), "b"),
        ]),
        vec![],
        WindowSpec::Count(6),
    )
}

/// 80 offers from a fixed LCG over types 0..8 (two `ByTypeGroup(4)` keys;
/// the pattern's types 0 and 1 sit in key 0, so key 1 stays quiet).
fn offers() -> Vec<Offer> {
    let mut state = 0x5eed_u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        state >> 33
    };
    (0..80u64)
        .map(|i| {
            let t = if next() % 4 == 0 {
                TypeId(4 + (next() % 4) as u32)
            } else {
                TypeId((next() % 3) as u32)
            };
            (t, i * 10, vec![(next() % 100) as f64])
        })
        .collect()
}

fn dur_config() -> DurConfig {
    DurConfig {
        wal: WalConfig {
            segment_max_bytes: 512,
            sync_every: 4,
        },
        checkpoint_every_events: 20,
    }
}

fn fleet_config() -> FleetConfig {
    FleetConfig {
        shards: 1,
        key_extractor: KeyExtractor::ByTypeGroup(4),
        wal: WalConfig {
            segment_max_bytes: 512,
            sync_every: 0,
        },
        sync_every_events: 8,
        checkpoint_every_events: 20,
        // Each key runtime journals into its own registry, so what a
        // checkpoint records does not depend on other tests in the process.
        obs: true,
        ..FleetConfig::default()
    }
}

/// A registry of the runtime's own (the global one's journal position
/// depends on what else ran in the process, and checkpoints record it).
fn registry() -> Option<Arc<Registry>> {
    Some(Arc::new(Registry::with_journal_capacity(64)))
}

fn from_hex(hex: &str) -> Vec<u8> {
    let hex = hex.trim();
    (0..hex.len() / 2)
        .map(|i| u8::from_str_radix(&hex[2 * i..2 * i + 2], 16).expect("fixture is hex"))
        .collect()
}

/// A store from its fixture: one `name hex` line per entry.
fn load_store(dump: &str) -> MemStore {
    let mut store = MemStore::new();
    for line in dump.lines() {
        let (name, hex) = line.split_once(' ').expect("`name hex` lines");
        store.append(name, &from_hex(hex)).unwrap();
    }
    store
}

fn durable(store: MemStore) -> DurableDlacep<PassthroughFilter, MemStore> {
    DurableDlacep::new(
        pattern(),
        PassthroughFilter,
        RuntimeConfig::default(),
        dur_config(),
        store,
        registry(),
        None,
    )
    .unwrap()
}

fn recover_durable(
    store: MemStore,
) -> (DurableDlacep<PassthroughFilter, MemStore>, RecoveryReport) {
    DurableDlacep::recover(
        pattern(),
        PassthroughFilter,
        RuntimeConfig::default(),
        dur_config(),
        store,
        registry(),
        None,
    )
    .expect("the store recovers")
}

fn fleet(store: MemStore) -> ShardedDlacep<PassthroughFilter, MemStore> {
    ShardedDlacep::create(
        pattern(),
        fleet_config(),
        Arc::new(|| PassthroughFilter),
        Arc::new(|| None),
        vec![store],
    )
    .unwrap()
}

fn recover_fleet(store: MemStore) -> (ShardedDlacep<PassthroughFilter, MemStore>, u64) {
    let (fleet, report) = ShardedDlacep::recover(
        pattern(),
        fleet_config(),
        Arc::new(|| PassthroughFilter),
        Arc::new(|| None),
        vec![store],
    )
    .expect("the store recovers");
    (fleet, report.resume_seq)
}

fn feed_durable(dur: &mut DurableDlacep<PassthroughFilter, MemStore>, input: &[Offer]) {
    for (t, ts, attrs) in input {
        dur.ingest(*t, *ts, attrs.clone()).unwrap();
    }
}

fn feed_fleet(fleet: &mut ShardedDlacep<PassthroughFilter, MemStore>, input: &[Offer]) {
    for (t, ts, attrs) in input {
        fleet.ingest(*t, *ts, attrs.clone()).unwrap();
    }
}

/// The uninterrupted single-runtime output over all of [`offers`].
fn reference_matches() -> Vec<Match> {
    let mut dur = durable(MemStore::new());
    feed_durable(&mut dur, &offers());
    let matches = dur.finish().matches;
    assert!(matches.len() > 4, "the workload must match");
    matches
}

/// Every file of `fixture` whose name starts with `prefix` is byte for byte
/// what this build wrote, and this build wrote no other such file.
fn assert_bytes_equal(fixture: &MemStore, rebuilt: &MemStore, prefix: &str, ctx: &str) {
    let names = |store: &MemStore| -> Vec<String> {
        let all = store.list().unwrap().into_iter();
        all.filter(|n| n.starts_with(prefix)).collect()
    };
    let files = names(fixture);
    assert!(files.len() >= 2, "{ctx}: the fixture holds {prefix}* files");
    assert_eq!(names(rebuilt), files, "{ctx}: the same files");
    for name in files {
        assert_eq!(
            rebuilt.read(&name).unwrap(),
            fixture.read(&name).unwrap(),
            "{ctx}: {name} differs from the parent's encoding"
        );
    }
}

/// The uninterrupted fleet over all of [`offers`].
fn reference_fleet() -> FleetReport {
    let mut fleet = fleet(MemStore::new());
    feed_fleet(&mut fleet, &offers());
    let report = fleet.finish();
    assert!(report.totals.matches > 4 && report.keys.len() == 2);
    report
}

fn assert_fleet_equal(got: &FleetReport, want: &FleetReport) {
    assert_eq!(got.totals.matches, want.totals.matches);
    for (got, want) in got.keys.iter().zip(&want.keys) {
        assert_eq!(got.key, want.key);
        assert_eq!(got.report.matches, want.report.matches, "key {}", got.key);
        assert_eq!(got.report.extractor_stats, want.report.extractor_stats);
    }
}

#[test]
fn v1_runtime_payload_seeds_the_emitted_prefix_and_continues() {
    let input = offers();
    let ckpt = decode_checkpoint(&from_hex(RUNTIME_V1)).expect("version 1 decodes");
    assert!(!ckpt.emitted_prefix.is_empty(), "version 1 embeds matches");
    assert_eq!(ckpt.emitted, EmittedMark::of(&ckpt.emitted_prefix));
    let mut resumed = StreamingDlacep::restore(
        pattern(),
        PassthroughFilter,
        RuntimeConfig::default(),
        None,
        ckpt,
    )
    .expect("version 1 restores");
    let here = encode_checkpoint(&resumed.checkpoint());
    assert!(
        here.len() < from_hex(RUNTIME_V1).len(),
        "re-encoded at the same position it holds no matches"
    );
    for (t, ts, attrs) in &input[SPLIT..] {
        resumed.ingest(*t, *ts, attrs.clone()).unwrap();
    }
    assert_eq!(resumed.finish().matches, reference_matches());
}

#[test]
fn v1_durable_store_upgrades_in_place() {
    let input = offers();
    let fixture = load_store(DURABLE_STORE_V1);
    assert!(!fixture.exists(EMIT_LOG_NAME).unwrap());
    assert_eq!(load_latest_checkpoint(&fixture).unwrap().version, 1);

    // The WAL this build writes for the same offers is the parent's.
    let mut rebuilt = durable(MemStore::new());
    feed_durable(&mut rebuilt, &input[..SPLIT]);
    rebuilt.sync().unwrap();
    assert_bytes_equal(&fixture, &rebuilt.into_store(), "wal-", "durable");

    let (mut dur, report) = recover_durable(fixture);
    assert_eq!(report.checkpoint_seq, Some(40));
    assert_eq!((report.wal_replayed, report.resume_seq), (10, 50));
    let emitted_before = dur.runtime().matches_so_far().len();
    assert!(emitted_before > 0, "the embedded matches came back");

    // Ten more offers cross the cadence: the first version-2 checkpoint.
    feed_durable(&mut dur, &input[SPLIT..60]);
    let upgraded = dur.into_store();
    let scan = load_latest_checkpoint(&upgraded).unwrap();
    assert_eq!(
        (scan.latest.as_ref().unwrap().0, scan.version),
        (60, CKPT_VERSION)
    );
    assert!(upgraded.exists(EMIT_LOG_NAME).unwrap());
    let v1_bytes = load_store(DURABLE_STORE_V1)
        .len("ckpt-0000000000000028.ck")
        .unwrap();
    assert!(
        upgraded.len("ckpt-000000000000003c.ck").unwrap() < v1_bytes,
        "later in the run, with more emitted, and smaller"
    );

    // A second recovery reads the prefix from the log, not the checkpoint.
    let (mut dur, report) = recover_durable(upgraded);
    assert_eq!(report.checkpoint_seq, Some(60));
    assert_eq!(report.emit_truncated_bytes, 0);
    assert!(dur.runtime().matches_so_far().len() >= emitted_before);
    feed_durable(&mut dur, &input[60..]);
    assert_eq!(dur.finish().matches, reference_matches());
}

#[test]
fn v1_shard_store_upgrades_in_place() {
    let input = offers();
    let fixture = load_store(SHARD_STORE_V1);
    assert!(!fixture.exists(EMIT_LOG_NAME).unwrap());
    assert_eq!(load_latest_checkpoint(&fixture).unwrap().version, 1);

    let mut rebuilt = fleet(MemStore::new());
    feed_fleet(&mut rebuilt, &input[..SPLIT]);
    rebuilt.sync().unwrap();
    assert_bytes_equal(&fixture, &rebuilt.into_stores()[0], "wal-", "fleet shard");

    let (mut recovered, resume_seq) = recover_fleet(fixture);
    assert_eq!(resume_seq, SPLIT as u64 + 1);
    assert!(
        recovered.stats().matches > 0,
        "the embedded matches came back"
    );
    // A recovered fleet counts its cadence from the resume point: twenty
    // more offers bring the first version-2 checkpoint.
    feed_fleet(&mut recovered, &input[SPLIT..70]);
    let upgraded = recovered.into_stores().remove(0);
    let scan = load_latest_checkpoint(&upgraded).unwrap();
    assert_eq!(
        (scan.latest.as_ref().unwrap().0, scan.version),
        (70, CKPT_VERSION)
    );
    assert!(upgraded.exists(EMIT_LOG_NAME).unwrap());

    let (mut recovered, resume_seq) = recover_fleet(upgraded);
    assert_eq!(resume_seq, 71);
    feed_fleet(&mut recovered, &input[70..]);
    assert_fleet_equal(&recovered.finish(), &reference_fleet());
}

/// A `*_pr22` image: version-2 checkpoints, two of them, and an emit log
/// they point into.
fn assert_v2_image(fixture: &MemStore) {
    let names = fixture.list().unwrap();
    assert_eq!(names.iter().filter(|n| n.ends_with(".ck")).count(), 2);
    assert_eq!(
        load_latest_checkpoint(fixture).unwrap().version,
        CKPT_VERSION
    );
    assert!(fixture.len(EMIT_LOG_NAME).unwrap() > 0);
}

#[test]
fn v2_durable_store_is_written_byte_for_byte_and_recovers() {
    let input = offers();
    let fixture = load_store(DURABLE_STORE_V2);
    assert_v2_image(&fixture);

    let mut rebuilt = durable(MemStore::new());
    feed_durable(&mut rebuilt, &input[..SPLIT]);
    rebuilt.sync().unwrap();
    assert_bytes_equal(&fixture, &rebuilt.into_store(), "", "durable");

    let (mut dur, report) = recover_durable(fixture);
    assert_eq!(report.checkpoint_seq, Some(40));
    assert_eq!((report.wal_replayed, report.resume_seq), (10, 50));
    assert_eq!(report.emit_truncated_bytes, 0);
    assert!(!dur.runtime().matches_so_far().is_empty());
    feed_durable(&mut dur, &input[SPLIT..]);
    assert_eq!(dur.finish().matches, reference_matches());
}

#[test]
fn v2_shard_store_is_written_byte_for_byte_and_recovers() {
    let input = offers();
    let fixture = load_store(SHARD_STORE_V2);
    assert_v2_image(&fixture);

    let mut rebuilt = fleet(MemStore::new());
    feed_fleet(&mut rebuilt, &input[..SPLIT]);
    rebuilt.sync().unwrap();
    assert_bytes_equal(&fixture, &rebuilt.into_stores()[0], "", "fleet shard");

    let (fleet, report) = ShardedDlacep::recover(
        pattern(),
        fleet_config(),
        Arc::new(|| PassthroughFilter),
        Arc::new(|| None),
        vec![fixture],
    )
    .expect("the store recovers");
    let shard = &report.shards[0];
    assert_eq!((shard.checkpoint_seq, shard.keys_restored), (Some(40), 2));
    assert_eq!(
        (shard.wal_replayed, report.resume_seq),
        (10, SPLIT as u64 + 1)
    );
    assert_eq!(shard.emit_truncated_bytes, 0);
    let mut recovered = fleet;
    assert!(recovered.stats().matches > 0);
    feed_fleet(&mut recovered, &input[SPLIT..]);
    assert_fleet_equal(&recovered.finish(), &reference_fleet());
}

/// The fixture pins rows the step-order pass stores: an edit of the cost
/// model that reorders this pattern must fail here, not as a byte mismatch.
#[test]
fn fixture_pattern_keeps_step_order() {
    let program = dlacep_cep::Program::lower(&dlacep_cep::Plan::compile(&pattern()).unwrap());
    let step_order = |o: &[usize]| o.iter().enumerate().all(|(k, s)| k == *s);
    assert!(program.orders().all(step_order));
}
