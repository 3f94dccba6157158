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
//!
//! The `*_retrain_pr27` fixtures were recorded by the last commit that
//! published accepted models to a per-store model registry: the crash
//! sweep's active-retrain workload (`common`), stopped at the first
//! checkpoint after the validated swap, on a `DurableDlacep` store (its
//! `model-*.mdl` file included) and on a two-shard fleet (one
//! `shard-NNNN/name hex` line per entry). Nothing reads or writes a model
//! file any more: this build must write every other file of both stores
//! byte for byte, redeploy model v1 from the checkpoint alone, leave the
//! model file as it found it, and finish equal to the uninterrupted run.
//!
//! The `*_emit_pr28` fixtures were recorded by the last commit whose
//! recovery decoded every logged match: a `DurableDlacep` store and a
//! two-shard fleet (three keys that each match) killed at the rename that
//! would have published their third checkpoint (the fleet's on its last
//! shard) — two published checkpoints, the third's complete `.tmp`, and an
//! emit log whose synced tail lies past the newest checkpoint. This build
//! must write every file of both images byte for byte at the same crash
//! tick, recover each with the parent's report (the same tail cut), and
//! finish equal to the uninterrupted run.

mod common;

use common::SweepFilter;
use dlacep_cep::{Match, Pattern, PatternExpr, TypeSet};
use dlacep_core::durable::{
    decode_checkpoint, encode_checkpoint, DurConfig, DurableDlacep, RecoveryReport,
};
use dlacep_core::filter::PassthroughFilter;
use dlacep_core::runtime::{EmittedMark, StreamingDlacep};
use dlacep_dur::{
    load_latest_checkpoint, FailingStore, MemStore, Schedule, Store, WalConfig, CKPT_VERSION,
    EMIT_LOG_NAME,
};
use dlacep_events::{AttrValue, KeyExtractor, TypeId, WindowSpec};
use dlacep_obs::Registry;
use dlacep_serve::{FleetConfig, FleetReport, ShardRecovery, ShardedDlacep};
use std::sync::Arc;

const RUNTIME_V1: &str = include_str!("fixtures/runtime_checkpoint_pr19.hex");
const DURABLE_STORE_V1: &str = include_str!("fixtures/durable_store_pr19.txt");
const SHARD_STORE_V1: &str = include_str!("fixtures/shard_store_pr19.txt");
const DURABLE_STORE_V2: &str = include_str!("fixtures/durable_store_pr22.txt");
const SHARD_STORE_V2: &str = include_str!("fixtures/shard_store_pr22.txt");
const DURABLE_STORE_RETRAIN: &str = include_str!("fixtures/durable_store_retrain_pr27.txt");
const SHARD_STORE_RETRAIN: &str = include_str!("fixtures/shard_store_retrain_pr27.txt");
const DURABLE_STORE_EMIT: &str = include_str!("fixtures/durable_store_emit_pr28.txt");
const SHARD_STORE_EMIT: &str = include_str!("fixtures/shard_store_emit_pr28.txt");

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
fn registry() -> Arc<Registry> {
    Arc::new(Registry::with_journal_capacity(64))
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
    StreamingDlacep::builder(pattern(), PassthroughFilter)
        .obs(registry())
        .durable(dur_config(), store)
        .build()
        .unwrap()
}

fn recover_durable(
    store: MemStore,
) -> (DurableDlacep<PassthroughFilter, MemStore>, RecoveryReport) {
    StreamingDlacep::builder(pattern(), PassthroughFilter)
        .obs(registry())
        .durable(dur_config(), store)
        .recover()
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
    let mut resumed = StreamingDlacep::builder(pattern(), PassthroughFilter)
        .restore(ckpt)
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
    let emitted_before = dur.runtime().match_seq();
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
    assert!(dur.runtime().match_seq() >= emitted_before);
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
    assert!(!dur.matches().is_empty());
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

/// The durable fixture's stop: the swap lands at event 90, the next
/// checkpoint at 96.
const RETRAIN_STOP: usize = 96;
/// The fleet fixture's stop: key 0 swaps by event 112, the fleet
/// checkpoints at 144.
const FLEET_RETRAIN_STOP: usize = 144;

fn model_files(store: &MemStore) -> Vec<(String, Vec<u8>)> {
    let names = store.list().unwrap().into_iter();
    let models = names.filter(|n| n.starts_with("model-"));
    models
        .map(|n| {
            let bytes = store.read(&n).unwrap();
            (n, bytes)
        })
        .collect()
}

/// Every file of `fixture` but its model files is byte for byte what this
/// build wrote, and this build wrote nothing else.
fn assert_bytes_equal_but_models(fixture: &MemStore, rebuilt: &MemStore, ctx: &str) {
    let mut names = fixture.list().unwrap();
    names.retain(|n| !n.starts_with("model-"));
    assert_eq!(rebuilt.list().unwrap(), names, "{ctx}: the same files");
    for name in names {
        assert_eq!(
            rebuilt.read(&name).unwrap(),
            fixture.read(&name).unwrap(),
            "{ctx}: {name} differs from the parent's encoding"
        );
    }
}

fn retrain_durable(store: MemStore) -> (DurableDlacep<SweepFilter, MemStore>, RecoveryReport) {
    let pattern = common::seq_ab(6);
    let config = common::retrain_config();
    let retrain = config.retrain.expect("the sweep retrains");
    StreamingDlacep::builder(pattern.clone(), common::sweep_filter(&pattern))
        .config(config)
        .retrain(retrain, common::sweep_trainer(&pattern))
        .obs(Arc::new(Registry::with_journal_capacity(8192)))
        .durable(common::dur_config(), store)
        .recover()
        .expect("the store recovers")
}

fn feed_retrain(dur: &mut DurableDlacep<SweepFilter, MemStore>, input: &[common::Offer]) {
    for (t, ts, attrs) in input {
        dur.ingest(*t, *ts, attrs.clone()).unwrap();
    }
}

#[test]
fn retrain_durable_store_redeploys_from_the_checkpoint_and_keeps_its_model_file() {
    let input = common::offers(120, 0.0, 7);
    let fixture = load_store(DURABLE_STORE_RETRAIN);
    let models = model_files(&fixture);
    let names: Vec<&str> = models.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(names, ["model-0000000000000001.mdl"]);

    let (mut rebuilt, _) = retrain_durable(MemStore::new());
    feed_retrain(&mut rebuilt, &input[..RETRAIN_STOP]);
    rebuilt.sync().unwrap();
    assert_bytes_equal_but_models(&fixture, &rebuilt.into_store(), "durable");

    let reference = {
        let (mut dur, _) = retrain_durable(MemStore::new());
        feed_retrain(&mut dur, &input);
        dur.finish()
    };
    let (mut dur, report) = retrain_durable(fixture);
    assert_eq!(report.checkpoint_seq, Some(RETRAIN_STOP as u64));
    assert_eq!((report.wal_replayed, report.model_version), (0, Some(1)));
    feed_retrain(&mut dur, &input[RETRAIN_STOP..]);
    let got = dur.finish();
    assert_eq!(got.matches, reference.matches);
    assert_eq!(got.timeline, reference.timeline);
    assert_eq!(got.extractor_stats, reference.extractor_stats);
    let retrain = got.retrain.expect("a supervisor runs");
    assert_eq!(Some(retrain), reference.retrain);
    assert_eq!(
        (retrain.active_version, retrain.models_accepted),
        (Some(1), 1)
    );

    let (mut dur, _) = retrain_durable(load_store(DURABLE_STORE_RETRAIN));
    feed_retrain(&mut dur, &input[RETRAIN_STOP..]);
    dur.checkpoint_now().unwrap();
    assert_eq!(
        model_files(&dur.into_store()),
        models,
        "model files untouched"
    );
}

/// A fleet fixture: `shard-NNNN/name hex` lines.
fn load_shards(dump: &str) -> Vec<MemStore> {
    let mut stores = vec![MemStore::new(); common::FLEET_SHARDS as usize];
    for line in dump.lines() {
        let (shard, entry) = line.split_once('/').expect("`shard/name hex` lines");
        let index: usize = shard.strip_prefix("shard-").unwrap().parse().unwrap();
        let (name, hex) = entry.split_once(' ').expect("`name hex` lines");
        stores[index].append(name, &from_hex(hex)).unwrap();
    }
    stores
}

fn retrain_fleet(
    stores: Vec<MemStore>,
) -> (ShardedDlacep<SweepFilter, MemStore>, Vec<ShardRecovery>) {
    let (p, pt) = (common::seq_ab(6), common::seq_ab(6));
    let (fleet, report) = ShardedDlacep::recover(
        common::seq_ab(6),
        FleetConfig {
            obs: true,
            ..common::fleet_config()
        },
        Arc::new(move || common::sweep_filter(&p)),
        Arc::new(move || Some(common::sweep_trainer(&pt))),
        stores,
    )
    .expect("the stores recover");
    (fleet, report.shards)
}

#[test]
fn retrain_shard_stores_redeploy_from_the_checkpoint() {
    let input = common::fleet_offers();
    let fixture = load_shards(SHARD_STORE_RETRAIN);
    assert!(fixture.iter().all(|s| model_files(s).is_empty()));

    let (mut rebuilt, _) = retrain_fleet(vec![MemStore::new(), MemStore::new()]);
    for (t, ts, attrs) in &input[..FLEET_RETRAIN_STOP] {
        rebuilt.ingest(*t, *ts, attrs.clone()).unwrap();
    }
    rebuilt.sync().unwrap();
    for (i, store) in rebuilt.into_stores().iter().enumerate() {
        assert_bytes_equal_but_models(&fixture[i], store, &format!("shard {i}"));
    }

    // Recovered with nothing replayed, key 0 already marks with model v1.
    let (fleet, shards) = retrain_fleet(fixture.clone());
    assert!(shards
        .iter()
        .all(|s| s.checkpoint_seq.is_some() && s.wal_replayed == 0));
    let key0 = fleet.finish().keys.remove(0);
    let retrain = key0.report.retrain.expect("key 0 runs a supervisor");
    assert_eq!((key0.key, retrain.active_version), (0, Some(1)));

    let reference = {
        let (mut fleet, _) = retrain_fleet(vec![MemStore::new(), MemStore::new()]);
        for (t, ts, attrs) in &input {
            fleet.ingest(*t, *ts, attrs.clone()).unwrap();
        }
        fleet.finish()
    };
    let (mut fleet, _) = retrain_fleet(fixture);
    for (t, ts, attrs) in &input[FLEET_RETRAIN_STOP..] {
        fleet.ingest(*t, *ts, attrs.clone()).unwrap();
    }
    let got = fleet.finish();
    assert_fleet_equal(&got, &reference);
    for (got, want) in got.keys.iter().zip(&reference.keys) {
        assert_eq!(got.report.retrain, want.report.retrain, "key {}", got.key);
    }
}

/// The `*_emit_pr28` pattern: `SEQ(a, b)` with `a` any of types 0, 4, 8 and
/// `b` any of 1, 5, 9 — under `ByTypeGroup(4)` keys 0, 1 and 2 each match
/// on their own.
fn emit_pattern() -> Pattern {
    let types = |ts: [u32; 3]| TypeSet::new(ts.into_iter().map(TypeId).collect());
    Pattern::new(
        PatternExpr::Seq(vec![
            PatternExpr::event(types([0, 4, 8]), "a"),
            PatternExpr::event(types([1, 5, 9]), "b"),
        ]),
        vec![],
        WindowSpec::Count(6),
    )
}

/// 96 offers from a fixed LCG over types 0..12.
fn emit_offers() -> Vec<Offer> {
    let mut state = 0x0e_a1_7a_11_u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        state >> 33
    };
    (0..96u64)
        .map(|i| {
            (
                TypeId((next() % 12) as u32),
                i * 10,
                vec![(next() % 100) as f64],
            )
        })
        .collect()
}

/// Checkpoints at offers 24, 48 and 72.
fn emit_dur_config() -> DurConfig {
    DurConfig {
        wal: WalConfig {
            segment_max_bytes: 512,
            sync_every: 4,
        },
        checkpoint_every_events: 24,
    }
}

fn emit_fleet_config() -> FleetConfig {
    FleetConfig {
        shards: common::FLEET_SHARDS,
        key_extractor: KeyExtractor::ByTypeGroup(4),
        wal: WalConfig {
            segment_max_bytes: 512,
            sync_every: 0,
        },
        sync_every_events: 8,
        checkpoint_every_events: 24,
        obs: true,
        ..FleetConfig::default()
    }
}

/// The third checkpoint falls on the last offer the crash images feed.
const EMIT_STOP: usize = 72;

/// The durable store of a run that dies at durability tick `tick`.
fn durable_crash_image(tick: u64) -> MemStore {
    let store = FailingStore::crash_at(MemStore::new(), tick);
    let mut dur = StreamingDlacep::builder(emit_pattern(), PassthroughFilter)
        .obs(registry())
        .durable(emit_dur_config(), store)
        .build()
        .unwrap();
    for (t, ts, attrs) in emit_offers().into_iter().take(EMIT_STOP) {
        if dur.ingest(t, ts, attrs).is_err() {
            break;
        }
    }
    dur.into_store().into_durable()
}

/// The shard stores of a fleet whose last shard dies at tick `tick`.
fn fleet_crash_image(tick: u64) -> Vec<MemStore> {
    let last = common::FLEET_SHARDS as usize - 1;
    let stores = (0..=last)
        .map(|i| {
            let schedule = if i == last {
                Schedule::never().at(tick)
            } else {
                Schedule::never()
            };
            FailingStore::new(MemStore::new(), schedule)
        })
        .collect();
    let mut fleet = ShardedDlacep::create(
        emit_pattern(),
        emit_fleet_config(),
        Arc::new(|| PassthroughFilter),
        Arc::new(|| None),
        stores,
    )
    .unwrap();
    for (t, ts, attrs) in emit_offers().into_iter().take(EMIT_STOP) {
        if fleet.ingest(t, ts, attrs).is_err() {
            break;
        }
    }
    let stores = fleet.into_stores();
    stores.into_iter().map(FailingStore::into_durable).collect()
}

/// The tick of the durable fixture's crash, found by the recording commit:
/// the rename that would publish checkpoint 72.
const DURABLE_EMIT_CRASH: u64 = 7073;
/// The tick of the fleet fixture's crash on its last shard: the rename that
/// would publish that shard's third checkpoint.
const FLEET_EMIT_CRASH: u64 = 3759;

/// Two published checkpoints, the third's unpublished `.tmp`, and an emit
/// log.
fn assert_emit_tail_image(store: &MemStore, tmp: &str) {
    let names = store.list().unwrap();
    assert_eq!(names.iter().filter(|n| n.ends_with(".ck")).count(), 2);
    assert!(store.exists(tmp).unwrap(), "{names:?}");
    assert!(store.len(EMIT_LOG_NAME).unwrap() > 0);
}

fn emit_durable(store: MemStore) -> (DurableDlacep<PassthroughFilter, MemStore>, RecoveryReport) {
    StreamingDlacep::builder(emit_pattern(), PassthroughFilter)
        .obs(registry())
        .durable(emit_dur_config(), store)
        .recover()
        .expect("the store recovers")
}

#[test]
fn emit_tail_durable_store_is_written_byte_for_byte_and_recovers() {
    let input = emit_offers();
    let fixture = load_store(DURABLE_STORE_EMIT);
    assert_emit_tail_image(&fixture, "ckpt-0000000000000048.tmp");
    let rebuilt = durable_crash_image(DURABLE_EMIT_CRASH);
    assert_bytes_equal(&fixture, &rebuilt, "", "durable");

    let reference = {
        let (mut dur, _) = emit_durable(MemStore::new());
        feed_durable(&mut dur, &input);
        dur.finish()
    };
    assert_eq!(reference.matches.len(), 25, "the parent's output");
    let mut plain = StreamingDlacep::new(emit_pattern(), PassthroughFilter).unwrap();
    for (t, ts, attrs) in &input {
        plain.ingest(*t, *ts, attrs.clone()).unwrap();
    }
    assert_eq!(plain.finish().matches, reference.matches);

    // The parent's report: checkpoint 48 restored, the tail past it cut,
    // offers 48..72 replayed.
    let (mut dur, report) = emit_durable(fixture);
    assert_eq!(report.checkpoint_seq, Some(48));
    assert_eq!((report.wal_replayed, report.resume_seq), (24, 72));
    assert_eq!(report.emit_truncated_bytes, 196);
    let emitted = dur.runtime().match_seq() as usize;
    assert!(
        dur.runtime().matches_so_far().len() < emitted,
        "the logged output stays with the durable tier"
    );
    assert_eq!(dur.matches(), reference.matches[..emitted]);
    feed_durable(&mut dur, &input[EMIT_STOP..]);
    let got = dur.finish();
    assert_eq!(got.matches, reference.matches);
    assert_eq!(got.extractor_stats, reference.extractor_stats);
    assert_eq!(got.timeline, reference.timeline);
}

#[test]
fn emit_tail_shard_stores_are_written_byte_for_byte_and_recover() {
    let input = emit_offers();
    let fixture = load_shards(SHARD_STORE_EMIT);
    assert_emit_tail_image(&fixture[1], "ckpt-0000000000000011.tmp");
    let rebuilt = fleet_crash_image(FLEET_EMIT_CRASH);
    for (i, (want, got)) in fixture.iter().zip(&rebuilt).enumerate() {
        assert_bytes_equal(want, got, "", &format!("shard {i}"));
    }

    let create = |stores| {
        let (filter, trainer) = (Arc::new(|| PassthroughFilter), Arc::new(|| None));
        ShardedDlacep::recover(emit_pattern(), emit_fleet_config(), filter, trainer, stores)
            .expect("the stores recover")
    };
    let reference = {
        let (mut fleet, _) = create(vec![MemStore::new(), MemStore::new()]);
        feed_fleet(&mut fleet, &input);
        fleet.finish()
    };
    let per_key: Vec<(u64, u32, usize)> = reference
        .keys
        .iter()
        .map(|k| (k.key, k.shard, k.report.matches.len()))
        .collect();
    assert_eq!(per_key, [(0, 0, 3), (1, 1, 5), (2, 0, 13)], "the parent's");

    // The parent's report: shard 0 published its third checkpoint, shard 1
    // cut the tail past its second and replays what followed.
    let (mut fleet, report) = create(fixture);
    let shards: Vec<_> = report
        .shards
        .iter()
        .map(|s| {
            let replay = (s.keys_restored, s.wal_replayed, s.emit_truncated_bytes);
            (s.checkpoint_seq, replay, s.high_water)
        })
        .collect();
    assert_eq!(
        shards,
        [(Some(55), (2, 0, 0), 72), (Some(8), (1, 9, 210), 72)]
    );
    assert_eq!(report.resume_seq, EMIT_STOP as u64 + 1);
    assert_eq!(fleet.stats().matches, 14);
    feed_fleet(&mut fleet, &input[EMIT_STOP..]);
    assert_fleet_equal(&fleet.finish(), &reference);
}
