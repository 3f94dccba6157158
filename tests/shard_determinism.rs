//! Shard-determinism battery for the `dlacep-serve` fleet.
//!
//! The serving tier's contract is that shard count is a pure *placement*
//! knob and thread count a pure *throughput* knob: a fleet's merged result
//! — per-key matches (values and order), every per-key report counter, the
//! fleet totals, and the per-key deterministic metric views — must be
//! bitwise identical across `shards ∈ {1, 2, 4, 8}` × `threads ∈ {1, 4}`,
//! on both the stock and synthetic workloads. Keys never share assembler
//! windows, so repacking keys onto shards (or onto pool workers) must not
//! leak into anything a caller can observe.

use dlacep::cep::{Pattern, PatternExpr, TypeSet};
use dlacep::core::{OracleFilter, Parallelism, RuntimeConfig, RuntimeReport};
use dlacep::data::{StockConfig, SyntheticConfig};
use dlacep::dur::MemStore;
use dlacep::events::{
    EventStream, KeyExtractor, OutOfOrderPolicy, PrimitiveEvent, TypeId, WindowSpec,
};
use dlacep::serve::{FleetConfig, FleetReport, ShardedDlacep};
use std::sync::Arc;

const SHARDS: [u32; 4] = [1, 2, 4, 8];
const THREADS: [usize; 2] = [1, 4];

fn seq_pattern(types: &[u32], w: u64) -> Pattern {
    let leaves = types
        .iter()
        .enumerate()
        .map(|(i, &t)| PatternExpr::event(TypeSet::single(TypeId(t)), format!("s{i}")))
        .collect();
    Pattern::new(PatternExpr::Seq(leaves), vec![], WindowSpec::Count(w))
}

fn stock_stream(n: usize) -> EventStream {
    let (_, stream) = StockConfig {
        num_events: n,
        ..Default::default()
    }
    .generate();
    stream
}

fn synthetic_stream(n: usize) -> EventStream {
    let (_, stream) = SyntheticConfig {
        num_events: n,
        ..Default::default()
    }
    .generate();
    stream
}

fn run_fleet(shards: u32, threads: usize, pattern: &Pattern, stream: &EventStream) -> FleetReport {
    let cfg = FleetConfig {
        shards,
        // Group consecutive type ids so multi-type SEQ patterns stay
        // matchable inside one key.
        key_extractor: KeyExtractor::ByTypeGroup(4),
        runtime: RuntimeConfig {
            parallelism: Parallelism::with_threads(threads),
            ..RuntimeConfig::default()
        },
        obs: true,
        // Tight cadences so syncs and mid-run checkpoints are exercised on
        // every configuration — durability ticks must not perturb results.
        sync_every_events: 16,
        checkpoint_every_events: 640,
        ..FleetConfig::default()
    };
    let stores: Vec<MemStore> = (0..shards).map(|_| MemStore::new()).collect();
    let pat = pattern.clone();
    let mut fleet = ShardedDlacep::create(
        pattern.clone(),
        cfg,
        Arc::new(move || OracleFilter::new(pat.clone())),
        Arc::new(|| None),
        stores,
    )
    .unwrap();
    for chunk in stream.events().chunks(97) {
        fleet.ingest_batch(chunk).unwrap();
    }
    fleet.finish()
}

fn assert_runtime_reports_equal(a: &RuntimeReport, b: &RuntimeReport, ctx: &str) {
    assert_eq!(a.matches, b.matches, "{ctx}: matches (values and order)");
    assert_eq!(a.events_offered, b.events_offered, "{ctx}: offered");
    assert_eq!(a.events_admitted, b.events_admitted, "{ctx}: admitted");
    assert_eq!(a.events_dropped, b.events_dropped, "{ctx}: dropped");
    assert_eq!(a.events_clamped, b.events_clamped, "{ctx}: clamped");
    assert_eq!(a.events_relayed, b.events_relayed, "{ctx}: relayed");
    assert_eq!(a.windows_evaluated, b.windows_evaluated, "{ctx}: windows");
    assert_eq!(a.windows_degraded, b.windows_degraded, "{ctx}: degraded");
    assert_eq!(a.guard, b.guard, "{ctx}: guard stats");
    assert_eq!(a.timeline, b.timeline, "{ctx}: timeline");
    assert_eq!(a.final_mode, b.final_mode, "{ctx}: final mode");
    assert_eq!(a.drift_state, b.drift_state, "{ctx}: drift state");
    assert_eq!(
        a.extractor_stats, b.extractor_stats,
        "{ctx}: extractor stats"
    );
}

/// Same keys, and every key's runtime report equal field for field.
fn assert_key_reports_equal(a: &FleetReport, b: &FleetReport, ctx: &str) {
    let keys_a: Vec<u64> = a.keys.iter().map(|k| k.key).collect();
    let keys_b: Vec<u64> = b.keys.iter().map(|k| k.key).collect();
    assert_eq!(keys_a, keys_b, "{ctx}: key sets");
    for (ka, kb) in a.keys.iter().zip(&b.keys) {
        assert_runtime_reports_equal(&ka.report, &kb.report, &format!("{ctx}: key {}", ka.key));
    }
}

fn assert_fleet_reports_equal(a: &FleetReport, b: &FleetReport, ctx: &str) {
    assert_key_reports_equal(a, b, ctx);
    assert_eq!(a.totals, b.totals, "{ctx}: fleet totals");
    assert_eq!(
        a.matches()
            .iter()
            .map(|(k, m)| (*k, (*m).clone()))
            .collect::<Vec<_>>(),
        b.matches()
            .iter()
            .map(|(k, m)| (*k, (*m).clone()))
            .collect::<Vec<_>>(),
        "{ctx}: merged match stream"
    );
    assert_eq!(
        a.deterministic_views(),
        b.deterministic_views(),
        "{ctx}: deterministic metric views"
    );
}

#[test]
fn fleet_results_identical_across_shard_and_thread_counts() {
    for (name, pattern, stream) in [
        ("stock", seq_pattern(&[0, 1, 2], 12), stock_stream(2_500)),
        (
            "synthetic",
            seq_pattern(&[0, 1], 8),
            synthetic_stream(2_500),
        ),
    ] {
        let baseline = run_fleet(1, 1, &pattern, &stream);
        assert!(
            baseline.totals.matches > 0,
            "{name}: pattern must match the keyed stream for the test to mean anything"
        );
        assert!(
            baseline.keys.len() > 1,
            "{name}: the workload must span several keys"
        );
        for shards in SHARDS {
            for threads in THREADS {
                if (shards, threads) == (1, 1) {
                    continue;
                }
                let got = run_fleet(shards, threads, &pattern, &stream);
                assert_fleet_reports_equal(
                    &baseline,
                    &got,
                    &format!("{name}: shards={shards} threads={threads} vs baseline"),
                );
            }
        }
    }
}

/// The answer must not depend on how the stream was cut into calls, or on a
/// crash — in order, and with timestamps that regress within a key: every
/// event of a batch is offered and judged by the out-of-order policy on its
/// own, exactly as when offered one by one, and as WAL replay offers it
/// after a crash.
#[test]
fn per_event_batched_and_recovered_fleets_agree() {
    let pattern = seq_pattern(&[0, 1, 2], 12);
    let in_order: Vec<PrimitiveEvent> = stock_stream(1_500).events().to_vec();
    let mut regressing = in_order.clone();
    for ev in regressing.iter_mut().skip(5).step_by(11) {
        ev.ts.0 /= 2;
    }
    for (events, policy) in [
        (&in_order, OutOfOrderPolicy::Reject),
        (&regressing, OutOfOrderPolicy::Reject),
        (&regressing, OutOfOrderPolicy::Drop),
        (&regressing, OutOfOrderPolicy::ClampToLastTs),
    ] {
        let cfg = || FleetConfig {
            shards: 2,
            key_extractor: KeyExtractor::ByTypeGroup(4),
            runtime: RuntimeConfig {
                ooo_policy: policy,
                ..RuntimeConfig::default()
            },
            obs: true,
            sync_every_events: 16,
            checkpoint_every_events: 640,
            ..FleetConfig::default()
        };
        let mk_filter = || {
            let pat = pattern.clone();
            Arc::new(move || OracleFilter::new(pat.clone()))
        };
        let create = || {
            let stores = vec![MemStore::new(), MemStore::new()];
            ShardedDlacep::create(
                pattern.clone(),
                cfg(),
                mk_filter(),
                Arc::new(|| None),
                stores,
            )
            .unwrap()
        };

        let mut per_event = create();
        for ev in events {
            per_event
                .ingest(ev.type_id, ev.ts.0, ev.attrs.clone())
                .unwrap();
        }
        let per_event = per_event.finish();
        let t = per_event.totals;
        assert!(t.matches > 0, "{policy:?}: the stream must still match");
        assert_eq!(
            t.events_admitted - t.events_clamped < t.events_offered,
            !std::ptr::eq(events, &in_order),
            "{policy:?}: timestamps regress within a key exactly in the regressing stream"
        );

        let mut batched = create();
        for chunk in events.chunks(97) {
            batched.ingest_batch(chunk).unwrap();
        }
        assert_fleet_reports_equal(
            &per_event,
            &batched.finish(),
            &format!("{policy:?}: per-event vs batched"),
        );

        // Crash after a synced prefix (past the checkpoint at 640), recover
        // from checkpoint + WAL replay, re-feed the rest in batches.
        let mut crashed = create();
        for chunk in events[..1_000].chunks(97) {
            crashed.ingest_batch(chunk).unwrap();
        }
        crashed.sync().unwrap();
        let (mut recovered, report) = ShardedDlacep::recover(
            pattern.clone(),
            cfg(),
            mk_filter(),
            Arc::new(|| None),
            crashed.into_stores(),
        )
        .unwrap();
        let resume_at = report.resume_seq as usize - 1;
        assert!(
            (640..=1_000).contains(&resume_at),
            "{policy:?}: {resume_at}"
        );
        for chunk in events[resume_at..].chunks(97) {
            recovered.ingest_batch(chunk).unwrap();
        }
        assert_key_reports_equal(
            &per_event,
            &recovered.finish(),
            &format!("{policy:?}: per-event vs crash + recover + re-feed"),
        );
    }
}

/// A checkpoint writes, per shard and in this order: WAL sync, emit-log
/// append, emit-log sync, checkpoint publish (tmp, fsync, rename), prune.
/// Kill one shard's store at every durability tick of that sequence — so the
/// emit log is found torn, whole but not yet covered by a checkpoint, or
/// covered — and recover both from the disk as found and with that shard's
/// newest checkpoint corrupted (fallback to the older retained one, whose
/// emit-log offset lies further back). Recovered and re-fed, every key's
/// match sequence and counters are the uninterrupted run's, and its journal
/// is a suffix of the uninterrupted journal.
#[test]
fn crash_at_every_tick_of_a_checkpoint_recovers_to_the_uninterrupted_run() {
    use dlacep::core::PassthroughFilter;
    use dlacep::dur::{FailingStore, Schedule, Store};
    use dlacep::serve::FleetError;

    const SHARDS: usize = 2;
    // Checkpoints after 40 and 80 events; the third, after 120, is swept.
    const CHECKPOINTS: [usize; 3] = [40, 80, 120];
    // Two keys under `ByTypeGroup(4)`, one per shard, both matching: every
    // tick of the sweep is one more run of the fleet, so the state is small.
    let step = |name: &str, a: u32, b: u32| {
        PatternExpr::event(TypeSet::new(vec![TypeId(a), TypeId(b)]), name)
    };
    let pattern = Pattern::new(
        PatternExpr::Seq(vec![step("s0", 0, 4), step("s1", 1, 5)]),
        vec![],
        WindowSpec::Count(6),
    );
    let mut state = 0x5eed_u64;
    let events: Vec<PrimitiveEvent> = (0..140u64)
        .map(|i| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            PrimitiveEvent::new(i, TypeId((state >> 33) as u32 % 8), i, vec![i as f64])
        })
        .collect();
    fn cfg() -> FleetConfig {
        FleetConfig {
            shards: SHARDS as u32,
            key_extractor: KeyExtractor::ByTypeGroup(4),
            obs: true,
            journal_capacity: 4096,
            sync_every_events: 16,
            checkpoint_every_events: 0,
            ..FleetConfig::default()
        }
    }
    type Fleet<S> = ShardedDlacep<PassthroughFilter, S>;
    fn create<S: Store>(pattern: &Pattern, stores: Vec<S>) -> Fleet<S> {
        ShardedDlacep::create(
            pattern.clone(),
            cfg(),
            Arc::new(|| PassthroughFilter),
            Arc::new(|| None),
            stores,
        )
        .unwrap()
    }
    // Feed `events[from..upto]`, checkpointing at each listed position the
    // range ends on.
    fn feed<S: Store>(
        fleet: &mut Fleet<S>,
        events: &[PrimitiveEvent],
        from: usize,
        upto: usize,
    ) -> Result<(), FleetError> {
        let mut at = from;
        for stop in CHECKPOINTS.into_iter().chain([events.len()]) {
            let stop = stop.min(upto);
            if stop <= at {
                continue;
            }
            for chunk in events[at..stop].chunks(40) {
                fleet.ingest_batch(chunk)?;
            }
            at = stop;
            if CHECKPOINTS.contains(&at) {
                fleet.checkpoint_now()?;
            }
        }
        Ok(())
    }
    let reference = {
        let mut fleet = create(&pattern, (0..SHARDS).map(|_| MemStore::new()).collect());
        feed(&mut fleet, &events, 0, events.len()).unwrap();
        fleet.finish()
    };
    assert_eq!(
        reference.shards.iter().map(|s| s.keys).collect::<Vec<_>>(),
        [1, 1]
    );
    assert!(reference.keys.iter().all(|k| k.report.matches.len() > 8));

    // Ticks each shard has spent just before, and just after, the swept
    // checkpoint (the run is deterministic, so two probes line up).
    let ticks_after = |upto: usize, last_checkpoint: bool| -> Vec<u64> {
        let stores = (0..SHARDS)
            .map(|_| FailingStore::new(MemStore::new(), Schedule::never()))
            .collect();
        let mut fleet = create(&pattern, stores);
        feed(&mut fleet, &events, 0, upto - 1).unwrap();
        fleet.ingest_batch(&events[upto - 1..upto]).unwrap();
        if last_checkpoint {
            fleet.checkpoint_now().unwrap();
        }
        fleet.into_stores().iter().map(|s| s.ticks()).collect()
    };
    let (before, after) = (
        ticks_after(CHECKPOINTS[2], false),
        ticks_after(CHECKPOINTS[2], true),
    );

    let journal = |r: &RuntimeReport| -> Vec<_> {
        let entries = &r.obs.as_ref().expect("obs is on").journal.entries;
        entries
            .iter()
            .map(|e| (e.kind.clone(), e.fields.clone()))
            .collect()
    };
    // Crash points at which recovery found the emit log ahead of the
    // checkpoint it restored, `[as found, newest corrupted]`.
    let mut log_ahead = [0u64; 2];
    for shard in 0..SHARDS {
        assert!(after[shard] > before[shard] + 100, "shard {shard}");
        for tick in before[shard]..after[shard] {
            let stores = (0..SHARDS)
                .map(|i| {
                    let schedule = if i == shard {
                        Schedule::never().at(tick)
                    } else {
                        Schedule::never()
                    };
                    FailingStore::new(MemStore::new(), schedule)
                })
                .collect();
            let mut fleet = create(&pattern, stores);
            let err = feed(&mut fleet, &events, 0, CHECKPOINTS[2])
                .expect_err("the crash tick lies inside the third checkpoint");
            assert!(
                matches!(err, FleetError::Io(_) | FleetError::Wal(_)),
                "shard {shard} tick {tick}: {err}"
            );
            let disks: Vec<MemStore> = fleet
                .into_stores()
                .into_iter()
                .map(FailingStore::into_durable)
                .collect();

            for corrupt_newest in [false, true] {
                let ctx = format!("shard {shard} tick {tick} corrupt {corrupt_newest}");
                let mut disks = disks.clone();
                if corrupt_newest {
                    let disk = &mut disks[shard];
                    let names = disk.list().unwrap();
                    let newest = names.iter().rfind(|n| n.ends_with(".ck")).unwrap();
                    let mut bytes = disk.read(newest).unwrap();
                    let mid = bytes.len() / 2;
                    bytes[mid] ^= 0x40;
                    disk.truncate(newest, 0).unwrap();
                    disk.append(newest, &bytes).unwrap();
                }
                let (mut recovered, report) = ShardedDlacep::recover(
                    pattern.clone(),
                    cfg(),
                    Arc::new(|| PassthroughFilter),
                    Arc::new(|| None),
                    disks,
                )
                .unwrap_or_else(|e| panic!("{ctx}: recovery failed: {e}"));
                let found = &report.shards[shard];
                assert!(
                    found.checkpoint_seq.is_some(),
                    "{ctx}: two checkpoints were retained"
                );
                log_ahead[usize::from(corrupt_newest)] += u64::from(found.emit_truncated_bytes > 0);
                let resume = report.resume_seq as usize - 1;
                assert!((CHECKPOINTS[0]..=CHECKPOINTS[2]).contains(&resume), "{ctx}");
                feed(&mut recovered, &events, resume, events.len())
                    .unwrap_or_else(|e| panic!("{ctx}: re-feed failed: {e}"));
                let got = recovered.finish();
                assert_key_reports_equal(&reference, &got, &ctx);
                for (want, got) in reference.keys.iter().zip(&got.keys) {
                    assert!(
                        journal(&want.report).ends_with(&journal(&got.report)),
                        "{ctx}: key {} journal is not a suffix of the uninterrupted one",
                        got.key
                    );
                }
            }
        }
    }
    assert!(
        log_ahead[0] > 0 && log_ahead[1] > log_ahead[0],
        "the sweep must land between emit-log sync and checkpoint publish, \
         and a fallback must find more of the log uncovered: {log_ahead:?}"
    );
}
