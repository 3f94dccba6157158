//! The crash-point sweep: the durability layer's equivalence proof.
//!
//! One reference run ingests a stream uninterrupted. Then, for **every**
//! durability tick the workload consumes (each byte an fsync makes durable,
//! each metadata operation), a fresh run is killed at exactly that tick —
//! mid-record, mid-checkpoint, mid-rotation, mid-prune — leaving only what
//! a power cut would leave on disk. Recovery restores the newest valid
//! checkpoint, replays the WAL suffix, re-feeds the source from
//! `resume_seq`, and must finish with a match sequence bitwise identical to
//! the reference and an observability journal equal to the reference's
//! suffix from the restored checkpoint's watermark.
//!
//! The sweep runs on a healthy stream and on a fault-injected degraded one
//! (filter panics/I-O faults keyed by window content, so replay draws the
//! same faults), each with out-of-order arrivals under the Drop policy.
//!
//! Every checkpoint writes WAL sync → emit-log append → emit-log sync →
//! checkpoint publish → prune, so the ticks swept include every point in
//! between: each sweep asserts that some crash left the emit log ahead of
//! the checkpoint recovery restored (torn or whole, it is cut and re-derived
//! by replay), and the healthy stream is swept a second time with the newest
//! published checkpoint corrupted, so recovery falls back to the older one
//! and to its earlier emit-log offset.

mod common;

use common::{
    dur_config, fleet_config, fleet_offers, offers, retrain_config, seq_ab, sweep_filter,
    sweep_trainer, Offer, SweepFilter, FLEET_SHARDS,
};
use dlacep_cep::Pattern;
use dlacep_core::chaos::{ChaosFault, ChaosFilter};
use dlacep_core::durable::{DurError, DurableDlacep};
use dlacep_core::filter::{Filter, OracleFilter, PassthroughFilter};
use dlacep_core::guard::GuardConfig;
use dlacep_core::retrain::ModelTrainer;
use dlacep_core::runtime::{RuntimeConfig, RuntimeError, RuntimeReport, StreamingDlacep};
use dlacep_core::StreamingBuilder;
use dlacep_dur::{FailingStore, MemStore, Schedule, Store, WalError};
use dlacep_events::OutOfOrderPolicy;
use dlacep_obs::{FieldValue, Registry};
use std::sync::Arc;

fn journal_tail(reg: &Registry, from_seq: u64) -> Vec<(String, Vec<(String, FieldValue)>)> {
    reg.journal()
        .snapshot()
        .entries
        .into_iter()
        .filter(|e| e.seq >= from_seq)
        .map(|e| (e.kind, e.fields))
        .collect()
}

fn is_crash(e: &DurError) -> bool {
    matches!(e, DurError::Io(_) | DurError::Wal(WalError::Io(_)))
}

/// Drive the full workload on `store` until completion or injected crash;
/// returns whatever runs to the end, or `None` if the store died.
fn drive<F: Filter, S: Store>(
    dur: &mut DurableDlacep<F, S>,
    input: &[Offer],
    from: usize,
) -> Result<(), DurError> {
    for (t, ts, attrs) in &input[from..] {
        match dur.ingest(*t, *ts, attrs.clone()) {
            Ok(_) => {}
            // Out-of-order rejections are part of the workload under
            // `Reject`; both the original and the recovered run see them.
            Err(DurError::Runtime(RuntimeError::Stream(_))) => {}
            Err(e) => return Err(e),
        }
    }
    dur.checkpoint_now()?;
    Ok(())
}

/// No retrain supervisor: the scenario runs without a trainer.
fn no_trainer<F: Filter>() -> Option<Box<dyn ModelTrainer<F>>> {
    None
}

struct Scenario<F, MkF, MkT>
where
    F: Filter,
    MkF: Fn() -> F,
    MkT: Fn() -> Option<Box<dyn ModelTrainer<F>>>,
{
    pattern: Pattern,
    config: RuntimeConfig,
    mk_filter: MkF,
    mk_trainer: MkT,
    input: Vec<Offer>,
}

impl<F, MkF, MkT> Scenario<F, MkF, MkT>
where
    F: Filter,
    MkF: Fn() -> F,
    MkT: Fn() -> Option<Box<dyn ModelTrainer<F>>>,
{
    /// The runtime every run of the scenario builds, recording into `reg`.
    fn runtime(&self, reg: Arc<Registry>) -> StreamingBuilder<F> {
        let b = StreamingDlacep::builder(self.pattern.clone(), (self.mk_filter)())
            .config(self.config)
            .obs(reg);
        match (self.mk_trainer)() {
            Some(trainer) => {
                let retrain = self
                    .config
                    .retrain
                    .expect("a trainer comes with a retrain config");
                b.retrain(retrain, trainer)
            }
            None => b,
        }
    }

    /// The uninterrupted run: reference matches, report, and journal.
    fn reference(&self) -> (RuntimeReport, Arc<Registry>) {
        let reg = Arc::new(Registry::with_journal_capacity(8192));
        let mut dur = self
            .runtime(reg.clone())
            .durable(dur_config(), MemStore::new())
            .build()
            .unwrap();
        drive(&mut dur, &self.input, 0).expect("reference run must not fail");
        (dur.finish(), reg)
    }

    /// Run the workload on a store that dies at `crash_tick`; return the
    /// durable disk image (or `None` if the workload outlived the tick).
    fn crashed_disk_image(&self, crash_tick: u64) -> Option<MemStore> {
        let store = FailingStore::crash_at(MemStore::new(), crash_tick);
        let reg = Arc::new(Registry::with_journal_capacity(8192));
        let mut dur = self
            .runtime(reg)
            .durable(dur_config(), store)
            .build()
            .expect("opening a fresh store consumes no durability ticks");
        match drive(&mut dur, &self.input, 0) {
            Ok(()) => None,
            Err(e) => {
                assert!(
                    is_crash(&e),
                    "only the injected crash may fail the run: {e}"
                );
                Some(dur.into_store().into_durable())
            }
        }
    }

    /// Total durability ticks of the uncrashed workload.
    fn total_ticks(&self) -> u64 {
        let store = FailingStore::new(MemStore::new(), Schedule::never());
        let reg = Arc::new(Registry::with_journal_capacity(8192));
        let mut dur = self
            .runtime(reg)
            .durable(dur_config(), store)
            .build()
            .unwrap();
        drive(&mut dur, &self.input, 0).unwrap();
        dur.into_store().ticks()
    }

    fn sweep(&self) {
        let fell_back = self.sweep_recovering(|disk| disk);
        assert_eq!(fell_back, 0, "an undamaged disk skips no checkpoint");
    }

    /// The sweep, with `damage` applied to each crashed disk image before
    /// recovery sees it. Returns how many recoveries skipped a checkpoint.
    fn sweep_recovering(&self, damage: impl Fn(MemStore) -> MemStore) -> u64 {
        let (ref_report, ref_reg) = self.reference();
        assert!(
            !ref_report.matches.is_empty(),
            "degenerate scenario: reference found no matches"
        );
        let total = self.total_ticks();
        assert!(total > 100, "workload too small to be a meaningful sweep");
        // Printed so a change to the durability layer can show it asks the
        // store for the same work (`--nocapture`).
        let test = std::thread::current();
        println!("{}: total_ticks {total}", test.name().unwrap_or("sweep"));

        let mut with_checkpoint = 0u64;
        let mut cold_starts = 0u64;
        let mut emit_log_ahead = 0u64;
        let mut fell_back = 0u64;
        for tick in 0..total {
            let Some(disk) = self.crashed_disk_image(tick) else {
                panic!("crash at tick {tick} < total {total} must fire");
            };
            let disk = damage(disk);
            let rec_reg = Arc::new(Registry::with_journal_capacity(8192));
            let (mut rec, report) = self
                .runtime(rec_reg.clone())
                .durable(dur_config(), disk)
                .recover()
                .unwrap_or_else(|e| panic!("recovery after crash at tick {tick} failed: {e}"));
            match report.checkpoint_seq {
                Some(_) => with_checkpoint += 1,
                None => cold_starts += 1,
            }
            emit_log_ahead += u64::from(report.emit_truncated_bytes > 0);
            fell_back += u64::from(report.checkpoints_skipped > 0);
            assert!(
                report.resume_seq as usize <= self.input.len(),
                "tick {tick}: resume_seq beyond the source"
            );

            drive(&mut rec, &self.input, report.resume_seq as usize)
                .unwrap_or_else(|e| panic!("recovered run at tick {tick} failed: {e}"));
            let rec_report = rec.finish();

            assert_eq!(
                rec_report.matches, ref_report.matches,
                "tick {tick}: match sequence diverged"
            );
            assert_eq!(
                rec_report.events_admitted, ref_report.events_admitted,
                "tick {tick}"
            );
            assert_eq!(
                rec_report.windows_evaluated, ref_report.windows_evaluated,
                "tick {tick}"
            );
            assert_eq!(
                rec_report.windows_degraded, ref_report.windows_degraded,
                "tick {tick}"
            );
            assert_eq!(rec_report.guard, ref_report.guard, "tick {tick}");
            assert_eq!(rec_report.timeline, ref_report.timeline, "tick {tick}");
            assert_eq!(
                rec_report.extractor_stats, ref_report.extractor_stats,
                "tick {tick}: engine work counters diverged"
            );
            assert_eq!(
                journal_tail(&rec_reg, 0),
                journal_tail(&ref_reg, report.journal_watermark),
                "tick {tick}: journal sequence diverged from the reference suffix"
            );
        }
        assert!(
            with_checkpoint > 0 && cold_starts > 0,
            "sweep must exercise both cold starts ({cold_starts}) and \
             checkpoint restores ({with_checkpoint})"
        );
        assert!(
            emit_log_ahead > 0,
            "sweep must crash between an emit-log sync and the checkpoint \
             publish that would have covered it"
        );
        fell_back
    }
}

/// Flip a byte in the middle of the newest published checkpoint when an
/// older one is retained behind it. (A lone checkpoint has no fallback: the
/// WAL below it is already pruned, so losing it loses the head of the run.)
fn corrupt_newest_checkpoint(mut disk: MemStore) -> MemStore {
    let names = disk.list().unwrap();
    let published: Vec<&String> = names.iter().filter(|n| n.ends_with(".ck")).collect();
    if let [.., _, newest] = published[..] {
        let mut bytes = disk.read(newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        disk.truncate(newest, 0).unwrap();
        disk.append(newest, &bytes).unwrap();
    }
    disk
}

#[test]
fn crash_sweep_healthy_stream() {
    Scenario {
        pattern: seq_ab(6),
        config: RuntimeConfig::default(),
        mk_filter: || PassthroughFilter,
        mk_trainer: no_trainer,
        input: offers(48, 0.0, 5),
    }
    .sweep();
}

#[test]
fn crash_sweep_healthy_stream_falling_back_past_a_corrupted_newest_checkpoint() {
    let fell_back = Scenario {
        pattern: seq_ab(6),
        config: RuntimeConfig::default(),
        mk_filter: || PassthroughFilter,
        mk_trainer: no_trainer,
        input: offers(48, 0.0, 5),
    }
    .sweep_recovering(corrupt_newest_checkpoint);
    assert!(fell_back > 100, "only {fell_back} recoveries fell back");
}

#[test]
fn crash_sweep_degraded_fault_injected_stream() {
    let pattern = seq_ab(6);
    let p = pattern.clone();
    Scenario {
        pattern,
        config: RuntimeConfig {
            ooo_policy: OutOfOrderPolicy::Drop,
            guard: GuardConfig {
                fault_threshold: 2,
                cooldown_windows: 3,
                ..Default::default()
            },
            ..Default::default()
        },
        // Faults keyed by window content: the recovered run re-marks
        // replayed windows and must draw exactly the faults the original
        // run drew, breaker trips, degraded windows, recovery probes and
        // all.
        mk_filter: move || {
            ChaosFilter::new(OracleFilter::new(p.clone()))
                .fault_at(6, ChaosFault::Panic)
                .fault_at(12, ChaosFault::Io)
                .fault_every(18, ChaosFault::Panic)
                .key_by_window_start()
        },
        mk_trainer: no_trainer,
        input: offers(48, 0.25, 9),
    }
    .sweep();
}

// ---------------------------------------------------------------------------
// Scenario 3: crash at every tick of an *active retrain* — drift signal,
// backoff schedule, panicked attempt, gate-rejected attempt, validated swap,
// and the checkpoints that carry the accepted model. The recovered run must
// replay the supervisor to the identical trajectory.
// ---------------------------------------------------------------------------

#[test]
fn crash_sweep_active_retrain() {
    let pattern = seq_ab(6);
    let p = pattern.clone();
    let pt = pattern.clone();
    Scenario {
        pattern,
        // The sweep kills at every durability tick across the whole
        // trajectory (`common::retrain_config`), including the checkpoints
        // after the swap that carry the accepted model.
        config: retrain_config(),
        mk_filter: move || sweep_filter(&p),
        mk_trainer: move || Some(sweep_trainer(&pt)),
        input: offers(120, 0.0, 7),
    }
    .sweep();
}

// ---------------------------------------------------------------------------
// Scenario 4: the *fleet* sweep. A two-shard `dlacep-serve` fleet carries
// the scenario-3 retrain workload on key 0 (shard 0) interleaved with
// quieter key-1 traffic (shard 1). For every durability tick of every
// shard, the whole fleet is killed with exactly one shard's disk frozen at
// that tick — including ticks that land while key 0's supervisor is
// mid-retrain (drift signalled, attempts panicking/flaky, swap pending) —
// and the recovered fleet, re-fed from `resume_seq`, must finish bitwise
// equal to the uninterrupted reference.
// ---------------------------------------------------------------------------

use dlacep_serve::{
    shard_of, FleetConfig, FleetError, FleetReport, ShardedDlacep, DEFAULT_HASH_SEED,
};

type FilterFactory = Arc<dyn Fn() -> SweepFilter + Send + Sync>;
type TrainerFactory = Arc<dyn Fn() -> Option<Box<dyn ModelTrainer<SweepFilter>>> + Send + Sync>;

fn fleet_factories(pattern: &Pattern) -> (FilterFactory, TrainerFactory) {
    let p = pattern.clone();
    let mk_filter: FilterFactory = Arc::new(move || sweep_filter(&p));
    let pt = pattern.clone();
    let mk_trainer: TrainerFactory = Arc::new(move || Some(sweep_trainer(&pt)));
    (mk_filter, mk_trainer)
}

fn drive_fleet<S: Store>(
    fleet: &mut ShardedDlacep<SweepFilter, S>,
    input: &[Offer],
    from: usize,
) -> Result<(), FleetError> {
    for (t, ts, attrs) in &input[from..] {
        fleet.ingest(*t, *ts, attrs.clone())?;
    }
    fleet.checkpoint_now()?;
    Ok(())
}

fn is_fleet_crash(e: &FleetError) -> bool {
    matches!(e, FleetError::Io(_) | FleetError::Wal(WalError::Io(_)))
}

fn assert_fleet_equal(rec: &FleetReport, reference: &FleetReport, ctx: &str) {
    // refeed_skipped legitimately differs: it counts the re-feed itself.
    let mut tr = rec.totals;
    let mut tf = reference.totals;
    tr.refeed_skipped = 0;
    tf.refeed_skipped = 0;
    assert_eq!(tr, tf, "{ctx}: fleet totals diverged");
    assert_eq!(
        rec.keys
            .iter()
            .map(|k| (k.key, k.shard))
            .collect::<Vec<_>>(),
        reference
            .keys
            .iter()
            .map(|k| (k.key, k.shard))
            .collect::<Vec<_>>(),
        "{ctx}: key placement diverged"
    );
    for (kr, kf) in rec.keys.iter().zip(&reference.keys) {
        let c = format!("{ctx}: key {}", kr.key);
        assert_eq!(kr.report.matches, kf.report.matches, "{c}: matches");
        assert_eq!(kr.report.events_admitted, kf.report.events_admitted, "{c}");
        assert_eq!(
            kr.report.windows_evaluated, kf.report.windows_evaluated,
            "{c}"
        );
        assert_eq!(
            kr.report.windows_degraded, kf.report.windows_degraded,
            "{c}"
        );
        assert_eq!(kr.report.guard, kf.report.guard, "{c}: guard");
        assert_eq!(kr.report.timeline, kf.report.timeline, "{c}: timeline");
        assert_eq!(kr.report.final_mode, kf.report.final_mode, "{c}: mode");
        assert_eq!(kr.report.drift_state, kf.report.drift_state, "{c}: drift");
        assert_eq!(
            kr.report.retrain, kf.report.retrain,
            "{c}: retrain trajectory diverged"
        );
        assert_eq!(
            kr.report.extractor_stats, kf.report.extractor_stats,
            "{c}: engine work counters"
        );
    }
}

#[test]
fn fleet_crash_sweep_multi_shard_with_mid_retrain_shard() {
    let pattern = seq_ab(6);
    let input = fleet_offers();
    let (mk_filter, mk_trainer) = fleet_factories(&pattern);
    let hash_seed = FleetConfig::default().hash_seed;
    assert_eq!(hash_seed, DEFAULT_HASH_SEED);
    assert_ne!(
        shard_of(hash_seed, 0, FLEET_SHARDS),
        shard_of(hash_seed, 1, FLEET_SHARDS),
        "the two keys must land on different shards for the sweep to be multi-shard"
    );

    // Uninterrupted reference.
    let reference = {
        let mut fleet = ShardedDlacep::create(
            pattern.clone(),
            fleet_config(),
            mk_filter.clone(),
            mk_trainer.clone(),
            (0..FLEET_SHARDS).map(|_| MemStore::new()).collect(),
        )
        .unwrap();
        drive_fleet(&mut fleet, &input, 0).expect("reference fleet run must not fail");
        fleet.finish()
    };
    let key0 = reference
        .keys
        .iter()
        .find(|k| k.key == 0)
        .expect("key 0 present");
    assert!(
        !key0.report.matches.is_empty(),
        "degenerate fleet scenario: key 0 found no matches"
    );
    let retrain = key0.report.retrain.expect("key 0 runs a supervisor");
    assert!(
        retrain.models_accepted >= 1 && retrain.active_version.is_some(),
        "key 0's reference run must complete a validated swap so the sweep \
         provably kills shards mid-retrain: {retrain:?}"
    );
    assert_eq!(reference.keys.len(), 2, "both keys must carry traffic");

    // Per-shard tick budgets: (a) ticks consumed by `create` alone (its
    // manifest publish), (b) ticks of the full uncrashed workload. `create`
    // consumes its input stores on failure, so the per-tick sweep starts at
    // the first post-create tick; crash-during-create is covered by the
    // stale-manifest.tmp recovery path in dlacep-serve itself.
    let probe = |full: bool| -> Vec<u64> {
        let stores: Vec<FailingStore<MemStore>> = (0..FLEET_SHARDS)
            .map(|_| FailingStore::new(MemStore::new(), Schedule::never()))
            .collect();
        let mut fleet = ShardedDlacep::create(
            pattern.clone(),
            fleet_config(),
            mk_filter.clone(),
            mk_trainer.clone(),
            stores,
        )
        .unwrap();
        if full {
            drive_fleet(&mut fleet, &input, 0).unwrap();
        }
        fleet.into_stores().iter().map(|s| s.ticks()).collect()
    };
    let create_ticks = probe(false);
    let total_ticks = probe(true);
    println!("fleet sweep: create_ticks {create_ticks:?}, total_ticks {total_ticks:?} per shard");

    let mut with_checkpoint = 0u64;
    let mut replay_only = 0u64;
    let mut swept = 0u64;
    for shard in 0..FLEET_SHARDS as usize {
        assert!(
            total_ticks[shard] > create_ticks[shard] + 20,
            "shard {shard}: workload too small to sweep \
             ({} ticks past create)",
            total_ticks[shard] - create_ticks[shard]
        );
        for tick in create_ticks[shard]..total_ticks[shard] {
            // Freeze exactly one shard's disk at `tick`; the other shards'
            // disks stay healthy — a real fleet loses one machine, and
            // recovery still restarts every shard from durable state.
            let stores: Vec<FailingStore<MemStore>> = (0..FLEET_SHARDS as usize)
                .map(|i| {
                    if i == shard {
                        FailingStore::crash_at(MemStore::new(), tick)
                    } else {
                        FailingStore::new(MemStore::new(), Schedule::never())
                    }
                })
                .collect();
            let mut fleet = ShardedDlacep::create(
                pattern.clone(),
                fleet_config(),
                mk_filter.clone(),
                mk_trainer.clone(),
                stores,
            )
            .expect("create consumes only pre-sweep ticks");
            let err = drive_fleet(&mut fleet, &input, 0)
                .expect_err("crash tick within the workload must fire");
            assert!(
                is_fleet_crash(&err),
                "shard {shard} tick {tick}: only the injected crash may fail: {err}"
            );
            let disks: Vec<MemStore> = fleet
                .into_stores()
                .into_iter()
                .map(FailingStore::into_durable)
                .collect();

            let (mut rec, report) = ShardedDlacep::recover(
                pattern.clone(),
                fleet_config(),
                mk_filter.clone(),
                mk_trainer.clone(),
                disks,
            )
            .unwrap_or_else(|e| panic!("shard {shard} tick {tick}: fleet recovery failed: {e}"));
            assert!(
                report.resume_seq >= 1 && report.resume_seq as usize <= input.len() + 1,
                "shard {shard} tick {tick}: resume_seq {} out of range",
                report.resume_seq
            );
            for s in &report.shards {
                if s.checkpoint_seq.is_some() {
                    with_checkpoint += 1;
                } else {
                    replay_only += 1;
                }
            }
            drive_fleet(&mut rec, &input, (report.resume_seq - 1) as usize).unwrap_or_else(|e| {
                panic!("shard {shard} tick {tick}: recovered fleet failed: {e}")
            });
            assert_fleet_equal(
                &rec.finish(),
                &reference,
                &format!("shard {shard} tick {tick}"),
            );
            swept += 1;
        }
    }
    assert!(
        with_checkpoint > 0 && replay_only > 0,
        "fleet sweep must exercise both checkpoint restores ({with_checkpoint}) \
         and WAL-only replays ({replay_only})"
    );
    assert!(swept > 40, "sweep covered only {swept} crash points");
}
