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
            parallelism: Parallelism {
                threads,
                min_batch_windows: 1,
                shard_events: usize::MAX / 2,
            },
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
