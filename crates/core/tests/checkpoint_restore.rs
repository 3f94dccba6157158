//! Runtime-level restore equivalence: checkpointing a [`StreamingDlacep`]
//! at *any* point, round-tripping the checkpoint through the binary codec,
//! restoring into a freshly constructed runtime, and finishing the stream
//! there must be indistinguishable from never having stopped — matches,
//! counters, degradation timeline, and the observability journal's
//! (kind, fields) suffix all identical. Covered across out-of-order ingest
//! policies and a fault-injected degraded run; the storage-crash dimension
//! is `crash_sweep.rs`.

use dlacep_cep::Pattern;
use dlacep_cep::{PatternExpr, TypeSet};
use dlacep_core::chaos::{out_of_order_timestamps, ChaosFault, ChaosFilter};
use dlacep_core::durable::{decode_checkpoint, encode_checkpoint};
use dlacep_core::filter::{Filter, OracleFilter, PassthroughFilter};
use dlacep_core::guard::GuardConfig;
use dlacep_core::runtime::{RuntimeConfig, RuntimeError, StreamingDlacep};
use dlacep_core::DriftConfig;
use dlacep_events::{AttrValue, OutOfOrderPolicy, TypeId, WindowSpec};
use dlacep_obs::{FieldValue, Registry};
use std::sync::Arc;

const A: TypeId = TypeId(0);
const B: TypeId = TypeId(1);

fn seq_ab(w: u64) -> Pattern {
    Pattern::new(
        PatternExpr::Seq(vec![
            PatternExpr::event(TypeSet::single(A), "a"),
            PatternExpr::event(TypeSet::single(B), "b"),
        ]),
        vec![],
        WindowSpec::Count(w),
    )
}

/// The offered input: (type, ts, attrs) triples — ids are assigned by the
/// runtime, so equivalence covers id stamping too.
type Offer = (TypeId, u64, Vec<AttrValue>);

fn plain_offers(n: usize) -> Vec<Offer> {
    (0..n)
        .map(|i| {
            let t = match i % 5 {
                1 => A,
                3 => B,
                _ => TypeId(2),
            };
            (t, i as u64, vec![i as f64])
        })
        .collect()
}

fn disordered_offers(n: usize, seed: u64) -> Vec<Offer> {
    let ts = out_of_order_timestamps(n, 0.3, 4, seed);
    (0..n)
        .map(|i| {
            let t = match i % 5 {
                1 => A,
                3 => B,
                _ => TypeId(2),
            };
            (t, ts[i], vec![i as f64])
        })
        .collect()
}

fn feed<F: Filter>(rt: &mut StreamingDlacep<F>, offers: &[Offer]) {
    for (t, ts, attrs) in offers {
        match rt.ingest(*t, *ts, attrs.clone()) {
            Ok(_) => {}
            // `Reject` policy refuses out-of-order events; the caller drops
            // them and carries on — deterministically on both runs.
            Err(RuntimeError::Stream(_)) => {}
            Err(e) => panic!("unexpected ingest error: {e}"),
        }
    }
}

fn journal_tail(reg: &Registry, from_seq: u64) -> Vec<(String, Vec<(String, FieldValue)>)> {
    reg.journal()
        .snapshot()
        .entries
        .into_iter()
        .filter(|e| e.seq >= from_seq)
        .map(|e| (e.kind, e.fields))
        .collect()
}

/// Run `offers` uninterrupted, and split at `split` with a codec-round-
/// tripped checkpoint/restore; both outcomes must agree exactly.
fn assert_restore_equivalent<F: Filter>(
    pattern: Pattern,
    cfg: RuntimeConfig,
    mk_filter: impl Fn() -> F,
    offers: &[Offer],
    split: usize,
) {
    // Reference: one uninterrupted run.
    let ref_reg = Arc::new(Registry::with_journal_capacity(4096));
    let mut reference = StreamingDlacep::builder(pattern.clone(), mk_filter())
        .config(cfg)
        .obs(ref_reg.clone())
        .build()
        .unwrap();
    feed(&mut reference, offers);
    let ref_report = reference.finish();

    // Interrupted: run to `split`, checkpoint, restore elsewhere, continue.
    let first_reg = Arc::new(Registry::with_journal_capacity(4096));
    let mut first = StreamingDlacep::builder(pattern.clone(), mk_filter())
        .config(cfg)
        .obs(first_reg.clone())
        .build()
        .unwrap();
    feed(&mut first, &offers[..split]);
    let ckpt = first.checkpoint();
    let mut ckpt =
        decode_checkpoint(&encode_checkpoint(&ckpt)).expect("checkpoint codec round-trip");
    // Output already emitted is not in the checkpoint (only its mark is):
    // whoever consumed it hands it back, as the durability layer does from
    // its emit log.
    assert!(ckpt.emitted_prefix.is_empty());
    ckpt.emitted_prefix = first.matches_so_far().to_vec();
    drop(first); // the original runtime is gone — only the checkpoint survives

    let rec_reg = Arc::new(Registry::with_journal_capacity(4096));
    let watermark = ckpt.journal_next_seq;
    let mut recovered = StreamingDlacep::builder(pattern, mk_filter())
        .config(cfg)
        .obs(rec_reg.clone())
        .restore(ckpt)
        .unwrap();
    feed(&mut recovered, &offers[split..]);
    let rec_report = recovered.finish();

    // Output equivalence: matches bitwise-identical, in order.
    assert_eq!(rec_report.matches, ref_report.matches, "split at {split}");
    // Trajectory equivalence: every admission/degradation counter agrees.
    assert_eq!(rec_report.events_offered, ref_report.events_offered);
    assert_eq!(rec_report.events_admitted, ref_report.events_admitted);
    assert_eq!(rec_report.events_dropped, ref_report.events_dropped);
    assert_eq!(rec_report.events_clamped, ref_report.events_clamped);
    assert_eq!(rec_report.events_relayed, ref_report.events_relayed);
    assert_eq!(rec_report.windows_evaluated, ref_report.windows_evaluated);
    assert_eq!(rec_report.windows_degraded, ref_report.windows_degraded);
    assert_eq!(rec_report.guard, ref_report.guard, "split at {split}");
    assert_eq!(rec_report.timeline, ref_report.timeline, "split at {split}");
    assert_eq!(rec_report.final_mode, ref_report.final_mode);
    assert_eq!(rec_report.drift_state, ref_report.drift_state);
    assert_eq!(rec_report.retrain_signaled, ref_report.retrain_signaled);
    assert_eq!(
        rec_report.extractor_stats, ref_report.extractor_stats,
        "split at {split}: extractor work counters must continue, not reset"
    );
    // Journal equivalence: the recovered run's journal is exactly the
    // reference journal from the checkpoint's watermark on.
    assert_eq!(
        journal_tail(&rec_reg, 0),
        journal_tail(&ref_reg, watermark),
        "split at {split}: journal suffixes diverge"
    );
}

fn splits(n: usize) -> Vec<usize> {
    vec![0, 1, n / 3, n / 2, n - 7, n - 1, n]
}

#[test]
fn restore_equivalence_healthy_stream() {
    let offers = plain_offers(120);
    for split in splits(offers.len()) {
        assert_restore_equivalent(
            seq_ab(6),
            RuntimeConfig::default(),
            || PassthroughFilter,
            &offers,
            split,
        );
    }
}

#[test]
fn restore_equivalence_under_drop_policy() {
    let offers = disordered_offers(150, 11);
    let cfg = RuntimeConfig {
        ooo_policy: OutOfOrderPolicy::Drop,
        ..Default::default()
    };
    let p = seq_ab(6);
    for split in splits(offers.len()) {
        assert_restore_equivalent(
            p.clone(),
            cfg,
            || OracleFilter::new(p.clone()),
            &offers,
            split,
        );
    }
}

#[test]
fn restore_equivalence_under_clamp_policy() {
    let offers = disordered_offers(150, 23);
    let cfg = RuntimeConfig {
        ooo_policy: OutOfOrderPolicy::ClampToLastTs,
        ..Default::default()
    };
    for split in splits(offers.len()) {
        assert_restore_equivalent(seq_ab(6), cfg, || PassthroughFilter, &offers, split);
    }
}

#[test]
fn restore_equivalence_under_reject_policy() {
    let offers = disordered_offers(150, 37);
    let cfg = RuntimeConfig {
        ooo_policy: OutOfOrderPolicy::Reject,
        ..Default::default()
    };
    for split in splits(offers.len()) {
        assert_restore_equivalent(seq_ab(6), cfg, || PassthroughFilter, &offers, split);
    }
}

/// Degraded-mode equivalence: faults keyed by window content (not call
/// index) so the restored run draws the same faults on the same windows,
/// including mid-cooldown and half-open-probe splits.
#[test]
fn restore_equivalence_with_fault_injected_filter() {
    let p = seq_ab(6);
    let offers = plain_offers(200);
    let cfg = RuntimeConfig {
        guard: GuardConfig {
            fault_threshold: 2,
            cooldown_windows: 3,
            validate_scores: true,
        },
        drift: Some(DriftConfig::with_baseline(0.4)),
        ..Default::default()
    };
    let mk = || {
        ChaosFilter::new(OracleFilter::new(seq_ab(6)))
            .fault_at(30, ChaosFault::Panic)
            .fault_at(40, ChaosFault::Io)
            .fault_at(50, ChaosFault::WrongLength)
            .fault_at(60, ChaosFault::NonFiniteScores)
            .fault_every(45, ChaosFault::Panic)
            .key_by_window_start()
    };
    for split in splits(offers.len()) {
        assert_restore_equivalent(p.clone(), cfg, mk, &offers, split);
    }
}

/// Restoring into a runtime built with a different configuration must be
/// refused — silently continuing with changed window/guard semantics would
/// void the equivalence guarantee.
#[test]
fn restore_rejects_config_mismatch() {
    let offers = plain_offers(40);
    let mut rt = StreamingDlacep::builder(seq_ab(6), PassthroughFilter)
        .build()
        .unwrap();
    feed(&mut rt, &offers);
    let ckpt = rt.checkpoint();

    let other = RuntimeConfig {
        ooo_policy: OutOfOrderPolicy::Drop,
        ..Default::default()
    };
    match StreamingDlacep::builder(seq_ab(6), PassthroughFilter)
        .config(other)
        .restore(ckpt)
    {
        Err(RuntimeError::Restore(msg)) => {
            assert!(msg.contains("configuration"), "got: {msg}")
        }
        Err(e) => panic!("expected Restore error, got {e}"),
        Ok(_) => panic!("config mismatch must not restore"),
    }
}
