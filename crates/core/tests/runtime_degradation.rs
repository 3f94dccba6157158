//! End-to-end degradation tests of the streaming runtime: every fault class
//! the batch pipeline would panic on (filter panics, malformed marks,
//! poisoned scores, state explosions, concept drift, out-of-order input)
//! must leave the process alive, the match set a subset of exact ECEP, and a
//! faithful record in the report's timeline.

use dlacep_cep::{Match, Pattern, PatternExpr, TypeSet};
use dlacep_core::chaos::{out_of_order_timestamps, ChaosFault, ChaosFilter};
use dlacep_core::filter::{Filter, OracleFilter, PassthroughFilter};
use dlacep_core::guard::GuardConfig;
use dlacep_core::runtime::{ModeCause, RuntimeConfig, RuntimeMode, RuntimeReport, StreamingDlacep};
use dlacep_core::{DriftConfig, DriftState};
use dlacep_data::label::ground_truth_matches;
use dlacep_events::{EventId, EventStream, OutOfOrderPolicy, TypeId, WindowSpec};
use std::collections::BTreeSet;

const A: TypeId = TypeId(0);
const B: TypeId = TypeId(1);
const C: TypeId = TypeId(2);

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

/// Sparse A..B pairs (one match per 17-event block) in a sea of C noise.
fn noisy_stream(n: usize) -> EventStream {
    let mut s = EventStream::new();
    for i in 0..n {
        let t = match i % 17 {
            3 => A,
            6 => B,
            _ => C,
        };
        s.push(t, i as u64, vec![0.0]);
    }
    s
}

fn keys(ms: &[Match]) -> BTreeSet<Vec<EventId>> {
    ms.iter().map(|m| m.event_ids.to_vec()).collect()
}

fn run_with<F: Filter>(
    pattern: Pattern,
    filter: F,
    cfg: RuntimeConfig,
    s: &EventStream,
) -> RuntimeReport {
    let mut rt = StreamingDlacep::builder(pattern, filter)
        .config(cfg)
        .build()
        .unwrap();
    for ev in s.events() {
        rt.ingest(ev.type_id, ev.ts.0, ev.attrs.clone()).unwrap();
    }
    rt.finish()
}

#[test]
fn permanently_panicking_filter_degrades_to_exact_cep() {
    let p = seq_ab(8);
    let s = noisy_stream(400);
    let truth = ground_truth_matches(&p, s.events());
    assert!(!truth.is_empty());

    let chaos = ChaosFilter::new(OracleFilter::new(p.clone())).fault_from(0, ChaosFault::Panic);
    let cfg = RuntimeConfig {
        guard: GuardConfig {
            fault_threshold: 3,
            cooldown_windows: 4,
            ..Default::default()
        },
        ..Default::default()
    };
    let report = run_with(p, chaos, cfg, &s);

    // The process survived (we are here), recall is fully preserved because
    // every faulty or bypassed window fails open...
    assert_eq!(keys(&report.matches), keys(&truth));
    assert_eq!(report.events_relayed, report.events_admitted);
    // ...the breaker tripped after exactly `fault_threshold` faults and the
    // run ended degraded, all of it on the record.
    assert!(report.guard.panics >= 3);
    assert!(report.guard.breaker_trips >= 1);
    assert!(
        report.guard.windows_bypassed > 0,
        "open breaker stops invoking the filter"
    );
    assert_eq!(report.final_mode, RuntimeMode::DegradedExact);
    assert!(report
        .timeline
        .iter()
        .any(|t| t.cause == ModeCause::FaultThreshold && t.mode == RuntimeMode::DegradedExact));
    assert!(report.windows_degraded > 0);
}

#[test]
fn transient_faults_recover_through_half_open_probe() {
    let p = seq_ab(8);
    let s = noisy_stream(600);
    let truth = ground_truth_matches(&p, s.events());

    // Faults on the first three invocations only: trip at call 1 (threshold
    // 2), fail one probe (call 2), succeed the next — Closed again.
    let chaos = ChaosFilter::new(OracleFilter::new(p.clone()))
        .fault_at(0, ChaosFault::Panic)
        .fault_at(1, ChaosFault::WrongLength)
        .fault_at(2, ChaosFault::NonFiniteScores);
    let cfg = RuntimeConfig {
        guard: GuardConfig {
            fault_threshold: 2,
            cooldown_windows: 2,
            validate_scores: true,
        },
        ..Default::default()
    };
    let report = run_with(p, chaos, cfg, &s);

    assert_eq!(
        keys(&report.matches),
        keys(&truth),
        "fail-open + oracle keeps full recall"
    );
    assert_eq!(report.guard.panics, 1);
    assert_eq!(report.guard.wrong_length, 1);
    assert_eq!(report.guard.non_finite, 1);
    assert_eq!(
        report.guard.breaker_trips, 2,
        "initial trip plus one failed probe"
    );
    assert_eq!(report.guard.recoveries, 1);
    assert_eq!(report.final_mode, RuntimeMode::Filtering);
    let causes: Vec<ModeCause> = report.timeline.iter().map(|t| t.cause).collect();
    assert!(causes.contains(&ModeCause::FaultThreshold));
    assert!(causes.contains(&ModeCause::ProbeFailed));
    assert!(causes.contains(&ModeCause::Recovered));
    // Timeline window indices are non-decreasing and start at the beginning.
    assert_eq!(report.timeline[0].cause, ModeCause::Start);
    assert!(report
        .timeline
        .windows(2)
        .all(|p| p[0].window <= p[1].window));
}

#[test]
fn mixed_chaos_storm_never_panics_and_never_invents_matches() {
    let p = seq_ab(8);
    let s = noisy_stream(800);
    let truth = keys(&ground_truth_matches(&p, s.events()));

    let chaos = ChaosFilter::new(OracleFilter::new(p.clone()))
        .fault_every(7, ChaosFault::Panic)
        .fault_every(5, ChaosFault::WrongLength)
        .fault_every(3, ChaosFault::Silent);
    let cfg = RuntimeConfig {
        guard: GuardConfig {
            fault_threshold: 2,
            cooldown_windows: 3,
            ..Default::default()
        },
        ..Default::default()
    };
    let report = run_with(p, chaos, cfg, &s);

    // Safety: whatever the fault mix does, the ID-distance constraint keeps
    // the output inside the exact match set.
    assert!(keys(&report.matches).is_subset(&truth));
    assert!(report.guard.faults_total > 0);
    assert!(report.windows_degraded > 0);
    assert!(report.degraded_fraction() > 0.0);
}

#[test]
fn partial_match_budget_bounds_state_and_reports_shedding() {
    // SEQ(A, B) over a long all-A prefix: skip-till-any-match stores one
    // partial per A — unbounded without the budget.
    let p = seq_ab(64);
    let budget = 8;
    let cfg = RuntimeConfig {
        max_partials: Some(budget),
        ..Default::default()
    };
    let mut rt = StreamingDlacep::builder(p.clone(), PassthroughFilter)
        .config(cfg)
        .build()
        .unwrap();
    let mut s = EventStream::new();
    for i in 0..300u64 {
        s.push(A, i, vec![]);
    }
    for i in 300..310u64 {
        s.push(B, i, vec![]);
    }
    for ev in s.events() {
        rt.ingest(ev.type_id, ev.ts.0, ev.attrs.clone()).unwrap();
        assert!(
            rt.stored_partials() <= budget,
            "live state within budget at every step"
        );
    }
    let report = rt.finish();
    assert!(
        report.extractor_stats.partials_shed > 0,
        "shedding must be reported"
    );
    assert!(report.extractor_stats.peak_partial_matches <= budget as u64);

    // Shedding loses matches, never invents them.
    let truth = keys(&ground_truth_matches(&p, s.events()));
    let got = keys(&report.matches);
    assert!(got.is_subset(&truth));
    assert!(
        got.len() < truth.len(),
        "a budget this tight must actually shed matches"
    );
}

#[test]
fn drift_fallback_restores_recall_on_shifted_stream() {
    // The filter goes silent from invocation 10 on — a model whose training
    // distribution no longer matches the stream. Well-formed output, so the
    // guard sees nothing; the marking-rate collapse is the drift monitor's
    // signal.
    let p = seq_ab(8);
    let s = noisy_stream(1200);
    let truth = keys(&ground_truth_matches(&p, s.events()));
    let silent_from = 10;
    let chaos = || {
        ChaosFilter::new(OracleFilter::new(p.clone())).fault_from(silent_from, ChaosFault::Silent)
    };
    // Healthy marking rate is 2/17 ≈ 0.118 (one A and one B per 17 events).
    let drift = DriftConfig {
        baseline_rate: 0.118,
        tolerance: 0.5,
        alpha: 0.5,
        patience: 2,
    };

    let blind = run_with(p.clone(), chaos(), RuntimeConfig::default(), &s);
    let cfg = RuntimeConfig {
        drift: Some(drift),
        ..Default::default()
    };
    let watched = run_with(p.clone(), chaos(), cfg, &s);

    // Without drift detection the silent filter silently loses the tail.
    assert!(keys(&blind.matches).len() < truth.len());
    assert!(!blind.retrain_signaled);
    // With it, the runtime falls back to exact CEP and recovers the tail.
    assert!(watched.matches.len() > blind.matches.len());
    assert!(keys(&watched.matches).is_subset(&truth));
    assert!(
        watched.retrain_signaled,
        "drift must raise the retrain signal"
    );
    assert_eq!(watched.drift_state, Some(DriftState::Drifted));
    assert_eq!(watched.final_mode, RuntimeMode::DegradedExact);
    assert!(watched
        .timeline
        .iter()
        .any(|t| t.cause == ModeCause::Drift && t.mode == RuntimeMode::DegradedExact));
    // The fallback engages within patience + a few EMA windows of the shift.
    let drift_window = watched
        .timeline
        .iter()
        .find(|t| t.cause == ModeCause::Drift)
        .map(|t| t.window)
        .unwrap();
    assert!(
        (silent_from..silent_from + 8).contains(&drift_window),
        "fallback at window {drift_window}, shift at {silent_from}"
    );
}

#[test]
fn rebaseline_acknowledges_retrain_and_resumes_filtering() {
    let p = seq_ab(8);
    let drift = DriftConfig {
        baseline_rate: 0.118,
        tolerance: 0.5,
        alpha: 0.5,
        patience: 2,
    };
    let cfg = RuntimeConfig {
        drift: Some(drift),
        ..Default::default()
    };
    let chaos = ChaosFilter::new(OracleFilter::new(p.clone())).fault_from(0, ChaosFault::Silent);
    let mut rt = StreamingDlacep::builder(p, chaos)
        .config(cfg)
        .build()
        .unwrap();
    let s = noisy_stream(200);
    for ev in s.events() {
        rt.ingest(ev.type_id, ev.ts.0, ev.attrs.clone()).unwrap();
    }
    assert_eq!(rt.mode(), RuntimeMode::DegradedExact);
    assert!(rt.retrain_signaled());

    rt.rebaseline(0.118);
    assert_eq!(rt.mode(), RuntimeMode::Filtering);
    assert!(!rt.retrain_signaled());
    assert_eq!(rt.drift_state(), Some(DriftState::Stable));
    let report = rt.finish();
    assert!(report
        .timeline
        .iter()
        .any(|t| t.cause == ModeCause::Rebaselined));
}

#[test]
fn out_of_order_feed_under_drop_policy_equals_filtered_batch() {
    let p = seq_ab(8);
    let raw_ts = out_of_order_timestamps(500, 0.2, 6, 99);

    // The admitted subsequence the policy should leave behind.
    let mut expected = EventStream::new();
    for (i, &ts) in raw_ts.iter().enumerate() {
        let t = match i % 17 {
            3 => A,
            6 => B,
            _ => C,
        };
        expected
            .push_with_policy(t, ts, vec![0.0], OutOfOrderPolicy::Drop)
            .unwrap();
    }
    let truth = keys(&ground_truth_matches(&p, expected.events()));

    let cfg = RuntimeConfig {
        ooo_policy: OutOfOrderPolicy::Drop,
        ..Default::default()
    };
    let mut rt = StreamingDlacep::builder(p, PassthroughFilter)
        .config(cfg)
        .build()
        .unwrap();
    for (i, &ts) in raw_ts.iter().enumerate() {
        let t = match i % 17 {
            3 => A,
            6 => B,
            _ => C,
        };
        rt.ingest(t, ts, vec![0.0]).unwrap();
    }
    let report = rt.finish();

    assert!(
        report.events_dropped > 0,
        "20% disorder must drop something"
    );
    assert_eq!(report.events_offered, 500);
    assert_eq!(
        report.events_admitted + report.events_dropped,
        report.events_offered
    );
    assert_eq!(report.events_admitted, expected.len());
    // Passthrough + in-order admitted subsequence: exact equality with the
    // batch ground truth over that subsequence (ids align densely).
    assert_eq!(keys(&report.matches), truth);
}

#[test]
fn reject_policy_keeps_runtime_usable_across_errors() {
    let p = seq_ab(8);
    let raw_ts = out_of_order_timestamps(300, 0.15, 4, 7);
    let mut rt = StreamingDlacep::new(p, PassthroughFilter).unwrap();
    let mut rejected = 0usize;
    for (i, &ts) in raw_ts.iter().enumerate() {
        let t = match i % 17 {
            3 => A,
            6 => B,
            _ => C,
        };
        if rt.ingest(t, ts, vec![0.0]).is_err() {
            rejected += 1;
        }
    }
    assert!(rejected > 0);
    let report = rt.finish();
    assert_eq!(report.events_offered, 300);
    assert_eq!(report.events_admitted, 300 - rejected);
    assert!(!report.matches.is_empty());
}
