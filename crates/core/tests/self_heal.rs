//! The self-healing loop, end to end: a filter silently dies mid-stream,
//! the drift monitor fails open, the retrain supervisor trains a candidate
//! on the replay buffer, the validation gate scores it against exact-CEP
//! labels on a held-out slice, and a passing candidate is hot-swapped in —
//! returning the runtime to `Filtering` with zero dropped windows and a
//! match sequence identical to exact CEP.
//!
//! Fault injection rides on [`ChaosTrainer`]: training-job panics are
//! retried with exponential backoff, gate-flapping candidates are rejected
//! without ever being deployed, and exhausted retries land in a permanent
//! degraded verdict. Checkpoints taken mid-retrain (signal raised, attempt
//! scheduled) and post-swap (model lineage, rebaselined monitor) must
//! restore into runs indistinguishable from the uninterrupted reference.

use std::sync::Arc;

use dlacep_cep::{Pattern, PatternExpr, TypeSet};
use dlacep_core::runtime::{RuntimeConfig, StreamingDlacep};
use dlacep_core::{
    ChaosTrainer, DriftConfig, Filter, ModeCause, ModelTrainer, OracleFilter, PassthroughFilter,
    QuantizedRetrainer, RetrainConfig, RetrainState, RuntimeMode, RuntimeReport, TrainConfig,
    TrainFault,
};
use dlacep_events::{AttrValue, PrimitiveEvent, TypeId, WindowSpec};
use dlacep_obs::{FieldValue, Registry};

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

type Offer = (TypeId, u64, Vec<AttrValue>);

/// A/B every fourth event with filler in between: every assembler window
/// contains matches, so the oracle marking rate is stable and non-zero.
fn offers(n: usize) -> Vec<Offer> {
    (0..n)
        .map(|i| {
            let t = match i % 4 {
                0 => A,
                2 => B,
                _ => TypeId(2),
            };
            (t, i as u64, vec![i as f64])
        })
        .collect()
}

/// A filter that silently dies: correct (oracle) marks for windows starting
/// before `silent_from`, all-false marks after. The failure is keyed to
/// window *content* (first event id), so replay after a restore draws the
/// same behaviour — and it is exactly the failure the breaker cannot see
/// (no panic, no NaN), leaving drift detection as the only tripwire.
enum HealFilter {
    Broken {
        oracle: OracleFilter,
        silent_from: u64,
    },
    Healed(OracleFilter),
}

impl HealFilter {
    fn broken(p: &Pattern, silent_from: u64) -> Self {
        Self::Broken {
            oracle: OracleFilter::new(p.clone()),
            silent_from,
        }
    }
}

impl Filter for HealFilter {
    fn mark(&self, window: &[PrimitiveEvent]) -> Vec<bool> {
        match self {
            Self::Broken {
                oracle,
                silent_from,
            } => {
                let silent = window.first().is_some_and(|e| e.id.0 >= *silent_from);
                if silent {
                    vec![false; window.len()]
                } else {
                    oracle.mark(window)
                }
            }
            Self::Healed(oracle) => oracle.mark(window),
        }
    }

    fn name(&self) -> &'static str {
        "heal-test"
    }
}

/// Trainer producing a healed (oracle-equivalent) model; encode/decode is a
/// one-byte tag so registry persistence and checkpoint redeploy round-trip.
struct HealTrainer {
    pattern: Pattern,
}

impl ModelTrainer<HealFilter> for HealTrainer {
    fn retrain(
        &self,
        pattern: &Pattern,
        windows: &[Vec<PrimitiveEvent>],
        _attempt: u64,
    ) -> Result<HealFilter, String> {
        assert!(!windows.is_empty(), "supervisor must pass a train slice");
        Ok(HealFilter::Healed(OracleFilter::new(pattern.clone())))
    }

    fn encode(&self, filter: &HealFilter) -> Vec<u8> {
        match filter {
            HealFilter::Broken { .. } => vec![0],
            HealFilter::Healed(_) => vec![1],
        }
    }

    fn decode(&self, bytes: &[u8]) -> Result<HealFilter, String> {
        match bytes {
            [1] => Ok(HealFilter::Healed(OracleFilter::new(self.pattern.clone()))),
            other => Err(format!("unknown model encoding: {other:?}")),
        }
    }
}

/// Drift detection tuned so the *first* silent window trips the signal —
/// the drifted verdict covers that window too (fail-open marks everything),
/// so no match is ever lost to the dying filter.
fn drift_cfg() -> DriftConfig {
    DriftConfig {
        baseline_rate: 0.5,
        tolerance: 0.8,
        alpha: 1.0,
        patience: 1,
    }
}

fn retrain_cfg() -> RetrainConfig {
    RetrainConfig {
        backoff_base_windows: 2,
        max_retries: 3,
        replay_windows: 16,
        holdout_every: 4,
        ..Default::default()
    }
}

/// The exact-CEP reference: everything marked, nothing approximated.
fn exact_reference(p: &Pattern, input: &[Offer]) -> RuntimeReport {
    let mut rt = StreamingDlacep::new(p.clone(), PassthroughFilter).unwrap();
    for (t, ts, attrs) in input {
        rt.ingest(*t, *ts, attrs.clone()).unwrap();
    }
    rt.finish()
}

fn ingest_all(rt: &mut StreamingDlacep<HealFilter>, input: &[Offer]) {
    for (t, ts, attrs) in input {
        rt.ingest(*t, *ts, attrs.clone()).unwrap();
    }
}

fn counter(reg: &Registry, name: &str) -> u64 {
    reg.snapshot().counters.get(name).copied().unwrap_or(0)
}

/// All `(phase, reason)` pairs of "retrain" journal entries, in order.
fn retrain_phases(reg: &Registry) -> Vec<(String, String)> {
    reg.journal()
        .snapshot()
        .entries
        .into_iter()
        .filter(|e| e.kind == "retrain")
        .map(|e| {
            let get = |k: &str| {
                e.fields
                    .iter()
                    .find(|(n, _)| n == k)
                    .map(|(_, v)| match v {
                        FieldValue::Str(s) => s.clone(),
                        other => other.to_string(),
                    })
                    .unwrap_or_default()
            };
            (get("phase"), get("reason"))
        })
        .collect()
}

fn heal_runtime(
    p: &Pattern,
    silent_from: u64,
    trainer: Box<dyn ModelTrainer<HealFilter>>,
    retrain: RetrainConfig,
    reg: &Arc<Registry>,
) -> StreamingDlacep<HealFilter> {
    StreamingDlacep::builder(p.clone(), HealFilter::broken(p, silent_from))
        .config(RuntimeConfig {
            drift: Some(drift_cfg()),
            ..Default::default()
        })
        .retrain(retrain, trainer)
        .obs(reg.clone())
        .build()
        .unwrap()
}

#[test]
fn drift_retrain_swap_returns_to_filtering_with_exact_matches() {
    let p = seq_ab(6);
    let input = offers(240);
    let expected = exact_reference(&p, &input);

    let reg = Arc::new(Registry::with_journal_capacity(4096));
    let trainer = Box::new(HealTrainer { pattern: p.clone() });
    let mut rt = heal_runtime(&p, 120, trainer, retrain_cfg(), &reg);
    ingest_all(&mut rt, &input);
    assert_eq!(
        rt.mode(),
        RuntimeMode::Filtering,
        "a validated swap must re-admit the filter"
    );
    assert_eq!(rt.active_model_version(), Some(1));
    let report = rt.finish();

    // Zero dropped windows, zero lost matches: the degraded interval failed
    // open, so the approximate run equals exact CEP bit for bit.
    assert_eq!(report.matches, expected.matches);
    assert_eq!(report.windows_evaluated, expected.windows_evaluated);
    assert_eq!(report.events_admitted, expected.events_admitted);

    // Mode timeline: Start → Drift (degrade) → Swapped (healed).
    let causes: Vec<(RuntimeMode, ModeCause)> =
        report.timeline.iter().map(|t| (t.mode, t.cause)).collect();
    assert_eq!(
        causes,
        vec![
            (RuntimeMode::Filtering, ModeCause::Start),
            (RuntimeMode::DegradedExact, ModeCause::Drift),
            (RuntimeMode::Filtering, ModeCause::Swapped),
        ]
    );

    let retrain = report.retrain.expect("retrain supervisor was configured");
    assert_eq!(retrain.state, RetrainState::Idle);
    assert_eq!(retrain.active_version, Some(1));
    assert_eq!(retrain.models_accepted, 1);

    assert_eq!(counter(&reg, "runtime.retrain_started"), 1);
    assert_eq!(counter(&reg, "runtime.retrain_validated"), 1);
    assert_eq!(counter(&reg, "runtime.retrain_swapped"), 1);
    assert_eq!(counter(&reg, "runtime.retrain_rejected"), 0);
    assert_eq!(counter(&reg, "runtime.retrain_retried"), 0);
    let phases: Vec<String> = retrain_phases(&reg).into_iter().map(|(p, _)| p).collect();
    assert_eq!(phases, ["scheduled", "validated", "swapped"]);
}

#[test]
fn gate_failing_candidate_is_never_swapped_in() {
    let p = seq_ab(6);
    let input = offers(240);
    let expected = exact_reference(&p, &input);

    // Attempt 0 produces a flaky candidate that marks nothing — it must die
    // at the validation gate (recall 0 on a holdout that contains matches).
    // Attempt 1 trains clean.
    let pf = p.clone();
    let trainer = ChaosTrainer::new(Box::new(HealTrainer { pattern: p.clone() }))
        .fault_at(0, TrainFault::Flaky)
        .flaky_candidates(move || HealFilter::broken(&pf, 0));
    let reg = Arc::new(Registry::with_journal_capacity(4096));
    let mut rt = heal_runtime(&p, 120, Box::new(trainer), retrain_cfg(), &reg);
    ingest_all(&mut rt, &input);

    assert_eq!(rt.mode(), RuntimeMode::Filtering);
    let report = rt.finish();
    assert_eq!(report.matches, expected.matches);

    // Exactly one swap, and it is not the gate-failing candidate: version 1
    // is the accepted model of attempt 1.
    assert_eq!(counter(&reg, "runtime.retrain_rejected"), 1);
    assert_eq!(counter(&reg, "runtime.retrain_swapped"), 1);
    let retrain = report.retrain.unwrap();
    assert_eq!(retrain.models_accepted, 1);
    let phases = retrain_phases(&reg);
    let rejected: Vec<&(String, String)> = phases.iter().filter(|(p, _)| p == "rejected").collect();
    assert_eq!(rejected.len(), 1);
    assert!(
        rejected[0].1.contains("gate failed"),
        "rejection must cite the gate: {:?}",
        rejected[0].1
    );
    // The rejection precedes the swap in the journal: the bad candidate was
    // never deployed.
    let order: Vec<&str> = phases.iter().map(|(p, _)| p.as_str()).collect();
    assert_eq!(
        order,
        ["scheduled", "rejected", "scheduled", "validated", "swapped"]
    );
}

#[test]
fn training_panic_and_failure_are_retried_with_backoff() {
    let p = seq_ab(6);
    let input = offers(240);
    let expected = exact_reference(&p, &input);

    // Attempt 0 panics inside the training job, attempt 1 returns an error,
    // attempt 2 trains clean. The panic is fenced inside the pool task and
    // must surface as a retryable rejection, not tear the runtime down.
    let trainer = ChaosTrainer::new(Box::new(HealTrainer { pattern: p.clone() }))
        .fault_at(0, TrainFault::Panic)
        .fault_at(1, TrainFault::Fail);
    let reg = Arc::new(Registry::with_journal_capacity(4096));
    let mut rt = heal_runtime(&p, 120, Box::new(trainer), retrain_cfg(), &reg);
    ingest_all(&mut rt, &input);

    assert_eq!(rt.mode(), RuntimeMode::Filtering);
    let report = rt.finish();
    assert_eq!(report.matches, expected.matches);
    assert_eq!(counter(&reg, "runtime.retrain_retried"), 2);
    assert_eq!(counter(&reg, "runtime.retrain_swapped"), 1);

    // Backoff doubles per retry: attempts run at signal+2, +4 later, +8
    // later. Read the schedule back from the journal.
    let entries: Vec<(u64, u64)> = reg
        .journal()
        .snapshot()
        .entries
        .iter()
        .filter(|e| e.kind == "retrain")
        .filter(|e| {
            e.fields
                .iter()
                .any(|(n, v)| n == "phase" && matches!(v, FieldValue::Str(s) if s == "scheduled"))
        })
        .map(|e| {
            let num = |k: &str| {
                e.fields
                    .iter()
                    .find_map(|(n, v)| match (n.as_str() == k, v) {
                        (true, FieldValue::U64(x)) => Some(*x),
                        _ => None,
                    })
                    .unwrap()
            };
            (num("window"), num("resume_at"))
        })
        .collect();
    assert_eq!(entries.len(), 3, "one schedule per attempt");
    assert_eq!(
        entries[0].1 - entries[0].0,
        2,
        "first attempt: base backoff"
    );
    assert_eq!(entries[1].1 - entries[1].0, 4, "second attempt: base << 1");
    assert_eq!(entries[2].1 - entries[2].0, 8, "third attempt: base << 2");

    let reasons: Vec<String> = retrain_phases(&reg)
        .into_iter()
        .filter(|(p, _)| p == "rejected")
        .map(|(_, r)| r)
        .collect();
    assert_eq!(reasons.len(), 2);
    assert!(reasons[0].contains("panicked"), "got: {:?}", reasons[0]);
    assert!(
        reasons[1].contains("injected training failure"),
        "got: {:?}",
        reasons[1]
    );
}

#[test]
fn exhausted_retries_degrade_permanently_without_losing_matches() {
    let p = seq_ab(6);
    let input = offers(240);
    let expected = exact_reference(&p, &input);

    let trainer = ChaosTrainer::new(Box::new(HealTrainer { pattern: p.clone() }))
        .fault_from(0, TrainFault::Fail);
    let reg = Arc::new(Registry::with_journal_capacity(4096));
    let cfg = RetrainConfig {
        max_retries: 1,
        ..retrain_cfg()
    };
    let mut rt = heal_runtime(&p, 120, Box::new(trainer), cfg, &reg);
    ingest_all(&mut rt, &input);

    // Every retry failed: the runtime stays failed-open, permanently.
    assert_eq!(rt.mode(), RuntimeMode::DegradedExact);
    assert_eq!(rt.retrain_state(), Some(RetrainState::Exhausted));
    assert_eq!(rt.active_model_version(), None);
    let report = rt.finish();
    assert_eq!(
        report.matches, expected.matches,
        "permanent degrade is exact CEP: full recall"
    );
    assert_eq!(counter(&reg, "runtime.retrain_swapped"), 0);
    assert_eq!(counter(&reg, "runtime.retrain_rejected"), 2);
    let phases = retrain_phases(&reg);
    let last = phases.last().unwrap();
    assert_eq!(last.0, "exhausted");
    assert!(
        reg.journal().snapshot().entries.iter().any(|e| {
            e.kind == "retrain"
                && e.fields.iter().any(|(n, v)| {
                    n == "verdict" && matches!(v, FieldValue::Str(s) if s == "permanent-degraded")
                })
        }),
        "the permanent-degraded verdict must land in the journal"
    );

    // A manual rebaseline is the documented way out.
    rt_rebaseline_clears_exhaustion(&p);
}

fn rt_rebaseline_clears_exhaustion(p: &Pattern) {
    let trainer = ChaosTrainer::new(Box::new(HealTrainer { pattern: p.clone() }))
        .fault_from(0, TrainFault::Fail);
    let reg = Arc::new(Registry::with_journal_capacity(4096));
    let cfg = RetrainConfig {
        max_retries: 0,
        ..retrain_cfg()
    };
    let mut rt = heal_runtime(p, 120, Box::new(trainer), cfg, &reg);
    ingest_all(&mut rt, &offers(240));
    assert_eq!(rt.retrain_state(), Some(RetrainState::Exhausted));
    rt.rebaseline(0.5);
    assert_eq!(rt.retrain_state(), Some(RetrainState::Idle));
    assert_eq!(rt.mode(), RuntimeMode::Filtering);
}

/// Satellite 6: a checkpoint taken while `retrain_signaled` is pending
/// (supervisor mid-backoff) must restore with the signal and the scheduled
/// attempt intact, and the restored run must be indistinguishable from the
/// uninterrupted one.
#[test]
fn mid_retrain_checkpoint_restores_signal_and_schedule() {
    let p = seq_ab(6);
    let input = offers(240);

    // Uninterrupted reference with the same trainer/config.
    let mk_trainer = || Box::new(HealTrainer { pattern: p.clone() });
    let ref_reg = Arc::new(Registry::with_journal_capacity(4096));
    let mut reference = heal_runtime(&p, 120, mk_trainer(), retrain_cfg(), &ref_reg);
    ingest_all(&mut reference, &input);
    let ref_report = reference.finish();

    // Interrupted run: capture the checkpoint at the first ingest where the
    // supervisor is waiting on a scheduled attempt (drift signaled, swap
    // not yet executed).
    let reg = Arc::new(Registry::with_journal_capacity(4096));
    let mut rt = heal_runtime(&p, 120, mk_trainer(), retrain_cfg(), &reg);
    let mut ckpt = None;
    let mut resume_from = 0;
    for (i, (t, ts, attrs)) in input.iter().enumerate() {
        rt.ingest(*t, *ts, attrs.clone()).unwrap();
        if ckpt.is_none() && matches!(rt.retrain_state(), Some(RetrainState::Waiting { .. })) {
            assert!(rt.retrain_signaled(), "waiting implies a pending signal");
            assert_eq!(rt.mode(), RuntimeMode::DegradedExact);
            // Emitted output is not in the checkpoint (only its mark is):
            // hand it back, as the durability layer does from its emit log.
            let mut at_crash = rt.checkpoint();
            at_crash.emitted_prefix = rt.matches_so_far().to_vec();
            ckpt = Some(at_crash);
            resume_from = i + 1;
            break;
        }
    }
    let ckpt = ckpt.expect("the workload must reach a mid-retrain state");
    drop(rt);

    let reg2 = Arc::new(Registry::with_journal_capacity(4096));
    let mut restored = StreamingDlacep::builder(p.clone(), HealFilter::broken(&p, 120))
        .config(RuntimeConfig {
            drift: Some(drift_cfg()),
            ..Default::default()
        })
        .retrain(retrain_cfg(), mk_trainer())
        .obs(reg2.clone())
        .restore(ckpt)
        .unwrap();
    assert!(restored.retrain_signaled(), "signal must survive restore");
    assert!(matches!(
        restored.retrain_state(),
        Some(RetrainState::Waiting { .. })
    ));
    ingest_all(&mut restored, &input[resume_from..]);
    let restored_report = restored.finish();

    assert_eq!(restored_report.matches, ref_report.matches);
    assert_eq!(restored_report.timeline, ref_report.timeline);
    assert_eq!(
        restored_report.windows_evaluated,
        ref_report.windows_evaluated
    );
    assert_eq!(
        restored_report.windows_degraded,
        ref_report.windows_degraded
    );
    let (a, b) = (
        restored_report.retrain.unwrap(),
        ref_report.retrain.unwrap(),
    );
    assert_eq!(a.state, b.state);
    assert_eq!(a.active_version, b.active_version);
    assert_eq!(a.models_accepted, b.models_accepted);
}

/// A checkpoint taken *after* the swap must redeploy the accepted model and
/// re-apply the rebaselined drift monitor — the restored run continues on
/// the healed filter, not the broken constructor argument.
#[test]
fn post_swap_checkpoint_redeploys_the_accepted_model() {
    let p = seq_ab(6);
    let input = offers(240);
    let expected = exact_reference(&p, &input);
    let mk_trainer = || Box::new(HealTrainer { pattern: p.clone() });

    let reg = Arc::new(Registry::with_journal_capacity(4096));
    let mut rt = heal_runtime(&p, 120, mk_trainer(), retrain_cfg(), &reg);
    let mut ckpt = None;
    let mut resume_from = 0;
    for (i, (t, ts, attrs)) in input.iter().enumerate() {
        rt.ingest(*t, *ts, attrs.clone()).unwrap();
        if ckpt.is_none() && rt.active_model_version() == Some(1) {
            // Emitted output is not in the checkpoint (only its mark is):
            // hand it back, as the durability layer does from its emit log.
            let mut at_crash = rt.checkpoint();
            at_crash.emitted_prefix = rt.matches_so_far().to_vec();
            ckpt = Some(at_crash);
            resume_from = i + 1;
            break;
        }
    }
    let ckpt = ckpt.expect("the workload must reach a post-swap state");
    let ref_report = {
        ingest_all(&mut rt, &input[resume_from..]);
        rt.finish()
    };
    assert_eq!(ref_report.matches, expected.matches);

    // Restore with the *broken* filter as the constructor argument: the
    // checkpointed model lineage must win, or the stream dies again.
    let reg2 = Arc::new(Registry::with_journal_capacity(4096));
    let mut restored = StreamingDlacep::builder(p.clone(), HealFilter::broken(&p, 120))
        .config(RuntimeConfig {
            drift: Some(drift_cfg()),
            ..Default::default()
        })
        .retrain(retrain_cfg(), mk_trainer())
        .obs(reg2.clone())
        .restore(ckpt)
        .unwrap();
    assert_eq!(restored.active_model_version(), Some(1));
    assert_eq!(restored.mode(), RuntimeMode::Filtering);
    ingest_all(&mut restored, &input[resume_from..]);
    let restored_report = restored.finish();

    assert_eq!(restored_report.matches, ref_report.matches);
    assert_eq!(restored_report.timeline, ref_report.timeline);
    assert_eq!(
        restored_report.windows_degraded, ref_report.windows_degraded,
        "a resurrected broken filter would re-degrade; the healed model must not"
    );
    // No second drift signal after the swap: the restored monitor runs on
    // the rebaselined rate, and the healed filter stays in band. (The Drift
    // entry before the swap is checkpointed history, faithfully restored.)
    let swap_at = restored_report
        .timeline
        .iter()
        .find(|t| t.cause == ModeCause::Swapped)
        .expect("swap is part of the restored history")
        .window;
    assert!(
        !restored_report
            .timeline
            .iter()
            .any(|t| t.cause == ModeCause::Drift && t.window > swap_at),
        "restored run must not re-drift: {:?}",
        restored_report.timeline
    );
}

/// The real trainer path: an int8-quantized candidate is trained on the
/// replay buffer, re-calibrated on those windows, validated at the gate,
/// and swapped in — the post-heal stream runs quantized inference.
#[test]
fn quantized_retrainer_heals_with_int8_recalibration() {
    let p = seq_ab(6);
    let input = offers(320);
    let expected = exact_reference(&p, &input);

    // Start from a filter that marks nothing: drift fires on the first
    // window and the supervisor trains a fresh quantized model from the
    // replay buffer alone.
    #[allow(clippy::large_enum_variant)] // test-only; one instance per run
    enum QHeal {
        Silent,
        Quant(dlacep_core::QuantizedFilter),
    }
    impl Filter for QHeal {
        fn mark(&self, window: &[PrimitiveEvent]) -> Vec<bool> {
            match self {
                Self::Silent => vec![false; window.len()],
                Self::Quant(q) => q.mark(window),
            }
        }
        fn scores(&self, window: &[PrimitiveEvent]) -> Option<Vec<f32>> {
            match self {
                Self::Silent => None,
                Self::Quant(q) => q.scores(window),
            }
        }
        fn name(&self) -> &'static str {
            "q-heal"
        }
        fn quantized(&self) -> bool {
            matches!(self, Self::Quant(_))
        }
    }
    struct QTrainer(QuantizedRetrainer);
    impl ModelTrainer<QHeal> for QTrainer {
        fn retrain(
            &self,
            pattern: &Pattern,
            windows: &[Vec<PrimitiveEvent>],
            attempt: u64,
        ) -> Result<QHeal, String> {
            self.0.retrain(pattern, windows, attempt).map(QHeal::Quant)
        }
        fn encode(&self, filter: &QHeal) -> Vec<u8> {
            match filter {
                QHeal::Silent => Vec::new(),
                QHeal::Quant(q) => self.0.encode(q),
            }
        }
        fn decode(&self, bytes: &[u8]) -> Result<QHeal, String> {
            self.0.decode(bytes).map(QHeal::Quant)
        }
    }
    let trainer = QTrainer(QuantizedRetrainer {
        train: TrainConfig::quick(),
    });

    let reg = Arc::new(Registry::with_journal_capacity(4096));
    let mut rt = StreamingDlacep::builder(p.clone(), QHeal::Silent)
        .config(RuntimeConfig {
            drift: Some(drift_cfg()),
            ..Default::default()
        })
        .retrain(
            RetrainConfig {
                backoff_base_windows: 8,
                replay_windows: 32,
                holdout_every: 4,
                min_recall: 0.7,
                min_precision: 0.2,
                ..Default::default()
            },
            Box::new(trainer),
        )
        .obs(reg.clone())
        .build()
        .unwrap();
    for (t, ts, attrs) in &input {
        rt.ingest(*t, *ts, attrs.clone()).unwrap();
    }

    assert_eq!(
        rt.mode(),
        RuntimeMode::Filtering,
        "the trained int8 candidate must pass the gate and swap in"
    );
    assert_eq!(rt.active_model_version(), Some(1));
    let report = rt.finish();
    assert_eq!(counter(&reg, "runtime.retrain_swapped"), 1);
    assert!(
        counter(&reg, "runtime.windows_marked_quant") > 0,
        "post-heal inference must run on the quantized path"
    );
    // Recall floor: the degraded prefix failed open, and the gate enforced
    // recall ≥ 0.7 on the holdout, so the run keeps the bulk of the exact
    // matches.
    let kept = report
        .matches
        .iter()
        .filter(|m| expected.matches.contains(m))
        .count();
    assert!(
        kept as f64 >= 0.7 * expected.matches.len() as f64,
        "kept {kept} of {} exact matches",
        expected.matches.len()
    );
}
