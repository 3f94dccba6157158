//! Self-healing drift recovery: supervised online retraining with a
//! validated hot model swap.
//!
//! [`crate::drift::DriftMonitor`] turns a collapsed mark rate into a
//! `retrain_signaled` flag, but on its own that flag only buys a permanent
//! degrade to exact CEP — correct, and slow, forever. The retrain
//! supervisor closes the loop: it snapshots recently evaluated windows into
//! a bounded replay buffer, retrains a candidate filter on the replay
//! windows (labeled by the exact engine, exactly like offline training),
//! and passes the candidate through a **validation gate** — recall and
//! precision against the exact-CEP labels on a held-out replay slice —
//! before atomically swapping it into the [`crate::guard::FilterGuard`].
//! A candidate that fails the gate is never swapped in; the runtime stays
//! on exact CEP, schedules a bounded retry with exponential backoff, and
//! after exhaustion records a permanent-degraded verdict in the journal.
//!
//! The supervisor's persistent state machine is deliberately tiny:
//!
//! ```text
//!          drift signal                     gate pass
//!   Idle ───────────────▶ Waiting{n} ──────────────────▶ Idle (swapped)
//!                           │   ▲ gate fail / train panic, n ≤ max_retries
//!                           │   └──────── backoff: base << n windows
//!                           │ n > max_retries
//!                           ▼
//!                        Exhausted (permanent degrade, manual rebaseline)
//! ```
//!
//! Training, int8 re-calibration, and the gate all run *at* a deterministic
//! window boundary (`resume_at`, measured in evaluated windows), so the
//! entire trajectory — counters, journal, swap point — is a pure function
//! of the workload and configuration, never of wall-clock time or thread
//! count. That is what makes the crash sweep able to assert that a run
//! killed mid-retrain and recovered equals an uninterrupted reference.

use crate::embed::EventEmbedder;
use crate::filter::{Filter, OracleFilter};
use crate::persist::{
    decode_event_filter, decode_quantized_filter, encode_event_filter, encode_quantized_filter,
};
use crate::quantized::QuantizedFilter;
use crate::trainer::{drop_non_finite, fit_event_network, oversample, Sample, TrainConfig};
use dlacep_cep::plan::Plan;
use dlacep_cep::Pattern;
use dlacep_events::PrimitiveEvent;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Supervisor policy: replay-buffer sizing, validation-gate thresholds,
/// and the retry/backoff schedule. All units that involve time are in
/// *evaluated windows* — the supervisor never reads a clock.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RetrainConfig {
    /// Windows to wait before the first attempt, and the base of the
    /// exponential backoff between attempts (`base << attempt`). Waiting at
    /// least one window lets the replay buffer capture post-drift data.
    pub backoff_base_windows: u64,
    /// Retries after the first failed attempt before the supervisor gives
    /// up ([`RetrainState::Exhausted`]).
    pub max_retries: u32,
    /// Capacity of the replay ring buffer (most recent evaluated windows).
    pub replay_windows: usize,
    /// Every `holdout_every`-th replay window is held out of training and
    /// used exclusively by the validation gate (≥ 2: the split must leave
    /// windows on both sides).
    pub holdout_every: usize,
    /// Gate floor: candidate recall vs exact-CEP labels on the holdout.
    pub min_recall: f64,
    /// Gate floor: candidate precision vs exact-CEP labels on the holdout.
    /// Spurious marks only cost extractor work (the ID constraint discards
    /// them), so the default is deliberately permissive.
    pub min_precision: f64,
}

impl Default for RetrainConfig {
    fn default() -> Self {
        Self {
            backoff_base_windows: 4,
            max_retries: 3,
            replay_windows: 32,
            holdout_every: 4,
            min_recall: 0.9,
            min_precision: 0.3,
        }
    }
}

impl RetrainConfig {
    /// Validate the configuration. The runtime surfaces failures as a typed
    /// configuration error before anything is built.
    pub fn validate(&self) -> Result<(), String> {
        if self.backoff_base_windows < 1 {
            return Err("retrain backoff_base_windows must be at least 1".into());
        }
        if self.replay_windows < 2 {
            return Err("retrain replay_windows must be at least 2".into());
        }
        if self.holdout_every < 2 {
            return Err("retrain holdout_every must be at least 2 (the split must leave both training and holdout windows)".into());
        }
        for (name, v) in [
            ("min_recall", self.min_recall),
            ("min_precision", self.min_precision),
        ] {
            if !(0.0..=1.0).contains(&v) || v.is_nan() {
                return Err(format!("retrain {name} must be within [0, 1], got {v}"));
            }
        }
        Ok(())
    }
}

/// Produces, serializes, and deserializes candidate filters for the
/// supervisor. `retrain` must be deterministic in `(windows, attempt)` —
/// the crash-recovery equivalence proof re-runs it after a restart and
/// requires the identical candidate.
pub trait ModelTrainer<F: Filter>: Send + Sync {
    /// Train a candidate on the replay training slice. `attempt` is the
    /// zero-based attempt number; trainers should fold it into their seed
    /// so a retry is not a bit-identical rerun of a failed attempt.
    fn retrain(
        &self,
        pattern: &Pattern,
        windows: &[Vec<PrimitiveEvent>],
        attempt: u64,
    ) -> Result<F, String>;

    /// Serialize an accepted filter: the bytes the checkpoint carries as
    /// the active model, the only durable copy of a retrained filter.
    fn encode(&self, filter: &F) -> Vec<u8>;

    /// Reconstruct a filter from [`encode`](Self::encode)'s bytes when a
    /// runtime is restored from a checkpoint.
    fn decode(&self, bytes: &[u8]) -> Result<F, String>;
}

/// Persistent supervisor position. Only the *decisions* are state — the
/// train/calibrate/gate pipeline runs to completion inside one window
/// boundary and never needs to be resumed halfway.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RetrainState {
    /// No retrain scheduled (healthy, or drift not yet signaled).
    Idle,
    /// An attempt is scheduled at window index `resume_at`.
    Waiting {
        /// Evaluated-window index at which the attempt runs.
        resume_at: u64,
        /// Zero-based attempt number.
        attempt: u32,
    },
    /// All retries failed: permanent degrade until a manual
    /// [`crate::runtime::StreamingDlacep::rebaseline`].
    Exhausted,
}

/// Everything the supervisor needs to survive a crash: state machine
/// position, the replay buffer, the deployed model. Carried inside
/// [`crate::runtime::RuntimeCheckpoint`].
#[derive(Debug, Clone, PartialEq)]
pub struct RetrainCheckpoint {
    /// State machine position.
    pub state: RetrainState,
    /// Replay buffer contents, oldest first.
    pub replay: Vec<Vec<PrimitiveEvent>>,
    /// Version the next accepted model will get.
    pub next_version: u64,
    /// Currently deployed retrained model, if any: `(version, bytes)`.
    pub active_model: Option<(u64, Vec<u8>)>,
    /// Effective drift baseline after the last accepted swap.
    /// [`crate::drift::DriftMonitor::rebaseline`] mutates the monitor's
    /// *config*, which `DriftMonitorState` deliberately excludes — so the
    /// supervisor carries the override and restore re-applies it, keeping
    /// post-swap drift verdicts identical across a crash.
    pub baseline_override: Option<f64>,
}

/// Validation-gate verdict for one candidate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GateReport {
    /// Event-level recall vs exact-CEP labels on the holdout slice.
    pub recall: f64,
    /// Event-level precision vs exact-CEP labels on the holdout slice.
    pub precision: f64,
    /// Holdout windows the candidate was scored on.
    pub holdout_windows: usize,
    /// Fraction of holdout events the candidate marked — the new drift
    /// baseline if the candidate is accepted.
    pub marked_rate: f64,
}

/// In-memory supervisor attached to a running `StreamingDlacep`. The
/// decision logic itself lives in the runtime's per-window observer
/// (`step_retrain`); this struct owns the data that logic operates on.
pub(crate) struct RetrainRuntime<F> {
    pub(crate) cfg: RetrainConfig,
    pub(crate) trainer: Box<dyn ModelTrainer<F>>,
    pub(crate) state: RetrainState,
    pub(crate) replay: VecDeque<Vec<PrimitiveEvent>>,
    pub(crate) next_version: u64,
    pub(crate) active_model: Option<(u64, Vec<u8>)>,
    pub(crate) baseline_override: Option<f64>,
}

impl<F: Filter> RetrainRuntime<F> {
    pub(crate) fn new(cfg: RetrainConfig, trainer: Box<dyn ModelTrainer<F>>) -> Self {
        Self {
            cfg,
            trainer,
            state: RetrainState::Idle,
            // Grows to `replay_windows`; reserving that up front would let
            // a large configured cap abort the build.
            replay: VecDeque::new(),
            next_version: 1,
            active_model: None,
            baseline_override: None,
        }
    }

    /// Record one evaluated window into the replay ring.
    pub(crate) fn observe_window(&mut self, window: &[PrimitiveEvent]) {
        if self.replay.len() == self.cfg.replay_windows {
            self.replay.pop_front();
        }
        self.replay.push_back(window.to_vec());
    }

    /// Split the replay buffer into (training, holdout) slices. Every
    /// `holdout_every`-th window (by replay position) is held out.
    pub(crate) fn split_replay(&self) -> (Vec<Vec<PrimitiveEvent>>, Vec<Vec<PrimitiveEvent>>) {
        let mut train = Vec::new();
        let mut holdout = Vec::new();
        for (i, w) in self.replay.iter().enumerate() {
            if i % self.cfg.holdout_every == 0 {
                holdout.push(w.clone());
            } else {
                train.push(w.clone());
            }
        }
        (train, holdout)
    }

    pub(crate) fn export(&self) -> RetrainCheckpoint {
        RetrainCheckpoint {
            state: self.state,
            replay: self.replay.iter().cloned().collect(),
            next_version: self.next_version,
            active_model: self.active_model.clone(),
            baseline_override: self.baseline_override,
        }
    }

    /// Take over a checkpointed position, refusing one no run can reach:
    /// model versions start at 1, the replay ring never outgrows its cap,
    /// and the active model got its version before `next_version` moved
    /// past it.
    pub(crate) fn import(&mut self, ck: RetrainCheckpoint) -> Result<(), String> {
        if ck.next_version == 0 {
            return Err("retrain next_version is 0; model versions start at 1".into());
        }
        if ck.replay.len() > self.cfg.replay_windows {
            return Err(format!(
                "retrain replay ring holds {} windows, its cap is {}",
                ck.replay.len(),
                self.cfg.replay_windows
            ));
        }
        if let Some((version, _)) = &ck.active_model {
            if *version >= ck.next_version {
                return Err(format!(
                    "active model v{version} is not below next_version {}",
                    ck.next_version
                ));
            }
        }
        self.state = ck.state;
        self.replay = ck.replay.into();
        self.next_version = ck.next_version;
        self.active_model = ck.active_model;
        self.baseline_override = ck.baseline_override;
        Ok(())
    }
}

/// Score a candidate on the holdout slice against exact-CEP labels. A
/// candidate that panics or returns a wrong-length mark vector is a gate
/// failure, not a crash — the same fail-safe posture as the filter guard.
pub(crate) fn validate_candidate<F: Filter>(
    candidate: &F,
    oracle: &OracleFilter,
    holdout: &[Vec<PrimitiveEvent>],
) -> Result<GateReport, String> {
    let (mut tp, mut fp, mut fneg) = (0u64, 0u64, 0u64);
    let (mut marked, mut total) = (0u64, 0u64);
    for window in holdout {
        let truth = oracle.mark(window);
        let got = catch_unwind(AssertUnwindSafe(|| candidate.mark(window)))
            .map_err(|_| "candidate panicked during validation".to_string())?;
        if got.len() != truth.len() {
            return Err(format!(
                "candidate returned {} marks for a {}-event window",
                got.len(),
                truth.len()
            ));
        }
        for (&g, &t) in got.iter().zip(&truth) {
            total += 1;
            if g {
                marked += 1;
            }
            match (g, t) {
                (true, true) => tp += 1,
                (true, false) => fp += 1,
                (false, true) => fneg += 1,
                (false, false) => {}
            }
        }
    }
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            1.0
        } else {
            num as f64 / den as f64
        }
    };
    Ok(GateReport {
        recall: ratio(tp, tp + fneg),
        precision: ratio(tp, tp + fp),
        holdout_windows: holdout.len(),
        marked_rate: if total == 0 {
            0.0
        } else {
            marked as f64 / total as f64
        },
    })
}

/// Train an event-network filter on already-assembled replay windows,
/// labeling each window with the exact engine — the online analogue of
/// [`crate::trainer::train_event_filter`], which labels a raw historical
/// stream. One replay window is one training sample.
pub fn train_on_windows(
    pattern: &Pattern,
    windows: &[Vec<PrimitiveEvent>],
    cfg: &TrainConfig,
    attempt: u64,
) -> Result<crate::filter::EventNetFilter, String> {
    if windows.is_empty() {
        return Err("replay training slice is empty".into());
    }
    let plan = Plan::compile(pattern).map_err(|e| format!("pattern does not compile: {e}"))?;
    let oracle = OracleFilter::new(pattern.clone());
    let num_attrs = windows
        .iter()
        .flat_map(|w| w.first())
        .map(|e| e.attrs.len())
        .next()
        .unwrap_or(0);
    let embedder = EventEmbedder::for_plan(&plan, num_attrs);
    let seed = cfg.seed ^ attempt.wrapping_mul(0x9e37_79b9_7f4a_7c15);

    let mut samples: Vec<Sample> = windows
        .iter()
        .map(|w| {
            let labels = oracle.mark(w);
            let positive = !dlacep_data::label::matches_in_sample(pattern, w).is_empty();
            (embedder.embed_window(w, w.len()), labels, positive)
        })
        .collect();
    // A replay window holding a NaN or infinite attribute would poison the
    // whole run; train on the rest.
    drop_non_finite(&mut samples);
    if samples.is_empty() {
        return Err("every replay window holds a non-finite attribute".into());
    }
    if cfg.oversample_positives {
        oversample(&mut samples, None);
    }
    let (network, _) = fit_event_network(&samples, embedder.dim(), cfg, seed);
    Ok(crate::filter::EventNetFilter {
        network,
        embedder,
        threshold: cfg.mark_threshold,
    })
}

/// [`ModelTrainer`] producing full-precision [`crate::filter::EventNetFilter`]
/// candidates via [`train_on_windows`]; persisted as `DMDL` bundles.
pub struct EventNetRetrainer {
    /// Hyperparameters for each online attempt. Use a small budget
    /// ([`TrainConfig::quick`] scale) — retraining runs at a window
    /// boundary, stalling ingestion while it trains.
    pub train: TrainConfig,
}

impl ModelTrainer<crate::filter::EventNetFilter> for EventNetRetrainer {
    fn retrain(
        &self,
        pattern: &Pattern,
        windows: &[Vec<PrimitiveEvent>],
        attempt: u64,
    ) -> Result<crate::filter::EventNetFilter, String> {
        train_on_windows(pattern, windows, &self.train, attempt)
    }

    fn encode(&self, filter: &crate::filter::EventNetFilter) -> Vec<u8> {
        encode_event_filter(filter).expect("event-net bundle serializes")
    }

    fn decode(&self, bytes: &[u8]) -> Result<crate::filter::EventNetFilter, String> {
        decode_event_filter(bytes).map_err(|e| e.to_string())
    }
}

/// [`ModelTrainer`] producing int8 [`QuantizedFilter`] candidates: trains
/// in f32 via [`train_on_windows`], then re-runs int8 calibration on the
/// replay training windows so the activation scales match the post-drift
/// distribution; persisted as `DMQ8` bundles.
pub struct QuantizedRetrainer {
    /// Hyperparameters for the f32 training stage of each attempt.
    pub train: TrainConfig,
}

impl ModelTrainer<QuantizedFilter> for QuantizedRetrainer {
    fn retrain(
        &self,
        pattern: &Pattern,
        windows: &[Vec<PrimitiveEvent>],
        attempt: u64,
    ) -> Result<QuantizedFilter, String> {
        let f32_filter = train_on_windows(pattern, windows, &self.train, attempt)?;
        let refs: Vec<&[PrimitiveEvent]> = windows.iter().map(Vec::as_slice).collect();
        QuantizedFilter::quantize(&f32_filter, &refs)
            .map_err(|e| format!("int8 calibration failed: {e}"))
    }

    fn encode(&self, filter: &QuantizedFilter) -> Vec<u8> {
        encode_quantized_filter(filter)
    }

    fn decode(&self, bytes: &[u8]) -> Result<QuantizedFilter, String> {
        decode_quantized_filter(bytes).map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::PassthroughFilter;
    use dlacep_cep::{PatternExpr, TypeSet};
    use dlacep_events::{TypeId, WindowSpec};

    fn pattern() -> Pattern {
        Pattern::new(
            PatternExpr::Seq(vec![
                PatternExpr::event(TypeSet::single(TypeId(0)), "a"),
                PatternExpr::event(TypeSet::single(TypeId(1)), "b"),
            ]),
            vec![],
            WindowSpec::Count(4),
        )
    }

    fn windows(n: usize) -> Vec<Vec<PrimitiveEvent>> {
        let mut id = 0u64;
        (0..n)
            .map(|w| {
                (0..8)
                    .map(|i| {
                        let t = match (w + i) % 4 {
                            0 => 0,
                            1 => 1,
                            _ => 2,
                        };
                        id += 1;
                        PrimitiveEvent::new(id, TypeId(t), id, vec![0.25])
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn config_validation_rejects_bad_values() {
        assert!(RetrainConfig::default().validate().is_ok());
        for bad in [
            RetrainConfig {
                backoff_base_windows: 0,
                ..RetrainConfig::default()
            },
            RetrainConfig {
                replay_windows: 1,
                ..RetrainConfig::default()
            },
            RetrainConfig {
                holdout_every: 1,
                ..RetrainConfig::default()
            },
            RetrainConfig {
                min_recall: 1.5,
                ..RetrainConfig::default()
            },
            RetrainConfig {
                min_precision: f64::NAN,
                ..RetrainConfig::default()
            },
        ] {
            assert!(bad.validate().is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn replay_ring_is_bounded_and_split_is_disjoint() {
        let cfg = RetrainConfig {
            replay_windows: 4,
            holdout_every: 2,
            ..RetrainConfig::default()
        };
        let mut rr: RetrainRuntime<PassthroughFilter> = RetrainRuntime::new(
            cfg,
            Box::new(FixedTrainer {
                filter: PassthroughFilter,
            }),
        );
        for w in windows(7) {
            rr.observe_window(&w);
        }
        assert_eq!(rr.replay.len(), 4, "ring keeps only the newest windows");
        let (train, holdout) = rr.split_replay();
        assert_eq!(train.len() + holdout.len(), 4);
        assert_eq!(holdout.len(), 2, "every 2nd of 4 windows is held out");
        // Newest window survived the ring.
        let newest = windows(7).pop().unwrap();
        assert_eq!(rr.replay.back().unwrap(), &newest);
    }

    struct FixedTrainer<F> {
        filter: F,
    }

    impl<F: Filter + Clone> ModelTrainer<F> for FixedTrainer<F> {
        fn retrain(
            &self,
            _pattern: &Pattern,
            _windows: &[Vec<PrimitiveEvent>],
            _attempt: u64,
        ) -> Result<F, String> {
            Ok(self.filter.clone())
        }
        fn encode(&self, _filter: &F) -> Vec<u8> {
            vec![1]
        }
        fn decode(&self, _bytes: &[u8]) -> Result<F, String> {
            Ok(self.filter.clone())
        }
    }

    #[test]
    fn gate_scores_oracle_candidate_perfectly() {
        let p = pattern();
        let holdout = windows(6);
        let oracle = OracleFilter::new(p.clone());
        let report = validate_candidate(&oracle, &oracle, &holdout).unwrap();
        assert_eq!(report.recall, 1.0);
        assert_eq!(report.precision, 1.0);
        assert_eq!(report.holdout_windows, 6);
        assert!(report.marked_rate > 0.0, "stream contains matches");
    }

    #[test]
    fn gate_fails_silent_and_panicking_candidates() {
        struct Silent;
        impl Filter for Silent {
            fn mark(&self, w: &[PrimitiveEvent]) -> Vec<bool> {
                vec![false; w.len()]
            }
            fn name(&self) -> &'static str {
                "silent"
            }
        }
        struct Panicky;
        impl Filter for Panicky {
            fn mark(&self, _w: &[PrimitiveEvent]) -> Vec<bool> {
                panic!("candidate bug")
            }
            fn name(&self) -> &'static str {
                "panicky"
            }
        }
        struct Short;
        impl Filter for Short {
            fn mark(&self, w: &[PrimitiveEvent]) -> Vec<bool> {
                vec![true; w.len() / 2]
            }
            fn name(&self) -> &'static str {
                "short"
            }
        }
        let p = pattern();
        let holdout = windows(6);
        let oracle = OracleFilter::new(p.clone());
        let silent = validate_candidate(&Silent, &oracle, &holdout).unwrap();
        assert_eq!(silent.recall, 0.0, "silent filter marks nothing");
        assert!(validate_candidate(&Panicky, &oracle, &holdout).is_err());
        assert!(validate_candidate(&Short, &oracle, &holdout).is_err());
    }

    #[test]
    fn train_on_windows_learns_the_replay_scheme() {
        let p = pattern();
        let ws = windows(48);
        let mut cfg = TrainConfig::quick();
        cfg.max_epochs = 30;
        let filter = train_on_windows(&p, &ws, &cfg, 0).unwrap();
        let oracle = OracleFilter::new(p.clone());
        let report = validate_candidate(&filter, &oracle, &ws[40..]).unwrap();
        assert!(report.recall > 0.8, "recall {} too low", report.recall);
        // Deterministic: the same attempt yields the same filter.
        let again = train_on_windows(&p, &ws, &cfg, 0).unwrap();
        assert_eq!(filter.mark(&ws[0]), again.mark(&ws[0]));
        // A retry uses a different seed.
        let retry = train_on_windows(&p, &ws, &cfg, 1).unwrap();
        let _ = retry; // different seed; no behavioural assertion needed
        assert!(train_on_windows(&p, &[], &cfg, 0).is_err());
    }

    #[test]
    fn a_non_finite_replay_window_does_not_fail_the_retrain() {
        let p = pattern();
        let mut ws = windows(32);
        for w in ws.iter_mut().step_by(7) {
            w[3].attrs[0] = f64::NAN;
        }
        let mut cfg = TrainConfig::quick();
        cfg.max_epochs = 3;
        let q = QuantizedRetrainer { train: cfg.clone() };
        let cand = q.retrain(&p, &ws, 0).expect("NaN windows are skipped");
        assert_eq!(cand.mark(&ws[1]).len(), ws[1].len());
        for w in &mut ws {
            w[0].attrs[0] = f64::INFINITY;
        }
        assert!(train_on_windows(&p, &ws, &cfg, 0).is_err());
    }

    #[test]
    fn retrainers_round_trip_their_candidates() {
        let p = pattern();
        let ws = windows(32);
        let mut cfg = TrainConfig::quick();
        cfg.max_epochs = 3;
        let ev = EventNetRetrainer { train: cfg.clone() };
        let cand = ev.retrain(&p, &ws, 0).unwrap();
        let back = ev.decode(&ev.encode(&cand)).unwrap();
        assert_eq!(cand.mark(&ws[0]), back.mark(&ws[0]));
        assert!(ev.decode(b"garbage").is_err());

        let q = QuantizedRetrainer { train: cfg };
        let qcand = q.retrain(&p, &ws, 0).unwrap();
        let qback = q.decode(&q.encode(&qcand)).unwrap();
        assert_eq!(qcand, qback, "int8 round trip is byte-exact");
    }
}
