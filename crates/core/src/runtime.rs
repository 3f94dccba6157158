//! Supervised streaming DLACEP runtime with graceful degradation.
//!
//! [`Dlacep`](crate::pipeline::Dlacep) runs the loop over a finite,
//! in-order slice. This module is the deployable counterpart — a
//! [`StreamingDlacep`] ingests events as they arrive, one at a time or in
//! batches, and drives the same filter stage ([`crate::stage`]) with the
//! supervision a long-lived deployment needs:
//!
//! * **Filter faults** — every filter invocation goes through the stage's
//!   [`FilterGuard`]: panics are caught, mark vectors validated, scores
//!   optionally checked for NaNs. Faulty windows fail open (relay
//!   everything); sustained faults trip a circuit breaker into passthrough
//!   (exact-CEP) mode with half-open probing to re-admit a recovered filter.
//!   Here the guard's state outlives a call, is checkpointed, and every
//!   transition lands in the timeline.
//! * **Partial-match explosions** — the extractor runs under an optional
//!   partial-match budget ([`RuntimeConfig::max_partials`]); excess state is
//!   shed oldest-first, which can lose matches but never invents them.
//! * **Concept drift** — a [`DriftMonitor`] watches the marking rate; a
//!   `Drifted` verdict routes all subsequent windows to exact CEP and raises
//!   a retrain signal until [`StreamingDlacep::rebaseline`] is called.
//! * **Out-of-order input** — arrival-time regressions are handled by an
//!   explicit [`OutOfOrderPolicy`], event by event.
//!
//! Degradation is **supervised**: every mode change is recorded in a
//! [`ModeTransition`] timeline, and the final [`RuntimeReport`] extends the
//! batch report with fault counters, shed counts and degraded-window totals.
//!
//! On a healthy filter and in-order input the runtime is match-for-match
//! equivalent to the batch pipeline over the same events; degraded modes only
//! ever widen the relayed set, so the ID-distance guarantee (§4.4) keeps the
//! output a subset of the exact ECEP match set throughout.

use crate::assembler::AssemblerConfig;
use crate::drift::{DriftConfig, DriftMonitor, DriftMonitorState, DriftState};
use crate::filter::{Filter, OracleFilter};
use crate::guard::{BreakerState, FilterGuard, GuardConfig, GuardOutcome, GuardState, GuardStats};
use crate::pipeline::{CepCounters, DlacepError};
use crate::retrain::{
    validate_candidate, GateReport, ModelTrainer, RetrainCheckpoint, RetrainConfig, RetrainRuntime,
    RetrainState,
};
use crate::stage::{checked_usize, MarkStage, StageState, WindowObserver};
use dlacep_cep::engine::CepEngine;
use dlacep_cep::plan::Plan;
use dlacep_cep::{EngineStats, Match, NfaConfig, NfaEngine, Pattern};
use dlacep_dur::{CodecError, Decoder};
use dlacep_events::{
    AttrValue, EventId, OutOfOrderPolicy, PrimitiveEvent, StreamError, Timestamp, TypeId,
};
use dlacep_obs::{
    Counter, FieldValue, Histogram, Journal, MetricsSnapshot, Registry, TraceBuilder, Tracer,
};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// Errors surfaced by the streaming runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RuntimeError {
    /// An ingested event violated stream ordering under
    /// [`OutOfOrderPolicy::Reject`].
    Stream(StreamError),
    /// The pattern or assembler configuration was rejected at construction.
    Pipeline(DlacepError),
    /// A guard or drift parameter was out of range. Construction used to
    /// panic on these deep inside the component constructors; they are
    /// user-supplied configuration, so they surface as a typed error.
    Config(String),
    /// A checkpoint could not be restored into this runtime (shape or
    /// configuration mismatch).
    Restore(String),
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeError::Stream(e) => write!(f, "stream: {e}"),
            RuntimeError::Pipeline(e) => write!(f, "pipeline: {e}"),
            RuntimeError::Config(e) => write!(f, "config: {e}"),
            RuntimeError::Restore(e) => write!(f, "restore: {e}"),
        }
    }
}

impl std::error::Error for RuntimeError {}

impl From<StreamError> for RuntimeError {
    fn from(e: StreamError) -> Self {
        RuntimeError::Stream(e)
    }
}

impl From<DlacepError> for RuntimeError {
    fn from(e: DlacepError) -> Self {
        RuntimeError::Pipeline(e)
    }
}

/// Streaming runtime configuration.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct RuntimeConfig {
    /// Assembler geometry; `None` = the paper default (`MarkSize = 2W`,
    /// `StepSize = W`).
    pub assembler: Option<AssemblerConfig>,
    /// What to do with timestamp regressions (default: reject with an
    /// error).
    pub ooo_policy: OutOfOrderPolicy,
    /// Filter-guard / circuit-breaker tuning.
    pub guard: GuardConfig,
    /// Partial-match budget for the extractor; `None` = unbounded (the
    /// batch behaviour).
    pub max_partials: Option<usize>,
    /// Drift detection; `None` disables the drift-triggered fallback.
    pub drift: Option<DriftConfig>,
    /// Self-healing drift recovery; `None` (the default) keeps the manual
    /// `rebaseline` workflow. Requires a model trainer attached via
    /// [`crate::builder::StreamingBuilder::retrain`].
    pub retrain: Option<RetrainConfig>,
}

/// The runtime's effective operating mode.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum RuntimeMode {
    /// The neural filter is trusted and applied.
    #[default]
    Filtering,
    /// Windows pass through unfiltered — exact-CEP behaviour (full recall,
    /// no throughput gain).
    DegradedExact,
}

/// Why the runtime changed mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ModeCause {
    /// Initial state.
    Start,
    /// The breaker tripped after consecutive filter faults.
    FaultThreshold,
    /// A half-open probe found the filter still faulty.
    ProbeFailed,
    /// A half-open probe succeeded; the filter is re-admitted.
    Recovered,
    /// The drift monitor signalled a sustained marking-rate deviation.
    Drift,
    /// [`StreamingDlacep::rebaseline`] acknowledged a retrain.
    Rebaselined,
    /// The retrain supervisor hot-swapped a validated candidate model in.
    Swapped,
}

/// One entry of the degradation timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ModeTransition {
    /// Index of the assembler window at which the mode took effect.
    pub window: u64,
    /// The mode entered.
    pub mode: RuntimeMode,
    /// What triggered it.
    pub cause: ModeCause,
}

/// How many matches a runtime has emitted, and a running hash over them in
/// emission order. It stands in a checkpoint for the matches themselves —
/// output already emitted is not state — and lets restore verify that the
/// emitted prefix it is handed back (from the durability layer's emit log)
/// is the one the checkpointing runtime produced. Its count is the
/// emitted-match watermark: a downstream consumer that persisted `count`
/// outputs can deduplicate replayed emissions exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EmittedMark {
    /// Matches emitted so far.
    pub count: u64,
    /// Hash of every emitted match's ids and bindings, in order.
    pub hash: u64,
}

/// The running hash of an [`EmittedMark`], fed one match at a time: the
/// match's id count and ids, its binding count, then each binding's name
/// length, name bytes, id count and ids. Those are the words of a match's
/// encoding (`Enc for Match`) in the order it lays them out, which is what
/// lets [`EmittedMark::push_encoded`] hash the encoding without decoding it.
struct Mixer(u64);

impl Mixer {
    fn word(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn ids(&mut self, ids: &[EventId]) {
        self.word(ids.len() as u64);
        ids.iter().for_each(|id| self.word(id.0));
    }

    fn name(&mut self, name: &[u8]) {
        self.word(name.len() as u64);
        name.iter().for_each(|&b| self.word(u64::from(b)));
    }
}

impl EmittedMark {
    /// The mark of a whole emitted sequence.
    pub fn of(matches: &[Match]) -> Self {
        let mut mark = EmittedMark::default();
        matches.iter().for_each(|m| mark.push(m));
        mark
    }

    /// Advance the mark over one more emitted match.
    pub fn push(&mut self, m: &Match) {
        let mut h = Mixer(self.hash);
        h.ids(&m.event_ids);
        let bindings = m.bindings();
        h.word(bindings.len() as u64);
        for (name, bound) in bindings {
            h.name(name.as_bytes());
            h.ids(bound);
        }
        self.count += 1;
        self.hash = h.0;
    }

    /// [`push`](Self::push) the match `record` encodes, walking the
    /// encoding in place: no `Match` is built and nothing is allocated.
    /// `record` must be exactly one match's encoding; the bytes decoding
    /// would refuse are refused here with the same kind of [`CodecError`]
    /// — a cut-short or over-long record, a string that is not UTF-8 — and
    /// leave the mark as it was.
    pub fn push_encoded(&mut self, record: &[u8]) -> Result<(), CodecError> {
        fn ids(h: &mut Mixer, d: &mut Decoder<'_>) -> Result<(), CodecError> {
            let n = d.take_u64()?;
            h.word(n);
            for _ in 0..n {
                h.word(d.take_u64()?);
            }
            Ok(())
        }
        let mut d = Decoder::new(record);
        let mut h = Mixer(self.hash);
        ids(&mut h, &mut d)?;
        let bindings = d.take_u64()?;
        h.word(bindings);
        for _ in 0..bindings {
            let len = d.get::<usize>()?;
            let name = d.take_bytes(len)?;
            std::str::from_utf8(name).map_err(|_| CodecError::InvalidUtf8)?;
            h.name(name);
            ids(&mut h, &mut d)?;
        }
        d.finish()?;
        self.count += 1;
        self.hash = h.0;
        Ok(())
    }
}

/// Full mutable state of a [`StreamingDlacep`], captured by
/// [`StreamingDlacep::checkpoint`] and re-injected by
/// [`StreamingBuilder::restore`](crate::builder::StreamingBuilder::restore).
/// Everything derived from the pattern and configuration (compiled plan,
/// guard wiring) is rebuilt at construction; the checkpoint carries only
/// the trajectory: admission cursors, the un-relayed buffer, breaker/drift
/// state, the extractor's partial matches, the emitted mark, and the
/// observability watermark — its size follows the live state, not the
/// length of the run.
///
/// The binary encoding (see `dlacep-dur`) round-trips floats bit-exactly, so
/// a restored runtime continues *byte-identically* to the uninterrupted one
/// on the same suffix of events.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeCheckpoint {
    /// Canonical encoding of the semantic configuration (assembler geometry,
    /// out-of-order policy, guard, budget, drift). Restore refuses a
    /// checkpoint whose fingerprint differs from the target runtime's —
    /// resuming under different semantics would silently diverge.
    pub config_fingerprint: Vec<u8>,
    /// Extractor state (arena, partials, pending matches, counters).
    pub engine: dlacep_cep::NfaEngineState,
    /// Breaker trajectory.
    pub guard: GuardState,
    /// Drift detector trajectory, present iff drift detection is configured.
    pub drift: Option<DriftMonitorState>,
    /// Whether the runtime is in the drift-triggered fallback.
    pub drift_fallback: bool,
    /// Whether an unacknowledged retrain signal is pending.
    pub retrain_signaled: bool,
    /// Admitted events not yet relayed/discarded.
    pub buf: Vec<PrimitiveEvent>,
    /// Marks aligned with `buf`.
    pub marks: Vec<bool>,
    /// Stream position of `buf[0]`.
    pub base: u64,
    /// Events admitted so far.
    pub admitted: u64,
    /// Next assembler window start position.
    pub next_window_start: u64,
    /// End position of the last evaluated window.
    pub last_window_end: u64,
    /// Positions relayed or discarded so far.
    pub relayed_upto: u64,
    /// Last admitted timestamp (out-of-order reference point).
    pub last_ts: Option<u64>,
    /// Next event id to stamp.
    pub next_id: u64,
    /// Report counter: events offered.
    pub events_offered: u64,
    /// Report counter: events dropped by the out-of-order policy.
    pub events_dropped: u64,
    /// Report counter: events admitted with a clamped timestamp.
    pub events_clamped: u64,
    /// Report counter: events relayed to the extractor.
    pub events_relayed: u64,
    /// Report counter: windows evaluated.
    pub windows_evaluated: u64,
    /// Report counter: windows served degraded.
    pub windows_degraded: u64,
    /// Mode-change timeline up to the checkpoint.
    pub timeline: Vec<ModeTransition>,
    /// Count and running hash of the matches emitted up to the checkpoint.
    pub emitted: EmittedMark,
    /// Restore-side input, never captured and never encoded: the mark of
    /// the emitted matches that whoever logged them keeps instead of
    /// handing them back. The durability layer folds it from its emit
    /// log's bytes ([`EmittedMark::push_encoded`]) and holds those bytes as
    /// the runtime's output. The default (nothing) when every emitted match
    /// comes back in [`emitted_prefix`](Self::emitted_prefix).
    pub emitted_logged: EmittedMark,
    /// Restore-side input, never captured and never encoded: the emitted
    /// matches after those [`emitted_logged`](Self::emitted_logged) marks,
    /// handed back to the runtime (decoding a version-1 payload fills it
    /// from the matches that format embedded; a caller that keeps its own
    /// output puts it here). Restore continues the logged mark over it,
    /// checks the result against [`emitted`](Self::emitted), and seeds
    /// [`StreamingDlacep::matches_so_far`] with it.
    pub emitted_prefix: Vec<Match>,
    /// Extractor shed count already journaled (per-event delta bookkeeping).
    pub journaled_sheds: u64,
    /// Journal sequence watermark at capture time: the number of journal
    /// entries this runtime had recorded. Recovery equivalence compares a
    /// restored run's journal to the uninterrupted run's entries from this
    /// sequence number on.
    pub journal_next_seq: u64,
    /// Retrain-supervisor state (state machine, replay buffer, model
    /// lineage), present iff self-healing is configured. A checkpoint taken
    /// while a retrain is pending restores with the schedule intact, so an
    /// in-flight retrain interrupted by a crash is resumed at the same
    /// window boundary.
    pub retrain: Option<RetrainCheckpoint>,
}

/// Retrain-supervisor summary carried by [`RuntimeReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetrainReport {
    /// Final supervisor position.
    pub state: RetrainState,
    /// Version of the deployed retrained model, if any swap happened.
    pub active_version: Option<u64>,
    /// Candidates accepted (validated and swapped) over the run.
    pub models_accepted: u64,
}

/// Outcome of a streaming run, extending the batch report with degradation
/// telemetry.
#[derive(Debug, Clone)]
pub struct RuntimeReport {
    /// Matches emitted by the extractor.
    pub matches: Vec<Match>,
    /// Events offered to [`StreamingDlacep::ingest`].
    pub events_offered: usize,
    /// Events admitted into the stream (offered − dropped/rejected).
    pub events_admitted: usize,
    /// Events discarded by [`OutOfOrderPolicy::Drop`].
    pub events_dropped: usize,
    /// Events admitted with a clamped timestamp
    /// ([`OutOfOrderPolicy::ClampToLastTs`]).
    pub events_clamped: usize,
    /// Distinct events relayed to the extractor.
    pub events_relayed: usize,
    /// Assembler windows evaluated.
    pub windows_evaluated: usize,
    /// Windows served in a degraded (passthrough) mode.
    pub windows_degraded: usize,
    /// Filter-guard fault and breaker counters.
    pub guard: GuardStats,
    /// Mode-change timeline, starting with the initial mode.
    pub timeline: Vec<ModeTransition>,
    /// Whether drift raised a retrain signal that was never acknowledged.
    pub retrain_signaled: bool,
    /// Mode at the end of the run.
    pub final_mode: RuntimeMode,
    /// Final drift verdict, if drift detection was enabled.
    pub drift_state: Option<DriftState>,
    /// Retrain-supervisor summary, if self-healing was configured.
    pub retrain: Option<RetrainReport>,
    /// Extractor work counters (includes `partials_shed` under a budget).
    pub extractor_stats: EngineStats,
    /// Snapshot of the runtime's obs registry taken at
    /// [`StreamingDlacep::finish`]; `None` when the registry is disabled.
    /// Its journal subsumes `timeline` (every `ModeTransition` is mirrored
    /// as a `"mode"` journal entry) and adds breaker, drift, and shed
    /// events.
    pub obs: Option<MetricsSnapshot>,
}

impl RuntimeReport {
    /// Fraction of windows served degraded.
    pub fn degraded_fraction(&self) -> f64 {
        if self.windows_evaluated == 0 {
            0.0
        } else {
            self.windows_degraded as f64 / self.windows_evaluated as f64
        }
    }
}

/// Cached handles into the runtime's obs registry. Counter values and the
/// journal's `(kind, fields)` sequence follow the determinism contract;
/// the histogram and timestamps are timing and exempt.
struct RuntimeObs {
    registry: Arc<Registry>,
    journal: Journal,
    events_offered: Counter,
    events_admitted: Counter,
    events_dropped: Counter,
    events_clamped: Counter,
    events_relayed: Counter,
    windows_evaluated: Counter,
    windows_degraded: Counter,
    windows_marked_quant: Counter,
    windows_marked_f32: Counter,
    guard_faults: Counter,
    breaker_trips: Counter,
    recoveries: Counter,
    retrain_started: Counter,
    retrain_retried: Counter,
    retrain_validated: Counter,
    retrain_rejected: Counter,
    retrain_swapped: Counter,
    window_nanos: Histogram,
    retrain_gate_nanos: Histogram,
    ingest_to_emit_nanos: Histogram,
    cep: CepCounters,
}

impl RuntimeObs {
    fn new(registry: Arc<Registry>) -> Self {
        RuntimeObs {
            journal: registry.journal(),
            events_offered: registry.counter("runtime.events_offered"),
            events_admitted: registry.counter("runtime.events_admitted"),
            events_dropped: registry.counter("runtime.events_dropped"),
            events_clamped: registry.counter("runtime.events_clamped"),
            events_relayed: registry.counter("runtime.events_relayed"),
            windows_evaluated: registry.counter("runtime.windows_evaluated"),
            windows_degraded: registry.counter("runtime.windows_degraded"),
            windows_marked_quant: registry.counter("runtime.windows_marked_quant"),
            windows_marked_f32: registry.counter("runtime.windows_marked_f32"),
            guard_faults: registry.counter("guard.faults"),
            breaker_trips: registry.counter("guard.breaker_trips"),
            recoveries: registry.counter("guard.recoveries"),
            retrain_started: registry.counter("runtime.retrain_started"),
            retrain_retried: registry.counter("runtime.retrain_retried"),
            retrain_validated: registry.counter("runtime.retrain_validated"),
            retrain_rejected: registry.counter("runtime.retrain_rejected"),
            retrain_swapped: registry.counter("runtime.retrain_swapped"),
            window_nanos: registry.histogram("runtime.window_nanos"),
            retrain_gate_nanos: registry.histogram("runtime.retrain_gate_nanos"),
            ingest_to_emit_nanos: registry.histogram("runtime.ingest_to_emit_nanos"),
            cep: CepCounters::new(&registry),
            registry,
        }
    }

    fn snapshot_if_enabled(&self) -> Option<MetricsSnapshot> {
        (self.registry.is_enabled()).then(|| self.registry.snapshot())
    }
}

/// One sampled in-flight trace: the builder plus the index of its root
/// (`ingest`) span, which later stage spans parent to.
struct ActiveTrace {
    builder: TraceBuilder,
    root: u32,
}

/// What the supervisor notes about the window being replayed, between the
/// stage's `begin` and `settled` hooks.
#[derive(Default)]
struct WindowNotes {
    wall: Option<Instant>,
    /// Whether the window covers a sampled event (span structure is
    /// deterministic; only the nanosecond timestamps vary run to run).
    traced: bool,
    t_mark0: u64,
    mode_before: RuntimeMode,
    mark_path: &'static str,
}

/// Everything that watches the guard replay: drift detection, the retrain
/// supervisor, the degradation timeline, metrics and trace spans. Attached
/// to the [`MarkStage`] as its [`WindowObserver`], so the hook order per
/// window is guard → drift → retrain.
struct Supervisor<F: Filter> {
    pattern: Pattern,
    drift: Option<DriftMonitor>,
    drift_fallback: bool,
    retrain_signaled: bool,
    retrain: Option<RetrainRuntime<F>>,
    windows_degraded: usize,
    timeline: Vec<ModeTransition>,
    obs: RuntimeObs,
    /// Trace plane handle (shared with the obs registry). When enabled,
    /// `traces` is position-aligned with the runtime's buffer (`None` =
    /// unsampled event); when disabled it stays empty.
    tracer: Tracer,
    traces: VecDeque<Option<ActiveTrace>>,
    notes: WindowNotes,
}

/// One `"retrain"` journal entry: window and phase, then `more`.
fn journal_retrain(journal: &Journal, we: u64, phase: &str, more: &[(&str, FieldValue)]) {
    let mut fields = vec![("window", we.into()), ("phase", phase.into())];
    fields.extend_from_slice(more);
    journal.record("retrain", &fields);
}

impl<F: Filter> Supervisor<F> {
    fn mode(&self, guard: &FilterGuard<F>) -> RuntimeMode {
        if self.drift_fallback || guard.state() != BreakerState::Closed {
            RuntimeMode::DegradedExact
        } else {
            RuntimeMode::Filtering
        }
    }

    /// Append a mode transition to both the timeline and the journal (the
    /// journal's `"mode"` entries subsume the timeline).
    fn record_mode(&mut self, window: u64, mode: RuntimeMode, cause: ModeCause) {
        self.timeline.push(ModeTransition {
            window,
            mode,
            cause,
        });
        self.obs.journal.record(
            "mode",
            &[
                ("window", window.into()),
                ("mode", format!("{mode:?}").into()),
                ("cause", format!("{cause:?}").into()),
            ],
        );
    }

    fn count_degraded(&mut self) {
        self.windows_degraded += 1;
        self.obs.windows_degraded.inc();
    }

    /// Advance the retrain supervisor by one evaluated window (`we` windows
    /// so far). Scheduling is keyed to the window count, so the whole
    /// degrade → retrain → validate → swap cycle is a pure function of the
    /// workload and config regardless of batching or thread count. Returns
    /// the validated candidate for the stage to swap in.
    fn step_retrain(&mut self, we: u64, guard: &FilterGuard<F>) -> Option<F> {
        let rr = self.retrain.as_mut()?;
        if self.retrain_signaled && rr.state == RetrainState::Idle {
            // Defer by one backoff period so the replay ring captures some
            // post-drift windows before the first attempt trains on them.
            let resume_at = we.saturating_add(rr.cfg.backoff_base_windows);
            rr.state = RetrainState::Waiting {
                resume_at,
                attempt: 0,
            };
            self.obs.retrain_started.inc();
            journal_retrain(
                &self.obs.journal,
                we,
                "scheduled",
                &[("attempt", 0u64.into()), ("resume_at", resume_at.into())],
            );
        }
        let RetrainState::Waiting { resume_at, attempt } = rr.state else {
            return None;
        };
        if we < resume_at {
            return None;
        }
        let cfg = rr.cfg;
        let (train_slice, holdout) = rr.split_replay();
        let candidate: Result<F, String> = if train_slice.is_empty() || holdout.is_empty() {
            Err(format!(
                "replay buffer too small to split ({} windows)",
                train_slice.len() + holdout.len()
            ))
        } else {
            // Train on the ingest thread, behind a panic fence: a crashed
            // trainer must surface as a retryable verdict, not tear down
            // the runtime.
            catch_unwind(AssertUnwindSafe(|| {
                rr.trainer
                    .retrain(&self.pattern, &train_slice, u64::from(attempt))
            }))
            .map_err(|_| "training job panicked".to_string())
            .and_then(|r| r)
        };
        let verdict: Result<(F, GateReport), String> = candidate.and_then(|cand| {
            let _span = self.obs.retrain_gate_nanos.span();
            let oracle = OracleFilter::new(self.pattern.clone());
            let gate = validate_candidate(&cand, &oracle, &holdout)?;
            if gate.recall < cfg.min_recall || gate.precision < cfg.min_precision {
                return Err(format!(
                    "gate failed: recall {:.4} (min {:.4}), precision {:.4} (min {:.4})",
                    gate.recall, cfg.min_recall, gate.precision, cfg.min_precision
                ));
            }
            Ok((cand, gate))
        });
        match verdict {
            Ok((cand, gate)) => {
                let version = rr.next_version;
                rr.next_version += 1;
                rr.active_model = Some((version, rr.trainer.encode(&cand)));
                rr.state = RetrainState::Idle;
                // Floor the rebaseline so a sparse holdout cannot produce a
                // zero baseline (which would make every later rate "in
                // tolerance" and blind the monitor).
                let baseline = gate.marked_rate.max(0.01);
                rr.baseline_override = Some(baseline);
                if let Some(m) = &mut self.drift {
                    m.rebaseline(baseline);
                }
                self.drift_fallback = false;
                self.retrain_signaled = false;
                self.obs.retrain_validated.inc();
                self.obs.retrain_swapped.inc();
                journal_retrain(
                    &self.obs.journal,
                    we,
                    "validated",
                    &[
                        ("attempt", u64::from(attempt).into()),
                        ("recall", format!("{:.4}", gate.recall).into()),
                        ("precision", format!("{:.4}", gate.precision).into()),
                    ],
                );
                journal_retrain(
                    &self.obs.journal,
                    we,
                    "swapped",
                    &[("version", version.into())],
                );
                // A swap leaves the breaker where it was, so the mode can
                // be read before the stage installs the candidate.
                self.record_mode(we, self.mode(guard), ModeCause::Swapped);
                Some(cand)
            }
            Err(reason) => {
                self.obs.retrain_rejected.inc();
                journal_retrain(
                    &self.obs.journal,
                    we,
                    "rejected",
                    &[
                        ("attempt", u64::from(attempt).into()),
                        ("reason", reason.into()),
                    ],
                );
                let next_attempt = attempt + 1;
                if next_attempt > cfg.max_retries {
                    rr.state = RetrainState::Exhausted;
                    journal_retrain(
                        &self.obs.journal,
                        we,
                        "exhausted",
                        &[("verdict", "permanent-degraded".into())],
                    );
                } else {
                    let backoff = cfg
                        .backoff_base_windows
                        .saturating_mul(1 << next_attempt.min(16));
                    let resume_at = we.saturating_add(backoff);
                    rr.state = RetrainState::Waiting {
                        resume_at,
                        attempt: next_attempt,
                    };
                    self.obs.retrain_retried.inc();
                    journal_retrain(
                        &self.obs.journal,
                        we,
                        "scheduled",
                        &[
                            ("attempt", u64::from(next_attempt).into()),
                            ("resume_at", resume_at.into()),
                        ],
                    );
                }
                None
            }
        }
    }
}

impl<F: Filter> WindowObserver<F> for Supervisor<F> {
    fn bypass(&self) -> bool {
        self.drift_fallback
    }

    fn begin(&mut self, _widx: u64, span: Range<usize>, guard: &FilterGuard<F>) {
        self.obs.windows_evaluated.inc();
        let traced = self.tracer.is_enabled() && self.traces.range(span).any(Option::is_some);
        self.notes = WindowNotes {
            wall: self.obs.window_nanos.is_enabled().then(Instant::now),
            traced,
            t_mark0: if traced { self.tracer.now_nanos() } else { 0 },
            mode_before: self.mode(guard),
            mark_path: "degraded",
        };
        if self.drift_fallback {
            self.count_degraded();
        }
    }

    fn marked(&mut self, widx: u64, outcome: &mut GuardOutcome, guard: &FilterGuard<F>) {
        let healthy = outcome.filter_invoked && outcome.fault.is_none();
        self.notes.mark_path = match (healthy, outcome.fault) {
            (_, Some(_)) => "fault",
            (false, None) => "degraded",
            (true, None) if guard.filter().quantized() => "int8",
            (true, None) => "f32",
        };
        if outcome.fault.is_some() {
            self.obs.guard_faults.inc();
        }
        for &(from, to) in &outcome.transitions {
            self.obs.journal.record(
                "breaker",
                &[
                    ("window", widx.into()),
                    ("from", format!("{from:?}").into()),
                    ("to", format!("{to:?}").into()),
                ],
            );
            let entry = match (from, to) {
                (BreakerState::Closed, BreakerState::Open) => {
                    Some((RuntimeMode::DegradedExact, ModeCause::FaultThreshold))
                }
                (BreakerState::HalfOpen, BreakerState::Open) => {
                    Some((RuntimeMode::DegradedExact, ModeCause::ProbeFailed))
                }
                (BreakerState::HalfOpen, BreakerState::Closed) => {
                    self.obs.recoveries.inc();
                    Some((RuntimeMode::Filtering, ModeCause::Recovered))
                }
                _ => None,
            };
            if to == BreakerState::Open {
                self.obs.breaker_trips.inc();
            }
            if let Some((mode, cause)) = entry {
                self.record_mode(widx, mode, cause);
            }
        }
        if healthy {
            // Attribute the marking to its inference path so int8 rollouts
            // are visible next to the f32 baseline.
            if guard.filter().quantized() {
                self.obs.windows_marked_quant.inc();
            } else {
                self.obs.windows_marked_f32.inc();
            }
            let verdict = self.drift.as_mut().map(|m| m.observe_marks(&outcome.marks));
            if verdict == Some(DriftState::Drifted) {
                // The verdict covers this window too: fail open now.
                self.drift_fallback = true;
                self.retrain_signaled = true;
                self.obs.journal.record(
                    "drift",
                    &[("window", widx.into()), ("verdict", "Drifted".into())],
                );
                self.record_mode(widx, RuntimeMode::DegradedExact, ModeCause::Drift);
                outcome.marks.fill(true);
            }
        }
        if !healthy || self.drift_fallback {
            self.count_degraded();
        }
    }

    fn settled(
        &mut self,
        widx: u64,
        window: &[PrimitiveEvent],
        span: Range<usize>,
        guard: &FilterGuard<F>,
    ) -> Option<F> {
        let t_mark1 = if self.notes.traced {
            self.tracer.now_nanos()
        } else {
            0
        };
        if let Some(rr) = &mut self.retrain {
            rr.observe_window(window);
        }
        let candidate = self.step_retrain(widx + 1, guard);
        let mut exemplar = None;
        if self.notes.traced {
            let WindowNotes {
                t_mark0,
                mode_before,
                mark_path,
                ..
            } = self.notes;
            let mode_after = self.mode(guard);
            let breaker = guard.state().name();
            for at in self.traces.range_mut(span).flatten() {
                exemplar.get_or_insert_with(|| at.builder.trace_id());
                let a = at
                    .builder
                    .span_at("assemble", Some(at.root), t_mark0, t_mark0);
                at.builder.annotate(a, "window", widx.into());
                let m = at.builder.span_at("mark", Some(a), t_mark0, t_mark1);
                at.builder.annotate(m, "path", mark_path.into());
                at.builder.annotate(m, "breaker", breaker.into());
                if mode_after != mode_before {
                    let t = at.builder.instant("mode", Some(at.root));
                    at.builder
                        .annotate(t, "from", format!("{mode_before:?}").into());
                    at.builder
                        .annotate(t, "to", format!("{mode_after:?}").into());
                }
            }
        }
        if let Some(t0) = self.notes.wall {
            let nanos = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.obs.window_nanos.record_traced(nanos, exemplar);
        }
        candidate
    }
}

/// The streaming DLACEP runtime. See the [module docs](self).
///
/// The filter half of the loop is a [`MarkStage`]; this type is its
/// streaming driver: it owns admission (ids, out-of-order policy), the
/// buffer of events the stage has not finalized yet, and the CEP sink that
/// every finalized, kept event is fed to.
pub struct StreamingDlacep<F: Filter> {
    /// The configuration as passed in, kept for the checkpoint fingerprint.
    config: RuntimeConfig,
    stage: MarkStage<F>,
    sup: Supervisor<F>,
    engine: NfaEngine,
    /// Admitted events the stage has not finalized yet, in position order.
    buf: VecDeque<PrimitiveEvent>,
    /// Admission instants position-aligned with `buf`, feeding the
    /// ingest-to-emit latency histogram. Empty when that histogram is
    /// disabled.
    admit_at: VecDeque<Instant>,
    last_ts: Option<u64>,
    next_id: u64,
    events_offered: usize,
    events_dropped: usize,
    events_clamped: usize,
    events_relayed: usize,
    matches: Vec<Match>,
    /// Running mark over `matches`, advanced as they are emitted.
    emitted: EmittedMark,
    /// Extractor shed count already journaled, for per-event deltas.
    journaled_sheds: u64,
}

impl<F: Filter> StreamingDlacep<F> {
    /// Build with the default [`RuntimeConfig`].
    pub fn new(pattern: Pattern, filter: F) -> Result<Self, RuntimeError> {
        Self::open(pattern, filter, RuntimeConfig::default(), None, None, None)
    }

    /// Start a fluent builder — the one construction surface for every
    /// non-default option (configuration, retraining, obs, durability) and
    /// for restoring a checkpoint.
    pub fn builder(pattern: Pattern, filter: F) -> crate::builder::StreamingBuilder<F> {
        crate::builder::StreamingBuilder::new(pattern, filter)
    }

    /// The one construction path, behind [`StreamingDlacep::new`] and the
    /// builder's `build` and `restore`: validate the configuration, build
    /// the runtime against `registry` (default: the global one), then
    /// either record the initial mode as the journal's entry zero (`ckpt`
    /// is `None`) or continue the checkpointed trajectory, timeline and
    /// journal sequence (see [`StreamingBuilder::restore`]).
    ///
    /// [`StreamingBuilder::restore`]: crate::builder::StreamingBuilder::restore
    pub(crate) fn open(
        pattern: Pattern,
        filter: F,
        config: RuntimeConfig,
        registry: Option<Arc<Registry>>,
        trainer: Option<Box<dyn ModelTrainer<F>>>,
        ckpt: Option<RuntimeCheckpoint>,
    ) -> Result<Self, RuntimeError> {
        config.guard.validate().map_err(RuntimeError::Config)?;
        if let Some(drift) = &config.drift {
            drift.validate().map_err(RuntimeError::Config)?;
        }
        // Self-healing needs both the policy and a way to produce
        // candidates, so a lone half is a configuration error, not a
        // silent no-op.
        let retrain = match (config.retrain, trainer) {
            (Some(cfg), Some(t)) => {
                cfg.validate().map_err(RuntimeError::Config)?;
                if config.drift.is_none() {
                    return Err(RuntimeError::Config(
                        "config.retrain requires drift detection (config.drift) to raise the signal"
                            .into(),
                    ));
                }
                Some(RetrainRuntime::new(cfg, t))
            }
            (Some(_), None) => {
                return Err(RuntimeError::Config(
                    "config.retrain is set but no model trainer is attached; \
                     use StreamingDlacep::builder(..).retrain(cfg, trainer)"
                        .into(),
                ))
            }
            (None, Some(_)) => {
                return Err(RuntimeError::Config(
                    "a model trainer is attached but config.retrain is None".into(),
                ))
            }
            (None, None) => None,
        };
        let assembler = config
            .assembler
            .unwrap_or_else(|| AssemblerConfig::paper_default(pattern.window_size()));
        assembler
            .validate(pattern.window_size())
            .map_err(DlacepError::from)?;
        let plan = Plan::compile(&pattern).map_err(DlacepError::from)?;
        let engine = NfaEngine::from_plan(
            plan,
            NfaConfig {
                max_partials: config.max_partials,
                ..NfaConfig::default()
            },
        );
        let obs = RuntimeObs::new(registry.unwrap_or_else(dlacep_obs::global));
        let tracer = obs.registry.tracer();
        let mut rt = Self {
            config,
            stage: MarkStage::new(filter, config.guard, assembler, None, Histogram::disabled()),
            sup: Supervisor {
                pattern,
                drift: config.drift.map(DriftMonitor::new),
                drift_fallback: false,
                retrain_signaled: false,
                retrain,
                windows_degraded: 0,
                timeline: Vec::new(),
                obs,
                tracer,
                traces: VecDeque::new(),
                notes: WindowNotes::default(),
            },
            engine,
            buf: VecDeque::new(),
            admit_at: VecDeque::new(),
            last_ts: None,
            next_id: 0,
            events_offered: 0,
            events_dropped: 0,
            events_clamped: 0,
            events_relayed: 0,
            matches: Vec::new(),
            emitted: EmittedMark::default(),
            journaled_sheds: 0,
        };
        match ckpt {
            None => rt
                .sup
                .record_mode(0, RuntimeMode::Filtering, ModeCause::Start),
            Some(ckpt) => rt.resume(ckpt)?,
        }
        Ok(rt)
    }

    /// The obs registry this runtime records into.
    pub(crate) fn registry(&self) -> &Arc<Registry> {
        &self.sup.obs.registry
    }

    /// The pattern being extracted.
    pub fn pattern(&self) -> &Pattern {
        &self.sup.pattern
    }

    /// The assembler geometry in use.
    pub fn assembler(&self) -> &AssemblerConfig {
        self.stage.assembler()
    }

    /// The wrapped filter.
    pub fn filter(&self) -> &F {
        self.stage.guard().filter()
    }

    /// Current effective mode.
    pub fn mode(&self) -> RuntimeMode {
        self.sup.mode(self.stage.guard())
    }

    /// Live snapshot of this runtime's obs registry (`None` when obs is
    /// disabled). The scrape surface for serving tiers: unlike the report
    /// returned by [`StreamingDlacep::finish`], it can be taken while the
    /// runtime keeps ingesting.
    pub fn obs_snapshot(&self) -> Option<MetricsSnapshot> {
        self.sup.obs.snapshot_if_enabled()
    }

    /// The trace-plane handle this runtime records into (shared with its
    /// obs registry; disabled unless the registry carries a sampling
    /// tracer).
    pub fn tracer(&self) -> Tracer {
        self.sup.tracer.clone()
    }

    /// Current drift verdict, if drift detection is enabled.
    pub fn drift_state(&self) -> Option<DriftState> {
        self.sup.drift.as_ref().map(|m| m.state())
    }

    /// Whether drift has raised an unacknowledged retrain signal.
    pub fn retrain_signaled(&self) -> bool {
        self.sup.retrain_signaled
    }

    /// Current retrain-supervisor position, if self-healing is configured.
    pub fn retrain_state(&self) -> Option<RetrainState> {
        self.sup.retrain.as_ref().map(|r| r.state)
    }

    /// Version of the currently deployed retrained model (`None` before the
    /// first swap or without self-healing).
    pub fn active_model_version(&self) -> Option<u64> {
        let active = self.sup.retrain.as_ref()?.active_model.as_ref();
        active.map(|(v, _)| *v)
    }

    /// Partial matches currently stored by the extractor (bounded by
    /// [`RuntimeConfig::max_partials`] when set).
    pub fn stored_partials(&self) -> usize {
        self.engine.stored_partials()
    }

    /// The emitted matches this runtime still holds: every match it has
    /// emitted (those a restore was handed back included), less any taken
    /// with [`drain_matches`](Self::drain_matches). A durable tier drains
    /// at every checkpoint, so the runtime it wraps holds only the output
    /// not yet logged; read the whole output from the tier
    /// ([`DurableDlacep::matches`](crate::durable::DurableDlacep::matches)).
    pub fn matches_so_far(&self) -> &[Match] {
        &self.matches
    }

    /// Take the matches [`matches_so_far`](Self::matches_so_far) holds,
    /// oldest first. The emitted mark, and with it
    /// [`match_seq`](Self::match_seq), still counts them.
    pub fn drain_matches(&mut self) -> std::vec::Drain<'_, Match> {
        self.matches.drain(..)
    }

    /// Emitted-match watermark: how many matches this runtime has produced.
    /// Checkpointed (as [`EmittedMark::count`]), so a consumer that records
    /// it can deduplicate output across a crash/restore cycle exactly.
    pub fn match_seq(&self) -> u64 {
        self.emitted.count
    }

    /// Canonical encoding of the semantic configuration, used to pair
    /// checkpoints with compatible runtimes. See
    /// [`RuntimeCheckpoint::config_fingerprint`].
    fn config_fingerprint(&self) -> Vec<u8> {
        let mut e = dlacep_dur::Encoder::new();
        e.put_u64(self.assembler().mark_size as u64);
        e.put_u64(self.assembler().step_size as u64);
        e.put_u8(match self.config.ooo_policy {
            OutOfOrderPolicy::Drop => 0,
            OutOfOrderPolicy::ClampToLastTs => 1,
            OutOfOrderPolicy::Reject => 2,
        });
        let guard = self.config.guard;
        e.put_u64(guard.fault_threshold as u64);
        e.put_u64(guard.cooldown_windows as u64);
        e.put(&guard.validate_scores);
        e.put(&self.config.max_partials.map(|v| v as u64));
        match &self.config.drift {
            None => e.put_u8(0),
            Some(d) => {
                e.put_u8(1);
                e.put(&d.baseline_rate);
                e.put(&d.tolerance);
                e.put(&d.alpha);
                e.put_u64(d.patience as u64);
            }
        }
        // Retrain policy: appended only when configured, so fingerprints of
        // retrain-free runtimes stay byte-identical to pre-retrain builds
        // and their old checkpoints remain restorable.
        if let Some(r) = &self.config.retrain {
            e.put_u8(2);
            e.put_u64(r.backoff_base_windows);
            e.put_u64(u64::from(r.max_retries));
            e.put_u64(r.replay_windows as u64);
            e.put_u64(r.holdout_every as u64);
            e.put(&r.min_recall);
            e.put(&r.min_precision);
        }
        e.into_bytes()
    }

    /// Capture the full mutable state. Cheap relative to a window
    /// evaluation: clones the un-relayed buffer and stored partials — not
    /// the emitted matches, which the checkpoint only marks; touches no I/O
    /// (the durability layer in [`durable`](crate::durable) handles
    /// persistence, atomicity and the emit log).
    pub fn checkpoint(&self) -> RuntimeCheckpoint {
        let stage = self.stage.export_state();
        RuntimeCheckpoint {
            config_fingerprint: self.config_fingerprint(),
            engine: self.engine.export_state(),
            guard: stage.guard,
            drift: self.sup.drift.as_ref().map(|m| m.export_state()),
            drift_fallback: self.sup.drift_fallback,
            retrain_signaled: self.sup.retrain_signaled,
            buf: self.buf.iter().cloned().collect(),
            marks: stage.marks,
            base: stage.base,
            admitted: stage.admitted,
            next_window_start: stage.next_window_start,
            last_window_end: stage.last_window_end,
            // Positions leave the buffer exactly as they are relayed.
            relayed_upto: stage.base,
            last_ts: self.last_ts,
            next_id: self.next_id,
            events_offered: self.events_offered as u64,
            events_dropped: self.events_dropped as u64,
            events_clamped: self.events_clamped as u64,
            events_relayed: self.events_relayed as u64,
            windows_evaluated: stage.windows_evaluated,
            windows_degraded: self.sup.windows_degraded as u64,
            timeline: self.sup.timeline.clone(),
            emitted: self.emitted,
            emitted_logged: EmittedMark::default(),
            emitted_prefix: Vec::new(),
            journaled_sheds: self.journaled_sheds,
            journal_next_seq: self.sup.obs.journal.next_seq(),
            retrain: self.sup.retrain.as_ref().map(|r| r.export()),
        }
    }

    /// Continue the trajectory `ckpt` captured, in a runtime [`open`]ed
    /// with the checkpointing runtime's configuration and no journal entry
    /// of its own.
    ///
    /// [`open`]: Self::open
    fn resume(&mut self, ckpt: RuntimeCheckpoint) -> Result<(), RuntimeError> {
        if ckpt.config_fingerprint != self.config_fingerprint() {
            return Err(RuntimeError::Restore(
                "checkpoint was taken under a different runtime configuration".into(),
            ));
        }
        let us = |v, what| checked_usize(v, what).map_err(RuntimeError::Restore);
        match (self.sup.retrain.as_mut(), ckpt.retrain) {
            (Some(rr), Some(rck)) => {
                rr.import(rck).map_err(RuntimeError::Restore)?;
                // Redeploy the checkpointed model so marking continues with
                // the same weights. This runs *before* the guard state
                // import below: `swap_filter` clears the consecutive-fault
                // count, and the checkpointed count (which may include
                // post-swap faults) must win.
                if let Some((version, bytes)) = &rr.active_model {
                    let model = rr.trainer.decode(bytes).map_err(|e| {
                        RuntimeError::Restore(format!(
                            "checkpointed model v{version} failed to decode: {e}"
                        ))
                    })?;
                    self.stage.swap_filter(model);
                }
                // Re-apply the effective drift baseline: `import_state`
                // below only carries the trajectory, not the rebaselined
                // config.
                if let (Some(baseline), Some(m)) = (rr.baseline_override, self.sup.drift.as_mut()) {
                    m.set_baseline_rate(baseline);
                }
            }
            (None, None) => {}
            // Unreachable while the fingerprint covers retrain presence, but
            // a typed error beats trusting that coupling forever.
            _ => {
                return Err(RuntimeError::Restore(
                    "retrain state presence disagrees with configuration".into(),
                ))
            }
        }
        self.engine
            .import_state(ckpt.engine)
            .map_err(|e| RuntimeError::Restore(e.to_string()))?;
        match (self.sup.drift.as_mut(), ckpt.drift) {
            (Some(m), Some(st)) => m.import_state(st),
            (None, None) => {}
            // Unreachable while the fingerprint covers drift presence, but a
            // typed error beats trusting that coupling forever.
            _ => {
                return Err(RuntimeError::Restore(
                    "drift state presence disagrees with configuration".into(),
                ))
            }
        }
        self.sup.drift_fallback = ckpt.drift_fallback;
        self.sup.retrain_signaled = ckpt.retrain_signaled;
        if ckpt.marks.len() != ckpt.buf.len() || ckpt.relayed_upto != ckpt.base {
            return Err(RuntimeError::Restore(format!(
                "{} marks and {} buffered events from position {}, relayed up to {}",
                ckpt.marks.len(),
                ckpt.buf.len(),
                ckpt.base,
                ckpt.relayed_upto
            )));
        }
        self.buf = ckpt.buf.into();
        self.stage
            .import_state(StageState {
                guard: ckpt.guard,
                marks: ckpt.marks,
                base: ckpt.base,
                admitted: ckpt.admitted,
                next_window_start: ckpt.next_window_start,
                last_window_end: ckpt.last_window_end,
                windows_evaluated: ckpt.windows_evaluated,
            })
            .map_err(RuntimeError::Restore)?;
        // In-flight traces and admission instants are timing-only state and
        // not checkpointed: restored events relay as unsampled and their
        // latency clock restarts at the restore instant.
        if self.sup.tracer.is_enabled() {
            self.sup.traces = std::iter::repeat_with(|| None)
                .take(self.buf.len())
                .collect();
        }
        if self.sup.obs.ingest_to_emit_nanos.is_enabled() {
            self.admit_at = std::iter::repeat_with(Instant::now)
                .take(self.buf.len())
                .collect();
        }
        self.last_ts = ckpt.last_ts;
        self.next_id = ckpt.next_id;
        self.events_offered = us(ckpt.events_offered, "events_offered")?;
        self.events_dropped = us(ckpt.events_dropped, "events_dropped")?;
        self.events_clamped = us(ckpt.events_clamped, "events_clamped")?;
        self.events_relayed = us(ckpt.events_relayed, "events_relayed")?;
        self.sup.windows_degraded = us(ckpt.windows_degraded, "windows_degraded")?;
        self.sup.timeline = ckpt.timeline;
        let mut handed = ckpt.emitted_logged;
        ckpt.emitted_prefix.iter().for_each(|m| handed.push(m));
        if handed != ckpt.emitted {
            return Err(RuntimeError::Restore(format!(
                "emitted prefix holds {} matches hashing to {:#018x}, \
                 the checkpoint marks {} hashing to {:#018x}",
                handed.count, handed.hash, ckpt.emitted.count, ckpt.emitted.hash
            )));
        }
        self.matches = ckpt.emitted_prefix;
        self.emitted = ckpt.emitted;
        self.journaled_sheds = ckpt.journaled_sheds;
        Ok(())
    }

    /// Acknowledge a retrain: reset the drift monitor to `baseline_rate` and
    /// leave the drift fallback. (Swap in the retrained model by building a
    /// fresh runtime; the monitor reset covers in-place fine-tuning.)
    pub fn rebaseline(&mut self, baseline_rate: f64) {
        if let Some(m) = &mut self.sup.drift {
            m.rebaseline(baseline_rate);
        }
        if let Some(rr) = &mut self.sup.retrain {
            // Manual acknowledgement overrides the supervisor: a pending
            // schedule is cancelled and an Exhausted verdict is cleared —
            // the operator has intervened.
            rr.state = RetrainState::Idle;
        }
        if self.sup.drift_fallback {
            self.sup.drift_fallback = false;
            self.sup.retrain_signaled = false;
            let mode = self.mode();
            let window = self.stage.windows_evaluated() as u64;
            self.sup.record_mode(window, mode, ModeCause::Rebaselined);
        }
    }

    /// Ingest one event. Returns the stamped id, `Ok(None)` when the event
    /// was dropped by the out-of-order policy, or an error under
    /// [`OutOfOrderPolicy::Reject`] (the runtime stays usable afterwards).
    /// The event is offered at the id it is stamped with if admitted, which
    /// is its trace-sampling key.
    pub fn ingest(
        &mut self,
        type_id: TypeId,
        ts: u64,
        attrs: Vec<AttrValue>,
    ) -> Result<Option<EventId>, RuntimeError> {
        let id = self.admit(PrimitiveEvent::new(self.next_id, type_id, ts, attrs));
        self.settle(false);
        id
    }

    /// Ingest events as one batch, moving each into the runtime. Every
    /// event is offered and judged by the out-of-order policy on its own,
    /// then the windows the batch completes are marked together — in
    /// chunks of [`crate::filter::MARK_BATCH`] windows — and replayed
    /// through guard, drift monitor and retrain supervisor in window order
    /// (see [`crate::stage`]). Matches, counters, timeline and journal are
    /// those of offering the same events one [`StreamingDlacep::ingest`] at
    /// a time, for any filter whose output depends only on the window (the
    /// raw filter may see speculative calls whose results a mid-batch trip
    /// discards).
    ///
    /// The id an event is offered with is its trace-sampling key, and
    /// nothing else: admission re-stamps ids by arrival (dropped and
    /// rejected events consume none). A fleet offers each event at its
    /// fleet-global sequence number, so the 1-in-N trace sample is taken
    /// over the whole fleet and trace ids stay unique across keys.
    ///
    /// Under [`OutOfOrderPolicy::Reject`] the first rejection is returned
    /// once the whole batch has settled; the events after it were still
    /// offered.
    pub fn ingest_batch(
        &mut self,
        events: impl IntoIterator<Item = PrimitiveEvent>,
    ) -> Result<(), RuntimeError> {
        let mut rejected = None;
        for ev in events {
            if let Err(e) = self.admit(ev) {
                rejected.get_or_insert(e);
            }
        }
        self.settle(false);
        rejected.map_or(Ok(()), Err)
    }

    /// Apply the out-of-order policy to `ev`, then stamp and buffer it —
    /// without evaluating any window. Its offered id is its trace key.
    fn admit(&mut self, mut ev: PrimitiveEvent) -> Result<Option<EventId>, RuntimeError> {
        let obs = &self.sup.obs;
        self.events_offered += 1;
        obs.events_offered.inc();
        let ts = match self.last_ts {
            Some(last) if ev.ts.0 < last => match self.config.ooo_policy {
                OutOfOrderPolicy::Drop => {
                    self.events_dropped += 1;
                    obs.events_dropped.inc();
                    return Ok(None);
                }
                OutOfOrderPolicy::ClampToLastTs => {
                    self.events_clamped += 1;
                    obs.events_clamped.inc();
                    last
                }
                OutOfOrderPolicy::Reject => {
                    return Err(RuntimeError::Stream(StreamError::OutOfOrder {
                        ts: ev.ts.0,
                        last_ts: last,
                    }));
                }
            },
            _ => ev.ts.0,
        };
        self.last_ts = Some(ts);
        let trace_key = ev.id.0;
        let id = EventId(self.next_id);
        self.next_id += 1;
        ev.id = id;
        ev.ts = Timestamp(ts);
        let type_id = ev.type_id;
        self.buf.push_back(ev);
        self.stage.admit(1);
        obs.events_admitted.inc();
        // Per-position trace/latency state stays aligned with `buf`:
        // dropped and rejected events never reach here.
        if obs.ingest_to_emit_nanos.is_enabled() {
            self.admit_at.push_back(Instant::now());
        }
        if self.sup.tracer.is_enabled() {
            let trace = self.sup.tracer.begin(trace_key).map(|mut b| {
                let root = b.start("ingest", None);
                b.annotate(root, "event_id", id.0.into());
                b.annotate(root, "type_id", u64::from(type_id.0).into());
                b.annotate(root, "ts", ts.into());
                b.end(root);
                ActiveTrace { builder: b, root }
            });
            self.sup.traces.push_back(trace);
        }
        Ok(Some(id))
    }

    /// Let the stage mark the windows the admitted events complete, then
    /// feed every position it finalized to the extractor.
    fn settle(&mut self, end_of_stream: bool) {
        self.buf.make_contiguous();
        self.stage
            .settle(self.buf.as_slices().0, end_of_stream, &mut self.sup);
        self.relay_finalized();
    }

    /// Flush the trailing partial window, relay the remaining marked events
    /// and produce the final report.
    pub fn finish(mut self) -> RuntimeReport {
        self.settle(true);
        let final_mode = self.mode();
        let sup = self.sup;
        // The extractor's counters fold into `cep.*` once, here.
        sup.obs.cep.record(self.engine.stats());
        RuntimeReport {
            matches: self.matches,
            events_offered: self.events_offered,
            events_admitted: self.stage.admitted(),
            events_dropped: self.events_dropped,
            events_clamped: self.events_clamped,
            events_relayed: self.events_relayed,
            windows_evaluated: self.stage.windows_evaluated(),
            windows_degraded: sup.windows_degraded,
            guard: *self.stage.guard().stats(),
            timeline: sup.timeline,
            retrain_signaled: sup.retrain_signaled,
            final_mode,
            drift_state: sup.drift.as_ref().map(|m| m.state()),
            retrain: sup.retrain.as_ref().map(|r| RetrainReport {
                state: r.state,
                active_version: r.active_model.as_ref().map(|(v, _)| *v),
                models_accepted: r.next_version - 1,
            }),
            extractor_stats: *self.engine.stats(),
            obs: sup.obs.snapshot_if_enabled(),
        }
    }

    /// The CEP sink: take every position the stage has finalized out of the
    /// buffer and feed the kept ones to the extractor.
    fn relay_finalized(&mut self) {
        let obs = &self.sup.obs;
        for keep in self.stage.drain_finalized() {
            // Invariant, not input-reachable: `buf` holds exactly the
            // positions the stage has not drained, and `resume`
            // re-validates the alignment before accepting a checkpoint.
            let ev = self.buf.pop_front().expect("buffer aligned with positions");
            let mut trace = self.sup.traces.pop_front().flatten();
            let admitted_at = self.admit_at.pop_front();
            if keep {
                let t_cep0 = trace.as_ref().map(|at| at.builder.now_nanos());
                self.engine.process(&ev);
                self.events_relayed += 1;
                obs.events_relayed.inc();
                // Journal partial-match sheds at per-event granularity so
                // the entry sequence is independent of how ingestion was
                // batched (the `cep.partials_shed` counter itself is folded
                // in once, at `finish`).
                let shed = self.engine.stats().partials_shed;
                if shed > self.journaled_sheds {
                    let delta = shed - self.journaled_sheds;
                    self.journaled_sheds = shed;
                    obs.journal.record(
                        "shed",
                        &[("event", ev.id.0.into()), ("count", delta.into())],
                    );
                }
                let start = self.matches.len();
                self.engine.drain_into(&mut self.matches);
                let emitted = &self.matches[start..];
                if let Some(at) = trace.as_mut() {
                    let t1 = at.builder.now_nanos();
                    let c = at
                        .builder
                        .span_at("cep", Some(at.root), t_cep0.unwrap_or(t1), t1);
                    at.builder.annotate(c, "relayed", 1u64.into());
                    if !emitted.is_empty() {
                        let e = at.builder.instant("emit", Some(c));
                        at.builder
                            .annotate(e, "matches", (emitted.len() as u64).into());
                    }
                }
                emitted.iter().for_each(|m| self.emitted.push(m));
            } else if let Some(at) = trace.as_mut() {
                let f = at.builder.instant("filtered", Some(at.root));
                at.builder.annotate(f, "relayed", 0u64.into());
            }
            let trace_id = trace.as_ref().map(|at| at.builder.trace_id());
            if let Some(at) = trace {
                at.builder.finish();
            }
            if let Some(t0) = admitted_at {
                let nanos = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
                obs.ingest_to_emit_nanos.record_traced(nanos, trace_id);
            }
        }
    }
}

#[cfg(test)]
#[path = "match_bytes_tests.rs"]
mod match_bytes;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::{OracleFilter, PassthroughFilter};
    use dlacep_cep::{PatternExpr, TypeSet};
    use dlacep_data::label::ground_truth_matches;
    use dlacep_events::{EventStream, WindowSpec};
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

    /// Offer `events` one [`StreamingDlacep::ingest`] each.
    fn ingest_each<F: Filter>(rt: &mut StreamingDlacep<F>, events: &[PrimitiveEvent]) {
        for ev in events {
            rt.ingest(ev.type_id, ev.ts.0, ev.attrs.clone()).unwrap();
        }
    }

    #[test]
    fn trailing_partial_window_is_flushed() {
        // 10 events, MarkSize 8, StepSize 4: ingestion evaluates [0, 8),
        // finish must cover [4, 10) or the tail A/B pair is lost.
        let p = seq_ab(4);
        let mut s = EventStream::new();
        for i in 0..8 {
            s.push(C, i, vec![]);
        }
        s.push(A, 8, vec![]);
        s.push(B, 9, vec![]);
        let truth = ground_truth_matches(&p, s.events());
        assert_eq!(truth.len(), 1);
        let mut rt = StreamingDlacep::new(p.clone(), OracleFilter::new(p)).unwrap();
        ingest_each(&mut rt, s.events());
        let report = rt.finish();
        assert_eq!(keys(&report.matches), keys(&truth));
    }

    #[test]
    fn reject_policy_surfaces_error_and_stays_usable() {
        let p = seq_ab(4);
        let mut rt = StreamingDlacep::new(p, PassthroughFilter).unwrap();
        rt.ingest(A, 5, vec![]).unwrap();
        let err = rt.ingest(B, 3, vec![]).unwrap_err();
        assert_eq!(
            err,
            RuntimeError::Stream(StreamError::OutOfOrder { ts: 3, last_ts: 5 })
        );
        // In-order ingestion keeps working; the rejected event left no trace.
        assert_eq!(rt.ingest(B, 5, vec![]).unwrap(), Some(EventId(1)));
    }

    #[test]
    fn drop_policy_counts_and_stamps_densely() {
        let p = seq_ab(4);
        let cfg = RuntimeConfig {
            ooo_policy: OutOfOrderPolicy::Drop,
            ..Default::default()
        };
        let mut rt = StreamingDlacep::builder(p, PassthroughFilter)
            .config(cfg)
            .build()
            .unwrap();
        rt.ingest(A, 5, vec![]).unwrap();
        assert_eq!(rt.ingest(B, 3, vec![]).unwrap(), None);
        assert_eq!(rt.ingest(B, 6, vec![]).unwrap(), Some(EventId(1)));
        let report = rt.finish();
        assert_eq!(report.events_offered, 3);
        assert_eq!(report.events_admitted, 2);
        assert_eq!(report.events_dropped, 1);
    }

    #[test]
    fn clamp_policy_admits_with_clamped_ts() {
        let p = seq_ab(4);
        let cfg = RuntimeConfig {
            ooo_policy: OutOfOrderPolicy::ClampToLastTs,
            ..Default::default()
        };
        let mut rt = StreamingDlacep::builder(p, PassthroughFilter)
            .config(cfg)
            .build()
            .unwrap();
        rt.ingest(A, 5, vec![]).unwrap();
        rt.ingest(B, 3, vec![]).unwrap();
        let report = rt.finish();
        assert_eq!(report.events_clamped, 1);
        assert_eq!(report.events_admitted, 2);
        assert_eq!(
            keys(&report.matches).len(),
            1,
            "clamped event still matches"
        );
    }

    #[test]
    fn uncompilable_pattern_rejected() {
        let p = Pattern::new(PatternExpr::Seq(vec![]), vec![], WindowSpec::Count(4));
        assert!(matches!(
            StreamingDlacep::new(p, PassthroughFilter),
            Err(RuntimeError::Pipeline(DlacepError::Compile(_)))
        ));
    }

    #[test]
    fn partial_budget_is_plumbed_through() {
        // All-A stream with SEQ(A, B): every A opens a partial that never
        // completes — unbounded in batch, capped here.
        let p = seq_ab(64);
        let budget = 5;
        let cfg = RuntimeConfig {
            max_partials: Some(budget),
            ..Default::default()
        };
        let mut rt = StreamingDlacep::builder(p, PassthroughFilter)
            .config(cfg)
            .build()
            .unwrap();
        for i in 0..200u64 {
            rt.ingest(A, i, vec![]).unwrap();
            assert!(
                rt.stored_partials() <= budget,
                "budget exceeded at event {i}"
            );
        }
        let report = rt.finish();
        assert!(report.extractor_stats.partials_shed > 0);
        assert!(report.extractor_stats.peak_partial_matches <= budget as u64);
    }

    /// Everything but the obs snapshot and the retrain summary must match
    /// field-for-field.
    fn assert_reports_equal(a: &RuntimeReport, b: &RuntimeReport, ctx: &str) {
        assert_eq!(a.matches, b.matches, "{ctx}: matches");
        assert_eq!(a.events_offered, b.events_offered, "{ctx}: offered");
        assert_eq!(a.events_admitted, b.events_admitted, "{ctx}: admitted");
        assert_eq!(a.events_dropped, b.events_dropped, "{ctx}: dropped");
        assert_eq!(a.events_clamped, b.events_clamped, "{ctx}: clamped");
        assert_eq!(a.events_relayed, b.events_relayed, "{ctx}: relayed");
        assert_eq!(a.windows_evaluated, b.windows_evaluated, "{ctx}: windows");
        assert_eq!(a.windows_degraded, b.windows_degraded, "{ctx}: degraded");
        assert_eq!(a.guard, b.guard, "{ctx}: guard stats");
        assert_eq!(a.timeline, b.timeline, "{ctx}: timeline");
        assert_eq!(a.retrain_signaled, b.retrain_signaled, "{ctx}: retrain");
        assert_eq!(a.final_mode, b.final_mode, "{ctx}: final mode");
        assert_eq!(a.drift_state, b.drift_state, "{ctx}: drift");
        assert_eq!(
            a.extractor_stats, b.extractor_stats,
            "{ctx}: extractor stats"
        );
    }

    #[test]
    fn batched_ingest_equals_per_event_on_healthy_filter() {
        for n in [0usize, 16, 50, 137, 200] {
            let p = seq_ab(8);
            let s = noisy_stream(n);

            let mut serial = StreamingDlacep::new(p.clone(), OracleFilter::new(p.clone())).unwrap();
            ingest_each(&mut serial, s.events());
            let serial_report = serial.finish();

            let mut batched =
                StreamingDlacep::new(p.clone(), OracleFilter::new(p.clone())).unwrap();
            // Feed in uneven chunks so batches end mid-window.
            for chunk in s.events().chunks(37) {
                batched.ingest_batch(chunk.to_vec()).unwrap();
            }
            assert_reports_equal(&batched.finish(), &serial_report, &format!("n = {n}"));
        }

        // At W = 8 a window ends every 8 events from the 16th on, so a call
        // of `MARK_BATCH + 2` window steps completes more than one
        // `MARK_BATCH` chunk of windows and one of `MARK_BATCH` steps at
        // most one.
        let (p, s) = (seq_ab(8), noisy_stream(400));
        let mut serial = StreamingDlacep::new(p.clone(), OracleFilter::new(p.clone())).unwrap();
        ingest_each(&mut serial, s.events());
        let serial_report = serial.finish();
        let batch = crate::filter::MARK_BATCH;
        for call in [(batch + 2) * 8, batch * 8] {
            let mut rt = StreamingDlacep::new(p.clone(), OracleFilter::new(p.clone())).unwrap();
            for chunk in s.events().chunks(call) {
                rt.ingest_batch(chunk.to_vec()).unwrap();
            }
            assert_reports_equal(&rt.finish(), &serial_report, &format!("calls of {call}"));
        }
    }

    #[test]
    fn batched_ingest_replays_faults_through_guard() {
        // A filter that always panics: every speculative invocation fails,
        // so the replay must walk the guard through exactly the same
        // fault-count / trip / half-open-probe trajectory as serial
        // ingestion, ending degraded with identical timelines.
        struct AlwaysPanics;
        impl Filter for AlwaysPanics {
            fn mark(&self, _window: &[PrimitiveEvent]) -> Vec<bool> {
                panic!("broken filter");
            }
            fn name(&self) -> &'static str {
                "always-panics"
            }
        }

        let p = seq_ab(8);
        let s = noisy_stream(200);

        let mut serial = StreamingDlacep::new(p.clone(), AlwaysPanics).unwrap();
        ingest_each(&mut serial, s.events());
        let serial_report = serial.finish();

        let mut batched = StreamingDlacep::new(p, AlwaysPanics).unwrap();
        for chunk in s.events().chunks(53) {
            batched.ingest_batch(chunk.to_vec()).unwrap();
        }
        let batched_report = batched.finish();

        assert_reports_equal(&batched_report, &serial_report, "faulty filter");
        assert!(
            serial_report.guard.faults_total > 0,
            "the broken filter must actually fault"
        );
        assert_eq!(serial_report.final_mode, RuntimeMode::DegradedExact);
    }

    #[test]
    fn pooled_speculation_runs_one_pass_per_window_with_score_validation() {
        use crate::guard::OnePass;
        let cfg = RuntimeConfig {
            guard: GuardConfig {
                validate_scores: true,
                ..Default::default()
            },
            ..Default::default()
        };
        let mut rt = StreamingDlacep::builder(seq_ab(8), OnePass::default())
            .config(cfg)
            .build()
            .unwrap();
        for chunk in noisy_stream(400).events().chunks(97) {
            rt.ingest_batch(chunk.to_vec()).unwrap();
        }
        let passes_before_flush = rt.filter().passes();
        assert!(
            passes_before_flush > crate::filter::MARK_BATCH,
            "several chunks were marked"
        );
        assert_eq!(passes_before_flush, rt.stage.windows_evaluated());
        let report = rt.finish();
        assert_eq!(report.windows_degraded, 0);
    }

    #[test]
    fn a_panic_in_a_pooled_chunk_faults_only_its_own_window() {
        // The window starting at event 64 panics. Batched, it shares a
        // `mark_batch` call with its chunk neighbours, which must still be
        // marked by the filter: the guard sees one fault, as per event.
        struct PanicsAt64;
        impl Filter for PanicsAt64 {
            fn mark(&self, window: &[PrimitiveEvent]) -> Vec<bool> {
                assert_ne!(window[0].id.0, 64, "poisoned window");
                window.iter().map(|ev| ev.type_id != C).collect()
            }
            fn name(&self) -> &'static str {
                "panics-at-64"
            }
        }

        let p = seq_ab(8);
        let s = noisy_stream(300);
        let mut serial = StreamingDlacep::new(p.clone(), PanicsAt64).unwrap();
        ingest_each(&mut serial, s.events());
        let serial_report = serial.finish();
        assert_eq!(serial_report.guard.faults_total, 1);

        let mut batched = StreamingDlacep::new(p, PanicsAt64).unwrap();
        batched.ingest_batch(s.events().to_vec()).unwrap();
        assert_reports_equal(&batched.finish(), &serial_report, "one poisoned window");
    }

    #[test]
    fn batched_ingest_offers_every_event_past_a_rejection() {
        // Timestamp regressions mid-batch: each is rejected on its own, the
        // events after it are still offered, and the first error surfaces
        // once the batch has settled — the state is that of per-event
        // ingestion with the caller carrying on after each error.
        let p = seq_ab(4);
        let mut events: Vec<PrimitiveEvent> = noisy_stream(40).events().to_vec();
        events[5] = PrimitiveEvent::new(5, A, 3, vec![0.0]);
        events[25] = PrimitiveEvent::new(25, B, 7, vec![0.0]);

        let mut serial = StreamingDlacep::new(p.clone(), PassthroughFilter).unwrap();
        let mut errors = Vec::new();
        for ev in &events {
            errors.extend(serial.ingest(ev.type_id, ev.ts.0, ev.attrs.clone()).err());
        }
        let serial_report = serial.finish();
        assert_eq!(errors.len(), 2);
        assert_eq!(serial_report.events_admitted, 38);

        let mut batched = StreamingDlacep::new(p, PassthroughFilter).unwrap();
        assert_eq!(batched.ingest_batch(events).unwrap_err(), errors[0]);
        assert_reports_equal(&batched.finish(), &serial_report, "mid-batch rejections");
    }

    #[test]
    fn timeline_starts_with_initial_mode() {
        let p = seq_ab(4);
        let rt = StreamingDlacep::new(p, PassthroughFilter).unwrap();
        let report = rt.finish();
        assert_eq!(
            report.timeline,
            vec![ModeTransition {
                window: 0,
                mode: RuntimeMode::Filtering,
                cause: ModeCause::Start
            }]
        );
        assert_eq!(report.degraded_fraction(), 0.0);
    }

    /// Silent until a retrain hands it the oracle: drift trips on the first
    /// window, and the first attempt heals it.
    struct Healing(Option<OracleFilter>);

    impl Filter for Healing {
        fn mark(&self, window: &[PrimitiveEvent]) -> Vec<bool> {
            match &self.0 {
                Some(oracle) => oracle.mark(window),
                None => vec![false; window.len()],
            }
        }

        fn name(&self) -> &'static str {
            "healing"
        }
    }

    struct Healer;

    impl ModelTrainer<Healing> for Healer {
        fn retrain(
            &self,
            p: &Pattern,
            _: &[Vec<PrimitiveEvent>],
            _: u64,
        ) -> Result<Healing, String> {
            Ok(Healing(Some(OracleFilter::new(p.clone()))))
        }

        fn encode(&self, filter: &Healing) -> Vec<u8> {
            vec![u8::from(filter.0.is_some())]
        }

        fn decode(&self, bytes: &[u8]) -> Result<Healing, String> {
            Ok(Healing(
                (bytes == [1]).then(|| OracleFilter::new(seq_ab(6))),
            ))
        }
    }

    fn healing(retrain: RetrainConfig) -> Result<StreamingDlacep<Healing>, RuntimeError> {
        let config = RuntimeConfig {
            drift: Some(crate::DriftConfig {
                baseline_rate: 0.5,
                tolerance: 0.8,
                alpha: 1.0,
                patience: 1,
            }),
            ..Default::default()
        };
        let b = StreamingDlacep::builder(seq_ab(6), Healing(None)).config(config);
        b.retrain(retrain, Box::new(Healer)).build()
    }

    /// A and B in every window, so the healed filter marks at a steady rate.
    fn feed_ab(rt: &mut StreamingDlacep<Healing>, range: std::ops::Range<u64>) {
        for i in range {
            let t = [A, C, B, C][i as usize % 4];
            rt.ingest(t, i, vec![i as f64]).unwrap();
        }
    }

    fn quick_retrain() -> RetrainConfig {
        RetrainConfig {
            backoff_base_windows: 1,
            replay_windows: 8,
            ..Default::default()
        }
    }

    #[test]
    fn a_backoff_past_the_window_count_waits_forever() {
        let mut rt = healing(RetrainConfig {
            backoff_base_windows: u64::MAX,
            ..quick_retrain()
        })
        .unwrap();
        feed_ab(&mut rt, 0..80);
        assert!(rt.retrain_signaled());
        let waiting = RetrainState::Waiting {
            resume_at: u64::MAX,
            attempt: 0,
        };
        assert_eq!(rt.retrain_state(), Some(waiting));
        assert_eq!(rt.active_model_version(), None);
    }

    #[test]
    fn a_huge_replay_cap_builds_and_heals() {
        let mut rt = healing(RetrainConfig {
            replay_windows: usize::MAX,
            ..quick_retrain()
        })
        .unwrap();
        feed_ab(&mut rt, 0..80);
        assert_eq!(rt.active_model_version(), Some(1));
    }

    /// Restore a post-swap checkpoint after `edit` changed its retrain
    /// state on the way through the codec. The unedited bytes restore.
    fn restore_edited(edit: impl FnOnce(&mut RetrainCheckpoint)) -> RuntimeError {
        let mut rt = healing(quick_retrain()).unwrap();
        feed_ab(&mut rt, 0..80);
        assert_eq!(rt.active_model_version(), Some(1));
        let restore = |bytes: &[u8]| {
            let mut ckpt = crate::durable::decode_checkpoint(bytes).unwrap();
            ckpt.emitted_prefix = rt.matches_so_far().to_vec();
            let b = StreamingDlacep::builder(seq_ab(6), Healing(None)).config(rt.config);
            b.retrain(quick_retrain(), Box::new(Healer)).restore(ckpt)
        };
        let bytes = crate::durable::encode_checkpoint(&rt.checkpoint());
        assert!(restore(&bytes).is_ok(), "the unedited checkpoint restores");
        let mut ckpt = crate::durable::decode_checkpoint(&bytes).unwrap();
        edit(ckpt.retrain.as_mut().unwrap());
        let edited = crate::durable::encode_checkpoint(&ckpt);
        restore(&edited)
            .err()
            .expect("the edited checkpoint is refused")
    }

    #[test]
    fn restore_refuses_a_next_version_of_zero() {
        let e = restore_edited(|r| r.next_version = 0);
        assert!(matches!(e, RuntimeError::Restore(_)), "{e}");
    }

    #[test]
    fn restore_refuses_a_replay_ring_past_its_cap() {
        let e = restore_edited(|r| {
            let oldest = r.replay[0].clone();
            r.replay.resize(9, oldest);
        });
        assert!(matches!(e, RuntimeError::Restore(_)), "{e}");
    }

    #[test]
    fn restore_refuses_an_active_model_not_below_next_version() {
        let e = restore_edited(|r| r.active_model.as_mut().unwrap().0 = r.next_version);
        assert!(matches!(e, RuntimeError::Restore(_)), "{e}");
    }
}
