//! Fault-tolerant filter guard: a circuit breaker around any [`Filter`].
//!
//! The paper assumes the neural filter is a well-behaved function; in a
//! deployed system it is a model artifact that can be corrupted, poisoned by
//! NaNs from a bad training run, or simply buggy. A [`FilterGuard`] wraps a
//! filter so that none of those faults can take the pipeline down:
//!
//! * every invocation runs under [`std::panic::catch_unwind`];
//! * mark vectors are validated against the window length;
//! * optionally, the filter's raw scores are checked for non-finite values
//!   (a NaN score means the marks cannot be trusted even when the mark
//!   vector itself is well-formed).
//!
//! Every fault **fails open**: the faulty window is relayed in full
//! (passthrough), trading throughput for recall — the same asymmetry that
//! motivates recall-biased thresholds (§4.3). After
//! [`GuardConfig::fault_threshold`] *consecutive* faults the breaker trips
//! to [`BreakerState::Open`]: the filter is not invoked at all and the
//! pipeline degrades to exact-CEP behaviour. After
//! [`GuardConfig::cooldown_windows`] bypassed windows the breaker goes
//! [`BreakerState::HalfOpen`] and probes the filter on one window: success
//! re-closes the breaker, another fault re-opens it.

use crate::filter::{Filter, WindowMarks};
use dlacep_events::PrimitiveEvent;
use serde::{Deserialize, Serialize};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// What went wrong in one guarded filter invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The filter panicked; the unwind was caught.
    Panicked,
    /// The mark vector length does not match the window length.
    WrongLength {
        /// Marks returned.
        got: usize,
        /// Window length expected.
        want: usize,
    },
    /// A raw score was NaN or infinite.
    NonFiniteScore,
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultKind::Panicked => write!(f, "filter panicked"),
            FaultKind::WrongLength { got, want } => {
                write!(f, "mark vector length {got}, window length {want}")
            }
            FaultKind::NonFiniteScore => write!(f, "non-finite filter score"),
        }
    }
}

/// Circuit-breaker state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum BreakerState {
    /// Healthy: the filter is invoked on every window.
    #[default]
    Closed,
    /// Tripped: the filter is bypassed, windows pass through unfiltered.
    Open,
    /// Cooling down: the next window probes the filter once.
    HalfOpen,
}

impl BreakerState {
    /// Short lowercase label for trace-span and journal annotation,
    /// allocation-free unlike the `Debug` rendering.
    pub fn name(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        }
    }
}

/// Guard configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct GuardConfig {
    /// Consecutive faults that trip the breaker (≥ 1).
    pub fault_threshold: usize,
    /// Windows served in passthrough while [`BreakerState::Open`] before a
    /// half-open probe.
    pub cooldown_windows: usize,
    /// Validate the filter's raw scores for non-finite values. Marks and
    /// scores are requested together ([`Filter::mark_batch`]), so a filter
    /// that derives both from one forward pass pays nothing extra; one
    /// that only implements [`Filter::scores`] pays a second pass.
    pub validate_scores: bool,
}

impl Default for GuardConfig {
    fn default() -> Self {
        Self {
            fault_threshold: 3,
            cooldown_windows: 16,
            validate_scores: false,
        }
    }
}

/// Fault and breaker counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct GuardStats {
    /// Total faulty invocations (all kinds).
    pub faults_total: u64,
    /// Caught panics.
    pub panics: u64,
    /// Wrong-length mark vectors.
    pub wrong_length: u64,
    /// Non-finite score vectors.
    pub non_finite: u64,
    /// Closed → Open and HalfOpen → Open transitions.
    pub breaker_trips: u64,
    /// HalfOpen → Closed transitions (successful probes).
    pub recoveries: u64,
    /// Windows served while Open without invoking the filter.
    pub windows_bypassed: u64,
}

/// Raw result of one filter invocation computed speculatively (off the
/// guard, e.g. on a worker thread): `None` when the filter panicked,
/// otherwise the marks plus the scores when score validation is enabled.
/// Produced by callers under their own `catch_unwind`, consumed by
/// [`FilterGuard::mark_speculative`].
pub type SpeculativeInvocation = Option<WindowMarks>;

/// Result of one guarded marking call.
#[derive(Debug, Clone)]
pub struct GuardOutcome {
    /// Marks to apply — the filter's on success, all-true on any fault or
    /// bypass (fail open).
    pub marks: Vec<bool>,
    /// The fault, if the invocation was faulty.
    pub fault: Option<FaultKind>,
    /// Whether the underlying filter was actually invoked (false while the
    /// breaker is open).
    pub filter_invoked: bool,
    /// Breaker transitions triggered by this call, in order.
    pub transitions: Vec<(BreakerState, BreakerState)>,
}

impl GuardConfig {
    /// Validate the configuration (`fault_threshold >= 1`). The runtime
    /// surfaces this as a typed error before any guard is built.
    pub fn validate(&self) -> Result<(), String> {
        if self.fault_threshold < 1 {
            return Err("guard fault_threshold must be at least 1".into());
        }
        Ok(())
    }
}

/// Full mutable state of a [`FilterGuard`], captured for checkpointing.
/// The wrapped filter itself is *not* part of the snapshot — recovery
/// reconstructs it (e.g. by reloading the persisted model) and re-injects
/// only the breaker trajectory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct GuardState {
    /// Breaker position.
    pub state: BreakerState,
    /// Consecutive faults seen while counting toward a trip.
    pub consecutive_faults: u64,
    /// Windows bypassed in the current Open cooldown.
    pub open_windows: u64,
    /// Fault and breaker counters.
    pub stats: GuardStats,
}

/// A circuit breaker wrapped around a [`Filter`].
pub struct FilterGuard<F> {
    filter: F,
    config: GuardConfig,
    state: BreakerState,
    consecutive_faults: usize,
    open_windows: usize,
    stats: GuardStats,
}

impl<F: Filter> FilterGuard<F> {
    /// Wrap `filter` under `config`.
    pub fn new(filter: F, config: GuardConfig) -> Self {
        assert!(
            config.fault_threshold >= 1,
            "fault_threshold must be at least 1"
        );
        Self {
            filter,
            config,
            state: BreakerState::Closed,
            consecutive_faults: 0,
            open_windows: 0,
            stats: GuardStats::default(),
        }
    }

    /// The wrapped filter.
    pub fn filter(&self) -> &F {
        &self.filter
    }

    /// Current breaker state.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// The guard's configuration (speculative executors read
    /// `validate_scores` to know whether to compute scores).
    pub fn config(&self) -> &GuardConfig {
        &self.config
    }

    /// Fault and breaker counters.
    pub fn stats(&self) -> &GuardStats {
        &self.stats
    }

    /// Capture the breaker trajectory for checkpointing.
    pub fn export_state(&self) -> GuardState {
        GuardState {
            state: self.state,
            consecutive_faults: self.consecutive_faults as u64,
            open_windows: self.open_windows as u64,
            stats: self.stats,
        }
    }

    /// Atomically replace the wrapped filter, returning the old one. Used
    /// by the retrain supervisor for a validated hot swap: the new filter
    /// starts with a clean consecutive-fault count (its faults are not the
    /// old model's faults), while the breaker state and the cumulative
    /// stats are deliberately left untouched — a swap performed while the
    /// breaker is Open still has to pass the half-open probe like any other
    /// recovery.
    pub fn swap_filter(&mut self, new: F) -> F {
        self.consecutive_faults = 0;
        std::mem::replace(&mut self.filter, new)
    }

    /// Re-inject a previously exported breaker trajectory.
    pub fn import_state(&mut self, state: GuardState) {
        self.state = state.state;
        self.consecutive_faults = state.consecutive_faults as usize;
        self.open_windows = state.open_windows as usize;
        self.stats = state.stats;
    }

    /// Guarded marking of one assembler window. Never panics; always returns
    /// a mark vector of `window.len()`.
    pub fn mark(&mut self, window: &[PrimitiveEvent]) -> GuardOutcome {
        let mut transitions = Vec::new();
        if self.state == BreakerState::Open {
            if self.open_windows < self.config.cooldown_windows {
                self.open_windows += 1;
                self.stats.windows_bypassed += 1;
                return GuardOutcome {
                    marks: vec![true; window.len()],
                    fault: None,
                    filter_invoked: false,
                    transitions,
                };
            }
            self.transition(BreakerState::HalfOpen, &mut transitions);
        }

        let result = self.invoke(window);
        self.settle(window.len(), result, transitions)
    }

    /// Like [`FilterGuard::mark`], but consuming a filter invocation that
    /// was already computed speculatively (on a worker thread, under the
    /// caller's own `catch_unwind`). Validation, fault accounting and
    /// breaker transitions are identical to a live `mark` call.
    ///
    /// Speculation is only meaningful while the breaker is
    /// [`BreakerState::Closed`] — in any other state the guard itself
    /// decides whether the filter runs at all, so this falls back to a
    /// live [`FilterGuard::mark`] call and the precomputed result is
    /// discarded.
    pub fn mark_speculative(
        &mut self,
        window: &[PrimitiveEvent],
        raw: SpeculativeInvocation,
    ) -> GuardOutcome {
        if self.state != BreakerState::Closed {
            return self.mark(window);
        }
        let result = self.validate(window.len(), raw);
        self.settle(window.len(), result, Vec::new())
    }

    /// Shared post-invocation bookkeeping for live and speculative marks:
    /// fault counters, consecutive-fault tracking, breaker transitions,
    /// fail-open mark substitution.
    fn settle(
        &mut self,
        window_len: usize,
        result: Result<Vec<bool>, FaultKind>,
        mut transitions: Vec<(BreakerState, BreakerState)>,
    ) -> GuardOutcome {
        let fault = match result {
            Ok(marks) => {
                // Healthy invocation.
                self.consecutive_faults = 0;
                if self.state == BreakerState::HalfOpen {
                    self.stats.recoveries += 1;
                    self.transition(BreakerState::Closed, &mut transitions);
                }
                return GuardOutcome {
                    marks,
                    fault: None,
                    filter_invoked: true,
                    transitions,
                };
            }
            Err(kind) => kind,
        };

        self.stats.faults_total += 1;
        match fault {
            FaultKind::Panicked => self.stats.panics += 1,
            FaultKind::WrongLength { .. } => self.stats.wrong_length += 1,
            FaultKind::NonFiniteScore => self.stats.non_finite += 1,
        }
        self.consecutive_faults += 1;
        if self.state == BreakerState::HalfOpen {
            // Failed probe: straight back to Open for another cooldown.
            self.stats.breaker_trips += 1;
            self.open_windows = 0;
            self.transition(BreakerState::Open, &mut transitions);
        } else if self.consecutive_faults >= self.config.fault_threshold {
            self.stats.breaker_trips += 1;
            self.open_windows = 0;
            self.transition(BreakerState::Open, &mut transitions);
        }
        GuardOutcome {
            marks: vec![true; window_len],
            fault: Some(fault),
            filter_invoked: true,
            transitions,
        }
    }

    fn transition(&mut self, to: BreakerState, log: &mut Vec<(BreakerState, BreakerState)>) {
        log.push((self.state, to));
        self.state = to;
    }

    /// One validated filter invocation under `catch_unwind`.
    fn invoke(&self, window: &[PrimitiveEvent]) -> Result<Vec<bool>, FaultKind> {
        let raw = invoke_unwinding(&self.filter, window, self.config.validate_scores);
        self.validate(window.len(), raw)
    }

    /// Validate a raw invocation result exactly as a live call would:
    /// length first, then score finiteness.
    fn validate(&self, want: usize, raw: SpeculativeInvocation) -> Result<Vec<bool>, FaultKind> {
        let (marks, scores) = raw.ok_or(FaultKind::Panicked)?;
        if marks.len() != want {
            return Err(FaultKind::WrongLength {
                got: marks.len(),
                want,
            });
        }
        if let Some(scores) = scores {
            if scores.iter().any(|s| !s.is_finite()) {
                return Err(FaultKind::NonFiniteScore);
            }
        }
        Ok(marks)
    }
}

/// One raw filter invocation on one window under `catch_unwind`: marks,
/// plus scores when `with_scores`, from a single [`Filter::mark_batch`]
/// call. A filter that returns no result for the window is reported as
/// having returned no marks, which validation counts as a wrong length.
pub(crate) fn invoke_unwinding<F: Filter>(
    filter: &F,
    window: &[PrimitiveEvent],
    with_scores: bool,
) -> SpeculativeInvocation {
    catch_unwind(AssertUnwindSafe(|| {
        filter
            .mark_batch(&[window], with_scores)
            .pop()
            .unwrap_or_default()
    }))
    .ok()
}

/// A test filter that counts forward passes: one per `mark`, one per
/// `scores`, and one per window of a `mark_batch`, which derives marks and
/// scores together the way the int8 filter does.
#[cfg(test)]
#[derive(Default)]
pub(crate) struct OnePass(std::sync::atomic::AtomicUsize);

#[cfg(test)]
impl OnePass {
    pub(crate) fn passes(&self) -> usize {
        self.0.load(std::sync::atomic::Ordering::Relaxed)
    }

    fn pass(&self, windows: usize) {
        self.0
            .fetch_add(windows, std::sync::atomic::Ordering::Relaxed);
    }
}

#[cfg(test)]
impl Filter for OnePass {
    fn mark(&self, window: &[PrimitiveEvent]) -> Vec<bool> {
        self.pass(1);
        vec![true; window.len()]
    }

    fn scores(&self, window: &[PrimitiveEvent]) -> Option<Vec<f32>> {
        self.pass(1);
        Some(vec![0.5; window.len()])
    }

    fn mark_batch(&self, windows: &[&[PrimitiveEvent]], with_scores: bool) -> Vec<WindowMarks> {
        self.pass(windows.len());
        windows
            .iter()
            .map(|w| (vec![true; w.len()], with_scores.then(|| vec![0.5; w.len()])))
            .collect()
    }

    fn name(&self) -> &'static str {
        "one-pass"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::PassthroughFilter;
    use dlacep_events::{EventStream, TypeId};

    fn window(n: usize) -> EventStream {
        let mut s = EventStream::new();
        for i in 0..n {
            s.push(TypeId(0), i as u64, vec![]);
        }
        s
    }

    /// Fails in a configurable way for the first `faulty_calls` invocations.
    /// Atomic state because [`Filter`] is `Sync`.
    struct Flaky {
        faulty_calls: std::sync::atomic::AtomicUsize,
        kind: &'static str,
    }

    impl Filter for Flaky {
        fn mark(&self, window: &[PrimitiveEvent]) -> Vec<bool> {
            use std::sync::atomic::Ordering;
            let left = self.faulty_calls.load(Ordering::Relaxed);
            if left == 0 {
                return vec![false; window.len()];
            }
            self.faulty_calls.store(left - 1, Ordering::Relaxed);
            match self.kind {
                "panic" => panic!("injected"),
                "short" => vec![true; window.len() / 2],
                _ => vec![false; window.len()],
            }
        }

        fn scores(&self, window: &[PrimitiveEvent]) -> Option<Vec<f32>> {
            if self.kind == "nan"
                && self.faulty_calls.load(std::sync::atomic::Ordering::Relaxed) > 0
            {
                // Note: mark() already decremented; emulate via fresh count.
                return Some(vec![f32::NAN; window.len()]);
            }
            None
        }

        fn name(&self) -> &'static str {
            "flaky"
        }
    }

    fn cfg(threshold: usize, cooldown: usize) -> GuardConfig {
        GuardConfig {
            fault_threshold: threshold,
            cooldown_windows: cooldown,
            validate_scores: true,
        }
    }

    #[test]
    fn healthy_filter_passes_through_marks() {
        let mut g = FilterGuard::new(PassthroughFilter, GuardConfig::default());
        let w = window(6);
        let out = g.mark(w.events());
        assert_eq!(out.marks, vec![true; 6]);
        assert!(out.fault.is_none());
        assert!(out.filter_invoked);
        assert_eq!(g.state(), BreakerState::Closed);
        assert_eq!(g.stats().faults_total, 0);
    }

    #[test]
    fn panic_is_caught_and_fails_open() {
        let flaky = Flaky {
            faulty_calls: 1.into(),
            kind: "panic",
        };
        let mut g = FilterGuard::new(flaky, cfg(3, 4));
        let w = window(5);
        let out = g.mark(w.events());
        assert_eq!(out.fault, Some(FaultKind::Panicked));
        assert_eq!(out.marks, vec![true; 5], "fault fails open");
        assert_eq!(g.stats().panics, 1);
        assert_eq!(g.state(), BreakerState::Closed, "below threshold");
    }

    #[test]
    fn wrong_length_detected() {
        let flaky = Flaky {
            faulty_calls: 1.into(),
            kind: "short",
        };
        let mut g = FilterGuard::new(flaky, cfg(3, 4));
        let w = window(8);
        let out = g.mark(w.events());
        assert_eq!(out.fault, Some(FaultKind::WrongLength { got: 4, want: 8 }));
        assert_eq!(g.stats().wrong_length, 1);
    }

    #[test]
    fn breaker_trips_after_consecutive_faults_then_recovers() {
        let flaky = Flaky {
            faulty_calls: 2.into(),
            kind: "panic",
        };
        let mut g = FilterGuard::new(flaky, cfg(2, 3));
        let w = window(4);

        // Two faults trip the breaker.
        g.mark(w.events());
        let out = g.mark(w.events());
        assert!(out
            .transitions
            .contains(&(BreakerState::Closed, BreakerState::Open)));
        assert_eq!(g.state(), BreakerState::Open);
        assert_eq!(g.stats().breaker_trips, 1);

        // Cooldown: three bypassed windows, filter untouched.
        for _ in 0..3 {
            let out = g.mark(w.events());
            assert!(!out.filter_invoked);
            assert_eq!(out.marks, vec![true; 4]);
        }
        assert_eq!(g.stats().windows_bypassed, 3);

        // Probe window: filter is healthy again -> Closed.
        let out = g.mark(w.events());
        assert!(out.filter_invoked);
        assert!(out.fault.is_none());
        assert!(out
            .transitions
            .contains(&(BreakerState::HalfOpen, BreakerState::Closed)));
        assert_eq!(g.state(), BreakerState::Closed);
        assert_eq!(g.stats().recoveries, 1);
    }

    #[test]
    fn failed_probe_reopens() {
        let flaky = Flaky {
            faulty_calls: 5.into(),
            kind: "panic",
        };
        let mut g = FilterGuard::new(flaky, cfg(1, 2));
        let w = window(4);
        g.mark(w.events()); // trip on first fault
        assert_eq!(g.state(), BreakerState::Open);
        g.mark(w.events());
        g.mark(w.events()); // cooldown served
        let out = g.mark(w.events()); // probe -> still faulty
        assert!(out
            .transitions
            .contains(&(BreakerState::Open, BreakerState::HalfOpen)));
        assert!(out
            .transitions
            .contains(&(BreakerState::HalfOpen, BreakerState::Open)));
        assert_eq!(g.state(), BreakerState::Open);
        assert_eq!(g.stats().breaker_trips, 2);
    }

    #[test]
    fn consecutive_counter_resets_on_success() {
        // Alternate fault/success below the threshold: never trips.
        struct Alternating(std::sync::atomic::AtomicBool);
        impl Filter for Alternating {
            fn mark(&self, window: &[PrimitiveEvent]) -> Vec<bool> {
                use std::sync::atomic::Ordering;
                let bad = self.0.load(Ordering::Relaxed);
                self.0.store(!bad, Ordering::Relaxed);
                if bad {
                    panic!("every other call");
                }
                vec![true; window.len()]
            }
            fn name(&self) -> &'static str {
                "alternating"
            }
        }
        let mut g = FilterGuard::new(Alternating(true.into()), cfg(2, 2));
        let w = window(3);
        for _ in 0..10 {
            g.mark(w.events());
        }
        assert_eq!(g.state(), BreakerState::Closed);
        assert_eq!(g.stats().breaker_trips, 0);
        assert_eq!(g.stats().panics, 5);
    }

    #[test]
    fn non_finite_scores_detected_when_enabled() {
        struct NanScores;
        impl Filter for NanScores {
            fn mark(&self, window: &[PrimitiveEvent]) -> Vec<bool> {
                vec![true; window.len()]
            }
            fn scores(&self, window: &[PrimitiveEvent]) -> Option<Vec<f32>> {
                Some(vec![f32::NAN; window.len()])
            }
            fn name(&self) -> &'static str {
                "nan-scores"
            }
        }
        let w = window(4);
        let mut strict = FilterGuard::new(NanScores, cfg(3, 2));
        let out = strict.mark(w.events());
        assert_eq!(out.fault, Some(FaultKind::NonFiniteScore));

        let mut lax = FilterGuard::new(
            NanScores,
            GuardConfig {
                validate_scores: false,
                ..GuardConfig::default()
            },
        );
        assert!(lax.mark(w.events()).fault.is_none());
    }

    #[test]
    fn score_validation_costs_no_second_forward_pass() {
        let w = window(4);
        let mut g = FilterGuard::new(OnePass::default(), cfg(3, 2));
        for _ in 0..5 {
            let out = g.mark(w.events());
            assert!(out.fault.is_none());
            assert_eq!(out.marks, vec![true; 4]);
        }
        assert_eq!(g.filter().passes(), 5, "one forward pass per window");
    }

    #[test]
    fn swap_filter_resets_consecutive_faults_but_not_breaker() {
        let flaky = Flaky {
            faulty_calls: 1.into(),
            kind: "panic",
        };
        let mut g = FilterGuard::new(flaky, cfg(2, 3));
        let w = window(4);
        g.mark(w.events()); // one fault, below the threshold of 2
        assert_eq!(g.stats().panics, 1);
        let _old = g.swap_filter(Flaky {
            faulty_calls: 1.into(),
            kind: "panic",
        });
        // The new filter's first fault starts a fresh consecutive count:
        // it must NOT trip a threshold-2 breaker.
        g.mark(w.events());
        assert_eq!(g.state(), BreakerState::Closed);
        assert_eq!(g.stats().panics, 2, "cumulative stats survive the swap");

        // Swapping while Open does not silently close the breaker.
        g.mark(w.events()); // healthy (faulty_calls exhausted)... trip it:
        let _old = g.swap_filter(Flaky {
            faulty_calls: 2.into(),
            kind: "panic",
        });
        g.mark(w.events());
        g.mark(w.events());
        assert_eq!(g.state(), BreakerState::Open);
        let _old = g.swap_filter(Flaky {
            faulty_calls: 0.into(),
            kind: "panic",
        });
        assert_eq!(g.state(), BreakerState::Open, "swap keeps breaker state");
    }

    #[test]
    fn speculative_mark_matches_live_semantics() {
        let w = window(6);
        // Healthy precomputed result: marks accepted verbatim.
        let mut g = FilterGuard::new(PassthroughFilter, cfg(2, 3));
        let out = g.mark_speculative(w.events(), Some((vec![false; 6], None)));
        assert_eq!(out.marks, vec![false; 6]);
        assert!(out.fault.is_none());
        assert!(out.filter_invoked);

        // Faults count and trip exactly like live calls.
        let mut g = FilterGuard::new(PassthroughFilter, cfg(2, 3));
        let out = g.mark_speculative(w.events(), None);
        assert_eq!(out.fault, Some(FaultKind::Panicked));
        assert_eq!(out.marks, vec![true; 6], "fault fails open");
        let out = g.mark_speculative(w.events(), Some((vec![true; 2], None)));
        assert_eq!(out.fault, Some(FaultKind::WrongLength { got: 2, want: 6 }));
        assert_eq!(g.state(), BreakerState::Open, "two faults trip cfg(2, _)");
        assert_eq!(g.stats().breaker_trips, 1);
        assert_eq!(g.stats().panics, 1);
        assert_eq!(g.stats().wrong_length, 1);
    }

    #[test]
    fn speculative_mark_validates_scores() {
        let w = window(4);
        let mut g = FilterGuard::new(PassthroughFilter, cfg(3, 2));
        let raw = Some((vec![true; 4], Some(vec![0.5, f32::NAN, 0.5, 0.5])));
        let out = g.mark_speculative(w.events(), raw);
        assert_eq!(out.fault, Some(FaultKind::NonFiniteScore));
    }

    #[test]
    fn speculative_mark_falls_back_to_live_when_not_closed() {
        let flaky = Flaky {
            faulty_calls: 1.into(),
            kind: "panic",
        };
        let mut g = FilterGuard::new(flaky, cfg(1, 2));
        let w = window(4);
        g.mark(w.events()); // trip
        assert_eq!(g.state(), BreakerState::Open);
        // The stale precomputed result must be discarded: the guard is Open,
        // so this is a bypass window, not an accepted speculative mark.
        let out = g.mark_speculative(w.events(), Some((vec![false; 4], None)));
        assert!(!out.filter_invoked);
        assert_eq!(out.marks, vec![true; 4]);
        assert_eq!(g.stats().windows_bypassed, 1);
    }
}
