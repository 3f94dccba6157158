//! The filter stage: the assemble → mark → dedupe half of the DLACEP loop
//! (paper Fig. 4, §4.2), once, for the batch pipeline and the streaming
//! runtime alike.
//!
//! A [`MarkStage`] owns the [`FilterGuard`], the position-aligned keep-map
//! and the window cursors. Its driver tells it how many stream positions
//! were admitted and lends it the events at the un-finalized positions; the
//! stage schedules the assembler windows those positions complete, marks
//! them, ORs the marks into the keep-map (which is the §4.2 duplicate
//! erasure) and hands out, in order, the keep flag of every position no
//! future window can cover. Event storage and the CEP sink stay with the
//! driver: the batch pipeline lends the caller's slice and extracts over
//! the kept events at the end, the streaming runtime lends its buffer and
//! feeds the extractor per finalized event.
//!
//! Marking is **speculative, then replayed**: the windows of one
//! [`MarkStage::settle`] call are handed to [`Filter::mark_batch`] in
//! chunks of [`MARK_BATCH`] — on the pool when there is one and the call
//! has at least two chunks, inline otherwise — behind a panic fence, and
//! the raw results then pass through the guard serially, in window order.
//! Guard state, the observer's verdicts and every counter are therefore a
//! function of the window sequence alone, never of how the stream was cut
//! into calls or of the thread count. Speculation is skipped while the
//! breaker is not Closed or the observer bypasses (the guard then decides
//! live whether the filter runs at all), and dropped for the rest of the
//! call once the observer swaps the filter.

use crate::assembler::AssemblerConfig;
use crate::filter::{Filter, MARK_BATCH};
use crate::guard::{
    invoke_unwinding, BreakerState, FilterGuard, GuardConfig, GuardOutcome, GuardState,
    SpeculativeInvocation,
};
use dlacep_events::PrimitiveEvent;
use dlacep_obs::Histogram;
use dlacep_par::{PoolStats, ThreadPool};
use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// Per-window hooks into the guard replay, called in window order:
/// `begin` → guard → `marked` → keep-map → `settled`. The streaming runtime
/// hangs drift detection off `marked` and the retrain supervisor off
/// `settled`; the batch pipeline observes nothing (`()`).
pub trait WindowObserver<F: Filter> {
    /// True while the driver itself wants windows relayed in full without
    /// consulting guard or filter (the drift fallback). Read before a batch
    /// speculates and again before each window replays.
    fn bypass(&self) -> bool {
        false
    }

    /// Window `widx`, covering `span` of the lent events, starts replaying.
    fn begin(&mut self, _widx: u64, _span: Range<usize>, _guard: &FilterGuard<F>) {}

    /// The guard has ruled on the window. The observer may widen
    /// `outcome.marks` (never narrow them: recall is the invariant). Not
    /// called for bypassed windows.
    fn marked(&mut self, _widx: u64, _outcome: &mut GuardOutcome, _guard: &FilterGuard<F>) {}

    /// The window's marks are in the keep-map. A returned filter replaces
    /// the guarded one; later windows of the batch are marked by it.
    fn settled(
        &mut self,
        _widx: u64,
        _window: &[PrimitiveEvent],
        _span: Range<usize>,
        _guard: &FilterGuard<F>,
    ) -> Option<F> {
        None
    }
}

impl<F: Filter> WindowObserver<F> for () {}

/// The checkpointable part of a [`MarkStage`]: everything but the filter,
/// the pool and the geometry, which the driver rebuilds.
#[derive(Debug, Clone, PartialEq)]
pub struct StageState {
    /// Breaker trajectory.
    pub guard: GuardState,
    /// Keep flags of the positions `[base, admitted)`.
    pub marks: Vec<bool>,
    /// First position not yet handed out.
    pub base: u64,
    /// Positions admitted so far.
    pub admitted: u64,
    /// Start of the next assembler window.
    pub next_window_start: u64,
    /// End of the last evaluated window.
    pub last_window_end: u64,
    /// Windows evaluated so far.
    pub windows_evaluated: u64,
}

/// The filter stage. See the [module docs](self).
pub struct MarkStage<F> {
    assembler: AssemblerConfig,
    guard: FilterGuard<F>,
    pool: Option<Arc<ThreadPool>>,
    /// Per-window share of each `mark_batch` call's wall time.
    mark_nanos: Histogram,
    /// Keep flags of the positions `[base, admitted)`.
    keep: VecDeque<bool>,
    base: usize,
    admitted: usize,
    next_window_start: usize,
    last_window_end: usize,
    /// Positions below this are final: no future window covers them.
    finalized: usize,
    windows_evaluated: usize,
}

impl<F: Filter> MarkStage<F> {
    /// A stage at stream position 0. `assembler` must already be validated
    /// against the pattern window. A call that completes more than
    /// [`MARK_BATCH`] windows marks its chunks on `pool`; smaller calls (and
    /// every call without a pool) mark inline.
    pub fn new(
        filter: F,
        guard: GuardConfig,
        assembler: AssemblerConfig,
        pool: Option<Arc<ThreadPool>>,
        mark_nanos: Histogram,
    ) -> Self {
        Self {
            assembler,
            guard: FilterGuard::new(filter, guard),
            pool,
            mark_nanos,
            keep: VecDeque::new(),
            base: 0,
            admitted: 0,
            next_window_start: 0,
            last_window_end: 0,
            finalized: 0,
            windows_evaluated: 0,
        }
    }

    /// The guard around the filter.
    pub fn guard(&self) -> &FilterGuard<F> {
        &self.guard
    }

    /// The window geometry.
    pub fn assembler(&self) -> &AssemblerConfig {
        &self.assembler
    }

    /// Positions admitted so far.
    pub fn admitted(&self) -> usize {
        self.admitted
    }

    /// Windows evaluated so far.
    pub fn windows_evaluated(&self) -> usize {
        self.windows_evaluated
    }

    /// Scheduling counters of the marking pool; `None` without one.
    pub fn pool_stats(&self) -> Option<PoolStats> {
        self.pool.as_ref().map(|p| p.stats())
    }

    /// Replace the guarded filter (see [`FilterGuard::swap_filter`]).
    pub fn swap_filter(&mut self, new: F) -> F {
        self.guard.swap_filter(new)
    }

    /// `n` more stream positions exist, unmarked so far.
    pub fn admit(&mut self, n: usize) {
        self.admitted += n;
        self.keep.resize(self.keep.len() + n, false);
    }

    /// Claim every window the admitted positions complete — and, at the end
    /// of the stream, the trailing partial ones, stopping after the first
    /// that touches the last position — as spans of the lent events (whose
    /// first is position `base`). The sequence is a function of the
    /// admitted count alone.
    fn schedule_windows(&mut self, end_of_stream: bool) -> Vec<Range<usize>> {
        let AssemblerConfig {
            mark_size,
            step_size,
        } = self.assembler;
        let (base, admitted) = (self.base, self.admitted);
        let mut ready = Vec::new();
        let mut last_end = self.last_window_end;
        while admitted >= self.next_window_start + mark_size {
            last_end = self.next_window_start + mark_size;
            ready.push(self.next_window_start - base..last_end - base);
            self.next_window_start += step_size;
        }
        if end_of_stream && admitted > 0 && last_end != admitted {
            while self.next_window_start < admitted {
                let end = (self.next_window_start + mark_size).min(admitted);
                ready.push(self.next_window_start - base..end - base);
                self.next_window_start += step_size;
                if end == admitted {
                    break;
                }
            }
        }
        ready
    }

    /// Mark every window the admitted positions complete. `events` holds
    /// the positions from the first un-drained one on; `end_of_stream`
    /// additionally flushes the trailing partial windows and finalizes
    /// every position.
    pub fn settle(
        &mut self,
        events: &[PrimitiveEvent],
        end_of_stream: bool,
        observer: &mut impl WindowObserver<F>,
    ) {
        let base = self.base;
        let ready = self.schedule_windows(end_of_stream);
        let mut raws = Vec::new().into_iter();
        if self.guard.state() == BreakerState::Closed && !observer.bypass() {
            let windows: Vec<&[PrimitiveEvent]> =
                ready.iter().map(|span| &events[span.clone()]).collect();
            raws = self.speculate(&windows).into_iter();
        }
        for span in ready {
            let window = &events[span.clone()];
            let widx = self.windows_evaluated as u64;
            self.windows_evaluated += 1;
            self.last_window_end = base + span.end;
            observer.begin(widx, span.clone(), &self.guard);
            let raw = raws.next();
            let slots = self.keep.range_mut(span.clone());
            if observer.bypass() {
                slots.for_each(|slot| *slot = true);
            } else {
                let mut outcome = match raw {
                    Some(raw) => self.guard.mark_speculative(window, raw),
                    None => self.guard.mark(window),
                };
                observer.marked(widx, &mut outcome, &self.guard);
                for (slot, mark) in slots.zip(outcome.marks) {
                    *slot |= mark;
                }
            }
            if let Some(new) = observer.settled(widx, window, span, &self.guard) {
                // The rest of the speculation came from the old filter.
                self.guard.swap_filter(new);
                raws = Vec::new().into_iter();
            }
        }
        self.finalized = if end_of_stream {
            self.admitted
        } else {
            self.next_window_start.min(self.admitted)
        };
    }

    /// One raw filter invocation per window, a chunk of [`MARK_BATCH`]
    /// windows per [`Filter::mark_batch`] call. A chunk that panics or
    /// returns the wrong number of results is re-run window by window, so
    /// only the window at fault is reported faulty.
    fn speculate(&self, windows: &[&[PrimitiveEvent]]) -> Vec<SpeculativeInvocation> {
        let filter = self.guard.filter();
        let with_scores = self.guard.config().validate_scores;
        let mark_nanos = &self.mark_nanos;
        let invoke_chunk = |chunk: &&[&[PrimitiveEvent]]| -> Vec<SpeculativeInvocation> {
            let start = mark_nanos.is_enabled().then(Instant::now);
            let whole = (chunk.len() > 1)
                .then(|| catch_unwind(AssertUnwindSafe(|| filter.mark_batch(chunk, with_scores))))
                .and_then(Result::ok)
                .filter(|marked| marked.len() == chunk.len());
            let raws = match whole {
                Some(marked) => marked.into_iter().map(Some).collect(),
                None => chunk
                    .iter()
                    .map(|window| invoke_unwinding(filter, window, with_scores))
                    .collect(),
            };
            if let Some(start) = start {
                let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
                for _ in *chunk {
                    mark_nanos.record(nanos / chunk.len() as u64);
                }
            }
            raws
        };
        let chunks: Vec<&[&[PrimitiveEvent]]> = windows.chunks(MARK_BATCH).collect();
        // The pool forks only for two or more chunks; one runs inline.
        let marked = match &self.pool {
            Some(pool) => pool.parallel_map(&chunks, 1, |_, chunk| invoke_chunk(chunk)),
            None => chunks.iter().map(invoke_chunk).collect(),
        };
        marked.into_iter().flatten().collect()
    }

    /// The keep flags of the positions finalized since the last call, in
    /// stream order. Those positions leave the stage.
    pub fn drain_finalized(&mut self) -> impl Iterator<Item = bool> + '_ {
        let n = self.finalized - self.base;
        self.base = self.finalized;
        self.keep.drain(..n)
    }

    /// Capture the cursors, the keep-map and the breaker trajectory.
    pub fn export_state(&self) -> StageState {
        StageState {
            guard: self.guard.export_state(),
            marks: self.keep.iter().copied().collect(),
            base: self.base as u64,
            admitted: self.admitted as u64,
            next_window_start: self.next_window_start as u64,
            last_window_end: self.last_window_end as u64,
            windows_evaluated: self.windows_evaluated as u64,
        }
    }

    /// Re-inject a captured state. Fails when the keep-map does not span
    /// exactly the un-drained positions, or a cursor does not fit `usize`.
    pub fn import_state(&mut self, state: StageState) -> Result<(), String> {
        let us = checked_usize;
        let (base, admitted) = (us(state.base, "base")?, us(state.admitted, "admitted")?);
        if base.checked_add(state.marks.len()) != Some(admitted) {
            return Err(format!(
                "{} marks do not span positions {base}..{admitted}",
                state.marks.len()
            ));
        }
        let next_window_start = us(state.next_window_start, "next_window_start")?;
        let last_window_end = us(state.last_window_end, "last_window_end")?;
        let windows_evaluated = us(state.windows_evaluated, "windows_evaluated")?;
        self.guard.import_state(state.guard);
        self.keep = state.marks.into();
        (self.base, self.finalized, self.admitted) = (base, base, admitted);
        self.next_window_start = next_window_start;
        self.last_window_end = last_window_end;
        self.windows_evaluated = windows_evaluated;
        Ok(())
    }
}

/// A checkpointed `u64` cursor or counter as a `usize`, or what overflowed.
pub(crate) fn checked_usize(v: u64, what: &str) -> Result<usize, String> {
    usize::try_from(v).map_err(|_| format!("{what} exceeds usize: {v}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Dlacep;
    use crate::runtime::{RuntimeConfig, StreamingDlacep};
    use dlacep_cep::engine::CepEngine;
    use dlacep_cep::{Match, NfaEngine, Pattern, PatternExpr, TypeSet};
    use dlacep_events::{EventStream, TypeId, WindowSpec};
    use dlacep_par::Parallelism;
    use std::collections::BTreeMap;

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

    fn stream(n: usize) -> EventStream {
        let mut s = EventStream::new();
        for i in 0..n {
            let t = [A, C, B, C, C][(i * 7 + i / 5) % 5];
            s.push(t, i as u64, vec![0.0]);
        }
        s
    }

    fn mix(a: u64, b: u64) -> u64 {
        (a.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ b).wrapping_mul(0xff51_afd7_ed55_8ccd) >> 29
    }

    /// Faulty as a function of the window alone: one window in sixteen
    /// panics, one in eight comes back a mark short, the others keep about
    /// half of their A/B events and a few of the rest.
    struct WindowKeyed;

    impl Filter for WindowKeyed {
        fn mark(&self, window: &[PrimitiveEvent]) -> Vec<bool> {
            let key = window[0].id.0;
            let fate = mix(key, window.len() as u64) % 16;
            assert_ne!(fate, 0, "poisoned window");
            window
                .iter()
                .skip(usize::from(fate <= 2))
                .map(|ev| mix(ev.id.0, key) % 8 < if ev.type_id == C { 1 } else { 5 })
                .collect()
        }

        fn name(&self) -> &'static str {
            "window-keyed"
        }
    }

    /// Cut `events` into calls of the drawn sizes, the last size repeating.
    fn cut<'a>(events: &'a [PrimitiveEvent], sizes: &'a [usize]) -> Vec<&'a [PrimitiveEvent]> {
        let mut rest = events;
        let mut sizes = sizes
            .iter()
            .copied()
            .chain(std::iter::repeat(sizes[sizes.len() - 1]));
        let mut calls = Vec::new();
        while !rest.is_empty() {
            let (call, tail) = rest.split_at(sizes.next().unwrap().min(rest.len()));
            calls.push(call);
            rest = tail;
        }
        calls
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(96))]

        // The reference is the paper's loop spelled out: the assembler's
        // window iterator, one guarded filter call per window, an id-keyed
        // dedupe map, an exact engine over what it relays. The stage fed in
        // arbitrary cuts, the batch pipeline, and the streaming runtime fed
        // per event and in arbitrary batches must all reproduce it, serial
        // and pooled.
        #[test]
        fn every_driver_equals_the_id_keyed_loop(
            n in 0usize..160,
            mark_size in 1usize..13,
            step_seed in 0usize..12,
            sizes in proptest::prop::collection::vec(1usize..40, 1..6),
        ) {
            let step_size = 1 + step_seed % mark_size;
            let assembler = AssemblerConfig { mark_size, step_size };
            let s = stream(n);
            let events = s.events();

            let mut guard = FilterGuard::new(WindowKeyed, GuardConfig::default());
            let mut by_id = BTreeMap::new();
            let mut want_windows = 0;
            for window in assembler.windows(events) {
                want_windows += 1;
                for (ev, keep) in window.iter().zip(guard.mark(window).marks) {
                    if keep {
                        by_id.entry(ev.id.0).or_insert_with(|| ev.clone());
                    }
                }
            }
            let want: Vec<PrimitiveEvent> = by_id.into_values().collect();
            let want_stats = *guard.stats();

            // The stage itself, any geometry with step ≤ mark.
            let mut stage = MarkStage::new(
                WindowKeyed,
                GuardConfig::default(),
                assembler,
                None,
                Histogram::disabled(),
            );
            let mut got = Vec::new();
            let mut drained = 0;
            let calls = cut(events, &sizes);
            for (i, call) in calls.iter().enumerate() {
                stage.admit(call.len());
                let lent = &events[drained..stage.admitted()];
                stage.settle(lent, i + 1 == calls.len(), &mut ());
                for (ev, keep) in lent.iter().zip(stage.drain_finalized()) {
                    drained += 1;
                    if keep {
                        got.push(ev.clone());
                    }
                }
            }
            proptest::prop_assert_eq!(drained, n);
            proptest::prop_assert_eq!(&got, &want);
            proptest::prop_assert_eq!(stage.guard().stats(), &want_stats);
            proptest::prop_assert_eq!(stage.windows_evaluated(), want_windows);

            // The two drivers, wherever the geometry admits a pattern
            // window (W = MarkSize − StepSize, or 1 at MarkSize = 1).
            if step_size < mark_size || mark_size == 1 {
                let w = (mark_size - step_size).max(1) as u64;
                let want_matches: Vec<Match> = NfaEngine::new(&seq_ab(w)).unwrap().run(&want);
                for threads in [1, 4] {
                    let batch = Dlacep::builder(seq_ab(w), WindowKeyed)
                        .assembler(assembler)
                        .parallelism(Parallelism::with_threads(threads))
                        .build()
                        .unwrap()
                        .run(events);
                    proptest::prop_assert_eq!(&batch.matches, &want_matches);
                    proptest::prop_assert_eq!(batch.events_relayed, want.len());
                    proptest::prop_assert_eq!(batch.filter_faults as u64, want_stats.faults_total);

                    let cfg = RuntimeConfig {
                        assembler: Some(assembler),
                        parallelism: Parallelism::with_threads(threads),
                        ..RuntimeConfig::default()
                    };
                    let mut per_event = StreamingDlacep::builder(seq_ab(w), WindowKeyed)
                        .config(cfg)
                        .build()
                        .unwrap();
                    for ev in events {
                        per_event.ingest(ev.type_id, ev.ts.0, ev.attrs.clone()).unwrap();
                    }
                    let mut batched = StreamingDlacep::builder(seq_ab(w), WindowKeyed)
                        .config(cfg)
                        .build()
                        .unwrap();
                    for call in &calls {
                        match call {
                            [ev] => drop(batched.ingest(ev.type_id, ev.ts.0, ev.attrs.clone()).unwrap()),
                            _ => batched.ingest_batch(call).unwrap(),
                        }
                    }
                    for report in [per_event.finish(), batched.finish()] {
                        proptest::prop_assert_eq!(&report.matches, &want_matches);
                        proptest::prop_assert_eq!(report.events_relayed, want.len());
                        proptest::prop_assert_eq!(report.guard, want_stats);
                        proptest::prop_assert_eq!(report.windows_evaluated, want_windows);
                    }
                }
            }
        }
    }

    #[test]
    fn import_rejects_a_keep_map_that_does_not_span_the_positions() {
        let mut stage = MarkStage::new(
            WindowKeyed,
            GuardConfig::default(),
            AssemblerConfig::paper_default(4),
            None,
            Histogram::disabled(),
        );
        stage.admit(5);
        let mut state = stage.export_state();
        assert!(stage.import_state(state.clone()).is_ok());
        state.marks.pop();
        assert!(stage.import_state(state).is_err());
    }
}
