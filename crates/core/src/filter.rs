//! Stream filters: the pluggable "DNN-based filter" stage of Fig. 4.
//!
//! A [`Filter`] marks, per assembler window, the events to relay to the CEP
//! extractor. Besides the two learned filters (event-network,
//! window-network) there is an [`OracleFilter`] (ground-truth marks — the
//! upper bound of what any filter can achieve, used to isolate CEP-side
//! gains from model quality) and a [`PassthroughFilter`] (marks everything —
//! degenerates DLACEP to ECEP plus overhead).

use crate::embed::EventEmbedder;
use crate::model::{EventNetwork, WindowNetwork};
use dlacep_cep::plan::Plan;
use dlacep_cep::Pattern;
use dlacep_events::PrimitiveEvent;

/// One window's marks, with the raw scores behind them when they were asked
/// for and the filter has any.
pub type WindowMarks = (Vec<bool>, Option<Vec<f32>>);

/// Windows handed to [`Filter::mark_batch`] at a time by the pipelines, and
/// the most the int8 filter stacks into one forward pass. From the
/// `nn_kernels` sweep (`results/BENCH_nn_kernels.json`): at the paper's
/// shape (2 × BiLSTM, H = 150, `Wh` = 180 KB) per-window time falls by about
/// a fifth up to 4–8 windows per pass — the recurrent weights are then read
/// from L2 once per pass instead of once per window — and is flat beyond;
/// at shapes whose weights fit L1 batching changes nothing. 8 also leaves
/// pooled marking enough chunks to balance.
pub const MARK_BATCH: usize = 8;

/// Marks the events of one assembler window that should survive filtration.
///
/// `Send + Sync` is a supertrait so pooled marking can hand chunks of
/// independent windows to scoped helper threads (see [`crate::stage`]),
/// each sharing `&self`; filters needing interior mutability must use
/// atomics or locks rather than `Cell`/`RefCell`.
pub trait Filter: Send + Sync {
    /// One mark per event; `true` = relay to the CEP extractor.
    fn mark(&self, window: &[PrimitiveEvent]) -> Vec<bool>;

    /// Raw per-event scores behind the marks (e.g. BI-CRF posterior
    /// marginals), when the filter has any. Guards use these to detect
    /// numerically poisoned models: a NaN score means the marks cannot be
    /// trusted even when the mark vector itself is well-formed. Rule-based
    /// filters return `None` (the default).
    fn scores(&self, _window: &[PrimitiveEvent]) -> Option<Vec<f32>> {
        None
    }

    /// Mark several windows in one call, optionally with their scores. A
    /// filter that can share work across windows, or derive marks and
    /// scores from one forward pass, overrides this; every window's result
    /// must equal what [`Filter::mark`] and [`Filter::scores`] return for
    /// it alone. The default does exactly that, window by window.
    fn mark_batch(&self, windows: &[&[PrimitiveEvent]], with_scores: bool) -> Vec<WindowMarks> {
        windows
            .iter()
            .map(|w| {
                let marks = self.mark(w);
                (marks, with_scores.then(|| self.scores(w)).flatten())
            })
            .collect()
    }

    /// Short name for reports.
    fn name(&self) -> &'static str;

    /// Whether marks come from a quantized (int8) inference path. The
    /// pipeline splits its marking counters on this so quant-vs-f32 traffic
    /// is visible in the metrics registry.
    fn quantized(&self) -> bool {
        false
    }
}

/// A borrowed filter is a filter: the batch pipeline guards `&F` per run.
impl<F: Filter + ?Sized> Filter for &F {
    fn mark(&self, window: &[PrimitiveEvent]) -> Vec<bool> {
        (**self).mark(window)
    }

    fn scores(&self, window: &[PrimitiveEvent]) -> Option<Vec<f32>> {
        (**self).scores(window)
    }

    fn mark_batch(&self, windows: &[&[PrimitiveEvent]], with_scores: bool) -> Vec<WindowMarks> {
        (**self).mark_batch(windows, with_scores)
    }

    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn quantized(&self) -> bool {
        (**self).quantized()
    }
}

/// Learned per-event filter: stacked BiLSTM + BI-CRF (§4.3 event-network).
#[derive(Debug, Clone)]
pub struct EventNetFilter {
    /// The trained model.
    pub network: EventNetwork,
    /// The embedder fitted to the pattern.
    pub embedder: EventEmbedder,
    /// `None`: mark by Viterbi decode (the symmetric-loss choice).
    /// `Some(t)`: mark events whose BI-CRF posterior marginal exceeds `t`.
    /// DLACEP's costs are asymmetric — a spurious mark only costs extra CEP
    /// work (the extractor discards it), while an unmarked participant loses
    /// the match permanently — so a recall-biased threshold (e.g. 0.3) is
    /// usually the better operating point.
    pub threshold: Option<f32>,
}

impl EventNetFilter {
    /// Build with Viterbi-decode marking.
    pub fn new(network: EventNetwork, embedder: EventEmbedder) -> Self {
        Self {
            network,
            embedder,
            threshold: None,
        }
    }
}

impl Filter for EventNetFilter {
    fn mark(&self, window: &[PrimitiveEvent]) -> Vec<bool> {
        let embeds = self.embedder.embed_window(window, window.len());
        match self.threshold {
            None => self.network.mark(&embeds),
            Some(t) => self
                .network
                .marginals(&embeds)
                .into_iter()
                .map(|p| p > t)
                .collect(),
        }
    }

    fn scores(&self, window: &[PrimitiveEvent]) -> Option<Vec<f32>> {
        let embeds = self.embedder.embed_window(window, window.len());
        Some(self.network.marginals(&embeds))
    }

    fn name(&self) -> &'static str {
        "event-network"
    }
}

/// Learned per-window filter: either the whole window survives or none of it
/// (§4.3 window-network).
#[derive(Debug, Clone)]
pub struct WindowNetFilter {
    /// The trained model.
    pub network: WindowNetwork,
    /// The embedder fitted to the pattern.
    pub embedder: EventEmbedder,
}

impl Filter for WindowNetFilter {
    fn mark(&self, window: &[PrimitiveEvent]) -> Vec<bool> {
        let embeds = self.embedder.embed_window(window, window.len());
        let keep = self.network.applicable(&embeds);
        vec![keep; window.len()]
    }

    fn name(&self) -> &'static str {
        "window-network"
    }
}

/// Ground-truth filter: marks exactly the events an exact engine would put
/// into a full match within the window (plus negation-admissible events,
/// mirroring the labeler). Perfect recall and precision by construction.
#[derive(Debug, Clone)]
pub struct OracleFilter {
    pattern: Pattern,
    plan: Plan,
}

impl OracleFilter {
    /// Build for a pattern.
    ///
    /// # Panics
    /// Panics if the pattern does not compile.
    pub fn new(pattern: Pattern) -> Self {
        let plan = Plan::compile(&pattern).expect("pattern compiles");
        Self { pattern, plan }
    }
}

impl Filter for OracleFilter {
    fn mark(&self, window: &[PrimitiveEvent]) -> Vec<bool> {
        let matches = dlacep_data::label::matches_in_sample(&self.pattern, window);
        let positive: std::collections::HashSet<u64> = matches
            .iter()
            .flat_map(|m| m.event_ids.iter().map(|id| id.0))
            .collect();
        let mut marks: Vec<bool> = window.iter().map(|e| positive.contains(&e.id.0)).collect();
        for branch in &self.plan.branches {
            for neg in &branch.negs {
                for elem in &neg.inner {
                    for (i, ev) in window.iter().enumerate() {
                        if elem.types.contains(ev.type_id) {
                            marks[i] = true;
                        }
                    }
                }
            }
        }
        marks
    }

    fn name(&self) -> &'static str {
        "oracle"
    }
}

/// Marks every event (control: ECEP behaviour + filtering overhead).
#[derive(Debug, Clone, Copy, Default)]
pub struct PassthroughFilter;

impl Filter for PassthroughFilter {
    fn mark(&self, window: &[PrimitiveEvent]) -> Vec<bool> {
        vec![true; window.len()]
    }

    fn name(&self) -> &'static str {
        "passthrough"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlacep_cep::{PatternExpr, TypeSet};
    use dlacep_events::{EventStream, TypeId, WindowSpec};

    const A: TypeId = TypeId(0);
    const B: TypeId = TypeId(1);
    const C: TypeId = TypeId(2);

    fn seq_ab() -> Pattern {
        Pattern::new(
            PatternExpr::Seq(vec![
                PatternExpr::event(TypeSet::single(A), "a"),
                PatternExpr::event(TypeSet::single(B), "b"),
            ]),
            vec![],
            WindowSpec::Count(4),
        )
    }

    fn stream(types: &[TypeId]) -> EventStream {
        let mut s = EventStream::new();
        for (i, &t) in types.iter().enumerate() {
            s.push(t, i as u64, vec![0.0]);
        }
        s
    }

    #[test]
    fn oracle_marks_match_participants_only() {
        let f = OracleFilter::new(seq_ab());
        let s = stream(&[A, C, B, C]);
        assert_eq!(f.mark(s.events()), vec![true, false, true, false]);
    }

    #[test]
    fn oracle_marks_nothing_without_matches() {
        let f = OracleFilter::new(seq_ab());
        let s = stream(&[B, A, C, C]); // wrong order
        assert_eq!(f.mark(s.events()), vec![false, false, false, false]);
    }

    #[test]
    fn oracle_marks_negation_types() {
        let p = Pattern::new(
            PatternExpr::Seq(vec![
                PatternExpr::event(TypeSet::single(A), "a"),
                PatternExpr::Neg(Box::new(PatternExpr::event(TypeSet::single(C), "n"))),
                PatternExpr::event(TypeSet::single(B), "b"),
            ]),
            vec![],
            WindowSpec::Count(4),
        );
        let f = OracleFilter::new(p);
        let s = stream(&[A, C, B, C]);
        // No match (C in gap) but Cs marked so the extractor can see them.
        assert_eq!(f.mark(s.events()), vec![false, true, false, true]);
    }

    #[test]
    fn passthrough_marks_everything() {
        let f = PassthroughFilter;
        let s = stream(&[A, B, C]);
        assert_eq!(f.mark(s.events()), vec![true; 3]);
        assert_eq!(f.name(), "passthrough");
    }
}
