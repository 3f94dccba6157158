//! The quantized marking fast path: a drop-in [`Filter`] whose stacked
//! BiLSTM and emission layers run on the int8 kernels of
//! [`dlacep_nn::quant`].
//!
//! Architecture of the split:
//!
//! * **Encoder + emission layer** (≥ 99% of the marking FLOPs) run int8
//!   with per-channel weight scales and static activation scales, over
//!   `B` windows at a time stacked time-step-major.
//! * **BI-CRF head** stays in f32: it is `O(T · L²)` with `L = 2`, and
//!   noise here would directly move the decode boundary. [`CrfHead`]
//!   replicates the exact forward/backward arithmetic of
//!   [`dlacep_nn::BiCrf`], allocation-free over the scratch arena and
//!   addressing each window of the batch in place.
//! * **Scratch** lives in a small pool of [`ScratchArena`]s (one per
//!   in-flight batch), so concurrent marking under the parallel batch
//!   path shares nothing and steady-state marking allocates nothing.
//!
//! Every window's marks and scores are a function of that window alone:
//! the batch size, the window's position in a batch and which thread ran
//! it cannot change a bit of the result.
//!
//! The accuracy contract (recall/precision delta vs the f32 filter ≤ 1% on
//! the fig8/fig9 suites) is enforced by `dlacep-bench`'s
//! `quantized_recall` test, not assumed.

use crate::embed::EventEmbedder;
use crate::filter::{EventNetFilter, Filter, WindowMarks, MARK_BATCH};
use crate::model::EventNetwork;
use dlacep_dur::{CodecError, Dec, Decoder, Enc, Encoder};
use dlacep_events::PrimitiveEvent;
use dlacep_nn::quant::{
    calibrate_input_scale, ensure, QuantError, QuantizedLinear, QuantizedStackedBiLstm,
    ScratchArena, UNIT_SCALE,
};
use dlacep_nn::{BiCrf, Crf, ParamStore};

/// The integer-kernel level the int8 filter dispatches to on this CPU
/// (`"avx2"`, `"sse2"` or `"scalar"`), for telemetry and report headers.
pub use dlacep_nn::quant::simd_level;
use serde::{Deserialize, Serialize};
use std::sync::Mutex;

/// Arenas kept warm in the pool. Marking uses one arena per in-flight
/// batch; the pool only grows past this if more batches are marked
/// concurrently than this many threads.
const ARENA_POOL_CAPACITY: usize = 16;

/// Errors surfaced while quantizing a trained filter.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum QuantizeError {
    /// The weight/calibration quantization itself failed.
    Quant(QuantError),
    /// The CRF head is only replicated for binary marking.
    UnsupportedLabels {
        /// Label count the network was built with.
        got: usize,
    },
}

impl std::fmt::Display for QuantizeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QuantizeError::Quant(e) => write!(f, "{e}"),
            QuantizeError::UnsupportedLabels { got } => write!(
                f,
                "quantized CRF head supports exactly 2 labels, network has {got}"
            ),
        }
    }
}

impl std::error::Error for QuantizeError {}

impl From<QuantError> for QuantizeError {
    fn from(e: QuantError) -> Self {
        QuantizeError::Quant(e)
    }
}

/// `max + ln(e^(a-max) + e^(b-max))`, the 2-label specialization of the
/// CRF's log-sum-exp (same arithmetic order as the f32 head).
#[inline]
fn log_sum_exp2(a: f32, b: f32) -> f32 {
    let m = a.max(b);
    if m == f32::NEG_INFINITY {
        return f32::NEG_INFINITY;
    }
    m + ((a - m).exp() + (b - m).exp()).ln()
}

/// One directional CRF over 2 labels, extracted to plain f32 buffers
/// (`trans` row-major 2×2, `start`/`end` length 2).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct CrfDir {
    trans: Vec<f32>,
    start: Vec<f32>,
    end: Vec<f32>,
}

impl CrfDir {
    fn extract(store: &ParamStore, crf: &Crf) -> Result<Self, QuantizeError> {
        if crf.num_labels != 2 {
            return Err(QuantizeError::UnsupportedLabels {
                got: crf.num_labels,
            });
        }
        let (trans, start, end) = crf.params();
        Ok(Self {
            trans: store.value(trans).as_slice().to_vec(),
            start: store.value(start).as_slice().to_vec(),
            end: store.value(end).as_slice().to_vec(),
        })
    }

    /// Forward–backward over one window of a time-step-major batch, adding
    /// this direction's posterior marginals into `out`.
    ///
    /// Position `k` of this direction's chain is window step `k`, or
    /// `t_len - 1 - k` when `rev`; window step `t` lives at index
    /// `2 · t · stride` of `em` and `out`, so a window is addressed in
    /// place. `alpha`/`beta` are caller scratch of at least `2 · t_len`.
    #[allow(clippy::too_many_arguments)]
    fn accumulate_marginals(
        &self,
        t_len: usize,
        stride: usize,
        em: &[f32],
        rev: bool,
        alpha: &mut [f32],
        beta: &mut [f32],
        out: &mut [f32],
    ) {
        let at = |k: usize| 2 * stride * if rev { t_len - 1 - k } else { k };
        let e = |k: usize, j: usize| em[at(k) + j];
        alpha[0] = self.start[0] + e(0, 0);
        alpha[1] = self.start[1] + e(0, 1);
        for t in 1..t_len {
            for j in 0..2 {
                let s0 = alpha[(t - 1) * 2] + self.trans[j];
                let s1 = alpha[(t - 1) * 2 + 1] + self.trans[2 + j];
                alpha[t * 2 + j] = log_sum_exp2(s0, s1) + e(t, j);
            }
        }
        beta[(t_len - 1) * 2] = self.end[0];
        beta[(t_len - 1) * 2 + 1] = self.end[1];
        for t in (0..t_len - 1).rev() {
            for i in 0..2 {
                let s0 = self.trans[i * 2] + e(t + 1, 0) + beta[(t + 1) * 2];
                let s1 = self.trans[i * 2 + 1] + e(t + 1, 1) + beta[(t + 1) * 2 + 1];
                beta[t * 2 + i] = log_sum_exp2(s0, s1);
            }
        }
        let logz = log_sum_exp2(
            alpha[(t_len - 1) * 2] + self.end[0],
            alpha[(t_len - 1) * 2 + 1] + self.end[1],
        );
        for t in 0..t_len {
            for j in 0..2 {
                out[at(t) + j] += (alpha[t * 2 + j] + beta[t * 2 + j] - logz).exp();
            }
        }
    }
}

impl Enc for CrfDir {
    fn enc(&self, e: &mut Encoder) {
        e.put(&self.trans);
        e.put(&self.start);
        e.put(&self.end);
    }
}

impl Dec for CrfDir {
    fn dec(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let dir = Self {
            trans: d.get()?,
            start: d.get()?,
            end: d.get()?,
        };
        if dir.trans.len() != 4 || dir.start.len() != 2 || dir.end.len() != 2 {
            return Err(CodecError::Malformed("CRF head parameter lengths".into()));
        }
        Ok(dir)
    }
}

/// The f32 BI-CRF head of the quantized network: exact 2-label
/// forward–backward over both directions, allocation-free.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct CrfHead {
    fwd: CrfDir,
    bwd: CrfDir,
}

impl CrfHead {
    fn extract(store: &ParamStore, crf: &BiCrf) -> Result<Self, QuantizeError> {
        let (fwd, bwd) = crf.directions();
        Ok(Self {
            fwd: CrfDir::extract(store, fwd)?,
            bwd: CrfDir::extract(store, bwd)?,
        })
    }

    /// Sum of both directions' posterior marginals for every window of a
    /// time-step-major batch: `em` and `out` are `t_len · batch × 2`
    /// (`out` is overwritten), `alpha`/`beta` are scratch for `2 · t_len`
    /// values each. The decode rule downstream — mark when
    /// `out[2r+1] >= out[2r]` — matches `BiCrf::decode`'s per-position
    /// argmax including its tie behaviour (ties go to label 1).
    fn combined_marginals(
        &self,
        t_len: usize,
        batch: usize,
        em: &[f32],
        alpha: &mut [f32],
        beta: &mut [f32],
        out: &mut [f32],
    ) {
        let rows = t_len * batch;
        out[..2 * rows].fill(0.0);
        for b in 0..batch {
            let (em, out) = (&em[2 * b..2 * rows], &mut out[2 * b..2 * rows]);
            self.fwd
                .accumulate_marginals(t_len, batch, em, false, alpha, beta, out);
            self.bwd
                .accumulate_marginals(t_len, batch, em, true, alpha, beta, out);
        }
    }
}

impl Enc for CrfHead {
    fn enc(&self, e: &mut Encoder) {
        e.put(&self.fwd);
        e.put(&self.bwd);
    }
}

impl Dec for CrfHead {
    fn dec(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(Self {
            fwd: d.get()?,
            bwd: d.get()?,
        })
    }
}

/// An [`EventNetwork`] quantized for inference: int8 encoder + emission
/// layer, exact f32 BI-CRF head.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuantizedEventNetwork {
    input_dim: usize,
    encoder: QuantizedStackedBiLstm,
    emit: QuantizedLinear,
    crf: CrfHead,
}

impl QuantizedEventNetwork {
    /// Quantize a trained network, calibrating the input activation scale
    /// from `calibration` (embedded sample windows — typically a few dozen
    /// windows of the training stream). Fails on an empty calibration set,
    /// non-finite weights, or a non-binary CRF head.
    pub fn quantize<'a, I>(network: &EventNetwork, calibration: I) -> Result<Self, QuantizeError>
    where
        I: IntoIterator<Item = &'a [Vec<f32>]>,
    {
        let (store, encoder, emit, crf) = network.parts();
        let input_scale = calibrate_input_scale(
            calibration
                .into_iter()
                .flat_map(|w| w.iter().map(Vec::as_slice)),
        )?;
        Ok(Self {
            input_dim: network.config.input_dim,
            encoder: QuantizedStackedBiLstm::quantize(store, encoder, input_scale)?,
            // The emission layer consumes tanh-bounded encoder outputs.
            emit: QuantizedLinear::quantize(store, emit, UNIT_SCALE)?,
            crf: CrfHead::extract(store, crf)?,
        })
    }

    /// Embedding width the network expects.
    #[must_use]
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Run encoder + emissions + combined CRF marginals for `batch`
    /// windows of `t_len` rows each, loaded time-step-major into
    /// `arena.io_a` (row `t · batch + b` is step `t` of window `b`); leaves
    /// the per-position combined marginal sums in `arena.probs` (same row
    /// order, 2 values per row).
    fn combined_into(&self, t_len: usize, batch: usize, arena: &mut ScratchArena) {
        let rows = t_len * batch;
        self.encoder.infer_batch(t_len, batch, arena);
        self.emit
            .infer_into(rows, &arena.io_a, &mut arena.xq, &mut arena.emit);
        ensure(&mut arena.crf_alpha, t_len * 2);
        ensure(&mut arena.crf_beta, t_len * 2);
        ensure(&mut arena.probs, rows * 2);
        self.crf.combined_marginals(
            t_len,
            batch,
            &arena.emit,
            &mut arena.crf_alpha,
            &mut arena.crf_beta,
            &mut arena.probs,
        );
    }

    /// Load pre-embedded windows of one length time-step-major.
    fn load_windows(&self, windows: &[&[Vec<f32>]], arena: &mut ScratchArena) {
        let (batch, dim) = (windows.len(), self.input_dim);
        let t_len = windows.first().map_or(0, |w| w.len());
        ensure(&mut arena.io_a, t_len * batch * dim);
        for (b, window) in windows.iter().enumerate() {
            assert_eq!(window.len(), t_len, "a batch holds windows of one length");
            for (t, row) in window.iter().enumerate() {
                assert_eq!(row.len(), dim, "embedding width mismatch");
                arena.io_a[(t * batch + b) * dim..][..dim].copy_from_slice(row);
            }
        }
    }

    /// Quantized counterpart of [`EventNetwork::mark`], writing into a
    /// reusable buffer. Allocation-free once `arena` and `out` have grown
    /// to the window shape.
    pub fn mark_into(&self, window: &[Vec<f32>], arena: &mut ScratchArena, out: &mut Vec<bool>) {
        self.mark_batch_into(&[window], arena, out);
    }

    /// [`QuantizedEventNetwork::mark_into`] over several windows of one
    /// length in one batched forward pass; `out` receives their marks back
    /// to back, in window order.
    pub fn mark_batch_into(
        &self,
        windows: &[&[Vec<f32>]],
        arena: &mut ScratchArena,
        out: &mut Vec<bool>,
    ) {
        out.clear();
        let (batch, t_len) = (windows.len(), windows.first().map_or(0, |w| w.len()));
        if t_len == 0 {
            return;
        }
        self.load_windows(windows, arena);
        self.combined_into(t_len, batch, arena);
        for b in 0..batch {
            out.extend(window_probs(&arena.probs, t_len, batch, b).map(|[p0, p1]| p1 >= p0));
        }
    }

    /// Quantized counterpart of [`EventNetwork::marginals`]: posterior
    /// probability of the positive label per event.
    pub fn marginals_into(
        &self,
        window: &[Vec<f32>],
        arena: &mut ScratchArena,
        out: &mut Vec<f32>,
    ) {
        out.clear();
        if window.is_empty() {
            return;
        }
        self.load_windows(&[window], arena);
        self.combined_into(window.len(), 1, arena);
        out.extend(window_probs(&arena.probs, window.len(), 1, 0).map(|[_, p1]| 0.5 * p1));
    }
}

/// The `[label 0, label 1]` combined marginal sums of window `b` of a
/// time-step-major batch, step by step.
fn window_probs(
    probs: &[f32],
    t_len: usize,
    batch: usize,
    b: usize,
) -> impl Iterator<Item = [f32; 2]> + '_ {
    (0..t_len).map(move |t| {
        let row = 2 * (t * batch + b);
        [probs[row], probs[row + 1]]
    })
}

impl Enc for QuantizedEventNetwork {
    fn enc(&self, e: &mut Encoder) {
        e.put(&self.input_dim);
        e.put(&self.encoder);
        e.put(&self.emit);
        e.put(&self.crf);
    }
}

impl Dec for QuantizedEventNetwork {
    fn dec(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(Self {
            input_dim: d.get()?,
            encoder: d.get()?,
            emit: d.get()?,
            crf: d.get()?,
        })
    }
}

/// Drop-in int8 replacement for [`EventNetFilter`]: same marking semantics
/// (Viterbi-equivalent combined-marginal decode, or thresholded marginals),
/// same `scores` contract for [`crate::guard::FilterGuard`], zero steady-
/// state allocations in [`QuantizedEventNetwork::mark_into`].
#[derive(Debug)]
pub struct QuantizedFilter {
    network: QuantizedEventNetwork,
    embedder: EventEmbedder,
    /// Marking rule, mirroring [`EventNetFilter::threshold`]: `None` =
    /// combined-marginal decode, `Some(t)` = mark when the posterior
    /// marginal exceeds `t`.
    pub threshold: Option<f32>,
    arenas: Mutex<Vec<ScratchArena>>,
}

impl Clone for QuantizedFilter {
    fn clone(&self) -> Self {
        Self::from_parts(self.network.clone(), self.embedder.clone(), self.threshold)
    }
}

impl PartialEq for QuantizedFilter {
    fn eq(&self, other: &Self) -> bool {
        // Scratch arenas are not part of the filter's identity.
        self.network == other.network && self.threshold == other.threshold
    }
}

impl QuantizedFilter {
    /// Quantize a trained [`EventNetFilter`], calibrating activation scales
    /// from `sample_windows` (raw event windows from the training stream;
    /// they are embedded with the filter's own embedder). The threshold
    /// carries over unchanged.
    pub fn quantize(
        filter: &EventNetFilter,
        sample_windows: &[&[PrimitiveEvent]],
    ) -> Result<Self, QuantizeError> {
        let embedded: Vec<Vec<Vec<f32>>> = sample_windows
            .iter()
            .map(|w| filter.embedder.embed_window(w, w.len()))
            .collect();
        let network =
            QuantizedEventNetwork::quantize(&filter.network, embedded.iter().map(Vec::as_slice))?;
        Ok(Self::from_parts(
            network,
            filter.embedder.clone(),
            filter.threshold,
        ))
    }

    /// Assemble from an already-quantized network (e.g. a loaded bundle).
    #[must_use]
    pub fn from_parts(
        network: QuantizedEventNetwork,
        embedder: EventEmbedder,
        threshold: Option<f32>,
    ) -> Self {
        Self {
            network,
            embedder,
            threshold,
            arenas: Mutex::new(Vec::with_capacity(ARENA_POOL_CAPACITY)),
        }
    }

    /// The quantized network.
    #[must_use]
    pub fn network(&self) -> &QuantizedEventNetwork {
        &self.network
    }

    /// The embedder (identical to the source filter's).
    #[must_use]
    pub fn embedder(&self) -> &EventEmbedder {
        &self.embedder
    }

    fn take_arena(&self) -> ScratchArena {
        self.arenas
            .lock()
            .map(|mut pool| pool.pop())
            .unwrap_or_default()
            .unwrap_or_default()
    }

    fn return_arena(&self, arena: ScratchArena) {
        if let Ok(mut pool) = self.arenas.lock() {
            if pool.len() < ARENA_POOL_CAPACITY {
                pool.push(arena);
            }
        }
    }

    /// One batched forward pass over `group` (non-empty windows of one
    /// length), leaving the combined marginal sums in `arena.probs`.
    fn forward(&self, group: &[&[PrimitiveEvent]], arena: &mut ScratchArena) {
        let (batch, t_len, dim) = (group.len(), group[0].len(), self.embedder.dim());
        ensure(&mut arena.io_a, t_len * batch * dim);
        for (b, window) in group.iter().enumerate() {
            for (t, ev) in window.iter().enumerate() {
                self.embedder
                    .embed_into(ev, &mut arena.io_a[(t * batch + b) * dim..][..dim]);
            }
        }
        self.network.combined_into(t_len, batch, arena);
    }

    /// The marking rule on one position's combined marginal sums.
    fn decide(&self, [p0, p1]: [f32; 2]) -> bool {
        match self.threshold {
            None => p1 >= p0,
            Some(thr) => 0.5 * p1 > thr,
        }
    }

    /// Mark into a reusable buffer — the allocation-free entry point. With
    /// a warm arena pool and an `out` buffer at capacity, marking performs
    /// zero heap allocations per window.
    pub fn mark_into(&self, window: &[PrimitiveEvent], out: &mut Vec<bool>) {
        out.clear();
        if window.is_empty() {
            return;
        }
        let mut arena = self.take_arena();
        self.forward(&[window], &mut arena);
        out.extend(window_probs(&arena.probs, window.len(), 1, 0).map(|p| self.decide(p)));
        self.return_arena(arena);
    }
}

impl Filter for QuantizedFilter {
    fn mark(&self, window: &[PrimitiveEvent]) -> Vec<bool> {
        let mut out = Vec::with_capacity(window.len());
        self.mark_into(window, &mut out);
        out
    }

    fn scores(&self, window: &[PrimitiveEvent]) -> Option<Vec<f32>> {
        self.mark_batch(&[window], true).pop()?.1
    }

    /// Consecutive windows of one length go through the network together,
    /// up to [`MARK_BATCH`] at a time; marks and scores of a window come
    /// from the same forward pass.
    fn mark_batch(&self, windows: &[&[PrimitiveEvent]], with_scores: bool) -> Vec<WindowMarks> {
        let mut out = Vec::with_capacity(windows.len());
        let mut arena = self.take_arena();
        let mut rest = windows;
        while let Some(first) = rest.first() {
            let t_len = first.len();
            let batch = rest
                .iter()
                .take(MARK_BATCH)
                .take_while(|w| w.len() == t_len)
                .count();
            let (group, tail) = rest.split_at(batch);
            rest = tail;
            if t_len > 0 {
                self.forward(group, &mut arena);
            }
            for b in 0..batch {
                let probs = || window_probs(&arena.probs, t_len, batch, b);
                out.push((
                    probs().map(|p| self.decide(p)).collect(),
                    with_scores.then(|| probs().map(|[_, p1]| 0.5 * p1).collect()),
                ));
            }
        }
        self.return_arena(arena);
        out
    }

    fn name(&self) -> &'static str {
        "event-network-int8"
    }

    fn quantized(&self) -> bool {
        true
    }
}

impl Enc for QuantizedFilter {
    fn enc(&self, e: &mut Encoder) {
        e.put(&self.network);
        e.put(&self.embedder);
        e.put(&self.threshold);
    }
}

impl Dec for QuantizedFilter {
    fn dec(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let network: QuantizedEventNetwork = d.get()?;
        let embedder: EventEmbedder = d.get()?;
        let threshold: Option<f32> = d.get()?;
        Ok(Self::from_parts(network, embedder, threshold))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::NetworkConfig;
    use dlacep_cep::TypeSet;
    use dlacep_events::TypeId;

    fn ev(i: u64, t: u32) -> PrimitiveEvent {
        PrimitiveEvent::new(i, TypeId(t), i, vec![((i * 7 % 5) as f64 - 2.0) * 0.4])
    }

    fn setup() -> (EventNetFilter, Vec<PrimitiveEvent>) {
        let embedder = EventEmbedder::new(&TypeSet::new(vec![TypeId(0), TypeId(1)]), 1);
        let filter = EventNetFilter::new(
            EventNetwork::new(NetworkConfig::small(embedder.dim())),
            embedder,
        );
        let events: Vec<PrimitiveEvent> = (0..24).map(|i| ev(i, (i % 3) as u32)).collect();
        (filter, events)
    }

    #[test]
    fn quantized_marks_match_f32_on_untrained_network() {
        let (filter, events) = setup();
        let q = QuantizedFilter::quantize(&filter, &[&events[..8], &events[8..16]]).unwrap();
        // An untrained net has no sharp decision boundaries near most
        // inputs; exact agreement is not guaranteed, but the score vectors
        // must be close and well-formed.
        for w in events.chunks(8) {
            let qs = q.scores(w).unwrap();
            let fs = filter.scores(w).unwrap();
            assert_eq!(qs.len(), fs.len());
            for (a, b) in qs.iter().zip(&fs) {
                assert!((a - b).abs() < 0.05, "marginal drift {a} vs {b}");
                assert!((0.0..=1.0).contains(a), "marginal {a} out of range");
            }
        }
    }

    #[test]
    fn threshold_carries_over() {
        let (mut filter, events) = setup();
        filter.threshold = Some(0.3);
        let q = QuantizedFilter::quantize(&filter, &[&events[..8]]).unwrap();
        assert_eq!(q.threshold, Some(0.3));
        let marks = q.mark(&events[..8]);
        let scores = q.scores(&events[..8]).unwrap();
        for (m, s) in marks.iter().zip(&scores) {
            assert_eq!(*m, *s > 0.3);
        }
    }

    #[test]
    fn empty_window_and_empty_calibration() {
        let (filter, events) = setup();
        assert!(matches!(
            QuantizedFilter::quantize(&filter, &[]),
            Err(QuantizeError::Quant(QuantError::EmptyCalibration))
        ));
        let q = QuantizedFilter::quantize(&filter, &[&events[..4]]).unwrap();
        assert!(q.mark(&[]).is_empty());
        assert!(q.scores(&[]).unwrap().is_empty());
    }

    #[test]
    fn codec_roundtrip_preserves_marks() {
        let (filter, events) = setup();
        let q = QuantizedFilter::quantize(&filter, &[&events[..12]]).unwrap();
        let mut e = Encoder::new();
        e.put(&q);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        let back: QuantizedFilter = d.get().unwrap();
        d.finish().unwrap();
        assert_eq!(q, back);
        for w in events.chunks(6) {
            assert_eq!(q.mark(w), back.mark(w));
        }
    }

    #[test]
    fn filter_is_send_sync_and_reports_quantized() {
        fn assert_filter<F: Filter + Send + Sync>(f: &F) -> bool {
            f.quantized()
        }
        let (filter, events) = setup();
        let q = QuantizedFilter::quantize(&filter, &[&events[..8]]).unwrap();
        assert!(assert_filter(&q));
        assert!(!assert_filter(&filter));
        assert_eq!(q.name(), "event-network-int8");
    }

    #[test]
    fn mark_into_reuses_buffers() {
        let (filter, events) = setup();
        let q = QuantizedFilter::quantize(&filter, &[&events[..8]]).unwrap();
        let mut out = Vec::new();
        q.mark_into(&events[..8], &mut out); // warmup: arena + out grow
        let cap = out.capacity();
        let baseline = out.clone();
        for _ in 0..5 {
            q.mark_into(&events[..8], &mut out);
            assert_eq!(out, baseline);
            assert_eq!(out.capacity(), cap);
        }
    }
}
