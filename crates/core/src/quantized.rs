//! The quantized marking fast path: a drop-in [`Filter`] whose stacked
//! BiLSTM and emission layers run on the int8 kernels of
//! [`dlacep_nn::quant`].
//!
//! Architecture of the split:
//!
//! * **Encoder + emission layer** (≥ 99% of the marking FLOPs) run int8
//!   with per-channel weight scales and static activation scales, over
//!   `B` windows at a time stacked time-step-major. The emission layer
//!   multiplies the quantized rows the encoder's last cell update wrote;
//!   nothing is quantized twice.
//! * **BI-CRF head** stays in f32 (it is `O(T · L²)` with `L = 2`, and
//!   noise here would directly move the decode boundary) but not in the
//!   log domain. [`CrfHead`] computes the same posterior marginals as
//!   [`dlacep_nn::BiCrf`] by the *scaled* forward–backward recursion on
//!   probabilities: scores exponentiated once when the head is built
//!   (derived, never persisted), one `exp` per position on the clamped
//!   emission difference shared by both directions, `α̂` renormalised at
//!   every step, and a backward sweep that reuses those normalisers and
//!   produces each marginal as it passes instead of storing a trellis. The
//!   two directions run in lockstep: one loop takes both forward sweeps,
//!   one both backward sweeps. The derivation and its error bounds are in
//!   DESIGN.md, "Quantized inference"; the decode rule and its tie
//!   behaviour (ties mark) are `BiCrf::decode`'s.
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

/// Bound on the emission difference `e₁ − e₀` fed to `exp`. A position
/// whose difference is beyond it has a disfavoured-label marginal below
/// `exp(2Δ − 40)` with or without the clamp (`Δ` = spread of the transition
/// scores), so clamping moves no marginal by more than that — 4e-18 · e^2Δ —
/// while `exp(±40)` times a renormalised α̂ stays far inside f32 range.
const EMIT_DIFF_CLAMP: f32 = 40.0;

/// `exp(x − max x)`: potentials of one score group, the largest exactly 1
/// so none overflows (marginals are invariant to a common factor).
fn potentials<const N: usize>(scores: &[f32]) -> [f32; N] {
    let max = scores.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    std::array::from_fn(|i| (scores[i] - max).exp())
}

/// One directional CRF over 2 labels. The canonical, persisted form is the
/// trained log-domain scores (`trans` row-major 2×2, `start`/`end` length
/// 2); inference runs on their exponentials.
#[derive(Debug, Clone, PartialEq)]
struct CrfDir {
    trans: Vec<f32>,
    start: Vec<f32>,
    end: Vec<f32>,
    /// `exp` of the three fields above, derived; never serialized.
    pot_trans: [f32; 4],
    pot_start: [f32; 2],
    pot_end: [f32; 2],
}

impl CrfDir {
    fn extract(store: &ParamStore, crf: &Crf) -> Result<Self, QuantizeError> {
        if crf.num_labels != 2 {
            return Err(QuantizeError::UnsupportedLabels {
                got: crf.num_labels,
            });
        }
        let (trans, start, end) = crf.params();
        let scores = |id| store.value(id).as_slice().to_vec();
        Ok(Self::assemble(scores(trans), scores(start), scores(end))
            .expect("a 2-label CRF has 2×2 transitions and 2 start/end scores"))
    }

    /// Build from the canonical fields, deriving the potentials.
    fn assemble(trans: Vec<f32>, start: Vec<f32>, end: Vec<f32>) -> Result<Self, &'static str> {
        if trans.len() != 4 || start.len() != 2 || end.len() != 2 {
            return Err("CRF head parameter lengths");
        }
        Ok(Self {
            pot_trans: potentials(&trans),
            pot_start: potentials(&start),
            pot_end: potentials(&end),
            trans,
            start,
            end,
        })
    }

    /// `α̂` at the first position of this direction's chain, whose emission
    /// potentials are `(1, u)`, before renormalisation.
    #[inline(always)]
    fn alpha_start(&self, u: f32) -> [f32; 2] {
        [self.pot_start[0], self.pot_start[1] * u]
    }

    /// One step of the forward recursion onto a position with emission
    /// potentials `(1, u)`, before renormalisation.
    #[inline(always)]
    fn alpha_step(&self, [a0, a1]: [f32; 2], u: f32) -> [f32; 2] {
        let [t00, t01, t10, t11] = self.pot_trans;
        [a0 * t00 + a1 * t10, (a0 * t01 + a1 * t11) * u]
    }

    /// One step of the backward recursion from a position with emission
    /// potentials `(1, u)` whose forward normaliser's reciprocal is `r`.
    #[inline(always)]
    fn beta_step(&self, [b0, b1]: [f32; 2], u: f32, r: f32) -> [f32; 2] {
        let [t00, t01, t10, t11] = self.pot_trans;
        let (w0, w1) = (b0 * r, b1 * u * r);
        [t00 * w0 + t01 * w1, t10 * w0 + t11 * w1]
    }
}

/// `α̂` renormalised, and the reciprocal of its normaliser.
#[inline(always)]
fn renormalise([a0, a1]: [f32; 2]) -> [f32; 3] {
    let r = 1.0 / (a0 + a1);
    [a0 * r, a1 * r, r]
}

/// A position's two posterior marginals from its `α̂` cell and `β̂`.
#[inline(always)]
fn marginals(cell: &[f32], [b0, b1]: [f32; 2]) -> [f32; 2] {
    let (m0, m1) = (cell[0] * b0, cell[1] * b1);
    let sum = m0 + m1;
    [m0 / sum, m1 / sum]
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
        Self::assemble(d.get()?, d.get()?, d.get()?).map_err(|e| CodecError::Malformed(e.into()))
    }
}

/// The BI-CRF head of the quantized network: scaled probability-domain
/// 2-label forward–backward over both directions, allocation-free.
#[derive(Debug, Clone, PartialEq)]
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
    /// (`out` is overwritten), `scratch` holds `7 · t_len` values. The
    /// decode rule downstream — mark when `out[2r+1] >= out[2r]` — matches
    /// `BiCrf::decode`'s per-position argmax including its tie behaviour
    /// (ties go to label 1).
    ///
    /// Marginals depend on a position's two emissions only through their
    /// difference, so one `exp` per position serves both directions. A
    /// non-finite emission is a broken model, not a saturated one: it
    /// poisons its window's marginals with NaN for the guard to see.
    ///
    /// The two directions run in lockstep, so their serial chains overlap:
    /// one loop takes both forward sweeps (the forward direction's chain
    /// visits window step `k` at iteration `k`, the backward one's step
    /// `t_len − 1 − k`), each writing its trellis of renormalised `α̂` and
    /// normaliser reciprocals, three values per position; one loop then
    /// takes both backward sweeps. Applied to the `β` recursion the same
    /// normalisers keep `Σⱼ α̂(j)·β̂(j)` constant along the chain, so `β̂`
    /// needs neither a normaliser nor a trellis of its own: each sweep
    /// carries it in two variables and produces each marginal as it
    /// passes. The forward direction's marginals go straight into `out`;
    /// the backward one's wait in its trellis cells (each cell is read for
    /// the last time at that iteration) and are added after the loop, so
    /// every position still sums exactly its forward then its backward
    /// term onto zero.
    fn combined_marginals(
        &self,
        t_len: usize,
        batch: usize,
        em: &[f32],
        scratch: &mut [f32],
        out: &mut [f32],
    ) {
        let rows = t_len * batch;
        out[..2 * rows].fill(0.0);
        let (u, trellis) = scratch[..7 * t_len].split_at_mut(t_len);
        let (alpha_f, alpha_b) = trellis.split_at_mut(3 * t_len);
        let (fwd, bwd, last) = (&self.fwd, &self.bwd, t_len.saturating_sub(1));
        for b in 0..batch {
            for (t, u) in u.iter_mut().enumerate() {
                let e = &em[2 * (t * batch + b)..][..2];
                let d = e[1] - e[0];
                *u = if d.is_finite() {
                    d.clamp(-EMIT_DIFF_CLAMP, EMIT_DIFF_CLAMP).exp()
                } else {
                    f32::NAN
                };
            }
            let cells = alpha_f.chunks_exact_mut(3).zip(alpha_b.chunks_exact_mut(3));
            let (mut af, mut ab) = ([0.0; 2], [0.0; 2]);
            for (k, (cell_f, cell_b)) in cells.enumerate() {
                (af, ab) = if k == 0 {
                    (fwd.alpha_start(u[0]), bwd.alpha_start(u[last]))
                } else {
                    (fwd.alpha_step(af, u[k]), bwd.alpha_step(ab, u[last - k]))
                };
                let (nf, nb) = (renormalise(af), renormalise(ab));
                cell_f.copy_from_slice(&nf);
                cell_b.copy_from_slice(&nb);
                (af, ab) = ([nf[0], nf[1]], [nb[0], nb[1]]);
            }
            let out = &mut out[2 * b..2 * rows];
            let cells = alpha_f.chunks_exact(3).zip(alpha_b.chunks_exact_mut(3));
            let (mut bf, mut bb) = (fwd.pot_end, bwd.pot_end);
            for (k, (cell_f, cell_b)) in cells.enumerate().rev() {
                let (mf, mb) = (marginals(cell_f, bf), marginals(cell_b, bb));
                let o = 2 * batch * k;
                out[o] += mf[0];
                out[o + 1] += mf[1];
                bf = fwd.beta_step(bf, u[k], cell_f[2]);
                bb = bwd.beta_step(bb, u[last - k], cell_b[2]);
                cell_b[..2].copy_from_slice(&mb);
            }
            for (k, cell_b) in alpha_b.chunks_exact(3).enumerate() {
                let o = 2 * batch * (last - k);
                out[o] += cell_b[0];
                out[o + 1] += cell_b[1];
            }
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
/// layer, probability-domain f32 BI-CRF head.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedEventNetwork {
    input_dim: usize,
    encoder: QuantizedStackedBiLstm,
    emit: QuantizedLinear,
    crf: CrfHead,
}

impl QuantizedEventNetwork {
    /// Quantize a trained network, calibrating the input activation scale
    /// from `calibration` (embedded sample windows — typically a few dozen
    /// windows of the training stream). A window holding a NaN or infinite
    /// value is skipped. Fails on an empty calibration set, one with no
    /// finite window, non-finite weights, or a non-binary CRF head.
    pub fn quantize<'a, I>(network: &EventNetwork, calibration: I) -> Result<Self, QuantizeError>
    where
        I: IntoIterator<Item = &'a [Vec<f32>]>,
    {
        let (store, encoder, emit, crf) = network.parts();
        let mut skipped = 0usize;
        let finite = calibration.into_iter().filter(|w| {
            let finite = w.iter().flatten().all(|v| v.is_finite());
            skipped += usize::from(!finite);
            finite
        });
        let scale = calibrate_input_scale(finite.flat_map(|w| w.iter().map(Vec::as_slice)));
        let input_scale = match scale {
            Err(QuantError::EmptyCalibration) if skipped > 0 => Err(QuantError::NonFinite {
                what: "calibration sample",
            }),
            scale => scale,
        }?;
        Ok(Self::assemble(
            network.config.input_dim,
            QuantizedStackedBiLstm::quantize(store, encoder, input_scale)?,
            // The emission layer consumes tanh-bounded encoder outputs.
            QuantizedLinear::quantize(store, emit, UNIT_SCALE)?,
            CrfHead::extract(store, crf)?,
        )
        .expect("a trained network's layers chain"))
    }

    /// Build from the parts, checking that they chain: the emission layer
    /// multiplies the rows the encoder leaves quantized at [`UNIT_SCALE`],
    /// so it must have been quantized for that width and scale.
    fn assemble(
        input_dim: usize,
        encoder: QuantizedStackedBiLstm,
        emit: QuantizedLinear,
        crf: CrfHead,
    ) -> Result<Self, &'static str> {
        if encoder.num_layers() == 0 || encoder.input_dim() != input_dim {
            return Err("quantized network: encoder does not read the embedding width");
        }
        if emit.in_dim() != encoder.out_dim() || emit.in_scale() != UNIT_SCALE {
            return Err("quantized network: emission layer does not read the encoder's output");
        }
        if emit.out_dim() != 2 {
            return Err("quantized network: the head decodes exactly 2 labels");
        }
        Ok(Self {
            input_dim,
            encoder,
            emit,
            crf,
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
        self.emit.infer_quantized(rows, &arena.xq, &mut arena.emit);
        ensure(&mut arena.crf, t_len * 7);
        ensure(&mut arena.probs, rows * 2);
        self.crf
            .combined_marginals(t_len, batch, &arena.emit, &mut arena.crf, &mut arena.probs);
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
        Self::assemble(d.get()?, d.get()?, d.get()?, d.get()?)
            .map_err(|e| CodecError::Malformed(e.into()))
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
        self.network == other.network
            && self.embedder == other.embedder
            && self.threshold == other.threshold
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
    use dlacep_nn::{Initializer, Linear, Matrix};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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
    fn calibration_skips_non_finite_windows() {
        let (filter, mut events) = setup();
        let clean = QuantizedFilter::quantize(&filter, &[&events[8..16]]).unwrap();
        events[3].attrs[0] = f64::NAN;
        let skipped = QuantizedFilter::quantize(&filter, &[&events[..8], &events[8..16]]).unwrap();
        assert_eq!(skipped, clean, "the NaN window does not move the scale");
        assert!(matches!(
            QuantizedFilter::quantize(&filter, &[&events[..8]]),
            Err(QuantizeError::Quant(QuantError::NonFinite { .. }))
        ));
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

    /// A BI-CRF whose scores are uniform in `±spread`, and its extracted
    /// probability-domain head.
    fn random_head(rng: &mut StdRng, spread: f32) -> (ParamStore, BiCrf, CrfHead) {
        let mut store = ParamStore::new();
        let crf = BiCrf::new(&mut store, &mut Initializer::seeded(1), 2);
        let (fwd, bwd) = crf.directions();
        for dir in [fwd, bwd] {
            let (trans, start, end) = dir.params();
            for id in [trans, start, end] {
                for v in store.value_mut(id).as_mut_slice() {
                    *v = rng.gen_range(-spread..spread);
                }
            }
        }
        let head = CrfHead::extract(&store, &crf).unwrap();
        (store, crf, head)
    }

    /// The head's combined marginal sums for `batch` windows whose emission
    /// rows are `em(b, t)`, stacked time-step-major as marking stacks them.
    fn head_probs(
        head: &CrfHead,
        t_len: usize,
        batch: usize,
        em: impl Fn(usize, usize) -> [f32; 2],
    ) -> Vec<f32> {
        let mut stacked = vec![0.0; 2 * t_len * batch];
        for t in 0..t_len {
            for b in 0..batch {
                stacked[2 * (t * batch + b)..][..2].copy_from_slice(&em(b, t));
            }
        }
        let mut scratch = vec![0.0; 7 * t_len];
        let mut out = vec![f32::NAN; 2 * t_len * batch];
        head.combined_marginals(t_len, batch, &stacked, &mut scratch, &mut out);
        out
    }

    /// The BI-CRF's combined marginals by log-domain forward–backward in
    /// f64: what both f32 heads approximate.
    fn marginals_f64(store: &ParamStore, crf: &BiCrf, em: &Matrix) -> Vec<f64> {
        let t_len = em.rows();
        let lse = |a: f64, b: f64| a.max(b) + ((a - a.max(b)).exp() + (b - a.max(b)).exp()).ln();
        let mut out = vec![0.0; 2 * t_len];
        let (fwd, bwd) = crf.directions();
        for (dir, rev) in [(fwd, false), (bwd, true)] {
            let (trans, start, end) = dir.params();
            let p = |id, i: usize| f64::from(store.value(id).as_slice()[i]);
            let e = |k: usize, j: usize| f64::from(em.get(if rev { t_len - 1 - k } else { k }, j));
            let mut alpha = vec![[0.0; 2]; t_len];
            let mut beta = vec![[0.0; 2]; t_len];
            alpha[0] = [p(start, 0) + e(0, 0), p(start, 1) + e(0, 1)];
            for k in 1..t_len {
                for j in 0..2 {
                    alpha[k][j] = e(k, j)
                        + lse(
                            alpha[k - 1][0] + p(trans, j),
                            alpha[k - 1][1] + p(trans, 2 + j),
                        );
                }
            }
            beta[t_len - 1] = [p(end, 0), p(end, 1)];
            for k in (0..t_len - 1).rev() {
                for i in 0..2 {
                    beta[k][i] = lse(
                        p(trans, 2 * i) + e(k + 1, 0) + beta[k + 1][0],
                        p(trans, 2 * i + 1) + e(k + 1, 1) + beta[k + 1][1],
                    );
                }
            }
            let logz = lse(alpha[0][0] + beta[0][0], alpha[0][1] + beta[0][1]);
            for k in 0..t_len {
                let t = if rev { t_len - 1 - k } else { k };
                for j in 0..2 {
                    out[2 * t + j] += 0.5 * (alpha[k][j] + beta[k][j] - logz).exp();
                }
            }
        }
        out
    }

    #[test]
    fn head_equals_the_f32_bicrf_marginals() {
        let mut rng = StdRng::seed_from_u64(19);
        // T = 512 is the renormalisation's test: unscaled, α would leave
        // f32 range within a few dozen steps at these magnitudes. ±60
        // emissions differ by up to 120, where the clamp acts. The f64
        // recursion is the truth both heads approximate; the f32 `BiCrf`
        // is held to 1e-4 where its own log-domain sums stay small, and to
        // what they can carry where they do not (|α| reaches T · |e|: one
        // ulp is 1.2e-4 at 1,500 and 2e-3 at 30,000, over T steps).
        for (t_len, spread, emit, f32_tol) in [
            (1, 2.0, 3.0, 1e-4),
            (2, 2.0, 3.0, 1e-4),
            (32, 3.0, 6.0, 1e-4),
            (512, 2.0, 3.0, 1e-2),
            (32, 2.0, 60.0, 1e-3),
            (512, 1.0, 60.0, 1e-1),
        ] {
            for _ in 0..8 {
                let (store, crf, head) = random_head(&mut rng, spread);
                let em = Matrix::from_fn(t_len, 2, |_, _| rng.gen_range(-emit..emit));
                let want = crf.marginals(&store, &em);
                let truth = marginals_f64(&store, &crf, &em);
                let decoded = crf.decode(&store, &em);
                let got = head_probs(&head, t_len, 1, |_, t| [em.get(t, 0), em.get(t, 1)]);
                for t in 0..t_len {
                    let (p0, p1) = (0.5 * got[2 * t], 0.5 * got[2 * t + 1]);
                    for (p, l) in [(p0, 0), (p1, 1)] {
                        let (w, truth) = (want.get(t, l), truth[2 * t + l]);
                        assert!(
                            (f64::from(p) - truth).abs() < 1e-5,
                            "T={t_len} t={t} l={l}: {p} vs f64 {truth}"
                        );
                        assert!(
                            (p - w).abs() < f32_tol,
                            "T={t_len} t={t} l={l}: {p} vs f32 {w}"
                        );
                        assert!((0.0..=1.0).contains(&p), "marginal {p} out of range");
                    }
                    // Away from a coin flip the marks agree too.
                    if (p1 - p0).abs() > 1e-3 {
                        assert_eq!(usize::from(p1 >= p0), decoded[t], "T={t_len} t={t}");
                    }
                }
            }
        }
    }

    #[test]
    fn head_ties_go_to_label_one_like_the_f32_decode() {
        // Equal emissions under label-symmetric scores: both labels are
        // exactly as likely at every position, in both heads.
        let mut store = ParamStore::new();
        let crf = BiCrf::new(&mut store, &mut Initializer::seeded(1), 2);
        let (fwd, bwd) = crf.directions();
        for dir in [fwd, bwd] {
            let (trans, start, end) = dir.params();
            store
                .value_mut(trans)
                .as_mut_slice()
                .copy_from_slice(&[0.7, -0.3, -0.3, 0.7]);
            store.value_mut(start).map_inplace(|_| 0.25);
            store.value_mut(end).map_inplace(|_| -0.5);
        }
        let head = CrfHead::extract(&store, &crf).unwrap();
        let em = Matrix::from_fn(9, 2, |t, _| t as f32 * 0.4 - 1.0);
        let got = head_probs(&head, 9, 1, |_, t| [em.get(t, 0), em.get(t, 1)]);
        for pair in got.chunks_exact(2) {
            assert_eq!(pair[0], pair[1], "an exact tie");
        }
        assert_eq!(crf.decode(&store, &em), vec![1; 9]);
    }

    #[test]
    fn head_result_is_independent_of_batch_size_and_position() {
        let mut rng = StdRng::seed_from_u64(5);
        let (_, _, head) = random_head(&mut rng, 2.0);
        let t_len = 13;
        let windows: Vec<Vec<[f32; 2]>> = (0..7)
            .map(|_| {
                (0..t_len)
                    .map(|_| [rng.gen_range(-5.0..5.0), rng.gen_range(-5.0..5.0)])
                    .collect()
            })
            .collect();
        let alone: Vec<Vec<f32>> = windows
            .iter()
            .map(|w| head_probs(&head, t_len, 1, |_, t| w[t]))
            .collect();
        for batch in [2, 3, 7] {
            for shift in 0..batch {
                let got = head_probs(&head, t_len, batch, |b, t| windows[(b + shift) % 7][t]);
                for b in 0..batch {
                    let mine: Vec<f32> = window_probs(&got, t_len, batch, b).flatten().collect();
                    assert_eq!(mine, alone[(b + shift) % 7], "B={batch} slot={b}");
                }
            }
        }
    }

    #[test]
    fn non_finite_emissions_are_a_score_fault_not_a_panic() {
        use crate::guard::{FaultKind, FilterGuard, GuardConfig};
        let (filter, events) = setup();
        let healthy = QuantizedFilter::quantize(&filter, &[&events[..8]]).unwrap();
        for poison in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            // A model whose emission bias is not a number: every emission
            // of label 0 is, whatever the encoder produced.
            let mut store = ParamStore::new();
            let width = healthy.network.emit.in_dim();
            let layer = Linear::new(&mut store, &mut Initializer::seeded(3), width, 2);
            store.value_mut(layer.params().1).set(0, 0, poison);
            let mut broken = healthy.clone();
            broken.network.emit = QuantizedLinear::quantize(&store, &layer, UNIT_SCALE).unwrap();

            let scores = broken.scores(&events[..8]).unwrap();
            assert!(scores.iter().all(|s| s.is_nan()), "{poison}: {scores:?}");
            assert_eq!(broken.mark(&events[..8]).len(), 8);
            let mut guard = FilterGuard::new(
                broken,
                GuardConfig {
                    validate_scores: true,
                    ..GuardConfig::default()
                },
            );
            let outcome = guard.mark(&events[..8]);
            assert_eq!(outcome.fault, Some(FaultKind::NonFiniteScore));
            assert_eq!(outcome.marks, vec![true; 8], "a fault fails open");
        }
    }

    #[test]
    fn parts_that_do_not_chain_fail_to_decode() {
        let (filter, events) = setup();
        let q = QuantizedFilter::quantize(&filter, &[&events[..8]]).unwrap();
        let net = q.network();
        let mut store = ParamStore::new();
        let mut init = Initializer::seeded(3);
        let width = net.emit.in_dim();
        let rescaled = Linear::new(&mut store, &mut init, width, 2);
        let narrower = Linear::new(&mut store, &mut init, width - 2, 2);
        for (layer, in_scale) in [(rescaled, 0.5), (narrower, UNIT_SCALE)] {
            let emit = QuantizedLinear::quantize(&store, &layer, in_scale).unwrap();
            let mut e = Encoder::new();
            e.put(&net.input_dim);
            e.put(&net.encoder);
            e.put(&emit);
            e.put(&net.crf);
            let bytes = e.into_bytes();
            assert!(matches!(
                Decoder::new(&bytes).get::<QuantizedEventNetwork>(),
                Err(CodecError::Malformed(_))
            ));
        }
    }

    #[test]
    fn filters_differing_only_in_embedder_are_unequal() {
        let (filter, events) = setup();
        let q = QuantizedFilter::quantize(&filter, &[&events[..8]]).unwrap();
        // Same width, different slot assignment.
        let other = EventEmbedder::new(&TypeSet::new(vec![TypeId(0), TypeId(2)]), 1);
        assert_eq!(other.dim(), q.embedder().dim());
        let swapped = QuantizedFilter::from_parts(q.network().clone(), other, q.threshold);
        assert_eq!(q, q.clone());
        assert_ne!(q, swapped);
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
