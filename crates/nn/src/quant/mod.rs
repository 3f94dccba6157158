//! Post-training int8 quantization of the inference fast path.
//!
//! The marking stage is DLACEP's steady-state hot loop: every assembler
//! window pays a stacked-BiLSTM forward pass before the CEP engine sees a
//! single event. The paper runs this on a GPU; on CPU the classic
//! inference-stack answer is symmetric per-channel int8 post-training
//! quantization with integer kernels:
//!
//! * **Weights** are quantized per *output channel* (`scale_j =
//!   max|W[·,j]| / 127`), which keeps the quantization grid tight for every
//!   channel regardless of how the channel magnitudes vary.
//! * **Activations** use a single static scale per tensor: the stacked
//!   encoder's hidden states are `tanh`-bounded in (-1, 1) so their scale
//!   is exactly `1/127`, and only the layer-0 input scale needs
//!   calibration from sample windows (see
//!   [`calibrate_input_scale`]).
//! * **One batched kernel**: `B` windows of equal length are stacked
//!   time-step-major, so every LSTM step is one `[B × k]·[k × 4H]` integer
//!   GEMM followed by one fused, vectorised cell update (see
//!   [`kernel`](self)). A single window is the `B = 1` call of the same
//!   code, and a window's output does not depend on `B` or on its position
//!   in the batch: rows never mix.
//! * **Quantized once, where produced**: the cell update writes a step's
//!   hidden state straight into the layer's output rows, as f32 and as the
//!   int8-range values the next GEMM reads — the recurrence's, the next
//!   layer's and the emission layer's. Only the layer-0 input is quantized
//!   from f32 rows.
//! * **No allocation in steady state**: every intermediate lives in a
//!   [`ScratchArena`] that grows to the high-water mark of the batches it
//!   has seen and is then reused verbatim.
//!
//! Quantized layers serialize through both `serde` (model bundles) and the
//! `dlacep-dur` binary codec (checkpoint-grade round-trips): the canonical
//! form is the `i8` tensor plus per-channel scales; the packed inference
//! layout is derived data, rebuilt on load.

mod kernel;

use crate::linear::Linear;
use crate::lstm::{BiLstmLayer, LstmLayer, StackedBiLstm};
use crate::matrix::{Matrix, ShapeError};
use crate::params::ParamStore;
use dlacep_dur::{CodecError, Dec, Decoder, Enc, Encoder};
use kernel::{lstm_cells, pad_to, qgemm, quantize_row, LayerOut, PackedWeights, SimdLevel, CH_PAD};
use serde::{DeError, Deserialize, Serialize, Value};

/// The integer-kernel instantiation this process dispatches to, detected
/// once from the CPU: `"avx2"`, `"sse2"` or `"scalar"`. All three produce
/// identical bytes; the name is for operators and benchmark headers.
pub fn simd_level() -> &'static str {
    kernel::simd_level().name()
}

/// For the `nn_kernels` report only: mean nanoseconds of one fused LSTM
/// cell update over `rows × hidden` units, `steps` updates on synthetic
/// pre-activations, at every kernel level this CPU has (`"scalar"` and
/// `"sse2"` share the cell's baseline instantiation).
#[doc(hidden)]
pub fn time_cell_update(rows: usize, hidden: usize, steps: usize) -> Vec<(&'static str, f64)> {
    let hp = pad_to(hidden, CH_PAD);
    let z: Vec<f32> = (0..rows * 4 * hp)
        .map(|i| (i as f32 * 0.37).sin() * 3.0)
        .collect();
    let (mut c, mut hq) = (vec![0.0; rows * hp], vec![0; rows * hp]);
    let (mut f32s, mut q) = (vec![0.0; rows * hidden], vec![0; rows * hidden]);
    SimdLevel::available()
        .iter()
        .map(|&level| {
            let start = std::time::Instant::now();
            for _ in 0..steps {
                let out = LayerOut {
                    f32s: &mut f32s,
                    q: &mut q,
                    stride: hidden,
                };
                let z = std::hint::black_box(&z);
                lstm_cells(level, rows, hidden, z, &mut c, &mut hq, out);
                std::hint::black_box(&mut hq);
            }
            let nanos = start.elapsed().as_nanos() as f64 / steps.max(1) as f64;
            (level.name(), nanos)
        })
        .collect()
}

/// Scale of a tanh-bounded activation tensor: hidden states live in
/// (-1, 1), so ±127 maps exactly onto the open unit interval.
pub const UNIT_SCALE: f32 = 1.0 / 127.0;

/// Errors surfaced while quantizing a model.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum QuantError {
    /// An operand had an impossible shape (e.g. malformed calibration
    /// windows); carries the structured kernel error instead of panicking.
    Shape(ShapeError),
    /// Calibration needs at least one sample row.
    EmptyCalibration,
    /// A weight or calibration value was NaN/infinite; a scale derived
    /// from it would poison every inference.
    NonFinite {
        /// Which tensor carried the non-finite value.
        what: &'static str,
    },
}

impl std::fmt::Display for QuantError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QuantError::Shape(e) => write!(f, "quantization shape error: {e}"),
            QuantError::EmptyCalibration => {
                write!(f, "activation calibration needs at least one sample row")
            }
            QuantError::NonFinite { what } => {
                write!(f, "non-finite value in {what}; cannot derive a scale")
            }
        }
    }
}

impl std::error::Error for QuantError {}

impl From<ShapeError> for QuantError {
    fn from(e: ShapeError) -> Self {
        QuantError::Shape(e)
    }
}

/// Grow-only buffer resize: steady state never reallocates because the
/// arena converges to the high-water mark of every dimension it has seen.
pub fn ensure<T: Copy + Default>(buf: &mut Vec<T>, len: usize) {
    if buf.len() < len {
        buf.resize(len, T::default());
    }
}

/// Preallocated scratch buffers for one quantized forward pass.
///
/// All fields are plain buffers with unspecified contents between calls;
/// callers borrow the fields they need (disjoint field borrows keep the
/// whole pass allocation-free). One arena serves one inference at a time —
/// concurrent marking uses an arena pool (one arena per in-flight batch).
/// Row-shaped buffers are time-step-major over a batch of `B` windows: row
/// `t · B + b` belongs to step `t` of window `b`.
#[derive(Debug, Default)]
pub struct ScratchArena {
    /// Quantized activation rows (`T·B × k_pad`): the current layer's
    /// input, and after the pass the encoder's output at [`UNIT_SCALE`].
    pub xq: Vec<i16>,
    /// The layer being computed writes its quantized output rows here;
    /// swapped with `xq` when the layer is done.
    pub xq_b: Vec<i16>,
    /// Quantized hidden state of the current step, the recurrent GEMM's
    /// operand (`B × H_pad`, padding zero).
    pub hq: Vec<i16>,
    /// Layer input/output ping-pong buffers (`T·B × width`): the caller
    /// loads `io_a`, the cell update writes each step's hidden state
    /// straight into its rows of `io_b`, and the two swap per layer.
    pub io_a: Vec<f32>,
    /// Second half of the ping-pong pair.
    pub io_b: Vec<f32>,
    /// Gate pre-activations of one direction (`T·B × 4·H_pad`): filled by
    /// the input GEMM, accumulated into by the recurrent one.
    pub gates: Vec<f32>,
    /// LSTM cell state (`B × H_pad`).
    pub c: Vec<f32>,
    /// Emission scores (`T·B × L`).
    pub emit: Vec<f32>,
    /// Per-position combined label marginals (`T·B × L`).
    pub probs: Vec<f32>,
    /// CRF head scratch of one window (`T × 4`): the emission potentials,
    /// then the forward trellis with its per-step normalisers. The backward
    /// sweep keeps its state in registers.
    pub crf: Vec<f32>,
}

impl ScratchArena {
    /// Fresh, empty arena; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Derive a static activation scale from calibration rows: `max|x| / 127`,
/// floored so an all-zero calibration set still yields a usable scale.
pub fn calibrate_input_scale<'a, I>(rows: I) -> Result<f32, QuantError>
where
    I: IntoIterator<Item = &'a [f32]>,
{
    let mut max_abs = 0.0_f32;
    let mut seen = false;
    for row in rows {
        seen = true;
        for &v in row {
            if !v.is_finite() {
                return Err(QuantError::NonFinite {
                    what: "calibration sample",
                });
            }
            max_abs = max_abs.max(v.abs());
        }
    }
    if !seen {
        return Err(QuantError::EmptyCalibration);
    }
    Ok(max_abs.max(1e-6) / 127.0)
}

// ---------------------------------------------------------------------------
// QuantizedMatrix
// ---------------------------------------------------------------------------

/// A weight matrix quantized symmetrically per output channel.
///
/// Storage is transposed relative to the f32 layer layout: row `j` holds
/// output channel `j`'s weights as `i8`, with `scales[j]` recovering the
/// float value (`w ≈ q · scale`). This is the canonical, serialized form;
/// the layers that own a matrix derive the kernel's packed layout from it.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedMatrix {
    out_dim: usize,
    in_dim: usize,
    data: Vec<i8>,
    scales: Vec<f32>,
}

impl QuantizedMatrix {
    /// Quantize `w` (layer layout: `in_dim × out_dim`, one column per
    /// output channel) with per-channel max-abs scales.
    pub fn from_weights(w: &Matrix) -> Result<Self, QuantError> {
        let (in_dim, out_dim) = w.shape();
        let mut data = vec![0_i8; out_dim * in_dim];
        let mut scales = vec![0.0_f32; out_dim];
        for j in 0..out_dim {
            let mut max_abs = 0.0_f32;
            for k in 0..in_dim {
                let v = w.try_get(k, j)?;
                if !v.is_finite() {
                    return Err(QuantError::NonFinite { what: "weights" });
                }
                max_abs = max_abs.max(v.abs());
            }
            // An all-zero channel quantizes to zeros under any scale; 1.0
            // avoids a 0/0 in the reverse mapping.
            let scale = if max_abs == 0.0 { 1.0 } else { max_abs / 127.0 };
            scales[j] = scale;
            let inv = 1.0 / scale;
            for k in 0..in_dim {
                data[j * in_dim + k] = (w.try_get(k, j)? * inv).round().clamp(-127.0, 127.0) as i8;
            }
        }
        Ok(Self {
            out_dim,
            in_dim,
            data,
            scales,
        })
    }

    /// Number of output channels.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Input width.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Per-output-channel scales.
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// Pack for the kernels: activation rows of `k_pad` values arrive at
    /// `act_scale`, output channels are laid out in blocks of `block`
    /// padded to `block_pad` (see [`PackedWeights::pack`]).
    fn pack(
        &self,
        k_pad: usize,
        act_scale: f32,
        bias: Option<&[f32]>,
        block: usize,
        block_pad: usize,
    ) -> PackedWeights {
        PackedWeights::pack(
            &self.data,
            self.in_dim,
            k_pad,
            &self.scales,
            act_scale,
            bias,
            block,
            block_pad,
        )
    }

    /// Reconstruct the float weights (layer layout `in_dim × out_dim`).
    /// Per-channel round-trip error is bounded by `scale_j / 2` per
    /// element.
    pub fn dequantize(&self) -> Matrix {
        Matrix::from_fn(self.in_dim, self.out_dim, |k, j| {
            f32::from(self.data[j * self.in_dim + k]) * self.scales[j]
        })
    }
}

impl Serialize for QuantizedMatrix {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("out_dim".into(), self.out_dim.to_value()),
            ("in_dim".into(), self.in_dim.to_value()),
            ("data".into(), self.data.to_value()),
            ("scales".into(), self.scales.to_value()),
        ])
    }
}

impl Deserialize for QuantizedMatrix {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let m = v
            .as_map()
            .ok_or_else(|| DeError::new("QuantizedMatrix: expected map"))?;
        let out_dim: usize = serde::field(m, "out_dim")?;
        let in_dim: usize = serde::field(m, "in_dim")?;
        let data: Vec<i8> = serde::field(m, "data")?;
        let scales: Vec<f32> = serde::field(m, "scales")?;
        if out_dim.checked_mul(in_dim) != Some(data.len()) || scales.len() != out_dim {
            return Err(DeError::new("QuantizedMatrix: shape/data mismatch"));
        }
        Ok(Self {
            out_dim,
            in_dim,
            data,
            scales,
        })
    }
}

impl Enc for QuantizedMatrix {
    fn enc(&self, e: &mut Encoder) {
        e.put(&self.out_dim);
        e.put(&self.in_dim);
        for &b in &self.data {
            e.put_u8(b as u8);
        }
        e.put(&self.scales);
    }
}

impl Dec for QuantizedMatrix {
    fn dec(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let out_dim: usize = d.get()?;
        let in_dim: usize = d.get()?;
        let n = out_dim
            .checked_mul(in_dim)
            .ok_or_else(|| CodecError::Malformed("quantized matrix shape overflow".into()))?;
        let data: Vec<i8> = d.take_bytes(n)?.iter().map(|&b| b as i8).collect();
        let scales: Vec<f32> = d.get()?;
        if scales.len() != out_dim {
            return Err(CodecError::Malformed(
                "quantized matrix scale count mismatch".into(),
            ));
        }
        Ok(Self {
            out_dim,
            in_dim,
            data,
            scales,
        })
    }
}

// ---------------------------------------------------------------------------
// QuantizedLinear
// ---------------------------------------------------------------------------

/// Quantize `input` (`rows × width`, row-major) at `1 / inv_scale` into
/// `xq` (`rows × k_pad`, padding zeroed), growing `xq` as needed.
fn quantize_rows(
    input: &[f32],
    rows: usize,
    width: usize,
    inv_scale: f32,
    k_pad: usize,
    xq: &mut Vec<i16>,
) {
    ensure(xq, rows * k_pad);
    if width == 0 {
        xq[..rows * k_pad].fill(0);
        return;
    }
    for (src, dst) in input[..rows * width]
        .chunks_exact(width)
        .zip(xq.chunks_exact_mut(k_pad))
    {
        quantize_row(src, inv_scale, dst);
    }
}

/// A dense layer with int8 weights and a static input scale.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedLinear {
    w: QuantizedMatrix,
    bias: Vec<f32>,
    in_scale: f32,
    /// Derived from the three fields above; never serialized.
    packed: PackedWeights,
}

impl QuantizedLinear {
    /// Quantize a trained [`Linear`]; `in_scale` is the static scale of the
    /// activations this layer will see.
    pub fn quantize(store: &ParamStore, layer: &Linear, in_scale: f32) -> Result<Self, QuantError> {
        let (w_id, b_id) = layer.params();
        let w = QuantizedMatrix::from_weights(store.value(w_id))?;
        let bias = store.value(b_id).as_slice().to_vec();
        Ok(Self::assemble(w, bias, in_scale).expect("a trained layer's bias matches its weights"))
    }

    /// Build from the canonical fields, deriving the packed layout; fails
    /// when the bias does not match the output width.
    fn assemble(w: QuantizedMatrix, bias: Vec<f32>, in_scale: f32) -> Result<Self, &'static str> {
        if bias.len() != w.out_dim() {
            return Err("quantized linear: bias length does not match output width");
        }
        let n = w.out_dim().max(1);
        let packed = w.pack(pad_to(w.in_dim(), 2), in_scale, Some(&bias), n, n);
        Ok(Self {
            w,
            bias,
            in_scale,
            packed,
        })
    }

    /// Input width.
    pub fn in_dim(&self) -> usize {
        self.w.in_dim()
    }

    /// Output width.
    pub fn out_dim(&self) -> usize {
        self.w.out_dim()
    }

    /// The static scale this layer's input rows are quantized at.
    pub fn in_scale(&self) -> f32 {
        self.in_scale
    }

    /// The int8 weight matrix (per-channel scales included).
    pub fn weights(&self) -> &QuantizedMatrix {
        &self.w
    }

    /// `x · W + b` over `t_len` rows read from `input` (`t_len × in_dim`),
    /// written to `out` (`t_len × out_dim`). `xq` is quantization scratch.
    pub fn infer_into(&self, t_len: usize, input: &[f32], xq: &mut Vec<i16>, out: &mut Vec<f32>) {
        self.infer_at(kernel::simd_level(), t_len, input, xq, out);
    }

    /// [`QuantizedLinear::infer_into`] for rows that are already quantized
    /// at this layer's input scale (`rows × in_dim`, `in_dim` even): the
    /// encoder leaves such rows in [`ScratchArena::xq`].
    pub fn infer_quantized(&self, rows: usize, xq: &[i16], out: &mut Vec<f32>) {
        assert_eq!(self.packed.k_pad(), self.in_dim(), "unpadded input rows");
        ensure(out, rows * self.packed.n());
        qgemm(kernel::simd_level(), rows, xq, &self.packed, false, out);
    }

    fn infer_at(
        &self,
        level: SimdLevel,
        rows: usize,
        input: &[f32],
        xq: &mut Vec<i16>,
        out: &mut Vec<f32>,
    ) {
        let k_pad = self.packed.k_pad();
        quantize_rows(input, rows, self.in_dim(), 1.0 / self.in_scale, k_pad, xq);
        ensure(out, rows * self.packed.n());
        qgemm(level, rows, xq, &self.packed, false, out);
    }
}

impl Serialize for QuantizedLinear {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("w".into(), self.w.to_value()),
            ("bias".into(), self.bias.to_value()),
            ("in_scale".into(), self.in_scale.to_value()),
        ])
    }
}

impl Deserialize for QuantizedLinear {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let m = v
            .as_map()
            .ok_or_else(|| DeError::new("QuantizedLinear: expected map"))?;
        Self::assemble(
            serde::field(m, "w")?,
            serde::field(m, "bias")?,
            serde::field(m, "in_scale")?,
        )
        .map_err(DeError::new)
    }
}

impl Enc for QuantizedLinear {
    fn enc(&self, e: &mut Encoder) {
        e.put(&self.w);
        e.put(&self.bias);
        e.put(&self.in_scale);
    }
}

impl Dec for QuantizedLinear {
    fn dec(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Self::assemble(d.get()?, d.get()?, d.get()?).map_err(|e| CodecError::Malformed(e.into()))
    }
}

// ---------------------------------------------------------------------------
// Quantized LSTM stack
// ---------------------------------------------------------------------------

/// One LSTM direction with int8 `Wx`/`Wh` (canonical form).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuantizedLstmLayer {
    input_dim: usize,
    hidden: usize,
    wx: QuantizedMatrix,
    wh: QuantizedMatrix,
    bias: Vec<f32>,
}

impl QuantizedLstmLayer {
    /// Quantize a trained [`LstmLayer`].
    pub fn quantize(store: &ParamStore, layer: &LstmLayer) -> Result<Self, QuantError> {
        let (wx_id, wh_id, b_id) = layer.params();
        Ok(Self {
            input_dim: layer.input_dim,
            hidden: layer.hidden,
            wx: QuantizedMatrix::from_weights(store.value(wx_id))?,
            wh: QuantizedMatrix::from_weights(store.value(wh_id))?,
            bias: store.value(b_id).as_slice().to_vec(),
        })
    }

    /// Hidden width.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// Pack both matrices with the four gate blocks padded to whole
    /// vectors; the bias rides in `Wx`'s epilogue. Fails on shapes that do
    /// not describe an LSTM direction reading `x_scale`-quantized rows of
    /// `input_dim` values.
    fn pack(&self, x_scale: f32) -> Result<PackedDir, &'static str> {
        let (hid, gates) = (self.hidden, 4 * self.hidden);
        let shaped = hid > 0
            && self.bias.len() == gates
            && (self.wx.out_dim(), self.wx.in_dim()) == (gates, self.input_dim)
            && (self.wh.out_dim(), self.wh.in_dim()) == (gates, hid);
        if !shaped {
            return Err("quantized LSTM layer: inconsistent weight shapes");
        }
        let hp = pad_to(hid, CH_PAD);
        Ok(PackedDir {
            wx: self.wx.pack(
                pad_to(self.input_dim, 2),
                x_scale,
                Some(&self.bias),
                hid,
                hp,
            ),
            // h is tanh-bounded: static 1/127 scale, no calibration. Its
            // quantized rows are `hp` wide, padding included.
            wh: self.wh.pack(hp, UNIT_SCALE, None, hid, hp),
        })
    }
}

impl Enc for QuantizedLstmLayer {
    fn enc(&self, e: &mut Encoder) {
        e.put(&self.input_dim);
        e.put(&self.hidden);
        e.put(&self.wx);
        e.put(&self.wh);
        e.put(&self.bias);
    }
}

impl Dec for QuantizedLstmLayer {
    fn dec(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(Self {
            input_dim: d.get()?,
            hidden: d.get()?,
            wx: d.get()?,
            wh: d.get()?,
            bias: d.get()?,
        })
    }
}

/// Both directions of one BiLSTM layer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuantizedBiLstmLayer {
    fwd: QuantizedLstmLayer,
    bwd: QuantizedLstmLayer,
}

impl QuantizedBiLstmLayer {
    /// Quantize a trained [`BiLstmLayer`].
    pub fn quantize(store: &ParamStore, layer: &BiLstmLayer) -> Result<Self, QuantError> {
        Ok(Self {
            fwd: QuantizedLstmLayer::quantize(store, &layer.fwd)?,
            bwd: QuantizedLstmLayer::quantize(store, &layer.bwd)?,
        })
    }

    /// Input width.
    pub fn input_dim(&self) -> usize {
        self.fwd.input_dim
    }

    /// Output width (`2 × hidden`).
    pub fn out_dim(&self) -> usize {
        2 * self.fwd.hidden
    }
}

impl Enc for QuantizedBiLstmLayer {
    fn enc(&self, e: &mut Encoder) {
        e.put(&self.fwd);
        e.put(&self.bwd);
    }
}

impl Dec for QuantizedBiLstmLayer {
    fn dec(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(Self {
            fwd: d.get()?,
            bwd: d.get()?,
        })
    }
}

/// One direction's matrices in the kernel's layout.
#[derive(Debug, Clone, PartialEq)]
struct PackedDir {
    wx: PackedWeights,
    wh: PackedWeights,
}

/// The quantized stacked-BiLSTM encoder: the int8 counterpart of
/// [`StackedBiLstm::infer`].
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedStackedBiLstm {
    layers: Vec<QuantizedBiLstmLayer>,
    input_scale: f32,
    /// `[fwd, bwd]` per layer, derived from the two fields above; never
    /// serialized.
    packed: Vec<[PackedDir; 2]>,
}

impl QuantizedStackedBiLstm {
    /// Quantize a trained stack. `input_scale` is the calibrated static
    /// scale of the layer-0 inputs (see [`calibrate_input_scale`]); every
    /// deeper layer consumes tanh-bounded activations at [`UNIT_SCALE`].
    pub fn quantize(
        store: &ParamStore,
        stack: &StackedBiLstm,
        input_scale: f32,
    ) -> Result<Self, QuantError> {
        let layers = stack
            .layers()
            .iter()
            .map(|l| QuantizedBiLstmLayer::quantize(store, l))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self::assemble(layers, input_scale).expect("a trained stack's shapes are consistent"))
    }

    /// Build from the canonical fields, deriving the packed layout; fails
    /// when the layers do not chain (each consumes the previous one's
    /// `2 × hidden` outputs) or a layer's own shapes disagree.
    fn assemble(layers: Vec<QuantizedBiLstmLayer>, input_scale: f32) -> Result<Self, &'static str> {
        let mut packed = Vec::with_capacity(layers.len());
        let mut x_scale = input_scale;
        let mut width = layers.first().map_or(0, |l| l.input_dim());
        for layer in &layers {
            if layer.input_dim() != width
                || layer.bwd.input_dim != width
                || layer.bwd.hidden != layer.fwd.hidden
            {
                return Err("quantized BiLSTM stack: layer widths do not chain");
            }
            packed.push([layer.fwd.pack(x_scale)?, layer.bwd.pack(x_scale)?]);
            width = layer.out_dim();
            x_scale = UNIT_SCALE;
        }
        Ok(Self {
            layers,
            input_scale,
            packed,
        })
    }

    /// Input width of the first layer.
    pub fn input_dim(&self) -> usize {
        self.layers.first().map_or(0, |l| l.input_dim())
    }

    /// Output width per timestep (`2 × hidden`).
    pub fn out_dim(&self) -> usize {
        self.layers.last().map_or(0, |l| l.out_dim())
    }

    /// Number of stacked layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// The calibrated layer-0 input scale.
    pub fn input_scale(&self) -> f32 {
        self.input_scale
    }

    /// Run the stack over one window in place: input is read from
    /// `arena.io_a` (`t_len × input_dim`, row-major) and the final
    /// activations are left in `arena.io_a` (`t_len × out_dim`). This is
    /// the `batch = 1` call of [`QuantizedStackedBiLstm::infer_batch`].
    pub fn infer_in_place(&self, t_len: usize, arena: &mut ScratchArena) {
        self.infer_batch(t_len, 1, arena);
    }

    /// Run the stack over `batch` windows of `t_len` steps each, stacked
    /// time-step-major: row `t · batch + b` of `arena.io_a` holds step `t`
    /// of window `b` (`input_dim` values on entry, `out_dim` on return).
    /// The same rows quantized at [`UNIT_SCALE`] — what the recurrence
    /// itself consumed — are left in `arena.xq`, ready for
    /// [`QuantizedLinear::infer_quantized`]. Allocation-free once the arena
    /// has grown to this shape.
    pub fn infer_batch(&self, t_len: usize, batch: usize, arena: &mut ScratchArena) {
        self.infer_batch_at(kernel::simd_level(), t_len, batch, arena);
    }

    fn infer_batch_at(
        &self,
        level: SimdLevel,
        t_len: usize,
        batch: usize,
        arena: &mut ScratchArena,
    ) {
        let rows = t_len * batch;
        let Some([first, _]) = self.packed.first() else {
            return;
        };
        if rows == 0 {
            return;
        }
        // Layer 0 quantizes its f32 input at the calibrated scale; every
        // later consumer reads the rows the cell update left in `xq`.
        let (w_in, inv_scale) = (self.input_dim(), 1.0 / self.input_scale);
        let k_in = first.wx.k_pad();
        quantize_rows(&arena.io_a, rows, w_in, inv_scale, k_in, &mut arena.xq);
        for (layer, dirs) in self.layers.iter().zip(&self.packed) {
            let (w_out, hid) = (layer.out_dim(), layer.fwd.hidden);
            let hp = pad_to(hid, CH_PAD);
            let gate_w = 4 * hp;
            ensure(&mut arena.io_b, rows * w_out);
            ensure(&mut arena.xq_b, rows * w_out);
            ensure(&mut arena.gates, rows * gate_w);
            ensure(&mut arena.hq, batch * hp);
            ensure(&mut arena.c, batch * hp);
            for (dir, reverse) in dirs.iter().zip([false, true]) {
                // One GEMM computes x·Wx + b for every step of every window.
                qgemm(level, rows, &arena.xq, &dir.wx, false, &mut arena.gates);
                arena.c[..batch * hp].fill(0.0);
                let col = if reverse { hid } else { 0 };
                for step in 0..t_len {
                    let t = if reverse { t_len - 1 - step } else { step };
                    let z = &mut arena.gates[t * batch * gate_w..(t + 1) * batch * gate_w];
                    if step > 0 {
                        qgemm(level, batch, &arena.hq, &dir.wh, true, z);
                    }
                    let step_rows = t * batch * w_out + col..(t + 1) * batch * w_out;
                    let out = LayerOut {
                        f32s: &mut arena.io_b[step_rows.clone()],
                        q: &mut arena.xq_b[step_rows],
                        stride: w_out,
                    };
                    lstm_cells(level, batch, hid, z, &mut arena.c, &mut arena.hq, out);
                }
            }
            std::mem::swap(&mut arena.io_a, &mut arena.io_b);
            std::mem::swap(&mut arena.xq, &mut arena.xq_b);
        }
    }
}

impl Serialize for QuantizedStackedBiLstm {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("layers".into(), self.layers.to_value()),
            ("input_scale".into(), self.input_scale.to_value()),
        ])
    }
}

impl Deserialize for QuantizedStackedBiLstm {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let m = v
            .as_map()
            .ok_or_else(|| DeError::new("QuantizedStackedBiLstm: expected map"))?;
        Self::assemble(serde::field(m, "layers")?, serde::field(m, "input_scale")?)
            .map_err(DeError::new)
    }
}

impl Enc for QuantizedStackedBiLstm {
    fn enc(&self, e: &mut Encoder) {
        e.put(&self.layers);
        e.put(&self.input_scale);
    }
}

impl Dec for QuantizedStackedBiLstm {
    fn dec(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Self::assemble(d.get()?, d.get()?).map_err(|e| CodecError::Malformed(e.into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::Initializer;

    fn sample_matrix(rows: usize, cols: usize, seed: usize) -> Matrix {
        Matrix::from_fn(rows, cols, |r, c| {
            ((r * 31 + c * 7 + seed) as f32 * 0.137).sin() * (1.0 + c as f32 * 0.01)
        })
    }

    #[test]
    fn roundtrip_error_bounded_per_channel() {
        let w = sample_matrix(23, 17, 3);
        let q = QuantizedMatrix::from_weights(&w).unwrap();
        let back = q.dequantize();
        for j in 0..17 {
            // Symmetric rounding: error is at most half a quantization step.
            let bound = q.scales()[j] * 0.5 + 1e-7;
            for k in 0..23 {
                let err = (w.get(k, j) - back.get(k, j)).abs();
                assert!(err <= bound, "channel {j} row {k}: {err} > {bound}");
            }
        }
    }

    #[test]
    fn zero_channel_quantizes_cleanly() {
        let mut w = sample_matrix(5, 3, 0);
        for k in 0..5 {
            w.set(k, 1, 0.0);
        }
        let q = QuantizedMatrix::from_weights(&w).unwrap();
        let back = q.dequantize();
        for k in 0..5 {
            assert_eq!(back.get(k, 1), 0.0);
        }
    }

    #[test]
    fn non_finite_weights_rejected() {
        let mut w = sample_matrix(4, 4, 0);
        w.set(2, 2, f32::NAN);
        assert!(matches!(
            QuantizedMatrix::from_weights(&w),
            Err(QuantError::NonFinite { .. })
        ));
    }

    #[test]
    fn calibration_scale() {
        let rows: Vec<Vec<f32>> = vec![vec![0.5, -2.0], vec![1.0, 0.0]];
        let s = calibrate_input_scale(rows.iter().map(|r| r.as_slice())).unwrap();
        assert!((s - 2.0 / 127.0).abs() < 1e-9);
        assert!(matches!(
            calibrate_input_scale(std::iter::empty()),
            Err(QuantError::EmptyCalibration)
        ));
        let bad = [f32::INFINITY];
        assert!(matches!(
            calibrate_input_scale([&bad[..]]),
            Err(QuantError::NonFinite { .. })
        ));
    }

    #[test]
    fn quantized_linear_tracks_f32() {
        let mut store = ParamStore::new();
        let mut init = Initializer::seeded(7);
        let lin = Linear::new(&mut store, &mut init, 12, 5);
        let x = sample_matrix(6, 12, 11).map(|v| v * 0.8);
        let scale = calibrate_input_scale([x.as_slice()]).unwrap();
        let q = QuantizedLinear::quantize(&store, &lin, scale).unwrap();
        let f32_out = lin.infer(&store, &x);
        let mut xq = Vec::new();
        let mut out = Vec::new();
        q.infer_into(6, x.as_slice(), &mut xq, &mut out);
        for (i, (&a, &b)) in f32_out.as_slice().iter().zip(&out).enumerate() {
            assert!((a - b).abs() < 0.05, "elem {i}: {a} vs {b}");
        }
    }

    #[test]
    fn quantized_stack_tracks_f32_infer() {
        let mut store = ParamStore::new();
        let mut init = Initializer::seeded(17);
        let stack = StackedBiLstm::new(&mut store, &mut init, 3, 5, 2);
        let data: Vec<Vec<f32>> = (0..9)
            .map(|t| (0..3).map(|d| ((t * 3 + d) as f32 * 0.31).sin()).collect())
            .collect();
        let mut xs = Matrix::zeros(9, 3);
        for (t, row) in data.iter().enumerate() {
            xs.row_mut(t).copy_from_slice(row);
        }
        let reference = stack.infer(&store, &xs);

        let scale = calibrate_input_scale(data.iter().map(|r| r.as_slice())).unwrap();
        let q = QuantizedStackedBiLstm::quantize(&store, &stack, scale).unwrap();
        assert_eq!(q.out_dim(), 10);
        let mut arena = ScratchArena::new();
        ensure(&mut arena.io_a, 9 * 3);
        arena.io_a[..9 * 3].copy_from_slice(xs.as_slice());
        q.infer_in_place(9, &mut arena);
        let mut max_err = 0.0_f32;
        for (i, &want) in reference.as_slice().iter().enumerate() {
            max_err = max_err.max((arena.io_a[i] - want).abs());
        }
        assert!(max_err < 0.06, "max hidden-state error {max_err}");
    }

    /// A seeded stack and `batch` windows of deterministic inputs, loaded
    /// time-step-major the way [`QuantizedStackedBiLstm::infer_batch`]
    /// reads them. `window(b)` picks which window fills batch slot `b`.
    fn stack_and_input(
        (input_dim, hidden, layers): (usize, usize, usize),
        t_len: usize,
        batch: usize,
        window: impl Fn(usize) -> usize,
    ) -> (QuantizedStackedBiLstm, Vec<f32>) {
        let mut store = ParamStore::new();
        let mut init = Initializer::seeded((input_dim * 31 + hidden) as u64);
        let stack = StackedBiLstm::new(&mut store, &mut init, input_dim, hidden, layers);
        let q = QuantizedStackedBiLstm::quantize(&store, &stack, 0.02).unwrap();
        let mut input = vec![0.0; t_len * batch * input_dim];
        for t in 0..t_len {
            for b in 0..batch {
                for d in 0..input_dim {
                    let phase = (window(b) * 131 + t * 17 + d * 5 + 1) as f32;
                    input[(t * batch + b) * input_dim + d] = (phase * 0.37).sin() * 2.2;
                }
            }
        }
        (q, input)
    }

    fn run(
        q: &QuantizedStackedBiLstm,
        level: SimdLevel,
        t_len: usize,
        batch: usize,
        input: &[f32],
    ) -> Vec<u32> {
        let mut arena = ScratchArena::new();
        ensure(&mut arena.io_a, input.len());
        arena.io_a[..input.len()].copy_from_slice(input);
        q.infer_batch_at(level, t_len, batch, &mut arena);
        arena.io_a[..t_len * batch * q.out_dim()]
            .iter()
            .map(|v| v.to_bits())
            .collect()
    }

    #[test]
    fn every_simd_level_produces_identical_bytes() {
        // Hidden widths around the vector and tile widths, input widths
        // that are odd and not a multiple of any lane count, sequence
        // lengths from one step to 512, one row and several.
        let cases: [((usize, usize, usize), usize, usize); 7] = [
            ((1, 1, 1), 1, 1),
            ((3, 7, 2), 2, 3),
            ((5, 16, 1), 32, 1),
            ((6, 16, 2), 512, 2),
            ((9, 75, 1), 32, 2),
            ((11, 150, 1), 32, 1),
            ((30, 150, 2), 2, 7),
        ];
        for (shape, t_len, batch) in cases {
            let (q, input) = stack_and_input(shape, t_len, batch, |b| b);
            let reference = run(&q, SimdLevel::Scalar, t_len, batch, &input);
            assert!(
                reference.iter().any(|&bits| bits != 0),
                "{shape:?}: all-zero output"
            );
            for &level in SimdLevel::available() {
                assert_eq!(
                    run(&q, level, t_len, batch, &input),
                    reference,
                    "{} differs from scalar at {shape:?} T={t_len} B={batch}",
                    level.name()
                );
            }
        }
    }

    #[test]
    fn a_window_is_independent_of_batch_size_and_position() {
        let (shape, t_len) = ((5, 7, 2), 9);
        let out_dim = 2 * shape.1;
        let alone = |w: usize| {
            let (q, input) = stack_and_input(shape, t_len, 1, |_| w);
            run(&q, kernel::simd_level(), t_len, 1, &input)
        };
        for batch in [1usize, 2, 7, 32] {
            // Slot b holds window (b + shift): over the shifts every
            // window visits every position of the batch.
            for shift in 0..batch {
                let (q, input) = stack_and_input(shape, t_len, batch, |b| (b + shift) % batch);
                let out = run(&q, kernel::simd_level(), t_len, batch, &input);
                for b in 0..batch {
                    let want = alone((b + shift) % batch);
                    for t in 0..t_len {
                        assert_eq!(
                            out[(t * batch + b) * out_dim..][..out_dim],
                            want[t * out_dim..][..out_dim],
                            "B={batch} shift={shift} slot={b} step={t}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn encoder_leaves_its_output_quantized_for_the_next_layer() {
        // Odd hidden width, two layers, several windows: `xq` must hold
        // exactly what quantizing the f32 output rows at the unit scale
        // gives, so a consumer may read either.
        let (shape, t_len, batch) = ((5, 7, 2), 6, 3);
        let (q, input) = stack_and_input(shape, t_len, batch, |b| b);
        let mut arena = ScratchArena::new();
        ensure(&mut arena.io_a, input.len());
        arena.io_a[..input.len()].copy_from_slice(&input);
        q.infer_batch(t_len, batch, &mut arena);
        let n = t_len * batch * q.out_dim();
        let mut want = vec![0; n];
        quantize_row(&arena.io_a[..n], 1.0 / UNIT_SCALE, &mut want);
        assert_eq!(arena.xq[..n], want[..]);
        assert!(want.iter().any(|&v| v != 0));
    }

    #[test]
    fn malformed_layer_shapes_fail_to_decode() {
        let mut store = ParamStore::new();
        let mut init = Initializer::seeded(4);
        let a = StackedBiLstm::new(&mut store, &mut init, 3, 4, 1);
        let b = StackedBiLstm::new(&mut store, &mut init, 5, 4, 1);
        let qa = QuantizedStackedBiLstm::quantize(&store, &a, 0.1).unwrap();
        let qb = QuantizedStackedBiLstm::quantize(&store, &b, 0.1).unwrap();
        // Two well-formed layers that do not chain (8 outputs into 5 inputs).
        let mut e = Encoder::new();
        e.put(&vec![qa.layers[0].clone(), qb.layers[0].clone()]);
        e.put(&0.1_f32);
        let bytes = e.into_bytes();
        assert!(matches!(
            Decoder::new(&bytes).get::<QuantizedStackedBiLstm>(),
            Err(CodecError::Malformed(_))
        ));
        let json = serde_json::to_string(&qa)
            .unwrap()
            .replace("\"hidden\":4", "\"hidden\":3");
        assert!(serde_json::from_str::<QuantizedStackedBiLstm>(&json).is_err());
    }

    #[test]
    fn empty_sequence_is_noop() {
        let mut store = ParamStore::new();
        let mut init = Initializer::seeded(1);
        let stack = StackedBiLstm::new(&mut store, &mut init, 2, 3, 1);
        let q = QuantizedStackedBiLstm::quantize(&store, &stack, UNIT_SCALE).unwrap();
        let mut arena = ScratchArena::new();
        q.infer_in_place(0, &mut arena);
        assert!(arena.io_a.is_empty());
    }

    #[test]
    fn serde_roundtrip_preserves_inference() {
        let mut store = ParamStore::new();
        let mut init = Initializer::seeded(5);
        let stack = StackedBiLstm::new(&mut store, &mut init, 3, 4, 2);
        let q = QuantizedStackedBiLstm::quantize(&store, &stack, 0.01).unwrap();
        let json = serde_json::to_string(&q).unwrap();
        let back: QuantizedStackedBiLstm = serde_json::from_str(&json).unwrap();
        assert_eq!(q, back);
    }

    #[test]
    fn codec_roundtrip_is_exact() {
        let mut store = ParamStore::new();
        let mut init = Initializer::seeded(9);
        let stack = StackedBiLstm::new(&mut store, &mut init, 4, 6, 3);
        let q = QuantizedStackedBiLstm::quantize(&store, &stack, 0.02).unwrap();
        let mut e = Encoder::new();
        e.put(&q);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        let back: QuantizedStackedBiLstm = d.get().unwrap();
        d.finish().unwrap();
        assert_eq!(q, back);

        let lin = Linear::new(&mut store, &mut init, 8, 2);
        let ql = QuantizedLinear::quantize(&store, &lin, UNIT_SCALE).unwrap();
        let mut e = Encoder::new();
        e.put(&ql);
        let bytes = e.into_bytes();
        let back: QuantizedLinear = Decoder::new(&bytes).get().unwrap();
        assert_eq!(ql, back);
    }

    #[test]
    fn steady_state_reuses_arena_capacity() {
        let mut store = ParamStore::new();
        let mut init = Initializer::seeded(2);
        let stack = StackedBiLstm::new(&mut store, &mut init, 3, 4, 2);
        let q = QuantizedStackedBiLstm::quantize(&store, &stack, 0.05).unwrap();
        let mut arena = ScratchArena::new();
        let t_len = 6;
        ensure(&mut arena.io_a, t_len * 3);
        q.infer_in_place(t_len, &mut arena);
        let caps = (
            arena.xq.capacity(),
            arena.xq_b.capacity(),
            arena.io_a.capacity(),
            arena.io_b.capacity(),
            arena.gates.capacity(),
        );
        // A second window of the same shape must not grow anything.
        for _ in 0..3 {
            q.infer_in_place(t_len, &mut arena);
            assert_eq!(
                caps,
                (
                    arena.xq.capacity(),
                    arena.xq_b.capacity(),
                    arena.io_a.capacity(),
                    arena.io_b.capacity(),
                    arena.gates.capacity(),
                )
            );
        }
    }
}
