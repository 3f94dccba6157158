//! The int8 forward-pass kernels: a broadcast-accumulate integer GEMM with
//! scalar, SSE2 and AVX2 instantiations, the rational gate activations, the
//! fused LSTM cell update, and the BiLSTM recurrence driver that runs both
//! directions of a layer in lockstep (scalar, SSE2 and AVX2
//! instantiations).
//!
//! **Integer GEMM.** Quantized operands are `i16` holding int8-range values
//! (±127). Weights are packed as *k-pairs × channels*: for every pair of
//! input rows `(2p, 2p+1)` and every output channel `j` the two weights sit
//! next to each other, `w[(p · n_pad + j) · 2 ..][..2]`. One activation pair
//! broadcast to every 32-bit lane and multiplied with `pmaddwd` against a
//! vector of such pairs yields `a[2p]·W[2p][j] + a[2p+1]·W[2p+1][j]` for
//! 4 (SSE2) or 8 (AVX2) channels at once, so a dot product is finished by
//! plain lane-wise `i32` adds over `p` — there is no horizontal reduction.
//! The drivers tile channels in the outer loop and activation
//! rows in the inner one: a channel tile's weights stay in L1 while every
//! row of the batch streams over them, which is where stacking windows
//! pays when the whole matrix does not fit in L1.
//!
//! **Recurrence.** A layer's input GEMMs (`x·Wx + b` for every step of
//! every window) are one [`qgemm`] per direction; the recurrence is one
//! [`bilstm_recurrence`] call, which advances the forward direction over
//! `t = 0, 1, …` and the backward one over `t = T−1, T−2, …` at the same
//! time: per step one k-pair loop accumulates both directions' recurrent
//! products, then one pass runs both directions' cell updates. Its size
//! and CPU-feature checks are made once per layer, not once per step.
//!
//! **Bit identity.** Integer accumulation is exact, the epilogue is one
//! `cvt → mul → add` per lane in that order on every path, and the gate
//! math is one piece of code in per-lane IEEE `add`/`mul`/`div`/`min`/`max`
//! (Rust never contracts to FMA or reassociates, so however the compiler
//! vectorises it the lanes compute the same values). Every level's forward
//! pass therefore produces identical bytes, and running the directions in
//! lockstep changes no operation any lane performs, only when.

use std::sync::OnceLock;

/// Output channels are padded to a multiple of this: one AVX2 vector of
/// `i32` accumulators.
pub(crate) const CH_PAD: usize = 8;

/// `n` rounded up to a multiple of `to`.
#[inline]
pub(crate) fn pad_to(n: usize, to: usize) -> usize {
    n.div_ceil(to) * to
}

/// Which kernel instantiations run. Chosen once per process by
/// [`simd_level`]; tests call each level directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SimdLevel {
    /// Portable lane-array code, the reference the SIMD paths must equal.
    Scalar,
    /// 128-bit `pmaddwd` (x86-64 baseline).
    Sse2,
    /// 256-bit `vpmaddwd`, when the CPU reports AVX2.
    Avx2,
}

impl SimdLevel {
    pub(crate) fn name(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Sse2 => "sse2",
            SimdLevel::Avx2 => "avx2",
        }
    }

    /// Every level this CPU can execute, narrowest first.
    pub(crate) fn available() -> &'static [SimdLevel] {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                return &[SimdLevel::Scalar, SimdLevel::Sse2, SimdLevel::Avx2];
            }
            &[SimdLevel::Scalar, SimdLevel::Sse2]
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            &[SimdLevel::Scalar]
        }
    }
}

/// The widest level the CPU supports, detected on first use.
pub(crate) fn simd_level() -> SimdLevel {
    static LEVEL: OnceLock<SimdLevel> = OnceLock::new();
    *LEVEL.get_or_init(|| *SimdLevel::available().last().unwrap_or(&SimdLevel::Scalar))
}

// ---------------------------------------------------------------------------
// Rounding and activations (one definition, every path)
// ---------------------------------------------------------------------------

/// `round(x)` (half away from zero) clamped to ±127, as an int8-range
/// `i16`; NaN maps to 0.
///
/// Written without `f32::round`, which is a libm call the loop vectoriser
/// cannot see through: after the NaN select and the clamp `t = trunc(x)`
/// fits an `i32`, `x − t` is exact (the fraction of an f32 below 2²³ is
/// representable), and comparing it with ±½ reproduces every tie. The
/// truncation is unchecked because the value is known to fit: a saturating
/// `as` cast keeps its NaN/overflow fix-ups lane by lane, which costs about
/// as much as the rest of the cell update.
#[inline(always)]
pub(crate) fn quantize(x: f32) -> i16 {
    let x = if x.is_nan() {
        0.0
    } else {
        x.clamp(-127.0, 127.0)
    };
    // SAFETY: `x` is finite and within ±127 (NaN was replaced by 0, the
    // clamp bounds everything else, infinities included), so its truncation
    // is representable in `i32`.
    let t = unsafe { x.to_int_unchecked::<i32>() };
    let frac = x - t as f32;
    (t + i32::from(frac >= 0.5) - i32::from(frac <= -0.5)) as i16
}

/// Quantize one f32 row: `q = round(x · inv_scale)` clamped to ±127. `dst`
/// may be longer than `src`; the tail is zeroed so padded lanes contribute
/// nothing to the dot products.
#[inline]
pub(crate) fn quantize_row(src: &[f32], inv_scale: f32, dst: &mut [i16]) {
    let (head, tail) = dst.split_at_mut(src.len());
    for (d, &s) in head.iter_mut().zip(src) {
        *d = quantize(s * inv_scale);
    }
    tail.fill(0);
}

/// Beyond this the [7/6] approximant is within 5e-7 of ±1 and the input is
/// clamped, which makes the function saturate instead of following the
/// rational's `x/28` asymptote.
const TANH_CLAMP: f32 = 4.97;

/// `tanh` as the [7/6] Padé approximant `x·P(x²)/Q(x²)` on the clamped
/// input: |err| < 1e-4 against `libm` everywhere, odd-symmetric by
/// construction (`x²` is sign-free, the leading `x` carries the sign),
/// bounded by 1, and branch-free.
#[inline(always)]
pub(crate) fn tanh_approx(x: f32) -> f32 {
    let x = x.clamp(-TANH_CLAMP, TANH_CLAMP);
    let x2 = x * x;
    let p = x * (135_135.0 + x2 * (17_325.0 + x2 * (378.0 + x2)));
    let q = 135_135.0 + x2 * (62_370.0 + x2 * (3_150.0 + x2 * 28.0));
    p / q
}

/// `sigmoid(x) = 0.5 + 0.5·tanh(x/2)` through the same approximant.
#[inline(always)]
pub(crate) fn sigmoid_approx(x: f32) -> f32 {
    0.5 + 0.5 * tanh_approx(0.5 * x)
}

/// One row of the fused LSTM cell update at one time step.
///
/// `z` holds the row's gate pre-activations, `4·hp` values laid out
/// `[i | f | g | o]` with every gate block padded to `hp` lanes (`hid`
/// rounded up to [`CH_PAD`]); `c` and `hq` are the row's `hp` lanes of
/// state. One pass applies the activations, updates the cell, and writes
/// the new hidden state re-quantized at the unit scale into `hq` (the next
/// step's GEMM operand, padding included) and its first `hid` lanes
/// straight into the layer's output row, as f32 and as the int8-range
/// values the next layer reads. Padded lanes see `z = 0`, which keeps
/// their `c` and `hq` at zero.
///
/// **Lane contract.** The update is one body over whole [`CH_PAD`]-lane
/// groups, each lane an independent chain of IEEE `add`/`mul`/`div`/`min`/
/// `max`/`cvt` — no call, no branch, no cross-lane operation — so every
/// instantiation computes the same bits however it is vectorised, and the
/// vectoriser does turn a group's activations and state update into one
/// 256-bit or two 128-bit operations per step of the chain. It is inlined
/// into each instantiation of the recurrence driver: the x86-64 baseline
/// (which [`SimdLevel::Scalar`] and [`SimdLevel::Sse2`] share) and `avx2`.
#[inline(always)]
fn cell_row(
    hid: usize,
    z: &[f32],
    c: &mut [f32],
    hq: &mut [i16],
    out_f32: &mut [f32],
    out_q: &mut [i16],
) {
    let hp = c.len();
    let (zi, rest) = z.split_at(hp);
    let (zf, rest) = rest.split_at(hp);
    let (zg, zo) = rest.split_at(hp);
    let gates = zi.as_chunks().0.iter().zip(zf.as_chunks().0);
    let gates = gates.zip(zg.as_chunks().0.iter().zip(zo.as_chunks().0));
    let state = c.as_chunks_mut().0.iter_mut().zip(hq.as_chunks_mut().0);
    let (out_f32, out_q) = (&mut out_f32[..hid], &mut out_q[..hid]);
    for (v, (((zi, zf), (zg, zo)), (c, hq))) in gates.zip(state).enumerate() {
        let h = cell_lanes(zi, zf, zg, zo, c, hq);
        let at = v * CH_PAD;
        match (
            out_f32[at..].first_chunk_mut(),
            out_q[at..].first_chunk_mut(),
        ) {
            (Some(f32s), Some(q)) => (*f32s, *q) = (h, *hq),
            // The last group of a width that is not a whole number of
            // groups: its padded lanes belong to the neighbouring column.
            _ => {
                out_f32[at..].copy_from_slice(&h[..hid - at]);
                out_q[at..].copy_from_slice(&hq[..hid - at]);
            }
        }
    }
}

/// One lane group of the cell update; returns the new hidden state.
#[inline(always)]
fn cell_lanes(
    zi: &[f32; CH_PAD],
    zf: &[f32; CH_PAD],
    zg: &[f32; CH_PAD],
    zo: &[f32; CH_PAD],
    c: &mut [f32; CH_PAD],
    hq: &mut [i16; CH_PAD],
) -> [f32; CH_PAD] {
    let mut h = [0.0; CH_PAD];
    for j in 0..CH_PAD {
        let i_g = sigmoid_approx(zi[j]);
        let f_g = sigmoid_approx(zf[j]);
        let g_g = tanh_approx(zg[j]);
        let o_g = sigmoid_approx(zo[j]);
        c[j] = f_g * c[j] + i_g * g_g;
        h[j] = o_g * tanh_approx(c[j]);
        hq[j] = quantize(h[j] * 127.0);
    }
    h
}

// ---------------------------------------------------------------------------
// Packed weights
// ---------------------------------------------------------------------------

/// One weight matrix in the kernel's layout, with the epilogue's operands.
///
/// Built only by [`PackedWeights::pack`], which establishes the size
/// relations the unsafe kernels rely on: `k_pad` is even, `n_pad` is a
/// multiple of [`CH_PAD`] and at least `n`, `w` holds `k_pad · n_pad`
/// values, `deq` and `bias` hold `n_pad`.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct PackedWeights {
    k_pad: usize,
    n: usize,
    n_pad: usize,
    w: Vec<i16>,
    deq: Vec<f32>,
    bias: Vec<f32>,
}

impl PackedWeights {
    /// Pack canonical weights (`data[j · in_dim + k]`, output channel `j`,
    /// per-channel `scales`) for activation rows of `k_pad` values (even,
    /// at least `in_dim`, zero beyond it) quantized at `act_scale`.
    ///
    /// Output channels are taken in blocks of `block` and every block is
    /// padded to `block_pad` channels: the LSTM packs its four gate blocks
    /// padded to whole vectors (`block = H`, `block_pad = H` rounded up to
    /// [`CH_PAD`]) so the cell update never runs a scalar tail, a dense
    /// layer packs one unpadded block. Padded channels have zero weights,
    /// zero scale and zero bias, so they produce exactly `0.0`.
    // The canonical tensor, the activation side and the channel layout are
    // three independent things; a struct would only rename the arguments.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn pack(
        data: &[i8],
        in_dim: usize,
        k_pad: usize,
        scales: &[f32],
        act_scale: f32,
        bias: Option<&[f32]>,
        block: usize,
        block_pad: usize,
    ) -> Self {
        let out_dim = scales.len();
        assert_eq!(data.len(), out_dim * in_dim, "weight tensor shape");
        assert!(
            k_pad >= in_dim && k_pad.is_multiple_of(2),
            "activation row width"
        );
        assert!(block >= 1 && block_pad >= block && out_dim.is_multiple_of(block));
        assert!(bias.is_none_or(|b| b.len() == out_dim), "bias length");
        let n = out_dim / block * block_pad;
        let n_pad = pad_to(n, CH_PAD);
        let mut packed = PackedWeights {
            k_pad,
            n,
            n_pad,
            w: vec![0; k_pad * n_pad],
            deq: vec![0.0; n_pad],
            bias: vec![0.0; n_pad],
        };
        for j in 0..out_dim {
            let ch = j / block * block_pad + j % block;
            packed.deq[ch] = act_scale * scales[j];
            if let Some(b) = bias {
                packed.bias[ch] = b[j];
            }
            for k in 0..in_dim {
                packed.w[(k / 2 * n_pad + ch) * 2 + k % 2] = i16::from(data[j * in_dim + k]);
            }
        }
        packed
    }

    /// Width of a quantized activation row this matrix multiplies.
    pub(crate) fn k_pad(&self) -> usize {
        self.k_pad
    }

    /// Width of an output row (block padding included).
    pub(crate) fn n(&self) -> usize {
        self.n
    }
}

// ---------------------------------------------------------------------------
// Integer GEMM
// ---------------------------------------------------------------------------

/// `out[i][..n] = a[i]·W · deq + bias`, or with `accumulate` `out[i][..n] +=
/// a[i]·W · deq`, for `m` activation rows of `k_pad` values and dense
/// output rows of `n` values.
pub(crate) fn qgemm(
    level: SimdLevel,
    m: usize,
    a: &[i16],
    w: &PackedWeights,
    accumulate: bool,
    out: &mut [f32],
) {
    assert!(a.len() >= m * w.k_pad, "activation rows");
    assert!(out.len() >= m * w.n, "output rows");
    assert!(
        SimdLevel::available().contains(&level),
        "{} kernels requested on a CPU without them",
        level.name()
    );
    // SAFETY: the asserts above bound every row the drivers touch and
    // confirm the CPU feature the AVX2 driver needs; `PackedWeights::pack`
    // bounds every weight, scale and bias access (see `gemm_tile`).
    unsafe {
        match level {
            SimdLevel::Scalar => {
                gemm::<ScalarLanes>(m, a.as_ptr(), w, accumulate, out.as_mut_ptr())
            }
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Sse2 => {
                gemm::<x86::Sse2Lanes>(m, a.as_ptr(), w, accumulate, out.as_mut_ptr())
            }
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx2 => x86::gemm_avx2(m, a.as_ptr(), w, accumulate, out.as_mut_ptr()),
            #[cfg(not(target_arch = "x86_64"))]
            _ => gemm::<ScalarLanes>(m, a.as_ptr(), w, accumulate, out.as_mut_ptr()),
        }
    }
}

/// One vector of `CH` `i32` accumulators, one per output channel.
trait Lanes {
    type Acc: Copy;
    /// Output channels per accumulator.
    const CH: usize;

    unsafe fn zero() -> Self::Acc;

    /// `acc[l] += a[0]·w[2l] + a[1]·w[2l+1]` for every lane `l`.
    ///
    /// # Safety
    /// `a` must be readable for 2 and `w` for `2 · CH` values.
    unsafe fn madd(acc: Self::Acc, a: *const i16, w: *const i16) -> Self::Acc;

    /// `out[l] = acc[l] as f32 · deq[l] + base[l]` for every lane.
    ///
    /// # Safety
    /// `deq` and `base` must be readable and `out` writable for `CH` values
    /// (`out` may alias `base`).
    unsafe fn finish(acc: Self::Acc, deq: *const f32, base: *const f32, out: *mut f32);

    /// The accumulators as an array (the first `CH` entries are valid), for
    /// the scalar epilogue of a row's last, partial vector.
    unsafe fn to_array(acc: Self::Acc) -> [i32; CH_PAD];
}

struct ScalarLanes;

impl Lanes for ScalarLanes {
    type Acc = [i32; CH_PAD];
    const CH: usize = CH_PAD;

    #[inline(always)]
    unsafe fn zero() -> Self::Acc {
        [0; CH_PAD]
    }

    #[inline(always)]
    unsafe fn madd(mut acc: Self::Acc, a: *const i16, w: *const i16) -> Self::Acc {
        // SAFETY: the caller guarantees 2 readable values at `a` and
        // `2 · CH` at `w`.
        unsafe {
            let (a0, a1) = (i32::from(*a), i32::from(*a.add(1)));
            for (l, lane) in acc.iter_mut().enumerate() {
                *lane += a0 * i32::from(*w.add(2 * l)) + a1 * i32::from(*w.add(2 * l + 1));
            }
        }
        acc
    }

    #[inline(always)]
    unsafe fn finish(acc: Self::Acc, deq: *const f32, base: *const f32, out: *mut f32) {
        for (l, &lane) in acc.iter().enumerate() {
            // SAFETY: the caller guarantees `CH` values behind each pointer.
            unsafe { *out.add(l) = lane as f32 * *deq.add(l) + *base.add(l) };
        }
    }

    #[inline(always)]
    unsafe fn to_array(acc: Self::Acc) -> [i32; CH_PAD] {
        acc
    }
}

/// Channel vectors per tile; with two rows that is eight accumulators, which
/// leaves room for the broadcast and the weight operands in 16 registers.
const TILE_VECS: usize = 4;

/// The GEMM driver: channel tiles outside, activation rows inside.
///
/// # Safety
/// `a` must be readable for `m · w.k_pad` values and `out` readable and
/// writable for `m · w.n`; `L`'s instructions must be available.
#[inline(always)]
unsafe fn gemm<L: Lanes>(
    m: usize,
    a: *const i16,
    w: &PackedWeights,
    accumulate: bool,
    out: *mut f32,
) {
    let vecs = w.n_pad / L::CH;
    let mut v = 0;
    // SAFETY: forwarded from the caller; `v` stays below `n_pad / CH`.
    unsafe {
        while v + TILE_VECS <= vecs {
            gemm_rows::<L, TILE_VECS>(m, a, w, accumulate, out, v);
            v += TILE_VECS;
        }
        while v < vecs {
            gemm_rows::<L, 1>(m, a, w, accumulate, out, v);
            v += 1;
        }
    }
}

/// Every activation row against one channel tile, two rows at a time.
#[inline(always)]
unsafe fn gemm_rows<L: Lanes, const NV: usize>(
    m: usize,
    a: *const i16,
    w: &PackedWeights,
    accumulate: bool,
    out: *mut f32,
    v: usize,
) {
    let mut i = 0;
    // SAFETY: forwarded from `gemm`; `i + MR <= m` for every tile.
    unsafe {
        while i + 2 <= m {
            gemm_tile::<L, 2, NV>(a, w, accumulate, out, i, v);
            i += 2;
        }
        if i < m {
            gemm_tile::<L, 1, NV>(a, w, accumulate, out, i, v);
        }
    }
}

/// `MR` rows × `NV` channel vectors: accumulate over every k-pair, then
/// run the epilogue.
///
/// # Safety
/// As [`gemm`], with rows `i .. i + MR` below `m` and channel vectors
/// `v .. v + NV` below `n_pad / CH`.
#[inline(always)]
unsafe fn gemm_tile<L: Lanes, const MR: usize, const NV: usize>(
    a: *const i16,
    w: &PackedWeights,
    accumulate: bool,
    out: *mut f32,
    i: usize,
    v: usize,
) {
    let (k_pad, n, n_pad) = (w.k_pad, w.n, w.n_pad);
    let ch0 = v * L::CH;
    // SAFETY: `pack` sized `w.w` to `k_pad · n_pad` and `deq`/`bias` to
    // `n_pad`; with `p < k_pad / 2` and `ch0 + NV · CH <= n_pad` the weight
    // reads end at `(p · n_pad + n_pad) · 2 <= k_pad · n_pad`. Row `i + r`
    // of `a` and `out` is in bounds by the caller's contract, and a full
    // vector is stored to `out` only when it ends at or before `n`.
    unsafe {
        let mut acc = [[L::zero(); NV]; MR];
        for p in 0..k_pad / 2 {
            let w_p = w.w.as_ptr().add((p * n_pad + ch0) * 2);
            for (r, acc_r) in acc.iter_mut().enumerate() {
                let a_p = a.add((i + r) * k_pad + 2 * p);
                for (c, acc_rc) in acc_r.iter_mut().enumerate() {
                    *acc_rc = L::madd(*acc_rc, a_p, w_p.add(c * L::CH * 2));
                }
            }
        }
        for (r, acc_r) in acc.iter().enumerate() {
            let out_row = out.add((i + r) * n);
            let base_row = if accumulate {
                out_row.cast_const()
            } else {
                w.bias.as_ptr()
            };
            for (c, &acc_rc) in acc_r.iter().enumerate() {
                let ch = ch0 + c * L::CH;
                if ch + L::CH <= n {
                    L::finish(
                        acc_rc,
                        w.deq.as_ptr().add(ch),
                        base_row.add(ch),
                        out_row.add(ch),
                    );
                } else {
                    let lanes = L::to_array(acc_rc);
                    for (l, &lane) in lanes.iter().enumerate().take(n.saturating_sub(ch)) {
                        *out_row.add(ch + l) = lane as f32 * w.deq[ch + l] + *base_row.add(ch + l);
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// BiLSTM recurrence driver
// ---------------------------------------------------------------------------

/// One BiLSTM layer's recurrence over a time-step-major batch of `batch`
/// windows of `t_len` steps, after the input GEMMs.
///
/// Buffers are laid out direction-major, `[fwd, bwd]`: `gates` holds each
/// direction's gate pre-activations (`t_len · batch` rows of `4·hp`, `hp` =
/// `hid` rounded up to [`CH_PAD`]) with `x·Wx + b` already in them; `c` and
/// `hq` hold each direction's cell state and quantized hidden state
/// (`batch` rows of `hp`). The driver writes step `t` of window `b` to row
/// `t · batch + b` of `out_f32`/`out_q`, rows `stride` apart: the forward
/// direction's `hid` values from column 0, the backward one's from column
/// `hid`.
pub(crate) struct BiRecurrence<'a> {
    pub(crate) t_len: usize,
    pub(crate) batch: usize,
    pub(crate) hid: usize,
    /// `[fwd, bwd]` recurrent weights, rows of `hp` values at the unit
    /// scale, gate blocks padded to `hp`.
    pub(crate) wh: [&'a PackedWeights; 2],
    pub(crate) gates: &'a mut [f32],
    pub(crate) c: &'a mut [f32],
    pub(crate) hq: &'a mut [i16],
    pub(crate) out_f32: &'a mut [f32],
    pub(crate) out_q: &'a mut [i16],
    pub(crate) stride: usize,
}

/// Run a layer's recurrence with both directions in lockstep: at step `s`
/// the forward direction advances row `t = s` and the backward one row
/// `t = t_len − 1 − s`. One k-pair loop accumulates both directions'
/// recurrent products, each against its own `Wh` — two independent
/// dependency chains per tile, for every `batch` — and one pass over
/// `c`/`hq` then runs both directions' cell updates ([`cell_row`]).
///
/// Every size relation the unsafe tiles rely on and the CPU features the
/// level needs are checked here, once per layer call.
/// Integer accumulation is exact and each output element still gets one
/// `cvt → mul → add` epilogue onto its input-GEMM value, so the result is
/// bit for bit what running the directions one after the other gives.
pub(crate) fn bilstm_recurrence(level: SimdLevel, r: BiRecurrence<'_>) {
    let (rows, hid) = (r.t_len * r.batch, r.hid);
    assert!(hid > 0, "hidden width");
    let hp = pad_to(hid, CH_PAD);
    for wh in r.wh {
        assert!(
            wh.k_pad == hp && wh.n == 4 * hp && wh.n_pad == wh.n,
            "recurrent weights of another hidden width"
        );
    }
    assert!(r.gates.len() >= 2 * rows * 4 * hp, "gate rows");
    assert!(r.c.len() >= 2 * r.batch * hp && r.hq.len() >= 2 * r.batch * hp);
    assert!(r.stride >= 2 * hid, "output row width");
    assert!(r.out_f32.len() >= rows * r.stride && r.out_q.len() >= rows * r.stride);
    if rows == 0 {
        return;
    }
    assert!(
        SimdLevel::available().contains(&level),
        "{} kernels requested on a CPU without them",
        level.name()
    );
    // SAFETY: the asserts above are `recurrence`'s contract, and the CPU
    // supports every level `available` lists.
    unsafe {
        match level {
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Sse2 => recurrence::<x86::Sse2Lanes>(r),
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx2 => x86::bilstm_recurrence_avx2(r),
            _ => recurrence::<ScalarLanes>(r),
        }
    }
}

/// The recurrence past [`bilstm_recurrence`]'s checks.
///
/// # Safety
/// The size relations [`bilstm_recurrence`] asserts must hold and `L`'s
/// instructions must be available.
#[inline(always)]
unsafe fn recurrence<L: Lanes>(r: BiRecurrence<'_>) {
    let (t_len, batch, hid, stride) = (r.t_len, r.batch, r.hid, r.stride);
    let hp = pad_to(hid, CH_PAD);
    let gate_w = 4 * hp;
    let (gates_f, gates_b) = r.gates.split_at_mut(t_len * batch * gate_w);
    let mut gates = [gates_f, gates_b];
    let state = 2 * batch * hp;
    let (c, hq) = (&mut r.c[..state], &mut r.hq[..state]);
    c.fill(0.0);
    for s in 0..t_len {
        let t = [s, t_len - 1 - s];
        if s > 0 {
            let z = [0, 1].map(|d| gates[d][t[d] * batch * gate_w..].as_mut_ptr());
            // SAFETY: `hq` holds `2 · batch` rows of `hp = wh.k_pad`
            // values and each direction's step `t[d]` has `batch` rows of
            // `gate_w = wh.n_pad` values left in its gate buffer.
            unsafe { recurrent_step::<L>(batch, r.wh, hq.as_ptr(), z) };
        }
        let dirs = c
            .chunks_exact_mut(batch * hp)
            .zip(hq.chunks_exact_mut(batch * hp));
        for (d, (c, hq)) in dirs.enumerate() {
            let state = c.chunks_exact_mut(hp).zip(hq.chunks_exact_mut(hp));
            for (b, (c, hq)) in state.enumerate() {
                let row = t[d] * batch + b;
                let at = row * stride + d * hid;
                let z = &gates[d][row * gate_w..][..gate_w];
                cell_row(hid, z, c, hq, &mut r.out_f32[at..], &mut r.out_q[at..]);
            }
        }
    }
}

/// One step's recurrent products for both directions: `z[d][b] += hq[d][b]
/// · Wh[d]`, channel tiles outside (a tile's weights stay in L1 while the
/// batch's rows stream over them), rows inside, both directions in every
/// tile: rows in pairs over two channel vectors, a last odd row over four,
/// eight accumulators either way. `Wh` has `4·hp` channels, `hp` a
/// multiple of [`CH_PAD`], so its channel vectors come in whole tiles.
///
/// # Safety
/// `hq` must be readable for `2 · batch` rows of `wh[d].k_pad` values
/// (forward rows first), `z[d]` readable and writable for `batch` rows of
/// `wh[d].n` values, both matrices of one shape with `n == n_pad` a
/// multiple of `TILE_VECS · CH`, and `L`'s instructions available.
#[inline(always)]
unsafe fn recurrent_step<L: Lanes>(
    batch: usize,
    wh: [&PackedWeights; 2],
    hq: *const i16,
    z: [*mut f32; 2],
) {
    const HALF: usize = TILE_VECS / 2;
    let vecs = wh[0].n_pad / L::CH;
    // SAFETY: forwarded from the caller; every tile's channel vectors end
    // at or before `vecs` and its rows below `batch`.
    unsafe {
        for v in (0..vecs).step_by(TILE_VECS) {
            let mut b = 0;
            while b + 2 <= batch {
                recurrent_tile::<L, 2, HALF>(batch, wh, hq, z, b, v);
                recurrent_tile::<L, 2, HALF>(batch, wh, hq, z, b, v + HALF);
                b += 2;
            }
            if b < batch {
                recurrent_tile::<L, 1, TILE_VECS>(batch, wh, hq, z, b, v);
            }
        }
    }
}

/// Rows `b .. b + MR` of both directions × `NV` channel vectors: accumulate
/// over every k-pair, the two directions interleaved, then add the
/// products onto the gate rows.
///
/// # Safety
/// As [`recurrent_step`], with `b + MR <= batch` and channel vectors
/// `v .. v + NV` below `n_pad / CH`.
#[inline(always)]
unsafe fn recurrent_tile<L: Lanes, const MR: usize, const NV: usize>(
    batch: usize,
    wh: [&PackedWeights; 2],
    hq: *const i16,
    z: [*mut f32; 2],
    b: usize,
    v: usize,
) {
    let (k_pad, n, n_pad) = (wh[0].k_pad, wh[0].n, wh[0].n_pad);
    let ch0 = v * L::CH;
    // SAFETY: `pack` sized each `w` to `k_pad · n_pad` and `deq` to
    // `n_pad`; with `p < k_pad / 2` and `ch0 + NV · CH <= n_pad` the
    // weight reads end at `(p · n_pad + n_pad) · 2 <= k_pad · n_pad`. Rows
    // `d · batch + b + r` of `hq` and rows `b + r` of `z[d]` are in bounds
    // by the caller's contract, and `n == n_pad` makes every vector a full
    // one.
    unsafe {
        let a = [0, 1].map(|d| hq.add((d * batch + b) * k_pad));
        let w = [0, 1].map(|d| wh[d].w.as_ptr().add(ch0 * 2));
        let mut acc = [[[L::zero(); NV]; MR]; 2];
        for p in 0..k_pad / 2 {
            for (d, acc_d) in acc.iter_mut().enumerate() {
                let w_p = w[d].add(p * n_pad * 2);
                for (r, acc_dr) in acc_d.iter_mut().enumerate() {
                    let a_p = a[d].add(r * k_pad + 2 * p);
                    for (c, acc_drc) in acc_dr.iter_mut().enumerate() {
                        *acc_drc = L::madd(*acc_drc, a_p, w_p.add(c * L::CH * 2));
                    }
                }
            }
        }
        for (d, acc_d) in acc.iter().enumerate() {
            let deq = wh[d].deq.as_ptr().add(ch0);
            for (r, acc_dr) in acc_d.iter().enumerate() {
                let z_row = z[d].add((b + r) * n + ch0);
                for (c, &acc_drc) in acc_dr.iter().enumerate() {
                    let at = c * L::CH;
                    L::finish(acc_drc, deq.add(at), z_row.add(at), z_row.add(at));
                }
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{gemm, recurrence, BiRecurrence, Lanes, PackedWeights, CH_PAD};
    use std::arch::x86_64::*;

    pub(super) struct Sse2Lanes;

    impl Lanes for Sse2Lanes {
        type Acc = __m128i;
        const CH: usize = 4;

        #[inline(always)]
        unsafe fn zero() -> __m128i {
            // SAFETY: SSE2 is part of the x86-64 baseline.
            unsafe { _mm_setzero_si128() }
        }

        #[inline(always)]
        unsafe fn madd(acc: __m128i, a: *const i16, w: *const i16) -> __m128i {
            // SAFETY: unaligned loads of 4 bytes at `a` and 16 at `w`, both
            // readable by the caller's contract.
            unsafe {
                let pair = _mm_set1_epi32(a.cast::<i32>().read_unaligned());
                let wv = _mm_loadu_si128(w.cast());
                _mm_add_epi32(acc, _mm_madd_epi16(pair, wv))
            }
        }

        #[inline(always)]
        unsafe fn finish(acc: __m128i, deq: *const f32, base: *const f32, out: *mut f32) {
            // SAFETY: 4 floats behind each pointer by the caller's contract.
            unsafe {
                let r = _mm_mul_ps(_mm_cvtepi32_ps(acc), _mm_loadu_ps(deq));
                _mm_storeu_ps(out, _mm_add_ps(r, _mm_loadu_ps(base)));
            }
        }

        #[inline(always)]
        unsafe fn to_array(acc: __m128i) -> [i32; CH_PAD] {
            let mut lanes = [0; CH_PAD];
            // SAFETY: the array holds 32 bytes, the store writes 16.
            unsafe { _mm_storeu_si128(lanes.as_mut_ptr().cast(), acc) };
            lanes
        }
    }

    struct Avx2Lanes;

    impl Lanes for Avx2Lanes {
        type Acc = __m256i;
        const CH: usize = 8;

        #[inline(always)]
        unsafe fn zero() -> __m256i {
            // SAFETY: reached only through the `avx2` drivers.
            unsafe { _mm256_setzero_si256() }
        }

        #[inline(always)]
        unsafe fn madd(acc: __m256i, a: *const i16, w: *const i16) -> __m256i {
            // SAFETY: unaligned loads of 4 bytes at `a` and 32 at `w`, both
            // readable by the caller's contract.
            unsafe {
                let pair = _mm256_set1_epi32(a.cast::<i32>().read_unaligned());
                let wv = _mm256_loadu_si256(w.cast());
                _mm256_add_epi32(acc, _mm256_madd_epi16(pair, wv))
            }
        }

        #[inline(always)]
        unsafe fn finish(acc: __m256i, deq: *const f32, base: *const f32, out: *mut f32) {
            // SAFETY: 8 floats behind each pointer by the caller's contract.
            unsafe {
                let r = _mm256_mul_ps(_mm256_cvtepi32_ps(acc), _mm256_loadu_ps(deq));
                _mm256_storeu_ps(out, _mm256_add_ps(r, _mm256_loadu_ps(base)));
            }
        }

        #[inline(always)]
        unsafe fn to_array(acc: __m256i) -> [i32; CH_PAD] {
            let mut lanes = [0; CH_PAD];
            // SAFETY: the array holds exactly the 32 bytes stored.
            unsafe { _mm256_storeu_si256(lanes.as_mut_ptr().cast(), acc) };
            lanes
        }
    }

    /// The AVX2 instantiation of the recurrence driver; the generic code
    /// (the cell update included) is inlined here, so the tiles use 256-bit
    /// registers and the cell update is vectorised at 8 lanes.
    ///
    /// # Safety
    /// As [`recurrence`], and the CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn bilstm_recurrence_avx2(r: BiRecurrence<'_>) {
        // SAFETY: forwarded from the caller.
        unsafe { recurrence::<Avx2Lanes>(r) }
    }

    /// The AVX2 instantiation of the driver; the generic code is inlined
    /// here so the whole tile loop is compiled with 256-bit registers.
    ///
    /// # Safety
    /// As [`gemm`], and the CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn gemm_avx2(
        m: usize,
        a: *const i16,
        w: &PackedWeights,
        accumulate: bool,
        out: *mut f32,
    ) {
        // SAFETY: forwarded from the caller.
        unsafe { gemm::<Avx2Lanes>(m, a, w, accumulate, out) }
    }
}

/// The per-direction recurrence step the lockstep driver replaced — the
/// fused cell update over one direction's rows, a call per step — kept as
/// the oracle the driver's tests compare against, never as a product path.
#[cfg(test)]
pub(crate) mod oracle {
    use super::{cell_row, pad_to, SimdLevel, CH_PAD};

    /// Where [`lstm_cells`] leaves a step's hidden state for the layer
    /// above: row `r`'s first `hid` lanes go to `[r · stride ..]` of both
    /// buffers. The slices start at the direction's column of the step's
    /// first row.
    pub(crate) struct LayerOut<'a> {
        pub(crate) f32s: &'a mut [f32],
        pub(crate) q: &'a mut [i16],
        pub(crate) stride: usize,
    }

    /// The fused LSTM cell update of one direction for `rows` sequences at
    /// one time step; `z` is `rows × 4·hp`, `c` and `hq` are `rows × hp`.
    pub(crate) fn lstm_cells(
        level: SimdLevel,
        rows: usize,
        hid: usize,
        z: &[f32],
        c: &mut [f32],
        hq: &mut [i16],
        out: LayerOut<'_>,
    ) {
        assert!(hid > 0, "hidden width");
        let hp = pad_to(hid, CH_PAD);
        assert!(z.len() >= rows * 4 * hp && c.len() >= rows * hp && hq.len() >= rows * hp);
        let out_len = rows.saturating_sub(1) * out.stride + hid;
        assert!(out.stride >= hid && out.f32s.len() >= out_len && out.q.len() >= out_len);
        #[cfg(target_arch = "x86_64")]
        if level == SimdLevel::Avx2 {
            assert!(std::arch::is_x86_feature_detected!("avx2"));
            // SAFETY: the CPU supports AVX2, checked on the line above.
            return unsafe { lstm_cells_avx2(rows, hid, z, c, hq, out) };
        }
        let _ = level;
        lstm_cells_rows(rows, hid, z, c, hq, out);
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn lstm_cells_avx2(
        rows: usize,
        hid: usize,
        z: &[f32],
        c: &mut [f32],
        hq: &mut [i16],
        out: LayerOut<'_>,
    ) {
        lstm_cells_rows(rows, hid, z, c, hq, out);
    }

    #[inline(always)]
    fn lstm_cells_rows(
        rows: usize,
        hid: usize,
        z: &[f32],
        c: &mut [f32],
        hq: &mut [i16],
        out: LayerOut<'_>,
    ) {
        let hp = pad_to(hid, CH_PAD);
        let state = c.chunks_exact_mut(hp).zip(hq.chunks_exact_mut(hp));
        for (r, (z, (c, hq))) in z.chunks_exact(4 * hp).zip(state).take(rows).enumerate() {
            let at = r * out.stride;
            cell_row(hid, z, c, hq, &mut out.f32s[at..], &mut out.q[at..]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic int8-range values.
    fn ints(n: usize, mul: usize, add: usize) -> Vec<i8> {
        (0..n)
            .map(|i| (((i * mul + add) % 255) as i32 - 127) as i8)
            .collect()
    }

    /// The product straight from the canonical layout, in the epilogue's
    /// operation order.
    #[allow(clippy::too_many_arguments)]
    fn naive(
        m: usize,
        a: &[i16],
        k_pad: usize,
        data: &[i8],
        in_dim: usize,
        scales: &[f32],
        act_scale: f32,
        base: impl Fn(usize, usize) -> f32,
    ) -> Vec<f32> {
        let n = scales.len();
        let mut out = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                let acc: i32 = (0..in_dim)
                    .map(|k| i32::from(a[i * k_pad + k]) * i32::from(data[j * in_dim + k]))
                    .sum();
                out[i * n + j] = acc as f32 * (act_scale * scales[j]) + base(i, j);
            }
        }
        out
    }

    #[test]
    fn every_level_matches_the_naive_product() {
        // Odd k, channel counts around the vector and tile widths, one and
        // several rows, with and without a partial last vector.
        for &(m, k, n) in &[
            (1, 1, 1),
            (1, 7, 2),
            (3, 16, 64),
            (5, 33, 67),
            (2, 9, 40),
            (7, 150, 36),
        ] {
            let data = ints(n * k, 31, 5);
            let scales: Vec<f32> = (0..n).map(|j| 0.01 + j as f32 * 1e-4).collect();
            let bias: Vec<f32> = (0..n).map(|j| j as f32 * 0.1 - 1.0).collect();
            let w = PackedWeights::pack(&data, k, pad_to(k, 2), &scales, 0.02, Some(&bias), n, n);
            assert_eq!((w.n(), w.k_pad()), (n, pad_to(k, 2)));
            let k_pad = w.k_pad();
            let mut a = vec![0_i16; m * k_pad];
            for i in 0..m {
                for kk in 0..k {
                    a[i * k_pad + kk] = i16::from(ints(m * k, 17, 3)[i * k + kk]);
                }
            }
            let want = naive(m, &a, k_pad, &data, k, &scales, 0.02, |_, j| bias[j]);
            let seed: Vec<f32> = (0..m * n).map(|i| i as f32 * 0.25 - 3.0).collect();
            let want_acc = naive(m, &a, k_pad, &data, k, &scales, 0.02, |i, j| {
                seed[i * n + j]
            });
            for &level in SimdLevel::available() {
                let mut out = vec![f32::NAN; m * n];
                qgemm(level, m, &a, &w, false, &mut out);
                assert_eq!(out, want, "{} store {m}x{k}x{n}", level.name());
                let mut out = seed.clone();
                qgemm(level, m, &a, &w, true, &mut out);
                assert_eq!(out, want_acc, "{} accumulate {m}x{k}x{n}", level.name());
            }
        }
    }

    #[test]
    fn block_padding_inserts_zero_channels() {
        // 4 blocks of 3 channels padded to 8: channel j lands at
        // (j / 3) · 8 + j % 3 and every other output is exactly zero.
        let (k, block, block_pad) = (5, 3, 8);
        let n = 4 * block;
        let data = ints(n * k, 13, 1);
        let scales = vec![0.5_f32; n];
        let bias: Vec<f32> = (0..n).map(|j| 1.0 + j as f32).collect();
        let w = PackedWeights::pack(&data, k, 6, &scales, 1.0, Some(&bias), block, block_pad);
        assert_eq!(w.n(), 4 * block_pad);
        let a: Vec<i16> = (0..w.k_pad()).map(|i| i as i16 - 2).collect();
        for &level in SimdLevel::available() {
            let mut out = vec![f32::NAN; w.n()];
            qgemm(level, 1, &a, &w, false, &mut out);
            for (ch, &got) in out.iter().enumerate() {
                let (b, u) = (ch / block_pad, ch % block_pad);
                let want = if u < block {
                    let j = b * block + u;
                    let acc: i32 = (0..k)
                        .map(|kk| i32::from(a[kk]) * i32::from(data[j * k + kk]))
                        .sum();
                    acc as f32 * 0.5 + bias[j]
                } else {
                    0.0
                };
                assert_eq!(got, want, "{} channel {ch}", level.name());
            }
        }
    }

    #[test]
    fn quantize_row_clamps_and_pads() {
        let src = [0.0, 1.0, -1.0, 10.0, -10.0];
        let mut dst = vec![99_i16; 8];
        quantize_row(&src, 127.0, &mut dst); // scale = 1/127
        assert_eq!(&dst[..5], &[0, 127, -127, 127, -127]);
        assert!(dst[5..].iter().all(|&v| v == 0), "padding must be zeroed");
        // Ties round away from zero; a poisoned activation quantizes to 0.
        quantize_row(&[0.5, -0.5, 2.5, f32::NAN], 1.0, &mut dst);
        assert_eq!(&dst[..4], &[1, -1, 3, 0]);
    }

    #[test]
    fn activations_are_accurate_odd_monotone_and_saturating() {
        let (mut prev_t, mut prev_s) = (-1.0_f32, 0.0_f32);
        let mut x = -12.0_f32;
        while x <= 12.0 {
            let (t, s) = (tanh_approx(x), sigmoid_approx(x));
            assert!((t - x.tanh()).abs() < 2e-4, "tanh({x}) = {t}");
            let sig = 1.0 / (1.0 + (-x).exp());
            assert!((s - sig).abs() < 2e-4, "sigmoid({x}) = {s}");
            assert_eq!(tanh_approx(-x), -t, "tanh is odd at {x}");
            assert!(t >= prev_t && s >= prev_s, "monotone at {x}");
            assert!(t.abs() <= 1.0 && (0.0..=1.0).contains(&s), "bounded at {x}");
            (prev_t, prev_s) = (t, s);
            x += 0.003;
        }
        // Saturation: constant beyond the clamp, on both sides.
        let top = tanh_approx(TANH_CLAMP);
        assert!(top <= 1.0 && top > 0.9999);
        for x in [5.0, 8.0, 100.0, 1e30, f32::INFINITY] {
            assert_eq!(tanh_approx(x), top);
            assert_eq!(tanh_approx(-x), -top);
            assert_eq!(sigmoid_approx(2.0 * x), 0.5 + 0.5 * top);
        }
        assert!(
            tanh_approx(f32::NAN).is_nan(),
            "NaN must stay visible to the guard"
        );
    }

    #[test]
    fn quantize_equals_round_then_clamp() {
        let old = |x: f32| f32::round(x).clamp(-127.0, 127.0) as i16;
        // Every tie and both of its f32 neighbours, past the clamp too.
        for k in -130..=130 {
            for tie in [k as f32 - 0.5, k as f32 + 0.5] {
                for x in [tie.next_down(), tie, tie.next_up()] {
                    assert_eq!(quantize(x), old(x), "x = {x:?}");
                }
            }
        }
        assert_eq!((quantize(0.5), quantize(-0.5)), (1, -1), "ties round away");
        assert_eq!((quantize(2.5), quantize(-2.5)), (3, -3));
        assert_eq!(quantize(f32::NAN), 0);
        assert_eq!(quantize(f32::INFINITY), 127);
        assert_eq!(quantize(f32::NEG_INFINITY), -127);
        for x in [0.0, -0.0, f32::MIN_POSITIVE, 1e-45, f32::MAX, f32::MIN, 1e9] {
            assert_eq!(quantize(x), old(x), "x = {x:?}");
        }
        // A dense sweep over the clamp range and a little beyond.
        let n = 1_300_000;
        for i in 0..=n {
            let x = -130.0 + 260.0 * (i as f32 / n as f32);
            assert_eq!(quantize(x), old(x), "x = {x:?}");
        }
    }

    /// Gate pre-activations for `rows × hid` units padded to `hp` lanes,
    /// spanning both saturation tails; `seed` varies them per step and
    /// direction.
    fn cell_inputs(rows: usize, hid: usize, hp: usize, seed: usize) -> Vec<f32> {
        let mut z = vec![0.0_f32; rows * 4 * hp];
        for r in 0..rows {
            for j in 0..hid {
                for g in 0..4 {
                    let phase = (r * 11 + g * 5 + j + seed * 3) as f32;
                    z[r * 4 * hp + g * hp + j] = (phase * 0.91).cos() * 7.0;
                }
            }
        }
        z
    }

    /// The cell update of one row by the formula: `(c, h)` per lane.
    fn formula(z: &[f32], c: &[f32], hp: usize) -> (Vec<f32>, Vec<f32>) {
        (0..hp)
            .map(|j| {
                let c = sigmoid_approx(z[hp + j]) * c[j]
                    + sigmoid_approx(z[j]) * tanh_approx(z[2 * hp + j]);
                (c, sigmoid_approx(z[3 * hp + j]) * tanh_approx(c))
            })
            .unzip()
    }

    #[test]
    fn lstm_cells_match_the_scalar_formula_at_every_level() {
        // Two steps of both directions under zero recurrent weights: the
        // second step's update starts from the first one's cell state, and
        // the recurrent products add exactly nothing.
        let t_len = 2;
        for hid in [1, 7, 16, 75, 150] {
            for rows in [1, 3, 8] {
                let hp = pad_to(hid, CH_PAD);
                let zero = vec![0_i8; 4 * hid * hid];
                let wh = PackedWeights::pack(
                    &zero,
                    hid,
                    hp,
                    &vec![1.0; 4 * hid],
                    1.0 / 127.0,
                    None,
                    hid,
                    hp,
                );
                // Three columns past both directions' outputs stay untouched.
                let stride = 2 * hid + 3;
                let gate_rows = t_len * rows * 4 * hp;
                let z: Vec<f32> = (0..2 * t_len)
                    .flat_map(|seed| cell_inputs(rows, hid, hp, seed))
                    .collect();
                let mut reference = None;
                for &level in SimdLevel::available() {
                    let (mut gates, mut c, mut hq) =
                        (z.clone(), vec![7.0; 2 * rows * hp], vec![9; 2 * rows * hp]);
                    let mut out = vec![9.0_f32; t_len * rows * stride];
                    let mut out_q = vec![9_i16; t_len * rows * stride];
                    let pass = BiRecurrence {
                        t_len,
                        batch: rows,
                        hid,
                        wh: [&wh, &wh],
                        gates: &mut gates,
                        c: &mut c,
                        hq: &mut hq,
                        out_f32: &mut out,
                        out_q: &mut out_q,
                        stride,
                    };
                    bilstm_recurrence(level, pass);
                    assert_eq!(gates, z, "zero recurrent weights add nothing");
                    for d in 0..2 {
                        // The forward direction visits t = 0 then 1, the
                        // backward one t = 1 then 0.
                        let order = if d == 0 { [0, 1] } else { [1, 0] };
                        for r in 0..rows {
                            let mut state = vec![0.0; hp];
                            for t in order {
                                let zr = &z[d * gate_rows + (t * rows + r) * 4 * hp..][..4 * hp];
                                let (want_c, want_h) = formula(zr, &state, hp);
                                let at = (t * rows + r) * stride + d * hid;
                                for j in 0..hid {
                                    assert_eq!(out[at + j].to_bits(), want_h[j].to_bits());
                                    assert_eq!(out_q[at + j], quantize(want_h[j] * 127.0));
                                }
                                state = want_c;
                                if t == order[1] {
                                    let s = (d * rows + r) * hp;
                                    for j in 0..hp {
                                        assert_eq!(c[s + j].to_bits(), state[j].to_bits());
                                        assert_eq!(hq[s + j], quantize(want_h[j] * 127.0));
                                        if j >= hid {
                                            assert_eq!((c[s + j], hq[s + j]), (0.0, 0), "padding");
                                        }
                                    }
                                }
                            }
                        }
                    }
                    for row in out.chunks_exact(stride) {
                        assert_eq!(row[2 * hid..], [9.0; 3], "columns past the layer's");
                    }
                    let bytes: Vec<u32> = c.iter().chain(&out).map(|v| v.to_bits()).collect();
                    hq.extend(&out_q);
                    let (want_bytes, want_hq) =
                        reference.get_or_insert((bytes.clone(), hq.clone()));
                    assert_eq!(
                        (&bytes, &hq),
                        (&*want_bytes, &*want_hq),
                        "{} H={hid} B={rows}",
                        level.name()
                    );
                }
            }
        }
    }
}
