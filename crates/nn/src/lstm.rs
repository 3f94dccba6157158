//! LSTM, BiLSTM and stacked-BiLSTM layers (paper §2.2, Fig. 7).
//!
//! Training presents a batch of `B` sequences of `T` steps time-major: one
//! `T·B × dim` matrix whose row `t·B + b` is step `t` of sequence `b`, the
//! layout of the int8 `infer_batch`. Each direction is one tape node
//! ([`Graph::lstm`]): its forward computes `x·Wx` for every row in one GEMM,
//! then runs the recurrence, keeping every step's gate activations and cell
//! state; its backward ([`LstmTape::backward`]) is BPTT written out. Both
//! perform the float operations of the per-op composition they replaced, in
//! its order, so training is bitwise what it was (DESIGN.md, "Training
//! kernel"). [`LstmLayer::infer`] is the tape-free f32 inference path.

use crate::graph::{Graph, Pool, Var};
use crate::init::Initializer;
use crate::matrix::{gemm, gemm_tn, sum_rows_into, Matrix};
use crate::params::{ParamId, ParamStore};
use serde::{Deserialize, Serialize};

/// A single-direction LSTM layer with gate layout `[i | f | g | o]`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LstmLayer {
    /// Input width.
    pub input_dim: usize,
    /// Hidden-state width.
    pub hidden: usize,
    wx: ParamId,
    wh: ParamId,
    b: ParamId,
}

impl LstmLayer {
    /// Allocate weights: `Wx: input×4H` and `Wh: H×4H` Xavier, bias with the
    /// forget gate at 1.
    pub fn new(
        store: &mut ParamStore,
        init: &mut Initializer,
        input_dim: usize,
        hidden: usize,
    ) -> Self {
        let wx = store.register(init.xavier(input_dim, 4 * hidden));
        let wh = store.register(init.xavier(hidden, 4 * hidden));
        let b = store.register(init.lstm_bias(hidden));
        Self {
            input_dim,
            hidden,
            wx,
            wh,
            b,
        }
    }

    /// Run over the time-major sequence `x` (`steps · B × input_dim`) and
    /// return the hidden states (`steps · B × hidden`); `reverse` scans
    /// right-to-left but keeps the input's row order (row `t·B + b` always
    /// describes step `t`).
    pub fn forward(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        x: Var,
        steps: usize,
        reverse: bool,
    ) -> Var {
        g.lstm(store, self, x, steps, reverse)
    }

    /// Parameter handles `(Wx, Wh, b)`.
    pub fn params(&self) -> (ParamId, ParamId, ParamId) {
        (self.wx, self.wh, self.b)
    }
}

/// Bidirectional LSTM: a forward and a backward [`LstmLayer`] whose hidden
/// states are concatenated per timestep, giving width `2 × hidden` (paper
/// §2.2: past *and* future context, which CEP event labeling needs because an
/// event's match membership often depends on later events).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BiLstmLayer {
    /// Forward-direction LSTM.
    pub fwd: LstmLayer,
    /// Backward-direction LSTM.
    pub bwd: LstmLayer,
}

impl BiLstmLayer {
    /// Allocate both directions.
    pub fn new(
        store: &mut ParamStore,
        init: &mut Initializer,
        input_dim: usize,
        hidden: usize,
    ) -> Self {
        Self {
            fwd: LstmLayer::new(store, init, input_dim, hidden),
            bwd: LstmLayer::new(store, init, input_dim, hidden),
        }
    }

    /// Output width per timestep.
    pub fn out_dim(&self) -> usize {
        2 * self.fwd.hidden
    }

    /// Run both directions over the time-major `x` and concatenate per
    /// row: `steps · B × 2H`.
    pub fn forward(&self, g: &mut Graph, store: &ParamStore, x: Var, steps: usize) -> Var {
        let f = self.fwd.forward(g, store, x, steps, false);
        let b = self.bwd.forward(g, store, x, steps, true);
        g.concat_cols(f, b)
    }
}

/// A stack of BiLSTM layers; layer `k+1` consumes layer `k`'s per-timestep
/// outputs. The paper's models use 3 stacked layers with hidden width 75.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StackedBiLstm {
    layers: Vec<BiLstmLayer>,
}

impl StackedBiLstm {
    /// Build `num_layers` BiLSTM layers on top of `input_dim`-wide inputs.
    ///
    /// # Panics
    /// Panics if `num_layers == 0`.
    pub fn new(
        store: &mut ParamStore,
        init: &mut Initializer,
        input_dim: usize,
        hidden: usize,
        num_layers: usize,
    ) -> Self {
        assert!(num_layers > 0, "need at least one BiLSTM layer");
        let mut layers = Vec::with_capacity(num_layers);
        let mut dim = input_dim;
        for _ in 0..num_layers {
            let layer = BiLstmLayer::new(store, init, dim, hidden);
            dim = layer.out_dim();
            layers.push(layer);
        }
        Self { layers }
    }

    /// Number of stacked layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// The stacked layers, bottom first (read-only; used by the int8
    /// quantizer in [`crate::quant`]).
    pub fn layers(&self) -> &[BiLstmLayer] {
        &self.layers
    }

    /// Output width per timestep (`2 × hidden`).
    pub fn out_dim(&self) -> usize {
        self.layers.last().expect("non-empty").out_dim()
    }

    /// Run the full stack over the time-major `x` (`steps · B × input`).
    pub fn forward(&self, g: &mut Graph, store: &ParamStore, x: Var, steps: usize) -> Var {
        self.layers
            .iter()
            .fold(x, |cur, layer| layer.forward(g, store, cur, steps))
    }
}

fn sigmoid(v: f32) -> f32 {
    1.0 / (1.0 + (-v).exp())
}

/// Step `t`'s rows of a time-major buffer whose steps are `width` apart.
fn step_rows(m: &Matrix, t: usize, width: usize) -> &[f32] {
    &m.as_slice()[t * width..(t + 1) * width]
}

/// Block `a` (read) and block `b` (written) of the `len`-element blocks of
/// `data`, `a != b`.
fn block_pair(data: &mut [f32], len: usize, a: usize, b: usize) -> (&[f32], &mut [f32]) {
    if a < b {
        let (lo, hi) = data.split_at_mut(b * len);
        (&lo[a * len..(a + 1) * len], &mut hi[..len])
    } else {
        let (lo, hi) = data.split_at_mut(a * len);
        (&hi[..len], &mut lo[b * len..(b + 1) * len])
    }
}

/// What one direction's forward pass over a time-major sequence keeps for
/// its backward, per row: the gate activations `[i | f | g | o]`, the cell
/// state and its tanh.
pub(crate) struct LstmTape {
    params: (ParamId, ParamId, ParamId),
    steps: usize,
    reverse: bool,
    gates: Matrix,
    c: Matrix,
    tc: Matrix,
}

impl LstmTape {
    /// The step the scan visits `s`-th.
    fn at(&self, s: usize) -> usize {
        if self.reverse {
            self.steps - 1 - s
        } else {
            s
        }
    }

    /// Run `layer` over `x`; returns the tape and the hidden states.
    pub(crate) fn forward(
        store: &ParamStore,
        layer: &LstmLayer,
        x: &Matrix,
        steps: usize,
        reverse: bool,
        pool: &mut Pool,
    ) -> (Self, Matrix) {
        let (rows, hid) = (x.rows(), layer.hidden);
        let g4 = 4 * hid;
        let batch = rows.checked_div(steps).unwrap_or(0);
        assert_eq!(batch * steps, rows, "a sequence has steps × batch rows");
        assert_eq!(x.cols(), layer.input_dim, "LSTM input width");
        assert!(hid > 0, "LSTM hidden width");
        let (wx, wh, bias) = (
            store.value(layer.wx),
            store.value(layer.wh),
            store.value(layer.b),
        );
        let mut tape = Self {
            params: layer.params(),
            steps,
            reverse,
            gates: pool.zeros(rows, g4),
            c: pool.zeros(rows, hid),
            tc: pool.zeros(rows, hid),
        };
        let mut h = pool.zeros(rows, hid);
        let mut hz = pool.zeros(batch, g4);
        let c0 = pool.zeros(batch, hid);
        // `x·Wx` for every step at once; each step then adds its recurrent
        // product and the bias, in that order: `z = (x·Wx + h·Wh) + b`.
        gemm(
            x.as_slice(),
            x.cols(),
            wx.as_slice(),
            g4,
            tape.gates.as_mut_slice(),
        );
        let (zw, sw) = (batch * g4, batch * hid);
        for s in 0..steps {
            let t = tape.at(s);
            let prev = s.checked_sub(1).map(|p| tape.at(p));
            let z = &mut tape.gates.as_mut_slice()[t * zw..(t + 1) * zw];
            if let Some(p) = prev {
                let h_prev = &h.as_slice()[p * sw..(p + 1) * sw];
                gemm(h_prev, hid, wh.as_slice(), g4, hz.as_mut_slice());
                for (zi, &hi) in z.iter_mut().zip(hz.as_slice()) {
                    *zi += hi;
                }
            }
            let (c_prev, c) = match prev {
                Some(p) => block_pair(tape.c.as_mut_slice(), sw, p, t),
                None => (
                    c0.as_slice(),
                    &mut tape.c.as_mut_slice()[t * sw..(t + 1) * sw],
                ),
            };
            let tc = &mut tape.tc.as_mut_slice()[t * sw..(t + 1) * sw];
            let h_t = &mut h.as_mut_slice()[t * sw..(t + 1) * sw];
            let state = c.chunks_exact_mut(hid).zip(tc.chunks_exact_mut(hid));
            let rows_t = z.chunks_exact_mut(g4).zip(c_prev.chunks_exact(hid));
            for ((z, c_prev), ((c, tc), h)) in rows_t.zip(state.zip(h_t.chunks_exact_mut(hid))) {
                for (zi, &bi) in z.iter_mut().zip(bias.as_slice()) {
                    *zi += bi;
                }
                let (i_f, g_o) = z.split_at_mut(2 * hid);
                let (g, o) = g_o.split_at_mut(hid);
                for v in i_f.iter_mut().chain(o.iter_mut()) {
                    *v = sigmoid(*v);
                }
                for v in g.iter_mut() {
                    *v = v.tanh();
                }
                let (i, f) = i_f.split_at(hid);
                for j in 0..hid {
                    c[j] = f[j] * c_prev[j] + i[j] * g[j];
                    tc[j] = c[j].tanh();
                    h[j] = o[j] * tc[j];
                }
            }
        }
        pool.give(hz);
        pool.give(c0);
        (tape, h)
    }

    /// BPTT through the forward that took `x` to `h`, given `dh_out`, the
    /// gradient of `h` from the nodes above. Weight gradients accumulate
    /// into `store` one step at a time, in reverse scan order; `dx`, when
    /// given, has the input gradient added onto what it holds.
    pub(crate) fn backward(
        &self,
        store: &mut ParamStore,
        x: &Matrix,
        h: &Matrix,
        dh_out: &Matrix,
        mut dx: Option<&mut Matrix>,
        pool: &mut Pool,
    ) {
        let (wx_id, wh_id, b_id) = self.params;
        let (rows, hid) = h.shape();
        let (in_dim, g4, steps) = (x.cols(), 4 * hid, self.steps);
        let batch = rows.checked_div(steps).unwrap_or(0);
        let (zw, sw, xw) = (batch * g4, batch * hid, batch * in_dim);
        // Both transposes once per pass, so every product below runs the
        // k-j kernel.
        let mut wht = pool.zeros(0, 0);
        store.value(wh_id).transpose_into(&mut wht);
        let mut wxt = pool.zeros(0, 0);
        if dx.is_some() {
            store.value(wx_id).transpose_into(&mut wxt);
        }
        let mut dz = pool.zeros(batch, g4);
        // Zero until a later step writes them: at the last step the
        // recurrent and carried gradients add nothing (`x + 0.0 == x` for
        // every gradient that can reach a parameter), so one branch-free
        // loop serves every step.
        let mut dh_rec = pool.zeros(batch, hid);
        let mut dc_carry = pool.zeros(batch, hid);
        let c0 = pool.zeros(batch, hid);
        let mut part_x = pool.zeros(in_dim, g4);
        let mut part_h = pool.zeros(hid, g4);
        let mut part_b = pool.zeros(1, g4);
        let mut dx_t = pool.zeros(batch, in_dim);
        for s in (0..steps).rev() {
            let t = self.at(s);
            let prev = s.checked_sub(1).map(|p| self.at(p));
            let c_prev = match prev {
                Some(p) => &self.c.as_slice()[p * sw..(p + 1) * sw],
                None => c0.as_slice(),
            };
            let gates = &self.gates.as_slice()[t * zw..(t + 1) * zw];
            let rows_in = gates
                .chunks_exact(g4)
                .zip(step_rows(&self.tc, t, sw).chunks_exact(hid));
            let rows_in = rows_in.zip(
                step_rows(dh_out, t, sw)
                    .chunks_exact(hid)
                    .zip(c_prev.chunks_exact(hid)),
            );
            let rows_rec = dh_rec.as_slice().chunks_exact(hid);
            let rows_out = dz.as_mut_slice().chunks_exact_mut(g4);
            let rows_out = rows_out.zip(dc_carry.as_mut_slice().chunks_exact_mut(hid));
            for (((z, tc), (d_out, c_prev)), (dh_rec, (dz, dc_carry))) in
                rows_in.zip(rows_rec.zip(rows_out))
            {
                let (i, f, g, o) = (
                    &z[..hid],
                    &z[hid..2 * hid],
                    &z[2 * hid..3 * hid],
                    &z[3 * hid..4 * hid],
                );
                let (tc, d_out, c_prev) = (&tc[..hid], &d_out[..hid], &c_prev[..hid]);
                let (dh_rec, dc_carry) = (&dh_rec[..hid], &mut dc_carry[..hid]);
                let (dzi, rest) = dz.split_at_mut(hid);
                let (dzf, rest) = rest.split_at_mut(hid);
                let (dzg, dzo) = rest.split_at_mut(hid);
                let dzo = &mut dzo[..hid];
                for j in 0..hid {
                    // The per-op tape's accumulation order: the output
                    // gradient first, then the recurrent one; the cell
                    // gradient carried from the next step first, then the
                    // one through tanh(c). Products multiply left to right
                    // as each op's backward did.
                    let dh = d_out[j] + dh_rec[j];
                    let dc = dc_carry[j] + dh * o[j] * (1.0 - tc[j] * tc[j]);
                    dc_carry[j] = dc * f[j];
                    dzi[j] = dc * g[j] * i[j] * (1.0 - i[j]);
                    dzf[j] = dc * c_prev[j] * f[j] * (1.0 - f[j]);
                    dzg[j] = dc * i[j] * (1.0 - g[j] * g[j]);
                    dzo[j] = dh * tc[j] * o[j] * (1.0 - o[j]);
                }
            }
            let dz_t = dz.as_slice();
            sum_rows_into(dz_t, g4, part_b.as_mut_slice());
            store.grad_mut(b_id).axpy(1.0, &part_b);
            let x_t = &x.as_slice()[t * xw..(t + 1) * xw];
            gemm_tn(x_t, in_dim, dz_t, g4, part_x.as_mut_slice());
            store.grad_mut(wx_id).axpy(1.0, &part_x);
            // The first step's `h_prev` is zero: no `Wh` partial, and no
            // recurrent gradient to pass on.
            if let Some(p) = prev {
                let h_prev = &h.as_slice()[p * sw..(p + 1) * sw];
                gemm_tn(h_prev, hid, dz_t, g4, part_h.as_mut_slice());
                store.grad_mut(wh_id).axpy(1.0, &part_h);
                gemm(dz_t, g4, wht.as_slice(), hid, dh_rec.as_mut_slice());
            }
            if let Some(dx) = dx.as_deref_mut() {
                gemm(dz_t, g4, wxt.as_slice(), in_dim, dx_t.as_mut_slice());
                let dx_rows = &mut dx.as_mut_slice()[t * xw..(t + 1) * xw];
                for (d, &v) in dx_rows.iter_mut().zip(dx_t.as_slice()) {
                    *d += v;
                }
            }
        }
        for m in [
            wht, wxt, dz, dh_rec, dc_carry, c0, part_x, part_h, part_b, dx_t,
        ] {
            pool.give(m);
        }
    }

    /// Hand the kept buffers back to `pool`.
    pub(crate) fn release(self, pool: &mut Pool) {
        for m in [self.gates, self.c, self.tc] {
            pool.give(m);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::{Adam, Optimizer};

    /// One sequence (`B = 1`) as a time-major input: a row per step.
    fn seq_input(g: &mut Graph, data: &[Vec<f32>]) -> Var {
        let cols = data.first().map_or(0, Vec::len);
        g.input(Matrix::from_vec(data.len(), cols, data.concat()))
    }

    #[test]
    fn lstm_output_shapes() {
        let mut store = ParamStore::new();
        let mut init = Initializer::seeded(0);
        let lstm = LstmLayer::new(&mut store, &mut init, 3, 5);
        let mut g = Graph::new();
        let x = seq_input(&mut g, &[vec![0.1, 0.2, 0.3], vec![0.4, 0.5, 0.6]]);
        let h = lstm.forward(&mut g, &store, x, 2, false);
        assert_eq!(g.value(h).shape(), (2, 5));
    }

    #[test]
    fn empty_sequence_yields_empty() {
        let mut store = ParamStore::new();
        let mut init = Initializer::seeded(0);
        let lstm = LstmLayer::new(&mut store, &mut init, 3, 5);
        let mut g = Graph::new();
        let x = g.input(Matrix::zeros(0, 3));
        let h = lstm.forward(&mut g, &store, x, 0, false);
        assert!(g.value(h).is_empty());
    }

    #[test]
    fn reverse_aligns_to_input_order() {
        // A reversed scan over a palindromic sequence must equal the forward
        // scan read backwards.
        let mut store = ParamStore::new();
        let mut init = Initializer::seeded(3);
        let lstm = LstmLayer::new(&mut store, &mut init, 2, 4);
        let data = vec![vec![0.5, -0.5], vec![1.0, 0.0], vec![0.5, -0.5]];
        let mut g = Graph::new();
        let x = seq_input(&mut g, &data);
        let fwd = lstm.forward(&mut g, &store, x, 3, false);
        let mut g2 = Graph::new();
        let rev_data: Vec<_> = data.iter().rev().cloned().collect();
        let x2 = seq_input(&mut g2, &rev_data);
        let bwd = lstm.forward(&mut g2, &store, x2, 3, true);
        // bwd on reversed input, re-aligned, equals fwd on original, reversed.
        for t in 0..3 {
            let expect = g.value(fwd).row(t);
            let got = g2.value(bwd).row(2 - t);
            for (a, b) in expect.iter().zip(got) {
                assert!((a - b).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn bilstm_concats_directions() {
        let mut store = ParamStore::new();
        let mut init = Initializer::seeded(0);
        let bi = BiLstmLayer::new(&mut store, &mut init, 3, 4);
        assert_eq!(bi.out_dim(), 8);
        let mut g = Graph::new();
        let x = seq_input(&mut g, &vec![vec![0.1, 0.2, 0.3]; 4]);
        let h = bi.forward(&mut g, &store, x, 4);
        assert_eq!(g.value(h).shape(), (4, 8));
    }

    #[test]
    fn stacked_shapes() {
        let mut store = ParamStore::new();
        let mut init = Initializer::seeded(0);
        let stack = StackedBiLstm::new(&mut store, &mut init, 3, 4, 3);
        assert_eq!(stack.num_layers(), 3);
        assert_eq!(stack.out_dim(), 8);
        let mut g = Graph::new();
        let x = seq_input(&mut g, &vec![vec![0.1, 0.2, 0.3]; 5]);
        let h = stack.forward(&mut g, &store, x, 5);
        assert_eq!(g.value(h).shape(), (5, 8));
    }

    #[test]
    fn lstm_learns_last_element_sign() {
        // Tiny sanity task: classify by the sign of the last input. An LSTM
        // must keep (at minimum) recent information, so loss should drop
        // substantially within a few hundred steps.
        use crate::linear::Linear;
        let mut store = ParamStore::new();
        let mut init = Initializer::seeded(11);
        let lstm = LstmLayer::new(&mut store, &mut init, 1, 6);
        let head = Linear::new(&mut store, &mut init, 6, 1);
        let mut opt = Adam::new(0.02);
        let seqs: Vec<(Vec<f32>, f32)> = vec![
            (vec![0.3, -0.2, 0.8], 1.0),
            (vec![-0.5, 0.4, -0.9], 0.0),
            (vec![0.9, 0.1, -0.4], 0.0),
            (vec![-0.1, -0.7, 0.6], 1.0),
        ];
        // The four sequences as one time-major batch: row `t·4 + b`.
        let batch = seqs.len();
        let x = Matrix::from_fn(3 * batch, 1, |r, _| seqs[r % batch].0[r / batch]);
        let targets = Matrix::from_fn(batch, 1, |b, _| seqs[b].1);
        let mut first = 0.0;
        let mut last = 0.0;
        for step in 0..300 {
            store.zero_grads();
            let mut g = Graph::new();
            let xin = g.input(x.clone());
            let hs = lstm.forward(&mut g, &store, xin, 3, false);
            let h_last = g.slice_rows(hs, 2 * batch, batch);
            let logit = head.forward(&mut g, &store, h_last);
            let loss = g.bce_with_logits(logit, targets.clone());
            let loss_val = g.value(loss).get(0, 0);
            if step == 0 {
                first = loss_val;
            }
            last = loss_val;
            g.backward(loss, &mut store);
            store.clip_grad_norm(5.0);
            opt.step(&mut store);
        }
        assert!(
            last < first * 0.2,
            "loss {first} -> {last} did not drop enough"
        );
    }
}

impl LstmLayer {
    /// Tape-free inference over a sequence laid out as a `T×input` matrix
    /// (row per timestep). Returns `T×hidden`. This is the hot path of the
    /// DLACEP filter: it avoids all autograd bookkeeping and performs one
    /// `T×input · input×4H` GEMM per call plus `T` small recurrences.
    pub fn infer(&self, store: &ParamStore, xs: &Matrix, reverse: bool) -> Matrix {
        let t_len = xs.rows();
        let h = self.hidden;
        let mut out = Matrix::zeros(t_len, h);
        if t_len == 0 {
            return out;
        }
        let wx = store.value(self.wx);
        let wh = store.value(self.wh);
        let bias = store.value(self.b);
        let xw = xs.matmul(wx); // T×4H, one big GEMM
        let mut hv = vec![0.0_f32; h];
        let mut cv = vec![0.0_f32; h];
        let mut z = vec![0.0_f32; 4 * h];
        let steps: Vec<usize> = if reverse {
            (0..t_len).rev().collect()
        } else {
            (0..t_len).collect()
        };
        for &t in &steps {
            // z = xw[t] + h · Wh + b
            z.copy_from_slice(xw.row(t));
            for (zi, &bi) in z.iter_mut().zip(bias.row(0)) {
                *zi += bi;
            }
            for (k, &hk) in hv.iter().enumerate() {
                if hk == 0.0 {
                    continue;
                }
                let wrow = wh.row(k);
                for (zi, &wkj) in z.iter_mut().zip(wrow) {
                    *zi += hk * wkj;
                }
            }
            for j in 0..h {
                let i = 1.0 / (1.0 + (-z[j]).exp());
                let f = 1.0 / (1.0 + (-z[h + j]).exp());
                let g = z[2 * h + j].tanh();
                let o = 1.0 / (1.0 + (-z[3 * h + j]).exp());
                cv[j] = f * cv[j] + i * g;
                hv[j] = o * cv[j].tanh();
            }
            out.row_mut(t).copy_from_slice(&hv);
        }
        out
    }
}

impl BiLstmLayer {
    /// Tape-free inference: `T×input` → `T×2H` (forward ‖ backward).
    pub fn infer(&self, store: &ParamStore, xs: &Matrix) -> Matrix {
        let f = self.fwd.infer(store, xs, false);
        let b = self.bwd.infer(store, xs, true);
        f.concat_cols(&b)
    }
}

impl StackedBiLstm {
    /// Tape-free inference through the whole stack: `T×input` → `T×2H`.
    pub fn infer(&self, store: &ParamStore, xs: &Matrix) -> Matrix {
        let mut cur = xs.clone();
        for layer in &self.layers {
            cur = layer.infer(store, &cur);
        }
        cur
    }
}

#[cfg(test)]
mod infer_tests {
    use super::*;

    fn to_matrix(data: &[Vec<f32>]) -> Matrix {
        let cols = data[0].len();
        let mut m = Matrix::zeros(data.len(), cols);
        for (r, row) in data.iter().enumerate() {
            m.row_mut(r).copy_from_slice(row);
        }
        m
    }

    #[test]
    fn infer_matches_graph_forward() {
        let mut store = ParamStore::new();
        let mut init = Initializer::seeded(17);
        let stack = StackedBiLstm::new(&mut store, &mut init, 3, 5, 2);
        let data: Vec<Vec<f32>> = (0..7)
            .map(|t| (0..3).map(|d| ((t * 3 + d) as f32 * 0.31).sin()).collect())
            .collect();
        // Graph path (batch = 1).
        let mut g = Graph::new();
        let x = g.input(to_matrix(&data));
        let hs = stack.forward(&mut g, &store, x, 7);
        // Fast path.
        let fast = stack.infer(&store, &to_matrix(&data));
        assert_eq!(fast.shape(), (7, 10));
        for t in 0..7 {
            for (a, b) in g.value(hs).row(t).iter().zip(fast.row(t)) {
                assert!((a - b).abs() < 1e-5, "t={t}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn infer_empty_sequence() {
        let mut store = ParamStore::new();
        let mut init = Initializer::seeded(1);
        let lstm = LstmLayer::new(&mut store, &mut init, 2, 3);
        let out = lstm.infer(&store, &Matrix::zeros(0, 2), false);
        assert_eq!(out.shape(), (0, 3));
    }
}
