//! Tape-based reverse-mode automatic differentiation.
//!
//! A [`Graph`] records every forward operation on a tape; [`Graph::backward`]
//! (or [`Graph::backward_seeded`] for heads with analytic gradients, like the
//! CRF in [`crate::crf`]) replays it in reverse, accumulating parameter
//! gradients into a [`ParamStore`].
//!
//! The tape is rebuilt per training step. A recurrent layer is one node per
//! direction over a whole time-major sequence ([`Graph::lstm`]; its forward
//! and its analytic backward live in [`crate::lstm`]), so a step records a
//! handful of nodes. [`Graph::clear`] drops them but keeps their buffers,
//! which the next step's nodes reuse.

use crate::lstm::{LstmLayer, LstmTape};
use crate::matrix::{gemm, gemm_tn, sum_rows_into, Matrix};
use crate::params::{ParamId, ParamStore};
use std::borrow::Borrow;

/// Handle to a node on the tape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Var(usize);

enum Op {
    /// External input; no gradient propagation.
    Input,
    /// Read of a trainable parameter; gradient accumulates into the store.
    Param(ParamId),
    MatMul(Var, Var),
    Add(Var, Var),
    Scale(Var, f32),
    AddRowBroadcast(Var, Var),
    ConcatCols(Var, Var),
    SliceRows(Var, usize, usize),
    /// Binary cross-entropy with logits against fixed targets; produces the
    /// mean loss as a 1×1 matrix.
    BceWithLogits(Var, Matrix),
    /// One LSTM direction over the time-major sequence in the `Var`.
    Lstm(Var, Box<LstmTape>),
    /// `x·W + b` on every row of a time-major sequence of `steps` steps.
    StepLinear {
        x: Var,
        w: ParamId,
        b: ParamId,
        steps: usize,
    },
}

struct Node {
    op: Op,
    value: Matrix,
    grad: Option<Matrix>,
}

/// Buffers of cleared tapes, handed back out to the next step's nodes.
#[derive(Default)]
pub(crate) struct Pool {
    spare: Vec<Vec<f32>>,
    /// Buffers handed out since the last [`Pool::trim`].
    taken: usize,
}

impl Pool {
    /// A zeroed `rows × cols` matrix in the smallest spare buffer that holds
    /// it, or else in the largest one, grown.
    pub(crate) fn zeros(&mut self, rows: usize, cols: usize) -> Matrix {
        let len = rows * cols;
        let spare = self.spare.iter().enumerate();
        let fits = spare
            .clone()
            .filter(|(_, v)| v.capacity() >= len)
            .min_by_key(|(_, v)| v.capacity());
        let pick = fits.or_else(|| spare.max_by_key(|(_, v)| v.capacity()));
        let mut data = match pick.map(|(i, _)| i) {
            Some(i) => self.spare.swap_remove(i),
            None => Vec::new(),
        };
        self.taken += 1;
        data.clear();
        data.resize(len, 0.0);
        Matrix::from_vec(rows, cols, data)
    }

    /// Keep `m`'s buffer for reuse.
    pub(crate) fn give(&mut self, m: Matrix) {
        self.spare.push(m.into_vec());
    }

    /// Keep no more spare buffers than were handed out since the last trim
    /// (the largest ones), so buffers that enter from outside — the results
    /// of the small generic ops — do not pile up from step to step.
    fn trim(&mut self) {
        if self.spare.len() > self.taken {
            self.spare
                .sort_unstable_by_key(|v| std::cmp::Reverse(v.capacity()));
            self.spare.truncate(self.taken);
        }
        self.taken = 0;
    }
}

/// The autodiff tape.
#[derive(Default)]
pub struct Graph {
    nodes: Vec<Node>,
    pool: Pool,
}

impl Graph {
    /// Empty tape.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drop every node, keeping its buffers for the next step's nodes.
    pub fn clear(&mut self) {
        for node in self.nodes.drain(..) {
            self.pool.give(node.value);
            if let Some(g) = node.grad {
                self.pool.give(g);
            }
            match node.op {
                Op::Lstm(_, tape) => tape.release(&mut self.pool),
                Op::BceWithLogits(_, targets) => self.pool.give(targets),
                _ => {}
            }
        }
        self.pool.trim();
    }

    /// A zeroed matrix in one of the tape's recycled buffers, e.g. for an
    /// [`Graph::input`] that every step rebuilds.
    pub fn zeros(&mut self, rows: usize, cols: usize) -> Matrix {
        self.pool.zeros(rows, cols)
    }

    fn push(&mut self, op: Op, value: Matrix) -> Var {
        self.nodes.push(Node {
            op,
            value,
            grad: None,
        });
        Var(self.nodes.len() - 1)
    }

    /// Current value of a node.
    pub fn value(&self, v: Var) -> &Matrix {
        &self.nodes[v.0].value
    }

    /// Gradient of a node after a backward pass, if any reached it.
    pub fn grad(&self, v: Var) -> Option<&Matrix> {
        self.nodes[v.0].grad.as_ref()
    }

    /// Number of tape nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Record an external input.
    pub fn input(&mut self, value: Matrix) -> Var {
        self.push(Op::Input, value)
    }

    /// Record a parameter read. The value is copied onto the tape once; reuse
    /// the returned `Var` for all uses within this graph.
    pub fn param(&mut self, store: &ParamStore, id: ParamId) -> Var {
        let src = store.value(id);
        let mut value = self.pool.zeros(src.rows(), src.cols());
        value.as_mut_slice().copy_from_slice(src.as_slice());
        self.push(Op::Param(id), value)
    }

    /// `a · b`.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).matmul(self.value(b));
        self.push(Op::MatMul(a, b), value)
    }

    /// `a + b` (same shape).
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).add(self.value(b));
        self.push(Op::Add(a, b), value)
    }

    /// `c * a`.
    pub fn scale(&mut self, a: Var, c: f32) -> Var {
        let value = self.value(a).map(|v| c * v);
        self.push(Op::Scale(a, c), value)
    }

    /// Add a 1×n bias row to each row of `a`.
    pub fn add_row_broadcast(&mut self, a: Var, bias: Var) -> Var {
        let value = self.value(a).add_row_broadcast(self.value(bias));
        self.push(Op::AddRowBroadcast(a, bias), value)
    }

    /// Horizontal concatenation `[a | b]`.
    pub fn concat_cols(&mut self, a: Var, b: Var) -> Var {
        let (va, vb) = (&self.nodes[a.0].value, &self.nodes[b.0].value);
        assert_eq!(va.rows(), vb.rows(), "concat_cols row mismatch");
        let mut value = self.pool.zeros(va.rows(), va.cols() + vb.cols());
        for r in 0..va.rows() {
            let (left, right) = value.row_mut(r).split_at_mut(va.cols());
            left.copy_from_slice(va.row(r));
            right.copy_from_slice(vb.row(r));
        }
        self.push(Op::ConcatCols(a, b), value)
    }

    /// Copy of rows `[start, start+len)`.
    pub fn slice_rows(&mut self, a: Var, start: usize, len: usize) -> Var {
        let value = self.value(a).slice_rows(start, len);
        self.push(Op::SliceRows(a, start, len), value)
    }

    /// Mean binary cross-entropy between `sigmoid(logits)` and fixed
    /// `targets` (same shape), computed in a numerically stable form.
    /// Returns a 1×1 loss node.
    pub fn bce_with_logits(&mut self, logits: Var, targets: Matrix) -> Var {
        let x = self.value(logits);
        assert_eq!(x.shape(), targets.shape(), "bce target shape mismatch");
        let n = x.len().max(1) as f32;
        let mut loss = 0.0_f64;
        for (&xi, &ti) in x.as_slice().iter().zip(targets.as_slice()) {
            // max(x,0) - x*t + ln(1 + e^{-|x|})
            let l = xi.max(0.0) - xi * ti + (1.0 + (-xi.abs()).exp()).ln();
            loss += l as f64;
        }
        let value = Matrix::from_vec(1, 1, vec![(loss / n as f64) as f32]);
        self.push(Op::BceWithLogits(logits, targets), value)
    }

    /// One LSTM direction over the time-major sequence `x` (`steps · B ×
    /// input_dim`, row `t·B + b` is step `t` of sequence `b`); the hidden
    /// states come back in the same layout. See [`LstmLayer::forward`].
    pub fn lstm(
        &mut self,
        store: &ParamStore,
        layer: &LstmLayer,
        x: Var,
        steps: usize,
        reverse: bool,
    ) -> Var {
        let x_value = &self.nodes[x.0].value;
        let (tape, h) = LstmTape::forward(store, layer, x_value, steps, reverse, &mut self.pool);
        self.push(Op::Lstm(x, Box::new(tape)), h)
    }

    /// `x·W + b` for the parameters `(W, b)` on every row of the time-major
    /// sequence `x` of `steps` steps: one GEMM over all rows forward; the
    /// weight gradient is summed one step at a time, last step first, as a
    /// layer applied per step would sum it.
    pub fn step_linear(
        &mut self,
        store: &ParamStore,
        (w, b): (ParamId, ParamId),
        x: Var,
        steps: usize,
    ) -> Var {
        let xv = &self.nodes[x.0].value;
        let (wv, bv) = (store.value(w), store.value(b));
        assert_eq!(xv.cols(), wv.rows(), "step_linear input width");
        let batch = xv.rows().checked_div(steps).unwrap_or(0);
        assert_eq!(
            batch * steps,
            xv.rows(),
            "a sequence has steps × batch rows"
        );
        let mut y = self.pool.zeros(xv.rows(), wv.cols());
        gemm(
            xv.as_slice(),
            xv.cols(),
            wv.as_slice(),
            wv.cols(),
            y.as_mut_slice(),
        );
        for r in 0..y.rows() {
            for (o, &bias) in y.row_mut(r).iter_mut().zip(bv.as_slice()) {
                *o += bias;
            }
        }
        self.push(Op::StepLinear { x, w, b, steps }, y)
    }

    fn accumulate(&mut self, v: Var, delta: &Matrix) {
        let node = &mut self.nodes[v.0];
        match &mut node.grad {
            Some(g) => g.axpy(1.0, delta),
            None => {
                let mut g = self.pool.zeros(delta.rows(), delta.cols());
                g.as_mut_slice().copy_from_slice(delta.as_slice());
                node.grad = Some(g);
            }
        }
    }

    /// `v`'s gradient, zeroed if nothing has reached it yet.
    fn grad_buf(&mut self, v: Var) -> &mut Matrix {
        let node = &mut self.nodes[v.0];
        let (rows, cols) = node.value.shape();
        node.grad.get_or_insert_with(|| self.pool.zeros(rows, cols))
    }

    /// Backward pass from a scalar (1×1) loss node. Parameter gradients are
    /// accumulated into `store` (they are *not* zeroed first — call
    /// [`ParamStore::zero_grads`] between steps).
    ///
    /// # Panics
    /// Panics if `loss` is not 1×1.
    pub fn backward(&mut self, loss: Var, store: &mut ParamStore) {
        assert_eq!(self.value(loss).shape(), (1, 1), "loss must be scalar");
        let seed = Matrix::from_vec(1, 1, vec![1.0]);
        self.backward_seeded(&[(loss, seed)], store);
    }

    /// Backward pass from explicit gradient seeds. Used by heads whose
    /// gradient is computed analytically outside the tape (the CRF layer
    /// seeds the emission nodes directly).
    pub fn backward_seeded<M: Borrow<Matrix>>(
        &mut self,
        seeds: &[(Var, M)],
        store: &mut ParamStore,
    ) {
        for (v, g) in seeds {
            let g = g.borrow();
            assert_eq!(
                self.value(*v).shape(),
                g.shape(),
                "seed gradient shape mismatch"
            );
            self.accumulate(*v, g);
        }
        for idx in (0..self.nodes.len()).rev() {
            let Some(g) = self.nodes[idx].grad.take() else {
                continue;
            };
            let op = std::mem::replace(&mut self.nodes[idx].op, Op::Input);
            self.backprop(idx, &op, &g, store);
            // Put both back: callers may inspect the gradient, and `clear`
            // recycles the buffers.
            let node = &mut self.nodes[idx];
            node.op = op;
            node.grad = Some(g);
        }
    }

    /// Propagate node `idx`'s gradient `g` through its `op`.
    fn backprop(&mut self, idx: usize, op: &Op, g: &Matrix, store: &mut ParamStore) {
        match *op {
            Op::Input => {}
            Op::Param(id) => store.grad_mut(id).axpy(1.0, g),
            Op::MatMul(a, b) => {
                // `bᵀ` materialised so the product runs the k-j kernel.
                let ga = g.matmul(&self.value(b).transpose());
                let gb = self.value(a).transpose_matmul(g);
                self.accumulate(a, &ga);
                self.accumulate(b, &gb);
            }
            Op::Add(a, b) => {
                self.accumulate(a, g);
                self.accumulate(b, g);
            }
            Op::Scale(a, c) => {
                let ga = g.map(|v| c * v);
                self.accumulate(a, &ga);
            }
            Op::AddRowBroadcast(a, bias) => {
                self.accumulate(a, g);
                let gb = g.sum_rows();
                self.accumulate(bias, &gb);
            }
            Op::ConcatCols(a, b) => {
                let ac = self.value(a).cols();
                add_cols(self.grad_buf(a), g, 0);
                add_cols(self.grad_buf(b), g, ac);
            }
            Op::SliceRows(a, start, len) => {
                let ga = self.grad_buf(a);
                for r in 0..len {
                    for (d, &s) in ga.row_mut(start + r).iter_mut().zip(g.row(r)) {
                        *d += s;
                    }
                }
            }
            Op::BceWithLogits(a, ref targets) => {
                let x = self.value(a);
                let n = x.len().max(1) as f32;
                let scale = g.get(0, 0) / n;
                let ga = Matrix::from_vec(
                    x.rows(),
                    x.cols(),
                    x.as_slice()
                        .iter()
                        .zip(targets.as_slice())
                        .map(|(&xi, &ti)| {
                            let y = 1.0 / (1.0 + (-xi).exp());
                            scale * (y - ti)
                        })
                        .collect(),
                );
                self.accumulate(a, &ga);
            }
            Op::Lstm(x, ref tape) => {
                // An `Input` needs no gradient: skip the `dz · Wxᵀ` products.
                let mut dx = (!matches!(self.nodes[x.0].op, Op::Input)).then(|| {
                    let node = &mut self.nodes[x.0];
                    let (rows, cols) = node.value.shape();
                    node.grad
                        .take()
                        .unwrap_or_else(|| self.pool.zeros(rows, cols))
                });
                let (xv, h) = (&self.nodes[x.0].value, &self.nodes[idx].value);
                tape.backward(store, xv, h, g, dx.as_mut(), &mut self.pool);
                if let Some(dx) = dx {
                    self.nodes[x.0].grad = Some(dx);
                }
            }
            Op::StepLinear { x, w, b, steps } => {
                let (rows, n) = g.shape();
                let batch = rows.checked_div(steps).unwrap_or(0);
                let in_dim = self.value(x).cols();
                let mut part_w = self.pool.zeros(in_dim, n);
                let mut part_b = self.pool.zeros(1, n);
                let xv = &self.nodes[x.0].value;
                let (gw, xw) = (batch * n, batch * in_dim);
                for t in (0..steps).rev() {
                    let g_t = &g.as_slice()[t * gw..(t + 1) * gw];
                    sum_rows_into(g_t, n, part_b.as_mut_slice());
                    store.grad_mut(b).axpy(1.0, &part_b);
                    let x_t = &xv.as_slice()[t * xw..(t + 1) * xw];
                    gemm_tn(x_t, in_dim, g_t, n, part_w.as_mut_slice());
                    store.grad_mut(w).axpy(1.0, &part_w);
                }
                self.pool.give(part_w);
                self.pool.give(part_b);
                if !matches!(self.nodes[x.0].op, Op::Input) {
                    let mut wt = self.pool.zeros(0, 0);
                    store.value(w).transpose_into(&mut wt);
                    let mut dx = self.pool.zeros(rows, in_dim);
                    gemm(g.as_slice(), n, wt.as_slice(), in_dim, dx.as_mut_slice());
                    self.grad_buf(x).axpy(1.0, &dx);
                    self.pool.give(dx);
                    self.pool.give(wt);
                }
            }
        }
    }
}

/// `dst[r] += src[r][start .. start + dst.cols]` for every row.
fn add_cols(dst: &mut Matrix, src: &Matrix, start: usize) {
    let cols = dst.cols();
    for r in 0..src.rows() {
        for (d, &s) in dst
            .row_mut(r)
            .iter_mut()
            .zip(&src.row(r)[start..start + cols])
        {
            *d += s;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Finite-difference check of d loss / d param for a tiny composite graph.
    fn numeric_grad(
        build: &dyn Fn(&mut Graph, &ParamStore, ParamId) -> Var,
        store: &mut ParamStore,
        id: ParamId,
        r: usize,
        c: usize,
    ) -> f32 {
        let eps = 1e-3;
        let orig = store.value(id).get(r, c);
        store.value_mut(id).set(r, c, orig + eps);
        let mut g = Graph::new();
        let v = build(&mut g, store, id);
        let hi = g.value(v).get(0, 0);
        store.value_mut(id).set(r, c, orig - eps);
        let mut g = Graph::new();
        let v = build(&mut g, store, id);
        let lo = g.value(v).get(0, 0);
        store.value_mut(id).set(r, c, orig);
        (hi - lo) / (2.0 * eps)
    }

    fn check_all(build: &dyn Fn(&mut Graph, &ParamStore, ParamId) -> Var, init: Matrix) {
        let mut store = ParamStore::new();
        let id = store.register(init);
        let mut g = Graph::new();
        let loss = build(&mut g, &store, id);
        g.backward(loss, &mut store);
        let (rows, cols) = store.value(id).shape();
        for r in 0..rows {
            for c in 0..cols {
                let num = numeric_grad(build, &mut store, id, r, c);
                let ana = store.grad(id).get(r, c);
                assert!(
                    (num - ana).abs() < 1e-2 * (1.0 + num.abs()),
                    "grad mismatch at ({r},{c}): numeric {num} vs analytic {ana}"
                );
            }
        }
    }

    #[test]
    fn grad_matmul_bce() {
        let x = Matrix::from_vec(2, 2, vec![0.5, -1.0, 2.0, 0.3]);
        let targets = Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]);
        check_all(
            &move |g, store, id| {
                let p = g.param(store, id);
                let xin = g.input(x.clone());
                let y = g.matmul(xin, p);
                g.bce_with_logits(y, targets.clone())
            },
            Matrix::from_vec(2, 2, vec![0.1, -0.2, 0.4, 0.7]),
        );
    }

    #[test]
    fn grad_concat_slice() {
        let x = Matrix::from_vec(2, 2, vec![1.0, -2.0, 0.5, 0.25]);
        let targets = Matrix::from_vec(1, 4, vec![1.0, 0.0, 1.0, 0.0]);
        check_all(
            &move |g, store, id| {
                let p = g.param(store, id);
                let xin = g.input(x.clone());
                let cat = g.concat_cols(p, xin);
                let sl = g.slice_rows(cat, 1, 1);
                g.bce_with_logits(sl, targets.clone())
            },
            Matrix::from_vec(2, 2, vec![0.2, 0.4, -0.3, 0.6]),
        );
    }

    #[test]
    fn grad_bias_broadcast() {
        let x = Matrix::from_vec(3, 2, vec![0.1, 0.2, -0.3, 0.4, 0.5, -0.6]);
        let targets = Matrix::from_vec(3, 2, vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0]);
        check_all(
            &move |g, store, id| {
                let p = g.param(store, id);
                let xin = g.input(x.clone());
                let y = g.add_row_broadcast(xin, p);
                g.bce_with_logits(y, targets.clone())
            },
            Matrix::from_vec(1, 2, vec![0.05, -0.15]),
        );
    }

    #[test]
    fn grad_bce_with_logits() {
        let targets = Matrix::from_vec(1, 3, vec![1.0, 0.0, 1.0]);
        check_all(
            &move |g, store, id| {
                let p = g.param(store, id);
                g.bce_with_logits(p, targets.clone())
            },
            Matrix::from_vec(1, 3, vec![0.5, -0.8, 0.1]),
        );
    }

    #[test]
    fn grad_add_scale() {
        let x = Matrix::from_vec(1, 3, vec![0.5, 1.0, -0.2]);
        let targets = Matrix::from_vec(1, 3, vec![0.0, 1.0, 1.0]);
        check_all(
            &move |g, store, id| {
                let p = g.param(store, id);
                let xin = g.input(x.clone());
                let d = g.add(p, xin);
                let s = g.scale(d, 2.0);
                g.bce_with_logits(s, targets.clone())
            },
            Matrix::from_vec(1, 3, vec![1.0, 0.5, -0.5]),
        );
    }

    #[test]
    fn grad_slice_rows() {
        let targets = Matrix::from_vec(1, 2, vec![1.0, 0.0]);
        check_all(
            &move |g, store, id| {
                let p = g.param(store, id);
                let top = g.slice_rows(p, 0, 1);
                g.bce_with_logits(top, targets.clone())
            },
            Matrix::from_vec(2, 2, vec![0.1, 0.2, 0.3, 0.4]),
        );
    }

    #[test]
    fn param_reused_accumulates_grads() {
        // loss = bce(p + p, t) => dloss/dp = 2 · (σ(2p) − t) / len
        let mut store = ParamStore::new();
        let id = store.register(Matrix::from_vec(1, 2, vec![1.0, 2.0]));
        let mut g = Graph::new();
        let p = g.param(&store, id);
        let s = g.add(p, p);
        let loss = g.bce_with_logits(s, Matrix::from_vec(1, 2, vec![1.0, 0.0]));
        g.backward(loss, &mut store);
        let sigmoid = |v: f32| 1.0 / (1.0 + (-v).exp());
        assert!((store.grad(id).get(0, 0) - (sigmoid(2.0) - 1.0)).abs() < 1e-6);
        assert!((store.grad(id).get(0, 1) - sigmoid(4.0)).abs() < 1e-6);
    }

    #[test]
    fn bce_matches_closed_form() {
        let mut g = Graph::new();
        let logits = g.input(Matrix::from_vec(1, 1, vec![0.0]));
        let loss = g.bce_with_logits(logits, Matrix::from_vec(1, 1, vec![1.0]));
        // -ln(sigmoid(0)) = ln 2
        assert!((g.value(loss).get(0, 0) - std::f32::consts::LN_2).abs() < 1e-6);
    }

    #[test]
    fn clear_recycles_buffers_across_steps() {
        let mut store = ParamStore::new();
        let id = store.register(Matrix::from_vec(2, 2, vec![0.1, -0.2, 0.4, 0.7]));
        let mut g = Graph::new();
        let (mut grads, mut spare) = (Vec::new(), Vec::new());
        for _ in 0..4 {
            g.clear();
            spare.push(g.pool.spare.len());
            store.zero_grads();
            let mut x = g.zeros(1, 2);
            x.as_mut_slice().copy_from_slice(&[0.5, -1.0]);
            let xin = g.input(x);
            let p = g.param(&store, id);
            let y = g.matmul(xin, p);
            let loss = g.bce_with_logits(y, Matrix::from_vec(1, 2, vec![1.0, 0.0]));
            g.backward(loss, &mut store);
            grads.push(store.grad(id).clone());
        }
        assert!(grads.windows(2).all(|w| w[0] == w[1]));
        // The spare list reaches a steady size instead of growing per step.
        assert_eq!(spare[2], spare[3], "{spare:?}");
    }
}
