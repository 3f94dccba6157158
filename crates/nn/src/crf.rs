//! Linear-chain conditional random fields, and the bidirectional BI-CRF head
//! the event-network uses (paper §2.2, §4.3, Fig. 7).
//!
//! Exact inference throughout: the partition function via the forward
//! algorithm, gradients via forward–backward marginals, decoding via Viterbi.
//! The gradient w.r.t. the emissions is returned to the caller, which seeds
//! it back into the autodiff tape ([`crate::graph::Graph::backward_seeded`]);
//! the transition/start/end gradients accumulate directly into the
//! [`ParamStore`].

use crate::init::Initializer;
use crate::matrix::Matrix;
use crate::params::{ParamId, ParamStore};
use serde::{Deserialize, Serialize};

fn log_sum_exp(xs: &[f32]) -> f32 {
    let m = xs.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    if m == f32::NEG_INFINITY {
        return f32::NEG_INFINITY;
    }
    m + xs.iter().map(|&x| (x - m).exp()).sum::<f32>().ln()
}

/// A linear-chain CRF over `num_labels` labels.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Crf {
    /// Number of labels (2 for DLACEP event marking).
    pub num_labels: usize,
    trans: ParamId,
    start: ParamId,
    end: ParamId,
}

impl Crf {
    /// Allocate transition (`L×L`), start and end (`1×L`) scores.
    pub fn new(store: &mut ParamStore, init: &mut Initializer, num_labels: usize) -> Self {
        assert!(num_labels >= 2, "CRF needs at least two labels");
        let trans = store.register(init.uniform(num_labels, num_labels, -0.1, 0.1));
        let start = store.register(init.uniform(1, num_labels, -0.1, 0.1));
        let end = store.register(init.uniform(1, num_labels, -0.1, 0.1));
        Self {
            num_labels,
            trans,
            start,
            end,
        }
    }

    /// Parameter handles `(transition, start, end)` (read access for e.g.
    /// the quantized-inference head, which keeps the CRF in f32).
    pub fn params(&self) -> (ParamId, ParamId, ParamId) {
        (self.trans, self.start, self.end)
    }

    /// Unnormalized score of a label path.
    pub fn path_score(&self, store: &ParamStore, emissions: &Matrix, path: &[usize]) -> f32 {
        debug_assert_eq!(emissions.rows(), path.len());
        let trans = store.value(self.trans);
        let start = store.value(self.start);
        let end = store.value(self.end);
        let mut s = start.get(0, path[0]) + emissions.get(0, path[0]);
        for t in 1..path.len() {
            s += trans.get(path[t - 1], path[t]) + emissions.get(t, path[t]);
        }
        s + end.get(0, path[path.len() - 1])
    }

    fn forward_alphas(
        &self,
        store: &ParamStore,
        emissions: &Matrix,
        alpha: &mut Matrix,
        scratch: &mut Vec<f32>,
    ) {
        let (t_len, l) = emissions.shape();
        let trans = store.value(self.trans);
        let start = store.value(self.start);
        alpha.reset(t_len, l);
        for j in 0..l {
            alpha.set(0, j, start.get(0, j) + emissions.get(0, j));
        }
        scratch.clear();
        scratch.resize(l, 0.0);
        for t in 1..t_len {
            for j in 0..l {
                for (i, s) in scratch.iter_mut().enumerate() {
                    *s = alpha.get(t - 1, i) + trans.get(i, j);
                }
                alpha.set(t, j, log_sum_exp(scratch) + emissions.get(t, j));
            }
        }
    }

    fn backward_betas(
        &self,
        store: &ParamStore,
        emissions: &Matrix,
        beta: &mut Matrix,
        scratch: &mut Vec<f32>,
    ) {
        let (t_len, l) = emissions.shape();
        let trans = store.value(self.trans);
        let end = store.value(self.end);
        beta.reset(t_len, l);
        for i in 0..l {
            beta.set(t_len - 1, i, end.get(0, i));
        }
        scratch.clear();
        scratch.resize(l, 0.0);
        for t in (0..t_len - 1).rev() {
            for i in 0..l {
                for (j, s) in scratch.iter_mut().enumerate() {
                    *s = trans.get(i, j) + emissions.get(t + 1, j) + beta.get(t + 1, j);
                }
                beta.set(t, i, log_sum_exp(scratch));
            }
        }
    }

    /// `log Z` from a filled forward trellis.
    fn log_z_from(&self, store: &ParamStore, alpha: &Matrix, scratch: &mut Vec<f32>) -> f32 {
        let end = store.value(self.end);
        let t_last = alpha.rows() - 1;
        scratch.clear();
        scratch.extend((0..self.num_labels).map(|l| alpha.get(t_last, l) + end.get(0, l)));
        log_sum_exp(scratch)
    }

    /// Log partition function.
    pub fn log_z(&self, store: &ParamStore, emissions: &Matrix) -> f32 {
        let mut tr = Trellis::default();
        self.forward_alphas(store, emissions, &mut tr.alpha, &mut tr.scratch);
        self.log_z_from(store, &tr.alpha, &mut tr.scratch)
    }

    /// Negative log-likelihood of the gold path.
    pub fn nll(&self, store: &ParamStore, emissions: &Matrix, gold: &[usize]) -> f32 {
        self.log_z(store, emissions) - self.path_score(store, emissions, gold)
    }

    /// Posterior unary marginals `P(y_t = l)` as a `T×L` matrix.
    pub fn marginals(&self, store: &ParamStore, emissions: &Matrix) -> Matrix {
        let mut tr = Trellis::default();
        self.forward_alphas(store, emissions, &mut tr.alpha, &mut tr.scratch);
        self.backward_betas(store, emissions, &mut tr.beta, &mut tr.scratch);
        let logz = self.log_z_from(store, &tr.alpha, &mut tr.scratch);
        let (t_len, l) = emissions.shape();
        Matrix::from_fn(t_len, l, |t, j| {
            (tr.alpha.get(t, j) + tr.beta.get(t, j) - logz).exp()
        })
    }

    /// NLL plus its gradients: returns `(nll, d nll / d emissions)` and
    /// accumulates the transition/start/end gradients (scaled by `scale`)
    /// into the store. The emission gradient is *also* scaled by `scale` so
    /// callers can average over a batch.
    pub fn nll_backward(
        &self,
        store: &mut ParamStore,
        emissions: &Matrix,
        gold: &[usize],
        scale: f32,
    ) -> (f32, Matrix) {
        let mut de = Matrix::default();
        let nll = self.nll_backward_into(
            store,
            emissions,
            gold,
            scale,
            &mut de,
            &mut Trellis::default(),
        );
        (nll, de)
    }

    /// [`Crf::nll_backward`] with the emission gradient written into `de`
    /// and the intermediates kept in `tr`.
    fn nll_backward_into(
        &self,
        store: &mut ParamStore,
        emissions: &Matrix,
        gold: &[usize],
        scale: f32,
        de: &mut Matrix,
        tr: &mut Trellis,
    ) -> f32 {
        let (t_len, l) = emissions.shape();
        assert_eq!(gold.len(), t_len, "gold length mismatch");
        assert!(gold.iter().all(|&g| g < l), "gold label out of range");
        self.forward_alphas(store, emissions, &mut tr.alpha, &mut tr.scratch);
        self.backward_betas(store, emissions, &mut tr.beta, &mut tr.scratch);
        let logz = self.log_z_from(store, &tr.alpha, &mut tr.scratch);
        let nll = logz - self.path_score(store, emissions, gold);
        let (alpha, beta) = (&tr.alpha, &tr.beta);
        let marginal = |t: usize, j: usize| (alpha.get(t, j) + beta.get(t, j) - logz).exp();

        // d logZ / d e[t][j] = P(y_t = j); subtract gold indicators.
        de.reset(t_len, l);
        for t in 0..t_len {
            for j in 0..l {
                de.set(t, j, marginal(t, j));
            }
        }
        for (t, &g) in gold.iter().enumerate() {
            *de.get_mut(t, g) -= 1.0;
        }
        de.map_inplace(|v| v * scale);

        // Transition gradient via pairwise marginals.
        let trans = store.value(self.trans);
        tr.dtrans.reset(l, l);
        for t in 0..t_len - 1 {
            for i in 0..l {
                for j in 0..l {
                    let p = (alpha.get(t, i)
                        + trans.get(i, j)
                        + emissions.get(t + 1, j)
                        + beta.get(t + 1, j)
                        - logz)
                        .exp();
                    *tr.dtrans.get_mut(i, j) += p;
                }
            }
            *tr.dtrans.get_mut(gold[t], gold[t + 1]) -= 1.0;
        }
        // Start and end gradients: P(y_0 = l), P(y_{T-1} = l) minus the
        // indicators.
        let t_last = t_len - 1;
        tr.dstart.reset(1, l);
        tr.dend.reset(1, l);
        for j in 0..l {
            tr.dstart.set(0, j, marginal(0, j));
            tr.dend.set(0, j, marginal(t_last, j));
        }
        *tr.dstart.get_mut(0, gold[0]) -= 1.0;
        *tr.dend.get_mut(0, gold[t_last]) -= 1.0;
        store.grad_mut(self.trans).axpy(scale, &tr.dtrans);
        store.grad_mut(self.start).axpy(scale, &tr.dstart);
        store.grad_mut(self.end).axpy(scale, &tr.dend);
        nll
    }

    /// Most probable label path (Viterbi).
    pub fn decode(&self, store: &ParamStore, emissions: &Matrix) -> Vec<usize> {
        let (t_len, l) = emissions.shape();
        if t_len == 0 {
            return Vec::new();
        }
        let trans = store.value(self.trans);
        let start = store.value(self.start);
        let end = store.value(self.end);
        let mut score = vec![0.0_f32; l];
        for (j, s) in score.iter_mut().enumerate() {
            *s = start.get(0, j) + emissions.get(0, j);
        }
        let mut back: Vec<Vec<usize>> = Vec::with_capacity(t_len);
        for t in 1..t_len {
            let mut next = vec![f32::NEG_INFINITY; l];
            let mut arg = vec![0usize; l];
            for j in 0..l {
                for (i, &si) in score.iter().enumerate() {
                    let cand = si + trans.get(i, j);
                    if cand > next[j] {
                        next[j] = cand;
                        arg[j] = i;
                    }
                }
                next[j] += emissions.get(t, j);
            }
            score = next;
            back.push(arg);
        }
        let mut best = 0usize;
        let mut best_score = f32::NEG_INFINITY;
        for (j, &sj) in score.iter().enumerate() {
            let s = sj + end.get(0, j);
            if s > best_score {
                best_score = s;
                best = j;
            }
        }
        let mut path = vec![best; t_len];
        for t in (1..t_len).rev() {
            best = back[t - 1][best];
            path[t - 1] = best;
        }
        path
    }
}

/// One sequence's forward–backward buffers, reused from sequence to
/// sequence.
#[derive(Debug, Default)]
struct Trellis {
    alpha: Matrix,
    beta: Matrix,
    dtrans: Matrix,
    dstart: Matrix,
    dend: Matrix,
    scratch: Vec<f32>,
}

/// Buffers [`BiCrf::nll_backward_batch`] reuses from call to call: one
/// sequence's emissions in both directions, their trellis and gradients,
/// and the batch's emission gradient.
#[derive(Debug, Default)]
pub struct CrfWorkspace {
    trellis: Trellis,
    seq: Matrix,
    rev: Matrix,
    gold_rev: Vec<usize>,
    de: Matrix,
    de_rev: Matrix,
    d_emissions: Matrix,
}

impl CrfWorkspace {
    /// The emission gradient of the last [`BiCrf::nll_backward_batch`],
    /// laid out like its emissions.
    pub fn d_emissions(&self) -> &Matrix {
        &self.d_emissions
    }
}

/// BI-CRF (paper [58]): a forward CRF over the emissions and a second CRF
/// over the *reversed* sequence, trained with the sum of both likelihoods.
/// Decoding combines both CRFs' posterior marginals per position.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BiCrf {
    fwd: Crf,
    bwd: Crf,
}

fn reverse_rows(m: &Matrix) -> Matrix {
    let (r, c) = m.shape();
    Matrix::from_fn(r, c, |i, j| m.get(r - 1 - i, j))
}

impl BiCrf {
    /// Allocate both directional CRFs.
    pub fn new(store: &mut ParamStore, init: &mut Initializer, num_labels: usize) -> Self {
        Self {
            fwd: Crf::new(store, init, num_labels),
            bwd: Crf::new(store, init, num_labels),
        }
    }

    /// Number of labels.
    pub fn num_labels(&self) -> usize {
        self.fwd.num_labels
    }

    /// The directional CRFs `(forward, backward)`.
    pub fn directions(&self) -> (&Crf, &Crf) {
        (&self.fwd, &self.bwd)
    }

    /// Summed NLL of both directions.
    pub fn nll(&self, store: &ParamStore, emissions: &Matrix, gold: &[usize]) -> f32 {
        let rev_gold: Vec<usize> = gold.iter().rev().copied().collect();
        let rev_e = reverse_rows(emissions);
        self.fwd.nll(store, emissions, gold) + self.bwd.nll(store, &rev_e, &rev_gold)
    }

    /// Summed NLL and its emission gradient; CRF-parameter gradients
    /// accumulate into the store scaled by `scale`.
    pub fn nll_backward(
        &self,
        store: &mut ParamStore,
        emissions: &Matrix,
        gold: &[usize],
        scale: f32,
    ) -> (f32, Matrix) {
        let mut ws = CrfWorkspace::default();
        let nll = self.nll_backward_batch(store, emissions, gold, emissions.rows(), scale, &mut ws);
        (nll, ws.d_emissions)
    }

    /// Summed NLL of a batch of `B` sequences of `steps` positions, with the
    /// emissions time-major (`steps · B × L`, row `t·B + b`) and `gold`
    /// sequence after sequence (`gold[b·steps + t]`). Each sequence runs as
    /// [`BiCrf::nll_backward`] would, in batch order: CRF-parameter
    /// gradients accumulate into the store scaled by `scale`, and the
    /// emission gradient (also scaled) lands in
    /// [`CrfWorkspace::d_emissions`].
    pub fn nll_backward_batch(
        &self,
        store: &mut ParamStore,
        emissions: &Matrix,
        gold: &[usize],
        steps: usize,
        scale: f32,
        ws: &mut CrfWorkspace,
    ) -> f32 {
        let (rows, l) = emissions.shape();
        assert_eq!(gold.len(), rows, "one gold label per emission row");
        let batch = rows.checked_div(steps).unwrap_or(0);
        assert_eq!(batch * steps, rows, "a sequence has steps × batch rows");
        ws.d_emissions.reset(rows, l);
        ws.seq.reset(steps, l);
        ws.rev.reset(steps, l);
        let mut total = 0.0_f32;
        for b in 0..batch {
            for t in 0..steps {
                let row = emissions.row(t * batch + b);
                ws.seq.row_mut(t).copy_from_slice(row);
                ws.rev.row_mut(steps - 1 - t).copy_from_slice(row);
            }
            let gold = &gold[b * steps..(b + 1) * steps];
            ws.gold_rev.clear();
            ws.gold_rev.extend(gold.iter().rev());
            let nf = self.fwd.nll_backward_into(
                store,
                &ws.seq,
                gold,
                scale,
                &mut ws.de,
                &mut ws.trellis,
            );
            let nb = self.bwd.nll_backward_into(
                store,
                &ws.rev,
                &ws.gold_rev,
                scale,
                &mut ws.de_rev,
                &mut ws.trellis,
            );
            for t in 0..steps {
                let out = ws.d_emissions.row_mut(t * batch + b);
                let both = ws.de.row(t).iter().zip(ws.de_rev.row(steps - 1 - t));
                for (o, (&f, &r)) in out.iter_mut().zip(both) {
                    *o = f + r;
                }
            }
            total += nf + nb;
        }
        total
    }

    /// Decode by combining posterior marginals of both directions and taking
    /// the per-position argmax.
    pub fn decode(&self, store: &ParamStore, emissions: &Matrix) -> Vec<usize> {
        let mf = self.fwd.marginals(store, emissions);
        let mb_rev = self.bwd.marginals(store, &reverse_rows(emissions));
        let mb = reverse_rows(&mb_rev);
        let (t_len, l) = emissions.shape();
        (0..t_len)
            .map(|t| {
                (0..l)
                    .max_by(|&a, &b| {
                        let sa = mf.get(t, a) + mb.get(t, a);
                        let sb = mf.get(t, b) + mb.get(t, b);
                        sa.partial_cmp(&sb).unwrap_or(std::cmp::Ordering::Equal)
                    })
                    .unwrap_or(0)
            })
            .collect()
    }

    /// Combined (averaged) posterior marginals, `T×L`.
    pub fn marginals(&self, store: &ParamStore, emissions: &Matrix) -> Matrix {
        let mf = self.fwd.marginals(store, emissions);
        let mb = reverse_rows(&self.bwd.marginals(store, &reverse_rows(emissions)));
        let mut out = mf;
        out.axpy(1.0, &mb);
        out.map_inplace(|v| v * 0.5);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(l: usize) -> (ParamStore, Crf) {
        let mut store = ParamStore::new();
        let mut init = Initializer::seeded(42);
        let crf = Crf::new(&mut store, &mut init, l);
        (store, crf)
    }

    /// Enumerate all label paths (brute force) for validation.
    fn all_paths(t: usize, l: usize) -> Vec<Vec<usize>> {
        let mut out = vec![vec![]];
        for _ in 0..t {
            let mut next = Vec::new();
            for p in &out {
                for j in 0..l {
                    let mut q = p.clone();
                    q.push(j);
                    next.push(q);
                }
            }
            out = next;
        }
        out
    }

    #[test]
    fn log_z_matches_brute_force() {
        let (store, crf) = setup(3);
        let e = Matrix::from_fn(4, 3, |t, j| ((t * 3 + j) as f32 * 0.37).sin());
        let brute = log_sum_exp(
            &all_paths(4, 3)
                .iter()
                .map(|p| crf.path_score(&store, &e, p))
                .collect::<Vec<_>>(),
        );
        assert!((crf.log_z(&store, &e) - brute).abs() < 1e-4);
    }

    #[test]
    fn viterbi_matches_brute_force() {
        let (store, crf) = setup(2);
        let e = Matrix::from_fn(5, 2, |t, j| ((t * 2 + j) as f32 * 0.91).cos());
        let best_brute = all_paths(5, 2)
            .into_iter()
            .max_by(|a, b| {
                crf.path_score(&store, &e, a)
                    .partial_cmp(&crf.path_score(&store, &e, b))
                    .unwrap()
            })
            .unwrap();
        assert_eq!(crf.decode(&store, &e), best_brute);
    }

    #[test]
    fn marginals_sum_to_one() {
        let (store, crf) = setup(3);
        let e = Matrix::from_fn(6, 3, |t, j| ((t + j) as f32 * 0.53).sin());
        let m = crf.marginals(&store, &e);
        for t in 0..6 {
            let s: f32 = (0..3).map(|j| m.get(t, j)).sum();
            assert!((s - 1.0).abs() < 1e-4, "row {t} sums to {s}");
        }
    }

    #[test]
    fn nll_nonnegative_and_zero_only_for_certain_path() {
        let (store, crf) = setup(2);
        let e = Matrix::from_fn(3, 2, |t, j| ((t * 2 + j) as f32).sin());
        let gold = vec![0, 1, 0];
        let nll = crf.nll(&store, &e, &gold);
        assert!(nll > 0.0);
    }

    #[test]
    fn emission_gradient_matches_finite_difference() {
        let (mut store, crf) = setup(2);
        let mut e = Matrix::from_fn(4, 2, |t, j| ((t * 2 + j) as f32 * 0.7).sin());
        let gold = vec![0, 1, 1, 0];
        let (_, de) = crf.nll_backward(&mut store, &e, &gold, 1.0);
        let eps = 1e-2;
        for t in 0..4 {
            for j in 0..2 {
                let orig = e.get(t, j);
                e.set(t, j, orig + eps);
                let hi = crf.nll(&store, &e, &gold);
                e.set(t, j, orig - eps);
                let lo = crf.nll(&store, &e, &gold);
                e.set(t, j, orig);
                let num = (hi - lo) / (2.0 * eps);
                assert!(
                    (num - de.get(t, j)).abs() < 1e-2,
                    "({t},{j}): numeric {num} vs analytic {}",
                    de.get(t, j)
                );
            }
        }
    }

    #[test]
    fn transition_gradient_matches_finite_difference() {
        let (mut store, crf) = setup(2);
        let e = Matrix::from_fn(5, 2, |t, j| ((t + 2 * j) as f32 * 0.3).cos());
        let gold = vec![1, 0, 0, 1, 1];
        store.zero_grads();
        let _ = crf.nll_backward(&mut store, &e, &gold, 1.0);
        let analytic = store.grad(crf.trans).clone();
        let eps = 1e-2;
        for i in 0..2 {
            for j in 0..2 {
                let orig = store.value(crf.trans).get(i, j);
                store.value_mut(crf.trans).set(i, j, orig + eps);
                let hi = crf.nll(&store, &e, &gold);
                store.value_mut(crf.trans).set(i, j, orig - eps);
                let lo = crf.nll(&store, &e, &gold);
                store.value_mut(crf.trans).set(i, j, orig);
                let num = (hi - lo) / (2.0 * eps);
                assert!(
                    (num - analytic.get(i, j)).abs() < 1e-2,
                    "trans ({i},{j}): numeric {num} vs analytic {}",
                    analytic.get(i, j)
                );
            }
        }
    }

    #[test]
    fn training_fits_a_simple_tagging_rule() {
        // Emissions are informative; CRF should learn transitions that favor
        // the gold alternating pattern and decode it exactly.
        let (mut store, crf) = setup(2);
        let gold = vec![0, 1, 0, 1, 0, 1];
        let e = Matrix::from_fn(6, 2, |t, j| if gold[t] == j { 1.0 } else { -1.0 });
        for _ in 0..50 {
            store.zero_grads();
            let _ = crf.nll_backward(&mut store, &e, &gold, 1.0);
            store.update_each(|_, v, g| v.axpy(-0.5, g));
        }
        assert_eq!(crf.decode(&store, &e), gold);
        assert!(crf.nll(&store, &e, &gold) < 0.5);
    }

    #[test]
    fn bicrf_nll_is_sum_of_directions() {
        let mut store = ParamStore::new();
        let mut init = Initializer::seeded(5);
        let bi = BiCrf::new(&mut store, &mut init, 2);
        let e = Matrix::from_fn(4, 2, |t, j| ((t * 2 + j) as f32 * 0.41).sin());
        let gold = vec![0, 0, 1, 1];
        let rev_gold: Vec<usize> = gold.iter().rev().copied().collect();
        let expect =
            bi.fwd.nll(&store, &e, &gold) + bi.bwd.nll(&store, &reverse_rows(&e), &rev_gold);
        assert!((bi.nll(&store, &e, &gold) - expect).abs() < 1e-5);
    }

    #[test]
    fn bicrf_emission_grad_matches_finite_difference() {
        let mut store = ParamStore::new();
        let mut init = Initializer::seeded(6);
        let bi = BiCrf::new(&mut store, &mut init, 2);
        let mut e = Matrix::from_fn(3, 2, |t, j| ((t + j) as f32 * 0.9).cos());
        let gold = vec![1, 0, 1];
        let (_, de) = bi.nll_backward(&mut store, &e, &gold, 1.0);
        let eps = 1e-2;
        for t in 0..3 {
            for j in 0..2 {
                let orig = e.get(t, j);
                e.set(t, j, orig + eps);
                let hi = bi.nll(&store, &e, &gold);
                e.set(t, j, orig - eps);
                let lo = bi.nll(&store, &e, &gold);
                e.set(t, j, orig);
                let num = (hi - lo) / (2.0 * eps);
                assert!((num - de.get(t, j)).abs() < 2e-2);
            }
        }
    }

    #[test]
    fn bicrf_decode_on_strong_emissions() {
        let mut store = ParamStore::new();
        let mut init = Initializer::seeded(7);
        let bi = BiCrf::new(&mut store, &mut init, 2);
        let gold = vec![1, 1, 0, 0, 1];
        let e = Matrix::from_fn(5, 2, |t, j| if gold[t] == j { 3.0 } else { -3.0 });
        assert_eq!(bi.decode(&store, &e), gold);
    }

    #[test]
    fn decode_empty_sequence() {
        let (store, crf) = setup(2);
        let e = Matrix::zeros(0, 2);
        assert!(crf.decode(&store, &e).is_empty());
    }
}
