//! The paper's two DL models (§4.3, Fig. 7):
//!
//! * **event-network** — stacked BiLSTM encoder + linear emission layer +
//!   BI-CRF head, labeling every event in the input window as match
//!   participant or not;
//! * **window-network** — the same encoder, mean-pooled over time into a
//!   single linear classification head labeling the whole window.

use dlacep_nn::graph::{Graph, Var};
use dlacep_nn::matrix::Matrix;
use dlacep_nn::optim::Optimizer;
use dlacep_nn::{BiCrf, CrfWorkspace, Initializer, Linear, ParamStore, StackedBiLstm, TrainStep};
use serde::{Deserialize, Serialize};

/// Architecture hyperparameters.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct NetworkConfig {
    /// Embedding width (from [`crate::embed::EventEmbedder::dim`]).
    pub input_dim: usize,
    /// BiLSTM hidden width per direction (paper: 75).
    pub hidden: usize,
    /// Number of stacked BiLSTM layers (paper: 3; Fig. 13c–d sweeps 3–5).
    pub layers: usize,
    /// Weight-init seed.
    pub seed: u64,
}

impl NetworkConfig {
    /// The paper's architecture: 3 stacked BiLSTM layers, hidden 75.
    pub fn paper_default(input_dim: usize) -> Self {
        Self {
            input_dim,
            hidden: 75,
            layers: 3,
            seed: 42,
        }
    }

    /// A scaled-down architecture for CPU-budget experiments and tests.
    pub fn small(input_dim: usize) -> Self {
        Self {
            input_dim,
            hidden: 16,
            layers: 1,
            seed: 42,
        }
    }
}

/// Buffers a training loop reuses from step to step: the autodiff tape
/// (cleared, not freed, between steps), the BI-CRF head's trellises and the
/// batch's gold labels. Sized by batch × window × hidden on the first step
/// and freed with the loop; never serialised.
#[derive(Default)]
pub struct TrainWorkspace {
    graph: Graph,
    crf: CrfWorkspace,
    gold: Vec<usize>,
}

/// The batch's windows (each `steps` rows of `dim`) as one time-major tape
/// input: row `t·B + b` is step `t` of window `b`.
fn time_major_input<'a>(
    g: &mut Graph,
    windows: impl ExactSizeIterator<Item = &'a [Vec<f32>]>,
    steps: usize,
    dim: usize,
) -> Var {
    let batch = windows.len();
    let mut x = g.zeros(steps * batch, dim);
    for (b, window) in windows.enumerate() {
        assert_eq!(window.len(), steps, "uniform sequence length");
        for (t, row) in window.iter().enumerate() {
            x.row_mut(t * batch + b).copy_from_slice(row);
        }
    }
    g.input(x)
}

/// The event-network: per-event labeling via BI-CRF.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EventNetwork {
    /// Architecture.
    pub config: NetworkConfig,
    store: ParamStore,
    encoder: StackedBiLstm,
    emit: Linear,
    crf: BiCrf,
}

impl EventNetwork {
    /// Allocate a fresh network.
    pub fn new(config: NetworkConfig) -> Self {
        let mut store = ParamStore::new();
        let mut init = Initializer::seeded(config.seed);
        let encoder = StackedBiLstm::new(
            &mut store,
            &mut init,
            config.input_dim,
            config.hidden,
            config.layers,
        );
        let emit = Linear::new(&mut store, &mut init, encoder.out_dim(), 2);
        let crf = BiCrf::new(&mut store, &mut init, 2);
        Self {
            config,
            store,
            encoder,
            emit,
            crf,
        }
    }

    /// Number of trainable scalars.
    pub fn num_parameters(&self) -> usize {
        self.store.num_scalars()
    }

    /// Internal read access for the quantizer: `(params, encoder, emission
    /// layer, CRF head)`.
    pub(crate) fn parts(&self) -> (&ParamStore, &StackedBiLstm, &Linear, &BiCrf) {
        (&self.store, &self.encoder, &self.emit, &self.crf)
    }

    fn infer_emissions(&self, window: &[Vec<f32>]) -> Matrix {
        let mut xs = Matrix::zeros(window.len(), self.config.input_dim);
        for (t, row) in window.iter().enumerate() {
            xs.row_mut(t).copy_from_slice(row);
        }
        let hs = self.encoder.infer(&self.store, &xs);
        self.emit.infer(&self.store, &hs)
    }

    /// Label one window (inference): `true` = event participates in a match.
    /// Uses the tape-free fast path — this is the per-window cost `C_filter`
    /// of the paper's §3.2 analysis.
    pub fn mark(&self, window: &[Vec<f32>]) -> Vec<bool> {
        if window.is_empty() {
            return Vec::new();
        }
        let emissions = self.infer_emissions(window);
        self.crf
            .decode(&self.store, &emissions)
            .into_iter()
            .map(|l| l == 1)
            .collect()
    }

    /// Posterior probability of the positive label per event.
    pub fn marginals(&self, window: &[Vec<f32>]) -> Vec<f32> {
        if window.is_empty() {
            return Vec::new();
        }
        let emissions = self.infer_emissions(window);
        let m = self.crf.marginals(&self.store, &emissions);
        (0..window.len()).map(|t| m.get(t, 1)).collect()
    }

    /// One optimizer step over a mini-batch of `(window, gold labels)`;
    /// returns the mean BI-CRF negative log-likelihood plus the pre-clip
    /// gradient norm. All windows in the batch must share the same length.
    pub fn train_batch(
        &mut self,
        batch: &[(&[Vec<f32>], &[bool])],
        opt: &mut dyn Optimizer,
        grad_clip: f32,
    ) -> TrainStep {
        self.train_batch_with(&mut TrainWorkspace::default(), batch, opt, grad_clip)
    }

    /// [`EventNetwork::train_batch`] in `ws`'s buffers, which a training
    /// loop keeps across its steps.
    pub fn train_batch_with(
        &mut self,
        ws: &mut TrainWorkspace,
        batch: &[(&[Vec<f32>], &[bool])],
        opt: &mut dyn Optimizer,
        grad_clip: f32,
    ) -> TrainStep {
        assert!(!batch.is_empty());
        let steps = batch[0].0.len();
        let b_len = batch.len();
        self.store.zero_grads();
        let g = &mut ws.graph;
        g.clear();
        let windows = batch.iter().map(|(w, _)| *w);
        let x = time_major_input(g, windows, steps, self.config.input_dim);
        let h = self.encoder.forward(g, &self.store, x, steps);
        let em = self.emit.forward_steps(g, &self.store, h, steps);
        ws.gold.clear();
        for (_, labels) in batch {
            assert_eq!(labels.len(), steps, "labels match window length");
            ws.gold.extend(labels.iter().map(|&x| usize::from(x)));
        }
        // Per-sequence CRF loss + analytic emission gradients.
        let scale = 1.0 / b_len as f32;
        let total_nll = self.crf.nll_backward_batch(
            &mut self.store,
            g.value(em),
            &ws.gold,
            steps,
            scale,
            &mut ws.crf,
        );
        g.backward_seeded(&[(em, ws.crf.d_emissions())], &mut self.store);
        let grad_norm = self.store.clip_grad_norm(grad_clip);
        opt.step(&mut self.store);
        TrainStep {
            loss: total_nll / b_len as f32,
            grad_norm,
        }
    }
}

/// The window-network: whole-window applicability classification.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WindowNetwork {
    /// Architecture.
    pub config: NetworkConfig,
    store: ParamStore,
    encoder: StackedBiLstm,
    head: Linear,
}

impl WindowNetwork {
    /// Allocate a fresh network.
    pub fn new(config: NetworkConfig) -> Self {
        let mut store = ParamStore::new();
        let mut init = Initializer::seeded(config.seed);
        let encoder = StackedBiLstm::new(
            &mut store,
            &mut init,
            config.input_dim,
            config.hidden,
            config.layers,
        );
        let head = Linear::new(&mut store, &mut init, encoder.out_dim(), 1);
        Self {
            config,
            store,
            encoder,
            head,
        }
    }

    /// Number of trainable scalars.
    pub fn num_parameters(&self) -> usize {
        self.store.num_scalars()
    }

    fn logits(&self, g: &mut Graph, x: Var, steps: usize) -> Var {
        let hs = self.encoder.forward(g, &self.store, x, steps);
        // Mean-pool the per-step encodings.
        let batch = g.value(hs).rows() / steps;
        let mut acc = g.slice_rows(hs, 0, batch);
        for t in 1..steps {
            let h = g.slice_rows(hs, t * batch, batch);
            acc = g.add(acc, h);
        }
        let pooled = g.scale(acc, 1.0 / steps as f32);
        self.head.forward(g, &self.store, pooled)
    }

    /// Probability the window contains at least one full match (tape-free
    /// fast path).
    pub fn probability(&self, window: &[Vec<f32>]) -> f32 {
        if window.is_empty() {
            return 0.0;
        }
        let mut xs = Matrix::zeros(window.len(), self.config.input_dim);
        for (t, row) in window.iter().enumerate() {
            xs.row_mut(t).copy_from_slice(row);
        }
        let hs = self.encoder.infer(&self.store, &xs);
        // Mean-pool rows into 1×2H.
        let mut pooled = hs.sum_rows();
        pooled.map_inplace(|v| v / hs.rows() as f32);
        let logit = self.head.infer(&self.store, &pooled).get(0, 0);
        1.0 / (1.0 + (-logit).exp())
    }

    /// Binary applicability decision (threshold 0.5).
    pub fn applicable(&self, window: &[Vec<f32>]) -> bool {
        self.probability(window) > 0.5
    }

    /// One optimizer step over a mini-batch of `(window, label)`; returns the
    /// mean binary cross-entropy plus the pre-clip gradient norm.
    pub fn train_batch(
        &mut self,
        batch: &[(&[Vec<f32>], bool)],
        opt: &mut dyn Optimizer,
        grad_clip: f32,
    ) -> TrainStep {
        self.train_batch_with(&mut TrainWorkspace::default(), batch, opt, grad_clip)
    }

    /// [`WindowNetwork::train_batch`] in `ws`'s buffers, which a training
    /// loop keeps across its steps.
    pub fn train_batch_with(
        &mut self,
        ws: &mut TrainWorkspace,
        batch: &[(&[Vec<f32>], bool)],
        opt: &mut dyn Optimizer,
        grad_clip: f32,
    ) -> TrainStep {
        assert!(!batch.is_empty());
        let steps = batch[0].0.len();
        self.store.zero_grads();
        let g = &mut ws.graph;
        g.clear();
        let windows = batch.iter().map(|(w, _)| *w);
        let x = time_major_input(g, windows, steps, self.config.input_dim);
        let logits = self.logits(g, x, steps);
        let targets = Matrix::from_fn(batch.len(), 1, |b, _| if batch[b].1 { 1.0 } else { 0.0 });
        let loss = g.bce_with_logits(logits, targets);
        let out = g.value(loss).get(0, 0);
        g.backward(loss, &mut self.store);
        let grad_norm = self.store.clip_grad_norm(grad_clip);
        opt.step(&mut self.store);
        TrainStep {
            loss: out,
            grad_norm,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlacep_nn::Adam;

    /// A window where events of "type slot 0" should be positive.
    fn toy_window(pattern: &[bool]) -> (Vec<Vec<f32>>, Vec<bool>) {
        let w: Vec<Vec<f32>> = pattern
            .iter()
            .map(|&p| {
                if p {
                    vec![1.0, 0.0, 0.3]
                } else {
                    vec![0.0, 1.0, -0.3]
                }
            })
            .collect();
        (w, pattern.to_vec())
    }

    #[test]
    fn event_network_shapes() {
        let net = EventNetwork::new(NetworkConfig::small(3));
        let (w, _) = toy_window(&[true, false, true, false]);
        assert_eq!(net.mark(&w).len(), 4);
        assert_eq!(net.marginals(&w).len(), 4);
        assert!(net.num_parameters() > 0);
        assert!(net.mark(&[]).is_empty());
    }

    #[test]
    fn event_network_learns_identity_labeling() {
        // Labels equal the one-hot slot: a trivially learnable mapping.
        let mut net = EventNetwork::new(NetworkConfig::small(3));
        let mut opt = Adam::new(0.02);
        let data: Vec<(Vec<Vec<f32>>, Vec<bool>)> = vec![
            toy_window(&[true, false, true, false]),
            toy_window(&[false, false, true, true]),
            toy_window(&[true, true, false, false]),
            toy_window(&[false, true, false, true]),
        ];
        let mut first = 0.0;
        let mut last = 0.0;
        for step in 0..60 {
            let batch: Vec<(&[Vec<f32>], &[bool])> = data
                .iter()
                .map(|(w, l)| (w.as_slice(), l.as_slice()))
                .collect();
            let loss = net.train_batch(&batch, &mut opt, 5.0).loss;
            if step == 0 {
                first = loss;
            }
            last = loss;
        }
        assert!(last < first * 0.5, "loss {first} -> {last}");
        let (w, labels) = toy_window(&[true, false, false, true]);
        assert_eq!(net.mark(&w), labels);
    }

    #[test]
    fn window_network_learns_any_positive() {
        // Window label = any event has slot-0 type.
        let mut net = WindowNetwork::new(NetworkConfig::small(3));
        let mut opt = Adam::new(0.02);
        let data: Vec<(Vec<Vec<f32>>, bool)> = vec![
            (toy_window(&[false, false, false, false]).0, false),
            (toy_window(&[false, true, false, false]).0, true),
            (toy_window(&[true, false, false, false]).0, true),
            (toy_window(&[false, false, false, false]).0, false),
        ];
        for _ in 0..80 {
            let batch: Vec<(&[Vec<f32>], bool)> =
                data.iter().map(|(w, l)| (w.as_slice(), *l)).collect();
            net.train_batch(&batch, &mut opt, 5.0);
        }
        assert!(net.applicable(&toy_window(&[false, true, true, false]).0));
        assert!(!net.applicable(&toy_window(&[false, false, false, false]).0));
    }

    #[test]
    fn window_network_probability_bounds() {
        let net = WindowNetwork::new(NetworkConfig::small(3));
        let (w, _) = toy_window(&[true, false]);
        let p = net.probability(&w);
        assert!((0.0..=1.0).contains(&p));
        assert_eq!(net.probability(&[]), 0.0);
    }

    #[test]
    fn networks_serialize_roundtrip() {
        let net = EventNetwork::new(NetworkConfig::small(3));
        let json = serde_json::to_string(&net).unwrap();
        let back: EventNetwork = serde_json::from_str(&json).unwrap();
        let (w, _) = toy_window(&[true, false, true]);
        assert_eq!(net.mark(&w), back.mark(&w));
    }
}
