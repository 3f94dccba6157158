//! Generic training-loop utilities: mini-batching, the paper's batch-size
//! schedule, and its convergence criterion (§5.1: training stops at the first
//! epoch where the loss stays within a 0.01 band for 5 consecutive epochs).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// The paper's convergence rule: stop once the epoch loss has stayed within
/// `threshold` of its running reference for `patience` consecutive epochs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ConvergenceDetector {
    threshold: f32,
    patience: usize,
    reference: Option<f32>,
    stable: usize,
}

impl ConvergenceDetector {
    /// Custom threshold/patience.
    pub fn new(threshold: f32, patience: usize) -> Self {
        Self {
            threshold,
            patience,
            reference: None,
            stable: 0,
        }
    }

    /// The paper's values: 0.01 band, 5 epochs.
    pub fn paper_default() -> Self {
        Self::new(0.01, 5)
    }

    /// Feed one epoch loss; returns `true` once converged.
    pub fn observe(&mut self, loss: f32) -> bool {
        match self.reference {
            Some(r) if (loss - r).abs() <= self.threshold => {
                self.stable += 1;
            }
            _ => {
                self.reference = Some(loss);
                self.stable = 0;
            }
        }
        self.stable >= self.patience
    }
}

/// The paper's batch-size schedule: 512 for the first half of training,
/// 256 afterwards (§5.1 "batch size varied from 512 to 256"). At the reduced
/// scales used in this reproduction the sizes are configurable.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct BatchSchedule {
    /// Batch size early in training.
    pub initial: usize,
    /// Batch size after `switch_epoch`.
    pub later: usize,
    /// Epoch at which to switch.
    pub switch_epoch: usize,
}

impl BatchSchedule {
    /// Constant batch size.
    pub fn constant(size: usize) -> Self {
        Self {
            initial: size,
            later: size,
            switch_epoch: usize::MAX,
        }
    }

    /// The paper's 512 → 256 schedule, switching at `switch_epoch`.
    pub fn paper_default(switch_epoch: usize) -> Self {
        Self {
            initial: 512,
            later: 256,
            switch_epoch,
        }
    }

    /// Batch size at a (0-based) epoch.
    pub fn at(&self, epoch: usize) -> usize {
        if epoch < self.switch_epoch {
            self.initial
        } else {
            self.later
        }
    }
}

/// Deterministic mini-batch index sampler: shuffles `0..n` each epoch and
/// yields chunks. The trailing short batch is included.
#[derive(Debug)]
pub struct BatchSampler {
    rng: StdRng,
    n: usize,
}

impl BatchSampler {
    /// Sampler over `n` examples with a fixed seed.
    pub fn new(n: usize, seed: u64) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed),
            n,
        }
    }

    /// Shuffled batches for one epoch.
    pub fn epoch(&mut self, batch_size: usize) -> Vec<Vec<usize>> {
        assert!(batch_size > 0, "batch size must be positive");
        let mut idx: Vec<usize> = (0..self.n).collect();
        idx.shuffle(&mut self.rng);
        idx.chunks(batch_size).map(<[usize]>::to_vec).collect()
    }
}

/// Summary of a completed training run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainReport {
    /// Loss per epoch, in order.
    pub epoch_losses: Vec<f32>,
    /// Whether the convergence criterion fired (vs. hitting the epoch cap).
    pub converged: bool,
    /// Number of epochs actually run.
    pub epochs_run: usize,
}

/// Result of one optimizer step: the batch loss plus the pre-clip global
/// gradient norm, so training loops can surface both to observability.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainStep {
    /// Mean batch loss.
    pub loss: f32,
    /// Global gradient norm before clipping.
    pub grad_norm: f32,
}

/// Record one training epoch into `registry`: gauges `train.loss`,
/// `train.grad_norm` and `train.lr` track the latest values, and a
/// `train.epoch` journal entry captures the full tuple for post-hoc
/// inspection. A no-op on a disabled registry.
pub fn record_epoch(
    registry: &dlacep_obs::Registry,
    epoch: usize,
    loss: f32,
    grad_norm: f32,
    lr: f32,
) {
    registry.gauge("train.loss").set(f64::from(loss));
    registry.gauge("train.grad_norm").set(f64::from(grad_norm));
    registry.gauge("train.lr").set(f64::from(lr));
    registry.record(
        "train.epoch",
        &[
            ("epoch", epoch.into()),
            ("loss", loss.into()),
            ("grad_norm", grad_norm.into()),
            ("lr", lr.into()),
        ],
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn convergence_fires_after_patience() {
        let mut d = ConvergenceDetector::new(0.01, 3);
        assert!(!d.observe(1.0));
        assert!(!d.observe(0.995));
        assert!(!d.observe(1.004));
        assert!(d.observe(0.999));
    }

    #[test]
    fn convergence_resets_on_jump() {
        let mut d = ConvergenceDetector::new(0.01, 2);
        assert!(!d.observe(1.0));
        assert!(!d.observe(1.001));
        assert!(!d.observe(0.5)); // big improvement resets the reference
        assert!(!d.observe(0.501));
        assert!(d.observe(0.5005));
    }

    #[test]
    fn batch_schedule_switches() {
        let s = BatchSchedule::paper_default(10);
        assert_eq!(s.at(0), 512);
        assert_eq!(s.at(9), 512);
        assert_eq!(s.at(10), 256);
        let c = BatchSchedule::constant(64);
        assert_eq!(c.at(1_000_000), 64);
    }

    #[test]
    fn sampler_covers_all_indices() {
        let mut s = BatchSampler::new(10, 0);
        let batches = s.epoch(3);
        assert_eq!(batches.len(), 4); // 3+3+3+1
        let mut all: Vec<usize> = batches.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn sampler_is_deterministic_per_seed() {
        let a: Vec<_> = BatchSampler::new(8, 5).epoch(4);
        let b: Vec<_> = BatchSampler::new(8, 5).epoch(4);
        assert_eq!(a, b);
    }

    #[test]
    fn record_epoch_sets_gauges_and_journals() {
        let reg = dlacep_obs::Registry::enabled();
        record_epoch(&reg, 3, 0.25, 1.5, 0.01);
        let snap = reg.snapshot();
        assert_eq!(snap.gauges.get("train.loss"), Some(&0.25));
        assert_eq!(snap.gauges.get("train.grad_norm"), Some(&1.5));
        assert_eq!(snap.gauges.get("train.lr"), Some(&f64::from(0.01f32)));
        let entries = &snap.journal.entries;
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].kind, "train.epoch");
    }

    #[test]
    fn record_epoch_is_inert_when_disabled() {
        let reg = dlacep_obs::Registry::disabled();
        record_epoch(&reg, 0, 1.0, 2.0, 0.1);
        let snap = reg.snapshot();
        assert!(snap.gauges.is_empty());
        assert!(snap.journal.entries.is_empty());
    }

    #[test]
    fn sampler_epochs_differ() {
        let mut s = BatchSampler::new(32, 1);
        let a = s.epoch(32);
        let b = s.epoch(32);
        assert_ne!(a, b, "two epochs should shuffle differently");
    }
}
