//! End-to-end training of the DLACEP filters on a historical stream
//! (paper §4.3 and §5.1): label 2W-sized samples with the exact engine,
//! embed, 70/30 split, train to convergence under the paper's batch-size and
//! learning-rate schedules, and report test-set precision/recall/F1.

use crate::embed::EventEmbedder;
use crate::filter::{EventNetFilter, WindowNetFilter};
use crate::model::{EventNetwork, NetworkConfig, WindowNetwork};
use crate::pipeline::DlacepError;
use dlacep_cep::plan::Plan;
use dlacep_cep::{Pattern, PatternSet};
use dlacep_data::label::label_stream_multi;
use dlacep_data::train_test_split;
use dlacep_events::EventStream;
use dlacep_nn::optim::Optimizer;
use dlacep_nn::{
    record_epoch, Adam, BatchSampler, BatchSchedule, Confusion, ConvergenceDetector, LrSchedule,
    TrainReport, TrainStep,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Training hyperparameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainConfig {
    /// BiLSTM hidden width per direction.
    pub hidden: usize,
    /// Stacked BiLSTM layers.
    pub layers: usize,
    /// Hard cap on epochs (convergence may stop earlier).
    pub max_epochs: usize,
    /// Batch-size schedule (paper: 512 → 256).
    pub batch: BatchSchedule,
    /// Learning-rate schedule (paper: 1e-3 → 1e-4).
    pub lr: LrSchedule,
    /// Convergence: loss stable within this band…
    pub convergence_threshold: f32,
    /// …for this many consecutive epochs (paper: 0.01 for 5 epochs).
    pub convergence_patience: usize,
    /// Global gradient-norm clip.
    pub grad_clip: f32,
    /// Seed for splitting, batching and weight init.
    pub seed: u64,
    /// Fraction of the training samples actually used (Fig. 11c–d sweeps
    /// this; 1.0 = all).
    pub data_fraction: f64,
    /// Fraction of samples assigned to the train split (paper: 0.7).
    pub train_fraction: f64,
    /// Duplicate match-containing training windows until the classes are
    /// roughly balanced (capped at ×16). Counters the heavy 0-label skew the
    /// paper observes ("class imbalance in favor of 0 labeled events",
    /// Fig. 11 discussion) at the reduced training budgets used here.
    pub oversample_positives: bool,
    /// Marking threshold handed to the produced [`EventNetFilter`]:
    /// `Some(t)` marks events with posterior marginal above `t` (recall-
    /// biased; spurious marks are discarded by the extractor), `None` uses
    /// Viterbi decoding.
    pub mark_threshold: Option<f32>,
}

impl TrainConfig {
    /// The paper's settings at reduced network scale.
    pub fn paper_default() -> Self {
        Self {
            hidden: 75,
            layers: 3,
            max_epochs: 200,
            batch: BatchSchedule::paper_default(20),
            lr: LrSchedule::paper_default(),
            convergence_threshold: 0.01,
            convergence_patience: 5,
            grad_clip: 5.0,
            seed: 42,
            data_fraction: 1.0,
            train_fraction: 0.7,
            oversample_positives: true,
            mark_threshold: Some(0.3),
        }
    }

    /// A fast configuration for tests and laptop-scale experiments.
    pub fn quick() -> Self {
        Self {
            hidden: 16,
            layers: 1,
            max_epochs: 24,
            batch: BatchSchedule::constant(32),
            lr: LrSchedule::new(0.02, 0.002, 0.5, 10),
            convergence_threshold: 0.002,
            convergence_patience: 3,
            grad_clip: 5.0,
            seed: 42,
            data_fraction: 1.0,
            train_fraction: 0.7,
            oversample_positives: true,
            mark_threshold: Some(0.3),
        }
    }
}

/// One embedded training sample: the window, its per-event labels, and
/// whether it contains a full match.
pub(crate) type Sample = (Vec<Vec<f32>>, Vec<bool>, bool);

/// The embedded form of the labeled samples, shared by the model trainers.
struct Prepared {
    embedder: EventEmbedder,
    train: Vec<Sample>,
    test: Vec<Sample>,
    dropped_short: usize,
}

/// Label `stream` in 2W-sized samples against `patterns` (labels OR-ed),
/// embed for `plan`'s relevant types, split, subsample and oversample.
/// `shuffle_salt` keys the post-oversampling shuffle.
fn prepare(
    patterns: &[Pattern],
    plan: &Plan,
    stream: &EventStream,
    cfg: &TrainConfig,
    shuffle_salt: u64,
) -> Prepared {
    let num_attrs = stream.events().first().map_or(0, |e| e.attrs.len());
    let embedder = EventEmbedder::for_plan(plan, num_attrs);
    let sample_len = (2 * plan.window.size()) as usize;
    let samples = label_stream_multi(patterns, stream, sample_len);
    let embedded: Vec<Sample> = samples
        .iter()
        .filter(|s| s.len == sample_len)
        .map(|s| {
            let evs = &stream.events()[s.start..s.start + s.len];
            (
                embedder.embed_window(evs, s.len),
                s.event_labels.clone(),
                s.window_label,
            )
        })
        .collect();
    let dropped_short = samples.len() - embedded.len();
    let (mut train, test) = train_test_split(embedded, cfg.train_fraction, cfg.seed);
    if cfg.data_fraction < 1.0 {
        let keep = ((train.len() as f64) * cfg.data_fraction).ceil().max(1.0) as usize;
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x5f5f);
        train.shuffle(&mut rng);
        train.truncate(keep.min(train.len()));
    }
    if cfg.oversample_positives {
        oversample(&mut train, Some(cfg.seed ^ shuffle_salt));
    }
    Prepared {
        embedder,
        train,
        test,
        dropped_short,
    }
}

/// Duplicate the match-containing samples until the classes are roughly
/// balanced (capped at ×16), copies appended in the order of their
/// originals, then reshuffle when given a seed. A set that is already
/// balanced, or has no positive, is left as it is.
pub(crate) fn oversample(samples: &mut Vec<Sample>, shuffle_seed: Option<u64>) {
    let pos: Vec<usize> = (0..samples.len()).filter(|&i| samples[i].2).collect();
    let neg = samples.len() - pos.len();
    if pos.is_empty() || neg <= pos.len() {
        return;
    }
    let copies = (neg / pos.len()).saturating_sub(1).min(15);
    for i in pos {
        for _ in 0..copies {
            samples.push(samples[i].clone());
        }
    }
    if let Some(seed) = shuffle_seed {
        samples.shuffle(&mut StdRng::seed_from_u64(seed));
    }
}

/// The epoch loop of every trainer: learning-rate schedule → seeded batch
/// sampler → one `step` per batch → `record_epoch` into the *global* obs
/// registry (so per-run registries stay deterministic across thread
/// counts) → convergence check. An empty sample set trains zero epochs.
pub(crate) fn fit(
    samples: &[Sample],
    cfg: &TrainConfig,
    seed: u64,
    mut step: impl FnMut(&[&Sample], &mut Adam) -> TrainStep,
) -> TrainReport {
    let obs = dlacep_obs::global();
    let mut opt = Adam::new(cfg.lr.lr_at(0));
    let mut sampler = BatchSampler::new(samples.len(), seed);
    let mut detector =
        ConvergenceDetector::new(cfg.convergence_threshold, cfg.convergence_patience);
    let mut epoch_losses = Vec::new();
    let mut converged = false;
    for epoch in 0..cfg.max_epochs {
        if samples.is_empty() {
            break;
        }
        opt.set_lr(cfg.lr.lr_at(epoch));
        let (mut loss, mut grad_norm, mut batches) = (0.0, 0.0, 0);
        for idx in sampler.epoch(cfg.batch.at(epoch)) {
            let batch: Vec<&Sample> = idx.iter().map(|&i| &samples[i]).collect();
            let done = step(&batch, &mut opt);
            loss += done.loss;
            grad_norm += done.grad_norm;
            batches += 1;
        }
        let loss = loss / batches.max(1) as f32;
        record_epoch(
            &obs,
            epoch,
            loss,
            grad_norm / batches.max(1) as f32,
            cfg.lr.lr_at(epoch),
        );
        epoch_losses.push(loss);
        if detector.observe(loss) {
            converged = true;
            break;
        }
    }
    TrainReport {
        epochs_run: epoch_losses.len(),
        epoch_losses,
        converged,
    }
}

/// [`fit`] an event-network on `samples`.
pub(crate) fn fit_event_network(
    samples: &[Sample],
    input_dim: usize,
    cfg: &TrainConfig,
    seed: u64,
) -> (EventNetwork, TrainReport) {
    let mut net = EventNetwork::new(NetworkConfig {
        input_dim,
        hidden: cfg.hidden,
        layers: cfg.layers,
        seed,
    });
    let report = fit(samples, cfg, seed, |batch, opt| {
        let batch: Vec<(&[Vec<f32>], &[bool])> = batch
            .iter()
            .map(|(w, labels, _)| (w.as_slice(), labels.as_slice()))
            .collect();
        net.train_batch(&batch, opt, cfg.grad_clip)
    });
    (net, report)
}

/// Outcome of training the event-network.
pub struct EventNetTraining {
    /// Ready-to-use filter.
    pub filter: EventNetFilter,
    /// Loss trajectory and convergence flag.
    pub report: TrainReport,
    /// Event-level confusion on the held-out test split.
    pub test: Confusion,
    /// Samples dropped for being shorter than 2W (stream tail).
    pub dropped_short: usize,
}

/// Train on `prepared.train`, score on `prepared.test`.
fn train_event_network(prepared: Prepared, cfg: &TrainConfig) -> EventNetTraining {
    let (net, report) = fit_event_network(&prepared.train, prepared.embedder.dim(), cfg, cfg.seed);
    let mut test = Confusion::new();
    for (w, labels, _) in &prepared.test {
        let pred: Vec<bool> = match cfg.mark_threshold {
            None => net.mark(w),
            Some(t) => net.marginals(w).into_iter().map(|p| p > t).collect(),
        };
        test.record_all(&pred, labels);
    }
    EventNetTraining {
        filter: EventNetFilter {
            network: net,
            embedder: prepared.embedder,
            threshold: cfg.mark_threshold,
        },
        report,
        test,
        dropped_short: prepared.dropped_short,
    }
}

/// Train the event-network filter for one pattern.
pub fn train_event_filter(
    pattern: &Pattern,
    stream: &EventStream,
    cfg: &TrainConfig,
) -> EventNetTraining {
    let plan = Plan::compile(pattern).expect("pattern compiles");
    let prepared = prepare(std::slice::from_ref(pattern), &plan, stream, cfg, 0xa1a1);
    train_event_network(prepared, cfg)
}

/// Train one event-network for a set of patterns (§4.3): labels are OR-ed
/// across the patterns ("semantically unifying the patterns into one"), so
/// an event is positive if it participates in a full match of *any* of
/// them, and the embedding covers every pattern's relevant types. Hand the
/// returned `filter` to [`crate::pipeline::Dlacep::multi`] with the same
/// set: the shared filter then runs once per window and one fused
/// extractor attributes the matches per pattern.
///
/// # Errors
/// Returns [`DlacepError::Pattern`] when `patterns` is empty or the windows
/// disagree, and [`DlacepError::Compile`] when any pattern fails to compile.
pub fn train_multi_pattern(
    patterns: &[Pattern],
    stream: &EventStream,
    cfg: &TrainConfig,
) -> Result<EventNetTraining, DlacepError> {
    let shared = PatternSet::new(patterns.to_vec())?.compile()?;
    let prepared = prepare(patterns, shared.plan(), stream, cfg, 0x77);
    Ok(train_event_network(prepared, cfg))
}

/// Outcome of training the window-network.
pub struct WindowNetTraining {
    /// Ready-to-use filter.
    pub filter: WindowNetFilter,
    /// Loss trajectory and convergence flag.
    pub report: TrainReport,
    /// Window-level confusion on the held-out test split.
    pub test: Confusion,
    /// Samples dropped for being shorter than 2W.
    pub dropped_short: usize,
}

/// Train the window-network filter for one pattern.
pub fn train_window_filter(
    pattern: &Pattern,
    stream: &EventStream,
    cfg: &TrainConfig,
) -> WindowNetTraining {
    let plan = Plan::compile(pattern).expect("pattern compiles");
    let prepared = prepare(std::slice::from_ref(pattern), &plan, stream, cfg, 0xa1a1);
    let mut net = WindowNetwork::new(NetworkConfig {
        input_dim: prepared.embedder.dim(),
        hidden: cfg.hidden,
        layers: cfg.layers,
        seed: cfg.seed,
    });
    let report = fit(&prepared.train, cfg, cfg.seed, |batch, opt| {
        let batch: Vec<(&[Vec<f32>], bool)> = batch
            .iter()
            .map(|(w, _, label)| (w.as_slice(), *label))
            .collect();
        net.train_batch(&batch, opt, cfg.grad_clip)
    });
    let mut test = Confusion::new();
    for (w, _, label) in &prepared.test {
        test.record(net.applicable(w), *label);
    }
    WindowNetTraining {
        filter: WindowNetFilter {
            network: net,
            embedder: prepared.embedder,
        },
        report,
        test,
        dropped_short: prepared.dropped_short,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::compare;
    use crate::pipeline::Dlacep;
    use dlacep_cep::{PatternExpr, TypeSet};
    use dlacep_events::{TypeId, WindowSpec};
    use rand::Rng;

    const A: TypeId = TypeId(0);
    const B: TypeId = TypeId(1);

    /// SEQ(A, B) within W=4 over a 6-type stream: type membership is all the
    /// network needs to learn, so a tiny model converges fast.
    fn pattern() -> Pattern {
        Pattern::new(
            PatternExpr::Seq(vec![
                PatternExpr::event(TypeSet::single(A), "a"),
                PatternExpr::event(TypeSet::single(B), "b"),
            ]),
            vec![],
            WindowSpec::Count(4),
        )
    }

    fn stream(n: usize, seed: u64) -> EventStream {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut s = EventStream::new();
        for i in 0..n {
            let t = rng.gen_range(0..6u32);
            s.push(TypeId(t), i as u64, vec![rng.gen_range(-1.0..1.0)]);
        }
        s
    }

    #[test]
    fn event_filter_learns_and_filters() {
        let p = pattern();
        let train_stream = stream(1600, 1);
        let out = train_event_filter(&p, &train_stream, &TrainConfig::quick());
        assert!(out.report.epochs_run > 0);
        assert!(
            out.report.epoch_losses.last().unwrap() < &out.report.epoch_losses[0],
            "loss should decrease: {:?}",
            out.report.epoch_losses
        );
        assert!(out.test.f1() > 0.6, "test F1 {}", out.test.f1());

        // End-to-end: high recall, decent filtering, no false positives.
        let test_stream = stream(800, 2);
        let dl = Dlacep::new(p.clone(), out.filter).unwrap();
        let r = compare(&p, test_stream.events(), &dl);
        assert!(r.ecep_matches > 0);
        assert!(r.recall > 0.6, "recall {}", r.recall);
        assert_eq!(r.precision, 1.0, "id constraint forbids false positives");
        assert!(
            r.filtering_ratio > 0.2,
            "filtering ratio {}",
            r.filtering_ratio
        );
    }

    #[test]
    fn window_filter_learns() {
        let p = pattern();
        let train_stream = stream(1600, 3);
        let out = train_window_filter(&p, &train_stream, &TrainConfig::quick());
        assert!(
            out.test.accuracy() > 0.6,
            "accuracy {}",
            out.test.accuracy()
        );
    }

    #[test]
    fn data_fraction_shrinks_training_set() {
        let p = pattern();
        let s = stream(800, 4);
        let mut cfg = TrainConfig::quick();
        cfg.max_epochs = 1;
        cfg.data_fraction = 0.25;
        // Just verifies the path runs; effect on quality is an experiment
        // (Fig. 11), not a unit test.
        let out = train_event_filter(&p, &s, &cfg);
        assert_eq!(out.report.epochs_run, 1);
    }

    fn seq2(a: u32, b: u32) -> Pattern {
        Pattern::new(
            PatternExpr::Seq(vec![
                PatternExpr::event(TypeSet::single(TypeId(a)), "x"),
                PatternExpr::event(TypeSet::single(TypeId(b)), "y"),
            ]),
            vec![],
            WindowSpec::Count(6),
        )
    }

    #[test]
    fn one_network_serves_two_patterns() {
        use dlacep_cep::{Match, PatternSet};
        use dlacep_data::label::ground_truth_matches;

        let p1 = seq2(0, 1);
        let p2 = seq2(2, 3);
        let history = stream(2_400, 1);
        let mut cfg = TrainConfig::quick();
        cfg.max_epochs = 14;
        let trained = train_multi_pattern(&[p1.clone(), p2.clone()], &history, &cfg).unwrap();
        assert!(trained.report.epochs_run > 0);

        let live = stream(1_200, 2);
        let set = PatternSet::new(vec![p1.clone(), p2.clone()]).unwrap();
        let report = Dlacep::multi(set, trained.filter)
            .build()
            .unwrap()
            .run(live.events());
        assert_eq!(report.per_pattern.len(), 2);
        let t1 = ground_truth_matches(&p1, live.events());
        let t2 = ground_truth_matches(&p2, live.events());
        assert!(!t1.is_empty() && !t2.is_empty());
        let recall = |found: &Vec<Match>, truth: &Vec<Match>| {
            let tk: std::collections::BTreeSet<_> =
                truth.iter().map(|m| m.event_ids.clone()).collect();
            let c = found.iter().filter(|m| tk.contains(&m.event_ids)).count();
            c as f64 / truth.len() as f64
        };
        assert!(recall(&report.per_pattern[0], &t1) > 0.4, "p1 recall");
        assert!(recall(&report.per_pattern[1], &t2) > 0.4, "p2 recall");
        // No false positives per pattern (id-distance constraint).
        for (found, truth) in report.per_pattern.iter().zip([&t1, &t2]) {
            let tk: std::collections::BTreeSet<_> =
                truth.iter().map(|m| m.event_ids.clone()).collect();
            for m in found {
                assert!(tk.contains(&m.event_ids));
            }
        }
    }

    #[test]
    fn mismatched_windows_rejected() {
        let p1 = seq2(0, 1);
        let mut p2 = seq2(2, 3);
        p2.window = WindowSpec::Count(9);
        let err = train_multi_pattern(&[p1, p2], &stream(200, 0), &TrainConfig::quick())
            .err()
            .expect("mixed windows must be rejected");
        assert!(matches!(
            err,
            DlacepError::Pattern(dlacep_cep::PatternError::WindowMismatch { .. })
        ));
    }

    #[test]
    fn empty_pattern_set_rejected() {
        let err = train_multi_pattern(&[], &stream(100, 0), &TrainConfig::quick())
            .err()
            .expect("empty set must be rejected");
        assert!(matches!(
            err,
            DlacepError::Pattern(dlacep_cep::PatternError::EmptySet)
        ));
    }
}
