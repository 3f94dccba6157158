//! # dlacep-nn
//!
//! A from-scratch, dependency-light neural-network substrate sufficient to
//! implement the DLACEP paper's models: stacked BiLSTM encoders with either a
//! bidirectional-CRF event-labeling head (the *event-network*) or a pooled
//! classification head (the *window-network*), trained with Adam under the
//! paper's dynamic learning-rate and batch-size schedules.
//!
//! Why from scratch: the reproduction environment has no GPU framework
//! available offline; the paper's networks are small (3 stacked BiLSTM
//! layers, hidden width 75), so exact CPU training is feasible at reduced
//! scale. See DESIGN.md for the substitution note.
//!
//! Layout:
//! * [`matrix`] — dense row-major `f32` matrices and kernels,
//! * [`graph`] — tape-based reverse-mode autodiff,
//! * [`params`] — trainable-parameter store shared by layers and optimizers,
//! * [`init`] — deterministic initializers,
//! * [`linear`], [`lstm`] — layers (Linear, LSTM, BiLSTM, stacked BiLSTM),
//! * [`crf`] — exact linear-chain CRF and BI-CRF heads,
//! * [`quant`] — int8 post-training quantization and the inference fast path,
//! * [`optim`] — SGD/Adam + learning-rate schedules,
//! * [`train`] — batching, convergence detection,
//! * [`metrics`] — precision/recall/F1 (paper §4.3).

pub mod crf;
pub mod graph;
pub mod init;
pub mod linear;
pub mod lstm;
pub mod matrix;
pub mod metrics;
pub mod optim;
pub mod params;
pub mod quant;
pub mod train;

pub use crf::{BiCrf, Crf, CrfWorkspace};
pub use graph::{Graph, Var};
pub use init::Initializer;
pub use linear::Linear;
pub use lstm::{BiLstmLayer, LstmLayer, StackedBiLstm};
pub use matrix::{Matrix, ShapeError};
pub use metrics::Confusion;
pub use optim::{Adam, LrSchedule, Optimizer, Sgd};
pub use params::{ParamId, ParamStore};
pub use quant::{
    calibrate_input_scale, QuantError, QuantizedLinear, QuantizedMatrix, QuantizedStackedBiLstm,
    ScratchArena,
};
pub use train::{
    record_epoch, BatchSampler, BatchSchedule, ConvergenceDetector, TrainReport, TrainStep,
};
