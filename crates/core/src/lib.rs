//! # dlacep-core
//!
//! The DLACEP framework (Amir, Kolchinsky & Schuster, SIGMOD 2022): a
//! deep-learning filter fused with a classical CEP engine for approximate
//! complex event processing.
//!
//! The pipeline (paper Fig. 4):
//! 1. an [`assembler`] slides `MarkSize = 2W` windows over the stream in
//!    steps of `StepSize = W`;
//! 2. a [`filter`] (stacked-BiLSTM event-network with a BI-CRF head, or a
//!    window-network classifier) marks the events that participate in full
//!    matches;
//! 3. marked events — deduplicated, with their original arrival ids — go to
//!    a CEP extractor whose ID-distance constraint enforces the original
//!    count window, so no false-positive matches are emitted (§4.4);
//! 4. the union of window matches is the output.
//!
//! [`trainer`] covers the offline phase: labeling a historical stream with
//! the exact engine, embedding, and training either network to the paper's
//! convergence criterion. [`metrics`] and [`objective`] quantify the
//! throughput-gain / recall trade-off against exact CEP.
//!
//! ## Quick start
//!
//! ```
//! use dlacep_core::prelude::*;
//! use dlacep_cep::{Pattern, PatternExpr, TypeSet};
//! use dlacep_events::{EventStream, TypeId, WindowSpec};
//!
//! // SEQ(A, B) WITHIN 4 — find every A followed by a B within 4 arrivals.
//! let pattern = Pattern::new(
//!     PatternExpr::Seq(vec![
//!         PatternExpr::event(TypeSet::single(TypeId(0)), "a"),
//!         PatternExpr::event(TypeSet::single(TypeId(1)), "b"),
//!     ]),
//!     vec![],
//!     WindowSpec::Count(4),
//! );
//! let mut stream = EventStream::new();
//! for i in 0..32 {
//!     stream.push(TypeId((i % 3) as u32), i, vec![0.0]);
//! }
//! // The oracle filter marks exactly the true match participants — the
//! // upper bound any trained network approaches.
//! let dlacep = Dlacep::new(pattern.clone(), OracleFilter::new(pattern.clone())).unwrap();
//! let report = dlacep.run(stream.events());
//! assert!(!report.matches.is_empty());
//! ```

pub mod assembler;
pub mod builder;
pub mod chaos;
pub mod drift;
pub mod durable;
pub mod embed;
pub mod filter;
pub mod guard;
pub mod metrics;
pub mod model;
pub mod objective;
pub mod persist;
pub mod pipeline;
pub mod quantized;
pub mod retrain;
pub mod runtime;
pub mod stage;
pub mod trainer;

pub use assembler::{AssemblerConfig, AssemblerError};
pub use builder::{DlacepBuilder, DurableBuilder, StreamingBuilder};
pub use chaos::{out_of_order_timestamps, ChaosFault, ChaosFilter, ChaosTrainer, TrainFault};
pub use dlacep_par::{Parallelism, PoolStats};
pub use drift::{DriftConfig, DriftMonitor, DriftMonitorState, DriftState};
pub use durable::{
    decode_checkpoint, decode_offer, dur_dir_from_env, encode_checkpoint, encode_offer, put_offer,
    DurConfig, DurError, DurableDlacep, RecoveryReport, DUR_DIR_ENV,
};
pub use embed::EventEmbedder;
pub use filter::{
    EventNetFilter, Filter, OracleFilter, PassthroughFilter, WindowMarks, WindowNetFilter,
    MARK_BATCH,
};
pub use guard::{BreakerState, FaultKind, FilterGuard, GuardConfig, GuardState, GuardStats};
pub use metrics::{compare, compare_runs, run_ecep, ComparisonReport};
pub use model::{EventNetwork, NetworkConfig, WindowNetwork};
pub use objective::AcepObjective;
pub use persist::{
    load_event_filter, load_quantized_filter, load_window_filter, save_event_filter,
    save_quantized_filter, save_window_filter, PersistError,
};
pub use pipeline::{Dlacep, DlacepError, DlacepReport};
pub use quantized::{QuantizeError, QuantizedEventNetwork, QuantizedFilter};
pub use retrain::{
    train_on_windows, EventNetRetrainer, GateReport, ModelTrainer, QuantizedRetrainer,
    RetrainCheckpoint, RetrainConfig, RetrainState,
};
pub use runtime::{
    EmittedMark, ModeCause, ModeTransition, RetrainReport, RuntimeCheckpoint, RuntimeConfig,
    RuntimeError, RuntimeMode, RuntimeReport, StreamingDlacep,
};
pub use trainer::{
    train_event_filter, train_multi_pattern, train_window_filter, EventNetTraining, TrainConfig,
    WindowNetTraining,
};

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::assembler::AssemblerConfig;
    pub use crate::builder::{DlacepBuilder, DurableBuilder, StreamingBuilder};
    pub use crate::drift::DriftConfig;
    pub use crate::durable::{DurConfig, DurableDlacep};
    pub use crate::filter::{
        EventNetFilter, Filter, OracleFilter, PassthroughFilter, WindowNetFilter,
    };
    pub use crate::guard::GuardConfig;
    pub use crate::metrics::{compare, ComparisonReport};
    pub use crate::objective::AcepObjective;
    pub use crate::pipeline::{Dlacep, DlacepError, DlacepReport};
    pub use crate::quantized::{QuantizeError, QuantizedEventNetwork, QuantizedFilter};
    pub use crate::retrain::{
        EventNetRetrainer, ModelTrainer, QuantizedRetrainer, RetrainConfig, RetrainState,
    };
    pub use crate::runtime::{
        RuntimeConfig, RuntimeError, RuntimeMode, RuntimeReport, StreamingDlacep,
    };
    pub use crate::trainer::{train_event_filter, train_window_filter, TrainConfig};
    pub use dlacep_par::Parallelism;
}
