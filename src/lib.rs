//! # dlacep
//!
//! Umbrella crate for the DLACEP reproduction (Amir, Kolchinsky & Schuster,
//! *DLACEP: A Deep-Learning Based Framework for Approximate Complex Event
//! Processing*, SIGMOD 2022): re-exports the workspace crates under one
//! namespace.
//!
//! * [`events`] — primitive events, schemas, streams, windows;
//! * [`cep`] — the exact CEP engine substrate (NFA, ZStream tree, lazy) and
//!   the pattern language;
//! * [`nn`] — the from-scratch neural-network substrate (BiLSTM, CRF, Adam);
//! * [`data`] — synthetic datasets and exact-CEP labeling;
//! * [`core`] — the DLACEP framework: assembler, filters, pipeline, trainer,
//!   and the `Parallelism` config for marking windows on scoped threads;
//! * [`obs`] — zero-dependency metrics, spans, and the event journal;
//! * [`dur`] — durability primitives: binary codec, write-ahead log,
//!   checkpoints, and crash injection;
//! * [`serve`] — the keyed multi-shard ingestion tier: hash-partitioned
//!   durable runtime shards, fleet-wide crash recovery, in-process and
//!   TCP (`DMSV` wire protocol) front ends.
//!
//! See the `examples/` directory for runnable end-to-end scenarios and the
//! `dlacep-bench` crate for the paper's experiments.

#![forbid(unsafe_code)]

pub use dlacep_cep as cep;
pub use dlacep_core as core;
pub use dlacep_data as data;
pub use dlacep_dur as dur;
pub use dlacep_events as events;
pub use dlacep_nn as nn;
pub use dlacep_obs as obs;
pub use dlacep_serve as serve;

/// One-stop glob import for applications: the core prelude (pipeline,
/// builders, filters, runtime, quantized fast path) plus the pattern
/// language and stream types needed to drive it.
///
/// ```
/// use dlacep::prelude::*;
///
/// let pattern = Pattern::new(
///     PatternExpr::Seq(vec![
///         PatternExpr::event(TypeSet::single(TypeId(0)), "a"),
///         PatternExpr::event(TypeSet::single(TypeId(1)), "b"),
///     ]),
///     vec![],
///     WindowSpec::Count(4),
/// );
/// let dlacep = Dlacep::builder(pattern.clone(), OracleFilter::new(pattern))
///     .build()
///     .unwrap();
/// # let _ = dlacep;
/// ```
pub mod prelude {
    pub use dlacep_cep::{Pattern, PatternError, PatternExpr, PatternSet, TypeSet};
    pub use dlacep_core::prelude::*;
    pub use dlacep_events::{EventStream, OutOfOrderPolicy, PrimitiveEvent, TypeId, WindowSpec};
}
