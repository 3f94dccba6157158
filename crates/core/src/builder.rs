//! Fluent construction for every DLACEP execution surface.
//!
//! The pipeline once grew construction variants one orthogonal option at a
//! time until combining options meant chaining setters in the right order.
//! The builders collapse that into one chain per surface:
//!
//! * [`DlacepBuilder`] — the batch pipeline ([`Dlacep`]);
//! * [`StreamingBuilder`] — the supervised streaming runtime
//!   ([`StreamingDlacep`]);
//! * [`DurableBuilder`] — the crash-recoverable runtime
//!   ([`DurableDlacep`]), reached via [`StreamingBuilder::durable`].
//!
//! Every option is applied at construction: the obs registry is installed
//! before the first journal entry (so a custom registry's journal is
//! self-contained from entry zero) and the batch pipeline's marking lanes
//! are set up against the final registry (so `pool.*` metrics land with the
//! pipeline's own).
//!
//! The streaming runtime's semantic options live in one [`RuntimeConfig`],
//! passed whole with [`StreamingBuilder::config`]; the builder adds only what
//! is not configuration — a model trainer ([`StreamingBuilder::retrain`]),
//! an obs registry ([`StreamingBuilder::obs`]) and a store
//! ([`StreamingBuilder::durable`]). A streaming runtime has one construction
//! path: [`StreamingBuilder::build`] starts it cold and
//! [`StreamingBuilder::restore`] resumes a checkpoint, both through the same
//! validation ([`StreamingDlacep::new`] is `build` with every default);
//! [`DurableBuilder::recover`] restores whatever its store holds that same
//! way.
//!
//! Once built, a runtime is fed through one pair:
//! [`StreamingDlacep::ingest`] for one event and
//! [`StreamingDlacep::ingest_batch`] for owned events. Admission re-stamps
//! ids by arrival; the id an event is offered with is its trace-sampling
//! key (`ingest` offers at the id it stamps, a fleet at the event's
//! fleet-global sequence number).
//!
//! ```
//! use dlacep_core::prelude::*;
//! use dlacep_cep::{Pattern, PatternExpr, TypeSet};
//! use dlacep_events::{TypeId, WindowSpec};
//!
//! let pattern = Pattern::new(
//!     PatternExpr::Seq(vec![
//!         PatternExpr::event(TypeSet::single(TypeId(0)), "a"),
//!         PatternExpr::event(TypeSet::single(TypeId(1)), "b"),
//!     ]),
//!     vec![],
//!     WindowSpec::Count(4),
//! );
//! let dlacep = Dlacep::builder(pattern.clone(), OracleFilter::new(pattern))
//!     .parallelism(Parallelism::default())
//!     .build()
//!     .unwrap();
//! # let _ = dlacep;
//! ```

use crate::assembler::AssemblerConfig;
use crate::durable::{DurConfig, DurError, DurableDlacep, RecoveryReport};
use crate::filter::Filter;
use crate::pipeline::{Dlacep, DlacepError};
use crate::retrain::{ModelTrainer, RetrainConfig};
use crate::runtime::{RuntimeCheckpoint, RuntimeConfig, RuntimeError, StreamingDlacep};
use crate::stage::Parallelism;
use dlacep_cep::{Pattern, PatternSet};
use dlacep_dur::{Store, StoreLog};
use dlacep_obs::Registry;
use std::sync::Arc;

/// Builder for the batch pipeline ([`Dlacep`]).
///
/// Unset options take the same defaults as [`Dlacep::new`]: paper-default
/// assembler geometry, serial execution, the global obs registry.
#[must_use = "builders do nothing until .build() is called"]
#[derive(Debug)]
pub struct DlacepBuilder<F: Filter> {
    patterns: Vec<Pattern>,
    filter: F,
    assembler: Option<AssemblerConfig>,
    parallelism: Parallelism,
    obs: Option<Arc<Registry>>,
}

impl<F: Filter> DlacepBuilder<F> {
    /// Start building a pipeline for `pattern` marked by `filter`.
    pub fn new(pattern: Pattern, filter: F) -> Self {
        Self {
            patterns: vec![pattern],
            filter,
            assembler: None,
            parallelism: Parallelism::default(),
            obs: None,
        }
    }

    /// Start building a pipeline monitoring a whole [`PatternSet`].
    pub fn multi(patterns: PatternSet, filter: F) -> Self {
        Self {
            patterns: patterns.patterns().to_vec(),
            filter,
            assembler: None,
            parallelism: Parallelism::default(),
            obs: None,
        }
    }

    /// Register additional patterns alongside the constructor's pattern.
    /// The whole set is validated as a [`PatternSet`] (one shared window) at
    /// [`DlacepBuilder::build`] and compiled into a shared plan evaluated in
    /// one stream scan; per-pattern matches land in
    /// [`crate::pipeline::DlacepReport::per_pattern`].
    pub fn patterns(mut self, patterns: impl IntoIterator<Item = Pattern>) -> Self {
        self.patterns.extend(patterns);
        self
    }

    /// Assembler geometry (default: `MarkSize = 2W`, `StepSize = W`).
    /// Validated against the pattern's window at [`DlacepBuilder::build`].
    pub fn assembler(mut self, assembler: AssemblerConfig) -> Self {
        self.assembler = Some(assembler);
        self
    }

    /// Parallel execution config (default: serial). A config resolving to
    /// one thread keeps the serial path.
    pub fn parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Obs registry for metrics, spans, and the event journal (default:
    /// [`dlacep_obs::global`]).
    pub fn obs(mut self, registry: Arc<Registry>) -> Self {
        self.obs = Some(registry);
        self
    }

    /// Validate and construct the pipeline.
    pub fn build(self) -> Result<Dlacep<F>, DlacepError> {
        let set = PatternSet::new(self.patterns)?;
        let assembler = self
            .assembler
            .unwrap_or_else(|| AssemblerConfig::paper_default(set.window().size()));
        Dlacep::construct(set, self.filter, assembler, self.parallelism, self.obs)
    }
}

/// Builder for the supervised streaming runtime ([`StreamingDlacep`]).
///
/// Without [`StreamingBuilder::config`] the runtime takes the
/// [`RuntimeConfig`] defaults.
#[must_use = "builders do nothing until .build() is called"]
pub struct StreamingBuilder<F: Filter> {
    pattern: Pattern,
    filter: F,
    config: RuntimeConfig,
    obs: Option<Arc<Registry>>,
    trainer: Option<Box<dyn ModelTrainer<F>>>,
}

impl<F: Filter + std::fmt::Debug> std::fmt::Debug for StreamingBuilder<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamingBuilder")
            .field("pattern", &self.pattern)
            .field("filter", &self.filter)
            .field("config", &self.config)
            .field("obs", &self.obs)
            .field(
                "trainer",
                &self.trainer.as_ref().map(|_| "<dyn ModelTrainer>"),
            )
            .finish()
    }
}

impl<F: Filter> StreamingBuilder<F> {
    /// Start building a streaming runtime for `pattern` marked by `filter`.
    pub fn new(pattern: Pattern, filter: F) -> Self {
        Self {
            pattern,
            filter,
            config: RuntimeConfig::default(),
            obs: None,
            trainer: None,
        }
    }

    /// The runtime configuration: assembler geometry, out-of-order policy,
    /// guard, partial-match budget, drift detection and retrain policy.
    pub fn config(mut self, config: RuntimeConfig) -> Self {
        self.config = config;
        self
    }

    /// Enable the self-healing retrain supervisor: on a drift signal,
    /// `trainer` retrains on the replay buffer and a validated candidate is
    /// hot-swapped in. Sets [`RuntimeConfig::retrain`], so call it after
    /// [`StreamingBuilder::config`], whose drift detection it requires (the
    /// supervisor is armed by the drift signal); `build` rejects one
    /// without the other.
    pub fn retrain(mut self, retrain: RetrainConfig, trainer: Box<dyn ModelTrainer<F>>) -> Self {
        self.config.retrain = Some(retrain);
        self.trainer = Some(trainer);
        self
    }

    /// Obs registry for metrics and the journal (default:
    /// [`dlacep_obs::global`]). Installed before the initial mode is
    /// recorded, so the registry's journal is self-contained.
    pub fn obs(mut self, registry: Arc<Registry>) -> Self {
        self.obs = Some(registry);
        self
    }

    /// Carry the accumulated options into a [`DurableBuilder`] for the
    /// crash-recoverable runtime on `store`.
    pub fn durable<S: Store>(self, dur: DurConfig, store: S) -> DurableBuilder<F, S> {
        DurableBuilder {
            inner: self,
            dur,
            store,
        }
    }

    /// Validate and construct the runtime.
    pub fn build(self) -> Result<StreamingDlacep<F>, RuntimeError> {
        StreamingDlacep::open(
            self.pattern,
            self.filter,
            self.config,
            self.obs,
            self.trainer,
            None,
        )
    }

    /// Validate and reconstruct the runtime from a checkpoint instead of a
    /// cold start. Pattern, filter kind, config (and trainer, when retrain
    /// is enabled) must be what the checkpointing runtime ran with: the
    /// semantic configuration is verified against the checkpoint's
    /// fingerprint, the pattern structurally by the engine-state import. A
    /// registry set with [`obs`](Self::obs) gets the metrics and journal
    /// without a new entry, so the restored journal sequence lines up with
    /// the uninterrupted run's from the checkpoint's
    /// [`journal watermark`](RuntimeCheckpoint::journal_next_seq). With
    /// retraining, the trainer decodes the checkpointed active model, which
    /// is swapped back in so the restored runtime marks with the same
    /// weights.
    ///
    /// The matches emitted before the checkpoint are not in it: put them in
    /// [`RuntimeCheckpoint::emitted_prefix`] first, or, for output the
    /// caller keeps as logged bytes, their mark in
    /// [`RuntimeCheckpoint::emitted_logged`]. An emitted prefix whose count
    /// or hash disagrees with the checkpoint's mark is a
    /// [`RuntimeError::Restore`].
    ///
    /// After restore, ingesting the same events the original runtime would
    /// have seen next produces byte-identical matches, counters, timeline
    /// and journal entries — the crash-recovery equivalence the crash sweep
    /// proves.
    pub fn restore(self, ckpt: RuntimeCheckpoint) -> Result<StreamingDlacep<F>, RuntimeError> {
        StreamingDlacep::open(
            self.pattern,
            self.filter,
            self.config,
            self.obs,
            self.trainer,
            Some(ckpt),
        )
    }
}

/// Builder for the crash-recoverable runtime ([`DurableDlacep`]). Created
/// via [`StreamingBuilder::durable`].
#[must_use = "builders do nothing until .build()/.recover() is called"]
pub struct DurableBuilder<F: Filter, S: Store> {
    inner: StreamingBuilder<F>,
    dur: DurConfig,
    store: S,
}

impl<F: Filter + std::fmt::Debug, S: Store + std::fmt::Debug> std::fmt::Debug
    for DurableBuilder<F, S>
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurableBuilder")
            .field("inner", &self.inner)
            .field("dur", &self.dur)
            .field("store", &self.store)
            .finish()
    }
}

impl<F: Filter, S: Store> DurableBuilder<F, S> {
    /// Start a durable runtime on an empty store (a store that holds
    /// anything is refused with [`DurError::NotEmpty`] and left as found).
    /// For a store that may already hold a log (i.e. after a crash), use
    /// [`DurableBuilder::recover`] — it handles the empty store as a cold
    /// start, so it is always safe to call instead.
    pub fn build(self) -> Result<DurableDlacep<F, S>, DurError> {
        StoreLog::check_empty::<DurError>(&self.store)?;
        Ok(self.recover()?.0)
    }

    /// Recover from whatever the store holds (latest checkpoint + WAL
    /// replay), or cold-start on an empty store. The streaming builder's
    /// pattern, filter, config and trainer must be what the original
    /// runtime ran with; a configuration mismatch is a
    /// [`RuntimeError::Restore`] error. A registry set with
    /// [`StreamingBuilder::obs`] gets the runtime's metrics and journal from
    /// the first entry (the initial mode included).
    ///
    /// With retraining configured the trainer decodes the checkpointed
    /// active model (so marking resumes on the same weights) and an
    /// interrupted in-flight retrain resumes at its checkpointed schedule
    /// during WAL replay; a model the crashed run accepted after its last
    /// checkpoint is re-derived by that replay. Replayed events that the
    /// original run rejected (out-of-order under
    /// [`Reject`](dlacep_events::OutOfOrderPolicy::Reject)) are rejected
    /// again — deterministically — and skipped, as the live path
    /// experienced them.
    pub fn recover(self) -> Result<(DurableDlacep<F, S>, RecoveryReport), DurError> {
        DurableDlacep::recover(self.inner, self.dur, self.store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::{OracleFilter, PassthroughFilter};
    use dlacep_cep::{PatternExpr, TypeSet};
    use dlacep_events::{EventStream, TypeId, WindowSpec};

    fn seq_ab(w: u64) -> Pattern {
        Pattern::new(
            PatternExpr::Seq(vec![
                PatternExpr::event(TypeSet::single(TypeId(0)), "a"),
                PatternExpr::event(TypeSet::single(TypeId(1)), "b"),
            ]),
            vec![],
            WindowSpec::Count(w),
        )
    }

    fn stream(n: usize) -> EventStream {
        let mut s = EventStream::new();
        for i in 0..n {
            let t = match i % 7 {
                2 => TypeId(0),
                4 => TypeId(1),
                _ => TypeId(2),
            };
            s.push(t, i as u64, vec![0.0]);
        }
        s
    }

    #[test]
    fn builder_defaults_match_new() {
        let p = seq_ab(8);
        let s = stream(120);
        let built = Dlacep::builder(p.clone(), OracleFilter::new(p.clone()))
            .build()
            .unwrap()
            .run(s.events());
        let legacy = Dlacep::new(p.clone(), OracleFilter::new(p))
            .unwrap()
            .run(s.events());
        assert_eq!(built.matches(), legacy.matches());
        assert_eq!(built.events_relayed, legacy.events_relayed);
    }

    #[test]
    fn builder_rejects_invalid_assembler() {
        let bad = AssemblerConfig {
            mark_size: 4,
            step_size: 1,
        };
        assert!(matches!(
            Dlacep::builder(seq_ab(10), PassthroughFilter)
                .assembler(bad)
                .build(),
            Err(DlacepError::Assembler(_))
        ));
    }

    #[test]
    fn builder_obs_lands_in_custom_registry() {
        let p = seq_ab(8);
        let s = stream(120);
        let registry = Arc::new(Registry::enabled());
        let dl = Dlacep::builder(p.clone(), OracleFilter::new(p))
            .obs(registry.clone())
            .build()
            .unwrap();
        let _ = dl.run(s.events());
        let snap = registry.snapshot();
        assert_eq!(snap.counters.get("pipeline.events_total"), Some(&120));
        assert!(*snap.counters.get("pipeline.windows_marked").unwrap() > 0);
        // An f32 filter's windows land on the f32 side of the quant split.
        assert_eq!(
            snap.counters.get("pipeline.windows_marked"),
            snap.counters.get("pipeline.windows_marked_f32")
        );
        assert_eq!(snap.counters.get("pipeline.windows_marked_quant"), Some(&0));
    }

    #[test]
    fn durable_chain_builds_and_recovers() {
        let p = seq_ab(8);
        let dur = DurConfig::default();
        let store = dlacep_dur::MemStore::new();
        let d = StreamingDlacep::builder(p.clone(), PassthroughFilter)
            .durable(dur, store)
            .build()
            .unwrap();
        drop(d);
        let (d2, report) = StreamingDlacep::builder(p, PassthroughFilter)
            .durable(DurConfig::default(), dlacep_dur::MemStore::new())
            .recover()
            .unwrap();
        assert_eq!(report.wal_replayed, 0, "cold start replays nothing");
        drop(d2);
    }
}
