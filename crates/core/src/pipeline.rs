//! The end-to-end DLACEP pipeline (paper Fig. 4): assemble → mark → dedupe →
//! extract → union.

use crate::assembler::{AssemblerConfig, AssemblerError};
use crate::filter::Filter;
use crate::guard::GuardConfig;
use crate::stage::MarkStage;
use dlacep_cep::engine::CepEngine;
use dlacep_cep::plan::{CompileError, Plan};
use dlacep_cep::{EngineStats, Match, NfaConfig, Pattern, PatternError, PatternSet, SharedPlan};
use dlacep_events::PrimitiveEvent;
use dlacep_obs::{Counter, Histogram, MetricsSnapshot, Registry, TraceBuilder, Tracer};
use dlacep_par::{Parallelism, PoolStats, ThreadPool};
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Errors raised when constructing a [`Dlacep`] pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DlacepError {
    /// Assembler configuration is invalid for the pattern's window.
    Assembler(AssemblerError),
    /// The pattern failed to compile into an extractor plan.
    Compile(CompileError),
    /// The pattern set was rejected (empty, mixed windows, or a rewrite
    /// failure) before compilation.
    Pattern(PatternError),
}

impl std::fmt::Display for DlacepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DlacepError::Assembler(e) => write!(f, "assembler: {e}"),
            DlacepError::Compile(e) => write!(f, "pattern compile: {e}"),
            DlacepError::Pattern(e) => write!(f, "pattern set: {e}"),
        }
    }
}

impl std::error::Error for DlacepError {}

impl From<AssemblerError> for DlacepError {
    fn from(e: AssemblerError) -> Self {
        DlacepError::Assembler(e)
    }
}

impl From<CompileError> for DlacepError {
    fn from(e: CompileError) -> Self {
        DlacepError::Compile(e)
    }
}

impl From<PatternError> for DlacepError {
    fn from(e: PatternError) -> Self {
        match e {
            // Preserve the historical shape: a plan-compilation failure
            // surfaces as `Compile` whether it came through a set or not.
            PatternError::Compile(c) => DlacepError::Compile(c),
            other => DlacepError::Pattern(other),
        }
    }
}

/// Outcome of one DLACEP run over a stream prefix.
#[derive(Debug, Clone)]
pub struct DlacepReport {
    /// Matches emitted by the CEP extractor on the filtered stream (the
    /// union across registered patterns, in emission order).
    pub matches: Vec<Match>,
    /// Matches attributed to each registered pattern, in registration
    /// order. For a single-pattern pipeline `per_pattern[0] == matches`.
    pub per_pattern: Vec<Vec<Match>>,
    /// Events fed to the pipeline.
    pub events_total: usize,
    /// Distinct events relayed to the extractor after marking + dedup.
    pub events_relayed: usize,
    /// Wall time spent in assembly + neural marking.
    pub filter_time: Duration,
    /// Wall time spent in CEP extraction on the filtered stream.
    pub cep_time: Duration,
    /// Fraction of events filtered *out* (the paper's Ψ).
    pub filtering_ratio: f64,
    /// Extractor work counters.
    pub extractor_stats: EngineStats,
    /// Windows on which the filter faulted (panic, wrong mark-vector
    /// length). Each such window fails open: all of its events are relayed,
    /// trading throughput for recall; consecutive faults open the run's
    /// breaker (see [`crate::guard`]), which relays further windows in full
    /// without invoking the filter.
    pub filter_faults: usize,
    /// Cumulative scheduling counters of the pipeline's pool; `None` on the
    /// serial path.
    pub pool: Option<PoolStats>,
    /// Snapshot of the pipeline's obs registry taken as the run finished;
    /// `None` when the registry is disabled. Cumulative across runs of the
    /// same `Dlacep` instance — diff successive snapshots with
    /// [`MetricsSnapshot::diff`] for per-run values.
    pub obs: Option<MetricsSnapshot>,
}

impl DlacepReport {
    /// Total processing time (filtering + extraction).
    #[must_use]
    pub fn total_time(&self) -> Duration {
        self.filter_time + self.cep_time
    }

    /// Events per second over the whole pipeline.
    #[must_use]
    pub fn throughput(&self) -> f64 {
        let secs = self.total_time().as_secs_f64();
        if secs == 0.0 {
            f64::INFINITY
        } else {
            self.events_total as f64 / secs
        }
    }
}

/// Cached handles into the pipeline's obs registry, resolved once at
/// construction so the hot loops never touch the registry's name map.
/// Counter values follow the determinism contract; the histograms are
/// timing and exempt.
struct PipelineObs {
    registry: Arc<Registry>,
    events_total: Counter,
    events_relayed: Counter,
    windows_marked: Counter,
    windows_marked_quant: Counter,
    windows_marked_f32: Counter,
    filter_faults: Counter,
    mark_nanos: Histogram,
    filter_stage_nanos: Histogram,
    cep_stage_nanos: Histogram,
    cep: CepCounters,
}

impl PipelineObs {
    fn new(registry: Arc<Registry>) -> Self {
        PipelineObs {
            events_total: registry.counter("pipeline.events_total"),
            events_relayed: registry.counter("pipeline.events_relayed"),
            windows_marked: registry.counter("pipeline.windows_marked"),
            windows_marked_quant: registry.counter("pipeline.windows_marked_quant"),
            windows_marked_f32: registry.counter("pipeline.windows_marked_f32"),
            filter_faults: registry.counter("pipeline.filter_faults"),
            mark_nanos: registry.histogram("pipeline.mark_nanos"),
            filter_stage_nanos: registry.histogram("pipeline.filter_stage_nanos"),
            cep_stage_nanos: registry.histogram("pipeline.cep_stage_nanos"),
            cep: CepCounters::new(&registry),
            registry,
        }
    }
}

/// The `cep.*` counters an extractor's work folds into, for the batch
/// pipeline and the streaming runtime alike.
pub(crate) struct CepCounters {
    events_processed: Counter,
    partials_created: Counter,
    partials_shed: Counter,
    condition_evals: Counter,
    matches_emitted: Counter,
}

impl CepCounters {
    pub(crate) fn new(registry: &Registry) -> Self {
        Self {
            events_processed: registry.counter("cep.events_processed"),
            partials_created: registry.counter("cep.partials_created"),
            partials_shed: registry.counter("cep.partials_shed"),
            condition_evals: registry.counter("cep.condition_evals"),
            matches_emitted: registry.counter("cep.matches_emitted"),
        }
    }

    pub(crate) fn record(&self, stats: &EngineStats) {
        self.events_processed.add(stats.events_processed);
        self.partials_created.add(stats.partial_matches_created);
        self.partials_shed.add(stats.partials_shed);
        self.condition_evals.add(stats.condition_evaluations);
        self.matches_emitted.add(stats.matches_emitted);
    }
}

/// One sampled batch-pipeline trace: event id, builder, and root span.
struct PipeTrace {
    id: u64,
    builder: TraceBuilder,
    root: u32,
}

/// Open a trace per sampled event (1-in-N on the event id). Empty when the
/// tracer is disabled, so the batch path stays allocation-free by default.
fn begin_pipeline_traces(tracer: &Tracer, events: &[PrimitiveEvent]) -> Vec<PipeTrace> {
    let mut out = Vec::new();
    if !tracer.is_enabled() {
        return out;
    }
    for ev in events {
        if let Some(mut b) = tracer.begin(ev.id.0) {
            let root = b.start("ingest", None);
            b.annotate(root, "event_id", ev.id.0.into());
            b.annotate(root, "type_id", u64::from(ev.type_id.0).into());
            b.end(root);
            out.push(PipeTrace {
                id: ev.id.0,
                builder: b,
                root,
            });
        }
    }
    out
}

/// Attach the stage spans (mark → cep → emit/filtered) to every sampled
/// trace and publish them. The batch pipeline marks whole stages, so all
/// traces of one run share the stage timestamps; causality per event comes
/// from the relayed/matched annotations.
fn finish_pipeline_traces(
    traces: Vec<PipeTrace>,
    windows_marked: u64,
    filtered: &[PrimitiveEvent],
    matches: &[Match],
    t_mark: (u64, u64),
    t_cep: (u64, u64),
) {
    if traces.is_empty() {
        return;
    }
    let matched: BTreeSet<u64> = matches
        .iter()
        .flat_map(|m| m.event_ids.iter().map(|id| id.0))
        .collect();
    for mut t in traces {
        // `filtered` keeps stream order, which is ascending ids.
        let relayed = filtered.binary_search_by_key(&t.id, |ev| ev.id.0).is_ok();
        let m = t.builder.span_at("mark", Some(t.root), t_mark.0, t_mark.1);
        t.builder.annotate(m, "windows", windows_marked.into());
        t.builder.annotate(m, "relayed", u64::from(relayed).into());
        if relayed {
            let c = t.builder.span_at("cep", Some(t.root), t_cep.0, t_cep.1);
            if matched.contains(&t.id) {
                let e = t.builder.instant("emit", Some(c));
                t.builder.annotate(e, "matched", 1u64.into());
            }
        } else {
            t.builder.instant("filtered", Some(t.root));
        }
        t.builder.finish();
    }
}

/// The DLACEP system: an input assembler, a filter, and a CEP extractor.
///
/// Natively multi-pattern: the registered [`PatternSet`] (one pattern for
/// the classic surface) is compiled through the rewrite front-end into one
/// shared plan ([`SharedPlan`]), so N patterns cost one stream scan, and
/// matches are attributed back per pattern in [`DlacepReport::per_pattern`].
pub struct Dlacep<F: Filter> {
    patterns: PatternSet,
    shared: SharedPlan,
    assembler: AssemblerConfig,
    filter: F,
    par: Parallelism,
    pool: Option<Arc<ThreadPool>>,
    obs: PipelineObs,
}

impl<F: Filter> Dlacep<F> {
    /// Build with the paper-default assembler (`MarkSize = 2W`,
    /// `StepSize = W`).
    pub fn new(pattern: Pattern, filter: F) -> Result<Self, DlacepError> {
        Self::builder(pattern, filter).build()
    }

    /// Start a fluent builder — the one construction surface for every
    /// non-default option (assembler geometry, parallelism, obs registry).
    /// Additional patterns register via
    /// [`crate::builder::DlacepBuilder::patterns`].
    pub fn builder(pattern: Pattern, filter: F) -> crate::builder::DlacepBuilder<F> {
        crate::builder::DlacepBuilder::new(pattern, filter)
    }

    /// Start a builder over a whole [`PatternSet`] — the multi-pattern
    /// registration surface.
    pub fn multi(patterns: PatternSet, filter: F) -> crate::builder::DlacepBuilder<F> {
        crate::builder::DlacepBuilder::multi(patterns, filter)
    }

    /// Shared construction path behind [`Dlacep::builder`]: validates the
    /// assembler against the set's `W`, compiles the shared plan once
    /// (per-run extractors are instantiated from it, so `run` cannot fail),
    /// resolves obs handles, and builds the pool so its `pool.*` metrics
    /// land in the same registry.
    pub(crate) fn construct(
        patterns: PatternSet,
        filter: F,
        assembler: AssemblerConfig,
        par: Parallelism,
        registry: Option<Arc<Registry>>,
    ) -> Result<Self, DlacepError> {
        assembler.validate(patterns.window().size())?;
        let shared = patterns.compile()?;
        let obs = PipelineObs::new(registry.unwrap_or_else(dlacep_obs::global));
        let pool = par.build_pool(&obs.registry);
        Ok(Self {
            patterns,
            shared,
            assembler,
            filter,
            par,
            pool,
            obs,
        })
    }

    /// The active parallel execution config.
    pub fn parallelism(&self) -> Parallelism {
        self.par
    }

    /// The wrapped filter.
    pub fn filter(&self) -> &F {
        &self.filter
    }

    /// The first registered pattern — the whole set for single-pattern
    /// pipelines (see [`Dlacep::patterns`] for all of them).
    pub fn pattern(&self) -> &Pattern {
        &self.patterns.patterns()[0]
    }

    /// The registered pattern set.
    pub fn patterns(&self) -> &PatternSet {
        &self.patterns
    }

    /// The compiled extractor plan (the shared plan's fused branches).
    pub fn plan(&self) -> &Plan {
        self.shared.plan()
    }

    /// The shared evaluation plan, including sharing statistics
    /// ([`SharedPlan::report`]).
    pub fn shared_plan(&self) -> &SharedPlan {
        &self.shared
    }

    /// The assembler configuration.
    pub fn assembler(&self) -> &AssemblerConfig {
        &self.assembler
    }

    /// Run over a stream prefix (events in arrival order, ids ascending).
    ///
    /// Marked events keep their original ids, so the extractor's ID-distance
    /// constraint (§4.4) guarantees the emitted match set is a subset of the
    /// exact ECEP match set (no false positives, negation patterns aside).
    /// Duplicate marks from overlapping assembler windows are erased before
    /// relaying (§4.2).
    ///
    /// The filter half is a [`MarkStage`] over the whole slice, behind a
    /// default-configured guard that lives for this call: a filter that
    /// panics or returns marks of the wrong length degrades throughput,
    /// never recall, and never unwinds through `run`.
    ///
    /// With a multi-thread [`Parallelism`] config, window marking is batched
    /// onto the pool; extraction is one engine over the filtered stream
    /// either way. The report — matches, marks and `extractor_stats` — is
    /// identical to the serial path (see `dlacep_par`'s determinism
    /// contract); only `pool` differs.
    #[must_use = "the report carries the emitted matches"]
    pub fn run(&self, events: &[PrimitiveEvent]) -> DlacepReport {
        self.obs.events_total.add(events.len() as u64);
        let tracer = self.obs.registry.tracer();
        let traces = begin_pipeline_traces(&tracer, events);
        let t_f0 = tracer.now_nanos();
        let filter_start = Instant::now();
        // A finite slice is a stream that ends: admit every position, let
        // the stage mark all windows (trailing ones included) through a
        // guard that lives for this run, and keep what it finalizes.
        let mut stage = MarkStage::new(
            &self.filter,
            GuardConfig::default(),
            self.assembler,
            self.pool.clone(),
            self.obs.mark_nanos.clone(),
        );
        stage.admit(events.len());
        stage.settle(events, true, &mut ());
        let filtered: Vec<PrimitiveEvent> = events
            .iter()
            .zip(stage.drain_finalized())
            .filter(|(_, keep)| *keep)
            .map(|(ev, _)| ev.clone())
            .collect();
        let windows_marked = stage.windows_evaluated() as u64;
        let filter_faults = stage.guard().stats().faults_total as usize;
        let filter_time = filter_start.elapsed();
        let t_f1 = tracer.now_nanos();
        let obs = &self.obs;
        obs.windows_marked.add(windows_marked);
        // Split by inference path so quant-vs-f32 traffic is visible when a
        // deployment mixes quantized and full-precision filters in one
        // registry.
        if self.filter.quantized() {
            obs.windows_marked_quant.add(windows_marked);
        } else {
            obs.windows_marked_f32.add(windows_marked);
        }
        obs.filter_faults.add(filter_faults as u64);
        obs.events_relayed.add(filtered.len() as u64);
        obs.filter_stage_nanos
            .record(u64::try_from(filter_time.as_nanos()).unwrap_or(u64::MAX));

        let cep_start = Instant::now();
        // The engine and its partial-match state are dropped here, inside
        // the CEP stage, before attribution allocates the per-pattern sets.
        let (matches, extractor_stats) = {
            let mut extractor = self.shared.engine(NfaConfig::default());
            let matches = extractor.run(&filtered);
            (matches, *extractor.stats())
        };
        let cep_time = cep_start.elapsed();
        let t_c1 = tracer.now_nanos();
        obs.cep.record(&extractor_stats);
        obs.cep_stage_nanos
            .record(u64::try_from(cep_time.as_nanos()).unwrap_or(u64::MAX));
        finish_pipeline_traces(
            traces,
            windows_marked,
            &filtered,
            &matches,
            (t_f0, t_f1),
            (t_f1, t_c1),
        );

        // The engine emitted fused-plan matches (unit binding names);
        // attribute them back to their source patterns with the original
        // names restored.
        let attributed = self.shared.attribute_all(&matches);
        DlacepReport {
            matches: attributed.union,
            per_pattern: attributed.per_pattern,
            events_total: events.len(),
            events_relayed: filtered.len(),
            filter_time,
            cep_time,
            filtering_ratio: if events.is_empty() {
                0.0
            } else {
                1.0 - filtered.len() as f64 / events.len() as f64
            },
            extractor_stats,
            filter_faults,
            pool: stage.pool_stats(),
            obs: (obs.registry.is_enabled()).then(|| obs.registry.snapshot()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::{OracleFilter, PassthroughFilter};
    use dlacep_cep::{PatternExpr, TypeSet};
    use dlacep_data::label::ground_truth_matches;
    use dlacep_events::{EventStream, TypeId, WindowSpec};

    const A: TypeId = TypeId(0);
    const B: TypeId = TypeId(1);
    const C: TypeId = TypeId(2);

    fn seq_ab(w: u64) -> Pattern {
        Pattern::new(
            PatternExpr::Seq(vec![
                PatternExpr::event(TypeSet::single(A), "a"),
                PatternExpr::event(TypeSet::single(B), "b"),
            ]),
            vec![],
            WindowSpec::Count(w),
        )
    }

    fn noisy_stream(n: usize) -> EventStream {
        // Sparse A..B pairs in a sea of C noise.
        let mut s = EventStream::new();
        for i in 0..n {
            let t = match i % 17 {
                3 => A,
                6 => B,
                _ => C,
            };
            s.push(t, i as u64, vec![0.0]);
        }
        s
    }

    fn keys(ms: &[Match]) -> std::collections::BTreeSet<Vec<dlacep_events::EventId>> {
        ms.iter().map(|m| m.event_ids.clone()).collect()
    }

    #[test]
    fn oracle_pipeline_recovers_all_matches() {
        let p = seq_ab(8);
        let s = noisy_stream(200);
        let truth = ground_truth_matches(&p, s.events());
        assert!(!truth.is_empty());
        let dl = Dlacep::new(p.clone(), OracleFilter::new(p)).unwrap();
        let report = dl.run(s.events());
        assert_eq!(keys(&report.matches), keys(&truth));
        assert!(
            report.filtering_ratio > 0.5,
            "ratio {}",
            report.filtering_ratio
        );
    }

    #[test]
    fn no_false_positives_by_id_constraint() {
        // Whatever the filter does, emitted matches must be a subset of the
        // exact set (§4.4) — test with passthrough and with oracle.
        let p = seq_ab(5);
        let s = noisy_stream(150);
        let truth = keys(&ground_truth_matches(&p, s.events()));
        let pass = Dlacep::new(p.clone(), PassthroughFilter)
            .unwrap()
            .run(s.events());
        assert!(keys(&pass.matches).is_subset(&truth));
        assert_eq!(keys(&pass.matches), truth, "passthrough loses nothing");
    }

    #[test]
    fn duplicates_from_overlapping_windows_are_erased() {
        let p = seq_ab(4);
        let s = noisy_stream(64);
        let dl = Dlacep::new(p.clone(), PassthroughFilter).unwrap();
        let report = dl.run(s.events());
        // With MarkSize=2W, StepSize=W every event is seen twice; relayed
        // count must still equal the stream length.
        assert_eq!(report.events_relayed, 64);
        assert_eq!(report.events_total, 64);
        assert_eq!(report.filtering_ratio, 0.0);
    }

    #[test]
    fn report_times_and_throughput_populate() {
        let p = seq_ab(4);
        let s = noisy_stream(64);
        let report = Dlacep::new(p.clone(), OracleFilter::new(p))
            .unwrap()
            .run(s.events());
        assert!(report.throughput() > 0.0);
        assert!(report.total_time() >= report.cep_time);
        assert_eq!(
            report.extractor_stats.events_processed,
            report.events_relayed as u64
        );
    }

    #[test]
    fn invalid_assembler_rejected() {
        let p = seq_ab(10);
        let bad = AssemblerConfig {
            mark_size: 4,
            step_size: 1,
        };
        assert!(matches!(
            Dlacep::builder(p, PassthroughFilter).assembler(bad).build(),
            Err(DlacepError::Assembler(_))
        ));
    }

    #[test]
    fn uncompilable_pattern_rejected_at_construction() {
        // An empty SEQ has no positive leaves; the constructor must surface
        // the compile error instead of `run` panicking later.
        let p = Pattern::new(PatternExpr::Seq(vec![]), vec![], WindowSpec::Count(4));
        assert!(matches!(
            Dlacep::new(p, PassthroughFilter),
            Err(DlacepError::Compile(_))
        ));
    }

    /// A filter returning mark vectors of the wrong length.
    struct WrongLengthFilter;

    impl Filter for WrongLengthFilter {
        fn mark(&self, window: &[PrimitiveEvent]) -> Vec<bool> {
            vec![false; window.len() / 2]
        }

        fn name(&self) -> &'static str {
            "wrong-length"
        }
    }

    #[test]
    fn wrong_length_marks_fail_open() {
        let p = seq_ab(8);
        let s = noisy_stream(200);
        let truth = ground_truth_matches(&p, s.events());
        assert!(!truth.is_empty());
        let dl = Dlacep::new(p, WrongLengthFilter).unwrap();
        let report = dl.run(s.events());
        // Every window was faulty, every event relayed: full recall, faults
        // counted, no panic.
        assert!(report.filter_faults > 0);
        assert_eq!(report.events_relayed, report.events_total);
        assert_eq!(keys(&report.matches), keys(&truth));
    }

    #[test]
    fn panicking_filter_is_caught_and_opens_the_breaker() {
        struct AlwaysPanics;
        impl Filter for AlwaysPanics {
            fn mark(&self, _window: &[PrimitiveEvent]) -> Vec<bool> {
                panic!("broken filter");
            }
            fn name(&self) -> &'static str {
                "always-panics"
            }
        }

        let p = seq_ab(8);
        let s = noisy_stream(200);
        let truth = ground_truth_matches(&p, s.events());
        let report = Dlacep::new(p, AlwaysPanics).unwrap().run(s.events());
        // 24 windows under the default guard: three faults trip the
        // breaker, sixteen windows bypass the filter, the probe faults
        // again, the last four bypass. Nothing unwinds, nothing is lost.
        assert_eq!(report.filter_faults, 4);
        assert_eq!(report.events_relayed, report.events_total);
        assert_eq!(keys(&report.matches), keys(&truth));
    }

    #[test]
    fn empty_stream_is_fine() {
        let p = seq_ab(4);
        let report = Dlacep::new(p.clone(), OracleFilter::new(p))
            .unwrap()
            .run(&[]);
        assert!(report.matches.is_empty());
        assert_eq!(report.filtering_ratio, 0.0);
    }

    #[test]
    fn pooled_run_is_identical_to_serial() {
        let p = seq_ab(8);
        let s = noisy_stream(400);
        let serial = Dlacep::new(p.clone(), OracleFilter::new(p.clone()))
            .unwrap()
            .run(s.events());

        let pooled = Dlacep::builder(p.clone(), OracleFilter::new(p))
            .parallelism(Parallelism::with_threads(4))
            .build()
            .unwrap()
            .run(s.events());
        assert_eq!(pooled.matches, serial.matches);
        assert_eq!(pooled.events_relayed, serial.events_relayed);
        assert_eq!(pooled.filter_faults, serial.filter_faults);
        assert_eq!(pooled.extractor_stats, serial.extractor_stats);
        assert!(pooled.pool.is_some(), "pooled run reports pool stats");
    }
}
