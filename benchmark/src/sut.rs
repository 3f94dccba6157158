//! The adapter to the system under test: the only module of the benchmark
//! that names `dlacep::*` items. Everything the benchmark calls is listed in
//! the `use` block below (and, as the method surface of those types, in
//! `README.md`); a refactor that keeps this module compiling keeps the
//! benchmark running.
//!
//! The benchmark measures from outside: each function here is a thin call
//! into one layer's public functions, timed or counted by its caller.

use crate::gen::Raw;
use dlacep::cep::{
    CepEngine, EngineStats, Match, NfaConfig, NfaEngine, PatternExpr, PatternSet, Plan, Predicate,
    SharedPlan, TreeEngine, TypeSet,
};
use dlacep::core::trainer::{train_event_filter, TrainConfig};
use dlacep::core::{
    decode_checkpoint, encode_checkpoint, encode_offer, AssemblerConfig, Dlacep, EventEmbedder,
    EventNetFilter, Filter, Parallelism, PassthroughFilter, QuantizedFilter, StreamingDlacep,
};
use dlacep::dur::{load_latest_checkpoint, DirStore, Encoder, MemStore, Store, Wal};
use dlacep::events::{EventStream, KeyExtractor, TypeId, WindowSpec};
use dlacep::nn::{Initializer, ParamStore, QuantizedStackedBiLstm, ScratchArena, StackedBiLstm};
use dlacep::obs::{render_prometheus, Registry, Tracer, DEFAULT_TRACE_CAPACITY};
use dlacep::serve::{
    encode_msg, shard_of, spawn, ClientConfig, FleetConfig, FrameReader, RunningServer,
    ServeHandle, ServePump, ServerConfig, ShardedDlacep, WireMsg, WireServer, DEFAULT_HASH_SEED,
};
use std::collections::BTreeSet;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

pub use dlacep::cep::Pattern;
pub use dlacep::core::DlacepReport as BatchReport;
pub use dlacep::events::PrimitiveEvent as Event;
pub use dlacep::serve::{ResilientClient, WireClient};

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

/// Hand generated events to the program: arrival id and timestamp are the
/// stream position (the paper's constant-sampling-rate count windows), the
/// single attribute is the volume.
pub fn to_events(raw: &[Raw]) -> Vec<Event> {
    raw.iter()
        .enumerate()
        .map(|(i, r)| Event::new(i as u64, TypeId(r.ticker), i as u64, vec![r.vol]))
        .collect()
}

const VOL: usize = 0;

fn top_k(k: usize) -> TypeSet {
    TypeSet::new((0..k as u32).map(TypeId).collect())
}

fn rank_band(hi: usize, lo: usize) -> TypeSet {
    TypeSet::new((lo as u32..hi as u32).map(TypeId).collect())
}

fn leaves(types: &TypeSet, prefix: &str, n: usize) -> Vec<PatternExpr> {
    (1..=n)
        .map(|t| PatternExpr::event(types.clone(), format!("{prefix}{t}")))
        .collect()
}

/// `α·from.vol < mid.vol < β·from.vol`.
fn band(alpha: f64, from: &str, mid: &str, beta: f64) -> Predicate {
    Predicate::band(alpha, (from, VOL), (mid, VOL), beta, (from, VOL))
}

/// Table 1 `Q_A1(j, k, p, α, β)`: `SEQ(S_1..S_j)` over the top-`k` tickers
/// with `∀i ∈ p: α·S_i.vol < S_j.vol < β·S_i.vol`, count window `w`.
pub fn q_a1(j: usize, k: usize, p: &[usize], alpha: f64, beta: f64, w: u64) -> Pattern {
    let last = format!("s{j}");
    let conds = p
        .iter()
        .map(|i| band(alpha, &format!("s{i}"), &last, beta))
        .collect();
    Pattern::new(
        PatternExpr::Seq(leaves(&top_k(k), "s", j)),
        conds,
        WindowSpec::Count(w),
    )
}

/// Table 1 `Q_A4`: `Q_A1` plus a second band `γ·S_l.vol < S_m.vol < δ·S_l.vol`.
#[allow(clippy::too_many_arguments)]
fn q_a4(
    j: usize,
    k: usize,
    p: &[usize],
    (l, m): (usize, usize),
    (alpha, beta): (f64, f64),
    (gamma, delta): (f64, f64),
    w: u64,
) -> Pattern {
    let mut pat = q_a1(j, k, p, alpha, beta, w);
    pat.conditions
        .push(band(gamma, &format!("s{l}"), &format!("s{m}"), delta));
    pat
}

/// Table 1 `Q_A5(j, base, step)`: five top-`base` events banded against the
/// fifth, then `j` Kleene closures over successive rank bands.
fn q_a5(j: usize, base: usize, step: usize, alpha: f64, beta: f64, w: u64) -> Pattern {
    let mut children = leaves(&top_k(base), "s", 5);
    for l in 1..=j {
        let types = rank_band(base + l * step, base + (l - 1) * step);
        children.push(PatternExpr::Kleene(Box::new(PatternExpr::event(
            types,
            format!("k{l}"),
        ))));
    }
    let conds = (1..=4)
        .map(|i| band(alpha, &format!("s{i}"), "s5", beta))
        .collect();
    Pattern::new(PatternExpr::Seq(children), conds, WindowSpec::Count(w))
}

/// Table 1 `Q_A9(j, k1, k2)`: disjunction of a length-`j` sequence over the
/// top `k1` tickers and one over ranks `k1..k2`, each banded to its last.
fn q_a9(j: usize, k1: usize, k2: usize, (alpha, beta): (f64, f64), w: u64) -> Pattern {
    let mut conds: Vec<Predicate> = (1..j)
        .map(|i| band(alpha, &format!("s{i}"), &format!("s{j}"), beta))
        .collect();
    conds.extend((1..j).map(|i| band(alpha, &format!("r{i}"), &format!("r{j}"), beta)));
    Pattern::new(
        PatternExpr::Disj(vec![
            PatternExpr::Seq(leaves(&top_k(k1), "s", j)),
            PatternExpr::Seq(leaves(&rank_band(k2, k1), "r", j)),
        ]),
        conds,
        WindowSpec::Count(w),
    )
}

/// A cheap two-step sequence over two rare tickers of one key group: the
/// serving workloads that must not spend their time in mark or CEP use it.
pub fn rare_seq2(w: u64) -> Pattern {
    Pattern::new(
        PatternExpr::Seq(vec![
            PatternExpr::event(TypeSet::single(TypeId(40)), "a"),
            PatternExpr::event(TypeSet::single(TypeId(41)), "b"),
        ]),
        vec![band(0.8, "a", "b", 1.25)],
        WindowSpec::Count(w),
    )
}

/// Sixteen Table-1 patterns on one shared window: Q_A1/A4/A5/A9 over a
/// parameter grid. Several are binding-equivalent to a branch of another
/// (`Q_A1(4,6,{1,2,3})` is the first branch of `Q_A9(4,6,12)`) and most
/// share the `SEQ(S_1..S_4 ∈ T_6)` prefix, so the sharing optimiser has
/// merges and shared prefixes to find.
pub fn multiquery16() -> Vec<Pattern> {
    const W: u64 = 12;
    let n = (0.9, 1.1);
    let t = (0.95, 1.05);
    vec![
        q_a9(4, 6, 12, n, W),
        q_a9(4, 6, 12, t, W),
        q_a9(3, 6, 12, n, W),
        q_a9(4, 4, 10, n, W),
        q_a1(4, 6, &[1, 2, 3], n.0, n.1, W),
        q_a1(4, 6, &[1, 2, 3], t.0, t.1, W),
        q_a1(4, 6, &[1, 2], n.0, n.1, W),
        q_a1(3, 6, &[1, 2], n.0, n.1, W),
        q_a1(4, 4, &[1, 2, 3], n.0, n.1, W),
        q_a1(4, 2, &[1, 2], 0.85, 1.2, W),
        q_a4(4, 6, &[1, 2], (1, 3), n, t, W),
        q_a4(4, 6, &[1, 3], (2, 3), n, n, W),
        q_a4(4, 4, &[1, 2], (1, 2), n, t, W),
        q_a5(1, 6, 2, n.0, n.1, W),
        q_a5(2, 6, 2, n.0, n.1, W),
        q_a5(1, 6, 4, t.0, t.1, W),
    ]
}

/// The partition key the pattern's first leaf lives in. Every pattern a
/// fleet runs here keeps its tickers inside one key group, so this is the
/// key whose substream holds the matches.
pub fn pattern_key(pattern: &Pattern) -> u64 {
    fn first_type(expr: &PatternExpr) -> TypeId {
        match expr {
            PatternExpr::Event { types, .. } => types.types()[0],
            PatternExpr::Seq(xs) | PatternExpr::Conj(xs) | PatternExpr::Disj(xs) => {
                first_type(&xs[0])
            }
            PatternExpr::Kleene(x) | PatternExpr::Neg(x) => first_type(x),
        }
    }
    key_rule().key_of(first_type(&pattern.expr), &[])
}

// ---------------------------------------------------------------------------
// Matches as plain data
// ---------------------------------------------------------------------------

/// A match identified by its sorted event ids.
pub type MatchKey = Vec<u64>;

pub fn match_keys(matches: &[Match]) -> BTreeSet<MatchKey> {
    matches
        .iter()
        .map(|m| m.event_ids.iter().map(|id| id.0).collect())
        .collect()
}

/// Work counters of one CEP engine run.
#[derive(Debug, Clone, Copy, Default)]
pub struct CepCounts {
    pub events_processed: u64,
    pub partials_created: u64,
    pub peak_partials: u64,
    pub cond_evals: u64,
    pub matches: u64,
}

impl From<&EngineStats> for CepCounts {
    fn from(s: &EngineStats) -> Self {
        CepCounts {
            events_processed: s.events_processed,
            partials_created: s.partial_matches_created,
            peak_partials: s.peak_partial_matches,
            cond_evals: s.condition_evaluations,
            matches: s.matches_emitted,
        }
    }
}

// ---------------------------------------------------------------------------
// Filters
// ---------------------------------------------------------------------------

/// The filters the workloads run, as one concrete type so pipelines and
/// fleets need no generics. Every trait method forwards to the wrapped
/// filter, so the program sees exactly the filter named.
#[derive(Debug, Clone)]
pub enum AnyFilter {
    Int8(QuantizedFilter),
    F32(EventNetFilter),
    Passthrough,
}

impl Filter for AnyFilter {
    fn mark(&self, window: &[Event]) -> Vec<bool> {
        match self {
            AnyFilter::Int8(f) => f.mark(window),
            AnyFilter::F32(f) => f.mark(window),
            AnyFilter::Passthrough => PassthroughFilter.mark(window),
        }
    }

    fn scores(&self, window: &[Event]) -> Option<Vec<f32>> {
        match self {
            AnyFilter::Int8(f) => f.scores(window),
            AnyFilter::F32(f) => f.scores(window),
            AnyFilter::Passthrough => PassthroughFilter.scores(window),
        }
    }

    fn name(&self) -> &'static str {
        match self {
            AnyFilter::Int8(f) => f.name(),
            AnyFilter::F32(f) => f.name(),
            AnyFilter::Passthrough => PassthroughFilter.name(),
        }
    }

    fn quantized(&self) -> bool {
        matches!(self, AnyFilter::Int8(_))
    }
}

/// A trained event-network and its int8 quantisation, with what they cost.
pub struct Trained {
    pub int8: AnyFilter,
    pub f32: AnyFilter,
    pub train_s: f64,
    pub epochs: usize,
    pub quantize_ms: f64,
    /// Encoder shape, for the computed MAC count and the same-shape
    /// encoder-only timing.
    pub input_dim: usize,
    pub hidden: usize,
    pub layers: usize,
}

/// Training budget of every trained filter in the benchmark: the
/// repository's quick configuration (one 16-wide BiLSTM layer, ≤ 24
/// epochs) — about a second on `HISTORY_EVENTS` events.
pub const HISTORY_EVENTS: usize = 12_000;

/// Marking threshold on the posterior marginal. A spurious mark only costs
/// CEP work while a missed participant loses the match, so the short
/// training budget is paired with a recall-biased threshold.
const MARK_THRESHOLD: f32 = 0.02;

/// Train the event-network for `pattern` on `history`, then quantise it,
/// calibrating on the first 32 windows of the same history.
pub fn train_int8(pattern: &Pattern, history: Vec<Event>) -> Trained {
    let history = EventStream::from_events(history).expect("generated ids ascend");
    let cfg = TrainConfig {
        mark_threshold: Some(MARK_THRESHOLD),
        ..TrainConfig::quick()
    };
    let t = Instant::now();
    let trained = train_event_filter(pattern, &history, &cfg);
    let train_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let calib: Vec<&[Event]> = history.events().chunks(32).take(32).collect();
    let int8 = QuantizedFilter::quantize(&trained.filter, &calib).expect("trained net quantises");
    let quantize_ms = t.elapsed().as_secs_f64() * 1e3;
    Trained {
        int8: AnyFilter::Int8(int8),
        input_dim: trained.filter.embedder.dim(),
        f32: AnyFilter::F32(trained.filter),
        train_s,
        epochs: trained.report.epochs_run,
        quantize_ms,
        hidden: cfg.hidden,
        layers: cfg.layers,
    }
}

// ---------------------------------------------------------------------------
// Batch pipeline and exact engines
// ---------------------------------------------------------------------------

/// Which metrics registry a batch pipeline records into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Obs {
    /// The builder's default (the process-wide registry).
    Default,
    /// A disabled registry: every handle inert.
    Off,
    /// An enabled registry with a 1-in-16 sampling tracer.
    Traced,
}

pub struct Batch {
    dl: Dlacep<AnyFilter>,
    registry: Option<Arc<Registry>>,
}

impl Batch {
    /// `Dlacep::builder(..).build()` for one pattern, `Dlacep::multi(..)`
    /// for several; `threads > 1` adds a `Parallelism` of that many.
    pub fn new(patterns: &[Pattern], filter: AnyFilter, threads: usize, obs: Obs) -> Batch {
        let mut b = match patterns {
            [one] => Dlacep::builder(one.clone(), filter),
            many => Dlacep::multi(
                PatternSet::new(many.to_vec()).expect("patterns share one window"),
                filter,
            ),
        };
        if threads > 1 {
            b = b.parallelism(Parallelism::with_threads(threads));
        }
        let registry = match obs {
            Obs::Default => None,
            Obs::Off => Some(Arc::new(Registry::disabled())),
            Obs::Traced => Some(Arc::new(Registry::with_tracer(
                256,
                Tracer::new(16, DEFAULT_TRACE_CAPACITY),
            ))),
        };
        if let Some(r) = &registry {
            b = b.obs(Arc::clone(r));
        }
        Batch {
            dl: b.build().expect("benchmark patterns compile"),
            registry,
        }
    }

    pub fn run(&self, events: &[Event]) -> BatchReport {
        self.dl.run(events)
    }

    /// Render this pipeline's registry as a Prometheus scrape.
    pub fn scrape(&self) -> String {
        let reg = self
            .registry
            .as_ref()
            .expect("scrape needs an own registry");
        render_prometheus(&reg.snapshot())
    }
}

/// `(jobs, tasks stolen)` of a pooled run.
pub fn pool_counts(report: &BatchReport) -> (u64, u64) {
    report.pool.map_or((0, 0), |p| (p.jobs, p.tasks_stolen))
}

/// Exact CEP with the NFA engine (the paper's baseline).
pub fn exact_nfa(pattern: &Pattern, events: &[Event]) -> (Vec<Match>, CepCounts) {
    let mut engine = NfaEngine::new(pattern).expect("benchmark patterns compile");
    let matches = engine.run(events);
    (matches, CepCounts::from(engine.stats()))
}

/// Exact CEP with the independent tree engine: the second opinion the
/// `stock_exact` correctness gate compares against.
pub fn exact_tree(pattern: &Pattern, events: &[Event]) -> Vec<Match> {
    TreeEngine::new(pattern)
        .expect("benchmark patterns compile")
        .run(events)
}

// ---------------------------------------------------------------------------
// core::assembler / core::embed / core::filter, one call at a time
// ---------------------------------------------------------------------------

/// The paper-default assembler (`MarkSize = 2W`, `StepSize = W`) over a slice.
pub fn windows<'a>(pattern: &Pattern, events: &'a [Event]) -> impl Iterator<Item = &'a [Event]> {
    AssemblerConfig::paper_default(pattern.window_size()).windows(events)
}

pub fn mark(filter: &AnyFilter, window: &[Event]) -> Vec<bool> {
    filter.mark(window)
}

pub struct Embedder {
    inner: EventEmbedder,
    buf: Vec<f32>,
}

impl Embedder {
    pub fn for_pattern(pattern: &Pattern) -> Embedder {
        let plan = Plan::compile(pattern).expect("benchmark patterns compile");
        let inner = EventEmbedder::for_plan(&plan, 1);
        Embedder {
            buf: vec![0.0; inner.dim()],
            inner,
        }
    }

    pub fn embed(&mut self, ev: &Event) -> &[f32] {
        self.inner.embed_into(ev, &mut self.buf);
        &self.buf
    }
}

/// An int8 stacked-BiLSTM encoder of the trained filter's shape. The public
/// API does not expose the trained encoder on its own, and int8 inference
/// time does not depend on the weight values, so a freshly initialised
/// encoder of the same shape stands in for the encoder/head split.
pub struct EncoderOnly {
    enc: QuantizedStackedBiLstm,
    arena: ScratchArena,
    input_dim: usize,
}

impl EncoderOnly {
    pub fn same_shape_as(t: &Trained) -> EncoderOnly {
        let mut store = ParamStore::new();
        let mut init = Initializer::seeded(1);
        let stack = StackedBiLstm::new(&mut store, &mut init, t.input_dim, t.hidden, t.layers);
        EncoderOnly {
            enc: QuantizedStackedBiLstm::quantize(&store, &stack, 1.0 / 127.0)
                .expect("fresh weights are finite"),
            arena: ScratchArena::new(),
            input_dim: t.input_dim,
        }
    }

    /// Encode one window of `t_len` (zero) input rows.
    pub fn infer(&mut self, t_len: usize) {
        self.arena.io_a.clear();
        self.arena.io_a.resize(t_len * self.input_dim, 0.0);
        self.enc.infer_in_place(t_len, &mut self.arena);
    }
}

// ---------------------------------------------------------------------------
// cep::rewrite + cep::share
// ---------------------------------------------------------------------------

pub struct Shared {
    plan: SharedPlan,
}

/// What the sharing optimiser found (`ShareReport`).
pub struct ShareCounts {
    pub units: usize,
    pub branches_merged: usize,
}

impl Shared {
    /// Normalise and fuse a pattern set into one plan.
    pub fn compile(patterns: &[Pattern]) -> Shared {
        let set = PatternSet::new(patterns.to_vec()).expect("patterns share one window");
        Shared {
            plan: set.compile().expect("benchmark patterns compile"),
        }
    }

    pub fn counts(&self) -> ShareCounts {
        let r = self.plan.report();
        ShareCounts {
            units: r.units,
            branches_merged: r.branches_merged,
        }
    }

    /// One scan of the fused plan.
    pub fn run(&self, events: &[Event]) -> (Vec<Match>, CepCounts) {
        let mut engine = NfaEngine::from_plan(self.plan.plan().clone(), NfaConfig::default());
        let matches = engine.run(events);
        (matches, CepCounts::from(engine.stats()))
    }

    /// Attribute fused-plan matches back to their source patterns.
    pub fn attribute(&self, fused: &[Match]) -> Vec<Vec<Match>> {
        self.plan.attribute_all(fused).per_pattern
    }
}

// ---------------------------------------------------------------------------
// serve::wire, events::key + serve::hash, dur::wal, dur::checkpoint
// ---------------------------------------------------------------------------

pub fn wire_encode(ev: &Event) -> Vec<u8> {
    encode_msg(&WireMsg::Ingest {
        type_id: ev.type_id,
        ts: ev.ts.0,
        attrs: ev.attrs.clone(),
    })
}

/// Decode a byte stream of frames; returns how many messages it held.
pub fn wire_decode(bytes: &[u8]) -> usize {
    let mut reader = FrameReader::new(bytes);
    let mut n = 0;
    while let Some(msg) = reader.read_msg().expect("frames we encoded decode") {
        std::hint::black_box(msg);
        n += 1;
    }
    n
}

/// Shards of every serving workload.
pub const SHARDS: u32 = 4;
/// Tickers per partition key: `TICKERS / KEY_GROUP` = 16 keys.
pub const KEY_GROUP: u32 = 8;

fn key_rule() -> KeyExtractor {
    KeyExtractor::ByTypeGroup(KEY_GROUP)
}

/// `(partition key, shard)` of an event under the fleet's routing rule.
pub fn route(ev: &Event) -> (u64, u32) {
    let key = key_rule().key_of(ev.type_id, &ev.attrs);
    (key, shard_of(DEFAULT_HASH_SEED, key, SHARDS))
}

/// The events of one partition key, re-stamped as that key's runtime sees
/// them (dense ids over the key's substream).
pub fn key_substream(events: &[Event], key: u64) -> Vec<Event> {
    events
        .iter()
        .filter(|ev| route(ev).0 == key)
        .enumerate()
        .map(|(i, ev)| Event::new(i as u64, ev.type_id, ev.ts.0, ev.attrs.clone()))
        .collect()
}

/// The fleet's WAL record for one event: `g | key | offer`.
pub fn wal_record(g: u64, key: u64, ev: &Event) -> Vec<u8> {
    let mut e = Encoder::new();
    e.put_u64(g);
    e.put_u64(key);
    e.put_bytes(&encode_offer(ev.type_id, ev.ts.0, &ev.attrs));
    e.into_bytes()
}

/// One shard's write-ahead log over an in-memory store, with the fleet's
/// WAL tuning.
pub struct MemWal {
    store: MemStore,
    wal: Wal,
}

impl MemWal {
    pub fn open() -> MemWal {
        let mut store = MemStore::new();
        let (wal, _) = Wal::open(&mut store, fleet_config().wal).expect("fresh store opens");
        MemWal { store, wal }
    }

    pub fn append(&mut self, record: &[u8]) {
        self.wal
            .append(&mut self.store, record)
            .expect("memory append");
    }

    pub fn sync(&mut self) {
        self.wal.sync(&mut self.store).expect("memory sync");
    }

    /// Bytes the log holds across all its segments.
    pub fn bytes(&self) -> u64 {
        let names = self.store.list().expect("memory list");
        names
            .iter()
            .map(|n| self.store.len(n).expect("memory len"))
            .sum()
    }
}

/// The same log over a directory store (real `fsync`), for the
/// informational `wal.dirstore_sync_ns_per_call`.
pub struct DirWal {
    store: DirStore,
    wal: Wal,
}

impl DirWal {
    pub fn open(dir: &Path) -> std::io::Result<DirWal> {
        let mut store = DirStore::open(dir)?;
        let (wal, _) = Wal::open(&mut store, fleet_config().wal)
            .map_err(|e| std::io::Error::other(e.to_string()))?;
        Ok(DirWal { store, wal })
    }

    pub fn append_and_sync(&mut self, record: &[u8]) -> std::io::Result<()> {
        self.wal
            .append(&mut self.store, record)
            .and_then(|_| self.wal.sync(&mut self.store))
            .map_err(|e| std::io::Error::other(e.to_string()))
    }
}

/// Encode and decode a key runtime's checkpoint `reps` times:
/// `(encode ns, decode ns, bytes)`. The runtime first ingests `events`
/// (one key's substream), so the checkpoint carries real state.
pub fn checkpoint_roundtrip(
    pattern: &Pattern,
    filter: AnyFilter,
    events: &[Event],
    reps: usize,
) -> (Vec<f64>, Vec<f64>, usize) {
    let mut rt = StreamingDlacep::builder(pattern.clone(), filter)
        .build()
        .expect("benchmark patterns compile");
    for ev in events {
        rt.ingest(ev.type_id, ev.ts.0, ev.attrs.clone())
            .expect("generated timestamps ascend");
    }
    let (mut encode_ns, mut decode_ns, mut len) = (Vec::new(), Vec::new(), 0);
    for _ in 0..reps {
        let t = Instant::now();
        let bytes = encode_checkpoint(&rt.checkpoint());
        encode_ns.push(t.elapsed().as_nanos() as f64);
        let t = Instant::now();
        let decoded = decode_checkpoint(&bytes).expect("own checkpoint decodes");
        decode_ns.push(t.elapsed().as_nanos() as f64);
        std::hint::black_box(decoded);
        len = bytes.len();
    }
    (encode_ns, decode_ns, len)
}

// ---------------------------------------------------------------------------
// serve::fleet
// ---------------------------------------------------------------------------

/// The fleet configuration of every serving workload: defaults (sync every
/// 32 events, checkpoint every 256) with the shard count and routing rule
/// pinned, so `DLACEP_SHARDS` cannot change what is measured.
fn fleet_config() -> FleetConfig {
    FleetConfig {
        shards: SHARDS,
        key_extractor: key_rule(),
        ..FleetConfig::default()
    }
}

pub type Fleet = ShardedDlacep<AnyFilter, MemStore>;

fn factories(
    filter: AnyFilter,
) -> (
    dlacep::serve::FilterFactory<AnyFilter>,
    dlacep::serve::TrainerFactory<AnyFilter>,
) {
    (Arc::new(move || filter.clone()), Arc::new(|| None))
}

pub fn fleet_create(pattern: &Pattern, filter: AnyFilter) -> Fleet {
    fleet_with(pattern, filter, fleet_config())
}

/// The same fleet with syncs and checkpoints off. Neither changes which
/// matches a fleet emits, so the in-process fleets a serving run's output
/// is checked against skip them and the check stays cheap.
pub fn fleet_create_reference(pattern: &Pattern, filter: AnyFilter) -> Fleet {
    let cfg = FleetConfig {
        sync_every_events: 0,
        checkpoint_every_events: 0,
        ..fleet_config()
    };
    fleet_with(pattern, filter, cfg)
}

fn fleet_with(pattern: &Pattern, filter: AnyFilter, cfg: FleetConfig) -> Fleet {
    let (mk_filter, mk_trainer) = factories(filter);
    ShardedDlacep::create(
        pattern.clone(),
        cfg,
        mk_filter,
        mk_trainer,
        (0..SHARDS).map(|_| MemStore::new()).collect(),
    )
    .expect("fresh fleet over empty stores")
}

/// What `ShardedDlacep::recover` reported.
pub struct Recovered {
    pub fleet: Fleet,
    pub resume_seq: u64,
    pub events_replayed: u64,
}

pub fn fleet_recover(
    pattern: &Pattern,
    filter: AnyFilter,
    stores: Vec<MemStore>,
) -> Result<Recovered, String> {
    let (mk_filter, mk_trainer) = factories(filter);
    let (fleet, report) = ShardedDlacep::recover(
        pattern.clone(),
        fleet_config(),
        mk_filter,
        mk_trainer,
        stores,
    )
    .map_err(|e| e.to_string())?;
    Ok(Recovered {
        fleet,
        resume_seq: report.resume_seq,
        events_replayed: report.shards.iter().map(|s| s.wal_replayed).sum(),
    })
}

/// Time `load_latest_checkpoint` over every shard store, in nanoseconds.
pub fn checkpoint_load_ns(stores: &[MemStore]) -> u64 {
    let t = Instant::now();
    for store in stores {
        std::hint::black_box(load_latest_checkpoint(store).expect("memory store reads"));
    }
    t.elapsed().as_nanos() as u64
}

/// Median nanoseconds of `checkpoint_now` on a live fleet: every shard
/// syncs its WAL and writes a checkpoint of all its key runtimes.
pub fn fleet_checkpoint_ns(fleet: &mut Fleet) -> Result<f64, String> {
    let mut ns = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        fleet.checkpoint_now().map_err(|e| e.to_string())?;
        ns.push(t.elapsed().as_nanos() as f64);
    }
    Ok(crate::stats::median(&ns))
}

/// Feed a fleet in-process, 256 events per `ingest_batch` call.
pub fn fleet_ingest(fleet: &mut Fleet, events: &[Event]) -> Result<(), String> {
    for chunk in events.chunks(256) {
        fleet.ingest_batch(chunk).map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// A finished fleet as plain data.
pub struct FleetOutcome {
    /// `(partition key, match event ids)`; ids are per-key arrival ids.
    pub matches: BTreeSet<(u64, MatchKey)>,
    pub offered: u64,
    pub keys: usize,
    pub events_relayed: u64,
    pub wal_syncs: u64,
    pub checkpoints: u64,
}

pub fn fleet_finish(fleet: Fleet) -> FleetOutcome {
    let report = fleet.finish();
    FleetOutcome {
        matches: report
            .matches()
            .into_iter()
            .map(|(key, m)| (key, m.event_ids.iter().map(|id| id.0).collect()))
            .collect(),
        offered: report.totals.offered,
        keys: report.keys.len(),
        events_relayed: report.totals.events_relayed,
        wal_syncs: report.shards.iter().map(|s| s.stats.wal_syncs).sum(),
        checkpoints: report.shards.iter().map(|s| s.stats.checkpoints).sum(),
    }
}

// ---------------------------------------------------------------------------
// serve::channel + serve::server
// ---------------------------------------------------------------------------

/// Commands the pump channel holds. Above `ServerConfig::default()`'s shed
/// high-water mark (1024), as its documentation asks, so overload shows as
/// `Overloaded` replies rather than a blocked socket thread.
const PUMP_CAPACITY: usize = 2048;

/// A fleet behind `spawn` + `WireServer` on a loopback ephemeral port,
/// with `ServerConfig::default()`.
pub struct Server {
    handle: ServeHandle,
    pump: ServePump<AnyFilter, MemStore>,
    running: RunningServer,
}

impl Server {
    pub fn start(fleet: Fleet) -> std::io::Result<Server> {
        let (handle, pump) = spawn(fleet, PUMP_CAPACITY);
        let running =
            WireServer::bind_with("127.0.0.1:0", handle.clone(), ServerConfig::default())?
                .spawn()?;
        Ok(Server {
            handle,
            pump,
            running,
        })
    }

    pub fn addr(&self) -> std::net::SocketAddr {
        self.running.addr()
    }

    /// Commands queued between the socket threads and the fleet right now.
    pub fn queue_depth(&self) -> u64 {
        self.handle.queue_depth()
    }

    /// Graceful stop (drain, final barrier), then finish the fleet.
    pub fn stop(self) -> Result<FleetOutcome, String> {
        let report = self.running.stop().map_err(|e| e.to_string())?;
        if let Some(e) = report.final_barrier_error {
            return Err(format!("final barrier: {e}"));
        }
        drop(self.handle);
        let (fleet, err) = self.pump.into_fleet().map_err(|e| e.to_string())?;
        match err {
            Some(e) => Err(e.to_string()),
            None => Ok(fleet_finish(fleet)),
        }
    }
}

/// Tear a fleet down without finishing it: the shard stores as a crash
/// would leave them.
pub fn fleet_crash(fleet: Fleet) -> Stores {
    fleet.into_stores()
}

pub type Stores = Vec<MemStore>;

// ---------------------------------------------------------------------------
// serve::client — the system's own clients, unmodified
// ---------------------------------------------------------------------------

/// A `Summary` reply: events the fleet has been offered and matches it has
/// counted, over all connections, when the flush barrier completed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ack {
    pub offered: u64,
    pub matches: u64,
}

/// The two calls a load generator makes, over either client. No socket
/// option is set here or anywhere in the benchmark: what the clients and
/// the server do by default is what is measured.
pub trait Producer {
    /// Send one `Ingest` (buffered by the client as it sees fit).
    fn offer(&mut self, ev: &Event, ts: u64) -> Result<(), String>;
    /// `Flush` and wait for the `Summary`.
    fn barrier(&mut self) -> Result<Ack, String>;
}

impl Producer for WireClient {
    fn offer(&mut self, ev: &Event, ts: u64) -> Result<(), String> {
        self.ingest(ev.type_id, ts, ev.attrs.clone())
            .map_err(|e| e.to_string())
    }

    fn barrier(&mut self) -> Result<Ack, String> {
        let (offered, matches, _, _) = self.flush().map_err(|e| e.to_string())?;
        Ok(Ack { offered, matches })
    }
}

impl Producer for ResilientClient {
    fn offer(&mut self, ev: &Event, ts: u64) -> Result<(), String> {
        self.ingest(ev.type_id, ts, ev.attrs.clone());
        Ok(())
    }

    fn barrier(&mut self) -> Result<Ack, String> {
        let (offered, matches, _, _) = self.flush().map_err(|e| e.to_string())?;
        Ok(Ack { offered, matches })
    }
}

pub fn wire_client(addr: std::net::SocketAddr) -> Result<WireClient, String> {
    WireClient::connect(addr).map_err(|e| e.to_string())
}

pub fn resilient_client(addr: std::net::SocketAddr) -> Result<ResilientClient, String> {
    ResilientClient::connect(addr.to_string(), ClientConfig::default()).map_err(|e| e.to_string())
}

/// `(Overloaded replies seen, Hello/Resume re-syncs)` of a resilient client.
pub fn client_counts(client: &ResilientClient) -> (u64, u64) {
    let s = client.stats();
    (s.overloaded_seen, s.resyncs)
}

/// The first `n` events a load generator sends when it cycles through
/// `pool` with the send position as timestamp — what the in-process
/// reference fleet is fed.
pub fn cycled(pool: &[Event], n: u64) -> Vec<Event> {
    (0..n)
        .map(|i| {
            let ev = &pool[(i % pool.len() as u64) as usize];
            Event::new(i, ev.type_id, i, ev.attrs.clone())
        })
        .collect()
}
