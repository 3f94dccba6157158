//! [`ShardedDlacep`]: a keyed multi-shard fleet of durable streaming
//! runtimes behind one ingest front door.
//!
//! ## Partitioning model
//!
//! Every inbound event is stamped with a fleet-global sequence number `g`
//! (1-based arrival order), keyed by the configured
//! [`KeyExtractor`], and routed to shard `shard_of(seed, key, n)`. Within a
//! shard, each distinct key owns its own [`StreamingDlacep`] — keys never
//! share assembler windows, so the set of per-key results is independent of
//! how keys are packed onto shards. That is the invariant the
//! `shard_determinism` battery pins: the merged fleet output is bitwise
//! identical across shard counts.
//!
//! ## Durability model
//!
//! Each shard owns one [`Store`] (directory `shard-{idx:04}/` under the
//! fleet root when backed by `DirStore`s) holding its fleet manifest and a
//! [`StoreLog`] — WAL, emit log and checkpoint chain, written and recovered
//! in the same orders as the durable single-runtime tier. An event is
//! WAL-logged **before** its runtime sees it, as `g | key | offer` where
//! `offer` is the exact [`dlacep_core::encode_offer`] encoding of that
//! tier; emit records are `(key, match)`; a checkpoint holds the live state
//! of every key runtime of the shard and the shard's fleet *high-water
//! mark* — the last global sequence number whose effects the shard has
//! durably applied.
//!
//! ## Recovery model
//!
//! [`ShardedDlacep::recover`] restores every shard independently (each key
//! gets its logged matches as its emitted prefix; the WAL suffix is
//! replayed in per-key batches), then reports
//! `resume_seq = min(high_water) + 1`: the fleet position from which the
//! source must re-offer events. Re-offered events that a given shard
//! already applied (`g <= high_water`) are counted as `refeed_skipped` and
//! dropped *for that shard only*, so shards that crashed at different
//! durability horizons converge without double-applying. Recovery refuses
//! stores whose manifest disagrees with the fleet configuration (shard
//! count, hash seed, hash revision, partitioner, shard order) — a
//! mis-assembled fleet would silently misroute keys otherwise.
//!
//! ## Model registry
//!
//! Retrained models accepted by a key runtime are *drained* (and counted)
//! at checkpoint time rather than published to the per-shard model
//! registry: the registry namespace is flat per store, and independent key
//! runtimes produce colliding version numbers. Lineage survives anyway —
//! each key's active model travels inside its runtime checkpoint and is
//! redeployed on restore.

use crate::hash::{shard_of, DEFAULT_HASH_SEED, HASH_REVISION};
use dlacep_cep::Match;
use dlacep_cep::Pattern;
use dlacep_core::{
    decode_offer, put_offer, Filter, ModelTrainer, RuntimeCheckpoint, RuntimeConfig, RuntimeError,
    StreamingDlacep,
};
use dlacep_dur::codec::{CodecError, Decoder, Encoder};
use dlacep_dur::manifest::{load_manifest, write_manifest, FleetManifest, ManifestError};
use dlacep_dur::{EmitError, NotEmpty, Store, StoreLog, WalConfig, WalError};
use dlacep_events::{AttrValue, KeyExtractor, PrimitiveEvent, TypeId};
use dlacep_obs::{json_field, json_string, Registry, Tracer, DEFAULT_TRACE_CAPACITY};
use std::collections::BTreeMap;
use std::io;
use std::sync::Arc;

use crate::report::{FleetReport, KeyReport, ShardSummary};

/// Environment variable read by [`FleetConfig::default`] for the shard
/// count.
pub const SHARDS_ENV: &str = "DLACEP_SHARDS";

/// Shard count from `DLACEP_SHARDS`, or `default` when unset/invalid.
pub fn shards_from_env(default: u32) -> u32 {
    std::env::var(SHARDS_ENV)
        .ok()
        .and_then(|v| v.trim().parse::<u32>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(default)
}

/// Fleet-level configuration. Everything that decides *routing* (shard
/// count, hash seed, key extractor) is fingerprinted into each shard's
/// manifest; recovery under a different fingerprint is refused.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Number of shards (≥ 1).
    pub shards: u32,
    /// Seed of the partitioning hash ([`crate::hash::fx_hash64`]).
    pub hash_seed: u64,
    /// How an event's partition key is derived.
    pub key_extractor: KeyExtractor,
    /// Configuration applied to every per-key runtime.
    pub runtime: RuntimeConfig,
    /// Per-shard WAL tuning.
    pub wal: WalConfig,
    /// Fleet-level durability cadence: sync every N offered events
    /// (0 = only explicit [`ShardedDlacep::sync`] calls).
    pub sync_every_events: u64,
    /// Fleet-level checkpoint cadence in offered events (0 = only explicit
    /// [`ShardedDlacep::checkpoint_now`] calls).
    pub checkpoint_every_events: u64,
    /// Attach a metrics [`Registry`] to every key runtime.
    pub obs: bool,
    /// Journal capacity for per-key registries when `obs` is on.
    pub journal_capacity: usize,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            shards: shards_from_env(4),
            hash_seed: DEFAULT_HASH_SEED,
            key_extractor: KeyExtractor::ByType,
            runtime: RuntimeConfig::default(),
            wal: WalConfig {
                segment_max_bytes: 64 * 1024,
                // The fleet syncs on its own cadence; per-append fsyncs
                // inside the WAL would double the fsync rate for nothing.
                sync_every: 0,
            },
            sync_every_events: 32,
            checkpoint_every_events: 256,
            obs: false,
            journal_capacity: 256,
        }
    }
}

/// Builds the filter for a freshly created key runtime. Must be
/// deterministic: recovery re-creates filters through it.
pub type FilterFactory<F> = Arc<dyn Fn() -> F + Send + Sync>;

/// Builds the (optional) trainer for a key runtime. Returning `None`
/// disables retraining even when `runtime.retrain` is configured.
pub type TrainerFactory<F> = Arc<dyn Fn() -> Option<Box<dyn ModelTrainer<F>>> + Send + Sync>;

/// Fleet failures.
#[derive(Debug)]
pub enum FleetError {
    /// A shard store failed.
    Io(io::Error),
    /// A shard WAL failed or is corrupt.
    Wal(WalError),
    /// A persisted fleet record did not decode.
    Corrupt(CodecError),
    /// A key runtime rejected an event or a checkpoint (including an
    /// emitted prefix that disagrees with the checkpoint's mark).
    Runtime(RuntimeError),
    /// A shard's emit log is damaged, or ends before the checkpoint that
    /// covers it.
    Emit(EmitError),
    /// A shard manifest is unreadable.
    Manifest(ManifestError),
    /// The on-disk fleet is incompatible with this configuration
    /// (shard count / hash seed / hash revision / partitioner / shard
    /// order mismatch, or data without a manifest).
    Refused(String),
    /// The fleet configuration itself is invalid.
    Config(String),
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::Io(e) => write!(f, "fleet i/o: {e}"),
            FleetError::Wal(e) => write!(f, "fleet wal: {e}"),
            FleetError::Corrupt(e) => write!(f, "fleet record: {e}"),
            FleetError::Runtime(e) => write!(f, "fleet runtime: {e}"),
            FleetError::Emit(e) => write!(f, "fleet {e}"),
            FleetError::Manifest(e) => write!(f, "fleet manifest: {e}"),
            FleetError::Refused(msg) => write!(f, "fleet recovery refused: {msg}"),
            FleetError::Config(msg) => write!(f, "fleet config: {msg}"),
        }
    }
}

impl std::error::Error for FleetError {}

impl From<io::Error> for FleetError {
    fn from(e: io::Error) -> Self {
        FleetError::Io(e)
    }
}
impl From<WalError> for FleetError {
    fn from(e: WalError) -> Self {
        FleetError::Wal(e)
    }
}
impl From<CodecError> for FleetError {
    fn from(e: CodecError) -> Self {
        FleetError::Corrupt(e)
    }
}
impl From<RuntimeError> for FleetError {
    fn from(e: RuntimeError) -> Self {
        FleetError::Runtime(e)
    }
}
impl From<EmitError> for FleetError {
    fn from(e: EmitError) -> Self {
        FleetError::Emit(e)
    }
}
impl From<ManifestError> for FleetError {
    fn from(e: ManifestError) -> Self {
        FleetError::Manifest(e)
    }
}
impl From<NotEmpty> for FleetError {
    fn from(e: NotEmpty) -> Self {
        FleetError::Refused(format!("{e}; use recover() for existing fleets"))
    }
}

/// Per-shard durability/routing counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Events routed to (and applied by) this shard.
    pub events_routed: u64,
    /// WAL records appended.
    pub wal_appends: u64,
    /// Explicit WAL syncs (fleet cadence + manual).
    pub wal_syncs: u64,
    /// Checkpoints written.
    pub checkpoints: u64,
    /// Re-offered events dropped as already applied.
    pub refeed_skipped: u64,
    /// Accepted retrained models drained at checkpoints (see the
    /// [module docs](self) on the registry decision).
    pub models_drained: u64,
}

/// Live fleet counters (also what a wire `Flush` reports back).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FleetStats {
    /// Events offered to the fleet (including re-feeds).
    pub offered: u64,
    /// Re-offered events dropped as already applied, fleet-wide.
    pub refeed_skipped: u64,
    /// Distinct keys with a live runtime.
    pub keys: u64,
    /// Matches emitted so far across all keys.
    pub matches: u64,
    /// `min(high_water)` across shards: the fleet-global sequence number
    /// at or below which no future recovery will ever ask the source to
    /// re-offer (a crash resumes from `min(high_water) + 1`, and
    /// high-water marks only advance). After a sync barrier this is the
    /// source's safe prune horizon for its send buffer.
    pub prune_horizon: u64,
}

/// What recovery found in one shard.
#[derive(Clone, Debug)]
pub struct ShardRecovery {
    /// Shard index.
    pub index: u32,
    /// Sequence of the checkpoint restored from, if any.
    pub checkpoint_seq: Option<u64>,
    /// Key runtimes restored from the checkpoint.
    pub keys_restored: u64,
    /// WAL records replayed after the checkpoint.
    pub wal_replayed: u64,
    /// Bytes cut from the emit log: whatever lay beyond the restored
    /// checkpoint's offset (re-derived by the WAL replay).
    pub emit_truncated_bytes: u64,
    /// The shard store was empty: initialized fresh.
    pub fresh: bool,
    /// Fleet high-water mark after restore + replay.
    pub high_water: u64,
}

/// Fleet-level recovery report.
#[derive(Clone, Debug)]
pub struct FleetRecoveryReport {
    /// One entry per shard, in shard order.
    pub shards: Vec<ShardRecovery>,
    /// First fleet-global sequence number (1-based) the source must
    /// re-offer. Events before it are durable in every shard.
    pub resume_seq: u64,
}

/// One partition key's runtime and its durability bookkeeping.
struct KeyRuntime<F: Filter> {
    rt: StreamingDlacep<F>,
    /// How many of `rt`'s matches the shard's emit log already holds.
    logged: usize,
}

struct Shard<F: Filter, S: Store> {
    log: StoreLog<S>,
    /// Last fleet-global sequence number durably applied by this shard.
    /// 0 = none; global sequence numbers start at 1.
    high_water: u64,
    runtimes: BTreeMap<u64, KeyRuntime<F>>,
    stats: ShardStats,
}

/// A bucket of one key's events and their fleet-global sequence numbers.
type Bucket = (Vec<PrimitiveEvent>, Vec<u64>);

/// A keyed multi-shard fleet of durable DLACEP runtimes. See the
/// [module docs](self) for the partitioning / durability / recovery model.
pub struct ShardedDlacep<F: Filter, S: Store> {
    pattern: Pattern,
    cfg: FleetConfig,
    mk_filter: FilterFactory<F>,
    mk_trainer: TrainerFactory<F>,
    shards: Vec<Shard<F, S>>,
    /// Fleet-global sequence number of the last offered event.
    next_global: u64,
    since_sync: u64,
    since_ckpt: u64,
    /// One trace ring for the whole fleet: every per-key registry shares
    /// it, and traces are sampled on the fleet-global sequence `g`, so
    /// trace ids are unique and the 1-in-N sample is fleet-wide.
    tracer: Tracer,
}

impl<F: Filter, S: Store> ShardedDlacep<F, S> {
    /// Start a fresh fleet over `stores` (one per shard, all empty; a store
    /// that holds anything is refused before any is written):
    /// [`recover`](Self::recover) of empty stores, which writes each shard's
    /// manifest immediately so even a fleet that crashes before its first
    /// checkpoint recovers with its routing fingerprint intact.
    pub fn create(
        pattern: Pattern,
        cfg: FleetConfig,
        mk_filter: FilterFactory<F>,
        mk_trainer: TrainerFactory<F>,
        stores: Vec<S>,
    ) -> Result<Self, FleetError> {
        Self::validate(&cfg, &stores)?;
        for store in &stores {
            StoreLog::check_empty::<FleetError>(store)?;
        }
        let (fleet, _) = Self::recover(pattern, cfg, mk_filter, mk_trainer, stores)?;
        Ok(fleet)
    }

    /// Recover a fleet from `stores`. Every shard is restored from its
    /// latest checkpoint plus its WAL suffix; empty stores are initialized
    /// fresh; non-empty stores without a matching manifest are refused.
    ///
    /// After recovery the source must re-offer its events starting at
    /// [`FleetRecoveryReport::resume_seq`] (in the original order) —
    /// shards individually skip what they already applied.
    pub fn recover(
        pattern: Pattern,
        cfg: FleetConfig,
        mk_filter: FilterFactory<F>,
        mk_trainer: TrainerFactory<F>,
        stores: Vec<S>,
    ) -> Result<(Self, FleetRecoveryReport), FleetError> {
        Self::validate(&cfg, &stores)?;
        let mut fleet = ShardedDlacep {
            pattern,
            cfg,
            mk_filter,
            mk_trainer,
            shards: Vec::with_capacity(stores.len()),
            next_global: 0,
            since_sync: 0,
            since_ckpt: 0,
            tracer: Tracer::from_env(DEFAULT_TRACE_CAPACITY),
        };
        let mut reports = Vec::with_capacity(stores.len());
        for (i, mut store) in stores.into_iter().enumerate() {
            let index = i as u32;
            let expected = Self::manifest(&fleet.cfg, index);
            let fresh = match load_manifest(&store)? {
                Some(found) => {
                    Self::check_manifest(index, &expected, &found)?;
                    false
                }
                None => {
                    // A crash during the very first manifest publish can
                    // leave only the synced-but-unrenamed tmp behind; that
                    // store never held fleet data, so it is still fresh.
                    let names = store.list()?;
                    let stale_tmp = format!("{}.tmp", dlacep_dur::manifest::MANIFEST_NAME);
                    if !names.iter().all(|n| *n == stale_tmp) {
                        return Err(FleetError::Refused(format!(
                            "shard {index} store has data but no fleet manifest"
                        )));
                    }
                    if !names.is_empty() {
                        store.remove(&stale_tmp)?;
                    }
                    write_manifest(&mut store, &expected)?;
                    true
                }
            };
            let mut emitted: BTreeMap<u64, Vec<Match>> = BTreeMap::new();
            let (log, found) = StoreLog::open::<_, _, FleetError>(
                store,
                fleet.cfg.wal,
                decode_shard_checkpoint,
                |key, m| emitted.entry(key).or_default().push(m),
            )?;
            let mut shard = Shard {
                log,
                high_water: 0,
                runtimes: BTreeMap::new(),
                stats: ShardStats::default(),
            };
            let mut report = ShardRecovery {
                index,
                checkpoint_seq: found.checkpoint.as_ref().map(|(seq, _)| *seq),
                keys_restored: 0,
                wal_replayed: 0,
                emit_truncated_bytes: found.emit_truncated_bytes,
                fresh,
                high_water: 0,
            };
            if let Some((_, ckpt)) = found.checkpoint {
                shard.high_water = ckpt.high_water;
                for (key, mut rt_ckpt) in ckpt.keys {
                    // A version-1 checkpoint brings its matches embedded and
                    // covers no log; they reach it at the next checkpoint.
                    let mut from_log = emitted.remove(&key).unwrap_or_default();
                    let logged = from_log.len();
                    rt_ckpt.emitted_prefix.append(&mut from_log);
                    let rt = fleet.restore_runtime(rt_ckpt)?;
                    shard.runtimes.insert(key, KeyRuntime { rt, logged });
                    report.keys_restored += 1;
                }
            }
            if let Some(key) = emitted.keys().next() {
                return Err(FleetError::Corrupt(CodecError::Malformed(format!(
                    "shard {index}: the emit log holds matches of key {key}, \
                     which the checkpoint does not know"
                ))));
            }
            let mut buckets: BTreeMap<u64, Bucket> = BTreeMap::new();
            for (_, payload) in found.suffix {
                let (g, key, type_id, ts, attrs) = decode_offer_record(&payload)?;
                if g <= shard.high_water {
                    continue; // covered by the checkpoint
                }
                shard.high_water = g;
                shard.stats.events_routed += 1;
                report.wal_replayed += 1;
                let bucket = buckets.entry(key).or_default();
                // The id is a placeholder: admission re-stamps it.
                bucket.0.push(PrimitiveEvent::new(g, type_id, ts, attrs));
                bucket.1.push(g);
            }
            report.high_water = shard.high_water;
            reports.push(report);
            fleet.shards.push(shard);
            for (key, (batch, seqs)) in buckets {
                fleet.apply_bucket(i, key, &batch, &seqs)?;
            }
        }
        // The fleet resumes counting from the slowest shard: every shard
        // has durably applied everything at or below min(high_water), and
        // faster shards skip re-fed duplicates individually.
        let resume_seq = fleet.shards.iter().map(|s| s.high_water).min().unwrap_or(0) + 1;
        fleet.next_global = resume_seq - 1;
        Ok((
            fleet,
            FleetRecoveryReport {
                shards: reports,
                resume_seq,
            },
        ))
    }

    fn validate(cfg: &FleetConfig, stores: &[S]) -> Result<(), FleetError> {
        if cfg.shards == 0 {
            return Err(FleetError::Config(
                "a fleet needs at least one shard".into(),
            ));
        }
        if stores.len() != cfg.shards as usize {
            return Err(FleetError::Config(format!(
                "{} stores for {} shards",
                stores.len(),
                cfg.shards
            )));
        }
        Ok(())
    }

    fn manifest(cfg: &FleetConfig, index: u32) -> FleetManifest {
        FleetManifest {
            shard_count: cfg.shards,
            shard_index: index,
            hash_seed: cfg.hash_seed,
            hash_revision: HASH_REVISION,
            partitioner_tag: cfg.key_extractor.tag(),
        }
    }

    fn check_manifest(
        index: u32,
        expected: &FleetManifest,
        found: &FleetManifest,
    ) -> Result<(), FleetError> {
        let refuse = |what: &str, exp: u64, got: u64| {
            Err(FleetError::Refused(format!(
                "shard {index}: manifest {what} mismatch (fleet config {exp:#x}, on disk {got:#x}); \
                 events would be routed differently than when this store was written"
            )))
        };
        if found.shard_count != expected.shard_count {
            return refuse(
                "shard count",
                expected.shard_count.into(),
                found.shard_count.into(),
            );
        }
        if found.shard_index != expected.shard_index {
            return refuse(
                "shard index",
                expected.shard_index.into(),
                found.shard_index.into(),
            );
        }
        if found.hash_seed != expected.hash_seed {
            return refuse("hash seed", expected.hash_seed, found.hash_seed);
        }
        if found.hash_revision != expected.hash_revision {
            return refuse(
                "hash revision",
                expected.hash_revision.into(),
                found.hash_revision.into(),
            );
        }
        if found.partitioner_tag != expected.partitioner_tag {
            return refuse(
                "partitioner",
                expected.partitioner_tag.into(),
                found.partitioner_tag.into(),
            );
        }
        Ok(())
    }

    fn build_runtime_builder(&self) -> dlacep_core::StreamingBuilder<F> {
        // Retrain config rides inside RuntimeConfig but the trainer itself
        // comes from the factory; strip the config when no trainer exists
        // so construction does not reject the combination.
        let trainer = (self.mk_trainer)();
        let mut rt_cfg = self.cfg.runtime;
        let retrain = rt_cfg.retrain.take();
        let mut b =
            StreamingDlacep::builder(self.pattern.clone(), (self.mk_filter)()).config(rt_cfg);
        if let (Some(rc), Some(tr)) = (retrain, trainer) {
            b = b.retrain(rc, tr);
        }
        b
    }

    fn fresh_runtime(&self) -> Result<StreamingDlacep<F>, FleetError> {
        Ok(self.obs_builder().build()?)
    }

    fn restore_runtime(&self, ckpt: RuntimeCheckpoint) -> Result<StreamingDlacep<F>, FleetError> {
        Ok(self.obs_builder().restore(ckpt)?)
    }

    /// The runtime of `key` on shard `si`, created on first sight.
    fn key_runtime(&mut self, si: usize, key: u64) -> Result<&mut StreamingDlacep<F>, FleetError> {
        if !self.shards[si].runtimes.contains_key(&key) {
            let rt = self.fresh_runtime()?;
            self.shards[si]
                .runtimes
                .insert(key, KeyRuntime { rt, logged: 0 });
        }
        let entry = self.shards[si].runtimes.get_mut(&key);
        Ok(&mut entry.expect("inserted above").rt)
    }

    /// Offer one key's events, in order, to that key's runtime as one batch.
    fn apply_bucket(
        &mut self,
        si: usize,
        key: u64,
        batch: &[PrimitiveEvent],
        seqs: &[u64],
    ) -> Result<(), FleetError> {
        match self
            .key_runtime(si, key)?
            .ingest_batch_traced(batch, Some(seqs))
        {
            Ok(()) | Err(RuntimeError::Stream(_)) => Ok(()),
            Err(e) => Err(e.into()),
        }
    }

    fn obs_builder(&self) -> dlacep_core::StreamingBuilder<F> {
        let mut b = self.build_runtime_builder();
        if self.cfg.obs {
            b = b.obs(Arc::new(Registry::with_tracer(
                self.cfg.journal_capacity,
                self.tracer.clone(),
            )));
        }
        b
    }

    /// Offer one event to the fleet. Returns the event's fleet-global
    /// sequence number. During post-recovery re-feed, events a shard
    /// already applied are skipped (still consuming their sequence
    /// number, so re-feeds stay aligned).
    pub fn ingest(
        &mut self,
        type_id: TypeId,
        ts: u64,
        attrs: Vec<AttrValue>,
    ) -> Result<u64, FleetError> {
        let g = self.next_global + 1;
        self.next_global = g;
        let key = self.cfg.key_extractor.key_of(type_id, &attrs);
        let si = shard_of(self.cfg.hash_seed, key, self.cfg.shards) as usize;
        if g <= self.shards[si].high_water {
            self.shards[si].stats.refeed_skipped += 1;
        } else {
            let shard = &mut self.shards[si];
            shard
                .log
                .append(|e| put_offer_record(e, g, key, type_id, ts, &attrs))?;
            shard.stats.wal_appends += 1;
            match self
                .key_runtime(si, key)?
                .ingest_traced(type_id, ts, attrs, Some(g))
            {
                // Ordering rejections are the runtime's own admission
                // decision; deterministic, so replay makes the same one.
                Ok(_) | Err(RuntimeError::Stream(_)) => {}
                Err(e) => return Err(e.into()),
            }
            let shard = &mut self.shards[si];
            shard.high_water = g;
            shard.stats.events_routed += 1;
        }
        self.tick()?;
        Ok(g)
    }

    /// Offer a batch. Routing, logging, and high-water advancement happen
    /// per event in arrival order; runtime application is batched per key
    /// (in key order per shard), which admits pooled window marking while
    /// producing the same per-key event order as serial ingest.
    pub fn ingest_batch(&mut self, events: &[PrimitiveEvent]) -> Result<(), FleetError> {
        let mut buckets: BTreeMap<(usize, u64), Bucket> = BTreeMap::new();
        for ev in events {
            let g = self.next_global + 1;
            self.next_global = g;
            let key = self.cfg.key_extractor.key_of(ev.type_id, &ev.attrs);
            let si = shard_of(self.cfg.hash_seed, key, self.cfg.shards) as usize;
            let shard = &mut self.shards[si];
            if g <= shard.high_water {
                shard.stats.refeed_skipped += 1;
                continue;
            }
            shard
                .log
                .append(|e| put_offer_record(e, g, key, ev.type_id, ev.ts.0, &ev.attrs))?;
            shard.stats.wal_appends += 1;
            shard.high_water = g;
            shard.stats.events_routed += 1;
            let bucket = buckets.entry((si, key)).or_default();
            bucket.0.push(ev.clone());
            bucket.1.push(g);
        }
        for ((si, key), (batch, seqs)) in buckets {
            self.apply_bucket(si, key, &batch, &seqs)?;
        }
        self.since_sync += events.len() as u64;
        self.since_ckpt += events.len() as u64;
        self.cadence()
    }

    fn tick(&mut self) -> Result<(), FleetError> {
        self.since_sync += 1;
        self.since_ckpt += 1;
        self.cadence()
    }

    fn cadence(&mut self) -> Result<(), FleetError> {
        if self.cfg.checkpoint_every_events > 0
            && self.since_ckpt >= self.cfg.checkpoint_every_events
        {
            self.checkpoint_now()?;
        } else if self.cfg.sync_every_events > 0 && self.since_sync >= self.cfg.sync_every_events {
            self.sync()?;
        }
        Ok(())
    }

    /// Fsync every shard's WAL.
    pub fn sync(&mut self) -> Result<(), FleetError> {
        for shard in &mut self.shards {
            shard.log.sync()?;
            shard.stats.wal_syncs += 1;
        }
        self.since_sync = 0;
        Ok(())
    }

    /// Checkpoint every shard's [`StoreLog`]: drain accepted models, stage
    /// the matches emitted since the last checkpoint, and write the live
    /// state of every key stamped with the current fleet position.
    pub fn checkpoint_now(&mut self) -> Result<(), FleetError> {
        let g = self.next_global;
        for shard in &mut self.shards {
            for (key, entry) in shard.runtimes.iter_mut() {
                shard.stats.models_drained += entry.rt.take_pending_models().len() as u64;
                let matches = entry.rt.matches_so_far();
                for m in &matches[entry.logged..] {
                    shard.log.stage(*key, m);
                }
                entry.logged = matches.len();
            }
            // Every key is encoded where it will be written from: one
            // per-shard buffer, each key's length filled in behind it.
            let runtimes = &shard.runtimes;
            shard.log.checkpoint::<FleetError>(|e, emit_offset| {
                e.put_u64(g);
                e.put_u64(emit_offset);
                e.put_u64(runtimes.len() as u64);
                for (key, entry) in runtimes {
                    e.put_u64(*key);
                    e.put_len_prefixed(|e| e.put(&entry.rt.checkpoint()));
                }
            })?;
            shard.high_water = g;
            shard.stats.wal_syncs += 1;
            shard.stats.checkpoints += 1;
        }
        self.since_ckpt = 0;
        self.since_sync = 0;
        Ok(())
    }

    /// `min(high_water)` across shards — see [`FleetStats::prune_horizon`].
    pub fn prune_horizon(&self) -> u64 {
        self.shards.iter().map(|s| s.high_water).min().unwrap_or(0)
    }

    /// Live fleet counters.
    pub fn stats(&self) -> FleetStats {
        let mut s = FleetStats {
            offered: self.next_global,
            prune_horizon: self.prune_horizon(),
            ..FleetStats::default()
        };
        for shard in &self.shards {
            s.refeed_skipped += shard.stats.refeed_skipped;
            s.keys += shard.runtimes.len() as u64;
            for entry in shard.runtimes.values() {
                s.matches += entry.rt.match_seq();
            }
        }
        s
    }

    /// Per-shard counters, in shard order.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.shards.iter().map(|s| s.stats).collect()
    }

    /// Last offered fleet-global sequence number.
    pub fn position(&self) -> u64 {
        self.next_global
    }

    /// A cloneable handle on the fleet-wide tracer (disabled unless
    /// `DLACEP_TRACE_SAMPLE` was set when the fleet was built).
    pub fn tracer(&self) -> Tracer {
        self.tracer.clone()
    }

    /// Replace the fleet-wide tracer. Call right after
    /// [`create`](Self::create), before any event is offered: key runtimes
    /// capture the tracer when they are first built, so a later swap only
    /// reaches keys that have not appeared yet.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// One live Prometheus scrape for the whole fleet, without finishing
    /// it: each shard's `serve_*` durability counters plus every hosted
    /// key runtime's live metrics summed into a `{shard="i"}`-labeled
    /// series (the runtime portion requires `obs: true`).
    pub fn render_live_prometheus(&self) -> String {
        let labeled: Vec<(String, dlacep_obs::MetricsSnapshot)> = self
            .shards
            .iter()
            .enumerate()
            .map(|(i, shard)| {
                let mut snap = dlacep_obs::MetricsSnapshot::default();
                let c = &mut snap.counters;
                c.insert("serve_events_routed".into(), shard.stats.events_routed);
                c.insert("serve_wal_appends".into(), shard.stats.wal_appends);
                c.insert("serve_wal_syncs".into(), shard.stats.wal_syncs);
                c.insert("serve_checkpoints".into(), shard.stats.checkpoints);
                c.insert("serve_refeed_skipped".into(), shard.stats.refeed_skipped);
                c.insert("serve_models_drained".into(), shard.stats.models_drained);
                c.insert("serve_keys".into(), shard.runtimes.len() as u64);
                for entry in shard.runtimes.values() {
                    if let Some(obs) = entry.rt.obs_snapshot() {
                        crate::report::merge_into(&mut snap, &obs);
                    }
                }
                (i.to_string(), snap)
            })
            .collect();
        dlacep_obs::render_prometheus_sharded("shard", &labeled)
    }

    /// Fleet liveness as one JSON document: the fleet position, trace
    /// sampling rate, the SIMD level int8 filters dispatch to, and
    /// per-shard key counts, durability counters, high-water lag, and
    /// runtime-mode census.
    pub fn healthz_json(&self) -> String {
        let mut out = format!(
            "{{\"status\":\"ok\",\"position\":{},\"trace_sample_every\":{},\
             \"simd_level\":\"{}\",\"shards\":[",
            self.next_global,
            self.tracer.sample_every(),
            dlacep_core::quantized::simd_level()
        );
        for (si, shard) in self.shards.iter().enumerate() {
            if si > 0 {
                out.push(',');
            }
            let mut modes: BTreeMap<&'static str, u64> = BTreeMap::new();
            let mut matches = 0u64;
            for KeyRuntime { rt, .. } in shard.runtimes.values() {
                let mode = match rt.mode() {
                    dlacep_core::RuntimeMode::Filtering => "filtering",
                    dlacep_core::RuntimeMode::DegradedExact => "degraded_exact",
                };
                *modes.entry(mode).or_insert(0) += 1;
                matches += rt.match_seq();
            }
            out.push_str(&format!(
                "{{\"shard\":{si},\"keys\":{},\"high_water\":{},\"lag\":{},\"matches\":{matches},\
                 \"events_routed\":{},\"wal_appends\":{},\"wal_syncs\":{},\"checkpoints\":{},\
                 \"refeed_skipped\":{},\"models_drained\":{},\"modes\":{{",
                shard.runtimes.len(),
                shard.high_water,
                self.next_global - shard.high_water.min(self.next_global),
                shard.stats.events_routed,
                shard.stats.wal_appends,
                shard.stats.wal_syncs,
                shard.stats.checkpoints,
                shard.stats.refeed_skipped,
                shard.stats.models_drained,
            ));
            for (mi, (mode, n)) in modes.iter().enumerate() {
                if mi > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\"{mode}\":{n}"));
            }
            out.push_str("}}");
        }
        out.push_str("]}");
        out
    }

    /// The fleet's sampled trace ring as Chrome trace-event JSON — load
    /// the body in `chrome://tracing` or Perfetto.
    pub fn traces_json(&self) -> String {
        self.tracer.snapshot().chrome_trace_json()
    }

    /// The tail of every key runtime's journal as one JSON array, each
    /// entry stamped with its hosting shard and key. `max_per_key` bounds
    /// how many of each key's most recent entries are included. Requires
    /// `obs: true`; an un-instrumented fleet yields `[]`.
    pub fn journal_json(&self, max_per_key: usize) -> String {
        let mut out = String::from("[");
        let mut first = true;
        for (si, shard) in self.shards.iter().enumerate() {
            for (key, entry) in &shard.runtimes {
                let Some(snap) = entry.rt.obs_snapshot() else {
                    continue;
                };
                let entries = &snap.journal.entries;
                let skip = entries.len().saturating_sub(max_per_key);
                for e in &entries[skip..] {
                    if !first {
                        out.push(',');
                    }
                    first = false;
                    out.push_str(&format!(
                        "{{\"shard\":{si},\"key\":{key},\"seq\":{},\"at_nanos\":{},\"kind\":{},\"fields\":{{",
                        e.seq,
                        e.at_nanos,
                        json_string(&e.kind)
                    ));
                    for (fi, (name, value)) in e.fields.iter().enumerate() {
                        if fi > 0 {
                            out.push(',');
                        }
                        out.push_str(&json_string(name));
                        out.push(':');
                        out.push_str(&json_field(value));
                    }
                    out.push_str("}}");
                }
            }
        }
        out.push(']');
        out
    }

    /// Finish every key runtime (evaluating trailing windows) and merge
    /// the fleet report. Consumes the fleet without a final checkpoint —
    /// call [`checkpoint_now`](Self::checkpoint_now) first to persist.
    pub fn finish(self) -> FleetReport {
        let mut keys = Vec::new();
        let mut shards = Vec::new();
        for (si, shard) in self.shards.into_iter().enumerate() {
            let mut summary = ShardSummary {
                index: si as u32,
                keys: shard.runtimes.len() as u64,
                matches: 0,
                stats: shard.stats,
            };
            for (key, entry) in shard.runtimes {
                let report = entry.rt.finish();
                summary.matches += report.matches.len() as u64;
                keys.push(KeyReport {
                    key,
                    shard: si as u32,
                    report,
                });
            }
            shards.push(summary);
        }
        keys.sort_by_key(|k| k.key);
        FleetReport::new(keys, shards, self.next_global)
    }

    /// Tear down without finishing, returning the shard stores (e.g. the
    /// crashed disk images in a recovery test).
    pub fn into_stores(self) -> Vec<S> {
        self.shards
            .into_iter()
            .map(|s| s.log.into_store())
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Persistent record encodings
// ---------------------------------------------------------------------------

/// A decoded shard checkpoint. Written in place by
/// [`ShardedDlacep::checkpoint_now`] as
/// `high_water | emit_offset | n | n × (key | len | runtime checkpoint)`.
struct ShardCheckpoint {
    high_water: u64,
    keys: Vec<(u64, RuntimeCheckpoint)>,
}

/// Decode a shard checkpoint frame's payload into the emit-log offset it
/// covers and the shard's state. Version 1 has no `emit_offset` (it covers
/// no log: its runtime checkpoints embed their matches) and is otherwise
/// laid out the same.
fn decode_shard_checkpoint(
    version: u16,
    payload: &[u8],
) -> Result<(u64, ShardCheckpoint), CodecError> {
    let mut d = Decoder::new(payload);
    let high_water = d.take_u64()?;
    let emit_offset = if version >= 2 { d.take_u64()? } else { 0 };
    let n = d.take_u64()? as usize;
    let mut keys = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        let key = d.take_u64()?;
        let len = d.take_u64()? as usize;
        keys.push((key, dlacep_core::decode_checkpoint(d.take_bytes(len)?)?));
    }
    d.finish()?;
    Ok((emit_offset, ShardCheckpoint { high_water, keys }))
}

/// WAL record: `g | key | offer`, where `offer` is the durable tier's
/// exact offer encoding ([`dlacep_core::encode_offer`]).
fn put_offer_record(
    e: &mut Encoder,
    g: u64,
    key: u64,
    type_id: TypeId,
    ts: u64,
    attrs: &[AttrValue],
) {
    e.put_u64(g);
    e.put_u64(key);
    put_offer(e, type_id, ts, attrs);
}

fn decode_offer_record(
    payload: &[u8],
) -> Result<(u64, u64, TypeId, u64, Vec<AttrValue>), CodecError> {
    let mut d = Decoder::new(payload);
    let g = d.take_u64()?;
    let key = d.take_u64()?;
    let rest = d.take_bytes(d.remaining())?;
    let (type_id, ts, attrs) = decode_offer(rest)?;
    Ok((g, key, type_id, ts, attrs))
}
