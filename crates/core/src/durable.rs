//! Durable streaming runtime: write-ahead event log + checkpoint/restore.
//!
//! [`DurableDlacep`] keeps a [`StreamingDlacep`] in a [`StoreLog`] so a
//! crash at *any* byte of *any* write loses no acknowledged state: every
//! **offered** event is appended to the WAL *before* it reaches the runtime
//! (admission is deterministic, so replay re-derives it exactly), and
//! checkpoints and recovery follow the store log's write and recovery
//! orders. This tier supplies the checkpoint payload (`emit_offset |`
//! [`RuntimeCheckpoint`] — live state plus an [`EmittedMark`], not the
//! output), its matches as `(key 0, match)` emit records, and the retrain
//! supervisor's models, published to the store's registry. A recovered run
//! is byte-identical — matches, counters, timeline, journal sequence — to a
//! run that never crashed, which `tests/crash_sweep.rs` proves for every
//! possible crash point.
//!
//! What is **not** covered: the filter model itself (persist it with
//! [`crate::persist`] and pass the reloaded filter to `recover`), and output
//! already handed to a downstream consumer — use the emitted mark's count
//! ([`RuntimeCheckpoint::emitted`], live as
//! [`StreamingDlacep::match_seq`]) as the emitted-match watermark to
//! deduplicate on the consumer side.

use crate::filter::Filter;
use crate::retrain::{ModelTrainer, RetrainCheckpoint, RetrainState};
use crate::runtime::{
    EmittedMark, ModeCause, ModeTransition, RuntimeCheckpoint, RuntimeConfig, RuntimeError,
    RuntimeMode, RuntimeReport, StreamingDlacep,
};
use crate::{BreakerState, GuardStats};
use crate::{DriftMonitorState, GuardState};
use dlacep_cep::{Match, Pattern};
use dlacep_dur::{
    load_latest_model, prune_models, publish_model, CodecError, Dec, Decoder, EmitError, Enc,
    Encoder, NotEmpty, Store, StoreLog, WalConfig, WalError,
};
use dlacep_events::{AttrValue, EventId, TypeId};
use dlacep_obs::{Counter, Registry};
use std::io;
use std::sync::Arc;

/// Environment variable naming the durability directory (see the README).
pub const DUR_DIR_ENV: &str = "DLACEP_DUR_DIR";

/// The durability directory configured via [`DUR_DIR_ENV`], if set.
/// Typically fed to [`dlacep_dur::DirStore::open`].
pub fn dur_dir_from_env() -> Option<std::path::PathBuf> {
    std::env::var_os(DUR_DIR_ENV).map(std::path::PathBuf::from)
}

/// Durability tuning.
#[derive(Debug, Clone, Copy)]
pub struct DurConfig {
    /// WAL segment size and fsync batching.
    pub wal: WalConfig,
    /// Take a checkpoint every N offered events; `0` = only on explicit
    /// [`DurableDlacep::checkpoint_now`] calls.
    pub checkpoint_every_events: u64,
}

impl Default for DurConfig {
    fn default() -> Self {
        Self {
            wal: WalConfig::default(),
            checkpoint_every_events: 1024,
        }
    }
}

/// Errors of the durable runtime.
#[derive(Debug)]
#[non_exhaustive]
pub enum DurError {
    /// Store I/O failed (or the injected crash fired, in tests).
    Io(io::Error),
    /// The WAL is unreadable in a way recovery must not paper over
    /// (interior corruption, sequence gap).
    Wal(WalError),
    /// A checkpoint frame validated but its payload did not decode — a
    /// version/logic mismatch, not a torn write.
    Corrupt(CodecError),
    /// The wrapped runtime rejected something (configuration, restore
    /// mismatch — including an emitted prefix that disagrees with the
    /// checkpoint's mark — or an out-of-order event under `Reject`).
    Runtime(RuntimeError),
    /// The emit log is damaged, or ends before the checkpoint that covers
    /// it.
    Emit(EmitError),
    /// [`DurableDlacep::new`] was handed a store that already holds a run;
    /// [`DurableDlacep::recover`] it instead.
    NotEmpty(NotEmpty),
}

impl std::fmt::Display for DurError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DurError::Io(e) => write!(f, "durability io: {e}"),
            DurError::Wal(e) => write!(f, "wal: {e}"),
            DurError::Corrupt(e) => write!(f, "checkpoint payload: {e}"),
            DurError::Runtime(e) => write!(f, "runtime: {e}"),
            DurError::Emit(e) => write!(f, "{e}"),
            DurError::NotEmpty(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for DurError {}

impl From<io::Error> for DurError {
    fn from(e: io::Error) -> Self {
        DurError::Io(e)
    }
}

impl From<WalError> for DurError {
    fn from(e: WalError) -> Self {
        DurError::Wal(e)
    }
}

impl From<RuntimeError> for DurError {
    fn from(e: RuntimeError) -> Self {
        DurError::Runtime(e)
    }
}

impl From<EmitError> for DurError {
    fn from(e: EmitError) -> Self {
        DurError::Emit(e)
    }
}

impl From<CodecError> for DurError {
    fn from(e: CodecError) -> Self {
        DurError::Corrupt(e)
    }
}

impl From<NotEmpty> for DurError {
    fn from(e: NotEmpty) -> Self {
        DurError::NotEmpty(e)
    }
}

/// What [`DurableDlacep::recover`] found and did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Sequence number of the checkpoint restored from; `None` = cold start
    /// (no valid checkpoint, full WAL replay).
    pub checkpoint_seq: Option<u64>,
    /// Invalid (torn/corrupt) checkpoint files skipped while searching.
    pub checkpoints_skipped: u64,
    /// WAL records replayed into the restored runtime.
    pub wal_replayed: u64,
    /// Bytes cut from the WAL's torn tail on open.
    pub truncated_bytes: u64,
    /// Torn header-less segments removed on open.
    pub removed_segments: u64,
    /// Bytes cut from the emit log: whatever lay beyond the restored
    /// checkpoint's offset, torn or whole (re-derived by the WAL replay).
    pub emit_truncated_bytes: u64,
    /// Next WAL sequence number — the stream position the source must
    /// re-feed from.
    pub resume_seq: u64,
    /// The restored checkpoint's journal watermark (0 on cold start):
    /// uninterrupted-run journal entries from this sequence on must equal
    /// the recovered run's journal.
    pub journal_watermark: u64,
    /// Active retrained-model version after recovery (checkpoint redeploy
    /// plus WAL replay); `None` when no validated swap has happened yet or
    /// retraining is not configured.
    pub model_version: Option<u64>,
    /// Torn/corrupt registry files skipped while scanning for the newest
    /// published model.
    pub models_skipped: u64,
}

/// One WAL record: the offered event's payload. The id is *not* logged —
/// admission re-stamps ids deterministically, and the WAL sequence number
/// already identifies the offer position. Public so higher serving tiers
/// (the sharded fleet in `dlacep-serve`) log the exact same offer encoding
/// after their own routing prefix.
pub fn encode_offer(type_id: TypeId, ts: u64, attrs: &[AttrValue]) -> Vec<u8> {
    let mut e = Encoder::with_capacity(4 + 8 + 8 + 8 * attrs.len());
    put_offer(&mut e, type_id, ts, attrs);
    e.into_bytes()
}

/// [`encode_offer`] into an encoder the caller owns — how the WAL paths
/// write an offer straight into the log's record buffer.
pub fn put_offer(e: &mut Encoder, type_id: TypeId, ts: u64, attrs: &[AttrValue]) {
    e.put_u32(type_id.0);
    e.put_u64(ts);
    e.put_u64(attrs.len() as u64);
    for a in attrs {
        e.put(a);
    }
}

/// Inverse of [`encode_offer`]. Rejects trailing bytes, so a caller that
/// wraps the offer in a larger record must slice the exact offer region.
pub fn decode_offer(payload: &[u8]) -> Result<(TypeId, u64, Vec<AttrValue>), CodecError> {
    let mut d = Decoder::new(payload);
    let type_id = TypeId(d.take_u32()?);
    let ts = d.take_u64()?;
    let n = d.take_u64()? as usize;
    let mut attrs = Vec::with_capacity(n.min(d.remaining()));
    for _ in 0..n {
        attrs.push(d.get::<f64>()?);
    }
    d.finish()?;
    Ok((type_id, ts, attrs))
}

/// Crash-recoverable [`StreamingDlacep`]. See the [module docs](self).
pub struct DurableDlacep<F: Filter, S: Store> {
    rt: StreamingDlacep<F>,
    log: StoreLog<S>,
    /// How many of the runtime's matches the emit log already holds.
    logged: usize,
    cfg: DurConfig,
    offered_since_ckpt: u64,
    ckpt_bytes: Counter,
    wal_replayed: Counter,
    recovery_truncated: Counter,
    model_bytes: Counter,
}

impl<F: Filter, S: Store> DurableDlacep<F, S> {
    /// Start a durable runtime on an empty `store`: [`recover`](Self::recover)
    /// of a store that holds nothing, which is always safe to call instead.
    /// A store that holds anything is refused with [`DurError::NotEmpty`]
    /// and left as found.
    pub fn new(
        pattern: Pattern,
        filter: F,
        config: RuntimeConfig,
        dur: DurConfig,
        store: S,
        registry: Option<Arc<Registry>>,
        trainer: Option<Box<dyn ModelTrainer<F>>>,
    ) -> Result<Self, DurError> {
        StoreLog::check_empty::<DurError>(&store)?;
        let (this, _) = Self::recover(pattern, filter, config, dur, store, registry, trainer)?;
        Ok(this)
    }

    /// Rebuild from whatever `store` holds ([`StoreLog::open`]): restore the
    /// newest valid checkpoint with the emit log's matches as the runtime's
    /// emitted prefix, then replay the WAL suffix. An empty store is a cold
    /// start. `pattern`, `filter`, `config` and `trainer` must be what the
    /// original runtime ran with; a configuration mismatch is a
    /// [`RuntimeError::Restore`] error.
    ///
    /// When `registry` is `Some`, runtime metrics and journal land there
    /// from the first entry (the initial mode included). A `trainer` is
    /// required whenever [`RuntimeConfig::retrain`] is set: accepted models
    /// are published to the store's versioned registry as they are swapped
    /// in.
    ///
    /// With retraining configured the trainer decodes the checkpointed
    /// active model (so marking resumes on the same weights) and an
    /// interrupted in-flight retrain resumes at its checkpointed schedule
    /// during WAL replay. Models accepted during replay that the crashed run
    /// had already published are re-published idempotently.
    ///
    /// Replayed events that the original run rejected (out-of-order under
    /// [`Reject`](dlacep_events::OutOfOrderPolicy::Reject)) are rejected
    /// again — deterministically — and skipped, exactly as the live path
    /// experienced them.
    pub fn recover(
        pattern: Pattern,
        filter: F,
        config: RuntimeConfig,
        dur: DurConfig,
        store: S,
        registry: Option<Arc<Registry>>,
        trainer: Option<Box<dyn ModelTrainer<F>>>,
    ) -> Result<(Self, RecoveryReport), DurError> {
        let mut from_log: Vec<Match> = Vec::new();
        let (log, found) =
            StoreLog::open::<_, _, DurError>(store, dur.wal, decode_durable_payload, |_, m| {
                from_log.push(m)
            })?;
        let logged = from_log.len();
        let reg = registry.clone().unwrap_or_else(dlacep_obs::global);
        let (rt, checkpoint_seq, journal_watermark) = match found.checkpoint {
            Some((seq, mut ckpt)) => {
                // A version-1 checkpoint brings its matches embedded and
                // covers no log; they reach it at the next checkpoint.
                ckpt.emitted_prefix.append(&mut from_log);
                let watermark = ckpt.journal_next_seq;
                let rt = StreamingDlacep::restore_with_trainer(
                    pattern, filter, config, registry, ckpt, trainer,
                )?;
                (rt, Some(seq), watermark)
            }
            None => {
                let rt = StreamingDlacep::with_config_obs_trainer(
                    pattern, filter, config, registry, trainer,
                )?;
                (rt, None, 0)
            }
        };

        let mut this = Self {
            rt,
            log,
            logged,
            cfg: dur,
            offered_since_ckpt: 0,
            ckpt_bytes: reg.counter("dur.checkpoint.bytes"),
            wal_replayed: reg.counter("dur.wal.replayed"),
            recovery_truncated: reg.counter("dur.recovery.truncated_tail"),
            model_bytes: reg.counter("dur.model.bytes"),
        };
        if found.wal.truncated_bytes > 0 || found.wal.removed_segments > 0 {
            this.recovery_truncated.inc();
        }
        let mut replayed = 0u64;
        for (_seq, payload) in &found.suffix {
            let (type_id, ts, attrs) = decode_offer(payload)?;
            match this.rt.ingest(type_id, ts, attrs) {
                Ok(_) => {}
                // The original run saw the same rejection and carried on.
                Err(RuntimeError::Stream(_)) => {}
                Err(e) => return Err(e.into()),
            }
            replayed += 1;
        }
        this.wal_replayed.add(replayed);
        // Models the checkpoint held as unpublished, plus any accepted
        // during replay. Publication is idempotent, so a crash between the
        // original publication and the covering checkpoint only causes a
        // harmless re-publish here.
        this.publish_pending_models()?;
        let resume_seq = this.log.next_seq();
        this.offered_since_ckpt = resume_seq - checkpoint_seq.unwrap_or(0);

        let models_skipped = load_latest_model(this.log.store())?.skipped;
        let report = RecoveryReport {
            checkpoint_seq,
            checkpoints_skipped: found.checkpoints_skipped,
            wal_replayed: replayed,
            truncated_bytes: found.wal.truncated_bytes,
            removed_segments: found.wal.removed_segments,
            emit_truncated_bytes: found.emit_truncated_bytes,
            resume_seq,
            journal_watermark,
            model_version: this.rt.active_model_version(),
            models_skipped,
        };
        Ok((this, report))
    }

    /// The wrapped runtime.
    pub fn runtime(&self) -> &StreamingDlacep<F> {
        &self.rt
    }

    /// Next WAL sequence number == offered events durably loggable so far.
    pub fn wal_next_seq(&self) -> u64 {
        self.log.next_seq()
    }

    /// Offer one event: logged to the WAL first, then ingested. A rejected
    /// event (out-of-order under `Reject`) stays in the log — replay
    /// re-rejects it deterministically.
    pub fn ingest(
        &mut self,
        type_id: TypeId,
        ts: u64,
        attrs: Vec<AttrValue>,
    ) -> Result<Option<EventId>, DurError> {
        self.log.append(|e| put_offer(e, type_id, ts, &attrs))?;
        self.offered_since_ckpt += 1;
        let id = self.rt.ingest(type_id, ts, attrs);
        // Publish freshly accepted models before any covering checkpoint:
        // once a checkpoint records them as drained, the registry must
        // already hold them.
        self.publish_pending_models()?;
        if self.cfg.checkpoint_every_events > 0
            && self.offered_since_ckpt >= self.cfg.checkpoint_every_events
        {
            self.checkpoint_now()?;
        }
        id.map_err(DurError::from)
    }

    /// Drain models accepted by the retrain supervisor into the versioned
    /// registry (tmp + fsync + rename per model), then prune old versions.
    fn publish_pending_models(&mut self) -> Result<(), DurError> {
        let pending = self.rt.take_pending_models();
        if pending.is_empty() {
            return Ok(());
        }
        for (version, bytes) in &pending {
            let n = publish_model(self.log.store_mut(), *version, bytes)?;
            self.model_bytes.add(n);
        }
        prune_models(self.log.store_mut())?;
        Ok(())
    }

    /// Force the WAL to stable storage without checkpointing.
    pub fn sync(&mut self) -> Result<(), DurError> {
        self.log.sync().map_err(DurError::from)
    }

    /// Publish pending models, then checkpoint through [`StoreLog`]: the
    /// matches emitted since the last checkpoint go to the emit log, the
    /// payload is `emit_offset | runtime checkpoint`. Returns the
    /// checkpoint's sequence number (== offered events logged).
    pub fn checkpoint_now(&mut self) -> Result<u64, DurError> {
        self.publish_pending_models()?;
        let matches = self.rt.matches_so_far();
        for m in &matches[self.logged..] {
            self.log.stage(0, m); // key: a single runtime has one stream
        }
        self.logged = matches.len();
        let rt = &self.rt;
        let (seq, bytes) = self.log.checkpoint::<DurError>(|e, emit_offset| {
            e.put_u64(emit_offset);
            e.put(&rt.checkpoint());
        })?;
        self.ckpt_bytes.add(bytes as u64);
        self.offered_since_ckpt = 0;
        Ok(seq)
    }

    /// Flush trailing windows and produce the final report. Purely
    /// in-memory — take a [`checkpoint`](Self::checkpoint_now) first if the
    /// stream may resume later.
    pub fn finish(self) -> RuntimeReport {
        self.rt.finish()
    }

    /// Tear down into the backing store (tests use this to inspect or crash
    /// it).
    pub fn into_store(self) -> S {
        self.log.into_store()
    }
}

/// Serialize a [`RuntimeCheckpoint`] into a checkpoint payload.
pub fn encode_checkpoint(ckpt: &RuntimeCheckpoint) -> Vec<u8> {
    let mut e = Encoder::new();
    e.put(ckpt);
    e.into_bytes()
}

/// Deserialize a checkpoint payload, of this format or of version 1 (which
/// embedded every emitted match: they come back as the checkpoint's
/// [`emitted_prefix`](RuntimeCheckpoint::emitted_prefix)).
pub fn decode_checkpoint(payload: &[u8]) -> Result<RuntimeCheckpoint, CodecError> {
    let mut d = Decoder::new(payload);
    let ckpt = d.get()?;
    d.finish()?;
    Ok(ckpt)
}

/// Split a durable runtime's checkpoint frame payload into the emit-log
/// offset it covers and the runtime checkpoint. A version-1 frame is the
/// bare runtime payload and covers no log.
fn decode_durable_payload(
    version: u16,
    payload: &[u8],
) -> Result<(u64, RuntimeCheckpoint), CodecError> {
    let mut d = Decoder::new(payload);
    let emit_offset = if version >= 2 { d.take_u64()? } else { 0 };
    let ckpt = d.get()?;
    d.finish()?;
    Ok((emit_offset, ckpt))
}

// ---- binary codec impls for the checkpointed core types ----

impl Enc for BreakerState {
    fn enc(&self, e: &mut Encoder) {
        e.put_u8(match self {
            BreakerState::Closed => 0,
            BreakerState::Open => 1,
            BreakerState::HalfOpen => 2,
        });
    }
}

impl Dec for BreakerState {
    fn dec(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        match d.take_u8()? {
            0 => Ok(BreakerState::Closed),
            1 => Ok(BreakerState::Open),
            2 => Ok(BreakerState::HalfOpen),
            t => Err(CodecError::Malformed(format!("breaker state tag {t}"))),
        }
    }
}

impl Enc for GuardStats {
    fn enc(&self, e: &mut Encoder) {
        e.put_u64(self.faults_total);
        e.put_u64(self.panics);
        e.put_u64(self.wrong_length);
        e.put_u64(self.non_finite);
        e.put_u64(self.breaker_trips);
        e.put_u64(self.recoveries);
        e.put_u64(self.windows_bypassed);
    }
}

impl Dec for GuardStats {
    fn dec(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(GuardStats {
            faults_total: d.take_u64()?,
            panics: d.take_u64()?,
            wrong_length: d.take_u64()?,
            non_finite: d.take_u64()?,
            breaker_trips: d.take_u64()?,
            recoveries: d.take_u64()?,
            windows_bypassed: d.take_u64()?,
        })
    }
}

impl Enc for GuardState {
    fn enc(&self, e: &mut Encoder) {
        e.put(&self.state);
        e.put_u64(self.consecutive_faults);
        e.put_u64(self.open_windows);
        e.put(&self.stats);
    }
}

impl Dec for GuardState {
    fn dec(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(GuardState {
            state: d.get()?,
            consecutive_faults: d.take_u64()?,
            open_windows: d.take_u64()?,
            stats: d.get()?,
        })
    }
}

impl Enc for DriftMonitorState {
    fn enc(&self, e: &mut Encoder) {
        e.put(&self.ema);
        e.put_u64(self.consecutive_out);
        e.put_u64(self.windows_seen);
    }
}

impl Dec for DriftMonitorState {
    fn dec(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(DriftMonitorState {
            ema: d.get()?,
            consecutive_out: d.take_u64()?,
            windows_seen: d.take_u64()?,
        })
    }
}

impl Enc for RuntimeMode {
    fn enc(&self, e: &mut Encoder) {
        e.put_u8(match self {
            RuntimeMode::Filtering => 0,
            RuntimeMode::DegradedExact => 1,
        });
    }
}

impl Dec for RuntimeMode {
    fn dec(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        match d.take_u8()? {
            0 => Ok(RuntimeMode::Filtering),
            1 => Ok(RuntimeMode::DegradedExact),
            t => Err(CodecError::Malformed(format!("runtime mode tag {t}"))),
        }
    }
}

impl Enc for ModeCause {
    fn enc(&self, e: &mut Encoder) {
        e.put_u8(match self {
            ModeCause::Start => 0,
            ModeCause::FaultThreshold => 1,
            ModeCause::ProbeFailed => 2,
            ModeCause::Recovered => 3,
            ModeCause::Drift => 4,
            ModeCause::Rebaselined => 5,
            ModeCause::Swapped => 6,
        });
    }
}

impl Dec for ModeCause {
    fn dec(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(match d.take_u8()? {
            0 => ModeCause::Start,
            1 => ModeCause::FaultThreshold,
            2 => ModeCause::ProbeFailed,
            3 => ModeCause::Recovered,
            4 => ModeCause::Drift,
            5 => ModeCause::Rebaselined,
            6 => ModeCause::Swapped,
            t => return Err(CodecError::Malformed(format!("mode cause tag {t}"))),
        })
    }
}

impl Enc for ModeTransition {
    fn enc(&self, e: &mut Encoder) {
        e.put_u64(self.window);
        e.put(&self.mode);
        e.put(&self.cause);
    }
}

impl Dec for ModeTransition {
    fn dec(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(ModeTransition {
            window: d.take_u64()?,
            mode: d.get()?,
            cause: d.get()?,
        })
    }
}

impl Enc for RetrainState {
    fn enc(&self, e: &mut Encoder) {
        match self {
            RetrainState::Idle => e.put_u8(0),
            RetrainState::Waiting { resume_at, attempt } => {
                e.put_u8(1);
                e.put_u64(*resume_at);
                e.put_u32(*attempt);
            }
            RetrainState::Exhausted => e.put_u8(2),
        }
    }
}

impl Dec for RetrainState {
    fn dec(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(match d.take_u8()? {
            0 => RetrainState::Idle,
            1 => RetrainState::Waiting {
                resume_at: d.take_u64()?,
                attempt: d.take_u32()?,
            },
            2 => RetrainState::Exhausted,
            t => return Err(CodecError::Malformed(format!("retrain state tag {t}"))),
        })
    }
}

// Model bytes are opaque `Vec<u8>` blobs (the trainer's own wire format),
// so they are framed manually: u64 length + raw bytes.
fn enc_model(e: &mut Encoder, (version, bytes): &(u64, Vec<u8>)) {
    e.put_u64(*version);
    e.put_u64(bytes.len() as u64);
    e.put_bytes(bytes);
}

fn dec_model(d: &mut Decoder<'_>) -> Result<(u64, Vec<u8>), CodecError> {
    let version = d.take_u64()?;
    let len = usize::try_from(d.take_u64()?)
        .map_err(|_| CodecError::Malformed("model length exceeds usize".into()))?;
    Ok((version, d.take_bytes(len)?.to_vec()))
}

impl Enc for RetrainCheckpoint {
    fn enc(&self, e: &mut Encoder) {
        e.put(&self.state);
        e.put(&self.replay);
        e.put_u64(self.next_version);
        match &self.active_model {
            Some(m) => {
                e.put_u8(1);
                enc_model(e, m);
            }
            None => e.put_u8(0),
        }
        e.put_u64(self.pending_models.len() as u64);
        for m in &self.pending_models {
            enc_model(e, m);
        }
        e.put(&self.baseline_override);
    }
}

impl Dec for RetrainCheckpoint {
    fn dec(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let state = d.get()?;
        let replay = d.get()?;
        let next_version = d.take_u64()?;
        let active_model = match d.take_u8()? {
            0 => None,
            1 => Some(dec_model(d)?),
            t => return Err(CodecError::Malformed(format!("active model tag {t}"))),
        };
        let n = usize::try_from(d.take_u64()?)
            .map_err(|_| CodecError::Malformed("pending model count exceeds usize".into()))?;
        let mut pending_models = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            pending_models.push(dec_model(d)?);
        }
        Ok(RetrainCheckpoint {
            state,
            replay,
            next_version,
            active_model,
            pending_models,
            baseline_override: d.get()?,
        })
    }
}

/// First word of a version-2 [`RuntimeCheckpoint`] payload. A version-1
/// payload opens with the byte length of its configuration fingerprint,
/// which no payload is long enough to make equal to this.
const RUNTIME_PAYLOAD_V2: u64 = u64::from_le_bytes(*b"DLRTCKv2");

impl Enc for RuntimeCheckpoint {
    fn enc(&self, e: &mut Encoder) {
        e.put_u64(RUNTIME_PAYLOAD_V2);
        e.put(&self.config_fingerprint);
        e.put(&self.engine);
        e.put(&self.guard);
        e.put(&self.drift);
        e.put(&self.drift_fallback);
        e.put(&self.retrain_signaled);
        e.put(&self.buf);
        e.put(&self.marks);
        e.put_u64(self.base);
        e.put_u64(self.admitted);
        e.put_u64(self.next_window_start);
        e.put_u64(self.last_window_end);
        e.put_u64(self.relayed_upto);
        e.put(&self.last_ts);
        e.put_u64(self.next_id);
        e.put_u64(self.events_offered);
        e.put_u64(self.events_dropped);
        e.put_u64(self.events_clamped);
        e.put_u64(self.events_relayed);
        e.put_u64(self.windows_evaluated);
        e.put_u64(self.windows_degraded);
        e.put(&self.timeline);
        e.put_u64(self.emitted.count);
        e.put_u64(self.emitted.hash);
        e.put_u64(self.journaled_sheds);
        e.put_u64(self.journal_next_seq);
        e.put(&self.retrain);
    }
}

impl Dec for RuntimeCheckpoint {
    fn dec(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let v1 = d.clone().take_u64()? != RUNTIME_PAYLOAD_V2;
        if !v1 {
            d.take_u64()?;
        }
        let mut emitted_prefix = Vec::new();
        Ok(RuntimeCheckpoint {
            config_fingerprint: d.get::<Vec<u8>>()?,
            engine: d.get()?,
            guard: d.get()?,
            drift: d.get()?,
            drift_fallback: d.get()?,
            retrain_signaled: d.get()?,
            buf: d.get()?,
            marks: d.get()?,
            base: d.take_u64()?,
            admitted: d.take_u64()?,
            next_window_start: d.take_u64()?,
            last_window_end: d.take_u64()?,
            relayed_upto: d.take_u64()?,
            last_ts: d.get()?,
            next_id: d.take_u64()?,
            events_offered: d.take_u64()?,
            events_dropped: d.take_u64()?,
            events_clamped: d.take_u64()?,
            events_relayed: d.take_u64()?,
            windows_evaluated: d.take_u64()?,
            windows_degraded: d.take_u64()?,
            timeline: d.get()?,
            emitted: if v1 {
                // Decode-only: version 1 embedded the matches themselves.
                emitted_prefix = d.get::<Vec<Match>>()?;
                EmittedMark::of(&emitted_prefix)
            } else {
                EmittedMark {
                    count: d.take_u64()?,
                    hash: d.take_u64()?,
                }
            },
            emitted_prefix,
            journaled_sheds: d.take_u64()?,
            journal_next_seq: d.take_u64()?,
            // Version-1 checkpoints written before the retrain supervisor
            // existed simply end here.
            retrain: if v1 && d.remaining() == 0 {
                None
            } else {
                d.get()?
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::PassthroughFilter;
    use dlacep_cep::{PatternExpr, TypeSet};
    use dlacep_dur::MemStore;
    use dlacep_events::WindowSpec;

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

    #[test]
    fn checkpoint_payload_round_trips() {
        let mut rt = StreamingDlacep::new(seq_ab(4), PassthroughFilter).unwrap();
        for i in 0..20u64 {
            rt.ingest(TypeId((i % 2) as u32), i, vec![i as f64])
                .unwrap();
        }
        let ckpt = rt.checkpoint();
        let back = decode_checkpoint(&encode_checkpoint(&ckpt)).unwrap();
        assert_eq!(back, ckpt);
    }

    #[test]
    fn recover_from_empty_store_is_cold_start() {
        let (dur, report) = DurableDlacep::recover(
            seq_ab(4),
            PassthroughFilter,
            RuntimeConfig::default(),
            DurConfig::default(),
            MemStore::new(),
            None,
            None,
        )
        .unwrap();
        assert_eq!(report.checkpoint_seq, None);
        assert_eq!(report.wal_replayed, 0);
        assert_eq!(report.resume_seq, 0);
        assert_eq!(dur.wal_next_seq(), 0);
    }

    #[test]
    fn offer_log_checkpoint_recover_continues_identically() {
        let p = seq_ab(4);
        // Reference: uninterrupted.
        let mut reference = StreamingDlacep::new(p.clone(), PassthroughFilter).unwrap();
        for i in 0..40u64 {
            reference
                .ingest(TypeId((i % 3) as u32), i, vec![i as f64])
                .unwrap();
        }
        let ref_report = reference.finish();

        // Durable run: 25 events, checkpoint, "crash" (drop), recover, rest.
        let mut dur = DurableDlacep::new(
            p.clone(),
            PassthroughFilter,
            RuntimeConfig::default(),
            DurConfig {
                checkpoint_every_events: 0,
                ..DurConfig::default()
            },
            MemStore::new(),
            None,
            None,
        )
        .unwrap();
        for i in 0..25u64 {
            dur.ingest(TypeId((i % 3) as u32), i, vec![i as f64])
                .unwrap();
        }
        dur.checkpoint_now().unwrap();
        let store = dur.into_store(); // crash: everything in-memory is gone

        let (mut recovered, report) = DurableDlacep::recover(
            p,
            PassthroughFilter,
            RuntimeConfig::default(),
            DurConfig::default(),
            store,
            None,
            None,
        )
        .unwrap();
        assert_eq!(report.checkpoint_seq, Some(25));
        assert_eq!(report.wal_replayed, 0, "checkpoint covers the whole log");
        assert_eq!(report.resume_seq, 25);
        for i in 25..40u64 {
            recovered
                .ingest(TypeId((i % 3) as u32), i, vec![i as f64])
                .unwrap();
        }
        let rec_report = recovered.finish();
        assert_eq!(rec_report.matches, ref_report.matches);
        assert_eq!(rec_report.events_offered, ref_report.events_offered);
        assert_eq!(rec_report.timeline, ref_report.timeline);
        assert_eq!(
            rec_report.extractor_stats, ref_report.extractor_stats,
            "work counters identical after recovery"
        );
    }

    #[test]
    fn uncheckpointed_wal_suffix_is_replayed() {
        let p = seq_ab(4);
        let dur_cfg = DurConfig {
            checkpoint_every_events: 10,
            wal: WalConfig {
                sync_every: 1, // every offer durable immediately
                ..WalConfig::default()
            },
        };
        let mut dur = DurableDlacep::new(
            p.clone(),
            PassthroughFilter,
            RuntimeConfig::default(),
            dur_cfg,
            MemStore::new(),
            None,
            None,
        )
        .unwrap();
        for i in 0..27u64 {
            dur.ingest(TypeId((i % 2) as u32), i, vec![]).unwrap();
        }
        let store = dur.into_store();
        let (recovered, report) = DurableDlacep::recover(
            p,
            PassthroughFilter,
            RuntimeConfig::default(),
            dur_cfg,
            store,
            None,
            None,
        )
        .unwrap();
        assert_eq!(
            report.checkpoint_seq,
            Some(20),
            "cadence checkpoints at 10, 20"
        );
        assert_eq!(report.wal_replayed, 7, "events 20..27 replayed");
        assert_eq!(report.resume_seq, 27);
        assert_eq!(recovered.runtime().matches_so_far().len() as u64, {
            // 27 alternating A/B events in a count-4 window produce matches;
            // just sanity-check against a fresh run.
            let mut fresh = StreamingDlacep::new(seq_ab(4), PassthroughFilter).unwrap();
            for i in 0..27u64 {
                fresh.ingest(TypeId((i % 2) as u32), i, vec![]).unwrap();
            }
            fresh.matches_so_far().len() as u64
        });
    }
}
