//! `dlacep-dur` — zero-dependency durability substrate for the DLACEP
//! reproduction. Built on `std` only (the workspace is offline), it is the
//! bottom of the crate stack: `dlacep-events`, `dlacep-cep`, and
//! `dlacep-core` implement its codec traits for their own state types.
//!
//! - **codec** ([`Encoder`]/[`Decoder`], [`Enc`]/[`Dec`]): a versioned
//!   little-endian binary codec whose frames carry a magic tag, a format
//!   version, a payload length, and an IEEE CRC32 checksum. A frame cut
//!   short by a torn write decodes to [`CodecError::Truncated`]; a
//!   bit-flipped frame decodes to [`CodecError::ChecksumMismatch`] — both
//!   are recoverable signals, never panics.
//! - **store** ([`Store`]): a minimal flat-namespace storage abstraction
//!   (`append`/`sync`/`rename`/`truncate`/…) with a real-filesystem
//!   implementation ([`DirStore`]), an in-memory one ([`MemStore`]), and an
//!   atomic-write helper ([`atomic_write_file`]).
//! - **wal** ([`Wal`]): an append-only segmented write-ahead log with fsync
//!   batching, size-based rotation, and corrupt-tail truncation on open.
//! - **checkpoint**: checkpoint files published tmp + fsync + rename, read
//!   back newest-valid-first, the newest [`KEEP_GENERATIONS`] kept.
//! - **emit** ([`EmitLog`]): the append-only log of output already emitted
//!   — the WAL's record framing, cut on recovery at the restored
//!   checkpoint's offset — so a checkpoint carries live state plus an
//!   offset into it, not the whole output.
//! - **store_log** ([`StoreLog`]): one store's WAL, emit log and
//!   checkpoint chain under the one write order and the one recovery order
//!   every durable tier shares; each tier lays out only its own payload.
//! - **manifest** ([`FleetManifest`]): the replicated identity card of one
//!   shard of a sharded fleet (shard count, hash seed/revision, partitioner
//!   tag). Recovery compares it against the live configuration and refuses
//!   to replay a shard's history under different routing.
//! - **torn** ([`FailingStore`], [`Schedule`]): deterministic crash
//!   injection. Appends land in a simulated page cache; `sync` makes bytes
//!   durable one tick at a time, and the schedule kills the store at an
//!   exact tick, leaving a torn prefix — exactly what a power cut during
//!   `fsync` leaves on disk.
//!
//! The crash-recovery contract ([`store_log`] states the orders that keep
//! it; `dlacep-core::durable` and `dlacep-serve::fleet` are the tiers above):
//! replaying the WAL suffix into a restored checkpoint reproduces the
//! uninterrupted run's outputs bit for bit, for every crash point.

#![forbid(unsafe_code)]

pub mod checkpoint;
pub mod codec;
pub mod emit;
pub mod manifest;
pub mod store;
pub mod store_log;
pub mod torn;
pub mod wal;

pub use checkpoint::{
    load_latest_checkpoint, CheckpointScan, CKPT_MAGIC, CKPT_VERSION, KEEP_GENERATIONS,
};
pub use codec::{
    crc32, decode_frame, encode_frame, scan_frame, CodecError, Dec, Decoder, Enc, Encoder,
};
pub use emit::{EmitError, EmitLog, EMIT_LOG_NAME};
pub use manifest::{load_manifest, shard_dir_name, write_manifest, FleetManifest, ManifestError};
pub use store::{atomic_write_file, DirStore, MemStore, Store};
pub use store_log::{LogError, NotEmpty, Recovered, StoreLog};
pub use torn::{FailingStore, Schedule, Trigger};
pub use wal::{Wal, WalConfig, WalError, WalOpenReport};
