//! Fleet manifest: the durable identity card of one shard of a sharded
//! deployment (`dlacep-serve`).
//!
//! A sharded fleet hash-partitions the event stream by key across N shard
//! directories (`shard-0000/`, `shard-0001/`, …) under one fleet root. The
//! partition function is part of the persisted state's meaning: a WAL record
//! in `shard-0003/` is only replayable into shard 3 of a fleet with the
//! *same* shard count, hash seed, hash revision, and key-extraction rule —
//! under any other configuration the same event would have been routed
//! elsewhere, and "recovery" would silently reshuffle history.
//!
//! So every shard store carries a replicated [`FleetManifest`] (one frame,
//! magic `DMFT`, same torn-write-safe codec as checkpoints) written at fleet
//! creation. Recovery loads it from every shard and **refuses** to proceed
//! on any mismatch — the fleet-level analogue of the runtime checkpoint's
//! `config_fingerprint` refusal.

use std::io;

use crate::codec::{self, CodecError, Dec, Decoder, Enc, Encoder};
use crate::generations::publish;
use crate::store::Store;

/// Magic tag of manifest frames.
pub const MANIFEST_MAGIC: [u8; 4] = *b"DMFT";
/// Current manifest format version.
pub const MANIFEST_VERSION: u16 = 1;
/// Store name of the manifest file (replicated into every shard store).
pub const MANIFEST_NAME: &str = "fleet.manifest";

/// Directory name of shard `index` under the fleet root: `shard-0007`.
pub fn shard_dir_name(index: u32) -> String {
    format!("shard-{index:04}")
}

/// Identity of one shard of a sharded fleet. Every field participates in
/// the recovery-refusal check; see the [module docs](self).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetManifest {
    /// Total shards in the fleet the stores were written by.
    pub shard_count: u32,
    /// Which shard this store is (0-based; also encoded in the directory
    /// name, and both must agree).
    pub shard_index: u32,
    /// Seed of the key-partitioning hash.
    pub hash_seed: u64,
    /// Revision of the hash *function*. Bumped whenever the mixing math
    /// changes, so old fleets refuse recovery under new routing.
    pub hash_revision: u32,
    /// Opaque tag identifying the key-extraction rule (assigned by the
    /// serving tier; this crate only compares it for equality).
    pub partitioner_tag: u32,
}

impl Enc for FleetManifest {
    fn enc(&self, e: &mut Encoder) {
        e.put_u32(self.shard_count);
        e.put_u32(self.shard_index);
        e.put_u64(self.hash_seed);
        e.put_u32(self.hash_revision);
        e.put_u32(self.partitioner_tag);
    }
}

impl Dec for FleetManifest {
    fn dec(d: &mut Decoder) -> Result<Self, CodecError> {
        Ok(FleetManifest {
            shard_count: d.take_u32()?,
            shard_index: d.take_u32()?,
            hash_seed: d.take_u64()?,
            hash_revision: d.take_u32()?,
            partitioner_tag: d.take_u32()?,
        })
    }
}

/// Manifest load failures.
#[derive(Debug)]
pub enum ManifestError {
    /// Store I/O failed.
    Io(io::Error),
    /// The manifest file exists but its frame does not validate or decode.
    /// Unlike checkpoints there is no older copy to fall back to — a
    /// damaged identity file must surface, not be skipped.
    Corrupt(CodecError),
}

impl std::fmt::Display for ManifestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ManifestError::Io(e) => write!(f, "manifest i/o: {e}"),
            ManifestError::Corrupt(e) => write!(f, "manifest corrupt: {e}"),
        }
    }
}

impl std::error::Error for ManifestError {}

impl From<io::Error> for ManifestError {
    fn from(e: io::Error) -> Self {
        ManifestError::Io(e)
    }
}

/// Write and atomically publish the manifest (tmp + fsync + rename, the
/// checkpoint protocol). Returns the bytes written.
pub fn write_manifest<S: Store>(store: &mut S, manifest: &FleetManifest) -> io::Result<u64> {
    let mut payload = Encoder::with_capacity(24);
    payload.put(manifest);
    let frame = codec::encode_frame(MANIFEST_MAGIC, MANIFEST_VERSION, payload.bytes());
    let tmp = format!("{MANIFEST_NAME}.tmp");
    publish(store, &tmp, MANIFEST_NAME, &frame)?;
    Ok(frame.len() as u64)
}

/// Load the manifest, if present. `Ok(None)` means the store was never part
/// of a fleet (a fresh shard directory).
pub fn load_manifest<S: Store>(store: &S) -> Result<Option<FleetManifest>, ManifestError> {
    if !store.exists(MANIFEST_NAME)? {
        return Ok(None);
    }
    let bytes = store.read(MANIFEST_NAME)?;
    let (_, payload) = codec::decode_frame(MANIFEST_MAGIC, MANIFEST_VERSION, &bytes)
        .map_err(ManifestError::Corrupt)?;
    let mut d = Decoder::new(payload);
    let manifest = d.get::<FleetManifest>().map_err(ManifestError::Corrupt)?;
    d.finish().map_err(ManifestError::Corrupt)?;
    Ok(Some(manifest))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemStore;

    fn manifest() -> FleetManifest {
        FleetManifest {
            shard_count: 8,
            shard_index: 3,
            hash_seed: 0xD1AC_E75E_ED00_0001,
            hash_revision: 1,
            partitioner_tag: 0x0100_0004,
        }
    }

    #[test]
    fn round_trip() {
        let mut store = MemStore::new();
        assert_eq!(load_manifest(&store).unwrap(), None);
        write_manifest(&mut store, &manifest()).unwrap();
        assert_eq!(load_manifest(&store).unwrap(), Some(manifest()));
    }

    #[test]
    fn rewrite_replaces_atomically() {
        let mut store = MemStore::new();
        write_manifest(&mut store, &manifest()).unwrap();
        let other = FleetManifest {
            shard_index: 4,
            ..manifest()
        };
        write_manifest(&mut store, &other).unwrap();
        assert_eq!(load_manifest(&store).unwrap(), Some(other));
    }

    #[test]
    fn corrupt_manifest_is_an_error_not_a_skip() {
        let mut store = MemStore::new();
        write_manifest(&mut store, &manifest()).unwrap();
        let mut bytes = store.read(MANIFEST_NAME).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        store.remove(MANIFEST_NAME).unwrap();
        store.append(MANIFEST_NAME, &bytes).unwrap();
        match load_manifest(&store) {
            Err(ManifestError::Corrupt(_)) => {}
            other => panic!("bit flip must be a corruption error, got {other:?}"),
        }
    }

    #[test]
    fn truncated_manifest_is_an_error() {
        let mut store = MemStore::new();
        write_manifest(&mut store, &manifest()).unwrap();
        let bytes = store.read(MANIFEST_NAME).unwrap();
        store.remove(MANIFEST_NAME).unwrap();
        store
            .append(MANIFEST_NAME, &bytes[..bytes.len() - 3])
            .unwrap();
        assert!(matches!(
            load_manifest(&store),
            Err(ManifestError::Corrupt(CodecError::Truncated { .. }))
        ));
    }

    #[test]
    fn shard_dir_names_are_zero_padded() {
        assert_eq!(shard_dir_name(0), "shard-0000");
        assert_eq!(shard_dir_name(7), "shard-0007");
        assert_eq!(shard_dir_name(1234), "shard-1234");
    }
}
