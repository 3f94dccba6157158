//! Atomically-published checkpoint files.
//!
//! A checkpoint is one frame (`magic "DCKP"`, version, CRC32) whose payload
//! is the runtime state serialized by the caller. Since container version 2
//! that payload is live state only: the matches a runtime has emitted live
//! in the store's [emit log](crate::emit) and the payload opens with the
//! log's byte offset at the checkpoint. Version-1 files (whole output
//! embedded, no offset) still load; [`CheckpointScan::version`] tells the
//! caller which payload it holds. Publication follows the
//! classic protocol: write `ckpt-{seq:016x}.tmp`, fsync it, rename to
//! `ckpt-{seq:016x}.ck`, so a crash at any point leaves either the old
//! checkpoint set or the old set plus a complete new file — never a
//! half-written published checkpoint. [`load_latest_checkpoint`] walks
//! published files newest-first and returns the first that decodes, so a
//! torn or bit-rotted file is skipped (and counted), not fatal.

use std::io;

use crate::codec::{self, CodecError};
use crate::store::Store;

/// Magic tag of checkpoint frames.
pub const CKPT_MAGIC: [u8; 4] = *b"DCKP";
/// Current checkpoint container version.
pub const CKPT_VERSION: u16 = 2;

fn checkpoint_name(seq: u64) -> String {
    format!("ckpt-{seq:016x}.ck")
}

fn tmp_name(seq: u64) -> String {
    format!("ckpt-{seq:016x}.tmp")
}

fn parse_checkpoint_name(name: &str) -> Option<u64> {
    let hex = name.strip_prefix("ckpt-")?.strip_suffix(".ck")?;
    if hex.len() != 16 {
        return None;
    }
    u64::from_str_radix(hex, 16).ok()
}

/// Atomically publish `frame` — a whole `CKPT_MAGIC` / [`CKPT_VERSION`]
/// frame, built by the caller (in a buffer it reuses) with
/// [`Encoder::put_frame`](crate::Encoder::put_frame) — as the checkpoint
/// for WAL position `seq`.
pub fn publish_checkpoint<S: Store>(store: &mut S, seq: u64, frame: &[u8]) -> io::Result<()> {
    let tmp = tmp_name(seq);
    if store.exists(&tmp)? {
        store.remove(&tmp)?; // stale tmp from an earlier crashed attempt
    }
    store.append(&tmp, frame)?;
    store.sync(&tmp)?;
    store.rename(&tmp, &checkpoint_name(seq))
}

/// Result of scanning the store for the newest usable checkpoint.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CheckpointScan {
    /// `(seq, payload)` of the newest checkpoint that decoded cleanly.
    pub latest: Option<(u64, Vec<u8>)>,
    /// Container version of `latest`'s frame (0 when there is none).
    pub version: u16,
    /// Newer published checkpoints that were skipped as unreadable.
    pub skipped: u64,
}

/// Find the newest checkpoint whose frame validates. Unreadable newer
/// files are skipped and counted; only store I/O errors are fatal.
pub fn load_latest_checkpoint<S: Store>(store: &S) -> io::Result<CheckpointScan> {
    let mut seqs: Vec<(u64, String)> = store
        .list()?
        .into_iter()
        .filter_map(|name| parse_checkpoint_name(&name).map(|seq| (seq, name)))
        .collect();
    seqs.sort();
    let mut scan = CheckpointScan::default();
    for (seq, name) in seqs.into_iter().rev() {
        let bytes = store.read(&name)?;
        match codec::decode_frame(CKPT_MAGIC, CKPT_VERSION, &bytes) {
            Ok((version, payload)) => {
                scan.latest = Some((seq, payload.to_vec()));
                scan.version = version;
                return Ok(scan);
            }
            Err(CodecError::Truncated { .. })
            | Err(CodecError::ChecksumMismatch { .. })
            | Err(CodecError::BadMagic { .. })
            | Err(CodecError::UnsupportedVersion { .. })
            | Err(CodecError::Malformed(_))
            | Err(CodecError::TrailingBytes { .. }) => scan.skipped += 1,
        }
    }
    Ok(scan)
}

/// Delete all but the `keep` newest published checkpoints — never fewer
/// than two, so the newest has a fallback — and any stale `.tmp` leftovers.
/// Returns the seq of the oldest kept checkpoint once at least two are
/// kept: the WAL can be pruned below it. While a store holds a single
/// checkpoint the WAL from the first event is that checkpoint's fallback,
/// and nothing may be pruned.
pub fn prune_checkpoints<S: Store>(store: &mut S, keep: usize) -> io::Result<Option<u64>> {
    let names = store.list()?;
    let mut published: Vec<(u64, String)> = names
        .iter()
        .filter_map(|name| parse_checkpoint_name(name).map(|seq| (seq, name.clone())))
        .collect();
    published.sort();
    let cut = published.len().saturating_sub(keep.max(2));
    for (_, name) in &published[..cut] {
        store.remove(name)?;
    }
    for name in &names {
        if name
            .strip_prefix("ckpt-")
            .is_some_and(|rest| rest.ends_with(".tmp"))
        {
            store.remove(name)?;
        }
    }
    Ok((published.len() - cut >= 2).then(|| published[cut].0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemStore;
    use crate::torn::FailingStore;

    fn write_checkpoint<S: Store>(store: &mut S, seq: u64, payload: &[u8]) -> io::Result<()> {
        let frame = codec::encode_frame(CKPT_MAGIC, CKPT_VERSION, payload);
        publish_checkpoint(store, seq, &frame)
    }

    #[test]
    fn publish_and_load_newest_valid() {
        let mut store = MemStore::new();
        assert_eq!(
            load_latest_checkpoint(&store).unwrap(),
            CheckpointScan::default()
        );
        write_checkpoint(&mut store, 5, b"state@5").unwrap();
        write_checkpoint(&mut store, 9, b"state@9").unwrap();
        let scan = load_latest_checkpoint(&store).unwrap();
        assert_eq!(scan.latest, Some((9, b"state@9".to_vec())));
        assert_eq!(scan.version, CKPT_VERSION);
        assert_eq!(scan.skipped, 0);
    }

    #[test]
    fn version_1_frames_still_load_and_report_their_version() {
        let mut store = MemStore::new();
        let frame = codec::encode_frame(CKPT_MAGIC, 1, b"whole output inside");
        store.append(&checkpoint_name(3), &frame).unwrap();
        let scan = load_latest_checkpoint(&store).unwrap();
        assert_eq!(scan.latest, Some((3, b"whole output inside".to_vec())));
        assert_eq!(scan.version, 1);
    }

    #[test]
    fn corrupt_newest_falls_back_to_older() {
        let mut store = MemStore::new();
        write_checkpoint(&mut store, 3, b"good").unwrap();
        write_checkpoint(&mut store, 7, b"soon-corrupt").unwrap();
        let name = checkpoint_name(7);
        let len = store.len(&name).unwrap();
        store.truncate(&name, len - 2).unwrap();
        let scan = load_latest_checkpoint(&store).unwrap();
        assert_eq!(scan.latest, Some((3, b"good".to_vec())));
        assert_eq!(scan.skipped, 1);
    }

    #[test]
    fn prune_keeps_newest_and_clears_tmp() {
        let mut store = MemStore::new();
        for seq in [2u64, 4, 6, 8] {
            write_checkpoint(&mut store, seq, b"s").unwrap();
        }
        store.append(&tmp_name(10), b"half").unwrap();
        let oldest_kept = prune_checkpoints(&mut store, 2).unwrap();
        assert_eq!(oldest_kept, Some(6));
        assert_eq!(
            store.list().unwrap(),
            vec![checkpoint_name(6), checkpoint_name(8)]
        );
        // A newest checkpoint always keeps a fallback.
        assert_eq!(prune_checkpoints(&mut store, 1).unwrap(), Some(6));
        assert_eq!(store.list().unwrap().len(), 2);
    }

    #[test]
    fn a_lone_checkpoint_leaves_the_wal_whole() {
        let mut store = MemStore::new();
        assert_eq!(prune_checkpoints(&mut store, 2).unwrap(), None);
        write_checkpoint(&mut store, 4, b"s").unwrap();
        assert_eq!(prune_checkpoints(&mut store, 2).unwrap(), None);
        write_checkpoint(&mut store, 9, b"s").unwrap();
        assert_eq!(prune_checkpoints(&mut store, 2).unwrap(), Some(4));
    }

    #[test]
    fn crash_during_publish_never_corrupts_the_set() {
        // Measure the tick budget of one checkpoint write, then crash at
        // every tick: the older checkpoint must always survive intact.
        let mut probe = FailingStore::new(MemStore::new(), crate::Schedule::never());
        write_checkpoint(&mut probe, 1, b"old-state").unwrap();
        let after_first = probe.ticks();
        write_checkpoint(&mut probe, 2, b"new-state").unwrap();
        let total = probe.ticks();

        for crash in after_first..total {
            let mut store = FailingStore::new(MemStore::new(), crate::Schedule::never());
            write_checkpoint(&mut store, 1, b"old-state").unwrap();
            let mut store = FailingStore::crash_at(store.into_durable(), crash - after_first);
            let _ = write_checkpoint(&mut store, 2, b"new-state");
            let durable = store.into_durable();
            let scan = load_latest_checkpoint(&durable).unwrap();
            let (seq, payload) = scan.latest.expect("a checkpoint always survives");
            match seq {
                1 => assert_eq!(payload, b"old-state"),
                2 => assert_eq!(payload, b"new-state"),
                other => panic!("unexpected checkpoint seq {other}"),
            }
        }
    }
}
