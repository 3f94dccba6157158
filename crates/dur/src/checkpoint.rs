//! Atomically-published checkpoint files.
//!
//! A checkpoint is one frame (`magic "DCKP"`, version, CRC32) whose payload
//! is the runtime state serialized by the caller. Since container version 2
//! that payload is live state only: the matches a runtime has emitted live
//! in the store's [emit log](crate::emit) and the payload opens with the
//! log's byte offset at the checkpoint. Version-1 files (whole output
//! embedded, no offset) still load; [`CheckpointScan::version`] tells the
//! caller which payload it holds. Files are `ckpt-{seq:016x}.ck`, published
//! and loaded newest-valid-first by the [generations](crate::generations)
//! protocol.

use std::io;

use crate::generations::Generations;
use crate::store::Store;

/// Magic tag of checkpoint frames.
pub const CKPT_MAGIC: [u8; 4] = *b"DCKP";
/// Current checkpoint container version.
pub const CKPT_VERSION: u16 = 2;

/// Checkpoint files: `ckpt-{seq:016x}.ck`, `seq` the WAL position covered.
/// The frame published is built by the caller (in a buffer it reuses) with
/// [`Encoder::put_frame`](crate::Encoder::put_frame).
pub(crate) const CHECKPOINTS: Generations = Generations {
    prefix: "ckpt",
    ext: "ck",
    magic: CKPT_MAGIC,
    version: CKPT_VERSION,
};

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
    let (latest, skipped) = CHECKPOINTS.load_latest(store)?;
    let version = latest.as_ref().map_or(0, |(_, version, _)| *version);
    let latest = latest.map(|(seq, _, payload)| (seq, payload));
    Ok(CheckpointScan {
        latest,
        version,
        skipped,
    })
}

/// Delete all but the [`KEEP_GENERATIONS`](crate::KEEP_GENERATIONS) newest
/// published checkpoints and any stale `.tmp` leftovers. Returns the seq of
/// the oldest kept checkpoint once two are kept: the WAL can be pruned
/// below it. While a store holds a single checkpoint the WAL from the first
/// event is that checkpoint's fallback, and nothing may be pruned.
pub(crate) fn prune_checkpoints<S: Store>(store: &mut S) -> io::Result<Option<u64>> {
    let kept = CHECKPOINTS.prune(store)?;
    Ok((kept.len() >= 2).then(|| kept[0]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec;
    use crate::store::MemStore;
    use crate::torn::FailingStore;

    fn checkpoint_name(seq: u64) -> String {
        CHECKPOINTS.name(seq)
    }

    fn write_checkpoint<S: Store>(store: &mut S, seq: u64, payload: &[u8]) -> io::Result<()> {
        let frame = codec::encode_frame(CKPT_MAGIC, CKPT_VERSION, payload);
        CHECKPOINTS.publish(store, seq, &frame)
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
        store.append(&CHECKPOINTS.tmp_name(10), b"half").unwrap();
        let oldest_kept = prune_checkpoints(&mut store).unwrap();
        assert_eq!(oldest_kept, Some(6));
        assert_eq!(
            store.list().unwrap(),
            vec![checkpoint_name(6), checkpoint_name(8)]
        );
        assert_eq!(prune_checkpoints(&mut store).unwrap(), Some(6));
        assert_eq!(store.list().unwrap().len(), 2);
    }

    #[test]
    fn a_lone_checkpoint_leaves_the_wal_whole() {
        let mut store = MemStore::new();
        assert_eq!(prune_checkpoints(&mut store).unwrap(), None);
        write_checkpoint(&mut store, 4, b"s").unwrap();
        assert_eq!(prune_checkpoints(&mut store).unwrap(), None);
        write_checkpoint(&mut store, 9, b"s").unwrap();
        assert_eq!(prune_checkpoints(&mut store).unwrap(), Some(4));
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
