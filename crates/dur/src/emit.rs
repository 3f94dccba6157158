//! Append-only emit log: the output a store's runtimes have already
//! produced, kept beside the WAL instead of inside every checkpoint.
//!
//! ## Layout
//!
//! One file, [`EMIT_LOG_NAME`]: a header frame (`magic "DEMT"`, format
//! version, empty payload) followed by records in the WAL's compact form
//! `crc32(4 LE) | len(4 LE) | payload`. The payload is the caller's — the
//! runtimes above log `(key, match)`. A store that has emitted nothing has
//! no file, and its log offset is 0.
//!
//! ## Write order and recovery
//!
//! [`crate::StoreLog`] drives the log: it appends and syncs the staged
//! records before publishing the checkpoint that records the offset, so the
//! log may run *ahead* of the newest checkpoint but never behind it. On
//! recovery [`EmitLog::open_at`] takes the restored checkpoint's offset (0
//! when there is none), verifies and hands back the records below it, and
//! cuts the log there — the only way the log ever shrinks; what lay beyond
//! is re-derived by WAL replay, so the tail needs no scan to be dropped.
//! Below the offset every byte was synced before the checkpoint was
//! published, so damage there is [`EmitError::Corrupt`], and a log that ends
//! before the offset has lost acknowledged output: [`EmitError::Short`],
//! never a silent gap.

use std::fmt;
use std::io;

use crate::codec::{scan_frame, scan_record, CodecError, Encoder};
use crate::store::Store;

/// Name of the emit log within its store.
pub const EMIT_LOG_NAME: &str = "emit.log";
/// Magic tag of the log's header frame.
pub const EMIT_MAGIC: [u8; 4] = *b"DEMT";
/// Current log format version.
pub const EMIT_VERSION: u16 = 1;

/// Errors from reading or repairing the emit log.
#[derive(Debug)]
pub enum EmitError {
    /// The underlying store failed.
    Io(io::Error),
    /// Damage below the checkpoint's offset, or a record there the caller
    /// could not decode.
    Corrupt {
        /// Byte offset of the damaged header or record.
        offset: u64,
        /// The codec-level failure.
        source: CodecError,
    },
    /// A checkpoint points past the end of the log.
    Short {
        /// The offset the checkpoint recorded.
        offset: u64,
        /// The log's length.
        len: u64,
    },
}

impl fmt::Display for EmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EmitError::Io(e) => write!(f, "emit log i/o error: {e}"),
            EmitError::Corrupt { offset, source } => {
                write!(f, "emit log corrupt at {EMIT_LOG_NAME}+{offset}: {source}")
            }
            EmitError::Short { offset, len } => write!(
                f,
                "emit log holds {len} bytes but the checkpoint covers {offset}"
            ),
        }
    }
}

impl std::error::Error for EmitError {}

impl From<io::Error> for EmitError {
    fn from(e: io::Error) -> Self {
        EmitError::Io(e)
    }
}

/// Handle on a store's emit log. Like [`crate::Wal`], every call takes the
/// store, so one store serves the WAL, the log and crash injection.
#[derive(Debug)]
pub struct EmitLog {
    /// Bytes the log holds (0 = no file, or an empty one).
    len: u64,
    /// Records staged since the last [`EmitLog::append`], framed; the
    /// allocation is reused from checkpoint to checkpoint.
    staged: Encoder,
}

impl EmitLog {
    /// Open the log of a store whose restored checkpoint covers its first
    /// `offset` bytes: hand the payload of every record below `offset` to
    /// `visit`, oldest first, and cut the log at `offset`. Returns the log
    /// and the number of bytes cut.
    pub fn open_at<S: Store>(
        store: &mut S,
        offset: u64,
        mut visit: impl FnMut(&[u8]) -> Result<(), CodecError>,
    ) -> Result<(EmitLog, u64), EmitError> {
        let bytes = match store.read(EMIT_LOG_NAME) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e.into()),
        };
        let len = bytes.len() as u64;
        if offset > len {
            return Err(EmitError::Short { offset, len });
        }
        let covered = &bytes[..offset as usize];
        let corrupt = |at: usize, source| EmitError::Corrupt {
            offset: at as u64,
            source,
        };
        let mut pos = 0;
        if !covered.is_empty() {
            let (_, _, consumed) =
                scan_frame(EMIT_MAGIC, EMIT_VERSION, covered).map_err(|e| corrupt(0, e))?;
            pos = consumed;
        }
        while pos < covered.len() {
            let (payload, used) = scan_record(&covered[pos..]).map_err(|e| corrupt(pos, e))?;
            visit(payload).map_err(|e| corrupt(pos, e))?;
            pos += used;
        }
        if len > offset {
            store.truncate(EMIT_LOG_NAME, offset)?;
        }
        let log = EmitLog {
            len: offset,
            staged: Encoder::new(),
        };
        Ok((log, len - offset))
    }

    /// Bytes appended so far — the offset a checkpoint taken now records
    /// (durable once [`EmitLog::sync`] has run).
    pub fn offset(&self) -> u64 {
        self.len
    }

    /// Stage one record whose payload is what `write` encodes.
    pub fn stage(&mut self, write: impl FnOnce(&mut Encoder)) {
        if self.len == 0 && self.staged.is_empty() {
            self.staged.put_frame(EMIT_MAGIC, EMIT_VERSION, |_| {});
        }
        self.staged.put_record(write);
    }

    /// Hand the staged records to the store in one append.
    pub fn append<S: Store>(&mut self, store: &mut S) -> io::Result<()> {
        if !self.staged.is_empty() {
            store.append(EMIT_LOG_NAME, self.staged.bytes())?;
            self.len += self.staged.len() as u64;
            self.staged.clear();
        }
        Ok(())
    }

    /// Fsync the log, making every appended record durable.
    pub fn sync<S: Store>(&mut self, store: &mut S) -> io::Result<()> {
        if self.len > 0 {
            store.sync(EMIT_LOG_NAME)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{Decoder, FRAME_HEADER_BYTES};
    use crate::store::MemStore;
    use crate::torn::FailingStore;

    fn append_all(log: &mut EmitLog, store: &mut impl Store, records: &[&[u8]]) {
        for r in records {
            log.stage(|e| e.put_bytes(r));
        }
        log.append(store).unwrap();
        log.sync(store).unwrap();
    }

    /// Open at `offset`, returning the log, the bytes cut and the records
    /// below the offset.
    fn open_at(store: &mut impl Store, offset: u64) -> (EmitLog, u64, Vec<Vec<u8>>) {
        let mut records = Vec::new();
        let (log, cut) = EmitLog::open_at(store, offset, |p| {
            records.push(p.to_vec());
            Ok(())
        })
        .unwrap();
        (log, cut, records)
    }

    #[test]
    fn emit_empty_log_has_no_file_and_offset_zero() {
        let mut store = MemStore::new();
        let (mut log, cut, records) = open_at(&mut store, 0);
        assert_eq!((log.offset(), cut), (0, 0));
        assert!(records.is_empty());
        log.append(&mut store).unwrap();
        log.sync(&mut store).unwrap();
        assert!(store.list().unwrap().is_empty(), "nothing staged, no file");
    }

    #[test]
    fn emit_append_reopen_round_trip() {
        let mut store = MemStore::new();
        let (mut log, _, _) = open_at(&mut store, 0);
        append_all(&mut log, &mut store, &[b"one", b"", b"three"]);
        let first = log.offset();
        append_all(&mut log, &mut store, &[b"four"]);
        assert!(log.offset() > first);

        let (reopened, cut, records) = open_at(&mut store, log.offset());
        assert_eq!((reopened.offset(), cut), (log.offset(), 0));
        assert_eq!(
            records,
            vec![
                b"one".to_vec(),
                b"".to_vec(),
                b"three".to_vec(),
                b"four".to_vec()
            ]
        );
    }

    #[test]
    fn emit_torn_tail_at_every_byte_of_the_last_record_is_dropped() {
        let mut store = MemStore::new();
        let (mut log, _, _) = open_at(&mut store, 0);
        append_all(&mut log, &mut store, &[b"kept-1", b"kept-2"]);
        let kept = log.offset();
        append_all(&mut log, &mut store, &[b"the last record"]);
        let full = log.offset();

        // The checkpoint covers `kept`; the append after it tore anywhere.
        for len in kept..=full {
            let mut torn = store.clone();
            torn.truncate(EMIT_LOG_NAME, len).unwrap();
            let (log, cut, records) = open_at(&mut torn, kept);
            assert_eq!((log.offset(), cut), (kept, len - kept), "cut at {len}");
            assert_eq!(torn.len(EMIT_LOG_NAME).unwrap(), kept);
            assert_eq!(records, vec![b"kept-1".to_vec(), b"kept-2".to_vec()]);
        }
    }

    #[test]
    fn emit_a_log_torn_in_its_header_restarts_with_a_fresh_one() {
        let mut store = MemStore::new();
        let (mut log, _, _) = open_at(&mut store, 0);
        append_all(&mut log, &mut store, &[b"x"]);
        for len in 0..FRAME_HEADER_BYTES as u64 {
            let mut torn = store.clone();
            torn.truncate(EMIT_LOG_NAME, len).unwrap();
            let (mut log, cut, _) = open_at(&mut torn, 0);
            assert_eq!((log.offset(), cut), (0, len));
            append_all(&mut log, &mut torn, &[b"x"]);
            assert_eq!(
                torn.read(EMIT_LOG_NAME).unwrap(),
                store.read(EMIT_LOG_NAME).unwrap()
            );
        }
    }

    #[test]
    fn emit_damage_below_the_offset_is_corrupt() {
        let mut store = MemStore::new();
        let (mut log, _, _) = open_at(&mut store, 0);
        append_all(
            &mut log,
            &mut store,
            &[b"aaaaaaaa", b"bbbbbbbb", b"cccccccc"],
        );
        let bytes = store.read(EMIT_LOG_NAME).unwrap();
        // Header, CRC, length and payload bytes of every record alike: the
        // covered prefix was synced whole, so nothing there reads as a tear.
        for at in 0..bytes.len() {
            for bit in [0x01, 0x80] {
                let mut bad = bytes.clone();
                bad[at] ^= bit;
                let mut damaged = MemStore::new();
                damaged.append(EMIT_LOG_NAME, &bad).unwrap();
                let got = EmitLog::open_at(&mut damaged, bytes.len() as u64, |_| Ok(()));
                assert!(
                    matches!(got, Err(EmitError::Corrupt { .. })),
                    "flip {bit:#x} at {at}: {got:?}"
                );
                assert_eq!(damaged.read(EMIT_LOG_NAME).unwrap(), bad, "left as found");
            }
        }
    }

    #[test]
    fn emit_cut_then_append_equals_never_having_written_the_tail() {
        let mut clean = MemStore::new();
        let (mut log, _, _) = open_at(&mut clean, 0);
        append_all(&mut log, &mut clean, &[b"first", b"second"]);
        let mark = log.offset();
        let mut detour = clean.clone();
        append_all(&mut log, &mut clean, &[b"third", b"fourth"]);

        // The detour writes a different tail, loses it to a recovery that
        // restores the checkpoint at `mark`, then appends what the clean
        // run appended.
        let (mut log, _, _) = open_at(&mut detour, mark);
        append_all(&mut log, &mut detour, &[b"lost", b"also lost"]);
        let (mut log, cut, _) = open_at(&mut detour, mark);
        assert!(cut > 0 && log.offset() == mark);
        append_all(&mut log, &mut detour, &[b"third", b"fourth"]);
        assert_eq!(
            detour.read(EMIT_LOG_NAME).unwrap(),
            clean.read(EMIT_LOG_NAME).unwrap()
        );

        // Back to nothing, then everything: still the same bytes.
        let (mut log, cut, _) = open_at(&mut detour, 0);
        assert!(cut > 0);
        append_all(
            &mut log,
            &mut detour,
            &[b"first", b"second", b"third", b"fourth"],
        );
        assert_eq!(
            detour.read(EMIT_LOG_NAME).unwrap(),
            clean.read(EMIT_LOG_NAME).unwrap()
        );
    }

    #[test]
    fn emit_offset_past_the_end_is_short_and_a_non_boundary_is_corrupt() {
        let mut store = MemStore::new();
        let (mut log, _, _) = open_at(&mut store, 0);
        append_all(&mut log, &mut store, &[b"first", b"second"]);
        let len = log.offset();
        let image = store.read(EMIT_LOG_NAME).unwrap();
        assert!(matches!(
            EmitLog::open_at(&mut store, len + 1, |_| Ok(())),
            Err(EmitError::Short { offset, len: l }) if offset == len + 1 && l == len
        ));
        assert!(matches!(
            EmitLog::open_at(&mut store, len - 3, |_| Ok(())),
            Err(EmitError::Corrupt { .. })
        ));
        assert!(matches!(
            EmitLog::open_at(&mut store, 3, |_| Ok(())),
            Err(EmitError::Corrupt { offset: 0, .. })
        ));
        assert_eq!(
            store.read(EMIT_LOG_NAME).unwrap(),
            image,
            "refusals cut nothing"
        );
    }

    #[test]
    fn emit_visitor_errors_surface_as_corrupt_at_the_record() {
        let mut store = MemStore::new();
        let (mut log, _, _) = open_at(&mut store, 0);
        append_all(&mut log, &mut store, &[&7u64.to_le_bytes(), b"short"]);
        let err = EmitLog::open_at(&mut store, log.offset(), |p| {
            Decoder::new(p).take_u64().map(|_| ())
        })
        .unwrap_err();
        assert!(matches!(err, EmitError::Corrupt { offset, .. } if offset > 0));
    }

    #[test]
    fn emit_crash_at_every_tick_of_the_sync_leaves_the_covered_prefix() {
        let records: [&[u8]; 3] = [b"alpha", b"beta", b"gamma"];
        let mut probe = FailingStore::new(MemStore::new(), crate::Schedule::never());
        let (mut log, _, _) = open_at(&mut probe, 0);
        append_all(&mut log, &mut probe, &records[..1]);
        let (covered, after_first) = (log.offset(), probe.ticks());
        append_all(&mut log, &mut probe, &records[1..]);
        let total = probe.ticks();
        assert!(total > after_first);

        for crash in after_first..total {
            let mut store = FailingStore::new(MemStore::new(), crate::Schedule::never());
            let (mut log, _, _) = open_at(&mut store, 0);
            append_all(&mut log, &mut store, &records[..1]);
            let mut store = FailingStore::crash_at(store.into_durable(), crash - after_first);
            for r in &records[1..] {
                log.stage(|e| e.put_bytes(r));
            }
            log.append(&mut store).unwrap();
            assert!(log.sync(&mut store).is_err(), "crash at {crash} fires");

            // No checkpoint covers the second append: it is cut, torn or not.
            let mut disk = store.into_durable();
            let (log, cut, got) = open_at(&mut disk, covered);
            assert_eq!(cut, crash - after_first, "the bytes the sync got to");
            assert_eq!(log.offset(), covered);
            assert_eq!(got, vec![records[0].to_vec()]);
        }
    }
}
