//! Append-only segmented write-ahead log.
//!
//! ## Layout
//!
//! The log is a series of segment files named `wal-{start_seq:016x}.seg`,
//! where `start_seq` is the sequence number of the segment's first record.
//! Each segment opens with a header frame (`magic "DWAL"`, format version,
//! payload = `start_seq`) followed by records in the compact form
//! `crc32(4 LE) | len(4 LE) | payload` — the segment header authenticates
//! the file, so records skip per-record magic.
//!
//! ## Durability
//!
//! `append` hands bytes to the [`Store`] (page cache in the crash model);
//! [`Wal::sync`] is the durability point. With `sync_every > 0` the log
//! fsyncs itself after that many appended records — fsync *batching*: one
//! sync amortized over a batch, bounding loss to the batch tail. Rotation
//! syncs the outgoing segment before opening its successor.
//!
//! ## Recovery
//!
//! [`Wal::open`] scans all segments. Corruption at the *tail* of the last
//! segment is the expected signature of a crash: the tail is truncated at
//! the last whole record and appending resumes there. A last segment whose
//! header never became fully durable (a crash during rotation) is deleted
//! outright. Corruption anywhere else is not a tear — it is data loss, and
//! open fails with [`WalError::Corrupt`] rather than silently dropping
//! interior records.

use std::fmt;
use std::io;

use crate::codec::{self, scan_frame, scan_record, CodecError, Decoder, Encoder};
use crate::store::Store;

/// Magic tag of segment header frames.
pub const WAL_MAGIC: [u8; 4] = *b"DWAL";
/// Current segment format version.
pub const WAL_VERSION: u16 = 1;

/// WAL tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct WalConfig {
    /// Rotate to a new segment once the active one reaches this many bytes
    /// (checked before each append; a segment always holds ≥ 1 record).
    pub segment_max_bytes: u64,
    /// Fsync after this many appended records; `0` = only explicit
    /// [`Wal::sync`] calls (e.g. at checkpoints) make records durable.
    pub sync_every: u64,
}

impl Default for WalConfig {
    fn default() -> Self {
        WalConfig {
            segment_max_bytes: 64 * 1024,
            sync_every: 32,
        }
    }
}

/// Errors from WAL operations.
#[derive(Debug)]
pub enum WalError {
    /// The underlying store failed (includes injected crashes).
    Io(io::Error),
    /// Corruption that is *not* a recoverable torn tail: a damaged record
    /// in the interior of the log, or an undecodable non-final segment.
    Corrupt {
        /// Segment file the damage was found in.
        segment: String,
        /// Byte offset of the damaged frame within the segment.
        offset: u64,
        /// The codec-level failure.
        source: CodecError,
    },
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal i/o error: {e}"),
            WalError::Corrupt {
                segment,
                offset,
                source,
            } => {
                write!(f, "wal corrupt at {segment}+{offset}: {source}")
            }
        }
    }
}

impl std::error::Error for WalError {}

impl From<io::Error> for WalError {
    fn from(e: io::Error) -> Self {
        WalError::Io(e)
    }
}

/// What [`Wal::open`] found and repaired.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WalOpenReport {
    /// Sequence number the next appended record will receive (the first
    /// surviving segment's start — 0 unless the head was pruned — plus the
    /// records that survived recovery).
    pub next_seq: u64,
    /// Bytes cut from the last segment's corrupt tail.
    pub truncated_bytes: u64,
    /// Headerless (torn-at-birth) trailing segments deleted.
    pub removed_segments: u64,
    /// Segments present after recovery.
    pub segments: usize,
}

fn segment_name(start_seq: u64) -> String {
    format!("wal-{start_seq:016x}.seg")
}

fn parse_segment_name(name: &str) -> Option<u64> {
    let hex = name.strip_prefix("wal-")?.strip_suffix(".seg")?;
    if hex.len() != 16 {
        return None;
    }
    u64::from_str_radix(hex, 16).ok()
}

fn encode_segment_header(start_seq: u64) -> Vec<u8> {
    let mut payload = Encoder::with_capacity(8);
    payload.put_u64(start_seq);
    codec::encode_frame(WAL_MAGIC, WAL_VERSION, payload.bytes())
}

/// Whether a decode failure is the signature of a torn (prefix-cut) write.
/// In the append-only crash model a tear can only shorten the file, so the
/// scanner runs out of bytes (`Truncated`); a checksum mismatch over bytes
/// that are all present means bit rot — unrecoverable data damage.
fn is_tear(err: &CodecError) -> bool {
    matches!(err, CodecError::Truncated { .. })
}

/// Fully parsed view of one segment.
struct SegmentScan {
    /// Number of valid records.
    records: u64,
    /// Byte offset just past the last valid record.
    valid_len: u64,
    /// Decode failure that stopped the scan, with its offset.
    tail_error: Option<(u64, CodecError)>,
    /// Whether the header frame itself was unreadable.
    header_damaged: bool,
}

fn scan_segment(bytes: &[u8], expect_start_seq: u64) -> SegmentScan {
    let header = match scan_frame(WAL_MAGIC, WAL_VERSION, bytes) {
        Ok((_, payload, consumed)) => {
            let mut d = Decoder::new(payload);
            match d.take_u64() {
                Ok(seq) if seq == expect_start_seq => Some(consumed),
                Ok(seq) => {
                    let err = CodecError::Malformed(format!(
                        "segment header start_seq {seq} != expected {expect_start_seq}"
                    ));
                    return SegmentScan {
                        records: 0,
                        valid_len: 0,
                        tail_error: Some((0, err)),
                        header_damaged: true,
                    };
                }
                Err(e) => {
                    return SegmentScan {
                        records: 0,
                        valid_len: 0,
                        tail_error: Some((0, e)),
                        header_damaged: true,
                    }
                }
            }
        }
        Err(e) => {
            return SegmentScan {
                records: 0,
                valid_len: 0,
                tail_error: Some((0, e)),
                header_damaged: true,
            }
        }
    };
    let mut pos = header.unwrap();
    let mut records = 0u64;
    let mut tail_error = None;
    while pos < bytes.len() {
        match scan_record(&bytes[pos..]) {
            Ok((_, consumed)) => {
                records += 1;
                pos += consumed;
            }
            Err(e) => {
                tail_error = Some((pos as u64, e));
                break;
            }
        }
    }
    SegmentScan {
        records,
        valid_len: pos as u64,
        tail_error,
        header_damaged: false,
    }
}

/// Handle on an open write-ahead log. All storage access goes through the
/// `&mut impl Store` passed to each call, so one store can serve the WAL,
/// checkpoints, and crash injection without interior mutability.
#[derive(Debug)]
pub struct Wal {
    cfg: WalConfig,
    /// Sequence number of the next record to append.
    next_seq: u64,
    /// Active segment: `(name, current byte length)`; `None` until the
    /// first append (a fresh log creates no files).
    active: Option<(String, u64)>,
    /// Records appended since the last sync.
    appended_since_sync: u64,
    /// The record being framed, reused from append to append.
    record: Encoder,
}

impl Wal {
    /// Open the log in `store`, repairing any crash damage at the tail
    /// (see the module docs for the recovery rules).
    pub fn open<S: Store>(store: &mut S, cfg: WalConfig) -> Result<(Wal, WalOpenReport), WalError> {
        let mut segments: Vec<(u64, String)> = store
            .list()?
            .into_iter()
            .filter_map(|name| parse_segment_name(&name).map(|seq| (seq, name)))
            .collect();
        segments.sort();

        let mut report = WalOpenReport::default();
        let mut next_seq = 0u64;
        let mut active: Option<(String, u64)> = None;

        for (i, (start_seq, name)) in segments.iter().enumerate() {
            let last = i + 1 == segments.len();
            if i == 0 {
                // Records below the first surviving segment were pruned as
                // checkpoint-covered; the log legitimately starts mid-sequence.
                next_seq = *start_seq;
            }
            let bytes = store.read(name)?;
            let scan = scan_segment(&bytes, *start_seq);
            if scan.header_damaged {
                let (offset, source) = scan.tail_error.expect("damaged header carries its error");
                if last && *start_seq == next_seq && is_tear(&source) {
                    // Crash during rotation: the successor's header never
                    // became durable. No records lost — drop the shell.
                    report.truncated_bytes += bytes.len() as u64;
                    report.removed_segments += 1;
                    store.remove(name)?;
                    continue;
                }
                return Err(WalError::Corrupt {
                    segment: name.clone(),
                    offset,
                    source,
                });
            }
            if *start_seq != next_seq {
                return Err(WalError::Corrupt {
                    segment: name.clone(),
                    offset: 0,
                    source: CodecError::Malformed(format!(
                        "segment starts at seq {start_seq}, expected {next_seq}"
                    )),
                });
            }
            if let Some((offset, source)) = scan.tail_error {
                if !last || !is_tear(&source) {
                    // Damage in the interior of the log, or over bytes that
                    // are all present (bit rot): data loss, not a torn tail.
                    return Err(WalError::Corrupt {
                        segment: name.clone(),
                        offset,
                        source,
                    });
                }
                report.truncated_bytes += bytes.len() as u64 - scan.valid_len;
                store.truncate(name, scan.valid_len)?;
            }
            next_seq = start_seq + scan.records;
            report.segments += 1;
            active = Some((name.clone(), scan.valid_len));
        }

        report.next_seq = next_seq;
        let wal = Wal {
            cfg,
            next_seq,
            active,
            appended_since_sync: 0,
            record: Encoder::new(),
        };
        Ok((wal, report))
    }

    /// Sequence number the next appended record will receive.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Append one record, returning its sequence number. The record is
    /// durable once [`Wal::sync`] (or batched auto-sync) has run.
    pub fn append<S: Store>(&mut self, store: &mut S, payload: &[u8]) -> Result<u64, WalError> {
        self.append_with(store, |e| e.put_bytes(payload))
    }

    /// [`Wal::append`] of the payload `write` encodes: header and payload
    /// are framed in the log's own buffer, so an append allocates nothing.
    pub fn append_with<S: Store>(
        &mut self,
        store: &mut S,
        write: impl FnOnce(&mut Encoder),
    ) -> Result<u64, WalError> {
        let rotate = match &self.active {
            Some((_, len)) => *len >= self.cfg.segment_max_bytes,
            None => true,
        };
        if rotate {
            if let Some((old, _)) = self.active.take() {
                store.sync(&old)?;
                self.appended_since_sync = 0;
            }
            let name = segment_name(self.next_seq);
            let header = encode_segment_header(self.next_seq);
            store.append(&name, &header)?;
            self.active = Some((name, header.len() as u64));
        }
        let (name, len) = self
            .active
            .as_mut()
            .expect("active segment exists after rotation");
        self.record.clear();
        self.record.put_record(write);
        store.append(name, self.record.bytes())?;
        *len += self.record.len() as u64;
        let seq = self.next_seq;
        self.next_seq += 1;
        self.appended_since_sync += 1;
        if self.cfg.sync_every > 0 && self.appended_since_sync >= self.cfg.sync_every {
            self.sync(store)?;
        }
        Ok(seq)
    }

    /// Fsync the active segment, making every appended record durable.
    pub fn sync<S: Store>(&mut self, store: &mut S) -> Result<(), WalError> {
        if let Some((name, _)) = &self.active {
            store.sync(name)?;
        }
        self.appended_since_sync = 0;
        Ok(())
    }

    /// Read back all records with sequence number `>= from_seq`, in order.
    /// Intended for recovery replay after [`Wal::open`] has repaired the
    /// tail; mid-log damage still surfaces as [`WalError::Corrupt`].
    pub fn replay<S: Store>(store: &S, from_seq: u64) -> Result<Vec<(u64, Vec<u8>)>, WalError> {
        let mut segments: Vec<(u64, String)> = store
            .list()?
            .into_iter()
            .filter_map(|name| parse_segment_name(&name).map(|seq| (seq, name)))
            .collect();
        segments.sort();

        let mut out = Vec::new();
        for (i, (start_seq, name)) in segments.iter().enumerate() {
            let last = i + 1 == segments.len();
            // Skip whole segments below the resume point.
            if let Some((next_start, _)) = segments.get(i + 1) {
                if *next_start <= from_seq {
                    continue;
                }
            }
            let bytes = store.read(name)?;
            let consumed = match scan_frame(WAL_MAGIC, WAL_VERSION, &bytes) {
                Ok((_, _, consumed)) => consumed,
                Err(source) if last && is_tear(&source) => {
                    // Torn successor segment not yet repaired by open().
                    continue;
                }
                Err(source) => {
                    return Err(WalError::Corrupt {
                        segment: name.clone(),
                        offset: 0,
                        source,
                    })
                }
            };
            let mut pos = consumed;
            let mut seq = *start_seq;
            while pos < bytes.len() {
                match scan_record(&bytes[pos..]) {
                    Ok((payload, used)) => {
                        if seq >= from_seq {
                            out.push((seq, payload.to_vec()));
                        }
                        seq += 1;
                        pos += used;
                    }
                    Err(source) => {
                        if last && is_tear(&source) {
                            break; // unrepaired torn tail: stop at the tear
                        }
                        return Err(WalError::Corrupt {
                            segment: name.clone(),
                            offset: pos as u64,
                            source,
                        });
                    }
                }
            }
        }
        Ok(out)
    }

    /// Remove segments every record of which has sequence number `< seq`
    /// (they are covered by a checkpoint and will never be replayed). The
    /// active segment is never removed.
    pub fn prune_below<S: Store>(&mut self, store: &mut S, seq: u64) -> Result<u64, WalError> {
        let mut segments: Vec<(u64, String)> = store
            .list()?
            .into_iter()
            .filter_map(|name| parse_segment_name(&name).map(|s| (s, name)))
            .collect();
        segments.sort();
        let mut removed = 0u64;
        for i in 0..segments.len() {
            let Some((next_start, _)) = segments.get(i + 1) else {
                break; // never the last (active) segment
            };
            if *next_start <= seq {
                let name = &segments[i].1;
                if self.active.as_ref().is_some_and(|(a, _)| a == name) {
                    break;
                }
                store.remove(name)?;
                removed += 1;
            } else {
                break;
            }
        }
        Ok(removed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::RECORD_HEADER_BYTES;
    use crate::store::MemStore;

    fn tiny_cfg() -> WalConfig {
        WalConfig {
            segment_max_bytes: 64,
            sync_every: 0,
        }
    }

    #[test]
    fn append_reopen_replay_round_trip() {
        let mut store = MemStore::new();
        let (mut wal, report) = Wal::open(&mut store, tiny_cfg()).unwrap();
        assert_eq!(report, WalOpenReport::default());
        for i in 0..20u8 {
            let seq = wal
                .append(&mut store, &vec![i; (i as usize % 7) + 1])
                .unwrap();
            assert_eq!(seq, i as u64);
        }
        wal.sync(&mut store).unwrap();

        let (wal2, report) = Wal::open(&mut store, tiny_cfg()).unwrap();
        assert_eq!(wal2.next_seq(), 20);
        assert_eq!(report.truncated_bytes, 0);
        assert!(report.segments > 1, "tiny segments must have rotated");
        let records = Wal::replay(&store, 0).unwrap();
        assert_eq!(records.len(), 20);
        for (i, (seq, payload)) in records.iter().enumerate() {
            assert_eq!(*seq, i as u64);
            assert_eq!(*payload, vec![i as u8; (i % 7) + 1]);
        }
        assert_eq!(Wal::replay(&store, 17).unwrap().len(), 3);
    }

    #[test]
    fn corrupt_tail_is_truncated_preserving_prefix() {
        let mut store = MemStore::new();
        let (mut wal, _) = Wal::open(
            &mut store,
            WalConfig {
                segment_max_bytes: 1 << 20,
                sync_every: 0,
            },
        )
        .unwrap();
        for i in 0..10u8 {
            wal.append(&mut store, &[i; 5]).unwrap();
        }
        wal.sync(&mut store).unwrap();
        let name = store.list().unwrap()[0].clone();
        let full = store.len(&name).unwrap();

        for cut in 0..RECORD_HEADER_BYTES as u64 + 5 {
            let mut s = store.clone();
            s.truncate(&name, full - cut).unwrap();
            let (wal, report) = Wal::open(&mut s, tiny_cfg()).unwrap();
            if cut == 0 {
                assert_eq!(wal.next_seq(), 10);
                assert_eq!(report.truncated_bytes, 0);
            } else {
                assert_eq!(wal.next_seq(), 9, "cut {cut} tears exactly the last record");
                assert!(report.truncated_bytes > 0);
            }
            let records = Wal::replay(&s, 0).unwrap();
            assert_eq!(records.len(), wal.next_seq() as usize);
            for (i, (seq, payload)) in records.iter().enumerate() {
                assert_eq!(*seq, i as u64);
                assert_eq!(*payload, vec![i as u8; 5], "prefix preserved at cut {cut}");
            }
        }
    }

    #[test]
    fn append_resumes_in_truncated_segment() {
        let mut store = MemStore::new();
        let cfg = WalConfig {
            segment_max_bytes: 1 << 20,
            sync_every: 0,
        };
        let (mut wal, _) = Wal::open(&mut store, cfg).unwrap();
        for i in 0..5u8 {
            wal.append(&mut store, &[i]).unwrap();
        }
        wal.sync(&mut store).unwrap();
        let name = store.list().unwrap()[0].clone();
        store
            .truncate(&name, store.len(&name).unwrap() - 3)
            .unwrap();

        let (mut wal, report) = Wal::open(&mut store, cfg).unwrap();
        assert_eq!(report.truncated_bytes, 6, "partial record dropped");
        assert_eq!(wal.next_seq(), 4);
        wal.append(&mut store, b"resumed").unwrap();
        wal.sync(&mut store).unwrap();
        let records = Wal::replay(&store, 0).unwrap();
        assert_eq!(records.len(), 5);
        assert_eq!(records[4], (4, b"resumed".to_vec()));
    }

    #[test]
    fn torn_rotation_header_removes_empty_successor() {
        let mut store = MemStore::new();
        let cfg = WalConfig {
            segment_max_bytes: 32,
            sync_every: 0,
        };
        let (mut wal, _) = Wal::open(&mut store, cfg).unwrap();
        for i in 0..6u8 {
            wal.append(&mut store, &[i; 8]).unwrap();
        }
        wal.sync(&mut store).unwrap();
        let segments = store.list().unwrap();
        assert!(segments.len() >= 2);
        let last = segments.last().unwrap().clone();
        // Tear the last segment inside its header frame.
        store.truncate(&last, 3).unwrap();

        let (wal, report) = Wal::open(&mut store, cfg).unwrap();
        assert_eq!(report.removed_segments, 1);
        assert!(!store.exists(&last).unwrap());
        let records = Wal::replay(&store, 0).unwrap();
        assert_eq!(records.len() as u64, wal.next_seq());
        for (i, (seq, _)) in records.iter().enumerate() {
            assert_eq!(*seq, i as u64);
        }
    }

    #[test]
    fn interior_corruption_is_an_error_not_a_truncation() {
        let mut store = MemStore::new();
        let (mut wal, _) = Wal::open(
            &mut store,
            WalConfig {
                segment_max_bytes: 1 << 20,
                sync_every: 0,
            },
        )
        .unwrap();
        for i in 0..10u8 {
            wal.append(&mut store, &[i; 5]).unwrap();
        }
        wal.sync(&mut store).unwrap();
        let name = store.list().unwrap()[0].clone();
        let mut bytes = store.read(&name).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        let len = bytes.len() as u64;
        store.truncate(&name, 0).unwrap();
        store.append(&name, &bytes).unwrap();
        assert_eq!(store.len(&name).unwrap(), len);

        match Wal::open(&mut store, tiny_cfg()) {
            Err(WalError::Corrupt { .. }) => {}
            other => panic!("interior bit-flip must fail open, got {other:?}"),
        }
    }

    #[test]
    fn sync_every_batches_fsyncs() {
        let mut store = MemStore::new();
        let cfg = WalConfig {
            segment_max_bytes: 1 << 20,
            sync_every: 4,
        };
        let (mut wal, _) = Wal::open(&mut store, cfg).unwrap();
        for i in 0..9u8 {
            wal.append(&mut store, &[i]).unwrap();
        }
        assert_eq!(
            wal.appended_since_sync, 1,
            "8 of 9 records auto-synced in two batches"
        );
    }

    #[test]
    fn prune_below_drops_fully_covered_segments() {
        let mut store = MemStore::new();
        let cfg = WalConfig {
            segment_max_bytes: 32,
            sync_every: 0,
        };
        let (mut wal, _) = Wal::open(&mut store, cfg).unwrap();
        for i in 0..12u8 {
            wal.append(&mut store, &[i; 8]).unwrap();
        }
        wal.sync(&mut store).unwrap();
        let before = store.list().unwrap().len();
        assert!(before >= 3);

        let removed = wal.prune_below(&mut store, 0).unwrap();
        assert_eq!(removed, 0);
        let removed = wal.prune_below(&mut store, wal.next_seq()).unwrap();
        assert!(removed > 0);
        assert!(!store.list().unwrap().is_empty(), "active segment survives");
        // Everything still replayable from the first surviving seq.
        let records = Wal::replay(&store, 0).unwrap();
        let first = records.first().unwrap().0;
        assert_eq!(records.last().unwrap().0, 11);
        assert!(first > 0);
    }

    #[test]
    fn pruned_log_reopens_mid_sequence() {
        let mut store = MemStore::new();
        let cfg = WalConfig {
            segment_max_bytes: 32,
            sync_every: 0,
        };
        let (mut wal, _) = Wal::open(&mut store, cfg).unwrap();
        for i in 0..12u8 {
            wal.append(&mut store, &[i; 8]).unwrap();
        }
        wal.sync(&mut store).unwrap();
        assert!(wal.prune_below(&mut store, wal.next_seq()).unwrap() > 0);

        // Reopening a head-pruned log must pick up the surviving start, not
        // demand seq 0 (the crash-sweep recovery path after a checkpoint).
        let (mut wal2, report) = Wal::open(&mut store, cfg).unwrap();
        assert_eq!(wal2.next_seq(), 12);
        assert_eq!(report.next_seq, 12);
        assert_eq!(report.truncated_bytes, 0);
        let seq = wal2.append(&mut store, b"after").unwrap();
        assert_eq!(seq, 12);
        wal2.sync(&mut store).unwrap();
        let records = Wal::replay(&store, 12).unwrap();
        assert_eq!(records, vec![(12, b"after".to_vec())]);
    }
}
