//! [`StoreLog`]: one store's write-ahead log, emit log and checkpoint chain,
//! written and read back in the only orders that keep a recovered run equal
//! to a run that never crashed. `core::durable::DurableDlacep` (one
//! runtime) and every shard of `serve::ShardedDlacep` (many key runtimes)
//! keep their stores through one, supplying only what is theirs: WAL
//! records, emit records (`key | record`; the key names the runtime that
//! emitted it), the checkpoint payload around the emit offset, and what they
//! restore from it.
//!
//! **Write order** ([`StoreLog::checkpoint`]): WAL sync → emit-log append of
//! the [staged](StoreLog::stage) records → emit-log sync → checkpoint
//! publish → prune checkpoints to the newest
//! [`KEEP_GENERATIONS`](crate::KEEP_GENERATIONS) → prune the WAL below the
//! oldest one kept (only once two exist: a lone checkpoint's fallback is the
//! whole WAL). A checkpoint's sequence number
//! and emit offset are never past the durable ends of the two logs; the
//! emit log may run ahead of the checkpoint, and recovery cuts that tail.
//!
//! **Recovery order** ([`StoreLog::open`]): WAL open (torn tail cut) →
//! newest valid checkpoint, decoded by the caller, which names the emit
//! offset it covers → emit log cut at that offset, each record below it
//! CRC-checked and handed to the caller as its key and raw payload → WAL
//! suffix from the checkpoint's sequence number. Nothing is decoded into
//! values on the way: the callers verify each payload in place (folding it
//! into the key's emitted mark), keep it as the bytes that were logged, and
//! restore with the folded mark checked against the checkpoint's before
//! they replay the suffix.
//!
//! **A fresh start** ([`StoreLog::check_empty`]) refuses a store that holds
//! anything ([`NotEmpty`]) before a byte is written: a fresh emit log starts
//! at offset 0, which would cut the output the store's checkpoints point
//! into.

use std::fmt;
use std::io;

use crate::checkpoint::{
    load_latest_checkpoint, prune_checkpoints, publish_checkpoint, CKPT_MAGIC, CKPT_VERSION,
};
use crate::codec::{CodecError, Decoder, Encoder};
use crate::emit::{EmitError, EmitLog};
use crate::store::Store;
use crate::wal::{Wal, WalConfig, WalError, WalOpenReport};

/// A store refused as a fresh start because it already holds files — a
/// previous run's WAL, checkpoints or emit log. Recover it instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NotEmpty {
    /// What the store holds, sorted.
    pub names: Vec<String>,
}

impl fmt::Display for NotEmpty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names = self.names.join(", ");
        write!(f, "store is not empty (holds {names}); recover it instead")
    }
}

impl std::error::Error for NotEmpty {}

/// The error type of a tier kept by a [`StoreLog`]: every failure the log
/// meets converts into it.
pub trait LogError:
    From<io::Error> + From<WalError> + From<EmitError> + From<CodecError> + From<NotEmpty>
{
}

impl<E> LogError for E where
    E: From<io::Error> + From<WalError> + From<EmitError> + From<CodecError> + From<NotEmpty>
{
}

/// What [`StoreLog::open`] found in a store.
#[derive(Debug)]
pub struct Recovered<P> {
    /// The newest valid checkpoint: its sequence number and the payload the
    /// caller decoded. `None` is a cold start.
    pub checkpoint: Option<(u64, P)>,
    /// Newer checkpoints skipped as unreadable.
    pub checkpoints_skipped: u64,
    /// What opening the WAL repaired.
    pub wal: WalOpenReport,
    /// Emit-log bytes cut beyond the checkpoint's offset.
    pub emit_truncated_bytes: u64,
    /// WAL records from the checkpoint's sequence number on, to replay.
    pub suffix: Vec<(u64, Vec<u8>)>,
}

/// One store's WAL, emit log and checkpoint chain. See the
/// [module docs](self).
#[derive(Debug)]
pub struct StoreLog<S: Store> {
    store: S,
    wal: Wal,
    emit: EmitLog,
    /// The checkpoint frame under construction, reused across checkpoints.
    frame: Encoder,
}

impl<S: Store> StoreLog<S> {
    /// The rule for a fresh start: `store` holds nothing. A store with any
    /// file in it is refused with [`NotEmpty`] (and the caller writes
    /// nothing to it); an empty one then [`open`](Self::open)s as a cold
    /// start.
    pub fn check_empty<E: LogError>(store: &S) -> Result<(), E> {
        let names = store.list()?;
        if names.is_empty() {
            Ok(())
        } else {
            Err(NotEmpty { names }.into())
        }
    }

    /// Open whatever `store` holds, in the recovery order of the
    /// [module docs](self). `decode` turns the newest valid checkpoint's
    /// payload (and its container version) into the caller's state and the
    /// emit-log offset it covers; `logged` receives every emit record below
    /// that offset as `(key, record)`, oldest first, the record as the raw
    /// bytes [`stage`](Self::stage)d for it. An error from `logged` fails
    /// the open as [`EmitError::Corrupt`] at that record. An empty store is
    /// a cold start.
    pub fn open<P, E: LogError>(
        mut store: S,
        wal: WalConfig,
        decode: impl FnOnce(u16, &[u8]) -> Result<(u64, P), CodecError>,
        mut logged: impl FnMut(u64, &[u8]) -> Result<(), CodecError>,
    ) -> Result<(Self, Recovered<P>), E> {
        let (wal, wal_report) = Wal::open(&mut store, wal)?;
        let scan = load_latest_checkpoint(&store)?;
        let (emit_offset, checkpoint) = match scan.latest {
            Some((seq, payload)) => {
                let (offset, state) = decode(scan.version, &payload)?;
                (offset, Some((seq, state)))
            }
            None => (0, None),
        };
        let (emit, emit_truncated_bytes) = EmitLog::open_at(&mut store, emit_offset, |record| {
            let mut d = Decoder::new(record);
            let key = d.take_u64()?;
            logged(key, d.take_bytes(d.remaining())?)
        })?;
        let suffix = Wal::replay(&store, checkpoint.as_ref().map_or(0, |(seq, _)| *seq))?;
        let log = StoreLog {
            store,
            wal,
            emit,
            frame: Encoder::new(),
        };
        let found = Recovered {
            checkpoint,
            checkpoints_skipped: scan.skipped,
            wal: wal_report,
            emit_truncated_bytes,
            suffix,
        };
        Ok((log, found))
    }

    /// Log one WAL record whose payload `write` encodes; returns its
    /// sequence number. See [`Wal::append_with`].
    pub fn append(&mut self, write: impl FnOnce(&mut Encoder)) -> Result<u64, WalError> {
        self.wal.append_with(&mut self.store, write)
    }

    /// Make every logged WAL record durable.
    pub fn sync(&mut self) -> Result<(), WalError> {
        self.wal.sync(&mut self.store)
    }

    /// Sequence number the next WAL record will receive.
    pub fn next_seq(&self) -> u64 {
        self.wal.next_seq()
    }

    /// Stage the emit record `key | record`, `record` already encoded.
    /// Staged records reach the emit log with the next
    /// [`checkpoint`](Self::checkpoint), and stay staged until an append of
    /// them succeeds.
    pub fn stage(&mut self, key: u64, record: &[u8]) {
        self.emit.stage(|e| {
            e.put_u64(key);
            e.put_bytes(record);
        });
    }

    /// Checkpoint at the WAL's end, in the write order of the
    /// [module docs](self): `write` lays out the payload and is handed the
    /// emit-log offset the checkpoint covers. Returns the checkpoint's
    /// sequence number and its size in bytes.
    pub fn checkpoint<E: LogError>(
        &mut self,
        write: impl FnOnce(&mut Encoder, u64),
    ) -> Result<(u64, usize), E> {
        self.wal.sync(&mut self.store)?;
        let seq = self.wal.next_seq();
        self.emit.append(&mut self.store)?;
        self.emit.sync(&mut self.store)?;
        let emit_offset = self.emit.offset();
        self.frame.clear();
        self.frame
            .put_frame(CKPT_MAGIC, CKPT_VERSION, |e| write(e, emit_offset));
        publish_checkpoint(&mut self.store, seq, self.frame.bytes())?;
        if let Some(oldest_kept) = prune_checkpoints(&mut self.store)? {
            self.wal.prune_below(&mut self.store, oldest_kept)?;
        }
        Ok((seq, self.frame.len()))
    }

    /// The backing store.
    pub fn store(&self) -> &S {
        &self.store
    }

    /// Tear down into the backing store.
    pub fn into_store(self) -> S {
        self.store
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemStore;
    use crate::EMIT_LOG_NAME;

    /// The errors of a test tier: whatever the log meets, as text.
    #[derive(Debug)]
    struct Failed(String);

    impl<T: fmt::Display> From<T> for Failed {
        fn from(e: T) -> Self {
            Failed(e.to_string())
        }
    }

    fn cfg() -> WalConfig {
        WalConfig {
            segment_max_bytes: 64,
            sync_every: 0,
        }
    }

    /// Log `records` WAL records, stage one emit record per checkpoint, and
    /// checkpoint after every `every` records with the WAL position as
    /// payload.
    fn run(log: &mut StoreLog<MemStore>, records: u64, every: u64) {
        for i in 0..records {
            log.append(|e| e.put_u64(i)).unwrap();
            if (i + 1) % every == 0 {
                log.stage(i % 2, &i.to_le_bytes());
                log.checkpoint::<Failed>(|e, offset| {
                    e.put_u64(offset);
                    e.put_u64(i + 1);
                })
                .unwrap();
            }
        }
    }

    fn open(store: MemStore) -> (StoreLog<MemStore>, Recovered<u64>, Vec<(u64, u64)>) {
        let mut logged = Vec::new();
        let (log, found) = StoreLog::open::<u64, Failed>(
            store,
            cfg(),
            |_, payload| {
                let mut d = Decoder::new(payload);
                let (offset, seq) = (d.take_u64()?, d.take_u64()?);
                d.finish().map(|_| (offset, seq))
            },
            |key, record| {
                let mut d = Decoder::new(record);
                logged.push((key, d.take_u64()?));
                d.finish()
            },
        )
        .unwrap();
        (log, found, logged)
    }

    #[test]
    fn open_restores_the_newest_checkpoint_its_emit_prefix_and_the_suffix() {
        let (mut log, _, _) = open(MemStore::new());
        run(&mut log, 23, 5);
        let (_, found, logged) = open(log.into_store());
        assert_eq!(found.checkpoint, Some((20, 20)));
        assert_eq!(logged, vec![(0, 4), (1, 9), (0, 14), (1, 19)]);
        assert_eq!(found.emit_truncated_bytes, 0);
        let suffix: Vec<u64> = found.suffix.iter().map(|(seq, _)| *seq).collect();
        assert_eq!(suffix, vec![20, 21, 22]);
    }

    #[test]
    fn a_lone_checkpoint_keeps_the_whole_wal_and_later_ones_prune_it() {
        let (mut log, _, _) = open(MemStore::new());
        run(&mut log, 12, 12);
        let first_segment = "wal-0000000000000000.seg";
        assert!(log.store().exists(first_segment).unwrap());
        run(&mut log, 12, 6);
        let names = log.store().list().unwrap();
        assert_eq!(names.iter().filter(|n| n.ends_with(".ck")).count(), 2);
        assert!(!names.iter().any(|n| n == first_segment), "{names:?}");
    }

    #[test]
    fn an_emit_tail_past_the_checkpoint_is_cut_on_open() {
        let (mut log, _, _) = open(MemStore::new());
        run(&mut log, 10, 5);
        let mut store = log.into_store();
        // An append that no checkpoint came to cover.
        store.append(EMIT_LOG_NAME, b"uncovered").unwrap();
        let (_, found, logged) = open(store);
        assert_eq!(
            (found.emit_truncated_bytes, logged),
            (9, vec![(0, 4), (1, 9)])
        );
    }

    #[test]
    fn a_record_the_caller_refuses_fails_the_open_as_corrupt() {
        let (mut log, _, _) = open(MemStore::new());
        run(&mut log, 10, 5);
        let refused = StoreLog::open::<u64, Failed>(
            log.into_store(),
            cfg(),
            |_, payload| Decoder::new(payload).take_u64().map(|offset| (offset, 0)),
            |key, _| match key {
                1 => Err(CodecError::InvalidUtf8),
                _ => Ok(()),
            },
        );
        let Err(Failed(msg)) = refused else {
            panic!("a refused record must fail the open");
        };
        assert!(msg.starts_with("emit log corrupt at emit.log+"), "{msg}");
    }

    #[test]
    fn check_empty_refuses_a_store_that_holds_anything() {
        let mut store = MemStore::new();
        store.append("leftover", b"x").unwrap();
        let Err(Failed(msg)) = StoreLog::check_empty::<Failed>(&store) else {
            panic!("a non-empty store must be refused");
        };
        assert!(msg.contains("leftover"), "{msg}");
        assert!(StoreLog::check_empty::<Failed>(&MemStore::new()).is_ok());
    }
}
