//! Emit-log properties, driven by proptest: whatever the records, a log
//! opened at a checkpoint's offset hands back exactly the records below it
//! and loses everything above — whole, torn at any byte, or absent — so that
//! appending the tail again reproduces the uninterrupted log byte for byte;
//! and no single bit below the offset can change without `Corrupt`.

use dlacep_dur::{EmitError, EmitLog, MemStore, Store, EMIT_LOG_NAME};
use proptest::prelude::*;

fn append_all(log: &mut EmitLog, store: &mut MemStore, records: &[Vec<u8>]) {
    for r in records {
        log.stage(|e| e.put_bytes(r));
    }
    log.append(store).unwrap();
    log.sync(store).unwrap();
}

fn open_at(store: &mut MemStore, offset: u64) -> (EmitLog, Vec<Vec<u8>>) {
    let mut records = Vec::new();
    let (log, _) = EmitLog::open_at(store, offset, |p| {
        records.push(p.to_vec());
        Ok(())
    })
    .unwrap();
    (log, records)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn emit_log_cut_at_a_checkpoint_offset_then_refilled_is_the_uninterrupted_log(
        covered in prop::collection::vec(prop::collection::vec(0u8..255, 0..40), 0..12),
        tail in prop::collection::vec(prop::collection::vec(0u8..255, 0..40), 1..12),
        cut_frac in 0.0f64..1.0,
    ) {
        let mut store = MemStore::new();
        let (mut log, _) = open_at(&mut store, 0);
        append_all(&mut log, &mut store, &covered);
        let offset = log.offset();
        append_all(&mut log, &mut store, &tail);
        let full = store.read(EMIT_LOG_NAME).unwrap();
        prop_assert_eq!(log.offset(), full.len() as u64);

        // A crash leaves any prefix of the tail's bytes behind.
        let keep = offset + ((full.len() as u64 - offset) as f64 * cut_frac) as u64;
        store.truncate(EMIT_LOG_NAME, keep).unwrap();
        let (mut log, records) = open_at(&mut store, offset);
        prop_assert_eq!(&records, &covered);
        prop_assert_eq!(log.offset(), offset);
        prop_assert_eq!(store.len(EMIT_LOG_NAME).unwrap(), offset);

        append_all(&mut log, &mut store, &tail);
        prop_assert_eq!(store.read(EMIT_LOG_NAME).unwrap(), full);
    }

    #[test]
    fn emit_log_bit_flip_below_the_offset_is_corrupt_never_a_silent_drop(
        records in prop::collection::vec(prop::collection::vec(0u8..255, 1..24), 1..12),
        at_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let mut store = MemStore::new();
        let (mut log, _) = open_at(&mut store, 0);
        append_all(&mut log, &mut store, &records);
        let mut bytes = store.read(EMIT_LOG_NAME).unwrap();
        let at = ((bytes.len() - 1) as f64 * at_frac) as usize;
        bytes[at] ^= 1 << bit;
        let mut damaged = MemStore::new();
        damaged.append(EMIT_LOG_NAME, &bytes).unwrap();
        let got = EmitLog::open_at(&mut damaged, bytes.len() as u64, |_| Ok(()));
        prop_assert!(matches!(got, Err(EmitError::Corrupt { .. })), "flip at {}", at);
    }
}
