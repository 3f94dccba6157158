//! WAL durability properties, driven by proptest: whatever mix of payload
//! sizes, sync cadence, and segment rotation a run uses, a reopened log
//! replays exactly what was appended; and however many bytes a crash cuts
//! off the tail, recovery truncates to a clean record boundary and preserves
//! the surviving prefix untouched. The bytes on disk are pinned too: framing
//! a record in the log's own buffer writes what building it apart did.

use dlacep_dur::{crc32, encode_frame, MemStore, Store, Wal, WalConfig, WalError};
use proptest::prelude::*;

/// Append `payloads` under `cfg` and make everything durable.
fn write_all(store: &mut MemStore, cfg: WalConfig, payloads: &[Vec<u8>]) {
    let (mut wal, report) = Wal::open(store, cfg).unwrap();
    assert_eq!(report.next_seq, 0, "fresh store starts at seq 0");
    for p in payloads {
        wal.append(store, p).unwrap();
    }
    wal.sync(store).unwrap();
}

/// Name of the last (highest start-seq) segment in `store`.
fn last_segment(store: &MemStore) -> String {
    store
        .list()
        .unwrap()
        .into_iter()
        .filter(|n| n.starts_with("wal-") && n.ends_with(".seg"))
        .max()
        .expect("log has at least one segment")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // On-disk layout, spelled out independently of the encoder: a segment is
    // its header frame (`DWAL`, version 1, start seq) followed by one
    // `crc32(len | payload) | len | payload` per record, whether the payload
    // came in as bytes or was encoded in place.
    #[test]
    fn segment_bytes_are_header_plus_crc_len_payload_records(
        payloads in prop::collection::vec(prop::collection::vec(0u8..255, 0..40), 1..40),
        segment_max in 32u64..256,
        in_place in 0u8..2,
    ) {
        let cfg = WalConfig { segment_max_bytes: segment_max, sync_every: 0 };
        let mut store = MemStore::new();
        let (mut wal, _) = Wal::open(&mut store, cfg).unwrap();
        let mut expect: Vec<(String, Vec<u8>)> = Vec::new();
        for (seq, p) in payloads.iter().enumerate() {
            if expect.last().is_none_or(|(_, bytes)| bytes.len() as u64 >= segment_max) {
                let header = encode_frame(*b"DWAL", 1, &(seq as u64).to_le_bytes());
                expect.push((format!("wal-{seq:016x}.seg"), header));
            }
            let len = (p.len() as u32).to_le_bytes();
            let body = [len.as_slice(), p.as_slice()].concat();
            let segment = &mut expect.last_mut().unwrap().1;
            segment.extend_from_slice(&crc32(&body).to_le_bytes());
            segment.extend_from_slice(&body);
            if in_place == 1 {
                wal.append_with(&mut store, |e| e.put_bytes(p)).unwrap();
            } else {
                wal.append(&mut store, p).unwrap();
            }
        }
        prop_assert_eq!(store.list().unwrap().len(), expect.len());
        for (name, bytes) in &expect {
            prop_assert_eq!(&store.read(name).unwrap(), bytes, "{}", name);
        }
    }

    // Round-trip: any payload mix × any sync cadence × any (small) segment
    // size appends, rotates, reopens, and replays to exactly the input —
    // with the right sequence numbers and no spurious tail repair.
    #[test]
    fn append_rotate_reopen_round_trip(
        payloads in prop::collection::vec(prop::collection::vec(0u8..255, 0..40), 1..40),
        sync_every in 0u64..8,
        segment_max in 32u64..256,
    ) {
        let cfg = WalConfig { segment_max_bytes: segment_max, sync_every };
        let mut store = MemStore::new();
        write_all(&mut store, cfg, &payloads);

        let (wal, report) = Wal::open(&mut store, cfg).unwrap();
        prop_assert_eq!(report.next_seq, payloads.len() as u64);
        prop_assert_eq!(report.truncated_bytes, 0, "clean shutdown needs no repair");
        prop_assert_eq!(report.removed_segments, 0);
        prop_assert_eq!(wal.next_seq(), payloads.len() as u64);

        let replayed = Wal::replay(&store, 0).unwrap();
        prop_assert_eq!(replayed.len(), payloads.len());
        for (i, ((seq, payload), expect)) in replayed.iter().zip(&payloads).enumerate() {
            prop_assert_eq!(*seq, i as u64);
            prop_assert_eq!(payload, expect);
        }

        // Suffix replay from any midpoint agrees with the full replay.
        let mid = payloads.len() as u64 / 2;
        let suffix = Wal::replay(&store, mid).unwrap();
        prop_assert_eq!(suffix.len(), payloads.len() - mid as usize);
        prop_assert!(suffix.iter().all(|(s, p)| p == &payloads[*s as usize]));
    }

    // Torn tail: cutting any number of bytes off the end of the last
    // segment loses at most the records the tear touched — reopen truncates
    // to a record boundary, keeps every record before it bit-identical, and
    // appending afterwards continues the sequence without a gap.
    #[test]
    fn corrupt_tail_truncation_preserves_prefix(
        payloads in prop::collection::vec(prop::collection::vec(0u8..255, 0..24), 1..24),
        sync_every in 0u64..4,
        segment_max in 32u64..128,
        cut_frac in 0.0f64..1.0,
    ) {
        let cfg = WalConfig { segment_max_bytes: segment_max, sync_every };
        let mut store = MemStore::new();
        write_all(&mut store, cfg, &payloads);

        // Tear: drop 1..=len bytes from the last segment's end.
        let victim = last_segment(&store);
        let len = store.len(&victim).unwrap();
        let cut = 1 + ((len - 1) as f64 * cut_frac) as u64;
        store.truncate(&victim, len - cut).unwrap();

        let (mut wal, report) = Wal::open(&mut store, cfg).unwrap();
        let survived = report.next_seq as usize;
        prop_assert!(survived <= payloads.len());
        prop_assert!(
            report.truncated_bytes + report.removed_segments > 0 || survived == payloads.len(),
            "records lost without any repair reported"
        );

        let replayed = Wal::replay(&store, 0).unwrap();
        prop_assert_eq!(replayed.len(), survived);
        for (i, (seq, payload)) in replayed.iter().enumerate() {
            prop_assert_eq!(*seq, i as u64);
            prop_assert_eq!(payload, &payloads[i], "surviving prefix must be untouched");
        }

        // The repaired log accepts new appends at the right sequence.
        let seq = wal.append(&mut store, b"resumed").unwrap();
        prop_assert_eq!(seq, survived as u64);
        wal.sync(&mut store).unwrap();
        let after = Wal::replay(&store, 0).unwrap();
        prop_assert_eq!(after.len(), survived + 1);
        prop_assert_eq!(&after[survived].1, &b"resumed".to_vec());
    }

    // Bit rot: flipping one bit in the *payload or checksum* of an interior
    // record is data damage, not a tear — open must refuse with `Corrupt`,
    // never silently truncate the valid records after the flip. (A flip in
    // a record's length field is deliberately excluded: an enlarged length
    // makes the scanner run out of bytes, which is indistinguishable from a
    // genuine torn tail — the documented coverage limit of CRC-framed
    // length-prefixed logs.)
    #[test]
    fn interior_bit_flip_is_corrupt_not_tear(
        payloads in prop::collection::vec(prop::collection::vec(0u8..255, 4..16), 2..12),
        record_frac in 0.0f64..1.0,
        byte_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        // One big segment so the flip is guaranteed interior to the log.
        let cfg = WalConfig { segment_max_bytes: u64::MAX, sync_every: 0 };
        let mut store = MemStore::new();
        write_all(&mut store, cfg, &payloads);

        let victim = last_segment(&store);
        let bytes = store.read(&victim).unwrap();

        // Pick a record before the last, then a byte in its CRC (0..4) or
        // payload (8..) — never the length field (4..8).
        let segment_header = bytes.len()
            - payloads.iter().map(|p| 8 + p.len()).sum::<usize>();
        let r = ((payloads.len() - 2) as f64 * record_frac) as usize;
        let offset = segment_header
            + payloads[..r].iter().map(|p| 8 + p.len()).sum::<usize>();
        let flippable: Vec<usize> = (0..4)
            .chain(8..8 + payloads[r].len())
            .map(|i| offset + i)
            .collect();
        let pos = flippable[((flippable.len() - 1) as f64 * byte_frac) as usize];
        let mut damaged = bytes.clone();
        damaged[pos] ^= 1 << bit;
        store.truncate(&victim, 0).unwrap();
        store.append(&victim, &damaged).unwrap();

        match Wal::open(&mut store, cfg) {
            Err(WalError::Corrupt { .. }) => {}
            Ok((_, report)) => prop_assert!(
                false,
                "interior flip at byte {pos} bit {bit} accepted, report {report:?}"
            ),
            Err(e) => prop_assert!(false, "unexpected error class: {e}"),
        }
    }
}
