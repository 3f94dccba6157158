//! Model-registry durability properties, driven by proptest: any mix of
//! published versions round-trips through the newest-valid-first scan; a
//! torn tail on the newest model falls back to the previous generation with
//! the skip counted; and a single flipped bit anywhere in a published frame
//! is detected — the damaged file is skipped, never served as weights.

use dlacep_dur::{
    list_models, load_latest_model, prune_models, publish_model, MemStore, Store, KEEP_GENERATIONS,
};
use proptest::prelude::*;

/// Publish `(version, payload)` pairs in order; later publishes of the same
/// version overwrite (publication is idempotent).
fn publish_all(store: &mut MemStore, models: &[(u64, Vec<u8>)]) {
    for (version, payload) in models {
        publish_model(store, *version, payload).unwrap();
    }
}

/// The payload the scan must return: the last publish of the highest version.
fn expected_latest(models: &[(u64, Vec<u8>)]) -> (u64, Vec<u8>) {
    let top = models.iter().map(|(v, _)| *v).max().unwrap();
    let payload = models
        .iter()
        .rev()
        .find(|(v, _)| *v == top)
        .map(|(_, p)| p.clone())
        .unwrap();
    (top, payload)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Round-trip: any publish sequence (duplicate versions included) scans
    // back to the newest version's last payload, with every distinct
    // version listed and nothing skipped. (The vendored proptest has no
    // tuple strategies, so each payload's first byte doubles as its
    // version.)
    #[test]
    fn publish_scan_round_trip(
        payloads in prop::collection::vec(prop::collection::vec(0u8..255, 1..48), 1..16),
    ) {
        let models: Vec<(u64, Vec<u8>)> = payloads
            .into_iter()
            .map(|p| (u64::from(p[0] % 20), p))
            .collect();
        let mut store = MemStore::new();
        publish_all(&mut store, &models);

        let scan = load_latest_model(&store).unwrap();
        prop_assert_eq!(scan.skipped, 0, "clean registry skips nothing");
        let (top, payload) = expected_latest(&models);
        prop_assert_eq!(scan.latest, Some((top, payload.clone())));

        let mut distinct: Vec<u64> = models.iter().map(|(v, _)| *v).collect();
        distinct.sort_unstable();
        distinct.dedup();
        prop_assert_eq!(list_models(&store).unwrap(), distinct.clone());

        // Pruning keeps the newest `KEEP_GENERATIONS` versions and never
        // changes which model the scan serves.
        prune_models(&mut store).unwrap();
        let kept = list_models(&store).unwrap();
        prop_assert_eq!(kept.len(), distinct.len().min(KEEP_GENERATIONS));
        prop_assert_eq!(load_latest_model(&store).unwrap().latest, Some((top, payload)));
    }

    // Torn tail: cutting any number of bytes off the newest published model
    // makes the scan fall back to the next older generation, bit-identical,
    // with exactly one skip counted. The registry never serves a torn frame.
    #[test]
    fn torn_newest_falls_back_to_previous_generation(
        older in prop::collection::vec(0u8..255, 1..48),
        newer in prop::collection::vec(0u8..255, 1..48),
        cut_frac in 0.0f64..1.0,
    ) {
        let mut store = MemStore::new();
        publish_model(&mut store, 7, &older).unwrap();
        publish_model(&mut store, 11, &newer).unwrap();

        let name = "model-000000000000000b.mdl";
        let len = store.len(name).unwrap();
        let cut = 1 + ((len - 1) as f64 * cut_frac) as u64;
        store.truncate(name, len - cut).unwrap();

        let scan = load_latest_model(&store).unwrap();
        prop_assert_eq!(scan.skipped, 1, "the torn model must be counted");
        prop_assert_eq!(scan.latest, Some((7, older)));
    }

    // Bit rot: one flipped bit anywhere in the newest frame — magic,
    // container version, checksum, length, or payload — is caught by frame
    // validation and the file is skipped, falling back to the older model.
    #[test]
    fn interior_bit_flip_is_skipped_not_served(
        older in prop::collection::vec(0u8..255, 1..32),
        newer in prop::collection::vec(0u8..255, 1..32),
        byte_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let mut store = MemStore::new();
        publish_model(&mut store, 3, &older).unwrap();
        publish_model(&mut store, 5, &newer).unwrap();

        let name = "model-0000000000000005.mdl";
        let bytes = store.read(name).unwrap();
        let pos = ((bytes.len() - 1) as f64 * byte_frac) as usize;
        let mut damaged = bytes;
        damaged[pos] ^= 1 << bit;
        store.truncate(name, 0).unwrap();
        store.append(name, &damaged).unwrap();

        let scan = load_latest_model(&store).unwrap();
        prop_assert_eq!(
            scan.skipped, 1,
            "flip at byte {} bit {} must invalidate the frame", pos, bit
        );
        prop_assert_eq!(scan.latest, Some((3, older)));
    }
}
