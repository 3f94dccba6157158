//! Versioned model registry: atomically-published model files.
//!
//! Each accepted model (the retrain supervisor's validated candidate) is one
//! frame (`magic "DMRG"`, version, CRC32) whose payload is the model's own
//! wire format — the registry treats it as opaque bytes. Files are
//! `model-{version:016x}.mdl`, published and loaded by the same
//! [generations](crate::generations) protocol as checkpoints, so a torn or
//! bit-rotted model is skipped (and counted), never fatal — recovery falls
//! back to the previous generation instead of refusing to start.

use std::io;

use crate::codec;
use crate::generations::Generations;
use crate::store::Store;

/// Magic tag of model registry frames.
pub const MODEL_MAGIC: [u8; 4] = *b"DMRG";
/// Current model container version.
pub const MODEL_VERSION: u16 = 1;

const MODELS: Generations = Generations {
    prefix: "model",
    ext: "mdl",
    magic: MODEL_MAGIC,
    version: MODEL_VERSION,
};

/// Write and atomically publish model `version`. Returns the number of
/// bytes written (frame included). Re-publishing an existing version
/// overwrites it (publication is idempotent so crash-recovery can safely
/// re-drain a pending model it already published).
pub fn publish_model<S: Store>(store: &mut S, version: u64, payload: &[u8]) -> io::Result<u64> {
    let frame = codec::encode_frame(MODEL_MAGIC, MODEL_VERSION, payload);
    MODELS.publish(store, version, &frame)?;
    Ok(frame.len() as u64)
}

/// Result of scanning the store for the newest usable model.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ModelScan {
    /// `(version, payload)` of the newest model that decoded cleanly.
    pub latest: Option<(u64, Vec<u8>)>,
    /// Newer published models that were skipped as unreadable.
    pub skipped: u64,
}

/// Find the newest model whose frame validates. Unreadable newer files are
/// skipped and counted; only store I/O errors are fatal.
pub fn load_latest_model<S: Store>(store: &S) -> io::Result<ModelScan> {
    let (latest, skipped) = MODELS.load_latest(store)?;
    let latest = latest.map(|(version, _, payload)| (version, payload));
    Ok(ModelScan { latest, skipped })
}

/// Published model versions, ascending. Torn files are included (they are
/// published names); use [`load_latest_model`] to find a *usable* one.
pub fn list_models<S: Store>(store: &S) -> io::Result<Vec<u64>> {
    Ok(MODELS.list(store)?.into_iter().map(|(v, _)| v).collect())
}

/// Delete all but the [`KEEP_GENERATIONS`](crate::KEEP_GENERATIONS) newest
/// published models (and any stale `.tmp` leftovers). Returns the oldest
/// kept version, if any.
pub fn prune_models<S: Store>(store: &mut S) -> io::Result<Option<u64>> {
    Ok(MODELS.prune(store)?.first().copied())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemStore;
    use crate::torn::FailingStore;

    fn model_name(version: u64) -> String {
        MODELS.name(version)
    }

    #[test]
    fn publish_and_load_newest_valid() {
        let mut store = MemStore::new();
        assert_eq!(load_latest_model(&store).unwrap(), ModelScan::default());
        publish_model(&mut store, 1, b"weights@1").unwrap();
        publish_model(&mut store, 2, b"weights@2").unwrap();
        let scan = load_latest_model(&store).unwrap();
        assert_eq!(scan.latest, Some((2, b"weights@2".to_vec())));
        assert_eq!(scan.skipped, 0);
        assert_eq!(list_models(&store).unwrap(), vec![1, 2]);
    }

    #[test]
    fn republish_is_idempotent() {
        let mut store = MemStore::new();
        publish_model(&mut store, 3, b"first").unwrap();
        publish_model(&mut store, 3, b"again").unwrap();
        let scan = load_latest_model(&store).unwrap();
        assert_eq!(scan.latest, Some((3, b"again".to_vec())));
    }

    #[test]
    fn corrupt_newest_falls_back_to_older() {
        let mut store = MemStore::new();
        publish_model(&mut store, 4, b"good").unwrap();
        publish_model(&mut store, 9, b"soon-corrupt").unwrap();
        let name = model_name(9);
        let len = store.len(&name).unwrap();
        store.truncate(&name, len - 2).unwrap();
        let scan = load_latest_model(&store).unwrap();
        assert_eq!(scan.latest, Some((4, b"good".to_vec())));
        assert_eq!(scan.skipped, 1);
    }

    #[test]
    fn prune_keeps_newest_and_clears_tmp() {
        let mut store = MemStore::new();
        for v in [1u64, 2, 3, 4] {
            publish_model(&mut store, v, b"w").unwrap();
        }
        store.append(&MODELS.tmp_name(5), b"half").unwrap();
        let oldest_kept = prune_models(&mut store).unwrap();
        assert_eq!(oldest_kept, Some(3));
        assert_eq!(store.list().unwrap(), vec![model_name(3), model_name(4)]);
    }

    #[test]
    fn crash_during_publish_never_corrupts_the_registry() {
        // Measure the tick budget of one publication, then crash at every
        // tick: the older model must always survive intact.
        let mut probe = FailingStore::new(MemStore::new(), crate::Schedule::never());
        publish_model(&mut probe, 1, b"old-weights").unwrap();
        let after_first = probe.ticks();
        publish_model(&mut probe, 2, b"new-weights").unwrap();
        let total = probe.ticks();

        for crash in after_first..total {
            let mut store = FailingStore::new(MemStore::new(), crate::Schedule::never());
            publish_model(&mut store, 1, b"old-weights").unwrap();
            let mut store = FailingStore::crash_at(store.into_durable(), crash - after_first);
            let _ = publish_model(&mut store, 2, b"new-weights");
            let durable = store.into_durable();
            let scan = load_latest_model(&durable).unwrap();
            let (version, payload) = scan.latest.expect("a model always survives");
            match version {
                1 => assert_eq!(payload, b"old-weights"),
                2 => assert_eq!(payload, b"new-weights"),
                other => panic!("unexpected model version {other}"),
            }
        }
    }
}
