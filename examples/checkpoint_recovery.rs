//! Crash and recover a durable streaming runtime.
//!
//! A `DurableDlacep` wraps the streaming runtime with a write-ahead event
//! log and periodic checkpoints on a directory store. This example runs a
//! stream halfway, kills the process state (drops the runtime on the
//! floor), then recovers from disk alone — newest valid checkpoint plus
//! WAL-suffix replay — re-feeds the source from `resume_seq`, and verifies
//! the final match set is identical to an uninterrupted reference run.
//!
//! The durability directory defaults to a fresh temp dir, removed at the
//! end; set `DLACEP_DUR_DIR` to keep the stores: each run then starts in a
//! fresh `run-N` subdirectory of it, so running the example again leaves
//! the earlier runs' stores exactly as they were.
//!
//! ```bash
//! cargo run --release --example checkpoint_recovery
//! DLACEP_DUR_DIR=/tmp/dlacep-dur cargo run --release --example checkpoint_recovery
//! ```

use dlacep::cep::{Pattern, PatternExpr, TypeSet};
use dlacep::core::durable::{dur_dir_from_env, DurConfig, DurableDlacep};
use dlacep::core::{OracleFilter, RuntimeConfig, StreamingDlacep};
use dlacep::dur::{DirStore, WalConfig};
use dlacep::events::{AttrValue, TypeId, WindowSpec};
use dlacep::obs::Registry;
use std::io::ErrorKind;
use std::path::PathBuf;
use std::sync::Arc;

/// SEQ(A, B) WITHIN 6 over types 0/1 with a filler type 2.
fn pattern() -> Pattern {
    Pattern::new(
        PatternExpr::Seq(vec![
            PatternExpr::event(TypeSet::single(TypeId(0)), "a"),
            PatternExpr::event(TypeSet::single(TypeId(1)), "b"),
        ]),
        vec![],
        WindowSpec::Count(6),
    )
}

/// The event source: deterministic, re-readable from any offset — the
/// durability contract needs the source to re-feed from `resume_seq`.
fn source(n: usize) -> Vec<(TypeId, u64, Vec<AttrValue>)> {
    (0..n)
        .map(|i| {
            let t = match i % 5 {
                1 => 0,
                3 => 1,
                _ => 2,
            };
            (TypeId(t), i as u64, vec![i as f64])
        })
        .collect()
}

/// This run's durability directory: the first `run-N` under
/// `$DLACEP_DUR_DIR` that does not exist yet (claimed by creating it), or a
/// temp dir.
fn run_dir() -> PathBuf {
    let Some(root) = dur_dir_from_env() else {
        let dir = std::env::temp_dir().join(format!("dlacep-ckpt-example-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create durability dir");
        return dir;
    };
    std::fs::create_dir_all(&root).expect("create durability dir");
    (1..)
        .map(|n| root.join(format!("run-{n}")))
        .find(|dir| match std::fs::create_dir(dir) {
            Ok(()) => true,
            Err(e) if e.kind() == ErrorKind::AlreadyExists => false,
            Err(e) => panic!("create {}: {e}", dir.display()),
        })
        .expect("a free run-N directory")
}

fn main() {
    let p = pattern();
    let input = source(300);
    let dur_cfg = DurConfig {
        wal: WalConfig {
            segment_max_bytes: 16 * 1024,
            sync_every: 8,
        },
        checkpoint_every_events: 64,
    };

    // Reference: the same stream, never interrupted.
    let mut reference =
        StreamingDlacep::new(p.clone(), OracleFilter::new(p.clone())).expect("valid pattern");
    for (t, ts, attrs) in &input {
        reference
            .ingest(*t, *ts, attrs.clone())
            .expect("in-order source");
    }
    let expected = reference.finish();

    let dir = run_dir();
    println!("durability dir : {}", dir.display());

    // ---- First life: ingest 180 of 300 events, then "crash". -------------
    let registry = Arc::new(Registry::with_journal_capacity(1024));
    let store = DirStore::open(&dir).expect("open dir store");
    let mut durable = DurableDlacep::new(
        p.clone(),
        OracleFilter::new(p.clone()),
        RuntimeConfig::default(),
        dur_cfg,
        store,
        Some(registry),
        None,
    )
    .expect("fresh durable runtime");
    for (t, ts, attrs) in &input[..180] {
        durable
            .ingest(*t, *ts, attrs.clone())
            .expect("in-order source");
    }
    let matches_before = durable.runtime().matches_so_far().len();
    println!("first life     : 180/300 events, {matches_before} matches, then crash");
    drop(durable); // power cut: all in-memory state is gone

    // ---- Second life: recover from disk alone. ---------------------------
    let registry = Arc::new(Registry::with_journal_capacity(1024));
    let store = DirStore::open(&dir).expect("reopen dir store");
    let (mut recovered, report) = DurableDlacep::recover(
        p.clone(),
        OracleFilter::new(p),
        RuntimeConfig::default(),
        dur_cfg,
        store,
        Some(registry.clone()),
        None,
    )
    .expect("recovery");
    println!(
        "recovery       : checkpoint seq {:?} (skipped {}), {} WAL records replayed,\n\
         \x20                {} torn bytes truncated, resume from event #{}",
        report.checkpoint_seq,
        report.checkpoints_skipped,
        report.wal_replayed,
        report.truncated_bytes,
        report.resume_seq,
    );

    for (t, ts, attrs) in &input[report.resume_seq as usize..] {
        recovered
            .ingest(*t, *ts, attrs.clone())
            .expect("in-order source");
    }
    let report2 = recovered.finish();

    // ---- Equivalence. ----------------------------------------------------
    println!(
        "second life    : {} matches total (reference: {})",
        report2.matches.len(),
        expected.matches.len()
    );
    assert_eq!(
        report2.matches, expected.matches,
        "recovered match sequence must be identical to the uninterrupted run"
    );
    let snap = registry.snapshot();
    for name in [
        "dur.checkpoint.bytes",
        "dur.wal.replayed",
        "dur.recovery.truncated_tail",
    ] {
        if let Some(v) = snap.counters.get(name) {
            println!("{name:<28}: {v}");
        }
    }
    println!("crash-recovery equivalence holds ✓");

    if dur_dir_from_env().is_none() {
        let _ = std::fs::remove_dir_all(&dir);
    }
}
