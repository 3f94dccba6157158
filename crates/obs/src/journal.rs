//! Bounded structured event journal.
//!
//! A fixed-capacity ring buffer of `(seq, timestamp, kind, fields)` entries
//! for discrete runtime events: breaker trips, drift verdicts, mode
//! transitions, partial-match sheds, pool queue-depth samples. When the ring
//! is full the oldest entry is evicted and a `dropped` counter keeps the
//! loss visible. Timestamps are nanoseconds since the registry's epoch
//! (monotonic, `Instant`-based) and are the *only* nondeterministic part of
//! an entry: sequence numbers, kinds, and fields must be identical across
//! thread counts for everything outside the `pool.` namespace.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use serde::{Deserialize, Serialize};

/// Default ring capacity used by [`Registry::enabled`](crate::Registry::enabled).
pub const DEFAULT_JOURNAL_CAPACITY: usize = 1024;

/// A single typed field value attached to a journal entry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FieldValue {
    U64(u64),
    I64(i64),
    F64(f64),
    Bool(bool),
    Str(String),
}

impl std::fmt::Display for FieldValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FieldValue::U64(v) => write!(f, "{v}"),
            FieldValue::I64(v) => write!(f, "{v}"),
            FieldValue::F64(v) => write!(f, "{v}"),
            FieldValue::Bool(v) => write!(f, "{v}"),
            FieldValue::Str(v) => write!(f, "{v}"),
        }
    }
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}

impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}

impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}

impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}

impl From<f32> for FieldValue {
    fn from(v: f32) -> Self {
        FieldValue::F64(v as f64)
    }
}

impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

/// One structured event in the journal.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JournalEntry {
    /// Monotonic sequence number, never reused; survives ring eviction.
    pub seq: u64,
    /// Nanoseconds since the registry epoch (timing — exempt from the
    /// determinism contract).
    pub at_nanos: u64,
    /// Event kind, e.g. `"mode"`, `"breaker"`, `"drift"`, `"shed"`.
    pub kind: String,
    /// Ordered key/value payload.
    pub fields: Vec<(String, FieldValue)>,
}

#[derive(Debug)]
struct JournalState {
    ring: VecDeque<JournalEntry>,
    capacity: usize,
    next_seq: u64,
    dropped: u64,
}

#[derive(Debug)]
pub(crate) struct JournalCore {
    epoch: Instant,
    state: Mutex<JournalState>,
}

/// Cheap cloneable handle on the journal ring. Handles from a disabled
/// registry hold `None`, and [`Journal::record`] is a single branch.
#[derive(Clone, Debug, Default)]
pub struct Journal(pub(crate) Option<Arc<JournalCore>>);

impl Journal {
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        Journal(Some(Arc::new(JournalCore {
            epoch: Instant::now(),
            state: Mutex::new(JournalState {
                ring: VecDeque::with_capacity(capacity.min(4096)),
                capacity: capacity.max(1),
                next_seq: 0,
                dropped: 0,
            }),
        })))
    }

    /// A journal that ignores every record (what disabled registries issue).
    pub fn disabled() -> Self {
        Journal(None)
    }

    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Append an event. The oldest entry is evicted (and counted as
    /// dropped) once the ring is at capacity.
    pub fn record(&self, kind: &str, fields: &[(&str, FieldValue)]) {
        let Some(core) = &self.0 else { return };
        let at_nanos = u64::try_from(core.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let mut state = core.state.lock().unwrap();
        let seq = state.next_seq;
        state.next_seq += 1;
        if state.ring.len() == state.capacity {
            state.ring.pop_front();
            state.dropped += 1;
        }
        state.ring.push_back(JournalEntry {
            seq,
            at_nanos,
            kind: kind.to_string(),
            fields: fields
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        });
    }

    /// Sequence number the next entry will receive (== total entries ever
    /// recorded). Cheap — no ring copy; `0` when disabled. Checkpoints use
    /// this as a journal watermark so recovered runs can be compared to
    /// uninterrupted ones from the same point.
    pub fn next_seq(&self) -> u64 {
        match &self.0 {
            None => 0,
            Some(core) => core.state.lock().unwrap().next_seq,
        }
    }

    /// Copy out the current ring contents.
    pub fn snapshot(&self) -> JournalSnapshot {
        match &self.0 {
            None => JournalSnapshot::default(),
            Some(core) => {
                let state = core.state.lock().unwrap();
                JournalSnapshot {
                    next_seq: state.next_seq,
                    dropped: state.dropped,
                    entries: state.ring.iter().cloned().collect(),
                }
            }
        }
    }
}

/// Point-in-time copy of the journal ring.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct JournalSnapshot {
    /// Sequence number the *next* entry will receive (== total entries ever
    /// recorded).
    pub next_seq: u64,
    /// Entries evicted by ring wraparound.
    pub dropped: u64,
    /// Surviving entries, oldest first.
    pub entries: Vec<JournalEntry>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_wraparound_evicts_oldest_and_counts_dropped() {
        let j = Journal::with_capacity(3);
        for i in 0..5u64 {
            j.record("tick", &[("i", i.into())]);
        }
        let snap = j.snapshot();
        assert_eq!(snap.next_seq, 5);
        assert_eq!(snap.dropped, 2);
        assert_eq!(snap.entries.len(), 3);
        assert_eq!(
            snap.entries.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![2, 3, 4],
            "oldest entries evicted first"
        );
        assert_eq!(
            snap.entries[0].fields,
            vec![("i".to_string(), FieldValue::U64(2))]
        );
    }

    #[test]
    fn disabled_journal_records_nothing() {
        let j = Journal::disabled();
        j.record("tick", &[]);
        assert_eq!(j.snapshot(), JournalSnapshot::default());
    }
}
