//! Owned event streams.

use crate::event::{AttrValue, EventId, PrimitiveEvent, Timestamp, TypeId};
use serde::{Deserialize, Serialize};

/// Errors raised by fallible stream mutation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamError {
    /// The pushed timestamp is smaller than the last event's.
    OutOfOrder {
        /// Timestamp of the rejected event.
        ts: u64,
        /// Timestamp of the last accepted event.
        last_ts: u64,
    },
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::OutOfOrder { ts, last_ts } => {
                write!(f, "out-of-order timestamp: {ts} after {last_ts}")
            }
        }
    }
}

impl std::error::Error for StreamError {}

/// What to do with an event whose timestamp regresses.
///
/// The paper assumes an in-order merged input; real feeds violate that. The
/// streaming runtime picks a policy instead of panicking.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum OutOfOrderPolicy {
    /// Silently discard the event (count it upstream if you care).
    Drop,
    /// Admit the event with its timestamp clamped to the last seen one,
    /// preserving arrival order. Window semantics treat it as on-time.
    ClampToLastTs,
    /// Refuse the event, surfacing [`StreamError::OutOfOrder`] to the caller.
    #[default]
    Reject,
}

/// An owned, finite prefix of an event stream.
///
/// The paper assumes a single merged, in-order input (§4 "System settings");
/// `EventStream` enforces the invariants the rest of the system relies on:
/// ids are strictly increasing and timestamps non-decreasing. Events pushed
/// through [`EventStream::push`] are stamped automatically.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct EventStream {
    events: Vec<PrimitiveEvent>,
    next_id: u64,
}

impl EventStream {
    /// Empty stream whose first event will get id 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty stream with space for `cap` events.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            events: Vec::with_capacity(cap),
            next_id: 0,
        }
    }

    /// Append an event, stamping the next id. Timestamps must be
    /// non-decreasing; out-of-order input is a caller bug (merging
    /// out-of-order sources is out of the paper's scope). Fallible callers
    /// should use [`EventStream::try_push`] instead.
    ///
    /// # Panics
    /// Panics if `ts` is smaller than the last event's timestamp.
    pub fn push(&mut self, type_id: TypeId, ts: u64, attrs: Vec<AttrValue>) -> EventId {
        match self.try_push(type_id, ts, attrs) {
            Ok(id) => id,
            Err(e) => panic!("{e}"),
        }
    }

    /// Append an event, stamping the next id; rejects timestamp regressions
    /// with an error instead of panicking.
    pub fn try_push(
        &mut self,
        type_id: TypeId,
        ts: u64,
        attrs: Vec<AttrValue>,
    ) -> Result<EventId, StreamError> {
        if let Some(last) = self.events.last() {
            if ts < last.ts.0 {
                return Err(StreamError::OutOfOrder {
                    ts,
                    last_ts: last.ts.0,
                });
            }
        }
        let id = EventId(self.next_id);
        self.next_id += 1;
        self.events.push(PrimitiveEvent {
            id,
            type_id,
            ts: Timestamp(ts),
            attrs,
        });
        Ok(id)
    }

    /// Append an event under an explicit out-of-order policy. Returns the
    /// stamped id, `Ok(None)` when the event was dropped by policy, or the
    /// error under [`OutOfOrderPolicy::Reject`]. In-order input is unaffected
    /// by the policy.
    pub fn push_with_policy(
        &mut self,
        type_id: TypeId,
        ts: u64,
        attrs: Vec<AttrValue>,
        policy: OutOfOrderPolicy,
    ) -> Result<Option<EventId>, StreamError> {
        let last_ts = self.events.last().map(|e| e.ts.0);
        match last_ts {
            Some(last) if ts < last => match policy {
                OutOfOrderPolicy::Drop => Ok(None),
                OutOfOrderPolicy::ClampToLastTs => Ok(Some(self.try_push(type_id, last, attrs)?)),
                OutOfOrderPolicy::Reject => Err(StreamError::OutOfOrder { ts, last_ts: last }),
            },
            _ => Ok(Some(self.try_push(type_id, ts, attrs)?)),
        }
    }

    /// Build a stream from pre-stamped events, validating the invariants.
    ///
    /// Returns `None` if ids are not strictly increasing or timestamps
    /// decrease.
    pub fn from_events(events: Vec<PrimitiveEvent>) -> Option<Self> {
        for pair in events.windows(2) {
            if pair[1].id <= pair[0].id || pair[1].ts < pair[0].ts {
                return None;
            }
        }
        let next_id = events.last().map_or(0, |e| e.id.0 + 1);
        Some(Self { events, next_id })
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the stream holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events as a slice.
    pub fn events(&self) -> &[PrimitiveEvent] {
        &self.events
    }

    /// Iterate over the events.
    pub fn iter(&self) -> std::slice::Iter<'_, PrimitiveEvent> {
        self.events.iter()
    }

    /// A sub-stream covering `range` positions (not ids). Useful for taking
    /// fixed-size evaluation prefixes in experiments.
    pub fn slice(&self, range: std::ops::Range<usize>) -> &[PrimitiveEvent] {
        &self.events[range]
    }
}

impl<'a> IntoIterator for &'a EventStream {
    type Item = &'a PrimitiveEvent;
    type IntoIter = std::slice::Iter<'a, PrimitiveEvent>;
    fn into_iter(self) -> Self::IntoIter {
        self.events.iter()
    }
}

impl IntoIterator for EventStream {
    type Item = PrimitiveEvent;
    type IntoIter = std::vec::IntoIter<PrimitiveEvent>;
    fn into_iter(self) -> Self::IntoIter {
        self.events.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_roundtrip_via_serde() {
        let mut s = EventStream::new();
        s.push(TypeId(2), 10, vec![1.5, -0.25]);
        s.push(TypeId(0), 11, vec![0.0, 3.0]);
        s.push(TypeId(7), 11, vec![2.25, 1.0]);
        let json = serde_json::to_string(&s).unwrap();
        let back: EventStream = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn push_stamps_increasing_ids() {
        let mut s = EventStream::new();
        let a = s.push(TypeId(0), 1, vec![]);
        let b = s.push(TypeId(1), 1, vec![]);
        let c = s.push(TypeId(0), 2, vec![]);
        assert_eq!((a, b, c), (EventId(0), EventId(1), EventId(2)));
        assert_eq!(s.len(), 3);
    }

    #[test]
    #[should_panic(expected = "out-of-order")]
    fn push_rejects_time_regression() {
        let mut s = EventStream::new();
        s.push(TypeId(0), 5, vec![]);
        s.push(TypeId(0), 4, vec![]);
    }

    #[test]
    fn try_push_surfaces_regression_as_error() {
        let mut s = EventStream::new();
        s.try_push(TypeId(0), 5, vec![]).unwrap();
        let err = s.try_push(TypeId(0), 4, vec![]).unwrap_err();
        assert_eq!(err, StreamError::OutOfOrder { ts: 4, last_ts: 5 });
        assert_eq!(s.len(), 1, "rejected event must not be stored");
        // Recovery: in-order pushes keep working after a rejection.
        assert_eq!(s.try_push(TypeId(0), 5, vec![]).unwrap(), EventId(1));
    }

    #[test]
    fn policy_drop_discards_silently() {
        let mut s = EventStream::new();
        s.push(TypeId(0), 5, vec![]);
        let got = s
            .push_with_policy(TypeId(0), 3, vec![], OutOfOrderPolicy::Drop)
            .unwrap();
        assert_eq!(got, None);
        assert_eq!(s.len(), 1);
        // Ids stay dense: the dropped event consumed no id.
        assert_eq!(s.push(TypeId(0), 6, vec![]), EventId(1));
    }

    #[test]
    fn policy_clamp_preserves_arrival_order() {
        let mut s = EventStream::new();
        s.push(TypeId(0), 5, vec![]);
        let got = s
            .push_with_policy(TypeId(1), 3, vec![1.0], OutOfOrderPolicy::ClampToLastTs)
            .unwrap();
        assert_eq!(got, Some(EventId(1)));
        assert_eq!(
            s.events()[1].ts,
            Timestamp(5),
            "timestamp clamped to last seen"
        );
        assert_eq!(s.events()[1].type_id, TypeId(1), "payload preserved");
    }

    #[test]
    fn policy_reject_matches_try_push() {
        let mut s = EventStream::new();
        s.push(TypeId(0), 5, vec![]);
        let err = s
            .push_with_policy(TypeId(0), 3, vec![], OutOfOrderPolicy::Reject)
            .unwrap_err();
        assert_eq!(err, StreamError::OutOfOrder { ts: 3, last_ts: 5 });
    }

    #[test]
    fn policies_agree_on_in_order_input() {
        for policy in [
            OutOfOrderPolicy::Drop,
            OutOfOrderPolicy::ClampToLastTs,
            OutOfOrderPolicy::Reject,
        ] {
            let mut s = EventStream::new();
            for ts in [1u64, 1, 3, 7] {
                s.push_with_policy(TypeId(0), ts, vec![], policy).unwrap();
            }
            assert_eq!(s.len(), 4);
        }
    }

    #[test]
    fn from_events_validates() {
        let good = vec![
            PrimitiveEvent::new(0, TypeId(0), 1, vec![]),
            PrimitiveEvent::new(1, TypeId(0), 1, vec![]),
        ];
        assert!(EventStream::from_events(good).is_some());

        let dup_id = vec![
            PrimitiveEvent::new(1, TypeId(0), 1, vec![]),
            PrimitiveEvent::new(1, TypeId(0), 2, vec![]),
        ];
        assert!(EventStream::from_events(dup_id).is_none());

        let ts_back = vec![
            PrimitiveEvent::new(0, TypeId(0), 2, vec![]),
            PrimitiveEvent::new(1, TypeId(0), 1, vec![]),
        ];
        assert!(EventStream::from_events(ts_back).is_none());
    }

    #[test]
    fn from_events_resumes_id_stamping() {
        let ev = vec![PrimitiveEvent::new(7, TypeId(0), 1, vec![])];
        let mut s = EventStream::from_events(ev).unwrap();
        let id = s.push(TypeId(0), 2, vec![]);
        assert_eq!(id, EventId(8));
    }

    #[test]
    fn slice_returns_positions() {
        let mut s = EventStream::new();
        for i in 0..10 {
            s.push(TypeId(0), i, vec![i as f64]);
        }
        let sl = s.slice(2..5);
        assert_eq!(sl.len(), 3);
        assert_eq!(sl[0].id, EventId(2));
    }
}
