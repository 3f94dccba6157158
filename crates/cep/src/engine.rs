//! Shared engine-facing types: matches, statistics, the [`CepEngine`] trait,
//! and the sliding event arena engines use to resolve bound event ids.

use dlacep_events::{EventId, PrimitiveEvent};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// A full pattern match: the events (by id) bound to each binding name, plus
/// the sorted id set that identifies the match.
///
/// Matches store event *ids*, not event copies — experiments keep the source
/// stream around, and id sets are what recall comparisons operate on (§5.1:
/// the two returned match sets are compared).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Match {
    /// Sorted ids of every event participating in the match.
    pub event_ids: Vec<EventId>,
    /// Per-binding event ids (Kleene bindings may hold several).
    pub bindings: Vec<(String, Vec<EventId>)>,
}

impl Match {
    /// Build a match from bindings; `event_ids` is derived (sorted, deduped).
    pub fn from_bindings(bindings: Vec<(String, Vec<EventId>)>) -> Self {
        let mut ids: Vec<EventId> = bindings
            .iter()
            .flat_map(|(_, v)| v.iter().copied())
            .collect();
        ids.sort_unstable();
        ids.dedup();
        Self {
            event_ids: ids,
            bindings,
        }
    }

    /// Ids bound to `binding`, if present.
    pub fn binding(&self, name: &str) -> Option<&[EventId]> {
        self.bindings
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_slice())
    }

    /// The match identity used for set comparisons (sorted id vector).
    pub fn key(&self) -> &[EventId] {
        &self.event_ids
    }
}

/// Counters describing the work an engine performed. The number of partial
/// matches created is the paper's complexity measure (§3.2): ECEP cost is
/// dominated by creating and extending partial matches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EngineStats {
    /// Events fed into the engine.
    pub events_processed: u64,
    /// Partial matches created (including ones later discarded).
    pub partial_matches_created: u64,
    /// Largest number of simultaneously stored partial matches.
    pub peak_partial_matches: u64,
    /// Full matches emitted.
    pub matches_emitted: u64,
    /// Predicate evaluations performed.
    pub condition_evaluations: u64,
    /// Partial matches evicted by the partial-match budget (load shedding).
    /// Zero unless a budget is configured and was exceeded.
    pub partials_shed: u64,
}

impl EngineStats {
    /// Fold another engine's counters into this one: additive counters are
    /// summed, `peak_partial_matches` takes the max (shards hold their
    /// partial sets concurrently, but the per-shard peak is the meaningful
    /// memory bound since each shard owns its budget).
    ///
    /// Sharded runs call this in shard-index order, so merged stats are
    /// deterministic and independent of thread count.
    pub fn merge(&mut self, other: &EngineStats) {
        self.events_processed += other.events_processed;
        self.partial_matches_created += other.partial_matches_created;
        self.peak_partial_matches = self.peak_partial_matches.max(other.peak_partial_matches);
        self.matches_emitted += other.matches_emitted;
        self.condition_evaluations += other.condition_evaluations;
        self.partials_shed += other.partials_shed;
    }
}

/// A streaming CEP evaluation mechanism.
pub trait CepEngine {
    /// Feed one event (ids must be strictly increasing across calls).
    fn process(&mut self, ev: &PrimitiveEvent);

    /// Take the matches emitted since the last drain.
    fn drain_matches(&mut self) -> Vec<Match>;

    /// Work counters.
    fn stats(&self) -> &EngineStats;

    /// Feed a whole slice and collect everything it emits.
    fn run(&mut self, events: &[PrimitiveEvent]) -> Vec<Match> {
        let mut out = Vec::new();
        for ev in events {
            self.process(ev);
            out.append(&mut self.drain_matches());
        }
        out
    }
}

/// A sliding window of recent events, addressable by [`EventId`]. Engines use
/// it to resolve bound ids to attribute values for condition evaluation and
/// to scan gaps for negated occurrences. Evicted slots (and their attribute
/// buffers) are reused by later pushes, so a full window allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct EventArena {
    events: VecDeque<PrimitiveEvent>,
    spare: Vec<PrimitiveEvent>,
}

impl EventArena {
    /// Empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a copy of the newest event (ids must increase).
    pub fn push(&mut self, ev: &PrimitiveEvent) {
        if let Some(last) = self.events.back() {
            debug_assert!(ev.id > last.id, "arena requires increasing ids");
        }
        match self.spare.pop() {
            Some(mut slot) => {
                slot.id = ev.id;
                slot.type_id = ev.type_id;
                slot.ts = ev.ts;
                slot.attrs.clear();
                slot.attrs.extend_from_slice(&ev.attrs);
                self.events.push_back(slot);
            }
            None => self.events.push_back(ev.clone()),
        }
    }

    /// Resolve an id to its event, if still retained.
    pub fn get(&self, id: EventId) -> Option<&PrimitiveEvent> {
        let front = self.events.front()?.id;
        if id < front {
            return None;
        }
        // On a dense stream the id is its own offset; ids are increasing but
        // not necessarily dense (filtered streams!), so search otherwise.
        let guess = (id.0 - front.0) as usize;
        match self.events.get(guess) {
            Some(e) if e.id == id => Some(e),
            _ => {
                let idx = self.events.binary_search_by(|e| e.id.cmp(&id)).ok()?;
                Some(&self.events[idx])
            }
        }
    }

    /// Id of the oldest retained event.
    pub fn first_id(&self) -> Option<EventId> {
        self.events.front().map(|e| e.id)
    }

    /// Drop events with `ts < horizon` (time-window eviction).
    pub fn evict_before_ts(&mut self, horizon: u64) {
        while self.events.front().is_some_and(|e| e.ts.0 < horizon) {
            self.spare.extend(self.events.pop_front());
        }
    }

    /// Drop events with `id < horizon`.
    pub fn evict_below(&mut self, horizon: EventId) {
        while self.events.front().is_some_and(|e| e.id < horizon) {
            self.spare.extend(self.events.pop_front());
        }
    }

    /// Events with `ids.start <= id < ids.end`, in order.
    pub fn range(&self, ids: std::ops::Range<EventId>) -> impl Iterator<Item = &PrimitiveEvent> {
        let lo = self.events.partition_point(|e| e.id < ids.start);
        let hi = self.events.partition_point(|e| e.id < ids.end);
        self.events.range(lo..hi.max(lo))
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the arena is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Retained events in arrival order, for checkpointing.
    pub fn snapshot(&self) -> Vec<PrimitiveEvent> {
        self.events.iter().cloned().collect()
    }

    /// Rebuild an arena from a [`snapshot`](Self::snapshot) (ids must be
    /// strictly increasing, as they were when captured).
    pub fn restore(events: Vec<PrimitiveEvent>) -> Self {
        debug_assert!(
            events.windows(2).all(|w| w[0].id < w[1].id),
            "arena snapshot requires increasing ids"
        );
        Self {
            events: events.into(),
            spare: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlacep_events::TypeId;

    fn ev(id: u64) -> PrimitiveEvent {
        PrimitiveEvent::new(id, TypeId(0), id, vec![id as f64])
    }

    #[test]
    fn match_from_bindings_sorts_ids() {
        let m = Match::from_bindings(vec![
            ("b".into(), vec![EventId(5)]),
            ("a".into(), vec![EventId(2), EventId(9)]),
        ]);
        assert_eq!(m.event_ids, vec![EventId(2), EventId(5), EventId(9)]);
        assert_eq!(m.binding("a"), Some(&[EventId(2), EventId(9)][..]));
        assert_eq!(m.binding("zzz"), None);
    }

    #[test]
    fn arena_get_with_gaps() {
        let mut a = EventArena::new();
        for id in [1, 4, 9, 10] {
            a.push(&ev(id));
        }
        assert_eq!(a.get(EventId(4)).unwrap().id, EventId(4));
        assert!(a.get(EventId(5)).is_none());
        assert!(a.get(EventId(0)).is_none());
    }

    #[test]
    fn arena_evicts_below_horizon() {
        let mut a = EventArena::new();
        for id in 0..10 {
            a.push(&ev(id));
        }
        a.evict_below(EventId(7));
        assert_eq!(a.len(), 3);
        assert!(a.get(EventId(6)).is_none());
        assert!(a.get(EventId(7)).is_some());
    }

    #[test]
    fn arena_range_is_half_open_and_reaches_id_zero() {
        let mut a = EventArena::new();
        for id in [0, 1, 2, 3, 5, 8] {
            a.push(&ev(id));
        }
        let ids = |r: std::ops::Range<u64>| -> Vec<u64> {
            a.range(EventId(r.start)..EventId(r.end))
                .map(|e| e.id.0)
                .collect()
        };
        assert_eq!(ids(2..5), vec![2, 3]);
        assert_eq!(ids(0..2), vec![0, 1]);
        assert_eq!(ids(4..9), vec![5, 8]);
        assert!(ids(4..4).is_empty());
        assert_eq!(a.range(EventId(5)..EventId(3)).count(), 0);
    }

    #[test]
    fn arena_reuses_evicted_slots() {
        let mut a = EventArena::new();
        for id in 0..8 {
            a.push(&ev(id));
            a.evict_below(EventId((id + 1).saturating_sub(3)));
        }
        assert_eq!(a.len(), 3);
        assert_eq!(a.get(EventId(6)).unwrap().attrs, vec![6.0]);
        assert!(
            a.spare.len() <= 1,
            "evicted slots are recycled, not hoarded"
        );
    }
}
