//! Shared engine-facing types: matches, statistics, the [`CepEngine`] trait,
//! and the sliding event arena engines use to resolve bound event ids.

use dlacep_events::{EventId, PrimitiveEvent};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

/// The binding names every match of one compiled branch shares, in emission
/// order, with which of them are Kleene bindings (any number of ids; every
/// other binding holds exactly one). A compiled branch builds its schema
/// once and each match it emits holds a handle to it, so a name is stored
/// once per branch, not once per match — the complex event of the CEP
/// literature: a map from the pattern's variables to stream positions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatchSchema {
    names: Vec<String>,
    kleene: Vec<bool>,
    kleene_count: usize,
    /// The index of the plan branch that emits these matches (in a shared
    /// plan's fused plan, the evaluation unit); `None` for a schema built
    /// from a match's own bindings.
    branch: Option<usize>,
}

impl MatchSchema {
    /// A schema of `(name, is_kleene)` bindings emitted by `branch`.
    pub(crate) fn new(
        bindings: impl IntoIterator<Item = (String, bool)>,
        branch: Option<usize>,
    ) -> Self {
        let (names, kleene): (Vec<String>, Vec<bool>) = bindings.into_iter().unzip();
        let kleene_count = kleene.iter().filter(|k| **k).count();
        Self {
            names,
            kleene,
            kleene_count,
            branch,
        }
    }

    /// The binding names, in emission order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Whether each binding is a Kleene binding, in emission order.
    pub(crate) fn kleene(&self) -> &[bool] {
        &self.kleene
    }

    /// The plan branch that emits matches of this schema, if a compiled
    /// branch built it.
    pub(crate) fn branch(&self) -> Option<usize> {
        self.branch
    }
}

/// A match's event ids, sorted and deduplicated — and the match's one heap
/// allocation: behind the sorted ids it holds every binding's ids in
/// binding order, then the end of each Kleene binding's run. It reads as
/// the slice of sorted ids.
#[derive(Clone, Default)]
pub struct MatchIds {
    /// `sorted ids | ids in binding order | Kleene binding ends`.
    words: Box<[EventId]>,
    sorted: usize,
}

impl Deref for MatchIds {
    type Target = [EventId];

    fn deref(&self) -> &[EventId] {
        &self.words[..self.sorted]
    }
}

impl DerefMut for MatchIds {
    fn deref_mut(&mut self) -> &mut [EventId] {
        &mut self.words[..self.sorted]
    }
}

impl PartialEq for MatchIds {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for MatchIds {}

impl<'a> IntoIterator for &'a MatchIds {
    type Item = &'a EventId;
    type IntoIter = std::slice::Iter<'a, EventId>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl PartialOrd for MatchIds {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for MatchIds {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (**self).cmp(&**other)
    }
}

impl std::hash::Hash for MatchIds {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        (**self).hash(state);
    }
}

impl PartialEq<Vec<EventId>> for MatchIds {
    fn eq(&self, other: &Vec<EventId>) -> bool {
        **self == **other
    }
}

impl std::fmt::Debug for MatchIds {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (**self).fmt(f)
    }
}

/// A full pattern match: the events (by id) bound to each binding name, plus
/// the sorted id set that identifies the match.
///
/// Matches store event *ids*, not event copies — experiments keep the source
/// stream around, and id sets are what recall comparisons operate on (§5.1:
/// the two returned match sets are compared). A match is one heap
/// allocation ([`MatchIds`]) plus a handle to the [`MatchSchema`] of the
/// branch that emitted it, which names its bindings; read them with
/// [`bindings`](Self::bindings) or [`binding`](Self::binding). Two matches
/// are equal when their ids and their `(name, ids)` bindings are, whatever
/// schema they hold.
#[derive(Clone)]
pub struct Match {
    /// Sorted ids of every event participating in the match.
    pub event_ids: MatchIds,
    schema: Arc<MatchSchema>,
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
        Self::from_parts(&ids, bindings)
    }

    /// A match with exactly these `event_ids` (taken as given, not derived)
    /// and these bindings, under a schema of its own.
    pub fn from_parts(event_ids: &[EventId], bindings: Vec<(String, Vec<EventId>)>) -> Self {
        let mut builder = MatchBuilder::default();
        let mut names = Vec::with_capacity(bindings.len());
        for (name, ids) in bindings {
            let kleene = ids.len() != 1;
            match kleene {
                true => builder.kleene(ids),
                false => builder.single(ids[0]),
            }
            names.push((name, kleene));
        }
        let schema = Arc::new(MatchSchema::new(names, None));
        builder.finish_with(event_ids, &schema)
    }

    /// Ids bound to `binding`, if present.
    pub fn binding(&self, name: &str) -> Option<&[EventId]> {
        self.bindings()
            .find(|(n, _)| *n == name)
            .map(|(_, ids)| ids)
    }

    /// Every binding's name and ids, in emission order.
    pub fn bindings(&self) -> Bindings<'_> {
        let words = &self.event_ids.words;
        let ends = words.len() - self.schema.kleene_count;
        Bindings {
            names: self.schema.names.iter(),
            kleene: self.schema.kleene.iter(),
            bound: &words[self.event_ids.sorted..ends],
            ends: words[ends..].iter(),
            at: 0,
        }
    }

    /// The schema naming this match's bindings.
    pub(crate) fn schema(&self) -> &Arc<MatchSchema> {
        &self.schema
    }

    /// The match identity used for set comparisons (sorted id vector).
    pub fn key(&self) -> &[EventId] {
        &self.event_ids
    }

    /// Give the match `schema`'s binding names, which must name as many
    /// bindings: a handle swap when both schemas lay the ids out alike
    /// (the same Kleene bindings), a rebuild otherwise.
    pub(crate) fn set_schema(&mut self, schema: &Arc<MatchSchema>) {
        debug_assert_eq!(self.schema.names.len(), schema.names.len());
        if self.schema.kleene != schema.kleene {
            let mut builder = MatchBuilder::default();
            for ((_, ids), &kleene) in self.bindings().zip(&schema.kleene) {
                match kleene {
                    true => builder.kleene(ids.iter().copied()),
                    false => builder.single(ids[0]),
                }
            }
            self.event_ids = builder.finish_with(&self.event_ids, schema).event_ids;
        }
        self.schema = Arc::clone(schema);
    }
}

impl PartialEq for Match {
    fn eq(&self, other: &Self) -> bool {
        if Arc::ptr_eq(&self.schema, &other.schema) {
            let (a, b) = (&self.event_ids, &other.event_ids);
            return a.sorted == b.sorted && a.words == b.words;
        }
        self.event_ids == other.event_ids
            && self.schema.names.len() == other.schema.names.len()
            && self.bindings().eq(other.bindings())
    }
}

impl Eq for Match {}

impl std::fmt::Debug for Match {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        struct List<'a>(&'a Match);
        impl std::fmt::Debug for List<'_> {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.debug_list().entries(self.0.bindings()).finish()
            }
        }
        f.debug_struct("Match")
            .field("event_ids", &self.event_ids)
            .field("bindings", &List(self))
            .finish()
    }
}

/// The `(name, ids)` bindings of a [`Match`], in emission order.
#[derive(Debug, Clone)]
pub struct Bindings<'a> {
    names: std::slice::Iter<'a, String>,
    kleene: std::slice::Iter<'a, bool>,
    bound: &'a [EventId],
    ends: std::slice::Iter<'a, EventId>,
    at: usize,
}

impl<'a> Iterator for Bindings<'a> {
    type Item = (&'a str, &'a [EventId]);

    fn next(&mut self) -> Option<Self::Item> {
        let name = self.names.next()?;
        let end = match self.kleene.next()? {
            true => self.ends.next()?.0 as usize,
            false => self.at + 1,
        };
        let ids = &self.bound[self.at..end];
        self.at = end;
        Some((name, ids))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.names.size_hint()
    }
}

impl ExactSizeIterator for Bindings<'_> {}

/// Scratch space an engine assembles its matches in, reused from match to
/// match, so that emitting one costs one allocation: feed the bindings in
/// emission order, then [`finish`](Self::finish).
#[derive(Debug, Default)]
pub(crate) struct MatchBuilder {
    bound: Vec<EventId>,
    ends: Vec<EventId>,
    words: Vec<EventId>,
}

impl MatchBuilder {
    /// The next binding is a single step bound to `id`.
    pub(crate) fn single(&mut self, id: EventId) {
        self.bound.push(id);
    }

    /// The next binding is a Kleene binding holding `ids`.
    pub(crate) fn kleene(&mut self, ids: impl IntoIterator<Item = EventId>) {
        self.bound.extend(ids);
        self.ends.push(EventId(self.bound.len() as u64));
    }

    /// The match of the bindings fed so far, under `schema`; its event ids
    /// are theirs, sorted and deduplicated.
    pub(crate) fn finish(&mut self, schema: &Arc<MatchSchema>) -> Match {
        self.words.clear();
        self.words.extend_from_slice(&self.bound);
        self.words.sort_unstable();
        self.words.dedup();
        let sorted = self.words.len();
        self.seal(sorted, schema)
    }

    /// [`finish`](Self::finish) with `event_ids` as given.
    pub(crate) fn finish_with(
        &mut self,
        event_ids: &[EventId],
        schema: &Arc<MatchSchema>,
    ) -> Match {
        self.words.clear();
        self.words.extend_from_slice(event_ids);
        self.seal(event_ids.len(), schema)
    }

    fn seal(&mut self, sorted: usize, schema: &Arc<MatchSchema>) -> Match {
        debug_assert_eq!(self.ends.len(), schema.kleene_count);
        self.words.extend_from_slice(&self.bound);
        self.words.extend_from_slice(&self.ends);
        self.bound.clear();
        self.ends.clear();
        Match {
            event_ids: MatchIds {
                words: self.words.as_slice().into(),
                sorted,
            },
            schema: Arc::clone(schema),
        }
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

    /// Move the matches emitted since the last drain to the end of `out`,
    /// oldest first. The engine keeps its own list's capacity, so a caller
    /// that drains after every event regrows nothing.
    fn drain_into(&mut self, out: &mut Vec<Match>);

    /// Work counters.
    fn stats(&self) -> &EngineStats;

    /// Feed a whole slice and collect everything it emits.
    fn run(&mut self, events: &[PrimitiveEvent]) -> Vec<Match> {
        let mut out = Vec::new();
        for ev in events {
            self.process(ev);
            self.drain_into(&mut out);
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
