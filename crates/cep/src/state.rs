//! Engine state export/import for checkpointing.
//!
//! Crash recovery (see `dlacep-dur`) restores a CEP engine by rebuilding its
//! compiled structures from the pattern and then re-injecting only the
//! *mutable* runtime state captured here: the event arena, pending (undrained)
//! matches, work counters, and the stored partial matches. Everything derived
//! from the pattern — resolvers, successor masks, tree shapes — is
//! reconstructed by the engine constructors, so it never hits disk and cannot
//! drift out of sync with the code that interprets it.
//!
//! The snapshot types mirror the engines' private stores field-for-field and
//! implement the `dlacep-dur` binary codec ([`Enc`]/[`Dec`]), so a state blob
//! embeds directly into a checkpoint frame. Import validates shape (branch,
//! step and node counts) against the target engine and fails with
//! [`StateError`] rather than silently mis-binding — restoring into an engine
//! compiled from a different pattern (or, for trees, a different cost model)
//! is a configuration error, not a recovery path.

use dlacep_dur::{CodecError, Dec, Decoder, Enc, Encoder};
use dlacep_events::{EventId, PrimitiveEvent};
use std::sync::Arc;

use crate::engine::{EngineStats, Match, MatchBuilder, MatchSchema};

/// A state blob does not fit the engine it is being imported into.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateError(pub String);

impl std::fmt::Display for StateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "engine state mismatch: {}", self.0)
    }
}

impl std::error::Error for StateError {}

/// Snapshot of one Kleene step inside a partial match
/// (mirrors `nfa::KleeneState`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct KleeneSnapshot {
    /// Completed iterations (event ids per inner element).
    pub iterations: Vec<Vec<EventId>>,
    /// Events of the iteration currently being assembled.
    pub in_progress: Vec<EventId>,
}

/// Snapshot of one stored NFA partial match (mirrors `nfa::PartialMatch`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartialSnapshot {
    /// Bound event per single step (`None` for Kleene steps / unbound).
    pub single: Vec<Option<EventId>>,
    /// Kleene state per Kleene ordinal.
    pub kleene: Vec<KleeneSnapshot>,
    /// Steps considered bound.
    pub bound: u64,
    pub min_id: u64,
    pub max_id: u64,
    pub min_ts: u64,
}

/// Full mutable state of an [`NfaEngine`](crate::NfaEngine).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NfaEngineState {
    /// Retained arena events, in arrival order.
    pub arena: Vec<PrimitiveEvent>,
    /// Matches emitted but not yet drained.
    pub pending: Vec<Match>,
    /// Work counters at capture time.
    pub stats: EngineStats,
    /// Stored partials, per branch (outer index = branch index).
    pub branches: Vec<Vec<PartialSnapshot>>,
}

/// Snapshot of one buffered tree sub-match (mirrors `tree::Entry`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EntrySnapshot {
    /// Bound event id per step index (`None` outside the node's range).
    pub ids: Vec<Option<EventId>>,
    pub mask: u64,
    pub min_id: u64,
    pub max_id: u64,
    pub min_ts: u64,
    pub max_ts: u64,
}

/// Full mutable state of a [`TreeEngine`](crate::TreeEngine).
///
/// Node buffers are indexed by the tree's node numbering, which depends on
/// the [`CostModel`](crate::CostModel) used at construction — import into an
/// engine built with the same pattern *and* cost model.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TreeEngineState {
    /// Retained arena events, in arrival order.
    pub arena: Vec<PrimitiveEvent>,
    /// Matches emitted but not yet drained.
    pub pending: Vec<Match>,
    /// Work counters at capture time.
    pub stats: EngineStats,
    /// Buffered entries per tree, per node (`trees[branch][node]`).
    pub trees: Vec<Vec<Vec<EntrySnapshot>>>,
}

/// A match encodes as its sorted ids, then its binding count and each
/// binding's name and ids — the bytes a match encoded as when it carried
/// its own names, so every log and checkpoint reads the same.
impl Enc for Match {
    fn enc(&self, e: &mut Encoder) {
        e.put(&*self.event_ids);
        let bindings = self.bindings();
        e.put_u64(bindings.len() as u64);
        for (name, ids) in bindings {
            e.put(name);
            e.put(ids);
        }
    }
}

/// A decoded match holds a schema of its own, built from its names; decode
/// a run of matches with a [`MatchReader`] to share one.
impl Dec for Match {
    fn dec(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        MatchReader::default().read(d)
    }
}

/// Decodes a run of match encodings, handing each match the previous
/// match's schema when both name the same bindings (names and Kleene
/// flags). A log of one pattern's output then reads back with its binding
/// names held once, as the engine emitted it, instead of once per match.
/// It reads the bytes `Dec for Match` reads.
#[derive(Debug, Default)]
pub struct MatchReader {
    schema: Option<Arc<MatchSchema>>,
    builder: MatchBuilder,
}

impl MatchReader {
    /// Decode the next match from `d`.
    pub fn read(&mut self, d: &mut Decoder<'_>) -> Result<Match, CodecError> {
        let event_ids: Vec<EventId> = d.get()?;
        let n = usize::dec(d)?;
        let mut bindings = Vec::with_capacity(d.capacity_for::<(String, Vec<EventId>)>(n));
        for _ in 0..n {
            let len = d.get::<usize>()?;
            let name =
                std::str::from_utf8(d.take_bytes(len)?).map_err(|_| CodecError::InvalidUtf8)?;
            let ids: Vec<EventId> = d.get()?;
            bindings.push((name, ids));
        }
        let reuse = self.schema.as_ref().is_some_and(|s| {
            s.names().len() == n
                && (s.names().iter().zip(s.kleene()))
                    .zip(&bindings)
                    .all(|((name, &kleene), (got, ids))| name == got && kleene == (ids.len() != 1))
        });
        if !reuse {
            let names = bindings
                .iter()
                .map(|(name, ids)| (name.to_string(), ids.len() != 1));
            self.schema = Some(Arc::new(MatchSchema::new(names, None)));
        }
        for (_, ids) in bindings {
            match ids.len() != 1 {
                true => self.builder.kleene(ids),
                false => self.builder.single(ids[0]),
            }
        }
        let schema = self.schema.as_ref().expect("set above");
        Ok(self.builder.finish_with(&event_ids, schema))
    }
}

impl Enc for EngineStats {
    fn enc(&self, e: &mut Encoder) {
        e.put_u64(self.events_processed);
        e.put_u64(self.partial_matches_created);
        e.put_u64(self.peak_partial_matches);
        e.put_u64(self.matches_emitted);
        e.put_u64(self.condition_evaluations);
        e.put_u64(self.partials_shed);
    }
}

impl Dec for EngineStats {
    fn dec(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(EngineStats {
            events_processed: d.take_u64()?,
            partial_matches_created: d.take_u64()?,
            peak_partial_matches: d.take_u64()?,
            matches_emitted: d.take_u64()?,
            condition_evaluations: d.take_u64()?,
            partials_shed: d.take_u64()?,
        })
    }
}

impl Enc for KleeneSnapshot {
    fn enc(&self, e: &mut Encoder) {
        e.put(&self.iterations);
        e.put(&self.in_progress);
    }
}

impl Dec for KleeneSnapshot {
    fn dec(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(KleeneSnapshot {
            iterations: d.get()?,
            in_progress: d.get()?,
        })
    }
}

impl Enc for PartialSnapshot {
    fn enc(&self, e: &mut Encoder) {
        e.put(&self.single);
        e.put(&self.kleene);
        e.put_u64(self.bound);
        e.put_u64(self.min_id);
        e.put_u64(self.max_id);
        e.put_u64(self.min_ts);
    }
}

impl Dec for PartialSnapshot {
    fn dec(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(PartialSnapshot {
            single: d.get()?,
            kleene: d.get()?,
            bound: d.take_u64()?,
            min_id: d.take_u64()?,
            max_id: d.take_u64()?,
            min_ts: d.take_u64()?,
        })
    }
}

impl Enc for NfaEngineState {
    fn enc(&self, e: &mut Encoder) {
        e.put(&self.arena);
        e.put(&self.pending);
        e.put(&self.stats);
        e.put(&self.branches);
    }
}

impl Dec for NfaEngineState {
    fn dec(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(NfaEngineState {
            arena: d.get()?,
            pending: d.get()?,
            stats: d.get()?,
            branches: d.get()?,
        })
    }
}

impl Enc for EntrySnapshot {
    fn enc(&self, e: &mut Encoder) {
        e.put(&self.ids);
        e.put_u64(self.mask);
        e.put_u64(self.min_id);
        e.put_u64(self.max_id);
        e.put_u64(self.min_ts);
        e.put_u64(self.max_ts);
    }
}

impl Dec for EntrySnapshot {
    fn dec(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(EntrySnapshot {
            ids: d.get()?,
            mask: d.take_u64()?,
            min_id: d.take_u64()?,
            max_id: d.take_u64()?,
            min_ts: d.take_u64()?,
            max_ts: d.take_u64()?,
        })
    }
}

impl Enc for TreeEngineState {
    fn enc(&self, e: &mut Encoder) {
        e.put(&self.arena);
        e.put(&self.pending);
        e.put(&self.stats);
        e.put(&self.trees);
    }
}

impl Dec for TreeEngineState {
    fn dec(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(TreeEngineState {
            arena: d.get()?,
            pending: d.get()?,
            stats: d.get()?,
            trees: d.get()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlacep_events::TypeId;

    fn round_trip<T: Enc + Dec + PartialEq + std::fmt::Debug>(v: &T) {
        let mut e = Encoder::new();
        e.put(v);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        let back: T = d.get().unwrap();
        d.finish().unwrap();
        assert_eq!(&back, v);
    }

    #[test]
    fn match_round_trips() {
        round_trip(&Match::from_bindings(vec![
            ("a".into(), vec![EventId(3)]),
            ("ks".into(), vec![EventId(5), EventId(9)]),
        ]));
    }

    #[test]
    fn a_run_of_one_patterns_matches_decodes_under_one_schema() {
        use crate::{CepEngine, NfaEngine, Pattern, PatternExpr, TypeSet};
        use dlacep_events::WindowSpec;
        let steps = ["a", "b", "c"].iter().zip(0..);
        let steps = steps.map(|(n, t)| PatternExpr::event(TypeSet::single(TypeId(t)), *n));
        let p = Pattern::new(
            PatternExpr::Seq(steps.collect()),
            vec![],
            WindowSpec::Count(9),
        );
        let events: Vec<PrimitiveEvent> = (0..2_000u64)
            .map(|i| PrimitiveEvent::new(i, TypeId((i % 3) as u32), i, vec![]))
            .collect();
        let mut matches = NfaEngine::new(&p).unwrap().run(&events);
        matches.truncate(1_000);
        assert_eq!(matches.len(), 1_000);
        let other = Match::from_bindings(vec![("x".into(), vec![EventId(1)])]);
        let mut e = Encoder::new();
        matches.iter().chain([&other]).for_each(|m| e.put(m));

        let mut d = Decoder::new(e.bytes());
        let mut reader = MatchReader::default();
        let back: Vec<Match> = (0..=1_000).map(|_| reader.read(&mut d).unwrap()).collect();
        d.finish().unwrap();
        assert_eq!(back[..1_000], matches[..]);
        assert_eq!(back[1_000], other);
        let shared = back[0].schema();
        assert!(back[..1_000]
            .iter()
            .all(|m| Arc::ptr_eq(m.schema(), shared)));
        // Other bindings get a schema of their own.
        assert!(!Arc::ptr_eq(back[1_000].schema(), shared));
    }

    #[test]
    fn nfa_state_round_trips() {
        let st = NfaEngineState {
            arena: vec![PrimitiveEvent::new(1, TypeId(2), 3, vec![4.5, f64::NAN])],
            pending: vec![Match::from_bindings(vec![("a".into(), vec![EventId(1)])])],
            stats: EngineStats {
                events_processed: 10,
                partial_matches_created: 4,
                peak_partial_matches: 3,
                matches_emitted: 1,
                condition_evaluations: 7,
                partials_shed: 0,
            },
            branches: vec![vec![PartialSnapshot {
                single: vec![Some(EventId(1)), None],
                kleene: vec![KleeneSnapshot {
                    iterations: vec![vec![EventId(2)]],
                    in_progress: vec![EventId(4)],
                }],
                bound: 0b01,
                min_id: 1,
                max_id: 4,
                min_ts: 3,
            }]],
        };
        // NaN != NaN, so compare through the encoded bytes instead.
        let mut e1 = Encoder::new();
        e1.put(&st);
        let bytes = e1.into_bytes();
        let mut d = Decoder::new(&bytes);
        let back: NfaEngineState = d.get().unwrap();
        d.finish().unwrap();
        let mut e2 = Encoder::new();
        e2.put(&back);
        assert_eq!(e2.into_bytes(), bytes, "decode/encode is the identity");
    }

    #[test]
    fn tree_state_round_trips() {
        round_trip(&TreeEngineState {
            arena: vec![PrimitiveEvent::new(7, TypeId(0), 8, vec![])],
            pending: vec![],
            stats: EngineStats::default(),
            trees: vec![vec![
                vec![EntrySnapshot {
                    ids: vec![Some(EventId(7)), None],
                    mask: 1,
                    min_id: 7,
                    max_id: 7,
                    min_ts: 8,
                    max_ts: 8,
                }],
                vec![],
                vec![],
            ]],
        });
    }

    #[test]
    fn truncated_state_errors_cleanly() {
        let mut e = Encoder::new();
        e.put(&NfaEngineState::default());
        let bytes = e.into_bytes();
        for cut in 0..bytes.len() {
            assert!(Decoder::new(&bytes[..cut]).get::<NfaEngineState>().is_err());
        }
    }
}
