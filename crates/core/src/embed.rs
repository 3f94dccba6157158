//! Event embedding (paper §4.3).
//!
//! Each primitive event becomes a dense vector: a *compacted* one-hot of the
//! pattern-relevant event types (each relevant type gets its own slot, every
//! other type shares one "other" slot — the paper's example compresses 500
//! types to 2 when only one is pattern-relevant) concatenated with the
//! event's numeric attributes (already standardized by the data layer).

use dlacep_cep::plan::Plan;
use dlacep_cep::TypeSet;
use dlacep_events::{PrimitiveEvent, TypeId};
use serde::{DeError, Deserialize, Serialize, Value};
use std::collections::HashMap;

/// A fitted embedder mapping events to fixed-width vectors.
#[derive(Debug, Clone, PartialEq)]
pub struct EventEmbedder {
    /// Relevant type → one-hot slot, one entry per type, sorted by type:
    /// [`EventEmbedder::slot`] bisects it, so embedding an event costs a
    /// few comparisons instead of a SipHash.
    slots: Vec<(TypeId, usize)>,
    /// Slot count for types (relevant types + 1 "other" slot).
    type_slots: usize,
    /// Number of numeric attributes appended.
    num_attrs: usize,
}

/// `(type, slot)` entries as a map keeps them: sorted by type, and of two
/// entries for one type the later one.
fn by_type(entries: impl IntoIterator<Item = (TypeId, usize)>) -> Vec<(TypeId, usize)> {
    let mut slots: Vec<_> = entries.into_iter().collect();
    slots.reverse();
    slots.sort_by_key(|&(t, _)| t);
    slots.dedup_by_key(|&mut (t, _)| t);
    slots
}

impl EventEmbedder {
    /// Build from the set of pattern-relevant types.
    pub fn new(relevant: &TypeSet, num_attrs: usize) -> Self {
        let slots = by_type(relevant.types().iter().enumerate().map(|(i, &t)| (t, i)));
        Self {
            type_slots: slots.len() + 1,
            slots,
            num_attrs,
        }
    }

    /// The one-hot slot of an event type: its own for a relevant type, the
    /// shared "other" slot for every other type.
    fn slot(&self, type_id: TypeId) -> usize {
        match self.slots.binary_search_by_key(&type_id, |&(t, _)| t) {
            Ok(i) => self.slots[i].1,
            Err(_) => self.type_slots - 1,
        }
    }

    /// Build from a compiled plan (relevant types = all leaf types, including
    /// Kleene-inner and negated elements).
    pub fn for_plan(plan: &Plan, num_attrs: usize) -> Self {
        Self::new(&dlacep_data::label::relevant_types(plan), num_attrs)
    }

    /// Width of the produced vectors.
    pub fn dim(&self) -> usize {
        self.type_slots + self.num_attrs
    }

    /// Embed one event.
    pub fn embed(&self, ev: &PrimitiveEvent) -> Vec<f32> {
        let mut v = vec![0.0_f32; self.dim()];
        v[self.slot(ev.type_id)] = 1.0;
        for (i, a) in ev.attrs.iter().take(self.num_attrs).enumerate() {
            v[self.type_slots + i] = *a as f32;
        }
        v
    }

    /// Embed one event into a caller-provided buffer of width
    /// [`EventEmbedder::dim`] without allocating (the quantized fast path
    /// writes straight into its scratch arena).
    ///
    /// # Panics
    /// Panics if `out.len() != self.dim()`.
    pub fn embed_into(&self, ev: &PrimitiveEvent, out: &mut [f32]) {
        assert_eq!(out.len(), self.dim(), "embed_into buffer width mismatch");
        out.fill(0.0);
        out[self.slot(ev.type_id)] = 1.0;
        for (i, a) in ev.attrs.iter().take(self.num_attrs).enumerate() {
            out[self.type_slots + i] = *a as f32;
        }
    }

    /// Embed a window, padding with all-zero "blank event" vectors up to
    /// `pad_to` (used for simulated time-based windows, paper Fig. 14).
    pub fn embed_window(&self, events: &[PrimitiveEvent], pad_to: usize) -> Vec<Vec<f32>> {
        let mut out: Vec<Vec<f32>> = events.iter().map(|e| self.embed(e)).collect();
        while out.len() < pad_to {
            out.push(vec![0.0; self.dim()]);
        }
        out
    }
}

// The JSON form is the one a derive over a `slots` map wrote: the map's
// entries keyed by type, in the order the map serializer sorts them.
impl Serialize for EventEmbedder {
    fn to_value(&self) -> Value {
        let slots: HashMap<TypeId, usize> = self.slots.iter().copied().collect();
        Value::Map(vec![
            ("slots".into(), slots.to_value()),
            ("type_slots".into(), self.type_slots.to_value()),
            ("num_attrs".into(), self.num_attrs.to_value()),
        ])
    }
}

impl Deserialize for EventEmbedder {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let m = v
            .as_map()
            .ok_or_else(|| DeError::new("expected map for EventEmbedder"))?;
        let slots: HashMap<TypeId, usize> = serde::field(m, "slots")?;
        Ok(Self {
            slots: by_type(slots),
            type_slots: serde::field(m, "type_slots")?,
            num_attrs: serde::field(m, "num_attrs")?,
        })
    }
}

// Binary codec (quantized-filter bundles): the slots are encoded as an
// entry list sorted by slot, the order the format was defined with when
// they were kept in a hash map.
impl dlacep_dur::Enc for EventEmbedder {
    fn enc(&self, e: &mut dlacep_dur::Encoder) {
        let mut entries = self.slots.clone();
        entries.sort_by_key(|&(_, s)| s);
        e.put(&(entries.len() as u64));
        for (t, s) in entries {
            e.put(&t);
            e.put(&s);
        }
        e.put(&self.type_slots);
        e.put(&self.num_attrs);
    }
}

impl dlacep_dur::Dec for EventEmbedder {
    fn dec(d: &mut dlacep_dur::Decoder<'_>) -> Result<Self, dlacep_dur::CodecError> {
        let n: u64 = d.get()?;
        let mut slots = Vec::new();
        for _ in 0..n {
            let t: TypeId = d.get()?;
            let s: usize = d.get()?;
            slots.push((t, s));
        }
        let slots = by_type(slots);
        let type_slots: usize = d.get()?;
        let num_attrs: usize = d.get()?;
        if type_slots != slots.len() + 1 {
            return Err(dlacep_dur::CodecError::Malformed(
                "embedder slot count inconsistent".into(),
            ));
        }
        Ok(Self {
            slots,
            type_slots,
            num_attrs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: u32, attrs: Vec<f64>) -> PrimitiveEvent {
        PrimitiveEvent::new(0, TypeId(t), 0, attrs)
    }

    fn embedder() -> EventEmbedder {
        EventEmbedder::new(&TypeSet::new(vec![TypeId(3), TypeId(7)]), 1)
    }

    #[test]
    fn dim_is_types_plus_other_plus_attrs() {
        assert_eq!(embedder().dim(), 2 + 1 + 1);
    }

    #[test]
    fn relevant_types_get_own_slots() {
        let e = embedder();
        let a = e.embed(&ev(3, vec![0.5]));
        let b = e.embed(&ev(7, vec![0.5]));
        assert_eq!(a[..3], [1.0, 0.0, 0.0]);
        assert_eq!(b[..3], [0.0, 1.0, 0.0]);
    }

    #[test]
    fn irrelevant_types_share_other_slot() {
        let e = embedder();
        let x = e.embed(&ev(99, vec![0.0]));
        let y = e.embed(&ev(55, vec![0.0]));
        assert_eq!(x[..3], [0.0, 0.0, 1.0]);
        assert_eq!(x[..3], y[..3]);
    }

    #[test]
    fn attributes_are_appended() {
        let e = embedder();
        let v = e.embed(&ev(3, vec![-1.25]));
        assert_eq!(v[3], -1.25);
    }

    #[test]
    fn missing_attrs_stay_zero() {
        let e = embedder();
        let v = e.embed(&ev(3, vec![]));
        assert_eq!(v[3], 0.0);
    }

    #[test]
    fn slot_table_equals_the_map() {
        let types = [TypeId(40), TypeId(3), TypeId(7), TypeId(0)];
        let relevant = TypeSet::new(types.to_vec());
        let e = EventEmbedder::new(&relevant, 2);
        // The map the embedder used to look types up in.
        let map: HashMap<TypeId, usize> = relevant
            .types()
            .iter()
            .enumerate()
            .map(|(i, &t)| (t, i))
            .collect();
        let by_map = |t: TypeId| map.get(&t).copied().unwrap_or(e.type_slots - 1);
        // Relevant types, irrelevant types between and below them, and
        // types beyond the largest relevant one.
        let beyond = [41, 1_000, u32::MAX - 1, u32::MAX];
        for t in (0..=45).chain(beyond).map(TypeId) {
            assert_eq!(e.slot(t), by_map(t), "{t:?}");
            let v = e.embed(&ev(t.0, vec![0.5, -1.0]));
            assert_eq!(v[by_map(t)], 1.0, "{t:?}");
            assert_eq!(v[..e.type_slots].iter().sum::<f32>(), 1.0, "{t:?}");
        }
        for (i, t) in types.into_iter().enumerate() {
            assert_eq!(e.slot(t), map[&t]);
            assert!(
                e.slot(t) < types.len(),
                "relevant type {i} has its own slot"
            );
        }
        // Decoding either form gives the same embedder back.
        let mut en = dlacep_dur::Encoder::new();
        en.put(&e);
        let bytes = en.into_bytes();
        let back: EventEmbedder = dlacep_dur::Decoder::new(&bytes).get().unwrap();
        let json: EventEmbedder =
            serde_json::from_str(&serde_json::to_string(&e).unwrap()).unwrap();
        assert_eq!((&back, &json), (&e, &e));
    }

    #[test]
    fn padding_adds_blank_vectors() {
        let e = embedder();
        let w = e.embed_window(&[ev(3, vec![1.0])], 3);
        assert_eq!(w.len(), 3);
        assert!(w[1].iter().all(|&x| x == 0.0));
        assert!(w[2].iter().all(|&x| x == 0.0));
    }
}
