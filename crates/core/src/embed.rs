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
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// A fitted embedder mapping events to fixed-width vectors.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EventEmbedder {
    /// Relevant type → one-hot slot.
    slots: HashMap<TypeId, usize>,
    /// Slot count for types (relevant types + 1 "other" slot).
    type_slots: usize,
    /// Number of numeric attributes appended.
    num_attrs: usize,
}

impl EventEmbedder {
    /// Build from the set of pattern-relevant types.
    pub fn new(relevant: &TypeSet, num_attrs: usize) -> Self {
        let slots: HashMap<TypeId, usize> = relevant
            .types()
            .iter()
            .enumerate()
            .map(|(i, &t)| (t, i))
            .collect();
        Self {
            type_slots: slots.len() + 1,
            slots,
            num_attrs,
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
        let slot = self
            .slots
            .get(&ev.type_id)
            .copied()
            .unwrap_or(self.type_slots - 1);
        v[slot] = 1.0;
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
        let slot = self
            .slots
            .get(&ev.type_id)
            .copied()
            .unwrap_or(self.type_slots - 1);
        out[slot] = 1.0;
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

// Binary codec (quantized-filter bundles): the slot map is encoded as a
// slot-sorted entry list so the byte stream is deterministic regardless of
// hash order.
impl dlacep_dur::Enc for EventEmbedder {
    fn enc(&self, e: &mut dlacep_dur::Encoder) {
        let mut entries: Vec<(TypeId, usize)> = self.slots.iter().map(|(&t, &s)| (t, s)).collect();
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
        let mut slots = HashMap::new();
        for _ in 0..n {
            let t: TypeId = d.get()?;
            let s: usize = d.get()?;
            slots.insert(t, s);
        }
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
    fn padding_adds_blank_vectors() {
        let e = embedder();
        let w = e.embed_window(&[ev(3, vec![1.0])], 3);
        assert_eq!(w.len(), 3);
        assert!(w[1].iter().all(|&x| x == 0.0));
        assert!(w[2].iter().all(|&x| x == 0.0));
    }
}
