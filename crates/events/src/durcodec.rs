//! Binary durability codec impls ([`dlacep_dur::Enc`]/[`Dec`]) for the
//! event model, used by the WAL and checkpoint layers. JSON comes from the
//! serde derives on [`crate::EventStream`] itself.
//!
//! Floats round-trip through raw bits (see `dlacep-dur`), so a replayed
//! event is bit-identical to the original — a precondition for the
//! crash-recovery equivalence proof.
//!
//! [`Dec`]: dlacep_dur::Dec

use dlacep_dur::{CodecError, Dec, Decoder, Enc, Encoder};

use crate::event::{EventId, PrimitiveEvent, Timestamp, TypeId};

impl Enc for EventId {
    fn enc(&self, e: &mut Encoder) {
        e.put_u64(self.0);
    }
}

impl Dec for EventId {
    fn dec(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(EventId(d.take_u64()?))
    }
}

impl Enc for TypeId {
    fn enc(&self, e: &mut Encoder) {
        e.put_u32(self.0);
    }
}

impl Dec for TypeId {
    fn dec(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(TypeId(d.take_u32()?))
    }
}

impl Enc for Timestamp {
    fn enc(&self, e: &mut Encoder) {
        e.put_u64(self.0);
    }
}

impl Dec for Timestamp {
    fn dec(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(Timestamp(d.take_u64()?))
    }
}

impl Enc for PrimitiveEvent {
    fn enc(&self, e: &mut Encoder) {
        e.put(&self.id);
        e.put(&self.type_id);
        e.put(&self.ts);
        e.put(&self.attrs);
    }
}

impl Dec for PrimitiveEvent {
    fn dec(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(PrimitiveEvent {
            id: d.get()?,
            type_id: d.get()?,
            ts: d.get()?,
            attrs: d.get()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_event_round_trips_bit_exactly() {
        let ev = PrimitiveEvent::new(42, TypeId(7), 1234, vec![1.5, -0.0, f64::NAN, 1e-308]);
        let mut e = Encoder::new();
        e.put(&ev);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        let back: PrimitiveEvent = d.get().unwrap();
        d.finish().unwrap();
        assert_eq!(back.id, ev.id);
        assert_eq!(back.type_id, ev.type_id);
        assert_eq!(back.ts, ev.ts);
        assert_eq!(back.attrs.len(), ev.attrs.len());
        for (a, b) in back.attrs.iter().zip(&ev.attrs) {
            assert_eq!(a.to_bits(), b.to_bits(), "bit-exact including NaN and -0.0");
        }
    }

    #[test]
    fn truncated_event_bytes_error_cleanly() {
        let ev = PrimitiveEvent::new(1, TypeId(0), 2, vec![3.0]);
        let mut e = Encoder::new();
        e.put(&ev);
        let bytes = e.into_bytes();
        for cut in 0..bytes.len() {
            assert!(Decoder::new(&bytes[..cut]).get::<PrimitiveEvent>().is_err());
        }
    }
}
