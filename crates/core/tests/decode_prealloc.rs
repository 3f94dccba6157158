//! A count read from untrusted bytes reserves no more memory than those
//! bytes: a frame that announces 2^40 elements and then ends fails with a
//! typed [`CodecError::Truncated`], and no single allocation made while
//! decoding it is larger than the frame. Pinned for the three decoders
//! that reserve by a count they read — a `Vec<T>` (here of ids, of
//! strings, and of `(name, ids)` bindings), a [`Match`]'s bindings, and a
//! logged offer's attributes. Where an element takes more memory than its
//! smallest encoding (a string, a binding), the frames end inside the
//! first element: what the decoder then holds is only what it reserved.
//! Reserving the count capped by the remaining *bytes*, as elements,
//! reserved up to `size_of::<T>()` times the frame: 48 times for a binding.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dlacep_cep::Match;
use dlacep_core::decode_offer;
use dlacep_dur::{CodecError, Dec, Decoder, Encoder};
use dlacep_events::EventId;

thread_local! {
    /// The largest allocation this thread made since the last reset: the
    /// tests run side by side on several threads, and each reads only its
    /// own.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

/// Tracks the largest allocation of the calling thread.
struct LargestAlloc;

fn note(size: usize) {
    // A thread being torn down has no counter left; its allocations are
    // nobody's measurement.
    let _ = LARGEST.try_with(|n| n.set(n.get().max(size)));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a statistic and publishes nothing.
unsafe impl GlobalAlloc for LargestAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's obligations are `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: LargestAlloc = LargestAlloc;

/// A count no frame could back.
const FORGED: u64 = 1 << 40;

/// `prefix`, the forged count, then `tail` bytes of zeros.
fn frame(prefix: impl FnOnce(&mut Encoder), tail: usize) -> Vec<u8> {
    let mut e = Encoder::new();
    prefix(&mut e);
    e.put_u64(FORGED);
    e.put_bytes(&vec![0; tail]);
    e.into_bytes()
}

/// Decode `bytes` with `decode`; it must fail as truncated, and no single
/// allocation it made may exceed `bytes.len()`.
fn refused<T: std::fmt::Debug>(
    what: &str,
    bytes: &[u8],
    decode: impl FnOnce(&[u8]) -> Result<T, CodecError>,
) {
    LARGEST.with(|n| n.set(0));
    let got = decode(bytes);
    let largest = LARGEST.with(Cell::get);
    assert!(
        matches!(got, Err(CodecError::Truncated { .. })),
        "{what}: {got:?}"
    );
    assert!(
        largest <= bytes.len(),
        "{what}: a {largest}-byte allocation for a {}-byte frame",
        bytes.len()
    );
}

fn whole<T: Dec>(bytes: &[u8]) -> Result<T, CodecError> {
    Decoder::new(bytes).get::<T>()
}

#[test]
fn forged_vec_counts_reserve_within_the_frame() {
    for tail in [0, 7, 8, 40, 200] {
        refused("ids", &frame(|_| {}, tail), whole::<Vec<EventId>>);
    }
    for tail in [1, 7] {
        let bytes = frame(|_| {}, tail);
        refused("strings", &bytes, whole::<Vec<String>>);
        refused("bindings", &bytes, whole::<Vec<(String, Vec<EventId>)>>);
    }
}

#[test]
fn a_forged_binding_count_reserves_within_the_frame() {
    for tail in [1, 7, 15] {
        // No event ids, then the forged binding count.
        let bytes = frame(|e| e.put_u64(0), tail);
        refused("match", &bytes, whole::<Match>);
    }
}

#[test]
fn a_forged_attribute_count_reserves_within_the_frame() {
    for tail in [0, 8, 200] {
        let bytes = frame(
            |e| {
                e.put_u32(3);
                e.put_u64(17);
            },
            tail,
        );
        refused("offer", &bytes, decode_offer);
    }
}

#[test]
fn valid_input_decodes_as_before() {
    let ids: Vec<EventId> = (0..100).map(EventId).collect();
    let mut e = Encoder::new();
    e.put(&ids);
    let back: Vec<EventId> = whole(e.bytes()).unwrap();
    assert_eq!(back, ids);
    assert_eq!(back.capacity(), ids.len(), "ids reserve their exact count");
    let m = Match::from_bindings(vec![
        ("a".into(), vec![EventId(1)]),
        ("k".into(), vec![EventId(2), EventId(5)]),
    ]);
    let mut e = Encoder::new();
    e.put(&m);
    assert_eq!(whole::<Match>(e.bytes()).unwrap(), m);
}
