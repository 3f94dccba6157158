//! One hash over emitted output, whichever form the output is in. Recovery
//! folds each logged record into its key's [`EmittedMark`] without decoding
//! it ([`EmittedMark::push_encoded`]); restore compares that fold with the
//! mark the checkpointing runtime advanced match by match
//! ([`EmittedMark::push`]). Pinned here over arbitrary matches — Kleene
//! bindings with many ids, no bindings at all, multi-byte UTF-8 binding
//! names — one match at a time and over a sequence. A record cut short, or
//! with any bit flipped, is refused with a typed [`CodecError`] exactly when
//! decoding it would be, never panics, and allocates nothing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dlacep_cep::Match;
use dlacep_core::runtime::EmittedMark;
use dlacep_dur::{CodecError, Decoder, Encoder};
use dlacep_events::EventId;
use proptest::prelude::*;

thread_local! {
    /// Allocations made by this thread: the properties run side by side on
    /// several threads, and each counts only its own.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Counts every allocation of the calling thread.
struct CountingAlloc;

fn count() {
    // A thread being torn down has no counter left; its allocations are
    // nobody's measurement.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a statistic and publishes nothing.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's obligations are `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// `f`'s result and the allocations it made.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

/// Binding names: pattern-style ones, the empty one, and two- to
/// four-byte UTF-8.
const NAMES: [&str; 7] = ["a", "s12", "", "kleene_k1", "é", "名前", "🦀x"];

/// A match from generated parts: `ids` as its event ids, one binding per
/// entry of `bindings`, named by the matching entry of `names`.
fn build(ids: Vec<u64>, bindings: Vec<Vec<u64>>, names: &[usize]) -> Match {
    let to_ids = |v: Vec<u64>| v.into_iter().map(EventId).collect::<Vec<_>>();
    Match::from_parts(
        &to_ids(ids),
        bindings
            .into_iter()
            .enumerate()
            .map(|(i, bound)| (NAMES[names[i % names.len()]].to_string(), to_ids(bound)))
            .collect(),
    )
}

fn enc(m: &Match) -> Vec<u8> {
    let mut e = Encoder::new();
    e.put(m);
    e.into_bytes()
}

/// What decoding refuses: `record` is not exactly one match's encoding.
fn decodes(record: &[u8]) -> Option<Match> {
    let mut d = Decoder::new(record);
    let m = d.get::<Match>().ok()?;
    d.finish().ok().map(|_| m)
}

/// Fold `record` into a copy of `mark`, counting allocations.
fn fold(mark: EmittedMark, record: &[u8]) -> (Result<EmittedMark, CodecError>, u64) {
    allocations(|| {
        let mut folded = mark;
        folded.push_encoded(record).map(|_| folded)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn folding_a_match_encoding_is_pushing_the_match(
        ids in prop::collection::vec(0u64..u64::MAX, 0..12),
        bindings in prop::collection::vec(prop::collection::vec(0u64..1 << 40, 0..64), 0..5),
        names in prop::collection::vec(0usize..NAMES.len(), 5),
        start in 0u64..u64::MAX,
    ) {
        let m = build(ids, bindings, &names);
        let mut pushed = EmittedMark { count: 7, hash: start };
        let before = pushed;
        pushed.push(&m);
        let (folded, allocs) = fold(before, &enc(&m));
        prop_assert_eq!(folded, Ok(pushed));
        prop_assert_eq!(allocs, 0);
    }

    #[test]
    fn folding_a_sequence_of_encodings_is_the_mark_of_the_sequence(
        seq in prop::collection::vec(
            prop::collection::vec(prop::collection::vec(0u64..1 << 20, 0..24), 0..4),
            0..12,
        ),
        names in prop::collection::vec(0usize..NAMES.len(), 4),
    ) {
        let matches: Vec<Match> = seq
            .into_iter()
            .enumerate()
            .map(|(i, bindings)| {
                let ids = bindings.concat();
                build(ids, bindings, &names[i % 2..])
            })
            .collect();
        let records: Vec<Vec<u8>> = matches.iter().map(enc).collect();
        let (folded, allocs) = allocations(|| {
            let mut mark = EmittedMark::default();
            for r in &records {
                mark.push_encoded(r)?;
            }
            Ok::<_, CodecError>(mark)
        });
        prop_assert_eq!(folded, Ok(EmittedMark::of(&matches)));
        prop_assert_eq!(allocs, 0);
    }

    #[test]
    fn a_cut_short_or_bit_flipped_record_is_refused_as_decoding_refuses_it(
        ids in prop::collection::vec(0u64..1 << 12, 0..8),
        bindings in prop::collection::vec(prop::collection::vec(0u64..1 << 12, 0..16), 0..4),
        names in prop::collection::vec(0usize..NAMES.len(), 4),
        flip_at in 0.0f64..1.0,
        bit in 0u32..8,
    ) {
        let m = build(ids, bindings, &names);
        let record = enc(&m);
        let mark = EmittedMark { count: 3, hash: 0x5eed };

        // Every proper prefix is a torn record.
        for cut in 0..record.len() {
            let (folded, allocs) = fold(mark, &record[..cut]);
            prop_assert!(
                matches!(folded, Err(CodecError::Truncated { .. })),
                "cut at {}: {:?}", cut, folded
            );
            prop_assert_eq!(allocs, 0);
        }
        let mut longer = record.clone();
        longer.push(0);
        let (folded, allocs) = fold(mark, &longer);
        prop_assert_eq!(folded, Err(CodecError::TrailingBytes { remaining: 1 }));
        prop_assert_eq!(allocs, 0);

        // A flipped bit may still encode some match (an id, a name byte that
        // stays UTF-8): then the fold is that match's push. Otherwise it is
        // refused, typed, as decoding refuses it.
        let mut flipped = record.clone();
        let at = ((record.len() as f64 * flip_at) as usize).min(record.len() - 1);
        flipped[at] ^= 1 << bit;
        let (folded, allocs) = fold(mark, &flipped);
        prop_assert_eq!(allocs, 0);
        match decodes(&flipped) {
            Some(other) => {
                let mut pushed = mark;
                pushed.push(&other);
                prop_assert_eq!(folded, Ok(pushed));
            }
            None => prop_assert!(folded.is_err(), "flip {} at {} folded", bit, at),
        }
    }
}

#[test]
fn a_name_that_is_not_utf8_is_refused_without_allocating() {
    let m = build(vec![1, 2], vec![vec![1], vec![2]], &[5]);
    let mut record = enc(&m);
    // The first byte of the first name, "名": a lone continuation byte.
    let name_at = 8 + 2 * 8 + 8 + 8;
    assert_eq!(record[name_at], "名".as_bytes()[0]);
    record[name_at] = 0x80;
    assert!(decodes(&record).is_none());
    let (folded, allocs) = fold(EmittedMark::default(), &record);
    assert_eq!((folded, allocs), (Err(CodecError::InvalidUtf8), 0));
}
