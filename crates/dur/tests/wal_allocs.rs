//! The WAL's append path allocates per segment, not per record: the record
//! is framed in the log's own reused buffer and the store looks the active
//! segment up by `&str`. Its own test binary, because the counting
//! allocator is process-wide (the count itself is per thread).

use dlacep_dur::{MemStore, Wal, WalConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a const-initialised thread-local
// `Cell`, so touching it neither allocates nor can it be seen half-updated.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: as above; `ptr` came from this allocator, i.e. `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn append_allocates_far_less_than_once_per_record() {
    const RECORDS: u64 = 20_000;
    // The fleet's tuning and record size (`g | key | offer` ≈ 52 bytes):
    // 64 KiB segments, so the run crosses a dozen-odd rotations.
    let cfg = WalConfig {
        segment_max_bytes: 64 * 1024,
        sync_every: 0,
    };
    let mut store = MemStore::new();
    let (mut wal, _) = Wal::open(&mut store, cfg).unwrap();
    let payload = [0xA5u8; 52];
    wal.append(&mut store, &payload).unwrap(); // first segment, buffer sized

    let before = ALLOCS.with(Cell::get);
    for i in 0..RECORDS {
        if i % 2 == 0 {
            wal.append(&mut store, &payload).unwrap();
        } else {
            wal.append_with(&mut store, |e| {
                e.put_u64(i);
                e.put_bytes(&payload[8..]);
            })
            .unwrap();
        }
        if i % 32 == 31 {
            wal.sync(&mut store).unwrap();
        }
    }
    let allocs = ALLOCS.with(Cell::get) - before;
    assert_eq!(wal.next_seq(), RECORDS + 1);
    // What is left is per segment: its name, its header, and the doubling
    // of the in-memory file that holds it.
    assert!(
        allocs * 20 < RECORDS,
        "{allocs} allocations over {RECORDS} appends"
    );
}
