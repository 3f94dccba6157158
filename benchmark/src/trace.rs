//! Benchmark-side tracing: spans recorded around calls into each layer's
//! public functions, and a counting allocator for allocations per event.
//!
//! Both are off during untraced (`--trace 0`) runs: the allocator then
//! costs one relaxed load per allocation and no span is ever pushed, so
//! end-to-end numbers are measured without tracing.

use serde_json::Value;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// System allocator that counts allocations while counting is switched on.
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a statistic and
// publishes no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: same layout the caller handed us.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: `ptr` came from `System` with `layout`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Run `f` and return its result with the number of heap allocations (and
/// reallocations) every thread made meanwhile.
pub fn count_allocs<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.load(Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    let out = f();
    COUNTING.store(false, Ordering::Relaxed);
    (out, ALLOCS.load(Ordering::Relaxed) - before)
}

/// One recorded span: a call (or a batch of calls) into one layer.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// In-memory span recorder for one traced run of one workload.
pub struct Tracer {
    workload: String,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(workload: &str) -> Tracer {
        Tracer {
            workload: workload.to_string(),
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Record `f` as a span named `name`, nested under whichever span is
    /// open. Returns `f`'s result and the span's duration in nanoseconds.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> (T, u64) {
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        let end_ns = self.now_ns();
        self.spans[idx].end_ns = end_ns;
        (out, end_ns - start_ns)
    }

    pub fn to_json(&self) -> Value {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Value::Map(vec![
                    ("name".into(), Value::Str(s.name.to_string())),
                    ("start".into(), Value::UInt(s.start_ns)),
                    ("end".into(), Value::UInt(s.end_ns)),
                    (
                        "parent".into(),
                        s.parent.map_or(Value::Null, |p| Value::UInt(p as u64)),
                    ),
                    ("workload".into(), Value::Str(self.workload.clone())),
                ])
            })
            .collect();
        Value::Map(vec![
            ("workload".into(), Value::Str(self.workload.clone())),
            ("unit".into(), Value::Str("ns since trace start".into())),
            ("spans".into(), Value::Seq(spans)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_their_parent_and_enclose_it() {
        let mut t = Tracer::new("w");
        let ((), outer_ns) = t.span("outer", |t| {
            let ((), inner_ns) = t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            assert!(inner_ns >= 2_000_000);
        });
        assert!(outer_ns >= 2_000_000);
        assert_eq!(t.spans.len(), 2);
        assert_eq!((t.spans[0].parent, t.spans[1].parent), (None, Some(0)));
        assert!(t.spans[0].start_ns <= t.spans[1].start_ns);
        assert!(t.spans[0].end_ns >= t.spans[1].end_ns);
    }

    #[test]
    fn allocation_counter_sees_a_vec() {
        let ((), n) = count_allocs(|| {
            std::hint::black_box(Vec::<u64>::with_capacity(32));
        });
        assert!(n >= 1);
    }
}
