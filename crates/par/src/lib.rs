//! `dlacep-par` — a from-scratch parallel runtime for the DLACEP
//! reproduction. No external dependencies: the vendored crates in this
//! workspace are offline stubs, so everything here is `std::thread`,
//! mutexes, and condvars.
//!
//! Two layers:
//! - [`ThreadPool`]: a fixed-size work-stealing pool with chunked
//!   [`ThreadPool::parallel_for`] / [`ThreadPool::parallel_map`] primitives.
//! - [`Parallelism`]: the user-facing knob threaded through
//!   `Dlacep` / `StreamingDlacep` — a thread count. Its one user is the
//!   filter stage, which marks batches of windows on the pool.
//!
//! Determinism contract: work decomposition (chunk boundaries, window
//! batches) is always a pure function of the input, never of the thread
//! count or runtime scheduling, and results are written to per-index
//! slots. Consequently the pipeline output is bitwise identical for any
//! `threads >= 1`, and `threads = 1` takes the untouched serial code path.

mod pool;

pub use pool::{PoolStats, ThreadPool};

use std::sync::Arc;

use serde::{Deserialize, Serialize};

/// Parallel execution configuration, threaded through `Dlacep` and
/// `StreamingDlacep`. The default is fully serial (`threads = 1`), which is
/// byte-identical to the pre-parallel code path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Parallelism {
    /// Total threads (the submitting thread counts as one). `1` = serial,
    /// `0` = auto-detect from `std::thread::available_parallelism`.
    pub threads: usize,
}

impl Parallelism {
    /// Fully serial configuration (the default).
    pub fn serial() -> Self {
        Self::with_threads(1)
    }

    /// An explicit thread count.
    pub fn with_threads(threads: usize) -> Self {
        Parallelism { threads }
    }

    /// Resolve `threads = 0` to the machine's available parallelism.
    pub fn effective_threads(&self) -> usize {
        match self.threads {
            0 => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            n => n,
        }
    }

    /// Build a pool reporting its `pool.*` metrics into `registry`, or
    /// `None` when the config resolves to serial.
    pub fn build_pool(&self, registry: &dlacep_obs::Registry) -> Option<Arc<ThreadPool>> {
        let threads = self.effective_threads();
        if threads <= 1 {
            None
        } else {
            Some(Arc::new(ThreadPool::with_obs(threads, registry)))
        }
    }
}

impl Default for Parallelism {
    fn default() -> Self {
        Self::serial()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_parallelism_is_serial() {
        let p = Parallelism::default();
        assert_eq!(p.threads, 1);
        assert_eq!(p.effective_threads(), 1);
        assert!(p.build_pool(&dlacep_obs::global()).is_none());
    }

    #[test]
    fn auto_resolves_to_at_least_one_thread() {
        assert!(Parallelism::with_threads(0).effective_threads() >= 1);
    }

    #[test]
    fn build_pool_matches_thread_count() {
        let p = Parallelism::with_threads(3);
        let pool = p
            .build_pool(&dlacep_obs::global())
            .expect("threads=3 must build a pool");
        assert_eq!(pool.threads(), 3);
    }

    #[test]
    fn parallelism_round_trips_through_serde() {
        let p = Parallelism::with_threads(4);
        let json = serde_json::to_string(&p).unwrap();
        let back: Parallelism = serde_json::from_str(&json).unwrap();
        assert_eq!(p, back);
    }
}
