//! Deterministic crash injection.
//!
//! [`Schedule`] is the shared trigger language for every injection harness
//! in the workspace: `ChaosFilter` (in `dlacep-core`) keys filter faults
//! off it by *call index*, and [`FailingStore`] here keys storage death
//! off it by *durability tick*.
//!
//! ## The crash model
//!
//! `FailingStore` wraps any inner [`Store`] and simulates the one gap that
//! matters for recovery proofs: the OS page cache. Appends land in a
//! volatile buffer (zero ticks — a `write(2)` that only reached the page
//! cache). `sync` migrates buffered bytes into the inner store **one byte
//! per tick**; metadata operations (`truncate`/`rename`/`remove`) cost one
//! tick each. When the schedule fires at tick *t*, every byte before *t*
//! is durable, everything after is gone, and the store returns errors
//! forever — the process is dead. What the inner store holds at that
//! moment is exactly the disk image a power cut during `fsync` leaves
//! behind, torn record and all.
//!
//! A sweep harness runs once without a crash to learn the total tick count
//! `T`, then replays the workload with a crash at each tick in `0..=T`,
//! recovering from [`FailingStore::into_durable`] each time.

use std::collections::BTreeMap;
use std::io;

use crate::store::Store;

/// One firing rule over a 0-based index space (call index or tick).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trigger {
    /// Fire exactly at index `n`.
    At(u64),
    /// Fire at every index `>= n`.
    From(u64),
    /// Fire at every multiple of `n` (including index 0). `n` must be > 0.
    Every(u64),
}

impl Trigger {
    /// Whether this rule fires at `idx`.
    pub fn fires(&self, idx: u64) -> bool {
        match *self {
            Trigger::At(n) => idx == n,
            Trigger::From(n) => idx >= n,
            Trigger::Every(n) => idx.is_multiple_of(n),
        }
    }

    /// The first index in `start..end` at which this rule fires.
    fn first_in(&self, start: u64, end: u64) -> Option<u64> {
        match *self {
            Trigger::At(n) => (start..end).contains(&n).then_some(n),
            Trigger::From(n) => {
                let first = n.max(start);
                (first < end).then_some(first)
            }
            Trigger::Every(n) => {
                let first = start.next_multiple_of(n);
                (first < end).then_some(first)
            }
        }
    }
}

/// An ordered set of [`Trigger`]s — the deterministic injection schedule
/// shared by the torn-write harness and the filter-fault harness.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Schedule {
    triggers: Vec<Trigger>,
}

impl Schedule {
    /// A schedule that never fires.
    pub fn never() -> Self {
        Schedule::default()
    }

    /// Fire exactly at `idx`.
    pub fn at(mut self, idx: u64) -> Self {
        self.triggers.push(Trigger::At(idx));
        self
    }

    /// Fire at every index `>= idx`.
    pub fn from(mut self, idx: u64) -> Self {
        self.triggers.push(Trigger::From(idx));
        self
    }

    /// Fire at every multiple of `period` (including 0).
    ///
    /// # Panics
    /// Panics if `period == 0`.
    pub fn every(mut self, period: u64) -> Self {
        assert!(period > 0, "period must be positive");
        self.triggers.push(Trigger::Every(period));
        self
    }

    /// Whether any trigger fires at `idx`.
    pub fn fires(&self, idx: u64) -> bool {
        self.triggers.iter().any(|t| t.fires(idx))
    }

    /// Earliest index in `start..end` at which any trigger fires.
    pub fn first_fire_in(&self, start: u64, end: u64) -> Option<u64> {
        self.triggers
            .iter()
            .filter_map(|t| t.first_in(start, end))
            .min()
    }

    /// The rules in insertion order (first match wins for keyed uses).
    pub fn triggers(&self) -> &[Trigger] {
        &self.triggers
    }

    pub fn is_empty(&self) -> bool {
        self.triggers.is_empty()
    }
}

fn crashed_err() -> io::Error {
    io::Error::other("injected crash: store is dead")
}

/// Crash-injecting [`Store`] wrapper (see the module docs for the model).
#[derive(Debug)]
pub struct FailingStore<S> {
    inner: S,
    schedule: Schedule,
    tick: u64,
    crashed: bool,
    /// Appended-but-unsynced bytes per name — the simulated page cache.
    unsynced: BTreeMap<String, Vec<u8>>,
}

impl<S: Store> FailingStore<S> {
    /// Wrap `inner`; the store dies at the first tick `schedule` fires on.
    pub fn new(inner: S, schedule: Schedule) -> Self {
        FailingStore {
            inner,
            schedule,
            tick: 0,
            crashed: false,
            unsynced: BTreeMap::new(),
        }
    }

    /// Convenience: crash at exactly `tick`.
    pub fn crash_at(inner: S, tick: u64) -> Self {
        FailingStore::new(inner, Schedule::never().at(tick))
    }

    /// Durability ticks consumed so far (sweep harnesses run once with
    /// [`Schedule::never`] to size the crash-point space).
    pub fn ticks(&self) -> u64 {
        self.tick
    }

    /// Whether the injected crash has happened.
    pub fn crashed(&self) -> bool {
        self.crashed
    }

    /// Tear down the simulated process: drop the page cache and return the
    /// durable state a recovery would find on disk.
    pub fn into_durable(self) -> S {
        self.inner
    }

    fn check_alive(&self) -> io::Result<()> {
        if self.crashed {
            return Err(crashed_err());
        }
        Ok(())
    }

    /// Spend one metadata tick; errs (and kills the store) if the schedule
    /// fires on it, *before* the operation takes effect.
    fn metadata_tick(&mut self) -> io::Result<()> {
        self.check_alive()?;
        if self.schedule.fires(self.tick) {
            self.crashed = true;
            return Err(crashed_err());
        }
        self.tick += 1;
        Ok(())
    }

    fn unsynced_len(&self, name: &str) -> usize {
        self.unsynced.get(name).map_or(0, Vec::len)
    }
}

impl<S: Store> Store for FailingStore<S> {
    fn list(&self) -> io::Result<Vec<String>> {
        // Live (page-cache) view: names with only unsynced content included.
        let mut names = self.inner.list()?;
        for name in self.unsynced.keys() {
            if !names.iter().any(|n| n == name) {
                names.push(name.clone());
            }
        }
        names.sort();
        Ok(names)
    }

    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        let durable = match self.inner.read(name) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound && self.unsynced.contains_key(name) => {
                Vec::new()
            }
            Err(e) => return Err(e),
        };
        let mut out = durable;
        if let Some(pending) = self.unsynced.get(name) {
            out.extend_from_slice(pending);
        }
        Ok(out)
    }

    fn len(&self, name: &str) -> io::Result<u64> {
        match self.inner.len(name) {
            Ok(n) => Ok(n + self.unsynced_len(name) as u64),
            Err(e) if e.kind() == io::ErrorKind::NotFound && self.unsynced.contains_key(name) => {
                Ok(self.unsynced_len(name) as u64)
            }
            Err(e) => Err(e),
        }
    }

    fn append(&mut self, name: &str, bytes: &[u8]) -> io::Result<()> {
        self.check_alive()?;
        // Page-cache write: instantly visible, not durable, zero ticks.
        match self.unsynced.get_mut(name) {
            Some(pending) => pending.extend_from_slice(bytes),
            None => {
                self.unsynced.insert(name.to_string(), bytes.to_vec());
            }
        }
        Ok(())
    }

    fn sync(&mut self, name: &str) -> io::Result<()> {
        self.check_alive()?;
        let Some(pending) = self.unsynced.remove(name) else {
            return Ok(()); // nothing to flush: no durable state change
        };
        let n = pending.len() as u64;
        match self.schedule.first_fire_in(self.tick, self.tick + n) {
            None => {
                self.inner.append(name, &pending)?;
                self.tick += n;
                Ok(())
            }
            Some(fire) => {
                // The power cut lands mid-fsync: a prefix becomes durable,
                // the rest of the page cache is lost with the process.
                let durable_prefix = (fire - self.tick) as usize;
                self.inner.append(name, &pending[..durable_prefix])?;
                self.tick = fire;
                self.crashed = true;
                self.unsynced.clear();
                Err(crashed_err())
            }
        }
    }

    fn truncate(&mut self, name: &str, len: u64) -> io::Result<()> {
        self.metadata_tick()?;
        let durable_len = match self.inner.len(name) {
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::NotFound => 0,
            Err(e) => return Err(e),
        };
        if len <= durable_len {
            self.unsynced.remove(name);
            if durable_len > 0 || self.inner.exists(name)? {
                self.inner.truncate(name, len)?;
            }
        } else if let Some(pending) = self.unsynced.get_mut(name) {
            pending.truncate((len - durable_len) as usize);
        }
        Ok(())
    }

    fn rename(&mut self, from: &str, to: &str) -> io::Result<()> {
        self.metadata_tick()?;
        // Unsynced appends to the destination die with the replace; the
        // source's pending bytes follow it to the new name (still volatile).
        self.unsynced.remove(to);
        let pending_from = self.unsynced.remove(from);
        match self.inner.rename(from, to) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::NotFound && pending_from.is_some() => {
                // Source exists only in the page cache: the rename succeeds
                // in the live view but publishes nothing durable.
                let _ = self.inner.remove(to);
            }
            Err(e) => return Err(e),
        }
        if let Some(pending) = pending_from {
            self.unsynced.insert(to.to_string(), pending);
        }
        Ok(())
    }

    fn remove(&mut self, name: &str) -> io::Result<()> {
        self.metadata_tick()?;
        let had_pending = self.unsynced.remove(name).is_some();
        match self.inner.remove(name) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == io::ErrorKind::NotFound && had_pending => Ok(()),
            Err(e) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemStore;

    #[test]
    fn schedule_trigger_semantics() {
        let s = Schedule::never().at(3).every(5);
        assert!(s.fires(3));
        assert!(s.fires(0) && s.fires(5) && s.fires(10));
        assert!(!s.fires(4));
        assert_eq!(s.first_fire_in(1, 100), Some(3));
        assert_eq!(s.first_fire_in(4, 100), Some(5));
        assert_eq!(s.first_fire_in(4, 5), None);
        let f = Schedule::never().from(7);
        assert_eq!(f.first_fire_in(0, 100), Some(7));
        assert_eq!(f.first_fire_in(9, 100), Some(9));
        assert!(Schedule::never().first_fire_in(0, u64::MAX).is_none());
    }

    #[test]
    fn appends_are_volatile_until_sync() {
        let mut fs = FailingStore::new(MemStore::new(), Schedule::never());
        fs.append("f", b"abc").unwrap();
        assert_eq!(fs.read("f").unwrap(), b"abc", "live view sees page cache");
        assert_eq!(fs.ticks(), 0, "append costs no durability ticks");
        let durable = fs.into_durable();
        assert!(
            !durable.exists("f").unwrap(),
            "unsynced bytes die with the process"
        );
    }

    #[test]
    fn sync_makes_bytes_durable_and_ticks_per_byte() {
        let mut fs = FailingStore::new(MemStore::new(), Schedule::never());
        fs.append("f", b"abc").unwrap();
        fs.sync("f").unwrap();
        assert_eq!(fs.ticks(), 3);
        fs.sync("f").unwrap();
        assert_eq!(fs.ticks(), 3, "empty sync is free");
        assert_eq!(fs.into_durable().read("f").unwrap(), b"abc");
    }

    #[test]
    fn crash_mid_sync_leaves_exact_prefix() {
        for crash in 0..6u64 {
            let mut fs = FailingStore::crash_at(MemStore::new(), crash);
            fs.append("f", b"abcdef").unwrap();
            let err = fs.sync("f").unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::Other);
            assert!(fs.crashed());
            assert!(fs.append("f", b"x").is_err(), "dead store refuses writes");
            let durable = fs.into_durable();
            let on_disk = durable.read("f").unwrap_or_default();
            assert_eq!(on_disk, &b"abcdef"[..crash as usize], "crash at {crash}");
        }
    }

    #[test]
    fn metadata_ops_cost_one_tick_and_can_crash() {
        let mut fs = FailingStore::new(MemStore::new(), Schedule::never());
        fs.append("a", b"x").unwrap();
        fs.sync("a").unwrap(); // tick 0 consumed by the byte
        fs.rename("a", "b").unwrap(); // tick 1
        fs.remove("b").unwrap(); // tick 2
        assert_eq!(fs.ticks(), 3);

        let mut fs = FailingStore::crash_at(MemStore::new(), 1);
        fs.append("a", b"x").unwrap();
        fs.sync("a").unwrap();
        assert!(
            fs.rename("a", "b").is_err(),
            "crash lands on the rename tick"
        );
        let durable = fs.into_durable();
        assert!(durable.exists("a").unwrap(), "rename never happened");
        assert!(!durable.exists("b").unwrap());
    }

    #[test]
    fn rename_of_unsynced_file_publishes_nothing_durable() {
        let mut fs = FailingStore::new(MemStore::new(), Schedule::never());
        fs.append("tmp", b"data").unwrap();
        fs.rename("tmp", "final").unwrap();
        assert_eq!(
            fs.read("final").unwrap(),
            b"data",
            "live view follows the rename"
        );
        let durable = fs.into_durable();
        assert!(!durable.exists("final").unwrap());
        assert!(!durable.exists("tmp").unwrap());
    }

    #[test]
    fn deterministic_ticks_across_identical_runs() {
        let run = |crash: Option<u64>| -> (u64, Vec<u8>) {
            let schedule = crash.map_or(Schedule::never(), |c| Schedule::never().at(c));
            let mut fs = FailingStore::new(MemStore::new(), schedule);
            let mut write = |name: &str, data: &[u8]| {
                let _ = fs.append(name, data);
                let _ = fs.sync(name);
            };
            write("w", b"hello");
            write("w", b"world");
            let _ = fs.rename("w", "v");
            let ticks = fs.ticks();
            let data = fs.into_durable().read("v").unwrap_or_default();
            (ticks, data)
        };
        let (total, full) = run(None);
        assert_eq!(full, b"helloworld");
        for crash in 0..total {
            let (a, b) = (run(Some(crash)), run(Some(crash)));
            assert_eq!(a, b, "crash at {crash} must be deterministic");
        }
    }
}
