//! Numbered files published atomically and read back newest-valid-first:
//! the one publication protocol under checkpoints ([`crate::checkpoint`])
//! and registry models ([`crate::registry`]).
//!
//! Generation `n` of a family is written as `{prefix}-{n:016x}.tmp`,
//! fsynced, and renamed to `{prefix}-{n:016x}.{ext}`, so a crash at any
//! point leaves either the old set or the old set plus one complete new
//! file — never a half-written published one. Loading walks the published
//! files newest-first and returns the first whose frame validates, so a
//! torn or bit-rotted file is skipped (and counted), never fatal.

use std::io;

use crate::codec::{self, CodecError};
use crate::store::Store;

/// Generations retained after each publication: the newest and one
/// fallback for when it does not decode.
pub const KEEP_GENERATIONS: usize = 2;

/// Write `bytes` to `tmp`, fsync it and rename it to `name`: a crash leaves
/// either the old `name` or the new one.
pub(crate) fn publish<S: Store>(
    store: &mut S,
    tmp: &str,
    name: &str,
    bytes: &[u8],
) -> io::Result<()> {
    if store.exists(tmp)? {
        store.remove(tmp)?; // stale tmp from an earlier crashed attempt
    }
    store.append(tmp, bytes)?;
    store.sync(tmp)?;
    store.rename(tmp, name)
}

/// One family of numbered, CRC-framed files in a store.
pub(crate) struct Generations {
    pub prefix: &'static str,
    pub ext: &'static str,
    pub magic: [u8; 4],
    /// Newest frame version the family reads.
    pub version: u16,
}

/// `(n, frame version, payload)` of the newest generation that validates.
pub(crate) type Latest = Option<(u64, u16, Vec<u8>)>;

impl Generations {
    pub(crate) fn name(&self, n: u64) -> String {
        format!("{}-{n:016x}.{}", self.prefix, self.ext)
    }

    pub(crate) fn tmp_name(&self, n: u64) -> String {
        format!("{}-{n:016x}.tmp", self.prefix)
    }

    fn parse(&self, name: &str) -> Option<u64> {
        let rest = name.strip_prefix(self.prefix)?.strip_prefix('-')?;
        let hex = rest.strip_suffix(self.ext)?.strip_suffix('.')?;
        if hex.len() != 16 {
            return None;
        }
        u64::from_str_radix(hex, 16).ok()
    }

    fn is_tmp(&self, name: &str) -> bool {
        name.strip_prefix(self.prefix)
            .and_then(|rest| rest.strip_prefix('-'))
            .is_some_and(|rest| rest.ends_with(".tmp"))
    }

    /// Published generations as `(n, name)`, ascending. Torn files are
    /// included: they are published names.
    pub(crate) fn list<S: Store>(&self, store: &S) -> io::Result<Vec<(u64, String)>> {
        Ok(self.published(&store.list()?))
    }

    fn published(&self, names: &[String]) -> Vec<(u64, String)> {
        let mut published: Vec<(u64, String)> = names
            .iter()
            .filter_map(|name| self.parse(name).map(|n| (n, name.clone())))
            .collect();
        published.sort();
        published
    }

    /// Atomically publish `frame` as generation `n`, replacing an existing
    /// one (publication is idempotent).
    pub(crate) fn publish<S: Store>(&self, store: &mut S, n: u64, frame: &[u8]) -> io::Result<()> {
        publish(store, &self.tmp_name(n), &self.name(n), frame)
    }

    /// The newest generation whose frame validates, and how many newer
    /// ones were skipped as unreadable. Only store I/O errors are fatal.
    pub(crate) fn load_latest<S: Store>(&self, store: &S) -> io::Result<(Latest, u64)> {
        let mut skipped = 0;
        for (n, name) in self.list(store)?.into_iter().rev() {
            let bytes = store.read(&name)?;
            match codec::decode_frame(self.magic, self.version, &bytes) {
                Ok((version, payload)) => {
                    return Ok((Some((n, version, payload.to_vec())), skipped))
                }
                Err(CodecError::Truncated { .. })
                | Err(CodecError::ChecksumMismatch { .. })
                | Err(CodecError::BadMagic { .. })
                | Err(CodecError::UnsupportedVersion { .. })
                | Err(CodecError::Malformed(_))
                | Err(CodecError::TrailingBytes { .. }) => skipped += 1,
            }
        }
        Ok((None, skipped))
    }

    /// Delete all but the [`KEEP_GENERATIONS`] newest published
    /// generations and any stale `.tmp` leftovers. Returns the generations
    /// kept, ascending.
    pub(crate) fn prune<S: Store>(&self, store: &mut S) -> io::Result<Vec<u64>> {
        let names = store.list()?;
        let published = self.published(&names);
        let cut = published.len().saturating_sub(KEEP_GENERATIONS);
        for (_, name) in &published[..cut] {
            store.remove(name)?;
        }
        for name in names.iter().filter(|name| self.is_tmp(name)) {
            store.remove(name)?;
        }
        Ok(published[cut..].iter().map(|(n, _)| *n).collect())
    }
}
