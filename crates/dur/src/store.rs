//! Flat-namespace storage abstraction for WAL segments and checkpoints.
//!
//! [`Store`] deliberately exposes only the operations whose durability
//! semantics the recovery protocol reasons about: append, fsync, truncate,
//! atomic rename, remove. Names are flat (no path separators) so every
//! implementation — a directory ([`DirStore`]), memory ([`MemStore`]), or
//! the crash-injecting wrapper ([`crate::FailingStore`]) — offers the same
//! namespace.

use std::collections::BTreeMap;
use std::fs;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Minimal storage interface with explicit durability points.
///
/// Contract assumed by [`crate::Wal`] and [`crate::checkpoint`]:
/// - [`append`](Store::append) writes may not be durable until
///   [`sync`](Store::sync) returns.
/// - [`rename`](Store::rename) atomically replaces the destination.
/// - [`list`](Store::list) returns names in sorted order.
pub trait Store {
    /// All names currently present, sorted.
    fn list(&self) -> io::Result<Vec<String>>;

    /// Full contents of `name` (`NotFound` if absent).
    fn read(&self, name: &str) -> io::Result<Vec<u8>>;

    /// Current length of `name` in bytes (`NotFound` if absent).
    fn len(&self, name: &str) -> io::Result<u64>;

    /// Whether `name` exists.
    fn exists(&self, name: &str) -> io::Result<bool> {
        match self.len(name) {
            Ok(_) => Ok(true),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(false),
            Err(e) => Err(e),
        }
    }

    /// Append `bytes` to `name`, creating it if absent.
    fn append(&mut self, name: &str, bytes: &[u8]) -> io::Result<()>;

    /// Make all prior appends to `name` durable.
    fn sync(&mut self, name: &str) -> io::Result<()>;

    /// Shrink `name` to `len` bytes (used to drop a corrupt tail).
    fn truncate(&mut self, name: &str, len: u64) -> io::Result<()>;

    /// Atomically rename `from` to `to`, replacing any existing `to`.
    fn rename(&mut self, from: &str, to: &str) -> io::Result<()>;

    /// Delete `name` (`NotFound` if absent).
    fn remove(&mut self, name: &str) -> io::Result<()>;
}

fn invalid_name(name: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidInput,
        format!("invalid store name: {name:?}"),
    )
}

fn check_name(name: &str) -> io::Result<()> {
    if name.is_empty()
        || name == "."
        || name == ".."
        || name.contains('/')
        || name.contains('\\')
        || name.contains('\0')
    {
        return Err(invalid_name(name));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// DirStore
// ---------------------------------------------------------------------------

/// [`Store`] over a single real filesystem directory.
///
/// Files are reopened per operation — durability work is checkpoint-cadence
/// bound, not per-event, so handle caching is not worth the state. On Unix
/// the parent directory is fsynced after rename/remove so the rename itself
/// is durable, matching the tmp + fsync + rename publication protocol.
#[derive(Debug)]
pub struct DirStore {
    root: PathBuf,
}

impl DirStore {
    /// Open (creating if needed) the directory at `root`.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<Self> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        Ok(DirStore { root })
    }

    /// The directory backing this store.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn path(&self, name: &str) -> io::Result<PathBuf> {
        check_name(name)?;
        Ok(self.root.join(name))
    }

    fn sync_dir(&self) -> io::Result<()> {
        // Directory fsync is what makes renames durable on Unix; other
        // platforms don't expose it, so treat it as best-effort there.
        #[cfg(unix)]
        {
            fs::File::open(&self.root)?.sync_all()?;
        }
        Ok(())
    }
}

impl Store for DirStore {
    fn list(&self) -> io::Result<Vec<String>> {
        let mut names: Vec<String> = fs::read_dir(&self.root)?
            .filter_map(|entry| {
                let entry = entry.ok()?;
                if entry.file_type().ok()?.is_file() {
                    entry.file_name().into_string().ok()
                } else {
                    None
                }
            })
            .collect();
        names.sort();
        Ok(names)
    }

    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        let mut buf = Vec::new();
        fs::File::open(self.path(name)?)?.read_to_end(&mut buf)?;
        Ok(buf)
    }

    fn len(&self, name: &str) -> io::Result<u64> {
        Ok(fs::metadata(self.path(name)?)?.len())
    }

    fn append(&mut self, name: &str, bytes: &[u8]) -> io::Result<()> {
        let mut f = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.path(name)?)?;
        f.write_all(bytes)
    }

    fn sync(&mut self, name: &str) -> io::Result<()> {
        fs::OpenOptions::new()
            .append(true)
            .open(self.path(name)?)?
            .sync_all()
    }

    fn truncate(&mut self, name: &str, len: u64) -> io::Result<()> {
        let f = fs::OpenOptions::new().write(true).open(self.path(name)?)?;
        f.set_len(len)?;
        f.sync_all()
    }

    fn rename(&mut self, from: &str, to: &str) -> io::Result<()> {
        fs::rename(self.path(from)?, self.path(to)?)?;
        self.sync_dir()
    }

    fn remove(&mut self, name: &str) -> io::Result<()> {
        fs::remove_file(self.path(name)?)?;
        self.sync_dir()
    }
}

// ---------------------------------------------------------------------------
// MemStore
// ---------------------------------------------------------------------------

/// In-memory [`Store`] where every append is immediately durable. The
/// fast backing for tests and for [`crate::FailingStore`], whose page-cache
/// simulation supplies the durability gap that memory lacks.
#[derive(Debug, Default, Clone)]
pub struct MemStore {
    files: BTreeMap<String, Vec<u8>>,
}

impl MemStore {
    pub fn new() -> Self {
        MemStore::default()
    }
}

fn not_found(name: &str) -> io::Error {
    io::Error::new(io::ErrorKind::NotFound, format!("no such entry: {name}"))
}

impl Store for MemStore {
    fn list(&self) -> io::Result<Vec<String>> {
        Ok(self.files.keys().cloned().collect())
    }

    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        check_name(name)?;
        self.files.get(name).cloned().ok_or_else(|| not_found(name))
    }

    fn len(&self, name: &str) -> io::Result<u64> {
        check_name(name)?;
        self.files
            .get(name)
            .map(|b| b.len() as u64)
            .ok_or_else(|| not_found(name))
    }

    fn append(&mut self, name: &str, bytes: &[u8]) -> io::Result<()> {
        check_name(name)?;
        // Looked up by `&str`: only a new entry allocates its name.
        match self.files.get_mut(name) {
            Some(file) => file.extend_from_slice(bytes),
            None => {
                self.files.insert(name.to_string(), bytes.to_vec());
            }
        }
        Ok(())
    }

    fn sync(&mut self, _name: &str) -> io::Result<()> {
        Ok(())
    }

    fn truncate(&mut self, name: &str, len: u64) -> io::Result<()> {
        check_name(name)?;
        let file = self.files.get_mut(name).ok_or_else(|| not_found(name))?;
        let len = usize::try_from(len).unwrap_or(usize::MAX);
        if len < file.len() {
            file.truncate(len);
        }
        Ok(())
    }

    fn rename(&mut self, from: &str, to: &str) -> io::Result<()> {
        check_name(from)?;
        check_name(to)?;
        let contents = self.files.remove(from).ok_or_else(|| not_found(from))?;
        self.files.insert(to.to_string(), contents);
        Ok(())
    }

    fn remove(&mut self, name: &str) -> io::Result<()> {
        check_name(name)?;
        self.files
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| not_found(name))
    }
}

// ---------------------------------------------------------------------------
// Atomic file write (used by core::persist for model bundles)
// ---------------------------------------------------------------------------

/// Write `bytes` to `path` atomically: write a sibling `.tmp` file, fsync
/// it, rename over the destination, then fsync the parent directory. A
/// crash at any point leaves either the old file or the new one — never a
/// torn mix.
pub fn atomic_write_file(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let file_name = path
        .file_name()
        .and_then(|n| n.to_str())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no file name"))?;
    let tmp = path.with_file_name(format!("{file_name}.tmp"));
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    #[cfg(unix)]
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        fs::File::open(parent)?.sync_all()?;
    }
    Ok(())
}

/// Read a file back, distinguishing "absent" from real errors the way
/// [`Store::read`] does. Convenience for load paths.
pub fn read_file(path: &Path) -> io::Result<Vec<u8>> {
    let mut buf = Vec::new();
    let mut f = fs::File::open(path)?;
    f.seek(SeekFrom::Start(0))?;
    f.read_to_end(&mut buf)?;
    Ok(buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(store: &mut dyn Store) {
        assert_eq!(store.list().unwrap(), Vec::<String>::new());
        store.append("b.log", b"hello ").unwrap();
        store.append("b.log", b"world").unwrap();
        store.append("a.log", b"x").unwrap();
        store.sync("b.log").unwrap();
        assert_eq!(
            store.list().unwrap(),
            vec!["a.log".to_string(), "b.log".to_string()]
        );
        assert_eq!(store.read("b.log").unwrap(), b"hello world");
        assert_eq!(store.len("b.log").unwrap(), 11);
        store.truncate("b.log", 5).unwrap();
        assert_eq!(store.read("b.log").unwrap(), b"hello");
        store.rename("b.log", "c.log").unwrap();
        assert!(!store.exists("b.log").unwrap());
        assert_eq!(store.read("c.log").unwrap(), b"hello");
        store.remove("c.log").unwrap();
        assert_eq!(
            store.read("c.log").unwrap_err().kind(),
            io::ErrorKind::NotFound
        );
        assert_eq!(
            store.remove("c.log").unwrap_err().kind(),
            io::ErrorKind::NotFound
        );
        assert!(store.append("no/slashes", b"x").is_err());
        assert!(store.append("..", b"x").is_err());
    }

    #[test]
    fn mem_store_contract() {
        exercise(&mut MemStore::new());
    }

    #[test]
    fn dir_store_contract() {
        let dir = std::env::temp_dir().join(format!("dlacep-dur-store-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        exercise(&mut DirStore::open(&dir).unwrap());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn atomic_write_replaces_whole_file() {
        let dir = std::env::temp_dir().join(format!("dlacep-dur-aw-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let target = dir.join("bundle.bin");
        atomic_write_file(&target, b"first version").unwrap();
        assert_eq!(read_file(&target).unwrap(), b"first version");
        atomic_write_file(&target, b"second").unwrap();
        assert_eq!(read_file(&target).unwrap(), b"second");
        assert!(!target.with_file_name("bundle.bin.tmp").exists());
        fs::remove_dir_all(&dir).unwrap();
    }
}
