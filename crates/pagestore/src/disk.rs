//! Durable page storage with an explicit volatile/durable boundary.
//!
//! The paper's recovery argument quantifies over crashes that lose all
//! volatile state (the buffer pool and the unforced log tail) while keeping
//! everything that reached durable storage. [`MemDisk`] makes that boundary
//! testable in-process: what has been `write_page`d is durable; a crash is
//! simulated by [`MemDisk::snapshot`]-ing the durable image and rebuilding the
//! system on the snapshot, discarding every in-memory structure.
//!
//! [`FileDisk`] provides the same interface over a real file for benchmarks
//! that want to include I/O in the measured path. Its page transfers are
//! positional (`pread`/`pwrite` through [`FileExt`]): one syscall each, no
//! shared file cursor and therefore no lock — Unix only.

use crate::error::{StoreError, StoreResult};
use crate::fault::{FaultSite, InjectorHandle};
use crate::ids::PageId;
use crate::page::{Page, PAGE_SIZE};
use crate::sync::Mutex;
use std::fs::{File, OpenOptions};
use std::io::ErrorKind;
use std::os::unix::fs::FileExt;
use std::path::Path;

/// Abstract durable page storage.
pub trait DiskManager: Send + Sync {
    /// Read a page image. `PageNotFound` if the page was never written —
    /// beyond the end of the store or a hole inside it alike.
    fn read_page(&self, pid: PageId) -> StoreResult<Page>;
    /// Durably write a page image (extends the store if needed).
    fn write_page(&self, pid: PageId, page: &Page) -> StoreResult<()>;
    /// One past the highest page id ever written.
    fn num_pages(&self) -> u64;
    /// Flush OS buffers, where applicable.
    fn sync(&self) -> StoreResult<()> {
        Ok(())
    }
}

/// In-memory "durable" storage used by tests and the crash harness.
pub struct MemDisk {
    pages: Mutex<Vec<Option<Box<[u8]>>>>,
    injector: Option<InjectorHandle>,
}

impl std::fmt::Debug for MemDisk {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemDisk").finish_non_exhaustive()
    }
}

impl MemDisk {
    /// An empty store.
    pub fn new() -> MemDisk {
        MemDisk {
            pages: Mutex::new(Vec::new()),
            injector: None,
        }
    }

    /// An empty store whose page writes consult `injector` first — the
    /// simulation kit's crash-point hook.
    pub fn with_injector(injector: InjectorHandle) -> MemDisk {
        MemDisk {
            pages: Mutex::new(Vec::new()),
            injector: Some(injector),
        }
    }

    /// Copy the current durable image — the survivor of a simulated crash.
    /// The snapshot carries no injector: recovery runs unimpeded.
    pub fn snapshot(&self) -> MemDisk {
        self.snapshot_with(None)
    }

    /// [`MemDisk::snapshot`] whose page writes consult `injector`, so the
    /// survivor's own recovery can be crashed.
    pub fn snapshot_with(&self, injector: Option<InjectorHandle>) -> MemDisk {
        MemDisk {
            pages: Mutex::new(self.pages.lock().clone()),
            injector,
        }
    }
}

impl Default for MemDisk {
    fn default() -> Self {
        Self::new()
    }
}

impl DiskManager for MemDisk {
    fn read_page(&self, pid: PageId) -> StoreResult<Page> {
        let pages = self.pages.lock();
        match pages.get(pid.0 as usize) {
            Some(Some(bytes)) => Page::from_bytes(bytes),
            _ => Err(StoreError::PageNotFound(pid)),
        }
    }

    fn write_page(&self, pid: PageId, page: &Page) -> StoreResult<()> {
        if let Some(inj) = &self.injector {
            inj.check(FaultSite::PageWrite(pid))?;
        }
        let mut pages = self.pages.lock();
        let idx = pid.0 as usize;
        if pages.len() <= idx {
            pages.resize_with(idx + 1, || None);
        }
        pages[idx] = Some(page.as_bytes().to_vec().into_boxed_slice());
        Ok(())
    }

    fn num_pages(&self) -> u64 {
        self.pages.lock().len() as u64
    }
}

/// File-backed page storage for benchmarks.
///
/// Transfers of different pages never interact. A read racing a write of
/// the *same* page may return a mix of the two images (the kernel's page
/// cache does not exclude them); the buffer pool never issues that pair —
/// a page mid-write-back is `Busy` in its shard and fetchers wait.
pub struct FileDisk {
    file: File,
}

impl std::fmt::Debug for FileDisk {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FileDisk").finish_non_exhaustive()
    }
}

impl FileDisk {
    /// Open (or create) the backing file.
    pub fn open(path: &Path) -> StoreResult<FileDisk> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)
            .map_err(|e| StoreError::Corrupt(format!("open {path:?}: {e}")))?;
        Ok(FileDisk { file })
    }
}

impl DiskManager for FileDisk {
    fn read_page(&self, pid: PageId) -> StoreResult<Page> {
        let mut buf = vec![0u8; PAGE_SIZE].into_boxed_slice();
        match self.file.read_exact_at(&mut buf, pid.0 * PAGE_SIZE as u64) {
            Ok(()) => Page::adopt(buf)?.ok_or(StoreError::PageNotFound(pid)),
            // Short read: the page lies at or past the end of the file.
            Err(e) => Err(match e.kind() {
                ErrorKind::UnexpectedEof => StoreError::PageNotFound(pid),
                _ => StoreError::Corrupt(format!("read {pid}: {e}")),
            }),
        }
    }

    fn write_page(&self, pid: PageId, page: &Page) -> StoreResult<()> {
        self.file
            .write_all_at(page.as_bytes(), pid.0 * PAGE_SIZE as u64)
            .map_err(|e| StoreError::Corrupt(format!("write {pid}: {e}")))
    }

    fn num_pages(&self) -> u64 {
        self.file
            .metadata()
            .map(|m| m.len() / PAGE_SIZE as u64)
            .unwrap_or(0)
    }

    fn sync(&self) -> StoreResult<()> {
        self.file
            .sync_data()
            .map_err(|e| StoreError::Corrupt(format!("sync: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::PageType;

    #[test]
    fn memdisk_roundtrip() {
        let d = MemDisk::new();
        let mut p = Page::new(PageType::Node);
        p.insert(0, b"payload").unwrap();
        d.write_page(PageId(3), &p).unwrap();
        assert_eq!(d.num_pages(), 4);
        let q = d.read_page(PageId(3)).unwrap();
        assert_eq!(q.get(0).unwrap(), b"payload");
        assert!(matches!(
            d.read_page(PageId(2)),
            Err(StoreError::PageNotFound(_))
        ));
        assert!(matches!(
            d.read_page(PageId(9)),
            Err(StoreError::PageNotFound(_))
        ));
    }

    #[test]
    fn snapshot_is_independent() {
        let d = MemDisk::new();
        let p = Page::new(PageType::Node);
        d.write_page(PageId(1), &p).unwrap();
        let snap = d.snapshot();
        // Writes after the crash point do not reach the snapshot.
        d.write_page(PageId(2), &p).unwrap();
        assert_eq!(snap.num_pages(), 2);
        assert!(snap.read_page(PageId(2)).is_err());
        assert!(snap.read_page(PageId(1)).is_ok());
    }

    #[test]
    fn filedisk_roundtrip() {
        let dir = std::env::temp_dir().join(format!("pitree-disk-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store.db");
        let d = FileDisk::open(&path).unwrap();
        let mut p = Page::new(PageType::Node);
        p.insert(0, b"file-bytes").unwrap();
        d.write_page(PageId(5), &p).unwrap();
        d.sync().unwrap();
        assert_eq!(d.num_pages(), 6);
        let q = d.read_page(PageId(5)).unwrap();
        assert_eq!(q.get(0).unwrap(), b"file-bytes");
        // Beyond the end and inside a hole alike: never written.
        assert!(matches!(
            d.read_page(PageId(6)),
            Err(StoreError::PageNotFound(_))
        ));
        assert!(matches!(
            d.read_page(PageId(2)),
            Err(StoreError::PageNotFound(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }
}
