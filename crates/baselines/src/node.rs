// pitree-lint: allow-file(log-before-dirty) baselines are deliberately non-recoverable: no WAL, dirty pages are volatile
//! Shared plain-B+-tree node layout for the baselines.
//!
//! Slot 0 is a one-byte header holding the node level; slots 1.. are keyed
//! entries (leaf: key→value, index: key→child page id). Index nodes keep a
//! first entry with the empty key so that `keyed_floor` always routes. There
//! are **no side pointers** — these are plain B+-trees, which is exactly the
//! structural difference the experiments measure.

use pitree_pagestore::buffer::BufferPool;
use pitree_pagestore::page::{Page, PageType};
use pitree_pagestore::{PageId, StoreResult};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Minimal store for the baselines: a pool plus a bump allocator (baselines
/// never free pages).
pub struct BaseStore {
    /// The shared buffer pool.
    pub pool: Arc<BufferPool>,
    next_page: AtomicU64,
}

impl std::fmt::Debug for BaseStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BaseStore").finish_non_exhaustive()
    }
}

impl BaseStore {
    /// A store over an in-memory disk with `frames` buffer frames.
    pub fn new_mem(frames: usize) -> BaseStore {
        let disk = Arc::new(pitree_pagestore::MemDisk::new());
        BaseStore {
            pool: Arc::new(BufferPool::new(disk, frames)),
            next_page: AtomicU64::new(1),
        }
    }

    /// Allocate a fresh page id.
    pub fn alloc(&self) -> PageId {
        PageId(self.next_page.fetch_add(1, Ordering::Relaxed))
    }
}

/// Read a node's level from slot 0.
pub fn level(page: &Page) -> u8 {
    page.get(0).map(|h| h[0]).unwrap_or(0)
}

/// Format `page` as an empty node of `level`.
pub fn format_node(page: &mut Page, lvl: u8) {
    page.format(PageType::Node);
    page.insert(0, &[lvl])
        .expect("fresh page has room for the header");
}

/// Build an index entry.
pub fn index_entry(key: &[u8], child: PageId) -> Vec<u8> {
    Page::make_entry(key, &child.0.to_le_bytes())
}

/// Route within an index node: the child covering `key`.
pub fn route(page: &Page, key: &[u8]) -> StoreResult<PageId> {
    let slot = page
        .keyed_floor(key)?
        .expect("index node always has a first empty-key entry");
    Ok(PageId(u64::from_le_bytes(
        page.entry_payload_at(slot)
            .try_into()
            .expect("8-byte child"),
    )))
}

/// Whether the keyed entry `entry` cannot go in: the entry cap, or no room.
pub fn is_full(page: &Page, entry: &[u8], max_entries: usize) -> bool {
    page.entry_count() as usize >= max_entries || !page.keyed_fits(entry)
}

/// Whether some entry of up to `len` bytes might not fit, whatever its key
/// (a descent's "safe node" test): at worst it also re-encodes every entry
/// without the page's key prefix.
pub fn may_be_full(page: &Page, len: usize, max_entries: usize) -> bool {
    let reencode = page.key_prefix().len() * page.entry_count() as usize;
    page.entry_count() as usize >= max_entries || page.free_space() < len + 4 + reencode
}

/// Split the full node under `g` at its middle entry into itself plus a new
/// right sibling. Returns `(separator, new page id)`. The caller must hold
/// whatever latches its protocol requires.
pub fn split_node(
    store: &BaseStore,
    pin: &pitree_pagestore::buffer::PinnedPage<'_>,
    g: &mut pitree_pagestore::latch::XGuard<'_, Page>,
) -> (Vec<u8>, PageId) {
    let n = g.entry_count();
    let mid = 1 + n / 2;
    let sep = g.entry_key_at(mid).to_vec();
    let new_pid = store.alloc();
    let new_pin = store.pool.fetch_or_create(new_pid, PageType::Free).unwrap();
    {
        let mut ng = new_pin.x();
        format_node(&mut ng, level(g));
        for slot in mid..=n {
            ng.keyed_insert(&g.entry_at(slot)).unwrap();
        }
        new_pin.mark_dirty();
    }
    for _ in mid..=n {
        let key = g.entry_key_at(mid).to_vec();
        g.keyed_remove(&key).unwrap();
    }
    pin.mark_dirty();
    (sep, new_pid)
}

/// Grow the tree in place: move the (fixed) root's contents to a fresh
/// child, leaving the root as a one-child index node one level higher.
pub fn grow_root(
    store: &BaseStore,
    pin: &pitree_pagestore::buffer::PinnedPage<'_>,
    g: &mut pitree_pagestore::latch::XGuard<'_, Page>,
) {
    let lvl = level(g);
    let child_pid = store.alloc();
    let child = store
        .pool
        .fetch_or_create(child_pid, PageType::Free)
        .unwrap();
    {
        let mut cg = child.x();
        format_node(&mut cg, lvl);
        for slot in 1..g.slot_count() {
            cg.keyed_insert(&g.entry_at(slot)).unwrap();
        }
        child.mark_dirty();
    }
    let keys: Vec<Vec<u8>> = (1..g.slot_count())
        .map(|s| g.entry_key_at(s).to_vec())
        .collect();
    for k in keys {
        g.keyed_remove(&k).unwrap();
    }
    g.update(0, &[lvl + 1]).unwrap();
    g.keyed_insert(&index_entry(b"", child_pid)).unwrap();
    pin.mark_dirty();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format_and_level() {
        let mut p = Page::new(PageType::Free);
        format_node(&mut p, 3);
        assert_eq!(level(&p), 3);
        assert_eq!(p.entry_count(), 0);
    }

    #[test]
    fn index_entry_roundtrip() {
        let e = index_entry(b"sep", PageId(99));
        assert_eq!(Page::entry_key(&e).unwrap(), b"sep");
        assert_eq!(Page::entry_payload(&e).unwrap(), 99u64.to_le_bytes());
    }

    #[test]
    fn routing_picks_floor_child() {
        let mut p = Page::new(PageType::Free);
        format_node(&mut p, 1);
        p.keyed_insert(&index_entry(b"", PageId(10))).unwrap();
        p.keyed_insert(&index_entry(b"m", PageId(20))).unwrap();
        assert_eq!(route(&p, b"a").unwrap(), PageId(10));
        assert_eq!(route(&p, b"m").unwrap(), PageId(20));
        assert_eq!(route(&p, b"z").unwrap(), PageId(20));
    }

    #[test]
    fn alloc_is_monotonic() {
        let s = BaseStore::new_mem(8);
        let a = s.alloc();
        let b = s.alloc();
        assert!(b > a);
    }
}
