// pitree-lint: allow-file(log-before-dirty) baselines are deliberately non-recoverable: no WAL, dirty pages are volatile
//! B+-tree with **serial structure changes** — ARIES/IM-flavored \[14\].
//!
//! "By contrast, in ARIES/IM complete structural changes are *serial*"
//! (§1 point 2). This baseline makes that cost explicit: a tree-wide
//! reader/writer latch admits ordinary operations concurrently (they
//! latch-couple node by node), but any operation that needs a split takes
//! the tree latch **exclusively**, quiescing everything while the entire
//! multi-level structure change runs as one monolithic, serial unit.

use crate::node::{
    format_node, grow_root, index_entry, is_full, level, may_be_full, route, split_node, BaseStore,
};
use crate::ConcurrentIndex;
use pitree_pagestore::latch::Latch;
use pitree_pagestore::page::{Page, PageType};
use pitree_pagestore::PageId;

/// A B+-tree whose structure changes are serialized behind a tree latch.
pub struct SerialSmoTree {
    store: BaseStore,
    root: PageId,
    max_entries: usize,
    /// The tree-wide SMO latch: shared for ordinary operations, exclusive
    /// for structure changes.
    smo: Latch<()>,
    /// Tree-wide exclusive acquisitions (every one quiesces all activity).
    tree_x: std::sync::atomic::AtomicU64,
}

impl std::fmt::Debug for SerialSmoTree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SerialSmoTree").finish_non_exhaustive()
    }
}

impl SerialSmoTree {
    /// Create an empty tree with at most `max_entries` entries per node.
    pub fn new(frames: usize, max_entries: usize) -> SerialSmoTree {
        let store = BaseStore::new_mem(frames);
        let root = store.alloc();
        {
            let page = store.pool.fetch_or_create(root, PageType::Free).unwrap();
            let mut g = page.x();
            format_node(&mut g, 0);
            page.mark_dirty();
        }
        SerialSmoTree {
            store,
            root,
            max_entries,
            smo: Latch::new(()),
            tree_x: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Tree-wide exclusive acquisitions so far.
    pub fn tree_exclusive(&self) -> u64 {
        self.tree_x.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Fast path: insert without structure change. Returns `false` when a
    /// split would be required.
    fn try_insert_fast(&self, key: &[u8], entry: &[u8]) -> bool {
        let pool = &self.store.pool;
        let mut _keepalive = pool.fetch(self.root).unwrap();
        let mut g = _keepalive.x();
        while level(&g) > 0 {
            let child = route(&g, key).unwrap();
            let cpin = pool.fetch(child).unwrap();
            let cg = cpin.x();
            drop(g);
            _keepalive = cpin;
            g = cg;
        }
        if g.keyed_find(key).unwrap().is_ok() {
            g.keyed_update(entry).unwrap();
            _keepalive.mark_dirty();
            return true;
        }
        if is_full(&g, entry, self.max_entries) {
            return false;
        }
        g.keyed_insert(entry).unwrap();
        _keepalive.mark_dirty();
        true
    }

    /// Slow path under the exclusive tree latch: split every full node on
    /// the way down (preventive splitting is safe here — we are alone), then
    /// insert.
    fn insert_serial_smo(&self, key: &[u8], entry: &[u8]) {
        let pool = &self.store.pool;
        let safe_len = entry.len().max(key.len() + 16);
        let mut pid = self.root;
        loop {
            let pin = pool.fetch(pid).unwrap();
            let mut g = pin.x();
            if may_be_full(&g, safe_len, self.max_entries) {
                if pid == self.root {
                    grow_root(&self.store, &pin, &mut g);
                    // Revisit the root: it now has room, and the descent
                    // branch below will preventively split the full child.
                    continue;
                }
                unreachable!("non-root nodes are split preventively by their parent");
            }
            if level(&g) == 0 {
                if g.keyed_find(key).unwrap().is_ok() {
                    g.keyed_update(entry).unwrap();
                } else {
                    g.keyed_insert(entry).unwrap();
                }
                pin.mark_dirty();
                return;
            }
            // Preventively split the routed child if it is full, posting the
            // separator into `g` (which has room — checked above).
            let child = route(&g, key).unwrap();
            let cpin = pool.fetch(child).unwrap();
            let mut cg = cpin.x();
            if may_be_full(&cg, safe_len, self.max_entries) {
                let (sep, new_pid) = split_node(&self.store, &cpin, &mut cg);
                g.keyed_insert(&index_entry(&sep, new_pid)).unwrap();
                pin.mark_dirty();
                if key >= sep.as_slice() {
                    pid = new_pid;
                    continue;
                }
            }
            pid = child;
        }
    }
}

impl ConcurrentIndex for SerialSmoTree {
    fn insert(&self, key: &[u8], value: &[u8]) {
        let entry = Page::make_entry(key, value);
        {
            let _shared = self.smo.s();
            if self.try_insert_fast(key, &entry) {
                return;
            }
        }
        // Structure change required: quiesce the whole tree.
        let _exclusive = self.smo.x();
        self.tree_x
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.insert_serial_smo(key, &entry);
    }

    fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        let _shared = self.smo.s();
        let pool = &self.store.pool;
        let mut _keepalive = pool.fetch(self.root).unwrap();
        let mut g = _keepalive.s();
        while level(&g) > 0 {
            let child = route(&g, key).unwrap();
            let cpin = pool.fetch(child).unwrap();
            let cg = cpin.s();
            drop(g);
            _keepalive = cpin;
            g = cg;
        }
        match g.keyed_find(key).unwrap() {
            Ok(slot) => Some(g.entry_payload_at(slot).to_vec()),
            Err(_) => None,
        }
    }

    fn delete(&self, key: &[u8]) -> bool {
        let _shared = self.smo.s();
        let pool = &self.store.pool;
        let mut _keepalive = pool.fetch(self.root).unwrap();
        let mut g = _keepalive.x();
        while level(&g) > 0 {
            let child = route(&g, key).unwrap();
            let cpin = pool.fetch(child).unwrap();
            let cg = cpin.x();
            drop(g);
            _keepalive = cpin;
            g = cg;
        }
        match g.keyed_find(key).unwrap() {
            Ok(_) => {
                g.keyed_remove(key).unwrap();
                _keepalive.mark_dirty();
                true
            }
            Err(_) => false,
        }
    }

    fn name(&self) -> &'static str {
        "serial-smo"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn key(i: u64) -> Vec<u8> {
        i.to_be_bytes().to_vec()
    }

    #[test]
    fn insert_get_roundtrip() {
        let t = SerialSmoTree::new(256, 6);
        for i in 0..300u64 {
            t.insert(&key(i), format!("v{i}").as_bytes());
        }
        for i in 0..300u64 {
            assert_eq!(
                t.get(&key(i)),
                Some(format!("v{i}").into_bytes()),
                "key {i}"
            );
        }
        assert_eq!(t.get(&key(999)), None);
    }

    #[test]
    fn replace_and_delete() {
        let t = SerialSmoTree::new(64, 6);
        t.insert(b"k", b"v1");
        t.insert(b"k", b"v2");
        assert_eq!(t.get(b"k"), Some(b"v2".to_vec()));
        assert!(t.delete(b"k"));
        assert!(!t.delete(b"k"));
    }

    #[test]
    fn random_order_inserts() {
        let t = SerialSmoTree::new(512, 5);
        let mut keys: Vec<u64> = (0..400).collect();
        pitree_sim::SimRng::new(0xBA5E2).shuffle(&mut keys);
        for &i in &keys {
            t.insert(&key(i), b"x");
        }
        for i in 0..400u64 {
            assert_eq!(t.get(&key(i)), Some(b"x".to_vec()), "key {i}");
        }
    }

    #[test]
    fn concurrent_inserts_and_reads() {
        let t = Arc::new(SerialSmoTree::new(1024, 8));
        for i in 0..200u64 {
            t.insert(&key(i), b"pre");
        }
        std::thread::scope(|s| {
            for tid in 0..6u64 {
                let t = Arc::clone(&t);
                s.spawn(move || {
                    for i in 0..200 {
                        t.insert(&key(1000 + i * 6 + tid), b"v");
                        assert!(t.get(&key(i % 200)).is_some());
                    }
                });
            }
        });
        for k in 0..1200u64 {
            assert_eq!(t.get(&key(1000 + k)), Some(b"v".to_vec()), "key {k}");
        }
    }
}
