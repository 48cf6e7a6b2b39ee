// pitree-lint: allow-file(log-before-dirty) baselines are deliberately non-recoverable: no WAL, dirty pages are volatile
//! Lock-coupling B+-tree \[Bayer & Schkolnick 1977\], the classic baseline.
//!
//! Readers couple S latches down the path. Writers couple **X latches** and
//! release an ancestor stack only when the just-latched child is *safe*
//! (cannot split); when a leaf splits, every unsafe ancestor on the path is
//! still X-latched, and separators propagate into them directly. A root that
//! stays on the path for the whole descent serializes all writers through
//! it — the behaviour the Π-tree's side pointers eliminate, and exactly what
//! experiment E1 measures.

use crate::node::{
    format_node, grow_root, index_entry, is_full, level, may_be_full, route, split_node, BaseStore,
};
use crate::ConcurrentIndex;
use pitree_pagestore::buffer::PinnedPage;
use pitree_pagestore::latch::XGuard;
use pitree_pagestore::page::{Page, PageType};
use pitree_pagestore::PageId;

/// A B+-tree protected by latch coupling.
pub struct LockCouplingTree {
    store: BaseStore,
    root: PageId,
    max_entries: usize,
    /// Exclusive latchings of non-leaf nodes (concurrency-footprint metric).
    upper_x: std::sync::atomic::AtomicU64,
}

impl std::fmt::Debug for LockCouplingTree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LockCouplingTree").finish_non_exhaustive()
    }
}

impl LockCouplingTree {
    /// Create an empty tree. `max_entries` caps entries per node (use small
    /// values to force deep trees in tests).
    pub fn new(frames: usize, max_entries: usize) -> LockCouplingTree {
        let store = BaseStore::new_mem(frames);
        let root = store.alloc();
        {
            let page = store.pool.fetch_or_create(root, PageType::Free).unwrap();
            let mut g = page.x();
            format_node(&mut g, 0);
            page.mark_dirty();
        }
        LockCouplingTree {
            store,
            root,
            max_entries,
            upper_x: std::sync::atomic::AtomicU64::new(0),
        }
    }
}

impl LockCouplingTree {
    /// Exclusive latchings of non-leaf nodes so far.
    pub fn upper_exclusive(&self) -> u64 {
        self.upper_x.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// The shared buffer pool (used by the optimistic wrapper).
    pub fn pool(&self) -> &std::sync::Arc<pitree_pagestore::buffer::BufferPool> {
        &self.store.pool
    }

    /// The fixed root page.
    pub fn root_pid(&self) -> PageId {
        self.root
    }

    /// The entry-count cap.
    pub fn max_entries(&self) -> usize {
        self.max_entries
    }

    fn note_upper(&self, g: &XGuard<'_, Page>) {
        if level(g) > 0 {
            self.upper_x
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
    }
}

impl ConcurrentIndex for LockCouplingTree {
    fn insert(&self, key: &[u8], value: &[u8]) {
        let entry = Page::make_entry(key, value);
        // Safety margin for the descent check: an index node must also have
        // room for a *separator* entry (key + child pointer), which can be
        // longer than the record entry.
        let safe_len = entry.len().max(key.len() + 16);
        let pool = &self.store.pool;
        // Descend with X coupling, keeping unsafe ancestors latched.
        let mut stack: Vec<(PinnedPage<'_>, XGuard<'_, Page>)> = Vec::new();
        let mut pin = pool.fetch(self.root).unwrap();
        let mut g = pin.x();
        self.note_upper(&g);
        loop {
            if !may_be_full(&g, safe_len, self.max_entries) {
                stack.clear(); // safe: split propagation stops here
            }
            if level(&g) == 0 {
                break;
            }
            let child = route(&g, key).unwrap();
            let cpin = pool.fetch(child).unwrap();
            let cg = cpin.x();
            self.note_upper(&cg);
            stack.push((pin, g));
            pin = cpin;
            g = cg;
        }
        // Replace in place when the key exists.
        if g.keyed_find(key).unwrap().is_ok() {
            g.keyed_update(&entry).unwrap();
            pin.mark_dirty();
            return;
        }
        // Insert, splitting upward through the latched unsafe ancestors.
        // `carry` is the entry destined for the node currently latched in
        // `g` — the record at the leaf, separators above it.
        let mut carry = entry;
        loop {
            let carry_key = Page::entry_key(&carry).unwrap().to_vec();
            if !is_full(&g, &carry, self.max_entries) {
                g.keyed_insert(&carry).unwrap();
                pin.mark_dirty();
                return;
            }
            if pin.id() == self.root && stack.is_empty() {
                // A full root grows in place; the carry then targets the new
                // single child, which the next iteration splits.
                grow_root(&self.store, &pin, &mut g);
                let child = route(&g, &carry_key).unwrap();
                let cpin = pool.fetch(child).unwrap();
                let cg = cpin.x();
                stack.push((pin, g));
                pin = cpin;
                g = cg;
                continue;
            }
            let (sep, new_pid) = split_node(&self.store, &pin, &mut g);
            // Place the carried entry in the correct half.
            if carry_key.as_slice() >= sep.as_slice() {
                let new_pin = pool.fetch(new_pid).unwrap();
                let mut ng = new_pin.x();
                ng.keyed_insert(&carry).unwrap();
                new_pin.mark_dirty();
            } else {
                g.keyed_insert(&carry).unwrap();
                pin.mark_dirty();
            }
            // The separator propagates to the parent, which is still latched
            // (it was unsafe, or it is the root handled above).
            let (ppin, pg) = stack.pop().expect("unsafe ancestors stay latched");
            drop(g);
            drop(pin);
            pin = ppin;
            g = pg;
            carry = index_entry(&sep, new_pid);
        }
    }

    fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        let pool = &self.store.pool;
        let mut _keepalive = pool.fetch(self.root).unwrap();
        let mut g = _keepalive.s();
        while level(&g) > 0 {
            let child = route(&g, key).unwrap();
            let cpin = pool.fetch(child).unwrap();
            let cg = cpin.s(); // couple: child latched before parent released
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
        let pool = &self.store.pool;
        let mut _keepalive = pool.fetch(self.root).unwrap();
        let mut g = _keepalive.x();
        self.note_upper(&g);
        while level(&g) > 0 {
            let child = route(&g, key).unwrap();
            let cpin = pool.fetch(child).unwrap();
            let cg = cpin.x();
            self.note_upper(&cg);
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
        "lock-coupling"
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
        let t = LockCouplingTree::new(256, 6);
        for i in 0..200u64 {
            t.insert(&key(i), format!("v{i}").as_bytes());
        }
        for i in 0..200u64 {
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
        let t = LockCouplingTree::new(64, 6);
        t.insert(b"k", b"v1");
        t.insert(b"k", b"v2");
        assert_eq!(t.get(b"k"), Some(b"v2".to_vec()));
        assert!(t.delete(b"k"));
        assert!(!t.delete(b"k"));
        assert_eq!(t.get(b"k"), None);
    }

    #[test]
    fn reverse_and_random_orders() {
        let t = LockCouplingTree::new(512, 5);
        let mut keys: Vec<u64> = (0..400).collect();
        pitree_sim::SimRng::new(0xBA5E1).shuffle(&mut keys);
        for &i in &keys {
            t.insert(&key(i), b"x");
        }
        for i in 0..400u64 {
            assert_eq!(t.get(&key(i)), Some(b"x".to_vec()), "key {i}");
        }
    }

    #[test]
    fn concurrent_inserts() {
        let t = Arc::new(LockCouplingTree::new(1024, 8));
        std::thread::scope(|s| {
            for tid in 0..8u64 {
                let t = Arc::clone(&t);
                s.spawn(move || {
                    for i in 0..200 {
                        t.insert(&key(i * 8 + tid), b"v");
                    }
                });
            }
        });
        for k in 0..1600u64 {
            assert_eq!(t.get(&key(k)), Some(b"v".to_vec()), "key {k}");
        }
    }
}
