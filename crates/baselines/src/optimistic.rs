// pitree-lint: allow-file(log-before-dirty) baselines are deliberately non-recoverable: no WAL, dirty pages are volatile
//! Optimistic lock coupling — the better variant from the Bayer–Schkolnick
//! family that Srinivasan & Carey \[18\] also evaluate: writers descend with
//! **S** latches like readers, take X only on the leaf, and fall back to the
//! full pessimistic X-coupled descent only when the leaf actually needs to
//! split. Interior nodes are still X-latched on every *splitting* descent —
//! the residual cost the Π-tree's decomposed postings remove.

use crate::lock_coupling::LockCouplingTree;
use crate::node::{is_full, level, route};
use crate::ConcurrentIndex;
use pitree_pagestore::page::Page;

/// Optimistic-descent wrapper over the pessimistic tree (same node layout,
/// same split machinery — only the latching protocol differs).
pub struct OptimisticCouplingTree {
    inner: LockCouplingTree,
}

impl std::fmt::Debug for OptimisticCouplingTree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OptimisticCouplingTree")
            .finish_non_exhaustive()
    }
}

impl OptimisticCouplingTree {
    /// Create an empty tree with at most `max_entries` entries per node.
    pub fn new(frames: usize, max_entries: usize) -> OptimisticCouplingTree {
        OptimisticCouplingTree {
            inner: LockCouplingTree::new(frames, max_entries),
        }
    }

    /// Exclusive latchings of non-leaf nodes (E1's footprint metric): only
    /// the pessimistic fallback descents contribute.
    pub fn upper_exclusive(&self) -> u64 {
        self.inner.upper_exclusive()
    }

    /// Optimistic attempt: S-couple down, X only at the leaf; fails (false)
    /// when the leaf has no room — the caller then retries pessimistically.
    fn try_insert_optimistic(&self, key: &[u8], entry: &[u8]) -> bool {
        let pool = &self.inner.pool();
        let mut _keepalive = pool.fetch(self.inner.root_pid()).unwrap();
        let mut g = _keepalive.s();
        while level(&g) > 0 {
            let child = route(&g, key).unwrap();
            let cpin = pool.fetch(child).unwrap();
            // X only when the child is the leaf; S otherwise.
            if level(&g) == 1 {
                let cg = cpin.x();
                drop(g);
                // Leaf reached under X.
                let mut cg = cg;
                if cg.keyed_find(key).unwrap().is_ok() {
                    cg.keyed_update(entry).unwrap();
                    cpin.mark_dirty();
                    return true;
                }
                if is_full(&cg, entry, self.inner.max_entries()) {
                    return false; // fall back to the pessimistic path
                }
                cg.keyed_insert(entry).unwrap();
                cpin.mark_dirty();
                return true;
            }
            let cg = cpin.s();
            drop(g);
            _keepalive = cpin;
            g = cg;
        }
        // Height-1 tree: the root is the leaf; S cannot be promoted, so use
        // the pessimistic path.
        false
    }
}

impl ConcurrentIndex for OptimisticCouplingTree {
    fn insert(&self, key: &[u8], value: &[u8]) {
        let entry = Page::make_entry(key, value);
        if self.try_insert_optimistic(key, &entry) {
            return;
        }
        // Pessimistic retry: full X-coupled descent handles the split.
        self.inner.insert(key, value);
    }

    fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        self.inner.get(key)
    }

    fn delete(&self, key: &[u8]) -> bool {
        self.inner.delete(key)
    }

    fn name(&self) -> &'static str {
        "optimistic-coupling"
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
        let t = OptimisticCouplingTree::new(256, 6);
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
    fn optimistic_path_skips_interior_x() {
        let t = OptimisticCouplingTree::new(512, 32);
        // Warm up past height 1 (root-leaf inserts go pessimistic).
        for i in 0..100u64 {
            t.insert(&key(i), b"v");
        }
        let before = t.upper_exclusive();
        // Non-splitting inserts must not X interior nodes at all.
        for i in 1000..1020u64 {
            t.insert(&key(i), b"v");
        }
        let after = t.upper_exclusive();
        assert!(
            after - before <= 2,
            "non-splitting optimistic inserts must avoid interior X latches \
             (delta {})",
            after - before
        );
    }

    #[test]
    fn concurrent_inserts() {
        let t = Arc::new(OptimisticCouplingTree::new(1024, 8));
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

    #[test]
    fn replace_and_delete() {
        let t = OptimisticCouplingTree::new(64, 6);
        t.insert(b"k", b"v1");
        t.insert(b"k", b"v2");
        assert_eq!(t.get(b"k"), Some(b"v2".to_vec()));
        assert!(t.delete(b"k"));
        assert!(!t.delete(b"k"));
    }
}
