//! Π-tree adapters and the deliberately broken fixtures the acceptance
//! tests feed to each layer, all on the one surface the checkers drive,
//! [`ConcurrentIndex`] (the baselines implement it themselves).

use crate::model::Model;
use pitree::{CrashableStore, PiTree, PiTreeConfig};
use pitree_baselines::ConcurrentIndex;
use pitree_pagestore::sync::{FixedMap, Mutex};
use std::sync::Arc;

/// A Π-tree with its store, autocommitting one forced transaction per
/// operation: reads take S record locks, so every completed operation's
/// effect is committed — the strongest surface the paper's protocol
/// offers, and the one the linearizability claim is made for.
pub struct PiCheckIndex {
    _store: CrashableStore,
    tree: PiTree,
}

impl std::fmt::Debug for PiCheckIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PiCheckIndex").finish_non_exhaustive()
    }
}

impl PiCheckIndex {
    /// Build over a fresh in-memory store.
    pub fn new(pool_frames: usize, cfg: PiTreeConfig) -> PiCheckIndex {
        let store = CrashableStore::create(pool_frames, 1 << 20).expect("store");
        let tree = PiTree::create(Arc::clone(&store.store), 1, cfg).expect("tree");
        PiCheckIndex {
            _store: store,
            tree,
        }
    }

    /// The wrapped tree (for stats and validation).
    pub fn tree(&self) -> &PiTree {
        &self.tree
    }
}

impl ConcurrentIndex for PiCheckIndex {
    fn insert(&self, key: &[u8], value: &[u8]) -> bool {
        let run = self.tree.autocommit(|t| self.tree.insert(t, key, value));
        let (txn, created) = run.expect("insert");
        txn.commit().expect("commit");
        created
    }

    fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        let run = self.tree.autocommit(|t| self.tree.get(t, key));
        let (txn, got) = run.expect("get");
        txn.commit().expect("commit");
        got
    }

    fn delete(&self, key: &[u8]) -> bool {
        let run = self.tree.autocommit(|t| self.tree.delete(t, key));
        let (txn, existed) = run.expect("delete");
        txn.commit().expect("commit");
        existed
    }

    fn scan(&self, from: &[u8], to: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)> {
        self.tree.scan(from, to).expect("scan")
    }

    fn name(&self) -> &'static str {
        "pi-tree"
    }
}

/// The Π-tree under early lock release: every write *publishes* its
/// commit first — record locks released at log append, so concurrent
/// operations are free to jump in while the force is still in flight —
/// and returns only once `wait_durable` sees the watermark cover the
/// commit LSN (the ack point). Reads are the same forced transactions as
/// [`PiCheckIndex`]; a reader that observed a jumped writer's value acks
/// through its own forced commit, which covers that writer's earlier LSN.
/// Histories this adapter produces must therefore still linearize, and
/// the checker holds ELR to exactly that.
pub struct PiElrIndex {
    _store: CrashableStore,
    tree: PiTree,
}

impl std::fmt::Debug for PiElrIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PiElrIndex").finish_non_exhaustive()
    }
}

impl PiElrIndex {
    /// Build over a fresh in-memory store.
    pub fn new(pool_frames: usize, cfg: PiTreeConfig) -> PiElrIndex {
        let store = CrashableStore::create(pool_frames, 1 << 20).expect("store");
        let tree = PiTree::create(Arc::clone(&store.store), 1, cfg).expect("tree");
        PiElrIndex {
            _store: store,
            tree,
        }
    }
}

impl ConcurrentIndex for PiElrIndex {
    fn insert(&self, key: &[u8], value: &[u8]) -> bool {
        let run = self.tree.autocommit(|t| self.tree.insert(t, key, value));
        let (txn, created) = run.expect("insert");
        txn.commit_publish().wait_durable().expect("ack");
        created
    }

    fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        let run = self.tree.autocommit(|t| self.tree.get(t, key));
        let (txn, got) = run.expect("get");
        txn.commit().expect("commit");
        got
    }

    fn delete(&self, key: &[u8]) -> bool {
        let run = self.tree.autocommit(|t| self.tree.delete(t, key));
        let (txn, existed) = run.expect("delete");
        txn.commit_publish().wait_durable().expect("ack");
        existed
    }

    fn scan(&self, from: &[u8], to: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)> {
        self.tree.scan(from, to).expect("scan")
    }

    fn name(&self) -> &'static str {
        "pi-tree-elr"
    }
}

/// A reference implementation of [`ConcurrentIndex`] over the [`Model`] itself
/// (sanity fixture: every checker must accept it).
#[derive(Debug, Default)]
pub struct ModelIndex {
    inner: Mutex<Model>,
}

impl ConcurrentIndex for ModelIndex {
    fn insert(&self, key: &[u8], value: &[u8]) -> bool {
        self.inner.lock().insert(key, value)
    }

    fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        self.inner.lock().get(key)
    }

    fn delete(&self, key: &[u8]) -> bool {
        self.inner.lock().delete(key)
    }

    fn scan(&self, from: &[u8], to: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)> {
        self.inner.lock().scan(from, to)
    }

    fn name(&self) -> &'static str {
        "model"
    }
}

// ---- seeded-violation fixtures --------------------------------------------

/// Broken-on-purpose wrapper: silently drops every `drop_every`-th insert
/// while claiming it happened. The differential oracle must reject it.
pub struct LostWriteIndex<T: ConcurrentIndex> {
    inner: T,
    drop_every: u64,
    writes: pitree_obs::Counter,
}

impl<T: ConcurrentIndex> std::fmt::Debug for LostWriteIndex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LostWriteIndex").finish_non_exhaustive()
    }
}

impl<T: ConcurrentIndex> LostWriteIndex<T> {
    /// Wrap `inner`, dropping every `drop_every`-th insert (1-based).
    pub fn new(inner: T, drop_every: u64) -> LostWriteIndex<T> {
        assert!(drop_every > 0);
        LostWriteIndex {
            inner,
            drop_every,
            writes: pitree_obs::Recorder::detached().counter("fixture.writes"),
        }
    }
}

impl<T: ConcurrentIndex> ConcurrentIndex for LostWriteIndex<T> {
    fn insert(&self, key: &[u8], value: &[u8]) -> bool {
        self.writes.inc();
        if self.writes.get().is_multiple_of(self.drop_every) {
            // The lie: report "created" based on current state but never
            // perform the write.
            return self.inner.get(key).is_none();
        }
        self.inner.insert(key, value)
    }

    fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        self.inner.get(key)
    }

    fn delete(&self, key: &[u8]) -> bool {
        self.inner.delete(key)
    }

    fn scan(&self, from: &[u8], to: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)> {
        self.inner.scan(from, to)
    }

    fn name(&self) -> &'static str {
        "fixture:lost-write"
    }
}

/// Broken-on-purpose wrapper: remembers the value each key held *before*
/// its most recent overwrite and serves that stale value on reads. The
/// linearizability checker must reject histories it produces (a read that
/// begins after an overwrite's return cannot observe the older value).
pub struct StaleReadIndex<T: ConcurrentIndex> {
    inner: T,
    stale: Mutex<FixedMap<Vec<u8>, Option<Vec<u8>>>>,
}

impl<T: ConcurrentIndex> std::fmt::Debug for StaleReadIndex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StaleReadIndex").finish_non_exhaustive()
    }
}

impl<T: ConcurrentIndex> StaleReadIndex<T> {
    /// Wrap `inner`.
    pub fn new(inner: T) -> StaleReadIndex<T> {
        StaleReadIndex {
            inner,
            stale: Mutex::new(FixedMap::default()),
        }
    }
}

impl<T: ConcurrentIndex> ConcurrentIndex for StaleReadIndex<T> {
    fn insert(&self, key: &[u8], value: &[u8]) -> bool {
        let old = self.inner.get(key);
        let ret = self.inner.insert(key, value);
        self.stale.lock().insert(key.to_vec(), old);
        ret
    }

    fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        let stale = self.stale.lock();
        match stale.get(key) {
            // A key that has been overwritten serves its pre-overwrite
            // value forever: the seeded stale read.
            Some(old) => old.clone(),
            None => {
                drop(stale);
                self.inner.get(key)
            }
        }
    }

    fn delete(&self, key: &[u8]) -> bool {
        self.stale.lock().remove(key);
        self.inner.delete(key)
    }

    fn scan(&self, from: &[u8], to: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)> {
        self.inner.scan(from, to)
    }

    fn name(&self) -> &'static str {
        "fixture:stale-read"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pi_adapter_roundtrip() {
        let idx = PiCheckIndex::new(256, PiTreeConfig::small_nodes(8, 8));
        assert!(idx.insert(b"k", b"v"));
        assert!(!idx.insert(b"k", b"w"));
        assert_eq!(idx.get(b"k"), Some(b"w".to_vec()));
        assert_eq!(idx.scan(b"a", b"z").len(), 1);
        assert!(idx.delete(b"k"));
        assert!(!idx.delete(b"k"));
    }

    #[test]
    fn elr_adapter_roundtrip() {
        let idx = PiElrIndex::new(256, PiTreeConfig::small_nodes(8, 8));
        assert!(idx.insert(b"k", b"v"));
        assert!(!idx.insert(b"k", b"w"));
        assert_eq!(idx.get(b"k"), Some(b"w".to_vec()));
        assert!(idx.delete(b"k"));
        assert!(!idx.delete(b"k"));
    }

    #[test]
    fn lost_write_fixture_actually_loses() {
        let idx = LostWriteIndex::new(ModelIndex::default(), 2);
        idx.insert(b"a", b"1");
        idx.insert(b"b", b"2"); // dropped
        assert_eq!(idx.get(b"a"), Some(b"1".to_vec()));
        assert_eq!(idx.get(b"b"), None);
    }

    #[test]
    fn stale_read_fixture_serves_pre_overwrite_value() {
        let idx = StaleReadIndex::new(ModelIndex::default());
        idx.insert(b"k", b"v1");
        assert_eq!(idx.get(b"k"), None, "pre-overwrite value of first insert");
        idx.insert(b"k", b"v2");
        assert_eq!(idx.get(b"k"), Some(b"v1".to_vec()));
    }
}
