//! Adapters exposing the Π-tree through the [`ConcurrentIndex`] surface the
//! baseline protocols implement, so experiment E1 drives them identically.

use pitree::{CrashableStore, PiTree, PiTreeConfig};
use pitree_baselines::ConcurrentIndex;
use pitree_obs::{Hist, Stopwatch};
use pitree_pagestore::StoreResult;
use pitree_txnlock::Txn;
use std::sync::Arc;

/// One autocommitted operation, forced: run `op` under
/// [`Engine::autocommit`](pitree::Engine::autocommit) (deadlock victims
/// retry), commit, and wait for the durable ack. Returns `op`'s value.
pub fn commit<'t, T>(tree: &'t PiTree, op: impl FnMut(&mut Txn<'t>) -> StoreResult<T>) -> T {
    let (txn, v) = tree.autocommit(op).expect("autocommitted op");
    txn.commit().expect("commit");
    v
}

/// A Π-tree with its store, autocommitting one forced transaction per
/// operation — the same per-operation cost model the baselines have.
///
/// Whole-operation latencies (including [`commit`]'s deadlock retries)
/// land in the store's registry as the `op.insert_ns` / `op.get_ns` /
/// `op.delete_ns` histograms — the top of the metric stack described in
/// `OBSERVABILITY.md`.
pub struct PiTreeIndex {
    _store: CrashableStore,
    tree: PiTree,
    op_insert_ns: Hist,
    op_get_ns: Hist,
    op_delete_ns: Hist,
}

impl std::fmt::Debug for PiTreeIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PiTreeIndex").finish_non_exhaustive()
    }
}

impl PiTreeIndex {
    /// Build over a fresh in-memory store.
    pub fn new(pool_frames: usize, cfg: PiTreeConfig) -> PiTreeIndex {
        let store = CrashableStore::create(pool_frames, 1 << 20).expect("store");
        let tree = PiTree::create(Arc::clone(&store.store), 1, cfg).expect("tree");
        let rec = tree.recorder().clone();
        PiTreeIndex {
            _store: store,
            tree,
            op_insert_ns: rec.hist("op.insert_ns"),
            op_get_ns: rec.hist("op.get_ns"),
            op_delete_ns: rec.hist("op.delete_ns"),
        }
    }

    /// The wrapped tree (for stats and validation).
    pub fn tree(&self) -> &PiTree {
        &self.tree
    }
}

impl ConcurrentIndex for PiTreeIndex {
    fn insert(&self, key: &[u8], value: &[u8]) -> bool {
        let t = Stopwatch::start();
        let created = commit(&self.tree, |txn| self.tree.insert(txn, key, value));
        self.op_insert_ns.record(t.elapsed_ns());
        created
    }

    fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        let t = Stopwatch::start();
        let got = self.tree.get_unlocked(key).expect("get");
        self.op_get_ns.record(t.elapsed_ns());
        got
    }

    fn delete(&self, key: &[u8]) -> bool {
        let t = Stopwatch::start();
        let hit = commit(&self.tree, |txn| self.tree.delete(txn, key));
        self.op_delete_ns.record(t.elapsed_ns());
        hit
    }

    fn scan(&self, from: &[u8], to: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)> {
        self.tree.scan(from, to).expect("scan")
    }

    fn name(&self) -> &'static str {
        "pi-tree"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adapter_roundtrip() {
        let idx = PiTreeIndex::new(256, PiTreeConfig::small_nodes(8, 8));
        assert!(idx.insert(b"k", b"v"));
        assert_eq!(idx.get(b"k"), Some(b"v".to_vec()));
        assert!(idx.delete(b"k"));
        assert!(!idx.delete(b"k"));
        assert_eq!(idx.name(), "pi-tree");
    }
}
