//! The forced autocommit the harness suites run their Π-tree writes
//! through — the same per-operation cost model the baselines and
//! `pitree-check`'s [`PiCheckIndex`](pitree_check::PiCheckIndex) have.

use pitree::PiTree;
use pitree_pagestore::StoreResult;
use pitree_txnlock::Txn;

/// One autocommitted operation, forced: run `op` under
/// [`Engine::autocommit`](pitree::Engine::autocommit) (deadlock victims
/// retry), commit, and wait for the durable ack. Returns `op`'s value.
pub fn commit<'t, T>(tree: &'t PiTree, op: impl FnMut(&mut Txn<'t>) -> StoreResult<T>) -> T {
    let (txn, v) = tree.autocommit(op).expect("autocommitted op");
    txn.commit().expect("commit");
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use pitree::{CrashableStore, PiTreeConfig};
    use std::sync::Arc;

    #[test]
    fn adapter_roundtrip() {
        let cs = CrashableStore::create(256, 1 << 20).unwrap();
        let tree =
            PiTree::create(Arc::clone(&cs.store), 1, PiTreeConfig::small_nodes(8, 8)).unwrap();
        assert!(commit(&tree, |t| tree.insert(t, b"k", b"v")));
        assert_eq!(tree.get_unlocked(b"k").unwrap(), Some(b"v".to_vec()));
        assert!(commit(&tree, |t| tree.delete(t, b"k")));
        assert!(!commit(&tree, |t| tree.delete(t, b"k")));
    }
}
