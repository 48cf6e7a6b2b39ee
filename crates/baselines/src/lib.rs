#![warn(missing_docs)]
//! Baseline protocols for experiment E1 (§1, §6, citing \[18\] and ARIES/IM
//! \[14\]: decomposed B-link structure changes admit more concurrency than
//! lock coupling and serial structure changes). Each is a latch protocol over
//! a [`PiTree`] — its pages, pool, space map, WAL, split and root growth — so
//! E1 compares protocols, not engines. A coupled split installs its index
//! term under the X-latched parent, leaving no intermediate state for readers
//! ([`PiTree::get_unlocked`] and [`PiTree::scan`], coupling under CP) to cross.
//!
//! Every operation is one forced transaction with no record locks. Record
//! updates log logical undo; a structure change is one atomic action,
//! committed before its latches are released. A crashed baseline restarts
//! with [`PiTree::recover`]. Deletes never consolidate.

use pitree::engine::{Install, Routed, Step, Structure};
use pitree::node::node_full;
use pitree::undo::{TAG_UNDO_DELETE, TAG_UNDO_INSERT, TAG_UNDO_UPDATE};
use pitree::{BLink, Completion, CrashableStore, PiTree, PiTreeConfig, SavedPath};
use pitree_pagestore::buffer::PinnedPage;
use pitree_pagestore::latch::{Latch, SGuard, XGuard};
use pitree_pagestore::page::Page;
use pitree_pagestore::{PageOp, StoreError, StoreResult};
use pitree_txnlock::Txn;

/// The uniform surface the experiments and the correctness oracles drive.
pub trait ConcurrentIndex: Send + Sync {
    /// Insert or replace; returns whether the key was new.
    fn insert(&self, key: &[u8], value: &[u8]) -> bool;
    /// Point lookup.
    fn get(&self, key: &[u8]) -> Option<Vec<u8>>;
    /// Remove; returns whether the key existed.
    fn delete(&self, key: &[u8]) -> bool;
    /// The records in `[from, to)`, in key order.
    fn scan(&self, from: &[u8], to: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)>;
    /// Protocol name for report tables.
    fn name(&self) -> &'static str;
}

/// Registry counter of serial SMO's tree-wide exclusive latchings.
pub const TREE_EXCLUSIVE: &str = "baseline.tree_exclusive";

/// How a [`Baseline`] latches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protocol {
    /// Bayer–Schkolnick: writers X-couple down, releasing the ancestors of a
    /// node that cannot split, and post splits up through the rest.
    LockCoupling,
    /// Writers S-couple down and X-latch the leaf; a full leaf reruns as
    /// lock coupling.
    Optimistic,
    /// ARIES/IM-flavoured: operations run optimistically under a tree latch
    /// held S; an insert that must split retakes it X and runs alone.
    SerialSmo,
}

type Latched<'a> = (PinnedPage<'a>, XGuard<'a, Page>);

/// A latch protocol over a B-link [`PiTree`].
#[derive(Debug)]
pub struct Baseline {
    tree: PiTree,
    protocol: Protocol,
    smo: Latch<()>,
}

impl Baseline {
    /// A fresh tree configured by `cfg` in a `frames`-frame in-memory store.
    pub fn new(frames: usize, protocol: Protocol, cfg: PiTreeConfig) -> Baseline {
        let store = CrashableStore::create(frames, 1 << 20).expect("store");
        Baseline::over(PiTree::create(store.store, 1, cfg).expect("tree"), protocol)
    }

    /// Run `protocol` over an existing tree (a recovered image).
    pub fn over(tree: PiTree, protocol: Protocol) -> Baseline {
        Baseline {
            tree,
            protocol,
            smo: Latch::new(()),
        }
    }

    /// The tree the protocol runs over (stats, registry, validation).
    pub fn tree(&self) -> &PiTree {
        &self.tree
    }

    /// Run `op` as one transaction and commit it.
    fn write<'a, T>(&'a self, op: impl FnMut(&mut Txn<'a>) -> StoreResult<T>) -> T {
        let (txn, v) = self.tree.autocommit(op).expect("baseline write");
        txn.commit().expect("commit");
        v
    }

    /// Serial SMO's shared hold for an ordinary operation.
    fn shared(&self) -> Option<SGuard<'_, ()>> {
        (self.protocol == Protocol::SerialSmo).then(|| self.smo.s())
    }

    /// Whether inserting `entry` into `leaf` needs a split.
    fn full(&self, leaf: &Page, key: &[u8], entry: &[u8]) -> bool {
        let cap = self.tree.config().max_leaf_entries;
        leaf.keyed_probe(key).is_err() && node_full(leaf, entry, cap)
    }

    /// The optimistic descent: the engine's update descent S-couples to
    /// the leaf and latches only it (U, promoted to X).
    fn leaf(&self, key: &[u8]) -> StoreResult<Latched<'_>> {
        let d = self.tree.descend(key, 0, true, false)?;
        Ok((d.page, d.guard.promote().into_x()))
    }

    /// Log the upsert of `entry` into the latched leaf; true if its key is new.
    fn put(&self, txn: &mut Txn<'_>, leaf: &mut Latched<'_>, entry: &[u8]) -> StoreResult<bool> {
        let (pin, g) = leaf;
        let key = Page::entry_key(entry)?;
        let old = g.keyed_probe(key).map(|slot| g.entry_at(slot));
        let bytes = entry.to_vec();
        let (op, tag, undo) = match old {
            Ok(old) => (PageOp::KeyedUpdate { bytes }, TAG_UNDO_UPDATE, old),
            Err(_) => (PageOp::KeyedInsert { bytes }, TAG_UNDO_INSERT, key.to_vec()),
        };
        txn.apply_logical(pin, g, op, tag, undo)?;
        Ok(tag == TAG_UNDO_INSERT)
    }

    /// X-couple down to the leaf covering `key`, counting interior X latches
    /// in `tree.upper_exclusive`; a node with room for an entry of `len` bytes
    /// (any node, if `None`) releases its ancestors. Returns the path, leaf last.
    fn couple(&self, key: &[u8], len: Option<usize>) -> StoreResult<Vec<Latched<'_>>> {
        let (pool, cfg) = (&self.tree.store().pool, self.tree.config());
        let (mut path, mut next) = (Vec::new(), self.tree.root_pid());
        loop {
            let node = pool.fetch(next)?;
            let g = node.x();
            path.push((node, g));
            let (pin, g) = path.last().expect("the path ends at the current node");
            let Routed { level, step } = self.tree.structure().route(g, pin.id(), key, 0)?;
            self.tree.stats().upper_exclusive.add(u64::from(level > 0));
            let cap = match level {
                0 => cfg.max_leaf_entries,
                _ => cfg.max_index_entries,
            };
            let safe = len.is_none_or(|len| {
                // At worst the entry costs every other its share of the prefix.
                let reencode = g.key_prefix().len() * g.entry_count() as usize;
                (g.entry_count() as usize) < cap && g.free_space() >= len + reencode + 4
            });
            if safe {
                path.drain(..path.len() - 1);
            }
            match step {
                Step::Arrived => return Ok(path),
                Step::Child(child) => next = child,
                _ => {
                    // An intermediate state: the engine's traversal completes it.
                    drop(path);
                    drop(self.tree.descend(key, 0, false, true)?);
                    self.tree.run_completions()?;
                    return self.couple(key, len);
                }
            }
        }
    }

    /// The coupled insert: X-couple down; at a full leaf, split it and
    /// install each owed term into the next latched ancestor — splitting that
    /// when full, the root growing in place — as one atomic action, committed
    /// before any latch is released (on an error, restart undoes it).
    fn coupled_insert(&self, txn: &mut Txn<'_>, key: &[u8], entry: &[u8]) -> StoreResult<bool> {
        let (tree, none) = (&self.tree, SavedPath::default());
        let mut path = self.couple(key, Some(entry.len().max(key.len() + 16)))?;
        let mut leaf = path.pop().expect("the descent ends at a leaf");
        if self.full(&leaf.1, key, entry) {
            let mut smo = tree.store().txns.begin(tree.config().smo_identity);
            let act = &mut smo.no_wait();
            let mut owed = BLink::split_node(tree, act, &leaf.0, &mut leaf.1, key, &none)?;
            leaf = self.cover(leaf, key, 0)?;
            for level in 1.. {
                let Some(post) = owed.take() else { break };
                let Completion::Post { key, node, .. } = &post else {
                    return Err(StoreError::Corrupt("a split owes a posting".into()));
                };
                // The topmost latched node split after all (a separator longer
                // than the safe test assumed): its term posts lazily.
                let Some(mut parent) = path.pop() else {
                    tree.schedule(post);
                    break;
                };
                while BLink::install_term(tree, act, &parent.0, &mut parent.1, &post, *node)?
                    == Install::Full
                {
                    owed = BLink::split_node(tree, act, &parent.0, &mut parent.1, key, &none)?;
                    parent = self.cover(parent, key, level)?;
                }
            }
            smo.commit()?;
        }
        drop(path);
        if self.full(&leaf.1, key, entry) {
            // A long entry can need a second split.
            drop(leaf);
            return self.coupled_insert(txn, key, entry);
        }
        self.put(txn, &mut leaf, entry)
    }

    /// After a split of the X-latched `node` at `level`, the node there
    /// covering `key`: itself, its new sibling, or the root's new child.
    fn cover<'a>(&'a self, node: Latched<'a>, key: &[u8], level: u8) -> StoreResult<Latched<'a>> {
        let (tree, pid) = (&self.tree, node.0.id());
        let next = match tree.structure().route(&node.1, pid, key, level)?.step {
            Step::Arrived => return Ok(node),
            Step::Child(next) | Step::Side(next) => tree.store().pool.fetch(next)?,
            Step::Restart => return Err(StoreError::Corrupt("a split lost its key".into())),
        };
        tree.stats().upper_exclusive.add(u64::from(level > 0));
        let next_g = next.x();
        Ok((next, next_g))
    }
}

impl ConcurrentIndex for Baseline {
    fn insert(&self, key: &[u8], value: &[u8]) -> bool {
        let entry = Page::make_entry(key, value);
        self.write(|txn| {
            if self.protocol != Protocol::LockCoupling {
                let _smo = self.shared();
                let mut leaf = self.leaf(key)?;
                if !self.full(&leaf.1, key, &entry) {
                    return self.put(txn, &mut leaf, &entry);
                }
            }
            if self.protocol != Protocol::SerialSmo {
                return self.coupled_insert(txn, key, &entry);
            }
            self.tree.recorder().counter(TREE_EXCLUSIVE).inc();
            let _smo = self.smo.x();
            self.coupled_insert(txn, key, &entry)
        })
    }

    fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        let _smo = self.shared();
        self.tree.get_unlocked(key).expect("get")
    }

    fn delete(&self, key: &[u8]) -> bool {
        self.write(|txn| {
            let _smo = self.shared();
            let (pin, mut g) = match self.protocol {
                Protocol::LockCoupling => self.couple(key, None)?.pop().expect("a leaf"),
                _ => self.leaf(key)?,
            };
            let Ok(slot) = g.keyed_probe(key) else {
                return Ok(false);
            };
            let (op, old) = (PageOp::KeyedRemove { key: key.to_vec() }, g.entry_at(slot));
            txn.apply_logical(&pin, &mut g, op, TAG_UNDO_DELETE, old)?;
            Ok(true)
        })
    }

    fn scan(&self, from: &[u8], to: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)> {
        let _smo = self.shared();
        self.tree.scan(from, to).expect("scan")
    }

    fn name(&self) -> &'static str {
        match self.protocol {
            Protocol::LockCoupling => "lock-coupling",
            Protocol::Optimistic => "optimistic-coupling",
            Protocol::SerialSmo => "serial-smo",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(i: u64) -> Vec<u8> {
        i.to_be_bytes().to_vec()
    }

    /// Run `body` on a fresh tree of `fanout`-entry nodes, then check what a
    /// coupled protocol promises: a well-formed tree with every split
    /// posted, no descent across a sibling term, and tree-wide exclusions
    /// exactly when serial SMO split.
    fn run(p: Protocol, fanout: usize, body: impl FnOnce(&Baseline)) {
        let b = Baseline::new(1024, p, PiTreeConfig::small_nodes(fanout, fanout));
        body(&b);
        let (report, stats) = (b.tree().validate().unwrap(), b.tree().stats());
        assert!(report.is_well_formed(), "{:?}", report.violations);
        assert_eq!(report.unposted_nodes, 0, "left an intermediate state");
        assert_eq!(stats.side_traversals.get(), 0, "crossed a sibling term");
        let tree_x = b.tree().recorder().counter(TREE_EXCLUSIVE).get();
        assert_eq!(
            tree_x > 0,
            p == Protocol::SerialSmo && stats.splits.get() > 0
        );
    }

    pub(crate) fn round_trip(p: Protocol) {
        run(p, 6, |b| {
            for i in 0..300u64 {
                assert!(b.insert(&key(i), &key(i + 1)), "key {i} is new");
            }
            for i in 0..300u64 {
                assert_eq!(b.get(&key(i)), Some(key(i + 1)), "key {i}");
            }
            assert!(b.tree().height().unwrap() > 2);
        });
    }

    pub(crate) fn replace_and_delete(p: Protocol) {
        run(p, 6, |b| {
            assert!(b.insert(b"k", b"v1"));
            assert!(!b.insert(b"k", b"v2"));
            assert_eq!(b.scan(b"a", b"z"), [(b"k".to_vec(), b"v2".to_vec())]);
            assert!(b.delete(b"k"));
            assert!(!b.delete(b"k"));
            assert_eq!(b.get(b"k"), None);
        });
    }

    pub(crate) fn random_order(p: Protocol) {
        run(p, 5, |b| {
            let mut keys: Vec<u64> = (0..400).collect();
            pitree_sim::SimRng::new(0xBA5E1).shuffle(&mut keys);
            for &i in &keys {
                b.insert(&key(i), b"x");
            }
            let all: Vec<_> = (0..400).map(|i| (key(i), b"x".to_vec())).collect();
            assert_eq!(b.scan(&key(0), &key(400)), all);
        });
    }

    /// Eight writers, each reading a preloaded key after every insert.
    pub(crate) fn concurrent(p: Protocol) {
        run(p, 8, |b| {
            (0..100).for_each(|i| assert!(b.insert(&key(10_000 + i), b"pre")));
            std::thread::scope(|s| {
                for tid in 0..8u64 {
                    s.spawn(move || {
                        for i in 0..200 {
                            b.insert(&key(i * 8 + tid), b"v");
                            assert!(b.get(&key(10_000 + i % 100)).is_some());
                        }
                    });
                }
            });
            let all: Vec<_> = (0..1600).map(|i| (key(i), b"v".to_vec())).collect();
            assert_eq!(b.scan(&key(0), &key(1600)), all);
        });
    }

    /// An insert that splits nothing X-latches an interior node only under
    /// lock coupling, which X-latches at least the root on every write.
    pub(crate) fn interior_x(p: Protocol) {
        run(p, 8, |b| {
            let stats = b.tree().stats();
            for i in 0..400u64 {
                let (x, splits) = (stats.upper_exclusive.get(), stats.splits.get());
                b.insert(&key(i * 7919 % 400), b"v");
                if i >= 100 && stats.splits.get() == splits {
                    let x_latched = stats.upper_exclusive.get() > x;
                    assert_eq!(x_latched, p == Protocol::LockCoupling, "insert {i}");
                }
            }
        });
    }
}

/// The protocol tests: one table of rows, each run against each protocol
/// under the test names the per-protocol modules had.
#[cfg(test)]
macro_rules! protocol_tests {
    ($($module:ident: $p:ident { $($test:ident: $row:ident),* })*) => {$(mod $module { mod tests {
        $(#[test] fn $test() { crate::tests::$row(crate::Protocol::$p) })*
    } })*};
}

#[cfg(test)]
#[rustfmt::skip]
protocol_tests! {
    lock_coupling: LockCoupling {
        insert_get_roundtrip: round_trip, replace_and_delete: replace_and_delete,
        reverse_and_random_orders: random_order, concurrent_inserts: concurrent,
        coupled_path_x_latches_interior_nodes: interior_x
    }
    optimistic: Optimistic {
        insert_get_roundtrip: round_trip, replace_and_delete: replace_and_delete,
        random_order_inserts: random_order, concurrent_inserts: concurrent,
        optimistic_path_skips_interior_x: interior_x
    }
    serial_smo: SerialSmo {
        insert_get_roundtrip: round_trip, replace_and_delete: replace_and_delete,
        random_order_inserts: random_order, concurrent_inserts_and_reads: concurrent,
        fast_path_skips_interior_x: interior_x
    }
}
