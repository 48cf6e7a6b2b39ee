//! Operation counters feeding the experiments in `EXPERIMENTS.md`.
//!
//! Since the observability layer (`pitree-obs`) landed, these are thin
//! façades over [`Counter`] handles registered as `tree.*` names in the
//! store's [`pitree_obs::Registry`] — the same numbers appear in
//! `Registry::report()` and in the `obstop` tool. The field-per-counter
//! struct is kept so experiment code reads `stats.splits.get()` instead of
//! going through the registry's name map.

use pitree_obs::{Counter, Recorder};

/// Lock-free counters; one instance per tree, shared by all threads.
///
/// Constructed with [`TreeStats::new`] onto the store's recorder (the tree
/// does this in `PiTree::create`/`open`); `Default` attaches to a fresh
/// private registry for tests that only read the struct directly.
#[derive(Debug, Clone)]
pub struct TreeStats {
    /// Node splits performed (leaf + index), excluding root growth.
    pub splits: Counter,
    /// Root-growth events (tree height increase).
    pub root_grows: Counter,
    /// Index-term postings scheduled (by splits or by traversals that
    /// followed a side pointer).
    pub postings_scheduled: Counter,
    /// Postings that inserted a term.
    pub postings_done: Counter,
    /// Postings that found the term already present (idempotent no-op).
    pub postings_noop: Counter,
    /// Postings abandoned because the described node was consolidated away.
    pub postings_node_gone: Counter,
    /// Postings deferred because a move lock was seen (§4.2.2).
    pub postings_move_deferred: Counter,
    /// Consolidations performed.
    pub consolidations: Counter,
    /// Consolidations abandoned by the testable-state check.
    pub consolidations_noop: Counter,
    /// Side pointers followed during traversals ("intermediate state seen").
    pub side_traversals: Counter,
    /// Operation restarts forced by the No-Wait Rule (latch released to wait
    /// for a database lock).
    pub no_wait_restarts: Counter,
    /// Leaf splits executed inside a user transaction (page-oriented UNDO
    /// with updated-and-moved records, §4.2.1).
    pub splits_in_txn: Counter,
    /// Leaf splits executed as independent atomic actions.
    pub splits_independent: Counter,
    /// Nodes latched during posting re-traversals (saved-path effectiveness,
    /// experiment E6).
    pub posting_nodes_touched: Counter,
    /// Saved-path entries reused without a fresh in-node search.
    pub saved_path_hits: Counter,
    /// Saved-path entries invalidated by a changed state identifier.
    pub saved_path_misses: Counter,
    /// B-link writes that started at the last leaf a write changed, with no
    /// descent (§5.2).
    pub write_hint_hits: Counter,
    /// Writes that consulted that leaf and went down from the root instead:
    /// its state id changed, it no longer contains the key, or it is full.
    pub write_hint_misses: Counter,
    /// Exclusive (X) latch acquisitions on nodes *above* the data level —
    /// the paper's §1(3) footprint: in the Π-tree these happen only inside
    /// short independent atomic actions (postings, index splits,
    /// consolidations), never inside user transactions.
    pub upper_exclusive: Counter,
}

impl TreeStats {
    /// Counters registered as `tree.*` in `rec`'s registry.
    pub fn new(rec: &Recorder) -> TreeStats {
        TreeStats {
            splits: rec.counter("tree.splits"),
            root_grows: rec.counter("tree.root_grows"),
            postings_scheduled: rec.counter("tree.postings_scheduled"),
            postings_done: rec.counter("tree.postings_done"),
            postings_noop: rec.counter("tree.postings_noop"),
            postings_node_gone: rec.counter("tree.postings_node_gone"),
            postings_move_deferred: rec.counter("tree.postings_move_deferred"),
            consolidations: rec.counter("tree.consolidations"),
            consolidations_noop: rec.counter("tree.consolidations_noop"),
            side_traversals: rec.counter("tree.side_traversals"),
            no_wait_restarts: rec.counter("tree.no_wait_restarts"),
            splits_in_txn: rec.counter("tree.splits_in_txn"),
            splits_independent: rec.counter("tree.splits_independent"),
            posting_nodes_touched: rec.counter("tree.posting_nodes_touched"),
            saved_path_hits: rec.counter("tree.saved_path_hits"),
            saved_path_misses: rec.counter("tree.saved_path_misses"),
            write_hint_hits: rec.counter("tree.write_hint_hits"),
            write_hint_misses: rec.counter("tree.write_hint_misses"),
            upper_exclusive: rec.counter("tree.upper_exclusive"),
        }
    }

    /// Snapshot all counters as (name, value) pairs, for table printing.
    pub fn snapshot(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("splits", self.splits.get()),
            ("root_grows", self.root_grows.get()),
            ("postings_scheduled", self.postings_scheduled.get()),
            ("postings_done", self.postings_done.get()),
            ("postings_noop", self.postings_noop.get()),
            ("postings_node_gone", self.postings_node_gone.get()),
            ("postings_move_deferred", self.postings_move_deferred.get()),
            ("consolidations", self.consolidations.get()),
            ("consolidations_noop", self.consolidations_noop.get()),
            ("side_traversals", self.side_traversals.get()),
            ("no_wait_restarts", self.no_wait_restarts.get()),
            ("splits_in_txn", self.splits_in_txn.get()),
            ("splits_independent", self.splits_independent.get()),
            ("posting_nodes_touched", self.posting_nodes_touched.get()),
            ("saved_path_hits", self.saved_path_hits.get()),
            ("saved_path_misses", self.saved_path_misses.get()),
            ("write_hint_hits", self.write_hint_hits.get()),
            ("write_hint_misses", self.write_hint_misses.get()),
            ("upper_exclusive", self.upper_exclusive.get()),
        ]
    }
}

impl Default for TreeStats {
    fn default() -> Self {
        TreeStats::new(&Recorder::detached())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_names_are_unique() {
        let s = TreeStats::default();
        let snap = s.snapshot();
        let mut names: Vec<_> = snap.iter().map(|(n, _)| n).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), snap.len());
    }

    #[test]
    fn registered_counters_show_in_registry_report() {
        let reg = pitree_obs::Registry::new();
        let s = TreeStats::new(&reg.recorder());
        s.side_traversals.inc();
        assert!(reg.report().contains("tree.side_traversals"));
    }
}
