//! The calls the client makes into the trees, each wrapped in the span of
//! the layer it enters: pipelined user transactions (publish now, ack
//! behind a [`PIPELINE_DEPTH`] window) with deadlock retry.

use crate::trace::{span, Name};
use pitree::PiTree;
use pitree_hb::{HbTree, Point};
use pitree_pagestore::{StoreError, StoreResult};
use pitree_tsb::TsbTree;
use pitree_txnlock::{PendingCommit, Txn};
use std::collections::VecDeque;

/// Published-but-unacked commits a writer holds before waiting on the
/// oldest one: the depth (and the protocol) of the `throughput` bench and
/// the `scenarios` bin, so the numbers compare with S7 and S8.
const PIPELINE_DEPTH: usize = 8;

/// The window of published-but-unacked commits.
pub struct Pipeline<'t> {
    pending: VecDeque<PendingCommit<'t>>,
}

impl<'t> Pipeline<'t> {
    pub fn new() -> Pipeline<'t> {
        Pipeline {
            pending: VecDeque::with_capacity(PIPELINE_DEPTH + 1),
        }
    }

    pub fn push(&mut self, pc: PendingCommit<'t>) {
        self.pending.push_back(pc);
    }

    pub fn is_full(&self) -> bool {
        self.pending.len() >= PIPELINE_DEPTH
    }

    /// Wait for the oldest pending commit's durability.
    pub fn ack_oldest(&mut self) {
        if let Some(pc) = self.pending.pop_front() {
            let _s = span(Name::WaitDurable);
            pc.wait_durable().expect("ack");
        }
    }

    /// Ack every published commit (the clock never stops before this).
    pub fn drain(&mut self) {
        while !self.pending.is_empty() {
            self.ack_oldest();
        }
    }

    /// Push, then keep the window at depth: the loaders' protocol.
    pub fn push_windowed(&mut self, pc: PendingCommit<'t>) {
        self.push(pc);
        if self.is_full() {
            self.ack_oldest();
        }
    }
}

/// One user transaction with deadlock retry: begin, `body` (the tree call,
/// recorded as span `name`), publish. Returns the published commit and how
/// many times a deadlock made it start over.
fn run_txn<'t>(
    name: Name,
    begin: impl Fn() -> Txn<'t>,
    body: impl Fn(&mut Txn<'t>) -> StoreResult<()>,
    abort: impl Fn(Txn<'t>),
) -> (PendingCommit<'t>, u64) {
    let mut retries = 0;
    loop {
        let mut txn = {
            let _s = span(Name::CoreBegin);
            begin()
        };
        let res = {
            let _s = span(name);
            body(&mut txn)
        };
        match res {
            Ok(()) => {
                let _s = span(Name::CommitPublish);
                return (txn.commit_publish(), retries);
            }
            Err(StoreError::LockFailed { .. }) => {
                abort(txn);
                retries += 1;
            }
            Err(e) => panic!("{} failed: {e}", name.text()),
        }
    }
}

/// Π-tree upsert.
pub fn upsert<'t>(tree: &'t PiTree, key: &[u8], value: &[u8]) -> (PendingCommit<'t>, u64) {
    run_txn(
        Name::CoreInsert,
        || tree.begin(),
        |t| tree.insert(t, key, value).map(drop),
        |t| drop(t.abort(Some(&tree.undo_handler()))),
    )
}

/// Π-tree delete.
pub fn remove<'t>(tree: &'t PiTree, key: &[u8]) -> (PendingCommit<'t>, u64) {
    run_txn(
        Name::CoreDelete,
        || tree.begin(),
        |t| tree.delete(t, key).map(drop),
        |t| drop(t.abort(Some(&tree.undo_handler()))),
    )
}

/// TSB-tree put of a new version.
pub fn tsb_put<'t>(tree: &'t TsbTree, key: &[u8], value: &[u8]) -> (PendingCommit<'t>, u64) {
    run_txn(
        Name::TsbPut,
        || tree.begin(),
        |t| tree.put(t, key, value).map(drop),
        |t| drop(t.abort(Some(&tree.undo_handler()))),
    )
}

/// hB-tree point insert.
pub fn hb_insert<'t>(tree: &'t HbTree, p: &Point, value: &[u8]) -> (PendingCommit<'t>, u64) {
    run_txn(
        Name::HbInsert,
        || tree.begin(),
        |t| tree.insert(t, p, value).map(drop),
        |t| drop(t.abort(Some(&tree.undo_handler()))),
    )
}
