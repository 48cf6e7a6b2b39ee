//! The engine's two structure-change actions, written once for every
//! [`Structure`]: the independent split of §3.2.1/§4.2.1, and the
//! index-term posting of §5.3.
//!
//! The posting steps, verbatim from the paper: **Search** (reuse the saved
//! PATH when the state identifiers allow, §5.2), **Verify Split** (the
//! testable-state check that makes completion idempotent), **Space Test**
//! (split the parent — or grow the root — inside this action when the term
//! does not fit), and **Update Node**. Search, Verify Split, how a node
//! splits and how a term fits are the structure's; the Space-Test loop, the
//! action and the outcome bookkeeping are the engine's.

use crate::completion::Completion;
use crate::engine::{Engine, Install, PostOutcome, Step, Structure, TreeConfig, Verified};
use crate::node::{node_full, IndexTerm};
use crate::traverse::DescentTarget;
use pitree_pagestore::buffer::PinnedPage;
use pitree_pagestore::latch::XGuard;
use pitree_pagestore::page::Page;
use pitree_pagestore::{PageId, PageOp, StoreError, StoreResult};
use pitree_txnlock::NoWait;

impl<S: Structure> Engine<S> {
    /// Run `body` as one SMO atomic action: commit on success, roll back on
    /// error. `body` releases its latches before it returns, and sees the
    /// action only as a [`NoWait`] view: it cannot wait for a lock (§4.2.2).
    fn smo_action<T>(
        &self,
        body: impl FnOnce(&mut NoWait<'_, '_>) -> StoreResult<T>,
    ) -> StoreResult<T> {
        let mut act = self.store().txns.begin(self.config().smo_identity());
        match body(&mut act.no_wait()) {
            Ok(v) => {
                act.commit()?;
                Ok(v)
            }
            Err(e) => {
                act.abort(None)?;
                Err(e)
            }
        }
    }

    /// Split the node the descent `d` reached, to make room for the entry
    /// keyed `pending`, as an independent atomic action: the common case for
    /// every node, and §4.2.1's "independent of and before T" leaf split.
    /// Consumes the descent; the caller re-descends and retries.
    pub fn split_independent(&self, d: DescentTarget<'_>, pending: &S::Arg) -> StoreResult<()> {
        let owed = self.smo_action(move |act| {
            let mut g = d.guard.promote().into_x();
            S::split_node(self, act, &d.page, &mut g, pending, &d.path)
        })?;
        self.stats().splits_independent.inc();
        if let Some(post) = owed {
            self.schedule(post);
        }
        Ok(())
    }

    /// Run the posting `post` — the term covering `probe` — as one atomic
    /// action (§5.3), and count how it ended.
    pub fn post_index_term(
        &self,
        post: &S::Completion,
        probe: &S::Arg,
    ) -> StoreResult<PostOutcome> {
        let outcome = self.smo_action(|act| self.post_in(act, post, probe))?;
        let stats = self.stats();
        let counter = match outcome {
            PostOutcome::Posted => &stats.postings_done,
            PostOutcome::AlreadyPosted => &stats.postings_noop,
            PostOutcome::NodeGone => &stats.postings_node_gone,
            PostOutcome::MoveDeferred => &stats.postings_move_deferred,
        };
        counter.inc();
        Ok(outcome)
    }

    /// The posting's body: locate and verify, then install the term — or
    /// split the node and follow the probe to the one that now covers it —
    /// until it is in.
    fn post_in(
        &self,
        act: &mut NoWait<'_, '_>,
        post: &S::Completion,
        probe: &S::Arg,
    ) -> StoreResult<PostOutcome> {
        let (d, node) = match S::locate_post(self, post, probe)? {
            Verified::Parent(d, node) => (d, node),
            Verified::Ends(outcome) => return Ok(outcome),
        };
        let (level, path) = (d.level, d.path);
        let mut pin = d.page;
        // "The U latch on NODE is promoted to an X latch."
        let mut g = d.guard.promote().into_x();
        self.stats().upper_exclusive.inc();
        loop {
            let posted = match S::install_term(self, act, &pin, &mut g, post, node)? {
                Install::AlreadyPosted => return Ok(PostOutcome::AlreadyPosted),
                Install::Posted { overfull: false } => return Ok(PostOutcome::Posted),
                Install::Posted { overfull: true } => true,
                Install::Full => false,
            };
            // Split NODE within this action; "an index posting operation is
            // scheduled for the parent of NODE" unless NODE was the root,
            // which grows instead.
            self.stats().upper_exclusive.inc(); // the split's new node
            if let Some(owed) = S::split_node(self, act, &pin, &mut g, probe, &path)? {
                self.schedule(owed);
            }
            if posted {
                return Ok(PostOutcome::Posted);
            }
            // "Then check which resulting node has a directly contained space
            // that includes KEY, and make that NODE" — one level down should
            // NODE have been the root.
            let next = match self.structure().route(&g, pin.id(), probe, level)?.step {
                Step::Arrived => continue,
                Step::Child(next) | Step::Side(next) => next,
                Step::Restart => {
                    return Err(StoreError::Corrupt(format!(
                        "posting lost its probe after splitting node {}",
                        pin.id()
                    )))
                }
            };
            let next_pin = self.store().pool.fetch(next)?;
            g = next_pin.x();
            pin = next_pin;
        }
    }
}

/// Update Node for a key-ordered parent (B-link, TSB): insert the index
/// term `(post's key, node)` unless the parent is full under `max_entries`.
pub fn install_index_term(
    act: &mut NoWait<'_, '_>,
    pin: &PinnedPage<'_>,
    g: &mut XGuard<'_, Page>,
    post: &Completion,
    node: PageId,
    max_entries: usize,
) -> StoreResult<Install> {
    let Completion::Post { key, .. } = post else {
        return Err(StoreError::Corrupt(
            "a consolidation is not a posting".into(),
        ));
    };
    let bytes = IndexTerm::entry_for(key, node);
    if node_full(g, &bytes, max_entries) {
        return Ok(Install::Full);
    }
    act.apply(pin, g, PageOp::KeyedInsert { bytes })?;
    Ok(Install::Posted { overfull: false })
}
