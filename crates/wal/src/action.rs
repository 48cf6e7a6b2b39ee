//! Atomic actions (§4, §4.3.2).
//!
//! An [`AtomicAction`] brackets a group of page updates that must be
//! all-or-nothing and must leave the tree well-formed. Π-tree structure
//! changes are decomposed into sequences of these (§5): the node split is one
//! action, the index-term posting another, a consolidation a third.
//!
//! Actions above the leaf level are independent of database transactions and
//! of short duration; their commit is *relatively durable* — [`AtomicAction::commit`]
//! appends a `Commit` record without forcing the log (§4.3.1). A user
//! transaction's commit uses [`AtomicAction::commit_force`], which also
//! carries every earlier unforced action commit to disk (same-log
//! assumption, as the paper notes).

use crate::log::LogManager;
use crate::record::{ActionId, ActionIdentity, RecordKind, RecordRef, UndoInfo};
use crate::recovery::LogicalUndoHandler;
use pitree_pagestore::buffer::{BufferPool, PinnedPage};
use pitree_pagestore::latch::XGuard;
use pitree_pagestore::page::Page;
use pitree_pagestore::{Lsn, PageOp, StoreError, StoreResult};

/// Bytes an action's frame buffer starts with: a `Begin`, a `Commit` and
/// an update carrying a small entry fit, so most actions allocate it once.
const FRAME_CAPACITY: usize = 128;

/// A live atomic action: owns a log chain; applies and logs page operations.
pub struct AtomicAction<'a> {
    log: &'a LogManager,
    id: ActionId,
    identity: ActionIdentity,
    last: Lsn,
    /// Every record of the chain is encoded here ([`LogManager::append_in`]).
    frame: Vec<u8>,
}

impl std::fmt::Debug for AtomicAction<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AtomicAction").finish_non_exhaustive()
    }
}

impl<'a> AtomicAction<'a> {
    /// Begin an action with the given recovery identity.
    pub fn begin(log: &'a LogManager, identity: ActionIdentity) -> AtomicAction<'a> {
        let mut act = AtomicAction {
            log,
            id: log.next_action_id(),
            identity,
            last: Lsn::ZERO,
            frame: Vec::with_capacity(FRAME_CAPACITY),
        };
        act.log_record(RecordRef::Kind(&RecordKind::Begin { identity }));
        log.action_counters().begins.inc();
        act
    }

    /// Append `body` as the chain's next record.
    fn log_record(&mut self, body: RecordRef<'_>) -> Lsn {
        self.last = self
            .log
            .append_in(&mut self.frame, self.id, self.last, body);
        self.last
    }

    /// This action's id.
    pub fn id(&self) -> ActionId {
        self.id
    }

    /// The action's recovery identity.
    pub fn identity(&self) -> ActionIdentity {
        self.identity
    }

    /// LSN of the action's most recent record.
    pub fn last_lsn(&self) -> Lsn {
        self.last
    }

    /// Log and apply `op` to the X-latched page, with page-oriented
    /// (physiological) undo information. Stamps the page LSN and marks the
    /// frame dirty — the full WAL discipline in one place.
    pub fn apply(
        &mut self,
        page: &PinnedPage<'_>,
        g: &mut XGuard<'_, Page>,
        op: PageOp,
    ) -> StoreResult<Lsn> {
        let undo = UndoInfo::Physiological(op.invert(g)?);
        self.apply_with_undo(page, g, op, undo)
    }

    /// Log and apply `op` with *logical* undo information: on rollback the
    /// registered [`LogicalUndoHandler`] receives `(tag, payload)` and
    /// compensates through tree operations (non-page-oriented UNDO, §4.2).
    pub fn apply_logical(
        &mut self,
        page: &PinnedPage<'_>,
        g: &mut XGuard<'_, Page>,
        op: PageOp,
        tag: u8,
        payload: Vec<u8>,
    ) -> StoreResult<Lsn> {
        self.apply_with_undo(page, g, op, UndoInfo::Logical { tag, payload })
    }

    /// Log and apply `op` with no undo information (redo-only).
    pub fn apply_redo_only(
        &mut self,
        page: &PinnedPage<'_>,
        g: &mut XGuard<'_, Page>,
        op: PageOp,
    ) -> StoreResult<Lsn> {
        self.apply_with_undo(page, g, op, UndoInfo::None)
    }

    fn apply_with_undo(
        &mut self,
        page: &PinnedPage<'_>,
        g: &mut XGuard<'_, Page>,
        op: PageOp,
        undo: UndoInfo,
    ) -> StoreResult<Lsn> {
        // Mark the frame dirty *before* the append so a fuzzy checkpoint
        // running concurrently can never observe the update record in the
        // log while the page is still absent from its dirty-page table
        // (which would leave the record below the recovered redo horizon).
        // The conservative recovery LSN — the current tail — is ≤ the
        // record's LSN, so the redo scan can only start earlier, never miss.
        // The §4.3.1 ordering this inverts is write-back vs append, and
        // that is still enforced: the page content changes only after the
        // append ([`PinnedPage::apply_logged`]), and write-back forces the
        // log to the page LSN.
        page.mark_dirty_at(self.log.tail_lsn());
        page.apply_logged(g, &op, || {
            self.log_record(RecordRef::Update {
                pid: page.id(),
                redo: &op,
                undo: &undo,
            })
        })
    }

    /// Commit without forcing the log — relative durability (§4.3.1).
    pub fn commit(mut self) -> Lsn {
        self.log_record(RecordRef::Kind(&RecordKind::Commit));
        self.log.action_counters().commits.inc();
        self.last
    }

    /// Commit for the pipelined path: append the `Commit` record but do
    /// not wait for a force. Past this point the action can no longer
    /// abort — it is *committed in the log* — yet it is not durable:
    /// callers acknowledge only once [`LogManager::flushed_lsn`] covers the
    /// returned LSN (early lock release over the §4.3.1 durable-watermark
    /// discipline).
    pub fn commit_append(mut self) -> Lsn {
        self.log_record(RecordRef::Kind(&RecordKind::Commit));
        self.log.action_counters().commits.inc();
        self.last
    }

    /// Commit and force the log (user-transaction commit). Everything
    /// earlier in the log — including unforced atomic-action commits whose
    /// results this transaction may depend on — becomes durable with it.
    pub fn commit_force(mut self) -> StoreResult<Lsn> {
        self.log_record(RecordRef::Kind(&RecordKind::Commit));
        self.log.force_to(self.last)?;
        self.log.action_counters().commits.inc();
        Ok(self.last)
    }

    /// Roll the action back now, applying undo information in reverse order
    /// and writing CLRs so that a crash mid-rollback never compensates
    /// twice.
    pub fn rollback(
        mut self,
        pool: &BufferPool,
        handler: Option<&dyn LogicalUndoHandler>,
    ) -> StoreResult<()> {
        self.log_record(RecordRef::Kind(&RecordKind::Abort));
        self.log.action_counters().aborts.inc();
        let mut cursor = self.last;
        while cursor != Lsn::ZERO {
            let rec = self.log.read(cursor)?;
            match rec.kind {
                RecordKind::Update { pid, undo, .. } => {
                    match undo {
                        UndoInfo::Physiological(inv) => {
                            let page = pool.fetch(pid)?;
                            let mut g = page.x();
                            // Same pre-append marking as `apply_with_undo`:
                            // the CLR must be in the checkpoint's redo range.
                            page.mark_dirty_at(self.log.tail_lsn());
                            page.apply_logged(&mut g, &inv, || {
                                self.log_record(RecordRef::Kind(&RecordKind::Clr {
                                    pid,
                                    redo: inv.clone(),
                                    undo_next: rec.prev,
                                }))
                            })?;
                        }
                        UndoInfo::Logical { tag, payload } => {
                            let h = handler.ok_or_else(|| {
                                StoreError::Corrupt(
                                    "logical undo record but no LogicalUndoHandler registered"
                                        .to_string(),
                                )
                            })?;
                            h.undo(tag, &payload)?;
                            self.log_record(RecordRef::Kind(&RecordKind::LogicalClr {
                                undo_next: rec.prev,
                            }));
                        }
                        UndoInfo::None => {}
                    }
                    cursor = rec.prev;
                }
                RecordKind::Clr { undo_next, .. } | RecordKind::LogicalClr { undo_next } => {
                    cursor = undo_next;
                }
                RecordKind::Begin { .. } => break,
                // Abort (just written) and anything else: step back.
                _ => cursor = rec.prev,
            }
        }
        self.log_record(RecordRef::Kind(&RecordKind::End));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::{LogManager, LogStore, MemLogStore};
    use pitree_pagestore::page::PageType;
    use pitree_pagestore::{MemDisk, PageId};
    use std::sync::Arc;

    fn setup() -> (Arc<BufferPool>, Arc<LogManager>) {
        let disk = Arc::new(MemDisk::new());
        let pool = Arc::new(BufferPool::new(disk, 32));
        let log =
            Arc::new(LogManager::open(Arc::new(MemLogStore::new()) as Arc<dyn LogStore>).unwrap());
        pool.set_wal_hook(Arc::clone(&log) as Arc<dyn pitree_pagestore::buffer::WalFlush>);
        (pool, log)
    }

    #[test]
    fn apply_stamps_lsn_and_dirties() {
        let (pool, log) = setup();
        let page = pool.fetch_or_create(PageId(5), PageType::Node).unwrap();
        let mut act = AtomicAction::begin(&log, ActionIdentity::SystemTransaction);
        {
            let mut g = page.x();
            let lsn = act
                .apply(
                    &page,
                    &mut g,
                    PageOp::InsertSlot {
                        slot: 0,
                        bytes: b"r".to_vec(),
                    },
                )
                .unwrap();
            assert_eq!(g.lsn(), lsn);
        }
        act.commit();
        assert_eq!(pool.dirty_pages().len(), 1);
    }

    #[test]
    fn rollback_restores_page_content() {
        let (pool, log) = setup();
        let page = pool.fetch_or_create(PageId(5), PageType::Node).unwrap();
        {
            let mut g = page.x();
            let mut act = AtomicAction::begin(&log, ActionIdentity::SystemTransaction);
            act.apply(
                &page,
                &mut g,
                PageOp::InsertSlot {
                    slot: 0,
                    bytes: b"keep".to_vec(),
                },
            )
            .unwrap();
            act.commit();
        }
        let mut act = AtomicAction::begin(&log, ActionIdentity::SystemTransaction);
        {
            let mut g = page.x();
            act.apply(
                &page,
                &mut g,
                PageOp::InsertSlot {
                    slot: 1,
                    bytes: b"bye".to_vec(),
                },
            )
            .unwrap();
            act.apply(
                &page,
                &mut g,
                PageOp::UpdateSlot {
                    slot: 0,
                    bytes: b"mod!".to_vec(),
                },
            )
            .unwrap();
        }
        act.rollback(&pool, None).unwrap();
        let g = page.s();
        assert_eq!(g.slot_count(), 1);
        assert_eq!(g.get(0).unwrap(), b"keep");
    }

    #[test]
    fn rollback_writes_clr_chain() {
        let (pool, log) = setup();
        let page = pool.fetch_or_create(PageId(5), PageType::Node).unwrap();
        let mut act = AtomicAction::begin(&log, ActionIdentity::SeparateTransaction);
        {
            let mut g = page.x();
            act.apply(
                &page,
                &mut g,
                PageOp::InsertSlot {
                    slot: 0,
                    bytes: b"a".to_vec(),
                },
            )
            .unwrap();
            act.apply(
                &page,
                &mut g,
                PageOp::InsertSlot {
                    slot: 1,
                    bytes: b"b".to_vec(),
                },
            )
            .unwrap();
        }
        let id = act.id();
        act.rollback(&pool, None).unwrap();
        let recs: Vec<_> = log
            .scan(None)
            .map(|r| r.expect("scan"))
            .filter(|r| r.action == id)
            .collect();
        // Begin, 2 updates, Abort, 2 CLRs, End.
        assert_eq!(recs.len(), 7);
        assert!(matches!(recs[3].kind, RecordKind::Abort));
        assert!(matches!(recs[4].kind, RecordKind::Clr { .. }));
        assert!(matches!(recs[6].kind, RecordKind::End));
        // CLR undo_next pointers walk backwards through the updates.
        if let RecordKind::Clr { undo_next, .. } = recs[4].kind {
            assert_eq!(undo_next, recs[1].lsn);
        }
        if let RecordKind::Clr { undo_next, .. } = recs[5].kind {
            assert_eq!(undo_next, recs[0].lsn, "last CLR points back to Begin");
        }
    }

    #[test]
    fn logical_undo_invokes_handler() {
        struct H(pitree_pagestore::sync::Mutex<Vec<(u8, Vec<u8>)>>);
        impl LogicalUndoHandler for H {
            fn undo(&self, tag: u8, payload: &[u8]) -> StoreResult<()> {
                self.0.lock().push((tag, payload.to_vec()));
                Ok(())
            }
        }
        let (pool, log) = setup();
        let page = pool.fetch_or_create(PageId(5), PageType::Node).unwrap();
        let mut act = AtomicAction::begin(&log, ActionIdentity::Transaction);
        {
            let mut g = page.x();
            act.apply_logical(
                &page,
                &mut g,
                PageOp::InsertSlot {
                    slot: 0,
                    bytes: b"rec".to_vec(),
                },
                7,
                b"key-7".to_vec(),
            )
            .unwrap();
        }
        let h = H(pitree_pagestore::sync::Mutex::new(Vec::new()));
        act.rollback(&pool, Some(&h)).unwrap();
        let calls = h.0.lock();
        assert_eq!(calls.len(), 1);
        assert_eq!(calls[0], (7, b"key-7".to_vec()));
    }

    #[test]
    fn commit_is_not_forced_but_commit_force_is() {
        let (pool, log) = setup();
        let page = pool.fetch_or_create(PageId(5), PageType::Node).unwrap();
        let mut act = AtomicAction::begin(&log, ActionIdentity::SystemTransaction);
        {
            let mut g = page.x();
            act.apply(
                &page,
                &mut g,
                PageOp::InsertSlot {
                    slot: 0,
                    bytes: b"x".to_vec(),
                },
            )
            .unwrap();
        }
        act.commit();
        assert_eq!(
            log.flushed_lsn(),
            Lsn(0),
            "atomic-action commit must not force"
        );

        let mut act2 = AtomicAction::begin(&log, ActionIdentity::Transaction);
        {
            let mut g = page.x();
            act2.apply(
                &page,
                &mut g,
                PageOp::InsertSlot {
                    slot: 1,
                    bytes: b"y".to_vec(),
                },
            )
            .unwrap();
        }
        let commit_lsn = act2.commit_force().unwrap();
        assert!(
            log.flushed_lsn() >= commit_lsn,
            "commit_force must make the commit durable"
        );
        // The earlier, unforced commit rode along.
        let durable = log.store().durable_bytes().unwrap();
        let recs = crate::log::scan_bytes(&durable, None);
        assert!(recs.iter().any(|r| matches!(r.kind, RecordKind::Commit)));
        assert!(recs.len() >= 6);
    }

    #[test]
    fn action_counters_advance_through_the_resolved_handles() {
        let (pool, log) = setup();
        let rec = log.recorder().clone();
        let count = |name: &'static str| rec.counter(name).get();
        let (b0, c0, a0) = (
            count("action.begins"),
            count("action.commits"),
            count("action.aborts"),
        );
        AtomicAction::begin(&log, ActionIdentity::SystemTransaction).commit();
        AtomicAction::begin(&log, ActionIdentity::Transaction).commit_append();
        AtomicAction::begin(&log, ActionIdentity::Transaction)
            .commit_force()
            .unwrap();
        AtomicAction::begin(&log, ActionIdentity::Transaction)
            .rollback(&pool, None)
            .unwrap();
        assert_eq!(count("action.begins") - b0, 4);
        assert_eq!(count("action.commits") - c0, 3);
        assert_eq!(count("action.aborts") - a0, 1);
    }
}
