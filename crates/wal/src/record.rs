//! Log record types and their binary encoding.
//!
//! Records form per-action backward chains through `prev_lsn`, exactly as in
//! ARIES \[13\]; CLRs carry `undo_next` so that undo after a crash-during-undo
//! never compensates twice. The `PageOp` payloads come from
//! `pitree-pagestore`, keeping the log (and therefore recovery) ignorant of
//! tree semantics.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing,
    clippy::disallowed_macros
)]

use crate::codec::{Reader, Writer};
use pitree_pagestore::page::PageType;
use pitree_pagestore::{Lsn, PageId, PageOp, StoreError, StoreResult};
use std::fmt;

/// Identifier of an atomic action or a database transaction. Both are
/// log-chain owners; the paper's §4.3.2 lists the ways an atomic action can
/// be *identified to* the recovery manager — see [`ActionIdentity`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ActionId(pub u64);

impl fmt::Display for ActionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "A{}", self.0)
    }
}

/// How an atomic action is identified to the recovery manager (§4.3.2):
/// "(i) a separate database transaction, (ii) a special system transaction,
/// or (iii) as a nested top level action."
///
/// All three provide atomicity; they differ only in bookkeeping, which is why
/// the paper's approach "works with any of these techniques". Recovery rolls
/// back any identity whose chain lacks a durable `Commit`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActionIdentity {
    /// A user database transaction (holds database locks; commit is forced).
    Transaction,
    /// An independent atomic action run as a separate transaction.
    SeparateTransaction,
    /// A system transaction: not user-visible, relatively durable commit.
    SystemTransaction,
    /// A nested top action of `parent`: logs under its own chain so that the
    /// parent's rollback does not undo it, mirroring ARIES NTAs.
    NestedTopAction {
        /// The user transaction on whose behalf the action runs.
        parent: ActionId,
    },
}

/// Undo information carried by an update record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UndoInfo {
    /// Page-oriented undo: apply this inverse operation to the same page
    /// (§4.2's "undos ... must take place on the same page as the original
    /// update").
    Physiological(PageOp),
    /// Logical undo: hand `(tag, payload)` to the tree's registered
    /// [`crate::recovery::LogicalUndoHandler`], which compensates through
    /// the tree's own (idempotent, testable) operations.
    Logical {
        /// Dispatch tag interpreted by the handler.
        tag: u8,
        /// Opaque payload (e.g. an encoded key).
        payload: Vec<u8>,
    },
    /// Redo-only update (protected by a coarser mechanism, e.g. applied and
    /// compensated within the same atomic action).
    None,
}

/// The body of a log record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecordKind {
    /// Start of an action's chain.
    Begin {
        /// How this action is identified to recovery.
        identity: ActionIdentity,
    },
    /// The action completed. Durability is *relative* (§4.3.1): no log force
    /// happens here; the next forced record carries it.
    Commit,
    /// The action decided to roll back (undo follows, ending with `End`).
    Abort,
    /// Rollback finished; the action is fully gone.
    End,
    /// A physiological page update with undo information.
    Update {
        /// Page the redo applies to.
        pid: PageId,
        /// Redo operation.
        redo: PageOp,
        /// Undo information.
        undo: UndoInfo,
    },
    /// Compensation record: redo-only re-application of an undo, with the
    /// `undo_next` pointer that makes undo restartable.
    Clr {
        /// Page the compensation applies to.
        pid: PageId,
        /// The (inverse) operation that was applied as compensation.
        redo: PageOp,
        /// Next record of this chain still to undo.
        undo_next: Lsn,
    },
    /// Marker CLR for a completed *logical* undo step (the compensation was
    /// performed through tree operations that logged their own updates).
    LogicalClr {
        /// Next record of this chain still to undo.
        undo_next: Lsn,
    },
    /// Fuzzy checkpoint: a snapshot of the active-action table and dirty-page
    /// table.
    Checkpoint {
        /// (action, identity, last LSN) of every live action.
        active: Vec<(ActionId, ActionIdentity, Lsn)>,
        /// (page, recovery LSN) of every dirty buffered page.
        dirty: Vec<(PageId, Lsn)>,
    },
}

/// A decoded log record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogRecord {
    /// This record's LSN (assigned at append; not stored in the frame).
    pub lsn: Lsn,
    /// Previous record of the same action's chain, or `Lsn::ZERO`.
    pub prev: Lsn,
    /// Owning action.
    pub action: ActionId,
    /// Payload.
    pub kind: RecordKind,
}

// ---- PageOp codec ----------------------------------------------------------

fn put_pageop(w: &mut Writer, op: &PageOp) {
    match op {
        PageOp::Format { ty } => {
            w.u8(0);
            w.u8(*ty as u8);
        }
        PageOp::InsertSlot { slot, bytes } => {
            w.u8(1);
            w.u16(*slot);
            w.bytes(bytes);
        }
        PageOp::RemoveSlot { slot } => {
            w.u8(2);
            w.u16(*slot);
        }
        PageOp::UpdateSlot { slot, bytes } => {
            w.u8(3);
            w.u16(*slot);
            w.bytes(bytes);
        }
        PageOp::SetFlags { flags } => {
            w.u8(4);
            w.u8(*flags);
        }
        PageOp::SetBit { bit } => {
            w.u8(5);
            w.u32(*bit);
        }
        PageOp::ClearBit { bit } => {
            w.u8(6);
            w.u32(*bit);
        }
        PageOp::FullImage { bytes } => {
            w.u8(7);
            w.bytes(bytes);
        }
        PageOp::KeyedInsert { bytes } => {
            w.u8(8);
            w.bytes(bytes);
        }
        PageOp::KeyedRemove { key } => {
            w.u8(9);
            w.bytes(key);
        }
        PageOp::KeyedUpdate { bytes } => {
            w.u8(10);
            w.bytes(bytes);
        }
    }
}

fn get_pageop(r: &mut Reader<'_>) -> StoreResult<PageOp> {
    Ok(match r.u8()? {
        0 => PageOp::Format {
            ty: PageType::from_u8(r.u8()?)?,
        },
        1 => PageOp::InsertSlot {
            slot: r.u16()?,
            bytes: r.bytes()?,
        },
        2 => PageOp::RemoveSlot { slot: r.u16()? },
        3 => PageOp::UpdateSlot {
            slot: r.u16()?,
            bytes: r.bytes()?,
        },
        4 => PageOp::SetFlags { flags: r.u8()? },
        5 => PageOp::SetBit { bit: r.u32()? },
        6 => PageOp::ClearBit { bit: r.u32()? },
        7 => PageOp::FullImage { bytes: r.bytes()? },
        8 => PageOp::KeyedInsert { bytes: r.bytes()? },
        9 => PageOp::KeyedRemove { key: r.bytes()? },
        10 => PageOp::KeyedUpdate { bytes: r.bytes()? },
        t => return Err(StoreError::Corrupt(format!("bad PageOp tag {t}"))),
    })
}

fn put_identity(w: &mut Writer, id: &ActionIdentity) {
    match id {
        ActionIdentity::Transaction => w.u8(0),
        ActionIdentity::SeparateTransaction => w.u8(1),
        ActionIdentity::SystemTransaction => w.u8(2),
        ActionIdentity::NestedTopAction { parent } => {
            w.u8(3);
            w.u64(parent.0);
        }
    }
}

fn get_identity(r: &mut Reader<'_>) -> StoreResult<ActionIdentity> {
    Ok(match r.u8()? {
        0 => ActionIdentity::Transaction,
        1 => ActionIdentity::SeparateTransaction,
        2 => ActionIdentity::SystemTransaction,
        3 => ActionIdentity::NestedTopAction {
            parent: ActionId(r.u64()?),
        },
        t => return Err(StoreError::Corrupt(format!("bad identity tag {t}"))),
    })
}

impl LogRecord {
    /// Encode the frame body (everything but the length/checksum envelope).
    pub fn encode_body(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u64(self.prev.0);
        w.u64(self.action.0);
        match &self.kind {
            RecordKind::Begin { identity } => {
                w.u8(0);
                put_identity(&mut w, identity);
            }
            RecordKind::Commit => w.u8(1),
            RecordKind::Abort => w.u8(2),
            RecordKind::End => w.u8(3),
            RecordKind::Update { pid, redo, undo } => {
                w.u8(4);
                w.u64(pid.0);
                put_pageop(&mut w, redo);
                match undo {
                    UndoInfo::Physiological(op) => {
                        w.u8(0);
                        put_pageop(&mut w, op);
                    }
                    UndoInfo::Logical { tag, payload } => {
                        w.u8(1);
                        w.u8(*tag);
                        w.bytes(payload);
                    }
                    UndoInfo::None => w.u8(2),
                }
            }
            RecordKind::Clr {
                pid,
                redo,
                undo_next,
            } => {
                w.u8(5);
                w.u64(pid.0);
                put_pageop(&mut w, redo);
                w.u64(undo_next.0);
            }
            RecordKind::LogicalClr { undo_next } => {
                w.u8(6);
                w.u64(undo_next.0);
            }
            RecordKind::Checkpoint { active, dirty } => {
                w.u8(7);
                w.u32(active.len() as u32);
                for (a, id, l) in active {
                    w.u64(a.0);
                    put_identity(&mut w, id);
                    w.u64(l.0);
                }
                w.u32(dirty.len() as u32);
                for (p, l) in dirty {
                    w.u64(p.0);
                    w.u64(l.0);
                }
            }
        }
        w.into_bytes()
    }

    /// Decode a frame body. `lsn` is supplied by the caller (it is the
    /// frame's position in the log).
    pub fn decode_body(lsn: Lsn, body: &[u8]) -> StoreResult<LogRecord> {
        let mut r = Reader::new(body);
        let prev = Lsn(r.u64()?);
        let action = ActionId(r.u64()?);
        let kind = match r.u8()? {
            0 => RecordKind::Begin {
                identity: get_identity(&mut r)?,
            },
            1 => RecordKind::Commit,
            2 => RecordKind::Abort,
            3 => RecordKind::End,
            4 => {
                let pid = PageId(r.u64()?);
                let redo = get_pageop(&mut r)?;
                let undo = match r.u8()? {
                    0 => UndoInfo::Physiological(get_pageop(&mut r)?),
                    1 => UndoInfo::Logical {
                        tag: r.u8()?,
                        payload: r.bytes()?,
                    },
                    2 => UndoInfo::None,
                    t => return Err(StoreError::Corrupt(format!("bad undo tag {t}"))),
                };
                RecordKind::Update { pid, redo, undo }
            }
            5 => RecordKind::Clr {
                pid: PageId(r.u64()?),
                redo: get_pageop(&mut r)?,
                undo_next: Lsn(r.u64()?),
            },
            6 => RecordKind::LogicalClr {
                undo_next: Lsn(r.u64()?),
            },
            7 => {
                // Unvalidated counts reserve no more entries than the rest of
                // the body can hold (an active entry is >= 17 bytes, dirty 16).
                let na = r.u32()?;
                let mut active = Vec::with_capacity((na as usize).min(r.remaining() / 17));
                for _ in 0..na {
                    let a = ActionId(r.u64()?);
                    let id = get_identity(&mut r)?;
                    let l = Lsn(r.u64()?);
                    active.push((a, id, l));
                }
                let nd = r.u32()?;
                let mut dirty = Vec::with_capacity((nd as usize).min(r.remaining() / 16));
                for _ in 0..nd {
                    dirty.push((PageId(r.u64()?), Lsn(r.u64()?)));
                }
                RecordKind::Checkpoint { active, dirty }
            }
            t => return Err(StoreError::Corrupt(format!("bad record tag {t}"))),
        };
        if !r.is_done() {
            return Err(StoreError::Corrupt("trailing bytes in log record".into()));
        }
        Ok(LogRecord {
            lsn,
            prev,
            action,
            kind,
        })
    }
}

#[cfg(test)]
#[expect(clippy::disallowed_macros, reason = "test assertions")]
mod tests {
    use super::*;

    fn roundtrip(kind: RecordKind) {
        let rec = LogRecord {
            lsn: Lsn(123),
            prev: Lsn(45),
            action: ActionId(6),
            kind,
        };
        let body = rec.encode_body();
        let back = LogRecord::decode_body(Lsn(123), &body).unwrap();
        assert_eq!(rec, back);
    }

    #[test]
    fn control_records_roundtrip() {
        roundtrip(RecordKind::Begin {
            identity: ActionIdentity::Transaction,
        });
        roundtrip(RecordKind::Begin {
            identity: ActionIdentity::SystemTransaction,
        });
        roundtrip(RecordKind::Begin {
            identity: ActionIdentity::NestedTopAction {
                parent: ActionId(99),
            },
        });
        roundtrip(RecordKind::Commit);
        roundtrip(RecordKind::Abort);
        roundtrip(RecordKind::End);
    }

    #[test]
    fn update_records_roundtrip() {
        roundtrip(RecordKind::Update {
            pid: PageId(7),
            redo: PageOp::InsertSlot {
                slot: 3,
                bytes: b"rec".to_vec(),
            },
            undo: UndoInfo::Physiological(PageOp::RemoveSlot { slot: 3 }),
        });
        roundtrip(RecordKind::Update {
            pid: PageId(7),
            redo: PageOp::RemoveSlot { slot: 0 },
            undo: UndoInfo::Logical {
                tag: 2,
                payload: b"key".to_vec(),
            },
        });
        roundtrip(RecordKind::Update {
            pid: PageId(1),
            redo: PageOp::SetBit { bit: 900 },
            undo: UndoInfo::None,
        });
    }

    #[test]
    fn clr_roundtrip() {
        roundtrip(RecordKind::Clr {
            pid: PageId(9),
            redo: PageOp::UpdateSlot {
                slot: 1,
                bytes: b"old".to_vec(),
            },
            undo_next: Lsn(17),
        });
        roundtrip(RecordKind::LogicalClr { undo_next: Lsn(0) });
    }

    #[test]
    fn checkpoint_roundtrip() {
        roundtrip(RecordKind::Checkpoint {
            active: vec![
                (ActionId(1), ActionIdentity::Transaction, Lsn(10)),
                (ActionId(2), ActionIdentity::SeparateTransaction, Lsn(20)),
            ],
            dirty: vec![(PageId(3), Lsn(5)), (PageId(4), Lsn(6))],
        });
        roundtrip(RecordKind::Checkpoint {
            active: vec![],
            dirty: vec![],
        });
    }

    #[test]
    fn checkpoint_counts_past_the_body_are_corrupt() {
        // An empty checkpoint whose active (byte 17) or dirty (byte 21)
        // entry count reads u32::MAX: the checksum would still pass.
        for at in [17, 21] {
            let mut body = LogRecord {
                lsn: Lsn(1),
                prev: Lsn::ZERO,
                action: ActionId(1),
                kind: RecordKind::Checkpoint {
                    active: vec![],
                    dirty: vec![],
                },
            }
            .encode_body();
            body[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            let res = LogRecord::decode_body(Lsn(1), &body);
            assert!(matches!(res, Err(StoreError::Corrupt(_))), "count at {at}");
        }
    }

    #[test]
    fn all_pageops_roundtrip() {
        for op in [
            PageOp::Format { ty: PageType::Node },
            PageOp::InsertSlot {
                slot: 0,
                bytes: vec![1, 2, 3],
            },
            PageOp::RemoveSlot { slot: 5 },
            PageOp::UpdateSlot {
                slot: 2,
                bytes: vec![],
            },
            PageOp::SetFlags { flags: 0xff },
            PageOp::SetBit { bit: 31999 },
            PageOp::ClearBit { bit: 0 },
            PageOp::FullImage {
                bytes: vec![0u8; 64],
            },
            PageOp::KeyedInsert {
                bytes: vec![2, 0, b'a', b'b', 9, 9],
            },
            PageOp::KeyedRemove {
                key: b"ab".to_vec(),
            },
            PageOp::KeyedUpdate {
                bytes: vec![1, 0, b'z', 7],
            },
        ] {
            roundtrip(RecordKind::Update {
                pid: PageId(1),
                redo: op,
                undo: UndoInfo::None,
            });
        }
    }

    #[test]
    fn garbage_rejected() {
        assert!(LogRecord::decode_body(Lsn(1), &[]).is_err());
        assert!(LogRecord::decode_body(Lsn(1), &[0u8; 17]).is_err());
        // Trailing bytes are an error.
        let rec = LogRecord {
            lsn: Lsn(1),
            prev: Lsn(0),
            action: ActionId(1),
            kind: RecordKind::Commit,
        };
        let mut body = rec.encode_body();
        body.push(0);
        assert!(LogRecord::decode_body(Lsn(1), &body).is_err());
    }
}
