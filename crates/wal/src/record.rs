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

use crate::codec::{checksum, Reader, Writer};
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

fn put_pageop(w: &mut Writer<'_>, op: &PageOp) {
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
        PageOp::KeyedInsertMany { entries } => {
            w.u8(11);
            w.byte_list(entries);
        }
        PageOp::KeyedRemoveMany { keys } => {
            w.u8(12);
            w.byte_list(keys);
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
        11 => PageOp::KeyedInsertMany {
            entries: r.byte_list()?,
        },
        12 => PageOp::KeyedRemoveMany {
            keys: r.byte_list()?,
        },
        t => return Err(StoreError::Corrupt(format!("bad PageOp tag {t}"))),
    })
}

/// Step over a `PageOp` exactly as [`get_pageop`] reads one — the same
/// bytes accepted, the same rejected — without materialising it.
fn skip_pageop(r: &mut Reader<'_>) -> StoreResult<()> {
    match r.u8()? {
        0 => PageType::from_u8(r.u8()?).map(drop),
        1 | 3 => r.u16().and_then(|_| r.skip_bytes()),
        2 => r.u16().map(drop),
        4 => r.u8().map(drop),
        5 | 6 => r.u32().map(drop),
        7..=10 => r.skip_bytes(),
        11 | 12 => r.skip_byte_list(),
        t => Err(StoreError::Corrupt(format!("bad PageOp tag {t}"))),
    }
}

fn get_undo(r: &mut Reader<'_>) -> StoreResult<UndoInfo> {
    Ok(match r.u8()? {
        0 => UndoInfo::Physiological(get_pageop(r)?),
        1 => UndoInfo::Logical {
            tag: r.u8()?,
            payload: r.bytes()?,
        },
        2 => UndoInfo::None,
        t => return Err(StoreError::Corrupt(format!("bad undo tag {t}"))),
    })
}

/// Step over undo information as [`get_undo`] reads it.
fn skip_undo(r: &mut Reader<'_>) -> StoreResult<()> {
    match r.u8()? {
        0 => skip_pageop(r),
        1 => r.u8().and_then(|_| r.skip_bytes()),
        2 => Ok(()),
        t => Err(StoreError::Corrupt(format!("bad undo tag {t}"))),
    }
}

fn put_identity(w: &mut Writer<'_>, id: &ActionIdentity) {
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

/// A record body to encode, borrowing its payload: what
/// [`crate::LogManager::append_in`] writes.
#[derive(Debug, Clone, Copy)]
pub enum RecordRef<'a> {
    /// Any record kind.
    Kind(&'a RecordKind),
    /// An update whose redo operation and undo information the caller
    /// keeps: the atomic action applies the very op it logged.
    Update {
        /// Page the redo applies to.
        pid: PageId,
        /// Redo operation.
        redo: &'a PageOp,
        /// Undo information.
        undo: &'a UndoInfo,
    },
}

impl<'a> From<&'a RecordKind> for RecordRef<'a> {
    fn from(kind: &'a RecordKind) -> RecordRef<'a> {
        RecordRef::Kind(kind)
    }
}

fn put_update(w: &mut Writer<'_>, pid: PageId, redo: &PageOp, undo: &UndoInfo) {
    w.u8(4);
    w.u64(pid.0);
    put_pageop(w, redo);
    match undo {
        UndoInfo::Physiological(op) => {
            w.u8(0);
            put_pageop(w, op);
        }
        UndoInfo::Logical { tag, payload } => {
            w.u8(1);
            w.u8(*tag);
            w.bytes(payload);
        }
        UndoInfo::None => w.u8(2),
    }
}

/// Append the frame body of the record `(prev, action, body)` to `buf`.
fn put_body(buf: &mut Vec<u8>, prev: Lsn, action: ActionId, body: RecordRef<'_>) {
    let mut w = Writer::new(buf);
    w.u64(prev.0);
    w.u64(action.0);
    let kind = match body {
        RecordRef::Update { pid, redo, undo } => return put_update(&mut w, pid, redo, undo),
        RecordRef::Kind(kind) => kind,
    };
    match kind {
        RecordKind::Begin { identity } => {
            w.u8(0);
            put_identity(&mut w, identity);
        }
        RecordKind::Commit => w.u8(1),
        RecordKind::Abort => w.u8(2),
        RecordKind::End => w.u8(3),
        RecordKind::Update { pid, redo, undo } => put_update(&mut w, *pid, redo, undo),
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
}

/// Encode the whole frame of `(prev, action, body)` — `[len u32][checksum
/// u32][body]` — into `frame`, replacing what it held. A frame buffer that
/// is reused keeps its capacity, so encoding stops allocating.
pub fn encode_frame(frame: &mut Vec<u8>, prev: Lsn, action: ActionId, body: RecordRef<'_>) {
    frame.clear();
    frame.extend_from_slice(&[0; 8]);
    put_body(frame, prev, action, body);
    let body = frame.get(8..).unwrap_or_default();
    let (len, sum) = (
        (body.len() as u32).to_le_bytes(),
        checksum(body).to_le_bytes(),
    );
    for (dst, src) in frame.iter_mut().zip(len.iter().chain(&sum)) {
        *dst = *src;
    }
}

impl LogRecord {
    /// Encode the frame body (everything but the length/checksum envelope).
    pub fn encode_body(&self) -> Vec<u8> {
        let mut body = Vec::new();
        put_body(
            &mut body,
            self.prev,
            self.action,
            RecordRef::Kind(&self.kind),
        );
        body
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
                let undo = get_undo(&mut r)?;
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

/// What analysis reads of a record: its action, the kind as far as the
/// active-action table needs it, and the page an update or CLR owes — never
/// its `PageOp`, which the redo plan reads back from the log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RecordHead {
    /// This record's LSN.
    pub lsn: Lsn,
    /// Body bytes of its frame (the frame's length field).
    pub len: u32,
    /// Owning action.
    pub action: ActionId,
    /// The kind, reduced to what analysis acts on.
    pub kind: HeadKind,
}

/// [`RecordKind`] as analysis sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum HeadKind {
    /// Start of an action's chain.
    Begin(ActionIdentity),
    /// `Commit` or `End`: the action is no longer active.
    Done,
    /// A checkpoint (its tables matter only at the master).
    Checkpoint,
    /// An update or CLR of this page: a redo record.
    Page(PageId),
    /// `Abort` or a logical CLR: the chain only advances.
    Other,
}

impl RecordHead {
    /// Read the head of a frame body. It accepts exactly the bodies
    /// [`LogRecord::decode_body`] accepts: every field is checked, the
    /// payloads are stepped over without being copied.
    pub(crate) fn decode(lsn: Lsn, body: &[u8]) -> StoreResult<RecordHead> {
        let mut r = Reader::new(body);
        r.u64()?;
        let action = ActionId(r.u64()?);
        let kind = match r.u8()? {
            0 => HeadKind::Begin(get_identity(&mut r)?),
            1 | 3 => HeadKind::Done,
            2 => HeadKind::Other,
            4 => {
                let pid = PageId(r.u64()?);
                skip_pageop(&mut r)?;
                skip_undo(&mut r)?;
                HeadKind::Page(pid)
            }
            5 => {
                let pid = PageId(r.u64()?);
                skip_pageop(&mut r)?;
                r.u64()?;
                HeadKind::Page(pid)
            }
            6 => {
                r.u64()?;
                HeadKind::Other
            }
            7 => {
                for _ in 0..r.u32()? {
                    r.u64()?;
                    get_identity(&mut r)?;
                    r.u64()?;
                }
                for _ in 0..r.u32()? {
                    r.u64()?;
                    r.u64()?;
                }
                HeadKind::Checkpoint
            }
            t => return Err(StoreError::Corrupt(format!("bad record tag {t}"))),
        };
        if !r.is_done() {
            return Err(StoreError::Corrupt("trailing bytes in log record".into()));
        }
        Ok(RecordHead {
            lsn,
            len: u32::try_from(body.len()).unwrap_or(u32::MAX),
            action,
            kind,
        })
    }
}

/// The page and redo operation of an update or CLR frame body, its undo
/// information stepped over: what the redo plan replays. Any other record
/// is an error — the plan owes only page records.
pub(crate) fn decode_redo(body: &[u8]) -> StoreResult<(PageId, PageOp)> {
    let mut r = Reader::new(body);
    r.u64()?;
    r.u64()?;
    let tag = r.u8()?;
    if !matches!(tag, 4 | 5) {
        return Err(StoreError::Corrupt(format!(
            "record tag {tag} owes no page"
        )));
    }
    let pid = PageId(r.u64()?);
    let redo = get_pageop(&mut r)?;
    if tag == 4 {
        skip_undo(&mut r)?;
    } else {
        r.u64()?;
    }
    if !r.is_done() {
        return Err(StoreError::Corrupt("trailing bytes in log record".into()));
    }
    Ok((pid, redo))
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
            PageOp::KeyedInsertMany {
                entries: vec![vec![1, 0, b'a', 5], vec![1, 0, b'b']],
            },
            PageOp::KeyedRemoveMany {
                keys: vec![b"a".to_vec(), Vec::new()],
            },
            PageOp::KeyedRemoveMany { keys: Vec::new() },
        ] {
            roundtrip(RecordKind::Update {
                pid: PageId(1),
                redo: op,
                undo: UndoInfo::None,
            });
        }
    }

    /// The head a full decode implies.
    fn head_of(rec: &LogRecord, len: usize) -> RecordHead {
        let kind = match &rec.kind {
            RecordKind::Begin { identity } => HeadKind::Begin(*identity),
            RecordKind::Commit | RecordKind::End => HeadKind::Done,
            RecordKind::Checkpoint { .. } => HeadKind::Checkpoint,
            RecordKind::Update { pid, .. } | RecordKind::Clr { pid, .. } => HeadKind::Page(*pid),
            RecordKind::Abort | RecordKind::LogicalClr { .. } => HeadKind::Other,
        };
        RecordHead {
            lsn: rec.lsn,
            len: len as u32,
            action: rec.action,
            kind,
        }
    }

    /// Analysis reads heads where it used to decode records, so the scan
    /// must end at the same frame: under every bit flip and truncation of
    /// every record shape, the head decoder accepts exactly what the full
    /// decoder accepts, and agrees with it; the redo decoder returns the
    /// full record's page and op.
    #[test]
    fn head_and_redo_decoders_accept_what_the_full_decoder_accepts() {
        let ops = [
            PageOp::Format { ty: PageType::Node },
            PageOp::UpdateSlot {
                slot: 2,
                bytes: b"upd".to_vec(),
            },
            PageOp::SetBit { bit: 7 },
            PageOp::KeyedRemoveMany {
                keys: vec![b"a".to_vec(), Vec::new()],
            },
        ];
        let mut kinds = vec![
            RecordKind::Begin {
                identity: ActionIdentity::NestedTopAction {
                    parent: ActionId(3),
                },
            },
            RecordKind::Commit,
            RecordKind::Abort,
            RecordKind::End,
            RecordKind::LogicalClr { undo_next: Lsn(9) },
            RecordKind::Checkpoint {
                active: vec![(ActionId(1), ActionIdentity::Transaction, Lsn(10))],
                dirty: vec![(PageId(3), Lsn(5))],
            },
        ];
        for op in &ops {
            for undo in [
                UndoInfo::Physiological(op.clone()),
                UndoInfo::Logical {
                    tag: 1,
                    payload: b"k".to_vec(),
                },
                UndoInfo::None,
            ] {
                kinds.push(RecordKind::Update {
                    pid: PageId(11),
                    redo: op.clone(),
                    undo,
                });
            }
            kinds.push(RecordKind::Clr {
                pid: PageId(12),
                redo: op.clone(),
                undo_next: Lsn(4),
            });
        }
        for kind in kinds {
            let rec = LogRecord {
                lsn: Lsn(1),
                prev: Lsn(0),
                action: ActionId(6),
                kind,
            };
            let body = rec.encode_body();
            let mut variants: Vec<Vec<u8>> = (0..body.len()).map(|n| body[..n].to_vec()).collect();
            for bit in 0..body.len() * 8 {
                let mut b = body.clone();
                b[bit / 8] ^= 1 << (bit % 8);
                variants.push(b);
            }
            variants.push(body);
            for b in variants {
                let full = LogRecord::decode_body(Lsn(1), &b);
                let head = RecordHead::decode(Lsn(1), &b);
                assert_eq!(full.is_ok(), head.is_ok(), "{b:?}");
                let Ok(full) = full else { continue };
                assert_eq!(head.ok(), Some(head_of(&full, b.len())), "{b:?}");
                match full.kind {
                    RecordKind::Update { pid, redo, .. } | RecordKind::Clr { pid, redo, .. } => {
                        assert_eq!(decode_redo(&b).unwrap(), (pid, redo));
                    }
                    _ => assert!(decode_redo(&b).is_err()),
                }
            }
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
