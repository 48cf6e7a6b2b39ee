//! No log record decoder trusts its bytes.
//!
//! Recovery decodes every frame body the durable log holds, and a torn or
//! damaged body is an input, not a bug. One encoded body of every
//! `RecordKind`, every `PageOp` and every `ActionIdentity` goes through
//! `LogRecord::decode_body` under every single-bit flip and every
//! truncation. Each result is a typed `StoreError` or a record, never a
//! panic. An accepted body re-encodes to exactly its bytes: fields are
//! fixed-width or length-prefixed and trailing bytes are rejected, so the
//! encoding has no redundant forms, and no strict prefix of a body decodes.

use pitree_pagestore::page::PageType;
use pitree_pagestore::{Lsn, PageId, PageOp};
use pitree_wal::{ActionId, ActionIdentity, LogRecord, RecordKind, UndoInfo};
use std::panic::{catch_unwind, AssertUnwindSafe};

const IDENTITIES: [ActionIdentity; 4] = [
    ActionIdentity::Transaction,
    ActionIdentity::SeparateTransaction,
    ActionIdentity::SystemTransaction,
    ActionIdentity::NestedTopAction {
        parent: ActionId(0x0102_0304_0506_0708),
    },
];

/// One operation of every `PageOp` variant.
fn page_ops() -> Vec<PageOp> {
    vec![
        PageOp::Format { ty: PageType::Node },
        PageOp::InsertSlot {
            slot: 3,
            bytes: b"insert".to_vec(),
        },
        PageOp::RemoveSlot { slot: 0x0203 },
        PageOp::UpdateSlot {
            slot: 1,
            bytes: b"upd".to_vec(),
        },
        PageOp::SetFlags { flags: 0x5a },
        PageOp::SetBit { bit: 0x0001_0203 },
        PageOp::ClearBit { bit: 77 },
        PageOp::FullImage {
            bytes: (0..24).collect(),
        },
        PageOp::KeyedInsert {
            bytes: b"\x03\x00keyvalue".to_vec(),
        },
        PageOp::KeyedRemove {
            key: b"key".to_vec(),
        },
        PageOp::KeyedUpdate {
            bytes: b"\x01\x00kv".to_vec(),
        },
    ]
}

/// One record of every `RecordKind`, carrying every `PageOp` (as redo and
/// as physiological undo), every `UndoInfo` and every `ActionIdentity`.
fn records() -> Vec<LogRecord> {
    let ops = page_ops();
    let mut kinds: Vec<RecordKind> = IDENTITIES
        .iter()
        .map(|&identity| RecordKind::Begin { identity })
        .collect();
    kinds.extend([RecordKind::Commit, RecordKind::Abort, RecordKind::End]);
    for (i, op) in ops.iter().enumerate() {
        let undo = match i % 3 {
            0 => UndoInfo::Physiological(ops[(i + 1) % ops.len()].clone()),
            1 => UndoInfo::Logical {
                tag: 7,
                payload: b"payload".to_vec(),
            },
            _ => UndoInfo::None,
        };
        kinds.push(RecordKind::Update {
            pid: PageId(40 + i as u64),
            redo: op.clone(),
            undo,
        });
        kinds.push(RecordKind::Clr {
            pid: PageId(90 + i as u64),
            redo: op.clone(),
            undo_next: Lsn(0x1111),
        });
    }
    kinds.push(RecordKind::LogicalClr {
        undo_next: Lsn(0x2222),
    });
    kinds.push(RecordKind::Checkpoint {
        active: IDENTITIES
            .iter()
            .enumerate()
            .map(|(i, &id)| (ActionId(i as u64 + 1), id, Lsn(100 + i as u64)))
            .collect(),
        dirty: vec![(PageId(5), Lsn(9)), (PageId(6), Lsn(11))],
    });
    kinds.push(RecordKind::Checkpoint {
        active: Vec::new(),
        dirty: Vec::new(),
    });
    kinds
        .into_iter()
        .enumerate()
        .map(|(i, kind)| LogRecord {
            lsn: Lsn(1),
            prev: Lsn(0x0a0b_0c0d + i as u64),
            action: ActionId(0x77 + i as u64),
            kind,
        })
        .collect()
}

/// Decode `body`; a panic fails with what was being decoded.
fn decode(body: &[u8], what: &str) -> Option<LogRecord> {
    catch_unwind(AssertUnwindSafe(|| LogRecord::decode_body(Lsn(1), body)))
        .unwrap_or_else(|_| panic!("decode_body panicked on {what}: {body:02x?}"))
        .ok()
}

#[test]
fn every_record_round_trips() {
    for rec in records() {
        let body = rec.encode_body();
        assert_eq!(decode(&body, "an intact body"), Some(rec));
    }
}

#[test]
fn bit_flips_and_truncations_end_in_a_typed_error_or_the_same_bytes() {
    let (mut flips, mut accepted, mut cuts) = (0usize, 0usize, 0usize);
    for rec in records() {
        let body = rec.encode_body();
        for bit in 0..body.len() * 8 {
            let mut m = body.clone();
            m[bit / 8] ^= 1 << (bit % 8);
            flips += 1;
            let what = format!("{:?} with bit {bit} flipped", rec.kind);
            if let Some(got) = decode(&m, &what) {
                accepted += 1;
                assert_eq!(
                    got.encode_body(),
                    m,
                    "{what} decoded to a record that encodes differently: {got:?}"
                );
            }
        }
        for len in 0..body.len() {
            cuts += 1;
            let what = format!("{:?} cut to {len} bytes", rec.kind);
            assert!(
                decode(&body[..len], &what).is_none(),
                "{what} decoded: a strict prefix of a body was accepted"
            );
        }
    }
    println!(
        "record_sweep: {} bodies, {flips} bit flips ({accepted} accepted, each re-encoding \
         to its bytes), {cuts} truncations rejected",
        records().len()
    );
}
