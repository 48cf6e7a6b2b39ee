//! The log's byte table: records and bytes per record kind × redo
//! [`PageOp`](pitree_pagestore::PageOp) × undo kind.
//!
//! It is computed from a scan of a log, after the fact, so the append path
//! pays nothing for it. A record's bytes are its whole frame: the 8-byte
//! length and checksum envelope plus the body it re-encodes to (the codec
//! is canonical, so that is the body the log holds).

use crate::record::{LogRecord, RecordKind, UndoInfo};
use pitree_pagestore::StoreResult;
use std::collections::BTreeMap;
use std::fmt;

/// A row of the table: what a record is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Row {
    /// The record kind (`Update`, `Clr`, `Commit`, …).
    pub kind: &'static str,
    /// The redo operation's name, or `-` for a record without one.
    pub redo: &'static str,
    /// The undo: an inverse operation's name, `logical`, `none`, or `-`
    /// for a record that carries no undo.
    pub undo: &'static str,
}

/// Records and frame bytes per [`Row`] of one log.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ByteTable {
    rows: BTreeMap<Row, (u64, u64)>,
}

impl ByteTable {
    /// The table of every record `records` yields; the first error ends it.
    pub fn of(records: impl IntoIterator<Item = StoreResult<LogRecord>>) -> StoreResult<ByteTable> {
        let mut table = ByteTable::default();
        for rec in records {
            table.add(&rec?);
        }
        Ok(table)
    }

    /// Count one record.
    pub fn add(&mut self, rec: &LogRecord) {
        let cell = self.rows.entry(row(&rec.kind)).or_default();
        cell.0 += 1;
        cell.1 += 8 + rec.encode_body().len() as u64;
    }

    /// `(row, records, bytes)`, in row order.
    pub fn rows(&self) -> impl Iterator<Item = (Row, u64, u64)> + '_ {
        self.rows.iter().map(|(r, (n, b))| (*r, *n, *b))
    }

    /// Records and bytes over the rows `keep` selects.
    pub fn sum(&self, mut keep: impl FnMut(&Row) -> bool) -> (u64, u64) {
        self.rows()
            .filter(|(r, _, _)| keep(r))
            .fold((0, 0), |(n, b), (_, rn, rb)| (n + rn, b + rb))
    }
}

fn row(kind: &RecordKind) -> Row {
    let (kind, redo, undo) = match kind {
        RecordKind::Begin { .. } => ("Begin", "-", "-"),
        RecordKind::Commit => ("Commit", "-", "-"),
        RecordKind::Abort => ("Abort", "-", "-"),
        RecordKind::End => ("End", "-", "-"),
        RecordKind::Update { redo, undo, .. } => (
            "Update",
            redo.name(),
            match undo {
                UndoInfo::Physiological(op) => op.name(),
                UndoInfo::Logical { .. } => "logical",
                UndoInfo::None => "none",
            },
        ),
        RecordKind::Clr { redo, .. } => ("Clr", redo.name(), "-"),
        RecordKind::LogicalClr { .. } => ("LogicalClr", "-", "-"),
        RecordKind::Checkpoint { .. } => ("Checkpoint", "-", "-"),
    };
    Row { kind, redo, undo }
}

/// One line per row — kind, redo, undo, records, bytes, share of the
/// log's bytes — then the total.
impl fmt::Display for ByteTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (records, bytes) = self.sum(|_| true);
        writeln!(
            f,
            "{:<11} {:<16} {:<16} {:>9} {:>12} {:>6}",
            "kind", "redo", "undo", "records", "bytes", "share"
        )?;
        for (r, n, b) in self.rows() {
            writeln!(
                f,
                "{:<11} {:<16} {:<16} {n:>9} {b:>12} {:>5.1}%",
                r.kind,
                r.redo,
                r.undo,
                100.0 * b as f64 / bytes.max(1) as f64
            )?;
        }
        writeln!(f, "{:<45} {records:>9} {bytes:>12} 100.0%", "total")
    }
}

#[cfg(test)]
#[expect(clippy::disallowed_macros, reason = "test assertions")]
mod tests {
    use super::*;
    use crate::record::ActionId;
    use pitree_pagestore::page::PageType;
    use pitree_pagestore::{Lsn, PageId, PageOp};

    fn rec(kind: RecordKind) -> LogRecord {
        LogRecord {
            lsn: Lsn(1),
            prev: Lsn::ZERO,
            action: ActionId(1),
            kind,
        }
    }

    #[test]
    fn rows_count_records_and_whole_frames() {
        let format = rec(RecordKind::Update {
            pid: PageId(3),
            redo: PageOp::Format { ty: PageType::Node },
            undo: UndoInfo::Physiological(PageOp::Format { ty: PageType::Free }),
        });
        let commit = rec(RecordKind::Commit);
        let records = [&format, &commit, &commit].map(|r| Ok(r.clone()));
        let table = ByteTable::of(records).unwrap();
        let rows: Vec<_> = table.rows().collect();
        let frame = |r: &LogRecord| 8 + r.encode_body().len() as u64;
        assert_eq!(
            rows,
            [
                (
                    Row {
                        kind: "Commit",
                        redo: "-",
                        undo: "-"
                    },
                    2,
                    2 * frame(&commit)
                ),
                (
                    Row {
                        kind: "Update",
                        redo: "Format",
                        undo: "Format"
                    },
                    1,
                    frame(&format)
                ),
            ]
        );
        assert_eq!(table.sum(|r| r.undo == "FullImage"), (0, 0));
        let text = table.to_string();
        assert_eq!(text.lines().count(), 4, "{text}");
    }
}
