//! The physiological page-operation vocabulary.
//!
//! Every mutation of a page anywhere in the repository — a record insert in a
//! B-link leaf, an index-term posting, a TSB-tree time split, a space-map bit
//! flip — is expressed as one of these operations. The write-ahead log
//! (crate `pitree-wal`) records a `PageOp` for redo and its [`PageOp::invert`]
//! for undo, which is what makes the recovery manager completely tree-agnostic
//! and lets the paper's protocol "work with a range of different recovery
//! methods" (§1, §4.3).
//!
//! Operations are *physiological*: physical to a page (they name a page and a
//! slot) but logical within it (slot indexes, not byte offsets), so redo after
//! compaction still applies cleanly.

use crate::error::StoreResult;
use crate::page::{Page, PageType};

/// A single redoable/undoable mutation of one page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PageOp {
    /// Format (or re-format) the page as an empty page of the given type.
    /// Used when a freshly allocated page becomes a tree node, and when a
    /// freed page is tombstoned.
    Format {
        /// Page type to format as.
        ty: PageType,
    },
    /// Insert `bytes` at `slot`, shifting later slots up.
    InsertSlot {
        /// Target slot index.
        slot: u16,
        /// Record content.
        bytes: Vec<u8>,
    },
    /// Remove the record at `slot`, shifting later slots down.
    RemoveSlot {
        /// Target slot index.
        slot: u16,
    },
    /// Replace the record at `slot`.
    UpdateSlot {
        /// Target slot index.
        slot: u16,
        /// New record content.
        bytes: Vec<u8>,
    },
    /// Overwrite the header flag byte (e.g. the freed tombstone of §5.2.2(b)).
    SetFlags {
        /// New flag byte.
        flags: u8,
    },
    /// Set allocation bit `bit` on a space-map page.
    SetBit {
        /// Bit index within the bitmap page.
        bit: u32,
    },
    /// Clear allocation bit `bit` on a space-map page.
    ClearBit {
        /// Bit index within the bitmap page.
        bit: u32,
    },
    /// Restore a complete page image. Produced as the inverse of a `Format`
    /// of a page that holds something, never written directly by tree code.
    FullImage {
        /// The full page image.
        bytes: Vec<u8>,
    },
    /// Insert a keyed entry (`[klen][key][payload]`) at its sorted position.
    /// Logical-within-page: redo and undo re-find the position by key, so
    /// the operation is immune to slot movement caused by other entries —
    /// the property page-oriented UNDO (§4.2) depends on.
    KeyedInsert {
        /// The full entry bytes.
        bytes: Vec<u8>,
    },
    /// Remove the keyed entry with `key`.
    KeyedRemove {
        /// The entry key.
        key: Vec<u8>,
    },
    /// Replace the keyed entry whose key matches `bytes`'s embedded key.
    KeyedUpdate {
        /// The full replacement entry bytes.
        bytes: Vec<u8>,
    },
    /// Insert several keyed entries, in order: one record for the run of
    /// `KeyedInsert`s a structure change would otherwise log.
    KeyedInsertMany {
        /// The full entry bytes, in the order they are inserted.
        entries: Vec<Vec<u8>>,
    },
    /// Remove several keyed entries, in order; the inverse of
    /// `KeyedInsertMany`.
    KeyedRemoveMany {
        /// The entry keys, in the order they are removed.
        keys: Vec<Vec<u8>>,
    },
}

impl PageOp {
    /// Apply the operation to `page`. Does **not** touch the page LSN; the
    /// logging layer stamps the LSN of the log record it wrote.
    pub fn apply(&self, page: &mut Page) -> StoreResult<()> {
        match self {
            PageOp::Format { ty } => {
                page.format(*ty);
                Ok(())
            }
            PageOp::InsertSlot { slot, bytes } => page.insert(*slot, bytes),
            PageOp::RemoveSlot { slot } => page.remove(*slot).map(|_| ()),
            PageOp::UpdateSlot { slot, bytes } => page.update(*slot, bytes).map(|_| ()),
            PageOp::SetFlags { flags } => {
                page.set_flags(*flags);
                Ok(())
            }
            PageOp::SetBit { bit } => {
                page.sm_set_bit(*bit as usize, true);
                Ok(())
            }
            PageOp::ClearBit { bit } => {
                page.sm_set_bit(*bit as usize, false);
                Ok(())
            }
            PageOp::FullImage { bytes } => page.set_bytes(bytes),
            PageOp::KeyedInsert { bytes } => page.keyed_insert(bytes).map(|_| ()),
            PageOp::KeyedRemove { key } => page.keyed_remove(key).map(|_| ()),
            PageOp::KeyedUpdate { bytes } => page.keyed_update(bytes).map(|_| ()),
            PageOp::KeyedInsertMany { entries } => entries
                .iter()
                .try_for_each(|e| page.keyed_insert(e).map(|_| ())),
            PageOp::KeyedRemoveMany { keys } => keys
                .iter()
                .try_for_each(|k| page.keyed_remove(k).map(|_| ())),
        }
    }

    /// Compute the inverse operation, given the page state *before* `apply`.
    ///
    /// `invert` then `apply` of the inverse restores the page content exactly
    /// (modulo internal heap layout, which is not semantically visible).
    /// A range op's inverse undoes its entries in reverse order, so undoing
    /// it changes the page exactly as undoing the single-entry records would.
    /// A `Format` of a page that is still freshly formatted inverts to a
    /// `Format` of its type: every byte but the LSN comes back, and undo
    /// stamps the LSN of its compensation record anyway.
    pub fn invert(&self, before: &Page) -> StoreResult<PageOp> {
        Ok(match self {
            PageOp::Format { .. } => match before.fresh_type() {
                Some(ty) => PageOp::Format { ty },
                None => PageOp::FullImage {
                    bytes: before.as_bytes().to_vec(),
                },
            },
            PageOp::InsertSlot { slot, .. } => PageOp::RemoveSlot { slot: *slot },
            PageOp::RemoveSlot { slot } => PageOp::InsertSlot {
                slot: *slot,
                bytes: before.get(*slot)?.to_vec(),
            },
            PageOp::UpdateSlot { slot, .. } => PageOp::UpdateSlot {
                slot: *slot,
                bytes: before.get(*slot)?.to_vec(),
            },
            PageOp::SetFlags { .. } => PageOp::SetFlags {
                flags: before.flags(),
            },
            PageOp::SetBit { bit } => PageOp::ClearBit { bit: *bit },
            PageOp::ClearBit { bit } => PageOp::SetBit { bit: *bit },
            PageOp::FullImage { .. } => PageOp::FullImage {
                bytes: before.as_bytes().to_vec(),
            },
            PageOp::KeyedInsert { bytes } => PageOp::KeyedRemove {
                key: Page::entry_key(bytes)?.to_vec(),
            },
            PageOp::KeyedRemove { key } => PageOp::KeyedInsert {
                bytes: entry_under(before, key, "removal")?,
            },
            PageOp::KeyedUpdate { bytes } => PageOp::KeyedUpdate {
                bytes: entry_under(before, Page::entry_key(bytes)?, "update")?,
            },
            PageOp::KeyedInsertMany { entries } => PageOp::KeyedRemoveMany {
                keys: entries
                    .iter()
                    .rev()
                    .map(|e| Page::entry_key(e).map(<[u8]>::to_vec))
                    .collect::<StoreResult<_>>()?,
            },
            PageOp::KeyedRemoveMany { keys } => PageOp::KeyedInsertMany {
                entries: keys
                    .iter()
                    .rev()
                    .map(|key| entry_under(before, key, "removal"))
                    .collect::<StoreResult<_>>()?,
            },
        })
    }

    /// The variant's name, for reports such as the log's byte table.
    pub fn name(&self) -> &'static str {
        match self {
            PageOp::Format { .. } => "Format",
            PageOp::InsertSlot { .. } => "InsertSlot",
            PageOp::RemoveSlot { .. } => "RemoveSlot",
            PageOp::UpdateSlot { .. } => "UpdateSlot",
            PageOp::SetFlags { .. } => "SetFlags",
            PageOp::SetBit { .. } => "SetBit",
            PageOp::ClearBit { .. } => "ClearBit",
            PageOp::FullImage { .. } => "FullImage",
            PageOp::KeyedInsert { .. } => "KeyedInsert",
            PageOp::KeyedRemove { .. } => "KeyedRemove",
            PageOp::KeyedUpdate { .. } => "KeyedUpdate",
            PageOp::KeyedInsertMany { .. } => "KeyedInsertMany",
            PageOp::KeyedRemoveMany { .. } => "KeyedRemoveMany",
        }
    }
}

/// The entry `before` holds under `key`, which the op being inverted (a
/// `what`) changes; an absent key means the log and the page disagree.
fn entry_under(before: &Page, key: &[u8], what: &str) -> StoreResult<Vec<u8>> {
    match before.keyed_find(key)? {
        Ok(slot) => Ok(before.entry_at(slot)),
        Err(_) => Err(crate::error::StoreError::Corrupt(format!(
            "inverting {what} of absent key {key:02x?}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node_page() -> Page {
        let mut p = Page::new(PageType::Node);
        p.insert(0, b"alpha").unwrap();
        p.insert(1, b"beta").unwrap();
        p
    }

    /// Apply `op`, then apply its inverse, and check the visible content is
    /// unchanged.
    fn check_roundtrip(mut page: Page, op: PageOp) {
        let snapshot: Vec<Vec<u8>> = (0..page.slot_count())
            .map(|i| page.get(i).unwrap().to_vec())
            .collect();
        let inv = op.invert(&page).unwrap();
        op.apply(&mut page).unwrap();
        inv.apply(&mut page).unwrap();
        let after: Vec<Vec<u8>> = (0..page.slot_count())
            .map(|i| page.get(i).unwrap().to_vec())
            .collect();
        assert_eq!(snapshot, after, "inverse failed for {op:?}");
    }

    #[test]
    fn insert_invert() {
        check_roundtrip(
            node_page(),
            PageOp::InsertSlot {
                slot: 1,
                bytes: b"mid".to_vec(),
            },
        );
    }

    #[test]
    fn remove_invert() {
        check_roundtrip(node_page(), PageOp::RemoveSlot { slot: 0 });
    }

    #[test]
    fn update_invert() {
        check_roundtrip(
            node_page(),
            PageOp::UpdateSlot {
                slot: 1,
                bytes: b"changed".to_vec(),
            },
        );
    }

    #[test]
    fn format_invert_restores_full_image() {
        check_roundtrip(node_page(), PageOp::Format { ty: PageType::Free });
    }

    #[test]
    fn flags_invert() {
        check_roundtrip(node_page(), PageOp::SetFlags { flags: 0b1 });
    }

    #[test]
    fn bit_ops_invert() {
        let mut p = Page::new(PageType::SpaceMap);
        let op = PageOp::SetBit { bit: 17 };
        let inv = op.invert(&p).unwrap();
        op.apply(&mut p).unwrap();
        assert!(p.sm_get_bit(17));
        inv.apply(&mut p).unwrap();
        assert!(!p.sm_get_bit(17));
    }

    #[test]
    fn apply_order_insert_then_remove() {
        let mut p = node_page();
        PageOp::InsertSlot {
            slot: 2,
            bytes: b"gamma".to_vec(),
        }
        .apply(&mut p)
        .unwrap();
        assert_eq!(p.get(2).unwrap(), b"gamma");
        PageOp::RemoveSlot { slot: 1 }.apply(&mut p).unwrap();
        assert_eq!(p.get(1).unwrap(), b"gamma");
    }

    fn keyed_page() -> Page {
        let mut p = Page::new(PageType::Node);
        p.insert(0, b"node-header").unwrap(); // slot 0 is the header
        for k in ["bb", "dd", "ff"] {
            p.keyed_insert(&Page::make_entry(k.as_bytes(), b"v"))
                .unwrap();
        }
        p
    }

    #[test]
    fn keyed_insert_invert() {
        check_roundtrip(
            keyed_page(),
            PageOp::KeyedInsert {
                bytes: Page::make_entry(b"cc", b"v2"),
            },
        );
    }

    #[test]
    fn keyed_remove_invert() {
        check_roundtrip(
            keyed_page(),
            PageOp::KeyedRemove {
                key: b"dd".to_vec(),
            },
        );
    }

    #[test]
    fn keyed_update_invert() {
        check_roundtrip(
            keyed_page(),
            PageOp::KeyedUpdate {
                bytes: Page::make_entry(b"dd", b"changed"),
            },
        );
    }

    #[test]
    fn range_ops_invert() {
        let entries: Vec<Vec<u8>> = ["aa", "cc", "ee"]
            .iter()
            .map(|k| Page::make_entry(k.as_bytes(), b"moved"))
            .collect();
        check_roundtrip(keyed_page(), PageOp::KeyedInsertMany { entries });
        let keys = vec![b"bb".to_vec(), b"ff".to_vec()];
        check_roundtrip(keyed_page(), PageOp::KeyedRemoveMany { keys });
    }

    /// A range op and its inverse land the bytes the single-entry records
    /// they replace land, the inverse undoing them last first.
    #[test]
    fn range_ops_land_the_single_records_bytes() {
        let entries: Vec<Vec<u8>> = ["aa", "ee", "gg"]
            .iter()
            .map(|k| Page::make_entry(k.as_bytes(), b"v"))
            .collect();
        let keys = vec![b"bb".to_vec(), b"dd".to_vec()];
        let ranges = [
            PageOp::KeyedInsertMany {
                entries: entries.clone(),
            },
            PageOp::KeyedRemoveMany { keys: keys.clone() },
        ];
        let singles: [Vec<PageOp>; 2] = [
            entries
                .into_iter()
                .map(|bytes| PageOp::KeyedInsert { bytes })
                .collect(),
            keys.into_iter()
                .map(|key| PageOp::KeyedRemove { key })
                .collect(),
        ];
        for (range, singles) in ranges.iter().zip(singles) {
            let (mut a, mut b) = (keyed_page(), keyed_page());
            let undo = range.invert(&a).unwrap();
            range.apply(&mut a).unwrap();
            let mut undos = Vec::new();
            for op in &singles {
                undos.push(op.invert(&b).unwrap());
                op.apply(&mut b).unwrap();
            }
            assert_eq!(a.as_bytes(), b.as_bytes(), "{range:?}");
            undo.apply(&mut a).unwrap();
            for op in undos.iter().rev() {
                op.apply(&mut b).unwrap();
            }
            assert_eq!(a.as_bytes(), b.as_bytes(), "undo of {range:?}");
        }
    }

    #[test]
    fn format_of_a_fresh_page_inverts_to_a_format() {
        let format = PageOp::Format { ty: PageType::Node };
        for ty in [PageType::Free, PageType::Node, PageType::SpaceMap] {
            let mut fresh = Page::new(ty);
            fresh.set_lsn(crate::Lsn(77));
            assert_eq!(format.invert(&fresh).unwrap(), PageOp::Format { ty });
            // Undo lands every byte the page had but its LSN.
            let mut page = fresh.clone();
            format.apply(&mut page).unwrap();
            format.invert(&fresh).unwrap().apply(&mut page).unwrap();
            assert_eq!(page.as_bytes()[8..], fresh.as_bytes()[8..]);
        }
    }

    #[test]
    fn format_of_a_used_page_keeps_the_full_image() {
        let format = PageOp::Format { ty: PageType::Node };
        // A freed tombstone (§5.2.2(b)): formatted free, flag set.
        let mut tombstone = Page::new(PageType::Free);
        PageOp::SetFlags {
            flags: crate::page::FLAG_FREED,
        }
        .apply(&mut tombstone)
        .unwrap();
        // A node freed without an update keeps its content.
        let freed_node = keyed_page();
        let mut space_map = Page::new(PageType::SpaceMap);
        space_map.sm_set_bit(0, true);
        for before in [tombstone, freed_node, space_map] {
            let inv = format.invert(&before).unwrap();
            assert_eq!(
                inv,
                PageOp::FullImage {
                    bytes: before.as_bytes().to_vec()
                }
            );
        }
    }

    #[test]
    fn keyed_undo_survives_slot_movement() {
        // The property motivating keyed ops: undo applies correctly even
        // after other entries shifted this entry's slot.
        let mut p = keyed_page();
        let op = PageOp::KeyedInsert {
            bytes: Page::make_entry(b"ee", b"mine"),
        };
        let inv = op.invert(&p).unwrap();
        op.apply(&mut p).unwrap();
        // Another "transaction" inserts earlier keys, shifting slots.
        PageOp::KeyedInsert {
            bytes: Page::make_entry(b"aa", b"other"),
        }
        .apply(&mut p)
        .unwrap();
        PageOp::KeyedInsert {
            bytes: Page::make_entry(b"cc", b"other"),
        }
        .apply(&mut p)
        .unwrap();
        inv.apply(&mut p).unwrap();
        assert!(p.keyed_find(b"ee").unwrap().is_err(), "ee must be gone");
        assert!(
            p.keyed_find(b"aa").unwrap().is_ok(),
            "other entries untouched"
        );
        assert!(p.keyed_find(b"cc").unwrap().is_ok());
    }

    #[test]
    fn keyed_duplicate_and_absent_are_errors() {
        let mut p = keyed_page();
        assert!(p.keyed_insert(&Page::make_entry(b"bb", b"dup")).is_err());
        assert!(p.keyed_remove(b"zz").is_err());
        assert!(p.keyed_update(&Page::make_entry(b"zz", b"x")).is_err());
        assert!(PageOp::KeyedRemove {
            key: b"zz".to_vec()
        }
        .invert(&p)
        .is_err());
    }

    #[test]
    fn sm_find_clear_scans() {
        let mut p = Page::new(PageType::SpaceMap);
        for i in 0..5 {
            p.sm_set_bit(i, true);
        }
        assert_eq!(p.sm_find_clear(0), Some(5));
        assert_eq!(p.sm_find_clear(5), Some(5));
        assert_eq!(p.sm_find_clear(6), Some(6));
        // Whole bytes set, a clear bit mid-byte, a start inside a set byte.
        for i in 5..21 {
            p.sm_set_bit(i, true);
        }
        p.sm_set_bit(23, true);
        assert_eq!(p.sm_find_clear(0), Some(21));
        assert_eq!(p.sm_find_clear(22), Some(22));
        assert_eq!(p.sm_find_clear(23), Some(24));
        assert_eq!(p.sm_count_set(), 22);
        let last = Page::BITS_PER_SPACEMAP_PAGE - 1;
        for i in 0..=last {
            p.sm_set_bit(i, i != last);
        }
        assert_eq!(p.sm_find_clear(9), Some(last));
        p.sm_set_bit(last, true);
        assert_eq!(p.sm_find_clear(0), None);
        assert_eq!(p.sm_count_set(), Page::BITS_PER_SPACEMAP_PAGE as u64);
    }
}
