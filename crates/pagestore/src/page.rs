//! Fixed-size slotted pages.
//!
//! Every node of every tree in this repository — and the space-map bitmaps,
//! and the store meta page — is one of these. The layout is the classic
//! slotted page: a small fixed header, a slot directory growing down from the
//! header, and a record heap growing up from the end of the page.
//!
//! ```text
//! 0..8    page LSN (= state identifier, §5.2 of the paper)
//! 8       page type
//! 9       flags (bit 0: freed tombstone, set when de-allocation is a
//!                node update, §5.2.2(b))
//! 10..12  slot count
//! 12..14  heap top (lowest offset occupied by a record)
//! 14..16  fragmented bytes (reclaimable by compaction)
//! 16..    slot directory: 4 bytes per slot (offset u16, length u16)
//! ...     free space
//! ...     record heap, grows downward from PAGE_SIZE
//! ```
//!
//! Records are addressed by *slot index* and slots are kept dense: removing a
//! slot shifts later slots down. Trees rely on this to keep entries sorted by
//! slot index.

use crate::error::{StoreError, StoreResult};
use crate::ids::{Lsn, PageId};

/// Size of every page in the store, in bytes.
pub const PAGE_SIZE: usize = 4096;

/// Size of the fixed page header preceding the slot directory.
pub const HEADER_SIZE: usize = 16;

const OFF_LSN: usize = 0;
const OFF_TYPE: usize = 8;
const OFF_FLAGS: usize = 9;
const OFF_SLOT_COUNT: usize = 10;
const OFF_HEAP_TOP: usize = 12;
const OFF_FRAG: usize = 14;

/// Flag bit recording that the page has been de-allocated, for the
/// "de-allocation is a node update" policy of §5.2.2(b).
pub const FLAG_FREED: u8 = 0b0000_0001;

/// What a page is used for. Stored in the header so that recovery and
/// debugging tools can interpret raw pages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum PageType {
    /// Unformatted / freed page.
    Free = 0,
    /// The store meta page (page 0).
    Meta = 1,
    /// A space-map bitmap page.
    SpaceMap = 2,
    /// A tree node (any tree, any level; trees keep their own node header in
    /// slot 0).
    Node = 3,
}

impl PageType {
    /// Decode from the stored byte.
    pub fn from_u8(b: u8) -> StoreResult<PageType> {
        match b {
            0 => Ok(PageType::Free),
            1 => Ok(PageType::Meta),
            2 => Ok(PageType::SpaceMap),
            3 => Ok(PageType::Node),
            other => Err(StoreError::Corrupt(format!("bad page type byte {other}"))),
        }
    }
}

/// A single fixed-size slotted page.
///
/// `Page` is a plain byte container with structured accessors; it knows
/// nothing about latching (see [`crate::latch`]) or durability (see
/// [`crate::buffer`]).
pub struct Page {
    buf: Box<[u8]>,
}

impl Clone for Page {
    fn clone(&self) -> Self {
        Page {
            buf: self.buf.clone(),
        }
    }
}

impl Page {
    /// A freshly formatted, empty page of the given type with LSN zero.
    pub fn new(ty: PageType) -> Page {
        let mut p = Page {
            buf: vec![0u8; PAGE_SIZE].into_boxed_slice(),
        };
        p.format(ty);
        p
    }

    /// Reset the page to the freshly-formatted empty state, keeping nothing.
    /// The LSN is reset to zero; callers that log a format operation will set
    /// the LSN right after.
    pub fn format(&mut self, ty: PageType) {
        self.buf.fill(0);
        self.buf[OFF_TYPE] = ty as u8;
        self.put_u16(OFF_HEAP_TOP, PAGE_SIZE as u16);
    }

    /// The bufferless state of a buffer-pool frame nothing has been loaded
    /// into yet: no heap allocation, and every accessor would index out of
    /// bounds. The pool installs a real page before the frame gets a page
    /// id, so no `PinnedPage` ever latches one.
    pub(crate) fn vacant() -> Page {
        Page {
            buf: Box::default(),
        }
    }

    /// Whether this is the [`Page::vacant`] placeholder.
    pub(crate) fn is_vacant(&self) -> bool {
        self.buf.is_empty()
    }

    /// Adopt a `PAGE_SIZE` buffer a device read filled, without copying.
    /// `None` when the image was never written: [`Page::format`] sets the
    /// heap top to `PAGE_SIZE` and no operation lowers it below the header,
    /// so a zero there is a hole the file system filled in, not a page.
    pub(crate) fn adopt(buf: Box<[u8]>) -> Option<Page> {
        assert_eq!(buf.len(), PAGE_SIZE);
        let page = Page { buf };
        (page.heap_top() != 0).then_some(page)
    }

    /// Construct a page from raw bytes (e.g. read from disk).
    pub fn from_bytes(bytes: &[u8]) -> StoreResult<Page> {
        if bytes.len() != PAGE_SIZE {
            return Err(StoreError::Corrupt(format!(
                "page image has {} bytes, expected {PAGE_SIZE}",
                bytes.len()
            )));
        }
        Ok(Page {
            buf: bytes.to_vec().into_boxed_slice(),
        })
    }

    /// The raw page image (for writing to disk or full-page logging).
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Overwrite this page with a full image (redo of a full-page log record).
    pub fn set_bytes(&mut self, bytes: &[u8]) {
        assert_eq!(bytes.len(), PAGE_SIZE);
        self.buf.copy_from_slice(bytes);
    }

    // ---- header accessors -------------------------------------------------

    /// The page LSN — the state identifier of §5.2.
    pub fn lsn(&self) -> Lsn {
        Lsn(self.get_u64(OFF_LSN))
    }

    /// Stamp the page with the LSN of the log record describing its latest
    /// update (WAL protocol bookkeeping).
    pub fn set_lsn(&mut self, lsn: Lsn) {
        self.put_u64(OFF_LSN, lsn.0);
    }

    /// The stored page type.
    pub fn page_type(&self) -> StoreResult<PageType> {
        PageType::from_u8(self.buf[OFF_TYPE])
    }

    /// Change the stored page type (used when allocating a free page as a
    /// node, and when freeing).
    pub fn set_page_type(&mut self, ty: PageType) {
        self.buf[OFF_TYPE] = ty as u8;
    }

    /// Header flag byte.
    pub fn flags(&self) -> u8 {
        self.buf[OFF_FLAGS]
    }

    /// Replace the header flag byte.
    pub fn set_flags(&mut self, flags: u8) {
        self.buf[OFF_FLAGS] = flags;
    }

    /// Whether the freed-tombstone flag is set (§5.2.2(b)).
    pub fn is_freed(&self) -> bool {
        self.flags() & FLAG_FREED != 0
    }

    /// Number of live slots.
    pub fn slot_count(&self) -> u16 {
        self.get_u16(OFF_SLOT_COUNT)
    }

    fn heap_top(&self) -> usize {
        self.get_u16(OFF_HEAP_TOP) as usize
    }

    fn frag_bytes(&self) -> usize {
        self.get_u16(OFF_FRAG) as usize
    }

    fn slots_end(&self) -> usize {
        HEADER_SIZE + 4 * self.slot_count() as usize
    }

    /// Bytes available for new records *including* their slot entries, after
    /// compaction if necessary.
    pub fn free_space(&self) -> usize {
        (self.heap_top() - self.slots_end()) + self.frag_bytes()
    }

    /// Bytes available without compaction.
    pub fn contiguous_free_space(&self) -> usize {
        self.heap_top() - self.slots_end()
    }

    /// Bytes occupied by live records plus their slot entries: a header
    /// read, the complement of [`Page::free_space`]. The utilization measure
    /// of the consolidation trigger (§3.3), evaluated under the X latch on
    /// every delete.
    pub fn used_space(&self) -> usize {
        PAGE_SIZE - HEADER_SIZE - self.free_space()
    }

    /// Whether the records in slots `idx - 1` and `idx` were the last two
    /// carved from the heap, in that order: the page's latest inserts ran
    /// upward through `idx`. (A compaction lays the heap out in slot order,
    /// and removing the newest record exposes the one before it, so this is
    /// a hint about insert order, not a log of it.)
    pub fn ends_ascending_run(&self, idx: u16) -> bool {
        if idx == 0 || idx >= self.slot_count() {
            return false;
        }
        let (off, len) = self.slot(idx);
        off as usize == self.heap_top() && self.slot(idx - 1).0 == off + len
    }

    // ---- slot operations ---------------------------------------------------

    fn slot(&self, idx: u16) -> (u16, u16) {
        let base = HEADER_SIZE + 4 * idx as usize;
        (self.get_u16(base), self.get_u16(base + 2))
    }

    fn set_slot(&mut self, idx: u16, off: u16, len: u16) {
        let base = HEADER_SIZE + 4 * idx as usize;
        self.put_u16(base, off);
        self.put_u16(base + 2, len);
    }

    /// Read the record in slot `idx`.
    pub fn get(&self, idx: u16) -> StoreResult<&[u8]> {
        if idx >= self.slot_count() {
            return Err(StoreError::BadSlot {
                page: PageId::INVALID,
                slot: idx,
            });
        }
        let (off, len) = self.slot(idx);
        Ok(&self.buf[off as usize..off as usize + len as usize])
    }

    /// Insert `bytes` as a new record at slot index `idx`, shifting later
    /// slots up by one. `idx` may equal `slot_count()` (append).
    pub fn insert(&mut self, idx: u16, bytes: &[u8]) -> StoreResult<()> {
        let n = self.slot_count();
        if idx > n {
            return Err(StoreError::BadSlot {
                page: PageId::INVALID,
                slot: idx,
            });
        }
        let need = bytes.len() + 4;
        if need > self.free_space() {
            return Err(StoreError::PageFull {
                page: PageId::INVALID,
                need,
                free: self.free_space(),
            });
        }
        if bytes.len() + 4 > self.contiguous_free_space() {
            self.compact();
        }
        // Carve the record out of the heap.
        let new_top = self.heap_top() - bytes.len();
        self.buf[new_top..new_top + bytes.len()].copy_from_slice(bytes);
        self.put_u16(OFF_HEAP_TOP, new_top as u16);
        // Shift the slot directory to open slot `idx`.
        let start = HEADER_SIZE + 4 * idx as usize;
        let end = HEADER_SIZE + 4 * n as usize;
        self.buf.copy_within(start..end, start + 4);
        self.set_slot(idx, new_top as u16, bytes.len() as u16);
        self.put_u16(OFF_SLOT_COUNT, n + 1);
        Ok(())
    }

    /// Remove the record at slot `idx`, shifting later slots down. Returns
    /// the removed bytes so callers can build undo information.
    pub fn remove(&mut self, idx: u16) -> StoreResult<Vec<u8>> {
        let n = self.slot_count();
        if idx >= n {
            return Err(StoreError::BadSlot {
                page: PageId::INVALID,
                slot: idx,
            });
        }
        let (off, len) = self.slot(idx);
        let bytes = self.buf[off as usize..(off + len) as usize].to_vec();
        if off as usize == self.heap_top() {
            // Record sits at the heap frontier: reclaim it directly.
            self.put_u16(OFF_HEAP_TOP, off + len);
        } else {
            self.put_u16(OFF_FRAG, (self.frag_bytes() + len as usize) as u16);
        }
        let start = HEADER_SIZE + 4 * (idx + 1) as usize;
        let end = HEADER_SIZE + 4 * n as usize;
        self.buf.copy_within(start..end, start - 4);
        self.put_u16(OFF_SLOT_COUNT, n - 1);
        Ok(bytes)
    }

    /// Replace the record at slot `idx` with `bytes`, preserving slot order.
    /// Returns the previous bytes for undo information.
    pub fn update(&mut self, idx: u16, bytes: &[u8]) -> StoreResult<Vec<u8>> {
        let n = self.slot_count();
        if idx >= n {
            return Err(StoreError::BadSlot {
                page: PageId::INVALID,
                slot: idx,
            });
        }
        let (off, len) = self.slot(idx);
        let old = self.buf[off as usize..(off + len) as usize].to_vec();
        if bytes.len() == len as usize {
            // In-place overwrite, no heap churn.
            self.buf[off as usize..off as usize + bytes.len()].copy_from_slice(bytes);
            return Ok(old);
        }
        // Grow/shrink: free then re-insert at the same index. Check space
        // counting the freed bytes as available.
        let need = bytes.len() + 4;
        if need > self.free_space() + len as usize + 4 {
            return Err(StoreError::PageFull {
                page: PageId::INVALID,
                need,
                free: self.free_space() + len as usize + 4,
            });
        }
        self.remove(idx)?;
        self.insert(idx, bytes)?;
        Ok(old)
    }

    /// Rewrite the record heap to eliminate fragmentation. Slot indexes are
    /// unchanged.
    pub fn compact(&mut self) {
        let n = self.slot_count();
        let mut scratch = Vec::with_capacity(n as usize);
        for i in 0..n {
            let (off, len) = self.slot(i);
            scratch.push(self.buf[off as usize..(off + len) as usize].to_vec());
        }
        let mut top = PAGE_SIZE;
        for (i, rec) in scratch.iter().enumerate() {
            top -= rec.len();
            self.buf[top..top + rec.len()].copy_from_slice(rec);
            self.set_slot(i as u16, top as u16, rec.len() as u16);
        }
        self.put_u16(OFF_HEAP_TOP, top as u16);
        self.put_u16(OFF_FRAG, 0);
    }

    // ---- keyed-entry convention (tree node pages) ---------------------------
    //
    // Tree nodes store a node header in slot 0 and *keyed entries* in slots
    // 1..: each entry is `[klen u16 LE][key bytes][payload]`, kept sorted by
    // key (plain byte order). Page operations that locate entries by key are
    // logical-within-page: they survive concurrent slot movement, which
    // slot-number addressing would not (this is what "page-oriented UNDO"
    // requires in practice).

    /// Decode the key of a keyed entry.
    pub fn entry_key(bytes: &[u8]) -> &[u8] {
        let klen = u16::from_le_bytes([bytes[0], bytes[1]]) as usize;
        &bytes[2..2 + klen]
    }

    /// Decode the payload of a keyed entry.
    pub fn entry_payload(bytes: &[u8]) -> &[u8] {
        let klen = u16::from_le_bytes([bytes[0], bytes[1]]) as usize;
        &bytes[2 + klen..]
    }

    /// Build a keyed entry from key and payload.
    pub fn make_entry(key: &[u8], payload: &[u8]) -> Vec<u8> {
        let mut v = Vec::with_capacity(2 + key.len() + payload.len());
        v.extend_from_slice(&(key.len() as u16).to_le_bytes());
        v.extend_from_slice(key);
        v.extend_from_slice(payload);
        v
    }

    /// Number of keyed entries (slots after the header slot).
    pub fn entry_count(&self) -> u16 {
        self.slot_count().saturating_sub(1)
    }

    /// Borrow the full record bytes at `slot` without the bounds-checked
    /// `Result` of [`Page::get`]. `slot` must be `< slot_count()` — the
    /// in-place probe helpers below only produce such slots.
    #[inline]
    fn record_at(&self, slot: u16) -> &[u8] {
        debug_assert!(slot < self.slot_count());
        let (off, len) = self.slot(slot);
        &self.buf[off as usize..(off + len) as usize]
    }

    /// Borrow the key of the keyed entry at `slot`, straight out of the
    /// frame. `slot` must be in `1..slot_count()`.
    #[inline]
    pub fn entry_key_at(&self, slot: u16) -> &[u8] {
        debug_assert!(slot >= 1);
        Self::entry_key(self.record_at(slot))
    }

    /// Borrow the payload of the keyed entry at `slot`, straight out of the
    /// frame. `slot` must be in `1..slot_count()`.
    #[inline]
    pub fn entry_payload_at(&self, slot: u16) -> &[u8] {
        debug_assert!(slot >= 1);
        Self::entry_payload(self.record_at(slot))
    }

    /// In-place binary search over the keyed entries: every probe compares
    /// `key` against the entry bytes where they sit in the frame — no record
    /// fetch, no per-probe `Result`. `Ok(slot)` when found, `Err(slot)`
    /// giving the insertion slot otherwise.
    #[inline]
    pub fn keyed_probe(&self, key: &[u8]) -> Result<u16, u16> {
        let n = self.slot_count();
        let mut lo = 1u16;
        let mut hi = n;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.entry_key_at(mid).cmp(key) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return Ok(mid),
            }
        }
        Err(lo)
    }

    /// Combined find-and-borrow: locate `key` and return its slot plus the
    /// full entry bytes from the probe that found it, or `None` when absent.
    /// The single decode serves point reads that previously paid
    /// `keyed_find` + `get(slot)`.
    #[inline]
    pub fn keyed_lookup(&self, key: &[u8]) -> Option<(u16, &[u8])> {
        match self.keyed_probe(key) {
            Ok(slot) => Some((slot, self.record_at(slot))),
            Err(_) => None,
        }
    }

    /// Binary-search the keyed entries for `key`. `Ok(slot)` when found,
    /// `Err(slot)` giving the insertion slot otherwise. Slot indexes are
    /// raw page slots (so ≥ 1).
    pub fn keyed_find(&self, key: &[u8]) -> StoreResult<Result<u16, u16>> {
        Ok(self.keyed_probe(key))
    }

    /// The entry whose key is the greatest ≤ `key` (B-link routing: "the
    /// child node with the largest index term key value smaller than the
    /// KEY", §5.3). `None` if every entry key exceeds `key` or there are no
    /// entries.
    pub fn keyed_floor(&self, key: &[u8]) -> StoreResult<Option<u16>> {
        Ok(match self.keyed_find(key)? {
            Ok(slot) => Some(slot),
            Err(ins) if ins > 1 => Some(ins - 1),
            Err(_) => None,
        })
    }

    /// Insert a keyed entry at its sorted position. Fails if the key exists.
    pub fn keyed_insert(&mut self, bytes: &[u8]) -> StoreResult<u16> {
        let key = Self::entry_key(bytes);
        match self.keyed_find(key)? {
            Ok(_) => Err(StoreError::Corrupt(format!(
                "keyed insert of duplicate key {:02x?}",
                key
            ))),
            Err(slot) => {
                self.insert(slot, bytes)?;
                Ok(slot)
            }
        }
    }

    /// Remove the keyed entry for `key`, returning its bytes.
    pub fn keyed_remove(&mut self, key: &[u8]) -> StoreResult<Vec<u8>> {
        match self.keyed_find(key)? {
            Ok(slot) => self.remove(slot),
            Err(_) => Err(StoreError::Corrupt(format!(
                "keyed remove of absent key {:02x?}",
                key
            ))),
        }
    }

    /// Replace the keyed entry whose key matches `bytes`'s key, returning
    /// the previous bytes.
    pub fn keyed_update(&mut self, bytes: &[u8]) -> StoreResult<Vec<u8>> {
        let key = Self::entry_key(bytes);
        match self.keyed_find(key)? {
            Ok(slot) => self.update(slot, bytes),
            Err(_) => Err(StoreError::Corrupt(format!(
                "keyed update of absent key {:02x?}",
                key
            ))),
        }
    }

    // ---- space-map bitmap access (SpaceMap pages only) ----------------------

    /// Number of allocation bits a single space-map page can hold.
    pub const BITS_PER_SPACEMAP_PAGE: usize = (PAGE_SIZE - HEADER_SIZE) * 8;

    /// Read allocation bit `i` of a space-map page.
    pub fn sm_get_bit(&self, i: usize) -> bool {
        debug_assert!(i < Self::BITS_PER_SPACEMAP_PAGE);
        let byte = HEADER_SIZE + i / 8;
        self.buf[byte] & (1 << (i % 8)) != 0
    }

    /// Set or clear allocation bit `i` of a space-map page.
    pub fn sm_set_bit(&mut self, i: usize, val: bool) {
        debug_assert!(i < Self::BITS_PER_SPACEMAP_PAGE);
        let byte = HEADER_SIZE + i / 8;
        if val {
            self.buf[byte] |= 1 << (i % 8);
        } else {
            self.buf[byte] &= !(1 << (i % 8));
        }
    }

    /// Find the first clear bit at or after `from`, if any: the allocator's
    /// free-page scan, a byte at a time over the page it has latched once.
    pub fn sm_find_clear(&self, from: usize) -> Option<usize> {
        let bits = &self.buf[HEADER_SIZE..];
        let mut i = from;
        while i < Self::BITS_PER_SPACEMAP_PAGE {
            // The bits of this byte below `i` count as set.
            let byte = bits[i / 8] | ((1u8 << (i % 8)) - 1);
            if byte != u8::MAX {
                return Some(i / 8 * 8 + byte.trailing_ones() as usize);
            }
            i = (i / 8 + 1) * 8;
        }
        None
    }

    /// Number of set bits on a space-map page.
    pub fn sm_count_set(&self) -> u64 {
        self.buf[HEADER_SIZE..]
            .iter()
            .map(|b| u64::from(b.count_ones()))
            .sum()
    }

    // ---- little-endian helpers --------------------------------------------

    fn get_u16(&self, off: usize) -> u16 {
        u16::from_le_bytes([self.buf[off], self.buf[off + 1]])
    }

    fn put_u16(&mut self, off: usize, v: u16) {
        self.buf[off..off + 2].copy_from_slice(&v.to_le_bytes());
    }

    fn get_u64(&self, off: usize) -> u64 {
        let mut b = [0u8; 8];
        b.copy_from_slice(&self.buf[off..off + 8]);
        u64::from_le_bytes(b)
    }

    fn put_u64(&mut self, off: usize, v: u64) {
        self.buf[off..off + 8].copy_from_slice(&v.to_le_bytes());
    }
}

impl std::fmt::Debug for Page {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Page")
            .field("lsn", &self.lsn())
            .field("type", &self.page_type())
            .field("slots", &self.slot_count())
            .field("free", &self.free_space())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_page_is_empty() {
        let p = Page::new(PageType::Node);
        assert_eq!(p.slot_count(), 0);
        assert_eq!(p.lsn(), Lsn::ZERO);
        assert_eq!(p.page_type().unwrap(), PageType::Node);
        assert_eq!(p.free_space(), PAGE_SIZE - HEADER_SIZE);
        assert!(!p.is_freed());
    }

    #[test]
    fn insert_get_roundtrip() {
        let mut p = Page::new(PageType::Node);
        p.insert(0, b"hello").unwrap();
        p.insert(1, b"world").unwrap();
        assert_eq!(p.get(0).unwrap(), b"hello");
        assert_eq!(p.get(1).unwrap(), b"world");
        assert_eq!(p.slot_count(), 2);
    }

    #[test]
    fn insert_in_middle_shifts_slots() {
        let mut p = Page::new(PageType::Node);
        p.insert(0, b"a").unwrap();
        p.insert(1, b"c").unwrap();
        p.insert(1, b"b").unwrap();
        assert_eq!(p.get(0).unwrap(), b"a");
        assert_eq!(p.get(1).unwrap(), b"b");
        assert_eq!(p.get(2).unwrap(), b"c");
    }

    #[test]
    fn remove_returns_bytes_and_shifts() {
        let mut p = Page::new(PageType::Node);
        p.insert(0, b"a").unwrap();
        p.insert(1, b"b").unwrap();
        p.insert(2, b"c").unwrap();
        let removed = p.remove(1).unwrap();
        assert_eq!(removed, b"b");
        assert_eq!(p.slot_count(), 2);
        assert_eq!(p.get(0).unwrap(), b"a");
        assert_eq!(p.get(1).unwrap(), b"c");
    }

    #[test]
    fn update_same_len_in_place() {
        let mut p = Page::new(PageType::Node);
        p.insert(0, b"abc").unwrap();
        let free_before = p.free_space();
        let old = p.update(0, b"xyz").unwrap();
        assert_eq!(old, b"abc");
        assert_eq!(p.get(0).unwrap(), b"xyz");
        assert_eq!(p.free_space(), free_before);
    }

    #[test]
    fn update_grow_and_shrink() {
        let mut p = Page::new(PageType::Node);
        p.insert(0, b"short").unwrap();
        p.insert(1, b"other").unwrap();
        let old = p.update(0, b"much longer record").unwrap();
        assert_eq!(old, b"short");
        assert_eq!(p.get(0).unwrap(), b"much longer record");
        assert_eq!(p.get(1).unwrap(), b"other");
        let old2 = p.update(0, b"s").unwrap();
        assert_eq!(old2, b"much longer record");
        assert_eq!(p.get(0).unwrap(), b"s");
    }

    #[test]
    fn fill_until_full_then_error() {
        let mut p = Page::new(PageType::Node);
        let rec = [7u8; 100];
        let mut n = 0u16;
        loop {
            match p.insert(n, &rec) {
                Ok(()) => n += 1,
                Err(StoreError::PageFull { .. }) => break,
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        // 4096 - 16 = 4080 usable; each record costs 104 bytes.
        assert_eq!(n as usize, 4080 / 104);
        assert!(p.free_space() < 104);
    }

    #[test]
    fn compaction_reclaims_fragmentation() {
        let mut p = Page::new(PageType::Node);
        for i in 0..10 {
            p.insert(i, &[i as u8; 50]).unwrap();
        }
        // Remove interior records to create fragmentation.
        for _ in 0..5 {
            p.remove(0).unwrap();
        }
        assert!(p.free_space() > p.contiguous_free_space());
        p.compact();
        assert_eq!(p.free_space(), p.contiguous_free_space());
        for i in 0..5 {
            assert_eq!(p.get(i).unwrap(), &[(i + 5) as u8; 50]);
        }
    }

    #[test]
    fn used_space_header_read_equals_slot_walk() {
        fn walk(p: &Page) -> usize {
            (0..p.slot_count()).map(|i| 4 + p.slot(i).1 as usize).sum()
        }
        let mut p = Page::new(PageType::Node);
        assert_eq!(p.used_space(), 0);
        // A fixed pseudo-random mix of inserts, removes (frontier and
        // interior, so fragments build up), same-size and resizing updates,
        // and explicit compactions.
        let mut x = 0x9e37_79b9_u32;
        for step in 0..4000 {
            x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            let n = p.slot_count();
            let len = 1 + (x >> 8) as usize % 90;
            let idx = if n == 0 { 0 } else { (x >> 20) as u16 % n };
            match x % 7 {
                0..=2 if len + 4 <= p.free_space() => {
                    p.insert(idx, &vec![step as u8; len]).unwrap()
                }
                3 | 4 if n > 0 => drop(p.remove(idx).unwrap()),
                5 if n > 0 && len <= p.free_space() => {
                    drop(p.update(idx, &vec![!(step as u8); len]).unwrap())
                }
                6 if step % 5 == 0 => p.compact(),
                _ => {}
            }
            assert_eq!(p.used_space(), walk(&p), "step {step}");
        }
        assert!(p.slot_count() > 0);
    }

    #[test]
    fn ends_ascending_run_reads_insert_order_off_the_heap() {
        let mut p = Page::new(PageType::Node);
        p.insert(0, b"header").unwrap();
        for k in [b"b", b"d", b"f"] {
            p.keyed_insert(&Page::make_entry(k, b"v")).unwrap();
        }
        // b, d, f arrived in order: the run ends at f (slot 3) only.
        assert!(p.ends_ascending_run(3));
        assert!(!p.ends_ascending_run(2) && !p.ends_ascending_run(0));
        assert!(!p.ends_ascending_run(4), "past the last slot");
        // c lands between b and d: it is the newest record, but the one
        // before it in key order (b) is not the one before it in time (f).
        p.keyed_insert(&Page::make_entry(b"c", b"v")).unwrap();
        assert!(!p.ends_ascending_run(2) && !p.ends_ascending_run(4));
        // A compaction lays the heap out in slot order: the hint then names
        // the last slot, whatever order the records arrived in.
        p.compact();
        assert!(p.ends_ascending_run(4));
    }

    #[test]
    fn insert_triggers_compaction_automatically() {
        let mut p = Page::new(PageType::Node);
        // Two big records filling most of the page.
        let big = vec![1u8; 1800];
        p.insert(0, &big).unwrap();
        p.insert(1, &big).unwrap();
        // Removing slot 0 leaves a fragmented hole (slot 1's record sits at
        // the frontier boundary below slot 0's record).
        p.remove(0).unwrap();
        // A new record bigger than contiguous space but smaller than total
        // free must still fit.
        let rec = vec![2u8; 1900];
        assert!(rec.len() + 4 > p.contiguous_free_space() || p.frag_bytes() == 0);
        p.insert(1, &rec).unwrap();
        assert_eq!(p.get(0).unwrap(), &big[..]);
        assert_eq!(p.get(1).unwrap(), &rec[..]);
    }

    #[test]
    fn bytes_roundtrip() {
        let mut p = Page::new(PageType::Meta);
        p.insert(0, b"meta-record").unwrap();
        p.set_lsn(Lsn(99));
        let q = Page::from_bytes(p.as_bytes()).unwrap();
        assert_eq!(q.lsn(), Lsn(99));
        assert_eq!(q.get(0).unwrap(), b"meta-record");
        assert_eq!(q.page_type().unwrap(), PageType::Meta);
    }

    #[test]
    fn freed_flag() {
        let mut p = Page::new(PageType::Node);
        p.set_flags(p.flags() | FLAG_FREED);
        assert!(p.is_freed());
    }

    #[test]
    fn bad_slot_errors() {
        let mut p = Page::new(PageType::Node);
        assert!(matches!(p.get(0), Err(StoreError::BadSlot { .. })));
        assert!(matches!(p.remove(0), Err(StoreError::BadSlot { .. })));
        assert!(matches!(p.insert(1, b"x"), Err(StoreError::BadSlot { .. })));
        assert!(matches!(p.update(0, b"x"), Err(StoreError::BadSlot { .. })));
    }

    #[test]
    fn entry_codec_roundtrip() {
        let e = Page::make_entry(b"key", b"payload");
        assert_eq!(Page::entry_key(&e), b"key");
        assert_eq!(Page::entry_payload(&e), b"payload");
        let empty_key = Page::make_entry(b"", b"p");
        assert_eq!(Page::entry_key(&empty_key), b"");
        assert_eq!(Page::entry_payload(&empty_key), b"p");
    }

    #[test]
    fn keyed_entries_stay_sorted() {
        let mut p = Page::new(PageType::Node);
        p.insert(0, b"hdr").unwrap();
        for k in ["mm", "cc", "zz", "aa", "qq"] {
            p.keyed_insert(&Page::make_entry(k.as_bytes(), b""))
                .unwrap();
        }
        let keys: Vec<&[u8]> = (1..p.slot_count())
            .map(|i| Page::entry_key(p.get(i).unwrap()))
            .collect();
        assert_eq!(keys, vec![&b"aa"[..], b"cc", b"mm", b"qq", b"zz"]);
        assert_eq!(p.entry_count(), 5);
    }

    #[test]
    fn keyed_find_and_floor() {
        let mut p = Page::new(PageType::Node);
        p.insert(0, b"hdr").unwrap();
        for k in ["bb", "dd", "ff"] {
            p.keyed_insert(&Page::make_entry(k.as_bytes(), b""))
                .unwrap();
        }
        assert_eq!(p.keyed_find(b"dd").unwrap(), Ok(2));
        assert_eq!(p.keyed_find(b"cc").unwrap(), Err(2));
        assert_eq!(p.keyed_find(b"a").unwrap(), Err(1));
        assert_eq!(p.keyed_find(b"zz").unwrap(), Err(4));
        // floor: greatest entry ≤ key (the §5.3 routing rule).
        assert_eq!(p.keyed_floor(b"dd").unwrap(), Some(2));
        assert_eq!(p.keyed_floor(b"ee").unwrap(), Some(2));
        assert_eq!(p.keyed_floor(b"zz").unwrap(), Some(3));
        assert_eq!(p.keyed_floor(b"a").unwrap(), None);
    }

    #[test]
    fn borrowed_accessors_agree_with_get() {
        let mut p = Page::new(PageType::Node);
        p.insert(0, b"hdr").unwrap();
        for (k, v) in [("bb", "v1"), ("dd", "v2"), ("ff", "v3")] {
            p.keyed_insert(&Page::make_entry(k.as_bytes(), v.as_bytes()))
                .unwrap();
        }
        for slot in 1..p.slot_count() {
            let e = p.get(slot).unwrap();
            assert_eq!(p.entry_key_at(slot), Page::entry_key(e));
            assert_eq!(p.entry_payload_at(slot), Page::entry_payload(e));
        }
        assert_eq!(p.keyed_probe(b"dd"), Ok(2));
        assert_eq!(p.keyed_probe(b"cc"), Err(2));
        let (slot, entry) = p.keyed_lookup(b"ff").unwrap();
        assert_eq!(slot, 3);
        assert_eq!(Page::entry_key(entry), b"ff");
        assert_eq!(Page::entry_payload(entry), b"v3");
        assert!(p.keyed_lookup(b"zz").is_none());
        assert!(p.keyed_lookup(b"a").is_none());
    }

    #[test]
    fn keyed_remove_returns_entry() {
        let mut p = Page::new(PageType::Node);
        p.insert(0, b"hdr").unwrap();
        p.keyed_insert(&Page::make_entry(b"k1", b"v1")).unwrap();
        let gone = p.keyed_remove(b"k1").unwrap();
        assert_eq!(Page::entry_payload(&gone), b"v1");
        assert_eq!(p.entry_count(), 0);
    }

    #[test]
    fn remove_at_frontier_reclaims_directly() {
        let mut p = Page::new(PageType::Node);
        p.insert(0, b"first").unwrap();
        p.insert(1, b"second").unwrap();
        // "second" is at the heap frontier (inserted last, lowest offset).
        p.remove(1).unwrap();
        assert_eq!(p.frag_bytes(), 0);
    }
}
