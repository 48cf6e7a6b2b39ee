//! Fixed-size slotted pages.
//!
//! Every node of every tree in this repository — and the space-map bitmaps,
//! and the store meta page — is one of these. The layout is the classic
//! slotted page: a small fixed header, a slot directory growing down from the
//! header, and a record heap growing up from the end of the page.
//!
//! ```text
//! 0..8     page LSN (= state identifier, §5.2 of the paper)
//! 8        page type
//! 9        flags (bit 0: freed tombstone, set when de-allocation is a
//!                 node update, §5.2.2(b); bit 1: keyed page)
//! 10..12   slot count
//! 12..14   heap top (lowest offset occupied by a record)
//! 14..16   fragmented bytes (reclaimable by compaction)
//! 16..18   key prefix length P (keyed pages; 0 on every other page)
//! 18..     slot directory: 4 bytes per slot (offset u16, length u16)
//! ...      free space
//! ...      record heap, grows downward from PAGE_SIZE - P
//! -P..     key prefix: the bytes every keyed entry's key starts with
//! ```
//!
//! Records are addressed by *slot index* and slots are kept dense: removing a
//! slot shifts later slots down. Trees rely on this to keep entries sorted by
//! slot index.

use crate::error::{StoreError, StoreResult};
use crate::ids::{Lsn, PageId};
use std::cmp::Ordering;

/// Size of every page in the store, in bytes.
pub const PAGE_SIZE: usize = 4096;

/// Size of the fixed page header preceding the slot directory.
pub const HEADER_SIZE: usize = 18;

const OFF_LSN: usize = 0;
const OFF_TYPE: usize = 8;
const OFF_FLAGS: usize = 9;
const OFF_SLOT_COUNT: usize = 10;
const OFF_HEAP_TOP: usize = 12;
const OFF_FRAG: usize = 14;
const OFF_PREFIX: usize = 16;

/// Flag bit recording that the page has been de-allocated, for the
/// "de-allocation is a node update" policy of §5.2.2(b).
pub const FLAG_FREED: u8 = 0b0000_0001;

/// Flag bit recording that slots 1.. hold keyed entries (the convention
/// below). The first keyed insert sets it and only [`Page::format`] clears
/// it; [`Page::validate`] checks those entries' framing.
pub const FLAG_KEYED: u8 = 0b0000_0010;

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

/// The key of a keyed entry, read in place: the page's key prefix followed
/// by the suffix the entry stores. Code above the codec compares, splits and
/// copies keys through this view; a stored suffix alone is never a key.
#[derive(Clone, Copy)]
pub struct KeyRef<'a> {
    prefix: &'a [u8],
    suffix: &'a [u8],
}

impl<'a> KeyRef<'a> {
    /// A whole key as a view.
    pub fn new(key: &'a [u8]) -> KeyRef<'a> {
        KeyRef {
            prefix: key,
            suffix: &[],
        }
    }

    /// The two stored parts: the page's prefix and the entry's suffix.
    fn parts(&self) -> (&'a [u8], &'a [u8]) {
        (self.prefix, self.suffix)
    }

    /// Key length in bytes.
    pub fn len(&self) -> usize {
        self.prefix.len() + self.suffix.len()
    }

    /// Whether the key is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The key's bytes in order.
    fn bytes(&self) -> impl Iterator<Item = u8> + 'a {
        self.prefix.iter().chain(self.suffix).copied()
    }

    /// A copy of the whole key.
    pub fn to_vec(&self) -> Vec<u8> {
        [self.prefix, self.suffix].concat()
    }

    /// The key as an array, when it is exactly `N` bytes long.
    pub fn to_array<const N: usize>(&self) -> Option<[u8; N]> {
        if self.len() != N {
            return None;
        }
        let mut out = [0u8; N];
        let (a, b) = out.split_at_mut(self.prefix.len());
        a.copy_from_slice(self.prefix);
        b.copy_from_slice(self.suffix);
        Some(out)
    }

    /// The first `mid` bytes and the rest, each again a view (either half
    /// may span the prefix and the suffix). `mid` must be at most `len()`.
    pub fn split_at(&self, mid: usize) -> (KeyRef<'a>, KeyRef<'a>) {
        if mid <= self.prefix.len() {
            let (p0, p1) = self.prefix.split_at(mid);
            (
                KeyRef::new(p0),
                KeyRef {
                    prefix: p1,
                    suffix: self.suffix,
                },
            )
        } else {
            let (s0, s1) = self.suffix.split_at(mid - self.prefix.len());
            (
                KeyRef {
                    prefix: self.prefix,
                    suffix: s0,
                },
                KeyRef::new(s1),
            )
        }
    }

    /// Whether the key starts with `head`.
    pub fn starts_with(&self, head: &[u8]) -> bool {
        head.len() <= self.len() && self.split_at(head.len()).0 == head
    }

    /// Compare with a whole key, in place.
    fn cmp_key(&self, key: &[u8]) -> Ordering {
        let p = self.prefix.len();
        if key.len() < p {
            return match self.prefix[..key.len()].cmp(key) {
                Ordering::Equal => Ordering::Greater,
                o => o,
            };
        }
        match self.prefix.cmp(&key[..p]) {
            Ordering::Equal => self.suffix.cmp(&key[p..]),
            o => o,
        }
    }

    /// Length of the longest common prefix with `other`, compared a slice
    /// run at a time.
    fn common_prefix_len(&self, other: &KeyRef<'_>) -> usize {
        let (mut a, mut b) = (*self, *other);
        let mut shared = 0;
        loop {
            let (x, y) = (a.first_run(), b.first_run());
            let m = x.len().min(y.len());
            let run = x[..m]
                .iter()
                .zip(&y[..m])
                .take_while(|(p, q)| p == q)
                .count();
            shared += run;
            if run < m || m == 0 {
                return shared;
            }
            (a, b) = (a.split_at(m).1, b.split_at(m).1);
        }
    }

    /// The leading stored part that is not empty (empty for an empty key).
    fn first_run(&self) -> &'a [u8] {
        if self.prefix.is_empty() {
            self.suffix
        } else {
            self.prefix
        }
    }
}

impl std::fmt::Debug for KeyRef<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.bytes()).finish()
    }
}

impl PartialEq for KeyRef<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.bytes().eq(other.bytes())
    }
}

impl Eq for KeyRef<'_> {}

impl PartialOrd for KeyRef<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for KeyRef<'_> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.bytes().cmp(other.bytes())
    }
}

impl PartialEq<&[u8]> for KeyRef<'_> {
    fn eq(&self, key: &&[u8]) -> bool {
        self.cmp_key(key) == Ordering::Equal
    }
}

impl PartialOrd<&[u8]> for KeyRef<'_> {
    fn partial_cmp(&self, key: &&[u8]) -> Option<Ordering> {
        Some(self.cmp_key(key))
    }
}

/// Compare `s` with the concatenation `head ‖ tail`, in place.
#[inline]
fn cmp_split(s: &[u8], head: &[u8], tail: &[u8]) -> Ordering {
    let m = s.len().min(head.len());
    match s[..m].cmp(&head[..m]) {
        Ordering::Equal if m < head.len() => Ordering::Less,
        Ordering::Equal => s[m..].cmp(tail),
        o => o,
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
    /// Any other image must pass [`Page::validate`].
    pub(crate) fn adopt(buf: Box<[u8]>) -> StoreResult<Option<Page>> {
        assert_eq!(buf.len(), PAGE_SIZE);
        let page = Page { buf };
        if page.heap_top() == 0 {
            return Ok(None);
        }
        page.validate()?;
        Ok(Some(page))
    }

    /// Construct a page from raw bytes (e.g. read from disk), validated.
    pub fn from_bytes(bytes: &[u8]) -> StoreResult<Page> {
        if bytes.len() != PAGE_SIZE {
            return Err(StoreError::Corrupt(format!(
                "page image has {} bytes, expected {PAGE_SIZE}",
                bytes.len()
            )));
        }
        let page = Page {
            buf: bytes.to_vec().into_boxed_slice(),
        };
        page.validate()?;
        Ok(page)
    }

    /// The raw page image (for writing to disk or full-page logging).
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Overwrite this page with a full image (redo of a full-page log
    /// record), which must validate like any image read from a device.
    pub fn set_bytes(&mut self, bytes: &[u8]) -> StoreResult<()> {
        *self = Page::from_bytes(bytes)?;
        Ok(())
    }

    /// Check that the header, slot directory and records are consistent, so
    /// that no accessor can slice outside the page: the key prefix fits
    /// between the slot directory and the page end, the slot directory ends
    /// at or below the heap top, every record lies in the heap, the live
    /// records and the fragment count add up to the heap, and on a keyed
    /// page every entry's key is at least the prefix long and its suffix
    /// fits its record. Every image read from a device passes here once; the
    /// accessors rely on it and do not check again. (Records that overlap
    /// are not looked for: they read wrong bytes, never bytes outside the
    /// page, and every mutator keeps the heap accounting that bounds them.)
    pub fn validate(&self) -> StoreResult<()> {
        let corrupt = |what: String| Err(StoreError::Corrupt(format!("page image: {what}")));
        self.page_type()?;
        let (n, plen) = (self.slot_count(), self.prefix_len());
        let (top, slots_end) = (self.heap_top(), self.slots_end());
        if plen > PAGE_SIZE || (plen > 0 && !self.is_keyed()) {
            return corrupt(format!("a {plen}-byte key prefix"));
        }
        let base = PAGE_SIZE - plen;
        if slots_end > base {
            return corrupt(format!(
                "the {plen}-byte key prefix overlaps {n} slots ending at {slots_end}"
            ));
        }
        if slots_end > top || top > base {
            return corrupt(format!(
                "heap top {top} outside {slots_end}..={base} ({n} slots)"
            ));
        }
        let keyed = self.is_keyed();
        let mut live = 0;
        for (i, s) in self.buf[HEADER_SIZE..slots_end].chunks_exact(4).enumerate() {
            let off = u16::from_le_bytes([s[0], s[1]]) as usize;
            let len = u16::from_le_bytes([s[2], s[3]]) as usize;
            if off < top || off + len > base {
                return corrupt(format!("slot {i} at {off}+{len} outside the heap"));
            }
            live += len;
            // A keyed entry's key is at least the prefix long, and its
            // suffix fits the record.
            if keyed && i > 0 {
                let klen = if len < 2 {
                    0
                } else {
                    self.get_u16(off) as usize
                };
                if len < 2 || klen < plen || klen + 2 > len + plen {
                    return corrupt(format!(
                        "slot {i}: a {klen}-byte key in a {len}-byte record under a {plen}-byte prefix"
                    ));
                }
            }
        }
        if live + self.frag_bytes() != base - top {
            return corrupt(format!(
                "{live} live and {} fragmented bytes in a {}-byte heap",
                self.frag_bytes(),
                base - top
            ));
        }
        Ok(())
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

    /// Header flag byte.
    pub fn flags(&self) -> u8 {
        self.buf[OFF_FLAGS]
    }

    /// Replace the header flag byte, except [`FLAG_KEYED`]: that bit
    /// belongs to the keyed-entry codec.
    pub fn set_flags(&mut self, flags: u8) {
        self.buf[OFF_FLAGS] = (flags & !FLAG_KEYED) | (self.flags() & FLAG_KEYED);
    }

    /// Whether slots 1.. hold keyed entries ([`FLAG_KEYED`]).
    pub fn is_keyed(&self) -> bool {
        self.flags() & FLAG_KEYED != 0
    }

    /// Whether the freed-tombstone flag is set (§5.2.2(b)).
    pub fn is_freed(&self) -> bool {
        self.flags() & FLAG_FREED != 0
    }

    /// The page's type when every byte but the LSN is what
    /// [`Page::format`] leaves for that type — no flag, slot, bit or heap
    /// byte set — else `None`.
    pub fn fresh_type(&self) -> Option<PageType> {
        let ty = self.page_type().ok()?;
        let zero = |bytes: &[u8]| bytes.iter().all(|&b| b == 0);
        (self.get_u16(OFF_HEAP_TOP) == PAGE_SIZE as u16
            && zero(&self.buf[OFF_FLAGS..OFF_HEAP_TOP])
            && zero(&self.buf[OFF_FRAG..]))
        .then_some(ty)
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

    fn prefix_len(&self) -> usize {
        self.get_u16(OFF_PREFIX) as usize
    }

    /// Where the record heap starts growing down from: below the key prefix.
    fn heap_base(&self) -> usize {
        PAGE_SIZE - self.prefix_len()
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

    /// Bytes occupied by live records, their slot entries and the key
    /// prefix: a header read, the complement of [`Page::free_space`]. The
    /// utilization measure of the consolidation trigger (§3.3), evaluated
    /// under the X latch on every delete.
    pub fn used_space(&self) -> usize {
        PAGE_SIZE - HEADER_SIZE - self.free_space()
    }

    /// Whether the records in slots `idx - 1` and `idx` were the last two
    /// carved from the heap, in that order: the page's latest inserts ran
    /// upward through `idx`. (A compaction or a re-encoding lays the heap
    /// out in slot order, and removing the newest record exposes the one
    /// before it, so this is a hint about insert order, not a log of it.)
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

    /// Read the record in slot `idx` as stored. For a keyed entry that is
    /// its suffix after the page's key prefix: read keys through
    /// [`Page::entry_key_at`], copy entries with [`Page::entry_at`].
    pub fn get(&self, idx: u16) -> StoreResult<&[u8]> {
        if idx >= self.slot_count() {
            return Err(StoreError::BadSlot {
                page: PageId::INVALID,
                slot: idx,
            });
        }
        Ok(self.record_at(idx))
    }

    /// Insert `bytes` as a new record at slot index `idx`, shifting later
    /// slots up by one. `idx` may equal `slot_count()` (append).
    pub fn insert(&mut self, idx: u16, bytes: &[u8]) -> StoreResult<()> {
        self.check_framing(idx, bytes)?;
        self.insert_record(idx, &[bytes])
    }

    /// [`Page::insert`] of the record `parts` concatenated.
    fn insert_record(&mut self, idx: u16, parts: &[&[u8]]) -> StoreResult<()> {
        let n = self.slot_count();
        if idx > n {
            return Err(StoreError::BadSlot {
                page: PageId::INVALID,
                slot: idx,
            });
        }
        let len: usize = parts.iter().map(|p| p.len()).sum();
        let need = len + 4;
        if need > self.free_space() {
            return Err(StoreError::PageFull {
                page: PageId::INVALID,
                need,
                free: self.free_space(),
            });
        }
        if need > self.contiguous_free_space() {
            self.compact();
        }
        // Carve the record out of the heap.
        let new_top = self.heap_top() - len;
        let mut at = new_top;
        for p in parts {
            self.buf[at..at + p.len()].copy_from_slice(p);
            at += p.len();
        }
        self.put_u16(OFF_HEAP_TOP, new_top as u16);
        // Shift the slot directory to open slot `idx`.
        let start = HEADER_SIZE + 4 * idx as usize;
        let end = HEADER_SIZE + 4 * n as usize;
        self.buf.copy_within(start..end, start + 4);
        self.set_slot(idx, new_top as u16, len as u16);
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
        let old = self.get(idx)?.to_vec();
        self.check_framing(idx, bytes)?;
        self.update_record(idx, &[bytes])?;
        Ok(old)
    }

    /// [`Page::update`] with the record `parts` concatenated. `idx` must be
    /// a live slot.
    fn update_record(&mut self, idx: u16, parts: &[&[u8]]) -> StoreResult<()> {
        let (off, old_len) = self.slot(idx);
        let (off, old_len) = (off as usize, old_len as usize);
        let len: usize = parts.iter().map(|p| p.len()).sum();
        if len == old_len {
            // In-place overwrite, no heap churn.
            let mut at = off;
            for p in parts {
                self.buf[at..at + p.len()].copy_from_slice(p);
                at += p.len();
            }
            return Ok(());
        }
        // Grow/shrink: free then re-insert at the same index. Check space
        // counting the freed bytes as available.
        let free = self.free_space() + old_len + 4;
        if len + 4 > free {
            return Err(StoreError::PageFull {
                page: PageId::INVALID,
                need: len + 4,
                free,
            });
        }
        self.remove(idx)?;
        self.insert_record(idx, parts)
    }

    /// A raw record for slot `idx` of a keyed page must be a stored keyed
    /// entry, or the page would stop validating.
    fn check_framing(&self, idx: u16, bytes: &[u8]) -> StoreResult<()> {
        if idx > 0 && self.is_keyed() {
            Self::split_stored(bytes, self.prefix_len())?;
        }
        Ok(())
    }

    /// Rewrite the record heap to eliminate fragmentation. Slot indexes are
    /// unchanged.
    pub fn compact(&mut self) {
        let n = self.slot_count();
        let mut scratch = Vec::with_capacity(n as usize);
        for i in 0..n {
            scratch.push(self.record_at(i).to_vec());
        }
        let mut top = self.heap_base();
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
    // 1..: an entry is `[klen u16 LE][key bytes][payload]`, kept sorted by
    // key (plain byte order). That is the form log records, undo information
    // and moved entries carry (`make_entry`, `entry_at`). The page stores an
    // entry without its first P key bytes — `[klen][key[P..]][payload]`, klen
    // still the whole key's length — where P is the length of the key prefix
    // the page stores once: the longest common prefix of its first and last
    // keys, which every key between them shares (Bayer & Unterauer's prefix
    // B-tree, with the prefix taken from the keys the node holds). A keyed
    // insert or remove that changes the first or last key re-derives the
    // prefix and, when it changed, re-encodes every entry; REDO of the same
    // operation on the same bytes re-derives the same prefix.
    //
    // Page operations that locate entries by key are logical-within-page:
    // they survive concurrent slot movement, which slot-number addressing
    // would not (this is what "page-oriented UNDO" requires in practice).

    /// Split a keyed entry into key and payload; an entry whose key length
    /// runs past its bytes is corrupt.
    fn split_entry(bytes: &[u8]) -> StoreResult<(&[u8], &[u8])> {
        Self::split_stored(bytes, 0)
    }

    /// Split an entry stored under a `plen`-byte key prefix into its key
    /// suffix and payload; a key shorter than the prefix, or a suffix that
    /// runs past the record, is corrupt.
    fn split_stored(rec: &[u8], plen: usize) -> StoreResult<(&[u8], &[u8])> {
        if let [a, b, body @ ..] = rec {
            let klen = u16::from_le_bytes([*a, *b]) as usize;
            if let Some(slen) = klen.checked_sub(plen).filter(|s| *s <= body.len()) {
                return Ok(body.split_at(slen));
            }
        }
        Err(StoreError::Corrupt(format!(
            "keyed entry framing {:02x?} under a {plen}-byte key prefix",
            &rec[..rec.len().min(2)]
        )))
    }

    /// Decode the key of a keyed entry.
    pub fn entry_key(bytes: &[u8]) -> StoreResult<&[u8]> {
        Ok(Self::split_entry(bytes)?.0)
    }

    /// Decode the payload of a keyed entry.
    pub fn entry_payload(bytes: &[u8]) -> StoreResult<&[u8]> {
        Ok(Self::split_entry(bytes)?.1)
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

    /// The key prefix every keyed entry's key starts with (empty on a page
    /// without keyed entries).
    pub fn key_prefix(&self) -> &[u8] {
        &self.buf[self.heap_base()..]
    }

    /// Borrow the record bytes at `slot` without the bounds-checked
    /// `Result` of [`Page::get`]. `slot` must be `< slot_count()` — the
    /// in-place probe helpers below only produce such slots.
    #[inline]
    fn record_at(&self, slot: u16) -> &[u8] {
        debug_assert!(slot < self.slot_count());
        let (off, len) = self.slot(slot);
        &self.buf[off as usize..(off + len) as usize]
    }

    /// The stored suffix and the payload of the keyed entry at `slot`:
    /// [`Page::split_stored`] for a record [`Page::validate`] vouched for,
    /// total on any bytes (a record that is not a keyed entry reads as an
    /// empty suffix and payload) and without a `Result` on the read hot path.
    #[inline]
    fn stored_at(&self, slot: u16) -> (&[u8], &[u8]) {
        match self.record_at(slot) {
            [a, b, body @ ..] => {
                let klen = u16::from_le_bytes([*a, *b]) as usize;
                body.split_at(klen.saturating_sub(self.prefix_len()).min(body.len()))
            }
            _ => (&[], &[]),
        }
    }

    /// View the key of the keyed entry at `slot`, straight out of the
    /// frame. `slot` must be in `1..slot_count()`.
    #[inline]
    pub fn entry_key_at(&self, slot: u16) -> KeyRef<'_> {
        debug_assert!(slot >= 1);
        KeyRef {
            prefix: self.key_prefix(),
            suffix: self.stored_at(slot).0,
        }
    }

    /// Borrow the payload of the keyed entry at `slot`, straight out of the
    /// frame. `slot` must be in `1..slot_count()`.
    #[inline]
    pub fn entry_payload_at(&self, slot: u16) -> &[u8] {
        debug_assert!(slot >= 1);
        self.stored_at(slot).1
    }

    /// A copy of the keyed entry at `slot` as [`Page::make_entry`] builds
    /// it: what log records, undo information and moved entries carry.
    /// `slot` must be in `1..slot_count()`.
    pub fn entry_at(&self, slot: u16) -> Vec<u8> {
        let (suffix, payload) = self.stored_at(slot);
        let key = self.entry_key_at(slot);
        let mut v = Vec::with_capacity(2 + key.len() + payload.len());
        v.extend_from_slice(&(key.len() as u16).to_le_bytes());
        v.extend_from_slice(self.key_prefix());
        v.extend_from_slice(suffix);
        v.extend_from_slice(payload);
        v
    }

    /// In-place binary search over the keyed entries: `key` is compared
    /// with the key prefix once, then with each probed suffix where it sits
    /// in the frame — no record fetch, no per-probe `Result`. `Ok(slot)`
    /// when found, `Err(slot)` giving the insertion slot otherwise.
    #[inline]
    pub fn keyed_probe(&self, key: &[u8]) -> Result<u16, u16> {
        self.keyed_probe_split(key, &[])
    }

    /// [`Page::keyed_probe`] for the key `head ‖ tail`, without
    /// concatenating it (a TSB version key is a user key ‖ a start time).
    #[inline]
    pub fn keyed_probe_split(&self, head: &[u8], tail: &[u8]) -> Result<u16, u16> {
        let n = self.slot_count();
        if n <= 1 {
            return Err(1);
        }
        // Strip the prefix off the probe: a probe that differs from it sorts
        // before or after every entry.
        let prefix = self.key_prefix();
        let (head, tail) = if head.len() >= prefix.len() {
            match head[..prefix.len()].cmp(prefix) {
                Ordering::Equal => (&head[prefix.len()..], tail),
                Ordering::Less => return Err(1),
                Ordering::Greater => return Err(n),
            }
        } else {
            let (p0, rest) = prefix.split_at(head.len());
            match head.cmp(p0) {
                Ordering::Equal if tail.starts_with(rest) => (&[][..], &tail[rest.len()..]),
                Ordering::Equal if tail < rest => return Err(1),
                Ordering::Equal | Ordering::Greater => return Err(n),
                Ordering::Less => return Err(1),
            }
        };
        let mut lo = 1u16;
        let mut hi = n;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match cmp_split(self.stored_at(mid).0, head, tail) {
                Ordering::Less => lo = mid + 1,
                Ordering::Greater => hi = mid,
                Ordering::Equal => return Ok(mid),
            }
        }
        Err(lo)
    }

    /// Combined find-and-borrow: locate `key` and return its slot plus its
    /// payload, borrowed from the frame, or `None` when absent. The single
    /// decode serves point reads that previously paid `keyed_find` +
    /// `get(slot)`.
    #[inline]
    pub fn keyed_lookup(&self, key: &[u8]) -> Option<(u16, &[u8])> {
        match self.keyed_probe(key) {
            Ok(slot) => Some((slot, self.entry_payload_at(slot))),
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

    /// The prefix length the page's rule asks for: the longest common
    /// prefix of its first and last keys (the whole key of a lone entry,
    /// nothing without entries). Well-formedness checks compare it with
    /// [`Page::key_prefix`].
    pub fn canonical_prefix_len(&self) -> usize {
        match self.entry_count() {
            0 => 0,
            n => self
                .entry_key_at(1)
                .common_prefix_len(&self.entry_key_at(n)),
        }
    }

    /// The prefix length once `key` joins the entries: the common prefix of
    /// the smaller of `key` and the first key and the larger of `key` and
    /// the last.
    fn prefix_len_with(&self, key: &[u8]) -> usize {
        let n = self.entry_count();
        if n == 0 {
            return key.len();
        }
        let (first, last) = (self.entry_key_at(1), self.entry_key_at(n));
        let new = KeyRef::new(key);
        let lo = if first.cmp_key(key) == Ordering::Greater {
            new
        } else {
            first
        };
        let hi = if last.cmp_key(key) == Ordering::Less {
            new
        } else {
            last
        };
        lo.common_prefix_len(&hi)
    }

    /// The prefix length once the entry at `slot` has left.
    fn prefix_len_without(&self, slot: u16) -> usize {
        let n = self.entry_count();
        if n <= 1 {
            return 0;
        }
        let first = if slot == 1 { 2 } else { 1 };
        let last = if slot == n { n - 1 } else { n };
        self.entry_key_at(first)
            .common_prefix_len(&self.entry_key_at(last))
    }

    /// Bytes the page's use grows by when a `klen`-byte key with a
    /// `payload_len`-byte payload joins the entries and the prefix becomes
    /// `new_plen` bytes long: its slot and record, and the re-encoding of
    /// every other entry (each entry stores `plen - new_plen` more key
    /// bytes, and the prefix itself that many fewer).
    fn insert_cost(&self, klen: usize, payload_len: usize, new_plen: usize) -> isize {
        let (n, plen, np) = (
            self.entry_count() as isize,
            self.prefix_len() as isize,
            new_plen as isize,
        );
        (n - 1) * (plen - np) + 6 + klen as isize - np + payload_len as isize
    }

    /// Whether the keyed entry `entry` (as [`Page::make_entry`] builds it)
    /// fits as a new entry: the one "is there room" test of every keyed
    /// insert, re-encoding included. A malformed entry does not fit.
    pub fn keyed_fits(&self, entry: &[u8]) -> bool {
        let Ok((key, payload)) = Self::split_entry(entry) else {
            return false;
        };
        let np = self.prefix_len_with(key);
        self.insert_cost(key.len(), payload.len(), np) <= self.free_space() as isize
    }

    /// Insert a keyed entry at its sorted position. Fails if the key exists
    /// or the entry does not fit ([`Page::keyed_fits`]). The first keyed
    /// insert makes the page keyed ([`FLAG_KEYED`]); a page already holding
    /// other records after its header cannot become one.
    pub fn keyed_insert(&mut self, bytes: &[u8]) -> StoreResult<u16> {
        let (key, payload) = Self::split_entry(bytes)?;
        if !self.is_keyed() && self.slot_count() > 1 {
            return Err(StoreError::Corrupt(
                "keyed insert into a page of other records".into(),
            ));
        }
        let slot = match self.keyed_probe(key) {
            Ok(_) => {
                return Err(StoreError::Corrupt(format!(
                    "keyed insert of duplicate key {key:02x?}"
                )))
            }
            Err(slot) if self.slot_count() == 0 => {
                return Err(StoreError::BadSlot {
                    page: PageId::INVALID,
                    slot,
                })
            }
            Err(slot) => slot,
        };
        let (plen, np) = (self.prefix_len(), self.prefix_len_with(key));
        let cost = self.insert_cost(key.len(), payload.len(), np);
        if cost > self.free_space() as isize {
            return Err(StoreError::PageFull {
                page: PageId::INVALID,
                need: cost.max(0) as usize,
                free: self.free_space(),
            });
        }
        let klen = (key.len() as u16).to_le_bytes();
        if np == plen && key.starts_with(self.key_prefix()) {
            self.insert_record(slot, &[&klen, &key[plen..], payload])?;
        } else {
            self.reencode(np, Some((slot, key, payload)), None)?;
        }
        self.buf[OFF_FLAGS] |= FLAG_KEYED;
        Ok(slot)
    }

    /// Fail unless the page holds keyed entries.
    fn require_keyed(&self) -> StoreResult<()> {
        if self.is_keyed() {
            Ok(())
        } else {
            Err(StoreError::Corrupt(
                "keyed operation on an unkeyed page".into(),
            ))
        }
    }

    /// Remove the keyed entry for `key`, returning it (as
    /// [`Page::make_entry`] builds it).
    pub fn keyed_remove(&mut self, key: &[u8]) -> StoreResult<Vec<u8>> {
        self.require_keyed()?;
        let Ok(slot) = self.keyed_probe(key) else {
            return Err(StoreError::Corrupt(format!(
                "keyed remove of absent key {key:02x?}"
            )));
        };
        let removed = self.entry_at(slot);
        let np = if slot == 1 || slot == self.entry_count() {
            self.prefix_len_without(slot)
        } else {
            self.prefix_len()
        };
        if np == self.prefix_len() {
            self.remove(slot)?;
        } else {
            self.reencode(np, None, Some(slot))?;
        }
        Ok(removed)
    }

    /// Replace the keyed entry whose key matches `bytes`'s key, returning
    /// the previous entry. The key, and so the prefix, stays.
    pub fn keyed_update(&mut self, bytes: &[u8]) -> StoreResult<Vec<u8>> {
        self.require_keyed()?;
        let (key, payload) = Self::split_entry(bytes)?;
        let Ok(slot) = self.keyed_probe(key) else {
            return Err(StoreError::Corrupt(format!(
                "keyed update of absent key {key:02x?}"
            )));
        };
        let old = self.entry_at(slot);
        let klen = (key.len() as u16).to_le_bytes();
        self.update_record(slot, &[&klen, &key[self.prefix_len()..], payload])?;
        Ok(old)
    }

    /// Rebuild the page with a `new_plen`-byte key prefix: the header
    /// record, then every keyed entry in order — less the one at `skip`,
    /// plus `add`'s `(slot, key, payload)` at its slot — each stored without
    /// the new prefix, laid out in slot order. The caller has checked that
    /// the result fits; on an error the page is unchanged.
    fn reencode(
        &mut self,
        new_plen: usize,
        add: Option<(u16, &[u8], &[u8])>,
        skip: Option<u16>,
    ) -> StoreResult<()> {
        let mut out = Page {
            buf: vec![0u8; PAGE_SIZE].into_boxed_slice(),
        };
        out.buf[..OFF_SLOT_COUNT].copy_from_slice(&self.buf[..OFF_SLOT_COUNT]);
        out.put_u16(OFF_PREFIX, new_plen as u16);
        out.put_u16(OFF_HEAP_TOP, (PAGE_SIZE - new_plen) as u16);
        // Every key the page keeps starts with the new prefix — unless the
        // page was corrupt, which is an error, never a short slice.
        let some_key = match add {
            Some((_, key, _)) => KeyRef::new(key),
            None if new_plen == 0 => KeyRef::new(&[]),
            None => self.entry_key_at(if skip == Some(1) { 2 } else { 1 }),
        };
        let outside = || StoreError::Corrupt("a key outside the page's key prefix".into());
        if some_key.len() < new_plen {
            return Err(outside());
        }
        let prefix = some_key.split_at(new_plen).0.to_vec();
        out.buf[PAGE_SIZE - new_plen..].copy_from_slice(&prefix);
        out.insert_record(0, &[self.record_at(0)])?;
        let mut push = |key: KeyRef<'_>, payload: &[u8]| {
            if !key.starts_with(&prefix) {
                return Err(outside());
            }
            let (a, b) = key.split_at(new_plen).1.parts();
            let klen = (key.len() as u16).to_le_bytes();
            let at = out.slot_count();
            out.insert_record(at, &[&klen, a, b, payload])
        };
        for slot in 1..=self.slot_count() {
            if let Some((_, key, payload)) = add.filter(|a| a.0 == slot) {
                push(KeyRef::new(key), payload)?;
            }
            if slot < self.slot_count() && skip != Some(slot) {
                push(self.entry_key_at(slot), self.entry_payload_at(slot))?;
            }
        }
        *self = out;
        Ok(())
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
        assert_eq!(Page::entry_key(&e).unwrap(), b"key");
        assert_eq!(Page::entry_payload(&e).unwrap(), b"payload");
        let empty_key = Page::make_entry(b"", b"p");
        assert_eq!(Page::entry_key(&empty_key).unwrap(), b"");
        assert_eq!(Page::entry_payload(&empty_key).unwrap(), b"p");
    }

    #[test]
    fn keyed_entries_stay_sorted() {
        let mut p = Page::new(PageType::Node);
        p.insert(0, b"hdr").unwrap();
        for k in ["mm", "cc", "zz", "aa", "qq"] {
            p.keyed_insert(&Page::make_entry(k.as_bytes(), b""))
                .unwrap();
        }
        let keys: Vec<Vec<u8>> = (1..p.slot_count())
            .map(|i| p.entry_key_at(i).to_vec())
            .collect();
        assert_eq!(keys, [b"aa", b"cc", b"mm", b"qq", b"zz"]);
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
        for (k, v) in [("kbb", "v1"), ("kdd", "v2"), ("kff", "v3")] {
            p.keyed_insert(&Page::make_entry(k.as_bytes(), v.as_bytes()))
                .unwrap();
        }
        assert_eq!(p.key_prefix(), b"k");
        for slot in 1..p.slot_count() {
            let e = p.entry_at(slot);
            assert_eq!(p.entry_key_at(slot).to_vec(), Page::entry_key(&e).unwrap());
            assert_eq!(p.entry_payload_at(slot), Page::entry_payload(&e).unwrap());
            // The stored record is the entry less the page's key prefix.
            assert_eq!(p.get(slot).unwrap(), [&e[..2], &e[3..]].concat());
        }
        assert_eq!(p.keyed_probe(b"kdd"), Ok(2));
        assert_eq!(p.keyed_probe(b"kcc"), Err(2));
        assert_eq!(p.keyed_probe(b"j"), Err(1));
        assert_eq!(p.keyed_probe(b"k"), Err(1));
        assert_eq!(p.keyed_probe(b"l"), Err(4));
        assert_eq!(p.keyed_lookup(b"kff"), Some((3, &b"v3"[..])));
        assert!(p.keyed_lookup(b"kzz").is_none());
        assert!(p.keyed_lookup(b"a").is_none());
    }

    #[test]
    fn keyed_remove_returns_entry() {
        let mut p = Page::new(PageType::Node);
        p.insert(0, b"hdr").unwrap();
        p.keyed_insert(&Page::make_entry(b"k1", b"v1")).unwrap();
        let gone = p.keyed_remove(b"k1").unwrap();
        assert_eq!(gone, Page::make_entry(b"k1", b"v1"));
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
