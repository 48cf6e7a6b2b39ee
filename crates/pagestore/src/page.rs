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
//! 18..     slot directory: 2 bytes per slot (the record's offset)
//! ...      free space
//! ...      record heap, grows downward from PAGE_SIZE - P
//! -P..     key prefix: the bytes every keyed entry's key starts with
//! ```
//!
//! Every record carries its own lengths, so a slot holds only where it
//! starts:
//!
//! ```text
//! [klen][len][key suffix: klen - P bytes][payload: len bytes]
//! ```
//!
//! `klen` (the whole key's length) and `len` are varints: one byte below
//! 128, two bytes up to 16,383 (low seven bits first, high bit set on the
//! first byte). A keyed entry costs a 2-byte slot and two length bytes. A
//! raw record — a node's header in slot 0, a meta record, any record of a
//! page without keyed entries — is one with an empty key: `[0][len][bytes]`.
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

/// Bytes of one slot-directory entry: its record's offset.
const SLOT_SIZE: usize = 2;

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

/// Bytes the varint `v` takes. Every length a page stores is below 2^14.
#[inline]
fn varint_len(v: usize) -> usize {
    1 + usize::from(v >= 0x80)
}

/// The varint at `buf[at..]` and its width, in bytes [`Page::validate`]
/// vouched for.
#[inline]
fn varint_at(buf: &[u8], at: usize) -> (usize, usize) {
    match buf[at] {
        b @ 0..=0x7f => (b as usize, 1),
        b => ((b & 0x7f) as usize | (buf[at + 1] as usize) << 7, 2),
    }
}

/// The varint `bytes` start with and its width; `None` when it is cut
/// short, runs past two bytes or is not in its shortest form.
fn read_varint(bytes: &[u8]) -> Option<(usize, usize)> {
    match *bytes {
        [b, ..] if b < 0x80 => Some((b as usize, 1)),
        [b, c, ..] if (1..0x80).contains(&c) => Some(((b & 0x7f) as usize | (c as usize) << 7, 2)),
        _ => None,
    }
}

/// The two lengths a record opens with, read from untrusted `bytes`: the
/// whole key's length, the payload's, and the bytes they take.
fn read_head(bytes: &[u8]) -> Option<(usize, usize, usize)> {
    let (klen, a) = read_varint(bytes)?;
    let (len, b) = read_varint(&bytes[a..])?;
    Some((klen, len, a + b))
}

/// Bytes of a record storing `slen` bytes of a `klen`-byte key and a
/// `len`-byte payload.
fn record_len(klen: usize, slen: usize, len: usize) -> usize {
    varint_len(klen) + varint_len(len) + slen + len
}

/// A record's two lengths, encoded (none for a stored entry, which carries
/// its own).
#[derive(Default)]
struct Head {
    bytes: [u8; 4],
    len: usize,
}

impl Head {
    #[inline]
    fn new(klen: usize, len: usize) -> Head {
        debug_assert!(klen < 1 << 14 && len < 1 << 14);
        if klen < 0x80 && len < 0x80 {
            return Head {
                bytes: [klen as u8, len as u8, 0, 0],
                len: 2,
            };
        }
        let mut head = Head {
            bytes: [0; 4],
            len: 0,
        };
        for v in [klen, len] {
            if v < 0x80 {
                head.bytes[head.len] = v as u8;
            } else {
                head.bytes[head.len] = 0x80 | (v & 0x7f) as u8;
                head.len += 1;
                head.bytes[head.len] = (v >> 7) as u8;
            }
            head.len += 1;
        }
        head
    }

    fn as_slice(&self) -> &[u8] {
        &self.bytes[..self.len]
    }
}

/// Copy `parts`, concatenated, to `buf[at..]`.
fn put_parts(buf: &mut [u8], mut at: usize, parts: &[&[u8]]) {
    for p in parts {
        buf[at..at + p.len()].copy_from_slice(p);
        at += p.len();
    }
}

fn put_u16(buf: &mut [u8], off: usize, v: u16) {
    buf[off..off + 2].copy_from_slice(&v.to_le_bytes());
}

/// Where slot `idx`'s record sits and how it divides, under a `plen`-byte
/// key prefix. Read from a page [`Page::validate`] vouched for.
#[derive(Clone, Copy)]
struct Rec {
    /// Offset of the record (its first length byte).
    off: usize,
    /// The whole key's length.
    klen: usize,
    /// Offset of the stored key suffix.
    body: usize,
    /// Bytes of the stored key suffix.
    slen: usize,
    /// Bytes of the payload.
    len: usize,
}

impl Rec {
    #[inline]
    fn read(buf: &[u8], off: usize, plen: usize) -> Rec {
        let (klen, len, head) = match buf[off..off + 2] {
            // Both lengths below 128: the one-byte form of every record
            // the trees' pages hold.
            [k, l] if (k | l) < 0x80 => (k as usize, l as usize, 2),
            _ => {
                let (klen, a) = varint_at(buf, off);
                let (len, b) = varint_at(buf, off + a);
                (klen, len, a + b)
            }
        };
        Rec {
            off,
            klen,
            body: off + head,
            slen: klen.saturating_sub(plen),
            len,
        }
    }

    /// One past the record's last byte.
    #[inline]
    fn end(&self) -> usize {
        self.body + self.slen + self.len
    }
}

/// A page image laid out in slot order, each record carved below the last.
struct Layout<'a> {
    buf: &'a mut [u8],
    slots: usize,
    top: usize,
}

impl Layout<'_> {
    /// Append a record made of `parts` as the next slot.
    fn push(&mut self, parts: &[&[u8]]) -> StoreResult<()> {
        let len: usize = parts.iter().map(|p| p.len()).sum();
        let slots_end = HEADER_SIZE + SLOT_SIZE * (self.slots + 1);
        if self.top < slots_end + len {
            return Err(StoreError::PageFull {
                page: PageId::INVALID,
                need: len + SLOT_SIZE,
                free: self.top.saturating_sub(slots_end - SLOT_SIZE),
            });
        }
        self.top -= len;
        put_parts(self.buf, self.top, parts);
        put_u16(self.buf, slots_end - SLOT_SIZE, self.top as u16);
        self.slots += 1;
        Ok(())
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
    /// at or below the heap top, every record's two lengths are shortest
    /// varints, every record lies in the heap, the live records and the
    /// fragment count add up to the heap, a raw record's key is empty, and
    /// on a keyed page every entry's key is at least the prefix long. Every
    /// image read from a device passes here once; the accessors rely on it
    /// and do not check again. (Records that overlap are not looked for:
    /// each reads its extent from its own lengths, so they read wrong
    /// bytes, never bytes outside the page, as long as no write rewrites
    /// another record's lengths — the two writers that reuse heap bytes,
    /// an in-place update and a reclaim at the heap top, first ask
    /// `starts_within`.)
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
        let (keyed, heap) = (self.is_keyed(), &self.buf[..base]);
        let mut live = 0;
        for (i, s) in self.buf[HEADER_SIZE..slots_end]
            .chunks_exact(SLOT_SIZE)
            .enumerate()
        {
            let off = u16::from_le_bytes([s[0], s[1]]) as usize;
            if off < top || off + 2 > base {
                return corrupt(format!("slot {i} at {off} outside the heap"));
            }
            let (klen, len, head) = match (heap[off], heap[off + 1]) {
                (k, l) if (k | l) < 0x80 => (k as usize, l as usize, 2),
                _ => match read_head(&heap[off..]) {
                    Some(framed) => framed,
                    None => return corrupt(format!("slot {i}: no record lengths at {off}")),
                },
            };
            // A keyed entry's key is at least the prefix long; a raw
            // record's is empty.
            let entry = keyed && i > 0;
            if (entry && klen < plen) || (!entry && klen != 0) {
                return corrupt(format!(
                    "slot {i}: a {klen}-byte key under a {plen}-byte prefix"
                ));
            }
            let end = off + head + klen.saturating_sub(plen) + len;
            if end > base {
                return corrupt(format!("slot {i} at {off}..{end} outside the heap"));
            }
            live += end - off;
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
        HEADER_SIZE + SLOT_SIZE * self.slot_count() as usize
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
        let rec = self.rec(idx);
        rec.off == self.heap_top() && self.slot(idx - 1) == rec.end()
    }

    // ---- slot operations ---------------------------------------------------

    fn slot(&self, idx: u16) -> usize {
        self.get_u16(HEADER_SIZE + SLOT_SIZE * idx as usize) as usize
    }

    fn set_slot(&mut self, idx: u16, off: usize) {
        self.put_u16(HEADER_SIZE + SLOT_SIZE * idx as usize, off as u16);
    }

    /// The record in slot `idx`. `idx` must be `< slot_count()`.
    #[inline]
    fn rec(&self, idx: u16) -> Rec {
        debug_assert!(idx < self.slot_count());
        Rec::read(&self.buf, self.slot(idx), self.prefix_len())
    }

    /// Whether a record other than the one being written starts in
    /// `bytes` (which hold that one's start), so that writing them could
    /// rewrite its lengths. Only a page whose records overlap has one — no
    /// operation makes such a page, but [`Page::validate`] does not rule
    /// one out.
    fn starts_within(&self, bytes: std::ops::Range<usize>) -> bool {
        // `off - start < len` in u16 arithmetic: one compare a slot, which
        // the compiler vectorizes.
        let (start, len) = (bytes.start as u16, bytes.len() as u16);
        let starts: u32 = self.buf[HEADER_SIZE..self.slots_end()]
            .chunks_exact(SLOT_SIZE)
            .map(|s| u32::from(u16::from_le_bytes([s[0], s[1]]).wrapping_sub(start) < len))
            .sum();
        starts > 1
    }

    /// Whether slot `idx` holds a keyed entry rather than a raw record.
    fn is_entry(&self, idx: u16) -> bool {
        idx > 0 && self.is_keyed()
    }

    /// Read the record in slot `idx`: a raw record's bytes, or a keyed
    /// entry as stored, lengths and key suffix included. Read keys through
    /// [`Page::entry_key_at`], copy entries with [`Page::entry_at`].
    pub fn get(&self, idx: u16) -> StoreResult<&[u8]> {
        if idx >= self.slot_count() {
            return Err(StoreError::BadSlot {
                page: PageId::INVALID,
                slot: idx,
            });
        }
        Ok(if self.is_entry(idx) {
            self.record_at(idx)
        } else {
            self.payload_at(idx)
        })
    }

    /// Insert `bytes` (in [`Page::get`]'s form) as a new record at slot
    /// index `idx`, shifting later slots up by one. `idx` may equal
    /// `slot_count()` (append).
    pub fn insert(&mut self, idx: u16, bytes: &[u8]) -> StoreResult<()> {
        let head = self.framing(idx, bytes)?;
        self.insert_record(idx, &[head.as_slice(), bytes])
    }

    /// [`Page::insert`] of the record `parts` (lengths included)
    /// concatenated.
    fn insert_record(&mut self, idx: u16, parts: &[&[u8]]) -> StoreResult<()> {
        let n = self.slot_count();
        if idx > n {
            return Err(StoreError::BadSlot {
                page: PageId::INVALID,
                slot: idx,
            });
        }
        let len: usize = parts.iter().map(|p| p.len()).sum();
        let need = len + SLOT_SIZE;
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
        let top = self.heap_top() - len;
        put_parts(&mut self.buf, top, parts);
        self.put_u16(OFF_HEAP_TOP, top as u16);
        // Shift the slot directory to open slot `idx`.
        let start = HEADER_SIZE + SLOT_SIZE * idx as usize;
        self.buf
            .copy_within(start..self.slots_end(), start + SLOT_SIZE);
        self.set_slot(idx, top);
        self.put_u16(OFF_SLOT_COUNT, n + 1);
        Ok(())
    }

    /// Remove the record at slot `idx`, shifting later slots down. Returns
    /// the removed bytes (as [`Page::get`] read them) so callers can build
    /// undo information.
    pub fn remove(&mut self, idx: u16) -> StoreResult<Vec<u8>> {
        let bytes = self.get(idx)?.to_vec();
        self.remove_record(idx);
        Ok(bytes)
    }

    /// [`Page::remove`] without the copy. `idx` must be a live slot.
    fn remove_record(&mut self, idx: u16) {
        let rec = self.rec(idx);
        if rec.off == self.heap_top() && !self.starts_within(rec.off..rec.end()) {
            // Record sits at the heap frontier: reclaim it directly.
            self.put_u16(OFF_HEAP_TOP, rec.end() as u16);
        } else {
            let frag = self.frag_bytes() + rec.end() - rec.off;
            self.put_u16(OFF_FRAG, frag as u16);
        }
        let start = HEADER_SIZE + SLOT_SIZE * (idx + 1) as usize;
        self.buf
            .copy_within(start..self.slots_end(), start - SLOT_SIZE);
        self.put_u16(OFF_SLOT_COUNT, self.slot_count() - 1);
    }

    /// Replace the record at slot `idx` with `bytes` (in [`Page::get`]'s
    /// form), preserving slot order. Returns the previous bytes for undo
    /// information.
    pub fn update(&mut self, idx: u16, bytes: &[u8]) -> StoreResult<Vec<u8>> {
        let old = self.get(idx)?.to_vec();
        let head = self.framing(idx, bytes)?;
        self.update_record(idx, &[head.as_slice(), bytes])?;
        Ok(old)
    }

    /// Whether the record in slot `idx` can take a `len`-byte payload in
    /// place of its own, keeping its key (a raw record's payload is all of
    /// it): the fit test of an update.
    pub fn update_fits(&self, idx: u16, len: usize) -> bool {
        idx < self.slot_count() && {
            let rec = self.rec(idx);
            record_len(rec.klen, rec.slen, len) <= self.free_space() + rec.end() - rec.off
        }
    }

    /// [`Page::update`] with the record `parts` (lengths included)
    /// concatenated. `idx` must be a live slot.
    fn update_record(&mut self, idx: u16, parts: &[&[u8]]) -> StoreResult<()> {
        let rec = self.rec(idx);
        let old_len = rec.end() - rec.off;
        let len: usize = parts.iter().map(|p| p.len()).sum();
        // A record's lengths take at most 4 bytes: one starting up to 3
        // bytes before this one could have them rewritten too.
        if len == old_len && !self.starts_within(rec.off.saturating_sub(3)..rec.end()) {
            // In-place overwrite, no heap churn.
            put_parts(&mut self.buf, rec.off, parts);
            return Ok(());
        }
        // Grow/shrink: free then re-insert at the same index. Check space
        // counting the freed bytes as available.
        let free = self.free_space() + old_len + SLOT_SIZE;
        if len + SLOT_SIZE > free {
            return Err(StoreError::PageFull {
                page: PageId::INVALID,
                need: len + SLOT_SIZE,
                free,
            });
        }
        self.remove_record(idx);
        self.insert_record(idx, parts)
    }

    /// The lengths stored in front of `bytes`, given in [`Page::get`]'s
    /// form for slot `idx`: a raw record's, or none for a keyed entry,
    /// which carries its own. Those must hold under the page's key prefix,
    /// or the page would stop validating.
    fn framing(&self, idx: u16, bytes: &[u8]) -> StoreResult<Head> {
        if !self.is_entry(idx) {
            return Ok(Head::new(0, bytes.len()));
        }
        Self::split_stored(bytes, self.prefix_len())?;
        Ok(Head::default())
    }

    /// Rewrite the record heap in slot order to eliminate fragmentation,
    /// through one page-sized scratch buffer on the stack. Slot indexes are
    /// unchanged.
    pub fn compact(&mut self) {
        let mut old = [0u8; PAGE_SIZE];
        old.copy_from_slice(&self.buf);
        let plen = self.prefix_len();
        let mut top = self.heap_base();
        for i in 0..self.slot_count() {
            let rec = Rec::read(&old, self.slot(i), plen);
            let len = rec.end() - rec.off;
            top -= len;
            self.buf[top..top + len].copy_from_slice(&old[rec.off..rec.end()]);
            self.set_slot(i, top);
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
    // entry as a record without its first P key bytes —
    // `[klen][len][key[P..]][payload]`, klen still the whole key's length —
    // where P is the length of the key prefix the page stores once: the
    // longest common prefix of its first and last keys, which every key
    // between them shares (Bayer & Unterauer's prefix B-tree, with the
    // prefix taken from the keys the node holds). A keyed insert or remove
    // that changes the first or last key re-derives the prefix and, when it
    // changed, re-encodes every entry; REDO of the same operation on the
    // same bytes re-derives the same prefix.
    //
    // Page operations that locate entries by key are logical-within-page:
    // they survive concurrent slot movement, which slot-number addressing
    // would not (this is what "page-oriented UNDO" requires in practice).

    /// Split a keyed entry into key and payload; an entry whose key length
    /// runs past its bytes is corrupt.
    fn split_entry(bytes: &[u8]) -> StoreResult<(&[u8], &[u8])> {
        if let [a, b, body @ ..] = bytes {
            let klen = u16::from_le_bytes([*a, *b]) as usize;
            if klen <= body.len() {
                return Ok(body.split_at(klen));
            }
        }
        Err(StoreError::Corrupt(format!(
            "keyed entry framing {:02x?}",
            &bytes[..bytes.len().min(2)]
        )))
    }

    /// Split an entry stored under a `plen`-byte key prefix into its key
    /// suffix and payload; lengths that are not shortest varints, a key
    /// shorter than the prefix, or lengths that do not add up to the record,
    /// are corrupt.
    fn split_stored(rec: &[u8], plen: usize) -> StoreResult<(&[u8], &[u8])> {
        if let Some((klen, len, head)) = read_head(rec) {
            let body = &rec[head..];
            if let Some(slen) = klen.checked_sub(plen).filter(|s| s + len == body.len()) {
                return Ok(body.split_at(slen));
            }
        }
        Err(StoreError::Corrupt(format!(
            "stored entry framing {:02x?} under a {plen}-byte key prefix",
            &rec[..rec.len().min(4)]
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

    /// Borrow the record bytes at `slot`, lengths included, without the
    /// bounds-checked `Result` of [`Page::get`]. `slot` must be
    /// `< slot_count()`.
    #[inline]
    fn record_at(&self, slot: u16) -> &[u8] {
        let rec = self.rec(slot);
        &self.buf[rec.off..rec.end()]
    }

    /// The stored key suffix of the record at `slot` (empty for a raw
    /// record), read in place from a page [`Page::validate`] vouched for,
    /// without a `Result` on the read hot path.
    #[inline]
    fn suffix_at(&self, slot: u16) -> &[u8] {
        let rec = self.rec(slot);
        &self.buf[rec.body..rec.body + rec.slen]
    }

    /// The payload of the record at `slot` (all of a raw record), read in
    /// place like [`Page::suffix_at`].
    #[inline]
    fn payload_at(&self, slot: u16) -> &[u8] {
        let rec = self.rec(slot);
        let at = rec.body + rec.slen;
        &self.buf[at..at + rec.len]
    }

    /// View the key of the keyed entry at `slot`, straight out of the
    /// frame. `slot` must be in `1..slot_count()`.
    #[inline]
    pub fn entry_key_at(&self, slot: u16) -> KeyRef<'_> {
        debug_assert!(slot >= 1);
        KeyRef {
            prefix: self.key_prefix(),
            suffix: self.suffix_at(slot),
        }
    }

    /// Borrow the payload of the keyed entry at `slot`, straight out of the
    /// frame. `slot` must be in `1..slot_count()`.
    #[inline]
    pub fn entry_payload_at(&self, slot: u16) -> &[u8] {
        debug_assert!(slot >= 1);
        self.payload_at(slot)
    }

    /// A copy of the keyed entry at `slot` as [`Page::make_entry`] builds
    /// it: what log records, undo information and moved entries carry.
    /// `slot` must be in `1..slot_count()`.
    pub fn entry_at(&self, slot: u16) -> Vec<u8> {
        let (key, payload) = (self.entry_key_at(slot), self.payload_at(slot));
        let mut v = Vec::with_capacity(2 + key.len() + payload.len());
        v.extend_from_slice(&(key.len() as u16).to_le_bytes());
        v.extend_from_slice(key.prefix);
        v.extend_from_slice(key.suffix);
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
            match cmp_split(self.suffix_at(mid), head, tail) {
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
        let record = SLOT_SIZE + record_len(klen, klen.saturating_sub(new_plen), payload_len);
        (n - 1) * (plen - np) + record as isize
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
        if np == plen && key.starts_with(self.key_prefix()) {
            let head = Head::new(key.len(), payload.len());
            self.insert_record(slot, &[head.as_slice(), &key[plen..], payload])?;
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
        let head = Head::new(key.len(), payload.len());
        self.update_record(slot, &[head.as_slice(), &key[self.prefix_len()..], payload])?;
        Ok(old)
    }

    /// Rebuild the page with a `new_plen`-byte key prefix: the header
    /// record, then every keyed entry in order — less the one at `skip`,
    /// plus `add`'s `(slot, key, payload)` at its slot — each stored without
    /// the new prefix, laid out in slot order in one page-sized scratch
    /// buffer on the stack. The caller has checked that the result fits; on
    /// an error the page is unchanged.
    fn reencode(
        &mut self,
        new_plen: usize,
        add: Option<(u16, &[u8], &[u8])>,
        skip: Option<u16>,
    ) -> StoreResult<()> {
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
        let mut out = [0u8; PAGE_SIZE];
        let (heap, prefix) = out.split_at_mut(PAGE_SIZE - new_plen);
        let (p0, p1) = some_key.split_at(new_plen).0.parts();
        put_parts(prefix, 0, &[p0, p1]);
        let prefix: &[u8] = prefix;
        let mut layout = Layout {
            top: heap.len(),
            buf: heap,
            slots: 0,
        };
        layout.push(&[self.record_at(0)])?;
        let mut push = |key: KeyRef<'_>, payload: &[u8]| {
            if !key.starts_with(prefix) {
                return Err(outside());
            }
            let (a, b) = key.split_at(new_plen).1.parts();
            let head = Head::new(key.len(), payload.len());
            layout.push(&[head.as_slice(), a, b, payload])
        };
        for slot in 1..=self.slot_count() {
            if let Some((_, key, payload)) = add.filter(|a| a.0 == slot) {
                push(KeyRef::new(key), payload)?;
            }
            if slot < self.slot_count() && skip != Some(slot) {
                push(self.entry_key_at(slot), self.entry_payload_at(slot))?;
            }
        }
        let (slots, top) = (layout.slots, layout.top);
        out[..OFF_SLOT_COUNT].copy_from_slice(&self.buf[..OFF_SLOT_COUNT]);
        put_u16(&mut out, OFF_SLOT_COUNT, slots as u16);
        put_u16(&mut out, OFF_HEAP_TOP, top as u16);
        put_u16(&mut out, OFF_PREFIX, new_plen as u16);
        self.buf.copy_from_slice(&out);
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
        put_u16(&mut self.buf, off, v);
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
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    std::thread_local! {
        static COUNTING: Cell<bool> = const { Cell::new(false) };
        static ALLOCS: Cell<u64> = const { Cell::new(0) };
    }

    /// Counts the allocations of the thread that turned counting on, so the
    /// other tests running beside it cannot perturb the count.
    struct CountingAlloc;

    impl CountingAlloc {
        fn tally() {
            // `try_with`: the allocator runs during TLS teardown too.
            let _ = COUNTING.try_with(|c| {
                if c.get() {
                    let _ = ALLOCS.try_with(|a| a.set(a.get() + 1));
                }
            });
        }
    }

    // SAFETY: every method hands its arguments to `System` unchanged; the
    // tally touches only thread-local cells and allocates nothing.
    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            Self::tally();
            System.alloc(layout)
        }
        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            Self::tally();
            System.alloc_zeroed(layout)
        }
        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            Self::tally();
            System.realloc(ptr, layout, new_size)
        }
        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }
    }

    #[global_allocator]
    static ALLOC: CountingAlloc = CountingAlloc;

    /// Run `f` with this thread's allocation counter on; the count.
    fn count_allocs(f: impl FnOnce()) -> u64 {
        ALLOCS.with(|a| a.set(0));
        COUNTING.with(|c| c.set(true));
        f();
        COUNTING.with(|c| c.set(false));
        ALLOCS.with(|a| a.get())
    }

    /// A compaction and a re-encoding each rebuild the page through one
    /// page-sized scratch buffer on the stack: repeated, they allocate
    /// nothing, so a keyed insert that shortens the prefix allocates
    /// nothing and a keyed remove that lengthens it only the entry it
    /// returns.
    #[test]
    fn compaction_and_reencoding_allocate_nothing() {
        let mut p = Page::new(PageType::Node);
        p.insert(0, b"node-header").unwrap();
        for k in 0..120u32 {
            let key = [&b"stem-"[..], &k.to_be_bytes()].concat();
            p.keyed_insert(&Page::make_entry(&key, b"value")).unwrap();
        }
        for slot in [90, 60, 30] {
            p.remove(slot).unwrap();
        }
        let stem = p.key_prefix().to_vec();
        assert_eq!(stem, b"stem-\0\0\0");
        let low = Page::make_entry(b"a", b"v");
        const ROUNDS: u64 = 50;
        let allocs = count_allocs(|| {
            for _ in 0..ROUNDS {
                p.compact();
                assert_eq!(p.free_space(), p.contiguous_free_space());
                p.keyed_insert(&low).unwrap();
                assert!(p.key_prefix().is_empty());
                drop(p.keyed_remove(b"a").unwrap());
                assert_eq!(p.key_prefix(), &stem[..]);
            }
        });
        assert_eq!(allocs, ROUNDS, "one returned entry per round");
        p.validate().unwrap();
    }

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
        // 4096 - 18 = 4078 usable; each record costs 104 bytes: its slot,
        // its two lengths and its bytes.
        assert_eq!(n as usize, 4078 / 104);
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
            (0..p.slot_count())
                .map(|i| SLOT_SIZE + p.record_at(i).len())
                .sum()
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
            // The stored record is the entry less the page's key prefix,
            // behind its key and payload lengths.
            assert_eq!(p.get(slot).unwrap(), [&[3, 2][..], &e[3..]].concat());
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
