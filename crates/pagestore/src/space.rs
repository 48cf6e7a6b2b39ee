//! Space management: page allocation state kept in ordinary bitmap pages.
//!
//! Layout of a store, with B = [`Page::BITS_PER_SPACEMAP_PAGE`] (32,640)
//! pages per *extent*:
//!
//! ```text
//! page 0          meta page (space-map geometry in slot 0; trees append
//!                 their own meta records in later slots)
//! page 1          bitmap of extent 0 (pages 0..B); bits 0 and 1 set
//! page k·B        bitmap of extent k ≥ 1 (pages k·B..(k+1)·B); bit 0 —
//!                 the bitmap page itself — set
//! everything else allocatable
//! ```
//!
//! [`SpaceMap::init`] writes only pages 0 and 1, so a store under B pages
//! is the meta page, one bitmap and its data. Extent k's bitmap is
//! formatted by the allocation that first needs it, inside that
//! allocation's atomic action ([`FreePage::format_bitmap`]); the store pays
//! for a bitmap page only once it holds pages the bitmap describes.
//!
//! Because allocation state lives in normal pages, *allocation and
//! de-allocation are logged with the same physiological page operations as
//! everything else* ([`crate::pageops::PageOp::SetBit`] / `ClearBit`), and
//! recovery replays them with no special cases. This is what lets a node
//! split's page allocation be part of the split's atomic action, as §5.3
//! ("the space management information is X latched and a new node is
//! allocated") requires.
//!
//! The allocation latch is ordered *after* every tree-node latch, matching
//! §4.1.1: "Space management information can be ordered last."

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

use crate::buffer::{BufferPool, PinnedPage};
use crate::error::{StoreError, StoreResult};
use crate::ids::PageId;
use crate::latch::{Latch, XGuard};
use crate::page::{Page, PageType};

const META_MAGIC: u32 = 0x5049_5334; // "PIS4": strided, self-formatting bitmaps; 18-byte page header; 2-byte slots

/// Pages per extent: one bitmap page describes this many page ids.
const EXTENT: u64 = Page::BITS_PER_SPACEMAP_PAGE as u64;

/// Geometry + allocation hint for a store's space map.
pub struct SpaceMap {
    /// Hard cap on allocatable page ids.
    max_pages: u64,
    /// Serializes allocation decisions; protects the scan hint.
    latch: Latch<u64>,
}

impl std::fmt::Debug for SpaceMap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpaceMap")
            .field("max_pages", &self.max_pages)
            .finish_non_exhaustive()
    }
}

/// Decoded meta record (slot 0 of page 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetaRecord {
    /// Hard cap on allocatable page ids.
    pub max_pages: u64,
}

impl MetaRecord {
    const LEN: usize = 12;

    /// Encode for storage in the meta page.
    pub fn encode(&self) -> Vec<u8> {
        let mut v = Vec::with_capacity(Self::LEN);
        v.extend_from_slice(&META_MAGIC.to_le_bytes());
        v.extend_from_slice(&self.max_pages.to_le_bytes());
        v
    }

    /// Decode from the meta page record.
    pub fn decode(bytes: &[u8]) -> StoreResult<MetaRecord> {
        let wrong_len = || StoreError::Corrupt("meta record wrong length".into());
        let (magic, max_pages) = bytes.split_first_chunk::<4>().ok_or_else(wrong_len)?;
        let max_pages: [u8; 8] = max_pages.try_into().map_err(|_| wrong_len())?;
        let magic = u32::from_le_bytes(*magic);
        if magic != META_MAGIC {
            return Err(StoreError::Corrupt(format!("bad meta magic {magic:#x}")));
        }
        let max_pages = u64::from_le_bytes(max_pages);
        if max_pages < 2 {
            return Err(StoreError::Corrupt(format!(
                "meta record caps the store at {max_pages} pages"
            )));
        }
        Ok(MetaRecord { max_pages })
    }
}

/// The bitmap page of extent `k`.
fn bitmap_of(k: u64) -> PageId {
    PageId(if k == 0 { 1 } else { k * EXTENT })
}

/// The first bit of extent `k` that can name an allocatable page: extent 0
/// holds the meta page and its bitmap, every later extent its bitmap.
fn first_data_bit(k: u64) -> u64 {
    if k == 0 {
        2
    } else {
        1
    }
}

/// Pin the bitmap page `pid` if it has been formatted; `None` for an extent
/// no allocation has reached yet (never written, or — the pool's fresh frame
/// for a page the caller then did not format — still `Free`). Any other page
/// type in a bitmap slot is corruption, not a wholly free extent.
fn formatted_bitmap(pool: &BufferPool, pid: PageId) -> StoreResult<Option<PinnedPage<'_>>> {
    let bm = match pool.fetch(pid) {
        Ok(bm) => bm,
        Err(StoreError::PageNotFound(_)) => return Ok(None),
        Err(e) => return Err(e),
    };
    let ty = bm.s().page_type()?;
    match ty {
        PageType::SpaceMap => Ok(Some(bm)),
        PageType::Free => Ok(None),
        _ => Err(StoreError::Corrupt(format!(
            "extent bitmap slot {pid} holds a {ty:?} page"
        ))),
    }
}

/// A free page [`AllocGuard::find_free`] chose.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FreePage {
    /// The page to allocate.
    pub pid: PageId,
    /// The bitmap page holding its allocation bit.
    pub bitmap: PageId,
    /// Its bit in that bitmap page.
    pub bit: u32,
    /// The bitmap page has never been formatted: this is the first
    /// allocation in its extent, which formats it (bit 0 set — the bitmap
    /// describes itself) before setting `bit`.
    pub format_bitmap: bool,
}

impl SpaceMap {
    /// Initialize a brand-new store able to hold `max_pages` pages: format
    /// the meta page and extent 0's bitmap with the reserved pages (meta +
    /// bitmap) marked allocated. Runs before logging starts (the moral
    /// equivalent of `mkfs`), so writes bypass the WAL deliberately.
    pub fn init(pool: &BufferPool, max_pages: u64) -> StoreResult<SpaceMap> {
        let max_pages = max_pages.max(2);
        {
            let meta = pool.fetch_or_create(PageId(0), PageType::Meta)?;
            let mut g = meta.x();
            let page = g.get_mut();
            page.format(PageType::Meta);
            page.insert(0, &MetaRecord { max_pages }.encode())?;
            meta.mark_dirty();
        }
        {
            let bm = pool.fetch_or_create(bitmap_of(0), PageType::SpaceMap)?;
            let mut g = bm.x();
            let page = g.get_mut();
            page.format(PageType::SpaceMap);
            for b in 0..first_data_bit(0) {
                page.sm_set_bit(b as usize, true);
            }
            bm.mark_dirty();
        }
        pool.flush_all()?;
        Ok(SpaceMap::with_capacity(max_pages))
    }

    /// Open the space map of an existing store by reading the meta page.
    pub fn open(pool: &BufferPool) -> StoreResult<SpaceMap> {
        let meta = pool.fetch(PageId(0))?;
        let g = meta.s();
        if g.page_type()? != PageType::Meta {
            return Err(StoreError::WrongPageType {
                page: PageId(0),
                expected: "meta",
            });
        }
        let rec = MetaRecord::decode(g.get(0)?)?;
        Ok(SpaceMap::with_capacity(rec.max_pages))
    }

    fn with_capacity(max_pages: u64) -> SpaceMap {
        SpaceMap {
            max_pages,
            latch: Latch::new(first_data_bit(0)),
        }
    }

    /// Total page ids the map allows (the creation-time cap).
    pub fn capacity(&self) -> u64 {
        self.max_pages
    }

    /// Number of extents the capacity spans (existing or not).
    fn extents(&self) -> u64 {
        self.max_pages.div_ceil(EXTENT)
    }

    /// Which bitmap page and bit describe page `pid`.
    pub fn locate(&self, pid: PageId) -> (PageId, u32) {
        (bitmap_of(pid.0 / EXTENT), (pid.0 % EXTENT) as u32)
    }

    /// Take the allocation latch. The returned guard serializes all
    /// allocation decisions; callers keep it until they have *logged* the
    /// corresponding `SetBit`/`ClearBit` so no other allocator can race them.
    pub fn lock_alloc(&self) -> AllocGuard<'_> {
        AllocGuard {
            map: self,
            hint: self.latch.x(),
        }
    }

    /// Whether `pid` is currently marked allocated (diagnostics and the
    /// well-formedness checker; takes only an S latch on the bitmap page).
    pub fn is_allocated(&self, pool: &BufferPool, pid: PageId) -> StoreResult<bool> {
        if pid.0 >= self.max_pages {
            return Ok(false);
        }
        let (bm_pid, bit) = self.locate(pid);
        Ok(formatted_bitmap(pool, bm_pid)?.is_some_and(|bm| bm.s().sm_get_bit(bit as usize)))
    }

    /// Visit every formatted bitmap page with its extent number. Extents
    /// come into existence in ascending order — [`AllocGuard::find_free`]
    /// scans upward and formats the first missing extent it reaches — so
    /// the formatted bitmaps are a prefix and the walk stops at the first
    /// missing one.
    fn each_bitmap(&self, pool: &BufferPool, mut visit: impl FnMut(u64, &Page)) -> StoreResult<()> {
        for k in 0..self.extents() {
            let Some(bm) = formatted_bitmap(pool, bitmap_of(k))? else {
                break;
            };
            visit(k, &bm.s());
        }
        Ok(())
    }

    /// Count allocated pages (utilization experiments).
    pub fn allocated_count(&self, pool: &BufferPool) -> StoreResult<u64> {
        let mut count = 0;
        self.each_bitmap(pool, |_, bm| count += bm.sm_count_set())?;
        Ok(count)
    }

    /// The map's own invariant, for the well-formedness checkers: every
    /// formatted bitmap marks the pages it reserves — extent 0's the meta
    /// page and itself, extent k's itself — allocated.
    pub fn violations(&self, pool: &BufferPool) -> StoreResult<Vec<String>> {
        let mut v = Vec::new();
        self.each_bitmap(pool, |k, bm| {
            if (0..first_data_bit(k)).any(|b| !bm.sm_get_bit(b as usize)) {
                v.push(format!(
                    "space map: bitmap page {} leaves a reserved page of extent {k} free",
                    bitmap_of(k)
                ));
            }
        })?;
        Ok(v)
    }
}

/// Holder of the allocation latch.
pub struct AllocGuard<'a> {
    map: &'a SpaceMap,
    hint: XGuard<'a, u64>,
}

impl std::fmt::Debug for AllocGuard<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AllocGuard").finish_non_exhaustive()
    }
}

impl AllocGuard<'_> {
    /// Find a free page, scanning upward from the hint and wrapping once.
    /// Each extent costs one bitmap fetch, scanned in place; an extent whose
    /// bitmap does not exist yet is wholly free. The bit is **not** set here
    /// — the caller logs and applies the `SetBit` (and, for a fresh extent,
    /// the bitmap's format) through its atomic action while still holding
    /// this guard, so that the allocation is recoverable.
    pub fn find_free(&mut self, pool: &BufferPool) -> StoreResult<FreePage> {
        let map = self.map;
        let (cap, extents) = (map.max_pages, map.extents());
        let start = if *self.hint < cap { *self.hint } else { 0 };
        let (mut k, mut from) = (start / EXTENT, start % EXTENT);
        // The start extent is visited twice: from the hint, then from 0.
        for _ in 0..=extents {
            let bitmap = bitmap_of(k);
            let from_bit = from.max(first_data_bit(k));
            let found = match formatted_bitmap(pool, bitmap)? {
                Some(bm) => {
                    let g = bm.s();
                    g.sm_find_clear(from_bit as usize)
                        .map(|bit| (bit as u64, false))
                }
                None => Some((from_bit, true)),
            };
            if let Some((bit, format_bitmap)) = found {
                let pid = k * EXTENT + bit;
                if pid < cap {
                    *self.hint.get_mut() = pid + 1;
                    return Ok(FreePage {
                        pid: PageId(pid),
                        bitmap,
                        bit: bit as u32,
                        format_bitmap,
                    });
                }
            }
            k = (k + 1) % extents;
            from = 0;
        }
        Err(StoreError::OutOfSpace)
    }

    /// Record a freed page id as the next allocation hint so freed space is
    /// found quickly.
    pub fn note_freed(&mut self, pid: PageId) {
        if pid.0 < *self.hint {
            *self.hint.get_mut() = pid.0;
        }
    }
}

#[cfg(test)]
#[expect(clippy::disallowed_macros, reason = "test assertions")]
mod tests {
    use super::*;
    use crate::disk::MemDisk;
    use std::sync::Arc;

    const B: u64 = EXTENT;

    fn fresh_pool() -> BufferPool {
        BufferPool::new(Arc::new(MemDisk::new()), 64)
    }

    /// What `alloc_page` does through its atomic action, unlogged.
    fn take(pool: &BufferPool, free: FreePage) {
        let bm = pool.fetch_or_create(free.bitmap, PageType::Free).unwrap();
        let mut g = bm.x();
        let page = g.get_mut();
        if free.format_bitmap {
            page.format(PageType::SpaceMap);
            page.sm_set_bit(0, true);
        }
        page.sm_set_bit(free.bit as usize, true);
        bm.mark_dirty();
    }

    /// Set every bit of extent `k`'s existing bitmap.
    fn fill_extent(pool: &BufferPool, k: u64) {
        let bm = pool.fetch(bitmap_of(k)).unwrap();
        let mut g = bm.x();
        for b in 0..B as usize {
            g.get_mut().sm_set_bit(b, true);
        }
        bm.mark_dirty();
    }

    #[test]
    fn init_reserves_meta_and_bitmaps() {
        let pool = fresh_pool();
        let sm = SpaceMap::init(&pool, 10_000).unwrap();
        assert_eq!(sm.capacity(), 10_000);
        assert!(sm.is_allocated(&pool, PageId(0)).unwrap());
        assert!(sm.is_allocated(&pool, PageId(1)).unwrap());
        assert!(!sm.is_allocated(&pool, PageId(2)).unwrap());
        assert_eq!(sm.allocated_count(&pool).unwrap(), 2);
    }

    #[test]
    fn find_free_skips_reserved_and_allocated() {
        let pool = fresh_pool();
        let sm = SpaceMap::init(&pool, 10_000).unwrap();
        let mut alloc = sm.lock_alloc();
        let free = alloc.find_free(&pool).unwrap();
        assert_eq!(
            free,
            FreePage {
                pid: PageId(2),
                bitmap: PageId(1),
                bit: 2,
                format_bitmap: false,
            }
        );
        take(&pool, free);
        assert_eq!(alloc.find_free(&pool).unwrap().pid, PageId(3));
    }

    #[test]
    fn multi_bitmap_page_geometry() {
        let pool = fresh_pool();
        let sm = SpaceMap::init(&pool, B * 2 + 5).unwrap();
        assert_eq!(sm.extents(), 3);
        assert_eq!(sm.locate(PageId(0)), (PageId(1), 0));
        assert_eq!(sm.locate(PageId(B - 1)), (PageId(1), B as u32 - 1));
        assert_eq!(sm.locate(PageId(B)), (PageId(B), 0));
        assert_eq!(sm.locate(PageId(B + 7)), (PageId(B), 7));
        assert_eq!(sm.locate(PageId(2 * B + 4)), (PageId(2 * B), 4));
    }

    /// `init` writes the meta page and extent 0's bitmap with exactly bits
    /// 0 and 1 set, and nothing else: later extents' bitmaps do not exist.
    #[test]
    fn init_sets_exactly_the_reserved_bits() {
        use crate::disk::DiskManager;
        let disk = Arc::new(MemDisk::new());
        let pool = BufferPool::new(Arc::clone(&disk) as Arc<dyn DiskManager>, 64);
        SpaceMap::init(&pool, B * 3 + 5).unwrap();
        let bm = pool.fetch(PageId(1)).unwrap();
        let g = bm.s();
        for b in 0..B as usize {
            assert_eq!(g.sm_get_bit(b), b <= 1, "bit {b}");
        }
        for k in 1..=3 {
            assert!(matches!(
                disk.read_page(bitmap_of(k)),
                Err(StoreError::PageNotFound(_))
            ));
        }
    }

    #[test]
    fn open_roundtrips_geometry() {
        let disk = Arc::new(MemDisk::new());
        {
            let pool = BufferPool::new(Arc::clone(&disk) as Arc<dyn crate::disk::DiskManager>, 64);
            SpaceMap::init(&pool, 50_000).unwrap();
            pool.flush_all().unwrap();
        }
        let pool = BufferPool::new(disk, 64);
        let sm = SpaceMap::open(&pool).unwrap();
        assert_eq!(sm.capacity(), 50_000);
        assert_eq!(sm.extents(), 2);
    }

    #[test]
    fn note_freed_rewinds_hint() {
        let pool = fresh_pool();
        let sm = SpaceMap::init(&pool, 1000).unwrap();
        let mut alloc = sm.lock_alloc();
        let free = alloc.find_free(&pool).unwrap();
        take(&pool, free);
        // Free it again and rewind the hint.
        {
            let bm = pool.fetch(free.bitmap).unwrap();
            let mut g = bm.x();
            g.get_mut().sm_set_bit(free.bit as usize, false);
        }
        alloc.note_freed(free.pid);
        assert_eq!(alloc.find_free(&pool).unwrap().pid, free.pid);
    }

    /// A full extent costs one bitmap scan: the next allocation lands in
    /// the next extent — formatting it — and never on a bitmap page.
    #[test]
    fn a_full_extent_hands_over_to_a_fresh_one() {
        let pool = fresh_pool();
        let sm = SpaceMap::init(&pool, 3 * B).unwrap();
        fill_extent(&pool, 0);
        let mut alloc = sm.lock_alloc();
        let free = alloc.find_free(&pool).unwrap();
        assert_eq!(
            free,
            FreePage {
                pid: PageId(B + 1),
                bitmap: PageId(B),
                bit: 1,
                format_bitmap: true,
            }
        );
        assert_eq!(
            sm.allocated_count(&pool).unwrap(),
            B,
            "extent 1 is not formatted yet"
        );
        take(&pool, free);
        assert!(sm.is_allocated(&pool, PageId(B)).unwrap());
        assert_eq!(sm.allocated_count(&pool).unwrap(), B + 2);
        let next = alloc.find_free(&pool).unwrap();
        assert_eq!((next.pid, next.format_bitmap), (PageId(B + 2), false));
        // Past the last extent the scan wraps to a page freed below.
        fill_extent(&pool, 1);
        {
            let bm = pool.fetch(PageId(1)).unwrap();
            bm.x().get_mut().sm_set_bit(9, false);
        }
        let free = alloc.find_free(&pool).unwrap();
        assert_eq!((free.pid, free.format_bitmap), (PageId(2 * B + 1), true));
        take(&pool, free);
        fill_extent(&pool, 2);
        assert_eq!(alloc.find_free(&pool).unwrap().pid, PageId(9));
    }

    /// Allocating every page of a two-and-a-bit-extent store returns each
    /// data page once and never 0, 1 or a bitmap page k·B, then runs out.
    #[test]
    fn find_free_never_returns_a_reserved_page() {
        let pool = fresh_pool();
        let cap = 2 * B + 3;
        let sm = SpaceMap::init(&pool, cap).unwrap();
        let mut alloc = sm.lock_alloc();
        let mut got = 0u64;
        let mut prev = 1;
        loop {
            match alloc.find_free(&pool) {
                Ok(free) => {
                    let pid = free.pid.0;
                    assert!(pid > prev, "{pid} after {prev}: ascending, each once");
                    assert!(
                        pid > 1 && pid % B != 0 && pid < cap,
                        "reserved or out of range: {pid}"
                    );
                    assert_eq!(free.bitmap, sm.locate(free.pid).0);
                    take(&pool, free);
                    (got, prev) = (got + 1, pid);
                }
                Err(StoreError::OutOfSpace) => break,
                Err(e) => panic!("{e}"),
            }
        }
        // Every id below the cap but the meta page and the three bitmaps.
        assert_eq!(got, cap - 4);
        assert_eq!(sm.allocated_count(&pool).unwrap(), cap);
    }

    /// A page of another type in extent 1's bitmap slot is corruption: the
    /// scan that reaches it returns a typed error instead of reading the
    /// extent as wholly free and handing out its pages.
    #[test]
    fn a_foreign_page_in_a_bitmap_slot_is_corrupt() {
        let pool = fresh_pool();
        let sm = SpaceMap::init(&pool, 3 * B).unwrap();
        let node = pool.fetch_or_create(PageId(B), PageType::Node).unwrap();
        node.x().get_mut().format(PageType::Node);
        drop(node);
        fill_extent(&pool, 0);
        let mut alloc = sm.lock_alloc();
        assert!(
            matches!(alloc.find_free(&pool), Err(StoreError::Corrupt(_))),
            "a Node page at k·B must not read as an unformatted bitmap"
        );
        assert!(matches!(
            sm.is_allocated(&pool, PageId(B + 1)),
            Err(StoreError::Corrupt(_))
        ));
        // An unformatted (Free) frame in the slot is still a fresh extent.
        pool.fetch(PageId(B))
            .unwrap()
            .x()
            .get_mut()
            .format(PageType::Free);
        let free = alloc.find_free(&pool).unwrap();
        assert_eq!((free.pid, free.format_bitmap), (PageId(B + 1), true));
    }

    #[test]
    fn violations_name_a_bitmap_that_frees_a_reserved_page() {
        let pool = fresh_pool();
        let sm = SpaceMap::init(&pool, 2 * B).unwrap();
        fill_extent(&pool, 0);
        let mut alloc = sm.lock_alloc();
        take(&pool, alloc.find_free(&pool).unwrap());
        assert!(sm.violations(&pool).unwrap().is_empty());
        pool.fetch(PageId(B))
            .unwrap()
            .x()
            .get_mut()
            .sm_set_bit(0, false);
        assert_eq!(
            sm.violations(&pool).unwrap(),
            vec![format!(
                "space map: bitmap page {} leaves a reserved page of extent 1 free",
                PageId(B)
            )]
        );
    }

    #[test]
    fn meta_record_codec_rejects_garbage() {
        assert!(MetaRecord::decode(b"short").is_err());
        assert!(MetaRecord::decode(&[0u8; 12]).is_err());
        assert!(MetaRecord::decode(&MetaRecord { max_pages: 1 }.encode()).is_err());
        let rec = MetaRecord { max_pages: 500 };
        assert_eq!(MetaRecord::decode(&rec.encode()).unwrap(), rec);
        // The record before extents were strided: "PIST", bitmap_pages,
        // max_pages. Old images need not open.
        let mut old = 0x5049_5354u32.to_le_bytes().to_vec();
        old.extend_from_slice(&129u32.to_le_bytes());
        old.extend_from_slice(&(1u64 << 22).to_le_bytes());
        assert!(MetaRecord::decode(&old).is_err());
        let mut reframed = 0x5049_5354u32.to_le_bytes().to_vec();
        reframed.extend_from_slice(&500u64.to_le_bytes());
        assert!(MetaRecord::decode(&reframed).is_err(), "old magic");
    }
}
