//! Space management: page allocation state kept in ordinary bitmap pages.
//!
//! Layout of a store:
//!
//! ```text
//! page 0          meta page (space-map geometry in slot 0; trees append
//!                 their own meta records in later slots)
//! pages 1..=k     space-map bitmap pages; global bit `b` describes page `b`
//! pages k+1..     allocatable
//! ```
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

use crate::buffer::BufferPool;
use crate::error::{StoreError, StoreResult};
use crate::ids::PageId;
use crate::latch::{Latch, XGuard};
use crate::page::{Page, PageType};

const META_MAGIC: u32 = 0x5049_5354; // "PIST"

/// Geometry + allocation hint for a store's space map.
pub struct SpaceMap {
    /// Number of bitmap pages (they are pages `1..=bitmap_pages`).
    bitmap_pages: u32,
    /// Hard cap on allocatable page ids.
    max_pages: u64,
    /// Serializes allocation decisions; protects the scan hint.
    latch: Latch<u64>,
}

impl std::fmt::Debug for SpaceMap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpaceMap")
            .field("bitmap_pages", &self.bitmap_pages)
            .field("max_pages", &self.max_pages)
            .finish_non_exhaustive()
    }
}

/// Decoded meta record (slot 0 of page 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetaRecord {
    /// Number of bitmap pages.
    pub bitmap_pages: u32,
    /// Hard cap on allocatable page ids.
    pub max_pages: u64,
}

impl MetaRecord {
    /// Encode for storage in the meta page.
    pub fn encode(&self) -> Vec<u8> {
        let mut v = Vec::with_capacity(16);
        v.extend_from_slice(&META_MAGIC.to_le_bytes());
        v.extend_from_slice(&self.bitmap_pages.to_le_bytes());
        v.extend_from_slice(&self.max_pages.to_le_bytes());
        v
    }

    /// Decode from the meta page record.
    pub fn decode(bytes: &[u8]) -> StoreResult<MetaRecord> {
        if bytes.len() != 16 {
            return Err(StoreError::Corrupt("meta record wrong length".into()));
        }
        let magic = u32::from_le_bytes(bytes[0..4].try_into().unwrap());
        if magic != META_MAGIC {
            return Err(StoreError::Corrupt(format!("bad meta magic {magic:#x}")));
        }
        Ok(MetaRecord {
            bitmap_pages: u32::from_le_bytes(bytes[4..8].try_into().unwrap()),
            max_pages: u64::from_le_bytes(bytes[8..16].try_into().unwrap()),
        })
    }
}

impl SpaceMap {
    /// Initialize a brand-new store able to hold at least `max_pages` pages:
    /// format the meta page and bitmap pages and mark the reserved pages
    /// (meta + bitmaps) allocated. Runs before logging starts (the moral
    /// equivalent of `mkfs`), so writes bypass the WAL deliberately.
    pub fn init(pool: &BufferPool, max_pages: u64) -> StoreResult<SpaceMap> {
        let bits_per = Page::BITS_PER_SPACEMAP_PAGE as u64;
        let bitmap_pages = max_pages.div_ceil(bits_per).max(1) as u32;
        // Meta page.
        {
            let meta = pool.fetch_or_create(PageId(0), PageType::Meta)?;
            let mut g = meta.x();
            g.format(PageType::Meta);
            g.insert(
                0,
                &MetaRecord {
                    bitmap_pages,
                    max_pages,
                }
                .encode(),
            )?;
            // pitree-lint: allow(log-before-dirty) formatting a fresh store; the WAL does not exist yet
            meta.mark_dirty();
        }
        // Bitmap pages, with reserved bits set.
        for j in 1..=bitmap_pages as u64 {
            let bm = pool.fetch_or_create(PageId(j), PageType::SpaceMap)?;
            let mut g = bm.x();
            g.format(PageType::SpaceMap);
            let lo = (j - 1) * bits_per;
            // Reserve page ids 0..=bitmap_pages: this page's bits at or below
            // that id.
            let reserved = (bitmap_pages as u64 + 1).saturating_sub(lo).min(bits_per);
            for b in 0..reserved {
                g.sm_set_bit(b as usize, true);
            }
            // pitree-lint: allow(log-before-dirty) formatting a fresh store; the WAL does not exist yet
            bm.mark_dirty();
        }
        pool.flush_all()?;
        Ok(SpaceMap {
            bitmap_pages,
            max_pages,
            latch: Latch::new(bitmap_pages as u64 + 1),
        })
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
        Ok(SpaceMap {
            bitmap_pages: rec.bitmap_pages,
            max_pages: rec.max_pages,
            latch: Latch::new(rec.bitmap_pages as u64 + 1),
        })
    }

    /// Number of bitmap pages.
    pub fn bitmap_pages(&self) -> u32 {
        self.bitmap_pages
    }

    /// First allocatable page id (everything below is reserved).
    pub fn first_allocatable(&self) -> PageId {
        PageId(self.bitmap_pages as u64 + 1)
    }

    /// Total pages the map allows (the creation-time cap, bounded by the
    /// bitmap extent).
    pub fn capacity(&self) -> u64 {
        self.max_pages
            .max(self.bitmap_pages as u64 + 1)
            .min(self.bitmap_pages as u64 * Page::BITS_PER_SPACEMAP_PAGE as u64)
    }

    /// Which bitmap page and bit describe page `pid`.
    pub fn locate(&self, pid: PageId) -> (PageId, u32) {
        let bits_per = Page::BITS_PER_SPACEMAP_PAGE as u64;
        (PageId(1 + pid.0 / bits_per), (pid.0 % bits_per) as u32)
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
        let (bm_pid, bit) = self.locate(pid);
        if bm_pid.0 > self.bitmap_pages as u64 {
            return Ok(false);
        }
        let bm = pool.fetch(bm_pid)?;
        Ok(bm.s().sm_get_bit(bit as usize))
    }

    /// Count allocated pages (utilization experiments).
    pub fn allocated_count(&self, pool: &BufferPool) -> StoreResult<u64> {
        let mut count = 0;
        for j in 1..=self.bitmap_pages as u64 {
            let bm = pool.fetch(PageId(j))?;
            let g = bm.s();
            for b in 0..Page::BITS_PER_SPACEMAP_PAGE {
                if g.sm_get_bit(b) {
                    count += 1;
                }
            }
        }
        Ok(count)
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
    /// Find a free page. Returns `(new page id, bitmap page id, bit index in
    /// that bitmap page)`. The bit is **not** set here — the caller logs and
    /// applies the `SetBit` through its atomic action while still holding
    /// this guard, so that the allocation is recoverable.
    pub fn find_free(&mut self, pool: &BufferPool) -> StoreResult<(PageId, PageId, u32)> {
        let bits_per = Page::BITS_PER_SPACEMAP_PAGE as u64;
        let cap = self.map.capacity();
        let start = *self.hint;
        for probe in 0..cap {
            let candidate = {
                let c = start + probe;
                if c >= cap {
                    c - cap
                } else {
                    c
                }
            };
            if candidate <= self.map.bitmap_pages as u64 {
                continue; // reserved ids
            }
            let bm_pid = PageId(1 + candidate / bits_per);
            let bit = (candidate % bits_per) as u32;
            let bm = pool.fetch(bm_pid)?;
            let free = !bm.s().sm_get_bit(bit as usize);
            if free {
                *self.hint = candidate + 1;
                return Ok((PageId(candidate), bm_pid, bit));
            }
        }
        Err(StoreError::OutOfSpace)
    }

    /// Record a freed page id as the next allocation hint so freed space is
    /// found quickly.
    pub fn note_freed(&mut self, pid: PageId) {
        if pid.0 < *self.hint {
            *self.hint = pid.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::MemDisk;
    use std::sync::Arc;

    fn fresh_pool() -> BufferPool {
        BufferPool::new(Arc::new(MemDisk::new()), 64)
    }

    #[test]
    fn init_reserves_meta_and_bitmaps() {
        let pool = fresh_pool();
        let sm = SpaceMap::init(&pool, 10_000).unwrap();
        assert_eq!(sm.bitmap_pages(), 1);
        assert!(sm.is_allocated(&pool, PageId(0)).unwrap());
        assert!(sm.is_allocated(&pool, PageId(1)).unwrap());
        assert!(!sm.is_allocated(&pool, PageId(2)).unwrap());
        assert_eq!(sm.first_allocatable(), PageId(2));
    }

    #[test]
    fn find_free_skips_reserved_and_allocated() {
        let pool = fresh_pool();
        let sm = SpaceMap::init(&pool, 10_000).unwrap();
        let mut alloc = sm.lock_alloc();
        let (pid, bm_pid, bit) = alloc.find_free(&pool).unwrap();
        assert_eq!(pid, PageId(2));
        assert_eq!(bm_pid, PageId(1));
        assert_eq!(bit, 2);
        // Simulate the caller setting the bit.
        {
            let bm = pool.fetch(bm_pid).unwrap();
            let mut g = bm.x();
            g.sm_set_bit(bit as usize, true);
            bm.mark_dirty();
        }
        let (pid2, _, _) = alloc.find_free(&pool).unwrap();
        assert_eq!(pid2, PageId(3));
    }

    #[test]
    fn multi_bitmap_page_geometry() {
        let pool = fresh_pool();
        let per = Page::BITS_PER_SPACEMAP_PAGE as u64;
        let sm = SpaceMap::init(&pool, per * 2 + 5).unwrap();
        assert_eq!(sm.bitmap_pages(), 3);
        let (bm, bit) = sm.locate(PageId(per + 7));
        assert_eq!(bm, PageId(2));
        assert_eq!(bit, 7);
    }

    /// `init` sets exactly the bits the per-bit rule "page id ≤
    /// `bitmap_pages`" names, on every bitmap page, and nothing else — the
    /// image is the one the bit-by-bit loop used to write.
    #[test]
    fn init_sets_exactly_the_reserved_bits() {
        let pool = fresh_pool();
        let per = Page::BITS_PER_SPACEMAP_PAGE as u64;
        let sm = SpaceMap::init(&pool, per * 3 + 5).unwrap();
        assert_eq!(sm.bitmap_pages(), 4);
        for j in 1..=4u64 {
            let bm = pool.fetch(PageId(j)).unwrap();
            let g = bm.s();
            for b in 0..per {
                let reserved = (j - 1) * per + b <= 4;
                assert_eq!(g.sm_get_bit(b as usize), reserved, "page {j} bit {b}");
            }
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
        assert_eq!(sm.bitmap_pages(), 2);
    }

    #[test]
    fn note_freed_rewinds_hint() {
        let pool = fresh_pool();
        let sm = SpaceMap::init(&pool, 1000).unwrap();
        let mut alloc = sm.lock_alloc();
        let (pid, bm_pid, bit) = alloc.find_free(&pool).unwrap();
        {
            let bm = pool.fetch(bm_pid).unwrap();
            let mut g = bm.x();
            g.sm_set_bit(bit as usize, true);
        }
        // Free it again and rewind the hint.
        {
            let bm = pool.fetch(bm_pid).unwrap();
            let mut g = bm.x();
            g.sm_set_bit(bit as usize, false);
        }
        alloc.note_freed(pid);
        let (pid2, _, _) = alloc.find_free(&pool).unwrap();
        assert_eq!(pid2, pid);
    }

    #[test]
    fn meta_record_codec_rejects_garbage() {
        assert!(MetaRecord::decode(b"short").is_err());
        assert!(MetaRecord::decode(&[0u8; 16]).is_err());
        let rec = MetaRecord {
            bitmap_pages: 7,
            max_pages: 500,
        };
        assert_eq!(MetaRecord::decode(&rec.encode()).unwrap(), rec);
    }
}
