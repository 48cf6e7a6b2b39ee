//! B-link node layout over slotted pages.
//!
//! Slot 0 holds the **node header**: level, side pointer, and the bounds of
//! the directly-contained space (§2.1.1). Slots 1.. hold keyed entries:
//!
//! * leaf (level 0): `[klen][key][value]` — data records;
//! * index: `[klen][key][child pid u64][flags u8]` — index terms; the flags
//!   byte carries the multi-parent marker of §3.3 (always clear in B-link
//!   trees, used by the multiattribute instantiations).
//!
//! A **sibling term** is the header's side pointer plus the `high` bound:
//! "a key space for which a sibling node is responsible and ... a side
//! pointer to the sibling" — the sibling is responsible for `[high, …)`.

use crate::bound::KeyBound;
use pitree_pagestore::latch::{SGuard, UGuard, XGuard};
use pitree_pagestore::page::Page;
use pitree_pagestore::{PageId, StoreError, StoreResult};

/// Owned node header (slot 0 of a node page): the encoder side of
/// [`HeaderRef`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeHeader {
    /// Level: 0 for data nodes, parents one higher than children (§2.1.2).
    pub level: u8,
    /// Side pointer to the sibling this node delegated space to, or
    /// `PageId::INVALID`.
    pub side: PageId,
    /// Inclusive low bound of the directly-contained space.
    pub low: KeyBound,
    /// Exclusive high bound; when a side pointer exists, the sibling is
    /// responsible for the space at and above this bound.
    pub high: KeyBound,
}

impl NodeHeader {
    /// Header of a fresh root: a data node directly containing everything.
    pub fn new_root_leaf() -> NodeHeader {
        NodeHeader {
            level: 0,
            side: PageId::INVALID,
            low: KeyBound::NegInf,
            high: KeyBound::PosInf,
        }
    }

    /// Whether `key` lies in the directly-contained space.
    pub fn contains(&self, key: &[u8]) -> bool {
        self.low.le_key(key) && self.high.gt_key(key)
    }

    /// Whether this is a data node.
    pub fn is_leaf(&self) -> bool {
        self.level == 0
    }

    /// Encode into slot-0 record bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut v = Vec::with_capacity(16);
        v.push(self.level);
        v.extend_from_slice(&self.side.0.to_le_bytes());
        self.low.encode(&mut v);
        self.high.encode(&mut v);
        v
    }

    /// Read the header of a node page.
    pub fn read(page: &Page) -> StoreResult<NodeHeader> {
        Ok(HeaderRef::read(page)?.to_header())
    }
}

/// One end of a node's interval, borrowed from the encoded slot-0 bytes.
/// The zero-copy twin of [`KeyBound`]: same tags, same comparison
/// semantics, no `Vec`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundRef<'a> {
    /// Below every key.
    NegInf,
    /// An actual key value, borrowed from the page frame.
    Key(&'a [u8]),
    /// Above every key.
    PosInf,
}

impl<'a> BoundRef<'a> {
    /// Parse from `bytes[*pos..]`, advancing `pos`. Rejects a bad tag, a
    /// truncated length and a truncated key.
    pub fn parse(bytes: &'a [u8], pos: &mut usize) -> StoreResult<BoundRef<'a>> {
        let tag = *bytes
            .get(*pos)
            .ok_or_else(|| StoreError::Corrupt("truncated bound".into()))?;
        *pos += 1;
        match tag {
            0 => Ok(BoundRef::NegInf),
            2 => Ok(BoundRef::PosInf),
            1 => {
                if *pos + 2 > bytes.len() {
                    return Err(StoreError::Corrupt("truncated bound length".into()));
                }
                let len = u16::from_le_bytes([bytes[*pos], bytes[*pos + 1]]) as usize;
                *pos += 2;
                if *pos + len > bytes.len() {
                    return Err(StoreError::Corrupt("truncated bound key".into()));
                }
                let k = &bytes[*pos..*pos + len];
                *pos += len;
                Ok(BoundRef::Key(k))
            }
            t => Err(StoreError::Corrupt(format!("bad bound tag {t}"))),
        }
    }

    /// Parse a node's `low` then `high` bound from `bytes[*pos..]`, as
    /// [`BoundRef::parse`] does. Also rejects a `+∞` low and a `−∞` high:
    /// no node is ever written with either, and the read path would panic
    /// on one ([`BoundRef::as_entry_key`]).
    pub fn parse_interval(
        bytes: &'a [u8],
        pos: &mut usize,
    ) -> StoreResult<(BoundRef<'a>, BoundRef<'a>)> {
        let low = BoundRef::parse(bytes, pos)?;
        let high = BoundRef::parse(bytes, pos)?;
        if low == BoundRef::PosInf || high == BoundRef::NegInf {
            return Err(StoreError::Corrupt(
                "node bound: +inf low or -inf high".into(),
            ));
        }
        Ok((low, high))
    }

    /// `self ≤ key` when used as a low bound.
    #[inline]
    pub fn le_key(&self, key: &[u8]) -> bool {
        match self {
            BoundRef::NegInf => true,
            BoundRef::Key(k) => *k <= key,
            BoundRef::PosInf => false,
        }
    }

    /// `key < self` when used as a high bound.
    #[inline]
    pub fn gt_key(&self, key: &[u8]) -> bool {
        match self {
            BoundRef::NegInf => false,
            BoundRef::Key(k) => key < *k,
            BoundRef::PosInf => true,
        }
    }

    /// `key ≤ self` when used as a high bound — the scan-termination test
    /// (`high > to || high == to`) without re-encoding `to` as a bound.
    #[inline]
    pub fn ge_key(&self, key: &[u8]) -> bool {
        match self {
            BoundRef::NegInf => false,
            BoundRef::Key(k) => key <= *k,
            BoundRef::PosInf => true,
        }
    }

    /// The byte key used when this bound appears as an index-term key
    /// (mirrors [`KeyBound::as_entry_key`]).
    #[inline]
    pub fn as_entry_key(&self) -> &'a [u8] {
        match self {
            BoundRef::NegInf => b"",
            BoundRef::Key(k) => k,
            BoundRef::PosInf => panic!("PosInf is never an index-term key"),
        }
    }

    /// Materialize the owned bound (write paths only).
    pub fn to_bound(self) -> KeyBound {
        match self {
            BoundRef::NegInf => KeyBound::NegInf,
            BoundRef::Key(k) => KeyBound::Key(k.to_vec()),
            BoundRef::PosInf => KeyBound::PosInf,
        }
    }
}

/// Borrowed, zero-copy view of a node header: the scalars are copied out of
/// the slot-0 bytes, the bounds stay as slices into the frame. Containment
/// and routing checks are in-place byte comparisons — no `Vec`, no
/// [`NodeHeader`] clone. Sound because the caller holds a latch guard on the
/// page for the lifetime `'a` (DESIGN.md §11).
///
/// This is the only decoder of slot-0 bytes; the owned [`NodeHeader`] is
/// the encoder the write and SMO paths build new headers with.
#[derive(Debug, Clone, Copy)]
pub struct HeaderRef<'a> {
    level: u8,
    side: PageId,
    low: BoundRef<'a>,
    high: BoundRef<'a>,
}

impl<'a> HeaderRef<'a> {
    /// Parse slot-0 record bytes. Rejects a short header, a bad bound tag, a
    /// truncated bound, a `+∞` low or `−∞` high bound and trailing bytes.
    pub fn parse(bytes: &'a [u8]) -> StoreResult<HeaderRef<'a>> {
        if bytes.len() < 9 {
            return Err(StoreError::Corrupt("node header too short".into()));
        }
        let level = bytes[0];
        let side = PageId(u64::from_le_bytes(bytes[1..9].try_into().unwrap()));
        let mut pos = 9;
        let (low, high) = BoundRef::parse_interval(bytes, &mut pos)?;
        if pos != bytes.len() {
            return Err(StoreError::Corrupt("trailing bytes in node header".into()));
        }
        Ok(HeaderRef {
            level,
            side,
            low,
            high,
        })
    }

    /// View the header of a node page.
    #[inline]
    pub fn read(page: &'a Page) -> StoreResult<HeaderRef<'a>> {
        HeaderRef::parse(page.get(0)?)
    }

    /// Level: 0 for data nodes.
    #[inline]
    pub fn level(&self) -> u8 {
        self.level
    }

    /// Side pointer, or `PageId::INVALID`.
    #[inline]
    pub fn side(&self) -> PageId {
        self.side
    }

    /// Whether this is a data node.
    #[inline]
    pub fn is_leaf(&self) -> bool {
        self.level == 0
    }

    /// Inclusive low bound of the directly-contained space.
    #[inline]
    pub fn low(&self) -> BoundRef<'a> {
        self.low
    }

    /// Exclusive high bound of the directly-contained space.
    #[inline]
    pub fn high(&self) -> BoundRef<'a> {
        self.high
    }

    /// Whether `key` lies in the directly-contained space.
    #[inline]
    pub fn contains(&self, key: &[u8]) -> bool {
        self.low.le_key(key) && self.high.gt_key(key)
    }

    /// `low ≤ key` in place.
    #[inline]
    pub fn low_le(&self, key: &[u8]) -> bool {
        self.low.le_key(key)
    }

    /// `key < high` in place.
    #[inline]
    pub fn high_gt(&self, key: &[u8]) -> bool {
        self.high.gt_key(key)
    }

    /// `key ≤ high` in place (scan termination).
    #[inline]
    pub fn high_ge(&self, key: &[u8]) -> bool {
        self.high.ge_key(key)
    }

    /// The low bound as an index-term key (`NegInf` → empty key).
    #[inline]
    pub fn low_entry_key(&self) -> &'a [u8] {
        self.low.as_entry_key()
    }

    /// Materialize the owned header (write paths / SMO scheduling only).
    pub fn to_header(&self) -> NodeHeader {
        NodeHeader {
            level: self.level,
            side: self.side,
            low: self.low.to_bound(),
            high: self.high.to_bound(),
        }
    }
}

/// A decoded index term (§2.1.2): child pointer plus the key from which the
/// child is responsible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexTerm {
    /// Low key of the child's described subspace.
    pub key: Vec<u8>,
    /// The child node.
    pub child: PageId,
    /// Multi-parent marker (§3.3): set when the term was clipped, meaning
    /// the child may be referenced by more than one parent and must not be
    /// consolidated.
    pub multi_parent: bool,
}

impl IndexTerm {
    /// Encode as a keyed entry.
    pub fn to_entry(&self) -> Vec<u8> {
        let mut payload = Vec::with_capacity(9);
        payload.extend_from_slice(&self.child.0.to_le_bytes());
        payload.push(self.multi_parent as u8);
        Page::make_entry(&self.key, &payload)
    }

    /// The keyed entry of a freshly posted (single-parent) term: `child` is
    /// responsible from `key` up.
    pub fn entry_for(key: &[u8], child: PageId) -> Vec<u8> {
        IndexTerm {
            key: key.to_vec(),
            child,
            multi_parent: false,
        }
        .to_entry()
    }

    fn from_parts(key: Vec<u8>, payload: &[u8]) -> StoreResult<IndexTerm> {
        if payload.len() != 9 {
            return Err(StoreError::Corrupt(format!(
                "index term payload has {} bytes, expected 9",
                payload.len()
            )));
        }
        Ok(IndexTerm {
            key,
            child: PageId(u64::from_le_bytes(payload[0..8].try_into().unwrap())),
            multi_parent: payload[8] != 0,
        })
    }

    /// Decode the index term at `slot` of an index node.
    pub fn read(page: &Page, slot: u16) -> StoreResult<IndexTerm> {
        page.get(slot)?;
        IndexTerm::from_parts(
            page.entry_key_at(slot).to_vec(),
            page.entry_payload_at(slot),
        )
    }

    /// Read just the child pointer of the index term at `slot`, in place —
    /// the descent hot path needs nothing else from the term.
    #[inline]
    pub fn child_at(page: &Page, slot: u16) -> StoreResult<PageId> {
        let payload = page.entry_payload_at(slot);
        if payload.len() != 9 {
            return Err(StoreError::Corrupt(format!(
                "index term payload has {} bytes, expected 9",
                payload.len()
            )));
        }
        Ok(PageId(u64::from_le_bytes(
            payload[0..8].try_into().unwrap(),
        )))
    }
}

/// A latch guard in any of the three modes, with uniform read access.
/// Traversal code descends in S or U and promotes U→X only at the node it
/// will write (§4.1.1: "Whenever a node might be written, a U latch is
/// used").
pub enum Guarded<'a> {
    /// Shared.
    S(SGuard<'a, Page>),
    /// Update.
    U(UGuard<'a, Page>),
    /// Exclusive.
    X(XGuard<'a, Page>),
}

impl std::fmt::Debug for Guarded<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Guarded::S(_) => "Guarded::S",
            Guarded::U(_) => "Guarded::U",
            Guarded::X(_) => "Guarded::X",
        })
    }
}

impl<'a> Guarded<'a> {
    /// Read access to the page, whatever the mode.
    pub fn page(&self) -> &Page {
        match self {
            Guarded::S(g) => g,
            Guarded::U(g) => g,
            Guarded::X(g) => g,
        }
    }

    /// Promote to X. S-mode promotion is forbidden (the paper's promotion
    /// deadlock); callers must descend in U when they might write.
    pub fn promote(self) -> Guarded<'a> {
        match self {
            Guarded::U(g) => Guarded::X(g.promote()),
            x @ Guarded::X(_) => x,
            Guarded::S(_) => panic!("promotion from S is forbidden (§4.1.1)"),
        }
    }

    /// Unwrap into the X guard (panics otherwise).
    pub fn into_x(self) -> XGuard<'a, Page> {
        match self {
            Guarded::X(g) => g,
            _ => panic!("not an X guard"),
        }
    }
}

/// Whether a node page is "full" for the additional keyed entry `entry`:
/// under an entry-count cap, or without room for it
/// ([`Page::keyed_fits`], which counts the re-encoding a shorter key prefix
/// costs).
pub fn node_full(page: &Page, entry: &[u8], max_entries: usize) -> bool {
    page.entry_count() as usize >= max_entries || !page.keyed_fits(entry)
}

/// Entry-count-based utilization (consolidation trigger, §3.3).
pub fn utilization(page: &Page, max_entries: usize) -> f64 {
    if max_entries == usize::MAX {
        // Byte-based when no artificial cap is set.
        let cap = pitree_pagestore::PAGE_SIZE - pitree_pagestore::page::HEADER_SIZE;
        page.used_space() as f64 / cap as f64
    } else {
        page.entry_count() as f64 / max_entries as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pitree_pagestore::page::PageType;

    #[test]
    fn header_codec_roundtrip() {
        for h in [
            NodeHeader::new_root_leaf(),
            NodeHeader {
                level: 3,
                side: PageId(42),
                low: KeyBound::Key(b"m".to_vec()),
                high: KeyBound::Key(b"r".to_vec()),
            },
            NodeHeader {
                level: 1,
                side: PageId::INVALID,
                low: KeyBound::Key(b"x".to_vec()),
                high: KeyBound::PosInf,
            },
        ] {
            assert_eq!(HeaderRef::parse(&h.encode()).unwrap().to_header(), h);
        }
    }

    #[test]
    fn header_contains() {
        let h = NodeHeader {
            level: 0,
            side: PageId(9),
            low: KeyBound::Key(b"b".to_vec()),
            high: KeyBound::Key(b"m".to_vec()),
        };
        assert!(h.contains(b"b"));
        assert!(h.contains(b"g"));
        assert!(!h.contains(b"m"));
        assert!(!h.contains(b"a"));
        assert!(h.is_leaf());
    }

    /// A node page holding `entries` after the root-leaf header.
    fn node_with(entries: &[Vec<u8>]) -> Page {
        let mut p = Page::new(PageType::Node);
        p.insert(0, &NodeHeader::new_root_leaf().encode()).unwrap();
        for e in entries {
            p.keyed_insert(e).unwrap();
        }
        p
    }

    #[test]
    fn index_term_codec() {
        let t = IndexTerm {
            key: b"sep".to_vec(),
            child: PageId(77),
            multi_parent: true,
        };
        let t2 = IndexTerm {
            key: vec![],
            child: PageId(1),
            multi_parent: false,
        };
        let p = node_with(&[t.to_entry(), t2.to_entry()]);
        assert_eq!(IndexTerm::read(&p, 1).unwrap(), t2);
        assert_eq!(IndexTerm::read(&p, 2).unwrap(), t);
    }

    #[test]
    fn header_roundtrip_through_page() {
        let mut p = Page::new(PageType::Node);
        let h = NodeHeader::new_root_leaf();
        p.insert(0, &h.encode()).unwrap();
        assert_eq!(NodeHeader::read(&p).unwrap(), h);
    }

    #[test]
    fn fullness_by_count_and_bytes() {
        let p = node_with(&[Page::make_entry(b"a", b"v"), Page::make_entry(b"b", b"v")]);
        let entry = Page::make_entry(b"c", b"v");
        assert!(node_full(&p, &entry, 2), "count cap reached");
        assert!(!node_full(&p, &entry, 100));
        let big = Page::make_entry(b"c", &[0; 4096]);
        assert!(node_full(&p, &big, 100), "byte cap reached");
    }

    #[test]
    fn utilization_by_count() {
        let p = node_with(&[Page::make_entry(b"a", b"v")]);
        assert!((utilization(&p, 4) - 0.25).abs() < 1e-9);
    }

    #[test]
    fn index_term_rejects_short_payload() {
        let p = node_with(&[Page::make_entry(b"k", b"short")]);
        assert!(IndexTerm::read(&p, 1).is_err());
    }

    #[test]
    fn header_ref_agrees_with_owned_header() {
        for h in [
            NodeHeader::new_root_leaf(),
            NodeHeader {
                level: 3,
                side: PageId(42),
                low: KeyBound::Key(b"m".to_vec()),
                high: KeyBound::Key(b"r".to_vec()),
            },
            NodeHeader {
                level: 1,
                side: PageId::INVALID,
                low: KeyBound::NegInf,
                high: KeyBound::Key(b"x".to_vec()),
            },
        ] {
            let bytes = h.encode();
            let v = HeaderRef::parse(&bytes).unwrap();
            assert_eq!(v.level(), h.level);
            assert_eq!(v.side(), h.side);
            assert_eq!(v.is_leaf(), h.is_leaf());
            assert_eq!(v.to_header(), h);
            for key in [&b""[..], b"a", b"m", b"q", b"r", b"zz"] {
                assert_eq!(v.contains(key), h.contains(key));
                assert_eq!(v.low_le(key), h.low.le_key(key));
                assert_eq!(v.high_gt(key), h.high.gt_key(key));
                assert_eq!(
                    v.high_ge(key),
                    h.high.gt_key(key) || h.high == KeyBound::Key(key.to_vec())
                );
            }
        }
    }

    #[test]
    fn header_ref_rejects_corrupt_headers() {
        let corpus: Vec<Vec<u8>> = vec![
            vec![],
            vec![1, 2, 3],
            vec![0; 9],                         // level+side, missing bounds
            vec![0, 0, 0, 0, 0, 0, 0, 0, 0, 9], // bad bound tag
            {
                let mut v = NodeHeader::new_root_leaf().encode();
                v.push(0xaa); // trailing byte
                v
            },
            {
                let mut v = vec![0; 9];
                v.extend_from_slice(&[1, 10, 0, 1, 2]); // truncated bound key
                v
            },
        ];
        for bytes in &corpus {
            assert!(HeaderRef::parse(bytes).is_err(), "accepted {bytes:02x?}");
        }
    }

    #[test]
    fn index_child_at_matches_full_decode() {
        let p = node_with(&[IndexTerm::entry_for(b"sep", PageId(77))]);
        assert_eq!(IndexTerm::child_at(&p, 1).unwrap(), PageId(77));
        assert_eq!(IndexTerm::read(&p, 1).unwrap().child, PageId(77));
        // Corrupt payload length is rejected in place too.
        let q = node_with(&[Page::make_entry(b"k", b"short")]);
        assert!(IndexTerm::child_at(&q, 1).is_err());
    }
}
