//! TSB-tree node layout (§2.2.2, Figure 1).
//!
//! A TSB node is responsible for a rectangle of (key × time) space. A
//! **current node** covers `[key_low, key_high) × [t_lo, now)` and carries
//! two kinds of sibling terms: a *key* side pointer delegating the key space
//! at and above `key_high` (exactly the B-link sibling term), and a
//! *history* side pointer delegating the time space before `t_lo` (Figure 1:
//! "Current nodes are responsible for all previous time through their
//! historical pointers and all higher key ranges through their key (side)
//! pointers"). A **history node** covers `[key_low, key_high) × [t_lo,
//! t_hi)`, never splits again, and chains further back through its own
//! history pointer (a copy of its creator's, per Figure 1).
//!
//! Leaf entries are *versions*: entry key = `user key ⧺ 8-byte big-endian
//! start time`, payload = `[flags][value]` (bit 0 of flags marks a deletion
//! tombstone). Bytewise entry order gives a consistent total order with all
//! versions of one key contiguous and time-ascending.

use pitree::bound::KeyBound;
use pitree::node::BoundRef;
use pitree_pagestore::page::{KeyRef, Page};
use pitree_pagestore::{PageId, StoreError, StoreResult};

/// Version timestamps (logical clock ticks).
pub type Time = u64;

/// Kind of a TSB node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum TsbKind {
    /// Mutable node covering current time.
    Current = 0,
    /// Immutable node covering a closed time interval.
    History = 1,
    /// Index node (routes by key over current nodes).
    Index = 2,
}

impl TsbKind {
    fn from_u8(b: u8) -> StoreResult<TsbKind> {
        match b {
            0 => Ok(TsbKind::Current),
            1 => Ok(TsbKind::History),
            2 => Ok(TsbKind::Index),
            x => Err(StoreError::Corrupt(format!("bad TSB node kind {x}"))),
        }
    }
}

/// Owned TSB node header (slot 0): the encoder side of [`TsbHeaderRef`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TsbHeader {
    /// What this node is.
    pub kind: TsbKind,
    /// Level: 0 for data nodes, parents one higher.
    pub level: u8,
    /// Inclusive low key bound of the directly-contained key space.
    pub key_low: KeyBound,
    /// Exclusive high key bound (key-delegation boundary when `key_side` is
    /// set).
    pub key_high: KeyBound,
    /// Key sibling (current/index nodes; the B-link side pointer).
    pub key_side: PageId,
    /// History sibling: the node responsible for this key space before
    /// `t_lo` (data nodes only).
    pub hist_side: PageId,
    /// Inclusive start of the covered time interval.
    pub t_lo: Time,
    /// Exclusive end of the covered time interval (`Time::MAX` = open, for
    /// current and index nodes).
    pub t_hi: Time,
}

impl TsbHeader {
    /// Header for a brand-new root (a current data node covering all of key
    /// space and all time).
    pub fn new_root_leaf() -> TsbHeader {
        TsbHeader {
            kind: TsbKind::Current,
            level: 0,
            key_low: KeyBound::NegInf,
            key_high: KeyBound::PosInf,
            key_side: PageId::INVALID,
            hist_side: PageId::INVALID,
            t_lo: 0,
            t_hi: Time::MAX,
        }
    }

    /// Whether `key` lies in the directly-contained key space.
    pub fn contains_key(&self, key: &[u8]) -> bool {
        self.key_low.le_key(key) && self.key_high.gt_key(key)
    }

    /// Whether `t` lies in the covered time interval.
    pub fn contains_time(&self, t: Time) -> bool {
        self.t_lo <= t && t < self.t_hi
    }

    /// Encode as the slot-0 record.
    pub fn encode(&self) -> Vec<u8> {
        let mut v = Vec::with_capacity(40);
        v.push(self.kind as u8);
        v.push(self.level);
        v.extend_from_slice(&self.key_side.0.to_le_bytes());
        v.extend_from_slice(&self.hist_side.0.to_le_bytes());
        v.extend_from_slice(&self.t_lo.to_le_bytes());
        v.extend_from_slice(&self.t_hi.to_le_bytes());
        self.key_low.encode(&mut v);
        self.key_high.encode(&mut v);
        v
    }

    /// Read from a node page.
    pub fn read(page: &Page) -> StoreResult<TsbHeader> {
        Ok(TsbHeaderRef::read(page)?.to_header())
    }
}

/// Borrowed, zero-copy view of a TSB node header: scalars are read at their
/// fixed offsets, the key bounds stay as slices into the frame. The read
/// hot path (routing, `get_as_of`) makes every rectangle-membership
/// decision through this view without materializing a [`TsbHeader`]
/// (DESIGN.md §11). This is the only decoder; the write and SMO paths build
/// new headers as [`TsbHeader`]s and encode them.
#[derive(Debug, Clone, Copy)]
pub struct TsbHeaderRef<'a> {
    kind: TsbKind,
    level: u8,
    key_side: PageId,
    hist_side: PageId,
    t_lo: Time,
    t_hi: Time,
    key_low: BoundRef<'a>,
    key_high: BoundRef<'a>,
}

impl<'a> TsbHeaderRef<'a> {
    /// Parse slot-0 record bytes. Rejects a short header, a bad node kind,
    /// a bad or truncated key bound, a `+∞` low or `−∞` high key bound and
    /// trailing bytes.
    pub fn parse(bytes: &'a [u8]) -> StoreResult<TsbHeaderRef<'a>> {
        if bytes.len() < 34 {
            return Err(StoreError::Corrupt("TSB header too short".into()));
        }
        let kind = TsbKind::from_u8(bytes[0])?;
        let level = bytes[1];
        let key_side = PageId(u64::from_le_bytes(bytes[2..10].try_into().unwrap()));
        let hist_side = PageId(u64::from_le_bytes(bytes[10..18].try_into().unwrap()));
        let t_lo = u64::from_le_bytes(bytes[18..26].try_into().unwrap());
        let t_hi = u64::from_le_bytes(bytes[26..34].try_into().unwrap());
        let mut pos = 34;
        let (key_low, key_high) = BoundRef::parse_interval(bytes, &mut pos)?;
        if pos != bytes.len() {
            return Err(StoreError::Corrupt("trailing bytes in TSB header".into()));
        }
        Ok(TsbHeaderRef {
            kind,
            level,
            key_side,
            hist_side,
            t_lo,
            t_hi,
            key_low,
            key_high,
        })
    }

    /// View the header of a node page.
    #[inline]
    pub fn read(page: &'a Page) -> StoreResult<TsbHeaderRef<'a>> {
        TsbHeaderRef::parse(page.get(0)?)
    }

    /// What this node is.
    #[inline]
    pub fn kind(&self) -> TsbKind {
        self.kind
    }

    /// Level: 0 for data nodes.
    #[inline]
    pub fn level(&self) -> u8 {
        self.level
    }

    /// Key sibling (the B-link side pointer), or `PageId::INVALID`.
    #[inline]
    pub fn key_side(&self) -> PageId {
        self.key_side
    }

    /// History sibling, or `PageId::INVALID`.
    #[inline]
    pub fn hist_side(&self) -> PageId {
        self.hist_side
    }

    /// Inclusive start of the covered time interval.
    #[inline]
    pub fn t_lo(&self) -> Time {
        self.t_lo
    }

    /// Exclusive end of the covered time interval.
    #[inline]
    pub fn t_hi(&self) -> Time {
        self.t_hi
    }

    /// Inclusive low key bound.
    #[inline]
    pub fn key_low(&self) -> BoundRef<'a> {
        self.key_low
    }

    /// Exclusive high key bound.
    #[inline]
    pub fn key_high(&self) -> BoundRef<'a> {
        self.key_high
    }

    /// Whether `key` lies in the directly-contained key space.
    #[inline]
    pub fn contains_key(&self, key: &[u8]) -> bool {
        self.key_low.le_key(key) && self.key_high.gt_key(key)
    }

    /// Whether `t` lies in the covered time interval.
    #[inline]
    pub fn contains_time(&self, t: Time) -> bool {
        self.t_lo <= t && t < self.t_hi
    }

    /// `key < key_high` in place.
    #[inline]
    pub fn key_high_gt(&self, key: &[u8]) -> bool {
        self.key_high.gt_key(key)
    }

    /// The low bound as an index-term key (`NegInf` → empty key).
    #[inline]
    pub fn low_entry_key(&self) -> &'a [u8] {
        self.key_low.as_entry_key()
    }

    /// Materialize the owned header (write paths / SMOs only).
    pub fn to_header(&self) -> TsbHeader {
        TsbHeader {
            kind: self.kind,
            level: self.level,
            key_low: self.key_low.to_bound(),
            key_high: self.key_high.to_bound(),
            key_side: self.key_side,
            hist_side: self.hist_side,
            t_lo: self.t_lo,
            t_hi: self.t_hi,
        }
    }
}

// ---- version entries --------------------------------------------------------

/// Flag bit marking a deletion tombstone version.
pub const FLAG_TOMBSTONE: u8 = 0b0000_0001;

/// Build the composite entry key `user key ⧺ start time`.
pub fn version_key(key: &[u8], t: Time) -> Vec<u8> {
    let mut v = Vec::with_capacity(key.len() + 8);
    v.extend_from_slice(key);
    v.extend_from_slice(&t.to_be_bytes());
    v
}

/// Split a composite entry key back into `(user key, start time)`. The view
/// may be a node's stored key, whose key prefix can hold part of the time
/// too (a node of one key's versions shares the start times' high bytes).
pub fn split_version_key(vkey: KeyRef<'_>) -> (KeyRef<'_>, Time) {
    let (user, time) = vkey.split_at(vkey.len().saturating_sub(8));
    (
        user,
        u64::from_be_bytes(time.to_array().unwrap_or_default()),
    )
}

/// Build a full version entry.
pub fn version_entry(key: &[u8], t: Time, value: Option<&[u8]>) -> Vec<u8> {
    let mut payload = Vec::with_capacity(1 + value.map_or(0, |v| v.len()));
    match value {
        Some(v) => {
            payload.push(0);
            payload.extend_from_slice(v);
        }
        None => payload.push(FLAG_TOMBSTONE),
    }
    Page::make_entry(&version_key(key, t), &payload)
}

/// Decode a version entry's payload into `Some(value)` or `None` for a
/// tombstone.
pub fn version_value(payload: &[u8]) -> Option<&[u8]> {
    if payload[0] & FLAG_TOMBSTONE != 0 {
        None
    } else {
        Some(&payload[1..])
    }
}

/// Locate the version of `key` valid at `t` and borrow its payload from the
/// frame: one in-place probe for the composite key `key ⧺ t` (never
/// concatenated), then the floor entry must be a version of `key`.
pub fn find_version_probe<'a>(page: &'a Page, key: &[u8], t: Time) -> Option<(u16, &'a [u8])> {
    let slot = match page.keyed_probe_split(key, &t.to_be_bytes()) {
        Ok(s) => s,
        Err(ins) if ins > 1 => ins - 1,
        Err(_) => return None,
    };
    let ek = page.entry_key_at(slot);
    (ek.len() == key.len() + 8 && ek.starts_with(key)).then(|| (slot, page.entry_payload_at(slot)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pitree_pagestore::page::PageType;

    #[test]
    fn header_codec_roundtrip() {
        for h in [
            TsbHeader::new_root_leaf(),
            TsbHeader {
                kind: TsbKind::History,
                level: 0,
                key_low: KeyBound::Key(b"m".to_vec()),
                key_high: KeyBound::PosInf,
                key_side: PageId(7),
                hist_side: PageId(9),
                t_lo: 100,
                t_hi: 200,
            },
            TsbHeader {
                kind: TsbKind::Index,
                level: 2,
                key_low: KeyBound::NegInf,
                key_high: KeyBound::Key(b"q".to_vec()),
                key_side: PageId(3),
                hist_side: PageId::INVALID,
                t_lo: 0,
                t_hi: Time::MAX,
            },
        ] {
            assert_eq!(TsbHeaderRef::parse(&h.encode()).unwrap().to_header(), h);
        }
    }

    #[test]
    fn rectangle_membership() {
        let h = TsbHeader {
            kind: TsbKind::History,
            level: 0,
            key_low: KeyBound::Key(b"b".to_vec()),
            key_high: KeyBound::Key(b"m".to_vec()),
            key_side: PageId::INVALID,
            hist_side: PageId::INVALID,
            t_lo: 10,
            t_hi: 20,
        };
        assert!(h.contains_key(b"c") && !h.contains_key(b"m") && !h.contains_key(b"a"));
        assert!(h.contains_time(10) && h.contains_time(19));
        assert!(!h.contains_time(20) && !h.contains_time(9));
    }

    #[test]
    fn version_key_order_is_time_ascending_per_key() {
        let a1 = version_key(b"aa", 1);
        let a2 = version_key(b"aa", 2);
        let b1 = version_key(b"ab", 1);
        assert!(a1 < a2 && a2 < b1);
        let (k, t) = split_version_key(KeyRef::new(&a2));
        assert_eq!((k.to_vec(), t), (b"aa".to_vec(), 2));
    }

    #[test]
    fn version_entry_tombstones() {
        let live = version_entry(b"k", 5, Some(b"val"));
        assert_eq!(
            version_value(Page::entry_payload(&live).unwrap()),
            Some(&b"val"[..])
        );
        let dead = version_entry(b"k", 6, None);
        assert_eq!(version_value(Page::entry_payload(&dead).unwrap()), None);
    }

    #[test]
    fn header_ref_agrees_with_owned_header() {
        for h in [
            TsbHeader::new_root_leaf(),
            TsbHeader {
                kind: TsbKind::History,
                level: 0,
                key_low: KeyBound::Key(b"m".to_vec()),
                key_high: KeyBound::PosInf,
                key_side: PageId(7),
                hist_side: PageId(9),
                t_lo: 100,
                t_hi: 200,
            },
        ] {
            let bytes = h.encode();
            let v = TsbHeaderRef::parse(&bytes).unwrap();
            assert_eq!(v.kind(), h.kind);
            assert_eq!(v.level(), h.level);
            assert_eq!(v.key_side(), h.key_side);
            assert_eq!(v.hist_side(), h.hist_side);
            assert_eq!(v.t_lo(), h.t_lo);
            assert_eq!(v.t_hi(), h.t_hi);
            for key in [&b""[..], b"a", b"m", b"z"] {
                assert_eq!(v.contains_key(key), h.contains_key(key));
                assert_eq!(v.key_high_gt(key), h.key_high.gt_key(key));
            }
            for t in [0u64, 99, 100, 199, 200, Time::MAX - 1] {
                assert_eq!(v.contains_time(t), h.contains_time(t));
            }
        }
        // Trailing bytes, and a +inf low or -inf high key bound (the bound
        // tags follow 34 fixed bytes: 0 is -inf, 2 is +inf).
        let root = TsbHeader::new_root_leaf().encode();
        let mut trailing = root.clone();
        trailing.push(0);
        let (mut low_pos_inf, mut high_neg_inf) = (root.clone(), root);
        low_pos_inf[34] = 2;
        high_neg_inf[35] = 0;
        // Empty, too short, bad kind byte.
        for bad in [&[][..], &[0, 0, 1][..], &[9; 40][..]].into_iter().chain([
            &trailing[..],
            &low_pos_inf,
            &high_neg_inf,
        ]) {
            assert!(TsbHeaderRef::parse(bad).is_err(), "accepted {bad:02x?}");
        }
    }

    #[test]
    fn version_probe_compare_matches_materialized_probe() {
        let keys: Vec<Vec<u8>> = vec![
            b"".to_vec(),
            b"a".to_vec(),
            b"aa".to_vec(),
            b"ab".to_vec(),
            b"b".to_vec(),
            b"zzz".to_vec(),
        ];
        let times = [0u64, 1, 7, u64::MAX];
        // Pages whose key prefix ends inside the user key, at its end, and
        // inside the start time: the probe never concatenates key and time.
        for held in [&keys[..], &keys[1..3], &keys[2..3]] {
            let mut p = Page::new(PageType::Node);
            p.insert(0, &TsbHeader::new_root_leaf().encode()).unwrap();
            for user in held {
                for t in &times[..times.len() - usize::from(held.len() == 1)] {
                    p.keyed_insert(&version_entry(user, *t, None)).unwrap();
                }
            }
            for probe_user in &keys {
                for probe_t in times {
                    let materialized = version_key(probe_user, probe_t);
                    assert_eq!(
                        p.keyed_probe_split(probe_user, &probe_t.to_be_bytes()),
                        p.keyed_probe(&materialized),
                        "prefix {:?}, probe ({probe_user:?},{probe_t})",
                        p.key_prefix()
                    );
                }
            }
        }
    }

    #[test]
    fn find_version_probe_agrees_with_slot_lookup() {
        let mut p = Page::new(PageType::Node);
        p.insert(0, &TsbHeader::new_root_leaf().encode()).unwrap();
        for t in [10u64, 20, 30] {
            p.keyed_insert(&version_entry(b"k", t, Some(b"v"))).unwrap();
        }
        p.keyed_insert(&version_entry(b"m", 15, None)).unwrap();
        for (key, t) in [
            (&b"k"[..], 5u64),
            (b"k", 10),
            (b"k", 25),
            (b"k", 99),
            (b"m", 14),
            (b"m", 16),
            (b"", 50),
            (b"zz", 50),
        ] {
            // The slot a linear scan picks: the last version of `key`
            // starting at or before `t`.
            let via_scan = (1..p.slot_count()).rev().find(|&slot| {
                let (k, start) = split_version_key(p.entry_key_at(slot));
                k.to_vec() == key && start <= t
            });
            let via_probe = find_version_probe(&p, key, t);
            assert_eq!(via_probe.map(|(s, _)| s), via_scan, "key {key:?} t {t}");
            if let Some((slot, payload)) = via_probe {
                assert_eq!(payload, p.entry_payload_at(slot));
            }
        }
    }

    #[test]
    fn find_version_probe_picks_floor() {
        let mut p = Page::new(PageType::Node);
        p.insert(0, &TsbHeader::new_root_leaf().encode()).unwrap();
        for t in [10u64, 20, 30] {
            p.keyed_insert(&version_entry(b"k", t, Some(b"v"))).unwrap();
        }
        p.keyed_insert(&version_entry(b"m", 15, Some(b"v")))
            .unwrap();
        let slot_at = |key: &[u8], t| find_version_probe(&p, key, t).map(|(slot, _)| slot);
        let slot = slot_at(b"k", 25).unwrap();
        let (k, t) = split_version_key(p.entry_key_at(slot));
        assert_eq!((k.to_vec(), t), (b"k".to_vec(), 20));
        assert!(slot_at(b"k", 5).is_none(), "before first version");
        let slot = slot_at(b"k", 30).unwrap();
        assert_eq!(split_version_key(p.entry_key_at(slot)).1, 30);
        assert!(slot_at(b"zz", 50).is_none());
        // A key that is a prefix of another must not match it.
        assert!(slot_at(b"", 50).is_none());
    }
}
