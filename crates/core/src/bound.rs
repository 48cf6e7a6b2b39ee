//! Key-space bounds.
//!
//! A Π-tree node *directly contains* a half-open key interval
//! `[low, high)` (§2.1.1). The first node of each level is responsible for
//! the whole space, so bounds must be able to express ±∞.

use std::cmp::Ordering;

/// One end of a node's directly-contained interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KeyBound {
    /// Below every key.
    NegInf,
    /// An actual key value (inclusive as a low bound, exclusive as a high
    /// bound).
    Key(Vec<u8>),
    /// Above every key.
    PosInf,
}

impl KeyBound {
    /// `self ≤ key` when used as a low bound.
    pub fn le_key(&self, key: &[u8]) -> bool {
        match self {
            KeyBound::NegInf => true,
            KeyBound::Key(k) => k.as_slice() <= key,
            KeyBound::PosInf => false,
        }
    }

    /// `key < self` when used as a high bound.
    pub fn gt_key(&self, key: &[u8]) -> bool {
        match self {
            KeyBound::NegInf => false,
            KeyBound::Key(k) => key < k.as_slice(),
            KeyBound::PosInf => true,
        }
    }

    /// Compare two bounds (NegInf < every key < PosInf).
    pub fn cmp_bound(&self, other: &KeyBound) -> Ordering {
        use KeyBound::*;
        match (self, other) {
            (NegInf, NegInf) | (PosInf, PosInf) => Ordering::Equal,
            (NegInf, _) | (_, PosInf) => Ordering::Less,
            (_, NegInf) | (PosInf, _) => Ordering::Greater,
            (Key(a), Key(b)) => a.cmp(b),
        }
    }

    /// The byte key used when this bound appears as an *index-term key*:
    /// `NegInf` is the empty key (which sorts before every routing key; the
    /// trees in this workspace never use an empty user key).
    pub fn as_entry_key(&self) -> &[u8] {
        match self {
            KeyBound::NegInf => b"",
            KeyBound::Key(k) => k,
            KeyBound::PosInf => panic!("PosInf is never an index-term key"),
        }
    }

    /// Encode: tag byte + optional length-prefixed key. Decoded by
    /// [`crate::node::BoundRef::parse`].
    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            KeyBound::NegInf => out.push(0),
            KeyBound::Key(k) => {
                out.push(1);
                out.extend_from_slice(&(k.len() as u16).to_le_bytes());
                out.extend_from_slice(k);
            }
            KeyBound::PosInf => out.push(2),
        }
    }
}

impl std::fmt::Display for KeyBound {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KeyBound::NegInf => write!(f, "-inf"),
            KeyBound::Key(k) => write!(f, "{k:02x?}"),
            KeyBound::PosInf => write!(f, "+inf"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::BoundRef;

    #[test]
    fn interval_membership() {
        let low = KeyBound::Key(b"b".to_vec());
        let high = KeyBound::Key(b"m".to_vec());
        assert!(low.le_key(b"b") && high.gt_key(b"b"));
        assert!(low.le_key(b"g") && high.gt_key(b"g"));
        assert!(!high.gt_key(b"m"), "high bound is exclusive");
        assert!(!low.le_key(b"a"));
    }

    #[test]
    fn infinities() {
        assert!(KeyBound::NegInf.le_key(b""));
        assert!(KeyBound::PosInf.gt_key(&[0xff; 64]));
        assert!(!KeyBound::PosInf.le_key(b"x"));
        assert!(!KeyBound::NegInf.gt_key(b""));
    }

    #[test]
    fn bound_ordering() {
        use Ordering::*;
        let k = |s: &str| KeyBound::Key(s.as_bytes().to_vec());
        assert_eq!(KeyBound::NegInf.cmp_bound(&k("a")), Less);
        assert_eq!(k("a").cmp_bound(&k("b")), Less);
        assert_eq!(k("b").cmp_bound(&KeyBound::PosInf), Less);
        assert_eq!(k("c").cmp_bound(&k("c")), Equal);
        assert_eq!(KeyBound::PosInf.cmp_bound(&KeyBound::NegInf), Greater);
    }

    #[test]
    fn codec_roundtrip() {
        for b in [
            KeyBound::NegInf,
            KeyBound::PosInf,
            KeyBound::Key(b"hello".to_vec()),
            KeyBound::Key(vec![]),
        ] {
            let mut buf = Vec::new();
            b.encode(&mut buf);
            let mut pos = 0;
            assert_eq!(BoundRef::parse(&buf, &mut pos).unwrap().to_bound(), b);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in [&[][..], &[9], &[1, 10, 0, 1, 2]] {
            assert!(BoundRef::parse(bad, &mut 0).is_err());
        }
    }

    #[test]
    fn entry_key_view() {
        assert_eq!(KeyBound::NegInf.as_entry_key(), b"");
        assert_eq!(KeyBound::Key(b"k".to_vec()).as_entry_key(), b"k");
    }
}
