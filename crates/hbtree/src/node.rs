//! hB-tree node layout: slot 0 holds the header — level, the node's original
//! rectangle, and its kd-tree fragment (Figure 2). Data nodes keep point
//! records in slots 1.., keyed by the big-endian point encoding.

use crate::geometry::{Frag, Rect};
use pitree_pagestore::page::Page;
use pitree_pagestore::{StoreError, StoreResult};

/// Decoded hB node header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HbHeader {
    /// Level: 0 for data nodes.
    pub level: u8,
    /// The node's original (rectangular) region; the fragment partitions it.
    pub rect: Rect,
    /// The kd fragment: local space, child terms, sibling terms.
    pub frag: Frag,
}

impl HbHeader {
    /// A fresh root covering the whole space as a data node.
    pub fn new_root_leaf() -> HbHeader {
        HbHeader {
            level: 0,
            rect: Rect::all(),
            frag: Frag::Local,
        }
    }

    /// Encode as the slot-0 record.
    pub fn encode(&self) -> Vec<u8> {
        let mut v = Vec::with_capacity(64);
        v.push(self.level);
        self.rect.encode(&mut v);
        self.frag.encode(&mut v);
        v
    }

    /// Decode.
    pub fn decode(bytes: &[u8]) -> StoreResult<HbHeader> {
        if bytes.is_empty() {
            return Err(StoreError::Corrupt("empty hB header".into()));
        }
        let level = bytes[0];
        let mut pos = 1;
        let rect = Rect::decode(bytes, &mut pos)?;
        let frag = Frag::decode(bytes, &mut pos)?;
        if pos != bytes.len() {
            return Err(StoreError::Corrupt("trailing bytes in hB header".into()));
        }
        Ok(HbHeader { level, rect, frag })
    }

    /// Read from a page.
    pub fn read(page: &Page) -> StoreResult<HbHeader> {
        HbHeader::decode(page.get(0)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::PtrKind;
    use pitree_pagestore::PageId;

    #[test]
    fn header_codec_roundtrip() {
        for h in [
            HbHeader::new_root_leaf(),
            HbHeader {
                level: 2,
                rect: Rect {
                    lo: [5, 5],
                    hi: [50, 90],
                },
                frag: Frag::Split {
                    dim: 1,
                    val: 40,
                    lo: Box::new(Frag::child(PageId(3))),
                    hi: Box::new(Frag::Ptr {
                        kind: PtrKind::Sibling,
                        pid: PageId(4),
                        multi_parent: true,
                    }),
                },
            },
        ] {
            assert_eq!(HbHeader::decode(&h.encode()).unwrap(), h);
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(HbHeader::decode(&[]).is_err());
        assert!(HbHeader::decode(&[1, 2, 3]).is_err());
        let mut ok = HbHeader::new_root_leaf().encode();
        ok.push(0);
        assert!(HbHeader::decode(&ok).is_err());
        // A kd split on a dimension the space does not have.
        let split = Frag::Split {
            dim: 2,
            val: 1,
            lo: Box::new(Frag::Local),
            hi: Box::new(Frag::Local),
        };
        let bad = HbHeader {
            frag: split,
            ..HbHeader::new_root_leaf()
        };
        assert!(HbHeader::decode(&bad.encode()).is_err());
    }
}
