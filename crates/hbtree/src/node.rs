//! hB-tree node layout: slot 0 holds the header — level, the node's original
//! rectangle, and its kd-tree fragment (Figure 2). Data nodes keep point
//! records in slots 1.., keyed by the big-endian point encoding.
//!
//! Two decoders read a header: [`HbView`] borrows the page's bytes and is
//! what every read path (routing, side traversals, window queries, the
//! well-formedness walk) uses; [`HbHeader`] decodes an owned fragment for
//! the rare paths that rewrite it (splits and postings).

use crate::geometry::{Frag, Point, PtrKind, Rect, DIMS};
use pitree_pagestore::page::Page;
use pitree_pagestore::{PageId, StoreError, StoreResult};

/// Decoded, owned hB node header: the encoder side of [`HbView`].
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

/// A leaf of a kd fragment as [`HbView`] reads it: the space it stands for
/// belongs to this node or is delegated through a pointer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KdLeaf {
    /// Space belonging to this node directly.
    Local,
    /// Space delegated down (an index term) or sideways (a sibling term).
    Ptr {
        /// Down or sideways.
        kind: PtrKind,
        /// The referenced node.
        pid: PageId,
        /// The §3.3 multi-parent marker.
        multi_parent: bool,
    },
}

/// One encoded kd node, in [`Frag::encode`]'s preorder layout.
enum KdNode {
    Split { dim: usize, val: u64 },
    Leaf(KdLeaf),
}

/// Decode the kd node at `pos` of `frag`; returns it and the offset just
/// past it.
fn kd_node(frag: &[u8], pos: usize) -> StoreResult<(KdNode, usize)> {
    let corrupt = |what: &str| StoreError::Corrupt(what.into());
    let tag = *frag.get(pos).ok_or_else(|| corrupt("truncated fragment"))?;
    let body = &frag[pos + 1..];
    match tag {
        0 => {
            let &[dim, ref val @ ..] = body
                .first_chunk::<9>()
                .ok_or_else(|| corrupt("truncated kd split"))?;
            if usize::from(dim) >= DIMS {
                return Err(StoreError::Corrupt(format!("kd split on dimension {dim}")));
            }
            let (dim, val) = (usize::from(dim), u64::from_le_bytes(*val));
            Ok((KdNode::Split { dim, val }, pos + 10))
        }
        1 => Ok((KdNode::Leaf(KdLeaf::Local), pos + 1)),
        2 => {
            let &[kind, ref pid @ .., multi_parent] = body
                .first_chunk::<10>()
                .ok_or_else(|| corrupt("truncated kd pointer"))?;
            let kind = match kind {
                0 => PtrKind::Child,
                1 => PtrKind::Sibling,
                x => return Err(StoreError::Corrupt(format!("bad ptr kind {x}"))),
            };
            let leaf = KdLeaf::Ptr {
                kind,
                pid: PageId(u64::from_le_bytes(*pid)),
                multi_parent: multi_parent != 0,
            };
            Ok((KdNode::Leaf(leaf), pos + 11))
        }
        t => Err(StoreError::Corrupt(format!("bad fragment tag {t}"))),
    }
}

/// The offset just past the kd subtree starting at `pos`: a preorder scan
/// that counts the subtrees still open, with no stack.
fn skip(frag: &[u8], mut pos: usize) -> StoreResult<usize> {
    let mut open = 1usize;
    while open > 0 {
        let (node, next) = kd_node(frag, pos)?;
        match node {
            KdNode::Split { .. } => open += 1,
            KdNode::Leaf(_) => open -= 1,
        }
        pos = next;
    }
    Ok(pos)
}

/// Visit every leaf of the subtree at `pos` (covering `region`) with its
/// region; returns the offset just past the subtree.
fn visit<F>(frag: &[u8], pos: usize, region: Rect, f: &mut F) -> StoreResult<usize>
where
    F: FnMut(KdLeaf, Rect) -> StoreResult<()>,
{
    match kd_node(frag, pos)? {
        (KdNode::Split { dim, val }, next) => {
            let mid = visit(frag, next, region.half(dim, val, false), f)?;
            visit(frag, mid, region.half(dim, val, true), f)
        }
        (KdNode::Leaf(leaf), next) => f(leaf, region).map(|()| next),
    }
}

/// Borrowed view of an hB node header: the level and rectangle are read
/// out of the slot-0 bytes, the kd fragment stays in them. Parsing walks
/// the whole fragment once and makes every check [`HbHeader::decode`]
/// makes, so the two accept exactly the same bytes; `locate` and `leaves`
/// then walk the borrowed bytes and allocate nothing. Sound because the
/// caller holds a latch guard on the page for `'a`.
#[derive(Debug, Clone)]
pub struct HbView<'a> {
    level: u8,
    rect: Rect,
    frag: &'a [u8],
}

impl<'a> HbView<'a> {
    /// Parse slot-0 record bytes. Rejects an empty header, a truncated
    /// rectangle or fragment, a bad fragment tag or pointer kind, a kd
    /// split on a dimension the space does not have, and trailing bytes.
    pub fn parse(bytes: &'a [u8]) -> StoreResult<HbView<'a>> {
        let &level = bytes
            .first()
            .ok_or_else(|| StoreError::Corrupt("empty hB header".into()))?;
        let mut pos = 1;
        let rect = Rect::decode(bytes, &mut pos)?;
        let frag = &bytes[pos..];
        if skip(frag, 0)? != frag.len() {
            return Err(StoreError::Corrupt("trailing bytes in hB header".into()));
        }
        Ok(HbView { level, rect, frag })
    }

    /// View the header of a node page.
    #[inline]
    pub fn read(page: &'a Page) -> StoreResult<HbView<'a>> {
        HbView::parse(page.get(0)?)
    }

    /// Level: 0 for data nodes.
    #[inline]
    pub fn level(&self) -> u8 {
        self.level
    }

    /// The node's original (rectangular) region.
    #[inline]
    pub fn rect(&self) -> &Rect {
        &self.rect
    }

    /// Resolve `p` (inside the rectangle) to the fragment leaf owning it,
    /// returning the leaf and its region. Walks the path from the fragment's
    /// root, skipping each low subtree the path passes on its high side.
    pub fn locate(&self, p: &Point) -> StoreResult<(KdLeaf, Rect)> {
        let (mut pos, mut region) = (0, self.rect.clone());
        loop {
            match kd_node(self.frag, pos)? {
                (KdNode::Split { dim, val }, next) => {
                    let high = p[dim] >= val;
                    region = region.half(dim, val, high);
                    pos = if high { skip(self.frag, next)? } else { next };
                }
                (KdNode::Leaf(leaf), _) => return Ok((leaf, region)),
            }
        }
    }

    /// Visit every fragment leaf with its region, low side first (the order
    /// of [`Frag::leaves`]); the first error `f` returns stops the walk.
    pub fn leaves(&self, mut f: impl FnMut(KdLeaf, Rect) -> StoreResult<()>) -> StoreResult<()> {
        visit(self.frag, 0, self.rect.clone(), &mut f).map(drop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
            let bytes = h.encode();
            assert_eq!(HbHeader::decode(&bytes).unwrap(), h);
            let v = HbView::parse(&bytes).unwrap();
            assert_eq!((v.level(), v.rect()), (h.level, &h.rect));
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        let rejected = |b: &[u8]| HbHeader::decode(b).is_err() && HbView::parse(b).is_err();
        assert!(rejected(&[]));
        assert!(rejected(&[1, 2, 3]));
        let mut ok = HbHeader::new_root_leaf().encode();
        ok.push(0);
        assert!(rejected(&ok));
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
        assert!(rejected(&bad.encode()));
    }
}
