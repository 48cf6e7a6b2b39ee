//! Geometry for the hB-tree: 2-attribute points, rectangles, and the
//! **kd-tree fragments** of §2.2.3 / Figure 2.
//!
//! Every hB-tree node carries a kd fragment describing how its original
//! (rectangular) region is divided among:
//!
//! * [`Frag::Local`] — space whose records live in this node (data nodes) or
//!   which this node has not delegated (transient in index nodes),
//! * `Frag::Ptr` with [`PtrKind::Child`] — space delegated *down* to a child (index terms),
//! * `Frag::Ptr` with [`PtrKind::Sibling`] — space delegated *sideways* to a sibling. Figure 2:
//!   "External markers ... have been replaced with sibling pointers."
//!
//! The node's *directly contained* space is its rectangle minus everything
//! delegated sideways — a "holey brick". When a fragment is cut by a split
//! hyperplane, a `Child` leaf whose region straddles the plane is **clipped**
//! (§3.2.2): the term lands in both halves and is marked multi-parent.

use pitree_pagestore::{KeyRef, PageId, StoreError, StoreResult};

/// Number of attributes (dimensions).
pub const DIMS: usize = 2;

/// A point in attribute space.
pub type Point = [u64; DIMS];

/// Encode a point as a sortable record key.
pub fn point_key(p: &Point) -> [u8; 16] {
    let mut k = [0; 16];
    for (half, c) in k.chunks_exact_mut(8).zip(p) {
        half.copy_from_slice(&c.to_be_bytes());
    }
    k
}

/// Decode a record key back into a point; a key of any length but 16 bytes
/// is corrupt.
pub fn key_point(k: KeyRef<'_>) -> StoreResult<Point> {
    let b: [u8; 16] = k
        .to_array()
        .ok_or_else(|| StoreError::Corrupt(format!("point key of {} bytes", k.len())))?;
    let (x, y) = b.split_at(8);
    let half = |h: &[u8]| u64::from_be_bytes(h.try_into().expect("a 16-byte key halves into 8s"));
    Ok([half(x), half(y)])
}

/// A half-open axis-aligned rectangle `lo ≤ p < hi`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rect {
    /// Inclusive lower corner.
    pub lo: Point,
    /// Exclusive upper corner.
    pub hi: Point,
}

impl Rect {
    /// The whole attribute space.
    pub fn all() -> Rect {
        Rect {
            lo: [0; DIMS],
            hi: [u64::MAX; DIMS],
        }
    }

    /// Whether `p` lies inside.
    pub fn contains(&self, p: &Point) -> bool {
        (0..DIMS).all(|d| self.lo[d] <= p[d] && p[d] < self.hi[d])
    }

    /// Whether the interiors intersect.
    pub fn intersects(&self, o: &Rect) -> bool {
        (0..DIMS).all(|d| self.lo[d] < o.hi[d] && o.lo[d] < self.hi[d])
    }

    /// Whether `o` is fully inside `self`.
    pub fn contains_rect(&self, o: &Rect) -> bool {
        (0..DIMS).all(|d| self.lo[d] <= o.lo[d] && o.hi[d] <= self.hi[d])
    }

    /// Whether the rectangle is degenerate (empty).
    pub fn is_empty(&self) -> bool {
        (0..DIMS).any(|d| self.lo[d] >= self.hi[d])
    }

    /// Area, exact in u128 for two dimensions; an inverted side counts as
    /// empty.
    pub fn area(&self) -> u128 {
        (0..DIMS)
            .map(|d| u128::from(self.hi[d].saturating_sub(self.lo[d])))
            .product()
    }

    /// The half of `self` below / at-or-above `val` on `dim`.
    pub fn half(&self, dim: usize, val: u64, high: bool) -> Rect {
        let mut r = self.clone();
        if high {
            r.lo[dim] = r.lo[dim].max(val);
        } else {
            r.hi[dim] = r.hi[dim].min(val);
        }
        r
    }

    /// Encode.
    pub fn encode(&self, out: &mut Vec<u8>) {
        for c in self.lo.iter().chain(self.hi.iter()) {
            out.extend_from_slice(&c.to_le_bytes());
        }
    }

    /// Decode, advancing `pos`.
    pub fn decode(bytes: &[u8], pos: &mut usize) -> StoreResult<Rect> {
        if *pos + 32 > bytes.len() {
            return Err(StoreError::Corrupt("truncated rect".into()));
        }
        let mut vals = [0u64; 4];
        for v in vals.iter_mut() {
            *v = u64::from_le_bytes(bytes[*pos..*pos + 8].try_into().unwrap());
            *pos += 8;
        }
        Ok(Rect {
            lo: [vals[0], vals[1]],
            hi: [vals[2], vals[3]],
        })
    }
}

/// What a fragment leaf delegates to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PtrKind {
    /// Delegated down: an index term.
    Child,
    /// Delegated sideways: a sibling term.
    Sibling,
}

/// A kd-tree fragment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frag {
    /// Internal kd node: left subtree covers `< val` on `dim`, right covers
    /// `≥ val`.
    Split {
        /// Splitting attribute.
        dim: u8,
        /// Splitting value.
        val: u64,
        /// Low side.
        lo: Box<Frag>,
        /// High side.
        hi: Box<Frag>,
    },
    /// Space belonging to this node directly.
    Local,
    /// Space delegated via a pointer; `multi_parent` is the §3.3 clipping
    /// marker (meaningful for `Child` pointers).
    Ptr {
        /// Down or sideways.
        kind: PtrKind,
        /// The referenced node.
        pid: PageId,
        /// Set when this term was clipped into more than one parent.
        multi_parent: bool,
    },
}

impl Frag {
    /// A child-pointer leaf.
    pub fn child(pid: PageId) -> Frag {
        Frag::Ptr {
            kind: PtrKind::Child,
            pid,
            multi_parent: false,
        }
    }

    /// A sibling-pointer leaf.
    pub fn sibling(pid: PageId) -> Frag {
        Frag::Ptr {
            kind: PtrKind::Sibling,
            pid,
            multi_parent: false,
        }
    }

    /// Resolve `p` (inside `rect`) to the leaf owning it, returning the leaf
    /// and its region. Only tests call this: it is the reference the header
    /// sweep checks [`crate::HbView::locate`] against, which every read path
    /// uses.
    pub fn locate(&self, rect: &Rect, p: &Point) -> (&Frag, Rect) {
        match self {
            Frag::Split { dim, val, lo, hi } => {
                if p[*dim as usize] < *val {
                    lo.locate(&rect.half(*dim as usize, *val, false), p)
                } else {
                    hi.locate(&rect.half(*dim as usize, *val, true), p)
                }
            }
            leaf => (leaf, rect.clone()),
        }
    }

    /// Visit every leaf with its region.
    pub fn leaves<'a>(&'a self, rect: &Rect, out: &mut Vec<(&'a Frag, Rect)>) {
        match self {
            Frag::Split { dim, val, lo, hi } => {
                lo.leaves(&rect.half(*dim as usize, *val, false), out);
                hi.leaves(&rect.half(*dim as usize, *val, true), out);
            }
            leaf => out.push((leaf, rect.clone())),
        }
    }

    /// Clip the fragment to one side of the hyperplane `dim = val`. A `Ptr`
    /// leaf whose region straddles the plane appears in **both** halves —
    /// §3.2.2's clipping; `mark_clipped` records the multi-parent marker on
    /// clipped `Child` leaves (collected into `clipped`).
    pub fn clip(
        &self,
        rect: &Rect,
        dim: usize,
        val: u64,
        high: bool,
        clipped: &mut Vec<PageId>,
    ) -> Frag {
        match self {
            Frag::Split {
                dim: d2,
                val: v2,
                lo,
                hi,
            } => {
                let d2u = *d2 as usize;
                let lo_rect = rect.half(d2u, *v2, false);
                let hi_rect = rect.half(d2u, *v2, true);
                let keep_lo = !lo_rect.half(dim, val, high).is_empty();
                let keep_hi = !hi_rect.half(dim, val, high).is_empty();
                match (keep_lo, keep_hi) {
                    (true, true) => Frag::Split {
                        dim: *d2,
                        val: *v2,
                        lo: Box::new(lo.clip(&lo_rect, dim, val, high, clipped)),
                        hi: Box::new(hi.clip(&hi_rect, dim, val, high, clipped)),
                    },
                    (true, false) => lo.clip(&lo_rect, dim, val, high, clipped),
                    (false, true) => hi.clip(&hi_rect, dim, val, high, clipped),
                    (false, false) => Frag::Local, // degenerate; unreachable for sane cuts
                }
            }
            Frag::Local => Frag::Local,
            Frag::Ptr {
                kind,
                pid,
                multi_parent,
            } => {
                // Does this leaf's region straddle the plane?
                let this_side = !rect.half(dim, val, high).is_empty();
                debug_assert!(this_side, "clip visited a leaf with no area on this side");
                let other = !rect.half(dim, val, !high).is_empty();
                let mp = *multi_parent || (other && *kind == PtrKind::Child);
                if other && *kind == PtrKind::Child && !clipped.contains(pid) {
                    clipped.push(*pid);
                }
                Frag::Ptr {
                    kind: *kind,
                    pid: *pid,
                    multi_parent: mp,
                }
            }
        }
    }

    /// Replace, within the region `target`, every `Child(old)` leaf by
    /// `Child(new)` — refining leaves that only partially overlap `target`
    /// with new kd splits. This is how an hB index term is **posted**: the
    /// parent's fragment learns that `new` now owns `target` (previously
    /// part of `old`'s space). Returns whether anything changed.
    pub fn post(&mut self, rect: &Rect, old: PageId, new: PageId, target: &Rect) -> bool {
        match self {
            Frag::Split { dim, val, lo, hi } => {
                let d = *dim as usize;
                let lo_rect = rect.half(d, *val, false);
                let hi_rect = rect.half(d, *val, true);
                let mut changed = false;
                if lo_rect.intersects(target) {
                    changed |= lo.post(&lo_rect, old, new, target);
                }
                if hi_rect.intersects(target) {
                    changed |= hi.post(&hi_rect, old, new, target);
                }
                changed
            }
            Frag::Ptr {
                kind: PtrKind::Child,
                pid,
                multi_parent,
            } if *pid == old => {
                if target.contains_rect(rect) {
                    *self = Frag::Ptr {
                        kind: PtrKind::Child,
                        pid: new,
                        multi_parent: *multi_parent,
                    };
                    return true;
                }
                // Partial overlap: carve `target ∩ rect` out of this leaf
                // with up to 2·DIMS nested splits.
                let mp = *multi_parent;
                let mut region = rect.clone();
                let mut build: Vec<(u8, u64, bool)> = Vec::new(); // (dim, val, new-side-is-high)
                for d in 0..DIMS {
                    if target.lo[d] > region.lo[d] {
                        build.push((d as u8, target.lo[d], true));
                        region.lo[d] = target.lo[d];
                    }
                    if target.hi[d] < region.hi[d] {
                        build.push((d as u8, target.hi[d], false));
                        region.hi[d] = target.hi[d];
                    }
                }
                let mut frag = Frag::Ptr {
                    kind: PtrKind::Child,
                    pid: new,
                    multi_parent: mp,
                };
                for (d, v, new_high) in build.into_iter().rev() {
                    let old_leaf = Frag::Ptr {
                        kind: PtrKind::Child,
                        pid: old,
                        multi_parent: mp,
                    };
                    frag = if new_high {
                        Frag::Split {
                            dim: d,
                            val: v,
                            lo: Box::new(old_leaf),
                            hi: Box::new(frag),
                        }
                    } else {
                        Frag::Split {
                            dim: d,
                            val: v,
                            lo: Box::new(frag),
                            hi: Box::new(old_leaf),
                        }
                    };
                }
                *self = frag;
                true
            }
            _ => false,
        }
    }

    /// Number of nodes in the fragment (size control).
    pub fn size(&self) -> usize {
        match self {
            Frag::Split { lo, hi, .. } => 1 + lo.size() + hi.size(),
            _ => 1,
        }
    }

    /// Encode.
    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Frag::Split { dim, val, lo, hi } => {
                out.push(0);
                out.push(*dim);
                out.extend_from_slice(&val.to_le_bytes());
                lo.encode(out);
                hi.encode(out);
            }
            Frag::Local => out.push(1),
            Frag::Ptr {
                kind,
                pid,
                multi_parent,
            } => {
                out.push(2);
                out.push(match kind {
                    PtrKind::Child => 0,
                    PtrKind::Sibling => 1,
                });
                out.extend_from_slice(&pid.0.to_le_bytes());
                out.push(*multi_parent as u8);
            }
        }
    }

    /// Decode, advancing `pos`.
    pub fn decode(bytes: &[u8], pos: &mut usize) -> StoreResult<Frag> {
        let tag = *bytes
            .get(*pos)
            .ok_or_else(|| StoreError::Corrupt("truncated fragment".into()))?;
        *pos += 1;
        match tag {
            0 => {
                if *pos + 9 > bytes.len() {
                    return Err(StoreError::Corrupt("truncated kd split".into()));
                }
                let dim = bytes[*pos];
                if usize::from(dim) >= DIMS {
                    return Err(StoreError::Corrupt(format!("kd split on dimension {dim}")));
                }
                *pos += 1;
                let val = u64::from_le_bytes(bytes[*pos..*pos + 8].try_into().unwrap());
                *pos += 8;
                let lo = Box::new(Frag::decode(bytes, pos)?);
                let hi = Box::new(Frag::decode(bytes, pos)?);
                Ok(Frag::Split { dim, val, lo, hi })
            }
            1 => Ok(Frag::Local),
            2 => {
                if *pos + 10 > bytes.len() {
                    return Err(StoreError::Corrupt("truncated kd pointer".into()));
                }
                let kind = match bytes[*pos] {
                    0 => PtrKind::Child,
                    1 => PtrKind::Sibling,
                    x => return Err(StoreError::Corrupt(format!("bad ptr kind {x}"))),
                };
                *pos += 1;
                let pid = PageId(u64::from_le_bytes(
                    bytes[*pos..*pos + 8].try_into().unwrap(),
                ));
                *pos += 8;
                let multi_parent = bytes[*pos] != 0;
                *pos += 1;
                Ok(Frag::Ptr {
                    kind,
                    pid,
                    multi_parent,
                })
            }
            t => Err(StoreError::Corrupt(format!("bad fragment tag {t}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rect(lo: [u64; 2], hi: [u64; 2]) -> Rect {
        Rect { lo, hi }
    }

    #[test]
    fn rect_basics() {
        let r = rect([0, 0], [10, 10]);
        assert!(r.contains(&[0, 0]) && r.contains(&[9, 9]));
        assert!(!r.contains(&[10, 0]) && !r.contains(&[0, 10]));
        assert!(r.intersects(&rect([5, 5], [15, 15])));
        assert!(
            !r.intersects(&rect([10, 0], [20, 10])),
            "half-open edges do not touch"
        );
        assert!(r.contains_rect(&rect([2, 2], [8, 8])));
        assert_eq!(r.area(), 100);
        assert_eq!(r.half(0, 4, false), rect([0, 0], [4, 10]));
        assert_eq!(r.half(0, 4, true), rect([4, 0], [10, 10]));
    }

    #[test]
    fn point_key_roundtrip_and_order() {
        let a = point_key(&[1, 2]);
        let b = point_key(&[1, 3]);
        let c = point_key(&[2, 0]);
        assert!(a < b && b < c);
        assert_eq!(key_point(KeyRef::new(&a)).unwrap(), [1, 2]);
        assert!(key_point(KeyRef::new(&a[1..])).is_err());
    }

    #[test]
    fn frag_codec_roundtrip() {
        let f = Frag::Split {
            dim: 0,
            val: 50,
            lo: Box::new(Frag::Local),
            hi: Box::new(Frag::Split {
                dim: 1,
                val: 30,
                lo: Box::new(Frag::child(PageId(7))),
                hi: Box::new(Frag::Ptr {
                    kind: PtrKind::Sibling,
                    pid: PageId(9),
                    multi_parent: true,
                }),
            }),
        };
        let mut buf = Vec::new();
        f.encode(&mut buf);
        let mut pos = 0;
        assert_eq!(Frag::decode(&buf, &mut pos).unwrap(), f);
        assert_eq!(pos, buf.len());
        assert_eq!(f.size(), 5);
    }

    #[test]
    fn locate_walks_kd_splits() {
        let f = Frag::Split {
            dim: 0,
            val: 50,
            lo: Box::new(Frag::Local),
            hi: Box::new(Frag::sibling(PageId(3))),
        };
        let space = rect([0, 0], [100, 100]);
        let (leaf, region) = f.locate(&space, &[10, 10]);
        assert_eq!(leaf, &Frag::Local);
        assert_eq!(region, rect([0, 0], [50, 100]));
        let (leaf, region) = f.locate(&space, &[60, 10]);
        assert_eq!(leaf, &Frag::sibling(PageId(3)));
        assert_eq!(region, rect([50, 0], [100, 100]));
    }

    #[test]
    fn leaves_partition_the_rect() {
        let f = Frag::Split {
            dim: 1,
            val: 40,
            lo: Box::new(Frag::child(PageId(1))),
            hi: Box::new(Frag::Split {
                dim: 0,
                val: 20,
                lo: Box::new(Frag::child(PageId(2))),
                hi: Box::new(Frag::Local),
            }),
        };
        let space = rect([0, 0], [100, 100]);
        let mut out = Vec::new();
        f.leaves(&space, &mut out);
        assert_eq!(out.len(), 3);
        let total: u128 = out.iter().map(|(_, r)| r.area()).sum();
        assert_eq!(total, space.area());
    }

    #[test]
    fn clip_splits_local_space() {
        let f = Frag::Local;
        let space = rect([0, 0], [100, 100]);
        let mut clipped = Vec::new();
        let lo = f.clip(&space, 0, 50, false, &mut clipped);
        let hi = f.clip(&space, 0, 50, true, &mut clipped);
        assert_eq!(lo, Frag::Local);
        assert_eq!(hi, Frag::Local);
        assert!(clipped.is_empty());
    }

    #[test]
    fn clip_marks_straddling_children_multi_parent() {
        // Child covers y < 40 across all x; a cut at x=50 clips it (§3.2.2).
        let f = Frag::Split {
            dim: 1,
            val: 40,
            lo: Box::new(Frag::child(PageId(7))),
            hi: Box::new(Frag::Local),
        };
        let space = rect([0, 0], [100, 100]);
        let mut clipped = Vec::new();
        let lo = f.clip(&space, 0, 50, false, &mut clipped);
        let hi = f.clip(&space, 0, 50, true, &mut clipped);
        assert_eq!(clipped, vec![PageId(7)], "the child term was clipped");
        for side in [&lo, &hi] {
            let mut leaves = Vec::new();
            side.leaves(&rect([0, 0], [50, 100]), &mut leaves);
            let has_mp_child = leaves.iter().any(|(l, _)| {
                matches!(l, Frag::Ptr { kind: PtrKind::Child, pid, multi_parent: true } if *pid == PageId(7))
            });
            assert!(
                has_mp_child,
                "both halves must carry the clipped child, marked"
            );
        }
    }

    #[test]
    fn clip_drops_subtrees_entirely_on_the_other_side() {
        let f = Frag::Split {
            dim: 0,
            val: 50,
            lo: Box::new(Frag::child(PageId(1))),
            hi: Box::new(Frag::child(PageId(2))),
        };
        let space = rect([0, 0], [100, 100]);
        let mut clipped = Vec::new();
        let lo = f.clip(&space, 0, 50, false, &mut clipped);
        assert_eq!(
            lo,
            Frag::child(PageId(1)),
            "aligned cut keeps exactly one side"
        );
        assert!(clipped.is_empty());
    }

    #[test]
    fn post_replaces_contained_child_leaf() {
        let mut f = Frag::Split {
            dim: 0,
            val: 50,
            lo: Box::new(Frag::child(PageId(1))),
            hi: Box::new(Frag::child(PageId(2))),
        };
        let space = rect([0, 0], [100, 100]);
        // Node 3 took over the whole high half of node 2's region.
        assert!(f.post(&space, PageId(2), PageId(3), &rect([50, 0], [100, 100])));
        let (leaf, _) = f.locate(&space, &[60, 10]);
        assert_eq!(leaf, &Frag::child(PageId(3)));
        let (leaf, _) = f.locate(&space, &[10, 10]);
        assert_eq!(leaf, &Frag::child(PageId(1)), "other child untouched");
    }

    #[test]
    fn post_refines_partially_overlapping_leaf() {
        let mut f = Frag::child(PageId(1));
        let space = rect([0, 0], [100, 100]);
        // Node 9 owns an interior sub-rectangle: the leaf must be refined.
        let target = rect([25, 25], [75, 75]);
        assert!(f.post(&space, PageId(1), PageId(9), &target));
        // All corners still route to 1; the center routes to 9.
        for p in [[0, 0], [99, 0], [0, 99], [99, 99]] {
            let (leaf, _) = f.locate(&space, &p);
            assert_eq!(leaf, &Frag::child(PageId(1)), "corner {p:?}");
        }
        let (leaf, _) = f.locate(&space, &[50, 50]);
        assert_eq!(leaf, &Frag::child(PageId(9)));
        // Regions still partition the space.
        let mut leaves = Vec::new();
        f.leaves(&space, &mut leaves);
        let total: u128 = leaves.iter().map(|(_, r)| r.area()).sum();
        assert_eq!(total, space.area());
    }

    #[test]
    fn post_is_idempotent_when_already_posted() {
        let mut f = Frag::child(PageId(9));
        let space = rect([0, 0], [100, 100]);
        assert!(!f.post(&space, PageId(1), PageId(9), &rect([0, 0], [50, 100])));
    }
}
