//! hB-tree structure changes: hyperplane splits of data and index nodes
//! (with clipping) and root growth — the geometry the engine's independent
//! split and posting actions run.

use crate::geometry::{key_point, Frag, Point, PtrKind, Rect, DIMS};
use crate::node::HbHeader;
use crate::tree::HbEngine;
use pitree::engine::{move_entries, new_node, set_header};
use pitree_pagestore::buffer::PinnedPage;
use pitree_pagestore::latch::XGuard;
use pitree_pagestore::page::Page;
use pitree_pagestore::{PageId, PageOp, StoreError, StoreResult};
use pitree_txnlock::NoWait;

/// Choose a hyperplane for a data node: the dimension and median coordinate
/// giving the most balanced record partition with both sides non-empty.
fn choose_data_cut(points: &[Point]) -> StoreResult<(usize, u64)> {
    let mut best: Option<(usize, u64, usize)> = None; // (dim, val, min-side)
    for dim in 0..DIMS {
        let mut coords: Vec<u64> = points.iter().map(|p| p[dim]).collect();
        coords.sort_unstable();
        coords.dedup();
        if coords.len() < 2 {
            continue;
        }
        let val = coords[coords.len() / 2].max(coords[1]);
        let lo = points.iter().filter(|p| p[dim] < val).count();
        let hi = points.len() - lo;
        let score = lo.min(hi);
        if best.map(|(_, _, s)| score > s).unwrap_or(true) {
            best = Some((dim, val, score));
        }
    }
    best.map(|(d, v, _)| (d, v))
        .ok_or_else(|| StoreError::Corrupt("cannot cut: all points identical".into()))
}

/// Choose a hyperplane for an index node from its fragment-leaf boundaries,
/// preferring cuts that balance leaf counts and minimize clipping.
fn choose_index_cut(leaves: &[(Rect, bool)]) -> StoreResult<(usize, u64)> {
    // (region, is_child) pairs; candidate cuts are region boundaries.
    let mut best: Option<(usize, u64, i64)> = None;
    for dim in 0..DIMS {
        let mut cands: Vec<u64> = leaves
            .iter()
            .flat_map(|(r, _)| [r.lo[dim], r.hi[dim]])
            .filter(|&v| v != 0 && v != u64::MAX)
            .collect();
        cands.sort_unstable();
        cands.dedup();
        for &val in &cands {
            let lo = leaves.iter().filter(|(r, _)| r.hi[dim] <= val).count() as i64;
            let hi = leaves.iter().filter(|(r, _)| r.lo[dim] >= val).count() as i64;
            let straddle = leaves.len() as i64 - lo - hi;
            // Each side must get at least one whole leaf, or the split may
            // fail to shrink the fragment (a clipped sliver is not progress).
            // The fragment's own root split always satisfies this, so a
            // viable cut always exists for fragments with ≥ 2 leaves.
            if lo == 0 || hi == 0 {
                continue;
            }
            // Prefer balance, penalize clipping.
            let score = lo.min(hi) - 2 * straddle;
            if best.map(|(_, _, s)| score > s).unwrap_or(true) {
                best = Some((dim, val, score));
            }
        }
    }
    best.map(|(d, v, _)| (d, v))
        .ok_or_else(|| StoreError::Corrupt("no viable index cut".into()))
}

/// §3.2.1 / §3.2.2 for hB nodes: cut the node's space by a hyperplane. A
/// data node moves the records on the high side; an index node clips its
/// straddling child terms into both halves (`clip` sets their multi-parent
/// markers, §3.3). Either way the old fragment gains a split whose high
/// side is the sibling term — Figure 2's "one child of the root points to
/// the new sibling". Returns the new node and its rectangle.
pub(crate) fn raw_split(
    tree: &HbEngine,
    act: &mut NoWait<'_, '_>,
    page: &PinnedPage<'_>,
    g: &mut XGuard<'_, Page>,
    hdr: &HbHeader,
) -> StoreResult<(PageId, Rect)> {
    let points: Vec<Point> = (1..g.slot_count())
        .map(|s| key_point(g.entry_key_at(s)))
        .collect::<StoreResult<_>>()?;
    let (dim, val) = if hdr.level == 0 {
        choose_data_cut(&points)?
    } else {
        let mut leaves = Vec::new();
        hdr.frag.leaves(&hdr.rect, &mut leaves);
        let leaf_info: Vec<(Rect, bool)> = leaves
            .into_iter()
            .map(|(l, r)| {
                let is_child = matches!(
                    l,
                    Frag::Ptr {
                        kind: PtrKind::Child,
                        ..
                    }
                );
                (r, is_child)
            })
            .collect();
        choose_index_cut(&leaf_info)?
    };

    let mut clipped = Vec::new();
    let new_frag = hdr.frag.clip(&hdr.rect, dim, val, true, &mut clipped);
    let old_lo = hdr.frag.clip(&hdr.rect, dim, val, false, &mut clipped);
    debug_assert!(
        hdr.level > 0 || clipped.is_empty(),
        "data fragments have no child terms to clip"
    );

    let new_rect = hdr.rect.half(dim, val, true);
    let new_hdr = HbHeader {
        level: hdr.level,
        rect: new_rect.clone(),
        frag: new_frag,
    };
    let (new_pin, mut ng) = new_node(tree.store(), act, new_hdr.encode())?;
    let new_pid = new_pin.id();

    // Move the records on the high side (index nodes have none).
    let (keys, entries): (Vec<Vec<u8>>, Vec<Vec<u8>>) = (1..g.slot_count())
        .zip(&points)
        .filter(|(_, p)| p[dim] >= val)
        .map(|(s, _)| (g.entry_key_at(s).to_vec(), g.entry_at(s)))
        .unzip();
    if !entries.is_empty() {
        act.apply(&new_pin, &mut ng, PageOp::KeyedInsertMany { entries })?;
        act.apply(page, g, PageOp::KeyedRemoveMany { keys })?;
    }
    let old_hdr = HbHeader {
        level: hdr.level,
        rect: hdr.rect.clone(),
        frag: Frag::Split {
            dim: dim as u8,
            val,
            lo: Box::new(old_lo),
            hi: Box::new(Frag::sibling(new_pid)),
        },
    };
    set_header(act, page, g, old_hdr.encode())?;
    tree.stats().splits.inc();
    Ok((new_pid, new_rect))
}

/// Grow the tree at the fixed root: the root's header (and, for a data
/// root, its records) move wholesale to a fresh child n1, the root rises one
/// level holding a single child term, then n1 splits and the pair of index
/// terms is posted inline (§5.3) — unless n1's fragment is too small to cut.
pub(crate) fn grow_root(
    tree: &HbEngine,
    act: &mut NoWait<'_, '_>,
    page: &PinnedPage<'_>,
    g: &mut XGuard<'_, Page>,
    hdr: &HbHeader,
) -> StoreResult<()> {
    let (n1_pin, mut n1g) = new_node(tree.store(), act, hdr.encode())?;
    let n1_pid = n1_pin.id();
    let n = g.entry_count();
    move_entries(act, page, g, &n1_pin, &mut n1g, 1..=n)?;
    let mut root_hdr = HbHeader {
        level: hdr.level + 1,
        rect: hdr.rect.clone(),
        frag: Frag::child(n1_pid),
    };
    set_header(act, page, g, root_hdr.encode())?;
    if hdr.level == 0 || hdr.frag.size() >= 3 {
        let (n2_pid, n2_rect) = raw_split(tree, act, &n1_pin, &mut n1g, hdr)?;
        let rect = root_hdr.rect.clone();
        root_hdr.frag.post(&rect, n1_pid, n2_pid, &n2_rect);
        set_header(act, page, g, root_hdr.encode())?;
    }
    tree.stats().root_grows.inc();
    Ok(())
}
