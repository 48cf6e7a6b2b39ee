//! How the well-formedness walk (`pitree::Engine::validate`) sees an hB
//! node: its rectangle, cut by its kd fragment into what it directly
//! contains (`Local` leaves of a data node, `Child` leaves — index terms —
//! of an index node) and sibling terms. Each level must tile the whole
//! space exactly: areas sum in checked `u128`, and no two pieces meet.

use crate::geometry::{key_point, PtrKind, Rect};
use crate::node::{HbView, KdLeaf};
use pitree::wellformed::{Description, Space, TermKind};
use pitree_pagestore::page::Page;
use pitree_pagestore::{PageId, StoreResult};

/// The sum of the areas of `rects`, or `None` past `u128::MAX`.
fn total<'a>(rects: impl IntoIterator<Item = &'a Rect>) -> Option<u128> {
    let mut rects = rects.into_iter();
    rects.try_fold(0u128, |sum, r| sum.checked_add(r.area()))
}

/// Describe the hB node `page` (id `pid`) through its borrowed header; its
/// records must lie in `Local` space.
pub(crate) fn describe(page: &Page, pid: PageId) -> StoreResult<Description<Rect>> {
    let h = HbView::read(page)?;
    let (mut f, mut owns, mut terms) = (vec![], vec![], vec![]);
    let mut area = Some(0u128);
    h.leaves(|leaf, region| {
        area = area.and_then(|sum| sum.checked_add(region.area()));
        if region.is_empty() {
            f.push(format!("node {pid}: empty fragment region"));
        }
        match leaf {
            KdLeaf::Local if h.level() == 0 => owns.push(region),
            KdLeaf::Local => f.push(format!("index node {pid} has Local space")),
            KdLeaf::Ptr {
                kind: PtrKind::Child,
                pid,
                multi_parent,
            } => {
                owns.push(region.clone());
                terms.push(TermKind::Child(multi_parent).to(pid, region));
            }
            KdLeaf::Ptr { pid, .. } => terms.push(TermKind::Side.to(pid, region)),
        }
        Ok(())
    })?;
    if area != Some(h.rect().area()) {
        f.push(format!("node {pid}: fragment areas do not sum to the rect"));
    }
    let records = if h.level() == 0 { page.slot_count() } else { 1 };
    for slot in 1..records {
        let p = key_point(page.entry_key_at(slot))?;
        if h.locate(&p)?.0 != KdLeaf::Local {
            f.push(format!("node {pid}: record {p:?} outside Local space"));
        }
        if !h.rect().contains(&p) {
            f.push(format!("node {pid}: record {p:?} outside node rect"));
        }
    }
    Ok(Description {
        level: h.level(),
        region: h.rect().clone(),
        owns,
        terms,
        findings: f,
    })
}

impl Space for Rect {
    fn whole() -> Rect {
        Rect::all()
    }

    /// A sibling's rectangle holds the delegated region; a child's meets its
    /// term's, which clipping may have cut from a parent holding only part
    /// of the child's space.
    fn covers(&self, kind: TermKind, term: &Rect) -> bool {
        if kind == TermKind::Side {
            self.contains_rect(term)
        } else {
            self.intersects(term)
        }
    }

    fn tiling(level: u8, owned: Vec<(PageId, Rect)>, v: &mut Vec<String>) {
        let whole = Rect::all().area();
        let sum = total(owned.iter().map(|(_, r)| r));
        if sum != Some(whole) {
            let sum = sum.map_or("more than 2^128".into(), |s| s.to_string());
            v.push(format!(
                "level {level}: owned regions cover {sum} of {whole} area units"
            ));
        }
        for (i, (a, ra)) in owned.iter().enumerate() {
            for (b, rb) in owned.iter().skip(i + 1).filter(|(_, rb)| ra.intersects(rb)) {
                v.push(format!(
                    "level {level}: overlapping owned regions {ra:?} of node {a} and {rb:?} of node {b}"
                ));
            }
        }
    }
}
