//! How the well-formedness walk (`pitree::Engine::validate`) sees a TSB
//! node: over its key dimension a B-link node whose region's time ends at
//! `t_hi`, plus a history term delegating its key space before `t_lo`
//! (Figure 1), which a history node ending exactly at `t_lo` must answer.
//! A data node's versions start before `t_hi`, and it keeps at most one
//! version per key from before its `t_lo` (the alive-at-split copy).

use crate::node::{split_version_key, TsbHeader, TsbKind};
use pitree::wellformed::{describe_keyed, Description, KeyRange, TermKind};
use pitree_pagestore::page::Page;
use pitree_pagestore::{PageId, StoreResult};

/// Describe the TSB node `page` (id `pid`).
pub(crate) fn describe(page: &Page, pid: PageId) -> StoreResult<Description<KeyRange>> {
    let h = TsbHeader::read(page)?;
    let (low, high, until, kind, level) = (h.key_low, h.key_high, h.t_hi, h.kind, h.level);
    let region = KeyRange { low, high, until };
    let mut node = describe_keyed(page, pid, level, region, h.key_side, 8)?;
    let f = &mut node.findings;
    if (kind == TsbKind::Index) != (level > 0) {
        f.push(format!("node {pid}: a {kind:?} node at level {level}"));
    }
    if h.hist_side.is_valid() {
        let mut before = node.region.clone();
        before.until = h.t_lo;
        node.terms.push(TermKind::History.to(h.hist_side, before));
    }
    // The key of the run of versions from before `t_lo`, and its length.
    let mut early = None;
    let versions = if level == 0 { page.slot_count() } else { 1 };
    for slot in 1..versions {
        let (key, t) = split_version_key(page.entry_key_at(slot));
        if t >= h.t_hi {
            f.push(format!("node {pid}: version time {t} at/after node t_hi"));
        }
        if t < h.t_lo {
            let n = early.filter(|(k, _)| *k == key).map_or(1, |(_, n)| n + 1);
            if n > 1 {
                let key = key.to_vec();
                f.push(format!(
                    "node {pid}: {n} pre-t_lo versions of key {key:02x?} (max 1)"
                ));
            }
            early = Some((key, n));
        }
    }
    Ok(node)
}
