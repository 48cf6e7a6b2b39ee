//! TSB-tree structural validation.
//!
//! Checks, on top of the generic Π-tree invariants (§2.1.3) applied to the
//! key dimension:
//!
//! * the current data chain partitions the key space;
//! * each history chain runs backward through time-contiguous intervals
//!   (`follower.t_hi == node.t_lo`) whose key rectangles contain the
//!   referrer's;
//! * versions are sorted, inside their node's key rectangle, and a current
//!   node keeps **at most one version per key from before its `t_lo`** (the
//!   alive-at-split copy);
//! * index terms reference live current nodes responsible at the term key.

use crate::node::{split_version_key, Time, TsbHeader, TsbKind};
use crate::tree::TsbTree;
use pitree::bound::KeyBound;
use pitree::node::IndexTerm;
use pitree::wellformed::{prefix_violation, LevelFill};
use pitree_pagestore::page::{KeyRef, Page, PageType};
use pitree_pagestore::{PageId, StoreResult};
use std::collections::HashSet;

/// The TSB checker's findings.
#[derive(Debug, Default)]
pub struct TsbReport {
    /// Current data nodes on the key chain.
    pub current_nodes: usize,
    /// History nodes reachable from current nodes.
    pub history_nodes: usize,
    /// Node count and fill per level of the key dimension, root first:
    /// the index levels, then the current data chain as level 0.
    pub levels: Vec<LevelFill>,
    /// Total version entries across all reachable data nodes (with
    /// alive-at-split duplicates counted once per node).
    pub versions: usize,
    /// Current nodes lacking a parent index term (intermediate states).
    pub unposted_nodes: usize,
    /// Invariant violations; empty iff well-formed.
    pub violations: Vec<String>,
}

impl TsbReport {
    /// Whether all invariants hold.
    pub fn is_well_formed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Validate `tree` (run quiesced for exact results).
pub fn check(tree: &TsbTree) -> StoreResult<TsbReport> {
    let mut r = TsbReport::default();
    let pool = &tree.store().pool;
    let mut v = Vec::new();

    // Walk index levels from the root down to level 1, gathering posted
    // child terms per level.
    let root_hdr = {
        let pin = pool.fetch(tree.root_pid())?;
        let g = pin.s();
        TsbHeader::read(&g)?
    };
    if root_hdr.key_low != KeyBound::NegInf || root_hdr.key_high != KeyBound::PosInf {
        v.push("root does not cover the whole key space".into());
    }

    let mut first_of_level = tree.root_pid();
    let mut posted: Vec<(Vec<u8>, PageId)> = Vec::new();
    for level in (1..=root_hdr.level).rev() {
        // Find the first node of this level.
        let mut cur = first_of_level;
        loop {
            let pin = pool.fetch(cur)?;
            let g = pin.s();
            let hdr = TsbHeader::read(&g)?;
            if hdr.level == level {
                break;
            }
            cur = IndexTerm::read(&g, 1)?.child;
        }
        first_of_level = cur;
        let mut fill = LevelFill::new(level);
        let mut prev_high = KeyBound::NegInf;
        posted.clear();
        loop {
            let pin = pool.fetch(cur)?;
            let g = pin.s();
            let hdr = TsbHeader::read(&g)?;
            if hdr.kind != TsbKind::Index {
                v.push(format!("node {cur} at level {level} is not an index node"));
            }
            if fill.nodes == 0 && hdr.key_low != KeyBound::NegInf {
                v.push(format!("first index node {cur} low is {}", hdr.key_low));
            }
            if fill.nodes > 0 && hdr.key_low.cmp_bound(&prev_high) != std::cmp::Ordering::Equal {
                v.push(format!("index chain gap at {cur}"));
            }
            v.extend(prefix_violation(cur, &g));
            for slot in 1..g.slot_count() {
                let term = IndexTerm::read(&g, slot)?;
                if !hdr.contains_key(&term.key) {
                    v.push(format!(
                        "index node {cur}: term key {:02x?} outside [{}, {})",
                        term.key, hdr.key_low, hdr.key_high
                    ));
                }
                posted.push((term.key.clone(), term.child));
                let cp = pool.fetch(term.child)?;
                let cg = cp.s();
                let chdr = TsbHeader::read(&cg)?;
                if chdr.level + 1 != level {
                    v.push(format!("index node {cur}: child level mismatch"));
                }
                if !term.key.is_empty() && !chdr.key_low.le_key(&term.key) {
                    v.push(format!("index node {cur}: child low above term key"));
                }
            }
            fill.add(&g, !hdr.key_side.is_valid());
            prev_high = hdr.key_high.clone();
            if !hdr.key_side.is_valid() {
                if hdr.key_high != KeyBound::PosInf {
                    v.push(format!(
                        "rightmost index node {cur} high is {}",
                        hdr.key_high
                    ));
                }
                break;
            }
            cur = hdr.key_side;
        }
        r.levels.push(fill);
        // Descend for the next level's first node.
        let pin = pool.fetch(first_of_level)?;
        let g = pin.s();
        first_of_level = IndexTerm::read(&g, 1)?.child;
    }

    // Walk the current data chain.
    let mut cur = first_of_level;
    let mut prev_high = KeyBound::NegInf;
    let mut seen_hist: HashSet<PageId> = HashSet::new();
    let mut fill = LevelFill::new(0);
    loop {
        let pin = pool.fetch(cur)?;
        let g = pin.s();
        if g.page_type()? != PageType::Node {
            v.push(format!("data node {cur} has wrong page type"));
            break;
        }
        let hdr = TsbHeader::read(&g)?;
        if hdr.kind != TsbKind::Current || hdr.level != 0 {
            v.push(format!(
                "node {cur} on the current chain is not a current data node"
            ));
        }
        if r.current_nodes == 0 && hdr.key_low != KeyBound::NegInf {
            v.push(format!("first current node {cur} low is {}", hdr.key_low));
        }
        if r.current_nodes > 0 && hdr.key_low.cmp_bound(&prev_high) != std::cmp::Ordering::Equal {
            v.push(format!("current chain gap at {cur}"));
        }
        check_versions(&g, &hdr, cur, &mut r, &mut v)?;
        if root_hdr.level > 0 && hdr.key_low != KeyBound::NegInf {
            let key = hdr.key_low.as_entry_key();
            if !posted.iter().any(|(k, p)| k.as_slice() == key && *p == cur) {
                r.unposted_nodes += 1;
            }
        }
        // Walk this node's history chain.
        let mut hist = hdr.hist_side;
        let mut t_hi_expect = hdr.t_lo;
        while hist.is_valid() {
            let hp = pool.fetch(hist)?;
            let hg = hp.s();
            let hh = TsbHeader::read(&hg)?;
            if hh.kind != TsbKind::History {
                v.push(format!(
                    "history pointer from {cur} reaches non-history node {hist}"
                ));
                break;
            }
            if hh.t_hi != t_hi_expect {
                v.push(format!(
                    "history chain of {cur}: node {hist} covers ..{} but follower starts at {}",
                    hh.t_hi, t_hi_expect
                ));
            }
            // The history rectangle must contain the referrer's key space at
            // its time (it was cut from a node responsible for at least this
            // key range).
            if hh.key_low.cmp_bound(&hdr.key_low) == std::cmp::Ordering::Greater {
                v.push(format!("history node {hist} key_low above referrer's"));
            }
            if seen_hist.insert(hist) {
                r.history_nodes += 1;
                check_versions(&hg, &hh, hist, &mut r, &mut v)?;
            }
            t_hi_expect = hh.t_lo;
            hist = hh.hist_side;
        }
        r.current_nodes += 1;
        fill.add(&g, !hdr.key_side.is_valid());
        prev_high = hdr.key_high.clone();
        if !hdr.key_side.is_valid() {
            if hdr.key_high != KeyBound::PosInf {
                v.push(format!(
                    "rightmost current node {cur} high is {}",
                    hdr.key_high
                ));
            }
            break;
        }
        cur = hdr.key_side;
    }

    r.levels.push(fill);
    r.violations = v;
    Ok(r)
}

fn check_versions(
    g: &Page,
    hdr: &TsbHeader,
    pid: PageId,
    r: &mut TsbReport,
    v: &mut Vec<String>,
) -> StoreResult<()> {
    v.extend(prefix_violation(pid, g));
    let mut prev: Option<KeyRef<'_>> = None;
    let mut pre_tlo_for_key: Option<(Vec<u8>, usize)> = None;
    for slot in 1..g.slot_count() {
        let vkey = g.entry_key_at(slot);
        let (k, t) = split_version_key(vkey);
        let k = &k.to_vec()[..];
        if !hdr.contains_key(k) {
            v.push(format!(
                "node {pid}: version key {k:02x?} outside rectangle"
            ));
        }
        if prev.is_some_and(|p| p >= vkey) {
            v.push(format!("node {pid}: versions out of order at slot {slot}"));
        }
        prev = Some(vkey);
        let t_cap = if hdr.kind == TsbKind::History {
            hdr.t_hi
        } else {
            Time::MAX
        };
        if t >= t_cap {
            v.push(format!("node {pid}: version time {t} at/after node t_hi"));
        }
        if t < hdr.t_lo {
            // Allowed only as the single alive-at-split copy per key.
            match &mut pre_tlo_for_key {
                Some((pk, n)) if pk.as_slice() == k => {
                    *n += 1;
                    if *n > 1 {
                        v.push(format!(
                            "node {pid}: {n} pre-t_lo versions of key {k:02x?} (max 1)"
                        ));
                    }
                }
                _ => pre_tlo_for_key = Some((k.to_vec(), 1)),
            }
        }
        r.versions += 1;
    }
    Ok(())
}
