//! hB-tree structural validation: exact geometric partition checks.
//!
//! Per level, the union of that level's *owned* regions must tile the whole
//! space exactly — Local leaf regions at the data level, Child leaf regions
//! at index levels — with no overlap (checked by exact area arithmetic plus
//! pairwise intersection tests). Records must lie inside one of their
//! node's Local regions, and multi-parent children must carry the §3.3
//! marker in every parent that references them.

use crate::geometry::{key_point, Frag, PtrKind, Rect};
use crate::node::HbHeader;
use crate::tree::HbTree;
use pitree::wellformed::{prefix_violation, LevelFill};
use pitree_pagestore::page::PageType;
use pitree_pagestore::{PageId, StoreResult};
use std::collections::{HashMap, HashSet, VecDeque};

/// The hB checker's findings.
#[derive(Debug, Default)]
pub struct HbReport {
    /// Node count and fill per level, root level first. hB levels have no
    /// chain end that is still filling, so only a lone node is left out of
    /// [`LevelFill::emptiest`].
    pub levels: Vec<LevelFill>,
    /// Total point records.
    pub records: usize,
    /// Children referenced by more than one parent (clipped terms).
    pub multi_parent_nodes: usize,
    /// Sibling-only nodes (reachable but not yet posted in any parent).
    pub unposted_nodes: usize,
    /// Violations; empty iff well-formed.
    pub violations: Vec<String>,
}

impl HbReport {
    /// Whether all invariants hold.
    pub fn is_well_formed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Validate `tree` (run quiesced).
pub fn check(tree: &HbTree) -> StoreResult<HbReport> {
    let mut r = HbReport::default();
    let mut v = Vec::new();
    let pool = &tree.store().pool;

    // BFS the whole graph, bucketing nodes by level.
    let mut by_level: HashMap<u8, Vec<PageId>> = HashMap::new();
    let mut queue = VecDeque::from([tree.root_pid()]);
    let mut seen = HashSet::new();
    // parent-reference count and posted-set per child.
    let mut child_refs: HashMap<PageId, usize> = HashMap::new();
    let mut mp_marked: HashMap<PageId, bool> = HashMap::new();
    let mut sibling_targets: HashSet<PageId> = HashSet::new();

    while let Some(pid) = queue.pop_front() {
        if !seen.insert(pid) {
            continue;
        }
        let pin = pool.fetch(pid)?;
        let g = pin.s();
        if g.page_type()? != PageType::Node {
            v.push(format!("reachable page {pid} is not a node"));
            continue;
        }
        let hdr = HbHeader::read(&g)?;
        by_level.entry(hdr.level).or_default().push(pid);

        let mut leaves = Vec::new();
        hdr.frag.leaves(&hdr.rect, &mut leaves);
        // Leaf regions partition the node's rect.
        let area: u128 = leaves.iter().map(|(_, rect)| rect.area()).sum();
        if area != hdr.rect.area() {
            v.push(format!("node {pid}: fragment areas do not sum to the rect"));
        }
        for (leaf, region) in &leaves {
            if region.is_empty() {
                v.push(format!("node {pid}: empty fragment region"));
            }
            match leaf {
                Frag::Local => {
                    if hdr.level != 0 {
                        v.push(format!("index node {pid} has Local space"));
                    }
                }
                Frag::Ptr {
                    kind,
                    pid: target,
                    multi_parent,
                } => {
                    queue.push_back(*target);
                    match kind {
                        PtrKind::Child => {
                            *child_refs.entry(*target).or_insert(0) += 1;
                            let e = mp_marked.entry(*target).or_insert(true);
                            *e = *e && *multi_parent;
                            // Child level must be one below.
                            let cp = pool.fetch(*target)?;
                            let cg = cp.s();
                            let ch = HbHeader::read(&cg)?;
                            if ch.level + 1 != hdr.level {
                                v.push(format!(
                                    "node {pid}: child {target} level {} under level {}",
                                    ch.level, hdr.level
                                ));
                            }
                            if !ch.rect.intersects(region) {
                                v.push(format!(
                                    "node {pid}: child {target} rect disjoint from its term region"
                                ));
                            }
                        }
                        PtrKind::Sibling => {
                            sibling_targets.insert(*target);
                            let sp = pool.fetch(*target)?;
                            let sg = sp.s();
                            let sh = HbHeader::read(&sg)?;
                            if sh.level != hdr.level {
                                v.push(format!("node {pid}: sibling {target} at different level"));
                            }
                            if !sh.rect.contains_rect(region) {
                                v.push(format!(
                                    "node {pid}: sibling {target} not responsible for the \
                                     delegated region"
                                ));
                            }
                        }
                    }
                }
                Frag::Split { .. } => unreachable!("leaves() yields leaves"),
            }
        }

        // Records live inside a Local region, under the prefix the codec's
        // rule derives.
        v.extend(prefix_violation(pid, &g));
        if hdr.level == 0 {
            for slot in 1..g.slot_count() {
                let p = key_point(g.entry_key_at(slot))?;
                let (leaf, _) = hdr.frag.locate(&hdr.rect, &p);
                if !matches!(leaf, Frag::Local) {
                    v.push(format!("node {pid}: record {p:?} outside Local space"));
                }
                if !hdr.rect.contains(&p) {
                    v.push(format!("node {pid}: record {p:?} outside node rect"));
                }
                r.records += 1;
            }
        }
    }

    // Per-level exact tiling of the whole space by owned regions.
    let mut levels: Vec<u8> = by_level.keys().copied().collect();
    levels.sort_unstable_by(|a, b| b.cmp(a));
    for &level in &levels {
        let nodes = &by_level[&level];
        let mut fill = LevelFill::new(level);
        let mut owned: Vec<Rect> = Vec::new();
        for &pid in nodes {
            let pin = pool.fetch(pid)?;
            let g = pin.s();
            fill.add(&g, nodes.len() == 1);
            let hdr = HbHeader::read(&g)?;
            let mut leaves = Vec::new();
            hdr.frag.leaves(&hdr.rect, &mut leaves);
            for (leaf, region) in leaves {
                let owns = match leaf {
                    Frag::Local => level == 0,
                    Frag::Ptr {
                        kind: PtrKind::Child,
                        ..
                    } => true,
                    _ => false,
                };
                if owns {
                    owned.push(region);
                }
            }
        }
        let total: u128 = owned.iter().map(|r| r.area()).sum();
        if total != Rect::all().area() {
            v.push(format!(
                "level {level}: owned regions cover {total} of {} area units",
                Rect::all().area()
            ));
        }
        for i in 0..owned.len() {
            for j in i + 1..owned.len() {
                if owned[i].intersects(&owned[j]) {
                    v.push(format!(
                        "level {level}: overlapping owned regions {:?} and {:?}",
                        owned[i], owned[j]
                    ));
                }
            }
        }
        r.levels.push(fill);
    }

    // Multi-parent accounting (§3.3): every child referenced by 2+ parents
    // must be marked in all of them.
    for (child, refs) in &child_refs {
        if *refs > 1 {
            r.multi_parent_nodes += 1;
            if !mp_marked[child] {
                v.push(format!(
                    "child {child} has {refs} parents but lacks the multi-parent marker somewhere"
                ));
            }
        }
    }
    // Sibling-reachable nodes with no parent reference are unposted
    // intermediate states.
    for s in &sibling_targets {
        if !child_refs.contains_key(s) && *s != tree.root_pid() {
            r.unposted_nodes += 1;
        }
    }

    r.violations = v;
    Ok(r)
}
