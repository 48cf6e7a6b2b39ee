//! Well-formedness checking — the six invariants of §2.1.3, written once
//! for every structure.
//!
//! Every atomic action must leave the tree well-formed; the test suite and
//! the crash-recovery experiments call [`Engine::validate`] after every
//! interesting event (including right after recovery, and with completions
//! deliberately unrun, so *intermediate* states are checked too).
//!
//! A structure only describes a node ([`Structure::describe`]) and compares
//! regions ([`Space`]). The walk follows every [`Term`] from the root, as a
//! searcher can, and checks that (1) each node is an allocated node page
//! with sound entries; (2) each sibling term references a node of its level
//! responsible for the space it delegates, and no chain of them leads back;
//! (3) each index term references a node one level down responsible for the
//! term's space; (4) what a level's nodes directly contain tiles the whole
//! space; (5) the lowest level is level 0; (6) the root is responsible for
//! the whole space. It counts nodes reached only by a sibling term, and
//! children of several index terms, all of which must carry §3.3's
//! multi-parent marker.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing,
    clippy::disallowed_macros
)]

use crate::bound::KeyBound;
use crate::engine::{Engine, Structure};
use crate::node::IndexTerm;
use pitree_pagestore::page::{Page, PageType, HEADER_SIZE};
use pitree_pagestore::{PageId, StoreResult, PAGE_SIZE};
use std::cmp::Ordering;
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};

/// How full one level of a tree is, as its pages say — not as the file size
/// suggests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LevelFill {
    /// The level (0 for data nodes).
    pub level: u8,
    /// Nodes on the level.
    pub nodes: usize,
    /// Their [`Page::used_space`], summed.
    pub used_bytes: usize,
    /// `(used bytes, keyed entries)` of the emptiest node (fewer entries
    /// first on a tie) other than the level's end that loads still fill;
    /// `None` for a one-node level.
    pub emptiest: Option<(usize, usize)>,
}

impl LevelFill {
    /// An empty tally for `level`.
    pub fn new(level: u8) -> LevelFill {
        LevelFill {
            level,
            nodes: 0,
            used_bytes: 0,
            emptiest: None,
        }
    }

    /// Count `page`; `filling` says it is the level's end that loads still
    /// fill.
    pub fn add(&mut self, page: &Page, filling: bool) {
        let used = page.used_space();
        self.nodes += 1;
        self.used_bytes += used;
        if !filling {
            let node = (used, usize::from(page.entry_count()));
            self.emptiest = Some(self.emptiest.map_or(node, |e| e.min(node)));
        }
    }

    /// Mean fraction of the level's page capacity in use.
    pub fn fill(&self) -> f64 {
        self.used_bytes as f64 / (self.nodes.max(1) * (PAGE_SIZE - HEADER_SIZE)) as f64
    }

    /// Fraction of its page the [`LevelFill::emptiest`] node uses.
    pub fn emptiest_fill(&self) -> Option<f64> {
        let (used, _) = self.emptiest?;
        Some(used as f64 / (PAGE_SIZE - HEADER_SIZE) as f64)
    }
}

impl std::fmt::Display for LevelFill {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "L{} {} nodes {:.1}% full",
            self.level,
            self.nodes,
            100.0 * self.fill()
        )
    }
}

/// The per-level fill of a tree on one line, root level first.
pub fn fill_line(levels: &[LevelFill]) -> String {
    let parts: Vec<String> = levels.iter().map(LevelFill::to_string).collect();
    parts.join(", ")
}

/// What is wrong with `page`'s stored key prefix, if anything: it must be
/// what the codec's rule derives from the node's first and last keys. The
/// walk asks this of every node.
pub fn prefix_violation(pid: PageId, page: &Page) -> Option<String> {
    let (stored, shared) = (page.key_prefix().len(), page.canonical_prefix_len());
    (stored != shared).then(|| {
        format!("node {pid}: stored key prefix of {stored} bytes, but its first and last keys share {shared}")
    })
}

/// The walk's findings, the same for every structure.
#[derive(Debug, Default)]
pub struct WellFormedReport {
    /// Node count and fill per level, root level first; history nodes are
    /// left out.
    pub levels: Vec<LevelFill>,
    /// Entries in data nodes: records (TSB: versions, an alive-at-split
    /// copy counted in each node holding it).
    pub records: usize,
    /// Nodes reached only through a sibling term — their index term is not
    /// posted yet: the paper's intermediate states.
    pub unposted_nodes: usize,
    /// TSB history nodes: the nodes history terms reference.
    pub history_nodes: usize,
    /// Nodes more than one index term references (hB's clipped terms).
    pub multi_parent_nodes: usize,
    /// Invariant violations, empty iff the tree is well-formed.
    pub violations: Vec<String>,
}

impl WellFormedReport {
    /// Whether all invariants hold.
    pub fn is_well_formed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// How a term delegates the region it names (§2.1.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TermKind {
    /// An index term, down to a node one level below; `true` is §3.3's
    /// multi-parent marker, set on a term clipped into several parents.
    Child(bool),
    /// A sibling term, sideways to a node of the same level.
    Side,
    /// A TSB history term (Figure 1): the node's space before its time
    /// interval, to a history node of the same level.
    History,
}

impl TermKind {
    /// A term of this kind referencing `target`, naming `region`.
    pub fn to<R>(self, target: PageId, region: R) -> Term<R> {
        Term {
            kind: self,
            target,
            region,
        }
    }
}

impl std::fmt::Display for TermKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            TermKind::Child(_) => "child",
            TermKind::Side => "sibling",
            TermKind::History => "history node",
        })
    }
}

/// One index, sibling or history term of a node.
#[derive(Debug, Clone)]
pub struct Term<R> {
    /// How it delegates.
    pub kind: TermKind,
    /// The node it references.
    pub target: PageId,
    /// The region it names.
    pub region: R,
}

/// What [`Structure::describe`] says about one node.
#[derive(Debug, Clone)]
pub struct Description<R> {
    /// Level: 0 for data nodes, parents one higher.
    pub level: u8,
    /// The region [`Space::covers`] checks the node's referrers against.
    pub region: R,
    /// The pieces of the space the node directly contains.
    pub owns: Vec<R>,
    /// Its index, sibling and history terms.
    pub terms: Vec<Term<R>>,
    /// What is wrong with the node's own entries.
    pub findings: Vec<String>,
}

/// The regions one structure's nodes and terms name (§2.1.1).
pub trait Space: Clone + PartialEq + std::fmt::Debug {
    /// The whole space, which the root is responsible for.
    fn whole() -> Self;
    /// Whether a node of region `self` is responsible for the region `term`
    /// that a term of `kind` referencing it names.
    fn covers(&self, kind: TermKind, term: &Self) -> bool;
    /// Report in `v` what is wrong with `owned`, the pieces one level's
    /// nodes directly contain, as a tiling of the whole space.
    fn tiling(level: u8, owned: Vec<(PageId, Self)>, v: &mut Vec<String>);
    /// Whether a node of region `self` is its level's end that loads still
    /// fill, left out of [`LevelFill::emptiest`].
    fn still_filling(&self) -> bool {
        false
    }
}

/// A key interval `[low, high)` whose time ends at `until` (`u64::MAX`: it
/// has not ended): a B-link node's region, and a TSB node's in (key × time)
/// space.
#[derive(Clone, PartialEq, Eq)]
pub struct KeyRange {
    /// Inclusive low bound.
    pub low: KeyBound,
    /// Exclusive high bound.
    pub high: KeyBound,
    /// Exclusive end of the time the region covers.
    pub until: u64,
}

impl KeyRange {
    /// `[low, high)` for all time.
    pub fn new(low: KeyBound, high: KeyBound) -> KeyRange {
        let until = u64::MAX;
        KeyRange { low, high, until }
    }
}

impl std::fmt::Debug for KeyRange {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}, {})", self.low, self.high)?;
        match self.until {
            u64::MAX => Ok(()),
            t => write!(f, " before t{t}"),
        }
    }
}

impl Space for KeyRange {
    fn whole() -> KeyRange {
        KeyRange::new(KeyBound::NegInf, KeyBound::PosInf)
    }

    /// A node answers, through its sibling terms, for everything from its
    /// low bound up: a child or history node starts at or below its term, a
    /// sibling exactly where the delegated space starts, and each ends when
    /// the term's time does (a history node where its referrer's begins).
    fn covers(&self, kind: TermKind, term: &KeyRange) -> bool {
        let low = self.low.cmp_bound(&term.low);
        let until = self.until == term.until;
        match kind {
            TermKind::Side => low == Ordering::Equal && until,
            TermKind::Child(_) | TermKind::History => low != Ordering::Greater && until,
        }
    }

    fn tiling(level: u8, mut owned: Vec<(PageId, KeyRange)>, v: &mut Vec<String>) {
        owned.sort_by(|(_, a), (_, b)| a.low.cmp_bound(&b.low));
        let mut prev = KeyBound::NegInf;
        for (pid, r) in owned {
            let low = &r.low;
            if *low != prev {
                v.push(format!(
                    "node {pid}: low {low} != previous node's high {prev}"
                ));
            }
            if low.cmp_bound(&r.high) != Ordering::Less {
                v.push(format!("node {pid}: empty bounds {r:?}"));
            }
            prev = r.high;
        }
        if prev != KeyBound::PosInf {
            v.push(format!("level {level} ends at {prev}, not +inf"));
        }
    }

    /// Ascending loads append to the interval running to +∞.
    fn still_filling(&self) -> bool {
        self.high == KeyBound::PosInf
    }
}

/// Describe a node directly containing the key interval `region` — a
/// B-link node, or a TSB node over its key dimension — with its sibling
/// term `side` and, above level 0, its `(low key, child)` index terms.
/// Findings: entries ascend inside `region` (a data node's keys compared
/// without their last `time_bytes` bytes, a TSB version's start time), and
/// an index node's first term sits at its low bound (invariant 4).
pub fn describe_keyed(
    page: &Page,
    pid: PageId,
    level: u8,
    region: KeyRange,
    side: PageId,
    time_bytes: usize,
) -> StoreResult<Description<KeyRange>> {
    let (mut f, mut terms) = (Vec::new(), Vec::new());
    let strip = if level == 0 { time_bytes } else { 0 };
    // Backwards: each index term's region ends where the next one's begins.
    let (mut next, mut high) = (None, region.high.clone());
    for slot in (1..page.slot_count()).rev() {
        let key = page.entry_key_at(slot);
        if next.is_some_and(|n| n <= key) {
            f.push(format!("node {pid}: entries out of order at slot {slot}"));
        }
        next = Some(key);
        let k = key.split_at(key.len().saturating_sub(strip)).0.to_vec();
        if !(region.low.le_key(&k) && region.high.gt_key(&k)) {
            f.push(format!("node {pid}: entry key {k:02x?} outside {region:?}"));
        }
        if level > 0 {
            let low = Some(k).filter(|k| !k.is_empty());
            let low = low.map_or(KeyBound::NegInf, KeyBound::Key);
            let child = IndexTerm::child_at(page, slot)?;
            let named = KeyRange::new(low.clone(), high);
            terms.push(TermKind::Child(false).to(child, named));
            high = low;
        }
    }
    terms.reverse();
    if level > 0 && terms.first().is_none_or(|t| t.region.low != region.low) {
        f.push(format!("index node {pid}: no term at its low bound"));
    }
    if side.is_valid() {
        let (low, high, until) = (region.high.clone(), KeyBound::PosInf, region.until);
        terms.push(TermKind::Side.to(side, KeyRange { low, high, until }));
    }
    let (owns, findings) = (vec![region.clone()], f);
    Ok(Description {
        level,
        region,
        owns,
        terms,
        findings,
    })
}

impl<S: Structure> Engine<S> {
    /// Check the well-formedness invariants of §2.1.3 (see
    /// [`crate::wellformed`]). Latches one node at a time in S mode and
    /// writes nothing; run it on a quiescent tree for exact results.
    pub fn validate(&self) -> StoreResult<WellFormedReport> {
        let (pool, space) = (&self.store().pool, &self.store().space);
        let mut report = WellFormedReport::default();
        // The space map the walk consults must itself hold.
        let mut v = space.violations(pool)?;
        let budget = space.allocated_count(pool)? + 8;
        let (mut nodes, mut levels) = (BTreeMap::new(), BTreeMap::new());
        let (mut seen, mut history) = (HashSet::new(), HashSet::new());
        let mut queue = VecDeque::from([self.root_pid()]);
        while let Some(pid) = queue.pop_front() {
            if !seen.insert(pid) {
                continue;
            }
            if seen.len() as u64 > budget {
                v.push(format!("the walk reached over {budget} nodes"));
                break;
            }
            let pin = pool.fetch(pid)?;
            let g = pin.s();
            if g.page_type()? != PageType::Node || g.is_freed() {
                v.push(format!("node {pid} is not an allocated node page"));
                continue;
            }
            if !space.is_allocated(pool, pid)? {
                v.push(format!("node {pid} is not allocated in the space map"));
            }
            let described = S::describe(&g, pid).map_err(|e| v.push(format!("node {pid}: {e}")));
            let Ok(mut node) = described else {
                continue;
            };
            v.extend(prefix_violation(pid, &g));
            v.append(&mut node.findings);
            if node.level == 0 {
                report.records += usize::from(g.entry_count());
            }
            for t in &node.terms {
                if t.kind == TermKind::History {
                    history.insert(t.target);
                }
                queue.push_back(t.target);
            }
            if !history.contains(&pid) {
                let level = node.level;
                let empty = || (LevelFill::new(level), Vec::new());
                let (fill, owned) = levels.entry(level).or_insert_with(empty);
                fill.add(&g, node.region.still_filling());
                owned.extend(node.owns.drain(..).map(|r| (pid, r)));
            }
            nodes.insert(pid, node);
        }
        for (level, (mut fill, owned)) in levels.into_iter().rev() {
            S::Space::tiling(level, owned, &mut v);
            if fill.nodes == 1 {
                fill.emptiest = None;
            }
            report.levels.push(fill);
        }
        report.history_nodes = history.len();

        let mut parents = BTreeMap::new(); // child → (index terms, all marked)
        let mut siblings = HashSet::new();
        for (pid, node) in &nodes {
            for t in &node.terms {
                let Some(to) = nodes.get(&t.target) else {
                    continue; // reported when the walk reached it
                };
                let (kind, target) = (t.kind, t.target);
                let down = u8::from(matches!(kind, TermKind::Child(_)));
                if node.level.checked_sub(down) != Some(to.level) {
                    let (level, at) = (node.level, to.level);
                    v.push(format!(
                        "node {pid} at level {level}: {kind} {target} at {at}"
                    ));
                }
                if !to.region.covers(kind, &t.region) {
                    let (region, named) = (&to.region, &t.region);
                    v.push(format!(
                        "node {pid}: {kind} {target} of {region:?} is not responsible for {named:?}"
                    ));
                }
                if let TermKind::Child(marked) = kind {
                    let (refs, all) = parents.entry(target).or_insert((0usize, true));
                    (*refs, *all) = (*refs + 1, *all && marked);
                } else if kind == TermKind::Side {
                    siblings.insert(target);
                }
            }
        }
        for (child, (refs, marked)) in &parents {
            if *refs > 1 {
                report.multi_parent_nodes += 1;
                if !marked {
                    v.push(format!("child {child}: {refs} parents, not all marked"));
                }
            }
        }
        let root = self.root_pid();
        let unposted = siblings.iter().filter(|s| !parents.contains_key(*s));
        report.unposted_nodes = unposted.filter(|s| **s != root).count();
        if let Some(r) = nodes.get(&root) {
            if r.region != S::Space::whole() || r.terms.iter().any(|t| t.kind == TermKind::Side) {
                v.push(format!("root {root} must span the whole space, no sibling"));
            }
        }
        sideways_cycles(&nodes, &mut v);
        report.violations = v;
        Ok(report)
    }
}

/// Sibling and history terms delegate part of a node's space, so no chain
/// of them leads back to the node: every node one does lead back to.
fn sideways_cycles<R>(nodes: &BTreeMap<PageId, Description<R>>, v: &mut Vec<String>) {
    let sideways = |pid: PageId| -> Vec<PageId> {
        let terms = nodes.get(&pid).into_iter().flat_map(|n| &n.terms);
        let sideways = terms.filter(|t| !matches!(t.kind, TermKind::Child(_)));
        sideways.map(|t| t.target).collect()
    };
    // A depth-first search from every node; `false` while on the path.
    let mut done = HashMap::new();
    let mut path = vec![(PageId::INVALID, nodes.keys().copied().collect::<Vec<_>>())];
    while let Some((pid, targets)) = path.last_mut() {
        let Some(next) = targets.pop() else {
            done.insert(*pid, true);
            path.pop();
            continue;
        };
        match done.get(&next) {
            Some(false) => v.push(format!("node {next}: its sibling terms lead back to it")),
            Some(true) => {}
            None => {
                done.insert(next, false);
                path.push((next, sideways(next)));
            }
        }
    }
}
