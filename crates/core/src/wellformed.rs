//! Well-formedness checking — the six invariants of §2.1.3.
//!
//! Every atomic action must leave the tree well-formed; the test suite and
//! the crash-recovery experiments call [`check`] after every interesting
//! event (including right after recovery, and with completions deliberately
//! unrun, to confirm that *intermediate* states are well-formed too).
//!
//! The checker walks each level's side chain from its first node, so it sees
//! exactly what a searcher can reach, and verifies:
//!
//! 1. each node is responsible for a subspace (bounds sane, level correct);
//! 2. each sibling term delegates a subspace of its containing node
//!    (side node's low == delegating node's high);
//! 3. each index term references a node responsible for a space containing
//!    the term's subspace (child low ≤ term key, reachable coverage);
//! 4. index/sibling terms of a node cover its responsibility (first term at
//!    the node's low bound, chain contiguous);
//! 5. the lowest level consists of data nodes (level 0);
//! 6. a root exists responsible for the entire space.

use crate::bound::KeyBound;
use crate::node::{IndexTerm, NodeHeader};
use crate::tree::PiTree;
use pitree_pagestore::page::{Page, PageType, HEADER_SIZE};
use pitree_pagestore::{PageId, StoreResult, PAGE_SIZE};

/// How full one level of a tree is, as its pages say — not as the file size
/// suggests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LevelFill {
    /// The level (0 for data nodes).
    pub level: u8,
    /// Nodes on the level's side chain.
    pub nodes: usize,
    /// Their [`Page::used_space`], summed.
    pub used_bytes: usize,
    /// `(used bytes, keyed entries)` of the emptiest node other than the
    /// chain's last, which is still filling; `None` for a one-node level.
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

    /// Count `page`; `last` says it ends the level's chain.
    pub fn add(&mut self, page: &Page, last: bool) {
        let used = page.used_space();
        self.nodes += 1;
        self.used_bytes += used;
        if !last && self.emptiest.is_none_or(|(u, _)| used < u) {
            self.emptiest = Some((used, page.entry_count() as usize));
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
/// what the codec's rule derives from the node's first and last keys. Every
/// structure's checker asks this of every keyed node.
pub fn prefix_violation(pid: PageId, page: &Page) -> Option<String> {
    let (stored, shared) = (page.key_prefix().len(), page.canonical_prefix_len());
    (stored != shared).then(|| {
        format!("node {pid}: stored key prefix of {stored} bytes, but its first and last keys share {shared}")
    })
}

/// The checker's findings.
#[derive(Debug, Default)]
pub struct WellFormedReport {
    /// Node count and fill per level, root level first.
    pub levels: Vec<LevelFill>,
    /// Total data records found on the leaf chain.
    pub records: usize,
    /// Nodes whose index term has not been posted yet (reachable only via a
    /// side pointer) — the paper's intermediate states.
    pub unposted_nodes: usize,
    /// Invariant violations, empty iff the tree is well-formed.
    pub violations: Vec<String>,
}

impl WellFormedReport {
    /// Whether all invariants hold.
    pub fn is_well_formed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Run the checker. Latches one node at a time in S mode; run it on a
/// quiescent tree for exact results.
pub fn check(tree: &PiTree) -> StoreResult<WellFormedReport> {
    let mut report = WellFormedReport::default();
    let pool = &tree.store().pool;
    // The space map the reachability checks below consult must itself hold.
    let mut violations = tree.store().space.violations(pool)?;

    // Invariant 6: the root exists and is responsible for the whole space.
    let root_hdr = {
        let root = pool.fetch(tree.root_pid())?;
        let g = root.s();
        let hdr = NodeHeader::read(&g)?;
        if hdr.low != KeyBound::NegInf || hdr.high != KeyBound::PosInf {
            violations.push(format!(
                "root bounds are [{}, {}), expected (-inf, +inf)",
                hdr.low, hdr.high
            ));
        }
        if hdr.side.is_valid() {
            violations.push("root has a side pointer".into());
        }
        hdr
    };

    // Walk each level left-to-right. The first node of level L is found via
    // the leftmost index term of the first node of level L+1.
    let mut first_of_level = tree.root_pid();
    let mut level = root_hdr.level;
    let node_budget = tree.store().space.allocated_count(pool)? as usize + 8;
    loop {
        let mut fill = LevelFill::new(level);
        let mut posted: Vec<(Vec<u8>, PageId)> = Vec::new(); // index terms of this level's parent
        if level < root_hdr.level {
            // Collect the parent level's index terms (posted children).
            let mut p = first_parent_scan(tree, level + 1, &mut violations)?;
            posted.append(&mut p);
        }

        let mut cur = first_of_level;
        let mut prev_high = KeyBound::NegInf;
        let mut leftmost_child = PageId::INVALID;
        let mut steps = 0usize;
        loop {
            steps += 1;
            if steps > node_budget {
                violations.push(format!(
                    "side chain at level {level} exceeds node budget (cycle?)"
                ));
                break;
            }
            let pin = pool.fetch(cur)?;
            let g = pin.s();
            if g.page_type()? != PageType::Node || g.is_freed() {
                violations.push(format!(
                    "reachable node {cur} is not an allocated node page"
                ));
                break;
            }
            if !tree.store().space.is_allocated(pool, cur)? {
                violations.push(format!(
                    "node {cur} reachable but not allocated in the space map"
                ));
            }
            let hdr = NodeHeader::read(&g)?;
            if hdr.level != level {
                violations.push(format!(
                    "node {cur} has level {}, expected {level}",
                    hdr.level
                ));
            }
            // Invariant 1/2: bounds form a contiguous partition of the space.
            if hdr.low.cmp_bound(&prev_high) != std::cmp::Ordering::Equal && fill.nodes > 0 {
                violations.push(format!(
                    "node {cur}: low {} != previous node's high {}",
                    hdr.low, prev_high
                ));
            }
            if fill.nodes == 0 && hdr.low != KeyBound::NegInf {
                violations.push(format!(
                    "first node {cur} of level {level} has low {}",
                    hdr.low
                ));
            }
            if hdr.low.cmp_bound(&hdr.high) != std::cmp::Ordering::Less {
                violations.push(format!(
                    "node {cur}: empty or inverted bounds [{}, {})",
                    hdr.low, hdr.high
                ));
            }

            // Entries sorted and within bounds, under the prefix the codec's
            // rule derives.
            violations.extend(prefix_violation(cur, &g));
            let mut prev_key: Option<Vec<u8>> = None;
            for slot in 1..g.slot_count() {
                let k = &g.entry_key_at(slot).to_vec()[..];
                if !hdr.low.le_key(k) || !hdr.high.gt_key(k) {
                    violations.push(format!(
                        "node {cur}: entry key {k:02x?} outside [{}, {})",
                        hdr.low, hdr.high
                    ));
                }
                if let Some(pk) = &prev_key {
                    if pk.as_slice() >= k {
                        violations.push(format!("node {cur}: entries out of order at slot {slot}"));
                    }
                }
                prev_key = Some(k.to_vec());
                if hdr.level == 0 {
                    report.records += 1;
                } else {
                    // Invariant 3: the child is responsible for a space
                    // containing the term's subspace.
                    let term = IndexTerm::read(&g, slot)?;
                    let cp = pool.fetch(term.child)?;
                    let cg = cp.s();
                    if cg.page_type()? != PageType::Node || cg.is_freed() {
                        violations.push(format!(
                            "node {cur}: index term {k:02x?} references de-allocated node {}",
                            term.child
                        ));
                        continue;
                    }
                    let chdr = NodeHeader::read(&cg)?;
                    if chdr.level + 1 != hdr.level {
                        violations.push(format!(
                            "node {cur}: child {} at level {}, parent at {}",
                            term.child, chdr.level, hdr.level
                        ));
                    }
                    if !(chdr.low.le_key(k) || (chdr.low == KeyBound::NegInf && k.is_empty())) {
                        violations.push(format!(
                            "node {cur}: child {} low {} above term key {k:02x?}",
                            term.child, chdr.low
                        ));
                    }
                }
            }
            // Invariant 4: the node's terms cover its directly-contained
            // space — the first index term must sit at the node's low bound.
            if hdr.level > 0 {
                if g.slot_count() <= 1 {
                    violations.push(format!("index node {cur} has no index terms"));
                } else {
                    let first_key = g.entry_key_at(1);
                    if first_key != hdr.low.as_entry_key() {
                        violations.push(format!(
                            "index node {cur}: first term key {first_key:02x?} != low bound {}",
                            hdr.low
                        ));
                    }
                    if fill.nodes == 0 {
                        leftmost_child = IndexTerm::read(&g, 1)?.child;
                    }
                }
            }

            fill.add(&g, !hdr.side.is_valid());
            // Intermediate-state accounting: a non-first node is unposted if
            // the parent level lacks a term for it.
            if level < root_hdr.level && hdr.low != KeyBound::NegInf {
                let key = hdr.low.as_entry_key();
                if !posted.iter().any(|(k, p)| k.as_slice() == key && *p == cur) {
                    report.unposted_nodes += 1;
                }
            }
            prev_high = hdr.high.clone();
            if !hdr.side.is_valid() {
                if hdr.high != KeyBound::PosInf {
                    violations.push(format!(
                        "rightmost node {cur} of level {level} has high {}",
                        hdr.high
                    ));
                }
                break;
            }
            cur = hdr.side;
        }
        report.levels.push(fill);

        if level == 0 {
            break;
        }
        if !leftmost_child.is_valid() {
            violations.push(format!("level {level} has no leftmost child to descend to"));
            break;
        }
        first_of_level = leftmost_child;
        level -= 1;
    }

    report.violations = violations;
    Ok(report)
}

/// Collect all `(term key, child)` pairs of the given level (used to count
/// unposted children one level below).
fn first_parent_scan(
    tree: &PiTree,
    level: u8,
    violations: &mut Vec<String>,
) -> StoreResult<Vec<(Vec<u8>, PageId)>> {
    let pool = &tree.store().pool;
    // Find the first node of `level` by descending leftmost terms from the
    // root.
    let mut cur = tree.root_pid();
    loop {
        let pin = pool.fetch(cur)?;
        let g = pin.s();
        let hdr = NodeHeader::read(&g)?;
        if hdr.level == level {
            break;
        }
        if hdr.level == 0 || g.slot_count() <= 1 {
            violations.push(format!("cannot reach level {level} from the root"));
            return Ok(Vec::new());
        }
        cur = IndexTerm::read(&g, 1)?.child;
    }
    let mut out = Vec::new();
    let mut steps = 0usize;
    let budget = tree.store().space.allocated_count(pool)? as usize + 8;
    loop {
        steps += 1;
        if steps > budget {
            violations.push(format!("parent scan at level {level} exceeded budget"));
            break;
        }
        let pin = pool.fetch(cur)?;
        let g = pin.s();
        let hdr = NodeHeader::read(&g)?;
        for slot in 1..g.slot_count() {
            let term = IndexTerm::read(&g, slot)?;
            out.push((term.key, term.child));
        }
        if !hdr.side.is_valid() {
            break;
        }
        cur = hdr.side;
    }
    Ok(out)
}
