//! Tree traversal (§3.1) with the latching discipline of §4.1/§5.2, and the
//! saved-path machinery of §5.2 — the one descent loop every Π-tree
//! structure runs.
//!
//! The traversal descends from the root following index terms; when a node's
//! directly-contained space does not include the search argument, it follows
//! sibling terms (§3.1). Following a sibling term is how intermediate states
//! are *detected* (§5.1): the structure's
//! [`Structure::side_traversal`] hook schedules the completing action.
//!
//! Latching depends on the structure's invariant:
//! * **CNS** (no consolidation): nodes are immortal; one latch at a time.
//! * **CP**: latch coupling — the latch on the referenced node is acquired
//!   before the latch on the referencing node is released.
//!
//! The loop itself is allocation-free (DESIGN.md §11): each hop is decided
//! by [`Structure::route`] under a scoped latch borrow, and the saved path
//! is an inline array.

use crate::engine::{Engine, Routed, Step, Structure};
use crate::node::Guarded;
use pitree_pagestore::buffer::PinnedPage;
use pitree_pagestore::{Lsn, PageId, PageType, StoreError, StoreResult};

/// One remembered step of a traversal: node, its state identifier at visit
/// time, and its level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathEntry {
    /// The visited node.
    pub pid: PageId,
    /// Its state identifier (page LSN) when visited.
    pub lsn: Lsn,
    /// Its level.
    pub level: u8,
}

impl PathEntry {
    const EMPTY: PathEntry = PathEntry {
        pid: PageId::INVALID,
        lsn: Lsn(0),
        level: 0,
    };
}

/// Maximum depth a [`SavedPath`] remembers. Sixteen levels covers any tree
/// this workspace can build (fanout ≥ 4 → 4^16 nodes); deeper entries are
/// silently dropped, which only costs a root re-traversal if a completing
/// action later asks for a level that was not saved (§5.2 fallback).
pub const SAVED_PATH_MAX: usize = 16;

/// The saved information of §5.2: "search key, nodes traversed on the path
/// from root to data node, and the location of the relevant index terms."
/// (We re-find in-node locations by binary search; saving slots buys little
/// at our node sizes.) Stored inline — pushing path entries during a descent
/// never touches the heap.
#[derive(Clone)]
pub struct SavedPath {
    entries: [PathEntry; SAVED_PATH_MAX],
    len: u8,
}

impl Default for SavedPath {
    fn default() -> SavedPath {
        SavedPath {
            entries: [PathEntry::EMPTY; SAVED_PATH_MAX],
            len: 0,
        }
    }
}

impl PartialEq for SavedPath {
    fn eq(&self, other: &SavedPath) -> bool {
        self.entries() == other.entries()
    }
}

impl Eq for SavedPath {}

impl std::fmt::Debug for SavedPath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SavedPath")
            .field("entries", &self.entries())
            .finish()
    }
}

impl SavedPath {
    /// Append an entry (root-first order). Entries past [`SAVED_PATH_MAX`]
    /// are dropped: the path is an optimization, and a missing level just
    /// means the consumer re-traverses from the root.
    pub fn push(&mut self, e: PathEntry) {
        if (self.len as usize) < SAVED_PATH_MAX {
            self.entries[self.len as usize] = e;
            self.len += 1;
        }
    }

    /// The remembered entries, ordered root-first.
    pub fn entries(&self) -> &[PathEntry] {
        &self.entries[..self.len as usize]
    }

    /// Whether nothing was remembered.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The saved entry at `level`, if any.
    pub fn at_level(&self, level: u8) -> Option<&PathEntry> {
        self.entries().iter().find(|e| e.level == level)
    }

    /// Entries strictly above `level` (for scheduling postings one level up).
    pub fn above(&self, level: u8) -> SavedPath {
        let mut out = SavedPath::default();
        for e in self.entries() {
            if e.level > level {
                out.push(*e);
            }
        }
        out
    }
}

/// Result of a descent: the target node pinned and latched, its level, and
/// the saved path of the levels above it.
///
/// The target's header is *not* materialized here — callers derive a
/// borrowed header view from the guard when they need bounds.
pub struct DescentTarget<'a> {
    /// Pin on the target node.
    pub page: PinnedPage<'a>,
    /// Latch guard (S, or U when `update_at_target` was requested).
    pub guard: Guarded<'a>,
    /// Level of the target node.
    pub level: u8,
    /// Saved path (levels above the target).
    pub path: SavedPath,
}

impl std::fmt::Debug for DescentTarget<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DescentTarget").finish_non_exhaustive()
    }
}

/// Latch `page` in S or U mode.
fn latch<'a>(page: &PinnedPage<'a>, update: bool) -> Guarded<'a> {
    if update {
        Guarded::U(page.u())
    } else {
        Guarded::S(page.s())
    }
}

/// Move from the node latched by `prev` to `next`: under latch coupling the
/// new latch is taken before the old one is released, otherwise after.
pub fn step_to<'a>(
    prev: Guarded<'_>,
    next: &PinnedPage<'a>,
    update: bool,
    coupling: bool,
) -> Guarded<'a> {
    if coupling {
        let g = latch(next, update);
        drop(prev);
        g
    } else {
        drop(prev);
        latch(next, update)
    }
}

impl<S: Structure> Engine<S> {
    /// Descend from the root to the node at `target_level` whose directly
    /// contained space includes `arg`, following sibling terms as needed.
    ///
    /// With `update_at_target`, the target node is U-latched (§5.3: "When
    /// the LEVEL is reached, U-latches are used, possibly traversing side
    /// pointers until the correct NODE is U-latched"); otherwise S.
    ///
    /// `schedule` controls whether sibling-term traversals schedule
    /// completing actions (§5.1); completing actions themselves pass `false`.
    pub fn descend(
        &self,
        arg: &S::Arg,
        target_level: u8,
        update_at_target: bool,
        schedule: bool,
    ) -> StoreResult<DescentTarget<'_>> {
        self.descend_from(
            self.root_pid(),
            arg,
            target_level,
            update_at_target,
            schedule,
        )
    }

    /// [`Engine::descend`] starting from `start` instead of the root — the
    /// §5.2 saved-path re-traversal. The caller asserts that `start` was on
    /// a path for `arg` (low bounds never change) and, under the CP
    /// invariant, that it has verified `start` is still allocated. A start
    /// node that nonetheless turns out freed, re-used or below the target
    /// level falls back to a root traversal (only the root is immortal,
    /// §5.2.2).
    pub fn descend_from(
        &self,
        start: PageId,
        arg: &S::Arg,
        target_level: u8,
        update_at_target: bool,
        schedule: bool,
    ) -> StoreResult<DescentTarget<'_>> {
        let coupling = self.structure().couples_latches();
        let pool = &self.store().pool;
        let from_root = start == self.root_pid();

        let mut path = SavedPath::default();
        let mut cur = pool.fetch(start)?;
        let mut g = latch(&cur, false);
        if !from_root && (g.page().page_type()? != PageType::Node || g.page().is_freed()) {
            drop(g);
            return self.descend(arg, target_level, update_at_target, schedule);
        }
        let mut at_start = true;
        loop {
            // One routing decision per node arrival; its borrow of the guard
            // ends before any latch movement below.
            let Routed { level, step } =
                self.structure()
                    .route(g.page(), cur.id(), arg, target_level)?;
            if at_start {
                at_start = false;
                if level < target_level {
                    drop(g);
                    if from_root {
                        return Err(StoreError::Corrupt(format!(
                            "descend target level {target_level} above root level {level}"
                        )));
                    }
                    return self.descend(arg, target_level, update_at_target, schedule);
                }
                // Re-latch in U mode if the start node is itself the target
                // of an update descent (promotion from S is forbidden), then
                // route again under the new latch.
                if level == target_level && update_at_target {
                    drop(g);
                    g = latch(&cur, true);
                    continue;
                }
            }
            match step {
                Step::Arrived => {
                    return Ok(DescentTarget {
                        page: cur,
                        guard: g,
                        level,
                        path,
                    });
                }
                Step::Restart => {
                    drop(g);
                    return self.descend(arg, target_level, update_at_target, schedule);
                }
                Step::Side(side) => {
                    let from = cur.id();
                    let want_u = update_at_target && level == target_level;
                    let sib = pool.fetch(side)?;
                    g = step_to(g, &sib, want_u, coupling);
                    self.stats().side_traversals.inc();
                    if schedule {
                        S::side_traversal(self, from, side, g.page(), &path)?;
                    }
                    cur = sib;
                }
                Step::Child(child) => {
                    path.push(PathEntry {
                        pid: cur.id(),
                        lsn: g.page().lsn(),
                        level,
                    });
                    let want_u = update_at_target && level - 1 == target_level;
                    let cp = pool.fetch(child)?;
                    g = step_to(g, &cp, want_u, coupling);
                    cur = cp;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(pid: u64, level: u8) -> PathEntry {
        PathEntry {
            pid: PageId(pid),
            lsn: Lsn(pid * 10),
            level,
        }
    }

    #[test]
    fn saved_path_push_and_query() {
        let mut p = SavedPath::default();
        assert!(p.is_empty());
        p.push(entry(3, 2));
        p.push(entry(7, 1));
        assert_eq!(p.entries().len(), 2);
        assert_eq!(p.at_level(1).unwrap().pid, PageId(7));
        assert!(p.at_level(0).is_none());
        let above = p.above(1);
        assert_eq!(above.entries(), &[entry(3, 2)]);
    }

    #[test]
    fn saved_path_overflow_drops_silently() {
        let mut p = SavedPath::default();
        for i in 0..(SAVED_PATH_MAX as u64 + 4) {
            p.push(entry(i + 1, i as u8));
        }
        assert_eq!(p.entries().len(), SAVED_PATH_MAX);
        assert_eq!(p.entries()[0], entry(1, 0));
    }

    #[test]
    fn saved_path_eq_ignores_spare_capacity() {
        let mut a = SavedPath::default();
        let mut b = SavedPath::default();
        a.push(entry(1, 1));
        b.push(entry(1, 1));
        assert_eq!(a, b);
        b.push(entry(2, 2));
        assert_ne!(a, b);
        assert_eq!(SavedPath::default(), SavedPath::default());
    }
}
