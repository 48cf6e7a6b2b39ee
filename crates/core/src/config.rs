//! Π-tree configuration: the policy axes the paper leaves open.
//!
//! The paper's protocol is parametric in three dimensions, all of which are
//! first-class here so the experiments can compare them:
//!
//! * **Consolidation** (§5.2): disabled (the CNS invariant — nodes are
//!   immortal, one latch suffices during traversal) or enabled (the CP
//!   invariant — latch coupling, verified postings), with the two
//!   de-allocation treatments of §5.2.2.
//! * **UNDO policy** (§4.2): page-oriented (undo happens on the same page,
//!   requiring move locks and sometimes in-transaction leaf splits) or
//!   logical (undo re-traverses; every SMO is an independent action).
//! * **Atomic-action identity** (§4.3.2): separate transaction, system
//!   transaction, or nested top action.

use crate::engine::TreeConfig;
use pitree_wal::ActionIdentity;

/// How node de-allocation is treated (§5.2.2). Only meaningful when
/// consolidation is enabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeallocPolicy {
    /// §5.2.2(a): a node's state identifier is unchanged by de-allocation.
    /// Saved paths cannot be trusted, so re-traversals start at the root
    /// (which never moves and is never de-allocated).
    NotAnUpdate,
    /// §5.2.2(b): de-allocation bumps the node's state identifier and leaves
    /// a freed tombstone, at the cost of a log record; re-traversals climb
    /// the saved path from the deepest unchanged node.
    IsAnUpdate,
}

/// Whether under-utilized nodes are consolidated (§3.3, §5.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConsolidationPolicy {
    /// The CNS invariant: "a node, once responsible for a key subspace, is
    /// always responsible for the subspace." One latch at a time during
    /// traversal; postings never verify child existence.
    Disabled,
    /// The CP invariant: nodes may be de-allocated. Latch coupling during
    /// traversal; postings re-verify that the described node still exists.
    Enabled {
        /// How de-allocation interacts with state identifiers.
        dealloc: DeallocPolicy,
    },
}

impl ConsolidationPolicy {
    /// Whether latch coupling is required during traversal (CP invariant).
    pub fn couples_latches(self) -> bool {
        matches!(self, ConsolidationPolicy::Enabled { .. })
    }
}

/// Granule at which move locks are taken (§4.2.2: "a move lock can be
/// realized with a set of individual record locks, a page-level lock, a
/// key-range lock, or even a lock on the whole relation. ... If the move
/// lock is implemented using a lock whose granule is a node size or larger,
/// once granted, no update activity can alter the locking required.").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MoveGranule {
    /// One lock per node page (the default: maximal concurrency for a
    /// "node size or larger" granule).
    Page,
    /// One lock on the whole relation/tree: simplest, least concurrent.
    Relation,
}

/// Which UNDO discipline the recovery method uses (§4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UndoPolicy {
    /// Undo of a record update must happen on the page that was updated.
    /// Record moves need **move locks**, and a leaf split triggered by a
    /// transaction that already updated a to-be-moved record must run
    /// *inside* that transaction (§4.2.1).
    PageOriented,
    /// Undo re-locates the record through the tree (non-page-oriented).
    /// Every structure change, including data-node splits, runs as an
    /// independent atomic action (§6).
    Logical,
}

/// Full tree configuration.
#[derive(Debug, Clone, Copy)]
pub struct PiTreeConfig {
    /// Consolidation policy (CNS vs CP).
    pub consolidation: ConsolidationPolicy,
    /// UNDO policy of the surrounding recovery method.
    pub undo: UndoPolicy,
    /// How SMO atomic actions identify themselves to recovery.
    pub smo_identity: ActionIdentity,
    /// Move-lock granularity under page-oriented UNDO (§4.2.2).
    pub move_granule: MoveGranule,
    /// Cap on keyed entries per leaf node (on top of the byte-space limit);
    /// small values force deep trees in tests.
    pub max_leaf_entries: usize,
    /// Cap on index terms per index node.
    pub max_index_entries: usize,
    /// Consolidation trigger: schedule when a node's entry count falls
    /// below this fraction of the applicable cap.
    pub min_utilization: f64,
    /// Run scheduled completion actions inline at operation end (simplest
    /// for tests); when false the caller drives [`crate::PiTree::run_completions`].
    pub auto_complete: bool,
}

impl Default for PiTreeConfig {
    fn default() -> Self {
        PiTreeConfig {
            consolidation: ConsolidationPolicy::Enabled {
                dealloc: DeallocPolicy::IsAnUpdate,
            },
            undo: UndoPolicy::Logical,
            smo_identity: ActionIdentity::SystemTransaction,
            move_granule: MoveGranule::Page,
            max_leaf_entries: usize::MAX,
            max_index_entries: usize::MAX,
            min_utilization: 0.2,
            auto_complete: true,
        }
    }
}

impl TreeConfig for PiTreeConfig {
    fn smo_identity(&self) -> ActionIdentity {
        self.smo_identity
    }
}

impl PiTreeConfig {
    /// A configuration with small nodes, for tests that want deep trees
    /// from few keys.
    pub fn small_nodes(leaf: usize, index: usize) -> PiTreeConfig {
        PiTreeConfig {
            max_leaf_entries: leaf,
            max_index_entries: index,
            ..Default::default()
        }
    }

    /// The classic B-link configuration: no consolidation (CNS).
    pub fn cns() -> PiTreeConfig {
        PiTreeConfig {
            consolidation: ConsolidationPolicy::Disabled,
            ..Default::default()
        }
    }

    /// Page-oriented UNDO (move locks, possible in-transaction splits).
    pub fn page_oriented(mut self) -> PiTreeConfig {
        self.undo = UndoPolicy::PageOriented;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_cp_logical() {
        let c = PiTreeConfig::default();
        assert!(c.consolidation.couples_latches());
        assert_eq!(c.undo, UndoPolicy::Logical);
        assert!(c.auto_complete);
    }

    #[test]
    fn cns_does_not_couple() {
        assert!(!PiTreeConfig::cns().consolidation.couples_latches());
    }

    #[test]
    fn builders() {
        let c = PiTreeConfig::small_nodes(4, 5).page_oriented();
        assert_eq!(c.max_leaf_entries, 4);
        assert_eq!(c.max_index_entries, 5);
        assert_eq!(c.undo, UndoPolicy::PageOriented);
    }
}
