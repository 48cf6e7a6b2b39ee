#![warn(missing_docs)]
//! # pitree-hb — the hB-tree
//!
//! The hB-tree (§2.2.3 of Lomet & Salzberg, SIGMOD 1992; full treatment in
//! their TODS 1990 paper) indexes **multiattribute point data** and is the
//! paper's third Π-tree member. Nodes carry **kd-tree fragments** whose
//! leaves are local space, index terms (child pointers), or — per Figure 2 —
//! **sibling pointers** replacing the original design's "External" markers,
//! which is exactly what makes the hB-tree a Π-tree: delegated space stays
//! reachable sideways, so splits and postings decompose into separate,
//! testable atomic actions.
//!
//! Hyperplane splits keep one kd child pointing at the new sibling
//! (Figure 2); index terms whose region straddles a split are **clipped**
//! into both parents and marked **multi-parent** (§3.2.2, §3.3); postings go
//! to the parent on the detecting search path, other parents lazily.
//!
//! The protocol itself — descent, registry, restart, completion drain, undo
//! handlers, the well-formedness walk — is `pitree::Engine`; this crate
//! supplies the [`Hb`] structure (routing through kd fragments, how the
//! walk sees a node and compares rectangles) plus its geometry, split
//! policy and undo tags.
//!
//! Scope (see DESIGN.md): two attributes; node consolidation omitted — the
//! paper itself defers hB consolidation to its reference \[3\]
//! "(in preparation)" — so the tree runs under the CNS invariant.

pub mod geometry;
pub mod node;
pub mod split;
pub mod tree;
pub mod undo;
mod wellformed;

pub use geometry::{point_key, Frag, Point, PtrKind, Rect, DIMS};
pub use node::{HbHeader, HbView, KdLeaf};
pub use tree::{Hb, HbConfig, HbPost, HbTree};
pub use undo::{TAG_HB_REMOVE, TAG_HB_RESTORE};
