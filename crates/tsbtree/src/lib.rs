#![warn(missing_docs)]
//! # pitree-tsb — the Time-Split B-tree
//!
//! The TSB-tree (§2.2.2 of Lomet & Salzberg, SIGMOD 1992; full treatment in
//! their SIGMOD 1989 paper) indexes **multiple versions of key-sequenced
//! records** by key and by time, and is the paper's second Π-tree member:
//! key splits delegate key space through *key side pointers* (ordinary
//! B-link sibling terms), and time splits delegate past time through
//! *history side pointers* (Figure 1). Both are sibling terms in the Π-tree
//! sense, so the same protocol applies: splits are independent atomic
//! actions, index-term postings are separate, lazy, testable actions, and
//! crash recovery takes no special measures. The protocol itself —
//! descent, registry, restart, completion drain, undo handlers — is
//! `pitree::Engine`; this crate supplies the [`Tsb`] structure (routing over
//! the key dimension, the two sibling terms, how the well-formedness walk
//! sees a node) plus its split policy, undo tag and versioned operations.
//!
//! Scope note (see DESIGN.md): index nodes route by key over *current*
//! nodes; history nodes are reached exclusively through history sibling
//! pointers, per Figure 1's mechanism. The 1989 paper's time-split index
//! nodes are not reproduced. TSB nodes are never consolidated and history
//! nodes never split (CNS invariant).

pub mod node;
pub mod split;
pub mod tree;
pub mod undo;
mod wellformed;

pub use node::{Time, TsbHeader, TsbKind};
pub use tree::{Tsb, TsbConfig, TsbTree};
pub use undo::TAG_TSB_REMOVE_VERSION;
