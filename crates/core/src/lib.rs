#![warn(missing_docs)]
//! # pitree — Access Method Concurrency with Recovery
//!
//! A from-scratch reproduction of **Lomet & Salzberg, "Access Method
//! Concurrency with Recovery" (SIGMOD 1992)**: the **Π-tree**, a
//! generalization of the B-link tree whose structure changes are decomposed
//! into short, independent **atomic actions**, each leaving the tree
//! well-formed, so that
//!
//! * searchers can run through intermediate states and lazily complete them
//!   (§5.1),
//! * structure changes above the leaf never execute inside user
//!   transactions (§5),
//! * crash recovery needs no tree-specific machinery (§1 point 4), and
//! * the protocol works with a family of recovery methods — page-oriented
//!   UNDO with move locks, or logical UNDO (§4.2) — and of search
//!   structures: the protocol is written once, in [`Engine`], over a
//!   [`Structure`] (B-link here; TSB-tree and hB-tree in sibling crates).
//!
//! ## Quick start
//!
//! ```
//! use pitree::{CrashableStore, PiTree, PiTreeConfig};
//!
//! let store = CrashableStore::create(256, 100_000).unwrap();
//! let tree = PiTree::create(store.store.clone(), 1, PiTreeConfig::default()).unwrap();
//! let mut txn = tree.begin();
//! tree.insert(&mut txn, b"hello", b"world").unwrap();
//! txn.commit().unwrap();
//! assert_eq!(tree.get_unlocked(b"hello").unwrap(), Some(b"world".to_vec()));
//! assert!(tree.validate().unwrap().is_well_formed());
//! ```

pub mod bound;
pub mod completion;
pub mod config;
pub mod consolidate;
pub mod engine;
pub mod node;
pub mod post;
pub mod split;
pub mod stats;
pub mod store;
pub mod traverse;
pub mod tree;
pub mod undo;
pub mod wellformed;

pub use bound::KeyBound;
pub use completion::{Completion, CompletionQueue, Pending};
pub use config::{ConsolidationPolicy, DeallocPolicy, MoveGranule, PiTreeConfig, UndoPolicy};
pub use consolidate::{consolidate, ConsolidateOutcome};
pub use engine::{Engine, Install, PostOutcome, Routed, Step, Structure, TreeConfig, Verified};
pub use node::{BoundRef, HeaderRef, IndexTerm, NodeHeader};
pub use stats::TreeStats;
pub use store::{CrashableStore, Store};
pub use traverse::{DescentTarget, PathEntry, SavedPath};
pub use tree::{BLink, PiTree};
pub use wellformed::{Description, KeyRange, Space, Term, TermKind, WellFormedReport};
