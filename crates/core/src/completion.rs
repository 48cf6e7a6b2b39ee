//! Scheduling and lazy completion of structure changes (§5.1).
//!
//! Between the atomic action that splits a node and the one that posts its
//! index term, the tree is in a well-formed but *intermediate* state. The
//! paper's key recovery idea is that nobody tracks these states durably:
//! they are **detected** — by a traversal that follows a side pointer — and a
//! completing atomic action is **scheduled**. Completion must therefore be
//! *testable* (the completing action re-verifies that work is still needed)
//! and *idempotent* (several traversals may schedule the same completion).
//!
//! The queue here is deliberately volatile: losing it in a crash is exactly
//! the "we lose track of which structure changes need completion" case the
//! protocol is built to tolerate.

use crate::engine::{Engine, Structure};
use crate::traverse::SavedPath;
use pitree_pagestore::sync::Mutex;
use pitree_pagestore::{PageId, StoreResult};
use std::collections::VecDeque;

/// A pending completing action, as the queue sees it.
pub trait Pending {
    /// Whether `other` would redo the same work. (Duplicates would be
    /// harmless — completion is testable — but bounding the queue keeps
    /// storms of sibling traversals cheap.)
    fn duplicates(&self, other: &Self) -> bool;
}

/// A pending completing action.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Completion {
    /// Post the index term for `node` (whose low key is `key`) at `level`
    /// (the parent level of the split node). `path` is the saved traversal
    /// state of §5.2, possibly empty.
    Post {
        /// Parent level to post into.
        level: u8,
        /// The split key: low bound of the new node.
        key: Vec<u8>,
        /// The new node.
        node: PageId,
        /// Saved path from the traversal that scheduled this (boxed: the
        /// inline-array path would otherwise dominate the enum's size).
        path: Box<SavedPath>,
    },
    /// Try to consolidate the under-utilized node whose low key is `key` at
    /// `level` (§3.3).
    Consolidate {
        /// Level of the under-utilized node.
        level: u8,
        /// Its low key.
        key: Vec<u8>,
    },
}

impl Pending for Completion {
    fn duplicates(&self, other: &Completion) -> bool {
        match (self, other) {
            (
                Completion::Post {
                    level: l1,
                    node: n1,
                    ..
                },
                Completion::Post {
                    level: l2,
                    node: n2,
                    ..
                },
            ) => l1 == l2 && n1 == n2,
            (
                Completion::Consolidate { level: l1, key: k1 },
                Completion::Consolidate { level: l2, key: k2 },
            ) => l1 == l2 && k1 == k2,
            _ => false,
        }
    }
}

/// FIFO of pending completions with duplicate suppression.
pub struct CompletionQueue<C = Completion> {
    q: Mutex<VecDeque<C>>,
}

impl<C> Default for CompletionQueue<C> {
    fn default() -> Self {
        CompletionQueue {
            q: Mutex::new(VecDeque::new()),
        }
    }
}

impl<C> std::fmt::Debug for CompletionQueue<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompletionQueue").finish_non_exhaustive()
    }
}

impl<C: Pending> CompletionQueue<C> {
    /// Schedule `c` unless an equivalent completion is already queued.
    pub fn push(&self, c: C) -> bool {
        let mut q = self.q.lock();
        if q.iter().any(|e| e.duplicates(&c)) {
            return false;
        }
        q.push_back(c);
        true
    }

    /// Take the next pending completion.
    pub fn pop(&self) -> Option<C> {
        self.q.lock().pop_front()
    }

    /// Number of pending completions.
    pub fn len(&self) -> usize {
        self.q.lock().len()
    }

    /// Whether nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.q.lock().is_empty()
    }
}

impl<S: Structure> Engine<S> {
    /// Drain the completion queue, executing each completing atomic action
    /// (index-term postings, consolidations). Returns how many completions
    /// were executed.
    pub fn run_completions(&self) -> StoreResult<usize> {
        let mut done = 0;
        // Drain only what was queued at entry: completions that defer (e.g.
        // on a move lock) re-queue themselves and must not spin within this
        // call — they run on a later pass, after the blocker resolves.
        let batch = self.completions().len();
        for _ in 0..batch {
            let Some(c) = self.completions().pop() else {
                break;
            };
            S::complete(self, c)?;
            done += 1;
        }
        Ok(done)
    }

    /// Drain inline after an operation when the structure asks for it.
    pub fn maybe_autocomplete(&self) -> StoreResult<()> {
        if self.structure().auto_complete() && !self.completions().is_empty() {
            self.run_completions()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn post(level: u8, node: u64) -> Completion {
        Completion::Post {
            level,
            key: vec![node as u8],
            node: PageId(node),
            path: Box::new(SavedPath::default()),
        }
    }

    #[test]
    fn fifo_order() {
        let q = CompletionQueue::<Completion>::default();
        assert!(q.push(post(1, 10)));
        assert!(q.push(post(1, 11)));
        assert!(matches!(
            q.pop(),
            Some(Completion::Post {
                node: PageId(10),
                ..
            })
        ));
        assert!(matches!(
            q.pop(),
            Some(Completion::Post {
                node: PageId(11),
                ..
            })
        ));
        assert!(q.pop().is_none());
    }

    #[test]
    fn duplicate_posts_suppressed() {
        let q = CompletionQueue::<Completion>::default();
        assert!(q.push(post(1, 10)));
        assert!(!q.push(post(1, 10)), "same node+level is a duplicate");
        assert!(q.push(post(2, 10)), "different level is not");
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn duplicate_consolidations_suppressed() {
        let q = CompletionQueue::<Completion>::default();
        let c = Completion::Consolidate {
            level: 0,
            key: b"k".to_vec(),
        };
        assert!(q.push(c.clone()));
        assert!(!q.push(c));
        assert!(q.push(Completion::Consolidate {
            level: 0,
            key: b"other".to_vec()
        }));
    }

    #[test]
    fn mixed_kinds_do_not_collide() {
        let q = CompletionQueue::<Completion>::default();
        assert!(q.push(post(0, 5)));
        assert!(q.push(Completion::Consolidate {
            level: 0,
            key: vec![5]
        }));
        assert_eq!(q.len(), 2);
        assert!(!q.is_empty());
    }
}
