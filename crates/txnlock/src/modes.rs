//! Lock modes and their compatibility, including the paper's **move lock**.
//!
//! §4.2.2: "For page-oriented undo, a move lock is required that conflicts
//! with non-commutative updates. ... Since reads do not require undo,
//! concurrent reads can be tolerated. Hence, move locks are compatible with
//! share mode locks. ... a move lock must be distinguished from a share
//! lock" (a sibling-traverser that sees one must not schedule an index-term
//! posting).
//!
//! The modes are the ones the trees take. Key readers take `S` and key
//! updaters `X`. Under page-oriented UNDO an updater also takes `IX` on its
//! data page (or on the tree, for the relation granule) before the key
//! lock, so that a structure change's `Move` on that page conflicts with
//! it while `S` readers pass.

/// Database lock modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LockMode {
    /// Intention exclusive (page-level, by key updaters).
    IX,
    /// Shared.
    S,
    /// Exclusive.
    X,
    /// Move lock (§4.2.2): blocks non-commutative updates while records are
    /// moved by a structure change; compatible with readers.
    Move,
}

impl LockMode {
    /// Whether a holder of `self` and a holder of `other` may coexist.
    pub fn compatible(self, other: LockMode) -> bool {
        use LockMode::*;
        matches!((self, other), (IX, IX) | (S, S) | (S, Move) | (Move, S))
    }

    /// Least mode covering both (used for lock conversion). Falls back to
    /// `X` when no proper supremum exists in this lattice (e.g. `S` ∨ `IX`,
    /// which classically would be `SIX`).
    pub fn supremum(self, other: LockMode) -> LockMode {
        use LockMode::*;
        match (self, other) {
            _ if self == other => self,
            (S, Move) | (Move, S) => Move,
            _ => X,
        }
    }

    /// Whether this mode is strong enough to cover a request for `req`
    /// (already-held check).
    pub fn covers(self, req: LockMode) -> bool {
        self.supremum(req) == self
    }
}

#[cfg(test)]
mod tests {
    use super::LockMode::*;

    #[test]
    fn share_modes_are_compatible() {
        assert!(S.compatible(S));
        assert!(IX.compatible(IX));
        assert!(!S.compatible(IX));
        assert!(!IX.compatible(S));
    }

    #[test]
    fn x_conflicts_with_everything() {
        for m in [IX, S, X, Move] {
            assert!(!X.compatible(m));
            assert!(!m.compatible(X));
        }
    }

    #[test]
    fn move_lock_matrix() {
        // §4.2.2: compatible with readers...
        assert!(Move.compatible(S));
        assert!(S.compatible(Move));
        // ...but conflicts with updaters and other movers.
        assert!(!Move.compatible(IX));
        assert!(!Move.compatible(X));
        assert!(!Move.compatible(Move));
        assert!(!IX.compatible(Move));
    }

    #[test]
    fn supremum_lattice() {
        assert_eq!(S.supremum(Move), Move);
        assert_eq!(IX.supremum(Move), X);
        assert_eq!(S.supremum(IX), X, "SIX collapses to X in this lattice");
        assert_eq!(X.supremum(S), X);
        for m in [IX, S, X, Move] {
            assert_eq!(m.supremum(m), m);
        }
    }

    #[test]
    fn covers_reflexive_and_ordered() {
        assert!(X.covers(S));
        assert!(X.covers(IX));
        assert!(!S.covers(IX));
        assert!(Move.covers(S));
        assert!(!S.covers(Move));
        for m in [IX, S, X, Move] {
            assert!(m.covers(m));
        }
    }
}
