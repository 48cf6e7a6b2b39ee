//! Minimizing shrinker for failing workload scripts.
//!
//! The sim kit's property runner deliberately does not shrink *seeds*
//! (a different seed is a different schedule), but once a seed fails the
//! durability oracle we hold its concrete **script** — and scripts shrink
//! soundly, because [`pitree_sim::crash::sweep_script`] re-sweeps the
//! candidate's own crash-point space. This is a delta-debugging (ddmin)
//! reduction: remove ever-smaller chunks, keeping any candidate that
//! still fails, until no single op can be removed.

use crate::durability::tail_drop_violation;
use pitree_sim::crash::{sweep_script, Op, SweepConfig};

/// Minimize `input` under `fails` (which must hold for `input` itself).
/// Returns a 1-minimal failing subsequence: removing any single remaining
/// element makes the failure disappear.
pub fn ddmin<T: Clone, F: Fn(&[T]) -> bool>(input: &[T], fails: F) -> Vec<T> {
    assert!(fails(input), "shrinker needs a failing input to start from");
    let mut cur: Vec<T> = input.to_vec();
    let mut chunk = (cur.len() / 2).max(1);
    loop {
        let mut i = 0;
        while i < cur.len() {
            let end = (i + chunk).min(cur.len());
            let mut cand = Vec::with_capacity(cur.len() - (end - i));
            cand.extend_from_slice(&cur[..i]);
            cand.extend_from_slice(&cur[end..]);
            if fails(&cand) {
                cur = cand; // chunk was irrelevant; keep position
            } else {
                i = end; // chunk is load-bearing; move past it
            }
        }
        if chunk == 1 {
            return cur;
        }
        chunk = (chunk / 2).max(1);
    }
}

/// Shrink a script that fails the full crash-point sweep, preserving the
/// failure as judged by [`sweep_script`]. Expensive (each candidate
/// re-sweeps), so it runs only once a sweep has already failed: the
/// durability gate in `tests/check_props.rs` panics with its result.
pub fn shrink_durability(script: &[Op], seed: u64, cfg: &SweepConfig) -> Vec<Op> {
    ddmin(script, |cand| sweep_script(cand, seed, cfg).is_err())
}

/// Shrink a script that fails the tail-drop fixture oracle. Used by the
/// fixture gate to prove the shrinker minimizes a real violation.
pub fn shrink_tail_drop(script: &[Op], seed: u64, cfg: &SweepConfig) -> Vec<Op> {
    ddmin(script, |cand| {
        !cand.is_empty() && tail_drop_violation(cand, seed, cfg).is_some()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::durability::fixture_script;

    #[test]
    fn ddmin_finds_single_culprit() {
        // Fails iff the input contains 7.
        let input: Vec<u32> = (0..40).collect();
        let out = ddmin(&input, |xs| xs.contains(&7));
        assert_eq!(out, vec![7]);
    }

    #[test]
    fn ddmin_keeps_interacting_pair() {
        // Fails iff both 3 and 11 survive — ddmin must keep exactly those.
        let input: Vec<u32> = (0..24).collect();
        let out = ddmin(&input, |xs| xs.contains(&3) && xs.contains(&11));
        assert_eq!(out, vec![3, 11]);
    }

    #[test]
    fn tail_drop_failure_shrinks_to_one_insert() {
        let cfg = SweepConfig {
            max_crash_points: 2,
            ..SweepConfig::default()
        };
        let seed = 0x5eed;
        let workload = pitree_sim::Workload {
            ops: 16,
            key_domain: 32,
        };
        let script = fixture_script(seed, &workload);
        let min = shrink_tail_drop(&script, seed, &cfg);
        assert!(
            min.len() <= 2,
            "a lost committed insert needs at most the insert itself \
             (plus maybe one earlier op), got {min:?}"
        );
        assert!(
            min.iter().any(|op| matches!(op, Op::Insert(_))),
            "the surviving op must be an insert: {min:?}"
        );
    }
}
