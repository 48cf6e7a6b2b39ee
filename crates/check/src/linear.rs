//! Linearizability checker for concurrent histories, plus the live
//! harness that produces them.
//!
//! The checker is a Wing–Gong-style search: find a total order of the
//! completed calls that (a) respects real time — if call `d` returned
//! before call `c` was invoked, `d` precedes `c` — and (b) is a legal
//! sequential run of the per-key [`model`](crate::model). Because every
//! operation here touches exactly one key, linearizability is *local*:
//! a history is linearizable iff its per-key sub-histories are, so the
//! search partitions by key first. Within a key the DFS memoizes
//! `(done-set, register state)` pairs, which keeps the worst case far
//! below the factorial frontier for the bounded harness histories.

use crate::history::{Call, HistoryClock, OpKind, OpRet};
use pitree_baselines::ConcurrentIndex;
use pitree_sim::SimRng;
use std::collections::{BTreeMap, HashSet};

/// Why a history was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinViolation {
    /// The key whose sub-history has no linearization.
    pub key: u64,
    /// The calls on that key, in invocation order (the minimal evidence).
    pub calls: Vec<Call>,
}

impl std::fmt::Display for LinViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "no linearization exists for the {} calls on key {}:",
            self.calls.len(),
            self.key
        )?;
        for c in &self.calls {
            writeln!(
                f,
                "  tid {} [{}..{}] {:?} arg={} -> {:?}",
                c.tid, c.invoke, c.ret_at, c.kind, c.arg, c.ret
            )?;
        }
        Ok(())
    }
}

/// Summary of a passing check.
#[derive(Debug, Clone, Copy, Default)]
pub struct LinReport {
    /// Completed calls checked.
    pub calls: usize,
    /// Distinct keys (independent sub-histories).
    pub keys: usize,
}

/// Check a complete history (all calls returned) for linearizability
/// against the sequential single-record-per-key model.
pub fn check_history(calls: &[Call]) -> Result<LinReport, LinViolation> {
    let mut by_key: BTreeMap<u64, Vec<Call>> = BTreeMap::new();
    for c in calls {
        by_key.entry(c.key).or_default().push(*c);
    }
    for (key, sub) in &by_key {
        if !key_linearizable(sub) {
            return Err(LinViolation {
                key: *key,
                calls: sub.clone(),
            });
        }
    }
    Ok(LinReport {
        calls: calls.len(),
        keys: by_key.len(),
    })
}

/// Wing–Gong DFS over one key's sub-history. `calls` is sorted by invoke
/// clock ([`check_history`]'s caller guarantees it).
fn key_linearizable(calls: &[Call]) -> bool {
    let n = calls.len();
    assert!(n <= 128, "per-key sub-history too large for the bitmask");
    if n == 0 {
        return true;
    }
    // Visited (done-set, register value) configurations; revisiting one
    // cannot succeed where the first visit failed.
    let mut seen: HashSet<(u128, Option<u64>)> = HashSet::new();
    dfs(calls, 0u128, None, &mut seen)
}

fn dfs(
    calls: &[Call],
    done: u128,
    state: Option<u64>,
    seen: &mut HashSet<(u128, Option<u64>)>,
) -> bool {
    let n = calls.len();
    if done.count_ones() as usize == n {
        return true;
    }
    if !seen.insert((done, state)) {
        return false;
    }
    // The earliest return among remaining calls bounds which may go next:
    // candidate c must be invoked before every other remaining call
    // returned, i.e. c.invoke < min(remaining returns) is too strict —
    // the correct condition is that no remaining d has d.ret_at < c.invoke.
    let min_ret = (0..n)
        .filter(|i| done & (1 << i) == 0)
        .map(|i| calls[i].ret_at)
        .min()
        .expect("non-empty remainder");
    for i in 0..n {
        if done & (1 << i) != 0 {
            continue;
        }
        let c = &calls[i];
        if c.invoke > min_ret {
            // Some remaining call returned before c was invoked, so c
            // cannot linearize first; later i only grow invoke (sorted).
            break;
        }
        if let Some(next) = apply(c, state) {
            if dfs(calls, done | (1 << i), next, seen) {
                return true;
            }
        }
    }
    false
}

/// Apply one call to the per-key register; `None` when the reported
/// result is inconsistent with the state.
fn apply(c: &Call, state: Option<u64>) -> Option<Option<u64>> {
    match (c.kind, c.ret) {
        (OpKind::Insert, OpRet::Inserted(created)) => {
            (created == state.is_none()).then_some(Some(c.arg))
        }
        (OpKind::Delete, OpRet::Deleted(existed)) => (existed == state.is_some()).then_some(None),
        (OpKind::Get, OpRet::Got(v)) => (v == state).then_some(state),
        _ => None,
    }
}

// ---- live harness ---------------------------------------------------------

/// Knobs for one concurrent harness run.
#[derive(Debug, Clone, Copy)]
pub struct LinConfig {
    /// Worker threads.
    pub threads: u32,
    /// Operations per thread.
    pub ops_per_thread: usize,
    /// Keys drawn from `0..key_domain`; small domains force contention.
    pub key_domain: u64,
}

impl Default for LinConfig {
    fn default() -> LinConfig {
        LinConfig {
            threads: 3,
            ops_per_thread: 40,
            key_domain: 8,
        }
    }
}

fn value_bytes(v: u64) -> Vec<u8> {
    v.to_be_bytes().to_vec()
}

/// What a point read reported: a value the harness could have written is
/// 8 bytes; any other length is [`OpRet::Malformed`].
fn read_ret(got: Option<Vec<u8>>) -> OpRet {
    match got.map(|bytes| <[u8; 8]>::try_from(bytes.as_slice())) {
        None => OpRet::Got(None),
        Some(Ok(b)) => OpRet::Got(Some(u64::from_be_bytes(b))),
        Some(Err(_)) => OpRet::Malformed,
    }
}

/// Drive `index` from `cfg.threads` concurrent workers with seeded
/// per-thread op streams, stamping every operation from one shared
/// [`HistoryClock`], then check the resulting history.
///
/// Values are unique per (thread, op) — `tid << 32 | op` — so a stale
/// read is distinguishable from a legal one.
pub fn run_linearizability(
    index: &(impl ConcurrentIndex + ?Sized),
    seed: u64,
    cfg: LinConfig,
) -> Result<LinReport, LinViolation> {
    let clock = HistoryClock::default();
    let mut root = SimRng::new(seed);
    let seeds: Vec<u64> = (0..cfg.threads).map(|_| root.next_u64()).collect();

    let mut calls: Vec<Call> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0u32..)
            .zip(seeds)
            .map(|(t, tseed)| {
                let clock = &clock;
                scope.spawn(move || {
                    let mut rng = SimRng::new(tseed);
                    let mut calls = Vec::with_capacity(cfg.ops_per_thread);
                    for i in 0..cfg.ops_per_thread {
                        let key = rng.below(cfg.key_domain);
                        let kb = key.to_be_bytes();
                        calls.push(match rng.below(100) {
                            0..=49 => {
                                let v = u64::from(t) << 32 | i as u64;
                                clock.call(t, OpKind::Insert, key, v, || {
                                    OpRet::Inserted(index.insert(&kb, &value_bytes(v)))
                                })
                            }
                            50..=69 => clock.call(t, OpKind::Delete, key, 0, || {
                                OpRet::Deleted(index.delete(&kb))
                            }),
                            _ => clock.call(t, OpKind::Get, key, 0, || read_ret(index.get(&kb))),
                        });
                    }
                    calls
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("harness worker panicked"))
            .collect()
    });
    calls.sort_by_key(|c| c.invoke);
    check_history(&calls)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn call(
        tid: u32,
        invoke: u64,
        ret_at: u64,
        kind: OpKind,
        key: u64,
        arg: u64,
        ret: OpRet,
    ) -> Call {
        Call {
            tid,
            invoke,
            ret_at,
            kind,
            key,
            arg,
            ret,
        }
    }

    #[test]
    fn sequential_history_accepted() {
        let h = vec![
            call(0, 1, 2, OpKind::Insert, 5, 10, OpRet::Inserted(true)),
            call(0, 3, 4, OpKind::Get, 5, 0, OpRet::Got(Some(10))),
            call(0, 5, 6, OpKind::Delete, 5, 0, OpRet::Deleted(true)),
            call(0, 7, 8, OpKind::Get, 5, 0, OpRet::Got(None)),
        ];
        let r = check_history(&h).unwrap();
        assert_eq!(r.calls, 4);
        assert_eq!(r.keys, 1);
    }

    #[test]
    fn stale_read_rejected() {
        // insert(v1) returns, insert(v2) returns, THEN a read begins and
        // observes v1: no linear order explains it.
        let h = vec![
            call(0, 1, 2, OpKind::Insert, 5, 1, OpRet::Inserted(true)),
            call(0, 3, 4, OpKind::Insert, 5, 2, OpRet::Inserted(false)),
            call(1, 5, 6, OpKind::Get, 5, 0, OpRet::Got(Some(1))),
        ];
        let v = check_history(&h).unwrap_err();
        assert_eq!(v.key, 5);
        assert_eq!(v.calls.len(), 3);
    }

    #[test]
    fn overlapping_read_may_see_either_value() {
        // The read overlaps the second insert, so both v1 and v2 are legal.
        let sees_old = vec![
            call(0, 1, 2, OpKind::Insert, 5, 1, OpRet::Inserted(true)),
            call(0, 3, 8, OpKind::Insert, 5, 2, OpRet::Inserted(false)),
            call(1, 4, 6, OpKind::Get, 5, 0, OpRet::Got(Some(1))),
        ];
        check_history(&sees_old).unwrap();
        let sees_new = vec![
            call(0, 1, 2, OpKind::Insert, 5, 1, OpRet::Inserted(true)),
            call(0, 3, 8, OpKind::Insert, 5, 2, OpRet::Inserted(false)),
            call(1, 4, 6, OpKind::Get, 5, 0, OpRet::Got(Some(2))),
        ];
        check_history(&sees_new).unwrap();
    }

    #[test]
    fn wrong_created_flag_rejected() {
        let h = vec![
            call(0, 1, 2, OpKind::Insert, 5, 1, OpRet::Inserted(true)),
            call(0, 3, 4, OpKind::Insert, 5, 2, OpRet::Inserted(true)),
        ];
        assert!(check_history(&h).is_err(), "second insert cannot be 'new'");
    }

    #[test]
    fn keys_are_independent() {
        // A violation on key 9 is found even among clean traffic on key 5.
        let h = vec![
            call(0, 1, 2, OpKind::Insert, 5, 1, OpRet::Inserted(true)),
            call(0, 3, 4, OpKind::Get, 5, 0, OpRet::Got(Some(1))),
            call(1, 5, 6, OpKind::Get, 9, 0, OpRet::Got(Some(7))),
        ];
        let v = check_history(&h).unwrap_err();
        assert_eq!(v.key, 9);
    }
}
