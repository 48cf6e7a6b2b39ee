//! The deterministic workload behind `obstop` and the counter
//! determinism gate.
//!
//! One seeded, single-threaded run that deliberately exercises every
//! instrumented layer: small nodes force splits, root growth, and index
//! postings; a small buffer pool forces misses and dirty evictions; a
//! deletion wave forces consolidations; every commit appends and forces
//! WAL records under database locks; a fuzzy checkpoint caps the run.
//!
//! Determinism contract: given the same seed, two runs in the same
//! process render a **byte-identical** `== counters ==` section of
//! [`pitree_obs::Registry::report`] — the workload makes no
//! timing-dependent decisions. `tests/obs_determinism.rs` holds the gate;
//! `PITREE_SIM_SEED` replays a specific run.

use pitree::{CrashableStore, PiTree, PiTreeConfig};
use pitree_sim::SimRng;
use std::sync::Arc;

/// Seed used when `PITREE_SIM_SEED` is not set.
pub const DEFAULT_SEED: u64 = 0x000b_5e24_ab1e; // "observable"

/// Buffer-pool frames — small enough that the load phase spills and the
/// pool must evict dirty pages.
pub const POOL_FRAMES: usize = 64;

/// Keys inserted by the load phase.
pub const LOAD_KEYS: u64 = 600;

/// Mixed operations (get/insert/delete) in the churn phase.
pub const CHURN_OPS: u64 = 900;

/// Resolve the demo seed: `PITREE_SIM_SEED` (decimal or `0x`-hex, same
/// convention as the sim kit) or [`DEFAULT_SEED`].
#[expect(
    clippy::disallowed_methods,
    reason = "PITREE_SIM_SEED is the demo's explicit replay knob; the run is seed-pure when unset"
)]
pub fn seed_from_env() -> u64 {
    match std::env::var("PITREE_SIM_SEED") {
        Ok(s) => {
            if let Some(hex) = s.strip_prefix("0x") {
                u64::from_str_radix(hex, 16).expect("PITREE_SIM_SEED: bad hex seed")
            } else {
                s.parse().expect("PITREE_SIM_SEED: bad seed")
            }
        }
        Err(_) => DEFAULT_SEED,
    }
}

/// A finished demo run: the live store/tree pair (whose registry holds
/// everything the run recorded) plus summary facts.
pub struct DemoRun {
    /// The crashable store; `store.crash()` starts the recovery phase.
    pub store: CrashableStore,
    /// The tree the workload ran against.
    pub tree: PiTree,
    /// Records present when the workload finished (validated).
    pub records: usize,
    /// The seed the workload ran with.
    pub seed: u64,
}

impl std::fmt::Debug for DemoRun {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DemoRun").finish_non_exhaustive()
    }
}

/// Run the seeded workload. Single-threaded and deterministic: every
/// counter depends only on `seed`.
pub fn run(seed: u64) -> DemoRun {
    let store = CrashableStore::create(POOL_FRAMES, 1 << 20).expect("store");
    let cfg = PiTreeConfig::small_nodes(8, 8);
    let tree = PiTree::create(Arc::clone(&store.store), 1, cfg).expect("tree");
    let mut rng = SimRng::new(seed);

    // ---- load: shuffled inserts drive splits, postings, evictions ----------
    let mut keys: Vec<u64> = (0..LOAD_KEYS).collect();
    rng.shuffle(&mut keys);
    for k in &keys {
        let mut txn = tree.begin();
        tree.insert(&mut txn, &k.to_be_bytes(), format!("v{k}").as_bytes())
            .expect("load insert");
        txn.commit().expect("load commit");
    }

    // ---- churn: mixed point ops; the delete share leaves nodes sparse ------
    for _ in 0..CHURN_OPS {
        let k = rng.below(LOAD_KEYS);
        match rng.below(10) {
            0..=4 => {
                let _ = tree.get_unlocked(&k.to_be_bytes()).expect("get");
            }
            5..=7 => {
                let mut txn = tree.begin();
                tree.delete(&mut txn, &k.to_be_bytes()).expect("delete");
                txn.commit().expect("delete commit");
            }
            _ => {
                let mut txn = tree.begin();
                tree.insert(&mut txn, &k.to_be_bytes(), b"vv")
                    .expect("insert");
                txn.commit().expect("churn commit");
            }
        }
    }

    // Drain scheduled postings/consolidations (lazy SMO completion, §5.1).
    tree.run_completions().expect("completions");

    // ---- checkpoint: a fuzzy checkpoint ends the run (§4.3) ----------------
    pitree_wal::take_checkpoint(&store.store.pool, &store.store.log, Vec::new())
        .expect("checkpoint");

    let report = tree.validate().expect("validate");
    assert!(report.is_well_formed(), "{:?}", report.violations);
    DemoRun {
        records: report.records,
        seed,
        store,
        tree,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demo_exercises_every_layer() {
        let run = run(7);
        let reg = run.tree.recorder().registry();
        let rec = run.tree.recorder();
        assert!(rec.counter("latch.acquire_x").get() > 0);
        assert!(rec.counter("buf.misses").get() > 0);
        assert!(rec.counter("buf.dirty_evictions").get() > 0);
        assert!(rec.counter("wal.appends").get() > 0);
        assert!(rec.counter("lock.acquires").get() > 0);
        assert!(rec.counter("tree.splits").get() > 0);
        assert!(rec.counter("action.commits").get() > 0);
        let report = reg.report();
        assert!(report.contains("wal.force_ns"));
    }
}
