//! Property sweeps: the check oracles driven from the sim kit's fixed,
//! replayable seed corpus, plus the seeded-violation rejection gates.
//!
//! Determinism contract: everything below derives from `pitree_sim`
//! seeds — no clocks, no entropy, no environment reads (enforced by
//! pitree-lint's determinism rule, which covers this file).

use pitree_check::durability::{fixture_script, tail_drop_violation};
use pitree_check::index::{LostWriteIndex, ModelIndex, StaleReadIndex};
use pitree_check::shrink::shrink_tail_drop;
use pitree_check::{
    all_indexes, lin_targets, run_differential, run_linearizability, DiffConfig, LinConfig,
};
use pitree_sim::crash::{sweep_script, SweepConfig, Workload};
use pitree_sim::{prop, SimRng};

#[test]
fn differential_all_indexes_match_model() {
    prop::run_cases("check.diff.all-indexes", 8, |rng| {
        let seed = rng.next_u64();
        for idx in all_indexes() {
            if let Err(v) = run_differential(idx.as_ref(), seed, DiffConfig::default()) {
                panic!("{v}");
            }
        }
    });
}

#[test]
fn differential_rejects_lost_write_fixture() {
    prop::run_cases("check.diff.fixture", 4, |rng| {
        let broken = LostWriteIndex::new(ModelIndex::default(), 7);
        run_differential(&broken, rng.next_u64(), DiffConfig::default())
            .expect_err("oracle must reject an index that drops writes");
    });
}

#[test]
fn linearizability_of_concurrent_targets() {
    prop::run_cases("check.linear.targets", 4, |rng| {
        let seed = rng.next_u64();
        for idx in lin_targets() {
            if let Err(e) = run_linearizability(idx.as_ref(), seed, LinConfig::default()) {
                panic!("{}: {e}", idx.name());
            }
        }
    });
}

#[test]
fn linearizability_under_heavy_contention() {
    // Single hot key: every operation conflicts; the per-key search does
    // real work here instead of degenerating into independent singletons.
    prop::run_cases("check.linear.hot-key", 3, |rng| {
        let cfg = LinConfig {
            threads: 4,
            ops_per_thread: 24,
            key_domain: 1,
        };
        let targets = lin_targets();
        let idx = targets[0].as_ref();
        if let Err(e) = run_linearizability(idx, rng.next_u64(), cfg) {
            panic!("{}: {e}", idx.name());
        }
    });
}

#[test]
fn linearizability_rejects_stale_read_fixture() {
    prop::run_cases("check.linear.fixture", 4, |rng| {
        // Single-threaded: no overlap, so the first stale observation is
        // unconditionally a violation (deterministic rejection).
        let cfg = LinConfig {
            threads: 1,
            ops_per_thread: 64,
            key_domain: 4,
        };
        let stale = StaleReadIndex::new(ModelIndex::default());
        run_linearizability(&stale, rng.next_u64(), cfg)
            .expect_err("oracle must reject a stale-reading index");
    });
}

#[test]
fn durability_sweep_recovers_committed_state() {
    prop::run_cases("check.dur.sweep", 2, |rng| {
        let seed = rng.next_u64();
        let workload = Workload {
            ops: 24,
            key_domain: 32,
        };
        let cfg = SweepConfig {
            max_crash_points: 5,
            ..SweepConfig::default()
        };
        match sweep_script(&workload.script(&mut SimRng::new(seed)), seed, &cfg) {
            Ok(report) => assert!(report.window.1 > 0, "workload crossed no boundary"),
            Err(v) => panic!("{v}"),
        }
    });
}

#[test]
fn durability_rejects_dropped_commit_and_shrinks_it() {
    prop::run_cases("check.dur.fixture", 2, |rng| {
        let seed = rng.next_u64();
        let workload = Workload {
            ops: 12,
            key_domain: 32,
        };
        let cfg = SweepConfig {
            max_crash_points: 2,
            ..SweepConfig::default()
        };
        let script = fixture_script(seed, &workload);
        let v = tail_drop_violation(&script, seed, &cfg)
            .expect("oracle must detect the chopped commit record");
        assert!(v.detail.contains("records") || v.detail.contains("key"));
        let min = shrink_tail_drop(&script, seed, &cfg);
        assert!(
            min.len() < script.len(),
            "shrinker made no progress on a {}-op script",
            script.len()
        );
    });
}
