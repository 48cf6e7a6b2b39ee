//! The oracles' gate: the differential, linearizability and durability
//! layers over a fixed seed corpus, plus the seeded-violation rejection
//! tests that prove each layer has teeth.
//!
//! The corpus is 8 seeds per layer, `case_seed("pitree-check.<layer>", i)`.
//! The durability layers pin their coverage totals and print them
//! (`check_props: ` lines, which `scripts/verify.sh` shows): a refactor
//! that moves a total changed what the oracle crashes. Every failure
//! panics with its seed; a durability failure also carries the minimal
//! failing script from [`shrink_durability`]. To replay a seed, call the
//! same oracle function with it.
//!
//! Determinism contract: everything below derives from `pitree_sim`
//! seeds — no clocks, no entropy, no environment reads (enforced by
//! pitree-lint's determinism rule, which covers this file).

use pitree_check::durability::{elr_chain_violation, fixture_script, tail_drop_violation};
use pitree_check::index::{LostWriteIndex, ModelIndex, StaleReadIndex};
use pitree_check::shrink::{shrink_durability, shrink_tail_drop};
use pitree_check::{
    all_indexes, lin_targets, run_differential, run_linearizability, DiffConfig, LinConfig,
};
use pitree_sim::crash::{sweep_script, SweepConfig, Workload};
use pitree_sim::prop::{self, case_seed};
use pitree_sim::SimRng;

/// Seeds per layer.
const SEEDS: usize = 8;

/// The script each durability seed generates.
const WORKLOAD: Workload = Workload {
    ops: 40,
    key_domain: 32,
};

/// The durability sweep over [`WORKLOAD`]: 8 crash points per seed.
fn sweep_config() -> SweepConfig {
    SweepConfig {
        max_crash_points: 8,
        ..SweepConfig::default()
    }
}

/// The corpus of one layer.
fn corpus(layer: &str) -> impl Iterator<Item = u64> + '_ {
    (0..SEEDS).map(move |i| case_seed(layer, i))
}

#[test]
fn differential_all_indexes_match_model() {
    for seed in corpus("pitree-check.diff") {
        for idx in all_indexes() {
            if let Err(v) = run_differential(idx.as_ref(), seed, DiffConfig::default()) {
                panic!("{v}");
            }
        }
    }
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
    for seed in corpus("pitree-check.linear") {
        for idx in lin_targets() {
            if let Err(e) = run_linearizability(idx.as_ref(), seed, LinConfig::default()) {
                panic!("{} (seed {seed:#x}): {e}", idx.name());
            }
        }
    }
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
    let cfg = sweep_config();
    let mut points = 0;
    for seed in corpus("pitree-check.dur") {
        let script = WORKLOAD.script(&mut SimRng::new(seed));
        match sweep_script(&script, seed, &cfg) {
            Ok(report) => points += report.points.len(),
            Err(v) => {
                let min = shrink_durability(&script, seed, &cfg);
                panic!("{v}\nminimal failing script ({} op(s)): {min:?}", min.len());
            }
        }
    }
    println!("check_props: durability, {SEEDS} seeds: {points} crash points");
    assert_eq!(points, 77, "crash points swept over the corpus");
}

#[test]
fn durability_elr_chains_recover_the_covered_commits() {
    let cfg = sweep_config();
    let mut cuts = 0;
    for seed in corpus("pitree-check.elr") {
        match elr_chain_violation(seed, WORKLOAD.key_domain, &cfg) {
            Ok(c) => cuts += c,
            Err(v) => panic!("{v}"),
        }
    }
    println!("check_props: durability-elr, {SEEDS} seeds: {cuts} prefix cuts");
    assert_eq!(cuts, 72, "log-prefix cuts over the corpus");
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
