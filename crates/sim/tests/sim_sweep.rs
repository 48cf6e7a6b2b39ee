//! The kit's acceptance sweep: 64 distinct seeds of crash–recover–verify,
//! jointly covering well over 100 injected crash points, 32 seeds whose
//! *recovery* is crashed at its own durable writes, plus a multi-seed
//! schedule shake. Any failing seed is printed by the property runner and
//! replayable with `PITREE_SIM_SEED=<seed>`.

use pitree_sim::{crash, prop, shake};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Acceptance floors hold only for the full default corpus: replaying one
/// seed or scaling the case count legitimately changes what a sweep covers.
#[expect(
    clippy::disallowed_methods,
    reason = "reads the replay knobs only to skip acceptance floors during manual replays"
)]
fn full_corpus() -> bool {
    std::env::var("PITREE_SIM_SEED").is_err() && std::env::var("PITREE_SIM_CASES").is_err()
}

#[test]
fn crash_recover_verify_64_seeds() {
    let seeds = AtomicUsize::new(0);
    let points = AtomicUsize::new(0);
    let boundary_space = AtomicU64::new(0);
    prop::run_cases("crash_recover_verify_sweep", 64, |rng| {
        let seed = rng.next_u64();
        let report = crash::crash_recover_verify(
            seed,
            &crash::Workload::default(),
            &crash::SweepConfig::default(),
        );
        seeds.fetch_add(1, Ordering::Relaxed);
        points.fetch_add(report.points.len(), Ordering::Relaxed);
        boundary_space.fetch_add(report.window.1, Ordering::Relaxed);
    });
    eprintln!(
        "crash sweep: {} seeds, {} crash points tested, {} durability boundaries seen",
        seeds.load(Ordering::Relaxed),
        points.load(Ordering::Relaxed),
        boundary_space.load(Ordering::Relaxed),
    );
    if full_corpus() {
        assert_eq!(seeds.load(Ordering::Relaxed), 64);
        let tested = points.load(Ordering::Relaxed);
        assert!(
            tested >= 100,
            "swept only {tested} crash points across 64 seeds"
        );
    }
}

/// Recovery's own durable writes are crash points too: every seed crashes
/// its workload, then kills the survivor's restart at each sampled write of
/// its own. The pool is a fraction of the tree, so undo and the redo drain
/// evict (and write back) while they run; the seed's low bit picks
/// stop-the-world or instant.
#[test]
fn crash_during_recovery_32_seeds() {
    let points = AtomicUsize::new(0);
    let instant_points = AtomicUsize::new(0);
    let page_writes = AtomicUsize::new(0);
    let losers = AtomicUsize::new(0);
    prop::run_cases("crash_during_recovery_sweep", 32, |rng| {
        let seed = rng.next_u64();
        let workload = crash::Workload {
            ops: 240,
            key_domain: 192,
        };
        let cfg = crash::SweepConfig {
            pool_frames: 16,
            max_crash_points: 16,
            ..crash::SweepConfig::default()
        };
        let report = crash::crash_during_recovery(seed, &workload, &cfg);
        let killed = report.sweep.points.len();
        points.fetch_add(killed, Ordering::Relaxed);
        if report.instant {
            instant_points.fetch_add(killed, Ordering::Relaxed);
        }
        page_writes.fetch_add(report.sweep.page_write_crashes, Ordering::Relaxed);
        losers.fetch_add(report.losers, Ordering::Relaxed);
    });
    let (tested, instant, page_writes) = (
        points.load(Ordering::Relaxed),
        instant_points.load(Ordering::Relaxed),
        page_writes.load(Ordering::Relaxed),
    );
    eprintln!(
        "recovery-crash sweep: recovery killed at {tested} of its own writes \
         ({instant} under instant restart, {page_writes} page writes), {} losers in the swept images",
        losers.load(Ordering::Relaxed),
    );
    if full_corpus() {
        assert!(tested >= 100, "killed recovery at only {tested} points");
        assert!(
            instant > 0 && instant < tested,
            "both drain policies must be swept ({instant} of {tested} instant)"
        );
        assert!(
            page_writes > 0 && page_writes < tested,
            "page write-backs and log forces must both be torn ({page_writes} of {tested})"
        );
        assert!(
            losers.load(Ordering::Relaxed) > 0,
            "no swept image had a loser: the CLR/End force was never a crash point"
        );
    }
}

#[test]
fn schedule_shake_multi_seed() {
    let postings = AtomicU64::new(0);
    prop::run_cases("schedule_shake", 8, |rng| {
        let seed = rng.next_u64();
        let cfg = shake::ShakeConfig {
            ops_per_thread: 80,
            ..shake::ShakeConfig::default()
        };
        let report = shake::shake(seed, &cfg);
        postings.fetch_add(report.postings_scheduled, Ordering::Relaxed);
    });
    if full_corpus() {
        assert!(
            postings.load(Ordering::Relaxed) > 0,
            "the shakes must interleave structure changes"
        );
    }
}
