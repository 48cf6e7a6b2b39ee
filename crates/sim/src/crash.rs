//! The crash–recover–verify loop: kill the system at every durable-write
//! boundary of a seeded workload and check recovery against a reference
//! model.
//!
//! This is the executable form of the paper's central claim (§1 point 4,
//! §4.3): a crash at *any* point — mid structure change, mid flush, mid
//! commit force — leaves a state from which generic ARIES-style recovery
//! produces a well-formed tree containing exactly the committed data.
//!
//! Protocol, per seed:
//!
//! 1. Generate a workload script from the seed (upserts, deletes, pool
//!    flushes, fuzzy checkpoints — each user op is its own forced-commit
//!    transaction).
//! 2. **Probe**: run the script once under a counting [`CrashPlan`] to
//!    measure the crash-point space (`fault_points` boundaries), and verify
//!    the no-crash end state against the model.
//! 3. **Sweep**: for each sampled boundary `n`, rebuild from scratch with a
//!    plan that fires at `n`, replay the identical script (determinism makes
//!    the boundary sequence identical), and track a `BTreeMap` model that is
//!    updated only when a commit *returns Ok*. Because every commit forces
//!    the log and `MemLogStore::append` is all-or-nothing, a commit returns
//!    `Ok` iff its commit record is durable — so the model at the crash is
//!    exactly the committed data.
//! 4. Crash (injector-free durable snapshot), recover, and assert:
//!    well-formedness ([`pitree::wellformed`]), record count == model size,
//!    and every model key readable with its exact value. Then complete any
//!    interrupted structure changes lazily and re-check well-formedness.
//!
//! [`crash_during_recovery`] turns the same kit on recovery itself: the
//! survivor of step 4 carries a second [`CrashPlan`], so the restart's own
//! durable writes — eviction write-backs while the redo plan drains, the
//! CLR/`End` force after undo — are crash points too. Recovery is killed at
//! each sampled one, the half-recovered image is crashed again, and a clean
//! recovery of *that* must still yield exactly the committed data.
//!
//! Every panic message carries the seed and crash point, and the [`crate::prop`]
//! runner prints the `PITREE_SIM_SEED` replay command on the way out.

use crate::fault::CrashPlan;
use crate::rng::SimRng;
use pitree::{CrashableStore, PiTree, PiTreeConfig};
use pitree_pagestore::fault::{is_injected, InjectorHandle};
use pitree_pagestore::{StoreError, StoreResult};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Workload + sweep parameters.
#[derive(Clone, Debug)]
pub struct CrashConfig {
    /// Number of workload operations per seed.
    pub ops: usize,
    /// Keys are drawn from `[0, key_domain)`.
    pub key_domain: u64,
    /// Cap on crash points swept per seed (evenly strided; the final
    /// boundary is always included).
    pub max_crash_points: usize,
    /// Buffer-pool frames (small pools force evictions → page-write faults).
    pub pool_frames: usize,
    /// Space-map capacity for the fresh store.
    pub max_pages: u64,
    /// Tree configuration (small nodes force splits → SMO crash points).
    pub tree_cfg: PiTreeConfig,
}

impl Default for CrashConfig {
    fn default() -> CrashConfig {
        CrashConfig {
            ops: 60,
            key_domain: 48,
            max_crash_points: 12,
            pool_frames: 64,
            max_pages: 10_000,
            tree_cfg: PiTreeConfig::small_nodes(4, 4),
        }
    }
}

/// What one seed's sweep covered.
#[derive(Clone, Debug)]
pub struct CrashReport {
    /// The seed that generated the workload.
    pub seed: u64,
    /// Size of the crash-point space (armed durable-write boundaries).
    pub fault_points: u64,
    /// How many of those boundaries were actually crash-tested.
    pub crash_points_tested: usize,
    /// Committed keys at the end of the no-crash probe run.
    pub final_keys: usize,
}

#[derive(Clone, Copy, Debug)]
enum WorkOp {
    /// Transactional upsert (value derives from key + op index, so repeated
    /// upserts of a key really change its payload).
    Insert(u64),
    Delete(u64),
    /// Flush all dirty pages (page-write boundaries mid-workload).
    Flush,
    /// Fuzzy checkpoint (recovery must honor it after a crash).
    Checkpoint,
}

fn gen_script(rng: &mut SimRng, cfg: &CrashConfig) -> Vec<WorkOp> {
    (0..cfg.ops)
        .map(|_| {
            let k = rng.below(cfg.key_domain);
            match rng.below(100) {
                0..=54 => WorkOp::Insert(k),
                55..=84 => WorkOp::Delete(k),
                85..=94 => WorkOp::Flush,
                _ => WorkOp::Checkpoint,
            }
        })
        .collect()
}

fn key_bytes(k: u64) -> Vec<u8> {
    k.to_be_bytes().to_vec()
}

fn val_bytes(k: u64, op_index: usize) -> Vec<u8> {
    format!("v{k}-{op_index}").into_bytes()
}

fn build(cfg: &CrashConfig, plan: &Arc<CrashPlan>) -> (CrashableStore, PiTree) {
    // The plan is disarmed during setup: mkfs and root creation are not part
    // of the crash-point space (crashes there recover to "no tree", which
    // the seed's log-prefix sweeps already cover).
    let cs = CrashableStore::create_with_injector(
        cfg.pool_frames,
        cfg.max_pages,
        Arc::clone(plan) as InjectorHandle,
    )
    .expect("store setup (disarmed) cannot crash");
    let tree = PiTree::create(Arc::clone(&cs.store), 1, cfg.tree_cfg)
        .expect("tree setup (disarmed) cannot crash");
    (cs, tree)
}

/// Run the script, maintaining the committed-data model. Stops at the first
/// error (for a firing plan: the injected crash).
fn run_script(
    cs: &CrashableStore,
    tree: &PiTree,
    script: &[WorkOp],
    model: &mut BTreeMap<u64, Vec<u8>>,
) -> StoreResult<()> {
    for (i, op) in script.iter().enumerate() {
        match *op {
            WorkOp::Insert(k) => {
                let v = val_bytes(k, i);
                let mut t = tree.begin();
                if let Err(e) = tree.insert(&mut t, &key_bytes(k), &v) {
                    // The txn may hold log/lock state it can no longer clean
                    // up on a dead machine; a real crash loses it anyway.
                    std::mem::forget(t);
                    return Err(e);
                }
                t.commit()?;
                model.insert(k, v);
            }
            WorkOp::Delete(k) => {
                let mut t = tree.begin();
                if let Err(e) = tree.delete(&mut t, &key_bytes(k)) {
                    std::mem::forget(t);
                    return Err(e);
                }
                t.commit()?;
                model.remove(&k);
            }
            WorkOp::Flush => cs.store.pool.flush_all()?,
            WorkOp::Checkpoint => {
                cs.store.txns.checkpoint()?;
            }
        }
    }
    Ok(())
}

/// Recover the crashed store and assert everything the kit promises.
fn verify_recovery(
    crashed: &CrashableStore,
    cfg: &CrashConfig,
    model: &BTreeMap<u64, Vec<u8>>,
    ctx: &str,
) {
    let (tree, _stats) = PiTree::recover(Arc::clone(&crashed.store), 1, cfg.tree_cfg)
        .unwrap_or_else(|e| panic!("{ctx}: recovery failed: {e}"));
    let report = tree
        .validate()
        .unwrap_or_else(|e| panic!("{ctx}: validate: {e}"));
    assert!(
        report.is_well_formed(),
        "{ctx}: recovered tree ill-formed: {:?}",
        report.violations
    );
    assert_eq!(
        report.records,
        model.len(),
        "{ctx}: record count diverges from committed model"
    );
    for (k, v) in model {
        let got = tree
            .get_unlocked(&key_bytes(*k))
            .unwrap_or_else(|e| panic!("{ctx}: get {k}: {e}"));
        assert_eq!(got.as_ref(), Some(v), "{ctx}: key {k} lost or wrong value");
    }
    // Interrupted structure changes must be lazily completable, and
    // completion must preserve well-formedness and the data.
    tree.run_completions()
        .unwrap_or_else(|e| panic!("{ctx}: completions: {e}"));
    tree.run_completions()
        .unwrap_or_else(|e| panic!("{ctx}: completions: {e}"));
    let report = tree.validate().unwrap();
    assert!(
        report.is_well_formed(),
        "{ctx}: ill-formed after lazy completion: {:?}",
        report.violations
    );
    assert_eq!(
        report.records,
        model.len(),
        "{ctx}: records changed by completion"
    );
}

fn expect_injected(res: StoreResult<()>, ctx: &str) {
    match res {
        Err(ref e) if is_injected(e) => {}
        Err(e) => panic!("{ctx}: non-injected error {e}"),
        Ok(()) => panic!("{ctx}: workload completed although the plan should have fired"),
    }
}

/// The boundaries to crash at, out of `1..=fault_points`: evenly strided,
/// at most about `max_points`, always including the first and the last.
fn sample_points(fault_points: u64, max_points: usize) -> Vec<u64> {
    let stride = (fault_points as usize / max_points).max(1);
    let mut points: Vec<u64> = (1..=fault_points).step_by(stride).collect();
    if fault_points > 0 && points.last() != Some(&fault_points) {
        points.push(fault_points);
    }
    points
}

/// Full crash–recover–verify sweep for one seed. Panics (with a replayable
/// message) on any violation; returns coverage numbers otherwise.
pub fn crash_recover_verify(seed: u64, cfg: &CrashConfig) -> CrashReport {
    let mut rng = SimRng::new(seed);
    let script = gen_script(&mut rng, cfg);

    // Probe: measure the crash-point space and sanity-check the no-crash run.
    let plan = CrashPlan::count_only();
    let (cs, tree) = build(cfg, &plan);
    plan.arm();
    let mut probe_model = BTreeMap::new();
    run_script(&cs, &tree, &script, &mut probe_model)
        .unwrap_or_else(|e| panic!("seed {seed}: probe run failed: {e}"));
    // Capture the count *before* validation: reads can evict dirty pages and
    // cross extra (uninteresting) boundaries.
    let fault_points = plan.hits();
    assert!(
        fault_points > 0,
        "seed {seed}: workload crossed no durable-write boundary"
    );
    let report = tree.validate().unwrap();
    assert!(
        report.is_well_formed(),
        "seed {seed}: probe end state: {:?}",
        report.violations
    );
    assert_eq!(
        report.records,
        probe_model.len(),
        "seed {seed}: probe model diverges"
    );
    drop(tree);

    let points = sample_points(fault_points, cfg.max_crash_points);

    for &n in &points {
        let plan = CrashPlan::fire_at(n);
        let (cs, tree) = build(cfg, &plan);
        plan.arm();
        let mut model = BTreeMap::new();
        let res = run_script(&cs, &tree, &script, &mut model);
        let site = plan.fired_site().unwrap_or_else(|| "?".into());
        let ctx = format!("seed {seed} crash-point {n}/{fault_points} ({site})");
        expect_injected(res, &ctx);
        assert!(plan.fired(), "{ctx}: plan did not fire");
        drop(tree);
        // The crash: volatile state is discarded, the durable snapshot is
        // injector-free so recovery runs unimpeded.
        let crashed = cs
            .crash()
            .unwrap_or_else(|e| panic!("{ctx}: snapshot: {e}"));
        verify_recovery(&crashed, cfg, &model, &ctx);
    }

    CrashReport {
        seed,
        fault_points,
        crash_points_tested: points.len(),
        final_keys: probe_model.len(),
    }
}

/// What one seed's [`crash_during_recovery`] sweep covered.
#[derive(Clone, Debug)]
pub struct RecoveryCrashReport {
    /// The seed that generated the workload and picked the drain policy.
    pub seed: u64,
    /// Whether the interrupted restarts were instant (`recover_instant` +
    /// point reads + `drive`) rather than stop-the-world (`recover`).
    pub instant: bool,
    /// Durable-write boundaries one uninterrupted recovery crosses.
    pub fault_points: u64,
    /// How many of those boundaries recovery was killed at.
    pub crash_points_tested: usize,
    /// How many of the kills tore a page write (an eviction write-back
    /// during undo or the drain); the rest cut a log force short.
    pub page_write_kills: usize,
    /// Loser actions the interrupted recovery had to roll back.
    pub losers: usize,
}

/// One restart of `crashed` under a drain policy: stop-the-world, or instant
/// with a point read of every committed key (on-demand redo) before the
/// background drain. Returns the number of losers rolled back.
fn restart(
    crashed: &CrashableStore,
    cfg: &CrashConfig,
    model: &BTreeMap<u64, Vec<u8>>,
    instant: bool,
) -> StoreResult<usize> {
    let store = Arc::clone(&crashed.store);
    if !instant {
        return Ok(PiTree::recover(store, 1, cfg.tree_cfg)?.1.losers.len());
    }
    let (tree, plan, stats) = PiTree::recover_instant(store, 1, cfg.tree_cfg)?;
    for k in model.keys() {
        tree.get_unlocked(&key_bytes(*k))?;
    }
    // One worker: the boundary sequence must repeat exactly between the
    // counting run and each killing run.
    plan.drive(&crashed.store.pool, 1)?;
    Ok(stats.losers.len())
}

/// Crash recovery itself, for one seed: run a seed-chosen prefix of the
/// workload, leave one transaction in flight with its updates forced (so
/// every image has a loser and undo has CLRs to write), crash, then kill the
/// survivor's restart at every sampled durable write of its own, crash
/// again, recover cleanly and check the committed model. The seed's low bit
/// picks the drain policy of the restarts that get killed; the final, clean
/// recovery is always stop-the-world.
pub fn crash_during_recovery(seed: u64, cfg: &CrashConfig) -> RecoveryCrashReport {
    let mut rng = SimRng::new(seed);
    let script = gen_script(&mut rng, cfg);
    let instant = seed & 1 == 1;

    // The workload's own crash needs no injector: it lands between two
    // operations of the script's second half.
    let (dead, tree) = build(cfg, &CrashPlan::count_only());
    let prefix = script.len() / 2 + rng.range_usize(0..script.len() / 2 + 1);
    let mut model = BTreeMap::new();
    run_script(&dead, &tree, &script[..prefix], &mut model)
        .unwrap_or_else(|e| panic!("seed {seed}: workload failed: {e}"));
    let mut loser = tree.begin();
    for _ in 0..3 {
        let k = rng.below(cfg.key_domain);
        tree.insert(&mut loser, &key_bytes(k), b"loser-uncommitted")
            .unwrap_or_else(|e| panic!("seed {seed}: loser insert {k}: {e}"));
    }
    dead.store
        .log
        .force_all()
        .unwrap_or_else(|e| panic!("seed {seed}: force loser tail: {e}"));
    // Forget, not drop: a dead machine does not roll back politely.
    std::mem::forget(loser);
    drop(tree);

    // Count the boundaries of one uninterrupted restart of that image.
    let count = CrashPlan::count_only();
    let survivor = dead
        .crash_with_injector(Arc::clone(&count) as InjectorHandle)
        .unwrap_or_else(|e| panic!("seed {seed}: snapshot: {e}"));
    count.arm();
    let losers = restart(&survivor, cfg, &model, instant)
        .unwrap_or_else(|e| panic!("seed {seed}: uninterrupted restart failed: {e}"));
    let fault_points = count.hits();

    let points = sample_points(fault_points, cfg.max_crash_points);
    let mut page_write_kills = 0;
    for &m in &points {
        let kill = CrashPlan::fire_at(m);
        let survivor = dead
            .crash_with_injector(Arc::clone(&kill) as InjectorHandle)
            .unwrap_or_else(|e| panic!("seed {seed}: snapshot: {e}"));
        kill.arm();
        let res = restart(&survivor, cfg, &model, instant).map(drop);
        let site = kill.fired_site().unwrap_or_else(|| "?".into());
        let ctx = format!(
            "seed {seed} after {prefix} ops, recovery (instant: {instant}) killed at \
             {m}/{fault_points} ({site})"
        );
        expect_injected(res, &ctx);
        page_write_kills += usize::from(site.starts_with("page-write"));
        let twice = survivor
            .crash()
            .unwrap_or_else(|e| panic!("{ctx}: snapshot: {e}"));
        verify_recovery(&twice, cfg, &model, &ctx);
    }

    RecoveryCrashReport {
        seed,
        instant,
        fault_points,
        crash_points_tested: points.len(),
        page_write_kills,
        losers,
    }
}

/// Convenience: assert that an error is an injected crash (re-exported for
/// tests that drive [`CrashPlan`] by hand).
pub fn assert_injected(err: &StoreError) {
    assert!(is_injected(err), "expected injected crash, got: {err}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_seed_sweep_passes() {
        let cfg = CrashConfig {
            ops: 30,
            max_crash_points: 6,
            ..CrashConfig::default()
        };
        let report = crash_recover_verify(0xDEAD_BEEF, &cfg);
        assert!(report.fault_points > 0);
        assert!(
            report.crash_points_tested >= 2,
            "first and last boundary at minimum"
        );
    }

    #[test]
    fn scripts_are_seed_deterministic() {
        let cfg = CrashConfig::default();
        let a = gen_script(&mut SimRng::new(5), &cfg);
        let b = gen_script(&mut SimRng::new(5), &cfg);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }
}
