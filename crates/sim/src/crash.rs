//! The one crash oracle: kill the system at durable-write boundaries and
//! check recovery against the committed-data model.
//!
//! This is the executable form of the paper's central claim (§1 point 4,
//! §4.3): a crash at *any* point — mid structure change, mid flush, mid
//! commit force — leaves a state from which generic ARIES-style recovery
//! produces a well-formed tree containing exactly the committed data. Every
//! crash test in the workspace — the seeded sweeps here, `pitree-check`'s
//! durability tests and shrinker, the scenario twins, the harness crash
//! matrix — is a call into the four pieces of this module:
//!
//! 1. **One vocabulary** ([`Op`]) and **one committed-model runner**
//!    ([`insert`], [`insert_batch`], [`delete`], [`run_script`]): each write
//!    (or batch) is its own forced-commit transaction, and the [`Model`] is
//!    updated only when the commit *returns Ok*. Because every commit forces the log and
//!    `MemLogStore::append` is all-or-nothing, a commit returns `Ok` iff its
//!    commit record is durable — so the model at a crash is exactly the
//!    committed data. After every commit the ack watermark is checked (an
//!    ack is only legal once the durable watermark covers the commit LSN),
//!    and reads and scans are compared with the model in-line, so a stale
//!    read inside a crash window surfaces as a non-injected error.
//! 2. **One boundary sweep** (`sweep`): probe the run under a counting
//!    [`CrashPlan`] to measure its crash window `(h0, h1]`, sample the
//!    window (`sample_points`: evenly strided, first and last boundary
//!    always included; a cap above the window size means every boundary),
//!    and for each point re-stage the identical run under a plan that fires
//!    there. The run must end in the injected error; the image is crashed
//!    (volatile state discarded, injector-free durable snapshot) and handed
//!    to the verifier. [`sweep_workload`] stages a fresh store and tree and
//!    splits the run into a setup and a trigger closure — the window is what
//!    the trigger crosses — and [`sweep_script`] is the seeded-script case.
//! 3. **One recover-and-verify** ([`recover_and_verify`]) under a [`Drain`]
//!    policy: restart, then well-formedness ([`pitree::wellformed`]), record
//!    count == model size, every model key readable with its exact value;
//!    two lazy-completion passes over the interrupted structure changes, and
//!    the same checks again.
//! 4. **One failure type** ([`Violation`]): seed, crash point, fault site and
//!    what went wrong. Nothing in the engine asserts; the panicking wrappers
//!    below and `pitree-check`'s failure messages are built from the value.
//!
//! [`crash_recover_verify`] and [`crash_during_recovery`] are the engine
//! plus "panic with the violation". The second turns the sweep on recovery
//! itself: the staged run is a *restart* of a crashed image that carries a
//! loser transaction, so the restart's own durable writes — eviction
//! write-backs while the redo plan drains, the CLR/`End` force after undo —
//! are the crash points, and a clean recovery of the twice-crashed image
//! must still yield exactly the committed data.
//!
//! The log-prefix sweeps of the structure crates cut a finished run's
//! durable log instead: [`log_cuts`] says where, and [`range_moves`] finds
//! the structure changes' entry moves among the records, so a sweep can
//! show that it cut inside one.

use crate::fault::CrashPlan;
use crate::rng::SimRng;
use pitree::{CrashableStore, PiTree, PiTreeConfig};
use pitree_pagestore::fault::{is_injected, InjectorHandle};
use pitree_pagestore::{Lsn, PageOp, StoreError, StoreResult};
use pitree_txnlock::Txn;
use pitree_wal::{LogRecord, RecordKind};
use std::collections::BTreeMap;
use std::sync::Arc;

/// One workload step — the single op vocabulary of every crash and
/// differential script in the workspace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Forced-commit upsert of key `k` (the value derives from key + op
    /// index, so repeated upserts of a key really change its payload).
    Insert(u64),
    /// Forced-commit delete of key `k`.
    Delete(u64),
    /// Point read of key `k`, checked against the model.
    Get(u64),
    /// Range scan `[lo, hi)`, checked against the model.
    Scan(u64, u64),
    /// Flush all dirty pages (page-write boundaries mid-workload).
    Flush,
    /// Fuzzy checkpoint (recovery must honor it after a crash).
    Checkpoint,
}

/// The committed data: key → value of every write whose commit returned.
pub type Model = BTreeMap<u64, Vec<u8>>;

/// Shape of a generated script (the generator's parameters, not the
/// sweep's).
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Number of operations.
    pub ops: usize,
    /// Keys are drawn from `[0, key_domain)`.
    pub key_domain: u64,
}

impl Default for Workload {
    fn default() -> Workload {
        Workload {
            ops: 60,
            key_domain: 48,
        }
    }
}

impl Workload {
    /// The seed's crash script: 55% upsert, 30% delete, 10% flush, 5%
    /// checkpoint, two draws per op (key, then kind). The draw order is
    /// part of the replay contract — a printed seed means this script.
    pub fn script(&self, rng: &mut SimRng) -> Vec<Op> {
        (0..self.ops)
            .map(|_| {
                let k = rng.below(self.key_domain);
                match rng.below(100) {
                    0..=54 => Op::Insert(k),
                    55..=84 => Op::Delete(k),
                    85..=94 => Op::Flush,
                    _ => Op::Checkpoint,
                }
            })
            .collect()
    }
}

/// How a sweep stages its system and how much of the window it crashes.
#[derive(Clone, Debug)]
pub struct SweepConfig {
    /// Cap on crash points per sweep (evenly strided; the first and last
    /// boundary are always included). `usize::MAX` crashes every boundary.
    pub max_crash_points: usize,
    /// Buffer-pool frames (small pools force evictions → page-write faults).
    pub pool_frames: usize,
    /// Space-map capacity for the fresh store.
    pub max_pages: u64,
    /// Tree configuration (small nodes force splits → SMO crash points).
    pub tree_cfg: PiTreeConfig,
}

impl Default for SweepConfig {
    fn default() -> SweepConfig {
        SweepConfig {
            max_crash_points: 12,
            pool_frames: 64,
            max_pages: 10_000,
            tree_cfg: PiTreeConfig::small_nodes(4, 4),
        }
    }
}

/// Who drains the redo plan of the recovery under test.
#[derive(Clone, Copy, Debug)]
pub enum Drain {
    /// `PiTree::recover`: the calling thread drains before the tree opens.
    Synchronous,
    /// `PiTree::recover_instant`: every committed key is served while the
    /// plan may still be pending (each pin redoes its page inline), then
    /// this many background workers drain the rest.
    TrafficThenWorkers(usize),
}

/// The crash oracle's one failure type: what went wrong, and where.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Seed of the failing workload (0 for hand-written workloads).
    pub seed: u64,
    /// 1-based crash boundary; 0 when no injected crash was involved (the
    /// probe run, a fixture's synthetic crash).
    pub point: u64,
    /// The fault site the crash fired at, or what stood in for one.
    pub site: String,
    /// What the run or the recovery got wrong.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "crash-oracle violation (seed {:#x}, crash point {} at {}): {}",
            self.seed, self.point, self.site, self.detail
        )
    }
}

/// What a passing sweep covered.
#[derive(Clone, Debug)]
pub struct SweepReport {
    /// The crash window `(h0, h1]`, in armed durable-write boundaries of
    /// the probe run (`h0` is 0 when the whole run is the window).
    pub window: (u64, u64),
    /// The boundaries crashed at, ascending.
    pub points: Vec<u64>,
    /// How many of those crashes tore a page write (the rest cut a log
    /// force short).
    pub page_write_crashes: usize,
}

/// Key encoding shared by every script runner.
pub fn key_bytes(k: u64) -> Vec<u8> {
    k.to_be_bytes().to_vec()
}

/// The value op `op_index` of a script writes under key `k`.
pub fn val_bytes(k: u64, op_index: usize) -> Vec<u8> {
    format!("v{k}-{op_index}").into_bytes()
}

/// A forced commit's ack is only legal once the durable watermark covers
/// its LSN — the early-lock-release contract. Checked after every commit
/// the runner performs, so a regression that acks at publish surfaces as a
/// violation at whatever crash point next loses the volatile tail.
pub fn check_ack_watermark(tree: &PiTree, lsn: Lsn) -> StoreResult<()> {
    let flushed = tree.store().log.flushed_lsn();
    if flushed < lsn {
        return Err(StoreError::Corrupt(format!(
            "commit acked at lsn {lsn} before the durable watermark ({flushed}) covered it"
        )));
    }
    Ok(())
}

/// One forced-commit transaction around `write`, its ack checked against
/// the watermark. A failed write forgets the transaction: it may hold
/// log/lock state it can no longer clean up on a dead machine, and a real
/// crash loses it anyway.
fn committed<T>(
    tree: &PiTree,
    write: impl FnOnce(&mut Txn<'_>) -> StoreResult<T>,
) -> StoreResult<()> {
    let mut t = tree.begin();
    if let Err(e) = write(&mut t) {
        std::mem::forget(t);
        return Err(e);
    }
    check_ack_watermark(tree, t.commit()?)
}

/// Forced-commit upsert; the model records it only when the commit returns.
pub fn insert(tree: &PiTree, model: &mut Model, k: u64, value: &[u8]) -> StoreResult<()> {
    insert_batch(tree, model, &[(k, value.to_vec())])
}

/// Forced-commit upsert of several keys in *one* transaction — the way to
/// reach what only a transaction that already updated a leaf can do to it
/// (§4.2.1's in-transaction split). The model records the batch only when
/// the commit returns.
pub fn insert_batch(tree: &PiTree, model: &mut Model, kvs: &[(u64, Vec<u8>)]) -> StoreResult<()> {
    committed(tree, |t| {
        kvs.iter()
            .try_for_each(|(k, v)| tree.insert(t, &key_bytes(*k), v).map(drop))
    })?;
    model.extend(kvs.iter().cloned());
    Ok(())
}

/// Forced-commit delete; the model forgets the key only when the commit
/// returns.
pub fn delete(tree: &PiTree, model: &mut Model, k: u64) -> StoreResult<()> {
    committed(tree, |t| tree.delete(t, &key_bytes(k)))?;
    model.remove(&k);
    Ok(())
}

fn diverged(what: String) -> StoreError {
    StoreError::Corrupt(format!("read divergence: {what}"))
}

/// Every model key must read back its exact value.
fn check_reads(tree: &PiTree, model: &Model) -> StoreResult<()> {
    for (k, v) in model {
        let got = tree.get_unlocked(&key_bytes(*k))?;
        if got.as_ref() != Some(v) {
            return Err(diverged(format!(
                "committed key {k} reads {got:?}, expected {v:?}"
            )));
        }
    }
    Ok(())
}

/// Run op `i` of a script. Writes go through [`insert`] / [`delete`]; a
/// read or scan that disagrees with the model is a (non-injected)
/// `Corrupt` error naming the op index.
fn apply(tree: &PiTree, model: &mut Model, i: usize, op: Op) -> StoreResult<()> {
    match op {
        Op::Insert(k) => insert(tree, model, k, &val_bytes(k, i)),
        Op::Delete(k) => delete(tree, model, k),
        Op::Get(k) => {
            let (got, want) = (tree.get_unlocked(&key_bytes(k))?, model.get(&k));
            if got.as_ref() != want {
                return Err(diverged(format!(
                    "op {i}: get({k}) = {got:?}, model says {want:?}"
                )));
            }
            Ok(())
        }
        Op::Scan(lo, hi) => {
            let got = tree.scan(&key_bytes(lo), &key_bytes(hi))?;
            let want = model.range(lo..hi).map(|(k, v)| (key_bytes(*k), v.clone()));
            let want: Vec<_> = want.collect();
            if got != want {
                return Err(diverged(format!(
                    "op {i}: scan([{lo},{hi})) returned {} pairs, model has {}",
                    got.len(),
                    want.len()
                )));
            }
            Ok(())
        }
        Op::Flush => tree.store().pool.flush_all(),
        Op::Checkpoint => tree.store().txns.checkpoint().map(drop),
    }
}

/// Run a script from its first op, maintaining the committed-data model.
/// Stops at the first error (for a firing plan: the injected crash).
pub fn run_script(tree: &PiTree, model: &mut Model, script: &[Op]) -> StoreResult<()> {
    for (i, op) in script.iter().enumerate() {
        apply(tree, model, i, *op)?;
    }
    Ok(())
}

/// The tree must be well-formed and hold exactly `model`: the record count
/// and every key's exact value. `Err` describes the first discrepancy.
pub fn check_model(tree: &PiTree, model: &Model) -> Result<(), String> {
    let report = tree
        .validate()
        .map_err(|e| format!("validate failed: {e}"))?;
    if !report.is_well_formed() {
        return Err(format!("tree ill-formed: {:?}", report.violations));
    }
    if report.records != model.len() {
        return Err(format!(
            "tree holds {} records, committed model has {} \
             (committed effect lost or uncommitted effect survived)",
            report.records,
            model.len()
        ));
    }
    check_reads(tree, model).map_err(|e| e.to_string())
}

/// One restart of `crashed` under `drain`. Returns the open tree and the
/// number of losers rolled back.
fn restart(
    crashed: &CrashableStore,
    tree_cfg: PiTreeConfig,
    model: &Model,
    drain: Drain,
) -> StoreResult<(PiTree, usize)> {
    let store = Arc::clone(&crashed.store);
    match drain {
        Drain::Synchronous => {
            let (tree, stats) = PiTree::recover(store, 1, tree_cfg)?;
            Ok((tree, stats.losers.len()))
        }
        Drain::TrafficThenWorkers(workers) => {
            let (tree, plan, stats) = PiTree::recover_instant(store, 1, tree_cfg)?;
            check_reads(&tree, model)?; // served while REDO may be pending
            plan.drive(&crashed.store.pool, workers)?;
            if !plan.is_complete() {
                return Err(StoreError::Corrupt("redo plan not drained".into()));
            }
            Ok((tree, stats.losers.len()))
        }
    }
}

/// Recover `crashed` under `drain` and demand exactly the committed `model`
/// back, before and after lazy completion of the interrupted structure
/// changes. `Err` describes the first discrepancy.
pub fn recover_and_verify(
    crashed: &CrashableStore,
    tree_cfg: PiTreeConfig,
    model: &Model,
    drain: Drain,
) -> Result<(), String> {
    let (tree, _losers) =
        restart(crashed, tree_cfg, model, drain).map_err(|e| format!("recovery failed: {e}"))?;
    check_model(&tree, model).map_err(|e| format!("after recovery: {e}"))?;
    for _ in 0..2 {
        tree.run_completions()
            .map_err(|e| format!("lazy completion failed: {e}"))?;
    }
    check_model(&tree, model).map_err(|e| format!("after lazy completion: {e}"))
}

/// The boundaries to crash at, out of the window `(h0, h1]`: evenly strided,
/// at most about `max_points`, always including the first and the last.
fn sample_points(h0: u64, h1: u64, max_points: usize) -> Vec<u64> {
    let stride = ((h1.saturating_sub(h0)) as usize / max_points.max(1)).max(1);
    let mut points: Vec<u64> = (h0 + 1..=h1).step_by(stride).collect();
    if h1 > h0 && points.last() != Some(&h1) {
        points.push(h1);
    }
    points
}

/// One staged run of the system under test, as `sweep` needs it back.
struct Attempt {
    /// The store the run wrote to — crashed once the run has ended.
    cs: CrashableStore,
    /// The committed data at the moment the run stopped.
    model: Model,
    /// Armed boundaries counted when the crash window opened and when the
    /// run ended (read before any verification reads: those can evict dirty
    /// pages and cross extra, uninteresting boundaries).
    window: (u64, u64),
    /// How the run ended.
    result: StoreResult<()>,
}

/// The boundary sweep. `stage` builds the system with the given plan as its
/// fault injector, arms the plan and runs the workload; it must be a pure
/// function of the plan, so the boundary sequence of the counting probe
/// repeats exactly under each firing plan. Every sampled boundary of the
/// probe's window is crashed and the image verified under `drain`.
fn sweep(
    seed: u64,
    cfg: &SweepConfig,
    drain: Drain,
    stage: &dyn Fn(&Arc<CrashPlan>) -> StoreResult<Attempt>,
) -> Result<SweepReport, Violation> {
    let fail = |point: u64, site: &str, detail: String| Violation {
        seed,
        point,
        site: site.to_string(),
        detail,
    };
    let probe = stage(&CrashPlan::count_only())
        .map_err(|e| fail(0, "probe", format!("staging the run failed: {e}")))?;
    if let Err(e) = probe.result {
        return Err(fail(0, "probe", format!("no-crash run failed: {e}")));
    }
    let (h0, h1) = probe.window;
    let points = sample_points(h0, h1, cfg.max_crash_points);

    let mut page_write_crashes = 0;
    for &n in &points {
        let plan = CrashPlan::fire_at(n);
        let staged = stage(&plan);
        let site = plan.fired_site().unwrap_or_else(|| "?".into());
        let fail = |detail: String| fail(n, &site, detail);
        let run = staged.map_err(|e| fail(format!("staging the run failed: {e}")))?;
        match run.result {
            Ok(()) => {
                return Err(fail(
                    "workload completed although the plan should have fired".into(),
                ))
            }
            Err(e) => {
                if !is_injected(&e) {
                    return Err(fail(format!("non-injected error: {e}")));
                }
            }
        }
        page_write_crashes += usize::from(site.starts_with("page-write"));
        // The crash: volatile state is discarded, the durable snapshot is
        // injector-free so recovery runs unimpeded.
        let crashed = run
            .cs
            .crash()
            .map_err(|e| fail(format!("durable snapshot failed: {e}")))?;
        recover_and_verify(&crashed, cfg.tree_cfg, &run.model, drain).map_err(fail)?;
    }
    Ok(SweepReport {
        window: (h0, h1),
        points,
        page_write_crashes,
    })
}

/// A workload phase: drives the tree, maintaining the committed model.
pub type Phase<'a> = &'a dyn Fn(&PiTree, &mut Model) -> StoreResult<()>;

/// Sweep a workload over a fresh store and tree. `setup` runs first; the
/// crash window is exactly what `trigger` crosses. The plan is disarmed
/// while the store and tree are created: mkfs and root creation are not part
/// of the crash-point space (crashes there recover to "no tree", which the
/// log-prefix sweeps already cover). The probe's end state must itself match
/// the model.
pub fn sweep_workload(
    seed: u64,
    cfg: &SweepConfig,
    drain: Drain,
    setup: Phase<'_>,
    trigger: Phase<'_>,
) -> Result<SweepReport, Violation> {
    sweep(seed, cfg, drain, &|plan| {
        let cs = CrashableStore::create_with_injector(
            cfg.pool_frames,
            cfg.max_pages,
            Arc::clone(plan) as InjectorHandle,
        )?;
        let tree = PiTree::create(Arc::clone(&cs.store), 1, cfg.tree_cfg)?;
        plan.arm();
        let mut model = Model::new();
        let ready = setup(&tree, &mut model);
        let h0 = plan.hits();
        let mut result = ready.and_then(|()| trigger(&tree, &mut model));
        let window = (h0, plan.hits());
        if result.is_ok() {
            result = check_model(&tree, &model)
                .map_err(|e| StoreError::Corrupt(format!("end state: {e}")));
        }
        drop(tree);
        Ok(Attempt {
            cs,
            model,
            window,
            result,
        })
    })
}

/// Sweep one explicit script over its whole crash-point space, recovery
/// drained synchronously: the seeded sweeps, the scenario twins and the
/// shrinker's predicate.
pub fn sweep_script(script: &[Op], seed: u64, cfg: &SweepConfig) -> Result<SweepReport, Violation> {
    sweep_workload(
        seed,
        cfg,
        Drain::Synchronous,
        &|_, _| Ok(()),
        &|tree, model| run_script(tree, model, script),
    )
}

/// Panic with the violation. Under the property runner the line that
/// follows the panic carries the case's `PITREE_SIM_SEED=` replay command
/// (the runner derives the workload seed from the case seed); a direct
/// caller replays by passing the workload seed again.
fn replayable<T>(outcome: Result<T, Violation>) -> T {
    outcome.unwrap_or_else(|v| {
        panic!(
            "{v}\nreplay: re-run with workload seed {:#x}, or with the PITREE_SIM_SEED=<case seed> \
             line the property runner prints for this case",
            v.seed
        )
    })
}

/// Full crash–recover–verify sweep of the seed's script. Panics (with a
/// replayable message) on any violation; returns coverage numbers otherwise.
pub fn crash_recover_verify(seed: u64, workload: &Workload, cfg: &SweepConfig) -> SweepReport {
    let script = workload.script(&mut SimRng::new(seed));
    let report = replayable(sweep_script(&script, seed, cfg));
    assert!(
        report.window.1 > 0,
        "seed {seed:#x}: workload crossed no durable-write boundary"
    );
    report
}

/// What one seed's [`crash_during_recovery`] sweep covered.
#[derive(Clone, Debug)]
pub struct RecoveryCrashReport {
    /// Whether the interrupted restarts were instant (`recover_instant` +
    /// point reads + one drain worker) rather than stop-the-world.
    pub instant: bool,
    /// The restart's own boundaries: how many one uninterrupted recovery
    /// crosses, which of them recovery was killed at, and how many of the
    /// kills tore a page write (an eviction write-back during undo or the
    /// drain) rather than a log force.
    pub sweep: SweepReport,
    /// Loser actions the interrupted recovery had to roll back.
    pub losers: usize,
}

/// Crash recovery itself, for one seed: run a seed-chosen prefix of the
/// workload, leave one transaction in flight with its updates forced (so
/// every image has a loser and undo has CLRs to write), crash, then kill the
/// survivor's restart at every sampled durable write of its own, crash
/// again, recover cleanly and check the committed model. The seed's low bit
/// picks the drain policy of the restarts that get killed; the final, clean
/// recovery is always stop-the-world.
pub fn crash_during_recovery(
    seed: u64,
    workload: &Workload,
    cfg: &SweepConfig,
) -> RecoveryCrashReport {
    replayable(recovery_sweep(seed, workload, cfg))
}

fn recovery_sweep(
    seed: u64,
    workload: &Workload,
    cfg: &SweepConfig,
) -> Result<RecoveryCrashReport, Violation> {
    let mut rng = SimRng::new(seed);
    let script = workload.script(&mut rng);
    let instant = seed & 1 == 1;
    let prefix = script.len() / 2 + rng.range_usize(0..script.len() / 2 + 1);
    let site = format!("restart (instant: {instant}) of a {prefix}-op image");

    // The workload's own crash needs no injector: it lands between two
    // operations of the script's second half.
    let mut model = Model::new();
    let dead = (|| {
        let dead = CrashableStore::create(cfg.pool_frames, cfg.max_pages)?;
        let tree = PiTree::create(Arc::clone(&dead.store), 1, cfg.tree_cfg)?;
        run_script(&tree, &mut model, &script[..prefix])?;
        let mut loser = tree.begin();
        for _ in 0..3 {
            let k = rng.below(workload.key_domain);
            tree.insert(&mut loser, &key_bytes(k), b"loser-uncommitted")?;
        }
        dead.store.log.force_all()?;
        // Forget, not drop: a dead machine does not roll back politely.
        std::mem::forget(loser);
        Ok(dead)
    })()
    .map_err(|e: StoreError| Violation {
        seed,
        point: 0,
        site: site.clone(),
        detail: format!("building the crash image failed: {e}"),
    })?;

    // One worker: the boundary sequence must repeat exactly between the
    // counting run and each killing run.
    let drain = if instant {
        Drain::TrafficThenWorkers(1)
    } else {
        Drain::Synchronous
    };
    let losers = std::cell::Cell::new(0);
    let sweep = sweep(seed, cfg, Drain::Synchronous, &|plan| {
        let survivor = dead.crash_with_injector(Arc::clone(plan) as InjectorHandle)?;
        plan.arm();
        let result = restart(&survivor, cfg.tree_cfg, &model, drain).map(|(_, n)| losers.set(n));
        Ok(Attempt {
            cs: survivor,
            model: model.clone(),
            window: (0, plan.hits()),
            result,
        })
    })
    .map_err(|v| Violation {
        site: format!("{}, {site}", v.site),
        ..v
    })?;
    Ok(RecoveryCrashReport {
        instant,
        sweep,
        losers: losers.get(),
    })
}

/// Assert that an error is an injected crash (for tests that place a single
/// [`CrashPlan`] by hand).
pub fn assert_injected(err: &StoreError) {
    assert!(is_injected(err), "expected injected crash, got: {err}");
}

// ---- log-prefix cuts -------------------------------------------------------------

/// Where a log-prefix sweep cuts a durable log of `len` bytes that holds
/// `records`: at every record boundary, at the end, and in the middle of
/// every range record (a force torn inside a structure change's entry
/// move).
pub fn log_cuts(records: &[LogRecord], len: u64) -> Vec<u64> {
    let starts: Vec<u64> = records.iter().map(|r| r.lsn.0 - 1).collect();
    let ends = starts.iter().skip(1).copied().chain([len]);
    let torn = records
        .iter()
        .zip(starts.iter().zip(ends))
        .filter(|(r, _)| range_op(r).is_some())
        .map(|(_, (start, end))| start + (end - start) / 2);
    let mut cuts: Vec<u64> = starts.iter().copied().chain([len]).chain(torn).collect();
    cuts.sort_unstable();
    cuts
}

/// The entry moves among `records`: a `KeyedInsertMany` directly followed
/// by a `KeyedRemoveMany` of the same action, as `(entries inserted, keys
/// removed, the boundary between the two records)`. A split removes every
/// entry it inserted; a TSB time split removes only the dead versions.
pub fn range_moves(records: &[LogRecord]) -> Vec<(usize, usize, u64)> {
    records
        .windows(2)
        .filter_map(|w| {
            let [a, b] = w else { return None };
            match (range_op(a)?, range_op(b)?) {
                (PageOp::KeyedInsertMany { entries }, PageOp::KeyedRemoveMany { keys })
                    if a.action == b.action =>
                {
                    Some((entries.len(), keys.len(), b.lsn.0 - 1))
                }
                _ => None,
            }
        })
        .collect()
}

/// The redo of an update record that is a range op.
fn range_op(rec: &LogRecord) -> Option<&PageOp> {
    match &rec.kind {
        RecordKind::Update {
            redo: op @ (PageOp::KeyedInsertMany { .. } | PageOp::KeyedRemoveMany { .. }),
            ..
        } => Some(op),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_seed_sweep_passes() {
        let workload = Workload {
            ops: 30,
            ..Workload::default()
        };
        let cfg = SweepConfig {
            max_crash_points: 6,
            ..SweepConfig::default()
        };
        let report = crash_recover_verify(0xDEAD_BEEF, &workload, &cfg);
        assert_eq!(report.window.0, 0, "a script's window is its whole run");
        assert!(
            report.points.len() >= 2,
            "first and last boundary at minimum"
        );
    }

    #[test]
    fn sampler_clamps_and_keeps_both_ends() {
        // A zero cap used to divide by zero; it now means "as few as the
        // sampler allows": the first and the last boundary.
        assert_eq!(sample_points(0, 10, 0), vec![1, 10]);
        assert_eq!(sample_points(0, 10, 1), vec![1, 10]);
        // A cap above the window size crashes every boundary of it.
        assert_eq!(sample_points(0, 4, 9), vec![1, 2, 3, 4]);
        assert_eq!(sample_points(4, 10, usize::MAX), vec![5, 6, 7, 8, 9, 10]);
        assert_eq!(sample_points(0, 10, 3), vec![1, 4, 7, 10]);
        assert_eq!(sample_points(0, 9, 4), vec![1, 3, 5, 7, 9]);
        assert!(sample_points(7, 7, 5).is_empty());
    }

    /// Replay stability: seed → script is part of the kit's contract. Pinned
    /// against the generator as it stood before the crash oracles merged.
    #[test]
    fn script_generator_golden() {
        let script = Workload::default().script(&mut SimRng::new(0x601D));
        assert_eq!(
            format!("{:?}", &script[..12]),
            "[Insert(12), Insert(1), Insert(32), Delete(47), Insert(15), Checkpoint, \
             Delete(35), Delete(19), Insert(19), Insert(11), Delete(18), Insert(15)]"
        );
    }
}
