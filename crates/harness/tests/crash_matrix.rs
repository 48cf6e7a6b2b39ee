//! Crash matrix: table-driven crash–recover–verify runs targeted at each
//! structure-modification path — leaf split, index-term posting, and
//! consolidation.
//!
//! The sim kit's seeded sweep (`pitree_sim::crash`) crashes wherever a
//! random workload happens to cross durable-write boundaries; this matrix
//! instead *aims*: each row hand-crafts a workload whose trigger phase is
//! known (via `TreeStats`) to perform the targeted SMO, and hands the same
//! engine the setup and the trigger, so it probes the boundary window
//! `(h0, h1]` that the trigger spans and crashes at every boundary inside
//! that window. That guarantees per-SMO crash coverage regardless of what
//! the random sweep draws (the paper's §1 point 4: recovery must cope with a
//! crash *during* any structure change).

use pitree::{CrashableStore, PiTree, PiTreeConfig};
use pitree_hb::{HbConfig, HbTree, Point};
use pitree_pagestore::fault::{is_injected, InjectorHandle};
use pitree_pagestore::{StoreError, StoreResult};
use pitree_sim::crash::{self, Drain, Model, SweepConfig, SweepReport};
use pitree_sim::CrashPlan;
use pitree_tsb::{Time, TsbConfig, TsbTree};
use pitree_wal::InstantRecovery;
use std::collections::BTreeMap;
use std::sync::Arc;

fn key(k: u64) -> Vec<u8> {
    crash::key_bytes(k)
}

fn val(k: u64) -> Vec<u8> {
    format!("cm-{k}").into_bytes()
}

/// Forced-commit upsert of the matrix's value for `k` through the crash
/// oracle's runner (the model learns it only when the commit returns).
fn insert(tree: &PiTree, model: &mut Model, k: u64) -> StoreResult<()> {
    crash::insert(tree, model, k, &val(k))
}

/// The crashed image must recover, stop-the-world, to exactly `model`.
fn recovers_to(crashed: &CrashableStore, cfg: PiTreeConfig, model: &Model, ctx: &str) {
    crash::recover_and_verify(crashed, cfg, model, Drain::Synchronous)
        .unwrap_or_else(|e| panic!("{ctx}: {e}"));
}

/// One matrix row: a targeted SMO path.
struct Row {
    name: &'static str,
    cfg: PiTreeConfig,
    /// Workload before the measured window (SMO prerequisites).
    setup: fn(&PiTree, &mut Model) -> StoreResult<()>,
    /// The window that performs the targeted SMO.
    trigger: fn(&PiTree, &mut Model) -> StoreResult<()>,
    /// The `TreeStats` counter the trigger must advance — proof, from the
    /// probe run, that the SMO really happened inside the window.
    smo: &'static str,
    /// For the split rows: entries in the emptiest leaf the trigger left
    /// behind (the chain's last excluded) — proof that the split was the
    /// append split (`engine::split_slot`), which moves one entry and leaves
    /// `cap - 1`, not the middle split, which leaves `cap / 2`.
    left_behind: Option<usize>,
}

fn stat(tree: &PiTree, name: &str) -> u64 {
    let snapshot = tree.stats().snapshot();
    let found = snapshot.iter().find(|(n, _)| *n == name);
    found.map_or(0, |(_, v)| *v)
}

fn rows() -> Vec<Row> {
    // All rows drive completions by hand so the probe can place the SMO
    // precisely inside the trigger window.
    let mut manual = PiTreeConfig::small_nodes(4, 4);
    manual.auto_complete = false;

    // Consolidation row: trigger at < 60% so one delete from a 2-entry
    // leaf (cap 4) schedules it, without having to empty the node.
    let mut consol = manual;
    consol.min_utilization = 0.6;

    vec![
        Row {
            // The full leaf is the root, so this is a `Grew`: contents move
            // to n1, and n1's inner split is an append split.
            name: "leaf-split",
            cfg: manual,
            setup: |tree, model| (0..4).try_for_each(|k| insert(tree, model, k)),
            trigger: |tree, model| {
                insert(tree, model, 4)?; // 5th key overflows the leaf
                tree.store().pool.flush_all()
            },
            smo: "splits",
            left_behind: Some(3),
        },
        Row {
            // A `Normal` split of the rightmost leaf [3,4,5,6]: key 6 alone
            // moves to the new sibling, which then receives key 7.
            name: "append-split",
            cfg: manual,
            setup: |tree, model| (0..7).try_for_each(|k| insert(tree, model, k)),
            trigger: |tree, model| {
                insert(tree, model, 7)?;
                tree.store().pool.flush_all()
            },
            smo: "splits_independent",
            left_behind: Some(3),
        },
        Row {
            // The same split under page-oriented UNDO by a transaction that
            // already updated the leaf: it runs inside the transaction under
            // a move lock, and its posting waits for the commit (§4.2.2).
            name: "append-split-in-txn",
            cfg: manual.page_oriented(),
            setup: |tree, model| (0..6).try_for_each(|k| insert(tree, model, k)),
            trigger: |tree, model| {
                crash::insert_batch(tree, model, &[(6, val(6)), (7, val(7))])?;
                tree.run_completions()?; // the posting the commit released
                tree.store().pool.flush_all()
            },
            smo: "splits_in_txn",
            left_behind: Some(3),
        },
        Row {
            name: "post-index-term",
            cfg: manual,
            // The first split of a single-leaf tree is a root grow (no
            // posting); keep inserting until a *non-root* leaf splits and
            // leaves a pending index-term posting behind.
            setup: |tree, model| (0..10).try_for_each(|k| insert(tree, model, k)),
            trigger: |tree, _model| {
                tree.run_completions()?; // the posting SMO
                tree.store().pool.flush_all()
            },
            smo: "postings_done",
            left_behind: None,
        },
        Row {
            name: "consolidate",
            cfg: consol,
            setup: |tree, model| {
                (0..8).try_for_each(|k| insert(tree, model, k))?;
                tree.run_completions()?; // drain the split postings
                                         // Underflow the *rightmost* leaf (the leftmost is the first
                                         // child of its parent, which §3.3 refuses to merge) far
                                         // enough that container + contained fit in one node.
                [7, 6, 5, 4]
                    .into_iter()
                    .try_for_each(|k| crash::delete(tree, model, k))
            },
            trigger: |tree, _model| {
                tree.run_completions()?; // the consolidation SMO
                tree.store().pool.flush_all()
            },
            smo: "consolidations",
            left_behind: None,
        },
    ]
}

fn build(cfg: PiTreeConfig, plan: &Arc<CrashPlan>) -> (CrashableStore, PiTree) {
    let cs = CrashableStore::create_with_injector(64, 10_000, Arc::clone(plan) as InjectorHandle)
        .expect("store setup (disarmed)");
    let tree = PiTree::create(Arc::clone(&cs.store), 1, cfg).expect("tree setup (disarmed)");
    (cs, tree)
}

fn is_lock_failed(e: &StoreError) -> bool {
    matches!(e, StoreError::LockFailed { .. })
}

/// Crash a row at every boundary of its trigger window. The probe run (the
/// only one whose trigger returns) asserts the targeted SMO happened inside
/// the window — which keeps the table honest if node caps or completion
/// policies change.
fn sweep_row(row: &Row) -> SweepReport {
    let cfg = SweepConfig {
        max_crash_points: usize::MAX,
        tree_cfg: row.cfg,
        ..SweepConfig::default()
    };
    let trigger = |tree: &PiTree, model: &mut Model| {
        let before = stat(tree, row.smo);
        (row.trigger)(tree, model)?;
        assert!(
            stat(tree, row.smo) > before,
            "{}: the trigger window did not advance `{}`",
            row.name,
            row.smo
        );
        if let Some(entries) = row.left_behind {
            let report = tree.validate()?;
            let leaves = report.levels.last().expect("a leaf level");
            assert_eq!(
                leaves.emptiest.map(|(_, n)| n),
                Some(entries),
                "{}: {leaves:?}",
                row.name
            );
        }
        Ok(())
    };
    let report = crash::sweep_workload(0, &cfg, Drain::Synchronous, &row.setup, &trigger)
        .unwrap_or_else(|v| panic!("{}: {v}", row.name));
    let (h0, h1) = report.window;
    assert!(h1 > h0, "{}: empty crash window", row.name);
    assert!(report.points.iter().copied().eq(h0 + 1..=h1));
    report
}

#[test]
fn crash_matrix_covers_every_smo_path() {
    for row in rows() {
        let report = sweep_row(&row);
        eprintln!(
            "crash matrix: {} crashed at all {} boundaries of {:?}",
            row.name,
            report.points.len(),
            report.window
        );
    }
}

/// The engine sweeps a row's window exactly where the matrix's own
/// probe-and-crash loop always did: boundaries 5..=10 of the leaf-split run.
#[test]
fn leaf_split_window_is_where_it_always_was() {
    let report = sweep_row(&rows()[0]);
    assert_eq!(report.window, (4, 10));
    assert_eq!(report.points, [5, 6, 7, 8, 9, 10]);
}

/// Guard for a subtlety the matrix relies on: with `auto_complete` off,
/// an op that fails with a lock error surfaces it as `LockFailed` (not a
/// panic), so the sweep correctly distinguishes injected crashes.
#[test]
fn lock_failed_is_distinguishable_from_injected() {
    let err = StoreError::LockFailed { deadlock: true };
    assert!(is_lock_failed(&err));
    assert!(!is_injected(&err));
}

// ---- Group-commit crash windows (§4.3.1) ----------------------------------
//
// The lock-split log manager opens two windows the SMO matrix above cannot
// reach: (a) the leader's batch is durably in the store but the in-memory
// `flushed` watermark was never published, and (b) the leader has already
// woken some followers with `Ok` when the machine dies mid-stream. Both
// must leave recovery with exactly the committed state.

/// Crash in the "batch written, `flushed` not yet published" window: the
/// durable log contains a committed action that no in-memory watermark
/// (and no acknowledgment) ever covered. Recovery reads the store, not
/// the watermark, so the action must come back — exactly once.
#[test]
fn crash_between_batch_write_and_flushed_publish() {
    use pitree_wal::{ActionIdentity, RecordKind};
    let cfg = PiTreeConfig::small_nodes(4, 4);
    let cs = CrashableStore::create(64, 10_000).unwrap();
    let tree = PiTree::create(Arc::clone(&cs.store), 1, cfg).unwrap();
    let mut model = Model::new();
    for k in 0..6 {
        insert(&tree, &mut model, k).unwrap();
    }

    // Freeze the window by hand: append a committed action, push the
    // volatile tail into the store the way the leader's batch write does,
    // and then "crash" before anything updates `flushed`.
    let log = &cs.store.log;
    let a = log.next_action_id();
    let b = log.append(
        a,
        pitree_pagestore::Lsn::ZERO,
        RecordKind::Begin {
            identity: ActionIdentity::Transaction,
        },
    );
    let c = log.append(a, b, RecordKind::Commit);
    let batch = log.unflushed_tail();
    assert!(!batch.is_empty());
    log.store().append(&batch).unwrap();
    assert!(
        log.flushed_lsn() < c,
        "the point of this test: publish must not have happened"
    );

    drop(tree);
    let crashed = cs.crash().unwrap();
    // The unacknowledged action is durable exactly once (the restart log
    // manager must not re-append the stale volatile tail).
    let recs: Vec<_> = crashed
        .store
        .log
        .scan(None)
        .collect::<Result<_, _>>()
        .unwrap();
    assert_eq!(
        recs.iter().filter(|r| r.action == a).count(),
        2,
        "Begin+Commit of the unpublished batch, exactly once"
    );
    assert!(recs
        .iter()
        .any(|r| r.lsn == c && matches!(r.kind, RecordKind::Commit)));
    recovers_to(&crashed, cfg, &model, "batch-written-flushed-unpublished");
}

/// Crash mid-stream while group commit is running multi-threaded: some
/// followers were already woken with `Ok` (their batches made it), later
/// forces die with the injected storage error. Every force that returned
/// `Ok` must be durable after recovery; nothing acknowledged may be lost.
#[test]
fn crash_after_leader_woke_some_followers() {
    use pitree_pagestore::Lsn;
    use pitree_wal::{ActionIdentity, RecordKind};
    use std::collections::HashSet;

    let cfg = PiTreeConfig::small_nodes(4, 4);
    let plan = CrashPlan::fire_at(12);
    let (cs, tree) = build(cfg, &plan);
    let mut model = Model::new();
    for k in 0..6 {
        insert(&tree, &mut model, k).unwrap();
    }
    // Arm only now: the countdown covers the concurrent commit stream.
    plan.arm();

    let log = &cs.store.log;
    let acked: Vec<Lsn> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..4)
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let a = log.next_action_id();
                        let b = log.append(
                            a,
                            Lsn::ZERO,
                            RecordKind::Begin {
                                identity: ActionIdentity::Transaction,
                            },
                        );
                        let c = log.append(a, b, RecordKind::Commit);
                        if let Err(e) = log.force_to(c) {
                            crash::assert_injected(&e);
                            break mine;
                        }
                        mine.push(c);
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("worker"))
            .collect()
    });
    assert!(plan.fired(), "the commit stream must outlive the countdown");
    assert!(
        !acked.is_empty(),
        "some forces must have been acknowledged before the crash"
    );

    drop(tree);
    let crashed = cs.crash().unwrap();
    let durable: HashSet<u64> = crashed
        .store
        .log
        .scan(None)
        .map(|r| r.unwrap().lsn.0)
        .collect();
    for lsn in &acked {
        assert!(
            durable.contains(&lsn.0),
            "force_to({lsn}) returned Ok but the record is gone after crash"
        );
    }
    recovers_to(&crashed, cfg, &model, "leader-woke-some-followers");
}

// ---- Early-lock-release / group-force crash windows -------------------------
//
// Early lock release and commit pipelining open three more windows:
// (c) a crash while published, committed-in-log transactions sit in the
// undrained tail, before any force; (d) a crash after a transaction released
// its locks at log-append but before the group's force completed; and
// (e) a crash after the group's batch is durably written but before the
// watermark publish, with a *dependent* pipelined transaction in the same
// batch. In every case: unacknowledged commits may vanish, acknowledged
// ones may not, and a dependent commit can never outlive its predecessor.

/// (c) Crash with published commits in the undrained tail: no force runs
/// between the publishes and the crash (the test is single-threaded, so
/// no leader is elected and the linger budget stays 0). T1 has published
/// its commit (locks released, no batch drained), so a successor
/// jumps its key lock and the dependent T3 publishes an update to the same
/// key; the machine dies before any force drains either. Neither
/// transaction was acknowledged, so recovery must show neither.
#[test]
fn crash_with_published_commits_in_undrained_tail() {
    use pitree_txnlock::LockMode;

    let cfg = PiTreeConfig::small_nodes(4, 4);
    let cs = CrashableStore::create(64, 10_000).unwrap();
    let tree = PiTree::create(Arc::clone(&cs.store), 1, cfg).unwrap();
    let mut model = Model::new();
    for k in 0..6 {
        insert(&tree, &mut model, k).unwrap();
    }

    // T1 publishes key 50: its locks go at log-append, its ack never comes.
    let mut t1 = tree.begin();
    tree.insert(&mut t1, &key(50), b"t1-linger").unwrap();
    let pc1 = t1.commit_publish();
    // Early lock release is what makes this window interesting: while T1's
    // commit is short of durability, T2 jumps the released key lock and the
    // dependent T3 publishes an update to the same key.
    let t2 = tree.begin();
    t2.try_lock(&tree.key_lock(&key(50)), LockMode::X)
        .expect("T1 published: its key lock must already be free");
    drop(t2.commit_publish());
    let mut t3 = tree.begin();
    tree.insert(&mut t3, &key(50), b"t2-linger").unwrap();
    let pc3 = t3.commit_publish();
    assert!(
        !pc1.is_durable() && !pc3.is_durable(),
        "no batch may have drained the published commits"
    );
    drop((pc1, pc3));

    // The machine dies: both commits live only in the undrained volatile
    // tail.
    drop(tree);
    let crashed = cs.crash().unwrap();
    // Neither T1 nor T3 was acknowledged; the model keeps neither.
    recovers_to(&crashed, cfg, &model, "published-commits-undrained-tail");
}

/// (d) Crash after early lock release, before the group's force completes:
/// the transaction's locks are gone (a successor observed that), its commit
/// record is in the log, but the batch write dies with an injected fault.
/// The commit was never acknowledged, so recovery must not show it.
#[test]
fn crash_after_lock_release_before_group_force_completes() {
    use pitree_txnlock::LockMode;

    let cfg = PiTreeConfig::small_nodes(4, 4);
    let plan = CrashPlan::fire_at(1);
    let (cs, tree) = build(cfg, &plan);
    let mut model = Model::new();
    for k in 0..6 {
        insert(&tree, &mut model, k).unwrap();
    }
    plan.arm(); // next durable write is the doomed group force

    let mut t = tree.begin();
    tree.insert(&mut t, &key(99), &val(99)).unwrap();
    let pc = t.commit_publish();
    // Locks are already released — the crash window the oracle must cover.
    let t2 = tree.begin();
    t2.try_lock(&tree.key_lock(&key(99)), LockMode::X)
        .expect("early lock release: successor must get the lock before the force");
    std::mem::forget(t2); // dead machine: the successor never cleans up
    let elr = cs.store.pool.recorder().counter("txn.elr_released").get();
    assert!(
        elr >= 7,
        "every user commit releases at log-append (6 setup + 1)"
    );

    crash::assert_injected(&pc.wait_durable().expect_err("the group force must die"));
    assert!(plan.fired());

    drop(tree);
    let crashed = cs.crash().unwrap();
    recovers_to(&crashed, cfg, &model, "elr-before-force");
}

/// (e) Crash between the group's durable batch write and the watermark
/// publish, with a dependent pipelined transaction in the batch: T2 jumped
/// T1's released lock and overwrote the same key, both commits landed in
/// one store append, and the machine died before `flushed` moved. Recovery
/// reads the store, not the watermark: both commits are honoured — exactly
/// once — and the dependent write wins.
#[test]
fn crash_between_group_write_and_publish_with_dependent_txn() {
    use pitree_wal::RecordKind;

    let cfg = PiTreeConfig::small_nodes(4, 4);
    let cs = CrashableStore::create(64, 10_000).unwrap();
    let tree = PiTree::create(Arc::clone(&cs.store), 1, cfg).unwrap();
    let mut model = Model::new();
    for k in 0..6 {
        insert(&tree, &mut model, k).unwrap();
    }

    let mut t1 = tree.begin();
    let a1 = t1.id();
    tree.insert(&mut t1, &key(77), b"predecessor").unwrap();
    let pc1 = t1.commit_publish();
    // Dependent pipelined transaction: sees T1's write, overwrites it.
    let mut t2 = tree.begin();
    let a2 = t2.id();
    tree.insert(&mut t2, &key(77), b"dependent").unwrap();
    let pc2 = t2.commit_publish();

    // The group's batch write happens (both commits durable in one append),
    // but the crash lands before the watermark publish or any ack.
    let log = &cs.store.log;
    let batch = log.unflushed_tail();
    assert!(!batch.is_empty());
    log.store().append(&batch).unwrap();
    assert!(
        log.flushed_lsn() < pc1.lsn(),
        "watermark must not be published"
    );
    assert!(!pc1.is_durable() && !pc2.is_durable());
    drop(pc1);
    drop(pc2);

    drop(tree);
    let crashed = cs.crash().unwrap();
    let recs: Vec<_> = crashed
        .store
        .log
        .scan(None)
        .collect::<Result<_, _>>()
        .unwrap();
    for a in [a1, a2] {
        assert_eq!(
            recs.iter()
                .filter(|r| r.action == a && matches!(r.kind, RecordKind::Commit))
                .count(),
            1,
            "each pipelined commit must be durable exactly once"
        );
    }
    model.insert(77, b"dependent".to_vec());
    recovers_to(&crashed, cfg, &model, "group-write-publish-dependent");
}

// ---- Instant-restart / fuzzy-checkpoint crash windows ----------------------
//
// Fuzzy checkpoints and the two-stage restart (analysis, then on-demand +
// parallel REDO) open four windows none of the rows above reach: (f) a
// crash that tears the checkpoint record itself after the master pointer
// was published; (g) a second crash in the middle of *parallel* REDO, with
// one shard's pages already flushed and the rest untouched; (h) a read
// served from a page the background REDO has not reached yet; and (j) a
// checkpoint taken while the redo plan is still pending, followed by a
// crash before the plan drains. The oracles: a torn checkpoint must degrade
// to a full-scan analysis (never a failed recovery), a half-redone image
// must recover to exactly the committed state (REDO is idempotent under the
// per-page LSN check), a mid-recovery read must return committed data, and
// a mid-drain checkpoint must not advance the master past a record the plan
// still owes.

/// (f) Crash while the checkpoint record is half-written: sweep every
/// durable-log prefix across the checkpoint record's byte range *without*
/// rolling back the master pointer — the exact image a crash between
/// `set_master` publication and a torn final force leaves behind. Reading
/// the master must fail, analysis must fall back to a full scan, and every
/// committed record must survive.
#[test]
fn crash_with_checkpoint_record_half_written() {
    let cfg = PiTreeConfig::small_nodes(4, 4);
    let cs = CrashableStore::create(64, 10_000).unwrap();
    let tree = PiTree::create(Arc::clone(&cs.store), 1, cfg).unwrap();
    let mut model = Model::new();
    for k in 0..12 {
        insert(&tree, &mut model, k).unwrap();
    }

    let ckpt = cs.store.txns.checkpoint().expect("checkpoint");
    let ckpt_start = ckpt.0 - 1; // frame offset of the checkpoint record
    let ckpt_end = cs.durable_log_len(); // checkpoint is the last forced record
    assert!(ckpt_end > ckpt_start, "checkpoint record must be durable");
    assert_eq!(
        cs.store.log.store().master(),
        ckpt,
        "master must point at the record the sweep is about to tear"
    );

    drop(tree);
    // Cut at the record boundary, mid-header, mid-body, and one short.
    for cut in [
        ckpt_start,
        ckpt_start + 4,
        (ckpt_start + ckpt_end) / 2,
        ckpt_end - 1,
    ] {
        let crashed = cs.crash_with_log_prefix(cut).unwrap();
        assert_eq!(
            crashed.store.log.store().master(),
            ckpt,
            "the sweep relies on the master outliving the torn record"
        );
        assert!(
            crashed.store.log.read(ckpt).is_err(),
            "cut {cut}: the checkpoint record should be unreadable"
        );
        recovers_to(&crashed, cfg, &model, &format!("torn-checkpoint cut {cut}"));
    }
}

/// (g) Crash mid-parallel-REDO with one worker's shards complete: start an
/// instant restart, let exactly one of four partitions drain, flush the
/// half-redone pages, crash again, and recover stop-the-world. The second
/// recovery sees pages at wildly different LSNs — some fully redone and
/// flushed, some stale — and must converge to the committed state (the
/// per-page `page_lsn < record_lsn` check makes replay idempotent).
#[test]
fn crash_mid_parallel_redo_with_one_shard_complete() {
    let cfg = PiTreeConfig::small_nodes(4, 4);
    let cs = CrashableStore::create(8, 10_000).unwrap();
    let tree = PiTree::create(Arc::clone(&cs.store), 1, cfg).unwrap();
    let mut model = Model::new();
    for k in 0..30 {
        insert(&tree, &mut model, k).unwrap();
    }
    drop(tree);

    let mid = cs.crash().unwrap();
    let (tree_mid, plan, _) =
        PiTree::recover_instant(Arc::clone(&mid.store), 1, cfg).expect("instant recover");
    let before = plan.pending_page_count();
    assert!(before > 0, "nothing pending: the row tests nothing");
    // One worker of four drains its partition; the other three never run.
    plan.drive_partition(&mid.store.pool, 0, 4)
        .expect("partition 0");
    let after = plan.pending_page_count();
    assert!(
        after < before,
        "partition 0 must have redone at least one page"
    );
    drop(tree_mid);
    mid.store.pool.flush_all().expect("flush half-redone image");

    let crashed = mid.crash().unwrap();
    recovers_to(&crashed, cfg, &model, "mid-parallel-redo");
}

/// (j) Checkpoint while the redo plan is pending, then crash before it
/// drains: instant restart opens the store, traffic commits a few writes
/// (touching — and thereby redoing — only some pages), the redone pages are
/// flushed, `TxnManager::checkpoint` runs with the rest of the plan still
/// owed, and the machine dies before any `drive`. The owed pages were never fetched since the
/// restart, so no dirty frame speaks for them: the checkpoint's dirty-page
/// table must list them itself, or the new master skips their only records.
#[test]
fn checkpoint_during_pending_redo_then_crash_before_drive() {
    let cfg = PiTreeConfig::small_nodes(4, 4);
    let cs = CrashableStore::create(64, 10_000).unwrap();
    let tree = PiTree::create(Arc::clone(&cs.store), 1, cfg).unwrap();
    let mut model = Model::new();
    for k in 0..40 {
        insert(&tree, &mut model, k).unwrap();
    }
    drop(tree);

    let mid = cs.crash().unwrap();
    let (tree_mid, plan, _) =
        PiTree::recover_instant(Arc::clone(&mid.store), 1, cfg).expect("instant recover");
    for k in [3, 40, 41] {
        insert(&tree_mid, &mut model, k).unwrap();
    }
    assert!(
        plan.pending_page_count() > 0,
        "nothing owed at the checkpoint: the row tests nothing"
    );
    // Clean every frame first. Otherwise the root — redone at first pin,
    // so dirty since the log's earliest records — drags the redo horizon
    // back over the owed pages' records by accident.
    mid.store.pool.flush_all().expect("flush redone pages");
    mid.store.txns.checkpoint().expect("checkpoint mid-drain");
    drop(tree_mid);

    let crashed = mid.crash().unwrap();
    recovers_to(&crashed, cfg, &model, "checkpoint-during-pending-redo");
}

// ---- Eviction write-back crash window (i) ----------------------------------
//
// The scenario harness runs at a pool ~1% of the data, so dirty pages are
// displaced — and written back — constantly *during* user operations, not
// just at flush points. That opens window (i): the machine dies in the
// middle of an eviction write-back, with the half-evicted page's log
// records forced (log-before-dirty) but the page image torn out of the
// sweep. Recovery must rebuild exactly the committed state, and it must do
// so under the traffic-first drain policy: on-demand REDO first, then the
// parallel plan drained to completion.

/// (i) Crash during eviction write-back under hot-key pressure: an
/// 8-frame pool under a tree an order of magnitude larger, hammered on a
/// hot band that spans distant leaves. Every durable-write boundary in
/// the storm window gets a crash — the page-write boundaries among them
/// are exactly "machine died mid-eviction-write-back" — and each image
/// recovers through the instant path to the committed state.
#[test]
fn crash_during_eviction_writeback_under_hot_keys() {
    let cfg = PiTreeConfig::small_nodes(4, 4);
    let hot = [0u64, 8, 16, 24, 32, 39];

    let setup = |tree: &PiTree, model: &mut Model| (0..40).try_for_each(|k| insert(tree, model, k));
    let storm = |tree: &PiTree, model: &mut Model| -> StoreResult<()> {
        let writebacks = tree.store().pool.recorder().counter("buf.writebacks");
        let before = writebacks.get();
        // Three rounds over the hot band (distant leaves → misses →
        // dirty displacement) with fresh appends dirtying new pages.
        for round in 0..3u64 {
            for &k in &hot {
                insert(tree, model, k)?;
            }
            for k in 0..4 {
                insert(tree, model, 40 + round * 4 + k)?;
            }
        }
        // Only the probe gets here: prove its window contains eviction
        // write-backs (not merely log forces).
        assert!(
            writebacks.get() > before,
            "storm performed no eviction write-backs: grow the working set"
        );
        Ok(())
    };

    // Sweep every boundary of the storm window, each image recovered
    // traffic-first; the storm must include page-write crashes (a
    // write-back torn mid-flight).
    let sweep_cfg = SweepConfig {
        max_crash_points: usize::MAX,
        pool_frames: 8,
        tree_cfg: cfg,
        ..SweepConfig::default()
    };
    let report = crash::sweep_workload(0, &sweep_cfg, Drain::TrafficThenWorkers(2), &setup, &storm)
        .unwrap_or_else(|v| panic!("eviction-writeback: {v}"));
    let (h0, h1) = report.window;
    assert!(h1 > h0, "storm crossed no durable-write boundary");
    assert!(report.points.iter().copied().eq(h0 + 1..=h1));
    eprintln!(
        "crash matrix: eviction-writeback crashed at all {} boundaries of {:?}, {} mid page write",
        report.points.len(),
        report.window,
        report.page_write_crashes
    );
    assert!(
        report.page_write_crashes > 0,
        "no crash landed on a page-write boundary: the row never tore a write-back"
    );
}

/// (h) A get served from a not-yet-redone page: after `recover_instant`
/// opens the store, read every committed key while the REDO plan is still
/// pending. Each read must return the committed value (the first pin
/// replays the page inline — `recovery.on_demand_redos` counts it), and
/// draining the plan afterwards must change nothing.
#[test]
fn get_served_from_not_yet_redone_page() {
    let cfg = PiTreeConfig::small_nodes(4, 4);
    let cs = CrashableStore::create(8, 10_000).unwrap();
    let tree = PiTree::create(Arc::clone(&cs.store), 1, cfg).unwrap();
    let mut model = Model::new();
    for k in 0..30 {
        insert(&tree, &mut model, k).unwrap();
    }
    drop(tree);

    let crashed = cs.crash().unwrap();
    let (tree, plan, _) =
        PiTree::recover_instant(Arc::clone(&crashed.store), 1, cfg).expect("instant recover");
    serve_from_not_yet_redone_pages(&crashed, &plan, |ctx| {
        for (k, v) in &model {
            let got = tree.get_unlocked(&key(*k)).expect("get");
            assert_eq!(got.as_ref(), Some(v), "{ctx}: key {k} served wrong");
        }
    });
    recovers_to(&crashed, cfg, &model, "on-demand-read");
}

/// The shared tail of rows (h), (h-tsb) and (h-hb): with the REDO plan still
/// pending, `serve` must answer every committed read correctly through
/// pages replayed inline at first pin, and draining the plan afterwards
/// must change no answer.
fn serve_from_not_yet_redone_pages(
    crashed: &CrashableStore,
    plan: &InstantRecovery,
    serve: impl Fn(&str),
) {
    assert!(plan.pending_page_count() > 0, "nothing pending");
    serve("while REDO pending");
    let on_demand = crashed
        .store
        .recorder()
        .counter("recovery.on_demand_redos")
        .get();
    assert!(
        on_demand > 0,
        "reads never hit a pending page: the row tests nothing"
    );
    plan.drive(&crashed.store.pool, 2).expect("drain");
    assert!(plan.is_complete());
    serve("after drain");
}

/// (h-tsb) As-of reads served from not-yet-redone TSB pages: every
/// committed version — in current nodes and down the history chains —
/// reads back while the plan is pending.
#[test]
fn tsb_as_of_reads_served_from_not_yet_redone_pages() {
    let cfg = TsbConfig::small_nodes(4, 4);
    let cs = CrashableStore::create(8, 10_000).unwrap();
    let tree = TsbTree::create(Arc::clone(&cs.store), 2, cfg).unwrap();
    let mut versions: Vec<(u64, Time, Vec<u8>)> = Vec::new();
    for round in 0..3u64 {
        for k in 0..20u64 {
            let mut t = tree.begin();
            let v = val(k * 10 + round);
            let at = tree.put(&mut t, &key(k), &v).unwrap();
            t.commit().unwrap();
            versions.push((k, at, v));
        }
    }
    drop(tree);

    let crashed = cs.crash().unwrap();
    let (tree, plan, _) =
        TsbTree::recover_instant(Arc::clone(&crashed.store), 2, cfg).expect("instant recover");
    serve_from_not_yet_redone_pages(&crashed, &plan, |ctx| {
        for (k, at, v) in &versions {
            let got = tree.get_as_of(&key(*k), *at).expect("get_as_of");
            assert_eq!(got.as_ref(), Some(v), "{ctx}: key {k} as of {at}");
        }
    });
    let report = tree.validate().unwrap();
    assert!(report.is_well_formed(), "{:?}", report.violations);
}

/// (h-hb) Point reads served from not-yet-redone hB pages.
#[test]
fn hb_gets_served_from_not_yet_redone_pages() {
    let cfg = HbConfig::small_nodes(4, 6);
    let cs = CrashableStore::create(8, 10_000).unwrap();
    let tree = HbTree::create(Arc::clone(&cs.store), 3, cfg).unwrap();
    let mut model: BTreeMap<Point, Vec<u8>> = BTreeMap::new();
    for i in 0..40u64 {
        let p = [(i * 7) % 16, (i * 5) % 12];
        let mut t = tree.begin();
        tree.insert(&mut t, &p, &val(i)).unwrap();
        t.commit().unwrap();
        model.insert(p, val(i));
    }
    drop(tree);

    let crashed = cs.crash().unwrap();
    let (tree, plan, _) =
        HbTree::recover_instant(Arc::clone(&crashed.store), 3, cfg).expect("instant recover");
    serve_from_not_yet_redone_pages(&crashed, &plan, |ctx| {
        for (p, v) in &model {
            let got = tree.get(p).expect("get");
            assert_eq!(got.as_ref(), Some(v), "{ctx}: point {p:?}");
        }
    });
    let report = tree.validate().unwrap();
    assert!(report.is_well_formed(), "{:?}", report.violations);
}
