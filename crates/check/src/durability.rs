//! Durability layer: what `pitree-check` adds on top of the workspace's one
//! crash oracle, [`pitree_sim::crash`].
//!
//! The sweep itself — script runner, boundary sweep, recover-and-verify,
//! the typed [`Violation`] — lives in the sim kit; `tests/check_props.rs`
//! calls [`crash::sweep_script`] on each seed's script, and the
//! [shrinker](crate::shrink) re-drives candidate scripts through the same
//! function while minimizing. What lives here:
//!
//! * the **seeded-violation fixtures**, each of which hands the oracle a
//!   broken run and demands the violation back (`None` means the oracle went
//!   blind). [`tail_drop_violation`] runs a workload to completion, then
//!   crashes with the durable log truncated one byte short — chopping the
//!   final forced commit record. That simulates a log device that
//!   acknowledged a force it never made durable (the paper's §4.3 premise is
//!   exactly that this must not happen). [`ack_before_durable_violation`]
//!   models the early-lock-release client bug — acknowledging a commit at
//!   publish time, before the durable watermark covers its LSN.
//!   [`stale_read_violation`] tells the model about a write the tree never
//!   received, so the runner's in-line read check must refuse the run
//!   before any crash is injected;
//! * the **ELR chain sweep** ([`elr_chain_violation`]): log-prefix crashes
//!   over a pipelined chain of commits that each jump the predecessor's
//!   released lock, demanding the recovered value be exactly the last commit
//!   the prefix covers.

use pitree::{CrashableStore, PiTree};
use pitree_pagestore::Lsn;
use pitree_sim::crash::{self, Drain, Model, Op, SweepConfig, Violation, Workload};
use pitree_sim::SimRng;
use std::sync::Arc;

/// A key no generated script draws: the fixtures' private write.
const OFF_DOMAIN: u64 = 1_000_000;

/// The seed's script plus a final committed insert — the shape
/// [`tail_drop_violation`] needs to guarantee the chopped record is a
/// commit the caller observed succeed.
pub fn fixture_script(seed: u64, workload: &Workload) -> Vec<Op> {
    let mut script = workload.script(&mut SimRng::new(seed));
    script.push(Op::Insert(OFF_DOMAIN));
    script
}

/// Run `script` to completion on a fault-free store.
fn completed_run(script: &[Op], cfg: &SweepConfig) -> (CrashableStore, PiTree, Model) {
    let cs = CrashableStore::create(cfg.pool_frames, cfg.max_pages).expect("store");
    let tree = PiTree::create(Arc::clone(&cs.store), 1, cfg.tree_cfg).expect("tree");
    let mut model = Model::new();
    crash::run_script(&tree, &mut model, script).expect("fault-free run");
    (cs, tree, model)
}

/// What the oracle says about `crashed` given `model`, as a violation of a
/// synthetic crash (point 0) at `site`.
fn verdict(
    crashed: &CrashableStore,
    model: &Model,
    seed: u64,
    cfg: &SweepConfig,
    site: &str,
) -> Option<Violation> {
    crash::recover_and_verify(crashed, cfg.tree_cfg, model, Drain::Synchronous)
        .err()
        .map(|detail| Violation {
            seed,
            point: 0,
            site: site.into(),
            detail,
        })
}

/// The lost-commit fixture: run `script` to completion, then "crash" with
/// the durable log truncated one byte short — destroying the final forced
/// commit record that the workload was told was durable.
pub fn tail_drop_violation(script: &[Op], seed: u64, cfg: &SweepConfig) -> Option<Violation> {
    let (cs, tree, model) = completed_run(script, cfg);
    drop(tree);
    let len = cs.durable_log_len();
    assert!(len > 0, "workload wrote no log");
    let crashed = cs.crash_with_log_prefix(len - 1).expect("snapshot");
    verdict(&crashed, &model, seed, cfg, "log tail dropped")
}

/// The early-lock-release fixture: run `script` to completion, then model
/// the client bug the ELR protocol must never hide — acknowledging a commit
/// at publish time. The transaction publishes (locks released,
/// `PendingCommit` dropped without `wait_durable`), the "acked" write goes
/// into the model, and the machine dies with the commit record still in the
/// volatile tail.
pub fn ack_before_durable_violation(
    script: &[Op],
    seed: u64,
    cfg: &SweepConfig,
) -> Option<Violation> {
    let (cs, tree, mut model) = completed_run(script, cfg);
    // The bug under test: publish, tell the client "committed", never wait
    // for the watermark.
    let mut t = tree.begin();
    tree.insert(&mut t, &crash::key_bytes(OFF_DOMAIN), b"acked-at-publish")
        .expect("fixture insert");
    let pc = t.commit_publish();
    assert!(
        !pc.is_durable(),
        "fixture needs the published commit to still sit in the volatile tail"
    );
    drop(pc); // the premature ack
    model.insert(OFF_DOMAIN, b"acked-at-publish".to_vec());
    drop(tree);
    let crashed = cs.crash().expect("snapshot");
    verdict(&crashed, &model, seed, cfg, "commit acked at publish")
}

/// The stale-read fixture: the model is told about a write the tree never
/// received, and the script ends by reading that key. The sweep must come
/// back with a *non-injected* violation — the in-line read check of the
/// no-crash probe, naming the read's op index (`script.len()`) — rather
/// than sweep crash points over a run whose reads already diverge.
pub fn stale_read_violation(script: &[Op], seed: u64, cfg: &SweepConfig) -> Option<Violation> {
    let mut stale = script.to_vec();
    stale.push(Op::Get(OFF_DOMAIN));
    crash::sweep_workload(
        seed,
        cfg,
        Drain::Synchronous,
        &|_, model| {
            model.insert(OFF_DOMAIN, b"never-written".to_vec());
            Ok(())
        },
        &|tree, model| crash::run_script(tree, model, &stale),
    )
    .err()
}

fn chain_val(i: usize) -> Vec<u8> {
    format!("elr-{i}").into_bytes()
}

/// End offset (exclusive) of the frame starting at `lsn` in the durable
/// log image: 8-byte header (length + checksum) plus the body length.
fn frame_end(durable: &[u8], lsn: Lsn) -> u64 {
    let off = (lsn.0 - 1) as usize;
    let len = u32::from_le_bytes(durable[off..off + 4].try_into().expect("frame header"));
    (off + 8 + len as usize) as u64
}

/// Early-lock-release pipelined-chain sweep: a seeded chain of
/// transactions updates one key (drawn from `0..key_domain`) back to back,
/// each *publishing* its commit (locks released, registry entry gone)
/// before any of them is durable — so every successor jumps the
/// predecessor's released lock. Acks (`wait_durable`) happen only after the
/// whole chain has published, and each must find the watermark covering its
/// LSN.
///
/// Then the oracle replays a log-prefix crash just before and exactly at
/// every commit frame's end. The recovered value must be exactly the last
/// commit the prefix covers: a cut at `end(i)` recovers value `i`; a cut
/// one byte short tears commit `i`, making it a loser whose update is
/// undone back to value `i-1` (or the pre-chain base). Anything else is a
/// lost update or a reordering across the jumped lock. Returns the number
/// of prefix cuts verified.
pub fn elr_chain_violation(
    seed: u64,
    key_domain: u64,
    cfg: &SweepConfig,
) -> Result<usize, Violation> {
    let mut rng = SimRng::new(seed);
    let chain_len = rng.range_usize(3..7);
    let key = rng.below(key_domain);
    let fail = |cut: u64, detail: String| Violation {
        seed,
        point: cut,
        site: "elr chain log prefix".into(),
        detail,
    };
    let cs = CrashableStore::create(cfg.pool_frames, cfg.max_pages).expect("store");
    let tree = PiTree::create(Arc::clone(&cs.store), 1, cfg.tree_cfg).expect("tree");
    // Base committed value: what any cut below the chain must recover.
    let mut model = Model::new();
    crash::insert(&tree, &mut model, key, b"elr-base").expect("base commit");
    let base_len = cs.durable_log_len();

    // Publish the whole chain before acking any of it.
    let pending: Vec<_> = (0..chain_len)
        .map(|i| {
            let mut t = tree.begin();
            tree.insert(&mut t, &crash::key_bytes(key), &chain_val(i))
                .expect("chain insert");
            t.commit_publish()
        })
        .collect();
    let mut commit_lsns = Vec::new();
    for pc in pending {
        let lsn = pc
            .wait_durable()
            .and_then(|lsn| crash::check_ack_watermark(&tree, lsn).map(|()| lsn))
            .map_err(|e| fail(0, format!("chain ack failed: {e}")))?;
        commit_lsns.push(lsn);
    }
    drop(tree);
    let durable = cs.store.log.store().durable_bytes().expect("durable bytes");

    let mut checked = 0usize;
    for (i, &lsn) in commit_lsns.iter().enumerate() {
        let end = frame_end(&durable, lsn);
        debug_assert!(end > base_len);
        for (cut, committed) in [(end - 1, i.checked_sub(1)), (end, Some(i))] {
            let want = committed.map_or(b"elr-base".to_vec(), chain_val);
            let crashed = cs
                .crash_with_log_prefix(cut)
                .map_err(|e| fail(cut, format!("snapshot failed: {e}")))?;
            model.insert(key, want);
            crash::recover_and_verify(&crashed, cfg.tree_cfg, &model, Drain::Synchronous)
                .map_err(|detail| fail(cut, detail))?;
            checked += 1;
        }
    }
    Ok(checked)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: Workload = Workload {
        ops: 20,
        key_domain: 32,
    };

    fn small() -> SweepConfig {
        SweepConfig {
            max_crash_points: 4,
            ..SweepConfig::default()
        }
    }

    #[test]
    fn sweep_accepts_the_real_tree() {
        let script = SMALL.script(&mut SimRng::new(0xd0_5eed));
        let report =
            crash::sweep_script(&script, 0xd0_5eed, &small()).expect("durability sweep must pass");
        assert!(report.window.1 > 0);
        assert!(report.points.len() >= 2);
    }

    #[test]
    fn tail_drop_fixture_is_rejected() {
        let script = fixture_script(0xd0_5eed, &SMALL);
        let v = tail_drop_violation(&script, 0xd0_5eed, &small())
            .expect("oracle must detect the lost committed write");
        assert_eq!(v.point, 0);
        assert!(v.site.contains("tail"));
    }

    #[test]
    fn elr_chain_sweep_accepts_the_real_tree() {
        let checked = elr_chain_violation(0xe1_5eed, SMALL.key_domain, &small())
            .expect("elr chain sweep must pass");
        // chain_len >= 3, two cuts per commit.
        assert!(checked >= 6, "swept only {checked} prefix cuts");
    }

    #[test]
    fn ack_before_durable_fixture_is_rejected() {
        let script = SMALL.script(&mut SimRng::new(0xd0_5eed));
        let v = ack_before_durable_violation(&script, 0xd0_5eed, &small())
            .expect("oracle must detect the prematurely acked commit");
        assert_eq!(v.point, 0);
        assert!(v.site.contains("publish"));
    }

    #[test]
    fn stale_read_fixture_is_rejected_without_an_injected_crash() {
        let script = SMALL.script(&mut SimRng::new(0xd0_5eed));
        let v = stale_read_violation(&script, 0xd0_5eed, &small())
            .expect("the in-line read check must refuse the stale read");
        assert_eq!((v.seed, v.point, v.site.as_str()), (0xd0_5eed, 0, "probe"));
        let at = format!("op {}: get", script.len());
        assert!(v.detail.contains(&at), "{v}");
    }
}
