//! Scripted commit-schedule tests (§4.3.1 group commit, deterministically).
//!
//! These drive the `pitree_sim::schedule` rig: committer arrivals are a
//! script, the elected leader parks at the rig's gated store until the rest
//! of the cohort has queued behind it, and each group must drain as exactly
//! ONE `LogStore::append`.
//! Because the driver thread appends every record in script order, the
//! durable byte stream and the batch boundaries are a pure function of the
//! schedule — asserted byte-for-byte across two runs of the same seed.

use pitree_sim::schedule::{gen_schedule, run_schedule};
use pitree_wal::log::scan_bytes;
use pitree_wal::RecordKind;

#[test]
fn scripted_cohort_lands_in_single_appends() {
    // Four windows: a trio, a solo, a pair, and a quartet. Every committer
    // in a window queues while the leader is parked; the batch must carry
    // them all.
    let schedule = vec![vec![1, 2, 3], vec![4], vec![5, 6], vec![7, 8, 9, 10]];
    let out = run_schedule(&schedule).unwrap();
    assert_eq!(out.appends, 4, "one store append per scripted group");
    // Begin+Commit frames have fixed encodings, so batch bytes scale
    // exactly with group size: the solo group calibrates the per-committer
    // cost.
    let per_committer = out.batch_lens[1];
    for (group, len) in schedule.iter().zip(&out.batch_lens) {
        assert_eq!(
            *len,
            per_committer * group.len(),
            "batch bytes must cover exactly the group's frames"
        );
    }
    // The durable log holds every record, in script order.
    let recs = scan_bytes(&out.durable, None);
    assert_eq!(recs.len(), 2 * 10);
    let commits = recs
        .iter()
        .filter(|r| matches!(r.kind, RecordKind::Commit))
        .count();
    assert_eq!(commits, 10);
}

fn assert_seed_byte_deterministic(seed: u64) {
    let schedule = gen_schedule(seed, 12, 6);
    let a = run_schedule(&schedule).unwrap();
    let b = run_schedule(&schedule).unwrap();
    assert_eq!(
        a, b,
        "same seed must reproduce the durable log, batch boundaries, and \
         append count byte-for-byte"
    );
    assert_eq!(a.appends as usize, schedule.len());
    let total: usize = schedule.iter().map(Vec::len).sum();
    assert_eq!(scan_bytes(&a.durable, None).len(), 2 * total);
}

#[test]
fn seeded_schedule_0x00c0ffee_is_byte_deterministic() {
    assert_seed_byte_deterministic(0x00C0_FFEE);
}

#[test]
fn seeded_schedule_0x005eed01_is_byte_deterministic() {
    assert_seed_byte_deterministic(0x005E_ED01);
}

#[test]
fn different_seeds_produce_different_schedules() {
    let a = run_schedule(&gen_schedule(0x00C0_FFEE, 12, 6)).unwrap();
    let b = run_schedule(&gen_schedule(0x005E_ED01, 12, 6)).unwrap();
    assert_ne!(a.durable, b.durable);
}
