//! Property-based crash testing of the WAL: arbitrary interleavings of
//! atomic actions (committed forced, committed unforced, rolled back,
//! abandoned), crashed at an arbitrary durable-log prefix, must always
//! recover to a state where exactly the durably-committed actions' effects
//! are present.
//!
//! Runs on the pitree-sim property runner: fixed seed corpus, replayable
//! with `PITREE_SIM_SEED=<seed>`.

use pitree_pagestore::buffer::BufferPool;
use pitree_pagestore::page::PageType;
use pitree_pagestore::{MemDisk, PageId, PageOp};
use pitree_sim::{prop, SimRng};
use pitree_wal::{recover, ActionIdentity, AtomicAction, LogManager, LogStore, MemLogStore};
use std::collections::BTreeMap;
use std::sync::Arc;

/// One scripted action: writes `values` to distinct keys (as keyed entries
/// on a page chosen by `page_sel`), then ends one of four ways.
#[derive(Debug, Clone)]
struct Script {
    page_sel: u8,
    n_writes: u8,
    ending: u8, // 0 commit_force, 1 commit (unforced), 2 rollback, 3 abandon
}

fn gen_script(rng: &mut SimRng) -> Script {
    Script {
        page_sel: rng.byte(),
        n_writes: rng.range(1..4) as u8,
        ending: rng.below(4) as u8,
    }
}

#[test]
fn any_prefix_recovers_exactly_the_durable_commits() {
    prop::run_cases(
        "any_prefix_recovers_exactly_the_durable_commits",
        64,
        |rng| {
            let n_scripts = rng.range_usize(1..12);
            let scripts: Vec<Script> = (0..n_scripts).map(|_| gen_script(rng)).collect();
            let cut_frac = rng.below(1 << 24) as f64 / (1u64 << 24) as f64;

            let disk = Arc::new(MemDisk::new());
            let log_store = Arc::new(MemLogStore::new());
            let pool = Arc::new(BufferPool::new(Arc::clone(&disk) as Arc<_>, 64));
            let log =
                Arc::new(LogManager::open(Arc::clone(&log_store) as Arc<dyn LogStore>).unwrap());
            pool.set_wal_hook(Arc::clone(&log) as Arc<_>);

            // Execute the scripts sequentially; remember which unique keys each
            // action wrote and the LSN of each forced commit. Half-way through,
            // flush all pages (the hard case for undo); the crash cut below must
            // respect the WAL invariant and never drop log records covering
            // flushed pages.
            // (durable log length at commit, the key/value pairs it committed)
            type CommitRecord = (u64, Vec<(PageId, Vec<u8>)>);
            let mut committed_at: Vec<CommitRecord> = Vec::new();
            let mut serial = 0u64;
            let mut min_cut = 0u64;
            let half = scripts.len() / 2;
            // Pages whose formatting action was abandoned in-flight: under the
            // real latch protocol nobody else can touch them until recovery, so
            // the scripts must not reuse them either.
            let mut poisoned = pitree_pagestore::sync::FixedSet::<PageId>::default();
            for (idx, sc) in scripts.iter().enumerate() {
                if idx == half && cut_frac > 0.5 {
                    pool.flush_all().unwrap();
                    // Flushing forced the log up to every flushed page LSN; a
                    // legal crash cannot lose that prefix.
                    min_cut = log_store.durable_len();
                }
                let pid = (0..)
                    .map(|o| PageId(5 + (sc.page_sel as u64 + o) % 16))
                    .find(|p| !poisoned.contains(p))
                    .unwrap();
                let page = pool.fetch_or_create(pid, PageType::Free).unwrap();
                let mut act = AtomicAction::begin(&log, ActionIdentity::SystemTransaction);
                let mut wrote = Vec::new();
                {
                    let mut g = page.x();
                    if g.page_type().unwrap() == PageType::Free {
                        act.apply(&page, &mut g, PageOp::Format { ty: PageType::Node })
                            .unwrap();
                        act.apply(
                            &page,
                            &mut g,
                            PageOp::InsertSlot {
                                slot: 0,
                                bytes: b"hdr".to_vec(),
                            },
                        )
                        .unwrap();
                    }
                    for _ in 0..sc.n_writes {
                        serial += 1;
                        let key = serial.to_be_bytes().to_vec();
                        act.apply(
                            &page,
                            &mut g,
                            PageOp::KeyedInsert {
                                bytes: pitree_pagestore::Page::make_entry(&key, b"v"),
                            },
                        )
                        .unwrap();
                        wrote.push((pid, key));
                    }
                }
                match sc.ending {
                    0 => {
                        act.commit_force().unwrap();
                        committed_at.push((log_store.durable_len(), wrote));
                    }
                    1 => {
                        act.commit();
                        // Durable only if a LATER force carries it; recorded when
                        // that force happens (conservatively: attribute to the
                        // current in-memory tail position — it becomes durable
                        // exactly when durable_len reaches it).
                        committed_at.push((log.tail_lsn().0 - 1, wrote));
                    }
                    2 => {
                        act.rollback(&pool, None).unwrap();
                    }
                    _ => {
                        let _ = act; // abandoned in flight
                        poisoned.insert(pid);
                    }
                }
            }
            // Crash at an arbitrary durable prefix at or after the last page
            // flush (the WAL protocol guarantees that much log survives).
            let full = log_store.durable_len();
            let cut = min_cut + ((full - min_cut) as f64 * cut_frac) as u64;
            let disk2 = Arc::new(disk.snapshot());
            let store2 = Arc::new(log_store.snapshot_truncated(cut));
            let pool2 = Arc::new(BufferPool::new(Arc::clone(&disk2) as Arc<_>, 64));
            let log2 =
                Arc::new(LogManager::open(Arc::clone(&store2) as Arc<dyn LogStore>).unwrap());
            pool2.set_wal_hook(Arc::clone(&log2) as Arc<_>);
            recover(&pool2, &log2, None).unwrap();

            // Every action whose commit record is inside the surviving prefix
            // must be fully present; everything else must be fully absent.
            let mut expected: BTreeMap<(PageId, Vec<u8>), bool> = BTreeMap::new();
            for (durable_len, wrote) in &committed_at {
                let survives = *durable_len <= cut;
                for kv in wrote {
                    expected.insert(kv.clone(), survives);
                }
            }
            for ((pid, key), survives) in expected {
                let present = match pool2.fetch(pid) {
                    Ok(p) => {
                        let g = p.s();
                        g.page_type().unwrap() == PageType::Node
                            && g.keyed_find(&key).unwrap().is_ok()
                    }
                    Err(_) => false,
                };
                assert_eq!(
                    present, survives,
                    "key {key:?} on {pid}: present={present} expected={survives}"
                );
            }
        },
    );
}
