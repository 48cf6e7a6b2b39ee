//! Integration tests of the harness utilities plus end-to-end protocol
//! comparisons: the Π-tree and the baseline protocols produce identical
//! results on identical workloads.

use pitree::PiTreeConfig;
use pitree_baselines::{Baseline, ConcurrentIndex, Protocol};
use pitree_check::PiCheckIndex;
use pitree_harness::{Access, KeyStream};
use pitree_sim::SimRng;
use std::sync::Arc;

fn baseline(frames: usize, protocol: Protocol) -> Baseline {
    Baseline::new(frames, protocol, PiTreeConfig::small_nodes(8, 8))
}

fn run_workload(idx: &dyn ConcurrentIndex, access: Access, n: u64) -> Vec<Option<Vec<u8>>> {
    let (mut keys, mut rng) = (KeyStream::new(access, 1000, 0), SimRng::new(99));
    for i in 0..n {
        let k = keys.next(&mut rng).to_be_bytes();
        idx.insert(&k, format!("v{i}").as_bytes());
    }
    (0..1000u64).map(|i| idx.get(&i.to_be_bytes())).collect()
}

#[test]
fn all_protocols_agree_on_uniform_workload() {
    let pi = PiCheckIndex::new(1024, PiTreeConfig::small_nodes(8, 8));
    let lc = baseline(1024, Protocol::LockCoupling);
    let ss = baseline(1024, Protocol::SerialSmo);
    let a = run_workload(&pi, Access::Uniform, 800);
    let b = run_workload(&lc, Access::Uniform, 800);
    let c = run_workload(&ss, Access::Uniform, 800);
    assert_eq!(a, b, "pi-tree vs lock-coupling");
    assert_eq!(a, c, "pi-tree vs serial-smo");
    assert!(pi.tree().validate().unwrap().is_well_formed());
}

#[test]
fn all_protocols_agree_on_sequential_workload() {
    let pi = PiCheckIndex::new(1024, PiTreeConfig::small_nodes(8, 8));
    let lc = baseline(1024, Protocol::LockCoupling);
    let a = run_workload(&pi, Access::Sequential, 600);
    let b = run_workload(&lc, Access::Sequential, 600);
    assert_eq!(a, b);
}

#[test]
fn protocols_agree_under_concurrency() {
    let pi = Arc::new(PiCheckIndex::new(2048, PiTreeConfig::small_nodes(8, 8)));
    let lc = Arc::new(baseline(2048, Protocol::LockCoupling));
    for idx_run in 0..2 {
        let run = |idx: Arc<dyn ConcurrentIndex>| {
            std::thread::scope(|s| {
                for t in 0..4u64 {
                    let idx = Arc::clone(&idx);
                    s.spawn(move || {
                        for i in 0..150u64 {
                            let k = (i * 4 + t).to_be_bytes();
                            idx.insert(&k, b"v");
                        }
                    });
                }
            });
        };
        if idx_run == 0 {
            run(Arc::clone(&pi) as Arc<dyn ConcurrentIndex>);
        } else {
            run(Arc::clone(&lc) as Arc<dyn ConcurrentIndex>);
        }
    }
    for i in 0..600u64 {
        let k = i.to_be_bytes();
        assert_eq!(pi.get(&k), lc.get(&k), "key {i}");
    }
    assert!(pi.tree().validate().unwrap().is_well_formed());
}

#[test]
fn pitree_adapter_handles_deletes() {
    let pi = PiCheckIndex::new(512, PiTreeConfig::small_nodes(8, 8));
    for i in 0..100u64 {
        pi.insert(&i.to_be_bytes(), b"x");
    }
    for i in 0..50u64 {
        assert!(pi.delete(&i.to_be_bytes()), "key {i}");
    }
    for i in 0..50u64 {
        assert_eq!(pi.get(&i.to_be_bytes()), None);
    }
    for i in 50..100u64 {
        assert_eq!(pi.get(&i.to_be_bytes()), Some(b"x".to_vec()));
    }
    assert!(pi.tree().validate().unwrap().is_well_formed());
}
