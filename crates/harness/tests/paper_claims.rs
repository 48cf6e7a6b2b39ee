//! The paper's claims as gates, at reduced scale and deterministic.
//!
//! E1 (§1, §6): decomposed B-link structure changes exclude other
//! operations from shared parts of the tree less often than lock coupling
//! and serial SMOs. Per mix, over the same pages, pool and WAL: interior X
//! latchings per 1k operations order Π-tree < optimistic < lock coupling,
//! and only serial SMO ever latches the whole tree.

use pitree_harness::footprint::{measure, MIXES};

#[test]
fn e1_exclusive_footprint_orders_the_protocols() {
    for mix in MIXES {
        let rows = measure(mix, 3_000);
        let by_name = |name: &str| rows.iter().find(|r| r.protocol == name).expect(name);
        let (pi, lc) = (by_name("pi-tree"), by_name("lock-coupling"));
        let (oc, ss) = (by_name("optimistic-coupling"), by_name("serial-smo"));
        for r in &rows {
            println!(
                "e1 {:<50} {:<20} interior X {:>7.1}  tree-wide X {:>6.1}",
                mix.name, r.protocol, r.interior_x, r.tree_x
            );
        }
        assert!(
            pi.interior_x < oc.interior_x && oc.interior_x < lc.interior_x,
            "{}: interior X must order pi-tree < optimistic < lock coupling: {rows:?}",
            mix.name
        );
        for r in [pi, lc, oc] {
            assert_eq!(
                r.tree_x, 0.0,
                "{}: {} latched the whole tree",
                mix.name, r.protocol
            );
        }
        assert!(
            ss.tree_x > 0.0,
            "{}: serial SMO never went tree-wide",
            mix.name
        );
    }
}
