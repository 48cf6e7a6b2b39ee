//! Spatial indexing on the hB-tree: two-attribute point data with window
//! queries — the paper's §2.2.3 / Figure 2 structure as an application.
//!
//! Scenario: a delivery service indexes drop-off locations by (x, y) city
//! coordinates and asks "what's in this district?".
//!
//! Run with: `cargo run --example spatial_index`

use pitree::store::CrashableStore;
use pitree::wellformed::fill_line;
use pitree_hb::{HbConfig, HbTree, Point, Rect};
use pitree_sim::SimRng;
use std::sync::Arc;

fn main() {
    let store = CrashableStore::create(2048, 200_000).expect("store");
    let tree =
        HbTree::create(Arc::clone(&store.store), 1, HbConfig::small_nodes(16, 24)).expect("tree");

    // Drop-offs cluster around three depots plus background noise.
    let mut rng = SimRng::new(2026);
    let depots: [Point; 3] = [[2_000, 2_000], [8_000, 3_000], [5_000, 8_000]];
    let mut n = 0u32;
    for _ in 0..900 {
        let p: Point = if rng.chance(0.7) {
            let d = *rng.pick(&depots);
            [
                d[0].saturating_add(rng.below(800)),
                d[1].saturating_add(rng.below(800)),
            ]
        } else {
            [rng.below(10_000), rng.below(10_000)]
        };
        let mut txn = tree.begin();
        if tree
            .insert(&mut txn, &p, format!("parcel-{n}").as_bytes())
            .expect("insert")
        {
            n += 1;
        }
        txn.commit().expect("commit");
    }
    println!("indexed {n} distinct drop-off points");

    // Window query: everything near depot 1.
    let district = Rect {
        lo: [1_500, 1_500],
        hi: [3_500, 3_500],
    };
    let hits = tree.window_query(&district).expect("window");
    println!("parcels in depot-1 district {district:?}: {}", hits.len());
    assert!(!hits.is_empty());

    // Point lookups route through kd fragments and sibling pointers.
    let (p0, v0) = &hits[0];
    assert_eq!(tree.get(p0).expect("get").as_deref(), Some(v0.as_slice()));

    // Structure report: holey-brick nodes, clipping, intermediate states.
    let report = tree.validate().expect("validate");
    assert!(report.is_well_formed(), "{:?}", report.violations);
    println!(
        "structure: {}, {} multi-parent nodes (clipped terms), {} records",
        fill_line(&report.levels),
        report.multi_parent_nodes,
        report.records
    );
    println!("\nstructure-change activity:");
    for (name, value) in tree.stats().snapshot() {
        if value > 0 {
            println!("  {name:24} {value}");
        }
    }
}
