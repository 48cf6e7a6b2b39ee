//! **Experiment E6** — §5.2/§5.3: the value of *exploiting saved state*.
//! A posting action that can start from the remembered parent touches O(1)
//! nodes; one that must re-traverse from the root touches O(height).
//!
//! Compares the posting footprint (nodes latched per posting action) across
//! tree heights for the three saved-path regimes. The key signature: the
//! root-re-traversal regime's footprint grows with tree height, the
//! saved-path regimes' stays flat.
//!
//! Run with: `cargo run --release -p pitree-harness --bin exp6`

use pitree::{ConsolidationPolicy, CrashableStore, DeallocPolicy, PiTree, PiTreeConfig};
use pitree_harness::driver::commit;
use pitree_harness::Table;
use pitree_obs::Stopwatch;
use std::sync::Arc;

fn run(keys: u64, consolidation: ConsolidationPolicy) -> (u8, f64, f64, u64, u64) {
    let mut cfg = PiTreeConfig::small_nodes(8, 8);
    cfg.consolidation = consolidation;
    let cs = CrashableStore::create(8192, 1 << 20).unwrap();
    let tree = PiTree::create(Arc::clone(&cs.store), 1, cfg).unwrap();
    let t0 = Stopwatch::start();
    for i in 0..keys {
        commit(&tree, |t| tree.insert(t, &i.to_be_bytes(), b"v"));
    }
    for _ in 0..4 {
        tree.run_completions().unwrap();
    }
    let elapsed = t0.elapsed_ns() as f64 / 1e9;
    let stats = tree.stats();
    let posts =
        stats.postings_done.get() + stats.postings_noop.get() + stats.postings_node_gone.get();
    let touched = stats.posting_nodes_touched.get();
    assert!(tree.validate().unwrap().is_well_formed());
    (
        tree.height().unwrap(),
        touched as f64 / posts.max(1) as f64,
        elapsed * 1e6 / keys as f64,
        stats.saved_path_hits.get(),
        stats.saved_path_misses.get(),
    )
}

fn main() {
    println!("E6: saved-path effectiveness for index-term posting (fanout 8)\n");
    let mut table = Table::new(&[
        "keys",
        "regime",
        "height",
        "nodes/posting",
        "us/insert",
        "path hits",
        "path misses",
    ]);
    for keys in [2_000u64, 10_000, 40_000] {
        for (name, pol) in [
            ("remembered parent (CNS)", ConsolidationPolicy::Disabled),
            (
                "climb saved path (CP/upd)",
                ConsolidationPolicy::Enabled {
                    dealloc: DeallocPolicy::IsAnUpdate,
                },
            ),
            (
                "root re-traversal (CP/not)",
                ConsolidationPolicy::Enabled {
                    dealloc: DeallocPolicy::NotAnUpdate,
                },
            ),
        ] {
            let (height, nodes, us, hits, misses) = run(keys, pol);
            table.row(&[
                keys.to_string(),
                name.into(),
                height.to_string(),
                format!("{nodes:.2}"),
                format!("{us:.1}"),
                hits.to_string(),
                misses.to_string(),
            ]);
        }
    }
    table.print();
    println!(
        "\nexpected shape: remembered-parent and climb regimes keep nodes/posting\n\
         flat (~1-2) as the tree deepens; root re-traversal grows with tree height —\n\
         the cost §5.2 saves. (\"Typically, a path re-traversal is limited to\n\
         re-latching path nodes and comparing state ids.\")"
    );
}
