//! **Figure 1 reproduction** — "In the Time-Split B-tree, new current nodes
//! contain copies of old history node pointers and old key pointers. New
//! historic nodes contain copies of old history pointers. Current nodes are
//! responsible for all previous time through their historical pointers and
//! all higher key ranges through their key (side) pointers."
//!
//! This binary drives one node through the figure's split sequence —
//! time split, key split, time split — then renders the resulting topology
//! and machine-checks each caption claim.
//!
//! Run with: `cargo run -p pitree-harness --bin fig1`

use pitree::store::CrashableStore;
use pitree::wellformed::fill_line;
use pitree_harness::driver::commit;
use pitree_harness::workload::key;
use pitree_pagestore::PageId;
use pitree_tsb::{TsbConfig, TsbHeader, TsbKind, TsbTree};
use std::collections::BTreeMap;
use std::sync::Arc;

fn main() {
    println!("Figure 1: Time-Split B-tree split topology\n");
    let cs = CrashableStore::create(512, 100_000).unwrap();
    let tree = TsbTree::create(Arc::clone(&cs.store), 1, TsbConfig::small_nodes(6, 8)).unwrap();

    // Phase 1: version churn on two keys → TIME split.
    for round in 0..3u64 {
        for k in [1u64, 2] {
            commit(&tree, |t| {
                tree.put(t, &key(k), format!("r{round}").as_bytes())
            });
        }
    }
    // Phase 2: key spread → KEY split of the (time-split) current node.
    for k in 3..12u64 {
        commit(&tree, |t| tree.put(t, &key(k), b"spread"));
    }
    // Phase 3: more churn → another TIME split.
    for round in 3..6u64 {
        for k in [1u64, 2] {
            commit(&tree, |t| {
                tree.put(t, &key(k), format!("r{round}").as_bytes())
            });
        }
    }
    tree.run_completions().unwrap();

    // Render: walk the current chain; for each current node, its history
    // chain.
    let pool = &cs.store.pool;
    let mut cur = {
        let mut pid = tree.root_pid();
        loop {
            let pin = pool.fetch(pid).unwrap();
            let g = pin.s();
            let h = TsbHeader::read(&g).unwrap();
            if h.level == 0 {
                break pid;
            }
            pid = pitree::node::IndexTerm::read(&g, 1).unwrap().child;
        }
    };
    let mut nodes: BTreeMap<PageId, TsbHeader> = BTreeMap::new();
    let mut chain = Vec::new();
    loop {
        let pin = pool.fetch(cur).unwrap();
        let g = pin.s();
        let h = TsbHeader::read(&g).unwrap();
        chain.push(cur);
        let next = h.key_side;
        nodes.insert(cur, h);
        if !next.is_valid() {
            break;
        }
        cur = next;
    }

    let mut claims_ok = true;
    println!("current-node chain (key order), each with its history chain (time order):\n");
    for &pid in &chain {
        let h = &nodes[&pid];
        println!(
            "  CURRENT {pid}  keys [{}, {})  time [{}, now)  --key-side--> {}",
            h.key_low,
            h.key_high,
            h.t_lo,
            if h.key_side.is_valid() {
                h.key_side.to_string()
            } else {
                "(none)".into()
            }
        );
        let mut hist = h.hist_side;
        let mut depth = 1;
        while hist.is_valid() {
            let hp = pool.fetch(hist).unwrap();
            let hg = hp.s();
            let hh = TsbHeader::read(&hg).unwrap();
            println!(
                "  {:indent$}HISTORY {hist}  keys [{}, {})  time [{}, {})",
                "",
                hh.key_low,
                hh.key_high,
                hh.t_lo,
                hh.t_hi,
                indent = depth * 4
            );
            if hh.kind != TsbKind::History {
                claims_ok = false;
            }
            hist = hh.hist_side;
            depth += 1;
        }
    }

    // Caption claims, machine-checked.
    println!("\ncaption claims:");
    let currents_with_history = chain
        .iter()
        .filter(|p| nodes[p].hist_side.is_valid())
        .count();
    let ok1 = currents_with_history >= 2;
    println!(
        "  [{}] new current nodes contain copies of old history node pointers \
         ({currents_with_history}/{} current nodes reach history)",
        if ok1 { "ok" } else { "FAIL" },
        chain.len()
    );
    let ok2 = chain.len() >= 2;
    println!(
        "  [{}] new current nodes contain copies of old key pointers \
         (chain of {} current nodes)",
        if ok2 { "ok" } else { "FAIL" },
        chain.len()
    );
    // History nodes copying history pointers: some history node's hist_side
    // is valid (a second-generation time split).
    let mut hist_with_hist = 0;
    for &pid in &chain {
        let mut hist = nodes[&pid].hist_side;
        while hist.is_valid() {
            let hp = pool.fetch(hist).unwrap();
            let hg = hp.s();
            let hh = TsbHeader::read(&hg).unwrap();
            if hh.hist_side.is_valid() {
                hist_with_hist += 1;
            }
            hist = hh.hist_side;
        }
    }
    let ok3 = hist_with_hist >= 1;
    println!(
        "  [{}] new historic nodes contain copies of old history pointers \
         ({hist_with_hist} history node(s) chain further back)",
        if ok3 { "ok" } else { "FAIL" }
    );
    // Responsibility: every old version of key 1 reachable from the current
    // node for key 1.
    let hist_versions = tree.history(&key(1)).unwrap();
    let ok4 = hist_versions.len() >= 6;
    println!(
        "  [{}] current nodes are responsible for all previous time \
         ({} versions of key 1 reachable)",
        if ok4 { "ok" } else { "FAIL" },
        hist_versions.len()
    );

    let report = tree.validate().unwrap();
    println!(
        "\nwell-formed: {}  {}  history nodes: {}  versions: {}",
        report.is_well_formed(),
        fill_line(&report.levels),
        report.history_nodes,
        report.records
    );
    assert!(claims_ok && ok1 && ok2 && ok3 && ok4 && report.is_well_formed());
    println!("\nFigure 1 reproduced: all caption claims hold.");
}
