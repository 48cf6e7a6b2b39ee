//! **Experiment E1** — the paper's headline concurrency claim (§1, §6,
//! citing Srinivasan & Carey \[18\]): B-link-style decomposed structure
//! changes admit more concurrency than lock coupling and serial SMOs.
//!
//! Metric: the **exclusive-latch footprint above the data level** per 1000
//! operations — how often a protocol excludes other operations from
//! *shared* parts of the tree (interior nodes, or the whole tree). Blocking
//! other operations at interior nodes is precisely what limits index
//! concurrency; unlike wall-clock throughput, the footprint is a
//! deterministic property of the protocol (this harness host has a single
//! CPU core, making parallel-throughput comparisons meaningless).
//!
//! Every protocol runs over the same B-link pages, pool and WAL
//! ([`pitree_harness::footprint`]), committing one forced transaction per
//! operation:
//!
//! * Π-tree: interior nodes are X-latched only inside short, independent
//!   atomic actions (index-term postings, index splits, consolidations) —
//!   §1 point 3.
//! * Lock coupling (pessimistic Bayer–Schkolnick): every write X-latches
//!   its path from the root down to the first node that cannot split.
//! * Optimistic coupling: X at the leaf only, except on a splitting insert,
//!   which reruns as lock coupling.
//! * Serial SMOs (ARIES/IM-flavored): every split takes a tree-wide
//!   exclusive latch, quiescing everything.
//!
//! Run with: `cargo run --release -p pitree-harness --bin exp1`

use pitree_harness::footprint::{measure, MIXES};
use pitree_harness::Table;

const OPS: u64 = 20_000;

fn main() {
    println!(
        "E1: exclusive-latch footprint above the data level, per 1000 operations\n\
         (lower = more admissible concurrency; single-core host, so ops/s is context only)\n"
    );
    for mix in MIXES {
        println!("workload: {}", mix.name);
        let mut table = Table::new(&[
            "protocol",
            "interior X/1k ops",
            "tree-wide X/1k ops",
            "ops/s (context)",
        ]);
        for row in measure(mix, OPS) {
            table.row(&[
                row.protocol.into(),
                format!("{:.1}", row.interior_x),
                format!("{:.1}", row.tree_x),
                format!("{:.0}", row.ops_per_s),
            ]);
        }
        table.print();
        println!();
    }
    println!(
        "expected shape (paper §1/§6): pessimistic lock coupling X-latches ~height\n\
         interior nodes on EVERY write (thousands per 1k ops); the optimistic variant\n\
         avoids that except on splitting descents but still X-couples whole paths for\n\
         them; serial SMOs do the same and also quiesce the whole tree once per split;\n\
         the pi-tree touches interior nodes exclusively only for the occasional short\n\
         posting action — and never tree-wide. Each tree-wide X excludes ALL concurrent\n\
         work, so serial-smo's column understates its cost."
    );
}
