//! Experiment E1's measurement: the exclusive-latch footprint of the
//! Π-tree and the three baseline protocols over the same pages, pool and
//! WAL. `tests/paper_claims.rs` gates its shape.

use crate::{Access, KeyStream};
use pitree::{PiTree, PiTreeConfig};
use pitree_baselines::{Baseline, ConcurrentIndex, Protocol, TREE_EXCLUSIVE};
use pitree_check::PiCheckIndex;
use pitree_sim::SimRng;

/// One E1 workload.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    /// Row heading.
    pub name: &'static str,
    /// Fraction of operations that are point reads; the rest insert.
    pub read_frac: f64,
    /// Which keys the operations aim at.
    pub access: Access,
    /// Entries per node, leaf and index alike.
    pub fanout: usize,
}

/// The four E1 mixes.
pub const MIXES: [Mix; 4] = [
    Mix {
        name: "insert-only / uniform",
        read_frac: 0.0,
        access: Access::Uniform,
        fanout: 24,
    },
    Mix {
        name: "50% read / uniform",
        read_frac: 0.5,
        access: Access::Uniform,
        fanout: 24,
    },
    Mix {
        name: "insert-only / sequential (append storm)",
        read_frac: 0.0,
        access: Access::Sequential,
        fanout: 24,
    },
    Mix {
        name: "insert-only / uniform, small fanout (split storm)",
        read_frac: 0.0,
        access: Access::Uniform,
        fanout: 8,
    },
];

/// One protocol's footprint on one mix, per 1000 measured operations.
#[derive(Debug, Clone, Copy)]
pub struct Footprint {
    /// The index's report name.
    pub protocol: &'static str,
    /// Interior-node X latchings (`tree.upper_exclusive`).
    pub interior_x: f64,
    /// Tree-wide X latchings ([`TREE_EXCLUSIVE`]).
    pub tree_x: f64,
}

/// Run `mix` — a 1,000-insert preload, then `ops` measured operations — on
/// the Π-tree and on each baseline protocol, in that order.
pub fn measure(mix: Mix, ops: u64) -> Vec<Footprint> {
    let cfg = PiTreeConfig::small_nodes(mix.fanout, mix.fanout);
    let pi = PiCheckIndex::new(8192, cfg);
    let mut rows = vec![drive(&pi, pi.tree(), mix, ops)];
    for p in [
        Protocol::LockCoupling,
        Protocol::Optimistic,
        Protocol::SerialSmo,
    ] {
        let b = Baseline::new(8192, p, cfg);
        rows.push(drive(&b, b.tree(), mix, ops));
    }
    rows
}

fn drive(idx: &dyn ConcurrentIndex, tree: &PiTree, mix: Mix, ops: u64) -> Footprint {
    // Each phase draws from its own seed and restarts a sequential
    // stream at key 0.
    let phase = |seed| (KeyStream::new(mix.access, 1 << 20, 0), SimRng::new(seed));
    let (mut keys, mut rng) = phase(7);
    for _ in 0..1_000 {
        idx.insert(&keys.next(&mut rng).to_be_bytes(), b"preload");
    }
    let (mut keys, mut rng) = phase(1001);
    for _ in 0..ops {
        if rng.chance(mix.read_frac) {
            let _ = idx.get(&keys.next(&mut rng).to_be_bytes());
        } else {
            idx.insert(&keys.next(&mut rng).to_be_bytes(), b"value-xxxxxxxx");
        }
    }
    let per_k = |n: u64| n as f64 * 1000.0 / ops as f64;
    Footprint {
        protocol: idx.name(),
        interior_x: per_k(tree.stats().upper_exclusive.get()),
        tree_x: per_k(tree.recorder().counter(TREE_EXCLUSIVE).get()),
    }
}
