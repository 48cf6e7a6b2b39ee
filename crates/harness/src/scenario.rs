//! The scenario matrix: workload shapes and the deterministic oracle
//! twins that gate each scenario.
//!
//! A [`ScenarioSpec`] from [`matrix`] is an op [`Mix`] aimed by a
//! [`KeyStream`]. `benchmark/` draws its op streams from the same [`Mix`]
//! and [`KeyStream`] code. `tests/scenario_twins.rs` gates every spec with
//! [`twin_ops`] streams through `pitree-check`'s
//! [`differential_twin`](pitree_check::differential_twin) and the crash
//! oracle's [`sweep_script`](pitree_sim::crash::sweep_script), plus the
//! engine-specific [`tsb_twin`] / [`hb_twin`] model checks here.
//!
//! Every sampler runs on [`SimRng`] + the deterministic
//! [`Zipf`](crate::workload::Zipf) generator, so a scenario is a pure
//! function of its seed: a stream over 1M keys and the twin stream
//! at domain ~100 are the *same shape* drawn from the same code.

use crate::workload::{Access, KeyStream};
use pitree_sim::crash::Op;
use pitree_sim::SimRng;

/// Operation mix in percent (must sum to 100). Scans carry their length.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    /// Point reads.
    pub get: u32,
    /// Upserts.
    pub insert: u32,
    /// Deletes.
    pub delete: u32,
    /// Range scans.
    pub scan: u32,
    /// Keys per scan window.
    pub scan_len: u64,
}

impl Mix {
    /// A mix of `get` / `insert` / `delete` / `scan` percent, scans covering
    /// `scan_len` keys. The shares must sum to 100.
    pub fn new(get: u32, insert: u32, delete: u32, scan: u32, scan_len: u64) -> Mix {
        assert_eq!(get + insert + delete + scan, 100, "mix must sum to 100");
        Mix {
            get,
            insert,
            delete,
            scan,
            scan_len,
        }
    }

    /// Draw the next operation: roll the mix, then aim it with `stream`.
    /// The benchmark and the oracle twins share this, so a twin is the
    /// same op sequence as its scenario, scaled down.
    pub fn draw(&self, stream: &mut KeyStream, rng: &mut SimRng) -> MixOp {
        let roll = rng.below(100) as u32;
        if roll < self.get {
            MixOp::Get(stream.next_existing(rng))
        } else if roll < self.get + self.insert {
            MixOp::Insert(stream.next(rng))
        } else if roll < self.get + self.insert + self.delete {
            MixOp::Delete(stream.next(rng))
        } else {
            MixOp::Scan(stream.next_existing(rng))
        }
    }
}

/// One draw of a [`Mix`]: the operation and the key it aims at (a scan's
/// low key).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MixOp {
    /// Point read of a key that should exist.
    Get(u64),
    /// Upsert.
    Insert(u64),
    /// Delete.
    Delete(u64),
    /// Range scan starting here.
    Scan(u64),
}

/// Engines a scenario compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineSet {
    /// Π-tree vs. the lock-coupling baseline on point and range ops.
    PointVsBaselines,
    /// TSB-tree as-of reads/puts vs. Π-tree current-version ops vs.
    /// lock-coupling — the temporal scenario.
    Temporal,
    /// hB-tree window queries vs. Π-tree over the concatenated-attribute
    /// key (x-slab scan + y filter), the classic composite-index strawman
    /// the hB-tree paper argues against.
    MultiAttr,
    /// The Π-tree alone across worker threads: the commit-path row
    /// (EXPERIMENTS.md S4/S5).
    PiScaling,
}

/// One scenario of the matrix.
#[derive(Debug, Clone, Copy)]
pub struct ScenarioSpec {
    /// Scenario name.
    pub name: &'static str,
    /// Operation mix.
    pub mix: Mix,
    /// Key access shape.
    pub access: Access,
    /// Engines under comparison.
    pub engines: EngineSet,
}

/// The scenario matrix (EXPERIMENTS.md S7). YCSB letters follow the
/// standard core workloads; `hot-storm` is the adversarial subtree
/// hammer; `tsb-asof` and `hb-multiattr` exercise the paper's other two
/// access methods; `throughput` is the multi-thread commit-path row.
pub fn matrix() -> Vec<ScenarioSpec> {
    vec![
        ScenarioSpec {
            name: "ycsb-a",
            mix: Mix::new(50, 50, 0, 0, 0),
            access: Access::Zipf(0.99),
            engines: EngineSet::PointVsBaselines,
        },
        ScenarioSpec {
            name: "ycsb-b",
            mix: Mix::new(95, 5, 0, 0, 0),
            access: Access::Zipf(0.99),
            engines: EngineSet::PointVsBaselines,
        },
        ScenarioSpec {
            name: "ycsb-c",
            mix: Mix::new(100, 0, 0, 0, 0),
            access: Access::Zipf(0.99),
            engines: EngineSet::PointVsBaselines,
        },
        ScenarioSpec {
            name: "ycsb-e",
            mix: Mix::new(0, 5, 0, 95, 50),
            access: Access::Zipf(0.99),
            engines: EngineSet::PointVsBaselines,
        },
        ScenarioSpec {
            name: "scan-range",
            mix: Mix::new(30, 10, 0, 60, 500),
            access: Access::Uniform,
            engines: EngineSet::PointVsBaselines,
        },
        ScenarioSpec {
            name: "hot-storm",
            mix: Mix::new(10, 45, 45, 0, 0),
            access: Access::HotBand { width: 512 },
            engines: EngineSet::PointVsBaselines,
        },
        ScenarioSpec {
            name: "seq-append",
            mix: Mix::new(20, 80, 0, 0, 0),
            access: Access::Sequential,
            engines: EngineSet::PointVsBaselines,
        },
        ScenarioSpec {
            name: "tsb-asof",
            mix: Mix::new(70, 20, 0, 10, 50),
            access: Access::Zipf(0.99),
            engines: EngineSet::Temporal,
        },
        ScenarioSpec {
            name: "hb-multiattr",
            mix: Mix::new(0, 30, 0, 70, 16), // window edge length in attribute units
            access: Access::Uniform,
            engines: EngineSet::MultiAttr,
        },
        ScenarioSpec {
            name: "throughput",
            mix: Mix::new(50, 40, 10, 0, 0),
            access: Access::Uniform,
            engines: EngineSet::PiScaling,
        },
    ]
}

/// Generate a scenario's deterministic twin stream: the same mix and
/// access shape, scaled down to `domain` keys and `ops` steps, with
/// flushes and fuzzy checkpoints sprinkled in so the durability twin
/// crosses eviction and checkpoint boundaries. Pure function of
/// `(spec, seed, ops, domain)`.
pub fn twin_ops(spec: &ScenarioSpec, seed: u64, ops: usize, domain: u64) -> Vec<Op> {
    let mut rng = SimRng::new(seed ^ 0x5ce7_a110);
    let mut stream = KeyStream::new(spec.access, domain, 0);
    // Seed a small preload so read-heavy twins have data to read.
    let mut out: Vec<Op> = (0..domain / 2).map(Op::Insert).collect();
    for i in 0..ops {
        out.push(match spec.mix.draw(&mut stream, &mut rng) {
            MixOp::Get(k) => Op::Get(k),
            MixOp::Insert(k) => Op::Insert(k),
            MixOp::Delete(k) => Op::Delete(k),
            // Scan windows shrink with the domain: ~1/8 of the space.
            MixOp::Scan(lo) => Op::Scan(lo, lo + (domain / 8).max(2)),
        });
        if i % 17 == 13 {
            out.push(Op::Flush);
        }
        if i % 41 == 29 {
            out.push(Op::Checkpoint);
        }
    }
    out
}

// ---- engine-specific twins -------------------------------------------------

/// TSB-tree twin: a seeded put/delete history over a small domain with a
/// brute-force `(key, time) -> value` model, then every key × sampled
/// time checked through `get_as_of`, plus `scan_as_of` windows — the
/// temporal scenario's oracle. Returns `Err(description)` on divergence.
pub fn tsb_twin(seed: u64) -> Result<(), String> {
    use pitree::CrashableStore;
    use pitree_tsb::{TsbConfig, TsbTree};
    use std::sync::Arc;

    let cs = CrashableStore::create(128, 1 << 20).map_err(|e| format!("store: {e}"))?;
    let tree = TsbTree::create(Arc::clone(&cs.store), 1, TsbConfig::small_nodes(4, 4))
        .map_err(|e| format!("tree: {e}"))?;
    let mut rng = SimRng::new(seed ^ 0x75b7);
    let domain = 16u64;
    // history[k] = chronological (time, value-or-deleted).
    let mut history: Vec<Vec<(u64, Option<Vec<u8>>)>> = vec![Vec::new(); domain as usize];
    for i in 0..120usize {
        let k = rng.below(domain);
        let key = k.to_be_bytes();
        let mut t = tree.begin();
        if rng.chance(0.75) {
            let v = format!("t{k}-{i}").into_bytes();
            let at = tree
                .put(&mut t, &key, &v)
                .map_err(|e| format!("put: {e}"))?;
            t.commit().map_err(|e| format!("commit: {e}"))?;
            history[k as usize].push((at, Some(v)));
        } else {
            let at = tree
                .delete(&mut t, &key)
                .map_err(|e| format!("delete: {e}"))?;
            t.commit().map_err(|e| format!("commit: {e}"))?;
            history[k as usize].push((at, None));
        }
    }
    let model_at = |k: u64, t: u64| -> Option<Vec<u8>> {
        history[k as usize]
            .iter()
            .rev()
            .find(|&&(at, _)| at <= t)
            .and_then(|(_, v)| v.clone())
    };
    // Sampled as-of probes: every key at ~8 times across the run.
    let horizon = tree.now();
    for k in 0..domain {
        let key = k.to_be_bytes();
        for _ in 0..8 {
            let t = rng.below(horizon + 1);
            let got = tree
                .get_as_of(&key, t)
                .map_err(|e| format!("get_as_of: {e}"))?;
            let want = model_at(k, t);
            if got != want {
                return Err(format!(
                    "tsb twin (seed {seed:#x}): as-of({k}, t={t}) = {got:?}, model says {want:?}"
                ));
            }
        }
    }
    // As-of scans: the whole domain at sampled times.
    for _ in 0..6 {
        let t = rng.below(horizon + 1);
        let got = tree
            .scan_as_of(&0u64.to_be_bytes(), &domain.to_be_bytes(), t)
            .map_err(|e| format!("scan_as_of: {e}"))?;
        let want: Vec<(Vec<u8>, Vec<u8>)> = (0..domain)
            .filter_map(|k| model_at(k, t).map(|v| (k.to_be_bytes().to_vec(), v)))
            .collect();
        if got != want {
            return Err(format!(
                "tsb twin (seed {seed:#x}): scan_as_of(t={t}) returned {} pairs, model has {}",
                got.len(),
                want.len()
            ));
        }
    }
    Ok(())
}

/// hB-tree twin: seeded 2-attribute inserts/deletes with a brute-force
/// point-set model, window queries checked exactly — the multi-attribute
/// scenario's oracle. Returns `Err(description)` on divergence.
pub fn hb_twin(seed: u64) -> Result<(), String> {
    use pitree::CrashableStore;
    use pitree_hb::{HbConfig, HbTree, Point, Rect};
    use std::collections::BTreeMap;
    use std::sync::Arc;

    let cs = CrashableStore::create(128, 1 << 20).map_err(|e| format!("store: {e}"))?;
    let tree = HbTree::create(Arc::clone(&cs.store), 1, HbConfig::small_nodes(6, 4))
        .map_err(|e| format!("tree: {e}"))?;
    let mut rng = SimRng::new(seed ^ 0x4b77);
    let side = 32u64;
    let mut model: BTreeMap<Point, Vec<u8>> = BTreeMap::new();
    for i in 0..150usize {
        let p: Point = [rng.below(side), rng.below(side)];
        let mut t = tree.begin();
        if rng.chance(0.8) {
            let v = format!("p{}-{}-{i}", p[0], p[1]).into_bytes();
            tree.insert(&mut t, &p, &v)
                .map_err(|e| format!("insert: {e}"))?;
            t.commit().map_err(|e| format!("commit: {e}"))?;
            model.insert(p, v);
        } else {
            tree.delete(&mut t, &p)
                .map_err(|e| format!("delete: {e}"))?;
            t.commit().map_err(|e| format!("commit: {e}"))?;
            model.remove(&p);
        }
    }
    for _ in 0..20 {
        let lo = [rng.below(side), rng.below(side)];
        let w = Rect {
            lo,
            hi: [lo[0] + 1 + rng.below(side), lo[1] + 1 + rng.below(side)],
        };
        let mut got = tree
            .window_query(&w)
            .map_err(|e| format!("window_query: {e}"))?;
        got.sort();
        let want: Vec<(Point, Vec<u8>)> = model
            .iter()
            .filter(|(p, _)| w.contains(p))
            .map(|(p, v)| (*p, v.clone()))
            .collect();
        if got != want {
            return Err(format!(
                "hb twin (seed {seed:#x}): window {w:?} returned {} points, model has {}",
                got.len(),
                want.len()
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_is_well_formed() {
        let m = matrix();
        assert!(m.len() >= 6, "acceptance wants >= 6 scenarios");
        let mut names: Vec<_> = m.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), m.len(), "scenario names must be unique");
    }

    #[test]
    fn twin_streams_are_deterministic() {
        for spec in matrix() {
            let a = twin_ops(&spec, 0xabcd, 100, 96);
            let b = twin_ops(&spec, 0xabcd, 100, 96);
            assert_eq!(
                a, b,
                "{} twin must be a pure function of its seed",
                spec.name
            );
            let c = twin_ops(&spec, 0xabce, 100, 96);
            assert_ne!(a, c, "{} twin must vary with the seed", spec.name);
        }
    }

    #[test]
    fn twin_streams_reflect_the_mix() {
        let m = matrix();
        let ycsb_c = m.iter().find(|s| s.name == "ycsb-c").unwrap();
        let ops = twin_ops(ycsb_c, 1, 200, 96);
        // Read-only mix: no writes beyond the preload prefix.
        let preload = 96 / 2;
        assert!(ops[preload..]
            .iter()
            .all(|op| !matches!(op, Op::Insert(_) | Op::Delete(_))));
        let storm = m.iter().find(|s| s.name == "hot-storm").unwrap();
        let ops = twin_ops(storm, 1, 200, 96);
        let writes = ops[preload..]
            .iter()
            .filter(|op| matches!(op, Op::Insert(_) | Op::Delete(_)))
            .count();
        assert!(writes > 120, "hot storm twin is write-heavy: {writes}");
    }

    #[test]
    fn hot_band_hits_one_window() {
        let mut s = KeyStream::new(Access::HotBand { width: 512 }, 1_000_000, 0);
        let mut rng = SimRng::new(9);
        for _ in 0..500 {
            let k = s.next(&mut rng);
            assert!((499_744..500_256).contains(&k), "escaped the band: {k}");
        }
    }

    #[test]
    fn tsb_twin_accepts_the_tree() {
        tsb_twin(0x7e57).expect("tsb twin must pass");
    }

    #[test]
    fn hb_twin_accepts_the_tree() {
        hb_twin(0x7e57).expect("hb twin must pass");
    }
}
