//! Differential oracle: drive a system under test and the sequential
//! [`Model`] with the same seeded workload and demand identical answers.
//!
//! Because the driver is single-threaded, every legal implementation must
//! agree with the model exactly — there is no reordering slack. This is
//! the cheapest of the three layers and the one that catches plain logic
//! bugs (lost writes, wrong scan windows, bad created/existed flags).
//!
//! There is one driver, [`drive`], over the workspace's one op vocabulary
//! ([`pitree_sim::crash::Op`]): [`run_differential`] generates the seed's
//! stream and drives it, [`differential_twin`] drives a stream the scenario
//! harness generated.

use crate::model::Model;
use pitree_baselines::ConcurrentIndex;
use pitree_sim::crash::{key_bytes, val_bytes, Op};
use pitree_sim::SimRng;

/// Knobs for one differential run.
#[derive(Debug, Clone, Copy)]
pub struct DiffConfig {
    /// Operations to issue.
    pub ops: usize,
    /// Keys are drawn from `0..key_domain` (small domains force overwrite
    /// and delete-of-present paths).
    pub key_domain: u64,
}

impl Default for DiffConfig {
    fn default() -> DiffConfig {
        DiffConfig {
            ops: 400,
            key_domain: 64,
        }
    }
}

/// Where a differential run diverged from the model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiffViolation {
    /// The index that diverged.
    pub index: &'static str,
    /// Seed of the failing run: [`run_differential`] with this seed
    /// replays it.
    pub seed: u64,
    /// Zero-based operation index at which the divergence was observed
    /// (`usize::MAX` for the final sweep).
    pub op: usize,
    /// Human-readable description of the mismatch.
    pub detail: String,
}

impl std::fmt::Display for DiffViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "differential divergence in {} (seed {:#x}, op {}): {}",
            self.index, self.seed, self.op, self.detail
        )
    }
}

/// Summary of a passing differential run.
#[derive(Debug, Clone, Copy, Default)]
pub struct DiffReport {
    /// Operations executed.
    pub ops: usize,
    /// Records live in the model at the end.
    pub final_records: usize,
}

/// The seed's differential stream: 45% upsert, 20% delete, 25% point
/// read, 10% range scan. Draw order (key, kind, then the scan's width) is
/// part of the replay contract — a printed seed means this stream.
pub fn gen_ops(seed: u64, cfg: DiffConfig) -> Vec<Op> {
    let mut rng = SimRng::new(seed);
    (0..cfg.ops)
        .map(|_| {
            let k = rng.below(cfg.key_domain);
            match rng.below(100) {
                0..=44 => Op::Insert(k),
                45..=64 => Op::Delete(k),
                65..=89 => Op::Get(k),
                _ => Op::Scan(k, k + 1 + rng.below(cfg.key_domain / 4 + 1)),
            }
        })
        .collect()
}

/// Replay an explicit op stream against `index`, comparing every observable
/// result with the [`Model`] (`Flush` / `Checkpoint` have no differential
/// meaning — the crash sweep covers them), then sweep a point read over
/// every key up to the largest the stream names, whether or not the stream
/// read it.
pub fn drive(
    index: &dyn ConcurrentIndex,
    ops: &[Op],
    seed: u64,
) -> Result<DiffReport, DiffViolation> {
    let mut model = Model::new();
    let fail = |op: usize, detail: String| DiffViolation {
        index: index.name(),
        seed,
        op,
        detail,
    };
    for (i, op) in ops.iter().enumerate() {
        match *op {
            Op::Insert(k) => {
                let (key, val) = (key_bytes(k), val_bytes(k, i));
                let (got, want) = (index.insert(&key, &val), model.insert(&key, &val));
                if got != want {
                    return Err(fail(
                        i,
                        format!("insert({k}) created={got}, model says {want}"),
                    ));
                }
            }
            Op::Delete(k) => {
                let key = key_bytes(k);
                let (got, want) = (index.delete(&key), model.delete(&key));
                if got != want {
                    return Err(fail(
                        i,
                        format!("delete({k}) existed={got}, model says {want}"),
                    ));
                }
            }
            Op::Get(k) => {
                let key = key_bytes(k);
                let (got, want) = (index.get(&key), model.get(&key));
                if got != want {
                    return Err(fail(i, format!("get({k}) = {got:?}, model says {want:?}")));
                }
            }
            Op::Scan(lo, hi) => {
                let (lo_b, hi_b) = (key_bytes(lo), key_bytes(hi));
                let (got, want) = (index.scan(&lo_b, &hi_b), model.scan(&lo_b, &hi_b));
                if got != want {
                    return Err(fail(
                        i,
                        format!(
                            "scan([{lo},{hi})) returned {} pairs, model has {}",
                            got.len(),
                            want.len()
                        ),
                    ));
                }
            }
            Op::Flush | Op::Checkpoint => {}
        }
    }
    let named = ops.iter().map(|op| match *op {
        Op::Insert(k) | Op::Delete(k) | Op::Get(k) => k + 1,
        Op::Scan(_, hi) => hi,
        Op::Flush | Op::Checkpoint => 0,
    });
    for k in 0..named.max().unwrap_or(0) {
        let key = key_bytes(k);
        let (got, want) = (index.get(&key), model.get(&key));
        if got != want {
            return Err(fail(
                usize::MAX,
                format!("final sweep: get({k}) = {got:?}, model says {want:?}"),
            ));
        }
    }
    Ok(DiffReport {
        ops: ops.len(),
        final_records: model.len(),
    })
}

/// Run one seeded differential workload against `index`: generate the
/// seed's stream, then [`drive`] it.
pub fn run_differential(
    index: &dyn ConcurrentIndex,
    seed: u64,
    cfg: DiffConfig,
) -> Result<DiffReport, DiffViolation> {
    drive(index, &gen_ops(seed, cfg), seed)
}

/// The scenario twins' differential half: the million-key scenario harness
/// (EXPERIMENTS.md S7) cannot be oracle-checked at full scale, so every
/// scenario ships a scaled-down deterministic twin stream drawn from the
/// very samplers its bench uses; this replays it against every index in
/// [`all_indexes`](crate::all_indexes). (The durability half is
/// [`pitree_sim::crash::sweep_script`] on the same stream.) Returns the
/// last index's report.
pub fn differential_twin(ops: &[Op], seed: u64) -> Result<DiffReport, DiffViolation> {
    let mut report = DiffReport::default();
    for index in crate::all_indexes() {
        report = drive(index.as_ref(), ops, seed)?;
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{LostWriteIndex, ModelIndex};

    #[test]
    fn model_index_passes() {
        let report =
            run_differential(&ModelIndex::default(), 0xd1ff, DiffConfig::default()).unwrap();
        assert_eq!(report.ops, 400);
    }

    /// Replay stability: seed → stream is part of the replay contract.
    /// Pinned against the generator as it stood when it was fused with the
    /// driver loop.
    #[test]
    fn op_generator_golden() {
        assert_eq!(
            format!("{:?}", &gen_ops(0x601D, DiffConfig::default())[..12]),
            "[Delete(60), Insert(49), Insert(16), Get(31), Insert(47), Scan(29, 37), \
             Insert(52), Insert(10), Get(27), Insert(48), Delete(13), Insert(6)]"
        );
    }

    fn mixed_stream() -> Vec<Op> {
        let mut s = Vec::new();
        for i in 0..30u64 {
            s.push(Op::Insert(i % 12));
            if i % 3 == 0 {
                s.push(Op::Get(i % 12));
            }
            if i % 5 == 0 {
                s.push(Op::Scan(0, 12));
            }
            if i % 7 == 0 {
                s.push(Op::Delete((i + 1) % 12));
            }
            if i % 11 == 0 {
                s.push(Op::Flush);
            }
            if i == 20 {
                s.push(Op::Checkpoint);
            }
        }
        s
    }

    #[test]
    fn twin_stream_passes_every_index_and_the_crash_sweep() {
        let stream = mixed_stream();
        let report = differential_twin(&stream, 0x7713).expect("twin must pass");
        assert!(report.final_records > 0);
        let cfg = pitree_sim::SweepConfig {
            max_crash_points: 4,
            ..pitree_sim::SweepConfig::default()
        };
        let swept = pitree_sim::crash::sweep_script(&stream, 0x7713, &cfg)
            .expect("durability twin must pass");
        assert!(swept.points.len() >= 2);
    }

    #[test]
    fn twin_stream_rejects_lost_write() {
        let broken = LostWriteIndex::new(ModelIndex::default(), 3);
        let err = drive(&broken, &mixed_stream(), 0x7713).expect_err("dropped writes");
        assert_eq!(err.index, "fixture:lost-write");
    }

    #[test]
    fn lost_write_fixture_is_rejected() {
        let broken = LostWriteIndex::new(ModelIndex::default(), 5);
        let err = run_differential(&broken, 0xd1ff, DiffConfig::default())
            .expect_err("differential oracle must catch dropped writes");
        assert_eq!(err.index, "fixture:lost-write");
        assert_eq!(err.seed, 0xd1ff);
    }
}
