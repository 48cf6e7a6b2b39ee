//! The scenario matrix's oracle twins: every [`matrix`] spec scaled down to
//! a 64-key domain and 100 ops (`twin_ops`), run under 8 seeds through
//! pitree-check's differential oracle and the crash oracle's durability
//! sweep (6 crash points per seed), plus the brute-force TSB or hB model
//! twin where the spec compares one of those trees.
//!
//! Seeds derive from the spec's index `i` in [`matrix`]:
//! `0x5c3a_0000 ^ (i << 8)`, then `^ s * 0x9E37_79B9_7F4A_7C15` for seed
//! `s`. Everything is single-threaded and seeded, so the totals are pinned
//! per spec: a change that moves one changed a twin's op stream or the
//! durable-write boundaries its crashes land on.

use pitree_check::differential_twin;
use pitree_harness::scenario::{hb_twin, matrix, tsb_twin, twin_ops};
use pitree_harness::{EngineSet, ScenarioSpec};
use pitree_sim::crash::{sweep_script, SweepConfig};

const SEEDS: u64 = 8;
const OPS: usize = 100;
const DOMAIN: u64 = 64;

/// Per spec, in [`matrix`] order: `(name, differential ops, durability
/// fault points, crash points)`. The differential ops are the ops replayed
/// against every index; the fault points are the durable-write boundaries
/// the durability probe runs crossed; the crash points are the boundaries
/// crashed at and recovered from.
const PINNED: [(&str, usize, u64, usize); 10] = [
    ("ycsb-a", 1120, 1151, 62),
    ("ycsb-b", 1120, 468, 63),
    ("ycsb-c", 1120, 424, 64),
    ("ycsb-e", 1120, 532, 60),
    ("scan-range", 1120, 606, 63),
    ("hot-storm", 1120, 1554, 62),
    ("seq-append", 1120, 1449, 63),
    ("tsb-asof", 1120, 751, 60),
    ("hb-multiattr", 1120, 909, 62),
    ("throughput", 1120, 1141, 63),
];

/// Run every twin of `spec` (index `i` in [`matrix`]) across the seeds and
/// total its coverage the way [`PINNED`] lists it.
fn run_twins(i: usize, spec: &ScenarioSpec) -> (&'static str, usize, u64, usize) {
    let cfg = SweepConfig {
        max_crash_points: 6,
        ..SweepConfig::default()
    };
    let name = spec.name;
    let base = 0x5c3a_0000 ^ ((i as u64) << 8);
    let mut totals = (name, 0, 0, 0);
    for s in 0..SEEDS {
        let seed = base ^ s.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let ops = twin_ops(spec, seed, OPS, DOMAIN);
        let diff = differential_twin(&ops, seed).unwrap_or_else(|v| panic!("{name}: {v}"));
        let dur = sweep_script(&ops, seed, &cfg).unwrap_or_else(|v| panic!("{name}: {v}"));
        totals.1 += diff.ops;
        totals.2 += dur.window.1;
        totals.3 += dur.points.len();
        let engine_twin = match spec.engines {
            EngineSet::Temporal => tsb_twin(seed),
            EngineSet::MultiAttr => hb_twin(seed),
            EngineSet::PointVsBaselines | EngineSet::PiScaling => Ok(()),
        };
        engine_twin.unwrap_or_else(|e| panic!("{name}: {e}"));
    }
    totals
}

#[test]
fn every_matrix_spec_passes_its_twins_with_pinned_totals() {
    let specs = matrix();
    assert_eq!(specs.len(), PINNED.len(), "one pinned row per matrix spec");
    let mut sum = (0, 0, 0);
    for (i, (spec, want)) in specs.iter().zip(PINNED).enumerate() {
        let got = run_twins(i, spec);
        let (name, diff, faults, crashes) = got;
        println!(
            "scenario_twins: {name}: {diff} differential ops, {faults} fault points, \
             {crashes} crash points"
        );
        assert_eq!(got, want, "twin coverage moved");
        if !matches!(spec.engines, EngineSet::PiScaling) {
            sum = (sum.0 + diff, sum.1 + faults, sum.2 + crashes);
        }
    }
    println!(
        "scenario_twins: the nine non-throughput specs: {} differential ops, {} fault points, \
         {} crash points",
        sum.0, sum.1, sum.2
    );
    assert_eq!(sum, (10_080, 7_844, 559));
}
