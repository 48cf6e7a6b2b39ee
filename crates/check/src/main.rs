//! `pitree-check` — run the correctness oracles over replayable seeds.
//!
//! ```text
//! pitree-check --sweep <n>      # n-seed sweep of all three layers, summary
//!                               # table, exit 1 on any violation
//! pitree-check --fixtures       # prove each oracle rejects its seeded
//!                               # violation (exit 1 if one is accepted)
//! pitree-check --replay <seed> [--layer diff|linear|dur]
//!                               # verbose single-seed run; a durability
//!                               # failure is minimized by the shrinker
//! ```
//!
//! Seeds are drawn from the same stable corpus generator as the sim kit
//! (`pitree_sim::prop::case_seed`), so `--sweep` tests identical cases on
//! every machine and a printed seed replays exactly.

use pitree_check::durability::{
    ack_before_durable_violation, elr_chain_violation, fixture_script, stale_read_violation,
    tail_drop_violation,
};
use pitree_check::index::{LostWriteIndex, ModelIndex, StaleReadIndex};
use pitree_check::shrink::{shrink_durability, shrink_tail_drop};
use pitree_check::{
    all_indexes, lin_targets, run_differential, run_linearizability, ConcurrentIndex, DiffConfig,
    LinConfig,
};
use pitree_sim::crash::{sweep_script, SweepConfig, Violation, Workload};
use pitree_sim::prop::case_seed;
use pitree_sim::SimRng;
use std::process::ExitCode;

/// The durability workload `--sweep` / `--replay` generate per seed.
const WORKLOAD: Workload = Workload {
    ops: 40,
    key_domain: 32,
};

/// The sweep run over that workload: 8 crash points per seed.
fn sweep_config() -> SweepConfig {
    SweepConfig {
        max_crash_points: 8,
        ..SweepConfig::default()
    }
}

fn usage() -> ExitCode {
    println!(
        "usage: pitree-check --sweep <n> | --fixtures | --replay <seed> [--layer diff|linear|dur]"
    );
    ExitCode::from(2)
}

fn parse_seed(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--sweep") => {
            let Some(n) = args.get(1).and_then(|s| s.parse::<usize>().ok()) else {
                return usage();
            };
            sweep(n)
        }
        Some("--fixtures") => fixtures(),
        Some("--replay") => {
            let Some(seed) = args.get(1).and_then(|s| parse_seed(s)) else {
                return usage();
            };
            let layer = match args.get(2).map(String::as_str) {
                Some("--layer") => args.get(3).map(String::as_str),
                None => None,
                _ => return usage(),
            };
            replay(seed, layer)
        }
        _ => usage(),
    }
}

/// One summary row, lint-gate style: layer, target, cases, verdict.
fn row(layer: &str, target: &str, cases: usize, verdict: &str) {
    println!("{layer:<16} {target:<24} {cases:>3} case(s)  {verdict}");
}

/// A durability layer's summary row; a violation also prints itself and the
/// replay line built from its seed. Returns the violations to count.
fn dur_row(layer: &str, n: usize, outcome: Result<String, Violation>) -> usize {
    match outcome {
        Ok(covered) => {
            row(layer, "pi-tree", n, &format!("ok ({covered})"));
            0
        }
        Err(v) => {
            row(layer, "pi-tree", n, "VIOLATION");
            eprintln!("  {v}");
            eprintln!("  replay: pitree-check --replay {:#x} --layer dur", v.seed);
            1
        }
    }
}

/// A seeded-violation fixture's row: rejected (with what the oracle said)
/// or wrongly accepted. Returns the acceptances to count.
fn fixture_row(layer: &str, name: &str, rejected: Option<String>) -> usize {
    match rejected {
        Some(how) => {
            row(layer, name, 1, &how);
            0
        }
        None => {
            row(layer, name, 1, "ACCEPTED (oracle is blind)");
            1
        }
    }
}

fn sweep(n: usize) -> ExitCode {
    let mut violations = 0usize;

    // Layer 1: differential vs the sequential model (per-seed fresh trees).
    for target in 0..all_indexes().len() {
        let mut name = "?";
        let mut failed = None;
        for i in 0..n {
            let seed = case_seed("pitree-check.diff", i);
            let indexes = all_indexes();
            let idx = indexes[target].as_ref();
            name = idx.name();
            if let Err(v) = run_differential(idx, seed, DiffConfig::default()) {
                failed = Some(v);
                break;
            }
        }
        match failed {
            None => row("differential", name, n, "ok"),
            Some(v) => {
                row("differential", name, n, "VIOLATION");
                eprintln!("  {v}");
                eprintln!("  replay: pitree-check --replay {:#x} --layer diff", v.seed);
                violations += 1;
            }
        }
    }

    // Layer 2: linearizability of concurrent histories.
    for target in 0..lin_targets().len() {
        let mut name = "?";
        let mut failed = None;
        for i in 0..n {
            let seed = case_seed("pitree-check.linear", i);
            let targets = lin_targets();
            let idx = targets[target].as_ref();
            name = idx.name();
            if let Err(e) = run_linearizability(idx, seed, LinConfig::default()) {
                failed = Some((seed, e));
                break;
            }
        }
        match failed {
            None => row("linearizability", name, n, "ok"),
            Some((seed, e)) => {
                row("linearizability", name, n, "VIOLATION");
                eprintln!("  seed {seed:#x}: {e}");
                eprintln!("  replay: pitree-check --replay {seed:#x} --layer linear");
                violations += 1;
            }
        }
    }

    // Layer 3: durability across the crash-point sweep. It drives the
    // Π-tree's own operations; the baselines log into the same WAL and
    // restart through the same recovery (baselines/tests/substrate.rs).
    let cfg = sweep_config();
    let tested = (0..n).try_fold(0usize, |tested, i| {
        let seed = case_seed("pitree-check.dur", i);
        let script = WORKLOAD.script(&mut SimRng::new(seed));
        sweep_script(&script, seed, &cfg).map(|r| tested + r.points.len())
    });
    violations += dur_row("durability", n, tested.map(|t| format!("{t} crash points")));

    // Layer 3b: early-lock-release pipelined chains over log-prefix
    // crashes — acks only after the watermark, no lost update when a
    // successor jumps a released lock.
    let cuts = (0..n).try_fold(0usize, |cuts, i| {
        let seed = case_seed("pitree-check.elr", i);
        elr_chain_violation(seed, WORKLOAD.key_domain, &cfg).map(|c| cuts + c)
    });
    violations += dur_row(
        "durability-elr",
        n,
        cuts.map(|c| format!("{c} prefix cuts")),
    );

    if violations == 0 {
        println!("pitree-check: clean");
        ExitCode::SUCCESS
    } else {
        println!("pitree-check: {violations} violation(s)");
        ExitCode::FAILURE
    }
}

/// Prove the oracles have teeth: each layer must reject its seeded
/// violation. An oracle that accepts a broken implementation is itself
/// the bug.
fn fixtures() -> ExitCode {
    let mut accepted = 0usize;

    let seed = case_seed("pitree-check.fixtures", 0);

    let broken = LostWriteIndex::new(ModelIndex::default(), 5);
    accepted += fixture_row(
        "differential",
        broken.name(),
        run_differential(&broken, seed, DiffConfig::default())
            .err()
            .map(|v| format!("rejected (op {})", v.op)),
    );

    let stale = StaleReadIndex::new(ModelIndex::default());
    let lin_cfg = LinConfig {
        threads: 1,
        ops_per_thread: 64,
        key_domain: 4,
    };
    accepted += fixture_row(
        "linearizability",
        stale.name(),
        run_linearizability(&stale, seed, lin_cfg)
            .err()
            .map(|_| "rejected".into()),
    );

    let workload = Workload {
        ops: 24,
        ..WORKLOAD
    };
    let cfg = SweepConfig {
        max_crash_points: 4,
        ..sweep_config()
    };
    let script = fixture_script(seed, &workload);
    accepted += fixture_row(
        "durability",
        "fixture:lost-commit",
        tail_drop_violation(&script, seed, &cfg).map(|v| {
            let min = shrink_tail_drop(&script, seed, &cfg);
            format!(
                "rejected; shrunk {} -> {} op(s)\n  violation: {}\n  minimal schedule: {min:?}",
                script.len(),
                min.len(),
                v.detail
            )
        }),
    );

    // The ELR contract: an ack is only legal once the watermark covers
    // the commit. Model the client that acks at publish; the oracle must
    // see the lost write after the crash.
    let plain = workload.script(&mut SimRng::new(seed));
    accepted += fixture_row(
        "durability",
        "fixture:ack-before-durable",
        ack_before_durable_violation(&plain, seed, &cfg)
            .map(|v| format!("rejected\n  violation: {}", v.detail)),
    );

    // The runner's in-line read check: a read the committed model
    // contradicts must stop the sweep before any crash is injected.
    accepted += fixture_row(
        "durability",
        "fixture:stale-read",
        stale_read_violation(&plain, seed, &cfg)
            .filter(|v| v.point == 0)
            .map(|v| format!("rejected (no crash injected)\n  violation: {}", v.detail)),
    );

    if accepted == 0 {
        println!("pitree-check: all seeded violations rejected");
        ExitCode::SUCCESS
    } else {
        println!("pitree-check: {accepted} fixture(s) wrongly accepted");
        ExitCode::FAILURE
    }
}

fn replay(seed: u64, layer: Option<&str>) -> ExitCode {
    let run_diff = matches!(layer, None | Some("diff"));
    let run_lin = matches!(layer, None | Some("linear"));
    let run_dur = matches!(layer, None | Some("dur"));
    if !(run_diff || run_lin || run_dur) {
        return usage();
    }
    let mut violations = 0usize;

    if run_diff {
        for idx in all_indexes() {
            match run_differential(idx.as_ref(), seed, DiffConfig::default()) {
                Ok(r) => println!(
                    "differential     {:<24} ok ({} ops, {} final records)",
                    idx.name(),
                    r.ops,
                    r.final_records
                ),
                Err(v) => {
                    println!("differential     {:<24} VIOLATION: {v}", idx.name());
                    violations += 1;
                }
            }
        }
    }

    if run_lin {
        for idx in lin_targets() {
            match run_linearizability(idx.as_ref(), seed, LinConfig::default()) {
                Ok(r) => println!(
                    "linearizability  {:<24} ok ({} calls over {} keys)",
                    idx.name(),
                    r.calls,
                    r.keys
                ),
                Err(e) => {
                    println!("linearizability  {:<24} VIOLATION:\n{e}", idx.name());
                    violations += 1;
                }
            }
        }
    }

    if run_dur {
        let cfg = sweep_config();
        let script = WORKLOAD.script(&mut SimRng::new(seed));
        match sweep_script(&script, seed, &cfg) {
            Ok(r) => println!(
                "durability       {:<24} ok ({} of {} crash points swept)",
                "pi-tree",
                r.points.len(),
                r.window.1
            ),
            Err(v) => {
                println!("durability       {:<24} VIOLATION: {v}", "pi-tree");
                println!("minimizing the failing script (this re-sweeps each candidate)...");
                let min = shrink_durability(&script, seed, &cfg);
                println!("minimal failing schedule ({} op(s)): {min:?}", min.len());
                violations += 1;
            }
        }
        match elr_chain_violation(seed, WORKLOAD.key_domain, &cfg) {
            Ok(c) => println!("durability-elr   {:<24} ok ({c} prefix cuts)", "pi-tree"),
            Err(v) => {
                println!("durability-elr   {:<24} VIOLATION: {v}", "pi-tree");
                violations += 1;
            }
        }
    }

    if violations == 0 {
        println!("pitree-check: seed {seed:#x} clean");
        ExitCode::SUCCESS
    } else {
        println!("pitree-check: seed {seed:#x}: {violations} violation(s)");
        ExitCode::FAILURE
    }
}
