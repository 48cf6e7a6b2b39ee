//! The repo's one benchmark. `BENCHMARK.json` (repo root) declares it; the
//! driver runs
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! from the root of a checkout and reads the last line of standard output:
//! one JSON object with `correct`, `attempted`, `failed` and `metrics` —
//! every end-to-end metric with `--trace 0`, every per-layer metric with
//! `--trace 1`. A human-readable summary goes to standard error.
//!
//! Other entry points: `benchmark manifest` prints the text of
//! `BENCHMARK.json`; `benchmark selfcheck [runs]` measures run-to-run
//! spread the way the driver does; `benchmark build-image ...` is the child
//! process that loads an image (see `image.rs`). README.md has the rest.

mod alloc;
mod image;
mod lat;
mod layers;
mod manifest;
mod multi;
mod ops;
mod pi;
mod probes;
mod restart;
mod run;
mod selfcheck;
mod trace;

use manifest::{MetricDecl, END_TO_END, PER_LAYER, WORKLOADS};
use run::{Args, Outcome};
use std::path::{Path, PathBuf};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

fn usage() -> ! {
    eprintln!(
        "usage: benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>\n\
         \x20      benchmark manifest | selfcheck [runs]\n\
         workloads: {}",
        WORKLOADS
            .iter()
            .map(|w| w.name)
            .collect::<Vec<_>>()
            .join(" ")
    );
    std::process::exit(2)
}

fn parse_args(argv: &[String]) -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: manifest::RUN_SECONDS as f64,
        trace: false,
        scale: 1,
        corrupt_shadow: false,
        work: PathBuf::from(".bench_work").join(format!("run-{}", std::process::id())),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().map(String::as_str).unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => args.workload = value().to_string(),
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => args.trace = value() == "1",
            "--scale" => args.scale = value().parse().unwrap_or_else(|_| usage()),
            "--corrupt-shadow" => args.corrupt_shadow = true,
            _ => usage(),
        }
    }
    let known = WORKLOADS.iter().any(|w| w.name == args.workload);
    if !(known && args.seconds > 0.0 && args.seconds <= 60.0 && args.scale > 0) {
        usage();
    }
    args
}

/// Removes the run's scratch directory however the run ends.
struct Scratch<'a>(&'a Path);

impl Drop for Scratch<'_> {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(self.0);
    }
}

fn run_workload(args: &Args) -> Outcome {
    std::fs::create_dir_all(&args.work).expect("create scratch directory");
    let _scratch = Scratch(&args.work);
    let mut out = match args.workload.as_str() {
        "restart" => restart::run(args),
        "multi_struct" => multi::run(args),
        _ => pi::run(args),
    };
    if args.trace {
        // Once per invocation, off every clock.
        let mut m = Vec::new();
        probes::run(&args.work, &mut m);
        m.push(("harness.timer_ns", lat::timer_cost_ns()));
        out.set_all(m);
    }
    out
}

/// The result line: every declared metric of the run's kind, in declared
/// order. A per-layer metric the workload has no use for reads 0.
fn result_json(decls: &[MetricDecl], out: &Outcome) -> String {
    let metrics: Vec<String> = decls
        .iter()
        .map(|d| {
            let v = out.metrics.get(d.name).copied().unwrap_or(0.0);
            assert!(v.is_finite(), "metric {} is not a number: {v}", d.name);
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                d.name, d.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0 && out.invalid.is_none(),
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    )
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("manifest") => print!("{}", manifest::benchmark_json()),
        Some("selfcheck") => {
            let runs = argv.get(1).and_then(|s| s.parse().ok()).unwrap_or(10);
            std::process::exit(selfcheck::run(runs));
        }
        Some("build-image") => {
            let [_, kind, dir, scale, seed] = &argv[..] else {
                usage()
            };
            let num = |s: &String| s.parse::<u64>().unwrap_or_else(|_| usage());
            run::build_image_main(kind, Path::new(dir), num(scale), num(seed));
        }
        _ => {
            let args = parse_args(&argv);
            let out = run_workload(&args);
            let decls = if args.trace { PER_LAYER } else { END_TO_END };
            eprintln!(
                "== {} seed {} {}s trace {} ==",
                args.workload, args.seed, args.seconds, args.trace as u8
            );
            for note in &out.notes {
                eprintln!("  {note}");
            }
            for d in decls {
                if let Some(v) = out.metrics.get(d.name) {
                    eprintln!("  {:<34} {v:>16.4} {}", d.name, d.unit);
                }
            }
            for name in out.metrics.keys() {
                assert!(
                    decls.iter().any(|d| d.name == *name),
                    "metric {name} is not declared for this kind of run"
                );
            }
            if let Some(why) = &out.invalid {
                eprintln!("  INVALID RUN: {why}");
            }
            println!("{}", result_json(decls, &out));
            if out.failed > 0 || out.invalid.is_some() {
                std::process::exit(1);
            }
        }
    }
}
