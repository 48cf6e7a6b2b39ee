//! `benchmark selfcheck [runs]`: the acceptance procedure, run by the
//! benchmark on itself. Two sets of `runs` untraced runs per workload, each
//! run a child process with its own seed. Per end-to-end metric it takes
//! the spread of a set — the distance between the first and third quartile
//! (Python's `statistics.quantiles(values, n=4)`) as a share of the median —
//! and how much worse the second set's median is than the first's, and
//! holds both against the metric's bound. `setup_s` is exempt from the
//! spread test, as it is in the driver.

use crate::manifest::{Better, END_TO_END, RUN_SECONDS, WORKLOADS};

/// `statistics.quantiles(v, n=4)` (exclusive method): Q1, median, Q3.
fn quartiles(v: &[f64]) -> [f64; 3] {
    let mut d = v.to_vec();
    d.sort_by(f64::total_cmp);
    let n = d.len();
    if n < 2 {
        let x = d.first().copied().unwrap_or(0.0);
        return [x; 3];
    }
    [1usize, 2, 3].map(|i| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0
    })
}

/// Pull `"name": {"value": X` out of a result line this binary printed.
fn metric_value(line: &str, name: &str) -> Option<f64> {
    let tail = line.split(&format!("\"{name}\": {{\"value\": ")).nth(1)?;
    tail.split([',', '}']).next()?.trim().parse().ok()
}

fn one_run(workload: &str, seed: u64) -> Option<String> {
    let exe = std::env::current_exe().expect("own path");
    let out = std::process::Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &RUN_SECONDS.to_string(), "--trace", "0"])
        .output()
        .expect("spawn run");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last()?.to_string();
    (out.status.success() && line.contains("\"correct\": true")).then_some(line)
}

pub fn run(runs: u64) -> i32 {
    let mut bad = 0;
    println!(
        "{:<13} {:<24} {:>12} {:>12} {:>8} {:>8} {:>7}",
        "workload", "metric", "median A", "median B", "spread", "B vs A", "bound"
    );
    for (wi, w) in WORKLOADS.iter().enumerate() {
        // lines[set][run]
        let mut lines: [Vec<String>; 2] = [Vec::new(), Vec::new()];
        for (set, out) in lines.iter_mut().enumerate() {
            for r in 0..runs {
                let seed = 1000 * (set as u64 + 1) + 100 * wi as u64 + r;
                match one_run(w.name, seed) {
                    Some(line) => out.push(line),
                    None => {
                        println!("{:<13} run with seed {seed} failed", w.name);
                        bad += 1;
                    }
                }
            }
        }
        for m in END_TO_END {
            let values = |set: usize| -> Vec<f64> {
                lines[set]
                    .iter()
                    .filter_map(|l| metric_value(l, m.name))
                    .collect()
            };
            let (qa, qb) = (quartiles(&values(0)), quartiles(&values(1)));
            let spread = ((qa[2] - qa[0]) / qa[1]).max((qb[2] - qb[0]) / qb[1]);
            let worse = match m.better {
                Better::Lower => (qb[1] - qa[1]) / qa[1],
                Better::Higher => (qa[1] - qb[1]) / qa[1],
            };
            let spread_ok = m.name == "setup_s" || spread <= m.bound;
            let ok = spread_ok && worse <= m.bound && qa[1] != 0.0;
            println!(
                "{:<13} {:<24} {:>12.4} {:>12.4} {:>7.1}% {:>+7.1}% {:>6.0}% {}",
                w.name,
                m.name,
                qa[1],
                qb[1],
                spread * 100.0,
                worse * 100.0,
                m.bound * 100.0,
                if ok { "" } else { "FAIL" }
            );
            bad += !ok as i32;
        }
    }
    println!(
        "{}",
        if bad == 0 {
            "selfcheck passed"
        } else {
            "selfcheck FAILED"
        }
    );
    (bad != 0) as i32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), [1.0, 3.0, 4.5]);
    }

    #[test]
    fn metric_value_reads_own_output() {
        let line = r#"{"correct": true, "attempted": 5, "failed": 0, "metrics": {"ops_per_s": {"value": 12.5, "unit": "1/s"}, "setup_s": {"value": 0.25, "unit": "s"}}}"#;
        assert_eq!(metric_value(line, "ops_per_s"), Some(12.5));
        assert_eq!(metric_value(line, "setup_s"), Some(0.25));
        assert_eq!(metric_value(line, "nope"), None);
    }
}
