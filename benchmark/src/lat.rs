//! Exact latency samples: one `u32` of nanoseconds per operation, sorted
//! when the run ends. The store's own `pitree-obs` histograms are log2
//! buckets (up to 2x off), which is coarser than the effects this benchmark
//! exists to detect, so latency never comes from them.
//!
//! A quantile is taken over every sample of the measured phase: nothing is
//! windowed, trimmed or picked. Between slices the samples are moved to a
//! scratch file, so that the recorder's memory (4 bytes per operation, tens
//! of megabytes on `read_hot`) is not part of the workload's `peak_rss_mb`
//! and does not make it follow the operation count.

use pitree_obs::Stopwatch;
use std::fs::File;
use std::io::{Read, Write};
use std::path::PathBuf;

/// The percentiles a tail may be read at, lowest first. The reported tail
/// is the highest of them with at least ten samples beyond it.
const TAIL_PCTS: [u32; 4] = [75, 90, 95, 99];

/// Samples of one operation type: those of the open slice in memory, those
/// of earlier slices in the file at `path`.
pub struct Samples {
    open: Vec<u32>,
    path: PathBuf,
    spilled: Option<File>,
}

/// A reported quantile pair: the median and the highest percentile that
/// still has at least ten samples beyond it (capped at p99).
#[derive(Clone, Copy, Default)]
pub struct Quantiles {
    pub count: usize,
    pub p50_ns: f64,
    /// Which percentile `tail_ns` is (99 when the sample supports it, 50
    /// when it supports no tail at all).
    pub tail_pct: u32,
    pub tail_ns: f64,
}

/// Median of a small vector (upper middle for an even count).
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Sort `v` and read the quantiles (nearest rank).
pub fn quantiles(mut v: Vec<u32>) -> Quantiles {
    if v.is_empty() {
        return Quantiles::default();
    }
    v.sort_unstable();
    let rank = |pct: u32| v[(v.len() * pct as usize).div_ceil(100).clamp(1, v.len()) - 1];
    let tail_pct = TAIL_PCTS
        .into_iter()
        .rev()
        .find(|&p| v.len() * (100 - p as usize) / 100 >= 10)
        .unwrap_or(50);
    Quantiles {
        count: v.len(),
        p50_ns: rank(50) as f64,
        tail_pct,
        tail_ns: rank(tail_pct) as f64,
    }
}

impl Samples {
    pub fn new(path: PathBuf) -> Samples {
        Samples {
            open: Vec::new(),
            path,
            spilled: None,
        }
    }

    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.open.push(ns.min(u32::MAX as u64) as u32);
    }

    /// Off the clock: append the open slice's samples to the scratch file
    /// and empty the buffer (its capacity stays, so the next slice does not
    /// grow it again).
    pub fn spill(&mut self) {
        if self.open.is_empty() {
            return;
        }
        let file = self
            .spilled
            .get_or_insert_with(|| File::create(&self.path).expect("create sample file"));
        let bytes: Vec<u8> = self.open.iter().flat_map(|ns| ns.to_le_bytes()).collect();
        file.write_all(&bytes).expect("spill samples");
        self.open.clear();
    }

    /// Every sample recorded, spilled or not, in no particular order.
    pub fn take(&mut self) -> Vec<u32> {
        let mut all = std::mem::take(&mut self.open);
        if self.spilled.take().is_some() {
            let mut bytes = Vec::new();
            File::open(&self.path)
                .and_then(|mut f| f.read_to_end(&mut bytes))
                .expect("read sample file");
            all.extend(
                bytes
                    .chunks_exact(4)
                    .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]])),
            );
        }
        all
    }
}

/// Cost of one `Stopwatch::start` + `elapsed_ns` pair, so sub-microsecond
/// latencies can be read knowing how much of them is the timer.
pub fn timer_cost_ns() -> f64 {
    const N: u32 = 200_000;
    let wall = Stopwatch::start();
    let mut sink = 0u64;
    for _ in 0..N {
        let t = Stopwatch::start();
        sink = sink.wrapping_add(std::hint::black_box(t.elapsed_ns()));
    }
    std::hint::black_box(sink);
    wall.elapsed_ns() as f64 / N as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_p99_only_with_ten_samples_beyond() {
        let q = quantiles((1..=1000).collect());
        assert_eq!(
            (q.count, q.p50_ns, q.tail_pct, q.tail_ns),
            (1000, 500.0, 99, 990.0)
        );
        let q = quantiles((1..=300).collect());
        assert_eq!((q.tail_pct, q.tail_ns), (95, 285.0));
        let q = quantiles((1..=12).collect());
        assert_eq!((q.p50_ns, q.tail_pct, q.tail_ns), (6.0, 50, 6.0));
    }

    #[test]
    fn spilled_samples_come_back() {
        std::fs::create_dir_all(".bench_work").unwrap();
        let path = PathBuf::from(format!(".bench_work/lat-test-{}.u32", std::process::id()));
        let mut s = Samples::new(path.clone());
        (1..=10u64).for_each(|i| s.record(i));
        s.spill();
        (11..=20u64).for_each(|i| s.record(i));
        s.spill();
        s.record(21);
        let mut all = s.take();
        all.sort_unstable();
        assert_eq!(all, (1..=21).collect::<Vec<u32>>());
        let _ = std::fs::remove_file(path);
    }
}
