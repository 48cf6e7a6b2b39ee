//! Synthetic keyed workloads — the stand-in for the multi-user OLTP drivers
//! of Srinivasan & Carey \[18\] that motivate the paper's concurrency claims
//! (substitution documented in DESIGN.md §2.7).
//!
//! [`KeyStream`] is the workspace's one key generator: the scenario matrix,
//! its oracle twins, E1's footprint and `benchmark/` all aim their
//! operations with it. Its skewed shape is the bounded-[`Zipf`]
//! generator here: the Gray et al. incremental-CDF method ("Quickly
//! Generating Billion-Record Synthetic Databases", SIGMOD '94), the same
//! construction YCSB uses. All transcendental math ([`det_ln`]/[`det_exp`]/
//! [`det_pow`]) is implemented with pure `+ - * /` arithmetic so the sampled
//! stream is byte-identical across platforms and rust versions — libm's
//! `powf` makes no such promise, and replayable seeds are the workspace's
//! whole testing story.

use pitree_sim::SimRng;

// ---- deterministic transcendentals ----------------------------------------
//
// IEEE-754 requires correctly rounded + - * / and sqrt, so any function
// composed only of those is bit-identical everywhere. `ln`/`exp` below are
// classic argument-reduction + series implementations; accuracy (~1e-15
// relative) is far beyond what a workload sampler needs, and every step is
// reproducible.

/// Natural log via exponent extraction + atanh series on the mantissa.
/// Deterministic: only uses `+ - * /` and integer bit manipulation.
/// Domain: finite `x > 0`.
pub fn det_ln(x: f64) -> f64 {
    assert!(x > 0.0 && x.is_finite(), "det_ln domain: {x}");
    const LN2: f64 = std::f64::consts::LN_2;
    // x = m * 2^e with m in [1, 2).
    let bits = x.to_bits();
    let mut e = ((bits >> 52) & 0x7ff) as i64 - 1023;
    let mut m = f64::from_bits((bits & 0x000f_ffff_ffff_ffff) | (1023u64 << 52));
    if e == -1023 {
        // Subnormal: renormalize (keys/domains never get here, but be total).
        let norm = x * f64::from_bits((1023u64 + 60) << 52); // x * 2^60
        return det_ln(norm) - 60.0 * LN2;
    }
    // Pull m toward 1 so the series converges fast: use sqrt(2) midpoint.
    if m > std::f64::consts::SQRT_2 {
        m /= 2.0;
        e += 1;
    }
    // ln(m) = 2 atanh(z), z = (m-1)/(m+1), |z| <= 0.1716 -> z^2 <= 0.0295.
    let z = (m - 1.0) / (m + 1.0);
    let z2 = z * z;
    let mut term = z;
    let mut sum = 0.0;
    let mut k = 0u32;
    // 18 odd terms: z^37 * 0.0295^18 ~ 1e-29, below f64 ulp of the sum.
    while k < 18 {
        sum += term / (2 * k + 1) as f64;
        term *= z2;
        k += 1;
    }
    e as f64 * LN2 + 2.0 * sum
}

/// `e^x` via range reduction to `x = k ln2 + r`, Taylor series on `r`, and
/// an exact power-of-two scale. Deterministic (`+ - * /` only).
pub fn det_exp(x: f64) -> f64 {
    assert!(x.is_finite(), "det_exp domain: {x}");
    const LN2: f64 = std::f64::consts::LN_2;
    if x > 700.0 {
        return f64::INFINITY;
    }
    if x < -700.0 {
        return 0.0;
    }
    // Round x/ln2 to the nearest integer deterministically.
    let kf = x / LN2;
    let k = if kf >= 0.0 {
        (kf + 0.5) as i64
    } else {
        (kf - 0.5) as i64
    };
    let r = x - k as f64 * LN2; // |r| <= ln2/2
                                // Taylor: sum r^n / n!, 20 terms -> error ~ (0.35)^20/20! ~ 1e-28.
    let mut term = 1.0;
    let mut sum = 1.0;
    for n in 1..20 {
        term *= r / n as f64;
        sum += term;
    }
    // sum * 2^k with exact exponent arithmetic.
    let e = k + 1023;
    assert!((1..2047).contains(&e), "det_exp scale out of range: k={k}");
    sum * f64::from_bits((e as u64) << 52)
}

/// `base^exp` for `base > 0`, deterministic.
pub fn det_pow(base: f64, exp: f64) -> f64 {
    det_exp(exp * det_ln(base))
}

// ---- bounded Zipf ----------------------------------------------------------

/// A bounded Zipf(θ) sampler over ranks `0..n` (rank 0 is the hottest):
/// P(rank = k) ∝ 1/(k+1)^θ. Uses the Gray et al. closed-form inverse-CDF
/// approximation (exact for ranks 1 and 2, asymptotic for the tail — the
/// YCSB `ZipfianGenerator` construction), so sampling is O(1) after an
/// O(n) zeta precomputation at build time.
#[derive(Debug, Clone)]
pub struct Zipf {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipf {
    /// Zipf over `0..n` with skew `theta` in `(0, 1)`. YCSB's default skew
    /// is `0.99`; `theta -> 0` approaches uniform.
    pub fn new(n: u64, theta: f64) -> Zipf {
        assert!(n > 0, "Zipf domain must be non-empty");
        assert!(
            theta > 0.0 && theta < 1.0,
            "theta must be in (0,1), got {theta}"
        );
        let zetan = Self::zeta(n, theta);
        let zeta2 = Self::zeta(2.min(n), theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - det_pow(2.0 / n as f64, 1.0 - theta)) / (1.0 - zeta2 / zetan);
        Zipf {
            n,
            theta,
            alpha,
            zetan,
            eta,
        }
    }

    /// `zeta(m, θ) = Σ_{k=1..m} k^-θ` (the generalized harmonic number).
    pub fn zeta(m: u64, theta: f64) -> f64 {
        let mut sum = 0.0;
        for k in 1..=m {
            sum += det_pow(k as f64, -theta);
        }
        sum
    }

    /// The domain size `n`.
    pub fn domain(&self) -> u64 {
        self.n
    }

    /// Analytic CDF: probability that a sample's rank is `< m` (i.e. lands
    /// in the hottest `m` ranks). Used by the property tests to hold the
    /// empirical stream to the distribution it claims to implement.
    pub fn cdf(&self, m: u64) -> f64 {
        Self::zeta(m.min(self.n), self.theta) / self.zetan
    }

    /// Draw one rank in `0..n` (0 = hottest).
    pub fn sample(&self, rng: &mut SimRng) -> u64 {
        // 53 high bits -> uniform double in [0, 1), same as SimRng::chance.
        let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if self.n >= 2 && uz < 1.0 + det_pow(0.5, self.theta) {
            return 1;
        }
        let rank = (self.n as f64 * det_pow(self.eta * u - self.eta + 1.0, self.alpha)) as u64;
        rank.min(self.n - 1)
    }
}

/// Deterministic key scramble (Fibonacci multiply, then reduce): maps the
/// Zipf *rank* space onto the key space so hot keys are spread across the
/// tree instead of packed into the leftmost leaves — YCSB's scrambled-
/// zipfian, with a multiplicative hash instead of FNV.
pub fn scramble(rank: u64, domain: u64) -> u64 {
    rank.wrapping_mul(0x9E37_79B9_7F4A_7C15) % domain.max(1)
}

// ---- key streams -----------------------------------------------------------

/// Which keys the ops aim at.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Access {
    /// Uniform over the key space.
    Uniform,
    /// Bounded Zipf with skew θ, hot ranks scrambled across the space.
    Zipf(f64),
    /// Adversarial hot band: every op lands in a `width`-key window at
    /// the middle of the space, *unscrambled* — so inserts and deletes
    /// hammer one subtree with repeated splits and consolidations.
    HotBand {
        /// Window width in keys.
        width: u64,
    },
    /// Monotonically increasing appends past the preloaded range
    /// (rightmost-leaf contention; reads sample the appended prefix).
    Sequential,
}

/// Seeded key sampler over a given key space — the same shape at 1M keys
/// and at domain ~100 (oracle twin). The caller owns the [`SimRng`], so a
/// stream's draws interleave with the caller's own rolls.
#[derive(Debug)]
pub struct KeyStream {
    access: Access,
    key_space: u64,
    zipf: Option<Zipf>,
    next_seq: u64,
}

impl KeyStream {
    /// Build a sampler; `append_base` seeds the sequential cursor (the
    /// preloaded high-water mark, so appends extend the tree).
    pub fn new(access: Access, key_space: u64, append_base: u64) -> KeyStream {
        let zipf = match access {
            Access::Zipf(theta) => Some(Zipf::new(key_space, theta)),
            _ => None,
        };
        KeyStream {
            access,
            key_space,
            zipf,
            next_seq: append_base,
        }
    }

    /// Next target key.
    pub fn next(&mut self, rng: &mut SimRng) -> u64 {
        match self.access {
            Access::Uniform => rng.below(self.key_space),
            Access::Zipf(_) => {
                let rank = self
                    .zipf
                    .as_ref()
                    .expect("zipf access has a sampler")
                    .sample(rng);
                scramble(rank, self.key_space)
            }
            Access::HotBand { width } => {
                let w = width.min(self.key_space);
                let base = (self.key_space - w) / 2;
                base + rng.below(w.max(1))
            }
            Access::Sequential => {
                let k = self.next_seq;
                self.next_seq += 1;
                k
            }
        }
    }

    /// A key known to exist already (for reads in append scenarios):
    /// uniform over `[0, current sequential cursor)`, else [`Self::next`].
    pub fn next_existing(&mut self, rng: &mut SimRng) -> u64 {
        match self.access {
            Access::Sequential => rng.below(self.next_seq.max(1)),
            _ => self.next(rng),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pitree_sim::prop;

    /// `n` keys drawn from a fresh stream over `key_space` at `seed`.
    fn draw(access: Access, key_space: u64, seed: u64, n: usize) -> Vec<u64> {
        let mut keys = KeyStream::new(access, key_space, 0);
        let mut rng = SimRng::new(seed);
        (0..n).map(|_| keys.next(&mut rng)).collect()
    }

    #[test]
    fn workloads_are_reproducible() {
        assert_eq!(
            draw(Access::Uniform, 1000, 42, 50),
            draw(Access::Uniform, 1000, 42, 50)
        );
    }

    #[test]
    fn sequential_is_monotonic() {
        let ks = draw(Access::Sequential, u64::MAX, 0, 10);
        assert!(ks.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn skew_concentrates_mass() {
        // The keys the 1,000 hottest ranks scramble to carry ~60% of the
        // draws over 100k keys (zeta(1000)/zeta(100000) at θ = 0.99).
        let hot: std::collections::HashSet<u64> =
            (0..1_000).map(|r| scramble(r, 100_000)).collect();
        let keys = draw(Access::Zipf(0.99), 100_000, 7, 10_000);
        let hits = keys.iter().filter(|k| hot.contains(k)).count();
        assert!(hits > 5_000, "zipf hits on the hot keys: {hits}/10000");
    }

    #[test]
    fn keys_are_in_domain() {
        for access in [
            Access::Uniform,
            Access::Zipf(0.99),
            Access::HotBand { width: 64 },
        ] {
            assert!(draw(access, 500, 3, 1000).iter().all(|&k| k < 500));
        }
    }

    // ---- deterministic transcendentals ------------------------------------

    #[test]
    fn det_ln_and_exp_match_std_closely() {
        // Not bit-identical to libm (that's the point — ours is pinned),
        // but must agree to ~1e-12 relative everywhere we use them.
        for &x in &[1e-6, 0.1, 0.5, 1.0, 1.5, 2.0, 10.0, 1e6, 123456.789] {
            let rel = (det_ln(x) - x.ln()).abs() / x.ln().abs().max(1e-300);
            assert!(rel < 1e-12, "det_ln({x}) off by {rel}");
        }
        for &x in &[-50.0, -1.0, -1e-9, 0.0, 1e-9, 0.5, 1.0, 30.0, 600.0] {
            let rel = (det_exp(x) - x.exp()).abs() / x.exp();
            assert!(rel < 1e-12, "det_exp({x}) off by {rel}");
        }
        let p = det_pow(7.3, -0.99);
        let rel = (p - 7.3f64.powf(-0.99)).abs() / p;
        assert!(rel < 1e-12, "det_pow off by {rel}");
    }

    // ---- Zipf property tests (sim-runner, replayable seeds) ----------------

    #[test]
    fn zipf_domain_containment() {
        prop::run_cases("zipf_domain_containment", 16, |rng| {
            let n = rng.range(1..5_000);
            let theta = 0.2 + 0.79 * (rng.below(100) as f64 / 100.0);
            let z = Zipf::new(n, theta);
            for _ in 0..2_000 {
                assert!(z.sample(rng) < n, "sample escaped [0, {n})");
            }
        });
    }

    #[test]
    fn zipf_mass_concentration_tracks_analytic_cdf() {
        prop::run_cases("zipf_mass_concentration", 8, |rng| {
            let n = 10_000u64;
            let theta = 0.99;
            let z = Zipf::new(n, theta);
            let samples = 40_000usize;
            // Empirical CDF at several prefixes must sit within ±2.5
            // percentage points of zeta(m)/zeta(n) — generous vs. the
            // ~0.5pp sampling noise at 40k draws, tight vs. the old 80/20
            // approximation (off by tens of points at the head).
            for &m in &[1u64, 10, 100, 1_000, 5_000] {
                let want = z.cdf(m);
                let hits = (0..samples).filter(|_| z.sample(rng) < m).count();
                let got = hits as f64 / samples as f64;
                assert!(
                    (got - want).abs() < 0.025,
                    "cdf({m}) empirical {got:.4} vs analytic {want:.4} (n={n}, theta={theta})"
                );
            }
        });
    }

    #[test]
    fn zipf_hottest_rank_dominates() {
        // At theta=0.99 over 10k ranks, rank 0 alone must carry ~10% of
        // the mass (1/zeta(10k, .99) ≈ 0.103) — the "hot key" the
        // scenario harness leans on.
        let z = Zipf::new(10_000, 0.99);
        let mut rng = SimRng::new(0x21bf);
        let hits = (0..20_000).filter(|_| z.sample(&mut rng) == 0).count();
        let frac = hits as f64 / 20_000.0;
        assert!(
            (frac - z.cdf(1)).abs() < 0.02,
            "rank-0 mass {frac:.3} vs analytic {:.3}",
            z.cdf(1)
        );
        assert!(frac > 0.05, "rank 0 is not hot: {frac:.3}");
    }

    #[test]
    fn zipf_streams_are_byte_identical_for_equal_seeds() {
        prop::run_cases("zipf_equal_seed_streams", 8, |rng| {
            let seed = rng.next_u64();
            let n = rng.range(10..100_000);
            let a = Zipf::new(n, 0.99);
            let b = Zipf::new(n, 0.99);
            let mut ra = SimRng::new(seed);
            let mut rb = SimRng::new(seed);
            let xs: Vec<u64> = (0..512).map(|_| a.sample(&mut ra)).collect();
            let ys: Vec<u64> = (0..512).map(|_| b.sample(&mut rb)).collect();
            assert_eq!(xs, ys, "equal seeds must give identical streams");
            // And the big-endian byte encoding the trees sort by is
            // identical too (the replayable-workload contract).
            let ab: Vec<u8> = xs.iter().flat_map(|k| k.to_be_bytes()).collect();
            let bb: Vec<u8> = ys.iter().flat_map(|k| k.to_be_bytes()).collect();
            assert_eq!(ab, bb);
        });
    }

    #[test]
    fn zipfian_workload_stream_is_reproducible() {
        let xs = draw(Access::Zipf(0.99), 100_000, 0x5eed, 256);
        assert_eq!(xs, draw(Access::Zipf(0.99), 100_000, 0x5eed, 256));
    }

    #[test]
    fn scramble_stays_in_domain_and_spreads() {
        let d = 1_000u64;
        let mapped: Vec<u64> = (0..100).map(|r| scramble(r, d)).collect();
        assert!(mapped.iter().all(|&k| k < d));
        // The 100 hottest ranks must not collapse into one corner of the
        // key space (that would re-create the packed-leftmost-leaf bias).
        let in_first_tenth = mapped.iter().filter(|&&k| k < d / 10).count();
        assert!(
            in_first_tenth < 30,
            "scramble clusters: {in_first_tenth}/100"
        );
    }
}
