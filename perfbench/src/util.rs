//! Small shared pieces: the seeded input generator, order statistics,
//! resident-memory probes and the host record.

use std::time::Instant;

/// Worker threads every multi-threaded workload runs.
pub const THREADS: usize = 2;

/// SplitMix64: the seeded generator behind every generated input.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, decorrelated per `stream` (thread, phase, ...).
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Exponential with the given mean, in whole ticks (at least 1).
    pub fn exp_ticks(&mut self, mean: f64) -> u64 {
        let u = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        (-mean * (1.0 - u).ln()).max(1.0) as u64
    }
}

/// Median of `v` (0 when empty); sorts in place.
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Reads a `kB` field of `/proc/self/status` (0 where unavailable).
fn status_kb(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// Peak resident-memory growth over a baseline taken at construction.
///
/// The process high-water mark counts only if it rose after the baseline
/// (an older peak says nothing about the measured phase); RSS samples
/// taken while workers run cover the rest.
pub struct MemProbe {
    base_rss: u64,
    base_hwm: u64,
    peak: u64,
}

impl MemProbe {
    pub fn start() -> Self {
        let rss = status_kb("VmRSS:");
        MemProbe {
            base_rss: rss,
            base_hwm: status_kb("VmHWM:"),
            peak: rss,
        }
    }

    /// Records the current RSS.
    pub fn sample(&mut self) {
        self.peak = self.peak.max(status_kb("VmRSS:"));
    }

    /// Growth in MB (10^6 bytes) up to now.
    pub fn growth_mb(&mut self) -> f64 {
        self.sample();
        let hwm = status_kb("VmHWM:");
        if hwm > self.base_hwm {
            self.peak = self.peak.max(hwm);
        }
        self.peak.saturating_sub(self.base_rss) as f64 * 1024.0 / 1e6
    }
}

/// Where and on what a results document was measured.
pub struct Host {
    pub cores: usize,
    pub cpu: String,
    pub commit: String,
    pub oversubscribed: bool,
}

impl Host {
    pub fn probe() -> Self {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Host {
            cores,
            cpu,
            commit: git_head().unwrap_or_else(|| "unknown".into()),
            oversubscribed: THREADS > cores,
        }
    }
}

/// The commit checked out in the current directory, read from `.git`
/// without running git (the benchmark may run from a plain export).
fn git_head() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{r}")) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(r))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_string)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_seeded_and_in_range() {
        let draw = || {
            let mut r = Rng::new(7, 1);
            (0..5).map(|_| r.below(10)).collect::<Vec<_>>()
        };
        let a = draw();
        assert_eq!(a, draw());
        assert!(a.iter().all(|&x| x < 10));
        let mut r = Rng::new(7, 2);
        let mean = (0..100_000)
            .map(|_| r.exp_ticks(1000.0) as f64)
            .sum::<f64>()
            / 1e5;
        assert!((950.0..1050.0).contains(&mean), "mean {mean}");
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
    }
}
