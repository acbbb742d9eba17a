//! Order statistics, process memory and the host descriptor.

/// Median of `v` (mean of the two middle values for an even count); 0 for
/// an empty slice.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

pub fn min_max(v: &[f64]) -> (f64, f64) {
    v.iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
            (lo.min(x), hi.max(x))
        })
}

/// Sorted latency samples with nearest-rank percentiles.
pub struct Samples(Vec<u64>);

impl Samples {
    pub fn new(mut v: Vec<u64>) -> Self {
        v.sort_unstable();
        Samples(v)
    }

    pub fn count(&self) -> usize {
        self.0.len()
    }

    /// Value at quantile `q`: the smallest sample with at least `q` of the
    /// samples at or below it. 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.0.is_empty() {
            return 0;
        }
        let rank = ((q * self.0.len() as f64).ceil() as usize).clamp(1, self.0.len());
        self.0[rank - 1]
    }

    /// Samples strictly beyond the `q` quantile's rank: a percentile is
    /// reported only with at least ten samples beyond it.
    pub fn beyond(&self, q: f64) -> usize {
        self.0.len() - ((q * self.0.len() as f64).ceil() as usize).min(self.0.len())
    }
}

/// Peak resident set of this process in MB (`VmHWM`); 0 where
/// `/proc/self/status` is not available.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What the numbers were measured on, as one JSON object. `run.sh` passes
/// the compiler version and the git revision in the environment.
pub fn host_descriptor() -> String {
    let env = |k: &str| {
        std::env::var(k)
            .unwrap_or_else(|_| "unknown".into())
            .replace('"', "'")
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    format!(
        "{{\"nproc\":{nproc},\"cpu\":\"{}\",\"rustc\":\"{}\",\"git_rev\":\"{}\"}}",
        cpu.replace('"', "'"),
        env("BENCH_RUSTC"),
        env("BENCH_GIT_REV"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let s = Samples::new((1..=100).collect());
        assert_eq!(s.quantile(0.50), 50);
        assert_eq!(s.quantile(0.99), 99);
        assert_eq!(s.beyond(0.99), 1);
        assert_eq!(Samples::new(vec![]).quantile(0.5), 0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
