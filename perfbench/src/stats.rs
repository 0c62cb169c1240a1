//! Order statistics and process probes shared by every workload.

/// Nearest-rank quantile of an unsorted sample (`q` in `[0, 1]`); 0 when
/// empty. Nearest rank never interpolates, so a reported p99 is a latency
/// some request actually saw.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The median as the mean of the two middle values of an even count, so it
/// does not lean low when a faster run adds one more value.
pub fn midpoint_median(samples: &[f64]) -> f64 {
    let n = samples.len();
    if n % 2 == 1 || n == 0 {
        return median(samples);
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Resident set size of this process in MiB (`VmRSS` of
/// `/proc/self/status`); 0 where the file does not exist.
pub fn rss_mib() -> f64 {
    status_mib("VmRSS:")
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    status_mib("VmHWM:")
}

fn status_mib(key: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .unwrap_or_default()
        .lines()
        .find(|l| l.starts_with(key))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Run `f` repeatedly until `budget` has passed (at least `min_reps`
/// times) and return the per-call durations in microseconds.
pub fn time_calls(budget: std::time::Duration, min_reps: usize, mut f: impl FnMut()) -> Vec<f64> {
    let started = std::time::Instant::now();
    let mut samples = Vec::new();
    while samples.len() < min_reps || started.elapsed() < budget {
        let t0 = std::time::Instant::now();
        f();
        samples.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    samples
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.5), 50.0);
        assert_eq!(quantile(&xs, 0.99), 99.0);
        assert_eq!(quantile(&xs, 1.0), 100.0);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn midpoint_median_averages_an_even_middle() {
        assert_eq!(midpoint_median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(midpoint_median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(midpoint_median(&[]), 0.0);
    }
}
