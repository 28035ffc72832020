//! Sample statistics and the benchmark's output lines.

use std::time::Duration;

/// One reported metric: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// A duration in milliseconds.
pub fn ms(duration: Duration) -> f64 {
    duration.as_secs_f64() * 1e3
}

/// The `q`-quantile, interpolating linearly between order statistics; 0 when
/// there are no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (low, high) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[low] + (sorted[high] - sorted[low]) * (rank - low as f64)
}

/// The median; 0 when there are no samples.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The mean; 0 when there are no samples.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `part / whole`; 0 when `whole` is 0.
pub fn ratio(part: usize, whole: usize) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Peak resident memory of this process (`VmHWM` of its status file), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|kb| kb.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One aligned line per metric.
pub fn print_table(metrics: &[Metric]) {
    for (name, value, unit) in metrics {
        println!("{name:<36} {value:>16.6} {unit}");
    }
}

/// The line a run ends with: one JSON object.
pub fn print_result(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) {
    let entries: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        entries.join(", ")
    );
}
