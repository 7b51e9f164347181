//! Order statistics for the benchmark's reports.
//!
//! Timings are reported as a median plus the highest percentile that has
//! at least [`TAIL_MIN_BEYOND`] samples beyond it, named by what it really
//! is: `p99` needs 1000 samples, so a run with 400 samples reports `p90`
//! instead of a `p99` that would just be its maximum.

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Tail percentiles tried from the highest down, with their names.
const TAIL_LADDER: [(f64, &str); 4] = [(0.999, "p999"), (0.99, "p99"), (0.9, "p90"), (0.5, "p50")];

/// Median of `xs` (mean of the two middle values for an even count).
/// `None` when `xs` is empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let s = sorted(xs);
    let n = s.len();
    Some(if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    })
}

/// Arithmetic mean of `xs`; `None` when `xs` is empty. End-to-end run
/// figures use it where a run's samples drift between host speed modes:
/// the mean moves in proportion to the time spent in each mode, where the
/// median jumps from one mode to the other.
pub fn mean(xs: &[f64]) -> Option<f64> {
    (!xs.is_empty()).then(|| xs.iter().sum::<f64>() / xs.len() as f64)
}

/// Nearest-rank percentile `q ∈ (0, 1]` of `xs`: the smallest sample with
/// at least `q·n` samples at or below it. `None` when `xs` is empty.
pub fn percentile(xs: &[f64], q: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let s = sorted(xs);
    Some(s[rank(s.len(), q)])
}

/// Samples needed before percentile `q` has `TAIL_MIN_BEYOND` beyond it.
pub fn samples_needed(q: f64) -> usize {
    (TAIL_MIN_BEYOND as f64 / (1.0 - q)).round() as usize
}

/// The highest ladder percentile (p999, p99, p90, p50) that has at least
/// [`TAIL_MIN_BEYOND`] samples beyond it, as `(name, value)`. `None`
/// when even the median lacks that support (fewer than 20 samples).
pub fn honest_tail(xs: &[f64]) -> Option<(&'static str, f64)> {
    let (q, name) = TAIL_LADDER
        .iter()
        .copied()
        .find(|&(q, _)| xs.len() >= samples_needed(q))?;
    percentile(xs, q).map(|v| (name, v))
}

/// Failures over attempts; 0 when nothing was attempted.
pub fn error_rate(failed: u64, attempted: u64) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

/// A timing distribution, summarised for a report line.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// The honest tail percentile, when the sample supports one.
    pub tail: Option<(&'static str, f64)>,
}

impl Summary {
    /// Summarise `xs`; `None` when empty.
    pub fn of(xs: &[f64]) -> Option<Summary> {
        Some(Summary {
            n: xs.len(),
            p50: median(xs)?,
            tail: honest_tail(xs),
        })
    }

    /// `p50=… p99=… (n=…)`, values printed with `digits` decimals; a tail
    /// that is itself only the median is not repeated.
    pub fn describe(&self, digits: usize) -> String {
        match self.tail {
            Some((name, v)) if name != "p50" => format!(
                "p50={:.digits$} {name}={:.digits$} (n={})",
                self.p50, v, self.n
            ),
            _ => format!("p50={:.digits$} (n={}, no tail)", self.p50, self.n),
        }
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}
