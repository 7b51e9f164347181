//! End-to-end and per-layer benchmark of the xbar serve daemon, capacity
//! planner and simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-sync0 --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Workloads: `serve-sync0`, `serve-sync1` ([`serve`]), `plan-exhaustive`
//! ([`plan`]) and `sim-ci` ([`sim`]). With `--trace 0` a run reports the
//! end-to-end metrics; with `--trace 1` it reports the per-layer metrics
//! of [`probes::LAYER_METRICS`]. Human-readable lines come first; the last
//! line of standard output is the JSON result. Correctness gates that
//! fail make the run exit non-zero with no numbers.

pub mod gen;
pub mod plan;
pub mod probes;
pub mod report;
pub mod serve;
pub mod sim;
pub mod stats;
pub mod sys;

use std::time::Instant;

/// What one invocation was asked to do.
#[derive(Clone, Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Threads the benchmark grants the program: at most two, at most the
/// host's processors.
pub fn threads() -> usize {
    sys::nproc().clamp(1, 2)
}

/// Seconds taken by `f`, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Call `f` on every item, timing consecutive groups of `batch` calls;
/// returns nanoseconds per call for each group. Grouping keeps the clock
/// read's own cost out of sub-microsecond calls.
pub fn per_call_ns<T>(items: &[T], batch: usize, mut f: impl FnMut(&T)) -> Vec<f64> {
    items
        .chunks(batch)
        .map(|group| {
            let t0 = Instant::now();
            for item in group {
                f(item);
            }
            t0.elapsed().as_nanos() as f64 / group.len() as f64
        })
        .collect()
}

/// Time `reps` calls of `f`, returning nanoseconds per call.
pub fn repeat_ns(reps: usize, mut f: impl FnMut()) -> Vec<f64> {
    (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_nanos() as f64
        })
        .collect()
}

/// Derive the `i`-th independent seed from a run seed.
pub fn subseed(seed: u64, i: u64) -> u64 {
    let mut rng = gen::Rng::new(seed ^ i.wrapping_mul(0xA24B_AED4_963E_E407));
    rng.next_u64()
}
