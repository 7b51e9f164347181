//! Batched, deterministic multi-replication simulation engine.
//!
//! Every statistical claim in this repo bottoms out in one of three
//! simulators (the [`replay`](crate::replay) admission driver, the
//! [`CrossbarSim`] recorder, the [`RetrialSim`] retrial queue). A single
//! long run buys precision slowly — batch means over one autocorrelated
//! path — and serially. This harness instead fans **N independent
//! replications** over the persistent worker pool
//! ([`xbar_core::parallel::run_scoped`], the PR 7 pool) and merges their
//! statistics with a single-pass reducer.
//!
//! # Determinism
//!
//! Replication `i` runs on the RNG stream derived from
//! `(master_seed, i)` via [`SplitMix64::stream_seed`] — a pure function
//! of the pair, never of thread identity, worker count, or scheduling
//! order. Results land in index-ordered slots and the reducer folds them
//! serially on the calling thread, so the merged report is **bitwise
//! identical for any `XBAR_THREADS`** (pinned by a proptest and a CI
//! smoke that diffs t1 vs t4 CLI output). Inside a pool worker each
//! replication pins its nested parallelism to one thread
//! ([`parallel::with_threads`]) — solver results are bit-identical across
//! thread counts anyway (the PR 2/7 equivalence batteries), this just
//! avoids oversubscribing the pool.
//!
//! # Adaptive stopping
//!
//! The `*_until_ci` variants ([`run_until_ci`], [`run_sim_until_ci`],
//! [`run_retrial_until_ci`]) grow the replication count in fixed rounds
//! until the merged interval's half-width reaches a target (or a cap),
//! so tests stop spending events past the precision they assert. Round
//! sizes are fixed and replication `i` is the same replication in every
//! schedule, so adaptive runs are exactly as deterministic as fixed ones.
//!
//! # Observability
//!
//! Workers re-install the caller's scoped obs registry
//! ([`xbar_obs::current_scope`]), so per-event counters from inside the
//! replications (`sim.events`, `replay.events`, the admission ledger)
//! land in the caller's scope exactly as a serial run's would. The
//! harness itself adds `sim.rep.runs` / `sim.rep.replications` /
//! `sim.rep.rounds` / `sim.rep.events` on the calling thread after the
//! merge.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use rand::rngs::SplitMix64;
use xbar_admission::AdmissionError;
use xbar_core::{parallel, Model};

use crate::crossbar::{CrossbarSim, RunConfig, SimConfig, SimError, SimReport};
use crate::replay::{replay, ReplayConfig, ReplayReport};
use crate::retrial::{RetrialConfig, RetrialReport, RetrialSim};
use crate::stats::{BatchMeans, Confidence, Estimate};

/// One unit of harness work: its index in the replication sequence and
/// the RNG seed derived for it.
#[derive(Clone, Copy, Debug)]
pub struct Replication {
    /// Position in the replication sequence (stable across schedules).
    pub index: u64,
    /// `SplitMix64::stream_seed(master_seed, index)` — the seed the
    /// replication's own generator is built from.
    pub seed: u64,
}

/// Harness parameters shared by all three simulator front-ends.
#[derive(Clone, Copy, Debug)]
pub struct RepConfig {
    /// Independent replications to run.
    pub replications: u64,
    /// Master seed the per-replication streams derive from.
    pub master_seed: u64,
    /// Confidence level of the merged across-replication intervals.
    pub confidence: Confidence,
}

impl Default for RepConfig {
    fn default() -> Self {
        RepConfig {
            replications: 8,
            master_seed: 1,
            confidence: Confidence::P99,
        }
    }
}

/// Adaptive-stopping policy for the `*_until_ci` variants.
#[derive(Clone, Copy, Debug)]
pub struct CiTarget {
    /// Stop once the merged interval's half-width is at or below this.
    pub half_width: f64,
    /// Replications in the first round (≥ 2 so an interval exists).
    pub initial: u64,
    /// Replications added per subsequent round.
    pub step: u64,
    /// Hard cap on total replications (the run stops here even if the
    /// target was not reached — callers can check the returned width).
    pub max: u64,
}

impl CiTarget {
    /// Target `half_width` with the default schedule (4 initial, +2 per
    /// round, capped at 64).
    pub fn new(half_width: f64) -> Self {
        CiTarget {
            half_width,
            initial: 4,
            step: 2,
            max: 64,
        }
    }
}

/// Run `job` once per replication in `[0, replications)` and return the
/// results in index order. See the module docs for the determinism
/// argument.
pub fn replicate<T, F>(replications: u64, master_seed: u64, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(Replication) -> T + Sync,
{
    replicate_range(0, replications, master_seed, job)
}

/// [`replicate`] over indices `[start, start + count)` — the building
/// block adaptive rounds use so round `n + 1` extends (never re-runs)
/// round `n`'s replication sequence.
pub fn replicate_range<T, F>(start: u64, count: u64, master_seed: u64, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(Replication) -> T + Sync,
{
    let n = count as usize;
    if n == 0 {
        return Vec::new();
    }
    let run_one = |i: usize| {
        let index = start + i as u64;
        job(Replication {
            index,
            seed: SplitMix64::stream_seed(master_seed, index),
        })
    };
    let threads = parallel::effective_threads().min(n);
    if threads <= 1 {
        return (0..n).map(run_one).collect();
    }
    // Index-ordered slots: whichever worker runs replication i, its
    // result lands in slot i, and the caller folds the slots serially.
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let scope = xbar_obs::current_scope();
    parallel::run_scoped(threads, |_worker| {
        let _obs = scope.enter();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            let out = parallel::with_threads(1, || run_one(i));
            if let Ok(mut slot) = slots[i].lock() {
                *slot = Some(out);
            }
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .ok()
                .flatten()
                .expect("replication slot filled by the pool")
        })
        .collect()
}

fn record_harness_obs(replications: u64, rounds: u64, events: u64) {
    if xbar_obs::enabled() {
        xbar_obs::inc("sim.rep.runs");
        xbar_obs::add("sim.rep.replications", replications);
        xbar_obs::add("sim.rep.rounds", rounds);
        xbar_obs::add("sim.rep.events", events);
    }
}

/// Across-replication estimate of a per-replication statistic: each
/// replication contributes its point estimate as one "batch", merged with
/// the same Student-t machinery the in-run batch means use.
fn across(values: Vec<f64>, confidence: Confidence) -> Estimate {
    BatchMeans::from_batches(values).estimate_at(confidence)
}

/// [`across`] for a ratio only some replications observed: with fewer
/// than two samples no interval exists, so the half-width is infinite and
/// an adaptive run keeps adding replications instead of stopping on it.
fn across_offered(values: Vec<f64>, confidence: Confidence) -> Estimate {
    let n = values.len();
    let mut est = across(values, confidence);
    if n < 2 {
        est.half_width = f64::INFINITY;
    }
    est
}

// ---------------------------------------------------------------------------
// Replay (admission engine)
// ---------------------------------------------------------------------------

/// Merged per-class replay outcome.
#[derive(Clone, Debug)]
pub struct MergedClassReplay {
    /// Arrivals offered across all replications.
    pub offered: u64,
    /// Arrivals admitted across all replications.
    pub admitted: u64,
    /// Capacity denials across all replications.
    pub denied_capacity: u64,
    /// Policy denials across all replications.
    pub denied_policy: u64,
    /// Across-replication estimate of the admitted fraction.
    pub acceptance: Estimate,
    /// The anchor's analytic call acceptance (identical in every
    /// replication — same model, same anchor).
    pub analytic_acceptance: f64,
}

/// Merged outcome of a replay replication run.
#[derive(Clone, Debug)]
pub struct ReplayReplications {
    /// Replications actually run.
    pub replications: u64,
    /// Adaptive rounds taken (1 for fixed-count runs).
    pub rounds: u64,
    /// Events across all replications.
    pub events: u64,
    /// Arrivals across all replications.
    pub arrivals: u64,
    /// Departures across all replications.
    pub departures: u64,
    /// Per-class merged decision splits and acceptance estimates.
    pub classes: Vec<MergedClassReplay>,
    /// The individual replication reports, in replication order.
    pub per_rep: Vec<ReplayReport>,
}

/// Single-pass reducer over replay replication reports.
fn merge_replay(
    per_rep: Vec<ReplayReport>,
    rounds: u64,
    confidence: Confidence,
) -> ReplayReplications {
    let r_count = per_rep.first().map(|r| r.classes.len()).unwrap_or(0);
    let mut events = 0u64;
    let mut arrivals = 0u64;
    let mut departures = 0u64;
    let mut counts = vec![(0u64, 0u64, 0u64, 0u64); r_count];
    let mut acceptance: Vec<Vec<f64>> = vec![Vec::with_capacity(per_rep.len()); r_count];
    for rep in &per_rep {
        events += rep.events;
        arrivals += rep.arrivals;
        departures += rep.departures;
        for (r, c) in rep.classes.iter().enumerate() {
            counts[r].0 += c.offered;
            counts[r].1 += c.admitted;
            counts[r].2 += c.denied_capacity;
            counts[r].3 += c.denied_policy;
            acceptance[r].push(c.acceptance.mean);
        }
    }
    let classes = counts
        .into_iter()
        .zip(acceptance)
        .enumerate()
        .map(
            |(r, ((offered, admitted, denied_capacity, denied_policy), acc))| MergedClassReplay {
                offered,
                admitted,
                denied_capacity,
                denied_policy,
                acceptance: across(acc, confidence),
                analytic_acceptance: per_rep
                    .first()
                    .map(|rep| rep.classes[r].analytic_acceptance)
                    .unwrap_or(f64::NAN),
            },
        )
        .collect();
    ReplayReplications {
        replications: per_rep.len() as u64,
        rounds,
        events,
        arrivals,
        departures,
        classes,
        per_rep,
    }
}

/// Fan `rep.replications` independent [`replay`] runs of `cfg` over the
/// worker pool and merge their statistics. Replication `i` replays
/// `cfg` with its seed replaced by stream `i` of `rep.master_seed`.
pub fn run_replications(
    model: &Model,
    cfg: &ReplayConfig,
    rep: &RepConfig,
) -> Result<ReplayReplications, AdmissionError> {
    let per_rep = collect_replay(model, cfg, 0, rep.replications, rep.master_seed)?;
    let merged = merge_replay(per_rep, 1, rep.confidence);
    record_harness_obs(merged.replications, 1, merged.events);
    Ok(merged)
}

fn collect_replay(
    model: &Model,
    cfg: &ReplayConfig,
    start: u64,
    count: u64,
    master_seed: u64,
) -> Result<Vec<ReplayReport>, AdmissionError> {
    let results = replicate_range(start, count, master_seed, |r: Replication| {
        let mut rep_cfg = cfg.clone();
        rep_cfg.seed = r.seed;
        replay(model, &rep_cfg)
    });
    // Propagate the first error in replication order (deterministic).
    results.into_iter().collect()
}

/// Adaptive-stopping [`run_replications`]: grow the replication count by
/// `target.step` per round until every class's merged acceptance interval
/// has half-width ≤ `target.half_width` (or `target.max` replications).
pub fn run_until_ci(
    model: &Model,
    cfg: &ReplayConfig,
    rep: &RepConfig,
    target: CiTarget,
) -> Result<ReplayReplications, AdmissionError> {
    let mut per_rep: Vec<ReplayReport> = Vec::new();
    let mut rounds = 0u64;
    loop {
        let want = if rounds == 0 {
            target.initial.max(2).min(target.max)
        } else {
            target.step.min(target.max - per_rep.len() as u64)
        };
        per_rep.extend(collect_replay(
            model,
            cfg,
            per_rep.len() as u64,
            want,
            rep.master_seed,
        )?);
        rounds += 1;
        let merged = merge_replay(per_rep, rounds, rep.confidence);
        let width = merged
            .classes
            .iter()
            .map(|c| c.acceptance.half_width)
            .fold(0.0f64, f64::max);
        if width <= target.half_width || merged.replications >= target.max {
            record_harness_obs(merged.replications, rounds, merged.events);
            return Ok(merged);
        }
        per_rep = merged.per_rep;
    }
}

// ---------------------------------------------------------------------------
// CrossbarSim
// ---------------------------------------------------------------------------

/// Merged per-class crossbar outcome.
#[derive(Clone, Debug)]
pub struct MergedClassSim {
    /// Requests offered across all replications.
    pub offered: u64,
    /// Requests accepted across all replications.
    pub accepted: u64,
    /// Requests blocked across all replications.
    pub blocked: u64,
    /// Fault-blocked requests across all replications.
    pub fault_blocked: u64,
    /// Across-replication estimate of the call blocking ratio.
    pub blocking: Estimate,
    /// Across-replication estimate of the tuple availability.
    pub availability: Estimate,
    /// Across-replication estimate of the mean concurrency.
    pub concurrency: Estimate,
}

/// Merged outcome of a crossbar replication run.
#[derive(Clone, Debug)]
pub struct SimReplications {
    /// Replications actually run.
    pub replications: u64,
    /// Adaptive rounds taken (1 for fixed-count runs).
    pub rounds: u64,
    /// Events across all replications (measurement windows only).
    pub events: u64,
    /// Per-class merged reports.
    pub classes: Vec<MergedClassSim>,
    /// Across-replication estimate of the revenue rate.
    pub revenue: Estimate,
    /// The individual replication reports, in replication order.
    pub per_rep: Vec<SimReport>,
}

/// Single-pass reducer over crossbar replication reports.
fn merge_sim(per_rep: Vec<SimReport>, rounds: u64, confidence: Confidence) -> SimReplications {
    let r_count = per_rep.first().map(|r| r.classes.len()).unwrap_or(0);
    let mut events = 0u64;
    let mut counts = vec![(0u64, 0u64, 0u64, 0u64); r_count];
    let mut blocking: Vec<Vec<f64>> = vec![Vec::with_capacity(per_rep.len()); r_count];
    let mut availability: Vec<Vec<f64>> = vec![Vec::with_capacity(per_rep.len()); r_count];
    let mut concurrency: Vec<Vec<f64>> = vec![Vec::with_capacity(per_rep.len()); r_count];
    let mut revenue = Vec::with_capacity(per_rep.len());
    for rep in &per_rep {
        events += rep.events;
        revenue.push(rep.revenue);
        for (r, c) in rep.classes.iter().enumerate() {
            counts[r].0 += c.offered;
            counts[r].1 += c.accepted;
            counts[r].2 += c.blocked;
            counts[r].3 += c.fault_blocked;
            // A replication that never offered the class has no blocking
            // ratio to contribute (its report carries a placeholder 0).
            if c.offered > 0 {
                blocking[r].push(c.blocking.mean);
            }
            availability[r].push(c.availability.mean);
            concurrency[r].push(c.concurrency.mean);
        }
    }
    let classes = (0..r_count)
        .map(|r| MergedClassSim {
            offered: counts[r].0,
            accepted: counts[r].1,
            blocked: counts[r].2,
            fault_blocked: counts[r].3,
            blocking: across_offered(std::mem::take(&mut blocking[r]), confidence),
            availability: across(std::mem::take(&mut availability[r]), confidence),
            concurrency: across(std::mem::take(&mut concurrency[r]), confidence),
        })
        .collect();
    SimReplications {
        replications: per_rep.len() as u64,
        rounds,
        events,
        classes,
        revenue: across(revenue, confidence),
        per_rep,
    }
}

fn collect_sim(
    cfg: &SimConfig,
    run: &RunConfig,
    start: u64,
    count: u64,
    master_seed: u64,
) -> Result<Vec<SimReport>, SimError> {
    // Validate once up front so workers can't trip the panicking path.
    CrossbarSim::try_new(cfg.clone(), 0)?;
    Ok(replicate_range(
        start,
        count,
        master_seed,
        |r: Replication| {
            let mut sim = CrossbarSim::new(cfg.clone(), r.seed);
            sim.run(*run)
        },
    ))
}

/// Fan `rep.replications` independent [`CrossbarSim`] runs over the
/// worker pool and merge their statistics.
pub fn run_sim_replications(
    cfg: &SimConfig,
    run: &RunConfig,
    rep: &RepConfig,
) -> Result<SimReplications, SimError> {
    let per_rep = collect_sim(cfg, run, 0, rep.replications, rep.master_seed)?;
    let merged = merge_sim(per_rep, 1, rep.confidence);
    record_harness_obs(merged.replications, 1, merged.events);
    Ok(merged)
}

/// Adaptive-stopping [`run_sim_replications`]: rounds grow until every
/// class's merged *blocking* interval has half-width ≤
/// `target.half_width` (or `target.max` replications).
pub fn run_sim_until_ci(
    cfg: &SimConfig,
    run: &RunConfig,
    rep: &RepConfig,
    target: CiTarget,
) -> Result<SimReplications, SimError> {
    let mut per_rep: Vec<SimReport> = Vec::new();
    let mut rounds = 0u64;
    loop {
        let want = if rounds == 0 {
            target.initial.max(2).min(target.max)
        } else {
            target.step.min(target.max - per_rep.len() as u64)
        };
        per_rep.extend(collect_sim(
            cfg,
            run,
            per_rep.len() as u64,
            want,
            rep.master_seed,
        )?);
        rounds += 1;
        let merged = merge_sim(per_rep, rounds, rep.confidence);
        let width = merged
            .classes
            .iter()
            .map(|c| c.blocking.half_width)
            .fold(0.0f64, f64::max);
        if width <= target.half_width || merged.replications >= target.max {
            record_harness_obs(merged.replications, rounds, merged.events);
            return Ok(merged);
        }
        per_rep = merged.per_rep;
    }
}

// ---------------------------------------------------------------------------
// RetrialSim
// ---------------------------------------------------------------------------

/// Merged outcome of a retrial replication run.
#[derive(Clone, Debug)]
pub struct RetrialReplications {
    /// Replications actually run.
    pub replications: u64,
    /// Adaptive rounds taken (1 for fixed-count runs).
    pub rounds: u64,
    /// Measured calls across all replications.
    pub calls: u64,
    /// Carried calls across all replications.
    pub carried: u64,
    /// Lost calls across all replications.
    pub lost: u64,
    /// Calls still in back-off at their run's end, across replications.
    pub pending: u64,
    /// Attempts across all replications.
    pub attempts: u64,
    /// Blocked attempts across all replications.
    pub blocked_attempts: u64,
    /// Retries scheduled across all replications.
    pub retries: u64,
    /// Across-replication estimate of the final loss probability.
    pub loss: Estimate,
    /// Across-replication estimate of the per-attempt blocking.
    pub attempt_blocking: Estimate,
    /// The individual replication reports, in replication order.
    pub per_rep: Vec<RetrialReport>,
}

/// Single-pass reducer over retrial replication reports.
fn merge_retrial(
    per_rep: Vec<RetrialReport>,
    rounds: u64,
    confidence: Confidence,
) -> RetrialReplications {
    let mut sums = (0u64, 0u64, 0u64, 0u64, 0u64, 0u64, 0u64);
    let mut loss = Vec::with_capacity(per_rep.len());
    let mut attempt_blocking = Vec::with_capacity(per_rep.len());
    for rep in &per_rep {
        sums.0 += rep.calls;
        sums.1 += rep.carried;
        sums.2 += rep.lost;
        sums.3 += rep.pending;
        sums.4 += rep.attempts;
        sums.5 += rep.blocked_attempts;
        sums.6 += rep.retries;
        loss.push(rep.loss.mean);
        attempt_blocking.push(rep.attempt_blocking.mean);
    }
    RetrialReplications {
        replications: per_rep.len() as u64,
        rounds,
        calls: sums.0,
        carried: sums.1,
        lost: sums.2,
        pending: sums.3,
        attempts: sums.4,
        blocked_attempts: sums.5,
        retries: sums.6,
        loss: across(loss, confidence),
        attempt_blocking: across(attempt_blocking, confidence),
        per_rep,
    }
}

fn collect_retrial(
    cfg: &RetrialConfig,
    run: &RunConfig,
    start: u64,
    count: u64,
    master_seed: u64,
) -> Vec<RetrialReport> {
    replicate_range(start, count, master_seed, |r: Replication| {
        RetrialSim::new(cfg.clone(), r.seed).run(run.warmup, run.duration, run.batches)
    })
}

/// Fan `rep.replications` independent [`RetrialSim`] runs over the worker
/// pool and merge their statistics.
pub fn run_retrial_replications(
    cfg: &RetrialConfig,
    run: &RunConfig,
    rep: &RepConfig,
) -> RetrialReplications {
    let per_rep = collect_retrial(cfg, run, 0, rep.replications, rep.master_seed);
    let merged = merge_retrial(per_rep, 1, rep.confidence);
    record_harness_obs(merged.replications, 1, merged.attempts);
    merged
}

/// Adaptive-stopping [`run_retrial_replications`]: rounds grow until the
/// merged *loss* interval has half-width ≤ `target.half_width` (or
/// `target.max` replications).
pub fn run_retrial_until_ci(
    cfg: &RetrialConfig,
    run: &RunConfig,
    rep: &RepConfig,
    target: CiTarget,
) -> RetrialReplications {
    let mut per_rep: Vec<RetrialReport> = Vec::new();
    let mut rounds = 0u64;
    loop {
        let want = if rounds == 0 {
            target.initial.max(2).min(target.max)
        } else {
            target.step.min(target.max - per_rep.len() as u64)
        };
        per_rep.extend(collect_retrial(
            cfg,
            run,
            per_rep.len() as u64,
            want,
            rep.master_seed,
        ));
        rounds += 1;
        let merged = merge_retrial(per_rep, rounds, rep.confidence);
        if merged.loss.half_width <= target.half_width || merged.replications >= target.max {
            record_harness_obs(merged.replications, rounds, merged.attempts);
            return merged;
        }
        per_rep = merged.per_rep;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xbar_core::Dims;
    use xbar_traffic::{TrafficClass, Workload};

    fn model() -> Model {
        let w = Workload::new()
            .with(TrafficClass::poisson(0.1))
            .with(TrafficClass::bpp(0.08, 0.04, 1.0));
        Model::new(Dims::new(6, 8), w).expect("valid model")
    }

    fn replay_cfg(events: u64) -> ReplayConfig {
        ReplayConfig {
            events,
            ..ReplayConfig::default()
        }
    }

    #[test]
    fn replicate_preserves_index_order_for_any_worker_count() {
        for threads in [1usize, 2, 3, 4] {
            let out = parallel::with_threads(threads, || {
                replicate(17, 5, |r: Replication| (r.index, r.seed))
            });
            assert_eq!(out.len(), 17);
            for (i, (index, seed)) in out.iter().enumerate() {
                assert_eq!(*index, i as u64);
                assert_eq!(
                    *seed,
                    rand::rngs::SplitMix64::stream_seed(5, i as u64),
                    "seed depends only on (master, index)"
                );
            }
        }
    }

    #[test]
    fn merged_replay_is_bitwise_identical_across_worker_counts() {
        let model = model();
        let cfg = replay_cfg(8_000);
        let rep = RepConfig {
            replications: 6,
            master_seed: 31,
            confidence: Confidence::P99,
        };
        let base = parallel::with_threads(1, || run_replications(&model, &cfg, &rep))
            .expect("replay runs");
        for threads in [2usize, 4] {
            let got = parallel::with_threads(threads, || run_replications(&model, &cfg, &rep))
                .expect("replay runs");
            assert_eq!(got.events, base.events);
            assert_eq!(got.arrivals, base.arrivals);
            for (a, b) in got.classes.iter().zip(&base.classes) {
                assert_eq!(a.offered, b.offered);
                assert_eq!(a.admitted, b.admitted);
                assert_eq!(a.acceptance.mean.to_bits(), b.acceptance.mean.to_bits());
                assert_eq!(
                    a.acceptance.half_width.to_bits(),
                    b.acceptance.half_width.to_bits()
                );
            }
        }
    }

    #[test]
    fn until_ci_extends_rather_than_reruns_replications() {
        let model = model();
        let cfg = replay_cfg(4_000);
        let rep = RepConfig {
            replications: 0, // ignored by the adaptive path
            master_seed: 7,
            confidence: Confidence::P95,
        };
        // Impossible target: the run must stop at the cap, having taken
        // multiple rounds.
        let target = CiTarget {
            half_width: 0.0,
            initial: 2,
            step: 2,
            max: 8,
        };
        let merged = run_until_ci(&model, &cfg, &rep, target).expect("replay runs");
        assert_eq!(merged.replications, 8);
        assert!(merged.rounds > 1);
        // Replication i of the adaptive run is replication i of a fixed
        // 8-replication run: same streams, same results.
        let fixed = run_replications(
            &model,
            &cfg,
            &RepConfig {
                replications: 8,
                master_seed: 7,
                confidence: Confidence::P95,
            },
        )
        .expect("replay runs");
        assert_eq!(merged.events, fixed.events);
        for (a, b) in merged.per_rep.iter().zip(&fixed.per_rep) {
            assert_eq!(a.arrivals, b.arrivals);
            assert_eq!(a.classes[0].offered, b.classes[0].offered);
        }
        // An easy target stops at the first round.
        let easy = run_until_ci(&model, &cfg, &rep, CiTarget::new(1.0)).expect("replay runs");
        assert_eq!(easy.rounds, 1);
        assert_eq!(easy.replications, 4);
    }

    #[test]
    fn harness_obs_counters_flow_to_the_callers_scope() {
        let registry = std::sync::Arc::new(xbar_obs::Registry::new());
        let model = model();
        let cfg = replay_cfg(2_000);
        let rep = RepConfig {
            replications: 3,
            master_seed: 2,
            confidence: Confidence::P95,
        };
        let merged = {
            let _scope = xbar_obs::scope(&registry);
            parallel::with_threads(2, || run_replications(&model, &cfg, &rep)).expect("replay runs")
        };
        let snap = registry.snapshot();
        assert_eq!(snap.counter("sim.rep.runs"), Some(1));
        assert_eq!(snap.counter("sim.rep.replications"), Some(3));
        assert_eq!(snap.counter("sim.rep.rounds"), Some(1));
        assert_eq!(snap.counter("sim.rep.events"), Some(merged.events));
        // Worker-side counters landed in the same scope: each of the 3
        // replications recorded its replay.events.
        assert_eq!(snap.counter("replay.events"), Some(merged.events));
    }

    #[test]
    fn merged_sim_replications_match_single_runs() {
        let cfg = SimConfig::new(4, 4).with_exp_class(TrafficClass::poisson(0.2));
        let run = RunConfig {
            warmup: 50.0,
            duration: 2_000.0,
            batches: 10,
        };
        let rep = RepConfig {
            replications: 4,
            master_seed: 9,
            confidence: Confidence::P95,
        };
        let merged = run_sim_replications(&cfg, &run, &rep).expect("valid sim");
        assert_eq!(merged.replications, 4);
        // Each per-rep report is reproducible from its derived seed alone.
        for (i, got) in merged.per_rep.iter().enumerate() {
            let seed = rand::rngs::SplitMix64::stream_seed(9, i as u64);
            let again = CrossbarSim::new(cfg.clone(), seed).run(run);
            assert_eq!(got.events, again.events);
            assert_eq!(got.classes[0].offered, again.classes[0].offered);
            assert_eq!(
                got.classes[0].blocking.mean.to_bits(),
                again.classes[0].blocking.mean.to_bits()
            );
        }
        // And the merged counts are the per-rep sums.
        let offered: u64 = merged.per_rep.iter().map(|r| r.classes[0].offered).sum();
        assert_eq!(merged.classes[0].offered, offered);
    }

    #[test]
    fn a_class_never_offered_does_not_read_as_converged() {
        // Class 1 offers about one call per 10^9 time units, so no
        // replication sees one. Its blocking has no samples and must not
        // pass as "0 ± 0": the adaptive run goes on to the cap.
        let cfg = SimConfig::new(4, 4)
            .with_exp_class(TrafficClass::poisson(0.2))
            .with_exp_class(TrafficClass::poisson(1e-9));
        let run = RunConfig {
            warmup: 10.0,
            duration: 200.0,
            batches: 5,
        };
        let rep = RepConfig {
            replications: 0,
            master_seed: 3,
            confidence: Confidence::P99,
        };
        let merged = run_sim_until_ci(&cfg, &run, &rep, CiTarget::new(0.5)).expect("valid sim");
        assert_eq!(merged.classes[1].offered, 0);
        assert_eq!(merged.classes[1].blocking.half_width, f64::INFINITY);
        assert_eq!(merged.replications, 64);
        assert!(merged.rounds > 1);
        // The offered class converges as before.
        assert!(merged.classes[0].offered > 0);
        assert!(merged.classes[0].blocking.half_width <= 0.5);
    }

    #[test]
    fn retrial_replications_merge_and_balance() {
        let cfg = RetrialConfig {
            n1: 6,
            n2: 6,
            class: TrafficClass::poisson(0.05),
            max_attempts: 3,
            backoff_mean: 0.3,
        };
        let run = RunConfig {
            warmup: 50.0,
            duration: 3_000.0,
            batches: 5,
        };
        let rep = RepConfig {
            replications: 3,
            master_seed: 17,
            confidence: Confidence::P95,
        };
        let merged = run_retrial_replications(&cfg, &run, &rep);
        assert_eq!(merged.replications, 3);
        assert_eq!(merged.calls, merged.carried + merged.lost + merged.pending);
        assert_eq!(merged.attempts, merged.carried + merged.blocked_attempts);
        assert_eq!(merged.blocked_attempts, merged.retries + merged.lost);
        assert!(merged.loss.half_width >= 0.0);
    }
}
