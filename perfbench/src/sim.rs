//! The `sim-ci` workload: adaptive replications of a paper-style
//! multi-rate crossbar (Poisson, Bernoulli and Pascal classes, two of them
//! with bandwidth `a = 2`) run to a fixed blocking half-width on two
//! threads. The seed draws each answer's master seed.

use std::sync::Arc;

use xbar_core::{solve, Algorithm, Dims, Model};
use xbar_sim::{
    run_sim_until_ci, CiTarget, Confidence, CrossbarSim, RepConfig, RunConfig, SimConfig,
    SimReplications,
};
use xbar_traffic::{TrafficClass, Workload};

use crate::probes::{self, Layers};
use crate::report::Report;
use crate::stats::Summary;
use crate::{per_call_ns, subseed, sys, Args};

/// Switch size.
const N: u32 = 12;
/// Target half-width of every class's 99% call-blocking interval.
const HALF_WIDTH: f64 = 0.004;
/// The accuracy gate: simulated blocking within this many 99% half-widths
/// of the analytic value. At one half-width a 5-class run would miss by
/// chance once in about twenty answers; at two, about once in a million.
const GATE_WIDTHS: f64 = 2.0;
/// Set-ups (config build and validation) per timed batch: one takes about
/// a microsecond. One batch runs before every answer, so set-up samples
/// span the run like the answers do.
const SETUP_BATCH: usize = 500;

fn classes() -> Vec<TrafficClass> {
    vec![
        TrafficClass::poisson(0.005),
        TrafficClass::bpp(0.005, -0.0001, 1.0),
        TrafficClass::bpp(0.0025, 0.002, 1.0),
        TrafficClass::poisson(0.00003).with_bandwidth(2),
        TrafficClass::bpp(0.00002, 0.00001, 1.0).with_bandwidth(2),
    ]
}

/// The simulated crossbar.
fn config() -> SimConfig {
    classes()
        .into_iter()
        .fold(SimConfig::new(N, N), |cfg, c| cfg.with_exp_class(c))
}

/// Per-replication run length.
fn run_config() -> RunConfig {
    RunConfig {
        warmup: 100.0,
        duration: 10_000.0,
        batches: 10,
    }
}

fn target() -> CiTarget {
    CiTarget {
        half_width: HALF_WIDTH,
        initial: 4,
        step: 2,
        max: 64,
    }
}

fn rep_config(master_seed: u64) -> RepConfig {
    RepConfig {
        replications: 0,
        master_seed,
        confidence: Confidence::P99,
    }
}

struct Answers {
    times: Vec<f64>,
    /// Simulated events over all untraced answers.
    events: f64,
    /// Wall time of each traced answer (recording into the registry), s.
    traced: Vec<f64>,
    rates: Vec<f64>,
    busy: Vec<sys::Busy>,
    /// Replications and rounds of every answer.
    reps: Vec<f64>,
    rounds: Vec<f64>,
    /// Class estimates off the analytic value by more than one and by
    /// more than [`GATE_WIDTHS`] half-widths, and intervals left wider
    /// than the target, over every answer.
    uncovered: usize,
    misses: usize,
    short: usize,
    /// The first answer and its master seed, for the thread-count check.
    /// Later answers are reduced to the counts above, so memory use does
    /// not grow with the number of answers a run fits.
    first: Option<(u64, SimReplications)>,
}

/// Answers until `budget` seconds are spent (at least three untraced),
/// calling `between` before each and scoring each against the analytic
/// call blocking `analytic`. With a registry, every other answer records
/// the program's own counters into it, so traced and untraced answers
/// alternate.
fn answers(
    seed: u64,
    budget: f64,
    analytic: &[f64],
    registry: Option<&Arc<xbar_obs::Registry>>,
    between: &mut dyn FnMut(),
) -> Answers {
    let (cfg, run) = (config(), run_config());
    let mut out = Answers {
        times: Vec::new(),
        events: 0.0,
        traced: Vec::new(),
        rates: Vec::new(),
        busy: Vec::new(),
        reps: Vec::new(),
        rounds: Vec::new(),
        uncovered: 0,
        misses: 0,
        short: 0,
        first: None,
    };
    let mut spent = 0.0;
    let mut i = 0;
    while out.times.len() < 3 || spent < budget {
        between();
        let master = subseed(seed, i);
        let traced = registry.filter(|_| out.traced.len() < out.times.len());
        let _scope = traced.map(xbar_obs::scope);
        let (res, busy) = sys::busy(|| run_sim_until_ci(&cfg, &run, &rep_config(master), target()));
        let res = res.expect("valid sim config");
        spent += busy.wall_s;
        if traced.is_some() {
            out.traced.push(busy.wall_s);
        } else {
            out.times.push(busy.wall_s);
            out.rates.push(res.events as f64 / busy.wall_s);
            out.events += res.events as f64;
        }
        out.busy.push(busy);
        out.reps.push(res.replications as f64);
        out.rounds.push(res.rounds as f64);
        for (c, &b) in res.classes.iter().zip(analytic) {
            let off = (c.blocking.mean - b).abs();
            out.uncovered += usize::from(off > c.blocking.half_width);
            out.misses += usize::from(off > GATE_WIDTHS * c.blocking.half_width);
            out.short += usize::from(c.blocking.half_width > HALF_WIDTH);
        }
        out.first.get_or_insert((master, res));
        i += 1;
    }
    out
}

/// Standalone probe of the crossbar simulator's event loop: wall time per
/// simulated event of single-threaded runs of this workload's crossbar.
pub fn event_loop_layer(rep: &mut Report, layers: &mut Layers) {
    let per_event: Vec<f64> = (0..3)
        .map(|i| {
            let mut sim = CrossbarSim::new(config(), 1000 + i);
            let (report, secs) = crate::timed(|| sim.run(run_config()));
            secs * 1e9 / report.events.max(1) as f64
        })
        .collect();
    layers.timing(rep, "sim.run.ns_per_event", &per_event);
}

pub fn run(args: &Args, rep: &mut Report) {
    let threads = crate::threads();
    xbar_core::parallel::set_threads(threads);
    rep.note(format!("host: nproc={} threads={threads}", sys::nproc()));

    let mut setups = Vec::new();
    let mut setup_batch = || {
        setups.extend(per_call_ns(&[(); SETUP_BATCH], SETUP_BATCH, |_| {
            std::hint::black_box(CrossbarSim::try_new(config(), 0).expect("valid sim config"));
        }));
    };

    // The analytic reference, solved once outside the timed region.
    let model = Model::new(Dims::square(N), Workload::from_classes(classes())).expect("model");
    let sol = solve(&model, Algorithm::Auto).expect("analytic solve");
    let analytic: Vec<f64> = (0..model.num_classes())
        .map(|r| 1.0 - sol.call_acceptance(r))
        .collect();

    let mut layers = Layers::default();
    let reg = Arc::new(xbar_obs::Registry::new());
    let got = answers(
        args.seed,
        0.85 * args.seconds,
        &analytic,
        args.trace.then_some(&reg),
        &mut setup_batch,
    );
    let setup = Summary::of(&setups.iter().map(|ns| ns * 1e-9).collect::<Vec<_>>())
        .expect("set-up samples");
    if args.trace {
        let p = crate::stats::median(&got.times).unwrap_or(0.0);
        let t = crate::stats::median(&got.traced).unwrap_or(0.0);
        layers.set("trace.overhead_frac", t / p - 1.0);
        rep.note(format!(
            "time_to_ci_s, alternate answers: untraced {p:.4}, traced {t:.4}"
        ));
    }
    let time_to_ci = Summary::of(&got.times).expect("answers");
    let rate = Summary::of(&got.rates).expect("answers");

    // Correctness gates, outside the timed region.
    let (first_seed, first) = got.first.as_ref().expect("at least one answer");
    let line: Vec<String> = first
        .classes
        .iter()
        .zip(&analytic)
        .map(|(c, b)| {
            format!(
                "{:.5}±{:.5} (analytic {b:.5})",
                c.blocking.mean, c.blocking.half_width
            )
        })
        .collect();
    rep.note(format!("first answer blocking: {}", line.join(", ")));
    rep.gate(
        "blocking-matches-analytic",
        got.misses == 0,
        format!(
            "{} class estimates off the analytic 1 - call acceptance by more than {GATE_WIDTHS} half-widths \
             ({} outside one half-width) over {} answers",
            got.misses,
            got.uncovered,
            got.reps.len()
        ),
    );
    rep.gate(
        "target-reached",
        got.short == 0,
        format!(
            "{} class intervals wider than {HALF_WIDTH} at the replication cap",
            got.short
        ),
    );
    let serial = xbar_core::parallel::with_threads(1, || {
        run_sim_until_ci(&config(), &run_config(), &rep_config(*first_seed), target())
    })
    .expect("valid sim config");
    rep.gate(
        "threads-identical",
        format!("{serial:?}") == format!("{first:?}"),
        format!("merged report at 1 thread vs {threads} threads, master seed {first_seed}"),
    );

    let (reps, rounds) = (&got.reps, &got.rounds);
    rep.attempted = reps.iter().sum::<f64>() as u64;
    rep.failed = 0;
    let total_s: f64 = got.times.iter().sum();
    let time_to_ci_s = total_s / got.times.len() as f64;
    rep.note(format!(
        "setup: {} s; time_to_ci_s: {}; sim events/s per answer: {}; replications per answer: {}",
        setup.describe(7),
        time_to_ci.describe(4),
        rate.describe(0),
        Summary::of(reps).expect("answers").describe(1)
    ));
    if !args.trace {
        rep.end_to_end(&[
            ("setup_s", setup.p50, setup.n),
            (
                "error_rate",
                crate::stats::error_rate(rep.failed, rep.attempted),
                rep.attempted as usize,
            ),
            ("events_per_s", got.events / total_s, rate.n),
            ("time_to_ci_s", time_to_ci_s, time_to_ci.n),
            ("time_to_answer_ms", time_to_ci_s * 1e3, time_to_ci.n),
            ("peak_rss_mb", sys::peak_rss_mb(), 1),
        ]);
    }

    if args.trace {
        layers.set(
            "harness.replications",
            crate::stats::median(reps).unwrap_or(0.0),
        );
        layers.set(
            "harness.rounds",
            crate::stats::median(rounds).unwrap_or(0.0),
        );
        let wall: f64 = got.busy.iter().map(|b| b.wall_s).sum();
        let cpu: f64 = got.busy.iter().map(|b| b.cpu_s).sum();
        layers.set("pool.parallel_eff", cpu / (threads as f64 * wall));
        event_loop_layer(rep, &mut layers);
        probes::core_layers(rep, &mut layers, &[model]);
        crate::serve::probe_layers(rep, &mut layers, args);
        layers.emit(rep);
    } else {
        rep.metric("setup_s", setup.p50, "s", &format!("median of {}", setup.n));
        rep.metric(
            "events_per_s",
            got.events / total_s,
            "1/s",
            &format!("simulated events per host second over {} answers", rate.n),
        );
        rep.metric(
            "time_to_answer_ms",
            time_to_ci_s * 1e3,
            "ms",
            &format!("time_to_ci_s, mean of {} answers", time_to_ci.n),
        );
        rep.metric("peak_rss_mb", sys::peak_rss_mb(), "MiB", "VmHWM");
    }
}
