//! The `plan-exhaustive` workload: cold exhaustive capacity plans with
//! pruning and fleet batching on, over square geometries up to N=256, two
//! load axes and per-class blocking SLOs. The seed draws the revenue
//! weights, which move the optimum but not the set of candidates the
//! search must solve, so every seed does the same work.

use std::sync::Arc;

use xbar_core::{Algorithm, Dims, Model};
use xbar_plan::{plan, DesignSpace, PlanConfig, PlanReport, RhoAxis, Slo, Strategy};
use xbar_traffic::{TrafficClass, Workload};

use crate::gen::Rng;
use crate::probes::{self, Layers};
use crate::report::Report;
use crate::stats::Summary;
use crate::{per_call_ns, sys, Args};

/// Square geometries searched.
const GEOMETRIES: [u32; 9] = [32, 48, 64, 96, 128, 160, 192, 224, 256];
/// Set-ups (space build and validation) per timed batch: one takes a few
/// microseconds. One batch runs before every plan, so set-up samples
/// span the run like the plans do.
const SETUP_BATCH: usize = 500;

/// The design space for `seed`.
fn space(seed: u64) -> DesignSpace {
    let mut rng = Rng::new(seed);
    let w1 = 0.5 + 1.5 * rng.next_f64();
    let base = Model::new(
        Dims::square(GEOMETRIES[0]),
        Workload::new()
            .with(TrafficClass::poisson(0.0001).with_weight(1.0))
            .with(TrafficClass::bpp(0.0001, 0.000002, 1.0).with_weight(w1)),
    )
    .expect("valid plan base model");
    let mut space = DesignSpace::new(base)
        .with_axis(RhoAxis {
            class: 0,
            lo: 0.00002,
            hi: 0.0004,
            steps: 10,
        })
        .with_axis(RhoAxis {
            class: 1,
            lo: 0.00001,
            hi: 0.0003,
            steps: 16,
        })
        .with_slo(Slo {
            class: 0,
            max_blocking: 0.05,
        })
        .with_slo(Slo {
            class: 1,
            max_blocking: 0.1,
        });
    for n in GEOMETRIES {
        space = space.with_geometry(Dims::square(n));
    }
    space
}

fn config(prune: bool) -> PlanConfig {
    PlanConfig {
        algorithm: Algorithm::Auto,
        strategy: Strategy::Exhaustive { prune, batch: true },
        ..PlanConfig::default()
    }
}

/// One cold plan: no solve cache carried over from a previous call.
fn cold_plan(space: &DesignSpace, cfg: &PlanConfig) -> (PlanReport, sys::Busy) {
    xbar_core::solver::cache::global_cache().clear();
    let (out, busy) = sys::busy(|| plan(space, cfg));
    (out.expect("plan succeeds"), busy)
}

/// What the cold plans measured.
struct Answers {
    /// Wall time of each untraced plan, s.
    times: Vec<f64>,
    /// Wall time of each traced plan (recording into the registry), s.
    traced: Vec<f64>,
    busy: Vec<sys::Busy>,
    report: PlanReport,
}

/// Cold plans until `budget` seconds are spent (at least three untraced),
/// calling `between` before each.
/// With a registry, every other plan records the program's own counters
/// and spans into it, so traced and untraced plans alternate.
fn answers(
    space: &DesignSpace,
    budget: f64,
    registry: Option<&Arc<xbar_obs::Registry>>,
    between: &mut dyn FnMut(),
) -> Answers {
    let cfg = config(true);
    let mut out = Answers {
        times: Vec::new(),
        traced: Vec::new(),
        busy: Vec::new(),
        report: cold_plan(space, &cfg).0,
    };
    let mut spent = 0.0;
    while out.times.len() < 3 || spent < budget {
        between();
        let traced = registry.filter(|_| out.traced.len() < out.times.len());
        let _scope = traced.map(xbar_obs::scope);
        let (report, b) = cold_plan(space, &cfg);
        spent += b.wall_s;
        if traced.is_some() {
            out.traced.push(b.wall_s);
        } else {
            out.times.push(b.wall_s);
        }
        out.busy.push(b);
        out.report = report;
    }
    out
}

pub fn run(args: &Args, rep: &mut Report) {
    let threads = crate::threads();
    xbar_core::parallel::set_threads(threads);
    rep.note(format!("host: nproc={} threads={threads}", sys::nproc()));

    let mut setups = Vec::new();
    let mut setup_batch = || {
        setups.extend(per_call_ns(&[(); SETUP_BATCH], SETUP_BATCH, |_| {
            let space = space(args.seed);
            space.validate().expect("valid space");
            std::hint::black_box(space);
        }));
    };
    let space = space(args.seed);
    let candidates = space.num_candidates();

    let mut layers = Layers::default();
    let reg = Arc::new(xbar_obs::Registry::new());
    let got = answers(
        &space,
        0.85 * args.seconds,
        args.trace.then_some(&reg),
        &mut setup_batch,
    );
    let setup = Summary::of(&setups.iter().map(|ns| ns * 1e-9).collect::<Vec<_>>())
        .expect("set-up samples");
    let Answers {
        times,
        busy,
        report,
        ..
    } = &got;
    if args.trace {
        let (p, t) = (
            crate::stats::median(times).unwrap_or(0.0),
            crate::stats::median(&got.traced).unwrap_or(0.0),
        );
        layers.set("trace.overhead_frac", t / p - 1.0);
        rep.note(format!(
            "plan_s, alternate plans: untraced {p:.4}, traced {t:.4}"
        ));
        let snap = reg.snapshot();
        let count = |name: &str| snap.counter(name).unwrap_or(0) as f64;
        let (reuse, build) = (count("sweep.grid.reuse"), count("sweep.grid.build"));
        layers.set("grid.hit_ratio", reuse / (reuse + build).max(1.0));
        // The program's own spans, recorded in ns as `span.<name>`.
        let span_s = |name: &str| {
            snap.histogram(&format!("span.{name}"))
                .map_or(0.0, |h| h.sum * 1e-9)
        };
        let reps = got.traced.len() as f64;
        // Precomputes run on the fleet pool, points on the caller.
        let covered = span_s("sweep.precompute") / threads as f64 + span_s("sweep.recombine");
        let total: f64 = got.traced.iter().sum();
        layers.set("plan.unattributed_frac", 1.0 - covered / total);
        rep.note(format!(
            "attribution: precompute {:.4} s + points {:.4} s per plan against plan_s {:.4} (grid reuse {reuse}, build {build} over {reps} plans)",
            span_s("sweep.precompute") / reps,
            span_s("sweep.recombine") / reps,
            total / reps
        ));
    }
    let plan_s = Summary::of(times).expect("plan samples");

    // Correctness gates, outside the timed region.
    let evaluated = report.evaluations.len() as u64;
    rep.gate(
        "disposition",
        evaluated + report.pruned == candidates,
        format!(
            "evaluated {evaluated} + pruned {} = candidates {candidates}",
            report.pruned
        ),
    );
    let full = plan(&space, &config(false)).expect("unpruned plan succeeds");
    rep.gate(
        "optimum-matches-unpruned",
        full.optimum.candidate.index == report.optimum.candidate.index
            && full.optimum.objective.to_bits() == report.optimum.objective.to_bits()
            && report.optimum.feasible,
        format!(
            "pruned optimum #{} W={} vs unpruned #{} W={} ({} evaluated unpruned)",
            report.optimum.candidate.index,
            report.optimum.objective,
            full.optimum.candidate.index,
            full.optimum.objective,
            full.evaluations.len()
        ),
    );
    rep.attempted = candidates * times.len() as u64;
    rep.failed = 0;
    rep.note(format!(
        "space: {} geometries x {} x {} loads = {candidates} candidates; {evaluated} evaluated, {} pruned, {} grid entries; optimum N={} rho={:?}",
        GEOMETRIES.len(),
        space.axes[0].steps,
        space.axes[1].steps,
        report.pruned,
        report.grid_entries,
        report.optimum.candidate.geometry.n1,
        report.optimum.candidate.rho
    ));
    let mean_plan_s = crate::stats::mean(times).expect("plan samples");
    rep.note(format!(
        "setup: {} s; plan_s: {}, mean {mean_plan_s:.4}",
        setup.describe(7),
        plan_s.describe(4)
    ));
    if !args.trace {
        rep.end_to_end(&[
            ("setup_s", setup.p50, setup.n),
            (
                "error_rate",
                crate::stats::error_rate(rep.failed, rep.attempted),
                rep.attempted as usize,
            ),
            ("events_per_s", candidates as f64 / mean_plan_s, plan_s.n),
            ("plan_s", mean_plan_s, plan_s.n),
            ("time_to_answer_ms", mean_plan_s * 1e3, plan_s.n),
            ("peak_rss_mb", sys::peak_rss_mb(), 1),
        ]);
    }

    if args.trace {
        layers.set("plan.prune_ratio", report.pruned as f64 / candidates as f64);
        layers.set("plan.evaluated", evaluated as f64);
        let wall: f64 = busy.iter().map(|b| b.wall_s).sum();
        let cpu: f64 = busy.iter().map(|b| b.cpu_s).sum();
        layers.set("pool.parallel_eff", cpu / (threads as f64 * wall));
        let mid = space.axes[0].value(space.axes[0].steps / 2);
        let models: Vec<Model> = GEOMETRIES
            .iter()
            .map(|&n| {
                space
                    .base
                    .with_dims(Dims::square(n))
                    .and_then(|m| m.with_rho(0, mid))
                    .expect("probe model")
            })
            .collect();
        probes::core_layers(rep, &mut layers, &models);
        crate::serve::probe_layers(rep, &mut layers, args);
        crate::sim::event_loop_layer(rep, &mut layers);
        layers.emit(rep);
    } else {
        rep.metric("setup_s", setup.p50, "s", &format!("median of {}", setup.n));
        rep.metric(
            "events_per_s",
            candidates as f64 / mean_plan_s,
            "1/s",
            "candidates answered per second of cold planning",
        );
        rep.metric(
            "time_to_answer_ms",
            mean_plan_s * 1e3,
            "ms",
            &format!("plan_s, mean of {} cold plans", plan_s.n),
        );
        rep.metric("peak_rss_mb", sys::peak_rss_mb(), "MiB", "VmHWM");
    }
}
