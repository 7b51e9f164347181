//! Per-layer measurements for the traced runs.
//!
//! Every span is taken from the benchmark's own code around a call into a
//! layer's public function, so the program under test is unchanged. A
//! layer the workload drives inside one opaque call (the WAL inside
//! `Daemon::pump`, the sweep inside `plan()`) is measured by calling the
//! same public function standalone on the workload's own inputs.
//!
//! Every traced run reports every layer metric: counts and ratios of a
//! layer the workload bypasses read 0, and the standalone probes run on
//! every workload so each layer's cost is on record next to its count.

use std::path::Path;
use std::sync::Arc;

use xbar_admission::{AdmissionEngine, EngineConfig, Event};
use xbar_core::{solve, sweep_many, Algorithm, Model, SweepSolver};
use xbar_serve::snapshot::{self, TenantSnapshot};
use xbar_serve::{model_fingerprint, RecordKind, ServeCounters, Wal, WalRecord};

use crate::report::Report;
use crate::stats::Summary;
use crate::{per_call_ns, repeat_ns};

/// Every per-layer metric, with its unit, in report order.
pub const LAYER_METRICS: [(&str, &str); 30] = [
    ("daemon.parse_line.ns", "ns"),
    ("daemon.ingest_line.ns", "ns"),
    ("daemon.pump.ns", "ns"),
    ("daemon.reanchor_batches", "count"),
    ("daemon.unattributed_frac", "ratio"),
    ("gen.lag_p99_us", "us"),
    ("engine.decide.ns", "ns"),
    ("engine.admit_ratio", "ratio"),
    ("engine.reprice.ns", "ns"),
    ("engine.reprice.count", "count"),
    ("engine.reanchor.ns", "ns"),
    ("snapshot.write.ns", "ns"),
    ("snapshot.count", "count"),
    ("wal.append.ns", "ns"),
    ("wal.sync.ns", "ns"),
    ("wal.syncs_per_event", "ratio"),
    ("alg1.solve.ns", "ns"),
    ("alg1.cells_per_s", "1/s"),
    ("sweep.precompute.ns", "ns"),
    ("sweep.point.ns", "ns"),
    ("fleet.sweep_many.ns", "ns"),
    ("grid.hit_ratio", "ratio"),
    ("plan.prune_ratio", "ratio"),
    ("plan.evaluated", "count"),
    ("plan.unattributed_frac", "ratio"),
    ("sim.run.ns_per_event", "ns"),
    ("harness.replications", "count"),
    ("harness.rounds", "count"),
    ("pool.parallel_eff", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// Per-layer values of one traced run; unset metrics report 0.
#[derive(Debug)]
pub struct Layers {
    values: Vec<f64>,
}

impl Default for Layers {
    fn default() -> Self {
        Layers {
            values: vec![0.0; LAYER_METRICS.len()],
        }
    }
}

impl Layers {
    fn slot(name: &str) -> usize {
        LAYER_METRICS
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("unknown layer metric {name}"))
    }

    /// Set a layer metric.
    pub fn set(&mut self, name: &str, value: f64) {
        self.values[Self::slot(name)] = value;
    }

    /// Set a timing metric to its median and print the distribution.
    pub fn timing(&mut self, rep: &Report, name: &str, samples_ns: &[f64]) -> f64 {
        let Some(s) = Summary::of(samples_ns) else {
            rep.note(format!("{name}: no samples"));
            return 0.0;
        };
        rep.note(format!("{name}: {} ns per call", s.describe(0)));
        self.set(name, s.p50);
        s.p50
    }

    /// Emit every layer metric into the report, in [`LAYER_METRICS`] order.
    pub fn emit(&self, rep: &mut Report) {
        for ((name, unit), &v) in LAYER_METRICS.iter().zip(&self.values) {
            rep.metric(name, v, unit, "");
        }
    }
}

/// Mean of `xs` (0 when empty).
pub fn mean(xs: &[f64]) -> f64 {
    crate::stats::mean(xs).unwrap_or(0.0)
}

/// Mean per-call costs of the serve layers, for attributing the daemon's
/// per-event time.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServeCosts {
    pub parse_ns: f64,
    pub decide_ns: f64,
    pub reanchor_ns: f64,
    pub snapshot_ns: f64,
    pub append_ns: f64,
    pub sync_ns: f64,
}

/// Standalone probes of the serve layers: protocol parsing over `lines`,
/// one engine over one tenant's `substream`, repricing and re-anchoring,
/// WAL appends and syncs and snapshot writes in `dir`.
pub fn serve_layers(
    rep: &mut Report,
    layers: &mut Layers,
    dir: &Path,
    model: &Model,
    engine_cfg: &EngineConfig,
    lines: &[&str],
    substream: &[Event],
) -> ServeCosts {
    rep.note(
        "serve layer probes: parse, engine, WAL and snapshot calls run inside Daemon::pump, \
         where the program's own code cannot be timed from outside; each is timed here by \
         calling its public function standalone",
    );
    let mut costs = ServeCosts::default();
    let parse = per_call_ns(lines, 64, |l| {
        std::hint::black_box(xbar_serve::daemon::parse_line(l).ok());
    });
    layers.timing(rep, "daemon.parse_line.ns", &parse);
    costs.parse_ns = mean(&parse);

    let mut engine = AdmissionEngine::new(model, engine_cfg.clone()).expect("probe engine builds");
    let mut errors = 0u64;
    let decide = per_call_ns(substream, 16, |&ev| {
        if engine.apply(ev).is_err() {
            errors += 1;
        }
    });
    rep.gate(
        "engine-substream",
        errors == 0,
        format!("{errors} engine errors replaying one tenant's substream"),
    );
    layers.timing(rep, "engine.decide.ns", &decide);
    costs.decide_ns = mean(&decide);

    let reprice = per_call_ns(&[(); 4096], 64, |_| {
        std::hint::black_box(engine.reprice_now().expect("reprice"));
    });
    layers.timing(rep, "engine.reprice.ns", &reprice);
    let reanchor = repeat_ns(64, || engine.re_anchor().expect("re-anchor"));
    layers.timing(rep, "engine.reanchor.ns", &reanchor);
    costs.reanchor_ns = mean(&reanchor);

    std::fs::create_dir_all(dir).expect("probe dir");
    let snap = TenantSnapshot {
        seq: substream.len() as u64,
        wal_records: substream.len() as u64,
        model_fp: model_fingerprint(model, &engine_cfg.policy, engine_cfg.algorithm),
        engine: engine.export_state(),
        counters: ServeCounters::default(),
        quarantined: false,
    };
    let snap_path = dir.join("probe.snap");
    let snaps = repeat_ns(64, || snapshot::write(&snap_path, &snap).expect("snapshot"));
    layers.timing(rep, "snapshot.write.ns", &snaps);
    costs.snapshot_ns = mean(&snaps);

    let record = |seq| WalRecord {
        seq,
        kind: RecordKind::Arrival,
        class: 0,
        skewed: false,
    };
    let (mut wal, _) = Wal::open(&dir.join("probe.wal"), 0).expect("probe wal");
    let seqs: Vec<u64> = (1..=16_384).collect();
    let appends = per_call_ns(&seqs, 16, |&s| wal.append(&record(s)).expect("append"));
    layers.timing(rep, "wal.append.ns", &appends);
    costs.append_ns = mean(&appends);
    let (mut wal, _) = Wal::open(&dir.join("probe_sync.wal"), 0).expect("probe wal");
    let mut seq = 0;
    let syncs = repeat_ns(256, || {
        seq += 1;
        wal.append(&record(seq)).expect("append");
        wal.sync().expect("sync");
    });
    layers.timing(rep, "wal.sync.ns", &syncs);
    costs.sync_ns = mean(&syncs) - costs.append_ns;
    drop(wal);
    let _ = std::fs::remove_dir_all(dir);
    costs
}

/// Standalone probes of the solver layers on `models`: Algorithm-1
/// lattice solves and sweep precomputes of every model (each repeated so
/// at least 32 calls are timed), point recombinations on the first, and
/// fleet batches over all of them.
pub fn core_layers(rep: &mut Report, layers: &mut Layers, models: &[Model]) {
    let algorithm = Algorithm::Auto;
    let repeated: Vec<&Model> = models.iter().cycle().take(32.max(models.len())).collect();
    let reg = Arc::new(xbar_obs::Registry::new());
    let solves = {
        let _scope = xbar_obs::scope(&reg);
        per_call_ns(&repeated, 1, |m| {
            std::hint::black_box(solve(m, algorithm).expect("probe solve"));
        })
    };
    let cells = reg.snapshot().counter("alg1.cells").unwrap_or(0) as f64;
    layers.timing(rep, "alg1.solve.ns", &solves);
    let total_s: f64 = solves.iter().sum::<f64>() * 1e-9;
    layers.set("alg1.cells_per_s", cells / total_s);
    rep.note(format!(
        "alg1: {cells} lattice cells over {} solves, {:.3e} cells/s",
        solves.len(),
        cells / total_s
    ));

    let precompute = per_call_ns(&repeated, 1, |m| {
        std::hint::black_box(SweepSolver::new(m, algorithm).expect("probe sweep"));
    });
    layers.timing(rep, "sweep.precompute.ns", &precompute);
    let solver = SweepSolver::new(&models[0], algorithm).expect("probe sweep");
    let r = solver.model().num_classes() - 1;
    let rho0 = solver.model().workload().classes()[r].rho();
    let rhos: Vec<f64> = (0..512).map(|i| rho0 * (0.5 + i as f64 / 512.0)).collect();
    let points = per_call_ns(&rhos, 8, |&x| {
        std::hint::black_box(solver.solve_with_rho(r, x).expect("probe point"));
    });
    layers.timing(rep, "sweep.point.ns", &points);
    let fleet = repeat_ns(3, || {
        std::hint::black_box(sweep_many(models, algorithm));
    });
    layers.timing(rep, "fleet.sweep_many.ns", &fleet);
}
