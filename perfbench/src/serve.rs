//! The `serve-sync0` and `serve-sync1` workloads: 100 tenants of the N=16
//! two-class model under the shadow-price policy with repricing on, driven
//! in-process at the runtime's per-line cadence (`ingest_line`, then
//! `pump(pump_budget)`), first closed-loop at saturation and then
//! open-loop at a fixed offered rate.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use xbar_admission::{EngineConfig, Event, PolicySpec};
use xbar_core::{Algorithm, Dims, Model};
use xbar_serve::{Daemon, DaemonConfig, TenantConfig};
use xbar_traffic::{TrafficClass, Workload};

use crate::gen::StreamGen;
use crate::probes::{self, Layers};
use crate::report::Report;
use crate::stats::{percentile, Summary};
use crate::{sys, Args};

/// Tenants in the fleet.
const TENANTS: usize = 100;
/// Events between repricing passes.
const REPRICE_BATCH: u64 = 64;
/// Daemon opens (open plus warm-up prefix) timed for the set-up median.
const SETUP_REPS: usize = 9;
/// The run alternates closed- and open-loop phases in this many slices,
/// so both see the same stretch of host conditions.
const SLICES: usize = 8;
/// Largest |z| of the stream's counts against the model's rates before
/// the generator is rejected: a correct generator exceeds 4σ on one of
/// its six scores in fewer than one run in two thousand.
const GEN_MAX_Z: f64 = 4.0;

/// One serve workload's knobs.
#[derive(Clone, Copy, Debug)]
pub struct Cadence {
    /// WAL records per fsync (0 = page cache only).
    pub sync_every: u64,
    /// Lines per closed-loop throughput sample.
    pub chunk: usize,
    /// Offered rate of the open-loop phase, events per second.
    pub open_rate: f64,
}

pub const SYNC0: Cadence = Cadence {
    sync_every: 0,
    chunk: 10_000,
    open_rate: 50_000.0,
};

pub const SYNC1: Cadence = Cadence {
    sync_every: 1,
    chunk: 500,
    open_rate: 2_000.0,
};

/// The tenants' model: N=16, a Poisson class and a Pascal (peaky BPP) class.
fn model() -> Model {
    Model::new(
        Dims::square(16),
        Workload::new()
            .with(TrafficClass::poisson(0.15).with_weight(1.0))
            .with(TrafficClass::bpp(0.1, 0.05, 1.0).with_weight(0.1)),
    )
    .expect("valid serve model")
}

fn policy() -> PolicySpec {
    PolicySpec::ShadowPrice { reserve: 2 }
}

fn daemon_cfg(sync_every: u64) -> DaemonConfig {
    DaemonConfig {
        tenant: TenantConfig {
            policy: policy(),
            algorithm: Algorithm::Auto,
            reprice_batch: Some(REPRICE_BATCH),
            sync_every,
            ..TenantConfig::default()
        },
        ..DaemonConfig::default()
    }
}

/// The engine configuration a daemon tenant derives from its
/// [`TenantConfig`] (drift checks are driven by the tenant, so the
/// engine's own are off): the reference engines of the stream generator
/// and the layer probes use it so their decisions match the daemon's.
fn engine_cfg() -> EngineConfig {
    let t = daemon_cfg(0).tenant;
    EngineConfig {
        policy: t.policy,
        algorithm: t.algorithm,
        check_interval: 0,
        drift_tol: t.drift_tol,
        reprice_batch: t.reprice_batch,
        price_deadline: t.reanchor_deadline,
    }
}

/// Ingest one line and pump, the runtime's per-line cadence.
fn feed(daemon: &mut Daemon, line: &str) {
    daemon.ingest_line(line).expect("ingest");
    let budget = daemon.pump_budget();
    daemon.pump(budget).expect("pump");
}

/// Open a fresh daemon in `dir` and feed it the warm-up `prefix`, which
/// opens every tenant. The solve cache is cleared first, so each open pays
/// its anchor solves like a fresh process would.
fn open(dir: &Path, model: &Model, sync_every: u64, prefix: &str) -> (Daemon, f64) {
    let _ = std::fs::remove_dir_all(dir);
    xbar_core::solver::cache::global_cache().clear();
    let t0 = Instant::now();
    let (mut daemon, _) = Daemon::open(dir, model, daemon_cfg(sync_every)).expect("daemon opens");
    for line in prefix.lines() {
        feed(&mut daemon, line);
    }
    (daemon, t0.elapsed().as_secs_f64())
}

/// What the closed loop measured. With spans on, alternate chunks are
/// traced, so both halves see the same host conditions.
#[derive(Default)]
struct Closed {
    /// Events per second of each untraced chunk.
    rates: Vec<f64>,
    /// Events and wall seconds over all untraced chunks.
    events: f64,
    wall_s: f64,
    /// Events per second of each traced chunk.
    traced_rates: Vec<f64>,
    /// Per-line `ingest_line` and `pump` times of the traced chunks, ns.
    ingest_ns: Vec<f64>,
    pump_ns: Vec<f64>,
    /// Wall and process CPU time over every chunk.
    busy: sys::Busy,
}

/// Closed loop at saturation: generate `chunk` lines, then time feeding
/// them; repeat until `budget` seconds of feeding are spent.
fn closed_loop(
    out: &mut Closed,
    daemon: &mut Daemon,
    gen: &mut StreamGen,
    chunk: usize,
    budget: f64,
    spans: bool,
) {
    let mut buf = String::new();
    let mut spent = 0.0;
    let mut traced = false;
    while spent < budget {
        buf.clear();
        gen.fill(chunk, &mut buf);
        let ((), busy) = sys::busy(|| {
            if traced {
                let budget = daemon.pump_budget();
                for line in buf.lines() {
                    let t0 = Instant::now();
                    daemon.ingest_line(line).expect("ingest");
                    let t1 = Instant::now();
                    daemon.pump(budget).expect("pump");
                    out.ingest_ns.push((t1 - t0).as_nanos() as f64);
                    out.pump_ns.push(t1.elapsed().as_nanos() as f64);
                }
            } else {
                for line in buf.lines() {
                    feed(daemon, line);
                }
            }
        });
        spent += busy.wall_s;
        out.busy.wall_s += busy.wall_s;
        out.busy.cpu_s += busy.cpu_s;
        let rate = chunk as f64 / busy.wall_s;
        if traced {
            out.traced_rates.push(rate);
        } else {
            out.rates.push(rate);
            out.events += chunk as f64;
            out.wall_s += busy.wall_s;
        }
        traced = spans && !traced;
    }
}

/// Open loop: `n` lines due at `rate` per second; each is timed from its
/// due time to the return of the pump that applied it. Appends the ack
/// latencies and the generator's lateness (ingest start − due), in µs.
fn open_loop(
    daemon: &mut Daemon,
    gen: &mut StreamGen,
    rate: f64,
    n: usize,
    acks: &mut Vec<f64>,
    lags: &mut Vec<f64>,
) {
    let mut buf = String::new();
    gen.fill(n, &mut buf);
    let start = Instant::now() + Duration::from_millis(5);
    for (i, line) in buf.lines().enumerate() {
        let due = start + Duration::from_secs_f64(i as f64 / rate);
        // Sleep until shortly before the due time, then spin, so the
        // generator itself adds no lateness.
        let now = Instant::now();
        if due > now + Duration::from_micros(200) {
            std::thread::sleep(due - now - Duration::from_micros(150));
        }
        while Instant::now() < due {
            std::hint::spin_loop();
        }
        let t_in = Instant::now();
        feed(daemon, line);
        let done = Instant::now();
        lags.push((t_in - due).as_secs_f64() * 1e6);
        acks.push((done - due).as_secs_f64() * 1e6);
    }
}

fn parse_event(line: &str) -> Event {
    let parsed = xbar_serve::daemon::parse_line(line)
        .ok()
        .flatten()
        .expect("generated lines parse");
    parsed.event.event
}

/// Parent of every run's scratch data, inside the working directory.
const DATA_DIR: &str = ".bench_data";

/// This run's scratch data directory.
fn data_root(args: &Args) -> PathBuf {
    Path::new(DATA_DIR).join(format!("{}-{}", args.workload, std::process::id()))
}

/// Remove this run's scratch data, and the parent if no other run uses it.
fn remove_data(args: &Args) {
    let _ = std::fs::remove_dir_all(data_root(args));
    let _ = std::fs::remove_dir(DATA_DIR);
}

/// The serve-layer probes: one seeded tenant stream of the serve model,
/// replayed through each layer standalone in a scratch data directory.
pub fn probe_layers(rep: &mut Report, layers: &mut Layers, args: &Args) -> probes::ServeCosts {
    let model = model();
    let engine_cfg = engine_cfg();
    let (mut gen, mut text) = StreamGen::new(&model, &engine_cfg, 1, args.seed);
    gen.fill(20_000, &mut text);
    let lines: Vec<&str> = text.lines().collect();
    let substream: Vec<Event> = lines.iter().map(|l| parse_event(l)).collect();
    let root = data_root(args);
    let costs = probes::serve_layers(
        rep,
        layers,
        &root.join("probe"),
        &model,
        &engine_cfg,
        &lines,
        &substream,
    );
    let _ = std::fs::remove_dir_all(root.join("probe"));
    if !root.join("daemon").exists() {
        remove_data(args);
    }
    costs
}

/// Run one serve workload.
pub fn run(args: &Args, cadence: Cadence, rep: &mut Report) {
    let threads = crate::threads();
    xbar_core::parallel::set_threads(threads);
    let root = data_root(args);
    std::fs::create_dir_all(&root).expect("data dir");
    let fs = sys::fs_type(&root);
    rep.note(format!(
        "host: nproc={} threads={threads} data_dir={} fs={fs} sync_every={}",
        sys::nproc(),
        root.display(),
        cadence.sync_every
    ));
    if cadence.sync_every > 0 {
        let durable = fs != "tmpfs" && fs != "ramfs";
        rep.gate(
            "durable-filesystem",
            durable,
            format!(
                "fsync on {fs} (tmpfs/ramfs make fsync free, so sync timings would mean nothing)"
            ),
        );
        if !durable {
            remove_data(args);
            return;
        }
    }
    let model = model();
    let engine_cfg = engine_cfg();
    let (mut gen, prefix) = StreamGen::new(&model, &engine_cfg, TENANTS, args.seed);

    // Set-up: daemon open plus the prefix that opens every tenant, on a
    // fresh directory each time; the last daemon opened is the one run.
    let dir = root.join("daemon");
    let mut setups = Vec::new();
    let mut daemon = None;
    for _ in 0..SETUP_REPS {
        let (d, secs) = open(&dir, &model, cadence.sync_every, &prefix);
        setups.push(secs);
        daemon = Some(d);
    }
    let mut daemon = daemon.expect("at least one set-up");
    let setup = Summary::of(&setups).expect("set-up samples");

    let budget = args.seconds;
    let mut layers = Layers::default();
    let mut closed = Closed::default();
    let open_n = (cadence.open_rate * 0.4 * budget / SLICES as f64) as usize;
    // Sized up front so their growth does not move the peak RSS.
    let (mut acks, mut lags) = (
        Vec::with_capacity(SLICES * open_n),
        Vec::with_capacity(SLICES * open_n),
    );
    for _ in 0..SLICES {
        let slice = 0.5 * budget / SLICES as f64;
        closed_loop(
            &mut closed,
            &mut daemon,
            &mut gen,
            cadence.chunk,
            slice,
            args.trace,
        );
        open_loop(
            &mut daemon,
            &mut gen,
            cadence.open_rate,
            open_n,
            &mut acks,
            &mut lags,
        );
    }
    if args.trace {
        let p = crate::stats::median(&closed.rates).unwrap_or(0.0);
        let t = crate::stats::median(&closed.traced_rates).unwrap_or(0.0);
        layers.set("trace.overhead_frac", p / t - 1.0);
        rep.note(format!(
            "closed loop, alternate chunks: untraced {p:.0} events/s, traced {t:.0} events/s"
        ));
        layers.timing(rep, "daemon.ingest_line.ns", &closed.ingest_ns);
        layers.timing(rep, "daemon.pump.ns", &closed.pump_ns);
    }
    let throughput = Summary::of(&closed.rates).expect("closed-loop samples");
    let ack = Summary::of(&acks).expect("ack samples");
    let lag_p99 = percentile(&lags, 0.99).unwrap_or(0.0);

    // Correctness gates.
    let acc = daemon.accounting();
    let reference = gen.totals();
    let counters = daemon.counters();
    let serve = daemon.serve_counters();
    let quarantined = daemon.quarantined_tenants() as u64;
    rep.gate(
        "accounting",
        acc.holds(),
        format!(
            "offers {} = admitted {} + denied(cap) {} + denied(policy) {} + shed {}",
            acc.offers, acc.admitted, acc.denied_capacity, acc.denied_policy, acc.shed
        ),
    );
    rep.gate(
        "no-failures",
        acc.rejected == 0 && acc.shed == 0 && counters.malformed == 0 && quarantined == 0,
        format!(
            "rejected {} shed {} malformed {} quarantined tenants {quarantined}",
            acc.rejected, acc.shed, counters.malformed
        ),
    );
    let same = acc.offers == reference.offers
        && acc.admitted == reference.admitted
        && acc.denied_capacity == reference.denied_capacity
        && acc.denied_policy == reference.denied_policy
        && acc.departures == reference.departures;
    rep.gate(
        "decisions-match-reference",
        same,
        format!(
            "daemon admitted/denied(cap)/denied(policy)/departures {}/{}/{}/{} vs seeded reference {}/{}/{}/{}",
            acc.admitted,
            acc.denied_capacity,
            acc.denied_policy,
            acc.departures,
            reference.admitted,
            reference.denied_capacity,
            reference.denied_policy,
            reference.departures
        ),
    );
    rep.gate(
        "all-lines-ingested",
        counters.lines == gen.emitted() && counters.applied == gen.emitted(),
        format!(
            "lines {} applied {} generated {}",
            counters.lines,
            counters.applied,
            gen.emitted()
        ),
    );
    for c in gen.check() {
        rep.gate(
            &format!("generator-class{}", c.class),
            c.worst_z() <= GEN_MAX_Z,
            format!(
                "stream offered load {:.5} (model {:.5}), peakedness {:.4} (model {:.4}); \
                 z arrivals {:.2}, arrival levels {:.2}, departures {:.2}",
                c.offered_load,
                c.model_offered_load,
                c.peakedness,
                c.model_peakedness,
                c.z_arrivals,
                c.z_arrival_levels,
                c.z_departures
            ),
        );
    }

    rep.attempted = counters.lines;
    rep.failed = acc.rejected + acc.shed + counters.malformed;
    let admit_ratio = acc.admitted as f64 / acc.offers.max(1) as f64;
    rep.note(format!(
        "stream: {} lines over {TENANTS} tenants, admit ratio {admit_ratio:.4}, {} snapshots, {} reprice passes, {} re-anchor batches",
        counters.lines,
        serve.snapshots,
        reprice_count(&daemon),
        counters.reanchor_batches
    ));
    let events_per_s = closed.events / closed.wall_s;
    let ack_p99 = (ack.n >= crate::stats::samples_needed(0.99))
        .then(|| percentile(&acks, 0.99))
        .flatten();
    rep.note(format!(
        "closed loop: {} events in {} chunks, chunk rates {} (quartiles {:.0}..{:.0}); open loop at {} events/s: acks {}; generator lag p99 {lag_p99:.1} us",
        closed.events,
        throughput.n,
        throughput.describe(0),
        percentile(&closed.rates, 0.25).unwrap_or(0.0),
        percentile(&closed.rates, 0.75).unwrap_or(0.0),
        cadence.open_rate,
        ack.describe(1)
    ));
    let mut e2e = vec![
        ("setup_s", setup.p50, setup.n),
        (
            "error_rate",
            crate::stats::error_rate(rep.failed, rep.attempted),
            rep.attempted as usize,
        ),
        ("events_per_s", events_per_s, throughput.n),
        ("ack_p50_us", ack.p50, ack.n),
        ("time_to_answer_ms", ack.p50 * 1e-3, ack.n),
        ("peak_rss_mb", sys::peak_rss_mb(), 1),
    ];
    if let Some(p99) = ack_p99 {
        e2e.push(("ack_p99_us", p99, ack.n));
    }
    if !args.trace {
        rep.end_to_end(&e2e);
    }

    if args.trace {
        let events = counters.applied as f64;
        layers.set("engine.admit_ratio", admit_ratio);
        layers.set("engine.reprice.count", reprice_count(&daemon) as f64);
        layers.set("daemon.reanchor_batches", counters.reanchor_batches as f64);
        layers.set("snapshot.count", serve.snapshots as f64);
        let syncs_per_event = if cadence.sync_every == 0 {
            0.0
        } else {
            1.0 / cadence.sync_every as f64
        };
        layers.set("wal.syncs_per_event", syncs_per_event);
        rep.note(format!(
            "wal.syncs_per_event = {syncs_per_event}: derived from sync_every, since the \
             fsyncs inside Daemon::pump are not observable from outside the program"
        ));
        layers.set("gen.lag_p99_us", lag_p99);
        layers.set(
            "pool.parallel_eff",
            closed.busy.cpu_s / (threads as f64 * closed.busy.wall_s),
        );
        let costs = probe_layers(rep, &mut layers, args);
        // Attribution: the daemon's mean per-event time against the sum of
        // the layers' mean costs per event (the engine probe includes its
        // amortised repricing).
        let per_event = probes::mean(&closed.ingest_ns) + probes::mean(&closed.pump_ns);
        let attributed = costs.parse_ns
            + costs.decide_ns
            + costs.append_ns
            + costs.sync_ns * syncs_per_event
            + costs.snapshot_ns * serve.snapshots as f64 / events
            + costs.reanchor_ns * counters.batched_reanchors as f64 / events;
        layers.set("daemon.unattributed_frac", 1.0 - attributed / per_event);
        rep.note(format!(
            "attribution: {attributed:.0} of {per_event:.0} ns per event covered by layer probes"
        ));
        probes::core_layers(rep, &mut layers, std::slice::from_ref(&model));
        crate::sim::event_loop_layer(rep, &mut layers);
        layers.emit(rep);
    } else {
        rep.metric("setup_s", setup.p50, "s", &format!("median of {}", setup.n));
        rep.metric(
            "events_per_s",
            events_per_s,
            "1/s",
            &format!(
                "closed loop, {} events over {} chunks",
                closed.events, throughput.n
            ),
        );
        rep.metric(
            "time_to_answer_ms",
            ack.p50 * 1e-3,
            "ms",
            &format!("ack p50 at {} events/s, n={}", cadence.open_rate, ack.n),
        );
        rep.metric("peak_rss_mb", sys::peak_rss_mb(), "MiB", "VmHWM");
    }
    drop(daemon);
    remove_data(args);
}

fn reprice_count(daemon: &Daemon) -> u64 {
    daemon
        .tenants()
        .map(|(_, t)| t.engine().stats().reprice_batches)
        .sum()
}
