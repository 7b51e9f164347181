//! The asynchronous crossbar discrete-event simulator.

use std::fmt;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use xbar_numeric::permutation;
use xbar_traffic::{TrafficClass, TrafficError};

use crate::events::{Calendar, EventKind};
use crate::faults::{FaultConfig, FaultLayer, FaultReport, Side};
use crate::rates::RateTable;
use crate::service::{sample_exp, ServiceDist};
use crate::stats::{BatchMeans, Confidence, Estimate};

/// Static simulation configuration: switch geometry plus one
/// (traffic class, holding-time distribution) pair per class.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Inputs `N1`.
    pub n1: u32,
    /// Outputs `N2`.
    pub n2: u32,
    /// Classes with their holding-time laws. The class's `μ` is used for
    /// the *rate* bookkeeping; the distribution's mean should equal `1/μ`
    /// (checked at construction).
    pub classes: Vec<(TrafficClass, ServiceDist)>,
    /// Port-failure injection (off by default; see [`FaultConfig`]).
    pub faults: FaultConfig,
}

impl SimConfig {
    /// An empty config for an `n1 × n2` switch.
    pub fn new(n1: u32, n2: u32) -> Self {
        SimConfig {
            n1,
            n2,
            classes: Vec::new(),
            faults: FaultConfig::none(),
        }
    }

    /// Add a class (builder style).
    pub fn with_class(mut self, class: TrafficClass, service: ServiceDist) -> Self {
        self.classes.push((class, service));
        self
    }

    /// Add a class with its canonical exponential holding time.
    pub fn with_exp_class(self, class: TrafficClass) -> Self {
        let mu = class.mu;
        self.with_class(class, ServiceDist::exponential(mu))
    }

    /// Enable port-failure injection (builder style).
    pub fn with_faults(mut self, faults: FaultConfig) -> Self {
        self.faults = faults;
        self
    }
}

/// Why a simulator could not be constructed from a [`SimConfig`].
#[derive(Clone, Debug, PartialEq)]
pub enum SimError {
    /// `n1` or `n2` is zero.
    NoPorts,
    /// The config has no traffic classes.
    NoClasses,
    /// A class failed BPP validation for this geometry.
    InvalidClass {
        /// Index of the offending class in config order.
        index: usize,
        /// The underlying validation failure.
        source: TrafficError,
    },
    /// A class's bandwidth exceeds `min(n1, n2)`.
    BandwidthExceedsSwitch {
        /// Index of the offending class in config order.
        index: usize,
    },
    /// A service distribution's mean disagrees with the class's `1/μ`.
    ServiceMeanMismatch {
        /// Index of the offending class in config order.
        index: usize,
        /// The distribution's mean.
        got: f64,
        /// The class's `1/μ`.
        want: f64,
    },
    /// A fault rate is negative or non-finite.
    BadFaultRate {
        /// Which rate (`"fail_rate"` / `"repair_rate"`).
        what: &'static str,
        /// The offending value.
        value: f64,
    },
    /// More static port failures than ports on that side.
    TooManyFailedPorts {
        /// Which side overflows.
        side: Side,
        /// Statically failed ports requested.
        requested: u32,
        /// Ports available on that side.
        available: u32,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::NoPorts => write!(f, "switch must have at least one input and one output"),
            SimError::NoClasses => write!(f, "need at least one traffic class"),
            SimError::InvalidClass { index, source } => write!(f, "class {index}: {source}"),
            SimError::BandwidthExceedsSwitch { index } => {
                write!(f, "class {index}: bandwidth exceeds switch")
            }
            SimError::ServiceMeanMismatch { index, got, want } => {
                write!(f, "class {index}: service mean {got} != 1/mu = {want}")
            }
            SimError::BadFaultRate { what, value } => {
                write!(f, "fault {what} must be finite and >= 0, got {value}")
            }
            SimError::TooManyFailedPorts {
                side,
                requested,
                available,
            } => write!(
                f,
                "cannot statically fail {requested} {side:?} ports of {available}"
            ),
        }
    }
}

impl std::error::Error for SimError {}

/// Run-length parameters.
#[derive(Clone, Copy, Debug)]
pub struct RunConfig {
    /// Transient period discarded before measurement starts.
    pub warmup: f64,
    /// Measured simulation time (after warmup).
    pub duration: f64,
    /// Number of batches for the batch-means confidence intervals.
    pub batches: usize,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            warmup: 1_000.0,
            duration: 100_000.0,
            batches: 20,
        }
    }
}

/// Per-class simulation output.
#[derive(Clone, Debug)]
pub struct ClassReport {
    /// Requests generated during the measurement window.
    pub offered: u64,
    /// Requests that found all their ports idle.
    pub accepted: u64,
    /// Requests cleared (congestion *and* fault blocking).
    pub blocked: u64,
    /// Requests cleared solely because their drawn tuple touched a failed
    /// port (a subset of `blocked`; always `0` without fault injection).
    pub fault_blocked: u64,
    /// Call-level blocking ratio (blocked/offered) with CI.
    pub blocking: Estimate,
    /// Same point estimate with a 99% CI (wider quantile over the same
    /// batch means) — what the statistical sim-vs-analytic regression
    /// tests assert against.
    pub blocking_99: Estimate,
    /// Blocking ratio among *viable* requests — those whose drawn tuple
    /// avoided every failed port. Equals `blocking` without fault
    /// injection; with static failures it matches the blocking of the
    /// shrunken `(N1−f1) × (N2−f2)` crossbar.
    pub viable_blocking: Estimate,
    /// Time-average number of connections in progress with CI.
    pub concurrency: Estimate,
    /// Time-average probability that a uniformly-chosen port tuple for this
    /// class is entirely idle *and working* — the simulation analogue of
    /// the paper's `B_r` (eq. 4), with CI.
    pub availability: Estimate,
}

/// Whole-run simulation output.
#[derive(Clone, Debug)]
pub struct SimReport {
    /// Measured (post-warmup) simulated time.
    pub duration: f64,
    /// Events processed in the measurement window.
    pub events: u64,
    /// Per-class reports, in config order.
    pub classes: Vec<ClassReport>,
    /// Revenue rate `Σ_r w_r·E_r` using measured concurrency.
    pub revenue: f64,
    /// Time-weighted distribution of the total port occupancy `k·A`
    /// (index = busy input count), normalised.
    pub occupancy: Vec<f64>,
    /// Fault statistics — `Some` iff fault injection was enabled.
    pub faults: Option<FaultReport>,
}

/// Owner of an idle port in the per-port owner index.
const NO_SLOT: u32 = u32::MAX;
/// Connection id of a free slot (ids count up from 0, so none is taken).
const NO_CONN: u64 = u64::MAX;

/// One slot of the live-circuit table. Freed slots go on a free list and
/// keep their port buffers, so once the table has grown to the peak
/// number of concurrent circuits an accepted call allocates nothing.
struct LiveConn {
    /// Id of the circuit held here, or [`NO_CONN`] while the slot is free.
    /// A departure naming a different id is stale.
    connection: u64,
    class: usize,
    inputs: Vec<u32>,
    outputs: Vec<u32>,
}

/// Per-class batch accumulators.
#[derive(Clone, Default)]
struct ClassBatch {
    offered: u64,
    blocked: u64,
    fault_blocked: u64,
    k_time: f64,     // ∫ k_r dt
    avail_time: f64, // ∫ P(tuple idle ∧ working) dt
}

/// The simulator.
pub struct CrossbarSim {
    cfg: SimConfig,
    rng: StdRng,
    now: f64,
    /// Slot holding each input port, or [`NO_SLOT`] while it is idle —
    /// the busy flags and, for `tear_down_port`, the circuit to remove.
    owner_in: Vec<u32>,
    /// Slot holding each output port, or [`NO_SLOT`].
    owner_out: Vec<u32>,
    /// Total busy inputs (= busy outputs, since every connection takes
    /// `a_r` of each).
    occupancy: u32,
    k: Vec<u64>,
    /// Live-circuit table, indexed by the slot a departure names.
    slots: Vec<LiveConn>,
    /// Free slots of `slots`, reused last-freed first.
    free_slots: Vec<u32>,
    /// Port buffers an arrival draws into; swapped into the slot on accept.
    scratch_in: Vec<u32>,
    scratch_out: Vec<u32>,
    next_conn: u64,
    cal: Calendar,
    /// `P(N1,a_r)·P(N2,a_r)` per class: the ordered-tuple count the
    /// aggregate arrival rate is proportional to (see crate docs).
    tuple_count: Vec<f64>,
    faults: FaultLayer,
    /// Circuits torn down by port failures (whole run, incl. warmup).
    torn_down: u64,
    /// Resident per-class arrival rates — an event changes at most one
    /// class's rate, so the hot loop updates this in O(1) instead of
    /// rebuilding a `Vec` per event (see [`crate::rates`] for the
    /// bit-compatibility argument).
    arr_rates: RateTable,
    /// Per-class tuple availabilities for every reachable occupancy, one
    /// row of `R` per occupancy (see [`Self::refresh_avail`]). Empty until
    /// the first event loop, so construction does no extra work.
    avail_rows: Vec<f64>,
    /// The `(failed_in_count, failed_out_count)` the rows were built for.
    avail_rows_for: Option<(u32, u32)>,
    /// Stale departures that found their slot reused by a newer circuit.
    #[cfg(test)]
    stale_on_reused_slot: u64,
}

impl CrossbarSim {
    /// Build a simulator from a config and an RNG seed.
    ///
    /// # Panics
    /// Panics if the config is invalid (see [`CrossbarSim::try_new`] for
    /// the panic-free variant and [`SimError`] for the cases).
    pub fn new(cfg: SimConfig, seed: u64) -> Self {
        Self::try_new(cfg, seed).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Build a simulator from a config and an RNG seed, rejecting invalid
    /// configs with a typed error instead of panicking.
    pub fn try_new(cfg: SimConfig, seed: u64) -> Result<Self, SimError> {
        if cfg.n1 < 1 || cfg.n2 < 1 {
            return Err(SimError::NoPorts);
        }
        if cfg.classes.is_empty() {
            return Err(SimError::NoClasses);
        }
        let max_n = cfg.n1.max(cfg.n2);
        for (index, (class, service)) in cfg.classes.iter().enumerate() {
            class
                .validate(max_n)
                .map_err(|source| SimError::InvalidClass { index, source })?;
            if class.bandwidth > cfg.n1.min(cfg.n2) {
                return Err(SimError::BandwidthExceedsSwitch { index });
            }
            let want = 1.0 / class.mu;
            if (service.mean() - want).abs() > 1e-9 * want {
                return Err(SimError::ServiceMeanMismatch {
                    index,
                    got: service.mean(),
                    want,
                });
            }
        }
        for (what, value) in [
            ("fail_rate", cfg.faults.fail_rate),
            ("repair_rate", cfg.faults.repair_rate),
        ] {
            if !value.is_finite() || value < 0.0 {
                return Err(SimError::BadFaultRate { what, value });
            }
        }
        for (side, requested, available) in [
            (Side::Input, cfg.faults.fail_inputs, cfg.n1),
            (Side::Output, cfg.faults.fail_outputs, cfg.n2),
        ] {
            if requested > available {
                return Err(SimError::TooManyFailedPorts {
                    side,
                    requested,
                    available,
                });
            }
        }
        let tuple_count = cfg
            .classes
            .iter()
            .map(|(c, _)| {
                permutation(cfg.n1 as u64, c.bandwidth as u64)
                    * permutation(cfg.n2 as u64, c.bandwidth as u64)
            })
            .collect();
        let r = cfg.classes.len();
        Ok(CrossbarSim {
            owner_in: vec![NO_SLOT; cfg.n1 as usize],
            owner_out: vec![NO_SLOT; cfg.n2 as usize],
            occupancy: 0,
            k: vec![0; r],
            slots: Vec::new(),
            free_slots: Vec::new(),
            scratch_in: Vec::new(),
            scratch_out: Vec::new(),
            next_conn: 0,
            cal: Calendar::new(),
            rng: StdRng::seed_from_u64(seed),
            now: 0.0,
            tuple_count,
            faults: FaultLayer::new(cfg.faults.clone(), cfg.n1, cfg.n2),
            torn_down: 0,
            arr_rates: RateTable::new(r, false),
            avail_rows: Vec::new(),
            avail_rows_for: None,
            #[cfg(test)]
            stale_on_reused_slot: 0,
            cfg,
        })
    }

    /// Current per-class connection counts (diagnostic).
    pub fn state(&self) -> &[u64] {
        &self.k
    }

    /// Aggregate arrival rate of class `r` in the current state.
    fn arrival_rate(&self, r: usize) -> f64 {
        self.tuple_count[r] * self.cfg.classes[r].0.lambda(self.k[r])
    }

    /// Probability a uniformly-chosen class-`r` port tuple is fully idle
    /// *and working* at occupancy `occ` under the current failed-port
    /// counts. Busy and failed port sets are disjoint (a failing port's
    /// circuit is torn down), so the free count subtracts both.
    fn availability(&self, occ: u32, r: usize) -> f64 {
        let a = self.cfg.classes[r].0.bandwidth as u64;
        let free1 = (self.cfg.n1 - occ - self.faults.failed_in_count) as u64;
        let free2 = (self.cfg.n2 - occ - self.faults.failed_out_count) as u64;
        permutation(free1, a) * permutation(free2, a) / self.tuple_count[r]
    }

    /// The per-class availabilities in the current state.
    fn avail_row(&self) -> &[f64] {
        let r = self.cfg.classes.len();
        let at = self.occupancy as usize * r;
        &self.avail_rows[at..at + r]
    }

    /// Draw `count` distinct indices in `0..n` into `picked`, reporting
    /// whether all were idle per `owner` and whether all were working per
    /// `failed`. The drawing consumes the same RNG stream regardless of
    /// fault state.
    fn draw_ports(
        rng: &mut StdRng,
        owner: &[u32],
        failed: &[bool],
        count: u32,
        picked: &mut Vec<u32>,
    ) -> (bool, bool) {
        let n = owner.len();
        // Rejection sampling with a linear duplicate check: `count` is
        // the class bandwidth, a handful of ports at most.
        picked.clear();
        let mut all_free = true;
        let mut all_working = true;
        while picked.len() < count as usize {
            let cand = rng.gen_range(0..n) as u32;
            if picked.contains(&cand) {
                continue;
            }
            if owner[cand as usize] != NO_SLOT {
                all_free = false;
            }
            if failed[cand as usize] {
                all_working = false;
            }
            picked.push(cand);
        }
        (all_free, all_working)
    }

    /// Run for `run.warmup + run.duration` sim-time and report measures
    /// over the measurement window.
    pub fn run(&mut self, run: RunConfig) -> SimReport {
        assert!(run.batches >= 1, "need at least one batch");
        assert!(run.duration > 0.0);
        let r_count = self.cfg.classes.len();

        // Warmup: advance without recording.
        let warmup_end = self.now + run.warmup;
        self.advance_until(warmup_end, &mut |_| {});

        let t0 = self.now;
        let batch_len = run.duration / run.batches as f64;
        // Batch `b`'s class-`r` accumulator is `batches[b * r_count + r]`.
        let mut batches = vec![ClassBatch::default(); run.batches * r_count];
        let mut occupancy_time = vec![0.0f64; self.cfg.n1.min(self.cfg.n2) as usize + 1];
        let mut events = 0u64;
        // Fault accounting: window-only deltas via snapshots, plus
        // time-integrals of the failed-port counts.
        let failures0 = self.faults.failures;
        let repairs0 = self.faults.repairs;
        let torn_down0 = self.torn_down;
        let mut failed_in_time = 0.0f64;
        let mut failed_out_time = 0.0f64;

        // The recorder distributes elapsed time (and counts) into batches;
        // state snapshots arrive through the callback argument so the
        // closure doesn't alias `self`.
        let end = t0 + run.duration;
        let batch_of = |t: f64| -> usize { (((t - t0) / batch_len) as usize).min(run.batches - 1) };

        self.advance_until(end, &mut |rec: Record| match rec {
            Record::Elapse {
                from,
                to,
                k,
                avail,
                occ,
                failed_in,
                failed_out,
            } => {
                failed_in_time += failed_in as f64 * (to - from);
                failed_out_time += failed_out as f64 * (to - from);
                // Split [from, to) across batch boundaries.
                let mut cur = from;
                while cur < to {
                    let mut b = batch_of(cur);
                    // Far from `t0` rounding can leave `cur` on or past
                    // batch `b`'s computed end, where the split would
                    // stop advancing: move on to the batch ending after
                    // `cur`. The last batch runs to `to`.
                    let mut stop = t0 + (b + 1) as f64 * batch_len;
                    while stop <= cur && b + 1 < run.batches {
                        b += 1;
                        stop = t0 + (b + 1) as f64 * batch_len;
                    }
                    let stop = if b + 1 == run.batches {
                        to
                    } else {
                        stop.min(to)
                    };
                    let dt = stop - cur;
                    let row = &mut batches[b * r_count..(b + 1) * r_count];
                    for ((cb, &kr), &av) in row.iter_mut().zip(k).zip(avail) {
                        cb.k_time += kr as f64 * dt;
                        cb.avail_time += av * dt;
                    }
                    occupancy_time[occ as usize] += dt;
                    cur = stop;
                }
            }
            Record::Offered {
                class,
                at,
                blocked,
                fault_blocked,
            } => {
                let cb = &mut batches[batch_of(at) * r_count + class];
                cb.offered += 1;
                if blocked {
                    cb.blocked += 1;
                }
                if fault_blocked {
                    cb.fault_blocked += 1;
                }
            }
            Record::Event => events += 1,
        });

        // Aggregate.
        let mut classes = Vec::with_capacity(r_count);
        let mut revenue = 0.0;
        let mut fault_blocked_total = 0u64;
        for r in 0..r_count {
            let mut offered = 0u64;
            let mut blocked = 0u64;
            let mut fault_blocked = 0u64;
            let mut blocking_batches = Vec::new();
            let mut viable_batches = Vec::new();
            let mut conc_batches = Vec::new();
            let mut avail_batches = Vec::new();
            for b in batches.chunks_exact(r_count) {
                let cb = &b[r];
                offered += cb.offered;
                blocked += cb.blocked;
                fault_blocked += cb.fault_blocked;
                if cb.offered > 0 {
                    blocking_batches.push(cb.blocked as f64 / cb.offered as f64);
                }
                let viable = cb.offered - cb.fault_blocked;
                if viable > 0 {
                    viable_batches.push((cb.blocked - cb.fault_blocked) as f64 / viable as f64);
                }
                conc_batches.push(cb.k_time / batch_len);
                avail_batches.push(cb.avail_time / batch_len);
            }
            fault_blocked_total += fault_blocked;
            let concurrency = BatchMeans::from_batches(conc_batches).estimate();
            revenue += self.cfg.classes[r].0.weight * concurrency.mean;
            classes.push(ClassReport {
                offered,
                accepted: offered - blocked,
                blocked,
                fault_blocked,
                blocking: BatchMeans::from_batches(blocking_batches.clone())
                    .estimate_at(Confidence::P95),
                blocking_99: BatchMeans::from_batches(blocking_batches)
                    .estimate_at(Confidence::P99),
                viable_blocking: BatchMeans::from_batches(viable_batches).estimate(),
                concurrency,
                availability: BatchMeans::from_batches(avail_batches).estimate(),
            });
        }
        let total_occ: f64 = occupancy_time.iter().sum();
        let occupancy = occupancy_time.iter().map(|t| t / total_occ).collect();

        // Flush aggregate obs counters once, after the event loop: the hot
        // loop and the RNG stream stay untouched, and the totals are
        // deterministic for a fixed seed regardless of whether metrics are
        // being collected.
        if xbar_obs::enabled() {
            let offered: u64 = classes.iter().map(|c| c.offered).sum();
            let blocked: u64 = classes.iter().map(|c| c.blocked).sum();
            xbar_obs::inc("sim.runs");
            xbar_obs::add("sim.offers", offered);
            xbar_obs::add("sim.admitted", offered - blocked);
            xbar_obs::add("sim.blocked.capacity", blocked - fault_blocked_total);
            xbar_obs::add("sim.blocked.fault", fault_blocked_total);
            xbar_obs::add("sim.events", events);
            xbar_obs::add("sim.port_failures", self.faults.failures - failures0);
            xbar_obs::add("sim.port_repairs", self.faults.repairs - repairs0);
            xbar_obs::add("sim.teardowns", self.torn_down - torn_down0);
        }

        let faults = self.faults.enabled().then(|| FaultReport {
            failures: self.faults.failures - failures0,
            repairs: self.faults.repairs - repairs0,
            torn_down: self.torn_down - torn_down0,
            fault_blocked: fault_blocked_total,
            mean_failed_inputs: failed_in_time / run.duration,
            mean_failed_outputs: failed_out_time / run.duration,
        });

        SimReport {
            duration: run.duration,
            events,
            classes,
            revenue,
            occupancy,
            faults,
        }
    }

    /// Put an accepted class-`class` circuit, whose ports are in the
    /// scratch buffers, into a free slot and return the slot.
    fn place(&mut self, class: usize, connection: u64) -> u32 {
        let slot = self.free_slots.pop().unwrap_or_else(|| {
            self.slots.push(LiveConn {
                connection: NO_CONN,
                class,
                inputs: Vec::new(),
                outputs: Vec::new(),
            });
            (self.slots.len() - 1) as u32
        });
        let conn = &mut self.slots[slot as usize];
        conn.connection = connection;
        conn.class = class;
        std::mem::swap(&mut conn.inputs, &mut self.scratch_in);
        std::mem::swap(&mut conn.outputs, &mut self.scratch_out);
        for &i in &conn.inputs {
            self.owner_in[i as usize] = slot;
        }
        for &o in &conn.outputs {
            self.owner_out[o as usize] = slot;
        }
        self.occupancy += self.cfg.classes[class].0.bandwidth;
        self.k[class] += 1;
        slot
    }

    /// Release the circuit in `slot` (its ports, its slot and its share of
    /// the occupancy) and return its class.
    fn release(&mut self, slot: u32) -> usize {
        let conn = &mut self.slots[slot as usize];
        conn.connection = NO_CONN;
        for &i in &conn.inputs {
            self.owner_in[i as usize] = NO_SLOT;
        }
        for &o in &conn.outputs {
            self.owner_out[o as usize] = NO_SLOT;
        }
        let class = conn.class;
        self.occupancy -= self.cfg.classes[class].0.bandwidth;
        self.k[class] -= 1;
        self.free_slots.push(slot);
        class
    }

    /// Tear down the (at most one — ports are held exclusively) live
    /// circuit occupying the just-failed port. Its scheduled departure
    /// stays in the calendar as a stale entry the event loop skips.
    /// Returns the torn-down circuit's class so the caller can refresh
    /// that class's resident arrival rate.
    fn tear_down_port(&mut self, side: Side, port: u32) -> Option<usize> {
        let slot = match side {
            Side::Input => self.owner_in[port as usize],
            Side::Output => self.owner_out[port as usize],
        };
        (slot != NO_SLOT).then(|| {
            self.torn_down += 1;
            self.release(slot)
        })
    }

    /// Refresh class `r`'s resident arrival rate after a `k[r]` change.
    fn refresh_class_rate(&mut self, r: usize) {
        let v = self.arrival_rate(r);
        self.arr_rates.set(r, v);
    }

    /// Rebuild the availability rows if the failed-port counts changed
    /// since they were built. Availability depends on the state only
    /// through `(occupancy, failed_in_count, failed_out_count)`, so one
    /// row per reachable occupancy, built with the same expression the
    /// per-event recomputation used, serves every event until the next
    /// fault transition; an occupancy change just selects another row.
    fn refresh_avail(&mut self) {
        let failed = (self.faults.failed_in_count, self.faults.failed_out_count);
        if self.avail_rows_for == Some(failed) {
            return;
        }
        // Busy and failed ports are disjoint, so the occupancy never
        // exceeds the working ports on either side.
        let max_occ = (self.cfg.n1 - failed.0).min(self.cfg.n2 - failed.1);
        let mut rows = std::mem::take(&mut self.avail_rows);
        rows.clear();
        for occ in 0..=max_occ {
            for r in 0..self.cfg.classes.len() {
                rows.push(self.availability(occ, r));
            }
        }
        self.avail_rows = rows;
        self.avail_rows_for = Some(failed);
    }

    /// Rebuild both resident caches from the current state (loop entry —
    /// state may have changed since the previous `advance_until` call).
    fn refresh_residents(&mut self) {
        for r in 0..self.cfg.classes.len() {
            self.refresh_class_rate(r);
        }
        self.refresh_avail();
    }

    /// Core event loop with a recording callback. Generic over the record
    /// sink so warmup can run it with a no-op.
    ///
    /// The loop keeps the per-class arrival rates and availabilities
    /// *resident* ([`Self::refresh_residents`]): only state-changing
    /// events (accepted arrivals, live departures, fault transitions)
    /// touch them, and the [`Record::Elapse`] snapshot borrows the
    /// resident buffers instead of allocating per event. Circuits live in
    /// a slot table with reused port buffers, so once warm the loop
    /// neither allocates nor hashes. The total-rate fold, the
    /// class-selection scan, and every RNG draw are unchanged, so runs are
    /// bit-for-bit identical to the legacy rebuild loop (pinned by the
    /// golden-stream tests).
    fn advance_until<F>(&mut self, end: f64, record: &mut F)
    where
        F: for<'a> FnMut(Record<'a>),
    {
        self.refresh_residents();
        loop {
            // Total arrival rate in the current state (cached; re-summed
            // in the legacy fold order only after a rate changed).
            let total_rate = self.arr_rates.total();

            // Candidate next arrival (memoryless ⇒ resampling each event is
            // distributionally exact).
            let t_arrival = if total_rate > 0.0 {
                self.now + sample_exp(&mut self.rng, 1.0 / total_rate)
            } else {
                f64::INFINITY
            };
            // Candidate next fault transition — same resampling argument
            // (the fail/repair clocks are exponential too). The branch is
            // guarded by `dynamic()` so fault-free runs consume the exact
            // same RNG stream as before the fault layer existed.
            let t_fault = if self.faults.dynamic() {
                let rate = self.faults.transition_rate();
                if rate > 0.0 {
                    self.now + sample_exp(&mut self.rng, 1.0 / rate)
                } else {
                    f64::INFINITY
                }
            } else {
                f64::INFINITY
            };
            let t_departure = self.cal.peek_time().unwrap_or(f64::INFINITY);
            let t_next = t_arrival.min(t_departure).min(t_fault).min(end);

            // Record the elapsed interval in the *current* state. The
            // snapshot borrows the live buffers — the recorder consumes it
            // during the call, so no per-event clone is needed.
            record(Record::Elapse {
                from: self.now,
                to: t_next,
                k: &self.k,
                avail: self.avail_row(),
                occ: self.occupancy,
                failed_in: self.faults.failed_in_count,
                failed_out: self.faults.failed_out_count,
            });

            if t_next >= end {
                self.now = end;
                return;
            }
            self.now = t_next;
            record(Record::Event);

            if t_fault < t_departure && t_fault < t_arrival {
                // Port fail/repair transition.
                let tr = self.faults.sample_transition(&mut self.rng);
                if tr.is_failure {
                    if let Some(class) = self.tear_down_port(tr.side, tr.port) {
                        self.refresh_class_rate(class);
                    }
                }
                // Both failures and repairs move the failed-port counts.
                self.refresh_avail();
            } else if t_departure <= t_arrival {
                // Departure. A circuit torn down by a port failure leaves
                // its departure behind as a stale calendar entry; its slot
                // is free or holds a newer circuit by now — skip it.
                let ev = self.cal.pop().expect("peeked");
                let EventKind::Departure {
                    class,
                    slot,
                    connection,
                } = ev.kind;
                let held = self.slots[slot as usize].connection;
                if held == connection {
                    debug_assert_eq!(self.slots[slot as usize].class, class);
                    self.release(slot);
                    self.refresh_class_rate(class);
                } else {
                    #[cfg(test)]
                    {
                        self.stale_on_reused_slot += u64::from(held != NO_CONN);
                    }
                }
            } else {
                // Arrival: pick the class proportional to its rate — the
                // legacy subtractive scan, via the resident table.
                let pick = self.rng.gen::<f64>() * total_rate;
                let class = self.arr_rates.select(pick);
                let a = self.cfg.classes[class].0.bandwidth;
                let (in_free, in_working) = Self::draw_ports(
                    &mut self.rng,
                    &self.owner_in,
                    &self.faults.failed_in,
                    a,
                    &mut self.scratch_in,
                );
                let (out_free, out_working) = Self::draw_ports(
                    &mut self.rng,
                    &self.owner_out,
                    &self.faults.failed_out,
                    a,
                    &mut self.scratch_out,
                );
                let working = in_working && out_working;
                let accepted = in_free && out_free && working;
                record(Record::Offered {
                    class,
                    at: self.now,
                    blocked: !accepted,
                    fault_blocked: !working,
                });
                if accepted {
                    let id = self.next_conn;
                    self.next_conn += 1;
                    let slot = self.place(class, id);
                    self.refresh_class_rate(class);
                    let hold = self.cfg.classes[class].1.sample(&mut self.rng);
                    self.cal.schedule(
                        self.now + hold,
                        EventKind::Departure {
                            class,
                            slot,
                            connection: id,
                        },
                    );
                }
            }
            // Circuits are only torn down, and departures only go stale,
            // under the dynamic fault process: check the slot table there.
            #[cfg(test)]
            if self.faults.dynamic() {
                self.assert_invariants();
            }
        }
    }

    /// Check the slot table against the port and class state: the busy
    /// ports are exactly the live slots' ports, each owned by its slot,
    /// the occupancy is the busy-input count and `k[r]` counts the live
    /// class-`r` slots.
    #[cfg(test)]
    fn assert_invariants(&self) {
        let mut owner_in = vec![NO_SLOT; self.owner_in.len()];
        let mut owner_out = vec![NO_SLOT; self.owner_out.len()];
        let mut k = vec![0u64; self.k.len()];
        for (s, conn) in self.slots.iter().enumerate() {
            let free = self.free_slots.contains(&(s as u32));
            assert_eq!(
                free,
                conn.connection == NO_CONN,
                "slot {s} free-list mismatch"
            );
            if free {
                continue;
            }
            let a = self.cfg.classes[conn.class].0.bandwidth as usize;
            assert_eq!((conn.inputs.len(), conn.outputs.len()), (a, a));
            for (owner, ports) in [
                (&mut owner_in, &conn.inputs),
                (&mut owner_out, &conn.outputs),
            ] {
                for &p in ports {
                    assert_eq!(owner[p as usize], NO_SLOT, "port {p} held twice");
                    owner[p as usize] = s as u32;
                }
            }
            k[conn.class] += 1;
        }
        assert_eq!(owner_in, self.owner_in);
        assert_eq!(owner_out, self.owner_out);
        let busy = self.owner_in.iter().filter(|&&s| s != NO_SLOT).count();
        assert_eq!(self.occupancy as usize, busy);
        assert_eq!(k, self.k);
        for (p, &s) in self.owner_in.iter().enumerate() {
            assert!(
                s == NO_SLOT || !self.faults.failed_in[p],
                "failed input {p} busy"
            );
        }
        for (p, &s) in self.owner_out.iter().enumerate() {
            assert!(
                s == NO_SLOT || !self.faults.failed_out[p],
                "failed output {p} busy"
            );
        }
    }
}

// The Record enum must be nameable by both `run` and `advance_until`;
// hoist it out of the method (kept private to the module).
use record::Record;
mod record {
    pub(super) enum Record<'a> {
        Elapse {
            from: f64,
            to: f64,
            k: &'a [u64],
            avail: &'a [f64],
            occ: u32,
            failed_in: u32,
            failed_out: u32,
        },
        Offered {
            class: usize,
            at: f64,
            blocked: bool,
            fault_blocked: bool,
        },
        Event,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn poisson_cfg(n: u32, rho: f64) -> SimConfig {
        SimConfig::new(n, n).with_exp_class(TrafficClass::poisson(rho))
    }

    #[test]
    fn conservation_counters_add_up() {
        let mut sim = CrossbarSim::new(poisson_cfg(4, 0.1), 1);
        let rep = sim.run(RunConfig {
            warmup: 10.0,
            duration: 2_000.0,
            batches: 10,
        });
        let c = &rep.classes[0];
        assert_eq!(c.offered, c.accepted + c.blocked);
        assert!(c.offered > 1000, "{}", c.offered);
        assert!(rep.events > 0);
    }

    #[test]
    fn occupancy_distribution_normalises_and_bounds() {
        let mut sim = CrossbarSim::new(poisson_cfg(4, 0.3), 2);
        let rep = sim.run(RunConfig {
            warmup: 10.0,
            duration: 1_000.0,
            batches: 5,
        });
        assert_eq!(rep.occupancy.len(), 5);
        let total: f64 = rep.occupancy.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn deterministic_given_seed() {
        let r1 = CrossbarSim::new(poisson_cfg(4, 0.2), 7).run(RunConfig::default());
        let r2 = CrossbarSim::new(poisson_cfg(4, 0.2), 7).run(RunConfig::default());
        assert_eq!(r1.classes[0].offered, r2.classes[0].offered);
        assert_eq!(r1.classes[0].blocked, r2.classes[0].blocked);
        assert_eq!(r1.events, r2.events);
    }

    #[test]
    fn different_seeds_differ() {
        let r1 = CrossbarSim::new(poisson_cfg(4, 0.2), 7).run(RunConfig::default());
        let r2 = CrossbarSim::new(poisson_cfg(4, 0.2), 8).run(RunConfig::default());
        assert_ne!(r1.classes[0].offered, r2.classes[0].offered);
    }

    #[test]
    fn zero_load_class_never_blocks() {
        // A Bernoulli class with S = max_n sources all at tiny rate plus an
        // essentially idle Poisson class: at near-zero load nothing blocks.
        let cfg = SimConfig::new(4, 4).with_exp_class(TrafficClass::poisson(1e-6));
        let mut sim = CrossbarSim::new(cfg, 3);
        let rep = sim.run(RunConfig {
            warmup: 0.0,
            duration: 10_000.0,
            batches: 5,
        });
        assert_eq!(rep.classes[0].blocked, 0);
    }

    #[test]
    fn saturating_load_blocks_heavily() {
        let mut sim = CrossbarSim::new(poisson_cfg(2, 50.0), 4);
        let rep = sim.run(RunConfig {
            warmup: 50.0,
            duration: 2_000.0,
            batches: 10,
        });
        assert!(
            rep.classes[0].blocking.mean > 0.5,
            "{}",
            rep.classes[0].blocking.mean
        );
    }

    #[test]
    fn multirate_class_occupies_multiple_ports() {
        let cfg =
            SimConfig::new(4, 4).with_exp_class(TrafficClass::poisson(0.05).with_bandwidth(2));
        let mut sim = CrossbarSim::new(cfg, 5);
        let rep = sim.run(RunConfig {
            warmup: 10.0,
            duration: 2_000.0,
            batches: 10,
        });
        // Occupancy histogram only has even entries populated.
        assert!(rep.occupancy[1] == 0.0 && rep.occupancy[3] == 0.0);
        assert!(rep.occupancy[2] > 0.0);
    }

    #[test]
    #[should_panic(expected = "service mean")]
    fn rejects_mismatched_service_mean() {
        let cfg = SimConfig::new(2, 2).with_class(
            TrafficClass::poisson(0.1), // mu = 1
            ServiceDist::Deterministic { mean: 2.0 },
        );
        let _ = CrossbarSim::new(cfg, 0);
    }

    #[test]
    #[should_panic(expected = "bandwidth exceeds switch")]
    fn rejects_oversized_bandwidth() {
        let cfg = SimConfig::new(2, 2).with_exp_class(TrafficClass::poisson(0.1).with_bandwidth(3));
        let _ = CrossbarSim::new(cfg, 0);
    }

    #[test]
    fn try_new_rejects_bad_configs_with_typed_errors() {
        let base = || poisson_cfg(4, 0.1);
        assert_eq!(
            CrossbarSim::try_new(SimConfig::new(0, 4), 0).err(),
            Some(SimError::NoPorts)
        );
        assert_eq!(
            CrossbarSim::try_new(SimConfig::new(4, 4), 0).err(),
            Some(SimError::NoClasses)
        );
        assert_eq!(
            CrossbarSim::try_new(
                base().with_faults(FaultConfig {
                    fail_rate: -1.0,
                    ..FaultConfig::none()
                }),
                0
            )
            .err(),
            Some(SimError::BadFaultRate {
                what: "fail_rate",
                value: -1.0
            })
        );
        assert_eq!(
            CrossbarSim::try_new(
                base().with_faults(FaultConfig::none().with_static_failures(0, 5)),
                0
            )
            .err(),
            Some(SimError::TooManyFailedPorts {
                side: Side::Output,
                requested: 5,
                available: 4
            })
        );
        assert!(CrossbarSim::try_new(base(), 0).is_ok());
    }

    #[test]
    fn zero_fault_rate_is_bit_for_bit_identical_to_no_faults() {
        // A config with the fault layer present but every mechanism off
        // must consume the exact same RNG stream as the plain config:
        // identical reports at equal seed, field for field.
        let run = RunConfig {
            warmup: 50.0,
            duration: 5_000.0,
            batches: 10,
        };
        let plain = CrossbarSim::new(poisson_cfg(4, 0.3), 99).run(run);
        let faulted = CrossbarSim::new(
            poisson_cfg(4, 0.3).with_faults(FaultConfig::from_mtbf_mttr(f64::INFINITY, 1.0)),
            99,
        )
        .run(run);
        assert_eq!(plain.events, faulted.events);
        assert_eq!(plain.occupancy, faulted.occupancy);
        assert_eq!(plain.revenue.to_bits(), faulted.revenue.to_bits());
        for (a, b) in plain.classes.iter().zip(faulted.classes.iter()) {
            assert_eq!(a.offered, b.offered);
            assert_eq!(a.blocked, b.blocked);
            assert_eq!(a.fault_blocked, 0);
            assert_eq!(b.fault_blocked, 0);
            assert_eq!(a.blocking.mean.to_bits(), b.blocking.mean.to_bits());
            assert_eq!(
                a.viable_blocking.mean.to_bits(),
                b.viable_blocking.mean.to_bits()
            );
            assert_eq!(a.concurrency.mean.to_bits(), b.concurrency.mean.to_bits());
            assert_eq!(a.availability.mean.to_bits(), b.availability.mean.to_bits());
        }
        assert_eq!(plain.faults, None);
        assert_eq!(faulted.faults, None);
    }

    #[test]
    fn static_failures_match_shrunken_switch_erlang() {
        // 3×3 with 2 inputs and 2 outputs statically failed carries its
        // viable traffic like a 1×1 switch: an M/M/1/1 loss system with
        // viable blocking ρ/(1+ρ).
        let rho = 0.5;
        let cfg = poisson_cfg(3, rho).with_faults(FaultConfig::none().with_static_failures(2, 2));
        let mut sim = CrossbarSim::new(cfg, 13);
        let rep = sim.run(RunConfig {
            warmup: 100.0,
            duration: 200_000.0,
            batches: 20,
        });
        let want = rho / (1.0 + rho);
        let got = &rep.classes[0].viable_blocking;
        assert!(
            got.covers_with_slack(want, 0.01),
            "viable blocking {got:?}, want {want}"
        );
        // Fault metadata: static failures never transition, every blocked
        // request that touched a dead port is fault-blocked, and the
        // time-average failed counts are exactly the static counts.
        let faults = rep.faults.expect("faults enabled");
        assert_eq!(faults.failures, 0);
        assert_eq!(faults.repairs, 0);
        assert_eq!(faults.torn_down, 0);
        assert_eq!(faults.fault_blocked, rep.classes[0].fault_blocked);
        assert!((faults.mean_failed_inputs - 2.0).abs() < 1e-9);
        assert!((faults.mean_failed_outputs - 2.0).abs() < 1e-9);
        // 8/9 of tuples touch a dead port, so most offers are fault-blocked.
        let frac = faults.fault_blocked as f64 / rep.classes[0].offered as f64;
        assert!((frac - 8.0 / 9.0).abs() < 0.02, "{frac}");
    }

    #[test]
    fn static_failures_match_shrunken_switch_analytic() {
        // 6×6 minus 2 inputs / 1 output ≡ 4×5 fault-free crossbar: the
        // faulted simulator's viable blocking must cover the analytic
        // solver's blocking for the shrunken geometry.
        use xbar_core::{solve, Algorithm, Dims, Model};
        use xbar_traffic::Workload;

        let class = TrafficClass::poisson(0.4);
        let cfg = SimConfig::new(6, 6)
            .with_exp_class(class.clone())
            .with_faults(FaultConfig::none().with_static_failures(2, 1));
        let mut sim = CrossbarSim::new(cfg, 21);
        let rep = sim.run(RunConfig {
            warmup: 200.0,
            duration: 150_000.0,
            batches: 20,
        });

        let model = Model::new(Dims::new(4, 5), Workload::new().with(class)).expect("valid model");
        let want = solve(&model, Algorithm::Auto)
            .expect("solvable")
            .blocking(0);
        let got = &rep.classes[0].viable_blocking;
        assert!(
            got.covers_with_slack(want, 0.005),
            "viable blocking {got:?}, analytic 4×5 blocking {want}"
        );
        // Availability integrates P(tuple idle ∧ working); its analogue in
        // the shrunken switch is the paper's B_r.
        let avail_scale = (4.0 * 5.0) / (6.0 * 6.0);
        let b = solve(&model, Algorithm::Auto)
            .expect("solvable")
            .nonblocking(0);
        assert!(
            rep.classes[0]
                .availability
                .covers_with_slack(b * avail_scale, 0.005),
            "availability {:?}, want {}",
            rep.classes[0].availability,
            b * avail_scale
        );
    }

    #[test]
    fn dynamic_faults_degrade_and_repair() {
        // Fast fail/repair on a lightly-loaded switch: transitions happen,
        // circuits get torn down, and the switch keeps carrying traffic.
        let cfg = poisson_cfg(4, 0.5).with_faults(FaultConfig::from_mtbf_mttr(50.0, 10.0));
        let mut sim = CrossbarSim::new(cfg, 17);
        let rep = sim.run(RunConfig {
            warmup: 100.0,
            duration: 50_000.0,
            batches: 10,
        });
        let faults = rep.faults.expect("faults enabled");
        assert!(faults.failures > 100, "{}", faults.failures);
        assert!(faults.repairs > 100, "{}", faults.repairs);
        assert!(faults.torn_down > 0);
        assert!(faults.fault_blocked > 0);
        // Per-port equilibrium failed fraction = fail/(fail+repair) = 1/6.
        let mean_failed = faults.mean_failed_inputs + faults.mean_failed_outputs;
        assert!(
            (mean_failed / 8.0 - 1.0 / 6.0).abs() < 0.03,
            "{mean_failed}"
        );
        // Conservation still holds and the switch still accepts calls.
        let c = &rep.classes[0];
        assert_eq!(c.offered, c.accepted + c.blocked);
        assert!(c.fault_blocked <= c.blocked);
        assert!(c.accepted > 0);
    }

    #[test]
    fn stale_departures_never_free_a_reused_slot() {
        // Ports fail about as often as circuits end, so most departures
        // are stale and many find their slot already reused by a newer
        // circuit. The event loop checks the slot table against the port
        // and class state after every event (`assert_invariants`).
        let cfg = SimConfig::new(5, 5)
            .with_exp_class(TrafficClass::poisson(0.3))
            .with_exp_class(TrafficClass::bpp(0.1, 0.05, 1.0).with_bandwidth(2))
            .with_faults(FaultConfig::from_mtbf_mttr(2.0, 1.0));
        let mut sim = CrossbarSim::new(cfg, 29);
        let rep = sim.run(RunConfig {
            warmup: 10.0,
            duration: 2_000.0,
            batches: 5,
        });
        let faults = rep.faults.expect("faults enabled");
        assert!(faults.torn_down > 1_000, "{}", faults.torn_down);
        assert!(
            sim.stale_on_reused_slot > 100,
            "{}",
            sim.stale_on_reused_slot
        );
        assert!(rep.classes.iter().all(|c| c.accepted > 0));
        // The table never outgrows the switch: at most min(N1, N2)
        // circuits are live at once.
        assert!(sim.slots.len() <= 5, "{}", sim.slots.len());
    }

    #[test]
    fn long_warmup_short_window_terminates() {
        // At t0 = 1e5 the batch ends t0 + (b+1)·0.1 round onto or below
        // the point the split has reached, which used to loop forever.
        let mut sim = CrossbarSim::new(poisson_cfg(4, 0.01), 5);
        let rep = sim.run(RunConfig {
            warmup: 100_000.0,
            duration: 1.0,
            batches: 10,
        });
        let total: f64 = rep.occupancy.iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "{total}");
        assert!(rep.classes[0].concurrency.mean >= 0.0);
    }

    #[test]
    fn n1x1_matches_erlang_one_line() {
        // A 1×1 crossbar with Poisson traffic is an M/M/1/1 loss system:
        // blocking = ρ/(1+ρ).
        let rho = 0.5;
        let mut sim = CrossbarSim::new(poisson_cfg(1, rho), 11);
        let rep = sim.run(RunConfig {
            warmup: 100.0,
            duration: 200_000.0,
            batches: 20,
        });
        let want = rho / (1.0 + rho);
        let got = &rep.classes[0].blocking;
        assert!(
            got.covers_with_slack(want, 0.01),
            "blocking {got:?}, want {want}"
        );
        // Availability (paper B) equals 1 − blocking here.
        assert!(rep.classes[0]
            .availability
            .covers_with_slack(1.0 - want, 0.01));
    }
}
