//! The multi-tenant daemon: line-protocol ingest, bounded per-tenant
//! queues with durable load shedding, the apply pump, and the fleet-wide
//! accounting that the exit-6 metrics invariant checks.
//!
//! # Line protocol
//!
//! One event per line:
//!
//! ```text
//! <tenant> a|d <class> [@<t>]
//! ```
//!
//! `a` = arrival, `d` = departure, `<class>` a 0-based class index,
//! `@<t>` an optional monotone batch timestamp — a line whose `t` runs
//! *backwards* within its tenant's stream is flagged clock-skewed (it is
//! still applied; the skew is counted durably so operators see upstream
//! batchers misbehaving). Blank lines and `#` comments are skipped.
//! Every raw line — including blanks, comments, and malformed input —
//! consumes one sequence number, so sequence numbers are stable across
//! re-reads of the same file: a re-fed line whose sequence number already
//! has a durable WAL record deduplicates, and one that was queued but
//! lost at a crash re-applies. That numbering contract assumes the source
//! re-feeds from the top after a restart (file, tail); a socket feeds
//! only *fresh* events, so the socket runtime first seeks the counter
//! past the durable watermark ([`Daemon::seek_past_durable`]) — otherwise
//! the first events after a restart would collide with durable sequence
//! numbers and be swallowed as duplicates.
//!
//! # Degradation
//!
//! Each tenant has a bounded ingest queue. When it is full an arrival is
//! **shed, durably**: a `Shed` WAL record is appended and the arrival is
//! counted as an offer denied for overload — so
//! `offers = admitted + denied(capacity) + denied(policy) + shed` holds
//! exactly even while the daemon is drowning. Departures are never shed
//! (dropping one would wedge the occupancy vector); they keep queueing
//! past the cap up to a hard bound of
//! [`DEPARTURE_QUEUE_SLACK`]` * queue_cap`, past which they are durably
//! *rejected* so a departure flood cannot exhaust memory. Malformed
//! lines cannot be attributed to a tenant reliably, so they are counted
//! (`serve.malformed`) but not durable. A tenant name longer than
//! [`MAX_TENANT_NAME_LEN`] makes its line malformed: the name becomes the
//! tenant's file names, and one over-long name must not stop the daemon.

use std::collections::{BTreeSet, VecDeque};
use std::path::{Path, PathBuf};

use xbar_admission::Event;
use xbar_core::Model;

use crate::tenant::{Outcome, RecoveryReport, ServeCounters, Tenant, TenantConfig};
use crate::ServeError;

/// A parsed event, pre-queue.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ParsedEvent {
    /// The engine event.
    pub event: Event,
    /// Optional batch timestamp (`@t`).
    pub t: Option<f64>,
}

/// A parsed protocol line.
#[derive(Clone, Debug, PartialEq)]
pub struct ParsedLine {
    /// Tenant name.
    pub tenant: String,
    /// The event.
    pub event: ParsedEvent,
}

/// The longest tenant name (in bytes) a line may carry. Names become the
/// tenant's `<name>.wal` / `<name>.snap` file names, so this stays well
/// under the usual 255-byte file-name limit with any suffix.
pub const MAX_TENANT_NAME_LEN: usize = 128;

/// Parse one protocol line. `Ok(None)` = blank or comment;
/// `Err` = malformed, with a reason.
pub fn parse_line(raw: &str) -> Result<Option<ParsedLine>, String> {
    Ok(parse_fields(raw)?.map(|(tenant, event)| ParsedLine {
        tenant: tenant.to_string(),
        event,
    }))
}

/// [`parse_line`] with the tenant name borrowed from `raw`, so ingest
/// allocates a name only when it opens a new tenant.
fn parse_fields(raw: &str) -> Result<Option<(&str, ParsedEvent)>, String> {
    let line = raw.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(None);
    }
    let mut parts = line.split_whitespace();
    let tenant = parts.next().ok_or("missing tenant")?;
    if !tenant
        .chars()
        .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
    {
        return Err(format!("bad tenant name '{tenant}'"));
    }
    if tenant.len() > MAX_TENANT_NAME_LEN {
        return Err(format!(
            "tenant name longer than {MAX_TENANT_NAME_LEN} bytes"
        ));
    }
    let op = parts.next().ok_or("missing op (a|d)")?;
    let class_s = parts.next().ok_or("missing class index")?;
    let class: usize = class_s
        .parse()
        .map_err(|_| format!("bad class index '{class_s}'"))?;
    if class > u16::MAX as usize {
        return Err(format!("class index {class} out of range"));
    }
    let mut t = None;
    if let Some(tok) = parts.next() {
        let ts = tok
            .strip_prefix('@')
            .ok_or_else(|| format!("unexpected token '{tok}'"))?;
        let v: f64 = ts.parse().map_err(|_| format!("bad timestamp '{ts}'"))?;
        if !v.is_finite() {
            return Err(format!("non-finite timestamp '{ts}'"));
        }
        t = Some(v);
    }
    if let Some(extra) = parts.next() {
        return Err(format!("trailing token '{extra}'"));
    }
    let event = match op {
        "a" => Event::Arrival { class },
        "d" => Event::Departure { class },
        _ => return Err(format!("bad op '{op}' (expected a|d)")),
    };
    Ok(Some((tenant, ParsedEvent { event, t })))
}

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct DaemonConfig {
    /// Per-tenant supervision config.
    pub tenant: TenantConfig,
    /// Per-tenant ingest queue bound (0 = unbounded; overflow sheds
    /// durably).
    pub queue_cap: usize,
    /// Events applied per [`Daemon::pump`] call from the file/socket
    /// runtime (`u64::MAX` = keep up with ingest synchronously).
    pub pump_budget: u64,
    /// Chaos hook: `std::process::abort()` after exactly this many events
    /// applied by this process — a deterministic `kill -9`.
    pub kill_after: Option<u64>,
    /// Honour restart backoffs with real sleeps (CLI mode). Tests leave
    /// this off and read the recorded backoff total instead.
    pub sleep_on_backoff: bool,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            tenant: TenantConfig::default(),
            queue_cap: 0,
            pump_budget: u64::MAX,
            kill_after: None,
            sleep_on_backoff: false,
        }
    }
}

/// Fleet-level (non-durable) counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DaemonCounters {
    /// Raw lines ingested (including blanks/comments/malformed).
    pub lines: u64,
    /// Malformed lines (counted, not durable — no reliable tenant).
    pub malformed: u64,
    /// Events applied by the pump in this process's lifetime.
    pub applied: u64,
    /// Events skipped as duplicates of durable state (crash resume).
    pub duplicates: u64,
    /// Total restart backoff accumulated (nanoseconds), whether or not it
    /// was slept.
    pub backoff_ns: u64,
    /// Drift-triggered re-anchors completed through a coalesced fleet
    /// batch (rather than inline, one solve at a time).
    pub batched_reanchors: u64,
    /// Fleet batches issued to complete pending re-anchors. Always
    /// `<= batched_reanchors` (every batch completes at least one).
    pub reanchor_batches: u64,
}

/// The fleet-wide accounting the exit-6 metrics invariant checks:
/// `offers = admitted + denied_capacity + denied_policy + shed`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Accounting {
    /// Arrivals offered (engine offers + durable sheds).
    pub offers: u64,
    /// Arrivals admitted.
    pub admitted: u64,
    /// Arrivals denied for capacity.
    pub denied_capacity: u64,
    /// Arrivals denied by policy.
    pub denied_policy: u64,
    /// Arrivals shed (overload or quarantine), durably recorded.
    pub shed: u64,
    /// Departures applied.
    pub departures: u64,
    /// Invalid events durably rejected (outside the offers identity).
    pub rejected: u64,
}

impl Accounting {
    /// Whether the offers identity holds exactly.
    pub fn holds(&self) -> bool {
        self.offers == self.admitted + self.denied_capacity + self.denied_policy + self.shed
    }
}

/// How far past `queue_cap` departures may stack up before they are
/// durably rejected instead of queued. Departures are never *shed*
/// (dropping one wedges the occupancy vector), but an unbounded pile-up
/// against a stalled pump is a memory-exhaustion vector — this keeps the
/// per-tenant queue hard-bounded at `queue_cap * DEPARTURE_QUEUE_SLACK`.
pub const DEPARTURE_QUEUE_SLACK: usize = 4;

struct Queued {
    seq: u64,
    event: Event,
    skewed: bool,
}

/// One tenant's row in the slot table: its supervised state, its ingest
/// queue and its clock-skew watermark. The tenant is boxed so opening one
/// mid-table moves small rows, not whole engines.
struct Slot {
    name: String,
    tenant: Box<Tenant>,
    queue: VecDeque<Queued>,
    last_t: Option<f64>,
}

/// The multi-tenant admission daemon.
///
/// Per-event work is independent of the number of idle tenants: the slot
/// table is kept sorted by name, so one binary search resolves a line's
/// tenant and a slot's index is its rank in name order. The pump walks
/// only the `ready` slots (non-empty queues), and the re-anchor batch
/// drains only the `pending` slots (recorded when an apply leaves a
/// deferred re-anchor behind). Both sets iterate in name order, which is
/// the apply order contract `kill_after` and the chaos battery rely on.
pub struct Daemon {
    dir: PathBuf,
    model: Model,
    cfg: DaemonConfig,
    slots: Vec<Slot>,
    ready: BTreeSet<usize>,
    pending: BTreeSet<usize>,
    next_line: u64,
    counters: DaemonCounters,
}

impl Daemon {
    /// Open a daemon over `dir`, recovering every tenant that left durable
    /// state there (`<tenant>.wal`). Returns per-tenant recovery reports.
    pub fn open(
        dir: &Path,
        model: &Model,
        cfg: DaemonConfig,
    ) -> Result<(Daemon, Vec<(String, RecoveryReport)>), ServeError> {
        std::fs::create_dir_all(dir).map_err(|e| ServeError::io(dir, &e))?;
        let mut daemon = Daemon {
            dir: dir.to_path_buf(),
            model: model.clone(),
            cfg,
            slots: Vec::new(),
            ready: BTreeSet::new(),
            pending: BTreeSet::new(),
            next_line: 0,
            counters: DaemonCounters::default(),
        };
        let mut reports = Vec::new();
        let mut names = Vec::new();
        let entries = std::fs::read_dir(dir).map_err(|e| ServeError::io(dir, &e))?;
        for entry in entries {
            let entry = entry.map_err(|e| ServeError::io(dir, &e))?;
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) == Some("wal") {
                if let Some(stem) = path.file_stem().and_then(|s| s.to_str()) {
                    names.push(stem.to_string());
                }
            }
        }
        names.sort();
        for name in names {
            let at = daemon.slots.len();
            let report = daemon.open_tenant(at, name.clone())?;
            reports.push((name, report));
        }
        Ok((daemon, reports))
    }

    /// The slot of tenant `name`: `Ok(index)`, or `Err(index)` where it
    /// would be inserted to keep the table in name order.
    fn find(&self, name: &str) -> Result<usize, usize> {
        self.slots.binary_search_by(|s| s.name.as_str().cmp(name))
    }

    /// Open tenant `name` into slot `at` (its rank in name order). Slots
    /// from `at` on move up one, and so do their entries in the ready and
    /// pending sets.
    fn open_tenant(&mut self, at: usize, name: String) -> Result<RecoveryReport, ServeError> {
        // Daemon-owned tenants defer drift re-anchors so each pump pass
        // can coalesce them into one fleet solve.
        let mut tcfg = self.cfg.tenant.clone();
        tcfg.coalesce_reanchors = true;
        let (tenant, report) = Tenant::open(&name, &self.dir, &self.model, tcfg)?;
        self.slots.insert(
            at,
            Slot {
                name,
                tenant: Box::new(tenant),
                queue: VecDeque::new(),
                last_t: None,
            },
        );
        for set in [&mut self.ready, &mut self.pending] {
            *set = set.iter().map(|&i| i + usize::from(i >= at)).collect();
        }
        Ok(report)
    }

    /// Advance the line counter past every recovered tenant's durable
    /// watermark. Call this before feeding a source that does **not**
    /// re-feed the stream from the top after a restart (the unix socket):
    /// fresh events then take sequence numbers above every resume
    /// watermark, so none can be misread as a duplicate of the durable
    /// prefix. File and tail sources re-read from the top, where per-line
    /// numbering must restart at 1 for dedupe to line up — do not call it
    /// for those.
    pub fn seek_past_durable(&mut self) {
        let max = self
            .slots
            .iter()
            .map(|s| s.tenant.resume_seq())
            .max()
            .unwrap_or(0);
        self.next_line = self.next_line.max(max);
    }

    /// Ingest one raw protocol line. The line consumes a sequence number
    /// whatever it contains; valid events are enqueued (or durably shed on
    /// overflow), malformed lines are counted.
    pub fn ingest_line(&mut self, raw: &str) -> Result<(), ServeError> {
        self.next_line += 1;
        let seq = self.next_line;
        self.counters.lines += 1;
        let (name, parsed) = match parse_fields(raw) {
            Ok(Some(p)) => p,
            Ok(None) => return Ok(()),
            Err(_) => {
                self.counters.malformed += 1;
                xbar_obs::inc("serve.malformed");
                return Ok(());
            }
        };
        let at = match self.find(name) {
            Ok(at) => at,
            Err(at) => {
                self.open_tenant(at, name.to_string())?;
                at
            }
        };
        let slot = &mut self.slots[at];
        // Clock-skew detection: a timestamp that runs backwards within the
        // tenant's stream flags the event (last_t only advances).
        let mut skewed = false;
        if let Some(t) = parsed.t {
            match slot.last_t {
                Some(last) if t < last => skewed = true,
                _ => slot.last_t = Some(t),
            }
        }
        // Crash-resume dedupe: a durable record from before this process
        // started — skip before it costs queue space. (A seq merely below
        // the resume watermark with no record was queued-but-lost at the
        // crash; it falls through and applies.)
        if slot.tenant.is_durable(seq) {
            self.counters.duplicates += 1;
            return Ok(());
        }
        let event = parsed.event;
        if self.cfg.queue_cap > 0 && slot.queue.len() >= self.cfg.queue_cap {
            // Bounded queue full: deny-with-reason, durably. Departures
            // are never shed (dropping one would wedge the occupancy
            // vector forever), so they may keep queueing past the cap —
            // but only up to DEPARTURE_QUEUE_SLACK × the cap. Past that
            // hard bound a departure flood against a stalled pump would
            // exhaust memory, so the departure is durably *rejected*
            // (counted outside the offers identity; the occupancy vector
            // may stay overstated — the documented cost of staying alive).
            // The queue is non-empty here, so the slot is already ready.
            match event {
                Event::Arrival { class } => {
                    slot.tenant.shed(seq, class as u16, skewed)?;
                    xbar_obs::inc("serve.shed");
                }
                Event::Departure { class } => {
                    let hard_cap = self.cfg.queue_cap.saturating_mul(DEPARTURE_QUEUE_SLACK);
                    if slot.queue.len() >= hard_cap {
                        slot.tenant.reject(seq, class as u16, skewed)?;
                        xbar_obs::inc("serve.departure_overflow");
                    } else {
                        slot.queue.push_back(Queued { seq, event, skewed });
                    }
                }
            }
            return Ok(());
        }
        if slot.queue.is_empty() {
            self.ready.insert(at);
        }
        slot.queue.push_back(Queued { seq, event, skewed });
        Ok(())
    }

    /// Apply up to `budget` queued events, round-robin across tenants:
    /// each pass applies one event from every non-empty queue in tenant
    /// name order, and passes repeat until `budget` is spent or every
    /// queue is empty. Every call starts a fresh pass at the first name.
    /// Duplicates do not count against `budget`. Returns how many were
    /// applied. Honours the chaos `kill_after` hook and per-tenant
    /// restart backoffs.
    pub fn pump(&mut self, budget: u64) -> Result<u64, ServeError> {
        let mut applied = 0u64;
        while applied < budget && !self.ready.is_empty() {
            let mut from = 0;
            while applied < budget {
                let Some(&at) = self.ready.range(from..).next() else {
                    break;
                };
                from = at + 1;
                let slot = &mut self.slots[at];
                let q = slot.queue.pop_front().expect("ready slots are non-empty");
                if slot.queue.is_empty() {
                    self.ready.remove(&at);
                }
                // Re-anchors only become pending inside `apply`, so this is
                // the one place the pending set needs to learn of them.
                let outcome = slot.tenant.apply(q.seq, q.event, q.skewed);
                if slot.tenant.reanchor_pending() {
                    self.pending.insert(at);
                }
                if outcome? == Outcome::Duplicate {
                    self.counters.duplicates += 1;
                } else {
                    applied += 1;
                    self.counters.applied += 1;
                    if let Some(kill_after) = self.cfg.kill_after {
                        if self.counters.applied >= kill_after {
                            // Deterministic kill -9: no unwinding, no
                            // drop glue, no flushes.
                            std::process::abort();
                        }
                    }
                }
                self.take_backoff(at);
            }
        }
        self.complete_pending_reanchors()?;
        Ok(applied)
    }

    /// Account (and, in CLI mode, sleep) a restart backoff slot `at`'s
    /// tenant asked for.
    fn take_backoff(&mut self, at: usize) {
        if let Some(backoff) = self.slots[at].tenant.take_backoff() {
            self.counters.backoff_ns += backoff.as_nanos() as u64;
            if self.cfg.sleep_on_backoff {
                std::thread::sleep(backoff);
            }
        }
    }

    /// Complete every deferred drift re-anchor in one fleet batch: a
    /// single [`xbar_core::solve_fleet`] call pre-warms the global solve
    /// cache (deduped, sharded over the worker pool), so each tenant's
    /// own `re_anchor` below is a cache hit instead of a fresh
    /// sequential solve. The batch is the pending set in name order,
    /// less quarantined tenants. Per-tenant failure supervision is
    /// untouched — fleet errors are not consumed here; the tenant's
    /// re-anchor hits the same error and walks its own restart/quarantine
    /// ladder.
    fn complete_pending_reanchors(&mut self) -> Result<(), ServeError> {
        let due: Vec<usize> = self
            .pending
            .iter()
            .copied()
            .filter(|&at| {
                let t = &self.slots[at].tenant;
                t.reanchor_pending() && !t.quarantined()
            })
            .collect();
        if !due.is_empty() {
            let models: Vec<Model> = due
                .iter()
                .map(|&at| self.slots[at].tenant.model().clone())
                .collect();
            let _ = xbar_core::solve_fleet(&models, self.cfg.tenant.algorithm);
            self.counters.batched_reanchors += due.len() as u64;
            self.counters.reanchor_batches += 1;
            xbar_obs::record("serve.reanchor.batch_size", due.len() as f64);
        }
        for at in due {
            // Leave the not-yet-completed slots pending if this one fails.
            self.pending.remove(&at);
            self.slots[at].tenant.complete_pending_reanchor()?;
            self.take_backoff(at);
        }
        self.pending.clear();
        Ok(())
    }

    /// Apply everything queued.
    pub fn drain(&mut self) -> Result<u64, ServeError> {
        self.pump(u64::MAX)
    }

    /// Drain, snapshot, and sync every tenant (clean shutdown).
    pub fn shutdown(&mut self) -> Result<(), ServeError> {
        self.drain()?;
        for slot in &mut self.slots {
            slot.tenant.shutdown()?;
        }
        Ok(())
    }

    /// Fleet-wide accounting (sums every tenant).
    pub fn accounting(&self) -> Accounting {
        let mut acc = Accounting::default();
        for t in self.fleet() {
            let s = t.engine().stats();
            acc.offers += t.offers();
            acc.admitted += s.admitted();
            acc.denied_capacity += s.denied_capacity();
            acc.denied_policy += s.denied_policy();
            acc.shed += t.counters().shed;
            acc.departures += s.departures;
            acc.rejected += t.counters().rejected;
        }
        acc
    }

    /// Sum of serve counters across tenants.
    pub fn serve_counters(&self) -> ServeCounters {
        let mut out = ServeCounters::default();
        for t in self.fleet() {
            let c = t.counters();
            out.shed += c.shed;
            out.rejected += c.rejected;
            out.skewed += c.skewed;
            out.restarts += c.restarts;
            out.stale_reanchors += c.stale_reanchors;
            out.stale_reprices += c.stale_reprices;
            out.snapshots += c.snapshots;
        }
        out
    }

    /// Number of quarantined tenants.
    pub fn quarantined_tenants(&self) -> usize {
        self.fleet().filter(|t| t.quarantined()).count()
    }

    /// Flush fleet counters into the active observability sink, including
    /// the `serve.anchor_stale` gauge (tenants currently serving off a
    /// stale anchor).
    pub fn flush_obs(&self) {
        if !xbar_obs::enabled() {
            return;
        }
        let acc = self.accounting();
        let c = self.serve_counters();
        xbar_obs::add("serve.offers", acc.offers);
        xbar_obs::add("serve.admitted", acc.admitted);
        xbar_obs::add("serve.denied.capacity", acc.denied_capacity);
        xbar_obs::add("serve.denied.policy", acc.denied_policy);
        xbar_obs::add("serve.departures", acc.departures);
        xbar_obs::add("serve.shed.total", c.shed);
        xbar_obs::add("serve.rejected", c.rejected);
        xbar_obs::add("serve.skewed", c.skewed);
        xbar_obs::add("serve.restarts.total", c.restarts);
        xbar_obs::add("serve.reanchor.stale.total", c.stale_reanchors);
        xbar_obs::add("serve.reprice.stale.total", c.stale_reprices);
        xbar_obs::add("serve.reanchor.batched", self.counters.batched_reanchors);
        xbar_obs::add("serve.reanchor.batches", self.counters.reanchor_batches);
        xbar_obs::add("serve.snapshots", c.snapshots);
        xbar_obs::add("serve.lines", self.counters.lines);
        xbar_obs::add("serve.malformed.total", self.counters.malformed);
        xbar_obs::add("serve.duplicates", self.counters.duplicates);
        xbar_obs::add("serve.tenants", self.slots.len() as u64);
        xbar_obs::add("serve.quarantined", self.quarantined_tenants() as u64);
        let stale = self.fleet().filter(|t| t.anchor_stale()).count();
        xbar_obs::set_gauge("serve.anchor_stale", stale as u64);
        for t in self.fleet() {
            t.engine().flush_obs();
        }
    }

    /// Fleet counters.
    pub fn counters(&self) -> &DaemonCounters {
        &self.counters
    }

    /// The configured per-line pump budget.
    pub fn pump_budget(&self) -> u64 {
        self.cfg.pump_budget
    }

    /// The tenants, by name (read access).
    pub fn tenants(&self) -> impl Iterator<Item = (&String, &Tenant)> {
        self.slots.iter().map(|s| (&s.name, &*s.tenant))
    }

    /// Every tenant, in name order.
    fn fleet(&self) -> impl Iterator<Item = &Tenant> {
        self.slots.iter().map(|s| &*s.tenant)
    }

    /// Look up one tenant.
    pub fn tenant(&self, name: &str) -> Option<&Tenant> {
        self.find(name).ok().map(|at| &*self.slots[at].tenant)
    }

    /// Queued (not yet applied) events across all tenants.
    pub fn queued(&self) -> usize {
        self.ready
            .iter()
            .map(|&at| self.slots[at].queue.len())
            .sum()
    }

    /// The durable-state directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xbar_core::Dims;
    use xbar_traffic::{TrafficClass, Workload};

    fn model() -> Model {
        Model::new(
            Dims::square(4),
            Workload::new().with(TrafficClass::poisson(0.7)),
        )
        .unwrap()
    }

    fn dir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("xbar_daemon_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn parse_accepts_the_protocol_and_rejects_garbage() {
        let p = parse_line("tenant-1 a 0 @1.5").unwrap().unwrap();
        assert_eq!(p.tenant, "tenant-1");
        assert_eq!(p.event.event, Event::Arrival { class: 0 });
        assert_eq!(p.event.t, Some(1.5));
        assert_eq!(
            parse_line("t d 3").unwrap().unwrap().event.event,
            Event::Departure { class: 3 }
        );
        assert_eq!(parse_line("").unwrap(), None);
        assert_eq!(parse_line("  # comment").unwrap(), None);
        for bad in [
            "t x 0",
            "t a",
            "t a notanum",
            "t a 0 extra",
            "t a 0 @nan",
            "t a 0 @inf",
            "t a 99999999",
            "bad/name a 0",
            "t a 0 1.5", // timestamp without @
        ] {
            assert!(parse_line(bad).is_err(), "{bad:?} should be malformed");
        }
        let longest = "n".repeat(MAX_TENANT_NAME_LEN);
        assert!(parse_line(&format!("{longest} a 0")).unwrap().is_some());
        assert!(parse_line(&format!("{longest}n a 0")).is_err());
    }

    #[test]
    fn an_over_long_tenant_name_is_malformed_and_creates_no_file() {
        let d = dir("long_name");
        let m = model();
        let (mut daemon, _) = Daemon::open(&d, &m, DaemonConfig::default()).unwrap();
        let long = "x".repeat(300);
        for line in ["t0 a 0".to_string(), format!("{long} a 0"), "t1 a 0".into()] {
            daemon.ingest_line(&line).unwrap();
        }
        daemon.drain().unwrap();
        assert_eq!(daemon.counters().malformed, 1);
        assert_eq!(daemon.counters().lines, 3);
        let names: Vec<String> = daemon.tenants().map(|(n, _)| n.clone()).collect();
        assert_eq!(names, ["t0", "t1"]);
        // The long line consumed seq 2; t1's event took seq 3.
        assert_eq!(daemon.tenant("t1").unwrap().durable_seq(), 3);
        for (name, tenant) in daemon.tenants() {
            assert_eq!(tenant.offers(), 1, "{name}");
        }
        let acc = daemon.accounting();
        assert_eq!(acc.offers, 2);
        assert!(acc.holds());
        for entry in std::fs::read_dir(&d).unwrap() {
            let file = entry.unwrap().file_name();
            assert!(
                !file
                    .to_string_lossy()
                    .contains(&long[..MAX_TENANT_NAME_LEN]),
                "{file:?}"
            );
        }
    }

    #[test]
    fn accounting_identity_holds_with_shedding() {
        let d = dir("identity");
        let m = model();
        let cfg = DaemonConfig {
            queue_cap: 4,
            ..DaemonConfig::default()
        };
        let (mut daemon, _) = Daemon::open(&d, &m, cfg).unwrap();
        // Burst far past the queue bound without pumping: overflow sheds.
        for i in 0..50 {
            daemon
                .ingest_line(&format!("t1 a 0 @{}", i as f64))
                .unwrap();
        }
        assert!(daemon.queued() <= 4);
        daemon.drain().unwrap();
        let acc = daemon.accounting();
        assert_eq!(acc.offers, 50);
        assert!(acc.shed >= 46, "everything past the bound shed durably");
        assert!(acc.holds(), "offers identity: {acc:?}");
    }

    #[test]
    fn departures_are_never_shed_by_the_bounded_queue() {
        let d = dir("dep_not_shed");
        let m = model();
        let cfg = DaemonConfig {
            queue_cap: 2,
            ..DaemonConfig::default()
        };
        let (mut daemon, _) = Daemon::open(&d, &m, cfg).unwrap();
        daemon.ingest_line("t1 a 0").unwrap();
        daemon.ingest_line("t1 a 0").unwrap();
        // Queue is now full; a departure must still be queued, an arrival
        // must shed.
        daemon.ingest_line("t1 d 0").unwrap();
        daemon.ingest_line("t1 a 0").unwrap();
        assert_eq!(daemon.queued(), 3);
        daemon.drain().unwrap();
        let acc = daemon.accounting();
        assert_eq!(acc.shed, 1);
        assert_eq!(acc.departures, 1);
        assert!(acc.holds());
    }

    #[test]
    fn malformed_lines_are_counted_and_consume_sequence_numbers() {
        let d = dir("malformed");
        let m = model();
        let (mut daemon, _) = Daemon::open(&d, &m, DaemonConfig::default()).unwrap();
        daemon.ingest_line("t1 a 0").unwrap();
        daemon.ingest_line("this is not the protocol").unwrap();
        daemon.ingest_line("# a comment").unwrap();
        daemon.ingest_line("t1 a 0").unwrap();
        daemon.drain().unwrap();
        assert_eq!(daemon.counters().malformed, 1);
        assert_eq!(daemon.counters().lines, 4);
        // Seq numbers 1 and 4 were used for the two valid events.
        assert_eq!(daemon.tenant("t1").unwrap().durable_seq(), 4);
    }

    #[test]
    fn clock_skew_is_flagged_per_tenant() {
        let d = dir("skew");
        let m = model();
        let (mut daemon, _) = Daemon::open(&d, &m, DaemonConfig::default()).unwrap();
        daemon.ingest_line("t1 a 0 @1.0").unwrap();
        daemon.ingest_line("t1 a 0 @2.0").unwrap();
        daemon.ingest_line("t1 a 0 @1.5").unwrap(); // backwards: skewed
        daemon.ingest_line("t2 a 0 @0.5").unwrap(); // different tenant: fine
        daemon.drain().unwrap();
        assert_eq!(daemon.serve_counters().skewed, 1);
    }

    #[test]
    fn socket_style_resume_numbers_fresh_events_past_the_durable_prefix() {
        let d = dir("socket_resume");
        let m = model();
        {
            let (mut daemon, _) = Daemon::open(&d, &m, DaemonConfig::default()).unwrap();
            for i in 0..10 {
                daemon.ingest_line(&format!("t1 a 0 @{i}")).unwrap();
            }
            daemon.drain().unwrap();
            // Crash: no shutdown.
        }
        // A socket feeds only fresh events after the restart — nothing
        // re-feeds from the top. Without seeking past the durable prefix,
        // the first 10 fresh events would collide with durable seqs 1..10
        // and be swallowed as duplicates.
        let (mut daemon, _) = Daemon::open(&d, &m, DaemonConfig::default()).unwrap();
        daemon.seek_past_durable();
        for i in 10..15 {
            daemon.ingest_line(&format!("t1 a 0 @{i}")).unwrap();
        }
        daemon.drain().unwrap();
        assert_eq!(
            daemon.counters().duplicates,
            0,
            "fresh events are not duplicates"
        );
        let acc = daemon.accounting();
        assert_eq!(acc.offers, 15, "10 recovered + 5 fresh");
        assert!(acc.holds());
    }

    #[test]
    fn crash_lost_queued_events_are_healed_on_refeed() {
        let d = dir("healed");
        let m = model();
        let cfg = DaemonConfig {
            queue_cap: 2,
            ..DaemonConfig::default()
        };
        {
            let (mut daemon, _) = Daemon::open(&d, &m, cfg.clone()).unwrap();
            // Seqs 1 and 2 queue; 3..6 overflow and shed durably — durable
            // appends jump the queue, so the WAL's max seq (6) exceeds the
            // still-queued seqs 1 and 2.
            for i in 0..6 {
                daemon.ingest_line(&format!("t1 a 0 @{i}")).unwrap();
            }
            assert_eq!(daemon.queued(), 2);
            drop(daemon); // kill -9: queued events die, sheds survive
        }
        let (mut daemon, _) = Daemon::open(&d, &m, cfg).unwrap();
        assert_eq!(daemon.tenant("t1").unwrap().resume_seq(), 6);
        // Re-feed from the top: seqs 3..6 have durable records and
        // deduplicate; seqs 1 and 2 were lost in the queues and must
        // re-apply — a blanket `seq <= resume_seq` watermark would have
        // swallowed them forever.
        for i in 0..6 {
            daemon.ingest_line(&format!("t1 a 0 @{i}")).unwrap();
        }
        daemon.drain().unwrap();
        assert_eq!(daemon.counters().duplicates, 4);
        let acc = daemon.accounting();
        assert_eq!(acc.offers, 6, "every event accounted exactly once");
        assert!(acc.holds());
    }

    #[test]
    fn departure_flood_past_the_hard_bound_is_rejected_durably() {
        let d = dir("dep_flood");
        let m = model();
        let cfg = DaemonConfig {
            queue_cap: 2,
            ..DaemonConfig::default()
        };
        let (mut daemon, _) = Daemon::open(&d, &m, cfg).unwrap();
        daemon.ingest_line("t1 a 0").unwrap();
        daemon.ingest_line("t1 a 0").unwrap();
        // The queue is full: departures may stack only up to the hard
        // bound, the rest are durably rejected (memory stays bounded even
        // with a stalled pump).
        for _ in 0..30 {
            daemon.ingest_line("t1 d 0").unwrap();
        }
        let hard_cap = 2 * DEPARTURE_QUEUE_SLACK;
        assert_eq!(daemon.queued(), hard_cap);
        assert_eq!(
            daemon.serve_counters().rejected,
            30 - (hard_cap - 2) as u64,
            "overflow departures rejected durably at ingest"
        );
        daemon.drain().unwrap();
        assert!(daemon.accounting().holds());
        // The durable rejections survive a restart.
        let total_rejected = daemon.serve_counters().rejected;
        drop(daemon);
        let (daemon, _) = Daemon::open(
            &d,
            &m,
            DaemonConfig {
                queue_cap: 2,
                ..DaemonConfig::default()
            },
        )
        .unwrap();
        assert_eq!(daemon.serve_counters().rejected, total_rejected);
    }

    #[test]
    fn reopen_resumes_and_deduplicates_the_same_stream() {
        let d = dir("resume");
        let m = model();
        let lines: Vec<String> = (0..30)
            .map(|i| {
                if i % 3 == 2 {
                    format!("t1 d 0 @{i}")
                } else {
                    format!("t1 a 0 @{i}")
                }
            })
            .collect();
        {
            let (mut daemon, _) = Daemon::open(&d, &m, DaemonConfig::default()).unwrap();
            for line in &lines[..20] {
                daemon.ingest_line(line).unwrap();
            }
            daemon.drain().unwrap();
            // Crash: no shutdown.
        }
        // Restart and re-feed the whole stream from the top, as a resumed
        // tailer would: the durable prefix deduplicates, the tail applies.
        let (mut daemon, reports) = Daemon::open(&d, &m, DaemonConfig::default()).unwrap();
        assert_eq!(reports.len(), 1);
        for line in &lines {
            daemon.ingest_line(line).unwrap();
        }
        daemon.drain().unwrap();
        assert_eq!(daemon.counters().duplicates, 20);
        let acc = daemon.accounting();
        assert_eq!(acc.offers + acc.departures + acc.rejected, 30);
        assert!(acc.holds());
    }

    #[test]
    fn drift_reanchors_coalesce_into_one_fleet_batch_per_pump() {
        let d = dir("coalesce");
        let m = model();
        // A negative tolerance makes every drift check trip (drift >= 0
        // can never be <= a negative bound), so each applied event
        // requests a re-anchor deterministically.
        let cfg = DaemonConfig {
            tenant: TenantConfig {
                drift_tol: -1.0,
                check_interval: 1,
                ..TenantConfig::default()
            },
            ..DaemonConfig::default()
        };
        let reg = std::sync::Arc::new(xbar_obs::Registry::new());
        let (mut daemon, _) = Daemon::open(&d, &m, cfg).unwrap();
        {
            let _g = xbar_obs::scope(&reg);
            for t in ["t1", "t2", "t3"] {
                daemon.ingest_line(&format!("{t} a 0")).unwrap();
            }
            daemon.drain().unwrap();
        }
        // One batch completed all three pending re-anchors...
        assert_eq!(daemon.counters().reanchor_batches, 1);
        assert_eq!(daemon.counters().batched_reanchors, 3);
        // ...through a single fleet solve (identical models dedupe), and
        // each tenant re-anchored exactly once despite drifting on every
        // event in the pass.
        let snap = reg.snapshot();
        assert_eq!(snap.counter("fleet.solves"), Some(1));
        for t in ["t1", "t2", "t3"] {
            let tenant = daemon.tenant(t).unwrap();
            assert!(!tenant.reanchor_pending());
            assert_eq!(tenant.engine().stats().re_anchors, 1, "{t}");
            assert!(!tenant.anchor_stale());
        }
        let batches = |d: &Daemon| {
            (
                d.counters().reanchor_batches,
                d.counters().batched_reanchors,
            )
        };

        // A pump with nothing pending (nothing queued) moves no batch
        // counter.
        assert_eq!(daemon.pump(10).unwrap(), 0);
        assert_eq!(batches(&daemon), (1, 3));

        // Two of the three drift in the same pump, over several passes:
        // both complete in that pump's single batch, once each.
        for line in ["t3 a 0", "t1 a 0", "t3 a 0"] {
            daemon.ingest_line(line).unwrap();
        }
        daemon.drain().unwrap();
        assert_eq!(batches(&daemon), (2, 5));
        for (t, re_anchors) in [("t1", 2), ("t2", 1), ("t3", 2)] {
            let tenant = daemon.tenant(t).unwrap();
            assert!(!tenant.reanchor_pending(), "{t}");
            assert_eq!(tenant.engine().stats().re_anchors, re_anchors, "{t}");
        }
        let (b, n) = batches(&daemon);
        assert!(b <= n, "batches can never exceed batched re-anchors");
    }

    #[test]
    fn a_tenant_that_drifts_then_quarantines_is_not_re_solved() {
        let d = dir("coalesce_quarantine");
        let m = model();
        let cfg = DaemonConfig {
            tenant: TenantConfig {
                drift_tol: -1.0,
                check_interval: 1,
                max_failures: 2,
                ..TenantConfig::default()
            },
            ..DaemonConfig::default()
        };
        let (mut daemon, _) = Daemon::open(&d, &m, cfg).unwrap();
        // `q` drifts on its first (valid) event, then two unknown-class
        // arrivals quarantine it within the same pump; `t1` drifts once.
        for line in ["q a 0", "t1 a 0", "q a 9", "q a 9"] {
            daemon.ingest_line(line).unwrap();
        }
        daemon.drain().unwrap();
        let q = daemon.tenant("q").unwrap();
        assert!(q.quarantined());
        assert_eq!(q.engine().stats().re_anchors, 0, "quarantined: no solve");
        assert_eq!(daemon.tenant("t1").unwrap().engine().stats().re_anchors, 1);
        // The batch held `t1` alone.
        assert_eq!(daemon.counters().reanchor_batches, 1);
        assert_eq!(daemon.counters().batched_reanchors, 1);
        // Later pumps never pick the quarantined tenant up again.
        daemon.ingest_line("q a 0").unwrap();
        daemon.drain().unwrap();
        assert_eq!(daemon.counters().reanchor_batches, 1);
        assert_eq!(daemon.counters().batched_reanchors, 1);
        assert_eq!(daemon.quarantined_tenants(), 1);
    }

    /// Name-ordered round-robin, the reference the pump must match: each
    /// pass gives every tenant with events left one event, in name order,
    /// until `budget` is spent; every pump call starts a fresh pass.
    fn round_robin(depths: &[u64], applied: &mut [u64], mut budget: u64) -> u64 {
        let mut total = 0;
        loop {
            let mut progressed = false;
            for (done, depth) in applied.iter_mut().zip(depths) {
                if budget == 0 {
                    return total;
                }
                if *done < *depth {
                    *done += 1;
                    budget -= 1;
                    total += 1;
                    progressed = true;
                }
            }
            if !progressed {
                return total;
            }
        }
    }

    #[test]
    fn pump_applies_round_robin_in_tenant_name_order() {
        // Name order (alpha, mid, zeta) differs from ingest order.
        let names = ["alpha", "mid", "zeta"];
        let depths = [3u64, 1, 2];
        let lines = [
            "zeta a 0",
            "alpha a 0",
            "mid a 0",
            "zeta a 0",
            "alpha a 0",
            "alpha a 0",
        ];
        let total: u64 = depths.iter().sum();
        let m = model();
        for budget in 1..=total {
            let d = dir(&format!("round_robin_{budget}"));
            let (mut daemon, _) = Daemon::open(&d, &m, DaemonConfig::default()).unwrap();
            for line in lines {
                daemon.ingest_line(line).unwrap();
            }
            let mut expect = [0u64; 3];
            let mut step = budget;
            while daemon.queued() > 0 {
                let queued = daemon.queued() as u64;
                let want = round_robin(&depths, &mut expect, step);
                let got = daemon.pump(step).unwrap();
                assert_eq!(got, step.min(queued), "budget {step}");
                assert_eq!(got, want, "budget {step}");
                assert_eq!(daemon.queued() as u64, queued - got, "budget {step}");
                for (name, want) in names.iter().zip(expect) {
                    let events = daemon.tenant(name).unwrap().engine().stats().events;
                    assert_eq!(events, want, "{name} after budget {budget}/{step}");
                }
                // Then single-event pumps, each restarting at `alpha`.
                step = 1;
            }
        }
    }

    #[test]
    fn coalesced_completion_still_honours_the_stale_deadline() {
        let d = dir("coalesce_stale");
        let m = model();
        let cfg = DaemonConfig {
            tenant: TenantConfig {
                drift_tol: -1.0,
                check_interval: 1,
                reanchor_deadline: Some(std::time::Duration::ZERO),
                ..TenantConfig::default()
            },
            ..DaemonConfig::default()
        };
        let (mut daemon, _) = Daemon::open(&d, &m, cfg).unwrap();
        daemon.ingest_line("t1 a 0").unwrap();
        daemon.ingest_line("t2 a 0").unwrap();
        daemon.drain().unwrap();
        // Completion went through the batch, but the per-tenant deadline
        // ladder still forced the stale-anchor path for both.
        assert_eq!(daemon.counters().batched_reanchors, 2);
        assert_eq!(daemon.serve_counters().stale_reanchors, 2);
        for t in ["t1", "t2"] {
            let tenant = daemon.tenant(t).unwrap();
            assert!(tenant.anchor_stale(), "{t}");
            assert_eq!(tenant.engine().stats().re_anchors, 0, "{t}");
        }
        assert!(
            daemon.counters().reanchor_batches <= daemon.counters().batched_reanchors,
            "batches can never exceed batched re-anchors"
        );
    }
}
