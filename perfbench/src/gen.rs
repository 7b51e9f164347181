//! Seeded multi-tenant traffic for the serve workloads.
//!
//! Each tenant's stream is the jump chain of the loss network the tenants
//! serve: in state `k`, class-`r` arrivals fire at total rate
//! `P(N1,a_r)·P(N2,a_r)·(α_r + β_r·k_r)` and departures at `k_r·μ_r`.
//! Whether an arrival was admitted — and therefore whether `k` moved and a
//! departure may later be issued for it — is learned from a reference
//! [`AdmissionEngine`] per tenant with the daemon's engine configuration,
//! so no departure is ever issued for a call the daemon denied. Tenants
//! are independent chains in continuous time; the stream interleaves
//! them by event time.
//!
//! While generating, the chain's own exposure (expected holding time per
//! visited level of `k_r`) and arrival/departure counts are tallied, so
//! the per-class `α, β, μ` can be fitted back from the stream and
//! compared with the model: offered load `α/(μ−β)` and peakedness
//! `μ/(μ−β)`.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use xbar_admission::{AdmissionEngine, Decision, DenyReason, EngineConfig, Event};
use xbar_core::Model;

/// SplitMix64: small, seedable, and independent of the code under test.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Exponential with the given rate.
    pub fn exp(&mut self, rate: f64) -> f64 {
        -(1.0 - self.next_f64()).ln() / rate
    }
}

/// Decision totals of the reference engines over the lines emitted so far.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RefTotals {
    pub offers: u64,
    pub admitted: u64,
    pub denied_capacity: u64,
    pub denied_policy: u64,
    pub departures: u64,
}

/// Per-class tallies for fitting the BPP parameters back from the stream.
#[derive(Clone, Debug, Default)]
struct ClassFit {
    /// Expected holding time spent at each level of `k_r`.
    exposure: Vec<f64>,
    /// Arrivals fired from each level.
    arrivals: Vec<u64>,
    /// Departures fired from each level.
    departures: Vec<u64>,
}

/// One class's stream parameters next to the model's, and goodness-of-fit
/// z-scores of the emitted counts against the model's rates.
#[derive(Clone, Debug)]
pub struct ClassCheck {
    pub class: usize,
    pub offered_load: f64,
    pub model_offered_load: f64,
    pub peakedness: f64,
    pub model_peakedness: f64,
    /// Arrivals against `Σ_k exposure_k · P·λ(k)`.
    pub z_arrivals: f64,
    /// Arrival-weighted level `Σ_k k·arrivals_k` against its expectation:
    /// sensitive to the slope `β`, which the total barely constrains.
    pub z_arrival_levels: f64,
    /// Departures against `Σ_k exposure_k · k·μ`.
    pub z_departures: f64,
}

impl ClassCheck {
    /// Largest absolute z-score.
    pub fn worst_z(&self) -> f64 {
        self.z_arrivals
            .abs()
            .max(self.z_arrival_levels.abs())
            .max(self.z_departures.abs())
    }
}

/// `(observed − expected) / √variance`, for counts whose variance is at
/// most `variance` (each visit fires a given transition with probability
/// `p`, contributing `p(1−p) ≤ p`).
fn z(observed: f64, expected: f64, variance: f64) -> f64 {
    if variance > 0.0 {
        (observed - expected) / variance.sqrt()
    } else {
        0.0
    }
}

struct Chain {
    name: String,
    engine: AdmissionEngine,
}

/// The multi-tenant stream generator.
pub struct StreamGen {
    model: Model,
    tuple: Vec<f64>,
    chains: Vec<Chain>,
    /// Next event time per tenant, as `(time bits, tenant)` — non-negative
    /// finite `f64`s order like their bit patterns.
    due: BinaryHeap<Reverse<(u64, usize)>>,
    rng: Rng,
    fit: Vec<ClassFit>,
    totals: RefTotals,
    emitted: u64,
}

impl StreamGen {
    /// `tenants` chains over `model`, each with a reference engine built
    /// from `engine_cfg`, seeded from `seed`. Also returns the warm-up
    /// prefix: every tenant's first event, in tenant order, so feeding it
    /// opens every tenant.
    pub fn new(
        model: &Model,
        engine_cfg: &EngineConfig,
        tenants: usize,
        seed: u64,
    ) -> (Self, String) {
        let dims = model.dims();
        let perm = |n: u32, a: u32| (n - a + 1..=n).map(f64::from).product::<f64>();
        let tuple = model
            .workload()
            .classes()
            .iter()
            .map(|c| perm(dims.n1, c.bandwidth) * perm(dims.n2, c.bandwidth))
            .collect();
        let levels = dims.min_n() as usize + 1;
        let fit = vec![
            ClassFit {
                exposure: vec![0.0; levels],
                arrivals: vec![0; levels],
                departures: vec![0; levels],
            };
            model.num_classes()
        ];
        let chains = (0..tenants)
            .map(|i| Chain {
                name: format!("t{i:03}"),
                engine: AdmissionEngine::new(model, engine_cfg.clone())
                    .expect("reference engine builds"),
            })
            .collect();
        let mut gen = StreamGen {
            model: model.clone(),
            tuple,
            chains,
            due: BinaryHeap::new(),
            rng: Rng::new(seed),
            fit,
            totals: RefTotals::default(),
            emitted: 0,
        };
        let mut prefix = String::new();
        for i in 0..tenants {
            let first = gen.holding(i);
            gen.fire(i, &mut prefix);
            let next = first + gen.holding(i);
            gen.due.push(Reverse((next.to_bits(), i)));
        }
        (gen, prefix)
    }

    /// Total transition rate of tenant `i`'s current state.
    fn total_rate(&self, i: usize) -> f64 {
        let k = self.chains[i].engine.state();
        self.model
            .workload()
            .classes()
            .iter()
            .enumerate()
            .map(|(r, c)| self.tuple[r] * c.lambda(k[r] as u64) + k[r] as f64 * c.mu)
            .sum()
    }

    fn holding(&mut self, i: usize) -> f64 {
        let rate = self.total_rate(i);
        self.rng.exp(rate)
    }

    /// Append the next event of tenant `i` (fired from its current state)
    /// to `out` as a protocol line.
    fn fire(&mut self, i: usize, out: &mut String) {
        let classes = self.model.workload().classes();
        let k: Vec<u32> = self.chains[i].engine.state().to_vec();
        let rates: Vec<(f64, f64)> = classes
            .iter()
            .enumerate()
            .map(|(r, c)| (self.tuple[r] * c.lambda(k[r] as u64), k[r] as f64 * c.mu))
            .collect();
        let total: f64 = rates.iter().map(|(a, d)| a + d).sum();
        for (r, f) in self.fit.iter_mut().enumerate() {
            f.exposure[k[r] as usize] += 1.0 / total;
        }
        // Subtractive scan; rounding past the end falls back to the last
        // transition with a positive rate.
        let mut pick = self.rng.next_f64() * total;
        let mut event = None;
        'scan: for (r, &(arr, dep)) in rates.iter().enumerate() {
            let slots = [
                (arr, Event::Arrival { class: r }),
                (dep, Event::Departure { class: r }),
            ];
            for (rate, ev) in slots {
                if rate > 0.0 {
                    event = Some(ev);
                    if pick < rate {
                        break 'scan;
                    }
                    pick -= rate;
                }
            }
        }
        let event = event.expect("some transition has a positive rate");
        let (op, r) = match event {
            Event::Arrival { class } => {
                self.fit[class].arrivals[k[class] as usize] += 1;
                ('a', class)
            }
            Event::Departure { class } => {
                self.fit[class].departures[k[class] as usize] += 1;
                ('d', class)
            }
        };
        let decision = self.chains[i]
            .engine
            .apply(event)
            .expect("reference engine accepts its own chain");
        match decision {
            Some(Decision::Admit) => self.totals.admitted += 1,
            Some(Decision::Deny(DenyReason::Capacity)) => self.totals.denied_capacity += 1,
            Some(Decision::Deny(DenyReason::Policy)) => self.totals.denied_policy += 1,
            None => self.totals.departures += 1,
        }
        if op == 'a' {
            self.totals.offers += 1;
        }
        out.push_str(&self.chains[i].name);
        out.push(' ');
        out.push(op);
        out.push(' ');
        out.push_str(&r.to_string());
        out.push('\n');
        self.emitted += 1;
    }

    /// Append the next `lines` events, in event-time order, to `out`
    /// (newline-terminated protocol lines).
    pub fn fill(&mut self, lines: usize, out: &mut String) {
        for _ in 0..lines {
            let Reverse((bits, i)) = self.due.pop().expect("every tenant is scheduled");
            self.fire(i, out);
            let next = f64::from_bits(bits) + self.holding(i);
            self.due.push(Reverse((next.to_bits(), i)));
        }
    }

    /// Lines emitted so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Reference decision totals over every line emitted so far.
    pub fn totals(&self) -> RefTotals {
        self.totals
    }

    /// Fit each class's `α, β, μ` back from the emitted chain and compare
    /// offered load and peakedness with the model's; score the emitted
    /// counts against the counts the model's rates predict for the levels
    /// the chain actually visited.
    pub fn check(&self) -> Vec<ClassCheck> {
        self.model
            .workload()
            .classes()
            .iter()
            .enumerate()
            .map(|(r, c)| {
                let f = &self.fit[r];
                let p = self.tuple[r];
                // Exposure-weighted least squares of the arrival rate on k.
                let (mut w, mut sk, mut skk, mut sy, mut sky) = (0.0, 0.0, 0.0, 0.0, 0.0);
                let (mut dep, mut busy) = (0.0, 0.0);
                let (mut exp_arr, mut exp_lvl, mut var_lvl, mut exp_dep) = (0.0, 0.0, 0.0, 0.0);
                for (k, &e) in f.exposure.iter().enumerate() {
                    let (kf, a) = (k as f64, f.arrivals[k] as f64);
                    w += e;
                    sk += e * kf;
                    skk += e * kf * kf;
                    sy += a;
                    sky += kf * a;
                    dep += f.departures[k] as f64;
                    busy += kf * e;
                    let arr = e * p * c.lambda(k as u64);
                    exp_arr += arr;
                    exp_lvl += kf * arr;
                    var_lvl += kf * kf * arr;
                    exp_dep += e * kf * c.mu;
                }
                let slope = if (w * skk - sk * sk).abs() > 0.0 {
                    (w * sky - sk * sy) / (w * skk - sk * sk)
                } else {
                    0.0
                };
                let alpha = (sy - slope * sk) / w / p;
                let beta = slope / p;
                let mu = dep / busy;
                ClassCheck {
                    class: r,
                    offered_load: alpha / (mu - beta),
                    model_offered_load: c.is_mean(),
                    peakedness: mu / (mu - beta),
                    model_peakedness: c.z_factor(),
                    z_arrivals: z(sy, exp_arr, exp_arr),
                    z_arrival_levels: z(sky, exp_lvl, var_lvl),
                    z_departures: z(dep, exp_dep, exp_dep),
                }
            })
            .collect()
    }
}
