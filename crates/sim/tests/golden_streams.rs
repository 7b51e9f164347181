//! Golden event-stream fingerprints pinning the hot-loop rewrite.
//!
//! These counters and f64 bit patterns were captured from the legacy
//! rebuild-every-event loops (pre-PR 10) at fixed seeds. The incremental
//! loops must reproduce them *bit for bit*: the resident rate table
//! re-sums totals in the legacy fold order and keeps the legacy
//! subtractive selection scan, so any divergence here means the
//! bit-compatibility contract in `crates/sim/src/rates.rs` broke.
//!
//! The `sim-ci` time averages and the two fault reports further down were
//! captured from the crossbar loop that kept live circuits in a `HashMap`
//! and recomputed availabilities per event, before the slot table and
//! the availability rows replaced them.

use xbar_admission::{EngineConfig, PolicySpec};
use xbar_core::{Dims, Model};
use xbar_sim::{replay, CrossbarSim, FaultConfig, ReplayConfig, RunConfig, SimConfig, SimReport};
use xbar_traffic::{TrafficClass, Workload};

fn run_crossbar(cfg: SimConfig, seed: u64) -> (u64, Vec<(u64, u64, u64)>, u64) {
    let mut sim = CrossbarSim::new(cfg, seed);
    let rep = sim.run(RunConfig {
        warmup: 50.0,
        duration: 5_000.0,
        batches: 10,
    });
    let classes = rep
        .classes
        .iter()
        .map(|c| (c.offered, c.blocked, c.blocking.mean.to_bits()))
        .collect();
    (rep.events, classes, rep.revenue.to_bits())
}

#[test]
fn crossbar_streams_match_the_legacy_loop_bit_for_bit() {
    let (events, classes, revenue) = run_crossbar(
        SimConfig::new(4, 4).with_exp_class(TrafficClass::poisson(0.2)),
        7,
    );
    assert_eq!(events, 23_185);
    assert_eq!(classes, vec![(16_010, 8_834, 0x3fe1_a797_a57e_8c4d)]);
    assert_eq!(revenue, 0x3ff7_4051_f5f4_5a83);

    let (events, classes, revenue) = run_crossbar(
        SimConfig::new(6, 8)
            .with_exp_class(TrafficClass::poisson(0.1))
            .with_exp_class(TrafficClass::bpp(0.08, 0.04, 1.0))
            .with_exp_class(TrafficClass::poisson(0.02).with_bandwidth(2)),
        99,
    );
    assert_eq!(events, 235_176);
    assert_eq!(
        classes,
        vec![
            (24_172, 19_974, 0x3fea_71ab_2959_2aee),
            (27_802, 23_293, 0x3fea_cf10_5876_ff21),
            (168_560, 162_625, 0x3fee_df8e_adf3_cbeb),
        ]
    );
    assert_eq!(revenue, 0x4007_9f08_4888_3e7a);

    let (events, classes, revenue) = run_crossbar(
        SimConfig::new(3, 3).with_exp_class(TrafficClass::bpp(0.64, -0.04, 1.0)),
        13,
    );
    assert_eq!(events, 33_788);
    assert_eq!(classes, vec![(25_909, 18_029, 0x3fe6_441d_cf70_9624)]);
    assert_eq!(revenue, 0x3ff8_fd0d_f824_cdb9);
}

#[test]
fn replay_streams_match_the_legacy_loop_bit_for_bit() {
    let w = Workload::new()
        .with(TrafficClass::poisson(0.1))
        .with(TrafficClass::bpp(0.08, 0.04, 1.0));
    let model = Model::new(Dims::new(6, 8), w).unwrap();
    let run = |policy: PolicySpec, seed: u64| {
        let rep = replay(
            &model,
            &ReplayConfig {
                events: 50_000,
                seed,
                batches: 20,
                engine: EngineConfig {
                    policy,
                    ..EngineConfig::default()
                },
            },
        )
        .unwrap();
        let classes: Vec<(u64, u64, u64, u64, u64)> = rep
            .classes
            .iter()
            .map(|c| {
                (
                    c.offered,
                    c.admitted,
                    c.denied_capacity,
                    c.denied_policy,
                    c.acceptance.mean.to_bits(),
                )
            })
            .collect();
        (rep.arrivals, rep.departures, classes)
    };

    let (arrivals, departures, classes) = run(PolicySpec::CompleteSharing, 9);
    assert_eq!((arrivals, departures), (39_362, 10_638));
    assert_eq!(
        classes,
        vec![
            (15_486, 4_601, 10_885, 0, 0x3fd2_ff3c_e36f_153a),
            (23_876, 6_040, 17_836, 0, 0x3fd0_30ab_e4f2_dff3),
        ]
    );

    let (arrivals, departures, classes) = run(PolicySpec::TrunkReservation(vec![0, 3]), 77);
    assert_eq!((arrivals, departures), (39_572, 10_428));
    assert_eq!(
        classes,
        vec![
            (18_088, 6_674, 11_414, 0, 0x3fd7_9c36_1ae6_ef8e),
            (21_484, 3_758, 13_822, 3_904, 0x3fc6_64bd_4cd0_96dd),
        ]
    );

    let (arrivals, departures, classes) = run(PolicySpec::ShadowPrice { reserve: 1 }, 11);
    assert_eq!((arrivals, departures), (39_396, 10_604));
    assert_eq!(
        classes,
        vec![
            (15_447, 4_559, 10_888, 0, 0x3fd2_e3fa_8c06_922a),
            (23_949, 6_047, 17_902, 0, 0x3fd0_2a02_f802_7f56),
        ]
    );
}

/// The `sim-ci` benchmark crossbar: 12×12 with Poisson, Bernoulli and
/// Pascal classes, two of them with bandwidth `a = 2`.
fn sim_ci_config() -> SimConfig {
    [
        TrafficClass::poisson(0.005),
        TrafficClass::bpp(0.005, -0.0001, 1.0),
        TrafficClass::bpp(0.0025, 0.002, 1.0),
        TrafficClass::poisson(0.00003).with_bandwidth(2),
        TrafficClass::bpp(0.00002, 0.00001, 1.0).with_bandwidth(2),
    ]
    .into_iter()
    .fold(SimConfig::new(12, 12), |cfg, c| cfg.with_exp_class(c))
}

fn golden_run(cfg: SimConfig, seed: u64) -> SimReport {
    CrossbarSim::new(cfg, seed).run(RunConfig {
        warmup: 50.0,
        duration: 5_000.0,
        batches: 10,
    })
}

/// `(offered, blocked, fault_blocked)` per class plus the fault report
/// with its time averages as bit patterns.
fn fault_fingerprint(rep: &SimReport) -> (Vec<(u64, u64, u64)>, [u64; 6]) {
    let classes = rep
        .classes
        .iter()
        .map(|c| (c.offered, c.blocked, c.fault_blocked))
        .collect();
    let f = rep.faults.as_ref().expect("fault injection enabled");
    (
        classes,
        [
            f.failures,
            f.repairs,
            f.torn_down,
            f.fault_blocked,
            f.mean_failed_inputs.to_bits(),
            f.mean_failed_outputs.to_bits(),
        ],
    )
}

#[test]
fn sim_ci_crossbar_time_averages_match_bit_for_bit() {
    let rep = golden_run(sim_ci_config(), 11);
    assert_eq!(rep.events, 22_695);
    let avail: Vec<u64> = rep
        .classes
        .iter()
        .map(|c| c.availability.mean.to_bits())
        .collect();
    assert_eq!(
        avail,
        vec![
            0x3fe5_dbf5_d6b7_d046,
            0x3fe5_dbf5_d6b7_d046,
            0x3fe5_dbf5_d6b7_d046,
            0x3fdf_36ba_2179_b91a,
            0x3fdf_36ba_2179_b91a,
        ]
    );
    let conc: Vec<u64> = rep
        .classes
        .iter()
        .map(|c| c.concurrency.mean.to_bits())
        .collect();
    assert_eq!(
        conc,
        vec![
            0x3fe0_9960_c0eb_706c,
            0x3fde_a9a3_cb85_791f,
            0x3fd3_4f1c_7248_000a,
            0x3fd0_be1e_352e_c228,
            0x3fc7_0796_3791_7182,
        ]
    );
    let occ: Vec<u64> = rep.occupancy.iter().map(|p| p.to_bits()).collect();
    assert_eq!(
        occ,
        vec![
            0x3fbf_5c99_d464_8234,
            0x3fcb_2a8c_2617_e88d,
            0x3fd1_803d_b2a0_c8a4,
            0x3fcb_74f2_b7d0_ff17,
            0x3fbf_8f02_92cb_94e4,
            0x3fa4_6154_69b3_fe18,
            0x3f88_1e31_ad7b_172d,
            0x3f63_ab8f_dd03_53d0,
            0x3f05_1148_4bd4_1206,
            0,
            0,
            0,
            0,
        ]
    );
}

#[test]
fn dynamic_fault_report_matches_bit_for_bit() {
    // Fast fail/repair on a 4×4 switch with a bandwidth-2 class: hundreds
    // of circuits are torn down, so stale departures are frequent.
    let cfg = SimConfig::new(4, 4)
        .with_exp_class(TrafficClass::poisson(0.2))
        .with_exp_class(TrafficClass::poisson(0.05).with_bandwidth(2))
        .with_faults(FaultConfig::from_mtbf_mttr(50.0, 10.0));
    let (classes, report) = fault_fingerprint(&golden_run(cfg, 17));
    assert_eq!(
        classes,
        vec![(16_099, 12_547, 5_099), (36_131, 33_843, 19_143)]
    );
    assert_eq!(
        report,
        [
            687,
            688,
            343,
            24_242,
            0x3fe6_c01f_3647_19a9,
            0x3fe6_15ab_9767_fef7,
        ]
    );
}

#[test]
fn static_fault_report_matches_bit_for_bit() {
    let cfg = SimConfig::new(6, 6)
        .with_exp_class(TrafficClass::poisson(0.3))
        .with_exp_class(TrafficClass::bpp(0.08, 0.04, 1.0).with_bandwidth(2))
        .with_faults(FaultConfig::none().with_static_failures(2, 1));
    let (classes, report) = fault_fingerprint(&golden_run(cfg, 23));
    assert_eq!(
        classes,
        vec![(54_148, 48_922, 24_097), (518_502, 514_031, 379_799)]
    );
    assert_eq!(
        report,
        [
            0,
            0,
            0,
            403_896,
            0x4000_0000_0000_0000,
            0x3ff0_0000_0000_0000
        ]
    );
}
