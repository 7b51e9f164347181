use xbar_perfbench::stats::{
    error_rate, honest_tail, mean, median, percentile, samples_needed, Summary, TAIL_MIN_BEYOND,
};

fn ramp(n: usize) -> Vec<f64> {
    // Shuffled 1..=n so the helpers must sort.
    (0..n).map(|i| ((i * 7919) % n + 1) as f64).collect()
}

#[test]
fn median_of_odd_and_even_counts() {
    assert_eq!(median(&[]), None);
    assert_eq!(median(&[3.0]), Some(3.0));
    assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
}

#[test]
fn mean_of_samples() {
    assert_eq!(mean(&[]), None);
    assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
}

#[test]
fn percentile_is_nearest_rank() {
    let xs = ramp(1000);
    assert_eq!(percentile(&xs, 0.99), Some(990.0));
    assert_eq!(percentile(&xs, 0.5), Some(500.0));
    assert_eq!(percentile(&xs, 1.0), Some(1000.0));
    assert_eq!(percentile(&[7.0], 0.99), Some(7.0));
    assert_eq!(percentile(&[], 0.5), None);
}

#[test]
fn samples_needed_leaves_ten_beyond() {
    assert_eq!(samples_needed(0.99), 1000);
    assert_eq!(samples_needed(0.9), 100);
    assert_eq!(samples_needed(0.5), 20);
    assert_eq!(samples_needed(0.999), 10_000);
}

#[test]
fn tail_is_named_by_what_the_sample_supports() {
    assert_eq!(honest_tail(&ramp(19)), None);
    assert_eq!(honest_tail(&ramp(20)).map(|t| t.0), Some("p50"));
    assert_eq!(honest_tail(&ramp(999)).map(|t| t.0), Some("p90"));
    assert_eq!(honest_tail(&ramp(1000)), Some(("p99", 990.0)));
    assert_eq!(honest_tail(&ramp(20_000)).map(|t| t.0), Some("p999"));
}

#[test]
fn reported_tail_has_at_least_ten_samples_beyond_it() {
    for n in [20, 57, 100, 640, 1000, 4321, 10_000] {
        let xs = ramp(n);
        let (_, v) = honest_tail(&xs).unwrap();
        let beyond = xs.iter().filter(|&&x| x > v).count();
        assert!(beyond >= TAIL_MIN_BEYOND, "n={n}: {beyond} beyond {v}");
    }
}

#[test]
fn summary_carries_the_sample_count() {
    let s = Summary::of(&ramp(1000)).unwrap();
    assert_eq!(s.n, 1000);
    assert_eq!(s.p50, 500.5);
    assert!(s.describe(1).contains("p99=990.0 (n=1000)"));
    assert!(Summary::of(&[1.0, 2.0])
        .unwrap()
        .describe(0)
        .contains("no tail"));
    assert_eq!(Summary::of(&[]), None);
}

#[test]
fn error_rate_counts_failures_over_attempts() {
    assert_eq!(error_rate(0, 0), 0.0);
    assert_eq!(error_rate(0, 10), 0.0);
    assert_eq!(error_rate(1, 4), 0.25);
}
