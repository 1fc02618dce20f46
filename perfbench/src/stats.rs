//! Seeded input generation and the statistics rules every workload shares:
//! the seed mixer and RNG, the Zipf sampler, the percentile rule and the
//! open-loop ladder rule.

/// SplitMix64 finalizer: derives independent sub-seeds from the run seed so
/// every input stream (queries, request mix, client threads) is a pure
/// function of `--seed`.
pub fn mix(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A small deterministic RNG (SplitMix64 stream).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0, 0)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_f64() * n as f64) as usize % n
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Zipf(s) over ranks `0..n`: rank `r` is drawn with probability
/// proportional to `1 / (r + 1)^s`, so rank 0 is the most popular.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "Zipf needs at least one rank");
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|r| {
                acc += 1.0 / ((r + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// Probability mass of the `k` most popular ranks.
    pub fn head_mass(&self, k: usize) -> f64 {
        if k == 0 {
            0.0
        } else {
            self.cdf[k.min(self.cdf.len()) - 1]
        }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.next_f64();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// Nearest-rank percentile of an ascending slice (`p` in percent).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[nearest_rank(sorted.len(), p) - 1]
}

fn nearest_rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of unsorted values (`0` for none).
pub fn percentile_of(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, p)
}

/// Median of unsorted values (`0` for none).
pub fn median(values: &[f64]) -> f64 {
    percentile_of(values, 50.0)
}

/// Mean of values (`0` for none).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Percentiles the tail rule may report, highest first. The ladder stops at
/// p99 because the open-loop latency limit is stated on p99.
pub const TAIL_LADDER: [f64; 5] = [99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples a reported percentile must have beyond it.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The percentile rule: the highest percentile of [`TAIL_LADDER`] with at
/// least [`TAIL_MIN_BEYOND`] samples strictly beyond its nearest rank, or
/// `None` when even the median has fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .find(|&p| n >= 1 && n - nearest_rank(n, p) >= TAIL_MIN_BEYOND)
}

/// A latency distribution reduced by the percentile rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub count: usize,
    pub p50: f64,
    /// The percentile [`tail_percentile`] chose (`50` when too few samples).
    pub tail_pct: f64,
    pub tail: f64,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        if samples.is_empty() {
            return Summary {
                count: 0,
                p50: 0.0,
                tail_pct: 50.0,
                tail: 0.0,
            };
        }
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        let tail_pct = tail_percentile(v.len()).unwrap_or(50.0);
        Summary {
            count: v.len(),
            p50: percentile(&v, 50.0),
            tail_pct,
            tail: percentile(&v, tail_pct),
        }
    }

    /// `p99 over 51234 samples`-style label for the report.
    pub fn describe(&self) -> String {
        format!("p{} over {} samples", self.tail_pct, self.count)
    }
}

/// What one open-loop rate step measured.
#[derive(Debug, Clone, PartialEq)]
pub struct StepOutcome {
    pub rate: f64,
    /// Latency distribution timed from each request's due time (µs).
    pub latency: Summary,
    /// Requests shed, expired, refused or failed during the step.
    pub failed: u64,
    /// In-flight requests sampled over the step, in time order.
    pub backlog: Vec<u32>,
}

/// The backlog grows when the in-flight count over the last quarter of the
/// step averages well above the first quarter: more than double, and more
/// than a full default batch (32) higher, so batching jitter never trips it.
pub fn backlog_grows(samples: &[u32]) -> bool {
    let q = samples.len() / 4;
    if q == 0 {
        return false;
    }
    let avg = |s: &[u32]| s.iter().map(|&x| f64::from(x)).sum::<f64>() / s.len() as f64;
    let first = avg(&samples[..q]);
    let last = avg(&samples[samples.len() - q..]);
    last > 2.0 * first && last - first > 32.0
}

/// The ladder rule for one step: p99 from due time within `limit_us`, no
/// failed request, no growing backlog, and enough samples that p99 is
/// backed by the percentile rule.
pub fn step_passes(step: &StepOutcome, limit_us: f64) -> bool {
    step.failed == 0
        && step.latency.tail_pct >= 99.0
        && step.latency.tail <= limit_us
        && !backlog_grows(&step.backlog)
}

/// Highest ladder rate that passes together with every lower rate (`0` when
/// the lowest fails). A pass above a failing step is noise, not capacity.
pub fn max_passing_rate(steps: &[StepOutcome], limit_us: f64) -> f64 {
    let mut sorted: Vec<&StepOutcome> = steps.iter().collect();
    sorted.sort_by(|a, b| a.rate.total_cmp(&b.rate));
    let mut best = 0.0;
    for s in sorted {
        if !step_passes(s, limit_us) {
            break;
        }
        best = s.rate;
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(0), None);
    }

    #[test]
    fn summary_reports_rank_and_count() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = Summary::of(&samples);
        assert_eq!(s.count, 1000);
        assert_eq!(s.p50, 500.0);
        assert_eq!(s.tail_pct, 99.0);
        assert_eq!(s.tail, 990.0);
        assert_eq!(s.describe(), "p99 over 1000 samples");
        let few = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((few.p50, few.tail_pct, few.tail), (2.0, 50.0, 2.0));
    }

    #[test]
    fn zipf_is_skewed_and_matches_its_mass() {
        let z = Zipf::new(1000, 1.0);
        let mut rng = Rng::new(7);
        let mut counts = vec![0u32; 1000];
        let draws = 200_000;
        for _ in 0..draws {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[1] && counts[1] > counts[9] && counts[9] > counts[99]);
        let head = counts[..10].iter().map(|&c| f64::from(c)).sum::<f64>() / draws as f64;
        assert!((head - z.head_mass(10)).abs() < 0.01, "head {head}");
        // Harmonic numbers: H(10)/H(1000) ≈ 2.929/7.485.
        assert!((z.head_mass(10) - 0.3913).abs() < 1e-3);
        assert_eq!(z.head_mass(1000), 1.0);
    }

    #[test]
    fn uniform_zipf_covers_every_rank() {
        let z = Zipf::new(4, 0.0);
        let mut rng = Rng::new(1);
        let mut seen = [false; 4];
        for _ in 0..100 {
            seen[z.sample(&mut rng)] = true;
        }
        assert_eq!(seen, [true; 4]);
    }

    #[test]
    fn same_seed_same_stream_other_seed_differs() {
        let draw = |seed| {
            let mut rng = Rng::new(mix(seed, 3));
            let z = Zipf::new(500, 1.1);
            (0..64).map(|_| z.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(42), draw(42));
        assert_ne!(draw(42), draw(43));
        assert_ne!(mix(42, 1), mix(42, 2));
        let mut a: Vec<u32> = (0..50).collect();
        let mut b = a.clone();
        Rng::new(9).shuffle(&mut a);
        Rng::new(9).shuffle(&mut b);
        assert_eq!(a, b);
    }

    fn step(rate: f64, p99: f64, failed: u64, backlog: Vec<u32>) -> StepOutcome {
        StepOutcome {
            rate,
            latency: Summary {
                count: 2000,
                p50: p99 / 2.0,
                tail_pct: 99.0,
                tail: p99,
            },
            failed,
            backlog,
        }
    }

    #[test]
    fn ladder_rule() {
        let flat = vec![3, 4, 2, 5, 3, 4, 3, 2];
        assert!(step_passes(&step(1000.0, 900.0, 0, flat.clone()), 1000.0));
        assert!(!step_passes(&step(1000.0, 1100.0, 0, flat.clone()), 1000.0));
        assert!(!step_passes(&step(1000.0, 500.0, 1, flat.clone()), 1000.0));
        let growing = vec![2, 3, 10, 40, 80, 120, 160, 200];
        assert!(backlog_grows(&growing));
        assert!(!backlog_grows(&flat));
        assert!(!step_passes(&step(1000.0, 500.0, 0, growing), 1000.0));
        // Too few samples for a p99: not a pass.
        let mut thin = step(1000.0, 500.0, 0, flat.clone());
        thin.latency.tail_pct = 95.0;
        assert!(!step_passes(&thin, 1000.0));

        let steps = vec![
            step(4000.0, 300.0, 0, flat.clone()),
            step(2000.0, 200.0, 0, flat.clone()),
            step(8000.0, 1500.0, 0, flat.clone()),
            step(16000.0, 400.0, 0, flat.clone()),
        ];
        // 16k passes but sits above a failing 8k step: capacity is 4k.
        assert_eq!(max_passing_rate(&steps, 1000.0), 4000.0);
        assert_eq!(max_passing_rate(&steps[2..3], 1000.0), 0.0);
    }
}
