//! Pure helpers behind the reported numbers: order statistics, self time,
//! the outcome digest and the output-correctness checks.

use hcsim_model::TaskOutcome;
use hcsim_sim::SimReport;

/// Samples that must lie beyond a reported percentile for it to mean
/// anything: with fewer, one outlier decides its value.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank index of a percentile, given in tenths of a percent
/// (`990` is p99), in a sorted sample of `n >= 1` values. Integer
/// arithmetic, so p99 of 1000 samples is exactly rank 990.
fn rank(n: usize, permille: usize) -> usize {
    (permille * n).div_ceil(1000).clamp(1, n) - 1
}

/// Number of samples strictly beyond a percentile's rank (tenths of a
/// percent, as in [`Histogram::percentile`]).
#[must_use]
pub fn beyond(n: usize, permille: usize) -> usize {
    if n == 0 {
        0
    } else {
        n - 1 - rank(n, permille)
    }
}

/// Bits of mantissa a [`Histogram`] keeps per power of two.
const SUB_BITS: u32 = 10;
const SUB: usize = 1 << SUB_BITS;

/// Log-linear histogram of nanosecond durations: values below 2^10 are
/// exact, larger ones fall in buckets 1/1024 of their power of two wide,
/// so any percentile read from it is within 0.1% of the sample's own.
/// Its memory is fixed (allocated on first use), so the benchmark's peak
/// RSS does not grow with the number of decisions it times.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    sum: u64,
}

impl Histogram {
    const BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB;

    fn bucket(ns: u64) -> usize {
        if ns < SUB as u64 {
            return ns as usize;
        }
        let exp = 63 - ns.leading_zeros();
        let shift = exp - SUB_BITS;
        let mantissa = (ns >> shift) as usize & (SUB - 1);
        ((shift as usize + 1) << SUB_BITS) | mantissa
    }

    /// Smallest value in bucket `b`, and the bucket's width.
    fn bounds(b: usize) -> (u64, u64) {
        let (tier, mantissa) = (b >> SUB_BITS, (b & (SUB - 1)) as u64);
        if tier == 0 {
            (mantissa, 1)
        } else {
            let shift = tier as u32 - 1;
            ((SUB as u64 | mantissa) << shift, 1 << shift)
        }
    }

    /// Records one duration.
    pub fn record(&mut self, ns: u64) {
        if self.counts.is_empty() {
            self.counts = vec![0; Self::BUCKETS];
        }
        self.counts[Self::bucket(ns)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(ns);
    }

    /// Adds every sample of `other`.
    pub fn merge(&mut self, other: &Histogram) {
        if self.counts.is_empty() {
            self.counts = vec![0; Self::BUCKETS];
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of the samples recorded.
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// The percentile given in tenths of a percent (`500` is the median,
    /// `990` is p99), by nearest rank, as the middle of its bucket; `None`
    /// when fewer than [`MIN_BEYOND`] samples lie beyond it.
    #[must_use]
    pub fn percentile(&self, permille: usize) -> Option<f64> {
        let n = usize::try_from(self.count).ok()?;
        if beyond(n, permille) < MIN_BEYOND {
            return None;
        }
        let target = rank(n, permille) as u64;
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen > target {
                let (lo, width) = Self::bounds(b);
                return Some(lo as f64 + (width - 1) as f64 / 2.0);
            }
        }
        None
    }
}

/// The highest of `candidates` (tenths of a percent) that still has
/// [`MIN_BEYOND`] samples beyond it in a sample of `n` values.
#[must_use]
pub fn highest_supported(n: usize, candidates: &[usize]) -> Option<usize> {
    candidates.iter().copied().filter(|&p| beyond(n, p) >= MIN_BEYOND).max()
}

/// Median of a non-empty sample (mean of the middle pair when even).
///
/// # Panics
///
/// Panics on an empty sample.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// A layer's self time: its span minus the child spans nested inside it.
/// Saturates at zero, since clock reads on either side of a child call
/// can make the children add up to slightly more than the parent.
#[must_use]
pub fn self_time(span_ns: u64, children_ns: &[u64]) -> u64 {
    span_ns.saturating_sub(children_ns.iter().sum())
}

/// 64-bit FNV-1a, folded over successive byte strings.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds `bytes` into the digest.
    pub fn feed(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// The digest value.
    #[must_use]
    pub fn value(self) -> u64 {
        self.0
    }
}

/// Streams formatted text into the digest, so hashing a report's `Debug`
/// rendering allocates nothing.
impl std::fmt::Write for Digest {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.feed(s.as_bytes());
        Ok(())
    }
}

/// Digest of a report's full contents: every record, metric and counter,
/// through its `Debug` rendering, which is how the repository's own
/// bit-identity tests compare reports. Any difference between two reports
/// changes the digest, barring a 64-bit collision.
#[must_use]
pub fn report_digest(report: &SimReport) -> u64 {
    use std::fmt::Write;
    let mut d = Digest::default();
    write!(d, "{report:?}").expect("a digest accepts every string");
    d.value()
}

/// True when `report` holds exactly one terminal record per task of a
/// trial with `n_tasks` tasks whose ids are `0..n_tasks`: record `i`
/// belongs to task `i` and none was left unfinished.
#[must_use]
pub fn one_terminal_record_per_task(report: &SimReport, n_tasks: usize) -> bool {
    report.records.len() == n_tasks
        && report
            .records
            .iter()
            .enumerate()
            .all(|(i, r)| r.task.id.index() == i && r.outcome != TaskOutcome::Unfinished)
}

/// Output checks made during a run: how many were attempted, and a line
/// for each that failed.
#[derive(Debug, Default)]
pub struct Checks {
    /// Checks attempted.
    pub attempted: u64,
    /// One description per failed check.
    pub failures: Vec<String>,
}

impl Checks {
    /// Records one check; `what` describes it when it fails.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    /// Failed checks.
    #[must_use]
    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn histogram(values: impl IntoIterator<Item = u64>) -> Histogram {
        let mut h = Histogram::default();
        for v in values {
            h.record(v);
        }
        h
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let h = histogram((1..=1000).map(|v| v * 4));
        assert_eq!(h.percentile(500), Some(2000.0), "exact below 2048");
        assert_eq!(h.percentile(990), Some(3960.5), "3960 shares a 2-wide bucket with 3961");
        assert_eq!(beyond(1000, 990), 10);
        assert_eq!(h.percentile(999), None, "only one sample beyond p99.9");
        assert_eq!(histogram(1..=999).percentile(990), None, "nine beyond p99 at n = 999");
        assert_eq!(Histogram::default().percentile(500), None);
        assert_eq!((h.count(), h.sum()), (1000, 2_002_000));
    }

    #[test]
    fn histogram_buckets_hold_their_values_within_a_1024th() {
        for v in [0u64, 1, 1023, 1024, 2047, 2048, 1_000_003, 123_456_789, u64::MAX / 3] {
            let (lo, width) = Histogram::bounds(Histogram::bucket(v));
            assert!(lo <= v && v - lo < width, "{v} outside [{lo}, {lo}+{width})");
            assert!(width == 1 || (width as f64) <= lo as f64 / 1024.0, "{v}: width {width}");
        }
        let mut a = histogram([10, 20]);
        a.merge(&histogram([30]));
        assert_eq!((a.count(), a.sum(), a.percentile(500)), (3, 60, None));
    }

    #[test]
    fn highest_supported_percentile_is_chosen() {
        let candidates = [500, 900, 990, 999];
        assert_eq!(highest_supported(10_000, &candidates), Some(999));
        assert_eq!(highest_supported(9_999, &candidates), Some(990));
        assert_eq!(highest_supported(1_000, &candidates), Some(990));
        assert_eq!(highest_supported(999, &candidates), Some(900));
        assert_eq!(highest_supported(100, &candidates), Some(900));
        assert_eq!(highest_supported(20, &candidates), Some(500));
        assert_eq!(highest_supported(19, &candidates), None);
    }

    #[test]
    fn self_time_subtracts_children_and_saturates() {
        assert_eq!(self_time(1_000, &[300, 200]), 500);
        assert_eq!(self_time(1_000, &[]), 1_000);
        assert_eq!(self_time(100, &[80, 30]), 0, "clock skew never goes negative");
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn checks_count_failures_against_attempts() {
        let mut c = Checks::default();
        c.check(true, || "never".into());
        c.check(false, || "broken".into());
        assert_eq!((c.attempted, c.failed()), (2, 1));
        assert_eq!(c.failures, vec!["broken".to_string()]);
    }
}

#[cfg(test)]
mod report_checks {
    use super::*;
    use hcsim_core::{HeuristicKind, PruningConfig};
    use hcsim_sim::{run_simulation, SimConfig};
    use hcsim_stats::SeedSequence;
    use hcsim_workload::{specint_system, WorkloadConfig, WorkloadGenerator};

    fn small_report() -> (SimReport, usize) {
        let seeds = SeedSequence::new(5);
        let spec = specint_system(6, &mut seeds.stream(0));
        let tasks = WorkloadGenerator::new(WorkloadConfig {
            num_tasks: 60,
            oversubscription: 34_000.0,
            ..WorkloadConfig::default()
        })
        .generate(&spec, &mut seeds.stream(1));
        let mut mapper = HeuristicKind::Pam.build(PruningConfig::default());
        let report = run_simulation(
            &spec,
            SimConfig::untrimmed(),
            &tasks,
            &mut mapper,
            &mut seeds.stream(2),
        );
        (report, tasks.len())
    }

    #[test]
    fn corrupted_reports_count_as_failed() {
        let (report, n) = small_report();
        let mut checks = Checks::default();
        checks.check(one_terminal_record_per_task(&report, n), || "intact".into());
        assert_eq!(checks.failed(), 0, "the intact report passes");

        let mut missing = report.clone();
        missing.records.pop();
        let mut duplicated = report.clone();
        duplicated.records[1] = duplicated.records[0];
        let mut unfinished = report.clone();
        unfinished.records[0].outcome = TaskOutcome::Unfinished;
        for (what, bad) in
            [("missing", &missing), ("duplicated", &duplicated), ("unfinished", &unfinished)]
        {
            checks.check(one_terminal_record_per_task(bad, n), || what.into());
        }
        assert_eq!(checks.failures, vec!["missing", "duplicated", "unfinished"]);
    }

    #[test]
    fn digest_sees_any_change_to_a_report() {
        let (report, _) = small_report();
        let mut shifted = report.clone();
        shifted.records[5].finished_at += 1;
        let mut recosted = report.clone();
        recosted.total_cost += 1e-9;
        assert_eq!(report_digest(&report), report_digest(&report.clone()));
        assert_ne!(report_digest(&shifted), report_digest(&report));
        assert_ne!(report_digest(&recosted), report_digest(&report));
    }
}
