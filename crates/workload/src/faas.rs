//! Serverless (FaaS) workload shape per the sequel paper
//! (arXiv:1905.04456).
//!
//! The follow-up study moves probabilistic task pruning from batch HC
//! clusters to a serverless platform, which changes the workload in three
//! structural ways:
//!
//! 1. **Many small task types.** Instead of 12 benchmark-sized programs,
//!    the system serves dozens of *functions* with millisecond-scale
//!    execution times drawn from a geometric ladder (most functions
//!    short, a few long — the log-uniform shape of production FaaS
//!    traces).
//! 2. **Skewed, bursty traffic at much higher intensity.** Function
//!    popularity follows a Zipf law, and each function's inter-arrival
//!    times are gamma with shape < 1 (coefficient of variation > 1 —
//!    bursts and gaps, not a smooth trickle). The default
//!    oversubscription is 10× the classic `trial_200t_34k` setting.
//! 3. **Cold starts.** The generated [`SystemSpec`] carries a
//!    [`ColdStartModel`]: per-(function, machine) container spin-up PMFs
//!    5–15× the execution mean, and a keep-alive window after which a
//!    warm container expires. The scorer convolves spin-up onto cold
//!    placements; the pruner's Eq. 6 worth then operates on the
//!    cold-or-warm completion PMF.
//!
//! [`faas_system`] builds the platform (tiling the eight §VI-A hardware
//! profiles to `num_machines` nodes); [`FaasGenerator`] produces the
//! request trace. Both are deterministic per RNG stream.

use crate::gen::WorkloadConfig;
use crate::specint::{affinity, PRICES, SPEED};
use hcsim_model::{
    ColdStartModel, MachineSpec, PetBuilder, PriceTable, SpecMemo, SystemSpec, Task, TaskId,
    TaskTypeId, TaskTypeSpec, Time,
};
use hcsim_stats::Gamma;
use serde::{Deserialize, Serialize};

/// Parameters of a serverless trial: platform shape, traffic shape, and
/// the cold-start model.
///
/// ```
/// use hcsim_workload::FaasConfig;
///
/// let cfg = FaasConfig::default();
/// // The default intensity is 10x the classic trial_200t_34k setting.
/// assert!(cfg.aggregate_arrival_rate() >= 10.0 * (34_000.0 / 150_000.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaasConfig {
    /// Number of function classes (task types) the platform serves.
    pub num_functions: usize,
    /// Number of worker nodes (the eight §VI-A hardware profiles tiled).
    pub num_machines: usize,
    /// Per-machine queue capacity, counting the executing request.
    pub queue_capacity: usize,
    /// Number of requests actually generated per trial.
    pub num_tasks: usize,
    /// Simulated window the oversubscription level refers to.
    pub span: Time,
    /// Nominal request count over `span` — same x-axis as the batch
    /// workload's oversubscription level, but an order of magnitude up.
    pub oversubscription: f64,
    /// Zipf exponent of function popularity (`weight ∝ rank^-s`); larger
    /// = more skewed toward the hot functions.
    pub zipf_s: f64,
    /// Gamma shape of per-function inter-arrival times. Shape < 1 means
    /// coefficient of variation > 1: bursts separated by gaps.
    pub burst_shape: f64,
    /// Slack coefficient β of the deadline formula
    /// `δᵢ = arrᵢ + avgᵢ + β·avg_all`.
    pub slack_beta: f64,
    /// Container spin-up mean as a multiple of the cell's execution mean,
    /// interpolated across functions between these two factors.
    pub spinup_factor: (f64, f64),
    /// Keep-alive window: how long a container stays warm after its
    /// function completes.
    pub keep_alive: Time,
}

impl Default for FaasConfig {
    fn default() -> Self {
        Self {
            num_functions: 48,
            num_machines: 32,
            queue_capacity: 6,
            num_tasks: 2_500,
            span: 150_000,
            // >10x the classic trial_200t_34k arrival intensity (with
            // margin so the multiple survives float rounding).
            oversubscription: 350_000.0,
            zipf_s: 1.2,
            burst_shape: 0.35,
            slack_beta: 4.0,
            spinup_factor: (5.0, 15.0),
            keep_alive: 60,
        }
    }
}

impl FaasConfig {
    /// Aggregate request rate in requests per time unit.
    #[must_use]
    pub fn aggregate_arrival_rate(&self) -> f64 {
        self.oversubscription / self.span as f64
    }

    /// How many times the classic workload's arrival intensity this
    /// configuration generates (the acceptance gate of the serverless
    /// scenario quotes this multiple).
    #[must_use]
    pub fn intensity_multiple_of(&self, classic: &WorkloadConfig, task_types: usize) -> f64 {
        self.aggregate_arrival_rate() / classic.aggregate_arrival_rate(task_types)
    }

    /// Normalized Zipf popularity weights, hottest function first.
    #[must_use]
    pub fn popularity(&self) -> Vec<f64> {
        let raw: Vec<f64> =
            (0..self.num_functions).map(|f| ((f + 1) as f64).powf(-self.zipf_s)).collect();
        let total: f64 = raw.iter().sum();
        raw.into_iter().map(|w| w / total).collect()
    }

    /// Validates parameter sanity.
    ///
    /// # Panics
    ///
    /// Panics on non-positive or non-finite parameters.
    pub fn validate(&self) {
        assert!(self.num_functions > 0, "num_functions must be positive");
        assert!(self.num_machines > 0, "num_machines must be positive");
        assert!(self.queue_capacity > 0, "queue_capacity must be positive");
        assert!(self.num_tasks > 0, "num_tasks must be positive");
        assert!(self.span > 0, "span must be positive");
        assert!(
            self.oversubscription.is_finite() && self.oversubscription > 0.0,
            "oversubscription must be positive"
        );
        assert!(self.zipf_s.is_finite() && self.zipf_s >= 0.0, "zipf_s must be non-negative");
        assert!(
            self.burst_shape.is_finite() && self.burst_shape > 0.0,
            "burst_shape must be positive"
        );
        assert!(
            self.slack_beta.is_finite() && self.slack_beta >= 0.0,
            "slack_beta must be non-negative"
        );
        let (lo, hi) = self.spinup_factor;
        assert!(
            lo.is_finite() && hi.is_finite() && 0.0 < lo && lo <= hi,
            "spinup_factor must be an ordered positive pair"
        );
    }
}

/// Geometric ladder of function base costs in milliseconds: most
/// functions land on the short rungs, a few on the long ones — the
/// log-uniform execution-time shape of production FaaS traces.
const FAAS_BASE_MS: [f64; 9] = [2.0, 3.0, 4.5, 7.0, 10.0, 15.0, 22.0, 33.0, 50.0];

/// The mean execution-time matrix of a FaaS platform: function base cost
/// (geometric ladder) × tiled machine speed factor × the same affinity
/// perturbation the batch system uses, clamped to [1, 80] ms.
#[must_use]
pub fn faas_means(num_functions: usize, num_machines: usize) -> Vec<Vec<f64>> {
    (0..num_functions)
        .map(|f| {
            // ×5 walks the full ladder in a mixed order so adjacent
            // popularity ranks get unrelated sizes.
            let base = FAAS_BASE_MS[(f * 5 + 3) % FAAS_BASE_MS.len()];
            (0..num_machines)
                .map(|m| (base * SPEED[m % 8] * (1.0 + affinity(f, m))).clamp(1.0, 80.0))
                .collect()
        })
        .collect()
}

/// Per-function spin-up factor: interpolates across `(lo, hi)` on a
/// 7-cycle so image sizes do not correlate with execution length.
fn spinup_factor(cfg: &FaasConfig, f: usize) -> f64 {
    let (lo, hi) = cfg.spinup_factor;
    lo + (hi - lo) * ((f * 3) % 7) as f64 / 6.0
}

/// Builds the serverless platform: `num_machines` nodes tiling the eight
/// §VI-A hardware profiles, `num_functions` function classes with
/// millisecond-scale gamma PETs, and a [`ColdStartModel`] whose spin-up
/// means are `spinup_factor` × the execution means.
///
/// PET and spin-up construction consume randomness from `rng`; pass a
/// dedicated stream so trace generation elsewhere stays reproducible.
#[must_use]
pub fn faas_system<R: rand::Rng>(cfg: &FaasConfig, rng: &mut R) -> SystemSpec {
    cfg.validate();
    let exec_means = faas_means(cfg.num_functions, cfg.num_machines);
    let (pet, truth) = PetBuilder::new().build(&exec_means, rng);
    let spin_means: Vec<Vec<f64>> = exec_means
        .iter()
        .enumerate()
        .map(|(f, row)| {
            let factor = spinup_factor(cfg, f);
            row.iter().map(|mean| mean * factor).collect()
        })
        .collect();
    let (spinup, spin_truth) = PetBuilder::new().build(&spin_means, rng);
    SystemSpec {
        machines: (0..cfg.num_machines)
            .map(|m| MachineSpec { name: format!("faas-node-{m:03}") })
            .collect(),
        task_types: (0..cfg.num_functions)
            .map(|f| TaskTypeSpec { name: format!("fn-{f:03}") })
            .collect(),
        pet,
        truth,
        prices: PriceTable::new((0..cfg.num_machines).map(|m| PRICES[m % 8]).collect()),
        queue_capacity: cfg.queue_capacity,
        coldstart: Some(ColdStartModel { spinup, truth: spin_truth, keep_alive: cfg.keep_alive }),
        memo: SpecMemo::default(),
    }
    .validated()
}

/// Generates serverless request traces for a [`FaasConfig`]-built system.
#[derive(Debug, Clone)]
pub struct FaasGenerator {
    config: FaasConfig,
}

impl FaasGenerator {
    /// Creates a generator; validates the configuration.
    #[must_use]
    pub fn new(config: FaasConfig) -> Self {
        config.validate();
        Self { config }
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &FaasConfig {
        &self.config
    }

    /// Generates one trial's request list, sorted by arrival time, ids in
    /// arrival order. Each function gets its own bursty gamma arrival
    /// stream whose rate is its Zipf share of the aggregate intensity;
    /// the merged prefix of `num_tasks` requests is kept.
    ///
    /// Deterministic for a given `(spec, rng state)` pair.
    ///
    /// # Panics
    ///
    /// Panics when `spec`'s task-type count differs from the
    /// configuration's `num_functions`.
    pub fn generate<R: rand::Rng>(&self, spec: &SystemSpec, rng: &mut R) -> Vec<Task> {
        let cfg = &self.config;
        assert_eq!(
            spec.num_task_types(),
            cfg.num_functions,
            "spec task types must match num_functions"
        );
        let weights = cfg.popularity();
        let avg_all = spec.truth.grand_mean();

        let mut arrivals: Vec<(f64, TaskTypeId)> = Vec::new();
        for (f, &w) in weights.iter().enumerate() {
            let type_id = TaskTypeId::from(f);
            let mean_ia = cfg.span as f64 / (cfg.oversubscription * w);
            // Gamma with fixed shape k: variance = mean²/k, so shape < 1
            // gives every function the same burstiness regardless of rate.
            let variance = mean_ia * mean_ia / cfg.burst_shape;
            let gamma = Gamma::from_mean_variance(mean_ia, variance)
                .expect("config validated: positive mean and variance");
            let mut t = 0.0f64;
            // A hot function could in principle dominate the whole merged
            // prefix, so every stream draws num_tasks arrivals.
            for _ in 0..cfg.num_tasks {
                t += gamma.sample(rng);
                arrivals.push((t, type_id));
            }
        }
        arrivals.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite arrival times"));
        arrivals.truncate(cfg.num_tasks);

        arrivals
            .into_iter()
            .enumerate()
            .map(|(i, (arr, type_id))| {
                let arrival = arr.round().max(0.0) as Time;
                let avg_i = spec.truth.mean_over_machines(type_id);
                let slack = (avg_i + cfg.slack_beta * avg_all).round() as Time;
                Task { id: TaskId::from(i), type_id, arrival, deadline: arrival + slack }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcsim_stats::SeedSequence;

    fn small_config() -> FaasConfig {
        FaasConfig { num_functions: 16, num_machines: 8, num_tasks: 600, ..Default::default() }
    }

    #[test]
    fn default_intensity_is_ten_x_the_batch_benchmark() {
        let cfg = FaasConfig::default();
        let classic = WorkloadConfig { oversubscription: 34_000.0, ..Default::default() };
        let multiple = cfg.intensity_multiple_of(&classic, 12);
        assert!(multiple >= 10.0, "intensity multiple {multiple} < 10");
    }

    #[test]
    fn popularity_is_normalized_and_skewed() {
        let cfg = small_config();
        let w = cfg.popularity();
        assert_eq!(w.len(), 16);
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(w[0] > 4.0 * w[15], "rank 0 should dominate rank 15: {w:?}");
        for pair in w.windows(2) {
            assert!(pair[0] >= pair[1], "weights must decrease with rank");
        }
    }

    #[test]
    fn system_has_coldstart_with_slower_spinup() {
        let cfg = small_config();
        let mut rng = SeedSequence::new(9).stream(0);
        let spec = faas_system(&cfg, &mut rng);
        assert_eq!(spec.num_machines(), 8);
        assert_eq!(spec.num_task_types(), 16);
        let cold = spec.coldstart.as_ref().expect("faas system carries a cold-start model");
        assert_eq!(cold.keep_alive, cfg.keep_alive);
        for f in 0..16u16 {
            for m in 0..8usize {
                let (tt, mid) = (hcsim_model::TaskTypeId(f), hcsim_model::MachineId::from(m));
                let exec = spec.pet.mean_exec(tt, mid);
                let spin = cold.spinup.mean_exec(tt, mid);
                assert!(
                    spin > 3.0 * exec,
                    "cell ({f},{m}): spin-up {spin} should dwarf exec {exec}"
                );
            }
        }
    }

    #[test]
    fn exec_means_are_millisecond_scale() {
        for row in faas_means(48, 32) {
            for mean in row {
                assert!((1.0..=80.0).contains(&mean), "mean {mean} outside [1, 80]");
            }
        }
    }

    #[test]
    fn trace_is_sorted_dense_and_skewed() {
        let cfg = small_config();
        let seeds = SeedSequence::new(21);
        let spec = faas_system(&cfg, &mut seeds.stream(0));
        let tasks = FaasGenerator::new(cfg).generate(&spec, &mut seeds.stream(1));
        assert_eq!(tasks.len(), 600);
        for w in tasks.windows(2) {
            assert!(w[0].arrival <= w[1].arrival);
        }
        for (i, t) in tasks.iter().enumerate() {
            assert_eq!(t.id.index(), i);
        }
        // Zipf skew shows up in the realized mix: the hottest function
        // must see several times the traffic of the coldest.
        let mut counts = vec![0usize; 16];
        for t in &tasks {
            counts[t.type_id.index()] += 1;
        }
        assert!(counts[0] >= 3 * counts[15].max(1), "expected heavy skew, got {counts:?}");
    }

    #[test]
    fn arrivals_are_bursty_not_smooth() {
        // Burstiness check on the merged trace: with gamma shape < 1 per
        // stream, the realized inter-arrival times have coefficient of
        // variation well above 1 (a Poisson merge would sit near 1, a
        // smooth trickle below).
        let cfg = small_config();
        let seeds = SeedSequence::new(22);
        let spec = faas_system(&cfg, &mut seeds.stream(0));
        let tasks = FaasGenerator::new(cfg).generate(&spec, &mut seeds.stream(1));
        let gaps: Vec<f64> =
            tasks.windows(2).map(|w| (w[1].arrival - w[0].arrival) as f64).collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        let cv2 = var / (mean * mean);
        assert!(cv2 > 1.2, "merged trace too smooth: CV² = {cv2:.2}");
    }

    #[test]
    fn deterministic_given_stream() {
        let cfg = small_config();
        let seeds = SeedSequence::new(23);
        let spec = faas_system(&cfg, &mut seeds.stream(0));
        let gen = FaasGenerator::new(cfg);
        let mut a = SeedSequence::new(23).stream(1);
        let mut b = SeedSequence::new(23).stream(1);
        assert_eq!(gen.generate(&spec, &mut a), gen.generate(&spec, &mut b));
    }

    #[test]
    fn system_deterministic_per_seed() {
        let cfg = small_config();
        let mut a = SeedSequence::new(24).stream(0);
        let mut b = SeedSequence::new(24).stream(0);
        assert_eq!(faas_system(&cfg, &mut a), faas_system(&cfg, &mut b));
    }

    #[test]
    #[should_panic(expected = "spinup_factor")]
    fn inverted_spinup_factor_rejected() {
        FaasConfig { spinup_factor: (15.0, 5.0), ..Default::default() }.validate();
    }

    #[test]
    #[should_panic(expected = "burst_shape")]
    fn zero_burst_shape_rejected() {
        FaasConfig { burst_shape: 0.0, ..Default::default() }.validate();
    }
}
