//! Property-based whole-simulation invariants: random small systems and
//! workloads through every heuristic must always produce a consistent,
//! causally-sane report.

use hcsim::prelude::*;
use proptest::prelude::*;

/// Builds a random-but-valid system from generator parameters.
fn build_system(
    machines: usize,
    types: usize,
    queue_capacity: usize,
    mean_seed: u64,
) -> SystemSpec {
    let seeds = SeedSequence::new(mean_seed);
    let mut rng = seeds.stream(0);
    // Means in [20, 200], deterministic in the seed.
    let sm = SeedSequence::new(mean_seed ^ 0xABCD);
    let means: Vec<Vec<f64>> = (0..types)
        .map(|tt| {
            (0..machines)
                .map(|m| 20.0 + (sm.seed_for((tt * machines + m) as u64) % 180) as f64)
                .collect()
        })
        .collect();
    let (pet, truth) =
        PetBuilder::new().samples_per_cell(120).histogram_bins(16).build(&means, &mut rng);
    SystemSpec {
        machines: (0..machines).map(|m| MachineSpec { name: format!("m{m}") }).collect(),
        task_types: (0..types).map(|t| TaskTypeSpec { name: format!("t{t}") }).collect(),
        pet,
        truth,
        prices: PriceTable::uniform(machines, 1.0),
        queue_capacity,
        coldstart: None,
        memo: SpecMemo::default(),
    }
    .validated()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn any_small_world_yields_consistent_reports(
        machines in 1usize..5,
        types in 1usize..5,
        queue_capacity in 1usize..7,
        n_tasks in 1usize..60,
        oversub in 4_000.0f64..60_000.0,
        seed in 0u64..1_000,
        heuristic_idx in 0usize..6,
    ) {
        let kind = HeuristicKind::FIG7[heuristic_idx];
        let spec = build_system(machines, types, queue_capacity, seed);
        let gen = WorkloadGenerator::new(WorkloadConfig {
            num_tasks: n_tasks,
            oversubscription: oversub,
            ..Default::default()
        });
        let seeds = SeedSequence::new(seed.wrapping_add(1));
        let tasks = gen.generate(&spec, &mut seeds.stream(0));
        let mut mapper = kind.build(PruningConfig::default());
        let report = run_simulation(
            &spec,
            SimConfig::untrimmed(),
            &tasks,
            &mut mapper,
            &mut seeds.stream(1),
        );

        // Exactly one terminal record per task, ids in order.
        prop_assert_eq!(report.records.len(), n_tasks);
        prop_assert_eq!(report.metrics.outcomes.total(), n_tasks);
        prop_assert_eq!(report.metrics.outcomes.unfinished, 0);
        for (i, rec) in report.records.iter().enumerate() {
            prop_assert_eq!(rec.task.id.index(), i);
            prop_assert!(rec.finished_at >= rec.task.arrival);
            if let Some(start) = rec.started_at {
                prop_assert!(start >= rec.task.arrival);
                prop_assert!(rec.finished_at >= start);
            }
            // Under DropPolicy::All nothing outlives its deadline.
            prop_assert!(
                rec.finished_at <= rec.task.deadline
                    || rec.outcome == TaskOutcome::ExpiredUnstarted,
                "record outlived deadline: {:?}", rec
            );
            if rec.outcome == TaskOutcome::CompletedOnTime {
                prop_assert!(rec.finished_at <= rec.task.deadline);
            }
        }

        // Cost is non-negative and consistent with busy time.
        let busy: Time = report.records.iter().map(|r| r.machine_time).sum();
        prop_assert_eq!(report.cost.total_busy_time(), busy);

        // Robustness bounded.
        prop_assert!((0.0..=100.0).contains(&report.metrics.pct_on_time));
    }

    #[test]
    fn workload_generation_is_sane(
        n_tasks in 1usize..200,
        oversub in 1_000.0f64..80_000.0,
        beta in 0.0f64..4.0,
        seed in 0u64..500,
    ) {
        let seeds = SeedSequence::new(seed);
        let spec = specint_system(6, &mut seeds.stream(0));
        let gen = WorkloadGenerator::new(WorkloadConfig {
            num_tasks: n_tasks,
            oversubscription: oversub,
            slack_beta: beta,
            ..Default::default()
        });
        let tasks = gen.generate(&spec, &mut seeds.stream(1));
        prop_assert_eq!(tasks.len(), n_tasks);
        for w in tasks.windows(2) {
            prop_assert!(w[0].arrival <= w[1].arrival);
        }
        for (i, t) in tasks.iter().enumerate() {
            prop_assert_eq!(t.id.index(), i);
            prop_assert!(t.deadline >= t.arrival);
            prop_assert!(t.type_id.index() < spec.num_task_types());
        }
    }
}
