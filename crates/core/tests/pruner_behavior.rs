//! Direct behavioral tests of the dropping pass (§V-A/B), driven through
//! a probe mapper so the pruner operates on real engine state.

use hcsim_core::{ProbScorer, Pruner, PruningConfig};
use hcsim_model::{
    MachineSpec, PetBuilder, PriceTable, SpecMemo, SystemSpec, Task, TaskId, TaskOutcome,
    TaskTypeId, TaskTypeSpec,
};
use hcsim_sim::{run_simulation, FirstFitMapper, MapContext, Mapper, SimConfig};
use hcsim_stats::SeedSequence;

/// One machine, one task type, near-deterministic 50 ms executions.
fn one_machine_spec() -> SystemSpec {
    let mut rng = SeedSequence::new(1).stream(0);
    let (pet, truth) = PetBuilder::new().shape_range(80.0, 80.0).build(&[vec![50.0]], &mut rng);
    SystemSpec {
        machines: vec![MachineSpec { name: "m".into() }],
        task_types: vec![TaskTypeSpec { name: "t".into() }],
        pet,
        truth,
        prices: PriceTable::uniform(1, 1.0),
        queue_capacity: 6,
        coldstart: None,
        memo: SpecMemo::default(),
    }
    .validated()
}

fn task(id: u32, deadline: u64) -> Task {
    Task { id: TaskId(id), type_id: TaskTypeId(0), arrival: 0, deadline }
}

/// Maps first-fit, then runs one dropping pass per event with a fixed
/// threshold; records how many tasks each pass removed.
struct PruneProbe {
    pruner: Pruner,
    threshold: f64,
    drops_per_event: Vec<usize>,
}

impl PruneProbe {
    /// Flat-threshold probe: Eq. 7's skewness/position adjustment is
    /// disabled so the threshold semantics are exact (the adjustment
    /// itself is covered by unit tests and the `eq7` ablation).
    fn new(threshold: f64) -> Self {
        Self {
            pruner: Pruner::new(PruningConfig {
                per_task_adjustment: false,
                ..PruningConfig::default()
            }),
            threshold,
            drops_per_event: Vec::new(),
        }
    }
}

impl Mapper for PruneProbe {
    fn name(&self) -> &str {
        "prune-probe"
    }

    fn on_mapping_event(&mut self, ctx: &mut MapContext<'_>) {
        FirstFitMapper.on_mapping_event(ctx);
        let mut scorer = ProbScorer::new(&ctx.spec().pet, ctx.drop_policy(), 24);
        let threshold = self.threshold;
        let dropped = self.pruner.drop_pass(ctx, &mut scorer, &|_| threshold);
        self.drops_per_event.push(dropped);
    }
}

#[test]
fn threshold_one_drops_everything_queued() {
    // Robustness can never exceed 1.0, so threshold 1.0 removes every
    // queued task the policy allows (executing included under All).
    let spec = one_machine_spec();
    let tasks: Vec<Task> = (0..5).map(|i| task(i, 100_000)).collect();
    let mut probe = PruneProbe::new(1.0);
    let mut rng = SeedSequence::new(2).stream(0);
    let report = run_simulation(&spec, SimConfig::untrimmed(), &tasks, &mut probe, &mut rng);
    // Every task is mapped first-fit then pruned on the same or a later
    // event; nothing ever completes.
    assert_eq!(report.metrics.outcomes.pruned, 5, "{:?}", report.metrics.outcomes);
    assert_eq!(report.metrics.outcomes.on_time, 0);
}

#[test]
fn threshold_zero_drops_only_hopeless_tasks() {
    // Dropping requires robustness <= threshold; at 0.0 only tasks with
    // literally zero success probability are removed.
    let spec = one_machine_spec();
    // Generous deadlines: robustness ~1 for everything → no drops.
    let tasks: Vec<Task> = (0..5).map(|i| task(i, 100_000)).collect();
    let mut probe = PruneProbe::new(0.0);
    let mut rng = SeedSequence::new(3).stream(0);
    let report = run_simulation(&spec, SimConfig::untrimmed(), &tasks, &mut probe, &mut rng);
    assert_eq!(report.metrics.outcomes.pruned, 0, "{:?}", report.metrics.outcomes);
    assert_eq!(report.metrics.outcomes.on_time, 5);
}

#[test]
fn dropping_deep_hopeless_tasks_saves_the_feasible_ones() {
    // Six tasks, ~50 ms each, one machine. Tasks 0-2 have deadlines that
    // fit sequential execution; tasks 3-5 are hopeless behind them (queue
    // wait ~150+ ms vs deadline 160). A 50% threshold prunes the hopeless
    // tail without touching the feasible head.
    let spec = one_machine_spec();
    let tasks =
        vec![task(0, 70), task(1, 130), task(2, 190), task(3, 165), task(4, 168), task(5, 170)];
    let mut probe = PruneProbe::new(0.5);
    let mut rng = SeedSequence::new(4).stream(0);
    let report = run_simulation(&spec, SimConfig::untrimmed(), &tasks, &mut probe, &mut rng);
    let outcome_of = |id: u32| report.records[id as usize].outcome;
    // The three feasible head tasks complete.
    for id in 0..3 {
        assert_eq!(outcome_of(id), TaskOutcome::CompletedOnTime, "task {id}");
    }
    // The hopeless tail is pruned (robustness ≈ 0 behind ~150 ms of work),
    // not left to expire at its deadline.
    let pruned = (3..6).filter(|&id| outcome_of(id) == TaskOutcome::PrunedDropped).count();
    assert!(pruned >= 2, "expected the hopeless tail pruned: {:?}", report.records);
}

#[test]
fn drop_pass_is_idempotent_when_nothing_qualifies() {
    let spec = one_machine_spec();
    let tasks: Vec<Task> = (0..4).map(|i| task(i, 100_000)).collect();
    let mut probe = PruneProbe::new(0.3);
    let mut rng = SeedSequence::new(5).stream(0);
    let _ = run_simulation(&spec, SimConfig::untrimmed(), &tasks, &mut probe, &mut rng);
    // With generous deadlines no event should ever drop anything.
    assert!(probe.drops_per_event.iter().all(|&d| d == 0));
}
