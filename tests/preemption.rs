//! Integration tests of the §VIII preemption extension: PAM may pause an
//! executing task for an urgent arrival and resume it afterwards, guided
//! by residual execution PMFs.

use hcsim::prelude::*;

/// One machine, two task types: a long type (~200 ms) and a short urgent
/// type (~20 ms), both near-deterministic.
fn spec() -> SystemSpec {
    let mut rng = SeedSequence::new(1).stream(0);
    let (pet, truth) =
        PetBuilder::new().shape_range(400.0, 400.0).build(&[vec![200.0], vec![20.0]], &mut rng);
    SystemSpec {
        machines: vec![MachineSpec { name: "m".into() }],
        task_types: vec![
            TaskTypeSpec { name: "long".into() },
            TaskTypeSpec { name: "urgent".into() },
        ],
        pet,
        truth,
        prices: PriceTable::uniform(1, 1.0),
        queue_capacity: 6,
        coldstart: None,
        memo: SpecMemo::default(),
    }
    .validated()
}

/// A long task starts at t=0 with a loose deadline; an urgent short task
/// arrives at t=10 with a deadline only immediate execution can meet.
fn workload() -> Vec<Task> {
    vec![
        Task { id: TaskId(0), type_id: TaskTypeId(0), arrival: 0, deadline: 10_000 },
        Task { id: TaskId(1), type_id: TaskTypeId(1), arrival: 10, deadline: 80 },
    ]
}

fn run_pam(preemption: bool) -> SimReport {
    let spec = spec();
    let tasks = workload();
    let mut mapper = Pam::new(PruningConfig { preemption, ..PruningConfig::default() });
    let mut rng = SeedSequence::new(2).stream(0);
    run_simulation(&spec, SimConfig::untrimmed(), &tasks, &mut mapper, &mut rng)
}

#[test]
fn without_preemption_the_urgent_task_is_lost() {
    let report = run_pam(false);
    // The long task (~200 ms) blocks the only machine; queued behind it
    // the urgent task would finish near t≈220 ≫ 80, so PAM defers it and
    // it expires unmapped.
    assert_eq!(report.records[0].outcome, TaskOutcome::CompletedOnTime, "{:?}", report.records);
    assert_eq!(report.records[1].outcome, TaskOutcome::ExpiredUnstarted);
    assert!(report.records[1].machine.is_none(), "deferred, never mapped");
}

#[test]
fn with_preemption_both_tasks_succeed() {
    let report = run_pam(true);
    assert_eq!(
        report.records[1].outcome,
        TaskOutcome::CompletedOnTime,
        "urgent task must run immediately: {:?}",
        report.records
    );
    assert_eq!(
        report.records[0].outcome,
        TaskOutcome::CompletedOnTime,
        "the long task resumes and still makes its loose deadline: {:?}",
        report.records
    );
    // The long task ran in two segments; its recorded machine time covers
    // the whole execution (~200 ms), not just the final segment.
    let long = &report.records[0];
    assert!(long.machine_time >= 150, "machine time {}", long.machine_time);
    // Total busy time equals the sum of per-record machine time even with
    // the split segments.
    let total: Time = report.records.iter().map(|r| r.machine_time).sum();
    assert_eq!(report.cost.total_busy_time(), total);
}

#[test]
fn preemption_is_counted_in_instrumentation() {
    let spec = spec();
    let tasks = workload();
    let mut mapper = Pam::new(PruningConfig { preemption: true, ..PruningConfig::default() });
    let mut rng = SeedSequence::new(2).stream(0);
    let _ = run_simulation(&spec, SimConfig::untrimmed(), &tasks, &mut mapper, &mut rng);
    let instr = Mapper::instrumentation(&mapper).unwrap();
    assert_eq!(instr.preemptions, 1);
}

#[test]
fn preemption_never_sacrifices_the_incumbent() {
    // Tighten the long task's deadline so it cannot afford the delay: the
    // residual check must veto the preemption and the urgent task is lost
    // instead of trading one success for another.
    let spec = spec();
    let tasks = vec![
        Task { id: TaskId(0), type_id: TaskTypeId(0), arrival: 0, deadline: 215 },
        Task { id: TaskId(1), type_id: TaskTypeId(1), arrival: 10, deadline: 80 },
    ];
    let mut mapper = Pam::new(PruningConfig { preemption: true, ..PruningConfig::default() });
    let mut rng = SeedSequence::new(2).stream(0);
    let report = run_simulation(&spec, SimConfig::untrimmed(), &tasks, &mut mapper, &mut rng);
    assert_eq!(
        report.records[0].outcome,
        TaskOutcome::CompletedOnTime,
        "incumbent protected: {:?}",
        report.records
    );
    let instr = Mapper::instrumentation(&mapper).unwrap();
    assert_eq!(instr.preemptions, 0, "residual check must veto the preemption");
}

#[test]
fn preemption_off_by_default() {
    assert!(!PruningConfig::default().preemption);
}
