//! Spec-table sharing: equivalence with per-trial builds, and stale memos.
//!
//! [`ProbScorer::for_spec`] takes its tables (warm and cold PETs, prefix
//! CDFs, shard envelopes) from a memo on the [`SystemSpec`], so every
//! mapper on one spec shares a single build. Sharing must be invisible:
//! PAM and MOC reports over several trials on one shared spec equal the
//! reports where each trial runs on a freshly built spec, and scorer
//! queries agree bit for bit. Because `SystemSpec`'s fields are public,
//! the memo must also notice when the spec it sits on was edited after
//! the tables were built — a replaced PET, a replaced spin-up PET, a
//! removed cold-start model — and rebuild rather than serve stale tables.
//! Both a classic spec and a cold-start (serverless) spec are covered.

use hcsim_core::{HeuristicKind, PairScore, ProbScorer, PruningConfig, ScoreTable, SpecTables};
use hcsim_model::{MachineId, SpecMemo, SystemSpec, Task, TaskId, TaskTypeId, Time};
use hcsim_pmf::DropPolicy;
use hcsim_sim::{run_simulation, testkit, MachineState, SimConfig, SimReport};
use hcsim_stats::SeedSequence;
use hcsim_workload::{
    faas_system, specint_cluster, FaasConfig, FaasGenerator, WorkloadConfig, WorkloadGenerator,
};
use std::sync::Arc;

/// 40 machines: two envelope shards, the second one partial.
const MACHINES: usize = 40;
const BUDGET: usize = 24;
const TRIALS: u64 = 3;

#[derive(Debug, Clone, Copy)]
enum Kind {
    Classic,
    Faas,
}

fn faas_config() -> FaasConfig {
    FaasConfig { num_functions: 8, num_machines: MACHINES, num_tasks: 160, ..FaasConfig::default() }
}

/// Builds the spec from its seed: every call returns an equal spec with
/// its own, empty memo and its own PET storage.
fn build_spec(kind: Kind) -> SystemSpec {
    let mut rng = SeedSequence::new(11).stream(0);
    match kind {
        Kind::Classic => specint_cluster(MACHINES, 6, &mut rng),
        Kind::Faas => faas_system(&faas_config(), &mut rng),
    }
}

/// The same spec with an empty memo (PET storage still shared).
fn unmemoized(spec: &SystemSpec) -> SystemSpec {
    SystemSpec { memo: SpecMemo::default(), ..spec.clone() }
}

fn trial_tasks(kind: Kind, spec: &SystemSpec, trial: u64) -> Vec<Task> {
    let mut rng = SeedSequence::new(100 + trial).stream(0);
    match kind {
        Kind::Classic => WorkloadGenerator::new(WorkloadConfig {
            num_tasks: 160,
            oversubscription: 34_000.0,
            ..WorkloadConfig::default()
        })
        .generate(spec, &mut rng),
        Kind::Faas => FaasGenerator::new(faas_config()).generate(spec, &mut rng),
    }
}

fn run(spec: &SystemSpec, heuristic: HeuristicKind, tasks: &[Task], trial: u64) -> String {
    let mut mapper = heuristic.build(PruningConfig::default());
    let mut rng = SeedSequence::new(200 + trial).stream(0);
    let report: SimReport =
        run_simulation(spec, SimConfig::untrimmed(), tasks, &mut mapper, &mut rng);
    format!("{report:?}")
}

fn shared_spec_matches_fresh_specs(kind: Kind) {
    let shared = build_spec(kind);
    for heuristic in [HeuristicKind::Pam, HeuristicKind::Moc] {
        for trial in 0..TRIALS {
            let tasks = trial_tasks(kind, &shared, trial);
            let on_shared = run(&shared, heuristic, &tasks, trial);
            let on_fresh = run(&build_spec(kind), heuristic, &tasks, trial);
            assert_eq!(on_shared, on_fresh, "{kind:?} {heuristic:?} trial {trial}");
        }
    }
    assert_eq!(shared.memo.len(), 1, "every mapper used one budget, so one entry");
}

#[test]
fn classic_reports_on_a_shared_spec_match_fresh_specs() {
    shared_spec_matches_fresh_specs(Kind::Classic);
}

#[test]
fn faas_reports_on_a_shared_spec_match_fresh_specs() {
    shared_spec_matches_fresh_specs(Kind::Faas);
}

fn task(id: u32, tt: usize, deadline: Time) -> Task {
    Task { id: TaskId(id), type_id: TaskTypeId::from(tt), arrival: 0, deadline }
}

/// A spread of machine states: idle, queued, executing, and (under a
/// cold-start model) warm for the queued function.
fn machines(spec: &SystemSpec) -> Vec<MachineState> {
    let types = spec.num_task_types();
    (0..MACHINES)
        .map(|m| {
            let tasks: Vec<Task> = (0..m % 4)
                .map(|k| task((10 * m + k) as u32, (m + k) % types, 400 + 90 * k as Time))
                .collect();
            let mut machine =
                testkit::machine_with_pending(MachineId::from(m), spec.queue_capacity, &tasks);
            if m % 3 == 0 {
                let exec = task(1000 + m as u32, m % types, 700);
                assert!(testkit::start_executing(&mut machine, exec, 5, 80));
            }
            if m % 5 == 0 && spec.coldstart.is_some() {
                testkit::set_warm(&mut machine, TaskTypeId::from(m % types), 1_000);
            }
            machine
        })
        .collect()
}

fn score_bits(s: PairScore) -> [u64; 3] {
    [s.robustness.to_bits(), s.expected_completion.to_bits(), s.mean_exec.to_bits()]
}

/// Every query a mapper makes, rendered bit for bit.
fn queries(scorer: &mut ProbScorer, machines: &[MachineState], window: &[Task]) -> Vec<u64> {
    scorer.begin_event(60);
    let mut out = Vec::new();
    for machine in machines {
        let tail = scorer.tail(machine);
        out.extend(tail.times().iter().copied());
        out.extend(tail.masses().iter().map(|p| p.to_bits()));
        for slot in scorer.slot_scores(machine) {
            out.extend([slot.robustness.to_bits(), slot.skewness.to_bits()]);
        }
        for t in window {
            out.extend(score_bits(scorer.score(machine, t)));
        }
    }
    let mut table = ScoreTable::new();
    table.rebuild(scorer, machines, window, &|_| 0.3);
    for row in 0..window.len() {
        for m in 0..machines.len() {
            out.extend(table.get(row, m).map_or([u64::MAX; 3], score_bits));
        }
    }
    out
}

fn scorer_queries_are_bitwise_equal(kind: Kind) {
    let shared = build_spec(kind);
    let first = ProbScorer::for_spec(&shared, DropPolicy::All, BUDGET);
    let mut hit = ProbScorer::for_spec(&shared, DropPolicy::All, BUDGET);
    assert!(Arc::ptr_eq(first.tables(), hit.tables()), "second scorer is a memo hit");
    let fresh_spec = build_spec(kind);
    let mut fresh = ProbScorer::for_spec(&fresh_spec, DropPolicy::All, BUDGET);
    assert_eq!(**hit.tables(), **fresh.tables());

    let machines = machines(&shared);
    let types = shared.num_task_types();
    let window: Vec<Task> =
        (0..12).map(|i| task(5000 + i, i as usize % types, 150 + 70 * Time::from(i))).collect();
    assert_eq!(queries(&mut hit, &machines, &window), queries(&mut fresh, &machines, &window));
}

#[test]
fn classic_scorer_queries_are_bitwise_equal() {
    scorer_queries_are_bitwise_equal(Kind::Classic);
}

#[test]
fn faas_scorer_queries_are_bitwise_equal() {
    scorer_queries_are_bitwise_equal(Kind::Faas);
}

/// The tables `for_spec` returns for `spec` equal a build on a memo-free
/// copy, and were rebuilt (not the `before` entry).
fn assert_rebuilt(spec: &SystemSpec, before: &Arc<SpecTables>) {
    let now = SpecTables::for_spec(spec, BUDGET);
    assert!(!Arc::ptr_eq(&now, before), "an edited spec must not serve the old tables");
    assert_eq!(*now, *SpecTables::for_spec(&unmemoized(spec), BUDGET));
    assert!(Arc::ptr_eq(&now, &SpecTables::for_spec(spec, BUDGET)), "the rebuild is memoized");
    assert_eq!(spec.memo.len(), 1, "the rebuild replaced the stale entry");
}

#[test]
fn replacing_the_pet_rebuilds() {
    for kind in [Kind::Classic, Kind::Faas] {
        let mut spec = build_spec(kind);
        let before = SpecTables::for_spec(&spec, BUDGET);
        let donor = faas_system(
            &FaasConfig { num_functions: spec.num_task_types(), ..faas_config() },
            &mut SeedSequence::new(12).stream(0),
        );
        spec.pet = donor.pet;
        assert_rebuilt(&spec, &before);
    }
}

#[test]
fn an_equal_pet_built_separately_still_hits() {
    for kind in [Kind::Classic, Kind::Faas] {
        let mut spec = build_spec(kind);
        let before = SpecTables::for_spec(&spec, BUDGET);
        spec.pet = build_spec(kind).pet;
        assert!(Arc::ptr_eq(&before, &SpecTables::for_spec(&spec, BUDGET)));
    }
}

#[test]
fn replacing_the_spinup_pet_rebuilds() {
    let mut spec = build_spec(Kind::Faas);
    let before = SpecTables::for_spec(&spec, BUDGET);
    let donor = build_spec(Kind::Faas);
    let cold = spec.coldstart.as_mut().expect("faas spec has a cold-start model");
    // Any other matrix of the right shape will do: the execution PET.
    cold.spinup = donor.pet;
    assert_rebuilt(&spec, &before);
}

#[test]
fn removing_the_coldstart_model_rebuilds() {
    let mut spec = build_spec(Kind::Faas);
    let before = SpecTables::for_spec(&spec, BUDGET);
    spec.coldstart = None;
    assert_rebuilt(&spec, &before);
    let warm_only = SpecTables::for_spec(&spec, BUDGET);
    assert_eq!(*warm_only, SpecTables::build(&spec.pet, None, BUDGET));
    assert!(warm_only.pets().cold.is_none());
}

#[test]
fn changing_only_keep_alive_still_hits() {
    let mut spec = build_spec(Kind::Faas);
    let before = SpecTables::for_spec(&spec, BUDGET);
    spec.coldstart.as_mut().expect("faas spec has a cold-start model").keep_alive += 1_000;
    assert!(Arc::ptr_eq(&before, &SpecTables::for_spec(&spec, BUDGET)));
}

#[test]
fn two_budgets_get_two_entries_and_alternate_without_rebuilding() {
    for kind in [Kind::Classic, Kind::Faas] {
        let spec = build_spec(kind);
        let small = SpecTables::for_spec(&spec, 16);
        let large = SpecTables::for_spec(&spec, 32);
        assert_eq!((small.budget(), large.budget()), (16, 32));
        assert_eq!(spec.memo.len(), 2);
        for _ in 0..3 {
            assert!(Arc::ptr_eq(&small, &SpecTables::for_spec(&spec, 16)));
            assert!(Arc::ptr_eq(&large, &SpecTables::for_spec(&spec, 32)));
        }
        assert_eq!(spec.memo.len(), 2);
    }
}

#[test]
fn clones_share_the_memo() {
    let spec = build_spec(Kind::Faas);
    let copy = spec.clone();
    let a = ProbScorer::for_spec(&spec, DropPolicy::All, BUDGET);
    let b = ProbScorer::for_spec(&copy, DropPolicy::PendingOnly, BUDGET);
    assert!(Arc::ptr_eq(a.tables(), b.tables()), "the policy is per scorer, the tables are not");
    assert_eq!((a.policy(), b.policy()), (DropPolicy::All, DropPolicy::PendingOnly));
}
