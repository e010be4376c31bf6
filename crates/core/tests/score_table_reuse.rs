//! Cross-tick reuse proof for the score table: a [`ScoreTable`] carried
//! across random clock advances with [`ScoreTable::ensure`] must agree
//! with a fresh [`ScoreTable::rebuild`] at every event — bit for bit on
//! every entry the rebuild scores, and on every `best_for_row` the
//! reductions act on.
//!
//! The replay mixes what moves a chain between ticks (executing heads
//! whose elapsed time crosses a PET impulse, idle machines re-anchored at
//! the new clock, completions, pruner drops, queue growth, idle machines
//! starting work) with window churn, assignments through the table's own
//! maintenance API, and membership epoch bumps. PET cells are sparse, so
//! most advances keep most chains and the reuse path does the work; the
//! first advance always does (asserted), so no case can pass on rebuilds
//! alone.

use hcsim_core::{ProbScorer, ScoreTable};
use hcsim_model::{MachineId, PetMatrix, Task, TaskId, TaskTypeId, Time};
use hcsim_pmf::{DropPolicy, Pmf};
use hcsim_sim::testkit::{self, QueueOp};
use hcsim_sim::MachineState;
use proptest::prelude::*;

/// Two 32-wide table shards.
const MACHINES: usize = 40;
const TYPES: usize = 2;
const CAPACITY: usize = 4;
const BUDGET: usize = 16;

/// Three impulses per cell at `base`, `base + g1`, `base + g1 + g2`.
fn sparse_pet(cells: &[(Time, Time, Time)]) -> PetMatrix {
    let pmfs = cells
        .iter()
        .map(|&(base, g1, g2)| {
            Pmf::from_points(&[(base, 0.3), (base + g1, 0.5), (base + g1 + g2, 0.2)])
                .expect("valid points")
        })
        .collect();
    PetMatrix::from_pmfs(TYPES, MACHINES, pmfs)
}

fn task(next_id: &mut u32, tt: u32, now: Time, slack: Time) -> Task {
    *next_id += 1;
    Task {
        id: TaskId(*next_id),
        type_id: TaskTypeId(tt as u16),
        arrival: now,
        deadline: now + slack,
    }
}

/// `table` against a fresh rebuild at `now`: every entry the rebuild
/// scores must be present and bit-identical; every row best the
/// reductions would act on (at or above the threshold) must be the
/// rebuild's; below the threshold the table may only offer values the
/// reductions defer anyway.
fn assert_matches_rebuild(
    table: &ScoreTable,
    pet: &PetMatrix,
    policy: DropPolicy,
    machines: &[MachineState],
    tasks: &[Task],
    now: Time,
    threshold: f64,
) {
    let mut scorer = ProbScorer::new(pet, policy, BUDGET);
    scorer.begin_event(now);
    let mut reference = ScoreTable::new();
    reference.rebuild(&mut scorer, machines, tasks, &|_| threshold);
    assert_eq!(table.rows(), reference.rows(), "row count at t={now}");
    for row in 0..tasks.len() {
        for m in 0..machines.len() {
            let Some(want) = reference.get(row, m) else { continue };
            let got = table
                .get(row, m)
                .unwrap_or_else(|| panic!("t={now}: ({row},{m}) scored by the rebuild only"));
            assert!(
                got.robustness.to_bits() == want.robustness.to_bits()
                    && got.expected_completion.to_bits() == want.expected_completion.to_bits()
                    && got.mean_exec.to_bits() == want.mean_exec.to_bits(),
                "t={now}: ({row},{m}) diverged: {got:?} vs {want:?}"
            );
        }
        let want = reference.best_for_row(machines, row);
        let got = table.best_for_row(machines, row);
        match want {
            Some((_, s)) if s.robustness >= threshold => {
                assert_eq!(got, want, "t={now}: row {row} reduction diverged");
            }
            _ => assert!(
                got.is_none_or(|(_, s)| s.robustness < threshold),
                "t={now}: row {row} offers {got:?} where the rebuild defers"
            ),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn carried_table_matches_fresh_rebuild_across_ticks(
        cells in prop::collection::vec((3u64..9, 4u64..14, 4u64..14), 80..81),
        depths in prop::collection::vec(0usize..4, 40..41),
        window in prop::collection::vec((0u32..TYPES as u32, 20u64..200), 1..8),
        steps in prop::collection::vec((0u64..12, 0u32..9, 0usize..MACHINES, 0usize..8), 1..14),
        threshold_sel in 0.0f64..1.0,
        policy_idx in 0usize..3,
    ) {
        let policy = [DropPolicy::None, DropPolicy::PendingOnly, DropPolicy::All][policy_idx];
        // Half the cases keep every row live (exact reduction equality),
        // the rest exercise the bound pass and resurrection.
        let threshold = if threshold_sel < 0.5 { 0.0 } else { threshold_sel - 0.3 };
        let pet = sparse_pet(&cells);
        let mut next_id = 0u32;
        // Every fourth machine starts idle and empty; the rest execute a
        // task started at t=0 with `depth` tasks pending behind it.
        let mut machines: Vec<MachineState> = depths
            .iter()
            .enumerate()
            .map(|(m, &depth)| {
                let mut machine = MachineState::new(MachineId::from(m), CAPACITY);
                if m % 4 != 0 {
                    let head = task(&mut next_id, (m % TYPES) as u32, 0, 150);
                    assert!(testkit::start_executing(&mut machine, head, 0, 10_000));
                    for i in 0..depth {
                        let t = task(&mut next_id, (i % TYPES) as u32, 0, 60 + 30 * i as u64);
                        testkit::apply(&mut machine, QueueOp::Push(t));
                    }
                }
                machine
            })
            .collect();
        let mut tasks: Vec<Task> =
            window.iter().map(|&(tt, slack)| task(&mut next_id, tt, 0, slack)).collect();
        let skip_below = move |_tt: TaskTypeId| threshold;
        let mut scorer = ProbScorer::new(&pet, policy, BUDGET);
        let mut epoch = 0u64;
        let mut now: Time = 0;
        scorer.begin_event(now);
        scorer.sync_membership(epoch, &machines);
        let mut table = ScoreTable::new();
        table.rebuild(&mut scorer, &machines, &tasks, &skip_below);
        assert_matches_rebuild(&table, &pet, policy, &machines, &tasks, now, threshold);

        for (i, &(advance, op, m, param)) in steps.iter().enumerate() {
            // The first step is a pure one-tick advance: every busy head
            // sits before its first impulse (t ≥ 3), so only the idle
            // quarter of the cluster moves and the table must be reused.
            let (advance, op) = if i == 0 { (1, 8) } else { (advance, op) };
            now += advance;
            let machine = &mut machines[m];
            match op {
                // Completion: the next pending task (if any) starts now.
                0 => {
                    let finished = testkit::apply(machine, QueueOp::FinishExecuting);
                    if finished {
                        testkit::apply(machine, QueueOp::StartNext { now, total_exec: 10_000 });
                    }
                }
                // Pruner drop of the first pending task.
                1 => {
                    let first = machine.pending().next().map(|t| t.id);
                    if let Some(id) = first {
                        testkit::apply(machine, QueueOp::RemovePending(id));
                    }
                }
                // Queue growth outside the table's view.
                2 => {
                    let t = task(&mut next_id, (param % TYPES) as u32, now, 80);
                    testkit::apply(machine, QueueOp::Push(t));
                }
                // An idle machine picks up work.
                3 => {
                    let t = task(&mut next_id, (param % TYPES) as u32, now, 120);
                    testkit::start_executing(machine, t, now, 10_000);
                }
                // A window task departs (expired or mapped elsewhere).
                4 if !tasks.is_empty() => {
                    tasks.remove(param % tasks.len());
                }
                // A new arrival slides into the window.
                5 => {
                    let slack = 40 + 20 * param as u64;
                    tasks.push(task(&mut next_id, (param % TYPES) as u32, now, slack));
                }
                // Membership epoch bump.
                6 => {
                    epoch += 1;
                    scorer.sync_membership(epoch, &machines);
                }
                // 7: assignment through the table after ensure (below);
                // 8 and the rest: a pure clock advance.
                _ => {}
            }
            scorer.begin_event(now);
            let reused = table.ensure(&mut scorer, &machines, &tasks, &skip_below);
            prop_assert!(i > 0 || reused, "a one-tick advance that kept 3/4 of the chains rebuilt");
            assert_matches_rebuild(&table, &pet, policy, &machines, &tasks, now, threshold);
            if op == 7 && !tasks.is_empty() && machines[m].has_free_slot() {
                // PAM's in-event maintenance: assign, drop the row,
                // rescore the assigned machine's column.
                let row = param % tasks.len();
                let assigned = tasks.remove(row);
                assert!(testkit::apply(&mut machines[m], QueueOp::Push(assigned)));
                table.remove_row(row);
                table.refresh_machine(&mut scorer, &machines, &tasks, m);
                assert_matches_rebuild(&table, &pet, policy, &machines, &tasks, now, threshold);
            }
        }
    }
}
