//! Expected-value queue accounting for the scalar baselines.
//!
//! MM, MSD, and MMU (§VI-C) reason about *expected* completion times, not
//! distributions: the expected availability of a machine is the expected
//! remaining work of its queue, and a candidate task's expected completion
//! is that availability plus its own mean execution time from the PET.
//!
//! For the executing task the estimate is `max(start + E[exec], now)`:
//! once a task has run past its expected duration the machine is expected
//! to free "now" (the scalar model has no conditioning machinery — that is
//! precisely the information the probabilistic heuristics exploit).

use hcsim_model::{PetMatrix, Task, Time};
use hcsim_sim::MachineState;

/// Expected time at which `machine` finishes everything currently queued.
#[must_use]
pub fn expected_available(machine: &MachineState, pet: &PetMatrix, now: Time) -> f64 {
    let mut avail = now as f64;
    if let Some(exec) = machine.executing() {
        let expected_finish =
            exec.started_at as f64 + pet.mean_exec(exec.task.type_id, machine.id());
        avail = expected_finish.max(avail);
    }
    for t in machine.pending() {
        avail += pet.mean_exec(t.type_id, machine.id());
    }
    avail
}

/// Expected completion time of appending `task` to `machine`'s queue.
#[must_use]
pub fn expected_completion(machine: &MachineState, pet: &PetMatrix, now: Time, task: &Task) -> f64 {
    expected_available(machine, pet, now) + pet.mean_exec(task.type_id, machine.id())
}

/// MMU's urgency (§VI-C): the literal `U = 1/(δ − E[C])`, signed.
///
/// Tiny positive slack yields huge urgency, so MMU chases the tasks least
/// likely to succeed — exactly the behavior §VII-E blames for its poor
/// robustness. Exhausted slack (δ = E\[C\]) maps to `+∞`; negative slack
/// yields negative urgency (already-hopeless tasks sort last).
#[must_use]
pub fn urgency(deadline: Time, expected_completion: f64) -> f64 {
    let slack = deadline as f64 - expected_completion;
    1.0 / slack
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcsim_model::{MachineId, PetBuilder, TaskId, TaskTypeId};
    use hcsim_sim::{run_simulation, FirstFitMapper, MapContext, Mapper, SimConfig};
    use hcsim_stats::SeedSequence;

    fn pet(mean: f64) -> PetMatrix {
        let mut rng = SeedSequence::new(1).stream(0);
        let (pet, _) = PetBuilder::new().shape_range(8.0, 8.0).build(&[vec![mean]], &mut rng);
        pet
    }

    #[test]
    fn idle_machine_available_now() {
        let machine = MachineState::new(MachineId(0), 6);
        let p = pet(20.0);
        assert_eq!(expected_available(&machine, &p, 500), 500.0);
        let t = Task { id: TaskId(0), type_id: TaskTypeId(0), arrival: 0, deadline: 1000 };
        let ec = expected_completion(&machine, &p, 500, &t);
        assert!((ec - (500.0 + p.mean_exec(TaskTypeId(0), MachineId(0)))).abs() < 1e-9);
    }

    /// Probe mapper capturing scalar estimates mid-simulation.
    struct Probe {
        pet: PetMatrix,
        captured: Option<(f64, Time, usize)>, // (availability, now, occupancy)
    }

    impl Mapper for Probe {
        fn name(&self) -> &str {
            "probe"
        }
        fn on_mapping_event(&mut self, ctx: &mut MapContext<'_>) {
            FirstFitMapper.on_mapping_event(ctx);
            let m = ctx.machine(MachineId(0));
            if self.captured.is_none() && m.occupancy() >= 3 {
                self.captured =
                    Some((expected_available(m, &self.pet, ctx.now()), ctx.now(), m.occupancy()));
            }
        }
    }

    #[test]
    fn queued_work_accumulates() {
        let mut rng = SeedSequence::new(2).stream(0);
        let (pet_m, truth) = PetBuilder::new().shape_range(8.0, 8.0).build(&[vec![20.0]], &mut rng);
        let spec = hcsim_model::SystemSpec {
            machines: vec![hcsim_model::MachineSpec { name: "m".into() }],
            task_types: vec![hcsim_model::TaskTypeSpec { name: "t".into() }],
            pet: pet_m.clone(),
            truth,
            prices: hcsim_model::PriceTable::uniform(1, 1.0),
            queue_capacity: 6,
            coldstart: None,
            memo: hcsim_model::SpecMemo::default(),
        }
        .validated();
        let tasks: Vec<Task> = (0..3)
            .map(|i| Task { id: TaskId(i), type_id: TaskTypeId(0), arrival: 0, deadline: 10_000 })
            .collect();
        let mut probe = Probe { pet: pet_m.clone(), captured: None };
        let mut rng2 = SeedSequence::new(3).stream(0);
        let _ = run_simulation(&spec, SimConfig::untrimmed(), &tasks, &mut probe, &mut rng2);
        let (avail, now, occ) = probe.captured.expect("captured");
        assert_eq!(occ, 3);
        let mean = pet_m.mean_exec(TaskTypeId(0), MachineId(0));
        // 1 executing (expected finish ≈ start + mean ≥ now) + 2 pending.
        assert!(avail >= now as f64 + 2.0 * mean - 1e-9);
        assert!(avail <= now as f64 + 3.0 * mean + 1e-9);
    }

    #[test]
    fn urgency_ordering() {
        // Closer (feasible) deadline → higher urgency.
        assert!(urgency(110, 100.0) > urgency(150, 100.0));
        // Exhausted slack → +infinite urgency.
        assert!(urgency(100, 100.0).is_infinite());
        // Negative slack → negative urgency: hopeless tasks sort below
        // every feasible task.
        assert!(urgency(90, 100.0) < 0.0);
        assert!(urgency(90, 100.0) < urgency(150, 100.0));
        // Sane positive value.
        assert!((urgency(120, 100.0) - 0.05).abs() < 1e-12);
    }
}
