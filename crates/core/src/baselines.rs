//! The scalar two-phase baselines of §VI-C: MM, MSD, MMU.
//!
//! All three share phase 1 — for each unmapped task, find the machine with
//! the minimum *expected* completion time among machines with a free queue
//! slot — and differ in how phase 2 selects which provisional pair to
//! commit:
//!
//! * **MM** (MinCompletion-MinCompletion): the pair with the minimum
//!   expected completion time.
//! * **MSD** (MinCompletion-SoonestDeadline): the pair whose task deadline
//!   is soonest (tie → minimum completion).
//! * **MMU** (MinCompletion-MaxUrgency): the pair with maximum urgency
//!   `U = 1/(δ − E[C])`.
//!
//! The committed assignment occupies a slot and changes that machine's
//! expected availability, so the process repeats until machine queues are
//! full or the batch is exhausted — exactly the paper's loop.

use crate::scalar::{expected_available, urgency};
use hcsim_model::{MachineId, Task, TaskId, Time};
use hcsim_sim::{MapContext, Mapper};

/// Phase-2 selection rule distinguishing MM / MSD / MMU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase2Rule {
    /// MM: commit the globally minimal expected completion time.
    MinCompletion,
    /// MSD: commit the soonest deadline (tie → min completion).
    SoonestDeadline,
    /// MMU: commit the maximum urgency.
    MaxUrgency,
}

/// A scalar two-phase batch mapper (MM / MSD / MMU).
#[derive(Debug, Clone)]
pub struct ScalarMapper {
    rule: Phase2Rule,
    name: &'static str,
    /// Scratch: expected availability per machine, refreshed per iteration.
    avail: Vec<f64>,
}

impl ScalarMapper {
    /// MinCompletion-MinCompletion.
    #[must_use]
    pub fn mm() -> Self {
        Self { rule: Phase2Rule::MinCompletion, name: "MM", avail: Vec::new() }
    }

    /// MinCompletion-SoonestDeadline.
    #[must_use]
    pub fn msd() -> Self {
        Self { rule: Phase2Rule::SoonestDeadline, name: "MSD", avail: Vec::new() }
    }

    /// MinCompletion-MaxUrgency.
    #[must_use]
    pub fn mmu() -> Self {
        Self { rule: Phase2Rule::MaxUrgency, name: "MMU", avail: Vec::new() }
    }

    /// The phase-2 rule in use.
    #[must_use]
    pub fn rule(&self) -> Phase2Rule {
        self.rule
    }

    /// Phase 1: best machine (minimum expected completion) for `task`
    /// among machines with free slots. Returns `(machine, completion)`.
    fn best_machine(&self, ctx: &MapContext<'_>, task: &Task) -> Option<(MachineId, f64)> {
        let pet = &ctx.spec().pet;
        let mut best: Option<(MachineId, f64)> = None;
        for m in 0..ctx.num_machines() {
            let machine_id = MachineId::from(m);
            if !ctx.machine(machine_id).has_free_slot() {
                continue;
            }
            let completion = self.avail[m] + pet.mean_exec(task.type_id, machine_id);
            if best.is_none_or(|(_, c)| completion < c) {
                best = Some((machine_id, completion));
            }
        }
        best
    }

    fn refresh_availability(&mut self, ctx: &MapContext<'_>) {
        let pet = &ctx.spec().pet;
        let now = ctx.now();
        self.avail.clear();
        self.avail.extend(
            (0..ctx.num_machines())
                .map(|m| expected_available(ctx.machine(MachineId::from(m)), pet, now)),
        );
    }
}

/// A provisional phase-1 pair.
#[derive(Debug, Clone, Copy)]
struct Pair {
    task: TaskId,
    deadline: Time,
    machine: MachineId,
    completion: f64,
}

impl Mapper for ScalarMapper {
    fn name(&self) -> &str {
        self.name
    }

    fn on_mapping_event(&mut self, ctx: &mut MapContext<'_>) {
        if ctx.total_free_slots() == 0 || ctx.batch().is_empty() {
            return;
        }
        // Expected availabilities are a function of each machine's own
        // queue, so they are computed once per event and then patched
        // point-wise: a commit only changes the assigned machine.
        self.refresh_availability(ctx);
        loop {
            if ctx.total_free_slots() == 0 || ctx.batch().is_empty() {
                break;
            }

            // Phase 1: provisional (task, best machine) pairs.
            let mut pairs: Vec<Pair> = Vec::with_capacity(ctx.batch().len());
            for task in ctx.batch() {
                if let Some((machine, completion)) = self.best_machine(ctx, task) {
                    pairs.push(Pair {
                        task: task.id,
                        deadline: task.deadline,
                        machine,
                        completion,
                    });
                }
            }
            let Some(chosen) = self.select(&pairs) else { break };
            ctx.assign(chosen.task, chosen.machine).expect("pair referenced a free slot");
            // Only the assigned machine's availability moved.
            self.avail[chosen.machine.index()] =
                expected_available(ctx.machine(chosen.machine), &ctx.spec().pet, ctx.now());
        }
    }
}

impl ScalarMapper {
    fn select(&self, pairs: &[Pair]) -> Option<Pair> {
        match self.rule {
            Phase2Rule::MinCompletion => {
                pairs.iter().min_by(|a, b| a.completion.total_cmp(&b.completion)).copied()
            }
            Phase2Rule::SoonestDeadline => pairs
                .iter()
                .min_by(|a, b| {
                    a.deadline.cmp(&b.deadline).then_with(|| a.completion.total_cmp(&b.completion))
                })
                .copied(),
            Phase2Rule::MaxUrgency => pairs
                .iter()
                .max_by(|a, b| {
                    urgency(a.deadline, a.completion)
                        .total_cmp(&urgency(b.deadline, b.completion))
                        // Tie (e.g. both infinite): prefer min completion.
                        .then_with(|| b.completion.total_cmp(&a.completion))
                })
                .copied(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcsim_model::{
        MachineSpec, PetBuilder, PriceTable, SpecMemo, SystemSpec, TaskTypeId, TaskTypeSpec,
    };
    use hcsim_sim::{run_simulation, SimConfig};
    use hcsim_stats::SeedSequence;

    /// Two machines: machine 0 fast for type 0, machine 1 fast for type 1.
    fn affinity_spec() -> SystemSpec {
        let mut rng = SeedSequence::new(5).stream(0);
        let (pet, truth) = PetBuilder::new()
            .shape_range(50.0, 50.0)
            .build(&[vec![10.0, 40.0], vec![40.0, 10.0]], &mut rng);
        SystemSpec {
            machines: vec![MachineSpec { name: "m0".into() }, MachineSpec { name: "m1".into() }],
            task_types: vec![
                TaskTypeSpec { name: "t0".into() },
                TaskTypeSpec { name: "t1".into() },
            ],
            pet,
            truth,
            prices: PriceTable::uniform(2, 1.0),
            queue_capacity: 6,
            coldstart: None,
            memo: SpecMemo::default(),
        }
        .validated()
    }

    fn task(id: u32, tt: u16, arrival: Time, deadline: Time) -> Task {
        Task { id: TaskId(id), type_id: TaskTypeId(tt), arrival, deadline }
    }

    #[test]
    fn mm_exploits_affinity() {
        let spec = affinity_spec();
        // Alternating types, generous deadlines: MM should route type 0 to
        // machine 0 and type 1 to machine 1.
        let tasks: Vec<Task> = (0..8).map(|i| task(i, (i % 2) as u16, 0, 10_000)).collect();
        let mut mapper = ScalarMapper::mm();
        let mut rng = SeedSequence::new(6).stream(0);
        let report = run_simulation(&spec, SimConfig::untrimmed(), &tasks, &mut mapper, &mut rng);
        for rec in &report.records {
            let expected_machine = rec.task.type_id.index();
            assert_eq!(
                rec.machine.unwrap().index(),
                expected_machine,
                "task {:?} misrouted",
                rec.task
            );
        }
        assert_eq!(report.metrics.outcomes.on_time, 8);
    }

    /// One machine with a queue of one slot: a long blocker forces later
    /// arrivals to accumulate in the batch, exposing phase-2 ordering.
    fn bottleneck_spec() -> SystemSpec {
        let mut rng = SeedSequence::new(15).stream(0);
        let (pet, truth) = PetBuilder::new().shape_range(50.0, 50.0).build(&[vec![50.0]], &mut rng);
        SystemSpec {
            machines: vec![MachineSpec { name: "m0".into() }],
            task_types: vec![TaskTypeSpec { name: "t0".into() }],
            pet,
            truth,
            prices: PriceTable::uniform(1, 1.0),
            queue_capacity: 1,
            coldstart: None,
            memo: SpecMemo::default(),
        }
        .validated()
    }

    /// Runs the bottleneck scenario and returns (start of task1, start of
    /// task2) — task 2 arrives later but is more deadline-pressed.
    fn bottleneck_starts(mapper: &mut ScalarMapper, seed: u64) -> (Time, Time) {
        let spec = bottleneck_spec();
        let tasks = vec![
            task(0, 0, 0, 100_000), // blocker: occupies the only slot
            task(1, 0, 1, 100_000), // relaxed deadline
            task(2, 0, 2, 400),     // pressed deadline, arrives last
        ];
        let mut rng = SeedSequence::new(seed).stream(0);
        let report = run_simulation(&spec, SimConfig::untrimmed(), &tasks, mapper, &mut rng);
        let start_of = |id: u32| {
            report
                .records
                .iter()
                .find(|r| r.task.id.0 == id)
                .and_then(|r| r.started_at)
                .unwrap_or(u64::MAX)
        };
        (start_of(1), start_of(2))
    }

    #[test]
    fn msd_commits_soonest_deadline_first() {
        let (relaxed, pressed) = bottleneck_starts(&mut ScalarMapper::msd(), 7);
        assert!(
            pressed < relaxed,
            "MSD must start the sooner deadline first: relaxed {relaxed}, pressed {pressed}"
        );
    }

    #[test]
    fn mmu_prioritizes_urgent_tasks() {
        let (relaxed, pressed) = bottleneck_starts(&mut ScalarMapper::mmu(), 8);
        assert!(
            pressed < relaxed,
            "MMU must start the more urgent task first: relaxed {relaxed}, pressed {pressed}"
        );
    }

    #[test]
    fn mm_ignores_deadlines_entirely() {
        // MM commits min completion; with identical types the earlier batch
        // position wins the tie deterministically, so the relaxed task
        // (arrived first) starts first despite the pressed deadline behind.
        let (relaxed, pressed) = bottleneck_starts(&mut ScalarMapper::mm(), 9);
        assert!(
            relaxed < pressed,
            "MM should be deadline-blind: relaxed {relaxed}, pressed {pressed}"
        );
    }

    #[test]
    fn names_and_rules() {
        assert_eq!(ScalarMapper::mm().name(), "MM");
        assert_eq!(ScalarMapper::msd().name(), "MSD");
        assert_eq!(ScalarMapper::mmu().name(), "MMU");
        assert_eq!(ScalarMapper::mm().rule(), Phase2Rule::MinCompletion);
        assert_eq!(ScalarMapper::msd().rule(), Phase2Rule::SoonestDeadline);
        assert_eq!(ScalarMapper::mmu().rule(), Phase2Rule::MaxUrgency);
    }

    #[test]
    fn fills_queues_until_capacity() {
        let spec = affinity_spec();
        // 20 simultaneous tasks, capacity 2×6: exactly 12 map immediately,
        // the rest stay in the batch (and expire or map later).
        let tasks: Vec<Task> = (0..20).map(|i| task(i, 0, 0, 10_000)).collect();
        let mut mapper = ScalarMapper::mm();
        let mut rng = SeedSequence::new(9).stream(0);
        let report = run_simulation(&spec, SimConfig::untrimmed(), &tasks, &mut mapper, &mut rng);
        // With generous deadlines everything eventually completes.
        assert_eq!(report.metrics.outcomes.on_time, 20);
    }
}
