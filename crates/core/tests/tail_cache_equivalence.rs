//! Equivalence proof for the incremental tail cache: replay random machine
//! event sequences (assign / start / finish / evict / preempt / drop /
//! clock advance) and assert that the scorer's cached tail — maintained by
//! prefix reuse and single-step extension — is **byte-identical** to a
//! from-scratch [`analyze_queue`] of the same machine state at the same
//! instant. Per-slot robustness/skewness served from the cache must match
//! the from-scratch analysis exactly as well.
//!
//! This is the safety net that lets the mapping loop trust incremental
//! maintenance: both paths perform the same `queue_step` → `compact`
//! sequence, so *any* divergence is a bug, not float noise — hence exact
//! (bitwise) comparison, no epsilons.
//!
//! A second replay aims the clock at the executing task's PET impulses —
//! advances inside one impulse gap, across an impulse, and into the
//! overrun region — and checks through the chain revision that a chain
//! was carried across the tick exactly when its head could not move.

use hcsim_core::chain::analyze_queue;
use hcsim_core::ProbScorer;
use hcsim_model::{MachineId, PetBuilder, PetMatrix, Task, TaskId, TaskTypeId, Time};
use hcsim_pmf::{DropPolicy, Pmf};
use hcsim_sim::testkit::{self, QueueOp};
use hcsim_sim::MachineState;
use hcsim_stats::SeedSequence;
use proptest::prelude::*;

const BUDGET: usize = 16;
const CAPACITY: usize = 6;
const NUM_TYPES: usize = 3;

fn build_pet() -> PetMatrix {
    let mut rng = SeedSequence::new(4242).stream(0);
    let means: Vec<Vec<f64>> = (0..NUM_TYPES).map(|tt| vec![20.0 + 15.0 * tt as f64]).collect();
    let (pet, _) = PetBuilder::new().shape_range(2.0, 8.0).build(&means, &mut rng);
    pet
}

/// One scripted step: an optional clock advance followed by a queue op.
#[derive(Debug, Clone, Copy)]
struct Step {
    advance: Time,
    op: OpKind,
}

#[derive(Debug, Clone, Copy)]
enum OpKind {
    Push { tt: u16, slack: Time },
    StartNext { total: Time },
    Finish,
    Evict,
    Preempt,
    DropAt { nth: usize },
    DrainExpired,
}

/// Decodes one step from plain integers (the vendored proptest stand-in
/// has no `prop_oneof!`; a weighted decode over a raw tuple is
/// equivalent and keeps cases deterministic).
fn arb_step() -> impl Strategy<Value = Step> {
    ((0u64..5, 1u64..60, 0u32..13), (0u32..NUM_TYPES as u32, 5u64..400, 5u64..120, 0u64..6))
        .prop_map(|((adv_sel, adv, kind), (tt, slack, total, nth))| {
            // ~40% of steps advance the clock; the rest mutate same-event.
            let advance = if adv_sel < 2 { adv } else { 0 };
            let op = match kind {
                0..=3 => OpKind::Push { tt: tt as u16, slack },
                4 | 5 => OpKind::StartNext { total },
                6 | 7 => OpKind::Finish,
                8 => OpKind::Evict,
                9 => OpKind::Preempt,
                10 | 11 => OpKind::DropAt { nth: nth as usize },
                _ => OpKind::DrainExpired,
            };
            Step { advance, op }
        })
}

fn apply_step(machine: &mut MachineState, step: OpKind, now: Time, next_id: &mut u32) {
    match step {
        OpKind::Push { tt, slack } => {
            let task = Task {
                id: TaskId(*next_id),
                type_id: TaskTypeId(tt),
                arrival: now,
                deadline: now + slack,
            };
            *next_id += 1;
            testkit::apply(machine, QueueOp::Push(task));
        }
        OpKind::StartNext { total } => {
            testkit::apply(machine, QueueOp::StartNext { now, total_exec: total });
        }
        OpKind::Finish => {
            testkit::apply(machine, QueueOp::FinishExecuting);
        }
        // The pruner's eviction path is `finish_executing` on the machine;
        // distinguishing it exercises the same transition twice as often.
        OpKind::Evict => {
            testkit::apply(machine, QueueOp::FinishExecuting);
        }
        OpKind::Preempt => {
            testkit::apply(machine, QueueOp::Preempt { now });
        }
        OpKind::DropAt { nth } => {
            let id = machine.pending().nth(nth).map(|t| t.id);
            if let Some(id) = id {
                testkit::apply(machine, QueueOp::RemovePending(id));
            }
        }
        OpKind::DrainExpired => {
            testkit::apply(machine, QueueOp::DrainExpired { now });
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// The headline invariant: after every event in a random replay, the
    /// cached tail equals a from-scratch analysis byte for byte, under
    /// every drop policy.
    #[test]
    fn cached_tail_is_byte_identical_to_from_scratch(
        steps in prop::collection::vec(arb_step(), 1..40),
        policy_idx in 0usize..3,
    ) {
        let policy = [DropPolicy::None, DropPolicy::PendingOnly, DropPolicy::All][policy_idx];
        let pet = build_pet();
        let mut machine = MachineState::new(MachineId(0), CAPACITY);
        let mut scorer = ProbScorer::new(&pet, policy, BUDGET);
        let mut now: Time = 0;
        let mut next_id: u32 = 0;
        for step in steps {
            now += step.advance;
            scorer.begin_event(now);
            apply_step(&mut machine, step.op, now, &mut next_id);
            let cached = scorer.tail(&machine).clone();
            let reference = analyze_queue(&machine, &pet, now, policy, BUDGET);
            // Bitwise equality: times and masses must match exactly.
            prop_assert_eq!(cached.times(), reference.tail.times(), "times diverged at t={}", now);
            prop_assert!(
                cached
                    .masses()
                    .iter()
                    .zip(reference.tail.masses())
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "masses diverged at t={}: {:?} vs {:?}",
                now,
                cached.masses(),
                reference.tail.masses()
            );
        }
    }

    /// The pruner's cached per-slot view must match from-scratch analysis
    /// exactly, including after interleaved tail queries that extend the
    /// chain without slot statistics.
    #[test]
    fn cached_slot_scores_match_from_scratch(
        steps in prop::collection::vec(arb_step(), 1..30),
    ) {
        let policy = DropPolicy::All;
        let pet = build_pet();
        let mut machine = MachineState::new(MachineId(0), CAPACITY);
        let mut scorer = ProbScorer::new(&pet, policy, BUDGET);
        let mut now: Time = 0;
        let mut next_id: u32 = 0;
        for (i, step) in steps.into_iter().enumerate() {
            now += step.advance;
            scorer.begin_event(now);
            apply_step(&mut machine, step.op, now, &mut next_id);
            // Alternate access order so stats-free extensions (tail first)
            // and stats rebuilds (slots first) both get exercised.
            if i % 2 == 0 {
                let _ = scorer.tail(&machine);
            }
            let slots = scorer.slot_scores(&machine).to_vec();
            let reference = analyze_queue(&machine, &pet, now, policy, BUDGET);
            prop_assert_eq!(slots.len(), reference.slots.len());
            for (got, want) in slots.iter().zip(&reference.slots) {
                prop_assert_eq!(got.task.id, want.task.id);
                prop_assert_eq!(got.position, want.position);
                prop_assert!(
                    got.robustness.to_bits() == want.robustness.to_bits(),
                    "robustness diverged for task {} at t={}: {} vs {}",
                    got.task.id, now, got.robustness, want.robustness
                );
                prop_assert!(
                    got.skewness.to_bits() == want.skewness.to_bits(),
                    "skewness diverged for task {} at t={}: {} vs {}",
                    got.task.id, now, got.skewness, want.skewness
                );
            }
        }
    }
}

/// Where one clock advance lands relative to the executing task's PET
/// impulses.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Landing {
    /// Strictly later, still below the next impulse: the head survives.
    InGap,
    /// At or past the next impulse, still below the last one.
    AcrossImpulse,
    /// At or past the last impulse: all mass at or below `elapsed`.
    Overrun,
}

/// The elapsed time one advance from `elapsed` reaches for `landing`
/// (`pick` chooses among the admissible values), or `None` when the PET
/// leaves no room for that landing.
fn land(times: &[Time], elapsed: Time, landing: Landing, pick: u64) -> Option<Time> {
    let split = times.partition_point(|&x| x <= elapsed);
    let last = *times.last().expect("non-empty PET cell");
    match landing {
        Landing::InGap => {
            let next = *times.get(split)?;
            (next > elapsed + 1).then(|| elapsed + 1 + pick % (next - elapsed - 1))
        }
        Landing::AcrossImpulse => {
            let next = *times.get(split)?;
            (next < last).then(|| next + pick % (last - next))
        }
        Landing::Overrun => Some(last.max(elapsed + 1) + pick % 20),
    }
}

/// A sparse PET (one machine): per type, impulses from cumulative gaps
/// starting at time 3 or later, so wide gaps — and an in-gap first
/// advance from a fresh start — always exist.
fn sparse_pet(cells: &[Vec<(Time, f64)>]) -> PetMatrix {
    let pmfs = cells
        .iter()
        .map(|gaps| {
            let mut t = 0;
            let points: Vec<(Time, f64)> = gaps
                .iter()
                .map(|&(gap, mass)| {
                    t += gap;
                    (t, mass)
                })
                .collect();
            let mut pmf = Pmf::from_points(&points).expect("valid points");
            pmf.normalize();
            pmf
        })
        .collect();
    PetMatrix::from_pmfs(cells.len(), 1, pmfs)
}

/// Cached tail and slot view must equal from-scratch analysis bit for bit.
fn assert_matches_scratch(
    scorer: &mut ProbScorer,
    machine: &MachineState,
    pet: &PetMatrix,
    now: Time,
    policy: DropPolicy,
) {
    let reference = analyze_queue(machine, pet, now, policy, BUDGET);
    let cached = scorer.tail(machine).clone();
    assert_eq!(cached.times(), reference.tail.times(), "tail times diverged at t={now}");
    assert!(
        cached
            .masses()
            .iter()
            .zip(reference.tail.masses())
            .all(|(a, b)| a.to_bits() == b.to_bits()),
        "tail masses diverged at t={now}"
    );
    let slots = scorer.slot_scores(machine).to_vec();
    assert_eq!(slots.len(), reference.slots.len());
    for (got, want) in slots.iter().zip(&reference.slots) {
        assert_eq!(got.task.id, want.task.id);
        assert!(
            got.robustness.to_bits() == want.robustness.to_bits()
                && got.skewness.to_bits() == want.skewness.to_bits(),
            "slot of task {} diverged at t={now}: {got:?} vs {want:?}",
            got.task.id
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Cross-tick chain reuse: a task executes under a random sparse PET
    /// with a random pending queue behind it, and the clock advances in
    /// steps aimed at the task's PET impulses. After every advance the
    /// cached chain must equal from-scratch analysis bit for bit, and its
    /// revision must stay put exactly on the in-gap advances — so the
    /// replay cannot pass without taking the cross-tick path (the first
    /// advance always lands in a gap). Pushes between ticks make the
    /// carried head feed fresh link extensions too.
    #[test]
    fn cross_tick_chain_reuse_is_byte_identical(
        cells in prop::collection::vec(prop::collection::vec((3u64..25, 0.05f64..1.0), 1..6), 3..4),
        pending in prop::collection::vec((0u32..NUM_TYPES as u32, 20u64..300), 0..4),
        steps in prop::collection::vec((0u32..3, 0u64..1_000, 0u32..4, 20u64..300), 1..10),
        exec_tt in 0u32..NUM_TYPES as u32,
        start in 0u64..50,
        policy_idx in 0usize..3,
    ) {
        let policy = [DropPolicy::None, DropPolicy::PendingOnly, DropPolicy::All][policy_idx];
        let pet = sparse_pet(&cells);
        let mut scorer = ProbScorer::new(&pet, policy, BUDGET);
        let mut machine = MachineState::new(MachineId(0), CAPACITY);
        let mut next_id: u32 = 0;
        let mut task = |tt: u32, slack: Time, now: Time| {
            next_id += 1;
            let type_id = TaskTypeId(tt as u16);
            Task { id: TaskId(next_id), type_id, arrival: now, deadline: now + slack }
        };
        let head = task(exec_tt, 400, start);
        prop_assert!(testkit::start_executing(&mut machine, head, start, 10_000));
        for &(tt, slack) in &pending {
            testkit::apply(&mut machine, QueueOp::Push(task(tt, slack, start)));
        }
        scorer.begin_event(start);
        assert_matches_scratch(&mut scorer, &machine, &pet, start, policy);
        let times = pet.pmf(TaskTypeId(exec_tt as u16), MachineId(0)).times().to_vec();
        let mut elapsed: Time = 0;
        let mut carried = 0;
        for (i, &(sel, pick, push_tt, slack)) in steps.iter().enumerate() {
            let wanted = if i == 0 {
                Landing::InGap
            } else {
                [Landing::InGap, Landing::AcrossImpulse, Landing::Overrun][sel as usize]
            };
            // Fall back along in-gap → across → overrun when the PET
            // leaves no room for the wanted landing.
            let (landing, next) = [Landing::InGap, Landing::AcrossImpulse, Landing::Overrun]
                .into_iter()
                .skip_while(|&l| l != wanted)
                .find_map(|l| land(&times, elapsed, l, pick).map(|e| (l, e)))
                .expect("overrun always lands");
            prop_assert!(i > 0 || landing == Landing::InGap, "first impulse is at time 3 or later");
            elapsed = next;
            let now = start + elapsed;
            let rev_before = scorer.chain_revision(MachineId(0));
            scorer.begin_event(now);
            assert_matches_scratch(&mut scorer, &machine, &pet, now, policy);
            let rev_after = scorer.chain_revision(MachineId(0));
            if landing == Landing::InGap {
                prop_assert_eq!(rev_before, rev_after, "in-gap advance to t={} rebuilt", now);
                carried += 1;
            } else {
                prop_assert_ne!(rev_before, rev_after, "{:?} to t={} kept the head", landing, now);
            }
            // Same-tick growth behind the (possibly carried) head.
            if push_tt < NUM_TYPES as u32 && machine.has_free_slot() {
                testkit::apply(&mut machine, QueueOp::Push(task(push_tt, slack, now)));
                assert_matches_scratch(&mut scorer, &machine, &pet, now, policy);
                prop_assert_ne!(
                    rev_after,
                    scorer.chain_revision(MachineId(0)),
                    "a new link kept the chain revision"
                );
            }
        }
        prop_assert!(carried > 0, "the cross-tick path never fired");
    }
}
