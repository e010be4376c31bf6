//! The assembled system specification handed to the simulator.

use crate::{ColdStartModel, GroundTruth, PetMatrix, PriceTable};
use serde::{Deserialize, Serialize};
use std::any::Any;
use std::sync::{Arc, Mutex, PoisonError};

/// One machine of the HC system.
///
/// Machines in this model are *individually* heterogeneous (§VI-A uses
/// eight distinct physical machines), so there is no separate machine-type
/// layer: a machine's identity is its PET column.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MachineSpec {
    /// Human-readable name (e.g. the benchmark machine it emulates).
    pub name: String,
}

/// One task type of the HC system (a PET row).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskTypeSpec {
    /// Human-readable name (e.g. the SPECint benchmark or transcoding
    /// operation it represents).
    pub name: String,
}

/// Everything static about an HC system: machines, task types, the PET
/// matrix the scheduler consults, the ground truth the simulator samples,
/// prices, and the machine-queue capacity.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SystemSpec {
    /// The machines (PET columns).
    pub machines: Vec<MachineSpec>,
    /// The task types (PET rows).
    pub task_types: Vec<TaskTypeSpec>,
    /// The scheduler's probabilistic execution-time model.
    pub pet: PetMatrix,
    /// The distributions actual execution times are drawn from.
    pub truth: GroundTruth,
    /// Cloud prices for the cost experiments.
    pub prices: PriceTable,
    /// Machine-queue capacity *including* the executing task (§VII-A:
    /// "a machine-queue size of six, counting the executing task").
    pub queue_capacity: usize,
    /// Serverless cold-start model (spin-up PMFs + keep-alive). `None`
    /// keeps the classic HC semantics where every start is warm.
    pub coldstart: Option<ColdStartModel>,
    /// Tables derived from this spec (the scorer's prefix CDFs, cold PET
    /// and shard envelopes), built once and shared by every mapper that
    /// runs on the spec or any clone of it. Not part of the spec's value:
    /// never serialized, and `==` and `Debug` read the same whatever it
    /// holds. Literals start it empty with `SpecMemo::default()`.
    #[serde(skip)]
    pub memo: SpecMemo,
}

/// One memo entry: a caller-chosen key and the value built for it.
type MemoEntry = (usize, Arc<dyn Any + Send + Sync>);

/// A memo of values derived from a [`SystemSpec`], attached to the spec
/// itself so that everything running on one spec shares them.
///
/// Clones share the memo. It holds one entry per key (the scorer keys
/// on its compaction budget). Because `SystemSpec`'s fields are public,
/// an entry can outlive the inputs it was built from, so every lookup
/// revalidates the entry it finds and rebuilds it on a mismatch. Values
/// must not hold the spec itself, or the spec and its memo would keep
/// each other alive.
#[derive(Clone, Default)]
pub struct SpecMemo {
    entries: Arc<Mutex<Vec<MemoEntry>>>,
}

impl SpecMemo {
    /// The value memoized under `key`, if it is a `T` that `fresh`
    /// accepts; otherwise `build()`, stored under `key` in place of any
    /// older entry. The lock is held while `fresh` and `build` run, so
    /// concurrent callers on one spec build once and share the result;
    /// neither closure may use the same memo.
    pub fn get_or_build<T: Any + Send + Sync>(
        &self,
        key: usize,
        fresh: impl FnOnce(&T) -> bool,
        build: impl FnOnce() -> T,
    ) -> Arc<T> {
        // A panicking `build` poisons the lock before anything was
        // stored, and each store is one push or assignment, so the
        // entries are valid whatever a poisoned lock interrupted.
        let mut entries = self.entries.lock().unwrap_or_else(PoisonError::into_inner);
        let slot = entries.iter().position(|(k, _)| *k == key);
        if let Some(hit) = slot
            .and_then(|i| Arc::clone(&entries[i].1).downcast::<T>().ok())
            .filter(|value| fresh(value))
        {
            return hit;
        }
        let value = Arc::new(build());
        let entry: MemoEntry = (key, Arc::clone(&value) as Arc<dyn Any + Send + Sync>);
        match slot {
            Some(i) => entries[i] = entry,
            None => entries.push(entry),
        }
        value
    }

    /// Number of memoized entries (diagnostics/tests).
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.lock().unwrap_or_else(PoisonError::into_inner).len()
    }

    /// True when nothing has been memoized yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Every memo compares equal: the memo is a cache, not part of a spec's
/// value.
impl PartialEq for SpecMemo {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl std::fmt::Debug for SpecMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("SpecMemo")
    }
}

impl SystemSpec {
    /// Validates internal consistency; returns `self` for chaining.
    ///
    /// # Panics
    ///
    /// Panics when any dimension disagrees (PET vs ground truth vs machine
    /// list vs price table) or the queue capacity is zero.
    #[must_use]
    pub fn validated(self) -> Self {
        assert_eq!(self.pet.machines(), self.machines.len(), "PET machine count");
        assert_eq!(self.pet.task_types(), self.task_types.len(), "PET task type count");
        assert_eq!(self.truth.machines(), self.machines.len(), "truth machine count");
        assert_eq!(self.truth.task_types(), self.task_types.len(), "truth task type count");
        assert_eq!(self.prices.machines(), self.machines.len(), "price table size");
        assert!(self.queue_capacity >= 1, "queue capacity must include the executing slot");
        if let Some(cold) = &self.coldstart {
            cold.assert_dims(self.task_types.len(), self.machines.len());
        }
        self
    }

    /// Number of machines.
    #[must_use]
    pub fn num_machines(&self) -> usize {
        self.machines.len()
    }

    /// Number of task types.
    #[must_use]
    pub fn num_task_types(&self) -> usize {
        self.task_types.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PetBuilder;
    use hcsim_stats::SeedSequence;

    fn spec() -> SystemSpec {
        let mut rng = SeedSequence::new(1).stream(0);
        let means = vec![vec![50.0, 100.0], vec![120.0, 60.0]];
        let (pet, truth) = PetBuilder::new().build(&means, &mut rng);
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
    }

    #[test]
    fn valid_spec_passes() {
        let s = spec().validated();
        assert_eq!(s.num_machines(), 2);
        assert_eq!(s.num_task_types(), 2);
    }

    #[test]
    fn memo_is_shared_by_clones_and_ignored_by_eq() {
        let s = spec();
        let copy = s.clone();
        let built = s.memo.get_or_build(4, |_: &u32| true, || 7u32);
        let hit = copy.memo.get_or_build(4, |_: &u32| true, || unreachable!("clone shares memo"));
        assert!(Arc::ptr_eq(&built, &hit));
        assert_eq!(s, spec(), "a filled memo does not change the spec's value");
        assert_eq!(format!("{s:?}"), format!("{:?}", spec()));
    }

    #[test]
    fn memo_rebuilds_rejected_entries_in_place() {
        let memo = SpecMemo::default();
        let first = memo.get_or_build(1, |_: &u32| true, || 1u32);
        let other_key = memo.get_or_build(2, |_: &u32| true, || 2u32);
        let rebuilt = memo.get_or_build(1, |_: &u32| false, || 3u32);
        assert_eq!((*first, *other_key, *rebuilt), (1, 2, 3));
        assert_eq!(memo.len(), 2, "a rejected entry is replaced, not duplicated");
        let hit = memo.get_or_build(1, |v: &u32| *v == 3, || unreachable!("fresh entry"));
        assert!(Arc::ptr_eq(&rebuilt, &hit));
    }

    #[test]
    #[should_panic(expected = "price table size")]
    fn price_mismatch_caught() {
        let mut s = spec();
        s.prices = PriceTable::uniform(3, 1.0);
        let _ = s.validated();
    }

    #[test]
    #[should_panic(expected = "PET machine count")]
    fn machine_count_mismatch_caught() {
        let mut s = spec();
        s.machines.push(MachineSpec { name: "extra".into() });
        s.prices = PriceTable::uniform(3, 1.0);
        let _ = s.validated();
    }

    #[test]
    #[should_panic(expected = "queue capacity")]
    fn zero_capacity_caught() {
        let mut s = spec();
        s.queue_capacity = 0;
        let _ = s.validated();
    }
}
