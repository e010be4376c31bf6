//! The scorer's spec-derived tables, built once per [`SystemSpec`] and
//! shared by every mapper on it.
//!
//! Everything here depends only on the PET (and, in the serverless model,
//! the spin-up PET) plus the compaction budget: the prefix CDF of every
//! warm and cold cell and the per-shard envelope CDFs of the
//! [`crate::ScoreTable`] bound pass. The PET is fixed for a whole
//! experiment, yet every trial used to rebuild these tables on its first
//! event — under a cold-start model that means one spin-up ⊛ execution
//! convolution per (function, machine) cell per trial.
//! [`SpecTables::for_spec`] builds them once and memoizes them on the spec
//! ([`SystemSpec::memo`]), so every scorer built from the spec or a clone
//! of it holds the same `Arc`. The tables are immutable, so sharing them
//! cannot change a decision.

use crate::chain::PetTables;
use crate::scorer::{shard_range, TABLE_SHARD_WIDTH};
use hcsim_model::{MachineId, PetMatrix, SystemSpec, TaskTypeId, Time};
use hcsim_pmf::Pmf;
use hcsim_sim::MachineState;
use std::sync::Arc;

/// Prefix-CDF view of one PET cell.
#[derive(Debug, Clone)]
pub(crate) struct PetCdf {
    pub(crate) times: Vec<Time>,
    /// `prefix[i]` = total mass at `times[..=i]`.
    pub(crate) prefix: Vec<f64>,
    pub(crate) mean: f64,
}

impl PetCdf {
    fn build(pmf: &Pmf) -> Self {
        let times: Vec<Time> = pmf.times().to_vec();
        let mut acc = 0.0;
        let prefix = pmf
            .masses()
            .iter()
            .map(|&p| {
                acc += p;
                acc
            })
            .collect();
        Self { times, prefix, mean: pmf.mean() }
    }

    /// Mass at execution times `<= t`.
    #[inline]
    pub(crate) fn cdf_at(&self, t: Time) -> f64 {
        let idx = self.times.partition_point(|&x| x <= t);
        if idx == 0 {
            0.0
        } else {
            self.prefix[idx - 1]
        }
    }
}

/// Bitwise equality: the tables are caches, so "equal" means "would
/// produce the same bits". Envelope CDFs carry a NaN `mean`, which this
/// treats as equal to itself.
impl PartialEq for PetCdf {
    fn eq(&self, other: &Self) -> bool {
        self.times == other.times
            && self.mean.to_bits() == other.mean.to_bits()
            && self.prefix.len() == other.prefix.len()
            && self.prefix.iter().zip(&other.prefix).all(|(a, b)| a.to_bits() == b.to_bits())
    }
}

/// Pointwise-max envelope of a shard's member CDFs: breakpoints are the
/// union of member breakpoints (a max of step functions only steps where
/// some member steps), values the running max of the member prefixes.
/// Non-decreasing because every member prefix is. Members are passed by
/// reference so warm and cold rows can be enveloped together.
fn envelope_cdf(members: &[&PetCdf]) -> PetCdf {
    let mut times: Vec<Time> = members.iter().flat_map(|c| c.times.iter().copied()).collect();
    times.sort_unstable();
    times.dedup();
    let mut cursors = vec![0usize; members.len()];
    let prefix = times
        .iter()
        .map(|&t| {
            let mut v = 0.0f64;
            for (cursor, member) in cursors.iter_mut().zip(members) {
                while *cursor < member.times.len() && member.times[*cursor] <= t {
                    *cursor += 1;
                }
                if *cursor > 0 {
                    v = v.max(member.prefix[*cursor - 1]);
                }
            }
            v
        })
        .collect();
    PetCdf { times, prefix, mean: f64::NAN }
}

/// Row-major prefix CDFs of every cell of `pet`.
fn cell_cdfs(pet: &PetMatrix) -> Vec<PetCdf> {
    let mut cdfs = Vec::with_capacity(pet.task_types() * pet.machines());
    for tt in 0..pet.task_types() {
        for m in 0..pet.machines() {
            cdfs.push(PetCdf::build(pet.pmf(TaskTypeId::from(tt), MachineId::from(m))));
        }
    }
    cdfs
}

/// The immutable, spec-derived half of the scorer: the warm and cold
/// PETs, the prefix CDF of each of their cells, and the shard envelope
/// CDFs, all for one compaction budget. The drop policy is not part of
/// it; each scorer keeps its own. One `Arc` serves every scorer built
/// from the same spec and every pool worker of each scorer; the
/// per-event clock travels separately.
///
/// Equality is bitwise over every table (a NaN compares equal to
/// itself), which is what the sharing tests compare a memoized build
/// against.
#[derive(Debug, PartialEq)]
pub struct SpecTables {
    /// The warm (classic) PET.
    pet: PetMatrix,
    /// Cold-placement PET (spin-up ⊛ execution per cell, compacted to
    /// `budget`); `None` in the classic HC model.
    cold_pet: Option<PetMatrix>,
    /// The spin-up PET the cold side was derived from, when the tables
    /// were built from a spec: part of the memo's freshness check.
    spinup: Option<PetMatrix>,
    /// Compaction budget the cold PET and every chain use.
    budget: usize,
    machines: usize,
    /// Number of [`TABLE_SHARD_WIDTH`]-machine shards.
    shards: usize,
    /// Prefix CDFs, row-major `(task_type, machine)`.
    cdfs: Vec<PetCdf>,
    /// Cold-placement prefix CDFs, same layout; `None` in the classic
    /// model where every start is warm.
    cold_cdfs: Option<Vec<PetCdf>>,
    /// Shard envelope CDFs, row-major `(task_type, shard)`: the pointwise
    /// max of the shard members' prefix CDFs. `CDF_env(t) ≥ CDF_m(t)` for
    /// every member `m`, so a shard-level robustness bound computed from
    /// the envelope dominates every member's individual bound — a shard
    /// the envelope proves below a threshold needs no per-machine work at
    /// all. Under a cold-start model the envelope additionally covers the
    /// *cold* member CDFs — compaction can locally break the stochastic
    /// dominance of cold over warm cells, so cold CDFs are folded in
    /// explicitly to keep the bound valid for whichever cell
    /// [`SpecTables::cdf_for`] picks. The `mean` field of an envelope is
    /// unused and left NaN.
    shard_cdfs: Vec<PetCdf>,
}

impl SpecTables {
    /// Builds the tables for `pet` and an optional cold-placement PET
    /// (same dimensions; see [`hcsim_model::ColdStartModel::cold_pet`]).
    /// Both PETs are `Arc`-backed, so keeping them costs no copy. Not
    /// memoized: [`SpecTables::for_spec`] is the shared path.
    ///
    /// # Panics
    ///
    /// Panics when `cold`'s dimensions disagree with `pet`'s.
    #[must_use]
    pub fn build(pet: &PetMatrix, cold: Option<&PetMatrix>, budget: usize) -> Self {
        let machines = pet.machines();
        let cdfs = cell_cdfs(pet);
        let cold_cdfs = cold.map(|cold| {
            assert_eq!(cold.task_types(), pet.task_types(), "cold PET task type count");
            assert_eq!(cold.machines(), machines, "cold PET machine count");
            cell_cdfs(cold)
        });
        let shards = machines.div_ceil(TABLE_SHARD_WIDTH);
        let mut shard_cdfs = Vec::with_capacity(pet.task_types() * shards);
        let mut members: Vec<&PetCdf> = Vec::with_capacity(2 * TABLE_SHARD_WIDTH);
        for tt in 0..pet.task_types() {
            let row = &cdfs[tt * machines..(tt + 1) * machines];
            let cold_row = cold_cdfs.as_ref().map(|c| &c[tt * machines..(tt + 1) * machines]);
            for s in 0..shards {
                let range = shard_range(s, machines);
                members.clear();
                members.extend(row[range.clone()].iter());
                if let Some(cold_row) = cold_row {
                    members.extend(cold_row[range].iter());
                }
                shard_cdfs.push(envelope_cdf(&members));
            }
        }
        Self {
            pet: pet.clone(),
            cold_pet: cold.cloned(),
            spinup: None,
            budget,
            machines,
            shards,
            cdfs,
            cold_cdfs,
            shard_cdfs,
        }
    }

    /// The tables for `spec` at `budget`, built on the first call and
    /// shared afterwards: memoized on [`SystemSpec::memo`], one entry per
    /// budget, so every scorer on the spec (or a clone of it) gets the
    /// same `Arc`. Under a cold-start model the cold PET is derived here —
    /// spin-up ⊛ execution per cell, compacted to `budget`.
    ///
    /// A memoized entry is used only while the spec's PET and spin-up PET
    /// still equal the ones it was built from (an `Arc::ptr_eq` check
    /// while the spec is untouched); after either field is replaced, or
    /// the cold-start model removed, the entry is rebuilt. The keep-alive
    /// window does not enter the tables, so changing it keeps the entry.
    #[must_use]
    pub fn for_spec(spec: &SystemSpec, budget: usize) -> Arc<Self> {
        spec.memo.get_or_build(
            budget,
            |tables: &Self| tables.built_from(spec, budget),
            || {
                let cold = spec.coldstart.as_ref().map(|c| c.cold_pet(&spec.pet, budget));
                Self {
                    spinup: spec.coldstart.as_ref().map(|c| c.spinup.clone()),
                    ..Self::build(&spec.pet, cold.as_ref(), budget)
                }
            },
        )
    }

    /// True when these tables are what [`SpecTables::for_spec`] would
    /// build for `spec` at `budget` now.
    fn built_from(&self, spec: &SystemSpec, budget: usize) -> bool {
        self.budget == budget
            && self.pet == spec.pet
            && self.spinup.as_ref() == spec.coldstart.as_ref().map(|c| &c.spinup)
    }

    /// The warm/cold PET pair every queue chain selects its cells from
    /// (cold side absent in the classic model).
    #[must_use]
    pub fn pets(&self) -> PetTables<'_> {
        PetTables { warm: &self.pet, cold: self.cold_pet.as_ref() }
    }

    /// Compaction budget the tables were built for.
    #[must_use]
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Number of machines (PET columns).
    pub(crate) fn machines(&self) -> usize {
        self.machines
    }

    /// Number of [`TABLE_SHARD_WIDTH`]-machine shards.
    pub(crate) fn shards(&self) -> usize {
        self.shards
    }

    /// The warm prefix CDF of cell `(tt, m)`.
    #[inline]
    pub(crate) fn cdf(&self, tt: TaskTypeId, m: MachineId) -> &PetCdf {
        &self.cdfs[tt.index() * self.machines + m.index()]
    }

    /// The CDF a hypothetical append of type `tt` to `machine` scores
    /// with: the cold cell when the placement would pay a spin-up (no warm
    /// container, no same-type entry already queued — the warmth rule of
    /// [`PetTables`]), the warm cell otherwise.
    #[inline]
    pub(crate) fn cdf_for(&self, tt: TaskTypeId, machine: &MachineState) -> &PetCdf {
        match &self.cold_cdfs {
            Some(cold) if crate::chain::append_would_be_cold(machine, tt) => {
                &cold[tt.index() * self.machines + machine.id().index()]
            }
            _ => self.cdf(tt, machine.id()),
        }
    }

    /// The envelope CDF of task type `tt` over shard `shard`.
    #[inline]
    pub(crate) fn shard_cdf(&self, tt: TaskTypeId, shard: usize) -> &PetCdf {
        &self.shard_cdfs[tt.index() * self.shards + shard]
    }
}
