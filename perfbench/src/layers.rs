//! Direct calls into single layers, on the workload's own spec and tasks:
//! scorer construction, admission worth and the PMF kernels.

use std::time::Instant;

use hcsim_core::{ProbScorer, PruningConfig};
use hcsim_model::{MachineId, SystemSpec, Task, TaskTypeId};
use hcsim_pmf::{convolve, queue_step, DropPolicy, Time};
use hcsim_service::admission_worth;

use crate::probe::ns_since;
use crate::stats::median;

/// Median host time of `ProbScorer::for_spec` over `reps` builds, in ns.
#[must_use]
pub fn scorer_init_ns(spec: &SystemSpec, reps: usize) -> f64 {
    let budget = PruningConfig::default().impulse_budget;
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(ProbScorer::for_spec(spec, DropPolicy::All, budget));
            ns_since(t0) as f64
        })
        .collect();
    median(&times)
}

/// Median over `reps` passes of the mean host time of one
/// `admission_worth` call on each of `tasks` at its arrival, in ns.
#[must_use]
pub fn admission_ns(spec: &SystemSpec, tasks: &[Task], reps: usize) -> f64 {
    let rho = hcsim_service::ServiceConfig::default().rho;
    let per_call: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            for task in tasks {
                std::hint::black_box(admission_worth(spec, task, task.arrival, rho));
            }
            ns_since(t0) as f64 / tasks.len() as f64
        })
        .collect();
    median(&per_call)
}

/// Median over `reps` passes of the mean host time of one `convolve` and
/// one `queue_step` over pairs of the spec's own PET cells, in ns. Each
/// pair is two task types on one machine: the execution PMF of a queued
/// task and that of the task behind it.
#[must_use]
pub fn pmf_kernel_ns(spec: &SystemSpec, reps: usize) -> (f64, f64) {
    const PAIRS: usize = 32;
    let pet = &spec.pet;
    let (types, machines) = (pet.task_types(), pet.machines());
    let pairs: Vec<_> = (0..PAIRS)
        .map(|k| {
            let m = MachineId::from((k * 7) % machines);
            let a = pet.pmf(TaskTypeId::from(k % types), m);
            let b = pet.pmf(TaskTypeId::from((k + 1) % types), m);
            (a, b, (a.mean() + b.mean()) as Time)
        })
        .collect();
    let mut conv = Vec::with_capacity(reps);
    let mut step = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        for (a, b, _) in &pairs {
            std::hint::black_box(convolve(a, b));
        }
        conv.push(ns_since(t0) as f64 / PAIRS as f64);
        let t0 = Instant::now();
        for (a, b, deadline) in &pairs {
            std::hint::black_box(queue_step(a, b, *deadline, DropPolicy::All));
        }
        step.push(ns_since(t0) as f64 / PAIRS as f64);
    }
    (median(&conv), median(&step))
}
