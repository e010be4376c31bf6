//! # hcsim — Probabilistic Task Pruning for Robust Dynamic Resource Allocation
//!
//! A full reproduction of *"Robust Dynamic Resource Allocation via
//! Probabilistic Task Pruning in Heterogeneous Computing Systems"*
//! (Gentry, Denninnart, Amini Salehi — IPPS 2019, arXiv:1901.09312), built
//! as a workspace of focused crates re-exported here:
//!
//! * [`stats`] — gamma/normal sampling, histograms, Eq. 6 skewness,
//!   Student-t confidence intervals.
//! * [`pmf`] — discrete impulse PMFs; Eq. 1 robustness; Eq. 2–5
//!   completion-time convolution under task-dropping policies.
//! * [`model`] — tasks, machines, the PET matrix, ground truth, prices.
//! * [`workload`] — the SPECint-derived and video-transcoding systems and
//!   the §VI-B workload generator.
//! * [`sim`] — the event-driven oversubscribed-HC-system simulator and the
//!   [`Mapper`](sim::Mapper) trait.
//! * [`core`] — the paper's contribution: the pruning mechanism (Eq. 7–8)
//!   and the PAM/PAMF heuristics plus MM/MSD/MMU/MOC baselines.
//! * [`exp`] — the figure-regeneration harness behind the `hcsim-exp` CLI.
//!
//! ## Quickstart
//!
//! ```
//! use hcsim::prelude::*;
//!
//! // Build the paper's 12-task-type × 8-machine system and a bursty
//! // oversubscribed workload.
//! let seeds = SeedSequence::new(42);
//! let spec = specint_system(6, &mut seeds.stream(0));
//! let workload = WorkloadGenerator::new(WorkloadConfig {
//!     num_tasks: 150,
//!     oversubscription: 19_000.0,
//!     ..Default::default()
//! });
//! let tasks = workload.generate(&spec, &mut seeds.stream(1));
//!
//! // Map it with the Pruning-Aware Mapper and simulate.
//! let mut pam = Pam::new(PruningConfig::default());
//! let report = run_simulation(
//!     &spec,
//!     SimConfig::untrimmed(),
//!     &tasks,
//!     &mut pam,
//!     &mut seeds.stream(2),
//! );
//! println!("robustness: {:.1}%", report.metrics.pct_on_time);
//! assert!(report.metrics.pct_on_time > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use hcsim_core as core;
pub use hcsim_exp as exp;
pub use hcsim_model as model;
pub use hcsim_pmf as pmf;
pub use hcsim_sim as sim;
pub use hcsim_stats as stats;
pub use hcsim_workload as workload;

/// The commonly-needed surface in one import.
pub mod prelude {
    pub use hcsim_core::{
        HeuristicKind, Moc, OversubscriptionDetector, Pam, Pruner, PruningConfig, ScalarMapper,
        SufferageTable,
    };
    pub use hcsim_model::{
        ChurnEvent, ChurnKind, ChurnTrace, MachineId, MachineSpec, PetBuilder, PetMatrix,
        PriceTable, SpecMemo, SystemSpec, Task, TaskId, TaskOutcome, TaskRecord, TaskTypeId,
        TaskTypeSpec, Time,
    };
    pub use hcsim_pmf::{convolve, queue_step, DropPolicy, Pmf};
    pub use hcsim_sim::{
        run_simulation, run_simulation_with_churn, MapContext, Mapper, Metrics, SimConfig,
        SimReport,
    };
    pub use hcsim_stats::{mean_ci95, Gamma, Histogram, SeedSequence};
    pub use hcsim_workload::{
        cluster_churn, specint_cluster, specint_system, transcode_system, ChurnConfig,
        WorkloadConfig, WorkloadGenerator,
    };
}
