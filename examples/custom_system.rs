//! Building your *own* HC system — the downstream-adoption path.
//!
//! Everything in the evaluation (SPECint machines, transcoding VMs) is
//! just data fed through the same public API shown here: describe your
//! machines, your task types, and a matrix of mean execution times; the
//! library builds the PET, and any mapper runs on top.
//!
//! The example models a small ML-inference edge cluster: three accelerator
//! tiers serving three model families under a latency SLO.
//!
//! ```sh
//! cargo run --release --example custom_system
//! ```

use hcsim::prelude::*;

fn main() {
    let seeds = SeedSequence::new(777);

    // Mean service times (ms): rows = model families, columns = machines.
    // The T4 crushes the vision transformer, the CPU box is competitive
    // only for the tiny tabular model — inconsistent heterogeneity.
    let means = vec![
        vec![40.0, 90.0, 260.0], // vision transformer
        vec![70.0, 60.0, 150.0], // speech model
        vec![30.0, 25.0, 35.0],  // tabular model
    ];
    let (pet, truth) = PetBuilder::new()
        .shape_range(2.0, 10.0) // bursty, input-dependent latency
        .samples_per_cell(500)
        .build(&means, &mut seeds.stream(0));

    let spec = SystemSpec {
        machines: vec![
            MachineSpec { name: "gpu-t4".into() },
            MachineSpec { name: "gpu-a2".into() },
            MachineSpec { name: "cpu-c6i".into() },
        ],
        task_types: vec![
            TaskTypeSpec { name: "vision".into() },
            TaskTypeSpec { name: "speech".into() },
            TaskTypeSpec { name: "tabular".into() },
        ],
        pet,
        truth,
        prices: PriceTable::new(vec![0.526, 0.75, 0.34]),
        queue_capacity: 4,
        coldstart: None,
        memo: SpecMemo::default(),
    }
    .validated();

    // Requests with a hard latency SLO, arriving at ~2.5x cluster capacity.
    let workload = WorkloadConfig {
        num_tasks: 600,
        span: 60_000,
        oversubscription: 4_500.0,
        slack_beta: 1.5,
        arrival_variance_frac: 0.5, // bursty traffic
    };
    let tasks = WorkloadGenerator::new(workload).generate(&spec, &mut seeds.stream(1));

    println!("edge-inference cluster: 3 machines, 3 model families, hard SLOs\n");
    for (kind_name, report) in [
        ("PAM", {
            let mut m = Pam::new(PruningConfig::default());
            run_simulation(&spec, SimConfig::untrimmed(), &tasks, &mut m, &mut seeds.stream(2))
        }),
        ("MM", {
            let mut m = ScalarMapper::mm();
            run_simulation(&spec, SimConfig::untrimmed(), &tasks, &mut m, &mut seeds.stream(2))
        }),
    ] {
        println!(
            "{kind_name:>4}: {:5.1}% within SLO | {:3} pruned early | ${:.4} spent",
            report.metrics.pct_on_time, report.metrics.outcomes.pruned, report.total_cost
        );
        for (tt, pct) in report.metrics.per_type_pct.iter().enumerate() {
            if !pct.is_nan() {
                println!("        {:<8} {:5.1}%", spec.task_types[tt].name, pct);
            }
        }
    }
    println!(
        "\nthe same five calls work for any system: describe machines + task\n\
         types + mean latencies, build the PET, generate or import a trace,\n\
         pick a mapper, run_simulation."
    );
}
