//! The §VII-G video-transcoding system.
//!
//! The paper evaluates PAMF vs MinMin on a PET "captured from running four
//! video transcoding types on 660 video files on four heterogeneous Amazon
//! EC2 VMs". The trace files are no longer exercisable offline, so this
//! module synthesizes a PET with the affinity structure reported in the
//! underlying studies (Li et al., TPDS 2018):
//!
//! * **codec change** (compression standard) is compute-bound and gains
//!   hugely from the GPU VM;
//! * **resolution change** gains moderately;
//! * **bit-rate change** barely gains at all — a GPU is wasted on it;
//! * **frame-rate change** sits in between;
//! * content-type variance is higher than SPECint's (slow-motion vs
//!   fast-motion video), modeled by a lower gamma shape range `[1, 8]`.
//!
//! This preserves exactly the property Fig. 9 tests: a mapping heuristic
//! must learn *which* VM each task type matches, not just which VM is
//! fastest overall.

use hcsim_model::{MachineSpec, PetBuilder, PriceTable, SpecMemo, SystemSpec, TaskTypeSpec};

/// The four EC2 VM types of §VII-G.
pub const TRANSCODE_VMS: [&str; 4] = [
    "CPU-Optimized (c4.xlarge)",
    "Memory-Optimized (r3.xlarge)",
    "General Purpose (m4.xlarge)",
    "GPU (g2.2xlarge)",
];

/// The four transcoding operations of §VII-G.
pub const TRANSCODE_OPS: [&str; 4] =
    ["codec change", "resolution change", "bit-rate change", "frame-rate change"];

/// Mean execution times (ms): rows = operations, columns = VMs.
///
/// Row structure encodes the affinity findings: codec change is 3× faster
/// on GPU; bit-rate change is fastest on the cheap CPU VM and the GPU buys
/// nothing.
const MEANS: [[f64; 4]; 4] = [
    // CPU-Opt  Mem-Opt  General  GPU
    [150.0, 170.0, 180.0, 55.0], // codec change
    [90.0, 110.0, 120.0, 70.0],  // resolution change
    [60.0, 65.0, 70.0, 68.0],    // bit-rate change
    [80.0, 95.0, 100.0, 75.0],   // frame-rate change
];

/// On-demand hourly prices (USD/h), 2018-era us-east-1.
const PRICES: [f64; 4] = [0.199, 0.333, 0.20, 0.65];

/// The fixed 4×4 mean matrix.
#[must_use]
pub fn transcode_means() -> Vec<Vec<f64>> {
    MEANS.iter().map(|row| row.to_vec()).collect()
}

/// Builds the §VII-G system: 4 transcoding task types × 4 EC2 VM types,
/// with heavier-tailed execution times than the SPECint system
/// (shape ∈ [1, 8]).
#[must_use]
pub fn transcode_system<R: rand::Rng>(queue_capacity: usize, rng: &mut R) -> SystemSpec {
    let (pet, truth) = PetBuilder::new().shape_range(1.0, 8.0).build(&transcode_means(), rng);
    SystemSpec {
        machines: TRANSCODE_VMS
            .iter()
            .map(|name| MachineSpec { name: (*name).to_string() })
            .collect(),
        task_types: TRANSCODE_OPS
            .iter()
            .map(|name| TaskTypeSpec { name: (*name).to_string() })
            .collect(),
        pet,
        truth,
        prices: PriceTable::new(PRICES.to_vec()),
        queue_capacity,
        coldstart: None,
        memo: SpecMemo::default(),
    }
    .validated()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcsim_model::{MachineId, TaskTypeId};
    use hcsim_stats::SeedSequence;

    #[test]
    fn gpu_affinity_structure() {
        let means = transcode_means();
        let gpu = 3;
        let cpu = 0;
        // Codec change: GPU much faster than CPU-optimized.
        assert!(means[0][gpu] < 0.5 * means[0][cpu]);
        // Bit-rate change: GPU is NOT the best machine.
        assert!(means[2][cpu] < means[2][gpu]);
    }

    #[test]
    fn system_dimensions() {
        let mut rng = SeedSequence::new(1).stream(0);
        let spec = transcode_system(6, &mut rng);
        assert_eq!(spec.num_machines(), 4);
        assert_eq!(spec.num_task_types(), 4);
    }

    #[test]
    fn best_machine_depends_on_operation() {
        let mut rng = SeedSequence::new(2).stream(0);
        let spec = transcode_system(6, &mut rng);
        let codec_best = spec.pet.fastest_machine(TaskTypeId(0));
        let bitrate_best = spec.pet.fastest_machine(TaskTypeId(2));
        assert_eq!(codec_best, MachineId(3), "codec change should match the GPU");
        assert_ne!(bitrate_best, MachineId(3), "bit-rate change should not pick the GPU");
    }

    #[test]
    fn gpu_is_most_expensive() {
        let mut rng = SeedSequence::new(3).stream(0);
        let spec = transcode_system(6, &mut rng);
        let gpu_price = spec.prices.usd_per_hour(MachineId(3));
        for m in 0..3usize {
            assert!(spec.prices.usd_per_hour(MachineId::from(m)) < gpu_price);
        }
    }
}
