//! Parallel measurement campaign.
//!
//! The paper's campaign measured every benchmark kernel at 336 hardware
//! configurations. On the simulator this is embarrassingly parallel:
//! kernels are partitioned across scoped worker threads, each runs its
//! share of the campaign, and results merge into one [`Dataset`]. Sample
//! order is normalized afterwards so the parallel campaign is
//! bit-identical to the sequential one.

use gpm_hw::{ConfigSpace, HwConfig};
use gpm_model::{Dataset, Sample};
use gpm_sim::{ApuSimulator, KernelCharacteristics};
use std::sync::{Mutex, PoisonError};

/// Runs the measurement campaign for `kernels` over `space` using
/// `threads` workers, profiling counters at `profile_cfg`.
///
/// Produces exactly the same dataset as
/// [`Dataset::from_campaign`] (kernel-major, configuration-minor order),
/// verified by tests.
///
/// # Panics
///
/// Panics if `threads` is zero.
pub fn parallel_campaign(
    sim: &ApuSimulator,
    kernels: &[KernelCharacteristics],
    space: &ConfigSpace,
    profile_cfg: HwConfig,
    threads: usize,
) -> Dataset {
    assert!(threads > 0, "at least one worker thread is required");
    let results: Mutex<Vec<(usize, Vec<Sample>)>> = Mutex::new(Vec::with_capacity(threads));

    std::thread::scope(|scope| {
        for (worker, chunk) in kernels
            .chunks(kernels.len().div_ceil(threads).max(1))
            .enumerate()
        {
            let results = &results;
            scope.spawn(move || {
                let part = Dataset::from_campaign(sim, chunk, space, profile_cfg);
                results
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .push((worker, part.samples().to_vec()));
            });
        }
    });

    let mut parts = results.into_inner().unwrap_or_else(PoisonError::into_inner);
    parts.sort_by_key(|(worker, _)| *worker);
    let samples: Vec<Sample> = parts.into_iter().flat_map(|(_, s)| s).collect();
    Dataset::from_samples(samples)
}

/// [`parallel_campaign`] sized to the host: worker count defaults to
/// [`std::thread::available_parallelism`] (1 if it cannot be queried).
/// The result is still bit-identical to the sequential campaign.
pub fn parallel_campaign_auto(
    sim: &ApuSimulator,
    kernels: &[KernelCharacteristics],
    space: &ConfigSpace,
    profile_cfg: HwConfig,
) -> Dataset {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    parallel_campaign(sim, kernels, space, profile_cfg, threads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpm_hw::{CpuPState, GpuDpm};

    fn kernels() -> Vec<KernelCharacteristics> {
        vec![
            KernelCharacteristics::compute_bound("a", 10.0),
            KernelCharacteristics::memory_bound("b", 1.0),
            KernelCharacteristics::peak("c", 8.0),
            KernelCharacteristics::unscalable("d", 0.01),
            KernelCharacteristics::compute_bound("e", 20.0),
        ]
    }

    #[test]
    fn parallel_matches_sequential_exactly() {
        let sim = ApuSimulator::default();
        let ks = kernels();
        let space = ConfigSpace::nb_cu_sweep(CpuPState::P5, GpuDpm::Dpm4);
        let seq = Dataset::from_campaign(&sim, &ks, &space, HwConfig::FAIL_SAFE);
        for threads in [1, 2, 3, 8] {
            let par = parallel_campaign(&sim, &ks, &space, HwConfig::FAIL_SAFE, threads);
            assert_eq!(par.len(), seq.len(), "threads = {threads}");
            assert_eq!(par.samples(), seq.samples(), "threads = {threads}");
        }
    }

    #[test]
    fn more_threads_than_kernels_is_fine() {
        let sim = ApuSimulator::default();
        let ks = kernels();
        let space = ConfigSpace::nb_cu_sweep(CpuPState::P5, GpuDpm::Dpm4);
        let par = parallel_campaign(&sim, &ks, &space, HwConfig::FAIL_SAFE, 64);
        assert_eq!(par.len(), ks.len() * space.len());
    }

    #[test]
    fn auto_worker_count_matches_sequential() {
        let sim = ApuSimulator::default();
        let ks = kernels();
        let space = ConfigSpace::nb_cu_sweep(CpuPState::P5, GpuDpm::Dpm4);
        let seq = Dataset::from_campaign(&sim, &ks, &space, HwConfig::FAIL_SAFE);
        let auto = parallel_campaign_auto(&sim, &ks, &space, HwConfig::FAIL_SAFE);
        assert_eq!(auto.samples(), seq.samples());
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_threads_panics() {
        let sim = ApuSimulator::default();
        let space = ConfigSpace::nb_cu_sweep(CpuPState::P5, GpuDpm::Dpm4);
        let _ = parallel_campaign(&sim, &kernels(), &space, HwConfig::FAIL_SAFE, 0);
    }
}
