//! Run-length settings of the `figures` driver.

use anycast_sim::pool::default_jobs;

/// How long and how often to simulate — and on how many worker threads.
///
/// The *full* profile reproduces §5.1 run lengths (1800 s warm-up, 3600 s
/// measured, 3 independent replications); the *quick* profile shrinks that
/// by roughly an order of magnitude for smoke tests and CI. `jobs` only
/// changes wall-clock, never results: sweeps are bit-for-bit identical
/// for every worker count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunSettings {
    /// Warm-up seconds discarded from statistics.
    pub(crate) warmup_secs: f64,
    /// Measured seconds.
    pub(crate) measure_secs: f64,
    /// Replication seeds (one run per seed; results averaged).
    pub(crate) seeds: [u64; 3],
    /// Number of seeds actually used (quick mode uses 1).
    pub(crate) replications: usize,
    /// Worker threads for sweeps (default: available parallelism).
    pub(crate) jobs: usize,
}

impl RunSettings {
    /// The paper-faithful profile.
    pub(crate) fn full() -> Self {
        RunSettings {
            warmup_secs: 1_800.0,
            measure_secs: 3_600.0,
            seeds: [101, 202, 303],
            replications: 3,
            jobs: default_jobs(),
        }
    }

    /// The shortened smoke-test profile.
    pub(crate) fn quick() -> Self {
        RunSettings {
            warmup_secs: 300.0,
            measure_secs: 600.0,
            seeds: [101, 202, 303],
            replications: 1,
            jobs: default_jobs(),
        }
    }

    /// The seeds in use.
    pub(crate) fn active_seeds(&self) -> &[u64] {
        &self.seeds[..self.replications]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_differ() {
        let full = RunSettings::full();
        let quick = RunSettings::quick();
        assert!(full.measure_secs > quick.measure_secs);
        assert!(full.replications > quick.replications);
        assert_eq!(full.active_seeds().len(), 3);
        assert_eq!(quick.active_seeds().len(), 1);
        assert_eq!(quick.active_seeds(), &[101]);
    }

    #[test]
    fn default_jobs_is_wired_in() {
        assert!(RunSettings::full().jobs >= 1);
        assert!(RunSettings::quick().jobs >= 1);
    }
}
