//! Trace replay through the online engine: virtual time (as fast as the
//! CPU allows) or paced against a rate-scaled wall clock.
//!
//! Either pacing produces **bit-identical results**: the engine is always
//! advanced to each arrival's own timestamp, so the event-processing
//! order never depends on how long the driver waited in between. Pacing
//! only controls when, in wall-clock terms, each quantum is played —
//! `--speed 60` replays an hour of trace in a real minute, `--speed 1`
//! in real time.

use crate::trace::{read_trace, TraceHeader};
use anycast_dac::experiment::{Decision, ExperimentConfig, Metrics};
use anycast_dac::online::OnlineEngine;
use anycast_net::Topology;
use anycast_sim::{SimTime, TimeSource, WallClock};
use anycast_telemetry::Recorder;
use std::io;
use std::path::Path;

/// How replay maps simulated time onto wall-clock time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReplayPacing {
    /// No waiting at all: the whole trace plays as fast as possible.
    Virtual,
    /// Wait between arrivals so that `speed` simulated seconds elapse per
    /// real second.
    Paced {
        /// Simulated seconds per real second (1.0 = real time).
        speed: f64,
    },
}

/// Everything a replay produces.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayOutcome {
    /// The trace file's provenance header.
    pub header: TraceHeader,
    /// Arrival lines submitted.
    pub arrivals: u64,
    /// End-of-run metrics — bit-identical to the offline engine's for the
    /// config the trace was recorded from.
    pub metrics: Metrics,
    /// Every finalised decision, in decision order.
    pub decisions: Vec<Decision>,
}

/// Replays the trace at `path` through an online engine built for
/// `config`, returning the outcome and the recorder.
///
/// # Errors
///
/// I/O or format errors reading the trace, or `InvalidData` when the
/// trace's source/group bounds do not match `config` or its arrivals run
/// past the config's horizon. Malformed traces never reach
/// [`OnlineEngine::submit`]'s invariants: every line is validated before
/// the first submission, so client input cannot panic the engine.
pub fn replay_trace<R: Recorder>(
    topo: &Topology,
    config: &ExperimentConfig,
    path: &Path,
    pacing: ReplayPacing,
    recorder: R,
) -> io::Result<(ReplayOutcome, R)> {
    let (header, arrivals) = read_trace(path)?;
    let mut engine = OnlineEngine::new(topo, config, recorder);
    if header.sources != engine.source_count() || header.groups != engine.group_count() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "trace was recorded for {} sources / {} groups but the config has {} / {}",
                header.sources,
                header.groups,
                engine.source_count(),
                engine.group_count()
            ),
        ));
    }
    // The trace's own horizon was checked on read; the replaying config
    // may legitimately differ (e.g. a longer --measure), so arrivals must
    // also fit *this* engine's horizon before anything is submitted.
    if let Some(last) = arrivals.last() {
        let horizon = engine.horizon();
        if SimTime::from_secs(last.at_secs) > horizon {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "trace arrival at {}s is past the config horizon {:?}",
                    last.at_secs, horizon
                ),
            ));
        }
    }
    let mut clock = match pacing {
        ReplayPacing::Virtual => None,
        ReplayPacing::Paced { speed } => Some(WallClock::new(speed)),
    };
    let mut decisions = Vec::new();
    for a in &arrivals {
        if let Some(clock) = clock.as_mut() {
            clock.sleep_until(SimTime::from_secs(a.at_secs));
        }
        engine.submit(*a);
        // Advance to the arrival's own timestamp (not the wall clock's,
        // which may have overshot): the processing order is then exactly
        // the virtual-time order, whatever the pacing.
        engine.advance_to(SimTime::from_secs(a.at_secs), &mut decisions);
    }
    let (metrics, tail, recorder) = engine.finish();
    decisions.extend(tail);
    Ok((
        ReplayOutcome {
            header,
            arrivals: arrivals.len() as u64,
            metrics,
            decisions,
        },
        recorder,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::write_trace;
    use anycast_dac::experiment::{run_experiment, SystemSpec};
    use anycast_dac::online::record_arrivals;
    use anycast_dac::policy::PolicySpec;
    use anycast_net::topologies;
    use anycast_telemetry::NullRecorder;

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("anycast-replay-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn virtual_and_paced_replays_are_bit_identical() -> io::Result<()> {
        let topo = topologies::mci();
        let config = ExperimentConfig::paper_defaults(8.0, SystemSpec::dac(PolicySpec::Ed, 2))
            .with_warmup_secs(20.0)
            .with_measure_secs(40.0)
            .with_seed(3);
        let path = temp_path("paced.jsonl");
        write_trace(&path, &config, &record_arrivals(&config))?;

        let (virt, _) = replay_trace(&topo, &config, &path, ReplayPacing::Virtual, NullRecorder)?;
        // High speed so the 60 simulated seconds pace out in ~6 ms.
        let (paced, _) = replay_trace(
            &topo,
            &config,
            &path,
            ReplayPacing::Paced { speed: 10_000.0 },
            NullRecorder,
        )?;
        assert_eq!(virt, paced, "pacing must not change any outcome");
        // And both equal the offline engine.
        assert_eq!(virt.metrics, run_experiment(&topo, &config));
        std::fs::remove_file(&path).ok();
        Ok(())
    }

    #[test]
    fn mismatched_config_is_rejected() -> io::Result<()> {
        let topo = topologies::mci();
        let config = ExperimentConfig::paper_defaults(8.0, SystemSpec::dac(PolicySpec::Ed, 2))
            .with_warmup_secs(20.0)
            .with_measure_secs(40.0)
            .with_seed(3);
        let path = temp_path("mismatch.jsonl");
        write_trace(&path, &config, &record_arrivals(&config))?;
        // Fewer sources than the trace was recorded for.
        let narrowed = config
            .clone()
            .with_sources(vec![config.sources[0], config.sources[1]]);
        let err =
            replay_trace(&topo, &narrowed, &path, ReplayPacing::Virtual, NullRecorder).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).ok();
        Ok(())
    }

    #[test]
    fn arrivals_past_the_config_horizon_are_an_error_not_a_panic() -> io::Result<()> {
        let topo = topologies::mci();
        let config = ExperimentConfig::paper_defaults(8.0, SystemSpec::dac(PolicySpec::Ed, 2))
            .with_warmup_secs(20.0)
            .with_measure_secs(40.0)
            .with_seed(3);
        let path = temp_path("horizon.jsonl");
        write_trace(&path, &config, &record_arrivals(&config))?;
        // Replay against a config with a shorter horizon than the trace:
        // the header check alone cannot catch this (source/group bounds
        // still match), so the pre-submit horizon check must.
        let shortened = config.clone().with_measure_secs(10.0);
        let err = replay_trace(
            &topo,
            &shortened,
            &path,
            ReplayPacing::Virtual,
            NullRecorder,
        )
        .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("past the config horizon"), "{err}");
        std::fs::remove_file(&path).ok();
        Ok(())
    }
}
