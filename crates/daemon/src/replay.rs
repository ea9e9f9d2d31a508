//! Trace replay through the online engine, in virtual time: the engine is
//! advanced to each arrival's own timestamp as fast as the CPU allows.

use crate::trace::{read_trace, TraceHeader};
use anycast_dac::experiment::{Decision, ExperimentConfig, Metrics};
use anycast_dac::online::OnlineEngine;
use anycast_net::Topology;
use anycast_sim::SimTime;
use anycast_telemetry::Recorder;
use std::io;
use std::path::Path;

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
    let mut decisions = Vec::new();
    for a in &arrivals {
        engine.submit(*a);
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
    use anycast_dac::experiment::SystemSpec;
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
        let err = replay_trace(&topo, &narrowed, &path, NullRecorder).unwrap_err();
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
        let err = replay_trace(&topo, &shortened, &path, NullRecorder).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("past the config horizon"), "{err}");
        std::fs::remove_file(&path).ok();
        Ok(())
    }
}
