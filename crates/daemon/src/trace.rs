//! The replayable arrival-trace format: JSONL, one header line then one
//! line per arrival.
//!
//! ```text
//! {"kind":"anycast-trace","version":1,"seed":24301,"lambda":20,"sources":4,"groups":1,"horizon_secs":900}
//! {"at":0.0217,"source":2,"group":0,"holding_secs":95.44,"demand_bps":64000}
//! ...
//! ```
//!
//! `anycast record` writes one of these from any experiment config;
//! `anycast replay` and the daemon's replay mode read it back. The header
//! pins the provenance (seed, rate, index bounds, horizon) so a replayer
//! can sanity-check the trace against its config before submitting
//! anything — index bounds are validated on read, and replaying against
//! the *same* config the trace was recorded from reproduces the offline
//! run bit-identically (see `core/tests/online_replay.rs`).
//!
//! Fault plans are **not** part of the trace: faults are drawn by the
//! engine's own RNG streams from the config's fault plan, so a trace stays
//! valid across fault-plan ablations (`--faults` is re-supplied at replay
//! time).

use anycast_dac::experiment::ExperimentConfig;
use anycast_dac::online::OnlineArrival;
use anycast_net::Bandwidth;
use anycast_telemetry::json::{parse, JsonValue};
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Write as _};
use std::path::Path;

/// Current trace format version.
pub const TRACE_VERSION: u64 = 1;

/// The provenance header of a trace file.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceHeader {
    /// Format version ([`TRACE_VERSION`]).
    pub(crate) version: u64,
    /// Seed of the config the trace was recorded from.
    pub seed: u64,
    /// Arrival rate λ of the recorded config, flows/second.
    pub(crate) lambda: f64,
    /// Number of source routers (exclusive bound on `source`).
    pub(crate) sources: usize,
    /// Number of anycast groups (exclusive bound on `group`).
    pub(crate) groups: usize,
    /// Recorded horizon (`warmup + measure`), seconds.
    pub(crate) horizon_secs: f64,
}

fn field<'a>(obj: &'a JsonValue, key: &str) -> Option<&'a JsonValue> {
    match obj {
        JsonValue::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn num_field(obj: &JsonValue, key: &str) -> Result<f64, String> {
    match field(obj, key) {
        Some(JsonValue::Num(x)) => Ok(*x),
        Some(_) => Err(format!("field `{key}` is not a number")),
        None => Err(format!("missing field `{key}`")),
    }
}

fn index_field(obj: &JsonValue, key: &str) -> Result<usize, String> {
    let x = num_field(obj, key)?;
    if x.fract() != 0.0 || x < 0.0 {
        return Err(format!(
            "field `{key}` must be a nonnegative integer, got {x}"
        ));
    }
    Ok(x as usize)
}

impl TraceHeader {
    /// Builds the header describing `config`'s arrival process.
    pub(crate) fn for_config(config: &ExperimentConfig) -> Self {
        TraceHeader {
            version: TRACE_VERSION,
            seed: config.seed,
            lambda: config.lambda,
            sources: config.sources.len(),
            groups: config.effective_groups().len(),
            horizon_secs: config.warmup_secs + config.measure_secs,
        }
    }

    fn to_json(&self) -> JsonValue {
        JsonValue::obj([
            ("kind", JsonValue::Str("anycast-trace".into())),
            ("version", JsonValue::Num(self.version as f64)),
            ("seed", JsonValue::Num(self.seed as f64)),
            ("lambda", JsonValue::Num(self.lambda)),
            ("sources", JsonValue::Num(self.sources as f64)),
            ("groups", JsonValue::Num(self.groups as f64)),
            ("horizon_secs", JsonValue::Num(self.horizon_secs)),
        ])
    }

    fn from_json(v: &JsonValue) -> Result<Self, String> {
        match field(v, "kind") {
            Some(JsonValue::Str(s)) if s == "anycast-trace" => {}
            _ => return Err("not an anycast-trace header".into()),
        }
        let version = index_field(v, "version")? as u64;
        if version != TRACE_VERSION {
            return Err(format!(
                "unsupported trace version {version} (expected {TRACE_VERSION})"
            ));
        }
        let horizon_secs = num_field(v, "horizon_secs")?;
        if !(horizon_secs.is_finite() && horizon_secs > 0.0) {
            return Err(format!(
                "field `horizon_secs` must be positive and finite, got {horizon_secs}"
            ));
        }
        Ok(TraceHeader {
            version,
            seed: num_field(v, "seed")? as u64,
            lambda: num_field(v, "lambda")?,
            sources: index_field(v, "sources")?,
            groups: index_field(v, "groups")?,
            horizon_secs,
        })
    }
}

fn arrival_json(a: &OnlineArrival) -> JsonValue {
    JsonValue::obj([
        ("at", JsonValue::Num(a.at_secs)),
        ("source", JsonValue::Num(a.source_index as f64)),
        ("group", JsonValue::Num(a.group_index as f64)),
        ("holding_secs", JsonValue::Num(a.holding_secs)),
        ("demand_bps", JsonValue::Num(a.demand.bps() as f64)),
    ])
}

fn arrival_from_json(v: &JsonValue) -> Result<OnlineArrival, String> {
    let holding_secs = num_field(v, "holding_secs")?;
    if !(holding_secs.is_finite() && holding_secs > 0.0) {
        return Err(format!(
            "field `holding_secs` must be positive and finite, got {holding_secs}"
        ));
    }
    let demand_bps = num_field(v, "demand_bps")?;
    if !(demand_bps.is_finite() && demand_bps >= 1.0) {
        return Err(format!(
            "field `demand_bps` must be at least 1, got {demand_bps}"
        ));
    }
    Ok(OnlineArrival {
        at_secs: num_field(v, "at")?,
        source_index: index_field(v, "source")?,
        group_index: index_field(v, "group")?,
        holding_secs,
        demand: Bandwidth::from_bps(demand_bps as u64),
    })
}

/// Writes a trace file: the header for `config`, then one line per
/// arrival. Returns the number of arrival lines written.
///
/// # Errors
///
/// Any I/O error creating or writing the file.
pub fn write_trace(
    path: &Path,
    config: &ExperimentConfig,
    arrivals: &[OnlineArrival],
) -> io::Result<u64> {
    let mut out = BufWriter::new(File::create(path)?);
    out.write_all(
        TraceHeader::for_config(config)
            .to_json()
            .render()
            .as_bytes(),
    )?;
    out.write_all(b"\n")?;
    for a in arrivals {
        out.write_all(arrival_json(a).render().as_bytes())?;
        out.write_all(b"\n")?;
    }
    out.flush()?;
    Ok(arrivals.len() as u64)
}

/// Reads a trace file back: header plus arrivals, validated line by line
/// (syntax, field presence, positive holding time and demand, index
/// bounds against the header, nondecreasing timestamps within the
/// recorded horizon).
///
/// # Errors
///
/// I/O errors, or `InvalidData` naming the offending line for malformed
/// content (a line that is not UTF-8 included).
pub fn read_trace(path: &Path) -> io::Result<(TraceHeader, Vec<OnlineArrival>)> {
    let reader = BufReader::new(File::open(path)?);
    let mut lines = reader.lines();
    let at_line = |line_no: usize, kind: io::ErrorKind, msg: String| {
        io::Error::new(kind, format!("{}:{}: {}", path.display(), line_no, msg))
    };
    let bad = |line_no: usize, msg: String| at_line(line_no, io::ErrorKind::InvalidData, msg);
    let unreadable = |line_no: usize, e: io::Error| at_line(line_no, e.kind(), e.to_string());
    let header_line = lines
        .next()
        .ok_or_else(|| bad(1, "empty trace file".into()))?
        .map_err(|e| unreadable(1, e))?;
    let header = parse(&header_line)
        .and_then(|v| TraceHeader::from_json(&v))
        .map_err(|e| bad(1, e))?;
    let mut arrivals = Vec::new();
    let mut last_at = 0.0f64;
    for (i, line) in lines.enumerate() {
        let line_no = i + 2;
        let line = line.map_err(|e| unreadable(line_no, e))?;
        if line.trim().is_empty() {
            continue;
        }
        let a = parse(&line)
            .and_then(|v| arrival_from_json(&v))
            .map_err(|e| bad(line_no, e))?;
        if a.source_index >= header.sources {
            return Err(bad(
                line_no,
                format!(
                    "source {} out of range (<{})",
                    a.source_index, header.sources
                ),
            ));
        }
        if a.group_index >= header.groups {
            return Err(bad(
                line_no,
                format!("group {} out of range (<{})", a.group_index, header.groups),
            ));
        }
        if !(a.at_secs.is_finite() && a.at_secs >= last_at) {
            return Err(bad(
                line_no,
                format!(
                    "timestamp {} not nondecreasing (last {})",
                    a.at_secs, last_at
                ),
            ));
        }
        if a.at_secs > header.horizon_secs {
            return Err(bad(
                line_no,
                format!(
                    "arrival at {} is past the recorded horizon {}",
                    a.at_secs, header.horizon_secs
                ),
            ));
        }
        last_at = a.at_secs;
        arrivals.push(a);
    }
    Ok((header, arrivals))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::replay_trace;
    use anycast_dac::experiment::{ExperimentConfig, SystemSpec};
    use anycast_dac::online::record_arrivals;
    use anycast_dac::policy::PolicySpec;
    use anycast_net::{topologies, Topology};
    use anycast_telemetry::NullRecorder;
    use proptest::prelude::*;

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("anycast-daemon-{}-{name}", std::process::id()));
        p
    }

    /// Removes a test's file however the test ends.
    struct RemoveOnDrop<'a>(&'a Path);

    impl Drop for RemoveOnDrop<'_> {
        fn drop(&mut self) {
            std::fs::remove_file(self.0).ok();
        }
    }

    fn quick_config() -> ExperimentConfig {
        ExperimentConfig::paper_defaults(10.0, SystemSpec::dac(PolicySpec::Ed, 2))
            .with_warmup_secs(30.0)
            .with_measure_secs(60.0)
            .with_seed(5)
    }

    #[test]
    fn trace_round_trips_exactly() -> Result<(), Box<dyn std::error::Error>> {
        let config = quick_config();
        let arrivals = record_arrivals(&config);
        let path = temp_path("roundtrip.jsonl");
        let written = write_trace(&path, &config, &arrivals)?;
        assert_eq!(written, arrivals.len() as u64);
        let (header, read_back) = read_trace(&path)?;
        assert_eq!(header, TraceHeader::for_config(&config));
        assert_eq!(read_back, arrivals);
        std::fs::remove_file(&path).ok();
        Ok(())
    }

    #[test]
    fn malformed_traces_are_rejected_with_line_numbers() -> Result<(), Box<dyn std::error::Error>> {
        let path = temp_path("malformed.jsonl");
        let config = quick_config();
        let header = TraceHeader::for_config(&config).to_json().render();
        // Each case: (arrival lines after the header, line number and
        // message fragment the error must carry).
        let cases: [(&str, &str, &str); 6] = [
            (
                "{\"at\":1,\"source\":99,\"group\":0,\"holding_secs\":1,\"demand_bps\":64000}",
                ":2:",
                "out of range",
            ),
            (
                "{\"at\":5,\"source\":0,\"group\":0,\"holding_secs\":1,\"demand_bps\":64000}\n\
                 {\"at\":4,\"source\":0,\"group\":0,\"holding_secs\":1,\"demand_bps\":64000}",
                ":3:",
                "nondecreasing",
            ),
            (
                "{\"at\":1,\"source\":0,\"group\":0,\"holding_secs\":0,\"demand_bps\":64000}",
                ":2:",
                "holding_secs",
            ),
            (
                "{\"at\":1,\"source\":0,\"group\":0,\"holding_secs\":1e999,\"demand_bps\":64000}",
                ":2:",
                "holding_secs",
            ),
            (
                "{\"at\":1,\"source\":0,\"group\":0,\"holding_secs\":1,\"demand_bps\":0}",
                ":2:",
                "demand_bps",
            ),
            (
                "{\"at\":91,\"source\":0,\"group\":0,\"holding_secs\":1,\"demand_bps\":64000}",
                ":2:",
                "past the recorded horizon",
            ),
        ];
        for (lines, line_no, needle) in cases {
            std::fs::write(&path, format!("{header}\n{lines}\n"))?;
            let err = read_trace(&path).unwrap_err().to_string();
            assert!(
                err.contains(line_no) && err.contains(needle),
                "`{lines}` must fail with `{needle}` at `{line_no}`, got: {err}"
            );
        }
        // Not a trace at all, and a header with a nonsense horizon.
        std::fs::write(&path, "{\"kind\":\"other\"}\n")?;
        assert!(read_trace(&path).is_err());
        std::fs::write(
            &path,
            header.replace("\"horizon_secs\":90", "\"horizon_secs\":0") + "\n",
        )?;
        let err = read_trace(&path).unwrap_err().to_string();
        assert!(err.contains("horizon_secs"), "{err}");
        std::fs::remove_file(&path).ok();
        Ok(())
    }

    /// One line of a trace as its members, each value kept as raw JSON
    /// text so a case can write values no renderer would.
    fn members(line: &str) -> Vec<(String, String)> {
        match parse(line) {
            Ok(JsonValue::Obj(pairs)) => pairs
                .into_iter()
                .map(|(key, value)| (key, value.render()))
                .collect(),
            other => panic!("recorded lines are objects, got {other:?}"),
        }
    }

    fn line(members: &[(String, String)]) -> Vec<u8> {
        let body: Vec<String> = members
            .iter()
            .map(|(key, raw)| format!("\"{key}\":{raw}"))
            .collect();
        format!("{{{}}}", body.join(",")).into_bytes()
    }

    /// Writes `lines` as a trace and holds the loader to its contract: an
    /// error is `InvalidData` and names a line of the file; an accepted
    /// trace replays to its end.
    fn check(
        path: &Path,
        lines: &[Vec<u8>],
        topo: &Topology,
        config: &ExperimentConfig,
    ) -> Result<(), TestCaseError> {
        let mut bytes = lines.join(&b'\n');
        bytes.push(b'\n');
        std::fs::write(path, &bytes).map_err(|e| TestCaseError::fail(e.to_string()))?;
        let arrivals = match read_trace(path) {
            Ok((_, arrivals)) => arrivals,
            Err(e) => {
                let message = e.to_string();
                let line_no = message
                    .strip_prefix(&format!("{}:", path.display()))
                    .and_then(|rest| rest.split(':').next())
                    .and_then(|n| n.parse::<usize>().ok());
                // Damage may write a `\n` and split a line, so the bound is
                // the file's line count, not the count of lines written.
                let file_lines = bytes.iter().filter(|&&b| b == b'\n').count();
                prop_assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{}", message);
                prop_assert!(
                    line_no.is_some_and(|n| (1..=file_lines).contains(&n)),
                    "the error must name a line: {}",
                    message
                );
                return Ok(());
            }
        };
        match replay_trace(topo, config, path, NullRecorder) {
            Ok((outcome, _)) => prop_assert_eq!(outcome.arrivals, arrivals.len() as u64),
            Err(e) => prop_assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{}", e),
        }
        Ok(())
    }

    proptest! {
        /// A recorded trace, damaged: bytes overwritten (then cut at every
        /// prefix of the damaged line), a field dropped, duplicated or
        /// given the wrong type, an index written as `1e999`, `-0` or
        /// `1.5`, arrivals out of order or past the horizon. The loader
        /// never panics, and what it accepts the engine can replay.
        #[test]
        fn damaged_traces_are_rejected_by_line_or_replay(
            start in 0usize..400,
            len in 1usize..5,
            target in any::<usize>(),
            damage in 0u8..6,
            choice in any::<usize>(),
            hits in prop::collection::vec((any::<usize>(), any::<u8>()), 1..4),
        ) {
            let topo = topologies::mci();
            let config = quick_config();
            let recorded = record_arrivals(&config);
            let header = TraceHeader::for_config(&config).to_json().render();
            let mut lines: Vec<Vec<u8>> = vec![header.into_bytes()];
            lines.extend(
                recorded
                    .iter()
                    .skip(start % recorded.len())
                    .take(len)
                    .map(|a| arrival_json(a).render().into_bytes()),
            );
            let target = target % lines.len();
            let mut fields = members(std::str::from_utf8(&lines[target]).unwrap());
            let field = choice % fields.len();
            let path = temp_path("fuzz.jsonl");
            let _remove = RemoveOnDrop(&path);
            match damage {
                0 => {
                    let mut damaged = lines[target].clone();
                    for (at, byte) in hits {
                        let at = at % damaged.len();
                        damaged[at] = byte;
                    }
                    for cut in 0..=damaged.len() {
                        lines[target] = damaged[..cut].to_vec();
                        check(&path, &lines, &topo, &config)?;
                    }
                    return Ok(());
                }
                1 => {
                    fields.remove(field);
                }
                2 => {
                    let twin = (fields[field].0.clone(), "7".to_string());
                    fields.insert(choice % (fields.len() + 1), twin);
                }
                3 => {
                    let wrong = ["\"7\"", "true", "null", "[1]", "{}"];
                    fields[field].1 = wrong[choice % wrong.len()].to_string();
                }
                4 => {
                    let index = ["1e999", "-0", "1.5"];
                    fields[field].1 = index[choice % index.len()].to_string();
                }
                _ => {
                    if lines.len() > 2 && choice.is_multiple_of(2) {
                        let last = lines.len() - 1;
                        lines.swap(1 + choice % last, last);
                    } else if target > 0 {
                        let at = ["91", "1e6", "1e999", "-1", "-0"];
                        let slot = fields.iter().position(|(key, _)| key == "at").unwrap();
                        fields[slot].1 = at[choice % at.len()].to_string();
                    }
                }
            }
            if damage != 5 || target > 0 {
                lines[target] = line(&fields);
            }
            check(&path, &lines, &topo, &config)?;
        }
    }
}
