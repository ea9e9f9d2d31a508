//! What one workload run yields and how it is printed: the result line the
//! driver parses, and the host facts every snapshot records.

use crate::spec::MetricSpec;
use anycast_bench::json::JsonValue;
use std::path::PathBuf;

/// The result of one workload run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations issued in the measured part.
    pub attempted: u64,
    /// Operations that broke the protocol or an invariant. A rejected or
    /// refused admit is a correct answer, not a failure.
    pub failed: u64,
    /// One line per correctness gate that did not hold; empty means correct.
    pub gate_failures: Vec<String>,
    /// Measured values by declared name.
    pub values: Vec<(&'static str, f64)>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.gate_failures.is_empty() && self.failed == 0
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.values.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    pub fn gate(&mut self, holds: bool, what: impl FnOnce() -> String) {
        if !holds {
            self.gate_failures.push(what());
        }
    }

    /// The driver's result object: exactly `correct`, `attempted`,
    /// `failed` and `metrics`, the latter holding every metric of `specs`
    /// (a layer this workload never enters reads 0).
    pub fn result_line(&self, specs: &[MetricSpec]) -> String {
        let metrics = specs
            .iter()
            .map(|m| {
                let value = self.get(m.name).unwrap_or(0.0);
                (
                    m.name.to_string(),
                    JsonValue::obj([
                        ("value", JsonValue::Num(value)),
                        ("unit", JsonValue::Str(m.unit.into())),
                    ]),
                )
            })
            .collect();
        JsonValue::obj([
            ("correct", JsonValue::Bool(self.correct())),
            ("attempted", JsonValue::Num(self.attempted.max(1) as f64)),
            ("failed", JsonValue::Num(self.failed as f64)),
            ("metrics", JsonValue::Obj(metrics)),
        ])
        .render()
    }

    /// Every declared metric by name with its unit, for people.
    pub fn table(&self, specs: &[MetricSpec]) -> String {
        let mut out = String::new();
        for m in specs {
            if let Some(v) = self.get(m.name) {
                out.push_str(&format!("  {:<42} {:>16.4} {}\n", m.name, v, m.unit));
            }
        }
        for g in &self.gate_failures {
            out.push_str(&format!("  GATE FAILED: {g}\n"));
        }
        out
    }
}

/// Process exit code for a set of outcomes: non-zero if any gate failed.
pub fn exit_code<'a>(outcomes: impl IntoIterator<Item = &'a Outcome>) -> i32 {
    i32::from(!outcomes.into_iter().all(Outcome::correct))
}

/// Peak resident set of this process in MB (`VmHWM`), 0 where `/proc` is
/// absent.
pub fn peak_rss_mb() -> f64 {
    proc_status_kb("VmHWM:") / 1024.0
}

fn proc_status_kb(key: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(key))
                .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        })
        .unwrap_or(0.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Where the benchmark may write: the build directory the driver names,
/// else `target/` under the working directory. Relative to the working
/// directory when it lies inside it, so Unix socket paths stay short.
pub fn scratch_dir() -> PathBuf {
    let dir =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    let dir = match std::env::current_dir() {
        Ok(cwd) => dir.strip_prefix(&cwd).map(PathBuf::from).unwrap_or(dir),
        Err(_) => dir,
    };
    dir.join("perf-run")
}

/// Host facts for a snapshot: revision, cores, compiler. A snapshot from
/// fewer than two cores says so and may not be cited for or against a
/// parallel path.
pub fn host_facts() -> JsonValue {
    let first_line = |cmd: &str, args: &[&str]| {
        std::process::Command::new(cmd)
            .args(args)
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
    };
    let n = nproc();
    JsonValue::obj([
        (
            "git_rev",
            JsonValue::Str(first_line("git", &["rev-parse", "--short", "HEAD"])),
        ),
        ("rustc", JsonValue::Str(first_line("rustc", &["-V"]))),
        ("nproc", JsonValue::Num(n as f64)),
        ("single_core", JsonValue::Bool(n < 2)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{END_TO_END, PER_LAYER};
    use anycast_bench::json::parse;

    #[test]
    fn result_line_has_exactly_the_contract_keys_and_every_metric() {
        let mut o = Outcome {
            attempted: 10,
            ..Outcome::default()
        };
        o.set("goodput_rps", 123.456);
        let line = o.result_line(&END_TO_END);
        let JsonValue::Obj(pairs) = parse(&line).unwrap() else {
            panic!("not an object")
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let JsonValue::Obj(metrics) = &pairs[3].1 else {
            panic!("metrics is not an object")
        };
        assert_eq!(metrics.len(), END_TO_END.len());
        assert!(line.contains("\"goodput_rps\":{\"value\":123.456,\"unit\":\"1/s\"}"));
        // The traced pass prints the layer set instead, zeros included.
        let JsonValue::Obj(pairs) = parse(&o.result_line(&PER_LAYER)).unwrap() else {
            panic!("not an object")
        };
        let JsonValue::Obj(metrics) = &pairs[3].1 else {
            panic!("metrics is not an object")
        };
        assert_eq!(metrics.len(), PER_LAYER.len());
    }

    #[test]
    fn a_failed_gate_or_operation_turns_the_exit_code_non_zero() {
        let good = Outcome {
            attempted: 1,
            ..Outcome::default()
        };
        assert_eq!(exit_code([&good]), 0);
        let mut gated = Outcome::default();
        gated.gate(false, || "digest mismatch".into());
        assert!(!gated.correct());
        assert_eq!(exit_code([&good, &gated]), 1);
        let broken = Outcome {
            attempted: 5,
            failed: 1,
            ..Outcome::default()
        };
        assert_eq!(exit_code([&broken]), 1);
    }
}
