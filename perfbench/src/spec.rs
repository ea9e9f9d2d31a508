//! What the benchmark declares: its workloads and every metric with unit,
//! direction and regression bound. `BENCHMARK.json` at the repository root
//! carries the same declaration for the driver; a test keeps the two equal.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One declared metric. `bound` is the share of the parent's median by
/// which an end-to-end metric may worsen; layer metrics carry none.
#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
    }
}

/// One declared workload and the reason it exists.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

/// How long one run measures unless `--seconds` says otherwise.
pub const RUN_SECONDS: u64 = 10;

/// Seed used when `--seed` is absent; the digests in `expected.json` are
/// pinned for it.
pub const DEFAULT_SEED: u64 = 11;

/// A verdict later than this after its request was due counts as missed.
pub const DEADLINE_MS: f64 = 250.0;

pub const WORKLOADS: [WorkloadSpec; 5] = [
    WorkloadSpec {
        name: "offline_mci",
        why: "paper-scale figure regeneration on the 19-node MCI backbone: five systems back to back, per-request controller, RSVP walk and event-queue work dominate, set-up is nil",
    },
    WorkloadSpec {
        name: "offline_fattree",
        why: "same engine on an 11271-node fat-tree with K=16: route set-up, resident memory and O(links) per-event work dominate, so a per-link cost that is free on MCI shows here",
    },
    WorkloadSpec {
        name: "daemon_saturation",
        why: "closed loop, 128 pipelined admits on one Unix socket: capacity of the full request path with transport pathologies removed",
    },
    WorkloadSpec {
        name: "daemon_tcp_rr",
        why: "two synchronous request-reply clients on loopback TCP: no pipelining, so per-reply write and wake-up latency is all there is",
    },
    WorkloadSpec {
        name: "daemon_overload",
        why: "open-loop flash crowd on TCP, 0.5x then 2x then 0.5x of a synthetic 2000/s capacity: only the shed and queue policy matters, wire and engine cost are drowned",
    },
];

use Better::{Higher, Lower};

/// End-to-end metrics, measured with tracing off. Every workload reports
/// every one of them; `README.md` says how each reads per workload.
pub const END_TO_END: [MetricSpec; 4] = [
    e2e("goodput_rps", "1/s", Higher, 0.20),
    e2e("latency_mean_ms", "ms", Lower, 0.20),
    e2e("peak_rss_mb", "MB", Lower, 0.15),
    e2e("setup_s", "s", Lower, 0.25),
];

/// Per-layer metrics from the traced pass. A layer a workload never
/// enters reads 0 there, which is the layer-to-workload map made visible.
pub const PER_LAYER: [MetricSpec; 61] = [
    layer("coverage", "fraction", Higher),
    layer("trace.overhead_ratio", "ratio", Lower),
    layer("trace.spans", "count", Higher),
    layer("net.topology_build_ms", "ms", Lower),
    layer("net.bfs_tree_us_per_source", "us", Lower),
    layer("net.link_state.total_reserved_ns", "ns", Lower),
    layer("net.link_state.path_reserve_release_ns", "ns", Lower),
    layer("net.link_state.min_available_ns", "ns", Lower),
    layer("rsvp.reserve_teardown_ns", "ns", Lower),
    layer("sim.workload.ns_per_arrival", "ns", Lower),
    layer("sim.engine.ns_per_event", "ns", Lower),
    layer("core.weights.ed_ns", "ns", Lower),
    layer("core.weights.wddh_ns", "ns", Lower),
    layer("core.weights.wddb_ns", "ns", Lower),
    layer("core.admit.ed2_ns", "ns", Lower),
    layer("core.admit.wddh2_ns", "ns", Lower),
    layer("core.admit.wddb2_ns", "ns", Lower),
    layer("core.admit.sp_ns", "ns", Lower),
    layer("core.admit.gdi_ns", "ns", Lower),
    layer("core.run.ed2_rps", "1/s", Higher),
    layer("core.run.wddh2_rps", "1/s", Higher),
    layer("core.run.wddb2_rps", "1/s", Higher),
    layer("core.run.sp_rps", "1/s", Higher),
    layer("core.run.gdi_rps", "1/s", Higher),
    layer("core.engine_new_ms", "ms", Lower),
    layer("core.online.ns_per_decision", "ns", Lower),
    layer("core.sim_handle.ns_per_request", "ns", Lower),
    layer("core.sim_handle.residual_ns", "ns", Lower),
    layer("core.ap", "fraction", Higher),
    layer("core.mean_tries", "count", Lower),
    layer("core.messages_per_request", "count", Lower),
    layer("core.sim_digest48", "count", Lower),
    layer("telemetry.ring.overhead_ratio", "ratio", Lower),
    layer("telemetry.stream.overhead_ratio", "ratio", Lower),
    layer("telemetry.events_per_request", "count", Lower),
    layer("daemon.wire.parse_ns", "ns", Lower),
    layer("daemon.wire.render_ns", "ns", Lower),
    layer("daemon.queue.push_pop_ns", "ns", Lower),
    layer("daemon.journal.token_ns", "ns", Lower),
    layer("daemon.inside_p50_us", "us", Lower),
    layer("daemon.inside_p99_us", "us", Lower),
    layer("daemon.transport.rtt_floor_us", "us", Lower),
    layer("daemon.server.ns_per_request", "ns", Lower),
    layer("daemon.server.residual_ns", "ns", Lower),
    layer("daemon.decided_rps", "1/s", Higher),
    layer("daemon.latency_p50_ms", "ms", Lower),
    layer("daemon.latency_p95_ms", "ms", Lower),
    layer("daemon.latency_p99_ms", "ms", Lower),
    layer("daemon.latency_samples", "count", Higher),
    layer("daemon.missed_share", "fraction", Lower),
    layer("daemon.refused_share", "fraction", Lower),
    layer("daemon.shed_count", "count", Lower),
    layer("daemon.shed_engaged", "count", Lower),
    layer("daemon.queue_peak", "count", Lower),
    layer("daemon.journal_evicted", "count", Lower),
    layer("daemon.wire_errors", "count", Lower),
    layer("daemon.ap", "fraction", Higher),
    layer("gen.offered_rps", "1/s", Higher),
    layer("gen.max_late_ms", "ms", Lower),
    layer("gen.late_share", "fraction", Lower),
    layer("proc.peak_rss_mb", "MB", Lower),
];

pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The `--list` output: every workload and metric the binary knows.
pub fn list() -> String {
    let mut out = String::new();
    out.push_str("workloads:\n");
    for w in &WORKLOADS {
        out.push_str(&format!("  {:<18} {}\n", w.name, w.why));
    }
    out.push_str("end_to_end (tracing off; every workload reports each):\n");
    for m in &END_TO_END {
        out.push_str(&format!(
            "  {:<42} unit={:<9} better={:<6} bound={}\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound.expect("end-to-end metrics carry a bound")
        ));
    }
    out.push_str("per_layer (traced pass; 0 = the workload never enters that layer):\n");
    for m in &PER_LAYER {
        out.push_str(&format!(
            "  {:<42} unit={:<9} better={}\n",
            m.name,
            m.unit,
            m.better.as_str()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use anycast_bench::json::{parse, JsonValue};

    fn field<'a>(v: &'a JsonValue, key: &str) -> &'a JsonValue {
        match v {
            JsonValue::Obj(pairs) => &pairs.iter().find(|(k, _)| k == key).expect(key).1,
            _ => panic!("not an object"),
        }
    }

    fn text(v: &JsonValue) -> &str {
        match v {
            JsonValue::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }

    fn items(v: &JsonValue) -> &[JsonValue] {
        match v {
            JsonValue::Arr(a) => a,
            other => panic!("not an array: {other:?}"),
        }
    }

    fn declared(v: &JsonValue) -> Vec<(String, String, String, Option<f64>)> {
        items(v)
            .iter()
            .map(|m| {
                let bound = match m {
                    JsonValue::Obj(p) => {
                        p.iter().find(|(k, _)| k == "bound").map(|(_, b)| match b {
                            JsonValue::Num(x) => *x,
                            other => panic!("bound is not a number: {other:?}"),
                        })
                    }
                    _ => None,
                };
                (
                    text(field(m, "name")).to_string(),
                    text(field(m, "unit")).to_string(),
                    text(field(m, "better")).to_string(),
                    bound,
                )
            })
            .collect()
    }

    fn known(specs: &[MetricSpec]) -> Vec<(String, String, String, Option<f64>)> {
        specs
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.better.as_str().to_string(),
                    m.bound,
                )
            })
            .collect()
    }

    /// The file the driver reads and the tables the binary prints from
    /// cannot drift: names, units, directions, bounds, workloads and the
    /// run length are compared field by field.
    #[test]
    fn benchmark_json_equals_the_binary_tables() {
        let doc = parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let workloads: Vec<(String, String)> = items(field(&doc, "workloads"))
            .iter()
            .map(|w| (text(field(w, "name")).into(), text(field(w, "why")).into()))
            .collect();
        let ours: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.into(), w.why.into()))
            .collect();
        assert_eq!(workloads, ours);
        assert_eq!(declared(field(&doc, "end_to_end")), known(&END_TO_END));
        assert_eq!(declared(field(&doc, "per_layer")), known(&PER_LAYER));
        assert_eq!(
            field(&doc, "run_seconds"),
            &JsonValue::Num(RUN_SECONDS as f64)
        );
        assert_eq!(
            items(field(&doc, "paths")),
            &[JsonValue::Str("perfbench".into())]
        );
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for n in &names {
            assert!(n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is declared twice");
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
        for m in &END_TO_END {
            assert!(m.bound.is_some_and(|b| b > 0.0 && b <= 0.25));
        }
        assert!(list_has_every_name());
    }

    fn list_has_every_name() -> bool {
        let listing = list();
        WORKLOADS.iter().all(|w| listing.contains(w.name))
            && END_TO_END.iter().all(|m| listing.contains(m.name))
            && PER_LAYER.iter().all(|m| listing.contains(m.name))
    }
}
