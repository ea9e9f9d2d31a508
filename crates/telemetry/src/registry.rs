//! A labelled metrics registry built on the `sim::stats` primitives.
//!
//! Counters, gauges and integer-valued histograms, each addressed by a
//! [`MetricKey`] — a metric name plus an ordered list of `(label, value)`
//! pairs (`policy`, `group`, `link`, …). Keys are kept in `BTreeMap`s so
//! iteration, merging and JSON export are deterministic regardless of
//! insertion order.

use crate::json::JsonValue;
use anycast_sim::stats::Histogram;
use std::collections::BTreeMap;

/// A metric name plus its labels, e.g. `probes_total{policy=wddh,outcome=admitted}`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricKey {
    /// Metric name (snake_case by convention).
    pub(crate) name: String,
    /// Ordered `(label, value)` pairs; order is part of the key identity,
    /// so always build labels in one canonical order per metric.
    pub(crate) labels: Vec<(String, String)>,
}

impl MetricKey {
    /// A key without labels.
    pub fn plain(name: impl Into<String>) -> Self {
        MetricKey {
            name: name.into(),
            labels: Vec::new(),
        }
    }

    /// A key with labels.
    #[cfg(test)]
    pub(crate) fn labelled<I, K, V>(name: impl Into<String>, labels: I) -> Self
    where
        I: IntoIterator<Item = (K, V)>,
        K: Into<String>,
        V: Into<String>,
    {
        MetricKey {
            name: name.into(),
            labels: labels
                .into_iter()
                .map(|(k, v)| (k.into(), v.into()))
                .collect(),
        }
    }

    /// Renders the key in the conventional `name{k=v,...}` form.
    pub(crate) fn render(&self) -> String {
        if self.labels.is_empty() {
            return self.name.clone();
        }
        let labels: Vec<String> = self
            .labels
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        format!("{}{{{}}}", self.name, labels.join(","))
    }
}

/// Counters, gauges and histograms for one run (or one merged sweep).
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<MetricKey, f64>,
    gauges: BTreeMap<MetricKey, f64>,
    histograms: BTreeMap<MetricKey, Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to the counter at `key` (creating it at zero).
    pub fn inc(&mut self, key: MetricKey, delta: f64) {
        *self.counters.entry(key).or_insert(0.0) += delta;
    }

    /// Reads a counter; zero when never incremented.
    #[cfg(test)]
    pub(crate) fn counter(&self, key: &MetricKey) -> f64 {
        self.counters.get(key).copied().unwrap_or(0.0)
    }

    /// Sets the gauge at `key` to `value`.
    pub(crate) fn set_gauge(&mut self, key: MetricKey, value: f64) {
        self.gauges.insert(key, value);
    }

    /// Reads a gauge; `None` when never set.
    #[cfg(test)]
    pub(crate) fn gauge(&self, key: &MetricKey) -> Option<f64> {
        self.gauges.get(key).copied()
    }

    /// Raises the gauge at `key` to `value` if `value` is larger (creating
    /// it at `value`): a high-water-mark gauge, used for peak queue depth
    /// and peak journal size in the admission daemon.
    pub fn set_gauge_max(&mut self, key: MetricKey, value: f64) {
        let g = self.gauges.entry(key).or_insert(value);
        if value > *g {
            *g = value;
        }
    }

    /// Records `value` into the histogram at `key` (creating it empty).
    pub(crate) fn observe(&mut self, key: MetricKey, value: u32) {
        self.histograms.entry(key).or_default().record(value);
    }

    /// Reads a histogram; `None` when nothing was observed.
    #[cfg(test)]
    pub(crate) fn histogram(&self, key: &MetricKey) -> Option<&Histogram> {
        self.histograms.get(key)
    }

    /// Merges `other` into `self`: counters add, gauges take `other`'s
    /// value (last writer wins), histograms merge bucket-wise.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0.0) += v;
        }
        for (k, v) in &other.gauges {
            self.gauges.insert(k.clone(), *v);
        }
        for (k, h) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(h);
        }
    }

    /// Exports the registry as a JSON object with `counters`, `gauges` and
    /// `histograms` sections, keys rendered `name{k=v,...}`, in
    /// deterministic (sorted) order.
    pub fn to_json(&self) -> JsonValue {
        let counters = JsonValue::Obj(
            self.counters
                .iter()
                .map(|(k, v)| (k.render(), JsonValue::Num(*v)))
                .collect(),
        );
        let gauges = JsonValue::Obj(
            self.gauges
                .iter()
                .map(|(k, v)| (k.render(), JsonValue::Num(*v)))
                .collect(),
        );
        let histograms = JsonValue::Obj(
            self.histograms
                .iter()
                .map(|(k, h)| {
                    (
                        k.render(),
                        JsonValue::obj([
                            ("total", JsonValue::Num(h.total() as f64)),
                            ("mean", JsonValue::Num(h.mean())),
                            (
                                "buckets",
                                JsonValue::nums(h.buckets().iter().map(|&c| c as f64)),
                            ),
                        ]),
                    )
                })
                .collect(),
        );
        JsonValue::obj([
            ("counters", counters),
            ("gauges", gauges),
            ("histograms", histograms),
        ])
    }
}

/// Builds a registry of headline metrics from a recorded event stream:
/// per-kind event counts, per-group request/rejection counters, per-member
/// probe outcomes, a tries histogram over admitted flows, teardown
/// reasons, and a decile histogram of sampled link utilization — all
/// labelled with `policy`.
pub fn registry_from_events(policy: &str, events: &[crate::event::TimedEvent]) -> MetricsRegistry {
    use crate::event::{Event, ProbeResult};
    let mut reg = MetricsRegistry::new();
    let key = |name: &str, extra: &[(&str, String)]| {
        let mut labels = vec![("policy".to_string(), policy.to_string())];
        labels.extend(extra.iter().map(|(k, v)| (k.to_string(), v.clone())));
        MetricKey {
            name: name.to_string(),
            labels,
        }
    };
    for timed in events {
        reg.inc(
            key("events_total", &[("kind", timed.event.kind().to_string())]),
            1.0,
        );
        match &timed.event {
            Event::RequestArrival { group, .. } => {
                reg.inc(key("requests_total", &[("group", group.to_string())]), 1.0);
            }
            Event::DestinationProbe {
                member_index,
                result,
                ..
            } => {
                let outcome = match result {
                    ProbeResult::Admitted => "admitted".to_string(),
                    ProbeResult::Skipped(skip) => format!("skipped_{}", skip.label()),
                };
                reg.inc(
                    key(
                        "probes_total",
                        &[("member", member_index.to_string()), ("outcome", outcome)],
                    ),
                    1.0,
                );
            }
            Event::ReservationSetup { tries, .. } => {
                reg.inc(key("admitted_total", &[]), 1.0);
                reg.observe(key("tries_to_admit", &[]), *tries);
            }
            Event::ReservationTeardown { reason, .. } => {
                reg.inc(
                    key("teardowns_total", &[("reason", reason.label().to_string())]),
                    1.0,
                );
            }
            Event::Rejection { tries, .. } => {
                reg.inc(key("rejections_total", &[]), 1.0);
                reg.observe(key("tries_to_reject", &[]), *tries);
            }
            Event::LinkSample {
                link,
                reserved_bps,
                capacity_bps,
                ..
            } => {
                let utilization = if *capacity_bps > 0 {
                    *reserved_bps as f64 / *capacity_bps as f64
                } else {
                    0.0
                };
                // Decile bucket 0..=10 so the histogram stays dense.
                let decile = (utilization * 10.0).round().clamp(0.0, 10.0) as u32;
                reg.observe(key("link_utilization_decile", &[]), decile);
                reg.set_gauge(
                    key("link_utilization", &[("link", link.index().to_string())]),
                    utilization,
                );
            }
            Event::FaultFired { .. } => {
                reg.inc(key("faults_fired_total", &[]), 1.0);
            }
            Event::FaultHealed { .. } => {
                reg.inc(key("faults_healed_total", &[]), 1.0);
            }
            Event::Retrial { .. } => {
                reg.inc(key("retrials_total", &[]), 1.0);
            }
            Event::MsgLost { message, .. } => {
                reg.inc(
                    key("messages_lost_total", &[("message", message.to_string())]),
                    1.0,
                );
            }
            Event::HoldExpired { .. } => {
                reg.inc(key("holds_expired_total", &[]), 1.0);
            }
            Event::SetupCompleted { latency_secs, .. } => {
                // Millisecond buckets keep sub-second latencies dense.
                reg.observe(
                    key("setup_latency_ms", &[]),
                    (latency_secs * 1000.0).round().clamp(0.0, u32::MAX as f64) as u32,
                );
            }
            // Per-crossing sends and placements are already visible in
            // events_total by kind; no dedicated counter needed.
            Event::MsgSent { .. } | Event::HoldPlaced { .. } => {}
        }
    }
    reg
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(name: &str, labels: &[(&str, &str)]) -> MetricKey {
        MetricKey::labelled(name, labels.iter().map(|&(k, v)| (k, v)))
    }

    #[test]
    fn key_rendering() {
        assert_eq!(MetricKey::plain("up").render(), "up");
        assert_eq!(
            key(
                "probes_total",
                &[("policy", "wddh"), ("outcome", "admitted")]
            )
            .render(),
            "probes_total{policy=wddh,outcome=admitted}"
        );
    }

    #[test]
    fn counters_accumulate_and_merge() {
        let mut a = MetricsRegistry::new();
        a.inc(MetricKey::plain("x"), 2.0);
        a.inc(MetricKey::plain("x"), 3.0);
        assert_eq!(a.counter(&MetricKey::plain("x")), 5.0);
        assert_eq!(a.counter(&MetricKey::plain("missing")), 0.0);

        let mut b = MetricsRegistry::new();
        b.inc(MetricKey::plain("x"), 1.0);
        b.set_gauge(MetricKey::plain("g"), 9.0);
        b.observe(MetricKey::plain("h"), 3);
        a.merge(&b);
        assert_eq!(a.counter(&MetricKey::plain("x")), 6.0);
        assert_eq!(a.gauge(&MetricKey::plain("g")), Some(9.0));
        assert_eq!(a.histogram(&MetricKey::plain("h")).unwrap().total(), 1);
    }

    #[test]
    fn registry_from_events_counts_kinds_and_outcomes() {
        use crate::event::{Event, ProbeResult, TimedEvent};
        use anycast_net::{LinkId, NodeId};
        let events = vec![
            TimedEvent {
                time_secs: 0.0,
                event: Event::RequestArrival {
                    request: 0,
                    source: NodeId::new(1),
                    group: 0,
                    demand_bps: 1,
                },
            },
            TimedEvent {
                time_secs: 0.0,
                event: Event::DestinationProbe {
                    request: 0,
                    member_index: 2,
                    weight: 1.0,
                    result: ProbeResult::Admitted,
                },
            },
            TimedEvent {
                time_secs: 1.0,
                event: Event::LinkSample {
                    link: LinkId::new(4),
                    reserved_bps: 50,
                    capacity_bps: 100,
                    flows: 1,
                    failed: false,
                },
            },
        ];
        let reg = registry_from_events("wddh", &events);
        assert_eq!(
            reg.counter(&key(
                "events_total",
                &[("policy", "wddh"), ("kind", "arrival")]
            )),
            1.0
        );
        assert_eq!(
            reg.counter(&key(
                "probes_total",
                &[("policy", "wddh"), ("member", "2"), ("outcome", "admitted")]
            )),
            1.0
        );
        assert_eq!(
            reg.gauge(&key(
                "link_utilization",
                &[("policy", "wddh"), ("link", "4")]
            )),
            Some(0.5)
        );
        assert_eq!(
            reg.histogram(&key("link_utilization_decile", &[("policy", "wddh")]))
                .unwrap()
                .buckets()[5],
            1
        );
    }

    #[test]
    fn json_export_is_sorted_and_stable() {
        let mut r = MetricsRegistry::new();
        r.inc(key("b", &[]), 1.0);
        r.inc(key("a", &[("l", "2")]), 1.0);
        r.inc(key("a", &[("l", "1")]), 1.0);
        r.observe(MetricKey::plain("tries"), 1);
        r.observe(MetricKey::plain("tries"), 1);
        r.observe(MetricKey::plain("tries"), 3);
        let rendered = r.to_json().render();
        assert_eq!(
            rendered,
            concat!(
                r#"{"counters":{"a{l=1}":1,"a{l=2}":1,"b":1},"gauges":{},"#,
                r#""histograms":{"tries":{"total":3,"mean":1.6666666666666667,"#,
                r#""buckets":[0,2,0,1]}}}"#
            )
        );
    }
}
