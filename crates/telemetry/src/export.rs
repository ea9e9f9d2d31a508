//! JSONL and CSV exporters for recorded event streams.
//!
//! Both exporters are pure functions of `(seed, events)` and write events
//! in the order given, so exporting the per-cell streams of a parallel
//! sweep in input order yields byte-identical files for any `--jobs`
//! value. Every record carries the run's substream seed so merged logs
//! stay attributable.

use crate::event::{Event, FaultKind, ProbeResult, SkipReason, TimedEvent};
use crate::json::JsonValue;
use anycast_rsvp::MessageKind;
use std::fmt::Write as _;

/// Stable lowercase label for a signaling message kind.
fn msg_label(kind: MessageKind) -> &'static str {
    match kind {
        MessageKind::Path => "path",
        MessageKind::Resv => "resv",
        MessageKind::ResvErr => "resv_err",
        MessageKind::PathTear => "path_tear",
    }
}

fn skip_json(skip: &SkipReason) -> JsonValue {
    match skip {
        SkipReason::LinkBlocked {
            link,
            hop_index,
            available_bps,
        } => JsonValue::obj([
            ("reason", JsonValue::Str("link_blocked".into())),
            ("link", JsonValue::Num(link.index() as f64)),
            ("hop_index", JsonValue::Num(*hop_index as f64)),
            ("available_bps", JsonValue::Num(*available_bps as f64)),
        ]),
        SkipReason::NoFeasiblePath => {
            JsonValue::obj([("reason", JsonValue::Str("no_feasible_path".into()))])
        }
        SkipReason::NotSelected => {
            JsonValue::obj([("reason", JsonValue::Str("not_selected".into()))])
        }
    }
}

fn fault_json(entity: &FaultKind) -> JsonValue {
    match entity {
        FaultKind::Link(l) => JsonValue::obj([
            ("type", JsonValue::Str("link".into())),
            ("id", JsonValue::Num(l.index() as f64)),
        ]),
        FaultKind::Node(n) => JsonValue::obj([
            ("type", JsonValue::Str("node".into())),
            ("id", JsonValue::Num(n.index() as f64)),
        ]),
    }
}

/// Renders one event as a JSON object.
///
/// Every object starts with `t` (simulated seconds), `seed` (the run's
/// substream seed) and `kind` (the [`Event::kind`] discriminant); the
/// remaining fields are variant-specific — see the crate-level schema
/// docs.
pub(crate) fn event_json(seed: u64, timed: &TimedEvent) -> JsonValue {
    let mut fields: Vec<(String, JsonValue)> = vec![
        ("t".into(), JsonValue::Num(timed.time_secs)),
        ("seed".into(), JsonValue::Num(seed as f64)),
        ("kind".into(), JsonValue::Str(timed.event.kind().into())),
    ];
    match &timed.event {
        Event::RequestArrival {
            request,
            source,
            group,
            demand_bps,
        } => {
            fields.push(("request".into(), JsonValue::Num(*request as f64)));
            fields.push(("source".into(), JsonValue::Num(source.index() as f64)));
            fields.push(("group".into(), JsonValue::Num(*group as f64)));
            fields.push(("demand_bps".into(), JsonValue::Num(*demand_bps as f64)));
        }
        Event::DestinationProbe {
            request,
            member_index,
            weight,
            result,
        } => {
            fields.push(("request".into(), JsonValue::Num(*request as f64)));
            fields.push(("member".into(), JsonValue::Num(*member_index as f64)));
            fields.push(("weight".into(), JsonValue::Num(*weight)));
            match result {
                ProbeResult::Admitted => {
                    fields.push(("outcome".into(), JsonValue::Str("admitted".into())));
                }
                ProbeResult::Skipped(skip) => {
                    fields.push(("outcome".into(), JsonValue::Str("skipped".into())));
                    fields.push(("skip".into(), skip_json(skip)));
                }
            }
        }
        Event::Retrial {
            request,
            tries_so_far,
            remaining_weight,
        } => {
            fields.push(("request".into(), JsonValue::Num(*request as f64)));
            fields.push(("tries_so_far".into(), JsonValue::Num(*tries_so_far as f64)));
            fields.push(("remaining_weight".into(), JsonValue::Num(*remaining_weight)));
        }
        Event::ReservationSetup {
            request,
            session,
            member_index,
            hops,
            tries,
        } => {
            fields.push(("request".into(), JsonValue::Num(*request as f64)));
            fields.push(("session".into(), JsonValue::Num(session.raw() as f64)));
            fields.push(("member".into(), JsonValue::Num(*member_index as f64)));
            fields.push(("hops".into(), JsonValue::Num(*hops as f64)));
            fields.push(("tries".into(), JsonValue::Num(*tries as f64)));
        }
        Event::ReservationTeardown { session, reason } => {
            fields.push(("session".into(), JsonValue::Num(session.raw() as f64)));
            fields.push(("reason".into(), JsonValue::Str(reason.label().into())));
        }
        Event::Rejection {
            request,
            tries,
            trace,
        } => {
            fields.push(("request".into(), JsonValue::Num(*request as f64)));
            fields.push(("tries".into(), JsonValue::Num(*tries as f64)));
            let steps = trace
                .steps
                .iter()
                .map(|s| {
                    JsonValue::obj([
                        ("member", JsonValue::Num(s.member_index as f64)),
                        ("weight", JsonValue::Num(s.weight)),
                        ("skip", skip_json(&s.skip)),
                    ])
                })
                .collect();
            fields.push((
                "trace".into(),
                JsonValue::obj([
                    ("weights", JsonValue::nums(trace.weights.iter().copied())),
                    ("steps", JsonValue::Arr(steps)),
                ]),
            ));
        }
        Event::LinkSample {
            link,
            reserved_bps,
            capacity_bps,
            flows,
            failed,
        } => {
            fields.push(("link".into(), JsonValue::Num(link.index() as f64)));
            fields.push(("reserved_bps".into(), JsonValue::Num(*reserved_bps as f64)));
            fields.push(("capacity_bps".into(), JsonValue::Num(*capacity_bps as f64)));
            fields.push(("flows".into(), JsonValue::Num(*flows as f64)));
            fields.push(("failed".into(), JsonValue::Bool(*failed)));
            let utilization = if *capacity_bps > 0 {
                *reserved_bps as f64 / *capacity_bps as f64
            } else {
                0.0
            };
            fields.push(("utilization".into(), JsonValue::Num(utilization)));
        }
        Event::FaultFired { entity } | Event::FaultHealed { entity } => {
            fields.push(("entity".into(), fault_json(entity)));
        }
        Event::MsgSent {
            request,
            message,
            link,
        }
        | Event::MsgLost {
            request,
            message,
            link,
        } => {
            fields.push(("request".into(), JsonValue::Num(*request as f64)));
            fields.push(("message".into(), JsonValue::Str(msg_label(*message).into())));
            fields.push(("link".into(), JsonValue::Num(link.index() as f64)));
        }
        Event::HoldPlaced {
            request,
            link,
            bw_bps,
        }
        | Event::HoldExpired {
            request,
            link,
            bw_bps,
        } => {
            fields.push(("request".into(), JsonValue::Num(*request as f64)));
            fields.push(("link".into(), JsonValue::Num(link.index() as f64)));
            fields.push(("bw_bps".into(), JsonValue::Num(*bw_bps as f64)));
        }
        Event::SetupCompleted {
            request,
            session,
            latency_secs,
        } => {
            fields.push(("request".into(), JsonValue::Num(*request as f64)));
            fields.push(("session".into(), JsonValue::Num(session.raw() as f64)));
            fields.push(("latency_secs".into(), JsonValue::Num(*latency_secs)));
        }
    }
    JsonValue::Obj(fields)
}

/// Renders an event stream as JSON Lines: one compact object per line, in
/// input order, with a trailing newline after every record.
pub fn to_jsonl(seed: u64, events: &[TimedEvent]) -> String {
    let mut out = String::new();
    for ev in events {
        out.push_str(&event_json(seed, ev).render());
        out.push('\n');
    }
    out
}

/// RFC 4180 field escaping: fields containing commas, quotes or newlines
/// are wrapped in double quotes with inner quotes doubled.
pub(crate) fn csv_escape(field: &str) -> String {
    if field.contains(['"', ',', '\n', '\r']) {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

/// The CSV header the exporter writes.
pub(crate) const CSV_HEADER: &str = "t,seed,kind,request,session,member,link,value,detail";

fn fault_detail(entity: &FaultKind) -> String {
    match entity {
        FaultKind::Link(l) => format!("link={}", l.index()),
        FaultKind::Node(n) => format!("node={}", n.index()),
    }
}

/// Renders an event stream as CSV with the fixed `CSV_HEADER` columns.
///
/// Columns that do not apply to a variant are left empty; `value` holds
/// the variant's headline number (demand, weight, tries, utilization) and
/// `detail` a compact `k=v;...` summary of the rest.
pub fn to_csv(seed: u64, events: &[TimedEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 48 + CSV_HEADER.len() + 1);
    out.push_str(CSV_HEADER);
    out.push('\n');
    for ev in events {
        let kind = ev.event.kind();
        let (request, session, member, link, value, detail) = match &ev.event {
            Event::RequestArrival {
                request,
                source,
                group,
                demand_bps,
            } => (
                Some(*request),
                None,
                None,
                None,
                Some(*demand_bps as f64),
                format!("source={};group={}", source.index(), group),
            ),
            Event::DestinationProbe {
                request,
                member_index,
                weight,
                result,
            } => (
                Some(*request),
                None,
                Some(*member_index),
                None,
                Some(*weight),
                match result {
                    ProbeResult::Admitted => "admitted".to_string(),
                    ProbeResult::Skipped(skip) => format!("skipped:{}", skip.label()),
                },
            ),
            Event::Retrial {
                request,
                tries_so_far,
                remaining_weight,
            } => (
                Some(*request),
                None,
                None,
                None,
                Some(*remaining_weight),
                format!("tries_so_far={tries_so_far}"),
            ),
            Event::ReservationSetup {
                request,
                session,
                member_index,
                hops,
                tries,
            } => (
                Some(*request),
                Some(session.raw()),
                Some(*member_index),
                None,
                Some(*tries as f64),
                format!("hops={hops}"),
            ),
            Event::ReservationTeardown { session, reason } => (
                None,
                Some(session.raw()),
                None,
                None,
                None,
                reason.label().to_string(),
            ),
            Event::Rejection {
                request,
                tries,
                trace,
            } => (
                Some(*request),
                None,
                None,
                None,
                Some(*tries as f64),
                format!("skipped_candidates={}", trace.steps.len()),
            ),
            Event::LinkSample {
                link,
                reserved_bps,
                capacity_bps,
                flows,
                failed,
            } => (
                None,
                None,
                None,
                Some(link.index()),
                Some(if *capacity_bps > 0 {
                    *reserved_bps as f64 / *capacity_bps as f64
                } else {
                    0.0
                }),
                format!("reserved_bps={reserved_bps};capacity_bps={capacity_bps};flows={flows};failed={failed}"),
            ),
            Event::FaultFired { entity } | Event::FaultHealed { entity } => {
                let link = match entity {
                    FaultKind::Link(l) => Some(l.index()),
                    FaultKind::Node(_) => None,
                };
                (None, None, None, link, None, fault_detail(entity))
            }
            Event::MsgSent {
                request,
                message,
                link,
            }
            | Event::MsgLost {
                request,
                message,
                link,
            } => (
                Some(*request),
                None,
                None,
                Some(link.index()),
                None,
                format!("message={}", msg_label(*message)),
            ),
            Event::HoldPlaced {
                request,
                link,
                bw_bps,
            }
            | Event::HoldExpired {
                request,
                link,
                bw_bps,
            } => (
                Some(*request),
                None,
                None,
                Some(link.index()),
                Some(*bw_bps as f64),
                String::new(),
            ),
            Event::SetupCompleted {
                request,
                session,
                latency_secs,
            } => (
                Some(*request),
                Some(session.raw()),
                None,
                None,
                Some(*latency_secs),
                String::new(),
            ),
        };
        let num = |v: Option<f64>| match v {
            Some(x) if x.fract() == 0.0 && x.abs() < 9.0e15 => format!("{}", x as i64),
            Some(x) => format!("{x}"),
            None => String::new(),
        };
        let idx = |v: Option<usize>| v.map(|x| x.to_string()).unwrap_or_default();
        let id = |v: Option<u64>| v.map(|x| x.to_string()).unwrap_or_default();
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{},{},{}",
            ev.time_secs,
            seed,
            kind,
            id(request),
            id(session),
            idx(member),
            idx(link),
            num(value),
            csv_escape(&detail)
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{DecisionStep, DecisionTrace, TeardownReason};
    use anycast_net::{LinkId, NodeId};
    use anycast_rsvp::SessionId;

    fn stream() -> Vec<TimedEvent> {
        vec![
            TimedEvent {
                time_secs: 0.5,
                event: Event::RequestArrival {
                    request: 0,
                    source: NodeId::new(3),
                    group: 0,
                    demand_bps: 64_000,
                },
            },
            TimedEvent {
                time_secs: 0.5,
                event: Event::DestinationProbe {
                    request: 0,
                    member_index: 1,
                    weight: 0.75,
                    result: ProbeResult::Skipped(SkipReason::LinkBlocked {
                        link: LinkId::new(9),
                        hop_index: 2,
                        available_bps: 32_000,
                    }),
                },
            },
            TimedEvent {
                time_secs: 0.5,
                event: Event::Rejection {
                    request: 0,
                    tries: 1,
                    trace: DecisionTrace {
                        weights: vec![0.25, 0.75],
                        steps: vec![DecisionStep {
                            member_index: 1,
                            weight: 0.75,
                            skip: SkipReason::LinkBlocked {
                                link: LinkId::new(9),
                                hop_index: 2,
                                available_bps: 32_000,
                            },
                        }],
                    },
                },
            },
            TimedEvent {
                time_secs: 2.0,
                event: Event::ReservationTeardown {
                    session: SessionId::for_tests(4),
                    reason: TeardownReason::SoftStateExpired,
                },
            },
        ]
    }

    #[test]
    fn jsonl_is_one_parseable_object_per_line_in_order() {
        let text = to_jsonl(77, &stream());
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(text.ends_with('\n'));
        for line in &lines {
            let v = crate::json::parse(line).expect("every line must parse");
            let JsonValue::Obj(fields) = v else {
                panic!("every line must be an object");
            };
            assert_eq!(fields[0].0, "t");
            assert_eq!(fields[1], ("seed".to_string(), JsonValue::Num(77.0)));
            assert_eq!(fields[2].0, "kind");
        }
        assert!(lines[0].contains(r#""kind":"arrival""#));
        assert!(lines[1].contains(
            r#""skip":{"reason":"link_blocked","link":9,"hop_index":2,"available_bps":32000}"#
        ));
        assert!(lines[2].contains(r#""weights":[0.25,0.75]"#));
        assert!(lines[3].contains(r#""reason":"soft_state_expired""#));
    }

    #[test]
    fn csv_has_fixed_header_and_row_per_event() {
        let text = to_csv(5, &stream());
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], CSV_HEADER);
        assert_eq!(lines.len(), 5);
        assert_eq!(lines[1], "0.5,5,arrival,0,,,,64000,source=3;group=0");
        assert_eq!(lines[2], "0.5,5,probe,0,,1,,0.75,skipped:link_blocked");
        assert_eq!(lines[4], "2,5,teardown,,4,,,,soft_state_expired");
    }

    #[test]
    fn signaling_events_export_on_both_formats() {
        let events = vec![
            TimedEvent {
                time_secs: 1.0,
                event: Event::MsgSent {
                    request: 7,
                    message: MessageKind::Path,
                    link: LinkId::new(3),
                },
            },
            TimedEvent {
                time_secs: 1.2,
                event: Event::MsgLost {
                    request: 7,
                    message: MessageKind::Resv,
                    link: LinkId::new(5),
                },
            },
            TimedEvent {
                time_secs: 1.0,
                event: Event::HoldPlaced {
                    request: 7,
                    link: LinkId::new(3),
                    bw_bps: 64_000,
                },
            },
            TimedEvent {
                time_secs: 2.0,
                event: Event::HoldExpired {
                    request: 7,
                    link: LinkId::new(3),
                    bw_bps: 64_000,
                },
            },
            TimedEvent {
                time_secs: 1.5,
                event: Event::SetupCompleted {
                    request: 8,
                    session: SessionId::for_tests(2),
                    latency_secs: 0.25,
                },
            },
        ];
        let jsonl = to_jsonl(9, &events);
        let lines: Vec<&str> = jsonl.lines().collect();
        assert!(lines[0].contains(r#""kind":"msg_sent""#));
        assert!(lines[0].contains(r#""message":"path""#));
        assert!(lines[1].contains(r#""kind":"msg_lost""#));
        assert!(lines[1].contains(r#""message":"resv""#));
        assert!(lines[2].contains(r#""kind":"hold_placed""#));
        assert!(lines[2].contains(r#""bw_bps":64000"#));
        assert!(lines[3].contains(r#""kind":"hold_expired""#));
        assert!(lines[4].contains(r#""kind":"setup_completed""#));
        assert!(lines[4].contains(r#""latency_secs":0.25"#));
        for line in &lines {
            crate::json::parse(line).expect("every line must parse");
        }
        let csv = to_csv(9, &events);
        let rows: Vec<&str> = csv.lines().collect();
        assert_eq!(rows[1], "1,9,msg_sent,7,,,3,,message=path");
        assert_eq!(rows[2], "1.2,9,msg_lost,7,,,5,,message=resv");
        assert_eq!(rows[3], "1,9,hold_placed,7,,,3,64000,");
        assert_eq!(rows[4], "2,9,hold_expired,7,,,3,64000,");
        assert_eq!(rows[5], "1.5,9,setup_completed,8,2,,,0.25,");
    }

    #[test]
    fn csv_escaping_doubles_quotes_and_wraps() {
        assert_eq!(csv_escape("plain"), "plain");
        assert_eq!(csv_escape("a,b"), "\"a,b\"");
        assert_eq!(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
        assert_eq!(csv_escape("line\nbreak"), "\"line\nbreak\"");
    }

    #[test]
    fn exporters_are_order_preserving_pure_functions() {
        let events = stream();
        assert_eq!(to_jsonl(1, &events), to_jsonl(1, &events));
        let reversed: Vec<TimedEvent> = events.iter().rev().cloned().collect();
        assert_ne!(to_jsonl(1, &events), to_jsonl(1, &reversed));
    }
}
