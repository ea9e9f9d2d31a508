//! The traced pass of the daemon workloads: a shorter episode for the
//! client- and server-side tallies, then the workload's own request lines
//! replayed through each service layer's public functions — wire parse,
//! admission queue, token journal, engine decision, wire render — for the
//! cost budget, and a bare echo over the same transport for its floor.

use crate::daemon::{
    check_episode, engine_config, measure, set_up, unix_socket_path, Addr, AdmitLines, Kind, Stream,
};
use crate::report::{peak_rss_mb, Outcome};
use crate::spans::Tracer;
use crate::stats::{ns_per_call, percentile_of};
use anycast_dac::experiment::Decision;
use anycast_dac::online::{OnlineArrival, OnlineEngine};
use anycast_daemon::overload::QueuedAdmit;
use anycast_daemon::wire::{decision_response, parse_request, Request};
use anycast_daemon::{AdmissionQueue, DecisionJournal};
use anycast_net::topologies;
use anycast_telemetry::NullRecorder;
use std::hint::black_box;
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpListener;
use std::os::unix::net::UnixListener;
use std::path::Path;
use std::time::Instant;

/// Request lines replayed through the layers.
const REPLAYED: usize = 50_000;
/// Requests of the replay that carry spans.
const SPANNED: usize = 20_000;
/// Simulated seconds per wall second, as the workloads serve.
const SPEED: f64 = 200.0;
/// Simulated span the offline-configured engine accepts arrivals over.
const ENGINE_HORIZON_SECS: f64 = 3_500.0;

/// The parsed fields of an admit line, for the stages after the parse.
struct Admit {
    source_index: usize,
    holding_secs: f64,
    demand: anycast_net::Bandwidth,
    token: String,
}

fn parsed(line: &str) -> Admit {
    match parse_request(line).expect("the generator writes well-formed admits") {
        Request::Admit {
            source_index,
            holding_secs,
            demand,
            token,
            ..
        } => Admit {
            source_index,
            holding_secs,
            demand,
            token: token.expect("every generated admit carries a token"),
        },
        other => panic!("the generator wrote {other:?}"),
    }
}

fn queued(a: &Admit) -> QueuedAdmit {
    QueuedAdmit {
        conn: 0,
        token: Some(a.token.clone()),
        source_index: a.source_index,
        group_index: 0,
        demand: a.demand,
        holding_secs: a.holding_secs,
        received: Instant::now(),
    }
}

fn arrival(a: &Admit, at_secs: f64) -> OnlineArrival {
    OnlineArrival {
        at_secs,
        source_index: a.source_index,
        group_index: 0,
        holding_secs: a.holding_secs,
        demand: a.demand,
    }
}

fn engine(seed: u64) -> OnlineEngine<NullRecorder> {
    OnlineEngine::new(&topologies::mci(), &engine_config(seed), NullRecorder)
}

/// One request through the five service stages in order, a span around
/// each. Returns ns per request.
fn spanned_pipeline(lines: &[String], step_secs: f64, seed: u64, tracer: &mut Tracer) -> f64 {
    let mut queue = AdmissionQueue::new(1024, 128);
    let mut journal = DecisionJournal::new(4096);
    let mut online = engine(seed);
    let t = Instant::now();
    for (i, line) in lines.iter().enumerate() {
        let id = i as u64;
        tracer.enter("request", id);

        tracer.enter("parse", id);
        let admit = parsed(line);
        tracer.exit();

        tracer.enter("queue", id);
        assert!(queue.push(queued(&admit)).is_ok(), "an empty queue accepts");
        let item = queue.pop().expect("just pushed");
        tracer.exit();

        tracer.enter("journal", id);
        journal.enqueue(&admit.token, item.conn);
        journal.dispatch(&admit.token, id);
        tracer.exit();

        tracer.enter("decide", id);
        online.submit(arrival(&admit, i as f64 * step_secs));
        let decisions = online.pump();
        tracer.exit();

        tracer.enter("render", id);
        for d in &decisions {
            let rendered = decision_response(d, 0, Some(&admit.token));
            journal.decide(&admit.token, rendered);
        }
        tracer.exit();

        tracer.exit();
    }
    t.elapsed().as_nanos() as f64 / lines.len().max(1) as f64
}

/// Median round trip in µs of a bare line echo over the workload's
/// transport: one write per line each way, one line outstanding, the
/// workload's own request lines out and a verdict-sized line back.
fn rtt_floor_us(kind: Kind, lines: &[String], reply: &str) -> io::Result<f64> {
    let round_trips = 2_000.min(lines.len());
    let mut reply_line = reply.as_bytes().to_vec();
    reply_line.push(b'\n');
    let echo = |mut stream: Stream| -> io::Result<()> {
        let mut reader = BufReader::new(stream.try_clone()?);
        let mut line = Vec::new();
        loop {
            line.clear();
            if reader.read_until(b'\n', &mut line)? == 0 {
                return Ok(());
            }
            stream.write_all(&reply_line)?;
        }
    };
    std::thread::scope(|scope| {
        let (addr, server) = match kind {
            Kind::Saturation => {
                let path = unix_socket_path()?;
                let listener = UnixListener::bind(&path)?;
                let unlink = path.clone();
                let server = scope.spawn(move || {
                    let accepted = listener.accept().map(|(s, _)| Stream::Unix(s));
                    let _ = std::fs::remove_file(unlink);
                    echo(accepted?)
                });
                (Addr::Unix(path), server)
            }
            Kind::TcpRr | Kind::Overload => {
                let listener = TcpListener::bind("127.0.0.1:0")?;
                let addr = Addr::Tcp(listener.local_addr()?);
                let server = scope.spawn(move || {
                    let (s, _) = listener.accept()?;
                    s.set_nodelay(true)?;
                    echo(Stream::Tcp(s))
                });
                (addr, server)
            }
        };
        let mut client = Stream::connect(&addr)?;
        let mut reader = BufReader::new(client.try_clone()?);
        let mut back = Vec::new();
        let mut rtt_ns = Vec::with_capacity(round_trips);
        for line in lines.iter().cycle().take(round_trips + 200) {
            let t = Instant::now();
            client.write_all(line.as_bytes())?;
            back.clear();
            reader.read_until(b'\n', &mut back)?;
            rtt_ns.push(t.elapsed().as_nanos() as u64);
        }
        drop(reader);
        client.shutdown()?;
        server
            .join()
            .map_err(|_| io::Error::other("the echo thread panicked"))??;
        // The first 200 round trips warm the path up.
        Ok(percentile_of(&rtt_ns[200..], 0.5) as f64 / 1e3)
    })
}

/// The traced pass of one daemon workload.
pub fn run_layers(kind: Kind, seed: u64, seconds: f64, trace_out: &Path) -> io::Result<Outcome> {
    let mut out = Outcome::default();
    let window = (seconds / 2.0).max(0.5);

    // The episode, with the server's own latency field kept from each verdict.
    let ready = set_up(kind, seed, None)?;
    let warmup_sent = ready.warmup_sent;
    let (tally, report) = measure(kind, ready, seed, window, true)?;
    check_episode(&mut out, kind, &tally, warmup_sent, &report);
    out.attempted = tally.verdicts.sent;
    let sent = tally.verdicts.sent.max(1) as f64;
    // The same estimator as the end-to-end pass: the best quarter of a
    // closed-loop window, the whole of an open-loop one.
    let decided_rps = tally
        .best_quarter(window)
        .map_or(tally.in_window as f64 / window, |(rps, _)| rps);
    let c = &report.counters;
    out.set("daemon.decided_rps", decided_rps);
    out.set("daemon.latency_p50_ms", tally.verdicts.percentile_ms(0.50));
    out.set("daemon.latency_p95_ms", tally.verdicts.percentile_ms(0.95));
    out.set("daemon.latency_p99_ms", tally.verdicts.percentile_ms(0.99));
    out.set(
        "daemon.latency_samples",
        tally.verdicts.samples_ns.len() as f64,
    );
    out.set("daemon.missed_share", tally.verdicts.missed_share());
    out.set("daemon.refused_share", tally.refused as f64 / sent);
    out.set("daemon.shed_count", c.shed as f64);
    out.set("daemon.shed_engaged", c.shed_engaged as f64);
    out.set("daemon.queue_peak", c.queue_peak as f64);
    out.set("daemon.journal_evicted", c.journal_evicted as f64);
    out.set("daemon.wire_errors", c.wire_errors as f64);
    out.set(
        "daemon.ap",
        tally.admitted as f64 / report.decided.max(1) as f64,
    );
    let inside: Vec<u64> = tally.inside_us.iter().map(|&us| u64::from(us)).collect();
    out.set("daemon.inside_p50_us", percentile_of(&inside, 0.50) as f64);
    out.set("daemon.inside_p99_us", percentile_of(&inside, 0.99) as f64);
    out.set("gen.offered_rps", sent / window);
    out.set("gen.max_late_ms", tally.max_late_ns as f64 / 1e6);
    out.set("gen.late_share", tally.late as f64 / sent);

    // telemetry: the same episode with the event stream on (saturation,
    // where the engine is the busy part and recording can show).
    if kind == Kind::Saturation {
        let stream_path =
            crate::report::scratch_dir().join(format!("{}.telemetry.jsonl", std::process::id()));
        let ready = set_up(kind, seed, Some(stream_path.clone()))?;
        let warmup_sent = ready.warmup_sent;
        let (streamed, streamed_report) = measure(kind, ready, seed, window, false)?;
        check_episode(&mut out, kind, &streamed, warmup_sent, &streamed_report);
        let _ = std::fs::remove_file(&stream_path);
        let streamed_rps = streamed
            .best_quarter(window)
            .map_or(streamed.in_window as f64 / window, |(rps, _)| rps);
        out.set(
            "telemetry.stream.overhead_ratio",
            decided_rps / streamed_rps.max(1.0),
        );
        let events = streamed_report.telemetry_written + streamed_report.telemetry_dropped;
        out.set(
            "telemetry.events_per_request",
            events as f64 / streamed_report.submitted.max(1) as f64,
        );
    }

    // The workload's own lines, as many as the engine's configured horizon
    // takes at this workload's rate of simulated time per request.
    let step_secs = SPEED / decided_rps.max(1.0);
    let replayed = REPLAYED
        .min((ENGINE_HORIZON_SECS / step_secs) as usize)
        .max(100);
    let mut generator = AdmitLines::new(seed, 0);
    let lines: Vec<String> = (0..replayed as u64)
        .map(|seq| String::from_utf8_lossy(generator.next(b'a', seq)).into_owned())
        .collect();
    let n = lines.len() as u64;

    let parse_ns = ns_per_call(5, n, || {
        for l in &lines {
            black_box(parse_request(l)).ok();
        }
    });
    out.set("daemon.wire.parse_ns", parse_ns);

    let admits: Vec<Admit> = lines.iter().map(|l| parsed(l)).collect();
    let mut queue = AdmissionQueue::new(1024, 128);
    let queue_ns = ns_per_call(5, n, || {
        for a in &admits {
            assert!(queue.push(queued(a)).is_ok(), "an empty queue accepts");
            black_box(queue.pop());
        }
    });
    out.set("daemon.queue.push_pop_ns", queue_ns);

    // Decisions once, timed; they also feed the render and journal stages.
    let mut online = engine(seed);
    let mut decisions: Vec<Decision> = Vec::with_capacity(admits.len());
    let t = Instant::now();
    for (i, a) in admits.iter().enumerate() {
        online.submit(arrival(a, i as f64 * step_secs));
        decisions.extend(online.pump());
    }
    let decide_ns = t.elapsed().as_nanos() as f64 / n as f64;
    let (engine_metrics, tail, _) = online.finish();
    decisions.extend(tail);
    out.gate(decisions.len() == admits.len(), || {
        format!(
            "the engine decided {} of {} replayed admits",
            decisions.len(),
            admits.len()
        )
    });
    out.gate(engine_metrics.leaked_bandwidth_bps == 0, || {
        "the replay engine leaked bandwidth".into()
    });
    out.set("core.online.ns_per_decision", decide_ns);

    let render_ns = ns_per_call(5, n, || {
        for (d, a) in decisions.iter().zip(&admits) {
            black_box(decision_response(d, 250, Some(&a.token)));
        }
    });
    out.set("daemon.wire.render_ns", render_ns);
    let rendered: Vec<String> = decisions
        .iter()
        .zip(&admits)
        .map(|(d, a)| decision_response(d, 250, Some(&a.token)))
        .collect();

    // The journal at its default bound; past 4 096 tokens every enqueue
    // evicts, as in the daemon.
    let journal_ns = ns_per_call(5, n, || {
        let mut journal = DecisionJournal::new(4096);
        for (i, (a, line)) in admits.iter().zip(&rendered).enumerate() {
            journal.enqueue(&a.token, 0);
            black_box(journal.dispatch(&a.token, i as u64));
            journal.decide(&a.token, line.clone());
        }
    });
    out.set("daemon.journal.token_ns", journal_ns);

    out.set(
        "daemon.transport.rtt_floor_us",
        rtt_floor_us(kind, &lines, &rendered[0])?,
    );

    // The budget: what one decided request costs the daemon end to end,
    // what the outside-in stages add up to, and what is left for channel
    // hops, wake-ups and system calls.
    let per_request = 1e9 / decided_rps.max(1e-9);
    let accounted = parse_ns + queue_ns + journal_ns + decide_ns + render_ns;
    out.set("daemon.server.ns_per_request", per_request);
    out.set("daemon.server.residual_ns", per_request - accounted);
    out.set("coverage", accounted / per_request);

    // Spans over the same stages, with and without the recorder.
    let spanned = &lines[..SPANNED.min(lines.len())];
    let plain_ns = spanned_pipeline(spanned, step_secs, seed, &mut Tracer::new(0));
    let mut tracer = Tracer::new(spanned.len() * 8);
    let traced_ns = spanned_pipeline(spanned, step_secs, seed, &mut tracer);
    out.set("trace.overhead_ratio", traced_ns / plain_ns);
    out.set("trace.spans", tracer.spans().len() as f64);
    if let Err(e) = tracer.write_json(trace_out) {
        out.gate(false, || {
            format!("cannot write spans to {}: {e}", trace_out.display())
        });
    }
    for (name, (count, self_ns)) in tracer.self_times() {
        eprintln!(
            "  span {name:<8} n={count:<6} self={:.0} ns/request",
            self_ns as f64 / spanned.len() as f64
        );
    }

    out.set("proc.peak_rss_mb", peak_rss_mb());
    out.failed = tally.failures + out.gate_failures.len() as u64;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_traced_pass_fills_every_daemon_layer() {
        let path =
            crate::report::scratch_dir().join(format!("test-{}-layers.json", std::process::id()));
        let out = run_layers(Kind::Saturation, 3, 1.0, &path).unwrap();
        assert!(out.correct(), "{:?}", out.gate_failures);
        for name in [
            "daemon.wire.parse_ns",
            "daemon.wire.render_ns",
            "daemon.queue.push_pop_ns",
            "daemon.journal.token_ns",
            "core.online.ns_per_decision",
            "daemon.transport.rtt_floor_us",
            "daemon.decided_rps",
            "daemon.inside_p50_us",
            "telemetry.stream.overhead_ratio",
            "coverage",
            "trace.spans",
        ] {
            assert!(
                out.get(name).is_some_and(|v| v > 0.0),
                "{name} = {:?}",
                out.get(name)
            );
        }
        let spans = std::fs::read_to_string(&path).unwrap();
        assert!(spans.contains("\"name\":\"journal\""));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn echo_floor_runs_over_both_transports() {
        let lines: Vec<String> = (0..300)
            .map(|i| format!("{{\"op\":\"admit\",\"n\":{i}}}\n"))
            .collect();
        for kind in [Kind::Saturation, Kind::TcpRr] {
            assert!(rtt_floor_us(kind, &lines, "{\"op\":\"decision\"}").unwrap() > 0.0);
        }
    }
}
