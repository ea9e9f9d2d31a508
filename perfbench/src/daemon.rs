//! The three daemon workloads: an in-process `BoundServer` under its
//! default options, driven over a real socket by seeded clients in this
//! same process. Client threads block on the socket and do no more per
//! reply than stamp it and scan out the token; JSON parsing of sampled
//! lines waits until the window has closed.

use crate::report::{peak_rss_mb, scratch_dir, Outcome};
use crate::spec::DEADLINE_MS;
use crate::stats::{median, Verdicts};
use anycast_dac::experiment::{ExperimentConfig, SystemSpec};
use anycast_dac::policy::PolicySpec;
use anycast_daemon::{
    BoundServer, Endpoint, OverloadOptions, ServeOptions, ServeReport, ShutdownFlag,
};
use anycast_net::topologies;
use anycast_sim::SimRng;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Which daemon workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One Unix-socket connection, closed loop, 128 admits outstanding.
    Saturation,
    /// Two loopback-TCP connections, each one admit outstanding.
    TcpRr,
    /// Two loopback-TCP connections, one open-loop pacing sender.
    Overload,
}

impl Kind {
    fn connections(self) -> usize {
        match self {
            Kind::Saturation => 1,
            Kind::TcpRr | Kind::Overload => 2,
        }
    }

    /// Admits outstanding per connection while closed-loop (the measured
    /// phase of the first two workloads, the warm-up of all three).
    fn depth(self) -> usize {
        match self {
            Kind::Saturation => 128, // the default per-connection queue share
            Kind::TcpRr => 1,
            Kind::Overload => 16,
        }
    }

    /// Admits per connection that complete before set-up is over. A count
    /// and not a duration, so set-up time shows how fast the daemon gets
    /// there. `TcpRr` needs enough round trips to leave TCP's initial
    /// quick-ACK phase, or the window would start in a faster regime
    /// than it ends in.
    fn warmup_admits(self) -> u64 {
        match self {
            Kind::Saturation => 20_000,
            Kind::TcpRr => 24,
            Kind::Overload => 200,
        }
    }
}

/// Synthetic engine cost of the overload workload: 500 µs per admit, a
/// reproducible capacity of 2 000 admits/s.
const OVERLOAD_SPIN: Duration = Duration::from_micros(500);
const OVERLOAD_QUEUE_LIMIT: usize = 256;
/// The flash crowd as `(share of the window, multiple of capacity)`: calm,
/// 2x burst, calm again. What is served after the burst is the question.
const OVERLOAD_PHASES: [(f64, f64); 3] = [(0.4, 0.5), (0.3, 2.0), (0.3, 0.5)];
/// A send this long after its due instant counts as late (reported).
const LATE_NS: u64 = 10_000_000;
/// A stall this long in the calm first phase voids the run: the catch-up
/// burst after it (100 admits at 1 000/s) nears the 192 queued admits that
/// engage shedding, so the daemon could latch before the crowd arrives.
/// Later stalls change nothing: by then shedding is engaged anyway.
const CALM_STALL_LIMIT_NS: u64 = 100_000_000;
/// Fixed wait after the last send so the slowest verdicts are collected.
const DRAIN: Duration = Duration::from_millis(500);

/// The daemon's configuration: MCI, `<WD/D+H,2>`, rolling window, 200
/// simulated seconds per second so sessions churn instead of piling up.
pub fn engine_config(seed: u64) -> ExperimentConfig {
    ExperimentConfig::paper_defaults(1.0, SystemSpec::dac(PolicySpec::wd_dh_default(), 2))
        .with_warmup_secs(0.0)
        .with_measure_secs(3_600.0)
        .with_seed(seed)
}

fn serve_setup(
    kind: Kind,
    seed: u64,
    telemetry: Option<PathBuf>,
) -> (ExperimentConfig, ServeOptions) {
    let config = engine_config(seed);
    let overload = match kind {
        Kind::Overload => OverloadOptions {
            admit_spin: OVERLOAD_SPIN,
            ..OverloadOptions::default().with_queue_limit(OVERLOAD_QUEUE_LIMIT)
        },
        _ => OverloadOptions::default(),
    };
    let options = ServeOptions {
        speed: 200.0,
        window_secs: Some(300.0),
        overload,
        telemetry,
        ..ServeOptions::default()
    };
    (config, options)
}

/// Where a running daemon listens.
#[derive(Debug, Clone)]
pub enum Addr {
    Tcp(SocketAddr),
    Unix(PathBuf),
}

/// A client connection of either transport.
pub enum Stream {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Stream {
    pub fn connect(addr: &Addr) -> io::Result<Stream> {
        Ok(match addr {
            Addr::Tcp(a) => {
                let s = TcpStream::connect(a)?;
                s.set_nodelay(true)?;
                Stream::Tcp(s)
            }
            Addr::Unix(p) => Stream::Unix(UnixStream::connect(p)?),
        })
    }

    /// Closes both directions, so the peer's reader sees end of file.
    pub fn shutdown(&self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.shutdown(std::net::Shutdown::Both),
            Stream::Unix(s) => s.shutdown(std::net::Shutdown::Both),
        }
    }

    pub fn try_clone(&self) -> io::Result<Stream> {
        Ok(match self {
            Stream::Tcp(s) => Stream::Tcp(s.try_clone()?),
            Stream::Unix(s) => Stream::Unix(s.try_clone()?),
        })
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            Stream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

static SOCKET_SERIAL: AtomicU64 = AtomicU64::new(0);

/// A fresh Unix socket path under the scratch directory.
pub fn unix_socket_path() -> io::Result<PathBuf> {
    let dir = scratch_dir();
    std::fs::create_dir_all(&dir)?;
    let serial = SOCKET_SERIAL.fetch_add(1, Ordering::Relaxed);
    let path = dir.join(format!("{}-{serial}.sock", std::process::id()));
    if path.as_os_str().len() > 100 {
        return Err(io::Error::other(format!(
            "Unix socket path {} is too long; run from a shorter directory",
            path.display()
        )));
    }
    Ok(path)
}

/// A daemon serving on its own thread.
pub struct Server {
    pub addr: Addr,
    flag: ShutdownFlag,
    handle: JoinHandle<io::Result<ServeReport>>,
}

impl Server {
    pub fn start(kind: Kind, seed: u64, telemetry: Option<PathBuf>) -> io::Result<Server> {
        let endpoint = match kind {
            Kind::Saturation => Endpoint::Unix(unix_socket_path()?),
            Kind::TcpRr | Kind::Overload => Endpoint::Tcp("127.0.0.1:0".into()),
        };
        let bound = BoundServer::bind(&endpoint)?;
        let addr = match (&endpoint, bound.tcp_addr()) {
            (_, Some(a)) => Addr::Tcp(a),
            (Endpoint::Unix(p), None) => Addr::Unix(p.clone()),
            (Endpoint::Tcp(_), None) => {
                return Err(io::Error::other("bound TCP server has no address"))
            }
        };
        let (config, options) = serve_setup(kind, seed, telemetry);
        let flag = ShutdownFlag::new();
        let run_flag = flag.clone();
        let handle = std::thread::spawn(move || {
            let topo = topologies::mci();
            bound.run(&topo, &config, &options, run_flag)
        });
        Ok(Server { addr, flag, handle })
    }

    /// Graceful wire `shutdown`, then the final report.
    pub fn stop(self) -> io::Result<ServeReport> {
        let asked = Stream::connect(&self.addr).and_then(|mut c| {
            c.write_all(b"{\"op\":\"shutdown\"}\n")?;
            let mut ack = String::new();
            BufReader::new(c).read_line(&mut ack)
        });
        if asked.is_err() {
            self.flag.request();
        }
        self.handle
            .join()
            .map_err(|_| io::Error::other("the server thread panicked"))?
    }
}

/// What a reply line is, from a byte scan: no allocation, no JSON parse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplyKind {
    Decision,
    Overloaded,
    Other,
}

/// The fields the clients need of one reply line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reply {
    pub kind: ReplyKind,
    /// Token tag byte and sequence number, when the line carries one of ours.
    pub token: Option<(u8, u64)>,
    pub admitted: bool,
    /// The server's own queue-admission-to-verdict time.
    pub inside_us: Option<u64>,
}

fn after<'a>(line: &'a [u8], key: &[u8]) -> Option<&'a [u8]> {
    line.windows(key.len())
        .position(|w| w == key)
        .map(|i| &line[i + key.len()..])
}

fn leading_number(bytes: &[u8]) -> Option<u64> {
    let digits = bytes.iter().take_while(|b| b.is_ascii_digit()).count();
    std::str::from_utf8(&bytes[..digits]).ok()?.parse().ok()
}

pub fn scan_reply(line: &[u8]) -> Reply {
    let kind = if line.starts_with(b"{\"op\":\"decision\"") {
        ReplyKind::Decision
    } else if line.starts_with(b"{\"op\":\"overloaded\"") {
        ReplyKind::Overloaded
    } else {
        ReplyKind::Other
    };
    let token =
        after(line, b"\"token\":\"").and_then(|t| Some((*t.first()?, leading_number(&t[1..])?)));
    Reply {
        kind,
        token,
        admitted: after(line, b"\"admitted\":").is_some_and(|v| v.starts_with(b"true")),
        inside_us: after(line, b"\"latency_us\":").and_then(leading_number),
    }
}

/// Seeded admit lines: sources uniform over MCI's nine, holding times
/// exponential with mean 6 simulated seconds, a unique token each.
pub struct AdmitLines {
    rng: SimRng,
    line: Vec<u8>,
}

const MCI_SOURCES: usize = 9;
const MEAN_HOLDING_SECS: f64 = 6.0;

impl AdmitLines {
    pub fn new(seed: u64, stream: u64) -> Self {
        AdmitLines {
            rng: SimRng::substream(seed, stream),
            line: Vec::with_capacity(128),
        }
    }

    /// The next admit line, newline included, carrying token `<tag><seq>`.
    pub fn next(&mut self, tag: u8, seq: u64) -> &[u8] {
        let source = self.rng.below(MCI_SOURCES);
        let holding = self.rng.exp(MEAN_HOLDING_SECS).max(1e-6);
        self.line.clear();
        writeln!(
            self.line,
            "{{\"op\":\"admit\",\"source\":{source},\"group\":0,\"demand_bps\":64000,\
             \"holding_secs\":{holding:.6},\"token\":\"{}{seq}\"}}",
            tag as char
        )
        .expect("writing to a Vec cannot fail");
        &self.line
    }
}

/// What one client tallied.
#[derive(Debug, Default)]
pub struct Tally {
    pub verdicts: Verdicts,
    /// Verdicts received before the window closed (goodput's numerator).
    pub in_window: u64,
    pub admitted: u64,
    pub refused: u64,
    /// Lines that were neither a verdict nor a refusal for one of our
    /// admits, admits answered twice or never: protocol failures.
    pub failures: u64,
    pub inside_us: Vec<u32>,
    pub max_late_ns: u64,
    pub late: u64,
    /// Open loop only: the worst lateness of a send in the calm first phase.
    pub calm_max_late_ns: u64,
    /// Closed loop only: per equal slice of the window, the on-time
    /// verdicts received in it and the sum of their latencies in ns.
    pub slices: Vec<(u64, u64)>,
}

impl Tally {
    fn absorb(&mut self, other: Tally) {
        self.verdicts.absorb(other.verdicts);
        self.in_window += other.in_window;
        self.admitted += other.admitted;
        self.refused += other.refused;
        self.failures += other.failures;
        self.inside_us.extend(other.inside_us);
        self.max_late_ns = self.max_late_ns.max(other.max_late_ns);
        self.late += other.late;
        self.calm_max_late_ns = self.calm_max_late_ns.max(other.calm_max_late_ns);
        if self.slices.len() < other.slices.len() {
            self.slices.resize(other.slices.len(), (0, 0));
        }
        for (mine, theirs) in self.slices.iter_mut().zip(other.slices) {
            mine.0 += theirs.0;
            mine.1 += theirs.1;
        }
    }

    /// Goodput in verdicts/s and mean latency in ms over the best quarter
    /// of the window: the slices with the most verdicts. On a shared box
    /// interference only ever slows the daemon (over twelve runs the whole
    /// window's mean spread 7 %, its best quarter 3 %), so the undisturbed
    /// capacity is read where it was least disturbed. Adjacent slices are
    /// first merged until one holds `SLICE_VERDICTS` on average, so that a
    /// slice's count means throughput and not luck; a slow workload ends
    /// up with the whole window as its one slice. `None` when the client
    /// kept no slices: the open loop, whose load is not stationary.
    pub fn best_quarter(&self, window_secs: f64) -> Option<(f64, f64)> {
        let total: u64 = self.slices.iter().map(|s| s.0).sum();
        if total == 0 {
            return None;
        }
        let merged = (total / SLICE_VERDICTS).clamp(1, self.slices.len() as u64) as usize;
        let per_merged = self.slices.len().div_ceil(merged);
        let mut slices: Vec<(u64, u64, usize)> = self
            .slices
            .chunks(per_merged)
            .map(|c| {
                let verdicts = c.iter().map(|s| s.0).sum();
                let latency_ns = c.iter().map(|s| s.1).sum();
                (verdicts, latency_ns, c.len())
            })
            .collect();
        // Rank by rate, not count: the last merged slice may be shorter.
        slices.sort_unstable_by(|a, b| (b.0 * a.2 as u64).cmp(&(a.0 * b.2 as u64)));
        slices.truncate(slices.len().div_ceil(4));
        let verdicts: u64 = slices.iter().map(|s| s.0).sum();
        let latency_ns: u64 = slices.iter().map(|s| s.1).sum();
        let spanned: usize = slices.iter().map(|s| s.2).sum();
        let secs = window_secs * spanned as f64 / self.slices.len() as f64;
        Some((
            verdicts as f64 / secs,
            latency_ns as f64 / verdicts as f64 / 1e6,
        ))
    }

    /// `slice` is the window slice the reply arrived in, if it arrived
    /// before the window closed.
    fn record(
        &mut self,
        reply: &Reply,
        latency: Duration,
        slice: Option<usize>,
        keep_samples: bool,
    ) {
        match reply.kind {
            ReplyKind::Decision => {
                if latency.as_secs_f64() * 1e3 <= DEADLINE_MS {
                    let ns = latency.as_nanos().min(u128::from(u32::MAX)) as u32;
                    self.verdicts.note_on_time(ns, keep_samples);
                    if let Some(i) = slice {
                        self.in_window += 1;
                        if let Some(s) = self.slices.get_mut(i) {
                            s.0 += 1;
                            s.1 += u64::from(ns);
                        }
                    }
                }
                self.admitted += u64::from(reply.admitted);
                if let (true, Some(us)) = (keep_samples, reply.inside_us) {
                    self.inside_us.push(us.min(u64::from(u32::MAX)) as u32);
                }
            }
            ReplyKind::Overloaded => self.refused += 1,
            ReplyKind::Other => self.failures += 1,
        }
    }
}

/// When a closed-loop client stops sending.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    AfterSent(u64),
    /// Send from the first instant until the second.
    Window(Instant, Instant),
}

/// Slices a closed-loop window is cut into for the median.
const SLICES: usize = 50;
/// Verdicts a slice should hold before its count is compared with another's.
const SLICE_VERDICTS: u64 = 2_000;

/// A closed-loop client on one connection: keeps `depth` admits
/// outstanding, refills the slots freed by every reply it has already
/// received with one write, stops sending on `stop` and then collects
/// what is still outstanding. Refilling per batch and not per reply keeps
/// the client mostly blocked, so it does not compete with the daemon's
/// two threads for the box's cores.
pub fn closed_loop(
    stream: &Stream,
    depth: usize,
    tag: u8,
    stop: Stop,
    lines: &mut AdmitLines,
    keep_samples: bool,
) -> io::Result<Tally> {
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut tally = Tally::default();
    if let Stop::Window(..) = stop {
        tally.slices = vec![(0, 0); SLICES];
    }
    // Send instants by sequence number; a slot is `None` once answered.
    let mut sent_at: Vec<Option<Instant>> = vec![None; depth.next_power_of_two() * 2];
    let mask = sent_at.len() as u64 - 1;
    let mut sent = 0u64;
    let mut answered = 0u64;
    let mut line = Vec::with_capacity(256);
    let mut batch = Vec::with_capacity(depth * 128);
    let mut stopped = false;
    loop {
        batch.clear();
        let now = Instant::now();
        while !stopped && sent - answered < depth as u64 {
            stopped = match stop {
                Stop::AfterSent(n) => sent >= n,
                Stop::Window(_, end) => now >= end,
            };
            if !stopped {
                batch.extend_from_slice(lines.next(tag, sent));
                sent_at[(sent & mask) as usize] = Some(now);
                sent += 1;
            }
        }
        writer.write_all(&batch)?;
        if answered == sent {
            break;
        }
        // Block for one reply, then take every reply already buffered.
        loop {
            line.clear();
            if reader.read_until(b'\n', &mut line)? == 0 {
                return Err(io::Error::other("the daemon closed the connection mid-run"));
            }
            let now = Instant::now();
            let reply = scan_reply(&line);
            let slot = match reply.token {
                Some((t, seq)) if t == tag && seq < sent => sent_at[(seq & mask) as usize].take(),
                _ => None,
            };
            let slice = match stop {
                Stop::Window(start, end) if now < end => {
                    let share = (now - start).as_secs_f64() / (end - start).as_secs_f64();
                    Some(((share * SLICES as f64) as usize).min(SLICES - 1))
                }
                _ => None,
            };
            match slot {
                Some(at) => tally.record(&reply, now - at, slice, keep_samples),
                None => tally.failures += 1, // not ours, or answered twice
            }
            answered += 1;
            if !reader.buffer().contains(&b'\n') {
                break;
            }
        }
    }
    tally.verdicts.sent = sent;
    Ok(tally)
}

/// The open-loop schedule.
pub struct Schedule {
    /// Due instants in ns from the window's start.
    pub due_ns: Vec<u64>,
    /// How many of them belong to the calm first phase.
    pub calm: usize,
}

pub fn flash_crowd_schedule(window_secs: f64) -> Schedule {
    let capacity = 1.0 / OVERLOAD_SPIN.as_secs_f64();
    let mut due_ns = Vec::new();
    let mut calm = 0;
    let mut phase_start = 0.0;
    for (share, load) in OVERLOAD_PHASES {
        let span = window_secs * share;
        let rate = capacity * load;
        let count = (span * rate).round() as u64;
        due_ns.extend((0..count).map(|i| ((phase_start + i as f64 / rate) * 1e9) as u64));
        if phase_start == 0.0 {
            calm = due_ns.len();
        }
        phase_start += span;
    }
    Schedule { due_ns, calm }
}

/// The open-loop generator: one pacing sender on an absolute schedule
/// alternating over the connections, one blocking reader per connection,
/// latency timed from each request's due instant. Stops `server` after a
/// fixed drain, which is also what ends the readers.
fn open_loop(
    streams: &[Stream],
    schedule: &Schedule,
    seed: u64,
    keep_samples: bool,
    server: Server,
) -> io::Result<(Tally, ServeReport)> {
    let conns = streams.len();
    let due_ns = &schedule.due_ns[..];
    let origin = Instant::now() + Duration::from_millis(5);
    std::thread::scope(|scope| {
        let readers: Vec<_> = streams
            .iter()
            .enumerate()
            .map(|(c, stream)| {
                scope.spawn(move || -> io::Result<Tally> {
                    let mut reader = BufReader::new(stream.try_clone()?);
                    let mut tally = Tally::default();
                    // This connection carries every `conns`-th request.
                    let mut replies = vec![0u8; due_ns.len().saturating_sub(c).div_ceil(conns)];
                    let mut line = Vec::with_capacity(256);
                    loop {
                        line.clear();
                        if reader.read_until(b'\n', &mut line)? == 0 {
                            break; // the daemon shut down
                        }
                        let now = Instant::now();
                        let reply = scan_reply(&line);
                        match reply.token {
                            Some((b'm', seq))
                                if (seq as usize) < due_ns.len() && seq as usize % conns == c =>
                            {
                                let due = origin + Duration::from_nanos(due_ns[seq as usize]);
                                tally.record(
                                    &reply,
                                    now.saturating_duration_since(due),
                                    Some(0),
                                    keep_samples,
                                );
                                let n = &mut replies[seq as usize / conns];
                                *n = n.saturating_add(1);
                            }
                            _ => tally.failures += 1,
                        }
                    }
                    // Exactly one reply line per admit sent.
                    tally.failures += replies.iter().filter(|&&n| n != 1).count() as u64;
                    Ok(tally)
                })
            })
            .collect();

        let send = || -> io::Result<Tally> {
            let mut writers = streams
                .iter()
                .map(Stream::try_clone)
                .collect::<io::Result<Vec<_>>>()?;
            let mut lines = AdmitLines::new(seed, 0);
            let mut sender = Tally::default();
            for (seq, due) in due_ns.iter().enumerate() {
                let due = origin + Duration::from_nanos(*due);
                let wait = due.saturating_duration_since(Instant::now());
                if !wait.is_zero() {
                    std::thread::sleep(wait);
                }
                let late = Instant::now().saturating_duration_since(due).as_nanos() as u64;
                sender.max_late_ns = sender.max_late_ns.max(late);
                sender.late += u64::from(late > LATE_NS);
                if seq < schedule.calm {
                    sender.calm_max_late_ns = sender.calm_max_late_ns.max(late);
                }
                writers[seq % conns].write_all(lines.next(b'm', seq as u64))?;
            }
            sender.verdicts.sent = due_ns.len() as u64;
            std::thread::sleep(DRAIN);
            Ok(sender)
        };
        let sent = send();
        // Stop the daemon whatever happened, or the readers never end.
        let report = server.stop();
        let mut total = sent?;
        for r in readers {
            total.absorb(
                r.join()
                    .map_err(|_| io::Error::other("a reader thread panicked"))??,
            );
        }
        Ok((total, report?))
    })
}

/// A daemon that is bound, connected and warm.
pub struct Ready {
    pub server: Server,
    pub streams: Vec<Stream>,
    /// Bind → connections open → warm-up admits all answered.
    pub setup_s: f64,
    pub warmup_sent: u64,
}

pub fn set_up(kind: Kind, seed: u64, telemetry: Option<PathBuf>) -> io::Result<Ready> {
    let t = Instant::now();
    let server = Server::start(kind, seed, telemetry)?;
    let streams = (0..kind.connections())
        .map(|_| Stream::connect(&server.addr))
        .collect::<io::Result<Vec<_>>>()?;
    let warm = clients(
        &streams,
        kind.depth(),
        b'A',
        Stop::AfterSent(kind.warmup_admits()),
        seed,
        100,
        false,
    )?;
    if warm.failures + warm.refused > 0 {
        return Err(io::Error::other(format!(
            "warm-up saw {} protocol failures and {} refusals",
            warm.failures, warm.refused
        )));
    }
    Ok(Ready {
        server,
        streams,
        setup_s: t.elapsed().as_secs_f64(),
        warmup_sent: warm.verdicts.sent,
    })
}

/// One closed-loop client thread per connection; tokens are tagged per
/// connection so they stay unique across the daemon.
fn clients(
    streams: &[Stream],
    depth: usize,
    first_tag: u8,
    stop: Stop,
    seed: u64,
    substream: u64,
    keep_samples: bool,
) -> io::Result<Tally> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter()
            .enumerate()
            .map(|(c, stream)| {
                scope.spawn(move || {
                    let mut lines = AdmitLines::new(seed, substream + c as u64);
                    closed_loop(
                        stream,
                        depth,
                        first_tag + c as u8,
                        stop,
                        &mut lines,
                        keep_samples,
                    )
                })
            })
            .collect();
        let mut total = Tally::default();
        for h in handles {
            total.absorb(
                h.join()
                    .map_err(|_| io::Error::other("a client thread panicked"))??,
            );
        }
        Ok(total)
    })
}

/// The measured phase of one workload against a warm daemon, then a
/// graceful stop. Returns the clients' tally, the daemon's report and the
/// window length in seconds.
pub fn measure(
    kind: Kind,
    ready: Ready,
    seed: u64,
    seconds: f64,
    keep_samples: bool,
) -> io::Result<(Tally, ServeReport)> {
    let Ready {
        server, streams, ..
    } = ready;
    match kind {
        Kind::Saturation | Kind::TcpRr => {
            let start = Instant::now();
            let stop = Stop::Window(start, start + Duration::from_secs_f64(seconds));
            let tally = clients(&streams, kind.depth(), b'a', stop, seed, 0, keep_samples);
            let report = server.stop();
            Ok((tally?, report?))
        }
        Kind::Overload => open_loop(
            &streams,
            &flash_crowd_schedule(seconds),
            seed,
            keep_samples,
            server,
        ),
    }
}

/// The gates every measured daemon episode must pass.
pub fn check_episode(
    out: &mut Outcome,
    kind: Kind,
    tally: &Tally,
    warmup_sent: u64,
    report: &ServeReport,
) {
    let c = &report.counters;
    out.gate(tally.failures == 0, || {
        format!(
            "{} admits were not answered by exactly one well-formed reply",
            tally.failures
        )
    });
    out.gate(
        c.admits_received == report.submitted + c.duplicates + c.shed + c.rejected_shutdown,
        || {
            format!(
                "daemon accounting does not balance: {c:?} submitted={}",
                report.submitted
            )
        },
    );
    out.gate(
        c.admits_received == warmup_sent + tally.verdicts.sent,
        || {
            format!(
                "daemon received {} admits, clients sent {}",
                c.admits_received,
                warmup_sent + tally.verdicts.sent
            )
        },
    );
    out.gate(c.shed == tally.refused, || {
        format!(
            "daemon shed {} admits, clients saw {} refusals",
            c.shed, tally.refused
        )
    });
    out.gate(c.wire_errors == 0, || {
        format!("{} wire errors", c.wire_errors)
    });
    let m = &report.metrics;
    out.gate(
        m.leaked_bandwidth_bps == 0 && m.leaked_hold_bps == 0,
        || {
            format!(
                "leaked {} bps reserved, {} bps held",
                m.leaked_bandwidth_bps, m.leaked_hold_bps
            )
        },
    );
    if kind != Kind::Overload {
        out.gate(tally.refused == 0, || {
            format!(
                "{} `overloaded` replies on a workload below capacity",
                tally.refused
            )
        });
        out.gate(tally.verdicts.on_time == tally.verdicts.sent, || {
            format!(
                "{} admits below capacity got no verdict in time",
                tally.verdicts.sent - tally.verdicts.on_time
            )
        });
    } else {
        out.gate(tally.calm_max_late_ns <= CALM_STALL_LIMIT_NS, || {
            format!(
                "the open-loop generator stalled {:.0} ms in the calm phase: a different load was offered",
                tally.calm_max_late_ns as f64 / 1e6
            )
        });
    }
}

/// How many set-ups one run times; the first one carries the measured phase.
const SETUPS_PER_RUN: usize = 5;

/// End to end, tracing off. The measured episode goes first and the peak
/// resident set is read right after it, so the extra set-ups that only
/// exist to time set-up leave no mark on it.
pub fn run_e2e(kind: Kind, seed: u64, seconds: f64) -> io::Result<Outcome> {
    let mut out = Outcome::default();
    let ready = set_up(kind, seed, None)?;
    let mut setups = vec![ready.setup_s];
    let warmup_sent = ready.warmup_sent;
    let (tally, report) = measure(kind, ready, seed, seconds, false)?;
    out.set("peak_rss_mb", peak_rss_mb());
    for _ in 1..SETUPS_PER_RUN {
        let ready = set_up(kind, seed, None)?;
        setups.push(ready.setup_s);
        drop(ready.streams);
        ready.server.stop()?;
    }
    check_episode(&mut out, kind, &tally, warmup_sent, &report);
    out.attempted = tally.verdicts.sent;
    out.failed = tally.failures + out.gate_failures.len() as u64;
    let (goodput, latency) = tally.best_quarter(seconds).unwrap_or((
        tally.in_window as f64 / seconds,
        tally.verdicts.censored_mean_ms(DEADLINE_MS),
    ));
    out.set("goodput_rps", goodput);
    out.set("latency_mean_ms", latency);
    out.set("setup_s", median(&setups));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use anycast_dac::experiment::Decision;
    use anycast_daemon::wire::{decision_response, parse_request, Request};

    #[test]
    fn scan_reads_what_the_daemon_renders() {
        let d = Decision {
            request: 9,
            at_secs: 1.5,
            admitted: true,
            member_index: Some(2),
            session: None,
            tries: 1,
        };
        let line = decision_response(&d, 1234, Some("a77"));
        let r = scan_reply(line.as_bytes());
        assert_eq!(r.kind, ReplyKind::Decision);
        assert_eq!(r.token, Some((b'a', 77)));
        assert!(r.admitted);
        assert_eq!(r.inside_us, Some(1234));
        let refused =
            scan_reply(br#"{"op":"overloaded","token":"m5","queue_depth":3,"shedding":true}"#);
        assert_eq!(
            (refused.kind, refused.token),
            (ReplyKind::Overloaded, Some((b'm', 5)))
        );
        assert_eq!(
            scan_reply(br#"{"op":"error","reason":"parse"}"#).kind,
            ReplyKind::Other
        );
        assert_eq!(scan_reply(b"").token, None);
    }

    #[test]
    fn admit_lines_parse_and_repeat_for_a_seed() {
        let mut a = AdmitLines::new(5, 0);
        let mut b = AdmitLines::new(5, 0);
        let mut other = AdmitLines::new(6, 0);
        for seq in 0..50 {
            let line = a.next(b'm', seq).to_vec();
            assert_eq!(line, b.next(b'm', seq));
            assert_ne!(line, other.next(b'm', seq));
            let text = std::str::from_utf8(&line).unwrap();
            assert!(text.ends_with('\n'));
            match parse_request(text).unwrap() {
                Request::Admit {
                    source_index,
                    holding_secs,
                    token,
                    ..
                } => {
                    assert!(source_index < MCI_SOURCES && holding_secs > 0.0);
                    assert_eq!(token.as_deref(), Some(format!("m{seq}").as_str()));
                }
                other => panic!("not an admit: {other:?}"),
            }
        }
    }

    #[test]
    fn best_quarter_reads_the_busiest_slices_and_merges_thin_ones() {
        // Eight slices of a 8 s window, 1 ms per verdict; two were disturbed.
        let busy = |n: u64| (n, n * 1_000_000);
        let t = Tally {
            slices: [4000, 4000, 1000, 4000, 4400, 500, 4000, 4200]
                .map(busy)
                .to_vec(),
            ..Tally::default()
        };
        // Best quarter = the two busiest one-second slices.
        let (rps, ms) = t.best_quarter(8.0).unwrap();
        assert_eq!(rps, 4300.0);
        assert!((ms - 1.0).abs() < 1e-12);
        // Ten verdicts a slice: counts are luck, the whole window is the slice.
        let thin = Tally {
            slices: [9, 11, 10, 12, 8, 10, 10, 10].map(busy).to_vec(),
            ..Tally::default()
        };
        assert_eq!(thin.best_quarter(8.0).unwrap().0, 10.0);
        // The open loop keeps no slices.
        assert!(Tally::default().best_quarter(8.0).is_none());
    }

    #[test]
    fn flash_crowd_offers_half_then_double_then_half_of_capacity() {
        let Schedule { due_ns: due, calm } = flash_crowd_schedule(10.0);
        // 4 s at 1000/s, 3 s at 4000/s, 3 s at 1000/s.
        assert_eq!(due.len(), 4_000 + 12_000 + 3_000);
        assert_eq!(calm, 4_000);
        assert!(due.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(due[0], 0);
        assert_eq!(due[4_000], 4_000_000_000);
        assert_eq!(due[4_001] - due[4_000], 250_000);
        assert!(*due.last().unwrap() < 10_000_000_000);
    }

    #[test]
    fn a_smoke_episode_of_each_workload_passes_its_gates() {
        for kind in [Kind::Saturation, Kind::TcpRr, Kind::Overload] {
            let ready = set_up(kind, 3, None).unwrap();
            assert!(ready.setup_s > 0.0);
            let warmup_sent = ready.warmup_sent;
            let (tally, report) = measure(kind, ready, 3, 0.5, true).unwrap();
            let mut out = Outcome::default();
            check_episode(&mut out, kind, &tally, warmup_sent, &report);
            assert!(out.correct(), "{kind:?}: {:?}", out.gate_failures);
            assert!(tally.verdicts.sent > 0 && tally.verdicts.on_time > 0);
            assert_eq!(
                tally.verdicts.samples_ns.len() as u64,
                tally.verdicts.on_time
            );
            assert!(!tally.inside_us.is_empty());
        }
    }
}
