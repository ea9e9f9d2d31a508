//! The two offline workloads: `run_experiment` on MCI and on a fat-tree,
//! end to end, and the same inputs replayed through each layer's public
//! functions for the cost budget.

use crate::report::{peak_rss_mb, Outcome};
use crate::spans::Tracer;
use crate::stats::{median, ns_per_call};
use anycast_bench::json::{parse, JsonValue};
use anycast_dac::baselines::{GlobalDynamicSystem, ShortestPathSystem};
use anycast_dac::experiment::{
    run_experiment, run_experiment_traced, ExperimentConfig, Metrics, SystemSpec,
};
use anycast_dac::online::{record_arrivals, OnlineArrival, OnlineEngine};
use anycast_dac::policy::{PolicySpec, SelectionContext};
use anycast_dac::AdmissionController;
use anycast_net::routing::{bfs_tree, shortest_path};
use anycast_net::{topologies, AnycastGroup, Bandwidth, LinkStateTable, NodeId, Path, Topology};
use anycast_rsvp::{ReservationEngine, SessionId};
use anycast_sim::{Engine, SimRng, SimTime};
use anycast_telemetry::{NullRecorder, RingRecorder};
use std::hint::black_box;
use std::time::Instant;

/// How much work a run does: the declared sizes, or seconds-sized ones for
/// the unit tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

/// Group members and source routers.
type Placement = (Vec<NodeId>, Vec<NodeId>);

/// One offline workload: a topology, placements, a load and the systems
/// run back to back.
pub struct Scenario {
    pub name: &'static str,
    build_topology: fn(Scale) -> Topology,
    /// `None` keeps the paper's MCI placement.
    placement: fn(Scale) -> Option<Placement>,
    lambda: f64,
    /// `(warm-up, measure)` simulated seconds.
    horizon: fn(Scale) -> (f64, f64),
    /// In run order.
    systems: &'static [SystemKey],
}

/// The five Fig. 6 systems; `<A,2>` for the three DAC variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SystemKey {
    Ed2,
    WdDh2,
    WdDb2,
    Sp,
    Gdi,
}

impl SystemKey {
    fn spec(self) -> SystemSpec {
        match self {
            SystemKey::Ed2 => SystemSpec::dac(PolicySpec::Ed, 2),
            SystemKey::WdDh2 => SystemSpec::dac(PolicySpec::wd_dh_default(), 2),
            SystemKey::WdDb2 => SystemSpec::dac(PolicySpec::WdDb, 2),
            SystemKey::Sp => SystemSpec::ShortestPath,
            SystemKey::Gdi => SystemSpec::GlobalDynamic,
        }
    }
}

const FAT_TREE_K: usize = 34;
const FAT_TREE_SMOKE_K: usize = 4;

fn fat_tree_k(scale: Scale) -> usize {
    match scale {
        Scale::Full => FAT_TREE_K,
        Scale::Smoke => FAT_TREE_SMOKE_K,
    }
}

/// `count` evenly spaced entries of `pool`.
fn spread(pool: &[NodeId], count: usize) -> Vec<NodeId> {
    (0..count).map(|i| pool[i * pool.len() / count]).collect()
}

/// Paper §5.1 on MCI at λ = 35: the five systems of Fig. 6. The measured
/// span is 5 400 s rather than the paper's 36 000 s so that several whole
/// five-system cycles fit one run; per-request cost does not depend on it.
pub const OFFLINE_MCI: Scenario = Scenario {
    name: "offline_mci",
    build_topology: |_| topologies::mci(),
    placement: |_| None,
    lambda: 35.0,
    horizon: |scale| match scale {
        Scale::Full => (1_800.0, 5_400.0),
        Scale::Smoke => (30.0, 60.0),
    },
    systems: &[
        SystemKey::Ed2,
        SystemKey::WdDh2,
        SystemKey::WdDb2,
        SystemKey::Sp,
        SystemKey::Gdi,
    ],
};

/// `fat_tree(34)`: 11 271 nodes, 29 478 links, 16 members and 64 sources
/// spread evenly over the hosts, λ = 40.
pub const OFFLINE_FATTREE: Scenario = Scenario {
    name: "offline_fattree",
    build_topology: |scale| topologies::fat_tree(fat_tree_k(scale), Bandwidth::from_mbps(100)),
    placement: |scale| {
        let hosts = topologies::fat_tree_hosts(fat_tree_k(scale));
        let (k_members, k_sources) = match scale {
            Scale::Full => (16, 64),
            Scale::Smoke => (4, 8),
        };
        let members = spread(&hosts, k_members);
        let pool: Vec<NodeId> = hosts.into_iter().filter(|h| !members.contains(h)).collect();
        let sources = spread(&pool, k_sources);
        Some((members, sources))
    },
    lambda: 40.0,
    horizon: |scale| match scale {
        Scale::Full => (300.0, 2_400.0),
        Scale::Smoke => (30.0, 60.0),
    },
    systems: &[SystemKey::WdDh2, SystemKey::WdDb2],
};

impl Scenario {
    fn configs(&self, seed: u64, scale: Scale) -> Vec<(SystemKey, ExperimentConfig)> {
        let (warmup, measure) = (self.horizon)(scale);
        let placement = (self.placement)(scale);
        self.systems
            .iter()
            .map(|&system| {
                let mut c = ExperimentConfig::paper_defaults(self.lambda, system.spec())
                    .with_warmup_secs(warmup)
                    .with_measure_secs(measure)
                    .with_seed(seed);
                if let Some((members, sources)) = &placement {
                    c = c.with_group(members.clone()).with_sources(sources.clone());
                }
                (system, c)
            })
            .collect()
    }
}

/// FNV-1a over the fields of a run's `Metrics` that any behaviour change
/// moves; a speed-only change must leave it identical. Named fields, not
/// the `Debug` rendering, so a new `Metrics` field does not move it.
pub fn digest(all: &[Metrics]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for b in bytes {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for m in all {
        eat(m.label.as_bytes());
        for x in [
            m.offered,
            m.admitted,
            m.leaked_bandwidth_bps,
            m.leaked_hold_bps,
        ] {
            eat(&x.to_le_bytes());
        }
        for x in [
            m.admission_probability,
            m.mean_tries,
            m.messages_per_request,
            m.mean_active_flows,
            m.mean_network_utilization,
        ] {
            eat(&x.to_bits().to_le_bytes());
        }
        for t in &m.tries_histogram {
            eat(&t.to_le_bytes());
        }
    }
    h
}

/// The digest pinned for `workload` at `seed`, if `expected.json` has one.
pub fn pinned_digest(expected_json: &str, workload: &str, seed: u64) -> Option<u64> {
    let JsonValue::Obj(top) = parse(expected_json).ok()? else {
        return None;
    };
    let JsonValue::Obj(by_seed) = &top.iter().find(|(k, _)| k == workload)?.1 else {
        return None;
    };
    match &by_seed.iter().find(|(k, _)| *k == seed.to_string())?.1 {
        JsonValue::Str(hex) => u64::from_str_radix(hex, 16).ok(),
        _ => None,
    }
}

const EXPECTED: &str = include_str!("expected.json");

/// The invariants every offline run must keep, and the digest pin.
fn check_metrics(out: &mut Outcome, m: &Metrics) {
    let key = &m.label;
    out.gate(m.admitted <= m.offered, || {
        format!(
            "{key}: admitted {} exceeds offered {}",
            m.admitted, m.offered
        )
    });
    // offered = admitted + rejected: every measured request made at least
    // one try and is in the histogram exactly once.
    let counted: u64 = m.tries_histogram.iter().sum();
    out.gate(counted == m.offered, || {
        format!(
            "{key}: tries histogram holds {counted} of {} offered requests",
            m.offered
        )
    });
    let ap = m.admitted as f64 / m.offered.max(1) as f64;
    out.gate((ap - m.admission_probability).abs() < 1e-9, || {
        format!(
            "{key}: AP {} is not admitted/offered {ap}",
            m.admission_probability
        )
    });
    out.gate(
        m.leaked_bandwidth_bps == 0 && m.leaked_hold_bps == 0,
        || {
            format!(
                "{key}: leaked {} bps reserved, {} bps held",
                m.leaked_bandwidth_bps, m.leaked_hold_bps
            )
        },
    );
}

pub fn check_digest(out: &mut Outcome, expected_json: &str, workload: &str, seed: u64, got: u64) {
    if let Some(want) = pinned_digest(expected_json, workload, seed) {
        out.gate(want == got, || {
            format!("{workload}: sim digest {got:016x} differs from the pinned {want:016x} for seed {seed}")
        });
    }
}

/// The workload's set-up as a user pays it: build the topology, then the
/// engine state (`OnlineEngine::new` is the `Sim::new` a run starts with)
/// once per system. Returns seconds.
fn time_setup(sc: &Scenario, configs: &[(SystemKey, ExperimentConfig)], scale: Scale) -> f64 {
    let t = Instant::now();
    let topo = (sc.build_topology)(scale);
    for (_, c) in configs {
        black_box(OnlineEngine::new(&topo, c, NullRecorder));
    }
    t.elapsed().as_secs_f64()
}

/// End to end, tracing off: whole cycles of the workload's systems until
/// `seconds` of measured work are done.
pub fn run_e2e(sc: &Scenario, seed: u64, seconds: f64, scale: Scale) -> Outcome {
    let mut out = Outcome::default();
    let configs = sc.configs(seed, scale);
    let mut setup_s = Vec::new();
    // Per cycle: its wall seconds and the mean ms of its `run_experiment` calls.
    let mut cycles: Vec<(f64, f64)> = Vec::new();
    let mut first: Option<u64> = None;
    let mut measured = 0.0;
    // At least three cycles, so the fastest is a choice among several
    // even where one cycle is most of `seconds` (the fat-tree's 6.6 s).
    while measured < seconds || cycles.len() < 3 {
        // Several set-ups per sample where one is too short to time well.
        let started = Instant::now();
        let mut reps = Vec::new();
        while reps.is_empty() || (started.elapsed().as_secs_f64() < 0.05 && reps.len() < 25) {
            reps.push(time_setup(sc, &configs, scale));
        }
        setup_s.push(median(&reps));

        let cycle = Instant::now();
        let topo = (sc.build_topology)(scale);
        let mut results = Vec::with_capacity(configs.len());
        let mut call_ms = Vec::with_capacity(configs.len());
        for (_, c) in &configs {
            let t = Instant::now();
            results.push(run_experiment(&topo, c));
            call_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        let wall = cycle.elapsed().as_secs_f64();
        measured += wall;
        cycles.push((wall, call_ms.iter().sum::<f64>() / call_ms.len() as f64));

        for m in &results {
            check_metrics(&mut out, m);
        }
        let d = digest(&results);
        match first {
            None => first = Some(d),
            Some(d0) => out.gate(d0 == d, || {
                format!(
                    "{}: cycle digest {d:016x} differs from the first cycle's {d0:016x}",
                    sc.name
                )
            }),
        }
    }
    let first = first.expect("one cycle ran");
    eprintln!("{}: sim digest {first:016x} for seed {seed}", sc.name);
    if scale == Scale::Full {
        check_digest(&mut out, EXPECTED, sc.name, seed, first);
    }
    out.failed = out.gate_failures.len() as u64;
    out.set("peak_rss_mb", peak_rss_mb());

    // The arrival process is drawn from the seed alone, so every system
    // sees the same requests. Counted after the peak is read: the recorded
    // trace is the benchmark's memory, not the engine's.
    let per_cycle = (record_arrivals(&configs[0].1).len() * configs.len()) as u64;
    out.attempted = per_cycle * cycles.len() as u64;
    // The fastest cycle: every cycle does identical work on one thread, so
    // whatever made another one slower was the box and not the program.
    let (wall, call_ms) = cycles
        .iter()
        .min_by(|a, b| a.0.total_cmp(&b.0))
        .expect("one cycle ran");
    out.set("goodput_rps", per_cycle as f64 / wall);
    out.set("latency_mean_ms", *call_ms);
    out.set("setup_s", median(&setup_s));
    out
}

/// The reservation state a replay admits into and departs from.
struct Table {
    links: LinkStateTable,
    rsvp: ReservationEngine,
}

/// Flows leave when the recorded arrival that opened them says so: the
/// departure instants sorted once up front, so the replay needs no event
/// queue of its own and the table's occupancy follows the real run's.
struct Departures {
    /// `(departure time, arrival index)` in time order.
    due: Vec<(f64, u32)>,
    next: usize,
    sessions: Vec<Option<SessionId>>,
}

impl Departures {
    fn of(arrivals: &[OnlineArrival]) -> Self {
        let mut due: Vec<(f64, u32)> = arrivals
            .iter()
            .enumerate()
            .map(|(i, a)| (a.at_secs + a.holding_secs, i as u32))
            .collect();
        due.sort_by(|x, y| x.0.total_cmp(&y.0));
        Departures {
            due,
            next: 0,
            sessions: vec![None; arrivals.len()],
        }
    }

    /// Tears down every admitted flow whose holding time ended by `now`.
    fn release_until(&mut self, now: f64, table: &mut Table) {
        while let Some(&(at, index)) = self.due.get(self.next) {
            if at > now {
                break;
            }
            self.next += 1;
            if let Some(s) = self.sessions[index as usize].take() {
                table
                    .rsvp
                    .teardown(&mut table.links, s)
                    .expect("live sessions tear down");
            }
        }
    }
}

/// Replays `arrivals` in time order: due departures, then `admit`. The
/// first quarter is untimed so the table reaches its working occupancy,
/// then five timed batches; median ns per arrival, departures included.
fn timed_replay(
    arrivals: &[OnlineArrival],
    table: &mut Table,
    mut admit: impl FnMut(&mut Table, &OnlineArrival) -> Option<SessionId>,
) -> f64 {
    let mut departures = Departures::of(arrivals);
    let mut step = |i: usize, table: &mut Table| {
        departures.release_until(arrivals[i].at_secs, table);
        departures.sessions[i] = admit(table, &arrivals[i]);
    };
    let warm = arrivals.len() / 4;
    (0..warm).for_each(|i| step(i, table));
    let per_batch = ((arrivals.len() - warm) / 5).max(1);
    let per_arrival: Vec<f64> = (0..5)
        .map(|b| warm + b * per_batch..(warm + (b + 1) * per_batch).min(arrivals.len()))
        .filter(|batch| !batch.is_empty())
        .map(|batch| {
            let len = batch.len();
            let t = Instant::now();
            batch.for_each(|i| step(i, table));
            t.elapsed().as_nanos() as f64 / len as f64
        })
        .collect();
    median(&per_arrival)
}

/// The inputs of a layer replay: the workload's own topology, routes and
/// recorded arrivals.
struct Replay<'a> {
    topo: &'a Topology,
    config: &'a ExperimentConfig,
    arrivals: &'a [OnlineArrival],
    routes: &'a [Vec<Path>],
    distances: &'a [Vec<u32>],
    seed: u64,
}

impl Replay<'_> {
    fn fresh_table(&self) -> Table {
        Table {
            links: LinkStateTable::with_uniform_fraction(
                self.topo,
                self.config.default_link_capacity,
                self.config.anycast_fraction,
            ),
            rsvp: ReservationEngine::new(),
        }
    }

    /// `admit` + `teardown` per recorded arrival through the system's
    /// public controller, ns per arrival.
    fn admit_ns(&self) -> f64 {
        let mut table = self.fresh_table();
        let mut rng = SimRng::seed_from(self.seed);
        match self.config.system {
            SystemSpec::Dac { policy, retrial } => {
                let mut controllers: Vec<AdmissionController> = self
                    .distances
                    .iter()
                    .map(|d| {
                        AdmissionController::new(
                            policy.build().expect("default policies build"),
                            retrial,
                            d.clone(),
                        )
                    })
                    .collect();
                timed_replay(self.arrivals, &mut table, |t, a| {
                    controllers[a.source_index]
                        .admit(
                            &self.routes[a.source_index],
                            &mut t.links,
                            &mut t.rsvp,
                            a.demand,
                            &mut rng,
                        )
                        .admitted
                        .map(|f| f.session)
                })
            }
            SystemSpec::ShortestPath => {
                let nearest: Vec<ShortestPathSystem> = self
                    .distances
                    .iter()
                    .map(|d| {
                        let best = (0..d.len()).min_by_key(|&i| d[i]).expect("nonempty group");
                        ShortestPathSystem::new(best)
                    })
                    .collect();
                timed_replay(self.arrivals, &mut table, |t, a| {
                    nearest[a.source_index]
                        .admit(
                            &self.routes[a.source_index],
                            &mut t.links,
                            &mut t.rsvp,
                            a.demand,
                        )
                        .admitted
                        .map(|f| f.session)
                })
            }
            SystemSpec::GlobalDynamic => {
                let group = AnycastGroup::new("A", self.config.group_members.iter().copied())
                    .expect("the workload's group is valid");
                let mut gdi = GlobalDynamicSystem::new();
                timed_replay(self.arrivals, &mut table, |t, a| {
                    let source = self.config.sources[a.source_index];
                    gdi.admit(
                        self.topo,
                        &group,
                        source,
                        &mut t.links,
                        &mut t.rsvp,
                        a.demand,
                    )
                    .admitted
                    .map(|f| f.session)
                })
            }
            other => panic!("no replay for {other:?}"),
        }
    }

    /// The DAC procedure put together from the layers' public parts, one
    /// root span per request with `arrival → weights → admit → reserve →
    /// depart` children. Returns ns per request.
    fn spanned(&self, policy: PolicySpec, tracer: &mut Tracer, requests: usize) -> f64 {
        let mut table = self.fresh_table();
        let mut rng = SimRng::seed_from(self.seed);
        let mut departures = Departures::of(self.arrivals);
        let mut assigner = policy.build().expect("default policies build");
        let k = self.distances[0].len();
        let history = vec![0u32; k];
        let mut bandwidth = vec![0.0f64; k];
        let mut untried = vec![true; k];
        // The first quarter goes by unrecorded, as in `timed_replay`.
        let warm = self.arrivals.len() / 4;
        let sample = &self.arrivals[..(warm + requests).min(self.arrivals.len())];
        let mut unrecorded = Tracer::new(0);
        let mut t = Instant::now();
        for (i, a) in sample.iter().enumerate() {
            let tracer = if i < warm {
                &mut unrecorded
            } else {
                &mut *tracer
            };
            if i == warm {
                t = Instant::now();
            }
            let id = i as u64;
            tracer.enter("request", id);

            tracer.enter("depart", id);
            departures.release_until(a.at_secs, &mut table);
            tracer.exit();

            tracer.enter("arrival", id);
            let routes = &self.routes[a.source_index];
            let distances = &self.distances[a.source_index];
            tracer.exit();

            tracer.enter("weights", id);
            for (b, r) in bandwidth.iter_mut().zip(routes) {
                *b = table.links.min_available_on(r).bps() as f64;
            }
            let weights = assigner.assign(&SelectionContext {
                distances,
                history: &history,
                route_bandwidth_bps: &bandwidth,
            });
            tracer.exit();

            tracer.enter("admit", id);
            untried.fill(true);
            for _try in 0..2 {
                let Some(pick) = rng.choose_weighted_masked(&weights, &untried) else {
                    break;
                };
                untried[pick] = false;
                tracer.enter("reserve", id);
                let reserved =
                    table
                        .rsvp
                        .probe_and_reserve(&mut table.links, &routes[pick], a.demand);
                tracer.exit();
                if let Ok(r) = reserved {
                    departures.sessions[i] = Some(r.session);
                    break;
                }
            }
            tracer.exit();

            tracer.exit();
        }
        t.elapsed().as_nanos() as f64 / (sample.len() - warm).max(1) as f64
    }
}

/// The traced pass: every layer the workload enters, measured from outside
/// on the workload's own inputs, plus the residual no outside timer can
/// split. `trace_out` receives the spans.
pub fn run_layers(sc: &Scenario, seed: u64, scale: Scale, trace_out: &std::path::Path) -> Outcome {
    let mut out = Outcome::default();
    let configs = sc.configs(seed, scale);
    let base = &configs[0].1;
    let horizon = base.warmup_secs + base.measure_secs;

    // net: topology build, one BFS per workload source, the link table.
    let mut build_ms = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        black_box((sc.build_topology)(scale));
        build_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    out.set("net.topology_build_ms", median(&build_ms));
    let topo = (sc.build_topology)(scale);
    let sources = &base.sources;
    let members = &base.group_members;
    let bfs_ns = ns_per_call(5, sources.len() as u64, || {
        for s in sources {
            black_box(bfs_tree(&topo, *s));
        }
    });
    out.set("net.bfs_tree_us_per_source", bfs_ns / 1e3);

    let routes: Vec<Vec<Path>> = sources
        .iter()
        .map(|s| {
            members
                .iter()
                .map(|m| {
                    shortest_path(&topo, *s, *m).expect("the workload's topology is connected")
                })
                .collect()
        })
        .collect();
    let distances: Vec<Vec<u32>> = routes
        .iter()
        .map(|rs| rs.iter().map(|r| r.hops() as u32).collect())
        .collect();
    let flat: Vec<&Path> = routes.iter().flatten().collect();
    let demand = base.flow_bandwidth;
    let mut links = LinkStateTable::with_uniform_fraction(
        &topo,
        base.default_link_capacity,
        base.anycast_fraction,
    );
    let sweeps = (200_000 / flat.len()).max(1);
    let per_sweep = (flat.len() * sweeps) as u64;
    let total_reserved_calls = (2_000_000 / topo.link_count()).clamp(20, 20_000) as u64;
    out.set(
        "net.link_state.total_reserved_ns",
        ns_per_call(5, total_reserved_calls, || {
            for _ in 0..total_reserved_calls {
                black_box(black_box(&links).total_reserved());
            }
        }),
    );
    out.set(
        "net.link_state.path_reserve_release_ns",
        ns_per_call(5, per_sweep, || {
            for _ in 0..sweeps {
                for r in &flat {
                    links
                        .reserve_path(r, demand)
                        .expect("an empty table has room");
                    links.release_path(r, demand).expect("just reserved");
                }
            }
        }),
    );
    out.set(
        "net.link_state.min_available_ns",
        ns_per_call(5, per_sweep, || {
            for _ in 0..sweeps {
                for r in &flat {
                    black_box(links.min_available_on(r));
                }
            }
        }),
    );

    // rsvp: the reservation walk and its teardown on the same routes.
    let mut rsvp = ReservationEngine::new();
    out.set(
        "rsvp.reserve_teardown_ns",
        ns_per_call(5, per_sweep, || {
            for _ in 0..sweeps {
                for r in &flat {
                    let o = rsvp
                        .probe_and_reserve(&mut links, r, demand)
                        .expect("an empty table has room");
                    rsvp.teardown(&mut links, o.session).expect("just reserved");
                }
            }
        }),
    );

    // sim: drawing the arrival process, and the bare event queue under the
    // run's own arrival and departure timestamps.
    let mut arrivals = Vec::new();
    let workload_ns = ns_per_call(5, 1, || arrivals = record_arrivals(base));
    let n = arrivals.len() as u64;
    out.set("sim.workload.ns_per_arrival", workload_ns / n as f64);
    out.attempted = n;
    let mut events = 0u64;
    let engine_ns = ns_per_call(5, 1, || {
        let mut engine: Engine<u64> = Engine::new();
        for (i, a) in arrivals.iter().enumerate() {
            engine.schedule_at(SimTime::from_secs(a.at_secs), i as u64);
            engine.schedule_at(SimTime::from_secs(a.at_secs + a.holding_secs), i as u64);
        }
        engine.run_until(SimTime::from_secs(horizon), |_, _, e| {
            black_box(e);
        });
        events = engine.processed();
    });
    let engine_ns_per_event = engine_ns / events.max(1) as f64;
    out.set("sim.engine.ns_per_event", engine_ns_per_event);

    // core: weight assignment at the workload's K.
    let k = members.len();
    let ctx_distances = &distances[0];
    let history = vec![1u32; k];
    let bandwidth = vec![demand.bps() as f64 * 100.0; k];
    for (name, policy) in [
        ("core.weights.ed_ns", PolicySpec::Ed),
        ("core.weights.wddh_ns", PolicySpec::wd_dh_default()),
        ("core.weights.wddb_ns", PolicySpec::WdDb),
    ] {
        let mut assigner = policy.build().expect("default policies build");
        let ctx = SelectionContext {
            distances: ctx_distances,
            history: &history,
            route_bandwidth_bps: &bandwidth,
        };
        out.set(
            name,
            ns_per_call(5, 100_000, || {
                for _ in 0..100_000 {
                    black_box(assigner.assign(black_box(&ctx)));
                }
            }),
        );
    }

    // core: each system end to end inside this pass, its engine set-up,
    // and its controller replayed against a table at the run's occupancy.
    let mut results = Vec::new();
    let mut run_ns_total = 0.0;
    let mut new_ms_total = 0.0;
    let mut admit_ns = Vec::new();
    for (system, config) in &configs {
        let t = Instant::now();
        let m = run_experiment(&topo, config);
        let wall = t.elapsed().as_secs_f64();
        check_metrics(&mut out, &m);
        out.set(run_metric(*system), n as f64 / wall);

        let t = Instant::now();
        black_box(OnlineEngine::new(&topo, config, NullRecorder));
        let new_s = t.elapsed().as_secs_f64();
        new_ms_total += new_s * 1e3;
        run_ns_total += (wall - new_s).max(0.0) * 1e9;

        let replay = Replay {
            topo: &topo,
            config,
            arrivals: &arrivals,
            routes: &routes,
            distances: &distances,
            seed,
        };
        let ns = replay.admit_ns();
        out.set(admit_metric(*system), ns);
        admit_ns.push(ns);
        results.push(m);
    }
    out.set("core.engine_new_ms", new_ms_total / configs.len() as f64);
    let systems = configs.len() as f64;
    let mean_of = |f: fn(&Metrics) -> f64| results.iter().map(f).sum::<f64>() / systems;
    let ap = mean_of(|m| m.admission_probability);
    out.set("core.ap", ap);
    out.set("core.mean_tries", mean_of(|m| m.mean_tries));
    out.set(
        "core.messages_per_request",
        mean_of(|m| m.messages_per_request),
    );
    let d = digest(&results);
    out.set("core.sim_digest48", (d & ((1 << 48) - 1)) as f64);
    if scale == Scale::Full {
        check_digest(&mut out, EXPECTED, sc.name, seed, d);
    }

    // core: the online engine over the same arrivals, as the daemon drives it.
    let (_, wddh_config) = configs
        .iter()
        .find(|(system, _)| *system == SystemKey::WdDh2)
        .expect("every offline workload runs <WD/D+H,2>");
    let mut online = OnlineEngine::new(&topo, wddh_config, NullRecorder);
    let t = Instant::now();
    let mut decided = 0u64;
    for a in &arrivals {
        online.submit(*a);
        decided += online.pump().len() as u64;
    }
    let online_ns = t.elapsed().as_nanos() as f64 / n as f64;
    let (online_metrics, tail, _) = online.finish();
    decided += tail.len() as u64;
    out.gate(decided == n, || {
        format!("online engine decided {decided} of {n} arrivals")
    });
    check_metrics(&mut out, &online_metrics);
    out.set("core.online.ns_per_decision", online_ns);

    // The budget: what the outside-in layer costs add up to per request,
    // and the part of `Sim::handle` only in-program timers can split.
    let per_request = run_ns_total / (n as f64 * systems);
    let admit_mean = admit_ns.iter().sum::<f64>() / systems;
    let aggregates = out.get("net.link_state.total_reserved_ns").unwrap_or(0.0) * 2.0 * ap;
    let accounted =
        workload_ns / n as f64 + engine_ns_per_event * (1.0 + ap) + admit_mean + aggregates;
    out.set("core.sim_handle.ns_per_request", per_request);
    out.set("core.sim_handle.residual_ns", per_request - accounted);
    out.set("coverage", accounted / per_request);

    // telemetry: what recording costs the offline engine (MCI only; the
    // fat-tree's figure would be the same hooks on a longer run).
    if members.len() <= 8 {
        let mut null_s = Vec::new();
        let mut ring_s = Vec::new();
        let mut recorded = 0u64;
        for _ in 0..3 {
            let t = Instant::now();
            let plain = run_experiment_traced(&topo, wddh_config, &mut NullRecorder);
            null_s.push(t.elapsed().as_secs_f64());
            let mut ring = RingRecorder::new(seed);
            let t = Instant::now();
            let traced = run_experiment_traced(&topo, wddh_config, &mut ring);
            ring_s.push(t.elapsed().as_secs_f64());
            out.gate(plain == traced, || {
                "recording telemetry changed the metrics".into()
            });
            recorded = ring.len() as u64 + ring.dropped();
        }
        out.set(
            "telemetry.ring.overhead_ratio",
            median(&ring_s) / median(&null_s),
        );
        out.set("telemetry.events_per_request", recorded as f64 / n as f64);
    }

    // Spans: the same requests through the layers' public parts, with and
    // without the span recorder; the ratio is what the recorder costs.
    let (first_system, first_config) = &configs[0];
    let policy = match first_config.system {
        SystemSpec::Dac { policy, .. } => policy,
        _ => panic!("{first_system:?}: the first system of a workload is a DAC system"),
    };
    let replay = Replay {
        topo: &topo,
        config: first_config,
        arrivals: &arrivals,
        routes: &routes,
        distances: &distances,
        seed,
    };
    let requests = 20_000;
    let plain_ns = replay.spanned(policy, &mut Tracer::new(0), requests);
    let mut tracer = Tracer::new(requests * 8);
    let traced_ns = replay.spanned(policy, &mut tracer, requests);
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
            self_ns as f64 / requests as f64
        );
    }

    out.set("proc.peak_rss_mb", peak_rss_mb());
    out.failed = out.gate_failures.len() as u64;
    out
}

fn run_metric(s: SystemKey) -> &'static str {
    match s {
        SystemKey::Ed2 => "core.run.ed2_rps",
        SystemKey::WdDh2 => "core.run.wddh2_rps",
        SystemKey::WdDb2 => "core.run.wddb2_rps",
        SystemKey::Sp => "core.run.sp_rps",
        SystemKey::Gdi => "core.run.gdi_rps",
    }
}

fn admit_metric(s: SystemKey) -> &'static str {
    match s {
        SystemKey::Ed2 => "core.admit.ed2_ns",
        SystemKey::WdDh2 => "core.admit.wddh2_ns",
        SystemKey::WdDb2 => "core.admit.wddb2_ns",
        SystemKey::Sp => "core.admit.sp_ns",
        SystemKey::Gdi => "core.admit.gdi_ns",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        crate::report::scratch_dir().join(format!("test-{}-{name}.json", std::process::id()))
    }

    #[test]
    fn smoke_runs_of_both_offline_workloads_are_correct_and_repeat_exactly() {
        for sc in [&OFFLINE_MCI, &OFFLINE_FATTREE] {
            let a = run_e2e(sc, 3, 0.0, Scale::Smoke);
            assert!(a.correct(), "{}: {:?}", sc.name, a.gate_failures);
            assert!(a.attempted > 0);
            for m in &crate::spec::END_TO_END {
                assert!(
                    a.get(m.name).is_some_and(|v| v > 0.0),
                    "{} {}",
                    sc.name,
                    m.name
                );
            }
            let path = tmp(sc.name);
            let l1 = run_layers(sc, 3, Scale::Smoke, &path);
            let l2 = run_layers(sc, 3, Scale::Smoke, &path);
            assert!(l1.correct(), "{}: {:?}", sc.name, l1.gate_failures);
            // Counts repeat exactly for a seed.
            for name in [
                "core.sim_digest48",
                "core.ap",
                "core.mean_tries",
                "core.messages_per_request",
            ] {
                assert_eq!(l1.get(name), l2.get(name), "{} {name}", sc.name);
            }
            let spans = std::fs::read_to_string(&path).unwrap();
            assert!(parse(&spans).is_ok() && spans.contains("\"name\":\"reserve\""));
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn a_digest_mismatch_fails_the_gate_and_the_exit_code() {
        let pins = r#"{"offline_mci": {"11": "00000000deadbeef"}}"#;
        assert_eq!(pinned_digest(pins, "offline_mci", 11), Some(0xdead_beef));
        assert_eq!(pinned_digest(pins, "offline_mci", 12), None);
        assert_eq!(pinned_digest(pins, "offline_fattree", 11), None);

        let mut ok = Outcome::default();
        check_digest(&mut ok, pins, "offline_mci", 11, 0xdead_beef);
        check_digest(&mut ok, pins, "offline_mci", 12, 1); // unpinned seed: no gate
        assert!(ok.correct());
        assert_eq!(crate::report::exit_code([&ok]), 0);

        let mut bad = Outcome::default();
        check_digest(&mut bad, pins, "offline_mci", 11, 0xdead_beee);
        assert!(!bad.correct());
        assert_ne!(crate::report::exit_code([&bad]), 0);
    }

    #[test]
    fn the_pinned_file_covers_both_workloads_at_the_default_seed() {
        for sc in [&OFFLINE_MCI, &OFFLINE_FATTREE] {
            assert!(pinned_digest(EXPECTED, sc.name, crate::spec::DEFAULT_SEED).is_some());
        }
    }

    #[test]
    fn digest_moves_with_behaviour_and_not_with_order_of_evaluation() {
        let sc = &OFFLINE_MCI;
        let run = |seed| {
            let topo = (sc.build_topology)(Scale::Smoke);
            sc.configs(seed, Scale::Smoke)
                .iter()
                .map(|(_, c)| run_experiment(&topo, c))
                .collect::<Vec<_>>()
        };
        assert_eq!(digest(&run(5)), digest(&run(5)));
        assert_ne!(digest(&run(5)), digest(&run(6)));
    }
}
