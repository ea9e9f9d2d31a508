//! Bit-exact pins of whole-run `Metrics` on the three engine paths that
//! move the ledger's *held* and *failed* totals — a chaos plan with a link
//! outage and a node crash, lossy two-phase signalling, and GDI on a
//! fat-tree. The perfbench digests cover fault-free atomic DAC on
//! MCI and `fat_tree(34)` only, so these are what notices a one-bit
//! change in the utilisation, availability or leak statistics elsewhere.
//!
//! The expected strings are the `Debug` rendering of `Metrics` (shortest
//! round-trip floats, so exact) captured at the commit before the ledger
//! began keeping running totals. `soft_state_expiry_sequences` adds what
//! `Metrics` only counts: which orphans soft state reclaimed, when, and in
//! what order. `two_phase_event_streams` pins the whole telemetry stream of
//! two event-driven signalling runs, and `mci_multipath_wddb` the metrics
//! of the multipath extension, which no other pin covers.

use anycast::chaos::{FaultAction, FaultPlan, MessageFault, SignalingFaults};
use anycast::dac::experiment::{run_experiment_traced, Metrics, SignalingMode, TwoPhaseConfig};
use anycast::prelude::*;
use anycast::telemetry::{DecisionTrace, Event, Recorder, TeardownReason};

fn short_run(lambda: f64, system: SystemSpec) -> ExperimentConfig {
    ExperimentConfig::paper_defaults(lambda, system)
        .with_warmup_secs(200.0)
        .with_measure_secs(500.0)
        .with_seed(23)
}

/// MCI ⟨WD/D+B,2⟩ with a link outage, a member crash/restore that
/// overlaps it, an explicit fault on one of the crashed member's own
/// links (so the restore must not resurrect it), and lost teardowns.
fn mci_wddb_fault_config(topo: &Topology) -> ExperimentConfig {
    let member = NodeId::new(4);
    let (_, member_link) = topo.neighbors(member)[0];
    let mut plan = FaultPlan::none()
        .with_scripted(250.0, FaultAction::FailLink(LinkId::new(7)))
        .with_scripted(300.0, FaultAction::CrashNode(member))
        .with_scripted(320.0, FaultAction::FailLink(member_link))
        .with_scripted(450.0, FaultAction::RestoreLink(LinkId::new(7)))
        .with_scripted(500.0, FaultAction::RestoreNode(member))
        .with_scripted(600.0, FaultAction::RestoreLink(member_link));
    plan.control.teardown_loss_probability = 0.05;
    short_run(45.0, SystemSpec::dac(PolicySpec::WdDb, 2)).with_faults(plan)
}

#[test]
fn mci_wddb_under_link_and_node_faults() {
    let topo = topologies::mci();
    let m = run_experiment(&topo, &mci_wddb_fault_config(&topo));
    assert!(m.availability < 1.0 && m.flows_killed_by_failure > 0 && m.outages == 3);
    assert_eq!(format!("{m:?}"), MCI_WDDB_FAULTS);
}

/// MCI ⟨WD/D+H,2⟩ over event-driven two-phase signalling with 5% loss on
/// every message kind: holds are placed, expired and committed, setups
/// time out and are retransmitted, and RESV_ERRs retrace refused PATHs.
fn mci_two_phase_lossy_config() -> ExperimentConfig {
    let lossy = MessageFault {
        loss_probability: 0.05,
        extra_delay_secs: 0.0,
    };
    let sig = SignalingFaults {
        path: MessageFault {
            extra_delay_secs: 0.02,
            ..lossy
        },
        resv: lossy,
        resv_err: lossy,
    };
    short_run(45.0, SystemSpec::dac(PolicySpec::wd_dh_default(), 2))
        .with_faults(FaultPlan::none().with_signaling(sig))
        .with_signaling(SignalingMode::TwoPhase(TwoPhaseConfig {
            per_hop_delay_secs: 0.02,
            setup_timeout_secs: 0.5,
            ..TwoPhaseConfig::default()
        }))
}

#[test]
fn mci_two_phase_lossy_signalling() {
    let topo = topologies::mci();
    let m = run_experiment(&topo, &mci_two_phase_lossy_config());
    assert!(m.holds_placed > 0 && m.holds_expired > 0 && m.setups_completed > 0);
    assert_eq!(format!("{m:?}"), MCI_TWO_PHASE_LOSSY);
}

/// MCI ⟨WD/D+B,2,k=3⟩: each member probed over its three shortest routes.
/// Traced, it explains its rejections as single-path DAC does.
#[test]
fn mci_multipath_wddb() {
    let topo = topologies::mci();
    let cfg = short_run(45.0, SystemSpec::dac_multipath(PolicySpec::WdDb, 2, 3));
    let m = run_experiment(&topo, &cfg);
    assert!(m.admission_probability < 1.0, "the pin must see rejections");
    assert_eq!(format!("{m:?}"), MCI_MULTIPATH_WDDB);

    let mut rejections = Rejections(Vec::new());
    let traced = run_experiment_traced(&topo, &cfg, &mut rejections);
    assert_eq!(
        format!("{traced:?}"),
        MCI_MULTIPATH_WDDB,
        "recording moved the run"
    );
    assert!(rejections.0.len() as u64 >= m.offered - m.admitted);
    for (tries, trace) in &rejections.0 {
        assert_eq!(trace.weights.len(), 5, "the first draw's weights");
        assert_eq!(
            trace.steps.len(),
            *tries as usize,
            "one step per member tried"
        );
    }
}

/// Every rejection a run records, with its decision trace.
struct Rejections(Vec<(u32, DecisionTrace)>);

impl Recorder for Rejections {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&mut self, _time_secs: f64, event: Event) {
        if let Event::Rejection { tries, trace, .. } = event {
            self.0.push((tries, trace));
        }
    }
}

/// `fat_tree(4)`, two members and fourteen sources among the sixteen
/// hosts, GDI.
#[test]
fn fat_tree4_gdi() {
    let topo = topologies::fat_tree(4, Bandwidth::from_mbps(100));
    let hosts = topologies::fat_tree_hosts(4);
    let members = vec![hosts[0], hosts[9]];
    let sources: Vec<NodeId> = hosts
        .iter()
        .copied()
        .filter(|h| !members.contains(h))
        .collect();
    let cfg = short_run(4.0, SystemSpec::GlobalDynamic)
        .with_group(members)
        .with_sources(sources);
    let m = run_experiment(&topo, &cfg);
    assert!(m.admission_probability < 1.0, "the pin must see rejections");
    assert_eq!(format!("{m:?}"), FAT_TREE4_GDI);
}

/// Counts the events of a run's telemetry stream that `key` renders, and
/// folds them in stream order into an FNV-1a digest: each event's time
/// bits, then the bytes `key` rendered it to.
struct StreamDigest {
    key: fn(&Event) -> Option<Vec<u8>>,
    count: u64,
    digest: u64,
}

impl StreamDigest {
    fn of(
        topo: &Topology,
        cfg: &ExperimentConfig,
        key: fn(&Event) -> Option<Vec<u8>>,
    ) -> (Metrics, Self) {
        let mut log = StreamDigest {
            key,
            count: 0,
            digest: 0xcbf2_9ce4_8422_2325,
        };
        let m = run_experiment_traced(topo, cfg, &mut log);
        (m, log)
    }
}

impl Recorder for StreamDigest {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&mut self, time_secs: f64, event: Event) {
        let Some(rendered) = (self.key)(&event) else {
            return;
        };
        self.count += 1;
        for byte in time_secs.to_bits().to_le_bytes().iter().chain(&rendered) {
            self.digest = (self.digest ^ u64::from(*byte)).wrapping_mul(0x100_0000_01b3);
        }
    }
}

/// Every event, by its `Debug` rendering (shortest round-trip floats).
fn every_event(event: &Event) -> Option<Vec<u8>> {
    Some(format!("{event:?}").into_bytes())
}

/// Soft-state expiries only, by their raw session numbers.
fn soft_state_expiries(event: &Event) -> Option<Vec<u8>> {
    match event {
        Event::ReservationTeardown {
            session,
            reason: TeardownReason::SoftStateExpired,
        } => Some(session.raw().to_le_bytes().to_vec()),
        _ => None,
    }
}

/// The orphan path end to end, pinned at the commit before soft state
/// became lazy (one deadline per live session, re-armed every sweep):
/// which orphans expire, when, and in what order — on the fault plan
/// above, where most orphans were last refreshed by a sweep and share its
/// deadline, and on flows living 5 s on average, which are admitted,
/// orphaned and mostly expired without any sweep ever seeing them.
#[test]
fn soft_state_expiry_sequences() {
    let topo = topologies::mci();
    let (m, log) = StreamDigest::of(&topo, &mci_wddb_fault_config(&topo), soft_state_expiries);
    assert_eq!(format!("{m:?}"), MCI_WDDB_FAULTS, "recording moved the run");
    assert_eq!((log.count, log.digest), (507, 0xca18_5743_b3b0_cbbf));
    assert!(log.count <= m.orphans_reclaimed && m.orphans_reclaimed <= m.orphaned_reservations);
    assert_eq!(m.leaked_bandwidth_bps, 0);

    let mut lossy = FaultPlan::none();
    lossy.control.teardown_loss_probability = 0.3;
    let mut brief =
        short_run(100.0, SystemSpec::dac(PolicySpec::wd_dh_default(), 2)).with_faults(lossy);
    brief.mean_holding_secs = 5.0;
    let (m, log) = StreamDigest::of(&topo, &brief, soft_state_expiries);
    assert_eq!((log.count, log.digest), (18_316, 0x7903_5619_dba4_76a5));
    assert_eq!(
        (m.orphaned_reservations, m.orphans_reclaimed, m.offered),
        (20_794, 18_316, 50_229)
    );
    assert_eq!(
        log.count, m.orphans_reclaimed,
        "no fault competes for orphans here"
    );
    assert_eq!(m.leaked_bandwidth_bps, 0);
}

/// The event-driven signalling engine end to end, every telemetry event
/// in order: the lossy run above, and ⟨ED,2⟩ at 0.05 s per hop without
/// loss, where the stale state a PATH walk meets makes retrials common.
#[test]
fn two_phase_event_streams() {
    let topo = topologies::mci();
    let (m, log) = StreamDigest::of(&topo, &mci_two_phase_lossy_config(), every_event);
    assert_eq!(
        format!("{m:?}"),
        MCI_TWO_PHASE_LOSSY,
        "recording moved the run"
    );
    assert_eq!((log.count, log.digest), (416_046, 0x415d_d9f7_92e2_633a));

    let delayed = short_run(45.0, SystemSpec::dac(PolicySpec::Ed, 2)).with_signaling(
        SignalingMode::TwoPhase(TwoPhaseConfig {
            per_hop_delay_secs: 0.05,
            ..TwoPhaseConfig::default()
        }),
    );
    let (m, log) = StreamDigest::of(&topo, &delayed, every_event);
    assert!(m.mean_retrials > 0.3 && m.signaling_messages_lost == 0);
    assert_eq!((log.count, log.digest), (390_432, 0x1af6_f880_e0c1_5e88));
}

const MCI_WDDB_FAULTS: &str = concat!(
    r#"Metrics { label: "<WD/D+B,2>", lambda: 45.0, seed: 23, "#,
    r#"admission_probability: 0.5015140719629497, ap_ci95: 0.006539141578441682, "#,
    r#"offered: 22456, admitted: 11262, mean_tries: 1.5688457427859037, "#,
    r#"mean_retrials: 0.5688457427858924, messages: MessageLedger { path: 52474, "#,
    r#"resv: 19892, resv_err: 32582, path_tear: 19567 }, "#,
    r#"messages_per_request: 5.544843249020307, mean_active_flows: 3639.566256260944, "#,
    r#"tries_histogram: [0, 9682, 12774], per_group_ap: [0.5015140719629497], "#,
    r#"mean_network_utilization: 0.6510056078068653, "#,
    r#"member_share: [[0.19383768424791334, 0.247646954359794, 0.22482685135855088, "#,
    r#"0.13567749955602912, 0.19801101047771266]], availability: 0.93125, "#,
    r#"flows_killed_by_failure: 1224, outages: 3, "#,
    r#"mean_recovery_secs: 226.66666666666666, orphaned_reservations: 609, "#,
    r#"orphans_reclaimed: 537, leaked_bandwidth_bps: 0, holds_placed: 0, "#,
    r#"holds_expired: 0, setups_completed: 0, retransmits: 0, "#,
    r#"signaling_messages_lost: 0, mean_setup_latency_secs: 0.0, leaked_hold_bps: 0 }"#,
);

const MCI_TWO_PHASE_LOSSY: &str = concat!(
    r#"Metrics { label: "<WD/D+H,2>", lambda: 45.0, seed: 23, "#,
    r#"admission_probability: 0.5329978624866405, ap_ci95: 0.006524917985023338, "#,
    r#"offered: 22456, admitted: 11969, mean_tries: 1.6544798717492069, "#,
    r#"mean_retrials: 0.6544798717491984, messages: MessageLedger { path: 68431, "#,
    r#"resv: 21211, resv_err: 43037, path_tear: 19766 }, "#,
    r#"messages_per_request: 6.788608835055219, mean_active_flows: 4254.822527567862, "#,
    r#"tries_histogram: [0, 7759, 14697], per_group_ap: [0.5329978624866405], "#,
    r#"mean_network_utilization: 0.7140702255159774, "#,
    r#"member_share: [[0.19909766897819367, 0.2853204110619099, 0.21647589606483417, "#,
    r#"0.05447405798312307, 0.24463196591193917]], availability: 1.0, "#,
    r#"flows_killed_by_failure: 0, outages: 0, mean_recovery_secs: 0.0, "#,
    r#"orphaned_reservations: 0, orphans_reclaimed: 0, leaked_bandwidth_bps: 0, "#,
    r#"holds_placed: 59669, holds_expired: 8811, setups_completed: 19269, "#,
    r#"retransmits: 7271, signaling_messages_lost: 7314, "#,
    r#"mean_setup_latency_secs: 0.09887427110616308, leaked_hold_bps: 0 }"#,
);

const FAT_TREE4_GDI: &str = concat!(
    r#"Metrics { label: "GDI", lambda: 4.0, seed: 23, "#,
    r#"admission_probability: 0.8726053639846744, ap_ci95: 0.014304532100614645, "#,
    r#"offered: 2088, admitted: 1822, mean_tries: 1.0, mean_retrials: 0.0, "#,
    r#"messages: MessageLedger { path: 9326, resv: 9326, resv_err: 0, "#,
    r#"path_tear: 8522 }, messages_per_request: 13.014367816091953, "#,
    r#"mean_active_flows: 608.8534800171742, tries_histogram: [0, 2088], "#,
    r#"per_group_ap: [0.8726053639846744], "#,
    r#"mean_network_utilization: 0.20725419137393108, "#,
    r#"member_share: [[0.47804610318331503, 0.5219538968166849]], availability: 1.0, "#,
    r#"flows_killed_by_failure: 0, outages: 0, mean_recovery_secs: 0.0, "#,
    r#"orphaned_reservations: 0, orphans_reclaimed: 0, leaked_bandwidth_bps: 0, "#,
    r#"holds_placed: 0, holds_expired: 0, setups_completed: 0, retransmits: 0, "#,
    r#"signaling_messages_lost: 0, mean_setup_latency_secs: 0.0, leaked_hold_bps: 0 }"#,
);

const MCI_MULTIPATH_WDDB: &str = concat!(
    r#"Metrics { label: "<WD/D+B,2,k=3>", lambda: 45.0, seed: 23, "#,
    r#"admission_probability: 0.5534823655147845, "#,
    r#"ap_ci95: 0.006501661556207559, offered: 22456, admitted: 12429, "#,
    r#"mean_tries: 1.554729248307802, mean_retrials: 0.5547292483078019, "#,
    r#"messages: MessageLedger { path: 148360, resv: 26701, resv_err: 121659, "#,
    r#"path_tear: 25751 }, messages_per_request: 14.360126469540434, "#,
    r#"mean_active_flows: 4410.102561725722, tries_histogram: [0, 9999, "#,
    r#"12457], per_group_ap: [0.5534823655147845], "#,
    r#"mean_network_utilization: 0.9274427570524862, "#,
    r#"member_share: [[0.16606323919864832, 0.2513476546785743, "#,
    r#"0.20041837637782606, 0.19438410169764261, 0.18778662804730872]], "#,
    r#"availability: 1.0, flows_killed_by_failure: 0, outages: 0, "#,
    r#"mean_recovery_secs: 0.0, orphaned_reservations: 0, "#,
    r#"orphans_reclaimed: 0, leaked_bandwidth_bps: 0, holds_placed: 0, "#,
    r#"holds_expired: 0, setups_completed: 0, retransmits: 0, "#,
    r#"signaling_messages_lost: 0, mean_setup_latency_secs: 0.0, "#,
    r#"leaked_hold_bps: 0 }"#,
);
